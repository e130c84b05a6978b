//! Integration suite for the unified telemetry layer (PR 5).
//!
//! Pins the three contracts the observability tentpole makes:
//!
//! 1. **Bit-identical outputs.** Telemetry is purely observational —
//!    enabling tracing must not perturb a single bit of any pipeline
//!    result, at any thread count. Comparisons go through
//!    `format!("{:?}")`, which round-trips `f64` exactly.
//! 2. **Counters are the single source of truth.** `EngineStats` is a
//!    read-only view over the telemetry counters, so the two must
//!    reconcile *exactly* — not approximately — after any workload.
//! 3. **Chrome-trace validity.** The exported JSON reparses, events
//!    carry consistent pid/tid, every traced thread has a
//!    `thread_name` metadata record, all six flow stages appear as
//!    spans, and spans on each thread nest (stack discipline).

use std::time::Duration;

use claire::core::fault::{FaultClass, FaultPlan};
use claire::core::telemetry::Metric;
use claire::core::{Claire, ClaireOptions, Engine, RobustnessPolicy, TelemetryOptions};
use claire::model::zoo;
use serde_json::Value;

/// Thread counts the suite sweeps: the serial edge case, a small
/// pool, and more workers than this container has cores.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Runs the full six-stage paper flow (train + test) over the given
/// model sets on `engine` and returns the Debug rendering of both
/// outputs. Callers reuse one model set across runs so process-global
/// `instance_id` allocation cannot masquerade as a divergence.
fn flow_fingerprint(
    engine: &Engine,
    training: &[claire::model::Model],
    tests: &[claire::model::Model],
) -> String {
    let claire = Claire::new(ClaireOptions::default());
    let train = claire
        .train_with_engine(training, engine)
        .expect("training phase");
    let test = claire
        .evaluate_test_with_engine(&train, tests, engine)
        .expect("test phase");
    format!("{train:?}\n{test:?}")
}

/// [`flow_fingerprint`] over the full paper zoo.
fn paper_flow(engine: &Engine) -> String {
    flow_fingerprint(engine, &zoo::training_set(), &zoo::test_set())
}

#[test]
fn outputs_are_bit_identical_with_tracing_on() {
    let training = zoo::training_set();
    let tests = zoo::test_set();
    for threads in THREAD_COUNTS {
        let plain = flow_fingerprint(&Engine::new(threads), &training, &tests);
        let traced = flow_fingerprint(&Engine::new(threads).with_tracing(true), &training, &tests);
        assert_eq!(
            plain, traced,
            "tracing perturbed pipeline output at {threads} thread(s)"
        );
    }
}

#[test]
fn engine_stats_reconcile_exactly_with_counters() {
    for threads in [1, 4] {
        let engine = Engine::new(threads);
        paper_flow(&engine);
        let stats = engine.stats();
        let tel = engine.telemetry();
        let pairs: [(&str, u64, Metric); 4] = [
            ("louvain_hits", stats.louvain_hits, Metric::LouvainHit),
            ("louvain_misses", stats.louvain_misses, Metric::LouvainMiss),
            ("graph_hits", stats.graph_hits, Metric::GraphHit),
            ("graph_misses", stats.graph_misses, Metric::GraphMiss),
        ];
        for (field, legacy, metric) in pairs {
            assert_eq!(
                legacy,
                tel.counter(metric),
                "{threads} thread(s): EngineStats.{field} diverged from {}",
                metric.name()
            );
            // The flow both hits and misses every memo tier, so the
            // reconciliation compared live values, not a wall of zeros.
            assert!(legacy > 0, "{threads} thread(s): {field} is 0");
        }
        assert_eq!(stats.dse_pruned, tel.counter(Metric::DsePruned));
        assert_eq!(stats.dse_evaluated, tel.counter(Metric::DseEvaluated));
        assert!(stats.dse_evaluated > 0, "flow should evaluate DSE points");
    }
}

#[test]
fn stage_aggregates_match_engine_stats_stages() {
    let engine = Engine::new(2);
    paper_flow(&engine);
    let stats = engine.stats();
    let agg = engine.telemetry().stage_aggregates();
    assert_eq!(
        stats.stages, agg,
        "EngineStats.stages must be the telemetry stage aggregates"
    );
    let names: Vec<&str> = agg.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "plan",
            "customs",
            "generic",
            "subsets",
            "libraries",
            "algo_ppa",
            "test"
        ],
        "the flat-plan stage plus the six flow stages, in execution order"
    );
}

/// Floored-microsecond rounding slack for span boundary comparisons:
/// `ts` and `dur` are floored independently, so a child's floored end
/// can exceed its parent's floored end by up to 2 µs.
const SLACK_US: i64 = 2;

#[test]
fn chrome_trace_is_schema_valid() {
    let engine = Engine::new(2).with_tracing(true);
    paper_flow(&engine);
    let json = serde_json::to_string(&engine.telemetry().chrome_trace()).expect("serialise");
    let parsed: Value = serde_json::from_str(&json).expect("trace JSON must reparse");
    let events = parsed["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());

    let mut named_tids = Vec::new();
    let mut span_tids = Vec::new();
    let mut stage_names = Vec::new();
    // (tid, ts, end) per complete event, for the nesting check.
    let mut spans: Vec<(i64, i64, i64)> = Vec::new();
    for ev in events {
        let ph = ev["ph"].as_str().expect("every event has ph");
        assert_eq!(ev["pid"].as_u64(), Some(1), "single-process trace");
        let tid = ev["tid"].as_u64().expect("every event has tid") as i64;
        match ph {
            "M" => {
                if ev["name"].as_str() == Some("thread_name") {
                    named_tids.push(tid);
                }
            }
            "X" => {
                let name = ev["name"].as_str().expect("complete events are named");
                let ts = ev["ts"].as_u64().expect("integer ts") as i64;
                let dur = ev["dur"].as_u64().expect("integer dur") as i64;
                span_tids.push(tid);
                spans.push((tid, ts, ts + dur));
                if let Some(stage) = name.strip_prefix("stage.") {
                    assert_eq!(tid, 0, "stage spans live on the main track");
                    stage_names.push(stage.to_owned());
                }
            }
            "i" => {}
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    for stage in [
        "customs",
        "generic",
        "subsets",
        "libraries",
        "algo_ppa",
        "test",
    ] {
        assert!(
            stage_names.iter().any(|s| s == stage),
            "missing stage span {stage:?}"
        );
    }
    for tid in &span_tids {
        assert!(
            named_tids.contains(tid),
            "tid {tid} has spans but no thread_name metadata"
        );
    }
    // Stack discipline per thread: any two spans on the same tid are
    // either nested or disjoint (modulo floored-µs rounding slack).
    for (i, &(tid_a, s_a, e_a)) in spans.iter().enumerate() {
        for &(tid_b, s_b, e_b) in &spans[i + 1..] {
            if tid_a != tid_b {
                continue;
            }
            let disjoint = e_a <= s_b + SLACK_US || e_b <= s_a + SLACK_US;
            let a_in_b = s_a >= s_b - SLACK_US && e_a <= e_b + SLACK_US;
            let b_in_a = s_b >= s_a - SLACK_US && e_b <= e_a + SLACK_US;
            assert!(
                disjoint || a_in_b || b_in_a,
                "tid {tid_a}: spans [{s_a},{e_a}] and [{s_b},{e_b}] partially overlap"
            );
        }
    }
}

#[test]
fn tracing_disabled_records_no_span_events() {
    let engine = Engine::new(2);
    paper_flow(&engine);
    let trace = engine.telemetry().chrome_trace();
    let events = trace["traceEvents"].as_array().expect("traceEvents");
    let spans = events
        .iter()
        .filter(|e| matches!(e["ph"].as_str(), Some("X") | Some("i")))
        .count();
    assert_eq!(spans, 0, "disabled tracing must record no span events");
}

#[test]
fn worker_busy_never_exceeds_wall() {
    let engine = Engine::new(4);
    paper_flow(&engine);
    let util = engine.telemetry().worker_utilization();
    assert!(!util.is_empty(), "parallel flow must record worker samples");
    for w in util {
        assert!(
            w.busy <= w.wall + Duration::from_micros(1),
            "worker {}: busy {:?} exceeds wall {:?}",
            w.worker,
            w.busy,
            w.wall
        );
        let u = w.utilization();
        assert!(
            (0.0..=1.0).contains(&u),
            "worker {}: utilization {u}",
            w.worker
        );
    }
}

#[test]
fn degrade_ladder_lands_in_rung_histogram() {
    let plan = FaultPlan::new(11).with(FaultClass::InfeasibleConstraints, 1.0);
    let engine = Engine::new(2).with_faults(plan);
    let opts = ClaireOptions {
        policy: RobustnessPolicy::Degrade,
        ..Default::default()
    };
    let out = Claire::new(opts)
        .custom_for_with_engine(&zoo::alexnet(), &engine)
        .expect("degrade mode walks the relaxation ladder");
    assert!(out.degradation.is_some());
    let tel = engine.telemetry();
    assert!(
        tel.counter(Metric::DegradeAttempts) > 0,
        "relaxed retries must be counted"
    );
    assert!(
        tel.counter(Metric::DegradeSuccesses) > 0,
        "relaxed success must be counted"
    );
    let rungs = tel.degrade_rungs().snapshot();
    let relaxed: u64 = rungs.iter().skip(1).sum();
    assert!(relaxed > 0, "winning rung > 0 must land in the histogram");
    assert!(
        tel.counter(Metric::FaultInfeasibleConstraints) > 0,
        "fault trigger sites must count their class"
    );
}

#[test]
fn worker_panic_faults_are_counted() {
    let plan = FaultPlan::new(7).with(FaultClass::WorkerPanic, 1.0);
    let engine = Engine::new(2).with_faults(plan);
    let claire = Claire::new(ClaireOptions::default());
    claire
        .train_with_engine(&[zoo::alexnet(), zoo::resnet18()], &engine)
        .expect_err("panicking workers must not produce a result");
    let tel = engine.telemetry();
    assert!(tel.counter(Metric::FaultWorkerPanic) > 0);
    assert!(tel.counter(Metric::ParPanics) > 0);
}

#[test]
fn facade_exports_trace_and_metrics_files() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let trace_path = dir.join(format!("claire_tel_trace_{pid}.json"));
    let metrics_path = dir.join(format!("claire_tel_metrics_{pid}.json"));
    let opts = ClaireOptions {
        telemetry: TelemetryOptions {
            trace_out: Some(trace_path.clone()),
            metrics_out: Some(metrics_path.clone()),
        },
        ..Default::default()
    };
    Claire::new(opts)
        .train(&[zoo::alexnet(), zoo::resnet18()])
        .expect("training phase");

    let trace_text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let trace: Value = serde_json::from_str(&trace_text).expect("trace reparses");
    let events = trace["traceEvents"].as_array().expect("traceEvents");
    assert!(events
        .iter()
        .any(|e| e["name"].as_str() == Some("stage.customs")));

    let metrics_text = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    let metrics: Value = serde_json::from_str(&metrics_text).expect("metrics reparses");
    for key in [
        "counters",
        "gauges",
        "histograms",
        "stages",
        "worker_utilization",
    ] {
        assert!(metrics.get(key).is_some(), "metrics JSON missing {key:?}");
    }

    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&metrics_path);
}
