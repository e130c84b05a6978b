//! Workload profiler: the computing-profile analysis of Sec. IV
//! generalised to every built-in algorithm — MACs, parameters,
//! activation traffic, arithmetic intensity, layer inventory and the
//! dominant layer connection — plus an evaluation-engine profile
//! comparing the serial, uncached reference against the parallel,
//! memoized engine on the full 19-model train + test flow, and a
//! clustering + partitioning stage profile comparing the map-based
//! kernels against the CSR kernels with the memoized Louvain tier.
//!
//! Besides the human-readable tables, the run writes
//! `BENCH_profile.json` (per-stage wall times, memo-tier hit rates,
//! thread count, stage speedups, staged-DSE pruning statistics) for
//! machine consumption — CI uploads it as an artifact.
//!
//! Pass `--dense` (or `--dense=N`) to sweep the staged-DSE comparison
//! over [`DseSpace::dense`]'s `N⁴`-point stress space (default
//! `N = 10`, i.e. 10,000 points) instead of the paper's 81; in dense
//! mode the run asserts the staged sweep is at least 2x faster than
//! the exhaustive reference while selecting bit-identical
//! configurations.
//!
//! Pass `--huge` to additionally stress the generative search path:
//! a seeded successive-halving run over [`GridSpace::huge`]'s 2²⁰
//! (~10⁶) hardware points, never materialized as a vector, priced
//! exactly only at the surviving rung. The run reports the wall time
//! in the `search.huge` JSON object; combined with `--dense`, it
//! asserts the 2²⁰-point sampled search finishes within the dense
//! exhaustive sweep's wall time.

use claire_bench::{paper_options, render_table, run_flow_with_engine};
use claire_core::assign::{partition_training_merged, scaled_vector, WeightScale};
use claire_core::dse::{custom_config_with_engine, set_config_with_engine, DseObjective};
use claire_core::evaluate::EvalOptions;
use claire_core::graphs::universal_graph;
use claire_core::telemetry::Metric;
use claire_core::{
    search_with_engine, Claire, Constraints, DesignConfig, Engine, EngineStats, LifecycleEvent,
    LifecycleStage, QuantileDigest, SearchPolicy, ServeObserver, Telemetry,
};
use claire_graph::{agglomerate_by, louvain_reference, weighted_jaccard};
use claire_model::{zoo, Model};
use claire_ppa::{DesignSpace, DseSpace, GridSpace, HwParams, MemoryModel};
use serde::{Number, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn main() {
    let mut models = zoo::training_set();
    models.extend(zoo::test_set());
    let mut rows = Vec::new();
    for m in &models {
        let combos = m.edge_combination_counts();
        let dominant = combos
            .iter()
            .max_by_key(|(_, &n)| n)
            .map(|((a, b), _)| format!("{a}-{b}"))
            .unwrap_or_default();
        rows.push(vec![
            m.name().to_owned(),
            format!("{:.2}", m.macs() as f64 / 1e9),
            format!("{:.1}", m.param_count() as f64 / 1e6),
            format!("{:.1}", m.activation_bytes() as f64 / 1e6),
            format!("{:.1}", m.arithmetic_intensity()),
            m.op_class_counts().len().to_string(),
            dominant,
        ]);
    }
    print!(
        "{}",
        render_table(
            "Workload profiles (Sec. IV computing-profile analysis, all models)",
            &[
                "Algorithm",
                "GMACs",
                "MParams",
                "Act MB",
                "MACs/B",
                "#Classes",
                "Dominant edge",
            ],
            &rows,
        )
    );
    println!();
    println!("PEANUT-RCNN tops the class-diversity column (the paper's");
    println!("observation about the generic configuration's area); the LLMs'");
    println!("arithmetic intensity collapses toward their token count.");

    // Evaluation-engine profile: the full 19-model paper flow (13
    // training + 6 test algorithms), serial/uncached vs the default
    // parallel, memoized engine. Results are bit-identical; only the
    // wall time and the cache counters differ.
    println!();
    let serial = Engine::serial().with_cache(false);
    let t0 = Instant::now();
    run_flow_with_engine(paper_options(), &serial);
    let serial_time = t0.elapsed();

    let parallel = Engine::for_space(&paper_options().space);
    let t1 = Instant::now();
    run_flow_with_engine(paper_options(), &parallel);
    let parallel_time = t1.elapsed();

    println!("== Evaluation-engine profile (19-model train + test flow) ==");
    println!(
        "serial reference (1 thread, cache off): {:>9.3} ms",
        serial_time.as_secs_f64() * 1e3
    );
    println!(
        "parallel engine:                        {:>9.3} ms  ({:.2}x speedup)",
        parallel_time.as_secs_f64() * 1e3,
        serial_time.as_secs_f64() / parallel_time.as_secs_f64()
    );
    print!("{}", parallel.stats());

    // Warm reflow: `run_flow_with_engine` reconstructs the zoo from
    // scratch, so every model arrives with a fresh instance id but an
    // unchanged layer structure. Under the old instance-id memo keys a
    // rerun re-missed every compute sum; the structural keys serve
    // them all from cache, which is exactly what this section pins.
    let flow_stats = parallel.stats();
    // Hook counts of the cold flow alone, snapshotted before the warm
    // reflow doubles them — the telemetry overhead model below divides
    // by the cold flow's wall time, so its numerator must count the
    // same flow.
    // Batch-added metrics land in one `count_by` atomic op per call
    // site (a screen noting its whole pruned count, a par_map noting
    // its item total), not one op per counted event — their values
    // overstate the executed hooks by orders of magnitude, so the
    // op-count model excludes them. The batch ops themselves are
    // bounded by the screen/map call counts, which the span total
    // already covers.
    const BATCHED: &[Metric] = &[
        Metric::DsePruned,
        Metric::DseEvaluated,
        Metric::DseLbPruned,
        Metric::PlanItems,
        Metric::ParItems,
        Metric::LouvainPasses,
        Metric::NocRerouteVisited,
    ];
    let cold_counter_hooks: u64 = Metric::ALL
        .iter()
        .filter(|m| !BATCHED.contains(m))
        .map(|&m| parallel.telemetry().counter(m))
        .sum();
    let cold_span_hooks: u64 = parallel
        .telemetry()
        .stage_aggregates_detailed()
        .iter()
        .map(|a| a.count)
        .sum();
    let t_reflow = Instant::now();
    run_flow_with_engine(paper_options(), &parallel);
    let reflow_time = t_reflow.elapsed();
    let reflow_stats = parallel.stats();
    println!();
    println!("== Warm reflow (fresh model instances, same engine) ==");
    println!(
        "cold flow: {:>9.3} ms  (compute-sum hit rate {:.1} %)",
        parallel_time.as_secs_f64() * 1e3,
        100.0 * flow_stats.sum_hit_rate()
    );
    println!(
        "warm flow: {:>9.3} ms  (cumulative compute-sum hit rate {:.1} %)",
        reflow_time.as_secs_f64() * 1e3,
        100.0 * reflow_stats.sum_hit_rate()
    );
    println!(
        "structural keys: {} structures over {} instances",
        reflow_stats.struct_entries, reflow_stats.struct_instances
    );
    assert!(
        reflow_stats.sum_hit_rate() > flow_stats.sum_hit_rate(),
        "reflow did not raise the compute-sum hit rate: {:.3} -> {:.3}",
        flow_stats.sum_hit_rate(),
        reflow_stats.sum_hit_rate()
    );
    // PR 2 recorded 38.7 % under instance-id keys; structural keys
    // must beat it.
    assert!(
        reflow_stats.sum_hit_rate() > 0.387,
        "cumulative compute-sum hit rate {:.3} does not beat the 38.7 % \
         instance-id-keyed baseline",
        reflow_stats.sum_hit_rate()
    );
    assert!(
        reflow_stats.struct_instances > reflow_stats.struct_entries,
        "reflow should map several instances onto each structure"
    );

    // Warm-state persistence: the serialized memo tiers must be a
    // pure accelerant across process restarts. Save the cold engine's
    // tiers, restore them into a fresh engine (a new "process"), and
    // rerun the identical flow — the warm restart must be
    // bit-identical, faster, and the snapshot bytes canonical
    // (independent of thread count). The `persist` object in
    // BENCH_profile.json carries the CI perf-smoke gate
    // (`warm_restart_speedup > 1.0`).
    let snap_dir = std::env::temp_dir().join(format!("claire-profile-snap-{}", std::process::id()));
    std::fs::create_dir_all(&snap_dir).expect("create snapshot scratch dir");
    let snap_path = snap_dir.join("claire.snapshot");

    // The model instances are shared by both runs: instance ids are
    // process-global cosmetic metadata (the memo keys are structural),
    // and sharing them lets the bit-identity check compare whole
    // outputs instead of a field subset.
    let persist_claire = Claire::new(paper_options());
    let persist_training = zoo::training_set();
    let persist_tests = zoo::test_set();
    let persist_flow = |engine: &Engine| {
        let train = persist_claire
            .train_with_engine(&persist_training, engine)
            .expect("training phase");
        let test = persist_claire
            .evaluate_test_with_engine(&train, &persist_tests, engine)
            .expect("test phase");
        format!("{train:?}\n{test:?}")
    };

    let persist_cold = Engine::for_space(&paper_options().space);
    let t_cold = Instant::now();
    let cold_rendered = persist_flow(&persist_cold);
    let persist_cold_time = t_cold.elapsed();

    let t_save = Instant::now();
    assert!(
        persist_cold
            .save_snapshot(&snap_path)
            .expect("save snapshot"),
        "cold engine had nothing to snapshot"
    );
    let save_time = t_save.elapsed();
    let snapshot_len = std::fs::metadata(&snap_path).expect("snapshot stat").len();

    let persist_warm = Engine::for_space(&paper_options().space);
    let t_load = Instant::now();
    assert!(
        persist_warm
            .load_snapshot(&snap_path)
            .expect("load snapshot"),
        "snapshot restored nothing"
    );
    let load_time = t_load.elapsed();
    let t_warm = Instant::now();
    let warm_rendered = persist_flow(&persist_warm);
    let persist_warm_time = t_warm.elapsed();

    let persist_identical = warm_rendered == cold_rendered;
    assert!(
        persist_identical,
        "flow restarted from a snapshot diverged from the cold flow"
    );
    let warm_restart_speedup = persist_cold_time.as_secs_f64() / persist_warm_time.as_secs_f64();

    // Canonical encoding: the same flow at 1, 2 and 8 threads reaches
    // byte-identical snapshots.
    let mut thread_snaps = Vec::new();
    for threads in [1usize, 2, 8] {
        let engine = Engine::new(threads);
        run_flow_with_engine(paper_options(), &engine);
        thread_snaps.push(engine.snapshot_bytes().expect("encode snapshot"));
    }
    let byte_identical_across_threads = thread_snaps.windows(2).all(|w| w[0] == w[1]);
    assert!(
        byte_identical_across_threads,
        "snapshot bytes diverged across thread counts"
    );
    std::fs::remove_dir_all(&snap_dir).ok();

    println!();
    println!("== Warm-state persistence (snapshot restart) ==");
    println!(
        "cold flow {:>9.3} ms, saved {snapshot_len} snapshot bytes in {:.3} ms",
        persist_cold_time.as_secs_f64() * 1e3,
        save_time.as_secs_f64() * 1e3
    );
    println!(
        "loaded in {:.3} ms, warm flow {:>9.3} ms  ({warm_restart_speedup:.2}x warm-restart speedup)",
        load_time.as_secs_f64() * 1e3,
        persist_warm_time.as_secs_f64() * 1e3
    );
    println!(
        "bit-identical outputs: {persist_identical}; \
         snapshot bytes identical at 1/2/8 threads: {byte_identical_across_threads}"
    );
    assert!(
        warm_restart_speedup > 1.0,
        "warm restart ({:.3} ms) not faster than the cold flow ({:.3} ms)",
        persist_warm_time.as_secs_f64() * 1e3,
        persist_cold_time.as_secs_f64() * 1e3
    );

    // Staged, constraint-pruned DSE vs the exhaustive reference: the
    // customs+generic selection pass over all 19 algorithms, on two
    // equally configured engines differing only in `with_pruning`.
    let dense_axis = std::env::args().skip(1).find_map(|a| {
        if a == "--dense" {
            Some(10)
        } else {
            a.strip_prefix("--dense=").and_then(|v| v.parse().ok())
        }
    });
    let dse_space = dense_axis.map_or_else(DseSpace::default, DseSpace::dense);
    let cons = Constraints::default();
    let exhaustive_engine = Engine::for_space(&dse_space).with_pruning(false);
    let (exhaustive_sel, exhaustive_time) =
        dse_selection_pass(&dse_space, &cons, &exhaustive_engine);
    let staged_engine = Engine::for_space(&dse_space);
    let (staged_sel, staged_time) = dse_selection_pass(&dse_space, &cons, &staged_engine);
    let selections_identical = staged_sel == exhaustive_sel;
    assert!(
        selections_identical,
        "staged DSE selected different configurations than the exhaustive sweep"
    );
    let dse_speedup = exhaustive_time.as_secs_f64() / staged_time.as_secs_f64();
    let dse_stats = staged_engine.stats();
    println!();
    println!(
        "== Staged DSE sweep (customs + generic, {} points{}) ==",
        dse_space.len(),
        if dense_axis.is_some() { ", dense" } else { "" }
    );
    println!(
        "exhaustive reference: {:>9.3} ms",
        exhaustive_time.as_secs_f64() * 1e3
    );
    println!(
        "staged + pruned:      {:>9.3} ms  ({dse_speedup:.2}x speedup, {:.1} % pruned)",
        staged_time.as_secs_f64() * 1e3,
        100.0 * dse_stats.pruned_fraction()
    );
    println!("selections bit-identical: {selections_identical}");
    if dense_axis.is_some() {
        assert!(
            dse_speedup >= 2.0,
            "dense-mode staged DSE speedup {dse_speedup:.2}x below the required 2x"
        );
    }

    // Search-at-scale profile: the latency lower-bound screen, the
    // successive-halving policy's exhaustive degeneracy and seeded
    // reproducibility, and (with --huge) a generative 2^20-point
    // sampled search.
    let lb_screen_total = dse_stats.dse_pruned + dse_stats.dse_lb_pruned + dse_stats.dse_evaluated;
    let lb_pruned_fraction = if lb_screen_total == 0 {
        0.0
    } else {
        dse_stats.dse_lb_pruned as f64 / lb_screen_total as f64
    };
    if dense_axis.is_some() {
        assert!(
            dse_stats.dse_lb_pruned > 0,
            "dense-mode latency lower-bound screen pruned nothing"
        );
    }

    // Budget >= |space| makes successive halving exactly exhaustive:
    // no rung ever fires, the point lists are bit-identical. Checked
    // on the paper's 81-point space for every built-in algorithm.
    let paper_space = DseSpace::default();
    let degen_engine = Engine::for_space(&paper_space);
    let degen_policy = SearchPolicy::SuccessiveHalving {
        seed: 7,
        eta: 2,
        budget: paper_space.len(),
    };
    let sh_degenerate_identical = models.iter().all(|m| {
        let sh = search_with_engine(m, &paper_space, &cons, degen_policy, &degen_engine);
        let ex = search_with_engine(
            m,
            &paper_space,
            &cons,
            SearchPolicy::Exhaustive,
            &degen_engine,
        );
        !sh.sampled && format!("{:?}", sh.points) == format!("{:?}", ex.points)
    });
    assert!(
        sh_degenerate_identical,
        "full-budget successive halving diverged from the exhaustive oracle"
    );

    // A genuinely sampled run on the comparison space: seeded, so two
    // runs walk identical trajectories.
    let sh_policy = SearchPolicy::SuccessiveHalving {
        seed: 42,
        eta: 2,
        budget: 16,
    };
    let t_sh = Instant::now();
    let sh_first = search_with_engine(&models[0], &dse_space, &cons, sh_policy, &staged_engine);
    let sh_time = t_sh.elapsed();
    let sh_second = search_with_engine(&models[0], &dse_space, &cons, sh_policy, &staged_engine);
    let sh_reproducible = format!("{:?}", sh_first.points) == format!("{:?}", sh_second.points);
    assert!(
        sh_reproducible,
        "seeded successive halving is not reproducible"
    );
    let search_stats = staged_engine.stats();
    println!();
    println!("== Search at scale ==");
    println!(
        "latency lower-bound screen: {} points pruned ({:.1} % of {})",
        dse_stats.dse_lb_pruned,
        100.0 * lb_pruned_fraction,
        lb_screen_total
    );
    println!(
        "lower-bound memo tier: {} hits / {} misses ({} entries)",
        search_stats.lb_hits, search_stats.lb_misses, search_stats.lb_entries
    );
    println!("successive halving, budget >= |space|: exhaustive-identical on all 19 models");
    println!(
        "successive halving, budget 16 over {} points: {:>9.3} ms, {} survivors, \
         {} Pareto entries, {} rungs, reproducible {}",
        dse_space.len(),
        sh_time.as_secs_f64() * 1e3,
        sh_first.points.len(),
        sh_first.front.len(),
        search_stats.search_rungs,
        sh_reproducible
    );

    // --huge: the generative stress mode. 2^20 grid points streamed —
    // never collected into a Vec — through the direct (memo-free)
    // area screen and the thread-local lower-bound kernel; exact
    // pricing only at the surviving rung.
    let huge = std::env::args().skip(1).any(|a| a == "--huge");
    let huge_report = if huge {
        let grid = GridSpace::huge();
        let huge_engine = Engine::for_space(&paper_options().space);
        let huge_policy = SearchPolicy::SuccessiveHalving {
            seed: 42,
            eta: 4,
            budget: 64,
        };
        let t_huge = Instant::now();
        let out = search_with_engine(&models[0], &grid, &cons, huge_policy, &huge_engine);
        let huge_time = t_huge.elapsed();
        let huge_stats = huge_engine.stats();
        assert!(out.sampled, "2^20-point grid search did not sample");
        assert!(
            !out.front.is_empty(),
            "2^20-point grid search found no feasible configuration"
        );
        println!(
            "huge mode: {} grid points -> {} survivors in {:>9.3} ms \
             ({} rungs, {} lb-pruned, best {})",
            grid.size(),
            out.points.len(),
            huge_time.as_secs_f64() * 1e3,
            huge_stats.search_rungs,
            huge_stats.dse_lb_pruned,
            out.points
                .first()
                .map(|p| p.hw.to_string())
                .unwrap_or_default()
        );
        if dense_axis.is_some() {
            assert!(
                huge_time <= exhaustive_time,
                "2^20-point sampled search ({:.3} ms) exceeded the dense \
                 exhaustive sweep's wall time ({:.3} ms)",
                huge_time.as_secs_f64() * 1e3,
                exhaustive_time.as_secs_f64() * 1e3
            );
        }
        obj(vec![
            ("points", Value::Number(Number::PosInt(grid.size() as u64))),
            ("budget", Value::Number(Number::PosInt(64))),
            ("eta", Value::Number(Number::PosInt(4))),
            ("seed", Value::Number(Number::PosInt(42))),
            ("wall_ms", ms(huge_time)),
            (
                "survivors",
                Value::Number(Number::PosInt(out.points.len() as u64)),
            ),
            (
                "front",
                Value::Number(Number::PosInt(out.front.len() as u64)),
            ),
            (
                "rungs",
                Value::Number(Number::PosInt(huge_stats.search_rungs)),
            ),
            (
                "lb_pruned",
                Value::Number(Number::PosInt(huge_stats.dse_lb_pruned)),
            ),
        ])
    } else {
        Value::Null
    };

    // The per-layer memo tier serves the paths that price layers one
    // at a time — here, a weight-streaming sweep, where each layer's
    // compute/stream overlap is resolved individually (the
    // compute-only flow above memoizes whole-model sums and route
    // tables instead).
    let streaming = Engine::for_space(&paper_options().space);
    let space = paper_options().space;
    let t2 = Instant::now();
    for m in &models {
        let classes: BTreeSet<_> = m.op_class_counts().into_keys().collect();
        for hw in space.iter() {
            let cfg = DesignConfig::monolithic(format!("prof:{}", m.name()), hw, classes.clone());
            let _ = streaming.evaluate_with(
                m,
                &cfg,
                EvalOptions {
                    memory: Some(MemoryModel::ddr4_3200()),
                    ..EvalOptions::default()
                },
            );
        }
    }
    let streaming_time = t2.elapsed();
    println!();
    println!(
        "== Layer-cost memo tier ({} models x {} points, DDR4 weight streaming) ==",
        models.len(),
        space.len()
    );
    println!("swept in {:>9.3} ms", streaming_time.as_secs_f64() * 1e3);
    print!("{}", streaming.stats());

    // Clustering + partitioning stage: the baseline replays the stage
    // as the pre-CSR flow ran it — every universal graph the 19-model
    // flow clusters (each algorithm's custom graph, the generic graph,
    // each library subset's graph) rebuilt with raw per-layer costing,
    // clustered by `louvain_reference` over sorted-map adjacency, plus
    // pairwise-closure Jaccard agglomeration with per-subset raw
    // re-summation. The optimized path is the shipping one: universal
    // graphs built once and memoized with their CSR interning in the
    // engine's graph tier, the similarity matrix computed once with
    // merged vectors maintained incrementally, and Louvain partitions
    // served from the canonical-key memo tier. REPS models the flow
    // re-clustering the same graphs (train + test custom
    // configurations, escalation attempts, repeated table runs).
    const REPS: usize = 10;
    let hw = HwParams::new(32, 32, 16, 16);
    let training = zoo::training_set();
    let subsets = Claire::new(paper_options()).form_subsets(&training);
    // One model set per graph the flow clusters: every algorithm's
    // custom graph, the generic graph, each library subset's graph.
    let mut targets: Vec<Vec<claire_model::Model>> =
        models.iter().map(|m| vec![m.clone()]).collect();
    targets.push(training.clone());
    for s in &subsets {
        targets.push(s.iter().map(|&i| training[i].clone()).collect());
    }

    let t3 = Instant::now();
    for _ in 0..REPS {
        let vectors: Vec<_> = training
            .iter()
            .map(|m| scaled_vector(m, WeightScale::Log))
            .collect();
        let clusters = agglomerate_by(training.len(), 0.6, |i, j| {
            weighted_jaccard(&vectors[i], &vectors[j])
        });
        for c in &clusters {
            let mut raw = BTreeMap::new();
            for &i in c {
                for (k, w) in training[i].op_class_weights() {
                    *raw.entry(k).or_insert(0.0) += w;
                }
            }
            black_box(raw);
        }
        for t in &targets {
            let ug = universal_graph(t, &hw);
            black_box(louvain_reference(&ug, 1.0));
        }
    }
    let baseline = t3.elapsed();

    let cluster_engine = Engine::for_space(&paper_options().space);
    let t4 = Instant::now();
    for _ in 0..REPS {
        black_box(partition_training_merged(&training, 0.6, WeightScale::Log));
        for t in &targets {
            let ug = cluster_engine.universal_csr(t, &hw);
            black_box(cluster_engine.louvain_partition(&ug.csr, 1.0));
        }
    }
    let optimized = t4.elapsed();
    let cluster_speedup = baseline.as_secs_f64() / optimized.as_secs_f64();
    let cluster_stats = cluster_engine.stats();
    println!();
    println!(
        "== Clustering + partitioning stage ({REPS} reps, {} graphs) ==",
        targets.len()
    );
    println!(
        "map-based baseline (louvain_reference + closure Jaccard): {:>9.3} ms",
        baseline.as_secs_f64() * 1e3
    );
    println!(
        "CSR kernels + memoized Louvain tier:                      {:>9.3} ms  ({cluster_speedup:.2}x speedup)",
        optimized.as_secs_f64() * 1e3
    );
    print!("{cluster_stats}");

    // Telemetry overhead model: with tracing disabled every hook on
    // the hot path is one relaxed atomic op (a counter bump or the
    // tracing-flag check). Price one hook by spamming a scratch
    // telemetry, count the hooks the cold flow actually executed
    // (counter increments + stage spans, snapshotted before the warm
    // reflow), and bound the modeled disabled-path cost against the
    // same flow's wall time. The 2 % budget is the CI perf-smoke
    // gate.
    let scratch = Telemetry::new();
    const HOOK_REPS: u64 = 1_000_000;
    // Best of several batches: scheduler noise only ever inflates the
    // measurement, so the minimum is the honest per-hook price.
    let per_hook_ns = (0..5)
        .map(|_| {
            let t5 = Instant::now();
            for _ in 0..HOOK_REPS {
                black_box(&scratch).count(Metric::ParItems);
                black_box(black_box(&scratch).tracing_enabled());
            }
            t5.elapsed().as_secs_f64() * 1e9 / HOOK_REPS as f64
        })
        .fold(f64::INFINITY, f64::min);
    let tel = parallel.telemetry();
    let hook_executions = cold_counter_hooks + cold_span_hooks;
    let modeled_overhead_fraction =
        per_hook_ns * hook_executions as f64 / (parallel_time.as_secs_f64() * 1e9);
    assert!(
        modeled_overhead_fraction <= 0.02,
        "modeled telemetry-disabled overhead {:.4} exceeds the 2 % budget \
         ({per_hook_ns:.1} ns/hook x {hook_executions} hooks over {:.3} ms)",
        modeled_overhead_fraction,
        parallel_time.as_secs_f64() * 1e3,
    );
    // Informational reference: the same flow with tracing enabled
    // (span buffers + Chrome-trace events armed).
    let traced = Engine::for_space(&paper_options().space).with_tracing(true);
    let t6 = Instant::now();
    run_flow_with_engine(paper_options(), &traced);
    let traced_time = t6.elapsed();
    println!();
    println!("== Telemetry ==");
    println!(
        "disabled-path hook: {per_hook_ns:.1} ns; flow executed {hook_executions} hooks \
         -> modeled overhead {:.3} % (budget 2 %)",
        100.0 * modeled_overhead_fraction
    );
    println!(
        "tracing-enabled flow: {:>9.3} ms (informational; disabled flow {:.3} ms)",
        traced_time.as_secs_f64() * 1e3,
        parallel_time.as_secs_f64() * 1e3
    );

    // Serve-observability overhead model: price the lifecycle hooks
    // the serve layer wraps around every request — one observer record
    // per stage transition (flight-ring push + sliding-window rate
    // fold), two exact-digest inserts (queue wait, end-to-end
    // latency), and the disabled event-log check each emit performs —
    // then bound the modeled per-request cost against the warm
    // per-request evaluation price the flow just measured. The 2 %
    // budget is the CI perf-smoke gate; the disabled event-log path
    // must price at essentially zero (one mutex lock + `is_some`).
    let observer = ServeObserver::new();
    const OBS_REPS: u64 = 200_000;
    let per_event_record_ns = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..OBS_REPS {
                let trace = observer.next_trace();
                black_box(&observer).observe(LifecycleEvent {
                    t_us: i,
                    stage: LifecycleStage::ALL[(i % 7) as usize],
                    trace,
                    id: Value::Number(Number::PosInt(i)),
                    op: "custom",
                    batch: Some(i / 8),
                    queue_wait_us: Some(i % 512),
                    outcome: None,
                });
            }
            t.elapsed().as_secs_f64() * 1e9 / OBS_REPS as f64
        })
        .fold(f64::INFINITY, f64::min);
    // Digest inserts over a realistic µs-granularity latency spread
    // (bounded distinct values keep the RLE runs — and the binary
    // search — at serve-like sizes).
    let mut scratch_digest = QuantileDigest::new();
    const DIGEST_REPS: u64 = 200_000;
    let digest_insert_ns = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..DIGEST_REPS {
                black_box(&mut scratch_digest).record(i.wrapping_mul(2_654_435_761) % 4096);
            }
            t.elapsed().as_secs_f64() * 1e9 / DIGEST_REPS as f64
        })
        .fold(f64::INFINITY, f64::min);
    // The disabled event-log path: exactly what `serve` does per event
    // when `--event-log` is absent — lock the option, see `None`.
    let disarmed_log: std::sync::Mutex<Option<String>> = std::sync::Mutex::new(None);
    const LOG_REPS: u64 = 1_000_000;
    let event_log_disabled_ns = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..LOG_REPS {
                let armed = black_box(&disarmed_log)
                    .lock()
                    .map(|g| g.is_some())
                    .unwrap_or(false);
                black_box(armed);
            }
            t.elapsed().as_secs_f64() * 1e9 / LOG_REPS as f64
        })
        .fold(f64::INFINITY, f64::min);
    // An answered request transitions through 5 stages (received,
    // admitted, dispatched, evaluating, answered), adds 2 digest
    // inserts, and checks the event log once per emitted event.
    const EVENTS_PER_REQUEST: f64 = 5.0;
    const DIGEST_INSERTS_PER_REQUEST: f64 = 2.0;
    let modeled_request_ns = EVENTS_PER_REQUEST * (per_event_record_ns + event_log_disabled_ns)
        + DIGEST_INSERTS_PER_REQUEST * digest_insert_ns;
    let warm_request_ns = reflow_time.as_secs_f64() * 1e9 / models.len() as f64;
    let serve_obs_overhead_fraction = modeled_request_ns / warm_request_ns;
    assert!(
        serve_obs_overhead_fraction <= 0.02,
        "modeled serve-observability overhead {serve_obs_overhead_fraction:.5} exceeds the \
         2 % budget ({modeled_request_ns:.0} ns/request against a {warm_request_ns:.0} ns \
         warm evaluation)"
    );
    println!();
    println!("== Serve observability ==");
    println!(
        "lifecycle record: {per_event_record_ns:.1} ns/event; exact-digest insert: \
         {digest_insert_ns:.1} ns; disabled event-log check: {event_log_disabled_ns:.1} ns"
    );
    println!(
        "modeled per-request hook cost {modeled_request_ns:.0} ns vs {warm_request_ns:.0} ns \
         warm evaluation -> {:.4} % overhead (budget 2 %)",
        100.0 * serve_obs_overhead_fraction
    );

    // ROADMAP test-stage load balance, now with real numbers: per-
    // worker busy time for the `test` stage's parallel maps. The flat
    // plan made the cached flow's test stage short enough to finish
    // inside one scheduler timeslice, where busy ratios measure which
    // thread the OS ran first instead of work claiming — so the
    // measurement runs its own flows over a dense DSE space with the
    // cache disabled, keeping every flat-plan item at full evaluation
    // price and the stage long enough for every worker to be
    // scheduled. The recursive flow's per-model claiming measured 3.2x
    // on the cached paper-space flow (PR 5's committed profile); the
    // flat plan's per-point claiming must stay within 2.0x here (the
    // CI perf-smoke gate).
    // The engine pins an explicit 4 workers (rather than resolving
    // CLAIRE_THREADS / the machine width) so the measurement — and the
    // JSON ratio the CI gate reads — is defined on any runner.
    const IMB_FLOWS: usize = 2;
    let mut imb_opts = paper_options();
    imb_opts.space = DseSpace::dense(6);
    let imb_engine = Engine::new(4).with_cache(false);
    for _ in 0..IMB_FLOWS {
        run_flow_with_engine(imb_opts.clone(), &imb_engine);
    }
    let test_busy: Vec<f64> = imb_engine
        .telemetry()
        .stage_worker_busy("test")
        .iter()
        .map(|(_, d)| d.as_secs_f64() * 1e3)
        .filter(|b| *b > 0.0)
        .collect();
    let max_busy = test_busy.iter().copied().fold(0.0_f64, f64::max);
    let min_busy = test_busy.iter().copied().fold(f64::INFINITY, f64::min);
    // One active worker balances trivially (ratio 1.0); a ratio is
    // only undefined when *no* worker published a test-stage sample —
    // a worker-accounting regression the CI gate fails on.
    let imbalance = match test_busy.len() {
        0 => None,
        1 => Some(1.0),
        _ => Some(max_busy / min_busy),
    };
    match imbalance {
        Some(ratio) => println!(
            "test stage worker busy max/min: {max_busy:.3} ms / {min_busy:.3} ms \
             (imbalance {ratio:.2}x over {} active workers)",
            test_busy.len()
        ),
        None => println!("test stage worker busy: no samples (worker accounting regressed)"),
    }

    // Flat-execution-plan profile (cold flow): the up-front item set,
    // the two plan-level coarse memo tiers, and the load balance the
    // single flat par_map buys. The graph tier's cold hit rate is the
    // merged-member-build payoff — before the plan it was 0 % (every
    // multi-member graph rebuilt its members from scratch).
    let graph_cold_hit_rate = {
        let total = flow_stats.graph_hits + flow_stats.graph_misses;
        if total == 0 {
            0.0
        } else {
            flow_stats.graph_hits as f64 / total as f64
        }
    };
    println!();
    println!("== Flat execution plan (cold flow) ==");
    println!("plan items: {}", flow_stats.plan_items);
    println!(
        "comm tier: {} hits / {} misses ({:.1} % hit rate, {} entries)",
        flow_stats.comm_hits,
        flow_stats.comm_misses,
        100.0 * flow_stats.comm_hit_rate(),
        flow_stats.comm_entries
    );
    println!(
        "merged graph builds: {}; graph tier cold hit rate {:.1} %",
        flow_stats.merged_graph_builds,
        100.0 * graph_cold_hit_rate
    );
    assert!(
        flow_stats.plan_items > 0,
        "planned flow enumerated no evaluation items"
    );
    assert!(
        graph_cold_hit_rate > 0.0,
        "graph tier's cold hit rate is still 0 % — merged member-graph \
         builds are not sharing member graphs"
    );

    let worker_utilization = Value::Array(
        tel.worker_utilization()
            .iter()
            .map(|u| {
                obj(vec![
                    ("worker", Value::Number(Number::PosInt(u.worker as u64))),
                    ("busy_ms", ms(u.busy)),
                    ("wall_ms", ms(u.wall)),
                    ("items", Value::Number(Number::PosInt(u.items))),
                    ("utilization", num(u.utilization())),
                ])
            })
            .collect(),
    );
    let span_aggregates = Value::Array(
        tel.stage_aggregates_detailed()
            .iter()
            .map(|a| {
                obj(vec![
                    ("name", Value::String(a.name.clone())),
                    ("total_ms", ms(a.total)),
                    ("count", Value::Number(Number::PosInt(a.count))),
                    (
                        "mean_ms",
                        num(if a.count == 0 {
                            0.0
                        } else {
                            a.total.as_secs_f64() * 1e3 / a.count as f64
                        }),
                    ),
                ])
            })
            .collect(),
    );

    let report = obj(vec![
        (
            "threads",
            Value::Number(Number::PosInt(flow_stats.threads as u64)),
        ),
        (
            "flow",
            obj(vec![
                ("serial_ms", ms(serial_time)),
                ("parallel_ms", ms(parallel_time)),
                (
                    "speedup",
                    num(serial_time.as_secs_f64() / parallel_time.as_secs_f64()),
                ),
            ]),
        ),
        (
            "stages",
            Value::Array(
                flow_stats
                    .stages
                    .iter()
                    .map(|(name, took)| {
                        obj(vec![
                            ("name", Value::String(name.clone())),
                            ("ms", ms(*took)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("memo_tiers", tiers(&flow_stats)),
        ("overall_hit_rate", num(flow_stats.overall_hit_rate())),
        (
            "plan",
            obj(vec![
                (
                    "items",
                    Value::Number(Number::PosInt(flow_stats.plan_items)),
                ),
                (
                    "comm_tier",
                    tier(
                        flow_stats.comm_hits,
                        flow_stats.comm_misses,
                        flow_stats.comm_entries,
                    ),
                ),
                (
                    "merged_graph_builds",
                    Value::Number(Number::PosInt(flow_stats.merged_graph_builds)),
                ),
                ("graph_cold_hit_rate", num(graph_cold_hit_rate)),
                (
                    "test_stage_imbalance_ratio",
                    imbalance.map_or(Value::Null, num),
                ),
            ]),
        ),
        (
            "reflow",
            obj(vec![
                ("cold_ms", ms(parallel_time)),
                ("warm_ms", ms(reflow_time)),
                ("cold_sum_hit_rate", num(flow_stats.sum_hit_rate())),
                ("cumulative_sum_hit_rate", num(reflow_stats.sum_hit_rate())),
                (
                    "struct_entries",
                    Value::Number(Number::PosInt(reflow_stats.struct_entries as u64)),
                ),
                (
                    "struct_instances",
                    Value::Number(Number::PosInt(reflow_stats.struct_instances as u64)),
                ),
            ]),
        ),
        (
            "persist",
            obj(vec![
                (
                    "snapshot_bytes",
                    Value::Number(Number::PosInt(snapshot_len)),
                ),
                ("save_ms", ms(save_time)),
                ("load_ms", ms(load_time)),
                ("cold_ms", ms(persist_cold_time)),
                ("warm_ms", ms(persist_warm_time)),
                ("warm_restart_speedup", num(warm_restart_speedup)),
                ("identical", Value::Bool(persist_identical)),
                (
                    "byte_identical_across_threads",
                    Value::Bool(byte_identical_across_threads),
                ),
            ]),
        ),
        (
            "dse",
            obj(vec![
                ("dense", Value::Bool(dense_axis.is_some())),
                (
                    "points",
                    Value::Number(Number::PosInt(dse_space.len() as u64)),
                ),
                ("exhaustive_ms", ms(exhaustive_time)),
                ("pruned_ms", ms(staged_time)),
                ("speedup", num(dse_speedup)),
                ("pruned_fraction", num(dse_stats.pruned_fraction())),
                (
                    "pruned",
                    Value::Number(Number::PosInt(dse_stats.dse_pruned)),
                ),
                (
                    "evaluated",
                    Value::Number(Number::PosInt(dse_stats.dse_evaluated)),
                ),
                (
                    "area_tier",
                    tier(
                        dse_stats.area_hits,
                        dse_stats.area_misses,
                        dse_stats.area_entries,
                    ),
                ),
                ("selections_identical", Value::Bool(selections_identical)),
            ]),
        ),
        (
            "search",
            obj(vec![
                (
                    "lb_screen",
                    obj(vec![
                        (
                            "pruned",
                            Value::Number(Number::PosInt(dse_stats.dse_lb_pruned)),
                        ),
                        ("fraction", num(lb_pruned_fraction)),
                        ("screened", Value::Number(Number::PosInt(lb_screen_total))),
                    ]),
                ),
                (
                    "lb_tier",
                    tier(
                        search_stats.lb_hits,
                        search_stats.lb_misses,
                        search_stats.lb_entries,
                    ),
                ),
                ("selections_identical", Value::Bool(selections_identical)),
                (
                    "sh_degenerate_identical",
                    Value::Bool(sh_degenerate_identical),
                ),
                (
                    "successive_halving",
                    obj(vec![
                        ("budget", Value::Number(Number::PosInt(16))),
                        ("eta", Value::Number(Number::PosInt(2))),
                        ("seed", Value::Number(Number::PosInt(42))),
                        ("wall_ms", ms(sh_time)),
                        (
                            "survivors",
                            Value::Number(Number::PosInt(sh_first.points.len() as u64)),
                        ),
                        (
                            "front",
                            Value::Number(Number::PosInt(sh_first.front.len() as u64)),
                        ),
                        (
                            "rungs",
                            Value::Number(Number::PosInt(search_stats.search_rungs)),
                        ),
                        ("reproducible", Value::Bool(sh_reproducible)),
                    ]),
                ),
                ("huge", huge_report),
            ]),
        ),
        ("span_aggregates", span_aggregates),
        ("worker_utilization", worker_utilization),
        (
            "test_stage_imbalance",
            obj(vec![
                (
                    "active_workers",
                    Value::Number(Number::PosInt(test_busy.len() as u64)),
                ),
                (
                    "max_busy_ms",
                    if test_busy.is_empty() {
                        Value::Null
                    } else {
                        num(max_busy)
                    },
                ),
                (
                    "min_busy_ms",
                    if test_busy.is_empty() {
                        Value::Null
                    } else {
                        num(min_busy)
                    },
                ),
                ("ratio", imbalance.map_or(Value::Null, num)),
            ]),
        ),
        (
            "telemetry",
            obj(vec![
                ("per_hook_ns", num(per_hook_ns)),
                (
                    "hook_executions",
                    Value::Number(Number::PosInt(hook_executions)),
                ),
                (
                    "modeled_disabled_overhead_fraction",
                    num(modeled_overhead_fraction),
                ),
                ("enabled_ms", ms(traced_time)),
                ("disabled_ms", ms(parallel_time)),
            ]),
        ),
        (
            "serve_obs",
            obj(vec![
                ("per_event_record_ns", num(per_event_record_ns)),
                ("digest_insert_ns", num(digest_insert_ns)),
                ("event_log_disabled_ns", num(event_log_disabled_ns)),
                ("events_per_request", num(EVENTS_PER_REQUEST)),
                (
                    "digest_inserts_per_request",
                    num(DIGEST_INSERTS_PER_REQUEST),
                ),
                ("modeled_request_ns", num(modeled_request_ns)),
                ("warm_request_ns", num(warm_request_ns)),
                (
                    "modeled_overhead_fraction",
                    num(serve_obs_overhead_fraction),
                ),
            ]),
        ),
        (
            "clustering_partitioning",
            obj(vec![
                ("reps", Value::Number(Number::PosInt(REPS as u64))),
                (
                    "graphs",
                    Value::Number(Number::PosInt(targets.len() as u64)),
                ),
                ("baseline_ms", ms(baseline)),
                ("optimized_ms", ms(optimized)),
                ("speedup", num(cluster_speedup)),
                (
                    "louvain_tier",
                    tier(
                        cluster_stats.louvain_hits,
                        cluster_stats.louvain_misses,
                        cluster_stats.louvain_entries,
                    ),
                ),
                (
                    "graph_tier",
                    tier(
                        cluster_stats.graph_hits,
                        cluster_stats.graph_misses,
                        cluster_stats.graph_entries,
                    ),
                ),
            ]),
        ),
    ]);
    let json = serde_json::to_string_pretty(&report).expect("profile json renders");
    std::fs::write("BENCH_profile.json", format!("{json}\n")).expect("write BENCH_profile.json");
    println!();
    println!("wrote BENCH_profile.json");
}

/// The DSE selection pass the staged-vs-exhaustive comparison times:
/// a custom configuration for each of the 19 algorithms plus the
/// generic configuration over the training set — the work behind the
/// flow's `customs` and `generic` stages. Returns every selection's
/// Debug rendering (so callers compare bit-exact `f64`s) and the wall
/// time.
fn dse_selection_pass(space: &DseSpace, cons: &Constraints, engine: &Engine) -> (String, Duration) {
    let start = Instant::now();
    let training = zoo::training_set();
    let tests = zoo::test_set();
    let mut rendered = String::new();
    let mut latencies: BTreeMap<String, f64> = BTreeMap::new();
    for m in &training {
        let (cfg, report) =
            custom_config_with_engine(m, space, cons, DseObjective::MinArea, engine)
                .expect("feasible custom configuration");
        latencies.insert(m.name().to_owned(), report.latency_s);
        rendered.push_str(&format!("{cfg:?} {report:?}\n"));
    }
    for m in &tests {
        let (cfg, report) =
            custom_config_with_engine(m, space, cons, DseObjective::MinArea, engine)
                .expect("feasible custom configuration");
        rendered.push_str(&format!("{cfg:?} {report:?}\n"));
    }
    let members: Vec<&Model> = training.iter().collect();
    let generic = set_config_with_engine("C_g", &members, space, cons, &latencies, engine)
        .expect("feasible generic configuration");
    rendered.push_str(&format!("{generic:?}\n"));
    (rendered, start.elapsed())
}

/// A JSON object in field order.
fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A float JSON number.
fn num(x: f64) -> Value {
    Value::Number(Number::Float(x))
}

/// A duration in milliseconds.
fn ms(d: Duration) -> Value {
    num(d.as_secs_f64() * 1e3)
}

/// One memo tier's counters.
fn tier(hits: u64, misses: u64, entries: usize) -> Value {
    let total = hits + misses;
    obj(vec![
        ("hits", Value::Number(Number::PosInt(hits))),
        ("misses", Value::Number(Number::PosInt(misses))),
        ("entries", Value::Number(Number::PosInt(entries as u64))),
        (
            "hit_rate",
            num(if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            }),
        ),
    ])
}

/// All memo tiers of an engine snapshot.
fn tiers(s: &EngineStats) -> Value {
    obj(vec![
        (
            "layer_cost",
            tier(s.cache_hits, s.cache_misses, s.cache_entries),
        ),
        (
            "route",
            tier(s.route_hits, s.route_misses, s.route_topologies),
        ),
        ("compute_sum", tier(s.sum_hits, s.sum_misses, s.sum_entries)),
        (
            "louvain",
            tier(s.louvain_hits, s.louvain_misses, s.louvain_entries),
        ),
        ("graph", tier(s.graph_hits, s.graph_misses, s.graph_entries)),
        ("area", tier(s.area_hits, s.area_misses, s.area_entries)),
        ("comm", tier(s.comm_hits, s.comm_misses, s.comm_entries)),
        ("lb", tier(s.lb_hits, s.lb_misses, s.lb_entries)),
    ])
}
