//! The traced run. Each workload is first measured as a black box for
//! half the run, then replayed in-process with the same seed through
//! the crates' public functions for the other half, with a span around
//! each call into a layer. A fresh `Engine` stands in for each one-shot
//! process; one `ResidentEngine` stands in for the server. Nothing is
//! instrumented inside the program: stage times and counters come from
//! the public `Engine::stats()` and telemetry counters, and serve batch
//! sizes and queue waits from the server's own `--event-log`.
//!
//! Layer rows are mean self times per operation, so they add up to the
//! replay's mean operation time. `process.residual_ms` is the black-box
//! median minus the replay's median: the part the replay cannot see,
//! which is process start and exit, argument parsing and stdout for the
//! one-shot workloads, and the socket, admission, batching and dispatch
//! for the server. Rows plus residual differ from the black-box median
//! only by the replay's mean minus its median (`accounting.gap_frac`).
//!
//! Every time-valued per-layer metric is measured on every workload, so
//! none reads a constant zero. A layer that only some workloads reach
//! reports its share of the replayed operation time instead; its time
//! in ms is in the results file and the printed table.

use crate::host::Reference;
use crate::inputs::{one_shot_order, Request, Workload, DSE_MODELS, FLOW_VARIANTS};
use crate::oneshot::{dense_config_path, Input, Timings};
use crate::report::{number, Report};
use crate::serve::ServeRun;
use crate::stats::{percentile, sorted, tail_percentile};
use crate::{oneshot, serve, Ctx};
use claire_core::telemetry::Metric;
use claire_core::{
    paper_table3_subsets, search_with_engine, Claire, ClaireOptions, Constraints, CustomRequest,
    Engine, ResidentEngine, RunConfig, SearchPolicy, SubsetStrategy,
};
use claire_model::parse::{parse_model, InputShape, ParseOptions};
use claire_model::{zoo, Model, ModelClass};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// The per-layer metrics the result line carries, in order, with their
/// units. Every workload reports every one.
pub const PER_LAYER: [(&str, &str); 70] = [
    ("process.residual_ms", "ms"),
    ("replay.op_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("accounting.gap_frac", "fraction"),
    ("model.resolve_us", "us"),
    ("core.eval_us.p50", "us"),
    ("core.eval_us.p90", "us"),
    ("json.encode_us", "us"),
    ("json.decode_us", "us"),
    ("snapshot.save_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.share", "fraction"),
    ("engine.share", "fraction"),
    ("dse.search.share", "fraction"),
    ("stage.plan.share", "fraction"),
    ("stage.customs.share", "fraction"),
    ("stage.generic.share", "fraction"),
    ("stage.subsets.share", "fraction"),
    ("stage.libraries.share", "fraction"),
    ("stage.algo_ppa.share", "fraction"),
    ("stage.test.share", "fraction"),
    ("dse.pruned", "count"),
    ("dse.lb_pruned", "count"),
    ("dse.evaluated", "count"),
    ("ppa.batch_sums", "count"),
    ("par.items", "count"),
    ("plan.items", "count"),
    ("louvain.passes", "count"),
    ("graph.merged_builds", "count"),
    ("noc.reroutes", "count"),
    ("memo.layer.hit", "count"),
    ("memo.layer.miss", "count"),
    ("memo.layer.hit_rate", "fraction"),
    ("memo.layer.entries", "count"),
    ("memo.route.hit", "count"),
    ("memo.route.miss", "count"),
    ("memo.route.hit_rate", "fraction"),
    ("memo.route.entries", "count"),
    ("memo.sum.hit", "count"),
    ("memo.sum.miss", "count"),
    ("memo.sum.hit_rate", "fraction"),
    ("memo.sum.entries", "count"),
    ("memo.louvain.hit", "count"),
    ("memo.louvain.miss", "count"),
    ("memo.louvain.hit_rate", "fraction"),
    ("memo.louvain.entries", "count"),
    ("memo.graph.hit", "count"),
    ("memo.graph.miss", "count"),
    ("memo.graph.hit_rate", "fraction"),
    ("memo.graph.entries", "count"),
    ("memo.area.hit", "count"),
    ("memo.area.miss", "count"),
    ("memo.area.hit_rate", "fraction"),
    ("memo.area.entries", "count"),
    ("memo.comm.hit", "count"),
    ("memo.comm.miss", "count"),
    ("memo.comm.hit_rate", "fraction"),
    ("memo.comm.entries", "count"),
    ("memo.louvain_warm.hit", "count"),
    ("memo.louvain_warm.miss", "count"),
    ("memo.louvain_warm.hit_rate", "fraction"),
    ("memo.louvain_warm.entries", "count"),
    ("memo.lb.hit", "count"),
    ("memo.lb.miss", "count"),
    ("memo.lb.hit_rate", "fraction"),
    ("memo.lb.entries", "count"),
    ("serve.batches", "count"),
    ("serve.batch_size.mean", "count"),
    ("serve.shed", "count"),
];

/// The flow stages `Engine::time_stage` records, in pipeline order.
const STAGES: [&str; 7] = [
    "plan",
    "customs",
    "generic",
    "subsets",
    "libraries",
    "algo_ppa",
    "test",
];

/// The nine memo tiers: metric-name stem, hit and miss counters.
const TIERS: [(&str, Metric, Metric); 9] = [
    ("layer", Metric::LayerHit, Metric::LayerMiss),
    ("route", Metric::RouteHit, Metric::RouteMiss),
    ("sum", Metric::SumHit, Metric::SumMiss),
    ("louvain", Metric::LouvainHit, Metric::LouvainMiss),
    ("graph", Metric::GraphHit, Metric::GraphMiss),
    ("area", Metric::AreaHit, Metric::AreaMiss),
    ("comm", Metric::CommHit, Metric::CommMiss),
    (
        "louvain_warm",
        Metric::LouvainWarmHit,
        Metric::LouvainWarmMiss,
    ),
    ("lb", Metric::LbHit, Metric::LbMiss),
];

/// Spans around the evaluation calls into `claire-core`: the core layer,
/// whose inclusive time per operation is `core.eval_us`.
const CORE_SPANS: [&str; 6] = [
    "core.train",
    "core.test",
    "core.custom",
    "resident.custom",
    "resident.assign",
    "resident.what_if",
];

/// The serve replay takes a reference spawn after every this many
/// requests.
const REFERENCE_EVERY: usize = 8;

/// Times each output document is decoded in the JSON probe.
const DECODE_REPEATS: usize = 3;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation (process or request) the span belongs to.
    pub request: u64,
}

/// Spans kept in memory until the run ends. A disabled tracer records
/// nothing, which is how the replay is timed without tracing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    request: u64,
    open: Vec<usize>,
    /// Spans recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; `enabled` false records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            request: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, name: &'static str) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        index
    }

    fn close(&mut self, index: usize) {
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = self.open(name);
        let out = f();
        self.close(index);
        out
    }

    /// Runs `f` as operation `request`: a root span named `op` that
    /// later spans nest in. Returns the result and the wall time.
    pub fn op<R>(&mut self, request: u64, f: impl FnOnce(&mut Tracer) -> R) -> (R, Duration) {
        self.request = request;
        let start = Instant::now();
        if !self.enabled {
            let out = f(self);
            return (out, start.elapsed());
        }
        let index = self.open("op");
        let out = f(self);
        self.close(index);
        (out, start.elapsed())
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// The spans as a Chrome Trace Event document (load in Perfetto or
/// `chrome://tracing`).
pub fn chrome_trace(spans: &[Span]) -> Value {
    let events = spans
        .iter()
        .map(|s| {
            serde_json::json!({
                "name": s.name,
                "ph": "X",
                "ts": s.start_ns as f64 / 1e3,
                "dur": (s.end_ns - s.start_ns) as f64 / 1e3,
                "pid": 1u32,
                "tid": 1u32,
                "args": serde_json::json!({"request": s.request}),
            })
        })
        .collect();
    serde_json::json!({"traceEvents": Value::Array(events), "displayTimeUnit": "ms"})
}

/// Inclusive time in the core layer of each operation, µs: the summed
/// durations of its [`CORE_SPANS`].
fn core_us_per_op(spans: &[Span]) -> Vec<f64> {
    let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if s.parent.is_none() {
            per_op.entry(s.request).or_default();
        } else if CORE_SPANS.contains(&s.name) {
            *per_op.entry(s.request).or_default() += (s.end_ns - s.start_ns) as f64 / 1e3;
        }
    }
    per_op.into_values().collect()
}

/// The operations (request ids) whose duration lies in the middle half
/// of their input's: the mean of their layer rows stands for a median
/// operation, as the median run time the black box reports does, without
/// the pull of the slowest runs on a plain mean. `input_of[request]` is
/// the operation's input; requests beyond it belong to input 0.
fn central_ops(spans: &[Span], input_of: &[usize]) -> BTreeSet<u64> {
    let mut by_input: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        let input = usize::try_from(s.request)
            .ok()
            .and_then(|r| input_of.get(r))
            .copied()
            .unwrap_or(0);
        by_input
            .entry(input)
            .or_default()
            .push((s.end_ns - s.start_ns, s.request));
    }
    let mut keep = BTreeSet::new();
    for ops in by_input.values_mut() {
        ops.sort_unstable();
        let quarter = ops.len() / 4;
        keep.extend(ops[quarter..ops.len() - quarter].iter().map(|&(_, r)| r));
    }
    keep
}

/// Per-operation sums of self times and counters over a replay.
#[derive(Default)]
struct Layers {
    /// Operations whose counters are summed.
    ops: u64,
    /// Operations whose span times are summed: the central ones.
    span_ops: u64,
    /// Self time per span name, ms, summed over operations.
    self_ms: BTreeMap<&'static str, f64>,
    /// Inclusive time per span name, ms, summed over operations.
    total_ms: BTreeMap<&'static str, f64>,
    /// Other per-layer sums, divided by `ops` at the end.
    sums: BTreeMap<String, f64>,
}

impl Layers {
    /// Adds the span times of the operations in `keep`.
    fn add_spans(&mut self, spans: &[Span], keep: &BTreeSet<u64>) {
        for (span, own) in spans.iter().zip(self_times(spans)) {
            if keep.contains(&span.request) {
                *self.self_ms.entry(span.name).or_default() += own as f64 / 1e6;
                *self.total_ms.entry(span.name).or_default() +=
                    (span.end_ns - span.start_ns) as f64 / 1e6;
            }
        }
        self.span_ops += keep.len() as u64;
    }

    fn add(&mut self, name: &str, value: f64) {
        *self.sums.entry(name.to_owned()).or_default() += value;
    }

    /// Adds an engine's telemetry counters and stage times since `since`,
    /// and its memo tier sizes `weight` times.
    fn add_engine(&mut self, engine: &Engine, since: &EngineMark, weight: f64) {
        let now = EngineMark::of(engine);
        for (i, m) in Metric::ALL.iter().enumerate() {
            let before = since.counters.get(i).copied().unwrap_or(0);
            self.add(m.name(), now.counters[i].saturating_sub(before) as f64);
        }
        for (stage, took) in &now.stages {
            let before = since
                .stages
                .iter()
                .find(|(s, _)| s == stage)
                .map_or(Duration::ZERO, |(_, d)| *d);
            let ms = took.saturating_sub(before).as_secs_f64() * 1e3;
            self.add(&format!("stage.{stage}_ms"), ms);
        }
        let stats = engine.stats();
        let entries = [
            stats.cache_entries,
            stats.route_topologies,
            stats.sum_entries,
            stats.louvain_entries,
            stats.graph_entries,
            stats.area_entries,
            stats.comm_entries,
            stats.louvain_warm_entries,
            stats.lb_entries,
        ];
        for ((tier, _, _), n) in TIERS.iter().zip(entries) {
            self.add(&format!("memo.{tier}.entries"), n as f64 * weight);
        }
    }

    /// Mean per operation of a sum.
    fn per_op(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0) / self.ops.max(1) as f64
    }

    /// Mean self time per central operation of the spans named `names`,
    /// ms.
    fn self_per_op(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|n| self.self_ms.get(n).copied().unwrap_or(0.0))
            .sum::<f64>()
            / self.span_ops.max(1) as f64
    }

    /// Mean inclusive time per central operation of the span named
    /// `name`, ms.
    fn total_per_op(&self, name: &str) -> f64 {
        self.total_ms.get(name).copied().unwrap_or(0.0) / self.span_ops.max(1) as f64
    }
}

/// An engine's telemetry counters (in `Metric::ALL` order) and stage
/// times at one moment; the default is a fresh engine's.
#[derive(Default)]
struct EngineMark {
    counters: Vec<u64>,
    stages: Vec<(String, Duration)>,
}

impl EngineMark {
    fn of(engine: &Engine) -> EngineMark {
        EngineMark {
            counters: Metric::ALL
                .iter()
                .map(|&m| engine.telemetry().counter(m))
                .collect(),
            stages: engine.stats().stages,
        }
    }
}

/// Save and load times of snapshots, and their sizes.
#[derive(Default)]
struct SnapshotProbe {
    save_ms: Vec<f64>,
    load_ms: Vec<f64>,
    bytes: Vec<f64>,
}

impl SnapshotProbe {
    /// Saves `engine`'s memo tiers to `path` and loads them into a fresh
    /// engine for `space`, as a `--cache-dir` run would at its end and
    /// at the next start.
    fn measure(
        &mut self,
        engine: &Engine,
        space: &claire_ppa::DseSpace,
        path: &Path,
    ) -> Result<(), String> {
        let start = Instant::now();
        engine
            .save_snapshot(path)
            .map_err(|e| format!("snapshot save: {e}"))?;
        self.save_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let fresh = Engine::for_space(space);
        let start = Instant::now();
        fresh
            .load_snapshot(path)
            .map_err(|e| format!("snapshot load: {e}"))?;
        self.load_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let bytes = std::fs::metadata(path).map_err(|e| format!("snapshot: {e}"))?;
        self.bytes.push(bytes.len() as f64);
        Ok(())
    }
}

/// The mean of `values`, 0 for none.
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Mean over `texts` of the median time to decode each, µs.
fn decode_us(texts: &[String]) -> Result<f64, String> {
    let mut each = Vec::with_capacity(texts.len());
    for text in texts {
        let mut took = Vec::with_capacity(DECODE_REPEATS);
        for _ in 0..DECODE_REPEATS {
            let start = Instant::now();
            let v: Value = serde_json::from_str(text).map_err(|e| format!("decode: {e}"))?;
            took.push(start.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(v);
        }
        each.push(percentile(&sorted(&took), 50.0));
    }
    Ok(mean(&each))
}

/// What a replay produced, besides the spans.
struct Replay {
    layers: Layers,
    /// Traced operation wall times, ms, per input (one input for the
    /// server, whose requests are pooled).
    traced: Timings,
    /// The same operations without spans.
    untraced: Timings,
    /// Snapshots of the memo state operations leave behind.
    snapshot: SnapshotProbe,
    /// The documents the operations encode, for the decode probe.
    outputs: Vec<String>,
    /// The input of each traced operation, by request id.
    input_of: Vec<usize>,
    /// Reference spawns taken during the replay.
    reference: Reference,
    /// Figures only this workload has, for the table.
    extra: Vec<(String, f64, &'static str)>,
}

/// Replays one-shot inputs in the seed's order until `seconds` pass,
/// each operation twice, with and without spans, alternating which
/// goes first so drift and cache warmth fall on both sides alike.
/// `op(input, tracer)` runs one operation up to the point where the
/// process would exit and returns its engine, whose counters are then
/// recorded and which is dropped inside the operation. `probe(input)`
/// runs after each pair, outside the timed operations, and so does a
/// reference spawn. Returns the traced operations' counters, both sides'
/// timings, each operation's input and the host-speed reference.
fn alternate(
    seed: u64,
    inputs: usize,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
    mut op: impl FnMut(usize, &mut Tracer) -> Result<Engine, String>,
    mut probe: impl FnMut(usize),
) -> Result<(Layers, Timings, Timings, Vec<usize>, Reference), String> {
    let mut reference = Reference::default();
    let mut layers = Layers::default();
    let mut input_of = Vec::new();
    let mut plain = Tracer::new(false);
    let mut traced = vec![Vec::new(); inputs];
    let mut untraced = vec![Vec::new(); inputs];
    let mut order = one_shot_order(seed, inputs);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut k = 0;
    while Instant::now() < deadline {
        let input = order.next().expect("rounds never end");
        input_of.push(input);
        for traced_first in [k % 2 == 0, k % 2 != 0] {
            let (t, times) = if traced_first {
                (&mut *tracer, &mut traced)
            } else {
                (&mut plain, &mut untraced)
            };
            let (outcome, took) = t.op(k, |t| {
                let engine = op(input, t)?;
                if t.enabled {
                    layers.ops += 1;
                    layers.add_engine(&engine, &EngineMark::default(), 1.0);
                }
                t.span("engine.drop", || drop(engine));
                Ok(())
            });
            times[input].push(took.as_secs_f64() * 1e3);
            report.op(outcome);
        }
        probe(input);
        reference.probe(1)?;
        k += 1;
    }
    Ok((
        layers,
        Timings { per_input: traced },
        Timings {
            per_input: untraced,
        },
        input_of,
        reference,
    ))
}

fn flow_options(flags: &[&str]) -> ClaireOptions {
    let mut opts = ClaireOptions::default();
    opts.space.threads = Some(2);
    if flags.contains(&"--paper-subsets") {
        opts.subsets = SubsetStrategy::Fixed(paper_table3_subsets());
    }
    opts
}

/// The output each one-shot input prints, compact, which the replay
/// encodes as the CLI does before printing it.
fn output_docs(inputs: &[Input]) -> Result<Vec<Value>, String> {
    inputs
        .iter()
        .map(|i| {
            serde_json::from_slice(&i.reference).map_err(|e| format!("{}: output: {e}", i.name))
        })
        .collect()
}

/// Replays `flow-cold` or `flow-warm`: one fresh engine per operation,
/// through the same public calls `claire-cli flow` makes.
fn replay_flow(
    ctx: &Ctx,
    inputs: &[Input],
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Replay, String> {
    let docs = output_docs(inputs)?;
    let scratch = ctx.work.join("replay.snapshot");
    let mut op = |i: usize, t: &mut Tracer| -> Result<Engine, String> {
        let (name, flags) = FLOW_VARIANTS[i];
        let claire = Claire::new(flow_options(flags));
        let engine = t.span("engine.new", || Engine::for_space(&claire.options().space));
        if let Some((primed, _)) = &inputs[i].snapshot {
            t.span("snapshot.load", || engine.load_snapshot(primed))
                .map_err(|e| format!("{name}: snapshot load: {e}"))?;
        }
        let (training, tests) = t.span("model.resolve", || {
            let mut tests = zoo::test_set();
            if flags.contains(&"--extended") {
                tests.extend(zoo::extended_test_set());
            }
            (zoo::training_set(), tests)
        });
        let train = t
            .span("core.train", || {
                claire.train_with_engine(&training, &engine)
            })
            .map_err(|e| format!("{name}: train: {e}"))?;
        t.span("core.test", || {
            claire.evaluate_test_with_engine(&train, &tests, &engine)
        })
        .map_err(|e| format!("{name}: test: {e}"))?;
        t.span("json.encode", || serde_json::to_string_pretty(&docs[i]))
            .map_err(|e| format!("{name}: encode: {e}"))?;
        if inputs[i].snapshot.is_some() {
            t.span("snapshot.save", || engine.save_snapshot(&scratch))
                .map_err(|e| format!("{name}: snapshot save: {e}"))?;
        }
        Ok(engine)
    };
    let (layers, traced, untraced, input_of, reference) =
        alternate(seed, inputs.len(), seconds, tracer, report, &mut op, |_| {})?;
    let mut snapshot = SnapshotProbe::default();
    for (i, (_, flags)) in FLOW_VARIANTS.iter().enumerate() {
        let engine = op(i, &mut Tracer::new(false))?;
        let space = flow_options(flags).space;
        snapshot.measure(&engine, &space, &ctx.work.join("probe.snapshot"))?;
    }
    Ok(Replay {
        layers,
        traced,
        untraced,
        snapshot,
        outputs: docs.iter().map(Value::to_string).collect(),
        input_of,
        reference,
        extra: Vec::new(),
    })
}

/// Replays `dse-dense`: per operation, load the run configuration, look
/// the model up and derive its custom configuration on a fresh engine.
/// After each operation the Algorithm 1 search alone runs on another
/// fresh engine, outside the operation, to split the custom call into
/// search and clustering.
fn replay_dense(
    ctx: &Ctx,
    inputs: &[Input],
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Replay, String> {
    let docs = output_docs(inputs)?;
    let config = dense_config_path(ctx);
    let cfg = RunConfig::load(&config).map_err(|e| format!("config: {e}"))?;
    let mut space = cfg.space.clone();
    space.threads = Some(2);
    let models: Vec<Model> = DSE_MODELS
        .iter()
        .map(|m| zoo::by_name(m).ok_or_else(|| format!("unknown model {m}")))
        .collect::<Result<_, _>>()?;
    let mut op = |i: usize, t: &mut Tracer| -> Result<Engine, String> {
        let name = DSE_MODELS[i];
        let cfg = t
            .span("config.load", || RunConfig::load(&config))
            .map_err(|e| format!("{name}: config: {e}"))?;
        let mut opts = cfg.into_options();
        opts.space.threads = Some(2);
        let claire = Claire::new(opts);
        let engine = t.span("engine.new", || Engine::for_space(&claire.options().space));
        let model = t
            .span("model.resolve", || zoo::by_name(name))
            .ok_or_else(|| format!("unknown model {name}"))?;
        t.span("core.custom", || {
            claire.custom_for_with_engine(&model, &engine)
        })
        .map_err(|e| format!("{name}: custom: {e}"))?;
        t.span("json.encode", || serde_json::to_string_pretty(&docs[i]))
            .map_err(|e| format!("{name}: encode: {e}"))?;
        Ok(engine)
    };
    // Per input: search times, ms, and points evaluated by one search.
    let mut searches: Vec<(Vec<f64>, f64)> = vec![(Vec::new(), 0.0); inputs.len()];
    let probe = |i: usize| {
        let engine = Engine::for_space(&space);
        let start = Instant::now();
        let outcome = search_with_engine(
            &models[i],
            &space,
            &cfg.constraints,
            SearchPolicy::Exhaustive,
            &engine,
        );
        std::hint::black_box(&outcome);
        searches[i].0.push(start.elapsed().as_secs_f64() * 1e3);
        searches[i].1 = engine.telemetry().counter(Metric::DseEvaluated) as f64;
    };
    let (mut layers, traced, untraced, input_of, reference) =
        alternate(seed, inputs.len(), seconds, tracer, report, &mut op, probe)?;
    let mut snapshot = SnapshotProbe::default();
    for i in 0..inputs.len() {
        let engine = op(i, &mut Tracer::new(false))?;
        snapshot.measure(&engine, &space, &ctx.work.join("probe.snapshot"))?;
    }
    // The median search of each input, averaged over inputs as the run
    // time is; scaled to read as one search per operation.
    let searched: Vec<&(Vec<f64>, f64)> =
        searches.iter().filter(|(ms, _)| !ms.is_empty()).collect();
    let ops = layers.ops as f64;
    let search_ms = mean(
        &searched
            .iter()
            .map(|(ms, _)| percentile(&sorted(ms), 50.0))
            .collect::<Vec<_>>(),
    );
    let points = mean(&searched.iter().map(|(_, n)| *n).collect::<Vec<_>>());
    layers.add("dse.search_ms", search_ms * ops);
    layers.add("dse.search_points", points * ops);
    Ok(Replay {
        layers,
        traced,
        untraced,
        snapshot,
        outputs: docs.iter().map(Value::to_string).collect(),
        input_of,
        reference,
        extra: Vec::new(),
    })
}

/// A resident engine as `claire-cli serve --threads 2` builds it, after
/// the set-up's warm-up pass.
fn warm_resident(run: &ServeRun) -> Result<ResidentEngine, String> {
    let mut opts = ClaireOptions::default();
    opts.space.threads = Some(2);
    let resident = ResidentEngine::new(opts, zoo::training_set());
    for request in &run.plan.warmup {
        let model = resolve(request, &run.printouts)?;
        match request {
            Request::Assign(_) => resident.assign(&model).map(drop),
            _ => resident
                .custom_batch(&[CustomRequest::new(model)])
                .remove(0)
                .map(drop),
        }
        .map_err(|e| format!("warm-up {request:?}: {e}"))?;
    }
    Ok(resident)
}

/// The model a serve request names, resolved as the server resolves it.
fn resolve(request: &Request, printouts: &[String]) -> Result<Model, String> {
    match request {
        Request::Custom(m) | Request::Assign(m) | Request::WhatIf { model: m, .. } => {
            zoo::by_name(m).ok_or_else(|| format!("unknown model {m}"))
        }
        Request::Printout { asset, size } => {
            let opts = ParseOptions {
                input: InputShape::Image {
                    channels: 3,
                    height: *size,
                    width: *size,
                },
                class: ModelClass::Cnn,
            };
            parse_model(&format!("print{asset}-{size}"), &printouts[*asset], opts)
                .map_err(|e| e.to_string())
        }
    }
}

/// Replays the open-loop requests of a measured `serve-mixed` run, in
/// schedule order, one at a time: decode the request line, resolve the
/// model, call the resident engine, encode the answer the server sent.
/// Two identically warmed engines take every request, one with spans
/// and one without, alternating which goes first.
fn replay_serve(
    ctx: &Ctx,
    run: &ServeRun,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Replay, String> {
    let lines: Vec<String> = run
        .plan
        .open
        .iter()
        .enumerate()
        .map(|(i, (_, r))| r.to_value(i as u64, &run.printouts).to_string())
        .collect();
    let outputs: Vec<String> = run.answers.iter().flatten().cloned().collect();
    let answers: Vec<Value> = run
        .answers
        .iter()
        .map(|a| {
            a.as_deref()
                .map_or(Ok(Value::Null), serde_json::from_str)
                .map_err(|e| format!("answer: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let residents = [warm_resident(run)?, warm_resident(run)?];
    let mut reference = Reference::default();
    let since = EngineMark::of(residents[1].engine());
    let mut plain = Tracer::new(false);
    let mut times = [Vec::new(), Vec::new()];
    let mut resident_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (i, (_, request)) in run.plan.open.iter().enumerate() {
        for traced in [i % 2 == 0, i % 2 != 0] {
            let resident = &residents[usize::from(traced)];
            let t = if traced { &mut *tracer } else { &mut plain };
            let (outcome, took) = t.op(i as u64, |t| {
                let v: Value = t
                    .span("request.decode", || serde_json::from_str(&lines[i]))
                    .map_err(|e| format!("request {i}: {e}"))?;
                std::hint::black_box(&v);
                let model = t.span("model.resolve", || resolve(request, &run.printouts))?;
                let start = Instant::now();
                let (op, result) = match request {
                    Request::Custom(_) | Request::Printout { .. } => (
                        "custom",
                        t.span("resident.custom", || {
                            resident
                                .custom_batch(&[CustomRequest::new(model)])
                                .remove(0)
                                .map(drop)
                        }),
                    ),
                    Request::Assign(_) => (
                        "assign",
                        t.span("resident.assign", || {
                            resident.assign_batch(&[model]).map(drop)
                        }),
                    ),
                    Request::WhatIf { area_mm2, .. } => (
                        "what_if",
                        t.span("resident.what_if", || {
                            let limits = Constraints {
                                chiplet_area_limit_mm2: f64::from(*area_mm2),
                                ..Constraints::default()
                            };
                            resident.what_if(&model, limits).map(drop)
                        }),
                    ),
                };
                if traced {
                    resident_us
                        .entry(op)
                        .or_default()
                        .push(start.elapsed().as_secs_f64() * 1e6);
                }
                result.map_err(|e| format!("request {i}: {e}"))?;
                t.span("json.encode", || serde_json::to_string(&answers[i]))
                    .map_err(|e| format!("request {i}: encode: {e}"))?;
                Ok(())
            });
            times[usize::from(traced)].push(took.as_secs_f64() * 1e3);
            report.op(outcome);
        }
        if i % REFERENCE_EVERY == 0 {
            reference.probe(1)?;
        }
    }
    // The resident tiers are shared by every request: their size is a
    // level, so it is weighted to read as one per request.
    let mut layers = Layers {
        ops: run.plan.open.len() as u64,
        ..Layers::default()
    };
    layers.add_engine(residents[1].engine(), &since, layers.ops as f64);
    let mut snapshot = SnapshotProbe::default();
    let space = residents[1].options().space.clone();
    snapshot.measure(
        residents[1].engine(),
        &space,
        &ctx.work.join("probe.snapshot"),
    )?;
    let mut extra = Vec::new();
    for (op, calls) in &resident_us {
        let calls = sorted(calls);
        let tail = tail_percentile(calls.len()).unwrap_or(90.0);
        for q in [50.0, tail] {
            extra.push((
                format!("resident.{op}_us.p{q}"),
                percentile(&calls, q),
                "us",
            ));
        }
    }
    let [untraced, traced] = times.map(|ms| Timings {
        per_input: vec![ms],
    });
    Ok(Replay {
        layers,
        traced,
        untraced,
        snapshot,
        outputs,
        input_of: Vec::new(),
        reference,
        extra,
    })
}

/// Batches and queue waits of the open-loop requests, from the servers'
/// lifecycle event logs in `dir`.
fn batch_stats(dir: &Path, open: usize) -> Result<(f64, f64, Vec<f64>), String> {
    let mut batches = BTreeMap::new();
    let mut waits = Vec::new();
    let logs = std::fs::read_dir(dir).map_err(|e| format!("event logs: {e}"))?;
    for (server, log) in logs.enumerate() {
        let path = log.map_err(|e| format!("event logs: {e}"))?.path();
        let text = std::fs::read_to_string(&path).map_err(|e| format!("event log: {e}"))?;
        for line in text.lines() {
            let v: Value = serde_json::from_str(line).map_err(|e| format!("event log: {e}"))?;
            let open_loop = v["id"].as_u64().is_some_and(|id| id < open as u64);
            if v["event"] == "dispatched" && open_loop {
                if let Some(batch) = v["batch"].as_u64() {
                    *batches.entry((server, batch)).or_insert(0u64) += 1;
                }
                if let Some(us) = v["queue_wait_us"].as_u64() {
                    waits.push(us as f64);
                }
            }
        }
    }
    let n = batches.len() as f64;
    let members: u64 = batches.values().sum();
    Ok((n, members as f64 / n.max(1.0), sorted(&waits)))
}

/// Runs the traced measurement of `workload`, writes the Chrome trace to
/// `trace_path`, and returns a report holding every per-layer metric.
pub fn run(
    ctx: &Ctx,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace_path: &Path,
) -> Result<Report, String> {
    let half = seconds / 2.0;
    let mut tracer = Tracer::new(true);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let (mut report, replay) = match workload {
        Workload::ServeMixed => {
            let logs = ctx.work.join("events");
            std::fs::create_dir_all(&logs)
                .map_err(|e| format!("cannot create {}: {e}", logs.display()))?;
            let (mut report, run) = serve::measure(ctx, seed, half, Some(&logs))?;
            let replay = replay_serve(ctx, &run, &mut tracer, &mut report)?;
            let (batches, batch_mean, waits) = batch_stats(&logs, run.plan.open.len())?;
            values.insert("serve.batches".into(), batches);
            values.insert("serve.batch_size.mean".into(), batch_mean);
            let shed = run.counters["serve.shed"].as_u64().unwrap_or(0);
            values.insert("serve.shed".into(), shed as f64);
            if !waits.is_empty() {
                let tail = tail_percentile(waits.len()).unwrap_or(90.0);
                for q in [50.0, tail] {
                    let name = format!("wall.serve.queue_wait_us.p{q}");
                    values.insert(name, percentile(&waits, q));
                }
            }
            (report, replay)
        }
        _ => {
            let (mut report, inputs) = oneshot::measure(ctx, workload, seed, half)?;
            let replay = if workload == Workload::DseDense {
                replay_dense(ctx, &inputs, seed, half, &mut tracer, &mut report)?
            } else {
                replay_flow(ctx, &inputs, seed, half, &mut tracer, &mut report)?
            };
            (report, replay)
        }
    };
    // The black box's normalized median, turned into the replay's wall
    // time: the replay's own reference spawns give its host speed, and
    // every time below is normalized with them at the end.
    let scale = replay.reference.scale();
    let black_box_p50 = report
        .metrics
        .iter()
        .find(|m| m.name == "latency_ms_p50")
        .map(|m| m.value / scale)
        .ok_or("the black-box run reported no latency_ms_p50")?;
    let black_box = report.metrics_value();
    report.metrics.clear();
    report.diagnostic("black_box_metrics", black_box);
    let mut layers = replay.layers;
    layers.add_spans(&tracer.spans, &central_ops(&tracer.spans, &replay.input_of));

    let all = |t: &Timings| t.per_input.concat();
    let op_p50 = replay.traced.p50_ms();
    let op_mean = mean(&all(&replay.traced));
    let residual = black_box_p50 - op_p50;
    let core_us = sorted(&core_us_per_op(&tracer.spans));
    // The full self-time table: every span's self time per central
    // operation; together the rows are the central operations' mean.
    let rows: Vec<(String, f64)> = layers
        .self_ms
        .keys()
        .map(|&name| (name.to_owned(), layers.self_per_op(&[name])))
        .collect();
    let rows_ms: f64 = rows.iter().map(|(_, ms)| ms).sum();
    let accounted_ms = rows_ms + residual;
    // Shares of span rows are of the rows' sum; shares of figures kept
    // over all operations (stage times, searches) are of their mean.
    let span_share = |names: &[&str]| layers.self_per_op(names) / rows_ms;
    let share = |ms: f64| ms / op_mean;
    values.extend(
        [
            ("process.residual_ms", residual),
            ("replay.op_ms", op_p50),
            (
                "trace.overhead_frac",
                op_mean / mean(&all(&replay.untraced)) - 1.0,
            ),
            (
                "model.resolve_us",
                layers.self_per_op(&["model.resolve"]) * 1e3,
            ),
            ("core.eval_us.p50", percentile(&core_us, 50.0)),
            ("core.eval_us.p90", percentile(&core_us, 90.0)),
            ("json.encode_us", layers.self_per_op(&["json.encode"]) * 1e3),
            ("json.decode_us", decode_us(&replay.outputs)?),
            ("snapshot.save_ms", mean(&replay.snapshot.save_ms)),
            ("snapshot.load_ms", mean(&replay.snapshot.load_ms)),
            ("snapshot.bytes", mean(&replay.snapshot.bytes)),
            (
                "snapshot.share",
                span_share(&["snapshot.load", "snapshot.save"]),
            ),
            ("engine.share", span_share(&["engine.new", "engine.drop"])),
            ("accounting.gap_frac", accounted_ms / black_box_p50 - 1.0),
            ("dse.search.share", share(layers.per_op("dse.search_ms"))),
        ]
        .map(|(k, v)| (k.to_owned(), v)),
    );
    for stage in STAGES {
        let ms = layers.per_op(&format!("stage.{stage}_ms"));
        values.insert(format!("stage.{stage}.share"), share(ms));
    }
    for (name, _) in PER_LAYER {
        if !values.contains_key(name) && layers.sums.contains_key(name) {
            values.insert(name.to_owned(), layers.per_op(name));
        }
    }
    for (tier, _, _) in TIERS {
        let hit = layers.per_op(&format!("memo.{tier}.hit"));
        let miss = layers.per_op(&format!("memo.{tier}.miss"));
        let rate = if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            0.0
        };
        values.insert(format!("memo.{tier}.hit_rate"), rate);
    }

    // Replay times, normalized like the end-to-end metrics.
    let norm = |value: f64, unit: &str| {
        if matches!(unit, "ms" | "us" | "ns") {
            value * scale
        } else {
            value
        }
    };
    for (name, unit) in PER_LAYER {
        let value = values.get(name).copied().unwrap_or(0.0);
        report.metric(name, norm(value, unit), unit);
    }
    let mut extras: Vec<(String, f64, &str)> = rows
        .iter()
        .map(|(name, ms)| (format!("self.{name}_ms"), *ms, "ms"))
        .collect();
    for span in CORE_SPANS
        .iter()
        .filter(|s| layers.total_ms.contains_key(*s))
    {
        extras.push((format!("{span}_ms"), layers.total_per_op(span), "ms"));
    }
    for stage in STAGES {
        let name = format!("stage.{stage}_ms");
        if layers.sums.contains_key(&name) {
            extras.push((name.clone(), layers.per_op(&name), "ms"));
        }
    }
    if layers.sums.contains_key("dse.search_ms") {
        let search = layers.per_op("dse.search_ms");
        let points = layers.per_op("dse.search_points");
        extras.push(("dse.search_ms".into(), search, "ms"));
        let cluster = layers.total_per_op("core.custom") - search;
        extras.push(("core.cluster_ms".into(), cluster, "ms"));
        if points > 0.0 {
            extras.push(("dse.eval_ns_per_point".into(), search * 1e6 / points, "ns"));
        }
    }
    extras.extend(replay.extra);
    for (name, value, unit) in extras {
        report.extra(name, norm(value, unit), unit);
    }
    // Queue waits are the servers' own wall times, from the black box.
    for (name, value) in &values {
        if name.starts_with("wall.serve.queue_wait_us") {
            report.extra(name.clone(), *value, "us");
        }
    }
    report.diagnostic(
        "accounting",
        serde_json::json!({
            "black_box_p50_ms": number(black_box_p50 * scale),
            "rows_ms": number(rows_ms * scale),
            "residual_ms": number(residual * scale),
            "rows_plus_residual_ms": number(accounted_ms * scale),
            "gap_frac": number(accounted_ms / black_box_p50 - 1.0),
            "replayed_ops": layers.ops,
            "reference_spawn_ms": number(replay.reference.spawn_ms()),
        }),
    );
    let trace = chrome_trace(&tracer.spans).to_string();
    std::fs::write(trace_path, trace)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    report.diagnostic(
        "chrome_trace",
        serde_json::json!(trace_path.display().to_string()),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("b.inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 120, Some(0)),
        ];
        // Children cover 10..100 of the parent: 90 ns.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let mut t = Tracer::new(true);
        t.op(7, |t| {
            t.span("a", t_sleep);
            t.span("b", t_sleep);
        });
        let own: u64 = self_times(&t.spans).iter().sum();
        let root = &t.spans[0];
        assert_eq!(own, root.end_ns - root.start_ns);
        assert!(t.spans.iter().all(|s| s.request == 7));
        assert_eq!(t.spans[1].parent, Some(0));
    }

    fn t_sleep() {
        std::thread::sleep(Duration::from_millis(1));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, _) = t.op(1, |t| t.span("a", || 3));
        assert_eq!(v, 3);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn core_time_sums_the_core_spans_of_each_operation() {
        let mut spans = vec![
            span("op", 0, 9000, None),
            span("core.train", 1000, 3000, Some(0)),
            span("core.test", 3000, 4000, Some(0)),
            span("json.encode", 4000, 5000, Some(0)),
            span("op", 9000, 12000, None),
            span("json.encode", 10000, 11000, Some(4)),
        ];
        for s in &mut spans[4..] {
            s.request = 1;
        }
        assert_eq!(core_us_per_op(&spans), vec![3.0, 0.0]);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = [span("op", 0, 2000, None), span("a", 500, 1500, Some(0))];
        let doc = chrome_trace(&spans);
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1]["name"], "a");
        assert_eq!(events[1]["ph"], "X");
        assert_eq!(events[1]["ts"], 0.5);
        assert_eq!(events[1]["dur"], 1.0);
    }
}
