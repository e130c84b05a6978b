//! Structured telemetry: spans, metric instruments and trace export.
//!
//! Every [`crate::Engine`] owns one [`Telemetry`] instance — the
//! single source of truth behind [`crate::EngineStats`], the `profile`
//! bench's `BENCH_profile.json` writer and the CLI's `--trace-out` /
//! `--metrics-json` exports. The layer provides three instrument
//! families:
//!
//! * **Counters** ([`Metric`]) — monotonic event counts: memo-tier
//!   hits/misses, DSE prune/evaluate totals, parallel-map items and
//!   contained panics, Louvain passes, batched kernel pricings, NoC
//!   reroutes, degradation-ladder attempts/successes and per-class
//!   fault injections. Counters are plain relaxed atomics and are
//!   always on — they replace the ad-hoc `EngineStats` fields.
//! * **Gauges** ([`Gauge`]) — last-written values (memo-tier entry
//!   counts, thread count), set by the engine when a snapshot or an
//!   export is taken.
//! * **Histograms** — fixed-bucket distributions: degradation rungs
//!   and the serve queue-wait and in-flight counts.
//!
//! **Spans** come in two kinds. *Stage spans* ([`Telemetry::stage_span`])
//! are always recorded: their wall-time aggregates feed
//! `EngineStats::stages` exactly as the old bespoke `Duration`
//! bookkeeping did. *Trace spans* ([`Telemetry::span`]) are gated on a
//! single relaxed [`AtomicBool`] load and cost nothing but that load
//! when tracing is disabled; when enabled they record into per-thread
//! buffers (a `thread_local!` `Vec`, no locks on the hot path) that
//! workers flush into the shared event log when they retire.
//!
//! Because no recorded value ever feeds back into the pipeline's
//! arithmetic, outputs are bit-identical with tracing on or off — the
//! `telemetry` integration suite pins this at 1/2/8 threads.
//!
//! Two exporters read the recorded state: [`Telemetry::chrome_trace`]
//! renders Chrome Trace Event Format JSON (loadable in Perfetto or
//! `chrome://tracing`, one track per worker thread), and
//! [`Telemetry::text_summary`] renders a flamegraph-style indented
//! text profile. [`Telemetry::metrics_value`] serialises every
//! instrument for `--metrics-json`.

use crate::fault::FaultClass;
use serde::{Number, Value};
use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks `lock`, recovering from poisoning: telemetry state is
/// append-only (event vectors, accumulated durations), so a writer
/// that panicked mid-push can at worst have left a complete record or
/// none — both valid.
fn lock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Monotonic counter instruments. Each variant is one named counter;
/// names follow a `subsystem.object.event` dotted convention (e.g.
/// `memo.graph.hit`, `dse.pruned`, `fault.worker_panic`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// Never recorded; always reads 0. Kept only because the
    /// benchmark's per-layer replay still names it.
    LayerHit,
    /// Never recorded; always reads 0. Kept only because the
    /// benchmark's per-layer replay still names it.
    LayerMiss,
    /// Never recorded; always reads 0. Kept only because the
    /// benchmark's per-layer replay still names it.
    RouteHit,
    /// Never recorded; always reads 0. Kept only because the
    /// benchmark's per-layer replay still names it.
    RouteMiss,
    /// Never recorded; always reads 0. Kept only because the
    /// benchmark's per-layer replay still names it.
    SumHit,
    /// Never recorded; always reads 0. Kept only because the
    /// benchmark's per-layer replay still names it.
    SumMiss,
    /// Louvain partitions served from the canonical-graph cache.
    LouvainHit,
    /// Louvain partitions clustered fresh.
    LouvainMiss,
    /// Universal graph builds served from cache.
    GraphHit,
    /// Universal graph builds constructed fresh.
    GraphMiss,
    /// Never recorded; always reads 0. Kept only because the
    /// benchmark's per-layer replay still names it.
    AreaHit,
    /// Never recorded; always reads 0. Kept only because the
    /// benchmark's per-layer replay still names it.
    AreaMiss,
    /// DSE points skipped by the staged sweep's area screen.
    DsePruned,
    /// DSE points that survived the screen into full evaluation.
    DseEvaluated,
    /// Work items claimed by `par_map`/`try_par_map`.
    ParItems,
    /// Worker panics contained by `par_map_catch`.
    ParPanics,
    /// Louvain local-move + aggregation rounds run on cache misses.
    LouvainPasses,
    /// Whole-model compute sums priced through the batched
    /// `LayerBatch` kernel: every sum a cache-on engine without PPA
    /// faults prices.
    BatchSums,
    /// Torus routes that took the BFS route-around (`hops_avoiding`).
    NocReroutes,
    /// Nodes expanded by the BFS route-around searches.
    NocRerouteVisited,
    /// Degradation-ladder rungs above 0 attempted.
    DegradeAttempts,
    /// Selections that succeeded only on a rung above 0.
    DegradeSuccesses,
    /// Injected NaN unit-PPA corruptions.
    FaultNanPpa,
    /// Injected infinite unit-PPA corruptions.
    FaultInfPpa,
    /// Injected finite unit-PPA perturbations.
    FaultPerturbPpa,
    /// Injected coverage drops.
    FaultDropCoverage,
    /// Injected worker panics.
    FaultWorkerPanic,
    /// Injected memo-shard poisonings.
    FaultPoisonShard,
    /// Injected infeasible constraint substitutions.
    FaultInfeasibleConstraints,
    /// Injected NoC link failures.
    FaultFailedNocLink,
    /// Edge-cost sequences served from the communication memo tier.
    CommHit,
    /// Edge-cost sequences built fresh (each edge family priced once).
    CommMiss,
    /// Never recorded; always reads 0. Kept only because the
    /// benchmark's per-layer replay still names it.
    LouvainWarmHit,
    /// Never recorded; always reads 0. Kept only because the
    /// benchmark's per-layer replay still names it.
    LouvainWarmMiss,
    /// Multi-member universal graphs assembled by merging cached
    /// member graphs instead of rebuilding from scratch.
    MergedGraphBuilds,
    /// Evaluation items enumerated by the flat execution plan.
    PlanItems,
    /// Never recorded; always reads 0. Kept only because the
    /// benchmark's per-layer replay still names it.
    LbHit,
    /// Never recorded; always reads 0. Kept only because the
    /// benchmark's per-layer replay still names it.
    LbMiss,
    /// DSE points screened out by the latency lower-bound stage.
    DseLbPruned,
    /// Serve requests shed because the admission queue was full.
    ServeShed,
    /// Serve requests answered `DeadlineExceeded` (at dispatch or by
    /// cooperative cancellation mid-evaluation).
    ServeDeadlineExpired,
    /// Warm-state checkpoints written by the serve loop.
    ServeCheckpoints,
    /// Request lines received by the serve front ends (well-formed or
    /// not, including in-band `stats` probes).
    ServeRequests,
    /// Responses delivered to serve clients (success or typed error).
    ServeAnswered,
    /// Lifecycle events dropped because the event-log channel was full
    /// (a slow disk never stalls dispatch; drops are counted here).
    ServeEventsDropped,
    /// Flight-recorder dumps written (panic hook, drain, containment).
    ServeFlightDumps,
    /// Injected serve-connection drops.
    FaultDroppedConnection,
    /// Injected slow-loris connection stalls.
    FaultSlowLorisClient,
    /// Injected mid-batch dispatcher panics.
    FaultMidBatchPanic,
    /// Injected checkpoint write failures.
    FaultCheckpointWriteFailure,
}

impl Metric {
    /// Number of counter instruments.
    pub const COUNT: usize = 50;

    /// Every counter, in index order.
    pub const ALL: [Metric; Metric::COUNT] = [
        Metric::LayerHit,
        Metric::LayerMiss,
        Metric::RouteHit,
        Metric::RouteMiss,
        Metric::SumHit,
        Metric::SumMiss,
        Metric::LouvainHit,
        Metric::LouvainMiss,
        Metric::GraphHit,
        Metric::GraphMiss,
        Metric::AreaHit,
        Metric::AreaMiss,
        Metric::DsePruned,
        Metric::DseEvaluated,
        Metric::ParItems,
        Metric::ParPanics,
        Metric::LouvainPasses,
        Metric::BatchSums,
        Metric::NocReroutes,
        Metric::NocRerouteVisited,
        Metric::DegradeAttempts,
        Metric::DegradeSuccesses,
        Metric::FaultNanPpa,
        Metric::FaultInfPpa,
        Metric::FaultPerturbPpa,
        Metric::FaultDropCoverage,
        Metric::FaultWorkerPanic,
        Metric::FaultPoisonShard,
        Metric::FaultInfeasibleConstraints,
        Metric::FaultFailedNocLink,
        Metric::CommHit,
        Metric::CommMiss,
        Metric::LouvainWarmHit,
        Metric::LouvainWarmMiss,
        Metric::MergedGraphBuilds,
        Metric::PlanItems,
        Metric::LbHit,
        Metric::LbMiss,
        Metric::DseLbPruned,
        Metric::ServeShed,
        Metric::ServeDeadlineExpired,
        Metric::ServeCheckpoints,
        Metric::ServeRequests,
        Metric::ServeAnswered,
        Metric::ServeEventsDropped,
        Metric::ServeFlightDumps,
        Metric::FaultDroppedConnection,
        Metric::FaultSlowLorisClient,
        Metric::FaultMidBatchPanic,
        Metric::FaultCheckpointWriteFailure,
    ];

    /// The counter's dotted instrument name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::LayerHit => "memo.layer.hit",
            Metric::LayerMiss => "memo.layer.miss",
            Metric::RouteHit => "memo.route.hit",
            Metric::RouteMiss => "memo.route.miss",
            Metric::SumHit => "memo.sum.hit",
            Metric::SumMiss => "memo.sum.miss",
            Metric::LouvainHit => "memo.louvain.hit",
            Metric::LouvainMiss => "memo.louvain.miss",
            Metric::GraphHit => "memo.graph.hit",
            Metric::GraphMiss => "memo.graph.miss",
            Metric::AreaHit => "memo.area.hit",
            Metric::AreaMiss => "memo.area.miss",
            Metric::DsePruned => "dse.pruned",
            Metric::DseEvaluated => "dse.evaluated",
            Metric::ParItems => "par.items",
            Metric::ParPanics => "par.panics",
            Metric::LouvainPasses => "louvain.passes",
            Metric::BatchSums => "ppa.batch_sums",
            Metric::NocReroutes => "noc.reroutes",
            Metric::NocRerouteVisited => "noc.reroute_visited",
            Metric::DegradeAttempts => "degrade.attempts",
            Metric::DegradeSuccesses => "degrade.successes",
            Metric::FaultNanPpa => "fault.nan_ppa",
            Metric::FaultInfPpa => "fault.inf_ppa",
            Metric::FaultPerturbPpa => "fault.perturb_ppa",
            Metric::FaultDropCoverage => "fault.drop_coverage",
            Metric::FaultWorkerPanic => "fault.worker_panic",
            Metric::FaultPoisonShard => "fault.poison_shard",
            Metric::FaultInfeasibleConstraints => "fault.infeasible_constraints",
            Metric::FaultFailedNocLink => "fault.failed_noc_link",
            Metric::CommHit => "memo.comm.hit",
            Metric::CommMiss => "memo.comm.miss",
            Metric::LouvainWarmHit => "memo.louvain_warm.hit",
            Metric::LouvainWarmMiss => "memo.louvain_warm.miss",
            Metric::MergedGraphBuilds => "graph.merged_builds",
            Metric::PlanItems => "plan.items",
            Metric::LbHit => "memo.lb.hit",
            Metric::LbMiss => "memo.lb.miss",
            Metric::DseLbPruned => "dse.lb_pruned",
            Metric::ServeShed => "serve.shed",
            Metric::ServeDeadlineExpired => "serve.deadline_expired",
            Metric::ServeCheckpoints => "serve.checkpoints",
            Metric::ServeRequests => "serve.requests",
            Metric::ServeAnswered => "serve.answered",
            Metric::ServeEventsDropped => "serve.events_dropped",
            Metric::ServeFlightDumps => "serve.flight_dumps",
            Metric::FaultDroppedConnection => "fault.dropped_connection",
            Metric::FaultSlowLorisClient => "fault.slow_loris_client",
            Metric::FaultMidBatchPanic => "fault.mid_batch_panic",
            Metric::FaultCheckpointWriteFailure => "fault.checkpoint_write_failure",
        }
    }

    /// The injection counter for a fault class.
    pub fn for_fault(class: FaultClass) -> Metric {
        match class {
            FaultClass::NanPpa => Metric::FaultNanPpa,
            FaultClass::InfPpa => Metric::FaultInfPpa,
            FaultClass::PerturbPpa => Metric::FaultPerturbPpa,
            FaultClass::DropCoverage => Metric::FaultDropCoverage,
            FaultClass::WorkerPanic => Metric::FaultWorkerPanic,
            FaultClass::PoisonShard => Metric::FaultPoisonShard,
            FaultClass::InfeasibleConstraints => Metric::FaultInfeasibleConstraints,
            FaultClass::FailedNocLink => Metric::FaultFailedNocLink,
            FaultClass::DroppedConnection => Metric::FaultDroppedConnection,
            FaultClass::SlowLorisClient => Metric::FaultSlowLorisClient,
            FaultClass::MidBatchPanic => Metric::FaultMidBatchPanic,
            FaultClass::CheckpointWriteFailure => Metric::FaultCheckpointWriteFailure,
        }
    }
}

/// Last-value gauge instruments, set by the engine at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Worker threads the engine maps over.
    Threads,
    /// Entries in the Louvain partition cache.
    LouvainEntries,
    /// Entries in the universal-graph cache.
    GraphEntries,
    /// Distinct layer structures interned.
    StructEntries,
    /// Model instances mapped onto interned structures.
    StructInstances,
    /// Entries in the communication edge-cost sequence cache.
    CommEntries,
}

impl Gauge {
    /// Number of gauge instruments.
    pub const COUNT: usize = 6;

    /// Every gauge, in index order.
    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::Threads,
        Gauge::LouvainEntries,
        Gauge::GraphEntries,
        Gauge::StructEntries,
        Gauge::StructInstances,
        Gauge::CommEntries,
    ];

    /// The gauge's dotted instrument name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::Threads => "engine.threads",
            Gauge::LouvainEntries => "memo.louvain.entries",
            Gauge::GraphEntries => "memo.graph.entries",
            Gauge::StructEntries => "engine.struct_entries",
            Gauge::StructInstances => "engine.struct_instances",
            Gauge::CommEntries => "memo.comm.entries",
        }
    }
}

/// A fixed-bucket histogram: `bounds` are inclusive upper edges; one
/// overflow bucket catches everything beyond the last bound.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Box<[AtomicU64]>,
}

impl Histogram {
    fn new(bounds: &'static [u64]) -> Self {
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram { bounds, counts }
    }

    /// Records one observation of `value`.
    pub fn record(&self, value: u64) {
        let i = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[i].fetch_add(1, Ordering::Relaxed);
    }

    /// The inclusive upper bucket edges.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Per-bucket counts (`bounds().len() + 1` entries; the last is
    /// the overflow bucket).
    pub fn snapshot(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.snapshot().iter().sum()
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "bounds".to_owned(),
                Value::Array(
                    self.bounds
                        .iter()
                        .map(|&b| Value::Number(Number::PosInt(b)))
                        .collect(),
                ),
            ),
            (
                "counts".to_owned(),
                Value::Array(
                    self.snapshot()
                        .into_iter()
                        .map(|c| Value::Number(Number::PosInt(c)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// An exact quantile digest over `u64` samples: the recorded multiset
/// is held as a sorted run-length encoding, so quantiles are exact
/// (identical to indexing the fully sorted sample vector) and merging
/// per-thread digests is order-independent — any permutation of
/// inserts and merges over the same multiset yields byte-identical
/// state and summaries.
///
/// Memory is bounded by the number of *distinct* values recorded, not
/// the sample count. For naturally coarse inputs (e.g. latencies in
/// whole microseconds) that is small; callers with adversarial value
/// ranges can pre-quantize via [`QuantileDigest::with_resolution`],
/// which drops low bits per inserted value — a pure per-value function,
/// so determinism and merge order-independence are preserved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileDigest {
    /// Sorted `(value, occurrences)` runs — the canonical RLE of the
    /// recorded multiset.
    runs: Vec<(u64, u64)>,
    /// Total samples recorded.
    count: u64,
    /// Low bits dropped from every inserted value (0 = exact).
    shift: u32,
}

/// The fixed quantile/max summary a [`QuantileDigest`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuantileSummary {
    /// Samples recorded.
    pub count: u64,
    /// Median (nearest-rank, lower).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

impl QuantileSummary {
    /// Serialises the summary for stats snapshots and metrics exports.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "count".to_owned(),
                Value::Number(Number::PosInt(self.count)),
            ),
            ("p50".to_owned(), Value::Number(Number::PosInt(self.p50))),
            ("p90".to_owned(), Value::Number(Number::PosInt(self.p90))),
            ("p99".to_owned(), Value::Number(Number::PosInt(self.p99))),
            ("max".to_owned(), Value::Number(Number::PosInt(self.max))),
        ])
    }
}

impl Default for QuantileDigest {
    fn default() -> Self {
        QuantileDigest::new()
    }
}

impl QuantileDigest {
    /// An empty exact digest.
    pub fn new() -> Self {
        QuantileDigest {
            runs: Vec::new(),
            count: 0,
            shift: 0,
        }
    }

    /// An empty digest that drops the low `shift` bits of every
    /// inserted value, bounding distinct-value memory for inputs with
    /// adversarial precision. Quantiles are then exact over the
    /// quantized multiset.
    pub fn with_resolution(shift: u32) -> Self {
        QuantileDigest {
            runs: Vec::new(),
            count: 0,
            shift: shift.min(63),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let value = (value >> self.shift) << self.shift;
        match self.runs.binary_search_by_key(&value, |&(v, _)| v) {
            Ok(i) => self.runs[i].1 += 1,
            Err(i) => self.runs.insert(i, (value, 1)),
        }
        self.count += 1;
    }

    /// Folds another digest in: the result is exactly the digest of
    /// the union multiset, independent of merge order. Both sides must
    /// share the same resolution.
    pub fn merge(&mut self, other: &QuantileDigest) {
        debug_assert_eq!(self.shift, other.shift, "digest resolutions differ");
        let mut merged = Vec::with_capacity(self.runs.len() + other.runs.len());
        let (mut a, mut b) = (self.runs.iter().peekable(), other.runs.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(va, ca)), Some(&&(vb, cb))) => {
                    if va < vb {
                        merged.push((va, ca));
                        a.next();
                    } else if vb < va {
                        merged.push((vb, cb));
                        b.next();
                    } else {
                        merged.push((va, ca + cb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&run), None) => {
                    merged.push(run);
                    a.next();
                }
                (None, Some(&&run)) => {
                    merged.push(run);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.runs = merged;
        self.count += other.count;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exact `p`-th percentile (nearest-rank, lower: the value a
    /// sorted sample vector holds at index `(count - 1) * p / 100`).
    /// `None` on an empty digest.
    pub fn quantile(&self, p: u8) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (u128::from(self.count - 1) * u128::from(p.min(100)) / 100) as u64;
        let mut seen = 0u64;
        for &(value, occurrences) in &self.runs {
            seen += occurrences;
            if rank < seen {
                return Some(value);
            }
        }
        self.runs.last().map(|&(v, _)| v)
    }

    /// The largest recorded sample; `None` on an empty digest.
    pub fn max(&self) -> Option<u64> {
        self.runs.last().map(|&(v, _)| v)
    }

    /// The p50/p90/p99/max summary (all zeros when empty).
    pub fn summary(&self) -> QuantileSummary {
        QuantileSummary {
            count: self.count,
            p50: self.quantile(50).unwrap_or(0),
            p90: self.quantile(90).unwrap_or(0),
            p99: self.quantile(99).unwrap_or(0),
            max: self.max().unwrap_or(0),
        }
    }
}

/// Sliding-window event rates over 1 s / 10 s / 60 s horizons, driven
/// entirely by caller-injected timestamps (microseconds since an epoch
/// the caller chooses) — the type never reads a wall clock, so replays
/// with the same injected times are deterministic.
///
/// Events are bucketed per absolute second into a fixed 64-slot ring;
/// a window's count sums the buckets it covers, including the current
/// in-progress second.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RateWindows {
    /// Per-second counts, indexed by `second % 64`.
    buckets: [u64; 64],
    /// Absolute second of the newest bucket written.
    head_s: u64,
    /// Lifetime events recorded.
    total: u64,
}

/// One [`RateWindows`] reading: events in the trailing windows plus
/// per-second rates and the lifetime total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSnapshot {
    /// Events in the last 1 s.
    pub last_1s: u64,
    /// Events in the last 10 s.
    pub last_10s: u64,
    /// Events in the last 60 s.
    pub last_60s: u64,
    /// Lifetime events recorded.
    pub total: u64,
}

impl RateSnapshot {
    /// Serialises the snapshot (counts plus per-second rates).
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "last_1s".to_owned(),
                Value::Number(Number::PosInt(self.last_1s)),
            ),
            (
                "last_10s".to_owned(),
                Value::Number(Number::PosInt(self.last_10s)),
            ),
            (
                "last_60s".to_owned(),
                Value::Number(Number::PosInt(self.last_60s)),
            ),
            (
                "per_s_10s".to_owned(),
                Value::Number(Number::Float(self.last_10s as f64 / 10.0)),
            ),
            (
                "per_s_60s".to_owned(),
                Value::Number(Number::Float(self.last_60s as f64 / 60.0)),
            ),
            (
                "total".to_owned(),
                Value::Number(Number::PosInt(self.total)),
            ),
        ])
    }
}

impl Default for RateWindows {
    fn default() -> Self {
        RateWindows::new()
    }
}

impl RateWindows {
    /// An empty rate tracker.
    pub fn new() -> Self {
        RateWindows {
            buckets: [0; 64],
            head_s: 0,
            total: 0,
        }
    }

    /// Zeroes every bucket between the current head and `second`,
    /// exclusive/inclusive, so stale laps of the ring never leak into
    /// a window sum.
    fn advance_to(&mut self, second: u64) {
        if second <= self.head_s {
            return;
        }
        let skipped = second - self.head_s;
        if skipped >= 64 {
            self.buckets = [0; 64];
        } else {
            for s in (self.head_s + 1)..=second {
                self.buckets[(s % 64) as usize] = 0;
            }
        }
        self.head_s = second;
    }

    /// Records one event at the injected time (µs since the caller's
    /// epoch). Timestamps may arrive slightly out of order; an event
    /// older than the ring's horizon still counts toward `total`.
    pub fn record(&mut self, now_us: u64) {
        let second = now_us / 1_000_000;
        self.advance_to(second);
        self.total += 1;
        if self.head_s - second < 64 {
            self.buckets[(second % 64) as usize] += 1;
        }
    }

    /// Reads the trailing 1 s / 10 s / 60 s windows at the injected
    /// time.
    pub fn snapshot(&mut self, now_us: u64) -> RateSnapshot {
        let second = now_us / 1_000_000;
        self.advance_to(second);
        let window = |len: u64| -> u64 {
            (0..len.min(64))
                .map(|back| {
                    let s = second.wrapping_sub(back);
                    if back > second {
                        0
                    } else {
                        self.buckets[(s % 64) as usize]
                    }
                })
                .sum()
        };
        RateSnapshot {
            last_1s: window(1),
            last_10s: window(10),
            last_60s: window(60),
            total: self.total,
        }
    }
}

/// A fixed-capacity ring of the most recent events: pushes past
/// capacity evict the oldest entry, and the lifetime total makes the
/// eviction count visible (`total - len`). This is the in-memory
/// flight recorder the serve layer dumps on panic/drain/containment.
#[derive(Debug, Clone)]
pub struct EventRing<T> {
    cap: usize,
    buf: std::collections::VecDeque<T>,
    total: u64,
}

impl<T> EventRing<T> {
    /// An empty ring holding at most `cap` events (min 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        EventRing {
            cap,
            buf: std::collections::VecDeque::with_capacity(cap),
            total: 0,
        }
    }

    /// Appends an event, evicting the oldest once full.
    pub fn push(&mut self, event: T) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(event);
        self.total += 1;
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Lifetime events pushed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events evicted by capacity (`total - len`).
    pub fn evicted(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }
}

/// One span or instant event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer argument.
    Int(u64),
    /// A float argument.
    Float(f64),
    /// A text argument.
    Text(String),
}

impl ArgValue {
    fn to_value(&self) -> Value {
        match self {
            ArgValue::Int(n) => Value::Number(Number::PosInt(*n)),
            ArgValue::Float(f) => Value::Number(Number::Float(*f)),
            ArgValue::Text(s) => Value::String(s.clone()),
        }
    }
}

/// A recorded trace event: a completed span (`dur_ns` set) or an
/// instant marker.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (span taxonomy: `stage.<name>`, `<stage>.item`,
    /// `louvain.cluster`, `graph.build`, `graph.merge`, `sum.batch`,
    /// `dse.screen`, `dse.eval`, `degrade.success`, `fault.injected`).
    pub name: String,
    /// Event category (`stage`, `item`, `memo`, `dse`, `fault`).
    pub cat: &'static str,
    /// Start time in nanoseconds since the telemetry epoch.
    pub ts_ns: u64,
    /// Span duration in nanoseconds; `None` for instant events.
    pub dur_ns: Option<u64>,
    /// Logical track: 0 = main thread, `i + 1` = worker `i`.
    pub tid: u32,
    /// Typed event arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// One accumulated stage aggregate: total wall time and completed
/// span count, in first-recorded order.
#[derive(Debug, Clone, PartialEq)]
pub struct StageAgg {
    /// Stage name (`customs`, `generic`, …).
    pub name: String,
    /// Accumulated wall time across all spans of this stage.
    pub total: Duration,
    /// Number of completed spans.
    pub count: u64,
}

/// One parallel-map worker's accounting for one map: busy time (inside
/// its claimed chunks), wall time (claim loop start to retire) and
/// items completed.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSample {
    /// The enclosing stage, when the map ran inside one.
    pub stage: Option<String>,
    /// Worker index within the map (0-based).
    pub worker: usize,
    /// Time spent running claimed chunks, read once per chunk.
    pub busy: Duration,
    /// Wall time from the first claim to retire.
    pub wall: Duration,
    /// Items this worker completed.
    pub items: u64,
}

/// Aggregated per-worker utilization across every parallel map.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerUtilization {
    /// Worker index.
    pub worker: usize,
    /// Total busy time across maps.
    pub busy: Duration,
    /// Total wall time across maps.
    pub wall: Duration,
    /// Total items completed.
    pub items: u64,
}

impl WorkerUtilization {
    /// `busy / wall` in `[0, 1]`; 0 when no wall time was recorded.
    pub fn utilization(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / self.wall.as_secs_f64()
        }
    }
}

/// Output paths for the telemetry exporters, carried on
/// [`crate::ClaireOptions`] and the CLI's global `--trace-out` /
/// `--metrics-json` flags. When `trace_out` is set the engine runs
/// with tracing enabled.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryOptions {
    /// Write a Chrome Trace Event JSON file here after the run.
    pub trace_out: Option<PathBuf>,
    /// Write a metrics snapshot JSON file here after the run.
    pub metrics_out: Option<PathBuf>,
}

impl TelemetryOptions {
    /// Whether any export is requested.
    pub fn active(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }
}

/// Process-unique telemetry instance ids, used to invalidate stale
/// thread-local buffers when a worker thread outlives one engine and
/// serves another.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Logical track id of the current thread: 0 on the main thread,
    /// `worker + 1` while it works a parallel map's share.
    static CURRENT_TID: Cell<u32> = const { Cell::new(0) };
    /// This thread's pending trace events, tagged with the telemetry
    /// instance they belong to.
    static LOCAL_BUF: RefCell<Option<LocalBuf>> = const { RefCell::new(None) };
}

#[derive(Debug)]
struct LocalBuf {
    id: u64,
    events: Vec<TraceEvent>,
}

/// Sets the current thread's logical track id (a parallel map sets
/// `worker + 1` for each worker's share and restores the previous id
/// when the share ends).
pub(crate) fn set_current_tid(tid: u32) {
    CURRENT_TID.with(|t| t.set(tid));
}

/// The current thread's logical track id.
pub(crate) fn current_tid() -> u32 {
    CURRENT_TID.with(Cell::get)
}

/// The telemetry hub owned by one [`crate::Engine`]: counters, gauges,
/// histograms, stage aggregates, worker samples and the trace event
/// log.
#[derive(Debug)]
pub struct Telemetry {
    id: u64,
    epoch: Instant,
    tracing: AtomicBool,
    counters: [AtomicU64; Metric::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    degrade_rungs: Histogram,
    queue_wait_us: Histogram,
    in_flight: Histogram,
    stage_aggs: Mutex<Vec<StageAgg>>,
    stage_stack: Mutex<Vec<String>>,
    workers: Mutex<Vec<WorkerSample>>,
    events: Mutex<Vec<TraceEvent>>,
}

/// Degradation-ladder rung buckets: rungs 0–2 get their own bucket,
/// rung 3 lands in the overflow bucket.
const RUNG_BOUNDS: &[u64] = &[0, 1, 2];

/// Log-spaced microsecond buckets for serve admission-queue waits
/// (sub-millisecond through 10 s; slower waits overflow).
const QUEUE_WAIT_US_BOUNDS: &[u64] = &[100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Power-of-two buckets for the number of requests in flight when a
/// serve batch dispatches.
const IN_FLIGHT_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A fresh hub with tracing disabled and every instrument at zero.
    pub fn new() -> Self {
        Telemetry {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            tracing: AtomicBool::new(false),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            degrade_rungs: Histogram::new(RUNG_BOUNDS),
            queue_wait_us: Histogram::new(QUEUE_WAIT_US_BOUNDS),
            in_flight: Histogram::new(IN_FLIGHT_BOUNDS),
            stage_aggs: Mutex::new(Vec::new()),
            stage_stack: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Enables or disables trace-span recording. Counters, gauges,
    /// histograms and stage aggregates are always on.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// Whether trace spans are being recorded. This single relaxed
    /// load is the entire disabled-path cost of every gated hook.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Increments a counter by 1.
    #[inline]
    pub fn count(&self, metric: Metric) {
        self.counters[metric as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Increments a counter by `n`.
    #[inline]
    pub fn count_by(&self, metric: Metric, n: u64) {
        self.counters[metric as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The counter's current value.
    pub fn counter(&self, metric: Metric) -> u64 {
        self.counters[metric as usize].load(Ordering::Relaxed)
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&self, gauge: Gauge, value: u64) {
        self.gauges[gauge as usize].store(value, Ordering::Relaxed);
    }

    /// The gauge's last-written value.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge as usize].load(Ordering::Relaxed)
    }

    /// The degradation-rung histogram (one observation per successful
    /// relaxed selection, bucketed by rung).
    pub fn degrade_rungs(&self) -> &Histogram {
        &self.degrade_rungs
    }

    /// Records one observation in the rung histogram.
    pub(crate) fn record_degrade_rung(&self, rung: u64) {
        self.degrade_rungs.record(rung);
    }

    /// The serve admission-queue wait histogram (microsecond log
    /// buckets, one observation per dispatched request).
    pub fn queue_waits(&self) -> &Histogram {
        &self.queue_wait_us
    }

    /// Records how long a serve request waited in the admission queue
    /// before its batch dispatched.
    pub fn record_queue_wait(&self, waited: Duration) {
        self.queue_wait_us.record(waited.as_micros() as u64);
    }

    /// The serve in-flight histogram (requests being evaluated when a
    /// batch dispatches, power-of-two buckets).
    pub fn in_flight(&self) -> &Histogram {
        &self.in_flight
    }

    /// Records the number of requests in flight at a batch dispatch.
    pub fn record_in_flight(&self, n: u64) {
        self.in_flight.record(n);
    }

    /// Opens an always-recorded stage span; its wall time accumulates
    /// into the stage aggregates (feeding `EngineStats::stages`) when
    /// the guard drops, and a trace event is emitted when tracing is
    /// enabled.
    pub fn stage_span(&self, name: &str) -> StageSpan<'_> {
        lock(&self.stage_stack).push(name.to_owned());
        StageSpan {
            telemetry: self,
            name: name.to_owned(),
            start: Instant::now(),
        }
    }

    /// The innermost open stage, if any.
    pub(crate) fn current_stage(&self) -> Option<String> {
        lock(&self.stage_stack).last().cloned()
    }

    /// Opens a gated trace span: a no-op (one relaxed load) when
    /// tracing is disabled.
    pub fn span(&self, name: &'static str, cat: &'static str) -> TraceSpan<'_> {
        if !self.tracing_enabled() {
            return TraceSpan(None);
        }
        TraceSpan(Some(TraceSpanInner {
            telemetry: self,
            name: name.to_owned(),
            cat,
            start: Instant::now(),
            args: Vec::new(),
        }))
    }

    /// Opens a gated per-item span inside a parallel map, named after
    /// the enclosing stage.
    pub(crate) fn item_span(&self, index: usize, stage: Option<&str>) -> TraceSpan<'_> {
        if !self.tracing_enabled() {
            return TraceSpan(None);
        }
        let name = match stage {
            Some(s) => format!("{s}.item"),
            None => "par.item".to_owned(),
        };
        TraceSpan(Some(TraceSpanInner {
            telemetry: self,
            name,
            cat: "item",
            start: Instant::now(),
            args: vec![("index", ArgValue::Int(index as u64))],
        }))
    }

    /// Records a gated instant event (a point marker on the current
    /// thread's track). No-op when tracing is disabled.
    pub fn instant(&self, name: &str, cat: &'static str, args: Vec<(&'static str, ArgValue)>) {
        if !self.tracing_enabled() {
            return;
        }
        let ts_ns = self.now_ns();
        self.push_event(TraceEvent {
            name: name.to_owned(),
            cat,
            ts_ns,
            dur_ns: None,
            tid: current_tid(),
            args,
        });
    }

    fn now_ns(&self) -> u64 {
        Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64
    }

    /// Appends an event to the current thread's local buffer,
    /// rebinding (and discarding stale events) when the buffer belongs
    /// to a different telemetry instance.
    fn push_event(&self, event: TraceEvent) {
        LOCAL_BUF.with(|buf| {
            let mut buf = buf.borrow_mut();
            match buf.as_mut() {
                Some(local) if local.id == self.id => local.events.push(event),
                _ => {
                    *buf = Some(LocalBuf {
                        id: self.id,
                        events: vec![event],
                    });
                }
            }
        });
    }

    /// Moves the current thread's buffered events into the shared log.
    /// Workers call this before retiring; exporters call it to collect
    /// the calling thread's (main) buffer.
    pub fn flush_thread_events(&self) {
        let drained = LOCAL_BUF.with(|buf| {
            let mut buf = buf.borrow_mut();
            match buf.as_mut() {
                Some(local) if local.id == self.id && !local.events.is_empty() => {
                    Some(std::mem::take(&mut local.events))
                }
                _ => None,
            }
        });
        if let Some(events) = drained {
            lock(&self.events).extend(events);
        }
    }

    /// Records one worker's busy/wall accounting for a parallel map.
    pub(crate) fn record_worker(&self, sample: WorkerSample) {
        lock(&self.workers).push(sample);
    }

    /// Every per-map worker sample recorded so far.
    pub fn worker_samples(&self) -> Vec<WorkerSample> {
        lock(&self.workers).clone()
    }

    /// Per-worker utilization aggregated across every parallel map, in
    /// worker order. Every configured worker — `0..` the
    /// [`Gauge::Threads`] value, which an engine sets when it is built —
    /// has a row, so a worker that never took a job shows 0 items and
    /// utilization 0 rather than no row. Any other worker a sample names
    /// gets a row too, so a hub no engine owns lists the workers that
    /// recorded.
    pub fn worker_utilization(&self) -> Vec<WorkerUtilization> {
        let samples = self.worker_samples();
        let mut out: Vec<WorkerUtilization> = (0..self.gauge(Gauge::Threads) as usize)
            .map(|worker| WorkerUtilization {
                worker,
                busy: Duration::ZERO,
                wall: Duration::ZERO,
                items: 0,
            })
            .collect();
        for s in &samples {
            match out.iter_mut().find(|u| u.worker == s.worker) {
                Some(u) => {
                    u.busy += s.busy;
                    u.wall += s.wall;
                    u.items += s.items;
                }
                None => out.push(WorkerUtilization {
                    worker: s.worker,
                    busy: s.busy,
                    wall: s.wall,
                    items: s.items,
                }),
            }
        }
        out.sort_by_key(|u| u.worker);
        out
    }

    /// Per-worker busy time within one named stage: `(worker, busy)`
    /// pairs summed across that stage's maps.
    pub fn stage_worker_busy(&self, stage: &str) -> Vec<(usize, Duration)> {
        let mut out: Vec<(usize, Duration)> = Vec::new();
        for s in self.worker_samples() {
            if s.stage.as_deref() != Some(stage) {
                continue;
            }
            match out.iter_mut().find(|(w, _)| *w == s.worker) {
                Some((_, busy)) => *busy += s.busy,
                None => out.push((s.worker, s.busy)),
            }
        }
        out.sort_by_key(|&(w, _)| w);
        out
    }

    /// Stage wall-time aggregates in first-recorded order — the data
    /// behind `EngineStats::stages`.
    pub fn stage_aggregates(&self) -> Vec<(String, Duration)> {
        lock(&self.stage_aggs)
            .iter()
            .map(|a| (a.name.clone(), a.total))
            .collect()
    }

    /// Stage aggregates with span counts.
    pub fn stage_aggregates_detailed(&self) -> Vec<StageAgg> {
        lock(&self.stage_aggs).clone()
    }

    fn accumulate_stage(&self, name: &str, took: Duration) {
        let mut aggs = lock(&self.stage_aggs);
        match aggs.iter_mut().find(|a| a.name == name) {
            Some(agg) => {
                agg.total += took;
                agg.count += 1;
            }
            None => aggs.push(StageAgg {
                name: name.to_owned(),
                total: took,
                count: 1,
            }),
        }
    }

    /// Renders the recorded trace as a Chrome Trace Event Format JSON
    /// value (`{"traceEvents": [...]}`): `ph:"X"` complete events for
    /// spans, `ph:"i"` instants, and `ph:"M"` metadata naming the
    /// process and one track per worker thread. Timestamps are floored
    /// to integer microseconds from a common epoch; flooring both span
    /// ends preserves nesting containment.
    pub fn chrome_trace(&self) -> Value {
        self.flush_thread_events();
        let mut events = lock(&self.events).clone();
        events.sort_by(|a, b| {
            (a.tid, a.ts_ns, std::cmp::Reverse(a.dur_ns)).cmp(&(
                b.tid,
                b.ts_ns,
                std::cmp::Reverse(b.dur_ns),
            ))
        });

        let mut tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();

        let mut out = Vec::with_capacity(events.len() + tids.len() + 1);
        out.push(Value::Object(vec![
            ("name".to_owned(), Value::String("process_name".to_owned())),
            ("ph".to_owned(), Value::String("M".to_owned())),
            ("pid".to_owned(), Value::Number(Number::PosInt(1))),
            ("tid".to_owned(), Value::Number(Number::PosInt(0))),
            (
                "args".to_owned(),
                Value::Object(vec![(
                    "name".to_owned(),
                    Value::String("claire".to_owned()),
                )]),
            ),
        ]));
        for &tid in &tids {
            let label = if tid == 0 {
                "main".to_owned()
            } else {
                format!("worker {}", tid - 1)
            };
            out.push(Value::Object(vec![
                ("name".to_owned(), Value::String("thread_name".to_owned())),
                ("ph".to_owned(), Value::String("M".to_owned())),
                ("pid".to_owned(), Value::Number(Number::PosInt(1))),
                (
                    "tid".to_owned(),
                    Value::Number(Number::PosInt(u64::from(tid))),
                ),
                (
                    "args".to_owned(),
                    Value::Object(vec![("name".to_owned(), Value::String(label))]),
                ),
            ]));
        }
        for e in &events {
            let ts_us = e.ts_ns / 1_000;
            let mut fields = vec![
                ("name".to_owned(), Value::String(e.name.clone())),
                ("cat".to_owned(), Value::String(e.cat.to_owned())),
            ];
            match e.dur_ns {
                Some(dur_ns) => {
                    // Floor both endpoints to µs so child spans stay
                    // contained in their parents after rounding.
                    let end_us = (e.ts_ns + dur_ns) / 1_000;
                    fields.push(("ph".to_owned(), Value::String("X".to_owned())));
                    fields.push(("ts".to_owned(), Value::Number(Number::PosInt(ts_us))));
                    fields.push((
                        "dur".to_owned(),
                        Value::Number(Number::PosInt(end_us - ts_us)),
                    ));
                }
                None => {
                    fields.push(("ph".to_owned(), Value::String("i".to_owned())));
                    fields.push(("ts".to_owned(), Value::Number(Number::PosInt(ts_us))));
                    fields.push(("s".to_owned(), Value::String("t".to_owned())));
                }
            }
            fields.push(("pid".to_owned(), Value::Number(Number::PosInt(1))));
            fields.push((
                "tid".to_owned(),
                Value::Number(Number::PosInt(u64::from(e.tid))),
            ));
            if !e.args.is_empty() {
                fields.push((
                    "args".to_owned(),
                    Value::Object(
                        e.args
                            .iter()
                            .map(|(k, v)| ((*k).to_owned(), v.to_value()))
                            .collect(),
                    ),
                ));
            }
            out.push(Value::Object(fields));
        }
        Value::Object(vec![("traceEvents".to_owned(), Value::Array(out))])
    }

    /// Renders a flamegraph-style text summary: per-track span trees
    /// (indentation = nesting, computed from span containment) plus
    /// stage aggregates and non-zero counters.
    pub fn text_summary(&self) -> String {
        self.flush_thread_events();
        let mut out = String::from("== telemetry summary ==\n");
        out.push_str("stages:\n");
        for agg in self.stage_aggregates_detailed() {
            out.push_str(&format!(
                "  {:<12} {:>9.3} ms  ({} span(s))\n",
                agg.name,
                agg.total.as_secs_f64() * 1e3,
                agg.count
            ));
        }
        let mut events = lock(&self.events).clone();
        events.sort_by(|a, b| {
            (a.tid, a.ts_ns, std::cmp::Reverse(a.dur_ns)).cmp(&(
                b.tid,
                b.ts_ns,
                std::cmp::Reverse(b.dur_ns),
            ))
        });
        let mut last_tid = None;
        // Stack of span end times; depth = open enclosing spans.
        let mut ends: Vec<u64> = Vec::new();
        for e in &events {
            if last_tid != Some(e.tid) {
                let label = if e.tid == 0 {
                    "main".to_owned()
                } else {
                    format!("worker {}", e.tid - 1)
                };
                out.push_str(&format!("track {label}:\n"));
                last_tid = Some(e.tid);
                ends.clear();
            }
            while ends.last().is_some_and(|&end| e.ts_ns >= end) {
                ends.pop();
            }
            let indent = "  ".repeat(ends.len() + 1);
            match e.dur_ns {
                Some(dur) => {
                    out.push_str(&format!("{indent}{} {:.3} ms\n", e.name, dur as f64 / 1e6));
                    ends.push(e.ts_ns + dur);
                }
                None => out.push_str(&format!("{indent}@ {}\n", e.name)),
            }
        }
        out.push_str("counters:\n");
        for m in Metric::ALL {
            let v = self.counter(m);
            if v > 0 {
                out.push_str(&format!("  {:<28} {v}\n", m.name()));
            }
        }
        out
    }

    /// Serialises every instrument — counters, gauges, histograms,
    /// stage aggregates and per-worker utilization — as a JSON value
    /// for `--metrics-json`.
    pub fn metrics_value(&self) -> Value {
        let counters = Metric::ALL
            .iter()
            .map(|&m| {
                (
                    m.name().to_owned(),
                    Value::Number(Number::PosInt(self.counter(m))),
                )
            })
            .collect();
        let gauges = Gauge::ALL
            .iter()
            .map(|&g| {
                (
                    g.name().to_owned(),
                    Value::Number(Number::PosInt(self.gauge(g))),
                )
            })
            .collect();
        let stages = self
            .stage_aggregates_detailed()
            .into_iter()
            .map(|a| {
                Value::Object(vec![
                    ("name".to_owned(), Value::String(a.name)),
                    (
                        "total_ms".to_owned(),
                        Value::Number(Number::Float(a.total.as_secs_f64() * 1e3)),
                    ),
                    ("count".to_owned(), Value::Number(Number::PosInt(a.count))),
                ])
            })
            .collect();
        let workers = self
            .worker_utilization()
            .into_iter()
            .map(|u| {
                Value::Object(vec![
                    (
                        "worker".to_owned(),
                        Value::Number(Number::PosInt(u.worker as u64)),
                    ),
                    (
                        "busy_ms".to_owned(),
                        Value::Number(Number::Float(u.busy.as_secs_f64() * 1e3)),
                    ),
                    (
                        "wall_ms".to_owned(),
                        Value::Number(Number::Float(u.wall.as_secs_f64() * 1e3)),
                    ),
                    ("items".to_owned(), Value::Number(Number::PosInt(u.items))),
                    (
                        "utilization".to_owned(),
                        Value::Number(Number::Float(u.utilization())),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("counters".to_owned(), Value::Object(counters)),
            ("gauges".to_owned(), Value::Object(gauges)),
            (
                "histograms".to_owned(),
                Value::Object(vec![
                    ("degrade.rungs".to_owned(), self.degrade_rungs.to_value()),
                    (
                        "serve.queue_wait_us".to_owned(),
                        self.queue_wait_us.to_value(),
                    ),
                    ("serve.in_flight".to_owned(), self.in_flight.to_value()),
                ]),
            ),
            ("stages".to_owned(), Value::Array(stages)),
            ("worker_utilization".to_owned(), Value::Array(workers)),
        ])
    }
}

/// Guard for an always-recorded stage span (see
/// [`Telemetry::stage_span`]).
#[derive(Debug)]
pub struct StageSpan<'a> {
    telemetry: &'a Telemetry,
    name: String,
    start: Instant,
}

impl Drop for StageSpan<'_> {
    fn drop(&mut self) {
        let took = self.start.elapsed();
        {
            let mut stack = lock(&self.telemetry.stage_stack);
            if stack.last().map(String::as_str) == Some(self.name.as_str()) {
                stack.pop();
            }
        }
        self.telemetry.accumulate_stage(&self.name, took);
        if self.telemetry.tracing_enabled() {
            let ts_ns = self
                .start
                .saturating_duration_since(self.telemetry.epoch)
                .as_nanos() as u64;
            self.telemetry.push_event(TraceEvent {
                name: format!("stage.{}", self.name),
                cat: "stage",
                ts_ns,
                dur_ns: Some(took.as_nanos() as u64),
                tid: current_tid(),
                args: Vec::new(),
            });
        }
    }
}

/// Guard for a gated trace span (see [`Telemetry::span`]). Holds
/// nothing when tracing is disabled.
#[derive(Debug)]
pub struct TraceSpan<'a>(Option<TraceSpanInner<'a>>);

#[derive(Debug)]
struct TraceSpanInner<'a> {
    telemetry: &'a Telemetry,
    name: String,
    cat: &'static str,
    start: Instant,
    args: Vec<(&'static str, ArgValue)>,
}

impl TraceSpan<'_> {
    /// Attaches an argument to the span (no-op when tracing is off).
    pub fn arg(&mut self, key: &'static str, value: ArgValue) {
        if let Some(inner) = &mut self.0 {
            inner.args.push((key, value));
        }
    }
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else {
            return;
        };
        let took = inner.start.elapsed();
        let ts_ns = inner
            .start
            .saturating_duration_since(inner.telemetry.epoch)
            .as_nanos() as u64;
        inner.telemetry.push_event(TraceEvent {
            name: inner.name,
            cat: inner.cat,
            ts_ns,
            dur_ns: Some(took.as_nanos() as u64),
            tid: current_tid(),
            args: inner.args,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_zero_and_accumulate() {
        let t = Telemetry::new();
        assert_eq!(t.counter(Metric::GraphHit), 0);
        t.count(Metric::GraphHit);
        t.count_by(Metric::GraphHit, 4);
        assert_eq!(t.counter(Metric::GraphHit), 5);
        assert_eq!(t.counter(Metric::GraphMiss), 0);
    }

    #[test]
    fn metric_names_are_unique_and_indexed() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::COUNT);
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert_eq!(*m as usize, i, "{} out of order", m.name());
        }
    }

    /// A dotted lowercase instrument name: `a-z0-9_` segments joined
    /// by `.`, at least two segments.
    fn is_dotted_lowercase(name: &str) -> bool {
        name.contains('.')
            && name.split('.').all(|seg| {
                !seg.is_empty()
                    && seg
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            })
    }

    #[test]
    fn every_instrument_has_a_dotted_name_and_is_exported() {
        let t = Telemetry::new();
        let dump = t.metrics_value();
        let counters = dump["counters"].as_object().unwrap();
        let gauges = dump["gauges"].as_object().unwrap();
        for m in Metric::ALL {
            assert!(
                is_dotted_lowercase(m.name()),
                "counter name `{}` is not dotted lowercase",
                m.name()
            );
            assert!(
                counters.iter().any(|(k, _)| k == m.name()),
                "counter `{}` missing from metrics_value",
                m.name()
            );
        }
        for g in Gauge::ALL {
            assert!(
                is_dotted_lowercase(g.name()),
                "gauge name `{}` is not dotted lowercase",
                g.name()
            );
            assert!(
                gauges.iter().any(|(k, _)| k == g.name()),
                "gauge `{}` missing from metrics_value",
                g.name()
            );
        }
        // Uniqueness across both families: a counter and a gauge must
        // not collide either.
        let mut names: Vec<&str> = Metric::ALL
            .iter()
            .map(|m| m.name())
            .chain(Gauge::ALL.iter().map(|g| g.name()))
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "instrument names collide");
    }

    #[test]
    fn quantile_digest_matches_sorted_reference() {
        let samples: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 997).collect();
        let mut digest = QuantileDigest::new();
        let mut sorted = Vec::new();
        for (n, &s) in samples.iter().enumerate() {
            digest.record(s);
            sorted.push(s);
            sorted.sort_unstable();
            let count = (n + 1) as u64;
            for p in [50u8, 90, 99] {
                let rank = ((count - 1) * u64::from(p) / 100) as usize;
                assert_eq!(digest.quantile(p), Some(sorted[rank]), "p{p} at n={count}");
            }
            assert_eq!(digest.max(), sorted.last().copied());
        }
    }

    #[test]
    fn quantile_digest_merge_is_order_independent() {
        let parts: Vec<Vec<u64>> = vec![
            (0..100).map(|i| i * 3 % 71).collect(),
            (0..57).map(|i| i * 13 % 301).collect(),
            vec![5, 5, 5, 1_000_000, 0],
        ];
        let merge_in = |order: &[usize]| {
            let mut acc = QuantileDigest::new();
            for &i in order {
                let mut part = QuantileDigest::new();
                for &s in &parts[i] {
                    part.record(s);
                }
                acc.merge(&part);
            }
            acc
        };
        let a = merge_in(&[0, 1, 2]);
        let b = merge_in(&[2, 0, 1]);
        let c = merge_in(&[1, 2, 0]);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.summary(), c.summary());
        // And merged state equals recording everything into one digest.
        let mut flat = QuantileDigest::new();
        for part in &parts {
            for &s in part {
                flat.record(s);
            }
        }
        assert_eq!(a, flat);
    }

    #[test]
    fn quantile_digest_resolution_quantizes_inputs() {
        let mut d = QuantileDigest::with_resolution(4);
        for v in [0u64, 3, 15, 16, 17, 31, 32] {
            d.record(v);
        }
        assert_eq!(d.count(), 7);
        assert_eq!(d.max(), Some(32));
        assert_eq!(d.quantile(50), Some(16));
    }

    #[test]
    fn rate_windows_sum_trailing_buckets_with_injected_clock() {
        let mut r = RateWindows::new();
        for s in 0..30u64 {
            r.record(s * 1_000_000);
            r.record(s * 1_000_000 + 500_000);
        }
        let snap = r.snapshot(29 * 1_000_000 + 900_000);
        assert_eq!(snap.last_1s, 2);
        assert_eq!(snap.last_10s, 20);
        assert_eq!(snap.last_60s, 60);
        assert_eq!(snap.total, 60);
        // 70 s later every window is empty but the total survives.
        let later = r.snapshot(100 * 1_000_000);
        assert_eq!(later.last_60s, 0);
        assert_eq!(later.total, 60);
    }

    #[test]
    fn rate_windows_clear_stale_laps_of_the_ring() {
        let mut r = RateWindows::new();
        r.record(0);
        // One full lap later the second-0 bucket must not alias into
        // second 64's window.
        r.record(64 * 1_000_000);
        let snap = r.snapshot(64 * 1_000_000);
        assert_eq!(snap.last_1s, 1);
        assert_eq!(snap.total, 2);
    }

    #[test]
    fn event_ring_keeps_the_most_recent_events() {
        let mut ring = EventRing::new(3);
        for i in 0..5u64 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total(), 5);
        assert_eq!(ring.evicted(), 2);
        let held: Vec<u64> = ring.iter().copied().collect();
        assert_eq!(held, vec![2, 3, 4]);
    }

    #[test]
    fn gauge_names_are_unique_and_indexed() {
        let mut names: Vec<&str> = Gauge::ALL.iter().map(|g| g.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Gauge::COUNT);
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i, "{} out of order", g.name());
        }
    }

    #[test]
    fn histogram_buckets_by_inclusive_upper_bound() {
        let h = Histogram::new(&[0, 1, 2]);
        for rung in [0, 0, 1, 3, 7] {
            h.record(rung);
        }
        assert_eq!(h.snapshot(), vec![2, 1, 0, 2]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn stage_spans_accumulate_without_tracing() {
        let t = Telemetry::new();
        {
            let _a = t.stage_span("demo");
        }
        {
            let _b = t.stage_span("demo");
        }
        let aggs = t.stage_aggregates_detailed();
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].name, "demo");
        assert_eq!(aggs[0].count, 2);
        // No trace events were recorded while tracing was off.
        let trace = t.chrome_trace();
        let events = trace["traceEvents"].as_array().unwrap();
        assert!(events.iter().all(|e| e["ph"].as_str() == Some("M")));
    }

    #[test]
    fn trace_spans_record_only_when_enabled() {
        let t = Telemetry::new();
        {
            let _off = t.span("graph.build", "memo");
        }
        t.set_tracing(true);
        {
            let mut on = t.span("graph.build", "memo");
            on.arg("n", ArgValue::Int(3));
        }
        let trace = t.chrome_trace();
        let events = trace["traceEvents"].as_array().unwrap();
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0]["name"].as_str(), Some("graph.build"));
        assert_eq!(spans[0]["args"]["n"].as_u64(), Some(3));
    }

    #[test]
    fn nested_stage_spans_track_current_stage() {
        let t = Telemetry::new();
        assert_eq!(t.current_stage(), None);
        let outer = t.stage_span("outer");
        assert_eq!(t.current_stage().as_deref(), Some("outer"));
        {
            let _inner = t.stage_span("inner");
            assert_eq!(t.current_stage().as_deref(), Some("inner"));
        }
        assert_eq!(t.current_stage().as_deref(), Some("outer"));
        drop(outer);
        assert_eq!(t.current_stage(), None);
    }

    #[test]
    fn worker_utilization_aggregates_across_maps() {
        let t = Telemetry::new();
        for (stage, busy_ms) in [("a", 10), ("b", 30)] {
            t.record_worker(WorkerSample {
                stage: Some(stage.to_owned()),
                worker: 0,
                busy: Duration::from_millis(busy_ms),
                wall: Duration::from_millis(40),
                items: 2,
            });
        }
        let agg = t.worker_utilization();
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].items, 4);
        assert_eq!(agg[0].busy, Duration::from_millis(40));
        assert!((agg[0].utilization() - 0.5).abs() < 1e-9);
        let stage_a = t.stage_worker_busy("a");
        assert_eq!(stage_a, vec![(0, Duration::from_millis(10))]);
    }

    #[test]
    fn chrome_trace_round_trips_through_serde() {
        let t = Telemetry::new();
        t.set_tracing(true);
        {
            let _s = t.stage_span("demo");
            t.instant("fault.injected", "fault", vec![("site", ArgValue::Int(7))]);
        }
        let rendered = serde_json::to_string_pretty(&t.chrome_trace()).unwrap();
        let parsed: Value = serde_json::from_str(&rendered).unwrap();
        let events = parsed["traceEvents"].as_array().unwrap();
        assert!(events.iter().any(|e| e["ph"].as_str() == Some("X")));
        assert!(
            events
                .iter()
                .any(|e| e["ph"].as_str() == Some("i")
                    && e["name"].as_str() == Some("fault.injected"))
        );
        assert!(events
            .iter()
            .any(|e| e["name"].as_str() == Some("thread_name")));
    }

    #[test]
    fn text_summary_names_stages_and_counters() {
        let t = Telemetry::new();
        t.set_tracing(true);
        {
            let _s = t.stage_span("demo");
        }
        t.count(Metric::CommMiss);
        let text = t.text_summary();
        assert!(text.contains("demo"), "{text}");
        assert!(text.contains("memo.comm.miss"), "{text}");
        assert!(text.contains("track main"), "{text}");
    }
}
