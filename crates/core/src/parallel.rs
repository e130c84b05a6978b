//! The parallel, memoized evaluation engine.
//!
//! Every heavy stage of the CLAIRE pipeline is a map over independent
//! (model × configuration) work items: the DSE sweep evaluates 81
//! hardware points per algorithm, the training phase evaluates every
//! algorithm on every candidate configuration, and the test phase
//! repeats the DSE per test algorithm. [`Engine`] runs those maps on
//! the calling thread plus the helper threads of its own parked pool
//! and memoizes whole-model derivations (Louvain partitions and
//! universal graphs) in two memo tiers, while guaranteeing
//! **bit-identical results at any thread count**:
//!
//! * work items are claimed in contiguous chunks from an atomic cursor
//!   but results are reassembled by item index, so output order never
//!   depends on scheduling;
//! * each item's computation is a pure function of its inputs (no
//!   cross-item accumulation), so values cannot drift either;
//! * every memo tier stores exact values under complete keys — a hit
//!   returns precisely what a recomputation would.
//!
//! Thread count resolution: explicit [`DseSpace::threads`] knob, then
//! the `CLAIRE_THREADS` environment variable, then
//! [`std::thread::available_parallelism`].
//!
//! An engine starts up to `threads − 1` helpers, on demand, the first
//! time a map can use them; they park between maps and are joined
//! when the engine drops. A map publishes its shares to the helpers
//! and works as worker 0 itself. When its own share ends it retracts
//! the job and waits only for the helpers that took a share, on
//! unwind too, so no helper outlives the borrow of the map's closure.
//! A map runs serially on its calling thread when it has one item or
//! the engine one thread, when it is nested inside another map's
//! item, when another thread's map holds the helpers, and when no
//! helper could be started.

use crate::config::{AreaTables, DesignConfig};
use crate::error::ClaireError;
use crate::evaluate::{ComputeSum, CostProvider, EvalTerms, PpaReport, RouteTable, TransferCost};
use crate::fault::FaultPlan;
use crate::pool::Pool;
use crate::snapshot::Persisted;
use crate::telemetry::{self, ArgValue, Gauge, Metric, Telemetry, WorkerSample};
use claire_graph::{louvain_csr_counted, CsrGraph, Partition};
use claire_model::{FxBuildHasher, FxHasher, LayerKind, Model, OpClass, WeakModel};
use claire_ppa::{layer_cost, DseSpace, HwParams, LayerBatch, LayerCost, SpaceAxes, MAX_THREADS};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::sync::{Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Read-locks `lock`, recovering from poisoning. Every lock in this
/// module guards a pure memo cache: entries are exact functions of
/// their keys and are only ever *inserted*, so a writer that panicked
/// mid-update can at worst have left a complete entry or no entry —
/// both valid states — and the data behind a poisoned lock is safe to
/// keep serving.
pub(crate) fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `lock`, recovering from poisoning (see [`read_lock`]).
pub(crate) fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Poisons `lock` for fault injection: panics while holding its write
/// guard, and contains the unwind, so the caller never sees a panic.
fn poison<T>(lock: &RwLock<T>) {
    let _ = catch_unwind(AssertUnwindSafe(|| {
        let _guard = write_lock(lock);
        panic!("injected lock poison");
    }));
    debug_assert!(lock.is_poisoned());
}

/// A contained panic from a parallel-map worker closure: the item
/// index and the panic payload's message (when it was a string).
/// Convertible into [`crate::ClaireError::WorkerPanic`] so fallible
/// sweeps surface contained panics as typed errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the work item whose closure panicked.
    pub index: usize,
    /// The panic payload, when it was a `&str` or `String`.
    pub message: String,
}

impl WorkerPanic {
    fn new(index: usize, payload: &(dyn std::any::Any + Send)) -> Self {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        WorkerPanic { index, message }
    }
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panicked on item {}: {}",
            self.index, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

impl From<WorkerPanic> for String {
    fn from(p: WorkerPanic) -> String {
        p.to_string()
    }
}

/// Environment variable overriding the engine's thread count.
pub const THREADS_ENV: &str = "CLAIRE_THREADS";

/// Resolves the effective worker count: the explicit `knob` if given,
/// else `CLAIRE_THREADS`, else the machine's available parallelism.
/// Always at least 1. A `CLAIRE_THREADS` value that does not parse,
/// is 0 or exceeds [`MAX_THREADS`] is ignored; [`Engine::new`] clamps
/// the knob.
pub fn resolve_threads(knob: Option<usize>) -> usize {
    knob.or_else(|| {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .filter(|n: &usize| (1..=MAX_THREADS).contains(n))
    })
    .unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
    .max(1)
}

/// A point-in-time snapshot of an [`Engine`]'s counters.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Worker threads the engine maps over.
    pub threads: usize,
    /// Whether the memo tiers are enabled.
    pub cache_enabled: bool,
    /// Never recorded; always reads 0. Kept only because the
    /// benchmark's per-layer replay still reads it.
    pub cache_entries: usize,
    /// Never recorded; always reads 0. Kept only because the
    /// benchmark's per-layer replay still reads it.
    pub route_topologies: usize,
    /// Never recorded; always reads 0. Kept only because the
    /// benchmark's per-layer replay still reads it.
    pub sum_entries: usize,
    /// Louvain partitions served from the canonical-graph cache.
    pub louvain_hits: u64,
    /// Louvain partitions clustered fresh (and then stored).
    pub louvain_misses: u64,
    /// Distinct (canonical graph, resolution) partitions cached.
    pub louvain_entries: usize,
    /// Universal graph + CSR builds served from the cache.
    pub graph_hits: u64,
    /// Universal graph + CSR builds constructed fresh (and stored).
    pub graph_misses: u64,
    /// Distinct (model set, hardware) universal graphs cached.
    pub graph_entries: usize,
    /// Never recorded; always reads 0. Kept only because the
    /// benchmark's per-layer replay still reads it.
    pub area_entries: usize,
    /// Distinct layer structures interned (structural memo keys).
    pub struct_entries: usize,
    /// Distinct model instances mapped onto those structures; a gap
    /// over `struct_entries` is exactly the sharing instance-id keys
    /// would have missed.
    pub struct_instances: usize,
    /// DSE points skipped by the staged sweep's area screen.
    pub dse_pruned: u64,
    /// DSE points that survived the screen into full PPA evaluation.
    pub dse_evaluated: u64,
    /// Never recorded; always reads 0. Kept only because the
    /// benchmark's per-layer replay still reads it.
    pub comm_entries: usize,
    /// Never recorded; always reads 0. Kept only because the
    /// benchmark's per-layer replay still reads it.
    pub louvain_warm_entries: usize,
    /// Multi-member universal graphs assembled from cached members.
    pub merged_graph_builds: u64,
    /// Evaluation items enumerated by the flat execution plan.
    pub plan_items: u64,
    /// Never recorded; always reads 0. Kept only because the
    /// benchmark's per-layer replay still reads it.
    pub lb_entries: usize,
    /// DSE points skipped by the latency lower-bound screen.
    pub dse_lb_pruned: u64,
    /// Accumulated wall time per pipeline stage, in first-recorded
    /// order.
    pub stages: Vec<(String, Duration)>,
}

impl EngineStats {
    /// Hit rate across both memo tiers (Louvain partitions and
    /// universal graphs) in `[0, 1]`; 0 when nothing was looked up.
    pub fn overall_hit_rate(&self) -> f64 {
        ratio(
            self.louvain_hits + self.graph_hits,
            self.louvain_misses + self.graph_misses,
        )
    }

    /// Fraction of the screened DSE points the area screen pruned, in
    /// `[0, 1]`; 0 when no sweep ran. Every screened point leaves
    /// through exactly one of the area screen, the latency lower-bound
    /// screen or exact pricing, so the three counts sum to the points
    /// screened.
    pub fn pruned_fraction(&self) -> f64 {
        ratio(self.dse_pruned, self.dse_lb_pruned + self.dse_evaluated)
    }

    /// Fraction of area-screen survivors the latency lower-bound
    /// screen pruned before exact pricing, in `[0, 1]`; 0 when no
    /// screen ran.
    pub fn lb_pruned_fraction(&self) -> f64 {
        ratio(self.dse_lb_pruned, self.dse_evaluated)
    }

    /// Total wall time recorded across stages.
    pub fn total_stage_time(&self) -> Duration {
        self.stages.iter().map(|(_, d)| *d).sum()
    }
}

/// `part / (part + rest)` — a hit rate, or a screen's share of the
/// points it saw — or 0 when both are 0.
fn ratio(part: u64, rest: u64) -> f64 {
    let total = part + rest;
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "engine: {} thread(s), cache {}",
            self.threads,
            if self.cache_enabled { "on" } else { "off" }
        )?;
        writeln!(
            f,
            "  louvain cache: {} hits / {} misses ({:.1} % hit rate, {} entries)",
            self.louvain_hits,
            self.louvain_misses,
            100.0 * ratio(self.louvain_hits, self.louvain_misses),
            self.louvain_entries
        )?;
        writeln!(
            f,
            "  graph cache: {} hits / {} misses ({:.1} % hit rate, {} entries); \
             {} merged graph builds",
            self.graph_hits,
            self.graph_misses,
            100.0 * ratio(self.graph_hits, self.graph_misses),
            self.graph_entries,
            self.merged_graph_builds
        )?;
        writeln!(
            f,
            "  structural keys: {} structures over {} model instances",
            self.struct_entries, self.struct_instances
        )?;
        writeln!(
            f,
            "  dse screens: {} area-pruned / {} lb-pruned / {} evaluated \
             ({:.1} % area, {:.1} % lb)",
            self.dse_pruned,
            self.dse_lb_pruned,
            self.dse_evaluated,
            100.0 * self.pruned_fraction(),
            100.0 * self.lb_pruned_fraction()
        )?;
        writeln!(
            f,
            "  overall memo hit rate: {:.1} %",
            100.0 * self.overall_hit_rate()
        )?;
        for (stage, took) in &self.stages {
            writeln!(
                f,
                "  stage {stage:<10} {:>9.3} ms",
                took.as_secs_f64() * 1e3
            )?;
        }
        Ok(())
    }
}

/// One memo tier: an FxHash map behind a single reader–writer lock.
pub(crate) type MemoMap<K, V> = RwLock<HashMap<K, V, FxBuildHasher>>;

/// A model's per-class executions and class-pair byte totals, each at
/// most 2⁵³ (see [`Engine::model_graph`]).
type ExactTotals<'m> = ([u64; OpClass::COUNT], &'m [(OpClass, OpClass, u64)]);

/// The evaluation engine: a thread-count policy, two memo tiers
/// (Louvain partition, universal graph) plus the structural interner,
/// and stage/wall-time counters. Layer costs and edge-cost sequences
/// are not memoized: a recomputation costs less than a lookup saves.
/// Cheap to share by reference across the whole pipeline; all
/// interior state is thread-safe.
#[derive(Debug)]
pub struct Engine {
    threads: usize,
    cache_enabled: bool,
    pruning_enabled: bool,
    faults: Option<Arc<FaultPlan>>,
    // Tier fields are `pub(crate)` so [`crate::snapshot`] can
    // serialize and restore them without widening the public API.
    pub(crate) louvains: MemoMap<Box<[u64]>, Arc<Partition<OpClass>>>,
    /// Universal-graph tier, keyed by the member models' structural
    /// ids (in member order) plus the hardware point.
    pub(crate) graphs: MemoMap<(Box<[u64]>, HwParams), Arc<UniversalCsr>>,
    pub(crate) models: RwLock<ModelInterner>,
    /// The snapshot file the tiers last matched: set by a save, or by
    /// a load into empty tiers (see [`crate::snapshot`]).
    pub(crate) persisted: RwLock<Option<Persisted>>,
    /// The telemetry hub every counter, span and export reads from —
    /// the single source of truth behind [`EngineStats`].
    telemetry: Arc<Telemetry>,
    /// The parked helpers [`Engine::par_map`] runs beside the caller.
    pool: Pool,
}

/// The structural model interner behind the universal-graph tier's
/// memo keys and the batched compute kernels. Every model maps
/// to a dense **structural id**: models whose layer sequences are
/// element-wise identical share one id (and one preprocessed
/// [`LayerBatch`]), however they were constructed. The content key is
/// the complete `Box<[LayerKind]>` layer sequence — a total encoding,
/// not a hash — so two models share an id only when no cost the
/// engine derives from their layers can distinguish them. A
/// per-instance fast path (keyed by
/// [`claire_model::Model::instance_id`], shared by clones) skips the
/// content comparison after a model's first visit; each of its
/// entries holds a [`WeakModel`], so entries whose model is gone can
/// be swept out.
#[derive(Debug, Default)]
pub(crate) struct ModelInterner {
    pub(crate) by_instance: HashMap<u64, (WeakModel, u32), FxBuildHasher>,
    /// How many `by_instance` entries the last sweep kept.
    swept_len: usize,
    pub(crate) by_content: HashMap<Box<[LayerKind]>, u32, FxBuildHasher>,
    pub(crate) batches: Vec<Arc<LayerBatch>>,
}

impl ModelInterner {
    /// Interns a layer-kind sequence, returning its structural id: an
    /// existing content entry keeps its id, a new sequence gets the
    /// next dense id and a preprocessed batch. The snapshot loader
    /// calls it directly, with no model instance; [`Engine::structural`]
    /// calls it on a model's first visit.
    pub(crate) fn intern_content(&mut self, kinds: Box<[LayerKind]>) -> u32 {
        match self.by_content.get(&kinds) {
            Some(&sid) => sid,
            None => {
                let sid = self.batches.len() as u32;
                let batch = Arc::new(LayerBatch::from_kinds(kinds.iter()));
                self.batches.push(batch);
                self.by_content.insert(kinds, sid);
                sid
            }
        }
    }

    /// Maps `model`'s instance onto structural id `sid`. Whenever the
    /// instance map has doubled since the last sweep, it first drops
    /// the entries of models no handle holds any more, so a long-lived
    /// engine fed fresh model instances keeps at most about twice the
    /// instances alive at its last sweep.
    fn note_instance(&mut self, model: &Model, sid: u32) {
        if self.by_instance.len() >= 2 * self.swept_len.max(1) {
            self.by_instance.retain(|_, (weak, _)| weak.is_live());
            self.swept_len = self.by_instance.len();
        }
        self.by_instance
            .insert(model.instance_id(), (model.downgrade(), sid));
    }
}

/// A universal graph paired with its interned CSR form, as built and
/// memoized by [`Engine::universal_csr`].
#[derive(Debug, Clone)]
pub struct UniversalCsr {
    /// The merged universal graph `UG` of the model set.
    pub graph: claire_graph::WeightedGraph<OpClass>,
    /// The CSR interning of [`UniversalCsr::graph`].
    pub csr: CsrGraph<OpClass>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(resolve_threads(None))
    }
}

impl Engine {
    /// An engine with an explicit worker count (clamped to
    /// `1..=`[`MAX_THREADS`]) and the memo cache enabled.
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        let telemetry = Telemetry::new();
        // Set before any map runs, so per-worker utilization lists
        // every configured worker.
        telemetry.set_gauge(Gauge::Threads, threads as u64);
        Engine {
            threads,
            cache_enabled: true,
            pruning_enabled: true,
            faults: None,
            louvains: RwLock::new(HashMap::default()),
            graphs: RwLock::new(HashMap::default()),
            models: RwLock::new(ModelInterner::default()),
            persisted: RwLock::new(None),
            telemetry: Arc::new(telemetry),
            pool: Pool::new(threads - 1),
        }
    }

    /// An engine sized by the [`DseSpace::threads`] knob /
    /// `CLAIRE_THREADS` / available parallelism.
    pub fn for_space(space: &DseSpace) -> Self {
        Engine::new(resolve_threads(space.threads))
    }

    /// A single-threaded engine (still memoized) — the serial
    /// reference the determinism tests compare against.
    pub fn serial() -> Self {
        Engine::new(1)
    }

    /// Disables or enables the memo cache (builder style).
    pub fn with_cache(mut self, enabled: bool) -> Self {
        self.cache_enabled = enabled;
        self
    }

    /// Disables or enables the staged DSE sweep's area screen (builder
    /// style; on by default). With pruning off, [`crate::dse`] sweeps
    /// exhaustively — the reference the equivalence tests and the
    /// profile bench compare the staged path against.
    pub fn with_pruning(mut self, enabled: bool) -> Self {
        self.pruning_enabled = enabled;
        self
    }

    /// Enables or disables trace-span recording (builder style; off
    /// by default). Counters and stage aggregates are always on;
    /// tracing adds the per-span event log behind `--trace-out`.
    pub fn with_tracing(self, enabled: bool) -> Self {
        self.telemetry.set_tracing(enabled);
        self
    }

    /// Attaches a fault-injection plan (builder style). The locks the
    /// plan selects for [`crate::fault::FaultClass::PoisonShard`] —
    /// of the Louvain tier, the graph tier and the structural
    /// interner, the locks a run with a fault plan reads — are
    /// poisoned immediately: a controlled panic inside each lock's
    /// write guard sets its poison flag, exercising the
    /// poison-recovering accessors on every later lookup.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        let plan = Arc::new(plan);
        // Bind before the first decision (lock poisoning below) so
        // every injection lands in the fault counters and the trace.
        plan.attach_telemetry(Arc::clone(&self.telemetry));
        for i in plan.poisoned_locks(3) {
            match i {
                0 => poison(&self.louvains),
                1 => poison(&self.graphs),
                _ => poison(&self.models),
            }
        }
        self.faults = Some(plan);
        self
    }

    /// The attached fault plan, if any.
    pub fn faults(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// The worker count this engine maps with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether the staged DSE sweep may screen points on cheap area.
    pub fn pruning_enabled(&self) -> bool {
        self.pruning_enabled
    }

    /// Whether the memo tiers are enabled (snapshots are only
    /// meaningful — and only taken/loaded — when they are).
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// The engine's telemetry hub: counters, spans, histograms and
    /// the trace/metrics exporters.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The metrics snapshot (counters, gauges, histograms, stage
    /// aggregates, per-worker utilization) as JSON, after copying the
    /// current cache sizes and thread count into the gauges. Every
    /// metrics export reads it, so no export shows stale gauges.
    pub fn metrics_value(&self) -> serde::Value {
        let t = &self.telemetry;
        t.set_gauge(Gauge::Threads, self.threads as u64);
        t.set_gauge(
            Gauge::LouvainEntries,
            read_lock(&self.louvains).len() as u64,
        );
        t.set_gauge(Gauge::GraphEntries, read_lock(&self.graphs).len() as u64);
        let interner = read_lock(&self.models);
        t.set_gauge(Gauge::StructEntries, interner.by_content.len() as u64);
        t.set_gauge(Gauge::StructInstances, interner.by_instance.len() as u64);
        drop(interner);
        t.metrics_value()
    }

    /// Entry counts of the tiers a snapshot persists, in a fixed
    /// order.
    pub(crate) fn persisted_counts(&self) -> [usize; 3] {
        [
            read_lock(&self.louvains).len(),
            read_lock(&self.graphs).len(),
            read_lock(&self.models).by_content.len(),
        ]
    }

    /// A cheap signature of the persisted memo tiers' entry counts,
    /// for dirty-delta checks (skipping a warm-state save when nothing
    /// new was memoized). Tiers are insert-only, so equal signatures
    /// across two observations mean no tier grew between them; the
    /// per-tier counts are mixed positionally so growth in one tier
    /// cannot cancel growth in another.
    pub fn tier_signature(&self) -> u64 {
        let mut sig = 0xcbf2_9ce4_8422_2325_u64;
        for c in self.persisted_counts() {
            sig = (sig ^ c as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        sig
    }

    /// Writes the Chrome Trace Event JSON export to `path` (loadable
    /// in Perfetto or `chrome://tracing`).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(&self.telemetry.chrome_trace())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        std::fs::write(path, format!("{json}\n"))
    }

    /// Writes the metrics snapshot (counters, gauges, histograms,
    /// stage aggregates, per-worker utilization) as JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_metrics(&self, path: &std::path::Path) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(&self.metrics_value())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        std::fs::write(path, format!("{json}\n"))
    }

    /// Snapshots counters, cache sizes and stage timings — a
    /// read-only view over the telemetry layer plus the memo maps.
    pub fn stats(&self) -> EngineStats {
        let (struct_entries, struct_instances) = {
            let interner = read_lock(&self.models);
            (interner.by_content.len(), interner.by_instance.len())
        };
        let t = &self.telemetry;
        EngineStats {
            threads: self.threads,
            cache_enabled: self.cache_enabled,
            cache_entries: 0,
            route_topologies: 0,
            sum_entries: 0,
            louvain_hits: t.counter(Metric::LouvainHit),
            louvain_misses: t.counter(Metric::LouvainMiss),
            louvain_entries: read_lock(&self.louvains).len(),
            graph_hits: t.counter(Metric::GraphHit),
            graph_misses: t.counter(Metric::GraphMiss),
            graph_entries: read_lock(&self.graphs).len(),
            area_entries: 0,
            struct_entries,
            struct_instances,
            dse_pruned: t.counter(Metric::DsePruned),
            dse_evaluated: t.counter(Metric::DseEvaluated),
            comm_entries: 0,
            louvain_warm_entries: 0,
            merged_graph_builds: t.counter(Metric::MergedGraphBuilds),
            plan_items: t.counter(Metric::PlanItems),
            lb_entries: 0,
            dse_lb_pruned: t.counter(Metric::DseLbPruned),
            stages: t.stage_aggregates(),
        }
    }

    /// [`claire_ppa::layer_cost`], through the fault plan's
    /// [`FaultPlan::corrupt_cost`] when the plan arms PPA faults. The
    /// injection site is the FxHash of `(kind, hw)`, so the same
    /// (layer, hardware) pair is corrupted identically however and
    /// wherever it is priced. Not memoized: the kernel costs less than
    /// a lookup.
    pub fn layer_cost(&self, kind: &LayerKind, hw: &HwParams) -> LayerCost {
        let cost = layer_cost(kind, hw);
        match &self.faults {
            Some(plan) if plan.has_ppa_faults() => {
                let mut hasher = FxHasher::default();
                (*kind, *hw).hash(&mut hasher);
                plan.corrupt_cost(hasher.finish(), cost)
            }
            _ => cost,
        }
    }

    /// Memoized [`crate::evaluate::evaluate`]: full-model PPA through
    /// this engine's memo tiers.
    ///
    /// # Errors
    ///
    /// Same as [`crate::evaluate::evaluate`].
    pub fn evaluate(
        &self,
        model: &claire_model::Model,
        config: &crate::config::DesignConfig,
    ) -> Result<crate::evaluate::PpaReport, crate::error::ClaireError> {
        self.evaluate_with(model, config, crate::evaluate::EvalOptions::default())
    }

    /// Memoized [`crate::evaluate::evaluate_with`].
    ///
    /// # Errors
    ///
    /// Same as [`crate::evaluate::evaluate`].
    pub fn evaluate_with(
        &self,
        model: &claire_model::Model,
        config: &crate::config::DesignConfig,
        opts: crate::evaluate::EvalOptions,
    ) -> Result<crate::evaluate::PpaReport, crate::error::ClaireError> {
        if let Some(plan) = &self.faults {
            if plan.drops_coverage(model.name(), &config.name) {
                return Err(crate::error::ClaireError::IncompleteCoverage {
                    algorithm: model.name().to_owned(),
                    config: config.name.clone(),
                    missing: "UNAVAILABLE (injected coverage drop)".to_owned(),
                });
            }
        }
        crate::evaluate::evaluate_with_costs(model, config, opts, self)
    }

    /// Memoized [`claire_graph::louvain_csr`] over a universal graph —
    /// the Louvain tier. Keyed by the **complete canonical
    /// encoding** of the CSR graph (interned class sequence, adjacency
    /// arrays, bit-exact edge and self-loop weights) plus the
    /// resolution, so a hit provably returns the partition a fresh
    /// clustering would produce: the key is the entire input of the
    /// algorithm, not a lossy hash. Node weights are excluded — Louvain
    /// never reads them, so graphs differing only there share an entry.
    ///
    /// The chiplet-count escalation loop sweeps resolutions over the
    /// same graph, and subsets repeat whole universal graphs across
    /// training and test phases; both patterns hit this tier.
    pub fn louvain_partition(
        &self,
        csr: &CsrGraph<OpClass>,
        resolution: f64,
    ) -> Arc<Partition<OpClass>> {
        if !self.cache_enabled {
            return Arc::new(self.cluster_csr(csr, resolution));
        }
        let key = louvain_key(csr, resolution);
        if let Some(p) = read_lock(&self.louvains).get(&key) {
            self.telemetry.count(Metric::LouvainHit);
            return Arc::clone(p);
        }
        self.telemetry.count(Metric::LouvainMiss);
        let partition = Arc::new(self.cluster_csr(csr, resolution));
        Arc::clone(write_lock(&self.louvains).entry(key).or_insert(partition))
    }

    /// Runs the Louvain clustering kernel under a trace span, counting
    /// the local-move + aggregation rounds it took.
    fn cluster_csr(&self, csr: &CsrGraph<OpClass>, resolution: f64) -> Partition<OpClass> {
        let mut span = self.telemetry.span("louvain.cluster", "memo");
        span.arg("nodes", ArgValue::Int(csr.node_count() as u64));
        let (partition, passes) = louvain_csr_counted(csr, resolution);
        self.telemetry
            .count_by(Metric::LouvainPasses, passes as u64);
        span.arg("passes", ArgValue::Int(passes as u64));
        partition
    }

    /// Memoized universal-graph construction (Step #TR1) with CSR
    /// interning — the universal-graph tier. Keyed by the member
    /// models' **structural ids** (see the structural interner), in
    /// member order, plus the hardware point. The key is sound: the
    /// graph's nodes aggregate per-class execution counts from the
    /// layer costs (pure functions of `(LayerKind, HwParams)`) and its
    /// edges come from `Model::edges`, a pure function of the
    /// layer-kind sequence the id interns — so models sharing an id
    /// produce bit-identical graphs. Structural keys (unlike the
    /// process-unique instance ids used previously) are also stable
    /// across processes, which lets a warm-state snapshot replay this
    /// tier. On a miss a single-model
    /// graph is read from the model's summaries without a layer walk:
    /// node weights from [`LayerBatch::class_executions`], edge weights
    /// from [`Model::edge_byte_totals`].
    ///
    /// The flow re-derives the same universal graphs over and over
    /// (custom-configuration clustering across the train and test
    /// phases, escalation retries, repeated table runs on a shared
    /// engine); a hit skips the member graphs' derivation, the merge
    /// and the CSR interning.
    pub fn universal_csr(
        &self,
        models: &[claire_model::Model],
        hw: &HwParams,
    ) -> Arc<UniversalCsr> {
        if !self.cache_enabled {
            return Arc::new(self.build_universal_csr(models, hw));
        }
        let ids: Box<[u64]> = models
            .iter()
            .map(|m| u64::from(self.structural(m).0))
            .collect();
        let key = (ids, *hw);
        if let Some(g) = read_lock(&self.graphs).get(&key) {
            self.telemetry.count(Metric::GraphHit);
            return Arc::clone(g);
        }
        self.telemetry.count(Metric::GraphMiss);
        let built = if models.len() > 1 {
            Arc::new(self.merge_member_graphs(models, hw))
        } else {
            Arc::new(self.build_universal_csr(models, hw))
        };
        Arc::clone(write_lock(&self.graphs).entry(key).or_insert(built))
    }

    /// Multi-member miss path for [`Engine::universal_csr`]: fetch (or
    /// build and intern) each member's **single-model** graph through
    /// the same tier, then merge in member order. Because a merge
    /// re-adds every node and edge weight onto a fresh graph
    /// (`0.0 + w`, exact for the non-negative byte/count weights), the
    /// merged graph is bit-identical to the direct
    /// [`crate::graphs::universal_graph_with_costs`] build — but the
    /// member graphs now hit across *different* model subsets (customs
    /// → generic → library subsets share members), fixing the tier's
    /// zero cold-run hit rate under composite keys.
    fn merge_member_graphs(&self, models: &[claire_model::Model], hw: &HwParams) -> UniversalCsr {
        let mut span = self.telemetry.span("graph.merge", "memo");
        span.arg("models", ArgValue::Int(models.len() as u64));
        self.telemetry.count(Metric::MergedGraphBuilds);
        let mut graph = claire_graph::WeightedGraph::new();
        for m in models {
            let member = self.universal_csr(std::slice::from_ref(m), hw);
            graph.merge(&member.graph);
        }
        let csr = CsrGraph::from_weighted(&graph);
        UniversalCsr { graph, csr }
    }

    /// Builds a universal graph + CSR interning under a trace span.
    /// A cache-on engine builds a single model's graph from its
    /// summaries ([`Engine::model_graph`]); cache-off engines and model
    /// sets walk the layers
    /// ([`crate::graphs::universal_graph_with_costs`]).
    fn build_universal_csr(&self, models: &[claire_model::Model], hw: &HwParams) -> UniversalCsr {
        let mut span = self.telemetry.span("graph.build", "memo");
        span.arg("models", ArgValue::Int(models.len() as u64));
        let graph = match models {
            [model] if self.cache_enabled => self.model_graph(model, hw),
            _ => crate::graphs::universal_graph_with_costs(models, hw, self),
        };
        let csr = CsrGraph::from_weighted(&graph);
        UniversalCsr { graph, csr }
    }

    /// One model's graph `G_ini` under `hw` without walking its layers:
    /// node weights from the per-class executions kernel over the
    /// interned batch ([`LayerBatch::class_executions`]), edge weights
    /// from the class-pair byte totals
    /// ([`claire_model::Model::edge_byte_totals`]).
    ///
    /// This equals [`crate::graphs::build_graph_with_costs`] bit for
    /// bit. That build adds each layer's executions and each edge's
    /// bytes as `f64`, in order, from `0.0`. Every term is a
    /// non-negative integer, so while a weight's integer total is at
    /// most 2⁵³ every partial sum is an integer at most 2⁵³, which
    /// `f64` holds exactly: the walk's sum is the total. When a total
    /// is above 2⁵³ or overflows `u64` ([`Engine::exact_totals`]), the
    /// walk itself runs. Fault plans need no special case: a PPA fault
    /// corrupts a layer's energy, never its executions.
    fn model_graph(&self, model: &Model, hw: &HwParams) -> claire_graph::WeightedGraph<OpClass> {
        let Some((executions, edges)) = self.exact_totals(model, hw) else {
            return crate::graphs::build_graph_with_costs(model, hw, self);
        };
        let mut graph = claire_graph::WeightedGraph::new();
        for class in OpClass::from_mask(model.class_mask()) {
            graph.add_node(class, executions[class.index()] as f64);
        }
        for &(from, to, bytes) in edges {
            graph.add_edge(from, to, bytes as f64);
        }
        graph
    }

    /// The summary totals [`Engine::model_graph`] builds from: the
    /// per-class executions under `hw` and the class-pair byte totals,
    /// or `None` when one is above 2⁵³ or overflows `u64`.
    fn exact_totals<'m>(&self, model: &'m Model, hw: &HwParams) -> Option<ExactTotals<'m>> {
        const EXACT: u64 = 1 << 53;
        let (_, batch) = self.structural(model);
        let executions = batch
            .class_executions(hw)
            .filter(|e| e.iter().all(|&n| n <= EXACT))?;
        let edges = model
            .edge_byte_totals()
            .filter(|t| t.iter().all(|&(_, _, bytes)| bytes <= EXACT))?;
        Some((executions, edges))
    }

    /// The structural id and preprocessed [`LayerBatch`] for `model`
    /// (see [`ModelInterner`]).
    fn structural(&self, model: &claire_model::Model) -> (u32, Arc<LayerBatch>) {
        {
            let interner = read_lock(&self.models);
            if let Some(&(_, sid)) = interner.by_instance.get(&model.instance_id()) {
                return (sid, Arc::clone(&interner.batches[sid as usize]));
            }
        }
        let kinds: Box<[LayerKind]> = model.layers().iter().map(|l| l.kind).collect();
        let mut interner = write_lock(&self.models);
        let sid = interner.intern_content(kinds);
        interner.note_instance(model, sid);
        (sid, Arc::clone(&interner.batches[sid as usize]))
    }

    /// Records `n` DSE points skipped by the staged sweep's area
    /// screen.
    pub(crate) fn note_dse_pruned(&self, n: u64) {
        self.telemetry.count_by(Metric::DsePruned, n);
    }

    /// Records `n` DSE points that reached full PPA evaluation.
    pub(crate) fn note_dse_evaluated(&self, n: u64) {
        self.telemetry.count_by(Metric::DseEvaluated, n);
    }

    /// Records `n` items enumerated into a flat execution plan.
    pub(crate) fn note_plan_items(&self, n: u64) {
        self.telemetry.count_by(Metric::PlanItems, n);
    }

    /// Records `n` DSE points skipped by the latency lower-bound
    /// screen.
    pub(crate) fn note_dse_lb_pruned(&self, n: u64) {
        self.telemetry.count_by(Metric::DseLbPruned, n);
    }

    /// Whole-model **compute-cycle lower bound**: the total compute
    /// cycles of `model` under `hw` from the cycles-only
    /// [`LayerBatch::compute_cycles`] kernel over the model's
    /// interned batch. The cycle count is bit-equal to
    /// [`CostProvider::compute_sum`]'s `cycles` but
    /// skips all of its floating-point energy work — the cheap
    /// low-fidelity pass the search's screens and rungs rank with. It
    /// is computed afresh on every call: one pass over the model's
    /// deduplicated layer families costs less than memoizing it.
    pub fn compute_cycles_lb(&self, model: &claire_model::Model, hw: &HwParams) -> u64 {
        if !self.cache_enabled {
            // `u64` addition is associative, so the per-layer walk
            // sums to the exact batched value.
            return model
                .layers()
                .iter()
                .map(|l| claire_ppa::layer_cycles(&l.kind, hw))
                .sum();
        }
        self.structural(model).1.compute_cycles(hw)
    }

    /// [`Engine::compute_cycles_lb`] in seconds: `cycles / CLOCK_HZ` —
    /// the identical division [`crate::evaluate`] performs for the
    /// compute term of `latency_s`, whose remaining terms (per-edge
    /// transfer latencies) are all nonnegative. Hence
    /// `latency_lower_bound(m, hw) ≤ report.latency_s` holds
    /// *exactly*, not merely within rounding: it is latency at
    /// infinite interconnect bandwidth.
    pub fn latency_lower_bound(&self, model: &claire_model::Model, hw: &HwParams) -> f64 {
        self.compute_cycles_lb(model, hw) as f64 / claire_ppa::tech28::CLOCK_HZ
    }

    /// Whether the DSE latency lower-bound screen may run: pruning on
    /// and **no fault plan attached** — injected PPA corruptions move
    /// exact costs out from under the uncorrupted bound, which would
    /// break the screen's soundness argument.
    pub fn lb_screen_enabled(&self) -> bool {
        self.pruning_enabled && self.faults.is_none()
    }

    /// A [`ShellPricer`] for `model` over the hardware points of the
    /// monolithic DSE `shell` (the shell's own `hw` is ignored), which
    /// come from a space whose axes are `axes`
    /// ([`claire_ppa::DesignSpace::axes`]). The pricer resolves
    /// nothing until its first call, so building one for a model no
    /// point reaches leaves every memo tier untouched.
    pub fn shell_pricer<'a>(
        &'a self,
        model: &'a Model,
        shell: &'a DesignConfig,
        axes: &'a SpaceAxes,
    ) -> ShellPricer<'a> {
        ShellPricer {
            engine: self,
            model,
            shell,
            axes,
            prepared: self.cache_enabled && self.faults.is_none() && shell.chiplets.is_empty(),
            cycles: OnceLock::new(),
            area: OnceLock::new(),
            comm: OnceLock::new(),
        }
    }

    /// Runs one batch-kernel pass `kernel` over `batch`: one
    /// `ppa.batch_sums` count and one `sum.batch` span per call.
    fn batch_kernel<R>(&self, batch: &LayerBatch, kernel: impl FnOnce() -> R) -> R {
        let mut span = self.telemetry.span("sum.batch", "memo");
        span.arg("layers", ArgValue::Int(batch.layer_count() as u64));
        span.arg("families", ArgValue::Int(batch.family_count() as u64));
        self.telemetry.count(Metric::BatchSums);
        kernel()
    }

    /// Whole-model compute totals over an interned batch, on a
    /// per-thread scratch buffer.
    fn batch_sum(&self, batch: &LayerBatch, hw: &HwParams) -> ComputeSum {
        let sum = self.batch_kernel(batch, || {
            SUM_SCRATCH.with(|s| batch.compute_sum_with(hw, &mut s.borrow_mut()))
        });
        ComputeSum {
            cycles: sum.cycles,
            energy_pj: sum.energy_pj,
        }
    }

    /// Runs `f` under a telemetry stage span (accumulated into the
    /// named stage aggregate, and emitted into the trace when tracing
    /// is enabled) and returns its result.
    pub fn time_stage<R>(&self, stage: &str, f: impl FnOnce() -> R) -> R {
        let _span = self.telemetry.stage_span(stage);
        f()
    }

    /// Deterministic parallel map: applies `f` to every item and
    /// returns results in item order, regardless of thread count or
    /// scheduling. The calling thread works as worker 0 beside up to
    /// `threads - 1` helpers of the engine's parked pool; workers claim
    /// contiguous chunks of indices from an atomic cursor (so long and
    /// short items balance), and the chunks are reassembled into input
    /// order afterwards. When the caller's share ends, the map retracts
    /// its job from the pool and waits only for helpers that took a
    /// share, so it never waits on a helper still waking up. The map
    /// runs serially on the caller when nested inside another map's
    /// item and when another thread's map holds the pool.
    ///
    /// A panic in `f` is contained per item and re-raised for the
    /// **lowest-indexed** panicking item after every worker finishes —
    /// deterministic regardless of which worker hit it first.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let mut out = Vec::with_capacity(items.len());
        for caught in self.par_map_catch(items, &f) {
            match caught {
                Ok(r) => out.push(r),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    }

    /// [`Engine::par_map`] over fallible work: returns all results in
    /// item order, or the error of the **lowest-indexed** failing item
    /// — the same error a serial left-to-right run would surface. A
    /// panic in `f` counts as that item failing with
    /// [`WorkerPanic`] (converted through the error type's `From`
    /// impl), so a panicking worker can never tear down the sweep.
    pub fn try_par_map<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send + From<WorkerPanic>,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        let plan = self.faults.clone();
        let wrapped = |i: usize, t: &T| {
            if let Some(plan) = &plan {
                if plan.panics_worker(i) {
                    panic!("injected fault: worker panic on item {i}");
                }
            }
            f(i, t)
        };
        let mut out = Vec::with_capacity(items.len());
        for (i, caught) in self.par_map_catch(items, &wrapped).into_iter().enumerate() {
            match caught {
                Ok(Ok(r)) => out.push(r),
                Ok(Err(e)) => return Err(e),
                Err(payload) => return Err(E::from(WorkerPanic::new(i, payload.as_ref()))),
            }
        }
        Ok(out)
    }

    /// The shared map core: applies `f` to every item, catching each
    /// item's unwind individually, and returns per-item outcomes in
    /// item order. All items run to completion even when some panic.
    fn par_map_catch<T, R, F>(
        &self,
        items: &[T],
        f: &F,
    ) -> Vec<Result<R, Box<dyn std::any::Any + Send>>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        self.telemetry.count_by(Metric::ParItems, n as u64);
        let run_one = |i: usize| {
            let r = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
            if r.is_err() {
                self.note_item_panic(i);
            }
            r
        };
        // Nested `par_map` calls (a per-model sweep inside a per-model
        // stage) run serially on the worker that reached them: the outer
        // map's workers already fill the thread budget.
        let nested = IN_WORKER.with(|w| w.get());
        if workers <= 1 || nested {
            // A *top-level* serial map still publishes a worker-0
            // sample (busy = wall: the only worker never waits), so
            // per-worker utilization and the stage imbalance ratio
            // stay defined on single-threaded runs. Nested maps don't:
            // their time already lands in the enclosing worker's
            // sample, and a second record would double-count it.
            let wall_start = (!nested && n > 0).then(Instant::now);
            let out: Vec<_> = (0..n).map(run_one).collect();
            if let Some(wall_start) = wall_start {
                let wall = wall_start.elapsed();
                self.telemetry.record_worker(WorkerSample {
                    stage: self.telemetry.current_stage(),
                    worker: 0,
                    busy: wall,
                    wall,
                    items: n as u64,
                });
            }
            return out;
        }

        let tel = &self.telemetry;
        let stage = tel.current_stage();
        // Read once per map: with tracing off no hook runs per item.
        let tracing = tel.tracing_enabled();
        let cursor = AtomicUsize::new(0);
        // About eight claims per worker: enough for long and short
        // items to balance, few enough that the shared cursor and the
        // busy clock are touched once per chunk rather than per item.
        let chunk = (n / (workers * 8)).max(1);
        // One worker's share: claims contiguous chunks until the
        // cursor passes `n`, and returns each chunk's outcomes keyed
        // by its first index.
        let work = |w: usize| {
            let _mark = WorkerMark::enter(w);
            let wall_start = Instant::now();
            let mut busy = Duration::ZERO;
            let mut items_done = 0u64;
            let mut chunks = Vec::new();
            loop {
                let first = cursor.fetch_add(chunk, Ordering::Relaxed);
                if first >= n {
                    break;
                }
                let end = (first + chunk).min(n);
                let t0 = Instant::now();
                let outcomes: Vec<_> = (first..end)
                    .map(|i| {
                        let _span = tracing.then(|| tel.item_span(i, stage.as_deref()));
                        run_one(i)
                    })
                    .collect();
                busy += t0.elapsed();
                items_done += (end - first) as u64;
                chunks.push((first, outcomes));
            }
            tel.record_worker(WorkerSample {
                stage: stage.clone(),
                worker: w,
                busy,
                wall: wall_start.elapsed(),
                items: items_done,
            });
            // The caller's events move too, so a trace exported from
            // another thread still sees worker 0's spans.
            tel.flush_thread_events();
            chunks
        };
        // The caller works as worker 0 beside up to `workers - 1`
        // parked helpers: no start barrier, so a short map may finish
        // on the caller before a helper takes its share, and a share
        // no helper took never runs — the cursor is already past `n`.
        let chunks = Mutex::new(Vec::new());
        self.pool.run(workers, &|w| {
            let mine = work(w);
            chunks
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend(mine);
        });
        let mut chunks = chunks.into_inner().unwrap_or_else(PoisonError::into_inner);

        chunks.sort_unstable_by_key(|&(first, _)| first);
        let mut out = Vec::with_capacity(n);
        for (first, outcomes) in chunks {
            assert_eq!(first, out.len(), "every index claimed exactly once");
            out.extend(outcomes);
        }
        assert_eq!(out.len(), n, "every index claimed exactly once");
        out
    }

    /// Counts a contained item panic and marks it on the trace. Out of
    /// line, so the per-item closure stays small enough to inline into
    /// the serial loop.
    #[cold]
    fn note_item_panic(&self, i: usize) {
        self.telemetry.count(Metric::ParPanics);
        self.telemetry.instant(
            "par.panic",
            "item",
            vec![("index", ArgValue::Int(i as u64))],
        );
    }
}

/// Marks the current thread as worker `w` of a parallel map — nested
/// maps run serially, trace events land on track `w + 1` — and
/// restores the thread's previous marks when dropped, so the caller,
/// which works as worker 0, is itself again once its map returns.
struct WorkerMark {
    in_worker: bool,
    tid: u32,
}

impl WorkerMark {
    fn enter(w: usize) -> Self {
        let mark = WorkerMark {
            in_worker: IN_WORKER.with(|x| x.replace(true)),
            tid: telemetry::current_tid(),
        };
        telemetry::set_current_tid(w as u32 + 1);
        mark
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.with(|x| x.set(self.in_worker));
        telemetry::set_current_tid(self.tid);
    }
}

impl CostProvider for Engine {
    fn layer_cost(&self, kind: &LayerKind, hw: &HwParams) -> LayerCost {
        Engine::layer_cost(self, kind, hw)
    }

    /// A fresh [`RouteTable`] per call: a route is a pure function of
    /// the topology and the fault plan, and each table fills only the
    /// class pairs one walk asks for. With link faults armed the
    /// table carries the plan, so its routes detour around the failed
    /// links.
    fn routes(&self, _config: &DesignConfig) -> RouteTable {
        match &self.faults {
            Some(plan) if plan.has_link_faults() => RouteTable::with_link_faults(Arc::clone(plan)),
            _ => RouteTable::new(),
        }
    }

    /// Whole-model compute totals. An engine with the cache on and no
    /// PPA faults prices the model's interned [`LayerBatch`], whose
    /// accumulation replays the per-layer walk's execution order
    /// bit-for-bit. Cache-off engines and engines with PPA corruption
    /// armed walk the layers through [`Engine::layer_cost`]: each
    /// layer's injection site must be consulted, and without PPA
    /// faults `layer_cost` is the raw kernel.
    fn compute_sum(&self, model: &claire_model::Model, hw: &HwParams) -> ComputeSum {
        let ppa_faults = self.faults.as_ref().is_some_and(|p| p.has_ppa_faults());
        if !self.cache_enabled || ppa_faults {
            let mut cycles: u64 = 0;
            let mut energy_pj = 0.0;
            for layer in model.layers() {
                let c = self.layer_cost(&layer.kind, hw);
                cycles += c.cycles;
                energy_pj += c.energy_pj;
            }
            return ComputeSum { cycles, energy_pj };
        }
        let (_, batch) = self.structural(model);
        self.batch_sum(&batch, hw)
    }

    /// The model's edge-cost sequence on `config`, built on every call
    /// by [`crate::evaluate::edge_cost_sequence`]: each edge family is
    /// priced once and expanded into edge order, so replay is
    /// bit-identical to the per-edge walk. Not memoized: a build takes
    /// a few microseconds, and a stored sequence saved less end to end
    /// than it cost to keep and persist. Returns `None` — routing the
    /// evaluator to the per-edge walk, the oracle — when caching is off
    /// or faults are armed (injection sites must see every pricing
    /// call), or when the build fails (the walk then surfaces the
    /// identical typed error).
    fn edge_costs(
        &self,
        model: &claire_model::Model,
        config: &DesignConfig,
    ) -> Option<Vec<TransferCost>> {
        if !self.cache_enabled || self.faults.is_some() {
            return None;
        }
        // No fault plan here, so a fresh table routes every pair.
        crate::evaluate::edge_cost_sequence(model, config, &RouteTable::new()).ok()
    }
}

/// One model priced over the hardware points of one monolithic DSE
/// shell, built by [`Engine::shell_pricer`] for the axes of the space
/// those points come from. Every point of a DSE sweep shares the
/// shell's name, class set and topology, and the model's cost splits
/// along the space's axes, so the pricer holds per-axis tables instead
/// of re-deriving per point what [`Engine::evaluate`] derives:
///
/// * **cycles**: one entry per systolic `(sa_size, n_sa)` pair, per
///   `n_act` value and per `n_pool` value, each filled on first use by
///   one run of that family's batch kernel
///   ([`LayerBatch::systolic_cycles`] and its siblings), plus the
///   axis-free reshape part. A point's cycles are those four parts
///   added with `wrapping_add`: the batch kernel's per-layer sum. A row
///   of the grid (the `n_pool` axis at fixed `(sa_size, n_sa, n_act)`)
///   shares all but the pooling part (`row_cycles`); wrapping `u64`
///   addition is associative and commutative, so the row's part plus
///   the point's pooling entry is the same count;
/// * **energy**: no layer's energy reads the point, so the model's
///   compute energy is folded once ([`LayerBatch::energy_pj`]), on the
///   first [`ShellPricer::price`] call, with the coverage check, the
///   model's edge-cost sequence, each transfer's latency and the
///   sequence's NoC and NoP energy folds;
/// * **area**: one unit-area table per class of the shell, along the
///   axis that class reads, folded in class order per point
///   ([`crate::config::monolithic_area_mm2`], bit for bit).
///
/// A point then costs three cycle-table reads (one once its row's part
/// is known), the in-order latency fold over the transfer latencies,
/// the area fold and the evaluator's own report tail
/// ([`crate::evaluate`]'s `EvalTerms`), so `price` is bit-identical to
/// [`Engine::evaluate`] on the shell at that point; the search's stage
/// B runs the same fold for several points at once (`LaneFold`).
/// Points are addressed by their flat space index, decoded by
/// [`SpaceAxes::decode`]; callers pass the point too, which the tables
/// fill from and the fallback prices. Every table and table entry
/// resolves through a [`OnceLock`], so concurrent first calls resolve
/// once and a pricer no point reaches adds nothing to any memo tier.
///
/// Cache-off engines (the equivalence oracle), engines with a fault
/// plan (whose injection sites must see every pricing call), clustered
/// shells, and shells that miss a class of the model or whose
/// edge-cost sequence cannot be built price each point through
/// [`Engine::evaluate`] and [`Engine::compute_cycles_lb`] instead.
/// Area has no injection site and reads no memo tier, so
/// [`ShellPricer::area_mm2`] reads the tables on every engine.
#[derive(Debug)]
pub struct ShellPricer<'a> {
    engine: &'a Engine,
    model: &'a Model,
    shell: &'a DesignConfig,
    axes: &'a SpaceAxes,
    /// Cache on, no fault plan, monolithic shell.
    prepared: bool,
    cycles: OnceLock<CycleTables>,
    area: OnceLock<AreaTables>,
    /// `None` when the shell falls back to per-point evaluation.
    comm: OnceLock<Option<PreparedComm>>,
}

/// A model's compute cycles over a space's axes, entry by entry.
#[derive(Debug)]
struct CycleTables {
    batch: Arc<LayerBatch>,
    /// Per `(sa_size, n_sa)` position, row-major over `n_sas`.
    systolic: Box<[OnceLock<u64>]>,
    /// Per `n_act` position.
    activation: Box<[OnceLock<u64>]>,
    /// Per `n_pool` position.
    pooling: Box<[OnceLock<u64>]>,
    /// Flatten and permute cycles, which read no axis.
    reshape: u64,
}

/// `len` unfilled table entries.
fn entries(len: usize) -> Box<[OnceLock<u64>]> {
    std::iter::repeat_with(OnceLock::new).take(len).collect()
}

/// A shell's transfer latencies with the point-independent energy
/// sums.
#[derive(Debug)]
struct PreparedComm {
    /// Each transfer's [`TransferCost::latency_s`], in edge order.
    latencies: Box<[f64]>,
    noc_pj: f64,
    nop_pj: f64,
    compute_pj: f64,
}

impl<'a> ShellPricer<'a> {
    /// The priced model.
    pub(crate) fn model(&self) -> &'a Model {
        self.model
    }

    /// The axes of the space the priced points come from.
    pub(crate) fn axes(&self) -> &'a SpaceAxes {
        self.axes
    }

    /// The axis positions of the point at space index `index`.
    fn at(&self, index: u32, hw: &HwParams) -> [usize; 4] {
        let at = self.axes.decode(index as usize);
        debug_assert_eq!(self.axes.point(at), Some(*hw), "space index {index}");
        at
    }

    /// The cycle tables, with the model's batch interned, on first
    /// use.
    fn cycle_tables(&self) -> &CycleTables {
        self.cycles.get_or_init(|| {
            let (_, batch) = self.engine.structural(self.model);
            CycleTables {
                systolic: entries(self.axes.sa_sizes.len() * self.axes.n_sas.len()),
                activation: entries(self.axes.n_acts.len()),
                pooling: entries(self.axes.n_pools.len()),
                reshape: batch.reshape_cycles(),
                batch,
            }
        })
    }

    /// A cycle-table entry, filled from `hw` by one run of `kernel` on
    /// first use.
    fn entry(
        &self,
        entry: &OnceLock<u64>,
        kernel: fn(&LayerBatch, &HwParams) -> u64,
        hw: &HwParams,
    ) -> u64 {
        *entry.get_or_init(|| {
            let batch = &self.cycle_tables().batch;
            self.engine.batch_kernel(batch, || kernel(batch, hw))
        })
    }

    /// The compute cycles every point of the row of `at` shares (its
    /// `n_pool` position is not read): the systolic, activation and
    /// reshape parts added with `wrapping_add`, each entry filled from
    /// `hw`, a point of that row, on first use. `None` when the pricer
    /// is not prepared and computes each point's count whole.
    pub(crate) fn row_cycles(&self, at: [usize; 4], hw: &HwParams) -> Option<u64> {
        if !self.prepared {
            return None;
        }
        let t = self.cycle_tables();
        let [si, ni, ai, _] = at;
        let systolic = &t.systolic[si * self.axes.n_sas.len() + ni];
        Some(
            self.entry(systolic, LayerBatch::systolic_cycles, hw)
                .wrapping_add(self.entry(&t.activation[ai], LayerBatch::activation_cycles, hw))
                .wrapping_add(t.reshape),
        )
    }

    /// [`ShellPricer::lb_cycles`] at the point `hw`, at `n_pool`
    /// position `pi` of a row whose shared cycles are `row`
    /// ([`ShellPricer::row_cycles`]): one pooling-table read added to
    /// the row's part.
    pub(crate) fn cycles_in_row(&self, row: Option<u64>, pi: usize, hw: &HwParams) -> u64 {
        match row {
            Some(row) => row.wrapping_add(self.entry(
                &self.cycle_tables().pooling[pi],
                LayerBatch::pooling_cycles,
                hw,
            )),
            None => self.engine.compute_cycles_lb(self.model, hw),
        }
    }

    /// The shell's monolithic area at space index `index`: exactly
    /// [`crate::config::monolithic_area_mm2`] at `hw`, read from the
    /// per-class tables (built on first use) on any engine.
    pub fn area_mm2(&self, index: u32, hw: &HwParams) -> f64 {
        self.area_at(self.at(index, hw))
    }

    /// [`ShellPricer::area_mm2`] at axis positions `at`.
    pub(crate) fn area_at(&self, at: [usize; 4]) -> f64 {
        self.area_tables().area_mm2(at)
    }

    /// The per-class area tables, built on first use.
    pub(crate) fn area_tables(&self) -> &AreaTables {
        self.area
            .get_or_init(|| AreaTables::new(&self.shell.classes, self.axes))
    }

    /// The compute-cycle lower bound at the point `hw` at space index
    /// `index`: exactly [`Engine::compute_cycles_lb`] for the model.
    pub fn lb_cycles(&self, index: u32, hw: &HwParams) -> u64 {
        let at = self.at(index, hw);
        self.cycles_in_row(self.row_cycles(at, hw), at[3], hw)
    }

    /// The model's PPA on the shell at the point `hw` at space index
    /// `index`: bit-identical to [`Engine::evaluate`] on the shell with
    /// its `hw` set to `hw`.
    ///
    /// # Errors
    ///
    /// Exactly [`Engine::evaluate`]'s errors.
    pub fn price(&self, index: u32, hw: HwParams) -> Result<PpaReport, ClaireError> {
        let Some(comm) = self.prepared_comm() else {
            let mut config = self.shell.clone();
            config.hw = hw;
            return self.engine.evaluate(self.model, &config);
        };
        let at = self.at(index, &hw);
        let cycles = self.cycles_in_row(self.row_cycles(at, &hw), at[3], &hw);
        // The evaluator's latency fold: compute seconds first, then
        // each transfer in edge order.
        let mut latency_s = cycles as f64 / claire_ppa::tech28::CLOCK_HZ;
        for t in comm.latencies.iter() {
            latency_s += t;
        }
        self.report(comm, latency_s, self.area_at(at))
    }

    /// A [`LaneFold`] over this pricer, or `None` when it prices each
    /// point through [`Engine::evaluate`] (see [`ShellPricer::price`]).
    /// Resolves the comm terms on first use, as `price` does.
    pub(crate) fn lanes(&self) -> Option<LaneFold<'_, 'a>> {
        self.prepared_comm().map(|comm| LaneFold {
            pricer: self,
            comm,
            // Placeholders: a lane is read only after a push fills it.
            hw: [self.shell.hw; LANES],
            latency_s: [0.0; LANES],
            area_mm2: [0.0; LANES],
            len: 0,
        })
    }

    /// The prepared comm terms, resolved on first use; `None` when the
    /// pricer evaluates each point instead.
    fn prepared_comm(&self) -> Option<&PreparedComm> {
        if !self.prepared {
            return None;
        }
        self.comm.get_or_init(|| self.resolve_comm()).as_ref()
    }

    /// The evaluator's report tail for a point of this shell with
    /// latency `latency_s` and area `area_mm2`.
    fn report(
        &self,
        comm: &PreparedComm,
        latency_s: f64,
        area_mm2: f64,
    ) -> Result<PpaReport, ClaireError> {
        EvalTerms {
            latency_s,
            compute_pj: comm.compute_pj,
            noc_pj: comm.noc_pj,
            nop_pj: comm.nop_pj,
            area_mm2,
            leakage_j: 0.0,
        }
        .into_report(self.model, &self.shell.name)
    }

    /// The first-`price` resolution: `None` (per-point evaluation,
    /// which surfaces the typed error) when the shell misses a class
    /// of the model or the model's edge-cost sequence cannot be built.
    fn resolve_comm(&self) -> Option<PreparedComm> {
        if self.shell.first_missing(self.model).is_some() {
            return None;
        }
        let seq = self.engine.edge_costs(self.model, self.shell)?;
        let (mut noc_pj, mut nop_pj) = (0.0, 0.0);
        for t in seq.iter() {
            noc_pj += t.noc_pj();
            nop_pj += t.nop_pj();
        }
        let batch = &self.cycle_tables().batch;
        Some(PreparedComm {
            latencies: seq.iter().map(TransferCost::latency_s).collect(),
            noc_pj,
            nop_pj,
            compute_pj: self.engine.batch_kernel(batch, || batch.energy_pj()),
        })
    }
}

/// The points a [`LaneFold`] prices at once.
pub(crate) const LANES: usize = 8;

/// Up to [`LANES`] points of one [`ShellPricer`], priced together. Each
/// lane starts from its point's compute seconds; then every transfer
/// latency is added to every lane, in edge order. A lane thus goes
/// through exactly the additions [`ShellPricer::price`] makes for its
/// point, in the same order, and Rust never reassociates or contracts
/// `f64` operations, so each lane's report is bit-identical to
/// `price`'s. What changes is the dependency chain: `price` waits on
/// one add per transfer, while the lanes' adds for one transfer are
/// independent of each other.
#[derive(Debug)]
pub(crate) struct LaneFold<'p, 'a> {
    pricer: &'p ShellPricer<'a>,
    comm: &'p PreparedComm,
    hw: [HwParams; LANES],
    latency_s: [f64; LANES],
    area_mm2: [f64; LANES],
    /// Filled lanes.
    len: usize,
}

impl LaneFold<'_, '_> {
    /// Fills the next lane with the point `hw`, its compute `cycles`
    /// ([`ShellPricer::lb_cycles`]) and its area; returns `true` when
    /// every lane is filled, so the caller drains before the next push.
    pub(crate) fn push(&mut self, hw: HwParams, cycles: u64, area_mm2: f64) -> bool {
        let k = self.len;
        self.hw[k] = hw;
        self.latency_s[k] = cycles as f64 / claire_ppa::tech28::CLOCK_HZ;
        self.area_mm2[k] = area_mm2;
        self.len += 1;
        self.len == LANES
    }

    /// Adds the transfer latencies to the lanes and hands each filled
    /// lane's point and report to `emit`, in push order, leaving every
    /// lane empty.
    pub(crate) fn drain(&mut self, mut emit: impl FnMut(HwParams, Result<PpaReport, ClaireError>)) {
        if self.len == 0 {
            return;
        }
        // Every lane, filled or not: a fixed-width inner loop over a
        // local copy the compiler can keep in registers; an unfilled
        // lane's sum is never read.
        let mut latency_s = self.latency_s;
        for &t in self.comm.latencies.iter() {
            for lane in &mut latency_s {
                *lane += t;
            }
        }
        let lanes = self.hw.iter().zip(&latency_s).zip(&self.area_mm2);
        for ((&hw, &latency_s), &area_mm2) in lanes.take(self.len) {
            emit(hw, self.pricer.report(self.comm, latency_s, area_mm2));
        }
        self.len = 0;
    }
}

/// The canonical Louvain memo key: every array [`claire_graph::louvain_csr`]
/// reads, flattened to `u64` words (floats by `to_bits`, so two graphs
/// share a key only when every weight is bit-identical), plus the
/// resolution. Degrees and `2m` are derived from these arrays and need
/// no words of their own.
fn louvain_key(csr: &CsrGraph<OpClass>, resolution: f64) -> Box<[u64]> {
    let n = csr.node_count();
    let e = csr.targets().len();
    let mut key = Vec::with_capacity(2 + n * 3 + e * 2 + 2);
    key.push(n as u64);
    key.extend(csr.keys().iter().map(|c| c.index() as u64));
    key.extend(csr.offsets().iter().map(|&o| u64::from(o)));
    key.extend(csr.targets().iter().map(|&t| u64::from(t)));
    key.extend(csr.weights().iter().map(|w| w.to_bits()));
    key.extend(csr.self_loops().iter().map(|w| w.to_bits()));
    key.push(resolution.to_bits());
    key.into_boxed_slice()
}

thread_local! {
    /// True while a thread works a share of [`Engine::par_map`]; forces
    /// nested maps serial. The caller sets it for its own share and
    /// restores it when the share ends (see `WorkerMark`).
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };

    /// Per-thread scratch for the batch kernel's per-slot costs in
    /// every whole-model compute sum.
    static SUM_SCRATCH: RefCell<Vec<LayerCost>> = const { RefCell::new(Vec::new()) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 32] {
            let engine = Engine::new(threads);
            let got = engine.par_map(&items, |_, &x| x * x);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn chunked_claims_cover_every_index_once_in_item_order() {
        for threads in [2, 8] {
            let engine = Engine::new(threads);
            for n in [0, 1, 2, 15, 16, 17, 63, 64, 65, 1000] {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let items: Vec<usize> = (0..n).collect();
                let got = engine.par_map(&items, |i, &x| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    x * 3
                });
                let want: Vec<usize> = items.iter().map(|x| x * 3).collect();
                assert_eq!(got, want, "threads {threads}, n {n}");
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "threads {threads}, n {n}: an index ran other than once"
                );
            }
        }
    }

    /// Runs `f` as a 2-worker `try_par_map` over 64 items (chunks of 4)
    /// in which the first two chunks are forced onto different workers:
    /// the worker holding chunk 0 waits at item 0 until the other
    /// reaches item 4. So items 2 and 6 run on different threads, one
    /// of them the caller, which the helper asserts. A map that runs
    /// serially fails the wait after 10 s instead of hanging.
    fn split_first_chunks<R: Send>(
        engine: &Engine,
        f: impl Fn(usize) -> Result<R, String> + Sync,
    ) -> Result<Vec<R>, String> {
        assert_eq!(engine.threads(), 2);
        let items: Vec<usize> = (0..64).collect();
        let (arrived, met) = (std::sync::Mutex::new(0), std::sync::Condvar::new());
        let ran_on = std::sync::Mutex::new(Vec::new());
        let out = engine.try_par_map(&items, |i, _| {
            if i == 0 || i == 4 {
                let mut n = arrived.lock().unwrap();
                *n += 1;
                met.notify_all();
                let wait = Duration::from_secs(10);
                let (_n, waited) = met.wait_timeout_while(n, wait, |n| *n < 2).unwrap();
                assert!(!waited.timed_out(), "chunks 0 and 1 never ran at once");
            }
            if i == 2 || i == 6 {
                ran_on.lock().unwrap().push(std::thread::current().id());
            }
            f(i)
        });
        let ran_on = ran_on.into_inner().unwrap();
        assert_eq!(ran_on.len(), 2);
        assert_ne!(ran_on[0], ran_on[1], "chunks 0 and 1 ran on one worker");
        assert!(
            ran_on.contains(&std::thread::current().id()),
            "the caller ran neither chunk"
        );
        out
    }

    #[test]
    fn lowest_index_failure_wins_across_chunks_and_the_callers_share() {
        let engine = Engine::new(2);
        let err = split_first_chunks(&engine, |i| match i {
            2 | 6 => Err(format!("e{i}")),
            _ => Ok(i),
        });
        assert_eq!(err.unwrap_err(), "e2");
        let err = split_first_chunks(&engine, |i| match i {
            2 | 6 => panic!("p{i}"),
            _ => Ok(i),
        })
        .unwrap_err();
        assert!(err.contains("item 2") && err.contains("p2"), "{err}");
    }

    #[test]
    fn nested_map_in_the_callers_share_is_serial_and_the_next_map_is_not() {
        let engine = Engine::new(2);
        let caller = std::thread::current().id();
        let inner: Vec<u32> = (0..16).collect();
        let on_caller = split_first_chunks(&engine, |i| {
            let outer = std::thread::current().id();
            let threads = engine.par_map(&inner, |_, _| std::thread::current().id());
            assert!(threads.iter().all(|&t| t == outer), "item {i}");
            Ok(outer == caller)
        })
        .unwrap();
        assert!(on_caller.contains(&true), "the caller ran nested maps");
        // The forced map's two samples; its nested maps record none.
        assert_eq!(engine.telemetry().worker_samples().len(), 2);
        // The caller is not left marked as a worker: the next map still
        // reaches the helper. Its two workers are forced, since a trivial
        // map may finish on the caller before the parked helper wakes.
        let next = split_first_chunks(&engine, Ok).unwrap();
        assert_eq!(next, (0..64).collect::<Vec<usize>>());
        let workers: Vec<usize> = engine.telemetry().worker_samples()[2..]
            .iter()
            .map(|s| s.worker)
            .collect();
        assert_eq!(workers.len(), 2, "{workers:?}");
        assert!(workers.contains(&0) && workers.contains(&1), "{workers:?}");
    }

    #[test]
    fn a_worker_that_took_no_job_still_has_a_utilization_row() {
        // A one-item map runs on the caller alone: workers 1 and 2 take
        // no job and record no sample.
        let engine = Engine::new(3);
        assert_eq!(engine.par_map(&[7u32], |_, &x| x + 1), vec![8]);
        assert_eq!(engine.telemetry().worker_samples().len(), 1);
        let util = engine.telemetry().worker_utilization();
        let rows: Vec<(usize, u64)> = util.iter().map(|u| (u.worker, u.items)).collect();
        assert_eq!(rows, vec![(0, 1), (1, 0), (2, 0)]);
        for idle in &util[1..] {
            assert_eq!((idle.busy, idle.wall), (Duration::ZERO, Duration::ZERO));
            assert_eq!(idle.utilization(), 0.0);
        }
        let metrics = engine.metrics_value();
        let workers = metrics["worker_utilization"].as_array().expect("rows");
        assert_eq!(workers.len(), 3);
        assert_eq!(workers[2]["items"].as_u64(), Some(0));
    }

    #[test]
    fn five_hundred_maps_start_at_most_threads_minus_one_helpers() {
        let engine = Engine::new(4);
        let items: Vec<u64> = (0..64).collect();
        let want: Vec<u64> = items.iter().map(|x| x * 7).collect();
        for _ in 0..500 {
            assert_eq!(engine.par_map(&items, |_, &x| x * 7), want);
        }
        let started = engine.pool.helpers_started();
        assert!(started <= 3, "{started} helpers started");
    }

    #[test]
    fn dropping_the_engine_joins_its_helpers() {
        let engine = Engine::new(2);
        split_first_chunks(&engine, Ok).unwrap();
        assert_eq!(engine.pool.helpers_started(), 1);
        let shared = engine.pool.shared_weak();
        drop(engine);
        assert!(shared.upgrade().is_none(), "a helper outlived its engine");
    }

    #[test]
    fn a_contained_panic_leaves_the_next_map_equal_to_the_serial_map() {
        let items: Vec<u64> = (0..64).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        let engine = Engine::new(2);
        // Items 2 and 6 panic on different workers, one of them a helper.
        let err = split_first_chunks(&engine, |i| match i {
            2 | 6 => panic!("p{i}"),
            _ => Ok(i),
        })
        .unwrap_err();
        assert!(err.contains("item 2"), "{err}");
        assert_eq!(engine.par_map(&items, |_, &x| x * 3 + 1), serial);

        let plan = FaultPlan::new(7).with(crate::FaultClass::WorkerPanic, 0.25);
        let engine = Engine::new(2).with_faults(plan);
        let err = engine
            .try_par_map(&items, |_, &x| -> Result<u64, ClaireError> { Ok(x) })
            .unwrap_err();
        assert!(matches!(err, ClaireError::WorkerPanic { .. }), "{err}");
        assert_eq!(engine.par_map(&items, |_, &x| x * 3 + 1), serial);
    }

    #[test]
    fn two_threads_mapping_on_one_engine_at_once_both_get_item_order() {
        let engine = Engine::new(4);
        let items: Vec<u64> = (0..256).collect();
        // Each map's item 0 waits for the other's, so both maps are in
        // flight at once: one holds the helpers, the other runs serially.
        let both = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let maps: Vec<_> = [3u64, 5]
                .into_iter()
                .map(|k| {
                    let (engine, items, both) = (&engine, &items, &both);
                    let map = scope.spawn(move || {
                        engine.par_map(items, |i, &x| {
                            if i == 0 {
                                both.wait();
                            }
                            x * k
                        })
                    });
                    (k, map)
                })
                .collect();
            for (k, map) in maps {
                let want: Vec<u64> = items.iter().map(|x| x * k).collect();
                assert_eq!(map.join().unwrap(), want, "k = {k}");
            }
        });
    }

    #[test]
    fn closures_borrowing_stack_locals_match_the_serial_map_every_time() {
        for threads in [2, 8] {
            let engine = Engine::new(threads);
            for round in 0..1000u64 {
                let offsets: Vec<u64> = (0..17).map(|k| k * round + 1).collect();
                let items: Vec<u64> = (0..64).map(|i| i ^ round).collect();
                let f = |i: usize, &x: &u64| x * offsets[i % offsets.len()];
                let serial: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
                let got = engine.par_map(&items, f);
                assert_eq!(got, serial, "threads {threads}, round {round}");
            }
        }
    }

    #[test]
    fn spans_after_a_traced_map_land_on_the_callers_track() {
        let engine = Engine::new(2).with_tracing(true);
        let items: Vec<u32> = (0..64).collect();
        engine.par_map(&items, |_, &x| x + 1);
        drop(engine.telemetry().span("after.map", "test"));
        let trace = engine.telemetry().chrome_trace();
        let events = trace["traceEvents"].as_array().expect("traceEvents");
        let tid_of = |name: &str| -> Vec<u64> {
            events
                .iter()
                .filter(|e| e["name"].as_str() == Some(name))
                .filter_map(|e| e["tid"].as_u64())
                .collect()
        };
        assert_eq!(tid_of("after.map"), vec![0]);
        let item_tids = tid_of("par.item");
        assert_eq!(item_tids.len(), 64);
        assert!(item_tids.iter().all(|&t| t == 1 || t == 2), "{item_tids:?}");
    }

    #[test]
    fn nested_par_map_is_serial_but_correct() {
        let engine = Engine::new(4);
        let outer: Vec<u32> = (0..8).collect();
        let got = engine.par_map(&outer, |_, &x| {
            let inner: Vec<u32> = (0..5).collect();
            engine.par_map(&inner, |_, &y| x * 10 + y)
        });
        for (x, row) in outer.iter().zip(&got) {
            let want: Vec<u32> = (0..5).map(|y| x * 10 + y).collect();
            assert_eq!(row, &want);
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let engine = Engine::new(8);
        assert_eq!(engine.par_map(&[] as &[u8], |_, &x| x), Vec::<u8>::new());
        assert_eq!(engine.par_map(&[7u8], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn try_par_map_returns_lowest_index_error() {
        let engine = Engine::new(8);
        let items: Vec<usize> = (0..64).collect();
        let err = engine
            .try_par_map(&items, |_, &x| {
                if x % 7 == 3 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
        assert_eq!(
            err, "bad 3",
            "serial semantics: first failure in item order"
        );
    }

    #[test]
    fn try_par_map_contains_panics_as_typed_errors() {
        for threads in [1, 2, 8] {
            let engine = Engine::new(threads);
            let items: Vec<usize> = (0..32).collect();
            let err: String = engine
                .try_par_map(&items, |_, &x| -> Result<usize, String> {
                    if x == 5 {
                        panic!("boom at {x}");
                    }
                    Ok(x)
                })
                .unwrap_err();
            assert!(err.contains("item 5"), "threads {threads}: {err}");
            assert!(err.contains("boom at 5"), "threads {threads}: {err}");
        }
    }

    #[test]
    fn try_par_map_prefers_lowest_index_among_error_and_panic() {
        let engine = Engine::new(4);
        let items: Vec<usize> = (0..16).collect();
        // Item 2 errors, item 6 panics: the lower index wins.
        let err: String = engine
            .try_par_map(&items, |_, &x| {
                if x == 6 {
                    panic!("late panic");
                }
                if x == 2 {
                    Err("early error".to_owned())
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
        assert_eq!(err, "early error");
    }

    #[test]
    fn par_map_reraises_lowest_index_panic_after_completion() {
        let engine = Engine::new(4);
        let items: Vec<usize> = (0..16).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            engine.par_map(&items, |_, &x| {
                if x == 3 || x == 11 {
                    panic!("p{x}");
                }
                x
            })
        }))
        .unwrap_err();
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        assert_eq!(msg, "p3", "lowest-indexed panic is the one re-raised");
    }

    #[test]
    fn poisoned_engine_locks_recover() {
        let plan = crate::fault::FaultPlan::new(9).with(crate::fault::FaultClass::PoisonShard, 1.0);
        let engine = Engine::new(2).with_faults(plan);
        assert!(engine.louvains.is_poisoned());
        assert!(engine.graphs.is_poisoned());
        assert!(engine.models.is_poisoned());
        let model = claire_model::zoo::alexnet();
        let hw = HwParams::new(16, 16, 8, 8);
        let first = engine.universal_csr(std::slice::from_ref(&model), &hw);
        let second = engine.universal_csr(std::slice::from_ref(&model), &hw);
        assert!(Arc::ptr_eq(&first, &second), "a poisoned tier hits");
        let louvain = |g: &UniversalCsr| engine.louvain_partition(&g.csr, 1.0);
        assert!(Arc::ptr_eq(&louvain(&first), &louvain(&second)));
        let stats = engine.stats();
        assert_eq!((stats.graph_hits, stats.graph_misses), (1, 1));
        assert_eq!((stats.louvain_hits, stats.louvain_misses), (1, 1));
    }

    #[test]
    fn overall_hit_rate_counts_both_tiers() {
        let idle = Engine::new(1).stats();
        assert_eq!(idle.overall_hit_rate(), 0.0, "nothing looked up");
        let graph_only = EngineStats {
            graph_hits: 3,
            graph_misses: 1,
            ..idle.clone()
        };
        assert!((graph_only.overall_hit_rate() - 0.75).abs() < 1e-12);
        let with_louvain = EngineStats {
            graph_hits: 3,
            graph_misses: 1,
            louvain_hits: 1,
            louvain_misses: 3,
            ..idle
        };
        assert!((with_louvain.overall_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pruned_fraction_counts_every_screened_point() {
        // The dense staged sweep's counts: 200,000 points screened, of
        // which the area screen pruned 141,500.
        let dense = EngineStats {
            dse_pruned: 141_500,
            dse_lb_pruned: 33_568,
            dse_evaluated: 24_932,
            ..Engine::new(1).stats()
        };
        assert!((dense.pruned_fraction() - 0.7075).abs() < 1e-12);
        assert!((dense.lb_pruned_fraction() - 33_568.0 / 58_500.0).abs() < 1e-12);
    }

    #[test]
    fn layer_costs_are_the_kernel_and_fill_no_tier() {
        use claire_model::Linear;
        let kind = LayerKind::Linear(Linear {
            in_features: 256,
            out_features: 128,
            tokens: 4,
        });
        let hw = HwParams::new(16, 16, 8, 8);
        let fresh = Engine::new(1).tier_signature();
        for engine in [Engine::new(2), Engine::new(1).with_cache(false)] {
            for _ in 0..2 {
                assert_eq!(engine.layer_cost(&kind, &hw), layer_cost(&kind, &hw));
            }
            let stats = engine.stats();
            assert_eq!(stats.cache_enabled, engine.cache_enabled());
            assert_eq!(stats.cache_entries, 0);
            assert_eq!(engine.tier_signature(), fresh);
        }
    }

    /// A model of `n` activation layers of `elements` each, the kinds
    /// cycling through RELU and GELU when `mixed`, with a small linear
    /// layer on either end.
    fn activation_stack(n: usize, elements: u64, mixed: bool) -> Model {
        use claire_model::{Activation, ActivationKind, Linear, ModelBuilder, ModelClass};
        let fc = LayerKind::Linear(Linear {
            in_features: 64,
            out_features: 64,
            tokens: 4,
        });
        let mut b = ModelBuilder::new("stack", ModelClass::Transformer);
        b.push("in", fc);
        for i in 0..n {
            let kind = if mixed && i % 2 == 1 {
                ActivationKind::Gelu
            } else {
                ActivationKind::Relu
            };
            b.push("act", LayerKind::Activation(Activation { kind, elements }));
        }
        b.push("out", fc);
        b.build()
    }

    /// The engine's single-model graph at `hw`, as node and edge
    /// weight bits, and whether the build walked the layers: whether
    /// the guard of the summary build refused the model's totals.
    fn engine_graph(model: &Model, hw: &HwParams) -> (Vec<u64>, bool) {
        let engine = Engine::serial();
        let built = engine.universal_csr(std::slice::from_ref(model), hw);
        let walked = engine.exact_totals(model, hw).is_none();
        (graph_bits(&built.graph), walked)
    }

    fn graph_bits(g: &claire_graph::WeightedGraph<OpClass>) -> Vec<u64> {
        g.nodes()
            .map(|(_, w)| w.to_bits())
            .chain(g.edges().map(|(_, _, w)| w.to_bits()))
            .collect()
    }

    #[test]
    fn summary_graph_covers_totals_up_to_two_to_the_53() {
        // Exactly 2^53 executions and edge bytes: still exact in f64.
        let model = activation_stack(1, 1 << 53, false);
        let hw = HwParams::new(16, 16, 1, 1);
        let (bits, walked) = engine_graph(&model, &hw);
        assert!(!walked, "a 2^53 total takes the summary build");
        assert_eq!(bits, graph_bits(&crate::graphs::build_graph(&model, &hw)));
    }

    #[test]
    fn totals_above_two_to_the_53_fall_back_to_the_layer_walk() {
        // 2^60 elements: executions and edge bytes above 2^53, where a
        // per-layer f64 sum may round.
        let model = activation_stack(3, 1 << 60, true);
        let hw = HwParams::new(16, 16, 4, 4);
        let (bits, walked) = engine_graph(&model, &hw);
        assert!(walked, "a total above 2^53 must walk the layers");
        assert_eq!(bits, graph_bits(&crate::graphs::build_graph(&model, &hw)));
    }

    #[test]
    fn u64_overflow_falls_back_to_the_layer_walk() {
        // Seventeen 2^60-element RELU layers at one unit: 17 x 2^60
        // executions, and sixteen 2^60-byte RELU->RELU edges, both past
        // 2^64.
        let model = activation_stack(17, 1 << 60, false);
        let hw = HwParams::new(16, 16, 1, 1);
        let (_, batch) = Engine::serial().structural(&model);
        assert_eq!(batch.class_executions(&hw), None);
        assert_eq!(model.edge_byte_totals(), None);
        let (bits, walked) = engine_graph(&model, &hw);
        assert!(walked, "an overflowing total must walk the layers");
        assert_eq!(bits, graph_bits(&crate::graphs::build_graph(&model, &hw)));
    }

    #[test]
    fn cache_off_engines_build_graphs_by_the_layer_walk() {
        let model = activation_stack(2, 1000, true);
        let hw = HwParams::new(16, 16, 4, 4);
        let engine = Engine::serial().with_cache(false);
        let built = engine.universal_csr(std::slice::from_ref(&model), &hw);
        let (summary, walked) = engine_graph(&model, &hw);
        assert!(!walked);
        assert_eq!(graph_bits(&built.graph), summary);
    }

    #[test]
    fn dropped_models_leave_the_instance_map_when_it_doubles() {
        let engine = Engine::serial();
        let hw = HwParams::new(16, 16, 8, 8);
        let kept = claire_model::zoo::alexnet();
        engine.compute_cycles_lb(&kept, &hw);
        for round in 0..16 {
            // A fresh instance per round, dropped once it is interned.
            engine.compute_cycles_lb(&claire_model::zoo::alexnet(), &hw);
            let stats = engine.stats();
            assert_eq!(stats.struct_entries, 1, "round {round}");
            assert!(stats.struct_instances <= 2, "round {round}: {stats:?}");
        }
        // The live instance is never swept: it still hits its entry.
        let iid = kept.instance_id();
        assert!(read_lock(&engine.models).by_instance.contains_key(&iid));
    }

    #[test]
    fn stage_timer_accumulates_by_name() {
        let engine = Engine::serial();
        let v = engine.time_stage("demo", || 41) + engine.time_stage("demo", || 1);
        assert_eq!(v, 42);
        let stats = engine.stats();
        assert_eq!(stats.stages.len(), 1);
        assert_eq!(stats.stages[0].0, "demo");
        assert!(stats.total_stage_time() >= stats.stages[0].1);
        assert!(stats.to_string().contains("stage demo"));
    }

    #[test]
    fn thread_resolution_prefers_knob() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1, "clamped to >= 1");
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn engine_clamps_thread_count_to_the_bound() {
        // Construction spawns nothing: threads start only inside a map.
        assert_eq!(Engine::new(MAX_THREADS + 1).threads(), MAX_THREADS);
        assert_eq!(Engine::new(MAX_THREADS).threads(), MAX_THREADS);
    }
}
