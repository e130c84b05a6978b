//! Deterministic, seeded fault injection for robustness testing.
//!
//! A [`FaultPlan`] describes *which* faults to inject and *how often*,
//! and hands out per-site decisions that are a pure function of
//! `(seed, fault class, site)`. Sites are stable identifiers of the
//! place a fault could strike — a layer's `(kind, hardware point)`
//! pair, a model × configuration pair, a work-item index, a memo
//! lock, a torus link — hashed with a fixed (non-random) hasher, so a
//! plan injects the *same* faults at the *same* places regardless of
//! thread count, scheduling, or how many times a site is visited.
//! That makes every failure the harness provokes exactly
//! reproducible: rerun with the same seed and the same fault fires
//! again.
//!
//! The plan is wired into [`crate::parallel::Engine`] via
//! [`Engine::with_faults`](crate::parallel::Engine::with_faults); with
//! no plan attached (the default) every hook below is compiled but
//! never consulted on the hot path beyond an `Option` check, and the
//! engine's outputs are bit-identical to an unfaulted build.
//!
//! Fault classes and the hardened behaviour they exercise:
//!
//! * [`FaultClass::NanPpa`] / [`FaultClass::InfPpa`] /
//!   [`FaultClass::PerturbPpa`] — corrupt unit-PPA energies after the
//!   analytical model computes them. Non-finite values surface as
//!   [`ClaireError::NonFiniteMetric`](crate::ClaireError::NonFiniteMetric)
//!   from the evaluator's finiteness gate; perturbed-but-finite values
//!   flow through normally (they model calibration drift, not
//!   corruption).
//! * [`FaultClass::DropCoverage`] — pretend a configuration lost an
//!   op class, surfacing
//!   [`ClaireError::IncompleteCoverage`](crate::ClaireError::IncompleteCoverage).
//! * [`FaultClass::WorkerPanic`] — panic inside a
//!   [`try_par_map`](crate::parallel::Engine::try_par_map) worker;
//!   contained by `catch_unwind` and surfaced as
//!   [`ClaireError::WorkerPanic`](crate::ClaireError::WorkerPanic).
//! * [`FaultClass::PoisonShard`] — poison the locks of the Louvain
//!   tier, the graph tier and the structural interner at engine
//!   construction, the locks a run with a fault plan reads; recovered
//!   by the poison-tolerant lock accessors (memo tiers hold pure
//!   values, so a panicked writer cannot leave them logically
//!   corrupt).
//! * [`FaultClass::InfeasibleConstraints`] — substitute an
//!   unsatisfiable constraint set for a DSE subject; fail-fast mode
//!   surfaces the typed error, degrade mode walks the relaxation
//!   ladder (see [`crate::dse::RobustnessPolicy`]).
//! * [`FaultClass::FailedNocLink`] — mark 2D-torus links dead; route
//!   tables recompute routes around them (degraded hop counts) and
//!   surface [`ClaireError::NoRoute`](crate::ClaireError::NoRoute)
//!   when a class pair is disconnected.
//!
//! Four further classes cover the *serving* layer. They are consulted
//! by the `serve` front end (never by the engine itself, so an armed
//! serve plan does not disable warm-state snapshots and engine answers
//! stay bit-identical):
//!
//! * [`FaultClass::DroppedConnection`] — abruptly close an accepted
//!   connection after its first request; the server cleans up the
//!   connection's threads and keeps serving everyone else.
//! * [`FaultClass::SlowLorisClient`] — treat a connection as a stalled
//!   writer (a client that never completes a line); the read-timeout
//!   path answers a typed wire error and closes it.
//! * [`FaultClass::MidBatchPanic`] — panic inside the dispatcher while
//!   a batch is mid-evaluation; contained by `catch_unwind`, every
//!   request in the batch is answered with a typed
//!   [`ClaireError::WorkerPanic`](crate::ClaireError::WorkerPanic).
//! * [`FaultClass::CheckpointWriteFailure`] — fail a background
//!   warm-state checkpoint write; the server logs and keeps serving,
//!   and the previous checkpoint generation stays intact on disk.

use crate::telemetry::{ArgValue, Metric, Telemetry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The classes of fault a [`FaultPlan`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Replace a unit-PPA energy with NaN.
    NanPpa,
    /// Replace a unit-PPA energy with +∞.
    InfPpa,
    /// Scale a unit-PPA energy by a deterministic finite factor.
    PerturbPpa,
    /// Pretend a configuration cannot cover one of a model's classes.
    DropCoverage,
    /// Panic inside a `try_par_map` worker closure.
    WorkerPanic,
    /// Poison a memo lock (Louvain tier, graph tier or structural
    /// interner) at engine construction.
    PoisonShard,
    /// Substitute an unsatisfiable constraint set for a DSE subject.
    InfeasibleConstraints,
    /// Mark a 2D-torus link as failed, forcing route-around.
    FailedNocLink,
    /// Abruptly drop an accepted serve connection after its first
    /// request (serve layer).
    DroppedConnection,
    /// Treat a serve connection as a stalled slow-loris writer,
    /// driving the read-timeout path (serve layer).
    SlowLorisClient,
    /// Panic inside the serve dispatcher mid-batch (serve layer).
    MidBatchPanic,
    /// Fail a background warm-state checkpoint write (serve layer).
    CheckpointWriteFailure,
}

impl FaultClass {
    /// Number of fault classes.
    pub const COUNT: usize = 12;

    /// Every fault class, in a fixed order.
    pub const ALL: [FaultClass; FaultClass::COUNT] = [
        FaultClass::NanPpa,
        FaultClass::InfPpa,
        FaultClass::PerturbPpa,
        FaultClass::DropCoverage,
        FaultClass::WorkerPanic,
        FaultClass::PoisonShard,
        FaultClass::InfeasibleConstraints,
        FaultClass::FailedNocLink,
        FaultClass::DroppedConnection,
        FaultClass::SlowLorisClient,
        FaultClass::MidBatchPanic,
        FaultClass::CheckpointWriteFailure,
    ];

    /// The serve-layer classes, in `ALL` order — the subset a
    /// `--serve-faults` plan arms by default.
    pub const SERVE: [FaultClass; 4] = [
        FaultClass::DroppedConnection,
        FaultClass::SlowLorisClient,
        FaultClass::MidBatchPanic,
        FaultClass::CheckpointWriteFailure,
    ];

    /// Dense index, used for the rate and counter tables.
    fn index(self) -> usize {
        match self {
            FaultClass::NanPpa => 0,
            FaultClass::InfPpa => 1,
            FaultClass::PerturbPpa => 2,
            FaultClass::DropCoverage => 3,
            FaultClass::WorkerPanic => 4,
            FaultClass::PoisonShard => 5,
            FaultClass::InfeasibleConstraints => 6,
            FaultClass::FailedNocLink => 7,
            FaultClass::DroppedConnection => 8,
            FaultClass::SlowLorisClient => 9,
            FaultClass::MidBatchPanic => 10,
            FaultClass::CheckpointWriteFailure => 11,
        }
    }

    /// The class's lower-snake-case label, used in telemetry event
    /// arguments, counter names, and `--serve-faults` specs.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::NanPpa => "nan_ppa",
            FaultClass::InfPpa => "inf_ppa",
            FaultClass::PerturbPpa => "perturb_ppa",
            FaultClass::DropCoverage => "drop_coverage",
            FaultClass::WorkerPanic => "worker_panic",
            FaultClass::PoisonShard => "poison_shard",
            FaultClass::InfeasibleConstraints => "infeasible_constraints",
            FaultClass::FailedNocLink => "failed_noc_link",
            FaultClass::DroppedConnection => "dropped_connection",
            FaultClass::SlowLorisClient => "slow_loris_client",
            FaultClass::MidBatchPanic => "mid_batch_panic",
            FaultClass::CheckpointWriteFailure => "checkpoint_write_failure",
        }
    }

    /// Parses a class from its [`label`](FaultClass::label).
    pub fn from_label(label: &str) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|c| c.label() == label)
    }

    /// A per-class tag mixed into every decision hash so the same
    /// site draws independently for different classes.
    fn tag(self) -> u64 {
        // Arbitrary distinct odd constants; any fixed values work.
        0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(self.index() as u64 * 2 + 1)
    }
}

/// A seeded, reproducible fault-injection plan.
///
/// Build one with [`FaultPlan::new`] and per-class rates via
/// [`FaultPlan::with`]; rates are probabilities in `[0, 1]` applied
/// independently per *site* (1.0 = fault every site of that class).
/// Decisions are pure functions of `(seed, class, site)` — see the
/// module docs for the determinism argument. Injection counters record
/// how many decisions came up positive (a site visited again is
/// counted again; counters are for test assertions, not exact
/// occurrence accounting).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rates: [f64; FaultClass::COUNT],
    injected: [AtomicU64; FaultClass::COUNT],
    /// Set once by [`crate::Engine::with_faults`]; mirrors every
    /// positive decision into the engine's fault counters and (when
    /// tracing) the trace as `fault.injected` instant events.
    telemetry: OnceLock<Arc<Telemetry>>,
}

impl FaultPlan {
    /// A plan with the given seed and every rate zero (injects
    /// nothing until [`FaultPlan::with`] arms a class).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rates: [0.0; FaultClass::COUNT],
            injected: std::array::from_fn(|_| AtomicU64::new(0)),
            telemetry: OnceLock::new(),
        }
    }

    /// Binds the plan to an engine's telemetry hub (first bind wins;
    /// a plan is owned by at most one engine).
    pub(crate) fn attach_telemetry(&self, telemetry: Arc<Telemetry>) {
        let _ = self.telemetry.set(telemetry);
    }

    /// The attached telemetry hub, if any.
    pub(crate) fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.get().map(Arc::as_ref)
    }

    /// Arms `class` at `rate` (clamped to `[0, 1]`), builder style.
    pub fn with(mut self, class: FaultClass, rate: f64) -> Self {
        self.rates[class.index()] = rate.clamp(0.0, 1.0);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The armed rate for `class`.
    pub fn rate(&self, class: FaultClass) -> f64 {
        self.rates[class.index()]
    }

    /// How many positive injection decisions `class` has produced.
    pub fn injections(&self, class: FaultClass) -> u64 {
        self.injected[class.index()].load(Ordering::Relaxed)
    }

    /// Total positive injection decisions across all classes.
    pub fn total_injections(&self) -> u64 {
        self.injected
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// True when any PPA-corruption class is armed (the engine then
    /// routes compute sums through the per-layer path so corruption
    /// and finiteness checks see every layer).
    pub fn has_ppa_faults(&self) -> bool {
        self.rate(FaultClass::NanPpa) > 0.0
            || self.rate(FaultClass::InfPpa) > 0.0
            || self.rate(FaultClass::PerturbPpa) > 0.0
    }

    /// True when torus links may fail under this plan.
    pub fn has_link_faults(&self) -> bool {
        self.rate(FaultClass::FailedNocLink) > 0.0
    }

    /// The deterministic decision for `(class, site)`: true iff the
    /// site's unit draw falls under the class rate. Counts positive
    /// decisions.
    fn decide(&self, class: FaultClass, site: u64) -> bool {
        let rate = self.rates[class.index()];
        if rate <= 0.0 {
            return false;
        }
        let hit = unit_draw(self.seed, class, site) < rate;
        if hit {
            self.injected[class.index()].fetch_add(1, Ordering::Relaxed);
            if let Some(t) = self.telemetry() {
                t.count(Metric::for_fault(class));
                if t.tracing_enabled() {
                    t.instant(
                        "fault.injected",
                        "fault",
                        vec![
                            ("class", ArgValue::Text(class.label().to_owned())),
                            ("site", ArgValue::Int(site)),
                        ],
                    );
                }
            }
        }
        hit
    }

    /// Corrupts a unit-PPA cost at `site` per the armed PPA classes:
    /// NaN beats Inf beats a finite perturbation. Returns the cost
    /// unchanged when no class fires.
    pub fn corrupt_cost(
        &self,
        site: u64,
        mut cost: claire_ppa::LayerCost,
    ) -> claire_ppa::LayerCost {
        if self.decide(FaultClass::NanPpa, site) {
            cost.energy_pj = f64::NAN;
        } else if self.decide(FaultClass::InfPpa, site) {
            cost.energy_pj = f64::INFINITY;
        } else if self.decide(FaultClass::PerturbPpa, site) {
            // A deterministic drift in (1, 2]: large enough to move
            // every downstream aggregate, still finite and positive.
            let drift = 1.0 + unit_draw(self.seed, FaultClass::PerturbPpa, site ^ 0x5eed);
            cost.energy_pj *= drift;
        }
        cost
    }

    /// Whether evaluating `algorithm` on `config` should pretend an
    /// op class is uncovered.
    pub fn drops_coverage(&self, algorithm: &str, config: &str) -> bool {
        let site = fnv1a(algorithm.as_bytes()) ^ fnv1a(config.as_bytes()).rotate_left(17);
        self.decide(FaultClass::DropCoverage, site)
    }

    /// Whether the worker processing item `index` should panic.
    pub fn panics_worker(&self, index: usize) -> bool {
        self.decide(FaultClass::WorkerPanic, index as u64)
    }

    /// Which of `n` memo locks to poison at engine construction.
    pub fn poisoned_locks(&self, n: usize) -> Vec<usize> {
        (0..n)
            .filter(|&i| self.decide(FaultClass::PoisonShard, i as u64))
            .collect()
    }

    /// Whether the DSE subject named `subject` should face an
    /// unsatisfiable constraint set.
    pub fn infeasible_constraints(&self, subject: &str) -> bool {
        self.decide(FaultClass::InfeasibleConstraints, fnv1a(subject.as_bytes()))
    }

    /// Whether the torus link between adjacent positions `a` and `b`
    /// on a `cols × rows` torus is dead. Symmetric in `a`/`b`.
    pub fn link_failed(&self, cols: u32, rows: u32, a: u32, b: u32) -> bool {
        let (lo, hi) = (a.min(b), a.max(b));
        let site = (u64::from(cols) << 48)
            ^ (u64::from(rows) << 32)
            ^ (u64::from(lo) << 16)
            ^ u64::from(hi);
        self.decide(FaultClass::FailedNocLink, site)
    }

    /// Whether the serve layer should abruptly drop connection
    /// `conn_id` after reading its first request.
    pub fn drops_connection(&self, conn_id: u64) -> bool {
        self.decide(FaultClass::DroppedConnection, conn_id)
    }

    /// Whether the serve layer should treat connection `conn_id` as a
    /// slow-loris client (a writer that stalls past the read timeout).
    pub fn slow_loris(&self, conn_id: u64) -> bool {
        self.decide(FaultClass::SlowLorisClient, conn_id)
    }

    /// Whether the serve dispatcher should panic mid-way through batch
    /// `batch_id`.
    pub fn panics_batch(&self, batch_id: u64) -> bool {
        self.decide(FaultClass::MidBatchPanic, batch_id)
    }

    /// Whether the background checkpoint of `generation` should fail
    /// to write.
    pub fn fails_checkpoint(&self, generation: u64) -> bool {
        self.decide(FaultClass::CheckpointWriteFailure, generation)
    }
}

/// The unit draw in `[0, 1)` for `(seed, class, site)` — two rounds of
/// splitmix64 over the XOR-combined inputs, top 53 bits as mantissa.
fn unit_draw(seed: u64, class: FaultClass, site: u64) -> f64 {
    let h = splitmix64(seed ^ class.tag() ^ splitmix64(site));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over bytes: a fixed, dependency-free string hash for site
/// identifiers derived from names.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed_and_site() {
        let a = FaultPlan::new(42).with(FaultClass::NanPpa, 0.5);
        let b = FaultPlan::new(42).with(FaultClass::NanPpa, 0.5);
        for site in 0..256 {
            assert_eq!(
                a.decide(FaultClass::NanPpa, site),
                b.decide(FaultClass::NanPpa, site)
            );
        }
        assert_eq!(a.total_injections(), b.total_injections());
        assert!(a.total_injections() > 0, "rate 0.5 over 256 sites fires");
    }

    #[test]
    fn classes_draw_independently() {
        let plan = FaultPlan::new(7)
            .with(FaultClass::NanPpa, 1.0)
            .with(FaultClass::InfPpa, 1.0);
        // NaN wins the priority chain, so Inf never fires through
        // corrupt_cost even though its rate is 1.
        let cost = plan.corrupt_cost(
            3,
            claire_ppa::LayerCost {
                cycles: 10,
                energy_pj: 1.0,
                executions: 1,
            },
        );
        assert!(cost.energy_pj.is_nan());
        assert_eq!(plan.injections(FaultClass::NanPpa), 1);
        assert_eq!(plan.injections(FaultClass::InfPpa), 0);
    }

    #[test]
    fn zero_rate_never_fires_and_full_rate_always_fires() {
        let plan = FaultPlan::new(1).with(FaultClass::WorkerPanic, 1.0);
        for i in 0..64 {
            assert!(plan.panics_worker(i));
            assert!(!plan.drops_coverage("m", "c"), "unarmed class silent");
        }
        assert_eq!(plan.injections(FaultClass::WorkerPanic), 64);
        assert_eq!(plan.injections(FaultClass::DropCoverage), 0);
    }

    #[test]
    fn rates_scale_injection_frequency() {
        let sites = 4096u64;
        let count = |rate: f64| {
            let plan = FaultPlan::new(99).with(FaultClass::PoisonShard, rate);
            (0..sites)
                .filter(|&s| plan.decide(FaultClass::PoisonShard, s))
                .count()
        };
        let low = count(0.1);
        let high = count(0.9);
        assert!(low > 0 && high > low && high < sites as usize);
        // Rough agreement with the nominal rates.
        assert!((low as f64 / sites as f64 - 0.1).abs() < 0.05);
        assert!((high as f64 / sites as f64 - 0.9).abs() < 0.05);
    }

    #[test]
    fn link_failures_are_symmetric() {
        let plan = FaultPlan::new(5).with(FaultClass::FailedNocLink, 0.5);
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(plan.link_failed(4, 2, a, b), plan.link_failed(4, 2, b, a));
            }
        }
    }

    #[test]
    fn serve_classes_are_deterministic_and_labelled() {
        let plan = FaultPlan::new(404)
            .with(FaultClass::DroppedConnection, 0.5)
            .with(FaultClass::SlowLorisClient, 0.5)
            .with(FaultClass::MidBatchPanic, 0.5)
            .with(FaultClass::CheckpointWriteFailure, 0.5);
        let twin = FaultPlan::new(404)
            .with(FaultClass::DroppedConnection, 0.5)
            .with(FaultClass::SlowLorisClient, 0.5)
            .with(FaultClass::MidBatchPanic, 0.5)
            .with(FaultClass::CheckpointWriteFailure, 0.5);
        for site in 0..512 {
            assert_eq!(plan.drops_connection(site), twin.drops_connection(site));
            assert_eq!(plan.slow_loris(site), twin.slow_loris(site));
            assert_eq!(plan.panics_batch(site), twin.panics_batch(site));
            assert_eq!(plan.fails_checkpoint(site), twin.fails_checkpoint(site));
        }
        for class in FaultClass::SERVE {
            assert!(plan.injections(class) > 0, "{} fired", class.label());
            assert_eq!(FaultClass::from_label(class.label()), Some(class));
        }
        // Serve classes draw independently of the engine classes.
        assert_eq!(plan.injections(FaultClass::WorkerPanic), 0);
    }

    #[test]
    fn all_lists_every_class_once() {
        assert_eq!(FaultClass::ALL.len(), FaultClass::COUNT);
        for (i, class) in FaultClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i);
        }
        let labels: std::collections::HashSet<_> =
            FaultClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), FaultClass::COUNT);
    }

    #[test]
    fn perturbation_is_finite_and_bounded() {
        let plan = FaultPlan::new(11).with(FaultClass::PerturbPpa, 1.0);
        for site in 0..128 {
            let cost = plan.corrupt_cost(
                site,
                claire_ppa::LayerCost {
                    cycles: 1,
                    energy_pj: 2.0,
                    executions: 1,
                },
            );
            assert!(cost.energy_pj.is_finite());
            assert!(cost.energy_pj > 2.0 && cost.energy_pj <= 4.0);
        }
    }
}
