//! Scalable DSE search: lower-bound screening, Pareto-front
//! maintenance and seeded successive halving over generative spaces.
//!
//! [`search_with_engine`] generalises the staged sweep
//! ([`crate::dse::sweep_with_engine`]) from "screen on area, price the
//! rest" to a three-stage search that handles [`DesignSpace`]s of
//! 10⁶+ points without materializing the cross-product:
//!
//! * **Stage A — area screen.** Streams the space (never collecting
//!   `HwParams` for pruned slots) and keeps points whose monolithic
//!   area fits the chiplet cap. The screen calls the evaluator's own
//!   [`crate::config::monolithic_area_mm2`], so it agrees with a full
//!   evaluation's `area_mm2` bit for bit and only provably infeasible
//!   points are dropped.
//! * **Stage A′ — latency lower-bound screen.** Computes each
//!   survivor's compute-only cycle count
//!   ([`Engine::latency_lower_bound`]: latency at infinite
//!   interconnect bandwidth, an *exact* lower bound on the evaluated
//!   `latency_s`), exactly prices one **pivot** — the first survivor
//!   in space order with minimal bound — and, when the pivot is
//!   feasible, drops every survivor whose lower bound already exceeds
//!   `pivot_latency × (1 + latency_slack)`. Soundness: the best
//!   feasible latency `L*` satisfies `L* ≤ pivot_latency`, so a
//!   dropped point's true latency exceeds
//!   `pivot_latency·(1+s) ≥ L*·(1+s)` — the selection window — and
//!   (having strictly worse latency than the pivot) can neither win
//!   any objective inside the window nor move `L*` itself. Survivors
//!   are priced exactly, so selections stay bit-identical to the
//!   exhaustive oracle. An infinite slack (relaxation-ladder rungs)
//!   or an infeasible pivot widens the bound to ∞ — no pruning.
//! * **Stage B — exact pricing + Pareto front.** Evaluates the
//!   remaining candidates through [`Engine::par_map`] and folds the
//!   feasible points into a [`ParetoFront`] in space order, so one
//!   sweep answers the selection query of *every* [`DseObjective`]
//!   without re-pricing.
//!
//! Under [`SearchPolicy::SuccessiveHalving`] stage B is *sampled*:
//! rungs of lower-bound ranking (each through `par_map`) shrink the
//! candidate set by `η` per rung down to `budget` points, which alone
//! are priced exactly. The rung trajectory is a pure function of
//! `(space, seed)` — reproducible across threads and cache states —
//! and `budget ≥ |candidates|` degenerates to the exhaustive path
//! exactly. Sampled selections are a documented heuristic; the
//! exhaustive policy remains the oracle.

use crate::config::{monolithic_area_mm2, Constraints};
use crate::dse::{monolithic_for, DseObjective, DsePoint, SHELL_HW};
use crate::parallel::Engine;
use crate::telemetry::ArgValue;
use claire_model::Model;
use claire_ppa::{space_points, DesignSpace, HwParams};

/// How the search walks the design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum SearchPolicy {
    /// Price every screened point exactly — the oracle path, and the
    /// default. Selections are provably bit-identical to the
    /// unscreened exhaustive sweep.
    #[default]
    Exhaustive,
    /// Seeded successive halving: rungs of compute-cycle-lower-bound
    /// ranking shrink the candidate set by `eta` per rung until at
    /// most `budget` points remain, which are priced exactly. A
    /// reproducible heuristic for spaces exhaustive pricing can't
    /// touch; with `budget ≥ |candidates|` it degenerates to
    /// [`SearchPolicy::Exhaustive`] exactly.
    SuccessiveHalving {
        /// Seed decorrelating rank ties between rungs; the whole
        /// trajectory is a pure function of `(space, seed)`.
        seed: u64,
        /// Per-rung shrink factor (clamped to ≥ 2).
        eta: u32,
        /// Maximum number of exactly priced points (clamped to ≥ 1).
        budget: usize,
    },
}

impl SearchPolicy {
    /// True when this policy may skip exact pricing of some screened
    /// candidates (i.e. its selections are heuristic, not oracle).
    pub fn is_sampled(&self) -> bool {
        matches!(self, SearchPolicy::SuccessiveHalving { .. })
    }
}

/// The three-objective Pareto front of a feasible point set, in space
/// iteration order.
///
/// **Dominance** is *strong*: a point is discarded only when another
/// point scores strictly better in **every** [`DseObjective`] (area,
/// latency, energy–delay product). Ties therefore survive, which is
/// what makes front-based selection bit-identical to full-list
/// selection: the first-in-space-order argmin of any objective can
/// never be evicted (eviction would need a strictly better score in
/// that very objective), every evicted point has strictly worse
/// latency than its dominator (so the best-latency fold and the
/// latency-slack window are unchanged), and insertion preserves space
/// order (removals keep relative order; new points append), so
/// `min_by`'s first-tie-wins replays exactly.
#[derive(Debug, Clone, Default)]
pub struct ParetoFront {
    entries: Vec<DsePoint>,
}

/// `a` strictly better than `b` in every objective.
fn dominates(a: &DsePoint, b: &DsePoint) -> bool {
    DseObjective::ALL
        .iter()
        .all(|o| o.score(&a.report) < o.score(&b.report))
}

impl ParetoFront {
    /// An empty front.
    pub fn new() -> Self {
        ParetoFront::default()
    }

    /// Builds the front by inserting `points` in order (the points
    /// must already be in space iteration order for the deterministic
    /// tie-break guarantees to hold).
    pub fn from_points(points: &[DsePoint]) -> Self {
        let mut front = ParetoFront::new();
        for p in points {
            front.insert(p.clone());
        }
        front
    }

    /// Offers `point` to the front: rejected when an entry strongly
    /// dominates it, otherwise inserted after evicting every entry it
    /// strongly dominates. Returns whether the point was kept.
    pub fn insert(&mut self, point: DsePoint) -> bool {
        if self.entries.iter().any(|e| dominates(e, &point)) {
            return false;
        }
        self.entries.retain(|e| !dominates(&point, e));
        self.entries.push(point);
        true
    }

    /// The non-dominated points, in space iteration order.
    pub fn entries(&self) -> &[DsePoint] {
        &self.entries
    }

    /// Number of points on the front.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the front holds no points.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replays the custom-configuration selection for `objective`
    /// from the front alone: best-latency fold, latency-slack window,
    /// then the objective minimum with first-tie-wins — the identical
    /// fold `dse::select_custom_config` performs, and (by
    /// the dominance argument above) the identical winner, bit for
    /// bit, for **any** objective from one sweep.
    pub fn select(&self, constraints: &Constraints, objective: DseObjective) -> Option<&DsePoint> {
        let best_latency = self
            .entries
            .iter()
            .map(|p| p.report.latency_s)
            .fold(f64::INFINITY, f64::min);
        if !best_latency.is_finite() {
            return None;
        }
        let limit = best_latency * (1.0 + constraints.latency_slack);
        self.entries
            .iter()
            .filter(|p| p.report.latency_s <= limit)
            .min_by(|a, b| {
                objective
                    .score(&a.report)
                    .total_cmp(&objective.score(&b.report))
            })
    }
}

/// The result of a [`search_with_engine`] run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The exactly priced feasible points, in space iteration order.
    /// Under the exhaustive policy this is the staged sweep's survivor
    /// list; under a sampled policy it covers only the final rung.
    pub points: Vec<DsePoint>,
    /// The three-objective Pareto front of `points`, maintained
    /// incrementally during stage B.
    pub front: ParetoFront,
    /// True when a sampled trajectory skipped exact pricing of some
    /// screened candidates (selections heuristic, not oracle).
    pub sampled: bool,
}

/// SplitMix64 — the same finalizer the fault plan uses for per-site
/// decisions; here it decorrelates equal-lower-bound ranks between
/// rungs so the seed genuinely shapes the trajectory.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic per-rung tie-break key for a candidate: a pure
/// function of `(seed, rung, space index)` — no thread, cache or
/// iteration-order dependence.
fn rung_tie_break(seed: u64, rung: u64, index: u32) -> u64 {
    splitmix64(seed ^ rung.wrapping_mul(0xA076_1D64_78BD_642F) ^ u64::from(index))
}

/// The successive-halving rungs of a sampled stage B, shared by
/// [`search_with_engine`] and the flat plan
/// ([`crate::plan::flat::build_eval_table`]): each rung ranks the
/// space-ordered `(space index, point)` candidates on `lb_cycles`
/// (ties broken by [`rung_tie_break`]) and keeps the best
/// `max(budget, ⌈len / eta⌉)` in space order, until at most `budget`
/// remain. Returns whether any rung ran — i.e. whether the trajectory
/// sampled. A no-op under [`SearchPolicy::Exhaustive`].
pub(crate) fn halving_rungs(
    candidates: &mut Vec<(u32, HwParams)>,
    policy: SearchPolicy,
    engine: &Engine,
    lb_cycles: &(dyn Fn(&HwParams) -> u64 + Sync),
) -> bool {
    let SearchPolicy::SuccessiveHalving { seed, eta, budget } = policy else {
        return false;
    };
    let eta = u64::from(eta.max(2));
    let budget = budget.max(1);
    let mut rung: u64 = 0;
    while candidates.len() > budget {
        rung += 1;
        engine.note_search_rung();
        let mut span = engine.telemetry().span("dse.rung", "dse");
        span.arg("rung", ArgValue::Int(rung));
        span.arg("candidates", ArgValue::Int(candidates.len() as u64));
        let lbs: Vec<u64> = engine.par_map(candidates.as_slice(), |_, (_, hw)| lb_cycles(hw));
        let keep = budget.max(candidates.len().div_ceil(eta as usize));
        let mut ranked: Vec<(u64, u64, u32)> = candidates
            .iter()
            .zip(&lbs)
            .map(|(&(idx, _), &lb)| (lb, rung_tie_break(seed, rung, idx), idx))
            .collect();
        ranked.sort_unstable();
        ranked.truncate(keep);
        ranked.sort_unstable_by_key(|&(_, _, idx)| idx);
        // Rebuild the candidate list in space order from the promoted
        // indices (both lists are index-sorted).
        let mut promoted = ranked.iter().map(|&(_, _, idx)| idx).peekable();
        candidates.retain(|&(idx, _)| {
            if promoted.peek() == Some(&idx) {
                promoted.next();
                true
            } else {
                false
            }
        });
        span.arg("kept", ArgValue::Int(candidates.len() as u64));
    }
    rung > 0
}

/// The three-stage, Pareto-aware, optionally sampled design-space
/// search (see the module docs for the stage and soundness
/// arguments). Generalises [`crate::dse::sweep_with_engine`] to any
/// [`DesignSpace`] and [`SearchPolicy`]; the classic sweep is exactly
/// `search_with_engine(…, SearchPolicy::Exhaustive, …).points`.
pub fn search_with_engine(
    model: &Model,
    space: &dyn DesignSpace,
    constraints: &Constraints,
    policy: SearchPolicy,
    engine: &Engine,
) -> SearchOutcome {
    let shell = monolithic_for(model, SHELL_HW);

    // Stage A: stream the space through the area screen; only
    // survivors (index, point) are ever collected.
    let mut candidates: Vec<(u32, HwParams)> = if engine.pruning_enabled() {
        let mut span = engine.telemetry().span("dse.screen", "dse");
        let mut seen: u64 = 0;
        let kept: Vec<(u32, HwParams)> = space_points(space)
            .inspect(|_| seen += 1)
            .filter(|(_, hw)| {
                monolithic_area_mm2(&shell.classes, hw) <= constraints.chiplet_area_limit_mm2
            })
            .collect();
        engine.note_dse_pruned(seen - kept.len() as u64);
        span.arg("pruned", ArgValue::Int(seen - kept.len() as u64));
        span.arg("kept", ArgValue::Int(kept.len() as u64));
        kept
    } else {
        space_points(space).collect()
    };

    let lb_cycles = |hw: &HwParams| engine.compute_cycles_lb(model, hw);
    let evaluate = |hw: HwParams| -> Option<DsePoint> {
        let mut cfg = shell.clone();
        cfg.hw = hw;
        let report = engine.evaluate(model, &cfg).ok()?;
        let feasible = report.area_mm2 <= constraints.chiplet_area_limit_mm2
            && report.power_density_w_per_mm2() <= constraints.power_density_limit_w_per_mm2;
        feasible.then_some(DsePoint { hw, report })
    };

    // Stage A′: the latency lower-bound screen. Gated off under fault
    // plans (corrupted costs break the bound's soundness) and skipped
    // outright when the slack is infinite — the bound would be ∞.
    if engine.lb_screen_enabled() && constraints.latency_slack.is_finite() && !candidates.is_empty()
    {
        let mut span = engine.telemetry().span("dse.lb_screen", "dse");
        let lbs: Vec<u64> = engine.par_map(&candidates, |_, (_, hw)| lb_cycles(hw));
        // Pivot: first candidate in space order with minimal bound
        // (u64 compare — exact, order-deterministic).
        let mut pivot = 0usize;
        for (i, &lb) in lbs.iter().enumerate() {
            if lb < lbs[pivot] {
                pivot = i;
            }
        }
        let bound_s = match evaluate(candidates[pivot].1) {
            Some(p) => p.report.latency_s * (1.0 + constraints.latency_slack),
            // Infeasible / failed pivot: no sound bound — keep all.
            None => f64::INFINITY,
        };
        span.arg("pivot", ArgValue::Text(candidates[pivot].1.to_string()));
        if bound_s.is_finite() {
            let clock = claire_ppa::tech28::CLOCK_HZ;
            let before = candidates.len();
            let mut i = 0usize;
            // In-place retain keyed by the parallel `lbs` vector; the
            // pivot's own bound never exceeds its latency, so the
            // pivot always survives.
            candidates.retain(|_| {
                let keep = lbs[i] as f64 / clock <= bound_s;
                i += 1;
                keep
            });
            engine.note_dse_lb_pruned((before - candidates.len()) as u64);
            span.arg("pruned", ArgValue::Int((before - candidates.len()) as u64));
            span.arg("kept", ArgValue::Int(candidates.len() as u64));
        }
    }

    // Sampled stage B: successive-halving rungs shrink the candidate
    // set on the lower-bound rank before any exact pricing.
    let sampled = halving_rungs(&mut candidates, policy, engine, &lb_cycles);

    // Stage B: exact pricing of the final candidates, folded into the
    // Pareto front in space order.
    if engine.pruning_enabled() {
        engine.note_dse_evaluated(candidates.len() as u64);
    }
    let mut span = engine.telemetry().span("dse.eval", "dse");
    span.arg("points", ArgValue::Int(candidates.len() as u64));
    let points: Vec<DsePoint> = engine
        .par_map(&candidates, |_, &(_, hw)| evaluate(hw))
        .into_iter()
        .flatten()
        .collect();
    drop(span);
    let front = ParetoFront::from_points(&points);
    SearchOutcome {
        points,
        front,
        sampled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::PpaReport;

    fn point(area: f64, latency: f64, energy: f64) -> DsePoint {
        DsePoint {
            hw: HwParams::new(1, 1, 1, 1),
            report: PpaReport {
                latency_s: latency,
                energy_j: energy,
                area_mm2: area,
                nop_energy_j: 0.0,
                noc_energy_j: 0.0,
                leakage_j: 0.0,
            },
        }
    }

    #[test]
    fn strong_dominance_keeps_ties() {
        let mut front = ParetoFront::new();
        assert!(front.insert(point(2.0, 2.0, 2.0)));
        // Equal latency: not strongly dominated, must survive even
        // though area and energy are worse.
        assert!(front.insert(point(3.0, 2.0, 3.0)));
        assert_eq!(front.len(), 2);
        // Strictly better in all three objectives: evicts both.
        assert!(front.insert(point(1.0, 1.0, 1.0)));
        assert_eq!(front.len(), 1);
        // Strictly worse in all three: rejected.
        assert!(!front.insert(point(4.0, 4.0, 4.0)));
        assert_eq!(front.len(), 1);
    }

    #[test]
    fn front_preserves_insertion_order() {
        let pts = vec![
            point(3.0, 1.0, 5.0),
            point(1.0, 4.0, 4.0),
            point(2.0, 3.0, 1.0),
        ];
        let front = ParetoFront::from_points(&pts);
        assert_eq!(front.len(), 3);
        let areas: Vec<f64> = front.entries().iter().map(|p| p.report.area_mm2).collect();
        assert_eq!(areas, vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn front_select_matches_full_list_fold() {
        let pts = vec![
            point(3.0, 1.0, 5.0),
            point(1.0, 4.0, 4.0),
            point(2.0, 1.2, 1.0),
            point(2.5, 1.1, 0.9),
            point(9.0, 9.0, 9.0), // dominated
        ];
        let cons = Constraints {
            latency_slack: 0.5,
            ..Constraints::default()
        };
        let front = ParetoFront::from_points(&pts);
        for objective in DseObjective::ALL {
            let best_latency = pts
                .iter()
                .map(|p| p.report.latency_s)
                .fold(f64::INFINITY, f64::min);
            let limit = best_latency * (1.0 + cons.latency_slack);
            let reference = pts
                .iter()
                .filter(|p| p.report.latency_s <= limit)
                .min_by(|a, b| {
                    objective
                        .score(&a.report)
                        .total_cmp(&objective.score(&b.report))
                })
                .unwrap();
            let got = front.select(&cons, objective).unwrap();
            assert_eq!(
                format!("{got:?}"),
                format!("{reference:?}"),
                "{objective:?}"
            );
        }
    }

    #[test]
    fn empty_front_selects_nothing() {
        let front = ParetoFront::new();
        assert!(front.is_empty());
        assert!(front
            .select(&Constraints::default(), DseObjective::MinArea)
            .is_none());
    }

    #[test]
    fn tie_break_is_a_pure_function() {
        assert_eq!(rung_tie_break(7, 1, 42), rung_tie_break(7, 1, 42));
        assert_ne!(rung_tie_break(7, 1, 42), rung_tie_break(8, 1, 42));
        assert_ne!(rung_tie_break(7, 1, 42), rung_tie_break(7, 2, 42));
    }

    #[test]
    fn successive_halving_with_full_budget_degenerates_to_exhaustive() {
        use claire_model::zoo;
        use claire_ppa::DseSpace;
        let space = DseSpace::default();
        let m = zoo::vgg16();
        let cons = Constraints::default();
        let ex = search_with_engine(
            &m,
            &space,
            &cons,
            SearchPolicy::Exhaustive,
            &Engine::serial(),
        );
        let engine = Engine::serial();
        let sh = search_with_engine(
            &m,
            &space,
            &cons,
            SearchPolicy::SuccessiveHalving {
                seed: 1,
                eta: 3,
                budget: space.len(),
            },
            &engine,
        );
        assert!(!sh.sampled, "full budget must not sample");
        assert_eq!(engine.stats().search_rungs, 0);
        assert_eq!(format!("{:?}", ex.points), format!("{:?}", sh.points));
        assert_eq!(
            format!("{:?}", ex.front.entries()),
            format!("{:?}", sh.front.entries())
        );
    }

    #[test]
    fn successive_halving_trajectory_is_seeded_and_reproducible() {
        use claire_model::zoo;
        use claire_ppa::DseSpace;
        let space = DseSpace::dense(6); // 1296 slots
        let m = zoo::alexnet();
        let cons = Constraints::default();
        let policy = SearchPolicy::SuccessiveHalving {
            seed: 42,
            eta: 2,
            budget: 24,
        };
        let engine = Engine::serial();
        let a = search_with_engine(&m, &space, &cons, policy, &engine);
        let b = search_with_engine(
            &m,
            &space,
            &cons,
            policy,
            &Engine::new(8), // different thread count, same trajectory
        );
        assert!(a.sampled);
        assert!(engine.stats().search_rungs > 0, "rungs must have run");
        assert!(a.points.len() <= 24);
        assert_eq!(format!("{:?}", a.points), format!("{:?}", b.points));
        // The exactly priced final rung never exceeds the budget, and
        // its selections come from real evaluations.
        for p in &a.points {
            assert!(p.report.latency_s.is_finite());
            assert!(p.report.area_mm2 <= cons.chiplet_area_limit_mm2);
        }
    }

    #[test]
    fn generative_grid_search_screens_and_selects() {
        use claire_model::zoo;
        use claire_ppa::{GridAxis, GridSpace};
        let grid = GridSpace {
            sa_size: GridAxis::new(8, 8, 8),
            n_sa: GridAxis::new(2, 2, 8),
            n_act: GridAxis::new(2, 2, 8),
            n_pool: GridAxis::new(2, 2, 8),
        };
        assert_eq!(grid.size(), 4096);
        let m = zoo::resnet18();
        let cons = Constraints::default();
        let engine = Engine::serial();
        let out = search_with_engine(
            &m,
            &grid,
            &cons,
            SearchPolicy::SuccessiveHalving {
                seed: 7,
                eta: 4,
                budget: 32,
            },
            &engine,
        );
        assert!(!out.front.is_empty(), "grid must admit feasible points");
        assert!(out.points.len() <= 32);
        let stats = engine.stats();
        assert!(stats.dse_pruned > 0, "grid corners exceed the area cap");
        assert!(stats.search_rungs > 0);
        // Same grid, same seed: bit-identical trajectory.
        let again = search_with_engine(
            &m,
            &grid,
            &cons,
            SearchPolicy::SuccessiveHalving {
                seed: 7,
                eta: 4,
                budget: 32,
            },
            &Engine::serial(),
        );
        assert_eq!(format!("{:?}", out.points), format!("{:?}", again.points));
    }

    #[test]
    fn lb_screen_never_changes_selections() {
        use crate::dse::{custom_config_searched, sweep_with_engine};
        use claire_model::zoo;
        use claire_ppa::DseSpace;
        let space = DseSpace::default();
        let cons = Constraints::default();
        for m in [zoo::resnet18(), zoo::mobilenet_v2()] {
            let screened_engine = Engine::serial();
            let screened = sweep_with_engine(&m, &space, &cons, &screened_engine);
            let oracle =
                sweep_with_engine(&m, &space, &cons, &Engine::serial().with_pruning(false));
            assert!(screened.len() <= oracle.len());
            for objective in DseObjective::ALL {
                let a = custom_config_searched(
                    &m,
                    &space,
                    &cons,
                    objective,
                    SearchPolicy::Exhaustive,
                    &Engine::serial(),
                )
                .unwrap();
                let b = custom_config_searched(
                    &m,
                    &space,
                    &cons,
                    objective,
                    SearchPolicy::Exhaustive,
                    &Engine::serial().with_pruning(false),
                )
                .unwrap();
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{objective:?}");
            }
        }
    }
}
