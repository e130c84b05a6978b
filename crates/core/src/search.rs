//! Scalable DSE search: area and latency lower-bound screening, then
//! exact pricing through one prepared shell pricer.
//!
//! [`sweep_with_engine`] is Algorithm 1's sweep for one model over any
//! [`DesignSpace`], a three-stage search that handles spaces of 10⁶+
//! points without materializing the cross-product:
//!
//! * **Stage A — area screen.** Walks the space row by row (never
//!   collecting `HwParams` for pruned slots) and keeps points whose
//!   monolithic area fits the chiplet cap. The area is
//!   [`ShellPricer::area_mm2`]: the evaluator's own
//!   [`crate::config::monolithic_area_mm2`], folded from per-class
//!   tables, so it agrees with a full evaluation's `area_mm2` bit for
//!   bit and only provably infeasible points are dropped. Area is
//!   non-decreasing along an ascending `n_pool` axis (each unit area
//!   is its axis value times a positive constant, or a constant, and
//!   `f64` addition is monotone), so over such an axis each row stops
//!   at its first point over the cap; otherwise every slot is read.
//! * **Stage A′ — latency lower-bound screen.** Computes each
//!   survivor's compute-only cycle count in a plain loop
//!   ([`ShellPricer::lb_cycles`], four table reads; in seconds it is
//!   [`Engine::latency_lower_bound`]: latency at infinite
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
//!   unscreened sweep. An infinite slack (relaxation-ladder rungs)
//!   or an infeasible pivot widens the bound to ∞ — no pruning.
//! * **Stage B — exact pricing.** Prices the remaining candidates in
//!   contiguous blocks of [`STAGE_B_BLOCK`], the blocks being
//!   [`Engine::par_map`]'s items. Each block keeps its feasible points,
//!   in space order, in one `Vec` sized for the block, so every priced
//!   point is written once; the blocks in order are the survivor list,
//!   and one sweep answers the selection query of *every*
//!   [`crate::dse::DseObjective`] without re-pricing.
//!   [`crate::dse::custom_config_with_engine`] folds the selection over
//!   the blocks in place; [`sweep_with_engine`] concatenates them once.
//!   Why blocks: a fresh process pays a page fault for every page it
//!   first touches, so every buffer a priced point passes through costs
//!   faults, and a map over single points would pass each one through
//!   the map's per-chunk outcomes, their reassembly and its output
//!   before selection read it.
//!
//! Every stage prices through one [`ShellPricer`] for the model's
//! monolithic shell, built on the space's axes: the area screen reads
//! its per-class area tables, the lower bounds of stage A′ read
//! [`ShellPricer::lb_cycles`] from its per-axis cycle tables, and the
//! pivot and stage B read [`ShellPricer::price`], which is
//! bit-identical to [`Engine::evaluate`] on the shell at that point.
//! A bound is a few table reads, so the bounds are read in plain loops;
//! only stage B's pricing runs through [`Engine::par_map`].

use crate::config::Constraints;
use crate::dse::{monolithic_for, DsePoint, SHELL_HW};
use crate::parallel::{Engine, ShellPricer};
use crate::telemetry::ArgValue;
use claire_model::Model;
use claire_ppa::{space_points, DesignSpace, HwParams, SpaceAxes};

/// How the search walks the design space: always exhaustively. Kept
/// only because the benchmark replay still passes it to
/// [`search_with_engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchPolicy {
    /// Price every screened point exactly.
    #[default]
    Exhaustive,
}

/// [`sweep_with_engine`] under the benchmark replay's five-argument
/// signature; kept only for that call.
pub fn search_with_engine(
    model: &Model,
    space: &dyn DesignSpace,
    constraints: &Constraints,
    _policy: SearchPolicy,
    engine: &Engine,
) -> Vec<DsePoint> {
    sweep_with_engine(model, space, constraints, engine)
}

/// Stage B's block size: the candidates one parallel-map item prices.
/// Each block's feasible points land in one `Vec` sized for the block,
/// and a search of at most one block (any search of the 81-point
/// default space, such as serve's `what_if` and its relaxation rungs)
/// runs on the calling thread, because a map over one item wakes no
/// helper.
pub const STAGE_B_BLOCK: usize = 256;

/// Sweeps `space` for one model, keeping the exactly priced points
/// that satisfy the area and power-density constraints, in space
/// iteration order (Algorithm 1 lines 2–6; the latency constraint needs
/// the custom reference and is applied by the selection). The three
/// stages and their soundness argument are in the module docs; this
/// concatenates stage B's blocks once, at exact capacity.
///
/// The latency screen may drop *feasible* points that no objective can
/// select, so the list can be a strict, order-preserving subset of the
/// unscreened feasible set; every selection over it
/// ([`crate::dse::custom_config_with_engine`], the flat-plan replay) is
/// bit-identical to the unscreened sweep
/// (`engine.with_pruning(false)`) at any thread count.
///
/// A point's space index is a `u32`, so `space` must span at most
/// [`claire_ppa::MAX_POINTS`] slots, which `validate` on
/// [`claire_ppa::DseSpace`] and [`claire_ppa::GridSpace`] checks and
/// [`crate::dse::custom_config_with_engine`] enforces.
pub fn sweep_with_engine(
    model: &Model,
    space: &dyn DesignSpace,
    constraints: &Constraints,
    engine: &Engine,
) -> Vec<DsePoint> {
    sweep_blocks(model, space, constraints, engine).concat()
}

/// The three stages of [`sweep_with_engine`], returning stage B's
/// blocks in space order: each block holds the feasible points of
/// [`STAGE_B_BLOCK`] consecutive candidates (the last block of fewer),
/// so the blocks in order are the survivor list.
pub(crate) fn sweep_blocks(
    model: &Model,
    space: &dyn DesignSpace,
    constraints: &Constraints,
    engine: &Engine,
) -> Vec<Vec<DsePoint>> {
    let shell = monolithic_for(model, SHELL_HW);
    let axes = space.axes();
    let pricer = engine.shell_pricer(model, &shell, &axes);

    // Stage A: walk the space row by row through the area screen;
    // only survivors (index, point) are ever collected.
    let mut candidates: Vec<(u32, HwParams)> = if engine.pruning_enabled() {
        area_screen(engine, &axes, &pricer, constraints.chiplet_area_limit_mm2)
    } else {
        space_points(space).collect()
    };

    let evaluate = |idx: u32, hw: HwParams| -> Option<DsePoint> {
        let report = pricer.price(idx, hw).ok()?;
        constraints
            .admits(&report)
            .then_some(DsePoint { hw, report })
    };

    // Stage A′: the latency lower-bound screen. Gated off under fault
    // plans (corrupted costs break the bound's soundness) and skipped
    // outright when the slack is infinite — the bound would be ∞.
    if engine.lb_screen_enabled() && constraints.latency_slack.is_finite() && !candidates.is_empty()
    {
        let mut span = engine.telemetry().span("dse.lb_screen", "dse");
        // A plain loop: a bound is a few table reads, less than a
        // parallel map's per-item cost.
        let lbs: Vec<u64> = candidates
            .iter()
            .map(|&(idx, hw)| pricer.lb_cycles(idx, &hw))
            .collect();
        let (pivot, bound_s) = pivot_bound(&pricer, &candidates, &lbs, constraints);
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

    // Stage B: exact pricing, block by block; each block's feasible
    // points stay in space order.
    if engine.pruning_enabled() {
        engine.note_dse_evaluated(candidates.len() as u64);
    }
    let mut span = engine.telemetry().span("dse.eval", "dse");
    span.arg("points", ArgValue::Int(candidates.len() as u64));
    let blocks: Vec<&[(u32, HwParams)]> = candidates.chunks(STAGE_B_BLOCK).collect();
    let priced = engine.par_map(&blocks, |_, block| {
        let mut points = Vec::with_capacity(block.len());
        points.extend(block.iter().filter_map(|&(idx, hw)| evaluate(idx, hw)));
        points
    });
    drop(span);
    priced
}

/// Stage A′'s cutoff for one model, in seconds: prices the pivot — the
/// first of `points` (non-empty, in space order) with the minimal lower
/// bound in `lbs`, which is parallel to `points` (a `u64` compare,
/// exact and order-deterministic). A feasible pivot gives
/// `latency × (1 + slack)`; an infeasible or failed one gives no sound
/// bound, ∞, which keeps every point. Returns the pivot's position
/// with the cutoff. Shared by [`sweep_with_engine`] and the flat plan
/// ([`crate::plan::flat::build_eval_table`]).
pub(crate) fn pivot_bound(
    pricer: &ShellPricer<'_>,
    points: &[(u32, HwParams)],
    lbs: &[u64],
    constraints: &Constraints,
) -> (usize, f64) {
    let mut pivot = 0usize;
    for (i, &lb) in lbs.iter().enumerate() {
        if lb < lbs[pivot] {
            pivot = i;
        }
    }
    let (idx, hw) = points[pivot];
    let bound = match pricer.price(idx, hw) {
        Ok(report) if constraints.admits(&report) => {
            report.latency_s * (1.0 + constraints.latency_slack)
        }
        _ => f64::INFINITY,
    };
    (pivot, bound)
}

/// Stage A over the grid `axes`: the `(space index, point)` pairs
/// whose monolithic area ([`ShellPricer::area_mm2`]) fits `cap`, in
/// space order. Shared by [`sweep_with_engine`] and the flat plan
/// ([`crate::plan::flat::build_eval_table`]). The valid slots screened
/// out land on the `dse.pruned` counter and the `dse.screen` span
/// (slots with a zero axis value are not points and are never read).
///
/// The walk goes row by row, a row being the `n_pool` axis at fixed
/// `(sa_size, n_sa, n_act)`. Along a row only the pooling units' area
/// changes, each `f64::from(n_pool)` times a positive constant, and
/// `f64` addition is monotone; so when `n_pools` is non-decreasing the
/// row's area is non-decreasing and its fitting points are a prefix.
/// Such a row stops at its first point over the cap, and the rest of
/// it counts as screened. Over any other `n_pools` order every slot is
/// read.
pub(crate) fn area_screen(
    engine: &Engine,
    axes: &SpaceAxes,
    pricer: &ShellPricer<'_>,
    cap: f64,
) -> Vec<(u32, HwParams)> {
    let mut span = engine.telemetry().span("dse.screen", "dse");
    let nonzero = |values: &[u32]| values.iter().filter(|&&v| v != 0).count() as u64;
    let seen = nonzero(&axes.sa_sizes)
        * nonzero(&axes.n_sas)
        * nonzero(&axes.n_acts)
        * nonzero(&axes.n_pools);
    let ascending = axes.n_pools.windows(2).all(|w| w[0] <= w[1]);
    let (nn, na, np) = (axes.n_sas.len(), axes.n_acts.len(), axes.n_pools.len());
    let mut kept = Vec::new();
    for si in 0..axes.sa_sizes.len() {
        for ni in 0..nn {
            for ai in 0..na {
                let row = ((si * nn + ni) * na + ai) * np;
                for pi in 0..np {
                    let at = [si, ni, ai, pi];
                    let Some(hw) = axes.point(at) else {
                        continue;
                    };
                    if pricer.area_at(at) <= cap {
                        kept.push(((row + pi) as u32, hw));
                    } else if ascending {
                        break;
                    }
                }
            }
        }
    }
    let pruned = seen - kept.len() as u64;
    engine.note_dse_pruned(pruned);
    span.arg("pruned", ArgValue::Int(pruned));
    span.arg("kept", ArgValue::Int(kept.len() as u64));
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::DseObjective;

    #[test]
    fn generative_grid_search_screens_and_selects() {
        use crate::dse::select_point;
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
        let points = sweep_with_engine(&m, &grid, &cons, &engine);
        let pairs = points.iter().map(|p| (p.hw, &p.report));
        assert!(
            select_point(pairs, &cons, DseObjective::MinArea).is_some(),
            "grid must admit feasible points"
        );
        let stats = engine.stats();
        assert!(stats.dse_pruned > 0, "grid corners exceed the area cap");
        assert!(stats.dse_evaluated > 0, "survivors are priced");
        assert_eq!(
            stats.dse_pruned + stats.dse_lb_pruned + stats.dse_evaluated,
            4096
        );
        // Same grid at 8 threads: bit-identical survivors.
        let again = sweep_with_engine(&m, &grid, &cons, &Engine::new(8));
        assert_eq!(format!("{points:?}"), format!("{again:?}"));
    }

    #[test]
    fn zero_valued_slots_are_skipped_by_the_tables_and_the_row_walk() {
        use claire_model::zoo;
        use claire_ppa::DseSpace;
        // `validate` rejects zeros, so the space goes in as a plain
        // `DesignSpace`; its zero slots are not points and must be
        // neither priced nor counted. The `n_pools` axis ascends (zero
        // first) in one space and descends in the other.
        let ascending = DseSpace {
            sa_sizes: vec![16, 0, 32, 64],
            n_sas: vec![16, 64],
            n_acts: vec![0, 8, 32],
            n_pools: vec![0, 8, 16, 64],
            threads: None,
        };
        let descending = DseSpace {
            n_pools: vec![64, 16, 0, 8],
            ..ascending.clone()
        };
        let cons = Constraints::default();
        for space in [ascending, descending] {
            let space: &dyn DesignSpace = &space;
            for m in [zoo::resnet18(), zoo::gpt2()] {
                let tables = Engine::serial();
                let oracle = Engine::serial().with_cache(false);
                let a = sweep_with_engine(&m, space, &cons, &tables);
                let b = sweep_with_engine(&m, space, &cons, &oracle);
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
                let (sa, sb) = (tables.stats(), oracle.stats());
                assert_eq!(
                    (sa.dse_pruned, sa.dse_lb_pruned, sa.dse_evaluated),
                    (sb.dse_pruned, sb.dse_lb_pruned, sb.dse_evaluated)
                );
                // Every valid point is screened exactly once: 3·2·2·3.
                assert_eq!(sa.dse_pruned + sa.dse_lb_pruned + sa.dse_evaluated, 36);
                assert!(sa.dse_pruned > 0, "the 64×64 arrays exceed the cap");
            }
        }
    }

    #[test]
    fn descending_pool_axis_walks_the_whole_row() {
        use crate::config::monolithic_area_mm2;
        use claire_model::zoo;
        use claire_ppa::DseSpace;
        // One row, n_pool descending then ascending: the cap is the
        // middle point's area, so the first point is over it and the
        // fitting point comes after it.
        let space = DseSpace {
            sa_sizes: vec![32],
            n_sas: vec![32],
            n_acts: vec![16],
            n_pools: vec![64, 8, 32],
            threads: None,
        };
        let m = zoo::resnet18();
        let shell = monolithic_for(&m, SHELL_HW);
        let fits = HwParams::new(32, 32, 16, 8);
        let cons = Constraints {
            chiplet_area_limit_mm2: monolithic_area_mm2(&shell.classes, &fits),
            ..Constraints::default()
        };
        let engine = Engine::serial();
        let out = sweep_with_engine(&m, &space, &cons, &engine);
        assert_eq!(engine.stats().dse_pruned, 2);
        let hws: Vec<HwParams> = out.iter().map(|p| p.hw).collect();
        assert_eq!(hws, vec![fits]);
    }

    #[test]
    fn lb_screen_never_changes_selections() {
        use crate::dse::custom_config_with_engine;
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
                let a = custom_config_with_engine(&m, &space, &cons, objective, &Engine::serial())
                    .unwrap();
                let b = custom_config_with_engine(
                    &m,
                    &space,
                    &cons,
                    objective,
                    &Engine::serial().with_pruning(false),
                )
                .unwrap();
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{objective:?}");
            }
        }
    }
}
