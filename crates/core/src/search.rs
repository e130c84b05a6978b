//! Scalable DSE search: area and latency lower-bound screening, then
//! exact pricing through one prepared shell pricer.
//!
//! [`sweep_with_engine`] is Algorithm 1's sweep for one model over any
//! [`DesignSpace`], a three-stage search that handles spaces of 10⁶+
//! points without materializing the cross-product or any per-point
//! list. It walks the space's grid by **row runs**: a row is the
//! `n_pool` axis at fixed `(sa_size, n_sa, n_act)`, and a run is a
//! stretch of consecutive `n_pool` positions of one row whose points
//! all passed the area screen (`Run`). Stage A emits runs; stages A′
//! and B read runs and axis positions, and never a point list.
//!
//! * **Stage A — area screen.** Walks the space row by row and keeps
//!   the runs of points whose monolithic area fits the chiplet cap.
//!   The area is the evaluator's own
//!   [`crate::config::monolithic_area_mm2`], folded from per-class
//!   tables: the terms before the first pooling class once per row,
//!   then per point the pooling and remaining classes' terms in class
//!   order and the routers. That is the same left-to-right fold resumed
//!   from the same partial sum, so it agrees with a full evaluation's
//!   `area_mm2` bit for bit and only provably infeasible points are
//!   dropped. Area is non-decreasing along an ascending `n_pool` axis
//!   (each unit area is its axis value times a positive constant, or a
//!   constant, and `f64` addition is monotone), so over such an axis
//!   each row stops at its first point over the cap; otherwise every
//!   slot is read and the runs are maximal. Slots with a zero axis
//!   value are not points: they are never read or counted.
//! * **Stage A′ — latency lower-bound screen.** A point's compute-only
//!   cycle count ([`ShellPricer::lb_cycles`]; in seconds it is
//!   [`Engine::latency_lower_bound`]: latency at infinite interconnect
//!   bandwidth, an *exact* lower bound on the evaluated `latency_s`) is
//!   its row's shared part — systolic ⊕ activation ⊕ reshape, ⊕ being
//!   wrapping `u64` addition, read once per run — ⊕ its own
//!   pooling-table entry. Wrapping addition is associative and
//!   commutative, so that is the batch kernel's count exactly. One
//!   walk finds the **pivot** — the first point in space order with
//!   minimal bound — and prices it exactly. When the pivot is
//!   feasible, every point whose lower bound exceeds
//!   `pivot_latency × (1 + latency_slack)` is dropped. Soundness: the
//!   best feasible latency `L*` satisfies `L* ≤ pivot_latency`, so a
//!   dropped point's true latency exceeds `pivot_latency·(1+s) ≥
//!   L*·(1+s)` — the selection window — and (having strictly worse
//!   latency than the pivot) can neither win any objective inside the
//!   window nor move `L*` itself. Survivors are priced exactly, so
//!   selections stay bit-identical to the unscreened sweep. An infinite
//!   slack (relaxation-ladder rungs) or an infeasible pivot widens the
//!   bound to ∞ — no pruning. No bound is stored: stage B recomputes a
//!   point's bound where it applies the cutoff, one table read and one
//!   add.
//! * **Stage B — exact pricing.** Prices the remaining candidates in
//!   blocks of [`STAGE_B_BLOCK`] consecutive candidates, the blocks
//!   being [`Engine::par_map`]'s items; a counting walk over the runs
//!   places each block's start once the cutoff is known. A block prices
//!   its candidates `LANES` (8) at a time through the pricer's
//!   `LaneFold`: each lane starts from its point's compute seconds and
//!   every transfer latency is added to every lane in edge order, so
//!   each lane keeps its own point's edge-order fold and its report is
//!   bit-identical to [`ShellPricer::price`]'s. Each block keeps its
//!   feasible points, in space order, in one `Vec` reserved for the
//!   block, so every priced point is written once; the blocks in order
//!   are the survivor list, and one sweep answers the selection query
//!   of *every* [`crate::dse::DseObjective`] without re-pricing.
//!   [`crate::dse::custom_config_with_engine`] folds the selection over
//!   the blocks in place; [`sweep_with_engine`] concatenates them once.
//!   A pricer that is not prepared (cache-off engines, fault plans,
//!   shells with no comm sequence) takes the same walk and prices each
//!   candidate through [`ShellPricer::price`].
//!
//! Why runs and blocks: a fresh process pays a page fault for every
//! page it first touches, so every per-point buffer costs faults.
//! Runs take a few words per row, block starts a few per block, and
//! the only per-point buffer left is the blocks' output.
//!
//! Every stage prices through one [`ShellPricer`] for the model's
//! monolithic shell, built on the space's axes, which is bit-identical
//! to [`Engine::evaluate`] on the shell at every point. Only stage B's
//! pricing runs through [`Engine::par_map`]; the screens are plain
//! loops of a few table reads per point.

use crate::config::Constraints;
use crate::dse::{monolithic_for, DsePoint, SHELL_HW};
use crate::error::ClaireError;
use crate::evaluate::PpaReport;
use crate::parallel::{Engine, ShellPricer};
use crate::telemetry::ArgValue;
use claire_model::Model;
use claire_ppa::{DesignSpace, HwParams, SpaceAxes};
use std::ops::ControlFlow;

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

    // Stage A: the row walk through the area screen; with pruning off,
    // every valid slot is a run.
    let runs = if engine.pruning_enabled() {
        area_screen(engine, &pricer, constraints.chiplet_area_limit_mm2)
    } else {
        valid_runs(&axes)
    };
    let screened: u64 = runs.iter().map(Run::len).sum();

    // Stage A′: the latency lower-bound screen's cutoff, in seconds.
    // Gated off under fault plans (corrupted costs break the bound's
    // soundness) and skipped outright when the slack is infinite — the
    // bound would be ∞.
    let lb_screen =
        engine.lb_screen_enabled() && constraints.latency_slack.is_finite() && screened > 0;
    let mut span = lb_screen.then(|| engine.telemetry().span("dse.lb_screen", "dse"));
    let cutoff = span.as_mut().and_then(|span| {
        let (index, hw) = pivot(&pricer, &runs)?;
        span.arg("pivot", ArgValue::Text(hw.to_string()));
        let bound = pivot_bound(&pricer, index, hw, constraints);
        bound.is_finite().then_some(bound)
    });

    // Block starts: every STAGE_B_BLOCK-th point that passes the
    // cutoff. The pivot's own bound never exceeds its latency, so the
    // pivot always passes.
    let mut starts = Vec::new();
    let mut kept = 0u64;
    walk(&pricer, &runs, Cursor::default(), cutoff, false, |point| {
        if kept.is_multiple_of(STAGE_B_BLOCK as u64) {
            starts.push(point.cursor);
        }
        kept += 1;
        ControlFlow::Continue(())
    });
    if let (Some(span), Some(_)) = (span.as_mut(), cutoff) {
        engine.note_dse_lb_pruned(screened - kept);
        span.arg("pruned", ArgValue::Int(screened - kept));
        span.arg("kept", ArgValue::Int(kept));
    }
    drop(span);

    // Stage B: exact pricing, block by block; each block's feasible
    // points stay in space order.
    if engine.pruning_enabled() {
        engine.note_dse_evaluated(kept);
    }
    let mut span = engine.telemetry().span("dse.eval", "dse");
    span.arg("points", ArgValue::Int(kept));
    let block = STAGE_B_BLOCK as u64;
    let priced = engine.par_map(&starts, |b, &from| {
        let len = (kept - b as u64 * block).min(block) as usize;
        price_block(&pricer, &runs, from, len, cutoff, constraints)
    });
    drop(span);
    priced
}

/// Stage B for one block: prices the `len` candidates from `from` on
/// (the points [`walk`] passes under `cutoff`), [`LANES`] at a time
/// when the pricer is prepared and one by one through
/// [`ShellPricer::price`] otherwise, and keeps the feasible points in
/// space order in a `Vec` reserved for all `len`.
///
/// [`LANES`]: crate::parallel::LANES
fn price_block(
    pricer: &ShellPricer<'_>,
    runs: &[Run],
    from: Cursor,
    len: usize,
    cutoff: Option<f64>,
    constraints: &Constraints,
) -> Vec<DsePoint> {
    let mut points = Vec::with_capacity(len);
    let mut keep = |hw: HwParams, priced: Result<PpaReport, ClaireError>| {
        if let Ok(report) = priced {
            if constraints.admits(&report) {
                points.push(DsePoint { hw, report });
            }
        }
    };
    let mut left = len;
    let mut counted = || {
        left -= 1;
        if left == 0 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    };
    match pricer.lanes() {
        Some(mut lanes) => {
            walk(pricer, runs, from, cutoff, true, |p| {
                if lanes.push(p.hw, p.cycles(pricer), pricer.area_at(p.at)) {
                    lanes.drain(&mut keep);
                }
                counted()
            });
            lanes.drain(&mut keep);
        }
        None => walk(pricer, runs, from, cutoff, false, |p| {
            keep(p.hw, pricer.price(p.index, p.hw));
            counted()
        }),
    }
    points
}

/// Stage A′'s pivot: the first point of `runs` in space order with the
/// minimal compute-cycle lower bound (a `u64` compare, exact and
/// order-deterministic), as `(space index, point)`; `None` when the
/// runs hold no point.
fn pivot(pricer: &ShellPricer<'_>, runs: &[Run]) -> Option<(u32, HwParams)> {
    let mut best: Option<(u64, u32, HwParams)> = None;
    walk(pricer, runs, Cursor::default(), None, true, |p| {
        let lb = p.cycles(pricer);
        if best.is_none_or(|(min, ..)| lb < min) {
            best = Some((lb, p.index, p.hw));
        }
        ControlFlow::Continue(())
    });
    best.map(|(_, index, hw)| (index, hw))
}

/// Stage A′'s cutoff for one model, in seconds, from its pivot — the
/// point `hw` at space index `index`, the first with the minimal lower
/// bound in space order: a feasible pivot gives
/// `latency × (1 + slack)`; an infeasible or failed one gives no sound
/// bound, ∞, which keeps every point. Shared by [`sweep_with_engine`]
/// and the flat plan ([`crate::plan::flat::build_eval_table`]).
pub(crate) fn pivot_bound(
    pricer: &ShellPricer<'_>,
    index: u32,
    hw: HwParams,
    constraints: &Constraints,
) -> f64 {
    match pricer.price(index, hw) {
        Ok(report) if constraints.admits(&report) => {
            report.latency_s * (1.0 + constraints.latency_slack)
        }
        _ => f64::INFINITY,
    }
}

/// A row run: the consecutive `n_pool` positions `lo..hi` of one row
/// of the grid (the `n_pool` axis at fixed `(sa_size, n_sa, n_act)`),
/// every one a point that passed the area screen.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run {
    /// The row's number: the space index of its first slot over
    /// `n_pools.len()`.
    row: u32,
    lo: u32,
    hi: u32,
}

impl Run {
    /// The run's point count.
    fn len(&self) -> u64 {
        u64::from(self.hi - self.lo)
    }

    /// The run's points from `n_pool` position `from` on, in space
    /// order, as `(space index, axis positions, point)`.
    fn points_from(
        self,
        axes: &SpaceAxes,
        from: u32,
    ) -> impl Iterator<Item = (u32, [usize; 4], HwParams)> + '_ {
        let base = self.row as usize * axes.n_pools.len();
        let [si, ni, ai, _] = axes.decode(base);
        (from as usize..self.hi as usize).map(move |pi| {
            let hw = HwParams {
                sa_size: axes.sa_sizes[si],
                n_sa: axes.n_sas[ni],
                n_act: axes.n_acts[ai],
                n_pool: axes.n_pools[pi],
            };
            ((base + pi) as u32, [si, ni, ai, pi], hw)
        })
    }

    /// The run's `(space index, point)` pairs, in space order.
    pub(crate) fn points(self, axes: &SpaceAxes) -> impl Iterator<Item = (u32, HwParams)> + '_ {
        self.points_from(axes, self.lo)
            .map(|(index, _, hw)| (index, hw))
    }
}

/// A position in a run list: `n_pool` position `pi` of run `run`, or
/// the run's first point when `pi` is before it ([`Cursor::default`]
/// is the first point of the first run).
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    run: usize,
    pi: u32,
}

/// One point reached by [`walk`].
struct WalkPoint {
    /// Where the point sits in the run list.
    cursor: Cursor,
    index: u32,
    /// Axis positions.
    at: [usize; 4],
    hw: HwParams,
    /// The compute-cycle lower bound, when the walk computed it.
    known_cycles: Option<u64>,
}

impl WalkPoint {
    /// The point's compute-cycle lower bound
    /// ([`ShellPricer::lb_cycles`]): the walk's, or computed now when
    /// the walk was not asked for it.
    fn cycles(&self, pricer: &ShellPricer<'_>) -> u64 {
        self.known_cycles
            .unwrap_or_else(|| pricer.lb_cycles(self.index, &self.hw))
    }
}

/// Visits the points of `runs` from `from` on, in space order,
/// skipping every point whose compute-cycle lower bound, in seconds,
/// exceeds `cutoff`, until `visit` breaks. A point's bound (its run's
/// [`ShellPricer::row_cycles`], read once per run, then
/// [`ShellPricer::cycles_in_row`]) is computed when there is a cutoff
/// or `want_cycles` asks for it, and handed to `visit`.
fn walk(
    pricer: &ShellPricer<'_>,
    runs: &[Run],
    from: Cursor,
    cutoff: Option<f64>,
    want_cycles: bool,
    mut visit: impl FnMut(WalkPoint) -> ControlFlow<()>,
) {
    let clock = claire_ppa::tech28::CLOCK_HZ;
    let need_cycles = want_cycles || cutoff.is_some();
    let axes = pricer.axes();
    for (ri, run) in runs.iter().enumerate().skip(from.run) {
        let lo = if ri == from.run {
            from.pi.max(run.lo)
        } else {
            run.lo
        };
        let mut row = None;
        for (index, at, hw) in run.points_from(axes, lo) {
            let cycles = need_cycles.then(|| {
                let row = *row.get_or_insert_with(|| pricer.row_cycles(at, &hw));
                pricer.cycles_in_row(row, at[3], &hw)
            });
            if let (Some(cycles), Some(cutoff)) = (cycles, cutoff) {
                if cycles as f64 / clock > cutoff {
                    continue;
                }
            }
            let cursor = Cursor {
                run: ri,
                pi: at[3] as u32,
            };
            let point = WalkPoint {
                cursor,
                index,
                at,
                hw,
                known_cycles: cycles,
            };
            if visit(point).is_break() {
                return;
            }
        }
    }
}

/// Stage A over the pricer's grid: the runs of points whose monolithic
/// area ([`ShellPricer::area_mm2`]) fits `cap`, in space order. Shared
/// by [`sweep_with_engine`] and the flat plan
/// ([`crate::plan::flat::build_eval_table`]), which expands them into
/// its point lists. The valid slots screened out land on the
/// `dse.pruned` counter and the `dse.screen` span (slots with a zero
/// axis value are not points and are never read).
///
/// Each row folds its shared area terms once
/// ([`crate::config::AreaTables::row_mm2`]). Along a row only the
/// pooling units' area changes, each `f64::from(n_pool)` times a
/// positive constant, and `f64` addition is monotone; so when `n_pools`
/// is non-decreasing the row's area is non-decreasing and its fitting
/// points are a prefix. Such a row stops at its first point over the
/// cap, and the rest of it counts as screened. Over any other `n_pools`
/// order every slot is read.
pub(crate) fn area_screen(engine: &Engine, pricer: &ShellPricer<'_>, cap: f64) -> Vec<Run> {
    let mut span = engine.telemetry().span("dse.screen", "dse");
    let axes = pricer.axes();
    let tables = pricer.area_tables();
    let nonzero = |values: &[u32]| values.iter().filter(|&&v| v != 0).count() as u64;
    let seen = nonzero(&axes.sa_sizes)
        * nonzero(&axes.n_sas)
        * nonzero(&axes.n_acts)
        * nonzero(&axes.n_pools);
    let ascending = axes.n_pools.windows(2).all(|w| w[0] <= w[1]);
    let mut runs = Vec::new();
    for_each_row(axes, |row, at @ [si, ni, ai, _]| {
        let shared = tables.row_mm2(at);
        row_runs(&mut runs, row, &axes.n_pools, ascending, |pi| {
            tables.area_in_row(shared, [si, ni, ai, pi]) <= cap
        });
    });
    let kept: u64 = runs.iter().map(Run::len).sum();
    let pruned = seen - kept;
    engine.note_dse_pruned(pruned);
    span.arg("pruned", ArgValue::Int(pruned));
    span.arg("kept", ArgValue::Int(kept));
    runs
}

/// Every valid slot of `axes` as runs: stage A with pruning off.
fn valid_runs(axes: &SpaceAxes) -> Vec<Run> {
    let mut runs = Vec::new();
    for_each_row(axes, |row, _| {
        row_runs(&mut runs, row, &axes.n_pools, false, |_| true)
    });
    runs
}

/// Calls `f(row, at)` for each row of `axes` in space order whose
/// `(sa_size, n_sa, n_act)` values are all non-zero, `at` being the
/// row's axis positions (its `n_pool` position 0).
fn for_each_row(axes: &SpaceAxes, mut f: impl FnMut(u32, [usize; 4])) {
    let (nn, na) = (axes.n_sas.len(), axes.n_acts.len());
    for (si, &sa_size) in axes.sa_sizes.iter().enumerate() {
        for (ni, &n_sa) in axes.n_sas.iter().enumerate() {
            for (ai, &n_act) in axes.n_acts.iter().enumerate() {
                if sa_size != 0 && n_sa != 0 && n_act != 0 {
                    f(((si * nn + ni) * na + ai) as u32, [si, ni, ai, 0]);
                }
            }
        }
    }
}

/// Appends the maximal runs of row `row` whose points `fits` accepts.
/// `fits` is called in `n_pool` order at valid (non-zero) positions
/// only; with `stop` set the row ends at its first rejected point.
fn row_runs(
    runs: &mut Vec<Run>,
    row: u32,
    n_pools: &[u32],
    stop: bool,
    mut fits: impl FnMut(usize) -> bool,
) {
    let mut lo = None;
    for (pi, &n_pool) in n_pools.iter().enumerate() {
        if n_pool != 0 && fits(pi) {
            lo.get_or_insert(pi as u32);
            continue;
        }
        if let Some(lo) = lo.take() {
            runs.push(Run {
                row,
                lo,
                hi: pi as u32,
            });
        }
        if n_pool != 0 && stop {
            return;
        }
    }
    if let Some(lo) = lo {
        runs.push(Run {
            row,
            lo,
            hi: n_pools.len() as u32,
        });
    }
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
    fn lane_fold_blocks_price_like_single_points() {
        use claire_model::{zoo, LayerKind, Linear, ModelBuilder, ModelClass};
        use claire_ppa::DseSpace;
        // A one-layer model has no edge, so no transfer; Mixtral-8x7B's
        // monolithic sequence holds 512, and DETR's 128 transfers have
        // latencies whose sum depends on the order they are added in.
        let mut one = ModelBuilder::new("one layer", ModelClass::Transformer);
        one.push(
            "fc",
            LayerKind::Linear(Linear {
                in_features: 64,
                out_features: 32,
                tokens: 4,
            }),
        );
        let zoo_model = |name| zoo::by_name(name).expect("zoo model");
        let space = DseSpace::dense(3);
        let axes = space.axes();
        let runs = valid_runs(&axes);
        let open = Constraints {
            chiplet_area_limit_mm2: f64::MAX,
            power_density_limit_w_per_mm2: f64::MAX,
            ..Constraints::default()
        };
        let clock = claire_ppa::tech28::CLOCK_HZ;
        for model in [one.build(), zoo_model("Mixtral-8x7B"), zoo_model("DETR")] {
            let shell = monolithic_for(&model, SHELL_HW);
            let engine = Engine::serial();
            let pricer = engine.shell_pricer(&model, &shell, &axes);
            assert!(pricer.lanes().is_some(), "{}", model.name());
            let mut bounds: Vec<u64> = runs
                .iter()
                .flat_map(|run| run.points(&axes))
                .map(|(index, hw)| pricer.lb_cycles(index, &hw))
                .collect();
            bounds.sort_unstable();
            // No cutoff, and one that drops about half the points.
            for cutoff in [None, Some(bounds[bounds.len() / 2] as f64 / clock)] {
                let mut survivors = Vec::new();
                walk(&pricer, &runs, Cursor::default(), cutoff, false, |p| {
                    survivors.push((p.cursor, p.index, p.hw));
                    ControlFlow::Continue(())
                });
                // From a run's first point, and from the middle of one.
                for first in [0, 4] {
                    for len in 1..=17 {
                        let want: Vec<(HwParams, PpaReport)> = survivors[first..first + len]
                            .iter()
                            .map(|&(_, index, hw)| (hw, pricer.price(index, hw).expect("priced")))
                            .collect();
                        let got =
                            price_block(&pricer, &runs, survivors[first].0, len, cutoff, &open);
                        let got: Vec<(HwParams, PpaReport)> =
                            got.into_iter().map(|p| (p.hw, p.report)).collect();
                        assert_eq!(
                            format!("{got:?}"),
                            format!("{want:?}"),
                            "{} len {len} from {first}",
                            model.name()
                        );
                    }
                }
            }
        }
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
