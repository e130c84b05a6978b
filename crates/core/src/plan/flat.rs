//! The flat execution plan: one up-front item set for a whole flow.
//!
//! Every flow runs on this plan: training, the test phase, and a
//! resident server's custom batches. It enumerates **every**
//! `(model, hw-point)` evaluation a run's selections need as one item
//! set and feeds it through a single [`Engine::par_map`], so the
//! atomic work cursor balances points — not models — across workers.
//! (Per-model sweeps would serialise their nested maps inside workers,
//! and models of very different sizes would leave workers idle.)
//!
//! The per-model and per-subset *selections* then replay serially
//! from the resulting [`EvalTable`]. A row applies exactly the
//! screens of the single-subject search
//! ([`crate::search::sweep_with_engine`]); replay calls the same
//! selection code (`dse::select_custom_config`,
//! `dse::screen_set_points`, `dse::select_set_hw`) on the same point
//! lists in the same space order. Each model prices through one [`ShellPricer`] for its shell,
//! built before the maps and resolved on first use, so a row the area
//! screen empties touches no memo tier. Every table entry is the
//! pricer call the search would make — bit-identical to
//! [`Engine::evaluate`] on the shell, deterministic and
//! cache-state-independent by the engine's core invariant — so a
//! planned selection equals the single-subject search's bit for bit,
//! at any thread count.

use crate::config::{Constraints, DesignConfig};
use crate::dse::{
    member_total, monolithic_for, screen_set_points, select_custom_config, select_set_hw,
    DseObjective, SHELL_HW,
};
use crate::error::ClaireError;
use crate::evaluate::PpaReport;
use crate::parallel::{Engine, ShellPricer};
use crate::search::{area_screen, pivot_bound};
use crate::telemetry::ArgValue;
use claire_model::{Model, OpClass};
use claire_ppa::{space_points, DesignSpace, DseSpace, HwParams, SpaceAxes};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One model's slice of the evaluation table: its area-screened DSE
/// points in space order, each with its monolithic-shell evaluation
/// (`None` when the evaluation surfaced an error — the points the
/// search drops) unless the point is *unpriced*: dropped before
/// pricing by the latency lower-bound screen, exactly the points the
/// search never prices.
#[derive(Debug, Clone)]
pub struct ModelRow {
    /// The model's area-screened `(space index, point)` pairs, in
    /// space order.
    pub points: Vec<(u32, HwParams)>,
    /// Per-point monolithic-shell reports, parallel to `points`.
    /// `None` for failed evaluations *and* for unpriced points —
    /// `unpriced` tells them apart.
    pub reports: Vec<Option<PpaReport>>,
    /// Parallel to `points`: `true` when the lower-bound screen
    /// dropped the point, so the plan never priced it. A subset replay
    /// that still needs such a point (its member-set bound can be
    /// looser than this row's pivot bound) prices it lazily through the
    /// member's shell pricer — see [`set_config_from_table`].
    unpriced: Vec<bool>,
}

impl ModelRow {
    /// The position in `points` of the point at space index `index`,
    /// found by binary search (`points` is in space order). `None`
    /// when the area screen dropped the point; a set sweep visits the
    /// intersection of its members' area screens, so its lookups
    /// always land.
    fn position(&self, index: u32) -> Option<usize> {
        self.points.binary_search_by_key(&index, |&(i, _)| i).ok()
    }
}

/// The flat plan's output: every `(model, hw-point)` evaluation a flow
/// needs, computed once through a single load-balanced parallel map.
#[derive(Debug, Clone)]
pub struct EvalTable {
    /// The full DSE space as `(space index, point)` pairs, in
    /// iteration order (the subset replays re-screen from it).
    pub space_points: Vec<(u32, HwParams)>,
    /// The space's axes, which the subset replays' member pricers
    /// key their tables on.
    pub axes: SpaceAxes,
    /// Per-model monolithic DSE shells, parallel to the planned model
    /// list.
    pub shells: Vec<DesignConfig>,
    /// Per-model rows, parallel to the planned model list.
    pub rows: Vec<ModelRow>,
}

/// Builds the evaluation table for `models`. Each model's points pass
/// the search's stage A (its own area screen, `search::area_screen`,
/// whose row runs expand into the row's point list)
/// and stage A′ (the latency lower-bound screen), with identical
/// constraints and counters. The union of all remaining
/// `(model, hw-point)` items is evaluated through one
/// [`Engine::par_map`], and the item count lands on the `plan.items`
/// counter. Every bound and evaluation goes through the model's one
/// [`ShellPricer`], shared by the lower-bound loop, the pivots and the
/// big map.
///
/// `cancels` is parallel to `models` (an empty slice disables
/// cancellation). Each evaluation item checks its model's flag when a
/// worker claims it — the cooperative checkpoint — and returns
/// unevaluated when the flag is set, so an expired request stops
/// consuming workers at item granularity. A cancelled model's row is
/// garbage (its caller must discard it); every *other* model's row is
/// bit-identical to an uncancelled build, because screens, bounds and
/// evaluations are per-model and the shared memo tiers hold
/// exact values — skipping a neighbour's items can only *miss* warm
/// entries, never write wrong ones.
pub fn build_eval_table(
    models: &[Model],
    space: &DseSpace,
    constraints: &Constraints,
    engine: &Engine,
    cancels: &[Arc<AtomicBool>],
) -> EvalTable {
    let cancelled = |mi: usize| cancels.get(mi).is_some_and(|c| c.load(Ordering::Relaxed));
    let space_points: Vec<(u32, HwParams)> = space_points(space).collect();
    let axes = space.axes();
    let shells: Vec<DesignConfig> = models.iter().map(|m| monolithic_for(m, SHELL_HW)).collect();
    let pricers: Vec<ShellPricer<'_>> = models
        .iter()
        .zip(&shells)
        .map(|(m, shell)| engine.shell_pricer(m, shell, &axes))
        .collect();

    // Stage A per model: the search's own area screen.
    let mut rows: Vec<ModelRow> = pricers
        .iter()
        .map(|pricer| {
            let points = if engine.pruning_enabled() {
                area_screen(engine, pricer, constraints.chiplet_area_limit_mm2)
                    .into_iter()
                    .flat_map(|run| run.points(&axes))
                    .collect()
            } else {
                space_points.clone()
            };
            let n = points.len();
            ModelRow {
                points,
                reports: Vec::new(),
                unpriced: vec![false; n],
            }
        })
        .collect();

    // Stage A′ per model: the search's latency lower-bound screen (see
    // [`crate::search`]). All models' lower bounds run in one plain
    // loop (a bound is a few reads of the pricer's cycle tables, less
    // than a parallel map's per-item cost), each model's pivot — its
    // first minimal-bound point in space order — is priced, and every
    // point whose bound exceeds the pivot's slack-widened latency is
    // marked unpriced: provably never selectable, so the plan's big
    // map need not price it.
    if engine.lb_screen_enabled() && constraints.latency_slack.is_finite() {
        let mut span = engine.telemetry().span("plan.lb_screen", "plan");
        let lbs: Vec<u64> = rows
            .iter()
            .zip(&pricers)
            .flat_map(|(row, pricer)| {
                row.points
                    .iter()
                    .map(move |&(idx, hw)| pricer.lb_cycles(idx, &hw))
            })
            .collect();
        // Per-model lb slices (rows are contiguous in the flat list).
        let mut offsets = Vec::with_capacity(rows.len());
        let mut at = 0usize;
        for row in &rows {
            offsets.push(at);
            at += row.points.len();
        }
        // Price each model's pivot (one small parallel map over
        // models). An empty row has no pivot. A cancelled model gets an
        // infinite bound, which keeps its points unscreened; the big
        // map below skips them anyway (the cooperative checkpoint).
        let bounds: Vec<f64> = engine.par_map(&rows, |mi, row| {
            if row.points.is_empty() || cancelled(mi) {
                return f64::INFINITY;
            }
            // The first point with the minimal bound, in space order
            // (`min_by_key` keeps the first of equal minima).
            let slice = &lbs[offsets[mi]..offsets[mi] + row.points.len()];
            let pivot = slice.iter().enumerate().min_by_key(|&(_, &lb)| lb);
            let (index, hw) = row.points[pivot.map_or(0, |(i, _)| i)];
            pivot_bound(&pricers[mi], index, hw, constraints)
        });
        let clock = claire_ppa::tech28::CLOCK_HZ;
        let mut total_pruned: u64 = 0;
        for (mi, row) in rows.iter_mut().enumerate() {
            if !bounds[mi].is_finite() {
                continue;
            }
            let slice = &lbs[offsets[mi]..offsets[mi] + row.points.len()];
            for (pi, &lb) in slice.iter().enumerate() {
                // The pivot's own bound never exceeds its latency, so
                // the pivot always survives its own screen.
                if lb as f64 / clock > bounds[mi] {
                    row.unpriced[pi] = true;
                    total_pruned += 1;
                }
            }
        }
        engine.note_dse_lb_pruned(total_pruned);
        span.arg("pruned", ArgValue::Int(total_pruned));
    }

    if engine.pruning_enabled() {
        let evaluated: u64 = rows
            .iter()
            .map(|r| r.unpriced.iter().filter(|&&u| !u).count() as u64)
            .sum();
        engine.note_dse_evaluated(evaluated);
    }

    // The flat item set: every priced evaluation of the flow, one
    // parallel map, points (not models) as the unit of work claiming.
    let items: Vec<(usize, usize)> = rows
        .iter()
        .enumerate()
        .flat_map(|(mi, row)| {
            (0..row.points.len())
                .filter(|&pi| !row.unpriced[pi])
                .map(move |pi| (mi, pi))
        })
        .collect();
    engine.note_plan_items(items.len() as u64);
    let mut span = engine.telemetry().span("plan.eval", "plan");
    span.arg("items", ArgValue::Int(items.len() as u64));
    let reports: Vec<Option<PpaReport>> = engine.par_map(&items, |_, &(mi, pi)| {
        // Cooperative cancellation checkpoint, at item-claim time: an
        // expired model's remaining items fall through unevaluated.
        if cancelled(mi) {
            return None;
        }
        let (idx, hw) = rows[mi].points[pi];
        pricers[mi].price(idx, hw).ok()
    });
    drop(span);
    // The pricers borrow `axes` and `shells`, which move into the
    // table below.
    drop(pricers);

    // Scatter the results back into per-model rows; unpriced slots
    // stay `None`.
    let mut it = reports.into_iter();
    for row in &mut rows {
        row.reports = row
            .unpriced
            .iter()
            .map(|&unpriced| if unpriced { None } else { it.next().flatten() })
            .collect();
    }

    EvalTable {
        space_points,
        axes,
        shells,
        rows,
    }
}

/// The flat-plan replay of [`crate::dse::custom_config_with_engine`]:
/// runs the shared selection tail over the row's feasible points,
/// borrowed in place in space order — exactly the search's stage-B
/// survivor list: area screen, lower-bound screen, then per-point
/// feasibility (see the [`crate::search`] soundness argument).
///
/// # Errors
///
/// Same as [`crate::dse::custom_config`].
pub fn custom_from_row(
    model: &Model,
    row: &ModelRow,
    constraints: &Constraints,
    objective: DseObjective,
) -> Result<(DesignConfig, PpaReport), ClaireError> {
    let feasible = row
        .points
        .iter()
        .zip(&row.reports)
        .filter_map(|(&(_, hw), r)| {
            let report = r.as_ref()?;
            constraints.admits(report).then_some((hw, report))
        });
    select_custom_config(model, feasible, constraints, objective)
}

/// The flat-plan replay of [`crate::dse::set_config_with_engine`]:
/// re-screens the space for the member set with the shared set
/// screens (`dse::screen_set_points` — same screens, same counters),
/// computes each surviving point's member-total area from the table
/// in member order (the set sweep's exact early-exit fold), and runs
/// the shared selection fold.
///
/// A surviving point may be unpriced in a *member's* row (the
/// member's pivot bound can be tighter than its custom-latency bound);
/// such points are priced lazily here
/// through the member's [`ShellPricer`] — the identical call the set
/// sweep makes, so the fold's inputs are unchanged. The pricers are
/// built once per replay and resolve on first use, so a member whose
/// points all come from the table builds no edge-cost sequence.
///
/// # Errors
///
/// Same as [`crate::dse::set_config`].
pub fn set_config_from_table(
    name: &str,
    members: &[usize],
    models: &[Model],
    table: &EvalTable,
    constraints: &Constraints,
    custom_latency_s: &BTreeMap<String, f64>,
    engine: &Engine,
) -> Result<DesignConfig, ClaireError> {
    if members.is_empty() {
        return Err(ClaireError::EmptyAlgorithmSet);
    }
    let pricers: Vec<ShellPricer<'_>> = members
        .iter()
        .map(|&mi| engine.shell_pricer(&models[mi], &table.shells[mi], &table.axes))
        .collect();
    let points = screen_set_points(
        table.space_points.iter().copied(),
        &pricers,
        constraints,
        custom_latency_s,
        engine,
    );
    let totals: Vec<Option<f64>> = points
        .iter()
        .map(|&(index, hw)| {
            member_total(&pricers, constraints, custom_latency_s, |k| {
                let row = &table.rows[members[k]];
                let pi = row.position(index)?;
                if !row.unpriced[pi] {
                    return row.reports[pi];
                }
                // Never priced by the plan: price it now, memo-warm —
                // bit-identical to the set sweep.
                pricers[k].price(index, hw).ok()
            })
        })
        .collect();

    let hw = select_set_hw(name, &points, &totals)?;
    let classes: BTreeSet<OpClass> = members
        .iter()
        .flat_map(|&mi| table.shells[mi].classes.iter().copied())
        .collect();
    Ok(DesignConfig::monolithic(name, hw, classes))
}
