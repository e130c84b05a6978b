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
//! ([`crate::search::search_with_engine`]) and, under a sampled
//! [`SearchPolicy`], its successive-halving rungs
//! (`search::halving_rungs`); replay calls the same selection
//! code (`dse::select_custom_config`, `dse::screen_set_points`,
//! `dse::select_set_hw`) on the same point lists in the same space
//! order. Every table entry is the [`Engine::evaluate`] call the
//! search would make — deterministic and cache-state-independent by
//! the engine's core invariant — so a planned selection equals the
//! single-subject search's bit for bit, at any thread count.

use crate::config::{monolithic_area_mm2, Constraints, DesignConfig};
use crate::dse::{
    member_total, monolithic_for, screen_set_points, select_custom_config, select_set_hw,
    DseObjective, DsePoint, SHELL_HW,
};
use crate::error::ClaireError;
use crate::evaluate::PpaReport;
use crate::parallel::Engine;
use crate::search::{halving_rungs, SearchPolicy};
use crate::telemetry::ArgValue;
use claire_model::{Model, OpClass};
use claire_ppa::{space_points, DseSpace, HwParams};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One model's slice of the evaluation table: its area-screened DSE
/// points in space order, each with its monolithic-shell evaluation
/// (`None` when the evaluation surfaced an error — the points the
/// search drops) unless the point is *unpriced*: dropped before
/// pricing by the latency lower-bound screen or by a sampled policy's
/// halving rungs, exactly the points the search never prices.
#[derive(Debug, Clone)]
pub struct ModelRow {
    /// The model's area-screened `(space index, point)` pairs, in
    /// space order.
    pub points: Vec<(u32, HwParams)>,
    /// Per-point monolithic-shell reports, parallel to `points`.
    /// `None` for failed evaluations *and* for unpriced points —
    /// `unpriced` tells them apart.
    pub reports: Vec<Option<PpaReport>>,
    /// Parallel to `points`: `true` when the lower-bound screen or a
    /// halving rung dropped the point, so the plan never priced it. A
    /// subset replay that still needs such a point (its member-set
    /// bound can be looser than this row's pivot bound, and set sweeps
    /// never sample) prices it lazily through the engine's memo tiers —
    /// see [`set_config_from_table`].
    unpriced: Vec<bool>,
}

impl ModelRow {
    /// The feasible [`DsePoint`]s of this row under `constraints`, in
    /// space order — exactly the search's stage-B survivor list: area
    /// screen, lower-bound screen, halving rungs, then per-point
    /// feasibility. Every selection over it is bit-identical to the
    /// search's (the shared `dse::select_custom_config` tail,
    /// see the [`crate::search`] soundness argument).
    pub fn feasible_points(&self, constraints: &Constraints) -> Vec<DsePoint> {
        self.points
            .iter()
            .zip(&self.reports)
            .filter_map(|(&(_, hw), r)| {
                let report = (*r)?;
                let feasible = report.area_mm2 <= constraints.chiplet_area_limit_mm2
                    && report.power_density_w_per_mm2()
                        <= constraints.power_density_limit_w_per_mm2;
                feasible.then_some(DsePoint { hw, report })
            })
            .collect()
    }

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
    /// Per-model monolithic DSE shells, parallel to the planned model
    /// list.
    pub shells: Vec<DesignConfig>,
    /// Per-model rows, parallel to the planned model list.
    pub rows: Vec<ModelRow>,
}

/// Builds the evaluation table for `models` under `policy`. Each
/// model's points pass the search's stage A (the closed-form area
/// screen) and stage A′ (the latency lower-bound screen), with
/// identical constraints and counters; a sampled policy then runs its
/// halving rungs on each row's survivors. The union of all remaining
/// `(model, hw-point)` items is evaluated through one
/// [`Engine::par_map`], and the item count lands on the `plan.items`
/// counter.
///
/// `cancels` is parallel to `models` (an empty slice disables
/// cancellation). Each evaluation item checks its model's flag when a
/// worker claims it — the cooperative checkpoint — and returns
/// unevaluated when the flag is set, so an expired request stops
/// consuming workers at item granularity. A cancelled model's row is
/// garbage (its caller must discard it); every *other* model's row is
/// bit-identical to an uncancelled build, because screens, bounds,
/// rungs and evaluations are per-model and the shared memo tiers hold
/// exact values — skipping a neighbour's items can only *miss* warm
/// entries, never write wrong ones.
pub fn build_eval_table(
    models: &[Model],
    space: &DseSpace,
    constraints: &Constraints,
    policy: SearchPolicy,
    engine: &Engine,
    cancels: &[Arc<AtomicBool>],
) -> EvalTable {
    let cancelled = |mi: usize| cancels.get(mi).is_some_and(|c| c.load(Ordering::Relaxed));
    let space_points: Vec<(u32, HwParams)> = space_points(space).collect();
    let shells: Vec<DesignConfig> = models.iter().map(|m| monolithic_for(m, SHELL_HW)).collect();

    // Stage A per model: the search's sound area screen, decided by
    // the evaluator's own closed form. The survivor scratch is hoisted
    // out of the per-model loop — each screen filters into the same
    // full-capacity buffer and copies once into an exact-sized row,
    // instead of growth-reallocating a fresh `Vec` per model.
    let mut rows: Vec<ModelRow> = Vec::with_capacity(models.len());
    let mut scratch: Vec<(u32, HwParams)> = Vec::with_capacity(space_points.len());
    for shell in &shells {
        let points: Vec<(u32, HwParams)> = if engine.pruning_enabled() {
            let mut span = engine.telemetry().span("dse.screen", "dse");
            scratch.clear();
            scratch.extend(space_points.iter().copied().filter(|(_, hw)| {
                monolithic_area_mm2(&shell.classes, hw) <= constraints.chiplet_area_limit_mm2
            }));
            engine.note_dse_pruned((space_points.len() - scratch.len()) as u64);
            span.arg(
                "pruned",
                ArgValue::Int((space_points.len() - scratch.len()) as u64),
            );
            span.arg("kept", ArgValue::Int(scratch.len() as u64));
            scratch.as_slice().to_vec()
        } else {
            space_points.clone()
        };
        let n = points.len();
        rows.push(ModelRow {
            points,
            reports: Vec::new(),
            unpriced: vec![false; n],
        });
    }

    // Stage A′ per model: the search's latency lower-bound screen (see
    // [`crate::search`]). All models' lower bounds run through one
    // flat `par_map` (the cycles-only batch kernel over the structural
    // interner's batches, never the full evaluator), each model's
    // pivot — its first minimal-bound point in space order — is
    // priced, and every point whose bound exceeds the pivot's slack-
    // widened latency is marked unpriced: provably never selectable,
    // so the plan's big map need not price it.
    if engine.lb_screen_enabled() && constraints.latency_slack.is_finite() {
        let mut span = engine.telemetry().span("plan.lb_screen", "plan");
        let lb_items: Vec<(usize, usize)> = rows
            .iter()
            .enumerate()
            .flat_map(|(mi, row)| (0..row.points.len()).map(move |pi| (mi, pi)))
            .collect();
        let lbs: Vec<u64> = engine.par_map(&lb_items, |_, &(mi, pi)| {
            engine.compute_cycles_lb(&models[mi], &rows[mi].points[pi].1)
        });
        // Per-model lb slices (rows are contiguous in the flat list).
        let mut offsets = Vec::with_capacity(rows.len());
        let mut at = 0usize;
        for row in &rows {
            offsets.push(at);
            at += row.points.len();
        }
        // Pivot per model: first index with minimal bound (u64
        // compare — exact, order-deterministic).
        let pivots: Vec<Option<usize>> = rows
            .iter()
            .enumerate()
            .map(|(mi, row)| {
                (!row.points.is_empty()).then(|| {
                    let slice = &lbs[offsets[mi]..offsets[mi] + row.points.len()];
                    let mut pivot = 0usize;
                    for (i, &lb) in slice.iter().enumerate() {
                        if lb < slice[pivot] {
                            pivot = i;
                        }
                    }
                    pivot
                })
            })
            .collect();
        // Price every pivot (one small parallel map over models); an
        // infeasible or failed pivot yields no sound bound — keep all.
        let bounds: Vec<f64> = engine.par_map(&pivots, |mi, pivot| {
            let Some(pi) = *pivot else {
                return f64::INFINITY;
            };
            if cancelled(mi) {
                // Cooperative checkpoint: an infinite bound keeps the
                // model's points unscreened, and the big map below
                // skips them anyway.
                return f64::INFINITY;
            }
            let mut cfg = shells[mi].clone();
            cfg.hw = rows[mi].points[pi].1;
            match engine.evaluate(&models[mi], &cfg) {
                Ok(r)
                    if r.area_mm2 <= constraints.chiplet_area_limit_mm2
                        && r.power_density_w_per_mm2()
                            <= constraints.power_density_limit_w_per_mm2 =>
                {
                    r.latency_s * (1.0 + constraints.latency_slack)
                }
                _ => f64::INFINITY,
            }
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

    // A sampled policy's halving rungs, on each row's screen survivors
    // in space order: the search's exact trajectory, demoting every
    // point a rung drops to unpriced. One map over models; each
    // model's rungs run serially inside the worker that claims it.
    if policy.is_sampled() {
        let promoted: Vec<Vec<(u32, HwParams)>> = engine.par_map(&rows, |mi, row| {
            let mut candidates: Vec<(u32, HwParams)> = row
                .points
                .iter()
                .zip(&row.unpriced)
                .filter(|&(_, &unpriced)| !unpriced)
                .map(|(&p, _)| p)
                .collect();
            if !cancelled(mi) {
                let lb_cycles = |hw: &HwParams| engine.compute_cycles_lb(&models[mi], hw);
                halving_rungs(&mut candidates, policy, engine, &lb_cycles);
            }
            candidates
        });
        for (row, promoted) in rows.iter_mut().zip(promoted) {
            row.unpriced.fill(true);
            for (idx, _) in promoted {
                if let Some(pi) = row.position(idx) {
                    row.unpriced[pi] = false;
                }
            }
        }
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
        let mut cfg = shells[mi].clone();
        cfg.hw = rows[mi].points[pi].1;
        engine.evaluate(&models[mi], &cfg).ok()
    });
    drop(span);

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
        shells,
        rows,
    }
}

/// The flat-plan replay of [`crate::dse::custom_config_searched`]:
/// filters the model's row to its feasible points (the search's exact
/// stage-B survivor list) and runs the shared selection tail.
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
    select_custom_config(
        model,
        row.feasible_points(constraints),
        constraints,
        objective,
    )
}

/// The flat-plan replay of [`crate::dse::set_config_with_engine`]:
/// re-screens the space for the member set with the shared set
/// screens (`dse::screen_set_points` — same screens, same counters),
/// computes each surviving point's member-total area from the table
/// in member order (the set sweep's exact early-exit fold), and runs
/// the shared selection fold.
///
/// A surviving point may be unpriced in a *member's* row (the
/// member's pivot bound can be tighter than its custom-latency bound,
/// and set sweeps never sample); such points are priced lazily here
/// through the engine's memo tiers — the identical [`Engine::evaluate`]
/// call the set sweep makes, so the fold's inputs are unchanged.
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
    let member_shells: Vec<(&Model, &DesignConfig)> = members
        .iter()
        .map(|&mi| (&models[mi], &table.shells[mi]))
        .collect();
    let points = screen_set_points(
        table.space_points.iter().copied(),
        &member_shells,
        constraints,
        custom_latency_s,
        engine,
    );
    let totals: Vec<Option<f64>> = points
        .iter()
        .map(|&(index, hw)| {
            member_total(&member_shells, constraints, custom_latency_s, |k| {
                let mi = members[k];
                let row = &table.rows[mi];
                let pi = row.position(index)?;
                if !row.unpriced[pi] {
                    return row.reports[pi];
                }
                // Never priced by the plan: price it now, memo-warm —
                // bit-identical to the set sweep.
                let mut cfg = table.shells[mi].clone();
                cfg.hw = hw;
                engine.evaluate(&models[mi], &cfg).ok()
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
