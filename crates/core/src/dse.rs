//! Steps #TR2/#TT3: design space exploration (the paper's
//! Algorithm 1).
//!
//! "The goal of DSE is to find the most compact configuration for all
//! design setups": sweep every configuration in scope, evaluate PPA,
//! apply the constraints, and keep the lowest-area survivor.

use crate::config::{Constraints, DesignConfig};
use crate::error::ClaireError;
use crate::evaluate::PpaReport;
use crate::parallel::{Engine, ShellPricer};
use crate::search::sweep_blocks;
pub use crate::search::sweep_with_engine;
use crate::telemetry::{ArgValue, Metric, Telemetry};
use claire_model::{Model, OpClass};
use claire_ppa::{space_points, DesignSpace, DseSpace, DseSpaceError, HwParams, MAX_POINTS};
use std::collections::{BTreeMap, BTreeSet};

/// One evaluated DSE point.
#[derive(Debug, Clone)]
pub struct DsePoint {
    /// The hardware parameters of this point.
    pub hw: HwParams,
    /// PPA of the subject algorithm on the monolithic configuration.
    pub report: PpaReport,
}

/// The DSE selection objective.
///
/// The paper minimises area ("the configuration with the lowest area
/// that satisfies the performance constraints"); the alternatives
/// exist for the objective ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DseObjective {
    /// Lowest silicon area (the paper's Algorithm 1).
    #[default]
    MinArea,
    /// Lowest latency.
    MinLatency,
    /// Lowest energy–delay product.
    MinEnergyDelayProduct,
}

impl DseObjective {
    /// Every objective, in declaration order.
    pub const ALL: [DseObjective; 3] = [
        DseObjective::MinArea,
        DseObjective::MinLatency,
        DseObjective::MinEnergyDelayProduct,
    ];

    /// The scalar this objective minimises.
    pub fn score(self, report: &PpaReport) -> f64 {
        match self {
            DseObjective::MinArea => report.area_mm2,
            DseObjective::MinLatency => report.latency_s,
            DseObjective::MinEnergyDelayProduct => report.energy_j * report.latency_s,
        }
    }
}

/// How the pipeline responds when a DSE subject has no feasible
/// configuration under the given constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum RobustnessPolicy {
    /// Surface the typed error immediately (the historical behaviour,
    /// and the default).
    #[default]
    FailFast,
    /// Walk the constraint-relaxation ladder — latency slack, then
    /// power density, then chiplet area — and return the first rung's
    /// solution, flagged with the [`Degradation`] that was required.
    Degrade,
}

/// One relaxed constraint on the degradation ladder, in relax order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RelaxStep {
    /// The latency-slack bound against the custom reference was lifted.
    LatencySlack,
    /// The power-density ceiling was lifted.
    PowerDensity,
    /// The per-chiplet area cap was lifted.
    ChipletArea,
}

impl std::fmt::Display for RelaxStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RelaxStep::LatencySlack => "latency slack",
            RelaxStep::PowerDensity => "power density",
            RelaxStep::ChipletArea => "chiplet area",
        })
    }
}

/// The record attached to a result that only exists because
/// constraints were relaxed: which rungs of the ladder were taken.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Degradation {
    /// The constraints that had to be lifted, in relax order.
    pub steps: Vec<RelaxStep>,
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "degraded: relaxed ")?;
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// The constraint-relaxation ladder for `base`: rung 0 is `base`
/// unchanged; each later rung additionally lifts the next constraint
/// in the documented relax order — latency slack first (a slower but
/// physically buildable design), then power density (throttleable in
/// deployment), then chiplet area last (lifting it abandons the
/// composability premise, so it is the final resort). Lifted bounds
/// are internal sentinels (`f64::INFINITY` / `f64::MAX`) that never
/// appear in any report — they only widen the feasibility filter.
pub fn relaxation_ladder(base: &Constraints) -> Vec<(Vec<RelaxStep>, Constraints)> {
    let mut rungs = Vec::with_capacity(4);
    rungs.push((Vec::new(), *base));
    let mut relaxed = *base;
    let mut steps = Vec::new();
    relaxed.latency_slack = f64::INFINITY;
    steps.push(RelaxStep::LatencySlack);
    rungs.push((steps.clone(), relaxed));
    relaxed.power_density_limit_w_per_mm2 = f64::INFINITY;
    steps.push(RelaxStep::PowerDensity);
    rungs.push((steps.clone(), relaxed));
    relaxed.chiplet_area_limit_mm2 = f64::MAX;
    steps.push(RelaxStep::ChipletArea);
    rungs.push((steps, relaxed));
    rungs
}

/// True when retrying `e` under relaxed constraints could succeed —
/// the feasibility errors. Coverage gaps, contained panics, corrupt
/// numerics and invalid inputs are not constraint problems and must
/// not be retried.
fn relaxation_can_help(e: &ClaireError) -> bool {
    matches!(
        e,
        ClaireError::NoFeasibleConfiguration { .. } | ClaireError::ChipletAreaUnsatisfiable { .. }
    )
}

/// Runs `attempt` under `policy`: fail-fast runs it once with `base`;
/// degrade walks the [`relaxation_ladder`] until a rung succeeds,
/// returning the winning value and the [`Degradation`] taken (`None`
/// on rung 0, i.e. no relaxation was needed). Errors that relaxation
/// cannot fix propagate immediately from any rung.
///
/// # Errors
///
/// The last rung's feasibility error when even fully lifted
/// constraints admit no solution, or the first non-feasibility error
/// any rung surfaces.
pub fn with_relaxation<T>(
    policy: RobustnessPolicy,
    base: &Constraints,
    attempt: impl FnMut(&Constraints) -> Result<T, ClaireError>,
) -> Result<(T, Option<Degradation>), ClaireError> {
    with_relaxation_observed(policy, base, None, "", attempt)
}

/// [`with_relaxation`] that reports ladder activity to `telemetry`
/// (when given): every winning rung lands in the `degrade.rungs`
/// histogram, each relaxed retry counts a `degrade.attempts`, a
/// relaxed success counts a `degrade.successes` and — when tracing —
/// emits a `degrade.success` instant event carrying `subject` and the
/// rung index, so `--degrade` runs leave an auditable trail.
/// Observation never changes the returned value.
///
/// # Errors
///
/// Same as [`with_relaxation`].
pub fn with_relaxation_observed<T>(
    policy: RobustnessPolicy,
    base: &Constraints,
    telemetry: Option<&Telemetry>,
    subject: &str,
    mut attempt: impl FnMut(&Constraints) -> Result<T, ClaireError>,
) -> Result<(T, Option<Degradation>), ClaireError> {
    match policy {
        RobustnessPolicy::FailFast => {
            let v = attempt(base)?;
            if let Some(t) = telemetry {
                t.record_degrade_rung(0);
            }
            Ok((v, None))
        }
        RobustnessPolicy::Degrade => {
            let mut last: Option<ClaireError> = None;
            for (rung_index, (steps, rung)) in relaxation_ladder(base).into_iter().enumerate() {
                if rung_index > 0 {
                    if let Some(t) = telemetry {
                        t.count(Metric::DegradeAttempts);
                    }
                }
                match attempt(&rung) {
                    Ok(v) => {
                        if let Some(t) = telemetry {
                            t.record_degrade_rung(rung_index as u64);
                            if rung_index > 0 {
                                t.count(Metric::DegradeSuccesses);
                                if t.tracing_enabled() {
                                    t.instant(
                                        "degrade.success",
                                        "degrade",
                                        vec![
                                            ("subject", ArgValue::Text(subject.to_owned())),
                                            ("rung", ArgValue::Int(rung_index as u64)),
                                        ],
                                    );
                                }
                            }
                        }
                        let degradation = (!steps.is_empty()).then_some(Degradation { steps });
                        return Ok((v, degradation));
                    }
                    Err(e) if relaxation_can_help(&e) => last = Some(e),
                    Err(e) => return Err(e),
                }
            }
            Err(last.unwrap_or(ClaireError::NoFeasibleConfiguration {
                subject: "relaxation ladder".to_owned(),
            }))
        }
    }
}

/// The hw-independent module-class inventory of a model's monolithic
/// DSE shell.
fn monolithic_classes(model: &Model) -> BTreeSet<OpClass> {
    model.op_class_counts().keys().copied().collect()
}

/// The hw axes never affect a shell's name or class inventory, so the
/// sweeps build one shell per model under this placeholder point and
/// clone-with-hw per space point — the `format!` and class-set
/// derivation run once, outside the hot loop.
pub(crate) const SHELL_HW: HwParams = HwParams {
    sa_size: 1,
    n_sa: 1,
    n_act: 1,
    n_pool: 1,
};

pub(crate) fn monolithic_for(model: &Model, hw: HwParams) -> DesignConfig {
    DesignConfig::monolithic(
        format!("dse:{}", model.name()),
        hw,
        monolithic_classes(model),
    )
}

/// Sweeps the space for one algorithm, keeping points that satisfy the
/// area and power-density constraints (Algorithm 1 lines 2–6; the
/// latency constraint needs the custom reference and is applied by the
/// callers).
pub fn sweep(model: &Model, space: &DseSpace, constraints: &Constraints) -> Vec<DsePoint> {
    sweep_with_engine(model, space, constraints, &Engine::serial())
}

/// Algorithm 1, lines 1–8: the custom design configuration `C_i` for
/// one algorithm — the lowest-area configuration whose latency stays
/// within `1 + latency_slack` of the best latency any feasible
/// configuration achieves (the "custom design solution" reference).
///
/// # Errors
///
/// [`ClaireError::NoFeasibleConfiguration`] when no point satisfies
/// the area/power-density constraints.
pub fn custom_config(
    model: &Model,
    space: &DseSpace,
    constraints: &Constraints,
) -> Result<(DesignConfig, PpaReport), ClaireError> {
    custom_config_with(model, space, constraints, DseObjective::MinArea)
}

/// [`custom_config`] under an explicit selection objective.
///
/// # Errors
///
/// Same as [`custom_config`].
pub fn custom_config_with(
    model: &Model,
    space: &DseSpace,
    constraints: &Constraints,
    objective: DseObjective,
) -> Result<(DesignConfig, PpaReport), ClaireError> {
    custom_config_with_engine(model, space, constraints, objective, &Engine::serial())
}

/// [`custom_config_with`] on an explicit [`Engine`] over any
/// [`DesignSpace`]: the search prices the survivor list block by block
/// ([`crate::search`], stage B) and the selection folds over the blocks
/// in order (`select_custom_config`), without concatenating them, with
/// the same result at any thread count.
///
/// # Errors
///
/// [`ClaireError::InvalidInput`] when `space` spans more than
/// [`MAX_POINTS`] slots (checked before anything is priced); otherwise
/// the same as [`custom_config`].
pub fn custom_config_with_engine(
    model: &Model,
    space: &dyn DesignSpace,
    constraints: &Constraints,
    objective: DseObjective,
    engine: &Engine,
) -> Result<(DesignConfig, PpaReport), ClaireError> {
    if space.size() as u64 > MAX_POINTS {
        return Err(ClaireError::InvalidInput {
            what: DseSpaceError::TooManyPoints.to_string(),
        });
    }
    let blocks = sweep_blocks(model, space, constraints, engine);
    let points = blocks.iter().flatten().map(|p| (p.hw, &p.report));
    select_custom_config(model, points, constraints, objective)
}

/// The selection tail of [`custom_config_with_engine`]: runs
/// [`select_point`] over the feasible points (space order) and names
/// the winner's monolithic configuration. Shared with the flat-plan
/// replay ([`crate::plan::flat`]), which feeds it the feasible points
/// of its pre-computed evaluation-table row — one fold, one order, one
/// set of comparisons, so both flows select the same point bit for
/// bit.
///
/// # Errors
///
/// Same as [`custom_config`].
pub(crate) fn select_custom_config<'p>(
    model: &Model,
    points: impl Iterator<Item = (HwParams, &'p PpaReport)> + Clone,
    constraints: &Constraints,
    objective: DseObjective,
) -> Result<(DesignConfig, PpaReport), ClaireError> {
    let (hw, report) = select_point(points, constraints, objective).ok_or_else(|| {
        ClaireError::NoFeasibleConfiguration {
            subject: model.name().to_owned(),
        }
    })?;
    let mut cfg = monolithic_for(model, hw);
    cfg.name = format!("C_{}", model.name());
    Ok((cfg, *report))
}

/// The custom-configuration selection fold over the feasible points,
/// borrowed in space order (it walks them twice): best-latency fold,
/// latency-slack window (an infinite slack — degradation ladder —
/// admits every point, which `best * inf = inf` does), then the
/// objective minimum under `total_cmp` (which orders exactly like
/// `partial_cmp` here because every surviving report passed the
/// evaluator's finiteness gate), first tie wins. `None` when there are
/// no points.
pub(crate) fn select_point<'p>(
    points: impl Iterator<Item = (HwParams, &'p PpaReport)> + Clone,
    constraints: &Constraints,
    objective: DseObjective,
) -> Option<(HwParams, &'p PpaReport)> {
    let best_latency = points
        .clone()
        .map(|(_, r)| r.latency_s)
        .fold(f64::INFINITY, f64::min);
    if !best_latency.is_finite() {
        return None;
    }
    let limit = best_latency * (1.0 + constraints.latency_slack);
    points
        .filter(|(_, r)| r.latency_s <= limit)
        .min_by(|(_, a), (_, b)| objective.score(a).total_cmp(&objective.score(b)))
}

/// Algorithm 1, lines 9–13 (and 15–17 with a subset): the shared
/// configuration for an algorithm set — the configuration minimising
/// the *summed* DSE area across all member algorithms, subject to each
/// member meeting the constraints, including latency relative to its
/// own custom design (`custom_latency_s`).
///
/// The returned configuration instantiates the union of the members'
/// module classes.
///
/// # Errors
///
/// [`ClaireError::EmptyAlgorithmSet`] for an empty set and
/// [`ClaireError::NoFeasibleConfiguration`] when no configuration
/// satisfies every member's constraints.
pub fn set_config(
    name: &str,
    models: &[&Model],
    space: &DseSpace,
    constraints: &Constraints,
    custom_latency_s: &BTreeMap<String, f64>,
) -> Result<DesignConfig, ClaireError> {
    set_config_with_engine(
        name,
        models,
        space,
        constraints,
        custom_latency_s,
        &Engine::serial(),
    )
}

/// [`set_config`] on an explicit [`Engine`]. Each member prices
/// through one [`ShellPricer`], built before the screens and resolved
/// on first use, so a member the fold never reaches touches no memo
/// tier. Candidate points are scored in parallel; the
/// minimum-total-area selection folds over space iteration order
/// (first strict improvement wins), so ties resolve exactly as in the
/// serial loop.
///
/// # Errors
///
/// Same as [`set_config`].
pub fn set_config_with_engine(
    name: &str,
    models: &[&Model],
    space: &DseSpace,
    constraints: &Constraints,
    custom_latency_s: &BTreeMap<String, f64>,
    engine: &Engine,
) -> Result<DesignConfig, ClaireError> {
    if models.is_empty() {
        return Err(ClaireError::EmptyAlgorithmSet);
    }

    // Per-member monolithic shells and their pricers, built once for
    // the whole sweep.
    let shells: Vec<DesignConfig> = models.iter().map(|m| monolithic_for(m, SHELL_HW)).collect();
    let axes = space.axes();
    let members: Vec<ShellPricer<'_>> = models
        .iter()
        .zip(&shells)
        .map(|(m, shell)| engine.shell_pricer(m, shell, &axes))
        .collect();
    let points = screen_set_points(
        space_points(space),
        &members,
        constraints,
        custom_latency_s,
        engine,
    );
    let mut eval_span = engine.telemetry().span("dse.eval", "dse");
    eval_span.arg("points", ArgValue::Int(points.len() as u64));
    let totals: Vec<Option<f64>> = engine.par_map(&points, |_, &(idx, hw)| {
        member_total(&members, constraints, custom_latency_s, |k| {
            members[k].price(idx, hw).ok()
        })
    });
    drop(eval_span);

    let hw = select_set_hw(name, &points, &totals)?;
    let classes: BTreeSet<OpClass> = shells
        .iter()
        .flat_map(|s| s.classes.iter().copied())
        .collect();
    Ok(DesignConfig::monolithic(name, hw, classes))
}

/// The pre-pricing screens of a set sweep over the members' shell
/// pricers, shared by [`set_config_with_engine`] and the flat-plan
/// replay ([`crate::plan::flat::set_config_from_table`]). Returns the
/// surviving `(space index, point)` pairs of `space` in iteration
/// order.
///
/// **Stage A** keeps a point only if every member's monolithic area
/// fits the chiplet cap — the same early `None` the member fold takes,
/// decided by each member's area tables ([`ShellPricer::area_mm2`],
/// the evaluator's own closed form) without pricing anything.
/// **Stage A′**: members with a custom latency reference admit an
/// *absolute* latency bound known before any pricing,
/// `l_m × (1 + slack)`, so a point whose compute-only cycle lower
/// bound already exceeds a member's bound would come back `None` from
/// the member fold (`report.latency_s ≥ lb_s > bound` fails the
/// latency check). Dropping such points up front leaves the selection
/// input unchanged.
pub(crate) fn screen_set_points(
    space: impl Iterator<Item = (u32, HwParams)>,
    members: &[ShellPricer<'_>],
    constraints: &Constraints,
    custom_latency_s: &BTreeMap<String, f64>,
    engine: &Engine,
) -> Vec<(u32, HwParams)> {
    let mut points: Vec<(u32, HwParams)> = if engine.pruning_enabled() {
        let mut span = engine.telemetry().span("dse.screen", "dse");
        let mut seen: u64 = 0;
        let kept: Vec<(u32, HwParams)> = space
            .inspect(|_| seen += 1)
            .filter(|(idx, hw)| {
                members
                    .iter()
                    .all(|m| m.area_mm2(*idx, hw) <= constraints.chiplet_area_limit_mm2)
            })
            .collect();
        engine.note_dse_pruned(seen - kept.len() as u64);
        span.arg("pruned", ArgValue::Int(seen - kept.len() as u64));
        span.arg("kept", ArgValue::Int(kept.len() as u64));
        kept
    } else {
        space.collect()
    };
    if engine.lb_screen_enabled() && constraints.latency_slack.is_finite() && !points.is_empty() {
        let bounds: Vec<(&ShellPricer<'_>, f64)> = members
            .iter()
            .filter_map(|m| {
                custom_latency_s
                    .get(m.model().name())
                    .map(|&l| (m, l * (1.0 + constraints.latency_slack)))
            })
            .filter(|(_, b)| b.is_finite())
            .collect();
        if !bounds.is_empty() {
            let mut span = engine.telemetry().span("dse.lb_screen", "dse");
            let clock = claire_ppa::tech28::CLOCK_HZ;
            let before = points.len();
            // A plain loop: a bound is a few table reads.
            points.retain(|(idx, hw)| {
                bounds
                    .iter()
                    .all(|&(m, bound)| m.lb_cycles(*idx, hw) as f64 / clock <= bound)
            });
            engine.note_dse_lb_pruned((before - points.len()) as u64);
            span.arg("pruned", ArgValue::Int((before - points.len()) as u64));
            span.arg("kept", ArgValue::Int(points.len() as u64));
        }
    }
    if engine.pruning_enabled() {
        engine.note_dse_evaluated(points.len() as u64);
    }
    points
}

/// The member fold of a set sweep at one point, shared with the
/// flat-plan replay: the members' summed area, or `None` as soon as a
/// member's report (`report_of(k)` for member `k`) is missing — a
/// failed evaluation — or breaks the area, power-density or
/// latency-slack constraint. Members fold in order and stop at the
/// first failure, so later members are never priced.
pub(crate) fn member_total(
    members: &[ShellPricer<'_>],
    constraints: &Constraints,
    custom_latency_s: &BTreeMap<String, f64>,
    mut report_of: impl FnMut(usize) -> Option<PpaReport>,
) -> Option<f64> {
    let mut total_area = 0.0;
    for (k, m) in members.iter().enumerate() {
        let report = report_of(k)?;
        let latency_ok = custom_latency_s
            .get(m.model().name())
            .map(|&l| report.latency_s <= l * (1.0 + constraints.latency_slack))
            .unwrap_or(true);
        if !constraints.admits(&report) || !latency_ok {
            return None;
        }
        total_area += report.area_mm2;
    }
    Some(total_area)
}

/// The selection fold of [`set_config_with_engine`]: the first strict
/// minimum-total-area point in space iteration order wins, so ties
/// resolve exactly as in the serial loop. Shared with the flat-plan
/// replay ([`crate::plan::flat`]), which computes the same per-point
/// member totals from the pre-computed evaluation table.
///
/// # Errors
///
/// [`ClaireError::NoFeasibleConfiguration`] when every total is
/// `None`.
pub(crate) fn select_set_hw(
    name: &str,
    points: &[(u32, HwParams)],
    totals: &[Option<f64>],
) -> Result<HwParams, ClaireError> {
    let mut best: Option<(f64, HwParams)> = None;
    for (&(_, hw), total_area) in points.iter().zip(totals) {
        let Some(total_area) = *total_area else {
            continue;
        };
        if best.map(|(a, _)| total_area < a).unwrap_or(true) {
            best = Some((total_area, hw));
        }
    }
    let (_, hw) = best.ok_or_else(|| ClaireError::NoFeasibleConfiguration {
        subject: name.to_owned(),
    })?;
    Ok(hw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_model::zoo;

    fn setup() -> (DseSpace, Constraints) {
        (DseSpace::default(), Constraints::default())
    }

    #[test]
    fn sweep_prunes_oversized_configs() {
        let (space, cons) = setup();
        let m = zoo::vgg16();
        let pts = sweep(&m, &space, &cons);
        assert!(!pts.is_empty());
        assert!(pts.len() < space.len(), "nothing pruned");
        for p in &pts {
            assert!(p.report.area_mm2 <= cons.chiplet_area_limit_mm2);
        }
    }

    #[test]
    fn custom_config_is_feasible_and_minimal() {
        let (space, cons) = setup();
        let m = zoo::resnet18();
        let (cfg, report) = custom_config(&m, &space, &cons).unwrap();
        assert!(cfg.covers(&m));
        assert!(report.area_mm2 <= cons.chiplet_area_limit_mm2);
        // Every feasible smaller-area config must violate latency.
        let best_latency = sweep(&m, &space, &cons)
            .iter()
            .map(|p| p.report.latency_s)
            .fold(f64::INFINITY, f64::min);
        for p in sweep(&m, &space, &cons) {
            if p.report.area_mm2 < report.area_mm2 - 1e-9 {
                assert!(
                    p.report.latency_s > best_latency * (1.0 + cons.latency_slack),
                    "{} smaller but feasible",
                    p.hw
                );
            }
        }
    }

    #[test]
    fn custom_config_name_embeds_algorithm() {
        let (space, cons) = setup();
        let (cfg, _) = custom_config(&zoo::alexnet(), &space, &cons).unwrap();
        assert_eq!(cfg.name, "C_Alexnet");
    }

    #[test]
    fn set_config_unions_classes() {
        let (space, cons) = setup();
        let models = [zoo::resnet18(), zoo::bert_base()];
        let refs: BTreeMap<String, f64> = models
            .iter()
            .map(|m| {
                let (_, r) = custom_config(m, &space, &cons).unwrap();
                (m.name().to_owned(), r.latency_s)
            })
            .collect();
        let refs_list: Vec<&Model> = models.iter().collect();
        let cfg = set_config("C_g", &refs_list, &space, &cons, &refs).unwrap();
        for m in &models {
            assert!(cfg.covers(m), "{} not covered", m.name());
        }
        assert!(cfg.classes.contains(&OpClass::Conv2d));
        assert!(cfg.classes.contains(&OpClass::Linear));
    }

    #[test]
    fn empty_set_is_error() {
        let (space, cons) = setup();
        let err = set_config("C_g", &[], &space, &cons, &BTreeMap::new()).unwrap_err();
        assert_eq!(err, ClaireError::EmptyAlgorithmSet);
    }

    #[test]
    fn objectives_order_as_expected() {
        let (space, cons) = setup();
        let m = zoo::vgg16();
        let (_, area_r) = custom_config_with(&m, &space, &cons, DseObjective::MinArea).unwrap();
        let (_, lat_r) = custom_config_with(&m, &space, &cons, DseObjective::MinLatency).unwrap();
        let (_, edp_r) =
            custom_config_with(&m, &space, &cons, DseObjective::MinEnergyDelayProduct).unwrap();
        assert!(area_r.area_mm2 <= lat_r.area_mm2);
        assert!(lat_r.latency_s <= area_r.latency_s);
        assert!(edp_r.energy_j * edp_r.latency_s <= area_r.energy_j * area_r.latency_s + 1e-18);
    }

    #[test]
    fn staged_sweep_matches_exhaustive_bit_for_bit() {
        let (space, cons) = setup();
        let m = zoo::vgg16();
        let staged_engine = Engine::serial();
        let staged = sweep_with_engine(&m, &space, &cons, &staged_engine);
        let exhaustive =
            sweep_with_engine(&m, &space, &cons, &Engine::serial().with_pruning(false));
        // The lb screen may drop feasible-but-never-selectable points,
        // so the staged list is an order-preserving subset…
        let exhaustive_dbg: Vec<String> = exhaustive.iter().map(|p| format!("{p:?}")).collect();
        let mut cursor = 0usize;
        for p in &staged {
            let needle = format!("{p:?}");
            let pos = exhaustive_dbg[cursor..]
                .iter()
                .position(|e| *e == needle)
                .expect("staged point missing from exhaustive sweep");
            cursor += pos + 1;
        }
        // …whose removals all sit outside the latency-slack window,
        // so every objective's selection replays bit-identically.
        let best_latency = exhaustive
            .iter()
            .map(|p| p.report.latency_s)
            .fold(f64::INFINITY, f64::min);
        let limit = best_latency * (1.0 + cons.latency_slack);
        let staged_set: std::collections::BTreeSet<String> =
            staged.iter().map(|p| format!("{p:?}")).collect();
        for p in &exhaustive {
            if !staged_set.contains(&format!("{p:?}")) {
                assert!(
                    p.report.latency_s > limit,
                    "{} pruned but inside the latency window",
                    p.hw
                );
            }
        }
        for objective in DseObjective::ALL {
            let select = |points: &[DsePoint]| {
                let points = points.iter().map(|p| (p.hw, &p.report));
                select_custom_config(&m, points, &cons, objective).unwrap()
            };
            let (a, b) = (select(&staged), select(&exhaustive));
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{objective:?}");
        }
        let stats = staged_engine.stats();
        assert!(stats.dse_pruned > 0, "default space has oversized points");
        assert_eq!(
            stats.dse_pruned + stats.dse_lb_pruned + stats.dse_evaluated,
            space.len() as u64,
            "every point is screened exactly once"
        );
    }

    #[test]
    fn exhaustive_engine_screens_nothing() {
        let (space, cons) = setup();
        let engine = Engine::serial().with_pruning(false);
        assert!(!engine.pruning_enabled());
        sweep_with_engine(&zoo::vgg16(), &space, &cons, &engine);
        let stats = engine.stats();
        assert_eq!(stats.dse_pruned, 0);
        assert_eq!(stats.dse_evaluated, 0);
        assert_eq!(stats.pruned_fraction(), 0.0);
    }

    #[test]
    fn staged_set_config_matches_exhaustive() {
        let (space, cons) = setup();
        let models = [zoo::resnet18(), zoo::bert_base()];
        let refs: BTreeMap<String, f64> = models
            .iter()
            .map(|m| {
                let (_, r) = custom_config(m, &space, &cons).unwrap();
                (m.name().to_owned(), r.latency_s)
            })
            .collect();
        let refs_list: Vec<&Model> = models.iter().collect();
        let staged =
            set_config_with_engine("C_g", &refs_list, &space, &cons, &refs, &Engine::serial())
                .unwrap();
        let exhaustive = set_config_with_engine(
            "C_g",
            &refs_list,
            &space,
            &cons,
            &refs,
            &Engine::serial().with_pruning(false),
        )
        .unwrap();
        assert_eq!(format!("{staged:?}"), format!("{exhaustive:?}"));
    }

    #[test]
    fn impossible_constraints_are_reported() {
        let space = DseSpace::default();
        let cons = Constraints {
            chiplet_area_limit_mm2: 0.5, // nothing fits
            ..Constraints::default()
        };
        let err = custom_config(&zoo::alexnet(), &space, &cons).unwrap_err();
        assert!(matches!(err, ClaireError::NoFeasibleConfiguration { .. }));
    }

    #[test]
    fn spaces_past_the_u32_index_are_rejected_before_pricing() {
        use claire_ppa::{GridAxis, GridSpace};
        // 257⁴ slots overflow the u32 space index; 65,536⁴ overflows
        // `usize` and saturates.
        for per_axis in [257, 65_536] {
            let axis = GridAxis::new(1, 1, per_axis);
            let grid = GridSpace {
                sa_size: axis,
                n_sa: axis,
                n_act: axis,
                n_pool: axis,
            };
            let engine = Engine::serial();
            let err = custom_config_with_engine(
                &zoo::alexnet(),
                &grid,
                &Constraints::default(),
                DseObjective::MinArea,
                &engine,
            )
            .unwrap_err();
            assert!(matches!(err, ClaireError::InvalidInput { .. }), "{err:?}");
            assert!(err.to_string().contains("4294967296"), "{err}");
            let stats = engine.stats();
            assert_eq!(
                (stats.dse_pruned, stats.dse_lb_pruned, stats.dse_evaluated),
                (0, 0, 0),
                "nothing screened or priced"
            );
        }
    }

    #[test]
    fn ladder_relaxes_in_documented_order() {
        let rungs = relaxation_ladder(&Constraints::default());
        assert_eq!(rungs.len(), 4);
        assert!(rungs[0].0.is_empty());
        assert_eq!(rungs[1].0, vec![RelaxStep::LatencySlack]);
        assert_eq!(
            rungs[2].0,
            vec![RelaxStep::LatencySlack, RelaxStep::PowerDensity]
        );
        assert_eq!(
            rungs[3].0,
            vec![
                RelaxStep::LatencySlack,
                RelaxStep::PowerDensity,
                RelaxStep::ChipletArea
            ]
        );
        assert!(rungs[3].1.chiplet_area_limit_mm2 > 1e300);
        assert!(rungs[2].1.power_density_limit_w_per_mm2.is_infinite());
        assert!(rungs[1].1.latency_slack.is_infinite());
    }

    #[test]
    fn with_relaxation_flags_only_relaxed_successes() {
        let cons = Constraints::default();
        // Succeeds on rung 0: no degradation.
        let (v, d) = with_relaxation(RobustnessPolicy::Degrade, &cons, |_| {
            Ok::<_, ClaireError>(1)
        })
        .unwrap();
        assert_eq!((v, d), (1, None));
        // Needs the power-density rung: two steps flagged.
        let (_, d) = with_relaxation(RobustnessPolicy::Degrade, &cons, |c| {
            if c.power_density_limit_w_per_mm2.is_infinite() {
                Ok(2)
            } else {
                Err(ClaireError::NoFeasibleConfiguration {
                    subject: "t".into(),
                })
            }
        })
        .unwrap();
        let d = d.unwrap();
        assert_eq!(
            d.steps,
            vec![RelaxStep::LatencySlack, RelaxStep::PowerDensity]
        );
        assert!(d.to_string().contains("power density"));
        // Fail-fast never retries.
        let err = with_relaxation(RobustnessPolicy::FailFast, &cons, |_| {
            Err::<(), _>(ClaireError::NoFeasibleConfiguration {
                subject: "t".into(),
            })
        })
        .unwrap_err();
        assert!(matches!(err, ClaireError::NoFeasibleConfiguration { .. }));
        // Non-feasibility errors propagate from any rung unchanged.
        let err = with_relaxation(RobustnessPolicy::Degrade, &cons, |_| {
            Err::<(), _>(ClaireError::EmptyAlgorithmSet)
        })
        .unwrap_err();
        assert_eq!(err, ClaireError::EmptyAlgorithmSet);
    }

    #[test]
    fn degrade_mode_rescues_impossible_area() {
        let space = DseSpace::default();
        let cons = Constraints {
            chiplet_area_limit_mm2: 0.5, // nothing fits
            ..Constraints::default()
        };
        let m = zoo::alexnet();
        let ((_, report), degradation) = with_relaxation(RobustnessPolicy::Degrade, &cons, |c| {
            custom_config(&m, &space, c)
        })
        .unwrap();
        let degradation = degradation.expect("area rescue requires relaxation");
        assert!(degradation.steps.contains(&RelaxStep::ChipletArea));
        assert!(report.latency_s.is_finite() && report.area_mm2.is_finite());
    }
}
