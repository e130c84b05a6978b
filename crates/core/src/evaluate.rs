//! PPA evaluation of an algorithm on a design configuration,
//! including NoC (intra-chiplet) and NoP (inter-chiplet)
//! communication — Step #TR3's "The PPA performance of the design
//! configurations is updated by applying NoP characteristics for
//! inter-chiplet communication and NoC characteristics for
//! intra-chiplet communication."

use crate::config::DesignConfig;
use crate::error::ClaireError;
use claire_model::{Model, OpClass};
use claire_noc::{Network, Torus2d};
use claire_ppa::{layer_cost, tech28};
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

/// Energy-accounting options for [`evaluate_with`].
///
/// The paper's reported energy is dynamic-only (it notes that "power
/// gating for underutilized units was not applied" and that energy
/// still varied by only 0.2 % — i.e. idle-unit leakage is outside its
/// model). [`EvalOptions::default`] matches that setting; the
/// power-gating ablation bench turns leakage on.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvalOptions {
    /// Add static (leakage) energy `P_leak · area · latency`.
    pub include_leakage: bool,
    /// With leakage on: gate idle module groups so only groups the
    /// algorithm actually exercises (plus interconnect) leak.
    pub power_gating: bool,
    /// Off-chip weight-streaming model: each systolic layer's time
    /// becomes `max(compute, weight streaming)` (double-buffered) and
    /// its access energy is added. `None` (default) reproduces the
    /// paper's compute-only accounting.
    pub memory: Option<claire_ppa::MemoryModel>,
}

/// The performance metrics of Output #TR3/#TT3: latency, energy, area
/// and power density.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PpaReport {
    /// End-to-end inference latency, seconds (sequential layers:
    /// compute + communication).
    pub latency_s: f64,
    /// Total energy, joules (compute + NoC + NoP + any leakage).
    pub energy_j: f64,
    /// Configuration silicon area, mm².
    pub area_mm2: f64,
    /// Energy spent on inter-chiplet (NoP) transfers, joules.
    pub nop_energy_j: f64,
    /// Energy spent on intra-chiplet (NoC) transfers, joules.
    pub noc_energy_j: f64,
    /// Static (leakage) energy, joules — 0 under the paper's
    /// dynamic-only accounting.
    pub leakage_j: f64,
}

impl PpaReport {
    /// Average power, watts.
    pub fn power_w(&self) -> f64 {
        self.energy_j / self.latency_s
    }

    /// Power density, W/mm².
    pub fn power_density_w_per_mm2(&self) -> f64 {
        self.power_w() / self.area_mm2
    }
}

/// Cost of one inter-unit transfer on a configuration — shared between
/// the analytical evaluator and the discrete-event simulator so the
/// two can never drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferCost {
    /// Channel-serialisation cycles (payload / channel width; counted
    /// on both networks for a cross-chiplet transfer).
    pub ser_cycles: u64,
    /// Fixed per-transfer cycles (router hops, NoP PHY traversal).
    pub fixed_cycles: u64,
    /// Whether the transfer crosses a chiplet boundary (NoP).
    pub crosses_chiplet: bool,
    /// NoC energy, whole picojoules ×1000 (fixed-point to keep `Eq`).
    /// `pub(crate)` so [`crate::snapshot`] can serialize the comm tier.
    pub(crate) noc_mpj: u64,
    /// NoP energy, milli-picojoules.
    pub(crate) nop_mpj: u64,
}

impl TransferCost {
    /// Total transfer latency, seconds.
    pub fn latency_s(&self) -> f64 {
        (self.ser_cycles + self.fixed_cycles) as f64 / tech28::CLOCK_HZ
    }

    /// NoC energy, pJ.
    pub fn noc_pj(&self) -> f64 {
        self.noc_mpj as f64 / 1000.0
    }

    /// NoP energy, pJ.
    pub fn nop_pj(&self) -> f64 {
        self.nop_mpj as f64 / 1000.0
    }
}

/// The bytes-independent part of a transfer between two unit classes:
/// whether it crosses a chiplet boundary and the hop distance it pays
/// (NoC torus hops on a shared die, AIB channel hops across dies).
/// Determined entirely by the configuration's topology — classes,
/// chiplet partition, and interposer placement — never by the payload
/// or the hardware parameters, which is what lets the comm tier reuse
/// one priced edge sequence across every hardware point of a topology
/// (see [`edge_cost_sequence`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeRoute {
    /// Whether the transfer pays the NoP (crosses a chiplet boundary).
    pub crosses_chiplet: bool,
    /// NoC torus hops when on one die; AIB channel hops when crossing.
    pub hops: u32,
}

/// Computes the route between two **distinct** unit classes on
/// `config` — the expensive part of [`edge_transfer`] (die lookup,
/// torus fitting, position search).
pub fn route_of(
    config: &DesignConfig,
    from: claire_model::OpClass,
    to: claire_model::OpClass,
) -> EdgeRoute {
    // With no fault plan every class pair routes, so the fallback is
    // unreachable.
    route_of_avoiding(config, from, to, None).unwrap_or(EdgeRoute {
        crosses_chiplet: false,
        hops: 0,
    })
}

/// [`route_of`] under an optional fault plan whose failed torus links
/// must be routed around. Returns `None` when every surviving path is
/// severed (only possible with a plan). With `faults == None` this is
/// exactly [`route_of`]: same-die hop counts come from the intact
/// torus's XY distance.
pub(crate) fn route_of_avoiding(
    config: &DesignConfig,
    from: claire_model::OpClass,
    to: claire_model::OpClass,
    faults: Option<&crate::fault::FaultPlan>,
) -> Option<EdgeRoute> {
    let cross = match (config.chiplet_of(from), config.chiplet_of(to)) {
        (Some(x), Some(y)) if x != y => Some((x, y)),
        _ => None, // same chiplet or monolithic
    };
    match cross {
        // Cross-chiplet transfers ride dedicated AIB channels, not the
        // torus, so link faults never sever them.
        Some((x, y)) => Some(EdgeRoute {
            crosses_chiplet: true,
            hops: config.chiplet_distance(x, y),
        }),
        None => {
            // Same chiplet (or monolithic): NoC with hop distance on
            // the torus of the die hosting both units — the chiplet's
            // own torus once clustered, the whole configuration's
            // before.
            let classes: Vec<_> = match config.chiplet_of(from) {
                Some(c) => config.chiplets[c].classes.iter().copied().collect(),
                None => config.classes.iter().copied().collect(),
            };
            let position = |class| classes.binary_search(&class).unwrap_or(0) as u32;
            let torus = Torus2d::fitting(classes.len());
            let a = position(from) % torus.size();
            let b = position(to) % torus.size();
            let hops = match faults {
                Some(plan) if plan.has_link_faults() => {
                    let (hops, expanded) = torus.hops_avoiding_counted(a, b, &|u, v| {
                        plan.link_failed(torus.cols(), torus.rows(), u, v)
                    });
                    if let Some(t) = plan.telemetry() {
                        t.count(crate::telemetry::Metric::NocReroutes);
                        t.count_by(
                            crate::telemetry::Metric::NocRerouteVisited,
                            u64::from(expanded),
                        );
                    }
                    hops?
                }
                _ => torus.hops(a, b),
            };
            Some(EdgeRoute {
                crosses_chiplet: false,
                hops,
            })
        }
    }
}

/// Prices `bytes` over a precomputed [`EdgeRoute`] — the cheap part of
/// [`edge_transfer`].
pub fn transfer_on_route(route: EdgeRoute, bytes: u64) -> TransferCost {
    let noc = Network::noc();
    let nop = Network::nop_aib2();
    let ser = (bytes as f64 / noc.bytes_per_cycle()).ceil() as u64;
    if route.crosses_chiplet {
        // AIB channel hops per the interposer placement (adjacent dies
        // = 1) plus a local NoC hop on each side: two serialisations
        // and both networks' hop latencies.
        let d = route.hops;
        TransferCost {
            ser_cycles: 2 * ser,
            fixed_cycles: u64::from(nop.router.hop_cycles) * u64::from(d)
                + 2 * u64::from(noc.router.hop_cycles),
            crosses_chiplet: true,
            noc_mpj: (noc.energy_pj(bytes, 2) * 1000.0).round() as u64,
            nop_mpj: (nop.energy_pj(bytes, d) * 1000.0).round() as u64,
        }
    } else {
        TransferCost {
            ser_cycles: ser,
            fixed_cycles: u64::from(noc.router.hop_cycles) * u64::from(route.hops),
            crosses_chiplet: false,
            noc_mpj: (noc.energy_pj(bytes, route.hops) * 1000.0).round() as u64,
            nop_mpj: 0,
        }
    }
}

/// Computes the transfer cost of moving `bytes` from unit class `from`
/// to unit class `to` on `config` (Step #TR3's NoC-inside / NoP-across
/// rule). A transfer between identical classes is free.
pub fn edge_transfer(
    config: &DesignConfig,
    from: claire_model::OpClass,
    to: claire_model::OpClass,
    bytes: u64,
) -> TransferCost {
    if from == to {
        return TransferCost {
            ser_cycles: 0,
            fixed_cycles: 0,
            crosses_chiplet: false,
            noc_mpj: 0,
            nop_mpj: 0,
        };
    }
    transfer_on_route(route_of(config, from, to), bytes)
}

/// A lazily filled per-class-pair route matrix for one configuration
/// topology. Cells are [`OnceLock`]s, so each pair is routed at most
/// once per table and every later edge pays a single atomic load. A
/// table may carry a fault plan with failed torus links; its routes
/// then detour around the dead links (degraded hop counts) and a
/// severed class pair memoizes as unroutable.
#[derive(Debug, Default)]
pub struct RouteTable {
    cells: [[OnceLock<Option<EdgeRoute>>; OpClass::COUNT]; OpClass::COUNT],
    faults: Option<Arc<crate::fault::FaultPlan>>,
}

impl RouteTable {
    /// An empty table with no link faults.
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// An empty table whose routes avoid the plan's failed links.
    pub fn with_link_faults(plan: Arc<crate::fault::FaultPlan>) -> Self {
        RouteTable {
            cells: Default::default(),
            faults: Some(plan),
        }
    }

    /// The route between two **distinct** classes, computing and
    /// memoizing it on first use. `config` must have the topology this
    /// table was created for.
    ///
    /// # Errors
    ///
    /// Returns [`ClaireError::NoRoute`] when failed links disconnect
    /// the pair (only possible on a table built with
    /// [`RouteTable::with_link_faults`]).
    pub fn route(
        &self,
        config: &DesignConfig,
        from: claire_model::OpClass,
        to: claire_model::OpClass,
    ) -> Result<EdgeRoute, ClaireError> {
        (*self.cells[from.index()][to.index()]
            .get_or_init(|| route_of_avoiding(config, from, to, self.faults.as_deref())))
        .ok_or_else(|| ClaireError::NoRoute {
            from: from.label(),
            to: to.label(),
        })
    }
}

/// A model's summed compute cost under one hardware point with the
/// paper-default (compute-only) accounting — a pure function of the
/// model's layer sequence and `hw`, independent of the configuration's
/// classes, chiplet partition, or placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeSum {
    /// Total compute cycles across all layers.
    pub cycles: u64,
    /// Total compute energy, pJ.
    pub energy_pj: f64,
}

/// The evaluator's hot computations, pluggable so the engine can
/// memoize them (see [`crate::parallel::Engine`]). Implementations
/// must behave as pure functions of their arguments; the defaults are
/// the reference implementations.
pub trait CostProvider: Sync {
    /// Per-layer compute cost under `hw`.
    fn layer_cost(
        &self,
        kind: &claire_model::LayerKind,
        hw: &claire_ppa::HwParams,
    ) -> claire_ppa::LayerCost {
        layer_cost(kind, hw)
    }

    /// Whole-model compute totals under `hw` (compute-only accounting;
    /// the weight-streaming path stays per-layer in the evaluator).
    fn compute_sum(&self, model: &Model, hw: &claire_ppa::HwParams) -> ComputeSum {
        let mut cycles: u64 = 0;
        let mut energy_pj = 0.0;
        for layer in model.layers() {
            let c = self.layer_cost(&layer.kind, hw);
            cycles += c.cycles;
            energy_pj += c.energy_pj;
        }
        ComputeSum { cycles, energy_pj }
    }

    /// The route table to consult for `config`'s edges. The default
    /// returns a fresh table per call (per-pair memoization within one
    /// evaluation only); the engine's tables also carry its fault
    /// plan's failed links.
    fn routes(&self, config: &DesignConfig) -> RouteTable {
        let _ = config;
        RouteTable::new()
    }

    /// The execution-order per-edge transfer-cost sequence for
    /// `(model, config)`, if the provider has one. `Some(seq)` makes
    /// the evaluator replay `seq` instead of walking `model.edges()`
    /// through [`RouteTable::route`]; the sequence must be exactly
    /// what [`edge_cost_sequence`] returns for the pair (same values,
    /// same order, same-class edges excluded), which makes the replay
    /// bit-identical to the walk. `None` (the default) keeps the
    /// direct walk — also the escape hatch when the sequence cannot
    /// be built (coverage/route errors must surface from the walk's
    /// own error path).
    fn edge_costs(&self, model: &Model, config: &DesignConfig) -> Option<Arc<[TransferCost]>> {
        let _ = (model, config);
        None
    }
}

/// The uncached reference [`CostProvider`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectCosts;

impl CostProvider for DirectCosts {}

/// Builds the execution-order sequence of per-edge [`TransferCost`]s
/// for `(model, config)`, pricing each edge family
/// ([`Model::edge_families`]) once: one executing-class and one route
/// lookup per distinct `(from, to, bytes)` edge, then the sequence is
/// expanded through [`Model::edge_family_index`]. A transfer's cost is
/// a pure function of its family and the configuration, and
/// [`TransferCost`]'s fields are integer/fixed-point, so replaying the
/// sequence in order is bit-identical to the evaluator's per-edge
/// walk. Same-class edges are free and excluded, as in the walk.
///
/// Families are numbered in order of first occurrence and each is
/// priced at its first edge, so the lookups run in the walk's order:
/// the first failing edge fails here too, with the same error, and a
/// fault-carrying `routes` table routes the same pairs in the same
/// order.
///
/// This is the miss path of the engine's per-`(model, topology)`
/// communication memo tier; the property tests pin it to the per-edge
/// walk.
///
/// # Errors
///
/// Exactly the walk's errors: [`ClaireError::IncompleteCoverage`] for
/// a class `config` cannot execute, [`ClaireError::NoRoute`] when a
/// fault-carrying `routes` table has the pair severed.
pub fn edge_cost_sequence(
    model: &Model,
    config: &DesignConfig,
    routes: &RouteTable,
) -> Result<Vec<TransferCost>, ClaireError> {
    let executing = |c: OpClass| {
        config
            .executing_class(c)
            .ok_or_else(|| ClaireError::IncompleteCoverage {
                algorithm: model.name().to_owned(),
                config: config.name.clone(),
                missing: c.label(),
            })
    };
    let families = model.edge_families();
    // Per family priced so far: its transfer, or `None` when free.
    let mut priced: Vec<Option<TransferCost>> = Vec::with_capacity(families.len());
    let mut seq = Vec::new();
    for &family in model.edge_family_index() {
        let family = family as usize;
        if family == priced.len() {
            let (a, b, bytes) = families[family];
            let (ea, eb) = (executing(a)?, executing(b)?);
            priced.push(if ea == eb {
                None // same-class transfers are free
            } else {
                Some(transfer_on_route(routes.route(config, ea, eb)?, bytes))
            });
        }
        if let Some(t) = priced[family] {
            seq.push(t);
        }
    }
    Ok(seq)
}

/// Evaluates `model` on `config`.
///
/// Compute follows the analytical unit models under the
/// configuration's hardware parameters. Each inter-layer transfer
/// rides the NoC when producer and consumer units share a chiplet
/// (hop count from the chiplet's own 2-D torus placement) and one NoP
/// (AIB) channel hop plus local NoC hops when they do not. A
/// monolithic (unclustered) configuration uses NoC everywhere.
///
/// # Errors
///
/// Returns [`ClaireError::IncompleteCoverage`] when the configuration
/// cannot implement one of the model's layer classes — the paper
/// requires `C_layer = 100 %` before performance is reported.
pub fn evaluate(model: &Model, config: &DesignConfig) -> Result<PpaReport, ClaireError> {
    evaluate_with(model, config, EvalOptions::default())
}

/// [`evaluate`] with explicit energy-accounting options.
///
/// # Errors
///
/// Same as [`evaluate`].
pub fn evaluate_with(
    model: &Model,
    config: &DesignConfig,
    opts: EvalOptions,
) -> Result<PpaReport, ClaireError> {
    evaluate_with_costs(model, config, opts, &DirectCosts)
}

/// [`evaluate_with`] under an explicit layer-cost provider — the hook
/// the parallel engine uses to route compute costs through its memo
/// cache (see [`crate::parallel::Engine`]). The provider must be a
/// pure function of `(layer, hw)`; [`claire_ppa::layer_cost`] is the
/// reference implementation.
///
/// # Errors
///
/// Same as [`evaluate`].
pub fn evaluate_with_costs(
    model: &Model,
    config: &DesignConfig,
    opts: EvalOptions,
    costs: &dyn CostProvider,
) -> Result<PpaReport, ClaireError> {
    if let Some(missing) = config.first_missing(model) {
        return Err(ClaireError::IncompleteCoverage {
            algorithm: model.name().to_owned(),
            config: config.name.clone(),
            missing: missing.label(),
        });
    }

    let noc = Network::noc();
    let nop = Network::nop_aib2();

    // --- Compute (optionally bounded by weight streaming).
    let ComputeSum { cycles, energy_pj } = match &opts.memory {
        None => costs.compute_sum(model, &config.hw),
        Some(mem) => {
            // Weight streaming couples each layer's time to the memory
            // model, so this path stays per-layer (and per-layer costs
            // still ride the provider's memo cache).
            let mut cycles: u64 = 0;
            let mut energy_pj = 0.0;
            for layer in model.layers() {
                let c = costs.layer_cost(&layer.kind, &config.hw);
                let bytes = claire_ppa::layer_weight_bytes(&layer.kind);
                cycles += c.cycles.max(mem.stream_cycles(bytes));
                energy_pj += c.energy_pj + mem.stream_energy_pj(bytes);
            }
            ComputeSum { cycles, energy_pj }
        }
    };
    let mut latency_s = cycles as f64 / tech28::CLOCK_HZ;

    // --- Communication. Per-chiplet torus placement: each chiplet's
    // module groups sit on the smallest torus that fits them, in class
    // order; a monolithic die places all groups on one torus. The
    // per-edge cost is shared with the discrete-event simulator via
    // [`edge_transfer`].
    let mut noc_pj = 0.0;
    let mut nop_pj = 0.0;
    if let Some(seq) = costs.edge_costs(model, config) {
        // Memoized sequence replay: same costs, same order, same fold
        // as the walk below — bit-identical by construction (see
        // [`edge_cost_sequence`]).
        for t in seq.iter() {
            latency_s += t.latency_s();
            noc_pj += t.noc_pj();
            nop_pj += t.nop_pj();
        }
    } else {
        let routes = costs.routes(config);
        // Coverage was prechecked above; a class that still fails to
        // resolve indicates the check and the executor disagree —
        // surfaced as the same typed error rather than a panic.
        let executing = |c: OpClass| {
            config
                .executing_class(c)
                .ok_or_else(|| ClaireError::IncompleteCoverage {
                    algorithm: model.name().to_owned(),
                    config: config.name.clone(),
                    missing: c.label(),
                })
        };
        for (a, b, bytes) in model.edges() {
            let (ea, eb) = (executing(a)?, executing(b)?);
            if ea == eb {
                continue; // same-class transfers are free
            }
            let t = transfer_on_route(routes.route(config, ea, eb)?, bytes);
            latency_s += t.latency_s();
            noc_pj += t.noc_pj();
            nop_pj += t.nop_pj();
        }
    }

    let area = config.area_mm2();
    let leakage_j = if opts.include_leakage {
        let leaking_area = if opts.power_gating {
            // Only module groups the algorithm exercises leak, plus
            // one router per live group and the NoP PHYs.
            let used: std::collections::BTreeSet<_> = model
                .op_class_counts()
                .keys()
                .filter_map(|&c| config.executing_class(c))
                .collect();
            let units: f64 = used
                .iter()
                .map(|&c| claire_ppa::unit_area_mm2(c, &config.hw))
                .sum();
            units
                + used.len() as f64 * noc.router.area_mm2
                + config.chiplets.len().max(1) as f64 * nop.router.area_mm2
        } else {
            area
        };
        tech28::LEAKAGE_W_PER_MM2 * leaking_area * latency_s
    } else {
        0.0
    };

    EvalTerms {
        latency_s,
        compute_pj: energy_pj,
        noc_pj,
        nop_pj,
        area_mm2: area,
        leakage_j,
    }
    .into_report(model, &config.name)
}

/// The summed terms of one evaluation, before the report tail. The
/// evaluator and the engine's prepared shell pricer
/// ([`crate::parallel::ShellPricer`]) both finish through
/// [`EvalTerms::into_report`], so their reports share one assembly and
/// one finiteness gate.
#[derive(Debug)]
pub(crate) struct EvalTerms {
    /// Compute seconds plus every transfer's latency, in edge order.
    pub(crate) latency_s: f64,
    /// Compute energy, pJ.
    pub(crate) compute_pj: f64,
    /// NoC transfer energy, pJ, folded from `0.0` in edge order.
    pub(crate) noc_pj: f64,
    /// NoP transfer energy, pJ, folded from `0.0` in edge order.
    pub(crate) nop_pj: f64,
    /// Configuration silicon area, mm².
    pub(crate) area_mm2: f64,
    /// Static energy, J (0 under the paper's dynamic-only accounting).
    pub(crate) leakage_j: f64,
}

impl EvalTerms {
    /// Assembles the [`PpaReport`] and applies the finiteness gate.
    ///
    /// # Errors
    ///
    /// [`ClaireError::NonFiniteMetric`] naming the first non-finite
    /// metric, reported against `model` and `config_name`.
    pub(crate) fn into_report(
        self,
        model: &Model,
        config_name: &str,
    ) -> Result<PpaReport, ClaireError> {
        let report = PpaReport {
            latency_s: self.latency_s,
            energy_j: (self.compute_pj + self.noc_pj + self.nop_pj) * 1e-12 + self.leakage_j,
            area_mm2: self.area_mm2,
            nop_energy_j: self.nop_pj * 1e-12,
            noc_energy_j: self.noc_pj * 1e-12,
            leakage_j: self.leakage_j,
        };
        // Finiteness gate: corrupt unit-PPA data or a degenerate
        // configuration must surface as a typed error here, never as a
        // NaN/Inf that silently poisons downstream sums and
        // comparisons. Derived metrics are included so a zero latency
        // or area (which would make power or density non-finite) is
        // caught too.
        let checks: [(&'static str, f64); 5] = [
            ("latency", report.latency_s),
            ("energy", report.energy_j),
            ("area", report.area_mm2),
            ("power", report.power_w()),
            ("power_density", report.power_density_w_per_mm2()),
        ];
        for (metric, value) in checks {
            if !value.is_finite() {
                return Err(ClaireError::NonFiniteMetric {
                    algorithm: model.name().to_owned(),
                    config: config_name.to_owned(),
                    metric,
                });
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Chiplet;
    use claire_model::{zoo, ActivationKind, OpClass};
    use claire_ppa::HwParams;
    use std::collections::BTreeSet;

    fn hw() -> HwParams {
        HwParams::new(32, 32, 16, 16)
    }

    fn config_for(model: &claire_model::Model) -> DesignConfig {
        let classes: BTreeSet<OpClass> = model.op_class_counts().keys().copied().collect();
        DesignConfig::monolithic(format!("C_{}", model.name()), hw(), classes)
    }

    #[test]
    fn alexnet_ppa_is_sane() {
        let m = zoo::alexnet();
        let r = evaluate(&m, &config_for(&m)).unwrap();
        // 0.7 GMACs on ~33 TMAC/s with overheads: sub-millisecond.
        assert!(r.latency_s > 1e-6 && r.latency_s < 1e-2, "{}", r.latency_s);
        // >= MAC energy alone.
        assert!(r.energy_j >= m.macs() as f64 * 0.8e-12);
        assert!(r.area_mm2 > 10.0 && r.area_mm2 < 100.0, "{}", r.area_mm2);
    }

    #[test]
    fn power_density_below_cloud_limit() {
        let m = zoo::resnet50();
        let r = evaluate(&m, &config_for(&m)).unwrap();
        assert!(
            r.power_density_w_per_mm2() < 1.0,
            "{}",
            r.power_density_w_per_mm2()
        );
    }

    #[test]
    fn uncovered_model_is_an_error() {
        let m = zoo::alexnet();
        let cfg =
            DesignConfig::monolithic("linear-only", hw(), [OpClass::Linear].into_iter().collect());
        let err = evaluate(&m, &cfg).unwrap_err();
        assert!(matches!(err, ClaireError::IncompleteCoverage { .. }));
    }

    #[test]
    fn split_config_pays_nop_energy() {
        let m = zoo::alexnet();
        let mono = config_for(&m);
        let mut split = mono.clone();
        // Put the linear head on its own chiplet.
        let head: BTreeSet<OpClass> = [OpClass::Linear].into_iter().collect();
        let body: BTreeSet<OpClass> = split
            .classes
            .iter()
            .copied()
            .filter(|c| *c != OpClass::Linear)
            .collect();
        split.chiplets = vec![
            Chiplet::from_classes("L1", body, &hw()),
            Chiplet::from_classes("L2", head, &hw()),
        ];
        let r_mono = evaluate(&m, &mono).unwrap();
        let r_split = evaluate(&m, &split).unwrap();
        assert_eq!(r_mono.nop_energy_j, 0.0);
        assert!(r_split.nop_energy_j > 0.0);
        assert!(r_split.energy_j > r_mono.energy_j);
    }

    #[test]
    fn energy_difference_between_configs_is_small() {
        // The paper observes ~0.2 % energy variation across
        // configurations (no power gating, identical compute):
        // communication is the only difference.
        let m = zoo::bert_base();
        let own = config_for(&m);
        let mut wider = own.clone();
        wider
            .classes
            .insert(OpClass::Activation(ActivationKind::Silu));
        wider.classes.insert(OpClass::Conv2d);
        let r1 = evaluate(&m, &own).unwrap();
        let r2 = evaluate(&m, &wider).unwrap();
        let rel = (r2.energy_j - r1.energy_j).abs() / r1.energy_j;
        assert!(rel < 0.02, "{rel}");
    }

    #[test]
    fn same_class_transfer_is_free() {
        // LINEAR -> LINEAR stays inside the systolic group: no NoC hop.
        let m = zoo::graphormer();
        let cfg = config_for(&m);
        let r = evaluate(&m, &cfg).unwrap();
        assert!(r.noc_energy_j < r.energy_j * 0.5);
    }

    #[test]
    fn leakage_disabled_by_default() {
        let m = zoo::alexnet();
        let r = evaluate(&m, &config_for(&m)).unwrap();
        assert_eq!(r.leakage_j, 0.0);
    }

    #[test]
    fn leakage_scales_with_area_and_latency() {
        let m = zoo::alexnet();
        let cfg = config_for(&m);
        let opts = EvalOptions {
            include_leakage: true,
            ..EvalOptions::default()
        };
        let r = evaluate_with(&m, &cfg, opts).unwrap();
        let expected = claire_ppa::tech28::LEAKAGE_W_PER_MM2 * r.area_mm2 * r.latency_s;
        assert!((r.leakage_j - expected).abs() < 1e-12);
        assert!(r.energy_j > evaluate(&m, &cfg).unwrap().energy_j);
    }

    #[test]
    fn power_gating_reduces_leakage_on_oversized_configs() {
        // BERT on a generic-like config: gating idles the unused
        // conv/pool groups.
        let m = zoo::bert_base();
        let mut classes: BTreeSet<OpClass> = m.op_class_counts().keys().copied().collect();
        classes.extend([
            OpClass::Conv2d,
            OpClass::Conv1d,
            OpClass::Pooling(claire_model::PoolingKind::MaxPool),
        ]);
        let cfg = DesignConfig::monolithic("wide", hw(), classes);
        let ungated = evaluate_with(
            &m,
            &cfg,
            EvalOptions {
                include_leakage: true,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        let gated = evaluate_with(
            &m,
            &cfg,
            EvalOptions {
                include_leakage: true,
                power_gating: true,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        assert!(gated.leakage_j < 0.5 * ungated.leakage_j);
    }

    fn split_alexnet() -> (claire_model::Model, DesignConfig) {
        let m = zoo::alexnet();
        let mut split = config_for(&m);
        let head: BTreeSet<OpClass> = [OpClass::Linear].into_iter().collect();
        let body: BTreeSet<OpClass> = split
            .classes
            .iter()
            .copied()
            .filter(|c| *c != OpClass::Linear)
            .collect();
        split.chiplets = vec![
            Chiplet::from_classes("L1", body, &hw()),
            Chiplet::from_classes("L2", head, &hw()),
        ];
        (m, split)
    }

    #[test]
    fn edge_cost_sequence_matches_per_edge_walk() {
        let (m, split) = split_alexnet();
        for cfg in [config_for(&m), split] {
            let seq = edge_cost_sequence(&m, &cfg, &RouteTable::new()).unwrap();
            let mut walk = Vec::new();
            for (a, b, bytes) in m.edges() {
                let ea = cfg.executing_class(a).unwrap();
                let eb = cfg.executing_class(b).unwrap();
                if ea == eb {
                    continue;
                }
                walk.push(transfer_on_route(route_of(&cfg, ea, eb), bytes));
            }
            assert_eq!(seq, walk, "family-priced sequence diverged on {}", cfg.name);
            assert!(!seq.is_empty(), "alexnet has cross-class edges");
        }
    }

    struct SeqCosts(Arc<[TransferCost]>);

    impl CostProvider for SeqCosts {
        fn edge_costs(&self, _m: &Model, _c: &DesignConfig) -> Option<Arc<[TransferCost]>> {
            Some(self.0.clone())
        }
    }

    #[test]
    fn evaluator_sequence_replay_is_bit_identical() {
        let (m, split) = split_alexnet();
        for cfg in [config_for(&m), split] {
            let seq: Arc<[TransferCost]> = edge_cost_sequence(&m, &cfg, &RouteTable::new())
                .unwrap()
                .into();
            let direct = evaluate(&m, &cfg).unwrap();
            let replay =
                evaluate_with_costs(&m, &cfg, EvalOptions::default(), &SeqCosts(seq)).unwrap();
            assert_eq!(
                format!("{direct:?}"),
                format!("{replay:?}"),
                "replay diverged on {}",
                cfg.name
            );
        }
    }

    #[test]
    fn edge_cost_sequence_surfaces_coverage_error() {
        let m = zoo::alexnet();
        let cfg =
            DesignConfig::monolithic("linear-only", hw(), [OpClass::Linear].into_iter().collect());
        let err = edge_cost_sequence(&m, &cfg, &RouteTable::new()).unwrap_err();
        assert!(matches!(err, ClaireError::IncompleteCoverage { .. }));
    }

    #[test]
    fn tanh_executes_on_gelu_unit() {
        let m = zoo::bert_base();
        let mut classes: BTreeSet<OpClass> = m.op_class_counts().keys().copied().collect();
        classes.remove(&OpClass::Activation(ActivationKind::Tanh));
        let cfg = DesignConfig::monolithic("C_3", hw(), classes);
        assert!(evaluate(&m, &cfg).is_ok());
    }
}
