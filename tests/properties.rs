//! Property-based tests over the core data structures and invariants:
//! weighted Jaccard, Louvain partitions, graph merging, the
//! `print(model)` parser round-trip, DSE feasibility, the metrics'
//! ranges, and the cost/NoC models.

use claire::core::{
    edge_cost_sequence, metrics, route_of, transfer_on_route, Claire, ClaireOptions, Constraints,
    DesignConfig, RouteTable, TransferCost,
};
use claire::cost::{NreModel, RecurringModel};
use claire::graph::{
    louvain, louvain_passes, modularity, weighted_jaccard, weighted_jaccard_matrix, CsrGraph,
    Partition, WeightedGraph,
};
use claire::model::parse::{parse_model, to_torch_print, InputShape, ParseOptions};
use claire::model::{
    Activation, ActivationKind, Conv2d, LayerKind, Linear, Model, ModelBuilder, ModelClass,
    OpClass, Pooling, PoolingKind,
};
use claire::noc::{Network, Torus2d};
use claire::ppa::{layer_cost, unit_area_mm2, DseSpace, HwParams};
use louvain_oracle::{louvain_passes_reference, louvain_reference};
use proptest::prelude::*;
use std::collections::BTreeMap;

mod louvain_oracle;

// ---------- strategies ----------

fn weight_vec() -> impl Strategy<Value = BTreeMap<u8, f64>> {
    proptest::collection::btree_map(0u8..12, 0.0f64..1e9, 0..10)
}

fn small_graph() -> impl Strategy<Value = WeightedGraph<u8>> {
    proptest::collection::vec((0u8..10, 0u8..10, 0.1f64..1e6), 1..40).prop_map(|edges| {
        let mut g = WeightedGraph::new();
        for (a, b, w) in edges {
            g.add_edge(a, b, w);
        }
        g
    })
}

/// A random but shape-consistent CNN-ish model.
#[derive(Debug, Clone)]
enum Step {
    Conv { out_ch: u8, k: u8, stride: u8 },
    Act(u8),
    Pool(u8),
    Linear { out: u16 },
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        (1u8..32, 1u8..5, 1u8..3).prop_map(|(out_ch, k, stride)| Step::Conv { out_ch, k, stride }),
        (0u8..5).prop_map(Step::Act),
        (0u8..3).prop_map(Step::Pool),
        (1u16..512).prop_map(|out| Step::Linear { out }),
    ];
    proptest::collection::vec(step, 1..25)
}

fn materialize(steps: &[Step]) -> Model {
    let mut b = ModelBuilder::new("random", ModelClass::Cnn);
    let mut ch: u32 = 3;
    let mut side: u32 = 64;
    let mut flat: Option<u32> = None;
    for (i, s) in steps.iter().enumerate() {
        match s {
            Step::Conv { out_ch, k, stride } if flat.is_none() => {
                let k = u32::from(*k).min(side).max(1);
                let c = Conv2d {
                    in_channels: ch,
                    out_channels: u32::from(*out_ch),
                    kernel: (k, k),
                    stride: (u32::from(*stride), u32::from(*stride)),
                    padding: (k / 2, k / 2),
                    ifm: (side, side),
                    groups: 1,
                };
                let (o, _) = c.ofm();
                if o == 0 {
                    continue;
                }
                b.push(format!("conv{i}"), LayerKind::Conv2d(c));
                ch = u32::from(*out_ch);
                side = o;
            }
            Step::Act(a) => {
                let kind = ActivationKind::ALL[usize::from(*a) % 5];
                let elements = flat
                    .map(u64::from)
                    .unwrap_or(u64::from(ch) * u64::from(side) * u64::from(side));
                b.push(
                    format!("act{i}"),
                    LayerKind::Activation(Activation { kind, elements }),
                );
            }
            Step::Pool(p) if flat.is_none() && side >= 2 => {
                let kind = PoolingKind::ALL[usize::from(*p) % 3];
                let out = side / 2;
                b.push(
                    format!("pool{i}"),
                    LayerKind::Pooling(Pooling {
                        kind,
                        input_elements: u64::from(ch) * u64::from(side) * u64::from(side),
                        output_elements: u64::from(ch) * u64::from(out) * u64::from(out),
                    }),
                );
                side = out;
            }
            Step::Linear { out } => {
                let inf = flat.unwrap_or(ch * side * side).max(1);
                b.push(
                    format!("fc{i}"),
                    LayerKind::Linear(Linear {
                        in_features: inf,
                        out_features: u32::from(*out),
                        tokens: 1,
                    }),
                );
                flat = Some(u32::from(*out));
            }
            _ => {}
        }
    }
    if b.is_empty() {
        b.push(
            "fallback",
            LayerKind::Linear(Linear {
                in_features: 64,
                out_features: 10,
                tokens: 1,
            }),
        );
    }
    b.build()
}

// ---------- weighted Jaccard ----------

proptest! {
    #[test]
    fn jaccard_in_unit_interval(a in weight_vec(), b in weight_vec()) {
        let j = weighted_jaccard(&a, &b);
        prop_assert!((0.0..=1.0).contains(&j), "{j}");
    }

    #[test]
    fn jaccard_symmetric(a in weight_vec(), b in weight_vec()) {
        prop_assert_eq!(weighted_jaccard(&a, &b), weighted_jaccard(&b, &a));
    }

    #[test]
    fn jaccard_self_is_one(a in weight_vec()) {
        prop_assert_eq!(weighted_jaccard(&a, &a), 1.0);
    }

    /// The batch similarity matrix is bit-for-bit the pairwise
    /// function: symmetric, unit diagonal, every off-diagonal entry
    /// identical (`to_bits`) to `weighted_jaccard` on the same pair.
    #[test]
    fn jaccard_matrix_matches_pairwise(vs in proptest::collection::vec(weight_vec(), 0..8)) {
        let m = weighted_jaccard_matrix(&vs);
        prop_assert_eq!(m.len(), vs.len());
        for i in 0..vs.len() {
            prop_assert_eq!(m[i][i], 1.0);
            for j in 0..vs.len() {
                prop_assert_eq!(m[i][j].to_bits(), m[j][i].to_bits());
                if i != j {
                    prop_assert_eq!(
                        m[i][j].to_bits(),
                        weighted_jaccard(&vs[i], &vs[j]).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn jaccard_scaling_down_reduces_similarity(a in weight_vec(), f in 1.5f64..100.0) {
        prop_assume!(a.values().any(|&w| w > 0.0));
        let scaled: BTreeMap<u8, f64> = a.iter().map(|(k, w)| (*k, w / f)).collect();
        let j = weighted_jaccard(&a, &scaled);
        prop_assert!((j - 1.0 / f).abs() < 1e-9, "{j} vs {}", 1.0 / f);
    }
}

// ---------- graphs and Louvain ----------

proptest! {
    #[test]
    fn louvain_partition_is_valid(g in small_graph()) {
        let p = louvain(&g, 1.0);
        let mut seen = std::collections::BTreeSet::new();
        for c in p.communities() {
            prop_assert!(!c.is_empty());
            for n in c {
                prop_assert!(seen.insert(*n), "node {n} in two communities");
                prop_assert!(g.node_weight(n).is_some());
            }
        }
        prop_assert_eq!(seen.len(), g.node_count());
    }

    #[test]
    fn louvain_at_least_matches_singletons(g in small_graph()) {
        let p = louvain(&g, 1.0);
        let singles = Partition::from_communities(
            g.nodes().map(|(n, _)| vec![*n]).collect(),
        );
        let q_louvain = modularity(&g, &p, 1.0);
        let q_single = modularity(&g, &singles, 1.0);
        prop_assert!(q_louvain >= q_single - 1e-9, "{q_louvain} < {q_single}");
    }

    /// Louvain carries no hidden state: the same graph (however its
    /// edges were inserted) and the same resolution always produce the
    /// identical community assignment, run after run.
    #[test]
    fn louvain_is_deterministic_across_runs(g in small_graph(), res in 0.25f64..4.0) {
        let first = louvain(&g, res);
        for _ in 0..3 {
            prop_assert_eq!(&louvain(&g, res), &first);
        }
        // Rebuilding the graph from its own parts (fresh insertion
        // order) changes nothing either.
        let rebuilt = WeightedGraph::from_parts(
            g.nodes().map(|(n, w)| (*n, w)).collect::<Vec<_>>(),
            g.undirected_edges().into_iter().rev().map(|((a, b), w)| (a, b, w)).collect::<Vec<_>>(),
        );
        prop_assert_eq!(&louvain(&rebuilt, res), &first);
    }

    /// Each Louvain pass only applies positive-gain local moves, so
    /// partition quality (modularity) never decreases from one pass to
    /// the next — from the initial singletons to the final partition.
    #[test]
    fn louvain_modularity_non_decreasing_across_passes(g in small_graph(), res in 0.25f64..4.0) {
        let passes = louvain_passes(&g, res);
        prop_assert!(!passes.is_empty());
        prop_assert_eq!(passes.last().unwrap(), &louvain(&g, res));
        let qs: Vec<f64> = passes.iter().map(|p| modularity(&g, p, res)).collect();
        for w in qs.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-9, "modularity dropped across a pass: {qs:?}");
        }
    }

    /// The flat CSR Louvain is a drop-in replacement for the map-based
    /// reference implementation: identical partitions — not merely
    /// equal modularity — on arbitrary random weighted graphs and
    /// resolutions, pass by pass.
    #[test]
    fn csr_louvain_matches_map_reference(g in small_graph(), res in 0.25f64..4.0) {
        prop_assert_eq!(&louvain(&g, res), &louvain_reference(&g, res));
        prop_assert_eq!(&louvain_passes(&g, res), &louvain_passes_reference(&g, res));
    }

    /// Interning to CSR and back loses nothing the kernels read:
    /// re-interning the round-tripped graph reproduces the CSR arrays
    /// exactly, and community structure is unchanged.
    #[test]
    fn csr_round_trip_is_lossless(g in small_graph(), res in 0.25f64..4.0) {
        let csr = CsrGraph::from_weighted(&g);
        let rt = csr.to_weighted();
        prop_assert_eq!(&CsrGraph::from_weighted(&rt), &csr);
        prop_assert_eq!(&louvain(&rt, res), &louvain(&g, res));
    }

    #[test]
    fn merge_weights_are_additive(g1 in small_graph(), g2 in small_graph()) {
        let mut merged = g1.clone();
        merged.merge(&g2);
        for (n, w) in merged.nodes() {
            let w1 = g1.node_weight(n).unwrap_or(0.0);
            let w2 = g2.node_weight(n).unwrap_or(0.0);
            prop_assert!((w - (w1 + w2)).abs() < 1e-9);
        }
        prop_assert!(
            (merged.total_edge_weight() - g1.total_edge_weight() - g2.total_edge_weight()).abs()
                < 1e-6
        );
    }
}

/// `csr_louvain_matches_map_reference` on fixed graphs: two triangles
/// joined by a weak bridge across four resolutions, and a graph with a
/// self-loop, reciprocal edges and an isolated node.
#[test]
fn csr_matches_reference_on_fixed_graphs() {
    let mut g = WeightedGraph::new();
    for &(a, b) in &[(0_u32, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
        g.add_edge(a, b, 10.0);
    }
    g.add_edge(2, 3, 0.5);
    for gamma in [0.5, 1.0, 1.5, 3.0] {
        assert_eq!(louvain(&g, gamma), louvain_reference(&g, gamma));
        assert_eq!(
            louvain_passes(&g, gamma),
            louvain_passes_reference(&g, gamma)
        );
    }
    let mut weird = WeightedGraph::new();
    weird.add_edge("x", "x", 9.0);
    weird.add_edge("x", "y", 0.25);
    weird.add_edge("y", "x", 0.5);
    weird.add_node("lonely", 3.0);
    assert_eq!(louvain(&weird, 1.0), louvain_reference(&weird, 1.0));
}

// ---------- random models: parser, PPA, DSE, metrics ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parser_round_trips_random_models(s in steps()) {
        let model = materialize(&s);
        let text = to_torch_print(&model);
        let opts = ParseOptions {
            input: InputShape::Image { channels: 3, height: 64, width: 64 },
            class: ModelClass::Cnn,
        };
        let parsed = parse_model("random", &text, opts).expect("round trip");
        prop_assert_eq!(parsed.layer_count(), model.layer_count());
        let a: Vec<_> = parsed.op_class_counts().into_keys().collect();
        let b: Vec<_> = model.op_class_counts().into_keys().collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn layer_costs_are_positive_and_monotone(s in steps()) {
        let model = materialize(&s);
        let small = HwParams::new(16, 16, 8, 8);
        let big = HwParams::new(16, 64, 32, 32);
        for layer in model.layers() {
            let cs = layer_cost(&layer.kind, &small);
            let cb = layer_cost(&layer.kind, &big);
            prop_assert!(cs.cycles > 0);
            prop_assert!(cs.energy_pj >= 0.0);
            // More hardware never increases latency; energy unchanged.
            prop_assert!(cb.cycles <= cs.cycles);
            prop_assert!((cb.energy_pj - cs.energy_pj).abs() < 1e-6);
        }
    }

    #[test]
    fn coverage_and_utilization_in_range(s in steps()) {
        let model = materialize(&s);
        let hw = HwParams::new(32, 32, 16, 16);
        let classes = model.op_class_counts().into_keys().collect();
        let cfg = DesignConfig::monolithic("c", hw, classes);
        prop_assert_eq!(metrics::algorithm_coverage(&model, &cfg), 1.0);
        let u = metrics::chiplet_utilization(&model, &cfg);
        prop_assert!(u > 0.0 && u <= 1.0, "{u}");
    }

    #[test]
    fn custom_dse_meets_constraints(s in steps()) {
        let model = materialize(&s);
        let claire = Claire::new(ClaireOptions::default());
        let cons = Constraints::default();
        // Feasibility is guaranteed for these small models.
        let custom = claire.custom_for(&model).expect("feasible");
        prop_assert!(custom.config.covers(&model));
        prop_assert!(custom.report.area_mm2 <= cons.chiplet_area_limit_mm2 + 1.0);
        prop_assert!(
            custom.report.power_density_w_per_mm2() <= cons.power_density_limit_w_per_mm2
        );
        for ch in &custom.config.chiplets {
            prop_assert!(ch.area_mm2 <= cons.chiplet_area_limit_mm2);
        }
    }
}

// ---------- staged DSE pruning vs the exhaustive reference ----------

fn random_space() -> impl Strategy<Value = DseSpace> {
    let axis = |range: std::ops::Range<u32>| proptest::collection::vec(range, 1..3);
    (axis(4..64), axis(1..48), axis(1..48), axis(1..48)).prop_map(
        |(sa_sizes, n_sas, n_acts, n_pools)| DseSpace {
            sa_sizes,
            n_sas,
            n_acts,
            n_pools,
            threads: Some(1),
        },
    )
}

fn random_constraints() -> impl Strategy<Value = Constraints> {
    (10.0f64..300.0, 0.0f64..1.0).prop_map(|(area, slack)| Constraints {
        chiplet_area_limit_mm2: area,
        latency_slack: slack,
        ..Constraints::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The staged, screened sweep (area + latency lower bound) is
    /// selection-indistinguishable from the exhaustive reference on
    /// arbitrary models, spaces, and constraints: its output is an
    /// order-preserving subset of the exhaustive feasible set whose
    /// removals all sit outside the latency-slack window, and the
    /// selected configuration under every objective is bit-identical
    /// (Debug strings compare `f64`s exactly) — including agreement
    /// on infeasibility.
    #[test]
    fn staged_sweep_equals_exhaustive_on_random_inputs(
        s in steps(),
        space in random_space(),
        cons in random_constraints(),
    ) {
        use claire::core::dse::{custom_config_with_engine, sweep_with_engine, DseObjective};
        use claire::core::Engine;
        let model = materialize(&s);
        let staged_engine = Engine::serial();
        let exhaustive_engine = Engine::serial().with_pruning(false);
        // Cache off, the lower bound walks `layer_cycles` per layer
        // instead of running the interned batch kernel.
        let uncached_engine = Engine::serial().with_cache(false);
        let staged = sweep_with_engine(&model, &space, &cons, &staged_engine);
        let exhaustive = sweep_with_engine(&model, &space, &cons, &exhaustive_engine);
        let uncached = sweep_with_engine(&model, &space, &cons, &uncached_engine);
        prop_assert_eq!(format!("{uncached:?}"), format!("{staged:?}"));
        // Order-preserving subset…
        let exhaustive_dbg: Vec<String> =
            exhaustive.iter().map(|p| format!("{p:?}")).collect();
        let mut cursor = 0usize;
        for p in &staged {
            let needle = format!("{p:?}");
            let pos = exhaustive_dbg[cursor..].iter().position(|e| *e == needle);
            prop_assert!(pos.is_some(), "staged point {} missing from oracle", p.hw);
            cursor += pos.unwrap() + 1;
        }
        // …with every removal outside the latency window.
        let best_latency = exhaustive
            .iter()
            .map(|p| p.report.latency_s)
            .fold(f64::INFINITY, f64::min);
        let limit = best_latency * (1.0 + cons.latency_slack);
        let staged_set: std::collections::BTreeSet<String> =
            staged.iter().map(|p| format!("{p:?}")).collect();
        for p in &exhaustive {
            if !staged_set.contains(&format!("{p:?}")) {
                prop_assert!(
                    p.report.latency_s > limit,
                    "{} pruned but inside the latency window",
                    p.hw
                );
            }
        }
        for objective in [
            DseObjective::MinArea,
            DseObjective::MinLatency,
            DseObjective::MinEnergyDelayProduct,
        ] {
            let a = custom_config_with_engine(&model, &space, &cons, objective, &staged_engine);
            let b = custom_config_with_engine(
                &model, &space, &cons, objective, &exhaustive_engine,
            );
            prop_assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "objective {:?} diverged",
                objective
            );
            let c = custom_config_with_engine(&model, &space, &cons, objective, &uncached_engine);
            prop_assert_eq!(
                format!("{c:?}"),
                format!("{a:?}"),
                "objective {:?} diverged with the cache off",
                objective
            );
        }
        // The screens accounted for every point of every staged sweep
        // (1 sweep + 3 selections), and never touched the exhaustive
        // engine.
        let stats = staged_engine.stats();
        prop_assert_eq!(
            stats.dse_pruned + stats.dse_lb_pruned + stats.dse_evaluated,
            4 * space.len() as u64
        );
        prop_assert_eq!(exhaustive_engine.stats().dse_pruned, 0);
        prop_assert_eq!(exhaustive_engine.stats().dse_lb_pruned, 0);
        let u = uncached_engine.stats();
        prop_assert_eq!(
            (u.dse_pruned, u.dse_lb_pruned, u.dse_evaluated),
            (stats.dse_pruned, stats.dse_lb_pruned, stats.dse_evaluated)
        );
    }
}

// ---------- grid pricing tables vs the per-point evaluator ----------

/// Every zoo model, built once for the whole test binary.
fn zoo_models() -> &'static [Model] {
    static MODELS: std::sync::OnceLock<Vec<Model>> = std::sync::OnceLock::new();
    MODELS.get_or_init(|| {
        claire::model::zoo::TABLE
            .iter()
            .map(|(_, make)| make())
            .collect()
    })
}

/// A random grid: 1–4 values per axis, drawn from a few multiples so
/// axes repeat values and come unsorted — some `n_pools` axes descend
/// and take the area screen's full-row walk.
fn random_grid() -> impl Strategy<Value = DseSpace> {
    let axis = |step: u32, top: u32| {
        proptest::collection::vec(1..top, 1..5)
            .prop_map(move |ks| ks.into_iter().map(|k| k * step).collect::<Vec<u32>>())
    };
    (axis(12, 7), axis(8, 9), axis(4, 9), axis(4, 9)).prop_map(
        |(sa_sizes, n_sas, n_acts, n_pools)| DseSpace {
            sa_sizes,
            n_sas,
            n_acts,
            n_pools,
            threads: Some(1),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The prepared pricer's per-axis tables are the evaluator, bit for
    /// bit, for every zoo model at every point of random grids: lower
    /// bounds, all six report fields (or the same error), and area.
    /// The search over them — area row walk, lower-bound screen,
    /// pricing — keeps the cache-off engine's points and counts, and
    /// its area screen prunes exactly the points over the cap.
    #[test]
    fn grid_tables_price_every_zoo_model_like_the_evaluator(
        space in random_grid(),
        cons in random_constraints(),
        pick in 0usize..256,
    ) {
        use claire::core::dse::sweep_with_engine;
        use claire::core::{monolithic_area_mm2, Engine};
        use claire::ppa::DesignSpace;
        let axes = space.axes();
        let points: Vec<(u32, HwParams)> = claire::ppa::space_points(&space).collect();
        for (k, model) in zoo_models().iter().enumerate() {
            let shell = DesignConfig::monolithic(
                format!("dse:{}", model.name()),
                HwParams::new(1, 1, 1, 1),
                model.op_class_counts().keys().copied().collect(),
            );
            // Every other model caps area at one grid point's own area,
            // so rows straddle the cap and some points sit exactly on it.
            let cons = if k % 2 == 0 {
                cons
            } else {
                let (_, hw) = points[pick % points.len()];
                Constraints {
                    chiplet_area_limit_mm2: monolithic_area_mm2(&shell.classes, &hw),
                    ..cons
                }
            };
            let engine = Engine::serial();
            let oracle = Engine::serial().with_cache(false);
            let pricer = engine.shell_pricer(model, &shell, &axes);
            let mut over_cap = 0u64;
            for &(index, hw) in &points {
                let mut config = shell.clone();
                config.hw = hw;
                prop_assert_eq!(
                    pricer.lb_cycles(index, &hw),
                    oracle.compute_cycles_lb(model, &hw),
                    "{} at {}", model.name(), hw
                );
                let area = monolithic_area_mm2(&shell.classes, &hw);
                prop_assert_eq!(pricer.area_mm2(index, &hw).to_bits(), area.to_bits());
                over_cap += u64::from(area > cons.chiplet_area_limit_mm2);
                match (pricer.price(index, hw), oracle.evaluate(model, &config)) {
                    (Ok(a), Ok(b)) => {
                        let bits = |r: &claire::core::PpaReport| {
                            [
                                r.latency_s,
                                r.energy_j,
                                r.area_mm2,
                                r.nop_energy_j,
                                r.noc_energy_j,
                                r.leakage_j,
                            ]
                            .map(f64::to_bits)
                        };
                        prop_assert_eq!(bits(&a), bits(&b), "{} at {}", model.name(), hw);
                    }
                    (a, b) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
                }
            }
            let searched = Engine::serial();
            let outcome = sweep_with_engine(model, &space, &cons, &searched);
            let reference = sweep_with_engine(model, &space, &cons, &oracle);
            prop_assert_eq!(
                format!("{outcome:?}"),
                format!("{reference:?}"),
                "{}", model.name()
            );
            let (a, b) = (searched.stats(), oracle.stats());
            prop_assert_eq!(
                (a.dse_pruned, a.dse_lb_pruned, a.dse_evaluated),
                (b.dse_pruned, b.dse_lb_pruned, b.dse_evaluated)
            );
            prop_assert_eq!(a.dse_pruned, over_cap, "{}", model.name());
        }
    }
}

// ---------- stage-B blocks at their edges ----------

/// A space of exactly `count` valid points: each of the first three
/// axes takes the largest divisor of what is left that is at most its
/// `shape` entry, and `n_pools` takes the rest, ascending or
/// descending. When `zero` names an axis (`zero.0 < 4`, in
/// `sa_size, n_sa, n_act, n_pool` order), a zero value — a slot that
/// is no point — goes into it at position `zero.1` modulo its length
/// plus one.
fn space_of(count: usize, shape: [usize; 3], descending: bool, zero: (usize, usize)) -> DseSpace {
    let axis = |len: usize, step: u32| (1..=len as u32).map(|i| i * step).collect::<Vec<u32>>();
    let mut rest = count;
    let mut lens = [1usize; 3];
    for (len, cap) in lens.iter_mut().zip(shape) {
        *len = (1..=cap)
            .rev()
            .find(|&d| rest.is_multiple_of(d))
            .unwrap_or(1);
        rest /= *len;
    }
    let mut n_pools = axis(rest, 4);
    if descending {
        n_pools.reverse();
    }
    let mut space = DseSpace {
        sa_sizes: axis(lens[0], 12),
        n_sas: axis(lens[1], 8),
        n_acts: axis(lens[2], 4),
        n_pools,
        threads: Some(1),
    };
    let (zero_axis, at) = zero;
    let values = match zero_axis {
        0 => Some(&mut space.sa_sizes),
        1 => Some(&mut space.n_sas),
        2 => Some(&mut space.n_acts),
        3 => Some(&mut space.n_pools),
        _ => None,
    };
    if let Some(values) = values {
        values.insert(at % (values.len() + 1), 0);
    }
    space
}

/// Point counts at stage B's block edges: under one block, on a block
/// multiple, and one past it.
fn block_edge_count() -> impl Strategy<Value = usize> {
    use claire::core::search::STAGE_B_BLOCK as B;
    prop_oneof![1..B, Just(B), Just(2 * B), Just(B + 1), Just(2 * B + 1)]
}

/// Algorithm 1's selection written out over a full sweep, as
/// `custom_config_with_engine` names its winner.
fn reference_selection(
    model: &Model,
    points: &[claire::core::DsePoint],
    cons: &Constraints,
    objective: claire::core::DseObjective,
) -> Result<(DesignConfig, claire::core::PpaReport), claire::core::ClaireError> {
    let best = points
        .iter()
        .map(|p| p.report.latency_s)
        .fold(f64::INFINITY, f64::min);
    let limit = best * (1.0 + cons.latency_slack);
    let chosen = points
        .iter()
        .filter(|p| p.report.latency_s <= limit)
        .min_by(|a, b| {
            objective
                .score(&a.report)
                .total_cmp(&objective.score(&b.report))
        })
        .ok_or_else(|| claire::core::ClaireError::NoFeasibleConfiguration {
            subject: model.name().to_owned(),
        })?;
    let classes = model.op_class_counts().keys().copied().collect();
    let mut config = DesignConfig::monolithic(format!("dse:{}", model.name()), chosen.hw, classes);
    config.name = format!("C_{}", model.name());
    Ok((config, chosen.report))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Stage B prices its candidates in blocks. With the area cap
    /// lifted and an infinite slack every point is a candidate, so
    /// these spaces put the candidate count under one block, on a block
    /// multiple and one past it. Some spaces hold a zero axis value (a
    /// slot that is no point, which must be neither priced nor counted)
    /// and some cap the area at a quantile of the space's areas, which
    /// ends ascending rows mid-way and splits unsorted rows into several
    /// runs. The cache-off, pruning-off oracle's full sweep keeps the
    /// evaluator's feasible points in space order; at slack 0, 0.5 and
    /// ∞, every objective's `custom_config_with_engine` at 1, 2 and 8
    /// threads equals the selection over that sweep, every valid point
    /// leaves through exactly one screen, and the staged sweep is the
    /// same at every thread count.
    #[test]
    fn stage_b_blocks_keep_every_point_in_space_order(
        count in block_edge_count(),
        shape in (1usize..5, 1usize..5, 1usize..3),
        descending in 0u8..2,
        zero in (0usize..6, 0usize..8),
        cap_quartile in 0usize..4,
        pick in 0usize..64,
    ) {
        use claire::core::dse::{custom_config_with_engine, sweep_with_engine, DseObjective};
        use claire::core::{monolithic_area_mm2, DsePoint, Engine};
        let space = space_of(count, [shape.0, shape.1, shape.2], descending == 1, zero);
        prop_assert_eq!(claire::ppa::space_points(&space).count(), count);
        let models = zoo_models();
        let model = &models[pick % models.len()];
        let shell = DesignConfig::monolithic(
            format!("dse:{}", model.name()),
            HwParams::new(1, 1, 1, 1),
            model.op_class_counts().keys().copied().collect(),
        );
        let areas: Vec<f64> = claire::ppa::space_points(&space)
            .map(|(_, hw)| monolithic_area_mm2(&shell.classes, &hw))
            .collect();
        // No cap, or the area at the lower quartile, median or upper
        // quartile.
        let cap = if cap_quartile == 0 {
            f64::MAX
        } else {
            let mut sorted = areas.clone();
            sorted.sort_by(f64::total_cmp);
            sorted[(sorted.len() - 1) * cap_quartile / 4]
        };
        let fitting = areas.iter().filter(|&&a| a <= cap).count() as u64;
        let base = Constraints {
            chiplet_area_limit_mm2: cap,
            ..Constraints::default()
        };
        let oracle = Engine::serial().with_cache(false).with_pruning(false);
        let full = sweep_with_engine(model, &space, &base, &oracle);
        let evaluated: Vec<DsePoint> = claire::ppa::space_points(&space)
            .filter_map(|(_, hw)| {
                let mut config = shell.clone();
                config.hw = hw;
                let report = oracle.evaluate(model, &config).ok()?;
                let feasible = report.area_mm2 <= base.chiplet_area_limit_mm2
                    && report.power_density_w_per_mm2() <= base.power_density_limit_w_per_mm2;
                feasible.then_some(DsePoint { hw, report })
            })
            .collect();
        prop_assert_eq!(format!("{full:?}"), format!("{evaluated:?}"), "{}", model.name());
        for slack in [0.0, 0.5, f64::INFINITY] {
            let cons = Constraints { latency_slack: slack, ..base };
            let mut sweeps = Vec::new();
            for threads in [1, 2, 8] {
                let engine = Engine::new(threads);
                sweeps.push(format!("{:?}", sweep_with_engine(model, &space, &cons, &engine)));
                let stats = engine.stats();
                prop_assert_eq!(
                    stats.dse_pruned + stats.dse_lb_pruned + stats.dse_evaluated,
                    count as u64
                );
                prop_assert_eq!(stats.dse_pruned, count as u64 - fitting);
                if slack.is_infinite() {
                    prop_assert_eq!(stats.dse_evaluated, fitting);
                }
                for objective in DseObjective::ALL {
                    let got = custom_config_with_engine(model, &space, &cons, objective, &engine);
                    let want = reference_selection(model, &full, &cons, objective);
                    prop_assert_eq!(
                        format!("{got:?}"),
                        format!("{want:?}"),
                        "{} {:?} slack {} at {} threads",
                        model.name(), objective, slack, threads
                    );
                }
            }
            prop_assert!(sweeps.iter().all(|s| *s == sweeps[0]), "{}", model.name());
        }
    }
}

// ---------- parser robustness ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser must never panic, whatever bytes arrive — it either
    /// produces a model or a structured error.
    #[test]
    fn parser_never_panics_on_arbitrary_text(text in "\\PC{0,400}") {
        let _ = parse_model("fuzz", &text, ParseOptions::default());
    }

    /// Line-noise around a valid layer still parses that layer.
    #[test]
    fn parser_tolerates_surrounding_noise(noise in "[a-zA-Z0-9 _.,:;#]{0,60}") {
        let dump = format!(
            "Net(\n  {noise}\n  (fc): Linear(in_features=8, out_features=4, bias=True)\n)"
        );
        if let Ok(m) = parse_model("noisy", &dump, ParseOptions::default()) {
            prop_assert!(m.layer_count() >= 1);
        }
    }
}

// ---------- transfer-cost invariants ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transfer_cost_physical_invariants(s in steps(), bytes in 1u64..10_000_000) {
        use claire::core::evaluate::edge_transfer;
        let model = materialize(&s);
        let claire = Claire::new(ClaireOptions::default());
        let custom = claire.custom_for(&model).expect("feasible");
        let cfg = &custom.config;
        let classes: Vec<_> = cfg.classes.iter().copied().collect();
        for &a in &classes {
            for &b in &classes {
                let t = edge_transfer(cfg, a, b, bytes);
                if a == b {
                    prop_assert_eq!(t.ser_cycles + t.fixed_cycles, 0);
                    continue;
                }
                // Latency and energy are non-negative and monotone in
                // payload size.
                let bigger = edge_transfer(cfg, a, b, bytes + 40);
                prop_assert!(bigger.latency_s() >= t.latency_s());
                prop_assert!(bigger.noc_pj() + bigger.nop_pj() >= t.noc_pj() + t.nop_pj());
                // Cross-chiplet transfers pay NoP energy; local ones don't.
                prop_assert_eq!(t.nop_pj() > 0.0, t.crosses_chiplet);
                // Symmetric classes, symmetric cost (undirected fabric).
                let rev = edge_transfer(cfg, b, a, bytes);
                prop_assert_eq!(t.ser_cycles, rev.ser_cycles);
                prop_assert_eq!(t.fixed_cycles, rev.fixed_cycles);
            }
        }
    }
}

// ---------- family-priced edge-cost sequences ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The per-edge-family pricing behind the engine's edge-cost
    /// sequences is bit-equal to the evaluator's per-class-pair
    /// `route_of` walk, edge for edge in execution order — and so are
    /// the latency/energy folds over the sequence.
    #[test]
    fn edge_cost_sequence_matches_per_edge_walk(s in steps()) {
        let model = materialize(&s);
        let claire = Claire::new(ClaireOptions::default());
        // Both topologies the flow evaluates: the clustered custom
        // configuration (multi-chiplet, NoP crossings) and the
        // monolithic shell (NoC only).
        let custom = claire.custom_for(&model).expect("feasible");
        let classes = model.op_class_counts().into_keys().collect();
        let mono = DesignConfig::monolithic("mono", HwParams::new(32, 32, 16, 16), classes);
        for cfg in [&custom.config, &mono] {
            let routes = RouteTable::new();
            let seq = edge_cost_sequence(&model, cfg, &routes).expect("covered");
            let walk = per_edge_walk(&model, cfg);
            prop_assert_eq!(&seq, &walk, "{} sequence diverged", cfg.name);
            let fold = |ts: &[TransferCost]| {
                let (mut lat, mut noc, mut nop) = (0.0f64, 0.0f64, 0.0f64);
                for t in ts {
                    lat += t.latency_s();
                    noc += t.noc_pj();
                    nop += t.nop_pj();
                }
                (lat.to_bits(), noc.to_bits(), nop.to_bits())
            };
            prop_assert_eq!(fold(&seq), fold(&walk));
        }
    }
}

// ---------- serve observability: exact quantile digests ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The serve digest is exact, not approximate: after every single
    /// insertion, p50/p90/p99/max equal the nearest-rank-lower
    /// quantiles of a sorted copy of everything recorded so far.
    #[test]
    fn quantile_digest_matches_sorted_reference_at_every_size(
        samples in proptest::collection::vec(0u64..u64::MAX, 1..200),
    ) {
        use claire::core::QuantileDigest;
        let mut digest = QuantileDigest::new();
        let mut sorted: Vec<u64> = Vec::new();
        for &v in &samples {
            digest.record(v);
            let at = sorted.partition_point(|&x| x <= v);
            sorted.insert(at, v);
            let n = sorted.len() as u64;
            prop_assert_eq!(digest.count(), n);
            for p in [50u8, 90, 99] {
                let rank = ((u128::from(n - 1) * u128::from(p)) / 100) as usize;
                prop_assert_eq!(
                    digest.quantile(p),
                    Some(sorted[rank]),
                    "p{} diverged at size {}",
                    p,
                    n
                );
            }
            prop_assert_eq!(digest.max(), sorted.last().copied());
            let s = digest.summary();
            prop_assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        }
    }

    /// Merging per-thread digests is order-independent: every
    /// permutation of the parts yields a digest — and a wire summary —
    /// byte-identical to recording the samples into one digest, so a
    /// multi-threaded serve reports the same quantiles at any thread
    /// count.
    #[test]
    fn quantile_digest_merge_is_permutation_invariant(
        parts in proptest::collection::vec(
            proptest::collection::vec(0u64..u64::MAX, 0..60),
            1..5,
        ),
    ) {
        use claire::core::QuantileDigest;
        let flat = {
            let mut d = QuantileDigest::new();
            for part in &parts {
                for &v in part {
                    d.record(v);
                }
            }
            d
        };
        let digests: Vec<QuantileDigest> = parts
            .iter()
            .map(|part| {
                let mut d = QuantileDigest::new();
                for &v in part {
                    d.record(v);
                }
                d
            })
            .collect();
        // Forward, reverse, and middle-out merge orders all reproduce
        // the flat digest exactly (Eq covers the full RLE run list).
        let orders: Vec<Vec<usize>> = vec![
            (0..digests.len()).collect(),
            (0..digests.len()).rev().collect(),
            {
                let mut order: Vec<usize> = (0..digests.len()).step_by(2).collect();
                order.extend((1..digests.len()).step_by(2));
                order
            },
        ];
        for order in orders {
            let mut merged = QuantileDigest::new();
            for i in order {
                merged.merge(&digests[i]);
            }
            prop_assert_eq!(&merged, &flat);
            prop_assert_eq!(
                serde_json::to_string(&merged.summary().to_value()).expect("render"),
                serde_json::to_string(&flat.summary().to_value()).expect("render")
            );
        }
    }
}

// ---------- hardware/cost models ----------

proptest! {
    #[test]
    fn unit_area_monotone_in_resources(
        sa in prop_oneof![Just(16u32), Just(32), Just(64)],
        n1 in 1u32..64, n2 in 1u32..64,
    ) {
        prop_assume!(n1 < n2);
        let small = HwParams::new(sa, n1, 8, 8);
        let big = HwParams::new(sa, n2, 8, 8);
        for class in claire::model::OpClass::all() {
            prop_assert!(
                unit_area_mm2(class, &big) >= unit_area_mm2(class, &small),
                "{class}"
            );
        }
    }

    #[test]
    fn torus_hops_bounded_by_half_perimeter(cols in 1u32..9, rows in 1u32..9) {
        let t = Torus2d::new(cols, rows);
        let bound = cols / 2 + rows / 2;
        for a in 0..t.size() {
            for b in 0..t.size() {
                prop_assert!(t.hops(a, b) <= bound);
            }
        }
    }

    #[test]
    fn network_latency_monotone(bytes in 1u64..1_000_000, hops in 0u32..8) {
        for n in [Network::noc(), Network::nop_aib2()] {
            prop_assert!(n.latency_s(bytes + 40, hops) >= n.latency_s(bytes, hops));
            prop_assert!(n.latency_s(bytes, hops + 1) > n.latency_s(bytes, hops));
        }
    }

    #[test]
    fn nre_monotone_in_chiplet_count(areas in proptest::collection::vec(5.0f64..80.0, 1..6)) {
        let m = NreModel::tsmc28();
        let mut bigger = areas.clone();
        bigger.push(20.0);
        prop_assert!(m.system_nre(&bigger) > m.system_nre(&areas));
    }

    #[test]
    fn yield_and_die_cost_behave(area in 1.0f64..700.0) {
        let m = RecurringModel::tsmc28();
        let y = m.yield_fraction(area);
        prop_assert!((0.0..=1.0).contains(&y));
        prop_assert!(m.good_die_cost(area) > 0.0);
        // Yield strictly decreases with area.
        prop_assert!(m.yield_fraction(area + 10.0) < y);
    }
}

// ---------- per-model summaries vs the layer walks they replace ----------

/// The hardware points the summary checks run at: the 16 corners of
/// `DseSpace::dense(16)`, the paper's default point and a one-unit
/// point, where execution counts are largest.
fn summary_points() -> Vec<HwParams> {
    let dense = DseSpace::dense(16);
    let ends = |axis: &[u32]| [axis[0], axis[axis.len() - 1]];
    let mut points = Vec::new();
    for sa in ends(&dense.sa_sizes) {
        for n_sa in ends(&dense.n_sas) {
            for n_act in ends(&dense.n_acts) {
                for n_pool in ends(&dense.n_pools) {
                    points.push(HwParams::new(sa, n_sa, n_act, n_pool));
                }
            }
        }
    }
    points.push(HwParams::new(32, 32, 16, 16));
    points.push(HwParams::new(1, 1, 1, 1));
    points
}

/// A graph's node and edge weights, by bits, in key order.
type GraphBits = (Vec<(OpClass, u64)>, Vec<(OpClass, OpClass, u64)>);

fn graph_bits(g: &WeightedGraph<OpClass>) -> GraphBits {
    (
        g.nodes().map(|(&n, w)| (n, w.to_bits())).collect(),
        g.edges().map(|(&a, &b, w)| (a, b, w.to_bits())).collect(),
    )
}

/// The engine's single-model graph equals the per-layer reference
/// build at every summary point.
fn assert_engine_graph_is_the_walk(model: &Model) -> Result<(), TestCaseError> {
    use claire::core::{graphs, DirectCosts, Engine};
    let engine = Engine::serial();
    for hw in summary_points() {
        let built = engine.universal_csr(std::slice::from_ref(model), &hw);
        let reference = graphs::build_graph_with_costs(model, &hw, &DirectCosts);
        prop_assert_eq!(
            graph_bits(&built.graph),
            graph_bits(&reference),
            "{} at {}",
            model.name(),
            hw
        );
    }
    Ok(())
}

/// The evaluator's per-edge walk: every edge routed and priced on its
/// own, same-class edges skipped.
fn per_edge_walk(model: &Model, cfg: &DesignConfig) -> Vec<TransferCost> {
    let mut walk = Vec::new();
    for (a, b, bytes) in model.edges() {
        let ea = cfg.executing_class(a).expect("covered");
        let eb = cfg.executing_class(b).expect("covered");
        if ea != eb {
            walk.push(transfer_on_route(route_of(cfg, ea, eb), bytes));
        }
    }
    walk
}

/// A monolithic config for `model` and a two-chiplet split of it
/// (systolic classes on one die, the rest on the other, or the first
/// class alone when one side is empty).
fn mono_and_split(model: &Model, hw: HwParams) -> [DesignConfig; 2] {
    use claire::core::Chiplet;
    use std::collections::BTreeSet;
    let classes: BTreeSet<OpClass> = model.op_class_counts().into_keys().collect();
    let mono = DesignConfig::monolithic("mono", hw, classes.clone());
    let (mut left, mut right): (BTreeSet<_>, BTreeSet<_>) =
        classes.iter().partition(|c| c.is_systolic());
    if left.is_empty() || right.is_empty() {
        let first = *classes.iter().next().expect("a class");
        left = [first].into();
        right = classes.iter().copied().filter(|&c| c != first).collect();
    }
    let mut split = mono.clone();
    split.name = "split".to_owned();
    split.chiplets = vec![Chiplet::from_classes("L1", left, &hw)];
    if !right.is_empty() {
        split.chiplets.push(Chiplet::from_classes("L2", right, &hw));
    }
    [mono, split]
}

fn assert_sequence_is_the_walk(model: &Model) -> Result<(), TestCaseError> {
    for hw in [HwParams::new(12, 8, 4, 4), HwParams::new(192, 128, 64, 64)] {
        for cfg in mono_and_split(model, hw) {
            let seq = edge_cost_sequence(model, &cfg, &RouteTable::new()).expect("covered");
            prop_assert_eq!(
                seq,
                per_edge_walk(model, &cfg),
                "{} on {}",
                model.name(),
                cfg.name
            );
        }
    }
    Ok(())
}

/// The layer-order folds the cached summaries replace.
fn assert_summaries_are_the_folds(model: &Model) -> Result<(), TestCaseError> {
    let mut counts: BTreeMap<OpClass, u32> = BTreeMap::new();
    let mut weights: BTreeMap<OpClass, f64> = BTreeMap::new();
    for l in model.layers() {
        let w = if l.op_class().is_systolic() {
            l.macs() as f64
        } else {
            l.element_ops() as f64
        };
        *counts.entry(l.op_class()).or_insert(0) += 1;
        *weights.entry(l.op_class()).or_insert(0.0) += w;
    }
    prop_assert_eq!(model.op_class_counts(), counts);
    let bits = |m: BTreeMap<OpClass, f64>| -> Vec<(OpClass, u64)> {
        m.into_iter().map(|(c, w)| (c, w.to_bits())).collect()
    };
    prop_assert_eq!(bits(model.op_class_weights()), bits(weights));
    Ok(())
}

/// Coverage by the `BTreeMap` walk the class-mask test replaces.
fn reference_first_missing(cfg: &DesignConfig, model: &Model) -> Option<OpClass> {
    let mut present: BTreeMap<OpClass, u32> = BTreeMap::new();
    for l in model.layers() {
        *present.entry(l.op_class()).or_insert(0) += 1;
    }
    present.keys().copied().find(|&c| !cfg.supports(c))
}

fn assert_coverage_is_the_walk(model: &Model, classes: &[usize]) -> Result<(), TestCaseError> {
    let set = classes
        .iter()
        .filter_map(|&i| OpClass::from_index(i))
        .collect();
    let cfg = DesignConfig::monolithic("random", HwParams::new(32, 32, 16, 16), set);
    let missing = reference_first_missing(&cfg, model);
    prop_assert_eq!(cfg.first_missing(model), missing, "{}", model.name());
    prop_assert_eq!(cfg.covers(model), missing.is_none(), "{}", model.name());
    Ok(())
}

#[test]
fn zoo_summaries_match_the_layer_walks() {
    for model in zoo_models() {
        assert_engine_graph_is_the_walk(model).unwrap();
        assert_sequence_is_the_walk(model).unwrap();
        assert_summaries_are_the_folds(model).unwrap();
        // Its own classes cover it; with Tanh swapped for GELU too.
        let own: Vec<usize> = model.op_class_counts().keys().map(|c| c.index()).collect();
        assert_coverage_is_the_walk(model, &own).unwrap();
        let tanh = OpClass::Activation(ActivationKind::Tanh).index();
        let gelu = OpClass::Activation(ActivationKind::Gelu).index();
        let swapped: Vec<usize> = own
            .iter()
            .copied()
            .filter(|&i| i != tanh)
            .chain([gelu])
            .collect();
        assert_coverage_is_the_walk(model, &swapped).unwrap();
        let without_tanh: Vec<usize> = own.iter().copied().filter(|&i| i != tanh).collect();
        assert_coverage_is_the_walk(model, &without_tanh).unwrap();
    }
}

fn synth_model() -> impl Strategy<Value = Model> {
    use claire::model::synth::{random_model, Family};
    (0u64..1 << 48, 0usize..3).prop_map(|(seed, family)| {
        let family = [Family::Cnn, Family::Transformer, Family::Audio][family];
        random_model(seed, family)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random synthetic models, the engine's summary-built graph,
    /// the family-priced edge sequence and the cached class weights
    /// equal the layer walks they replace, bit for bit.
    #[test]
    fn synth_summaries_match_the_layer_walks(model in synth_model()) {
        assert_engine_graph_is_the_walk(&model)?;
        assert_sequence_is_the_walk(&model)?;
        assert_summaries_are_the_folds(&model)?;
    }

    /// Mask coverage equals the `BTreeMap` walk over random class sets,
    /// on zoo and synthetic models; GELU sets that lack Tanh take the
    /// Tanh→GELU fold.
    #[test]
    fn mask_coverage_matches_the_map_walk(
        model in synth_model(),
        pick in 0usize..27,
        classes in proptest::collection::vec(0usize..OpClass::COUNT, 0..OpClass::COUNT),
    ) {
        assert_coverage_is_the_walk(&model, &classes)?;
        assert_coverage_is_the_walk(&zoo_models()[pick], &classes)?;
    }
}
