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
    Pooling, PoolingKind,
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

    /// The three-objective Pareto front of a feasible sweep contains
    /// the windowed argmin of **every** objective, and selection from
    /// the front reproduces the sweep's winner bit-identically — one
    /// sweep answers all objective queries.
    #[test]
    fn pareto_front_reproduces_every_objective_winner(
        s in steps(),
        space in random_space(),
        cons in random_constraints(),
    ) {
        use claire::core::dse::{sweep_with_engine, DseObjective};
        use claire::core::{Engine, ParetoFront};
        let model = materialize(&s);
        let points =
            sweep_with_engine(&model, &space, &cons, &Engine::serial().with_pruning(false));
        let front = ParetoFront::from_points(&points);
        prop_assert!(front.len() <= points.len());
        let best_latency = points
            .iter()
            .map(|p| p.report.latency_s)
            .fold(f64::INFINITY, f64::min);
        for objective in [
            DseObjective::MinArea,
            DseObjective::MinLatency,
            DseObjective::MinEnergyDelayProduct,
        ] {
            // The historical full-list fold: window, then first-tie
            // argmin.
            let limit = best_latency * (1.0 + cons.latency_slack);
            let reference = points
                .iter()
                .filter(|p| p.report.latency_s <= limit)
                .min_by(|a, b| {
                    objective
                        .score(&a.report)
                        .total_cmp(&objective.score(&b.report))
                });
            let got = front.select(&cons, objective);
            prop_assert_eq!(
                format!("{got:?}"),
                format!("{reference:?}"),
                "objective {:?} diverged on the front",
                objective
            );
        }
    }

    /// Successive halving with `budget ≥ |space|` never samples: its
    /// exactly priced point set, front, and selections are
    /// bit-identical to the exhaustive policy on random small spaces.
    #[test]
    fn full_budget_successive_halving_degenerates_to_exhaustive(
        s in steps(),
        space in random_space(),
        cons in random_constraints(),
        seed in 0u64..u64::MAX,
    ) {
        use claire::core::dse::DseObjective;
        use claire::core::{search_with_engine, Engine, SearchPolicy};
        let model = materialize(&s);
        let policy = SearchPolicy::SuccessiveHalving {
            seed,
            eta: 2,
            budget: space.len(),
        };
        let sh = search_with_engine(&model, &space, &cons, policy, &Engine::serial());
        let ex = search_with_engine(
            &model,
            &space,
            &cons,
            SearchPolicy::Exhaustive,
            &Engine::serial(),
        );
        prop_assert!(!sh.sampled);
        prop_assert_eq!(format!("{:?}", sh.points), format!("{:?}", ex.points));
        prop_assert_eq!(
            format!("{:?}", sh.front.entries()),
            format!("{:?}", ex.front.entries())
        );
        for objective in [
            DseObjective::MinArea,
            DseObjective::MinLatency,
            DseObjective::MinEnergyDelayProduct,
        ] {
            prop_assert_eq!(
                format!("{:?}", sh.front.select(&cons, objective)),
                format!("{:?}", ex.front.select(&cons, objective))
            );
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

// ---------- bucketed edge-cost sequences ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The aggregated per-`(route, bytes)` bucket costing behind the
    /// engine's communication memo tier is bit-equal to the
    /// evaluator's per-class-pair `route_of` walk, edge for edge in
    /// execution order — and so are the latency/energy folds over the
    /// sequence.
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
            let mut walk = Vec::new();
            for (a, b, bytes) in model.edges() {
                let ea = cfg.executing_class(a).expect("covered");
                let eb = cfg.executing_class(b).expect("covered");
                if ea == eb {
                    continue;
                }
                walk.push(transfer_on_route(route_of(cfg, ea, eb), bytes));
            }
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
