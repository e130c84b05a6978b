//! Step #TR1: initial graph construction.
//!
//! Each algorithm becomes `G_ini(N, E, w_N, w_E)`: nodes are hardware
//! units (systolic-array groups, activation/pooling/reshape units),
//! node weights are "the number of times the node needs to be executed
//! to compute the entire layer" (tile/sub-task counts under the
//! configured hardware), and edge weights are "the volume of data
//! communication between layers" in bytes (8-bit activations).

use crate::evaluate::CostProvider;
use claire_graph::WeightedGraph;
use claire_model::{Model, OpClass};
use claire_ppa::{layer_cost, HwParams};
use std::collections::BTreeMap;

/// Builds the initial graph `G_ini` of one algorithm under `hw`.
///
/// Node weights accumulate the execution (sub-task) counts of every
/// layer mapping to that unit; edge weights accumulate the activation
/// volume flowing between consecutive layers' units.
pub fn build_graph(model: &Model, hw: &HwParams) -> WeightedGraph<OpClass> {
    build_graph_with_costs(model, hw, &RawCosts)
}

/// [`build_graph`] with layer costs served by `costs` (e.g. the
/// [`crate::parallel::Engine`]) — value-identical, since the provider
/// contract is to return exactly what a recomputation would.
///
/// This per-layer walk is the reference for the engine's single-model
/// build from model summaries
/// ([`crate::parallel::Engine::universal_csr`]), which equals it bit
/// for bit and falls back to it when a weight total is above 2⁵³.
pub fn build_graph_with_costs<C: CostProvider + ?Sized>(
    model: &Model,
    hw: &HwParams,
    costs: &C,
) -> WeightedGraph<OpClass> {
    let mut g = WeightedGraph::new();
    for layer in model.layers() {
        let cost = costs.layer_cost(&layer.kind, hw);
        g.add_node(layer.op_class(), cost.executions as f64);
    }
    for (a, b, bytes) in model.edges() {
        g.add_edge(a, b, bytes as f64);
    }
    g
}

/// Builds the universal graph `UG` of an algorithm set: the merge of
/// all individual graphs, consolidating node and edge weights.
pub fn universal_graph(models: &[Model], hw: &HwParams) -> WeightedGraph<OpClass> {
    universal_graph_with_costs(models, hw, &RawCosts)
}

/// [`universal_graph`] with layer costs served by `costs`.
pub fn universal_graph_with_costs<C: CostProvider + ?Sized>(
    models: &[Model],
    hw: &HwParams,
    costs: &C,
) -> WeightedGraph<OpClass> {
    let mut ug = WeightedGraph::new();
    for m in models {
        ug.merge(&build_graph_with_costs(m, hw, costs));
    }
    ug
}

/// The unmemoized provider behind the plain entry points.
struct RawCosts;

impl CostProvider for RawCosts {
    fn layer_cost(
        &self,
        kind: &claire_model::LayerKind,
        hw: &claire_ppa::HwParams,
    ) -> claire_ppa::LayerCost {
        layer_cost(kind, hw)
    }
}

/// Edge-combination occurrence counts across an algorithm set — the
/// data behind the paper's Fig. 2 ("Number of edge occurrences for
/// edge combinations/layer connections in the training set
/// algorithms"), sorted descending.
pub fn edge_histogram(models: &[Model]) -> Vec<((OpClass, OpClass), u32)> {
    let mut counts: BTreeMap<(OpClass, OpClass), u32> = BTreeMap::new();
    for m in models {
        for (pair, n) in m.edge_combination_counts() {
            *counts.entry(pair).or_insert(0) += n;
        }
    }
    let mut v: Vec<_> = counts.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use claire_model::zoo;

    fn hw() -> HwParams {
        HwParams::new(32, 32, 16, 16)
    }

    #[test]
    fn graph_nodes_match_model_inventory() {
        let m = zoo::alexnet();
        let g = build_graph(&m, &hw());
        assert_eq!(g.node_count(), m.op_class_counts().len());
    }

    #[test]
    fn node_weights_are_execution_counts() {
        let m = zoo::alexnet();
        let g = build_graph(&m, &hw());
        // Every node executed at least once.
        for (n, w) in g.nodes() {
            assert!(w >= 1.0, "{n} weight {w}");
        }
        // Conv tiles dominate: AlexNet's conv stack needs many waves.
        let conv_w = g.node_weight(&OpClass::Conv2d).unwrap();
        assert!(conv_w > 100.0, "{conv_w}");
    }

    #[test]
    fn edge_weights_are_data_volumes() {
        let m = zoo::alexnet();
        let g = build_graph(&m, &hw());
        // conv1 -> relu edge carries 55*55*64 activations (+ later
        // conv->relu hops accumulated on the same class pair).
        let w = g
            .edge_weight(
                &OpClass::Conv2d,
                &OpClass::Activation(claire_model::ActivationKind::Relu),
            )
            .unwrap();
        assert!(w >= (55 * 55 * 64) as f64);
    }

    #[test]
    fn universal_graph_sums_members() {
        let models = [zoo::resnet18(), zoo::alexnet()];
        let ug = universal_graph(&models, &hw());
        let g0 = build_graph(&models[0], &hw());
        let g1 = build_graph(&models[1], &hw());
        let w_ug = ug.node_weight(&OpClass::Conv2d).unwrap();
        let w_sum =
            g0.node_weight(&OpClass::Conv2d).unwrap() + g1.node_weight(&OpClass::Conv2d).unwrap();
        assert!((w_ug - w_sum).abs() < 1e-9);
    }

    #[test]
    fn fig2_linear_linear_dominates_training_set() {
        // "The LINEAR-LINEAR connection is the most dominant, largely
        // due to the Q, K, V operations in Transformer-based
        // algorithms."
        let hist = edge_histogram(&zoo::training_set());
        assert_eq!(hist[0].0, (OpClass::Linear, OpClass::Linear));
    }

    #[test]
    fn fig2_conv_relu_is_a_top_combination() {
        // "Next is the CONV2D-RELU connection, which is prevalent due
        // to its frequent use in CNNs." — top-4 in our extraction.
        let hist = edge_histogram(&zoo::training_set());
        let pos = hist
            .iter()
            .position(|(pair, _)| {
                *pair
                    == (
                        OpClass::Conv2d,
                        OpClass::Activation(claire_model::ActivationKind::Relu),
                    )
            })
            .expect("CONV2D-RELU present");
        assert!(pos < 4, "CONV2D-RELU ranked {pos}");
    }

    #[test]
    fn histogram_is_sorted_descending() {
        let hist = edge_histogram(&zoo::training_set());
        for w in hist.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
