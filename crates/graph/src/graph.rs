//! The `G(N, E, w_N, w_E)` structure of the paper's Step #TR1.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Display;

/// A directed weighted graph with node weights.
///
/// * node weight `w_N` — "the number of times the node needs to be
///   executed to compute the entire layer" (accumulated per node)
/// * edge weight `w_E` — "the volume of data communication between
///   layers" (accumulated per ordered pair)
///
/// Node keys are any ordered type; the CLAIRE core uses hardware-unit
/// identifiers. All iteration is in key order, so every downstream
/// algorithm is deterministic.
///
/// Serialisation uses node/edge *lists* (JSON maps require string
/// keys, and node keys are typically enums), via hand-written impls
/// that mirror the private `GraphRepr` list form.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedGraph<N: Ord + Clone> {
    nodes: BTreeMap<N, f64>,
    edges: BTreeMap<(N, N), f64>,
}

/// List-based deserialisation mirror of [`WeightedGraph`].
#[derive(Deserialize)]
struct GraphRepr<N: Deserialize> {
    nodes: Vec<(N, f64)>,
    edges: Vec<(N, N, f64)>,
}

impl<N: Ord + Clone + Deserialize> From<GraphRepr<N>> for WeightedGraph<N> {
    fn from(r: GraphRepr<N>) -> Self {
        WeightedGraph {
            nodes: r.nodes.into_iter().collect(),
            edges: r.edges.into_iter().map(|(a, b, w)| ((a, b), w)).collect(),
        }
    }
}

impl<N: Ord + Clone + Serialize + Deserialize> Serialize for WeightedGraph<N> {
    // Serialised by reference (no whole-graph clone), emitting exactly
    // the shape the derived `GraphRepr` impl produced: an object of
    // `[key, weight]` / `[from, to, weight]` list entries.
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let nodes = self
            .nodes
            .iter()
            .map(|(n, w)| Value::Array(vec![n.to_value(), w.to_value()]))
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|((a, b), w)| Value::Array(vec![a.to_value(), b.to_value(), w.to_value()]))
            .collect();
        Value::Object(vec![
            ("nodes".to_owned(), Value::Array(nodes)),
            ("edges".to_owned(), Value::Array(edges)),
        ])
    }
}

impl<N: Ord + Clone + Serialize + Deserialize> Deserialize for WeightedGraph<N> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        GraphRepr::from_value(v).map(WeightedGraph::from)
    }
}

impl<N: Ord + Clone> Default for WeightedGraph<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N: Ord + Clone> WeightedGraph<N> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        WeightedGraph {
            nodes: BTreeMap::new(),
            edges: BTreeMap::new(),
        }
    }

    /// Adds `weight` to node `n`'s weight, inserting it if absent.
    pub fn add_node(&mut self, n: N, weight: f64) {
        *self.nodes.entry(n).or_insert(0.0) += weight;
    }

    /// Adds `weight` to the directed edge `from -> to`, inserting both
    /// endpoints (with zero node weight) if absent.
    pub fn add_edge(&mut self, from: N, to: N, weight: f64) {
        self.nodes.entry(from.clone()).or_insert(0.0);
        self.nodes.entry(to.clone()).or_insert(0.0);
        *self.edges.entry((from, to)).or_insert(0.0) += weight;
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Directed edge count.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The weight of node `n`, if present.
    pub fn node_weight(&self, n: &N) -> Option<f64> {
        self.nodes.get(n).copied()
    }

    /// The weight of the directed edge `from -> to`, if present.
    pub fn edge_weight(&self, from: &N, to: &N) -> Option<f64> {
        self.edges.get(&(from.clone(), to.clone())).copied()
    }

    /// Iterates nodes with weights in key order.
    pub fn nodes(&self) -> impl Iterator<Item = (&N, f64)> {
        self.nodes.iter().map(|(n, &w)| (n, w))
    }

    /// Iterates directed edges with weights in key order.
    pub fn edges(&self) -> impl Iterator<Item = (&N, &N, f64)> {
        self.edges.iter().map(|((a, b), &w)| (a, b, w))
    }

    /// Total directed edge weight.
    pub fn total_edge_weight(&self) -> f64 {
        self.edges.values().sum()
    }

    /// Weighted degree of `n` in the undirected view (self-loops
    /// count twice, the modularity convention).
    pub fn degree(&self, n: &N) -> f64 {
        let mut d = 0.0;
        for ((a, b), &w) in &self.edges {
            if a == n && b == n {
                d += 2.0 * w;
            } else if a == n || b == n {
                d += w;
            }
        }
        d
    }

    /// Undirected edge density: present pairs / possible pairs
    /// (self-loops excluded; 0.0 for graphs with < 2 nodes).
    pub fn density(&self) -> f64 {
        let n = self.nodes.len();
        if n < 2 {
            return 0.0;
        }
        let pairs = self
            .undirected_edges()
            .keys()
            .filter(|(a, b)| a != b)
            .count();
        pairs as f64 / (n * (n - 1) / 2) as f64
    }

    /// The node-weight vector as a map — the input to the weighted
    /// Jaccard similarity.
    pub fn node_weights(&self) -> &BTreeMap<N, f64> {
        &self.nodes
    }

    /// Merges `other` into `self`, summing node and edge weights — the
    /// universal-graph construction `UG(N, E, w_N, w_E)` that
    /// "consolidates information from all the algorithms used in the
    /// training phase".
    pub fn merge(&mut self, other: &WeightedGraph<N>) {
        for (n, w) in other.nodes() {
            self.add_node(n.clone(), w);
        }
        for (a, b, w) in other.edges() {
            self.add_edge(a.clone(), b.clone(), w);
        }
    }

    /// The undirected edge view used by modularity clustering: weights
    /// of `a -> b` and `b -> a` are combined under `(min, max)` key
    /// order; self-loops are preserved.
    pub fn undirected_edges(&self) -> BTreeMap<(N, N), f64> {
        let mut out: BTreeMap<(N, N), f64> = BTreeMap::new();
        for ((a, b), &w) in &self.edges {
            let key = if a <= b {
                (a.clone(), b.clone())
            } else {
                (b.clone(), a.clone())
            };
            *out.entry(key).or_insert(0.0) += w;
        }
        out
    }

    /// Builds a graph from node and edge lists.
    pub fn from_parts<NI, EI>(nodes: NI, edges: EI) -> Self
    where
        NI: IntoIterator<Item = (N, f64)>,
        EI: IntoIterator<Item = (N, N, f64)>,
    {
        let mut g = WeightedGraph::new();
        for (n, w) in nodes {
            g.add_node(n, w);
        }
        for (a, b, w) in edges {
            g.add_edge(a, b, w);
        }
        g
    }
}

impl<N: Ord + Clone + Display> WeightedGraph<N> {
    /// Renders the graph in Graphviz DOT format, one node per line with
    /// its `w_N` and one edge per line with its `w_E` — the format used
    /// to regenerate the paper's Fig. 3.
    ///
    /// `community_of` (optional) colours nodes by community index.
    pub fn to_dot(&self, name: &str, community_of: Option<&dyn Fn(&N) -> usize>) -> String {
        const PALETTE: [&str; 8] = [
            "lightblue",
            "lightsalmon",
            "palegreen",
            "plum",
            "khaki",
            "lightpink",
            "lightgray",
            "aquamarine",
        ];
        let mut s = format!("graph \"{name}\" {{\n  node [shape=box, style=filled];\n");
        for (n, w) in self.nodes() {
            let color = community_of
                .map(|f| PALETTE[f(n) % PALETTE.len()])
                .unwrap_or("white");
            s.push_str(&format!(
                "  \"{n}\" [label=\"{n}\\nw_N={w:.0}\", fillcolor={color}];\n"
            ));
        }
        for ((a, b), w) in self.undirected_edges() {
            s.push_str(&format!("  \"{a}\" -- \"{b}\" [label=\"{w:.0}\"];\n"));
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_node_accumulates() {
        let mut g = WeightedGraph::new();
        g.add_node("a", 1.0);
        g.add_node("a", 2.5);
        assert_eq!(g.node_weight(&"a"), Some(3.5));
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn add_edge_inserts_endpoints() {
        let mut g = WeightedGraph::new();
        g.add_edge("a", "b", 4.0);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_weight(&"a", &"b"), Some(4.0));
        assert_eq!(g.edge_weight(&"b", &"a"), None);
    }

    #[test]
    fn merge_sums_weights() {
        let mut g1 = WeightedGraph::new();
        g1.add_node("a", 1.0);
        g1.add_edge("a", "b", 2.0);
        let mut g2 = WeightedGraph::new();
        g2.add_node("a", 3.0);
        g2.add_edge("a", "b", 5.0);
        g2.add_edge("b", "c", 1.0);
        g1.merge(&g2);
        assert_eq!(g1.node_weight(&"a"), Some(4.0));
        assert_eq!(g1.edge_weight(&"a", &"b"), Some(7.0));
        assert_eq!(g1.node_count(), 3);
    }

    #[test]
    fn merge_is_commutative_on_weights() {
        let mut g1 = WeightedGraph::new();
        g1.add_edge(1, 2, 3.0);
        g1.add_node(1, 5.0);
        let mut g2 = WeightedGraph::new();
        g2.add_edge(2, 1, 1.0);
        g2.add_node(3, 2.0);

        let mut a = g1.clone();
        a.merge(&g2);
        let mut b = g2.clone();
        b.merge(&g1);
        assert_eq!(a, b);
    }

    #[test]
    fn undirected_view_combines_reciprocal_edges() {
        let mut g = WeightedGraph::new();
        g.add_edge("a", "b", 2.0);
        g.add_edge("b", "a", 3.0);
        g.add_edge("c", "c", 7.0);
        let u = g.undirected_edges();
        assert_eq!(u[&("a", "b")], 5.0);
        assert_eq!(u[&("c", "c")], 7.0);
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn dot_output_contains_nodes_and_edges() {
        let mut g = WeightedGraph::new();
        g.add_node("CONV2D", 12.0);
        g.add_edge("CONV2D", "RELU", 800.0);
        let dot = g.to_dot("c1", None);
        assert!(dot.contains("\"CONV2D\" [label=\"CONV2D\\nw_N=12\""));
        assert!(dot.contains("\"CONV2D\" -- \"RELU\""));
        assert!(dot.starts_with("graph \"c1\""));
    }

    #[test]
    fn dot_coloring_uses_communities() {
        let mut g = WeightedGraph::new();
        g.add_edge("a", "b", 1.0);
        let f = |n: &&str| usize::from(*n == "b");
        let dot = g.to_dot("g", Some(&f));
        assert!(dot.contains("fillcolor=lightblue"));
        assert!(dot.contains("fillcolor=lightsalmon"));
    }

    #[test]
    fn degree_counts_self_loops_twice() {
        let mut g = WeightedGraph::new();
        g.add_edge("a", "a", 3.0);
        g.add_edge("a", "b", 2.0);
        g.add_edge("c", "a", 1.0);
        assert_eq!(g.degree(&"a"), 2.0 * 3.0 + 2.0 + 1.0);
        assert_eq!(g.degree(&"b"), 2.0);
        assert_eq!(g.degree(&"z"), 0.0);
    }

    #[test]
    fn density_of_triangle_is_one() {
        let mut g = WeightedGraph::new();
        g.add_edge(0_u32, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 2, 1.0);
        assert_eq!(g.density(), 1.0);
        g.add_node(3, 1.0);
        assert!((g.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn serializes_as_node_and_edge_lists() {
        // Wire format pinned to the old derived-`GraphRepr` shape so
        // fixtures written before the by-reference impl still parse.
        let mut g = WeightedGraph::new();
        g.add_node("a".to_owned(), 2.0);
        g.add_edge("a".to_owned(), "b".to_owned(), 9.0);
        assert_eq!(
            serde_json::to_string(&g).unwrap(),
            r#"{"nodes":[["a",2.0],["b",0.0]],"edges":[["a","b",9.0]]}"#
        );
    }

    #[test]
    fn serde_round_trip() {
        let mut g = WeightedGraph::new();
        g.add_node("a".to_owned(), 2.0);
        g.add_edge("a".to_owned(), "b".to_owned(), 9.0);
        let json = serde_json::to_string(&g).unwrap();
        let back: WeightedGraph<String> = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }
}
