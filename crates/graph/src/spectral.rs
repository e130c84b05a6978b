//! Spectral bisection — an alternative chiplet-partitioning strategy
//! used by the clustering ablation bench.
//!
//! Classic Fiedler-vector partitioning: split the graph by the sign
//! structure of the second-smallest eigenvector of the weighted
//! Laplacian `L = D − A`. Computed with deterministic shifted power
//! iteration (no linear-algebra dependency), deflating the trivial
//! all-ones eigenvector.

use crate::csr::CsrGraph;
use crate::graph::WeightedGraph;
use crate::louvain::Partition;

/// Bisects `g` along its Fiedler vector.
///
/// Returns a two-community [`Partition`] (single-community for graphs
/// with fewer than two nodes or no edges; exact connected components
/// when the graph is disconnected and the Fiedler value is ~0).
///
/// Deterministic: the power iteration starts from a fixed hash-seeded
/// vector and runs a fixed `iterations` count (≥ 50 recommended).
///
/// # Panics
///
/// Panics if `iterations` is zero.
pub fn spectral_bisect<N: Ord + Clone>(g: &WeightedGraph<N>, iterations: usize) -> Partition<N> {
    spectral_bisect_csr(&CsrGraph::from_weighted(g), iterations)
}

/// [`spectral_bisect`] over a prebuilt [`CsrGraph`] — the entry point
/// callers with an interned graph in hand use to skip the map rebuild.
///
/// # Panics
///
/// Panics if `iterations` is zero.
pub fn spectral_bisect_csr<N: Ord + Clone>(csr: &CsrGraph<N>, iterations: usize) -> Partition<N> {
    assert!(iterations > 0, "iterations must be positive");
    let index: Vec<N> = csr.keys().to_vec();
    let n = index.len();
    if n < 2 {
        return Partition::from_communities(if n == 0 { Vec::new() } else { vec![index] });
    }

    // Dense adjacency from the CSR rows (self-loops are stored apart
    // and do not affect the Laplacian). Row order matches the old
    // sorted-map walk, so degree sums are bit-identical.
    let mut adj = vec![vec![0.0_f64; n]; n];
    let mut degree = vec![0.0_f64; n];
    for i in 0..n {
        let (row_t, row_w) = csr.row(i);
        for (&j, &w) in row_t.iter().zip(row_w) {
            adj[i][j as usize] = w;
            degree[i] += w;
        }
    }
    if csr.targets().is_empty() {
        return Partition::from_communities(vec![index]);
    }

    // Power iteration on M = c·I − L (largest eigenvector of M is the
    // smallest of L, the all-ones vector; deflate it to reach the
    // Fiedler vector).
    let c = 2.0 * degree.iter().cloned().fold(0.0, f64::max) + 1.0;
    let mut v: Vec<f64> = (0..n)
        .map(|i| {
            // Deterministic pseudo-random init (Knuth multiplicative).
            let h = (i as u64).wrapping_mul(2_654_435_761).wrapping_add(97);
            ((h % 1000) as f64) / 1000.0 - 0.5
        })
        .collect();
    deflate_and_normalise(&mut v);

    let mut next = vec![0.0; n];
    for _ in 0..iterations {
        for i in 0..n {
            // (c·I − L)v = c·v − D·v + A·v
            let mut acc = (c - degree[i]) * v[i];
            for j in 0..n {
                acc += adj[i][j] * v[j];
            }
            next[i] = acc;
        }
        std::mem::swap(&mut v, &mut next);
        deflate_and_normalise(&mut v);
    }

    // Split at the balance-weighted largest gap in the sorted Fiedler
    // components: a clean sign structure (clustered graph) has one
    // dominant gap; a degenerate spectrum (complete graph) falls back
    // toward a balanced cut via the weighting.
    let mut sorted = v.clone();
    // Fiedler components are finite, so total_cmp sorts identically
    // to partial_cmp while staying panic-free.
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mut best_pos = n / 2;
    let mut best_score = f64::NEG_INFINITY;
    for pos in 1..n {
        let gap = sorted[pos] - sorted[pos - 1];
        let balance = pos.min(n - pos) as f64;
        let score = gap * balance;
        if score > best_score + 1e-15 {
            best_score = score;
            best_pos = pos;
        }
    }
    let threshold = (sorted[best_pos - 1] + sorted[best_pos]) / 2.0;
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (i, node) in index.into_iter().enumerate() {
        if v[i] < threshold {
            left.push(node);
        } else {
            right.push(node);
        }
    }
    if left.is_empty() || right.is_empty() {
        // Degenerate (e.g. all components equal): one community.
        let mut all = left;
        all.extend(right);
        return Partition::from_communities(vec![all]);
    }
    Partition::from_communities(vec![left, right])
}

/// Removes the all-ones component and normalises to unit length.
fn deflate_and_normalise(v: &mut [f64]) {
    let n = v.len() as f64;
    let mean = v.iter().sum::<f64>() / n;
    for x in v.iter_mut() {
        *x -= mean;
    }
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 1e-300 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    } else {
        // Restart from a fixed non-uniform vector.
        for (i, x) in v.iter_mut().enumerate() {
            *x = if i % 2 == 0 { 1.0 } else { -1.0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::louvain::modularity;

    fn two_triangles() -> WeightedGraph<u32> {
        let mut g = WeightedGraph::new();
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.add_edge(a, b, 10.0);
        }
        g.add_edge(2, 3, 0.1);
        g
    }

    #[test]
    fn separates_two_triangles() {
        let p = spectral_bisect(&two_triangles(), 200);
        assert_eq!(p.len(), 2);
        assert_eq!(p.communities()[0], vec![0, 1, 2]);
        assert_eq!(p.communities()[1], vec![3, 4, 5]);
    }

    #[test]
    fn bisection_has_positive_modularity_on_clustered_graph() {
        let g = two_triangles();
        let p = spectral_bisect(&g, 200);
        assert!(modularity(&g, &p, 1.0) > 0.3);
    }

    #[test]
    fn deterministic() {
        let g = two_triangles();
        assert_eq!(spectral_bisect(&g, 100), spectral_bisect(&g, 100));
    }

    #[test]
    fn single_node_single_community() {
        let mut g = WeightedGraph::new();
        g.add_node(7_u32, 1.0);
        let p = spectral_bisect(&g, 10);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn empty_graph_empty_partition() {
        let g: WeightedGraph<u32> = WeightedGraph::new();
        assert!(spectral_bisect(&g, 10).is_empty());
    }

    #[test]
    fn edgeless_graph_is_one_community() {
        let mut g = WeightedGraph::new();
        g.add_node(1_u32, 1.0);
        g.add_node(2, 1.0);
        let p = spectral_bisect(&g, 10);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn complete_graph_splits_evenly() {
        let mut g = WeightedGraph::new();
        for i in 0..6_u32 {
            for j in (i + 1)..6 {
                g.add_edge(i, j, 1.0);
            }
        }
        let p = spectral_bisect(&g, 200);
        assert_eq!(p.len(), 2);
        let sizes: Vec<usize> = p.communities().iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 6);
        assert!(sizes.iter().all(|&s| s >= 2), "{sizes:?}");
    }

    #[test]
    fn weighted_barbell_cuts_the_bridge() {
        let mut g = WeightedGraph::new();
        for &(a, b) in &[(0, 1), (2, 3)] {
            g.add_edge(a, b, 100.0);
        }
        g.add_edge(1_u32, 2, 1.0);
        let p = spectral_bisect(&g, 200);
        assert_eq!(p.communities()[0], vec![0, 1]);
        assert_eq!(p.communities()[1], vec![2, 3]);
    }
}
