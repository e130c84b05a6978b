//! The map-based Louvain implementation the CSR kernels replaced,
//! kept as the bit-exactness oracle: `claire_graph::louvain` and
//! `louvain_passes` must reproduce its partitions pass by pass.

use claire::graph::{Partition, WeightedGraph};

/// Dense internal graph used by the reference implementation.
struct Dense {
    /// adj[i] = (neighbor, weight) with i != neighbor.
    adj: Vec<Vec<(usize, f64)>>,
    /// A_ii / 2 (raw self-loop weight).
    self_loop: Vec<f64>,
    /// k_i = Σ_j≠i A_ij + 2·self_loop_i.
    degree: Vec<f64>,
    /// 2m = Σ_i k_i.
    m2: f64,
}

impl Dense {
    fn from_graph<N: Ord + Clone>(g: &WeightedGraph<N>, index: &[N]) -> Self {
        let n = index.len();
        // Every node is in the sorted index by construction; the
        // fallback keeps the lookup total.
        let pos = |k: &N| index.binary_search(k).unwrap_or(0);
        let mut adj = vec![Vec::new(); n];
        let mut self_loop = vec![0.0; n];
        for ((a, b), w) in g.undirected_edges() {
            let (i, j) = (pos(&a), pos(&b));
            if i == j {
                self_loop[i] += w;
            } else {
                adj[i].push((j, w));
                adj[j].push((i, w));
            }
        }
        let mut degree = vec![0.0; n];
        let mut m2 = 0.0;
        for i in 0..n {
            let k: f64 = adj[i].iter().map(|&(_, w)| w).sum::<f64>() + 2.0 * self_loop[i];
            degree[i] = k;
            m2 += k;
        }
        Dense {
            adj,
            self_loop,
            degree,
            m2,
        }
    }

    /// One local-moving phase; returns the node→community assignment
    /// and whether anything moved.
    fn local_move(&self, resolution: f64) -> (Vec<usize>, bool) {
        let n = self.adj.len();
        let mut community: Vec<usize> = (0..n).collect();
        let mut comm_degree = self.degree.clone();
        let mut any_moved = false;
        // weight from node i to each community, sparse scratch.
        let mut w_to: Vec<f64> = vec![0.0; n];
        let mut touched: Vec<usize> = Vec::new();

        loop {
            let mut moved = false;
            for i in 0..n {
                let old = community[i];
                for &(j, w) in &self.adj[i] {
                    let c = community[j];
                    if w_to[c] == 0.0 {
                        touched.push(c);
                    }
                    w_to[c] += w;
                }
                comm_degree[old] -= self.degree[i];

                let mut best = old;
                let mut best_gain =
                    w_to[old] - resolution * self.degree[i] * comm_degree[old] / self.m2;
                for &c in &touched {
                    let gain = w_to[c] - resolution * self.degree[i] * comm_degree[c] / self.m2;
                    if gain > best_gain + 1e-12 || (gain > best_gain - 1e-12 && c < best) {
                        best = c;
                        best_gain = gain;
                    }
                }

                comm_degree[best] += self.degree[i];
                if best != old {
                    community[i] = best;
                    moved = true;
                    any_moved = true;
                }
                for &c in &touched {
                    w_to[c] = 0.0;
                }
                touched.clear();
            }
            if !moved {
                break;
            }
        }
        (community, any_moved)
    }

    /// Aggregates communities into super-nodes.
    fn aggregate(&self, community: &[usize]) -> (Dense, Vec<usize>) {
        let mut renum = vec![usize::MAX; community.len()];
        let mut next = 0;
        for &c in community {
            if renum[c] == usize::MAX {
                renum[c] = next;
                next += 1;
            }
        }
        let mapping: Vec<usize> = community.iter().map(|&c| renum[c]).collect();

        let mut self_loop = vec![0.0; next];
        let mut pair_w: std::collections::BTreeMap<(usize, usize), f64> =
            std::collections::BTreeMap::new();
        for (i, &ci) in mapping.iter().enumerate() {
            self_loop[ci] += self.self_loop[i];
            for &(j, w) in &self.adj[i] {
                if j < i {
                    continue; // each undirected pair once
                }
                let cj = mapping[j];
                if ci == cj {
                    self_loop[ci] += w;
                } else {
                    let key = (ci.min(cj), ci.max(cj));
                    *pair_w.entry(key).or_insert(0.0) += w;
                }
            }
        }
        let mut adj = vec![Vec::new(); next];
        for (&(a, b), &w) in &pair_w {
            adj[a].push((b, w));
            adj[b].push((a, w));
        }
        let mut degree = vec![0.0; next];
        let mut m2 = 0.0;
        for i in 0..next {
            let k: f64 = adj[i].iter().map(|&(_, w)| w).sum::<f64>() + 2.0 * self_loop[i];
            degree[i] = k;
            m2 += k;
        }
        (
            Dense {
                adj,
                self_loop,
                degree,
                m2,
            },
            mapping,
        )
    }
}

/// The pre-CSR, `BTreeMap`-backed `louvain`: the final pass of
/// [`louvain_passes_reference`].
pub fn louvain_reference<N: Ord + Clone>(g: &WeightedGraph<N>, resolution: f64) -> Partition<N> {
    louvain_passes_reference(g, resolution)
        .pop()
        .unwrap_or_else(|| Partition::from_communities(Vec::new()))
}

/// The pre-CSR `louvain_passes`: the singleton partition, then one
/// partition per aggregation level.
///
/// # Panics
///
/// Panics if `resolution` is not finite and positive.
pub fn louvain_passes_reference<N: Ord + Clone>(
    g: &WeightedGraph<N>,
    resolution: f64,
) -> Vec<Partition<N>> {
    assert!(
        resolution.is_finite() && resolution > 0.0,
        "resolution must be positive"
    );
    let index: Vec<N> = g.nodes().map(|(n, _)| n.clone()).collect();
    if index.is_empty() {
        return vec![Partition::from_communities(Vec::new())];
    }
    let mut assignment: Vec<usize> = (0..index.len()).collect();
    let mut passes = vec![from_assignment(&index, &assignment)];
    let dense = Dense::from_graph(g, &index);
    if dense.m2 == 0.0 {
        return passes;
    }

    let mut level = dense;
    loop {
        let (community, moved) = level.local_move(resolution);
        if !moved {
            break;
        }
        let (aggregated, mapping) = level.aggregate(&community);
        for a in &mut assignment {
            *a = mapping[*a];
        }
        passes.push(from_assignment(&index, &assignment));
        if aggregated.adj.len() == level.adj.len() {
            break;
        }
        level = aggregated;
    }
    passes
}

/// The partition that puts `nodes[i]` in community `assignment[i]`.
fn from_assignment<N: Ord + Clone>(nodes: &[N], assignment: &[usize]) -> Partition<N> {
    let max = assignment.iter().copied().max().map_or(0, |m| m + 1);
    let mut communities: Vec<Vec<N>> = vec![Vec::new(); max];
    for (i, &c) in assignment.iter().enumerate() {
        communities[c].push(nodes[i].clone());
    }
    communities.retain(|c| !c.is_empty());
    Partition::from_communities(communities)
}
