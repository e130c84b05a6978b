//! Louvain community detection (Blondel et al., 2008), implemented
//! from scratch for the chiplet-clustering step of CLAIRE.
//!
//! "The clustering algorithm groups nodes based on edge weights,
//! grouping frequently communicating nodes together and placing nodes
//! with low inter-node communication in different chiplets to reduce
//! NoP communication energy overhead" — i.e. classic modularity
//! maximisation over the communication-volume graph.
//!
//! The hot path runs over the flat [`CsrGraph`] kernel representation
//! with per-pass scratch buffers reused across levels; the original
//! `BTreeMap`-backed implementation is preserved as
//! [`louvain_reference`] so the property tests can pin bit-identical
//! partitions and the benches can measure against the map baseline.

use crate::csr::{csr_from_pairs, degrees, CsrGraph};
use crate::graph::WeightedGraph;

/// A disjoint partition of a graph's nodes into communities
/// ("chiplets" in the CLAIRE flow).
///
/// Communities are sorted by their smallest member, and members within
/// a community are sorted, so results are fully deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition<N> {
    communities: Vec<Vec<N>>,
}

impl<N: Ord + Clone> Partition<N> {
    /// Builds a partition from explicit communities (e.g. a baseline
    /// to compare modularity against). Members are sorted and
    /// communities ordered by smallest member.
    ///
    /// # Panics
    ///
    /// Panics if a node appears in more than one community or a
    /// community is empty.
    pub fn from_communities(mut communities: Vec<Vec<N>>) -> Self {
        let mut seen = std::collections::BTreeSet::new();
        for c in &communities {
            assert!(!c.is_empty(), "empty community");
            for n in c {
                assert!(seen.insert(n.clone()), "node appears in two communities");
            }
        }
        for c in &mut communities {
            c.sort();
        }
        communities.sort_by(|a, b| a[0].cmp(&b[0]));
        Partition { communities }
    }

    /// The communities, each a sorted list of node keys.
    pub fn communities(&self) -> &[Vec<N>] {
        &self.communities
    }

    /// Number of communities.
    pub fn len(&self) -> usize {
        self.communities.len()
    }

    /// True when the partition is empty (empty input graph).
    pub fn is_empty(&self) -> bool {
        self.communities.is_empty()
    }

    /// Community sizes, in community order.
    pub fn sizes(&self) -> Vec<usize> {
        self.communities.iter().map(Vec::len).collect()
    }

    /// The community index containing `n`, if any.
    pub fn community_of(&self, n: &N) -> Option<usize> {
        self.communities
            .iter()
            .position(|c| c.binary_search(n).is_ok())
    }

    fn from_assignment(nodes: &[N], assignment: &[usize]) -> Self {
        let max = assignment.iter().copied().max().map_or(0, |m| m + 1);
        let mut communities: Vec<Vec<N>> = vec![Vec::new(); max];
        for (i, &c) in assignment.iter().enumerate() {
            communities[c].push(nodes[i].clone());
        }
        communities.retain(|c| !c.is_empty());
        for c in &mut communities {
            c.sort();
        }
        communities.sort_by(|a, b| a[0].cmp(&b[0]));
        Partition { communities }
    }
}

/// One aggregation level of the CSR pass hierarchy. The first level
/// borrows the caller's [`CsrGraph`] arrays; aggregated levels own
/// theirs.
struct LevelView<'a> {
    offsets: &'a [u32],
    targets: &'a [u32],
    weights: &'a [f64],
    self_loop: &'a [f64],
    degree: &'a [f64],
    m2: f64,
}

struct Level {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    self_loop: Vec<f64>,
    degree: Vec<f64>,
    m2: f64,
}

impl Level {
    fn view(&self) -> LevelView<'_> {
        LevelView {
            offsets: &self.offsets,
            targets: &self.targets,
            weights: &self.weights,
            self_loop: &self.self_loop,
            degree: &self.degree,
            m2: self.m2,
        }
    }
}

impl LevelView<'_> {
    fn node_count(&self) -> usize {
        self.self_loop.len()
    }
}

/// Reusable per-pass scratch. Allocated once per `louvain_csr_passes`
/// call and recycled across levels (levels only shrink), replacing the
/// per-move map allocations of the old implementation.
#[derive(Default)]
struct Scratch {
    /// Weight from the node under consideration to each community;
    /// kept all-zero between nodes via `touched`.
    w_to: Vec<f64>,
    touched: Vec<usize>,
    community: Vec<usize>,
    comm_degree: Vec<f64>,
    /// Community -> dense renumbering used by `aggregate`.
    renum: Vec<usize>,
    /// (lo, hi, w) inter-community edge entries used by `aggregate`.
    entries: Vec<(u32, u32, f64)>,
    pairs: Vec<(u32, u32, f64)>,
}

/// One local-moving phase over `view`; leaves the node→community
/// assignment in `s.community` and returns whether anything moved.
///
/// Bit-identical to the map-based phase: nodes are visited in index
/// (= key) order, each row's neighbour weights accumulate in ascending
/// neighbour order, and ties break toward the smaller community index
/// within the same 1e-12 window.
fn local_move(view: &LevelView<'_>, resolution: f64, s: &mut Scratch) -> bool {
    let n = view.node_count();
    s.community.clear();
    s.community.extend(0..n);
    s.comm_degree.clear();
    s.comm_degree.extend_from_slice(view.degree);
    if s.w_to.len() < n {
        s.w_to.resize(n, 0.0);
    }
    s.touched.clear();
    let mut any_moved = false;

    loop {
        let mut moved = false;
        for i in 0..n {
            let old = s.community[i];
            // Gather weights to neighbouring communities.
            let (row_start, row_end) = (view.offsets[i] as usize, view.offsets[i + 1] as usize);
            for e in row_start..row_end {
                let c = s.community[view.targets[e] as usize];
                if s.w_to[c] == 0.0 {
                    s.touched.push(c);
                }
                s.w_to[c] += view.weights[e];
            }
            // Remove i from its community.
            s.comm_degree[old] -= view.degree[i];

            // Best community by modularity gain:
            // ΔQ ∝ w_to[c] − γ · k_i · Σ_tot(c) / 2m
            let mut best = old;
            let mut best_gain =
                s.w_to[old] - resolution * view.degree[i] * s.comm_degree[old] / view.m2;
            for &c in &s.touched {
                let gain = s.w_to[c] - resolution * view.degree[i] * s.comm_degree[c] / view.m2;
                if gain > best_gain + 1e-12 || (gain > best_gain - 1e-12 && c < best) {
                    best = c;
                    best_gain = gain;
                }
            }

            s.comm_degree[best] += view.degree[i];
            if best != old {
                s.community[i] = best;
                moved = true;
                any_moved = true;
            }
            for &c in &s.touched {
                s.w_to[c] = 0.0;
            }
            s.touched.clear();
        }
        if !moved {
            break;
        }
    }
    any_moved
}

/// Aggregates communities into super-nodes; returns the aggregated
/// level and the node→super-node mapping.
///
/// Reproduces the map-based aggregation's float summation order: edge
/// entries are collected in (node, row-position) visit order and a
/// *stable* sort groups each community pair without reordering its
/// contributions, so run-accumulation matches the old `BTreeMap`
/// entry-accumulation term for term.
fn aggregate(view: &LevelView<'_>, s: &mut Scratch) -> (Level, Vec<usize>) {
    let n = view.node_count();
    // Renumber communities densely, in first-appearance (node) order.
    s.renum.clear();
    s.renum.resize(n, usize::MAX);
    let mut next = 0;
    for &c in &s.community {
        if s.renum[c] == usize::MAX {
            s.renum[c] = next;
            next += 1;
        }
    }
    let mapping: Vec<usize> = s.community.iter().map(|&c| s.renum[c]).collect();

    let mut self_loop = vec![0.0; next];
    s.entries.clear();
    for (i, &ci) in mapping.iter().enumerate() {
        self_loop[ci] += view.self_loop[i];
        let (row_start, row_end) = (view.offsets[i] as usize, view.offsets[i + 1] as usize);
        for e in row_start..row_end {
            let j = view.targets[e] as usize;
            if j < i {
                continue; // each undirected pair once
            }
            let cj = mapping[j];
            if ci == cj {
                self_loop[ci] += view.weights[e];
            } else {
                let (lo, hi) = (ci.min(cj) as u32, ci.max(cj) as u32);
                s.entries.push((lo, hi, view.weights[e]));
            }
        }
    }
    s.entries.sort_by_key(|x| (x.0, x.1));
    s.pairs.clear();
    for &(lo, hi, w) in &s.entries {
        match s.pairs.last_mut() {
            Some(p) if p.0 == lo && p.1 == hi => p.2 += w,
            _ => s.pairs.push((lo, hi, w)),
        }
    }
    let (offsets, targets, weights) = csr_from_pairs(next, &s.pairs);
    let (degree, m2) = degrees(&offsets, &weights, &self_loop);
    (
        Level {
            offsets,
            targets,
            weights,
            self_loop,
            degree,
            m2,
        },
        mapping,
    )
}

/// Runs Louvain modularity clustering on the undirected view of `g`.
///
/// `resolution` is the γ of generalised modularity: 1.0 is classic
/// Louvain; higher values produce more, smaller communities (more
/// chiplets), lower values fewer, larger ones.
///
/// Nodes with no edges each form their own community. Deterministic:
/// ties are broken toward the smaller community index and nodes are
/// visited in key order.
///
/// # Panics
///
/// Panics if `resolution` is not finite and positive.
pub fn louvain<N: Ord + Clone>(g: &WeightedGraph<N>, resolution: f64) -> Partition<N> {
    louvain_csr(&CsrGraph::from_weighted(g), resolution)
}

/// [`louvain`], but returning the partition after **every pass**: the
/// initial all-singletons partition first, then one entry per
/// local-move + aggregation round, ending with the final result
/// (`louvain` returns the last element). Each pass only applies
/// positive-gain moves, so modularity is non-decreasing along the
/// returned sequence — the invariant the property tests pin.
///
/// # Panics
///
/// Panics if `resolution` is not finite and positive.
pub fn louvain_passes<N: Ord + Clone>(g: &WeightedGraph<N>, resolution: f64) -> Vec<Partition<N>> {
    louvain_csr_passes(&CsrGraph::from_weighted(g), resolution)
}

/// [`louvain`] over a prebuilt [`CsrGraph`] — the zero-rebuild entry
/// point for callers that cluster the same graph repeatedly (e.g. the
/// chiplet-count escalation loop sweeping `resolution`).
pub fn louvain_csr<N: Ord + Clone>(csr: &CsrGraph<N>, resolution: f64) -> Partition<N> {
    louvain_csr_counted(csr, resolution).0
}

/// [`louvain_csr`] that also reports how many improvement passes ran
/// (the pass count excludes the initial singleton partition, so a
/// graph where no move improves modularity reports zero passes). The
/// returned partition is bit-identical to [`louvain_csr`]'s — the
/// count is observational only.
pub fn louvain_csr_counted<N: Ord + Clone>(
    csr: &CsrGraph<N>,
    resolution: f64,
) -> (Partition<N>, usize) {
    let mut passes = louvain_csr_passes(csr, resolution);
    let count = passes.len().saturating_sub(1);
    // Passes always holds at least the initial partition; the fallback
    // (empty partition) is unreachable but keeps the function total.
    let partition = passes
        .pop()
        .unwrap_or_else(|| Partition::from_communities(Vec::new()));
    (partition, count)
}

/// [`louvain_passes`] over a prebuilt [`CsrGraph`].
///
/// # Panics
///
/// Panics if `resolution` is not finite and positive.
pub fn louvain_csr_passes<N: Ord + Clone>(csr: &CsrGraph<N>, resolution: f64) -> Vec<Partition<N>> {
    assert!(
        resolution.is_finite() && resolution > 0.0,
        "resolution must be positive"
    );
    if csr.is_empty() {
        return vec![Partition {
            communities: Vec::new(),
        }];
    }
    // node -> current community, threaded through passes.
    let mut assignment: Vec<usize> = (0..csr.node_count()).collect();
    let mut passes = vec![Partition::from_assignment(csr.keys(), &assignment)];
    if csr.m2() == 0.0 {
        // No edges: singleton communities.
        return passes;
    }

    let mut scratch = Scratch::default();
    let first = LevelView {
        offsets: csr.offsets(),
        targets: csr.targets(),
        weights: csr.weights(),
        self_loop: csr.self_loops(),
        degree: csr.degrees(),
        m2: csr.m2(),
    };
    let mut owned: Option<Level> = None;
    loop {
        let view = owned.as_ref().map(Level::view).unwrap_or(LevelView {
            offsets: first.offsets,
            targets: first.targets,
            weights: first.weights,
            self_loop: first.self_loop,
            degree: first.degree,
            m2: first.m2,
        });
        let moved = local_move(&view, resolution, &mut scratch);
        if !moved {
            break;
        }
        let node_count = view.node_count();
        let (aggregated, mapping) = aggregate(&view, &mut scratch);
        for a in &mut assignment {
            *a = mapping[*a];
        }
        passes.push(Partition::from_assignment(csr.keys(), &assignment));
        if aggregated.self_loop.len() == node_count {
            break;
        }
        owned = Some(aggregated);
    }
    passes
}

/// Generalised modularity `Q` of a partition:
///
/// `Q = (1/2m) Σ_ij (A_ij − γ·k_i·k_j/2m) δ(c_i, c_j)`
///
/// with `A_ii` twice the self-loop weight (the standard convention).
/// Returns 0.0 for graphs without edges.
pub fn modularity<N: Ord + Clone>(
    g: &WeightedGraph<N>,
    partition: &Partition<N>,
    resolution: f64,
) -> f64 {
    modularity_csr(&CsrGraph::from_weighted(g), partition, resolution)
}

/// [`modularity`] over a prebuilt [`CsrGraph`].
pub fn modularity_csr<N: Ord + Clone>(
    csr: &CsrGraph<N>,
    partition: &Partition<N>,
    resolution: f64,
) -> f64 {
    let n = csr.node_count();
    if n == 0 || csr.m2() == 0.0 {
        return 0.0;
    }
    // The partition covers every graph node; an uncovered node (never
    // produced by the kernels here) gets a sentinel community of its
    // own instead of panicking.
    let comm: Vec<usize> = csr
        .keys()
        .iter()
        .enumerate()
        .map(|(i, k)| partition.community_of(k).unwrap_or(usize::MAX - i))
        .collect();
    let (degree, m2) = (csr.degrees(), csr.m2());

    let mut q = 0.0;
    for i in 0..n {
        // Self-loop term: A_ii = 2·self_loop.
        q += 2.0 * csr.self_loops()[i] - resolution * degree[i] * degree[i] / m2;
        let (row_t, row_w) = csr.row(i);
        for (&j, &w) in row_t.iter().zip(row_w) {
            if comm[i] == comm[j as usize] {
                q += w - resolution * degree[i] * degree[j as usize] / m2;
            }
        }
    }
    // Correct the pair terms we skipped: the loop above double-counts
    // nothing (rows list both directions), but misses k_i·k_j penalties
    // for non-adjacent same-community pairs.
    for i in 0..n {
        let (row_t, _) = csr.row(i);
        for j in 0..n {
            if i != j && comm[i] == comm[j] && row_t.binary_search(&(j as u32)).is_err() {
                q -= resolution * degree[i] * degree[j] / m2;
            }
        }
    }
    q / m2
}

// ---------------------------------------------------------------------
// Map-based reference implementation (pre-CSR), preserved verbatim.
// ---------------------------------------------------------------------

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

/// The pre-CSR, `BTreeMap`-backed [`louvain`] implementation,
/// preserved as the bit-exactness reference: the property tests assert
/// `louvain == louvain_reference` on random graphs, and the `profile`
/// bench uses it as the baseline for the CSR kernel speedup.
pub fn louvain_reference<N: Ord + Clone>(g: &WeightedGraph<N>, resolution: f64) -> Partition<N> {
    louvain_passes_reference(g, resolution)
        .pop()
        .unwrap_or_else(|| Partition::from_communities(Vec::new()))
}

/// The pre-CSR [`louvain_passes`]; see [`louvain_reference`].
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
        return vec![Partition {
            communities: Vec::new(),
        }];
    }
    let mut assignment: Vec<usize> = (0..index.len()).collect();
    let mut passes = vec![Partition::from_assignment(&index, &assignment)];
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
        passes.push(Partition::from_assignment(&index, &assignment));
        if aggregated.adj.len() == level.adj.len() {
            break;
        }
        level = aggregated;
    }
    passes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_triangles() -> WeightedGraph<u32> {
        let mut g = WeightedGraph::new();
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.add_edge(a, b, 10.0);
        }
        g.add_edge(2, 3, 0.5);
        g
    }

    #[test]
    fn splits_two_triangles() {
        let p = louvain(&two_triangles(), 1.0);
        assert_eq!(p.len(), 2);
        assert_eq!(p.communities()[0], vec![0, 1, 2]);
        assert_eq!(p.communities()[1], vec![3, 4, 5]);
    }

    #[test]
    fn complete_graph_is_one_community() {
        let mut g = WeightedGraph::new();
        for i in 0..5_u32 {
            for j in (i + 1)..5 {
                g.add_edge(i, j, 1.0);
            }
        }
        let p = louvain(&g, 1.0);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn star_graph_is_one_community() {
        let mut g = WeightedGraph::new();
        for i in 1..6_u32 {
            g.add_edge(0, i, 5.0);
        }
        assert_eq!(louvain(&g, 1.0).len(), 1);
    }

    #[test]
    fn edgeless_nodes_are_singletons() {
        let mut g = WeightedGraph::new();
        g.add_node("a", 1.0);
        g.add_node("b", 1.0);
        let p = louvain(&g, 1.0);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn empty_graph_empty_partition() {
        let g: WeightedGraph<u32> = WeightedGraph::new();
        assert!(louvain(&g, 1.0).is_empty());
    }

    #[test]
    fn higher_resolution_never_fewer_communities() {
        let g = two_triangles();
        let low = louvain(&g, 0.5).len();
        let high = louvain(&g, 3.0).len();
        assert!(high >= low);
    }

    #[test]
    fn louvain_beats_singletons_on_modularity() {
        let g = two_triangles();
        let p = louvain(&g, 1.0);
        let singles = Partition {
            communities: (0..6_u32).map(|i| vec![i]).collect(),
        };
        assert!(modularity(&g, &p, 1.0) > modularity(&g, &singles, 1.0));
    }

    #[test]
    fn modularity_known_value_single_edge() {
        // One edge: all-in-one community. Q = (1/2m)Σ(A_ij - k_i k_j/2m)
        // = [ (1-1/2)*2 ] / 2 = 0.0? With m2=2: pairs (0,1),(1,0): each
        // w=1, penalty 1*1/2 -> contribution 2*(1-0.5)=1, and self
        // penalties -1*1/2 each = -1. Total 0 -> Q=0.
        let mut g = WeightedGraph::new();
        g.add_edge(0_u32, 1, 1.0);
        let p = Partition {
            communities: vec![vec![0, 1]],
        };
        assert!((modularity(&g, &p, 1.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn modularity_two_cliques_ideal_split() {
        // Classic: two disconnected edges, split communities -> Q = 0.5.
        let mut g = WeightedGraph::new();
        g.add_edge(0_u32, 1, 1.0);
        g.add_edge(2, 3, 1.0);
        let p = Partition {
            communities: vec![vec![0, 1], vec![2, 3]],
        };
        assert!((modularity(&g, &p, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn self_loops_keep_node_in_place() {
        let mut g = WeightedGraph::new();
        g.add_edge(0_u32, 0, 100.0);
        g.add_edge(0, 1, 1.0);
        let p = louvain(&g, 1.0);
        // Strong self-communication does not force a split.
        assert!(p.len() <= 2);
        assert_eq!(p.communities().iter().map(|c| c.len()).sum::<usize>(), 2);
    }

    #[test]
    fn community_of_finds_members() {
        let p = louvain(&two_triangles(), 1.0);
        assert_eq!(p.community_of(&0), Some(0));
        assert_eq!(p.community_of(&5), Some(1));
        assert_eq!(p.community_of(&99), None);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = two_triangles();
        let a = louvain(&g, 1.0);
        let b = louvain(&g, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn csr_matches_reference_on_fixed_graphs() {
        for gamma in [0.5, 1.0, 1.5, 3.0] {
            let g = two_triangles();
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

    #[test]
    fn modularity_csr_reuses_prebuilt_graph() {
        let g = two_triangles();
        let csr = CsrGraph::from_weighted(&g);
        let p = louvain_csr(&csr, 1.0);
        assert_eq!(p, louvain(&g, 1.0));
        assert_eq!(modularity_csr(&csr, &p, 1.0), modularity(&g, &p, 1.0));
    }
}
