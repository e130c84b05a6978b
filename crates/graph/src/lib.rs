//! # claire-graph — weighted graphs, similarity and clustering
//!
//! The graph substrate of the CLAIRE framework (DATE 2025):
//!
//! * [`WeightedGraph`] — the `G(N, E, w_N, w_E)` structure of Step
//!   #TR1, with node weights (execution counts) and edge weights (data
//!   communication volumes), plus universal-graph merging.
//! * [`weighted_jaccard`] — the similarity measure used to partition
//!   the training set into subsets (Algorithm 1, line 14) and to assign
//!   test algorithms to library configurations (Step #TT1).
//! * [`louvain`] — the Louvain community-detection algorithm
//!   (Blondel et al., 2008) used to cluster monolithic-chip graphs into
//!   chiplets (Step #TR3/#TT4), implemented from scratch.
//! * [`agglomerate_by`] — single-linkage agglomerative clustering over
//!   an arbitrary similarity, used to form the algorithm subsets
//!   `TR_k`.
//! * [`CsrGraph`] — the flat, interned CSR kernel representation the
//!   clustering hot paths run over: node keys interned to `u32`
//!   indices, adjacency in offsets/targets/weights arrays, built once
//!   from a [`WeightedGraph`] and convertible back. [`louvain_csr`],
//!   [`weighted_jaccard_matrix`] + [`agglomerate_matrix`] /
//!   [`agglomerate_merge`] are the batch entry points built on it.
//!
//! # Example
//!
//! ```
//! use claire_graph::{louvain, WeightedGraph};
//!
//! // Two triangles joined by a weak bridge split into two chiplets.
//! let mut g = WeightedGraph::new();
//! for &(a, b) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
//!     g.add_edge(a, b, 10.0);
//! }
//! g.add_edge(2, 3, 0.1);
//! let partition = louvain(&g, 1.0);
//! assert_eq!(partition.communities().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cluster;
mod csr;
mod graph;
mod jaccard;
mod louvain;
mod spectral;

pub use cluster::{agglomerate_by, agglomerate_matrix, agglomerate_merge};
pub use csr::CsrGraph;
pub use graph::WeightedGraph;
pub use jaccard::{weighted_jaccard, weighted_jaccard_matrix};
pub use louvain::{
    louvain, louvain_csr, louvain_csr_counted, louvain_csr_passes, louvain_passes, modularity,
    modularity_csr, Partition,
};
pub use spectral::{spectral_bisect, spectral_bisect_csr};
