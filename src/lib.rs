//! # CLAIRE — Composable Chiplet Libraries for AI Inference
//!
//! A from-scratch Rust implementation of the analytical framework in
//! *CLAIRE: Composable Chiplet Libraries for AI Inference* (DATE
//! 2025): deriving library-synthesized chiplet configurations that
//! serve broad families of AI models at near-custom performance and a
//! fraction of the non-recurring engineering cost.
//!
//! This meta-crate re-exports the workspace:
//!
//! * [`model`] — the 27-model zoo, `print(model)` parser,
//!   synthetic workload generator
//! * [`graph`] — weighted graphs, weighted Jaccard, Louvain, spectral
//!   clustering
//! * [`ppa`] — 28-nm unit PPA, the 81-configuration DSE space,
//!   systolic-array models, node scaling
//! * [`noc`] — 2-D torus NoC and AIB 2.0 NoP models
//! * [`cost`] — NRE, yield and packaging cost models
//! * [`core`] — the full pipeline: DSE, chiplet clustering, placement,
//!   assignment, metrics, library artifacts, portfolio planning
//! * [`sim`] — the discrete-event simulator validating the analytics
//!
//! # Quickstart
//!
//! ```
//! use claire::core::{Claire, ClaireOptions};
//! use claire::model::zoo;
//!
//! # fn main() -> Result<(), claire::core::ClaireError> {
//! let claire = Claire::new(ClaireOptions::default());
//! // Derive a custom chiplet accelerator for one workload...
//! let custom = claire.custom_for(&zoo::resnet50())?;
//! assert!(custom.config.covers(&zoo::resnet50()));
//!
//! // ...or run the paper's full library-synthesis flow.
//! let out = claire.train(&[zoo::resnet18(), zoo::bert_base()])?;
//! let test = claire.evaluate_test(&out, &[zoo::alexnet()])?;
//! assert_eq!(test.reports[0].coverage, 1.0);
//! # Ok(())
//! # }
//! ```
//!
//! See `DESIGN.md` for the system inventory, `EXPERIMENTS.md` for
//! paper-vs-measured results, and `MODELING.md` for every formula.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub use claire_core as core;
pub use claire_cost as cost;
pub use claire_graph as graph;
pub use claire_model as model;
pub use claire_noc as noc;
pub use claire_ppa as ppa;
pub use claire_sim as sim;
