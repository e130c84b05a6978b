//! # claire-core — the CLAIRE analytical framework
//!
//! End-to-end implementation of the pipeline in Fig. 1 of
//! *CLAIRE: Composable Chiplet Libraries for AI Inference* (DATE 2025):
//!
//! 1. **Initial graph construction** (Step #TR1) — [`graphs`]: each
//!    algorithm becomes `G_ini(N, E, w_N, w_E)` over hardware-unit
//!    nodes.
//! 2. **Design space exploration** (Steps #TR2/#TT3, Algorithm 1) —
//!    [`dse`]: sweep the 81 hardware configurations, apply the
//!    constraints, select custom (`C_i`), generic (`C_g`) and
//!    library-synthesized (`C_k`) configurations.
//! 3. **Clustering into chiplets** (Steps #TR3/#TT4) — [`chiplet`]:
//!    Louvain community detection over communication volumes.
//! 4. **Test-set configuration assignment** (Step #TT1) — [`assign`]:
//!    arg-max weighted Jaccard similarity.
//! 5. **Metric evaluation** (Step #TT2) — [`metrics`] and
//!    [`evaluate`]: latency/energy/area/power density, algorithm
//!    coverage `C_layer`, chiplet utilization `U_chiplet`, and
//!    normalised NRE cost.
//!
//! The [`Claire`] façade drives the whole flow:
//!
//! ```
//! use claire_core::Claire;
//! use claire_model::zoo;
//!
//! # fn main() -> Result<(), claire_core::ClaireError> {
//! let claire = Claire::default();
//! // Train on two algorithms (the full 13-model run lives in the
//! // examples and benches).
//! let out = claire.train(&[zoo::resnet18(), zoo::bert_base()])?;
//! assert_eq!(out.customs.len(), 2);
//! assert!(!out.libraries.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod assign;
pub mod chiplet;
mod claire;
mod config;
pub mod dse;
mod error;
pub mod evaluate;
pub mod fault;
pub mod graphs;
pub mod io;
pub mod library;
pub mod metrics;
pub mod parallel;
pub mod place;
pub mod plan;
mod resident;
pub mod search;
mod snapshot;
pub mod telemetry;

pub use assign::WeightScale;
pub use claire::{
    paper_table3_subsets, AlgoPpa, Claire, ClaireOptions, CustomResult, LibraryConfig,
    SubsetStrategy, TestOutput, TestReport, TrainOutput,
};
pub use config::{monolithic_area_mm2, Chiplet, Constraints, DesignConfig};
pub use dse::{Degradation, DseObjective, DsePoint, RelaxStep, RobustnessPolicy};
pub use error::ClaireError;
pub use evaluate::{
    edge_cost_sequence, edge_transfer, route_of, transfer_on_route, CostProvider, DirectCosts,
    EdgeRoute, EvalOptions, PpaReport, RouteTable, TransferCost,
};
pub use fault::{FaultClass, FaultPlan};
pub use io::{ConfigIoError, RunConfig};
pub use library::{ChipletLibrary, Deployment, LibraryEntry};
pub use parallel::{resolve_threads, Engine, EngineStats, UniversalCsr, WorkerPanic, THREADS_ENV};
pub use place::InterposerPlacement;
pub use plan::{plan_portfolio, PortfolioPlan, Product};
pub use resident::{
    CustomRequest, LifecycleEvent, LifecycleStage, ResidentEngine, ServeObserver, WhatIfReport,
};
pub use search::{search_with_engine, SearchPolicy};
pub use snapshot::SNAPSHOT_VERSION;
pub use telemetry::{
    EventRing, QuantileDigest, QuantileSummary, RateSnapshot, RateWindows, Telemetry,
    TelemetryOptions,
};
