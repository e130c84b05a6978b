//! # claire-ppa — analytical PPA models and hardware configuration
//!
//! Inputs #2 and #3 of the CLAIRE framework (DATE 2025):
//!
//! * [`tech28`] — the PPA configuration values for the hardware
//!   building blocks (systolic-array PE, activation units, pooling
//!   units, tanh core) at a TSMC-28nm-class node. The paper sources
//!   these from HISIM/NeuroSim synthesis; we substitute documented
//!   constants of the same magnitude (see DESIGN.md — only *relative*
//!   PPA drives every result).
//! * [`HwParams`] / [`DseSpace`] — the tunable hardware parameter file:
//!   systolic-array size, number of arrays, number of activation and
//!   pooling units; the default sweep is the paper's 81 configurations.
//! * [`layer_cost`] / [`unit_area_mm2`] — parameterisable analytical
//!   models that turn layer metadata + hardware parameters into
//!   latency, energy and area for each graph node.
//!
//! # Example
//!
//! ```
//! use claire_model::{Conv2d, LayerKind};
//! use claire_ppa::{layer_cost, HwParams};
//!
//! let hw = HwParams::new(32, 32, 16, 16);
//! let conv = LayerKind::Conv2d(Conv2d {
//!     in_channels: 64, out_channels: 64,
//!     kernel: (3, 3), stride: (1, 1), padding: (1, 1),
//!     ifm: (56, 56), groups: 1,
//! });
//! let cost = layer_cost(&conv, &hw);
//! assert!(cost.cycles > 0 && cost.energy_pj > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod analytical;
mod batch;
mod memory;
mod params;
pub mod scaling;
mod space;
mod systolic;
pub mod tech28;
pub mod thermal;

pub use analytical::{config_area_mm2, layer_cost, layer_cycles, unit_area_mm2, LayerCost};
pub use batch::{BatchSum, LayerBatch};
pub use memory::{layer_weight_bytes, MemoryModel};
pub use params::{DseSpace, DseSpaceError, HwParams, HwParamsError, MAX_POINTS, MAX_THREADS};
pub use scaling::{NodeScaling, TechNode};
pub use space::{space_points, DesignSpace, GridAxis, GridSpace, SpaceAxes};
pub use systolic::{Dataflow, SystolicArrayModel};
pub use thermal::ThermalModel;
