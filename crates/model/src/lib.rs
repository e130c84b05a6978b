//! # claire-model — AI workload descriptions for the CLAIRE framework
//!
//! This crate is Input #1 and Input #6 of the CLAIRE analytical framework
//! (DATE 2025): per-layer descriptions of the 13 training-set and 6
//! test-set AI algorithms, plus a parser for PyTorch-style
//! `print(model)` text dumps, which is the ingestion path the paper
//! describes in Step #TR1.
//!
//! The framework consumes only layer *metadata* — layer type, input size
//! (`IFM_x`, `IFM_y`), output size (`OFM_x`, `OFM_y`), channel counts
//! (`N_IFM`, `N_OFM`), kernel size (`K_x`, `K_y`), stride and padding —
//! never weights. [`zoo`] reconstructs that metadata from the published
//! architectures.
//!
//! # Example
//!
//! ```
//! use claire_model::zoo;
//!
//! let resnet = zoo::resnet18();
//! assert_eq!(resnet.name(), "Resnet18");
//! // Table I of the paper lists ResNet-18 at 11.7 M parameters.
//! let m = resnet.param_count() as f64 / 1.0e6;
//! assert!((11.0..12.5).contains(&m), "got {m} M");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod fxhash;
mod layer;
mod model;
mod name;
pub mod parse;
pub mod synth;
pub mod zoo;

pub use fxhash::{FxBuildHasher, FxHasher};
pub use layer::{
    Activation, ActivationKind, Conv1d, Conv2d, Flatten, Layer, LayerKind, Linear, OpClass,
    Permute, Pooling, PoolingKind,
};
pub use model::{Model, ModelBuilder, ModelClass, WeakModel};
pub use name::{LayerName, LayerPath};
