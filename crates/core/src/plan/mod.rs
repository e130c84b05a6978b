//! Flow planning.
//!
//! Two planners live here:
//!
//! - [`flat`] — the **flat execution plan**: enumerate every
//!   `(model, hw-point)` evaluation a run will need as one item set,
//!   feed the whole set through a single [`crate::Engine::par_map`]
//!   for load balance, and replay the per-model/per-subset selection
//!   logic from the resulting table. Every flow runs on it, and its
//!   selections equal the single-subject searches' bit for bit at any
//!   thread count (see MODELING.md, "Flat execution plan").
//! - [`portfolio`](self) — portfolio planning over a hardened chiplet
//!   library ([`plan_portfolio`]): greedy weighted set cover deciding
//!   which library configurations are worth hardening for a product
//!   roadmap.

pub mod flat;
mod portfolio;

pub use flat::{build_eval_table, EvalTable, ModelRow};
pub use portfolio::{plan_portfolio, PortfolioPlan, Product};
