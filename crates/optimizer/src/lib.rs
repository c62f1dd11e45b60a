//! # carac-optimizer
//!
//! The adaptive join-order optimizer of Carac-rs (paper §IV).
//!
//! The optimizer is a deliberately lightweight, *estimation-free* component:
//! instead of predicting how relation cardinalities evolve across semi-naive
//! iterations (which is where classical optimizers go wrong on recursive
//! queries), it is designed to be re-run whenever fresh cardinalities are
//! available — ahead of time with whatever facts exist, at query start with
//! the EDB cardinalities, and repeatedly during execution at whichever
//! granularity the JIT chooses.
//!
//! * [`cost`] — the three-input cost model: live cardinality, constant
//!   selectivity factors per bound constraint, and index availability.
//! * [`reorder`] — the greedy (runtime) and stable-sort (ahead-of-time)
//!   ordering algorithms.
//! * [`plan_rewrite`] — applying either algorithm across a plan or subtree.
//! * [`freshness`] — the freshness test that gates expensive recompilation.

#![forbid(unsafe_code)]

pub mod config;
pub mod context;
pub mod cost;
pub mod freshness;
pub mod plan_rewrite;
pub mod reorder;

pub use config::OptimizerConfig;
pub use context::OptimizeContext;
pub use cost::{
    atom_score_with_constraints, constraint_factor, constraint_factor_refined, parallel_speedup,
};
pub use freshness::drifted;
pub use plan_rewrite::optimize_plan;
pub use reorder::{greedy_order, reorder_query, sort_order, ReorderAlgorithm};
