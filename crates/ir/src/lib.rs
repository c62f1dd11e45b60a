//! # carac-ir
//!
//! The logical query plan of Carac-rs: the `IROp` tree (paper Fig. 4) and
//! its generation from a validated Datalog [`Program`] by partially
//! evaluating the semi-naive evaluation strategy with respect to the
//! program (a Futamura projection, paper §V-B.1).
//!
//! The plan is *logical* in the sense of the paper: it contains both the
//! Datalog-specific control operators (`DoWhile`, `SwapClear`, the two
//! union levels) and the relational `σπ⋈` subqueries, but says nothing about
//! how they execute — that is the job of `carac-exec`, which can interpret
//! the tree or compile any subtree with one of its backends.
//!
//! [`Program`]: carac_datalog::Program

#![forbid(unsafe_code)]

pub mod node;
pub mod plan;
pub mod pretty;
pub mod projection;
pub mod query;
pub mod verify;

pub use node::{IRNode, IROp, NodeId, NodeIdGen, OpKind};
pub use plan::{generate_plan, EvalStrategy};
pub use pretty::{render_plan, render_query};
pub use projection::{ProjectionPlan, SeenKeys};
pub use query::{ConjunctiveQuery, QueryAtom};
pub use verify::{verify_plan, verify_query, verify_subtree, PlanError};
