//! # carac-exec
//!
//! The execution engine of Carac-rs: a plan walker, four runtime
//! compilation backends, an asynchronous compilation manager, and the JIT
//! controller that ties them together with the adaptive join-order
//! optimizer (paper §V-B, §V-C).
//!
//! The engine executes the IROp plans produced by `carac-ir`.  Every
//! `σπ⋈` runs on a [`SpecializedQuery`] descriptor or in the bytecode VM.
//! In pure interpretation mode ([`interpreter::interpret`]) the tree is
//! walked directly, each `σπ⋈` node on a descriptor built at its first
//! visit.  In JIT mode ([`JitEngine`]) every subtree at the configured
//! granularity starts cold (walked the same way) and tiers up once it has
//! been seen doing enough work ([`JitConfig::tier_up_work`]): it is
//! re-optimized against live cardinalities and compiled with one of the
//! [`backends`] — synchronously on the caller's thread, or on a background
//! thread (started by the first such request) while the cold walk
//! continues.  Compiled
//! artifacts are discarded again (deoptimization) when the freshness test
//! detects that the cardinalities they were specialized for have drifted.

#![forbid(unsafe_code)]

pub mod backends;
pub mod compile_manager;
pub mod context;
pub mod error;
pub mod incremental;
pub mod interpreter;
pub mod jit;
pub mod kernel;
pub mod parallel;
pub mod stats;
pub mod telemetry;

pub use backends::{
    update_kernel, verify_artifact, Artifact, BackendKind, StagingCostModel, UpdateKernel,
};
pub use compile_manager::CompilationManager;
pub use context::ExecContext;
pub use error::ExecError;
pub use incremental::{Incremental, UpdateBatch, UpdateOp, UpdateReport};
pub use jit::{JitConfig, JitEngine, TIER_UP_WORK};
pub use kernel::SpecializedQuery;
pub use parallel::parallel_map;
pub use stats::{BackendTag, CompileEvent, RunStats, UpdateStats};
pub use telemetry::{
    chrome_trace_json, metrics_json, write_chrome_trace, write_metrics_snapshot, AggregateProfile,
    EventKind, Phase, ProfileTable, RuleProfile, SpanToken, TraceConfig, TraceEvent, Tracer,
};
