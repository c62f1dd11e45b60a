//! Engine configuration.
//!
//! The configuration space mirrors the axes of the paper's evaluation
//! (§VI): execution mode (pure interpretation, adaptive JIT, ahead-of-time
//! "macro" compilation), backend, blocking vs. asynchronous compilation,
//! compilation granularity, indexed vs. unindexed storage, and the
//! semi-naive vs. naive evaluation strategy.

use carac_exec::{BackendKind, JitConfig, TraceConfig};
use carac_ir::EvalStrategy;
use carac_optimizer::OptimizerConfig;

/// How the engine executes a program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecutionMode {
    /// Pure interpretation of the plan with the atom orders exactly as the
    /// rules were written (the paper's "unoptimized"/"hand-optimized"
    /// baselines, depending on how the input program is formulated).
    Interpreted,
    /// The adaptive JIT: runtime re-optimization plus code generation with
    /// one of the backends.
    Jit(JitConfig),
    /// Ahead-of-time ("macro") optimization: the plan's join orders are
    /// sorted before execution begins, using whatever facts are available at
    /// that point; optionally the online IRGenerator optimization is also
    /// injected.
    AheadOfTime(AotConfig),
}

/// Ahead-of-time optimization configuration (paper §VI-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AotConfig {
    /// Whether the facts known at compile time contribute cardinalities
    /// ("Macro Facts+rules") or only the rule schema is used
    /// ("Macro Rules").
    pub use_fact_cardinalities: bool,
    /// Whether the generated code also reorders online during execution
    /// (the "(online)" variants in Fig. 10), implemented with the
    /// IRGenerator backend.
    pub online_reorder: bool,
    /// Optimizer parameters used for the offline sort.
    pub optimizer: OptimizerConfig,
}

impl Default for AotConfig {
    fn default() -> Self {
        AotConfig {
            use_fact_cardinalities: true,
            online_reorder: true,
            optimizer: OptimizerConfig::ahead_of_time(),
        }
    }
}

/// Complete engine configuration.
///
/// Constructors cover the paper's experiment grid (interpretation, the JIT
/// backends, ahead-of-time optimization); builder methods toggle the
/// orthogonal axes (indexes, evaluation strategy, parallelism):
///
/// ```
/// use carac::EngineConfig;
/// use carac::knobs::{BackendKind, EvalStrategy};
///
/// let jit = EngineConfig::jit(BackendKind::Bytecode, true);
/// assert_eq!(jit.label(), "JIT Bytecode Async");
///
/// let config = EngineConfig::interpreted()
///     .without_indexes()
///     .with_strategy(EvalStrategy::Naive)
///     .with_parallelism(4);
/// assert!(!config.use_indexes);
/// assert_eq!(config.parallelism, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Execution mode.
    pub mode: ExecutionMode,
    /// Whether join-key/filter hash indexes are built (the indexed vs.
    /// unindexed axis of Figures 6–9).
    pub use_indexes: bool,
    /// Evaluation strategy used when generating the plan.
    pub strategy: EvalStrategy,
    /// Worker threads available to the join kernels.  `1` (the default)
    /// evaluates serially; larger values shard each relation's tuple store
    /// and partition rule-body evaluation across a fork-join pool, with
    /// per-shard results merged deterministically before the delta swap —
    /// parallel runs derive exactly the serial fact set.  Works with both
    /// [`EvalStrategy::Naive`] and [`EvalStrategy::SemiNaive`] and with
    /// every execution mode (the bytecode VM itself stays serial; its
    /// interpreted fallbacks parallelize).
    pub parallelism: usize,
    /// Whether the engine runs the static analyzer before planning and
    /// evaluates the pruned program: rules convicted at error level
    /// (unsatisfiable, dead, duplicate, subsumed) are dropped and the
    /// analyzer's column-interval facts feed the cost model as refined
    /// comparison selectivities.  Pruning is semantics-preserving — the
    /// derived fact set is bit-identical with and without it.  One-shot
    /// runs prune against the program's frozen facts (plus any facts
    /// inserted before the run); live (incremental) sessions prune only
    /// update-independent defects so later updates stay sound.  Off by
    /// default.
    pub prune: bool,
    /// Whether artifacts are statically verified before first execution:
    /// generated plans run through `carac_ir::verify_plan` (stratum
    /// ordering, binding safety, arity agreement, loop sanity) and every
    /// JIT-compiled artifact through the backend verifier (for the bytecode
    /// target: jump bounds, def-before-use, cursor discipline, termination).
    /// A failing artifact is rejected with a typed error instead of being
    /// installed.  Defaults to the build's `debug_assertions` setting — on
    /// in debug/CI builds, off in release; [`EngineConfig::with_verify`]
    /// opts release builds in.
    pub verify: bool,
    /// Span tracing.  `None` (the default) disables the tracer — every
    /// instrumentation site then pays a single branch.  `Some(config)`
    /// records begin/end events for run/stratum/iteration/subquery/
    /// aggregate/compile/update-batch/checkpoint/recover phases into a
    /// bounded ring, exported with [`carac_exec::chrome_trace_json`] /
    /// [`carac_exec::metrics_json`].  Per-rule profiles
    /// (`RunStats::rule_profiles`) are always on regardless of this knob.
    pub tracing: Option<TraceConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: ExecutionMode::Jit(JitConfig::default()),
            use_indexes: true,
            strategy: EvalStrategy::SemiNaive,
            parallelism: 1,
            prune: false,
            verify: cfg!(debug_assertions),
            tracing: None,
        }
    }
}

impl EngineConfig {
    /// Pure interpretation with indexes.
    pub fn interpreted() -> Self {
        EngineConfig {
            mode: ExecutionMode::Interpreted,
            ..EngineConfig::default()
        }
    }

    /// Pure interpretation without indexes.
    pub fn interpreted_unindexed() -> Self {
        EngineConfig {
            mode: ExecutionMode::Interpreted,
            use_indexes: false,
            ..EngineConfig::default()
        }
    }

    /// The paper's six JIT configurations: `(backend, async)` with the
    /// default granularity, full compilation.
    pub fn jit(backend: BackendKind, async_compile: bool) -> Self {
        EngineConfig {
            mode: ExecutionMode::Jit(JitConfig::labelled(backend, async_compile)),
            ..EngineConfig::default()
        }
    }

    /// [`EngineConfig::jit`] under the paper's policy: every node is
    /// optimized and compiled at its first visit (`tier_up_work: 0`) instead
    /// of once it has done enough work to repay the compilation.  For
    /// redrawing the paper's figures, and for tests that must push inputs
    /// far below the default threshold through a backend's compiled code.
    pub fn eager_jit(backend: BackendKind, async_compile: bool) -> Self {
        EngineConfig::jit_with(JitConfig {
            tier_up_work: 0,
            ..JitConfig::labelled(backend, async_compile)
        })
    }

    /// A JIT configuration with full control over the JIT knobs.
    pub fn jit_with(config: JitConfig) -> Self {
        EngineConfig {
            mode: ExecutionMode::Jit(config),
            ..EngineConfig::default()
        }
    }

    /// Ahead-of-time ("macro") configuration.
    pub fn ahead_of_time(use_fact_cardinalities: bool, online_reorder: bool) -> Self {
        EngineConfig {
            mode: ExecutionMode::AheadOfTime(AotConfig {
                use_fact_cardinalities,
                online_reorder,
                optimizer: OptimizerConfig::ahead_of_time(),
            }),
            ..EngineConfig::default()
        }
    }

    /// Disables index construction.
    pub fn without_indexes(mut self) -> Self {
        self.use_indexes = false;
        self
    }

    /// Switches the evaluation strategy (semi-naive by default).
    pub fn with_strategy(mut self, strategy: EvalStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the worker-thread budget for the join kernels (see
    /// [`EngineConfig::parallelism`]).  `0` is treated as `1`.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Enables analyzer-driven pruning before planning (see
    /// [`EngineConfig::prune`]).
    pub fn with_prune(mut self) -> Self {
        self.prune = true;
        self
    }

    /// Enables span tracing (see [`EngineConfig::tracing`]).
    pub fn with_tracing(mut self, config: TraceConfig) -> Self {
        self.tracing = Some(config);
        self
    }

    /// Sets whether artifacts are statically verified before first
    /// execution (see [`EngineConfig::verify`]).  Use `with_verify(true)`
    /// to opt a release build in, `with_verify(false)` to silence the
    /// debug-build default in a benchmark.
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Human-readable label matching the paper's legends ("JIT Lambda
    /// Blocking", "Interpreted", "Macro Facts+Rules (online)", ...).
    pub fn label(&self) -> String {
        match &self.mode {
            ExecutionMode::Interpreted => "Interpreted".to_string(),
            ExecutionMode::Jit(jit) => {
                let backend = match jit.backend {
                    BackendKind::Quotes => "Quotes",
                    BackendKind::Bytecode => "Bytecode",
                    BackendKind::Lambda => "Lambda",
                    BackendKind::IrGen => "IRGenerator",
                };
                let sync = if jit.async_compile {
                    "Async"
                } else {
                    "Blocking"
                };
                if jit.backend == BackendKind::IrGen {
                    format!("JIT {backend}")
                } else {
                    format!("JIT {backend} {sync}")
                }
            }
            ExecutionMode::AheadOfTime(aot) => {
                let facts = if aot.use_fact_cardinalities {
                    "Facts+Rules"
                } else {
                    "Rules"
                };
                let online = if aot.online_reorder { " (online)" } else { "" };
                format!("Macro {facts}{online}")
            }
        }
    }
}

/// Re-exported knobs so downstream crates only need `carac` for common use.
pub mod knobs {
    pub use carac_exec::{BackendKind, StagingCostModel, TraceConfig};
    pub use carac_ir::{EvalStrategy, OpKind};
    pub use carac_optimizer::{OptimizerConfig, ReorderAlgorithm};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_papers_legends() {
        assert_eq!(EngineConfig::interpreted().label(), "Interpreted");
        assert_eq!(
            EngineConfig::jit(BackendKind::Lambda, false).label(),
            "JIT Lambda Blocking"
        );
        assert_eq!(
            EngineConfig::jit(BackendKind::Quotes, true).label(),
            "JIT Quotes Async"
        );
        assert_eq!(
            EngineConfig::jit(BackendKind::IrGen, false).label(),
            "JIT IRGenerator"
        );
        assert_eq!(
            EngineConfig::ahead_of_time(true, true).label(),
            "Macro Facts+Rules (online)"
        );
        assert_eq!(
            EngineConfig::ahead_of_time(false, false).label(),
            "Macro Rules"
        );
    }

    #[test]
    fn builders_compose() {
        let config = EngineConfig::jit(BackendKind::Bytecode, true).without_indexes();
        assert!(!config.use_indexes);
        assert_eq!(config.strategy, EvalStrategy::SemiNaive);
        let naive = EngineConfig::interpreted().with_strategy(EvalStrategy::Naive);
        assert_eq!(naive.strategy, EvalStrategy::Naive);
    }

    #[test]
    fn parallelism_defaults_to_serial_and_clamps() {
        assert_eq!(EngineConfig::default().parallelism, 1);
        assert_eq!(
            EngineConfig::interpreted().with_parallelism(8).parallelism,
            8
        );
        assert_eq!(
            EngineConfig::interpreted().with_parallelism(0).parallelism,
            1
        );
        // The knob composes with every mode without changing the label.
        let parallel = EngineConfig::jit(BackendKind::Lambda, false).with_parallelism(4);
        assert_eq!(parallel.label(), "JIT Lambda Blocking");
    }

    #[test]
    fn prune_is_off_by_default_and_composes() {
        assert!(!EngineConfig::default().prune);
        let pruned = EngineConfig::interpreted().with_prune().with_parallelism(2);
        assert!(pruned.prune);
        assert_eq!(pruned.parallelism, 2);
        assert_eq!(pruned.label(), "Interpreted");
    }

    #[test]
    fn verify_follows_debug_assertions_and_composes() {
        assert_eq!(EngineConfig::default().verify, cfg!(debug_assertions));
        let on = EngineConfig::interpreted().with_verify(true).with_prune();
        assert!(on.verify);
        assert!(on.prune);
        let off = EngineConfig::jit(BackendKind::Bytecode, false).with_verify(false);
        assert!(!off.verify);
        assert_eq!(off.label(), "JIT Bytecode Blocking");
    }

    #[test]
    fn tracing_is_off_by_default_and_composes() {
        assert!(EngineConfig::default().tracing.is_none());
        let traced = EngineConfig::interpreted()
            .with_tracing(TraceConfig::default().with_span_capacity(1024))
            .with_parallelism(2);
        assert_eq!(traced.tracing.unwrap().span_capacity, 1024);
        assert_eq!(traced.parallelism, 2);
        assert_eq!(traced.label(), "Interpreted");
    }
}
