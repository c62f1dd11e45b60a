//! The just-in-time optimizing execution engine (paper §V-B).
//!
//! The JIT drives execution by walking the IROp tree from the root, the way
//! the interpreter does ([`crate::interpreter`]).  Every node whose kind
//! matches the configured *compilation granularity* carries a tier state.
//! It starts **cold**: the node is walked on the engine's descriptors of
//! the plan's own join orders (built once per `σπ⋈` node, at its first
//! visit, and kept for the engine's lifetime) and the engine only adds up
//! the work it can see the node doing — the rows its rules read, the tuples
//! it emitted.  Once that total reaches
//! [`JitConfig::tier_up_work`] the node **tiers up** at its next visit: the
//! join orders of its subtree are re-optimized against the live
//! cardinalities, the subtree is compiled with the configured backend —
//! blocking or on the compiler thread — and from then on the node is
//! **hot**: it executes the compiled artifact until the *freshness test*
//! decides the cardinality landscape has shifted enough that the artifact
//! should be thrown away (deoptimization) and rebuilt.
//! A node that already reads enough rows on its first visit is therefore
//! optimized before its first join; a node that never does enough work to
//! repay a compilation never pays for one.
//!
//! Every backend but `Bytecode` compiles to the same artifact: the
//! descriptors of the re-ordered `σπ⋈` leaves ([`Artifact::Plan`]), which
//! the walker runs over the node itself — a hot node swaps in re-planned
//! leaves and keeps its control flow.  `Bytecode` compiles the re-ordered
//! subtree to a VM program.  With `ExecContext::verify` set, the re-ordered
//! subtree is verified before any backend compiles it.
//!
//! While an asynchronous compilation is in flight the node is **pending**:
//! each visit polls the compiler once, at the node boundary, and is
//! otherwise a cold visit of the whole node.
//!
//! Because all state lives in the storage layer, every node boundary is a
//! safe point: switching from a cold walk to a compiled artifact (or back)
//! requires no stack capture.

use std::time::Instant;

use carac_datalog::RuleId;
use carac_ir::{ConjunctiveQuery, IRNode, IROp, NodeId, OpKind};
use carac_optimizer::{drifted, optimize_plan, OptimizeContext, OptimizerConfig, ReorderAlgorithm};
use carac_storage::hasher::FxHashMap;
use carac_storage::{DbKind, RelId, StorageManager};
use carac_vm::{Machine, MarkKind};

use crate::backends::{verify_artifact, Artifact, BackendKind, StagingCostModel};
use crate::compile_manager::{CompilationManager, CompileResult};
use crate::context::ExecContext;
use crate::error::ExecError;
use crate::interpreter::{step, Descriptors, Prebuilt, Walk};
use crate::kernel::SpecializedQuery;
use crate::stats::{CompileEvent, RunStats};
use crate::telemetry::trace::Phase;

/// Default for [`JitConfig::tier_up_work`]: the work (rows read plus tuples
/// emitted) a node must have been seen doing before it is optimized and
/// compiled.
///
/// It is the break-even of one specialization against what the specialized
/// code saves, from `bench_core` numbers (`bench_core/README.md`, seed
/// table; the counts are in the CHANGES.md entry of this policy):
///
/// * cost — on `small_programs` the compile-at-every-visit JIT spent
///   85.0 ms of iteration self time (live-statistics snapshot, subtree
///   clone, reorder) against the interpreter's 25.2 ms, plus 8.6 ms in the
///   backends, over 13.9 k compilations: ≈ 5 µs per specialization;
/// * saving — on `cspa` `exec.ns_per_emitted_tuple.interp −
///   .jit_lambda` is 84 − 60 ns in the same run (20 ns in the seed table):
///   ≈ 20 ns per tuple.
///
/// 5 µs / 20 ns = 250 tuples, rounded to a power of two.  The workloads
/// whose nodes were worth compiling (`cspa`, `csda`, `tc_live`) read
/// hundreds to thousands of rows on their first visit and so still tier up
/// before their first join.
pub const TIER_UP_WORK: u64 = 256;

/// What a `Compile` mark says about the tier transition behind it.
#[derive(Debug, Clone, Copy)]
struct Transition {
    /// Work observed on the node when the compilation was decided: the
    /// running total of a cold node, the rows read at this visit for a
    /// re-specialization.
    work_seen: u64,
    /// First install (`true`) or re-specialization after drift (`false`).
    tier_up: bool,
}

/// Pushes a compile event onto the bounded ring and mirrors it as a
/// zero-width `Compile` span (the real duration travels in `duration_ns`:
/// background compilations overlap interpretation, so their wall-clock
/// interval cannot nest on the coordinator timeline).
fn note_compile(stats: &mut RunStats, event: CompileEvent, transition: Transition) {
    stats.tracer.record_complete(
        Phase::Compile,
        event.node.0,
        &[
            ("duration_ns", event.duration.as_nanos() as u64),
            ("work_seen", transition.work_seen),
            ("tier_up", u64::from(transition.tier_up)),
        ],
    );
    stats.push_compile_event(event);
}

/// Records the optimizer's delta-cardinality estimate for every rule in the
/// (just reordered) subtree, so profiles can report observed-vs-estimated
/// drift.
fn record_delta_estimates(subtree: &IRNode, oc: &OptimizeContext, stats: &mut RunStats) {
    subtree.visit(&mut |n| {
        if let IROp::Spj { query } = &n.op {
            let estimated: u64 = query
                .atoms
                .iter()
                .filter(|atom| atom.db == DbKind::DeltaKnown)
                .map(|atom| oc.cardinality(atom.rel, atom.db) as u64)
                .sum();
            stats.rule_profiles.record_estimate(query.rule, estimated);
        }
    });
}

/// Configuration of the JIT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitConfig {
    /// Compilation target.
    pub backend: BackendKind,
    /// Node kind at which compilation (and re-optimization) is triggered.
    pub granularity: OpKind,
    /// Compile on the background thread (`true`) or block (`false`).
    pub async_compile: bool,
    /// Whether the join-order optimization is applied at all.  Disabling it
    /// isolates the cost/benefit of pure code generation.
    pub enable_reorder: bool,
    /// Which reordering algorithm to use.
    pub reorder_algorithm: ReorderAlgorithm,
    /// Optimizer parameters (selectivity constant, freshness threshold, ...).
    pub optimizer: OptimizerConfig,
    /// Modeled staging cost for the `Quotes` backend.
    pub staging: StagingCostModel,
    /// Work (rows read plus tuples emitted, summed over its visits) a node
    /// must have been seen doing before it is optimized and compiled; below
    /// it the node is walked cold.  Defaults to [`TIER_UP_WORK`].  `0`
    /// compiles every node at its first visit — the paper's policy, which
    /// the figure binaries redraw and the differential suites use to force
    /// tiny programs through every backend.
    pub tier_up_work: u64,
}

impl Default for JitConfig {
    fn default() -> Self {
        JitConfig {
            backend: BackendKind::Lambda,
            granularity: OpKind::UnionAllRules,
            async_compile: false,
            enable_reorder: true,
            reorder_algorithm: ReorderAlgorithm::Greedy,
            optimizer: OptimizerConfig::default(),
            staging: StagingCostModel::default(),
            tier_up_work: TIER_UP_WORK,
        }
    }
}

impl JitConfig {
    /// A convenience constructor matching the paper's experiment labels,
    /// e.g. "JIT Lambda Blocking" or "JIT Quotes Async".
    pub fn labelled(backend: BackendKind, async_compile: bool) -> Self {
        JitConfig {
            backend,
            async_compile,
            ..JitConfig::default()
        }
    }
}

/// Where a node at the compilation granularity stands.
#[derive(Debug)]
enum Tier {
    /// Walked with the engine's cold descriptors.  `work_seen` is the
    /// running total of rows read and tuples emitted over the node's visits
    /// so far.
    Cold { work_seen: u64 },
    /// An asynchronous compilation is in flight; walked cold until the
    /// artifact is picked up at a safe point.
    Pending(Transition),
    /// Runs `artifact`, which was specialized when the cardinality
    /// `landscape` was `baseline`.
    Hot {
        artifact: Artifact,
        baseline: Vec<usize>,
    },
}

/// Per-node JIT state.
#[derive(Debug)]
struct NodeState {
    /// The `(relation, database)` pairs the node's rules scan, collected on
    /// the first visit.  Their cardinalities are the work the node can be
    /// seen reading.
    reads: Vec<(RelId, DbKind)>,
    tier: Tier,
}

impl NodeState {
    fn cold(node: &IRNode) -> Self {
        let mut reads = Vec::new();
        let mut read = |rel, db| {
            if !reads.contains(&(rel, db)) {
                reads.push((rel, db));
            }
        };
        node.visit(&mut |n| match &n.op {
            IROp::Spj { query } => {
                for atom in query.atoms.iter().chain(&query.negated) {
                    read(atom.rel, atom.db);
                }
            }
            IROp::Aggregate { spec } => read(spec.input, DbKind::Derived),
            _ => {}
        });
        NodeState {
            reads,
            tier: Tier::Cold { work_seen: 0 },
        }
    }
}

/// Current cardinality of every pair in `reads`, in order.
fn cardinalities<'a>(
    reads: &'a [(RelId, DbKind)],
    storage: &'a StorageManager,
) -> impl Iterator<Item = usize> + 'a {
    reads.iter().map(|&(rel, db)| storage.cardinality(db, rel))
}

/// What the freshness test compares: the derived and delta-known
/// cardinality of every relation of the program, in relation order — not
/// only of the relations the node reads.  Narrowing it re-specializes less
/// often (`csda`: 24 times instead of 40) but was measured slower there
/// (`run_s.jit_*` +7 %, 10 of 10 pairs): the hand-over between the two
/// orders of its recursive join lies inside the 20 % band, and the
/// re-optimizations triggered by unrelated growth happen to catch it.
fn landscape(storage: &StorageManager) -> impl Iterator<Item = usize> + '_ {
    (0..storage.relation_count()).flat_map(move |i| {
        let rel = RelId(i as u32);
        [DbKind::Derived, DbKind::DeltaKnown].map(|db| storage.cardinality(db, rel))
    })
}

/// The JIT engine: owns the plan and, per node at the compilation
/// granularity, its tier state; plus the (lazily started) background
/// compiler.
#[derive(Debug)]
pub struct JitEngine {
    plan: IRNode,
    tiers: Tiers,
}

/// Everything of the engine that execution mutates, kept apart from the
/// plan so a run borrows the plan instead of cloning it.
#[derive(Debug)]
struct Tiers {
    config: JitConfig,
    manager: CompilationManager,
    nodes: FxHashMap<NodeId, NodeState>,
    /// The descriptor of every `σπ⋈` node the engine has walked — on a cold
    /// or pending visit, or below the granularity — built at its first such
    /// visit and kept for the engine's lifetime: the plan's queries never
    /// change, only the artifacts' reordered copies do.
    descriptors: Descriptors,
    /// The optimizer's view of the run minus live statistics, built at the
    /// first (re)optimization of a run and reused by the later ones.
    frame: Option<OptimizeContext>,
}

impl JitEngine {
    /// Creates a JIT engine for a generated plan.
    pub fn new(plan: IRNode, config: JitConfig) -> Self {
        JitEngine {
            plan,
            tiers: Tiers {
                config,
                manager: CompilationManager::new(),
                nodes: FxHashMap::default(),
                descriptors: Descriptors::default(),
                frame: None,
            },
        }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &IRNode {
        &self.plan
    }

    /// The configuration.
    pub fn config(&self) -> &JitConfig {
        &self.tiers.config
    }

    /// Number of compiled artifacts currently installed (hot nodes).
    pub fn cached_artifacts(&self) -> usize {
        self.tiers
            .nodes
            .values()
            .filter(|state| matches!(state.tier, Tier::Hot { .. }))
            .count()
    }

    /// Runs the plan to completion against `ctx`.  Hot nodes stay hot across
    /// runs of the same engine (subject to the freshness test).
    pub fn run(&mut self, ctx: &mut ExecContext) -> Result<(), ExecError> {
        let started = Instant::now();
        // The frame describes `ctx`, which may differ from run to run.
        self.tiers.frame = None;
        self.tiers.node(&self.plan, ctx)?;
        ctx.stats.total_time += started.elapsed();
        Ok(())
    }

    /// Executes `artifact` in place of interpreting `node`.
    fn run_artifact(
        artifact: &Artifact,
        node: &IRNode,
        ctx: &mut ExecContext,
    ) -> Result<(), ExecError> {
        match artifact {
            // The walker runs the node's control flow; the descriptors were
            // built from the re-ordered copy, whose node ids are the node's.
            Artifact::Plan(descriptors) => Prebuilt(descriptors).node(node, ctx),
            Artifact::Vm(program) => {
                let mut machine = Machine::for_program(program);
                machine.set_collect_marks(ctx.stats.tracer.is_enabled());
                let vm_stats = machine.run(program, &mut ctx.storage)?;
                ctx.stats.tuples_emitted += vm_stats.emitted;
                ctx.stats.tuples_inserted += vm_stats.inserted;
                ctx.stats.probe_scan_rows += vm_stats.probe_scan_rows;
                ctx.stats.projection_skips += vm_stats.projection_skips;
                Self::merge_vm_telemetry(&machine, ctx);
                Ok(())
            }
        }
    }

    /// Folds the bytecode VM's side tallies into `RunStats` after a run and
    /// replays its mark events as tracer spans.  The VM cannot touch
    /// `RunStats` while executing (it only sees the storage manager), so
    /// per-rule profiles and span boundaries travel back as [`Machine`]
    /// side state.
    fn merge_vm_telemetry(machine: &Machine, ctx: &mut ExecContext) {
        // Strata compiled into the program are numbered locally from 0;
        // offset them by the strata already entered so the global numbering
        // stays dense.  Rules compiled below any stratum node inherit the
        // stratum the coordinator is currently in.
        let stratum_base = ctx.stats.strata_entered as u32;
        for (&rule, tally) in machine.rule_tallies() {
            let stratum = if tally.stratum == u32::MAX {
                ctx.stats.current_stratum
            } else {
                stratum_base + tally.stratum
            };
            ctx.stats.subqueries += tally.executions;
            ctx.stats.rule_profiles.merge_rule_tally(
                RuleId(rule),
                stratum,
                tally.executions,
                tally.delta_rows_in,
                tally.emitted,
                tally.inserted,
                tally.time,
            );
        }
        for (&output, tally) in machine.aggregate_tallies() {
            ctx.stats.rule_profiles.merge_aggregate_tally(
                RelId(output),
                tally.executions,
                tally.emitted,
                tally.inserted,
                tally.time,
            );
        }
        ctx.stats.iterations += machine.iterations();
        ctx.stats.strata_entered += machine.strata_entered();
        if machine.strata_entered() > 0 {
            ctx.stats.current_stratum = (ctx.stats.strata_entered - 1) as u32;
        }
        if !ctx.stats.tracer.is_enabled() {
            return;
        }
        let tracer = ctx.stats.tracer.clone();
        let mut stack = Vec::new();
        let mut last_at = None;
        for mark in machine.marks() {
            last_at = Some(mark.at);
            match mark.kind {
                MarkKind::StratumBegin => {
                    stack.push(tracer.begin_at(
                        Phase::Stratum,
                        stratum_base + mark.detail,
                        mark.at,
                    ));
                }
                MarkKind::IterBegin => {
                    stack.push(tracer.begin_at(Phase::Iteration, mark.detail, mark.at));
                }
                MarkKind::RuleBegin => {
                    stack.push(tracer.begin_at(Phase::Subquery, mark.detail, mark.at));
                }
                MarkKind::StratumEnd | MarkKind::IterEnd | MarkKind::RuleEnd => {
                    if let Some(token) = stack.pop() {
                        tracer.end_at(
                            token,
                            mark.at,
                            &[("emitted", mark.emitted), ("inserted", mark.inserted)],
                        );
                    }
                }
            }
        }
        // Marks come out balanced from a completed run; close leftovers
        // defensively so the stream can never be left dangling.
        while let Some(token) = stack.pop() {
            match last_at {
                Some(at) => tracer.end_at(token, at, &[]),
                None => tracer.end(token, &[]),
            }
        }
    }
}

/// The JIT's walk: nodes at the compilation granularity go through their
/// tier, everything else is walked like interpretation does.
impl Walk for Tiers {
    fn node(&mut self, node: &IRNode, ctx: &mut ExecContext) -> Result<(), ExecError> {
        if node.kind() == self.config.granularity {
            self.exec_compilable(node, ctx)
        } else {
            step(self, node, ctx)
        }
    }

    /// A leaf below the granularity runs on the engine's cold descriptor.
    fn descriptor(
        &mut self,
        node: &IRNode,
        query: &ConjunctiveQuery,
        stats: &mut RunStats,
    ) -> Result<&SpecializedQuery, ExecError> {
        self.descriptors.descriptor(node, query, stats)
    }
}

impl Tiers {
    /// Handles a node at the compilation granularity according to its tier:
    /// cold nodes are walked until they have done enough work, hot
    /// nodes run their artifact while it is fresh, and the transitions
    /// between the two (re)optimize and compile.
    fn exec_compilable(&mut self, node: &IRNode, ctx: &mut ExecContext) -> Result<(), ExecError> {
        let state = self
            .nodes
            .entry(node.id)
            .or_insert_with(|| NodeState::cold(node));
        let transition = match &mut state.tier {
            Tier::Cold { work_seen } => {
                *work_seen += cardinalities(&state.reads, &ctx.storage).sum::<usize>() as u64;
                if *work_seen < self.config.tier_up_work {
                    ctx.stats.interpreted_fallbacks += 1;
                    let emitted_before = ctx.stats.tuples_emitted;
                    self.descriptors.node(node, ctx)?;
                    *work_seen += ctx.stats.tuples_emitted - emitted_before;
                    return Ok(());
                }
                Transition {
                    work_seen: *work_seen,
                    tier_up: true,
                }
            }
            Tier::Pending(transition) => {
                let transition = *transition;
                return self.run_pending(node, transition, ctx);
            }
            Tier::Hot { artifact, baseline } => {
                if !drifted(baseline, landscape(&ctx.storage), &self.config.optimizer) {
                    ctx.stats.compiled_executions += 1;
                    return JitEngine::run_artifact(artifact, node, ctx);
                }
                // Deoptimize: the cardinalities this artifact was
                // specialized against shifted too much.
                ctx.stats.deopts += 1;
                Transition {
                    work_seen: cardinalities(&state.reads, &ctx.storage).sum::<usize>() as u64,
                    tier_up: false,
                }
            }
        };
        // Cold (and any stale artifact dropped) until `install` succeeds.
        state.tier = Tier::Cold {
            work_seen: transition.work_seen,
        };
        self.specialize(node, transition, ctx)
    }

    /// (Re)optimizes the subtree of `node` against the live statistics,
    /// verifies it when `ctx.verify` is set, and compiles it — blocking, or
    /// on the compiler thread — the only place a subtree is cloned and the
    /// optimizer's full view of the run is assembled.
    fn specialize(
        &mut self,
        node: &IRNode,
        transition: Transition,
        ctx: &mut ExecContext,
    ) -> Result<(), ExecError> {
        let mut subtree = node.clone();
        if self.config.enable_reorder {
            let oc = self.frame.get_or_insert_with(|| ctx.optimize_frame());
            oc.stats = ctx.live_stats();
            let changed = optimize_plan(
                &mut subtree,
                oc,
                &self.config.optimizer,
                self.config.reorder_algorithm,
            );
            ctx.stats.reorders += changed as u64;
            record_delta_estimates(&subtree, oc, &mut ctx.stats);
        }

        if ctx.verify {
            carac_ir::verify_subtree(&subtree, &ctx.arities).map_err(|err| ExecError::Verify {
                backend: format!("{:?}", self.config.backend),
                reason: err.to_string(),
            })?;
        }

        if self.config.async_compile {
            self.manager.request(
                node.id,
                node.kind(),
                subtree,
                self.config.backend,
                self.config.staging,
            )?;
            self.set_tier(node.id, Tier::Pending(transition));
            return self.run_pending(node, transition, ctx);
        }

        let result = self.manager.compile_blocking(
            node.id,
            node.kind(),
            &subtree,
            self.config.backend,
            &self.config.staging,
        )?;
        self.install(node, result, transition, ctx)
    }

    /// Verifies a finished compilation, makes `node` hot with it and runs
    /// it.  On a verification failure the node stays cold at its threshold,
    /// so a later visit compiles again.
    fn install(
        &mut self,
        node: &IRNode,
        result: CompileResult,
        transition: Transition,
        ctx: &mut ExecContext,
    ) -> Result<(), ExecError> {
        verify_artifact(
            self.config.backend,
            &result.artifact,
            &ctx.arities,
            ctx.verify,
        )?;
        if let Artifact::Plan(descriptors) = &result.artifact {
            ctx.stats.descriptor_builds += descriptors.len() as u64;
        }
        note_compile(&mut ctx.stats, result.event, transition);
        let state = self
            .nodes
            .get_mut(&node.id)
            .ok_or_else(|| ExecError::Internal("compiled a node that was never visited".into()))?;
        let baseline = landscape(&ctx.storage).collect();
        ctx.stats.compiled_executions += 1;
        let ran = JitEngine::run_artifact(&result.artifact, node, ctx);
        state.tier = Tier::Hot {
            artifact: result.artifact,
            baseline,
        };
        ran
    }

    /// A visit of `node` while its asynchronous compilation is in flight:
    /// polls the compiler once, at the node boundary (the safe point), and
    /// installs and runs the artifact if it is ready.  Otherwise the whole
    /// node is walked cold, exactly like a [`Tier::Cold`] visit.
    fn run_pending(
        &mut self,
        node: &IRNode,
        transition: Transition,
        ctx: &mut ExecContext,
    ) -> Result<(), ExecError> {
        if let Some(result) = self.manager.poll(node.id) {
            // Cold again until `install` succeeds, so a failed compilation
            // is retried instead of awaited forever.
            self.set_tier(
                node.id,
                Tier::Cold {
                    work_seen: transition.work_seen,
                },
            );
            return self.install(node, result?, transition, ctx);
        }
        ctx.stats.interpreted_fallbacks += 1;
        self.descriptors.node(node, ctx)
    }

    fn set_tier(&mut self, id: NodeId, tier: Tier) {
        if let Some(state) = self.nodes.get_mut(&id) {
            state.tier = tier;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpreter::interpret;
    use carac_datalog::parser::parse;
    use carac_datalog::Program;
    use carac_ir::{generate_plan, EvalStrategy};
    use std::time::Duration;

    fn tc_program() -> Program {
        parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Edge(1, 2). Edge(2, 3). Edge(3, 4). Edge(4, 5). Edge(5, 1).",
        )
        .unwrap()
    }

    /// Compile at first visit: what the tests of the compile machinery
    /// itself need on five-edge graphs.
    fn eager() -> JitConfig {
        JitConfig {
            tier_up_work: 0,
            ..JitConfig::default()
        }
    }

    fn run_with(config: JitConfig, program: &Program) -> ExecContext {
        let plan = generate_plan(program, EvalStrategy::SemiNaive);
        let mut engine = JitEngine::new(plan, config);
        let mut ctx = ExecContext::prepare(program, true).unwrap();
        engine.run(&mut ctx).unwrap();
        ctx
    }

    #[test]
    fn every_backend_computes_the_same_fixpoint() {
        let program = tc_program();
        let path = program.relation_by_name("Path").unwrap();
        let expected = {
            let ctx = run_with(
                JitConfig {
                    enable_reorder: false,
                    ..eager()
                },
                &program,
            );
            ctx.derived_count(path)
        };
        assert_eq!(expected, 25); // 5-cycle: all pairs reachable.
        for backend in BackendKind::ALL {
            for async_compile in [false, true] {
                let config = JitConfig {
                    backend,
                    async_compile,
                    staging: StagingCostModel::free(),
                    ..eager()
                };
                let ctx = run_with(config, &program);
                assert_eq!(
                    ctx.derived_count(path),
                    expected,
                    "backend {backend:?} async={async_compile} diverged"
                );
            }
        }
    }

    #[test]
    fn blocking_compilation_records_events_and_artifacts() {
        let program = tc_program();
        let plan = generate_plan(&program, EvalStrategy::SemiNaive);
        let mut engine = JitEngine::new(
            plan,
            JitConfig {
                backend: BackendKind::Lambda,
                async_compile: false,
                ..eager()
            },
        );
        let mut ctx = ExecContext::prepare(&program, true).unwrap();
        engine.run(&mut ctx).unwrap();
        assert!(ctx.stats.compilations() > 0);
        assert!(engine.cached_artifacts() > 0);
        assert!(ctx.stats.compiled_executions > 0);
    }

    #[test]
    fn async_compilation_eventually_switches_or_finishes_interpreted() {
        let program = tc_program();
        let config = JitConfig {
            backend: BackendKind::Quotes,
            async_compile: true,
            staging: StagingCostModel {
                cold_extra: Duration::from_millis(5),
                warm_base: Duration::from_millis(1),
                per_node: Duration::ZERO,
            },
            ..eager()
        };
        let ctx = run_with(config, &program);
        let path = program.relation_by_name("Path").unwrap();
        assert_eq!(ctx.derived_count(path), 25);
        // While the quote was compiling the engine kept interpreting.
        assert!(ctx.stats.interpreted_fallbacks > 0 || ctx.stats.compiled_executions > 0);
    }

    #[test]
    fn irgen_backend_reorders_without_separate_compilation() {
        let program = parse(
            "VAlias(v1, v2) :- VaFlow(v0, v2), VaFlow(v3, v1), MAlias(v3, v0).\n\
             VaFlow(x, y) :- Assign(x, y).\n\
             MAlias(x, y) :- Assign(y, x).\n\
             Assign(1, 2). Assign(2, 3). Assign(3, 1). Assign(4, 2).",
        )
        .unwrap();
        let config = JitConfig {
            backend: BackendKind::IrGen,
            ..eager()
        };
        let ctx = run_with(config, &program);
        assert!(ctx.stats.reorders > 0, "the 3-way join should be reordered");
        assert!(ctx
            .stats
            .compile_events
            .iter()
            .all(|e| e.backend == crate::stats::BackendTag::IrGen));
        let valias = program.relation_by_name("VAlias").unwrap();
        // Correctness cross-check against the pure interpreter.
        let plan = generate_plan(&program, EvalStrategy::SemiNaive);
        let mut ref_ctx = ExecContext::prepare(&program, true).unwrap();
        interpret(&plan, &mut ref_ctx).unwrap();
        assert_eq!(ctx.derived_count(valias), ref_ctx.derived_count(valias));
    }

    #[test]
    fn spj_granularity_compiles_every_subquery() {
        let program = tc_program();
        let config = JitConfig {
            granularity: OpKind::Spj,
            staging: StagingCostModel::free(),
            ..eager()
        };
        let ctx = run_with(config, &program);
        let path = program.relation_by_name("Path").unwrap();
        assert_eq!(ctx.derived_count(path), 25);
        assert!(ctx.stats.compilations() >= 2);
    }

    #[test]
    fn program_granularity_compiles_once() {
        let program = tc_program();
        let config = JitConfig {
            granularity: OpKind::Program,
            staging: StagingCostModel::free(),
            ..eager()
        };
        let plan = generate_plan(&program, EvalStrategy::SemiNaive);
        let mut engine = JitEngine::new(plan, config);
        let mut ctx = ExecContext::prepare(&program, true).unwrap();
        engine.run(&mut ctx).unwrap();
        assert_eq!(ctx.stats.compilations(), 1);
        let path = program.relation_by_name("Path").unwrap();
        assert_eq!(ctx.derived_count(path), 25);
    }

    #[test]
    fn freshness_failure_triggers_deoptimization_on_rerun() {
        let program = tc_program();
        let plan = generate_plan(&program, EvalStrategy::SemiNaive);
        let mut engine = JitEngine::new(
            plan,
            JitConfig {
                granularity: OpKind::Program,
                optimizer: OptimizerConfig {
                    freshness_threshold: 0.0,
                    ..OptimizerConfig::default()
                },
                staging: StagingCostModel::free(),
                ..eager()
            },
        );
        let mut ctx = ExecContext::prepare(&program, true).unwrap();
        engine.run(&mut ctx).unwrap();
        assert_eq!(ctx.stats.deopts, 0);
        // Re-running the same engine after the databases changed drastically
        // (they now contain the full closure) trips the freshness test at
        // threshold 0 and the old artifact is discarded.
        let mut ctx2 = ExecContext::prepare(&program, true).unwrap();
        // Mutate ctx2's Edge relation so cardinalities differ from the
        // snapshot recorded during the first run.
        let edge = program.relation_by_name("Edge").unwrap();
        ctx2.insert_fact(edge, carac_storage::Tuple::pair(10, 11))
            .unwrap();
        engine.run(&mut ctx2).unwrap();
        assert!(ctx2.stats.deopts >= 1);
    }

    /// Compile marks of a traced run: `(node, work_seen, tier_up)`.
    fn compile_marks(ctx: &ExecContext) -> Vec<(u32, u64, u64)> {
        let counter = |event: &crate::telemetry::TraceEvent, name: &str| {
            let found = event.counters.iter().find(|(key, _)| *key == name);
            found
                .unwrap_or_else(|| panic!("compile mark without `{name}`"))
                .1
        };
        ctx.stats
            .tracer
            .events()
            .iter()
            .filter(|e| e.phase == Phase::Compile && e.kind == crate::telemetry::EventKind::End)
            .map(|e| (e.detail, counter(e, "work_seen"), counter(e, "tier_up")))
            .collect()
    }

    /// A chain `0 → 1 → … → n`.
    fn chain_program(edges: u32) -> Program {
        let mut source = String::from(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n",
        );
        for i in 0..edges {
            source.push_str(&format!("Edge({i}, {}). ", i + 1));
        }
        parse(&source).unwrap()
    }

    #[test]
    fn a_program_below_the_threshold_is_never_compiled() {
        let program = tc_program();
        let plan = generate_plan(&program, EvalStrategy::SemiNaive);
        let mut engine = JitEngine::new(plan, JitConfig::default());
        let mut ctx = ExecContext::prepare(&program, true).unwrap();
        engine.run(&mut ctx).unwrap();
        let path = program.relation_by_name("Path").unwrap();
        assert_eq!(ctx.derived_count(path), 25);
        assert_eq!(ctx.stats.compilations(), 0);
        assert_eq!(ctx.stats.reorders, 0);
        assert_eq!(ctx.stats.compiled_executions, 0);
        assert!(ctx.stats.interpreted_fallbacks > 0);
        assert_eq!(engine.cached_artifacts(), 0);
    }

    #[test]
    fn a_cold_node_is_described_once_per_engine() {
        let program = tc_program();
        let plan = generate_plan(&program, EvalStrategy::SemiNaive);
        let spj_nodes = plan.spj_queries().len() as u64;
        let mut engine = JitEngine::new(plan, JitConfig::default());
        let mut ctx = ExecContext::prepare(&program, true).unwrap();
        engine.run(&mut ctx).unwrap();
        // Every node stayed cold and was visited once per iteration, yet
        // each σπ⋈ node was described once.
        assert_eq!(ctx.stats.compilations(), 0);
        assert!(ctx.stats.interpreted_fallbacks > 2);
        assert_eq!(ctx.stats.descriptor_builds, spj_nodes);
        // A second run of the same engine reuses them.
        let mut again = ExecContext::prepare(&program, true).unwrap();
        engine.run(&mut again).unwrap();
        assert!(again.stats.interpreted_fallbacks > 2);
        assert_eq!(again.stats.descriptor_builds, 0);
        let path = program.relation_by_name("Path").unwrap();
        assert_eq!(again.derived_count(path), ctx.derived_count(path));
    }

    #[test]
    fn a_descriptor_artifact_is_described_when_installed() {
        let program = tc_program();
        let plan = generate_plan(&program, EvalStrategy::SemiNaive);
        let spj_nodes = plan.spj_queries().len() as u64;
        for backend in [BackendKind::Lambda, BackendKind::Quotes, BackendKind::IrGen] {
            let config = JitConfig {
                backend,
                granularity: OpKind::Program,
                staging: StagingCostModel::free(),
                ..eager()
            };
            let ctx = run_with(config, &program);
            assert_eq!(ctx.stats.compilations(), 1, "{backend:?}");
            assert_eq!(ctx.stats.interpreted_fallbacks, 0, "{backend:?}");
            assert_eq!(ctx.stats.descriptor_builds, spj_nodes, "{backend:?}");
            assert!(ctx
                .stats
                .compile_events
                .iter()
                .all(|e| e.backend == backend.tag()));
            let path = program.relation_by_name("Path").unwrap();
            assert_eq!(ctx.derived_count(path), 25, "{backend:?}");
        }
    }

    /// A 30-edge chain derives 465 `Path` facts in 30 iterations at every
    /// granularity, whether the compilations block or run on the compiler
    /// thread.  The first compilation's staging cost outlasts the run, so
    /// asynchronous visits are pending ones: each must run the node's own
    /// operator (loop, stratum bookkeeping), not only its children.
    #[test]
    fn every_granularity_computes_the_fixpoint_blocking_and_async() {
        let program = chain_program(30);
        let path = program.relation_by_name("Path").unwrap();
        let staging = StagingCostModel {
            cold_extra: Duration::from_millis(30),
            warm_base: Duration::from_millis(5),
            per_node: Duration::ZERO,
        };
        for granularity in [
            OpKind::Program,
            OpKind::Stratum,
            OpKind::DoWhile,
            OpKind::Sequence,
            OpKind::SwapClear,
            OpKind::UnionAllRules,
            OpKind::UnionRule,
            OpKind::Spj,
            OpKind::Aggregate,
        ] {
            let run = |async_compile| {
                run_with(
                    JitConfig {
                        backend: BackendKind::Quotes,
                        granularity,
                        async_compile,
                        staging,
                        ..eager()
                    },
                    &program,
                )
            };
            let blocking = run(false);
            let pending = run(true);
            for (ctx, mode) in [(&blocking, "blocking"), (&pending, "async")] {
                assert_eq!(ctx.derived_count(path), 465, "{granularity:?} {mode}");
                assert_eq!(ctx.stats.iterations, 30, "{granularity:?} {mode}");
            }
            assert_eq!(
                pending.stats.strata_entered, blocking.stats.strata_entered,
                "{granularity:?}"
            );
        }
    }

    #[test]
    fn blocking_runs_never_start_the_compiler_thread() {
        let program = tc_program();
        for backend in BackendKind::ALL {
            let plan = generate_plan(&program, EvalStrategy::SemiNaive);
            let mut engine = JitEngine::new(
                plan,
                JitConfig {
                    backend,
                    staging: StagingCostModel::free(),
                    ..eager()
                },
            );
            let mut ctx = ExecContext::prepare(&program, true).unwrap();
            engine.run(&mut ctx).unwrap();
            assert!(ctx.stats.compilations() > 0);
            assert!(
                !engine.tiers.manager.worker_started(),
                "{backend:?} blocking compiled on a thread"
            );
        }
        let plan = generate_plan(&program, EvalStrategy::SemiNaive);
        let mut engine = JitEngine::new(
            plan,
            JitConfig {
                async_compile: true,
                ..eager()
            },
        );
        let mut ctx = ExecContext::prepare(&program, true).unwrap();
        engine.run(&mut ctx).unwrap();
        assert!(engine.tiers.manager.worker_started());
    }

    #[test]
    fn a_node_that_reads_enough_rows_compiles_on_its_first_visit() {
        // Every node reads the 300 `Assign` rows (or relations copied from
        // them) on its first visit, so the default policy and
        // compile-at-first-visit make the same decisions.
        let mut source = String::from(
            "VAlias(v1, v2) :- VaFlow(v0, v2), VaFlow(v3, v1), MAlias(v3, v0).\n\
             VaFlow(x, y) :- Assign(x, y).\n\
             MAlias(x, y) :- Assign(y, x).\n",
        );
        for i in 0..300u32 {
            source.push_str(&format!("Assign({}, {}). ", i % 40, i / 3));
        }
        let program = parse(&source).unwrap();
        let adaptive = run_with(JitConfig::default(), &program);
        let eager = run_with(eager(), &program);
        assert_eq!(adaptive.stats.interpreted_fallbacks, 0);
        assert!(adaptive.stats.reorders > 0, "the 3-way join is reordered");
        assert_eq!(adaptive.stats.reorders, eager.stats.reorders);
        assert_eq!(adaptive.stats.compilations(), eager.stats.compilations());
        assert_eq!(adaptive.stats.tuples_emitted, eager.stats.tuples_emitted);
        let valias = program.relation_by_name("VAlias").unwrap();
        assert_eq!(adaptive.derived_count(valias), eager.derived_count(valias));
    }

    #[test]
    fn a_growing_node_tiers_up_once_at_an_iteration_boundary() {
        let program = chain_program(40);
        let plan = generate_plan(&program, EvalStrategy::SemiNaive);
        let mut engine = JitEngine::new(plan, JitConfig::default());
        let mut ctx = ExecContext::prepare(&program, true).unwrap();
        ctx.stats.tracer = crate::telemetry::Tracer::new(crate::telemetry::TraceConfig::default());
        engine.run(&mut ctx).unwrap();
        let path = program.relation_by_name("Path").unwrap();
        assert_eq!(ctx.derived_count(path), 40 * 41 / 2);

        // The initial pass (40 rows read, once) stays cold; the loop body
        // is interpreted for its first iterations, then compiled.
        let marks = compile_marks(&ctx);
        let tier_ups: Vec<_> = marks.iter().filter(|m| m.2 == 1).collect();
        assert_eq!(tier_ups.len(), 1, "marks: {marks:?}");
        let (hot_node, work_seen, _) = *tier_ups[0];
        assert!(work_seen >= TIER_UP_WORK);
        assert!(
            ctx.stats.interpreted_fallbacks >= 3,
            "the loop body ran interpreted before it tiered up"
        );
        // Every later compilation is a re-specialization of that node after
        // a deoptimization.
        assert!(marks.iter().all(|m| m.0 == hot_node));
        assert_eq!(marks.len() as u64, 1 + ctx.stats.deopts);
        assert_eq!(ctx.stats.compilations() as u64, 1 + ctx.stats.deopts);
        assert_eq!(
            ctx.stats.compiled_executions + ctx.stats.interpreted_fallbacks,
            // One visit of the initial pass plus one per iteration.
            1 + ctx.stats.iterations
        );
    }

    #[test]
    fn hot_nodes_stay_hot_across_runs_of_one_engine() {
        let program = chain_program(300);
        let plan = generate_plan(&program, EvalStrategy::SemiNaive);
        let mut engine = JitEngine::new(plan, JitConfig::default());
        let mut first = ExecContext::prepare(&program, true).unwrap();
        engine.run(&mut first).unwrap();
        assert_eq!(first.stats.interpreted_fallbacks, 0);
        let hot = engine.cached_artifacts();
        assert_eq!(hot, 2, "initial pass and loop body");

        // The same inputs again.  The artifacts were last specialized for
        // the end of the first run, so the nodes re-specialize — but they
        // are never interpreted and nothing is a first install.
        let mut second = ExecContext::prepare(&program, true).unwrap();
        second.stats.tracer =
            crate::telemetry::Tracer::new(crate::telemetry::TraceConfig::default());
        engine.run(&mut second).unwrap();
        assert_eq!(second.stats.interpreted_fallbacks, 0);
        assert_eq!(engine.cached_artifacts(), hot);
        assert!(compile_marks(&second).iter().all(|m| m.2 == 0));
        assert_eq!(second.stats.compilations() as u64, second.stats.deopts);
        let path = program.relation_by_name("Path").unwrap();
        assert_eq!(second.derived_count(path), first.derived_count(path));
    }
}
