//! The Carac engine facade.

use std::sync::Arc;
use std::time::Instant;

use carac_datalog::hasher::{FxHashMap, FxHashSet};
use carac_datalog::magic::{is_magic_name, magic_rewrite, QueryBinding};
use carac_datalog::{analyze_with, prune_with, Analysis, AnalysisOptions, Program};
use carac_exec::{
    interpreter, BackendKind, ExecContext, ExecError, Incremental, JitConfig, JitEngine, Phase,
    RunStats, Tracer, UpdateBatch, UpdateKernel, UpdateReport,
};
use carac_ir::{generate_plan, IRNode};
use carac_optimizer::ReorderAlgorithm;
use carac_storage::{RelId, Tuple, Value};

use crate::aot::prepare_plan;
use crate::config::{EngineConfig, ExecutionMode};
use crate::error::CaracError;
use crate::explain::{self, DerivationTree};
use crate::result::{QueryAnswer, QueryResult};

/// Keeps only the tuples matching every bound position of `pattern`.
fn filter_pattern(tuples: Vec<Tuple>, pattern: &[QueryBinding]) -> Vec<Tuple> {
    tuples
        .into_iter()
        .filter(|t| {
            t.values()
                .iter()
                .zip(pattern)
                .all(|(&v, binding)| binding.matches(v))
        })
        .collect()
}

/// A live evaluated session: the fixpoint context plus the incremental
/// maintenance machinery keeping it current under update batches.
#[derive(Debug)]
pub(crate) struct LiveSession {
    pub(crate) ctx: ExecContext,
    pub(crate) incremental: Incremental,
}

/// The user-facing engine: a validated [`Program`] plus an
/// [`EngineConfig`], with facts optionally added incrementally before the
/// run (paper §V-A: "Carac facts and rules can be defined at compile-time or
/// incrementally added at runtime").
///
/// ```
/// use carac::{Carac, EngineConfig};
/// use carac_datalog::parser::parse;
///
/// let program = parse(
///     "Path(x, y) :- Edge(x, y).\n\
///      Path(x, y) :- Edge(x, z), Path(z, y).\n\
///      Edge(1, 2). Edge(2, 3).",
/// ).unwrap();
/// let result = Carac::new(program).run().unwrap();
/// assert_eq!(result.count("Path").unwrap(), 3);
/// ```
///
/// On top of the one-shot [`Carac::run`], the engine supports a **live
/// session**: evaluate once, then keep the fixpoint current under streams
/// of EDB insertions *and* deletions with [`Carac::apply_update`] — the
/// epoch-ordered witness check (retract only what lost its well-founded
/// support) for every positive stratum, no full recomputation:
///
/// ```
/// use carac::{Carac, EngineConfig, UpdateBatch};
/// use carac_datalog::parser::parse;
/// use carac_storage::Tuple;
///
/// let program = parse(
///     "Path(x, y) :- Edge(x, y).\n\
///      Path(x, y) :- Edge(x, z), Path(z, y).\n\
///      Edge(1, 2). Edge(2, 3).",
/// ).unwrap();
/// let mut engine = Carac::new(program).with_config(EngineConfig::interpreted());
/// let edge = engine.program().relation_by_name("Edge").unwrap();
///
/// let mut batch = UpdateBatch::new();
/// batch.insert(edge, Tuple::pair(3, 4));   // a new edge arrives ...
/// batch.retract(edge, Tuple::pair(1, 2));  // ... and an old one goes away
/// let report = engine.apply_update(batch).unwrap();
/// assert_eq!(report.stats.edb_inserted, 1);
/// assert_eq!(report.stats.edb_retracted, 1);
/// // 2->3->4 remains: paths (2,3), (3,4), (2,4).
/// assert_eq!(engine.live_count("Path").unwrap(), 3);
/// ```
#[derive(Debug)]
pub struct Carac {
    /// Shared with every [`QueryResult`] this engine returns, so a run
    /// never copies the program.
    program: Arc<Program>,
    config: EngineConfig,
    pub(crate) extra_facts: Vec<(RelId, Tuple)>,
    pub(crate) live: Option<LiveSession>,
    /// Write-ahead update journal attached with [`Carac::journal_to`] (or by
    /// recovery): every applied batch is appended — and fsync'd — *before*
    /// the in-memory state changes.  Detached whenever the live session it
    /// describes is discarded; see `persist.rs` for the full protocol.
    pub(crate) journal: Option<carac_storage::JournalWriter>,
}

impl Carac {
    /// Creates an engine with the default configuration (adaptive JIT with
    /// the lambda backend, indexes enabled).
    pub fn new(program: Program) -> Self {
        Carac {
            program: Arc::new(program),
            config: EngineConfig::default(),
            extra_facts: Vec::new(),
            live: None,
            journal: None,
        }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self.discard_session();
        self
    }

    /// The current configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Adds a ground fact of integer constants to `relation` before the run.
    /// Any live session is discarded (the base fact set changed).
    pub fn add_fact_ints(&mut self, relation: &str, values: &[u32]) -> Result<(), CaracError> {
        let rel = self.program.relation_by_name(relation)?;
        self.extra_facts.push((
            rel,
            Tuple::new(values.iter().copied().map(Value::int).collect()),
        ));
        self.discard_session();
        Ok(())
    }

    /// Adds many binary integer facts at once (the common shape for graph
    /// workloads).
    pub fn add_edge_facts(
        &mut self,
        relation: &str,
        edges: &[(u32, u32)],
    ) -> Result<(), CaracError> {
        let rel = self.program.relation_by_name(relation)?;
        self.extra_facts
            .extend(edges.iter().map(|&(a, b)| (rel, Tuple::pair(a, b))));
        self.discard_session();
        Ok(())
    }

    /// Adds a pre-built tuple to `relation`.
    pub fn add_fact_tuple(&mut self, relation: &str, tuple: Tuple) -> Result<(), CaracError> {
        let rel = self.program.relation_by_name(relation)?;
        self.extra_facts.push((rel, tuple));
        self.discard_session();
        Ok(())
    }

    /// Number of facts added on top of the program's own facts.
    pub fn extra_fact_count(&self) -> usize {
        self.extra_facts.len()
    }

    /// Runs the program to completion and returns the result.
    ///
    /// Each call starts from a fresh database built from the program facts
    /// plus any facts added with the `add_*` methods, so the engine can be
    /// reused for repeated measurements.
    ///
    /// ```
    /// use carac::{Carac, EngineConfig};
    /// use carac_datalog::parser::parse;
    ///
    /// let program = parse(
    ///     "Path(x, y) :- Edge(x, y).\n\
    ///      Path(x, y) :- Edge(x, z), Path(z, y).\n\
    ///      Edge(1, 2). Edge(2, 3).",
    /// ).unwrap();
    /// // Serial and 4-thread parallel evaluation derive the same fixpoint.
    /// let serial = Carac::new(program.clone())
    ///     .with_config(EngineConfig::interpreted())
    ///     .run().unwrap();
    /// let parallel = Carac::new(program)
    ///     .with_config(EngineConfig::interpreted().with_parallelism(4))
    ///     .run().unwrap();
    /// assert_eq!(serial.count("Path").unwrap(), parallel.count("Path").unwrap());
    /// ```
    pub fn run(&self) -> Result<QueryResult, CaracError> {
        let ctx = self.run_context()?;
        Ok(QueryResult::new(Arc::clone(&self.program), ctx))
    }

    /// Evaluates a single **goal-directed query** against the program: each
    /// argument of `relation` is either [`QueryBinding::Bound`] to a
    /// constant or [`QueryBinding::Free`].  Instead of computing the full
    /// fixpoint and filtering, the engine rewrites the program around the
    /// bound arguments with the magic-set transformation
    /// ([`carac_datalog::magic::magic_rewrite`]) so only *demanded* facts
    /// are derived — a point query on a large transitive closure touches a
    /// small cone of the graph, not the whole closure.  The answers are
    /// bit-identical to filtering [`Carac::run`]'s fixpoint on the bound
    /// constants (differentially tested across every engine).
    ///
    /// Goals that cannot soundly be demand-restricted (negated or
    /// aggregated relations, goals carrying asserted facts, or an all-free
    /// pattern) fall back to full evaluation; the fallback is reported on
    /// [`QueryAnswer::fallback`] and the result's `stats().magic_fallback`.
    ///
    /// ```
    /// use carac::{Carac, QueryBinding};
    /// use carac_datalog::parser::parse;
    ///
    /// let program = parse(
    ///     "Path(x, y) :- Edge(x, y).\n\
    ///      Path(x, y) :- Path(x, z), Edge(z, y).\n\
    ///      Edge(1, 2). Edge(2, 3). Edge(5, 6).",
    /// ).unwrap();
    /// let engine = Carac::new(program);
    /// // Everything reachable from 1 — without deriving paths from 5.
    /// let answer = engine
    ///     .query("Path", &[QueryBinding::bound_int(1), QueryBinding::Free])
    ///     .unwrap();
    /// assert_eq!(answer.count(), 2);
    /// assert!(!answer.fallback());
    /// ```
    pub fn query(
        &self,
        relation: &str,
        pattern: &[QueryBinding],
    ) -> Result<QueryAnswer, CaracError> {
        let rel = self.program.relation_by_name(relation)?;
        let decl = self.program.relation(rel);
        if pattern.len() != decl.arity {
            return Err(carac_datalog::DatalogError::ArityMismatch {
                relation: decl.name.clone(),
                expected: decl.arity,
                actual: pattern.len(),
            }
            .into());
        }
        // Extensional relations need no evaluation at all: load the facts
        // and filter.
        if decl.is_edb {
            let mut ctx = ExecContext::prepare(&self.program, self.config.use_indexes)?;
            for (r, tuple) in &self.extra_facts {
                ctx.storage.insert_fact_row(*r, tuple.values())?;
            }
            let tuples = filter_pattern(ctx.derived_tuples(rel), pattern);
            let derived_facts = ctx.storage.total_derived();
            return Ok(QueryAnswer::new(
                tuples,
                ctx.stats,
                false,
                derived_facts,
                decl.name.clone(),
            ));
        }
        let extra_rels: Vec<RelId> = self.extra_facts.iter().map(|&(r, _)| r).collect();
        let rewritten = magic_rewrite(&self.program, rel, pattern, &extra_rels)?;
        let mut ctx = self.run_context_for(&rewritten.program, &rewritten.magic_relations)?;
        ctx.stats.magic_fallback = rewritten.fallback;
        let answer_rel = rewritten
            .program
            .relation_by_name(&rewritten.answer_relation)?;
        // Recursive demand can seed the goal's magic set with more than the
        // query constants, so the adorned relation may hold answers for
        // other demanded bindings too — the pattern filter trims it to
        // exactly the query's answers.
        let tuples = filter_pattern(ctx.derived_tuples(answer_rel), pattern);
        let derived_facts = ctx.storage.total_derived();
        Ok(QueryAnswer::new(
            tuples,
            ctx.stats,
            rewritten.fallback,
            derived_facts,
            rewritten.answer_relation,
        ))
    }

    /// Explains **why** a derived fact holds: returns a minimal-depth
    /// [`DerivationTree`] of rule instantiations (and aggregate folds)
    /// bottoming out at extensional / asserted base facts.
    ///
    /// The walk is goal-directed: the engine evaluates the program rewritten
    /// by the magic-set transformation for the fully bound fact, so the
    /// backward search runs over the *demanded cone* — typically far smaller
    /// than the full fixpoint.  Goals that cannot soundly be
    /// demand-restricted (aggregated or negated relations, fact-bearing
    /// heads) fall back to searching the full fixpoint; the answer is the
    /// same either way.
    ///
    /// Errors with [`CaracError::Explain`] when the fact is not derivable.
    ///
    /// ```
    /// use carac::Carac;
    /// use carac_datalog::parser::parse;
    ///
    /// let program = parse(
    ///     "Path(x, y) :- Edge(x, y).\n\
    ///      Path(x, y) :- Edge(x, z), Path(z, y).\n\
    ///      Edge(1, 2). Edge(2, 3).",
    /// ).unwrap();
    /// let engine = Carac::new(program);
    /// let tree = engine.explain("Path", &[1, 3]).unwrap();
    /// assert_eq!(tree.root().relation, "Path");
    /// assert!(tree.leaves().all(|leaf| leaf.relation == "Edge"));
    /// assert!(engine.explain("Path", &[3, 1]).is_err());
    /// ```
    pub fn explain(&self, relation: &str, values: &[u32]) -> Result<DerivationTree, CaracError> {
        self.explain_tuple(
            relation,
            Tuple::new(values.iter().copied().map(Value::int).collect()),
        )
    }

    /// [`Carac::explain`] over a pre-built tuple (for interned symbols or
    /// tuples taken from a result).
    pub fn explain_tuple(
        &self,
        relation: &str,
        tuple: Tuple,
    ) -> Result<DerivationTree, CaracError> {
        let rel = self.program.relation_by_name(relation)?;
        let decl = self.program.relation(rel);
        if tuple.values().len() != decl.arity {
            return Err(carac_datalog::DatalogError::ArityMismatch {
                relation: decl.name.clone(),
                expected: decl.arity,
                actual: tuple.values().len(),
            }
            .into());
        }
        // Restrict the search to the demanded cone of the fully bound goal.
        // EDB goals take the fallback branch inside the rewrite (extensional
        // relations are never demand-restricted) and resolve to leaves.
        let pattern: Vec<QueryBinding> = tuple
            .values()
            .iter()
            .map(|&v| QueryBinding::Bound(v))
            .collect();
        let extra_rels: Vec<RelId> = self.extra_facts.iter().map(|&(r, _)| r).collect();
        let rewritten = magic_rewrite(&self.program, rel, &pattern, &extra_rels)?;
        let ctx = self.run_context_for(&rewritten.program, &rewritten.magic_relations)?;

        // Collapse the evaluated relations back onto the original program's
        // ids: an original relation's cone is its own facts plus every
        // adorned variant's.
        let mut cone: FxHashMap<RelId, FxHashSet<Tuple>> = FxHashMap::default();
        for evaluated in rewritten.program.relations() {
            if is_magic_name(&evaluated.name) {
                continue;
            }
            let original = rewritten
                .adorned_map
                .iter()
                .find(|(adorned, _)| *adorned == evaluated.name)
                .map_or(evaluated.name.as_str(), |(_, original)| original.as_str());
            let Ok(orig_rel) = self.program.relation_by_name(original) else {
                continue;
            };
            cone.entry(orig_rel)
                .or_default()
                .extend(ctx.derived_tuples(evaluated.id));
        }

        let mut base_facts: Vec<(RelId, Tuple)> = self.program.facts().to_vec();
        base_facts.extend(self.extra_facts.iter().cloned());
        explain::build_tree(&self.program, &cone, &base_facts, rel, &tuple)
    }

    /// The analyzer options matching this engine instance: relations that
    /// received facts through the `add_*` methods are treated as non-empty
    /// even though the facts live outside `program.facts()`.
    fn analysis_options(&self, assume_edb_nonempty: bool) -> AnalysisOptions {
        AnalysisOptions {
            assume_edb_nonempty,
            extra_nonempty: self.extra_facts.iter().map(|&(r, _)| r).collect(),
        }
    }

    /// Runs the static analyzer over the program: abstract interpretation of
    /// every rule body (constant propagation plus interval analysis over the
    /// comparison constraints) and emptiness/reachability dataflow over the
    /// dependency graph.  Returns machine-readable diagnostics —
    /// unsatisfiable, dead, duplicate and subsumed rules at error level;
    /// unused relations, singleton variables and statically-decided
    /// comparisons as warnings — without modifying the program.
    ///
    /// The analysis treats the fact set as *frozen* (the program's facts
    /// plus anything added with the `add_*` methods), matching what a
    /// [`Carac::run`] call would evaluate.
    ///
    /// ```
    /// use carac::Carac;
    /// use carac_datalog::parser::parse;
    ///
    /// let program = parse(
    ///     "Path(x, y) :- Edge(x, y), x < 3, x > 7.\n\
    ///      Path(x, y) :- Edge(x, y).\n\
    ///      Edge(1, 2).",
    /// ).unwrap();
    /// let analysis = Carac::new(program).analyze();
    /// assert_eq!(analysis.error_count(), 1); // the contradiction
    /// ```
    pub fn analyze(&self) -> Analysis {
        analyze_with(&self.program, &self.analysis_options(false))
    }

    /// Runs the program to completion and returns the raw execution context
    /// (the shared engine body behind [`Carac::run`] and the live session).
    ///
    /// With [`EngineConfig::prune`] set, the analyzer runs first and the
    /// engine evaluates the pruned program (declarations kept, error-level
    /// rules dropped) with the analyzer's column-interval facts installed as
    /// optimizer hints.  The derived fact set is identical either way.
    fn run_context(&self) -> Result<ExecContext, CaracError> {
        if !self.config.prune {
            return self.run_context_for(&self.program, &[]);
        }
        let pruned = prune_with(&self.program, &self.analysis_options(false), true);
        self.run_context_hinted(&pruned.program, &[], pruned.analysis.interval_hints)
    }

    /// [`Carac::run_context`] over an explicit program: the goal-directed
    /// query path evaluates a magic-rewritten variant of `self.program`
    /// through the same engine configuration.  `program` must declare the
    /// engine's relations with their original ids (the rewrite preserves
    /// them), so the registered extra facts stay valid.  `magic` names the
    /// rewrite's demand-guard predicates — installed explicitly on the
    /// context (the optimizer scores them as high-selectivity) rather than
    /// inferred from relation names, so ordinary programs whose relations
    /// happen to share the reserved prefix are never mis-scored.
    fn run_context_for(
        &self,
        program: &Program,
        magic: &[String],
    ) -> Result<ExecContext, CaracError> {
        self.run_context_hinted(program, magic, FxHashMap::default())
    }

    /// [`Carac::run_context_for`] with column-interval facts from the static
    /// analyzer installed before evaluation begins, so every reordering the
    /// run performs sees the refined comparison selectivities.
    fn run_context_hinted(
        &self,
        program: &Program,
        magic: &[String],
        interval_hints: FxHashMap<(RelId, usize), (u32, u32)>,
    ) -> Result<ExecContext, CaracError> {
        let mut ctx = ExecContext::prepare(program, self.config.use_indexes)?;
        if !interval_hints.is_empty() {
            ctx.set_interval_hints(interval_hints);
        }
        if !magic.is_empty() {
            let rels = magic
                .iter()
                .map(|name| program.relation_by_name(name))
                .collect::<Result<_, _>>()?;
            ctx.set_magic_relations(rels);
        }
        ctx.set_parallelism(self.config.parallelism)?;
        ctx.set_verify(self.config.verify);
        for (rel, tuple) in &self.extra_facts {
            ctx.storage.insert_fact_row(*rel, tuple.values())?;
        }
        if let Some(trace) = self.config.tracing {
            ctx.stats.tracer = Tracer::new(trace);
            ctx.stats.compile_event_capacity = trace.compile_event_capacity;
        }

        let run_token = ctx.stats.tracer.begin(Phase::Run, 0);
        let run_result: Result<(), CaracError> = (|| {
            match &self.config.mode {
                ExecutionMode::Interpreted => {
                    let plan = generate_plan(program, self.config.strategy);
                    self.verify_generated_plan(&plan, program)?;
                    let started = Instant::now();
                    interpreter::interpret(&plan, &mut ctx)?;
                    ctx.stats.total_time = started.elapsed();
                }
                ExecutionMode::Jit(jit_config) => {
                    let plan = generate_plan(program, self.config.strategy);
                    self.verify_generated_plan(&plan, program)?;
                    let mut engine = JitEngine::new(plan, *jit_config);
                    engine.run(&mut ctx)?;
                }
                ExecutionMode::AheadOfTime(aot) => {
                    // The offline sort is *not* charged to execution time.
                    let (plan, _) =
                        prepare_plan(program, self.config.strategy, aot, &self.extra_facts)?;
                    self.verify_generated_plan(&plan, program)?;
                    let started = Instant::now();
                    if aot.online_reorder {
                        let jit_config = JitConfig {
                            backend: BackendKind::IrGen,
                            reorder_algorithm: ReorderAlgorithm::Sort,
                            ..JitConfig::default()
                        };
                        let mut engine = JitEngine::new(plan, jit_config);
                        engine.run(&mut ctx)?;
                        // `JitEngine::run` already accumulated its own wall
                        // time; keep that measurement.
                    } else {
                        interpreter::interpret(&plan, &mut ctx)?;
                        ctx.stats.total_time = started.elapsed();
                    }
                }
            }
            Ok(())
        })();
        let (emitted, inserted, iterations) = (
            ctx.stats.tuples_emitted,
            ctx.stats.tuples_inserted,
            ctx.stats.iterations,
        );
        ctx.stats.tracer.end(
            run_token,
            &[
                ("emitted", emitted),
                ("inserted", inserted),
                ("iterations", iterations),
            ],
        );
        run_result?;
        Ok(ctx)
    }

    /// Statically verifies a freshly generated (or ahead-of-time-optimized)
    /// plan against `program` before it executes, when
    /// [`EngineConfig::verify`] is on.  Covers the ordinary, pruned and
    /// magic-rewritten paths alike — they all flow through
    /// [`Carac::run_context_hinted`].  A rejected plan is an engine bug
    /// surfaced as a typed [`carac_exec::ExecError::Verify`] instead of a
    /// wrong answer or a crash mid-query.
    fn verify_generated_plan(&self, plan: &IRNode, program: &Program) -> Result<(), CaracError> {
        if !self.config.verify {
            return Ok(());
        }
        carac_ir::verify_plan(plan, program).map_err(|err| {
            CaracError::Exec(ExecError::Verify {
                backend: "planner".to_string(),
                reason: err.to_string(),
            })
        })
    }

    /// Evaluates the program to its fixpoint and keeps the result as a
    /// *live session* that [`Carac::apply_update`] maintains incrementally.
    /// A no-op when a live session already exists.
    pub fn run_live(&mut self) -> Result<(), CaracError> {
        if self.live.is_some() {
            return Ok(());
        }
        // A live session must stay correct under arbitrary later updates, so
        // the pruning analysis runs in its update-independent mode: every
        // EDB relation is assumed potentially non-empty and only rules that
        // can never fire under *any* fact set are dropped.  The incremental
        // maintenance then operates on the same pruned rule set the initial
        // fixpoint evaluated.
        let (ctx, incremental) = if self.config.prune {
            let pruned = prune_with(&self.program, &self.analysis_options(true), true);
            let ctx = self.run_context_hinted(
                &pruned.program,
                &[],
                pruned.analysis.interval_hints.clone(),
            )?;
            let incremental = Incremental::new(
                &pruned.program,
                &self.extra_facts,
                UpdateKernel::Specialized,
            );
            (ctx, incremental)
        } else {
            let ctx = self.run_context_for(&self.program, &[])?;
            let incremental =
                Incremental::new(&self.program, &self.extra_facts, UpdateKernel::Specialized);
            (ctx, incremental)
        };
        self.live = Some(LiveSession { ctx, incremental });
        Ok(())
    }

    /// Whether a live session is currently held.
    pub fn is_live(&self) -> bool {
        self.live.is_some()
    }

    /// Discards the live session (the next [`Carac::apply_update`] or
    /// [`Carac::run_live`] re-evaluates from scratch).  Any attached
    /// write-ahead journal is detached with it: the journal describes the
    /// update history of the session being discarded, not the fresh one.
    pub fn invalidate_live(&mut self) {
        self.discard_session();
    }

    /// Drops the live session together with its journal (the shared body of
    /// every invalidation path — a journal must never outlive the session
    /// lineage it records).
    pub(crate) fn discard_session(&mut self) {
        self.live = None;
        self.journal = None;
    }

    /// Applies a batch of EDB insertions and retractions to the live
    /// session, maintaining every derived stratum incrementally (insert
    /// propagation plus the witness check for deletions in positive strata,
    /// a wholesale recompute for aggregate and negation strata).  Opens the
    /// live session first if none exists.  The resulting
    /// fact sets are identical to re-evaluating the updated EDB from
    /// scratch.
    ///
    /// When a write-ahead journal is attached ([`Carac::journal_to`]), the
    /// batch is appended to it — and fsync'd to disk — *before* any
    /// in-memory state changes, so a crash at any point leaves the journal a
    /// superset of the applied batches and [`Carac::recover`] replays the
    /// suffix deterministically.  A batch the maintenance layer rejects is
    /// rolled back out of the journal again, keeping the log exactly the
    /// sequence of successfully applied batches.
    pub fn apply_update(&mut self, batch: UpdateBatch) -> Result<UpdateReport, CaracError> {
        self.run_live()?;
        // Write-ahead: journal first, apply second.
        let rollback = match self.journal.as_mut() {
            Some(journal) => {
                let mark = (journal.byte_len(), journal.next_seq());
                journal.append(&batch.encode())?;
                Some(mark)
            }
            None => None,
        };
        let live = self.live.as_mut().expect("run_live just succeeded");
        let token = live
            .ctx
            .stats
            .tracer
            .begin(Phase::UpdateBatch, batch.ops().len() as u32);
        let outcome = live.incremental.apply(&mut live.ctx, &batch);
        let stats = outcome
            .as_ref()
            .map_or_else(|_| Default::default(), |r| r.stats);
        live.ctx.stats.tracer.end(
            token,
            &[
                ("edb_inserted", stats.edb_inserted),
                ("edb_retracted", stats.edb_retracted),
                ("candidates_checked", stats.candidates_checked),
                ("support_survivors", stats.support_survivors),
                ("overdeleted", stats.overdeleted),
                ("rederived", stats.rederived),
                ("witness_rows", stats.witness_rows),
            ],
        );
        match outcome {
            Ok(report) => Ok(report),
            Err(err) => {
                // The batch did not apply; take it back out of the journal
                // so the log stays exactly the applied-batch sequence.  If
                // even the rollback fails the journal is no longer coherent
                // with the session and is detached — recovery from it could
                // otherwise replay a batch the live run rejected.
                if let (Some(journal), Some((len, seq))) = (self.journal.as_mut(), rollback) {
                    if journal.truncate_to(len, seq).is_err() {
                        self.journal = None;
                    }
                }
                Err(err.into())
            }
        }
    }

    /// Convenience wrapper over [`Carac::apply_update`] for the common
    /// binary-edge shape: applies `retracts` and `inserts` to `relation` in
    /// one batch.
    pub fn apply_edge_updates(
        &mut self,
        relation: &str,
        inserts: &[(u32, u32)],
        retracts: &[(u32, u32)],
    ) -> Result<UpdateReport, CaracError> {
        let rel = self.program.relation_by_name(relation)?;
        let mut batch = UpdateBatch::new();
        for &(a, b) in retracts {
            batch.retract(rel, Tuple::pair(a, b));
        }
        for &(a, b) in inserts {
            batch.insert(rel, Tuple::pair(a, b));
        }
        self.apply_update(batch)
    }

    /// Number of derived tuples of `relation` in the live session
    /// (evaluating first if needed).
    pub fn live_count(&mut self, relation: &str) -> Result<usize, CaracError> {
        self.run_live()?;
        let rel = self.program.relation_by_name(relation)?;
        Ok(self.live.as_ref().expect("live").ctx.derived_count(rel))
    }

    /// All derived tuples of `relation` in the live session (evaluating
    /// first if needed).
    pub fn live_tuples(&mut self, relation: &str) -> Result<Vec<Tuple>, CaracError> {
        self.run_live()?;
        let rel = self.program.relation_by_name(relation)?;
        Ok(self.live.as_ref().expect("live").ctx.derived_tuples(rel))
    }

    /// The live session's accumulated run statistics (including the
    /// `update` block), if a session is open.
    pub fn live_stats(&self) -> Option<&RunStats> {
        self.live.as_ref().map(|l| &l.ctx.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use carac_datalog::parser::parse;
    use carac_datalog::DiagnosticCode;
    use carac_exec::BackendKind;

    fn tc() -> Program {
        parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Edge(1, 2). Edge(2, 3). Edge(3, 4).",
        )
        .unwrap()
    }

    #[test]
    fn default_engine_runs_transitive_closure() {
        let result = Carac::new(tc()).run().unwrap();
        assert_eq!(result.count("Path").unwrap(), 6);
        assert!(result.stats().total_time.as_nanos() > 0);
    }

    #[test]
    fn all_execution_modes_agree() {
        let program = tc();
        let expected = 6;
        let configs = vec![
            EngineConfig::interpreted(),
            EngineConfig::interpreted_unindexed(),
            EngineConfig::eager_jit(BackendKind::Lambda, false),
            EngineConfig::eager_jit(BackendKind::Lambda, true),
            EngineConfig::eager_jit(BackendKind::Bytecode, false),
            EngineConfig::eager_jit(BackendKind::IrGen, false),
            EngineConfig::default(),
            EngineConfig::ahead_of_time(true, true),
            EngineConfig::ahead_of_time(true, false),
            EngineConfig::ahead_of_time(false, true),
            EngineConfig::ahead_of_time(false, false),
        ];
        for config in configs {
            let label = config.label();
            let result = Carac::new(program.clone())
                .with_config(config)
                .run()
                .unwrap();
            assert_eq!(result.count("Path").unwrap(), expected, "{label} diverged");
        }
    }

    #[test]
    fn extra_facts_are_included_in_the_run() {
        let mut engine = Carac::new(tc()).with_config(EngineConfig::interpreted());
        engine.add_edge_facts("Edge", &[(4, 5), (5, 6)]).unwrap();
        engine.add_fact_ints("Edge", &[6, 7]).unwrap();
        assert_eq!(engine.extra_fact_count(), 3);
        let result = engine.run().unwrap();
        // Chain 1..=7: 6+5+4+3+2+1 = 21 paths.
        assert_eq!(result.count("Path").unwrap(), 21);
    }

    #[test]
    fn adding_facts_to_unknown_relations_errors() {
        let mut engine = Carac::new(tc());
        assert!(engine.add_fact_ints("Nope", &[1]).is_err());
    }

    #[test]
    fn live_session_applies_update_streams() {
        // Every execution mode maintains through the specialized kernel;
        // spot-check the three representative ones.
        for config in [
            EngineConfig::interpreted(),
            EngineConfig::eager_jit(BackendKind::Lambda, false),
            EngineConfig::eager_jit(BackendKind::Bytecode, false),
        ] {
            let mut engine = Carac::new(tc()).with_config(config);
            assert!(!engine.is_live());
            assert_eq!(engine.live_count("Path").unwrap(), 6);
            assert!(engine.is_live());
            // Grow the chain, then cut its head, in separate batches.
            engine.apply_edge_updates("Edge", &[(4, 5)], &[]).unwrap();
            assert_eq!(engine.live_count("Path").unwrap(), 10);
            engine.apply_edge_updates("Edge", &[], &[(1, 2)]).unwrap();
            // Chain 2..=5: 3+2+1 = 6 paths.
            assert_eq!(engine.live_count("Path").unwrap(), 6);
            // The session matches a scratch evaluation of the final EDB.
            let mut scratch = Carac::new(
                parse(
                    "Path(x, y) :- Edge(x, y).\n\
                     Path(x, y) :- Edge(x, z), Path(z, y).\n\
                     Edge(2, 3). Edge(3, 4). Edge(4, 5).",
                )
                .unwrap(),
            );
            let mut live = engine.live_tuples("Path").unwrap();
            let mut from_scratch = scratch.live_tuples("Path").unwrap();
            live.sort();
            from_scratch.sort();
            assert_eq!(live, from_scratch);
            assert!(engine.live_stats().unwrap().update.batches >= 2);
        }
    }

    #[test]
    fn adding_facts_invalidates_the_live_session() {
        let mut engine = Carac::new(tc()).with_config(EngineConfig::interpreted());
        assert_eq!(engine.live_count("Path").unwrap(), 6);
        engine.add_edge_facts("Edge", &[(4, 5)]).unwrap();
        assert!(!engine.is_live());
        assert_eq!(engine.live_count("Path").unwrap(), 10);
    }

    #[test]
    fn goal_directed_query_matches_filtered_fixpoint() {
        // Two disjoint chains: the point query must not derive the other
        // chain's paths.
        let program = parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Edge(1, 2). Edge(2, 3). Edge(3, 4). Edge(10, 11). Edge(11, 12).",
        )
        .unwrap();
        let engine = Carac::new(program.clone()).with_config(EngineConfig::interpreted());
        let full = engine.run().unwrap();
        let answer = engine
            .query("Path", &[QueryBinding::bound_int(1), QueryBinding::Free])
            .unwrap();
        assert!(!answer.fallback());
        assert!(!answer.stats().magic_fallback);
        // 1 reaches 2, 3, 4.
        assert_eq!(answer.count(), 3);
        let mut expected: Vec<Tuple> = full
            .tuples("Path")
            .unwrap()
            .into_iter()
            .filter(|t| t.get(0) == Some(Value::int(1)))
            .collect();
        let mut got = answer.into_tuples();
        expected.sort();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn goal_directed_query_derives_fewer_facts() {
        let program = parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Path(x, z), Edge(z, y).\n\
             Edge(1, 2). Edge(2, 3). Edge(3, 4). Edge(4, 5). Edge(5, 6).",
        )
        .unwrap();
        let engine = Carac::new(program).with_config(EngineConfig::interpreted());
        let full = engine.run().unwrap();
        let answer = engine
            .query("Path", &[QueryBinding::bound_int(4), QueryBinding::Free])
            .unwrap();
        assert_eq!(answer.count(), 2); // 4 -> 5, 4 -> 6
        assert!(
            answer.derived_facts() < full.total_tuples(),
            "demanded subset ({}) must be smaller than the full fixpoint ({})",
            answer.derived_facts(),
            full.total_tuples()
        );
    }

    #[test]
    fn query_on_edb_relations_skips_evaluation() {
        let mut engine = Carac::new(tc()).with_config(EngineConfig::interpreted());
        engine.add_edge_facts("Edge", &[(9, 9)]).unwrap();
        let answer = engine
            .query("Edge", &[QueryBinding::bound_int(9), QueryBinding::Free])
            .unwrap();
        assert_eq!(answer.count(), 1);
        assert_eq!(answer.stats().iterations, 0);
        assert!(!answer.fallback());
    }

    #[test]
    fn all_free_query_falls_back_to_full_evaluation() {
        let engine = Carac::new(tc()).with_config(EngineConfig::interpreted());
        let answer = engine
            .query("Path", &[QueryBinding::Free, QueryBinding::Free])
            .unwrap();
        assert!(answer.fallback());
        assert!(answer.stats().magic_fallback);
        assert_eq!(answer.count(), 6);
        assert_eq!(answer.answer_relation(), "Path");
    }

    #[test]
    fn query_pattern_arity_is_checked() {
        let engine = Carac::new(tc());
        assert!(engine.query("Path", &[QueryBinding::bound_int(1)]).is_err());
        assert!(engine.query("Nope", &[QueryBinding::Free]).is_err());
    }

    #[test]
    fn query_agrees_across_execution_modes() {
        let program = parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Edge(1, 2). Edge(2, 3). Edge(3, 1). Edge(7, 8).",
        )
        .unwrap();
        let pattern = [QueryBinding::bound_int(2), QueryBinding::Free];
        let reference: Vec<Tuple> = {
            let mut t = Carac::new(program.clone())
                .with_config(EngineConfig::interpreted())
                .query("Path", &pattern)
                .unwrap()
                .into_tuples();
            t.sort();
            t
        };
        assert_eq!(reference.len(), 3); // 2 reaches 3, 1, 2
        for config in [
            EngineConfig::interpreted_unindexed(),
            EngineConfig::eager_jit(BackendKind::Lambda, false),
            EngineConfig::eager_jit(BackendKind::Bytecode, false),
            EngineConfig::eager_jit(BackendKind::IrGen, false),
            EngineConfig::ahead_of_time(true, true),
            EngineConfig::interpreted().with_parallelism(2),
            EngineConfig::interpreted().with_parallelism(8),
        ] {
            let label = config.label();
            let mut got = Carac::new(program.clone())
                .with_config(config)
                .query("Path", &pattern)
                .unwrap()
                .into_tuples();
            got.sort();
            assert_eq!(
                got, reference,
                "{label} diverged on the goal-directed query"
            );
        }
    }

    /// A transitive closure padded with one unsatisfiable rule, one rule
    /// over a factless (dead) relation, and one duplicate rule.
    fn defective_tc() -> Program {
        parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Path(x, y) :- Edge(x, y), x < 2, x > 9.\n\
             Path(x, y) :- Ghost(x, z), Edge(z, y).\n\
             Path(a, b) :- Edge(a, b).\n\
             Edge(1, 2). Edge(2, 3). Edge(3, 4).",
        )
        .unwrap()
    }

    #[test]
    fn analyze_reports_defects_without_modifying_the_program() {
        let engine = Carac::new(defective_tc());
        let analysis = engine.analyze();
        assert!(analysis.has_errors());
        assert_eq!(
            analysis
                .with_code(DiagnosticCode::UnsatisfiableRule)
                .count(),
            1
        );
        assert_eq!(analysis.with_code(DiagnosticCode::DeadRule).count(), 1);
        assert_eq!(analysis.with_code(DiagnosticCode::DuplicateRule).count(), 1);
        assert_eq!(engine.program().rules().len(), 5);
    }

    #[test]
    fn pruned_runs_match_unpruned_across_modes() {
        let program = defective_tc();
        for config in [
            EngineConfig::interpreted(),
            EngineConfig::eager_jit(BackendKind::Lambda, false),
            EngineConfig::eager_jit(BackendKind::Bytecode, false),
            EngineConfig::interpreted().with_parallelism(4),
        ] {
            let label = config.label();
            let plain = Carac::new(program.clone())
                .with_config(config)
                .run()
                .unwrap();
            let pruned = Carac::new(program.clone())
                .with_config(config.with_prune())
                .run()
                .unwrap();
            let mut a = plain.tuples("Path").unwrap();
            let mut b = pruned.tuples("Path").unwrap();
            a.sort();
            b.sort();
            assert_eq!(a, b, "{label} diverged under pruning");
        }
    }

    #[test]
    fn pruned_live_session_matches_unpruned_under_updates() {
        let program = defective_tc();
        let mut plain = Carac::new(program.clone()).with_config(EngineConfig::interpreted());
        let mut pruned = Carac::new(program).with_config(EngineConfig::interpreted().with_prune());
        for engine in [&mut plain, &mut pruned] {
            engine.apply_edge_updates("Edge", &[(4, 5)], &[]).unwrap();
            engine.apply_edge_updates("Edge", &[], &[(1, 2)]).unwrap();
            // The dead relation coming alive mid-stream must still derive:
            // live pruning may only drop update-independent defects.
            engine.apply_edge_updates("Ghost", &[(0, 2)], &[]).unwrap();
        }
        let mut a = plain.live_tuples("Path").unwrap();
        let mut b = pruned.live_tuples("Path").unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b, "live pruning diverged under updates");
    }

    #[test]
    fn extra_facts_keep_their_relations_alive_for_the_analyzer() {
        let mut engine = Carac::new(defective_tc()).with_config(EngineConfig::interpreted());
        engine.add_edge_facts("Ghost", &[(0, 2)]).unwrap();
        let analysis = engine.analyze();
        // Ghost now has facts, so the rule over it is no longer dead.
        assert!(analysis
            .with_code(DiagnosticCode::DeadRule)
            .next()
            .is_none());
        let plain = engine.run().unwrap();
        let pruned = Carac::new(engine.program().clone())
            .with_config(EngineConfig::interpreted().with_prune());
        let mut with_prune = pruned;
        with_prune.add_edge_facts("Ghost", &[(0, 2)]).unwrap();
        let pruned_result = with_prune.run().unwrap();
        assert_eq!(
            plain.count("Path").unwrap(),
            pruned_result.count("Path").unwrap()
        );
    }

    #[test]
    fn pruning_leaves_goal_directed_queries_untouched() {
        let engine =
            Carac::new(defective_tc()).with_config(EngineConfig::interpreted().with_prune());
        let answer = engine
            .query("Path", &[QueryBinding::bound_int(1), QueryBinding::Free])
            .unwrap();
        assert_eq!(answer.count(), 3);
    }

    #[test]
    fn runs_are_repeatable() {
        let engine = Carac::new(tc()).with_config(EngineConfig::interpreted());
        let a = engine.run().unwrap();
        let b = engine.run().unwrap();
        assert_eq!(a.count("Path").unwrap(), b.count("Path").unwrap());
    }

    #[test]
    fn naive_strategy_matches_semi_naive() {
        let program = tc();
        let semi = Carac::new(program.clone())
            .with_config(EngineConfig::interpreted())
            .run()
            .unwrap();
        let naive = Carac::new(program)
            .with_config(EngineConfig::interpreted().with_strategy(carac_ir::EvalStrategy::Naive))
            .run()
            .unwrap();
        assert_eq!(semi.count("Path").unwrap(), naive.count("Path").unwrap());
    }
}
