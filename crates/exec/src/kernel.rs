//! The join kernel: how one `σπ⋈` subquery actually runs.
//!
//! What code generation buys is specialization (paper §III: "the
//! fundamental performance benefit to code generation is specialization").
//! [`SpecializedQuery::compile`] resolves a join-ordered
//! [`ConjunctiveQuery`] once into a *descriptor* of flat arrays — filters,
//! loads, intra-atom equality checks, comparison checks, projection keys and
//! the head projection — so the per-row inner loop touches no enums and no
//! hash maps.  Every `σπ⋈` outside the bytecode VM runs on a descriptor:
//! the plan walker ([`crate::interpreter`]) builds one per plan node for
//! interpretation and the JIT's cold tier; a descriptor artifact is a map
//! of them built from the re-ordered queries when it compiles; incremental
//! maintenance builds its delta variants', drivers' and stratum
//! recomputes' once per session.  The VM's
//! cursor loop is the only other join loop.
//!
//! The kernel is an index-nested-loop join over the atoms in their current
//! order, followed by anti-join checks for the negated literals, projecting
//! into the head relation's delta-new database.
//!
//! **Each live projection is expanded once.**  The kernel (and the VM's
//! `Distinct` instruction) follows the query's projection plan
//! ([`ConjunctiveQuery::projection_plan`]): at a join level where some bound
//! variable is read by nothing below it, a candidate row that passed its
//! filters and checks is looked up by the *live* bound variables in the
//! level's seen-set ([`SeenKeys`]), and skipped when that key was expanded
//! earlier in the same execution — its subtree could only emit rows that
//! were already emitted.  Skips are counted in
//! [`RunStats::projection_skips`]; the derived set and the order in which
//! new rows first appear are unchanged.
//!
//! **One level loop, two sinks.**  [`SpecializedQuery`]'s level loop is
//! generic over what it does with the rows it reaches.  The *emit* sink of
//! evaluation expands every row and emits at every leaf.  The *exists* sink
//! ([`SpecializedQuery::exists`]) puts every row that passed its filters
//! and checks to the caller's per-level test and ends a driver row's whole
//! subtree at its first leaf: the incremental layer's "does this head still
//! have a derivation I accept?" as a join that stops at the first witness.
//!
//! **The inner loop is allocation-free.**  Candidate rows arrive as borrowed
//! [`RowId`] slices (index posting lists, shard partitions, or a reusable
//! per-level scratch buffer for unindexed scans — see
//! [`RelationView::probe_rows`]); row values are read as `&[Value]` slices
//! straight out of the relation's flat row pool; emitted head rows append to
//! one flat `Vec<Value>` output buffer with the head arity as stride and are
//! inserted through [`StorageManager::insert_derived_row`].  No `Tuple` (and
//! no other per-row heap allocation) is constructed anywhere on the fixpoint
//! hot path.  The per-level scratch — filter and row buffers, seen-sets — is
//! a thread-local pool reused from one execution to the next (seen-sets are
//! cleared, keeping their capacity), so even the many tiny maintenance
//! queries of an update batch allocate nothing once it is warm.

use std::cell::RefCell;
use std::time::Instant;

use carac_datalog::{AggregateSpec, HeadBinding, RuleId, Term};
use carac_ir::{ConjunctiveQuery, SeenKeys};
use carac_storage::{CmpOp, DbKind, RelId, RelationView, RowId, StorageManager, Value};

use crate::error::ExecError;
use crate::parallel::{chunk_rows, parallel_map};
use crate::stats::RunStats;
use crate::telemetry::trace::Phase;

/// Minimum number of driving rows before a subquery is worth forking: below
/// this, thread-spawn overhead dominates and the kernel stays serial.  The
/// cutoff only affects scheduling — results are identical either way.
pub const PARALLEL_ROW_THRESHOLD: usize = 64;

/// Where a filter value comes from in the specialized plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FilterVal {
    /// A constant from the rule text.
    Const(Value),
    /// The binding slot of a variable bound by an earlier atom.
    Var(usize),
}

impl FilterVal {
    /// Resolves the filter value against the current bindings.
    #[inline]
    fn resolve(self, bindings: &[Value]) -> Value {
        match self {
            FilterVal::Const(c) => c,
            FilterVal::Var(slot) => bindings[slot],
        }
    }
}

/// One atom of a specialized query.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SpecializedAtom {
    rel: RelId,
    db: DbKind,
    /// `(column, value source)` equality filters applied while scanning.
    filters: Vec<(usize, FilterVal)>,
    /// `(column, binding slot)` loads for variables bound here.
    loads: Vec<(usize, usize)>,
    /// `(column, column)` intra-atom equality requirements (repeated
    /// variables within the atom).
    intra_eq: Vec<(usize, usize)>,
    /// Comparison constraints that become fully bound at this join level
    /// (after this atom's loads).  Evaluated inside the per-row loop with no
    /// allocation: both operands resolve to a register read or a constant.
    checks: Vec<(CmpOp, FilterVal, FilterVal)>,
    /// The level's projection key (binding slots of the live bound
    /// variables) when some bound variable is dead below it: a row whose
    /// key this execution has already expanded is skipped.
    key: Option<Vec<usize>>,
}

/// Where an emitted head column comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EmitVal {
    Const(Value),
    Var(usize),
}

/// Reusable per-join-level scratch: the resolved-filter list fed to the
/// access-path probe, the row-id buffer the probe fills when it has to
/// scan, and the keys the level has expanded (keyed levels only).  One of
/// these per join level (plus one for negation probes) lives for the whole
/// subquery execution, so the per-row loop never allocates.
#[derive(Debug, Default)]
struct LevelScratch {
    resolved: Vec<(usize, Value)>,
    rows: Vec<RowId>,
    seen: SeenKeys,
}

thread_local! {
    /// The kernel's per-level scratch on this thread, reused from one
    /// execution to the next so warm buffers and seen-sets allocate nothing
    /// (fork-join workers get their own).
    static SCRATCH: RefCell<Vec<LevelScratch>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` over `levels` levels of this thread's scratch, with every
/// seen-set cleared: seen keys never outlive one execution.  A nested
/// execution on the same thread gets fresh scratch.
fn with_scratch<R>(levels: usize, f: impl FnOnce(&mut [LevelScratch]) -> R) -> R {
    SCRATCH.with(|pool| match pool.try_borrow_mut() {
        Ok(mut pool) => {
            if pool.len() < levels {
                pool.resize_with(levels, LevelScratch::default);
            }
            let scratch = &mut pool[..levels];
            for level in scratch.iter_mut() {
                level.seen.clear();
            }
            f(scratch)
        }
        Err(_) => f(&mut (0..levels)
            .map(|_| LevelScratch::default())
            .collect::<Vec<_>>()),
    })
}

/// Splits the scratch of the current join level off the levels below it.
fn split_level(
    scratch: &mut [LevelScratch],
) -> Result<(&mut LevelScratch, &mut [LevelScratch]), ExecError> {
    scratch
        .split_first_mut()
        .ok_or_else(|| ExecError::Internal("no scratch left for a join level".into()))
}

/// The flat output buffer of one join run: emitted head rows laid out
/// row-major with the head arity as stride, plus the rows its probes had
/// to scan because no index answered them and the rows its keyed levels
/// skipped as already expanded.
#[derive(Debug, Default)]
struct EmitBuffer {
    values: Vec<Value>,
    rows: u64,
    scan_rows: u64,
    skips: u64,
    /// Set by a leaf of a sink that ends there ([`Sink::ENDS_AT_LEAF`]):
    /// the current driver row is done.  Cleared when level 0 moves on.
    ended: bool,
}

impl EmitBuffer {
    fn append(&mut self, other: EmitBuffer) {
        self.values.extend(other.values);
        self.rows += other.rows;
        self.scan_rows += other.scan_rows;
        self.skips += other.skips;
    }
}

/// What [`SpecializedQuery`]'s level loop does with the rows it reaches.
/// Both sinks emit the head row at a leaf into their [`EmitBuffer`]; they
/// differ in what may be expanded and in what a leaf ends.
trait Sink {
    /// Whether reaching a leaf ends the whole subtree of the current
    /// level-0 (driver) row.
    const ENDS_AT_LEAF: bool;

    /// The buffer the leaves emit into, with the run's counters.
    fn out(&mut self) -> &mut EmitBuffer;

    /// Whether row `row` of `rel`, loaded at join level `level` (its values
    /// `values`) after its filters and checks passed, may be expanded.
    fn admit(
        &mut self,
        level: usize,
        rel: RelId,
        values: &[Value],
        row: RowId,
    ) -> Result<bool, ExecError>;
}

/// The emit sink of evaluation: every row is expanded, every leaf emits.
impl Sink for EmitBuffer {
    const ENDS_AT_LEAF: bool = false;

    #[inline(always)]
    fn out(&mut self) -> &mut EmitBuffer {
        self
    }

    #[inline(always)]
    fn admit(&mut self, _: usize, _: RelId, _: &[Value], _: RowId) -> Result<bool, ExecError> {
        Ok(true)
    }
}

/// The exists sink of [`SpecializedQuery::exists`]: the caller's test
/// decides each row, and the first leaf under a driver row ends it.
struct ExistsSink<F> {
    out: EmitBuffer,
    admit: F,
}

impl<F> Sink for ExistsSink<F>
where
    F: FnMut(usize, RelId, &[Value], RowId) -> Result<bool, ExecError>,
{
    const ENDS_AT_LEAF: bool = true;

    fn out(&mut self) -> &mut EmitBuffer {
        &mut self.out
    }

    fn admit(
        &mut self,
        level: usize,
        rel: RelId,
        values: &[Value],
        row: RowId,
    ) -> Result<bool, ExecError> {
        (self.admit)(level, rel, values, row)
    }
}

/// A conjunctive query compiled into flat dispatch-free arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecializedQuery {
    head_rel: RelId,
    /// The rule this subquery derives — carried through specialization so
    /// executions are attributed to the right per-rule profile.
    rule: RuleId,
    head: Vec<EmitVal>,
    atoms: Vec<SpecializedAtom>,
    negated: Vec<SpecializedAtom>,
    num_vars: usize,
    /// `false` when a constant-only constraint already failed at compile
    /// time: the whole query is statically empty.
    static_ok: bool,
}

impl SpecializedQuery {
    /// Specializes `query` with respect to its current atom order.
    pub fn compile(query: &ConjunctiveQuery) -> SpecializedQuery {
        let plan = query.projection_plan();
        // Join level at which each variable is first bound (`MAX`: not
        // bound by an earlier atom).
        let mut bind_level = vec![usize::MAX; query.num_vars];
        let mut atoms = Vec::with_capacity(query.atoms.len());
        for (level, atom) in query.atoms.iter().enumerate() {
            let mut filters = Vec::new();
            let mut loads: Vec<(usize, usize)> = Vec::new();
            let mut intra_eq = Vec::new();
            for (col, term) in atom.terms.iter().enumerate() {
                match term {
                    Term::Const(c) => filters.push((col, FilterVal::Const(*c))),
                    Term::Var(v) if bind_level[v.index()] != usize::MAX => {
                        filters.push((col, FilterVal::Var(v.index())));
                    }
                    // A variable repeated within the atom: its first column
                    // loads it, every later one must equal that column.
                    Term::Var(v) => match loads.iter().find(|&&(_, slot)| slot == v.index()) {
                        Some(&(first, _)) => intra_eq.push((first, col)),
                        None => loads.push((col, v.index())),
                    },
                }
            }
            for &(_, slot) in &loads {
                bind_level[slot] = level;
            }
            let key = plan
                .keys
                .get(level)
                .and_then(Option::as_ref)
                .map(|vars| vars.iter().map(|v| v.index()).collect());
            atoms.push(SpecializedAtom {
                rel: atom.rel,
                db: atom.db,
                filters,
                loads,
                intra_eq,
                checks: Vec::new(),
                key,
            });
        }
        // Push each comparison constraint to the earliest join level that
        // binds both operands; constant-only constraints resolve now.
        let mut static_ok = true;
        for constraint in &query.constraints {
            if let Some(outcome) = constraint.eval_const() {
                static_ok &= outcome;
                continue;
            }
            let to_val = |t: &Term| match t {
                Term::Const(c) => FilterVal::Const(*c),
                Term::Var(v) => FilterVal::Var(v.index()),
            };
            let level = constraint
                .variables()
                .map(|v| bind_level[v.index()])
                .max()
                .unwrap_or(0);
            debug_assert!(
                level < atoms.len(),
                "constraint variable unbound; validation guarantees safety"
            );
            if let Some(atom) = atoms.get_mut(level) {
                atom.checks.push((
                    constraint.op,
                    to_val(&constraint.lhs),
                    to_val(&constraint.rhs),
                ));
            }
        }
        let negated = query
            .negated
            .iter()
            .map(|atom| {
                let filters = atom
                    .terms
                    .iter()
                    .enumerate()
                    .map(|(col, term)| match term {
                        Term::Const(c) => (col, FilterVal::Const(*c)),
                        Term::Var(v) => (col, FilterVal::Var(v.index())),
                    })
                    .collect();
                SpecializedAtom {
                    rel: atom.rel,
                    db: atom.db,
                    filters,
                    loads: Vec::new(),
                    intra_eq: Vec::new(),
                    checks: Vec::new(),
                    key: None,
                }
            })
            .collect();
        let head = query
            .head_bindings
            .iter()
            .map(|b| match b {
                HeadBinding::Const(c) => EmitVal::Const(*c),
                HeadBinding::Var(v) => EmitVal::Var(v.index()),
            })
            .collect();
        SpecializedQuery {
            head_rel: query.head_rel,
            rule: query.rule,
            head,
            atoms,
            negated,
            num_vars: query.num_vars,
            static_ok,
        }
    }

    /// One scratch level per atom plus one shared by the negation probes.
    fn scratch_levels(&self) -> usize {
        self.atoms.len() + 1
    }

    /// Executes the specialized query, inserting results into the head
    /// relation's delta-new database.  Returns the number of genuinely new
    /// tuples.
    pub fn execute(
        &self,
        storage: &mut StorageManager,
        stats: &mut RunStats,
    ) -> Result<u64, ExecError> {
        self.execute_with(storage, stats, 1)
    }

    /// Executes the specialized query with up to `parallelism` worker
    /// threads partitioning the driving atom's candidate rows.
    ///
    /// Workers evaluate disjoint partitions against the read-only storage
    /// snapshot; emitted rows are merged in partition order and inserted
    /// serially, so the derived fact set is identical to the serial run for
    /// every worker count.  Small row sets (below
    /// [`PARALLEL_ROW_THRESHOLD`]) run serially.
    pub fn execute_with(
        &self,
        storage: &mut StorageManager,
        stats: &mut RunStats,
        parallelism: usize,
    ) -> Result<u64, ExecError> {
        let out = self.collect(storage, stats, parallelism)?;
        let head_arity = self.head.len();
        let mut inserted = 0;
        for i in 0..out.rows as usize {
            let row = &out.values[i * head_arity..(i + 1) * head_arity];
            if storage.insert_derived_row(self.head_rel, row)? {
                inserted += 1;
            }
        }
        stats.tuples_inserted += inserted;
        stats.rule_profiles.record_inserted(self.rule, inserted);
        Ok(inserted)
    }

    /// Runs the join pipeline and returns the emitted head rows **without
    /// inserting them anywhere**: a flat row-major buffer with the head
    /// arity as stride, plus the row count (duplicates preserved — each row
    /// is one derivation).  This is the collect-mode entry the incremental
    /// maintenance subsystem uses for lost derivations and insert
    /// propagation, where emitted rows feed maintenance logic instead of
    /// the delta-new insert path.  Shares the serial and fork-join
    /// execution machinery with [`SpecializedQuery::execute_with`].
    pub fn collect_rows(
        &self,
        storage: &StorageManager,
        stats: &mut RunStats,
        parallelism: usize,
    ) -> Result<(Vec<Value>, u64), ExecError> {
        let out = self.collect(storage, stats, parallelism)?;
        Ok((out.values, out.rows))
    }

    /// Arity of the emitted head rows (the stride of
    /// [`collect_rows`](Self::collect_rows)' and
    /// [`exists`](Self::exists)' buffers).
    pub fn head_arity(&self) -> usize {
        self.head.len()
    }

    /// Runs the join as an **exists query**: after a row's loads and checks
    /// pass, `admit(level, rel, values, row)` decides whether it may be
    /// expanded, and the first leaf reached under a level-0 (driver) row
    /// emits that leaf's head row and ends the driver row's whole subtree.
    /// Returns the emitted head rows (head arity as stride) and their
    /// count: at most one per driver row.
    ///
    /// The incremental layer's witness check and rescue step run their
    /// head-driven drivers through this.  Projection keys stay on: every
    /// key of such a driver holds the head's variables, so a key names
    /// one driver row, and a key expanded without reaching a leaf cannot
    /// reach one later as long as `admit` reads only the row, its id and
    /// per-driver-row state.  Runs serially (`admit` is stateful); the
    /// execution is one subquery like any other, so spans, rule profiles
    /// and `tuples_emitted` reconcile with the emitted rows.
    pub fn exists(
        &self,
        storage: &StorageManager,
        stats: &mut RunStats,
        admit: impl FnMut(usize, RelId, &[Value], RowId) -> Result<bool, ExecError>,
    ) -> Result<(Vec<Value>, u64), ExecError> {
        let mut sink = ExistsSink {
            out: EmitBuffer::default(),
            admit,
        };
        self.run(storage, stats, &mut sink, |_, sink| {
            self.join_serial(storage, sink)
        })?;
        Ok((sink.out.values, sink.out.rows))
    }

    /// The shared emission phase of [`execute_with`](Self::execute_with) and
    /// [`collect_rows`](Self::collect_rows).
    fn collect(
        &self,
        storage: &StorageManager,
        stats: &mut RunStats,
        parallelism: usize,
    ) -> Result<EmitBuffer, ExecError> {
        let mut out = EmitBuffer::default();
        self.run(storage, stats, &mut out, |stats, out| {
            if parallelism > 1 {
                *out = self.join_parallel(storage, stats, parallelism)?;
                Ok(())
            } else {
                self.join_serial(storage, out)
            }
        })?;
        Ok(out)
    }

    /// One execution, recorded as a subquery span and a rule-profile
    /// execution: `join` fills `sink` unless the query is statically empty.
    fn run<S: Sink>(
        &self,
        storage: &StorageManager,
        stats: &mut RunStats,
        sink: &mut S,
        join: impl FnOnce(&mut RunStats, &mut S) -> Result<(), ExecError>,
    ) -> Result<(), ExecError> {
        let started = Instant::now();
        let token = stats.tracer.begin(Phase::Subquery, self.rule.0);
        stats.subqueries += 1;
        if !self.static_ok {
            // A constant-only constraint failed at compile time: the query
            // is empty regardless of the database contents.  Still one
            // execution for the profile — the reconciliation invariant
            // counts every subquery.
            stats.rule_profiles.record_execution(
                self.rule,
                stats.current_stratum,
                0,
                0,
                started.elapsed(),
            );
            stats.tracer.end(token, &[("emitted", 0)]);
            return Ok(());
        }
        let delta_in = delta_rows_in(storage, self.atoms.iter().map(|a| (a.db, a.rel)));
        join(stats, sink)?;
        let out = sink.out();
        stats.tuples_emitted += out.rows;
        stats.probe_scan_rows += out.scan_rows;
        stats.projection_skips += out.skips;
        stats.rule_profiles.record_execution(
            self.rule,
            stats.current_stratum,
            delta_in,
            out.rows,
            started.elapsed(),
        );
        stats
            .tracer
            .end(token, &[("emitted", out.rows), ("delta_in", delta_in)]);
        Ok(())
    }

    /// The whole join on this thread, from level 0.
    fn join_serial<S: Sink>(
        &self,
        storage: &StorageManager,
        sink: &mut S,
    ) -> Result<(), ExecError> {
        let mut bindings = vec![Value::int(0); self.num_vars];
        with_scratch(self.scratch_levels(), |scratch| {
            self.join_level(0, &mut bindings, storage, scratch, sink)
        })?;
        Ok(())
    }

    /// The fork-join body of [`execute_with`](Self::execute_with): splits
    /// the driving rows into per-worker partitions (the relation's hash
    /// shards when it is sharded and fully scanned, contiguous chunks
    /// otherwise) and joins each partition independently.
    fn join_parallel(
        &self,
        storage: &StorageManager,
        stats: &mut RunStats,
        parallelism: usize,
    ) -> Result<EmitBuffer, ExecError> {
        let Some(first) = self.atoms.first() else {
            // A body-less query (constant rule): nothing to partition.
            let mut out = EmitBuffer::default();
            self.join_serial(storage, &mut out)?;
            return Ok(out);
        };
        let relation = storage.relation(first.db, first.rel)?;
        // Level-0 filters are constants by construction (a variable filter
        // needs an earlier atom to bind it), so resolving against the empty
        // binding set is safe.
        let zero_bindings = vec![Value::int(0); self.num_vars];
        let use_shards = first.filters.is_empty() && relation.is_sharded();
        let scan_rows: Vec<RowId>;
        let partitions: Vec<&[RowId]> = if use_shards {
            // Hash shards scan independently; merge order is shard order.
            (0..relation.shard_count())
                .map(|s| relation.shard_rows(s))
                .filter(|rows| !rows.is_empty())
                .collect()
        } else {
            let mut resolved = Vec::with_capacity(first.filters.len());
            for &(col, val) in &first.filters {
                resolved.push((col, val.resolve(&zero_bindings)));
            }
            let mut probe_scratch = Vec::new();
            let probe = relation.probe_rows(&resolved, &mut probe_scratch);
            stats.probe_scan_rows += probe.scanned_rows() as u64;
            scan_rows = probe.iter().collect();
            chunk_rows(&scan_rows, parallelism)
        };
        let total_rows: usize = partitions.iter().map(|p| p.len()).sum();
        if total_rows < PARALLEL_ROW_THRESHOLD || partitions.len() <= 1 {
            let mut bindings = zero_bindings;
            let mut out = EmitBuffer::default();
            with_scratch(self.scratch_levels(), |scratch| {
                let (cur, rest) = split_level(scratch)?;
                for rows in &partitions {
                    self.join_rows(
                        0,
                        relation,
                        rows.iter().copied(),
                        &mut bindings,
                        storage,
                        &mut cur.seen,
                        rest,
                        &mut out,
                    )?;
                }
                Ok::<_, ExecError>(())
            })?;
            return Ok(out);
        }
        stats.parallel_subqueries += 1;
        stats.parallel_tasks += partitions.len() as u64;
        // Each partition task keeps its own seen-sets: a key expanded in
        // two partitions is expanded twice, which only repeats emissions.
        let results = parallel_map(parallelism, &partitions, |rows| {
            let worker_started = Instant::now();
            let mut bindings = vec![Value::int(0); self.num_vars];
            let mut out = EmitBuffer::default();
            with_scratch(self.scratch_levels(), |scratch| {
                let (cur, rest) = split_level(scratch)?;
                self.join_rows(
                    0,
                    relation,
                    rows.iter().copied(),
                    &mut bindings,
                    storage,
                    &mut cur.seen,
                    rest,
                    &mut out,
                )
            })?;
            Ok::<_, ExecError>((out, worker_started.elapsed()))
        })?;
        let mut merged = EmitBuffer::default();
        // Per-partition spans are recorded post-join, in partition order —
        // the same deterministic merge discipline the result buffers follow.
        // The measured parallel duration travels in `duration_ns`.
        for (index, result) in results.into_iter().enumerate() {
            let (out, elapsed) = result?;
            stats.tracer.record_complete(
                Phase::Partition,
                index as u32,
                &[
                    ("rows", out.rows),
                    ("duration_ns", elapsed.as_nanos() as u64),
                ],
            );
            merged.append(out);
        }
        Ok(merged)
    }

    fn join_level<S: Sink>(
        &self,
        level: usize,
        bindings: &mut [Value],
        storage: &StorageManager,
        scratch: &mut [LevelScratch],
        sink: &mut S,
    ) -> Result<(), ExecError> {
        if level == self.atoms.len() {
            // Negation checks (through the spare scratch level), then emit.
            let out = sink.out();
            for neg in &self.negated {
                let relation = storage.relation(neg.db, neg.rel)?;
                let spare = &mut scratch[0];
                if probe_exists(relation, &neg.filters, bindings, spare, &mut out.scan_rows) {
                    return Ok(());
                }
            }
            for e in &self.head {
                out.values.push(match e {
                    EmitVal::Const(c) => *c,
                    EmitVal::Var(slot) => bindings[*slot],
                });
            }
            out.rows += 1;
            if S::ENDS_AT_LEAF {
                out.ended = true;
            }
            return Ok(());
        }
        let atom = &self.atoms[level];
        let relation = storage.relation(atom.db, atom.rel)?;
        let (cur, rest) = split_level(scratch)?;
        cur.resolved.clear();
        for &(col, val) in &atom.filters {
            cur.resolved.push((col, val.resolve(bindings)));
        }
        let probe = relation.probe_rows(&cur.resolved, &mut cur.rows);
        sink.out().scan_rows += probe.scanned_rows() as u64;
        self.join_rows(
            level,
            relation,
            probe.iter(),
            bindings,
            storage,
            &mut cur.seen,
            rest,
            sink,
        )
    }

    /// Joins one level over an explicit candidate-row iterator (the shared
    /// tail of the serial and partitioned paths).  `seen` is this level's
    /// set of expanded projection keys; `scratch` holds the levels *below*
    /// this one.
    #[allow(clippy::too_many_arguments)]
    fn join_rows<S: Sink>(
        &self,
        level: usize,
        relation: RelationView<'_>,
        rows: impl Iterator<Item = RowId>,
        bindings: &mut [Value],
        storage: &StorageManager,
        seen: &mut SeenKeys,
        scratch: &mut [LevelScratch],
        sink: &mut S,
    ) -> Result<(), ExecError> {
        let atom = &self.atoms[level];
        'rows: for row in rows {
            let values = relation.row(row);
            // Re-check every filter: the access path may not have covered
            // all of them (and composite candidates are hash-keyed).
            for &(col, val) in &atom.filters {
                if values.get(col) != Some(&val.resolve(bindings)) {
                    continue 'rows;
                }
            }
            for &(a, b) in &atom.intra_eq {
                if values.get(a) != values.get(b) {
                    continue 'rows;
                }
            }
            for &(col, slot) in &atom.loads {
                bindings[slot] = values
                    .get(col)
                    .copied()
                    .ok_or_else(|| ExecError::Internal("load column out of bounds".into()))?;
            }
            // Comparison constraints whose operands are all bound by now:
            // two register/constant reads and a branch, nothing allocated.
            for &(op, a, b) in &atom.checks {
                if !op.eval(a.resolve(bindings), b.resolve(bindings)) {
                    continue 'rows;
                }
            }
            if !sink.admit(level, atom.rel, values, row)? {
                continue 'rows;
            }
            // Everything below depends on the live bindings only: a key
            // expanded before would emit the same rows again.
            if let Some(key) = &atom.key {
                let first = seen.insert(key.iter().map(|&slot| {
                    bindings.get(slot).copied().ok_or_else(|| {
                        ExecError::Internal("projection key slot out of bounds".into())
                    })
                }))?;
                if !first {
                    sink.out().skips += 1;
                    continue 'rows;
                }
            }
            self.join_level(level + 1, bindings, storage, scratch, sink)?;
            if S::ENDS_AT_LEAF && sink.out().ended {
                // Unwind to level 0, which moves on to its next row.
                if level > 0 {
                    return Ok(());
                }
                sink.out().ended = false;
            }
        }
        Ok(())
    }
}

/// Whether a row matching every filter exists (negation probe), using the
/// caller's reusable scratch; adds the rows a scan fallback visited to
/// `scan_rows`.
///
/// Always inlined: with one caller per sink, LLVM stops inlining it into
/// the emit sink's `join_level`, and that alone cost 7 % of
/// `run_s.jit_lambda` @ `cspa` (2-vCPU x86-64 VM), whose rules negate
/// nothing.  Inlined, the emit instantiation is the same machine code as a
/// kernel without the exists sink.
#[inline(always)]
fn probe_exists(
    relation: RelationView<'_>,
    filters: &[(usize, FilterVal)],
    bindings: &[Value],
    scratch: &mut LevelScratch,
    scan_rows: &mut u64,
) -> bool {
    scratch.resolved.clear();
    for &(col, val) in filters {
        scratch.resolved.push((col, val.resolve(bindings)));
    }
    let resolved = &scratch.resolved;
    let probe = relation.probe_rows(resolved, &mut scratch.rows);
    *scan_rows += probe.scanned_rows() as u64;
    probe.iter().any(|row| {
        let values = relation.row(row);
        resolved
            .iter()
            .all(|&(col, expected)| values.get(col) == Some(&expected))
    })
}

/// Executes an aggregation node: groups the input relation's derived rows,
/// folds the aggregate columns and inserts the result rows into the output
/// relation's delta-new database.  A stratified spec runs the one-shot
/// stratum-boundary fold; a lattice spec runs the in-recursion fold that
/// retracts a group's previous optimum and emits only strictly improved
/// groups.  Run by the plan walker (the bytecode VM has its own
/// `Aggregate` instruction calling the same storage primitives).
pub fn execute_aggregate(
    spec: &AggregateSpec,
    storage: &mut StorageManager,
    stats: &mut RunStats,
) -> Result<(), ExecError> {
    let started = Instant::now();
    let token = stats.tracer.begin(Phase::Aggregate, spec.output.0);
    let (emitted, inserted) = if spec.lattice {
        storage.aggregate_lattice_into(spec.input, spec.output, &spec.aggs)?
    } else {
        storage.aggregate_into(spec.input, spec.output, &spec.aggs)?
    };
    stats.tuples_emitted += emitted;
    stats.tuples_inserted += inserted;
    stats
        .rule_profiles
        .record_aggregate(spec.output, emitted, inserted, started.elapsed());
    stats
        .tracer
        .end(token, &[("emitted", emitted), ("inserted", inserted)]);
    Ok(())
}

/// Total rows currently sitting in the `DeltaKnown` atoms of a subquery —
/// the semi-naive work driver recorded as `delta_rows_in` on rule profiles.
fn delta_rows_in(storage: &StorageManager, atoms: impl Iterator<Item = (DbKind, RelId)>) -> u64 {
    let mut total = 0u64;
    for (db, rel) in atoms {
        if db == DbKind::DeltaKnown {
            if let Ok(relation) = storage.relation(db, rel) {
                total += relation.len() as u64;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use carac_datalog::parser::parse;
    use carac_datalog::Program;
    use carac_ir::{generate_plan, EvalStrategy};
    use carac_storage::Tuple;

    /// The thread counts every kernel test runs at.
    const THREADS: [usize; 3] = [1, 2, 8];

    fn prep(program: &Program, indexes: bool) -> StorageManager {
        let mut sm = StorageManager::new(indexes);
        for decl in program.relations() {
            sm.register(&decl.name, decl.arity, decl.is_edb);
        }
        if indexes {
            for (rel, col) in carac_datalog::rewrite::index_requests(program) {
                sm.add_index(rel, col).unwrap();
            }
        }
        for (rel, tuple) in program.facts() {
            sm.insert_fact(*rel, tuple.clone()).unwrap();
        }
        sm
    }

    fn first_query(program: &Program) -> ConjunctiveQuery {
        let plan = generate_plan(program, EvalStrategy::SemiNaive);
        plan.spj_queries()[0].1.clone()
    }

    type TestResult<T = ()> = Result<T, Box<dyn std::error::Error>>;

    /// Runs `q` once with `parallelism` workers — over hash-sharded storage
    /// when indexed and parallel (shard partitions), over plain storage
    /// otherwise (contiguous chunks) — and returns the sorted delta-new
    /// rows of its head, the count `execute_with` reported and the stats.
    fn run_kernel(
        p: &Program,
        q: &ConjunctiveQuery,
        indexes: bool,
        parallelism: usize,
    ) -> TestResult<(Vec<Tuple>, u64, RunStats)> {
        let mut s = prep(p, indexes);
        if indexes && parallelism > 1 {
            s.set_sharding(parallelism)?;
        }
        let mut stats = RunStats::default();
        let inserted =
            SpecializedQuery::compile(q).execute_with(&mut s, &mut stats, parallelism)?;
        let mut tuples = s.relation(DbKind::DeltaNew, q.head_rel)?.to_tuples();
        tuples.sort();
        Ok((tuples, inserted, stats))
    }

    /// Sorted binary tuples.
    fn pairs(rows: impl IntoIterator<Item = (u32, u32)>) -> Vec<Tuple> {
        let mut tuples: Vec<Tuple> = rows.into_iter().map(|(a, b)| Tuple::pair(a, b)).collect();
        tuples.sort();
        tuples.dedup();
        tuples
    }

    /// Sorted unary tuples.
    fn singles(rows: &[u32]) -> Vec<Tuple> {
        let mut tuples: Vec<Tuple> = rows.iter().map(|&v| Tuple::from_ints(&[v])).collect();
        tuples.sort();
        tuples
    }

    #[test]
    fn simple_join_matches_the_hand_computed_answer() -> TestResult {
        let p = parse(
            "Gp(x, z) :- Parent(x, y), Parent(y, z).\n\
             Parent(1, 2). Parent(2, 3). Parent(2, 4). Parent(3, 5).",
        )?;
        let q = first_query(&p);
        for indexes in [false, true] {
            for threads in THREADS {
                let (rows, inserted, stats) = run_kernel(&p, &q, indexes, threads)?;
                let label = format!("indexes={indexes} x{threads}");
                assert_eq!(rows, pairs([(1, 3), (1, 4), (2, 5)]), "{label}");
                assert_eq!(inserted, 3, "{label}");
                assert_eq!(stats.tuples_emitted, 3, "{label}");
            }
        }
        Ok(())
    }

    #[test]
    fn constants_filter() -> TestResult {
        let p = parse(
            "CallsSeven(x) :- Call(x, 7).\n\
             Call(1, 7). Call(2, 8). Call(3, 7).",
        )?;
        let q = first_query(&p);
        for indexes in [false, true] {
            for threads in THREADS {
                let (rows, _, _) = run_kernel(&p, &q, indexes, threads)?;
                assert_eq!(rows, singles(&[1, 3]), "indexes={indexes} x{threads}");
            }
        }
        Ok(())
    }

    #[test]
    fn repeated_variable_within_atom_filters() -> TestResult {
        let p = parse(
            "Loop(x) :- Edge(x, x).\n\
             Edge(1, 1). Edge(1, 2). Edge(3, 3).",
        )?;
        let q = first_query(&p);
        for threads in THREADS {
            let (rows, _, _) = run_kernel(&p, &q, false, threads)?;
            assert_eq!(rows, singles(&[1, 3]), "x{threads}");
        }
        Ok(())
    }

    #[test]
    fn negation_filters_candidates() -> TestResult {
        let p = parse(
            "Ok(x) :- Node(x), !Blocked(x).\n\
             Node(1). Node(2). Node(3). Blocked(2).",
        )?;
        let q = first_query(&p);
        for indexes in [false, true] {
            for threads in THREADS {
                let (rows, _, stats) = run_kernel(&p, &q, indexes, threads)?;
                let label = format!("indexes={indexes} x{threads}");
                assert_eq!(rows, singles(&[1, 3]), "{label}");
                // Unindexed, each of the three negation probes scans the
                // one `Blocked` row.
                let scanned = if indexes { 0 } else { 3 };
                assert_eq!(stats.probe_scan_rows, scanned, "{label}");
            }
        }
        Ok(())
    }

    #[test]
    fn three_way_join_order_does_not_change_results() {
        let p = parse(
            "VAlias(v1, v2) :- VaFlow(v0, v2), VaFlow(v3, v1), MAlias(v3, v0).\n\
             VaFlow(1, 10). VaFlow(2, 20). VaFlow(1, 30).\n\
             MAlias(2, 1). MAlias(1, 1).",
        )
        .unwrap();
        let q = first_query(&p);
        let rel = p.relation_by_name("VAlias").unwrap();
        let orders: Vec<Vec<usize>> = vec![vec![0, 1, 2], vec![2, 0, 1], vec![1, 2, 0]];
        let mut results: Vec<Vec<Tuple>> = Vec::new();
        for order in orders {
            let reordered = q.with_order(&order);
            let mut s = prep(&p, true);
            let mut stats = RunStats::default();
            SpecializedQuery::compile(&reordered)
                .execute(&mut s, &mut stats)
                .unwrap();
            let mut tuples = s.relation(DbKind::DeltaNew, rel).unwrap().to_tuples();
            tuples.sort();
            results.push(tuples);
        }
        assert!(!results[0].is_empty());
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn parallel_execution_matches_the_hand_computed_join() -> TestResult {
        // A join big enough to clear PARALLEL_ROW_THRESHOLD: every worker
        // count, over sharded and plain storage, derives the grandparents
        // of the function i ↦ (7i + 1) mod 120.
        let parent = |i: u32| (i * 7 + 1) % 120;
        let mut source = String::from("Gp(x, z) :- Parent(x, y), Parent(y, z).\n");
        for i in 0..120u32 {
            source.push_str(&format!("Parent({i}, {}).\n", parent(i)));
        }
        let p = parse(&source)?;
        let q = first_query(&p);
        let expected = pairs((0..120u32).map(|i| (i, parent(parent(i)))));
        assert_eq!(expected.len(), 120);
        for indexes in [false, true] {
            for threads in THREADS {
                let (rows, _, stats) = run_kernel(&p, &q, indexes, threads)?;
                let label = format!("indexes={indexes} x{threads}");
                assert_eq!(rows, expected, "{label}");
                assert_eq!(stats.tuples_emitted, 120, "{label}");
                if threads > 1 {
                    assert!(stats.parallel_subqueries > 0, "{label}: serial");
                    assert!(stats.parallel_tasks >= 2, "{label}");
                }
            }
        }
        Ok(())
    }

    #[test]
    fn projection_skips_change_emissions_not_results() -> TestResult {
        // v3 is dead once VaFlow(v3, v1) has probed on it: every v3 sharing
        // (v0, v1) = (v3 mod 5, v3 mod 7) with an earlier one would expand
        // the same VaFlow(v0, _) subtree again.  0..150 covers all 35 such
        // keys, so 35 rows are expanded and 115 skipped, and since
        // VaFlow(v0, v2) has v2 = v0 for v0 < 5 every head is (v1, v0).
        let mut source =
            String::from("VAlias(v1, v2) :- MAlias(v3, v0), VaFlow(v3, v1), VaFlow(v0, v2).\n");
        for i in 0..150u32 {
            source.push_str(&format!(
                "MAlias({i}, {}). VaFlow({i}, {}).\n",
                i % 5,
                i % 7
            ));
        }
        let p = parse(&source)?;
        let q = first_query(&p);
        assert!(!q.projection_plan().is_empty());
        let expected = pairs((0..7u32).flat_map(|v1| (0..5u32).map(move |v0| (v1, v0))));

        let (rows, _, serial) = run_kernel(&p, &q, true, 1)?;
        assert_eq!(rows, expected);
        assert_eq!(serial.tuples_emitted, 35);
        assert_eq!(serial.projection_skips, 115);

        for threads in [2, 8] {
            let (rows, _, stats) = run_kernel(&p, &q, true, threads)?;
            assert_eq!(rows, expected, "x{threads}");
            assert!(stats.parallel_subqueries > 0, "parallel path not exercised");
            // Each partition keeps its own seen-sets: fewer skips, the
            // same heads.
            assert!(stats.projection_skips > 0, "x{threads}");
            assert_eq!(
                stats.tuples_emitted + stats.projection_skips,
                150,
                "x{threads}"
            );
        }
        Ok(())
    }

    #[test]
    fn an_empty_key_runs_the_subtree_once() -> TestResult {
        // Nothing A binds is read again: one A row expands B ⋈ C, the
        // other four are skipped at level 0.
        let p = parse(
            "Out(x) :- A(y), B(x), C(x).\n\
             A(1). A(2). A(3). A(4). A(5). B(1). B(2). B(3). C(1). C(2). C(3).",
        )?;
        let q = first_query(&p);
        for threads in THREADS {
            let (rows, _, stats) = run_kernel(&p, &q, true, threads)?;
            assert_eq!(rows, singles(&[1, 2, 3]), "x{threads}");
            assert_eq!(stats.tuples_emitted, 3, "x{threads}");
            assert_eq!(stats.projection_skips, 4, "x{threads}");
        }
        Ok(())
    }

    #[test]
    fn keys_wider_than_two_values_are_exact() -> TestResult {
        // Level 1 is keyed on (a, b, c): the four B(d) rows reached from
        // A(1, 2, 3, _) expand one C(1) probe, not four.
        let p = parse(
            "Out(a, b, c) :- A(a, b, c, d), B(d), C(a).\n\
             A(1, 2, 3, 0). A(1, 2, 3, 1). A(1, 2, 3, 2). A(1, 2, 3, 3). A(1, 2, 4, 0).\n\
             B(0). B(1). B(2). B(3). C(1).",
        )?;
        let q = first_query(&p);
        let expected = {
            let mut t = vec![Tuple::from_ints(&[1, 2, 3]), Tuple::from_ints(&[1, 2, 4])];
            t.sort();
            t
        };
        for threads in THREADS {
            let (rows, _, stats) = run_kernel(&p, &q, true, threads)?;
            assert_eq!(rows, expected, "x{threads}");
            assert_eq!(stats.tuples_emitted, 2, "x{threads}");
            assert_eq!(stats.projection_skips, 3, "x{threads}");
        }
        Ok(())
    }

    #[test]
    fn composite_index_path_matches_scan_path() {
        // Sg probed on both columns: with a composite index the kernel
        // answers through one probe; results must equal the index-free run.
        let p = parse(
            "Out(x, y) :- Left(x, y), Sg(x, y).\n\
             Left(1, 2). Left(2, 3). Left(3, 4). Left(9, 9).\n\
             Sg(1, 2). Sg(3, 4). Sg(5, 6).",
        )
        .unwrap();
        let q = first_query(&p);
        let out = p.relation_by_name("Out").unwrap();
        let sg = p.relation_by_name("Sg").unwrap();

        let run = |composite: bool| {
            let mut s = prep(&p, composite);
            if composite {
                s.add_composite_index(sg, &[0, 1]).unwrap();
            }
            let mut stats = RunStats::default();
            SpecializedQuery::compile(&q)
                .execute(&mut s, &mut stats)
                .unwrap();
            let mut tuples = s.relation(DbKind::DeltaNew, out).unwrap().to_tuples();
            tuples.sort();
            tuples
        };
        let with_composite = run(true);
        let without = run(false);
        assert_eq!(with_composite, without);
        assert_eq!(with_composite.len(), 2); // (1,2) and (3,4)
    }

    #[test]
    fn comparison_constraints_filter() -> TestResult {
        let p = parse(
            "Less(x, y) :- Pair(x, y), x < y.\n\
             Pair(1, 2). Pair(2, 2). Pair(3, 2). Pair(0, 9).",
        )?;
        let q = first_query(&p);
        for indexes in [false, true] {
            for threads in THREADS {
                let (rows, _, _) = run_kernel(&p, &q, indexes, threads)?;
                assert_eq!(
                    rows,
                    pairs([(0, 9), (1, 2)]),
                    "indexes={indexes} x{threads}"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn cross_atom_constraint_checks_at_the_binding_level() -> TestResult {
        // `d2 < d1` binds its operands in different atoms; the kernel must
        // evaluate it only once both are bound, in every atom order.  Only
        // 1→2→3 shrinks (9 then 4).
        let p = parse(
            "Shrinks(x, z) :- Hop(x, y, d1), Hop(y, z, d2), d2 < d1.\n\
             Hop(1, 2, 9). Hop(2, 3, 4). Hop(3, 4, 7). Hop(2, 5, 9).",
        )?;
        let q = first_query(&p);
        for order in [vec![0, 1], vec![1, 0]] {
            let reordered = q.with_order(&order);
            for indexes in [false, true] {
                let (rows, _, _) = run_kernel(&p, &reordered, indexes, 1)?;
                assert_eq!(rows, pairs([(1, 3)]), "order {order:?} indexes={indexes}");
            }
        }
        Ok(())
    }

    #[test]
    fn statically_false_constraint_short_circuits() -> TestResult {
        let p = parse("Out(x) :- Node(x), 2 < 1.\nNode(5).")?;
        let q = first_query(&p);
        for threads in THREADS {
            let (rows, inserted, stats) = run_kernel(&p, &q, false, threads)?;
            assert!(rows.is_empty(), "x{threads}");
            assert_eq!(inserted, 0);
            // Decided when the descriptor was built: nothing is probed.
            assert_eq!(stats.subqueries, 1);
            assert_eq!(stats.probe_scan_rows, 0);
        }
        Ok(())
    }

    #[test]
    fn constraints_survive_parallel_execution() -> TestResult {
        let partner = |i: u32| (i * 13 + 5) % 120;
        let mut source = String::from("Less(x, y) :- Pair(x, y), x < y.\n");
        for i in 0..120u32 {
            source.push_str(&format!("Pair({i}, {}).\n", partner(i)));
        }
        let p = parse(&source)?;
        let q = first_query(&p);
        let expected = pairs((0..120u32).map(|i| (i, partner(i))).filter(|&(x, y)| x < y));
        assert!(!expected.is_empty());
        for indexes in [false, true] {
            for threads in THREADS {
                let (rows, _, _) = run_kernel(&p, &q, indexes, threads)?;
                assert_eq!(rows, expected, "indexes={indexes} x{threads}");
            }
        }
        Ok(())
    }

    #[test]
    fn execute_aggregate_counts_groups() {
        let p = parse(
            "Deg(x, count y) :- Edge(x, y).\n\
             Edge(1, 2). Edge(1, 3). Edge(2, 3).",
        )
        .unwrap();
        let spec = p.aggregates()[0].clone();
        let mut s = prep(&p, false);
        // Fill the hidden input as evaluation would: copy Edge rows.
        let edge_rows: Vec<Tuple> = s
            .relation(DbKind::Derived, p.relation_by_name("Edge").unwrap())
            .unwrap()
            .to_tuples();
        for t in edge_rows {
            s.insert_fact(spec.input, t).unwrap();
        }
        let mut stats = RunStats::default();
        execute_aggregate(&spec, &mut s, &mut stats).unwrap();
        let out = s.relation(DbKind::DeltaNew, spec.output).unwrap();
        assert!(out.contains(&Tuple::pair(1, 2)));
        assert!(out.contains(&Tuple::pair(2, 1)));
        assert_eq!(out.len(), 2);
        assert_eq!(stats.tuples_inserted, 2);
    }

    #[test]
    fn stats_record_emitted_and_inserted() {
        let p = parse(
            "Out(x) :- Edge(x, y).\n\
             Edge(1, 2). Edge(1, 3). Edge(2, 4).",
        )
        .unwrap();
        let q = first_query(&p);
        let mut s = prep(&p, false);
        let mut stats = RunStats::default();
        SpecializedQuery::compile(&q)
            .execute(&mut s, &mut stats)
            .unwrap();
        // Three bindings project onto two distinct head tuples.
        assert_eq!(stats.tuples_emitted, 3);
        assert_eq!(stats.tuples_inserted, 2);
        assert_eq!(stats.subqueries, 1);
    }
}
