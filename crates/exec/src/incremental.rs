//! Incremental view maintenance: insert propagation, and deletion that
//! retracts only what lost its well-founded support.
//!
//! A completed evaluation leaves the storage manager holding the full
//! fixpoint.  This module maintains that fixpoint under batched EDB
//! **insertions and deletions** without recomputing it from scratch:
//!
//! * **Insert propagation** — new facts are seeded into the delta-known
//!   database and pushed through per-rule *delta variants* (one conjunctive
//!   query per positive body position, reading the delta at that position
//!   and the derived database elsewhere), iterated with the same
//!   swap-and-clear boundary as normal semi-naive evaluation.  Updates run
//!   through the same allocation-free join probes and the same sharded
//!   fork-join pool as full evaluation, so they parallelize identically.
//! * **Deletion: the witness check** (every positive stratum) — every row of the
//!   derived database carries an *epoch*
//!   ([`Relation::epoch_of`](carac_storage::Relation::epoch_of)): the
//!   iteration boundary that appended it.  Semi-naive evaluation appends a
//!   fact after every fact its first derivation read, so every live fact of
//!   the stratum has a derivation whose same-stratum body facts all carry a
//!   strictly smaller epoch — and keeps one as long as the maintenance
//!   below only ever appends at fresh epochs.  Frontier rounds enumerate,
//!   with the delta variants against the *old* database, the heads that lost
//!   a derivation; a head is **condemned only if it has no derivation whose
//!   body facts are all un-condemned, not retracted by this batch, and — for
//!   atoms of the stratum itself — of strictly smaller epoch than the
//!   head**.  A head that passes keeps its place and stops the propagation;
//!   only condemned facts enter the next frontier (re-flagging every head
//!   that could have leaned on them, which is then checked again against the
//!   larger condemned set).  Condemned facts are retracted, rescued by one
//!   head-driven re-derivation step where a derivation outside the order
//!   remains, and the rescues are propagated like insertions.  Check and
//!   rescue run a rule's head-driven driver as an exists query
//!   ([`SpecializedQuery::exists`]): each join level tests the fact it
//!   loaded and a head's search ends at its first witness
//!   (`UpdateStats::witness_rows` counts the rows loaded).
//!
//!   Why this is sound: a survivor's witness lies strictly lower in a
//!   well-founded order (epochs only decrease along it, and a condemned
//!   body fact re-flags the heads using it), so no group of facts can keep
//!   each other alive in a cycle — which is exactly what un-ordered
//!   "does another derivation exist" checks get wrong.  Rows of *equal*
//!   epoch (a saturated counter, a state loaded without its run table) never
//!   vouch for each other: such facts are condemned and take the
//!   retract-and-rescue route, i.e. the phase degrades to classic
//!   delete/re-derive, never to a wrong answer.  In a non-recursive stratum
//!   no body atom lies in the stratum, so there is no epoch to compare: the
//!   check asks exactly "does a derivation over facts this batch keeps
//!   remain", one frontier round is the whole cone, and the rescue step
//!   finds nothing.  From-scratch evaluation is the oracle the differential
//!   suites compare every batch against.
//! * **Stratum recompute (aggregates, negation)** — strata whose rules
//!   aggregate a changed input or negate a changed relation are recomputed
//!   wholesale from the (already final) lower strata by re-running their
//!   plan subtree; the before/after diff feeds higher strata as ordinary
//!   signed deltas.  Aggregation is a full-input fold, so this recompute
//!   *is* its natural incremental granularity.
//!
//! Strata are processed in dependency order; each stratum receives the net
//! signed deltas (`DeltaSign::Insert` / `DeltaSign::Retract`) of everything
//! below it and publishes its own net deltas upward.  The final state is
//! byte-identical (as a fact set) to evaluating the updated EDB from
//! scratch — the differential tests in `tests/differential.rs` assert this
//! for insert-only, delete-only and mixed batches across thread counts.

use std::collections::hash_map::Entry;
use std::time::Instant;

use carac_datalog::{Program, Rule};
use carac_ir::{generate_plan, ConjunctiveQuery, EvalStrategy, IRNode, IROp, QueryAtom};
use carac_storage::hasher::FxHashMap;
use carac_storage::pool::row_hash;
use carac_storage::{
    DbKind, DeltaSign, RelId, Relation, RelationSchema, RowId, StorageManager, Tuple, Value,
};

use crate::backends::{describe, UpdateKernel};
use crate::context::ExecContext;
use crate::error::ExecError;
use crate::interpreter::{Descriptors, Prebuilt, Walk};
use crate::kernel::SpecializedQuery;
use crate::stats::UpdateStats;

/// One signed fact of an update batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateOp {
    /// Target (extensional) relation.
    pub rel: RelId,
    /// Whether the fact enters or leaves the database.
    pub sign: DeltaSign,
    /// The fact's row.
    pub values: Vec<Value>,
}

/// A batch of EDB insertions and retractions applied atomically by
/// [`Incremental::apply`] / `Carac::apply_update`.  Ops are applied in
/// order, so a retract-then-insert of the same fact cancels out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    ops: Vec<UpdateOp>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// Queues the insertion of a fact.
    pub fn insert(&mut self, rel: RelId, tuple: Tuple) -> &mut Self {
        self.insert_row(rel, tuple.values().to_vec())
    }

    /// Queues the retraction of a fact.
    pub fn retract(&mut self, rel: RelId, tuple: Tuple) -> &mut Self {
        self.retract_row(rel, tuple.values().to_vec())
    }

    /// Queues the insertion of a raw row.
    pub fn insert_row(&mut self, rel: RelId, values: Vec<Value>) -> &mut Self {
        self.ops.push(UpdateOp {
            rel,
            sign: DeltaSign::Insert,
            values,
        });
        self
    }

    /// Queues the retraction of a raw row.
    pub fn retract_row(&mut self, rel: RelId, values: Vec<Value>) -> &mut Self {
        self.ops.push(UpdateOp {
            rel,
            sign: DeltaSign::Retract,
            values,
        });
        self
    }

    /// The queued operations, in application order.
    pub fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Serializes the batch for the write-ahead update journal: an op count
    /// followed, per op, by the target relation id, a sign byte
    /// (`0` insert / `1` retract), the row width and the raw row values —
    /// everything little-endian.  [`UpdateBatch::decode`] inverts this
    /// exactly; the framing, checksumming and fsync discipline around the
    /// payload belong to `carac_storage::journal`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.ops.len() * 16);
        out.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        for op in &self.ops {
            out.extend_from_slice(&op.rel.0.to_le_bytes());
            out.push(match op.sign {
                DeltaSign::Insert => 0,
                DeltaSign::Retract => 1,
            });
            out.extend_from_slice(&(op.values.len() as u32).to_le_bytes());
            for value in &op.values {
                out.extend_from_slice(&value.raw().to_le_bytes());
            }
        }
        out
    }

    /// Deserializes a batch previously produced by [`UpdateBatch::encode`].
    ///
    /// Every structural defect — truncation, an unknown sign byte, trailing
    /// bytes — is a typed [`ExecError::Update`]; nothing here panics on
    /// hostile input, because the bytes come from a journal file that may
    /// have been corrupted on disk (the journal layer's checksums catch
    /// random corruption, but recovery must stay panic-free even against
    /// payloads that collide with a valid CRC).
    pub fn decode(bytes: &[u8]) -> Result<UpdateBatch, ExecError> {
        fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], ExecError> {
            let end = pos
                .checked_add(n)
                .filter(|&end| end <= bytes.len())
                .ok_or_else(|| ExecError::Update("journaled update batch is truncated".into()))?;
            let slice = &bytes[*pos..end];
            *pos = end;
            Ok(slice)
        }
        fn read_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, ExecError> {
            let b = take(bytes, pos, 4)?;
            Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }
        let mut pos = 0;
        let count = read_u32(bytes, &mut pos)? as usize;
        let mut ops = Vec::new();
        for _ in 0..count {
            let rel = RelId(read_u32(bytes, &mut pos)?);
            let sign = match take(bytes, &mut pos, 1)?[0] {
                0 => DeltaSign::Insert,
                1 => DeltaSign::Retract,
                other => {
                    return Err(ExecError::Update(format!(
                        "journaled update batch carries invalid sign byte {other}"
                    )))
                }
            };
            let width = read_u32(bytes, &mut pos)? as usize;
            // Reserve conservatively: `width` is attacker-controlled until
            // the per-value reads below have actually consumed the bytes.
            let mut values = Vec::with_capacity(width.min(64));
            for _ in 0..width {
                values.push(Value(read_u32(bytes, &mut pos)?));
            }
            ops.push(UpdateOp { rel, sign, values });
        }
        if pos != bytes.len() {
            return Err(ExecError::Update(format!(
                "journaled update batch has {} trailing bytes",
                bytes.len() - pos
            )));
        }
        Ok(UpdateBatch { ops })
    }
}

/// What one applied batch did, plus the time it took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// The maintenance counters of this batch (also accumulated into
    /// `RunStats::update` on the session's stats).
    pub stats: UpdateStats,
    /// Wall-clock time spent applying the batch.
    pub total_time: std::time::Duration,
}

/// Rows of one width in a single row-major buffer — what a maintenance
/// query emits (one row per derivation, duplicates preserved), and how a
/// phase remembers rows without an allocation apiece.
struct FlatRows {
    width: usize,
    len: usize,
    values: Vec<Value>,
}

impl FlatRows {
    fn with_capacity(width: usize, rows: usize) -> FlatRows {
        FlatRows {
            width,
            len: 0,
            values: Vec::with_capacity(width * rows),
        }
    }

    fn push(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.width);
        self.values.extend_from_slice(row);
        self.len += 1;
    }

    fn rows(&self) -> impl Iterator<Item = &[Value]> + '_ {
        (0..self.len).map(|i| &self.values[i * self.width..(i + 1) * self.width])
    }
}

/// One delta-variant query's descriptor, built once per session — the
/// execution unit of flagging and insert propagation.
struct QueryExec(SpecializedQuery);

impl QueryExec {
    /// Collect-mode execution against the context's current databases: one
    /// emitted row per derivation, nothing inserted anywhere.
    fn collect(&self, ctx: &mut ExecContext) -> Result<FlatRows, ExecError> {
        let ExecContext {
            storage,
            stats,
            parallelism,
            ..
        } = ctx;
        stats.update.delta_subqueries += 1;
        let (values, len) = self.0.collect_rows(storage, stats, *parallelism)?;
        Ok(FlatRows {
            width: self.0.head_arity(),
            len: len as usize,
            values,
        })
    }
}

/// The maintenance machinery of one rule: a delta variant per positive body
/// position plus the head-driven full-body query used for the witness
/// check and re-derivation.
struct RulePlan {
    head_rel: RelId,
    /// `(relation read as delta, variant query)` per positive position.
    variants: Vec<(RelId, QueryExec)>,
    /// `Head(pattern)@DeltaKnown ⋈ body@Derived` ([`driver_query`]), run as
    /// an exists query over the heads loaded into delta-known.
    driver: SpecializedQuery,
}

/// Per-stratum maintenance plan.
struct StratumPlan {
    relations: Vec<RelId>,
    rules: Vec<RulePlan>,
    /// Distinct relations appearing in positive rule bodies (or as the
    /// aggregate input) — the stratum's inputs plus its own recursion.
    body_rels: Vec<RelId>,
    /// Distinct relations appearing under negation in this stratum's rules.
    negated_rels: Vec<RelId>,
    /// Whether any relation of the stratum is produced by an aggregation.
    aggregate: bool,
    /// The stratum's plan subtree, walked wholesale on the recompute path,
    /// and the descriptors of its `σπ⋈` leaves, built once per session.
    node: IRNode,
    descriptors: Descriptors,
}

/// Net signed delta sets accumulated while strata are processed, one pair
/// of side relations per storage relation.  Inserting a fact that is
/// currently recorded as retracted (or vice versa) cancels instead of
/// double-recording, so each set always holds the *net* change against the
/// pre-batch state.
struct DeltaSets {
    plus: Vec<Option<Relation>>,
    minus: Vec<Option<Relation>>,
    schemas: Vec<RelationSchema>,
}

impl DeltaSets {
    fn new(schemas: Vec<RelationSchema>) -> DeltaSets {
        DeltaSets {
            plus: schemas.iter().map(|_| None).collect(),
            minus: schemas.iter().map(|_| None).collect(),
            schemas,
        }
    }

    fn side<'a>(slot: &'a mut Option<Relation>, schema: &RelationSchema) -> &'a mut Relation {
        slot.get_or_insert_with(|| Relation::new(schema.clone()))
    }

    fn record_insert(&mut self, rel: RelId, values: &[Value]) -> Result<(), ExecError> {
        let ix = rel.index();
        if let Some(minus) = &mut self.minus[ix] {
            if minus.retract_row(values)? {
                return Ok(()); // cancels an earlier retraction
            }
        }
        Self::side(&mut self.plus[ix], &self.schemas[ix]).insert_row(values)?;
        Ok(())
    }

    fn record_retract(&mut self, rel: RelId, values: &[Value]) -> Result<(), ExecError> {
        let ix = rel.index();
        if let Some(plus) = &mut self.plus[ix] {
            if plus.retract_row(values)? {
                return Ok(()); // cancels an earlier insertion
            }
        }
        Self::side(&mut self.minus[ix], &self.schemas[ix]).insert_row(values)?;
        Ok(())
    }

    fn plus_of(&self, rel: RelId) -> Option<&Relation> {
        self.plus[rel.index()].as_ref().filter(|r| !r.is_empty())
    }

    fn minus_of(&self, rel: RelId) -> Option<&Relation> {
        self.minus[rel.index()].as_ref().filter(|r| !r.is_empty())
    }

    fn changed(&self, rel: RelId) -> bool {
        self.plus_of(rel).is_some() || self.minus_of(rel).is_some()
    }
}

/// The heads one frontier round flagged in one relation, with what the
/// witness check needs per head (parallel to the rows of `rows`).
struct Flagged {
    rows: Relation,
    /// Epoch of the head in the derived database.
    epochs: Vec<u32>,
    /// Whether a witness was found.
    supported: Vec<bool>,
}

impl Flagged {
    fn new(schema: RelationSchema) -> Flagged {
        Flagged {
            rows: Relation::new(schema),
            epochs: Vec::new(),
            supported: Vec::new(),
        }
    }
}

/// The incremental maintenance engine for one program: delta variants and
/// re-derivation drivers (compiled once per live session), the per-stratum
/// recompute subtrees, and the base-fact protection sets.
///
/// Built by `Carac` when a live session is opened; [`Incremental::apply`]
/// maintains the session's [`ExecContext`] under an [`UpdateBatch`].
pub struct Incremental {
    strata: Vec<StratumPlan>,
    /// Per-relation "base" facts of intensional relations (program facts
    /// plus runtime-added facts): asserted, not derived, so deletion
    /// propagation must never retract them.
    base_facts: Vec<Option<Relation>>,
    /// Whether each relation is extensional (updatable by batches).
    is_edb: Vec<bool>,
    names: Vec<String>,
}

impl std::fmt::Debug for Incremental {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Incremental")
            .field("strata", &self.strata.len())
            .finish()
    }
}

/// Statically join-orders a maintenance query: the atom at `first` (the
/// delta or driver atom — the small side of every update join) is rotated
/// to the front and the remaining atoms follow greedily by connectivity
/// (always preferring an atom that shares an already-bound variable or
/// carries a constant, original order as the tie-break).  Update queries
/// run outside the adaptive JIT, so this static order is what stands
/// between a single-edge delta and an accidental full-relation scan at
/// join level 0.
fn order_delta_first(query: &ConjunctiveQuery, first: usize) -> ConjunctiveQuery {
    let n = query.atoms.len();
    if n <= 1 {
        return query.clone();
    }
    let mut bound = vec![false; query.num_vars];
    for (_, v) in query.atoms[first].variable_columns() {
        bound[v.index()] = true;
    }
    let mut order = vec![first];
    let mut remaining: Vec<usize> = (0..n).filter(|&i| i != first).collect();
    while !remaining.is_empty() {
        let pick = remaining
            .iter()
            .position(|&i| {
                let atom = &query.atoms[i];
                atom.variable_columns().any(|(_, v)| bound[v.index()])
                    || atom.constant_columns().next().is_some()
            })
            .unwrap_or(0);
        let chosen = remaining.remove(pick);
        for (_, v) in query.atoms[chosen].variable_columns() {
            bound[v.index()] = true;
        }
        order.push(chosen);
    }
    query.with_order(&order)
}

/// Builds the head-driven full-body query of `rule`: the head atom reading
/// delta-known at join level 0, then the positive body reading derived
/// (join-ordered outward from it), emitting the head.  Every projection key
/// holds the head's variables: level 0 binds them and the head reads them.
fn driver_query(rule: &Rule) -> ConjunctiveQuery {
    let mut query = ConjunctiveQuery::from_rule(rule, None);
    query.atoms.insert(
        0,
        QueryAtom {
            rel: rule.head.rel,
            db: DbKind::DeltaKnown,
            terms: rule.head.terms.clone(),
        },
    );
    order_delta_first(&query, 0)
}

impl Incremental {
    /// Builds the maintenance plan for `program`.  `extra_facts` are the
    /// facts added to the engine on top of the program's own (they extend
    /// the base-fact protection sets).  Every maintenance query runs on the
    /// specialized kernel; `kernel` selects nothing and is kept for the
    /// benchmark's calls (see [`UpdateKernel`]).
    pub fn new(
        program: &Program,
        extra_facts: &[(RelId, Tuple)],
        _kernel: UpdateKernel,
    ) -> Incremental {
        let plan = generate_plan(program, EvalStrategy::SemiNaive);
        let stratum_nodes: Vec<IRNode> = match plan.op {
            IROp::Program { children } => children,
            _ => Vec::new(),
        };
        let mut strata = Vec::new();
        for (stratum, node) in program.stratification().strata().iter().zip(stratum_nodes) {
            let mut rules = Vec::new();
            let mut body_rels: Vec<RelId> = Vec::new();
            let mut negated_rels: Vec<RelId> = Vec::new();
            for &rule_id in &stratum.rules {
                let rule = program.rule(rule_id);
                let mut variants = Vec::new();
                for (i, literal) in rule.positive_body().enumerate() {
                    let query = order_delta_first(&ConjunctiveQuery::from_rule(rule, Some(i)), i);
                    let exec = QueryExec(SpecializedQuery::compile(&query));
                    variants.push((literal.atom.rel, exec));
                    if !body_rels.contains(&literal.atom.rel) {
                        body_rels.push(literal.atom.rel);
                    }
                }
                for literal in rule.negative_body() {
                    if !negated_rels.contains(&literal.atom.rel) {
                        negated_rels.push(literal.atom.rel);
                    }
                }
                rules.push(RulePlan {
                    head_rel: rule.head.rel,
                    variants,
                    driver: SpecializedQuery::compile(&driver_query(rule)),
                });
            }
            let mut aggregate = false;
            for &rel in &stratum.relations {
                if let Some(spec) = program.aggregate_for(rel) {
                    aggregate = true;
                    if !body_rels.contains(&spec.input) {
                        body_rels.push(spec.input);
                    }
                }
            }
            strata.push(StratumPlan {
                relations: stratum.relations.clone(),
                rules,
                body_rels,
                negated_rels,
                aggregate,
                descriptors: describe(&node),
                node,
            });
        }
        let mut base_facts: Vec<Option<Relation>> =
            program.relations().iter().map(|_| None).collect();
        for (rel, tuple) in program.facts().iter().chain(extra_facts) {
            let decl = program.relation(*rel);
            if decl.is_edb {
                continue; // EDB facts are updatable; only IDB seeds are protected
            }
            base_facts[rel.index()]
                .get_or_insert_with(|| {
                    Relation::new(RelationSchema::new(*rel, &decl.name, decl.arity, false))
                })
                .insert(tuple.clone())
                .ok();
        }
        Incremental {
            strata,
            base_facts,
            is_edb: program.relations().iter().map(|d| d.is_edb).collect(),
            names: program.relations().iter().map(|d| d.name.clone()).collect(),
        }
    }

    /// Applies one update batch to a live context (which must hold a
    /// completed fixpoint), maintaining every derived stratum.  Returns the
    /// batch's report; counters also accumulate into `ctx.stats.update`.
    pub fn apply(
        &self,
        ctx: &mut ExecContext,
        batch: &UpdateBatch,
    ) -> Result<UpdateReport, ExecError> {
        let started = Instant::now();
        let mut up = UpdateStats {
            batches: 1,
            ..UpdateStats::default()
        };
        let all_rels: Vec<RelId> = (0..ctx.storage.relation_count())
            .map(|i| RelId(i as u32))
            .collect();
        // The delta databases double as the update-delta carrier; a
        // completed run leaves them empty, but clear defensively.
        ctx.storage.clear_deltas(&all_rels)?;

        let schemas = ctx.storage.schemas().to_vec();
        let mut deltas = DeltaSets::new(schemas);

        // --- 1. validate the whole batch before touching anything: a
        // rejected op must not leave a half-applied batch behind (the live
        // session stays usable after an Err).
        for op in batch.ops() {
            let ix = op.rel.index();
            let name = self
                .names
                .get(ix)
                .ok_or_else(|| ExecError::Update(format!("unknown relation {:?}", op.rel)))?;
            if !self.is_edb[ix] {
                return Err(ExecError::Update(format!(
                    "relation {name} is intensional; derived facts are maintained \
                     automatically and cannot be updated directly"
                )));
            }
            let arity = ctx.storage.schema(op.rel)?.arity;
            if op.values.len() != arity {
                return Err(ExecError::Update(format!(
                    "relation {name} has arity {arity}, got a row of width {}",
                    op.values.len()
                )));
            }
        }

        // --- 2. apply the EDB changes physically, tracking net deltas ----
        ctx.storage.advance_epoch();
        for op in batch.ops() {
            match op.sign {
                DeltaSign::Insert => {
                    if ctx.storage.append_derived_row(op.rel, &op.values)? {
                        deltas.record_insert(op.rel, &op.values)?;
                    }
                }
                DeltaSign::Retract => {
                    if ctx.storage.retract_fact_row(op.rel, &op.values)? {
                        deltas.record_retract(op.rel, &op.values)?;
                    }
                }
            }
        }
        for (ix, is_edb) in self.is_edb.iter().enumerate() {
            if *is_edb {
                let rel = RelId(ix as u32);
                up.edb_inserted += deltas.plus_of(rel).map_or(0, Relation::len) as u64;
                up.edb_retracted += deltas.minus_of(rel).map_or(0, Relation::len) as u64;
            }
        }

        // --- 3. maintain each stratum in dependency order ----------------
        for plan in &self.strata {
            let negation_changed = plan.negated_rels.iter().any(|&r| deltas.changed(r));
            let inputs_changed = plan.body_rels.iter().any(|&r| deltas.changed(r));
            if !inputs_changed && !negation_changed {
                continue;
            }
            if plan.aggregate || negation_changed {
                self.recompute_stratum(plan, ctx, &mut deltas, &mut up)?;
                continue;
            }
            if plan.body_rels.iter().any(|&r| deltas.minus_of(r).is_some()) {
                self.deletion_phase(plan, ctx, &mut deltas, &mut up)?;
            }
            if plan.body_rels.iter().any(|&r| deltas.plus_of(r).is_some()) {
                Self::insertion_phase(plan, ctx, &mut deltas)?;
            }
        }

        for (ix, is_edb) in self.is_edb.iter().enumerate() {
            if !*is_edb {
                let rel = RelId(ix as u32);
                up.derived_inserted += deltas.plus_of(rel).map_or(0, Relation::len) as u64;
                up.derived_retracted += deltas.minus_of(rel).map_or(0, Relation::len) as u64;
            }
        }
        // Between batches no RowId or slot watermark is held (every
        // watermark, candidate set and probe of the phases above has been
        // consumed), so this is the safe point to fold accumulated
        // tombstones away — without it a sustained stream would grow pools
        // with total churn, not live data.  Each compaction bumps the
        // relation's generation counter; anything still holding a pre-batch
        // RowId gets a typed `StaleRowId` from the checked accessors
        // instead of silently reading a renumbered row.
        up.compactions += ctx.storage.compact_derived() as u64;
        ctx.stats.update.merge(&up);
        Ok(UpdateReport {
            stats: up,
            total_time: started.elapsed(),
        })
    }

    /// Publishes as insert deltas the live rows of `rel`'s derived database
    /// appended past the slot high-water mark `mark` — the net-new facts of
    /// a maintenance phase — except those in `skip` (facts that were there
    /// before the phase and came back).
    fn publish_new_rows(
        ctx: &ExecContext,
        rel: RelId,
        mark: usize,
        skip: Option<&Relation>,
        deltas: &mut DeltaSets,
    ) -> Result<(), ExecError> {
        let derived = ctx.storage.derived(rel)?;
        for slot in mark..derived.slot_count() {
            let slot = slot as RowId;
            if !derived.is_live(slot) {
                continue;
            }
            let row = derived.row(slot);
            if skip.is_some_and(|set| set.contains_row(row)) {
                continue;
            }
            deltas.record_insert(rel, row)?;
        }
        Ok(())
    }

    /// The slot high-water marks of the stratum's relations: everything a
    /// phase appends past them is new (or came back).
    fn slot_marks(plan: &StratumPlan, ctx: &ExecContext) -> Result<Vec<(RelId, usize)>, ExecError> {
        plan.relations
            .iter()
            .map(|&rel| {
                let derived = ctx.storage.derived(rel)?;
                Ok((rel, derived.slot_count()))
            })
            .collect()
    }

    /// Whether `values` is a protected base fact of `rel` (asserted, not
    /// derived — deletion propagation must never retract it).
    fn is_base_fact(&self, rel: RelId, values: &[Value]) -> bool {
        self.base_facts[rel.index()]
            .as_ref()
            .is_some_and(|base| base.contains_row(values))
    }

    /// The deletion phase of one positive stratum: find the facts the input
    /// retractions take down — against the *old* database — by the witness
    /// check, retract them, and bring back what the new database still
    /// derives.
    fn deletion_phase(
        &self,
        plan: &StratumPlan,
        ctx: &mut ExecContext,
        deltas: &mut DeltaSets,
        up: &mut UpdateStats,
    ) -> Result<(), ExecError> {
        // High-water marks: the batch's EDB insertions are already applied,
        // so the re-derivation propagation below can derive *genuinely new*
        // facts through the new edges — those must be published as insert
        // deltas (re-derived candidates, by contrast, are no net change).
        let marks = Self::slot_marks(plan, ctx)?;
        // Restore the already-applied input retractions for the duration of
        // the lost-derivation joins: a derivation may combine several
        // deleted facts, and every variant must see the other deleted facts
        // at its non-delta positions.  (Already-applied *insertions* stay
        // visible; they can only enlarge the set of flagged heads, which the
        // survivor checks repair.)
        let mut restored: Vec<(RelId, FlatRows)> = Vec::new();
        ctx.storage.advance_epoch();
        for &rel in &plan.body_rels {
            if let Some(minus) = deltas.minus_of(rel) {
                let mut rows = FlatRows::with_capacity(minus.arity(), minus.len());
                for row in minus.iter_rows() {
                    if ctx.storage.append_derived_row(rel, row)? {
                        rows.push(row);
                    }
                }
                restored.push((rel, rows));
            }
        }

        let deleted = self.condemn_unsupported(plan, ctx, deltas, up)?;

        // Undo the temporary restores: the inputs return to their new state.
        for (rel, rows) in restored {
            for row in rows.rows() {
                ctx.storage.retract_fact_row(rel, row)?;
            }
        }

        Self::rederive(plan, ctx, &deleted, deltas, up)?;

        // Publish the genuinely new facts this phase created: live rows
        // appended past the mark that are *not* retracted candidates
        // (candidates re-entering are re-derivations of pre-batch facts).
        for (rel, mark) in marks {
            Self::publish_new_rows(ctx, rel, mark, deleted.get(&rel), deltas)?;
        }
        Ok(())
    }

    /// One frontier round of lost derivations: loads `frontier` as the
    /// delta, runs every delta variant that reads it against the old
    /// database, and hands each head that lost a derivation — once per lost
    /// derivation, with its slot in the derived database — to `on_head`.
    /// Heads the old database does not hold (phantoms through this batch's
    /// insertions) and asserted base facts are not reported.
    ///
    /// Schema lookups go through the checked accessors: a maintenance plan
    /// built for a different program than the live session (a caller
    /// pairing mismatched `Incremental` and `ExecContext` values) surfaces
    /// as a typed error here instead of panicking mid-phase.
    fn lost_derivations(
        &self,
        plan: &StratumPlan,
        ctx: &mut ExecContext,
        frontier: &[(RelId, Relation)],
        mut on_head: impl FnMut(&mut ExecContext, RelId, &[Value], RowId) -> Result<(), ExecError>,
    ) -> Result<(), ExecError> {
        for (rel, facts) in frontier {
            ctx.storage.load_delta(*rel, facts)?;
        }
        for rule in &plan.rules {
            for (delta_rel, exec) in &rule.variants {
                if ctx
                    .storage
                    .relation(DbKind::DeltaKnown, *delta_rel)?
                    .is_empty()
                {
                    continue;
                }
                let head = rule.head_rel;
                for row in exec.collect(ctx)?.rows() {
                    let derived = ctx.storage.derived(head)?;
                    let Some(slot) = derived.find_row_hashed(row, row_hash(row)) else {
                        continue; // phantom derivation via new inserts
                    };
                    if !self.is_base_fact(head, row) {
                        on_head(ctx, head, row, slot)?;
                    }
                }
            }
        }
        let frontier_rels: Vec<RelId> = frontier.iter().map(|(rel, _)| *rel).collect();
        ctx.storage.clear_deltas(&frontier_rels)?;
        Ok(())
    }

    /// The fact set of `head` in a per-stratum map — a typed error when a
    /// rule emitted into a relation outside the stratum being maintained.
    fn stratum_set(
        sets: &mut FxHashMap<RelId, Relation>,
        head: RelId,
    ) -> Result<&mut Relation, ExecError> {
        sets.get_mut(&head).ok_or_else(|| {
            ExecError::Internal(format!(
                "deletion emitted into relation {head:?}, which is not part of the \
                 stratum being maintained"
            ))
        })
    }

    /// Deletion for a positive stratum: frontier rounds flag the heads that
    /// lost a derivation, the witness check decides which of them still
    /// stand, and only those that do not are condemned and carried into the
    /// next frontier.  Returns the condemned facts per relation; nothing is
    /// retracted here (every round reads the old database).
    ///
    /// The condemned set only grows at the end of a round, so a round's
    /// outcome does not depend on the order its heads are checked in; a head
    /// that stood in one round is flagged and checked again whenever a fact
    /// it could have leaned on is condemned later.
    fn condemn_unsupported(
        &self,
        plan: &StratumPlan,
        ctx: &mut ExecContext,
        deltas: &DeltaSets,
        up: &mut UpdateStats,
    ) -> Result<FxHashMap<RelId, Relation>, ExecError> {
        let mut condemned = FxHashMap::default();
        for &rel in &plan.relations {
            condemned.insert(rel, Relation::new(ctx.storage.schema(rel)?.clone()));
        }
        // The first frontier: the input retractions.
        let mut frontier = Vec::new();
        for &rel in &plan.body_rels {
            if let Some(minus) = deltas.minus_of(rel) {
                frontier.push((rel, minus.clone()));
            }
        }
        while !frontier.is_empty() {
            // 1. The heads this frontier takes a derivation from.
            let mut flagged: FxHashMap<RelId, Flagged> = FxHashMap::default();
            self.lost_derivations(plan, ctx, &frontier, |ctx, head, row, slot| {
                if Self::stratum_set(&mut condemned, head)?.contains_row(row) {
                    return Ok(());
                }
                let heads = match flagged.entry(head) {
                    Entry::Occupied(heads) => heads.into_mut(),
                    Entry::Vacant(heads) => {
                        heads.insert(Flagged::new(ctx.storage.schema(head)?.clone()))
                    }
                };
                if heads.rows.insert_row(row)? {
                    let derived = ctx.storage.derived(head)?;
                    heads.epochs.push(derived.epoch_of(slot));
                    heads.supported.push(false);
                }
                Ok(())
            })?;

            // 2. The witness check: the flagged heads drive their own rules'
            // full bodies, each level admitting only facts that may stand
            // under the head; the first derivation to reach the leaf keeps
            // it.
            for (rel, heads) in &flagged {
                ctx.storage.load_delta(*rel, &heads.rows)?;
            }
            for rule in &plan.rules {
                let Some(heads) = flagged.get_mut(&rule.head_rel) else {
                    continue;
                };
                let mut head_epoch = 0;
                let found = Self::run_driver(rule, ctx, up, |storage, level, rel, values, row| {
                    if level == 0 {
                        // The head: not yet supported by an earlier rule.
                        let Some(at) = heads.rows.find_row_hashed(values, row_hash(values)) else {
                            return Ok(false);
                        };
                        head_epoch = heads.epochs[at as usize];
                        return Ok(!heads.supported[at as usize]);
                    }
                    Ok(match condemned.get(&rel) {
                        // A fact of the stratum: below the head in the epoch
                        // order, and not condemned.
                        Some(set) => {
                            storage.derived(rel)?.epoch_of(row) < head_epoch
                                && !set.contains_row(values)
                        }
                        // Any other fact: not retracted by this batch.
                        None => deltas
                            .minus_of(rel)
                            .is_none_or(|minus| !minus.contains_row(values)),
                    })
                })?;
                for head in found.rows() {
                    if let Some(at) = heads.rows.find_row_hashed(head, row_hash(head)) {
                        heads.supported[at as usize] = true;
                    }
                }
            }
            let flagged_rels: Vec<RelId> = flagged.keys().copied().collect();
            ctx.storage.clear_deltas(&flagged_rels)?;

            // 3. Heads left without a witness are condemned and flag their
            // own consequences in the next round (in a relation some rule of
            // the stratum reads — in a non-recursive stratum, none).
            frontier = Vec::new();
            for (rel, heads) in flagged {
                let mut lost = Relation::new(ctx.storage.schema(rel)?.clone());
                let set = Self::stratum_set(&mut condemned, rel)?;
                for (row, supported) in heads.rows.iter_rows().zip(&heads.supported) {
                    up.candidates_checked += 1;
                    if *supported {
                        up.support_survivors += 1;
                    } else {
                        set.insert_row(row)?;
                        lost.insert_row(row)?;
                        up.overdeleted += 1;
                    }
                }
                if !lost.is_empty() && plan.body_rels.contains(&rel) {
                    frontier.push((rel, lost));
                }
            }
        }
        Ok(condemned)
    }

    /// Runs `rule`'s driver as an exists query over the head facts loaded
    /// into delta-known: `admit(storage, level, rel, values, row)` decides
    /// every row that passed its filters (see [`SpecializedQuery::exists`])
    /// and counts into `witness_rows`.  Returns the heads that reached a
    /// leaf, one row each.
    fn run_driver(
        rule: &RulePlan,
        ctx: &mut ExecContext,
        up: &mut UpdateStats,
        mut admit: impl FnMut(&StorageManager, usize, RelId, &[Value], RowId) -> Result<bool, ExecError>,
    ) -> Result<FlatRows, ExecError> {
        let ExecContext { storage, stats, .. } = ctx;
        stats.update.delta_subqueries += 1;
        let (values, len) = rule
            .driver
            .exists(storage, stats, |level, rel, values, row| {
                up.witness_rows += 1;
                admit(storage, level, rel, values, row)
            })?;
        Ok(FlatRows {
            width: rule.driver.head_arity(),
            len: len as usize,
            values,
        })
    }

    /// Retraction and rescue: retract the condemned facts, bring back those
    /// the remaining database still derives in one step (a derivation the
    /// epoch order could not vouch for) via the head-driven driver, then
    /// propagate the rescues to fixpoint.  Rescued and propagated facts are
    /// appended at fresh epochs, above everything they were derived from.
    fn rederive(
        plan: &StratumPlan,
        ctx: &mut ExecContext,
        deleted: &FxHashMap<RelId, Relation>,
        deltas: &mut DeltaSets,
        up: &mut UpdateStats,
    ) -> Result<(), ExecError> {
        if deleted.values().all(Relation::is_empty) {
            return Ok(());
        }
        // Physically retract the condemned facts; for the one-step
        // re-derivation they drive their own rules' full bodies against the
        // remaining database.
        for &rel in &plan.relations {
            if let Some(set) = deleted.get(&rel).filter(|r| !r.is_empty()) {
                for row in set.iter_rows() {
                    ctx.storage.retract_derived_row(rel, row)?;
                }
                ctx.storage.load_delta(rel, set)?;
            }
        }
        let mut seeds: FxHashMap<RelId, Relation> = FxHashMap::default();
        for rule in &plan.rules {
            if ctx
                .storage
                .relation(DbKind::DeltaKnown, rule.head_rel)?
                .is_empty()
            {
                continue;
            }
            // One derivation over the remaining database seeds a head; every
            // fact is admitted, and a head an earlier rule seeded is skipped.
            let seeded = seeds.get(&rule.head_rel);
            let found = Self::run_driver(rule, ctx, up, |_, level, _, values, _| {
                Ok(level > 0 || seeded.is_none_or(|seed| !seed.contains_row(values)))
            })?;
            // Resolve the seed relation through the checked schema accessor
            // once per rule, so a plan/session mismatch is a typed error
            // rather than a panic inside the entry closure.
            if found.len > 0 && !seeds.contains_key(&rule.head_rel) {
                let schema = ctx.storage.schema(rule.head_rel)?.clone();
                seeds.insert(rule.head_rel, Relation::new(schema));
            }
            if let Some(seed) = seeds.get_mut(&rule.head_rel) {
                for head in found.rows() {
                    seed.insert_row(head)?;
                }
            }
        }
        ctx.storage.clear_deltas(&plan.relations)?;
        // Re-insert the rescued facts and propagate them (standard
        // semi-naive continuation within the stratum).  A non-recursive
        // stratum never gets here with a seed: its check was exact.
        if !seeds.is_empty() {
            ctx.storage.advance_epoch();
            for (rel, seed) in &seeds {
                for row in seed.iter_rows() {
                    ctx.storage.append_derived_row(*rel, row)?;
                }
                ctx.storage.load_delta(*rel, seed)?;
            }
            Self::propagate(plan, ctx, &plan.relations)?;
        }
        // Facts still absent are the net retractions the strata above see;
        // re-derived facts existed before, so they are no delta at all.
        for &rel in &plan.relations {
            if let Some(set) = deleted.get(&rel) {
                for row in set.iter_rows() {
                    if ctx.storage.derived(rel)?.contains_row(row) {
                        up.rederived += 1;
                    } else {
                        deltas.record_retract(rel, row)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The insertion phase of one stratum: seed the input insertions as
    /// deltas and run semi-naive continuation; newly derived facts are read
    /// off the row pools' high-water marks afterwards.
    fn insertion_phase(
        plan: &StratumPlan,
        ctx: &mut ExecContext,
        deltas: &mut DeltaSets,
    ) -> Result<(), ExecError> {
        // High-water marks: everything appended past them is net-new.
        let marks = Self::slot_marks(plan, ctx)?;
        let mut seeded: Vec<RelId> = Vec::new();
        for &rel in &plan.body_rels {
            if let Some(plus) = deltas.plus_of(rel) {
                ctx.storage.load_delta(rel, plus)?;
                seeded.push(rel);
            }
        }
        let mut boundary: Vec<RelId> = plan.relations.clone();
        for rel in seeded {
            if !boundary.contains(&rel) {
                boundary.push(rel);
            }
        }
        Self::propagate(plan, ctx, &boundary)?;

        // Collect the net-new facts for downstream strata.
        for (rel, mark) in marks {
            Self::publish_new_rows(ctx, rel, mark, None, deltas)?;
        }
        Ok(())
    }

    /// Runs the stratum's delta variants to fixpoint: whichever relations
    /// currently hold delta-known facts drive their variants, emitted rows
    /// go through the ordinary deduplicating derived-insert, and the
    /// standard swap-and-clear boundary rotates the deltas.
    fn propagate(
        plan: &StratumPlan,
        ctx: &mut ExecContext,
        boundary: &[RelId],
    ) -> Result<(), ExecError> {
        loop {
            for rule in &plan.rules {
                for (delta_rel, exec) in &rule.variants {
                    if ctx
                        .storage
                        .relation(DbKind::DeltaKnown, *delta_rel)?
                        .is_empty()
                    {
                        continue;
                    }
                    for row in exec.collect(ctx)?.rows() {
                        ctx.storage.insert_derived_row(rule.head_rel, row)?;
                    }
                }
            }
            ctx.storage.swap_and_clear(boundary)?;
            ctx.iteration += 1;
            ctx.stats.iterations += 1;
            if ctx.storage.deltas_empty(boundary)? {
                break;
            }
        }
        Ok(())
    }

    /// Wholesale recompute of one stratum (aggregates; negation over
    /// changed relations): snapshot the outputs, clear them, re-run the
    /// stratum's plan subtree against the already-final lower strata, and
    /// publish the before/after diff as this stratum's net deltas.
    fn recompute_stratum(
        &self,
        plan: &StratumPlan,
        ctx: &mut ExecContext,
        deltas: &mut DeltaSets,
        up: &mut UpdateStats,
    ) -> Result<(), ExecError> {
        let mut old: Vec<(RelId, Relation)> = Vec::new();
        for &rel in &plan.relations {
            old.push((rel, ctx.storage.derived(rel)?.clone()));
            ctx.storage.derived_mut(rel)?.clear();
        }
        ctx.storage.clear_deltas(&plan.relations)?;
        // Base facts of the stratum's relations are asserted, not derived:
        // reseed them exactly like context preparation does.
        for &rel in &plan.relations {
            if let Some(base) = self.base_facts[rel.index()].as_ref() {
                for row in base.iter_rows() {
                    ctx.storage.insert_fact_row(rel, row)?;
                }
            }
        }
        Prebuilt(&plan.descriptors).node(&plan.node, ctx)?;
        for (rel, old_rel) in old {
            let removed: Vec<Vec<Value>> = {
                let new_rel = ctx.storage.derived(rel)?;
                old_rel
                    .iter_rows()
                    .filter(|row| !new_rel.contains_row(row))
                    .map(<[Value]>::to_vec)
                    .collect()
            };
            let added: Vec<Vec<Value>> = {
                let new_rel = ctx.storage.derived(rel)?;
                new_rel
                    .iter_rows()
                    .filter(|row| !old_rel.contains_row(row))
                    .map(<[Value]>::to_vec)
                    .collect()
            };
            for row in removed {
                deltas.record_retract(rel, &row)?;
            }
            for row in added {
                deltas.record_insert(rel, &row)?;
            }
        }
        up.strata_recomputed += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpreter::interpret;
    use carac_datalog::parser::parse;
    use carac_datalog::ProgramBuilder;

    const TC_RULES: &str = "Path(x, y) :- Edge(x, y).\n\
                            Path(x, y) :- Edge(x, z), Path(z, y).\n";

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    /// A live session over `source`: evaluated to fixpoint, with its
    /// maintenance plan.
    fn live(source: &str) -> (Program, ExecContext, Incremental) {
        let p = parse(source).unwrap();
        let mut ctx = ExecContext::prepare(&p, true).unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        interpret(&plan, &mut ctx).unwrap();
        let inc = Incremental::new(&p, &[], UpdateKernel::Specialized);
        (p, ctx, inc)
    }

    fn live_tc() -> (Program, ExecContext, Incremental) {
        live(&format!("{TC_RULES}Edge(1, 2). Edge(2, 3). Edge(3, 4)."))
    }

    /// The sorted facts of `rel` in a session.
    fn facts(p: &Program, ctx: &ExecContext, rel: &str) -> Vec<Tuple> {
        let mut rows = ctx.derived_tuples(p.relation_by_name(rel).unwrap());
        rows.sort();
        rows
    }

    /// The sorted facts of `rel` after evaluating `source` from scratch.
    fn scratch(source: &str, rel: &str) -> Vec<Tuple> {
        let (p, ctx, _) = live(source);
        facts(&p, &ctx, rel)
    }

    fn scratch_count(source: &str) -> usize {
        scratch(source, "Path").len()
    }

    /// Applies one batch of edge retractions and insertions.
    fn update_edges(
        p: &Program,
        ctx: &mut ExecContext,
        inc: &Incremental,
        retract: &[(u32, u32)],
        insert: &[(u32, u32)],
    ) -> UpdateStats {
        let edge = p.relation_by_name("Edge").unwrap();
        let mut batch = UpdateBatch::new();
        for &(a, b) in retract {
            batch.retract(edge, Tuple::pair(a, b));
        }
        for &(a, b) in insert {
            batch.insert(edge, Tuple::pair(a, b));
        }
        inc.apply(ctx, &batch).unwrap().stats
    }

    /// The slot of the pair fact `rel(a, b)` in the derived database.
    fn slot_of(p: &Program, ctx: &ExecContext, rel: &str, a: u32, b: u32) -> Option<RowId> {
        let row = [Value::int(a), Value::int(b)];
        let rel = p.relation_by_name(rel).ok()?;
        let derived = ctx.storage.derived(rel).ok()?;
        derived.find_row_hashed(&row, row_hash(&row))
    }

    /// Rebuilds `rel` in one go, so that all of its rows share one epoch.
    fn rebuild_in_one_epoch(p: &Program, ctx: &mut ExecContext, rel: &str) {
        let rel = p.relation_by_name(rel).unwrap();
        let rows = ctx.derived_tuples(rel);
        let derived = ctx.storage.derived_mut(rel);
        let derived = derived.unwrap();
        derived.clear();
        for row in rows {
            derived.insert(row).unwrap();
        }
    }

    #[test]
    fn a_cycle_cannot_keep_itself_alive() {
        // x -> z -> x and x -> y: Path(x, y) and Path(z, y) each have a
        // one-step derivation from the other.  Once x -> y goes, neither
        // derivation lies below its head in the epoch order, so both fall.
        let (p, mut ctx, inc) = live(&format!("{TC_RULES}Edge(1, 3). Edge(3, 1). Edge(1, 2)."));
        let stats = update_edges(&p, &mut ctx, &inc, &[(1, 2)], &[]);
        assert_eq!(
            facts(&p, &ctx, "Path"),
            scratch(&format!("{TC_RULES}Edge(1, 3). Edge(3, 1)."), "Path")
        );
        assert_eq!(facts(&p, &ctx, "Path").len(), 4);
        assert_eq!(stats.overdeleted, 2);
        assert_eq!(stats.candidates_checked, 2);
        assert_eq!(stats.support_survivors, 0);
        assert_eq!(stats.rederived, 0);
        assert_eq!(stats.derived_retracted, 2);
    }

    #[test]
    fn an_equally_short_second_route_keeps_a_fact_in_place() {
        // The diamond a -> b -> d, a -> c -> d: retracting a -> b flags
        // Path(a, b) and Path(a, d); the latter stands on Edge(a, c),
        // Path(c, d) — Path(c, d) is older — and is never retracted.
        let (p, mut ctx, inc) = live(&format!(
            "{TC_RULES}Edge(1, 2). Edge(1, 3). Edge(2, 4). Edge(3, 4)."
        ));
        let before = slot_of(&p, &ctx, "Path", 1, 4);
        assert!(before.is_some());
        let stats = update_edges(&p, &mut ctx, &inc, &[(1, 2)], &[]);
        assert_eq!(
            facts(&p, &ctx, "Path"),
            scratch(
                &format!("{TC_RULES}Edge(1, 3). Edge(2, 4). Edge(3, 4)."),
                "Path"
            )
        );
        assert_eq!(stats.overdeleted, 1);
        assert_eq!(stats.rederived, 0);
        assert_eq!(stats.support_survivors, 1);
        assert_eq!(stats.candidates_checked, 2);
        assert_eq!(stats.derived_retracted, 1);
        assert_eq!(slot_of(&p, &ctx, "Path", 1, 4), before, "Path(1, 4) moved");
    }

    #[test]
    fn a_witness_may_use_an_edge_the_same_batch_inserts() {
        // 1 -> 2 -> 3 and 4 -> 3.  One batch cuts 1 -> 2 and adds 1 -> 4:
        // Path(1, 3) loses its only derivation but stands on the new edge
        // and the older Path(4, 3).
        let (p, mut ctx, inc) = live(&format!("{TC_RULES}Edge(1, 2). Edge(2, 3). Edge(4, 3)."));
        let stats = update_edges(&p, &mut ctx, &inc, &[(1, 2)], &[(1, 4)]);
        assert_eq!(
            facts(&p, &ctx, "Path"),
            scratch(
                &format!("{TC_RULES}Edge(2, 3). Edge(4, 3). Edge(1, 4)."),
                "Path"
            )
        );
        assert_eq!(stats.overdeleted, 1); // Path(1, 2)
        assert_eq!(stats.support_survivors, 1); // Path(1, 3)
        assert_eq!(stats.rederived, 0);
        assert_eq!(stats.derived_retracted, 1);
        assert_eq!(stats.derived_inserted, 1); // Path(1, 4)
    }

    #[test]
    fn epochs_compare_across_the_relations_of_one_stratum() {
        // Odd- and even-length walks recurse through each other.  On the
        // diamond with a tail, Even(1, 4) stands on the older Odd(3, 4) and
        // Odd(1, 5) on the older Even(3, 5) once 1 -> 2 is gone.
        let rules = "Odd(x, y) :- Edge(x, y).\n\
                     Even(x, y) :- Edge(x, z), Odd(z, y).\n\
                     Odd(x, y) :- Edge(x, z), Even(z, y).\n";
        let edges = "Edge(1, 3). Edge(2, 4). Edge(3, 4). Edge(4, 5).";
        let (p, mut ctx, inc) = live(&format!("{rules}Edge(1, 2). {edges}"));
        let stats = update_edges(&p, &mut ctx, &inc, &[(1, 2)], &[]);
        for rel in ["Odd", "Even"] {
            assert_eq!(
                facts(&p, &ctx, rel),
                scratch(&format!("{rules}{edges}"), rel),
                "{rel}"
            );
        }
        assert_eq!(stats.overdeleted, 1); // Odd(1, 2)
        assert_eq!(stats.support_survivors, 2);
        assert_eq!(stats.rederived, 0);

        // And a cycle through both relations still cannot hold itself up:
        // 1 -> 2 -> 1 with the exit 2 -> 3.
        let cycle = "Edge(1, 2). Edge(2, 1).";
        let (p, mut ctx, inc) = live(&format!("{rules}{cycle} Edge(2, 3)."));
        update_edges(&p, &mut ctx, &inc, &[(2, 3)], &[]);
        for rel in ["Odd", "Even"] {
            assert_eq!(
                facts(&p, &ctx, rel),
                scratch(&format!("{rules}{cycle}"), rel),
                "{rel}"
            );
        }
    }

    #[test]
    fn rows_of_equal_epoch_never_vouch_for_each_other() {
        // A state without its epochs (here: Path rebuilt in one go) is
        // still maintained correctly — every flagged head is condemned and
        // comes back through the rescue step, as in classic DRed.
        let (p, mut ctx, inc) = live(&format!(
            "{TC_RULES}Edge(1, 2). Edge(1, 3). Edge(2, 4). Edge(3, 4)."
        ));
        rebuild_in_one_epoch(&p, &mut ctx, "Path");
        let stats = update_edges(&p, &mut ctx, &inc, &[(1, 2)], &[]);
        assert_eq!(
            facts(&p, &ctx, "Path"),
            scratch(
                &format!("{TC_RULES}Edge(1, 3). Edge(2, 4). Edge(3, 4)."),
                "Path"
            )
        );
        assert_eq!(stats.overdeleted, 2);
        assert_eq!(stats.support_survivors, 0);
        assert_eq!(stats.rederived, 1); // Path(1, 4)
    }

    #[test]
    fn insert_propagates_to_fixpoint() {
        let (p, mut ctx, inc) = live_tc();
        let edge = p.relation_by_name("Edge").unwrap();
        let path = p.relation_by_name("Path").unwrap();
        assert_eq!(ctx.derived_count(path), 6);
        let mut batch = UpdateBatch::new();
        batch.insert(edge, Tuple::pair(4, 5));
        let report = inc.apply(&mut ctx, &batch).unwrap();
        assert_eq!(report.stats.edb_inserted, 1);
        // Chain 1..=5: 4+3+2+1 = 10 paths.
        assert_eq!(ctx.derived_count(path), 10);
        assert_eq!(report.stats.derived_inserted, 4);
    }

    #[test]
    fn retract_deletes_and_rederives() {
        let (p, mut ctx, inc) = live_tc();
        let edge = p.relation_by_name("Edge").unwrap();
        let path = p.relation_by_name("Path").unwrap();
        // Add a shortcut so 1 can still reach 3 after 1->2 goes away... it
        // cannot; but 2->3->4 survives and (1,2),(1,3),(1,4) must go.
        let mut batch = UpdateBatch::new();
        batch.retract(edge, Tuple::pair(1, 2));
        let report = inc.apply(&mut ctx, &batch).unwrap();
        assert_eq!(report.stats.edb_retracted, 1);
        assert_eq!(
            ctx.derived_count(path),
            scratch_count(
                "Path(x, y) :- Edge(x, y).\n\
                 Path(x, y) :- Edge(x, z), Path(z, y).\n\
                 Edge(2, 3). Edge(3, 4).",
            )
        );
    }

    #[test]
    fn mixed_batch_on_a_cycle_matches_scratch() {
        let (p, mut ctx, inc) = live_tc();
        let edge = p.relation_by_name("Edge").unwrap();
        let path = p.relation_by_name("Path").unwrap();
        // Close the cycle and cut the middle in one batch.
        let mut batch = UpdateBatch::new();
        batch.insert(edge, Tuple::pair(4, 1));
        batch.retract(edge, Tuple::pair(2, 3));
        inc.apply(&mut ctx, &batch).unwrap();
        assert_eq!(
            ctx.derived_count(path),
            scratch_count(
                "Path(x, y) :- Edge(x, y).\n\
                 Path(x, y) :- Edge(x, z), Path(z, y).\n\
                 Edge(1, 2). Edge(3, 4). Edge(4, 1).",
            )
        );
    }

    #[test]
    fn updating_idb_relations_is_a_typed_error() {
        let (p, mut ctx, inc) = live_tc();
        let edge = p.relation_by_name("Edge").unwrap();
        let path = p.relation_by_name("Path").unwrap();
        // A valid op ahead of the invalid one: the whole batch must be
        // rejected atomically, leaving the session untouched and usable.
        let mut batch = UpdateBatch::new();
        batch.insert(edge, Tuple::pair(4, 5));
        batch.insert(path, Tuple::pair(9, 9));
        let err = inc.apply(&mut ctx, &batch).unwrap_err();
        assert!(matches!(err, ExecError::Update(_)));
        assert!(err.to_string().contains("intensional"));
        assert_eq!(ctx.derived_count(edge), 3, "valid op leaked through");
        assert_eq!(ctx.derived_count(path), 6);
        // Wrong-arity rows are rejected the same way.
        let mut batch = UpdateBatch::new();
        batch.insert_row(edge, vec![carac_storage::Value::int(1)]);
        let err = inc.apply(&mut ctx, &batch).unwrap_err();
        assert!(err.to_string().contains("arity"));
        // The session is still fully usable after rejected batches.
        let mut batch = UpdateBatch::new();
        batch.insert(edge, Tuple::pair(4, 5));
        inc.apply(&mut ctx, &batch).unwrap();
        assert_eq!(ctx.derived_count(path), 10);
    }

    const HOP2: &str = "Hop2(x, z) :- Edge(x, y), Edge(y, z).\n";

    #[test]
    fn a_second_route_keeps_a_non_recursive_head_in_place() {
        // Hop2(1, 4) over 1 -> 2 -> 4 and 1 -> 3 -> 4: cutting 1 -> 2 flags
        // it, the route through 3 vouches for it, and it keeps its slot.
        let rest = "Edge(2, 4). Edge(1, 3). Edge(3, 4).";
        let (p, mut ctx, inc) = live(&format!("{HOP2}Edge(1, 2). {rest}"));
        let before = slot_of(&p, &ctx, "Hop2", 1, 4);
        assert!(before.is_some());
        let stats = update_edges(&p, &mut ctx, &inc, &[(1, 2)], &[]);
        assert_eq!(
            facts(&p, &ctx, "Hop2"),
            scratch(&format!("{HOP2}{rest}"), "Hop2")
        );
        assert_eq!(stats.candidates_checked, 1);
        assert_eq!(stats.support_survivors, 1);
        assert_eq!(stats.overdeleted, 0);
        assert_eq!(stats.derived_retracted, 0);
        assert_eq!(slot_of(&p, &ctx, "Hop2", 1, 4), before);
    }

    #[test]
    fn cutting_every_route_condemns_a_non_recursive_head() {
        let (p, mut ctx, inc) = live(&format!(
            "{HOP2}Edge(1, 2). Edge(2, 4). Edge(1, 3). Edge(3, 4)."
        ));
        let stats = update_edges(&p, &mut ctx, &inc, &[(1, 2), (1, 3)], &[]);
        assert!(facts(&p, &ctx, "Hop2").is_empty());
        assert_eq!(stats.candidates_checked, 1);
        assert_eq!(stats.overdeleted, 1);
        assert_eq!(stats.rederived, 0);
        assert_eq!(stats.derived_retracted, 1);
    }

    #[test]
    fn a_non_recursive_head_may_stand_on_an_edge_the_same_batch_inserts() {
        // 1 -> 2 -> 4 and 3 -> 4.  One batch cuts 1 -> 2 and adds 1 -> 3:
        // Hop2(1, 4) loses its only derivation and stands on the new one.
        let rest = "Edge(2, 4). Edge(3, 4).";
        let (p, mut ctx, inc) = live(&format!("{HOP2}Edge(1, 2). {rest}"));
        let before = slot_of(&p, &ctx, "Hop2", 1, 4);
        let stats = update_edges(&p, &mut ctx, &inc, &[(1, 2)], &[(1, 3)]);
        let expected = scratch(&format!("{HOP2}Edge(1, 3). {rest}"), "Hop2");
        assert_eq!(facts(&p, &ctx, "Hop2"), expected);
        assert_eq!(stats.support_survivors, 1);
        assert_eq!(stats.overdeleted, 0);
        assert_eq!(stats.derived_retracted, 0);
        assert_eq!(stats.derived_inserted, 0);
        assert_eq!(slot_of(&p, &ctx, "Hop2", 1, 4), before);
    }

    #[test]
    fn a_rescued_fact_never_reaches_the_stratum_above() {
        // The diamond of `rows_of_equal_epoch_never_vouch_for_each_other`
        // under a non-recursive stratum reading Path: Path(1, 4) is
        // condemned and rescued, so it is not a net retraction and Up(1, 4)
        // is never even flagged.
        let up = "Up(x, y) :- Path(x, y).\n";
        let edges = "Edge(1, 3). Edge(2, 4). Edge(3, 4).";
        let (p, mut ctx, inc) = live(&format!("{TC_RULES}{up}Edge(1, 2). {edges}"));
        rebuild_in_one_epoch(&p, &mut ctx, "Path");
        let before = slot_of(&p, &ctx, "Up", 1, 4);
        assert!(before.is_some());
        let stats = update_edges(&p, &mut ctx, &inc, &[(1, 2)], &[]);
        for rel in ["Path", "Up"] {
            assert_eq!(
                facts(&p, &ctx, rel),
                scratch(&format!("{TC_RULES}{up}{edges}"), rel),
                "{rel}"
            );
        }
        // Path(1, 2), Path(1, 4) and Up(1, 2) condemned; Path(1, 4) back.
        assert_eq!(stats.overdeleted, 3);
        assert_eq!(stats.rederived, 1);
        assert_eq!(stats.candidates_checked, 3);
        assert_eq!(slot_of(&p, &ctx, "Up", 1, 4), before);
    }

    #[test]
    fn mid_stream_compaction_bumps_generation_and_rejects_stale_ids() {
        // Regression: `compact_derived` between batches renumbers RowIds.
        // A holder re-reading a pre-batch id would silently get whichever
        // row was renumbered into the slot; the generation counter makes
        // the compaction observable and the checked accessor rejects the
        // stale id with a typed error.
        let mut b = ProgramBuilder::new();
        b.relation("Edge", 2);
        b.relation("Path", 2);
        b.rule("Path", &["x", "y"]).when("Edge", &["x", "y"]).end();
        b.rule("Path", &["x", "y"])
            .when("Edge", &["x", "z"])
            .when("Path", &["z", "y"])
            .end();
        // A star: 0 -> i for i in 1..=200 (no transitive paths, so the
        // retraction cone stays exactly the retracted edges' copies).
        for i in 1..=200u32 {
            b.fact_ints("Edge", &[0, i]);
        }
        let p = b.build().unwrap();
        let mut ctx = ExecContext::prepare(&p, true).unwrap();
        let plan = generate_plan(&p, EvalStrategy::SemiNaive);
        interpret(&plan, &mut ctx).unwrap();
        let edge = p.relation_by_name("Edge").unwrap();
        let path = p.relation_by_name("Path").unwrap();
        assert_eq!(ctx.derived_count(path), 200);

        // Hold an id (and the generation it is valid under) of a row that
        // survives the batch.
        let survivor = [Value::int(0), Value::int(175)];
        let hash = carac_storage::pool::row_hash(&survivor);
        let derived = ctx.storage.derived(path).unwrap();
        let held_gen = derived.generation();
        let held_id = derived.find_row_hashed(&survivor, hash).unwrap();

        // Retract 150 of the 200 edges: enough tombstones (150 dead vs 50
        // live) to trip the between-batch compaction trigger on both Edge
        // and Path.
        let inc = Incremental::new(&p, &[], UpdateKernel::Specialized);
        let mut batch = UpdateBatch::new();
        for i in 1..=150u32 {
            batch.retract(edge, Tuple::pair(0, i));
        }
        let report = inc.apply(&mut ctx, &batch).unwrap();
        assert_eq!(ctx.derived_count(path), 50);
        assert!(
            report.stats.compactions >= 1,
            "the churned relations should have been compacted"
        );

        // The held id is now stale: generation moved, typed rejection.
        let derived = ctx.storage.derived(path).unwrap();
        assert!(derived.generation() > held_gen);
        assert_eq!(
            ctx.storage.derived_generation(path).unwrap(),
            derived.generation()
        );
        let err = derived.row_checked(held_id, held_gen).unwrap_err();
        assert!(matches!(
            err,
            carac_storage::StorageError::StaleRowId { .. }
        ));
        // Re-resolving under the current generation works and finds the
        // same fact (under a possibly different id).
        let fresh_id = derived.find_row_hashed(&survivor, hash).unwrap();
        assert_eq!(
            derived.row_checked(fresh_id, derived.generation()).unwrap(),
            &survivor
        );
    }

    /// The mutually recursive CSPA rules (`carac_analysis::cspa`'s
    /// formulation): three relations in one stratum, three-atom joins.
    const CSPA_RULES: &str = "VaFlow(v2, v1) :- Assign(v2, v1).\n\
        VaFlow(v1, v1) :- Assign(v1, v2).\n\
        VaFlow(v1, v1) :- Assign(v2, v1).\n\
        MAlias(v1, v1) :- Assign(v2, v1).\n\
        MAlias(v1, v1) :- Assign(v1, v2).\n\
        VaFlow(v1, v2) :- Assign(v1, v3), MAlias(v3, v2).\n\
        VaFlow(v1, v2) :- VaFlow(v1, v3), VaFlow(v3, v2).\n\
        MAlias(v1, v0) :- Derefr(v2, v1), VAlias(v2, v3), Derefr(v3, v0).\n\
        VAlias(v1, v2) :- VaFlow(v3, v1), VaFlow(v3, v2).\n\
        VAlias(v1, v2) :- MAlias(v3, v0), VaFlow(v3, v1), VaFlow(v0, v2).\n\
        Derefr(1, 2). Derefr(2, 3). Derefr(3, 1). Derefr(4, 4).\n";

    /// `CSPA_RULES` over the given `Assign` edges.
    fn cspa_source(assign: &[(u32, u32)]) -> String {
        let mut source = String::from(CSPA_RULES);
        for (a, b) in assign {
            source.push_str(&format!("Assign({a}, {b}).\n"));
        }
        source
    }

    #[test]
    fn witness_driver_keys_hold_the_head_variables() -> TestResult {
        // Keys stay on under the exists sink: a key names one head, and the
        // test reads only a row, its slot and that head's epoch, so a key
        // expanded without a witness has none for a later row either.
        let p = parse(&cspa_source(&[(1, 2)]))?;
        let mut keyed = 0;
        for rule in p.rules() {
            let plan = driver_query(rule).projection_plan();
            for key in plan.keys.iter().flatten() {
                keyed += 1;
                for v in rule.head.terms.iter().filter_map(|t| t.as_var()) {
                    assert!(key.contains(&v), "{:?}: {key:?} misses {v:?}", rule.id);
                }
            }
        }
        assert!(keyed > 0);
        Ok(())
    }

    #[test]
    fn a_head_stands_on_its_last_derivation_in_join_order() {
        // Hop2(1, 4) over 1 -> 3 -> 4, 1 -> 5 -> 4 and 1 -> 6 -> 4.  The
        // batch cuts 3 -> 4 and 5 -> 4: the search rejects the first two
        // routes at their second edge and the third is the witness.
        let rest = "Edge(1, 3). Edge(1, 5). Edge(1, 6). Edge(6, 4).";
        let (p, mut ctx, inc) = live(&format!("{HOP2}{rest} Edge(3, 4). Edge(5, 4)."));
        let before = slot_of(&p, &ctx, "Hop2", 1, 4);
        let stats = update_edges(&p, &mut ctx, &inc, &[(3, 4), (5, 4)], &[]);
        assert_eq!(
            facts(&p, &ctx, "Hop2"),
            scratch(&format!("{HOP2}{rest}"), "Hop2")
        );
        assert_eq!(stats.candidates_checked, 1);
        assert_eq!(stats.support_survivors, 1);
        assert_eq!(stats.overdeleted, 0);
        assert_eq!(slot_of(&p, &ctx, "Hop2", 1, 4), before);
        // The head, its three first edges, and three second edges of which
        // only 6 -> 4 is admitted.
        assert_eq!(stats.witness_rows, 7);
    }

    #[test]
    fn a_head_whose_only_derivation_is_younger_is_condemned_and_rescued() -> TestResult {
        // Path(1, 4) is derived over 1 -> 2 -> 4; a later batch adds the
        // route 1 -> 3 -> 4, whose Path(3, 4) is younger than Path(1, 4).
        // Once 1 -> 2 goes, that route is all Path(1, 4) has left: the
        // witness check cannot vouch for it, the rescue step brings it back.
        let (p, mut ctx, inc) = live(&format!("{TC_RULES}Edge(1, 2). Edge(2, 4)."));
        update_edges(&p, &mut ctx, &inc, &[], &[(1, 3), (3, 4)]);
        let path = p.relation_by_name("Path")?;
        let epoch = |ctx: &ExecContext, a, b| -> Result<u32, Box<dyn std::error::Error>> {
            let slot = slot_of(&p, ctx, "Path", a, b).ok_or("Path fact missing")?;
            Ok(ctx.storage.derived(path)?.epoch_of(slot))
        };
        assert!(epoch(&ctx, 3, 4)? > epoch(&ctx, 1, 4)?);
        let stats = update_edges(&p, &mut ctx, &inc, &[(1, 2)], &[]);
        assert_eq!(
            facts(&p, &ctx, "Path"),
            scratch(
                &format!("{TC_RULES}Edge(2, 4). Edge(1, 3). Edge(3, 4)."),
                "Path"
            )
        );
        assert_eq!(stats.candidates_checked, 2); // Path(1, 2), Path(1, 4)
        assert_eq!(stats.support_survivors, 0);
        assert_eq!(stats.overdeleted, 2);
        assert_eq!(stats.rederived, 1); // Path(1, 4)
        assert_eq!(stats.derived_retracted, 1); // Path(1, 2)
        assert!(epoch(&ctx, 1, 4)? > epoch(&ctx, 3, 4)?);
        Ok(())
    }

    #[test]
    fn cspa_updates_skip_expanded_keys_and_match_scratch() -> TestResult {
        let mut assign: Vec<(u32, u32)> = vec![(1, 2), (2, 3), (3, 4), (4, 1), (2, 5), (5, 3)];
        let (p, mut ctx, inc) = live(&cspa_source(&assign));
        let rel = p.relation_by_name("Assign")?;
        let before = ctx.stats.projection_skips;
        // (retracted, inserted) Assign edges per batch.
        let batches = [
            (vec![(3, 4)], vec![]),
            (vec![], vec![(6, 2), (1, 6)]),
            (vec![(2, 3)], vec![(3, 4)]),
            (vec![(1, 2), (6, 2)], vec![]),
        ];
        for (retract, insert) in &batches {
            let mut batch = UpdateBatch::new();
            for &(a, b) in retract {
                batch.retract(rel, Tuple::pair(a, b));
                assign.retain(|&edge| edge != (a, b));
            }
            for &(a, b) in insert {
                batch.insert(rel, Tuple::pair(a, b));
                assign.push((a, b));
            }
            inc.apply(&mut ctx, &batch)?;
            for output in ["VaFlow", "VAlias", "MAlias"] {
                assert_eq!(
                    facts(&p, &ctx, output),
                    scratch(&cspa_source(&assign), output),
                    "{output} after -{retract:?} +{insert:?}"
                );
            }
        }
        assert!(ctx.stats.projection_skips > before);
        Ok(())
    }

    #[test]
    fn noop_updates_report_nothing() {
        let (p, mut ctx, inc) = live_tc();
        let edge = p.relation_by_name("Edge").unwrap();
        let path = p.relation_by_name("Path").unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert(edge, Tuple::pair(1, 2)); // already present
        batch.retract(edge, Tuple::pair(7, 7)); // never present
        let report = inc.apply(&mut ctx, &batch).unwrap();
        assert_eq!(report.stats.edb_inserted, 0);
        assert_eq!(report.stats.edb_retracted, 0);
        assert_eq!(ctx.derived_count(path), 6);
    }

    #[test]
    fn update_batch_encode_decode_roundtrips() {
        let mut batch = UpdateBatch::new();
        batch.insert(RelId(0), Tuple::pair(1, 2));
        batch.retract(RelId(3), Tuple::from_ints(&[7, 8, 9]));
        batch.insert_row(RelId(1), Vec::new()); // arity-0 row
        let decoded = UpdateBatch::decode(&batch.encode()).unwrap();
        assert_eq!(decoded, batch);
        // The empty batch roundtrips too.
        assert_eq!(
            UpdateBatch::decode(&UpdateBatch::new().encode()).unwrap(),
            UpdateBatch::new()
        );
    }

    #[test]
    fn update_batch_decode_rejects_malformed_payloads() {
        let mut batch = UpdateBatch::new();
        batch.insert(RelId(0), Tuple::pair(1, 2));
        let bytes = batch.encode();
        // Every strict prefix is a typed error, never a panic.
        for cut in 0..bytes.len() {
            let err = UpdateBatch::decode(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, ExecError::Update(_)), "cut at {cut}: {err}");
        }
        // Trailing garbage is rejected.
        let mut padded = bytes.clone();
        padded.push(0xAB);
        assert!(matches!(
            UpdateBatch::decode(&padded).unwrap_err(),
            ExecError::Update(_)
        ));
        // An invalid sign byte is rejected (offset 4 count + 4 rel = 8).
        let mut bad_sign = bytes.clone();
        bad_sign[8] = 9;
        let err = UpdateBatch::decode(&bad_sign).unwrap_err();
        assert!(err.to_string().contains("sign"), "got: {err}");
        // An absurd op count hits truncation, not an allocation blow-up.
        let huge = u32::MAX.to_le_bytes().to_vec();
        assert!(matches!(
            UpdateBatch::decode(&huge).unwrap_err(),
            ExecError::Update(_)
        ));
    }

    #[test]
    fn mismatched_maintenance_plan_is_a_typed_error() {
        // Regression (robustness): pairing an `Incremental` built for one
        // program with a live context prepared from another used to panic
        // (`expect("stratum relation")` / `expect("schema match")` /
        // `expect("head schema")` inside the maintenance phases).  The
        // checked accessors now surface a typed error on both the deletion
        // and insertion paths, and the session itself stays usable.
        let (p, mut ctx, inc) = live_tc();
        let edge = p.relation_by_name("Edge").unwrap();
        let path = p.relation_by_name("Path").unwrap();
        let bigger = parse(
            "Path(x, y) :- Edge(x, y).\n\
             Path(x, y) :- Edge(x, z), Path(z, y).\n\
             Wide(x, y) :- Edge(x, y), Path(x, y).\n\
             Edge(1, 2). Edge(2, 3). Edge(3, 4).",
        )
        .unwrap();
        let mismatched = Incremental::new(&bigger, &[], UpdateKernel::Specialized);
        // Deletion path: the Wide stratum references a relation the session
        // never registered.
        let mut batch = UpdateBatch::new();
        batch.retract(edge, Tuple::pair(1, 2));
        let err = mismatched.apply(&mut ctx, &batch).unwrap_err();
        assert!(matches!(err, ExecError::Storage(_)), "got: {err}");
        // Insertion path: same mismatch, insert side.
        let mut batch = UpdateBatch::new();
        batch.insert(edge, Tuple::pair(4, 5));
        let err = mismatched.apply(&mut ctx, &batch).unwrap_err();
        assert!(matches!(err, ExecError::Storage(_)), "got: {err}");
        // The matched plan still maintains the session afterwards.  (The
        // mismatched applies above did maintain the Path stratum before
        // erroring on the unknown one: Edge is now {2-3, 3-4, 4-5}.)
        let mut batch = UpdateBatch::new();
        batch.insert(edge, Tuple::pair(1, 2));
        inc.apply(&mut ctx, &batch).unwrap();
        // Full chain 1..=5 restored: 4+3+2+1 paths.
        assert_eq!(ctx.derived_count(path), 10);
    }

    #[test]
    fn retract_then_insert_cancels() {
        let (p, mut ctx, inc) = live_tc();
        let edge = p.relation_by_name("Edge").unwrap();
        let path = p.relation_by_name("Path").unwrap();
        let mut batch = UpdateBatch::new();
        batch.retract(edge, Tuple::pair(2, 3));
        batch.insert(edge, Tuple::pair(2, 3));
        let report = inc.apply(&mut ctx, &batch).unwrap();
        assert_eq!(report.stats.edb_inserted, 0);
        assert_eq!(report.stats.edb_retracted, 0);
        assert_eq!(ctx.derived_count(path), 6);
    }
}
