//! The relation catalog and the semi-naive storage manager.
//!
//! Bottom-up semi-naive evaluation (paper §II-A, §V-D) reads every relation
//! through three *databases*:
//!
//! * **derived** — every fact discovered so far (plus the EDB facts),
//! * **delta-known** — the facts discovered in the *previous* iteration
//!   (read-only during the current iteration),
//! * **delta-new** — the facts discovered in the *current* iteration
//!   (write-only during the current iteration).
//!
//! They are not three stores.  Each relation keeps **one** row pool
//! ([`Relation`]), and the three databases are slot ranges of it
//! ([`RelationView`]): derived is the published slots, delta-known is the
//! run of slots the last iteration boundary published, delta-new is the
//! *pending* rows appended past the published ones.  A derived fact is
//! emitted with one find-or-insert into the pool
//! ([`StorageManager::insert_derived_row`]) and stays invisible to every
//! read of derived until the boundary ([`StorageManager::swap_and_clear`])
//! indexes, shards and publishes the pending rows as one run — which *is*
//! the next iteration's delta-known.  No row is ever copied from one
//! database into another, and no delta has an index of its own: a probe of
//! delta-known takes the part of derived's posting list that lies in the
//! run, found by binary search because posting lists are slot-ordered.
//!
//! Splitting the delta into a read-only and a write-only half is what lets
//! any IROp boundary act as a safe point and enables asynchronous
//! compilation: no operator ever observes a relation it is concurrently
//! writing.
//!
//! Every boundary also opens a new **epoch**: the manager bumps one
//! session-monotone counter and the rows it publishes carry it
//! ([`Relation::epoch_of`]).  A fact's epoch is therefore above the epoch of
//! every same-stratum fact its first derivation read — the well-founded
//! order the incremental deletion phase uses to tell a fact that still has
//! independent support from one that only leans on its own consequences.
//!
//! The incremental layer's deltas are arbitrary fact sets rather than runs:
//! [`StorageManager::load_delta`] hands one over as an explicit, unindexed
//! delta-known set, emptied at the next boundary or by
//! [`StorageManager::clear_deltas`].

use crate::error::StorageError;
use crate::hasher::FxHashMap;
use crate::relation::{Relation, RelationView};
use crate::schema::{RelId, RelationSchema};
use crate::stats::StatsSnapshot;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// Which of the three evaluation databases an operator reads from or writes
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DbKind {
    /// All facts discovered so far (including EDB facts).
    Derived,
    /// Facts discovered in the previous iteration (read side of the delta).
    DeltaKnown,
    /// Facts discovered in the current iteration (write side of the delta).
    DeltaNew,
}

impl DbKind {
    /// All database kinds, useful for exhaustive iteration in tests.
    pub const ALL: [DbKind; 3] = [DbKind::Derived, DbKind::DeltaKnown, DbKind::DeltaNew];
}

/// A set of relations addressed by [`RelId`].
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: Vec<Relation>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Registers a relation.  Ids must be registered densely in order
    /// (0, 1, 2, ...), which the frontend guarantees.
    pub fn register(&mut self, schema: RelationSchema) {
        debug_assert_eq!(
            schema.id.index(),
            self.relations.len(),
            "relations must be registered in id order"
        );
        self.relations.push(Relation::new(schema));
    }

    /// Number of registered relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Immutable access to a relation.
    #[inline]
    pub fn relation(&self, id: RelId) -> Result<&Relation> {
        self.relations
            .get(id.index())
            .ok_or(StorageError::UnknownRelation(id))
    }

    /// Mutable access to a relation.
    pub fn relation_mut(&mut self, id: RelId) -> Result<&mut Relation> {
        self.relations
            .get_mut(id.index())
            .ok_or(StorageError::UnknownRelation(id))
    }

    /// Iterator over all relations.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.iter()
    }
}

/// The storage manager owns the relations (one [`Database`]), the explicit
/// delta sets of the incremental layer and the schema catalog, and
/// implements the iteration-boundary operations used by the execution
/// layer.
#[derive(Debug, Clone)]
pub struct StorageManager {
    schemas: Vec<RelationSchema>,
    derived: Database,
    /// Per relation, the explicit delta set [`StorageManager::load_delta`]
    /// fills: while it holds rows it is read as delta-known instead of the
    /// relation's last run.  The next boundary or
    /// [`StorageManager::clear_deltas`] empties it, keeping its capacity for
    /// the next maintenance phase.
    delta_sets: Vec<Relation>,
    /// Whether hash indexes are maintained (the indexed/unindexed axis of
    /// the evaluation).
    use_indexes: bool,
    /// The current epoch: stamped on every row appended to a derived
    /// relation, bumped (saturating) at every iteration boundary.
    epoch: u32,
}

impl StorageManager {
    /// Creates an empty storage manager.  `use_indexes` controls whether
    /// join-key indexes requested via [`StorageManager::add_index`] are
    /// honoured.
    pub fn new(use_indexes: bool) -> Self {
        StorageManager {
            schemas: Vec::new(),
            derived: Database::new(),
            delta_sets: Vec::new(),
            use_indexes,
            epoch: 0,
        }
    }

    /// The current epoch (0 until the first iteration boundary).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Opens a new epoch and returns it: rows appended to derived relations
    /// from now on rank above every row already there.  Called by
    /// [`StorageManager::swap_and_clear`]; callers that append to a derived
    /// relation outside an iteration boundary
    /// ([`StorageManager::append_derived_row`]) open one first.  The counter
    /// saturates instead of wrapping: rows of equal epoch never vouch for
    /// each other, so a saturated session loses pruning power, not
    /// correctness.
    pub fn advance_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.saturating_add(1);
        self.epoch
    }

    /// Raises the counter to at least `epoch` (snapshot restore: new rows
    /// must rank above every restored one).
    pub(crate) fn resume_epoch(&mut self, epoch: u32) {
        self.epoch = self.epoch.max(epoch);
    }

    /// Whether indexes are enabled.
    pub fn indexes_enabled(&self) -> bool {
        self.use_indexes
    }

    /// Registers a relation and returns its id.
    pub fn register(&mut self, name: impl Into<String>, arity: usize, is_edb: bool) -> RelId {
        let id = RelId(u32::try_from(self.schemas.len()).expect("too many relations"));
        let schema = RelationSchema::new(id, name, arity, is_edb);
        self.schemas.push(schema.clone());
        self.delta_sets.push(Relation::new(schema.clone()));
        self.derived.register(schema);
        id
    }

    /// The schema catalog.
    pub fn schemas(&self) -> &[RelationSchema] {
        &self.schemas
    }

    /// Looks up a schema by id.
    pub fn schema(&self, id: RelId) -> Result<&RelationSchema> {
        self.schemas
            .get(id.index())
            .ok_or(StorageError::UnknownRelation(id))
    }

    /// Looks up a relation id by name.
    pub fn rel_by_name(&self, name: &str) -> Result<RelId> {
        self.schemas
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.id)
            .ok_or_else(|| StorageError::UnknownRelationName(name.to_string()))
    }

    /// Number of registered relations.
    pub fn relation_count(&self) -> usize {
        self.schemas.len()
    }

    /// Requests a hash index on `(rel, column)`.  The one index serves
    /// every database of the relation (see the module docs).  No-op when
    /// the manager was created with indexes disabled.
    pub fn add_index(&mut self, rel: RelId, column: usize) -> Result<()> {
        if !self.use_indexes {
            return Ok(());
        }
        self.derived.relation_mut(rel)?.add_index(column)
    }

    /// Requests a composite hash index on `(rel, columns)`, serving every
    /// database of the relation.  No-op when indexes are disabled.
    pub fn add_composite_index(&mut self, rel: RelId, columns: &[usize]) -> Result<()> {
        if !self.use_indexes {
            return Ok(());
        }
        self.derived.relation_mut(rel)?.add_composite_index(columns)
    }

    /// Shards every relation into `shard_count` hash partitions keyed on
    /// the first column, the default join key.  `shard_count <= 1` disables
    /// sharding.  Nullary relations are left unsharded — there is nothing
    /// to partition by.  The partitions serve derived and delta-known alike;
    /// explicit delta sets stay unsharded.
    ///
    /// Sharding only adds a partition view over the row offsets; scans,
    /// lookups and insertion order are unaffected, so serial evaluation on a
    /// sharded manager is identical to evaluation on an unsharded one.
    pub fn set_sharding(&mut self, shard_count: usize) -> Result<()> {
        for schema in &self.schemas {
            if schema.arity == 0 {
                continue;
            }
            self.derived
                .relation_mut(schema.id)?
                .set_sharding(shard_count, 0)?;
        }
        Ok(())
    }

    /// The shard count configured for `rel` (1 when unsharded).
    pub fn shard_count(&self, rel: RelId) -> usize {
        self.derived.relation(rel).map_or(1, Relation::shard_count)
    }

    /// The rows of `rel` in database `kind`: the relation with the slot
    /// range of that database (see the module docs), or the explicit delta
    /// set loaded for it.
    #[inline]
    pub fn relation(&self, kind: DbKind, rel: RelId) -> Result<RelationView<'_>> {
        let relation = self.derived.relation(rel)?;
        Ok(match kind {
            DbKind::Derived => relation.view(),
            DbKind::DeltaKnown => match self.delta_sets.get(rel.index()) {
                Some(set) if !set.is_empty() => set.view(),
                _ => relation.run_view(),
            },
            DbKind::DeltaNew => relation.pending_view(),
        })
    }

    /// Live rows of `rel` in database `kind`, 0 if the relation is unknown
    /// (defensive for stats paths).
    pub fn cardinality(&self, kind: DbKind, rel: RelId) -> usize {
        self.relation(kind, rel).map_or(0, |view| view.len())
    }

    /// Relation `rel` itself: its published rows are the derived database.
    pub fn derived(&self, rel: RelId) -> Result<&Relation> {
        self.derived.relation(rel)
    }

    /// Mutable access to relation `rel` — the restore path of the snapshot
    /// subsystem and the stratum recompute of the incremental layer rebuild
    /// rows through this.  Writing rows straight into it while rows are
    /// pending is a [`StorageError::PendingRows`].
    pub fn derived_mut(&mut self, rel: RelId) -> Result<&mut Relation> {
        self.derived.relation_mut(rel)
    }

    /// Inserts an EDB fact: the tuple lands in derived and joins
    /// delta-known, so that the first semi-naive iteration sees every base
    /// fact as "new".
    pub fn insert_fact(&mut self, rel: RelId, tuple: Tuple) -> Result<bool> {
        self.insert_fact_row(rel, tuple.values())
    }

    /// [`StorageManager::insert_fact`] over a raw row slice: one pooled
    /// append, no tuple clones anywhere on the path.  The delta-known run
    /// grows over the row; where it cannot (the run does not end where the
    /// row lands), delta-known continues as an explicit set.
    pub fn insert_fact_row(&mut self, rel: RelId, values: &[Value]) -> Result<bool> {
        let fresh = self.append_derived_row(rel, values)?;
        if fresh
            && (!self.delta_sets[rel.index()].is_empty()
                || !self.derived.relation_mut(rel)?.extend_run())
        {
            self.delta_set_mut(rel)?.insert_row(values)?;
        }
        Ok(fresh)
    }

    /// Inserts a derived fact produced during the current iteration.  The
    /// fact becomes a pending row of `rel` (delta-new) only if it is neither
    /// derived nor already pending (semi-naive deduplication); the derived
    /// database itself only sees it after the next [`swap_and_clear`].
    ///
    /// Returns `true` if the fact was genuinely new.
    ///
    /// [`swap_and_clear`]: StorageManager::swap_and_clear
    pub fn insert_derived(&mut self, rel: RelId, tuple: Tuple) -> Result<bool> {
        self.insert_derived_row(rel, tuple.values())
    }

    /// [`StorageManager::insert_derived`] over a raw row slice — the form
    /// the join kernels emit through: one find-or-insert into the
    /// relation's pool, whose dedup table holds the derived and the pending
    /// rows alike.  A duplicate costs that one probe and writes nothing.
    pub fn insert_derived_row(&mut self, rel: RelId, values: &[Value]) -> Result<bool> {
        let relation = self.derived.relation_mut(rel)?;
        if values.len() != relation.arity() {
            return Err(StorageError::ArityMismatch {
                relation: relation.name().to_string(),
                expected: relation.arity(),
                actual: values.len(),
            });
        }
        Ok(relation.insert_pending(values))
    }

    /// Appends a row to the derived database only, in the current epoch —
    /// the direct-append path of the incremental subsystem (applied EDB
    /// insertions, rescued facts).  Returns `true` if the row was new.
    pub fn append_derived_row(&mut self, rel: RelId, values: &[Value]) -> Result<bool> {
        let derived = self.derived.relation_mut(rel)?;
        derived.begin_epoch(self.epoch);
        derived.insert_row(values)
    }

    /// Retracts an EDB (or base) fact from the derived database, unlinking
    /// it from every index and shard partition.  Returns `true` if the fact
    /// was present.  Derived consequences are *not* touched — maintaining
    /// them is the job of the incremental subsystem in `carac-exec`.
    pub fn retract_fact_row(&mut self, rel: RelId, values: &[Value]) -> Result<bool> {
        self.derived.relation_mut(rel)?.retract_row(values)
    }

    /// Retracts a derived fact from the derived database (the physical side
    /// of over-deletion).  Identical to [`StorageManager::retract_fact_row`];
    /// named separately so call sites document intent.
    pub fn retract_derived_row(&mut self, rel: RelId, values: &[Value]) -> Result<bool> {
        self.derived.relation_mut(rel)?.retract_row(values)
    }

    /// Iteration boundary: every listed relation publishes its pending rows
    /// — indexes and shards them and stamps them with a new epoch
    /// ([`StorageManager::advance_epoch`]) as one run — and that run
    /// becomes its delta-known (an explicit delta set is emptied).  No row
    /// is copied or rehashed: delta-new is empty again because its rows are
    /// now published.
    ///
    /// Returns the number of facts published across all listed relations;
    /// the caller uses "0" as the fixpoint signal.
    pub fn swap_and_clear(&mut self, relations: &[RelId]) -> Result<usize> {
        let mut merged = 0;
        let epoch = self.advance_epoch();
        for &rel in relations {
            merged += self.derived.relation_mut(rel)?.publish(epoch);
            self.empty_delta_set(rel);
        }
        Ok(merged)
    }

    /// Whether every listed relation's delta-known database is empty — the
    /// fixpoint test used by `DoWhileOp`.
    pub fn deltas_empty(&self, relations: &[RelId]) -> Result<bool> {
        for &rel in relations {
            if !self.relation(DbKind::DeltaKnown, rel)?.is_empty() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Clears the delta databases of the given relations: pending rows are
    /// dropped, and the delta-known run and explicit delta sets are
    /// emptied.
    pub fn clear_deltas(&mut self, relations: &[RelId]) -> Result<()> {
        for &rel in relations {
            self.derived.relation_mut(rel)?.clear_delta();
            self.empty_delta_set(rel);
        }
        Ok(())
    }

    /// Empties `rel`'s explicit delta set (a known id), so delta-known is
    /// its run again.
    fn empty_delta_set(&mut self, rel: RelId) {
        let set = &mut self.delta_sets[rel.index()];
        if !set.is_empty() {
            set.clear();
        }
    }

    /// Adds the rows of `facts` to `rel`'s delta-known database as an
    /// explicit delta set — how the incremental layer hands its seeds,
    /// frontiers and driver sets (arbitrary fact sets, not runs) to the
    /// join kernels.  The set is unindexed (a maintenance query reads its
    /// delta at join level 0, by a scan); a first set starts from the rows
    /// of the current run, so delta-known only ever grows.  Returns the
    /// number of rows added.
    pub fn load_delta(&mut self, rel: RelId, facts: &Relation) -> Result<usize> {
        self.delta_set_mut(rel)?.union_in_place(facts)
    }

    /// `rel`'s explicit delta set, seeded with its current run if empty.
    fn delta_set_mut(&mut self, rel: RelId) -> Result<&mut Relation> {
        let relation = self.derived.relation(rel)?;
        let set = &mut self.delta_sets[rel.index()];
        if set.is_empty() {
            for row in relation.run_view().iter_rows() {
                set.insert_row(row)?;
            }
        }
        Ok(set)
    }

    /// Stratum-boundary aggregation: groups the rows of `input`'s *derived*
    /// database by every column **not** listed in `aggs`, folds the listed
    /// columns with their aggregation functions, and inserts one result row
    /// per group into `output`'s delta-new database (deduplicated against
    /// derived, like every other derived insert).
    ///
    /// The output row layout matches the input layout: group columns keep
    /// their value, aggregate columns carry the finalized aggregate.  Group
    /// keys are hashed through the same per-row hash unit as the row pool
    /// ([`crate::pool::row_hash`]), with full-key equality confirmation on
    /// collision.
    ///
    /// Returns `(groups_emitted, rows_inserted)`.
    pub fn aggregate_into(
        &mut self,
        input: RelId,
        output: RelId,
        aggs: &[(usize, crate::ops::AggFunc)],
    ) -> Result<(u64, u64)> {
        let (group_cols, groups, order) = self.aggregate_groups(input, output, aggs)?;
        let arity = self.derived.relation(input)?.arity();

        // Emit one row per group, in first-seen group order (deterministic
        // for a given input row order).
        let mut out_row = vec![Value::default(); arity];
        let mut emitted = 0u64;
        let mut inserted = 0u64;
        for (hash, slot) in order {
            let (key, accs) = &groups[&hash][slot];
            for (i, &c) in group_cols.iter().enumerate() {
                out_row[c] = key[i];
            }
            for (i, &(col, func)) in aggs.iter().enumerate() {
                out_row[col] = func.finish(accs[i]);
            }
            emitted += 1;
            if self.insert_derived_row(output, &out_row)? {
                inserted += 1;
            }
        }
        Ok((emitted, inserted))
    }

    /// In-recursion (monotone lattice) aggregation: like
    /// [`StorageManager::aggregate_into`], but the fold runs *inside* the
    /// input's fixpoint loop, so `output` may already hold a previous
    /// optimum per group.  For each group the freshly folded row is compared
    /// against the group's existing derived row (the output relation is
    /// written only by its fold, so each group key has at most one):
    ///
    /// * unchanged groups emit nothing — they stay out of the delta and do
    ///   not re-drive the recursion;
    /// * improved groups retract the old optimum from the derived database
    ///   and insert the new row into delta-new, which re-enters the loop at
    ///   the next iteration boundary.
    ///
    /// Monotonicity of the four fold functions over a growing input set
    /// (min only decreases, max/sum/count only increase, the latter two
    /// saturating) guarantees a retracted value is never re-derived and the
    /// per-group value chain is finite, so the fixpoint terminates.
    ///
    /// Returns `(groups_changed, rows_inserted)`.
    pub fn aggregate_lattice_into(
        &mut self,
        input: RelId,
        output: RelId,
        aggs: &[(usize, crate::ops::AggFunc)],
    ) -> Result<(u64, u64)> {
        let (group_cols, groups, order) = self.aggregate_groups(input, output, aggs)?;
        let arity = self.derived.relation(input)?.arity();

        // Current optimum per group, read from the output's derived rows.
        type OutBucket = Vec<(Vec<Value>, Vec<Value>)>;
        let mut current: FxHashMap<u64, OutBucket> = FxHashMap::default();
        {
            let output_rel = self.derived.relation(output)?;
            let mut key_buf: Vec<Value> = Vec::with_capacity(group_cols.len());
            for row in output_rel.iter_rows() {
                key_buf.clear();
                key_buf.extend(group_cols.iter().map(|&c| row[c]));
                let hash = crate::pool::row_hash(&key_buf);
                current
                    .entry(hash)
                    .or_default()
                    .push((key_buf.clone(), row.to_vec()));
            }
        }

        let mut out_row = vec![Value::default(); arity];
        let mut changed = 0u64;
        let mut inserted = 0u64;
        for (hash, slot) in order {
            let (key, accs) = &groups[&hash][slot];
            for (i, &c) in group_cols.iter().enumerate() {
                out_row[c] = key[i];
            }
            for (i, &(col, func)) in aggs.iter().enumerate() {
                out_row[col] = func.finish(accs[i]);
            }
            let existing = current
                .get(&hash)
                .and_then(|bucket| bucket.iter().find(|(k, _)| k == key))
                .map(|(_, row)| row.clone());
            match existing {
                Some(old) if old == out_row => {}
                Some(old) => {
                    self.retract_derived_row(output, &old)?;
                    changed += 1;
                    if self.insert_derived_row(output, &out_row)? {
                        inserted += 1;
                    }
                }
                None => {
                    changed += 1;
                    if self.insert_derived_row(output, &out_row)? {
                        inserted += 1;
                    }
                }
            }
        }
        Ok((changed, inserted))
    }

    /// Shared grouping pass of the two aggregation entry points: validates
    /// shapes, then groups `input`'s derived rows by the hash of their
    /// group-key columns (buckets confirm by full-key equality, so hash
    /// collisions stay correct) and folds the aggregate columns.  Returns
    /// the group columns, the folded buckets, and the first-seen group
    /// order.
    #[allow(clippy::type_complexity)]
    fn aggregate_groups(
        &self,
        input: RelId,
        output: RelId,
        aggs: &[(usize, crate::ops::AggFunc)],
    ) -> Result<(
        Vec<usize>,
        FxHashMap<u64, Vec<(Vec<Value>, Vec<u64>)>>,
        Vec<(u64, usize)>,
    )> {
        use crate::ops::AggFunc;

        let input_rel = self.derived.relation(input)?;
        let arity = input_rel.arity();
        {
            let output_rel = self.derived.relation(output)?;
            if output_rel.arity() != arity {
                return Err(StorageError::ArityMismatch {
                    relation: output_rel.name().to_string(),
                    expected: output_rel.arity(),
                    actual: arity,
                });
            }
        }
        let mut is_agg = vec![false; arity];
        for &(col, _) in aggs {
            if col >= arity {
                return Err(StorageError::ColumnOutOfBounds {
                    relation: input_rel.name().to_string(),
                    column: col,
                    arity,
                });
            }
            is_agg[col] = true;
        }
        let group_cols: Vec<usize> = (0..arity).filter(|&c| !is_agg[c]).collect();

        type Bucket = Vec<(Vec<Value>, Vec<u64>)>;
        let mut groups: FxHashMap<u64, Bucket> = FxHashMap::default();
        let mut order: Vec<(u64, usize)> = Vec::new();
        let mut key_buf: Vec<Value> = Vec::with_capacity(group_cols.len());
        for row in input_rel.iter_rows() {
            key_buf.clear();
            key_buf.extend(group_cols.iter().map(|&c| row[c]));
            let hash = crate::pool::row_hash(&key_buf);
            let bucket = groups.entry(hash).or_default();
            let slot = match bucket.iter().position(|(k, _)| k == &key_buf) {
                Some(i) => i,
                None => {
                    let accs: Vec<u64> = aggs
                        .iter()
                        .map(|&(_, f): &(usize, AggFunc)| f.init())
                        .collect();
                    bucket.push((key_buf.clone(), accs));
                    order.push((hash, bucket.len() - 1));
                    bucket.len() - 1
                }
            };
            let accs = &mut bucket[slot].1;
            for (i, &(col, func)) in aggs.iter().enumerate() {
                accs[i] = func.fold(accs[i], row[col]);
            }
        }
        Ok((group_cols, groups, order))
    }

    /// The compaction generation of `rel`'s derived row pool (see
    /// [`Relation::generation`]): callers holding [`crate::RowId`]s across
    /// statements snapshot this and validate it on re-access
    /// ([`Relation::row_checked`]) so a [`StorageManager::compact_derived`]
    /// in between surfaces as a typed [`StorageError::StaleRowId`] instead
    /// of wrong rows.
    pub fn derived_generation(&self, rel: RelId) -> Result<u64> {
        Ok(self.derived.relation(rel)?.generation())
    }

    /// Compacts every derived relation whose tombstone count warrants it
    /// (more dead slots than live rows, with a small absolute floor so tiny
    /// relations never bother).  Returns the number of relations compacted;
    /// each compaction bumps that relation's generation counter
    /// ([`StorageManager::derived_generation`]), so stale-id access is
    /// detectable.  Only safe at points where no [`crate::RowId`] into the
    /// derived database is held across the call — the incremental engine
    /// invokes this between update batches, after every watermark and
    /// candidate set of the batch has been consumed.
    pub fn compact_derived(&mut self) -> usize {
        let mut compacted = 0;
        for schema in &self.schemas {
            if let Ok(rel) = self.derived.relation_mut(schema.id) {
                if rel.dead_count() > rel.len().max(64) {
                    rel.compact();
                    compacted += 1;
                }
            }
        }
        compacted
    }

    /// Snapshot of current cardinalities for the optimizer.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::capture(self)
    }

    /// Aggregate row-pool statistics (rows, resident bytes, dedup-table
    /// rehashes) across every relation and explicit delta set — the numbers
    /// the benchmark harness reports to make the flat-pool memory behavior
    /// measurable.
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.derived
            .relations()
            .chain(&self.delta_sets)
            .map(Relation::pool_stats)
            .fold(
                crate::pool::PoolStats::default(),
                crate::pool::PoolStats::merge,
            )
    }

    /// Total number of derived tuples across all relations (used by tests
    /// and by the benchmark harness to validate result sizes).
    pub fn total_derived(&self) -> usize {
        self.derived.relations().map(Relation::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::RowId;

    fn manager() -> (StorageManager, RelId, RelId) {
        let mut sm = StorageManager::new(true);
        let edge = sm.register("Edge", 2, true);
        let path = sm.register("Path", 2, false);
        (sm, edge, path)
    }

    #[test]
    fn register_assigns_dense_ids() {
        let (sm, edge, path) = manager();
        assert_eq!(edge, RelId(0));
        assert_eq!(path, RelId(1));
        assert_eq!(sm.relation_count(), 2);
        assert_eq!(sm.rel_by_name("Edge").unwrap(), edge);
        assert!(sm.rel_by_name("Missing").is_err());
    }

    #[test]
    fn insert_fact_populates_derived_and_delta_known() {
        let (mut sm, edge, _) = manager();
        assert!(sm.insert_fact(edge, Tuple::pair(1, 2)).unwrap());
        assert!(!sm.insert_fact(edge, Tuple::pair(1, 2)).unwrap());
        assert_eq!(sm.relation(DbKind::Derived, edge).unwrap().len(), 1);
        assert_eq!(sm.relation(DbKind::DeltaKnown, edge).unwrap().len(), 1);
        assert_eq!(sm.relation(DbKind::DeltaNew, edge).unwrap().len(), 0);
    }

    #[test]
    fn insert_derived_dedups_against_derived() {
        let (mut sm, _, path) = manager();
        assert!(sm.insert_derived(path, Tuple::pair(1, 2)).unwrap());
        // Not yet merged into derived, so the same tuple dedups against
        // delta-new instead.
        assert!(!sm.insert_derived(path, Tuple::pair(1, 2)).unwrap());
        sm.swap_and_clear(&[path]).unwrap();
        // Now it is in derived, so re-deriving it is a no-op.
        assert!(!sm.insert_derived(path, Tuple::pair(1, 2)).unwrap());
    }

    #[test]
    fn swap_and_clear_merges_and_swaps() {
        let (mut sm, _, path) = manager();
        sm.insert_derived(path, Tuple::pair(1, 2)).unwrap();
        sm.insert_derived(path, Tuple::pair(2, 3)).unwrap();
        let merged = sm.swap_and_clear(&[path]).unwrap();
        assert_eq!(merged, 2);
        assert_eq!(sm.relation(DbKind::Derived, path).unwrap().len(), 2);
        assert_eq!(sm.relation(DbKind::DeltaKnown, path).unwrap().len(), 2);
        assert!(sm.relation(DbKind::DeltaNew, path).unwrap().is_empty());

        // A second boundary with nothing new drains the delta.
        let merged = sm.swap_and_clear(&[path]).unwrap();
        assert_eq!(merged, 0);
        assert!(sm.deltas_empty(&[path]).unwrap());
    }

    #[test]
    fn delta_known_probes_the_derived_indexes_at_every_boundary() {
        // Regression: the delta used to be a pool of its own, and rotating
        // the pools moved the index set to the write side at every
        // boundary, so every second iteration probed delta-known by a
        // filtered scan.  The run is a range of derived's pool now, probed
        // through derived's index at every boundary.
        let (mut sm, _, path) = manager();
        sm.add_index(path, 0).unwrap();
        let mut scratch = Vec::new();
        for boundary in 0..4u32 {
            let emitted: Vec<[Value; 2]> = (0..12u32)
                .map(|i| [Value::int(i % 3), Value::int(100 * boundary + i)])
                .collect();
            for row in &emitted {
                assert!(sm.insert_derived_row(path, row).unwrap());
            }
            sm.swap_and_clear(&[path]).unwrap();
            let known = sm.relation(DbKind::DeltaKnown, path).unwrap();
            assert!(known.has_index(0), "boundary {boundary}: no index");
            for key in 0..3u32 {
                let probe = known.probe_rows(&[(0, Value::int(key))], &mut scratch);
                let got: Vec<Vec<Value>> = probe.iter().map(|r| known.row(r).to_vec()).collect();
                let expected: Vec<Vec<Value>> = emitted
                    .iter()
                    .filter(|row| row[0] == Value::int(key))
                    .map(|row| row.to_vec())
                    .collect();
                assert_eq!(got, expected, "boundary {boundary}, key {key}");
            }
        }
    }

    #[test]
    fn retract_fact_removes_from_derived_only() {
        let (mut sm, edge, _) = manager();
        sm.insert_fact(edge, Tuple::pair(1, 2)).unwrap();
        sm.insert_fact(edge, Tuple::pair(2, 3)).unwrap();
        assert!(sm
            .retract_fact_row(edge, &[Value::int(1), Value::int(2)])
            .unwrap());
        assert!(!sm
            .retract_fact_row(edge, &[Value::int(1), Value::int(2)])
            .unwrap());
        assert_eq!(sm.relation(DbKind::Derived, edge).unwrap().len(), 1);
        // Delta-known is a range of the same pool, so the fact leaves it
        // too; nothing derived from it is touched.
        assert_eq!(sm.relation(DbKind::DeltaKnown, edge).unwrap().len(), 1);
    }

    #[test]
    fn indexes_can_be_disabled_globally() {
        let mut sm = StorageManager::new(false);
        let edge = sm.register("Edge", 2, true);
        sm.add_index(edge, 0).unwrap();
        assert!(!sm.relation(DbKind::Derived, edge).unwrap().has_index(0));

        let mut sm_on = StorageManager::new(true);
        let edge = sm_on.register("Edge", 2, true);
        sm_on.add_index(edge, 0).unwrap();
        assert!(sm_on.relation(DbKind::Derived, edge).unwrap().has_index(0));
    }

    #[test]
    fn shard_partitions_serve_derived_and_the_run() {
        let (mut sm, edge, path) = manager();
        sm.set_sharding(4).unwrap();
        assert_eq!(sm.shard_count(edge), 4);
        let shard_rows = |sm: &StorageManager, kind| {
            let view = sm.relation(kind, path).unwrap();
            let mut rows: Vec<RowId> = (0..4).flat_map(|s| view.shard_rows(s).to_vec()).collect();
            rows.sort_unstable();
            rows
        };
        for round in 0..2u32 {
            for i in 0..32u32 {
                sm.insert_fact(edge, Tuple::pair(i, i + 1)).unwrap();
                sm.insert_derived(path, Tuple::pair(i, round)).unwrap();
            }
            // Pending rows are in no partition until the boundary...
            assert!(!sm.relation(DbKind::DeltaNew, path).unwrap().is_sharded());
            assert!(shard_rows(&sm, DbKind::DeltaNew).is_empty());
            sm.swap_and_clear(&[path]).unwrap();
            // ...which partitions them: the run's partitions are exactly
            // the run, derived's exactly every row.
            let run = 32 * round..32 * (round + 1);
            assert_eq!(shard_rows(&sm, DbKind::DeltaKnown), run.collect::<Vec<_>>());
            let all = 0..32 * (round + 1);
            assert_eq!(shard_rows(&sm, DbKind::Derived), all.collect::<Vec<_>>());
        }
    }

    #[test]
    fn composite_index_requests_respect_the_global_toggle() {
        let (mut sm, edge, _) = manager();
        sm.add_composite_index(edge, &[0, 1]).unwrap();
        assert!(sm
            .relation(DbKind::Derived, edge)
            .unwrap()
            .has_composite_index(&[0, 1]));

        let mut off = StorageManager::new(false);
        let edge = off.register("Edge", 2, true);
        off.add_composite_index(edge, &[0, 1]).unwrap();
        assert!(!off
            .relation(DbKind::Derived, edge)
            .unwrap()
            .has_composite_index(&[0, 1]));
    }

    #[test]
    fn clear_deltas_resets_only_deltas() {
        let (mut sm, edge, path) = manager();
        sm.insert_fact(edge, Tuple::pair(1, 2)).unwrap();
        sm.insert_derived(path, Tuple::pair(1, 2)).unwrap();
        sm.clear_deltas(&[edge, path]).unwrap();
        assert!(sm.deltas_empty(&[edge, path]).unwrap());
        assert_eq!(sm.relation(DbKind::Derived, edge).unwrap().len(), 1);
    }

    #[test]
    fn aggregate_into_groups_and_folds() {
        use crate::ops::AggFunc;
        let mut sm = StorageManager::new(true);
        let input = sm.register("DegIn", 2, false);
        let output = sm.register("Deg", 2, false);
        // Rows (x, y): group by column 0, count column 1.
        for (x, y) in [(1, 10), (1, 11), (1, 12), (2, 10), (3, 30)] {
            sm.insert_fact(input, Tuple::pair(x, y)).unwrap();
        }
        let (emitted, inserted) = sm
            .aggregate_into(input, output, &[(1, AggFunc::Count)])
            .unwrap();
        assert_eq!(emitted, 3);
        assert_eq!(inserted, 3);
        let out = sm.relation(DbKind::DeltaNew, output).unwrap();
        assert!(out.contains(&Tuple::pair(1, 3)));
        assert!(out.contains(&Tuple::pair(2, 1)));
        assert!(out.contains(&Tuple::pair(3, 1)));
    }

    #[test]
    fn aggregate_min_max_sum() {
        use crate::ops::AggFunc;
        let mut sm = StorageManager::new(false);
        let input = sm.register("In", 2, false);
        for (g, v) in [(7, 5), (7, 2), (7, 9), (8, 4)] {
            sm.insert_fact(input, Tuple::pair(g, v)).unwrap();
        }
        for (func, a, b) in [
            (AggFunc::Min, 2, 4),
            (AggFunc::Max, 9, 4),
            (AggFunc::Sum, 16, 4),
        ] {
            let output = sm.register(format!("Out{}", func.name()), 2, false);
            sm.aggregate_into(input, output, &[(1, func)]).unwrap();
            let out = sm.relation(DbKind::DeltaNew, output).unwrap();
            assert!(out.contains(&Tuple::pair(7, a)), "{func:?}");
            assert!(out.contains(&Tuple::pair(8, b)), "{func:?}");
            assert_eq!(out.len(), 2);
        }
    }

    #[test]
    fn aggregate_lattice_emits_only_improved_groups() {
        use crate::ops::AggFunc;
        let mut sm = StorageManager::new(true);
        let input = sm.register("DistIn", 2, false);
        let output = sm.register("Dist", 2, false);
        // First fold: group 1 folds to min 5 and enters the delta.
        sm.insert_fact(input, Tuple::pair(1, 5)).unwrap();
        let (changed, inserted) = sm
            .aggregate_lattice_into(input, output, &[(1, AggFunc::Min)])
            .unwrap();
        assert_eq!((changed, inserted), (1, 1));
        sm.swap_and_clear(&[output]).unwrap();
        // Unchanged input: the group stays out of the delta.
        let (changed, _) = sm
            .aggregate_lattice_into(input, output, &[(1, AggFunc::Min)])
            .unwrap();
        assert_eq!(changed, 0);
        assert!(sm.relation(DbKind::DeltaNew, output).unwrap().is_empty());
        // A strictly better row: the old optimum is retracted and the
        // improved row re-enters the delta.
        sm.insert_fact(input, Tuple::pair(1, 3)).unwrap();
        let (changed, inserted) = sm
            .aggregate_lattice_into(input, output, &[(1, AggFunc::Min)])
            .unwrap();
        assert_eq!((changed, inserted), (1, 1));
        sm.swap_and_clear(&[output]).unwrap();
        let derived = sm.relation(DbKind::Derived, output).unwrap();
        assert_eq!(derived.len(), 1);
        assert!(derived.contains(&Tuple::pair(1, 3)));
        assert!(!derived.contains(&Tuple::pair(1, 5)));
    }

    #[test]
    fn aggregate_rejects_bad_shapes() {
        use crate::ops::AggFunc;
        let mut sm = StorageManager::new(false);
        let input = sm.register("In", 2, false);
        let narrow = sm.register("Narrow", 1, false);
        assert!(matches!(
            sm.aggregate_into(input, narrow, &[(1, AggFunc::Count)]),
            Err(StorageError::ArityMismatch { .. })
        ));
        let output = sm.register("Out", 2, false);
        assert!(matches!(
            sm.aggregate_into(input, output, &[(5, AggFunc::Count)]),
            Err(StorageError::ColumnOutOfBounds { .. })
        ));
    }

    #[test]
    fn unknown_relation_errors() {
        let (sm, _, _) = manager();
        assert!(matches!(
            sm.relation(DbKind::Derived, RelId(99)),
            Err(StorageError::UnknownRelation(_))
        ));
    }
}
