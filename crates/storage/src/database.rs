//! Databases and the semi-naive storage manager.
//!
//! Bottom-up semi-naive evaluation (paper §II-A, §V-D) needs three databases
//! per relation:
//!
//! * **derived** — every fact discovered so far (plus the EDB facts),
//! * **delta-known** — the facts discovered in the *previous* iteration
//!   (read-only during the current iteration),
//! * **delta-new** — the facts discovered in the *current* iteration
//!   (write-only during the current iteration).
//!
//! Splitting the delta into a read-only and a write-only half is what lets
//! any IROp boundary act as a safe point and enables asynchronous
//! compilation: no operator ever observes a relation it is concurrently
//! writing.  At the end of each iteration [`StorageManager::swap_and_clear`]
//! merges delta-new into derived, swaps the two delta databases and clears
//! the new write-side.
//!
//! Every such boundary also opens a new **epoch**: the manager bumps one
//! session-monotone counter and the rows merged into derived carry it
//! ([`Relation::epoch_of`]).  A fact's epoch is therefore above the epoch of
//! every same-stratum fact its first derivation read — the well-founded
//! order the incremental deletion phase uses to tell a fact that still has
//! independent support from one that only leans on its own consequences.

use crate::error::StorageError;
use crate::hasher::FxHashMap;
use crate::relation::Relation;
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

    /// Cardinality of a relation, 0 if unknown (defensive for stats paths).
    pub fn cardinality(&self, id: RelId) -> usize {
        self.relations.get(id.index()).map_or(0, Relation::len)
    }
}

/// The storage manager owns the three evaluation databases plus the schema
/// catalog, and implements the iteration-boundary operations used by the
/// execution layer.
#[derive(Debug, Clone)]
pub struct StorageManager {
    schemas: Vec<RelationSchema>,
    derived: Database,
    delta_known: Database,
    delta_new: Database,
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
            delta_known: Database::new(),
            delta_new: Database::new(),
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

    /// Registers a relation in all three databases and returns its id.
    pub fn register(&mut self, name: impl Into<String>, arity: usize, is_edb: bool) -> RelId {
        let id = RelId(u32::try_from(self.schemas.len()).expect("too many relations"));
        let schema = RelationSchema::new(id, name, arity, is_edb);
        self.schemas.push(schema.clone());
        self.derived.register(schema.clone());
        self.delta_known.register(schema.clone());
        self.delta_new.register(schema);
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

    /// Requests a hash index on `(rel, column)` in the derived and
    /// delta-known databases (the two read-side databases).  No-op when the
    /// manager was created with indexes disabled.
    pub fn add_index(&mut self, rel: RelId, column: usize) -> Result<()> {
        if !self.use_indexes {
            return Ok(());
        }
        self.derived.relation_mut(rel)?.add_index(column)?;
        self.delta_known.relation_mut(rel)?.add_index(column)?;
        Ok(())
    }

    /// Requests a composite hash index on `(rel, columns)` in the two
    /// read-side databases.  No-op when indexes are disabled.
    pub fn add_composite_index(&mut self, rel: RelId, columns: &[usize]) -> Result<()> {
        if !self.use_indexes {
            return Ok(());
        }
        self.derived
            .relation_mut(rel)?
            .add_composite_index(columns)?;
        self.delta_known
            .relation_mut(rel)?
            .add_composite_index(columns)?;
        Ok(())
    }

    /// Shards every relation (in all three databases) into `shard_count`
    /// hash partitions keyed on the first column, the default join key.
    /// `shard_count <= 1` disables sharding.  Nullary relations are left
    /// unsharded — there is nothing to partition by.
    ///
    /// Sharding only adds a partition view over the row offsets; scans,
    /// lookups and insertion order are unaffected, so serial evaluation on a
    /// sharded manager is identical to evaluation on an unsharded one.
    pub fn set_sharding(&mut self, shard_count: usize) -> Result<()> {
        for db in [
            &mut self.derived,
            &mut self.delta_known,
            &mut self.delta_new,
        ] {
            for schema in &self.schemas {
                if schema.arity == 0 {
                    continue;
                }
                db.relation_mut(schema.id)?.set_sharding(shard_count, 0)?;
            }
        }
        Ok(())
    }

    /// The shard count configured for `rel` (1 when unsharded).
    pub fn shard_count(&self, rel: RelId) -> usize {
        self.derived.relation(rel).map_or(1, Relation::shard_count)
    }

    /// Read access to one of the three databases.
    pub fn db(&self, kind: DbKind) -> &Database {
        match kind {
            DbKind::Derived => &self.derived,
            DbKind::DeltaKnown => &self.delta_known,
            DbKind::DeltaNew => &self.delta_new,
        }
    }

    /// Mutable access to one of the three databases.
    pub fn db_mut(&mut self, kind: DbKind) -> &mut Database {
        match kind {
            DbKind::Derived => &mut self.derived,
            DbKind::DeltaKnown => &mut self.delta_known,
            DbKind::DeltaNew => &mut self.delta_new,
        }
    }

    /// Convenience accessor: relation `rel` in database `kind`.
    pub fn relation(&self, kind: DbKind, rel: RelId) -> Result<&Relation> {
        self.db(kind).relation(rel)
    }

    /// Inserts an EDB fact: the tuple lands in both the derived database and
    /// the delta-known database so that the first semi-naive iteration sees
    /// every base fact as "new".
    pub fn insert_fact(&mut self, rel: RelId, tuple: Tuple) -> Result<bool> {
        self.insert_fact_row(rel, tuple.values())
    }

    /// [`StorageManager::insert_fact`] over a raw row slice: one pooled
    /// append per database, no tuple clones anywhere on the path.
    pub fn insert_fact_row(&mut self, rel: RelId, values: &[Value]) -> Result<bool> {
        let fresh = self.append_derived_row(rel, values)?;
        if fresh {
            self.delta_known.relation_mut(rel)?.insert_row(values)?;
        }
        Ok(fresh)
    }

    /// Inserts a derived fact produced during the current iteration.  The
    /// fact is recorded in delta-new only if it is not already present in
    /// the derived database (semi-naive deduplication); the derived database
    /// itself is only extended at the next [`swap_and_clear`].
    ///
    /// Returns `true` if the fact was genuinely new.
    ///
    /// [`swap_and_clear`]: StorageManager::swap_and_clear
    pub fn insert_derived(&mut self, rel: RelId, tuple: Tuple) -> Result<bool> {
        self.insert_derived_row(rel, tuple.values())
    }

    /// [`StorageManager::insert_derived`] over a raw row slice — the form
    /// the join kernels emit through.  The row hash is computed once and
    /// shared between the derived-database membership test and the
    /// delta-new insert; a duplicate (already in derived, or already emitted
    /// this iteration) costs one probe of each and writes nothing.
    pub fn insert_derived_row(&mut self, rel: RelId, values: &[Value]) -> Result<bool> {
        let hash = crate::pool::row_hash(values);
        let derived = self.derived.relation(rel)?;
        if values.len() != derived.arity() {
            return Err(StorageError::ArityMismatch {
                relation: derived.name().to_string(),
                expected: derived.arity(),
                actual: values.len(),
            });
        }
        if derived.contains_row_hashed(values, hash) {
            return Ok(false);
        }
        Ok(self
            .delta_new
            .relation_mut(rel)?
            .insert_row_hashed(values, hash))
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

    /// Iteration boundary: merge delta-new into derived, move delta-new into
    /// delta-known (replacing the previous contents) and leave delta-new
    /// empty for the next iteration.
    ///
    /// The merge appends rows straight from delta-new's pool, reusing its
    /// retained row hashes; the rotation itself is an O(1) swap of pool
    /// internals (no row is copied, reinserted or rehashed).  The merged
    /// rows open a new epoch ([`StorageManager::advance_epoch`]).
    ///
    /// Returns the number of facts merged into the derived database across
    /// all listed relations; the caller uses "0" as the fixpoint signal.
    pub fn swap_and_clear(&mut self, relations: &[RelId]) -> Result<usize> {
        let mut merged = 0;
        let epoch = self.advance_epoch();
        for &rel in relations {
            // Merge the freshly discovered facts into the derived database
            // (split field borrows: derived is written, delta-new only read).
            {
                let (derived_db, new_db) = (&mut self.derived, &self.delta_new);
                let new_rel = new_db.relation(rel)?;
                let derived = derived_db.relation_mut(rel)?;
                derived.begin_epoch(epoch);
                merged += derived.union_in_place(new_rel)?;
            }
            // delta-known <- delta-new ; delta-new <- empty.  The swap moves
            // the pools in O(1); only the (already-consumed) old read side
            // is cleared, and `clear` keeps its capacity for the next fill.
            let (known_db, new_db) = (&mut self.delta_known, &mut self.delta_new);
            let known = known_db.relation_mut(rel)?;
            let new = new_db.relation_mut(rel)?;
            known.clear();
            known.swap_contents(new);
        }
        Ok(merged)
    }

    /// Whether every listed relation's delta-known database is empty — the
    /// fixpoint test used by `DoWhileOp`.
    pub fn deltas_empty(&self, relations: &[RelId]) -> Result<bool> {
        for &rel in relations {
            if !self.delta_known.relation(rel)?.is_empty() {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Clears the delta databases of the given relations (used when
    /// re-running a program on the same manager).
    pub fn clear_deltas(&mut self, relations: &[RelId]) -> Result<()> {
        for &rel in relations {
            self.delta_known.relation_mut(rel)?.clear();
            self.delta_new.relation_mut(rel)?.clear();
        }
        Ok(())
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

    /// Mutable access to `rel`'s derived relation — the restore path of the
    /// snapshot subsystem rebuilds rows, epochs and the generation counter
    /// through this.
    pub(crate) fn derived_relation_mut(&mut self, rel: RelId) -> Result<&mut Relation> {
        self.derived.relation_mut(rel)
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
    /// rehashes) across every relation of all three evaluation databases —
    /// the numbers the benchmark harness reports to make the flat-pool
    /// memory behavior measurable.
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        [&self.derived, &self.delta_known, &self.delta_new]
            .into_iter()
            .flat_map(Database::relations)
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
    fn swap_and_clear_rotates_pools_in_place() {
        // The O(1)-rotation contract at the manager level: the delta-new
        // pool moves wholesale into delta-known — identical stats object
        // (rows, resident bytes, lifetime rehash count), so nothing was
        // copied, reinserted or rehashed on the way.
        let (mut sm, _, path) = manager();
        for i in 0..500u32 {
            sm.insert_derived(path, Tuple::pair(i, i + 1)).unwrap();
        }
        let before = sm.relation(DbKind::DeltaNew, path).unwrap().pool_stats();
        assert_eq!(before.rows, 500);
        let merged = sm.swap_and_clear(&[path]).unwrap();
        assert_eq!(merged, 500);
        let after = sm.relation(DbKind::DeltaKnown, path).unwrap().pool_stats();
        assert_eq!(before, after);
        assert!(sm.relation(DbKind::DeltaNew, path).unwrap().is_empty());
        assert_eq!(sm.relation(DbKind::Derived, path).unwrap().len(), 500);
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
        // The delta copy made by insert_fact is untouched (callers clear
        // deltas before incremental maintenance).
        assert_eq!(sm.relation(DbKind::DeltaKnown, edge).unwrap().len(), 2);
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
    fn sharding_applies_to_all_databases_and_survives_swap() {
        let (mut sm, edge, path) = manager();
        sm.set_sharding(4).unwrap();
        assert_eq!(sm.shard_count(edge), 4);
        for i in 0..32u32 {
            sm.insert_fact(edge, Tuple::pair(i, i + 1)).unwrap();
            sm.insert_derived(path, Tuple::pair(i, i + 1)).unwrap();
        }
        let delta = sm.relation(DbKind::DeltaNew, path).unwrap();
        let partitioned: usize = (0..4).map(|s| delta.shard_rows(s).len()).sum();
        assert_eq!(partitioned, 32);
        sm.swap_and_clear(&[path]).unwrap();
        // After the swap the read side carries the partitions...
        let known = sm.relation(DbKind::DeltaKnown, path).unwrap();
        let partitioned: usize = (0..4).map(|s| known.shard_rows(s).len()).sum();
        assert_eq!(partitioned, 32);
        // ...and the fresh write side is empty but still sharded.
        let new = sm.relation(DbKind::DeltaNew, path).unwrap();
        assert!(new.is_empty());
        assert_eq!(new.shard_count(), 4);
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
