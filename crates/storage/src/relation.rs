//! In-memory relations with set semantics over a flat row pool, and the
//! slot-range views semi-naive evaluation reads them through.

use crate::epoch::EpochRuns;
use crate::error::StorageError;
use crate::index::{ColumnIndex, CompositeIndex};
use crate::pool::{mix_hash, row_hash, shard_of_hash, value_hash, PoolStats, RowId, RowPool};
use crate::schema::RelationSchema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// A duplicate-free, insertion-ordered collection of rows.
///
/// All rows live in one row-major [`RowPool`] (a single `Vec<Value>` with an
/// arity stride); duplicate elimination goes through the pool's 64-bit
/// row-hash table, confirmed by slice equality — there is no second stored
/// copy of any row.  On top of the pool the relation maintains:
///
/// * `indexes` — optional per-column hash indexes used by index-nested-loop
///   joins when the engine runs in "indexed" mode,
/// * `composites` — optional multi-column hash indexes for atoms probed on
///   several bound columns at once (a composite index over *every* column is
///   the pool's dedup table itself, so it costs nothing to maintain),
/// * `shards` — optional hash partitions of the row ids by shard-key value,
///   enabling independent parallel scans of disjoint row subsets (see
///   [`Relation::set_sharding`]),
/// * `epochs` — which iteration boundary appended each row, as a run table
///   over the slots ([`Relation::epoch_of`]); no per-row field.
///
/// **Published and pending rows.**  The rows every read of a relation sees
/// are its *published* slots `0..slot_count()`: indexed, sharded and
/// stamped with an epoch.  Semi-naive evaluation appends the facts an
/// iteration derives *past* them, as *pending* rows: the pool's dedup table
/// already holds them (so a second derivation of the same fact is one
/// failed insert), but no read of the relation — `len`, scans, probes,
/// membership tests — sees them until the iteration boundary publishes them
/// in one go, as one epoch run.  That run is what the next iteration reads
/// as its delta ([`RelationView`]).  A relation used on its own, outside a
/// [`StorageManager`](crate::StorageManager), never holds pending rows.
///
/// [`Tuple`] remains the boundary type for loading facts and reading
/// results; the evaluation hot paths speak `&[Value]` row slices and
/// [`RowId`]s exclusively and never construct tuples.
///
/// ```
/// use carac_storage::{Relation, RelationSchema, RelId, Tuple, Value};
///
/// let mut edges = Relation::new(RelationSchema::new(RelId(0), "Edge", 2, true));
/// edges.add_index(0)?;                    // single-column hash index
/// edges.add_composite_index(&[0, 1])?;    // multi-column hash index
/// edges.insert(Tuple::pair(1, 2))?;
/// edges.insert(Tuple::pair(1, 3))?;
/// assert!(!edges.insert(Tuple::pair(1, 2))?); // set semantics: duplicate
///
/// assert_eq!(edges.lookup_rows(0, Value::int(1)).len(), 2);
/// let rows = edges
///     .lookup_rows_composite(&[(0, Value::int(1)), (1, Value::int(3))])
///     .expect("the composite index covers both filters");
/// assert_eq!(rows.len(), 1);
/// assert_eq!(edges.row(rows[0]), &[Value::int(1), Value::int(3)]);
/// # Ok::<(), carac_storage::StorageError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Relation {
    schema: RelationSchema,
    pool: RowPool,
    indexes: Vec<ColumnIndex>,
    composites: Vec<CompositeIndex>,
    /// Whether a composite index over every column was declared: the
    /// pool's dedup table answers it (a probe binding every column is a
    /// membership test), so it has no map of its own.
    row_index: bool,
    /// Number of shard partitions; `1` disables sharding.
    shard_count: usize,
    /// Column whose value hashes a row into its shard.
    shard_key: usize,
    /// Row ids per shard (`shards.len() == shard_count` when sharded,
    /// empty otherwise).
    shards: Vec<Vec<RowId>>,
    /// `(first slot, epoch)` runs; see [`Relation::epoch_of`].
    epochs: EpochRuns,
    /// Slots below this are published; the pool's slots from here on are
    /// pending (see the type docs).
    published: RowId,
    /// The published slots `run.0..run.1` that the last iteration boundary
    /// published — the relation's delta-known rows.
    run: (RowId, RowId),
}

/// Deterministic shard assignment for a value: the shard-key value is run
/// through the same per-value hash that feeds the pool's row hash
/// ([`crate::pool::value_hash`]), so shard assignment and dedup share one
/// hash computation per inserted row, and shard membership is identical on
/// every platform and across runs.
#[inline]
pub(crate) fn shard_of(value: Value, shard_count: usize) -> usize {
    shard_of_hash(value_hash(value), shard_count)
}

/// Borrowed candidate rows answering one probe — the allocation-free
/// replacement for collecting `Vec<usize>` candidate lists.
///
/// Produced by [`Relation::probe_rows`] and [`RelationView::probe_rows`].
/// Candidates obtained through a composite index (or any access path that
/// did not cover every filter) may include rows that fail some filters;
/// callers re-check filters per row, which the execution kernels do anyway.
#[derive(Debug)]
pub struct ProbeRows<'a> {
    rows: ProbeSource<'a>,
    via_composite: bool,
    scanned: usize,
}

#[derive(Debug)]
enum ProbeSource<'a> {
    /// An explicit row-id list: (part of) an index posting list or the
    /// caller's scratch buffer.
    Slice(&'a [RowId]),
    /// Every slot of `start..end`, all of them live (no usable access path).
    Range(RowId, RowId),
}

impl<'a> ProbeRows<'a> {
    /// Number of candidate rows.
    pub fn len(&self) -> usize {
        match self.rows {
            ProbeSource::Slice(s) => s.len(),
            ProbeSource::Range(start, end) => (end - start) as usize,
        }
    }

    /// Whether no candidate matches.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a composite (multi-column) index answered the probe.
    pub fn via_composite(&self) -> bool {
        self.via_composite
    }

    /// Rows a filtered scan visited to answer the probe: 0 whenever an index
    /// answered it or no filter was given (a full scan is the access path
    /// then, not a fallback).
    pub fn scanned_rows(&self) -> usize {
        self.scanned
    }

    /// Iterator over the candidate row ids, in slot order.
    pub fn iter(&self) -> ProbeIter<'a> {
        match self.rows {
            ProbeSource::Slice(s) => ProbeIter::Slice(s.iter()),
            ProbeSource::Range(start, end) => ProbeIter::Range(start..end),
        }
    }
}

impl<'a> IntoIterator for &ProbeRows<'a> {
    type Item = RowId;
    type IntoIter = ProbeIter<'a>;

    fn into_iter(self) -> ProbeIter<'a> {
        self.iter()
    }
}

/// Iterator over the row ids of a [`ProbeRows`].
#[derive(Debug)]
pub enum ProbeIter<'a> {
    /// Iterating an explicit row-id slice.
    Slice(std::slice::Iter<'a, RowId>),
    /// Iterating a full scan of a slot range.
    Range(std::ops::Range<RowId>),
}

impl Iterator for ProbeIter<'_> {
    type Item = RowId;

    #[inline]
    fn next(&mut self) -> Option<RowId> {
        match self {
            ProbeIter::Slice(it) => it.next().copied(),
            ProbeIter::Range(r) => r.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            ProbeIter::Slice(it) => it.size_hint(),
            ProbeIter::Range(r) => r.size_hint(),
        }
    }
}

/// The live rows of a slot range, in slot order (behind
/// [`Relation::iter_rows`] and [`RelationView::iter_rows`]).
struct SlotRows<'a> {
    pool: &'a RowPool,
    next: RowId,
    end: RowId,
    remaining: usize,
}

impl<'a> Iterator for SlotRows<'a> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        while self.next < self.end {
            let row = self.next;
            self.next += 1;
            if self.pool.is_live(row) {
                self.remaining -= 1;
                return Some(self.pool.row(row));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for SlotRows<'_> {}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn new(schema: RelationSchema) -> Self {
        let arity = schema.arity;
        Relation {
            schema,
            pool: RowPool::new(arity),
            indexes: Vec::new(),
            composites: Vec::new(),
            row_index: false,
            shard_count: 1,
            shard_key: 0,
            shards: Vec::new(),
            epochs: EpochRuns::default(),
            published: 0,
            run: (0, 0),
        }
    }

    /// The schema of this relation.
    #[inline]
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Name of the relation (convenience accessor).
    #[inline]
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.schema.arity
    }

    /// Number of (published, live) rows currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.pool.len() - self.pending_count()
    }

    /// Whether the relation holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows appended past the published slots (see the type docs).
    #[inline]
    fn pending_count(&self) -> usize {
        self.pool.slots() - self.published as usize
    }

    /// All published rows (what the relation's own read methods answer).
    #[inline]
    pub(crate) fn view(&self) -> RelationView<'_> {
        RelationView {
            relation: self,
            start: 0,
            end: self.published,
        }
    }

    /// The rows the last iteration boundary published (delta-known).
    #[inline]
    pub(crate) fn run_view(&self) -> RelationView<'_> {
        RelationView {
            relation: self,
            start: self.run.0,
            end: self.run.1,
        }
    }

    /// The pending rows (delta-new).
    #[inline]
    pub(crate) fn pending_view(&self) -> RelationView<'_> {
        RelationView {
            relation: self,
            start: self.published,
            end: self.pool.slots() as RowId,
        }
    }

    /// Declares a hash index on `column`.  Idempotent; existing rows are
    /// back-filled.  Returns an error if the column is out of bounds.
    pub fn add_index(&mut self, column: usize) -> Result<()> {
        if column >= self.schema.arity {
            return Err(StorageError::ColumnOutOfBounds {
                relation: self.schema.name.clone(),
                column,
                arity: self.schema.arity,
            });
        }
        if self.indexes.iter().any(|ix| ix.column() == column) {
            return Ok(());
        }
        let mut index = ColumnIndex::new(column);
        index.rebuild(self.live_in(0, self.published));
        self.indexes.push(index);
        Ok(())
    }

    /// Columns currently covered by an index.
    pub fn indexed_columns(&self) -> Vec<usize> {
        self.indexes.iter().map(ColumnIndex::column).collect()
    }

    /// Whether `column` has an index.
    pub fn has_index(&self, column: usize) -> bool {
        self.indexes.iter().any(|ix| ix.column() == column)
    }

    /// Number of distinct values observed by the single-column index on
    /// `column` (0 when that column is unindexed) — the observed-selectivity
    /// input of the optimizer's cost model: an equality probe on the column
    /// is expected to match `len / distinct` rows.
    pub fn index_distinct(&self, column: usize) -> usize {
        self.indexes
            .iter()
            .find(|ix| ix.column() == column)
            .map_or(0, ColumnIndex::distinct_values)
    }

    /// `(column, distinct values)` for every single-column index, in index
    /// creation order (the per-column form consumed by the stats snapshot).
    pub fn indexed_distincts(&self) -> Vec<(usize, usize)> {
        self.indexes
            .iter()
            .map(|ix| (ix.column(), ix.distinct_values()))
            .collect()
    }

    /// Declares a composite hash index over `columns` (at least two distinct
    /// columns; a single column degrades to [`Relation::add_index`]).
    /// Idempotent; existing rows are back-filled — except for an index over
    /// every column, which the pool's dedup table already is.  Returns an
    /// error if any column is out of bounds.
    pub fn add_composite_index(&mut self, columns: &[usize]) -> Result<()> {
        let mut canonical = columns.to_vec();
        canonical.sort_unstable();
        canonical.dedup();
        for &column in &canonical {
            if column >= self.schema.arity {
                return Err(StorageError::ColumnOutOfBounds {
                    relation: self.schema.name.clone(),
                    column,
                    arity: self.schema.arity,
                });
            }
        }
        match canonical.as_slice() {
            [] => Ok(()),
            [single] => self.add_index(*single),
            _ if canonical.len() == self.schema.arity => {
                self.row_index = true;
                Ok(())
            }
            _ => {
                if self.composites.iter().any(|ix| ix.columns() == canonical) {
                    return Ok(());
                }
                let mut index = CompositeIndex::new(&canonical);
                index.rebuild(self.live_in(0, self.published));
                self.composites.push(index);
                Ok(())
            }
        }
    }

    /// The column sets currently covered by composite indexes.
    pub fn composite_indexed_columns(&self) -> Vec<Vec<usize>> {
        let every = self.row_index.then(|| (0..self.schema.arity).collect());
        self.composites
            .iter()
            .map(|ix| ix.columns().to_vec())
            .chain(every)
            .collect()
    }

    /// Whether a composite index over exactly `columns` (order-insensitive)
    /// exists.
    pub fn has_composite_index(&self, columns: &[usize]) -> bool {
        let mut canonical = columns.to_vec();
        canonical.sort_unstable();
        canonical.dedup();
        let every = canonical.len() >= 2 && canonical.iter().copied().eq(0..self.schema.arity);
        (self.row_index && every) || self.composites.iter().any(|ix| ix.columns() == canonical)
    }

    /// Partitions the relation's rows into `shard_count` hash shards keyed
    /// on `shard_key`'s value, rebuilding the partitions for the existing
    /// rows.  A count of 0 or 1 disables sharding.  Returns an error when
    /// the key column is out of bounds.
    ///
    /// Shard membership is a pure function of the key value (the pool's
    /// per-value hash), so two relations sharded the same way agree on which
    /// shard any row belongs to — the property the parallel join kernels
    /// rely on for deterministic merges.
    pub fn set_sharding(&mut self, shard_count: usize, shard_key: usize) -> Result<()> {
        if shard_key >= self.schema.arity {
            return Err(StorageError::ColumnOutOfBounds {
                relation: self.schema.name.clone(),
                column: shard_key,
                arity: self.schema.arity,
            });
        }
        self.shard_count = shard_count.max(1);
        self.shard_key = shard_key;
        self.rebuild_shards();
        Ok(())
    }

    /// Number of shard partitions (1 when sharding is disabled).
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Whether the relation maintains shard partitions.
    #[inline]
    pub fn is_sharded(&self) -> bool {
        self.shard_count > 1
    }

    /// Row ids belonging to shard `shard` (slot order within the shard).
    /// Empty for out-of-range shards or when sharding is disabled.
    pub fn shard_rows(&self, shard: usize) -> &[RowId] {
        self.shards.get(shard).map_or(&[], Vec::as_slice)
    }

    fn rebuild_shards(&mut self) {
        self.shards.clear();
        if self.shard_count <= 1 {
            return;
        }
        self.shards.resize(self.shard_count, Vec::new());
        for row in 0..self.published {
            if self.pool.is_live(row) {
                let value = self.shard_value(self.pool.row(row));
                self.shards[shard_of(value, self.shard_count)].push(row);
            }
        }
    }

    #[inline]
    fn shard_value(&self, values: &[Value]) -> Value {
        values.get(self.shard_key).copied().unwrap_or_default()
    }

    /// `Ok` unless rows are pending: published rows may only be appended
    /// directly while nothing waits for the iteration boundary.
    fn ensure_no_pending(&self) -> Result<()> {
        if self.pending_count() == 0 {
            Ok(())
        } else {
            Err(StorageError::PendingRows {
                relation: self.schema.name.clone(),
            })
        }
    }

    /// Inserts a tuple, returning `true` if it was new (boundary API; the
    /// evaluation hot paths use [`Relation::insert_row`] directly).
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        self.insert_row(tuple.values())
    }

    /// Inserts one row given as a value slice, returning `true` if it was
    /// new.  Duplicate rows are silently ignored (set semantics); arity is
    /// validated against the schema.  The row is published at once: one
    /// hash pass over the values feeds the dedup table, every index and the
    /// shard assignment.  A [`StorageError::PendingRows`] while rows of the
    /// current iteration are pending.
    pub fn insert_row(&mut self, values: &[Value]) -> Result<bool> {
        if values.len() != self.schema.arity {
            return Err(StorageError::ArityMismatch {
                relation: self.schema.name.clone(),
                expected: self.schema.arity,
                actual: values.len(),
            });
        }
        self.ensure_no_pending()?;
        // One pass over the values: the per-value hashes fold into the row
        // hash and the shard key's unit is captured on the way.
        let mut hash = crate::pool::ROW_HASH_INIT;
        let mut key_unit = 0u64;
        for (col, &v) in values.iter().enumerate() {
            let unit = value_hash(v);
            if col == self.shard_key {
                key_unit = unit;
            }
            hash = mix_hash(hash, unit);
        }
        Ok(self.insert_prehashed_row(values, hash, key_unit).is_some())
    }

    /// Publishes one row with its row hash and shard-key hash precomputed
    /// (no rows may be pending).
    #[inline]
    fn insert_prehashed_row(
        &mut self,
        values: &[Value],
        hash: u64,
        key_unit: u64,
    ) -> Option<RowId> {
        // Retained-hash fast path: every hash reaching here was computed by
        // this crate (the single-pass insert fold) or retained by a pool
        // (union), so the public always-on validation is skipped.
        let row = self.pool.insert_hashed_retained(values, hash)?;
        for index in &mut self.indexes {
            index.insert(values, row);
        }
        for index in &mut self.composites {
            index.insert(values, row);
        }
        if self.shard_count > 1 {
            self.shards[shard_of_hash(key_unit, self.shard_count)].push(row);
        }
        self.published = row + 1;
        Some(row)
    }

    /// Appends `values` as a pending row (arity already checked): one
    /// find-or-insert in the dedup table, nothing else.  Returns `false`
    /// when an equal row is published or already pending.
    #[inline]
    pub(crate) fn insert_pending(&mut self, values: &[Value]) -> bool {
        self.pool
            .insert_hashed_retained(values, row_hash(values))
            .is_some()
    }

    /// The iteration boundary of this relation: indexes and shards the
    /// pending rows, stamps them with `epoch` as one run, and makes that
    /// run the delta-known rows.  Returns how many rows it published.
    pub(crate) fn publish(&mut self, epoch: u32) -> usize {
        let (first, end) = (self.published, self.pool.slots() as RowId);
        self.epochs.begin(first, epoch);
        for row in first..end {
            let values = self.pool.row(row);
            for index in &mut self.indexes {
                index.insert(values, row);
            }
            for index in &mut self.composites {
                index.insert(values, row);
            }
            if self.shard_count > 1 {
                let value = values.get(self.shard_key).copied().unwrap_or_default();
                self.shards[shard_of(value, self.shard_count)].push(row);
            }
        }
        self.published = end;
        self.run = (first, end);
        (end - first) as usize
    }

    /// Drops the pending rows and empties the delta-known run.
    pub(crate) fn clear_delta(&mut self) {
        self.pool.truncate(self.published as usize);
        self.run = (self.published, self.published);
    }

    /// Extends the delta-known run over the row just published directly (an
    /// EDB fact joining the current delta).  `false` when the run does not
    /// end where that row begins, so it cannot cover it.
    pub(crate) fn extend_run(&mut self) -> bool {
        let row = self.published - 1;
        if self.run.1 == row {
            self.run.1 = self.published;
        } else if self.run.0 == self.run.1 {
            self.run = (row, self.published);
        } else {
            return false;
        }
        true
    }

    /// Retracts the row equal to `tuple`, returning `true` if it was
    /// present (boundary API over [`Relation::retract_row`]).
    pub fn retract(&mut self, tuple: &Tuple) -> Result<bool> {
        self.retract_row(tuple.values())
    }

    /// Retracts one published row given as a value slice: the row is
    /// tombstoned in the pool (its [`RowId`] stays allocated but leaves
    /// membership, iteration and cardinality) and unlinked from every
    /// posting list — single-column indexes, composite indexes and the shard
    /// partitions.  Returns `true` if an equal live row was published (a
    /// pending row is left alone).
    pub fn retract_row(&mut self, values: &[Value]) -> Result<bool> {
        if values.len() != self.schema.arity {
            return Err(StorageError::ArityMismatch {
                relation: self.schema.name.clone(),
                expected: self.schema.arity,
                actual: values.len(),
            });
        }
        let hash = row_hash(values);
        let Some(row) = self.find_row_hashed(values, hash) else {
            return Ok(false);
        };
        self.pool.retract_at(row, hash);
        for index in &mut self.indexes {
            index.remove(values, row);
        }
        for index in &mut self.composites {
            index.remove(values, row);
        }
        if self.shard_count > 1 {
            let key = self.shard_value(values);
            let shard = &mut self.shards[shard_of(key, self.shard_count)];
            if let Some(pos) = shard.iter().position(|&r| r == row) {
                shard.remove(pos);
            }
        }
        Ok(true)
    }

    /// The live published row equal to `values`, if any (hash precomputed
    /// by the caller) — the row-id-returning variant of
    /// [`Relation::contains_row_hashed`], e.g. for reading a fact's epoch.
    #[inline]
    pub fn find_row_hashed(&self, values: &[Value], hash: u64) -> Option<RowId> {
        self.pool
            .find_hashed(values, hash)
            .filter(|&row| row < self.published)
    }

    /// Whether the slot `row` holds a live (non-retracted) row.
    #[inline]
    pub fn is_live(&self, row: RowId) -> bool {
        self.pool.is_live(row)
    }

    /// The compaction generation of this relation's row pool.  [`RowId`]s
    /// handed out by probes and lookups are only meaningful under the
    /// generation current at that moment; [`Relation::compact`] bumps it.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.pool.generation()
    }

    /// Overwrites the pool's compaction generation (snapshot restore only:
    /// the counter must survive a process restart to stay monotonic).
    #[inline]
    pub(crate) fn set_generation(&mut self, generation: u64) {
        self.pool.set_generation(generation);
    }

    /// The values of row `row`, validated against the compaction
    /// `generation` the id was obtained under.  Unlike [`Relation::row`] —
    /// which trusts the caller and, after a compaction, would silently
    /// return whatever row was renumbered into the slot — this returns a
    /// typed [`StorageError::StaleRowId`] when the generation has moved on,
    /// when the slot was never published, or when the row was retracted in
    /// the meantime.
    pub fn row_checked(&self, row: RowId, generation: u64) -> Result<&[Value]> {
        let current = self.pool.generation();
        if generation != current || row >= self.published || !self.pool.is_live(row) {
            return Err(StorageError::StaleRowId {
                relation: self.schema.name.clone(),
                row,
                held: generation,
                current,
            });
        }
        Ok(self.pool.row(row))
    }

    /// Number of published row slots (including tombstoned ones) — the
    /// exclusive upper bound of the [`RowId`]s reads hand out, used as a
    /// high-water mark by the incremental subsystem to read off newly
    /// appended rows.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.published as usize
    }

    /// Rows appended from now on carry `epoch` (until a higher one begins).
    /// The storage manager calls this with its session counter before every
    /// append to a derived relation; an epoch at or below the current one
    /// changes nothing, so epochs never decrease in slot order.
    #[inline]
    pub fn begin_epoch(&mut self, epoch: u32) {
        self.epochs.begin(self.published, epoch);
    }

    /// The epoch of row `row`: the value of the storage manager's counter
    /// when the row was appended (0 for rows appended before any epoch
    /// began).  Semi-naive evaluation appends a fact at the boundary closing
    /// the iteration that first derived it, after every fact its derivation
    /// read — so within a stratum a lower epoch means "was there first",
    /// the well-founded order the incremental deletion phase prunes by.
    /// A binary search over one entry per boundary that appended anything;
    /// order-preserving across [`Relation::compact`], reset by
    /// [`Relation::clear`].
    #[inline]
    pub fn epoch_of(&self, row: RowId) -> u32 {
        self.epochs.epoch_of(row)
    }

    /// The epoch run table as `(ordinal of the run's first live row,
    /// epoch)` — the slots it would name after a [`Relation::compact`],
    /// which is the row numbering a snapshot stores.
    pub fn epoch_runs(&self) -> Vec<(RowId, u32)> {
        if self.pool.has_dead() {
            let compacted = self.epochs.renumbered(|row| self.pool.is_live(row));
            compacted.as_slice().to_vec()
        } else {
            self.epochs.as_slice().to_vec()
        }
    }

    /// Replaces the run table with one read from a snapshot; `false` (and
    /// no change) when `runs` is not a valid table for the stored rows.
    pub(crate) fn restore_epoch_runs(&mut self, runs: &[(RowId, u32)]) -> bool {
        match EpochRuns::checked(runs, self.slot_count()) {
            Some(epochs) => {
                self.epochs = epochs;
                true
            }
            None => false,
        }
    }

    /// Membership test for a boundary tuple.
    #[inline]
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.contains_row(tuple.values())
    }

    /// Membership test for a row slice (the hot-path variant).
    #[inline]
    pub fn contains_row(&self, values: &[Value]) -> bool {
        self.contains_row_hashed(values, row_hash(values))
    }

    /// [`Relation::contains_row`] with the row hash precomputed.
    #[inline]
    pub fn contains_row_hashed(&self, values: &[Value], hash: u64) -> bool {
        self.find_row_hashed(values, hash).is_some()
    }

    /// The values of the row with id `row`.  Tombstoned slots keep their
    /// values readable, so this works for any allocated id; whether the
    /// slot is live is a separate question ([`Relation::is_live`]).
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of bounds; callers obtain ids from
    /// [`Relation::probe_rows`], [`Relation::lookup_rows`] or
    /// `0..slot_count()` filtered by [`Relation::is_live`] (once rows have
    /// been retracted, `len()` counts live rows and is *not* an id bound).
    #[inline]
    pub fn row(&self, row: RowId) -> &[Value] {
        self.pool.row(row)
    }

    /// Iterator over all rows (as value slices) in insertion order.
    #[inline]
    pub fn iter_rows(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        self.view().iter_rows()
    }

    /// Materializes the row with id `row` as a boundary [`Tuple`]
    /// (allocates; result extraction and tests only — hot paths use
    /// [`Relation::row`]).
    #[inline]
    pub fn tuple_at(&self, row: RowId) -> Tuple {
        Tuple::from_row(self.pool.row(row))
    }

    /// Materializes every row as a boundary [`Tuple`], in insertion order
    /// (allocates; result extraction and tests only).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.iter_rows().map(Tuple::from_row).collect()
    }

    /// `(id, values)` of the live rows among the slots `start..end`.
    #[inline]
    fn live_in(&self, start: RowId, end: RowId) -> impl Iterator<Item = (RowId, &[Value])> + '_ {
        (start..end)
            .filter(move |&row| self.pool.is_live(row))
            .map(move |row| (row, self.pool.row(row)))
    }

    /// Number of live rows among the slots `start..end` (published ones,
    /// or the pending ones, which are never dead).
    fn live_count(&self, start: RowId, end: RowId) -> usize {
        if !self.pool.has_dead() || start >= self.published {
            (end - start) as usize
        } else if start == 0 && end == self.published {
            self.len()
        } else {
            self.live_in(start, end).count()
        }
    }

    /// Row ids of the rows whose `column` equals `value`, using the hash
    /// index when one exists and a filtered scan otherwise.  Allocates the
    /// result; the hot paths use [`Relation::probe_rows`] instead.
    pub fn lookup_rows(&self, column: usize, value: Value) -> Vec<RowId> {
        if let Some(index) = self.indexes.iter().find(|ix| ix.column() == column) {
            index.lookup(value).to_vec()
        } else {
            self.live_in(0, self.published)
                .filter(|(_, r)| r.get(column) == Some(&value))
                .map(|(i, _)| i)
                .collect()
        }
    }

    /// Row ids of the rows matching *all* the given `(column, value)`
    /// equality filters, through one composite-index probe — `None` when no
    /// composite index covers the filtered columns.
    ///
    /// The widest applicable composite index wins (most columns resolved in
    /// a single hash lookup).  Candidates are confirmed against the actual
    /// row values (composite entries are keyed by hash), so the result is
    /// exact.  Callers fall back to a single-column
    /// [`Relation::lookup_rows`] or a scan when this returns `None`.
    pub fn lookup_rows_composite(&self, filters: &[(usize, Value)]) -> Option<Vec<RowId>> {
        if let Some(found) = self.probe_every_column(filters) {
            return Some(
                found
                    .filter(|&row| row < self.published)
                    .into_iter()
                    .collect(),
            );
        }
        let best = self.best_composite(filters)?;
        let hash = composite_probe_hash(best, filters);
        Some(
            best.lookup_hash(hash)
                .iter()
                .copied()
                .filter(|&row| {
                    let values = self.pool.row(row);
                    best.columns()
                        .iter()
                        .all(|&c| filters.iter().any(|&(col, v)| col == c && values[c] == v))
                })
                .collect(),
        )
    }

    /// The widest composite index whose columns are all present in
    /// `filters`, if any.
    #[inline]
    fn best_composite(&self, filters: &[(usize, Value)]) -> Option<&CompositeIndex> {
        self.composites
            .iter()
            .filter(|ix| {
                ix.columns()
                    .iter()
                    .all(|c| filters.iter().any(|(col, _)| col == c))
            })
            .max_by_key(|ix| ix.columns().len())
    }

    /// The answer of the composite index over every column (the dedup
    /// table) to `filters`: `None` unless that index is declared and the
    /// filters bind every column, else the live row matching all of them, if
    /// any (pending rows included; callers clip to their range).
    fn probe_every_column(&self, filters: &[(usize, Value)]) -> Option<Option<RowId>> {
        if !self.row_index || filters.len() < self.schema.arity {
            return None;
        }
        let mut hash = crate::pool::ROW_HASH_INIT;
        for column in 0..self.schema.arity {
            let &(_, value) = filters.iter().find(|(col, _)| *col == column)?;
            hash = mix_hash(hash, value_hash(value));
        }
        let matches = |row: &[Value]| filters.iter().all(|&(col, v)| row.get(col) == Some(&v));
        Some(self.pool.find_by(hash, matches))
    }

    /// Whether any composite index is defined (cheap gate for callers that
    /// want to skip building a resolved-filter list when it cannot pay off).
    #[inline]
    pub fn has_composite_indexes(&self) -> bool {
        self.row_index || !self.composites.is_empty()
    }

    /// Candidate rows for a set of resolved `(column, value)` equality
    /// filters, **without allocating**: the engine-wide access-path policy
    /// shared by the specialized kernel, the interpreter and the bytecode
    /// VM, over every published row (see [`RelationView::probe_rows`]).
    #[inline]
    pub fn probe_rows<'a>(
        &'a self,
        filters: &[(usize, Value)],
        scratch: &'a mut Vec<RowId>,
    ) -> ProbeRows<'a> {
        self.view().probe_rows(filters, scratch)
    }

    /// Allocating convenience wrapper around [`Relation::probe_rows`]
    /// (tests, examples and cold paths).  Same access-path policy and the
    /// same caveat: rows may need re-checking against uncovered filters.
    pub fn candidate_rows(&self, filters: &[(usize, Value)]) -> Vec<RowId> {
        let mut scratch = Vec::new();
        let probe = self.probe_rows(filters, &mut scratch);
        probe.iter().collect()
    }

    /// Compacts tombstoned slots away (see [`RowPool::compact`]): live rows
    /// are renumbered densely and every id-bearing structure — single-column
    /// and composite indexes, shard partitions — is rebuilt; the epoch runs,
    /// the delta-known run and the pending rows are renumbered with the
    /// rows.  A no-op (and free) when nothing is dead.  **Invalidates
    /// previously obtained [`RowId`]s**, so callers only compact at points
    /// where none are held (the incremental engine compacts between update
    /// batches).
    pub fn compact(&mut self) {
        if !self.pool.has_dead() {
            return;
        }
        let live_before = |slot: RowId| self.live_count(0, slot) as RowId;
        let run = (live_before(self.run.0), live_before(self.run.1));
        let published = live_before(self.published);
        (self.run, self.published) = (run, published);
        self.epochs = self.epochs.renumbered(|row| self.pool.is_live(row));
        self.pool.compact();
        for index in &mut self.indexes {
            index.rebuild((0..self.published).map(|row| (row, self.pool.row(row))));
        }
        for index in &mut self.composites {
            index.rebuild((0..self.published).map(|row| (row, self.pool.row(row))));
        }
        self.rebuild_shards();
    }

    /// Number of tombstoned slots currently held (the compaction trigger's
    /// input; 0 for insert-only relations).
    #[inline]
    pub fn dead_count(&self) -> usize {
        self.pool.slots() - self.pool.len()
    }

    /// Removes every row, pending ones included (and with them the epoch
    /// runs and the delta-known run), but keeps schema, index and shard
    /// definitions (and allocated capacity, so refills do not reallocate).
    pub fn clear(&mut self) {
        self.pool.clear();
        for index in &mut self.indexes {
            index.clear();
        }
        for index in &mut self.composites {
            index.clear();
        }
        for shard in &mut self.shards {
            shard.clear();
        }
        self.epochs.clear();
        self.published = 0;
        self.run = (0, 0);
    }

    /// Moves all rows of `other` into `self` (deduplicating), leaving
    /// `other` empty.  Schemas must agree in arity.
    pub fn absorb(&mut self, other: &mut Relation) -> Result<usize> {
        if other.schema.arity != self.schema.arity {
            return Err(StorageError::SchemaMismatch {
                context: format!(
                    "absorb {}  (arity {}) into {} (arity {})",
                    other.schema.name, other.schema.arity, self.schema.name, self.schema.arity
                ),
            });
        }
        let added = self.union_in_place(other)?;
        other.clear();
        Ok(added)
    }

    /// Copies all (published) rows of `other` into `self` without modifying
    /// `other`.
    ///
    /// Rows are appended straight from `other`'s pool using its retained row
    /// hashes — no tuples are constructed and nothing is rehashed.
    pub fn union_in_place(&mut self, other: &Relation) -> Result<usize> {
        if other.schema.arity != self.schema.arity {
            return Err(StorageError::SchemaMismatch {
                context: format!(
                    "union {} (arity {}) into {} (arity {})",
                    other.schema.name, other.schema.arity, self.schema.name, self.schema.arity
                ),
            });
        }
        self.ensure_no_pending()?;
        let mut added = 0;
        for (row, values) in other.live_in(0, other.published) {
            let key_unit = if self.shard_count > 1 {
                value_hash(self.shard_value(values))
            } else {
                0
            };
            if self
                .insert_prehashed_row(values, other.pool.hash_of(row), key_unit)
                .is_some()
            {
                added += 1;
            }
        }
        Ok(added)
    }

    /// Resident-memory snapshot: the pool's stats plus the resident bytes of
    /// every index and the shard partitions.
    pub fn pool_stats(&self) -> PoolStats {
        let mut stats = self.pool.stats();
        stats.bytes += self
            .indexes
            .iter()
            .map(ColumnIndex::resident_bytes)
            .sum::<usize>();
        stats.bytes += self
            .composites
            .iter()
            .map(CompositeIndex::resident_bytes)
            .sum::<usize>();
        stats.bytes += self
            .shards
            .iter()
            .map(|s| s.capacity() * std::mem::size_of::<RowId>())
            .sum::<usize>();
        stats.bytes += self.epochs.heap_bytes();
        stats
    }
}

/// One evaluation database's rows of a relation: the relation plus a slot
/// range ([`StorageManager::relation`](crate::StorageManager::relation)).
///
/// * *derived* is every published slot,
/// * *delta-known* is the run the last iteration boundary published — a
///   suffix of the published slots — or an explicit delta set loaded by the
///   incremental layer (a relation of its own, viewed whole),
/// * *delta-new* is the pending slots.
///
/// Reads answer for the live rows of the range only.  The ranges of derived
/// and delta-known share the relation's indexes and shard partitions:
/// posting lists are in slot order, so the rows of a range are a contiguous
/// part of any list and a probe of the delta is a binary search into the
/// derived posting list ([`RelationView::probe_rows`]), not a scan.  The
/// pending range has no posting lists; probes of it scan.
#[derive(Debug, Clone, Copy)]
pub struct RelationView<'a> {
    relation: &'a Relation,
    start: RowId,
    end: RowId,
}

impl<'a> RelationView<'a> {
    /// Whether the range is covered by the relation's posting lists.
    #[inline]
    fn posted(&self) -> bool {
        self.end <= self.relation.published
    }

    /// Number of live rows in the range.
    #[inline]
    pub fn len(&self) -> usize {
        self.relation.live_count(self.start, self.end)
    }

    /// Whether the range holds no live row.
    #[inline]
    pub fn is_empty(&self) -> bool {
        if self.relation.pool.has_dead() {
            self.relation.live_in(self.start, self.end).next().is_none()
        } else {
            self.start == self.end
        }
    }

    /// The values of row `row` (any allocated id; see [`Relation::row`]).
    #[inline]
    pub fn row(&self, row: RowId) -> &'a [Value] {
        self.relation.pool.row(row)
    }

    /// Whether a live row of the range equals `values`.
    #[inline]
    pub fn contains_row(&self, values: &[Value]) -> bool {
        self.relation
            .pool
            .find_hashed(values, row_hash(values))
            .is_some_and(|row| self.start <= row && row < self.end)
    }

    /// Membership test for a boundary tuple.
    #[inline]
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.contains_row(tuple.values())
    }

    /// The live rows of the range, in slot order.
    pub fn iter_rows(&self) -> impl ExactSizeIterator<Item = &'a [Value]> + 'a {
        SlotRows {
            pool: &self.relation.pool,
            next: self.start,
            end: self.end,
            remaining: self.len(),
        }
    }

    /// Materializes the live rows of the range as boundary [`Tuple`]s, in
    /// slot order (allocates; result extraction and tests only).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.iter_rows().map(Tuple::from_row).collect()
    }

    /// Whether the range is probed through a single-column index on
    /// `column`.
    pub fn has_index(&self, column: usize) -> bool {
        self.posted() && self.relation.has_index(column)
    }

    /// Whether the range is probed through a composite index over exactly
    /// `columns`.
    pub fn has_composite_index(&self, columns: &[usize]) -> bool {
        self.posted() && self.relation.has_composite_index(columns)
    }

    /// Number of shard partitions of the range (1 when it is not sharded).
    #[inline]
    pub fn shard_count(&self) -> usize {
        if self.posted() {
            self.relation.shard_count()
        } else {
            1
        }
    }

    /// Whether the range is partitioned into hash shards.
    #[inline]
    pub fn is_sharded(&self) -> bool {
        self.shard_count() > 1
    }

    /// The live rows of the range in shard `shard`, in slot order: the part
    /// of the relation's shard list inside the range (empty for
    /// out-of-range shards or an unsharded range).
    pub fn shard_rows(&self, shard: usize) -> &'a [RowId] {
        if !self.posted() {
            return &[];
        }
        self.clip(self.relation.shard_rows(shard))
    }

    /// Candidate rows of the range for a set of resolved `(column, value)`
    /// equality filters, **without allocating**: the engine-wide access-path
    /// policy shared by the specialized kernel, the interpreter and the
    /// bytecode VM.
    ///
    /// Access paths, in order of preference: a composite index covering
    /// several filtered columns, else a single-column index on any filtered
    /// column — in both cases the part of the relation's posting list
    /// inside the range ([`ProbeRows::scanned_rows`] is 0) — else a scan of
    /// the range on the first filter (collected into the caller's reusable
    /// `scratch` buffer; [`ProbeRows::scanned_rows`] counts the rows it
    /// visited), else the whole range.  The candidates come in slot order
    /// and **may still need re-checking against filters the chosen access
    /// path did not cover** (composite candidates are hash-keyed and may
    /// include collision false positives).
    pub fn probe_rows<'s>(
        &self,
        filters: &[(usize, Value)],
        scratch: &'s mut Vec<RowId>,
    ) -> ProbeRows<'s>
    where
        'a: 's,
    {
        let (relation, start, end) = (self.relation, self.start, self.end);
        // Posting lists hold exactly the published rows; a pending range
        // has none of its own.
        if self.posted() {
            if filters.len() >= 2 {
                if let Some(found) = relation.probe_every_column(filters) {
                    scratch.clear();
                    scratch.extend(found.filter(|&row| start <= row && row < end));
                    return ProbeRows {
                        rows: ProbeSource::Slice(scratch),
                        via_composite: true,
                        scanned: 0,
                    };
                }
                if let Some(best) = relation.best_composite(filters) {
                    let hash = composite_probe_hash(best, filters);
                    return ProbeRows {
                        rows: ProbeSource::Slice(self.clip(best.lookup_hash(hash))),
                        via_composite: true,
                        scanned: 0,
                    };
                }
            }
            for &(col, value) in filters {
                if let Some(index) = relation.indexes.iter().find(|ix| ix.column() == col) {
                    return ProbeRows {
                        rows: ProbeSource::Slice(self.clip(index.lookup(value))),
                        via_composite: false,
                        scanned: 0,
                    };
                }
            }
        }
        scratch.clear();
        if let Some(&(col, value)) = filters.first() {
            let mut scanned = 0;
            for (row, values) in relation.live_in(start, end) {
                scanned += 1;
                if values.get(col) == Some(&value) {
                    scratch.push(row);
                }
            }
            return ProbeRows {
                rows: ProbeSource::Slice(scratch),
                via_composite: false,
                scanned,
            };
        }
        if relation.pool.has_dead() {
            // Tombstoned slots exist: a plain slot range would revive
            // retracted rows, so collect the live ids into the caller's
            // reusable scratch (still allocation-free once warm).
            scratch.extend(relation.live_in(start, end).map(|(row, _)| row));
            return ProbeRows {
                rows: ProbeSource::Slice(scratch),
                via_composite: false,
                scanned: 0,
            };
        }
        ProbeRows {
            rows: ProbeSource::Range(start, end),
            via_composite: false,
            scanned: 0,
        }
    }

    /// The part of a slot-ordered posting list that falls in the range: two
    /// binary searches (one when the range runs to the last published slot,
    /// none for the whole relation), never a scan.
    #[inline]
    fn clip<'l>(&self, rows: &'l [RowId]) -> &'l [RowId] {
        let lo = if self.start == 0 {
            0
        } else {
            rows.partition_point(|&row| row < self.start)
        };
        let hi = if self.end == self.relation.published {
            rows.len()
        } else {
            lo + rows[lo..].partition_point(|&row| row < self.end)
        };
        &rows[lo..hi]
    }
}

/// Hash of the probe key for `index` assembled from resolved filters (the
/// filter list is a superset of the index's columns by construction).
#[inline]
fn composite_probe_hash(index: &CompositeIndex, filters: &[(usize, Value)]) -> u64 {
    index.columns().iter().fold(0, |h, &c| {
        let value = filters
            .iter()
            .find(|(col, _)| *col == c)
            .map(|&(_, v)| v)
            .expect("filter present by construction");
        mix_hash(h, value_hash(value))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelId;

    fn edge_schema() -> RelationSchema {
        RelationSchema::new(RelId(0), "Edge", 2, true)
    }

    #[test]
    fn insert_deduplicates() {
        let mut r = Relation::new(edge_schema());
        assert!(r.insert(Tuple::pair(1, 2)).unwrap());
        assert!(!r.insert(Tuple::pair(1, 2)).unwrap());
        assert!(r.insert(Tuple::pair(2, 3)).unwrap());
        assert_eq!(r.len(), 2);
        assert!(r.contains(&Tuple::pair(1, 2)));
        assert!(r.contains_row(&[Value::int(1), Value::int(2)]));
    }

    #[test]
    fn insert_rejects_wrong_arity() {
        let mut r = Relation::new(edge_schema());
        let err = r.insert(Tuple::from_ints(&[1, 2, 3])).unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { .. }));
    }

    #[test]
    fn lookup_with_and_without_index_agree() {
        let mut indexed = Relation::new(edge_schema());
        let mut plain = Relation::new(edge_schema());
        indexed.add_index(0).unwrap();
        for (a, b) in [(1, 2), (1, 3), (2, 3), (3, 1)] {
            indexed.insert(Tuple::pair(a, b)).unwrap();
            plain.insert(Tuple::pair(a, b)).unwrap();
        }
        let from_index = indexed.lookup_rows(0, Value::int(1));
        let from_scan = plain.lookup_rows(0, Value::int(1));
        assert_eq!(from_index, from_scan);
        assert_eq!(from_index.len(), 2);
    }

    #[test]
    fn add_index_backfills_existing_rows() {
        let mut r = Relation::new(edge_schema());
        r.insert(Tuple::pair(7, 8)).unwrap();
        r.add_index(1).unwrap();
        assert_eq!(r.lookup_rows(1, Value::int(8)).len(), 1);
        assert!(r.has_index(1));
        assert!(!r.has_index(0));
        assert_eq!(r.index_distinct(1), 1);
        assert_eq!(r.index_distinct(0), 0);
    }

    #[test]
    fn add_index_out_of_bounds_errors() {
        let mut r = Relation::new(edge_schema());
        assert!(matches!(
            r.add_index(5),
            Err(StorageError::ColumnOutOfBounds { .. })
        ));
    }

    #[test]
    fn clear_retains_index_definitions() {
        let mut r = Relation::new(edge_schema());
        r.add_index(0).unwrap();
        r.insert(Tuple::pair(1, 2)).unwrap();
        r.clear();
        assert!(r.is_empty());
        assert!(r.has_index(0));
        r.insert(Tuple::pair(3, 4)).unwrap();
        assert_eq!(r.lookup_rows(0, Value::int(3)).len(), 1);
    }

    #[test]
    fn absorb_moves_and_dedups() {
        let mut a = Relation::new(edge_schema());
        let mut b = Relation::new(edge_schema());
        a.insert(Tuple::pair(1, 2)).unwrap();
        b.insert(Tuple::pair(1, 2)).unwrap();
        b.insert(Tuple::pair(3, 4)).unwrap();
        let added = a.absorb(&mut b).unwrap();
        assert_eq!(added, 1);
        assert_eq!(a.len(), 2);
        assert!(b.is_empty());
    }

    #[test]
    fn composite_index_probes_two_bound_columns() {
        let mut r = Relation::new(edge_schema());
        r.add_composite_index(&[0, 1]).unwrap();
        for (a, b) in [(1, 2), (1, 3), (2, 2), (1, 2)] {
            r.insert(Tuple::pair(a, b)).unwrap();
        }
        let rows = r
            .lookup_rows_composite(&[(0, Value::int(1)), (1, Value::int(2))])
            .expect("composite index covers both columns");
        assert_eq!(rows, vec![0]);
        // Partial filters are not covered by the two-column index.
        assert!(r.lookup_rows_composite(&[(0, Value::int(1))]).is_none());
        assert!(r.has_composite_index(&[1, 0]));
    }

    #[test]
    fn composite_index_backfills_and_survives_clear() {
        let mut r = Relation::new(edge_schema());
        r.insert(Tuple::pair(5, 6)).unwrap();
        r.add_composite_index(&[0, 1]).unwrap();
        assert_eq!(
            r.lookup_rows_composite(&[(0, Value::int(5)), (1, Value::int(6))]),
            Some(vec![0])
        );
        r.clear();
        assert!(r.has_composite_index(&[0, 1]));
        r.insert(Tuple::pair(7, 8)).unwrap();
        assert_eq!(
            r.lookup_rows_composite(&[(1, Value::int(8)), (0, Value::int(7))]),
            Some(vec![0])
        );
    }

    #[test]
    fn single_column_composite_degrades_to_plain_index() {
        let mut r = Relation::new(edge_schema());
        r.add_composite_index(&[1, 1]).unwrap();
        assert!(r.has_index(1));
        assert!(r.composite_indexed_columns().is_empty());
    }

    #[test]
    fn probe_rows_borrows_posting_lists_and_scratch() {
        let mut r = Relation::new(edge_schema());
        r.add_index(0).unwrap();
        for (a, b) in [(1, 2), (1, 3), (2, 4)] {
            r.insert(Tuple::pair(a, b)).unwrap();
        }
        let mut scratch = Vec::new();
        // Indexed column: posting-list-backed, scratch untouched.
        let probe = r.probe_rows(&[(0, Value::int(1))], &mut scratch);
        assert_eq!(probe.iter().collect::<Vec<_>>(), vec![0, 1]);
        assert!(!probe.via_composite());
        // Unindexed column: scratch-backed filtered scan.
        let probe = r.probe_rows(&[(1, Value::int(4))], &mut scratch);
        assert_eq!(probe.iter().collect::<Vec<_>>(), vec![2]);
        // No filters: full range, still allocation-free.
        let probe = r.probe_rows(&[], &mut scratch);
        assert_eq!(probe.len(), 3);
        assert_eq!(probe.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn candidate_rows_matches_probe_rows() {
        let mut r = Relation::new(edge_schema());
        r.add_composite_index(&[0, 1]).unwrap();
        for (a, b) in [(1, 2), (1, 3), (2, 2)] {
            r.insert(Tuple::pair(a, b)).unwrap();
        }
        let filters = [(0, Value::int(1)), (1, Value::int(3))];
        let mut scratch = Vec::new();
        let probe: Vec<RowId> = r.probe_rows(&filters, &mut scratch).iter().collect();
        assert_eq!(probe, r.candidate_rows(&filters));
        assert!(r.probe_rows(&filters, &mut scratch).via_composite());
    }

    #[test]
    fn shards_partition_all_rows_disjointly() {
        let mut r = Relation::new(edge_schema());
        r.set_sharding(4, 0).unwrap();
        for i in 0..100u32 {
            r.insert(Tuple::pair(i, i + 1)).unwrap();
        }
        assert!(r.is_sharded());
        let mut seen: Vec<RowId> = (0..4).flat_map(|s| r.shard_rows(s).to_vec()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<RowId>>());
        // Every shard got something at this size.
        for s in 0..4 {
            assert!(!r.shard_rows(s).is_empty(), "shard {s} is empty");
        }
        // All rows in a shard share the shard of their key value.
        for s in 0..4 {
            for &row in r.shard_rows(s) {
                let v = r.row(row)[0];
                assert_eq!(super::shard_of(v, 4), s);
            }
        }
    }

    #[test]
    fn sharding_can_be_reconfigured_and_disabled() {
        let mut r = Relation::new(edge_schema());
        for i in 0..10u32 {
            r.insert(Tuple::pair(i, i)).unwrap();
        }
        r.set_sharding(8, 1).unwrap();
        assert_eq!(r.shard_count(), 8);
        let total: usize = (0..8).map(|s| r.shard_rows(s).len()).sum();
        assert_eq!(total, 10);
        r.set_sharding(1, 0).unwrap();
        assert!(!r.is_sharded());
        assert!(r.shard_rows(0).is_empty());
        assert!(matches!(
            r.set_sharding(2, 9),
            Err(StorageError::ColumnOutOfBounds { .. })
        ));
    }

    #[test]
    fn retract_row_unlinks_indexes_and_shards() {
        let mut r = Relation::new(edge_schema());
        r.add_index(0).unwrap();
        r.add_composite_index(&[0, 1]).unwrap();
        r.set_sharding(4, 0).unwrap();
        for (a, b) in [(1, 2), (1, 3), (2, 4)] {
            r.insert(Tuple::pair(a, b)).unwrap();
        }
        assert!(r.retract(&Tuple::pair(1, 3)).unwrap());
        assert!(!r.retract(&Tuple::pair(1, 3)).unwrap());
        assert_eq!(r.len(), 2);
        assert!(!r.contains(&Tuple::pair(1, 3)));
        assert_eq!(r.lookup_rows(0, Value::int(1)), vec![0]);
        assert_eq!(
            r.lookup_rows_composite(&[(0, Value::int(1)), (1, Value::int(3))]),
            Some(vec![])
        );
        let sharded: Vec<RowId> = (0..4).flat_map(|s| r.shard_rows(s).to_vec()).collect();
        assert_eq!(sharded.len(), 2);
        assert!(!sharded.contains(&1));
        // Full scans (probe with no filters) skip the tombstone.
        let mut scratch = Vec::new();
        let probe: Vec<RowId> = r.probe_rows(&[], &mut scratch).iter().collect();
        assert_eq!(probe, vec![0, 2]);
        // Unindexed filtered scans skip it too.
        let mut plain = Relation::new(edge_schema());
        plain.insert(Tuple::pair(1, 2)).unwrap();
        plain.insert(Tuple::pair(1, 3)).unwrap();
        plain.retract(&Tuple::pair(1, 3)).unwrap();
        let probe: Vec<RowId> = plain
            .probe_rows(&[(0, Value::int(1))], &mut scratch)
            .iter()
            .collect();
        assert_eq!(probe, vec![0]);
        // Re-insertion after retraction works and is visible again.
        assert!(r.insert(Tuple::pair(1, 3)).unwrap());
        assert_eq!(r.lookup_rows(0, Value::int(1)).len(), 2);
    }

    #[test]
    fn compact_renumbers_and_rebuilds_everything() {
        let mut r = Relation::new(edge_schema());
        r.add_index(0).unwrap();
        r.add_composite_index(&[0, 1]).unwrap();
        r.set_sharding(4, 0).unwrap();
        for i in 0..100u32 {
            r.insert(Tuple::pair(i % 10, i)).unwrap();
        }
        for i in (0..100u32).step_by(2) {
            r.retract(&Tuple::pair(i % 10, i)).unwrap();
        }
        assert_eq!(r.len(), 50);
        assert_eq!(r.dead_count(), 50);
        r.compact();
        assert_eq!(r.len(), 50);
        assert_eq!(r.dead_count(), 0);
        assert_eq!(r.slot_count(), 50);
        // Membership, indexes, composite probes and shards all agree with
        // a freshly built relation holding the surviving rows.
        let mut fresh = Relation::new(edge_schema());
        fresh.add_index(0).unwrap();
        fresh.add_composite_index(&[0, 1]).unwrap();
        fresh.set_sharding(4, 0).unwrap();
        for i in (1..100u32).step_by(2) {
            fresh.insert(Tuple::pair(i % 10, i)).unwrap();
        }
        let mut a = r.to_tuples();
        let mut b = fresh.to_tuples();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        for v in 0..10u32 {
            assert_eq!(
                r.lookup_rows(0, Value::int(v)).len(),
                fresh.lookup_rows(0, Value::int(v)).len()
            );
        }
        assert_eq!(
            r.lookup_rows_composite(&[(0, Value::int(1)), (1, Value::int(1))]),
            Some(vec![0])
        );
        for s in 0..4 {
            assert_eq!(r.shard_rows(s).len(), fresh.shard_rows(s).len());
        }
        // Further inserts and retracts behave normally afterwards.
        assert!(r.insert(Tuple::pair(0, 0)).unwrap());
        assert!(r.retract(&Tuple::pair(1, 1)).unwrap());
        assert_eq!(r.len(), 50);
    }

    #[test]
    fn row_checked_rejects_ids_across_compaction() {
        // Regression: compaction renumbers RowIds; a holder re-reading a
        // pre-compaction id through `row()` silently gets whatever row now
        // occupies the slot.  The generation-checked accessor turns that
        // into a typed error.
        let mut r = Relation::new(edge_schema());
        for i in 0..10u32 {
            r.insert(Tuple::pair(i, i)).unwrap();
        }
        let generation = r.generation();
        // Hold the id of row (9, 9), then retract everything before it.
        let held = r.lookup_rows(0, Value::int(9))[0];
        assert_eq!(
            r.row_checked(held, generation).unwrap(),
            &[Value::int(9), Value::int(9)]
        );
        for i in 0..9u32 {
            r.retract(&Tuple::pair(i, i)).unwrap();
        }
        r.compact();
        // The unchecked accessor would now hand back (9, 9) under id 0 and
        // whatever garbage `held` points at is out of bounds or wrong; the
        // checked accessor reports staleness instead.
        let err = r.row_checked(held, generation).unwrap_err();
        assert!(matches!(
            err,
            StorageError::StaleRowId {
                held: 0,
                current: 1,
                ..
            }
        ));
        // Fresh ids under the new generation validate fine.
        let fresh = r.lookup_rows(0, Value::int(9))[0];
        assert_eq!(
            r.row_checked(fresh, r.generation()).unwrap(),
            &[Value::int(9), Value::int(9)]
        );
        // Retracted-but-not-compacted slots are rejected too.
        r.insert(Tuple::pair(1, 2)).unwrap();
        let id = r.lookup_rows(0, Value::int(1))[0];
        r.retract(&Tuple::pair(1, 2)).unwrap();
        assert!(r.row_checked(id, r.generation()).is_err());
    }

    #[test]
    fn union_in_place_keeps_source() {
        let mut a = Relation::new(edge_schema());
        let mut b = Relation::new(edge_schema());
        b.insert(Tuple::pair(9, 9)).unwrap();
        let added = a.union_in_place(&b).unwrap();
        assert_eq!(added, 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn pending_rows_stay_invisible_until_published_as_the_run() {
        let mut r = Relation::new(edge_schema());
        r.add_index(0).unwrap();
        r.insert(Tuple::pair(1, 1)).unwrap();
        assert!(r.insert_pending(&[Value::int(1), Value::int(2)]));
        assert!(!r.insert_pending(&[Value::int(1), Value::int(2)])); // pending
        assert!(!r.insert_pending(&[Value::int(1), Value::int(1)])); // published
                                                                     // Reads of the relation see the published row only.
        assert_eq!(r.len(), 1);
        assert_eq!(r.slot_count(), 1);
        assert!(!r.contains(&Tuple::pair(1, 2)));
        assert_eq!(r.lookup_rows(0, Value::int(1)), vec![0]);
        assert_eq!(r.pending_view().len(), 1);
        assert!(r.pending_view().contains(&Tuple::pair(1, 2)));
        // Direct writes wait for the boundary; retracting a pending row is
        // a no-op.
        assert!(matches!(
            r.insert(Tuple::pair(5, 5)),
            Err(StorageError::PendingRows { .. })
        ));
        assert!(!r.retract(&Tuple::pair(1, 2)).unwrap());
        assert_eq!(r.publish(3), 1);
        assert_eq!(r.len(), 2);
        assert_eq!(r.epoch_of(1), 3);
        let run = r.run_view();
        assert_eq!(run.to_tuples(), vec![Tuple::pair(1, 2)]);
        let mut scratch = Vec::new();
        let probe = run.probe_rows(&[(0, Value::int(1))], &mut scratch);
        assert_eq!(probe.iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(probe.scanned_rows(), 0);
        // Dropping pending rows forgets them entirely.
        r.insert_pending(&[Value::int(7), Value::int(7)]);
        r.clear_delta();
        assert!(r.run_view().is_empty() && r.pending_view().is_empty());
        assert!(r.insert_pending(&[Value::int(7), Value::int(7)]));
    }

    #[test]
    fn a_composite_index_over_every_column_is_the_dedup_table() {
        let mut r = Relation::new(edge_schema());
        r.add_composite_index(&[1, 0]).unwrap();
        assert!(r.has_composite_index(&[0, 1]));
        assert!(!r.has_composite_index(&[0, 5]));
        assert_eq!(r.composite_indexed_columns(), vec![vec![0, 1]]);
        for (a, b) in [(1, 2), (1, 3), (2, 2)] {
            r.insert(Tuple::pair(a, b)).unwrap();
        }
        // No map of its own: the resident bytes are the pool's.
        assert_eq!(r.pool_stats(), r.pool.stats());
        let mut scratch = Vec::new();
        let probe = r.probe_rows(&[(1, Value::int(3)), (0, Value::int(1))], &mut scratch);
        assert!(probe.via_composite());
        assert_eq!(probe.iter().collect::<Vec<_>>(), vec![1]);
        assert!(r
            .probe_rows(&[(0, Value::int(2)), (1, Value::int(3))], &mut scratch)
            .is_empty());
        // Ranges clip the answer like any posting list.
        r.insert_pending(&[Value::int(9), Value::int(9)]);
        r.publish(1);
        let run = r.run_view();
        let filters = [(0, Value::int(1)), (1, Value::int(2))];
        assert!(run.probe_rows(&filters, &mut scratch).is_empty());
        let filters = [(0, Value::int(9)), (1, Value::int(9))];
        assert_eq!(run.probe_rows(&filters, &mut scratch).len(), 1);
        assert!(r.retract(&Tuple::pair(9, 9)).unwrap());
        assert_eq!(r.lookup_rows_composite(&filters), Some(vec![]));
    }

    #[test]
    fn pool_stats_report_rows_and_bytes() {
        let mut r = Relation::new(edge_schema());
        r.add_index(0).unwrap();
        for i in 0..50u32 {
            r.insert(Tuple::pair(i % 5, i)).unwrap();
        }
        let stats = r.pool_stats();
        assert_eq!(stats.rows, 50);
        assert!(stats.bytes >= 50 * 2 * std::mem::size_of::<Value>());
        assert_eq!(r.index_distinct(0), 5);
        assert_eq!(r.indexed_distincts(), vec![(0, 5)]);
    }
}
