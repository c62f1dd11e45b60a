//! In-memory relations with set semantics over a flat row pool.

use crate::epoch::EpochRuns;
use crate::error::StorageError;
use crate::index::{ColumnIndex, CompositeIndex};
use crate::pool::{mix_hash, shard_of_hash, value_hash, PoolStats, RowId, RowPool};
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
///   several bound columns at once,
/// * `shards` — optional hash partitions of the row ids by shard-key value,
///   enabling independent parallel scans of disjoint row subsets (see
///   [`Relation::set_sharding`]),
/// * `epochs` — which iteration boundary appended each row, as a run table
///   over the slots ([`Relation::epoch_of`]); no per-row field.
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
    /// Number of shard partitions; `1` disables sharding.
    shard_count: usize,
    /// Column whose value hashes a row into its shard.
    shard_key: usize,
    /// Row ids per shard (`shards.len() == shard_count` when sharded,
    /// empty otherwise).
    shards: Vec<Vec<RowId>>,
    /// `(first slot, epoch)` runs; see [`Relation::epoch_of`].
    epochs: EpochRuns,
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
/// Produced by [`Relation::probe_rows`].  Candidates obtained through a
/// composite index (or any access path that did not cover every filter) may
/// include rows that fail some filters; callers re-check filters per row,
/// which the execution kernels do anyway.
#[derive(Debug)]
pub struct ProbeRows<'a> {
    rows: ProbeSource<'a>,
    via_composite: bool,
}

#[derive(Debug)]
enum ProbeSource<'a> {
    /// An explicit row-id list: an index posting list or the caller's
    /// scratch buffer.
    Slice(&'a [RowId]),
    /// Every row of the relation (no usable access path).
    All(RowId),
}

impl<'a> ProbeRows<'a> {
    /// Number of candidate rows.
    pub fn len(&self) -> usize {
        match self.rows {
            ProbeSource::Slice(s) => s.len(),
            ProbeSource::All(n) => n as usize,
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

    /// Iterator over the candidate row ids, in insertion order.
    pub fn iter(&self) -> ProbeIter<'a> {
        match self.rows {
            ProbeSource::Slice(s) => ProbeIter::Slice(s.iter()),
            ProbeSource::All(n) => ProbeIter::Range(0..n),
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
    /// Iterating a full scan `0..n`.
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

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn new(schema: RelationSchema) -> Self {
        let arity = schema.arity;
        Relation {
            schema,
            pool: RowPool::new(arity),
            indexes: Vec::new(),
            composites: Vec::new(),
            shard_count: 1,
            shard_key: 0,
            shards: Vec::new(),
            epochs: EpochRuns::default(),
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

    /// Number of rows currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// Whether the relation holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
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
        index.rebuild(&self.pool);
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
    /// Idempotent; existing rows are back-filled.  Returns an error if any
    /// column is out of bounds.
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
            _ => {
                if self.composites.iter().any(|ix| ix.columns() == canonical) {
                    return Ok(());
                }
                let mut index = CompositeIndex::new(&canonical);
                index.rebuild(&self.pool);
                self.composites.push(index);
                Ok(())
            }
        }
    }

    /// The column sets currently covered by composite indexes.
    pub fn composite_indexed_columns(&self) -> Vec<Vec<usize>> {
        self.composites
            .iter()
            .map(|ix| ix.columns().to_vec())
            .collect()
    }

    /// Whether a composite index over exactly `columns` (order-insensitive)
    /// exists.
    pub fn has_composite_index(&self, columns: &[usize]) -> bool {
        let mut canonical = columns.to_vec();
        canonical.sort_unstable();
        canonical.dedup();
        self.composites.iter().any(|ix| ix.columns() == canonical)
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

    /// Row ids belonging to shard `shard` (insertion order within the
    /// shard).  Empty for out-of-range shards or when sharding is disabled.
    pub fn shard_rows(&self, shard: usize) -> &[RowId] {
        self.shards.get(shard).map_or(&[], Vec::as_slice)
    }

    fn rebuild_shards(&mut self) {
        self.shards.clear();
        if self.shard_count <= 1 {
            return;
        }
        self.shards.resize(self.shard_count, Vec::new());
        for (row, values) in self.pool.live_rows() {
            let value = values.get(self.shard_key).copied().unwrap_or_default();
            self.shards[shard_of(value, self.shard_count)].push(row);
        }
    }

    /// Inserts a tuple, returning `true` if it was new (boundary API; the
    /// evaluation hot paths use [`Relation::insert_row`] directly).
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        self.insert_row(tuple.values())
    }

    /// Inserts one row given as a value slice, returning `true` if it was
    /// new.  Duplicate rows are silently ignored (set semantics); arity is
    /// validated against the schema.  This is the single append path: one
    /// hash pass over the values feeds the dedup table, every index and the
    /// shard assignment.
    pub fn insert_row(&mut self, values: &[Value]) -> Result<bool> {
        if values.len() != self.schema.arity {
            return Err(StorageError::ArityMismatch {
                relation: self.schema.name.clone(),
                expected: self.schema.arity,
                actual: values.len(),
            });
        }
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

    /// [`Relation::insert_row`] with the row hash precomputed by the caller
    /// (arity must already match; used by the merge and derived-insert paths
    /// so iteration boundaries never rehash a row).  Returns `true` if the
    /// row was new.
    #[inline]
    pub(crate) fn insert_row_hashed(&mut self, values: &[Value], hash: u64) -> bool {
        let key_unit = if self.shard_count > 1 {
            value_hash(values.get(self.shard_key).copied().unwrap_or_default())
        } else {
            0
        };
        self.insert_prehashed_row(values, hash, key_unit).is_some()
    }

    #[inline]
    fn insert_prehashed_row(
        &mut self,
        values: &[Value],
        hash: u64,
        key_unit: u64,
    ) -> Option<RowId> {
        // Retained-hash fast path: every hash reaching here was computed by
        // this crate (the single-pass insert fold) or retained by a pool
        // (merge, derived-insert), so the public always-on validation is
        // skipped and iteration boundaries never rehash a row.
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
        Some(row)
    }

    /// Retracts the row equal to `tuple`, returning `true` if it was
    /// present (boundary API over [`Relation::retract_row`]).
    pub fn retract(&mut self, tuple: &Tuple) -> Result<bool> {
        self.retract_row(tuple.values())
    }

    /// Retracts one row given as a value slice: the row is tombstoned in the
    /// pool (its [`RowId`] stays allocated but leaves membership, iteration
    /// and cardinality) and unlinked from every posting list — single-column
    /// indexes, composite indexes and the shard partitions.  Returns `true`
    /// if an equal live row existed.
    pub fn retract_row(&mut self, values: &[Value]) -> Result<bool> {
        if values.len() != self.schema.arity {
            return Err(StorageError::ArityMismatch {
                relation: self.schema.name.clone(),
                expected: self.schema.arity,
                actual: values.len(),
            });
        }
        let hash = crate::pool::row_hash(values);
        let Some(row) = self.pool.retract_hashed_retained(values, hash) else {
            return Ok(false);
        };
        for index in &mut self.indexes {
            index.remove(values, row);
        }
        for index in &mut self.composites {
            index.remove(values, row);
        }
        if self.shard_count > 1 {
            let key = values.get(self.shard_key).copied().unwrap_or_default();
            let shard = &mut self.shards[shard_of(key, self.shard_count)];
            if let Some(pos) = shard.iter().position(|&r| r == row) {
                shard.remove(pos);
            }
        }
        Ok(true)
    }

    /// The live row equal to `values`, if any (hash precomputed by the
    /// caller) — the row-id-returning variant of
    /// [`Relation::contains_row_hashed`], e.g. for reading a fact's epoch.
    #[inline]
    pub fn find_row_hashed(&self, values: &[Value], hash: u64) -> Option<RowId> {
        self.pool.find_hashed(values, hash)
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
    /// when the slot was never allocated, or when the row was retracted in
    /// the meantime.
    pub fn row_checked(&self, row: RowId, generation: u64) -> Result<&[Value]> {
        let current = self.pool.generation();
        if generation != current || (row as usize) >= self.pool.slots() || !self.pool.is_live(row) {
            return Err(StorageError::StaleRowId {
                relation: self.schema.name.clone(),
                row,
                held: generation,
                current,
            });
        }
        Ok(self.pool.row(row))
    }

    /// Number of row slots ever allocated (including tombstoned ones) — the
    /// exclusive upper bound of valid [`RowId`]s, used as a high-water mark
    /// by the incremental subsystem to read off newly appended rows.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.pool.slots()
    }

    /// Rows appended from now on carry `epoch` (until a higher one begins).
    /// The storage manager calls this with its session counter before every
    /// append to a derived relation; an epoch at or below the current one
    /// changes nothing, so epochs never decrease in slot order.
    #[inline]
    pub fn begin_epoch(&mut self, epoch: u32) {
        self.epochs.begin(self.pool.slots() as RowId, epoch);
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
        match EpochRuns::checked(runs, self.pool.slots()) {
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
        self.pool.contains(tuple.values())
    }

    /// Membership test for a row slice (the hot-path variant).
    #[inline]
    pub fn contains_row(&self, values: &[Value]) -> bool {
        self.pool.contains(values)
    }

    /// [`Relation::contains_row`] with the row hash precomputed.
    #[inline]
    pub fn contains_row_hashed(&self, values: &[Value], hash: u64) -> bool {
        self.pool.contains_hashed(values, hash)
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
        self.pool.rows()
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
        self.pool.rows().map(Tuple::from_row).collect()
    }

    /// Row ids of the rows whose `column` equals `value`, using the hash
    /// index when one exists and a filtered scan otherwise.  Allocates the
    /// result; the hot paths use [`Relation::probe_rows`] instead.
    pub fn lookup_rows(&self, column: usize, value: Value) -> Vec<RowId> {
        if let Some(index) = self.indexes.iter().find(|ix| ix.column() == column) {
            index.lookup(value).to_vec()
        } else {
            self.pool
                .live_rows()
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

    /// Whether any composite index is defined (cheap gate for callers that
    /// want to skip building a resolved-filter list when it cannot pay off).
    #[inline]
    pub fn has_composite_indexes(&self) -> bool {
        !self.composites.is_empty()
    }

    /// Candidate rows for a set of resolved `(column, value)` equality
    /// filters, **without allocating**: the engine-wide access-path policy
    /// shared by the specialized kernel, the interpreter and the bytecode
    /// VM.
    ///
    /// Access paths, in order of preference: a composite index covering
    /// several filtered columns, else a single-column index on any filtered
    /// column, else a scan on the first filter (collected into the caller's
    /// reusable `scratch` buffer), else a full scan.  The returned candidate
    /// list borrows either an index posting list or `scratch`; **rows may
    /// still need re-checking against filters the chosen access path did not
    /// cover** (composite candidates are hash-keyed and may include
    /// collision false positives).
    pub fn probe_rows<'a>(
        &'a self,
        filters: &[(usize, Value)],
        scratch: &'a mut Vec<RowId>,
    ) -> ProbeRows<'a> {
        if filters.len() >= 2 {
            if let Some(best) = self.best_composite(filters) {
                let hash = composite_probe_hash(best, filters);
                return ProbeRows {
                    rows: ProbeSource::Slice(best.lookup_hash(hash)),
                    via_composite: true,
                };
            }
        }
        if let Some(&(col, value)) = filters.iter().find(|(col, _)| self.has_index(*col)) {
            let index = self
                .indexes
                .iter()
                .find(|ix| ix.column() == col)
                .expect("has_index checked");
            return ProbeRows {
                rows: ProbeSource::Slice(index.lookup(value)),
                via_composite: false,
            };
        }
        if let Some(&(col, value)) = filters.first() {
            scratch.clear();
            for (row, values) in self.pool.live_rows() {
                if values.get(col) == Some(&value) {
                    scratch.push(row);
                }
            }
            return ProbeRows {
                rows: ProbeSource::Slice(scratch),
                via_composite: false,
            };
        }
        if self.pool.has_dead() {
            // Tombstoned slots exist: a plain `0..slots` range would revive
            // retracted rows, so collect the live ids into the caller's
            // reusable scratch (still allocation-free once warm).
            scratch.clear();
            scratch.extend(self.pool.live_rows().map(|(row, _)| row));
            return ProbeRows {
                rows: ProbeSource::Slice(scratch),
                via_composite: false,
            };
        }
        ProbeRows {
            rows: ProbeSource::All(self.pool.slots() as RowId),
            via_composite: false,
        }
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
    /// and composite indexes, shard partitions — is rebuilt; the epoch runs
    /// are renumbered with the rows.  A no-op (and free) when nothing is
    /// dead.  **Invalidates previously obtained [`RowId`]s**, so callers
    /// only compact at points where none are held (the incremental engine
    /// compacts between update batches).
    pub fn compact(&mut self) {
        if !self.pool.has_dead() {
            return;
        }
        self.epochs = self.epochs.renumbered(|row| self.pool.is_live(row));
        self.pool.compact();
        for index in &mut self.indexes {
            index.rebuild(&self.pool);
        }
        for index in &mut self.composites {
            index.rebuild(&self.pool);
        }
        self.rebuild_shards();
    }

    /// Number of tombstoned slots currently held (the compaction trigger's
    /// input; 0 for insert-only relations).
    #[inline]
    pub fn dead_count(&self) -> usize {
        self.pool.slots() - self.pool.len()
    }

    /// Removes every row (and with them the epoch runs) but keeps schema,
    /// index and shard definitions (and allocated capacity, so refills do
    /// not reallocate).
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

    /// Copies all rows of `other` into `self` without modifying `other`.
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
        let mut added = 0;
        for row in 0..other.pool.slots() {
            let row = row as RowId;
            if !other.pool.is_live(row) {
                continue;
            }
            let values = other.pool.row(row);
            if self.insert_row_hashed(values, other.pool.hash_of(row)) {
                added += 1;
            }
        }
        Ok(added)
    }

    /// Swaps the *contents* of two relations (row pool, indexes, composite
    /// indexes, shard partitions and epoch runs) while leaving their schemas
    /// in place,
    /// in O(1) — this is the primitive behind `SwapClearOp`'s delta
    /// rotation: no row is copied, reinserted or rehashed.
    pub fn swap_contents(&mut self, other: &mut Relation) {
        std::mem::swap(&mut self.pool, &mut other.pool);
        std::mem::swap(&mut self.indexes, &mut other.indexes);
        std::mem::swap(&mut self.composites, &mut other.composites);
        std::mem::swap(&mut self.shard_count, &mut other.shard_count);
        std::mem::swap(&mut self.shard_key, &mut other.shard_key);
        std::mem::swap(&mut self.shards, &mut other.shards);
        std::mem::swap(&mut self.epochs, &mut other.epochs);
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
    fn swap_contents_exchanges_rows() {
        let mut a = Relation::new(edge_schema());
        let mut b = Relation::new(edge_schema());
        a.insert(Tuple::pair(1, 1)).unwrap();
        b.insert(Tuple::pair(2, 2)).unwrap();
        b.insert(Tuple::pair(3, 3)).unwrap();
        a.swap_contents(&mut b);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1);
        assert!(b.contains(&Tuple::pair(1, 1)));
    }

    #[test]
    fn swap_contents_rotation_moves_no_rows() {
        // The O(1) delta-rotation contract: after swapping, both sides serve
        // reads from their exchanged pools without any reinsertion — the row
        // ids and retained hashes travel with the pool.
        let mut known = Relation::new(edge_schema());
        let mut new = Relation::new(edge_schema());
        for i in 0..1000u32 {
            new.insert(Tuple::pair(i, i + 1)).unwrap();
        }
        let new_stats = new.pool_stats();
        known.swap_contents(&mut new);
        assert_eq!(known.len(), 1000);
        assert!(new.is_empty());
        // Identical stats object: same rows, same resident bytes, same
        // lifetime rehash count — nothing was copied or rehashed.
        assert_eq!(known.pool_stats(), new_stats);
        assert_eq!(known.row(0), &[Value::int(0), Value::int(1)]);
        assert_eq!(known.row(999), &[Value::int(999), Value::int(1000)]);
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
