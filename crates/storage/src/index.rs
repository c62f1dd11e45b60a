//! Per-column and composite (multi-column) hash indexes.
//!
//! The paper's index-selection policy (§IV) is deliberately simple: Carac
//! builds one hash index for every column that participates in a join key or
//! filter predicate, maintained incrementally as facts are inserted.  The
//! indexed/unindexed distinction is one of the axes of the evaluation
//! (Figures 6–9), so indexes can be toggled per relation.
//!
//! On top of the paper's single-column indexes this crate adds
//! [`CompositeIndex`]: a hash index over an ordered *set* of columns, used
//! when a rule constrains several columns of the same atom at once (e.g.
//! `Sg(px, py)` probed with both `px` and `py` bound).  A composite probe
//! replaces the intersection of several single-column probes with one hash
//! lookup.
//!
//! Both index kinds store [`PostingList`]s of [`RowId`]s into the owning
//! relation's flat row pool — up to a few rows inline, spilling to the heap
//! only for high-fanout keys — and never store row values themselves.  They
//! share the incremental-maintenance contract: `insert`, `remove`, `clear`
//! and `rebuild` keep them in sync with the owning relation's published rows.
//! Every posting list is in slot order (rows are appended in slot order,
//! `remove` keeps the order, `rebuild` runs in slot order), so the rows of a
//! slot range are a contiguous run of any list, found by binary search.

use crate::hasher::FxHashMap;
use crate::pool::{mix_hash, value_hash, PostingList, RowId};
use crate::value::Value;

/// A hash index over one column of a relation.
///
/// Maps each value appearing in the indexed column to the row ids (in
/// insertion order) of the rows carrying it.  Ids index into the owning
/// relation's row pool; the index never stores values itself.
#[derive(Debug, Clone, Default)]
pub struct ColumnIndex {
    /// Indexed column position.
    column: usize,
    /// Value → posting list of matching rows.
    entries: FxHashMap<Value, PostingList>,
}

impl ColumnIndex {
    /// Creates an empty index over `column`.
    pub fn new(column: usize) -> Self {
        ColumnIndex {
            column,
            entries: FxHashMap::default(),
        }
    }

    /// The column this index covers.
    #[inline]
    pub fn column(&self) -> usize {
        self.column
    }

    /// Registers a newly inserted row stored at `row`.
    #[inline]
    pub fn insert(&mut self, values: &[Value], row: RowId) {
        if let Some(&v) = values.get(self.column) {
            self.entries.entry(v).or_default().push(row);
        }
    }

    /// Unregisters a retracted row: removes `row` from the posting list of
    /// its column value (dropping the entry when the list empties).
    #[inline]
    pub fn remove(&mut self, values: &[Value], row: RowId) {
        if let Some(v) = values.get(self.column) {
            if let Some(list) = self.entries.get_mut(v) {
                list.remove(row);
                if list.is_empty() {
                    self.entries.remove(v);
                }
            }
        }
    }

    /// Row ids whose indexed column equals `value` (exact — single-column
    /// entries are keyed by the value itself, not a hash of it).
    #[inline]
    pub fn lookup(&self, value: Value) -> &[RowId] {
        self.entries.get(&value).map_or(&[], PostingList::as_slice)
    }

    /// Number of distinct values present in the indexed column.
    pub fn distinct_values(&self) -> usize {
        self.entries.len()
    }

    /// Drops all entries (used when the owning relation is cleared).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Rebuilds the index from scratch over `rows` (`(id, values)` in slot
    /// order, e.g. [`RowPool::live_rows`](crate::pool::RowPool::live_rows)).
    pub fn rebuild<'v>(&mut self, rows: impl IntoIterator<Item = (RowId, &'v [Value])>) {
        self.entries.clear();
        for (row, values) in rows {
            self.insert(values, row);
        }
    }

    /// Heap bytes resident in this index (map buckets plus spilled posting
    /// lists).
    pub fn resident_bytes(&self) -> usize {
        let bucket = std::mem::size_of::<Value>() + std::mem::size_of::<PostingList>();
        self.entries.capacity() * bucket
            + self
                .entries
                .values()
                .map(PostingList::heap_bytes)
                .sum::<usize>()
    }
}

/// A hash index over an ordered set of columns of a relation.
///
/// Entries are keyed by a 64-bit hash of the column values (folded with the
/// same per-value units as the pool's row hash), so probing never
/// materializes a key vector.  A posting list may therefore contain
/// hash-collision false positives: **callers must confirm candidates
/// against the actual row values**, which every execution kernel does
/// anyway when re-checking its filters.  [`Relation::lookup_rows_composite`]
/// performs that confirmation for external callers.
///
/// [`Relation::lookup_rows_composite`]: crate::relation::Relation::lookup_rows_composite
#[derive(Debug, Clone, Default)]
pub struct CompositeIndex {
    /// Indexed column positions, in ascending order.
    columns: Vec<usize>,
    /// Key hash (folded over the indexed columns' values, in `columns`
    /// order) → posting list of candidate rows.
    entries: FxHashMap<u64, PostingList>,
}

impl CompositeIndex {
    /// Creates an empty index over `columns`.  The column list is sorted and
    /// deduplicated so `[1, 0]` and `[0, 1]` denote the same index.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two distinct columns are given — a one-column
    /// "composite" index is a [`ColumnIndex`] and should be created as one.
    pub fn new(columns: &[usize]) -> Self {
        let mut columns = columns.to_vec();
        columns.sort_unstable();
        columns.dedup();
        assert!(
            columns.len() >= 2,
            "composite index needs at least two distinct columns"
        );
        CompositeIndex {
            columns,
            entries: FxHashMap::default(),
        }
    }

    /// The columns this index covers, ascending.
    #[inline]
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// Hash of this index's key extracted from a full row.
    #[inline]
    fn key_hash_of_row(&self, values: &[Value]) -> u64 {
        self.columns
            .iter()
            .fold(0, |h, &c| mix_hash(h, value_hash(values[c])))
    }

    /// Hash of an explicit key (values given in the index's ascending column
    /// order) — the probe-side counterpart of the row-side hashing done by
    /// `insert`.
    #[inline]
    pub fn key_hash(&self, key: &[Value]) -> u64 {
        debug_assert_eq!(key.len(), self.columns.len());
        key.iter().fold(0, |h, &v| mix_hash(h, value_hash(v)))
    }

    /// Registers a newly inserted row stored at `row`.  Rows narrower than
    /// the widest indexed column are ignored (defensive, mirroring
    /// [`ColumnIndex::insert`]; the relation enforces arity upstream).
    #[inline]
    pub fn insert(&mut self, values: &[Value], row: RowId) {
        if self.columns.last().is_some_and(|&c| c >= values.len()) {
            return;
        }
        let hash = self.key_hash_of_row(values);
        self.entries.entry(hash).or_default().push(row);
    }

    /// Unregisters a retracted row: removes `row` from the posting list of
    /// its key hash (dropping the entry when the list empties).
    #[inline]
    pub fn remove(&mut self, values: &[Value], row: RowId) {
        if self.columns.last().is_some_and(|&c| c >= values.len()) {
            return;
        }
        let hash = self.key_hash_of_row(values);
        if let Some(list) = self.entries.get_mut(&hash) {
            list.remove(row);
            if list.is_empty() {
                self.entries.remove(&hash);
            }
        }
    }

    /// Candidate row ids whose indexed columns *may* equal `key` (values in
    /// ascending column order).  May contain hash-collision false positives;
    /// see the type docs.
    #[inline]
    pub fn lookup(&self, key: &[Value]) -> &[RowId] {
        self.lookup_hash(self.key_hash(key))
    }

    /// Candidate row ids for a precomputed key hash.
    #[inline]
    pub fn lookup_hash(&self, hash: u64) -> &[RowId] {
        self.entries.get(&hash).map_or(&[], PostingList::as_slice)
    }

    /// Number of distinct key hashes present (distinct value combinations,
    /// modulo collisions).
    pub fn distinct_keys(&self) -> usize {
        self.entries.len()
    }

    /// Drops all entries (used when the owning relation is cleared).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Rebuilds the index from scratch over `rows` (`(id, values)` in slot
    /// order, e.g. [`RowPool::live_rows`](crate::pool::RowPool::live_rows)).
    pub fn rebuild<'v>(&mut self, rows: impl IntoIterator<Item = (RowId, &'v [Value])>) {
        self.entries.clear();
        for (row, values) in rows {
            self.insert(values, row);
        }
    }

    /// Heap bytes resident in this index (map buckets plus spilled posting
    /// lists).
    pub fn resident_bytes(&self) -> usize {
        let bucket = std::mem::size_of::<u64>() + std::mem::size_of::<PostingList>();
        self.entries.capacity() * bucket
            + self
                .entries
                .values()
                .map(PostingList::heap_bytes)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::RowPool;

    fn pool_of(rows: &[&[u32]]) -> RowPool {
        let arity = rows.first().map_or(0, |r| r.len());
        let mut pool = RowPool::new(arity);
        for row in rows {
            let values: Vec<Value> = row.iter().copied().map(Value::int).collect();
            pool.insert(&values);
        }
        pool
    }

    fn sample() -> RowPool {
        pool_of(&[&[1, 10], &[2, 10], &[1, 20], &[3, 30]])
    }

    #[test]
    fn lookup_returns_matching_rows() {
        let pool = sample();
        let mut idx = ColumnIndex::new(0);
        idx.rebuild(pool.live_rows());
        assert_eq!(idx.lookup(Value::int(1)), &[0, 2]);
        assert_eq!(idx.lookup(Value::int(3)), &[3]);
        assert!(idx.lookup(Value::int(9)).is_empty());
    }

    #[test]
    fn indexes_second_column() {
        let pool = sample();
        let mut idx = ColumnIndex::new(1);
        idx.rebuild(pool.live_rows());
        assert_eq!(idx.lookup(Value::int(10)), &[0, 1]);
        assert_eq!(idx.distinct_values(), 3);
    }

    #[test]
    fn rebuild_matches_incremental() {
        let pool = sample();
        let mut incr = ColumnIndex::new(0);
        for (row, values) in pool.rows().enumerate() {
            incr.insert(values, row as RowId);
        }
        let mut rebuilt = ColumnIndex::new(0);
        rebuilt.rebuild(pool.live_rows());
        assert_eq!(incr.lookup(Value::int(1)), rebuilt.lookup(Value::int(1)));
        assert_eq!(incr.distinct_values(), rebuilt.distinct_values());
    }

    #[test]
    fn clear_removes_everything() {
        let mut idx = ColumnIndex::new(0);
        idx.insert(&[Value::int(1), Value::int(2)], 0);
        idx.clear();
        assert!(idx.lookup(Value::int(1)).is_empty());
        assert_eq!(idx.distinct_values(), 0);
    }

    #[test]
    fn composite_lookup_matches_filtered_scan() {
        let pool = pool_of(&[&[1, 10, 5], &[1, 10, 6], &[1, 20, 5], &[2, 10, 5]]);
        let mut idx = CompositeIndex::new(&[0, 1]);
        idx.rebuild(pool.live_rows());
        assert_eq!(idx.lookup(&[Value::int(1), Value::int(10)]), &[0, 1]);
        assert_eq!(idx.lookup(&[Value::int(2), Value::int(10)]), &[3]);
        assert!(idx.lookup(&[Value::int(2), Value::int(20)]).is_empty());
        assert_eq!(idx.distinct_keys(), 3);
    }

    #[test]
    fn composite_columns_are_canonicalized() {
        let a = CompositeIndex::new(&[2, 0]);
        let b = CompositeIndex::new(&[0, 2, 2]);
        assert_eq!(a.columns(), &[0, 2]);
        assert_eq!(b.columns(), &[0, 2]);
    }

    #[test]
    #[should_panic(expected = "at least two distinct columns")]
    fn composite_rejects_single_column() {
        let _ = CompositeIndex::new(&[1, 1]);
    }

    #[test]
    fn composite_incremental_matches_rebuild() {
        let pool = pool_of(&[&[1, 2, 3], &[1, 2, 4], &[2, 2, 3]]);
        let mut incr = CompositeIndex::new(&[0, 2]);
        for (row, values) in pool.rows().enumerate() {
            incr.insert(values, row as RowId);
        }
        let mut rebuilt = CompositeIndex::new(&[0, 2]);
        rebuilt.rebuild(pool.live_rows());
        let key = [Value::int(1), Value::int(3)];
        assert_eq!(incr.lookup(&key), rebuilt.lookup(&key));
        assert_eq!(incr.distinct_keys(), rebuilt.distinct_keys());
        incr.clear();
        assert_eq!(incr.distinct_keys(), 0);
    }

    #[test]
    fn high_fanout_key_spills_and_keeps_order() {
        let rows: Vec<Vec<u32>> = (0..20u32).map(|i| vec![1, i]).collect();
        let row_refs: Vec<&[u32]> = rows.iter().map(Vec::as_slice).collect();
        let pool = pool_of(&row_refs);
        let mut idx = ColumnIndex::new(0);
        idx.rebuild(pool.live_rows());
        let expected: Vec<RowId> = (0..20).collect();
        assert_eq!(idx.lookup(Value::int(1)), &expected[..]);
        assert!(idx.resident_bytes() > 0);
    }

    #[test]
    fn out_of_bounds_column_is_ignored() {
        // A unary row inserted into an index on column 1 simply does not
        // register; the relation enforces arity, the index stays defensive.
        let mut idx = ColumnIndex::new(1);
        idx.insert(&[Value::int(5)], 0);
        assert_eq!(idx.distinct_values(), 0);
    }
}
