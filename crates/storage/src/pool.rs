//! The flat row pool: row-major value storage with hash-confirm dedup.
//!
//! Prior to the pool, every tuple was a separate `Box<[Value]>` heap
//! allocation and every relation stored each row **twice** — once in a
//! `Vec<Tuple>` scan vector and once in a `FxHashSet<Tuple>` used for
//! duplicate elimination.  The pool collapses both into one structure:
//!
//! * all rows of a relation live in a single row-major `Vec<Value>` with an
//!   arity stride — inserting a row is an `extend_from_slice`, never a
//!   per-tuple allocation,
//! * row identity is a dense [`RowId`] (`u32`), the offset of the row in the
//!   pool divided by the stride,
//! * duplicate elimination goes through a single `FxHashMap<u64, PostingList>`
//!   keyed by a 64-bit row hash; a hit is confirmed by comparing the actual
//!   row slice, so hash collisions cost a comparison, never a wrong answer,
//! * the per-row hash is retained in a side vector, so copying a row into
//!   another pool ([`RowPool::insert_hashed`]) or compacting never rehashes
//!   it.
//!
//! The same per-value mixing ([`value_hash`]) feeds the row hash *and* the
//! shard assignment of the parallel evaluation layer, so one hash pass per
//! row serves dedup, the posting-list maps and sharding alike.

use crate::hasher::FxHashMap;
use crate::value::Value;

/// Dense row identifier within one relation's row pool.
///
/// Row ids are assigned in insertion order, starting at 0, and stay stable
/// for the lifetime of the pool.  A row can be *retracted*
/// ([`RowPool::retract_hashed`]): its slot is tombstoned (the id is never
/// reused and the values stay readable) but the row no longer participates
/// in membership tests, iteration or statistics.  `u32` keeps posting lists
/// half the size of `usize` offsets; a relation holds at most `u32::MAX`
/// row slots over its lifetime.
pub type RowId = u32;

/// Multiplicative constant shared with [`crate::hasher::FxHasher`].
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Initial state of a row hash (an arbitrary odd constant, so the empty
/// nullary row still hashes to something non-zero).  Public so callers that
/// fold [`value_hash`] units themselves (e.g. the relation's single-pass
/// insert) produce hashes identical to [`row_hash`].
pub const ROW_HASH_INIT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Hash of one value — the per-column unit shared by row hashing
/// ([`row_hash`]) and shard assignment ([`shard_of_hash`]): the shard key's
/// value hash is computed once per inserted row and feeds both.
#[inline]
pub fn value_hash(value: Value) -> u64 {
    (value.raw() as u64 ^ ROW_HASH_INIT).wrapping_mul(SEED)
}

/// Folds one per-value hash into a row (or composite-key) hash.
#[inline]
pub fn mix_hash(hash: u64, value_hash: u64) -> u64 {
    (hash.rotate_left(5) ^ value_hash).wrapping_mul(SEED)
}

/// Hash of a full row slice, built from the same per-value units as
/// [`value_hash`] so callers that need both (row dedup plus shard
/// assignment) can share one pass over the values.
#[inline]
pub fn row_hash(values: &[Value]) -> u64 {
    values
        .iter()
        .fold(ROW_HASH_INIT, |h, &v| mix_hash(h, value_hash(v)))
}

/// Deterministic shard for a precomputed value hash: identical on every
/// platform and across runs, so shard membership never depends on process
/// state.  `shard_count` must be non-zero.
#[inline]
pub fn shard_of_hash(value_hash: u64, shard_count: usize) -> usize {
    // Reduce in u64 before narrowing: `as usize` first would keep only the
    // low 32 bits on 32-bit targets and break cross-platform agreement.
    ((value_hash >> 7) % shard_count as u64) as usize
}

/// Number of row ids a [`PostingList`] holds without spilling to the heap.
///
/// Chosen so the inline variant is no larger than the spilled one (a `Vec`
/// is three words): most join keys in EDB graphs have few matches, so the
/// common posting list never allocates.
pub const POSTING_INLINE_ROWS: usize = 4;

/// A compact list of row ids: up to [`POSTING_INLINE_ROWS`] rows inline,
/// spilling to a heap vector only for high-fanout keys.
///
/// Used as the bucket type of every hash structure in the storage layer
/// (dedup table, single-column and composite indexes), where the typical
/// key maps to a handful of rows.
#[derive(Debug, Clone)]
pub enum PostingList {
    /// At most [`POSTING_INLINE_ROWS`] rows stored in place.
    Inline {
        /// Number of occupied slots in `rows`.
        len: u8,
        /// The row ids; slots at `len..` are unspecified.
        rows: [RowId; POSTING_INLINE_ROWS],
    },
    /// More rows than fit inline.
    Spill(Vec<RowId>),
}

impl Default for PostingList {
    fn default() -> Self {
        PostingList::Inline {
            len: 0,
            rows: [0; POSTING_INLINE_ROWS],
        }
    }
}

impl PostingList {
    /// Appends a row id (insertion order is preserved).
    #[inline]
    pub fn push(&mut self, row: RowId) {
        match self {
            PostingList::Inline { len, rows } => {
                let n = *len as usize;
                if n < POSTING_INLINE_ROWS {
                    rows[n] = row;
                    *len += 1;
                } else {
                    let mut spill = Vec::with_capacity(POSTING_INLINE_ROWS * 2);
                    spill.extend_from_slice(rows);
                    spill.push(row);
                    *self = PostingList::Spill(spill);
                }
            }
            PostingList::Spill(rows) => rows.push(row),
        }
    }

    /// The row ids, in insertion order.
    #[inline]
    pub fn as_slice(&self) -> &[RowId] {
        match self {
            PostingList::Inline { len, rows } => &rows[..*len as usize],
            PostingList::Spill(rows) => rows,
        }
    }

    /// Removes the first occurrence of `row`, preserving the order of the
    /// remaining ids (scan order determinism).  Returns whether the id was
    /// present.  A spilled list stays spilled — posting lists shrink rarely
    /// and the capacity is reused by later insertions.
    pub fn remove(&mut self, row: RowId) -> bool {
        match self {
            PostingList::Inline { len, rows } => {
                let n = *len as usize;
                match rows[..n].iter().position(|&r| r == row) {
                    Some(pos) => {
                        rows.copy_within(pos + 1..n, pos);
                        *len -= 1;
                        true
                    }
                    None => false,
                }
            }
            PostingList::Spill(rows) => match rows.iter().position(|&r| r == row) {
                Some(pos) => {
                    rows.remove(pos);
                    true
                }
                None => false,
            },
        }
    }

    /// Number of rows listed.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            PostingList::Inline { len, .. } => *len as usize,
            PostingList::Spill(rows) => rows.len(),
        }
    }

    /// Whether no rows are listed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the list has spilled to the heap (exposed for tests and
    /// stats; the transition is an implementation detail otherwise).
    #[inline]
    pub fn is_spilled(&self) -> bool {
        matches!(self, PostingList::Spill(_))
    }

    /// Heap bytes owned by this list (0 while inline).
    pub fn heap_bytes(&self) -> usize {
        match self {
            PostingList::Inline { .. } => 0,
            PostingList::Spill(rows) => rows.capacity() * std::mem::size_of::<RowId>(),
        }
    }
}

/// Resident-memory snapshot of one pool (see [`RowPool::stats`]).
///
/// `bytes` counts owned capacity (values, retained hashes, dedup table
/// buckets and spilled posting lists), i.e. what the structure keeps
/// resident — the quantity the storage microbench compares against the
/// legacy double-store layout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of rows stored.
    pub rows: usize,
    /// Resident bytes owned by the pool (capacity-based estimate).
    pub bytes: usize,
    /// Times the dedup table grew (rehash events) over the pool's lifetime.
    pub rehashes: u64,
}

impl PoolStats {
    /// Component-wise sum (used to aggregate across relations/databases).
    pub fn merge(self, other: PoolStats) -> PoolStats {
        PoolStats {
            rows: self.rows + other.rows,
            bytes: self.bytes + other.bytes,
            rehashes: self.rehashes + other.rehashes,
        }
    }
}

/// Row-major storage for the rows of one relation, with hash-confirm
/// duplicate elimination.  See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct RowPool {
    /// Row stride (the relation's arity).
    arity: usize,
    /// All rows, row-major: row `r` occupies `values[r*arity..(r+1)*arity]`.
    values: Vec<Value>,
    /// `hashes[r]` is the row hash of row `r` (retained so merges and
    /// rebuilds never rehash).
    hashes: Vec<u64>,
    /// Tombstones, parallel to `hashes`: `dead[r]` marks a retracted slot.
    /// Left empty (all-live) until the first retraction so the common
    /// insert-only pool pays nothing for the feature.
    dead: Vec<bool>,
    /// Number of tombstoned slots (`0` for insert-only pools).
    dead_count: usize,
    /// Row hash → first row carrying that hash.  Membership is confirmed by
    /// slice equality against the pool, so collisions are harmless — and
    /// keeping the common bucket a single 12-byte entry (instead of a
    /// posting list) is what makes the dedup table cheaper than the second
    /// `HashSet<Tuple>` copy it replaces.  Retracted rows are unlinked, so
    /// the table only ever resolves live rows.
    dedup: FxHashMap<u64, RowId>,
    /// Additional *distinct* rows whose hash collides with an earlier row
    /// (a true 64-bit collision; essentially always empty).
    overflow: FxHashMap<u64, Vec<RowId>>,
    /// Lifetime count of dedup-table growth events.
    rehashes: u64,
    /// Compaction generation: incremented every time [`RowPool::compact`]
    /// renumbers rows.  [`RowId`]s are only meaningful together with the
    /// generation they were obtained under; holders compare generations to
    /// detect (and reject) stale ids instead of silently reading whatever
    /// row now occupies the slot.
    generation: u64,
}

impl RowPool {
    /// Creates an empty pool for rows of `arity` columns.
    pub fn new(arity: usize) -> Self {
        RowPool {
            arity,
            values: Vec::new(),
            hashes: Vec::new(),
            dead: Vec::new(),
            dead_count: 0,
            dedup: FxHashMap::default(),
            overflow: FxHashMap::default(),
            rehashes: 0,
            generation: 0,
        }
    }

    /// The pool's compaction generation: bumped whenever a
    /// [`RowPool::compact`] renumbers row ids.  A [`RowId`] obtained under
    /// one generation must not be dereferenced under another.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Overwrites the compaction generation — used by snapshot restore to
    /// carry the counter across a process restart so the monotonic history
    /// of any persisted [`RowId`]-with-generation pair stays meaningful.
    #[inline]
    pub(crate) fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Row stride.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of *live* rows stored (retracted slots excluded) — the
    /// cardinality every consumer (optimizer statistics, fixpoint tests,
    /// result counting) observes.
    #[inline]
    pub fn len(&self) -> usize {
        self.hashes.len() - self.dead_count
    }

    /// Number of row slots ever allocated, including tombstoned ones — the
    /// exclusive upper bound of valid [`RowId`]s.
    #[inline]
    pub fn slots(&self) -> usize {
        self.hashes.len()
    }

    /// Whether the pool holds no live rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether any slot has been tombstoned by a retraction.  While this is
    /// `false` (the insert-only common case) every slot is live and callers
    /// may iterate `0..slots()` directly.
    #[inline]
    pub fn has_dead(&self) -> bool {
        self.dead_count > 0
    }

    /// Whether the slot `row` holds a live (non-retracted) row.
    #[inline]
    pub fn is_live(&self, row: RowId) -> bool {
        self.dead.get(row as usize).copied() != Some(true)
    }

    /// The values of row `row`.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of bounds.
    #[inline]
    pub fn row(&self, row: RowId) -> &[Value] {
        let start = row as usize * self.arity;
        &self.values[start..start + self.arity]
    }

    /// The retained hash of row `row`.
    #[inline]
    pub fn hash_of(&self, row: RowId) -> u64 {
        self.hashes[row as usize]
    }

    /// Iterator over all live rows in insertion order.
    #[inline]
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        // `chunks_exact(0)` would panic; nullary rows are all the same empty
        // slice, repeated once per stored row.
        RowsIter {
            pool: self,
            next: 0,
            remaining: self.len(),
        }
    }

    /// Iterator over `(id, values)` of all live rows in insertion order —
    /// the retraction-aware replacement for `rows().enumerate()` (slot
    /// offsets stop being row counts once tombstones exist).
    #[inline]
    pub fn live_rows(&self) -> impl Iterator<Item = (RowId, &[Value])> + '_ {
        (0..self.slots() as RowId)
            .filter(move |&row| self.is_live(row))
            .map(move |row| (row, self.row(row)))
    }

    /// Whether an equal row is already stored.
    #[inline]
    pub fn contains(&self, values: &[Value]) -> bool {
        self.contains_hashed(values, row_hash(values))
    }

    /// [`RowPool::contains`] with the row hash precomputed by the caller.
    #[inline]
    pub fn contains_hashed(&self, values: &[Value], hash: u64) -> bool {
        self.find_hashed(values, hash).is_some()
    }

    /// The live row equal to `values` (hash precomputed), if any.
    #[inline]
    pub fn find_hashed(&self, values: &[Value], hash: u64) -> Option<RowId> {
        self.find_by(hash, |row| row == values)
    }

    /// The live row with row hash `hash` that `matches` accepts, if any —
    /// [`RowPool::find_hashed`] for callers that hold the row's values
    /// scattered (e.g. as `(column, value)` filters) rather than as a slice.
    #[inline]
    pub(crate) fn find_by(&self, hash: u64, matches: impl Fn(&[Value]) -> bool) -> Option<RowId> {
        let &first = self.dedup.get(&hash)?;
        if matches(self.row(first)) {
            return Some(first);
        }
        self.overflow
            .get(&hash)
            .and_then(|rows| rows.iter().copied().find(|&r| matches(self.row(r))))
    }

    /// Tombstones the live row equal to `values` (hash precomputed by the
    /// caller): the slot keeps its id, hash and values, but the row leaves
    /// the dedup table, the length and all iteration.  Returns the retracted
    /// row's id, or `None` when no equal live row exists.
    ///
    /// # Panics
    ///
    /// Panics when `hash` is not the row hash of `values`.  The hash keys
    /// the dedup table, so a mismatched pair would unlink the wrong bucket
    /// and corrupt membership silently; the public entry validates
    /// unconditionally (release builds included).  The storage crate's own
    /// retained-hash paths go through the unchecked internal variant —
    /// their hashes come from the pool itself and never rehash.
    pub fn retract_hashed(&mut self, values: &[Value], hash: u64) -> Option<RowId> {
        assert_eq!(
            hash,
            row_hash(values),
            "caller-supplied row hash does not match the row values; \
             refusing to corrupt the dedup table"
        );
        self.retract_hashed_retained(values, hash)
    }

    /// [`RowPool::retract_hashed`] without the always-on validation:
    /// crate-internal paths whose hashes are retained pool hashes (merge,
    /// compaction, the relation's single-pass fold) use this to keep the
    /// never-rehash guarantee.
    pub(crate) fn retract_hashed_retained(&mut self, values: &[Value], hash: u64) -> Option<RowId> {
        debug_assert_eq!(hash, row_hash(values), "caller-supplied hash mismatch");
        let row = self.find_hashed(values, hash)?;
        self.retract_at(row, hash);
        Some(row)
    }

    /// Tombstones the live slot `row`, whose retained hash is `hash` (the
    /// caller found it through [`RowPool::find_hashed`]).
    pub(crate) fn retract_at(&mut self, row: RowId, hash: u64) {
        self.unlink(row, hash);
        if self.dead.is_empty() {
            self.dead = vec![false; self.hashes.len()];
        }
        self.dead[row as usize] = true;
        self.dead_count += 1;
    }

    /// Drops every slot from `len` on, as if those rows had never been
    /// inserted: they leave the dedup table and their ids are handed out
    /// again.  A no-op when the pool holds no more than `len` slots.
    pub(crate) fn truncate(&mut self, len: usize) {
        for row in (len..self.slots()).rev() {
            if self.is_live(row as RowId) {
                self.unlink(row as RowId, self.hashes[row]);
            } else {
                self.dead_count -= 1;
            }
        }
        self.values.truncate(len * self.arity);
        self.hashes.truncate(len);
        self.dead.truncate(len);
    }

    /// Removes the live slot `row` from the dedup table, promoting a
    /// colliding overflow row into the primary slot when one exists.
    fn unlink(&mut self, row: RowId, hash: u64) {
        if self.dedup.get(&hash) == Some(&row) {
            let promoted = self
                .overflow
                .get_mut(&hash)
                .and_then(|rows| (!rows.is_empty()).then(|| rows.remove(0)));
            match promoted {
                Some(next) => {
                    self.dedup.insert(hash, next);
                }
                None => {
                    self.dedup.remove(&hash);
                }
            }
        } else if let Some(rows) = self.overflow.get_mut(&hash) {
            if let Some(pos) = rows.iter().position(|&r| r == row) {
                rows.remove(pos);
            }
        }
        if let Some(rows) = self.overflow.get(&hash) {
            if rows.is_empty() {
                self.overflow.remove(&hash);
            }
        }
    }

    /// Inserts a row, returning its new [`RowId`], or `None` when an equal
    /// row is already stored (set semantics).
    #[inline]
    pub fn insert(&mut self, values: &[Value]) -> Option<RowId> {
        self.insert_hashed(values, row_hash(values))
    }

    /// [`RowPool::insert`] with the row hash precomputed by the caller.
    ///
    /// # Panics
    ///
    /// Panics when `hash` is not the row hash of `values`: a mismatched
    /// pair would register the row under a key no lookup ever computes,
    /// silently breaking deduplication (rows stored twice, membership tests
    /// lying) — exactly the corruption a `debug_assert` used to let through
    /// in release builds.  The validation is unconditional here; the
    /// crate-internal append paths go through the unchecked variant with
    /// hashes the storage layer computed or retained itself.
    pub fn insert_hashed(&mut self, values: &[Value], hash: u64) -> Option<RowId> {
        assert_eq!(
            hash,
            row_hash(values),
            "caller-supplied row hash does not match the row values; \
             refusing to corrupt the dedup table"
        );
        self.insert_hashed_retained(values, hash)
    }

    /// [`RowPool::insert_hashed`] without the always-on validation — the
    /// crate-internal fast path for hashes the storage layer computed or
    /// retained itself.
    pub(crate) fn insert_hashed_retained(&mut self, values: &[Value], hash: u64) -> Option<RowId> {
        debug_assert_eq!(
            values.len(),
            self.arity,
            "row width must match the pool stride"
        );
        debug_assert_eq!(hash, row_hash(values), "caller-supplied hash mismatch");
        assert!(
            self.hashes.len() < RowId::MAX as usize,
            "row pool exceeds the RowId (u32) capacity"
        );
        let row = self.hashes.len() as RowId;
        let buckets_before = self.dedup.capacity();
        // One dedup-table probe serves both the membership test and the
        // insertion: a vacant slot means the row is certainly new; an
        // occupied one is confirmed by slice equality before the (rare)
        // collision is recorded on the side.
        match self.dedup.entry(hash) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(row);
            }
            std::collections::hash_map::Entry::Occupied(slot) => {
                let first = *slot.get();
                if self.row(first) == values
                    || self
                        .overflow
                        .get(&hash)
                        .is_some_and(|rows| rows.iter().any(|&r| self.row(r) == values))
                {
                    return None;
                }
                // A distinct row with a colliding hash.
                self.overflow.entry(hash).or_default().push(row);
            }
        }
        if self.dedup.capacity() != buckets_before {
            self.rehashes += 1;
        }
        self.values.extend_from_slice(values);
        self.hashes.push(hash);
        if !self.dead.is_empty() {
            self.dead.push(false);
        }
        Some(row)
    }

    /// Compacts tombstoned slots away: live rows keep their relative order
    /// but are **renumbered densely from 0**, and the dedup table is
    /// rebuilt.  A no-op when nothing is dead.  Returns whether ids moved —
    /// callers must then rebuild every structure holding [`RowId`]s into
    /// this pool (indexes, shard partitions); [`Relation::compact`] does
    /// exactly that.  Without periodic compaction a long-lived session
    /// under a sustained update stream grows with total churn rather than
    /// live data (ids are never reused and tombstoned slots keep their
    /// values resident).
    ///
    /// [`Relation::compact`]: crate::relation::Relation::compact
    pub fn compact(&mut self) -> bool {
        if !self.has_dead() {
            return false;
        }
        let arity = self.arity;
        let live = self.len();
        let mut values = Vec::with_capacity(live * arity);
        let mut hashes = Vec::with_capacity(live);
        self.dedup.clear();
        self.overflow.clear();
        for old in 0..self.hashes.len() {
            if self.dead[old] {
                continue;
            }
            let row = hashes.len() as RowId;
            let start = old * arity;
            values.extend_from_slice(&self.values[start..start + arity]);
            let hash = self.hashes[old];
            hashes.push(hash);
            // Rows are distinct by construction; only true 64-bit hash
            // collisions spill into the overflow side table.
            match self.dedup.entry(hash) {
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(row);
                }
                std::collections::hash_map::Entry::Occupied(_) => {
                    self.overflow.entry(hash).or_default().push(row);
                }
            }
        }
        self.values = values;
        self.hashes = hashes;
        self.dead.clear();
        self.dead_count = 0;
        // Ids moved: everything holding a RowId into this pool is now
        // stale, observable through the generation counter.
        self.generation += 1;
        true
    }

    /// Drops all rows but keeps allocated capacity (vectors and the dedup
    /// table), so a cleared delta pool re-fills without reallocating.
    pub fn clear(&mut self) {
        self.values.clear();
        self.hashes.clear();
        self.dead.clear();
        self.dead_count = 0;
        self.dedup.clear();
        self.overflow.clear();
    }

    /// Resident-memory and lifetime counters for this pool.
    pub fn stats(&self) -> PoolStats {
        let bucket = std::mem::size_of::<(u64, RowId)>();
        let overflow = self.overflow.capacity()
            * (std::mem::size_of::<u64>() + std::mem::size_of::<Vec<RowId>>())
            + self
                .overflow
                .values()
                .map(|v| v.capacity() * std::mem::size_of::<RowId>())
                .sum::<usize>();
        PoolStats {
            rows: self.len(),
            bytes: self.values.capacity() * std::mem::size_of::<Value>()
                + self.hashes.capacity() * std::mem::size_of::<u64>()
                + self.dead.capacity() * std::mem::size_of::<bool>()
                + self.dedup.capacity() * bucket
                + overflow,
            rehashes: self.rehashes,
        }
    }
}

/// Iterator behind [`RowPool::rows`] (explicit struct so nullary relations,
/// whose stride is 0, still yield one empty slice per stored row; skips
/// tombstoned slots).
struct RowsIter<'a> {
    pool: &'a RowPool,
    next: RowId,
    remaining: usize,
}

impl<'a> Iterator for RowsIter<'a> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        while (self.next as usize) < self.pool.slots() {
            let id = self.next;
            self.next += 1;
            if self.pool.is_live(id) {
                self.remaining -= 1;
                return Some(self.pool.row(id));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RowsIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(ints: &[u32]) -> Vec<Value> {
        ints.iter().copied().map(Value::int).collect()
    }

    #[test]
    fn insert_assigns_dense_row_ids_and_dedups() {
        let mut pool = RowPool::new(2);
        assert_eq!(pool.insert(&vals(&[1, 2])), Some(0));
        assert_eq!(pool.insert(&vals(&[3, 4])), Some(1));
        assert_eq!(pool.insert(&vals(&[1, 2])), None);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.row(0), &vals(&[1, 2])[..]);
        assert_eq!(pool.row(1), &vals(&[3, 4])[..]);
        assert!(pool.contains(&vals(&[3, 4])));
        assert!(!pool.contains(&vals(&[4, 3])));
    }

    #[test]
    fn rows_iterate_in_insertion_order() {
        let mut pool = RowPool::new(1);
        for i in 0..5u32 {
            pool.insert(&vals(&[i]));
        }
        let collected: Vec<u32> = pool.rows().map(|r| r[0].raw()).collect();
        assert_eq!(collected, vec![0, 1, 2, 3, 4]);
        assert_eq!(pool.rows().len(), 5);
    }

    #[test]
    fn nullary_pool_holds_at_most_one_row() {
        let mut pool = RowPool::new(0);
        assert_eq!(pool.insert(&[]), Some(0));
        assert_eq!(pool.insert(&[]), None);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.rows().count(), 1);
        assert!(pool.row(0).is_empty());
    }

    #[test]
    fn retained_hashes_match_recomputation() {
        let mut pool = RowPool::new(3);
        pool.insert(&vals(&[7, 8, 9]));
        assert_eq!(pool.hash_of(0), row_hash(&vals(&[7, 8, 9])));
    }

    #[test]
    fn clear_keeps_capacity_and_accepts_reinsertion() {
        let mut pool = RowPool::new(2);
        for i in 0..100u32 {
            pool.insert(&vals(&[i, i + 1]));
        }
        let cap = pool.stats().bytes;
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(pool.stats().rows, 0);
        // Capacity (and so resident bytes) is retained for refill.
        assert_eq!(pool.stats().bytes, cap);
        assert_eq!(pool.insert(&vals(&[1, 2])), Some(0));
    }

    #[test]
    fn posting_list_inlines_then_spills() {
        let mut list = PostingList::default();
        for i in 0..POSTING_INLINE_ROWS as RowId {
            list.push(i);
            assert!(!list.is_spilled(), "inline capacity reached too early");
        }
        assert_eq!(list.len(), POSTING_INLINE_ROWS);
        assert_eq!(list.heap_bytes(), 0);
        list.push(99);
        assert!(list.is_spilled());
        assert!(list.heap_bytes() > 0);
        let expected: Vec<RowId> = (0..POSTING_INLINE_ROWS as RowId).chain([99]).collect();
        assert_eq!(list.as_slice(), &expected[..]);
    }

    #[test]
    fn row_hash_shares_value_hash_units() {
        // The row hash folds exactly the per-value hashes that shard
        // assignment consumes — one hash pass serves both.
        let row = vals(&[10, 20]);
        let folded = mix_hash(
            mix_hash(ROW_HASH_INIT, value_hash(row[0])),
            value_hash(row[1]),
        );
        assert_eq!(row_hash(&row), folded);
    }

    #[test]
    fn shard_of_hash_is_stable_and_in_range() {
        for v in 0..1000u32 {
            let s = shard_of_hash(value_hash(Value::int(v)), 8);
            assert!(s < 8);
            assert_eq!(s, shard_of_hash(value_hash(Value::int(v)), 8));
        }
        // All 8 shards are reachable at this scale.
        let hit: std::collections::HashSet<usize> = (0..1000u32)
            .map(|v| shard_of_hash(value_hash(Value::int(v)), 8))
            .collect();
        assert_eq!(hit.len(), 8);
    }

    #[test]
    fn retract_tombstones_and_unlinks_dedup() {
        let mut pool = RowPool::new(2);
        pool.insert(&vals(&[1, 2]));
        pool.insert(&vals(&[3, 4]));
        pool.insert(&vals(&[5, 6]));
        let row = pool
            .retract_hashed(&vals(&[3, 4]), row_hash(&vals(&[3, 4])))
            .expect("row present");
        assert_eq!(row, 1);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.slots(), 3);
        assert!(pool.has_dead());
        assert!(!pool.is_live(1));
        assert!(!pool.contains(&vals(&[3, 4])));
        // Values of the tombstoned slot stay readable; iteration skips it.
        assert_eq!(pool.row(1), &vals(&[3, 4])[..]);
        let seen: Vec<u32> = pool.rows().map(|r| r[0].raw()).collect();
        assert_eq!(seen, vec![1, 5]);
        assert_eq!(pool.rows().len(), 2);
        let live: Vec<RowId> = pool.live_rows().map(|(id, _)| id).collect();
        assert_eq!(live, vec![0, 2]);
        // Retracting again is a no-op; re-inserting allocates a fresh slot.
        assert_eq!(
            pool.retract_hashed(&vals(&[3, 4]), row_hash(&vals(&[3, 4]))),
            None
        );
        assert_eq!(pool.insert(&vals(&[3, 4])), Some(3));
        assert_eq!(pool.len(), 3);
        assert!(pool.contains(&vals(&[3, 4])));
    }

    #[test]
    fn truncate_forgets_the_dropped_rows() {
        let mut pool = RowPool::new(2);
        for i in 0..6u32 {
            pool.insert(&vals(&[i, i]));
        }
        pool.retract_hashed(&vals(&[1, 1]), row_hash(&vals(&[1, 1])));
        pool.retract_hashed(&vals(&[4, 4]), row_hash(&vals(&[4, 4])));
        pool.truncate(3);
        assert_eq!((pool.slots(), pool.len()), (3, 2));
        assert!(pool.contains(&vals(&[2, 2])));
        assert!(!pool.contains(&vals(&[3, 3])));
        // Dropped ids are handed out again, and nothing dedups against them.
        assert_eq!(pool.insert(&vals(&[5, 5])), Some(3));
        assert_eq!(pool.insert(&vals(&[3, 3])), Some(4));
        assert!(!pool.is_live(1));
        assert!(pool.is_live(4));
    }

    #[test]
    #[should_panic(expected = "refusing to corrupt the dedup table")]
    fn insert_hashed_rejects_mismatched_hashes() {
        // Regression: a mismatched caller-supplied hash was only caught by
        // a debug_assert, so release builds registered the row under a key
        // no lookup computes — rows stored twice, membership tests lying.
        let mut pool = RowPool::new(2);
        pool.insert_hashed(&vals(&[1, 2]), 0xDEAD_BEEF);
    }

    #[test]
    #[should_panic(expected = "refusing to corrupt the dedup table")]
    fn retract_hashed_rejects_mismatched_hashes() {
        let mut pool = RowPool::new(2);
        pool.insert(&vals(&[1, 2]));
        pool.retract_hashed(&vals(&[1, 2]), 0xDEAD_BEEF);
    }

    #[test]
    fn insert_hashed_accepts_correct_hashes() {
        let mut pool = RowPool::new(2);
        let row = vals(&[3, 4]);
        assert_eq!(pool.insert_hashed(&row, row_hash(&row)), Some(0));
        assert_eq!(pool.retract_hashed(&row, row_hash(&row)), Some(0));
    }

    #[test]
    fn compaction_bumps_the_generation() {
        let mut pool = RowPool::new(1);
        assert_eq!(pool.generation(), 0);
        for i in 0..10u32 {
            pool.insert(&vals(&[i]));
        }
        pool.retract_hashed(&vals(&[3]), row_hash(&vals(&[3])));
        assert_eq!(pool.generation(), 0); // retraction alone moves no ids
        assert!(pool.compact());
        assert_eq!(pool.generation(), 1);
        assert!(!pool.compact()); // nothing dead: no-op, no bump
        assert_eq!(pool.generation(), 1);
    }

    #[test]
    fn posting_list_remove_preserves_order() {
        let mut list = PostingList::default();
        for i in 0..3 {
            list.push(i);
        }
        assert!(list.remove(1));
        assert_eq!(list.as_slice(), &[0, 2]);
        assert!(!list.remove(9));
        // Spilled list.
        for i in 10..20 {
            list.push(i);
        }
        assert!(list.is_spilled());
        assert!(list.remove(0));
        assert_eq!(list.as_slice()[0], 2);
        assert_eq!(list.len(), 11);
    }

    #[test]
    fn rehash_counter_grows_with_the_table() {
        let mut pool = RowPool::new(1);
        for i in 0..10_000u32 {
            pool.insert(&vals(&[i]));
        }
        assert!(pool.stats().rehashes > 0);
        assert_eq!(pool.stats().rows, 10_000);
    }
}
