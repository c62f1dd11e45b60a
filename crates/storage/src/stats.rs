//! Runtime cardinality statistics.
//!
//! The adaptive optimizer never estimates cardinalities across iterations:
//! it reads the *actual* cardinalities of the derived and delta databases at
//! the moment the optimization is applied (paper §IV).  A [`StatsSnapshot`]
//! is that read — an immutable capture of per-relation sizes and per-index
//! distinct counts, taken whenever a plan subtree is (re)optimized.

use crate::database::{DbKind, StorageManager};
use crate::schema::RelId;

/// Cardinalities of one relation across the three evaluation databases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RelationStats {
    /// Tuples in the derived (full) database.
    pub derived: usize,
    /// Tuples in the delta-known (previous iteration) database.
    pub delta_known: usize,
    /// Tuples in the delta-new (current iteration, write-only) database.
    pub delta_new: usize,
}

impl RelationStats {
    /// Cardinality of the database an atom reads from.
    pub fn for_db(&self, kind: DbKind) -> usize {
        match kind {
            DbKind::Derived => self.derived,
            DbKind::DeltaKnown => self.delta_known,
            DbKind::DeltaNew => self.delta_new,
        }
    }
}

/// An immutable capture of every relation's cardinalities at a point in
/// time, plus the iteration at which it was taken.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    per_relation: Vec<RelationStats>,
    /// Per relation: `(column, distinct values)` for every single-column
    /// index of the relation (indexes are declared once, over derived;
    /// delta probes read the same posting lists).  The observed-selectivity
    /// input of the adaptive optimizer: an equality probe on an indexed
    /// column is expected to match `derived / distinct` rows, replacing the
    /// constant fallback factor.  Empty for snapshots built from raw stats.
    derived_index_distinct: Vec<Vec<(usize, usize)>>,
    /// Iteration counter supplied by the execution engine (0 before the
    /// first iteration).
    pub iteration: u64,
}

impl StatsSnapshot {
    /// Captures the current cardinalities from a storage manager.
    pub fn capture(storage: &StorageManager) -> StatsSnapshot {
        let n = storage.relation_count();
        let mut per_relation = Vec::with_capacity(n);
        let mut derived_index_distinct = Vec::with_capacity(n);
        for i in 0..n {
            let rel = RelId(i as u32);
            derived_index_distinct.push(
                storage
                    .derived(rel)
                    .map(super::relation::Relation::indexed_distincts)
                    .unwrap_or_default(),
            );
            per_relation.push(RelationStats {
                derived: storage.cardinality(DbKind::Derived, rel),
                delta_known: storage.cardinality(DbKind::DeltaKnown, rel),
                delta_new: storage.cardinality(DbKind::DeltaNew, rel),
            });
        }
        StatsSnapshot {
            per_relation,
            derived_index_distinct,
            iteration: 0,
        }
    }

    /// Builds a snapshot directly from raw stats (used by optimizer tests
    /// that do not want to materialize relations).  No per-column index
    /// observations are attached; add them with
    /// [`StatsSnapshot::with_index_distinct`].
    pub fn from_stats(per_relation: Vec<RelationStats>, iteration: u64) -> Self {
        StatsSnapshot {
            per_relation,
            derived_index_distinct: Vec::new(),
            iteration,
        }
    }

    /// Records an observed `(column, distinct values)` pair for `rel`'s
    /// derived database (builder-style; tests and synthetic snapshots).
    pub fn with_index_distinct(mut self, rel: RelId, column: usize, distinct: usize) -> Self {
        if self.derived_index_distinct.len() <= rel.index() {
            self.derived_index_distinct
                .resize(rel.index() + 1, Vec::new());
        }
        self.derived_index_distinct[rel.index()].push((column, distinct));
        self
    }

    /// Distinct values observed by the single-column index on `(rel,
    /// column)` in the derived database; 0 when unindexed or unobserved.
    pub fn index_distinct(&self, rel: RelId, column: usize) -> usize {
        self.derived_index_distinct
            .get(rel.index())
            .and_then(|cols| cols.iter().find(|&&(c, _)| c == column))
            .map_or(0, |&(_, d)| d)
    }

    /// Stats for one relation; zeroes if the relation is unknown.
    pub fn relation(&self, rel: RelId) -> RelationStats {
        self.per_relation
            .get(rel.index())
            .copied()
            .unwrap_or_default()
    }

    /// Cardinality of `(rel, db)`.
    pub fn cardinality(&self, rel: RelId, db: DbKind) -> usize {
        self.relation(rel).for_db(db)
    }

    /// Number of relations captured.
    pub fn len(&self) -> usize {
        self.per_relation.len()
    }

    /// True when no relation was captured.
    pub fn is_empty(&self) -> bool {
        self.per_relation.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    #[test]
    fn capture_reads_all_databases() {
        let mut sm = StorageManager::new(true);
        let edge = sm.register("Edge", 2, true);
        let path = sm.register("Path", 2, false);
        sm.insert_fact(edge, Tuple::pair(1, 2)).unwrap();
        sm.insert_derived(path, Tuple::pair(1, 2)).unwrap();

        let snap = sm.stats();
        assert_eq!(snap.cardinality(edge, DbKind::Derived), 1);
        assert_eq!(snap.cardinality(edge, DbKind::DeltaKnown), 1);
        assert_eq!(snap.cardinality(path, DbKind::DeltaNew), 1);
        assert_eq!(snap.cardinality(path, DbKind::Derived), 0);
        assert_eq!(snap.len(), 2);
    }

    #[test]
    fn unknown_relation_reads_as_zero() {
        let snap = StatsSnapshot::default();
        assert_eq!(snap.cardinality(RelId(7), DbKind::Derived), 0);
        assert_eq!(snap.index_distinct(RelId(7), 0), 0);
    }

    #[test]
    fn capture_records_per_column_index_distinct() {
        let mut sm = StorageManager::new(true);
        let edge = sm.register("Edge", 2, true);
        sm.add_index(edge, 0).unwrap();
        sm.add_index(edge, 1).unwrap();
        // 3 distinct sources, 6 distinct targets.
        for i in 0..6u32 {
            sm.insert_fact(edge, Tuple::pair(i % 3, 10 + i)).unwrap();
        }
        let snap = sm.stats();
        assert_eq!(snap.index_distinct(edge, 0), 3);
        assert_eq!(snap.index_distinct(edge, 1), 6);
        // Unindexed / unknown columns read as unobserved.
        assert_eq!(snap.index_distinct(edge, 2), 0);
    }
}
