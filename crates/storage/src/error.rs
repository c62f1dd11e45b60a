//! Error type for the storage layer.

use std::fmt;

use crate::schema::RelId;

/// Errors produced by the relational layer.
///
/// The storage layer is intentionally strict: arity mismatches and unknown
/// relation identifiers are programming errors in the layers above, but we
/// surface them as recoverable errors so that the engine can report a
/// readable diagnostic instead of panicking inside a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A tuple with the wrong number of columns was inserted into a relation.
    ArityMismatch {
        /// Relation that rejected the tuple.
        relation: String,
        /// Arity declared in the schema.
        expected: usize,
        /// Arity of the offending tuple.
        actual: usize,
    },
    /// A relation id was used that has not been registered with the database.
    UnknownRelation(RelId),
    /// A relation name was looked up that has not been registered.
    UnknownRelationName(String),
    /// A column index outside the relation's arity was referenced.
    ColumnOutOfBounds {
        /// Relation on which the access happened.
        relation: String,
        /// Offending column index.
        column: usize,
        /// Arity of the relation.
        arity: usize,
    },
    /// Two relations that were expected to share a schema did not.
    SchemaMismatch {
        /// Description of the operation that failed.
        context: String,
    },
    /// A [`RowId`](crate::RowId) obtained under an earlier compaction
    /// generation was dereferenced after the pool renumbered its rows:
    /// the slot may now hold a different row (or none), so access is
    /// rejected instead of returning wrong data.
    StaleRowId {
        /// Relation on which the stale access happened.
        relation: String,
        /// The stale row id.
        row: u32,
        /// Generation the id was obtained under.
        held: u64,
        /// The pool's current generation.
        current: u64,
    },
    /// A row was written straight into a relation's published rows while
    /// rows derived this iteration were still pending there (they would
    /// end up published out of slot order); the caller must close the
    /// iteration first.
    PendingRows {
        /// Relation holding pending rows.
        relation: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ArityMismatch {
                relation,
                expected,
                actual,
            } => write!(
                f,
                "arity mismatch on relation `{relation}`: expected {expected} columns, got {actual}"
            ),
            StorageError::UnknownRelation(id) => write!(f, "unknown relation id {id:?}"),
            StorageError::UnknownRelationName(name) => {
                write!(f, "unknown relation name `{name}`")
            }
            StorageError::ColumnOutOfBounds {
                relation,
                column,
                arity,
            } => write!(
                f,
                "column {column} out of bounds for relation `{relation}` of arity {arity}"
            ),
            StorageError::SchemaMismatch { context } => {
                write!(f, "schema mismatch: {context}")
            }
            StorageError::StaleRowId {
                relation,
                row,
                held,
                current,
            } => write!(
                f,
                "stale row id {row} on relation `{relation}`: obtained under compaction \
                 generation {held}, pool is now at generation {current}"
            ),
            StorageError::PendingRows { relation } => write!(
                f,
                "relation `{relation}` has rows pending the next iteration boundary; \
                 publish or clear them before writing to it directly"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = StorageError::ArityMismatch {
            relation: "Edge".to_string(),
            expected: 2,
            actual: 3,
        };
        let msg = err.to_string();
        assert!(msg.contains("Edge"));
        assert!(msg.contains('2'));
        assert!(msg.contains('3'));
    }

    #[test]
    fn unknown_relation_display() {
        let err = StorageError::UnknownRelation(RelId(42));
        assert!(err.to_string().contains("42"));
    }

    #[test]
    fn column_out_of_bounds_display() {
        let err = StorageError::ColumnOutOfBounds {
            relation: "R".into(),
            column: 5,
            arity: 2,
        };
        assert!(err.to_string().contains('5'));
        assert!(err.to_string().contains('2'));
    }
}
