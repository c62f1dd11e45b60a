//! # carac-storage
//!
//! The physical relational layer of the Carac-rs engine (paper §V-D).
//!
//! This crate owns everything that touches rows at runtime:
//!
//! * [`Value`] — interned 32-bit constants plus a [`SymbolTable`] mapping
//!   them back to strings/integers,
//! * [`Tuple`] — a fixed-arity row of values, the *boundary* type for
//!   loading facts and reading results (the evaluation hot paths speak
//!   `&[Value]` row slices and [`RowId`]s instead),
//! * [`pool`] — the flat row pool: one row-major `Vec<Value>` per relation
//!   with hash-confirm dedup and compact inline-or-spill posting lists,
//! * [`Relation`] — an insertion-ordered, duplicate-free set of rows over a
//!   [`RowPool`], with optional per-column and composite hash indexes, the
//!   allocation-free [`Relation::probe_rows`] access path, and the epoch of
//!   every row ([`Relation::epoch_of`]: which iteration boundary appended
//!   it) as a run table,
//! * [`RelationView`] — a relation restricted to a slot range: how the
//!   three evaluation databases of semi-naive evaluation (*derived*,
//!   *delta-known*, *delta-new*) are read out of one pool per relation,
//! * [`Database`] — a collection of relations addressed by [`RelId`],
//! * [`StorageManager`] — the relations plus the iteration-boundary
//!   operations the execution layer needs (publish the pending rows as the
//!   next delta, clear the deltas, load an explicit delta set),
//! * [`ops`] — basic relational operators (select, project, join, union,
//!   difference) usable both directly and as building blocks for the
//!   execution backends,
//! * [`stats`] — cardinality snapshots consumed by the adaptive optimizer,
//! * [`snapshot`] / [`journal`] — the durable-storage layer: CRC-checked
//!   on-disk snapshots of the derived database plus the append-only
//!   write-ahead update journal with its torn-tail recovery policy.
//!
//! The layer is deliberately storage-engine-agnostic from the point of view
//! of the upper layers: the execution engine only talks to it through the
//! APIs exposed here, mirroring the paper's "pluggable relational layer".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod database;
mod epoch;
pub mod error;
pub mod hasher;
pub mod index;
pub mod journal;
pub mod ops;
pub mod pool;
pub mod relation;
pub mod schema;
pub mod snapshot;
pub mod stats;
pub mod symbol;
pub mod tuple;
pub mod value;

pub use database::{Database, DbKind, StorageManager};
pub use error::StorageError;
pub use index::{ColumnIndex, CompositeIndex};
pub use journal::{read_journal, JournalContents, JournalRecord, JournalWriter};
pub use ops::{AggFunc, CmpOp, DeltaSign};
pub use pool::{PoolStats, PostingList, RowId, RowPool};
pub use relation::{ProbeIter, ProbeRows, Relation, RelationView};
pub use schema::{RelId, RelationSchema};
pub use snapshot::{read_snapshot, write_snapshot, PersistError, RelationSnapshot, Snapshot};
pub use stats::{RelationStats, StatsSnapshot};
pub use symbol::SymbolTable;
pub use tuple::Tuple;
pub use value::Value;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, StorageError>;
