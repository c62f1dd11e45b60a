//! On-disk snapshots of the derived database and symbol table.
//!
//! A snapshot captures everything a live session needs to resume
//! incremental maintenance without re-evaluation: the symbol dictionary (in
//! interning order, so the 32-bit [`Value`] encoding of every stored row
//! stays meaningful), and — per relation — the live rows of the *derived*
//! database in row-major form together with their row count, their
//! epochs (the run table of [`crate::Relation::epoch_runs`], a few bytes per
//! iteration that appended anything — a recovered session prunes deletions
//! exactly like an uninterrupted one) and the pool's compaction generation.
//! The delta databases are deliberately not
//! captured: the incremental subsystem clears them defensively at the start
//! of every batch, so the derived database alone is the resumable state.
//!
//! The format is std-only and integrity-checked end to end: a file-level
//! header (magic, format version, endianness tag) followed by framed
//! sections, each carrying its payload length and a CRC-32.  Readers
//! validate the frame *before* parsing the payload — a truncated or
//! bit-flipped file is detected and rejected with a typed
//! [`PersistError`], never deserialized into wrong state.
//!
//! All multi-byte integers are little-endian on disk regardless of the host
//! (`to_le_bytes`/`from_le_bytes` on both sides); the endianness tag in the
//! header is a sanity marker against foreign writers, not a switch.
//!
//! Writes are atomic: the snapshot is assembled in memory, written to a
//! sibling temp file, fsync'd, and renamed over the destination (with a
//! best-effort fsync of the parent directory), so a crash mid-checkpoint
//! leaves either the old snapshot or the new one — never a torn hybrid.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

use crate::database::StorageManager;
use crate::epoch::EpochRuns;
use crate::error::StorageError;
use crate::pool::RowId;
use crate::schema::RelId;
use crate::symbol::SymbolTable;
use crate::value::Value;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CARACSNP";
/// Current snapshot format version.  Version 2 added the per-relation epoch
/// runs, version 3 dropped the per-row support counts; files of either
/// older version are rejected with [`PersistError::BadVersion`].
pub const SNAPSHOT_VERSION: u32 = 3;
/// Endianness tag stored in the header: decodes to this constant only when
/// the file was written little-endian by this format.
pub const ENDIAN_TAG: u32 = 0x0A0B_0C0D;

const SECTION_META: u32 = 1;
const SECTION_SYMBOLS: u32 = 2;
const SECTION_RELATIONS: u32 = 3;

/// Errors of the persistence layer (snapshots and journals).
///
/// Every corruption mode a fault can introduce — truncation, bit flips,
/// foreign or future files — maps to a typed variant here, so callers can
/// distinguish "this file is damaged" from "this file belongs to a
/// different program" and recovery never panics on bad input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// An I/O operation failed (the message carries the OS error).
    Io(String),
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// Which kind of file was expected ("snapshot" or "journal").
        expected: &'static str,
    },
    /// The file carries a format version this build cannot read.
    BadVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The header's endianness tag does not match the format constant.
    BadEndianness,
    /// The file ends before a complete header, frame or payload.
    Truncated {
        /// What was being read when the bytes ran out.
        context: String,
    },
    /// A section or record checksum does not match its payload.
    ChecksumMismatch {
        /// The section or record that failed validation.
        context: String,
    },
    /// The file is well-framed but its contents do not match the engine
    /// state it is being restored into (relation catalog, symbol table).
    SchemaMismatch {
        /// Description of the disagreement.
        context: String,
    },
    /// The file is framed and checksummed correctly but semantically
    /// invalid (duplicate rows, out-of-range symbol indices, non-monotonic
    /// journal sequence numbers).
    Corrupt {
        /// Description of the invalid content.
        context: String,
    },
    /// A storage-layer error surfaced while rebuilding state.
    Storage(StorageError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(msg) => write!(f, "persistence I/O error: {msg}"),
            PersistError::BadMagic { expected } => {
                write!(f, "not a carac {expected} file (bad magic)")
            }
            PersistError::BadVersion { found, expected } => write!(
                f,
                "unsupported format version {found} (this build reads version {expected})"
            ),
            PersistError::BadEndianness => {
                write!(
                    f,
                    "endianness tag mismatch: file written by a foreign encoder"
                )
            }
            PersistError::Truncated { context } => {
                write!(f, "file truncated while reading {context}")
            }
            PersistError::ChecksumMismatch { context } => {
                write!(f, "checksum mismatch in {context}")
            }
            PersistError::SchemaMismatch { context } => {
                write!(f, "snapshot does not match the engine state: {context}")
            }
            PersistError::Corrupt { context } => write!(f, "corrupt file contents: {context}"),
            PersistError::Storage(err) => write!(f, "storage error during restore: {err}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Storage(err) => Some(err),
            _ => None,
        }
    }
}

impl From<StorageError> for PersistError {
    fn from(err: StorageError) -> Self {
        PersistError::Storage(err)
    }
}

impl From<std::io::Error> for PersistError {
    fn from(err: std::io::Error) -> Self {
        PersistError::Io(err.to_string())
    }
}

/// CRC-32 (ISO-HDLC, the zlib/PNG polynomial) over `bytes` — the per-section
/// and per-record integrity check of the snapshot and journal formats.
/// Table-driven, std-only.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Bounds-checked little-endian reader over a byte buffer: every primitive
/// read reports a typed [`PersistError::Truncated`] instead of panicking,
/// which is what lets arbitrary fault-injected bytes flow through the
/// parser safely.
pub(crate) struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize, context: &str) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated {
                context: context.to_string(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self, context: &str) -> Result<u8, PersistError> {
        Ok(self.take(1, context)?[0])
    }

    pub(crate) fn u32(&mut self, context: &str) -> Result<u32, PersistError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self, context: &str) -> Result<u64, PersistError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// One relation's captured derived state: schema identity, the pool's
/// compaction generation, and the live rows (row-major) with their epochs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSnapshot {
    /// Relation name (restore matches it against the target catalog).
    pub name: String,
    /// Number of columns.
    pub arity: usize,
    /// Whether the relation is extensional.
    pub is_edb: bool,
    /// The row pool's compaction generation at capture time, restored so
    /// the generation counter stays monotonic across a process restart.
    pub generation: u64,
    /// Number of live rows captured — explicit, because a nullary
    /// relation's row cannot be counted from `values`.
    pub rows: usize,
    /// All live rows, row-major (`rows * arity` values).
    pub values: Vec<Value>,
    /// The rows' epochs as `(first row, epoch)` runs, both strictly
    /// increasing ([`crate::Relation::epoch_runs`]).
    pub epochs: Vec<(RowId, u32)>,
}

/// A fully parsed, integrity-checked snapshot file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Number of journaled update batches already folded into this
    /// snapshot — recovery replays only journal records with a sequence
    /// number above this.
    pub journal_seq: u64,
    /// The symbol dictionary in interning order (index = symbol index).
    pub symbols: Vec<String>,
    /// Per-relation captured state, in relation-id order.
    pub relations: Vec<RelationSnapshot>,
}

impl Snapshot {
    /// Checks that `table` interns every snapshot symbol at the same index,
    /// so the [`Value`]s stored in the snapshot's rows decode to the same
    /// constants in the restoring program.  The table may hold *more*
    /// symbols (interning is append-only); it must agree on the prefix.
    pub fn validate_symbols(&self, table: &SymbolTable) -> Result<(), PersistError> {
        if self.symbols.len() > table.len() {
            return Err(PersistError::SchemaMismatch {
                context: format!(
                    "snapshot interns {} symbols, the program only {}",
                    self.symbols.len(),
                    table.len()
                ),
            });
        }
        for (idx, name) in self.symbols.iter().enumerate() {
            let expected = Value::symbol(idx as u32);
            if table.lookup(name) != Some(expected) {
                return Err(PersistError::SchemaMismatch {
                    context: format!(
                        "symbol `{name}` is interned at index {idx} in the snapshot but not in \
                         the program"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Replaces the derived database of `storage` with the snapshot's
    /// contents: every relation is cleared (deltas included) and refilled
    /// with the captured rows, epochs and generation
    /// counter, and the manager's epoch counter resumes above every restored
    /// epoch.  Index and shard *definitions* on the target are kept and
    /// maintained through the normal insert path.
    ///
    /// The target's relation catalog must match the snapshot exactly (same
    /// names, arities and EDB flags in id order) — restoring a snapshot
    /// into a different program is a typed [`PersistError::SchemaMismatch`].
    pub fn apply(&self, storage: &mut StorageManager) -> Result<(), PersistError> {
        if storage.relation_count() != self.relations.len() {
            return Err(PersistError::SchemaMismatch {
                context: format!(
                    "snapshot holds {} relations, the engine declares {}",
                    self.relations.len(),
                    storage.relation_count()
                ),
            });
        }
        for (idx, snap) in self.relations.iter().enumerate() {
            let schema = storage.schema(RelId(idx as u32))?;
            if schema.name != snap.name
                || schema.arity != snap.arity
                || schema.is_edb != snap.is_edb
            {
                return Err(PersistError::SchemaMismatch {
                    context: format!(
                        "relation {idx}: snapshot has {}/{} ({}), engine declares {}/{} ({})",
                        snap.name,
                        snap.arity,
                        if snap.is_edb { "edb" } else { "idb" },
                        schema.name,
                        schema.arity,
                        if schema.is_edb { "edb" } else { "idb" },
                    ),
                });
            }
        }
        let all: Vec<RelId> = (0..self.relations.len()).map(|i| RelId(i as u32)).collect();
        storage.clear_deltas(&all)?;
        for (idx, snap) in self.relations.iter().enumerate() {
            let rel = storage.derived_mut(RelId(idx as u32))?;
            rel.clear();
            for row in 0..snap.rows {
                let values = if snap.arity == 0 {
                    &[][..]
                } else {
                    &snap.values[row * snap.arity..(row + 1) * snap.arity]
                };
                if !rel.insert_row(values)? {
                    return Err(PersistError::Corrupt {
                        context: format!("duplicate row {row} in relation `{}`", snap.name),
                    });
                }
            }
            if !rel.restore_epoch_runs(&snap.epochs) {
                return Err(PersistError::Corrupt {
                    context: format!("epoch runs of relation `{}` are out of order", snap.name),
                });
            }
            rel.set_generation(snap.generation);
        }
        let newest = self.relations.iter().filter_map(|snap| snap.epochs.last());
        storage.resume_epoch(newest.map(|run| run.1).max().unwrap_or(0));
        Ok(())
    }
}

/// Serializes the derived database of `storage` plus the symbol dictionary
/// of `symbols` into the snapshot format and writes it **atomically** to
/// `path` (temp file + fsync + rename).  `journal_seq` records how many
/// journaled update batches are already folded into this state.
pub fn write_snapshot(
    path: &Path,
    storage: &StorageManager,
    symbols: &SymbolTable,
    journal_seq: u64,
) -> Result<(), PersistError> {
    let bytes = encode_snapshot(storage, symbols, journal_seq);
    let tmp = tmp_sibling(path);
    {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    if let Err(err) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(err.into());
    }
    // Durability of the rename itself: fsync the parent directory where the
    // platform supports opening directories (best-effort elsewhere).
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Reads and fully validates the snapshot at `path`.  Any framing, checksum
/// or content problem surfaces as a typed [`PersistError`]; no partially
/// parsed state escapes.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, PersistError> {
    let bytes = std::fs::read(path)?;
    decode_snapshot(&bytes)
}

/// Name of the temp file a snapshot is staged in before the atomic rename
/// (a sibling so the rename never crosses filesystems).
fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(std::ffi::OsStr::to_os_string)
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn push_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    push_u32(out, tag);
    push_u64(out, payload.len() as u64);
    push_u32(out, crc32(payload));
    out.extend_from_slice(payload);
}

fn encode_snapshot(storage: &StorageManager, symbols: &SymbolTable, journal_seq: u64) -> Vec<u8> {
    // META: the journal watermark.
    let mut meta = Vec::new();
    push_u64(&mut meta, journal_seq);

    // SYMBOLS: the dictionary in interning order.
    let mut syms = Vec::new();
    push_u32(&mut syms, symbols.len() as u32);
    for idx in 0..symbols.len() as u32 {
        let name = symbols
            .resolve(Value::symbol(idx))
            .expect("symbol indices are dense");
        push_str(&mut syms, name);
    }

    // RELATIONS: row-major frames of the derived database.
    let mut rels = Vec::new();
    push_u32(&mut rels, storage.relation_count() as u32);
    for schema in storage.schemas() {
        let rel = storage.derived(schema.id).expect("catalog ids are dense");
        push_str(&mut rels, &schema.name);
        push_u32(&mut rels, schema.arity as u32);
        rels.push(u8::from(schema.is_edb));
        push_u64(&mut rels, rel.generation());
        push_u64(&mut rels, rel.len() as u64);
        // Live rows in insertion order, then epoch runs — the on-disk image
        // is the compacted form of the pool.
        for row in rel.iter_rows() {
            for &v in row {
                push_u32(&mut rels, v.raw());
            }
        }
        let runs = rel.epoch_runs();
        push_u32(&mut rels, runs.len() as u32);
        for (first, epoch) in runs {
            push_u32(&mut rels, first);
            push_u32(&mut rels, epoch);
        }
    }

    let mut out = Vec::with_capacity(24 + meta.len() + syms.len() + rels.len() + 48);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    push_u32(&mut out, SNAPSHOT_VERSION);
    push_u32(&mut out, ENDIAN_TAG);
    push_u32(&mut out, 3); // section count
    push_section(&mut out, SECTION_META, &meta);
    push_section(&mut out, SECTION_SYMBOLS, &syms);
    push_section(&mut out, SECTION_RELATIONS, &rels);
    out
}

/// Validates header + frames and parses the three sections.
fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, PersistError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(8, "snapshot header")?;
    if magic != SNAPSHOT_MAGIC {
        return Err(PersistError::BadMagic {
            expected: "snapshot",
        });
    }
    let version = r.u32("snapshot header")?;
    if version != SNAPSHOT_VERSION {
        return Err(PersistError::BadVersion {
            found: version,
            expected: SNAPSHOT_VERSION,
        });
    }
    if r.u32("snapshot header")? != ENDIAN_TAG {
        return Err(PersistError::BadEndianness);
    }
    let section_count = r.u32("snapshot header")?;
    if section_count != 3 {
        return Err(PersistError::Corrupt {
            context: format!("expected 3 sections, header declares {section_count}"),
        });
    }

    let mut meta = None;
    let mut symbols = None;
    let mut relations = None;
    for _ in 0..section_count {
        let tag = r.u32("section frame")?;
        let len = r.u64("section frame")?;
        let crc = r.u32("section frame")?;
        let len = usize::try_from(len).map_err(|_| PersistError::Corrupt {
            context: "section length overflows the address space".to_string(),
        })?;
        let payload = r.take(len, "section payload")?;
        // Integrity first: a payload whose checksum fails is never parsed.
        if crc32(payload) != crc {
            return Err(PersistError::ChecksumMismatch {
                context: format!("section tag {tag}"),
            });
        }
        match tag {
            SECTION_META => meta = Some(decode_meta(payload)?),
            SECTION_SYMBOLS => symbols = Some(decode_symbols(payload)?),
            SECTION_RELATIONS => relations = Some(payload),
            other => {
                return Err(PersistError::Corrupt {
                    context: format!("unknown section tag {other}"),
                })
            }
        }
    }
    if r.remaining() != 0 {
        return Err(PersistError::Corrupt {
            context: format!("{} trailing bytes after the last section", r.remaining()),
        });
    }
    let journal_seq = meta.ok_or_else(|| PersistError::Corrupt {
        context: "missing META section".to_string(),
    })?;
    let symbols = symbols.ok_or_else(|| PersistError::Corrupt {
        context: "missing SYMBOLS section".to_string(),
    })?;
    let relations_payload = relations.ok_or_else(|| PersistError::Corrupt {
        context: "missing RELATIONS section".to_string(),
    })?;
    let relations = decode_relations(relations_payload, symbols.len() as u32)?;
    Ok(Snapshot {
        journal_seq,
        symbols,
        relations,
    })
}

fn decode_meta(payload: &[u8]) -> Result<u64, PersistError> {
    let mut r = ByteReader::new(payload);
    let seq = r.u64("META section")?;
    if r.remaining() != 0 {
        return Err(PersistError::Corrupt {
            context: "trailing bytes in META section".to_string(),
        });
    }
    Ok(seq)
}

fn decode_symbols(payload: &[u8]) -> Result<Vec<String>, PersistError> {
    let mut r = ByteReader::new(payload);
    let count = r.u32("SYMBOLS section")? as usize;
    let mut symbols = Vec::with_capacity(count.min(payload.len()));
    for i in 0..count {
        let len = r.u32("symbol length")? as usize;
        let bytes = r.take(len, "symbol bytes")?;
        let name = std::str::from_utf8(bytes).map_err(|_| PersistError::Corrupt {
            context: format!("symbol {i} is not valid UTF-8"),
        })?;
        symbols.push(name.to_string());
    }
    if r.remaining() != 0 {
        return Err(PersistError::Corrupt {
            context: "trailing bytes in SYMBOLS section".to_string(),
        });
    }
    Ok(symbols)
}

fn decode_relations(
    payload: &[u8],
    symbol_count: u32,
) -> Result<Vec<RelationSnapshot>, PersistError> {
    let mut r = ByteReader::new(payload);
    let count = r.u32("RELATIONS section")? as usize;
    let mut relations = Vec::with_capacity(count.min(payload.len()));
    for idx in 0..count {
        let name_len = r.u32("relation name length")? as usize;
        let name_bytes = r.take(name_len, "relation name")?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| PersistError::Corrupt {
                context: format!("relation {idx} name is not valid UTF-8"),
            })?
            .to_string();
        let arity = r.u32("relation arity")? as usize;
        let is_edb = match r.u8("relation kind")? {
            0 => false,
            1 => true,
            other => {
                return Err(PersistError::Corrupt {
                    context: format!("relation `{name}` kind byte is {other}"),
                })
            }
        };
        let generation = r.u64("relation generation")?;
        let rows = r.u64("relation row count")?;
        let rows = usize::try_from(rows).map_err(|_| PersistError::Corrupt {
            context: format!("relation `{name}` row count overflows"),
        })?;
        // Bound the row count before anything is allocated or looped: a
        // nullary relation holds at most the empty row, any other must have
        // its values physically present.
        if arity == 0 && rows > 1 {
            return Err(PersistError::Corrupt {
                context: format!("nullary relation `{name}` declares {rows} rows"),
            });
        }
        let value_count = rows
            .checked_mul(arity)
            .ok_or_else(|| PersistError::Corrupt {
                context: format!("relation `{name}` frame size overflows"),
            })?;
        if r.remaining() / 4 < value_count {
            return Err(PersistError::Truncated {
                context: format!("rows of relation `{name}`"),
            });
        }
        let mut values = Vec::with_capacity(value_count);
        for _ in 0..value_count {
            let raw = r.u32("row value")?;
            let value = Value(raw);
            if let Some(sym) = value.symbol_index() {
                if sym >= symbol_count {
                    return Err(PersistError::Corrupt {
                        context: format!(
                            "relation `{name}` references symbol {sym}, dictionary holds \
                             {symbol_count}"
                        ),
                    });
                }
            }
            values.push(value);
        }
        let runs = r.u32("epoch run count")? as usize;
        if r.remaining() / 8 < runs {
            return Err(PersistError::Truncated {
                context: format!("epoch runs of relation `{name}`"),
            });
        }
        let mut epochs = Vec::with_capacity(runs);
        for _ in 0..runs {
            epochs.push((r.u32("epoch run")?, r.u32("epoch run")?));
        }
        if EpochRuns::checked(&epochs, rows).is_none() {
            return Err(PersistError::Corrupt {
                context: format!("epoch runs of relation `{name}` are out of order"),
            });
        }
        relations.push(RelationSnapshot {
            name,
            arity,
            is_edb,
            generation,
            rows,
            values,
            epochs,
        });
    }
    if r.remaining() != 0 {
        return Err(PersistError::Corrupt {
            context: "trailing bytes in RELATIONS section".to_string(),
        });
    }
    Ok(relations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("carac-snap-{}-{name}", std::process::id()));
        p
    }

    fn sample_state() -> (StorageManager, SymbolTable) {
        let mut sm = StorageManager::new(true);
        let edge = sm.register("Edge", 2, true);
        let path = sm.register("Path", 2, false);
        sm.register("Flag", 0, true);
        let mut symbols = SymbolTable::new();
        let a = symbols.intern("alpha");
        let b = symbols.intern("beta");
        sm.insert_fact(edge, Tuple::pair(1, 2)).unwrap();
        sm.insert_fact(edge, Tuple::new(vec![a, b])).unwrap();
        sm.insert_derived(path, Tuple::pair(1, 2)).unwrap();
        sm.insert_derived(path, Tuple::pair(1, 2)).unwrap();
        sm.swap_and_clear(&[path]).unwrap();
        (sm, symbols)
    }

    fn fresh_target() -> StorageManager {
        let mut sm = StorageManager::new(true);
        sm.register("Edge", 2, true);
        sm.register("Path", 2, false);
        sm.register("Flag", 0, true);
        sm
    }

    #[test]
    fn snapshot_roundtrips_rows_support_and_generation() {
        let (mut sm, symbols) = sample_state();
        // Exercise the tombstone path: retract then compact so the source
        // pool's generation moves and the snapshot stores live rows only.
        let edge = sm.rel_by_name("Edge").unwrap();
        sm.retract_fact_row(edge, &[Value::int(1), Value::int(2)])
            .unwrap();
        let path = temp_path("roundtrip");
        write_snapshot(&path, &sm, &symbols, 7).unwrap();
        let snap = read_snapshot(&path).unwrap();
        assert_eq!(snap.journal_seq, 7);
        assert_eq!(snap.symbols, vec!["alpha".to_string(), "beta".to_string()]);
        assert_eq!(snap.relations.len(), 3);
        assert_eq!(snap.relations[0].rows, 1); // retracted row dropped
        snap.validate_symbols(&symbols).unwrap();

        let mut target = fresh_target();
        snap.apply(&mut target).unwrap();
        let edge_rel = target.derived(edge).unwrap();
        assert_eq!(edge_rel.len(), 1);
        assert!(edge_rel.contains(&Tuple::new(vec![
            symbols.lookup("alpha").unwrap(),
            symbols.lookup("beta").unwrap()
        ])));
        let path_rel = target.derived(target.rel_by_name("Path").unwrap()).unwrap();
        assert_eq!(path_rel.len(), 1);
        // The merged row kept its epoch, the base facts theirs, and rows
        // appended from here on rank above both.
        assert_eq!(path_rel.epoch_of(0), 1);
        assert_eq!(edge_rel.epoch_of(0), 0);
        assert_eq!(target.epoch(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn generation_counter_survives_the_roundtrip() {
        let (mut sm, symbols) = sample_state();
        let edge = sm.rel_by_name("Edge").unwrap();
        sm.retract_fact_row(edge, &[Value::int(1), Value::int(2)])
            .unwrap();
        // Force a compaction so the generation moves off zero.
        if let Ok(rel) = sm.derived_mut(edge) {
            rel.compact();
        }
        assert_eq!(sm.derived_generation(edge).unwrap(), 1);
        let path = temp_path("generation");
        write_snapshot(&path, &sm, &symbols, 0).unwrap();
        let snap = read_snapshot(&path).unwrap();
        let mut target = fresh_target();
        snap.apply(&mut target).unwrap();
        assert_eq!(target.derived_generation(edge).unwrap(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_header_is_rejected_typed() {
        let (sm, symbols) = sample_state();
        let path = temp_path("header");
        write_snapshot(&path, &sm, &symbols, 0).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(PersistError::BadMagic { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_version_is_rejected_typed() {
        let (sm, symbols) = sample_state();
        let path = temp_path("version");
        write_snapshot(&path, &sm, &symbols, 0).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(PersistError::BadVersion {
                found: 99,
                expected: SNAPSHOT_VERSION
            })
        ));
        // Versions 1 (no epoch runs) and 2 (support counts) are not read
        // as version 3.
        for old in [1u32, 2] {
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                read_snapshot(&path),
                Err(PersistError::BadVersion { found, .. }) if found == old
            ));
        }
        std::fs::remove_file(&path).ok();
    }

    /// A RELATIONS payload holding one relation `R` of `arity` that
    /// declares `rows` rows and carries no row data at all.
    fn bare_relation_payload(arity: u32, rows: u64) -> Vec<u8> {
        let mut payload = Vec::new();
        push_u32(&mut payload, 1);
        push_str(&mut payload, "R");
        push_u32(&mut payload, arity);
        payload.push(1);
        push_u64(&mut payload, 0);
        push_u64(&mut payload, rows);
        push_u32(&mut payload, 0); // no epoch runs
        payload
    }

    #[test]
    fn hostile_row_counts_are_typed_errors() {
        // Regression: a nullary relation declaring 2^62 rows overflowed the
        // size bound (a debug panic; a capacity-overflow abort in release).
        assert!(matches!(
            decode_relations(&bare_relation_payload(0, 1 << 62), 0),
            Err(PersistError::Corrupt { .. })
        ));
        assert!(matches!(
            decode_relations(&bare_relation_payload(0, 2), 0),
            Err(PersistError::Corrupt { .. })
        ));
        // Rows of wider relations must be physically present.
        assert!(matches!(
            decode_relations(&bare_relation_payload(2, 1 << 62), 0),
            Err(PersistError::Truncated { .. })
        ));
        assert!(matches!(
            decode_relations(&bare_relation_payload(3, u64::MAX / 2), 0),
            Err(PersistError::Corrupt { .. } | PersistError::Truncated { .. })
        ));
        // The one row a nullary relation can hold decodes.
        let relations = decode_relations(&bare_relation_payload(0, 1), 0).unwrap();
        assert_eq!(relations[0].rows, 1);
        assert!(relations[0].values.is_empty());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // The acceptance bar in miniature: flip each bit of a small
        // snapshot and require a typed error or (for bits in ignored
        // positions — there are none in this format) an identical parse.
        let (sm, symbols) = sample_state();
        let path = temp_path("bitflip");
        write_snapshot(&path, &sm, &symbols, 3).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let baseline = read_snapshot(&path).unwrap();
        for byte in 0..pristine.len() {
            for bit in 0..8 {
                let mut bytes = pristine.clone();
                bytes[byte] ^= 1 << bit;
                std::fs::write(&path, &bytes).unwrap();
                match read_snapshot(&path) {
                    Err(_) => {}
                    Ok(parsed) => panic!(
                        "bit {bit} of byte {byte} flipped silently: {parsed:?} vs {baseline:?}"
                    ),
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_truncation_is_detected() {
        let (sm, symbols) = sample_state();
        let path = temp_path("truncate");
        write_snapshot(&path, &sm, &symbols, 0).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        for len in 0..pristine.len() {
            std::fs::write(&path, &pristine[..len]).unwrap();
            assert!(
                read_snapshot(&path).is_err(),
                "truncation to {len} bytes parsed successfully"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn apply_rejects_catalog_mismatch() {
        let (sm, symbols) = sample_state();
        let path = temp_path("catalog");
        write_snapshot(&path, &sm, &symbols, 0).unwrap();
        let snap = read_snapshot(&path).unwrap();
        let mut wrong = StorageManager::new(true);
        wrong.register("Edge", 2, true);
        assert!(matches!(
            snap.apply(&mut wrong),
            Err(PersistError::SchemaMismatch { .. })
        ));
        let mut wrong_arity = StorageManager::new(true);
        wrong_arity.register("Edge", 3, true);
        wrong_arity.register("Path", 2, false);
        wrong_arity.register("Flag", 0, true);
        assert!(matches!(
            snap.apply(&mut wrong_arity),
            Err(PersistError::SchemaMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_symbols_rejects_reordered_tables() {
        let (sm, symbols) = sample_state();
        let path = temp_path("symbols");
        write_snapshot(&path, &sm, &symbols, 0).unwrap();
        let snap = read_snapshot(&path).unwrap();
        let mut reordered = SymbolTable::new();
        reordered.intern("beta");
        reordered.intern("alpha");
        assert!(matches!(
            snap.validate_symbols(&reordered),
            Err(PersistError::SchemaMismatch { .. })
        ));
        // A superset table that agrees on the prefix is fine.
        let mut superset = symbols.clone();
        superset.intern("gamma");
        snap.validate_symbols(&superset).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_write_is_atomic_under_existing_file() {
        let (sm, symbols) = sample_state();
        let path = temp_path("atomic");
        write_snapshot(&path, &sm, &symbols, 1).unwrap();
        write_snapshot(&path, &sm, &symbols, 2).unwrap();
        assert_eq!(read_snapshot(&path).unwrap().journal_seq, 2);
        // No temp-file litter.
        assert!(!tmp_sibling(&path).exists());
        std::fs::remove_file(&path).ok();
    }
}
