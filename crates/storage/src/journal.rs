//! The append-only write-ahead update journal.
//!
//! Durability contract: an update batch is length-prefixed, checksummed and
//! fsync'd to the journal **before** it is applied to the live session, so
//! after a crash the journal is always a superset of the applied batches.
//! Recovery re-applies the journal suffix past the checkpoint's watermark;
//! a batch that reached the engine but not the journal cannot exist.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! header:  magic "CARACWAL" | version u32 | endianness tag u32
//! record:  len u32 | crc u32 | seq u64 | payload (len bytes)
//! ```
//!
//! `crc` is the CRC-32 of `seq || payload`, so neither the payload nor its
//! position in the sequence can be altered undetected.  Sequence numbers
//! start at 1 and increase by exactly 1 per record: a duplicated record (a
//! fault mode the checksum alone cannot catch, since the copied bytes carry
//! a valid CRC) or a dropped record surfaces as a non-monotonic sequence —
//! a typed [`PersistError::Corrupt`].
//!
//! **Torn-tail policy.**  A crash can tear the *final* record: the write of
//! `len|crc|seq|payload` was cut short, or reached the disk partially.  The
//! reader therefore treats an incomplete frame at end-of-file, or a
//! checksum failure on a record that extends to end-of-file, as a clean end
//! of log: the record is dropped and [`JournalContents::torn_tail`] reports
//! it.  A checksum failure in the *middle* of the file cannot be a torn
//! write (later records made it to disk after this one) and is a typed
//! [`PersistError::ChecksumMismatch`].  The flip side: a bit flip in the
//! final record is indistinguishable from a torn write and degrades to
//! "clean end of log one record early" — recovered state is still a
//! consistent prefix of the uncrashed run, never a divergent one.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

use crate::snapshot::{crc32, ByteReader, PersistError};

/// Magic bytes opening every journal file.
pub const JOURNAL_MAGIC: [u8; 8] = *b"CARACWAL";
/// Current journal format version.
pub const JOURNAL_VERSION: u32 = 1;
/// Byte length of the file header.
pub const JOURNAL_HEADER_LEN: u64 = 16;
/// Byte length of a record frame (`len | crc | seq`), excluding the payload.
pub const RECORD_FRAME_LEN: u64 = 16;

/// Appending side of the journal: owns the file handle, the committed byte
/// length and the next sequence number.  Every [`JournalWriter::append`] is
/// synced to disk before it returns — that is the write-ahead guarantee the
/// recovery protocol is built on.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    len: u64,
    next_seq: u64,
}

impl JournalWriter {
    /// Creates (or truncates) the journal at `path`, writes the header and
    /// syncs it.  The first appended record will carry sequence number 1.
    pub fn create(path: &Path) -> Result<Self, PersistError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut header = Vec::with_capacity(JOURNAL_HEADER_LEN as usize);
        header.extend_from_slice(&JOURNAL_MAGIC);
        header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        header.extend_from_slice(&crate::snapshot::ENDIAN_TAG.to_le_bytes());
        file.write_all(&header)?;
        file.sync_all()?;
        Ok(JournalWriter {
            file,
            len: JOURNAL_HEADER_LEN,
            next_seq: 1,
        })
    }

    /// Reopens an existing journal for appending after recovery: the file is
    /// truncated to `clean_len` (dropping any torn tail the reader
    /// identified) and the next record will carry `next_seq`.  The caller
    /// derives both from [`read_journal`].
    ///
    /// A journal that already ends at `clean_len` is neither written nor
    /// synced: recovery of an untorn journal does no blocking I/O here.  Its
    /// records may then still sit in the page cache (a process that died
    /// between an append's write and its fsync leaves a valid, unsynced
    /// record); the next [`JournalWriter::append`] syncs them with its own,
    /// and whoever needs them durable sooner calls [`JournalWriter::sync`].
    pub fn open_at(path: &Path, clean_len: u64, next_seq: u64) -> Result<Self, PersistError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        if file.metadata()?.len() != clean_len {
            file.set_len(clean_len)?;
            file.sync_all()?;
        }
        Ok(JournalWriter {
            file,
            len: clean_len,
            next_seq,
        })
    }

    /// Appends one checksummed record carrying `payload` and **syncs it to
    /// disk** before returning.  Returns the record's sequence number.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, PersistError> {
        let seq = self.next_seq;
        let mut record = Vec::with_capacity(RECORD_FRAME_LEN as usize + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        // CRC over seq || payload: those bytes are contiguous on disk, so
        // the reader validates them with one pass over the raw file slice.
        let mut checked = Vec::with_capacity(8 + payload.len());
        checked.extend_from_slice(&seq.to_le_bytes());
        checked.extend_from_slice(payload);
        record.extend_from_slice(&crc32(&checked).to_le_bytes());
        record.extend_from_slice(&checked);
        self.file.seek(SeekFrom::Start(self.len))?;
        self.file.write_all(&record)?;
        self.file.sync_data()?;
        self.len += record.len() as u64;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Rolls the journal back to a previous `(byte length, next sequence)`
    /// pair — the undo step when a journaled batch fails to apply, restoring
    /// the invariant that the journal holds exactly the applied batches.
    pub fn truncate_to(&mut self, len: u64, next_seq: u64) -> Result<(), PersistError> {
        self.file.set_len(len)?;
        self.file.sync_data()?;
        self.len = len;
        self.next_seq = next_seq;
        Ok(())
    }

    /// Syncs the journal's contents to disk.  Appends do this themselves;
    /// this is for a journal reopened by [`JournalWriter::open_at`], before
    /// something durable (a checkpoint's watermark) refers to its records.
    pub fn sync(&self) -> Result<(), PersistError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Current committed byte length of the journal (header included).
    pub fn byte_len(&self) -> u64 {
        self.len
    }

    /// Sequence number the next [`JournalWriter::append`] will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// One fully validated journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// The record's sequence number (1-based, gapless).
    pub seq: u64,
    /// The opaque payload (an encoded update batch at the core layer).
    pub payload: Vec<u8>,
}

/// The validated contents of a journal file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalContents {
    /// Every complete, checksum-valid record in order.
    pub records: Vec<JournalRecord>,
    /// Byte offset just past the last valid record — the length to truncate
    /// to before appending again ([`JournalWriter::open_at`]).
    pub clean_len: u64,
    /// Whether a torn (incomplete or checksum-failing) final record was
    /// dropped.
    pub torn_tail: bool,
}

impl JournalContents {
    /// Sequence number the next appended record should carry (1 for an
    /// empty journal).
    pub fn next_seq(&self) -> u64 {
        self.records.last().map_or(1, |r| r.seq + 1)
    }
}

/// Reads and validates the journal at `path` under the torn-tail policy
/// described in the module docs.  Header problems and mid-file corruption
/// are typed errors; only the final record may be silently dropped (and is
/// then reported via [`JournalContents::torn_tail`]).
pub fn read_journal(path: &Path) -> Result<JournalContents, PersistError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < JOURNAL_HEADER_LEN as usize {
        return Err(PersistError::Truncated {
            context: "journal header".to_string(),
        });
    }
    {
        let mut r = ByteReader::new(&bytes);
        let magic = r.take(8, "journal header")?;
        if magic != JOURNAL_MAGIC {
            return Err(PersistError::BadMagic {
                expected: "journal",
            });
        }
        let version = r.u32("journal header")?;
        if version != JOURNAL_VERSION {
            return Err(PersistError::BadVersion {
                found: version,
                expected: JOURNAL_VERSION,
            });
        }
        if r.u32("journal header")? != crate::snapshot::ENDIAN_TAG {
            return Err(PersistError::BadEndianness);
        }
    }

    let mut records = Vec::new();
    let mut offset = JOURNAL_HEADER_LEN as usize;
    let mut torn_tail = false;
    let mut expected_seq = 1u64;
    while offset < bytes.len() {
        // An incomplete frame can only be the torn final record.
        if bytes.len() - offset < RECORD_FRAME_LEN as usize {
            torn_tail = true;
            break;
        }
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
        let body_start = offset + 8;
        let payload_start = body_start + 8;
        let end = match payload_start.checked_add(len) {
            Some(end) if end <= bytes.len() => end,
            // The declared payload runs past end-of-file: torn final write
            // (either the payload was cut short or the length field itself
            // is part of the torn bytes — both resolve to dropping the
            // record).
            _ => {
                torn_tail = true;
                break;
            }
        };
        if crc32(&bytes[body_start..end]) != crc {
            if end == bytes.len() {
                // Checksum failure on the record that extends to
                // end-of-file: indistinguishable from a torn write, treated
                // as clean end of log (module docs).
                torn_tail = true;
                break;
            }
            return Err(PersistError::ChecksumMismatch {
                context: format!("journal record at byte offset {offset}"),
            });
        }
        let seq = u64::from_le_bytes(bytes[body_start..payload_start].try_into().unwrap());
        if seq != expected_seq {
            return Err(PersistError::Corrupt {
                context: format!(
                    "journal record at byte offset {offset} carries sequence {seq}, expected \
                     {expected_seq} (duplicated, dropped or reordered record)"
                ),
            });
        }
        expected_seq += 1;
        records.push(JournalRecord {
            seq,
            payload: bytes[payload_start..end].to_vec(),
        });
        offset = end;
    }
    let clean_len = if torn_tail {
        offset as u64
    } else {
        bytes.len() as u64
    };
    Ok(JournalContents {
        records,
        clean_len,
        torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("carac-wal-{}-{name}", std::process::id()));
        p
    }

    fn write_records(path: &Path, payloads: &[&[u8]]) -> JournalWriter {
        let mut w = JournalWriter::create(path).unwrap();
        for p in payloads {
            w.append(p).unwrap();
        }
        w
    }

    #[test]
    fn roundtrips_records_in_order() {
        let path = temp_path("roundtrip");
        let w = write_records(&path, &[b"alpha", b"", b"gamma-longer-payload"]);
        let contents = read_journal(&path).unwrap();
        assert!(!contents.torn_tail);
        assert_eq!(contents.clean_len, w.byte_len());
        assert_eq!(contents.next_seq(), 4);
        assert_eq!(contents.records.len(), 3);
        assert_eq!(contents.records[0].payload, b"alpha");
        assert_eq!(contents.records[1].payload, b"");
        assert_eq!(contents.records[2].payload, b"gamma-longer-payload");
        assert_eq!(
            contents.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_journal_reads_clean() {
        let path = temp_path("empty");
        JournalWriter::create(&path).unwrap();
        let contents = read_journal(&path).unwrap();
        assert!(contents.records.is_empty());
        assert!(!contents.torn_tail);
        assert_eq!(contents.next_seq(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_tail_truncation_is_a_clean_prefix() {
        // The core torn-write property: cutting the file at ANY byte length
        // yields a valid record prefix (possibly with torn_tail), never an
        // error and never a divergent record — except inside the header,
        // which is a typed truncation error.
        let path = temp_path("truncate");
        write_records(&path, &[b"one", b"two", b"three"]);
        let pristine = std::fs::read(&path).unwrap();
        let full = read_journal(&path).unwrap();
        for len in 0..pristine.len() {
            std::fs::write(&path, &pristine[..len]).unwrap();
            if len < JOURNAL_HEADER_LEN as usize {
                assert!(read_journal(&path).is_err(), "short header at {len} parsed");
                continue;
            }
            let cut = read_journal(&path).unwrap();
            // Every surviving record matches the uncut journal's prefix.
            assert_eq!(
                cut.records[..],
                full.records[..cut.records.len()],
                "divergent prefix at cut {len}"
            );
            assert!(cut.records.len() <= full.records.len());
            // A cut exactly at a record boundary *is* a clean shorter log;
            // any partial record bytes past the boundary must be reported.
            assert_eq!(
                cut.torn_tail,
                len as u64 > cut.clean_len,
                "torn_tail mis-reported at cut {len}"
            );
            assert!(cut.clean_len <= len as u64);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_mid_file_is_typed_corruption() {
        let path = temp_path("midflip");
        write_records(&path, &[b"one", b"two", b"three"]);
        let pristine = std::fs::read(&path).unwrap();
        // Flip a payload bit of the FIRST record: later records still check
        // out, so this cannot be a torn write and must be a typed error.
        let mut bytes = pristine.clone();
        let first_payload = JOURNAL_HEADER_LEN as usize + RECORD_FRAME_LEN as usize;
        bytes[first_payload] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(PersistError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_in_final_record_degrades_to_torn_tail() {
        let path = temp_path("tailflip");
        write_records(&path, &[b"one", b"two"]);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        let contents = read_journal(&path).unwrap();
        assert!(contents.torn_tail);
        assert_eq!(contents.records.len(), 1);
        assert_eq!(contents.records[0].payload, b"one");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicated_record_is_typed_corruption() {
        // A byte-exact copy of a record carries a valid checksum; only the
        // sequence monotonicity check can catch it.
        let path = temp_path("dup");
        write_records(&path, &[b"one", b"two"]);
        let mut bytes = std::fs::read(&path).unwrap();
        let rec1_start = JOURNAL_HEADER_LEN as usize;
        let rec1_end = rec1_start + RECORD_FRAME_LEN as usize + 3;
        let copy = bytes[rec1_start..rec1_end].to_vec();
        bytes.extend_from_slice(&copy);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(PersistError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_corruption_is_typed() {
        let path = temp_path("header");
        write_records(&path, &[b"x"]);
        let pristine = std::fs::read(&path).unwrap();

        let mut bad_magic = pristine.clone();
        bad_magic[0] ^= 0xFF;
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(PersistError::BadMagic { .. })
        ));

        let mut bad_version = pristine.clone();
        bad_version[8..12].copy_from_slice(&7u32.to_le_bytes());
        std::fs::write(&path, &bad_version).unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(PersistError::BadVersion { found: 7, .. })
        ));

        let mut bad_endian = pristine;
        bad_endian[12..16].copy_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bad_endian).unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(PersistError::BadEndianness)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_at_truncates_torn_tail_and_resumes_sequencing() {
        let path = temp_path("resume");
        write_records(&path, &[b"one", b"two"]);
        // Tear the final record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let contents = read_journal(&path).unwrap();
        assert!(contents.torn_tail);
        assert_eq!(contents.records.len(), 1);
        // Resume appending where the clean prefix ends.
        let mut w = JournalWriter::open_at(&path, contents.clean_len, contents.next_seq()).unwrap();
        assert_eq!(w.next_seq(), 2);
        w.append(b"two-again").unwrap();
        let reread = read_journal(&path).unwrap();
        assert!(!reread.torn_tail);
        assert_eq!(reread.records.len(), 2);
        assert_eq!(reread.records[1].payload, b"two-again");
        assert_eq!(reread.records[1].seq, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_at_leaves_an_untorn_journal_untouched() {
        let path = temp_path("untouched");
        write_records(&path, &[b"one", b"two"]);
        let contents = read_journal(&path).unwrap();
        assert!(!contents.torn_tail);
        let modified = || std::fs::metadata(&path).unwrap().modified().unwrap();
        let before = modified();
        // Longer than the file system's clock tick, so a write would show.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut w = JournalWriter::open_at(&path, contents.clean_len, contents.next_seq()).unwrap();
        assert_eq!(modified(), before, "nothing to cut, nothing written");
        w.sync().unwrap();
        assert_eq!(w.append(b"three").unwrap(), 3);
        assert_eq!(read_journal(&path).unwrap().records.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_to_rolls_back_the_last_append() {
        let path = temp_path("rollback");
        let mut w = JournalWriter::create(&path).unwrap();
        w.append(b"keep").unwrap();
        let (len, seq) = (w.byte_len(), w.next_seq());
        w.append(b"discard").unwrap();
        w.truncate_to(len, seq).unwrap();
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.records.len(), 1);
        assert_eq!(contents.records[0].payload, b"keep");
        // The writer keeps appending correctly after the rollback.
        w.append(b"next").unwrap();
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.records.len(), 2);
        assert_eq!(contents.records[1].payload, b"next");
        assert_eq!(contents.records[1].seq, 2);
        std::fs::remove_file(&path).ok();
    }
}
