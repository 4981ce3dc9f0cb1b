//! The write-ahead catalog journal.
//!
//! Every catalog mutation appends one length-prefixed, checksummed,
//! sequence-numbered record to `catalog.wal` and `fsync`s it **before** the
//! mutation is acknowledged to the caller; a batch of mutations (one cache
//! admission, one compaction merge) is one such record. Reopening the
//! catalog replays the journal on top of the last checkpoint
//! (`catalog.json`), truncating a torn tail (a record cut short by a crash,
//! or whose checksum no longer matches) at the first invalid byte. Once the
//! journal grows past a threshold it is folded back into `catalog.json`
//! (checkpoint: write-temp, fsync file and parent directory, rename) and
//! reset — so steady-state mutation cost is an `O(record)` append instead of
//! the `O(catalog)` full rewrite the previous design paid on every mutation.
//!
//! # On-disk format
//!
//! ```text
//! wal      = magic record*
//! magic    = "VSSWAL1\n"                   (8 bytes)
//! record   = len:u32le crc:u32le seq:u64le payload
//! payload  = one JSON-encoded WalRecord    (len bytes)
//! crc      = CRC-32 (IEEE) over seq_le ++ payload
//! ```
//!
//! A record's payload layout is its row in the table that declares
//! `WalRecord`: the `op` tag, then one JSON key per field.
//!
//! `seq` increases by exactly 1 per record; the checkpoint stores the last
//! folded sequence number, so records that were already folded (a crash
//! between checkpoint-rename and journal-reset) are recognized as stale and
//! skipped on replay instead of being applied twice.

use crate::fault::{self, WriteOutcome};
use crate::CatalogError;
use serde::json::Value;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};

/// File name of the journal within the catalog root.
pub const WAL_FILE: &str = "catalog.wal";

const WAL_MAGIC: &[u8; 8] = b"VSSWAL1\n";
const RECORD_HEADER: usize = 4 + 4 + 8;

/// Upper bound on one record's payload; a length prefix beyond this is
/// treated as a torn/corrupt tail, and a larger record is refused at append.
/// A batch carries one record per GOP it touches, so this bounds the GOPs
/// one admission or compaction merge may journal (about 300 k).
const MAX_RECORD_BYTES: u32 = 64 << 20;

// --- CRC-32 (IEEE 802.3) ----------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

fn crc32_of<'a>(bytes: impl IntoIterator<Item = &'a u8>) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// CRC-32 (IEEE) of `bytes` — the checksum a derived GOP's record carries
/// over its file (see the crate's *Durability contract*).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_of(bytes)
}

/// CRC-32 (IEEE) of `seq || payload` — the per-record checksum.
fn record_crc(seq: u64, payload: &[u8]) -> u32 {
    crc32_of(seq.to_le_bytes().iter().chain(payload))
}

// --- records ----------------------------------------------------------------

/// `true` for a field its table row marks `= omit`.
macro_rules! omitted {
    () => { false };
    (omit) => { true };
}

/// Declares [`WalRecord`] from the record table and generates its JSON codec
/// from it: a record is one object whose `op` key is its row's tag and whose
/// other keys are its fields. A field written `name: T = omit` is left out
/// when it encodes to `null` (an `Option` that is `None`) and reads as `None`
/// when it is missing; any other missing field, or an unknown `op`, fails.
macro_rules! records {
    (
        $(#[$meta:meta])*
        $vis:vis enum $record:ident {
            $(
                $(#[$variant_meta:meta])*
                $op:literal $name:ident {
                    $($(#[$field_meta:meta])* $field:ident: $ty:ty $(= $omit:ident)?),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $record {
            $(
                $(#[$variant_meta])*
                $name { $($(#[$field_meta])* $field: $ty),* },
            )*
        }

        impl serde::Serialize for $record {
            fn to_value(&self) -> Value {
                let mut object = BTreeMap::new();
                let op = match self {
                    $($record::$name { $($field),* } => {
                        $(put(&mut object, stringify!($field), $field, omitted!($($omit)?));)*
                        $op
                    })*
                };
                object.insert("op".to_string(), Value::String(op.to_string()));
                Value::Object(object)
            }
        }

        impl serde::Deserialize for $record {
            fn from_value(value: &Value) -> Result<Self, String> {
                let object = value.as_object().ok_or("WAL record is not an object")?;
                let op: String = take(object, "op", false)?;
                Ok(match op.as_str() {
                    $($op => $record::$name {
                        $($field: take(object, stringify!($field), omitted!($($omit)?))?),*
                    },)*
                    other => return Err(format!("unknown WAL op '{other}'")),
                })
            }
        }
    };
}

/// Writes one field into a record's object, unless it is `omit` and `null`.
fn put(object: &mut BTreeMap<String, Value>, key: &str, value: &impl serde::Serialize, omit: bool) {
    let value = value.to_value();
    if !(omit && value == Value::Null) {
        object.insert(key.to_string(), value);
    }
}

/// Reads one field of a record's object; a missing `omit` field reads as `null`.
fn take<T: serde::Deserialize>(object: &BTreeMap<String, Value>, key: &str, omit: bool) -> Result<T, String> {
    let value = match object.get(key) {
        Some(value) => value,
        None if omit => &Value::Null,
        None => return Err(format!("WAL record missing field '{key}'")),
    };
    T::from_value(value).map_err(|e| format!("WAL field '{key}': {e}"))
}

records! {
    /// One journaled catalog mutation. Records carry everything replay needs
    /// to reconstruct the in-memory state deterministically; GOP *data*
    /// never enters the journal (a durable GOP's bytes are synced in their
    /// own file before the record is appended; a derived GOP's record
    /// carries their checksum instead).
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum WalRecord {
        /// A logical video was created.
        "create-video" CreateVideo {
            /// Logical video name.
            name: String,
            /// Requested budget as a multiple of the original's size, if any.
            budget_multiple: Option<f64>,
        },
        /// A logical video and all its physical data were deleted.
        "delete-video" DeleteVideo {
            /// Logical video name.
            name: String,
        },
        /// A physical video was registered.
        "add-physical" AddPhysical {
            /// Owning logical video.
            video: String,
            /// Assigned physical video id.
            id: u64,
            /// Width in pixels.
            width: u32,
            /// Height in pixels.
            height: u32,
            /// Frame rate in frames per second.
            frame_rate: f64,
            /// Codec name.
            codec: String,
            /// Whether this is the original representation.
            is_original: bool,
            /// Quality (MSE) bound relative to the original.
            mse_bound: f64,
        },
        /// A physical video was removed.
        "remove-physical" RemovePhysical {
            /// Owning logical video.
            video: String,
            /// Physical video id.
            id: u64,
        },
        /// A GOP file was persisted (or, by compaction, linked in from
        /// another physical video) and its metadata recorded.
        "append-gop" AppendGop {
            /// Owning logical video.
            video: String,
            /// Owning physical video id.
            physical: u64,
            /// GOP index (also the file stem).
            index: u64,
            /// Start time in seconds.
            start_time: f64,
            /// End time in seconds.
            end_time: f64,
            /// Frames in the GOP.
            frame_count: usize,
            /// Bytes on disk.
            byte_len: u64,
            /// Deferred-compression level, if applied.
            lossless_level: Option<u8>,
            /// Access-clock value at append time (keeps recency monotonic
            /// across replay).
            clock: u64,
            /// CRC-32 of the file's bytes for a derived (unsynced) GOP;
            /// absent for a durable one.
            crc: Option<u32> = omit,
        },
        /// A GOP file's stored form changed in place: deferred compression
        /// rewrote its bytes, or eviction hardened a derived GOP (synced it
        /// and cleared its checksum).
        "rewrite-gop" RewriteGop {
            /// Owning logical video.
            video: String,
            /// Owning physical video id.
            physical: u64,
            /// GOP index.
            index: u64,
            /// New size on disk.
            byte_len: u64,
            /// New deferred-compression level.
            lossless_level: Option<u8>,
            /// New checksum, as in [`WalRecord::AppendGop`].
            crc: Option<u32> = omit,
        },
        /// A GOP file and its record were removed (eviction).
        "remove-gop" RemoveGop {
            /// Owning logical video.
            video: String,
            /// Owning physical video id.
            physical: u64,
            /// GOP index.
            index: u64,
        },
        /// A logical video's storage budget was set.
        "set-budget" SetBudget {
            /// Logical video name.
            video: String,
            /// New budget (`None` reverts to "unset").
            bytes: Option<u64>,
        },
        /// A physical video's quality bound was updated (compaction).
        "set-mse-bound" SetMseBound {
            /// Owning logical video.
            video: String,
            /// Physical video id.
            physical: u64,
            /// New MSE bound.
            bound: f64,
        },
        /// Several mutations journaled as one record, so replay applies all
        /// of them or none (a cache admission, a compaction merge).
        "batch" Batch {
            /// The mutations, in the order they apply.
            records: Vec<WalRecord>,
        },
    }
}

// --- replay -----------------------------------------------------------------

/// What [`scan`] found in a journal's bytes.
pub(crate) struct WalScan {
    /// Fully valid `(seq, record)` pairs, in file order.
    pub records: Vec<(u64, WalRecord)>,
    /// Byte offset at which valid data ends. Anything past it is a torn
    /// tail to be truncated.
    pub valid_len: u64,
}

/// Parses a journal's bytes into records, stopping at the first torn or
/// checksum-invalid record (everything before it is intact — CRC-verified —
/// so truncating at `valid_len` loses nothing that was ever acknowledged
/// durable and then not superseded).
///
/// Returns a typed [`CatalogError::Corrupt`] only for damage that cannot be
/// explained by a torn write: a bad magic header, or a CRC-valid record whose
/// payload fails to parse (bytes intact but meaningless — a software bug or
/// tampering, where silently dropping data would be wrong).
pub(crate) fn scan(bytes: &[u8]) -> Result<WalScan, CatalogError> {
    if bytes.len() < WAL_MAGIC.len() {
        // File cut short inside the magic: torn at creation, nothing to keep.
        return Ok(WalScan { records: Vec::new(), valid_len: 0 });
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(CatalogError::Corrupt("WAL magic header mismatch".into()));
    }
    let mut records = Vec::new();
    let mut offset = WAL_MAGIC.len();
    loop {
        let remaining = &bytes[offset..];
        if remaining.len() < RECORD_HEADER {
            break; // torn (or clean end) inside a record header
        }
        let len = u32::from_le_bytes(remaining[..4].try_into().expect("4 bytes"));
        if len > MAX_RECORD_BYTES {
            break; // implausible length: treat as torn tail
        }
        let crc = u32::from_le_bytes(remaining[4..8].try_into().expect("4 bytes"));
        let seq = u64::from_le_bytes(remaining[8..16].try_into().expect("8 bytes"));
        let total = RECORD_HEADER + len as usize;
        if remaining.len() < total {
            break; // payload cut short
        }
        let payload = &remaining[RECORD_HEADER..total];
        if record_crc(seq, payload) != crc {
            break; // bit rot or torn overwrite: stop here
        }
        let text = std::str::from_utf8(payload)
            .map_err(|_| CatalogError::Corrupt("WAL payload is not UTF-8".into()))?;
        let record: WalRecord = serde_json::from_str(text)
            .map_err(|e| CatalogError::Corrupt(format!("WAL record {seq}: {e}")))?;
        records.push((seq, record));
        offset += total;
    }
    Ok(WalScan { records, valid_len: offset as u64 })
}

// --- the append handle ------------------------------------------------------

/// Process-wide journal telemetry (`wal.journal.*`), cached so the durable
/// mutation path never takes the registry lock.
mod metrics {
    use std::sync::OnceLock;

    /// End-to-end latency of one durable record append (encode + write +
    /// fsync).
    pub(super) fn append() -> &'static vss_telemetry::Histogram {
        static H: OnceLock<&'static vss_telemetry::Histogram> = OnceLock::new();
        H.get_or_init(|| vss_telemetry::histogram("wal.journal.append_ns"))
    }

    /// Latency of the `fsync` that makes one appended frame durable.
    pub(super) fn fsync() -> &'static vss_telemetry::Histogram {
        static H: OnceLock<&'static vss_telemetry::Histogram> = OnceLock::new();
        H.get_or_init(|| vss_telemetry::histogram("wal.journal.fsync_ns"))
    }

    /// Checkpoints taken (journal folded into the catalog and reset).
    pub(super) fn checkpoints() -> &'static vss_telemetry::Counter {
        static C: OnceLock<&'static vss_telemetry::Counter> = OnceLock::new();
        C.get_or_init(|| vss_telemetry::counter("wal.journal.checkpoints"))
    }
}

/// The open journal: an append handle plus the bookkeeping needed to keep
/// appends atomic-or-rolled-back from the caller's point of view.
#[derive(Debug)]
pub(crate) struct Wal {
    path: PathBuf,
    file: fs::File,
    /// Bytes of fully acknowledged records (file length, barring a failed
    /// append that could not be rolled back — see `poisoned`).
    len: u64,
    /// Set when a failed append could not be truncated away; every further
    /// append is refused so the torn tail cannot be buried under newer
    /// records (replay would drop those records with the tail).
    poisoned: bool,
}

impl Wal {
    /// Opens (creating or truncating as directed) the journal at
    /// `root/catalog.wal` for appending. `valid_len` is the end of valid
    /// data as determined by [`scan`]; anything past it is truncated now.
    pub(crate) fn open(root: &Path, valid_len: Option<u64>) -> io::Result<Self> {
        let path = root.join(WAL_FILE);
        let fresh = !path.exists();
        let mut file = fs::OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let mut len = file.metadata()?.len();
        if fresh || len < WAL_MAGIC.len() as u64 {
            // New journal (or one torn inside its header): start clean.
            file.set_len(0)?;
            file.seek(io::SeekFrom::Start(0))?;
            file.write_all(WAL_MAGIC)?;
            fault::on_sync(&path)?;
            file.sync_all()?;
            crate::durable::fsync_dir(root)?;
            len = WAL_MAGIC.len() as u64;
        } else if let Some(valid) = valid_len {
            if valid < len {
                file.set_len(valid)?;
                fault::on_sync(&path)?;
                file.sync_all()?;
                len = valid;
            }
        }
        file.seek(io::SeekFrom::Start(len))?;
        Ok(Self { path, file, len, poisoned: false })
    }

    /// Bytes currently in the journal (records + header).
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Appends one record and `fsync`s it. On success the record is durable.
    /// On failure the journal is rolled back to its pre-append length (or
    /// poisoned if even that fails), so a failed mutation can never leave a
    /// half-written record for later appends to bury.
    pub(crate) fn append(&mut self, seq: u64, record: &WalRecord) -> io::Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "catalog WAL is poisoned by an earlier unrecoverable append failure",
            ));
        }
        let payload = serde_json::to_string(record)
            .map_err(|e| io::Error::other(format!("WAL encode: {e}")))?
            .into_bytes();
        if payload.len() > MAX_RECORD_BYTES as usize {
            // Replay would discard it as a torn tail, and everything after it.
            return Err(io::Error::other(format!("WAL record of {} bytes", payload.len())));
        }
        let mut frame = Vec::with_capacity(RECORD_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&record_crc(seq, &payload).to_le_bytes());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&payload);
        let started = std::time::Instant::now();
        let outcome = self.append_frame(&frame);
        metrics::append().record_duration(started.elapsed());
        match outcome {
            Ok(()) => {
                self.len += frame.len() as u64;
                Ok(())
            }
            Err(error) => {
                // Roll the file back to the last acknowledged record.
                let rolled_back = self
                    .file
                    .set_len(self.len)
                    .and_then(|()| self.file.seek(io::SeekFrom::Start(self.len)))
                    .is_ok();
                if !rolled_back {
                    self.poisoned = true;
                }
                Err(error)
            }
        }
    }

    fn append_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        match fault::on_write(&self.path, frame.len())? {
            WriteOutcome::Proceed => self.file.write_all(frame)?,
            WriteOutcome::Tear(keep) => {
                self.file.write_all(&frame[..keep])?;
                let _ = self.file.sync_all();
                return Err(io::Error::other(format!(
                    "injected fault: WAL append torn after {keep} bytes"
                )));
            }
            WriteOutcome::Fail => unreachable!("on_write reports failures as errors"),
        }
        fault::on_sync(&self.path)?;
        let started = std::time::Instant::now();
        let outcome = self.file.sync_all();
        metrics::fsync().record_duration(started.elapsed());
        outcome
    }

    /// Refuses every further append until the journal is reopened.
    pub(crate) fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Resets the journal to just its header (after a checkpoint folded the
    /// records into `catalog.json`).
    pub(crate) fn reset(&mut self) -> io::Result<()> {
        metrics::checkpoints().incr();
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        self.file.seek(io::SeekFrom::Start(WAL_MAGIC.len() as u64))?;
        fault::on_sync(&self.path)?;
        self.file.sync_all()?;
        self.len = WAL_MAGIC.len() as u64;
        self.poisoned = false;
        Ok(())
    }
}

/// Reads a journal file fully (empty result if it does not exist).
pub(crate) fn read_wal_bytes(root: &Path) -> io::Result<Option<Vec<u8>>> {
    let path = root.join(WAL_FILE);
    if !path.exists() {
        return Ok(None);
    }
    let mut bytes = Vec::new();
    fs::File::open(&path)?.read_to_end(&mut bytes)?;
    Ok(Some(bytes))
}

/// What `Catalog::open` found and fixed while bringing the store back to a
/// consistent state: journal replay (with any torn tail truncated) followed
/// by reconciliation of the catalog against the GOP files actually on disk.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Whether a `catalog.json` checkpoint existed and was loaded.
    pub checkpoint_loaded: bool,
    /// Journal records applied on top of the checkpoint.
    pub wal_records_replayed: usize,
    /// Journal records skipped because the checkpoint already contained
    /// them (a crash between checkpoint and journal reset).
    pub wal_records_stale: usize,
    /// Bytes of torn journal tail truncated.
    pub torn_bytes_truncated: u64,
    /// GOP files (and leftover `.tmp` files) on disk with no catalog entry,
    /// deleted.
    pub orphan_files_removed: usize,
    /// Directories on disk belonging to no catalog entry, deleted.
    pub orphan_dirs_removed: usize,
    /// Catalog GOP records dropped because their file was missing,
    /// unreadable or, for a derived GOP, failed its checksum.
    pub gop_records_dropped: usize,
    /// Catalog GOP records whose size metadata was repaired from a valid
    /// on-disk file (a crash between a GOP rewrite and its journal record).
    pub gop_records_healed: usize,
}

impl RecoveryReport {
    /// True if recovery changed the catalog state (as opposed to merely
    /// replaying the journal).
    pub fn repaired_anything(&self) -> bool {
        self.orphan_files_removed > 0
            || self.orphan_dirs_removed > 0
            || self.gop_records_dropped > 0
            || self.gop_records_healed > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateVideo { name: "v".into(), budget_multiple: None },
            WalRecord::CreateVideo { name: "w".into(), budget_multiple: Some(2.5) },
            WalRecord::AddPhysical {
                video: "v".into(),
                id: 0,
                width: 64,
                height: 48,
                frame_rate: 30.0,
                codec: "h264".into(),
                is_original: true,
                mse_bound: 0.0,
            },
            WalRecord::AppendGop {
                video: "v".into(),
                physical: 0,
                index: 0,
                start_time: 0.0,
                end_time: 1.0,
                frame_count: 30,
                byte_len: 1234,
                lossless_level: Some(3),
                clock: 7,
                crc: None,
            },
            WalRecord::RewriteGop {
                video: "v".into(),
                physical: 0,
                index: 0,
                byte_len: 99,
                lossless_level: None,
                crc: None,
            },
            WalRecord::Batch {
                records: vec![
                    WalRecord::AppendGop {
                        video: "v".into(),
                        physical: 1,
                        index: 4,
                        start_time: 1.0,
                        end_time: 2.0,
                        frame_count: 3,
                        byte_len: 5678,
                        lossless_level: None,
                        clock: 8,
                        crc: Some(0xDEAD_BEEF),
                    },
                    WalRecord::RewriteGop {
                        video: "v".into(),
                        physical: 1,
                        index: 4,
                        byte_len: 99,
                        lossless_level: Some(2),
                        crc: Some(7),
                    },
                    WalRecord::RemoveGop { video: "v".into(), physical: 1, index: 4 },
                ],
            },
            WalRecord::SetBudget { video: "v".into(), bytes: Some(1 << 20) },
            WalRecord::SetMseBound { video: "v".into(), physical: 0, bound: 1.5 },
            WalRecord::RemoveGop { video: "v".into(), physical: 0, index: 0 },
            WalRecord::RemovePhysical { video: "v".into(), id: 0 },
            WalRecord::DeleteVideo { name: "v".into() },
            WalRecord::SetBudget { video: "v".into(), bytes: None },
        ]
    }

    /// The exact JSON of each [`sample_records`] entry as journals already
    /// on disk hold it (captured before the record table existed): a string
    /// that moves breaks replay of every store written before it. A durable
    /// GOP's records carry no `crc` key, and the shim writes a `u32`,
    /// `usize` or `u8` as a float (`"width":64.0`).
    const GOLDEN: [&str; 12] = [
        r#"{"budget_multiple":null,"name":"v","op":"create-video"}"#,
        r#"{"budget_multiple":2.5,"name":"w","op":"create-video"}"#,
        r#"{"codec":"h264","frame_rate":30.0,"height":48.0,"id":0,"is_original":true,"mse_bound":0.0,"op":"add-physical","video":"v","width":64.0}"#,
        r#"{"byte_len":1234,"clock":7,"end_time":1.0,"frame_count":30.0,"index":0,"lossless_level":3.0,"op":"append-gop","physical":0,"start_time":0.0,"video":"v"}"#,
        r#"{"byte_len":99,"index":0,"lossless_level":null,"op":"rewrite-gop","physical":0,"video":"v"}"#,
        r#"{"op":"batch","records":[{"byte_len":5678,"clock":8,"crc":3735928559.0,"end_time":2.0,"frame_count":3.0,"index":4,"lossless_level":null,"op":"append-gop","physical":1,"start_time":1.0,"video":"v"},{"byte_len":99,"crc":7.0,"index":4,"lossless_level":2.0,"op":"rewrite-gop","physical":1,"video":"v"},{"index":4,"op":"remove-gop","physical":1,"video":"v"}]}"#,
        r#"{"bytes":1048576,"op":"set-budget","video":"v"}"#,
        r#"{"bound":1.5,"op":"set-mse-bound","physical":0,"video":"v"}"#,
        r#"{"index":0,"op":"remove-gop","physical":0,"video":"v"}"#,
        r#"{"id":0,"op":"remove-physical","video":"v"}"#,
        r#"{"name":"v","op":"delete-video"}"#,
        r#"{"bytes":null,"op":"set-budget","video":"v"}"#,
    ];

    #[test]
    fn every_record_encodes_to_its_pinned_json_and_back() {
        let records = sample_records();
        assert_eq!(records.len(), GOLDEN.len());
        for (record, golden) in records.iter().zip(GOLDEN) {
            assert_eq!(serde_json::to_string(record).unwrap(), golden);
            let back: WalRecord = serde_json::from_str(golden).unwrap();
            assert_eq!(&back, record, "decode of {golden}");
        }
    }

    /// Each golden record, and each record nested in a batch, as a JSON map.
    fn golden_objects() -> Vec<BTreeMap<String, Value>> {
        let mut objects = Vec::new();
        for golden in GOLDEN {
            let value: Value = serde_json::from_str(golden).unwrap();
            let nested = value.get("records").and_then(Value::as_array).cloned().unwrap_or_default();
            for value in std::iter::once(value).chain(nested) {
                objects.push(value.as_object().unwrap().clone());
            }
        }
        objects
    }

    /// Replay refuses a record that lacks any field but a GOP's `crc`, which
    /// a durable GOP's record leaves out and which then reads as `None`.
    #[test]
    fn a_missing_field_fails_to_decode_except_an_omitted_crc() {
        use serde::{Deserialize, Serialize};
        for object in golden_objects() {
            for key in object.keys().filter(|key| *key != "op") {
                let mut cut = object.clone();
                cut.remove(key);
                let cut = Value::Object(cut);
                match WalRecord::from_value(&cut) {
                    Ok(record) => {
                        assert_eq!(key, "crc", "decoded without '{key}': {record:?}");
                        assert_eq!(record.to_value(), cut, "a missing crc reads as None");
                    }
                    Err(error) => {
                        assert_ne!(key, "crc");
                        assert_eq!(error, format!("WAL record missing field '{key}'"));
                    }
                }
            }
        }
    }

    #[test]
    fn an_unknown_op_fails_to_decode() {
        use serde::Deserialize;
        for mut object in golden_objects() {
            object.insert("op".into(), Value::String("append-frame".into()));
            let error = WalRecord::from_value(&Value::Object(object)).unwrap_err();
            assert_eq!(error, "unknown WAL op 'append-frame'");
        }
    }

    fn encode(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        for (i, record) in records.iter().enumerate() {
            let payload = serde_json::to_string(record).unwrap().into_bytes();
            let seq = (i + 1) as u64;
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&record_crc(seq, &payload).to_le_bytes());
            bytes.extend_from_slice(&seq.to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
        bytes
    }

    #[test]
    fn scan_reads_back_every_record() {
        let records = sample_records();
        let bytes = encode(&records);
        let scanned = scan(&bytes).unwrap();
        assert_eq!(scanned.valid_len, bytes.len() as u64);
        assert_eq!(scanned.records.len(), records.len());
        for (i, (seq, record)) in scanned.records.iter().enumerate() {
            assert_eq!(*seq, (i + 1) as u64);
            assert_eq!(record, &records[i]);
        }
    }

    #[test]
    fn truncation_at_any_offset_yields_a_valid_prefix() {
        let records = sample_records();
        let bytes = encode(&records);
        let mut boundaries = vec![WAL_MAGIC.len()];
        let full = scan(&bytes).unwrap();
        assert_eq!(full.records.len(), records.len());
        // Record end offsets, for checking the prefix property.
        let mut offset = WAL_MAGIC.len();
        for record in &records {
            let payload = serde_json::to_string(record).unwrap().len();
            offset += RECORD_HEADER + payload;
            boundaries.push(offset);
        }
        for cut in 0..bytes.len() {
            let scanned = scan(&bytes[..cut]).unwrap();
            // The number of complete records before the cut:
            let expected = boundaries.iter().filter(|&&b| b <= cut).count().saturating_sub(1);
            assert_eq!(scanned.records.len(), expected, "cut at {cut}");
            assert!(scanned.valid_len <= cut as u64);
            for (i, (_, record)) in scanned.records.iter().enumerate() {
                assert_eq!(record, &records[i], "prefix intact at cut {cut}");
            }
        }
    }

    #[test]
    fn bit_flips_never_panic_and_never_corrupt_the_prefix() {
        let records = sample_records();
        let bytes = encode(&records);
        for position in 0..bytes.len() {
            for bit in [0u8, 3, 7] {
                let mut mutated = bytes.clone();
                mutated[position] ^= 1 << bit;
                match scan(&mutated) {
                    Ok(scanned) => {
                        // Every surviving record must equal the original at
                        // its position: a flip can only truncate, never
                        // silently alter content (CRC guards payloads; a
                        // flip inside JSON that still CRC-matches is
                        // impossible since the CRC covers the payload).
                        for (i, (_, record)) in scanned.records.iter().enumerate() {
                            assert_eq!(record, &records[i], "flip at {position} bit {bit}");
                        }
                    }
                    Err(CatalogError::Corrupt(_)) => {} // typed, acceptable
                    Err(other) => panic!("unexpected error kind: {other}"),
                }
            }
        }
    }

    #[test]
    fn random_garbage_is_rejected_or_empty_never_a_panic() {
        // Deterministic xorshift garbage of assorted lengths.
        let mut x = 0x12345678u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in [0usize, 1, 7, 8, 9, 16, 64, 500] {
            let garbage: Vec<u8> = (0..len).map(|_| step() as u8).collect();
            match scan(&garbage) {
                Ok(scanned) => assert!(scanned.records.is_empty() || !garbage.is_empty()),
                Err(CatalogError::Corrupt(_)) => {}
                Err(other) => panic!("unexpected error kind: {other}"),
            }
        }
    }

    #[test]
    fn implausible_length_prefix_is_a_torn_tail_not_an_allocation() {
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        bytes.extend_from_slice(&[0u8; 12]);
        let scanned = scan(&bytes).unwrap();
        assert!(scanned.records.is_empty());
        assert_eq!(scanned.valid_len, WAL_MAGIC.len() as u64);
    }

    #[test]
    fn wrong_magic_is_a_typed_error() {
        assert!(matches!(scan(b"NOTAWAL!rest"), Err(CatalogError::Corrupt(_))));
    }
}
