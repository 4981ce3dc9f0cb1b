//! # vss-catalog
//!
//! On-disk layout, metadata catalog and temporal index for the VSS
//! reproduction.
//!
//! The paper's prototype persists GOPs as individual files beneath a
//! per-physical-video directory (e.g. `traffic/1920x1080r30.hevc/1`) and
//! keeps a non-clustered temporal index in SQLite mapping time to the file
//! holding the associated visual information (paper Figure 2). This crate
//! provides the same mechanism:
//!
//! * [`Catalog`] — the metadata store: a write-ahead journal
//!   (`catalog.wal`) of mutation records folded periodically into a JSON
//!   checkpoint (`catalog.json`), standing in for SQLite's transactional
//!   guarantees.
//! * [`records`] — the record types ([`LogicalVideoRecord`],
//!   [`PhysicalVideoRecord`], [`GopRecord`]) with temporal-index queries.
//! * GOP file I/O — writing, reading and deleting the per-GOP files laid out
//!   under `<root>/<video>/<WxH>r<fps>.<codec>.<id>/<gop#>.gop`.
//! * [`durable`] — the write primitives of the two GOP durability classes
//!   below, and [`fault`] — the injection seam the crash-recovery suite uses
//!   to tear and fail them.
//!
//! Policy (what to cache, what to evict, how to answer reads) lives above
//! this crate in `vss-core`; the catalog only records and retrieves state.
//!
//! # Durability contract
//!
//! Every GOP belongs to one of two classes, decided per GOP:
//!
//! * **Durable** — the GOPs of a logical video's *original* physical video,
//!   which is what writes, appends and sinks acknowledge. Their bytes are
//!   written temp-then-rename with the file and its directory synced, and
//!   their journal record is appended and `fsync`ed, before the mutator
//!   returns. After any crash, including a power cut, they are there
//!   byte-for-byte.
//! * **Derived** — the GOPs of every other physical video: materialized
//!   views, which the storage budget may evict at any moment and a read can
//!   always recompute. Their bytes are written once, at their final name,
//!   with no `fsync`; their record carries a CRC-32 of the bytes instead
//!   ([`GopRecord::crc`]). [`Catalog::open`] verifies that checksum and drops
//!   a GOP whose file is missing or does not match, so after a power cut a
//!   view may lose pages or vanish, but it is never served torn. A kill -9
//!   loses nothing: the page cache keeps the bytes.
//!
//! The eviction guard relies only on durable bytes. A page at or above the
//! baseline quality may be evicted only because another such copy covers it;
//! before that eviction, [`Catalog::harden_gops`] syncs the cover's derived
//! GOPs over the page's interval and journals their checksums as cleared,
//! so they are durable from then on.
//!
//! Mutations are journaled one record each, except inside a batch
//! ([`Catalog::begin_batch`]): a cache admission or a compaction merge
//! stages its mutations in memory and [`Catalog::commit_batch`] journals them
//! as **one** record with one `fsync`, which replay applies whole or not at
//! all. Files a mutation removes are unlinked only once its record is
//! durable (journal first, then delete), and a file a live [`Pin`] may still
//! read stays until that pin drops. A batch that fails to reach the
//! journal returns a typed error and leaves the in-memory catalog equal to
//! what a reopen would load. After any crash, reopening yields a consistent
//! store in which:
//!
//! * **Every acknowledged mutation survives**, with the derived GOPs'
//!   caveat above. Replay-on-open reapplies journaled records on top of the
//!   last checkpoint.
//! * **Unacknowledged work disappears cleanly.** A torn journal tail is
//!   truncated at the last valid record; GOP files with no catalog entry
//!   (the crash hit before their record was journaled) are deleted; catalog
//!   entries whose file is missing, unreadable or fails its checksum are
//!   dropped; leftover `*.tmp` files are removed. The [`RecoveryReport`]
//!   returned by [`Catalog::recovery_report`] itemizes everything replayed
//!   and repaired, and the repairs are checkpointed, so a second open finds
//!   nothing to repair.
//! * **What is *not* covered:** recency clocks ([`GopRecord::last_access`])
//!   are advisory and journaled only at GOP append and checkpoint time —
//!   touches between checkpoints may be forgotten, which can change
//!   eviction *order* but never correctness. Every other piece of catalog
//!   state changes only through a journaled mutator.
//!
//! The journal turns the previous O(catalog) rewrite-per-mutation into an
//! O(record) append; [`Catalog::persist`] folds the journal into the
//! checkpoint only once it grows past a threshold
//! ([`Catalog::set_checkpoint_threshold`]), and never while a batch is open.

#![warn(missing_docs)]

pub mod durable;
pub mod fault;
pub mod records;
pub mod wal;

pub use records::{AtomicClock, GopRecord, LogicalVideoRecord, PhysicalVideoId, PhysicalVideoRecord};
pub use wal::RecoveryReport;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use parking_lot::Mutex;
use std::sync::Arc;
use wal::{Wal, WalRecord};

/// Errors produced by catalog operations.
#[derive(Debug)]
pub enum CatalogError {
    /// An I/O error while reading or writing catalog state or GOP files.
    /// Injected faults surface here too, so callers can treat a simulated
    /// disk failure exactly like a real one.
    Io(std::io::Error),
    /// The persisted catalog state (checkpoint or journal) could not be
    /// parsed, or a journal record could not be applied.
    Corrupt(String),
    /// A logical video with this name already exists.
    VideoExists(String),
    /// No logical video with this name exists.
    VideoNotFound(String),
    /// No physical video with this id exists in the named logical video.
    PhysicalNotFound(PhysicalVideoId),
    /// No GOP with this index exists in the physical video.
    GopNotFound {
        /// Physical video id.
        physical: PhysicalVideoId,
        /// GOP index.
        index: u64,
    },
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::Io(e) => write!(f, "catalog I/O error: {e}"),
            CatalogError::Corrupt(msg) => write!(f, "corrupt catalog: {msg}"),
            CatalogError::VideoExists(name) => write!(f, "video '{name}' already exists"),
            CatalogError::VideoNotFound(name) => write!(f, "video '{name}' not found"),
            CatalogError::PhysicalNotFound(id) => write!(f, "physical video {id} not found"),
            CatalogError::GopNotFound { physical, index } => {
                write!(f, "GOP {index} of physical video {physical} not found")
            }
        }
    }
}

impl std::error::Error for CatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CatalogError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CatalogError {
    fn from(e: std::io::Error) -> Self {
        CatalogError::Io(e)
    }
}

#[derive(Debug, Default, serde::Serialize, serde::Deserialize)]
struct CatalogState {
    /// Monotonically increasing id generator for physical videos.
    next_physical_id: PhysicalVideoId,
    /// Logical access clock used for recency bookkeeping. Atomic so
    /// read-only sessions can tick it through a shared reference.
    access_clock: AtomicClock,
    /// Logical videos by name.
    videos: BTreeMap<String, LogicalVideoRecord>,
    /// Sequence number of the last journal record folded into this
    /// checkpoint; replay skips records at or below it.
    journal_seq: u64,
}

impl CatalogState {
    /// Applies one journal record to the in-memory state. Pure metadata —
    /// no file I/O — so the live mutation path and replay-on-open share it
    /// and cannot drift apart.
    fn apply(&mut self, record: &WalRecord) -> Result<(), String> {
        match record {
            WalRecord::CreateVideo { name, budget_multiple } => {
                if self.videos.contains_key(name) {
                    return Err(format!("create of existing video '{name}'"));
                }
                let record = LogicalVideoRecord {
                    budget_multiple: *budget_multiple,
                    ..LogicalVideoRecord::new(name.clone())
                };
                self.videos.insert(name.clone(), record);
            }
            WalRecord::DeleteVideo { name } => {
                if self.videos.remove(name).is_none() {
                    return Err(format!("delete of unknown video '{name}'"));
                }
            }
            WalRecord::AddPhysical {
                video,
                id,
                width,
                height,
                frame_rate,
                codec,
                is_original,
                mse_bound,
            } => {
                let record = self
                    .videos
                    .get_mut(video)
                    .ok_or_else(|| format!("add-physical to unknown video '{video}'"))?;
                if record.physical_by_id(*id).is_some() {
                    return Err(format!("add-physical with duplicate id {id}"));
                }
                record.physical.push(PhysicalVideoRecord {
                    id: *id,
                    width: *width,
                    height: *height,
                    frame_rate: *frame_rate,
                    codec: codec.clone(),
                    is_original: *is_original,
                    mse_bound: *mse_bound,
                    gops: Vec::new(),
                });
                self.next_physical_id = self.next_physical_id.max(id + 1);
            }
            WalRecord::RemovePhysical { video, id } => {
                let record = self
                    .videos
                    .get_mut(video)
                    .ok_or_else(|| format!("remove-physical from unknown video '{video}'"))?;
                let Some(pos) = record.physical.iter().position(|p| p.id == *id) else {
                    return Err(format!("remove of unknown physical video {id}"));
                };
                record.physical.remove(pos);
            }
            WalRecord::AppendGop {
                video,
                physical,
                index,
                start_time,
                end_time,
                frame_count,
                byte_len,
                lossless_level,
                clock,
                crc,
            } => {
                let target = self
                    .videos
                    .get_mut(video)
                    .ok_or_else(|| format!("append-gop to unknown video '{video}'"))?
                    .physical_by_id_mut(*physical)
                    .ok_or_else(|| format!("append-gop to unknown physical video {physical}"))?;
                if target.gops.last().is_some_and(|g| g.index >= *index) {
                    return Err(format!("append-gop with non-monotonic index {index}"));
                }
                target.gops.push(GopRecord {
                    index: *index,
                    start_time: *start_time,
                    end_time: *end_time,
                    frame_count: *frame_count,
                    byte_len: *byte_len,
                    lossless_level: *lossless_level,
                    last_access: AtomicClock::new(*clock),
                    crc: *crc,
                });
                self.access_clock.advance_to(*clock);
            }
            WalRecord::RewriteGop { video, physical, index, byte_len, lossless_level, crc } => {
                let gop = self
                    .videos
                    .get_mut(video)
                    .ok_or_else(|| format!("rewrite-gop in unknown video '{video}'"))?
                    .physical_by_id_mut(*physical)
                    .ok_or_else(|| format!("rewrite-gop in unknown physical video {physical}"))?
                    .gop_by_index_mut(*index)
                    .ok_or_else(|| format!("rewrite of unknown GOP {index}"))?;
                gop.byte_len = *byte_len;
                gop.lossless_level = *lossless_level;
                gop.crc = *crc;
            }
            WalRecord::RemoveGop { video, physical, index } => {
                let target = self
                    .videos
                    .get_mut(video)
                    .ok_or_else(|| format!("remove-gop in unknown video '{video}'"))?
                    .physical_by_id_mut(*physical)
                    .ok_or_else(|| format!("remove-gop in unknown physical video {physical}"))?;
                let Some(pos) = target.gop_position(*index) else {
                    return Err(format!("remove of unknown GOP {index}"));
                };
                target.gops.remove(pos);
            }
            WalRecord::SetBudget { video, bytes } => {
                self.videos
                    .get_mut(video)
                    .ok_or_else(|| format!("set-budget on unknown video '{video}'"))?
                    .storage_budget_bytes = *bytes;
            }
            WalRecord::SetMseBound { video, physical, bound } => {
                self.videos
                    .get_mut(video)
                    .ok_or_else(|| format!("set-mse-bound on unknown video '{video}'"))?
                    .physical_by_id_mut(*physical)
                    .ok_or_else(|| format!("set-mse-bound on unknown physical video {physical}"))?
                    .mse_bound = *bound;
            }
            WalRecord::Batch { records } => {
                for record in records {
                    self.apply(record)?;
                }
            }
        }
        Ok(())
    }
}

/// The VSS metadata catalog and GOP file store rooted at a directory.
#[derive(Debug)]
pub struct Catalog {
    root: PathBuf,
    state: CatalogState,
    wal: Wal,
    /// Sequence number of the last record appended to the journal.
    seq: u64,
    checkpoint_threshold: u64,
    recovery: RecoveryReport,
    /// Mutations staged since [`begin_batch`](Self::begin_batch).
    batch: Option<Batch>,
    pins: Arc<Mutex<Pins>>,
}

/// Keeps every file the catalog referenced when it was taken on disk until
/// it drops, whatever the catalog commits meanwhile, as a LevelDB iterator
/// holds its `Version`. A stream holds one from its snapshot to its last
/// read; a crash forgets pins, and the next open removes what they kept.
#[derive(Debug)]
pub struct Pin(Arc<Mutex<Pins>>, u64);

/// Live pins, numbered in the order they were taken, and the unlinks that
/// wait for them, each with the newest pin number when it was asked for.
#[derive(Debug, Default)]
struct Pins {
    newest: u64,
    live: BTreeSet<u64>,
    queued: Vec<(u64, PathBuf)>,
}

impl Drop for Pin {
    fn drop(&mut self) {
        let mut pins = self.0.lock();
        pins.live.remove(&self.1);
        let oldest = pins.live.first().copied().unwrap_or(u64::MAX);
        // Under the lock, so a path being reused is never unlinked after it.
        // A failure leaves debris that the next open removes.
        for (_, path) in pins.queued.extract_if(.., |(newest, _)| *newest < oldest) {
            let _ = unlink(&path);
        }
    }
}

/// What an open batch has applied in memory but not yet journaled.
#[derive(Debug, Default)]
struct Batch {
    records: Vec<WalRecord>,
    /// Files and directories its records removed, unlinked once it commits.
    unlink: Vec<PathBuf>,
}

const CATALOG_FILE: &str = "catalog.json";

/// Journal size (bytes) past which [`Catalog::persist`] folds it into the
/// checkpoint. Large enough that steady-state mutation cost is an append,
/// small enough that replay-on-open stays fast.
pub const DEFAULT_CHECKPOINT_THRESHOLD: u64 = 256 * 1024;

/// Removes a file or a directory tree, if it is there.
fn unlink(path: &Path) -> std::io::Result<()> {
    match fs::symlink_metadata(path) {
        Ok(meta) if meta.is_dir() => fs::remove_dir_all(path),
        Ok(_) => fs::remove_file(path),
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(error) => Err(error),
    }
}

impl Catalog {
    /// Opens (or initializes) a catalog rooted at `root`, running crash
    /// recovery: load the `catalog.json` checkpoint, replay `catalog.wal`
    /// on top (truncating any torn tail), then reconcile the resulting
    /// state against the GOP files actually on disk, verifying every
    /// derived GOP's checksum. See the crate-level *Durability contract*.
    /// What recovery found is available from
    /// [`recovery_report`](Self::recovery_report).
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, CatalogError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let mut recovery = RecoveryReport::default();

        let checkpoint = root.join(CATALOG_FILE);
        let mut state: CatalogState = if checkpoint.exists() {
            recovery.checkpoint_loaded = true;
            let data = fs::read_to_string(&checkpoint)?;
            serde_json::from_str(&data).map_err(|e| CatalogError::Corrupt(e.to_string()))?
        } else {
            CatalogState::default()
        };

        let mut seq = state.journal_seq;
        let valid_len = match wal::read_wal_bytes(&root)? {
            Some(bytes) => {
                let scanned = wal::scan(&bytes)?;
                recovery.torn_bytes_truncated = bytes.len() as u64 - scanned.valid_len;
                for (record_seq, record) in &scanned.records {
                    if *record_seq <= seq {
                        recovery.wal_records_stale += 1;
                        continue;
                    }
                    state.apply(record).map_err(|e| {
                        CatalogError::Corrupt(format!("WAL replay (record {record_seq}): {e}"))
                    })?;
                    seq = *record_seq;
                    recovery.wal_records_replayed += 1;
                }
                Some(scanned.valid_len)
            }
            None => None,
        };
        let wal = Wal::open(&root, valid_len)?;

        reconcile(&root, &mut state, &mut recovery)?;

        let mut catalog = Self {
            root,
            state,
            wal,
            seq,
            checkpoint_threshold: DEFAULT_CHECKPOINT_THRESHOLD,
            recovery,
            batch: None,
            pins: Arc::default(),
        };
        if catalog.recovery.repaired_anything() {
            // Make the repaired state durable so a crash right after this
            // open cannot resurrect the orphans we just removed.
            catalog.checkpoint()?;
        }
        Ok(catalog)
    }

    /// The catalog's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// What crash recovery replayed and repaired when this catalog was
    /// opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Bytes currently in the write-ahead journal.
    pub fn journal_bytes(&self) -> u64 {
        self.wal.len()
    }

    /// Sets the journal size past which [`persist`](Self::persist) folds it
    /// into the checkpoint.
    pub fn set_checkpoint_threshold(&mut self, bytes: u64) {
        self.checkpoint_threshold = bytes;
    }

    /// Folds the journal into the checkpoint if it has grown past the
    /// threshold.
    ///
    /// Every mutation is already durable the moment its mutator (or its
    /// batch's [`commit_batch`](Self::commit_batch)) returns, so this is
    /// *not* required for durability — it only bounds replay time on the
    /// next open. Kept as the historical name because every write path
    /// already calls it at transaction boundaries.
    pub fn persist(&mut self) -> Result<(), CatalogError> {
        if self.wal.len() >= self.checkpoint_threshold {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Unconditionally folds the journal into `catalog.json` (write-temp,
    /// fsync file and parent directory, rename) and resets the journal.
    /// Also captures the one piece of state the journal does not carry:
    /// recency clocks. Does nothing while a batch is open: its mutations
    /// are not journaled yet, so they must not reach the checkpoint either.
    pub fn checkpoint(&mut self) -> Result<(), CatalogError> {
        if self.batch.is_some() {
            return Ok(());
        }
        self.state.journal_seq = self.seq;
        let serialized = serde_json::to_string_pretty(&self.state)
            .map_err(|e| CatalogError::Corrupt(e.to_string()))?;
        durable::write_atomic(&self.root.join(CATALOG_FILE), serialized.as_bytes())?;
        // A crash here (checkpoint renamed, journal not yet reset) is safe:
        // replay skips records at or below `journal_seq`.
        self.wal.reset()?;
        Ok(())
    }

    /// Journals one record and applies it to the in-memory state. Outside a
    /// batch the append is fsynced — the durability point of the mutation;
    /// inside one the record is staged for [`commit_batch`](Self::commit_batch).
    ///
    /// Callers validate preconditions *before* journaling, so `apply`
    /// failing afterwards means the validation and apply logic disagree —
    /// surfaced as [`CatalogError::Corrupt`] rather than papered over.
    fn commit(&mut self, record: WalRecord) -> Result<(), CatalogError> {
        if self.batch.is_none() {
            self.wal.append(self.seq + 1, &record)?;
            self.seq += 1;
        }
        self.state
            .apply(&record)
            .map_err(|e| CatalogError::Corrupt(format!("applying journaled record: {e}")))?;
        if let Some(batch) = &mut self.batch {
            batch.records.push(record);
        }
        Ok(())
    }

    /// The one unlink of a file or directory a committed mutation dropped:
    /// inside a batch, once the batch is durable; otherwise now, or, while a
    /// pin taken before it lives, once the last such pin drops.
    fn unlink_after_commit(&mut self, path: PathBuf) -> Result<(), CatalogError> {
        let pins = &mut *self.pins.lock();
        match &mut self.batch {
            Some(batch) => batch.unlink.push(path),
            None if pins.live.is_empty() => unlink(&path)?,
            None => pins.queued.push((pins.newest, path)),
        }
        Ok(())
    }

    /// Pins the files the catalog references now (see [`Pin`]).
    pub fn pin(&self) -> Pin {
        let mut pins = self.pins.lock();
        pins.newest += 1;
        let seq = pins.newest;
        pins.live.insert(seq);
        Pin(Arc::clone(&self.pins), seq)
    }

    /// Unlinks `path` at once if it waits for a pin: it is about to be
    /// created anew, and no pin's drop may remove the new file.
    fn reuse(&self, path: &Path) -> std::io::Result<()> {
        let mut pins = self.pins.lock();
        match pins.queued.iter().position(|(_, queued)| queued == path) {
            Some(at) => unlink(&pins.queued.swap_remove(at).1),
            None => Ok(()),
        }
    }

    // --- batches -----------------------------------------------------------

    /// Opens a batch: until [`commit_batch`](Self::commit_batch), mutators
    /// apply to the in-memory state at once (so later ones see earlier
    /// ones), but journal nothing and unlink nothing.
    ///
    /// # Panics
    ///
    /// If a batch is already open: batches do not nest, and a second one
    /// would drop the first one's staged records.
    pub fn begin_batch(&mut self) {
        assert!(self.batch.is_none(), "catalog batches do not nest");
        self.batch = Some(Batch::default());
    }

    /// Journals the open batch as one record with one `fsync`, then unlinks
    /// the files its mutations removed. If the record does not reach the
    /// journal, the in-memory catalog is reloaded from disk — exactly what a
    /// reopen would load — and the error is returned.
    pub fn commit_batch(&mut self) -> Result<(), CatalogError> {
        let Some(Batch { records, unlink: removed }) = self.batch.take() else {
            return Ok(());
        };
        if !records.is_empty() {
            if let Err(error) = self.wal.append(self.seq + 1, &WalRecord::Batch { records }) {
                self.reload()?;
                return Err(error.into());
            }
            self.seq += 1;
        }
        for path in removed {
            self.unlink_after_commit(path)?;
        }
        Ok(())
    }

    /// Abandons the open batch. Nothing of it was journaled, so the
    /// in-memory catalog is reloaded from disk, as after a failed
    /// [`commit_batch`](Self::commit_batch).
    pub fn abort_batch(&mut self) -> Result<(), CatalogError> {
        self.batch = None;
        self.reload()
    }

    /// Replaces the in-memory catalog with what [`open`](Self::open) loads
    /// from disk now (recovery sweeps what an abandoned batch wrote). If
    /// even that fails, the journal refuses every further append, so no
    /// record can land on top of state the journal does not hold.
    fn reload(&mut self) -> Result<(), CatalogError> {
        match Catalog::open(&self.root) {
            Ok(fresh) => {
                let (threshold, pins) = (self.checkpoint_threshold, Arc::clone(&self.pins));
                *self = fresh;
                (self.checkpoint_threshold, self.pins) = (threshold, pins);
                Ok(())
            }
            Err(error) => {
                self.wal.poison();
                Err(error)
            }
        }
    }

    /// Advances and returns the logical access clock (used for LRU
    /// sequence numbers). Takes `&self`: recency bookkeeping is the one
    /// catalog mutation read-only sessions perform, and it goes through
    /// atomics so a shared lock suffices.
    pub fn tick(&self) -> u64 {
        self.state.access_clock.increment()
    }

    /// The current value of the access clock.
    pub fn clock(&self) -> u64 {
        self.state.access_clock.get()
    }

    // --- logical videos ---------------------------------------------------

    /// Creates a new logical video whose budget is the store's default.
    /// Fails if the name is already in use.
    pub fn create_video(&mut self, name: &str) -> Result<(), CatalogError> {
        self.create_video_with_multiple(name, None)
    }

    /// Creates a new logical video, journaling the budget multiple it was
    /// requested with (see [`LogicalVideoRecord::budget_multiple`]). Fails if
    /// the name is already in use.
    pub fn create_video_with_multiple(
        &mut self,
        name: &str,
        budget_multiple: Option<f64>,
    ) -> Result<(), CatalogError> {
        if self.state.videos.contains_key(name) {
            return Err(CatalogError::VideoExists(name.to_string()));
        }
        // Directory first: if the journal append below fails (or we crash
        // between the two), an unreferenced directory is reconciled away on
        // the next open; the reverse order could journal a video whose
        // directory was never created.
        self.reuse(&self.root.join(name))?;
        fs::create_dir_all(self.root.join(name))?;
        durable::fsync_dir(&self.root)?;
        self.commit(WalRecord::CreateVideo { name: name.to_string(), budget_multiple })
    }

    /// Deletes a logical video and all of its on-disk data.
    pub fn delete_video(&mut self, name: &str) -> Result<(), CatalogError> {
        if !self.state.videos.contains_key(name) {
            return Err(CatalogError::VideoNotFound(name.to_string()));
        }
        // Journal first: deletion of the files is idempotent (recovery
        // removes directories the catalog no longer references), whereas
        // deleting files before the journal entry could strand a journaled
        // video without data.
        self.commit(WalRecord::DeleteVideo { name: name.to_string() })?;
        self.unlink_after_commit(self.root.join(name))
    }

    /// Names of all logical videos.
    pub fn video_names(&self) -> Vec<String> {
        self.state.videos.keys().cloned().collect()
    }

    /// Borrows a logical video record.
    pub fn video(&self, name: &str) -> Result<&LogicalVideoRecord, CatalogError> {
        self.state.videos.get(name).ok_or_else(|| CatalogError::VideoNotFound(name.to_string()))
    }

    /// True if a logical video with this name exists.
    pub fn contains_video(&self, name: &str) -> bool {
        self.state.videos.contains_key(name)
    }

    /// Durably sets (or clears) a logical video's storage budget.
    pub fn set_storage_budget(
        &mut self,
        video: &str,
        bytes: Option<u64>,
    ) -> Result<(), CatalogError> {
        if !self.state.videos.contains_key(video) {
            return Err(CatalogError::VideoNotFound(video.to_string()));
        }
        self.commit(WalRecord::SetBudget { video: video.to_string(), bytes })
    }

    /// Durably updates a physical video's accumulated-MSE bound (used by
    /// compaction when re-encode chains lengthen).
    pub fn set_mse_bound(
        &mut self,
        video: &str,
        physical: PhysicalVideoId,
        bound: f64,
    ) -> Result<(), CatalogError> {
        if self.video(video)?.physical_by_id(physical).is_none() {
            return Err(CatalogError::PhysicalNotFound(physical));
        }
        self.commit(WalRecord::SetMseBound { video: video.to_string(), physical, bound })
    }

    // --- physical videos ---------------------------------------------------

    /// Registers a new (initially GOP-less) physical video under a logical
    /// video and creates its directory. Returns the assigned id. Only an
    /// original's directory is synced: a view's GOPs are derived, so its
    /// directory need not outlive a power cut either.
    #[allow(clippy::too_many_arguments)]
    pub fn add_physical(
        &mut self,
        video: &str,
        width: u32,
        height: u32,
        frame_rate: f64,
        codec: &str,
        is_original: bool,
        mse_bound: f64,
    ) -> Result<PhysicalVideoId, CatalogError> {
        if !self.state.videos.contains_key(video) {
            return Err(CatalogError::VideoNotFound(video.to_string()));
        }
        let id = self.state.next_physical_id;
        let record = WalRecord::AddPhysical {
            video: video.to_string(),
            id,
            width,
            height,
            frame_rate,
            codec: codec.to_string(),
            is_original,
            mse_bound,
        };
        let dir_name = format!("{width}x{height}r{frame_rate}.{codec}.{id}");
        let video_dir = self.root.join(video);
        fs::create_dir_all(video_dir.join(dir_name))?;
        if is_original {
            durable::fsync_dir(&video_dir)?;
        }
        self.commit(record)?;
        Ok(id)
    }

    /// Removes a physical video's record and files.
    pub fn remove_physical(&mut self, video: &str, id: PhysicalVideoId) -> Result<(), CatalogError> {
        let record = self.video(video)?;
        let Some(physical) = record.physical_by_id(id) else {
            return Err(CatalogError::PhysicalNotFound(id));
        };
        let dir = self.physical_dir(video, physical);
        self.commit(WalRecord::RemovePhysical { video: video.to_string(), id })?;
        self.unlink_after_commit(dir)
    }

    // --- GOP files ---------------------------------------------------------

    fn physical_dir(&self, video: &str, physical: &PhysicalVideoRecord) -> PathBuf {
        self.root.join(video).join(physical.directory_name())
    }

    /// Path of a GOP file.
    pub fn gop_path(&self, video: &str, physical: &PhysicalVideoRecord, index: u64) -> PathBuf {
        self.physical_dir(video, physical).join(format!("{index}.gop"))
    }

    /// Looks up a physical video and one of its GOPs.
    fn gop_record(
        &self,
        video: &str,
        physical_id: PhysicalVideoId,
        index: u64,
    ) -> Result<(&PhysicalVideoRecord, &GopRecord), CatalogError> {
        let physical = self
            .video(video)?
            .physical_by_id(physical_id)
            .ok_or(CatalogError::PhysicalNotFound(physical_id))?;
        let gop = physical
            .gop_by_index(index)
            .ok_or(CatalogError::GopNotFound { physical: physical_id, index })?;
        Ok((physical, gop))
    }

    /// Writes a GOP's bytes to disk and records its metadata. The GOP is
    /// appended to the physical video's GOP list (callers write GOPs in
    /// temporal order). Its durability class follows the physical video: an
    /// original's GOP — bytes and metadata both — survives any crash once
    /// this returns; a view's GOP is derived (see the crate-level
    /// *Durability contract*).
    #[allow(clippy::too_many_arguments)]
    pub fn append_gop(
        &mut self,
        video: &str,
        physical_id: PhysicalVideoId,
        start_time: f64,
        end_time: f64,
        frame_count: usize,
        data: &[u8],
        lossless_level: Option<u8>,
    ) -> Result<u64, CatalogError> {
        let record = self.video(video)?;
        let physical = record
            .physical_by_id(physical_id)
            .ok_or(CatalogError::PhysicalNotFound(physical_id))?;
        let index = physical.gops.last().map_or(0, |g| g.index + 1);
        let dir = self.physical_dir(video, physical);
        fs::create_dir_all(&dir)?;
        // Data first, journal second: a crash in between leaves an orphan
        // file (reconciled away — the append was never acknowledged), never
        // a catalog entry without data.
        let path = dir.join(format!("{index}.gop"));
        self.reuse(&path)?;
        let crc = if physical.is_original {
            durable::write_atomic(&path, data)?;
            None
        } else {
            durable::write_derived(&path, data)?;
            Some(wal::crc32(data))
        };
        let clock = self.tick();
        self.commit(WalRecord::AppendGop {
            video: video.to_string(),
            physical: physical_id,
            index,
            start_time,
            end_time,
            frame_count,
            byte_len: data.len() as u64,
            lossless_level,
            clock,
            crc,
        })?;
        Ok(index)
    }

    /// Reads a GOP file's bytes.
    pub fn read_gop(
        &self,
        video: &str,
        physical_id: PhysicalVideoId,
        index: u64,
    ) -> Result<Vec<u8>, CatalogError> {
        let (physical, _) = self.gop_record(video, physical_id, index)?;
        Ok(fs::read(self.gop_path(video, physical, index))?)
    }

    /// Overwrites a GOP file's bytes and updates its recorded size and
    /// lossless level (used by deferred compression). The rewrite is atomic:
    /// a crash leaves either the old or the new version, never a mix. It
    /// keeps the GOP's class: a durable GOP is rewritten with `fsync`s, a
    /// derived one without, under a fresh checksum.
    pub fn rewrite_gop(
        &mut self,
        video: &str,
        physical_id: PhysicalVideoId,
        index: u64,
        data: &[u8],
        lossless_level: Option<u8>,
    ) -> Result<(), CatalogError> {
        let (physical, gop) = self.gop_record(video, physical_id, index)?;
        let path = self.gop_path(video, physical, index);
        let crc = match gop.crc {
            None => {
                durable::write_atomic(&path, data)?;
                None
            }
            Some(_) => {
                durable::replace_derived(&path, data)?;
                Some(wal::crc32(data))
            }
        };
        self.commit(WalRecord::RewriteGop {
            video: video.to_string(),
            physical: physical_id,
            index,
            byte_len: data.len() as u64,
            lossless_level,
            crc,
        })
    }

    /// Makes the derived GOPs of a physical video that overlap
    /// `[start, end)` durable: syncs their files and the directories that
    /// lead to them, then journals their checksums as cleared. Eviction
    /// calls this on a page's cover before the page goes, so that the last
    /// baseline-quality copy of a range is always durable. Returns how many
    /// GOPs were hardened.
    pub fn harden_gops(
        &mut self,
        video: &str,
        physical_id: PhysicalVideoId,
        start: f64,
        end: f64,
    ) -> Result<usize, CatalogError> {
        let physical = self
            .video(video)?
            .physical_by_id(physical_id)
            .ok_or(CatalogError::PhysicalNotFound(physical_id))?;
        let mut records = Vec::new();
        for gop in physical.gops.iter().filter(|g| g.crc.is_some() && g.overlaps(start, end)) {
            durable::fsync_file(&self.gop_path(video, physical, gop.index))?;
            records.push(WalRecord::RewriteGop {
                video: video.to_string(),
                physical: physical_id,
                index: gop.index,
                byte_len: gop.byte_len,
                lossless_level: gop.lossless_level,
                crc: None,
            });
        }
        if !records.is_empty() {
            self.sync_physical_dir(video, physical)?;
        }
        let hardened = records.len();
        for record in records {
            self.commit(record)?;
        }
        Ok(hardened)
    }

    /// Syncs a physical video's directory and its parent, so the files in
    /// it and the directory itself (a view's is created unsynced) survive a
    /// power cut.
    fn sync_physical_dir(&self, video: &str, physical: &PhysicalVideoRecord) -> Result<(), CatalogError> {
        durable::fsync_dir(&self.physical_dir(video, physical))?;
        durable::fsync_dir(&self.root.join(video))?;
        Ok(())
    }

    /// Moves every GOP of physical video `source` to the end of `target`, in
    /// order, and removes `source` — the paper's compaction. No byte is
    /// copied: each file is hard-linked under the target's next index, and
    /// the source's links go with its directory once the move is journaled
    /// (so a move that never commits leaves the source whole). A moved GOP
    /// keeps its class; if any is durable, the target's directory is synced
    /// before the move is journaled.
    pub fn move_gops(
        &mut self,
        video: &str,
        source: PhysicalVideoId,
        target: PhysicalVideoId,
    ) -> Result<(), CatalogError> {
        let record = self.video(video)?;
        let from = record.physical_by_id(source).ok_or(CatalogError::PhysicalNotFound(source))?;
        let to = record.physical_by_id(target).ok_or(CatalogError::PhysicalNotFound(target))?;
        let next = to.gops.last().map_or(0, |g| g.index + 1);
        let mut records = Vec::with_capacity(from.gops.len());
        for (index, gop) in (next..).zip(&from.gops) {
            let link = self.gop_path(video, to, index);
            self.reuse(&link)?;
            fs::hard_link(self.gop_path(video, from, gop.index), link)?;
            records.push(WalRecord::AppendGop {
                video: video.to_string(),
                physical: target,
                index,
                start_time: gop.start_time,
                end_time: gop.end_time,
                frame_count: gop.frame_count,
                byte_len: gop.byte_len,
                lossless_level: gop.lossless_level,
                clock: self.tick(),
                crc: gop.crc,
            });
        }
        if from.gops.iter().any(|g| g.crc.is_none()) {
            self.sync_physical_dir(video, to)?;
        }
        for record in records {
            self.commit(record)?;
        }
        self.remove_physical(video, source)
    }

    /// Deletes a GOP file and its record.
    pub fn remove_gop(
        &mut self,
        video: &str,
        physical_id: PhysicalVideoId,
        index: u64,
    ) -> Result<(), CatalogError> {
        let (physical, _) = self.gop_record(video, physical_id, index)?;
        let path = self.gop_path(video, physical, index);
        self.commit(WalRecord::RemoveGop { video: video.to_string(), physical: physical_id, index })?;
        self.unlink_after_commit(path)
    }

    /// Marks a GOP as accessed "now" (recency bookkeeping for eviction).
    ///
    /// Takes `&self`: the clocks are [`AtomicClock`]s, so concurrent readers
    /// holding a shared lock can all bump recency without serializing on a
    /// write lock. Racing touches keep the latest timestamp (`fetch_max`).
    /// Not journaled (see the crate-level durability contract): a touch is
    /// durable only after the next checkpoint.
    pub fn touch_gop(
        &self,
        video: &str,
        physical_id: PhysicalVideoId,
        index: u64,
    ) -> Result<(), CatalogError> {
        let clock = self.tick();
        let (_, gop) = self.gop_record(video, physical_id, index)?;
        gop.last_access.advance_to(clock);
        Ok(())
    }

    /// Bytes used by all physical representations of a logical video.
    pub fn bytes_used(&self, video: &str) -> Result<u64, CatalogError> {
        Ok(self.video(video)?.bytes_used())
    }
}

// --- recovery reconciliation ------------------------------------------------

/// Whether an existing GOP file may keep its record, repairing the record
/// where the file is one complete generation of the GOP. A durable GOP whose
/// size agrees is trusted; a derived one must also match its checksum. A
/// size that disagrees means the crash hit between an atomic rewrite and its
/// journal record: the file is kept if it parses, and its size, level and
/// (for a derived GOP) checksum are taken from it.
fn verify_gop_file(path: &Path, len: u64, gop: &mut GopRecord, report: &mut RecoveryReport) -> bool {
    if len == gop.byte_len && gop.crc.is_none() {
        return true; // fast path: size agrees, trust the record
    }
    let Ok(bytes) = fs::read(path) else { return false };
    if len == gop.byte_len {
        return gop.crc == Some(wal::crc32(&bytes));
    }
    let (stored, crc) = (bytes.len(), gop.crc.map(|_| wal::crc32(&bytes)));
    // Torn, truncated or foreign bytes do not read as a page. One that
    // reads to more bytes than are stored is deferred-compressed.
    let Ok(page) = vss_codec::read_page(bytes) else { return false };
    gop.lossless_level = match page.byte_len() == stored {
        true => None,
        false => gop.lossless_level.or(Some(vss_codec::lossless::MIN_LEVEL)),
    };
    gop.byte_len = len;
    gop.crc = crc;
    report.gop_records_healed += 1;
    true
}

/// Brings the catalog state and the files on disk back into agreement after
/// a crash. The store root is owned by the catalog: any file or directory
/// it does not reference is treated as debris from an interrupted operation
/// and removed.
fn reconcile(
    root: &Path,
    state: &mut CatalogState,
    report: &mut RecoveryReport,
) -> Result<(), CatalogError> {
    // Pass 1: walk the catalog, verifying every referenced file.
    for video in state.videos.values_mut() {
        let video_dir = root.join(&video.name);
        for physical in &mut video.physical {
            let dir = video_dir.join(physical.directory_name());
            // A referenced directory can be missing if a power cut lost a
            // view's unsynced directory, or a crash interrupted
            // `delete`-after-journal cleanup of a *different* generation;
            // recreate it so the store stays navigable.
            fs::create_dir_all(&dir)?;
            physical.gops.retain_mut(|gop| {
                let path = dir.join(format!("{}.gop", gop.index));
                let Ok(meta) = fs::metadata(&path) else {
                    report.gop_records_dropped += 1;
                    return false;
                };
                let keep = verify_gop_file(&path, meta.len(), gop, report);
                if !keep {
                    let _ = fs::remove_file(&path);
                    report.gop_records_dropped += 1;
                }
                keep
            });
        }
    }

    // Pass 2: walk the disk, deleting anything the catalog does not
    // reference (orphan GOPs from un-journaled appends, leftover `.tmp`
    // files, directories of deleted videos).
    for entry in fs::read_dir(root)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.file_type()?.is_dir() {
            match state.videos.get(&name) {
                Some(video) => reconcile_video_dir(&entry.path(), video, report)?,
                None => {
                    fs::remove_dir_all(entry.path())?;
                    report.orphan_dirs_removed += 1;
                }
            }
        } else if name != CATALOG_FILE && name != wal::WAL_FILE {
            fs::remove_file(entry.path())?;
            report.orphan_files_removed += 1;
        }
    }
    Ok(())
}

fn reconcile_video_dir(
    dir: &Path,
    video: &LogicalVideoRecord,
    report: &mut RecoveryReport,
) -> Result<(), CatalogError> {
    let physical_dirs: BTreeMap<String, &PhysicalVideoRecord> =
        video.physical.iter().map(|p| (p.directory_name(), p)).collect();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.file_type()?.is_dir() {
            match physical_dirs.get(&name) {
                Some(physical) => reconcile_physical_dir(&entry.path(), physical, report)?,
                None => {
                    fs::remove_dir_all(entry.path())?;
                    report.orphan_dirs_removed += 1;
                }
            }
        } else {
            fs::remove_file(entry.path())?;
            report.orphan_files_removed += 1;
        }
    }
    Ok(())
}

fn reconcile_physical_dir(
    dir: &Path,
    physical: &PhysicalVideoRecord,
    report: &mut RecoveryReport,
) -> Result<(), CatalogError> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let referenced = name
            .strip_suffix(".gop")
            .and_then(|stem| stem.parse::<u64>().ok())
            .is_some_and(|index| physical.gop_by_index(index).is_some());
        if !referenced {
            if entry.file_type()?.is_dir() {
                fs::remove_dir_all(entry.path())?;
                report.orphan_dirs_removed += 1;
            } else {
                fs::remove_file(entry.path())?;
                report.orphan_files_removed += 1;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vss-catalog-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A parsable GOP container for tests that exercise reconciliation
    /// (reconcile only trusts files whose size matches the record or whose
    /// content classifies as a valid GOP).
    fn gop_bytes(frames: usize) -> Vec<u8> {
        let frame_infos = (0..frames)
            .map(|i| vss_codec::FrameInfo { is_intra: i == 0, offset: i * 4, len: 4 })
            .collect();
        vss_codec::EncodedGop::new(
            vss_codec::Codec::Raw(vss_frame::PixelFormat::Rgb8),
            4,
            4,
            30.0,
            10,
            frame_infos,
            vec![0u8; frames * 4],
        )
        .to_bytes()
    }

    #[test]
    fn create_and_reload_catalog() {
        let root = temp_root("reload");
        let payload = gop_bytes(3);
        {
            let mut cat = Catalog::open(&root).unwrap();
            cat.create_video("traffic").unwrap();
            let id = cat.add_physical("traffic", 1920, 1080, 30.0, "hevc", true, 0.0).unwrap();
            cat.append_gop("traffic", id, 0.0, 1.0, 30, &payload, None).unwrap();
            cat.persist().unwrap();
        }
        let cat = Catalog::open(&root).unwrap();
        assert!(cat.contains_video("traffic"));
        let video = cat.video("traffic").unwrap();
        assert_eq!(video.physical.len(), 1);
        assert_eq!(video.physical[0].gops.len(), 1);
        assert_eq!(cat.read_gop("traffic", video.physical[0].id, 0).unwrap(), payload);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn duplicate_video_names_are_rejected() {
        let root = temp_root("dup");
        let mut cat = Catalog::open(&root).unwrap();
        cat.create_video("v").unwrap();
        assert!(matches!(cat.create_video("v"), Err(CatalogError::VideoExists(_))));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_entities_produce_specific_errors() {
        let root = temp_root("missing");
        let mut cat = Catalog::open(&root).unwrap();
        assert!(matches!(cat.video("nope"), Err(CatalogError::VideoNotFound(_))));
        assert!(matches!(cat.bytes_used("nope"), Err(CatalogError::VideoNotFound(_))));
        assert!(matches!(
            cat.set_storage_budget("nope", Some(1)),
            Err(CatalogError::VideoNotFound(_))
        ));
        cat.create_video("v").unwrap();
        assert!(matches!(
            cat.append_gop("v", 99, 0.0, 1.0, 30, b"x", None),
            Err(CatalogError::PhysicalNotFound(99))
        ));
        assert!(matches!(cat.set_mse_bound("v", 42, 1.0), Err(CatalogError::PhysicalNotFound(42))));
        let id = cat.add_physical("v", 64, 64, 30.0, "h264", true, 0.0).unwrap();
        assert!(matches!(
            cat.read_gop("v", id, 5),
            Err(CatalogError::GopNotFound { index: 5, .. })
        ));
        assert!(matches!(cat.remove_physical("v", 7), Err(CatalogError::PhysicalNotFound(7))));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn gop_lifecycle_updates_accounting() {
        let root = temp_root("lifecycle");
        let mut cat = Catalog::open(&root).unwrap();
        cat.create_video("v").unwrap();
        let id = cat.add_physical("v", 64, 64, 30.0, "h264", true, 0.0).unwrap();
        cat.append_gop("v", id, 0.0, 1.0, 30, &[0u8; 100], None).unwrap();
        cat.append_gop("v", id, 1.0, 2.0, 30, &[0u8; 50], None).unwrap();
        assert_eq!(cat.bytes_used("v").unwrap(), 150);
        cat.rewrite_gop("v", id, 1, &[0u8; 20], Some(5)).unwrap();
        assert_eq!(cat.bytes_used("v").unwrap(), 120);
        let video = cat.video("v").unwrap();
        assert_eq!(video.physical[0].gops[1].lossless_level, Some(5));
        cat.remove_gop("v", id, 0).unwrap();
        assert_eq!(cat.bytes_used("v").unwrap(), 20);
        assert!(!cat.gop_path("v", &cat.video("v").unwrap().physical[0], 0).exists());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn touch_advances_recency() {
        let root = temp_root("touch");
        let mut cat = Catalog::open(&root).unwrap();
        cat.create_video("v").unwrap();
        let id = cat.add_physical("v", 64, 64, 30.0, "h264", true, 0.0).unwrap();
        cat.append_gop("v", id, 0.0, 1.0, 30, b"a", None).unwrap();
        let before = cat.video("v").unwrap().physical[0].gops[0].last_access.get();
        // Touching goes through a shared reference (atomic recency).
        let shared: &Catalog = &cat;
        shared.touch_gop("v", id, 0).unwrap();
        let after = cat.video("v").unwrap().physical[0].gops[0].last_access.get();
        assert!(after > before);
        assert!(cat.clock() >= after);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn delete_video_removes_files() {
        let root = temp_root("delete");
        let mut cat = Catalog::open(&root).unwrap();
        cat.create_video("v").unwrap();
        let id = cat.add_physical("v", 64, 64, 30.0, "h264", true, 0.0).unwrap();
        cat.append_gop("v", id, 0.0, 1.0, 30, b"a", None).unwrap();
        assert!(root.join("v").exists());
        cat.delete_video("v").unwrap();
        assert!(!root.join("v").exists());
        assert!(!cat.contains_video("v"));
        assert!(matches!(cat.delete_video("v"), Err(CatalogError::VideoNotFound(_))));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_catalog_json_is_reported() {
        let root = temp_root("corrupt");
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join(CATALOG_FILE), b"{ not json").unwrap();
        assert!(matches!(Catalog::open(&root), Err(CatalogError::Corrupt(_))));
        fs::remove_dir_all(&root).unwrap();
    }

    /// A checkpoint without the journal position it was folded at cannot
    /// say which journal records it already holds: refused, not read as 0.
    #[test]
    fn a_checkpoint_without_journal_seq_is_refused() {
        let root = temp_root("noseq");
        {
            let mut cat = Catalog::open(&root).unwrap();
            cat.create_video("v").unwrap();
            cat.checkpoint().unwrap();
        }
        let path = root.join(CATALOG_FILE);
        let text = fs::read_to_string(&path).unwrap();
        let mut state: serde_json::Value = serde_json::from_str(&text).unwrap();
        let serde_json::Value::Object(fields) = &mut state else {
            panic!("checkpoint is not an object")
        };
        assert!(fields.remove("journal_seq").is_some());
        fs::write(&path, serde_json::to_string_pretty(&state).unwrap()).unwrap();
        match Catalog::open(&root) {
            Err(CatalogError::Corrupt(message)) => assert!(message.contains("journal_seq"), "{message}"),
            other => panic!("expected a corrupt checkpoint, got {other:?}"),
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn remove_physical_deletes_directory() {
        let root = temp_root("rmphys");
        let mut cat = Catalog::open(&root).unwrap();
        cat.create_video("v").unwrap();
        let id = cat.add_physical("v", 64, 64, 30.0, "h264", false, 1.5).unwrap();
        cat.append_gop("v", id, 0.0, 1.0, 30, b"a", None).unwrap();
        let dir = root.join("v").join(cat.video("v").unwrap().physical[0].directory_name());
        assert!(dir.exists());
        cat.remove_physical("v", id).unwrap();
        assert!(!dir.exists());
        assert!(cat.video("v").unwrap().physical.is_empty());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_pin_keeps_what_it_saw_until_it_drops_and_no_longer() {
        let root = temp_root("pin");
        let mut cat = Catalog::open(&root).unwrap();
        cat.create_video("v").unwrap();
        let id = cat.add_physical("v", 64, 64, 30.0, "h264", false, 0.0).unwrap();
        for start in [0.0, 1.0, 2.0] {
            cat.append_gop("v", id, start, start + 1.0, 30, b"a", None).unwrap();
        }
        let path = |index: u64| root.join("v").join(format!("64x64r30.h264.{id}/{index}.gop"));
        let older = cat.pin();
        cat.remove_gop("v", id, 0).unwrap();
        let newer = cat.pin();
        // A batch's unlinks wait too.
        cat.begin_batch();
        cat.remove_gop("v", id, 2).unwrap();
        cat.commit_batch().unwrap();
        assert!(path(0).exists() && path(2).exists());
        // The freed tail index is reused: its file is replaced at once.
        assert_eq!(cat.append_gop("v", id, 2.0, 3.0, 30, b"new", None).unwrap(), 2);
        assert_eq!(fs::read(path(2)).unwrap(), b"new");
        drop(older);
        assert!(!path(0).exists(), "an unlink waits only for the pins taken before it");
        drop(newer);
        assert_eq!(fs::read(path(2)).unwrap(), b"new", "a reused path is not unlinked");
        cat.remove_gop("v", id, 1).unwrap();
        assert!(!path(1).exists(), "with no pin alive an unlink is immediate");
        fs::remove_dir_all(&root).unwrap();
    }

    // --- durability behavior ------------------------------------------------

    #[test]
    fn mutations_survive_reopen_without_an_explicit_persist() {
        let root = temp_root("wal-survive");
        {
            let mut cat = Catalog::open(&root).unwrap();
            cat.create_video_with_multiple("v", Some(2.5)).unwrap();
            let id = cat.add_physical("v", 64, 48, 30.0, "rgb", true, 0.0).unwrap();
            cat.append_gop("v", id, 0.0, 1.0, 30, &gop_bytes(2), None).unwrap();
            cat.set_storage_budget("v", Some(12345)).unwrap();
            // No persist(): the journal alone must carry the state.
        }
        let cat = Catalog::open(&root).unwrap();
        assert_eq!(cat.recovery_report().wal_records_replayed, 4);
        let video = cat.video("v").unwrap();
        assert_eq!(video.budget_multiple, Some(2.5));
        assert_eq!(video.storage_budget_bytes, Some(12345));
        assert_eq!(video.physical[0].gops.len(), 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn checkpoint_folds_and_resets_the_journal() {
        let root = temp_root("checkpoint");
        let mut cat = Catalog::open(&root).unwrap();
        cat.create_video("v").unwrap();
        assert!(cat.journal_bytes() > 8, "journal holds a record past its magic header");
        cat.checkpoint().unwrap();
        let after = cat.journal_bytes();
        cat.create_video("w").unwrap();
        assert!(cat.journal_bytes() > after, "journal grows again after checkpoint");
        drop(cat);
        let cat = Catalog::open(&root).unwrap();
        assert!(cat.recovery_report().checkpoint_loaded);
        assert_eq!(cat.recovery_report().wal_records_replayed, 1, "only post-checkpoint record");
        assert!(cat.contains_video("v") && cat.contains_video("w"));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn persist_checkpoints_only_past_the_threshold() {
        let root = temp_root("threshold");
        let mut cat = Catalog::open(&root).unwrap();
        cat.set_checkpoint_threshold(u64::MAX);
        cat.create_video("v").unwrap();
        let journal = cat.journal_bytes();
        cat.persist().unwrap();
        assert_eq!(cat.journal_bytes(), journal, "below threshold: no checkpoint");
        cat.set_checkpoint_threshold(1);
        cat.persist().unwrap();
        assert!(cat.journal_bytes() < journal, "past threshold: journal folded");
        assert!(root.join(CATALOG_FILE).exists());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_journal_tail_is_truncated_without_losing_prior_records() {
        let root = temp_root("torn-tail");
        {
            let mut cat = Catalog::open(&root).unwrap();
            cat.create_video("v").unwrap();
            cat.set_storage_budget("v", Some(777)).unwrap();
        }
        // Simulate a crash mid-append: garbage half-record at the tail.
        let wal_path = root.join(wal::WAL_FILE);
        let mut bytes = fs::read(&wal_path).unwrap();
        let intact = bytes.len();
        bytes.extend_from_slice(&[0x55; 13]);
        fs::write(&wal_path, &bytes).unwrap();
        let cat = Catalog::open(&root).unwrap();
        assert_eq!(cat.recovery_report().torn_bytes_truncated, 13);
        assert_eq!(cat.recovery_report().wal_records_replayed, 2);
        assert_eq!(cat.video("v").unwrap().storage_budget_bytes, Some(777));
        assert_eq!(fs::metadata(&wal_path).unwrap().len(), intact as u64, "tail truncated");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn orphan_gop_files_are_reconciled_away() {
        let root = temp_root("orphan");
        let payload = gop_bytes(2);
        {
            let mut cat = Catalog::open(&root).unwrap();
            cat.create_video("v").unwrap();
            let id = cat.add_physical("v", 4, 4, 30.0, "rgb", true, 0.0).unwrap();
            cat.append_gop("v", id, 0.0, 1.0, 30, &payload, None).unwrap();
            // A crash between GOP-file rename and journal append leaves an
            // orphan file with no record:
            let dir = root.join("v").join(cat.video("v").unwrap().physical[0].directory_name());
            fs::write(dir.join("1.gop"), b"unacked bytes").unwrap();
            fs::write(dir.join("2.gop.tmp"), b"half a temp file").unwrap();
            fs::write(root.join("catalog.json.tmp"), b"half a checkpoint").unwrap();
        }
        let cat = Catalog::open(&root).unwrap();
        assert_eq!(cat.recovery_report().orphan_files_removed, 3);
        let video = cat.video("v").unwrap();
        assert_eq!(video.physical[0].gops.len(), 1, "acked GOP survives");
        assert_eq!(cat.read_gop("v", video.physical[0].id, 0).unwrap(), payload);
        let dir = root.join("v").join(video.physical[0].directory_name());
        assert!(!dir.join("1.gop").exists() && !dir.join("2.gop.tmp").exists());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_gop_file_drops_only_its_record() {
        let root = temp_root("missing-gop");
        let payload = gop_bytes(2);
        {
            let mut cat = Catalog::open(&root).unwrap();
            cat.create_video("v").unwrap();
            let id = cat.add_physical("v", 4, 4, 30.0, "rgb", true, 0.0).unwrap();
            cat.append_gop("v", id, 0.0, 1.0, 30, &payload, None).unwrap();
            cat.append_gop("v", id, 1.0, 2.0, 30, &payload, None).unwrap();
            let dir = root.join("v").join(cat.video("v").unwrap().physical[0].directory_name());
            fs::remove_file(dir.join("0.gop")).unwrap();
        }
        let cat = Catalog::open(&root).unwrap();
        assert_eq!(cat.recovery_report().gop_records_dropped, 1);
        let video = cat.video("v").unwrap();
        assert_eq!(video.physical[0].gops.len(), 1);
        assert_eq!(video.physical[0].gops[0].index, 1, "the surviving record");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rewritten_gop_whose_journal_record_was_lost_is_healed() {
        let root = temp_root("heal");
        let small = gop_bytes(1);
        let big = gop_bytes(4);
        {
            let mut cat = Catalog::open(&root).unwrap();
            cat.create_video("v").unwrap();
            let id = cat.add_physical("v", 4, 4, 30.0, "rgb", true, 0.0).unwrap();
            cat.append_gop("v", id, 0.0, 1.0, 30, &small, None).unwrap();
            // Crash between the atomic file rewrite and its journal record:
            // the file holds the complete new generation, the catalog still
            // records the old size.
            let dir = root.join("v").join(cat.video("v").unwrap().physical[0].directory_name());
            fs::write(dir.join("0.gop"), &big).unwrap();
        }
        let cat = Catalog::open(&root).unwrap();
        assert_eq!(cat.recovery_report().gop_records_healed, 1);
        let gop = &cat.video("v").unwrap().physical[0].gops[0];
        assert_eq!(gop.byte_len, big.len() as u64, "size repaired from disk");
        assert_eq!(gop.lossless_level, None);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn repairs_are_checkpointed_so_a_second_open_is_clean() {
        let root = temp_root("repair-once");
        {
            let mut cat = Catalog::open(&root).unwrap();
            cat.create_video("v").unwrap();
            let id = cat.add_physical("v", 4, 4, 30.0, "rgb", true, 0.0).unwrap();
            cat.append_gop("v", id, 0.0, 1.0, 30, &gop_bytes(2), None).unwrap();
            let dir = root.join("v").join(cat.video("v").unwrap().physical[0].directory_name());
            fs::remove_file(dir.join("0.gop")).unwrap();
        }
        let first = Catalog::open(&root).unwrap();
        assert!(first.recovery_report().repaired_anything());
        drop(first);
        let second = Catalog::open(&root).unwrap();
        assert!(!second.recovery_report().repaired_anything(), "repairs were made durable");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_batch_is_one_journal_record_that_replays_whole() {
        let root = temp_root("batch");
        let payload = gop_bytes(2);
        {
            let mut cat = Catalog::open(&root).unwrap();
            cat.create_video("v").unwrap();
            let original = cat.add_physical("v", 4, 4, 30.0, "rgb", true, 0.0).unwrap();
            cat.append_gop("v", original, 0.0, 1.0, 2, &payload, None).unwrap();
            cat.begin_batch();
            let view = cat.add_physical("v", 4, 4, 30.0, "rgb", false, 0.0).unwrap();
            cat.append_gop("v", view, 0.0, 1.0, 2, &payload, None).unwrap();
            cat.append_gop("v", view, 1.0, 2.0, 2, &payload, None).unwrap();
            cat.set_mse_bound("v", view, 3.0).unwrap();
            // Mid-batch the new state is visible, and nothing folds it.
            assert_eq!(cat.video("v").unwrap().physical[1].gops.len(), 2);
            cat.checkpoint().unwrap();
            assert!(!root.join(CATALOG_FILE).exists(), "an open batch is never checkpointed");
            cat.commit_batch().unwrap();
        }
        let cat = Catalog::open(&root).unwrap();
        assert_eq!(cat.recovery_report().wal_records_replayed, 4, "3 records, then 1 batch");
        let view = &cat.video("v").unwrap().physical[1];
        assert_eq!((view.gops.len(), view.mse_bound), (2, 3.0));
        assert_eq!(view.gops[1].crc, Some(wal::crc32(&payload)));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn moved_gops_keep_their_bytes_and_class_and_an_aborted_move_keeps_the_source() {
        let root = temp_root("move");
        let mut cat = Catalog::open(&root).unwrap();
        cat.create_video("v").unwrap();
        let target = cat.add_physical("v", 4, 4, 30.0, "rgb", false, 0.0).unwrap();
        let source = cat.add_physical("v", 4, 4, 30.0, "rgb", false, 0.0).unwrap();
        cat.append_gop("v", target, 0.0, 1.0, 2, &gop_bytes(1), None).unwrap();
        cat.append_gop("v", source, 1.0, 2.0, 2, &gop_bytes(2), None).unwrap();
        cat.append_gop("v", source, 2.0, 3.0, 2, &gop_bytes(3), None).unwrap();
        assert_eq!(cat.harden_gops("v", source, 1.0, 2.0).unwrap(), 1);
        let source_dir = root.join("v").join(cat.video("v").unwrap().physical[1].directory_name());

        cat.begin_batch();
        cat.move_gops("v", source, target).unwrap();
        cat.abort_batch().unwrap();
        assert_eq!(cat.video("v").unwrap().physical[1].gops.len(), 2, "the source is whole");
        assert_eq!(cat.read_gop("v", source, 1).unwrap(), gop_bytes(3));

        cat.begin_batch();
        cat.move_gops("v", source, target).unwrap();
        assert!(source_dir.exists(), "the source goes only once the move is journaled");
        cat.commit_batch().unwrap();
        assert!(!source_dir.exists());
        drop(cat);
        let cat = Catalog::open(&root).unwrap();
        assert!(!cat.recovery_report().repaired_anything(), "{:?}", cat.recovery_report());
        let video = cat.video("v").unwrap();
        assert_eq!(video.physical.len(), 1);
        let crcs: Vec<bool> = video.physical[0].gops.iter().map(|g| g.crc.is_some()).collect();
        assert_eq!(crcs, [true, false, true], "a moved GOP keeps its class");
        for (index, seed) in [(1, 2), (2, 3)] {
            assert_eq!(cat.read_gop("v", target, index).unwrap(), gop_bytes(seed));
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn injected_write_failure_surfaces_as_typed_io_error_and_state_is_unchanged() {
        let root = temp_root("fault-typed");
        let mut cat = Catalog::open(&root).unwrap();
        cat.create_video("v").unwrap();
        let id = cat.add_physical("v", 4, 4, 30.0, "rgb", true, 0.0).unwrap();
        let guard = fault::install(fault::FaultPlan {
            prefix: Some(root.clone()),
            fail_nth: Some(1),
            ..Default::default()
        });
        let err = cat.append_gop("v", id, 0.0, 1.0, 30, &gop_bytes(2), None).unwrap_err();
        assert!(matches!(err, CatalogError::Io(_)), "typed I/O error, got {err}");
        drop(guard);
        assert!(cat.video("v").unwrap().physical[0].gops.is_empty(), "mutation not applied");
        // The store still works after the fault clears.
        cat.append_gop("v", id, 0.0, 1.0, 30, &gop_bytes(2), None).unwrap();
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn failed_journal_append_rolls_back_so_later_mutations_survive() {
        let root = temp_root("wal-rollback");
        {
            let mut cat = Catalog::open(&root).unwrap();
            cat.create_video("v").unwrap();
            // Tear the next journal append mid-record.
            let guard = fault::install(fault::FaultPlan {
                prefix: Some(root.join(wal::WAL_FILE)),
                tear_nth: Some(1),
                tear_at: 7,
                ..Default::default()
            });
            assert!(matches!(cat.create_video("torn"), Err(CatalogError::Io(_))));
            drop(guard);
            // The torn bytes were rolled back, so this append lands on a
            // clean journal and must survive reopen.
            cat.create_video("after").unwrap();
        }
        let cat = Catalog::open(&root).unwrap();
        assert!(cat.contains_video("v") && cat.contains_video("after"));
        assert!(!cat.contains_video("torn"));
        assert_eq!(cat.recovery_report().torn_bytes_truncated, 0, "no torn tail left behind");
        fs::remove_dir_all(&root).unwrap();
    }
}
