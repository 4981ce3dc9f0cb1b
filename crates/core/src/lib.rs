//! # vss-core
//!
//! The VSS storage manager (SIGMOD 2021, "VSS: A Storage System for Video
//! Analytics"), reproduced in Rust.
//!
//! VSS decouples high-level video operations from the low-level details of
//! storing and retrieving video data. Applications interact with logical
//! videos through four operations — `create`, `write`, `read`, `delete` —
//! parameterized by temporal (`T`), spatial (`S`) and physical (`P`)
//! parameters. Internally VSS:
//!
//! * stores every physical representation as a sequence of independently
//!   decodable GOP files with a temporal index ([`vss_catalog`]);
//! * answers reads by selecting a minimum-cost combination of cached
//!   materialized views with an exact fragment-selection optimizer
//!   ([`vss_solver`]), paying transcode and look-back costs only where
//!   needed;
//! * caches read results as new materialized views, evicting GOP pages with
//!   the LRU_VSS policy when a per-video storage budget is exceeded;
//! * defers lossless compression of uncompressed entries until budgets
//!   tighten, scaling the compression level with remaining space, and
//!   stores a page compressed only where that makes it smaller
//!   ([`vss_codec::lossless`] predicts each plane of a raw GOP and
//!   entropy-codes the residuals; its level is how many predictors it
//!   tries);
//! * compacts contiguous cached entries; and
//! * jointly compresses overlapping GOPs captured by physically proximate
//!   cameras, recovering both views on read ([`joint`]).
//!
//! # Parallel GOP pipeline
//!
//! Every operation above decomposes into independent GOPs, and the engine
//! exploits that: encodes, decodes, per-frame normalization (resize, format
//! conversion, cropping) and deferred-compression sweeps all run on a pool
//! of scoped worker threads sized by [`VssConfig::parallelism`] — `0`
//! (the default) means one worker per available core, `1` reproduces fully
//! sequential execution. Results are always collected in input order, so
//! **every `parallelism` setting produces byte-identical stores and read
//! results**; the knob only changes wall-clock time. The scaling is
//! measured by `vssbench`'s `parallel.pipeline.speedup` probe (the
//! traced run of its `transcode_scan` workload).
//!
//! # Streaming API
//!
//! Every store — [`Vss`], a `vss-server` session, a `vss-net` remote store
//! and the `vss-baseline` stores — speaks one contract, the [`VideoStorage`] trait
//! (`create` / `delete` / `write` / `append` / `read` / `read_stream` /
//! `write_sink` / `metadata`). Reads and writes come in two flavours:
//!
//! * **Materialized** — [`VideoStorage::read`] returns the whole result,
//!   [`VideoStorage::write`] takes the whole clip; memory is O(clip).
//! * **Streaming** — [`VideoStorage::read_stream`] yields
//!   [`ReadChunk`]s GOP-at-a-time and [`VideoStorage::write_sink`] persists
//!   each GOP as it fills; a pipelining consumer holds O(GOP) memory, and the
//!   plan is snapshotted up front so decoding runs lock-free.
//!
//! The materialized entry points are drives of the streaming primitives:
//! `read` opens the stream, drains it and, only if it has a view to admit,
//! commits that view (see the `read` module); `write`/`append` par-encode their
//! GOPs with the same encoder a sink uses, then persist them in order
//! through the same per-GOP call. The two flavours are therefore
//! **byte-identical** for the same request and store state by construction.
//! See the [`stream`] and [`sink`] module docs.
//!
//! There is one GOP stage per direction — one function decodes and
//! normalizes a GOP, one encodes a GOP — and one thread model: the thread
//! that drains a `ReadStream` decodes each GOP, the thread that pushes into
//! a `WriteSink` encodes each GOP and then persists it (so a returned push
//! is the durability acknowledgement). Neither starts a thread of its own;
//! the only helpers a GOP has are the scoped ones [`VssConfig::parallelism`]
//! buys inside it, which never touch the engine or its locks. A streaming
//! consumer buffers at most ~2 GOPs.
//!
//! # Concurrency and sharding
//!
//! A [`Vss`] is one shard: a complete [`Engine`] behind a reader-writer
//! lock, with the lock-wait accounting of that lock. It has one lock
//! discipline for every caller:
//!
//! * **shared** to plan and to begin — [`Vss::read_stream`] and the open of
//!   every [`Vss::read`], metadata and budget queries, the begin of a write
//!   or sink; every stream, a read's included, drains after the lock is
//!   released;
//! * **exclusive** per commit — each persisted GOP and each write's finish,
//!   a read's admission of its view (only a read that has one to admit),
//!   create/delete/maintenance and [`Vss::with_engine`].
//!
//! `vss-server` is N of these plus routing: a stable hash of the
//! logical-video name picks the owning `Vss`, and the server adds
//! per-client sessions and per-shard statistics. The discipline works
//! because the engine takes itself only
//! briefly — [`Engine::read_stream`] snapshots a plan through `&self` and
//! the stream decodes with no engine at all; the incremental-write
//! primitives need `&mut self` per persisted GOP only, never for an encode
//! — and because GOP recency clocks are atomic
//! ([`vss_catalog::AtomicClock`]), so read-only traffic bumps LRU state
//! without exclusive access.
//!
//! # Durability contract
//!
//! The store survives `kill -9` (and power cuts) at any instruction, backed
//! by the catalog's write-ahead journal (see the `vss_catalog` crate docs
//! for the mechanism). What the engine guarantees after reopening:
//!
//! * **Acked GOPs survive byte-identically.** Every GOP of a video's
//!   original persisted through [`VideoStorage::write`]/`append` or a
//!   [`WriteSink`] is written temp-then-rename with file *and* directory
//!   fsyncs, and its catalog record is journaled and fsynced, before the
//!   call returns — so a GOP a caller has been acknowledged is never lost,
//!   truncated, or reordered.
//! * **Views are derived data.** The GOPs of every other physical video —
//!   materialized views, which the budget may evict at any moment — are
//!   written once, without `fsync`, under a checksum that open verifies. A
//!   cache admission (the view, its GOPs and the evictions it triggers) is
//!   one journal commit, and so is one compaction merge, so a view a crash
//!   interrupted is gone or whole. A power cut may cost views pages, never
//!   serve one torn.
//! * **Eviction relies only on durable bytes.** A page at or above the
//!   baseline quality goes only behind another such copy, and that copy's
//!   GOPs over the page's interval are synced first, so the last good copy
//!   of every range is always durable.
//! * **In-flight work disappears cleanly.** A GOP that was mid-persist when
//!   the process died (file written but record not journaled, or a torn
//!   journal tail) is removed on the next [`Engine::open`]; the catalog and
//!   the files on disk always agree. [`Engine::recovery_report`] itemizes
//!   what replay repaired.
//! * **Not covered:** GOP recency (LRU) clocks between checkpoints — losing
//!   them can change future eviction *order*, never data correctness.
//!
//! Injected storage faults (see `vss_catalog::fault`) surface as typed
//! [`VssError::Catalog`] I/O errors, never panics; `tests/crash_recovery.rs`
//! exercises the whole contract with a `kill -9` subprocess harness, killing
//! ingest children and children that admit views and compact them.
//!
//! # Live ingest
//!
//! The write path doubles as a live-publication source: a
//! [`GopPublisher`] installed via [`Engine::set_publisher`] observes every
//! original-timeline GOP *after* it is durably persisted (the durability
//! contract above is the publication barrier — subscribers can never see
//! bytes a crash could lose), receiving the pre-deferral
//! `vss_codec::EncodedGop` so fanout to N subscribers costs zero
//! re-encodes. The `vss-live` crate builds the per-video broadcast hub,
//! bounded subscriber queues and lag→catch-up→re-seam machinery on this
//! hook; `vss-server` installs the hub across all shards and `vss-net`
//! carries subscriptions over TCP. Sequence numbers are catalog GOP
//! indexes and are never reused: a page the budget evicts from the original
//! leaves a hole, which a subscription catching up across it reports as a
//! gap event rather than silently skipping (see
//! [`Engine::original_gop_spans`]).
//!
//! The main entry point is [`Vss`]. See the `examples/` directory of the
//! workspace for end-to-end usage.

#![warn(missing_docs)]

mod cache;
mod compact;
mod config;
mod deferred;
mod engine;
mod error;
mod fragments;
pub mod joint;
mod params;
pub mod publish;
mod quality;
mod read;
mod select;
pub mod sink;
pub mod storage;
pub mod stream;
mod write;

pub use cache::{eviction_order, EvictionCandidate};
pub use config::{EvictionPolicy, JointConfig, VssConfig, DEFAULT_ENCODER_QUALITY};
pub use engine::{Engine, OriginalGopManifest, OriginalGopSpan, ReadStats, WriteReport};
pub use error::VssError;
pub use fragments::{build_candidates, contiguous_runs, CandidateSet, FragmentRun};
pub use joint::{
    joint_compress_sequences, recover_sequences, JointArtifact, JointOutcome, JointTimings,
    MergeFunction,
};
pub use params::{
    PhysicalParameters, PlannerKind, ReadRequest, SpatialParameters, StorageBudget, TemporalRange,
    WriteRequest,
};
pub use publish::{GopPublication, GopPublisher};
pub use quality::{QualityModel, DEFAULT_QUALITY_THRESHOLD};
pub use read::ReadResult;
pub use select::{GopFingerprint, PairSelector};
pub use sink::{EncodedGopBackend, GopWriteBackend, IncrementalWrite, SinkEncoder, WriteSink};
pub use storage::{VideoMetadata, VideoStorage};
pub use stream::{ChunkStats, ReadChunk, ReadStream};

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::Arc;
use std::time::Instant;
use vss_frame::FrameSequence;
use vss_telemetry::{Histogram, HistogramSummary};

/// The VSS storage manager handle: one [`Engine`] behind a reader-writer
/// lock — a shard (`vss-server` is N of them plus routing). Cheap to clone;
/// clones share the engine, which is how concurrent readers and writers
/// coordinate. Plans and the begin of a write share the lock; each commit
/// — a persisted GOP, a read's admission — holds it exclusively; neither is
/// held across an encode or a decode (see the crate docs). Every acquisition's wait goes to
/// [`lock_wait`](Self::lock_wait), the `server.shard.lock_wait_ns{shard=N}`
/// series and a `server.shard_lock` span. It starts no thread: idle
/// maintenance is [`run_maintenance`](Self::run_maintenance), called by its
/// owner on the owner's schedule.
#[derive(Clone)]
pub struct Vss {
    shard: Arc<Shard>,
}

struct Shard {
    engine: RwLock<Engine>,
    /// Per-acquisition lock waits, in nanoseconds. Owned, so one store's
    /// contention never mixes with another's.
    lock_wait: Histogram,
    /// The `server.shard.lock_wait_ns{shard=N}` mirror of `lock_wait`.
    labeled_lock_wait: &'static Histogram,
    /// The shard index, rendered once: the `shard_lock` span target.
    label: String,
}

impl Vss {
    /// Opens (or creates) a VSS store with the given configuration. A
    /// standalone store is shard 0 of one.
    pub fn open(config: VssConfig) -> Result<Self, VssError> {
        Self::open_shard(config, 0)
    }

    /// Opens (or creates) the store of shard `index` of a sharded server;
    /// `index` only labels its lock-wait series and spans.
    pub fn open_shard(config: VssConfig, index: usize) -> Result<Self, VssError> {
        let label = index.to_string();
        let labeled_lock_wait =
            vss_telemetry::histogram_with("server.shard.lock_wait_ns", &[("shard", &label)]);
        let engine = RwLock::new(Engine::open(config)?);
        let lock_wait = Histogram::new();
        Ok(Self { shard: Arc::new(Shard { engine, lock_wait, labeled_lock_wait, label }) })
    }

    /// Opens a store rooted at a directory with default configuration.
    pub fn open_at(root: impl Into<std::path::PathBuf>) -> Result<Self, VssError> {
        Self::open(VssConfig::new(root))
    }

    /// Runs `acquire`, accounting the time it waited for the lock.
    fn accounted<'a, G>(&'a self, acquire: impl FnOnce(&'a RwLock<Engine>) -> G) -> G {
        let _span = vss_telemetry::span("server", "shard_lock", self.shard.label.as_str());
        let started = Instant::now();
        let guard = acquire(&self.shard.engine);
        let waited = started.elapsed();
        self.shard.lock_wait.record_duration(waited);
        self.shard.labeled_lock_wait.record_duration(waited);
        guard
    }

    fn shared(&self) -> RwLockReadGuard<'_, Engine> {
        self.accounted(RwLock::read)
    }

    fn exclusive(&self) -> RwLockWriteGuard<'_, Engine> {
        self.accounted(RwLock::write)
    }

    /// The distribution of this handle's lock waits, in nanoseconds.
    pub fn lock_wait(&self) -> HistogramSummary {
        self.shard.lock_wait.summary()
    }

    /// Creates a logical video, optionally with an explicit storage budget.
    pub fn create(&self, name: &str, budget: Option<StorageBudget>) -> Result<(), VssError> {
        self.exclusive().create_video(name, budget)
    }

    /// Deletes a logical video and all of its data.
    pub fn delete(&self, name: &str) -> Result<(), VssError> {
        self.exclusive().delete_video(name)
    }

    /// Writes a frame sequence to a logical video (creating it if needed).
    /// The GOPs are encoded with no lock held; the exclusive lock is taken
    /// once, to persist them all in order.
    pub fn write(&self, request: &WriteRequest, frames: &FrameSequence) -> Result<WriteReport, VssError> {
        let write = self.shared().begin_incremental_write(request, frames.frame_rate())?;
        write.commit_batch("write", frames, || self.exclusive())
    }

    /// Appends frames to a logical video's original representation
    /// (streaming ingest); readers may query any prefix already written.
    pub fn append(&self, name: &str, frames: &FrameSequence) -> Result<WriteReport, VssError> {
        let write = self.shared().begin_incremental_append(name, frames.frame_rate())?;
        write.commit_batch("append", frames, || self.exclusive())
    }

    /// Executes a read planned by `request.planner` (optimal by default),
    /// returning what [`Engine::read`] returns: the plan is snapshotted under
    /// the shared lock, the stream drains with no lock held, and only a read
    /// with a view to admit then takes the exclusive lock, for that commit.
    /// A cache hit, or a read whose view is refused, never takes it.
    pub fn read(&self, request: &ReadRequest) -> Result<ReadResult, VssError> {
        // The guard drops with this statement, so the drain runs lock-free.
        let stream = self.shared().read_stream(request)?;
        read::drain_then_admit(stream, |view, result| {
            self.exclusive().commit_view(request, view, result)
        })
    }

    /// Opens a GOP-at-a-time streaming read. The shared lock is held only
    /// while the plan is snapshotted; the returned [`ReadStream`] decodes
    /// lock-free, so long streaming reads never starve other clients. The
    /// drained stream is byte-identical to [`read`](Self::read) of the same
    /// request, but never admits its result to the cache.
    pub fn read_stream(&self, request: &ReadRequest) -> Result<ReadStream, VssError> {
        self.shared().read_stream(request)
    }

    /// Opens an incremental write: each GOP is encoded and persisted as it
    /// fills, by the pushing thread. The exclusive lock is taken per GOP,
    /// for the persist only — encode never holds it. The resulting store is
    /// byte-identical to a batch [`write`](Self::write) of the same frames.
    pub fn write_sink(&self, request: &WriteRequest, frame_rate: f64) -> Result<WriteSink<'static>, VssError> {
        let backend = self.begin_sink(|engine| engine.begin_incremental_write(request, frame_rate))?;
        let encoder = backend.encoder();
        Ok(WriteSink::encoding(Box::new(backend), encoder))
    }

    /// Begins an incremental write with `begin` under the shared lock and
    /// returns the backend that persists its GOPs — what
    /// [`write_sink`](Self::write_sink) wraps in a [`WriteSink`]. Front ends
    /// that account their sinks (`vss-server` sessions) wrap this backend.
    pub fn begin_sink(
        &self,
        begin: impl FnOnce(&Engine) -> Result<IncrementalWrite, VssError>,
    ) -> Result<VssSinkBackend, VssError> {
        Ok(VssSinkBackend { write: begin(&self.shared())?, vss: self.clone() })
    }

    /// Storage accounting for one logical video.
    pub fn metadata(&self, name: &str) -> Result<VideoMetadata, VssError> {
        self.shared().metadata(name)
    }

    /// Names of all logical videos in the store.
    pub fn video_names(&self) -> Vec<String> {
        self.shared().video_names()
    }

    /// Bytes used by a logical video across all physical representations.
    pub fn bytes_used(&self, name: &str) -> Result<u64, VssError> {
        self.shared().bytes_used(name)
    }

    /// The storage budget of a logical video in bytes, if bounded.
    pub fn budget_bytes(&self, name: &str) -> Result<Option<u64>, VssError> {
        self.shared().budget_bytes(name)
    }

    /// Fraction of the storage budget currently consumed.
    pub fn budget_fraction(&self, name: &str) -> Result<Option<f64>, VssError> {
        self.shared().budget_fraction(name)
    }

    /// Runs one unit of background maintenance (deferred compression or
    /// compaction); returns `true` if any work was performed.
    pub fn run_maintenance(&self) -> Result<bool, VssError> {
        self.exclusive().background_maintenance()
    }

    /// Runs a function with exclusive access to the engine (used by the
    /// benchmark harness for ablations that tweak configuration mid-run).
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut Engine) -> R) -> R {
        f(&mut self.exclusive())
    }

    /// Runs a function with shared access to the engine (live catch-up
    /// readers snapshot the persisted timeline this way without blocking
    /// other readers).
    pub fn with_engine_read<R>(&self, f: impl FnOnce(&Engine) -> R) -> R {
        f(&self.shared())
    }
}

/// The one backend that persists a sink's GOPs into an engine: each GOP, and
/// the finish, under the owning [`Vss`]'s exclusive lock. Obtained from
/// [`Vss::begin_sink`].
pub struct VssSinkBackend {
    vss: Vss,
    write: IncrementalWrite,
}

impl VssSinkBackend {
    /// The encoder every GOP of this write must be encoded with.
    pub fn encoder(&self) -> SinkEncoder {
        self.write.encoder()
    }
}

impl EncodedGopBackend for VssSinkBackend {
    fn flush_encoded(&mut self, gop: vss_codec::EncodedGop) -> Result<(), VssError> {
        self.vss.exclusive().push_incremental_encoded(&mut self.write, &gop)
    }

    fn finish(&mut self) -> Result<WriteReport, VssError> {
        self.vss.exclusive().finish_incremental_write(&mut self.write)
    }
}

impl VideoStorage for Vss {
    fn label(&self) -> &'static str {
        "vss"
    }

    fn create(&mut self, name: &str, budget: Option<StorageBudget>) -> Result<(), VssError> {
        Vss::create(self, name, budget)
    }

    fn delete(&mut self, name: &str) -> Result<(), VssError> {
        Vss::delete(self, name)
    }

    fn write(
        &mut self,
        request: &WriteRequest,
        frames: &FrameSequence,
    ) -> Result<WriteReport, VssError> {
        Vss::write(self, request, frames)
    }

    fn append(&mut self, name: &str, frames: &FrameSequence) -> Result<WriteReport, VssError> {
        Vss::append(self, name, frames)
    }

    fn read(&mut self, request: &ReadRequest) -> Result<ReadResult, VssError> {
        Vss::read(self, request)
    }

    fn read_stream(&mut self, request: &ReadRequest) -> Result<ReadStream, VssError> {
        Vss::read_stream(self, request)
    }

    fn write_sink(
        &mut self,
        request: &WriteRequest,
        frame_rate: f64,
    ) -> Result<WriteSink<'_>, VssError> {
        Vss::write_sink(self, request, frame_rate)
    }

    fn metadata(&self, name: &str) -> Result<VideoMetadata, VssError> {
        Vss::metadata(self, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vss_codec::Codec;
    use vss_frame::{pattern, PixelFormat};

    fn temp_store(tag: &str) -> (Vss, std::path::PathBuf) {
        let root = std::env::temp_dir().join(format!(
            "vss-handle-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        (Vss::open_at(&root).unwrap(), root)
    }

    fn sequence(frames: usize) -> FrameSequence {
        let frames: Vec<_> =
            (0..frames).map(|i| pattern::gradient(64, 48, PixelFormat::Yuv420, i as u64)).collect();
        FrameSequence::new(frames, 30.0).unwrap()
    }

    #[test]
    fn handle_round_trip_and_accounting() {
        let (vss, root) = temp_store("roundtrip");
        vss.write(&WriteRequest::new("v", Codec::H264), &sequence(60)).unwrap();
        assert_eq!(vss.video_names(), vec!["v".to_string()]);
        assert!(vss.bytes_used("v").unwrap() > 0);
        assert!(vss.budget_bytes("v").unwrap().unwrap() > vss.bytes_used("v").unwrap());
        let result = vss.read(&ReadRequest::new("v", 0.0, 1.0, Codec::Hevc)).unwrap();
        assert_eq!(result.frames.len(), 30);
        vss.delete("v").unwrap();
        assert!(vss.video_names().is_empty());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn clones_share_state_across_threads() {
        let (vss, root) = temp_store("threads");
        vss.write(&WriteRequest::new("v", Codec::H264), &sequence(60)).unwrap();
        let reader = vss.clone();
        let writer = vss.clone();
        let read_thread = std::thread::spawn(move || {
            for _ in 0..3 {
                let r = reader.read(&ReadRequest::new("v", 0.0, 1.0, Codec::H264).uncacheable()).unwrap();
                assert_eq!(r.frames.len(), 30);
            }
        });
        let write_thread = std::thread::spawn(move || {
            writer.append("v", &sequence(30)).unwrap();
        });
        read_thread.join().unwrap();
        write_thread.join().unwrap();
        // The appended second is now readable.
        assert!(vss.read(&ReadRequest::new("v", 2.0, 3.0, Codec::H264).uncacheable()).is_ok());
        let _ = std::fs::remove_dir_all(root);
    }

    /// Plans share the lock and commits exclude each other: while one thread
    /// holds the engine shared, a non-admitting read, a stream open and a
    /// metadata query on another thread complete, and `with_engine` waits
    /// until the holder lets go.
    #[test]
    fn shared_holders_admit_plans_and_exclude_commits() {
        use std::sync::mpsc::sync_channel as bounded;
        use std::time::Duration;
        let (vss, root) = temp_store("rwlock");
        vss.write(&WriteRequest::new("v", Codec::H264), &sequence(60)).unwrap();
        let (entered_tx, entered_rx) = bounded::<()>(1);
        let (release_tx, release_rx) = bounded::<()>(1);
        let holder = {
            let vss = vss.clone();
            std::thread::spawn(move || {
                vss.with_engine_read(|_engine| {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                });
            })
        };
        entered_rx.recv().unwrap();

        let (done_tx, done_rx) = bounded::<usize>(1);
        let planner = {
            let vss = vss.clone();
            std::thread::spawn(move || {
                let request = ReadRequest::new("v", 0.0, 1.0, Codec::H264).uncacheable();
                let read = vss.read(&request).unwrap().frames.len();
                let stream = vss.read_stream(&request).unwrap();
                assert!(vss.metadata("v").unwrap().bytes_used > 0);
                done_tx.send(read).unwrap();
                stream.drain().unwrap().frames.len()
            })
        };
        let frames = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("shared-lock operations must not wait for a shared holder");
        assert_eq!(frames, 30);
        assert_eq!(planner.join().unwrap(), 30);

        let (committed_tx, committed_rx) = bounded::<()>(1);
        let committer = {
            let vss = vss.clone();
            std::thread::spawn(move || vss.with_engine(|_engine| committed_tx.send(()).unwrap()))
        };
        assert!(
            committed_rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "with_engine must wait for the shared holder"
        );
        release_tx.send(()).unwrap();
        committed_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("with_engine proceeds once the holder releases");
        holder.join().unwrap();
        committer.join().unwrap();
        let _ = std::fs::remove_dir_all(root);
    }

    /// A cacheable read that admits nothing — a hit on the view an earlier
    /// read admitted — completes while another thread holds the engine
    /// shared: it never asks for the exclusive lock.
    #[test]
    fn a_cacheable_hit_completes_beside_a_shared_holder() {
        use std::sync::mpsc::sync_channel as bounded;
        use std::time::Duration;
        let (vss, root) = temp_store("hit");
        vss.write(&WriteRequest::new("v", Codec::H264), &sequence(60)).unwrap();
        let request = ReadRequest::new("v", 0.0, 1.0, Codec::Hevc);
        assert!(vss.read(&request).unwrap().stats.cache_admitted);
        let (entered_tx, entered_rx) = bounded::<()>(1);
        let (release_tx, release_rx) = bounded::<()>(1);
        let holder = {
            let vss = vss.clone();
            std::thread::spawn(move || {
                vss.with_engine_read(|_engine| {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                });
            })
        };
        entered_rx.recv().unwrap();
        let (done_tx, done_rx) = bounded::<ReadResult>(1);
        let reader = {
            let vss = vss.clone();
            std::thread::spawn(move || done_tx.send(vss.read(&request).unwrap()).unwrap())
        };
        let hit = done_rx.recv_timeout(Duration::from_secs(10));
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        reader.join().unwrap();
        let hit = hit.expect("a cacheable hit must not wait for a shared holder");
        assert!(!hit.stats.cache_admitted);
        assert_eq!(hit.stats.cached_fragments_used, 1);
        let _ = std::fs::remove_dir_all(root);
    }

    /// Four threads racing the same cacheable read on a fresh store admit
    /// what four sequential reads admit: every commit re-plans under the
    /// exclusive lock and admits nothing once an earlier one has.
    #[test]
    fn racing_identical_cacheable_reads_admit_what_a_sequential_run_admits() {
        const READERS: usize = 4;
        let requests = [
            ReadRequest::new("v", 0.0, 2.0, Codec::Hevc),
            ReadRequest::new("v", 0.5, 1.5, Codec::Raw(PixelFormat::Yuv420))
                .at_resolution(vss_frame::Resolution::new(32, 24))
                .quality_threshold(vss_frame::PsnrDb(20.0)),
        ];
        for (case, request) in requests.iter().enumerate() {
            let views = |vss: &Vss| vss.with_engine_read(|e| e.materialized_fragment_count("v"));
            let (sequential, sequential_root) = temp_store(&format!("race-seq-{case}"));
            sequential.write(&WriteRequest::new("v", Codec::H264), &sequence(60)).unwrap();
            for _ in 0..READERS {
                sequential.read(request).unwrap();
            }
            let (racing, racing_root) = temp_store(&format!("race-par-{case}"));
            racing.write(&WriteRequest::new("v", Codec::H264), &sequence(60)).unwrap();
            let start = Arc::new(std::sync::Barrier::new(READERS));
            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    let (vss, start, request) = (racing.clone(), start.clone(), request.clone());
                    std::thread::spawn(move || {
                        start.wait();
                        vss.read(&request).unwrap().frames
                    })
                })
                .collect();
            let expected = sequential.read(&request.clone().uncacheable()).unwrap().frames;
            for reader in readers {
                assert_eq!(reader.join().unwrap().frames(), expected.frames());
            }
            assert!(views(&sequential).unwrap() > 0);
            assert_eq!(views(&racing).unwrap(), views(&sequential).unwrap(), "case {case}");
            let _ = std::fs::remove_dir_all(sequential_root);
            let _ = std::fs::remove_dir_all(racing_root);
        }
    }
}
