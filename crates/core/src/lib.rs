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
//!   tighten, scaling the compression level with remaining space;
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
//! Every store — [`Engine`], [`Vss`], a `vss-server` session and the
//! `vss-baseline` stores — speaks one contract, the [`VideoStorage`] trait
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
//! `read` opens the stream and drains it; `write`/`append` par-encode their
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
//! [`Vss`] guards the whole engine with a single mutex — simple, and fine
//! for one client. Multi-client deployments should use the `vss-server`
//! crate instead: it splits the engine into N independent shards keyed by a
//! hash of the logical-video name (each shard is a complete [`Engine`]
//! behind its own reader-writer lock) and exposes per-client sessions, a
//! per-shard background maintenance scheduler and per-shard statistics.
//! Two engine features exist specifically for that layer:
//!
//! * the lock-scoped primitives take the engine only briefly —
//!   [`Engine::read_stream`] snapshots a plan through `&self` and the stream
//!   decodes with no engine at all; the incremental-write primitives need
//!   `&mut self` per persisted GOP only, never for an encode — so a shard
//!   lock is never held across GOP file reads or codec work; and
//! * GOP recency clocks are atomic ([`vss_catalog::AtomicClock`]), so
//!   read-only traffic bumps LRU state without exclusive access.
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
//!   cache admission (the view, its GOPs, the evictions it triggers and the
//!   deferred-compression step) is one journal commit, and so is one
//!   compaction merge, so a view a crash interrupted is gone or whole. A
//!   power cut may cost views pages, never serve one torn.
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
//! # Live ingest and retention
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
//! carries subscriptions over TCP.
//!
//! **Retention contract.** [`Engine::trim_before`] removes whole
//! original-timeline GOPs that end at or before a cutoff timestamp, each
//! removal journaled through the catalog WAL before the file is unlinked
//! (crash safe), always retaining the newest GOP. After a trim:
//!
//! * the video's available range starts at the first retained GOP — reads
//!   of trimmed ranges fail with [`VssError::OutOfRange`], and a
//!   subscription catching up across the trim reports the hole as a gap
//!   event rather than silently skipping data;
//! * freed bytes lower budget consumption, so the existing deferred-
//!   compression and compaction machinery sees the headroom on its next
//!   sweep;
//! * sequence numbers (catalog GOP indexes) are never reused — the trimmed
//!   prefix leaves a permanent hole in the sequence space.
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
pub use engine::{Engine, OriginalGopManifest, OriginalGopSpan, ReadStats, TrimReport, WriteReport};
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

use parking_lot::Mutex;
use std::sync::Arc;
use vss_frame::FrameSequence;

/// The VSS storage manager handle.
///
/// `Vss` is cheap to clone; clones share the same underlying engine, which is
/// how concurrent readers and writers coordinate (the paper's non-blocking
/// write / prefix-read behaviour). It starts no thread of its own: idle
/// maintenance is [`run_maintenance`](Self::run_maintenance), called by its
/// owner, or `vss-server`'s per-shard scheduler
/// (`VssServer::start_maintenance`).
#[derive(Clone)]
pub struct Vss {
    engine: Arc<Mutex<Engine>>,
}

impl Vss {
    /// Opens (or creates) a VSS store with the given configuration.
    pub fn open(config: VssConfig) -> Result<Self, VssError> {
        Ok(Self { engine: Arc::new(Mutex::new(Engine::open(config)?)) })
    }

    /// Opens a store rooted at a directory with default configuration.
    pub fn open_at(root: impl Into<std::path::PathBuf>) -> Result<Self, VssError> {
        Self::open(VssConfig::new(root))
    }

    /// Creates a logical video, optionally with an explicit storage budget.
    pub fn create(&self, name: &str, budget: Option<StorageBudget>) -> Result<(), VssError> {
        self.engine.lock().create_video(name, budget)
    }

    /// Deletes a logical video and all of its data.
    pub fn delete(&self, name: &str) -> Result<(), VssError> {
        self.engine.lock().delete_video(name)
    }

    /// Writes a frame sequence to a logical video (creating it if needed).
    pub fn write(&self, request: &WriteRequest, frames: &FrameSequence) -> Result<WriteReport, VssError> {
        let write = self.engine.lock().begin_incremental_write(request, frames.frame_rate())?;
        write.commit_batch("write", frames, || self.engine.lock())
    }

    /// Appends frames to a logical video's original representation
    /// (streaming ingest); readers may query any prefix already written.
    pub fn append(&self, name: &str, frames: &FrameSequence) -> Result<WriteReport, VssError> {
        let write = self.engine.lock().begin_incremental_append(name, frames.frame_rate())?;
        write.commit_batch("append", frames, || self.engine.lock())
    }

    /// Executes a read planned by `request.planner` (optimal by default).
    pub fn read(&self, request: &ReadRequest) -> Result<ReadResult, VssError> {
        self.engine.lock().read(request)
    }

    /// Opens a GOP-at-a-time streaming read. The engine lock is held only
    /// while the plan is snapshotted; the returned [`ReadStream`] decodes
    /// lock-free, so long streaming reads never starve other clients. The
    /// drained stream is byte-identical to [`read`](Self::read) of the same
    /// request, but never admits its result to the cache.
    pub fn read_stream(&self, request: &ReadRequest) -> Result<ReadStream, VssError> {
        self.engine.lock().read_stream(request)
    }

    /// Opens an incremental write: each GOP is encoded and persisted as it
    /// fills, by the pushing thread. The engine lock is taken per GOP, for
    /// the persist only — encode never holds the lock. The resulting store
    /// is byte-identical to a batch [`write`](Self::write) of the same frames.
    pub fn write_sink(&self, request: &WriteRequest, frame_rate: f64) -> Result<WriteSink<'static>, VssError> {
        let write = self.engine.lock().begin_incremental_write(request, frame_rate)?;
        struct VssSinkBackend {
            vss: Vss,
            write: IncrementalWrite,
        }
        impl EncodedGopBackend for VssSinkBackend {
            fn flush_encoded(&mut self, gop: vss_codec::EncodedGop) -> Result<(), VssError> {
                self.vss.engine.lock().push_incremental_encoded(&mut self.write, &gop)
            }
            fn finish(&mut self) -> Result<WriteReport, VssError> {
                self.vss.engine.lock().finish_incremental_write(&mut self.write)
            }
        }
        let encoder = write.encoder();
        Ok(WriteSink::encoding(Box::new(VssSinkBackend { vss: self.clone(), write }), encoder))
    }

    /// Storage accounting for one logical video.
    pub fn metadata(&self, name: &str) -> Result<VideoMetadata, VssError> {
        self.engine.lock().metadata(name)
    }

    /// Names of all logical videos in the store.
    pub fn video_names(&self) -> Vec<String> {
        self.engine.lock().video_names()
    }

    /// Bytes used by a logical video across all physical representations.
    pub fn bytes_used(&self, name: &str) -> Result<u64, VssError> {
        self.engine.lock().bytes_used(name)
    }

    /// The storage budget of a logical video in bytes, if bounded.
    pub fn budget_bytes(&self, name: &str) -> Result<Option<u64>, VssError> {
        self.engine.lock().budget_bytes(name)
    }

    /// Fraction of the storage budget currently consumed.
    pub fn budget_fraction(&self, name: &str) -> Result<Option<f64>, VssError> {
        self.engine.lock().budget_fraction(name)
    }

    /// Runs compaction for a logical video, returning the number of merges.
    pub fn compact(&self, name: &str) -> Result<usize, VssError> {
        self.engine.lock().compact_video(name)
    }

    /// Runs one unit of background maintenance (deferred compression or
    /// compaction); returns `true` if any work was performed.
    pub fn run_maintenance(&self) -> Result<bool, VssError> {
        self.engine.lock().background_maintenance()
    }

    /// Runs a function with exclusive access to the engine (used by the
    /// benchmark harness for ablations that tweak configuration mid-run).
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut Engine) -> R) -> R {
        f(&mut self.engine.lock())
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
}
