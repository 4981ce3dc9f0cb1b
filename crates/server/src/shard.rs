//! The sharded concurrent engine.
//!
//! [`ShardedEngine`] splits the storage manager's state into `N` independent
//! shards, each owning a disjoint slice of the catalog (every logical video
//! is assigned to exactly one shard by a stable hash of its name), that
//! shard's GOP cache/recency state and its deferred-compression queue —
//! all behind the shard's own reader-writer lock. Clients operating on
//! videos in different shards never contend; read-only operations on the
//! same shard share a read lock.
//!
//! # Lock-ordering protocol
//!
//! 1. **Single-shard rule.** Every ordinary operation (create, delete,
//!    write, append, read, maintenance) touches exactly one logical video
//!    and therefore acquires exactly one shard lock. Holding a shard lock
//!    while calling back into the engine for a *different* video is
//!    forbidden.
//! 2. **Cross-shard rule.** The rare operations that need two shards at
//!    once (joint compression of a physically-proximate video pair) acquire
//!    the two locks in **ascending shard index** order, locking once when
//!    both videos share a shard. Because every multi-lock caller uses the
//!    same total order, cross-shard operations cannot deadlock regardless
//!    of the argument order.
//! 3. **Aggregation rule.** Whole-server operations (listing video names,
//!    statistics) visit shards one at a time and never
//!    hold more than one lock; they observe a point-in-time-per-shard view
//!    rather than a global snapshot, which is exactly the consistency the
//!    paper's statistics need.
//!
//! On disk, each shard is a fully self-contained store rooted at
//! `<root>/shard-NN/` (its own `catalog.json` and GOP files), and the shard
//! count is pinned in `<root>/server.json` so reopening a store routes every
//! existing video to the shard that owns its files.

use crate::stats::{ShardStats, ShardStatsSnapshot};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::path::{Path, PathBuf};
use std::time::Instant;
use vss_core::{
    joint_compress_sequences, Engine, JointOutcome, JointTimings, MergeFunction,
    ReadRequest, ReadResult, ReadStream, StorageBudget, VssConfig, VssError, WriteRequest,
    WriteReport,
};
use vss_frame::{FrameSequence, PixelFormat};

/// Default shard count when `0` is requested. Shards stripe locks rather
/// than CPUs, so the default is a fixed fan-out (not the core count): wide
/// enough that a handful of concurrent clients rarely collide, small enough
/// that whole-server sweeps stay cheap.
pub const DEFAULT_SHARD_COUNT: usize = 8;

const MANIFEST_FILE: &str = "server.json";

#[derive(serde::Serialize, serde::Deserialize)]
struct ServerManifest {
    shards: usize,
}

/// One shard: an [`Engine`] behind a reader-writer lock, plus its counters.
pub(crate) struct Shard {
    engine: RwLock<Engine>,
    stats: ShardStats,
    /// The shard index as a string — the `shard_lock` span target and the
    /// `{shard=N}` label value, rendered once at construction.
    label: String,
}

impl Shard {
    /// Shared acquisition, recording the time spent waiting. The wait is a
    /// `server`-layer span, so a traced request shows its shard-lock stage
    /// between the net worker and the engine operation.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Engine> {
        let _span = vss_telemetry::span("server", "shard_lock", self.label.as_str());
        let started = Instant::now();
        let guard = self.engine.read();
        self.stats.record_lock_wait(started.elapsed());
        guard
    }

    /// Exclusive acquisition, recording the time spent waiting.
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, Engine> {
        let _span = vss_telemetry::span("server", "shard_lock", self.label.as_str());
        let started = Instant::now();
        let guard = self.engine.write();
        self.stats.record_lock_wait(started.elapsed());
        guard
    }

    /// Shared acquisition *without* lock-wait accounting (statistics
    /// observers use this so polling never counts as client contention).
    pub(crate) fn read_quiet(&self) -> RwLockReadGuard<'_, Engine> {
        self.engine.read()
    }

    /// Non-blocking exclusive acquisition (used by maintenance workers so a
    /// busy shard is skipped rather than stalled on).
    pub(crate) fn try_write(&self) -> Option<RwLockWriteGuard<'_, Engine>> {
        self.engine.try_write()
    }
}

/// A stable, dependency-free hash for shard routing (FNV-1a, 64-bit). The
/// assignment of videos to shards is part of the on-disk layout, so this
/// must never change for existing stores.
fn route_hash(name: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The sharded storage-manager engine. All operations take `&self`; the
/// type is `Send + Sync` and designed to be shared across client threads.
pub struct ShardedEngine {
    root: PathBuf,
    shards: Vec<Shard>,
}

impl ShardedEngine {
    /// Opens (or creates) a sharded store rooted at the configuration's
    /// directory. `shards = 0` selects [`DEFAULT_SHARD_COUNT`]. Reopening an
    /// existing store always uses the shard count it was created with (the
    /// requested count is ignored), because video→shard routing determines
    /// where each video's files live.
    pub fn open(config: VssConfig, shards: usize) -> Result<Self, VssError> {
        let root = config.root.clone();
        std::fs::create_dir_all(&root).map_err(vss_catalog_io)?;
        let shard_count = match Self::load_manifest(&root)? {
            Some(existing) => existing,
            None => {
                let count = if shards == 0 { DEFAULT_SHARD_COUNT } else { shards };
                let manifest = ServerManifest { shards: count };
                let text = serde_json::to_string_pretty(&manifest)
                    .map_err(|e| VssError::Unsatisfiable(format!("manifest encode: {e}")))?;
                // The manifest pins the shard count for the store's lifetime
                // (routing depends on it), so its write must survive a crash:
                // temp-then-rename with file and directory fsyncs.
                vss_catalog::durable::write_atomic(&root.join(MANIFEST_FILE), text.as_bytes())
                    .map_err(vss_catalog_io)?;
                count
            }
        };
        let mut shard_list = Vec::with_capacity(shard_count);
        for index in 0..shard_count {
            let mut shard_config = config.clone();
            shard_config.root = root.join(format!("shard-{index:02}"));
            shard_list.push(Shard {
                engine: RwLock::new(Engine::open(shard_config)?),
                stats: ShardStats::new(index),
                label: index.to_string(),
            });
        }
        Ok(Self { root, shards: shard_list })
    }

    fn load_manifest(root: &Path) -> Result<Option<usize>, VssError> {
        let path = root.join(MANIFEST_FILE);
        if !path.exists() {
            return Ok(None);
        }
        let text = std::fs::read_to_string(&path).map_err(vss_catalog_io)?;
        let manifest: ServerManifest = serde_json::from_str(&text)
            .map_err(|e| VssError::Unsatisfiable(format!("corrupt server manifest: {e}")))?;
        if manifest.shards == 0 {
            return Err(VssError::Unsatisfiable("server manifest declares zero shards".into()));
        }
        Ok(Some(manifest.shards))
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of shards (fixed at store creation).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns a logical video name.
    pub fn shard_of(&self, name: &str) -> usize {
        (route_hash(name) % self.shards.len() as u64) as usize
    }

    fn shard(&self, name: &str) -> &Shard {
        &self.shards[self.shard_of(name)]
    }

    // --- routed single-shard operations ------------------------------------

    /// Creates a logical video, optionally with an explicit storage budget.
    pub fn create_video(&self, name: &str, budget: Option<StorageBudget>) -> Result<(), VssError> {
        self.shard(name).write().create_video(name, budget)
    }

    /// Deletes a logical video and all of its data.
    pub fn delete_video(&self, name: &str) -> Result<(), VssError> {
        self.shard(name).write().delete_video(name)
    }

    /// Writes a frame sequence to a logical video (creating it if needed).
    /// The GOPs are encoded with **no** shard lock held; the exclusive lock
    /// is taken once, to persist them all in order.
    pub fn write(&self, request: &WriteRequest, frames: &FrameSequence) -> Result<WriteReport, VssError> {
        let shard = self.shard(&request.name);
        let write = shard.read().begin_incremental_write(request, frames.frame_rate())?;
        let report = write.commit_batch("write", frames, || shard.write())?;
        shard.stats.record_write(&report);
        Ok(report)
    }

    /// Appends frames to a logical video's original representation (locking
    /// like [`write`](Self::write)).
    pub fn append(&self, name: &str, frames: &FrameSequence) -> Result<WriteReport, VssError> {
        let shard = self.shard(name);
        let write = shard.read().begin_incremental_append(name, frames.frame_rate())?;
        let report = write.commit_batch("append", frames, || shard.write())?;
        shard.stats.record_write(&report);
        Ok(report)
    }

    /// Executes a read planned by `request.planner` (optimal by default).
    ///
    /// Cacheable reads may admit their result as a new materialized view, so
    /// they take the shard's exclusive lock. Non-cacheable reads never
    /// admit: their plan is snapshotted under the shard's *shared* lock and
    /// the stream is drained after releasing it, concurrently with every
    /// other client of the shard. Both paths return byte-identical results
    /// for the same request and store state.
    pub fn read(&self, request: &ReadRequest) -> Result<ReadResult, VssError> {
        let shard = self.shard(&request.name);
        let result = if request.cacheable {
            shard.write().read(request)?
        } else {
            let stream = shard.read().read_stream(request)?;
            stream.drain()?
        };
        shard.stats.record_read(&result.stats);
        Ok(result)
    }

    /// Opens a GOP-at-a-time streaming read.
    ///
    /// The plan is snapshotted under the owning shard's **shared** lock —
    /// range validation, candidate collection, planning, recency bookkeeping
    /// and resolving every planned GOP to its on-disk file — and the lock is
    /// released before this method returns. The stream then decodes
    /// completely lock-free: the shard lock is never held across GOP file
    /// reads, so an arbitrarily slow streaming consumer cannot starve other
    /// clients of the shard. Streaming reads never admit results to the
    /// cache (use [`read`](Self::read) for cache-admitting reads).
    ///
    /// The drained stream is byte-identical to [`read`](Self::read) of the
    /// same request against the same store state.
    pub fn read_stream(&self, request: &ReadRequest) -> Result<ReadStream, VssError> {
        let shard = self.shard(&request.name);
        let stream = shard.read().read_stream(request)?;
        // The shard lock is released here; account the read at open time
        // (bytes flow lock-free afterwards and are reported in the stream's
        // own stats).
        shard.stats.record_stream_open(&stream.stats());
        Ok(stream)
    }

    /// Begins an incremental write under the shard's shared lock (released
    /// before this returns; the sink re-takes the lock per GOP).
    pub(crate) fn begin_sink(
        &self,
        request: &WriteRequest,
        frame_rate: f64,
    ) -> Result<vss_core::IncrementalWrite, VssError> {
        self.shard(&request.name).read().begin_incremental_write(request, frame_rate)
    }

    /// Begins an incremental append (see [`begin_sink`](Self::begin_sink)).
    pub(crate) fn begin_append_sink(
        &self,
        name: &str,
        frame_rate: f64,
    ) -> Result<vss_core::IncrementalWrite, VssError> {
        self.shard(name).read().begin_incremental_append(name, frame_rate)
    }

    /// Persists one GOP of an incremental write under the owning shard's
    /// exclusive lock (held per GOP, not for the whole ingest). The GOP was
    /// encoded by the sink, **without** any shard lock.
    pub(crate) fn push_sink_encoded(
        &self,
        write: &mut vss_core::IncrementalWrite,
        gop: &vss_codec::EncodedGop,
    ) -> Result<(), VssError> {
        let shard = self.shard(write.name());
        shard.write().push_incremental_encoded(write, gop)
    }

    /// Completes an incremental write and accounts it in the shard's stats.
    pub(crate) fn finish_sink(
        &self,
        write: &mut vss_core::IncrementalWrite,
    ) -> Result<WriteReport, VssError> {
        let shard = self.shard(write.name());
        let report = shard.write().finish_incremental_write(write)?;
        shard.stats.record_write(&report);
        Ok(report)
    }

    /// Storage accounting for one logical video.
    pub fn metadata(&self, name: &str) -> Result<vss_core::VideoMetadata, VssError> {
        self.shard(name).read().metadata(name)
    }

    /// Time range `[start, end)` in seconds covered by a logical video.
    pub fn video_time_range(&self, name: &str) -> Result<(f64, f64), VssError> {
        self.shard(name).read().video_time_range(name)
    }

    /// Names of all logical videos across all shards, sorted. Visits shards
    /// one at a time (aggregation rule: never holds two locks).
    pub fn video_names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.shards.iter().flat_map(|shard| shard.read().video_names()).collect();
        names.sort();
        names
    }

    /// Bytes used by a logical video across all physical representations.
    pub fn bytes_used(&self, name: &str) -> Result<u64, VssError> {
        self.shard(name).read().bytes_used(name)
    }

    /// The storage budget of a logical video in bytes, if bounded.
    pub fn budget_bytes(&self, name: &str) -> Result<Option<u64>, VssError> {
        self.shard(name).read().budget_bytes(name)
    }

    /// Fraction of the storage budget currently consumed.
    pub fn budget_fraction(&self, name: &str) -> Result<Option<f64>, VssError> {
        self.shard(name).read().budget_fraction(name)
    }

    /// Runs compaction for a logical video, returning the number of merges.
    pub fn compact(&self, name: &str) -> Result<usize, VssError> {
        self.shard(name).write().compact_video(name)
    }

    /// Runs a function with exclusive access to the engine shard owning
    /// `name` (used by experiments to tweak configuration mid-run).
    pub fn with_engine<R>(&self, name: &str, f: impl FnOnce(&mut Engine) -> R) -> R {
        f(&mut self.shard(name).write())
    }

    /// Runs a function with shared access to the engine shard owning `name`
    /// (used by live catch-up readers to snapshot the persisted timeline
    /// without blocking other readers of the shard).
    pub fn with_engine_read<R>(&self, name: &str, f: impl FnOnce(&Engine) -> R) -> R {
        f(&self.shard(name).read())
    }

    /// Non-blocking [`with_engine`](Self::with_engine): returns `None`
    /// without running `f` when a foreground request holds the owning
    /// shard's lock (used by background retention sweeps, which — like
    /// deferred compression — must never stall a client).
    pub fn try_with_engine<R>(&self, name: &str, f: impl FnOnce(&mut Engine) -> R) -> Option<R> {
        self.shard(name).try_write().map(|mut engine| f(&mut engine))
    }

    /// Installs (or clears) a live-fanout publisher on **every** shard's
    /// engine, so original-timeline GOPs persisted anywhere in the store are
    /// published to the same hub (see [`vss_core::GopPublisher`]).
    pub fn set_publisher(&self, publisher: Option<std::sync::Arc<dyn vss_core::GopPublisher>>) {
        for shard in &self.shards {
            shard.write().set_publisher(publisher.clone());
        }
    }

    // --- maintenance --------------------------------------------------------

    /// Runs one unit of background maintenance (deferred compression or
    /// compaction) on one shard for the background scheduler: skips the
    /// shard (returning `None`) when a foreground request holds its lock,
    /// matching the paper's "when no other requests are being executed";
    /// otherwise returns `Some(true)` if any work was performed.
    pub fn try_maintain_shard(&self, index: usize) -> Result<Option<bool>, VssError> {
        match self.shards[index].try_write() {
            Some(mut engine) => engine.background_maintenance().map(Some),
            None => Ok(None),
        }
    }

    // --- cross-shard operations ---------------------------------------------

    /// Jointly compresses the temporally overlapping portion of two logical
    /// videos (the paper's physically-proximate camera-pair optimization,
    /// Section 5.1), returning the outcome.
    ///
    /// This is the canonical cross-shard operation: it acquires both owning
    /// shards' locks **in ascending shard index order** (one lock when the
    /// videos share a shard). The computation only reads, so *shared* guards
    /// suffice — concurrent readers of either shard are not blocked for the
    /// duration of the (CPU-heavy) compression. The ordering is still
    /// load-bearing even for read locks: with a write-preferring lock, two
    /// unordered two-lock readers plus one single-lock writer can cycle
    /// (reader A holds shard 1 / waits shard 2 behind a pending writer whose
    /// own wait is on reader B, who waits on shard 1). A future persistence
    /// step that rewrites GOPs as joint artifacts must take the same
    /// ascending-order acquisition with exclusive guards.
    pub fn joint_compress(
        &self,
        left: &str,
        right: &str,
        merge: MergeFunction,
    ) -> Result<JointOutcome, VssError> {
        if left == right {
            return Err(VssError::Unsatisfiable(
                "joint compression needs two distinct videos".into(),
            ));
        }
        let left_shard = self.shard_of(left);
        let right_shard = self.shard_of(right);
        if left_shard == right_shard {
            let guard = self.shards[left_shard].read();
            return Self::joint_compress_locked(&guard, &guard, left, right, merge);
        }
        // Lock-ordering protocol, cross-shard rule: ascending shard index.
        let (low, high) = (left_shard.min(right_shard), left_shard.max(right_shard));
        let low_guard = self.shards[low].read();
        let high_guard = self.shards[high].read();
        let (left_engine, right_engine): (&Engine, &Engine) = if left_shard < right_shard {
            (&low_guard, &high_guard)
        } else {
            (&high_guard, &low_guard)
        };
        Self::joint_compress_locked(left_engine, right_engine, left, right, merge)
    }

    fn joint_compress_locked(
        left_engine: &Engine,
        right_engine: &Engine,
        left: &str,
        right: &str,
        merge: MergeFunction,
    ) -> Result<JointOutcome, VssError> {
        let (left_start, left_end) = left_engine.video_time_range(left)?;
        let (right_start, right_end) = right_engine.video_time_range(right)?;
        let start = left_start.max(right_start);
        let end = left_end.min(right_end);
        if end <= start + 1e-9 {
            return Err(VssError::Unsatisfiable(format!(
                "'{left}' and '{right}' do not overlap in time"
            )));
        }
        let raw = vss_codec::Codec::Raw(PixelFormat::Rgb8);
        let left_frames = left_engine
            .read_stream(&ReadRequest::new(left, start, end, raw).uncacheable())?
            .drain()?
            .frames;
        let right_frames = right_engine
            .read_stream(&ReadRequest::new(right, start, end, raw).uncacheable())?
            .drain()?
            .frames;
        let encoder = vss_codec::EncoderConfig {
            quality: vss_core::DEFAULT_ENCODER_QUALITY,
            gop_size: left_engine.config.gop_size,
        };
        let mut timings = JointTimings::default();
        joint_compress_sequences(
            &left_frames,
            &right_frames,
            merge,
            &left_engine.config.joint,
            &encoder,
            None,
            &mut timings,
        )
    }

    // --- statistics ---------------------------------------------------------

    /// Point-in-time statistics for every shard (aggregation rule: one lock
    /// at a time, read locks only). Uses *quiet* lock acquisition: an
    /// observer waiting behind a busy shard must not inflate the lock-wait
    /// metric it is about to report as client contention.
    pub fn shard_stats(&self) -> Vec<ShardStatsSnapshot> {
        self.shards
            .iter()
            .enumerate()
            .map(|(index, shard)| {
                let videos = shard.read_quiet().video_names().len();
                shard.stats.snapshot(index, videos)
            })
            .collect()
    }
}

/// Wraps a manifest I/O error into the engine's error type.
fn vss_catalog_io(error: std::io::Error) -> VssError {
    VssError::Catalog(error.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable() {
        // The hash is part of the on-disk contract; pin a few values.
        assert_eq!(route_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(route_hash("a"), route_hash("a"));
        assert_ne!(route_hash("a"), route_hash("b"));
    }

    #[test]
    fn shard_assignment_spreads_names() {
        let names: Vec<String> = (0..64).map(|i| format!("camera-{i}")).collect();
        let shards = 8u64;
        let mut seen = std::collections::BTreeSet::new();
        for name in &names {
            seen.insert(route_hash(name) % shards);
        }
        assert!(seen.len() >= 4, "64 names should land on several of 8 shards, got {seen:?}");
    }
}
