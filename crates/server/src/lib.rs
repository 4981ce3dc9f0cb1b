//! # vss-server
//!
//! The multi-client service layer of the VSS reproduction: a **sharded
//! concurrent engine** plus a cheap-to-clone, `Send + Sync` server handle
//! with per-client sessions — the subsystem behind the paper's Figure 21
//! experiment (many concurrent application clients sharing one storage
//! manager).
//!
//! A [`vss_core::Vss`] is one shard: an engine behind a reader-writer
//! lock, shared to plan and begin, exclusive per commit, with its lock waits
//! accounted. [`VssServer`] is N of them plus routing: each logical video is
//! assigned to one shard by a stable hash of its name, and each shard keeps
//! its slice of the catalog, its GOP cache/recency state and its
//! deferred-compression queue to itself:
//!
//! * clients on videos in **different shards** proceed fully in parallel;
//! * within a shard the discipline is `Vss`'s own: every read shares the
//!   lock only to snapshot its plan and decodes after releasing it, and a
//!   read with a view to admit takes it exclusively only for that commit;
//!   writes take it exclusively only to persist GOPs they encoded with no
//!   lock held.
//!
//! Sharding never changes results: for any shard count, every operation's
//! output is byte-identical to a standalone `Vss`, because a logical video's
//! entire state lives in exactly one shard and a session calls the very
//! `Vss` methods an in-process client does. The server adds what only a
//! service needs: sessions, admission control and shutdown, per-shard
//! statistics and live subscriptions.
//!
//! # One shard lock per operation; maintenance is the caller's
//!
//! Every operation touches one logical video and so acquires at most one
//! shard lock; listing names visits the shards one at a time, and
//! statistics take no lock. No operation ever holds two shard locks, so
//! there is no lock order to keep. The server starts no thread of its own.
//! A host that wants idle maintenance (deferred compression, compaction)
//! runs it on its own schedule, one shard at a time:
//! `session.with_engine(name, Engine::background_maintenance)`.
//!
//! # Sessions, admission control and shutdown
//!
//! [`VssServer::session`] hands out lightweight [`Session`] handles (one per
//! client thread, or per logical request stream). Sessions borrow nothing:
//! they are owned values over an `Arc`'d server and implement every
//! read/write/create operation with `&self`.
//!
//! Untrusted entry points (the `vss-net` TCP front-end) admit sessions
//! through [`VssServer::try_session`] instead, which enforces the
//! [`ServerConfig`] limit on concurrent sessions by shedding a session over
//! it at once with [`VssError::Overloaded`]; nothing queues. One
//! admitted session serves one *client*: on
//! the multiplexed protocol (v3) all of a connection's concurrent streams
//! share its single session (the `Session` is `&self` throughout, so the
//! per-stream workers operate on one `Arc`'d handle), and a client counts
//! against `max_concurrent_sessions` exactly once however many streams it
//! runs. [`VssServer::shutdown`] drains the server
//! gracefully: new sessions are refused while existing sessions *and
//! in-flight incremental writes* run to completion, so a shutdown never cuts
//! a [`Session::write_sink`] off mid-GOP.
//!
//! ```no_run
//! use vss_core::{ReadRequest, VssConfig, WriteRequest};
//! use vss_server::VssServer;
//! # fn frames() -> vss_frame::FrameSequence { unimplemented!() }
//!
//! let server = VssServer::open(VssConfig::new("/tmp/store")).unwrap();
//! let writer = server.session();
//! writer.write(&WriteRequest::new("cam-3", vss_codec::Codec::H264), &frames()).unwrap();
//! let reader = server.session();
//! std::thread::spawn(move || {
//!     reader.read(&ReadRequest::new("cam-3", 0.0, 1.0, vss_codec::Codec::H264)).unwrap();
//! });
//! ```

#![warn(missing_docs)]

mod shard;
mod stats;

pub use shard::DEFAULT_SHARD_COUNT;
pub use stats::{ServerStats, ShardStatsSnapshot};
pub use vss_live::{LiveGop, LiveHub, SubEvent, SubscribeFrom, Subscription};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use shard::ShardedEngine;
use stats::ShardStats;
use vss_catalog::CatalogError;
use vss_core::{
    EncodedGopBackend, Engine, IncrementalWrite, ReadRequest, ReadResult, ReadStream,
    StorageBudget, VideoMetadata, VideoStorage, Vss, VssConfig, VssError, VssSinkBackend,
    WriteRequest, WriteReport, WriteSink,
};
use vss_frame::FrameSequence;
use vss_live::CatchupSource;

/// Cached `&'static` handles into the process-global telemetry registry —
/// looked up once, recorded through plain atomics on the hot paths.
mod metrics {
    use std::sync::OnceLock;
    use vss_telemetry::{Counter, Gauge};

    /// `server.admission.active`: live sessions + in-flight incremental
    /// writes (everything holding an activity permit).
    pub(crate) fn active() -> &'static Gauge {
        static G: OnceLock<&'static Gauge> = OnceLock::new();
        G.get_or_init(|| vss_telemetry::gauge("server.admission.active"))
    }

    /// `server.admission.shed_total`: sessions refused with `Overloaded`.
    pub(crate) fn shed_total() -> &'static Counter {
        static C: OnceLock<&'static Counter> = OnceLock::new();
        C.get_or_init(|| vss_telemetry::counter("server.admission.shed_total"))
    }

    /// `server.admission.shed{code=...}`: sheds broken out by why —
    /// `shutdown` (server refusing new work) vs `overloaded` (limits hit).
    /// The shed path is cold, so the per-call interning lookup is fine.
    pub(crate) fn shed(code: &str) -> &'static Counter {
        vss_telemetry::counter_with("server.admission.shed", &[("code", code)])
    }

    /// `server.admission.in_flight_bytes`: bytes currently in flight through
    /// streaming transfers (mirrors [`VssServer::in_flight_bytes`]).
    pub(crate) fn in_flight_bytes() -> &'static Gauge {
        static G: OnceLock<&'static Gauge> = OnceLock::new();
        G.get_or_init(|| vss_telemetry::gauge("server.admission.in_flight_bytes"))
    }
}

/// Admission-control knobs of a [`VssServer`]: how many sessions may be
/// active at once before a new session is shed with
/// [`VssError::Overloaded`] (default: unlimited), and how deep each live
/// subscriber's queue is.
///
/// Only [`VssServer::try_session`] enforces the session limit;
/// [`VssServer::session`] is the trusted in-process escape hatch that always
/// admits (but is still counted, so shutdown drains it too). The `vss-net`
/// network front-end admits every TCP connection through `try_session`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerConfig {
    /// Maximum concurrently active sessions (plus in-flight incremental
    /// writes, which count as activity even after their session is dropped).
    /// `0` = unlimited.
    pub max_concurrent_sessions: usize,
    /// Bound on each live subscriber's in-memory GOP queue before the hub's
    /// lag policy drops it back to catch-up reads (see
    /// [`Session::subscribe`]). `0` =
    /// [`vss_live::DEFAULT_QUEUE_CAPACITY`]; tests force lag with tiny
    /// capacities.
    pub live_queue_capacity: usize,
}

/// A shared, thread-safe VSS server handle. Cheap to clone; all clones (and
/// all [`Session`]s) share the same sharded engine.
#[derive(Clone)]
pub struct VssServer {
    inner: Arc<ServerInner>,
}

struct ServerInner {
    engine: ShardedEngine,
    /// The live-fanout hub, installed as every shard engine's publisher at
    /// open: GOPs persisted anywhere in the store fan out to subscribers.
    hub: Arc<LiveHub>,
    next_session: AtomicU64,
    server_config: ServerConfig,
    /// Count of active sessions + in-flight incremental writes, guarded by a
    /// mutex so [`VssServer::shutdown`] can wait on `admission_signal`.
    admission: Mutex<usize>,
    admission_signal: Condvar,
    in_flight_bytes: AtomicU64,
    rejected_sessions: AtomicU64,
    shutting_down: AtomicBool,
}

/// RAII counter of one unit of server activity (a session or an in-flight
/// incremental write); dropping it releases the slot and wakes
/// [`VssServer::shutdown`].
struct ActivityPermit {
    inner: Arc<ServerInner>,
}

impl ActivityPermit {
    fn acquire(inner: &Arc<ServerInner>) -> Self {
        *inner.admission.lock().expect("admission lock") += 1;
        Self::claimed(Arc::clone(inner))
    }

    /// Wraps a slot already counted under the admission lock.
    fn claimed(inner: Arc<ServerInner>) -> Self {
        metrics::active().add(1);
        Self { inner }
    }
}

impl Drop for ActivityPermit {
    fn drop(&mut self) {
        metrics::active().sub(1);
        let mut active = self.inner.admission.lock().expect("admission lock");
        *active = active.saturating_sub(1);
        self.inner.admission_signal.notify_all();
    }
}

/// RAII record of bytes currently in flight through a streaming transfer
/// (one chunk of frames on its way to or from a socket, held until it has
/// been sent or persisted). Obtained from [`VssServer::track_in_flight`];
/// dropping it subtracts the bytes.
pub struct InFlightBytes {
    inner: Arc<ServerInner>,
    bytes: u64,
}

impl Drop for InFlightBytes {
    fn drop(&mut self) {
        metrics::in_flight_bytes().sub(self.bytes as i64);
        self.inner.in_flight_bytes.fetch_sub(self.bytes, Ordering::SeqCst);
    }
}

impl VssServer {
    /// Opens (or creates) a sharded store with the default shard count.
    pub fn open(config: VssConfig) -> Result<Self, VssError> {
        Self::open_sharded(config, 0)
    }

    /// Opens (or creates) a sharded store with an explicit shard count
    /// (`0` = [`DEFAULT_SHARD_COUNT`]). Reopening an existing store keeps
    /// the shard count it was created with.
    pub fn open_sharded(config: VssConfig, shards: usize) -> Result<Self, VssError> {
        Self::open_configured(config, shards, ServerConfig::default())
    }

    /// [`open_sharded`](Self::open_sharded) with explicit admission-control
    /// limits.
    pub fn open_configured(
        config: VssConfig,
        shards: usize,
        server_config: ServerConfig,
    ) -> Result<Self, VssError> {
        let capacity = if server_config.live_queue_capacity == 0 {
            vss_live::DEFAULT_QUEUE_CAPACITY
        } else {
            server_config.live_queue_capacity
        };
        let hub = LiveHub::new(capacity);
        let engine = ShardedEngine::open(config, shards)?;
        // Every shard publishes to the same hub, so a subscription follows
        // its video wherever the name routes.
        for vss in engine.shards() {
            vss.with_engine(|engine| engine.set_publisher(Some(hub.clone())));
        }
        Ok(Self {
            inner: Arc::new(ServerInner {
                engine,
                hub,
                next_session: AtomicU64::new(0),
                server_config,
                admission: Mutex::new(0),
                admission_signal: Condvar::new(),
                in_flight_bytes: AtomicU64::new(0),
                rejected_sessions: AtomicU64::new(0),
                shutting_down: AtomicBool::new(false),
            }),
        })
    }

    /// Opens a server rooted at a directory with default configuration.
    pub fn open_at(root: impl Into<std::path::PathBuf>) -> Result<Self, VssError> {
        Self::open(VssConfig::new(root))
    }

    /// Creates a new client session, bypassing admission limits (the trusted
    /// in-process escape hatch — experiments, maintenance tooling, tests).
    /// The session is still counted as activity, so
    /// [`shutdown`](Self::shutdown) waits for it. Untrusted multi-process
    /// entry points (the `vss-net` front-end) must use
    /// [`try_session`](Self::try_session) instead.
    pub fn session(&self) -> Session {
        Session {
            id: self.inner.next_session.fetch_add(1, Ordering::Relaxed),
            _permit: ActivityPermit::acquire(&self.inner),
            server: self.clone(),
        }
    }

    /// Creates a new client session subject to the configured
    /// [`ServerConfig`] admission limits.
    ///
    /// When the server is at its session limit, or is shutting down, the
    /// session is shed at once with
    /// [`VssError::Overloaded`]; the caller decides whether to try again.
    pub fn try_session(&self) -> Result<Session, VssError> {
        let config = &self.inner.server_config;
        let mut active = self.inner.admission.lock().expect("admission lock");
        let shed = |code: &str, message: String| {
            metrics::shed_total().incr();
            metrics::shed(code).incr();
            self.inner.rejected_sessions.fetch_add(1, Ordering::Relaxed);
            Err(VssError::Overloaded(message))
        };
        if self.inner.shutting_down.load(Ordering::SeqCst) {
            return shed("shutdown", "server is shutting down".into());
        }
        if config.max_concurrent_sessions != 0 && *active >= config.max_concurrent_sessions {
            return shed(
                "overloaded",
                format!(
                    "admission limit reached: {active} active session(s) (limit {})",
                    config.max_concurrent_sessions
                ),
            );
        }
        *active += 1;
        drop(active);
        Ok(Session {
            id: self.inner.next_session.fetch_add(1, Ordering::Relaxed),
            // The slot was already claimed under the lock above.
            _permit: ActivityPermit::claimed(Arc::clone(&self.inner)),
            server: self.clone(),
        })
    }

    /// The admission-control configuration this server was opened with.
    pub fn server_config(&self) -> ServerConfig {
        self.inner.server_config
    }

    /// Sessions (plus in-flight incremental writes) currently active.
    pub fn active_sessions(&self) -> usize {
        *self.inner.admission.lock().expect("admission lock")
    }

    /// Bytes currently in flight through streaming transfers.
    pub fn in_flight_bytes(&self) -> u64 {
        self.inner.in_flight_bytes.load(Ordering::SeqCst)
    }

    /// Sessions shed by admission control since the server was opened.
    pub fn rejected_sessions(&self) -> u64 {
        self.inner.rejected_sessions.load(Ordering::Relaxed)
    }

    /// Records `bytes` as in flight through a streaming transfer until the
    /// returned guard is dropped. The total is what
    /// [`in_flight_bytes`](Self::in_flight_bytes) and the
    /// `server.admission.in_flight_bytes` gauge report.
    pub fn track_in_flight(&self, bytes: u64) -> InFlightBytes {
        metrics::in_flight_bytes().add(bytes as i64);
        self.inner.in_flight_bytes.fetch_add(bytes, Ordering::SeqCst);
        InFlightBytes { inner: Arc::clone(&self.inner), bytes }
    }

    /// True once [`begin_shutdown`](Self::begin_shutdown) or
    /// [`shutdown`](Self::shutdown) has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutting_down.load(Ordering::SeqCst)
    }

    /// Starts a graceful shutdown without waiting: new
    /// [`try_session`](Self::try_session) calls are refused with
    /// [`VssError::Overloaded`] from this point on, while existing sessions
    /// (and in-flight incremental writes) keep running.
    pub fn begin_shutdown(&self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Gracefully shuts the server down: refuses new sessions (like
    /// [`begin_shutdown`](Self::begin_shutdown)) and then waits up to
    /// `timeout` for every active session **and every in-flight incremental
    /// write** to finish — a [`Session::write_sink`] counts as activity even
    /// after its session is dropped, so a drain that returns `true`
    /// guarantees no write was cut off mid-GOP (the sink layer additionally
    /// guarantees that an *aborted* sink leaves only fully persisted GOPs).
    ///
    /// Returns `true` once the server is drained, `false` on timeout (the
    /// shutdown flag stays set either way). The caller must have dropped its
    /// own sessions first.
    pub fn shutdown(&self, timeout: Duration) -> bool {
        self.begin_shutdown();
        let deadline = Instant::now() + timeout;
        let mut active = self.inner.admission.lock().expect("admission lock");
        while *active > 0 {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return false;
            }
            let (guard, _timeout) = self
                .inner
                .admission_signal
                .wait_timeout(active, remaining)
                .expect("admission lock");
            active = guard;
        }
        true
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.engine.shards().len()
    }

    /// The shard owning a logical video name.
    pub fn shard_of(&self, name: &str) -> usize {
        self.inner.engine.shard_of(name)
    }

    /// Point-in-time per-shard statistics. Takes no lock.
    pub fn stats(&self) -> ServerStats {
        ServerStats { shards: self.inner.engine.shard_stats() }
    }

    /// The server's live-fanout hub (for observability: channel and
    /// subscriber counts). Subscriptions are opened through
    /// [`Session::subscribe`], not directly on the hub.
    pub fn hub(&self) -> &Arc<LiveHub> {
        &self.inner.hub
    }
}

impl ServerInner {
    /// Opens a streaming read on the owning shard and counts it there at
    /// open time: the plan (and so the cache-hit signal) is known now; the
    /// bytes flow lock-free afterwards and are reported in the stream's own
    /// stats.
    fn open_stream(&self, request: &ReadRequest) -> Result<ReadStream, VssError> {
        let (vss, stats) = self.engine.route(&request.name);
        let stream = vss.read_stream(request)?;
        stats.record_stream_open(&stream.stats());
        Ok(stream)
    }
}

/// A per-client handle to a [`VssServer`]. All operations take `&self`; the
/// session routes each call to the shard owning the target video. Dropping
/// the session releases its admission slot (see [`VssServer::try_session`]).
pub struct Session {
    server: VssServer,
    id: u64,
    /// Holds the session's admission slot; released on drop.
    _permit: ActivityPermit,
}

impl Session {
    /// The session's server-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The server this session belongs to.
    pub fn server(&self) -> &VssServer {
        &self.server
    }

    /// The shard that owns `name`, and its operation counters.
    fn route(&self, name: &str) -> (&Vss, &ShardStats) {
        self.server.inner.engine.route(name)
    }

    /// Creates a logical video, optionally with an explicit storage budget.
    pub fn create(&self, name: &str, budget: Option<StorageBudget>) -> Result<(), VssError> {
        self.route(name).0.create(name, budget)
    }

    /// Deletes a logical video and all of its data.
    pub fn delete(&self, name: &str) -> Result<(), VssError> {
        self.route(name).0.delete(name)
    }

    /// Writes a frame sequence to a logical video (creating it if needed).
    pub fn write(&self, request: &WriteRequest, frames: &FrameSequence) -> Result<WriteReport, VssError> {
        let (vss, stats) = self.route(&request.name);
        let report = vss.write(request, frames)?;
        stats.record_write(&report);
        Ok(report)
    }

    /// Appends frames to a logical video's original representation.
    pub fn append(&self, name: &str, frames: &FrameSequence) -> Result<WriteReport, VssError> {
        let (vss, stats) = self.route(name);
        let report = vss.append(name, frames)?;
        stats.record_write(&report);
        Ok(report)
    }

    /// Executes a read planned by `request.planner` (optimal by default),
    /// under the owning shard's lock discipline ([`Vss::read`]): planned
    /// under the shared lock, drained with no lock held, and, only if it has
    /// a view to admit, committed under the exclusive lock.
    pub fn read(&self, request: &ReadRequest) -> Result<ReadResult, VssError> {
        let (vss, stats) = self.route(&request.name);
        let result = vss.read(request)?;
        stats.record_read(&result.stats);
        Ok(result)
    }

    /// Opens a GOP-at-a-time streaming read: the plan is snapshotted under
    /// the owning shard's **read** lock and the lock is released before this
    /// returns — decoding runs lock-free, concurrently with every other
    /// client of the shard (the shard lock is never held across GOP file
    /// reads). Draining the stream is byte-identical to
    /// [`read`](Self::read); streaming reads never admit to the cache.
    /// The stream decodes on the thread that drains it and starts none of
    /// its own, so dropping it mid-flight leaves nothing to join.
    pub fn read_stream(&self, request: &ReadRequest) -> Result<ReadStream, VssError> {
        self.server.inner.open_stream(request)
    }

    /// Opens an incremental write: each GOP is persisted under the owning
    /// shard's write lock **per GOP**, so a slow producer never holds the
    /// shard across its whole ingest — and encode never holds the lock: the
    /// pushing thread encodes each GOP before taking it. The resulting
    /// store is byte-identical to a batch [`write`](Self::write) of the same
    /// frames; aborting the sink (dropping it mid-clip) leaves exactly the
    /// GOPs whose pushes returned.
    pub fn write_sink(
        &self,
        request: &WriteRequest,
        frame_rate: f64,
    ) -> Result<WriteSink<'static>, VssError> {
        self.sink(&request.name, |engine| engine.begin_incremental_write(request, frame_rate))
    }

    /// Opens an incremental append: [`write_sink`](Self::write_sink) onto
    /// the video's original timeline. The frames must have the original's
    /// frame rate (checked here) and resolution (checked before the first
    /// GOP is persisted); each GOP continues the timeline where it stands
    /// when persisted, so concurrent appenders interleave whole GOPs.
    pub fn append_sink(&self, name: &str, frame_rate: f64) -> Result<WriteSink<'static>, VssError> {
        self.sink(name, |engine| engine.begin_incremental_append(name, frame_rate))
    }

    /// Wraps the owning shard's [`VssSinkBackend`] to hold an activity
    /// permit for the sink's life and count the write when it finishes.
    fn sink(
        &self,
        name: &str,
        begin: impl FnOnce(&Engine) -> Result<IncrementalWrite, VssError>,
    ) -> Result<WriteSink<'static>, VssError> {
        struct SessionSinkBackend {
            inner: VssSinkBackend,
            server: VssServer,
            shard: usize,
            /// An in-flight sink is server activity in its own right: it must
            /// keep [`VssServer::shutdown`] waiting even if the session that
            /// opened it is dropped first, so no write is cut off mid-GOP.
            _permit: ActivityPermit,
        }
        impl EncodedGopBackend for SessionSinkBackend {
            fn flush_encoded(&mut self, gop: vss_codec::EncodedGop) -> Result<(), VssError> {
                self.inner.flush_encoded(gop)
            }
            fn finish(&mut self) -> Result<WriteReport, VssError> {
                let report = self.inner.finish()?;
                self.server.inner.engine.shard(self.shard).1.record_write(&report);
                Ok(report)
            }
        }
        let shard = self.server.inner.engine.shard_of(name);
        let inner = self.server.inner.engine.shard(shard).0.begin_sink(begin)?;
        let encoder = inner.encoder();
        Ok(WriteSink::encoding(
            Box::new(SessionSinkBackend {
                inner,
                server: self.server.clone(),
                shard,
                _permit: ActivityPermit::acquire(&self.server.inner),
            }),
            encoder,
        ))
    }

    /// Opens a tailing live subscription on a video: every original-timeline
    /// GOP persisted from now on (by any client's [`write`](Self::write),
    /// [`append`](Self::append) or [`write_sink`](Self::write_sink)) is
    /// delivered already-encoded, with zero re-encodes. Starting from
    /// [`SubscribeFrom::Start`] or [`SubscribeFrom::Seq`] first replays the
    /// persisted backlog by cursor-based catch-up, which serves the stored
    /// pages (snapshotted under the shard's shared lock, read with no lock
    /// held; no decode, no re-encode, no read op counted), and then seams
    /// onto the live feed exactly — no GOP duplicated or skipped. A
    /// subscriber that falls behind its bounded queue is transparently
    /// switched back to catch-up and re-seamed; the ingesting writer is
    /// never stalled. The video does not need to exist yet.
    ///
    /// Dropping the [`Subscription`] unsubscribes immediately (see
    /// [`vss_live`]); dropping the session does not end subscriptions it
    /// opened.
    pub fn subscribe(&self, name: &str, from: SubscribeFrom) -> Subscription {
        self.server.hub().subscribe(
            name,
            from,
            Box::new(SessionCatchupSource { server: self.server.clone() }),
        )
    }

    /// Storage accounting for one logical video.
    pub fn metadata(&self, name: &str) -> Result<VideoMetadata, VssError> {
        self.route(name).0.metadata(name)
    }

    /// Names of all logical videos in the store, sorted. Visits shards one
    /// at a time (aggregation rule: never holds two locks).
    pub fn video_names(&self) -> Vec<String> {
        let shards = self.server.inner.engine.shards();
        let mut names: Vec<String> = shards.iter().flat_map(Vss::video_names).collect();
        names.sort();
        names
    }

    /// Bytes used by a logical video across all physical representations.
    pub fn bytes_used(&self, name: &str) -> Result<u64, VssError> {
        self.route(name).0.bytes_used(name)
    }

    /// The storage budget of a logical video in bytes, if bounded.
    pub fn budget_bytes(&self, name: &str) -> Result<Option<u64>, VssError> {
        self.route(name).0.budget_bytes(name)
    }

    /// Fraction of the storage budget currently consumed.
    pub fn budget_fraction(&self, name: &str) -> Result<Option<f64>, VssError> {
        self.route(name).0.budget_fraction(name)
    }

    /// Runs a function with exclusive access to the engine shard owning
    /// `name` (experiment/ablation escape hatch: [`Vss::with_engine`] on
    /// that shard).
    pub fn with_engine<R>(&self, name: &str, f: impl FnOnce(&mut Engine) -> R) -> R {
        self.route(name).0.with_engine(f)
    }
}

/// A session speaks the same unified contract as every other store, so the
/// workload driver and benchmark harness can swap the sharded server in for
/// the monolithic engine or a baseline without code changes.
impl VideoStorage for Session {
    fn label(&self) -> &'static str {
        "vss-server"
    }

    fn create(&mut self, name: &str, budget: Option<StorageBudget>) -> Result<(), VssError> {
        Session::create(self, name, budget)
    }

    fn delete(&mut self, name: &str) -> Result<(), VssError> {
        Session::delete(self, name)
    }

    fn write(
        &mut self,
        request: &WriteRequest,
        frames: &FrameSequence,
    ) -> Result<WriteReport, VssError> {
        Session::write(self, request, frames)
    }

    fn append(&mut self, name: &str, frames: &FrameSequence) -> Result<WriteReport, VssError> {
        Session::append(self, name, frames)
    }

    fn read(&mut self, request: &ReadRequest) -> Result<ReadResult, VssError> {
        Session::read(self, request)
    }

    fn read_stream(&mut self, request: &ReadRequest) -> Result<ReadStream, VssError> {
        Session::read_stream(self, request)
    }

    fn write_sink(
        &mut self,
        request: &WriteRequest,
        frame_rate: f64,
    ) -> Result<WriteSink<'_>, VssError> {
        Session::write_sink(self, request, frame_rate)
    }

    fn metadata(&self, name: &str) -> Result<VideoMetadata, VssError> {
        Session::metadata(self, name)
    }
}

/// The server-side [`CatchupSource`]: snapshots the persisted
/// original-timeline GOPs under the owning shard's *read* lock — their page
/// paths and a catalog pin that keeps the pages — then serves the stored
/// pages with no lock held. A page is the writer's bytes (a deferred-
/// compressed one decompresses to them), so catch-up decodes and re-encodes
/// nothing, and it is not a client read: it counts no read op and moves no
/// recency clock.
struct SessionCatchupSource {
    server: VssServer,
}

impl CatchupSource for SessionCatchupSource {
    fn read_from(
        &mut self,
        name: &str,
        from_seq: u64,
        max_gops: usize,
    ) -> Result<Vec<LiveGop>, VssError> {
        let manifest = self.server.inner.engine.route(name).0.with_engine_read(|engine| {
            engine.original_gop_spans(name, from_seq, max_gops)
        });
        // No video / no data / nothing at the cursor yet: the subscription
        // waits (or seams onto the live feed).
        let Some(manifest) = manifest else { return Ok(Vec::new()) };
        let mut gops = Vec::with_capacity(manifest.spans.len());
        for span in &manifest.spans {
            let bytes = std::fs::read(&span.path).map_err(CatalogError::from)?;
            gops.push(LiveGop {
                seq: span.seq,
                start_time: span.start_time,
                end_time: span.end_time,
                frame_count: span.frame_count,
                frame_rate: manifest.frame_rate,
                gop: vss_codec::read_page(bytes)?,
            });
        }
        Ok(gops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel as bounded;
    use vss_codec::Codec;
    use vss_frame::{pattern, PixelFormat};

    fn temp_root(tag: &str) -> std::path::PathBuf {
        let root = std::env::temp_dir().join(format!(
            "vss-server-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn sequence(frames: usize, seed: u64) -> FrameSequence {
        let frames: Vec<_> = (0..frames)
            .map(|i| pattern::gradient(64, 48, PixelFormat::Yuv420, seed + i as u64))
            .collect();
        FrameSequence::new(frames, 30.0).unwrap()
    }

    /// Two names guaranteed to live on different shards of `server`.
    fn names_on_distinct_shards(server: &VssServer) -> (String, String) {
        let first = "cam-0".to_string();
        for i in 1..64 {
            let candidate = format!("cam-{i}");
            if server.shard_of(&candidate) != server.shard_of(&first) {
                return (first, candidate);
            }
        }
        panic!("no distinct shard found across 64 names");
    }

    #[test]
    fn session_round_trip_and_accounting() {
        let root = temp_root("roundtrip");
        let server = VssServer::open_sharded(VssConfig::new(&root), 4).unwrap();
        assert_eq!(server.shard_count(), 4);
        let writer = server.session();
        let reader = server.session();
        assert_ne!(writer.id(), reader.id());
        writer.write(&WriteRequest::new("v", Codec::H264), &sequence(60, 0)).unwrap();
        assert_eq!(reader.video_names(), vec!["v".to_string()]);
        assert!(reader.bytes_used("v").unwrap() > 0);
        assert!(reader.budget_bytes("v").unwrap().unwrap() > reader.bytes_used("v").unwrap());
        let result = reader.read(&ReadRequest::new("v", 0.0, 1.0, Codec::Hevc)).unwrap();
        assert_eq!(result.frames.len(), 30);
        writer.delete("v").unwrap();
        assert!(reader.video_names().is_empty());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn reopen_preserves_shard_count_and_data() {
        let root = temp_root("reopen");
        {
            let server = VssServer::open_sharded(VssConfig::new(&root), 3).unwrap();
            let session = server.session();
            for i in 0..6 {
                session
                    .write(&WriteRequest::new(format!("cam-{i}"), Codec::H264), &sequence(30, i))
                    .unwrap();
            }
        }
        // A different requested count is ignored: routing is on-disk layout.
        let server = VssServer::open_sharded(VssConfig::new(&root), 9).unwrap();
        assert_eq!(server.shard_count(), 3);
        let session = server.session();
        assert_eq!(session.video_names().len(), 6);
        for i in 0..6 {
            let read = session
                .read(&ReadRequest::new(format!("cam-{i}"), 0.0, 1.0, Codec::H264).uncacheable())
                .unwrap();
            assert_eq!(read.frames.len(), 30);
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn clients_on_distinct_videos_take_distinct_locks() {
        let root = temp_root("distinct");
        let server = VssServer::open_sharded(VssConfig::new(&root), 4).unwrap();
        let (a, b) = names_on_distinct_shards(&server);
        let session = server.session();
        session.write(&WriteRequest::new(&a, Codec::H264), &sequence(30, 1)).unwrap();
        session.write(&WriteRequest::new(&b, Codec::H264), &sequence(30, 2)).unwrap();

        // Hold `a`'s shard lock exclusively; a read of `b` must still finish.
        let (entered_tx, entered_rx) = bounded::<()>(1);
        let (release_tx, release_rx) = bounded::<()>(1);
        let holder = {
            let server = server.clone();
            let a = a.clone();
            std::thread::spawn(move || {
                server.session().with_engine(&a, |_engine| {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                });
            })
        };
        entered_rx.recv().unwrap();
        let (done_tx, done_rx) = bounded::<usize>(1);
        let b_reader = {
            let server = server.clone();
            let b = b.clone();
            std::thread::spawn(move || {
                let session = server.session();
                let frames = session
                    .read(&ReadRequest::new(&b, 0.0, 1.0, Codec::H264).uncacheable())
                    .unwrap()
                    .frames
                    .len();
                done_tx.send(frames).unwrap();
            })
        };
        let frames = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("read of another shard's video must not block on a held shard lock");
        assert_eq!(frames, 30);
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        b_reader.join().unwrap();
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn stats_track_ops_lock_wait_and_hit_rate() {
        let root = temp_root("stats");
        let server = VssServer::open_sharded(VssConfig::new(&root), 2).unwrap();
        let session = server.session();
        session.write(&WriteRequest::new("v", Codec::H264), &sequence(60, 3)).unwrap();
        // Cold read transcodes from the original and admits a fragment...
        session.read(&ReadRequest::new("v", 0.0, 2.0, Codec::Hevc)).unwrap();
        // ...which the warm read then hits.
        session.read(&ReadRequest::new("v", 0.0, 1.0, Codec::Hevc)).unwrap();
        let stats = server.stats();
        assert_eq!(stats.shards.len(), 2);
        assert_eq!(stats.total_write_ops(), 1);
        assert_eq!(stats.total_read_ops(), 2);
        assert!(stats.total_bytes_written() > 0);
        assert!(stats.total_bytes_read() > 0);
        let owner = &stats.shards[server.shard_of("v")];
        assert_eq!(owner.cache_hit_reads, 1);
        assert!((owner.cache_hit_rate() - 0.5).abs() < 1e-9);
        assert!((stats.cache_hit_rate() - 0.5).abs() < 1e-9);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn lock_wait_histogram_exposes_distribution() {
        let root = temp_root("lockhist");
        let server = VssServer::open_sharded(VssConfig::new(&root), 2).unwrap();
        let session = server.session();
        session.write(&WriteRequest::new("v", Codec::H264), &sequence(30, 11)).unwrap();
        session.read(&ReadRequest::new("v", 0.0, 1.0, Codec::H264).uncacheable()).unwrap();
        let stats = server.stats();
        let owner = &stats.shards[server.shard_of("v")];
        let histogram = owner.lock_wait_histogram;
        // Every client acquisition (write: create-if-needed + write; read:
        // shared) records a sample — the distribution, not just a total.
        assert!(histogram.count >= 2, "expected >= 2 lock acquisitions, got {histogram:?}");
        assert!(histogram.p99 >= histogram.p50);
        assert!(histogram.max as u128 <= owner.lock_wait.as_nanos());
        assert_eq!(owner.lock_wait.as_nanos(), histogram.sum as u128);
        assert!(stats.lock_wait_p99() >= Duration::from_nanos(histogram.p99));
        let _ = std::fs::remove_dir_all(root);
    }

    /// Regression test for the "quiet observer" property: snapshotting
    /// statistics while a shard is locked must not perturb the lock-wait
    /// metrics the snapshot reports — an observer's wait behind the held
    /// lock may not show up as a sample. (Snapshots take no lock at all.)
    #[test]
    fn stats_snapshot_is_quiet_under_contention() {
        let root = temp_root("quiet");
        let server = VssServer::open_sharded(VssConfig::new(&root), 2).unwrap();
        let session = server.session();
        session.write(&WriteRequest::new("v", Codec::H264), &sequence(30, 12)).unwrap();
        let before = server.stats();
        let baseline = before.shards[server.shard_of("v")].lock_wait_histogram;

        // Hold `v`'s shard lock exclusively while an observer snapshots.
        let (entered_tx, entered_rx) = bounded::<()>(1);
        let holder = {
            let server = server.clone();
            std::thread::spawn(move || {
                server.session().with_engine("v", |_engine| {
                    entered_tx.send(()).unwrap();
                    // Long enough that an accounted observer wait would be
                    // clearly visible in count and sum.
                    std::thread::sleep(Duration::from_millis(100));
                });
            })
        };
        entered_rx.recv().unwrap();
        let during = server.stats(); // takes no lock, so never waits
        holder.join().unwrap();
        let after = during.shards[server.shard_of("v")].lock_wait_histogram;
        // Exactly one new sample — the holder's own (accounted) exclusive
        // acquisition. The observer must not appear: neither as a sample nor
        // in the summed wait.
        assert_eq!(
            after.count,
            baseline.count + 1,
            "quiet snapshot acquisition recorded lock-wait samples of its own"
        );
        assert!(
            after.sum - baseline.sum < Duration::from_millis(50).as_nanos() as u64,
            "observer wait leaked into the lock-wait total: {baseline:?} -> {after:?}"
        );
        let _ = std::fs::remove_dir_all(root);
    }
}
