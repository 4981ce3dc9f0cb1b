//! Incremental, GOP-at-a-time writes — and the one write path.
//!
//! [`WriteSink`] is the write-side counterpart of
//! [`ReadStream`](crate::ReadStream): frames are pushed incrementally, each
//! GOP is encoded and persisted **as it fills**, and
//! [`finish`](WriteSink::finish) returns the [`WriteReport`] of the whole
//! ingest, so an ingest pipeline holds at most one GOP of frames instead of
//! the whole clip.
//!
//! Every write in the system is a drive of the same three primitives:
//!
//! * **begin** — [`Engine::begin_incremental_write`] (a new physical video)
//!   or [`Engine::begin_incremental_append`] (continue the original's
//!   timeline; the original's resolution and frame rate are captured and a
//!   mismatch is rejected before anything is persisted). Both take `&self`
//!   and capture the [`SinkEncoder`] every GOP of the write is encoded with.
//! * **encode** — [`SinkEncoder::encode`], the only encode site. It needs no
//!   engine, so it never runs under an engine or shard lock: a `WriteSink`
//!   calls it inline or on its worker, batch writes call it for all GOPs at
//!   once under `try_par_map` ([`IncrementalWrite::commit_batch`]).
//! * **persist** — [`Engine::push_incremental_encoded`] per GOP, then
//!   [`Engine::finish_incremental_write`]; callers that guard the engine
//!   with a lock (the [`Vss`](crate::Vss) mutex, a `vss-server` shard lock)
//!   hold it only for these calls.
//!
//! `write`/`append` par-encode then drive the persist primitives
//! ([`IncrementalWrite::commit_batch`]); a sink drives them GOP-at-a-time
//! through an [`EncodedGopBackend`] that adapts them to a locking
//! discipline. Same GOP boundaries, same encoder, same persist calls in the
//! same order — so a sink, a batch write and a remote write of the same
//! frames leave **byte-identical** stores by construction.
//! ([`GopWriteBackend`] is the other kind of sink target: it takes each
//! GOP's frames as they are — remote sinks forward them to the server, the
//! monolithic-file baselines buffer them and batch-write at finish, which is
//! exactly the contrast the paper draws.)
//!
//! # Overlapped encoding
//!
//! [`VssConfig::readahead`](crate::VssConfig::readahead) only decides which
//! thread calls [`SinkEncoder::encode`]: at `0` the pushing thread does, and
//! with `N > 0` each full GOP is handed to a dedicated encode worker while
//! the caller's thread persists previously encoded GOPs, so the encode of
//! GOP *n + 1* overlaps the file write of GOP *n* (at most `N` encoded GOPs
//! in flight). GOPs persist strictly in submission order on the caller's
//! thread at every depth, which keeps the `vss-server` shard-locking
//! discipline (write lock per GOP) unchanged. Dropping a sink mid-clip joins
//! the worker and discards in-flight GOPs — only fully persisted GOPs remain
//! on disk.

use crate::engine::{Engine, WriteReport};
use crate::params::WriteRequest;
use crate::VssError;
use crossbeam::channel::{bounded, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;
use vss_catalog::PhysicalVideoId;
use vss_codec::{codec_instance, Codec, CodecError, EncodedGop, EncoderConfig};
use vss_frame::{Frame, FrameError, FrameSequence, Resolution};

/// In-flight state of one incremental write. Opaque to callers; thread it
/// through the [`Engine`] incremental-write methods.
#[derive(Debug)]
pub struct IncrementalWrite {
    name: String,
    encoder: SinkEncoder,
    /// Where the GOPs go; a new physical video is registered by the first
    /// persisted GOP.
    physical_id: Option<PhysicalVideoId>,
    /// The resolution every GOP must have: the original's for an append,
    /// otherwise fixed by the first persisted GOP.
    resolution: Option<Resolution>,
    /// Start time of the next GOP. `None` continues the physical video's
    /// timeline from wherever it ends when the GOP is persisted (appends —
    /// so concurrent appenders interleave whole GOPs, never overlap).
    next_time: Option<f64>,
    gops_written: usize,
    frames_written: usize,
    bytes_written: u64,
    deferred_levels: Vec<u8>,
    started: Instant,
}

impl IncrementalWrite {
    /// The logical video being written.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameters every GOP of this write must be encoded with.
    pub fn encoder(&self) -> SinkEncoder {
        self.encoder
    }

    /// Splits a whole clip on the GOP boundary and encodes every GOP on the
    /// parallel pipeline (each chunk is independent and encoded straight
    /// from the borrowed slice), in order. The write's threads are spent on
    /// whole GOPs first; a GOP gets inside itself what the GOP count leaves.
    pub(crate) fn encode_batch(&self, frames: &FrameSequence) -> Result<Vec<EncodedGop>, VssError> {
        if frames.is_empty() {
            return Err(VssError::EmptyWrite);
        }
        let all = frames.frames();
        let ranges = vss_parallel::chunk_ranges(all.len(), self.encoder.encoder.gop_size);
        let threads = vss_parallel::resolve_threads(self.encoder.threads);
        let per_gop =
            SinkEncoder { threads: vss_parallel::threads_per_job(threads, ranges.len()), ..self.encoder };
        let gops = vss_parallel::try_par_map(threads, &ranges, |_, &(start, end)| {
            per_gop.encode(&all[start..end])
        })?;
        Ok(gops)
    }

    /// The batch drive behind every store's `write`/`append`: encodes all
    /// of `frames` up front, *then* takes the engine through `exclusive` —
    /// `|| engine` for a bare engine, a lock acquisition for a guarded one,
    /// so the lock is never held across an encode — persists the GOPs in
    /// order and finishes. Persisting stays sequential: write-time deferred
    /// compression depends on the budget fraction, which evolves with each
    /// persisted GOP. `op` names the `engine.*` span.
    pub fn commit_batch<G: std::ops::DerefMut<Target = Engine>>(
        mut self,
        op: &'static str,
        frames: &FrameSequence,
        exclusive: impl FnOnce() -> G,
    ) -> Result<WriteReport, VssError> {
        let _span = vss_telemetry::span("engine", op, self.name.as_str());
        let gops = self.encode_batch(frames)?;
        let mut engine = exclusive();
        for gop in &gops {
            engine.push_incremental_encoded(&mut self, gop)?;
        }
        engine.finish_incremental_write(&mut self)
    }
}

impl Engine {
    /// Frames per persisted block for the given codec (compressed GOP size or
    /// uncompressed block size) — the boundary every write chunks on.
    pub fn write_gop_size(&self, codec: Codec) -> usize {
        if codec.is_compressed() {
            self.config.gop_size
        } else {
            self.config.uncompressed_gop_frames
        }
    }

    /// Captures everything a write needs from the engine up front: the
    /// encode parameters and the batch thread count.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn incremental_write(
        &self,
        name: &str,
        codec: Codec,
        quality: Option<u8>,
        frame_rate: f64,
        physical_id: Option<PhysicalVideoId>,
        resolution: Option<Resolution>,
        next_time: Option<f64>,
    ) -> IncrementalWrite {
        IncrementalWrite {
            name: name.to_string(),
            encoder: SinkEncoder {
                codec,
                encoder: EncoderConfig {
                    quality: quality.unwrap_or(self.config.default_encoder_quality),
                    gop_size: self.write_gop_size(codec),
                },
                frame_rate,
                depth: self.config.readahead,
                threads: self.config.parallelism,
            },
            physical_id,
            resolution,
            next_time,
            gops_written: 0,
            frames_written: 0,
            bytes_written: 0,
            deferred_levels: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Begins an incremental write of `request` at the given frame rate
    /// (which must be positive and finite, as in a [`FrameSequence`]).
    /// Nothing is created until the first GOP is pushed (so an abandoned
    /// write leaves no trace, and an empty one errors at finish).
    pub fn begin_incremental_write(
        &self,
        request: &WriteRequest,
        frame_rate: f64,
    ) -> Result<IncrementalWrite, VssError> {
        if !(frame_rate > 0.0 && frame_rate.is_finite()) {
            return Err(VssError::Frame(FrameError::InvalidFrameRate));
        }
        Ok(self.incremental_write(
            &request.name,
            request.codec,
            request.encoder_quality,
            frame_rate,
            None,
            None,
            Some(request.start_time),
        ))
    }

    /// Begins an incremental write that continues a video's **original**
    /// timeline (streaming ingest): the physical video, codec, resolution
    /// and frame rate are the original's. `frame_rate` is the incoming
    /// frames' rate and must equal the original's
    /// ([`FrameError::InvalidFrameRate`] otherwise); GOPs of another
    /// resolution are rejected with [`FrameError::ShapeMismatch`] before
    /// they are persisted. Pixel layout is free — the codec converts it.
    pub fn begin_incremental_append(
        &self,
        name: &str,
        frame_rate: f64,
    ) -> Result<IncrementalWrite, VssError> {
        let original = self
            .catalog
            .video(name)?
            .original()
            .ok_or_else(|| VssError::Unsatisfiable("append requires an existing original".into()))?;
        let codec = original
            .codec()
            .ok_or_else(|| VssError::Unsatisfiable("original has an unknown codec".into()))?;
        if (frame_rate - original.frame_rate).abs() > 1e-9 {
            return Err(VssError::Frame(FrameError::InvalidFrameRate));
        }
        Ok(self.incremental_write(
            name,
            codec,
            None,
            original.frame_rate,
            Some(original.id),
            Some(original.resolution()),
            None,
        ))
    }

    /// Persists one GOP of an incremental write — the only persist site of
    /// the write path. The GOP must have been encoded with the write's
    /// [`encoder`](IncrementalWrite::encoder). The first GOP of a new
    /// physical video creates the logical video if needed and registers the
    /// physical video (the original, if none exists yet).
    pub fn push_incremental_encoded(
        &mut self,
        write: &mut IncrementalWrite,
        gop: &EncodedGop,
    ) -> Result<(), VssError> {
        let resolution = Resolution::new(gop.width(), gop.height());
        if write.resolution.is_some_and(|expected| expected != resolution) {
            return Err(VssError::Frame(FrameError::ShapeMismatch));
        }
        let codec = write.encoder.codec;
        let frame_rate = write.encoder.frame_rate;
        let physical_id = match write.physical_id {
            Some(id) => id,
            None => {
                if !self.catalog.contains_video(&write.name) {
                    self.create_video(&write.name, None)?;
                }
                let is_original = self.catalog.video(&write.name)?.original().is_none();
                self.catalog.add_physical(
                    &write.name,
                    resolution.width,
                    resolution.height,
                    frame_rate,
                    &codec.name(),
                    is_original,
                    0.0,
                )?
            }
        };
        write.physical_id = Some(physical_id);
        write.resolution = Some(resolution);
        let time = match write.next_time {
            Some(time) => time,
            None => self
                .catalog
                .video(&write.name)?
                .physical_by_id(physical_id)
                .ok_or(vss_catalog::CatalogError::PhysicalNotFound(physical_id))?
                .end_time(),
        };
        let frame_count = gop.frame_count();
        let (bytes, level) =
            self.persist_gop(&write.name, physical_id, codec, gop, time, frame_count, frame_rate)?;
        write.bytes_written += bytes;
        write.deferred_levels.push(level);
        write.gops_written += 1;
        write.frames_written += frame_count;
        if let Some(time) = &mut write.next_time {
            *time += frame_count as f64 / frame_rate;
        }
        Ok(())
    }

    /// Completes an incremental write: establishes the storage budget (once
    /// the original's size is known) and persists the catalog. Errors with
    /// [`VssError::EmptyWrite`] if no GOP was pushed.
    pub fn finish_incremental_write(
        &mut self,
        write: &mut IncrementalWrite,
    ) -> Result<WriteReport, VssError> {
        let Some(physical_id) = write.physical_id.filter(|_| write.gops_written > 0) else {
            return Err(VssError::EmptyWrite);
        };
        self.establish_budget(&write.name)?;
        self.catalog.persist()?;
        Ok(WriteReport {
            physical_id,
            gops_written: write.gops_written,
            frames_written: write.frames_written,
            bytes_written: write.bytes_written,
            deferred_levels: std::mem::take(&mut write.deferred_levels),
            elapsed: write.started.elapsed(),
        })
    }
}

/// Process-wide overlapped-sink telemetry (`sink.pipeline.*`), cached so the
/// ingest hot path never takes the registry lock.
mod metrics {
    use std::sync::OnceLock;

    /// Time the persisting thread blocked waiting for the encode worker to
    /// deliver the oldest in-flight GOP (zero = perfect overlap).
    pub(super) fn encode_wait() -> &'static vss_telemetry::Histogram {
        static H: OnceLock<&'static vss_telemetry::Histogram> = OnceLock::new();
        H.get_or_init(|| vss_telemetry::histogram("sink.pipeline.encode_wait_ns"))
    }

    /// Time spent persisting one already-encoded GOP through the backend.
    pub(super) fn persist() -> &'static vss_telemetry::Histogram {
        static H: OnceLock<&'static vss_telemetry::Histogram> = OnceLock::new();
        H.get_or_init(|| vss_telemetry::histogram("sink.pipeline.persist_ns"))
    }
}

/// A [`WriteSink`] target that takes each GOP's frames as they are (remote
/// sinks forward them, the baseline stores buffer them). Each `flush_gop`
/// call receives exactly one GOP-sized (or final partial) run of frames, in
/// order; `finish` is called once, after the last flush.
pub trait GopWriteBackend {
    /// Takes one GOP's worth of frames.
    fn flush_gop(&mut self, frames: &[Frame]) -> Result<(), VssError>;

    /// Completes the write and produces its report.
    fn finish(&mut self) -> Result<WriteReport, VssError>;
}

/// A [`WriteSink`] target that persists GOPs the sink has already encoded —
/// the adapter between [`Engine::push_incremental_encoded`] /
/// [`Engine::finish_incremental_write`] and a particular locking discipline
/// (the engine itself, the [`Vss`](crate::Vss) mutex, a `vss-server` shard
/// lock). Encoding never happens behind this trait, so it never holds the
/// backend's lock.
pub trait EncodedGopBackend {
    /// Persists one GOP, encoded with the write's [`SinkEncoder`].
    fn flush_encoded(&mut self, gop: EncodedGop) -> Result<(), VssError>;

    /// Completes the write and produces its report.
    fn finish(&mut self) -> Result<WriteReport, VssError>;
}

/// The parameters every GOP of one write is encoded with, captured once at
/// begin ([`IncrementalWrite::encoder`]), plus the pipeline depth.
#[derive(Debug, Clone, Copy)]
pub struct SinkEncoder {
    /// Codec every GOP is encoded with.
    pub codec: Codec,
    /// Encoder parameters (quality and GOP size).
    pub encoder: EncoderConfig,
    /// Frame rate recorded in every GOP.
    pub frame_rate: f64,
    /// Maximum encoded-but-unpersisted GOPs in flight in a [`WriteSink`]
    /// (0 = the pushing thread encodes).
    pub depth: usize,
    /// Threads one GOP's encode may use inside the GOP — the engine's
    /// [`parallelism`](crate::VssConfig::parallelism) (0 = every core).
    pub threads: usize,
}

impl SinkEncoder {
    /// Encodes one GOP — the only encode site of either direction, and the
    /// one place the in-GOP thread budget is passed.
    pub fn encode(&self, frames: &[Frame]) -> Result<EncodedGop, CodecError> {
        codec_instance(self.codec).encode_slice(frames, self.frame_rate, &self.encoder, self.threads)
    }
}

/// The encode worker of an overlapped [`WriteSink`]: full GOPs are handed to
/// a dedicated thread that encodes them in submission order while the
/// caller's thread persists previously encoded GOPs through the backend —
/// encode of GOP *n + 1* overlaps the file write of GOP *n*. At most `depth`
/// GOPs are in flight between pushes (`depth + 1` momentarily, while a flush
/// retires); dropping the pipeline (sink abort) closes the work
/// channel and joins the worker, discarding any not-yet-persisted GOPs so no
/// partial GOP ever reaches disk.
struct EncodePipeline {
    /// Work channel; `None` once closed (drop/teardown).
    submit: Option<Sender<Vec<Frame>>>,
    /// Encode results, in submission order.
    complete: Option<Receiver<Result<EncodedGop, CodecError>>>,
    worker: Option<JoinHandle<()>>,
    /// GOPs submitted but not yet retired (≤ depth).
    in_flight: usize,
}

impl EncodePipeline {
    fn spawn(encoder: SinkEncoder) -> Self {
        // Both channels hold `depth + 1` slots: a flush submits the new GOP
        // *before* retiring down to `depth`, so occupancy momentarily
        // reaches `depth + 1` — the headroom guarantees neither side ever
        // blocks on a full channel, leaving the deliberate in-order wait in
        // `retire_down_to` as the only blocking point.
        let (submit, work) = bounded::<Vec<Frame>>(encoder.depth + 1);
        let (done, complete) = bounded(encoder.depth + 1);
        let worker = std::thread::spawn(move || {
            while let Ok(frames) = work.recv() {
                if done.send(encoder.encode(&frames)).is_err() {
                    break; // sink dropped; stop encoding
                }
            }
        });
        Self { submit: Some(submit), complete: Some(complete), worker: Some(worker), in_flight: 0 }
    }
}

impl Drop for EncodePipeline {
    fn drop(&mut self) {
        // Close both channels first so a worker blocked on either side wakes
        // with a disconnect, then join it — the pipeline never leaks threads,
        // and unpersisted GOPs are simply discarded (a persisted prefix is
        // all an aborted sink leaves behind).
        self.submit = None;
        self.complete = None;
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Where a sink's GOPs go.
enum SinkTarget<'a> {
    /// Each GOP's frames are handed over as they are.
    Frames(Box<dyn GopWriteBackend + 'a>),
    /// Each GOP is encoded by the sink (inline, or on the lazily spawned
    /// worker when `encoder.depth > 0`), then persisted.
    Encoded {
        encoder: SinkEncoder,
        backend: Box<dyn EncodedGopBackend + 'a>,
        pipeline: Option<EncodePipeline>,
    },
}

/// An incremental writer: push frames, each GOP is encoded and persisted as
/// it fills, `finish()` returns the [`WriteReport`]. See the
/// [module docs](self).
pub struct WriteSink<'a> {
    target: SinkTarget<'a>,
    pending: Vec<Frame>,
    frame_rate: f64,
    gop_size: usize,
    /// Shape of the first frame ever pushed; every later frame must match it
    /// (the per-sink equivalent of `FrameSequence`'s shape check — it must
    /// not reset when `pending` drains at a GOP boundary).
    shape: Option<(u32, u32, vss_frame::PixelFormat)>,
}

impl std::fmt::Debug for WriteSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteSink")
            .field("buffered_frames", &self.pending.len())
            .field("gop_size", &self.gop_size)
            .finish_non_exhaustive()
    }
}

impl<'a> WriteSink<'a> {
    fn new(target: SinkTarget<'a>, frame_rate: f64, gop_size: usize) -> Self {
        Self { target, pending: Vec::new(), frame_rate, gop_size: gop_size.max(1), shape: None }
    }

    /// Builds a sink that hands each `gop_size` frames to `backend` as they
    /// are.
    pub fn from_backend(
        backend: Box<dyn GopWriteBackend + 'a>,
        frame_rate: f64,
        gop_size: usize,
    ) -> Self {
        Self::new(SinkTarget::Frames(backend), frame_rate, gop_size)
    }

    /// Builds a sink that encodes each GOP with `encoder` (the
    /// [`IncrementalWrite::encoder`] of the write `backend` persists into)
    /// and hands the encoded GOP to `backend`. When `encoder.depth > 0`,
    /// full GOPs are encoded on a worker thread while previously encoded
    /// GOPs persist on the caller's thread, keeping at most `encoder.depth`
    /// encoded GOPs in flight; the store produced is byte-identical either
    /// way — see [`VssConfig::readahead`](crate::VssConfig::readahead).
    pub fn encoding(backend: Box<dyn EncodedGopBackend + 'a>, encoder: SinkEncoder) -> Self {
        Self::new(
            SinkTarget::Encoded { encoder, backend, pipeline: None },
            encoder.frame_rate,
            encoder.encoder.gop_size,
        )
    }

    /// GOPs handed to the encode worker and not yet persisted (always 0
    /// when the pushing thread encodes).
    pub fn in_flight_gops(&self) -> usize {
        match &self.target {
            SinkTarget::Encoded { pipeline: Some(pipeline), .. } => pipeline.in_flight,
            _ => 0,
        }
    }

    /// Routes one full (or final partial) GOP to its target.
    fn dispatch_gop(&mut self, frames: Vec<Frame>) -> Result<(), VssError> {
        let (encoder, backend, pipeline) = match &mut self.target {
            SinkTarget::Frames(backend) => return backend.flush_gop(&frames),
            SinkTarget::Encoded { encoder, backend, pipeline } => (*encoder, backend, pipeline),
        };
        // The one place the depth matters: who calls `encode`.
        if encoder.depth == 0 {
            return backend.flush_encoded(encoder.encode(&frames)?);
        }
        // Submit the new GOP *first*, then persist completed GOPs (in
        // submission order) back down to the depth limit: the worker encodes
        // the GOP just submitted while this thread writes its predecessors —
        // overlap holds even at depth 1.
        let pipeline = pipeline.get_or_insert_with(|| EncodePipeline::spawn(encoder));
        let submit = pipeline.submit.as_ref().expect("open work channel");
        submit.send(frames).map_err(|_| {
            VssError::Unsatisfiable("sink encode worker exited unexpectedly".into())
        })?;
        pipeline.in_flight += 1;
        self.retire_down_to(encoder.depth)
    }

    /// Persists in-flight GOPs, oldest first, until at most `limit` remain.
    /// The two timed phases quantify the overlap: `encode_wait` is how long
    /// this thread blocked on the worker (zero when encoding hid entirely
    /// behind the previous persist), `persist` is the backend write itself.
    fn retire_down_to(&mut self, limit: usize) -> Result<(), VssError> {
        let SinkTarget::Encoded { backend, pipeline: Some(pipeline), .. } = &mut self.target else {
            return Ok(());
        };
        while pipeline.in_flight > limit {
            let complete = pipeline.complete.as_ref().expect("open completion channel");
            let wait_started = Instant::now();
            let encoded = complete.recv().map_err(|_| {
                VssError::Unsatisfiable("sink encode worker exited unexpectedly".into())
            })?;
            metrics::encode_wait().record_duration(wait_started.elapsed());
            pipeline.in_flight -= 1;
            let persist_started = Instant::now();
            let outcome = backend.flush_encoded(encoded?);
            metrics::persist().record_duration(persist_started.elapsed());
            outcome?;
        }
        Ok(())
    }

    /// The sink's frame rate.
    pub fn frame_rate(&self) -> f64 {
        self.frame_rate
    }

    /// The flush boundary in frames: one backend flush per this many pushed
    /// frames (plus one final partial flush). A network server announces it
    /// to remote clients so their sinks chunk on the same boundary.
    pub fn gop_size(&self) -> usize {
        self.gop_size
    }

    /// Frames currently buffered (always `< gop_size` after a push returns).
    pub fn buffered_frames(&self) -> usize {
        self.pending.len()
    }

    /// Pushes one frame, flushing a GOP to the backend when full. Frames must
    /// all share the first frame's shape (as in a [`FrameSequence`]) — across
    /// the whole ingest, exactly like a batch write of the same frames.
    pub fn push_frame(&mut self, frame: Frame) -> Result<(), VssError> {
        let shape = (frame.width(), frame.height(), frame.format());
        match self.shape {
            None => self.shape = Some(shape),
            Some(expected) if expected != shape => {
                return Err(VssError::Frame(FrameError::ShapeMismatch));
            }
            Some(_) => {}
        }
        self.pending.push(frame);
        if self.pending.len() >= self.gop_size {
            let chunk: Vec<Frame> = self.pending.drain(..).collect();
            self.dispatch_gop(chunk)?;
        }
        Ok(())
    }

    /// Pushes every frame of a sequence (its frame rate must match the
    /// sink's).
    pub fn push_sequence(&mut self, frames: &FrameSequence) -> Result<(), VssError> {
        if (frames.frame_rate() - self.frame_rate).abs() > 1e-9 {
            return Err(VssError::Frame(FrameError::InvalidFrameRate));
        }
        for frame in frames.frames() {
            self.push_frame(frame.clone())?;
        }
        Ok(())
    }

    /// Flushes the final partial GOP, persists every in-flight GOP (in
    /// submission order) and completes the write.
    pub fn finish(mut self) -> Result<WriteReport, VssError> {
        if !self.pending.is_empty() {
            let chunk = std::mem::take(&mut self.pending);
            self.dispatch_gop(chunk)?;
        }
        self.retire_down_to(0)?;
        match &mut self.target {
            SinkTarget::Frames(backend) => backend.finish(),
            SinkTarget::Encoded { backend, pipeline, .. } => {
                *pipeline = None; // worker is idle; drop closes channels and joins
                backend.finish()
            }
        }
    }
}

/// Engine-backed sink: flushes go straight at the exclusively borrowed
/// engine.
pub(crate) struct EngineSinkBackend<'a> {
    pub(crate) engine: &'a mut Engine,
    pub(crate) write: IncrementalWrite,
}

impl EncodedGopBackend for EngineSinkBackend<'_> {
    fn flush_encoded(&mut self, gop: EncodedGop) -> Result<(), VssError> {
        self.engine.push_incremental_encoded(&mut self.write, &gop)
    }

    fn finish(&mut self) -> Result<WriteReport, VssError> {
        self.engine.finish_incremental_write(&mut self.write)
    }
}

/// Buffer-then-batch-write fallback used as the default
/// [`VideoStorage::write_sink`](crate::VideoStorage::write_sink): stores that
/// cannot persist incrementally (the monolithic-file baselines) accumulate
/// the frames and issue one batch write at finish.
pub(crate) struct BufferedSinkBackend<'a, S: crate::VideoStorage + ?Sized> {
    pub(crate) store: &'a mut S,
    pub(crate) request: WriteRequest,
    pub(crate) frame_rate: f64,
    pub(crate) frames: Vec<Frame>,
}

impl<S: crate::VideoStorage + ?Sized> GopWriteBackend for BufferedSinkBackend<'_, S> {
    fn flush_gop(&mut self, frames: &[Frame]) -> Result<(), VssError> {
        self.frames.extend_from_slice(frames);
        Ok(())
    }

    fn finish(&mut self) -> Result<WriteReport, VssError> {
        let frames = FrameSequence::new(std::mem::take(&mut self.frames), self.frame_rate)?;
        self.store.write(&self.request, &frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_support::temp_engine;
    use crate::params::ReadRequest;
    use crate::VideoStorage;
    use vss_frame::{pattern, PixelFormat};

    fn frames(count: usize) -> Vec<Frame> {
        (0..count).map(|i| pattern::gradient(64, 48, PixelFormat::Yuv420, i as u64)).collect()
    }

    fn sequence(frames: Vec<Frame>) -> FrameSequence {
        FrameSequence::new(frames, 30.0).unwrap()
    }

    /// Every file under `root`, by relative path — the whole on-disk store.
    fn collect_pages(root: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let mut pages: Vec<(String, Vec<u8>)> = Vec::new();
        let mut pending = vec![root.to_path_buf()];
        while let Some(dir) = pending.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    pending.push(path);
                } else {
                    let relative = path.strip_prefix(root).unwrap().to_string_lossy().into_owned();
                    pages.push((relative, std::fs::read(&path).unwrap()));
                }
            }
        }
        pages.sort_by(|a, b| a.0.cmp(&b.0));
        pages
    }

    #[test]
    fn sink_write_is_byte_identical_to_batch_write() {
        let source = frames(75); // 2 full GOPs + 1 partial at gop_size 30
        let (mut batch_engine, batch_root) = temp_engine("sink-batch");
        let request = WriteRequest::new("v", Codec::H264);
        let batch_report = batch_engine.write(&request, &sequence(source.clone())).unwrap();

        let (mut sink_engine, sink_root) = temp_engine("sink-inc");
        let gop_size = sink_engine.write_gop_size(request.codec);
        let mut sink = sink_engine.write_sink(&request, 30.0).unwrap();
        for frame in source {
            sink.push_frame(frame).unwrap();
            assert!(sink.buffered_frames() < gop_size, "sink never holds a full GOP");
        }
        let sink_report = sink.finish().unwrap();

        assert_eq!(sink_report.gops_written, batch_report.gops_written);
        assert_eq!(sink_report.frames_written, batch_report.frames_written);
        assert_eq!(sink_report.bytes_written, batch_report.bytes_written);
        assert_eq!(sink_report.deferred_levels, batch_report.deferred_levels);
        assert_eq!(
            collect_pages(&batch_root),
            collect_pages(&sink_root),
            "incremental and batch writes must produce identical stores"
        );
        let _ = std::fs::remove_dir_all(batch_root);
        let _ = std::fs::remove_dir_all(sink_root);
    }

    #[test]
    fn overlapped_sink_store_is_byte_identical_to_the_synchronous_sink() {
        let source = frames(100); // 3 full GOPs + 1 partial at gop_size 30
        let run = |tag: &str, depth: usize| {
            let (mut engine, root) = temp_engine(tag);
            engine.config.readahead = depth;
            let mut sink = engine.write_sink(&WriteRequest::new("v", Codec::H264), 30.0).unwrap();
            let mut saw_in_flight = false;
            for frame in source.clone() {
                sink.push_frame(frame).unwrap();
                saw_in_flight |= sink.in_flight_gops() > 0;
            }
            assert_eq!(
                saw_in_flight,
                depth > 0,
                "overlap pipeline engaged iff readahead > 0 (depth {depth})"
            );
            let report = sink.finish().unwrap();
            (report, collect_pages(&root), root)
        };
        let (baseline_report, baseline_pages, baseline_root) = run("sink-overlap-0", 0);
        for depth in [1usize, 2, 4] {
            let (report, pages, root) = run(&format!("sink-overlap-{depth}"), depth);
            assert_eq!(report.gops_written, baseline_report.gops_written);
            assert_eq!(report.frames_written, baseline_report.frames_written);
            assert_eq!(report.bytes_written, baseline_report.bytes_written);
            assert_eq!(report.deferred_levels, baseline_report.deferred_levels);
            assert_eq!(
                pages, baseline_pages,
                "overlapped sink (depth {depth}) must write an identical store"
            );
            let _ = std::fs::remove_dir_all(root);
        }
        let _ = std::fs::remove_dir_all(baseline_root);
    }

    #[test]
    fn append_sink_is_byte_identical_to_batch_append() {
        let source = frames(135); // write 60, then append 2 full GOPs + 1 partial
        let (head, tail) = source.split_at(60);
        let request = WriteRequest::new("v", Codec::H264);
        let (mut batch_engine, batch_root) = temp_engine("append-batch");
        batch_engine.write(&request, &sequence(head.to_vec())).unwrap();
        let batch_report = batch_engine.append("v", &sequence(tail.to_vec())).unwrap();
        let batch_pages = collect_pages(&batch_root);
        for depth in [0usize, 1, 4] {
            let (mut engine, root) = temp_engine(&format!("append-sink-{depth}"));
            engine.config.readahead = depth;
            engine.write(&request, &sequence(head.to_vec())).unwrap();
            let write = engine.begin_incremental_append("v", 30.0).unwrap();
            let encoder = write.encoder();
            let backend = EngineSinkBackend { engine: &mut engine, write };
            let mut sink = WriteSink::encoding(Box::new(backend), encoder);
            for frame in tail {
                sink.push_frame(frame.clone()).unwrap();
            }
            let report = sink.finish().unwrap();
            assert_eq!(report.physical_id, batch_report.physical_id);
            assert_eq!(report.gops_written, 3);
            assert_eq!(report.bytes_written, batch_report.bytes_written);
            assert_eq!(collect_pages(&root), batch_pages, "append sink diverged at depth {depth}");
            let _ = std::fs::remove_dir_all(root);
        }
        let _ = std::fs::remove_dir_all(batch_root);
    }

    #[test]
    fn append_rejects_mismatched_frames_before_persisting_anything() {
        let (mut engine, root) = temp_engine("append-shape");
        engine.write(&WriteRequest::new("v", Codec::H264), &sequence(frames(30))).unwrap();
        let before = collect_pages(&root);
        let small: Vec<Frame> =
            (0..30).map(|i| pattern::gradient(32, 24, PixelFormat::Yuv420, i)).collect();
        assert!(matches!(
            engine.append("v", &sequence(small)),
            Err(VssError::Frame(FrameError::ShapeMismatch))
        ));
        let slow = FrameSequence::new(frames(30), 15.0).unwrap();
        assert!(matches!(
            engine.append("v", &slow),
            Err(VssError::Frame(FrameError::InvalidFrameRate))
        ));
        assert_eq!(collect_pages(&root), before, "a rejected append leaves the store untouched");
        // Pixel layout stays free (the codec converts it), and the video
        // still reads end to end afterwards.
        let rgb: Vec<Frame> =
            (0..30).map(|i| pattern::gradient(64, 48, PixelFormat::Rgb8, i)).collect();
        engine.append("v", &sequence(rgb)).unwrap();
        assert_eq!(engine.video_time_range("v").unwrap(), (0.0, 2.0));
        let read =
            engine.read(&ReadRequest::new("v", 0.0, 2.0, Codec::H264).uncacheable()).unwrap();
        assert_eq!(read.frames.len(), 60);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn aborted_overlapped_sink_leaves_only_fully_persisted_gops() {
        let (mut engine, root) = temp_engine("sink-abort");
        engine.config.readahead = 1;
        let request = WriteRequest::new("v", Codec::H264);
        let gop_size = engine.write_gop_size(request.codec);
        let mut sink = engine.write_sink(&request, 30.0).unwrap();
        // 3 full GOPs submitted; with depth 1 at least two retire (persist),
        // the last may still be in flight — plus a partial that never flushes.
        for frame in frames(3 * gop_size + 10) {
            sink.push_frame(frame).unwrap();
        }
        drop(sink); // abort: joins the worker, discards in-flight work
        // Whatever prefix was persisted is complete and fully readable.
        let (start, end) = engine.video_time_range("v").unwrap();
        let persisted =
            engine.read(&ReadRequest::new("v", start, end, Codec::H264).uncacheable()).unwrap();
        assert!(persisted.frames.len() >= 2 * gop_size, "retired GOPs survive the abort");
        assert_eq!(persisted.frames.len() % gop_size, 0, "no partial GOP reaches disk");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn empty_sink_errors_like_an_empty_write() {
        let (mut engine, root) = temp_engine("sink-empty");
        let sink = engine.write_sink(&WriteRequest::new("v", Codec::H264), 30.0).unwrap();
        assert!(matches!(sink.finish(), Err(VssError::EmptyWrite)));
        // Nothing was created.
        assert!(engine.video_names().is_empty());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn sink_rejects_shape_and_rate_mismatches() {
        let (mut engine, root) = temp_engine("sink-shape");
        let request = WriteRequest::new("v", Codec::H264);
        let mut sink = engine.write_sink(&request, 30.0).unwrap();
        sink.push_frame(pattern::gradient(64, 48, PixelFormat::Yuv420, 0)).unwrap();
        assert!(matches!(
            sink.push_frame(pattern::gradient(32, 24, PixelFormat::Yuv420, 0)),
            Err(VssError::Frame(FrameError::ShapeMismatch))
        ));
        // The shape contract spans GOP boundaries: after a full GOP flushes
        // (pending drains), a differently shaped frame must still be
        // rejected, exactly as a batch write of the same frames would be.
        for i in 1..30 {
            sink.push_frame(pattern::gradient(64, 48, PixelFormat::Yuv420, i)).unwrap();
        }
        assert_eq!(sink.buffered_frames(), 0, "first GOP flushed");
        assert!(matches!(
            sink.push_frame(pattern::gradient(32, 24, PixelFormat::Yuv420, 0)),
            Err(VssError::Frame(FrameError::ShapeMismatch))
        ));
        let other_rate =
            FrameSequence::new(vec![pattern::gradient(64, 48, PixelFormat::Yuv420, 1)], 25.0)
                .unwrap();
        assert!(matches!(
            sink.push_sequence(&other_rate),
            Err(VssError::Frame(FrameError::InvalidFrameRate))
        ));
        // Non-positive / non-finite frame rates are rejected up front, like
        // FrameSequence::new on the batch path.
        drop(sink);
        for bad_rate in [0.0, -30.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                engine.begin_incremental_write(&request, bad_rate),
                Err(VssError::Frame(FrameError::InvalidFrameRate))
            ));
        }
        let _ = std::fs::remove_dir_all(root);
    }
}
