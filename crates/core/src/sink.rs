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
//!   calls it on the pushing thread as each GOP fills, batch writes call it
//!   for all GOPs at once under `try_par_map`
//!   ([`IncrementalWrite::commit_batch`]).
//! * **persist** — [`Engine::push_incremental_encoded`] per GOP, then
//!   [`Engine::finish_incremental_write`]; a [`Vss`](crate::Vss) holds its
//!   exclusive lock only for these calls.
//!
//! `write`/`append` par-encode then drive the persist primitives
//! ([`IncrementalWrite::commit_batch`]); a sink drives them GOP-at-a-time
//! through [`VssSinkBackend`](crate::VssSinkBackend), the one
//! [`EncodedGopBackend`] that persists into an engine. Same GOP boundaries,
//! same encoder, same persist calls in the same order — so a sink, a batch
//! write and a remote write of the same frames leave **byte-identical**
//! stores by construction.
//! ([`GopWriteBackend`] is the other kind of sink target: it takes each
//! GOP's frames as they are — remote sinks forward them to the server, the
//! monolithic-file baselines buffer them and batch-write at finish, which is
//! exactly the contrast the paper draws.)
//!
//! # One thread per GOP, and a fuse
//!
//! The thread that pushes the frame completing a GOP encodes that GOP
//! (spending [`VssConfig::parallelism`](crate::VssConfig::parallelism)
//! *inside* it — see [`SinkEncoder::threads`]) and then persists it, so when
//! the push returns the GOP is on disk, journaled and fsynced: a push is the
//! acknowledgement. A sink starts no thread of its own and dropping one
//! mid-clip leaves exactly the GOPs whose pushes returned. If a GOP fails to
//! encode or persist, its frames are gone and the timeline would have a
//! hole, so the sink fuses: every later `push_frame`/`push_sequence`/`finish`
//! returns an error and nothing more is persisted.

use crate::engine::{Engine, WriteReport};
use crate::params::WriteRequest;
use crate::VssError;
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

/// Frames per block for uncompressed representations (the prototype bounds
/// uncompressed blocks at ~25 MB; small synthetic frames use a fixed small
/// frame count instead).
const UNCOMPRESSED_GOP_FRAMES: usize = 3;

impl Engine {
    /// Frames per persisted block for the given codec (compressed GOP size or
    /// uncompressed block size) — the boundary every write chunks on.
    pub fn write_gop_size(&self, codec: Codec) -> usize {
        if codec.is_compressed() {
            self.config.gop_size
        } else {
            UNCOMPRESSED_GOP_FRAMES
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
                    quality: quality.unwrap_or(crate::DEFAULT_ENCODER_QUALITY),
                    gop_size: self.write_gop_size(codec),
                },
                frame_rate,
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

/// Time a [`WriteSink`] spent persisting one already-encoded GOP through its
/// backend (`sink.pipeline.persist_ns`), cached so the ingest hot path never
/// takes the registry lock.
fn persist_histogram() -> &'static vss_telemetry::Histogram {
    static H: std::sync::OnceLock<&'static vss_telemetry::Histogram> = std::sync::OnceLock::new();
    H.get_or_init(|| vss_telemetry::histogram("sink.pipeline.persist_ns"))
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

/// A [`WriteSink`] target that persists GOPs the sink has already encoded.
/// The one implementation that persists into an engine is
/// [`VssSinkBackend`](crate::VssSinkBackend): it calls
/// [`Engine::push_incremental_encoded`] / [`Engine::finish_incremental_write`]
/// under the [`Vss`](crate::Vss) exclusive lock. Other implementations only
/// wrap it (a `vss-server` session holds its activity permit and counts the
/// write). Encoding never happens behind this trait, so it never holds the
/// lock.
pub trait EncodedGopBackend {
    /// Persists one GOP, encoded with the write's [`SinkEncoder`].
    fn flush_encoded(&mut self, gop: EncodedGop) -> Result<(), VssError>;

    /// Completes the write and produces its report.
    fn finish(&mut self) -> Result<WriteReport, VssError>;
}

/// The parameters every GOP of one write is encoded with, captured once at
/// begin ([`IncrementalWrite::encoder`]).
#[derive(Debug, Clone, Copy)]
pub struct SinkEncoder {
    /// Codec every GOP is encoded with.
    pub codec: Codec,
    /// Encoder parameters (quality and GOP size).
    pub encoder: EncoderConfig,
    /// Frame rate recorded in every GOP.
    pub frame_rate: f64,
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

/// Where a sink's GOPs go.
enum SinkTarget<'a> {
    /// Each GOP's frames are handed over as they are.
    Frames(Box<dyn GopWriteBackend + 'a>),
    /// Each GOP is encoded by the pushing thread, then persisted.
    Encoded { encoder: SinkEncoder, backend: Box<dyn EncodedGopBackend + 'a> },
}

impl SinkTarget<'_> {
    /// Takes one GOP's frames: handed over as they are, or encoded and then
    /// persisted — on the calling thread either way.
    fn flush(&mut self, frames: &[Frame]) -> Result<(), VssError> {
        match self {
            SinkTarget::Frames(backend) => backend.flush_gop(frames),
            SinkTarget::Encoded { encoder, backend } => {
                let gop = encoder.encode(frames)?;
                let started = Instant::now();
                let outcome = backend.flush_encoded(gop);
                persist_histogram().record_duration(started.elapsed());
                outcome
            }
        }
    }
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
    /// Set once a GOP failed to encode or persist; the sink then fuses.
    failed: bool,
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
        Self {
            target,
            pending: Vec::new(),
            frame_rate,
            gop_size: gop_size.max(1),
            shape: None,
            failed: false,
        }
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
    /// and hands the encoded GOP to `backend`, both on the pushing thread.
    pub fn encoding(backend: Box<dyn EncodedGopBackend + 'a>, encoder: SinkEncoder) -> Self {
        Self::new(
            SinkTarget::Encoded { encoder, backend },
            encoder.frame_rate,
            encoder.encoder.gop_size,
        )
    }

    /// Routes one full (or final partial) GOP to its target, fusing the sink
    /// if that fails.
    fn dispatch_gop(&mut self, frames: Vec<Frame>) -> Result<(), VssError> {
        let outcome = self.target.flush(&frames);
        self.failed = outcome.is_err();
        outcome
    }

    /// Errors once the sink has fused.
    fn check_not_failed(&self) -> Result<(), VssError> {
        if self.failed {
            return Err(VssError::Unsatisfiable(
                "an earlier GOP of this write sink failed; the write cannot continue".into(),
            ));
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
        self.check_not_failed()?;
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
        self.check_not_failed()?;
        if (frames.frame_rate() - self.frame_rate).abs() > 1e-9 {
            return Err(VssError::Frame(FrameError::InvalidFrameRate));
        }
        for frame in frames.frames() {
            self.push_frame(frame.clone())?;
        }
        Ok(())
    }

    /// Flushes the final partial GOP and completes the write.
    pub fn finish(mut self) -> Result<WriteReport, VssError> {
        self.check_not_failed()?;
        if !self.pending.is_empty() {
            let chunk = std::mem::take(&mut self.pending);
            self.dispatch_gop(chunk)?;
        }
        match &mut self.target {
            SinkTarget::Frames(backend) => backend.finish(),
            SinkTarget::Encoded { backend, .. } => backend.finish(),
        }
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
    use crate::engine::test_support::{temp_engine, temp_vss};
    use crate::params::ReadRequest;
    use crate::VssSinkBackend;
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

        let (sink_vss, sink_root) = temp_vss("sink-inc");
        let gop_size = sink_vss.with_engine_read(|engine| engine.write_gop_size(request.codec));
        let mut sink = sink_vss.write_sink(&request, 30.0).unwrap();
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
    fn append_sink_is_byte_identical_to_batch_append() {
        let source = frames(135); // write 60, then append 2 full GOPs + 1 partial
        let (head, tail) = source.split_at(60);
        let request = WriteRequest::new("v", Codec::H264);
        let (mut batch_engine, batch_root) = temp_engine("append-batch");
        batch_engine.write(&request, &sequence(head.to_vec())).unwrap();
        let batch_report = batch_engine.append("v", &sequence(tail.to_vec())).unwrap();
        let batch_pages = collect_pages(&batch_root);
        for parallelism in [1usize, 4] {
            let (vss, root) = temp_vss(&format!("append-sink-{parallelism}"));
            vss.with_engine(|engine| engine.config.parallelism = parallelism);
            vss.write(&request, &sequence(head.to_vec())).unwrap();
            let backend =
                vss.begin_sink(|engine| engine.begin_incremental_append("v", 30.0)).unwrap();
            let encoder = backend.encoder();
            let mut sink = WriteSink::encoding(Box::new(backend), encoder);
            for frame in tail {
                sink.push_frame(frame.clone()).unwrap();
            }
            let report = sink.finish().unwrap();
            assert_eq!(report.physical_id, batch_report.physical_id);
            assert_eq!(report.gops_written, 3);
            assert_eq!(report.bytes_written, batch_report.bytes_written);
            assert_eq!(
                collect_pages(&root),
                batch_pages,
                "append sink diverged at parallelism {parallelism}"
            );
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
    fn aborted_sink_leaves_exactly_the_gops_whose_pushes_returned() {
        let (vss, root) = temp_vss("sink-abort");
        let request = WriteRequest::new("v", Codec::H264);
        let gop_size = vss.with_engine_read(|engine| engine.write_gop_size(request.codec));
        let mut sink = vss.write_sink(&request, 30.0).unwrap();
        // 3 full GOPs, each persisted by the push that completed it, plus a
        // partial that never flushes.
        for frame in frames(3 * gop_size + 10) {
            sink.push_frame(frame).unwrap();
        }
        drop(sink); // abort
        let (start, end) = vss.with_engine_read(|engine| engine.video_time_range("v")).unwrap();
        let persisted =
            vss.read(&ReadRequest::new("v", start, end, Codec::H264).uncacheable()).unwrap();
        assert_eq!(persisted.frames.len(), 3 * gop_size, "no partial GOP reaches disk");
        let _ = std::fs::remove_dir_all(root);
    }

    /// Persists through the engine, except that the second flush fails.
    struct FailsSecondFlush {
        inner: VssSinkBackend,
        flushes: usize,
    }

    impl EncodedGopBackend for FailsSecondFlush {
        fn flush_encoded(&mut self, gop: EncodedGop) -> Result<(), VssError> {
            self.flushes += 1;
            if self.flushes == 2 {
                return Err(VssError::Unsupported("injected flush failure".into()));
            }
            self.inner.flush_encoded(gop)
        }

        fn finish(&mut self) -> Result<WriteReport, VssError> {
            self.inner.finish()
        }
    }

    #[test]
    fn a_failed_flush_fuses_the_sink() {
        let (vss, root) = temp_vss("sink-fuse");
        let inner = vss
            .begin_sink(|engine| {
                engine.begin_incremental_write(&WriteRequest::new("v", Codec::H264), 30.0)
            })
            .unwrap();
        let encoder = inner.encoder();
        let gop_size = encoder.encoder.gop_size;
        let mut sink =
            WriteSink::encoding(Box::new(FailsSecondFlush { inner, flushes: 0 }), encoder);
        let mut source = frames(3 * gop_size + 1).into_iter();
        for frame in source.by_ref().take(2 * gop_size - 1) {
            sink.push_frame(frame).unwrap();
        }
        // The push that completes the second GOP reports the failure...
        assert!(matches!(sink.push_frame(source.next().unwrap()), Err(VssError::Unsupported(_))));
        // ...and the GOP's frames are gone, so nothing may follow it: a whole
        // third GOP and a final partial one are refused, as is the finish.
        for frame in source {
            assert!(matches!(sink.push_frame(frame), Err(VssError::Unsatisfiable(_))));
        }
        assert!(sink.push_sequence(&sequence(frames(1))).is_err());
        assert!(sink.finish().is_err(), "a video with a missing GOP must not report success");
        assert_eq!(
            vss.with_engine_read(|engine| engine.video_time_range("v")).unwrap(),
            (0.0, 1.0),
            "only the first GOP"
        );
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn empty_sink_errors_like_an_empty_write() {
        let (vss, root) = temp_vss("sink-empty");
        let sink = vss.write_sink(&WriteRequest::new("v", Codec::H264), 30.0).unwrap();
        assert!(matches!(sink.finish(), Err(VssError::EmptyWrite)));
        // Nothing was created.
        assert!(vss.video_names().is_empty());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn sink_rejects_shape_and_rate_mismatches() {
        let (vss, root) = temp_vss("sink-shape");
        let request = WriteRequest::new("v", Codec::H264);
        let mut sink = vss.write_sink(&request, 30.0).unwrap();
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
                vss.with_engine_read(|engine| engine.begin_incremental_write(&request, bad_rate)),
                Err(VssError::Frame(FrameError::InvalidFrameRate))
            ));
        }
        let _ = std::fs::remove_dir_all(root);
    }
}
