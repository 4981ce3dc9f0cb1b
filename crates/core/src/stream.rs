//! GOP-at-a-time streaming reads.
//!
//! [`ReadStream`] is the incremental counterpart of [`Engine::read`]: instead
//! of materializing a whole `ReadResult` (whose memory
//! footprint scales with the clip length), a stream yields
//! [`ReadChunk`]s — one GOP's worth of decoded frames (plus, for compressed
//! requests, one encoded output GOP) at a time — so a consumer that processes
//! frames incrementally holds O(GOP) memory instead of O(clip).
//!
//! # Snapshot, then decode lock-free
//!
//! Opening a stream does all the catalog-dependent work up front — range
//! validation, candidate collection, planning, recency bookkeeping and
//! resolving every planned GOP to its on-disk file — and captures the result
//! in a self-contained work list. Iteration then needs **no access to the
//! engine at all**: GOP files are read straight from disk, decoded, normalized
//! and (re)encoded one plan step at a time. This is what lets `vss-server`
//! open a stream under a shard's *shared* lock and release the lock before the
//! first byte of video is decoded: the shard lock is never held across GOP
//! file reads. The snapshot also takes a catalog [`Pin`](vss_catalog::Pin),
//! so the files it names stay on disk until the stream is dropped, whatever
//! compaction, eviction or deletion commits meanwhile; and whether a GOP
//! file is a deferred-compressed page is told by its content, so a page the
//! maintenance sweep rewrites mid-stream still reads the same frames.
//!
//! # Equivalence with materialized reads
//!
//! [`Engine::read`] opens a stream and [`drain`](ReadStream::drain)s it, so
//! draining a stream is *by construction* byte-identical to a materialized
//! read of the same request against the same store state. Chunk boundaries
//! follow the plan: pass-through segments yield one chunk per reused stored
//! GOP; re-encoded segments yield one chunk per output GOP of the configured
//! GOP size. A stream never admits its result to the cache of
//! materialized views itself: a materialized read drains it with no lock
//! held and then, only if it has a view to admit, commits that view (see
//! the `read` module).
//!
//! # One GOP stage, on the consumer's thread
//!
//! The snapshot is one flat, plan-ordered list of GOP jobs. A single
//! function (`decode_gop_job`) loads, decompresses, decodes and normalizes a
//! GOP, and a single consumer stage (`PlanState::step`) runs the sequential
//! work on its output (retiming, output-GOP chunking, re-encoding, the
//! admission measurement). Both run on the thread that drains the stream,
//! one GOP per step: a stream starts no thread of its own, so dropping one
//! mid-flight leaves nothing to cancel or join. The only helpers a GOP ever
//! has are the scoped ones [`VssConfig::parallelism`](crate::VssConfig::parallelism)
//! buys inside it — `par_map` over its frames, the encode's in-GOP crew —
//! which touch only the snapshot and the GOP files, never the engine or any
//! lock, and are gone when the step returns.
//!
//! # Memory accounting
//!
//! The stream tracks how many frames (and pixel-buffer bytes) it holds at any
//! moment — pending encoder input, retiming buffers, quality-measurement
//! accumulators and chunks awaiting the consumer — and records the
//! high-water mark, exposed as [`ReadStream::peak_buffered_frames`] /
//! [`peak_buffered_bytes`](ReadStream::peak_buffered_bytes) and reported in
//! [`ReadStats`]. Every stream's peak is bounded by **two GOPs** (one being
//! assembled, one awaiting the consumer), plus, for a read that may admit
//! its result, the at most three (source, resized) frame pairs the
//! admission measurement samples. Frame-rate-converted segments are the one
//! exception — retiming is a whole-segment operation, so such segments are
//! buffered in full before conversion.

use crate::engine::{Engine, ReadStats};
use crate::fragments::build_candidates;
use crate::params::{PlannerKind, ReadRequest};
use crate::quality::{QualityModel, DEFAULT_QUALITY_THRESHOLD};
use crate::read::ReadResult;
use crate::sink::SinkEncoder;
use crate::VssError;
use std::collections::VecDeque;
use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use vss_catalog::PhysicalVideoId;
use vss_codec::{codec_instance, Codec, CostModel, EncodedGop, EncoderConfig};
use vss_frame::{
    convert_frame_rate, crop, resize_bilinear, Frame, FrameSequence, PixelFormat, PsnrDb,
    RegionOfInterest, Resolution,
};
use vss_solver::{plan_read, plan_read_greedy, ReadPlan, ReadPlanRequest};

/// Execution-statistics increments carried by one [`ReadChunk`]: how much
/// work (I/O, decode) was done since the previous chunk was yielded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkStats {
    /// GOP files read from disk for this chunk.
    pub gops_read: usize,
    /// Frames decoded for this chunk (including look-back frames).
    pub frames_decoded: usize,
    /// Bytes read from disk for this chunk.
    pub bytes_read: u64,
}

/// One increment of a streaming read: a GOP's worth of output.
#[derive(Debug, Clone)]
pub struct ReadChunk {
    /// Decoded frames in the requested spatial/temporal/physical
    /// configuration. Concatenating every chunk's frames reproduces the
    /// `frames` of the equivalent materialized read exactly.
    pub frames: FrameSequence,
    /// The encoded output GOP, present when the requested codec is
    /// compressed. Concatenating every chunk's GOP reproduces the `encoded`
    /// output of the equivalent materialized read exactly.
    pub encoded_gop: Option<EncodedGop>,
    /// Work performed since the previous chunk.
    pub stats_delta: ChunkStats,
}

/// One planned GOP, fully resolved to its on-disk file at snapshot time so
/// iteration never needs the catalog.
#[derive(Debug)]
struct GopWork {
    path: PathBuf,
    /// First decoded frame that belongs to the output (mid-GOP entry).
    first: usize,
    /// Decode up to this frame (look-back included).
    last: usize,
}

/// One plan segment's snapshot: how its GOPs must be transformed.
#[derive(Debug, Clone, Copy)]
struct SegmentShape {
    source_codec: Codec,
    frame_rate: f64,
    resolution: Resolution,
    /// Stored GOPs can be handed to the output without re-encoding.
    passthrough: bool,
    /// Frame-rate conversion required (whole-segment operation).
    retime: bool,
}

/// One unit of GOP work: a fully resolved GOP plus a by-value copy of its
/// segment's descriptors, so [`decode_gop_job`] needs nothing but the job.
#[derive(Debug)]
struct GopJob {
    work: GopWork,
    /// Index of the owning segment in the plan snapshot.
    segment: usize,
    shape: SegmentShape,
    /// True for the segment's final GOP.
    last_gop: bool,
    /// Positions, among this GOP's output frames, of the frames the
    /// admission measurement samples (see [`assign_samples`]).
    samples: Vec<usize>,
}

/// [`decode_gop_job`]'s output for one GOP: everything the consumer-side
/// sequential stages (retiming, chunking, re-encode, admission measurement)
/// need.
#[derive(Debug)]
struct DecodedGop {
    segment: usize,
    last_gop: bool,
    /// The stored encoded GOP (pass-through segments reuse it verbatim).
    encoded: Option<EncodedGop>,
    /// The job's sampled (source, normalized) frame pairs.
    samples: Vec<(Frame, Frame)>,
    /// Normalized output frames (cropping stays on the consumer's thread).
    frames: Vec<Frame>,
    bytes_read: u64,
    frames_decoded: usize,
    decoding: Duration,
}

impl DecodedGop {
    fn held_frames(&self) -> usize {
        self.frames.len() + 2 * self.samples.len()
    }

    fn held_bytes(&self) -> u64 {
        byte_len(&self.frames) + pairs_byte_len(&self.samples)
    }
}

/// The per-GOP stage — load the file, undo deferred compression, decode,
/// slice and normalize. The only code that does so.
fn decode_gop_job(
    job: &GopJob,
    target_format: PixelFormat,
    output_resolution: Resolution,
    parallelism: usize,
) -> Result<DecodedGop, VssError> {
    let started = Instant::now();
    let bytes = std::fs::read(&job.work.path)
        .map_err(|e| VssError::Catalog(vss_catalog::CatalogError::Io(e)))?;
    let bytes_read = bytes.len() as u64;
    // Told apart by content, as reopen's reconcile does, not by the
    // snapshot: the maintenance sweep may have compressed the page since.
    let gop = crate::deferred::read_page(bytes)?;
    let implementation = codec_instance(job.shape.source_codec);
    // By value: a frame that needs no change below is moved into the result.
    let mut sliced = implementation.decode_prefix(&gop, job.work.last)?.into_frames();
    let frames_decoded = sliced.len();
    sliced.drain(..job.work.first.min(frames_decoded));
    let mut item = DecodedGop {
        segment: job.segment,
        last_gop: job.last_gop,
        encoded: None,
        samples: Vec::new(),
        frames: Vec::new(),
        bytes_read,
        frames_decoded,
        decoding: Duration::ZERO,
    };
    let Some(first) = sliced.first() else {
        item.decoding = started.elapsed();
        return Ok(item);
    };
    // One GOP's frames share a shape, so what they need is decided once.
    let resize = !job.shape.passthrough
        && output_resolution != job.shape.resolution
        && first.resolution() != output_resolution;
    let (width, height) = (output_resolution.width, output_resolution.height);
    let (frames, source) = if resize || first.format() != target_format {
        let frames = vss_parallel::try_par_map(parallelism, &sliced, |_, frame| match resize {
            false => frame.convert(target_format),
            true => match resize_bilinear(frame, width, height)? {
                resized if resized.format() == target_format => Ok(resized),
                resized => resized.convert(target_format),
            },
        })?;
        (frames, Some(sliced))
    } else {
        (sliced, None)
    };
    let source = source.as_ref().unwrap_or(&frames);
    item.samples = job.samples.iter().map(|&at| (source[at].clone(), frames[at].clone())).collect();
    item.frames = frames;
    if job.shape.passthrough {
        item.encoded = Some(gop);
    }
    item.decoding = started.elapsed();
    Ok(item)
}

/// What a read that may admit its result carries from its plan to its
/// commit, beside the drained result: the plan-time inputs of the view's
/// quality bound and the frame pairs sampled to measure its resampling
/// error (see the `read` module).
#[derive(Debug)]
pub(crate) struct AdmissionCarry {
    pub(crate) output_resolution: Resolution,
    /// The worst bound among the plan's sources.
    pub(crate) source_mse_bound: f64,
    /// The read's quality threshold, as the planner used it.
    pub(crate) threshold: PsnrDb,
    /// (source, normalized) pairs of the first resized segment, in order.
    pub(crate) samples: Vec<(Frame, Frame)>,
}

/// Accumulated stream-level statistics (the parts of [`ReadStats`] that are
/// not per-chunk deltas).
#[derive(Debug, Default)]
struct StreamBase {
    plan: ReadPlan,
    fragments_available: usize,
    cached_fragments_used: usize,
    planning: Duration,
    decoding: Duration,
    encoding: Duration,
    gops_read: usize,
    frames_decoded: usize,
    bytes_read: u64,
    /// Totals already attributed to yielded chunks (for delta computation).
    reported_gops: usize,
    reported_frames: usize,
    reported_bytes: u64,
    peak_buffered_frames: usize,
    peak_buffered_bytes: u64,
    output_frame_rate: f64,
    compressed: bool,
}

/// The decode-side state of a plan-backed stream.
struct PlanState {
    /// How output GOPs are encoded (the frame rate is each GOP's own).
    encoder: SinkEncoder,
    gop_size: usize,
    parallelism: usize,
    target_format: PixelFormat,
    region: Option<RegionOfInterest>,
    output_resolution: Resolution,
    output_fps: f64,
    segments: Vec<SegmentShape>,
    /// Index of the first unfinished segment.
    segment_cursor: usize,
    /// The plan's GOPs, decoded in plan order, one per step.
    gops: std::vec::IntoIter<GopJob>,
    /// Cropped frames awaiting enough material for one output GOP.
    pending: Vec<Frame>,
    pending_rate: f64,
    /// Whole-segment buffer for frame-rate conversion.
    retime_buffer: Vec<Frame>,
    /// `Some` when the read may admit its result.
    carry: Option<AdmissionCarry>,
    /// Keeps every planned GOP file on disk until the stream is dropped.
    _pin: vss_catalog::Pin,
}

enum StreamSource {
    /// An engine plan snapshot, decoded lazily.
    Plan(Box<PlanState>),
    /// Pre-chunked source (used by the baseline stores to speak the same
    /// streaming vocabulary).
    Chunks(Box<dyn Iterator<Item = Result<ReadChunk, VssError>> + Send>),
}

/// A lazily-evaluated, GOP-at-a-time read. See the [module docs](self).
///
/// `ReadStream` implements `Iterator<Item = Result<ReadChunk, VssError>>`.
/// After iteration completes, [`stats`](Self::stats) reports the full
/// [`ReadStats`]; [`drain`](Self::drain) consumes the stream into the
/// equivalent materialized [`ReadResult`].
pub struct ReadStream {
    source: StreamSource,
    base: StreamBase,
    ready: VecDeque<ReadChunk>,
    emitted_frames: usize,
    /// Set once a fatal error has been yielded; the stream then fuses.
    failed: bool,
    exhausted: bool,
}

impl std::fmt::Debug for ReadStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadStream")
            .field("emitted_frames", &self.emitted_frames)
            .field("peak_buffered_frames", &self.base.peak_buffered_frames)
            .finish_non_exhaustive()
    }
}

impl ReadStream {
    /// Builds a stream from pre-computed chunks (the adapter the baseline
    /// stores use to expose GOP-at-a-time reads through the one
    /// [`VideoStorage`](crate::VideoStorage) vocabulary). `compressed` states
    /// whether chunks carry encoded GOPs; `output_frame_rate` is the frame
    /// rate of the drained output.
    pub fn from_chunks(
        output_frame_rate: f64,
        compressed: bool,
        chunks: impl Iterator<Item = Result<ReadChunk, VssError>> + Send + 'static,
    ) -> Self {
        let base = StreamBase { output_frame_rate, compressed, ..StreamBase::default() };
        Self::new(StreamSource::Chunks(Box::new(chunks)), base)
    }

    fn new(source: StreamSource, base: StreamBase) -> Self {
        ReadStream { source, base, ready: VecDeque::new(), emitted_frames: 0, failed: false, exhausted: false }
    }

    /// The read plan behind this stream (empty for chunk-backed streams).
    pub fn plan(&self) -> &ReadPlan {
        &self.base.plan
    }

    /// Frame rate of the drained output (known at open time; a network
    /// server needs it before the first chunk to announce the stream).
    pub fn output_frame_rate(&self) -> f64 {
        self.base.output_frame_rate
    }

    /// True when the requested codec is compressed, i.e. chunks carry
    /// [`ReadChunk::encoded_gop`] values.
    pub fn is_compressed(&self) -> bool {
        self.base.compressed
    }

    /// High-water mark of frames buffered inside the stream so far.
    pub fn peak_buffered_frames(&self) -> usize {
        self.base.peak_buffered_frames
    }

    /// High-water mark of pixel-buffer bytes buffered inside the stream.
    pub fn peak_buffered_bytes(&self) -> u64 {
        self.base.peak_buffered_bytes
    }

    /// Point-in-time execution statistics (complete once the stream is
    /// exhausted). `cache_admitted` is always false: streams never admit.
    pub fn stats(&self) -> ReadStats {
        ReadStats {
            plan: self.base.plan.clone(),
            fragments_available: self.base.fragments_available,
            gops_read: self.base.gops_read,
            frames_decoded: self.base.frames_decoded,
            bytes_read: self.base.bytes_read,
            cached_fragments_used: self.base.cached_fragments_used,
            cache_admitted: false,
            planning: self.base.planning,
            decoding: self.base.decoding,
            encoding: self.base.encoding,
            peak_buffered_frames: self.base.peak_buffered_frames,
            peak_buffered_bytes: self.base.peak_buffered_bytes,
        }
    }

    /// Consumes the stream, materializing the equivalent [`ReadResult`].
    ///
    /// The drained output is byte-identical to [`Engine::read`] for the same
    /// request and store state (which is implemented as exactly this drain).
    /// Draining necessarily accumulates the whole result, so the reported
    /// peak buffered memory is O(clip) — the number streaming consumers
    /// avoid.
    pub fn drain(self) -> Result<ReadResult, VssError> {
        self.drain_admitting().map(|(result, _)| result)
    }

    /// Drains the stream and also returns what admitting its result needs,
    /// if its plan may admit it: the one way those inputs leave a stream.
    pub(crate) fn drain_admitting(
        mut self,
    ) -> Result<(ReadResult, Option<AdmissionCarry>), VssError> {
        let mut output = FrameSequence::empty(self.base.output_frame_rate)?;
        let mut encoded: Vec<EncodedGop> = Vec::new();
        while let Some(chunk) = self.next() {
            let chunk = chunk?;
            // The drain itself accumulates the whole result; count it so the
            // reported peak reflects what a materialized read really holds.
            output.extend(chunk.frames)?;
            if let Some(gop) = chunk.encoded_gop {
                encoded.push(gop);
            }
            let bytes: u64 = output.byte_len() as u64
                + encoded.iter().map(|g| g.byte_len() as u64).sum::<u64>();
            self.base.peak_buffered_frames = self.base.peak_buffered_frames.max(output.len());
            self.base.peak_buffered_bytes = self.base.peak_buffered_bytes.max(bytes);
        }
        let stats = self.stats();
        let carry = match self.source {
            StreamSource::Plan(state) => state.carry,
            StreamSource::Chunks(_) => None,
        };
        let result = ReadResult {
            frames: output,
            encoded: if self.base.compressed { Some(encoded) } else { None },
            stats,
        };
        Ok((result, carry))
    }
}

impl Iterator for ReadStream {
    type Item = Result<ReadChunk, VssError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(mut chunk) = self.ready.pop_front() {
                chunk.stats_delta = self.base.take_delta();
                self.emitted_frames += chunk.frames.len();
                return Some(Ok(chunk));
            }
            if self.exhausted {
                return None;
            }
            let stepped = match &mut self.source {
                StreamSource::Chunks(chunks) => match chunks.next() {
                    Some(Ok(chunk)) => {
                        self.base.gops_read += chunk.stats_delta.gops_read;
                        self.base.frames_decoded += chunk.stats_delta.frames_decoded;
                        self.base.bytes_read += chunk.stats_delta.bytes_read;
                        let bytes = chunk.frames.byte_len() as u64
                            + chunk.encoded_gop.as_ref().map_or(0, |g| g.byte_len() as u64);
                        self.base.peak_buffered_frames =
                            self.base.peak_buffered_frames.max(chunk.frames.len());
                        self.base.peak_buffered_bytes = self.base.peak_buffered_bytes.max(bytes);
                        self.ready.push_back(chunk);
                        Ok(true)
                    }
                    Some(Err(error)) => Err(error),
                    None => Ok(false),
                },
                StreamSource::Plan(state) => {
                    state.step(&mut self.base, &mut self.ready)
                }
            };
            match stepped {
                Ok(true) => continue,
                Ok(false) => {
                    self.exhausted = true;
                    // A plan must produce at least one frame.
                    let planned = matches!(self.source, StreamSource::Plan(_));
                    if planned && self.emitted_frames == 0 && self.ready.is_empty() {
                        self.failed = true;
                        return Some(Err(VssError::Unsatisfiable(
                            "plan produced no frames".into(),
                        )));
                    }
                }
                Err(error) => {
                    self.failed = true;
                    return Some(Err(error));
                }
            }
        }
    }
}

impl StreamBase {
    fn take_delta(&mut self) -> ChunkStats {
        let delta = ChunkStats {
            gops_read: self.gops_read - self.reported_gops,
            frames_decoded: self.frames_decoded - self.reported_frames,
            bytes_read: self.bytes_read - self.reported_bytes,
        };
        self.reported_gops = self.gops_read;
        self.reported_frames = self.frames_decoded;
        self.reported_bytes = self.bytes_read;
        delta
    }
}

impl PlanState {
    /// Advances the stream by one unit of work — at most one GOP or one
    /// segment finalization — pushing any completed chunks into `ready`.
    /// Returns `Ok(false)` once all segments are exhausted.
    fn step(
        &mut self,
        base: &mut StreamBase,
        ready: &mut VecDeque<ReadChunk>,
    ) -> Result<bool, VssError> {
        let Some(job) = self.gops.next() else {
            // Every GOP has been delivered; close out the remaining
            // segments (retime/partial-GOP flushes) one per step.
            if self.segment_cursor == self.segments.len() {
                return Ok(false);
            }
            self.finish_segment(base, ready)?;
            return Ok(true);
        };
        let item =
            decode_gop_job(&job, self.target_format, self.output_resolution, self.parallelism)?;
        // Segments the work list skipped entirely (no decodable GOPs) still
        // finish in plan order before this GOP's segment is processed.
        while self.segment_cursor < item.segment {
            self.finish_segment(base, ready)?;
        }
        base.gops_read += 1;
        base.bytes_read += item.bytes_read;
        base.frames_decoded += item.frames_decoded;
        base.decoding += item.decoding;
        self.note_buffered(base, ready, item.held_frames(), item.held_bytes());
        let shape = self.segments[item.segment];
        if item.frames.is_empty() {
            if item.last_gop {
                self.finish_segment(base, ready)?;
            }
            return Ok(true);
        }
        if shape.passthrough {
            // The stored GOP already matches the requested configuration:
            // only the physical layout was converted; reuse the encoded bytes.
            let chunk = ReadChunk {
                frames: FrameSequence::new(item.frames, shape.frame_rate)?,
                encoded_gop: item.encoded,
                stats_delta: ChunkStats::default(),
            };
            self.note_buffered(base, ready, chunk.frames.len(), chunk.frames.byte_len() as u64);
            ready.push_back(chunk);
        } else {
            if let Some(carry) = &mut self.carry {
                carry.samples.extend(item.samples);
            }
            if shape.retime {
                self.retime_buffer.extend(item.frames);
                self.note_buffered(base, ready, 0, 0);
            } else {
                self.emit_output(item.frames, shape.frame_rate, base, ready)?;
            }
        }
        if item.last_gop {
            self.finish_segment(base, ready)?;
        }
        Ok(true)
    }

    /// Closes out the first unfinished segment: retimes the buffered segment
    /// if needed and flushes the partial output GOP.
    fn finish_segment(
        &mut self,
        base: &mut StreamBase,
        ready: &mut VecDeque<ReadChunk>,
    ) -> Result<(), VssError> {
        let Some(&segment) = self.segments.get(self.segment_cursor) else { return Ok(()) };
        self.segment_cursor += 1;
        if segment.retime && !self.retime_buffer.is_empty() {
            let started = Instant::now();
            let normalized =
                FrameSequence::new(std::mem::take(&mut self.retime_buffer), segment.frame_rate)?;
            let retimed = convert_frame_rate(&normalized, self.output_fps)?;
            base.decoding += started.elapsed();
            self.emit_output(retimed.into_frames(), self.output_fps, base, ready)?;
        }
        // Output GOPs never span plan segments: flush the partial GOP.
        if self.encoder.codec.is_compressed() && !self.pending.is_empty() {
            let frames = std::mem::take(&mut self.pending);
            let rate = self.pending_rate;
            self.emit_encoded(frames, rate, base, ready)?;
        }
        Ok(())
    }

    /// Routes normalized frames to the output: cropped, then either yielded
    /// directly (raw requests) or staged for GOP-sized re-encoding.
    fn emit_output(
        &mut self,
        frames: Vec<Frame>,
        rate: f64,
        base: &mut StreamBase,
        ready: &mut VecDeque<ReadChunk>,
    ) -> Result<(), VssError> {
        let started = Instant::now();
        let cropped = match self.region {
            Some(region) => {
                vss_parallel::try_par_map(self.parallelism, &frames, |_, frame| {
                    crop(frame, &region)
                })?
            }
            None => frames,
        };
        base.encoding += started.elapsed();
        if self.encoder.codec.is_compressed() {
            self.pending.extend(cropped);
            self.pending_rate = rate;
            self.note_buffered(base, ready, 0, 0);
            while self.pending.len() >= self.gop_size {
                let chunk: Vec<Frame> = self.pending.drain(..self.gop_size).collect();
                self.emit_encoded(chunk, rate, base, ready)?;
            }
        } else {
            let chunk = ReadChunk {
                frames: FrameSequence::new(cropped, rate)?,
                encoded_gop: None,
                stats_delta: ChunkStats::default(),
            };
            self.note_buffered(base, ready, chunk.frames.len(), chunk.frames.byte_len() as u64);
            ready.push_back(chunk);
        }
        Ok(())
    }

    /// Encodes one output GOP and yields it with its source frames.
    fn emit_encoded(
        &mut self,
        frames: Vec<Frame>,
        rate: f64,
        base: &mut StreamBase,
        ready: &mut VecDeque<ReadChunk>,
    ) -> Result<(), VssError> {
        let started = Instant::now();
        let gop = SinkEncoder { frame_rate: rate, ..self.encoder }.encode(&frames)?;
        base.encoding += started.elapsed();
        let chunk = ReadChunk {
            frames: FrameSequence::new(frames, rate)?,
            encoded_gop: Some(gop),
            stats_delta: ChunkStats::default(),
        };
        self.note_buffered(base, ready, chunk.frames.len(), chunk.frames.byte_len() as u64);
        ready.push_back(chunk);
        Ok(())
    }

    /// Updates the buffered-memory high-water mark. `transient` covers
    /// material held by the current step that is not yet in a named buffer
    /// (e.g. a freshly decoded GOP).
    fn note_buffered(
        &self,
        base: &mut StreamBase,
        ready: &VecDeque<ReadChunk>,
        transient_frames: usize,
        transient_bytes: u64,
    ) {
        let samples = self.carry.as_ref().map_or(&[][..], |carry| &carry.samples);
        let held_frames = self.pending.len()
            + self.retime_buffer.len()
            + 2 * samples.len()
            + ready.iter().map(|c| c.frames.len()).sum::<usize>()
            + transient_frames;
        let held_bytes = byte_len(&self.pending)
            + byte_len(&self.retime_buffer)
            + pairs_byte_len(samples)
            + ready.iter().map(|c| c.frames.byte_len() as u64).sum::<u64>()
            + transient_bytes;
        base.peak_buffered_frames = base.peak_buffered_frames.max(held_frames);
        base.peak_buffered_bytes = base.peak_buffered_bytes.max(held_bytes);
    }
}

fn byte_len(frames: &[Frame]) -> u64 {
    frames.iter().map(|f| f.byte_len() as u64).sum()
}

fn pairs_byte_len(pairs: &[(Frame, Frame)]) -> u64 {
    pairs.iter().map(|(a, b)| (a.byte_len() + b.byte_len()) as u64).sum()
}

/// Spreads [`QualityModel::sample_positions`] over the measuring segment's
/// GOP jobs: the segment's frames are its jobs' output frames in order.
fn assign_samples(jobs: &mut [GopJob]) {
    let frames = jobs.iter().map(|job| job.work.last - job.work.first).sum();
    let mut positions = QualityModel::sample_positions(frames).peekable();
    let mut offset = 0;
    for job in jobs {
        let end = offset + job.work.last - job.work.first;
        while let Some(position) = positions.next_if(|&position| position < end) {
            job.samples.push(position - offset);
        }
        offset = end;
    }
}

impl Engine {
    /// Opens a GOP-at-a-time streaming read (planned by `request.planner`).
    ///
    /// All catalog-dependent work happens here, through `&self`; the returned
    /// stream owns a complete snapshot and a catalog pin, and performs its
    /// file I/O, decoding and re-encoding without touching the engine — see
    /// the [module docs](crate::stream). A stream never admits its result to
    /// the cache of materialized views; [`Engine::read`] drains one and
    /// commits what it has to admit.
    pub fn read_stream(&self, request: &ReadRequest) -> Result<ReadStream, VssError> {
        // The span covers the open (candidate collection + planning); the
        // drain happens on the caller's schedule.
        let _span = vss_telemetry::span("engine", "read_stream", request.name.as_str());
        let (stream, touched) = self.plan(request, self.catalog.pin())?;
        // Recency clocks are atomic, so `&self` suffices.
        for (physical_id, gop_index) in touched {
            self.catalog.touch_gop(&request.name, physical_id, gop_index)?;
        }
        Ok(stream)
    }

    /// Whether a read of `request` may admit its result against the catalog
    /// as it is now: [`plan`](Self::plan)'s predicate, re-evaluated by an
    /// admission's commit. False if the video is gone or cannot be planned.
    pub(crate) fn may_admit_now(&self, request: &ReadRequest) -> bool {
        self.plan(request, self.catalog.pin()).is_ok_and(|(stream, _)| {
            matches!(&stream.source, StreamSource::Plan(state) if state.carry.is_some())
        })
    }

    /// Plans `request` and resolves every planned GOP to its file: the
    /// stream that holds `pin`, and the planned GOPs, for the recency
    /// bookkeeping of a stream that opens.
    ///
    /// The read may admit its result (`carry` is `Some`) only if the request
    /// may ([`ReadRequest::may_admit`]), no segment passes stored GOPs
    /// through (they already exist in the requested configuration, so the
    /// combination would only duplicate them) and the plan is not a single
    /// fragment already in the requested configuration. Only then does the
    /// first resized segment sample frames for the view's resampling error.
    fn plan(
        &self,
        request: &ReadRequest,
        pin: vss_catalog::Pin,
    ) -> Result<(ReadStream, Vec<(PhysicalVideoId, u64)>), VssError> {
        let video = self.catalog.video(&request.name)?;
        let original = video
            .original()
            .ok_or_else(|| VssError::Unsatisfiable("video has no written data".into()))?;
        let (start, end) = (request.temporal.start, request.temporal.end);
        if end <= start
            || start < original.start_time() - 1e-6
            || end > original.end_time() + 1e-6
        {
            return Err(VssError::OutOfRange {
                requested_start: start,
                requested_end: end,
                available_start: original.start_time(),
                available_end: original.end_time(),
            });
        }
        let threshold = request.physical.quality_threshold.unwrap_or(DEFAULT_QUALITY_THRESHOLD);
        let output_resolution = request.spatial.resolution.unwrap_or_else(|| original.resolution());
        let output_fps = request.temporal.frame_rate.unwrap_or(original.frame_rate);

        // --- plan ----------------------------------------------------------
        let plan_started = Instant::now();
        let candidates = build_candidates(video, threshold);
        let plan_request = ReadPlanRequest {
            start,
            end,
            resolution: output_resolution,
            codec: request.physical.codec,
        };
        let plan = match request.planner {
            PlannerKind::Optimal => plan_read(&plan_request, &candidates.candidates, &CostModel)?,
            PlannerKind::Greedy => plan_read_greedy(&plan_request, &candidates.candidates, &CostModel)?,
        };
        let planning = plan_started.elapsed();
        let target_format = match request.physical.codec {
            Codec::Raw(format) => format,
            _ => PixelFormat::Yuv420,
        };

        // --- resolve the plan's GOPs ----------------------------------------
        // Resolve every planned GOP to its on-disk file and record how each
        // segment must be transformed, flattening the plan into one ordered
        // job list. After this loop the stream is self-contained.
        let mut segments: Vec<SegmentShape> = Vec::new();
        let mut jobs: Vec<GopJob> = Vec::new();
        let mut touched = Vec::new();
        let mut cached_segments = 0usize;
        let mut source_mse_bound = 0.0f64;
        let mut passes_through = false;
        let mut measured: Option<Range<usize>> = None;
        for segment in &plan.segments {
            let run = candidates.run(segment.fragment_id);
            let physical = video
                .physical
                .iter()
                .find(|p| p.id == run.physical_id)
                .ok_or_else(|| {
                    VssError::Unsatisfiable("plan references a missing physical video".into())
                })?;
            source_mse_bound = source_mse_bound.max(physical.mse_bound);
            if !physical.is_original {
                cached_segments += 1;
            }
            let source_codec = physical
                .codec()
                .ok_or_else(|| VssError::Unsatisfiable("unknown stored codec".into()))?;
            let retime = (physical.frame_rate - output_fps).abs() > 1e-9;
            let passthrough = request.physical.codec.is_compressed()
                && source_codec == request.physical.codec
                && physical.resolution() == output_resolution
                && !retime
                && request.spatial.region.is_none();
            let gop_map = physical.gop_index_map();
            let gop_fps =
                if physical.frame_rate > 0.0 { physical.frame_rate } else { output_fps };
            let mut gops: Vec<GopWork> = Vec::new();
            for &gop_index in &run.gop_indices {
                let Some(gop_record) = gop_map.get(&gop_index) else {
                    continue;
                };
                if !gop_record.overlaps(segment.start, segment.end) {
                    continue;
                }
                let relative_start = (segment.start - gop_record.start_time).max(0.0);
                let relative_end =
                    (segment.end - gop_record.start_time).min(gop_record.duration().max(0.0));
                let first = (relative_start * gop_fps).round() as usize;
                if first >= gop_record.frame_count {
                    continue;
                }
                let last = ((relative_end * gop_fps).round() as usize)
                    .min(gop_record.frame_count)
                    .max(first + 1);
                touched.push((run.physical_id, gop_index));
                gops.push(GopWork {
                    path: self.catalog.gop_path(&request.name, physical, gop_index),
                    first,
                    last,
                });
            }
            passes_through |= passthrough && !gops.is_empty();
            if measured.is_none() && output_resolution != physical.resolution() && !gops.is_empty() {
                measured = Some(jobs.len()..jobs.len() + gops.len());
            }
            let shape = SegmentShape {
                source_codec,
                frame_rate: physical.frame_rate,
                resolution: physical.resolution(),
                passthrough,
                retime,
            };
            let gop_count = gops.len();
            jobs.extend(gops.into_iter().enumerate().map(|(position, work)| GopJob {
                work,
                segment: segments.len(),
                shape,
                last_gop: position + 1 == gop_count,
                samples: Vec::new(),
            }));
            segments.push(shape);
        }
        let duplicate = match plan.segments.as_slice() {
            [only] => {
                let fragment = &candidates.candidates[only.fragment_id as usize];
                fragment.codec == request.physical.codec
                    && fragment.resolution == output_resolution
                    && request
                        .temporal
                        .frame_rate
                        .is_none_or(|fps| (fps - fragment.frame_rate).abs() < 1e-9)
            }
            _ => false,
        };
        let carry = if request.may_admit() && !passes_through && !duplicate {
            if let Some(range) = measured {
                assign_samples(&mut jobs[range]);
            }
            Some(AdmissionCarry { output_resolution, source_mse_bound, threshold, samples: Vec::new() })
        } else {
            None
        };
        let parallelism = self.config.parallelism;
        let encoder = SinkEncoder {
            codec: request.physical.codec,
            encoder: EncoderConfig {
                quality: request
                    .physical
                    .encoder_quality
                    .unwrap_or(crate::DEFAULT_ENCODER_QUALITY),
                gop_size: self.config.gop_size,
            },
            frame_rate: output_fps,
            threads: parallelism,
        };
        let state = PlanState {
            encoder,
            gop_size: self.config.gop_size,
            parallelism,
            target_format,
            region: request.spatial.region,
            output_resolution,
            output_fps,
            segments,
            segment_cursor: 0,
            gops: jobs.into_iter(),
            pending: Vec::new(),
            pending_rate: output_fps,
            retime_buffer: Vec::new(),
            carry,
            _pin: pin,
        };
        let base = StreamBase {
            plan,
            fragments_available: candidates.candidates.len(),
            cached_fragments_used: cached_segments,
            planning,
            output_frame_rate: output_fps,
            compressed: request.physical.codec.is_compressed(),
            ..StreamBase::default()
        };
        Ok((ReadStream::new(StreamSource::Plan(Box::new(state)), base), touched))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_support::temp_engine;
    use crate::params::WriteRequest;
    use vss_frame::pattern;

    fn sequence(frames: usize) -> FrameSequence {
        let frames: Vec<_> = (0..frames)
            .map(|i| pattern::gradient(64, 48, PixelFormat::Yuv420, i as u64))
            .collect();
        FrameSequence::new(frames, 30.0).unwrap()
    }

    #[test]
    fn stream_chunks_concatenate_to_the_materialized_read() {
        let (mut engine, root) = temp_engine("stream-concat");
        engine.write(&WriteRequest::new("v", Codec::H264), &sequence(90)).unwrap();
        let request = ReadRequest::new("v", 0.0, 3.0, Codec::Hevc).uncacheable();
        let mut streamed = FrameSequence::empty(30.0).unwrap();
        let mut gops = Vec::new();
        let mut stream = engine.read_stream(&request).unwrap();
        for chunk in &mut stream {
            let chunk = chunk.unwrap();
            streamed.extend(chunk.frames).unwrap();
            gops.extend(chunk.encoded_gop);
        }
        let materialized = engine.read(&request).unwrap();
        assert_eq!(streamed.frames(), materialized.frames.frames());
        let stream_bytes: Vec<Vec<u8>> = gops.iter().map(|g| g.to_bytes()).collect();
        let read_bytes: Vec<Vec<u8>> =
            materialized.encoded.unwrap().iter().map(|g| g.to_bytes()).collect();
        assert_eq!(stream_bytes, read_bytes);
        // The streaming consumer held a bounded buffer; the materialized read
        // necessarily held the whole clip.
        assert!(stream.peak_buffered_frames() < materialized.stats.peak_buffered_frames);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn stream_deltas_sum_to_the_stream_stats() {
        let (mut engine, root) = temp_engine("stream-deltas");
        engine.write(&WriteRequest::new("v", Codec::H264), &sequence(60)).unwrap();
        let request = ReadRequest::new("v", 0.0, 2.0, Codec::H264).uncacheable();
        let mut stream = engine.read_stream(&request).unwrap();
        let mut delta = ChunkStats::default();
        for chunk in &mut stream {
            let chunk = chunk.unwrap();
            delta.gops_read += chunk.stats_delta.gops_read;
            delta.frames_decoded += chunk.stats_delta.frames_decoded;
            delta.bytes_read += chunk.stats_delta.bytes_read;
        }
        let stats = stream.stats();
        assert_eq!(delta.gops_read, stats.gops_read);
        assert_eq!(delta.frames_decoded, stats.frames_decoded);
        assert_eq!(delta.bytes_read, stats.bytes_read);
        assert!(stats.gops_read >= 2);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn empty_plans_error_like_materialized_reads() {
        let (mut engine, root) = temp_engine("stream-range");
        engine.write(&WriteRequest::new("v", Codec::H264), &sequence(30)).unwrap();
        assert!(matches!(
            engine.read_stream(&ReadRequest::new("v", 0.0, 5.0, Codec::H264)),
            Err(VssError::OutOfRange { .. })
        ));
        assert!(engine.read_stream(&ReadRequest::new("missing", 0.0, 1.0, Codec::H264)).is_err());
        let _ = std::fs::remove_dir_all(root);
    }

    /// Frames and encoded bytes of a drained stream.
    fn drained(stream: ReadStream) -> (FrameSequence, Option<Vec<Vec<u8>>>) {
        let result = stream.drain().unwrap();
        (result.frames, result.encoded.map(|gops| gops.iter().map(|g| g.to_bytes()).collect()))
    }

    /// A stream opened before `change` drains exactly as one drained before it.
    fn drains_across(engine: &mut Engine, request: &ReadRequest, change: impl FnOnce(&mut Engine)) {
        let reference = drained(engine.read_stream(request).unwrap());
        let stream = engine.read_stream(request).unwrap();
        change(engine);
        let (frames, encoded) = drained(stream);
        assert_eq!(frames.frames(), reference.0.frames());
        assert_eq!(encoded, reference.1);
    }

    #[test]
    fn a_stream_outlives_the_compaction_of_the_views_it_planned() {
        let (mut engine, root) = temp_engine("stream-compact");
        engine.write(&WriteRequest::new("v", Codec::H264), &sequence(90)).unwrap();
        engine.read(&ReadRequest::new("v", 0.0, 1.0, Codec::Hevc)).unwrap();
        engine.read(&ReadRequest::new("v", 1.0, 2.0, Codec::Hevc)).unwrap();
        let request = ReadRequest::new("v", 0.0, 2.0, Codec::Hevc).uncacheable();
        drains_across(&mut engine, &request, |engine| {
            assert_eq!(engine.compact_video("v").unwrap(), 1);
        });
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn a_stream_outlives_the_deferred_compression_of_its_pages() {
        let (mut engine, root) = temp_engine("stream-deferred");
        engine.config.deferred_compression = false;
        let raw = Codec::Raw(PixelFormat::Rgb8);
        engine.write(&WriteRequest::new("v", raw), &sequence(120)).unwrap();
        engine.config.deferred_compression = true;
        let budget = engine.bytes_used("v").unwrap() + 1;
        engine.catalog.set_storage_budget("v", Some(budget)).unwrap();
        let request = ReadRequest::new("v", 0.0, 4.0, raw).uncacheable();
        drains_across(&mut engine, &request, |engine| {
            assert_eq!(engine.deferred_compression_sweep("v", 4).unwrap(), 4);
        });
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn a_stream_outlives_the_deletion_of_its_video() {
        let (mut engine, root) = temp_engine("stream-delete");
        engine.write(&WriteRequest::new("v", Codec::H264), &sequence(90)).unwrap();
        let request = ReadRequest::new("v", 0.0, 3.0, Codec::Hevc).uncacheable();
        let reference = drained(engine.read_stream(&request).unwrap());
        let mut stream = engine.read_stream(&request).unwrap();
        let first = stream.next().unwrap().unwrap();
        engine.delete_video("v").unwrap();
        let (rest, encoded) = drained(stream);
        let mut frames = first.frames;
        frames.extend(rest).unwrap();
        assert_eq!(frames.frames(), reference.0.frames());
        let encoded: Vec<Vec<u8>> =
            first.encoded_gop.iter().map(|g| g.to_bytes()).chain(encoded.unwrap()).collect();
        assert_eq!(Some(encoded), reference.1);
        // Once the last stream is gone, so are the video's files.
        assert!(!root.join("v").exists());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn chunk_backed_streams_drain() {
        let frames = sequence(6);
        let chunk = ReadChunk {
            frames: frames.clone(),
            encoded_gop: None,
            stats_delta: ChunkStats { gops_read: 1, frames_decoded: 6, bytes_read: 10 },
        };
        let stream = ReadStream::from_chunks(30.0, false, vec![Ok(chunk)].into_iter());
        let result = stream.drain().unwrap();
        assert_eq!(result.frames.frames(), frames.frames());
        assert!(result.encoded.is_none());
        assert_eq!(result.stats.gops_read, 1);
        assert_eq!(result.stats.bytes_read, 10);
    }
}
