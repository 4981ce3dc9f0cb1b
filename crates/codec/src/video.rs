//! The simulated video codecs.
//!
//! Two lossy codecs are provided, standing in for the H.264 and HEVC codecs
//! the paper's prototype drives through FFmpeg/NVENC:
//!
//! * [`SimH264`] — single-hypothesis prediction: intra frames predict each
//!   sample from its left neighbour; predicted (P) frames predict from the
//!   co-located sample of the previous reconstructed frame.
//! * [`SimHevc`] — H.264's predictors or an advanced family (spatio-temporal
//!   median for P frames), chosen once per GOP and flagged in every frame:
//!   intra basic, frames 1 and 2 both ways keeping the smaller, then frame
//!   2's winner. The decoder still reads the advanced intra predictor (MED /
//!   LOCO-I) that earlier encoders chose. On coherent video the bitstream is
//!   smaller for the same quality at higher cost — the relative ordering of
//!   real H.264 vs HEVC, which is what VSS's cost model relies on.
//!
//! Both codecs quantize prediction residuals with a uniform step derived from
//! the 0–100 quality setting, reconstruct exactly as the decoder will (so
//! there is no drift), and entropy-code residuals with the zero-run coder in
//! [`crate::bitstream`]. GOPs are fully self-contained: the first frame is
//! intra, subsequent frames are predicted, giving the I/P dependency
//! structure that VSS's look-back cost models.
//!
//! [`RawCodec`] stores frames uncompressed in a chosen pixel layout and is
//! used for the `rgb`/`yuv` physical representations.
//!
//! # Kernel structure
//!
//! Encoder and decoder share one row kernel, `code_row`, monomorphised over
//! the four predictors ({intra, inter} × {basic, advanced}) and the
//! direction (a `Residuals` impl that either quantises or looks up parsed
//! levels). All four predictors read the same three samples, the first
//! column is peeled, and rows are sliced once, so the inner loop carries no
//! border or bounds branch. The quantiser is a per-GOP table filled with the
//! closed form, hence exact; no division is left in a sample loop. The
//! encoder stages a row of levels and entropy-codes it after the row, which
//! keeps the zero-run branch out of the sample loop. The decoder has one
//! parse loop with two consumers: a basic inter plane is a copy of the
//! previous reconstruction (every zero run is decoded by it) plus each parsed
//! level, dequantised and clamped where it lands; every other plane takes
//! its row's levels from `Dequantize::begin` before `code_row` runs.
//!
//! Rows are coded one at a time, on purpose. The rows of an inter plane are
//! independent, and coding four in lockstep hides the advanced predictor's
//! `left → median → quantise → reconstruct` latency (HEVC encode 14 → 9
//! ns/px on an idle core). But a loop that fills every issue slot loses them
//! to whatever else runs on the physical core, while a loop waiting on its
//! own chain does not notice: on the shared benchmark host the lockstep
//! kernel slowed by 39 % in a busy phase against 19 % for this one, and ten
//! `transcode_scan` runs spread by 19 % of their median against 9 %. The
//! steadier kernel is the one that stays.
//!
//! # Task structure
//!
//! A GOP's frames are sequential — frame *n + 1* predicts from the
//! reconstruction of frame *n* — so what an encode can share with a second
//! thread lies inside a frame, and a frame falls apart along two seams that
//! cross nothing but read-only inputs (the source, the previous
//! reconstruction, the quantiser table): its three planes, and on HEVC's
//! frames 1 and 2 the two candidate families. `encode_frames` therefore makes
//! each frame a batch of {family} × {Y, U, V} tasks, each writing its own
//! payload buffer and its own plane of its candidate's reconstruction, and
//! drains the batch on a [`vss_parallel::Crew`] that lives for the GOP. The
//! mode decision, the flag byte and the concatenation in the order Y, U, V
//! happen on the caller once the batch is done, from the tasks' buffers, so
//! the bitstream is the same whichever thread ran what — and a crew of one
//! (the thread budget 1 every multi-GOP write hands its GOPs) is the caller
//! running the same tasks in order, not a second path. Frames too small to
//! repay a hand-off stay on the caller (`MIN_SHARED_FRAME_SAMPLES`).
//!
//! Tasks stop at planes. Splitting a plane into row bands would balance two
//! threads exactly, but an intra plane is a wavefront (row *y* predicts from
//! row *y − 1*), a band's bitstream cannot be placed until the bands above
//! it are sized (zero runs cross rows), and interleaving rows inside one
//! thread is the lockstep kernel rejected above. Largest-first claiming of
//! whole planes brings two threads to 0.53 of a two-family frame's serial
//! time and about 0.67 of a one-family frame's (Y beside U + V); the decoder
//! has no such seam yet, because plane *n + 1*'s offset is only known once
//! plane *n* is parsed.

use crate::bitstream::{ResidualReader, ResidualWriter};
use crate::{Codec, CodecError, EncodedGop, EncoderConfig, FrameInfo, VideoCodec};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard, RwLock};
use vss_frame::{Frame, FrameError, FrameSequence, PixelFormat};

/// Simulated H.264 codec (cheaper, larger output).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimH264;

/// Simulated HEVC codec: H.264's predictors or the advanced family, chosen
/// once per GOP (more expensive; smaller output on coherent video).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimHevc;

/// Uncompressed storage in a fixed pixel layout.
#[derive(Debug, Clone, Copy)]
pub struct RawCodec(pub PixelFormat);

/// Returns the codec implementation for a [`Codec`] identifier.
pub fn codec_instance(codec: Codec) -> Box<dyn VideoCodec> {
    match codec {
        Codec::H264 => Box::new(SimH264),
        Codec::Hevc => Box::new(SimHevc),
        Codec::Raw(fmt) => Box::new(RawCodec(fmt)),
    }
}

/// Splits a frame sequence into GOPs of at most `config.gop_size` frames and
/// encodes each independently on the calling thread. This is the entry point
/// the storage manager uses when ingesting or caching video.
pub fn encode_to_gops(
    frames: &FrameSequence,
    codec: Codec,
    config: &EncoderConfig,
) -> Result<Vec<EncodedGop>, CodecError> {
    encode_to_gops_parallel(frames, codec, config, 1)
}

/// Parallel variant of [`encode_to_gops`]: GOPs are fully independent (the
/// first frame of each is intra-coded), so the `threads` are spent on whole
/// GOPs first, collected in input order, and a GOP spends inside itself only
/// what the GOP count leaves (see [`VideoCodec::encode_slice`]). The output
/// is bit-identical to the sequential path for any `threads` value; `threads
/// = 0` uses every available core and `threads = 1` runs on the calling
/// thread without spawning.
pub fn encode_to_gops_parallel(
    frames: &FrameSequence,
    codec: Codec,
    config: &EncoderConfig,
    threads: usize,
) -> Result<Vec<EncodedGop>, CodecError> {
    if frames.is_empty() {
        return Err(CodecError::EmptyInput);
    }
    let implementation = codec_instance(codec);
    let all = frames.frames();
    let frame_rate = frames.frame_rate();
    let ranges = vss_parallel::chunk_ranges(all.len(), config.gop_size.max(1));
    let threads = vss_parallel::resolve_threads(threads);
    let per_gop = vss_parallel::threads_per_job(threads, ranges.len());
    vss_parallel::try_par_map(threads, &ranges, |_, &(start, end)| {
        implementation.encode_slice(&all[start..end], frame_rate, config, per_gop)
    })
}

/// Decodes a set of independently decodable GOPs on up to `threads` worker
/// threads, returning each GOP's frames in input order. Like the encode
/// path, the result is identical for any thread count.
pub fn decode_gops_parallel(
    gops: &[EncodedGop],
    codec: Codec,
    threads: usize,
) -> Result<Vec<FrameSequence>, CodecError> {
    let implementation = codec_instance(codec);
    vss_parallel::try_par_map(threads, gops, |_, gop| implementation.decode(gop))
}

// --- plane geometry -------------------------------------------------------

/// (byte range, width) of the Y, U and V planes within a YUV 4:2:0 buffer.
fn yuv420_planes(width: u32, height: u32) -> [(Range<usize>, usize); 3] {
    let (w, h) = (width as usize, height as usize);
    let (luma, chroma) = (w * h, (w / 2) * (h / 2));
    [(0..luma, w), (luma..luma + chroma, w / 2), (luma + chroma..luma + 2 * chroma, w / 2)]
}

// --- quantiser and predictors ---------------------------------------------

/// Entry `r & 2047` holds `[level, level × step]` for the residual `r`.
/// Residuals lie in −510..=510 (MED predicts in −255..=510); 2048 entries
/// make the masked index provably in bounds.
type QuantTable = [[i16; 2]; 2048];

/// Tabulates the uniform quantiser of step `q`, round half away from zero.
fn quant_table(q: i32) -> Box<QuantTable> {
    let mut table = Box::new([[0i16; 2]; 2048]);
    for residual in -1024i32..1024 {
        let level = (residual.abs() + q / 2) / q * residual.signum();
        table[residual as usize % 2048] = [level as i16, (level * q) as i16];
    }
    table
}

/// Advanced intra predictor: MED / LOCO-I gradient.
fn med(left: i32, above: i32, above_left: i32) -> i32 {
    if above_left >= left.max(above) {
        left.min(above)
    } else if above_left <= left.min(above) {
        left.max(above)
    } else {
        left + above - above_left
    }
}

/// Advanced inter predictor: the median of `left`, `temporal` and the
/// gradient `left + d`, `d = temporal − prev_left`, clamped to 0..=255. The
/// sign of `d` puts the gradient on one side of `left`, so from `left` to the
/// prediction is two ops and a select (the clamped median took five).
fn spatio_temporal(left: i32, temporal: i32, prev_left: i32) -> i32 {
    let d = temporal - prev_left;
    if d >= 0 { left.max(temporal).min(left + d) } else { left.min(temporal).max(left + d) }
}

// --- the plane kernel -----------------------------------------------------

/// Where a row's residuals come from: quantised from the source (encoder)
/// or parsed from the stream (decoder). Either way `delta` is what
/// reconstruction adds to the prediction, so the two cannot drift.
trait Residuals {
    /// Before a row of `samples` samples (decoder: parse them).
    fn begin(&mut self, _samples: usize) -> Result<(), CodecError> {
        Ok(())
    }
    /// The dequantised residual of the row's `index`-th sample.
    fn delta(&mut self, index: usize, pred: i32) -> i32;
    /// After the row (encoder: entropy-code the staged levels).
    fn end(&mut self, _samples: usize) {}
}

/// Codes one row. `predict` sees the reconstructed left neighbour and the
/// context row's samples at `x` and `x − 1`; `ctx` is the context row — the
/// reconstructed row above (intra) or the co-located row of the previous
/// reconstruction (inter).
#[inline(always)]
fn code_row(
    predict: impl Fn(i32, i32, i32) -> i32,
    ctx: &[u8],
    recon: &mut [u8],
    residuals: &mut impl Residuals,
) -> Result<(), CodecError> {
    let w = recon.len();
    let ctx = &ctx[..w];
    residuals.begin(w)?;
    // First column: no left neighbour, the context sample alone predicts.
    let pred = i32::from(ctx[0]);
    let mut last = pred.wrapping_add(residuals.delta(0, pred)).clamp(0, 255);
    recon[0] = last as u8;
    for x in 1..w {
        let pred = predict(last, i32::from(ctx[x]), i32::from(ctx[x - 1]));
        last = pred.wrapping_add(residuals.delta(x, pred)).clamp(0, 255);
        recon[x] = last as u8;
    }
    residuals.end(w);
    Ok(())
}

/// Codes one plane. Inter (`prev` is the plane of the previous
/// reconstruction): every row predicts from the co-located row of `prev`.
/// Intra: row `y` predicts from the reconstructed row `y − 1`, row 0 from
/// its left neighbour under a virtual row of 128s.
fn code_rows(
    predict: impl Fn(i32, i32, i32) -> i32,
    prev: Option<&[u8]>,
    recon: &mut [u8],
    w: usize,
    residuals: &mut impl Residuals,
) -> Result<(), CodecError> {
    let Some(prev) = prev else {
        code_row(|left, _, _| left, &vec![128; w], &mut recon[..w], residuals)?;
        for y in 1..recon.len() / w {
            let (above, row) = recon.split_at_mut(y * w);
            code_row(&predict, &above[(y - 1) * w..], &mut row[..w], residuals)?;
        }
        return Ok(());
    };
    for (ctx, row) in prev.chunks_exact(w).zip(recon.chunks_exact_mut(w)) {
        code_row(&predict, ctx, row, residuals)?;
    }
    Ok(())
}

/// Codes one plane with the monomorphised kernel of its predictor.
fn code_plane(
    advanced: bool,
    prev: Option<&[u8]>,
    recon: &mut [u8],
    w: usize,
    residuals: &mut impl Residuals,
) -> Result<(), CodecError> {
    match (prev.is_some(), advanced) {
        // Basic intra: the left neighbour.
        (false, false) => code_rows(|left, _, _| left, prev, recon, w, residuals),
        (false, true) => code_rows(med, prev, recon, w, residuals),
        // Basic inter: the co-located sample of the previous reconstruction.
        (true, false) => code_rows(|_, temporal, _| temporal, prev, recon, w, residuals),
        (true, true) => code_rows(spatio_temporal, prev, recon, w, residuals),
    }
}

// --- encoder --------------------------------------------------------------

/// The encoder's [`Residuals`]: quantises against the source plane, stages
/// one row of levels and entropy-codes it after the row, so the sample loop
/// carries no entropy-coder branch.
struct Quantize<'a> {
    /// What is left of the source plane; advances row by row.
    source: &'a [u8],
    table: &'a QuantTable,
    staged: &'a mut [i16],
    writer: ResidualWriter<'a>,
}

impl Residuals for Quantize<'_> {
    #[inline(always)]
    fn delta(&mut self, index: usize, pred: i32) -> i32 {
        let [level, delta] = self.table[(i32::from(self.source[index]) - pred) as usize % 2048];
        self.staged[index] = level;
        i32::from(delta)
    }

    fn end(&mut self, samples: usize) {
        self.staged[..samples].iter().for_each(|&level| self.writer.push(level.into()));
        self.source = &self.source[samples..];
    }
}

/// A frame's tasks as (advanced predictors, plane), claimed largest first. Of
/// the six units of an HEVC frame coded both ways at 480×272 (measured before
/// the select predictor), advanced Y is 2.8–3.0, basic Y 1.0–1.2, an advanced
/// chroma plane 0.7 and a basic one 0.3: two threads take about 0.53 of the
/// serial time. A one-family frame runs Y (4 of 6) beside U + V: 0.67.
const FRAME_TASKS: [(bool, usize); 6] =
    [(true, 0), (false, 0), (true, 1), (true, 2), (false, 1), (false, 2)];

/// The tasks of a frame coded with predictor `family` (advanced?), or both.
fn frame_tasks(family: Option<bool>) -> Vec<(bool, usize)> {
    FRAME_TASKS.into_iter().filter(|&(advanced, _)| family.is_none_or(|f| f == advanced)).collect()
}

/// Frames below this many samples are encoded on the caller alone. Measured
/// on the two-core benchmark host: sharing a frame costs about 35 µs of CPU
/// (a condvar wake and a park on each side) and 15 µs of wall however small
/// the frame is, and a second thread saves an H.264 frame — the cheaper
/// codec, and the worse split — about 0.7 ns of wall per sample (36 µs at
/// 240×136, 61 µs at 320×180, 138 µs at 480×272). Below about 50 000 samples
/// the CPU spent exceeds the wall saved; the floor keeps a margin above that.
const MIN_SHARED_FRAME_SAMPLES: usize = 64_000;

/// What one task owns for the GOP: buffers no other task touches.
#[derive(Default)]
struct TaskSlot {
    /// The plane's bitstream under this candidate.
    payload: Vec<u8>,
    /// The plane's reconstruction under this candidate.
    recon: Vec<u8>,
    /// [`Quantize::staged`]: one row of levels.
    staged: Vec<i16>,
}

/// What every task of a frame reads; the caller replaces it between frames.
struct FrameInputs<'a> {
    source: Cow<'a, Frame>,
    /// The previous frame's reconstruction, plane by plane (the GOP's first
    /// frame is intra and does not read it).
    prev: [Vec<u8>; 3],
    intra: bool,
    /// The frame's tasks: [`frame_tasks`] of its predictor family.
    tasks: Vec<(bool, usize)>,
}

fn encode_lossy(
    frames: &[Frame],
    frame_rate: f64,
    config: &EncoderConfig,
    codec: Codec,
    threads: usize,
) -> Result<EncodedGop, CodecError> {
    let first = uniform_shape(frames)?;
    let (width, height) = (first.width(), first.height());
    PixelFormat::Yuv420.validate_resolution(width, height)?;
    let threads = if PixelFormat::Yuv420.frame_bytes(width, height) < MIN_SHARED_FRAME_SAMPLES {
        1
    } else {
        vss_parallel::resolve_threads(threads)
    };
    encode_frames(frames, frame_rate, config, codec, threads)
}

/// Encodes one GOP of same-shaped, even-sized frames on `threads` (≥ 1)
/// threads. Each frame is a batch of independent tasks — its predictor
/// families × {Y, U, V} — drained by a crew that lives for the GOP. What
/// is sequential stays on the caller, between batches: colour conversion,
/// HEVC's mode decision, and concatenating the kept candidate's planes in
/// the order Y, U, V — so which thread ran which task never reaches the
/// bitstream.
fn encode_frames(
    frames: &[Frame],
    frame_rate: f64,
    config: &EncoderConfig,
    codec: Codec,
    threads: usize,
) -> Result<EncodedGop, CodecError> {
    let hevc = codec == Codec::Hevc;
    let (width, height) = (frames[0].width(), frames[0].height());
    let q = config.quantizer();
    let table = quant_table(q);
    let planes = yuv420_planes(width, height);
    let tasks = frame_tasks(if hevc { None } else { Some(false) });
    // Slots by [advanced][plane]. Reconstructions ping-pong plane by plane:
    // a task writes its slot's while every task reads `prev`; then the kept
    // candidate's are swapped into `prev` and the loser's are reused.
    let plane_buffer = |plane: usize| vec![0u8; planes[plane].0.len()];
    let slots: [[Mutex<TaskSlot>; 3]; 2] = Default::default();
    for &(advanced, plane) in &tasks {
        let (recon, staged) = (plane_buffer(plane), vec![0i16; planes[plane].1]);
        *lock(&slots[usize::from(advanced)][plane]) = TaskSlot { payload: Vec::new(), recon, staged };
    }
    let inputs = RwLock::new(FrameInputs {
        source: Cow::Borrowed(&frames[0]),
        prev: std::array::from_fn(plane_buffer),
        intra: true,
        tasks: Vec::new(),
    });
    let run_task = |index: usize| -> Result<(), CodecError> {
        let inputs = inputs.read().unwrap_or_else(|e| e.into_inner());
        let (advanced, plane) = inputs.tasks[index];
        let (range, w) = &planes[plane];
        let mut slot = lock(&slots[usize::from(advanced)][plane]);
        let TaskSlot { payload, recon, staged } = &mut *slot;
        payload.clear();
        let writer = ResidualWriter::new(payload, range.len());
        let source = &inputs.source.data()[range.clone()];
        // `staged` cut to the row width here, where the compiler can see it:
        // the kernel then indexes it by column without a bounds check
        // (left to the buffer's own length, H.264 encodes 8 % slower).
        let mut residuals = Quantize { source, table: &table, staged: &mut staged[..*w], writer };
        let prev = (!inputs.intra).then_some(&inputs.prev[plane][..]);
        code_plane(advanced, prev, recon, *w, &mut residuals)?;
        residuals.writer.finish();
        Ok(())
    };
    vss_parallel::with_crew(threads.min(tasks.len()), run_task, |crew| {
        let mut payload = Vec::new();
        let mut infos = Vec::with_capacity(frames.len());
        // HEVC-sim decides its family once per GOP: basic for the intra frame,
        // both (keeping the smaller) for frames 1 and 2, frame 2's winner after.
        // The family is stable in a GOP (at 480×272 advanced won 111 of 116
        // inter frames of an H.264-decoded ring, 0 of 116 of the raw one), and
        // frame 1, after the intra frame, is atypical. Byte counts decide, so
        // every thread budget decides alike.
        let mut decided = None;
        for (i, frame) in frames.iter().enumerate() {
            let source = match frame.format() {
                PixelFormat::Yuv420 => Cow::Borrowed(frame),
                _ => Cow::Owned(frame.convert(PixelFormat::Yuv420)?),
            };
            let family = if hevc && i > 0 { decided } else { Some(false) };
            let count = {
                let mut inputs = inputs.write().unwrap_or_else(|e| e.into_inner());
                (inputs.source, inputs.intra, inputs.tasks) = (source, i == 0, frame_tasks(family));
                inputs.tasks.len()
            };
            crew.run(count)?;
            // No task is running: every lock below is free, and is released
            // again before the next batch.
            let [mut basic, mut advanced] =
                slots.each_ref().map(|candidate| candidate.each_ref().map(lock));
            let bytes = |planes: &[MutexGuard<TaskSlot>]| planes.iter().map(|slot| slot.payload.len()).sum::<usize>();
            let start = payload.len();
            let keep_advanced = family.unwrap_or_else(|| bytes(&advanced) <= bytes(&basic));
            if hevc {
                payload.push(u8::from(keep_advanced));
                if i == 2 {
                    decided = Some(keep_advanced);
                }
            }
            let kept = if keep_advanced { &mut advanced } else { &mut basic };
            let mut inputs = inputs.write().unwrap_or_else(|e| e.into_inner());
            for (slot, prev) in kept.iter_mut().zip(&mut inputs.prev) {
                payload.extend_from_slice(&slot.payload);
                std::mem::swap(&mut slot.recon, prev);
            }
            infos.push(FrameInfo { is_intra: i == 0, offset: start, len: payload.len() - start });
        }
        Ok(EncodedGop::new(codec, width, height, frame_rate, q as u32, infos, payload))
    })
}

/// Locks a buffer only one thread at a time is ever handed; poisoning means
/// a task panicked, and that panic is already on its way to the caller.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// The first frame of a slice whose frames all have its width, height and
/// pixel format — what one GOP can hold.
fn uniform_shape(frames: &[Frame]) -> Result<&Frame, CodecError> {
    let first = frames.first().ok_or(CodecError::EmptyInput)?;
    let shape = |f: &Frame| (f.width(), f.height(), f.format());
    if frames.iter().any(|f| shape(f) != shape(first)) {
        return Err(FrameError::ShapeMismatch.into());
    }
    Ok(first)
}

// --- decoder --------------------------------------------------------------

/// The decoder's [`Residuals`]: one row of levels as the entropy coder
/// parsed them, dequantised on use. Decoding arithmetic wraps, which valid
/// levels never need, so that no level a corrupt stream carries can panic.
struct Dequantize<'a> {
    reader: ResidualReader<'a>,
    q: i32,
    levels: Vec<i32>,
}

impl Residuals for Dequantize<'_> {
    fn begin(&mut self, samples: usize) -> Result<(), CodecError> {
        self.reader.fill(&mut self.levels[..samples])
    }

    #[inline(always)]
    fn delta(&mut self, index: usize, _pred: i32) -> i32 {
        self.levels[index].wrapping_mul(self.q)
    }
}

/// Decodes one frame's payload into a reconstructed YUV 4:2:0 buffer.
fn decode_planes(
    payload: &[u8],
    prev: Option<&[u8]>,
    (width, height): (u32, u32),
    q: i32,
    advanced: bool,
) -> Result<Vec<u8>, CodecError> {
    PixelFormat::Yuv420.validate_resolution(width, height)?;
    // A basic inter frame is the previous reconstruction plus its non-zero
    // residuals: start from a copy and every zero run is already decoded.
    let mut recon = match prev {
        Some(prev) if !advanced => prev.to_vec(),
        _ => vec![0u8; PixelFormat::Yuv420.frame_bytes(width, height)],
    };
    let mut pos = 0usize;
    for (plane, w) in yuv420_planes(width, height) {
        let mut reader = ResidualReader::new(payload, pos)?;
        if reader.count != plane.len() {
            let (found, size) = (reader.count, plane.len());
            return Err(CodecError::Corrupt(format!("plane residual count {found} does not match plane size {size}")));
        }
        let prev = prev.map(|p| &p[plane.clone()]);
        let plane = &mut recon[plane];
        if prev.is_some() && !advanced {
            while let Some((at, level)) = reader.next()? {
                plane[at] = i32::from(plane[at]).wrapping_add(level.wrapping_mul(q)).clamp(0, 255) as u8;
            }
            pos = reader.pos;
        } else {
            // One row buffer per plane, like the row of 128s in `code_rows`,
            // on purpose. At these sizes decode time moves with where its
            // short-lived buffers fall in the heap; one buffer of each per
            // GOP measured 1.8 → 2.2 ns/px here and +5 % CPU on a cached read.
            let mut residuals = Dequantize { reader, q, levels: vec![0; w] };
            code_plane(advanced, prev, plane, w, &mut residuals)?;
            pos = residuals.reader.pos;
        }
    }
    match pos == payload.len() {
        true => Ok(recon),
        false => Err(CodecError::Corrupt(format!("{} bytes after the frame's V plane", payload.len() - pos))),
    }
}

fn decode_lossy(
    gop: &EncodedGop,
    count: usize,
    expected: Codec,
    hevc: bool,
) -> Result<FrameSequence, CodecError> {
    if gop.codec() != expected {
        return Err(CodecError::CodecMismatch {
            found: gop.codec().name(),
            expected: expected.name(),
        });
    }
    if count > gop.frame_count() {
        return Err(CodecError::FrameOutOfRange { index: count, len: gop.frame_count() });
    }
    let size = (gop.width(), gop.height());
    let mut out: Vec<Frame> = Vec::with_capacity(count);
    for i in 0..count {
        let mut payload = gop.frame_payload(i)?;
        let mut advanced = false;
        if hevc {
            // HEVC-sim frames carry a one-byte predictor-mode flag.
            let (&flag, rest) = payload
                .split_first()
                .ok_or_else(|| CodecError::Corrupt("missing mode flag".into()))?;
            advanced = match flag {
                0 | 1 => flag == 1,
                _ => return Err(CodecError::Corrupt(format!("frame {i} has mode flag {flag}, not 0 or 1"))),
            };
            payload = rest;
        }
        // The previous reconstruction is the previous output frame itself.
        let prev = if gop.frames()[i].is_intra { None } else { out.last().map(Frame::data) };
        let recon = decode_planes(payload, prev, size, gop.quantizer() as i32, advanced)?;
        out.push(Frame::from_data(size.0, size.1, PixelFormat::Yuv420, recon)?);
    }
    FrameSequence::new(out, gop.frame_rate()).map_err(CodecError::from)
}

impl VideoCodec for SimH264 {
    fn codec(&self) -> Codec {
        Codec::H264
    }

    fn encode_slice(
        &self,
        frames: &[Frame],
        frame_rate: f64,
        config: &EncoderConfig,
        threads: usize,
    ) -> Result<EncodedGop, CodecError> {
        encode_lossy(frames, frame_rate, config, Codec::H264, threads)
    }

    fn decode_prefix(&self, gop: &EncodedGop, count: usize) -> Result<FrameSequence, CodecError> {
        decode_lossy(gop, count, Codec::H264, false)
    }
}

impl VideoCodec for SimHevc {
    fn codec(&self) -> Codec {
        Codec::Hevc
    }

    fn encode_slice(
        &self,
        frames: &[Frame],
        frame_rate: f64,
        config: &EncoderConfig,
        threads: usize,
    ) -> Result<EncodedGop, CodecError> {
        encode_lossy(frames, frame_rate, config, Codec::Hevc, threads)
    }

    fn decode_prefix(&self, gop: &EncodedGop, count: usize) -> Result<FrameSequence, CodecError> {
        decode_lossy(gop, count, Codec::Hevc, true)
    }
}

/// Serializes a slice of frames into an uncompressed GOP.
fn encode_raw(
    format: PixelFormat,
    frames: &[Frame],
    frame_rate: f64,
) -> Result<EncodedGop, CodecError> {
    let first = uniform_shape(frames)?;
    let (width, height) = (first.width(), first.height());
    format.validate_resolution(width, height)?;
    let mut payload = Vec::with_capacity(frames.len() * format.frame_bytes(width, height));
    let mut infos = Vec::with_capacity(frames.len());
    for frame in frames {
        let start = payload.len();
        if frame.format() == format {
            // Zero-conversion fast path: append the borrowed pixel buffer.
            payload.extend_from_slice(frame.data());
        } else {
            payload.extend_from_slice(frame.convert(format)?.data());
        }
        infos.push(FrameInfo { is_intra: true, offset: start, len: payload.len() - start });
    }
    Ok(EncodedGop::new(Codec::Raw(format), width, height, frame_rate, 1, infos, payload))
}

impl VideoCodec for RawCodec {
    fn codec(&self) -> Codec {
        Codec::Raw(self.0)
    }

    fn encode_slice(
        &self,
        frames: &[Frame],
        frame_rate: f64,
        _config: &EncoderConfig,
        _threads: usize,
    ) -> Result<EncodedGop, CodecError> {
        encode_raw(self.0, frames, frame_rate)
    }

    fn decode_prefix(&self, gop: &EncodedGop, count: usize) -> Result<FrameSequence, CodecError> {
        if gop.codec() != Codec::Raw(self.0) {
            return Err(CodecError::CodecMismatch {
                found: gop.codec().name(),
                expected: Codec::Raw(self.0).name(),
            });
        }
        if count > gop.frame_count() {
            return Err(CodecError::FrameOutOfRange { index: count, len: gop.frame_count() });
        }
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let payload = gop.frame_payload(i)?.to_vec();
            out.push(Frame::from_data(gop.width(), gop.height(), self.0, payload)?);
        }
        FrameSequence::new(out, gop.frame_rate()).map_err(CodecError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::encode_residuals;
    use vss_frame::{pattern, quality};

    fn coherent_sequence(n: usize, width: u32, height: u32) -> FrameSequence {
        // Temporally coherent frames: a slowly shifting gradient.
        let frames: Vec<Frame> =
            (0..n).map(|i| pattern::gradient(width, height, PixelFormat::Yuv420, i as u64)).collect();
        FrameSequence::new(frames, 30.0).unwrap()
    }

    #[test]
    fn the_quantiser_table_equals_the_closed_form() {
        // The per-sample quantiser the table replaced, as the reference.
        fn closed_form(residual: i32, q: i32) -> i32 {
            if q <= 1 {
                return residual;
            }
            let half = q / 2;
            if residual >= 0 {
                (residual + half) / q
            } else {
                -((-residual + half) / q)
            }
        }
        for q in 1..=48 {
            let table = quant_table(q);
            for residual in -1024i32..1024 {
                let level = closed_form(residual, q);
                let expected = [level as i16, (level * q) as i16];
                assert_eq!(table[residual as usize % 2048], expected, "q {q} residual {residual}");
            }
        }
    }

    #[test]
    fn the_advanced_inter_predictor_equals_the_clamped_median() {
        // The formula the select replaced, as the reference.
        fn clamped_median(left: i32, temporal: i32, prev_left: i32) -> i32 {
            let gradient = (temporal + left - prev_left).clamp(0, 255);
            left.max(temporal).min(left.min(temporal).max(gradient))
        }
        for left in 0..=255 {
            for temporal in 0..=255 {
                for prev_left in 0..=255 {
                    assert_eq!(
                        spatio_temporal(left, temporal, prev_left),
                        clamped_median(left, temporal, prev_left),
                        "left {left} temporal {temporal} prev_left {prev_left}"
                    );
                }
            }
        }
    }

    #[test]
    fn corrupt_levels_and_runs_in_a_frame_are_errors_not_panics() {
        let frame = |is_intra, offset, len| FrameInfo { is_intra, offset, len };
        for codec in [Codec::H264, Codec::Hevc] {
            let flag: &[u8] = if codec == Codec::Hevc { &[0] } else { &[] };
            // An intra frame whose levels overflow `pred + level × q`, then a
            // P-frame whose second zero run would overflow the position.
            let mut payload = flag.to_vec();
            encode_residuals(&[i32::MAX / 48, i32::MIN + 1, 0, 7], &mut payload);
            encode_residuals(&[i32::MIN + 1], &mut payload);
            encode_residuals(&[i32::MAX], &mut payload);
            let intra_len = payload.len();
            payload.extend_from_slice(flag);
            for value in [4, 1, crate::bitstream::zigzag(1), u64::MAX, crate::bitstream::zigzag(1)] {
                crate::bitstream::write_varint(&mut payload, value);
            }
            let infos = vec![frame(true, 0, intra_len), frame(false, intra_len, payload.len() - intra_len)];
            let gop = EncodedGop::new(codec, 2, 2, 30.0, 48, infos, payload);
            let implementation = codec_instance(codec);
            assert_eq!(implementation.decode_prefix(&gop, 1).unwrap().len(), 1);
            assert!(matches!(implementation.decode(&gop), Err(CodecError::Corrupt(_))), "{codec}");
        }
    }

    #[test]
    fn a_mode_flag_other_than_0_or_1_is_corrupt() {
        let gop = SimHevc.encode(&coherent_sequence(3, 32, 32), &EncoderConfig::default()).unwrap();
        for frame in 0..gop.frame_count() {
            for bad in [2, 0x80, 0xff] {
                let mut payload = Vec::new();
                for i in 0..gop.frame_count() {
                    let start = payload.len();
                    payload.extend_from_slice(gop.frame_payload(i).unwrap());
                    if i == frame {
                        payload[start] = bad;
                    }
                }
                let (width, height, q) = (gop.width(), gop.height(), gop.quantizer());
                let bad_gop = EncodedGop::new(Codec::Hevc, width, height, 30.0, q, gop.frames().to_vec(), payload);
                assert!(matches!(SimHevc.decode(&bad_gop), Err(CodecError::Corrupt(_))), "flag {bad} on frame {frame}");
                assert_eq!(SimHevc.decode_prefix(&bad_gop, frame).unwrap().len(), frame);
            }
        }
    }

    #[test]
    fn h264_round_trip_is_near_lossless_at_high_quality() {
        let seq = coherent_sequence(6, 64, 48);
        let gop = SimH264.encode(&seq, &EncoderConfig::with_quality(95)).unwrap();
        let decoded = SimH264.decode(&gop).unwrap();
        assert_eq!(decoded.len(), 6);
        let p = quality::sequence_psnr(seq.frames(), decoded.frames()).unwrap();
        assert!(p.db() > 38.0, "high quality round trip should be near-lossless, got {p}");
    }

    #[test]
    fn quality_setting_trades_size_for_psnr() {
        let seq = coherent_sequence(4, 64, 48);
        let hi = SimH264.encode(&seq, &EncoderConfig::with_quality(95)).unwrap();
        let lo = SimH264.encode(&seq, &EncoderConfig::with_quality(30)).unwrap();
        assert!(lo.byte_len() < hi.byte_len());
        let hi_psnr = quality::sequence_psnr(seq.frames(), SimH264.decode(&hi).unwrap().frames()).unwrap();
        let lo_psnr = quality::sequence_psnr(seq.frames(), SimH264.decode(&lo).unwrap().frames()).unwrap();
        assert!(hi_psnr.db() > lo_psnr.db());
    }

    #[test]
    fn hevc_is_smaller_than_h264_at_same_quality() {
        let seq = coherent_sequence(8, 96, 64);
        let cfg = EncoderConfig::with_quality(85);
        let h264 = SimH264.encode(&seq, &cfg).unwrap();
        let hevc = SimHevc.encode(&seq, &cfg).unwrap();
        assert!(
            hevc.byte_len() < h264.byte_len(),
            "hevc-sim ({}) should beat h264-sim ({})",
            hevc.byte_len(),
            h264.byte_len()
        );
        // And both should still decode to similar quality.
        let ph = quality::sequence_psnr(seq.frames(), SimHevc.decode(&hevc).unwrap().frames()).unwrap();
        assert!(ph.db() > 35.0);
    }

    #[test]
    fn compression_beats_raw_on_coherent_content() {
        let seq = coherent_sequence(8, 96, 64);
        let raw = RawCodec(PixelFormat::Yuv420).encode(&seq, &EncoderConfig::default()).unwrap();
        let h264 = SimH264.encode(&seq, &EncoderConfig::default()).unwrap();
        assert!(
            h264.byte_len() * 3 < raw.byte_len(),
            "compressed ({}) should be well under a third of raw ({})",
            h264.byte_len(),
            raw.byte_len()
        );
    }

    #[test]
    fn p_frames_are_smaller_than_i_frames_for_coherent_video() {
        let seq = coherent_sequence(5, 96, 64);
        let gop = SimH264.encode(&seq, &EncoderConfig::default()).unwrap();
        let i_size = gop.frames()[0].len;
        let p_avg: usize =
            gop.frames()[1..].iter().map(|f| f.len).sum::<usize>() / (gop.frame_count() - 1);
        assert!(p_avg < i_size, "P frames ({p_avg}) should be smaller than the I frame ({i_size})");
        let intra: Vec<bool> = gop.frames().iter().map(|f| f.is_intra).collect();
        assert_eq!(intra, [true, false, false, false, false]);
    }

    #[test]
    fn decode_prefix_matches_full_decode() {
        let seq = coherent_sequence(6, 64, 48);
        let gop = SimHevc.encode(&seq, &EncoderConfig::default()).unwrap();
        let full = SimHevc.decode(&gop).unwrap();
        let prefix = SimHevc.decode_prefix(&gop, 3).unwrap();
        assert_eq!(prefix.len(), 3);
        for i in 0..3 {
            assert_eq!(prefix.frames()[i], full.frames()[i]);
        }
        assert!(SimHevc.decode_prefix(&gop, 7).is_err());
    }

    #[test]
    fn raw_codec_round_trips_exactly() {
        for fmt in PixelFormat::ALL {
            let frames: Vec<Frame> =
                (0..3).map(|i| pattern::gradient(32, 32, fmt, i as u64)).collect();
            let seq = FrameSequence::new(frames, 24.0).unwrap();
            let raw = RawCodec(fmt);
            let gop = raw.encode(&seq, &EncoderConfig::default()).unwrap();
            let decoded = raw.decode(&gop).unwrap();
            assert_eq!(decoded, seq);
        }
    }

    #[test]
    fn codec_mismatch_is_detected() {
        let seq = coherent_sequence(2, 32, 32);
        let gop = SimH264.encode(&seq, &EncoderConfig::default()).unwrap();
        assert!(matches!(SimHevc.decode(&gop), Err(CodecError::CodecMismatch { .. })));
        assert!(RawCodec(PixelFormat::Rgb8).decode(&gop).is_err());
    }

    #[test]
    fn gop_serialization_survives_decode() {
        let seq = coherent_sequence(4, 64, 48);
        let gop = SimH264.encode(&seq, &EncoderConfig::default()).unwrap();
        let restored = EncodedGop::from_bytes(gop.to_bytes()).unwrap();
        let a = SimH264.decode(&gop).unwrap();
        let b = SimH264.decode(&restored).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn encode_to_gops_splits_by_gop_size() {
        let seq = coherent_sequence(10, 32, 32);
        let cfg = EncoderConfig { quality: 85, gop_size: 4 };
        let gops = encode_to_gops(&seq, Codec::H264, &cfg).unwrap();
        assert_eq!(gops.len(), 3);
        assert_eq!(gops[0].frame_count(), 4);
        assert_eq!(gops[2].frame_count(), 2);
        // Every GOP decodes independently.
        let mut all = Vec::new();
        for g in &gops {
            all.extend(SimH264.decode(g).unwrap().into_frames());
        }
        assert_eq!(all.len(), 10);
        let p = quality::sequence_psnr(seq.frames(), &all).unwrap();
        assert!(p.db() > 35.0);
    }

    #[test]
    fn parallel_encode_is_bit_identical_to_sequential() {
        // The determinism contract of the parallel GOP pipeline: for every
        // codec and any thread count, the encoded bytes match the
        // single-threaded encode exactly, GOP for GOP.
        let seq = coherent_sequence(23, 64, 48);
        let cfg = EncoderConfig { quality: 80, gop_size: 5 };
        for codec in [Codec::H264, Codec::Hevc, Codec::Raw(PixelFormat::Yuv420)] {
            let sequential = encode_to_gops(&seq, codec, &cfg).unwrap();
            for threads in [0usize, 2, 4] {
                let parallel = encode_to_gops_parallel(&seq, codec, &cfg, threads).unwrap();
                assert_eq!(parallel.len(), sequential.len());
                for (a, b) in parallel.iter().zip(&sequential) {
                    assert_eq!(
                        a.to_bytes(),
                        b.to_bytes(),
                        "{codec} with {threads} threads diverged from sequential encode"
                    );
                }
            }
        }
    }

    #[test]
    fn any_thread_budget_encodes_the_same_bytes() {
        // Sizes down to one chroma sample per row and an odd chroma width;
        // `encode_frames` is called directly because `encode_slice` keeps
        // frames this small on the caller whatever the budget.
        for (width, height) in [(2, 2), (6, 4), (64, 48), (480, 272)] {
            for make in [pattern::gradient, pattern::noise] {
                // Five frames, so HEVC codes frames after frame 2's choice.
                let frames: Vec<Frame> =
                    (0..5).map(|seed| make(width, height, PixelFormat::Yuv420, seed)).collect();
                for codec in [Codec::H264, Codec::Hevc] {
                    let config = EncoderConfig::default();
                    let implementation = codec_instance(codec);
                    let reference = implementation.encode_slice(&frames, 30.0, &config, 1).unwrap().to_bytes();
                    for budget in [1, 2, 3, 4, 8] {
                        let crewed = encode_frames(&frames, 30.0, &config, codec, budget).unwrap();
                        assert_eq!(crewed.to_bytes(), reference, "{codec} {width}x{height}, crew of {budget}");
                        let public = implementation.encode_slice(&frames, 30.0, &config, budget).unwrap();
                        assert_eq!(public.to_bytes(), reference, "{codec} {width}x{height}, budget {budget}");
                    }
                }
            }
        }
    }

    #[test]
    fn gop_and_frame_level_threads_compose_to_the_same_bytes() {
        // Five frames large enough to be shared, as 1, 2 and 5 GOPs: the
        // budget goes to whole GOPs first and the rest inside each GOP.
        let seq = coherent_sequence(5, 320, 200);
        for codec in [Codec::H264, Codec::Hevc] {
            for gop_size in [5, 3, 1] {
                let cfg = EncoderConfig { quality: 85, gop_size };
                let sequential = encode_to_gops(&seq, codec, &cfg).unwrap();
                assert_eq!(sequential.len(), 5usize.div_ceil(gop_size));
                for threads in [1, 2, 4] {
                    let parallel = encode_to_gops_parallel(&seq, codec, &cfg, threads).unwrap();
                    let bytes = |gops: &[EncodedGop]| gops.iter().map(EncodedGop::to_bytes).collect::<Vec<_>>();
                    assert_eq!(bytes(&parallel), bytes(&sequential), "{codec}, {threads} threads, GOPs of {gop_size}");
                }
            }
        }
    }

    #[test]
    fn a_slice_of_differently_shaped_frames_is_a_typed_error() {
        let frame = |width, height, format| pattern::gradient(width, height, format, 0);
        let first = frame(64, 48, PixelFormat::Yuv420);
        let odd_ones = [
            frame(32, 24, PixelFormat::Yuv420), // a plane index would run past its end
            frame(96, 64, PixelFormat::Yuv420), // only its prefix would be encoded
            frame(64, 48, PixelFormat::Rgb8),
        ];
        for codec in [Codec::H264, Codec::Hevc, Codec::Raw(PixelFormat::Yuv420)] {
            for odd in &odd_ones {
                for budget in [1, 2] {
                    let frames = [first.clone(), odd.clone()];
                    let result = codec_instance(codec).encode_slice(&frames, 30.0, &EncoderConfig::default(), budget);
                    assert_eq!(result.unwrap_err(), CodecError::Frame(FrameError::ShapeMismatch), "{codec}");
                }
            }
        }
    }

    #[test]
    fn parallel_decode_matches_sequential_decode() {
        let seq = coherent_sequence(16, 64, 48);
        let cfg = EncoderConfig { quality: 85, gop_size: 4 };
        for codec in [Codec::H264, Codec::Hevc] {
            let gops = encode_to_gops(&seq, codec, &cfg).unwrap();
            let sequential = decode_gops_parallel(&gops, codec, 1).unwrap();
            let parallel = decode_gops_parallel(&gops, codec, 4).unwrap();
            assert_eq!(sequential, parallel, "{codec} parallel decode diverged");
            let total: usize = parallel.iter().map(FrameSequence::len).sum();
            assert_eq!(total, seq.len());
        }
    }

    #[test]
    fn encode_slice_matches_sequence_encode() {
        let seq = coherent_sequence(5, 32, 32);
        for codec in [Codec::H264, Codec::Hevc, Codec::Raw(PixelFormat::Rgb8)] {
            let implementation = codec_instance(codec);
            let from_sequence =
                implementation.encode(&seq, &EncoderConfig::default()).unwrap();
            let from_slice = implementation
                .encode_slice(seq.frames(), seq.frame_rate(), &EncoderConfig::default(), 1)
                .unwrap();
            assert_eq!(from_slice.as_bytes(), from_sequence.as_bytes(), "{codec}");
        }
    }

    #[test]
    fn encode_rejects_empty_and_odd_resolutions() {
        let empty = FrameSequence::empty(30.0).unwrap();
        assert!(matches!(SimH264.encode(&empty, &EncoderConfig::default()), Err(CodecError::EmptyInput)));
        assert!(encode_to_gops(&empty, Codec::H264, &EncoderConfig::default()).is_err());
        let odd = FrameSequence::new(vec![pattern::gradient(33, 32, PixelFormat::Rgb8, 0)], 30.0).unwrap();
        assert!(SimH264.encode(&odd, &EncoderConfig::default()).is_err());
    }
}
