//! `transcode_scan`: the cache-miss read path. One client, closed loop,
//! uncacheable clip reads that must be decoded, resampled and re-encoded, so
//! codec, frame and the parallel GOP pipeline do nearly all the work while
//! cache, journal and network do none.

use super::{
    cutoff, open_and_ingest, read_children, result_digest, timed_setup, Ctx, Mode, Pass, ReadAgg,
    TelemetryDelta,
};
use crate::gen::{render_ring, Deck, Digest, Rng};
use crate::stats::ratio;
use crate::sys::dir_bytes;
use std::time::{Duration, Instant};
use vss_codec::Codec;
use vss_core::{ReadChunk, ReadRequest, VssConfig};
use vss_frame::{Frame, PixelFormat, Resolution};

/// Frozen on the seed commit (2 cores): ops that fill one second of budget.
const OPS_PER_SECOND: f64 = 15.0;
const CLIP_SECONDS: f64 = 1.0;

struct Shape {
    resolution: Resolution,
    videos: usize,
    video_frames: usize,
}

fn shape(ctx: &Ctx) -> Shape {
    if ctx.smoke {
        Shape {
            resolution: Resolution::new(64, 36),
            videos: 2,
            video_frames: 90,
        }
    } else {
        Shape {
            resolution: Resolution::new(480, 272),
            videos: 2,
            video_frames: 300,
        }
    }
}

#[derive(Debug, Clone)]
struct Op {
    video: usize,
    start: f64,
    /// 0: H264→HEVC same resolution, 1: H264→raw YUV half resolution,
    /// 2: H264→H264 half resolution.
    target: usize,
    /// Odd ops drain `read_stream`, even ops call `read`.
    stream: bool,
}

fn request(op: &Op, full: Resolution) -> ReadRequest {
    let half = Resolution::new(full.width / 2, full.height / 2);
    let base = |codec| {
        ReadRequest::new(
            video_name(op.video),
            op.start,
            op.start + CLIP_SECONDS,
            codec,
        )
        .uncacheable()
    };
    match op.target {
        0 => base(Codec::Hevc),
        1 => base(Codec::Raw(PixelFormat::Yuv420)).resolution(half),
        _ => base(Codec::H264).resolution(half),
    }
}

fn video_name(index: usize) -> String {
    format!("scan{index}")
}

fn chunks_digest(chunks: &[ReadChunk]) -> u64 {
    let mut digest = Digest::new();
    for chunk in chunks {
        digest.frames(chunk.frames.frames());
    }
    for gop in chunks.iter().filter_map(|c| c.encoded_gop.as_ref()) {
        digest.bytes(&gop.to_bytes());
    }
    digest.value()
}

pub fn run(ctx: &Ctx, mode: Mode) -> Result<Pass, String> {
    let shape = shape(ctx);
    let mut pass = Pass::default();
    let mut inputs = Digest::new();

    // --- inputs -------------------------------------------------------------
    let rings: Vec<Vec<Frame>> = (0..shape.videos)
        .map(|v| render_ring(v as u64, 0, shape.resolution, PixelFormat::Yuv420, 0.3, 60))
        .collect();
    rings.iter().for_each(|ring| inputs.frames(ring));
    let duration = shape.video_frames as f64 / 30.0;
    let mut op_rng = Rng::fork(ctx.seed, "transcode_scan.ops");
    // Tenth-of-a-second starts: most reads enter mid-GOP and pay look-back.
    // Videos and tenths are dealt from a deck, so every seed pays the same
    // look-back in another order.
    let mut deck = Deck::new(
        (0..shape.videos)
            .flat_map(|v| (0..10).map(move |tenth| (v, tenth)))
            .collect(),
    );
    let ops: Vec<Op> = (0..mode.count(ctx, OPS_PER_SECOND, 120))
        .map(|i| {
            let (video, tenth) = deck.deal(&mut op_rng);
            let second = op_rng.below((duration - CLIP_SECONDS) as u64);
            Op {
                video,
                start: second as f64 + tenth as f64 / 10.0,
                target: i % 3,
                stream: i % 2 == 1,
            }
        })
        .collect();
    for op in &ops {
        inputs.word(op.video as u64);
        inputs.word(op.start.to_bits());
        inputs.word(op.target as u64 * 2 + u64::from(op.stream));
    }
    pass.inputs_digest = inputs.value();

    // --- set-up: open a store and ingest ---------------------------------------
    let ((vss, raw_bytes), root) = timed_setup(ctx, mode, &mut pass, |root| {
        open_and_ingest(VssConfig::new(root), video_name, &rings, shape.video_frames)
    })?;
    // The sequential reference the sampled reads are compared with.
    let (reference, _) = open_and_ingest(
        VssConfig::new(ctx.fresh_dir("reference")).with_parallelism(1),
        video_name,
        &rings,
        shape.video_frames,
    )?;
    pass.raw_bytes = raw_bytes;
    let stored_before = dir_bytes(&root);
    pass.note(format!(
        "{} videos x {} frames @ {}x{}: {} raw bytes, {} stored bytes",
        shape.videos,
        shape.video_frames,
        shape.resolution.width,
        shape.resolution.height,
        raw_bytes,
        stored_before
    ));

    // --- timed part ---------------------------------------------------------
    let mut tracer = mode.tracer(Instant::now(), 0);
    let mut agg = ReadAgg::default();
    let mut sampled: Vec<(usize, u64, Duration)> = Vec::new();
    let telemetry = TelemetryDelta::start();
    let stop_at = cutoff(ctx);
    let cpu_before = crate::sys::cpu_seconds()?;
    let loop_started = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        pass.attempted += 1;
        if Instant::now() > stop_at {
            pass.failed += 1;
            continue;
        }
        let req = request(op, shape.resolution);
        let check = i % 10 == 0;
        let started = Instant::now();
        let root_span = tracer.begin(
            i as u64,
            None,
            if op.stream {
                "op.read_stream"
            } else {
                "op.read"
            },
        );
        let outcome = if op.stream {
            let open = tracer.begin(i as u64, Some(root_span), "core.read_stream.open");
            let opened = vss.read_stream(&req);
            tracer.end(open);
            opened.and_then(|mut stream| {
                let drain = tracer.begin(i as u64, Some(root_span), "core.read_stream.drain");
                let mut frames = 0;
                let mut kept = Vec::new();
                for chunk in stream.by_ref() {
                    let chunk = chunk?;
                    frames += chunk.frames.len();
                    if check {
                        kept.push(chunk);
                    }
                }
                tracer.end(drain);
                let wall = started.elapsed();
                let stats = stream.stats();
                agg.peak_stream_bytes = agg.peak_stream_bytes.max(stats.peak_buffered_bytes);
                tracer.children(open, &[("solver.plan_read", stats.planning)]);
                tracer.children(
                    drain,
                    &[
                        ("codec.decode", stats.decoding),
                        ("codec.encode", stats.encoding),
                    ],
                );
                Ok((wall, frames, stats, check.then(|| chunks_digest(&kept))))
            })
        } else {
            let call = tracer.begin(i as u64, Some(root_span), "core.read");
            let result = vss.read(&req);
            tracer.end(call);
            let wall = started.elapsed();
            result.map(|result| {
                tracer.children(call, &read_children(&result.stats));
                (
                    wall,
                    result.frames.len(),
                    result.stats.clone(),
                    check.then(|| result_digest(&result)),
                )
            })
        };
        tracer.end(root_span);
        match outcome {
            Ok((wall, frames, stats, digest)) => {
                agg.record(wall, frames, &stats);
                pass.latencies_ms.push(wall.as_secs_f64() * 1e3);
                if let Some(digest) = digest {
                    sampled.push((i, digest, wall));
                }
            }
            Err(e) => pass.fail(format!("op {i} {req:?}: {e:?}")),
        }
    }
    pass.wall_s = loop_started.elapsed().as_secs_f64();
    pass.cpu_s = crate::sys::cpu_seconds()? - cpu_before;
    let telemetry = telemetry.finish();
    pass.ops = agg.reads;
    pass.frames = agg.frames_out;
    pass.cpu_frames = agg.frames_out;
    pass.spans = tracer.into_spans();

    // --- gates --------------------------------------------------------------
    pass.stored_bytes = dir_bytes(&root);
    if pass.stored_bytes != stored_before {
        pass.fail(format!(
            "store grew during uncacheable reads: {stored_before} -> {} bytes",
            pass.stored_bytes
        ));
    }
    let (mut main_time, mut reference_time) = (Duration::ZERO, Duration::ZERO);
    for &(i, digest, wall) in &sampled {
        pass.attempted += 1;
        let started = Instant::now();
        match reference.read(&request(&ops[i], shape.resolution)) {
            Ok(result) if result_digest(&result) == digest => {
                main_time += wall;
                reference_time += started.elapsed();
            }
            Ok(_) => pass.fail(format!("op {i} differs from the parallelism(1) reference")),
            Err(e) => pass.fail(format!("reference read of op {i}: {e:?}")),
        }
    }
    pass.note(format!(
        "{} reads compared byte-for-byte with the parallelism(1) reference",
        sampled.len()
    ));

    // --- per-layer ----------------------------------------------------------
    if mode.traced {
        agg.publish(&mut pass);
        super::publish_read_self_share(
            &mut pass,
            &[
                "core.read",
                "core.read_stream.open",
                "core.read_stream.drain",
            ],
            &["op.read", "op.read_stream"],
        );
        telemetry.publish_wal(&mut pass, 0);
        let wall_s = pass.wall_s;
        telemetry.publish_pipelines(&mut pass, wall_s);
        // The same sampled reads at defaults and on one thread: the scaling
        // the parallel GOP pipeline buys on this box's cores.
        pass.set(
            "parallel.pipeline.speedup",
            ratio(reference_time.as_secs_f64(), main_time.as_secs_f64()),
        );
    }
    Ok(pass)
}
