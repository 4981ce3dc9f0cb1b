//! `cached_clips`: the data-larger-than-cache case. One client, closed loop,
//! cacheable one-second clips drawn Zipf(1.0) over (video, second) in three
//! target formats, under a storage budget that holds the hot views but not
//! all of them. The planner over many fragments, cache admission and
//! eviction, deferred compression, compaction and the catalog journal do the
//! work; frames are small so the codecs' share stays low.

use super::{
    cutoff, err, open_and_ingest, read_children, result_digest, timed_setup, Ctx, Mode, Pass,
    ReadAgg, TelemetryDelta,
};
use crate::gen::{render_ring, zipf_counts, Digest, Rng};
use crate::sys::dir_bytes;
use std::path::Path;
use std::time::{Duration, Instant};
use vss_codec::Codec;
use vss_core::{ReadRequest, StorageBudget, Vss, VssConfig};
use vss_frame::{Frame, PixelFormat, PsnrDb, Resolution};

/// Frozen on the seed commit (2 cores): ops that fill one second of budget.
const OPS_PER_SECOND: f64 = 96.0;
/// `run_maintenance()` runs on the client thread every this many ops; there
/// are no timers, so every count repeats exactly.
const MAINTENANCE_EVERY: usize = 25;
/// Per-video budget as a multiple of the original's bytes: the hot views
/// fit, the full view set does not (sizes are printed).
const BUDGET_MULTIPLE: f64 = 1.75;
/// The reference engine replays this share of the op sequence (it must
/// replay a prefix: a cached read's bytes depend on every earlier op).
const REFERENCE_SHARE: usize = 5;

/// Reads accept this quality, as a consumer of half-resolution clips does:
/// the engine's (pessimistic) bound puts a half-resolution view between 20
/// and 25 dB, so at the default 40 dB a cached view could never serve a later
/// read and nothing would ever hit. Because the views stay below the
/// engine's default threshold they never count as a second baseline copy, so
/// eviction leaves the originals alone and no read goes out of range.
const VIEW_QUALITY: PsnrDb = PsnrDb(20.0);

struct Shape {
    resolution: Resolution,
    videos: usize,
    video_frames: usize,
}

fn shape(ctx: &Ctx) -> Shape {
    if ctx.smoke {
        Shape {
            resolution: Resolution::new(64, 36),
            videos: 4,
            video_frames: 90,
        }
    } else {
        Shape {
            resolution: Resolution::new(240, 136),
            videos: 8,
            video_frames: 150,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Op {
    video: usize,
    second: usize,
    /// 0: HEVC, 1: raw YUV, 2: H264 — all at half resolution.
    target: usize,
}

fn video_name(index: usize) -> String {
    format!("clip{index}")
}

fn request(op: &Op, full: Resolution) -> ReadRequest {
    let half = Resolution::new(full.width / 2, full.height / 2);
    let (start, end) = (op.second as f64, op.second as f64 + 1.0);
    let base = |codec| {
        ReadRequest::new(video_name(op.video), start, end, codec).quality_threshold(VIEW_QUALITY)
    };
    match op.target {
        0 => base(Codec::Hevc).resolution(half),
        1 => base(Codec::Raw(PixelFormat::Yuv420)).resolution(half),
        _ => base(Codec::H264).resolution(half),
    }
}

/// Defaults, except the per-video budget.
fn config(root: &Path) -> VssConfig {
    VssConfig::new(root).with_default_budget(StorageBudget::MultipleOfOriginal(BUDGET_MULTIPLE))
}

fn cached_gops(vss: &Vss, videos: usize) -> Result<usize, String> {
    (0..videos)
        .map(|v| {
            vss.with_engine(|engine| engine.materialized_fragment_count(&video_name(v)))
                .map_err(err)
        })
        .sum()
}

fn bytes_used(vss: &Vss, videos: usize) -> Result<u64, String> {
    (0..videos)
        .map(|v| vss.bytes_used(&video_name(v)).map_err(err))
        .sum()
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
    let seconds = shape.video_frames / 30;
    // The seed relabels the videos: rank k is always the same second of the
    // (k % videos)-th video, and the seed decides which video that is. How
    // often each rank and target format occurs is exactly Zipf(1.0), and the
    // order of ranks and formats and the seconds they fall on are one fixed
    // shuffle, for every seed. Budgets are per video, eviction prefers the
    // ends of a view and compaction merges adjacent seconds, so what is
    // admitted and evicted depends heavily on how ranks fall on videos,
    // seconds and time: between random draws `ops_s` differed by 30 %, and a
    // metric may not spread across seeds by more than its bound.
    let mut video_labels: Vec<usize> = (0..shape.videos).collect();
    Rng::fork(ctx.seed, "cached_clips.videos").shuffle(&mut video_labels);
    let mut fixed = Rng::fork(0, "cached_clips.order");
    let second_labels: Vec<Vec<usize>> = (0..shape.videos)
        .map(|_| {
            let mut labels: Vec<usize> = (0..seconds).collect();
            fixed.shuffle(&mut labels);
            labels
        })
        .collect();
    let keys: Vec<(usize, usize)> = (0..shape.videos * seconds)
        .map(|rank| {
            (
                video_labels[rank % shape.videos],
                second_labels[rank % shape.videos][rank / shape.videos],
            )
        })
        .collect();
    let counts = zipf_counts(keys.len(), 1.0, mode.count(ctx, OPS_PER_SECOND, 200));
    let mut ops: Vec<Op> = counts
        .iter()
        .enumerate()
        .flat_map(|(rank, &count)| {
            let (video, second) = keys[rank];
            (0..count).map(move |n| Op {
                video,
                second,
                target: (rank + n) % 3,
            })
        })
        .collect();
    fixed.shuffle(&mut ops);
    for op in &ops {
        inputs.word((op.video * 1000 + op.second * 3 + op.target) as u64);
    }
    pass.inputs_digest = inputs.value();

    // --- set-up ---------------------------------------------------------------
    let ((vss, raw_bytes), root) = timed_setup(ctx, mode, &mut pass, |root| {
        open_and_ingest(config(root), video_name, &rings, shape.video_frames)
    })?;
    pass.raw_bytes = raw_bytes;
    let original_bytes = bytes_used(&vss, shape.videos)?;
    let budget: u64 = (0..shape.videos)
        .map(|v| vss.budget_bytes(&video_name(v)).map(|b| b.unwrap_or(0)))
        .sum::<Result<u64, _>>()
        .map_err(err)?;

    // --- timed part -------------------------------------------------------------
    let mut tracer = mode.tracer(Instant::now(), 0);
    let mut agg = ReadAgg::default();
    let mut sampled: Vec<(usize, u64)> = Vec::new();
    let mut after_tick: Vec<f64> = Vec::new();
    let (mut admitted_gops, mut ticks, mut maintenance, mut reclaimed) =
        (0usize, 0u64, Duration::ZERO, 0u64);
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
        if i > 0 && i % MAINTENANCE_EVERY == 0 {
            let used_before = if mode.traced {
                bytes_used(&vss, shape.videos)?
            } else {
                0
            };
            let tick = tracer.begin(i as u64, None, "op.maintenance");
            let started = Instant::now();
            vss.run_maintenance().map_err(err)?;
            maintenance += started.elapsed();
            tracer.end(tick);
            ticks += 1;
            if mode.traced {
                reclaimed += used_before.saturating_sub(bytes_used(&vss, shape.videos)?);
            }
        }
        let req = request(op, shape.resolution);
        let root_span = tracer.begin(i as u64, None, "op.read");
        let call = tracer.begin(i as u64, Some(root_span), "core.read");
        let started = Instant::now();
        let result = vss.read(&req);
        let wall = started.elapsed();
        tracer.end(call);
        tracer.end(root_span);
        match result {
            Ok(result) => {
                tracer.children(call, &read_children(&result.stats));
                agg.record(wall, result.frames.len(), &result.stats);
                if result.stats.cache_admitted {
                    admitted_gops += match &result.encoded {
                        Some(gops) => gops.len(),
                        None => result.frames.len().div_ceil(3),
                    };
                }
                let ms = wall.as_secs_f64() * 1e3;
                pass.latencies_ms.push(ms);
                if i > 0 && i % MAINTENANCE_EVERY == 0 {
                    after_tick.push(ms);
                }
                if i % 10 == 0 && i < ops.len() / REFERENCE_SHARE {
                    sampled.push((i, result_digest(&result)));
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
    pass.stored_bytes = dir_bytes(&root);
    let cached_now = cached_gops(&vss, shape.videos)?;
    pass.note(format!(
        "{} videos x {} s @ {}x{}: originals {} bytes, budget {} bytes, used {} bytes at the end; \
         {} of {} reads hit the cache, {} were admitted; {} GOPs admitted, {} cached at the end; \
         {} maintenance ticks taking {:.2} s",
        shape.videos,
        seconds,
        shape.resolution.width,
        shape.resolution.height,
        original_bytes,
        budget,
        bytes_used(&vss, shape.videos)?,
        agg.hits,
        agg.reads,
        agg.admitted,
        admitted_gops,
        cached_now,
        ticks,
        maintenance.as_secs_f64()
    ));

    // --- gate: replay the prefix on a sequential engine ---------------------------
    let (reference, _) = open_and_ingest(
        config(&ctx.fresh_dir("reference")).with_parallelism(1),
        video_name,
        &rings,
        shape.video_frames,
    )?;
    let mut expected = sampled.iter().peekable();
    for (i, op) in ops.iter().enumerate().take(ops.len() / REFERENCE_SHARE) {
        if i > 0 && i % MAINTENANCE_EVERY == 0 {
            reference.run_maintenance().map_err(err)?;
        }
        let result = reference.read(&request(op, shape.resolution));
        if let Some(&&(index, digest)) = expected.peek() {
            if index == i {
                expected.next();
                pass.attempted += 1;
                match result {
                    Ok(result) if result_digest(&result) == digest => {}
                    Ok(_) => pass.fail(format!("op {i} differs from the parallelism(1) replay")),
                    Err(e) => pass.fail(format!("reference read of op {i}: {e:?}")),
                }
            }
        }
    }
    pass.note(format!(
        "{} reads compared byte-for-byte with a parallelism(1) replay of the prefix",
        sampled.len()
    ));

    // --- per-layer ----------------------------------------------------------------
    if mode.traced {
        agg.publish(&mut pass);
        super::publish_read_self_share(&mut pass, &["core.read"], &["op.read"]);
        telemetry.publish_wal(&mut pass, admitted_gops as u64);
        let wall_s = pass.wall_s;
        telemetry.publish_pipelines(&mut pass, wall_s);
        pass.set(
            "core.cache.evictions",
            admitted_gops.saturating_sub(cached_now) as f64,
        );
        pass.set("core.maintenance.busy_s", maintenance.as_secs_f64());
        pass.set("core.maintenance.bytes_reclaimed", reclaimed as f64);
        let stall = after_tick.iter().sum::<f64>() / after_tick.len().max(1) as f64;
        pass.set("core.maintenance.stall_mean_ms", stall);
    }
    Ok(pass)
}
