//! `ingest_dedup`: the write side. One writer thread round-robins over two
//! stereo pairs: pair 0 streams H.264 through two open `write_sink`s, pair 1
//! appends raw RGB under a tight budget so write-time deferred compression
//! activates; then maintenance runs to quiescence and the store is dropped
//! and reopened. The traced run adds joint compression and recovery of the
//! pairs' overlapping views, the only use of `vss-vision` in the benchmark.

use super::{cutoff, err, timed_setup, Ctx, Mode, Pass, TelemetryDelta};
use crate::gen::{render_ring, Digest, Rng};
use crate::stats::ratio;
use crate::sys::dir_bytes;
use crate::trace::Tracer;
use std::path::Path;
use std::time::{Duration, Instant};
use vss_codec::{encode_to_gops, Codec, EncoderConfig};
use vss_core::{
    joint_compress_sequences, recover_sequences, JointConfig, JointOutcome, JointTimings,
    MergeFunction, ReadRequest, StorageBudget, Vss, VssConfig, WriteRequest, WriteSink,
};
use vss_frame::{quality::sequence_psnr, Frame, FrameSequence, PixelFormat, Resolution};

/// Frozen on the seed commit (2 cores): round-robin cycles (one push per
/// camera) that fill one second of budget.
const CYCLES_PER_SECOND: f64 = 8.5;
/// Joint windows per second of budget, traced run only.
const JOINT_WINDOWS_PER_SECOND: f64 = 1.6;
const CAMERAS: usize = 4;
const H264_GOP: usize = 30;
const RAW_GOP: usize = 3;
const JOINT_WINDOW: usize = 30;
/// The raw cameras' budget as a share of the raw bytes they will append:
/// deferred compression switches on a quarter of the way in and its level
/// climbs from there.
const RAW_BUDGET_SHARE: f64 = 1.0;

fn resolution(ctx: &Ctx) -> Resolution {
    if ctx.smoke {
        Resolution::new(96, 54)
    } else {
        Resolution::new(320, 180)
    }
}

fn camera_name(index: usize) -> String {
    format!("cam{index}")
}

fn is_raw(camera: usize) -> bool {
    camera >= 2
}

fn camera_codec(camera: usize) -> Codec {
    if is_raw(camera) {
        Codec::Raw(PixelFormat::Rgb8)
    } else {
        Codec::H264
    }
}

/// The frames camera `camera` pushes in cycle `cycle` (cycle 0 is set-up).
fn cycle_frames(rings: &[Vec<Frame>], camera: usize, cycle: usize) -> Vec<Frame> {
    let per = if is_raw(camera) { RAW_GOP } else { H264_GOP };
    let ring = &rings[camera];
    (0..per)
        .map(|f| ring[(cycle * per + f) % ring.len()].clone())
        .collect()
}

fn sequence(frames: Vec<Frame>) -> Result<FrameSequence, String> {
    FrameSequence::new(frames, 30.0).map_err(|e| format!("{e:?}"))
}

struct Store {
    vss: Vss,
    sinks: Vec<WriteSink<'static>>,
}

/// Set-up: open the store, create the budgeted raw videos, write every
/// camera's first GOP and leave the two H.264 sinks open.
fn open_store(root: &Path, rings: &[Vec<Frame>], raw_budget: u64) -> Result<Store, String> {
    let vss = Vss::open(VssConfig::new(root)).map_err(err)?;
    let mut sinks = Vec::new();
    for camera in 0..CAMERAS {
        let name = camera_name(camera);
        let frames = cycle_frames(rings, camera, 0);
        if is_raw(camera) {
            vss.create(&name, Some(StorageBudget::Bytes(raw_budget)))
                .map_err(err)?;
            vss.write(
                &WriteRequest::new(name, camera_codec(camera)),
                &sequence(frames)?,
            )
            .map_err(err)?;
        } else {
            let mut sink = vss
                .write_sink(&WriteRequest::new(name, Codec::H264), 30.0)
                .map_err(err)?;
            frames
                .into_iter()
                .try_for_each(|frame| sink.push_frame(frame))
                .map_err(err)?;
            sinks.push(sink);
        }
    }
    Ok(Store { vss, sinks })
}

pub fn run(ctx: &Ctx, mode: Mode) -> Result<Pass, String> {
    let resolution = resolution(ctx);
    let mut pass = Pass::default();
    let mut inputs = Digest::new();

    // --- inputs: two scenes, two overlapping cameras each ---------------------
    // The round-robin is fixed so every count repeats; the seed decides where
    // in its ring each pair starts (both cameras of a pair stay in step).
    let mut phase_rng = Rng::fork(ctx.seed, "ingest_dedup.phase");
    let phases = [phase_rng.below(60) as usize, phase_rng.below(60) as usize];
    let rings: Vec<Vec<Frame>> = (0..CAMERAS)
        .map(|camera| {
            let format = if is_raw(camera) {
                PixelFormat::Rgb8
            } else {
                PixelFormat::Yuv420
            };
            let mut ring = render_ring(camera as u64 / 2, camera % 2, resolution, format, 0.5, 60);
            ring.rotate_left(phases[camera / 2]);
            ring
        })
        .collect();
    rings.iter().for_each(|ring| inputs.frames(ring));
    let cycles = mode.count(ctx, CYCLES_PER_SECOND, 60);
    inputs.word(cycles as u64);
    pass.inputs_digest = inputs.value();
    let raw_gop_bytes = (rings[2][0].byte_len() * RAW_GOP) as u64;
    let raw_budget = (RAW_BUDGET_SHARE * (cycles as u64 * raw_gop_bytes) as f64) as u64;

    // --- set-up ---------------------------------------------------------------
    let (Store { vss, mut sinks }, root) = timed_setup(ctx, mode, &mut pass, |root| {
        open_store(root, &rings, raw_budget)
    })?;
    let mut acked_frames = [H264_GOP, H264_GOP, RAW_GOP, RAW_GOP];
    pass.raw_bytes = (0..CAMERAS)
        .map(|c| (rings[c][0].byte_len() * acked_frames[c]) as u64)
        .sum();

    // --- part A: the ingest loop -----------------------------------------------
    let mut tracer = mode.tracer(Instant::now(), 0);
    let telemetry = TelemetryDelta::start();
    let stop_at = cutoff(ctx);
    let wal_path = root.join(vss_catalog::wal::WAL_FILE);
    let wal_len = || std::fs::metadata(&wal_path).map(|m| m.len()).unwrap_or(0);
    let (mut wal_before, mut wal_growth) = (wal_len(), 0u64);
    let (mut gops_written, mut pages_compressed) = (0u64, 0u64);
    let cpu_before = crate::sys::cpu_seconds()?;
    let loop_started = Instant::now();
    'ingest: for cycle in 1..=cycles {
        for camera in 0..CAMERAS {
            pass.attempted += 1;
            if Instant::now() > stop_at {
                pass.failed += 1;
                continue 'ingest;
            }
            let frames = cycle_frames(&rings, camera, cycle);
            let (count, bytes) = (
                frames.len(),
                frames.iter().map(Frame::byte_len).sum::<usize>(),
            );
            let op = (cycle * CAMERAS + camera) as u64;
            let started = Instant::now();
            let outcome = if is_raw(camera) {
                let frames = sequence(frames)?;
                let root_span = tracer.begin(op, None, "op.append");
                let call = tracer.begin(op, Some(root_span), "core.append");
                let report = vss.append(&camera_name(camera), &frames);
                tracer.end(call);
                tracer.end(root_span);
                report.map(|report| {
                    tracer.children(call, &[("core.store_sequence", report.elapsed)]);
                    pages_compressed +=
                        report.deferred_levels.iter().filter(|&&l| l > 0).count() as u64;
                })
            } else {
                let root_span = tracer.begin(op, None, "op.sink_push");
                let call = tracer.begin(op, Some(root_span), "core.write_sink.push_gop");
                let pushed = frames
                    .into_iter()
                    .try_for_each(|frame| sinks[camera].push_frame(frame));
                tracer.end(call);
                tracer.end(root_span);
                pushed
            };
            let wall = started.elapsed();
            match outcome {
                Ok(()) => {
                    pass.latencies_ms.push(wall.as_secs_f64() * 1e3);
                    pass.ops += 1;
                    pass.frames += count as u64;
                    pass.raw_bytes += bytes as u64;
                    acked_frames[camera] += count;
                    gops_written += 1;
                }
                Err(e) => pass.fail(format!("cycle {cycle} {}: {e:?}", camera_name(camera))),
            }
        }
        if mode.traced {
            // A checkpoint resets the journal; only growth is summed.
            let now = wal_len();
            wal_growth += now.saturating_sub(wal_before);
            wal_before = now;
        }
    }
    for sink in sinks.drain(..) {
        sink.finish().map_err(err)?;
    }
    // Maintenance to quiescence is part of what ingest costs.
    let maintenance_started = Instant::now();
    let used_before: u64 = (0..CAMERAS)
        .map(|c| vss.bytes_used(&camera_name(c)).unwrap_or(0))
        .sum();
    let maintenance_span = tracer.begin(u64::MAX, None, "op.maintenance");
    let mut rounds = 0;
    while rounds < 100_000 && vss.run_maintenance().map_err(err)? {
        rounds += 1;
    }
    tracer.end(maintenance_span);
    let maintenance = maintenance_started.elapsed();
    let used_after: u64 = (0..CAMERAS)
        .map(|c| vss.bytes_used(&camera_name(c)).unwrap_or(0))
        .sum();
    pass.wall_s = loop_started.elapsed().as_secs_f64();
    pass.cpu_s = crate::sys::cpu_seconds()? - cpu_before;
    pass.cpu_frames = pass.frames;
    let telemetry = telemetry.finish();
    pass.stored_bytes = dir_bytes(&root);
    pass.note(format!(
        "{cycles} cycles x {CAMERAS} cameras @ {}x{}: {} raw bytes in, {} bytes stored; raw budget {} bytes per camera; \
         {pages_compressed} pages compressed at write time, {rounds} maintenance rounds",
        resolution.width, resolution.height, pass.raw_bytes, pass.stored_bytes, raw_budget
    ));

    // --- gate: drop, reopen, and every acknowledged GOP is there ------------------
    drop(vss);
    let reopen_started = Instant::now();
    let reopen_span = tracer.begin(u64::MAX - 1, None, "op.reopen");
    let vss = Vss::open(VssConfig::new(&root)).map_err(err)?;
    tracer.end(reopen_span);
    let reopen = reopen_started.elapsed();
    let replayed = vss.with_engine(|engine| engine.recovery_report().wal_records_replayed);
    pass.attempted += 1;
    if dir_bytes(&root) != pass.stored_bytes {
        pass.fail(format!(
            "reopening changed the store from {} to {} bytes",
            pass.stored_bytes,
            dir_bytes(&root)
        ));
    }
    let reference_encoder = EncoderConfig::default();
    let mut checked = 0;
    for (camera, &acked) in acked_frames.iter().enumerate() {
        let name = camera_name(camera);
        let per = if is_raw(camera) { RAW_GOP } else { H264_GOP };
        pass.attempted += 1;
        let expected_end = acked as f64 / 30.0;
        match vss.metadata(&name).map_err(err)?.time_range {
            Some((start, end)) if start == 0.0 && (end - expected_end).abs() < 1e-6 => {}
            other => pass.fail(format!(
                "{name}: expected [0, {expected_end}) after reopen, found {other:?}"
            )),
        }
        // Every tenth GOP is read back and compared byte-for-byte: raw GOPs
        // with the frames pushed, H.264 GOPs with the sequential encoder.
        for gop in (0..acked / per).step_by(10) {
            pass.attempted += 1;
            checked += 1;
            let (start, end) = ((gop * per) as f64 / 30.0, ((gop + 1) * per) as f64 / 30.0);
            let source = cycle_frames(&rings, camera, gop);
            let result =
                vss.read(&ReadRequest::new(&name, start, end, camera_codec(camera)).uncacheable());
            let matches = match result {
                Ok(result) if is_raw(camera) => result.frames.frames() == source.as_slice(),
                Ok(result) => {
                    let reference =
                        encode_to_gops(&sequence(source)?, Codec::H264, &reference_encoder)
                            .map_err(|e| format!("{e:?}"))?;
                    result.encoded.is_some_and(|stored| {
                        stored.len() == 1 && stored[0].to_bytes() == reference[0].to_bytes()
                    })
                }
                Err(e) => {
                    pass.note(format!("{name} GOP {gop}: {e:?}"));
                    false
                }
            };
            if !matches {
                pass.fail(format!("{name} GOP {gop} does not read back as written"));
            }
        }
    }
    pass.note(format!(
        "reopen replayed {replayed} journal records; {checked} GOPs read back byte-for-byte"
    ));

    // --- part B (traced run only): joint compression of the stereo pairs ---------
    if mode.traced {
        let wall_s = pass.wall_s;
        telemetry.publish_wal(&mut pass, gops_written);
        telemetry.publish_pipelines(&mut pass, wall_s);
        pass.set(
            "catalog.wal.bytes_per_gop",
            ratio(wal_growth as f64, gops_written as f64),
        );
        pass.set("catalog.open.replay_ms", reopen.as_secs_f64() * 1e3);
        pass.set("catalog.open.records_replayed", replayed as f64);
        pass.set("core.deferred.pages_compressed", pages_compressed as f64);
        pass.set("core.maintenance.busy_s", maintenance.as_secs_f64());
        pass.set(
            "core.maintenance.bytes_reclaimed",
            used_before.saturating_sub(used_after) as f64,
        );
        joint_part(ctx, mode, &rings, &mut tracer, &mut pass)?;
    }
    pass.spans = tracer.into_spans();
    Ok(pass)
}

/// Jointly compresses and recovers 30-frame windows of both pairs.
fn joint_part(
    ctx: &Ctx,
    mode: Mode,
    rings: &[Vec<Frame>],
    tracer: &mut Tracer,
    pass: &mut Pass,
) -> Result<(), String> {
    let config = JointConfig::default();
    let encoder = EncoderConfig::default();
    let windows = mode.count(ctx, JOINT_WINDOWS_PER_SECOND, 2);
    let (mut wall, mut compress_wall) = (Duration::ZERO, Duration::ZERO);
    let mut timings = JointTimings::default();
    let (mut pairs, mut aborted, mut estimations) = (0u64, 0u64, 0u64);
    let (mut joint_bytes, mut separate_bytes) = (0u64, 0u64);
    let mut worst_psnr = f64::INFINITY;
    for window in 0..windows {
        pass.attempted += 1;
        let pair = window % 2;
        let offset = (window / 2) * 15;
        let view = |camera: usize| -> Result<FrameSequence, String> {
            let ring = &rings[pair * 2 + camera];
            sequence(
                (0..JOINT_WINDOW)
                    .map(|f| ring[(offset + f) % ring.len()].clone())
                    .collect(),
            )
        };
        let (left, right) = (view(0)?, view(1)?);
        let op = (1u64 << 40) + window as u64;
        let mut window_timings = JointTimings::default();
        let started = Instant::now();
        let root_span = tracer.begin(op, None, "op.joint");
        let call = tracer.begin(op, Some(root_span), "core.joint_compress_sequences");
        let outcome = joint_compress_sequences(
            &left,
            &right,
            MergeFunction::Mean,
            &config,
            &encoder,
            None,
            &mut window_timings,
        );
        tracer.end(call);
        compress_wall += started.elapsed();
        tracer.children(
            call,
            &[
                (
                    "vision.features",
                    Duration::from_secs_f64(window_timings.feature_detection),
                ),
                (
                    "vision.homography",
                    Duration::from_secs_f64(window_timings.homography_estimation),
                ),
                (
                    "codec.encode",
                    Duration::from_secs_f64(window_timings.compression),
                ),
            ],
        );
        timings.feature_detection += window_timings.feature_detection;
        timings.homography_estimation += window_timings.homography_estimation;
        timings.compression += window_timings.compression;
        let recovered = match outcome.map_err(err)? {
            JointOutcome::Compressed(artifact) => {
                let call = tracer.begin(op, Some(root_span), "core.recover_sequences");
                let recovered = recover_sequences(&artifact);
                tracer.end(call);
                estimations += 1 + artifact.reestimations as u64;
                joint_bytes += artifact.byte_len() as u64;
                Some(recovered.map_err(err)?)
            }
            JointOutcome::Duplicate | JointOutcome::Aborted(_) => None,
        };
        tracer.end(root_span);
        wall += started.elapsed();
        match recovered {
            Some((recovered_left, recovered_right)) => {
                pairs += JOINT_WINDOW as u64;
                for view in [&left, &right] {
                    let gops = encode_to_gops(view, Codec::H264, &encoder)
                        .map_err(|e| format!("{e:?}"))?;
                    separate_bytes += gops.iter().map(|g| g.byte_len() as u64).sum::<u64>();
                }
                for (source, recovered) in [(&left, &recovered_left), (&right, &recovered_right)] {
                    let rgb: Vec<Frame> = source
                        .frames()
                        .iter()
                        .map(|f| f.convert(PixelFormat::Rgb8))
                        .collect::<Result<_, _>>()
                        .map_err(|e| format!("{e:?}"))?;
                    let psnr = sequence_psnr(&rgb, recovered.frames())
                        .map_err(|e| format!("{e:?}"))?
                        .db();
                    worst_psnr = worst_psnr.min(psnr);
                    if psnr < config.recovery_threshold.db() {
                        pass.fail(format!("joint window {window}: recovered {psnr:.1} dB, below the recovery threshold"));
                    }
                }
            }
            None => aborted += 1,
        }
    }
    pass.note(format!("{windows} joint windows: {aborted} not compressed, worst recovered view {worst_psnr:.1} dB"));
    pass.set(
        "vision.features.ms_per_frame",
        ratio(timings.feature_detection * 1e3, (2 * estimations) as f64),
    );
    pass.set(
        "vision.homography.ms_per_pair",
        ratio(timings.homography_estimation * 1e3, estimations as f64),
    );
    pass.set(
        "core.joint.compress_share",
        ratio(timings.compression, compress_wall.as_secs_f64()),
    );
    pass.set(
        "core.joint.abort_frac",
        ratio(aborted as f64, windows as f64),
    );
    pass.set(
        "core.joint.recovered_psnr_db",
        if worst_psnr.is_finite() {
            worst_psnr
        } else {
            0.0
        },
    );
    pass.set("core.joint.fps", ratio(pairs as f64, wall.as_secs_f64()));
    pass.set(
        "core.joint.bytes_per_separate_byte",
        ratio(joint_bytes as f64, separate_bytes as f64),
    );
    Ok(())
}
