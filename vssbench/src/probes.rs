//! Layer probes of the traced run: a span around one call into each layer's
//! public entry point, on a fixed sample clip, so a layer's unit cost can be
//! read beside the share of the workload it accounts for. The clip does not
//! depend on `--seed`: probe numbers are comparable across seeds and commits.

use crate::gen::render_ring;
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::workloads::{Ctx, Pass};
use std::hint::black_box;
use std::time::Instant;
use vss_catalog::Catalog;
use vss_codec::{decode_gops_parallel, encode_to_gops, lossless, Codec, CostModel, EncoderConfig};
use vss_core::ChunkStats;
use vss_frame::{resize_bilinear, Frame, FrameSequence, PixelFormat, Resolution};
use vss_net::wire::{decode_message, encode_message, Message};
use vss_solver::{plan_read, FragmentCandidate, ReadPlanRequest};

const REPS: usize = 5;
/// Deferred compression scales its level 1..=19 with budget pressure; the
/// probe takes the middle.
const LOSSLESS_LEVEL: u8 = 10;

struct Probe {
    tracer: Tracer,
    next_op: u64,
}

impl Probe {
    /// Median ns of `REPS` calls of `f`, each under its own root span.
    fn time<T>(&mut self, name: &'static str, mut f: impl FnMut() -> T) -> f64 {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                self.next_op += 1;
                let span = self.tracer.begin(self.next_op, None, name);
                let started = Instant::now();
                black_box(f());
                let ns = started.elapsed().as_nanos() as f64;
                self.tracer.end(span);
                ns
            })
            .collect();
        median(&samples)
    }
}

pub fn run(ctx: &Ctx, pass: &mut Pass) -> Result<(), String> {
    let resolution = if ctx.smoke {
        Resolution::new(64, 36)
    } else {
        Resolution::new(240, 136)
    };
    let frames: Vec<Frame> = render_ring(0xbe9c4, 0, resolution, PixelFormat::Yuv420, 0.3, 30);
    let pixels = (resolution.width * resolution.height) as f64 * frames.len() as f64;
    let clip = FrameSequence::new(frames.clone(), 30.0).map_err(|e| format!("{e:?}"))?;
    let config = EncoderConfig::default();
    // Probe ops sit in their own id range and lane so they never collide
    // with the workload's spans.
    let mut probe = Probe {
        tracer: Tracer::on(Instant::now(), 63),
        next_op: 1 << 32,
    };

    // --- codec ----------------------------------------------------------------
    for (codec, encode_name, decode_name, encode_span, decode_span) in [
        (
            Codec::H264,
            "codec.encode_h264.ns_per_pixel",
            "codec.decode_h264.ns_per_pixel",
            "probe.codec.encode_to_gops.h264",
            "probe.codec.decode_gops_parallel.h264",
        ),
        (
            Codec::Hevc,
            "codec.encode_hevc.ns_per_pixel",
            "codec.decode_hevc.ns_per_pixel",
            "probe.codec.encode_to_gops.hevc",
            "probe.codec.decode_gops_parallel.hevc",
        ),
    ] {
        let gops = encode_to_gops(&clip, codec, &config).map_err(|e| format!("{e:?}"))?;
        pass.set(
            encode_name,
            probe.time(encode_span, || encode_to_gops(&clip, codec, &config)) / pixels,
        );
        pass.set(
            decode_name,
            probe.time(decode_span, || decode_gops_parallel(&gops, codec, 1)) / pixels,
        );
    }
    // The clip is one GOP; the catalog and wire probes below move it too.
    let h264_gop = encode_to_gops(&clip, Codec::H264, &config)
        .map_err(|e| format!("{e:?}"))?
        .remove(0);
    pass.set(
        "codec.gop.bytes_per_pixel",
        h264_gop.byte_len() as f64 / pixels,
    );
    let rgb: Vec<Frame> = frames[..3]
        .iter()
        .map(|f| f.convert(PixelFormat::Rgb8))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{e:?}"))?;
    let raw_gop = encode_to_gops(
        &FrameSequence::new(rgb, 30.0).map_err(|e| format!("{e:?}"))?,
        Codec::Raw(PixelFormat::Rgb8),
        &EncoderConfig {
            gop_size: 3,
            ..config
        },
    )
    .map_err(|e| format!("{e:?}"))?[0]
        .to_bytes();
    let compressed = lossless::compress(&raw_gop, LOSSLESS_LEVEL);
    pass.set(
        "codec.lossless.ns_per_byte",
        probe.time("probe.codec.lossless.compress", || {
            lossless::compress(&raw_gop, LOSSLESS_LEVEL)
        }) / raw_gop.len() as f64,
    );
    pass.set(
        "codec.lossless.ratio",
        compressed.len() as f64 / raw_gop.len() as f64,
    );

    // --- frame ----------------------------------------------------------------
    let frame_pixels = (resolution.width * resolution.height) as f64;
    let (half_w, half_h) = (resolution.width / 2, resolution.height / 2);
    pass.set(
        "frame.resample.ns_per_pixel",
        probe.time("probe.frame.resize_bilinear", || {
            resize_bilinear(&frames[0], half_w, half_h)
        }) / frame_pixels,
    );
    pass.set(
        "frame.convert.ns_per_pixel",
        probe.time("probe.frame.convert", || {
            frames[0].convert(PixelFormat::Rgb8)
        }) / frame_pixels,
    );

    // --- solver: 64 overlapping candidates, one 40 s read ---------------------
    let candidates: Vec<FragmentCandidate> = (0..64u64)
        .map(|id| {
            let start = if id == 0 { 0.0 } else { (id * 7 % 50) as f64 };
            FragmentCandidate {
                id,
                start,
                end: if id == 0 {
                    60.0
                } else {
                    start + 2.0 + (id % 9) as f64
                },
                resolution: if id % 3 == 0 {
                    resolution
                } else {
                    Resolution::new(half_w, half_h)
                },
                codec: if id % 2 == 0 {
                    Codec::H264
                } else {
                    Codec::Hevc
                },
                frame_rate: 30.0,
                gop_frames: 30,
                quality_ok: true,
            }
        })
        .collect();
    let request = ReadPlanRequest {
        start: 5.0,
        end: 45.0,
        resolution,
        codec: Codec::Hevc,
    };
    let cost_model = CostModel::default();
    plan_read(&request, &candidates, &cost_model).map_err(|e| format!("plan probe: {e:?}"))?;
    pass.set(
        "solver.plan_probe.us",
        probe.time("probe.solver.plan_read", || {
            plan_read(&request, &candidates, &cost_model)
        }) / 1e3,
    );

    // --- catalog: durable GOP append and read on a scratch catalog -------------
    let gop_bytes = h264_gop.to_bytes();
    let mut catalog =
        Catalog::open(ctx.scratch.join("probe-catalog")).map_err(|e| format!("{e:?}"))?;
    catalog
        .create_video("probe")
        .map_err(|e| format!("{e:?}"))?;
    let physical = catalog
        .add_physical(
            "probe",
            resolution.width,
            resolution.height,
            30.0,
            "h264",
            true,
            0.0,
        )
        .map_err(|e| format!("{e:?}"))?;
    let mut at = 0.0;
    let append_ns = probe.time("probe.catalog.append_gop", || {
        at += 1.0;
        catalog.append_gop("probe", physical, at - 1.0, at, 30, &gop_bytes, None)
    });
    pass.set("catalog.gop.append_us", append_ns / 1e3);
    pass.set(
        "catalog.gop.read_us",
        probe.time("probe.catalog.read_gop", || {
            catalog.read_gop("probe", physical, 0)
        }) / 1e3,
    );

    // --- wire: one streamed chunk (a GOP of frames plus its encoded GOP) -------
    let chunk = Message::StreamChunk {
        frame_rate: 30.0,
        last: true,
        frames: frames.clone(),
        encoded_gop: Some(h264_gop),
        delta: ChunkStats::default(),
    };
    let encoded = encode_message(&chunk);
    decode_message(&encoded).map_err(|e| format!("wire probe: {e}"))?;
    pass.set(
        "net.wire.encode_ns_per_byte",
        probe.time("probe.net.encode_message", || encode_message(&chunk)) / encoded.len() as f64,
    );
    pass.set(
        "net.wire.decode_ns_per_byte",
        probe.time("probe.net.decode_message", || decode_message(&encoded)) / encoded.len() as f64,
    );

    // --- parallel: what fanning 8 trivial items out to workers costs ----------
    let items = [0u64; 8];
    let fan_out = probe.time("probe.parallel.par_map", || {
        vss_parallel::par_map(0, &items, |_, x| *x)
    });
    let inline = probe.time("probe.parallel.par_map.inline", || {
        vss_parallel::par_map(1, &items, |_, x| *x)
    });
    pass.set(
        "parallel.par_map.overhead_us",
        ratio(fan_out - inline, 1e3).max(0.0),
    );
    pass.set(
        "parallel.pipeline.workers",
        vss_parallel::resolve_threads(0) as f64,
    );

    pass.spans.extend(probe.tracer.into_spans());
    Ok(())
}
