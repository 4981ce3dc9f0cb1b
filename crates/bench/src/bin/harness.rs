//! Paper-figure printer: regenerates every table and figure of the paper's
//! evaluation (Section 6).
//!
//! Usage:
//!
//! ```text
//! cargo run -p vss-bench --release --bin harness -- [<experiment>|all]
//! ```
//!
//! where `<experiment>` is one of `table1`, `fig10` … `fig21`, `table2`.
//! Results are printed as text tables and written to `results/<id>.json`.
//! Experiment sizes are controlled by the `VSS_SCALE`, `VSS_MAX_FRAMES` and
//! `VSS_ITERATIONS` environment variables (see `vss_bench::ScaleConfig`).
//!
//! The numbers are reproduction evidence, not a regression gate: whether a
//! change made the system faster is answered by `vssbench/` against the
//! bounds in `BENCHMARK.json`.

use std::time::Instant;
use vss_baseline::{LocalFs, VStoreLike};
use vss_bench::{fps, scratch_dir, Report, Row, ScaleConfig};
use vss_codec::{codec_instance, encode_to_gops, lossless, Codec, EncoderConfig};
use vss_core::{
    joint_compress_sequences, recover_sequences, GopFingerprint, JointConfig, JointOutcome,
    MergeFunction, PairSelector, PlannerKind, ReadRequest, StorageBudget, VideoStorage, Vss,
    VssConfig, WriteRequest,
};
use vss_frame::{quality, FrameSequence, PixelFormat, PsnrDb, Resolution};
use vss_server::VssServer;
use vss_workload::{
    random_pairs, run_clients, server_store, shared_store, AppConfig, CameraMotion, DatasetSpec,
    GroundTruthPairs, QueryWorkload, SceneConfig, SceneRenderer,
};

type Experiment = fn(&ScaleConfig) -> Report;

/// The paper's evaluation, in the order `all` runs it.
const EXPERIMENTS: [(&str, Experiment); 14] = [
    ("table1", table1),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("fig18", fig18),
    ("fig19", fig19),
    ("fig20", fig20),
    ("fig21", fig21),
    ("table2", table2),
];

fn main() {
    let scale = ScaleConfig::from_env();
    let mut args = std::env::args().skip(1);
    let argument = args.next().unwrap_or_else(|| "all".to_string());
    let selected: Vec<_> =
        EXPERIMENTS.iter().filter(|(name, _)| argument == "all" || argument == *name).collect();
    if selected.is_empty() {
        eprintln!("unknown experiment '{argument}'");
        std::process::exit(2);
    }
    if let Some(extra) = args.next() {
        eprintln!("unexpected argument '{extra}' (usage: harness [<experiment>|all])");
        std::process::exit(2);
    }
    for (_, experiment) in selected {
        let started = Instant::now();
        let report = experiment(&scale);
        println!("{}", report.to_table());
        println!("(completed in {:.1}s)\n", started.elapsed().as_secs_f64());
        match report.write_json("results") {
            Ok(path) => println!("wrote {}\n", path.display()),
            Err(error) => eprintln!("failed to write results: {error}\n"),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// A scaled stereo scene used by the joint-compression experiments.
fn stereo_scene(resolution: Resolution, overlap: f64, frames: usize, motion: CameraMotion) -> (FrameSequence, FrameSequence) {
    let renderer = SceneRenderer::new(SceneConfig {
        resolution,
        format: PixelFormat::Rgb8,
        frame_rate: 30.0,
        overlap,
        vehicles: 8,
        motion,
        noise_amplitude: 1,
        seed: 11,
    });
    (renderer.render_sequence(0, frames), renderer.render_sequence(1, frames))
}

/// Joint configuration tuned for the scaled-down scenes (fewer keypoints fit
/// in a 100-pixel-wide frame than in a 1K frame).
fn scaled_joint_config() -> JointConfig {
    JointConfig { min_correspondences: 6, recovery_threshold: PsnrDb(22.0) }
}

fn open_vss(tag: &str) -> (Vss, std::path::PathBuf) {
    let root = scratch_dir(tag);
    (Vss::open(VssConfig::new(&root)).expect("open vss"), root)
}

fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_dir_all(path);
}

fn write_dataset(vss: &Vss, name: &str, frames: &FrameSequence, codec: Codec) {
    vss.write(&WriteRequest::new(name, codec), frames).expect("dataset write");
}

// ---------------------------------------------------------------------------
// Table 1 — datasets
// ---------------------------------------------------------------------------

fn table1(scale: &ScaleConfig) -> Report {
    let mut report = Report::new(
        "table1",
        "Datasets used to evaluate VSS (generated at the harness scale; sizes are the \
         simulated-H.264 compressed sizes)",
    );
    for spec in DatasetSpec::all() {
        let dataset = spec.generate(scale.resolution_divisor, scale.max_frames);
        let encoder = EncoderConfig::default();
        let gops = encode_to_gops(dataset.primary(), Codec::H264, &encoder).expect("encode");
        let compressed: usize = gops.iter().map(|g| g.byte_len()).sum();
        let scaled = spec.scaled_resolution(scale.resolution_divisor);
        report.push(
            Row::new(spec.name)
                .with("paper_width", f64::from(spec.resolution.width))
                .with("paper_height", f64::from(spec.resolution.height))
                .with("paper_frames", spec.frames as f64)
                .with("scaled_width", f64::from(scaled.width))
                .with("scaled_height", f64::from(scaled.height))
                .with("scaled_frames", dataset.primary().len() as f64)
                .with("compressed_kb", compressed as f64 / 1024.0)
                .with("raw_kb", dataset.primary().byte_len() as f64 / 1024.0),
        );
    }
    report
}

// ---------------------------------------------------------------------------
// Figure 10 — long reads vs. number of materialized fragments
// ---------------------------------------------------------------------------

fn fig10(scale: &ScaleConfig) -> Report {
    let mut report = Report::new(
        "fig10",
        "Time to select fragments and read the full video (HEVC output) as the cache of \
         materialized fragments grows: VSS optimal planner vs. greedy vs. reading the original",
    );
    let spec = DatasetSpec::by_name("visualroad-4k-30").expect("preset");
    let dataset = spec.generate(scale.resolution_divisor * 2, scale.max_frames);
    let duration = dataset.primary().duration_seconds();
    let (vss, root) = open_vss("fig10");
    vss.create("video", Some(StorageBudget::Unlimited)).expect("create");
    write_dataset(&vss, "video", dataset.primary(), Codec::H264);

    // Baseline: reading the original with an empty cache.
    let full_read = |planner: PlannerKind| {
        let started = Instant::now();
        let request = ReadRequest::new("video", 0.0, duration, Codec::Hevc);
        vss.read(&request.uncacheable().planner(planner)).expect("full read");
        started.elapsed().as_secs_f64()
    };
    let original_seconds = full_read(PlannerKind::Optimal);

    // The paper's populating reads keep the full (4K) resolution and vary the
    // time range and physical format; reproduce that shape so the cached
    // fragments are usable by the final full-resolution HEVC read.
    let workload = QueryWorkload {
        video: "video".into(),
        duration,
        min_length: duration / 8.0,
        max_length: duration / 2.0,
        source_resolution: spec.scaled_resolution(scale.resolution_divisor * 2),
        codecs: vec![Codec::Hevc, Codec::H264],
        seed: 42,
    };
    let mut populate = workload.generate(scale.iterations.max(4));
    for request in &mut populate {
        request.spatial.resolution = None;
    }
    let checkpoints = [0usize, populate.len() / 4, populate.len() / 2, populate.len()];
    let mut executed = 0usize;
    for &target in &checkpoints {
        while executed < target {
            let _ = vss.read(&populate[executed]);
            executed += 1;
        }
        let cached_fragments =
            vss.with_engine(|engine| engine.materialized_fragment_count("video").unwrap_or(0));
        let vss_seconds = full_read(PlannerKind::Optimal);
        let greedy_seconds = full_read(PlannerKind::Greedy);
        report.push(
            Row::new(format!("{cached_fragments} fragments"))
                .with("reads_executed", executed as f64)
                .with("vss_seconds", vss_seconds)
                .with("greedy_seconds", greedy_seconds)
                .with("read_original_seconds", original_seconds),
        );
    }
    cleanup(&root);
    report
}

// ---------------------------------------------------------------------------
// Figure 11 — joint-compression pair selection
// ---------------------------------------------------------------------------

fn fig11(scale: &ScaleConfig) -> Report {
    let mut report = Report::new(
        "fig11",
        "Joint-compression candidate selection: fraction of truly overlapping GOP pairs found \
         and time taken, for VSS's selector vs. an oracle vs. random sampling",
    );
    let resolution = Resolution::new(128, 72);
    let gop_frames = 3usize;
    let pair_count = (scale.iterations / 4).clamp(3, 8);
    let mut selector = PairSelector::new(scaled_joint_config());
    let mut truth_pairs = Vec::new();
    let mut all_ids = Vec::new();
    let mut next_id = 0u64;
    for scene in 0..pair_count {
        let (left, right) = stereo_scene(
            resolution,
            0.5,
            gop_frames,
            if scene % 2 == 0 { CameraMotion::Static } else { CameraMotion::Panning { pixels_per_frame: 0.5 } },
        );
        // Give each scene a distinct seed by re-rendering with shifted content.
        let left_id = next_id;
        let right_id = next_id + 1;
        next_id += 2;
        truth_pairs.push((left_id, right_id));
        all_ids.push(left_id);
        all_ids.push(right_id);
        selector.insert(GopFingerprint::from_frames(left_id, &left, 2).expect("fingerprint"));
        selector.insert(GopFingerprint::from_frames(right_id, &right, 2).expect("fingerprint"));
    }
    // Unrelated singleton GOPs that should not be paired.
    for extra in 0..pair_count {
        let noise = SceneRenderer::new(SceneConfig {
            resolution,
            format: PixelFormat::Rgb8,
            seed: 1000 + extra as u64,
            vehicles: 2,
            noise_amplitude: 40,
            ..Default::default()
        })
        .render_sequence(0, gop_frames);
        selector.insert(GopFingerprint::from_frames(next_id, &noise, 2).expect("fingerprint"));
        all_ids.push(next_id);
        next_id += 1;
    }
    let truth = GroundTruthPairs::new(truth_pairs);

    let started = Instant::now();
    let vss_pairs = selector.candidate_pairs(16);
    let vss_seconds = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let oracle_pairs = truth.oracle();
    let oracle_seconds = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let random = random_pairs(&all_ids, vss_pairs.len().max(1), 7);
    let random_seconds = started.elapsed().as_secs_f64();

    report.push(
        Row::new("vss")
            .with("pairs_found_pct", truth.recall(&vss_pairs) * 100.0)
            .with("seconds", vss_seconds),
    );
    report.push(
        Row::new("oracle")
            .with("pairs_found_pct", truth.recall(&oracle_pairs) * 100.0)
            .with("seconds", oracle_seconds),
    );
    report.push(
        Row::new("random")
            .with("pairs_found_pct", truth.recall(&random) * 100.0)
            .with("seconds", random_seconds),
    );
    report
}

// ---------------------------------------------------------------------------
// Figure 12 — short (one-second) reads
// ---------------------------------------------------------------------------

fn fig12(scale: &ScaleConfig) -> Report {
    let mut report = Report::new(
        "fig12",
        "Mean time to select and read short (1 s) segments as the cache grows: VSS with all \
         optimizations vs. no deferred compression vs. ordinary LRU vs. the local file system",
    );
    let spec = DatasetSpec::by_name("visualroad-4k-30").expect("preset");
    let dataset = spec.generate(scale.resolution_divisor * 2, scale.max_frames);
    let duration = dataset.primary().duration_seconds();
    let resolution = spec.scaled_resolution(scale.resolution_divisor * 2);

    type EngineTweak = Box<dyn Fn(&mut vss_core::Engine)>;
    let configurations: Vec<(&str, EngineTweak)> = vec![
        ("vss_all_optimizations", Box::new(|_: &mut vss_core::Engine| {})),
        ("vss_no_deferred", Box::new(|engine: &mut vss_core::Engine| {
            engine.config.deferred_compression = false;
        })),
        ("vss_ordinary_lru", Box::new(|engine: &mut vss_core::Engine| {
            engine.config.eviction_policy = vss_core::EvictionPolicy::Lru;
        })),
    ];

    let populate_counts = [0usize, scale.iterations / 2, scale.iterations];
    for &population in &populate_counts {
        let mut row = Row::new(format!("{population} cache-populating reads"));
        for (label, configure) in &configurations {
            let (vss, root) = open_vss(&format!("fig12-{label}-{population}"));
            vss.create("video", Some(StorageBudget::MultipleOfOriginal(6.0))).expect("create");
            write_dataset(&vss, "video", dataset.primary(), Codec::H264);
            vss.with_engine(|engine| configure(engine));
            let workload = QueryWorkload::cache_population("video", duration, resolution, 17);
            for request in workload.generate(population) {
                let _ = vss.read(&request);
            }
            let short = QueryWorkload::short_reads("video", duration, resolution, 23);
            let requests = short.generate(scale.iterations.max(5));
            let started = Instant::now();
            for request in &requests {
                let _ = vss.read(request);
            }
            row = row.with(*label, started.elapsed().as_secs_f64() / requests.len() as f64);
            cleanup(&root);
        }
        // Local file system: every short read decodes from the monolithic
        // original in its stored format, and the *application* performs any
        // requested conversion (the paper's OpenCV-style variant).
        let root = scratch_dir(&format!("fig12-localfs-{population}"));
        let mut local = LocalFs::new(&root).expect("local fs");
        local
            .write(&WriteRequest::new("video", Codec::H264), dataset.primary())
            .expect("write");
        let short = QueryWorkload::short_reads("video", duration, resolution, 23);
        let requests = short.generate(scale.iterations.max(5));
        let encoder = EncoderConfig::default();
        let started = Instant::now();
        for request in &requests {
            let decoded = local
                .read(&ReadRequest::new(
                    "video",
                    request.temporal.start,
                    request.temporal.end,
                    Codec::H264,
                ))
                .expect("local fs read");
            if request.physical.codec.is_compressed() && request.physical.codec != Codec::H264 {
                let _ = encode_to_gops(&decoded.frames, request.physical.codec, &encoder);
            }
        }
        row = row.with("local_fs", started.elapsed().as_secs_f64() / requests.len() as f64);
        cleanup(&root);
        report.push(row);
    }
    report
}

// ---------------------------------------------------------------------------
// Figure 13 — deferred compression during an uncompressed write
// ---------------------------------------------------------------------------

fn fig13(scale: &ScaleConfig) -> Report {
    let mut report = Report::new(
        "fig13",
        "Uncompressed write with deferred compression: budget consumed, compression level and \
         throughput (relative to the first chunk) as the write progresses",
    );
    let spec = DatasetSpec::by_name("visualroad-1k-30").expect("preset");
    let dataset = spec.generate(scale.resolution_divisor, scale.max_frames.max(40));
    let frames = dataset.primary();
    let (vss, root) = open_vss("fig13");
    // A budget sized so deferred compression activates partway through.
    let budget = (frames.byte_len() as f64 * 0.6) as u64;
    vss.create("video", Some(StorageBudget::Bytes(budget))).expect("create");

    let chunk = (frames.len() / 10).max(3);
    let mut written = 0usize;
    let mut first_chunk_fps = None;
    let mut first = true;
    while written < frames.len() {
        let end = (written + chunk).min(frames.len());
        let slice = FrameSequence::new(frames.frames()[written..end].to_vec(), frames.frame_rate())
            .expect("chunk");
        let report_chunk = if first {
            first = false;
            vss.write(&WriteRequest::new("video", Codec::Raw(PixelFormat::Rgb8)), &slice).expect("write")
        } else {
            vss.append("video", &slice).expect("append")
        };
        written = end;
        let chunk_fps = fps(report_chunk.frames_written, report_chunk.elapsed);
        let baseline_fps = *first_chunk_fps.get_or_insert(chunk_fps);
        let budget_fraction = vss.budget_fraction("video").expect("budget").unwrap_or(0.0);
        let level = report_chunk.deferred_levels.iter().copied().max().unwrap_or(0);
        report.push(
            Row::new(format!("{:>3.0}% written", written as f64 / frames.len() as f64 * 100.0))
                .with("budget_consumed_pct", budget_fraction * 100.0)
                .with("compression_level", f64::from(level))
                .with("relative_throughput_pct", chunk_fps / baseline_fps * 100.0),
        );
    }
    cleanup(&root);
    report
}

// ---------------------------------------------------------------------------
// Figure 14 — read throughput by format conversion
// ---------------------------------------------------------------------------

fn fig14(scale: &ScaleConfig) -> Report {
    let mut report = Report::new(
        "fig14",
        "Read throughput (frames/s) for same-format and cross-format reads: VSS vs. local file \
         system vs. VStore-like staging (missing values = conversion unsupported by that system)",
    );
    let spec = DatasetSpec::by_name("visualroad-1k-30").expect("preset");
    let dataset = spec.generate(scale.resolution_divisor, scale.max_frames);
    let frames = dataset.primary();
    let duration = frames.duration_seconds();
    let raw = Codec::Raw(PixelFormat::Yuv420);

    // (label, stored codec, requested codec)
    let cases = [
        ("h264_to_h264", Codec::H264, Codec::H264),
        ("raw_to_raw", raw, raw),
        ("raw_to_h264", raw, Codec::H264),
        ("h264_to_raw", Codec::H264, raw),
        ("h264_to_hevc", Codec::H264, Codec::Hevc),
    ];

    for (label, stored, requested) in cases {
        let mut row = Row::new(label);
        let read_request = ReadRequest::new("video", 0.0, duration, requested);
        // VSS (the handle implements the same `VideoStorage` trait as the
        // baselines — no adapter).
        let (mut vss, vss_root) = open_vss(&format!("fig14-vss-{label}"));
        VideoStorage::write(&mut vss, &WriteRequest::new("video", stored), frames).expect("write");
        let started = Instant::now();
        let result = VideoStorage::read(&mut vss, &read_request).expect("vss read");
        row = row.with("vss_fps", fps(result.frames.len(), started.elapsed()));
        cleanup(&vss_root);
        // Local FS.
        let fs_root = scratch_dir(&format!("fig14-fs-{label}"));
        let mut local = LocalFs::new(&fs_root).expect("local fs");
        local.write(&WriteRequest::new("video", stored), frames).expect("write");
        let started = Instant::now();
        if let Ok(result) = local.read(&read_request) {
            row = row.with("local_fs_fps", fps(result.frames.len(), started.elapsed()));
        }
        cleanup(&fs_root);
        // VStore-like: stages H.264 and raw, but not HEVC (matching the
        // paper's "VStore does not support reading some formats").
        let vstore_root = scratch_dir(&format!("fig14-vstore-{label}"));
        let mut vstore = VStoreLike::new(&vstore_root, vec![Codec::H264, raw]).expect("vstore");
        vstore.write(&WriteRequest::new("video", stored), frames).expect("write");
        let started = Instant::now();
        if let Ok(result) = vstore.read(&read_request) {
            row = row.with("vstore_fps", fps(result.frames.len(), started.elapsed()));
        }
        cleanup(&vstore_root);
        report.push(row);
    }
    report
}

// ---------------------------------------------------------------------------
// Figure 15 — write throughput
// ---------------------------------------------------------------------------

fn fig15(scale: &ScaleConfig) -> Report {
    let mut report = Report::new(
        "fig15",
        "Write throughput (frames/s) for uncompressed and compressed (H.264) writes of every \
         dataset: VSS vs. local file system vs. VStore-like staging",
    );
    for spec in DatasetSpec::all() {
        let dataset = spec.generate(scale.resolution_divisor * 2, scale.max_frames.min(45));
        let frames = dataset.primary();
        for (mode, codec) in [("raw", Codec::Raw(PixelFormat::Yuv420)), ("h264", Codec::H264)] {
            let mut row = Row::new(format!("{}-{mode}", spec.name));
            let write_request = WriteRequest::new("video", codec);
            let (mut vss, vss_root) = open_vss(&format!("fig15-vss-{}-{mode}", spec.name));
            let result = VideoStorage::write(&mut vss, &write_request, frames).expect("vss write");
            row = row.with("vss_fps", fps(frames.len(), result.elapsed));
            cleanup(&vss_root);

            let fs_root = scratch_dir(&format!("fig15-fs-{}-{mode}", spec.name));
            let mut local = LocalFs::new(&fs_root).expect("local fs");
            let result = local.write(&write_request, frames).expect("fs write");
            row = row.with("local_fs_fps", fps(frames.len(), result.elapsed));
            cleanup(&fs_root);

            let vstore_root = scratch_dir(&format!("fig15-vstore-{}-{mode}", spec.name));
            let mut vstore = VStoreLike::new(&vstore_root, vec![codec]).expect("vstore");
            let result = vstore.write(&write_request, frames).expect("vstore write");
            row = row.with("vstore_fps", fps(frames.len(), result.elapsed));
            cleanup(&vstore_root);
            report.push(row);
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Figure 16 — eviction policy vs. storage budget
// ---------------------------------------------------------------------------

fn fig16(scale: &ScaleConfig) -> Report {
    let mut report = Report::new(
        "fig16",
        "Full-video read time after cache population under different storage budgets: ordinary \
         LRU vs. the LRU_VSS eviction policy",
    );
    let spec = DatasetSpec::by_name("visualroad-4k-30").expect("preset");
    let dataset = spec.generate(scale.resolution_divisor * 2, scale.max_frames);
    let duration = dataset.primary().duration_seconds();
    let resolution = spec.scaled_resolution(scale.resolution_divisor * 2);

    for multiple in [1.5f64, 3.0, 6.0, 12.0] {
        let mut row = Row::new(format!("{multiple}x budget"));
        for (label, policy) in [
            ("lru_seconds", vss_core::EvictionPolicy::Lru),
            ("lru_vss_seconds", vss_core::EvictionPolicy::default()),
        ] {
            let (vss, root) = open_vss(&format!("fig16-{label}-{multiple}"));
            vss.create("video", Some(StorageBudget::MultipleOfOriginal(multiple))).expect("create");
            write_dataset(&vss, "video", dataset.primary(), Codec::H264);
            vss.with_engine(|engine| engine.config.eviction_policy = policy);
            let workload = QueryWorkload::cache_population("video", duration, resolution, 31);
            for request in workload.generate(scale.iterations) {
                let _ = vss.read(&request);
            }
            let started = Instant::now();
            vss.read(&ReadRequest::new("video", 0.0, duration, Codec::Hevc).uncacheable())
                .expect("final read");
            row = row.with(label, started.elapsed().as_secs_f64());
            cleanup(&root);
        }
        report.push(row);
    }
    report
}

// ---------------------------------------------------------------------------
// Figure 17 — joint-compression storage savings by overlap
// ---------------------------------------------------------------------------

fn fig17(scale: &ScaleConfig) -> Report {
    let mut report = Report::new(
        "fig17",
        "On-disk size of jointly compressed video relative to separately compressed video, by \
         horizontal overlap percentage",
    );
    let resolution = DatasetSpec::by_name("visualroad-1k-30")
        .expect("preset")
        .scaled_resolution(scale.resolution_divisor);
    let frames = (scale.max_frames / 10).clamp(3, 8);
    let encoder = EncoderConfig::default();
    for overlap_pct in [15u32, 30, 50, 75] {
        let (left, right) = stereo_scene(resolution, f64::from(overlap_pct) / 100.0, frames, CameraMotion::Static);
        let separate: usize = [&left, &right]
            .iter()
            .map(|seq| {
                encode_to_gops(seq, Codec::H264, &encoder)
                    .expect("encode")
                    .iter()
                    .map(|g| g.byte_len())
                    .sum::<usize>()
            })
            .sum();
        let mut timings = vss_core::JointTimings::default();
        let outcome = joint_compress_sequences(
            &left,
            &right,
            MergeFunction::Mean,
            &scaled_joint_config(),
            &encoder,
            None,
            &mut timings,
        )
        .expect("joint compression");
        let joint_bytes = match outcome {
            JointOutcome::Compressed(artifact) => artifact.byte_len(),
            JointOutcome::Duplicate => 0,
            JointOutcome::Aborted(reason) => {
                report.push(Row::new(format!("{overlap_pct}% overlap (aborted: {reason})")));
                continue;
            }
        };
        report.push(
            Row::new(format!("{overlap_pct}% overlap"))
                .with("separate_kb", separate as f64 / 1024.0)
                .with("joint_kb", joint_bytes as f64 / 1024.0)
                .with("pct_smaller", (1.0 - joint_bytes as f64 / separate as f64) * 100.0),
        );
    }
    report
}

// ---------------------------------------------------------------------------
// Figure 18 — joint compression read/write throughput
// ---------------------------------------------------------------------------

fn fig18(scale: &ScaleConfig) -> Report {
    let mut report = Report::new(
        "fig18",
        "Read and write throughput (frames/s) with joint compression vs. separate compression",
    );
    let resolution = DatasetSpec::by_name("visualroad-1k-30")
        .expect("preset")
        .scaled_resolution(scale.resolution_divisor);
    let frames = (scale.max_frames / 10).clamp(3, 8);
    let encoder = EncoderConfig::default();
    let (left, right) = stereo_scene(resolution, 0.3, frames, CameraMotion::Static);
    let total_frames = left.len() + right.len();

    // Write throughput.
    let started = Instant::now();
    let mut timings = vss_core::JointTimings::default();
    let outcome = joint_compress_sequences(
        &left,
        &right,
        MergeFunction::Mean,
        &scaled_joint_config(),
        &encoder,
        None,
        &mut timings,
    )
    .expect("joint compression");
    let joint_write = started.elapsed();
    let JointOutcome::Compressed(artifact) = outcome else {
        report.push(Row::new("joint compression aborted on this scene"));
        return report;
    };
    let started = Instant::now();
    let left_gops = encode_to_gops(&left, Codec::H264, &encoder).expect("encode");
    let right_gops = encode_to_gops(&right, Codec::H264, &encoder).expect("encode");
    let separate_write = started.elapsed();
    report.push(
        Row::new("write_raw_to_h264")
            .with("joint_fps", fps(total_frames, joint_write))
            .with("separate_fps", fps(total_frames, separate_write)),
    );

    // Read throughput: decode both views and optionally convert.
    let read_cases: [(&str, Option<Codec>); 3] =
        [("read_h264_to_raw", None), ("read_h264_to_h264", Some(Codec::H264)), ("read_h264_to_hevc", Some(Codec::Hevc))];
    for (label, transcode_to) in read_cases {
        // Joint: recover both views, then convert if requested.
        let started = Instant::now();
        let (recovered_left, recovered_right) = recover_sequences(&artifact).expect("recover");
        if let Some(codec) = transcode_to {
            encode_to_gops(&recovered_left, codec, &encoder).expect("encode");
            encode_to_gops(&recovered_right, codec, &encoder).expect("encode");
        }
        let joint_elapsed = started.elapsed();
        // Separate: decode both encoded views, then convert if requested.
        let started = Instant::now();
        let decode = |gops: &[vss_codec::EncodedGop]| {
            let implementation = codec_instance(Codec::H264);
            let mut frames = Vec::new();
            for gop in gops {
                frames.extend(implementation.decode(gop).expect("decode").into_frames());
            }
            FrameSequence::new(frames, 30.0).expect("sequence")
        };
        let separate_left = decode(&left_gops);
        let separate_right = decode(&right_gops);
        if let Some(codec) = transcode_to {
            encode_to_gops(&separate_left, codec, &encoder).expect("encode");
            encode_to_gops(&separate_right, codec, &encoder).expect("encode");
        }
        let separate_elapsed = started.elapsed();
        report.push(
            Row::new(label)
                .with("joint_fps", fps(total_frames, joint_elapsed))
                .with("separate_fps", fps(total_frames, separate_elapsed)),
        );
    }
    report
}

// ---------------------------------------------------------------------------
// Figure 19 — joint compression overhead decomposition
// ---------------------------------------------------------------------------

fn fig19(scale: &ScaleConfig) -> Report {
    let mut report = Report::new(
        "fig19",
        "Joint compression overhead per fragment, decomposed into feature detection, homography \
         estimation and compression — by resolution and by camera dynamicism",
    );
    let encoder = EncoderConfig::default();
    let frames = (scale.max_frames / 10).clamp(3, 6);
    // (a) by resolution (larger resolutions use smaller divisors).
    let base = scale.resolution_divisor.max(2);
    for (label, divisor) in [("1k", base * 2), ("2k", base), ("4k", (base / 2).max(1))] {
        let resolution = DatasetSpec::by_name("visualroad-1k-30")
            .expect("preset")
            .scaled_resolution(divisor.max(1));
        let (left, right) = stereo_scene(resolution, 0.3, frames, CameraMotion::Static);
        let mut timings = vss_core::JointTimings::default();
        let _ = joint_compress_sequences(
            &left,
            &right,
            MergeFunction::Mean,
            &scaled_joint_config(),
            &encoder,
            None,
            &mut timings,
        );
        report.push(
            Row::new(format!("resolution-{label} ({resolution})"))
                .with("feature_detection_s", timings.feature_detection)
                .with("homography_s", timings.homography_estimation)
                .with("compression_s", timings.compression),
        );
    }
    // (b) by dynamicism.
    let resolution = DatasetSpec::by_name("visualroad-1k-30")
        .expect("preset")
        .scaled_resolution(scale.resolution_divisor);
    for (label, motion, reestimate) in [
        ("static", CameraMotion::Static, None),
        ("slow", CameraMotion::Panning { pixels_per_frame: 0.5 }, Some(15usize)),
        ("fast", CameraMotion::Panning { pixels_per_frame: 1.5 }, Some(5usize)),
    ] {
        let (left, right) = stereo_scene(resolution, 0.3, frames.max(6), motion);
        let mut timings = vss_core::JointTimings::default();
        let _ = joint_compress_sequences(
            &left,
            &right,
            MergeFunction::Mean,
            &scaled_joint_config(),
            &encoder,
            reestimate,
            &mut timings,
        );
        report.push(
            Row::new(format!("camera-{label}"))
                .with("feature_detection_s", timings.feature_detection)
                .with("homography_s", timings.homography_estimation)
                .with("compression_s", timings.compression),
        );
    }
    report
}

// ---------------------------------------------------------------------------
// Figure 20 — reads over deferred-compressed fragments by level
// ---------------------------------------------------------------------------

fn fig20(scale: &ScaleConfig) -> Report {
    let mut report = Report::new(
        "fig20",
        "Throughput (frames/s) of reading raw fragments stored under deferred (lossless) \
         compression at various levels, compared with decoding an HEVC-compressed fragment",
    );
    let spec = DatasetSpec::by_name("visualroad-1k-30").expect("preset");
    let dataset = spec.generate(scale.resolution_divisor, (scale.max_frames / 3).max(9));
    let frames = dataset.primary();
    let encoder = EncoderConfig::default();
    let raw_gops = encode_to_gops(frames, Codec::Raw(PixelFormat::Yuv420), &encoder).expect("raw encode");

    // HEVC decode reference (constant across levels).
    let hevc_gops = encode_to_gops(frames, Codec::Hevc, &encoder).expect("hevc encode");
    let started = Instant::now();
    for gop in &hevc_gops {
        codec_instance(Codec::Hevc).decode(gop).expect("decode");
    }
    let hevc_fps = fps(frames.len(), started.elapsed());

    for level in [1u8, 5, 10, 15, 19] {
        let compressed: Vec<Vec<u8>> = raw_gops.iter().map(|g| lossless::compress(g.as_bytes(), level)).collect();
        let stored: usize = compressed.iter().map(Vec::len).sum();
        let started = Instant::now();
        for page in compressed {
            vss_codec::read_page(page).expect("read page");
        }
        let vss_fps = fps(frames.len(), started.elapsed());
        report.push(
            Row::new(format!("level {level}"))
                .with("vss_fps", vss_fps)
                .with("hevc_codec_fps", hevc_fps)
                .with("stored_kb", stored as f64 / 1024.0),
        );
    }
    report
}

// ---------------------------------------------------------------------------
// Figure 21 — end-to-end application
// ---------------------------------------------------------------------------

fn fig21(scale: &ScaleConfig) -> Report {
    let mut report = Report::new(
        "fig21",
        "End-to-end traffic-monitoring application (indexing / search / streaming) wall time per \
         phase for 1, 2 and 4 concurrent clients: VSS vs. OpenCV-style decoding from the local \
         file system",
    );
    let spec = DatasetSpec::by_name("visualroad-2k-30").expect("preset");
    let dataset = spec.generate(scale.resolution_divisor * 2, scale.max_frames);
    let frames = dataset.primary();
    let resolution = spec.scaled_resolution(scale.resolution_divisor * 2);
    let index_resolution = Resolution::new((resolution.width / 2).max(32) & !1, (resolution.height / 2).max(32) & !1);
    let config = AppConfig {
        video: "traffic".into(),
        duration: frames.duration_seconds(),
        source_resolution: resolution,
        source_codec: Codec::H264,
        index_resolution,
        detect_every: 10,
        target_color: (200, 40, 40),
        color_threshold: 60.0,
        clip_length: 1.0,
    };
    for clients in [1usize, 2, 4] {
        // VSS, served by the sharded server: each client runs on its own
        // session (no driver-side lock).
        let vss_root = scratch_dir(&format!("fig21-vss-{clients}"));
        let server = VssServer::open_sharded(VssConfig::new(&vss_root), 4).expect("server");
        server
            .session()
            .write(&WriteRequest::new(&config.video, Codec::H264), frames)
            .expect("write");
        let shared = server_store(server);
        let vss_results = run_clients(&shared, &config, clients).expect("vss app");
        cleanup(&vss_root);
        // Local FS ("OpenCV" variant).
        let fs_root = scratch_dir(&format!("fig21-fs-{clients}"));
        let mut local = LocalFs::new(&fs_root).expect("local fs");
        local.write(&WriteRequest::new(&config.video, Codec::H264), frames).expect("write");
        let shared = shared_store(Box::new(local));
        let fs_results = run_clients(&shared, &config, clients).expect("fs app");
        cleanup(&fs_root);

        let max_phase = |results: &[vss_workload::PhaseTimings], f: fn(&vss_workload::PhaseTimings) -> f64| {
            results.iter().map(f).fold(0.0, f64::max)
        };
        report.push(
            Row::new(format!("{clients} client(s)"))
                .with("vss_indexing_s", max_phase(&vss_results, |t| t.indexing.as_secs_f64()))
                .with("vss_search_s", max_phase(&vss_results, |t| t.search.as_secs_f64()))
                .with("vss_streaming_s", max_phase(&vss_results, |t| t.streaming.as_secs_f64()))
                .with("fs_indexing_s", max_phase(&fs_results, |t| t.indexing.as_secs_f64()))
                .with("fs_search_s", max_phase(&fs_results, |t| t.search.as_secs_f64()))
                .with("fs_streaming_s", max_phase(&fs_results, |t| t.streaming.as_secs_f64())),
        );
    }
    report
}

// ---------------------------------------------------------------------------
// Table 2 — joint compression recovered quality
// ---------------------------------------------------------------------------

fn table2(scale: &ScaleConfig) -> Report {
    let mut report = Report::new(
        "table2",
        "Joint compression recovered quality (PSNR of the recovered left/right views) and the \
         fraction of GOP pairs admitted, for the unprojected and mean merge functions",
    );
    let encoder = EncoderConfig::default();
    let gop_frames = 3usize;
    let attempts = (scale.iterations / 5).clamp(2, 5);
    for spec in DatasetSpec::all() {
        if spec.cameras < 2 {
            continue;
        }
        let resolution = spec.scaled_resolution(scale.resolution_divisor * 2);
        let mut row = Row::new(spec.name);
        for (label, merge) in [("unprojected", MergeFunction::Unprojected), ("mean", MergeFunction::Mean)] {
            let mut admitted = 0usize;
            let mut left_psnr_sum = 0.0;
            let mut right_psnr_sum = 0.0;
            for attempt in 0..attempts {
                let renderer = SceneRenderer::new(SceneConfig {
                    resolution,
                    format: PixelFormat::Rgb8,
                    frame_rate: spec.frame_rate,
                    overlap: spec.overlap,
                    vehicles: 8,
                    motion: spec.motion,
                    noise_amplitude: 1,
                    seed: 500 + attempt as u64,
                });
                let left = renderer.render_sequence(0, gop_frames);
                let right = renderer.render_sequence(1, gop_frames);
                let mut timings = vss_core::JointTimings::default();
                let outcome = joint_compress_sequences(
                    &left,
                    &right,
                    merge,
                    &scaled_joint_config(),
                    &encoder,
                    None,
                    &mut timings,
                )
                .expect("joint compression");
                if let JointOutcome::Compressed(artifact) = outcome {
                    let (recovered_left, recovered_right) = recover_sequences(&artifact).expect("recover");
                    left_psnr_sum +=
                        quality::sequence_psnr(left.frames(), recovered_left.frames()).expect("psnr").db();
                    right_psnr_sum +=
                        quality::sequence_psnr(right.frames(), recovered_right.frames()).expect("psnr").db();
                    admitted += 1;
                }
            }
            if admitted > 0 {
                row = row
                    .with(format!("{label}_left_db"), left_psnr_sum / admitted as f64)
                    .with(format!("{label}_right_db"), right_psnr_sum / admitted as f64);
            }
            row = row.with(format!("{label}_admitted_pct"), admitted as f64 / attempts as f64 * 100.0);
        }
        report.push(row);
    }
    report
}
