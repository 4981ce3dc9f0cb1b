//! Cross-crate integration tests: the full write → read → cache → evict →
//! deferred-compress → joint-compress lifecycle through the public API.

use vss::baseline::{LocalFs, VStoreLike};
use vss::codec::EncoderConfig;
use std::collections::BTreeMap;
use std::path::Path;
use vss::core::{
    joint_compress_sequences, recover_sequences, Engine, EvictionPolicy, JointConfig,
    JointOutcome, MergeFunction, StorageBudget,
};
use vss::frame::{pattern, quality, PsnrDb};
use vss::prelude::*;
use vss::server::VssServer;
use vss::workload::{DatasetSpec, QueryWorkload, SceneConfig, SceneRenderer};

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vss-integration-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The threshold for reads that populate the cache with resized views. A
/// view is admitted only if its resampling bound alone clears the threshold
/// of the read that made it, and a half-resolution view rates near 25 dB, so
/// at the default 40 dB such reads would admit nothing.
const VIEW_QUALITY: PsnrDb = PsnrDb(20.0);

fn traffic_video(frames: usize) -> FrameSequence {
    let renderer = SceneRenderer::new(SceneConfig {
        resolution: Resolution::new(128, 72),
        format: PixelFormat::Yuv420,
        ..Default::default()
    });
    renderer.render_sequence(0, frames)
}

#[test]
fn full_lifecycle_write_read_cache_reuse_and_restart() {
    let root = scratch("lifecycle");
    let video = traffic_video(90);
    {
        let vss = Vss::open(VssConfig::new(&root)).unwrap();
        vss.write(&WriteRequest::new("traffic", Codec::H264), &video).unwrap();

        // A raw low-resolution read (detection input) is cached...
        let detection = vss
            .read(
                &ReadRequest::new("traffic", 0.0, 2.0, Codec::Raw(PixelFormat::Rgb8))
                    .at_resolution(Resolution::new(64, 36))
                    .quality_threshold(VIEW_QUALITY),
            )
            .unwrap();
        assert!(detection.stats.cache_admitted);

        // ...and an HEVC read transcodes and caches.
        let hevc = vss.read(&ReadRequest::new("traffic", 0.0, 2.0, Codec::Hevc)).unwrap();
        assert!(hevc.stats.cache_admitted);
        let p = quality::sequence_psnr(&video.frames()[..60], hevc.frames.frames()).unwrap();
        assert!(p.db() > 30.0, "transcoded output should stay faithful, got {p}");
    }
    // Re-open the store: the catalog and cached fragments survive restart.
    let vss = Vss::open(VssConfig::new(&root)).unwrap();
    assert_eq!(vss.video_names(), vec!["traffic".to_string()]);
    let fragments = vss.with_engine(|engine| engine.materialized_fragment_count("traffic")).unwrap();
    assert!(fragments > 0, "cached fragments persist across restart");
    let again = vss.read(&ReadRequest::new("traffic", 0.5, 1.5, Codec::Hevc).uncacheable()).unwrap();
    assert_eq!(again.frames.len(), 30);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn parallel_engine_produces_bit_identical_store_and_reads() {
    // The `parallelism` knob must not change any observable output: a store
    // written and read with 4 workers is byte-identical on disk to one
    // produced with the sequential (parallelism = 1) configuration, and the
    // decoded read results match frame for frame.
    let video = traffic_video(45);
    let run = |threads: usize, tag: &str| {
        let root = scratch(tag);
        let vss =
            Vss::open(VssConfig::new(&root).with_gop_size(10).with_parallelism(threads)).unwrap();
        vss.write(&WriteRequest::new("traffic", Codec::H264), &video).unwrap();
        // A transcoding read exercises decode, normalize and re-encode.
        let read = vss.read(&ReadRequest::new("traffic", 0.0, 1.0, Codec::Hevc)).unwrap();
        // Collect every GOP file's bytes, keyed by its store-relative path.
        let mut pages: Vec<(String, Vec<u8>)> = Vec::new();
        let mut pending = vec![root.clone()];
        while let Some(dir) = pending.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    pending.push(path);
                } else if path.extension().is_some_and(|e| e == "gop") {
                    let relative =
                        path.strip_prefix(&root).unwrap().to_string_lossy().into_owned();
                    pages.push((relative, std::fs::read(&path).unwrap()));
                }
            }
        }
        pages.sort_by(|a, b| a.0.cmp(&b.0));
        let _ = std::fs::remove_dir_all(root);
        (pages, read.frames, read.encoded)
    };
    let (sequential_pages, sequential_frames, sequential_encoded) = run(1, "det-seq");
    let (parallel_pages, parallel_frames, parallel_encoded) = run(4, "det-par");
    assert_eq!(sequential_pages, parallel_pages, "on-disk GOP pages diverged");
    assert_eq!(sequential_frames, parallel_frames, "decoded read output diverged");
    let as_bytes = |gops: Option<Vec<vss::codec::EncodedGop>>| {
        gops.map(|gops| gops.iter().map(|g| g.to_bytes()).collect::<Vec<_>>())
    };
    assert_eq!(
        as_bytes(sequential_encoded),
        as_bytes(parallel_encoded),
        "re-encoded read output diverged"
    );
}

#[test]
fn budget_pressure_evicts_but_always_preserves_readability() {
    let root = scratch("eviction");
    let video = traffic_video(90);
    let vss = Vss::open(VssConfig::new(&root)).unwrap();
    vss.create("traffic", Some(StorageBudget::MultipleOfOriginal(2.0))).unwrap();
    vss.write(&WriteRequest::new("traffic", Codec::H264), &video).unwrap();
    let duration = video.duration_seconds();
    let workload =
        QueryWorkload::cache_population("traffic", duration, Resolution::new(128, 72), 7);
    // At VIEW_QUALITY forty of these reads admit only views that fit a 2×
    // budget once deferred compression has run; sixty put it under pressure.
    for request in workload.generate(60) {
        let _ = vss.read(&request.quality_threshold(VIEW_QUALITY));
    }
    let budget = vss.budget_bytes("traffic").unwrap().unwrap();
    assert!(
        vss.bytes_used("traffic").unwrap() <= budget,
        "eviction keeps the store within its budget"
    );
    // The same reads against an unbounded twin keep every page they admit;
    // the bounded store must have evicted some of them.
    let unbounded_root = scratch("eviction-unbounded");
    let unbounded = Vss::open(VssConfig::new(&unbounded_root)).unwrap();
    unbounded.create("traffic", Some(StorageBudget::Unlimited)).unwrap();
    unbounded.write(&WriteRequest::new("traffic", Codec::H264), &video).unwrap();
    for request in workload.generate(60) {
        let _ = unbounded.read(&request.quality_threshold(VIEW_QUALITY));
    }
    let fragments = |store: &Vss| {
        store.with_engine(|engine| engine.materialized_fragment_count("traffic").unwrap())
    };
    let (kept, admitted) = (fragments(&vss), fragments(&unbounded));
    assert!(kept < admitted, "a 2× budget evicted nothing: {kept} of {admitted} fragments kept");
    let _ = std::fs::remove_dir_all(unbounded_root);
    // Whatever was evicted, the full video can still be read at full quality.
    let full = vss.read(&ReadRequest::new("traffic", 0.0, duration, Codec::H264).uncacheable()).unwrap();
    assert_eq!(full.frames.len(), video.len());
    let p = quality::sequence_psnr(video.frames(), full.frames.frames()).unwrap();
    assert!(p.db() > 30.0, "original quality is always reproducible, got {p}");
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn lru_vss_keeps_more_useful_fragments_than_plain_lru() {
    let video = traffic_video(90);
    let duration = video.duration_seconds();
    let run = |policy: EvictionPolicy, tag: &str| {
        let root = scratch(tag);
        let vss = Vss::open(VssConfig::new(&root)).unwrap();
        vss.create("traffic", Some(StorageBudget::MultipleOfOriginal(2.5))).unwrap();
        vss.write(&WriteRequest::new("traffic", Codec::H264), &video).unwrap();
        vss.with_engine(|engine| engine.config.eviction_policy = policy);
        let workload =
            QueryWorkload::cache_population("traffic", duration, Resolution::new(128, 72), 5);
        for request in workload.generate(15) {
            let _ = vss.read(&request);
        }
        // Count how fragmented the surviving cached entries are.
        let runs = vss.with_engine(|engine| engine.fragment_run_count("traffic").unwrap());
        let _ = std::fs::remove_dir_all(root);
        runs
    };
    let vss_runs = run(EvictionPolicy::default(), "lruvss");
    let lru_runs = run(EvictionPolicy::Lru, "plainlru");
    // LRU_VSS's position term avoids shattering physical videos into more
    // contiguous runs than plain LRU does.
    assert!(
        vss_runs <= lru_runs,
        "LRU_VSS should leave the cache no more fragmented than LRU ({vss_runs} vs {lru_runs})"
    );
}

#[test]
fn joint_compression_end_to_end_on_table1_style_pair() {
    let spec = DatasetSpec::by_name("visualroad-1k-50").unwrap();
    let dataset = spec.generate(8, 4);
    let left = dataset.primary().clone();
    let right = dataset.secondary().unwrap().clone();
    let config = JointConfig { min_correspondences: 6, recovery_threshold: PsnrDb(22.0) };
    let mut timings = vss::core::JointTimings::default();
    let outcome = joint_compress_sequences(
        &left,
        &right,
        MergeFunction::Mean,
        &config,
        &EncoderConfig::default(),
        None,
        &mut timings,
    )
    .unwrap();
    let JointOutcome::Compressed(artifact) = outcome else {
        panic!("expected joint compression to succeed, got {outcome:?}");
    };
    let (recovered_left, recovered_right) = recover_sequences(&artifact).unwrap();
    assert_eq!(recovered_left.len(), left.len());
    assert!(quality::sequence_psnr(left.frames(), recovered_left.frames()).unwrap().db() > 24.0);
    assert!(quality::sequence_psnr(right.frames(), recovered_right.frames()).unwrap().db() > 20.0);
}

#[test]
fn baselines_and_vss_agree_on_content() {
    // Every store is driven through the one `VideoStorage` trait.
    let video = traffic_video(60);
    let duration = video.duration_seconds();
    let write = WriteRequest::new("v", Codec::H264);
    let read = ReadRequest::new("v", 0.0, duration, Codec::H264);

    let vss_root = scratch("agree-vss");
    let mut vss_store = Vss::open(VssConfig::new(&vss_root)).unwrap();
    let store: &mut dyn VideoStorage = &mut vss_store;
    store.write(&write, &video).unwrap();
    let vss_frames = store.read(&read).unwrap().frames;

    let fs_root = scratch("agree-fs");
    let mut fs_store = LocalFs::new(&fs_root).unwrap();
    fs_store.write(&write, &video).unwrap();
    let fs_frames = fs_store.read(&read).unwrap().frames;

    let vstore_root = scratch("agree-vstore");
    let mut vstore = VStoreLike::new(&vstore_root, vec![Codec::H264]).unwrap();
    vstore.write(&write, &video).unwrap();
    let vstore_frames = vstore.read(&read).unwrap().frames;

    assert_eq!(vss_frames.len(), video.len());
    assert_eq!(fs_frames.len(), video.len());
    assert_eq!(vstore_frames.len(), video.len());
    // All three stores decode to (near) identical content.
    let a = quality::sequence_psnr(fs_frames.frames(), vss_frames.frames()).unwrap();
    let b = quality::sequence_psnr(fs_frames.frames(), vstore_frames.frames()).unwrap();
    assert!(a.db() > 35.0, "vss vs local-fs differ: {a}");
    assert!(b.db() > 35.0, "vstore vs local-fs differ: {b}");
    for root in [vss_root, fs_root, vstore_root] {
        let _ = std::fs::remove_dir_all(root);
    }
}

#[test]
fn streaming_ingest_supports_concurrent_prefix_reads() {
    let root = scratch("streaming");
    let vss = Vss::open(VssConfig::new(&root)).unwrap();
    let video = traffic_video(30);
    vss.write(&WriteRequest::new("live", Codec::H264), &video).unwrap();
    let writer = vss.clone();
    let appender = std::thread::spawn(move || {
        for _ in 0..3 {
            writer.append("live", &traffic_video(30)).unwrap();
        }
    });
    // Readers make progress on whatever prefix exists while writes continue.
    let mut successes = 0;
    for _ in 0..10 {
        if vss.read(&ReadRequest::new("live", 0.0, 1.0, Codec::H264).uncacheable()).is_ok() {
            successes += 1;
        }
    }
    appender.join().unwrap();
    assert!(successes > 0);
    // After the appends, four seconds of video are readable.
    let full = vss.read(&ReadRequest::new("live", 0.0, 4.0, Codec::H264).uncacheable()).unwrap();
    assert_eq!(full.frames.len(), 120);
    let _ = std::fs::remove_dir_all(root);
}

/// Full-quality views under a tight budget. The views are raw YUV at the
/// original's resolution, so they rate as lossless and may stand in for the
/// original's pages. Every second must still read back after maintenance; on
/// the parent of this test the original's first page went behind a view and
/// a read of [0, 1) fell outside the "written interval" [1, 5). The same
/// store then evicts a middle page of the original, and the view GOPs that
/// covered it must have been hardened first: synced, their checksum cleared.
#[test]
fn tight_budget_keeps_every_second_readable_and_hardens_the_cover() {
    let root = scratch("tight-budget");
    let video = traffic_video(150);
    let raw = |second: f64| {
        ReadRequest::new("v", second, second + 1.0, Codec::Raw(PixelFormat::Yuv420))
    };
    let vss = Vss::open(VssConfig::new(&root)).unwrap();
    vss.create("v", Some(StorageBudget::MultipleOfOriginal(1.2))).unwrap();
    vss.write(&WriteRequest::new("v", Codec::H264), &video).unwrap();
    let decoded: Vec<FrameSequence> =
        (0..5).map(|s| vss.read(&raw(s as f64).uncacheable()).unwrap().frames).collect();
    for second in 0..5 {
        assert!(vss.read(&raw(second as f64)).unwrap().stats.cache_admitted);
    }
    vss.run_maintenance().unwrap();
    let read_every_second = |vss: &Vss| {
        for (second, expected) in decoded.iter().enumerate() {
            let read = vss.read(&raw(second as f64).uncacheable());
            let read = read.unwrap_or_else(|e| panic!("second {second}: {e}"));
            assert!(read.frames == *expected, "second {second} reads back different frames");
        }
    };
    read_every_second(&vss);

    // Re-admit [1, 2) twice and read [2, 3): the first re-admission puts the
    // budget over and evicts the original's page [2, 3), which a merged view
    // covers.
    for second in [1.0, 1.0, 2.0] {
        vss.read(&raw(second)).unwrap();
    }
    read_every_second(&vss);
    drop(vss);
    let catalog = vss::catalog::Catalog::open(&root).unwrap();
    assert!(!catalog.recovery_report().repaired_anything(), "{:?}", catalog.recovery_report());
    let record = catalog.video("v").unwrap();
    let original = record.original().unwrap();
    let kept: Vec<u64> = original.gops.iter().map(|g| g.index).collect();
    assert_eq!(kept, [0, 1, 3, 4], "the original keeps its first and last pages");
    let views = record.physical.iter().filter(|p| !p.is_original);
    let over_gone_page = |g: &&vss::catalog::GopRecord| g.overlaps(2.0, 3.0);
    let (hardened, derived): (Vec<_>, Vec<_>) =
        views.flat_map(|p| &p.gops).partition(|g| g.crc.is_none());
    assert_eq!(hardened.len(), 10, "the cover of [2, 3) is durable");
    assert!(hardened.iter().all(over_gone_page));
    assert!(!derived.is_empty() && !derived.iter().any(over_gone_page));
    drop(catalog);
    read_every_second(&Vss::open(VssConfig::new(&root)).unwrap());
    let _ = std::fs::remove_dir_all(root);
}

/// Every file under `root` with its bytes, by relative path.
fn store_files(root: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut pending = vec![root.to_path_buf()];
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let relative = path.strip_prefix(root).unwrap().to_string_lossy().into_owned();
                files.insert(relative, std::fs::read(&path).unwrap());
            }
        }
    }
    files
}

/// Runs `read` three times; each must leave `bytes_used` at `before` (what
/// `read` returns after reading) and every file under `root` as it was.
fn assert_reads_change_nothing(handle: &str, root: &Path, before: u64, mut read: impl FnMut() -> u64) {
    let files = store_files(root);
    for attempt in 0..3 {
        assert_eq!(read(), before, "{handle}: read {attempt} changed bytes_used");
        assert!(store_files(root) == files, "{handle}: read {attempt} changed the store on disk");
    }
}

/// A read that may not admit its result changes nothing in the store —
/// neither `bytes_used` nor one byte on disk — through every handle: a bare
/// `Engine`, a `Vss` and a server `Session`. The video is raw, under a
/// budget at which its early pages stay uncompressed while the budget
/// fraction ends above the deferred-compression threshold, so a read that
/// ran a deferred-compression step would shrink a page.
#[test]
fn a_read_that_may_not_admit_never_changes_the_store() {
    let raw = Codec::Raw(PixelFormat::Yuv420);
    let frames: Vec<Frame> =
        (0..90).map(|i| pattern::gradient(64, 48, PixelFormat::Yuv420, i)).collect();
    let video = FrameSequence::new(frames, 30.0).unwrap();
    let raw_bytes: u64 = video.frames().iter().map(|frame| frame.byte_len() as u64).sum();
    let budget = Some(StorageBudget::Bytes(2 * raw_bytes));
    let write = WriteRequest::new("v", raw);
    let read = ReadRequest::new("v", 0.0, 2.0, raw).uncacheable();
    let over_threshold = |fraction: Option<f64>| {
        assert!(fraction.unwrap() > 0.25, "the budget fraction must invite deferred compression");
    };

    let root = scratch("read-rule-engine");
    let mut engine = Engine::open(VssConfig::new(&root)).unwrap();
    engine.create_video("v", budget).unwrap();
    engine.write(&write, &video).unwrap();
    over_threshold(engine.budget_fraction("v").unwrap());
    let before = engine.bytes_used("v").unwrap();
    assert_reads_change_nothing("Engine::read", &root, before, || {
        engine.read(&read).unwrap();
        engine.bytes_used("v").unwrap()
    });
    drop(engine);
    let _ = std::fs::remove_dir_all(root);

    let root = scratch("read-rule-vss");
    let vss = Vss::open(VssConfig::new(&root)).unwrap();
    vss.create("v", budget).unwrap();
    vss.write(&write, &video).unwrap();
    over_threshold(vss.budget_fraction("v").unwrap());
    assert_reads_change_nothing("Vss::read", &root, vss.bytes_used("v").unwrap(), || {
        vss.read(&read).unwrap();
        vss.bytes_used("v").unwrap()
    });
    drop(vss);
    let _ = std::fs::remove_dir_all(root);

    let root = scratch("read-rule-session");
    let server = VssServer::open_sharded(VssConfig::new(&root), 2).unwrap();
    let session = server.session();
    session.create("v", budget).unwrap();
    session.write(&write, &video).unwrap();
    over_threshold(session.budget_fraction("v").unwrap());
    assert_reads_change_nothing("Session::read", &root, session.bytes_used("v").unwrap(), || {
        session.read(&read).unwrap();
        session.bytes_used("v").unwrap()
    });
    drop((session, server));
    let _ = std::fs::remove_dir_all(root);
}
