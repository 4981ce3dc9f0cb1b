//! Subprocess crash-recovery harness (PR 6 acceptance test).
//!
//! The parent re-execs this binary as a **child ingest process** that pushes
//! deterministic frames through a [`WriteSink`], recording an ack file
//! (outside the store root — recovery sweeps unknown files *inside* it) after
//! every fully persisted GOP. The parent then `kill -9`s the child at a
//! randomized point mid-ingest, reopens the store, and verifies the
//! durability contract:
//!
//! * `Engine::open` always succeeds — recovery never needs manual repair;
//! * every **acked** GOP survives byte-identically (its `.gop` file equals
//!   the one a clean reference run produces, and reads return the same
//!   frames);
//! * no orphan `.tmp` or unreferenced files remain after recovery, and a
//!   second open finds nothing left to repair;
//! * a fault-injected child (`VSS_FAULT_INJECT` rate mode) dies with a
//!   **typed error exit, never a panic**, and the store it leaves behind
//!   recovers just the same.
//!
//! A second child kind loops cache-admitting reads of mixed formats under a
//! tight budget, with maintenance (deferred compression, compaction) every
//! few reads, and is killed mid-admission or mid-compaction. Views are
//! derived data, so the contract there is: every GOP of the original is
//! byte-identical and the whole video still reads back; every surviving view
//! GOP passes its checksum and reads served from it equal the same read on a
//! fresh store; no orphan or `.tmp` file is left; a second open repairs
//! nothing. A view child whose batch `fsync` fails must exit with a typed
//! error.
//!
//! `harness = false`: this file is its own `main`, so the child branch can
//! run the ingest loop without dragging the libtest harness along.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;
use vss_catalog::{durable, wal, Catalog};
use vss_codec::Codec;
use vss_core::{Engine, ReadRequest, StorageBudget, Vss, VssConfig, WriteRequest};
use vss_frame::{pattern, Frame, FrameSequence, PixelFormat, PsnrDb, Resolution};

/// Which child to run: `ingest` or `views`.
const CHILD_ENV: &str = "VSS_CRASH_RECOVERY_CHILD";
const ROOT_ENV: &str = "VSS_CRASH_RECOVERY_ROOT";
const ACK_ENV: &str = "VSS_CRASH_RECOVERY_ACK";

const GOP: usize = 5;
const FRAME_RATE: f64 = 30.0;
/// Frames the child tries to ingest: far more than any kill window allows,
/// so the crash always lands mid-ingest on realistic hardware, while a
/// reference run of the same length stays cheap.
const TOTAL_FRAMES: usize = 2000;
const KILL_ITERATIONS: u64 = 6;
const FAULT_ITERATIONS: u64 = 2;
/// Seconds of original video the view children read from. The template's
/// warm-up reads the first half; a child's reads walk on into seconds with
/// no views yet, so its kills land among admissions.
const VIEW_SECONDS: usize = 40;
/// Every this-many-th op of a view child is maintenance; the rest are reads.
const VIEW_MAINTENANCE_EVERY: usize = 3;
/// Ops a view child makes before it exits on its own.
const VIEW_OPS: usize = 5000;
/// Ops run on the view template before any child starts.
const VIEW_WARM_UP: usize = 60;
/// The threshold of a view child's half-size reads. A view is admitted only
/// if its resampling bound alone clears the threshold of the read that made
/// it, and these views rate 26–29 dB.
const VIEW_QUALITY: PsnrDb = PsnrDb(20.0);

fn config(root: &Path) -> VssConfig {
    // Deferred compression is disabled so a GOP file's bytes are fixed at
    // append time (never rewritten later) — that is what makes the acked
    // prefix of a crashed store byte-comparable against a clean run.
    VssConfig::new(root).with_gop_size(GOP).without_deferred_compression()
}

fn frame(i: usize) -> Frame {
    pattern::gradient(64, 48, PixelFormat::Yuv420, i as u64)
}

/// The view stores: deferred compression stays on, so raw views get
/// rewritten compressed while the child runs.
fn view_config(root: &Path) -> VssConfig {
    VssConfig::new(root).with_gop_size(GOP)
}

/// The `i`-th read of a view child. Each group of ops reads one second of
/// the original twice, then runs maintenance; the groups walk through the
/// seconds in order. The first read asks for full-resolution raw YUV: those
/// views hold the decoded original exactly, so they rate as lossless and
/// stand in for its pages. The second asks for half size at `VIEW_QUALITY`,
/// in the one codec of its block of five seconds, so every half-size view
/// is made from the original or from an exact copy of it, never from
/// another half-size view.
fn view_read(i: usize) -> ReadRequest {
    let second = (i / VIEW_MAINTENANCE_EVERY) % VIEW_SECONDS;
    let request = |codec| ReadRequest::new("cam", second as f64, second as f64 + 1.0, codec);
    if i.is_multiple_of(VIEW_MAINTENANCE_EVERY) {
        return request(Codec::Raw(PixelFormat::Yuv420));
    }
    let codec = if (second / 5).is_multiple_of(2) { Codec::Hevc } else { Codec::H264 };
    request(codec).resolution(Resolution::new(32, 24)).quality_threshold(VIEW_QUALITY)
}

/// Writes the original every view child reads from, under a budget tight
/// enough that admissions evict (originals' pages included, once a
/// full-resolution raw view covers them).
fn prepare_view_store(root: &Path) {
    let mut engine = Engine::open(view_config(root)).expect("open view store");
    engine.create_video("cam", Some(StorageBudget::MultipleOfOriginal(1.2))).expect("create");
    let frames: Vec<Frame> = (0..VIEW_SECONDS * 30).map(frame).collect();
    let frames = FrameSequence::new(frames, FRAME_RATE).expect("frames");
    engine.write(&WriteRequest::new("cam", Codec::H264), &frames).expect("write original");
}

/// The `i`-th op of a view child: a cache-admitting read, or maintenance.
fn view_op(engine: &mut Engine, i: usize) -> Result<(), vss_core::VssError> {
    if i % VIEW_MAINTENANCE_EVERY == VIEW_MAINTENANCE_EVERY - 1 {
        engine.background_maintenance().map(drop)
    } else {
        engine.read(&view_read(i)).map(drop)
    }
}

/// The view child: loop view ops until killed. Exit codes as for the
/// ingest child.
fn view_child_main(root: &Path) -> ! {
    let mut engine = match Engine::open(view_config(root)) {
        Ok(engine) => engine,
        Err(error) => {
            eprintln!("child: open failed with typed error: {error:?}");
            std::process::exit(3);
        }
    };
    // Pick up where the template's warm-up stopped.
    for i in VIEW_WARM_UP..VIEW_WARM_UP + VIEW_OPS {
        if let Err(error) = view_op(&mut engine, i) {
            eprintln!("child: op {i} failed with typed error: {error:?}");
            std::process::exit(3);
        }
    }
    std::process::exit(0);
}

/// The re-execed child: open the store, ingest deterministic frames through
/// a `WriteSink`, and ack every persisted GOP by atomically rewriting the
/// ack file. Exit codes: 0 = ingested everything, 2 = unexpected setup
/// failure, 3 = typed `VssError` surfaced mid-ingest (the fault-injection
/// pass asserts this is how injected faults die — never a panic).
fn child_main() -> ! {
    let root = PathBuf::from(std::env::var_os(ROOT_ENV).expect("child needs store root"));
    if std::env::var(CHILD_ENV).as_deref() == Ok("views") {
        view_child_main(&root);
    }
    let ack = PathBuf::from(std::env::var_os(ACK_ENV).expect("child needs ack path"));
    let vss = match Vss::open(config(&root)) {
        Ok(vss) => vss,
        Err(error) => {
            eprintln!("child: open failed with typed error: {error:?}");
            std::process::exit(3);
        }
    };
    let mut sink = match vss.write_sink(&WriteRequest::new("cam", Codec::H264), FRAME_RATE) {
        Ok(sink) => sink,
        Err(error) => {
            eprintln!("child: write_sink failed with typed error: {error:?}");
            std::process::exit(3);
        }
    };
    for i in 0..TOTAL_FRAMES {
        if let Err(error) = sink.push_frame(frame(i)) {
            eprintln!("child: push failed with typed error: {error:?}");
            std::process::exit(3);
        }
        if (i + 1) % GOP == 0 {
            // The push above persisted GOP (i+1)/GOP synchronously, so this
            // ack is only ever written for durable data.
            let acked = ((i + 1) / GOP) as u64;
            if let Err(error) = durable::write_atomic(&ack, acked.to_string().as_bytes()) {
                eprintln!("child: ack write failed: {error:?}");
                std::process::exit(2);
            }
        }
    }
    match sink.finish() {
        Ok(_) => std::process::exit(0),
        Err(error) => {
            eprintln!("child: finish failed with typed error: {error:?}");
            std::process::exit(3);
        }
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vss-crash-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Deterministic xorshift64* stream for kill-point randomization.
fn next_rand(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    state.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Maps every `{index}.gop` file under `root` to its bytes, keyed by
/// `(physical directory name, GOP index)` so two stores of the same workload
/// compare structurally.
fn gop_files(root: &Path) -> BTreeMap<(String, u64), Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "gop") {
                let parent = path
                    .parent()
                    .and_then(|p| p.file_name())
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let index: u64 = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .and_then(|s| s.parse().ok())
                    .expect("gop file stem is its index");
                files.insert((parent, index), std::fs::read(&path).expect("read gop file"));
            }
        }
    }
    files
}

fn tmp_files(root: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "tmp") {
                found.push(path);
            }
        }
    }
    found
}

/// Spawns the `kind` child against `root`/`ack` with extra env vars.
fn spawn_child(
    kind: &str,
    root: &Path,
    ack: &Path,
    extra_env: &[(&str, String)],
) -> std::process::Child {
    let exe = std::env::current_exe().expect("current exe");
    let mut command = Command::new(exe);
    command
        .env(CHILD_ENV, kind)
        .env(ROOT_ENV, root)
        .env(ACK_ENV, ack)
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    for (key, value) in extra_env {
        command.env(key, value);
    }
    command.spawn().expect("spawn crash child")
}

fn read_ack(ack: &Path) -> u64 {
    std::fs::read_to_string(ack).ok().and_then(|s| s.trim().parse().ok()).unwrap_or(0)
}

/// Verifies a (possibly crashed) store against the clean reference run:
/// recovery succeeds, all `acked` GOPs are byte-identical and readable, no
/// temp/orphan files survive, and a second open has nothing left to repair.
fn verify_store(
    tag: &str,
    root: &Path,
    acked: u64,
    reference_root: &Path,
    reference: &Vss,
) {
    let mut engine = Engine::open(config(root))
        .unwrap_or_else(|error| panic!("[{tag}] recovery open failed: {error:?}"));
    let report = engine.recovery_report().clone();

    // Acked GOPs survive byte-identically on disk...
    let actual_files = gop_files(root);
    let reference_files = gop_files(reference_root);
    for index in 0..acked {
        let actual: Vec<&Vec<u8>> =
            actual_files.iter().filter(|((_, i), _)| *i == index).map(|(_, b)| b).collect();
        let expected: Vec<&Vec<u8>> =
            reference_files.iter().filter(|((_, i), _)| *i == index).map(|(_, b)| b).collect();
        assert_eq!(
            actual.len(),
            1,
            "[{tag}] acked GOP {index} must survive as exactly one file ({report:?})"
        );
        assert_eq!(
            actual[0], expected[0],
            "[{tag}] acked GOP {index} must be byte-identical to the clean run"
        );
    }

    // ...and through the read path.
    if acked > 0 {
        let end = (acked as usize * GOP) as f64 / FRAME_RATE;
        let request =
            ReadRequest::new("cam", 0.0, end, Codec::Raw(PixelFormat::Yuv420)).uncacheable();
        let recovered = engine
            .read(&request)
            .unwrap_or_else(|error| panic!("[{tag}] reading acked range failed: {error:?}"));
        let expected = reference
            .read(&request)
            .unwrap_or_else(|error| panic!("[{tag}] reference read failed: {error:?}"));
        assert_eq!(
            recovered.frames.frames(),
            expected.frames.frames(),
            "[{tag}] acked frames must match the clean run"
        );
    }

    // Recovery leaves no temp files or unreconciled debris, and a second
    // open (after the post-repair checkpoint) finds a clean store.
    assert!(tmp_files(root).is_empty(), "[{tag}] recovery must sweep .tmp files");
    drop(engine);
    let second = Engine::open(config(root))
        .unwrap_or_else(|error| panic!("[{tag}] second open failed: {error:?}"));
    assert!(
        !second.recovery_report().repaired_anything(),
        "[{tag}] repairs must be checkpointed on the first open: {:?}",
        second.recovery_report()
    );
}

/// Verifies a view store a child was killed in (or failed out of) against
/// the original's GOP files as written (`original`) and a fresh store
/// holding only the original (`fresh`).
fn verify_view_store(
    tag: &str,
    root: &Path,
    original: &BTreeMap<(String, u64), Vec<u8>>,
    fresh: &mut Engine,
) {
    let mut engine = Engine::open(view_config(root))
        .unwrap_or_else(|error| panic!("[{tag}] recovery open failed: {error:?}"));
    let report = engine.recovery_report().clone();
    assert!(tmp_files(root).is_empty(), "[{tag}] recovery must sweep .tmp files");

    // Every surviving GOP of the original is byte-identical; evicted pages
    // of it went behind a full-quality view, so every second still reads
    // back exactly as from a fresh store.
    let files = gop_files(root);
    let original_dir = original.keys().next().expect("original has GOPs").0.clone();
    for (key, bytes) in files.iter().filter(|((dir, _), _)| *dir == original_dir) {
        assert_eq!(Some(bytes), original.get(key), "[{tag}] original GOP {key:?} changed");
    }
    for second in 0..VIEW_SECONDS {
        let (start, end) = (second as f64, second as f64 + 1.0);
        let request =
            ReadRequest::new("cam", start, end, Codec::Raw(PixelFormat::Yuv420)).uncacheable();
        let recovered = engine
            .read(&request)
            .unwrap_or_else(|error| panic!("[{tag}] second {second} unreadable: {error:?}"));
        let expected = fresh.read(&request).expect("fresh read");
        assert!(recovered.frames == expected.frames, "[{tag}] second {second} differs");
    }
    drop(engine);

    // Every surviving view GOP passes its checksum (or is durable), no file
    // is unreferenced, and each reads back as a fresh store computes it.
    let catalog = Catalog::open(root).expect("reopen catalog");
    assert!(
        !catalog.recovery_report().repaired_anything(),
        "[{tag}] repairs must be checkpointed on the first open: {:?} (first open: {report:?})",
        catalog.recovery_report()
    );
    let video = catalog.video("cam").expect("video survives");
    let referenced: usize = video.physical.iter().map(|p| p.gops.len()).sum();
    assert_eq!(referenced, files.len(), "[{tag}] every GOP file on disk is referenced");
    let original_gops = video.original().expect("original survives").gops.len();
    let hardened = video.physical.iter().filter(|p| !p.is_original);
    let hardened = hardened.flat_map(|p| &p.gops).filter(|g| g.crc.is_none()).count();
    let mut requests = Vec::new();
    for view in video.physical.iter().filter(|p| !p.is_original) {
        let codec = view.codec().expect("known codec");
        for gop in &view.gops {
            let bytes = std::fs::read(catalog.gop_path("cam", view, gop.index)).expect("view GOP");
            if let Some(crc) = gop.crc {
                assert_eq!(wal::crc32(&bytes), crc, "[{tag}] view GOP fails its checksum");
            }
            requests.push(
                ReadRequest::new("cam", gop.start_time, gop.end_time, codec)
                    .resolution(view.resolution())
                    .quality_threshold(PsnrDb(0.0))
                    .uncacheable(),
            );
        }
    }
    drop(catalog);
    let mut engine = Engine::open(view_config(root)).expect("reopen engine");
    for request in &requests {
        let recovered = engine.read(request).expect("read served from a view");
        let expected = fresh.read(request).expect("fresh read");
        let encoded = |gops: &Option<Vec<vss_codec::EncodedGop>>| {
            gops.as_ref().map(|gops| gops.iter().map(|g| g.to_bytes()).collect::<Vec<_>>())
        };
        match expected.encoded {
            Some(_) => assert!(
                encoded(&recovered.encoded) == encoded(&expected.encoded),
                "[{tag}] {request:?} differs from a fresh store"
            ),
            None => assert!(
                recovered.frames == expected.frames,
                "[{tag}] {request:?} differs from a fresh store"
            ),
        }
    }
    println!(
        "crash_recovery: [{tag}] original keeps {original_gops} of {} GOPs; {} view GOP(s) \
         verified, {hardened} of them hardened; recovery {report:?}",
        original.len(),
        requests.len()
    );
}

/// Scenarios C and D: view children killed mid-admission or mid-compaction,
/// and one whose batch `fsync` fails.
fn view_scenarios(rng: &mut u64) {
    let fresh_root = scratch("views-fresh");
    prepare_view_store(&fresh_root);
    let mut fresh = Engine::open(view_config(&fresh_root)).expect("open fresh store");
    // Every child starts from a store whose original already lost pages
    // behind hardened views, so each kill lands among them.
    let template = scratch("views-template");
    prepare_view_store(&template);
    let original = gop_files(&template);
    let mut warm = Engine::open(view_config(&template)).expect("open view template");
    (0..VIEW_WARM_UP).try_for_each(|i| view_op(&mut warm, i)).expect("warm up the template");
    drop(warm);
    let copy_template = |root: &Path| {
        let status = Command::new("cp").arg("-a").arg(&template).arg(root).status();
        assert!(status.expect("cp").success(), "copy the view template");
    };

    for iteration in 0..KILL_ITERATIONS {
        let tag = format!("view-kill-{iteration}");
        let dir = scratch(&tag);
        let root = dir.join("store");
        copy_template(&root);
        let mut child = spawn_child("views", &root, &dir.join("unused"), &[]);
        let delay = 20 + next_rand(rng) % 400;
        std::thread::sleep(Duration::from_millis(delay));
        child.kill().expect("kill -9 child");
        let output = child.wait_with_output().expect("reap child");
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        assert!(!stderr.contains("panicked"), "[{tag}] child panicked:\n{stderr}");
        println!("crash_recovery: [{tag}] killed after {delay}ms");
        verify_view_store(&tag, &root, &original, &mut fresh);
        let _ = std::fs::remove_dir_all(dir);
    }

    // The third journal fsync is a batch commit (an admission or a merge);
    // it fails, and the child must die of the typed error it returns.
    let tag = "view-fsync-fault";
    let dir = scratch(tag);
    let root = dir.join("store");
    copy_template(&root);
    let spec = format!("sync-fail-nth=3,prefix={}", root.join(wal::WAL_FILE).display());
    let child = spawn_child("views", &root, &dir.join("unused"), &[("VSS_FAULT_INJECT", spec)]);
    let output = child.wait_with_output().expect("wait fault child");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "[{tag}] child panicked:\n{stderr}");
    assert_eq!(output.status.code(), Some(3), "[{tag}] typed error exit expected:\n{stderr}");
    assert!(stderr.contains("injected fault: sync failed"), "[{tag}] {stderr}");
    println!("crash_recovery: [{tag}] child exited with a typed error");
    verify_view_store(tag, &root, &original, &mut fresh);
    let _ = std::fs::remove_dir_all(dir);

    drop(fresh);
    let _ = std::fs::remove_dir_all(fresh_root);
    let _ = std::fs::remove_dir_all(template);
}

fn main() {
    if std::env::var_os(CHILD_ENV).is_some() {
        child_main();
    }

    // Clean reference run: the same deterministic workload, uninterrupted.
    // Acked GOP files of every crashed run are compared against it.
    let reference_root = scratch("reference");
    let reference = Vss::open(config(&reference_root)).expect("open reference store");
    {
        let mut sink = reference
            .write_sink(&WriteRequest::new("cam", Codec::H264), FRAME_RATE)
            .expect("reference sink");
        for i in 0..TOTAL_FRAMES {
            sink.push_frame(frame(i)).expect("reference push");
        }
        sink.finish().expect("reference finish");
    }
    println!("crash_recovery: reference store ready ({TOTAL_FRAMES} frames)");

    // Scenario A: kill -9 mid-ingest at randomized points.
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    for iteration in 0..KILL_ITERATIONS {
        let tag = format!("kill-{iteration}");
        let dir = scratch(&tag);
        let root = dir.join("store");
        let ack = dir.join("acked"); // outside the store root by design
        let mut child = spawn_child("ingest", &root, &ack, &[]);
        let delay = 5 + next_rand(&mut rng) % 196;
        std::thread::sleep(Duration::from_millis(delay));
        child.kill().expect("kill -9 child");
        let output = child.wait_with_output().expect("reap child");
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        assert!(!stderr.contains("panicked"), "[{tag}] child panicked:\n{stderr}");
        let acked = read_ack(&ack);
        println!(
            "crash_recovery: [{tag}] killed after {delay}ms with {acked} acked GOP(s)"
        );
        verify_store(&tag, &root, acked, &reference_root, &reference);
        let _ = std::fs::remove_dir_all(dir);
    }

    // Scenario B: low-rate fault injection inside the child. Injected write
    // failures must surface as typed errors (exit 3) or let the run finish
    // (exit 0) — never a panic — and the store still recovers.
    for iteration in 0..FAULT_ITERATIONS {
        let tag = format!("fault-{iteration}");
        let dir = scratch(&tag);
        let root = dir.join("store");
        let ack = dir.join("acked");
        // Low enough that a healthy prefix of GOPs lands (and gets acked)
        // before an injected failure kills the ingest.
        let spec = format!("rate=0.005,seed={},prefix={}", 41 + iteration, root.display());
        let child = spawn_child("ingest", &root, &ack, &[("VSS_FAULT_INJECT", spec)]);
        let output = child.wait_with_output().expect("wait fault child");
        let status = output.status;
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        assert!(!stderr.contains("panicked"), "[{tag}] child panicked:\n{stderr}");
        assert!(
            matches!(status.code(), Some(0) | Some(3)),
            "[{tag}] fault-injected child must exit cleanly or with a typed error, got {status:?}:\n{stderr}"
        );
        let acked = read_ack(&ack);
        println!(
            "crash_recovery: [{tag}] child exited {:?} with {acked} acked GOP(s)",
            status.code()
        );
        verify_store(&tag, &root, acked, &reference_root, &reference);
        let _ = std::fs::remove_dir_all(dir);
    }

    let _ = std::fs::remove_dir_all(reference_root);

    view_scenarios(&mut rng);
    println!("crash_recovery: all scenarios passed");
}
