//! Live-subscription integration tests at the session layer: tailing
//! byte-identity, late-joiner seam exactness, forced lag → catch-up →
//! re-seam, gaps over evicted pages, catch-up of deferred-compressed raw
//! pages (beside a maintenance thread too) and subscriber-drop cleanup.

use std::time::Duration;
use vss_codec::Codec;
use vss_core::{Engine, ReadRequest, StorageBudget, VssConfig, WriteRequest};
use vss_frame::{pattern, FrameSequence, PixelFormat};
use vss_server::{ServerConfig, SubEvent, SubscribeFrom, VssServer};

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!(
        "vss-live-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn sequence(frames: usize, seed: u64) -> FrameSequence {
    let frames: Vec<_> = (0..frames)
        .map(|i| pattern::gradient(64, 48, PixelFormat::Yuv420, seed + i as u64))
        .collect();
    FrameSequence::new(frames, 30.0).unwrap()
}

/// `frames` 64×48 RGB frames: a raw original's GOP is [`RAW_GOP`] bytes of
/// payload, which deferred compression shrinks.
fn raw_sequence(frames: usize, seed: u64) -> FrameSequence {
    let frames: Vec<_> = (0..frames)
        .map(|i| pattern::gradient(64, 48, PixelFormat::Rgb8, seed + i as u64))
        .collect();
    FrameSequence::new(frames, 30.0).unwrap()
}

/// Frames per page of a raw original.
const RAW_GOP_FRAMES: usize = 3;

/// Payload bytes of one page of [`raw_sequence`].
const RAW_GOP: u64 = (RAW_GOP_FRAMES * 64 * 48 * 3) as u64;

fn open(tag: &str, config: ServerConfig) -> (VssServer, std::path::PathBuf) {
    let root = temp_root(tag);
    let server = VssServer::open_configured(VssConfig::new(&root), 2, config).unwrap();
    (server, root)
}

/// Drains `n` GOP events (panicking on gaps/end), returning their sequence
/// numbers and concatenated container bytes.
fn drain_gops(sub: &mut vss_server::Subscription, n: usize) -> (Vec<u64>, Vec<u8>) {
    let mut seqs = Vec::new();
    let mut bytes = Vec::new();
    while seqs.len() < n {
        match sub.next_timeout(Duration::from_secs(20)).unwrap() {
            Some(SubEvent::Gop(gop)) => {
                seqs.push(gop.seq);
                bytes.extend_from_slice(gop.gop.as_bytes());
            }
            Some(other) => panic!("expected a GOP, got {other:?}"),
            None => panic!("timed out draining GOP {} of {n}", seqs.len()),
        }
    }
    (seqs, bytes)
}

/// Concatenated container bytes of a full same-codec streaming read — the
/// byte-identity reference every subscriber must match.
fn full_read_bytes(server: &VssServer, name: &str) -> Vec<u8> {
    let session = server.session();
    let (start, end) = session.with_engine(name, |e| e.video_time_range(name)).unwrap();
    let stream = session
        .read_stream(&ReadRequest::new(name, start, end, Codec::H264).uncacheable())
        .unwrap();
    let mut bytes = Vec::new();
    for chunk in stream {
        let chunk = chunk.unwrap();
        bytes.extend_from_slice(chunk.encoded_gop.expect("passthrough read").as_bytes());
    }
    bytes
}

#[test]
fn tailing_subscription_is_byte_identical_to_a_full_read() {
    let (server, root) = open("tail", ServerConfig::default());
    let session = server.session();
    let mut sub = session.subscribe("cam", SubscribeFrom::Start);
    // The video does not exist yet when the subscription opens; the first
    // write creates it and the subscription picks it up from sequence 0.
    session.write(&WriteRequest::new("cam", Codec::H264), &sequence(30, 0)).unwrap();
    for batch in 1..4u64 {
        session.append("cam", &sequence(30, batch * 1000)).unwrap();
    }
    let (seqs, bytes) = drain_gops(&mut sub, 4);
    assert_eq!(seqs, vec![0, 1, 2, 3]);
    assert_eq!(bytes, full_read_bytes(&server, "cam"), "drained bytes must equal a full read");
    drop(sub);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn late_joiner_catches_up_then_seams_exactly() {
    let (server, root) = open("late", ServerConfig::default());
    let session = server.session();
    session.write(&WriteRequest::new("cam", Codec::H264), &sequence(90, 0)).unwrap();
    // Join late: three GOPs already persisted.
    let mut sub = session.subscribe("cam", SubscribeFrom::Start);
    let (backlog, _) = drain_gops(&mut sub, 3);
    assert_eq!(backlog, vec![0, 1, 2]);
    assert!(sub.catchup_rounds() >= 1, "the backlog must come from catch-up reads");
    // Idle at the head: the subscription seams onto the live queue.
    assert!(sub.next_timeout(Duration::from_millis(50)).unwrap().is_none());
    for batch in 0..3u64 {
        session.append("cam", &sequence(30, 5000 + batch * 1000)).unwrap();
    }
    let (tail, _) = drain_gops(&mut sub, 3);
    assert_eq!(tail, vec![3, 4, 5], "seam must neither duplicate nor skip a GOP");
    let (_, bytes) = {
        let mut replay = session.subscribe("cam", SubscribeFrom::Start);
        drain_gops(&mut replay, 6)
    };
    assert_eq!(bytes, full_read_bytes(&server, "cam"));
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn slow_subscriber_lags_catches_up_and_reseams() {
    // A two-GOP queue forces the lag policy as soon as the subscriber
    // sleeps through a burst.
    let (server, root) =
        open("lag", ServerConfig { live_queue_capacity: 2, ..ServerConfig::default() });
    let session = server.session();
    session.write(&WriteRequest::new("cam", Codec::H264), &sequence(30, 0)).unwrap();
    let mut sub = session.subscribe("cam", SubscribeFrom::Start);
    let (first, _) = drain_gops(&mut sub, 1);
    assert_eq!(first, vec![0]);
    assert!(sub.next_timeout(Duration::from_millis(50)).unwrap().is_none());
    // Burst far past the queue capacity while the subscriber is idle.
    for batch in 0..10u64 {
        session.append("cam", &sequence(30, 1000 + batch * 1000)).unwrap();
    }
    let (seqs, _) = drain_gops(&mut sub, 10);
    assert_eq!(seqs, (1..=10).collect::<Vec<u64>>(), "no GOP duplicated or skipped across the lag");
    assert!(sub.lag_transitions() >= 1, "the burst must have overflowed the live queue");
    // The writer was never stalled: everything it wrote is persisted.
    let mut replay = session.subscribe("cam", SubscribeFrom::Start);
    let (_, bytes) = drain_gops(&mut replay, 11);
    assert_eq!(bytes, full_read_bytes(&server, "cam"));
    let _ = std::fs::remove_dir_all(root);
}

/// Catch-up across an evicted original page: the subscriber sees the hole
/// as a gap and every GOP on its own sequence number. Catch-up serves the
/// original's stored pages by catalog index, so a batch ends at the hole
/// and the cached view that covers the evicted range never stands in for
/// it; each delivered GOP is checked against a passthrough read of its own
/// time span.
#[test]
fn catchup_across_an_evicted_original_page_reports_a_gap() {
    let root = temp_root("evicted");
    let open = || VssServer::open_configured(VssConfig::new(&root), 1, ServerConfig::default());
    {
        let server = open().unwrap();
        let session = server.session();
        // Five one-second GOPs, and a lossless view of [1 s, 4 s) beside them.
        session.write(&WriteRequest::new("cam", Codec::H264), &sequence(150, 0)).unwrap();
        let view = ReadRequest::new("cam", 1.0, 4.0, Codec::Raw(PixelFormat::Yuv420));
        assert!(session.read(&view).unwrap().stats.cache_admitted);
        // One byte over budget: the first victim is the original's page
        // [1 s, 2 s), which the view covers.
        let used = session.bytes_used("cam").unwrap();
        let evicted = session.with_engine("cam", |engine| {
            engine.set_storage_budget_bytes("cam", Some(used - 1))?;
            engine.enforce_budget("cam")
        });
        assert_eq!(evicted.unwrap(), 1);
    }
    let catalog = vss_catalog::Catalog::open(root.join("shard-00")).unwrap();
    let original = catalog.video("cam").unwrap().original().unwrap().clone();
    drop(catalog);
    let indexes: Vec<u64> = original.gops.iter().map(|g| g.index).collect();
    assert_eq!(indexes, [0, 2, 3, 4], "precondition: the original lost exactly its page 1");

    let server = open().unwrap();
    let session = server.session();
    let mut sub = session.subscribe("cam", SubscribeFrom::Start);
    let mut events = Vec::new();
    while events.len() < 5 {
        let Some(event) = sub.next_timeout(Duration::from_secs(20)).unwrap() else { break };
        events.push(event);
    }
    let shape: Vec<String> = events
        .iter()
        .map(|event| match event {
            SubEvent::Gop(gop) => format!("Gop {}", gop.seq),
            SubEvent::Gap { from_seq, to_seq } => format!("Gap {from_seq}..{to_seq}"),
            SubEvent::End => "End".into(),
        })
        .collect();
    assert_eq!(shape, ["Gop 0", "Gap 1..2", "Gop 2", "Gop 3", "Gop 4"]);
    assert!(sub.next_timeout(Duration::from_millis(50)).unwrap().is_none(), "nothing after 4");
    for event in &events {
        let SubEvent::Gop(gop) = event else { continue };
        let span = ReadRequest::new("cam", gop.start_time, gop.end_time, Codec::H264);
        let chunks: Vec<_> =
            session.read_stream(&span.uncacheable()).unwrap().map(Result::unwrap).collect();
        assert_eq!(chunks.len(), 1, "sequence {} is one GOP", gop.seq);
        let stored = chunks[0].encoded_gop.as_ref().expect("passthrough read");
        assert!(gop.gop.as_bytes() == stored.as_bytes(), "sequence {} carries another GOP's bytes", gop.seq);
    }
    let _ = std::fs::remove_dir_all(root);
}

/// Catch-up serves the stored pages: it plans no read, so it counts no read
/// op (and moves no recency clock).
#[test]
fn catchup_is_not_a_read() {
    let (server, root) = open("not-a-read", ServerConfig::default());
    let session = server.session();
    session.write(&WriteRequest::new("cam", Codec::H264), &sequence(90, 0)).unwrap();
    let reads = server.stats().total_read_ops();
    let mut sub = session.subscribe("cam", SubscribeFrom::Start);
    let (seqs, _) = drain_gops(&mut sub, 3);
    assert_eq!(seqs, [0, 1, 2]);
    assert!(sub.catchup_rounds() >= 1, "the GOPs must come from catch-up");
    let moved = server.stats().total_read_ops() - reads;
    assert!(moved == 0, "catch-up counted {moved} read ops");
    let _ = std::fs::remove_dir_all(root);
}

/// A raw original whose pages are stored deferred-compressed, by the write
/// itself and by maintenance afterwards, catches up to exactly the bytes
/// its live subscriber received before the sweep.
#[test]
fn a_compressed_raw_original_catches_up_to_the_bytes_published_live() {
    let (server, root) = open("raw-sweep", ServerConfig::default());
    let session = server.session();
    // Two raw GOPs of budget: the first page is stored raw, write-time
    // deferral compresses the other three and maintenance the first.
    session.create("cam", Some(StorageBudget::Bytes(2 * RAW_GOP))).unwrap();
    let mut live = session.subscribe("cam", SubscribeFrom::Live);
    let raw = WriteRequest::new("cam", Codec::Raw(PixelFormat::Rgb8));
    let report = session.write(&raw, &raw_sequence(4 * RAW_GOP_FRAMES, 0)).unwrap();
    assert_eq!(report.deferred_levels[0], 0);
    assert!(report.deferred_levels[1..].iter().all(|&level| level > 0), "{:?}", report.deferred_levels);
    let (_, published) = drain_gops(&mut live, 4);
    let before = session.bytes_used("cam").unwrap();
    assert!(session.with_engine("cam", Engine::background_maintenance).unwrap());
    assert!(session.bytes_used("cam").unwrap() < before, "maintenance must compress the first page");
    let mut replay = session.subscribe("cam", SubscribeFrom::Start);
    let (seqs, caught_up) = drain_gops(&mut replay, 4);
    assert_eq!(seqs, [0, 1, 2, 3]);
    assert!(caught_up == published, "catch-up must serve the bytes published live");
    let _ = std::fs::remove_dir_all(root);
}

/// Catch-up beside maintenance: subscriptions replay a raw original from
/// `Start`, one after another, while another thread's deferred compression
/// rewrites the pages they are reading, and once more after it is done.
/// Every GOP must be the one published live, and nothing may error. CI runs
/// it pinned to one CPU, where preemption interleaves the two.
#[test]
fn catchup_beside_maintenance_serves_the_bytes_published_live() {
    const GOPS: usize = 24;
    let (server, root) = open("raw-race", ServerConfig::default());
    let session = server.session();
    session.create("cam", Some(StorageBudget::Unlimited)).unwrap();
    let mut live = session.subscribe("cam", SubscribeFrom::Live);
    let raw = WriteRequest::new("cam", Codec::Raw(PixelFormat::Rgb8));
    session.write(&raw, &raw_sequence(RAW_GOP_FRAMES * GOPS, 0)).unwrap();
    let (_, published) = drain_gops(&mut live, GOPS);
    // Far over budget: the sweep compresses page after page until none is left.
    session.with_engine("cam", |engine| engine.set_storage_budget_bytes("cam", Some(2 * RAW_GOP))).unwrap();
    let before = session.bytes_used("cam").unwrap();
    let maintenance = {
        let session = server.session();
        std::thread::spawn(move || {
            let mut passes = 0;
            while session.with_engine("cam", Engine::background_maintenance).unwrap() {
                passes += 1;
            }
            passes
        })
    };
    let mut replays = 0;
    loop {
        let last = maintenance.is_finished();
        let mut replay = session.subscribe("cam", SubscribeFrom::Start);
        let (seqs, caught_up) = drain_gops(&mut replay, GOPS);
        assert_eq!(seqs, (0..GOPS as u64).collect::<Vec<_>>());
        assert!(caught_up == published, "replay {replays} must serve the bytes published live");
        replays += 1;
        if last {
            break;
        }
    }
    assert!(maintenance.join().unwrap() > 0, "maintenance must have rewritten pages");
    assert!(session.bytes_used("cam").unwrap() < before);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn deleting_the_video_ends_subscriptions_and_drops_leak_nothing() {
    let (server, root) = open("cleanup", ServerConfig::default());
    let session = server.session();
    session.write(&WriteRequest::new("cam", Codec::H264), &sequence(30, 0)).unwrap();
    let mut sub = session.subscribe("cam", SubscribeFrom::Start);
    let other = session.subscribe("cam", SubscribeFrom::Live);
    assert_eq!(server.hub().channel_count(), 1);
    assert_eq!(server.hub().subscriber_count(), 2);
    drop(other);
    assert_eq!(server.hub().subscriber_count(), 1, "dropping one subscriber leaves the other");
    let (seqs, _) = drain_gops(&mut sub, 1);
    assert_eq!(seqs, vec![0]);
    session.delete("cam").unwrap();
    assert!(matches!(sub.next_timeout(Duration::from_secs(20)).unwrap(), Some(SubEvent::End)));
    drop(sub);
    assert_eq!(server.hub().channel_count(), 0, "no channel survives its last subscriber");
    assert_eq!(server.hub().subscriber_count(), 0);
    // Writing again after everyone unsubscribed must not stall or publish
    // into stale state.
    session.write(&WriteRequest::new("cam", Codec::H264), &sequence(30, 9000)).unwrap();
    assert_eq!(server.hub().channel_count(), 0);
    let _ = std::fs::remove_dir_all(root);
}
