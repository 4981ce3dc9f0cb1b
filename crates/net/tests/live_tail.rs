//! Loopback live-subscription coverage: remote tailing byte-identity, the
//! late-joiner catch-up seam, the 1-writer × 8-subscriber stress with a
//! forced lag → catch-up → re-seam, delete-driven feed termination and
//! drop-mid-subscription cleanup (no stalled writer, no leaked hub entries).

use std::time::{Duration, Instant};
use vss_codec::Codec;
use vss_core::{ReadRequest, VssConfig, WriteRequest};
use vss_frame::{pattern, FrameSequence, PixelFormat};
use vss_net::{NetServer, RemoteStore, SubEvent, SubscribeFrom};
use vss_server::{ServerConfig, VssServer};

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!(
        "vss-net-live-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn gradient_sequence(frames: usize, seed: u64) -> FrameSequence {
    let frames: Vec<_> = (0..frames)
        .map(|i| pattern::gradient(64, 48, PixelFormat::Yuv420, seed + i as u64))
        .collect();
    FrameSequence::new(frames, 30.0).unwrap()
}

/// High-entropy frames compress poorly, keeping subscription chunks heavy
/// enough that a subscriber which stops draining exercises real TCP
/// backpressure.
fn noise_sequence(frames: usize, seed: u64) -> FrameSequence {
    let frames: Vec<_> = (0..frames)
        .map(|i| pattern::noise(96, 72, PixelFormat::Yuv420, seed + i as u64))
        .collect();
    FrameSequence::new(frames, 30.0).unwrap()
}

fn open(tag: &str, config: ServerConfig) -> (VssServer, NetServer, std::path::PathBuf) {
    let root = temp_root(tag);
    let server = VssServer::open_configured(VssConfig::new(&root), 2, config).unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();
    (server, net, root)
}

/// Drains `n` GOP events off a remote feed (panicking on gaps, ends and
/// errors), returning sequence numbers and concatenated container bytes.
fn drain_feed(feed: &mut vss_net::LiveFeed, n: usize) -> (Vec<u64>, Vec<u8>) {
    let mut seqs = Vec::new();
    let mut bytes = Vec::new();
    while seqs.len() < n {
        match feed.next() {
            Some(Ok(SubEvent::Gop(gop))) => {
                seqs.push(gop.seq);
                bytes.extend_from_slice(gop.gop.as_bytes());
            }
            other => panic!("expected GOP {} of {n}, got {other:?}", seqs.len()),
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
fn remote_tailing_feed_is_byte_identical_to_a_full_read() {
    let (server, net, root) = open("tail", ServerConfig::default());
    let store = RemoteStore::connect(net.local_addr()).unwrap();
    // Subscribe before the video exists: the subscription waits, then picks
    // up from sequence 0 once the first write lands.
    let mut feed = store.subscribe("cam", SubscribeFrom::Start).unwrap();
    {
        let mut writer = RemoteStore::connect(net.local_addr()).unwrap();
        use vss_core::VideoStorage;
        writer.write(&WriteRequest::new("cam", Codec::H264), &gradient_sequence(30, 0)).unwrap();
        for batch in 1..4u64 {
            writer.append("cam", &gradient_sequence(30, batch * 1000)).unwrap();
        }
    }
    let (seqs, bytes) = drain_feed(&mut feed, 4);
    assert_eq!(seqs, vec![0, 1, 2, 3]);
    assert_eq!(bytes, full_read_bytes(&server, "cam"), "feed bytes must equal a full read");

    // A late joiner sees the same bytes purely from catch-up reads.
    let mut late = store.subscribe("cam", SubscribeFrom::Start).unwrap();
    let (late_seqs, late_bytes) = drain_feed(&mut late, 4);
    assert_eq!(late_seqs, vec![0, 1, 2, 3]);
    assert_eq!(late_bytes, bytes);

    drop(feed);
    drop(late);
    net.shutdown();
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn eight_subscribers_tail_one_writer_with_a_forced_lag() {
    // A two-GOP hub queue makes the lag policy reachable; the "slow" session
    // subscriber below forces it deterministically every run.
    let (server, net, root) =
        open("stress", ServerConfig { live_queue_capacity: 2, ..ServerConfig::default() });
    let store = RemoteStore::connect(net.local_addr()).unwrap();
    let session = server.session();
    const GOPS: usize = 12;

    // Subscriber 8 is an in-process session subscription that sits idle
    // through the whole burst: with a capacity-2 queue it must overflow,
    // fall back to catch-up reads and re-seam.
    let mut slow = session.subscribe("cam", SubscribeFrom::Start);
    // Subscribers 1..=6 tail over TCP from the start; one of them stops
    // draining mid-burst (TCP backpressure path).
    let mut feeds: Vec<_> =
        (0..6).map(|_| store.subscribe("cam", SubscribeFrom::Start).unwrap()).collect();

    session.write(&WriteRequest::new("cam", Codec::H264), &noise_sequence(30, 0)).unwrap();
    let (first, _) = drain_feed(&mut feeds[0], 1);
    assert_eq!(first, vec![0]);
    for batch in 1..GOPS as u64 {
        session.append("cam", &noise_sequence(30, batch * 1000)).unwrap();
    }
    // Subscriber 7 joins after the burst: pure catch-up over the wire.
    let mut late = store.subscribe("cam", SubscribeFrom::Start).unwrap();

    let reference = full_read_bytes(&server, "cam");
    assert!(!reference.is_empty());
    let (_, late_bytes) = drain_feed(&mut late, GOPS);
    assert_eq!(late_bytes, reference, "late joiner diverged");
    let (head, mut head_bytes) = drain_feed(&mut feeds[0], GOPS - 1);
    assert_eq!(head, (1..GOPS as u64).collect::<Vec<_>>());
    let (_, first_bytes) = {
        let mut replay = store.subscribe("cam", SubscribeFrom::Seq(0)).unwrap();
        let (seqs, bytes) = drain_feed(&mut replay, 1);
        assert_eq!(seqs, vec![0]);
        (seqs, bytes)
    };
    head_bytes.splice(0..0, first_bytes);
    assert_eq!(head_bytes, reference, "tailing subscriber diverged");
    for (index, feed) in feeds.iter_mut().enumerate().skip(1) {
        let (seqs, bytes) = drain_feed(feed, GOPS);
        assert_eq!(seqs, (0..GOPS as u64).collect::<Vec<_>>(), "subscriber {index}");
        assert_eq!(bytes, reference, "subscriber {index} diverged");
    }
    // The slow subscriber lagged at least once, recovered through catch-up
    // reads and still saw every byte exactly once.
    let (slow_seqs, slow_bytes) = {
        let mut seqs = Vec::new();
        let mut bytes = Vec::new();
        while seqs.len() < GOPS {
            match slow.next_timeout(Duration::from_secs(20)).unwrap() {
                Some(SubEvent::Gop(gop)) => {
                    seqs.push(gop.seq);
                    bytes.extend_from_slice(gop.gop.as_bytes());
                }
                other => panic!("slow subscriber saw {other:?}"),
            }
        }
        (seqs, bytes)
    };
    assert_eq!(slow_seqs, (0..GOPS as u64).collect::<Vec<_>>());
    assert_eq!(slow_bytes, reference, "lagged subscriber diverged after re-seam");
    assert!(
        slow.lag_transitions() >= 1 || slow.catchup_rounds() >= 1,
        "the burst must have pushed the idle subscriber through catch-up"
    );

    drop(slow);
    drop(feeds);
    drop(late);
    drop(session);
    drop(store);
    net.shutdown();
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn deleting_the_video_ends_remote_feeds() {
    let (server, net, root) = open("delete", ServerConfig::default());
    let store = RemoteStore::connect(net.local_addr()).unwrap();
    let session = server.session();
    session.write(&WriteRequest::new("cam", Codec::H264), &gradient_sequence(30, 0)).unwrap();
    let mut feed = store.subscribe("cam", SubscribeFrom::Start).unwrap();
    let (seqs, _) = drain_feed(&mut feed, 1);
    assert_eq!(seqs, vec![0]);
    session.delete("cam").unwrap();
    assert!(matches!(feed.next(), Some(Ok(SubEvent::End))), "delete must end the feed");
    assert!(feed.next().is_none(), "the feed is finished after End");
    drop(feed);
    drop(session);
    drop(store);
    net.shutdown();
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn dropping_a_feed_never_stalls_the_writer_and_leaks_nothing() {
    let (server, net, root) = open("drop", ServerConfig::default());
    let store = RemoteStore::connect(net.local_addr()).unwrap();
    let session = server.session();
    session.write(&WriteRequest::new("cam", Codec::H264), &gradient_sequence(30, 0)).unwrap();
    let mut keeper = store.subscribe("cam", SubscribeFrom::Start).unwrap();
    let mut doomed = store.subscribe("cam", SubscribeFrom::Start).unwrap();
    let (_, _) = drain_feed(&mut doomed, 1);
    // Drop one feed mid-subscription: the writer keeps appending at full
    // speed and the surviving feed sees everything.
    drop(doomed);
    for batch in 1..5u64 {
        session.append("cam", &gradient_sequence(30, batch * 1000)).unwrap();
    }
    let (seqs, bytes) = drain_feed(&mut keeper, 5);
    assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    assert_eq!(bytes, full_read_bytes(&server, "cam"));
    drop(keeper);
    // The server notices both departed subscribers within its idle-probe
    // interval and unregisters them — no leaked hub entries.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.hub().subscriber_count() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(server.hub().subscriber_count(), 0, "dropped feeds must unregister");
    assert_eq!(server.hub().channel_count(), 0, "no channel survives its last subscriber");
    // Shutdown joins every handler thread (it would hang here otherwise).
    drop(session);
    drop(store);
    net.shutdown();
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}
