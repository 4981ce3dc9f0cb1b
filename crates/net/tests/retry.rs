//! Client retry/backoff coverage: [`RetryPolicy`] waits out admission sheds
//! and transient connect failures (provably-unapplied failures only), is
//! bounded by its deadline, and stays opt-in — a store without a policy
//! still fails fast with the typed error.

use std::time::{Duration, Instant};
use vss_codec::Codec;
use vss_core::{ReadRequest, VideoStorage, VssConfig, VssError, WriteRequest};
use vss_frame::{pattern, FrameSequence, PixelFormat};
use vss_net::{NetServer, RemoteStore, RetryPolicy};
use vss_server::{ServerConfig, VssServer};

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!(
        "vss-net-retry-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn sequence(frames: usize, seed: u64) -> FrameSequence {
    let frames: Vec<_> = (0..frames)
        .map(|i| pattern::gradient(48, 36, PixelFormat::Yuv420, seed + i as u64))
        .collect();
    FrameSequence::new(frames, 30.0).unwrap()
}

fn tiny_server(root: &std::path::Path, max_sessions: usize) -> (VssServer, NetServer) {
    let server = VssServer::open_configured(
        VssConfig::new(root),
        1,
        ServerConfig { max_concurrent_sessions: max_sessions, ..ServerConfig::default() },
    )
    .unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();
    (server, net)
}

#[test]
fn connect_with_retry_waits_out_an_admission_shed() {
    let root = temp_root("connect");
    let (server, net) = tiny_server(&root, 1);
    let addr = net.local_addr();

    let occupant = RemoteStore::connect(addr).unwrap();
    // Without a policy the shed is immediate and typed — retry is opt-in.
    match RemoteStore::connect(addr) {
        Err(VssError::Overloaded(_)) => {}
        other => panic!("expected immediate Overloaded, got {other:?}"),
    }

    // Free the slot a while after the retrying connect starts; the policy
    // backs off through the shed window and then succeeds.
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        drop(occupant);
    });
    let mut store =
        RemoteStore::connect_with_retry(addr, RetryPolicy::with_deadline(Duration::from_secs(10)))
            .unwrap();
    release.join().unwrap();

    // The connection that finally got through carries real traffic.
    store.create("cam", None).unwrap();
    assert_eq!(store.metadata("cam").unwrap().bytes_used, 0);

    net.shutdown();
    drop(store);
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn retry_gives_up_at_the_deadline_with_the_typed_error() {
    let root = temp_root("deadline");
    let (server, net) = tiny_server(&root, 1);
    let addr = net.local_addr();

    let occupant = RemoteStore::connect(addr).unwrap();
    let deadline = Duration::from_millis(250);
    let started = Instant::now();
    match RemoteStore::connect_with_retry(addr, RetryPolicy::with_deadline(deadline)) {
        Err(VssError::Overloaded(_)) => {}
        other => panic!("expected Overloaded after the deadline, got {other:?}"),
    }
    let elapsed = started.elapsed();
    assert!(elapsed < deadline + Duration::from_secs(2), "retry loop overshot: {elapsed:?}");

    net.shutdown();
    drop(occupant);
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn stream_open_retries_on_shed_but_streams_are_never_reopened_mid_flight() {
    let root = temp_root("stream");
    let (server, net) = tiny_server(&root, 2);
    let addr = net.local_addr();

    let mut store = RemoteStore::connect(addr)
        .unwrap()
        .with_retry(RetryPolicy::with_deadline(Duration::from_secs(10)));
    store.create("cam", None).unwrap();
    store.write(&WriteRequest::new("cam", Codec::H264), &sequence(60, 0)).unwrap();

    // A live stream and a second open share the store's one connection and
    // session; a shed of the *open* (the server refused before starting) is
    // the only thing the policy would wait out — the live stream is never
    // reopened.
    let request = ReadRequest::new("cam", 0.0, 2.0, Codec::Raw(PixelFormat::Yuv420)).uncacheable();
    let mut first = store.read_stream(&request).unwrap();
    first.next().unwrap().unwrap(); // stream is live, slot held
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        drop(first);
    });
    let second = store.read_stream(&request).unwrap().drain().unwrap();
    release.join().unwrap();
    assert_eq!(second.frames.len(), 60);

    net.shutdown();
    drop(store);
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn subscribe_open_retries_on_shed_but_a_live_feed_is_never_reopened() {
    use vss_net::{SubEvent, SubscribeFrom};

    let root = temp_root("subscribe");
    let (server, net) = tiny_server(&root, 2);
    let addr = net.local_addr();

    let mut store = RemoteStore::connect(addr)
        .unwrap()
        .with_retry(RetryPolicy::with_deadline(Duration::from_secs(10)));
    store.create("cam", None).unwrap();
    store.write(&WriteRequest::new("cam", Codec::H264), &sequence(30, 0)).unwrap();

    // A live stream and the subscription open share the store's one
    // connection and session; a shed of the *open* — the server refused
    // before the feed existed — is the only thing the policy would wait out.
    let request = ReadRequest::new("cam", 0.0, 1.0, Codec::Raw(PixelFormat::Yuv420)).uncacheable();
    let mut occupant = store.read_stream(&request).unwrap();
    occupant.next().unwrap().unwrap(); // stream live, slot held
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        drop(occupant);
    });
    let mut feed = store.subscribe("cam", SubscribeFrom::Start).unwrap();
    release.join().unwrap();
    match feed.next() {
        Some(Ok(SubEvent::Gop(gop))) => assert_eq!(gop.seq, 0),
        other => panic!("expected the first GOP, got {other:?}"),
    }

    // Once the feed is live it is never silently reopened: killing the
    // server mid-feed surfaces promptly as an error/end, not a 10-second
    // retry stall on the policy's deadline.
    let started = Instant::now();
    net.shutdown();
    match feed.next() {
        None | Some(Err(_)) | Some(Ok(SubEvent::End)) => {}
        other => panic!("expected the feed to terminate, got {other:?}"),
    }
    assert!(feed.next().is_none(), "a terminated feed stays terminated");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "a mid-feed failure must not enter the retry loop"
    );

    drop(feed);
    drop(store);
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn connect_with_retry_rides_out_a_late_listener() {
    // Reserve a port, then leave it dead: a bounded retry surfaces the
    // transient connect failure as a typed error once the deadline passes.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    drop(listener);
    assert!(
        RemoteStore::connect_with_retry(
            addr,
            RetryPolicy::with_deadline(Duration::from_millis(200))
        )
        .is_err(),
        "dead endpoint must fail once the deadline passes"
    );

    // Bring the server up mid-retry: the dial failures before the listener
    // exists are provably unapplied, so the policy retries through them.
    let root = temp_root("late");
    let root_clone = root.clone();
    let binder = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        let server = VssServer::open_sharded(VssConfig::new(&root_clone), 1).unwrap();
        let net = NetServer::bind(server.clone(), addr).unwrap();
        (server, net)
    });
    let mut store =
        RemoteStore::connect_with_retry(addr, RetryPolicy::with_deadline(Duration::from_secs(10)))
            .unwrap();
    let (server, net) = binder.join().unwrap();
    store.create("cam", None).unwrap();
    assert_eq!(store.metadata("cam").unwrap().bytes_used, 0);

    net.shutdown();
    drop(store);
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}

/// A store whose connection died (the server restarted) redials on its very
/// next unary call instead of surfacing the dead connection's stale error:
/// nothing was sent on the dead socket, so the failure is provably
/// unapplied and the late listener is ridden out under the policy.
#[test]
fn unary_ops_redial_a_connection_known_to_be_dead() {
    let root = temp_root("redial");
    let (server, net) = tiny_server(&root, 4);
    let addr = net.local_addr();

    let mut store = RemoteStore::connect(addr)
        .unwrap()
        .with_retry(RetryPolicy::with_deadline(Duration::from_secs(10)));
    store.create("cam", None).unwrap();
    store.write(&WriteRequest::new("cam", Codec::H264), &sequence(300, 0)).unwrap();
    // A stream left undrained parks server-side on its credit window, so it
    // is still open when the server goes away.
    let request = ReadRequest::new("cam", 0.0, 10.0, Codec::Raw(PixelFormat::Yuv420)).uncacheable();
    let mut parked = store.read_stream(&request).unwrap();

    // Restart: the old listener and every connection go away, and a new
    // server comes up on the same port a while later.
    net.shutdown();
    drop(net);
    assert!(server.shutdown(Duration::from_secs(10)));
    drop(server);
    // The parked stream ends in an error exactly when the client's
    // demultiplexer has recorded the connection dead — the state under test.
    assert!(parked.by_ref().any(|chunk| chunk.is_err()), "the stream outlived its connection");
    drop(parked);
    let root_clone = root.clone();
    let binder = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        let server = VssServer::open_sharded(VssConfig::new(&root_clone), 1).unwrap();
        let net = NetServer::bind(server.clone(), addr).unwrap();
        (server, net)
    });

    // The very next call succeeds, on a fresh connection.
    assert!(store.metadata("cam").unwrap().bytes_used > 0);
    let (server, net) = binder.join().unwrap();

    net.shutdown();
    drop(store);
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}
