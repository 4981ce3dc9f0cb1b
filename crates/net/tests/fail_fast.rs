//! Overload and connection loss fail fast: a full server sheds a new
//! connection at once with the typed `Overloaded` error and the client
//! passes it to its caller — nothing waits or retries on either side. The
//! admission slot is per connection, so a store's own second stream is never
//! shed; a connection the client has seen die is redialed by the next call,
//! before anything is sent on it; and a live feed whose server goes away
//! ends promptly.

use std::time::{Duration, Instant};
use vss_codec::Codec;
use vss_core::{ReadRequest, VideoStorage, VssConfig, VssError, WriteRequest};
use vss_frame::{pattern, FrameSequence, PixelFormat};
use vss_net::{NetServer, RemoteStore, SubEvent, SubscribeFrom};
use vss_server::{ServerConfig, VssServer};

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!(
        "vss-net-fail-fast-{tag}-{}-{:?}",
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
fn connecting_to_a_full_server_fails_at_once_with_a_typed_shed() {
    let root = temp_root("full");
    let (server, net) = tiny_server(&root, 1);
    let addr = net.local_addr();

    let occupant = RemoteStore::connect(addr).unwrap();
    let started = Instant::now();
    match RemoteStore::connect(addr) {
        Err(VssError::Overloaded(_)) => {}
        other => panic!("expected an immediate Overloaded, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(2), "the shed waited: {:?}", started.elapsed());
    assert_eq!(server.rejected_sessions(), 1);

    // Dialing again once the slot is free is the caller's decision, and it
    // works: the connection that gets through carries real traffic.
    drop(occupant);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut store = loop {
        match RemoteStore::connect(addr) {
            Ok(store) => break store,
            // The server releases the slot when it notices the close.
            Err(VssError::Overloaded(_)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10))
            }
            Err(error) => panic!("the freed slot was never admitted: {error}"),
        }
    };
    store.create("cam", None).unwrap();
    assert_eq!(store.metadata("cam").unwrap().bytes_used, 0);

    net.shutdown();
    drop(store);
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn a_second_stream_on_one_store_is_never_shed() {
    let root = temp_root("streams");
    let (server, net) = tiny_server(&root, 1);
    let addr = net.local_addr();

    let mut store = RemoteStore::connect(addr).unwrap();
    store.create("cam", None).unwrap();
    store.write(&WriteRequest::new("cam", Codec::H264), &sequence(60, 0)).unwrap();

    // The store holds the server's only slot, and a live stream holds the
    // store's connection; a second read and a subscription still open on it.
    let request = ReadRequest::new("cam", 0.0, 2.0, Codec::Raw(PixelFormat::Yuv420)).uncacheable();
    let mut first = store.read_stream(&request).unwrap();
    first.next().unwrap().unwrap();
    let second = store.read_stream(&request).unwrap().drain().unwrap();
    assert_eq!(second.frames.len(), 60);
    let mut feed = store.subscribe("cam", SubscribeFrom::Start).unwrap();
    match feed.next() {
        Some(Ok(SubEvent::Gop(gop))) => assert_eq!(gop.seq, 0),
        other => panic!("expected the first GOP, got {other:?}"),
    }
    assert_eq!(first.count(), 1, "the first stream kept flowing");
    assert_eq!(server.rejected_sessions(), 0);

    drop(feed);
    net.shutdown();
    drop(store);
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}

/// A store whose connection died (the server restarted) redials on its very
/// next unary call instead of surfacing the dead connection's stale error:
/// the demultiplexer recorded the death, so nothing is sent on the dead
/// socket.
#[test]
fn the_next_unary_call_redials_a_dead_connection() {
    let root = temp_root("redial");
    let (server, net) = tiny_server(&root, 4);
    let addr = net.local_addr();

    let mut store = RemoteStore::connect(addr).unwrap();
    store.create("cam", None).unwrap();
    store.write(&WriteRequest::new("cam", Codec::H264), &sequence(300, 0)).unwrap();
    // A stream left undrained parks server-side on its credit window, so it
    // is still open when the server goes away.
    let request = ReadRequest::new("cam", 0.0, 10.0, Codec::Raw(PixelFormat::Yuv420)).uncacheable();
    let mut parked = store.read_stream(&request).unwrap();

    // Restart: the old listener and every connection go away, and a new
    // server comes up on the same port before the next call.
    net.shutdown();
    drop(net);
    assert!(server.shutdown(Duration::from_secs(10)));
    drop(server);
    // The parked stream ends in an error exactly when the client's
    // demultiplexer has recorded the connection dead — the state under test.
    assert!(parked.by_ref().any(|chunk| chunk.is_err()), "the stream outlived its connection");
    drop(parked);
    let server = VssServer::open_sharded(VssConfig::new(&root), 1).unwrap();
    let net = NetServer::bind(server.clone(), addr).unwrap();

    // The very next call succeeds, on a fresh connection.
    assert!(store.metadata("cam").unwrap().bytes_used > 0);

    net.shutdown();
    drop(store);
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn a_live_feed_ends_promptly_when_its_server_goes_away() {
    let root = temp_root("feed");
    let (server, net) = tiny_server(&root, 2);
    let addr = net.local_addr();

    let mut store = RemoteStore::connect(addr).unwrap();
    store.create("cam", None).unwrap();
    store.write(&WriteRequest::new("cam", Codec::H264), &sequence(30, 0)).unwrap();
    let mut feed = store.subscribe("cam", SubscribeFrom::Start).unwrap();
    match feed.next() {
        Some(Ok(SubEvent::Gop(gop))) => assert_eq!(gop.seq, 0),
        other => panic!("expected the first GOP, got {other:?}"),
    }

    // Once the feed is live it is never silently reopened: the server going
    // away surfaces promptly as an error or end, not a stall.
    let started = Instant::now();
    net.shutdown();
    match feed.next() {
        None | Some(Err(_)) | Some(Ok(SubEvent::End)) => {}
        other => panic!("expected the feed to terminate, got {other:?}"),
    }
    assert!(feed.next().is_none(), "a terminated feed stays terminated");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the feed stalled: {:?}",
        started.elapsed()
    );

    drop(feed);
    drop(store);
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}
