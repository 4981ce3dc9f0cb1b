//! Multiplexing smoke test (also the CI smoke step): eight concurrent
//! streams ride **one** connection — the server is capped at a single
//! admission slot, so a second connection could not even be dialed — and
//! per-stream credit flow keeps seven streams draining while the eighth
//! consumes nothing at all.

use std::time::Duration;
use vss_codec::Codec;
use vss_core::{ReadRequest, VideoStorage, VssConfig, VssError, WriteRequest};
use vss_frame::{pattern, FrameSequence, PixelFormat};
use vss_net::{NetServer, RemoteStore};
use vss_server::{ServerConfig, VssServer};

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!(
        "vss-net-mux-smoke-{tag}-{}-{:?}",
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

#[test]
fn eight_concurrent_streams_share_one_connection() {
    let root = temp_root("eight");
    let server = VssServer::open_configured(
        VssConfig::new(&root),
        2,
        ServerConfig { max_concurrent_sessions: 1, ..ServerConfig::default() },
    )
    .unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();
    let mut store = RemoteStore::connect(net.local_addr()).unwrap();

    store.create("cam", None).unwrap();
    let clip = sequence(90, 0);
    store.write(&WriteRequest::new("cam", Codec::H264), &clip).unwrap();
    let expected = server
        .session()
        .read(&ReadRequest::new("cam", 0.0, 3.0, Codec::Raw(PixelFormat::Yuv420)).uncacheable())
        .unwrap();

    // Eight streams open before any is drained. With one admission slot the
    // server could not grant a ninth *connection*, so all eight provably
    // multiplex onto the store's single one.
    let mut streams: Vec<_> = (0..8)
        .map(|_| {
            store
                .read_stream(
                    &ReadRequest::new("cam", 0.0, 3.0, Codec::Raw(PixelFormat::Yuv420))
                        .uncacheable(),
                )
                .unwrap()
        })
        .collect();
    match RemoteStore::connect(net.local_addr()) {
        Err(VssError::Overloaded(_)) => {}
        other => panic!("the admission limit must hold while 8 streams run: {other:?}"),
    }

    // Stream 7 plays the stalled consumer: it grants no credit while its
    // seven siblings drain round-robin to completion. Byte-identity per
    // stream proves no frame ever crossed into the wrong stream.
    let laggard = streams.pop().unwrap();
    let mut drained: Vec<FrameSequence> = Vec::new();
    let mut done: Vec<bool> = vec![false; streams.len()];
    while !done.iter().all(|d| *d) {
        for (index, stream) in streams.iter_mut().enumerate() {
            if done[index] {
                continue;
            }
            match stream.next() {
                Some(chunk) => {
                    let chunk = chunk.unwrap();
                    match drained.get_mut(index) {
                        None => drained.push(chunk.frames),
                        Some(frames) => frames.extend(chunk.frames).unwrap(),
                    }
                }
                None => done[index] = true,
            }
        }
    }
    for (index, frames) in drained.iter().enumerate() {
        assert_eq!(
            frames.frames(),
            expected.frames.frames(),
            "stream {index} diverged from the in-process read"
        );
    }

    // The stalled stream catches up afterwards — its server worker parked on
    // credit the whole time without holding anything its siblings needed —
    // and interleaved control traffic on the same connection still works.
    assert!(store.metadata("cam").unwrap().bytes_used > 0);
    let mut tail: Option<FrameSequence> = None;
    for chunk in laggard {
        let chunk = chunk.unwrap();
        match &mut tail {
            None => tail = Some(chunk.frames),
            Some(frames) => frames.extend(chunk.frames).unwrap(),
        }
    }
    assert_eq!(tail.unwrap().frames(), expected.frames.frames());

    net.shutdown();
    drop(store);
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}
