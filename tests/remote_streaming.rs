//! The byte-identity half of the acceptance gate for the `vss-net`
//! multi-process service: `RemoteStore` passes the streaming equivalence
//! matrix (the `tests/streaming.rs` request matrix × parallelism {1, 4})
//! against a loopback `NetServer` — every remote stream reproduces the
//! in-process materialized read byte-for-byte, and parallelism 4 produces
//! the bytes of parallelism 1, with no thread left behind.
//! The admission and stress half lives in `tests/remote_stress.rs`; this
//! binary holds one test, so the process-wide thread count it asserts on is
//! its own.

mod common;

use common::{drain_chunks, live_threads, scratch, traffic_video};
use vss::net::{NetServer, RemoteStore};
use vss::prelude::*;
use vss::server::VssServer;

/// The request matrix of `tests/streaming.rs`, verbatim.
fn request_matrix(video: &str) -> Vec<ReadRequest> {
    vec![
        ReadRequest::new(video, 0.0, 3.0, Codec::Raw(PixelFormat::Yuv420)),
        ReadRequest::new(video, 0.0, 3.0, Codec::Raw(PixelFormat::Rgb8)).uncacheable(),
        ReadRequest::new(video, 0.0, 3.0, Codec::Hevc),
        ReadRequest::new(video, 0.0, 3.0, Codec::Hevc).uncacheable(),
        ReadRequest::new(video, 0.5, 2.5, Codec::H264).uncacheable(),
        ReadRequest::new(video, 0.0, 2.0, Codec::H264).resolution(Resolution::new(48, 28)),
        ReadRequest::new(video, 0.0, 2.0, Codec::Raw(PixelFormat::Yuv420)).fps(15.0).uncacheable(),
    ]
}

#[test]
fn remote_store_passes_the_streaming_equivalence_matrix_over_loopback() {
    let video = traffic_video(90);
    let baseline_threads = live_threads();
    // Reference bytes per request index, captured at parallelism 1:
    // parallelism 4 must reproduce them.
    let mut reference: Vec<(FrameSequence, Vec<Vec<u8>>)> = Vec::new();
    for parallelism in [1usize, 4] {
        let root = scratch(&format!("matrix-{parallelism}"));
        let server =
            VssServer::open_sharded(VssConfig::new(&root).with_parallelism(parallelism), 4).unwrap();
        let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();
        let mut remote = RemoteStore::connect(net.local_addr()).unwrap();

        // Ingest over the wire, then warm the cache in-process so later
        // plans mix original and cached fragments, like the local suite.
        remote.write(&WriteRequest::new("cam", Codec::H264), &video).unwrap();
        server.session().read(&ReadRequest::new("cam", 0.0, 2.0, Codec::Hevc)).unwrap();

        for (index, request) in request_matrix("cam").into_iter().enumerate() {
            // Remote stream first: it admits nothing server-side, so the
            // in-process materialized read that follows sees the same
            // store state the snapshot saw.
            let (frames, gops) = drain_chunks(remote.read_stream(&request).unwrap());
            let materialized = server.session().read(&request).unwrap();
            assert_eq!(
                frames.frames(),
                materialized.frames.frames(),
                "remote frames diverged from the in-process read \
                 (parallelism {parallelism}, request {request:?})"
            );
            let local_gops: Vec<Vec<u8>> =
                materialized.encoded.iter().flatten().map(|g| g.to_bytes()).collect();
            assert_eq!(gops, local_gops, "remote GOPs diverged (parallelism {parallelism})");
            match reference.get(index) {
                None => reference.push((frames, gops)),
                Some((reference_frames, reference_gops)) => {
                    assert_eq!(
                        frames.frames(),
                        reference_frames.frames(),
                        "parallelism {parallelism} changed remote bytes ({request:?})"
                    );
                    assert_eq!(&gops, reference_gops);
                }
            }
        }
        // The remote materialized read is the same drain (spot check —
        // RemoteStore::read is implemented as exactly this drain).
        let request = ReadRequest::new("cam", 0.5, 2.5, Codec::H264).uncacheable();
        let (streamed, _) = drain_chunks(remote.read_stream(&request).unwrap());
        let materialized = remote.read(&request).unwrap();
        assert_eq!(materialized.frames.frames(), streamed.frames());
        net.shutdown();
        drop(remote);
        assert!(
            server.shutdown(std::time::Duration::from_secs(30)),
            "server drains after the network front-end stops"
        );
        let _ = std::fs::remove_dir_all(root);
    }
    if let (Some(before), Some(after)) = (baseline_threads, live_threads()) {
        assert!(after <= before, "matrix run leaked threads: {before} -> {after}");
    }
}
