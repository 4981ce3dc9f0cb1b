//! A fully drained stream closes cleanly: no reset crosses the wire.
//!
//! The client returns one credit per fragment it consumes, the last one
//! included, and that grant usually reaches the server after the stream's
//! worker has finished. The server must ignore it rather than answer with a
//! reset. This is its own test binary because `net.mux.resets` is a
//! process-global counter: any other test sharing the process could move it.

use vss_codec::Codec;
use vss_core::{ReadRequest, VideoStorage, VssConfig, WriteRequest};
use vss_frame::{pattern, FrameSequence, PixelFormat};
use vss_net::{NetServer, RemoteStore};
use vss_server::VssServer;

fn sequence(frames: usize, seed: u64) -> FrameSequence {
    let frames: Vec<_> = (0..frames)
        .map(|i| pattern::gradient(48, 36, PixelFormat::Yuv420, seed + i as u64))
        .collect();
    FrameSequence::new(frames, 30.0).unwrap()
}

#[test]
fn drained_streams_end_without_a_reset() {
    let root = std::env::temp_dir().join(format!("vss-net-clean-close-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = VssServer::open_sharded(VssConfig::new(&root), 2).unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();
    let mut store = RemoteStore::connect(net.local_addr()).unwrap();
    store
        .write(&WriteRequest::new("cam", Codec::H264), &sequence(60, 0))
        .unwrap();
    let resets = vss_telemetry::counter("net.mux.resets");
    let before = resets.get();

    for index in 0..20 {
        let codec = if index % 2 == 0 {
            Codec::Raw(PixelFormat::Yuv420)
        } else {
            Codec::H264
        };
        let request = ReadRequest::new("cam", 0.0, 2.0, codec).uncacheable();
        let chunks: Vec<_> = store
            .read_stream(&request)
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(chunks.len(), 2, "read {index} drains both GOPs");
    }
    let mut sink = store
        .write_sink(&WriteRequest::new("sunk", Codec::H264), 30.0)
        .unwrap();
    sink.push_sequence(&sequence(60, 7)).unwrap();
    sink.finish().unwrap();
    store.append("cam", &sequence(30, 60)).unwrap();
    // One unary round trip: the server has now handled every frame the
    // client sent before it, late credit grants included.
    assert!(store.metadata("cam").unwrap().bytes_used > 0);

    assert_eq!(resets.get(), before, "a drained stream ended in a reset");
    net.shutdown();
    let _ = std::fs::remove_dir_all(root);
}
