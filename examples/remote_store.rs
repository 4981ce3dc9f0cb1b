//! VSS as a multi-process service: a loopback `vss-net` deployment.
//!
//! Starts a sharded `VssServer` with admission limits, puts the `vss-net`
//! TCP front-end before it, and drives it through `RemoteStore` — the same
//! `VideoStorage` contract every in-process store speaks:
//!
//! * streaming ingest over the wire (the server encodes and persists
//!   GOP-at-a-time),
//! * a GOP-at-a-time streaming read whose chunks arrive over TCP through a
//!   bounded client-side buffer (O(GOP) memory end to end),
//! * admission control shedding a client burst with typed `Overloaded`
//!   errors, and
//! * graceful shutdown draining every session.
//!
//! Run with `cargo run --release --example remote_store`.

use vss::net::{NetServer, RemoteStore};
use vss::prelude::*;
use vss::server::{ServerConfig, VssServer};
use vss::workload::{SceneConfig, SceneRenderer};
use vss_core::VssError;

fn main() {
    let root = std::env::temp_dir().join(format!("vss-example-remote-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // A sharded server with room for three concurrent sessions; the TCP
    // front-end admits every connection through this gate.
    let server = VssServer::open_configured(
        VssConfig::new(&root),
        4,
        ServerConfig { max_concurrent_sessions: 3, ..ServerConfig::default() },
    )
    .expect("open server");
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").expect("bind loopback");
    println!("serving VSS on {}", net.local_addr());

    // --- streaming ingest over the wire ------------------------------------
    let clip = SceneRenderer::new(SceneConfig {
        resolution: Resolution::new(128, 72),
        format: PixelFormat::Yuv420,
        ..Default::default()
    })
    .render_sequence(0, 120);
    let mut store = RemoteStore::connect(net.local_addr()).expect("dial");
    let mut sink = store
        .write_sink(&WriteRequest::new("traffic", Codec::H264), clip.frame_rate())
        .expect("open remote sink");
    for frame in clip.frames() {
        sink.push_frame(frame.clone()).expect("push frame");
    }
    let report = sink.finish().expect("finish ingest");
    println!(
        "ingested {} frames / {} GOPs over TCP ({} bytes on disk)",
        report.frames_written, report.gops_written, report.bytes_written
    );

    // --- GOP-at-a-time read over the wire ----------------------------------
    let stream = store
        .read_stream(&ReadRequest::new("traffic", 0.0, 3.0, Codec::Hevc))
        .expect("open remote stream");
    let mut chunks = 0usize;
    let mut frames = 0usize;
    let mut wire_bytes = 0u64;
    for chunk in stream {
        let chunk = chunk.expect("stream chunk");
        chunks += 1;
        frames += chunk.frames.len();
        wire_bytes += chunk.stats_delta.bytes_read;
    }
    println!("streamed {frames} frames in {chunks} GOP chunks ({wire_bytes} bytes read)");

    // --- admission control --------------------------------------------------
    // The control connection above holds one slot; a burst of five more
    // clients sees the remaining two admitted and the rest shed.
    let mut held = Vec::new();
    let mut shed = 0usize;
    for _ in 0..5 {
        match RemoteStore::connect(net.local_addr()) {
            Ok(client) => held.push(client),
            Err(VssError::Overloaded(reason)) => {
                shed += 1;
                println!("shed a client: {reason}");
            }
            Err(other) => panic!("unexpected dial error: {other:?}"),
        }
    }
    println!(
        "admission limit 3: {} admitted alongside the ingest client, {shed} shed",
        held.len()
    );
    drop(held);

    // --- graceful shutdown ---------------------------------------------------
    drop(store);
    net.shutdown();
    let drained = server.shutdown(std::time::Duration::from_secs(10));
    println!("shutdown complete (drained: {drained})");
    let _ = std::fs::remove_dir_all(root);
}
