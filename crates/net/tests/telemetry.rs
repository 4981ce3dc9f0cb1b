//! End-to-end telemetry coverage over loopback: one request id traced
//! through client, server and engine span records, and stats snapshots
//! fetched over the wire.

use vss_codec::Codec;
use vss_core::{ReadRequest, VideoStorage, VssConfig, WriteRequest};
use vss_frame::{pattern, FrameSequence, PixelFormat};
use vss_net::{NetServer, RemoteStore};
use vss_server::VssServer;

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!(
        "vss-net-telemetry-{tag}-{}-{:?}",
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

/// The tentpole's trace demonstration: a request id minted by the client
/// appears in client-, net- and engine-layer span records of the same
/// process (client and server share it over loopback), and per-op-kind
/// latency histograms expose ordered p50/p90/p99.
#[test]
fn request_ids_trace_through_client_server_and_engine() {
    let root = temp_root("trace");
    let server = VssServer::open_sharded(VssConfig::new(&root), 1).unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();
    let mut store = RemoteStore::connect(net.local_addr()).unwrap();

    store.create("cam", None).unwrap();
    store.write(&WriteRequest::new("cam", Codec::H264), &sequence(60, 0)).unwrap();
    let read =
        store.read(&ReadRequest::new("cam", 0.0, 1.0, Codec::Raw(PixelFormat::Yuv420))).unwrap();
    assert_eq!(read.frames.len(), 30);

    // Find the client-side span of the read and follow its request id.
    let client_read = vss_telemetry::recent_spans()
        .into_iter()
        .rev()
        .find(|span| span.layer == "client" && span.op == "read_stream" && span.target == "cam")
        .expect("client read span recorded");
    let request_id = client_read.request_id.expect("client ops mint request ids");
    // The server handler's net-layer span closes just *after* the client
    // sees the end of the stream, so allow it a moment to land in the ring.
    let mut trace = Vec::new();
    for _ in 0..250 {
        trace = vss_telemetry::spans_for_request(request_id);
        if ["client", "net", "engine"]
            .iter()
            .all(|layer| trace.iter().any(|span| span.layer == *layer))
        {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let layers: Vec<&str> = trace.iter().map(|span| span.layer).collect();
    assert!(layers.contains(&"client"), "client span in trace: {layers:?}");
    assert!(layers.contains(&"net"), "server-side net span in trace: {layers:?}");
    assert!(layers.contains(&"engine"), "engine span in trace: {layers:?}");

    // Every traced op kind has a latency histogram with ordered quantiles.
    for span in &trace {
        let summary =
            vss_telemetry::snapshot().histogram(&format!("{}.{}.latency_ns", span.layer, span.op));
        let summary = summary.expect("span-kind histogram registered");
        assert!(summary.count >= 1);
        assert!(summary.p50 <= summary.p90 && summary.p90 <= summary.p99);
        assert!(summary.p99 <= summary.max.saturating_add(summary.max / 4).saturating_add(1));
    }

    net.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

/// A client can pull the server's whole telemetry snapshot over
/// the wire, and the snapshot reflects the work the connection performed
/// (wire-byte counters, admission gauges, engine histograms).
#[test]
fn stats_snapshot_round_trips_over_loopback() {
    let root = temp_root("stats");
    let server = VssServer::open_sharded(VssConfig::new(&root), 1).unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();
    let mut store = RemoteStore::connect(net.local_addr()).unwrap();

    store.create("cam", None).unwrap();
    store.write(&WriteRequest::new("cam", Codec::H264), &sequence(30, 7)).unwrap();
    let snapshot = store.stats_snapshot().unwrap();

    let received = snapshot.counter("net.conn.bytes_received").expect("wire-byte counter");
    assert!(received > 0, "ingesting frames counted received bytes");
    assert!(snapshot.counter("net.conn.accepted").unwrap_or(0) >= 1);
    let writes = snapshot.histogram("net.write.latency_ns").expect("server write-op histogram");
    assert!(writes.count >= 1);
    let wal = snapshot.histogram("wal.journal.append_ns").expect("WAL append histogram");
    assert!(wal.count >= 1, "persisting GOPs journaled catalog mutations");
    // The dump is the human-readable face of the same snapshot.
    let dump = snapshot.dump();
    assert!(dump.contains("net.conn.bytes_received"));
    assert!(dump.contains("wal.journal.append_ns"));

    net.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

