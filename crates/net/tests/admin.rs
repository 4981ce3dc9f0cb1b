//! Introspection-plane acceptance over loopback: one multiplexed read
//! yields a single connected span tree spanning every layer; the span
//! topic, paginated stats and text exposition round-trip over the wire;
//! the retired admin topics are refused typed; and the `vss-top` binary's
//! `--once` view prints recent traces and the labeled per-shard and
//! per-stream-kind series against a live server.

use vss_codec::Codec;
use vss_core::{ReadRequest, VideoStorage, VssConfig, VssError, WriteRequest};
use vss_frame::{pattern, FrameSequence, PixelFormat};
use vss_net::wire::admin_topic;
use vss_net::{NetServer, RemoteStore};
use vss_server::VssServer;

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!(
        "vss-net-admin-{tag}-{}-{:?}",
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

/// The tentpole's acceptance: one read issued over a multiplexed
/// connection produces a **single connected span tree** — the client op is
/// the root, and client, net, server and engine layers all hang off it.
#[test]
fn one_mux_read_yields_a_connected_span_tree() {
    let root = temp_root("tree");
    let server = VssServer::open_sharded(VssConfig::new(&root), 2).unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();
    let mut store = RemoteStore::connect(net.local_addr()).unwrap();

    store.write(&WriteRequest::new("cam", Codec::H264), &sequence(60, 11)).unwrap();
    let read =
        store.read(&ReadRequest::new("cam", 0.0, 1.0, Codec::Raw(PixelFormat::Yuv420))).unwrap();
    assert_eq!(read.frames.len(), 30);

    let client_read = vss_telemetry::recent_spans()
        .into_iter()
        .rev()
        .find(|span| span.layer == "client" && span.op == "read_stream" && span.target == "cam")
        .expect("client read span recorded");
    let request_id = client_read.request_id.expect("client ops mint request ids");

    // The server-side worker span closes just after the client drains the
    // stream; give it a moment to land in the ring, then require the full
    // four-layer connected shape.
    let mut tree = vss_telemetry::span_tree(request_id);
    for _ in 0..250 {
        tree = vss_telemetry::span_tree(request_id);
        let connected = tree.is_connected()
            && ["client", "net", "server", "engine"]
                .iter()
                .all(|layer| tree.spans.iter().any(|span| span.layer == *layer));
        if connected {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let layers: Vec<&str> = tree.spans.iter().map(|span| span.layer).collect();
    for layer in ["client", "net", "server", "engine"] {
        assert!(layers.contains(&layer), "{layer} span in tree: {layers:?}");
    }
    assert!(tree.is_connected(), "one read must form a single tree:\n{}", tree.render());
    let roots = tree.roots();
    assert_eq!(roots.len(), 1);
    assert_eq!(roots[0].layer, "client", "the client op roots the trace");
    // The rendered trace nests: the engine span sits under an indented line.
    let rendered = tree.render();
    assert!(
        rendered.lines().any(|line| line.starts_with("  ") && line.contains("engine.")),
        "rendered trace nests server-side spans under the root:\n{rendered}"
    );

    net.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

/// The span topic, paginated stats and text exposition all round-trip over
/// the same connection, and the labeled series (`server.shard.*{shard=N}`,
/// `net.mux.*{kind=...}`) arrive in them.
#[test]
fn admin_plane_round_trips_over_loopback() {
    let root = temp_root("plane");
    let server = VssServer::open_sharded(VssConfig::new(&root), 2).unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();
    let mut store = RemoteStore::connect(net.local_addr()).unwrap();

    store.write(&WriteRequest::new("cam", Codec::H264), &sequence(60, 3)).unwrap();
    let read =
        store.read(&ReadRequest::new("cam", 0.0, 1.0, Codec::Raw(PixelFormat::Yuv420))).unwrap();
    assert_eq!(read.frames.len(), 30);

    // Recent traces list the read's request id; asking for that id renders
    // its tree.
    let spans = store.admin_table(admin_topic::SPANS, 0).unwrap();
    assert!(!spans.rows.is_empty(), "recent traced requests listed");
    let request_col = spans.columns.iter().position(|c| c == "request").unwrap();
    let request_id: u64 = spans.rows[0][request_col].parse().unwrap();
    let trace = store.admin_table(admin_topic::SPANS, request_id).unwrap();
    assert!(!trace.rows.is_empty(), "a listed request renders a trace");

    // The paginated snapshot carries labeled series end to end: one read-op
    // series per shard, and the shard that served the read counts it.
    let snapshot = store.stats_snapshot().unwrap();
    let shard_reads: Vec<u64> = ["0", "1"]
        .iter()
        .map(|shard| {
            snapshot
                .counter_labeled("server.shard.read_ops", &[("shard", shard)])
                .unwrap_or_else(|| panic!("no read-op series for shard {shard}"))
        })
        .collect();
    assert!(shard_reads.iter().sum::<u64>() >= 1, "the read landed on a shard: {shard_reads:?}");
    assert!(snapshot.gauge("net.conn.active") >= Some(1), "the asking connection is live");
    assert!(
        snapshot
            .counters
            .iter()
            .any(|(name, value)| name == "net.mux.streams_opened{kind=read}" && *value >= 1),
        "labeled mux stream-kind series in the wire snapshot"
    );
    // Sections arrive sorted (byte-stable emission, satellite of this PR).
    let names: Vec<&str> = snapshot.counters.iter().map(|(n, _)| n.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "counter section is sorted");

    // Prometheus-style exposition renders the same labeled series.
    let text = store.metrics_text().unwrap();
    assert!(text.contains("vss_net_mux_streams_opened{kind=\"read\"}"), "exposition: {text}");
    assert!(text.contains("vss_server_shard_read_ops{shard="), "exposition: {text}");

    // The retired topics (sessions, streams, shards) and an unknown one are
    // typed refusals, not a dead connection.
    for topic in [1, 2, 3, 99] {
        match store.admin_table(topic, 0) {
            Err(VssError::Unsupported(message)) => assert!(message.contains("topic")),
            other => panic!("topic {topic}: expected a typed Unsupported error, got {other:?}"),
        }
    }
    assert!(store.metadata("cam").is_ok(), "control connection survives the refusals");

    net.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

/// The `vss-top --once` smoke the CI job runs: against a live loopback
/// server it prints the recent traces plus the per-shard and
/// per-stream-kind labeled series.
#[test]
fn vss_top_once_prints_labeled_series() {
    let root = temp_root("top");
    let server = VssServer::open_sharded(VssConfig::new(&root), 2).unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();
    let mut store = RemoteStore::connect(net.local_addr()).unwrap();

    // Put traffic on the wire so shard and mux series have values.
    store.write(&WriteRequest::new("cam", Codec::H264), &sequence(30, 5)).unwrap();
    let read =
        store.read(&ReadRequest::new("cam", 0.0, 1.0, Codec::Raw(PixelFormat::Yuv420))).unwrap();
    assert_eq!(read.frames.len(), 30);

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_vss-top"))
        .arg(net.local_addr().to_string())
        .arg("--once")
        .output()
        .expect("vss-top runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "vss-top --once exits 0; stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("== recent traces =="), "trace table printed:\n{stdout}");
    assert!(
        stdout.contains("server.shard.read_ops{shard="),
        "per-shard labeled series printed:\n{stdout}"
    );
    assert!(
        stdout.contains("net.mux.streams_opened{kind=read}"),
        "per-stream-kind labeled series printed:\n{stdout}"
    );

    // --metrics prints the exposition format.
    let metrics = std::process::Command::new(env!("CARGO_BIN_EXE_vss-top"))
        .arg(net.local_addr().to_string())
        .arg("--metrics")
        .output()
        .expect("vss-top --metrics runs");
    assert!(metrics.status.success());
    let text = String::from_utf8_lossy(&metrics.stdout);
    assert!(text.contains("vss_server_shard_read_ops{shard="), "exposition printed:\n{text}");

    net.shutdown();
    let _ = std::fs::remove_dir_all(root);
}
