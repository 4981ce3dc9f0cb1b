//! The admission and stress half of the acceptance gate for the `vss-net`
//! multi-process service (the byte-identity matrix is
//! `tests/remote_streaming.rs`):
//!
//! * one admission slot serves a client's control plane and all its streams;
//! * a multi-client stress test (8+ concurrent TCP clients, mixed ops,
//!   admission limit exercised) verifies byte-identical stores vs. the
//!   sequential engine, with **zero leaked threads** and **no partial GOPs**
//!   after shutdown.
//!
//! Both tests assert on the *process-wide* thread count, so they live in a
//! binary of their own and take `LEAK_CHECK` for their whole run: the count
//! each one compares is then only ever its own, under any test runner.

mod common;

use common::{drain_chunks, live_threads, scratch, traffic_video};
use std::sync::Mutex;
use vss::net::{NetServer, RemoteStore};
use vss::prelude::*;
use vss::server::{ServerConfig, VssServer};
use vss::workload::{SceneConfig, SceneRenderer};
use vss_core::VssError;

/// Serialises the tests of this binary (see the module docs). A test that
/// failed while holding it must not fail its sibling too, hence `into_inner`.
static LEAK_CHECK: Mutex<()> = Mutex::new(());

/// PR 9 regression (streaming double-admission): a `RemoteStore` holds
/// exactly **one** admission slot no matter how many concurrent streams it
/// runs. At `max_concurrent_sessions = 1` a client whose control session is
/// live must still complete streaming reads, writes and a live subscription
/// — a streaming op that counted as a second session would make the client
/// shed *itself* with `Overloaded`.
#[test]
fn single_admission_slot_serves_control_plus_streams() {
    let _alone = LEAK_CHECK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let root = scratch("one-slot");
    let server = VssServer::open_configured(
        VssConfig::new(&root),
        1,
        ServerConfig { max_concurrent_sessions: 1, ..ServerConfig::default() },
    )
    .unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();
    let baseline_threads = live_threads();
    let video = traffic_video(60);

    let mut store = RemoteStore::connect(net.local_addr()).unwrap();
    // Control-plane traffic keeps the session busy...
    store.create("cam", None).unwrap();
    // ...while the whole data plane multiplexes onto the same slot.
    store.write(&WriteRequest::new("cam", Codec::H264), &video).unwrap();
    assert!(store.metadata("cam").unwrap().bytes_used > 0);
    let request = ReadRequest::new("cam", 0.0, 2.0, Codec::Raw(PixelFormat::Yuv420));
    let (frames, _) = drain_chunks(store.read_stream(&request).unwrap());
    assert_eq!(frames.len(), 60);

    // Two concurrent streams plus a live feed plus interleaved control ops,
    // still one slot; the second dial is the one that gets shed.
    let mut feed = store.subscribe("cam", vss::net::SubscribeFrom::Start).unwrap();
    let mut first = store.read_stream(&request).unwrap();
    let second =
        store.read_stream(&ReadRequest::new("cam", 0.0, 1.0, Codec::Hevc).uncacheable()).unwrap();
    assert!(!first.next().unwrap().unwrap().frames.is_empty());
    assert!(matches!(feed.next().unwrap().unwrap(), vss::net::SubEvent::Gop(_)));
    assert!(store.metadata("cam").is_ok());
    match RemoteStore::connect(net.local_addr()) {
        Err(VssError::Overloaded(_)) => {}
        other => panic!("second client must be shed at a limit of 1, got {other:?}"),
    }
    // Early drops reset their streams without tearing down the connection.
    drop(first);
    drop(feed);
    let (frames, _) = drain_chunks(second);
    assert_eq!(frames.len(), 30);
    assert!(store.metadata("cam").is_ok(), "connection survives stream resets");
    assert!(server.rejected_sessions() > 0);

    drop(store);
    net.shutdown();
    assert!(server.shutdown(std::time::Duration::from_secs(30)));
    if let (Some(before), Some(after)) = (baseline_threads, live_threads()) {
        assert!(after <= before, "single-slot run leaked threads: {before} -> {after}");
    }
    let _ = std::fs::remove_dir_all(root);
}

const STRESS_CLIENTS: usize = 8;
const SESSION_LIMIT: usize = 4;
const GOP_SIZE: usize = 30;

/// Retries an operation while the server sheds it with `Overloaded` — the
/// client-side half of admission control.
fn with_backoff<T>(mut op: impl FnMut() -> Result<T, VssError>) -> T {
    for _ in 0..3000 {
        match op() {
            Ok(value) => return value,
            Err(VssError::Overloaded(_)) => {
                std::thread::sleep(std::time::Duration::from_millis(5))
            }
            Err(other) => panic!("unexpected error under stress: {other:?}"),
        }
    }
    panic!("operation stayed Overloaded for 15 seconds");
}

#[test]
fn eight_tcp_clients_with_admission_limit_leave_a_byte_identical_store() {
    let _alone = LEAK_CHECK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let server_root = scratch("stress-server");
    let reference_root = scratch("stress-reference");
    let server = VssServer::open_configured(
        VssConfig::new(&server_root),
        4,
        ServerConfig { max_concurrent_sessions: SESSION_LIMIT, ..ServerConfig::default() },
    )
    .unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();
    let addr = net.local_addr();
    // Sequential ground truth: monolithic engine, one worker.
    let reference = Vss::open(VssConfig::new(&reference_root).with_parallelism(1)).unwrap();
    let baseline_threads = live_threads();

    // Mixed ops per client: wire write of its own video, streamed reads
    // (drained and early-dropped), an append, and an aborted sink mid-clip —
    // all while the session limit (4) gates 8 clients, one connection each.
    // Each attempt dials a fresh store inside its backoff loop, so a shed
    // client holds **zero** sessions while it sleeps.
    let clips: Vec<FrameSequence> = (0..STRESS_CLIENTS)
        .map(|client| {
            let renderer = SceneRenderer::new(SceneConfig {
                resolution: Resolution::new(48, 36),
                format: PixelFormat::Yuv420,
                seed: client as u64,
                ..Default::default()
            });
            renderer.render_sequence(0, 60)
        })
        .collect();
    let tail: FrameSequence = SceneRenderer::new(SceneConfig {
        resolution: Resolution::new(48, 36),
        format: PixelFormat::Yuv420,
        seed: 99,
        ..Default::default()
    })
    .render_sequence(60, 30);
    let mut handles = Vec::new();
    for (client, clip) in clips.iter().enumerate() {
        let clip = clip.clone();
        let tail = tail.clone();
        handles.push(std::thread::spawn(move || {
            let name = format!("verify-{client}");
            with_backoff(|| {
                RemoteStore::connect(addr)?.write(&WriteRequest::new(&name, Codec::H264), &clip)
            });

            // Drained stream + early-dropped stream. The store handle drops
            // at the end of the closure; the stream keeps the connection
            // (and its one session) alive until it finishes.
            let stream = with_backoff(|| {
                RemoteStore::connect(addr)?
                    .read_stream(&ReadRequest::new(&name, 0.0, 2.0, Codec::Hevc).uncacheable())
            });
            let (frames, _) = drain_chunks(stream);
            assert_eq!(frames.len(), 60);
            let mut dropped = with_backoff(|| {
                RemoteStore::connect(addr)?
                    .read_stream(&ReadRequest::new(&name, 0.0, 2.0, Codec::Hevc).uncacheable())
            });
            dropped.next().unwrap().unwrap();
            drop(dropped);

            // Append the shared tail (part of the verified content).
            with_backoff(|| RemoteStore::connect(addr)?.append(&name, &tail));

            // Abort a sink mid-clip on a churn video: after shutdown only
            // fully persisted GOPs may exist. (Explicit loop — the sink
            // borrows its store, so both live and die together per attempt.)
            let churn = format!("churn-{client}");
            loop {
                let mut store = match RemoteStore::connect(addr) {
                    Ok(store) => store,
                    Err(VssError::Overloaded(_)) => {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        continue;
                    }
                    Err(other) => panic!("unexpected dial error: {other:?}"),
                };
                let aborted = {
                    match store.write_sink(&WriteRequest::new(&churn, Codec::H264), 30.0) {
                        Ok(mut sink) => {
                            for frame in clip.frames().iter().take(GOP_SIZE + 10) {
                                sink.push_frame(frame.clone()).unwrap();
                            }
                            drop(sink); // abort
                            true
                        }
                        Err(VssError::Overloaded(_)) => false,
                        Err(other) => panic!("unexpected sink error: {other:?}"),
                    }
                };
                drop(store); // hold nothing while backing off
                if aborted {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }));
    }
    for handle in handles {
        handle.join().expect("stress client panicked");
    }
    assert!(
        server.rejected_sessions() > 0,
        "8 clients against a limit of {SESSION_LIMIT} sessions must exercise admission control"
    );

    // Build the reference store sequentially and compare byte-for-byte.
    for (client, clip) in clips.iter().enumerate() {
        let name = format!("verify-{client}");
        reference.write(&WriteRequest::new(&name, Codec::H264), clip).unwrap();
        reference.append(&name, &tail).unwrap();
    }
    let mut verifier = with_backoff(|| RemoteStore::connect(addr));
    for client in 0..STRESS_CLIENTS {
        let name = format!("verify-{client}");
        for request in [
            ReadRequest::new(&name, 0.0, 3.0, Codec::Raw(PixelFormat::Yuv420)).uncacheable(),
            ReadRequest::new(&name, 0.0, 3.0, Codec::Hevc).uncacheable(),
        ] {
            let remote = with_backoff(|| verifier.read(&request));
            let local = reference.read(&request).unwrap();
            assert_eq!(
                remote.frames.frames(),
                local.frames.frames(),
                "remote store diverged from the sequential engine on {name}"
            );
            let remote_gops: Vec<Vec<u8>> =
                remote.encoded.iter().flatten().map(|g| g.to_bytes()).collect();
            let local_gops: Vec<Vec<u8>> =
                local.encoded.iter().flatten().map(|g| g.to_bytes()).collect();
            assert_eq!(remote_gops, local_gops, "encoded GOPs diverged on {name}");
        }
    }
    drop(verifier);

    // Shutdown: network first, then drain the engine.
    net.shutdown();
    assert!(
        server.shutdown(std::time::Duration::from_secs(30)),
        "server drains all sessions after shutdown"
    );

    // No partial GOPs: every aborted churn video holds whole GOPs only.
    let session = server.session(); // trusted escape hatch for the audit
    for client in 0..STRESS_CLIENTS {
        let churn = format!("churn-{client}");
        if let Ok(metadata) = session.metadata(&churn) {
            let (start, end) = metadata.time_range.unwrap();
            let persisted = session
                .read(
                    &ReadRequest::new(&churn, start, end, Codec::Raw(PixelFormat::Yuv420))
                        .uncacheable(),
                )
                .unwrap();
            assert_eq!(
                persisted.frames.len() % GOP_SIZE,
                0,
                "aborted sink left a partial GOP on {churn}"
            );
        }
    }
    drop(session);

    // Zero leaked threads (Linux-only check): handlers and readers were all
    // joined.
    if let (Some(before), Some(after)) = (baseline_threads, live_threads()) {
        assert!(after <= before, "stress run leaked threads: {before} -> {after}");
    }
    let _ = std::fs::remove_dir_all(server_root);
    let _ = std::fs::remove_dir_all(reference_root);
}
