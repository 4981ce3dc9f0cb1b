//! Admission control and graceful shutdown of the sharded server.
//!
//! Extends the PR 4 early-drop guarantees to server shutdown: a shutdown
//! that overlaps an in-flight `write_sink` must wait for the sink (even when
//! the session that opened it was dropped first), refuse new sessions with
//! `VssError::Overloaded`, and — when the sink is aborted instead of
//! finished — leave **no partial GOP on disk**.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel as bounded;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use vss_codec::Codec;
use vss_core::{ReadRequest, VssConfig, VssError, WriteRequest};
use vss_frame::{pattern, FrameSequence, PixelFormat};
use vss_server::{ServerConfig, VssServer};

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!(
        "vss-server-shutdown-{tag}-{}-{:?}",
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

/// Runs idle maintenance over every video until `stop` is set, the way a
/// host runs it. Each pass holds a session only while it sweeps, so a
/// shutdown drain sees the server idle between passes.
fn run_maintenance(server: &VssServer, stop: &Arc<AtomicBool>) -> JoinHandle<()> {
    let (server, stop) = (server.clone(), Arc::clone(stop));
    std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            let session = server.session();
            for name in session.video_names() {
                session.with_engine(&name, |e| e.background_maintenance()).unwrap();
            }
            drop(session);
            std::thread::sleep(Duration::from_millis(5));
        }
    })
}

#[test]
fn admission_limit_sheds_sessions() {
    let root = temp_root("admission");
    let server = VssServer::open_configured(
        VssConfig::new(&root),
        2,
        ServerConfig { max_concurrent_sessions: 2, ..ServerConfig::default() },
    )
    .unwrap();
    assert_eq!(server.server_config().max_concurrent_sessions, 2);

    let first = server.try_session().unwrap();
    let second = server.try_session().unwrap();
    assert_eq!(server.active_sessions(), 2);

    // Third session: shed immediately — nothing queues.
    assert!(matches!(server.try_session(), Err(VssError::Overloaded(_))));
    assert_eq!(server.rejected_sessions(), 1);

    // Dropping a session frees its slot; the trusted in-process path always
    // admits but is still counted.
    drop(second);
    let third = server.try_session().unwrap();
    let trusted = server.session();
    assert_eq!(server.active_sessions(), 3);
    assert!(matches!(server.try_session(), Err(VssError::Overloaded(_))));
    drop((first, third, trusted));
    assert_eq!(server.active_sessions(), 0);
    assert!(server.try_session().is_ok());
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn shutdown_waits_for_in_flight_sinks_and_leaves_no_partial_gop() {
    let root = temp_root("drain");
    let server = VssServer::open_sharded(VssConfig::new(&root), 2).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let maintenance = run_maintenance(&server, &stop);
    let gop_size = 30usize;

    // A client opens a sink, pushes 2 full GOPs + a partial, *drops its
    // session*, then waits for a signal before finishing the ingest — the
    // sink alone must keep the shutdown waiting.
    let (ready_tx, ready_rx) = bounded::<()>(1);
    let (release_tx, release_rx) = bounded::<()>(1);
    let writer = {
        let server = server.clone();
        std::thread::spawn(move || {
            let session = server.try_session().unwrap();
            let mut sink =
                session.write_sink(&WriteRequest::new("cam", Codec::H264), 30.0).unwrap();
            drop(session); // the sink holds its own activity permit
            for frame in sequence(2 * 30 + 10, 7).frames() {
                sink.push_frame(frame.clone()).unwrap();
            }
            ready_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            sink.finish().unwrap()
        })
    };
    ready_rx.recv().unwrap();

    // Shutdown begins: new sessions are refused while the sink is live.
    server.begin_shutdown();
    assert!(server.is_shutting_down());
    assert!(matches!(server.try_session(), Err(VssError::Overloaded(_))));
    assert!(
        !server.shutdown(Duration::from_millis(100)),
        "shutdown must keep waiting while an incremental write is in flight"
    );

    // Let the writer finish: the drain completes and the full clip (2 GOPs +
    // the final partial flush) is on disk.
    release_tx.send(()).unwrap();
    let report = writer.join().unwrap();
    assert_eq!(report.frames_written, 2 * gop_size + 10);
    assert!(server.shutdown(Duration::from_secs(30)), "drained after the sink finished");

    stop.store(true, Ordering::Relaxed);
    maintenance.join().unwrap();
    let session = server.session(); // trusted escape hatch still works
    let (start, end) = session.metadata("cam").unwrap().time_range.unwrap();
    let full = session
        .read(&ReadRequest::new("cam", start, end, Codec::Raw(PixelFormat::Yuv420)).uncacheable())
        .unwrap();
    assert_eq!(full.frames.len(), 2 * gop_size + 10);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn shutdown_overlapping_an_aborted_sink_leaves_only_full_gops() {
    let root = temp_root("abort");
    let server = VssServer::open_sharded(VssConfig::new(&root), 2).unwrap();
    let gop_size = 30usize;

    // Push 3 full GOPs plus a partial, then *abort* (drop) the sink while a
    // shutdown is pending in another thread.
    let (pushed_tx, pushed_rx) = bounded::<()>(1);
    let (abort_tx, abort_rx) = bounded::<()>(1);
    let writer = {
        let server = server.clone();
        std::thread::spawn(move || {
            let session = server.try_session().unwrap();
            let mut sink =
                session.write_sink(&WriteRequest::new("aborted", Codec::H264), 30.0).unwrap();
            for frame in sequence(3 * 30 + 12, 11).frames() {
                sink.push_frame(frame.clone()).unwrap();
            }
            pushed_tx.send(()).unwrap();
            abort_rx.recv().unwrap();
            drop(sink); // abort mid-clip: the buffered partial GOP is discarded
        })
    };
    pushed_rx.recv().unwrap();
    let shutdown = {
        let server = server.clone();
        std::thread::spawn(move || server.shutdown(Duration::from_secs(30)))
    };
    std::thread::sleep(Duration::from_millis(20));
    abort_tx.send(()).unwrap();
    writer.join().unwrap();
    assert!(shutdown.join().unwrap(), "shutdown drains once the aborted sink is dropped");

    // Whatever prefix was persisted is whole GOPs only.
    let session = server.session();
    if let Ok(metadata) = session.metadata("aborted") {
        let (start, end) = metadata.time_range.unwrap();
        let persisted = session
            .read(
                &ReadRequest::new("aborted", start, end, Codec::Raw(PixelFormat::Yuv420))
                    .uncacheable(),
            )
            .unwrap();
        assert_eq!(
            persisted.frames.len() % gop_size,
            0,
            "shutdown overlapping an aborted sink left a partial GOP"
        );
        assert!(persisted.frames.len() <= 3 * gop_size);
    }
    let _ = std::fs::remove_dir_all(root);
}
