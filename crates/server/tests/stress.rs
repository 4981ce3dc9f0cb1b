//! Concurrency stress test for the sharded server.
//!
//! `THREADS` client threads issue a mix of reads, streaming reads (drained
//! and early-dropped), writes/appends, streaming sink ingest and
//! create/delete churn across many logical videos while a test-owned thread
//! runs idle maintenance over every video underneath, so every stream
//! decodes and every sink encodes outside the shard locks while they churn.
//! The test asserts:
//!
//! * **no deadlock** — every thread finishes within a generous watchdog
//!   timeout (a locking bug would hang here, not fail an assertion);
//! * **byte-identical reads** — every verification read's frames (and, for
//!   compressed requests, encoded GOP bytes) exactly equal the same read
//!   executed on a monolithic sequential (`parallelism = 1`) engine holding
//!   the same content.
//!
//! Verification reads are non-cacheable and target videos that receive no
//! cacheable traffic, so their plans are independent of interleaving; the
//! cache-churn videos exercise admission/eviction concurrently without
//! affecting the comparison, and their cacheable streams drain lock-free
//! while maintenance rewrites, merges and evicts the files they planned.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel as bounded;
use std::sync::Arc;
use std::time::Duration;
use vss_codec::Codec;
use vss_core::{ReadRequest, Vss, VssConfig, WriteRequest};
use vss_frame::{pattern, FrameSequence, PixelFormat};
use vss_server::VssServer;

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 12;
const VERIFY_VIDEOS: usize = 3;
const CHURN_VIDEOS: usize = 2;
const WATCHDOG: Duration = Duration::from_secs(120);

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir()
        .join(format!("vss-server-stress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn sequence(seed: u64, frames: usize) -> FrameSequence {
    let frames: Vec<_> = (0..frames)
        .map(|i| pattern::gradient(48, 36, PixelFormat::Yuv420, seed * 1000 + i as u64))
        .collect();
    FrameSequence::new(frames, 30.0).unwrap()
}

#[test]
fn mixed_concurrent_workload_is_deadlock_free_and_byte_identical() {
    let server_root = temp_root("server");
    let reference_root = temp_root("reference");
    let server = VssServer::open_sharded(VssConfig::new(&server_root), 4).unwrap();
    // The sequential ground truth: the monolithic engine, one worker thread —
    // the configuration every concurrent result must match.
    let reference = Vss::open(VssConfig::new(&reference_root).with_parallelism(1)).unwrap();

    for video in 0..VERIFY_VIDEOS {
        let name = format!("verify-{video}");
        let frames = sequence(video as u64, 60);
        server.session().write(&WriteRequest::new(&name, Codec::H264), &frames).unwrap();
        reference.write(&WriteRequest::new(&name, Codec::H264), &frames).unwrap();
    }
    for video in 0..CHURN_VIDEOS {
        let name = format!("churn-{video}");
        server
            .session()
            .write(&WriteRequest::new(&name, Codec::H264), &sequence(100 + video as u64, 60))
            .unwrap();
    }

    // Maintenance sweeps every video's shard throughout the stress run, the
    // way a host runs it: one shard lock at a time, on its own schedule.
    let stop = Arc::new(AtomicBool::new(false));
    let maintenance = {
        let (server, stop) = (server.clone(), Arc::clone(&stop));
        std::thread::spawn(move || {
            let session = server.session();
            while !stop.load(Ordering::Relaxed) {
                for name in session.video_names() {
                    session.with_engine(&name, |e| e.background_maintenance()).unwrap();
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let (done_tx, done_rx) = bounded::<usize>(THREADS);
    let mut handles = Vec::new();
    for thread in 0..THREADS {
        let server = server.clone();
        let reference = reference.clone();
        let done = done_tx.clone();
        handles.push(std::thread::spawn(move || {
            let session = server.session();
            for op in 0..OPS_PER_THREAD {
                match (thread + op) % 6 {
                    // Verification read: non-cacheable, compared byte-for-byte
                    // against the sequential engine.
                    0 => {
                        let video = format!("verify-{}", (thread + op) % VERIFY_VIDEOS);
                        let start = f64::from(((thread * 7 + op) % 3) as u32) * 0.5;
                        let codec = if op % 2 == 0 {
                            Codec::Raw(PixelFormat::Yuv420)
                        } else {
                            Codec::H264
                        };
                        let request =
                            ReadRequest::new(&video, start, start + 0.5, codec).uncacheable();
                        let concurrent = session.read(&request).unwrap();
                        let sequential = reference.read(&request).unwrap();
                        assert_eq!(
                            concurrent.frames.frames(),
                            sequential.frames.frames(),
                            "decoded frames diverged from the sequential engine \
                             (thread {thread}, op {op}, {video})"
                        );
                        let concurrent_gops: Option<Vec<Vec<u8>>> = concurrent
                            .encoded
                            .as_ref()
                            .map(|gops| gops.iter().map(|g| g.to_bytes()).collect());
                        let sequential_gops: Option<Vec<Vec<u8>>> = sequential
                            .encoded
                            .as_ref()
                            .map(|gops| gops.iter().map(|g| g.to_bytes()).collect());
                        assert_eq!(
                            concurrent_gops, sequential_gops,
                            "encoded GOPs diverged from the sequential engine"
                        );
                    }
                    // Streaming verification read: drained chunk-by-chunk,
                    // byte-identical to the sequential engine's materialized
                    // read.
                    1 => {
                        let video = format!("verify-{}", (thread + op) % VERIFY_VIDEOS);
                        let start = f64::from(((thread * 5 + op) % 3) as u32) * 0.5;
                        let request =
                            ReadRequest::new(&video, start, start + 1.0, Codec::Hevc)
                                .uncacheable();
                        let streamed =
                            session.read_stream(&request).unwrap().drain().unwrap();
                        let sequential = reference.read(&request).unwrap();
                        assert_eq!(
                            streamed.frames.frames(),
                            sequential.frames.frames(),
                            "streamed frames diverged from the sequential engine \
                             (thread {thread}, op {op}, {video})"
                        );
                        let streamed_gops: Vec<Vec<u8>> = streamed
                            .encoded
                            .iter()
                            .flatten()
                            .map(|g| g.to_bytes())
                            .collect();
                        let sequential_gops: Vec<Vec<u8>> = sequential
                            .encoded
                            .iter()
                            .flatten()
                            .map(|g| g.to_bytes())
                            .collect();
                        assert_eq!(
                            streamed_gops, sequential_gops,
                            "streamed GOPs diverged from the sequential engine"
                        );
                    }
                    // Cache churn: cacheable transcoding reads that admit and
                    // evict fragments concurrently, then a cacheable stream
                    // over the churned views, drained with no lock held while
                    // maintenance compacts and compresses what it planned.
                    2 => {
                        let video = format!("churn-{}", (thread + op) % CHURN_VIDEOS);
                        let start = f64::from(((thread + op * 3) % 2) as u32) * 0.5;
                        let request = ReadRequest::new(&video, start, start + 1.0, Codec::Hevc);
                        session.read(&request).unwrap();
                        let streamed = session.read_stream(&request).unwrap().drain().unwrap();
                        assert_eq!(streamed.frames.len(), 30, "churn stream (thread {thread}, op {op})");
                    }
                    // Streaming ingest into a thread-private video: the first
                    // write goes through a WriteSink (encoding outside the
                    // shard lock while the locks churn), later ones append.
                    3 => {
                        let video = format!("private-{thread}");
                        if session.bytes_used(&video).is_err() {
                            let frames = sequence(200 + thread as u64, 30);
                            let mut sink = session
                                .write_sink(&WriteRequest::new(&video, Codec::H264), 30.0)
                                .unwrap();
                            for frame in frames.frames() {
                                sink.push_frame(frame.clone()).unwrap();
                            }
                            sink.finish().unwrap();
                        } else {
                            session.append(&video, &sequence(300 + thread as u64, 30)).unwrap();
                        }
                    }
                    // Early drop: abandon a stream mid-clip — must not wedge
                    // the shard.
                    4 => {
                        let video = format!("verify-{}", (thread + op) % VERIFY_VIDEOS);
                        let mut stream = session
                            .read_stream(
                                &ReadRequest::new(&video, 0.0, 2.0, Codec::Hevc).uncacheable(),
                            )
                            .unwrap();
                        let _ = stream.next();
                        drop(stream);
                    }
                    // Catalog churn: create + delete a transient video.
                    _ => {
                        let video = format!("tmp-{thread}-{op}");
                        session.create(&video, None).unwrap();
                        session.delete(&video).unwrap();
                    }
                }
            }
            done.send(thread).unwrap();
        }));
    }
    drop(done_tx);

    // Watchdog: a deadlock shows up as a timeout here rather than a hang.
    for _ in 0..THREADS {
        done_rx
            .recv_timeout(WATCHDOG)
            .expect("a client thread failed to finish: deadlock or panic in the server");
    }
    for handle in handles {
        handle.join().expect("client thread panicked");
    }
    stop.store(true, Ordering::Relaxed);
    maintenance.join().expect("maintenance thread panicked");

    // Every created video survived; transient ones are gone.
    let names = server.session().video_names();
    assert_eq!(names.len(), VERIFY_VIDEOS + CHURN_VIDEOS + THREADS);
    assert!(names.iter().all(|n| !n.starts_with("tmp-")));
    let stats = server.stats();
    assert!(stats.total_read_ops() > 0);
    assert!(stats.total_write_ops() > 0);
    assert!(
        stats.shards.iter().filter(|s| s.write_ops > 0).count() > 1,
        "the workload should span multiple shards; got {stats:?}"
    );

    let _ = std::fs::remove_dir_all(server_root);
    let _ = std::fs::remove_dir_all(reference_root);
}
