//! Streaming-API equivalence and bounded-memory guarantees:
//!
//! * `read_stream` drained chunk-by-chunk reproduces the materialized
//!   `read()` **byte-for-byte** across the full matrix of codec (raw and
//!   compressed) × cacheability × parallelism (1/4) × backend (monolithic
//!   `Vss` engine and sharded `vss-server` session) — and parallelism 4
//!   produces identical bytes to parallelism 1;
//! * a streaming consumer never holds more than two GOPs of frames
//!   mid-stream (the O(GOP) vs O(clip) memory win);
//! * an incremental `WriteSink` produces a byte-identical store to a batch
//!   `write()` of the same frames, through both the `Vss` handle and a
//!   server session, at parallelism 1 and 4.
//!
//! (Dropping a `ReadStream` or aborting a `WriteSink` mid-clip — no thread
//! started, no partial GOP, no wedged shard lock — is asserted on the
//! process-wide thread count and so lives alone in `tests/early_drop.rs`.)

use vss::prelude::*;
use vss::workload::{SceneConfig, SceneRenderer};
use vss_server::VssServer;

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vss-streaming-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn traffic_video(frames: usize) -> FrameSequence {
    let renderer = SceneRenderer::new(SceneConfig {
        resolution: Resolution::new(96, 54),
        format: PixelFormat::Yuv420,
        ..Default::default()
    });
    renderer.render_sequence(0, frames)
}

fn encoded_bytes(gops: &Option<Vec<vss::codec::EncodedGop>>) -> Option<Vec<Vec<u8>>> {
    gops.as_ref().map(|gops| gops.iter().map(|g| g.to_bytes()).collect())
}

/// Consumes a stream chunk-by-chunk, reassembling what a materialized read
/// would have returned.
fn drain_chunks(
    stream: ReadStream,
    source_frame_rate: f64,
) -> (FrameSequence, Vec<Vec<u8>>, usize) {
    let mut frames: Option<FrameSequence> = None;
    let mut gops = Vec::new();
    let mut stream = stream;
    for chunk in &mut stream {
        let chunk = chunk.unwrap();
        match &mut frames {
            // The output rate may differ from the source (`.fps()` requests);
            // adopt the first chunk's rate like a real consumer would.
            None => frames = Some(chunk.frames),
            Some(sequence) => sequence.extend(chunk.frames).unwrap(),
        }
        if let Some(gop) = chunk.encoded_gop {
            gops.push(gop.to_bytes());
        }
    }
    let peak = stream.peak_buffered_frames();
    (frames.unwrap_or_else(|| FrameSequence::empty(source_frame_rate).unwrap()), gops, peak)
}

/// The request matrix of the acceptance criteria: raw + compressed codecs,
/// pass-through and transcoding, sub-range entry (look-back), resolution
/// change, cacheable and not.
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
fn stream_matches_materialized_read_on_the_engine_across_parallelism() {
    let video = traffic_video(90);
    // Per-request reference output, captured at parallelism 1: parallelism 4
    // must reproduce it byte-for-byte.
    let mut reference: Vec<(FrameSequence, Vec<Vec<u8>>)> = Vec::new();
    for parallelism in [1usize, 4] {
        let root = scratch(&format!("engine-eq-{parallelism}"));
        let vss = Vss::open(VssConfig::new(&root).with_parallelism(parallelism)).unwrap();
        vss.write(&WriteRequest::new("v", Codec::H264), &video).unwrap();
        // Warm the cache so later plans mix original and cached fragments.
        vss.read(&ReadRequest::new("v", 0.0, 2.0, Codec::Hevc)).unwrap();
        for (index, request) in request_matrix("v").into_iter().enumerate() {
            // Stream first: it admits nothing, so the materialized read
            // that follows sees the same store state the snapshot saw.
            let stream = vss.read_stream(&request).unwrap();
            let (frames, gops, _) = drain_chunks(stream, video.frame_rate());
            let materialized = vss.read(&request).unwrap();
            assert_eq!(
                frames.frames(),
                materialized.frames.frames(),
                "frames diverged (parallelism {parallelism}, request {request:?})"
            );
            let materialized_gops = encoded_bytes(&materialized.encoded).unwrap_or_default();
            assert_eq!(
                gops, materialized_gops,
                "encoded GOPs diverged (parallelism {parallelism}, request {request:?})"
            );
            match reference.get(index) {
                None => reference.push((frames, gops)),
                Some((reference_frames, reference_gops)) => {
                    assert_eq!(
                        frames.frames(),
                        reference_frames.frames(),
                        "parallelism {parallelism} changed streamed frames ({request:?})"
                    );
                    assert_eq!(
                        &gops, reference_gops,
                        "parallelism {parallelism} changed streamed GOPs ({request:?})"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(root);
    }
}

#[test]
fn stream_matches_materialized_read_through_the_sharded_session() {
    let video = traffic_video(90);
    let root = scratch("session-eq");
    let server = VssServer::open_sharded(VssConfig::new(&root), 4).unwrap();
    let session = server.session();
    session.write(&WriteRequest::new("cam", Codec::H264), &video).unwrap();
    session.read(&ReadRequest::new("cam", 0.0, 2.0, Codec::Hevc)).unwrap();
    for request in request_matrix("cam") {
        // The session snapshots under the shard's read lock and decodes
        // lock-free; output must still match the locked read exactly.
        let stream = session.read_stream(&request).unwrap();
        let (frames, gops, _) = drain_chunks(stream, video.frame_rate());
        let materialized = session.read(&request).unwrap();
        assert_eq!(
            frames.frames(),
            materialized.frames.frames(),
            "session stream frames diverged ({request:?})"
        );
        assert_eq!(
            gops,
            encoded_bytes(&materialized.encoded).unwrap_or_default(),
            "session stream GOPs diverged ({request:?})"
        );
    }
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn session_streams_decode_concurrently_with_an_exclusive_writer_elsewhere() {
    // A stream opened before another video's write proceeds without blocking:
    // the snapshot released the shard lock, so decoding is lock-free.
    let video = traffic_video(60);
    let root = scratch("session-lockfree");
    let server = VssServer::open_sharded(VssConfig::new(&root), 2).unwrap();
    let session = server.session();
    session.write(&WriteRequest::new("cam-a", Codec::H264), &video).unwrap();
    let stream = session
        .read_stream(&ReadRequest::new("cam-a", 0.0, 2.0, Codec::Hevc).uncacheable())
        .unwrap();
    // With the stream open, writes to the same shard still proceed (the
    // stream holds no lock).
    session.write(&WriteRequest::new("cam-b", Codec::H264), &video).unwrap();
    session.append("cam-a", &video).unwrap();
    let (frames, gops, _) = drain_chunks(stream, video.frame_rate());
    assert_eq!(frames.len(), 60);
    assert!(!gops.is_empty());
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn streaming_reads_buffer_at_most_two_gops() {
    // 150 frames = 5 GOPs at the default GOP size of 30. A streaming
    // consumer must never see more than two GOPs buffered, for raw reads,
    // same-codec reads and transcoding reads — while the materialized read
    // necessarily buffers the whole clip.
    let video = traffic_video(150);
    let gop_size = 30usize;
    let root = scratch("bounded");
    let vss = Vss::open(VssConfig::new(&root)).unwrap();
    vss.write(&WriteRequest::new("v", Codec::H264), &video).unwrap();
    for request in [
        ReadRequest::new("v", 0.0, 5.0, Codec::Raw(PixelFormat::Yuv420)).uncacheable(),
        ReadRequest::new("v", 0.0, 5.0, Codec::H264).uncacheable(),
        ReadRequest::new("v", 0.0, 5.0, Codec::Hevc).uncacheable(),
        // Resized streaming reads stay bounded too: no stream buffers a
        // whole segment, and an uncacheable one samples nothing for
        // admission.
        ReadRequest::new("v", 0.0, 5.0, Codec::Hevc)
            .resolution(Resolution::new(48, 28))
            .uncacheable(),
    ] {
        let stream = vss.read_stream(&request).unwrap();
        let (frames, _, peak) = drain_chunks(stream, video.frame_rate());
        assert_eq!(frames.len(), 150);
        assert!(
            peak <= 2 * gop_size,
            "streaming read buffered {peak} frames (> 2 GOPs) for {request:?}"
        );
        let materialized = vss.read(&request).unwrap();
        assert!(
            materialized.stats.peak_buffered_frames >= 150,
            "materialized reads hold the whole clip"
        );
    }
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn write_sink_store_is_byte_identical_to_batch_write() {
    let video = traffic_video(75); // 2 full GOPs + 1 partial
    let collect_pages = |root: &std::path::Path| {
        let mut pages: Vec<(String, Vec<u8>)> = Vec::new();
        let mut pending = vec![root.to_path_buf()];
        while let Some(dir) = pending.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    pending.push(path);
                } else {
                    let relative = path.strip_prefix(root).unwrap().to_string_lossy().into_owned();
                    pages.push((relative, std::fs::read(&path).unwrap()));
                }
            }
        }
        pages.sort_by(|a, b| a.0.cmp(&b.0));
        pages
    };

    // Batch write through the Vss handle.
    let batch_root = scratch("sink-batch");
    let batch = Vss::open(VssConfig::new(&batch_root)).unwrap();
    let batch_report = batch.write(&WriteRequest::new("v", Codec::H264), &video).unwrap();
    let batch_pages = collect_pages(&batch_root);

    // Incremental writes through the Vss handle, pushed frame-by-frame, with
    // one thread and with four inside each GOP's encode: both must produce
    // the exact on-disk store the batch write did.
    for parallelism in [1usize, 4] {
        let sink_root = scratch(&format!("sink-inc-{parallelism}"));
        let incremental =
            Vss::open(VssConfig::new(&sink_root).with_parallelism(parallelism)).unwrap();
        let mut sink = incremental.write_sink(&WriteRequest::new("v", Codec::H264), 30.0).unwrap();
        for frame in video.frames() {
            sink.push_frame(frame.clone()).unwrap();
        }
        let sink_report = sink.finish().unwrap();
        assert_eq!(sink_report.gops_written, batch_report.gops_written);
        assert_eq!(sink_report.bytes_written, batch_report.bytes_written);
        assert_eq!(sink_report.deferred_levels, batch_report.deferred_levels);
        assert_eq!(
            batch_pages,
            collect_pages(&sink_root),
            "sink store diverged from the batch store at parallelism {parallelism}"
        );

        // Reads of the sink-written store match reads of the batch-written one.
        let request =
            ReadRequest::new("v", 0.0, 2.5, Codec::Raw(PixelFormat::Yuv420)).uncacheable();
        let a = batch.read(&request).unwrap();
        let b = incremental.read(&request).unwrap();
        assert_eq!(a.frames.frames(), b.frames.frames());
        let _ = std::fs::remove_dir_all(sink_root);
    }
    let _ = std::fs::remove_dir_all(batch_root);
}

#[test]
fn session_write_sink_matches_session_batch_write() {
    let video = traffic_video(66);
    let batch_root = scratch("session-sink-batch");
    let sink_root = scratch("session-sink-inc");
    {
        let server = VssServer::open_sharded(VssConfig::new(&batch_root), 2).unwrap();
        server.session().write(&WriteRequest::new("cam", Codec::H264), &video).unwrap();
    }
    {
        // The session sink encodes outside the shard lock and persists under
        // it, per GOP — the store must be byte-identical to the batch write.
        let server = VssServer::open_sharded(VssConfig::new(&sink_root), 2).unwrap();
        let session = server.session();
        let mut sink = session.write_sink(&WriteRequest::new("cam", Codec::H264), 30.0).unwrap();
        // Push in uneven slabs to exercise re-chunking at GOP boundaries.
        for slab in video.frames().chunks(17) {
            for frame in slab {
                sink.push_frame(frame.clone()).unwrap();
            }
        }
        let report = sink.finish().unwrap();
        assert_eq!(report.frames_written, 66);
        assert_eq!(report.gops_written, 3);
        // The sink's write was accounted by the shard.
        assert!(server.stats().total_write_ops() >= 1);
        assert!(server.stats().total_bytes_written() > 0);
    }
    // Both stores reopen and serve identical content.
    let batch = VssServer::open_sharded(VssConfig::new(&batch_root), 2).unwrap();
    let sink = VssServer::open_sharded(VssConfig::new(&sink_root), 2).unwrap();
    let request = ReadRequest::new("cam", 0.0, 2.0, Codec::Raw(PixelFormat::Yuv420)).uncacheable();
    let a = batch.session().read(&request).unwrap();
    let b = sink.session().read(&request).unwrap();
    assert_eq!(a.frames.frames(), b.frames.frames());
    let _ = std::fs::remove_dir_all(batch_root);
    let _ = std::fs::remove_dir_all(sink_root);
}

#[test]
fn stream_chunk_deltas_measure_the_streaming_win() {
    // The per-chunk stats deltas give a consumer live visibility into I/O.
    let video = traffic_video(90);
    let root = scratch("deltas");
    let vss = Vss::open(VssConfig::new(&root)).unwrap();
    vss.write(&WriteRequest::new("v", Codec::H264), &video).unwrap();
    let stream =
        vss.read_stream(&ReadRequest::new("v", 0.0, 3.0, Codec::H264).uncacheable()).unwrap();
    let mut total_bytes = 0u64;
    let mut chunks = 0usize;
    let mut stream = stream;
    for chunk in &mut stream {
        let chunk = chunk.unwrap();
        total_bytes += chunk.stats_delta.bytes_read;
        chunks += 1;
    }
    assert!(chunks >= 3, "3 seconds at GOP size 30 yields at least 3 chunks");
    let stats = stream.stats();
    assert_eq!(total_bytes, stats.bytes_read, "deltas sum to the stream totals");
    assert!(stats.bytes_read > 0);
    let _ = std::fs::remove_dir_all(root);
}
