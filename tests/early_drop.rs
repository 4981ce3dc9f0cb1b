//! Dropping a `ReadStream` or aborting a `WriteSink` mid-clip starts and
//! leaves no thread, no partial GOP and no held shard lock. This is the only
//! test of its binary, so the process-wide thread count it compares — for
//! equality, mid-flight and after each drop — is only ever its own.

mod common;

use common::{live_threads, scratch, traffic_video};
use vss::prelude::*;
use vss::server::VssServer;

#[test]
fn early_drop_starts_no_thread_leaves_no_partial_gop_and_wedges_no_lock() {
    // A ReadStream decodes on the thread that drains it and a WriteSink
    // encodes and persists on the thread that pushes, so at parallelism 1
    // (no scoped helpers inside a GOP either) opening, partly draining and
    // dropping a stream, and pushing into and aborting a sink, must leave
    // the process's thread count exactly where it was — and no partial GOP
    // file, and every shard lock free (proven by a same-shard append plus a
    // full read of the store afterwards).
    let video = traffic_video(150);
    let root = scratch("early-drop");
    let server = VssServer::open_sharded(VssConfig::new(&root).with_parallelism(1), 2).unwrap();
    let session = server.session();
    session.write(&WriteRequest::new("cam", Codec::H264), &video).unwrap();
    let baseline_threads = live_threads();

    for consumed in [0usize, 1, 2] {
        // --- ReadStream dropped mid-clip -----------------------------------
        let mut stream = session
            .read_stream(&ReadRequest::new("cam", 0.0, 5.0, Codec::Hevc).uncacheable())
            .unwrap();
        for _ in 0..consumed {
            stream.next().unwrap().unwrap();
        }
        assert_eq!(live_threads(), baseline_threads, "an open ReadStream started a thread");
        drop(stream);

        // --- WriteSink aborted mid-clip ------------------------------------
        let aborted = format!("aborted-{consumed}");
        let mut sink = session.write_sink(&WriteRequest::new(&aborted, Codec::H264), 30.0).unwrap();
        for frame in video.frames().iter().take(75) {
            sink.push_frame(frame.clone()).unwrap();
        }
        assert_eq!(live_threads(), baseline_threads, "an open WriteSink started a thread");
        drop(sink);
        assert_eq!(live_threads(), baseline_threads, "an early drop left a thread behind");

        // The shard locks are free: a write routed to the same store (and a
        // full read of the original clip) completes immediately.
        session.append("cam", &traffic_video(30)).unwrap();
        let (start, end) = session.metadata("cam").unwrap().time_range.unwrap();
        let full = session
            .read(&ReadRequest::new("cam", start, end, Codec::Raw(PixelFormat::Yuv420)).uncacheable())
            .unwrap();
        assert_eq!(full.frames.len(), 150 + 30 * (consumed + 1));

        // Each returned push persisted its GOP, so the aborted sink left
        // exactly its two whole GOPs; the 15 buffered frames are gone.
        let (start, end) = session.metadata(&aborted).unwrap().time_range.unwrap();
        let persisted = session
            .read(
                &ReadRequest::new(&aborted, start, end, Codec::Raw(PixelFormat::Yuv420))
                    .uncacheable(),
            )
            .unwrap();
        assert_eq!(persisted.frames.len(), 2 * 30, "aborted sink left a partial GOP");
    }
    let _ = std::fs::remove_dir_all(root);
}
