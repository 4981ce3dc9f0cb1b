//! Streaming ingest and playback with bounded memory: frames flow into a
//! [`WriteSink`] one at a time (each GOP persists as it fills), then a
//! [`ReadStream`] transcodes the clip GOP-at-a-time for a device that only
//! plays HEVC — the whole pipeline never holds more than a few GOPs of
//! frames, regardless of clip length.
//!
//! Both directions do their per-GOP work on the calling thread: the push
//! that completes a GOP encodes and persists it before it returns, and the
//! stream decodes one GOP per step — so the sink holds less than one GOP of
//! frames and the stream at most two, whatever the clip length.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example streaming_pipeline
//! ```

use vss::prelude::*;
use vss::workload::{SceneConfig, SceneRenderer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let root = std::env::temp_dir().join("vss-example-streaming");
    let _ = std::fs::remove_dir_all(&root);
    let vss = Vss::open(VssConfig::new(&root))?;

    // --- Ingest: a camera delivering one frame at a time --------------------
    let renderer = SceneRenderer::new(SceneConfig {
        resolution: Resolution::new(160, 96),
        format: PixelFormat::Yuv420,
        ..Default::default()
    });
    let live = renderer.render_sequence(0, 150); // 5 seconds at 30 fps
    let mut sink = vss.write_sink(&WriteRequest::new("camera", Codec::H264), 30.0)?;
    for frame in live.frames() {
        sink.push_frame(frame.clone())?;
        // The sink never buffers a full GOP: the push that fills one encodes
        // it and persists it, holding the engine lock for the persist only.
        assert!(sink.buffered_frames() < 30);
    }
    let report = sink.finish()?;
    println!(
        "ingested {} frames as {} GOPs ({} KiB) without ever buffering the clip",
        report.frames_written,
        report.gops_written,
        report.bytes_written / 1024
    );

    // --- Playback: transcode to HEVC, GOP-at-a-time --------------------------
    let mut stream =
        vss.read_stream(&ReadRequest::new("camera", 0.0, 5.0, Codec::Hevc).uncacheable())?;
    let mut shipped = 0usize;
    for chunk in &mut stream {
        let chunk = chunk?;
        // Each chunk carries one encoded output GOP plus its decoded frames;
        // a real player would ship `chunk.encoded_gop` and drop the chunk.
        shipped += chunk.encoded_gop.map(|g| g.byte_len()).unwrap_or(0);
    }
    assert!(stream.peak_buffered_frames() <= 2 * 30, "at most two GOPs buffered");
    println!(
        "transcoded 5s to HEVC in GOP chunks: {} KiB shipped, peak buffer {} frames \
         (a materialized read would have held all {} frames)",
        shipped / 1024,
        stream.peak_buffered_frames(),
        report.frames_written
    );

    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}
