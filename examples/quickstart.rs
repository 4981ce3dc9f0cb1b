//! Quickstart: create a store, write a video, read it back in several
//! formats, and inspect what VSS materialized along the way.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use vss::prelude::*;
use vss::workload::{SceneConfig, SceneRenderer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Open a VSS store rooted at a scratch directory.
    let root = std::env::temp_dir().join("vss-example-quickstart");
    let _ = std::fs::remove_dir_all(&root);
    let vss = Vss::open(VssConfig::new(&root))?;

    // 2. Render one minute-equivalent of synthetic traffic video (scaled down
    //    so the example runs in seconds) and write it as H.264.
    let renderer = SceneRenderer::new(SceneConfig {
        resolution: Resolution::new(160, 96),
        format: PixelFormat::Yuv420,
        ..Default::default()
    });
    let video = renderer.render_sequence(0, 90);
    println!("writing {} frames ({:.1} s of video) ...", video.len(), video.duration_seconds());
    let report = vss.write(&WriteRequest::new("traffic", Codec::H264), &video)?;
    println!(
        "  stored {} GOPs, {} KiB (budget: {} KiB)",
        report.gops_written,
        report.bytes_written / 1024,
        vss.budget_bytes("traffic")?.unwrap_or(0) / 1024
    );

    // 3. Read a low-resolution raw region — the kind of read a detection
    //    pipeline issues. VSS transparently decodes and rescales it, but does
    //    not cache it: the rescale alone puts a half-size view far below this
    //    read's default 40 dB threshold, so the view could never answer it.
    let low_res = vss.read(
        &ReadRequest::new("traffic", 0.0, 2.0, Codec::Raw(PixelFormat::Rgb8))
            .resolution(Resolution::new(80, 48)),
    )?;
    println!(
        "read {} low-resolution frames (cache admitted: {})",
        low_res.frames.len(),
        low_res.stats.cache_admitted
    );

    // 4. Read the same region as HEVC for a device that only supports HEVC.
    let hevc = vss.read(&ReadRequest::new("traffic", 0.0, 2.0, Codec::Hevc))?;
    println!(
        "read {} frames transcoded to HEVC in {} GOPs; plan cost {:.0}",
        hevc.frames.len(),
        hevc.encoded.as_ref().map(Vec::len).unwrap_or(0),
        hevc.stats.plan.total_cost
    );

    // 5. A second HEVC read of a sub-range is served from the cached copy
    //    rather than re-transcoding the original.
    let cached = vss.read(&ReadRequest::new("traffic", 0.5, 1.5, Codec::Hevc))?;
    println!(
        "second HEVC read planned {} segment(s) using fragments {:?} (cost {:.0})",
        cached.stats.plan.segments.len(),
        cached.stats.plan.fragments_used(),
        cached.stats.plan.total_cost
    );

    // 6. Stream a read GOP-at-a-time: the chunks concatenate to exactly what
    //    step 4 materialized, but the consumer only ever holds one GOP.
    let mut chunks = 0usize;
    let mut streamed_frames = 0usize;
    let stream =
        vss.read_stream(&ReadRequest::new("traffic", 0.0, 2.0, Codec::Hevc).uncacheable())?;
    for chunk in stream {
        let chunk = chunk?;
        chunks += 1;
        streamed_frames += chunk.frames.len();
    }
    println!("streamed the same read as {chunks} GOP chunk(s), {streamed_frames} frames total");

    // 7. Inspect storage accounting.
    println!(
        "store now holds {} KiB across {} logical video(s)",
        vss.bytes_used("traffic")? / 1024,
        vss.video_names().len()
    );

    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}
