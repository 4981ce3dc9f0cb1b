//! Golden admission bounds: a fixed sequence of cache-admitting reads, and
//! the exact `mse_bound` every view it admits records.
//!
//! The bound of a view is the resampling MSE measured on a sample of the
//! first resized segment of the read that made it, composed with the bound
//! of the sources it was read from. Any change to which frames are sampled,
//! how they are compared or in which order their errors are summed moves
//! these bits. The reads cover half and quarter resolution, HEVC, H.264 and
//! raw views, mid-GOP starts, a measuring segment that spans several GOPs,
//! a retimed read and views read from views.

use vss::catalog::Catalog;
use vss::frame::{pattern, PsnrDb};
use vss::prelude::*;

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir()
        .join(format!("vss-admission-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Three GOPs of a noisy gradient, so resampling loses real detail.
fn noisy(frames: usize) -> FrameSequence {
    let frames: Vec<_> = (0..frames as u64)
        .map(|i| {
            let base = pattern::gradient(64, 48, PixelFormat::Yuv420, i);
            pattern::add_noise(&base, 24, 7 + i)
        })
        .collect();
    FrameSequence::new(frames, 30.0).unwrap()
}

/// (codec, width, height, mse_bound bits) of every view, in admission order.
fn views(root: &std::path::Path) -> Vec<(String, u32, u32, u64)> {
    let catalog = Catalog::open(root).unwrap();
    let mut views: Vec<_> = catalog
        .video("v")
        .unwrap()
        .physical
        .iter()
        .filter(|p| !p.is_original)
        .map(|p| (p.id, (p.codec.clone(), p.width, p.height, p.mse_bound.to_bits())))
        .collect();
    views.sort_by_key(|(id, _)| *id);
    views.into_iter().map(|(_, view)| view).collect()
}

#[test]
fn admitted_views_record_the_pinned_mse_bounds() {
    let root = temp_root("bounds");
    let vss = Vss::open(VssConfig::new(&root)).unwrap();
    vss.write(&WriteRequest::new("v", Codec::H264), &noisy(90)).unwrap();
    let half = Resolution::new(32, 24);
    let quarter = Resolution::new(16, 12);
    let read = |start: f64, end: f64, codec: Codec, resolution: Resolution| {
        ReadRequest::new("v", start, end, codec)
            .resolution(resolution)
            .quality_threshold(PsnrDb(8.0))
    };
    let requests = [
        // Two GOPs of the original measured as one segment.
        read(0.0, 2.0, Codec::Hevc, half),
        // Mid-GOP start, from the half-size view or the original.
        read(0.5, 1.5, Codec::H264, quarter),
        // A raw view whose first resized segment is not the plan's first.
        read(1.0, 3.0, Codec::Raw(PixelFormat::Yuv420), half),
        // A view read from views, mid-GOP on both ends.
        read(0.2, 1.9, Codec::Hevc, quarter),
        // Retimed: the measurement samples the frames before retiming.
        read(1.5, 2.5, Codec::H264, half).fps(15.0),
        // A raw quarter-size view over a raw view.
        read(1.2, 2.8, Codec::Raw(PixelFormat::Yuv420), quarter),
    ];
    let admitted: Vec<bool> =
        requests.iter().map(|r| vss.read(r).unwrap().stats.cache_admitted).collect();
    drop(vss);
    assert_eq!(admitted, [true, true, true, true, true, true]);
    // Captured before admission moved out of the exclusive lock. Re-pinned
    // once since, when HEVC-sim began deciding its predictor family once per
    // GOP: the HEVC views' decoded frames changed, and the three bounds that
    // moved (the second, fifth and sixth view) are measured on frames read
    // from them. Only HEVC bitstreams changed, so no other input can move a
    // bound here.
    let pinned = [
        ("hevc", 32, 24, 4643834258409642475),
        ("h264", 16, 12, 4651697278376729071),
        ("yuv420", 32, 24, 4652841624690889420),
        ("hevc", 16, 12, 4658217831869351060),
        ("h264", 32, 24, 4662823486282589029),
        ("yuv420", 16, 12, 4658482985334045463),
    ]
    .map(|(codec, width, height, bits)| (codec.to_string(), width, height, bits));
    assert_eq!(views(&root), pinned);
    let _ = std::fs::remove_dir_all(root);
}
