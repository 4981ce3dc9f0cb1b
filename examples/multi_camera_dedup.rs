//! Joint compression of two overlapping cameras (Section 5.1 of the paper):
//! estimate the homography between the views, store the overlap once, and
//! recover both views, comparing storage size and recovered quality for the
//! two merge functions.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example multi_camera_dedup
//! ```

use vss::codec::{encode_to_gops, EncoderConfig};
use vss::core::{
    joint_compress_sequences, recover_sequences, JointConfig, JointOutcome, JointTimings,
    MergeFunction,
};
use vss::frame::quality;
use vss::prelude::*;
use vss::workload::{SceneConfig, SceneRenderer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two cameras watching the same intersection with 50% horizontal overlap.
    let renderer = SceneRenderer::new(SceneConfig {
        resolution: Resolution::new(192, 108),
        format: PixelFormat::Rgb8,
        overlap: 0.5,
        vehicles: 8,
        ..Default::default()
    });
    let left = renderer.render_sequence(0, 6);
    let right = renderer.render_sequence(1, 6);

    let encoder = EncoderConfig::default();
    let separate: usize = [&left, &right]
        .iter()
        .map(|seq| {
            encode_to_gops(seq, Codec::H264, &encoder)
                .unwrap()
                .iter()
                .map(|gop| gop.byte_len())
                .sum::<usize>()
        })
        .sum();
    println!("separately compressed: {} KiB", separate / 1024);

    let config =
        JointConfig { min_correspondences: 6, recovery_threshold: vss::frame::PsnrDb(22.0) };
    for merge in [MergeFunction::Unprojected, MergeFunction::Mean] {
        let mut timings = JointTimings::default();
        let outcome =
            joint_compress_sequences(&left, &right, merge, &config, &encoder, None, &mut timings)?;
        match outcome {
            JointOutcome::Compressed(artifact) => {
                let (recovered_left, recovered_right) = recover_sequences(&artifact)?;
                let left_psnr = quality::sequence_psnr(left.frames(), recovered_left.frames())?;
                let right_psnr = quality::sequence_psnr(right.frames(), recovered_right.frames())?;
                println!(
                    "{merge:?} merge: {} KiB ({:.0}% smaller), recovered left {left_psnr}, right {right_psnr}",
                    artifact.byte_len() / 1024,
                    (1.0 - artifact.byte_len() as f64 / separate as f64) * 100.0,
                );
                println!(
                    "  overhead: features {:.2}s, homography {:.2}s, compression {:.2}s",
                    timings.feature_detection, timings.homography_estimation, timings.compression
                );
            }
            JointOutcome::Duplicate => println!("{merge:?}: views are exact duplicates"),
            JointOutcome::Aborted(reason) => println!("{merge:?}: aborted ({reason})"),
        }
    }
    Ok(())
}
