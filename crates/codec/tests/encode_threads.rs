//! No thread an encode starts outlives the call. This is the only test of
//! its binary, so the process-wide count it compares is only ever its own.

use vss_codec::{codec_instance, encode_to_gops_parallel, Codec, EncoderConfig};
use vss_frame::{pattern, Frame, FrameSequence, PixelFormat};

/// Count of live threads in this process (Linux); `None` where unsupported.
fn live_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("Threads:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn a_budget_of_four_leaves_no_thread_behind() {
    // Large enough for the encoder to share its frames with helpers.
    let frames: Vec<Frame> =
        (0..4).map(|seed| pattern::gradient(480, 272, PixelFormat::Yuv420, seed)).collect();
    let config = EncoderConfig { quality: 85, gop_size: 2 };
    let before = live_threads();
    for codec in [Codec::H264, Codec::Hevc] {
        let one = codec_instance(codec).encode_slice(&frames, 30.0, &config, 1).unwrap();
        let four = codec_instance(codec).encode_slice(&frames, 30.0, &config, 4).unwrap();
        assert_eq!(four.as_bytes(), one.as_bytes());
        let sequence = FrameSequence::new(frames.clone(), 30.0).unwrap();
        assert_eq!(encode_to_gops_parallel(&sequence, codec, &config, 4).unwrap().len(), 2);
    }
    if let (Some(before), Some(after)) = (before, live_threads()) {
        assert_eq!(after, before, "an encode left threads behind");
    }
}
