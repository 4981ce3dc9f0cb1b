//! Helpers shared by the loopback suites (`remote_streaming`,
//! `remote_stress`) and `early_drop`.
#![allow(dead_code)] // each suite uses its own subset

use vss::prelude::*;
use vss::workload::{SceneConfig, SceneRenderer};

/// Count of live threads in this process (Linux); `None` where unsupported.
pub fn live_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|line| line.starts_with("Threads:"))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|value| value.parse().ok())
}

pub fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vss-remote-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

pub fn traffic_video(frames: usize) -> FrameSequence {
    let renderer = SceneRenderer::new(SceneConfig {
        resolution: Resolution::new(96, 54),
        format: PixelFormat::Yuv420,
        ..Default::default()
    });
    renderer.render_sequence(0, frames)
}

pub fn drain_chunks(stream: ReadStream) -> (FrameSequence, Vec<Vec<u8>>) {
    let mut frames: Option<FrameSequence> = None;
    let mut gops = Vec::new();
    for chunk in stream {
        let chunk = chunk.unwrap();
        match &mut frames {
            None => frames = Some(chunk.frames),
            Some(sequence) => sequence.extend(chunk.frames).unwrap(),
        }
        if let Some(gop) = chunk.encoded_gop {
            gops.push(gop.to_bytes());
        }
    }
    (frames.unwrap_or_else(|| FrameSequence::empty(30.0).unwrap()), gops)
}
