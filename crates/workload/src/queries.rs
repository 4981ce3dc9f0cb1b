//! Random read-workload generation (paper Section 6.1).
//!
//! The long-read, short-read and cache-eviction experiments populate VSS's
//! cache with reads whose temporal range, resolution and codec are drawn at
//! random. This module generates those request streams deterministically
//! from a seed so every experiment is reproducible.

use vss_codec::Codec;
use vss_core::ReadRequest;
use vss_frame::pattern::Xorshift;
use vss_frame::{PixelFormat, Resolution};

/// Parameters of a random read workload over one logical video.
#[derive(Debug, Clone)]
pub struct QueryWorkload {
    /// Logical video name the reads target.
    pub video: String,
    /// Total duration of the video in seconds.
    pub duration: f64,
    /// Minimum read length in seconds.
    pub min_length: f64,
    /// Maximum read length in seconds.
    pub max_length: f64,
    /// Source resolution of the video (used to derive downscaled variants).
    pub source_resolution: Resolution,
    /// Codecs the workload may request.
    pub codecs: Vec<Codec>,
    /// Random seed.
    pub seed: u64,
}

impl QueryWorkload {
    /// A workload matching the paper's cache-population runs: random ranges
    /// over the whole video, requesting a mix of codecs and resolutions.
    pub fn cache_population(video: impl Into<String>, duration: f64, source_resolution: Resolution, seed: u64) -> Self {
        Self {
            video: video.into(),
            duration,
            min_length: (duration / 10.0).max(0.5),
            max_length: (duration / 3.0).max(1.0),
            source_resolution,
            codecs: vec![
                Codec::Hevc,
                Codec::H264,
                Codec::Raw(PixelFormat::Yuv420),
                Codec::Raw(PixelFormat::Rgb8),
            ],
            seed,
        }
    }

    /// A workload of short (one-second) reads, as in the paper's short-read
    /// experiment.
    pub fn short_reads(video: impl Into<String>, duration: f64, source_resolution: Resolution, seed: u64) -> Self {
        Self {
            video: video.into(),
            duration,
            min_length: 1.0,
            max_length: 1.0,
            source_resolution,
            codecs: vec![Codec::Hevc, Codec::H264, Codec::Raw(PixelFormat::Yuv420)],
            seed,
        }
    }

    /// Generates `count` read requests.
    pub fn generate(&self, count: usize) -> Vec<ReadRequest> {
        let mut rng = Xorshift::new(self.seed);
        let mut requests = Vec::with_capacity(count);
        let resolutions = self.candidate_resolutions();
        for _ in 0..count {
            let length = self.min_length + rng.next_f64() * (self.max_length - self.min_length);
            let length = length.min(self.duration);
            let start = rng.next_f64() * (self.duration - length).max(0.0);
            let codec = self.codecs[rng.next_below(self.codecs.len() as u64) as usize];
            let resolution = resolutions[rng.next_below(resolutions.len() as u64) as usize];
            let mut request = ReadRequest::new(&self.video, start, start + length, codec);
            if resolution != self.source_resolution {
                request = request.resolution(resolution);
            }
            requests.push(request);
        }
        requests
    }

    /// The source resolution plus halved and quartered variants (kept even).
    fn candidate_resolutions(&self) -> Vec<Resolution> {
        let even = |v: u32| (v & !1).max(16);
        let halve = |r: Resolution, d: u32| Resolution::new(even(r.width / d), even(r.height / d));
        vec![
            self.source_resolution,
            halve(self.source_resolution, 2),
            halve(self.source_resolution, 4),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_in_range() {
        let workload = QueryWorkload::cache_population("v", 60.0, Resolution::new(320, 180), 5);
        let a = workload.generate(50);
        let b = workload.generate(50);
        assert_eq!(a.len(), 50);
        assert_eq!(a, b, "same seed produces the same workload");
        for request in &a {
            assert!(request.temporal.start >= 0.0);
            assert!(request.temporal.end <= 60.0 + 1e-9);
            assert!(request.temporal.duration() >= 0.5);
            assert!(workload.codecs.contains(&request.physical.codec));
            if let Some(r) = request.spatial.resolution {
                assert_eq!(r.width % 2, 0);
                assert_eq!(r.height % 2, 0);
            }
        }
    }

    #[test]
    fn short_read_workload_produces_one_second_reads() {
        let workload = QueryWorkload::short_reads("v", 30.0, Resolution::new(320, 180), 11);
        for request in workload.generate(20) {
            assert!((request.temporal.duration() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = QueryWorkload::cache_population("v", 60.0, Resolution::new(320, 180), 1).generate(10);
        let b = QueryWorkload::cache_population("v", 60.0, Resolution::new(320, 180), 2).generate(10);
        assert_ne!(a, b);
    }
}
