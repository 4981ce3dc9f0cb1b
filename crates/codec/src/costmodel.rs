//! Transcode and look-back cost models (paper Section 3.1).
//!
//! VSS models the cost of answering a read from a candidate fragment as
//!
//! `c_t(f, P, S) = α(f_S, f_P, S, P) · |f|`
//!
//! where `α` is the per-pixel cost of converting from the fragment's spatial
//! and physical format into the requested one, and `|f|` is the fragment's
//! pixel count. The paper obtains `α` by running the vbench transcoding
//! benchmark on the installation hardware and interpolating over resolution.
//! Here the same calibration is performed against the simulated codecs
//! ([`CostModel::calibrate`]); [`CostModel::default`] ships representative
//! values so the model is usable without a calibration pass.
//!
//! Decoding a predicted frame also requires decoding the frames it depends
//! on; the paper's look-back cost is
//! `c_l(Ω, f) = |A − Ω| + η · |(Δ − A) − Ω|` with η = 1.45 (dependent frames
//! are ~45% more expensive to decode than independent frames).

use crate::{encode_to_gops, Codec, EncoderConfig};
use std::collections::BTreeMap;
use std::time::Instant;
use vss_frame::{pattern, FrameSequence, PixelFormat, Resolution};

/// Relative extra cost of decoding a dependent (P) frame versus an
/// independent (I) frame, from Costa et al. as cited by the paper.
pub const ETA_DEPENDENT_FRAME: f64 = 1.45;

/// A calibrated per-pixel cost sample for one codec at one resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSample {
    /// Pixels per frame at the calibrated resolution.
    pub pixels: u64,
    /// Nanoseconds per pixel to decode this codec.
    pub decode_ns_per_pixel: f64,
    /// Nanoseconds per pixel to encode this codec.
    pub encode_ns_per_pixel: f64,
}

/// Per-pixel transcode cost model with piecewise-linear interpolation over
/// resolution, mirroring the paper's vbench-derived `α` table.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// codec → samples ordered by pixel count.
    samples: BTreeMap<String, Vec<CostSample>>,
}

impl Default for CostModel {
    /// Representative values for the simulated codecs, used when no
    /// calibration pass has been run. They are relative plan weights — what
    /// the planner relies on is their ordering (HEVC > H.264 > raw; see
    /// `calibration_keeps_the_orderings_the_planner_relies_on`) — not
    /// measurements of this build's kernels.
    fn default() -> Self {
        let mut samples = BTreeMap::new();
        let entry = |dec: f64, enc: f64| {
            vec![
                CostSample { pixels: 320 * 180, decode_ns_per_pixel: dec, encode_ns_per_pixel: enc },
                CostSample {
                    pixels: 1920 * 1080,
                    decode_ns_per_pixel: dec * 1.1,
                    encode_ns_per_pixel: enc * 1.1,
                },
            ]
        };
        samples.insert(Codec::H264.name(), entry(14.0, 22.0));
        samples.insert(Codec::Hevc.name(), entry(19.0, 30.0));
        for fmt in PixelFormat::ALL {
            samples.insert(Codec::Raw(fmt).name(), entry(1.0, 1.0));
        }
        Self { samples }
    }
}

impl CostModel {
    /// Runs a calibration pass against the simulated codecs at the given
    /// resolutions (small resolutions keep this fast; costs are per pixel and
    /// interpolated). This mirrors VSS running vbench at installation time.
    pub fn calibrate(resolutions: &[Resolution], frames_per_gop: usize) -> Self {
        let mut samples: BTreeMap<String, Vec<CostSample>> = BTreeMap::new();
        let config = EncoderConfig { quality: 85, gop_size: frames_per_gop.max(2) };
        for &res in resolutions {
            let frames: Vec<_> = (0..frames_per_gop.max(2))
                .map(|i| pattern::gradient(res.width, res.height, PixelFormat::Yuv420, i as u64))
                .collect();
            let seq = FrameSequence::new(frames, 30.0).expect("calibration frames are uniform");
            let total_pixels = res.pixels() * seq.len() as u64;
            for codec in Codec::all() {
                let implementation = crate::codec_instance(codec);
                let start = Instant::now();
                let gops = encode_to_gops(&seq, codec, &config).expect("calibration encode");
                let encode_ns = start.elapsed().as_nanos() as f64;
                let start = Instant::now();
                for gop in &gops {
                    implementation.decode(gop).expect("calibration decode");
                }
                let decode_ns = start.elapsed().as_nanos() as f64;
                samples.entry(codec.name()).or_default().push(CostSample {
                    pixels: res.pixels(),
                    decode_ns_per_pixel: decode_ns / total_pixels as f64,
                    encode_ns_per_pixel: encode_ns / total_pixels as f64,
                });
            }
        }
        for list in samples.values_mut() {
            list.sort_by_key(|s| s.pixels);
        }
        Self { samples }
    }

    fn interpolate(&self, codec: Codec, pixels: u64, decode: bool) -> f64 {
        let list = match self.samples.get(&codec.name()) {
            Some(list) if !list.is_empty() => list,
            _ => return if codec.is_compressed() { 20.0 } else { 1.0 },
        };
        let value = |s: &CostSample| if decode { s.decode_ns_per_pixel } else { s.encode_ns_per_pixel };
        if pixels <= list[0].pixels {
            return value(&list[0]);
        }
        if pixels >= list[list.len() - 1].pixels {
            return value(&list[list.len() - 1]);
        }
        for pair in list.windows(2) {
            let (lo, hi) = (&pair[0], &pair[1]);
            if pixels >= lo.pixels && pixels <= hi.pixels {
                let t = (pixels - lo.pixels) as f64 / (hi.pixels - lo.pixels) as f64;
                return value(lo) + t * (value(hi) - value(lo));
            }
        }
        value(&list[list.len() - 1])
    }

    /// Per-pixel decode cost (ns) of a codec at a given frame pixel count.
    pub fn decode_cost_per_pixel(&self, codec: Codec, pixels_per_frame: u64) -> f64 {
        self.interpolate(codec, pixels_per_frame, true)
    }

    /// Per-pixel encode cost (ns) of a codec at a given frame pixel count.
    pub fn encode_cost_per_pixel(&self, codec: Codec, pixels_per_frame: u64) -> f64 {
        self.interpolate(codec, pixels_per_frame, false)
    }

    /// The paper's `α(S, P, S', P')`: per-pixel cost of converting from a
    /// source spatial/physical configuration to a target one. A no-op
    /// conversion (same codec, same resolution, compressed source) costs a
    /// copy; otherwise it is decode + (resample) + encode.
    pub fn alpha(
        &self,
        src_resolution: Resolution,
        src_codec: Codec,
        dst_resolution: Resolution,
        dst_codec: Codec,
    ) -> f64 {
        let same_codec = src_codec == dst_codec;
        let same_resolution = src_resolution == dst_resolution;
        if same_codec && same_resolution {
            // Pass-through: roughly a memory copy of the stored representation.
            return 0.5;
        }
        let decode = self.decode_cost_per_pixel(src_codec, src_resolution.pixels());
        let resample = if same_resolution { 0.0 } else { 3.0 };
        let encode = self.encode_cost_per_pixel(dst_codec, dst_resolution.pixels());
        decode + resample + encode
    }

    /// Full transcode cost `c_t = α · |f|` for a fragment of `pixels` pixels.
    pub fn transcode_cost(
        &self,
        pixels: u64,
        src_resolution: Resolution,
        src_codec: Codec,
        dst_resolution: Resolution,
        dst_codec: Codec,
    ) -> f64 {
        self.alpha(src_resolution, src_codec, dst_resolution, dst_codec) * pixels as f64
    }
}

/// Look-back cost `c_l(Ω, f)`: the cost of decoding the not-yet-decoded
/// frames a fragment depends on. `independent_remaining` is `|A − Ω|` and
/// `dependent_remaining` is `|(Δ − A) − Ω|`.
pub fn lookback_cost(independent_remaining: usize, dependent_remaining: usize) -> f64 {
    independent_remaining as f64 + ETA_DEPENDENT_FRAME * dependent_remaining as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_orders_codecs_sensibly() {
        let m = CostModel::default();
        let px = Resolution::R1K.pixels();
        assert!(m.decode_cost_per_pixel(Codec::Hevc, px) > m.decode_cost_per_pixel(Codec::H264, px));
        assert!(
            m.decode_cost_per_pixel(Codec::H264, px)
                > m.decode_cost_per_pixel(Codec::Raw(PixelFormat::Rgb8), px)
        );
    }

    #[test]
    fn alpha_passthrough_is_cheapest() {
        let m = CostModel::default();
        let pass = m.alpha(Resolution::R1K, Codec::H264, Resolution::R1K, Codec::H264);
        let transcode = m.alpha(Resolution::R1K, Codec::H264, Resolution::R1K, Codec::Hevc);
        let rescale = m.alpha(Resolution::R4K, Codec::H264, Resolution::R1K, Codec::H264);
        assert!(pass < transcode);
        assert!(pass < rescale);
    }

    #[test]
    fn transcode_cost_scales_with_pixels() {
        let m = CostModel::default();
        let small = m.transcode_cost(1_000, Resolution::R1K, Codec::H264, Resolution::R1K, Codec::Hevc);
        let large = m.transcode_cost(2_000, Resolution::R1K, Codec::H264, Resolution::R1K, Codec::Hevc);
        assert!((large / small - 2.0).abs() < 1e-9);
    }

    #[test]
    fn interpolation_is_within_sample_range() {
        let m = CostModel::default();
        let lo = m.decode_cost_per_pixel(Codec::H264, 320 * 180);
        let hi = m.decode_cost_per_pixel(Codec::H264, 1920 * 1080);
        let mid = m.decode_cost_per_pixel(Codec::H264, 960 * 540);
        assert!(mid >= lo.min(hi) && mid <= lo.max(hi));
        // Out-of-range queries clamp to the nearest sample.
        assert_eq!(m.decode_cost_per_pixel(Codec::H264, 10), lo);
        assert_eq!(m.decode_cost_per_pixel(Codec::H264, u64::from(u32::MAX)), hi);
    }

    #[test]
    fn lookback_cost_weights_dependent_frames() {
        assert_eq!(lookback_cost(0, 0), 0.0);
        assert_eq!(lookback_cost(2, 0), 2.0);
        assert!((lookback_cost(0, 2) - 2.9).abs() < 1e-9);
        assert!(lookback_cost(1, 1) > lookback_cost(2, 0));
    }

    #[test]
    fn calibration_keeps_the_orderings_the_planner_relies_on() {
        let resolutions = [Resolution::new(128, 128), Resolution::new(256, 256)];
        let raw = Codec::Raw(PixelFormat::Yuv420);
        let ordered = |m: &CostModel| {
            resolutions.iter().map(Resolution::pixels).all(|px| {
                m.encode_cost_per_pixel(Codec::Hevc, px) > m.encode_cost_per_pixel(Codec::H264, px)
                    && m.encode_cost_per_pixel(Codec::H264, px) > m.encode_cost_per_pixel(raw, px)
                    && m.decode_cost_per_pixel(Codec::H264, px) > m.decode_cost_per_pixel(raw, px)
                    && m.decode_cost_per_pixel(Codec::Hevc, px) > m.decode_cost_per_pixel(raw, px)
            })
        };
        // Calibration is one wall-clock sample per cell, so a pass the
        // scheduler disturbed is taken again; the gaps are 2× and more.
        assert!((0..3).any(|_| ordered(&CostModel::calibrate(&resolutions, 4))));
    }

    #[test]
    fn calibration_produces_positive_interpolable_costs() {
        let m = CostModel::calibrate(&[Resolution::new(64, 64), Resolution::new(128, 128)], 3);
        for codec in Codec::all() {
            let c = m.decode_cost_per_pixel(codec, 96 * 96);
            assert!(c > 0.0, "{codec}: {c}");
            assert!(m.encode_cost_per_pixel(codec, 96 * 96) > 0.0);
        }
        // Compressed codecs must be more expensive per pixel than raw.
        assert!(
            m.decode_cost_per_pixel(Codec::H264, 96 * 96)
                > m.decode_cost_per_pixel(Codec::Raw(PixelFormat::Yuv420), 96 * 96)
        );
    }
}
