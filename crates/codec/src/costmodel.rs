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
//! Here `α` is built from a fixed table: one decode and one encode cost per
//! codec, rising linearly to 1.1× between 320×180 and 1920×1080 frames and
//! flat outside that range. No calibration runs when a store opens, because
//! plans must not depend on the host: the same store and request always
//! yield the same plan, and so the same bytes. A table measured once on the
//! benchmark's scenes replaces the constants in [`CostModel`]'s one `match`.
//!
//! Decoding a predicted frame also requires decoding the frames it depends
//! on; the paper's look-back cost is
//! `c_l(Ω, f) = |A − Ω| + η · |(Δ − A) − Ω|` with η = 1.45 (dependent frames
//! are ~45% more expensive to decode than independent frames).

use crate::Codec;
use vss_frame::Resolution;

/// Relative extra cost of decoding a dependent (P) frame versus an
/// independent (I) frame, from Costa et al. as cited by the paper.
pub const ETA_DEPENDENT_FRAME: f64 = 1.45;

/// Frame pixel count (320×180) at and below which the table's costs apply
/// as listed.
const RAMP_LOW_PIXELS: u64 = 320 * 180;

/// Frame pixel count (1920×1080) at and above which the table's costs apply
/// at `RAMP_GROWTH` times their listed value.
const RAMP_HIGH_PIXELS: u64 = 1920 * 1080;

/// Growth of every per-pixel cost from 320×180 to 1920×1080 frames.
const RAMP_GROWTH: f64 = 1.1;

/// Per-pixel transcode cost model over a fixed table, standing in for the
/// paper's vbench-derived `α`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostModel;

impl CostModel {
    /// (decode, encode) nanoseconds per pixel of `codec` at 320×180. These
    /// are relative plan weights — what the planner relies on is their
    /// ordering (HEVC > H.264 > raw) — not measurements of this build's
    /// kernels.
    fn table(codec: Codec) -> (f64, f64) {
        match codec {
            Codec::H264 => (14.0, 22.0),
            Codec::Hevc => (19.0, 30.0),
            Codec::Raw(_) => (1.0, 1.0),
        }
    }

    /// `value` at a frame of `pixels` pixels: linear from `value` at 320×180
    /// to `value · 1.1` at 1920×1080, clamped at both ends.
    fn ramp(value: f64, pixels: u64) -> f64 {
        if pixels <= RAMP_LOW_PIXELS {
            return value;
        }
        let high = value * RAMP_GROWTH;
        if pixels >= RAMP_HIGH_PIXELS {
            return high;
        }
        let t = (pixels - RAMP_LOW_PIXELS) as f64 / (RAMP_HIGH_PIXELS - RAMP_LOW_PIXELS) as f64;
        value + t * (high - value)
    }

    /// Per-pixel decode cost (ns) of a codec at a given frame pixel count.
    pub fn decode_cost_per_pixel(&self, codec: Codec, pixels_per_frame: u64) -> f64 {
        Self::ramp(Self::table(codec).0, pixels_per_frame)
    }

    /// Per-pixel encode cost (ns) of a codec at a given frame pixel count.
    pub fn encode_cost_per_pixel(&self, codec: Codec, pixels_per_frame: u64) -> f64 {
        Self::ramp(Self::table(codec).1, pixels_per_frame)
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
    use vss_frame::PixelFormat;

    #[test]
    fn default_model_orders_codecs_sensibly() {
        let m = CostModel;
        let px = Resolution::R1K.pixels();
        assert!(m.decode_cost_per_pixel(Codec::Hevc, px) > m.decode_cost_per_pixel(Codec::H264, px));
        assert!(
            m.decode_cost_per_pixel(Codec::H264, px)
                > m.decode_cost_per_pixel(Codec::Raw(PixelFormat::Rgb8), px)
        );
    }

    #[test]
    fn alpha_passthrough_is_cheapest() {
        let m = CostModel;
        let pass = m.alpha(Resolution::R1K, Codec::H264, Resolution::R1K, Codec::H264);
        let transcode = m.alpha(Resolution::R1K, Codec::H264, Resolution::R1K, Codec::Hevc);
        let rescale = m.alpha(Resolution::R4K, Codec::H264, Resolution::R1K, Codec::H264);
        assert!(pass < transcode);
        assert!(pass < rescale);
    }

    #[test]
    fn transcode_cost_scales_with_pixels() {
        let m = CostModel;
        let small = m.transcode_cost(1_000, Resolution::R1K, Codec::H264, Resolution::R1K, Codec::Hevc);
        let large = m.transcode_cost(2_000, Resolution::R1K, Codec::H264, Resolution::R1K, Codec::Hevc);
        assert!((large / small - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ramp_stays_between_its_ends() {
        let m = CostModel;
        let lo = m.decode_cost_per_pixel(Codec::H264, 320 * 180);
        let hi = m.decode_cost_per_pixel(Codec::H264, 1920 * 1080);
        let mid = m.decode_cost_per_pixel(Codec::H264, 960 * 540);
        assert!(mid >= lo.min(hi) && mid <= lo.max(hi));
        // Out-of-range queries clamp to the nearest end of the ramp.
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
}
