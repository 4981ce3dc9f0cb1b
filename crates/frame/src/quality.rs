//! Quality metrics: mean squared error and peak signal-to-noise ratio.
//!
//! VSS's quality model (paper Section 3.2) rejects cached fragments whose
//! quality, relative to the originally written video, falls below a threshold
//! (40 dB by default). Quality degrades through two mechanisms — resampling
//! and lossy compression — and the paper composes transitively-resampled MSE
//! through the bound `MSE(f0, f2) <= 2 * (MSE(f0, f1) + MSE(f1, f2))`.

use crate::{Frame, FrameError};

/// A PSNR value in decibels.
///
/// The paper treats `>= 40 dB` as lossless and `>= 30 dB` as near-lossless.
/// Identical frames have infinite PSNR, represented here by
/// [`PsnrDb::LOSSLESS_CAP`] so values remain ordered and finite.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct PsnrDb(pub f64);

impl PsnrDb {
    /// Finite stand-in for "identical frames" (the paper reports values such
    /// as 350+ dB for exactly recovered frames; we cap at 400).
    pub const LOSSLESS_CAP: f64 = 400.0;

    /// Raw decibel value.
    pub fn db(&self) -> f64 {
        self.0
    }
}

impl std::fmt::Display for PsnrDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1}dB", self.0)
    }
}

/// Mean squared error between two frames of identical shape, computed over
/// the RGB interpretation of every pixel (so YUV subsampling differences are
/// reflected in the result).
///
/// Both frames are converted a row at a time. A pixel's squared differences
/// are summed as integers, which is exact and so equals their `f64` sum; the
/// per-pixel terms are accumulated in row-major order, so the result is the
/// same bits as summing `rgb_at` pixel by pixel.
pub fn mse(a: &Frame, b: &Frame) -> Result<f64, FrameError> {
    if a.width() != b.width() || a.height() != b.height() {
        return Err(FrameError::ShapeMismatch);
    }
    let row = a.width() as usize * 3;
    let (mut row_a, mut row_b) = (vec![0u8; row], vec![0u8; row]);
    let mut acc = 0.0f64;
    for y in 0..a.height() as usize {
        a.rgb_row(y, &mut row_a);
        b.rgb_row(y, &mut row_b);
        for (pa, pb) in row_a.chunks_exact(3).zip(row_b.chunks_exact(3)) {
            let d = |c: usize| i32::from(pa[c]) - i32::from(pb[c]);
            acc += f64::from(d(0) * d(0) + d(1) * d(1) + d(2) * d(2)) / 3.0;
        }
    }
    Ok(acc / (a.pixels() as f64))
}

/// PSNR between two frames of identical shape.
pub fn psnr(a: &Frame, b: &Frame) -> Result<PsnrDb, FrameError> {
    Ok(psnr_from_mse(mse(a, b)?))
}

/// Converts an MSE value into PSNR, assuming 8-bit samples (I = 255).
pub fn psnr_from_mse(mse: f64) -> PsnrDb {
    if mse <= f64::EPSILON {
        return PsnrDb(PsnrDb::LOSSLESS_CAP);
    }
    let db = 10.0 * ((255.0f64 * 255.0) / mse).log10();
    PsnrDb(db.min(PsnrDb::LOSSLESS_CAP))
}

/// Converts a PSNR value back into the corresponding MSE.
pub fn mse_from_psnr(psnr: PsnrDb) -> f64 {
    if psnr.0 >= PsnrDb::LOSSLESS_CAP {
        return 0.0;
    }
    (255.0f64 * 255.0) / 10f64.powf(psnr.0 / 10.0)
}

/// The paper's transitive MSE composition bound (Section 3.2):
///
/// `MSE(f0, f2) <= 2 * (MSE(f0, f1) + MSE(f1, f2))`.
///
/// VSS uses this to track quality across chains of cached derivations without
/// re-decoding the original. The bound composes: applying it repeatedly over a
/// chain yields a conservative estimate of end-to-end error.
pub fn compose_mse_bound(mse_0_1: f64, mse_1_2: f64) -> f64 {
    2.0 * (mse_0_1 + mse_1_2)
}

/// Average PSNR over corresponding frames of two equal-length sequences.
///
/// Returns an error if the sequences differ in length or any frame pair
/// differs in shape.
pub fn sequence_psnr(a: &[Frame], b: &[Frame]) -> Result<PsnrDb, FrameError> {
    if a.len() != b.len() || a.is_empty() {
        return Err(FrameError::ShapeMismatch);
    }
    let mut total = 0.0;
    for (fa, fb) in a.iter().zip(b.iter()) {
        total += mse(fa, fb)?;
    }
    Ok(psnr_from_mse(total / a.len() as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pattern, PixelFormat};

    #[test]
    fn identical_frames_have_capped_psnr() {
        let f = pattern::gradient(32, 32, PixelFormat::Rgb8, 3);
        let p = psnr(&f, &f).unwrap();
        assert_eq!(p.0, PsnrDb::LOSSLESS_CAP);
    }

    #[test]
    fn the_row_kernel_is_bit_identical_to_the_per_pixel_reference() {
        // The reference is the per-pixel loop `mse` was, with its own
        // BT.601 conversion rounded by `f32::round`.
        fn rgb(frame: &Frame, x: u32, y: u32) -> [f64; 3] {
            if frame.format() == PixelFormat::Rgb8 {
                let (r, g, b) = frame.rgb_at(x, y);
                return [r, g, b].map(f64::from);
            }
            let (yv, u, v) = frame.yuv_at(x, y);
            let (y, u, v) = (f32::from(yv), f32::from(u) - 128.0, f32::from(v) - 128.0);
            [y + 1.402 * v, y - 0.344_136 * u - 0.714_136 * v, y + 1.772 * u]
                .map(|c| f64::from(c.round().clamp(0.0, 255.0) as u8))
        }
        fn reference(a: &Frame, b: &Frame) -> f64 {
            let mut acc = 0.0f64;
            for y in 0..a.height() {
                for x in 0..a.width() {
                    let ([ra, ga, ba], [rb, gb, bb]) = (rgb(a, x, y), rgb(b, x, y));
                    let (dr, dg, db) = (ra - rb, ga - gb, ba - bb);
                    acc += (dr * dr + dg * dg + db * db) / 3.0;
                }
            }
            acc / (a.pixels() as f64)
        }
        // Random bytes reach every chroma pair, and so the clamps.
        let random = |width, height, format: PixelFormat, seed| {
            let mut rng = pattern::Xorshift::new(seed);
            let data = (0..format.frame_bytes(width, height)).map(|_| rng.next_u64() as u8).collect();
            Frame::from_data(width, height, format, data).unwrap()
        };
        for (width, height) in [(2, 2), (34, 18), (64, 48), (30, 7)] {
            let formats: Vec<PixelFormat> =
                PixelFormat::ALL.into_iter().filter(|f| f.validate_resolution(width, height).is_ok()).collect();
            for (i, &fa) in formats.iter().enumerate() {
                for &fb in &formats {
                    let pairs = [
                        (random(width, height, fa, 1 + i as u64), random(width, height, fb, 9)),
                        (pattern::gradient(width, height, fa, 2), pattern::add_noise(&pattern::gradient(width, height, fb, 2), 6, 4)),
                    ];
                    for (a, b) in &pairs {
                        let (fast, slow) = (mse(a, b).unwrap(), reference(a, b));
                        assert_eq!(fast.to_bits(), slow.to_bits(), "{fa} vs {fb} {width}x{height}: {fast} vs {slow}");
                    }
                }
            }
        }
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = Frame::black(8, 8, PixelFormat::Rgb8).unwrap();
        let b = Frame::black(8, 4, PixelFormat::Rgb8).unwrap();
        assert!(matches!(mse(&a, &b), Err(FrameError::ShapeMismatch)));
    }

    #[test]
    fn known_mse_gives_known_psnr() {
        // Two flat frames differing by exactly 10 in every channel: MSE = 100.
        let mut a = Frame::black(8, 8, PixelFormat::Rgb8).unwrap();
        let mut b = Frame::black(8, 8, PixelFormat::Rgb8).unwrap();
        for y in 0..8 {
            for x in 0..8 {
                a.set_rgb(x, y, (50, 50, 50));
                b.set_rgb(x, y, (60, 60, 60));
            }
        }
        let m = mse(&a, &b).unwrap();
        assert!((m - 100.0).abs() < 1e-9);
        let p = psnr_from_mse(m);
        // 10*log10(255^2/100) ≈ 28.13 dB
        assert!((p.0 - 28.13).abs() < 0.05, "psnr={p}");
    }

    #[test]
    fn psnr_mse_conversions_are_inverse() {
        for &m in &[1.0, 4.0, 25.0, 100.0, 1000.0] {
            let p = psnr_from_mse(m);
            let back = mse_from_psnr(p);
            assert!((back - m).abs() / m < 1e-9);
        }
        assert_eq!(mse_from_psnr(PsnrDb(PsnrDb::LOSSLESS_CAP)), 0.0);
    }

    #[test]
    fn composition_bound_holds_for_real_downsampling_chain() {
        // f0 -> downsample to half -> upsample back (f1) -> add noise (f2).
        let f0 = pattern::gradient(32, 32, PixelFormat::Rgb8, 7);
        let half = crate::resize_bilinear(&f0, 16, 16).unwrap();
        let f1 = crate::resize_bilinear(&half, 32, 32).unwrap();
        let f2 = pattern::add_noise(&f1, 4, 99);
        let direct = mse(&f0, &f2).unwrap();
        let bound = compose_mse_bound(mse(&f0, &f1).unwrap(), mse(&f1, &f2).unwrap());
        assert!(direct <= bound + 1e-9, "direct={direct} bound={bound}");
    }

    #[test]
    fn sequence_psnr_averages_over_frames() {
        let a = vec![
            pattern::gradient(16, 16, PixelFormat::Rgb8, 1),
            pattern::gradient(16, 16, PixelFormat::Rgb8, 2),
        ];
        let b = vec![a[0].clone(), pattern::add_noise(&a[1], 8, 5)];
        let p = sequence_psnr(&a, &b).unwrap();
        let per_frame = psnr(&a[1], &b[1]).unwrap();
        // Averaging MSE with a zero-error frame halves the MSE → +3 dB.
        assert!(p.0 > per_frame.0);
        assert!(sequence_psnr(&a, &a[..1]).is_err());
    }
}
