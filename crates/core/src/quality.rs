//! The VSS quality model (paper Section 3.2).
//!
//! VSS tracks the expected quality loss of every materialized view relative
//! to the originally written video. Error accumulates through two
//! mechanisms:
//!
//! * **Resampling error** — resolution or frame-rate changes. When VSS
//!   derives a new representation it measures the MSE against the source it
//!   was derived from, and composes it with the source's own bound using
//!   `MSE(f0, f2) ≤ 2·(MSE(f0, f1) + MSE(f1, f2))`, so the original never
//!   needs to be re-decoded.
//! * **Compression error** — estimated from mean bits per pixel via
//!   [`QualityEstimator`], optionally refined with exact PSNR samples.
//!
//! A fragment is usable for a read only if its estimated PSNR clears the
//! read's threshold (default 40 dB).
//!
//! Admission asks the same question before a view exists, of the bound
//! alone. A view's estimated error is its resampling bound *plus* a
//! compression term that is never negative, so a view whose bound already
//! fails the threshold of the read that made it can never answer that read:
//! refusing it is a proof, not a prediction. The compression term is not part
//! of the test because it comes from bytes per pixel, which deferred
//! compression and compaction still change after admission.

use vss_catalog::PhysicalVideoRecord;
use vss_codec::{Codec, QualityEstimator};
use vss_frame::quality::{compose_mse_bound, mse_from_psnr, psnr_from_mse};
use vss_frame::{mse, resize_bilinear, FrameSequence, PsnrDb};

/// Default quality threshold τ = ε = 40 dB ("lossless" per the paper).
pub const DEFAULT_QUALITY_THRESHOLD: PsnrDb = PsnrDb(40.0);

/// Number of frames sampled when measuring resampling error between a source
/// and a derived representation.
const SAMPLE_FRAMES: usize = 3;

/// The quality model: composition of resampling-error bounds with estimated
/// compression error.
#[derive(Debug, Clone, Default)]
pub struct QualityModel {
    estimator: QualityEstimator,
}

impl QualityModel {
    /// Creates a model with the default rate/quality curves.
    pub fn new() -> Self {
        Self::default()
    }

    /// Access to the underlying bits-per-pixel → PSNR estimator (for
    /// recording exact samples).
    pub fn estimator_mut(&mut self) -> &mut QualityEstimator {
        &mut self.estimator
    }

    /// Estimated quality of a physical representation relative to the
    /// originally written video, combining its accumulated resampling-MSE
    /// bound with its estimated compression error.
    pub fn estimate_physical_quality(&self, record: &PhysicalVideoRecord) -> PsnrDb {
        if record.is_original {
            return PsnrDb(PsnrDb::LOSSLESS_CAP);
        }
        let codec = record.codec().unwrap_or(Codec::H264);
        let compression_mse = if codec.is_compressed() {
            let bits_per_pixel = average_bits_per_pixel(record);
            mse_from_psnr(self.estimator.estimate(codec, bits_per_pixel))
        } else {
            0.0
        };
        // The two error sources add (the paper uses the sum of both sources).
        psnr_from_mse(record.mse_bound + compression_mse)
    }

    /// True if the representation may be used to answer a read with the given
    /// quality threshold.
    pub fn acceptable(&self, record: &PhysicalVideoRecord, threshold: PsnrDb) -> bool {
        self.estimate_physical_quality(record).db() >= threshold.db()
    }

    /// Measures the resampling MSE of a derived frame sequence against the
    /// source it was produced from, by upsampling a sample of derived frames
    /// back to the source resolution and comparing. Returns 0 for identical
    /// shapes with identical content.
    pub fn resampling_mse(source: &FrameSequence, derived: &FrameSequence) -> f64 {
        if source.is_empty() || derived.is_empty() {
            return 0.0;
        }
        let src_res = source.resolution().expect("non-empty");
        let samples = SAMPLE_FRAMES.min(source.len()).min(derived.len());
        let mut total = 0.0;
        for i in 0..samples {
            // Pick frames spread across the sequences, aligned by position.
            let src_idx = i * (source.len() - 1) / samples.max(1);
            let dst_idx = (src_idx * derived.len() / source.len()).min(derived.len() - 1);
            let src_frame = &source.frames()[src_idx];
            let derived_frame = &derived.frames()[dst_idx];
            let comparable = if derived_frame.resolution() == src_res {
                derived_frame.clone()
            } else {
                match resize_bilinear(derived_frame, src_res.width, src_res.height) {
                    Ok(f) => f,
                    Err(_) => return f64::INFINITY,
                }
            };
            match mse(src_frame, &comparable) {
                Ok(m) => total += m,
                Err(_) => return f64::INFINITY,
            }
        }
        total / samples as f64
    }

    /// Composes a source representation's accumulated MSE bound with newly
    /// measured derivation error, using the paper's transitive bound.
    pub fn compose_bound(source_mse_bound: f64, derivation_mse: f64) -> f64 {
        if source_mse_bound == 0.0 {
            // Deriving directly from the original: the measurement is exact,
            // no bound inflation needed.
            derivation_mse
        } else {
            compose_mse_bound(source_mse_bound, derivation_mse)
        }
    }
}

/// Mean bits per pixel across a physical video's stored GOPs.
pub fn average_bits_per_pixel(record: &PhysicalVideoRecord) -> f64 {
    let total_frames: usize = record.gops.iter().map(|g| g.frame_count).sum();
    if total_frames == 0 {
        return 0.0;
    }
    let pixels = record.resolution().pixels() * total_frames as u64;
    (record.byte_len() as f64 * 8.0) / pixels as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vss_catalog::GopRecord;
    use vss_frame::{pattern, PixelFormat, Resolution};

    fn record(codec: &str, is_original: bool, mse_bound: f64, bytes_per_gop: u64) -> PhysicalVideoRecord {
        PhysicalVideoRecord {
            id: 1,
            width: 320,
            height: 180,
            frame_rate: 30.0,
            codec: codec.into(),
            is_original,
            mse_bound,
            gops: vec![GopRecord {
                index: 0,
                start_time: 0.0,
                end_time: 1.0,
                frame_count: 30,
                byte_len: bytes_per_gop,
                lossless_level: None,
                last_access: vss_catalog::AtomicClock::new(0),
                crc: None,
            }],
        }
    }

    #[test]
    fn original_is_always_lossless_reference() {
        let model = QualityModel::new();
        let rec = record("hevc", true, 0.0, 10_000);
        assert_eq!(model.estimate_physical_quality(&rec).db(), PsnrDb::LOSSLESS_CAP);
        assert!(model.acceptable(&rec, DEFAULT_QUALITY_THRESHOLD));
    }

    #[test]
    fn raw_derived_copy_quality_depends_only_on_resampling() {
        let model = QualityModel::new();
        let pristine = record("rgb", false, 0.0, 320 * 180 * 3 * 30);
        assert_eq!(model.estimate_physical_quality(&pristine).db(), PsnrDb::LOSSLESS_CAP);
        let downsampled = record("rgb", false, 120.0, 320 * 180 * 3 * 30);
        let q = model.estimate_physical_quality(&downsampled);
        assert!(q.db() < 30.0, "high MSE bound should be low quality, got {q}");
        assert!(!model.acceptable(&downsampled, DEFAULT_QUALITY_THRESHOLD));
    }

    #[test]
    fn heavier_compression_lowers_estimated_quality() {
        let model = QualityModel::new();
        // ~0.05 bits/pixel vs ~3 bits/pixel.
        let starved = record("h264", false, 0.0, (0.05 * 320.0 * 180.0 * 30.0 / 8.0) as u64);
        let generous = record("h264", false, 0.0, (3.0 * 320.0 * 180.0 * 30.0 / 8.0) as u64);
        let q_starved = model.estimate_physical_quality(&starved);
        let q_generous = model.estimate_physical_quality(&generous);
        assert!(q_generous.db() > q_starved.db());
        assert!(model.acceptable(&generous, DEFAULT_QUALITY_THRESHOLD));
        assert!(!model.acceptable(&starved, DEFAULT_QUALITY_THRESHOLD));
    }

    #[test]
    fn resampling_mse_is_zero_for_identity_and_positive_for_downsampling() {
        let frames: Vec<_> =
            (0..4).map(|i| pattern::gradient(64, 64, PixelFormat::Rgb8, i as u64)).collect();
        let source = FrameSequence::new(frames, 30.0).unwrap();
        assert_eq!(QualityModel::resampling_mse(&source, &source), 0.0);

        let small: Vec<_> = source
            .frames()
            .iter()
            .map(|f| resize_bilinear(f, 16, 16).unwrap())
            .collect();
        let derived = FrameSequence::new(small, 30.0).unwrap();
        let m = QualityModel::resampling_mse(&source, &derived);
        assert!(m > 0.0);
        let empty = FrameSequence::empty(30.0).unwrap();
        assert_eq!(QualityModel::resampling_mse(&source, &empty), 0.0);
    }

    #[test]
    fn compose_bound_behaviour() {
        assert_eq!(QualityModel::compose_bound(0.0, 5.0), 5.0);
        assert_eq!(QualityModel::compose_bound(3.0, 5.0), 16.0);
    }

    #[test]
    fn bits_per_pixel_accounts_all_gops() {
        let mut rec = record("h264", false, 0.0, 1000);
        rec.gops.push(GopRecord {
            index: 1,
            start_time: 1.0,
            end_time: 2.0,
            frame_count: 30,
            byte_len: 3000,
            lossless_level: None,
            last_access: vss_catalog::AtomicClock::new(0),
            crc: None,
        });
        let bpp = average_bits_per_pixel(&rec);
        let expected = 4000.0 * 8.0 / (320.0 * 180.0 * 60.0);
        assert!((bpp - expected).abs() < 1e-12);
        assert_eq!(average_bits_per_pixel(&record("h264", false, 0.0, 0)), 0.0);
        let _ = Resolution::R1K;
    }
}
