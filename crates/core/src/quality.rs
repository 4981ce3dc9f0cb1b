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
//! * **Compression error** — estimated from mean bits per pixel on a fixed
//!   rate/quality curve per lossy codec.
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
use vss_codec::Codec;
use vss_frame::quality::{compose_mse_bound, mse_from_psnr, psnr_from_mse};
use vss_frame::{mse, resize_bilinear, Frame, PsnrDb};

/// Default quality threshold τ = ε = 40 dB ("lossless" per the paper).
pub const DEFAULT_QUALITY_THRESHOLD: PsnrDb = PsnrDb(40.0);

/// Number of frames sampled when measuring resampling error between a source
/// and a derived representation.
const SAMPLE_FRAMES: usize = 3;

/// (bits per pixel, PSNR dB) anchors of H.264's rate/quality curve, the
/// stand-in for the paper's vbench-derived table: more bits, higher
/// fidelity. HEVC reaches each quality at 0.7× the bits.
const RATE_QUALITY: [(f64, f64); 5] = [(0.05, 27.0), (0.25, 33.0), (1.0, 40.0), (3.0, 46.0), (8.0, 55.0)];

/// The quality model: composition of resampling-error bounds with estimated
/// compression error. It holds no state — the rate/quality curve is a fixed
/// table — so every estimate is an associated function, and the same record
/// always rates the same.
#[derive(Debug)]
pub struct QualityModel;

impl QualityModel {
    /// Estimated quality of a physical representation relative to the
    /// originally written video, combining its accumulated resampling-MSE
    /// bound with its estimated compression error.
    pub fn estimate_physical_quality(record: &PhysicalVideoRecord) -> PsnrDb {
        if record.is_original {
            return PsnrDb(PsnrDb::LOSSLESS_CAP);
        }
        let codec = record.codec().unwrap_or(Codec::H264);
        let compression_mse = if codec.is_compressed() {
            let bits_per_pixel = average_bits_per_pixel(record);
            mse_from_psnr(compression_psnr(codec, bits_per_pixel))
        } else {
            0.0
        };
        // The two error sources add (the paper uses the sum of both sources).
        psnr_from_mse(record.mse_bound + compression_mse)
    }

    /// True if the representation may be used to answer a read with the given
    /// quality threshold.
    pub fn acceptable(record: &PhysicalVideoRecord, threshold: PsnrDb) -> bool {
        Self::estimate_physical_quality(record).db() >= threshold.db()
    }

    /// Which of a segment's `frames` frames the resampling measurement
    /// samples: `min(3, frames)` of them, spread evenly from the first.
    pub(crate) fn sample_positions(frames: usize) -> impl Iterator<Item = usize> {
        let samples = SAMPLE_FRAMES.min(frames);
        (0..samples).map(move |i| i * (frames - 1) / samples)
    }

    /// Measures the resampling MSE of derived frames against the source
    /// frames they were produced from, given as (source, derived) pairs (a
    /// read samples at most three, spread evenly over a segment from its
    /// first frame): the mean MSE of each derived frame upsampled back to
    /// its source's resolution, summed in the order given. Returns 0 for no
    /// pairs, and for identical shapes with identical content.
    pub fn resampling_mse(samples: &[(Frame, Frame)]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for (source, derived) in samples {
            let resolution = source.resolution();
            let comparable = if derived.resolution() == resolution {
                derived.clone()
            } else {
                match resize_bilinear(derived, resolution.width, resolution.height) {
                    Ok(f) => f,
                    Err(_) => return f64::INFINITY,
                }
            };
            match mse(source, &comparable) {
                Ok(m) => total += m,
                Err(_) => return f64::INFINITY,
            }
        }
        total / samples.len() as f64
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

/// Estimated PSNR of a lossy `codec` at `bits_per_pixel`: linear between
/// the anchors of its rate/quality curve, flat beyond them.
fn compression_psnr(codec: Codec, bits_per_pixel: f64) -> PsnrDb {
    let scale = if codec == Codec::Hevc { 0.7 } else { 1.0 };
    let curve = RATE_QUALITY.map(|(bits, db)| (bits * scale, db));
    let bpp = bits_per_pixel.max(0.0);
    if bpp <= curve[0].0 {
        return PsnrDb(curve[0].1);
    }
    match curve.windows(2).find(|pair| bpp <= pair[1].0) {
        Some(&[lo, hi]) => PsnrDb(lo.1 + (bpp - lo.0) / (hi.0 - lo.0) * (hi.1 - lo.1)),
        _ => PsnrDb(curve[curve.len() - 1].1),
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
        let rec = record("hevc", true, 0.0, 10_000);
        assert_eq!(QualityModel::estimate_physical_quality(&rec).db(), PsnrDb::LOSSLESS_CAP);
        assert!(QualityModel::acceptable(&rec, DEFAULT_QUALITY_THRESHOLD));
    }

    #[test]
    fn raw_derived_copy_quality_depends_only_on_resampling() {
        let pristine = record("rgb", false, 0.0, 320 * 180 * 3 * 30);
        assert_eq!(QualityModel::estimate_physical_quality(&pristine).db(), PsnrDb::LOSSLESS_CAP);
        let downsampled = record("rgb", false, 120.0, 320 * 180 * 3 * 30);
        let q = QualityModel::estimate_physical_quality(&downsampled);
        assert!(q.db() < 30.0, "high MSE bound should be low quality, got {q}");
        assert!(!QualityModel::acceptable(&downsampled, DEFAULT_QUALITY_THRESHOLD));
    }

    #[test]
    fn heavier_compression_lowers_estimated_quality() {
        // ~0.05 bits/pixel vs ~3 bits/pixel.
        let starved = record("h264", false, 0.0, (0.05 * 320.0 * 180.0 * 30.0 / 8.0) as u64);
        let generous = record("h264", false, 0.0, (3.0 * 320.0 * 180.0 * 30.0 / 8.0) as u64);
        let q_starved = QualityModel::estimate_physical_quality(&starved);
        let q_generous = QualityModel::estimate_physical_quality(&generous);
        assert!(q_generous.db() > q_starved.db());
        assert!(QualityModel::acceptable(&generous, DEFAULT_QUALITY_THRESHOLD));
        assert!(!QualityModel::acceptable(&starved, DEFAULT_QUALITY_THRESHOLD));
    }

    #[test]
    fn compression_estimate_rises_with_bitrate_and_favours_hevc() {
        let mut last = 0.0;
        for bpp in [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
            let psnr = compression_psnr(Codec::H264, bpp).db();
            assert!(psnr >= last, "psnr should not decrease with bitrate");
            last = psnr;
        }
        assert_eq!(compression_psnr(Codec::H264, 1.0).db(), 40.0);
        assert_eq!(compression_psnr(Codec::H264, 100.0).db(), 55.0);
        assert!(compression_psnr(Codec::Hevc, 0.5).db() > compression_psnr(Codec::H264, 0.5).db());
    }

    #[test]
    fn resampling_mse_is_zero_for_identity_and_positive_for_downsampling() {
        let frames: Vec<_> =
            (0..4).map(|i| pattern::gradient(64, 64, PixelFormat::Rgb8, i as u64)).collect();
        let identity: Vec<_> = frames.iter().map(|f| (f.clone(), f.clone())).collect();
        assert_eq!(QualityModel::resampling_mse(&identity), 0.0);

        let small: Vec<_> =
            frames.iter().map(|f| (f.clone(), resize_bilinear(f, 16, 16).unwrap())).collect();
        assert!(QualityModel::resampling_mse(&small) > 0.0);
        assert_eq!(QualityModel::resampling_mse(&[]), 0.0);
    }

    #[test]
    fn sample_positions_spread_from_the_first_frame() {
        let positions = |frames| QualityModel::sample_positions(frames).collect::<Vec<_>>();
        assert_eq!(positions(0), Vec::<usize>::new());
        assert_eq!(positions(1), vec![0]);
        assert_eq!(positions(2), vec![0, 0]);
        assert_eq!(positions(60), vec![0, 19, 39]);
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
