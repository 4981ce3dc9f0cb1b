//! Joint physical video compression (paper Section 5.1, Algorithm 1).
//!
//! Pairs of cameras with overlapping fields of view capture largely redundant
//! pixels. VSS estimates the homography between a pair of GOPs, projects the
//! right camera's frames into the left camera's pixel space, and stores the
//! non-overlapping "left" region, the merged overlapping region, and the
//! non-overlapping "right" region as three separately encoded streams. Reads
//! invert the projection to recover both original frames.
//!
//! Two merge functions are supported: *unprojected* keeps the left camera's
//! pixels in the overlap (near-perfect recovery of the left view, lossier
//! right view) and *mean* averages both views (balanced, near-lossless both
//! ways). Every jointly compressed frame is verified by recovering it and
//! comparing against the original; pairs whose recovered quality falls below
//! the threshold re-estimate the homography once and otherwise abort, exactly
//! as Algorithm 1 prescribes. Near-identity homographies short-circuit to a
//! duplicate pointer.

use crate::config::JointConfig;
use crate::VssError;
use vss_codec::{codec_instance, Codec, CodecError, EncodedGop, EncoderConfig};
use vss_frame::{hconcat, quality, Frame, FrameSequence, PixelFormat, PsnrDb};
use vss_vision::{
    detect_keypoints, estimate_homography, match_descriptors, warp_perspective, Homography,
    KeypointParams, MatchParams, RansacParams,
};

/// Maximum squared feature distance for a correspondence (prototype d = 400).
pub(crate) const MAX_FEATURE_DISTANCE_SQ: f64 = 400.0;

/// `||H − I||₂` below which two frames are treated as exact duplicates and
/// stored as a pointer (prototype ε = 0.1).
pub(crate) const DUPLICATE_EPSILON: f64 = 0.1;

/// How overlapping pixels from the two views are merged (paper Section 5.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeFunction {
    /// Keep the unprojected (left) frame's pixels.
    Unprojected,
    /// Average the left pixels with the projected right pixels.
    Mean,
}

/// Why joint compression of a GOP pair was not performed.
#[derive(Debug, Clone, PartialEq)]
pub enum JointAbort {
    /// No homography could be estimated between the first frames.
    NoHomography,
    /// The estimated geometry implies no horizontal overlap.
    NoOverlap,
    /// A recovered frame fell below the quality threshold even after
    /// re-estimating the homography.
    QualityTooLow {
        /// The recovered quality that failed the check.
        achieved: f64,
    },
    /// The two GOPs have different frame counts or shapes.
    ShapeMismatch,
}

impl std::fmt::Display for JointAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JointAbort::NoHomography => write!(f, "no homography found"),
            JointAbort::NoOverlap => write!(f, "no horizontal overlap"),
            JointAbort::QualityTooLow { achieved } => {
                write!(f, "recovered quality {achieved:.1} dB below threshold")
            }
            JointAbort::ShapeMismatch => write!(f, "frame sequences differ in shape"),
        }
    }
}

/// The outcome of attempting to jointly compress a pair of GOPs.
#[derive(Debug, Clone)]
pub enum JointOutcome {
    /// The pair was jointly compressed.
    Compressed(Box<JointArtifact>),
    /// The pair are near-exact duplicates; the second GOP can be replaced by
    /// a pointer to the first (the `||H − I|| ≤ ε` fast path).
    Duplicate,
    /// Joint compression was aborted; the GOPs stay separately compressed.
    Aborted(JointAbort),
}

/// A jointly compressed GOP pair: three encoded streams plus the geometry
/// needed to recover both original views.
#[derive(Debug, Clone)]
pub struct JointArtifact {
    /// Homography mapping left-view coordinates into right-view coordinates.
    pub homography: Homography,
    /// Whether the operands were swapped before compression (Algorithm 1
    /// reverses the transform when `H[0][2] < 0`).
    pub swapped: bool,
    /// Merge function applied to the overlap.
    pub merge: MergeFunction,
    /// Width/height of the original frames.
    pub width: u32,
    /// Height of the original frames.
    pub height: u32,
    /// First column of the left frame covered by the overlap region.
    pub overlap_start: u32,
    /// First column of the right frame *not* covered by the overlap region.
    pub right_start: u32,
    /// Encoded non-overlapping region of the left view.
    pub left: EncodedGop,
    /// Encoded merged overlap region (in left-view coordinates).
    pub overlap: EncodedGop,
    /// Encoded non-overlapping region of the right view.
    pub right: EncodedGop,
    /// Number of homography re-estimations performed (dynamic cameras).
    pub reestimations: usize,
}

impl JointArtifact {
    /// Total encoded size in bytes.
    pub fn byte_len(&self) -> usize {
        self.left.byte_len() + self.overlap.byte_len() + self.right.byte_len()
    }

    /// Number of frames in the jointly compressed GOP pair.
    pub fn frame_count(&self) -> usize {
        self.left.frame_count()
    }
}

/// Per-pair report of a joint compression attempt, used by the benchmark
/// harness to reproduce Figures 17–19 and Table 2.
#[derive(Debug, Clone, Default)]
pub struct JointTimings {
    /// Seconds spent detecting features.
    pub feature_detection: f64,
    /// Seconds spent estimating (and re-estimating) homographies.
    pub homography_estimation: f64,
    /// Seconds spent encoding the three output streams.
    pub compression: f64,
}

/// Estimates the homography between two frames via feature detection,
/// Lowe's-ratio matching and RANSAC (Algorithm 1's `homography(f, g)`).
pub fn frame_homography(
    left: &Frame,
    right: &Frame,
    config: &JointConfig,
    timings: &mut JointTimings,
) -> Option<Homography> {
    let started = std::time::Instant::now();
    let keypoint_params = KeypointParams::default();
    let descriptors_left = detect_keypoints(left, &keypoint_params);
    let descriptors_right = detect_keypoints(right, &keypoint_params);
    timings.feature_detection += started.elapsed().as_secs_f64();

    let started = std::time::Instant::now();
    let match_params = MatchParams {
        max_distance_sq: MAX_FEATURE_DISTANCE_SQ,
        ..MatchParams::default()
    };
    let matches = match_descriptors(&descriptors_left, &descriptors_right, &match_params);
    let result = if matches.len() < config.min_correspondences.max(4) {
        None
    } else {
        estimate_homography(
            &descriptors_left,
            &descriptors_right,
            &matches,
            &RansacParams { min_inliers: config.min_correspondences.max(4), ..RansacParams::default() },
        )
        .ok()
    };
    timings.homography_estimation += started.elapsed().as_secs_f64();
    result
}

/// Splits a frame pair into left / overlap / right regions given the
/// homography from left-view to right-view coordinates (Algorithm 1's
/// `partition`). Returns `None` when the implied overlap is empty.
pub fn partition_frames(
    left: &Frame,
    right: &Frame,
    homography: &Homography,
    merge: MergeFunction,
) -> Option<(Frame, Frame, Frame)> {
    let width = left.width();
    let height = left.height();
    let inverse = homography.inverse().ok()?;
    // Column of the left frame where the right frame's left edge lands.
    let overlap_start = inverse.apply(0.0, f64::from(height) / 2.0)?.0.round();
    // Column of the right frame where the left frame's right edge lands.
    let right_start = homography.apply(f64::from(width), f64::from(height) / 2.0)?.0.round();
    if !(0.0 < overlap_start && overlap_start < f64::from(width)
        && 0.0 < right_start
        && right_start <= f64::from(width))
    {
        return None;
    }
    let overlap_start = (overlap_start as u32).clamp(2, width - 2) & !1;
    let right_start = (right_start as u32).clamp(2, width) & !1;

    let left_region = crop_columns(left, 0, overlap_start);
    // Project the right frame into left-view coordinates and take the
    // overlapping columns.
    let projected_right = warp_perspective(right, &inverse, width, height).ok()?;
    let overlap_width = width - overlap_start;
    let mut overlap = Frame::black(overlap_width, height, PixelFormat::Rgb8).ok()?;
    for y in 0..height {
        for x in 0..overlap_width {
            let left_pixel = left.rgb_at(overlap_start + x, y);
            let right_pixel = projected_right.rgb_at(overlap_start + x, y);
            let merged = match merge {
                MergeFunction::Unprojected => left_pixel,
                MergeFunction::Mean => (
                    ((u16::from(left_pixel.0) + u16::from(right_pixel.0)) / 2) as u8,
                    ((u16::from(left_pixel.1) + u16::from(right_pixel.1)) / 2) as u8,
                    ((u16::from(left_pixel.2) + u16::from(right_pixel.2)) / 2) as u8,
                ),
            };
            overlap.set_rgb(x, y, merged);
        }
    }
    let right_region = crop_columns(right, right_start, right.width());
    Some((left_region, overlap, right_region))
}

/// Recovers the left and right frames from partitioned regions.
#[allow(clippy::too_many_arguments)]
pub fn recover_frames(
    left_region: &Frame,
    overlap: &Frame,
    right_region: &Frame,
    homography: &Homography,
    width: u32,
    height: u32,
    overlap_start: u32,
    right_start: u32,
) -> Result<(Frame, Frame), VssError> {
    // Left view: non-overlapping left columns followed by the overlap.
    let left = hconcat(left_region, overlap)?;

    // Right view: reproject the overlap into right-view coordinates, then
    // append the non-overlapping right columns.
    let mut right_overlap = Frame::black(right_start.max(2), height, PixelFormat::Rgb8)?;
    for y in 0..height {
        for x in 0..right_start {
            // Right-view pixel (x, y) corresponds to left-view coordinates
            // H⁻¹(x, y); the overlap image starts at column `overlap_start`.
            if let Some((lx, ly)) = homography.inverse()?.apply(f64::from(x), f64::from(y)) {
                let ox = lx - f64::from(overlap_start);
                if ox >= 0.0 && ox <= f64::from(overlap.width() - 1) && ly >= 0.0 && ly <= f64::from(height - 1)
                {
                    right_overlap.set_rgb(x, y, vss_vision::warp::sample_bilinear(overlap, ox, ly));
                    continue;
                }
            }
        }
    }
    let right = hconcat(&right_overlap, right_region)?;
    // Both views must come back at the original width (partition guarantees
    // the column arithmetic, but resolutions are clamped to even numbers).
    debug_assert_eq!(left.width(), width);
    Ok((left, right))
}

fn crop_columns(frame: &Frame, x0: u32, x1: u32) -> Frame {
    let roi = vss_frame::RegionOfInterest::new(x0, 0, x1.max(x0 + 2), frame.height())
        .expect("non-empty column range");
    vss_frame::crop(&frame.convert(PixelFormat::Rgb8).expect("rgb conversion"), &roi)
        .expect("crop within bounds")
}

/// Jointly compresses two frame sequences captured by overlapping cameras
/// (Algorithm 1). `reestimate_every` forces periodic homography
/// re-estimation, modelling dynamic cameras; `None` re-estimates only when
/// quality verification fails.
pub fn joint_compress_sequences(
    left: &FrameSequence,
    right: &FrameSequence,
    merge: MergeFunction,
    config: &JointConfig,
    encoder: &EncoderConfig,
    reestimate_every: Option<usize>,
    timings: &mut JointTimings,
) -> Result<JointOutcome, VssError> {
    joint_compress_inner(left, right, merge, config, encoder, reestimate_every, timings, true)
}

#[allow(clippy::too_many_arguments)]
fn joint_compress_inner(
    left: &FrameSequence,
    right: &FrameSequence,
    merge: MergeFunction,
    config: &JointConfig,
    encoder: &EncoderConfig,
    reestimate_every: Option<usize>,
    timings: &mut JointTimings,
    allow_swap: bool,
) -> Result<JointOutcome, VssError> {
    if left.len() != right.len() || left.is_empty() || left.resolution() != right.resolution() {
        return Ok(JointOutcome::Aborted(JointAbort::ShapeMismatch));
    }
    let left_rgb: Vec<Frame> = convert_all(left)?;
    let right_rgb: Vec<Frame> = convert_all(right)?;

    let Some(mut homography) = frame_homography(&left_rgb[0], &right_rgb[0], config, timings) else {
        return Ok(JointOutcome::Aborted(JointAbort::NoHomography));
    };
    // Exact-duplicate fast path.
    if homography.distance_from_identity() <= DUPLICATE_EPSILON {
        return Ok(JointOutcome::Duplicate);
    }

    let width = left_rgb[0].width();
    let height = left_rgb[0].height();
    let first_partition = partition_frames(&left_rgb[0], &right_rgb[0], &homography, merge);
    let Some((first_left, first_overlap, first_right)) = first_partition else {
        // The overlap is oriented the other way (Algorithm 1 reverses the
        // transform when the shift points leftward): retry once with the
        // operands swapped and mark the artifact accordingly.
        if allow_swap {
            let swapped = joint_compress_inner(
                right,
                left,
                merge,
                config,
                encoder,
                reestimate_every,
                timings,
                false,
            )?;
            return Ok(match swapped {
                JointOutcome::Compressed(mut artifact) => {
                    artifact.swapped = true;
                    JointOutcome::Compressed(artifact)
                }
                other => other,
            });
        }
        return Ok(JointOutcome::Aborted(JointAbort::NoOverlap));
    };
    let overlap_start = width - first_overlap.width();
    let right_start = width - first_right.width();

    let mut left_parts = vec![first_left];
    let mut overlap_parts = vec![first_overlap];
    let mut right_parts = vec![first_right];
    let mut reestimations = 0usize;
    // The most recent homography that passed verification; used as a
    // fallback when a re-estimated transform turns out to be worse.
    let mut last_good = homography;

    for index in 1..left_rgb.len() {
        if let Some(period) = reestimate_every {
            if period > 0 && index % period == 0 {
                if let Some(updated) = frame_homography(&left_rgb[index], &right_rgb[index], config, timings)
                {
                    homography = updated;
                    reestimations += 1;
                }
            }
        }
        let mut attempt = 0;
        loop {
            let parts =
                partition_with_fixed_columns(&left_rgb[index], &right_rgb[index], &homography, merge, overlap_start, right_start);
            let verified = parts.as_ref().map(|(l, o, r)| {
                verify_recovery(
                    &left_rgb[index],
                    &right_rgb[index],
                    l,
                    o,
                    r,
                    &homography,
                    width,
                    height,
                    overlap_start,
                    right_start,
                    config.recovery_threshold,
                )
            });
            match (parts, verified) {
                (Some((l, o, r)), Some(Ok(()))) => {
                    left_parts.push(l);
                    overlap_parts.push(o);
                    right_parts.push(r);
                    last_good = homography;
                    break;
                }
                (_, verdict) if attempt == 0 => {
                    // Re-estimate the homography once, then retry this frame.
                    attempt += 1;
                    match frame_homography(&left_rgb[index], &right_rgb[index], config, timings) {
                        Some(h) => {
                            homography = h;
                            reestimations += 1;
                        }
                        None => {
                            let achieved = match verdict {
                                Some(Err(db)) => db,
                                _ => 0.0,
                            };
                            return Ok(JointOutcome::Aborted(JointAbort::QualityTooLow { achieved }));
                        }
                    }
                }
                (_, _) if attempt == 1 => {
                    // The re-estimate was no better; fall back to the last
                    // homography that passed verification before giving up.
                    attempt += 1;
                    homography = last_good;
                }
                (_, verdict) => {
                    let achieved = match verdict {
                        Some(Err(db)) => db,
                        _ => 0.0,
                    };
                    return Ok(JointOutcome::Aborted(JointAbort::QualityTooLow { achieved }));
                }
            }
        }
    }

    // Encode the three streams.
    let started = std::time::Instant::now();
    let encode = |frames: Vec<Frame>| -> Result<EncodedGop, CodecError> {
        let sequence = FrameSequence::new(frames, left.frame_rate())?;
        codec_instance(Codec::H264).encode(&sequence, encoder)
    };
    let artifact = JointArtifact {
        homography,
        swapped: false,
        merge,
        width,
        height,
        overlap_start,
        right_start,
        left: encode(left_parts)?,
        overlap: encode(overlap_parts)?,
        right: encode(right_parts)?,
        reestimations,
    };
    timings.compression += started.elapsed().as_secs_f64();
    Ok(JointOutcome::Compressed(Box::new(artifact)))
}

/// Recovers both original frame sequences from a joint artifact.
pub fn recover_sequences(artifact: &JointArtifact) -> Result<(FrameSequence, FrameSequence), VssError> {
    let codec = codec_instance(Codec::H264);
    let left_parts = codec.decode(&artifact.left)?;
    let overlap_parts = codec.decode(&artifact.overlap)?;
    let right_parts = codec.decode(&artifact.right)?;
    let mut left_frames = Vec::with_capacity(left_parts.len());
    let mut right_frames = Vec::with_capacity(left_parts.len());
    for i in 0..left_parts.len() {
        let (l, r) = recover_frames(
            &left_parts.frames()[i].convert(PixelFormat::Rgb8)?,
            &overlap_parts.frames()[i].convert(PixelFormat::Rgb8)?,
            &right_parts.frames()[i].convert(PixelFormat::Rgb8)?,
            &artifact.homography,
            artifact.width,
            artifact.height,
            artifact.overlap_start,
            artifact.right_start,
        )?;
        left_frames.push(l);
        right_frames.push(r);
    }
    let left = FrameSequence::new(left_frames, artifact.left.frame_rate())?;
    let right = FrameSequence::new(right_frames, artifact.right.frame_rate())?;
    if artifact.swapped {
        Ok((right, left))
    } else {
        Ok((left, right))
    }
}

fn convert_all(sequence: &FrameSequence) -> Result<Vec<Frame>, VssError> {
    sequence.frames().iter().map(|f| f.convert(PixelFormat::Rgb8).map_err(VssError::from)).collect()
}

fn partition_with_fixed_columns(
    left: &Frame,
    right: &Frame,
    homography: &Homography,
    merge: MergeFunction,
    overlap_start: u32,
    right_start: u32,
) -> Option<(Frame, Frame, Frame)> {
    let width = left.width();
    let height = left.height();
    let inverse = homography.inverse().ok()?;
    let left_region = crop_columns(left, 0, overlap_start);
    let projected_right = warp_perspective(right, &inverse, width, height).ok()?;
    let overlap_width = width - overlap_start;
    let mut overlap = Frame::black(overlap_width, height, PixelFormat::Rgb8).ok()?;
    for y in 0..height {
        for x in 0..overlap_width {
            let left_pixel = left.rgb_at(overlap_start + x, y);
            let right_pixel = projected_right.rgb_at(overlap_start + x, y);
            let merged = match merge {
                MergeFunction::Unprojected => left_pixel,
                MergeFunction::Mean => (
                    ((u16::from(left_pixel.0) + u16::from(right_pixel.0)) / 2) as u8,
                    ((u16::from(left_pixel.1) + u16::from(right_pixel.1)) / 2) as u8,
                    ((u16::from(left_pixel.2) + u16::from(right_pixel.2)) / 2) as u8,
                ),
            };
            overlap.set_rgb(x, y, merged);
        }
    }
    let right_region = crop_columns(right, right_start, width);
    Some((left_region, overlap, right_region))
}

/// Verifies Algorithm 1's quality condition by recovering both frames and
/// comparing them to the originals; returns the failing PSNR on error.
#[allow(clippy::too_many_arguments)]
fn verify_recovery(
    original_left: &Frame,
    original_right: &Frame,
    left_region: &Frame,
    overlap: &Frame,
    right_region: &Frame,
    homography: &Homography,
    width: u32,
    height: u32,
    overlap_start: u32,
    right_start: u32,
    threshold: PsnrDb,
) -> Result<(), f64> {
    let Ok((recovered_left, recovered_right)) = recover_frames(
        left_region,
        overlap,
        right_region,
        homography,
        width,
        height,
        overlap_start,
        right_start,
    ) else {
        return Err(0.0);
    };
    let left_psnr = quality::psnr(original_left, &recovered_left).map_err(|_| 0.0)?;
    let right_psnr = quality::psnr(original_right, &recovered_right).map_err(|_| 0.0)?;
    let worst = left_psnr.db().min(right_psnr.db());
    if worst < threshold.db() {
        Err(worst)
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vss_frame::pattern;

    /// Renders a simple "road scene" viewed by two cameras whose fields of
    /// view overlap horizontally by `overlap_fraction`.
    fn stereo_pair(frames: usize, overlap_fraction: f64) -> (FrameSequence, FrameSequence) {
        let width = 128u32;
        let height = 96u32;
        let world_width = (2.0 * f64::from(width) - overlap_fraction * f64::from(width)) as i64;
        let shift = (f64::from(width) * (1.0 - overlap_fraction)) as i64;
        let mut left = Vec::new();
        let mut right = Vec::new();
        for t in 0..frames {
            let mut world =
                Frame::black(world_width as u32, height, PixelFormat::Rgb8).unwrap();
            // Sky, road and a few moving "vehicles".
            pattern::fill_rect(&mut world, 0, 0, world_width as u32, height / 3, (110, 160, 230));
            pattern::fill_rect(&mut world, 0, (height / 3) as i64, world_width as u32, height, (70, 70, 75));
            for lane in 0..3i64 {
                let x = (t as i64 * 3 + lane * 60) % world_width;
                let colors = [(200, 40, 40), (40, 180, 60), (220, 200, 60)];
                pattern::fill_rect(
                    &mut world,
                    x,
                    (height / 2) as i64 + lane * 12,
                    24,
                    10,
                    colors[lane as usize],
                );
            }
            let roi_left = vss_frame::RegionOfInterest::new(0, 0, width, height).unwrap();
            let roi_right =
                vss_frame::RegionOfInterest::new(shift as u32, 0, shift as u32 + width, height).unwrap();
            left.push(vss_frame::crop(&world, &roi_left).unwrap());
            right.push(vss_frame::crop(&world, &roi_right).unwrap());
        }
        (FrameSequence::new(left, 30.0).unwrap(), FrameSequence::new(right, 30.0).unwrap())
    }

    fn default_setup() -> (JointConfig, EncoderConfig) {
        // The synthetic scenes are small; require fewer correspondences and
        // tolerate the warp's interpolation loss.
        let config = JointConfig { min_correspondences: 6, recovery_threshold: PsnrDb(22.0) };
        (config, EncoderConfig::with_quality(90))
    }

    #[test]
    fn overlapping_pair_compresses_and_recovers() {
        let (left, right) = stereo_pair(4, 0.5);
        let (config, encoder) = default_setup();
        let mut timings = JointTimings::default();
        let outcome = joint_compress_sequences(
            &left,
            &right,
            MergeFunction::Unprojected,
            &config,
            &encoder,
            None,
            &mut timings,
        )
        .unwrap();
        let JointOutcome::Compressed(artifact) = outcome else {
            panic!("expected compression, got {outcome:?}");
        };
        assert_eq!(artifact.frame_count(), 4);
        assert!(timings.feature_detection > 0.0);
        assert!(timings.compression > 0.0);
        let (recovered_left, recovered_right) = recover_sequences(&artifact).unwrap();
        let left_psnr = quality::sequence_psnr(left.frames(), recovered_left.frames()).unwrap();
        let right_psnr = quality::sequence_psnr(right.frames(), recovered_right.frames()).unwrap();
        // Unprojected merge: left view recovers near-perfectly, right view
        // near-losslessly (paper Table 2's qualitative split).
        assert!(left_psnr.db() > 35.0, "left view should be high quality, got {left_psnr}");
        assert!(right_psnr.db() > 20.0, "right view should be watchable, got {right_psnr}");
        assert!(left_psnr.db() > right_psnr.db());
    }

    #[test]
    fn joint_compression_saves_space_versus_separate_encoding() {
        let (left, right) = stereo_pair(4, 0.6);
        let (config, encoder) = default_setup();
        let mut timings = JointTimings::default();
        let outcome = joint_compress_sequences(
            &left,
            &right,
            MergeFunction::Mean,
            &config,
            &encoder,
            None,
            &mut timings,
        )
        .unwrap();
        let JointOutcome::Compressed(artifact) = outcome else { panic!("expected compression") };
        let separate: usize = [&left, &right]
            .iter()
            .map(|seq| {
                codec_instance(Codec::H264).encode(seq, &encoder).unwrap().byte_len()
            })
            .sum();
        assert!(
            artifact.byte_len() < separate,
            "joint ({}) should be smaller than separate ({separate})",
            artifact.byte_len()
        );
    }

    #[test]
    fn identical_sequences_short_circuit_to_duplicate() {
        let (left, _) = stereo_pair(3, 0.5);
        let (config, encoder) = default_setup();
        let mut timings = JointTimings::default();
        let outcome = joint_compress_sequences(
            &left,
            &left,
            MergeFunction::Unprojected,
            &config,
            &encoder,
            None,
            &mut timings,
        )
        .unwrap();
        assert!(matches!(outcome, JointOutcome::Duplicate), "{outcome:?}");
    }

    #[test]
    fn unrelated_content_aborts() {
        let (left, _) = stereo_pair(3, 0.5);
        let noise: Vec<Frame> =
            (0..3).map(|i| pattern::noise(128, 96, PixelFormat::Rgb8, 100 + i)).collect();
        let noise = FrameSequence::new(noise, 30.0).unwrap();
        let (config, encoder) = default_setup();
        let mut timings = JointTimings::default();
        let outcome = joint_compress_sequences(
            &left,
            &noise,
            MergeFunction::Unprojected,
            &config,
            &encoder,
            None,
            &mut timings,
        )
        .unwrap();
        assert!(matches!(outcome, JointOutcome::Aborted(_)), "{outcome:?}");
    }

    #[test]
    fn shape_mismatch_aborts() {
        let (left, right) = stereo_pair(3, 0.5);
        let shorter = FrameSequence::new(right.frames()[..2].to_vec(), 30.0).unwrap();
        let (config, encoder) = default_setup();
        let mut timings = JointTimings::default();
        let outcome = joint_compress_sequences(
            &left,
            &shorter,
            MergeFunction::Unprojected,
            &config,
            &encoder,
            None,
            &mut timings,
        )
        .unwrap();
        assert!(matches!(outcome, JointOutcome::Aborted(JointAbort::ShapeMismatch)));
    }

    #[test]
    fn swapped_operands_are_handled() {
        let (left, right) = stereo_pair(3, 0.5);
        let (config, encoder) = default_setup();
        let mut timings = JointTimings::default();
        // Passing (right, left) means the homography's horizontal shift is
        // negative; Algorithm 1 reverses the transform.
        let outcome = joint_compress_sequences(
            &right,
            &left,
            MergeFunction::Unprojected,
            &config,
            &encoder,
            None,
            &mut timings,
        )
        .unwrap();
        let JointOutcome::Compressed(artifact) = outcome else { panic!("expected compression") };
        assert!(artifact.swapped);
        let (recovered_first, _recovered_second) = recover_sequences(&artifact).unwrap();
        // The first returned sequence corresponds to the first operand (right camera).
        let psnr = quality::sequence_psnr(right.frames(), recovered_first.frames()).unwrap();
        assert!(psnr.db() > 20.0, "swapped recovery should still work, got {psnr}");
    }

    #[test]
    fn dynamic_reestimation_is_counted() {
        let (left, right) = stereo_pair(6, 0.5);
        let (config, encoder) = default_setup();
        let mut timings = JointTimings::default();
        let outcome = joint_compress_sequences(
            &left,
            &right,
            MergeFunction::Mean,
            &config,
            &encoder,
            Some(2),
            &mut timings,
        )
        .unwrap();
        let JointOutcome::Compressed(artifact) = outcome else {
            panic!("expected compression, got {outcome:?}")
        };
        assert!(artifact.reestimations >= 2);
        assert!(timings.homography_estimation > 0.0);
    }
}
