//! Joint-compression candidate selection (paper Section 5.1.3, Figure 9).
//!
//! Evaluating all O(n²) GOP pairs for joint compression is prohibitively
//! expensive, so VSS prunes the search in three steps: (i) cluster all
//! fragments by colour histogram with BIRCH, (ii) starting from the cluster
//! with the smallest radius, detect features for its members and look for
//! pairs sharing many unambiguous correspondences, and (iii) hand the
//! surviving pairs to the joint-compression algorithm, which verifies
//! quality and may still abort.

use crate::config::JointConfig;
use crate::joint::MAX_FEATURE_DISTANCE_SQ;
use std::collections::HashMap;
use vss_frame::{Frame, FrameSequence, PixelFormat};
use vss_vision::{
    detect_keypoints, match_descriptors, BirchTree, ColorHistogram, Descriptor, KeypointParams,
    MatchParams,
};

/// A fingerprint of one GOP: its colour histogram plus a representative frame
/// from which features are extracted lazily when its cluster is examined.
#[derive(Debug, Clone)]
pub struct GopFingerprint {
    /// Caller-meaningful identifier (e.g. `(video, gop index)` encoded as u64).
    pub id: u64,
    /// Average colour histogram of the GOP's sampled frames.
    pub histogram: ColorHistogram,
    representative: Frame,
}

impl GopFingerprint {
    /// Builds a fingerprint from a GOP's decoded frames, sampling pixels with
    /// the given stride for the histogram.
    pub fn from_frames(id: u64, frames: &FrameSequence, stride: u32) -> Option<Self> {
        let representative = frames.frames().first()?.convert(PixelFormat::Rgb8).ok()?;
        let histogram = ColorHistogram::from_frames(frames.frames().iter(), stride.max(1));
        Some(Self { id, histogram, representative })
    }
}

/// Incremental selector: fingerprints are inserted as GOPs arrive and
/// candidate pairs are produced on demand.
#[derive(Debug)]
pub struct PairSelector {
    config: JointConfig,
    tree: BirchTree,
    fingerprints: HashMap<u64, GopFingerprint>,
}

/// BIRCH distance threshold for histogram clusters: histograms are
/// normalized, so distances live in `[0, √2]`.
const CLUSTER_THRESHOLD: f64 = 0.35;
const MAX_CLUSTERS: usize = 64;

impl PairSelector {
    /// Creates a selector with the given joint-compression configuration.
    pub fn new(config: JointConfig) -> Self {
        Self {
            config,
            tree: BirchTree::new(vss_vision::histogram::HISTOGRAM_DIMS, CLUSTER_THRESHOLD, MAX_CLUSTERS),
            fingerprints: HashMap::new(),
        }
    }

    /// Number of fingerprints inserted so far.
    pub fn len(&self) -> usize {
        self.fingerprints.len()
    }

    /// True if no fingerprints have been inserted.
    pub fn is_empty(&self) -> bool {
        self.fingerprints.is_empty()
    }

    /// Inserts a GOP's fingerprint (incrementally updating the clustering).
    pub fn insert(&mut self, fingerprint: GopFingerprint) {
        self.tree.insert(fingerprint.id, &fingerprint.histogram.as_vector());
        self.fingerprints.insert(fingerprint.id, fingerprint);
    }

    /// Produces joint-compression candidate pairs by examining up to
    /// `max_clusters` clusters in ascending radius order. Within each
    /// cluster, members are feature-matched pairwise and a pair is emitted
    /// when it shares at least the configured number of unambiguous
    /// correspondences. Each GOP appears in at most one emitted pair.
    pub fn candidate_pairs(&self, max_clusters: usize) -> Vec<(u64, u64)> {
        let mut pairs = Vec::new();
        let mut paired: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let keypoint_params = KeypointParams::default();
        let match_params = MatchParams {
            max_distance_sq: MAX_FEATURE_DISTANCE_SQ,
            ..MatchParams::default()
        };
        for cluster in self.tree.clusters_by_radius(2).into_iter().take(max_clusters.max(1)) {
            // Compute descriptors lazily, only for members of examined clusters.
            let mut descriptors: Vec<(u64, Vec<Descriptor>)> = Vec::new();
            for &member in &cluster.members {
                if let Some(fingerprint) = self.fingerprints.get(&member) {
                    descriptors
                        .push((member, detect_keypoints(&fingerprint.representative, &keypoint_params)));
                }
            }
            for i in 0..descriptors.len() {
                if paired.contains(&descriptors[i].0) {
                    continue;
                }
                for j in i + 1..descriptors.len() {
                    if paired.contains(&descriptors[j].0) {
                        continue;
                    }
                    let matches =
                        match_descriptors(&descriptors[i].1, &descriptors[j].1, &match_params);
                    if matches.len() >= self.config.min_correspondences {
                        pairs.push((descriptors[i].0, descriptors[j].0));
                        paired.insert(descriptors[i].0);
                        paired.insert(descriptors[j].0);
                        break;
                    }
                }
            }
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vss_frame::pattern;

    fn scene_gop(seed: u64, shift: i64, palette: (u8, u8, u8)) -> FrameSequence {
        let frames: Vec<Frame> = (0..3)
            .map(|t| {
                let mut f = Frame::black(128, 96, PixelFormat::Rgb8).unwrap();
                pattern::fill_rect(&mut f, 0, 0, 128, 32, palette);
                pattern::fill_rect(&mut f, 0, 32, 128, 64, (60, 60, 65));
                pattern::fill_rect(&mut f, 20 + shift + t as i64, 40, 24, 14, (200, 40, 40));
                pattern::fill_rect(&mut f, 70 + shift + (seed % 7) as i64, 60, 20, 12, (230, 210, 70));
                f
            })
            .collect();
        FrameSequence::new(frames, 30.0).unwrap()
    }

    fn selector_with_lower_threshold() -> PairSelector {
        PairSelector::new(JointConfig { min_correspondences: 5, ..JointConfig::default() })
    }

    #[test]
    fn overlapping_gops_are_paired() {
        let mut selector = selector_with_lower_threshold();
        // Two cameras seeing nearly the same scene (small shift), plus an
        // unrelated night-sky scene.
        selector.insert(GopFingerprint::from_frames(1, &scene_gop(1, 0, (110, 160, 230)), 2).unwrap());
        selector.insert(GopFingerprint::from_frames(2, &scene_gop(1, 8, (110, 160, 230)), 2).unwrap());
        selector
            .insert(GopFingerprint::from_frames(3, &pattern_noise_gop(99), 2).unwrap());
        assert_eq!(selector.len(), 3);
        let pairs = selector.candidate_pairs(4);
        assert_eq!(pairs.len(), 1, "{pairs:?}");
        let (a, b) = pairs[0];
        assert_eq!((a.min(b), a.max(b)), (1, 2));
    }

    fn pattern_noise_gop(seed: u64) -> FrameSequence {
        let frames: Vec<Frame> =
            (0..3).map(|i| pattern::noise(128, 96, PixelFormat::Rgb8, seed + i)).collect();
        FrameSequence::new(frames, 30.0).unwrap()
    }

    #[test]
    fn dissimilar_histograms_land_in_different_clusters() {
        let mut selector = selector_with_lower_threshold();
        selector.insert(GopFingerprint::from_frames(1, &scene_gop(1, 0, (110, 160, 230)), 2).unwrap());
        selector.insert(GopFingerprint::from_frames(2, &scene_gop(1, 4, (110, 160, 230)), 2).unwrap());
        // A dominantly red scene clusters separately.
        selector.insert(GopFingerprint::from_frames(3, &scene_gop(2, 0, (230, 40, 40)), 2).unwrap());
        selector.insert(GopFingerprint::from_frames(4, &scene_gop(2, 4, (230, 40, 40)), 2).unwrap());
        let pairs = selector.candidate_pairs(8);
        assert_eq!(pairs.len(), 2, "{pairs:?}");
        for (a, b) in &pairs {
            let same_scene = (a.min(b), a.max(b)) == (&1, &2) || (a.min(b), a.max(b)) == (&3, &4);
            assert!(same_scene, "pair {a}/{b} crosses scenes");
        }
    }

    #[test]
    fn each_gop_is_paired_at_most_once_and_empty_selector_is_fine() {
        let selector = selector_with_lower_threshold();
        assert!(selector.is_empty());
        assert!(selector.candidate_pairs(4).is_empty());

        let mut selector = selector_with_lower_threshold();
        for id in 0..4 {
            selector
                .insert(GopFingerprint::from_frames(id, &scene_gop(1, id as i64, (110, 160, 230)), 2).unwrap());
        }
        let pairs = selector.candidate_pairs(4);
        let mut seen = std::collections::HashSet::new();
        for (a, b) in &pairs {
            assert!(seen.insert(*a));
            assert!(seen.insert(*b));
        }
        assert!(pairs.len() <= 2);
    }

    #[test]
    fn empty_gop_has_no_fingerprint() {
        let empty = FrameSequence::empty(30.0).unwrap();
        assert!(GopFingerprint::from_frames(1, &empty, 2).is_none());
    }
}
