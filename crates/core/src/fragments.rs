//! Mapping catalog state to planner candidates.
//!
//! A physical video whose GOPs have been partially evicted no longer covers a
//! single contiguous interval; each maximal run of temporally contiguous GOPs
//! becomes one candidate fragment for the read planner.

use crate::quality::QualityModel;
use vss_catalog::{LogicalVideoRecord, PhysicalVideoId, PhysicalVideoRecord};
use vss_frame::PsnrDb;
use vss_solver::FragmentCandidate;

const TIME_EPSILON: f64 = 1e-6;

/// A contiguous run of GOPs within one physical video, addressable by the
/// planner through the corresponding [`FragmentCandidate`]'s id.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentRun {
    /// The physical video the run belongs to.
    pub physical_id: PhysicalVideoId,
    /// GOP indices (into the physical video) forming the run, in order.
    pub gop_indices: Vec<u64>,
    /// Start time of the run in seconds.
    pub start: f64,
    /// End time of the run in seconds.
    pub end: f64,
}

/// The planner candidates derived from a logical video's current state,
/// together with the run metadata needed to execute a chosen plan.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    /// Candidates to hand to the planner; `candidates[i].id == i`.
    pub candidates: Vec<FragmentCandidate>,
    /// Run metadata, parallel to `candidates`.
    pub runs: Vec<FragmentRun>,
}

impl CandidateSet {
    /// The run backing a planner fragment id.
    pub fn run(&self, fragment_id: u64) -> &FragmentRun {
        &self.runs[fragment_id as usize]
    }
}

/// Splits a physical video's GOPs into maximal contiguous runs.
pub fn contiguous_runs(physical: &PhysicalVideoRecord) -> Vec<FragmentRun> {
    let mut runs: Vec<FragmentRun> = Vec::new();
    for gop in &physical.gops {
        match runs.last_mut() {
            Some(run) if (gop.start_time - run.end).abs() < TIME_EPSILON => {
                run.gop_indices.push(gop.index);
                run.end = gop.end_time;
            }
            _ => runs.push(FragmentRun {
                physical_id: physical.id,
                gop_indices: vec![gop.index],
                start: gop.start_time,
                end: gop.end_time,
            }),
        }
    }
    runs
}

/// Builds the candidate set for a read with the given quality threshold.
pub fn build_candidates(
    video: &LogicalVideoRecord,
    threshold: PsnrDb,
) -> CandidateSet {
    let mut set = CandidateSet::default();
    for physical in &video.physical {
        let Some(codec) = physical.codec() else { continue };
        let quality_ok = QualityModel::acceptable(physical, threshold);
        // One map for all runs of this physical video: every run lookup
        // below is O(1) instead of a linear scan over `physical.gops`.
        let gop_map = physical.gop_index_map();
        for run in contiguous_runs(physical) {
            let gop_frames = run
                .gop_indices
                .iter()
                .filter_map(|&i| gop_map.get(&i))
                .map(|g| g.frame_count)
                .max()
                .unwrap_or(1);
            let id = set.candidates.len() as u64;
            set.candidates.push(FragmentCandidate {
                id,
                start: run.start,
                end: run.end,
                resolution: physical.resolution(),
                codec,
                frame_rate: physical.frame_rate,
                gop_frames,
                quality_ok,
            });
            set.runs.push(run);
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use vss_catalog::GopRecord;

    fn gop(index: u64, start: f64, end: f64) -> GopRecord {
        GopRecord {
            index,
            start_time: start,
            end_time: end,
            frame_count: 30,
            byte_len: 100,
            lossless_level: None,
            last_access: vss_catalog::AtomicClock::new(0),
            crc: None,
        }
    }

    fn physical(id: u64, gops: Vec<GopRecord>, is_original: bool) -> PhysicalVideoRecord {
        PhysicalVideoRecord {
            id,
            width: 320,
            height: 180,
            frame_rate: 30.0,
            codec: "h264".into(),
            is_original,
            mse_bound: 0.0,
            gops,
        }
    }

    #[test]
    fn contiguous_gops_form_one_run() {
        let p = physical(1, vec![gop(0, 0.0, 1.0), gop(1, 1.0, 2.0), gop(2, 2.0, 3.0)], true);
        let runs = contiguous_runs(&p);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].gop_indices, vec![0, 1, 2]);
        assert_eq!(runs[0].start, 0.0);
        assert_eq!(runs[0].end, 3.0);
    }

    #[test]
    fn evicted_gop_splits_runs() {
        // GOP 1 was evicted, leaving [0,1) and [2,3).
        let p = physical(1, vec![gop(0, 0.0, 1.0), gop(2, 2.0, 3.0)], false);
        let runs = contiguous_runs(&p);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].gop_indices, vec![0]);
        assert_eq!(runs[1].gop_indices, vec![2]);
    }

    #[test]
    fn empty_physical_video_produces_no_runs() {
        let p = physical(1, vec![], false);
        assert!(contiguous_runs(&p).is_empty());
    }

    #[test]
    fn candidate_set_maps_ids_to_runs() {
        let mut video = LogicalVideoRecord::new("v");
        video.physical.push(physical(1, vec![gop(0, 0.0, 1.0), gop(1, 1.0, 2.0)], true));
        video.physical.push(physical(2, vec![gop(0, 0.0, 1.0), gop(5, 5.0, 6.0)], false));
        let set = build_candidates(&video, PsnrDb(40.0));
        assert_eq!(set.candidates.len(), 3);
        assert_eq!(set.runs.len(), 3);
        for (i, c) in set.candidates.iter().enumerate() {
            assert_eq!(c.id, i as u64);
            let run = set.run(c.id);
            assert_eq!(run.start, c.start);
            assert_eq!(run.end, c.end);
        }
        assert_eq!(set.run(1).physical_id, 2);
    }

    #[test]
    fn unknown_codecs_are_skipped_and_low_quality_flagged() {
        let mut video = LogicalVideoRecord::new("v");
        let mut bad_codec = physical(1, vec![gop(0, 0.0, 1.0)], false);
        bad_codec.codec = "vp9".into();
        video.physical.push(bad_codec);
        let mut low_quality = physical(2, vec![gop(0, 0.0, 1.0)], false);
        low_quality.mse_bound = 1e4;
        video.physical.push(low_quality);
        let set = build_candidates(&video, PsnrDb(40.0));
        assert_eq!(set.candidates.len(), 1, "unknown codec must be skipped");
        assert!(!set.candidates[0].quality_ok);
    }
}
