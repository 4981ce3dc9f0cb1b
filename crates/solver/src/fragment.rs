//! Planner input and output types.

use vss_codec::Codec;
use vss_frame::Resolution;

/// A materialized physical-video fragment the planner may draw on.
///
/// This is the planner's view of a cached GOP run: its temporal extent,
/// stored configuration and GOP structure. Quality filtering happens before
/// planning (the storage manager only passes fragments whose expected quality
/// clears the read's threshold), but the flag is retained so the planner can
/// also be exercised directly in tests and benchmarks.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentCandidate {
    /// Identifier meaningful to the caller (e.g. physical-video id).
    pub id: u64,
    /// Start of the fragment's temporal extent, in seconds.
    pub start: f64,
    /// End of the fragment's temporal extent, in seconds (exclusive).
    pub end: f64,
    /// Stored resolution.
    pub resolution: Resolution,
    /// Stored codec.
    pub codec: Codec,
    /// Stored frame rate (frames per second).
    pub frame_rate: f64,
    /// Frames per GOP in this fragment (look-back never crosses a GOP
    /// boundary because GOPs are independently decodable).
    pub gop_frames: usize,
    /// Whether the fragment passed the read's quality threshold.
    pub quality_ok: bool,
}

impl FragmentCandidate {
    /// Duration of the fragment in seconds.
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }

    /// True if the fragment covers the entire `[start, end)` interval.
    pub fn covers(&self, start: f64, end: f64) -> bool {
        self.start <= start + 1e-9 && self.end >= end - 1e-9
    }
}

/// The read the planner must satisfy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadPlanRequest {
    /// Requested start time in seconds.
    pub start: f64,
    /// Requested end time in seconds (exclusive).
    pub end: f64,
    /// Requested output resolution.
    pub resolution: Resolution,
    /// Requested output codec.
    pub codec: Codec,
}

/// One contiguous piece of a read plan: produce `[start, end)` from fragment
/// `fragment_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSegment {
    /// Segment start in seconds.
    pub start: f64,
    /// Segment end in seconds.
    pub end: f64,
    /// The fragment chosen for this segment.
    pub fragment_id: u64,
    /// Modelled transcode cost of this segment.
    pub transcode_cost: f64,
    /// Modelled look-back cost paid on entry to this segment.
    pub lookback_cost: f64,
}

impl PlanSegment {
    /// Total modelled cost of the segment.
    pub fn cost(&self) -> f64 {
        self.transcode_cost + self.lookback_cost
    }
}

/// A complete plan covering the requested range.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReadPlan {
    /// Segments in temporal order; adjacent segments using the same fragment
    /// are coalesced.
    pub segments: Vec<PlanSegment>,
    /// Sum of all segment costs.
    pub total_cost: f64,
}

impl ReadPlan {
    /// The distinct fragments used by the plan, in first-use order.
    pub fn fragments_used(&self) -> Vec<u64> {
        let mut seen = Vec::new();
        for s in &self.segments {
            if !seen.contains(&s.fragment_id) {
                seen.push(s.fragment_id);
            }
        }
        seen
    }

    /// Verifies the plan tiles `[start, end)` without gaps or overlaps.
    pub fn covers_range(&self, start: f64, end: f64) -> bool {
        if self.segments.is_empty() {
            return false;
        }
        let mut cursor = start;
        for s in &self.segments {
            if (s.start - cursor).abs() > 1e-6 || s.end <= s.start {
                return false;
            }
            cursor = s.end;
        }
        (cursor - end).abs() < 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frag(id: u64, start: f64, end: f64) -> FragmentCandidate {
        FragmentCandidate {
            id,
            start,
            end,
            resolution: Resolution::R1K,
            codec: Codec::H264,
            frame_rate: 30.0,
            gop_frames: 30,
            quality_ok: true,
        }
    }

    #[test]
    fn coverage_checks() {
        let f = frag(1, 10.0, 20.0);
        assert!(f.covers(10.0, 20.0));
        assert!(f.covers(12.0, 15.0));
        assert!(!f.covers(5.0, 15.0));
        assert!(!f.covers(15.0, 25.0));
        assert_eq!(f.duration(), 10.0);
    }

    #[test]
    fn plan_coverage_validation() {
        let seg = |s: f64, e: f64, id: u64| PlanSegment {
            start: s,
            end: e,
            fragment_id: id,
            transcode_cost: 1.0,
            lookback_cost: 0.0,
        };
        let plan = ReadPlan { segments: vec![seg(0.0, 5.0, 1), seg(5.0, 10.0, 2)], total_cost: 2.0 };
        assert!(plan.covers_range(0.0, 10.0));
        assert!(!plan.covers_range(0.0, 12.0));
        assert_eq!(plan.fragments_used(), vec![1, 2]);
        let gappy = ReadPlan { segments: vec![seg(0.0, 4.0, 1), seg(5.0, 10.0, 2)], total_cost: 2.0 };
        assert!(!gappy.covers_range(0.0, 10.0));
        let empty = ReadPlan { segments: vec![], total_cost: 0.0 };
        assert!(!empty.covers_range(0.0, 1.0));
    }

    #[test]
    fn segment_cost_sums_components() {
        let s = PlanSegment { start: 0.0, end: 1.0, fragment_id: 1, transcode_cost: 3.0, lookback_cost: 2.0 };
        assert_eq!(s.cost(), 5.0);
    }
}
