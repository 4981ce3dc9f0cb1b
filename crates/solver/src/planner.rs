//! Read planning: transition points, per-segment costs, and the optimal,
//! greedy and exhaustive planners.

use crate::{FragmentCandidate, PlanSegment, ReadPlan, ReadPlanRequest, SolverError};
use vss_codec::{lookback_cost, CostModel};

const TIME_EPSILON: f64 = 1e-9;

/// The transition points of a read: the collective start and end points of
/// the candidate fragments clipped to the requested range, plus the range
/// boundaries themselves. Between consecutive transition points the set of
/// available fragments does not change, so the planner needs to make exactly
/// one choice per interval (paper Section 3.1).
pub fn transition_points(request: &ReadPlanRequest, candidates: &[FragmentCandidate]) -> Vec<f64> {
    let mut points = vec![request.start, request.end];
    for c in candidates {
        for t in [c.start, c.end] {
            if t > request.start + TIME_EPSILON && t < request.end - TIME_EPSILON {
                points.push(t);
            }
        }
    }
    points.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    points.dedup_by(|a, b| (*a - *b).abs() < TIME_EPSILON);
    points
}

/// Per-segment cost of producing `[seg_start, seg_end)` from `fragment`.
/// `contiguous_with_previous` is true when the immediately preceding segment
/// was produced from the same fragment, in which case the fragment's decoder
/// state is already positioned at `seg_start` and no look-back is paid.
fn segment_cost(
    fragment: &FragmentCandidate,
    seg_start: f64,
    seg_end: f64,
    request: &ReadPlanRequest,
    cost_model: &CostModel,
    contiguous_with_previous: bool,
) -> (f64, f64) {
    let frames = ((seg_end - seg_start) * fragment.frame_rate).round().max(1.0);
    let source_pixels = frames as u64 * fragment.resolution.pixels();
    let transcode = cost_model.transcode_cost(
        source_pixels,
        fragment.resolution,
        fragment.codec,
        request.resolution,
        request.codec,
    );
    let lookback = if contiguous_with_previous || !fragment.codec.is_compressed() {
        0.0
    } else {
        let offset_frames = ((seg_start - fragment.start) * fragment.frame_rate).round().max(0.0) as usize;
        let gop = fragment.gop_frames.max(1);
        let position_in_gop = offset_frames % gop;
        if position_in_gop == 0 {
            0.0
        } else {
            // One independent frame plus the preceding dependent frames of
            // the containing GOP must be decoded before the segment's first
            // frame is reachable.
            let per_frame_cost = cost_model
                .decode_cost_per_pixel(fragment.codec, fragment.resolution.pixels())
                * fragment.resolution.pixels() as f64;
            lookback_cost(1, position_in_gop.saturating_sub(1)) * per_frame_cost
        }
    };
    (transcode, lookback)
}

/// Candidates (indices) able to serve each segment, or an error naming the
/// first uncovered segment.
fn segment_candidates(
    candidates: &[FragmentCandidate],
    points: &[f64],
) -> Result<Vec<Vec<usize>>, SolverError> {
    let mut per_segment = Vec::with_capacity(points.len().saturating_sub(1));
    for pair in points.windows(2) {
        let (s, e) = (pair[0], pair[1]);
        let covering: Vec<usize> = candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.quality_ok && c.covers(s, e))
            .map(|(i, _)| i)
            .collect();
        if covering.is_empty() {
            return Err(SolverError::UncoveredInterval { start: s, end: e });
        }
        per_segment.push(covering);
    }
    Ok(per_segment)
}

fn validate(request: &ReadPlanRequest, candidates: &[FragmentCandidate]) -> Result<(), SolverError> {
    if request.end - request.start <= TIME_EPSILON {
        return Err(SolverError::EmptyRange { start: request.start, end: request.end });
    }
    if candidates.is_empty() {
        return Err(SolverError::NoCandidates);
    }
    Ok(())
}

fn build_plan(
    request: &ReadPlanRequest,
    candidates: &[FragmentCandidate],
    cost_model: &CostModel,
    points: &[f64],
    choices: &[usize],
) -> ReadPlan {
    let mut segments: Vec<PlanSegment> = Vec::new();
    let mut total = 0.0;
    for (i, pair) in points.windows(2).enumerate() {
        let (s, e) = (pair[0], pair[1]);
        let frag = &candidates[choices[i]];
        let contiguous = i > 0 && choices[i - 1] == choices[i];
        let (transcode, lookback) = segment_cost(frag, s, e, request, cost_model, contiguous);
        total += transcode + lookback;
        match segments.last_mut() {
            Some(last) if last.fragment_id == frag.id && (last.end - s).abs() < TIME_EPSILON && contiguous => {
                last.end = e;
                last.transcode_cost += transcode;
                last.lookback_cost += lookback;
            }
            _ => segments.push(PlanSegment {
                start: s,
                end: e,
                fragment_id: frag.id,
                transcode_cost: transcode,
                lookback_cost: lookback,
            }),
        }
    }
    ReadPlan { segments, total_cost: total }
}

/// Exact minimum-cost planner (dynamic programming over transition-point
/// segments). Equivalent to the paper's SMT formulation for the temporal
/// cost model: each segment's look-back depends only on whether the previous
/// segment used the same fragment, so the optimal substructure is exact.
pub fn plan_read(
    request: &ReadPlanRequest,
    candidates: &[FragmentCandidate],
    cost_model: &CostModel,
) -> Result<ReadPlan, SolverError> {
    validate(request, candidates)?;
    let points = transition_points(request, candidates);
    let per_segment = segment_candidates(candidates, &points)?;
    let segments = per_segment.len();

    // dp[i][k] = minimal cost of covering segments 0..=i with per_segment[i][k]
    // chosen for segment i; parent[i][k] = index (into per_segment[i-1]) of the
    // predecessor choice realizing it.
    let mut dp: Vec<Vec<f64>> = Vec::with_capacity(segments);
    let mut parent: Vec<Vec<usize>> = Vec::with_capacity(segments);
    for i in 0..segments {
        let (s, e) = (points[i], points[i + 1]);
        let mut costs = Vec::with_capacity(per_segment[i].len());
        let mut parents = Vec::with_capacity(per_segment[i].len());
        for &cand in &per_segment[i] {
            if i == 0 {
                let (t, l) = segment_cost(&candidates[cand], s, e, request, cost_model, false);
                costs.push(t + l);
                parents.push(usize::MAX);
                continue;
            }
            let mut best = f64::INFINITY;
            let mut best_parent = usize::MAX;
            for (pk, &prev_cand) in per_segment[i - 1].iter().enumerate() {
                let contiguous = prev_cand == cand;
                let (t, l) = segment_cost(&candidates[cand], s, e, request, cost_model, contiguous);
                let total = dp[i - 1][pk] + t + l;
                if total < best {
                    best = total;
                    best_parent = pk;
                }
            }
            costs.push(best);
            parents.push(best_parent);
        }
        dp.push(costs);
        parent.push(parents);
    }

    // Backtrack from the cheapest final state.
    let (mut k, _) = dp[segments - 1]
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .expect("every segment has at least one candidate");
    let mut choices = vec![0usize; segments];
    for i in (0..segments).rev() {
        choices[i] = per_segment[i][k];
        if i > 0 {
            k = parent[i][k];
        }
    }
    Ok(build_plan(request, candidates, cost_model, &points, &choices))
}

/// The dependency-naïve greedy baseline from the paper's evaluation
/// (Figure 10): for each segment independently pick the fragment with the
/// lowest transcode cost, ignoring look-back interactions between segments.
/// The reported plan cost still includes the look-back that choice incurs.
pub fn plan_read_greedy(
    request: &ReadPlanRequest,
    candidates: &[FragmentCandidate],
    cost_model: &CostModel,
) -> Result<ReadPlan, SolverError> {
    validate(request, candidates)?;
    let points = transition_points(request, candidates);
    let per_segment = segment_candidates(candidates, &points)?;
    let mut choices = Vec::with_capacity(per_segment.len());
    for (i, pair) in points.windows(2).enumerate() {
        let (s, e) = (pair[0], pair[1]);
        let best = per_segment[i]
            .iter()
            .copied()
            .min_by(|&a, &b| {
                let (ta, _) = segment_cost(&candidates[a], s, e, request, cost_model, false);
                let (tb, _) = segment_cost(&candidates[b], s, e, request, cost_model, false);
                ta.partial_cmp(&tb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("segment has candidates");
        choices.push(best);
    }
    Ok(build_plan(request, candidates, cost_model, &points, &choices))
}

/// Exhaustive enumeration of every possible plan; used by tests to confirm
/// [`plan_read`] is optimal. Refuses instances with more than ~1 million
/// plans.
pub fn plan_read_exhaustive(
    request: &ReadPlanRequest,
    candidates: &[FragmentCandidate],
    cost_model: &CostModel,
) -> Result<ReadPlan, SolverError> {
    validate(request, candidates)?;
    let points = transition_points(request, candidates);
    let per_segment = segment_candidates(candidates, &points)?;
    let plan_count: u128 = per_segment.iter().map(|c| c.len() as u128).product();
    if plan_count > 1_000_000 {
        return Err(SolverError::TooLargeForExhaustive { plans: plan_count });
    }
    let mut best: Option<ReadPlan> = None;
    let mut choices = vec![0usize; per_segment.len()];
    enumerate(&per_segment, 0, &mut choices, &mut |choice_indices| {
        let concrete: Vec<usize> =
            choice_indices.iter().enumerate().map(|(i, &k)| per_segment[i][k]).collect();
        let plan = build_plan(request, candidates, cost_model, &points, &concrete);
        if best.as_ref().is_none_or(|b| plan.total_cost < b.total_cost) {
            best = Some(plan);
        }
    });
    Ok(best.expect("at least one plan exists"))
}

fn enumerate(
    per_segment: &[Vec<usize>],
    depth: usize,
    choices: &mut Vec<usize>,
    visit: &mut impl FnMut(&[usize]),
) {
    if depth == per_segment.len() {
        visit(choices);
        return;
    }
    for k in 0..per_segment[depth].len() {
        choices[depth] = k;
        enumerate(per_segment, depth + 1, choices, visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vss_codec::Codec;
    use vss_frame::{PixelFormat, Resolution};

    fn frag(id: u64, start: f64, end: f64, codec: Codec) -> FragmentCandidate {
        FragmentCandidate {
            id,
            start,
            end,
            resolution: Resolution::R1K,
            codec,
            frame_rate: 30.0,
            gop_frames: 30,
            quality_ok: true,
        }
    }

    fn request(start: f64, end: f64, codec: Codec) -> ReadPlanRequest {
        ReadPlanRequest { start, end, resolution: Resolution::R1K, codec }
    }

    /// The paper's running example (Figure 3): the original video m0 is HEVC
    /// over [0, 100]; cached fragments m1 [30, 60] and m2 [70, 95] are
    /// already H.264. Reading [20, 80] as H.264 should use m1 and m2 where
    /// available and fall back to m0 elsewhere.
    fn figure3() -> (ReadPlanRequest, Vec<FragmentCandidate>) {
        let m0 = frag(0, 0.0, 100.0, Codec::Hevc);
        let m1 = frag(1, 30.0, 60.0, Codec::H264);
        let m2 = frag(2, 70.0, 95.0, Codec::H264);
        (request(20.0, 80.0, Codec::H264), vec![m0, m1, m2])
    }

    #[test]
    fn transition_points_include_fragment_boundaries_inside_range() {
        let (req, frags) = figure3();
        let points = transition_points(&req, &frags);
        assert_eq!(points, vec![20.0, 30.0, 60.0, 70.0, 80.0]);
    }

    #[test]
    fn figure3_plan_prefers_already_converted_fragments() {
        let (req, frags) = figure3();
        let model = CostModel;
        let plan = plan_read(&req, &frags, &model).unwrap();
        assert!(plan.covers_range(20.0, 80.0));
        let used = plan.fragments_used();
        assert!(used.contains(&1), "m1 should be used for [30,60): {used:?}");
        assert!(used.contains(&2), "m2 should be used for [70,80): {used:?}");
        assert!(used.contains(&0), "m0 must fill the gaps: {used:?}");
        // The segment covering [30, 60) must come from m1.
        let seg = plan.segments.iter().find(|s| s.start <= 31.0 && s.end >= 59.0).unwrap();
        assert_eq!(seg.fragment_id, 1);
    }

    #[test]
    fn optimal_plan_is_never_worse_than_greedy_or_exhaustive() {
        let (req, frags) = figure3();
        let model = CostModel;
        let optimal = plan_read(&req, &frags, &model).unwrap();
        let greedy = plan_read_greedy(&req, &frags, &model).unwrap();
        let exhaustive = plan_read_exhaustive(&req, &frags, &model).unwrap();
        assert!(optimal.total_cost <= greedy.total_cost + 1e-6);
        assert!((optimal.total_cost - exhaustive.total_cost).abs() < 1e-6);
    }

    #[test]
    fn greedy_ignores_lookback_and_can_fragment_the_plan() {
        // Two candidates: one matches the target codec but starts mid-GOP
        // everywhere (high look-back); the original covers everything.
        // Greedy flips to the cheap-transcode fragment for a tiny segment,
        // paying look-back the optimal planner avoids.
        let model = CostModel;
        let req = request(0.0, 10.0, Codec::H264);
        let original = frag(0, 0.0, 10.0, Codec::H264);
        let mut sliver = frag(1, 4.9, 5.1, Codec::H264);
        sliver.resolution = Resolution::new(900, 500); // slightly fewer pixels → smaller transcode
        let frags = vec![original, sliver];
        let optimal = plan_read(&req, &frags, &model).unwrap();
        let greedy = plan_read_greedy(&req, &frags, &model).unwrap();
        assert!(optimal.total_cost <= greedy.total_cost);
        // Optimal keeps a single fragment (no mid-GOP re-entry into the original).
        assert_eq!(optimal.fragments_used(), vec![0]);
    }

    #[test]
    fn uncovered_range_is_an_error() {
        let model = CostModel;
        let req = request(0.0, 50.0, Codec::H264);
        let frags = vec![frag(0, 0.0, 30.0, Codec::H264), frag(1, 35.0, 60.0, Codec::H264)];
        match plan_read(&req, &frags, &model) {
            Err(SolverError::UncoveredInterval { start, end }) => {
                assert!((start - 30.0).abs() < 1e-9);
                assert!((end - 35.0).abs() < 1e-9);
            }
            other => panic!("expected uncovered interval, got {other:?}"),
        }
    }

    #[test]
    fn empty_range_and_missing_candidates_are_errors() {
        let model = CostModel;
        assert!(matches!(
            plan_read(&request(5.0, 5.0, Codec::H264), &[frag(0, 0.0, 10.0, Codec::H264)], &model),
            Err(SolverError::EmptyRange { .. })
        ));
        assert!(matches!(
            plan_read(&request(0.0, 5.0, Codec::H264), &[], &model),
            Err(SolverError::NoCandidates)
        ));
    }

    #[test]
    fn low_quality_fragments_are_ignored() {
        let model = CostModel;
        let req = request(0.0, 10.0, Codec::H264);
        let mut cheap_but_bad = frag(1, 0.0, 10.0, Codec::H264);
        cheap_but_bad.quality_ok = false;
        cheap_but_bad.resolution = Resolution::QVGA;
        let original = frag(0, 0.0, 10.0, Codec::Hevc);
        let plan = plan_read(&req, &[original, cheap_but_bad], &model).unwrap();
        assert_eq!(plan.fragments_used(), vec![0]);
    }

    #[test]
    fn adjacent_segments_from_same_fragment_are_coalesced() {
        let (req, frags) = figure3();
        let model = CostModel;
        let plan = plan_read(&req, &frags, &model).unwrap();
        // No two adjacent segments share a fragment id.
        for pair in plan.segments.windows(2) {
            assert_ne!(pair[0].fragment_id, pair[1].fragment_id);
        }
    }

    #[test]
    fn raw_fragments_have_no_lookback() {
        let model = CostModel;
        let req = request(0.0, 10.0, Codec::Raw(PixelFormat::Rgb8));
        let raw = frag(0, 0.0, 100.0, Codec::Raw(PixelFormat::Rgb8));
        let plan = plan_read(&req, &[raw], &model).unwrap();
        assert_eq!(plan.segments.len(), 1);
        assert_eq!(plan.segments[0].lookback_cost, 0.0);
    }

    #[test]
    fn exhaustive_rejects_huge_instances() {
        let model = CostModel;
        // 21 overlapping fragments over 20 segments → way past the limit.
        let mut frags = vec![frag(0, 0.0, 100.0, Codec::H264)];
        for i in 1..21 {
            frags.push(frag(i, i as f64, 100.0 - i as f64, Codec::Hevc));
        }
        let req = request(0.0, 100.0, Codec::H264);
        assert!(matches!(
            plan_read_exhaustive(&req, &frags, &model),
            Err(SolverError::TooLargeForExhaustive { .. })
        ));
        // The DP planner handles it fine.
        assert!(plan_read(&req, &frags, &model).is_ok());
    }

    #[test]
    fn random_instances_dp_matches_exhaustive() {
        use vss_frame::pattern::Xorshift;
        let model = CostModel;
        let mut rng = Xorshift::new(42);
        for case in 0..25 {
            let mut frags = vec![frag(0, 0.0, 60.0, Codec::Hevc)];
            let n = 2 + (rng.next_below(4) as usize);
            for id in 1..=n {
                let start = rng.next_f64() * 40.0;
                let len = 5.0 + rng.next_f64() * 20.0;
                let codec = if rng.next_below(2) == 0 { Codec::H264 } else { Codec::Hevc };
                let mut f = frag(id as u64, start, (start + len).min(60.0), codec);
                if rng.next_below(4) == 0 {
                    f.resolution = Resolution::QVGA;
                }
                frags.push(f);
            }
            let req = request(5.0, 55.0, Codec::H264);
            let dp = plan_read(&req, &frags, &model).unwrap();
            let ex = plan_read_exhaustive(&req, &frags, &model).unwrap();
            assert!(
                (dp.total_cost - ex.total_cost).abs() < 1e-6,
                "case {case}: dp={} exhaustive={}",
                dp.total_cost,
                ex.total_cost
            );
            assert!(dp.covers_range(5.0, 55.0));
        }
    }
}
