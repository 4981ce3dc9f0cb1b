//! The read path: answering `read(name, S, T, P)` from materialized views.
//!
//! A read is executed in four stages (paper Section 3):
//!
//! 1. **Candidate collection** — every contiguous run of cached GOPs whose
//!    estimated quality clears the read's threshold becomes a candidate
//!    fragment, alongside the original video.
//! 2. **Planning** — the fragment selector picks the minimum-cost combination
//!    of fragments covering the requested range (`vss-solver`).
//! 3. **Execution** — the chosen GOPs are loaded (transparently undoing any
//!    deferred compression), decoded (paying look-back for mid-GOP entry),
//!    resampled to the requested spatial/temporal configuration and, if the
//!    requested codec is compressed, re-encoded.
//! 4. **Cache admission** — the result is admitted as a new physical video
//!    (paper Section 4), the storage budget is enforced by evicting GOP
//!    pages, and a deferred-compression step runs if the budget is tight.
//!    All of it is one journal commit (see the crate's *Durability
//!    contract*).
//!
//! Stages 1–3 are implemented by the GOP-at-a-time [`crate::stream`] module:
//! every read opens a [`ReadStream`](crate::ReadStream) and the materialized
//! entry points below simply [drain](crate::ReadStream::drain) it, so
//! streaming and materialized reads are byte-identical by construction.

use crate::engine::{Engine, ReadStats};
use crate::fragments::CandidateSet;
use crate::params::ReadRequest;
use crate::quality::QualityModel;
use crate::VssError;
use vss_codec::EncodedGop;
use vss_frame::{FrameSequence, Resolution};
use vss_solver::ReadPlan;

/// The result of a read operation.
#[derive(Debug, Clone)]
pub struct ReadResult {
    /// The decoded output frames in the requested spatial and temporal
    /// configuration (and requested raw layout, or YUV 4:2:0 for compressed
    /// requests).
    pub frames: FrameSequence,
    /// The encoded output, present when the requested codec is compressed.
    /// Segments served directly from cached GOPs in the requested
    /// configuration are emitted GOP-for-GOP, so the encoded stream is
    /// GOP-aligned and may extend slightly past the requested boundaries.
    pub encoded: Option<Vec<EncodedGop>>,
    /// Execution statistics.
    pub stats: ReadStats,
}

impl Engine {
    /// Executes a read planned by `request.planner` (the optimal planner by
    /// default).
    pub fn read(&mut self, request: &ReadRequest) -> Result<ReadResult, VssError> {
        let _span = vss_telemetry::span("engine", "read", request.name.as_str());
        let stream = self.plan_stream(request, self.may_admit(request))?;
        let (mut result, admission) = stream.drain_with_admission()?;
        // --- cache admission: one journal commit -----------------------------
        // Results assembled partly from pass-through GOP reuse are not
        // re-admitted: the reused pieces already exist in the requested
        // configuration, so admitting the combination would only duplicate
        // them (and GOP-aligned reuse makes exact timing bookkeeping fuzzy).
        let cache_admitted = self.in_batch(|engine| {
            let admitted = !admission.reused_any
                && engine.maybe_admit_result(
                    request,
                    &admission.candidates,
                    &result.stats.plan,
                    &result.frames,
                    result.encoded.as_deref(),
                    admission.derivation_mse,
                    admission.source_mse_bound,
                    admission.output_resolution,
                )?;
            if admitted {
                engine.enforce_budget(&request.name)?;
            }
            if engine.config.deferred_compression {
                engine.deferred_compression_step(&request.name)?;
            }
            Ok(admitted)
        })?;
        self.catalog.persist()?;
        result.stats.cache_admitted = cache_admitted;
        Ok(result)
    }

    /// Whether a read's result can be admitted to the cache at all: not when
    /// the read was marked non-cacheable or a region of interest was applied
    /// (cropped results are not reusable as general fragments). Decides both
    /// whether the stream takes the admission measurement and whether
    /// admission is attempted, so the two cannot drift.
    fn may_admit(&self, request: &ReadRequest) -> bool {
        request.cacheable && request.spatial.region.is_none()
    }

    /// Admits a read result into the cache of materialized views, unless
    /// the read [may not admit](Self::may_admit) or the plan was a pure
    /// pass-through of an existing fragment in the requested configuration.
    #[allow(clippy::too_many_arguments)]
    fn maybe_admit_result(
        &mut self,
        request: &ReadRequest,
        candidates: &CandidateSet,
        plan: &ReadPlan,
        output: &FrameSequence,
        encoded: Option<&[EncodedGop]>,
        derivation_mse: f64,
        source_mse_bound: f64,
        output_resolution: Resolution,
    ) -> Result<bool, VssError> {
        if !self.may_admit(request) {
            return Ok(false);
        }
        // Pass-through check: a single fragment already stores exactly the
        // requested configuration over the requested range.
        if plan.segments.len() == 1 {
            let fragment = &candidates.candidates[plan.segments[0].fragment_id as usize];
            let same_rate = request
                .temporal
                .frame_rate
                .is_none_or(|fps| (fps - fragment.frame_rate).abs() < 1e-9);
            if fragment.codec == request.physical.codec
                && fragment.resolution == output_resolution
                && same_rate
            {
                return Ok(false);
            }
        }
        let mse_bound = QualityModel::compose_bound(source_mse_bound, derivation_mse);
        let physical_id = self.catalog.add_physical(
            &request.name,
            output_resolution.width,
            output_resolution.height,
            output.frame_rate(),
            &request.physical.codec.name(),
            false,
            mse_bound,
        )?;
        match encoded {
            Some(gops) => {
                let mut time = request.temporal.start;
                for gop in gops {
                    let duration = gop.frame_count() as f64 / output.frame_rate();
                    self.catalog.append_gop(
                        &request.name,
                        physical_id,
                        time,
                        time + duration,
                        gop.frame_count(),
                        &gop.to_bytes(),
                        None,
                    )?;
                    time += duration;
                }
            }
            None => {
                // Raw results have no encoded form yet: the write path's
                // batch drive onto the physical video registered above
                // (the read persists the catalog itself).
                let mut write = self.incremental_write(
                    &request.name,
                    request.physical.codec,
                    request.physical.encoder_quality,
                    output.frame_rate(),
                    Some(physical_id),
                    None,
                    Some(request.temporal.start),
                );
                for gop in &write.encode_batch(output)? {
                    self.push_incremental_encoded(&mut write, gop)?;
                }
                self.establish_budget(&request.name)?;
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_support::temp_engine;
    use crate::fragments::build_candidates;
    use crate::params::{PlannerKind, ReadRequest, WriteRequest};
    use vss_codec::Codec;
    use vss_frame::{pattern, quality, PixelFormat, RegionOfInterest};

    fn sequence(frames: usize, width: u32, height: u32) -> FrameSequence {
        let frames: Vec<_> =
            (0..frames).map(|i| pattern::gradient(width, height, PixelFormat::Yuv420, i as u64)).collect();
        FrameSequence::new(frames, 30.0).unwrap()
    }

    #[test]
    fn read_round_trips_written_video() {
        let (mut engine, root) = temp_engine("read-roundtrip");
        let source = sequence(60, 64, 48);
        engine.write(&WriteRequest::new("v", Codec::H264), &source).unwrap();
        let result = engine
            .read(&ReadRequest::new("v", 0.0, 2.0, Codec::Raw(PixelFormat::Yuv420)))
            .unwrap();
        assert_eq!(result.frames.len(), 60);
        assert!(result.encoded.is_none());
        let p = quality::sequence_psnr(source.frames(), result.frames.frames()).unwrap();
        assert!(p.db() > 35.0, "decoded output should match the written video, got {p}");
        assert!(result.stats.gops_read >= 2);
        assert!(result.stats.bytes_read > 0);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn out_of_range_reads_error() {
        let (mut engine, root) = temp_engine("read-range");
        engine.write(&WriteRequest::new("v", Codec::H264), &sequence(30, 64, 48)).unwrap();
        assert!(matches!(
            engine.read(&ReadRequest::new("v", 0.0, 5.0, Codec::H264)),
            Err(VssError::OutOfRange { .. })
        ));
        assert!(matches!(
            engine.read(&ReadRequest::new("v", 0.8, 0.2, Codec::H264)),
            Err(VssError::OutOfRange { .. })
        ));
        assert!(engine.read(&ReadRequest::new("missing", 0.0, 1.0, Codec::H264)).is_err());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn transcoding_read_returns_encoded_gops_and_caches_result() {
        let (mut engine, root) = temp_engine("read-transcode");
        engine.write(&WriteRequest::new("v", Codec::H264), &sequence(60, 64, 48)).unwrap();
        let result = engine.read(&ReadRequest::new("v", 0.0, 2.0, Codec::Hevc)).unwrap();
        let gops = result.encoded.as_ref().expect("compressed read returns encoded GOPs");
        assert!(!gops.is_empty());
        assert!(gops.iter().all(|g| g.codec() == Codec::Hevc));
        assert!(result.stats.cache_admitted);
        // The cached HEVC representation is now a physical video.
        let video = engine.catalog.video("v").unwrap();
        assert_eq!(video.physical.len(), 2);
        assert!(video.physical.iter().any(|p| p.codec == "hevc" && !p.is_original));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn cached_fragment_is_reused_by_later_reads() {
        let (mut engine, root) = temp_engine("read-reuse");
        engine.write(&WriteRequest::new("v", Codec::H264), &sequence(90, 64, 48)).unwrap();
        // Populate the cache with an HEVC copy of [0, 2).
        engine.read(&ReadRequest::new("v", 0.0, 2.0, Codec::Hevc)).unwrap();
        // A later HEVC read of a sub-range should be served from the cached
        // fragment (pass-through), not re-transcoded from the original.
        let result = engine.read(&ReadRequest::new("v", 0.0, 1.0, Codec::Hevc)).unwrap();
        let video = engine.catalog.video("v").unwrap();
        let cached_id =
            video.physical.iter().find(|p| p.codec == "hevc" && !p.is_original).unwrap().id;
        let used_run = result.stats.plan.segments[0].fragment_id;
        // Reconstruct which physical the plan used via stats: the plan's only
        // segment must map to the cached physical, which is cheaper.
        let candidates = build_candidates(
            engine.catalog.video("v").unwrap(),
            &engine.quality_model,
            vss_frame::PsnrDb(40.0),
        );
        assert_eq!(candidates.run(used_run).physical_id, cached_id);
        // Pass-through reads are not re-admitted as yet another copy.
        assert!(!result.stats.cache_admitted);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn roi_and_resolution_and_frame_rate_are_applied() {
        let (mut engine, root) = temp_engine("read-spatial");
        engine.write(&WriteRequest::new("v", Codec::H264), &sequence(60, 64, 48)).unwrap();
        let roi = RegionOfInterest::new(4, 4, 20, 16).unwrap();
        let result = engine
            .read(
                &ReadRequest::new("v", 0.0, 2.0, Codec::Raw(PixelFormat::Rgb8))
                    .at_resolution(Resolution::new(32, 24))
                    .with_region(roi)
                    .at_frame_rate(15.0),
            )
            .unwrap();
        assert_eq!(result.frames.len(), 30);
        let frame = &result.frames.frames()[0];
        assert_eq!(frame.width(), 16);
        assert_eq!(frame.height(), 12);
        assert_eq!(frame.format(), PixelFormat::Rgb8);
        // ROI reads are not cached.
        assert!(!result.stats.cache_admitted);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn uncacheable_reads_do_not_grow_the_catalog() {
        let (mut engine, root) = temp_engine("read-uncacheable");
        engine.write(&WriteRequest::new("v", Codec::H264), &sequence(30, 64, 48)).unwrap();
        let before = engine.catalog.video("v").unwrap().physical.len();
        let result = engine
            .read(&ReadRequest::new("v", 0.0, 1.0, Codec::Hevc).uncacheable())
            .unwrap();
        assert!(!result.stats.cache_admitted);
        assert_eq!(engine.catalog.video("v").unwrap().physical.len(), before);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn greedy_planner_is_available_and_covers_the_range() {
        let (mut engine, root) = temp_engine("read-greedy");
        engine.write(&WriteRequest::new("v", Codec::H264), &sequence(60, 64, 48)).unwrap();
        engine.read(&ReadRequest::new("v", 0.5, 1.5, Codec::Hevc)).unwrap();
        let result = engine
            .read(&ReadRequest::new("v", 0.0, 2.0, Codec::Hevc).planner(PlannerKind::Greedy))
            .unwrap();
        assert!(result.stats.plan.covers_range(0.0, 2.0));
        assert_eq!(result.frames.len(), 60);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn drained_shared_stream_is_byte_identical_to_exclusive_read() {
        let (mut engine, root) = temp_engine("read-shared");
        engine.write(&WriteRequest::new("v", Codec::H264), &sequence(60, 64, 48)).unwrap();
        // Populate the cache so plans can involve non-original fragments too.
        engine.read(&ReadRequest::new("v", 0.0, 2.0, Codec::Hevc)).unwrap();
        for request in [
            ReadRequest::new("v", 0.0, 2.0, Codec::Raw(PixelFormat::Yuv420)).uncacheable(),
            ReadRequest::new("v", 0.5, 1.5, Codec::Hevc).uncacheable(),
            ReadRequest::new("v", 0.0, 1.0, Codec::H264)
                .at_resolution(Resolution::new(32, 24))
                .uncacheable(),
        ] {
            let shared = engine.read_stream(&request).unwrap().drain().unwrap();
            let exclusive = engine.read(&request).unwrap();
            assert_eq!(shared.frames.frames(), exclusive.frames.frames());
            let shared_bytes: Option<Vec<Vec<u8>>> =
                shared.encoded.as_ref().map(|g| g.iter().map(|g| g.to_bytes()).collect());
            let exclusive_bytes: Option<Vec<Vec<u8>>> =
                exclusive.encoded.as_ref().map(|g| g.iter().map(|g| g.to_bytes()).collect());
            assert_eq!(shared_bytes, exclusive_bytes);
            assert!(!shared.stats.cache_admitted);
        }
        // Recency bookkeeping still advanced through the shared reference.
        assert!(engine.catalog.clock() > 0);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn cached_fragment_use_is_reported_in_stats() {
        let (mut engine, root) = temp_engine("read-cachedstats");
        engine.write(&WriteRequest::new("v", Codec::H264), &sequence(60, 64, 48)).unwrap();
        let cold = engine.read(&ReadRequest::new("v", 0.0, 2.0, Codec::Hevc)).unwrap();
        assert_eq!(cold.stats.cached_fragments_used, 0, "first read decodes the original");
        let warm = engine.read(&ReadRequest::new("v", 0.0, 1.0, Codec::Hevc)).unwrap();
        assert!(warm.stats.cached_fragments_used > 0, "second read reuses the cached fragment");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn streaming_prefix_reads_work_before_the_full_video_is_written() {
        let (mut engine, root) = temp_engine("read-streaming");
        engine.write(&WriteRequest::new("v", Codec::H264), &sequence(30, 64, 48)).unwrap();
        // Only [0, 1) exists so far; a prefix read succeeds...
        assert!(engine.read(&ReadRequest::new("v", 0.0, 1.0, Codec::H264).uncacheable()).is_ok());
        // ...a read past the end fails...
        assert!(engine.read(&ReadRequest::new("v", 0.0, 1.5, Codec::H264)).is_err());
        // ...until more data is appended.
        engine.append("v", &sequence(30, 64, 48)).unwrap();
        assert!(engine.read(&ReadRequest::new("v", 0.0, 1.5, Codec::H264).uncacheable()).is_ok());
        let _ = std::fs::remove_dir_all(root);
    }
}
