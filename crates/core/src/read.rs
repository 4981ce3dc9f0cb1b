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
//!    (paper Section 4) and the storage budget is enforced by evicting GOP
//!    pages, as one journal commit (see the crate's *Durability contract*).
//!
//! Stages 1–3 are the GOP-at-a-time [`crate::stream`] module, so every read
//! is the same three steps: open a [`ReadStream`](crate::ReadStream) (under
//! a shard's shared lock), drain it (with no lock held), and, only if it has
//! a view to admit, run one short commit (under the exclusive lock) —
//! [`Engine::read`] and [`Vss::read`](crate::Vss::read) are this composition
//! ([`drain_then_admit`]). Streaming and materialized reads are therefore
//! byte-identical by construction, and a read that admits nothing never
//! takes the exclusive lock.
//!
//! Whether a read may admit is known when it is planned: the request may
//! ([`ReadRequest::may_admit`]), no segment passes stored GOPs through, and
//! the plan is not one fragment already in the requested configuration. The
//! drain adds one pure test: a result whose composed resampling bound alone
//! rates below the read's own threshold is not admitted, since such a view
//! could never answer the read that made it (see the `quality` module). The
//! commit re-evaluates the plan-time predicate against the catalog it holds
//! — another handle may have admitted the same view, or deleted the video,
//! since the plan — and admits nothing if it fails; the read still returns
//! its result.

use crate::engine::{Engine, ReadStats};
use crate::params::ReadRequest;
use crate::quality::QualityModel;
use crate::stream::{AdmissionCarry, ReadStream};
use crate::VssError;
use vss_codec::EncodedGop;
use vss_frame::{psnr_from_mse, FrameSequence, Resolution};

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

/// The view a drained read admits: its resolution and quality bound.
pub(crate) type View = (Resolution, f64);

impl AdmissionCarry {
    /// The view this read would admit, or `None` if its composed resampling
    /// bound alone rates below the read's threshold. A view's estimate is
    /// this bound plus a compression term that is never negative, so the
    /// refusal is a proof that the view could not serve this read (or any
    /// repeat).
    fn into_view(self) -> Option<View> {
        let derivation = QualityModel::resampling_mse(&self.samples);
        let mse_bound = QualityModel::compose_bound(self.source_mse_bound, derivation);
        let refused = psnr_from_mse(mse_bound).db() < self.threshold.db();
        (!refused).then_some((self.output_resolution, mse_bound))
    }
}

/// A read's last two steps: drain `stream`, then, only if it has a view to
/// admit, `commit` it. The result's `cache_admitted` is what the commit
/// returns.
pub(crate) fn drain_then_admit(
    stream: ReadStream,
    commit: impl FnOnce(View, &ReadResult) -> Result<bool, VssError>,
) -> Result<ReadResult, VssError> {
    let (mut result, carry) = stream.drain_admitting()?;
    if let Some(view) = carry.and_then(AdmissionCarry::into_view) {
        result.stats.cache_admitted = commit(view, &result)?;
    }
    Ok(result)
}

impl Engine {
    /// Executes a read planned by `request.planner` (the optimal planner by
    /// default): [`read_stream`](Self::read_stream), drained, and the commit
    /// of its view if it has one to admit. A read that may not admit its
    /// result changes nothing in the store, whichever handle issued it.
    pub fn read(&mut self, request: &ReadRequest) -> Result<ReadResult, VssError> {
        let stream = self.read_stream(request)?;
        drain_then_admit(stream, |view, result| self.commit_view(request, view, result))
    }

    /// Admits a drained read's result as a view: the physical video, its
    /// GOPs and the evictions the budget then needs, as one journal commit.
    /// Admits nothing, and returns false, if the plan-time predicate no
    /// longer holds against the catalog as it is now.
    pub(crate) fn commit_view(
        &mut self,
        request: &ReadRequest,
        (resolution, mse_bound): View,
        result: &ReadResult,
    ) -> Result<bool, VssError> {
        if !self.may_admit_now(request) {
            return Ok(false);
        }
        let _span = vss_telemetry::span("engine", "admit", request.name.as_str());
        let (name, output) = (request.name.as_str(), &result.frames);
        self.in_batch(|engine| {
            let physical_id = engine.catalog.add_physical(
                name,
                resolution.width,
                resolution.height,
                output.frame_rate(),
                &request.physical.codec.name(),
                false,
                mse_bound,
            )?;
            match result.encoded.as_deref() {
                Some(gops) => {
                    let mut time = request.temporal.start;
                    for gop in gops {
                        let duration = gop.frame_count() as f64 / output.frame_rate();
                        let (count, bytes) = (gop.frame_count(), gop.to_bytes());
                        engine.catalog.append_gop(name, physical_id, time, time + duration, count, &bytes, None)?;
                        time += duration;
                    }
                }
                None => {
                    // Raw results have no encoded form yet: the write path's
                    // batch drive onto the physical video registered above.
                    let mut write = engine.incremental_write(
                        name,
                        request.physical.codec,
                        request.physical.encoder_quality,
                        output.frame_rate(),
                        Some(physical_id),
                        None,
                        Some(request.temporal.start),
                    );
                    for gop in &write.encode_batch(output)? {
                        engine.push_incremental_encoded(&mut write, gop)?;
                    }
                    engine.establish_budget(name)?;
                }
            }
            engine.enforce_budget(name)?;
            Ok(())
        })?;
        self.catalog.persist()?;
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
    use vss_frame::{pattern, quality, PixelFormat, PsnrDb, RegionOfInterest, Resolution};

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
        let candidates = build_candidates(engine.catalog.video("v").unwrap(), vss_frame::PsnrDb(40.0));
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
                    .resolution(Resolution::new(32, 24))
                    .crop(roi)
                    .fps(15.0),
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
                .resolution(Resolution::new(32, 24))
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
    fn views_that_could_not_answer_their_own_read_are_not_admitted() {
        let (mut engine, root) = temp_engine("read-refuse");
        engine.write(&WriteRequest::new("v", Codec::H264), &sequence(60, 64, 48)).unwrap();
        // A half-size view of [0, 1) made from the original rates 28.6 dB on
        // its bound. Each view made from a view at the same size doubles the
        // bound: 25.5 dB, then 22.5 dB.
        let threshold = PsnrDb(24.0);
        let half = |codec| {
            ReadRequest::new("v", 0.0, 1.0, codec)
                .resolution(Resolution::new(32, 24))
                .quality_threshold(threshold)
        };
        // After every step, each view rates at or above the threshold of the
        // read that admitted it on its bound alone.
        let invariant = |engine: &Engine| {
            let video = engine.catalog.video("v").unwrap();
            for view in video.physical.iter().filter(|p| !p.is_original) {
                let rated = psnr_from_mse(view.mse_bound);
                assert!(rated.db() >= threshold.db(), "a {} view rates {rated}", view.codec);
            }
        };
        assert!(engine.read(&half(Codec::Hevc)).unwrap().stats.cache_admitted);
        invariant(&engine);
        assert!(engine.read(&half(Codec::H264)).unwrap().stats.cache_admitted);
        invariant(&engine);
        let views = engine.materialized_fragment_count("v").unwrap();
        // The third generation would rate below the read's own threshold.
        let raw = half(Codec::Raw(PixelFormat::Yuv420));
        assert!(!engine.read(&raw).unwrap().stats.cache_admitted);
        assert_eq!(engine.materialized_fragment_count("v").unwrap(), views);
        invariant(&engine);
        // A repeat is refused again and reads what an uncacheable read does.
        let repeat = engine.read(&raw).unwrap();
        assert!(!repeat.stats.cache_admitted);
        let uncached = engine.read(&raw.clone().uncacheable()).unwrap();
        assert_eq!(repeat.frames.frames(), uncached.frames.frames());
        invariant(&engine);
        // At the default 40 dB even a view made from the original is refused.
        let default =
            ReadRequest::new("v", 0.0, 1.0, Codec::Hevc).resolution(Resolution::new(32, 24));
        assert!(!engine.read(&default).unwrap().stats.cache_admitted);
        assert_eq!(engine.materialized_fragment_count("v").unwrap(), views);
        invariant(&engine);
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
