//! Physical video compaction (paper Section 5.3).
//!
//! Caching and deferred compression can leave a logical video with many
//! small cached physical videos that are temporally contiguous and share a
//! spatial/physical configuration (e.g. entries covering `[0, 90)` and
//! `[90, 120)`). Every extra physical video increases read-planning cost, so
//! VSS periodically and non-quiescently merges such pairs into a single
//! representation. As in the paper's prototype, no byte is copied: the
//! second entry's GOP files are hard-linked under the first entry's next
//! indices and the second entry is dropped, all as one journal commit
//! (`vss_catalog::Catalog::move_gops`). Each moved page keeps its durability
//! class, and until the merge is journaled the second entry stays whole.

use crate::engine::Engine;
use crate::VssError;
use vss_catalog::PhysicalVideoId;

const TIME_EPSILON: f64 = 1e-6;

impl Engine {
    /// Compacts pairs of contiguous cached physical videos with identical
    /// configurations. Returns the number of merges performed.
    pub fn compact_video(&mut self, name: &str) -> Result<usize, VssError> {
        let _span = vss_telemetry::span("engine", "compact", name);
        let mut merges = 0usize;
        while let Some((target, source)) = self.find_compaction_pair(name)? {
            self.merge_physical(name, target, source)?;
            merges += 1;
        }
        if merges > 0 {
            self.catalog.persist()?;
        }
        Ok(merges)
    }

    /// Finds one `(target, source)` pair where `source` starts exactly where
    /// `target` ends and both share resolution, frame rate and codec. The
    /// original physical video is never compacted into or out of.
    fn find_compaction_pair(
        &self,
        name: &str,
    ) -> Result<Option<(PhysicalVideoId, PhysicalVideoId)>, VssError> {
        let video = self.catalog.video(name)?;
        for target in &video.physical {
            if target.is_original || target.gops.is_empty() {
                continue;
            }
            for source in &video.physical {
                if source.id == target.id || source.is_original || source.gops.is_empty() {
                    continue;
                }
                let same_config = source.width == target.width
                    && source.height == target.height
                    && (source.frame_rate - target.frame_rate).abs() < 1e-9
                    && source.codec == target.codec;
                let contiguous = (source.start_time() - target.end_time()).abs() < TIME_EPSILON;
                if same_config && contiguous {
                    return Ok(Some((target.id, source.id)));
                }
            }
        }
        Ok(None)
    }

    /// Moves every GOP of `source` to the end of `target` and removes
    /// `source`, as one journal commit. The merged representation's quality
    /// bound is the worse of the two inputs.
    fn merge_physical(
        &mut self,
        name: &str,
        target: PhysicalVideoId,
        source: PhysicalVideoId,
    ) -> Result<(), VssError> {
        let video = self.catalog.video(name)?;
        let bound = |id| video.physical_by_id(id).map(|p| p.mse_bound);
        let (Some(target_bound), Some(source_bound)) = (bound(target), bound(source)) else {
            return Err(VssError::Unsatisfiable("compaction pair vanished".into()));
        };
        self.in_batch(|engine| {
            engine.catalog.move_gops(name, source, target)?;
            engine.catalog.set_mse_bound(name, target, target_bound.max(source_bound))?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::test_support::temp_engine;
    use crate::params::{ReadRequest, WriteRequest};
    use vss_codec::Codec;
    use vss_frame::{pattern, FrameSequence, PixelFormat};

    fn sequence(frames: usize) -> FrameSequence {
        let frames: Vec<_> =
            (0..frames).map(|i| pattern::gradient(64, 48, PixelFormat::Yuv420, i as u64)).collect();
        FrameSequence::new(frames, 30.0).unwrap()
    }

    #[test]
    fn contiguous_cached_entries_are_merged() {
        let (mut engine, root) = temp_engine("compact-merge");
        engine.write(&WriteRequest::new("v", Codec::H264), &sequence(90)).unwrap();
        // Two contiguous HEVC reads create two cached physical videos.
        engine.read(&ReadRequest::new("v", 0.0, 1.0, Codec::Hevc)).unwrap();
        engine.read(&ReadRequest::new("v", 1.0, 2.0, Codec::Hevc)).unwrap();
        let before = engine.catalog.video("v").unwrap().physical.len();
        assert_eq!(before, 3, "original + two cached entries");
        let merges = engine.compact_video("v").unwrap();
        assert_eq!(merges, 1);
        let video = engine.catalog.video("v").unwrap();
        assert_eq!(video.physical.len(), 2);
        let cached = video.physical.iter().find(|p| !p.is_original).unwrap();
        assert!((cached.start_time() - 0.0).abs() < 1e-6);
        assert!((cached.end_time() - 2.0).abs() < 1e-6);
        // The merged entry still serves reads.
        let result = engine.read(&ReadRequest::new("v", 0.0, 2.0, Codec::Hevc).uncacheable()).unwrap();
        assert_eq!(result.frames.len(), 60);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn non_contiguous_or_mismatched_entries_are_left_alone() {
        let (mut engine, root) = temp_engine("compact-skip");
        engine.write(&WriteRequest::new("v", Codec::H264), &sequence(90)).unwrap();
        // Non-contiguous HEVC reads and a raw read: nothing to merge.
        engine.read(&ReadRequest::new("v", 0.0, 1.0, Codec::Hevc)).unwrap();
        engine.read(&ReadRequest::new("v", 2.0, 3.0, Codec::Hevc)).unwrap();
        engine.read(&ReadRequest::new("v", 1.0, 2.0, Codec::Raw(PixelFormat::Yuv420))).unwrap();
        let before = engine.catalog.video("v").unwrap().physical.len();
        assert_eq!(engine.compact_video("v").unwrap(), 0);
        assert_eq!(engine.catalog.video("v").unwrap().physical.len(), before);
        let _ = std::fs::remove_dir_all(root);
    }
}
