//! The write path: ingesting video data into VSS.
//!
//! Writes accept frame data in any supported configuration and persist it as
//! a sequence of independently decodable GOP files (paper Section 2). The
//! first write of a logical video establishes the *original* physical video —
//! the quality reference for all cached derivations — and resolves the
//! video's storage budget. Uncompressed writes participate in deferred
//! compression (Section 5.2): once the storage budget passes the activation
//! threshold, newly written blocks are losslessly compressed at a level that
//! scales with the remaining budget.
//!
//! `write` and `append` are batch drives of the incremental primitives in
//! [`crate::sink`] ([`IncrementalWrite::commit_batch`](crate::IncrementalWrite::commit_batch)):
//! begin, par-encode every GOP, then persist them in order through
//! `push_incremental_encoded` — the same calls a
//! [`WriteSink`](crate::WriteSink) makes GOP-at-a-time.

use crate::engine::{Engine, WriteReport};
use crate::params::WriteRequest;
use crate::VssError;
use vss_catalog::PhysicalVideoId;
use vss_codec::{lossless, Codec, EncodedGop};
use vss_frame::FrameSequence;

impl Engine {
    /// Writes a frame sequence to a logical video. Creates the video (with
    /// the default budget) if it does not exist yet; the first write becomes
    /// the original physical video.
    pub fn write(&mut self, request: &WriteRequest, frames: &FrameSequence) -> Result<WriteReport, VssError> {
        let write = self.begin_incremental_write(request, frames.frame_rate())?;
        write.commit_batch("write", frames, || self)
    }

    /// Appends additional frames to a logical video's original physical
    /// video (streaming ingest), continuing from its current end time. The
    /// frames must have the original's resolution and frame rate; a mismatch
    /// is rejected with a typed frame error before anything is persisted.
    /// Readers may query any prefix of the data written so far.
    pub fn append(&mut self, name: &str, frames: &FrameSequence) -> Result<WriteReport, VssError> {
        let write = self.begin_incremental_append(name, frames.frame_rate())?;
        write.commit_batch("append", frames, || self)
    }

    /// Serializes and persists one encoded GOP under an existing physical
    /// video, applying write-time deferred compression when the budget calls
    /// for it — every journal and file step of a write happens under here,
    /// in the GOP's durability class (`Catalog::append_gop`). Returns the
    /// bytes stored and the lossless level applied (0 = none).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn persist_gop(
        &mut self,
        name: &str,
        physical_id: PhysicalVideoId,
        codec: Codec,
        gop: &EncodedGop,
        time: f64,
        frame_count: usize,
        frame_rate: f64,
    ) -> Result<(u64, u8), VssError> {
        let duration = frame_count as f64 / frame_rate;
        let compressed = self.defer_on_write(name, codec, gop)?;
        let (data, level) = match &compressed {
            Some((compressed, level)) => (compressed.as_slice(), *level),
            None => (gop.as_bytes(), 0),
        };
        let bytes = data.len() as u64;
        let seq = self.catalog.append_gop(
            name,
            physical_id,
            time,
            time + duration,
            frame_count,
            data,
            if level > 0 { Some(level) } else { None },
        )?;
        // Live fanout: an original's GOP is durable (journaled + fsynced +
        // renamed into place) as of the append above, so it may now be
        // published. Only the original timeline publishes — cached fragments
        // materialized by the read path come through here too (derived, and
        // inside their admission's batch), but subscribers tail the original.
        if let Some(publisher) = &self.publisher {
            let is_original = self
                .catalog
                .video(name)?
                .original()
                .is_some_and(|original| original.id == physical_id);
            if is_original {
                publisher.gop_persisted(&crate::publish::GopPublication {
                    name,
                    seq,
                    start_time: time,
                    end_time: time + duration,
                    frame_count,
                    frame_rate,
                    gop,
                });
            }
        }
        Ok((bytes, level))
    }

    /// Establishes the video's storage budget once the original's size is
    /// known: journals what [`budget_bytes`](Engine::budget_bytes) resolves
    /// (a no-op when already set or nothing has been written).
    pub(crate) fn establish_budget(&mut self, name: &str) -> Result<(), VssError> {
        if self.catalog.video(name)?.storage_budget_bytes.is_none() {
            if let Some(resolved) = self.budget_bytes(name)? {
                self.catalog.set_storage_budget(name, Some(resolved))?;
            }
        }
        Ok(())
    }

    /// Write-time deferred compression of an uncompressed GOP: once the
    /// video's budget consumption has passed the activation threshold, its
    /// bytes compressed at the level the budget calls for, with that level,
    /// if that shrinks them. `None` stores the GOP's own bytes.
    fn defer_on_write(
        &mut self,
        name: &str,
        codec: Codec,
        gop: &EncodedGop,
    ) -> Result<Option<(Vec<u8>, u8)>, VssError> {
        if codec.is_compressed() || !self.config.deferred_compression {
            return Ok(None);
        }
        Ok(match self.budget_fraction(name)? {
            Some(fraction) if fraction >= DEFERRED_ACTIVATION_FRACTION => {
                let level = deferred_level_for_fraction(fraction, DEFERRED_ACTIVATION_FRACTION);
                crate::deferred::compress_if_smaller(gop.as_bytes(), level).map(|compressed| (compressed, level))
            }
            _ => None,
        })
    }
}

/// Fraction of a video's storage budget at which deferred compression
/// activates (prototype: 25 %).
pub(crate) const DEFERRED_ACTIVATION_FRACTION: f64 = 0.25;

/// Maps budget consumption to a deferred-compression level: the level scales
/// linearly from 1 (just past the activation threshold) to 19 (budget
/// exhausted), mirroring the paper's Figure 13 behaviour.
pub fn deferred_level_for_fraction(fraction: f64, activation: f64) -> u8 {
    let span = (1.0 - activation).max(1e-9);
    let t = ((fraction - activation) / span).clamp(0.0, 1.0);
    (1.0 + t * (lossless::MAX_LEVEL as f64 - 1.0)).round() as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_support::temp_engine;
    use crate::params::StorageBudget;
    use vss_codec::codec_instance;
    use vss_frame::{pattern, PixelFormat};

    fn sequence(frames: usize, width: u32, height: u32) -> FrameSequence {
        let frames: Vec<_> =
            (0..frames).map(|i| pattern::gradient(width, height, PixelFormat::Yuv420, i as u64)).collect();
        FrameSequence::new(frames, 30.0).unwrap()
    }

    #[test]
    fn first_write_becomes_original_and_sets_budget() {
        let (mut engine, root) = temp_engine("write-original");
        let report = engine
            .write(&WriteRequest::new("traffic", Codec::H264), &sequence(60, 64, 48))
            .unwrap();
        assert_eq!(report.frames_written, 60);
        assert_eq!(report.gops_written, 2);
        assert!(report.bytes_written > 0);
        let video = engine.catalog.video("traffic").unwrap();
        let original = video.original().unwrap();
        assert!(original.is_original);
        assert_eq!(original.gops.len(), 2);
        assert_eq!(
            video.storage_budget_bytes,
            Some((original.byte_len() as f64 * 10.0).round() as u64)
        );
        // Second write of the same video is a cached (non-original) representation.
        let report2 = engine
            .write(&WriteRequest::new("traffic", Codec::Raw(PixelFormat::Yuv420)), &sequence(6, 64, 48))
            .unwrap();
        assert_ne!(report2.physical_id, report.physical_id);
        assert_eq!(engine.catalog.video("traffic").unwrap().physical.len(), 2);
        let _ = std::fs::remove_dir_all(root);
    }

    /// A budget requested as a multiple of the original is the one the first
    /// write resolves — not the configured default — also when the store is
    /// reopened between the create and that write.
    #[test]
    fn created_multiple_is_the_resolved_budget() {
        for reopen in [false, true] {
            let (mut engine, root) = temp_engine(&format!("write-multiple-{reopen}"));
            engine.create_video("v", Some(StorageBudget::MultipleOfOriginal(2.0))).unwrap();
            if reopen {
                let config = engine.config.clone();
                drop(engine);
                engine = Engine::open(config).unwrap();
            }
            engine.write(&WriteRequest::new("v", Codec::H264), &sequence(60, 64, 48)).unwrap();
            let original = engine.catalog.video("v").unwrap().original().unwrap().byte_len();
            let expected = (original as f64 * 2.0).round() as u64;
            assert_eq!(engine.budget_bytes("v").unwrap(), Some(expected), "reopen = {reopen}");
            assert_eq!(engine.catalog.video("v").unwrap().storage_budget_bytes, Some(expected));
            let _ = std::fs::remove_dir_all(root);
        }
    }

    #[test]
    fn empty_writes_are_rejected() {
        let (mut engine, root) = temp_engine("write-empty");
        let empty = FrameSequence::empty(30.0).unwrap();
        assert!(matches!(
            engine.write(&WriteRequest::new("v", Codec::H264), &empty),
            Err(VssError::EmptyWrite)
        ));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn append_continues_the_original_timeline() {
        let (mut engine, root) = temp_engine("append");
        engine.write(&WriteRequest::new("v", Codec::H264), &sequence(30, 64, 48)).unwrap();
        engine.append("v", &sequence(30, 64, 48)).unwrap();
        let video = engine.catalog.video("v").unwrap();
        let original = video.original().unwrap();
        assert_eq!(original.gops.len(), 2);
        assert!((original.end_time() - 2.0).abs() < 1e-6);
        assert!((original.gops[1].start_time - 1.0).abs() < 1e-6);
        // Appending to a video with no original fails.
        engine.create_video("w", None).unwrap();
        assert!(engine.append("w", &sequence(5, 64, 48)).is_err());
        let _ = std::fs::remove_dir_all(root);
    }

    /// Write-time deferral stores a page compressed only if that makes it
    /// smaller: a page of noise codes to more than its bytes. Fails on the
    /// parent, which stored whatever the codec returned.
    #[test]
    fn write_time_deferral_never_stores_a_page_larger_than_its_raw_bytes() {
        let (mut engine, root) = temp_engine("write-never-larger");
        let frames: Vec<_> = (0..24).map(|i| pattern::noise(64, 48, PixelFormat::Rgb8, i)).collect();
        let clip = FrameSequence::new(frames, 30.0).unwrap();
        let raw_page = codec_instance(Codec::Raw(PixelFormat::Rgb8))
            .encode(&FrameSequence::new(clip.frames()[..3].to_vec(), 30.0).unwrap(), &Default::default())
            .unwrap()
            .byte_len() as u64;
        // Eight raw pages against a budget of 24: deferral switches on for
        // the last two, at level 1.
        engine.create_video("v", Some(StorageBudget::Bytes(24 * raw_page))).unwrap();
        engine.write(&WriteRequest::new("v", Codec::Raw(PixelFormat::Rgb8)), &clip).unwrap();
        assert!(engine.budget_fraction("v").unwrap().unwrap() >= DEFERRED_ACTIVATION_FRACTION);
        let gops = &engine.catalog.video("v").unwrap().original().unwrap().gops;
        assert_eq!(gops.len(), 8);
        for gop in gops {
            assert!(gop.byte_len <= raw_page, "GOP {} stored in {} bytes, raw {raw_page}", gop.index, gop.byte_len);
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn uncompressed_writes_defer_compress_once_budget_tightens() {
        let (mut engine, root) = temp_engine("write-deferred");
        // A small fixed budget forces deferred compression to activate partway
        // through the write.
        engine.create_video("v", Some(StorageBudget::Bytes(400_000))).unwrap();
        let report = engine
            .write(&WriteRequest::new("v", Codec::Raw(PixelFormat::Rgb8)), &sequence(30, 64, 48))
            .unwrap();
        assert_eq!(report.deferred_levels.len(), report.gops_written);
        assert_eq!(report.deferred_levels[0], 0, "first block is written before activation");
        let max_level = *report.deferred_levels.iter().max().unwrap();
        assert!(max_level >= 1, "deferred compression should have activated");
        // Levels never decrease as the budget fills.
        let active: Vec<u8> = report.deferred_levels.iter().copied().filter(|&l| l > 0).collect();
        assert!(active.windows(2).all(|w| w[1] >= w[0]));
        // Stored GOPs round-trip through the lossless layer.
        let video = engine.catalog.video("v").unwrap();
        let original = video.original().unwrap();
        let compressed_gop =
            original.gops.iter().find(|g| g.lossless_level.is_some()).expect("some gop compressed");
        let bytes = engine.catalog.read_gop("v", original.id, compressed_gop.index).unwrap();
        let stored = bytes.len();
        let decoded = vss_codec::read_page(bytes).unwrap();
        assert!(decoded.byte_len() > stored, "the page is stored compressed");
        assert_eq!(decoded.frame_count(), compressed_gop.frame_count);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn compressed_writes_are_never_deferred() {
        let (mut engine, root) = temp_engine("write-compressed");
        engine.create_video("v", Some(StorageBudget::Bytes(10))).unwrap();
        let report =
            engine.write(&WriteRequest::new("v", Codec::Hevc), &sequence(10, 64, 48)).unwrap();
        assert!(report.deferred_levels.iter().all(|&l| l == 0));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn deferred_level_scales_linearly_with_budget() {
        assert_eq!(deferred_level_for_fraction(0.0, 0.25), 1);
        assert_eq!(deferred_level_for_fraction(0.25, 0.25), 1);
        assert_eq!(deferred_level_for_fraction(1.0, 0.25), 19);
        assert_eq!(deferred_level_for_fraction(2.0, 0.25), 19);
        let mid = deferred_level_for_fraction(0.625, 0.25);
        assert!((9..=11).contains(&mid), "midpoint should be near level 10, got {mid}");
        let mut last = 0;
        for i in 0..=20 {
            let level = deferred_level_for_fraction(0.25 + i as f64 * 0.0375, 0.25);
            assert!(level >= last);
            last = level;
        }
    }
}
