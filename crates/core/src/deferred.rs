//! Deferred (lossless) compression of uncompressed cache entries
//! (paper Section 5.2).
//!
//! Uncompressed video is vastly larger than its compressed counterpart, so
//! caching raw read results quickly exhausts the storage budget. Once a
//! video's cache passes an activation threshold (25 % of its budget), VSS
//! compresses each raw page as it is written (an admitted raw view's
//! included), and its idle maintenance
//! ([`Engine::background_maintenance`], which the store's owner runs on its
//! own schedule) losslessly compresses the uncompressed entries *least
//! likely to be evicted*. A read never compresses: it writes nothing but the
//! view it admits. The compression level scales linearly with budget
//! consumption, trading throughput for space as the budget tightens.
//!
//! The codec is [`vss_codec::lossless`] (format 3): it predicts each plane
//! of the raw GOP it is given from the left or from above and
//! Huffman-codes the residuals. Its level is how many predictors a block
//! tries (left from level 1, above from 7), so a higher level costs more
//! CPU and is never larger, and each predictor is undone a row at a time
//! on read. On `ingest_dedup`'s noisy RGB pages it stores 0.40 of the raw
//! bytes at about 7 ns per byte, where the LZ77 codec it replaced stored
//! 0.975 at 85–105 ns per byte. A page is stored
//! compressed only if that makes it smaller ([`compress_if_smaller`]), both
//! when it is written and when the sweep rewrites it.

use crate::cache::eviction_order;
use crate::engine::Engine;
use crate::write::{deferred_level_for_fraction, DEFERRED_ACTIVATION_FRACTION};
use crate::VssError;
use std::sync::OnceLock;
use std::time::Instant;
use vss_catalog::PhysicalVideoId;
use vss_codec::{lossless, CodecError, EncodedGop};
use vss_telemetry::Histogram;

/// [`lossless::compress`] where it shrinks `data`: the bytes to store, or
/// `None` to store `data` as it is. Both places that compress a page —
/// write-time deferral (which admission goes through) and the maintenance
/// sweep — store through this, so no page is ever stored larger than its
/// raw bytes. Each call is one sample of `deferred.lossless.compress_ns`.
pub(crate) fn compress_if_smaller(data: &[u8], level: u8) -> Option<Vec<u8>> {
    static H: OnceLock<&'static Histogram> = OnceLock::new();
    let started = Instant::now();
    let compressed = lossless::compress(data, level);
    H.get_or_init(|| vss_telemetry::histogram("deferred.lossless.compress_ns"))
        .record_duration(started.elapsed());
    (compressed.len() < data.len()).then_some(compressed)
}

/// [`vss_codec::read_page`], the one reader of a stored page, timed into
/// `deferred.lossless.decompress_ns` when the page was deferred-compressed
/// (it parses to more bytes than were stored): one sample per
/// deferred-compressed GOP a read loads.
pub(crate) fn read_page(bytes: Vec<u8>) -> Result<EncodedGop, CodecError> {
    static H: OnceLock<&'static Histogram> = OnceLock::new();
    let (stored, started) = (bytes.len(), Instant::now());
    let gop = vss_codec::read_page(bytes)?;
    if gop.byte_len() != stored {
        H.get_or_init(|| vss_telemetry::histogram("deferred.lossless.decompress_ns"))
            .record_duration(started.elapsed());
    }
    Ok(gop)
}

impl Engine {
    /// Runs a batched deferred-compression sweep: picks up to `max_pages`
    /// uncompressed pages (least-evictable first), compresses them on the
    /// parallel GOP pipeline, and rewrites the ones that shrank. Returns the
    /// number of pages rewritten.
    ///
    /// Page selection matches repeated single-page sweeps, and the activation
    /// threshold is re-checked before every rewrite, so the sweep stops
    /// shrinking pages at the same point a one-page loop would. The
    /// compression *level* is computed once from the batch-start budget
    /// fraction, so within one batch later pages may be compressed slightly
    /// harder than a fully sequential loop (whose fraction decays page by
    /// page) would have chosen — a deliberate trade for parallel
    /// compression; levels only affect size, never decodability.
    pub fn deferred_compression_sweep(
        &mut self,
        name: &str,
        max_pages: usize,
    ) -> Result<usize, VssError> {
        if !self.config.deferred_compression || max_pages == 0 {
            return Ok(0);
        }
        let Some(fraction) = self.budget_fraction(name)? else { return Ok(0) };
        if fraction < DEFERRED_ACTIVATION_FRACTION {
            return Ok(0);
        }
        let pages = self.least_evictable_uncompressed(name, max_pages)?;
        if pages.is_empty() {
            return Ok(0);
        }
        let level = deferred_level_for_fraction(fraction, DEFERRED_ACTIVATION_FRACTION);
        // Sequential I/O, parallel CPU-bound compression.
        let mut raw_pages = Vec::with_capacity(pages.len());
        for &(physical_id, gop_index) in &pages {
            raw_pages.push(self.catalog.read_gop(name, physical_id, gop_index)?);
        }
        let compressed = vss_parallel::par_map(self.config.parallelism, &raw_pages, |_, raw| {
            compress_if_smaller(raw, level)
        });
        let mut rewritten = 0usize;
        for (&(physical_id, gop_index), compressed) in pages.iter().zip(&compressed) {
            // Earlier rewrites shrink the store; once consumption falls back
            // below the activation threshold, stop — exactly where a
            // sequential one-page loop would have stopped.
            if rewritten > 0 {
                let still_active = self
                    .budget_fraction(name)?
                    .is_some_and(|fraction| fraction >= DEFERRED_ACTIVATION_FRACTION);
                if !still_active {
                    break;
                }
            }
            // Incompressible pages are left alone (and claim no progress).
            if let Some(compressed) = compressed {
                self.catalog.rewrite_gop(name, physical_id, gop_index, compressed, Some(level))?;
                rewritten += 1;
            }
        }
        Ok(rewritten)
    }

    /// Up to `limit` uncompressed (raw-codec, not yet losslessly compressed)
    /// GOP pages with the *highest* eviction sequence numbers — i.e. the
    /// entries VSS expects to keep the longest, making them the most
    /// valuable to shrink.
    fn least_evictable_uncompressed(
        &self,
        name: &str,
        limit: usize,
    ) -> Result<Vec<(PhysicalVideoId, u64)>, VssError> {
        let video = self.catalog.video(name)?;
        let order = eviction_order(video, &self.config.eviction_policy);
        let is_raw = |physical_id: PhysicalVideoId| {
            video
                .physical_by_id(physical_id)
                .and_then(|p| p.codec())
                .map(|c| !c.is_compressed())
                .unwrap_or(false)
        };
        let mut pages: Vec<(PhysicalVideoId, u64)> = order
            .iter()
            .rev()
            .filter(|c| {
                is_raw(c.physical_id)
                    && video
                        .physical_by_id(c.physical_id)
                        .and_then(|p| p.gop_by_index(c.gop_index))
                        .map(|g| g.lossless_level.is_none())
                        .unwrap_or(false)
            })
            .map(|c| (c.physical_id, c.gop_index))
            .take(limit)
            .collect();
        if !pages.is_empty() {
            return Ok(pages);
        }
        // `eviction_order` excludes protected pages; also consider protected
        // raw pages (e.g. a raw original) by scanning records directly when
        // nothing in the eviction order qualifies.
        for physical in &video.physical {
            if physical.codec().map(|c| c.is_compressed()).unwrap_or(true) {
                continue;
            }
            for gop in physical.gops.iter().rev() {
                if gop.lossless_level.is_none() {
                    pages.push((physical.id, gop.index));
                    if pages.len() == limit {
                        return Ok(pages);
                    }
                }
            }
            if !pages.is_empty() {
                // Stay within one physical video per sweep, mirroring the
                // one-page sweep's behaviour of working through one
                // representation at a time.
                break;
            }
        }
        Ok(pages)
    }

    /// Runs one unit of background maintenance across all videos: a deferred
    /// compression step where budgets are tight, otherwise a compaction pass.
    /// Returns `true` if any work was performed. A host calls it repeatedly
    /// while the store is otherwise idle (paper Section 5.2's "background
    /// thread" behaviour), directly or through [`crate::Vss::run_maintenance`].
    pub fn background_maintenance(&mut self) -> Result<bool, VssError> {
        let names = self.video_names();
        let mut worked = false;
        // One batch of pages per maintenance tick keeps every worker busy
        // without starving compaction.
        let batch = vss_parallel::resolve_threads(self.config.parallelism);
        for name in &names {
            if self.config.deferred_compression
                && self.deferred_compression_sweep(name, batch)? > 0
            {
                worked = true;
                continue;
            }
            if self.compact_video(name)? > 0 {
                worked = true;
            }
        }
        if worked {
            self.catalog.persist()?;
        }
        Ok(worked)
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::test_support::temp_engine;
    use crate::params::{StorageBudget, WriteRequest};
    use vss_codec::Codec;
    use vss_frame::{pattern, FrameSequence, PixelFormat};

    fn raw_sequence(frames: usize) -> FrameSequence {
        let frames: Vec<_> = (0..frames)
            .map(|i| pattern::gradient(64, 48, PixelFormat::Rgb8, i as u64))
            .collect();
        FrameSequence::new(frames, 30.0).unwrap()
    }

    #[test]
    fn deferred_step_compresses_raw_pages_when_budget_is_tight() {
        let (mut engine, root) = temp_engine("deferred-step");
        // Disable write-time deferral so pages start uncompressed, then force
        // a tiny budget so the sweep activates.
        engine.config.deferred_compression = false;
        engine.create_video("v", Some(StorageBudget::Bytes(2_000_000))).unwrap();
        engine.write(&WriteRequest::new("v", Codec::Raw(PixelFormat::Rgb8)), &raw_sequence(12)).unwrap();
        engine.config.deferred_compression = true;
        let budget = engine.bytes_used("v").unwrap() * 2;
        engine.catalog.set_storage_budget("v", Some(budget)).unwrap();
        let before = engine.bytes_used("v").unwrap();
        assert_eq!(engine.deferred_compression_sweep("v", 1).unwrap(), 1);
        let after = engine.bytes_used("v").unwrap();
        assert!(after < before, "a page should have shrunk: {before} -> {after}");
        let video = engine.catalog.video("v").unwrap();
        let compressed: Vec<_> = video.physical[0]
            .gops
            .iter()
            .filter(|g| g.lossless_level.is_some())
            .collect();
        assert_eq!(compressed.len(), 1);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn deferred_step_is_idle_below_activation_threshold() {
        let (mut engine, root) = temp_engine("deferred-idle");
        engine.config.deferred_compression = false;
        engine.create_video("v", Some(StorageBudget::Unlimited)).unwrap();
        engine.write(&WriteRequest::new("v", Codec::Raw(PixelFormat::Rgb8)), &raw_sequence(6)).unwrap();
        engine.config.deferred_compression = true;
        // Unlimited budget → never activates.
        assert_eq!(engine.deferred_compression_sweep("v", 1).unwrap(), 0);
        // Large budget → below threshold → never activates.
        let budget = engine.bytes_used("v").unwrap() * 100;
        engine.catalog.set_storage_budget("v", Some(budget)).unwrap();
        assert_eq!(engine.deferred_compression_sweep("v", 1).unwrap(), 0);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn sweep_compresses_multiple_pages_in_one_call() {
        let (mut engine, root) = temp_engine("deferred-sweep");
        engine.config.deferred_compression = false;
        engine.create_video("v", Some(StorageBudget::Bytes(2_000_000))).unwrap();
        engine.write(&WriteRequest::new("v", Codec::Raw(PixelFormat::Rgb8)), &raw_sequence(12)).unwrap();
        engine.config.deferred_compression = true;
        // Full, so that after three pages shrink the fourth still counts.
        let budget = engine.bytes_used("v").unwrap() + 1;
        engine.catalog.set_storage_budget("v", Some(budget)).unwrap();
        let compressed_pages = |engine: &crate::engine::Engine| {
            engine.catalog.video("v").unwrap().physical[0]
                .gops
                .iter()
                .filter(|g| g.lossless_level.is_some())
                .count()
        };
        assert_eq!(engine.deferred_compression_sweep("v", 3).unwrap(), 3);
        assert_eq!(compressed_pages(&engine), 3);
        // A zero-page sweep is a no-op; an oversized request stops at the
        // available pages.
        assert_eq!(engine.deferred_compression_sweep("v", 0).unwrap(), 0);
        assert_eq!(engine.deferred_compression_sweep("v", 100).unwrap(), 1);
        assert_eq!(compressed_pages(&engine), 4);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn background_maintenance_reports_progress_and_quiesces() {
        let (mut engine, root) = temp_engine("deferred-bg");
        engine.config.deferred_compression = false;
        engine.create_video("v", Some(StorageBudget::Bytes(10_000_000))).unwrap();
        engine.write(&WriteRequest::new("v", Codec::Raw(PixelFormat::Rgb8)), &raw_sequence(9)).unwrap();
        engine.config.deferred_compression = true;
        let budget = engine.bytes_used("v").unwrap() + 1;
        engine.catalog.set_storage_budget("v", Some(budget)).unwrap();
        // Repeated maintenance eventually compresses every page, then quiesces.
        let mut steps = 0;
        while engine.background_maintenance().unwrap() {
            steps += 1;
            assert!(steps < 50, "maintenance should converge");
        }
        let video = engine.catalog.video("v").unwrap();
        assert!(video.physical[0].gops.iter().all(|g| g.lossless_level.is_some()));
        assert!(!engine.background_maintenance().unwrap());
        let _ = std::fs::remove_dir_all(root);
    }
}
