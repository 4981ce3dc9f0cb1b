//! GOP-page caching and the LRU_VSS eviction policy (paper Section 4).
//!
//! VSS treats the individual GOPs of every physical video as cache pages.
//! When a logical video exceeds its storage budget, pages are evicted in
//! order of a sequence number
//!
//! `LRU_VSS(f) = LRU(f) + γ·p(f) − ζ·r(f) + b(f)`
//!
//! where `p` pushes eviction toward the ends of a physical video (to avoid
//! fragmenting it), `r` prefers evicting pages that have higher-quality
//! redundant variants, and `b` protects the last remaining
//! sufficient-quality copy of any time range (so the original can always be
//! reproduced). The weights are the prototype's constants [`GAMMA`] and
//! [`ZETA`]. Plain LRU (`γ = ζ = 0`) is available as the baseline the paper
//! compares against; the baseline-quality guard — at
//! [`DEFAULT_QUALITY_THRESHOLD`] — is kept even then so the store never
//! destroys its only copy of a region.

use crate::config::EvictionPolicy;
use crate::quality::{QualityModel, DEFAULT_QUALITY_THRESHOLD};
use crate::VssError;
use vss_catalog::{LogicalVideoRecord, PhysicalVideoId, PhysicalVideoRecord};
use vss_frame::PsnrDb;

/// LRU_VSS weight of the position (defragmentation) term; prototype γ = 2.
pub const GAMMA: f64 = 2.0;

/// LRU_VSS weight of the redundancy term; prototype ζ = 1.
pub const ZETA: f64 = 1.0;

/// A candidate page for eviction and its computed sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct EvictionCandidate {
    /// Physical video owning the page.
    pub physical_id: PhysicalVideoId,
    /// GOP index within the physical video.
    pub gop_index: u64,
    /// The LRU_VSS (or LRU) sequence number; lower numbers are evicted first.
    pub sequence_number: f64,
    /// Size of the page on disk.
    pub byte_len: u64,
    /// For a page at or above the baseline quality, the other such physical
    /// video that covers its interval — what makes it evictable at all.
    pub cover: Option<PhysicalVideoId>,
    /// The page's interval `[start, end)` in seconds.
    pub interval: (f64, f64),
}

/// Computes the position offset `p(f_i) = min(i, n − i)` for the `i`-th of
/// `n` GOPs in a physical video.
pub fn position_offset(index_in_video: usize, total: usize) -> f64 {
    index_in_video.min(total.saturating_sub(index_in_video)) as f64
}

/// Counts the higher-quality redundant variants of a GOP: physical videos,
/// other than the GOP's own, whose estimated quality is strictly higher and
/// whose stored GOPs cover the GOP's time interval.
pub fn redundancy_rank(
    video: &LogicalVideoRecord,
    owner: &PhysicalVideoRecord,
    gop_start: f64,
    gop_end: f64,
) -> usize {
    let own_quality = QualityModel::estimate_physical_quality(owner).db();
    video
        .physical
        .iter()
        .filter(|other| other.id != owner.id)
        .filter(|other| QualityModel::estimate_physical_quality(other).db() > own_quality)
        .filter(|other| covers_interval(other, gop_start, gop_end))
        .count()
}

/// Another sufficient-quality physical video that covers the interval, if
/// any: while there is one, the page is not the last good copy of that
/// region.
pub fn baseline_cover<'a>(
    video: &'a LogicalVideoRecord,
    owner: &PhysicalVideoRecord,
    gop_start: f64,
    gop_end: f64,
    threshold: PsnrDb,
) -> Option<&'a PhysicalVideoRecord> {
    video
        .physical
        .iter()
        .filter(|other| other.id != owner.id)
        .filter(|other| QualityModel::estimate_physical_quality(other).db() >= threshold.db())
        .find(|other| covers_interval(other, gop_start, gop_end))
}

fn covers_interval(physical: &PhysicalVideoRecord, start: f64, end: f64) -> bool {
    // The interval is covered if every moment of [start, end) falls inside
    // some stored GOP (contiguity across the interval).
    let mut cursor = start;
    for gop in &physical.gops {
        if gop.start_time <= cursor + 1e-6 && gop.end_time > cursor + 1e-6 {
            cursor = gop.end_time;
            if cursor >= end - 1e-6 {
                return true;
            }
        }
    }
    cursor >= end - 1e-6
}

/// Computes eviction candidates for every GOP page of a logical video under
/// the given policy, lowest sequence number (most evictable) first. Pages
/// protected by the baseline-quality guard are excluded, and so are the
/// original's first and last pages: reads are bounded by the original's
/// interval, so those two must stay.
pub fn eviction_order(
    video: &LogicalVideoRecord,
    policy: &EvictionPolicy,
) -> Vec<EvictionCandidate> {
    let baseline_threshold = DEFAULT_QUALITY_THRESHOLD;
    let mut candidates = Vec::new();
    for physical in &video.physical {
        let own_quality = QualityModel::estimate_physical_quality(physical);
        let total = physical.gops.len();
        for (position, gop) in physical.gops.iter().enumerate() {
            if physical.is_original && (position == 0 || position + 1 == total) {
                continue;
            }
            // Baseline guard: if this physical video meets the baseline
            // quality and no other sufficient-quality copy covers this
            // region, the page must never be evicted.
            let cover = if own_quality.db() >= baseline_threshold.db() {
                let cover =
                    baseline_cover(video, physical, gop.start_time, gop.end_time, baseline_threshold);
                match cover {
                    Some(cover) => Some(cover.id),
                    None => continue,
                }
            } else {
                None
            };
            let lru = gop.last_access.get() as f64;
            let sequence_number = match policy {
                EvictionPolicy::Lru => lru,
                EvictionPolicy::LruVss => {
                    let p = position_offset(position, total);
                    let r = redundancy_rank(video, physical, gop.start_time, gop.end_time) as f64;
                    lru + GAMMA * p - ZETA * r
                }
            };
            candidates.push(EvictionCandidate {
                physical_id: physical.id,
                gop_index: gop.index,
                sequence_number,
                byte_len: gop.byte_len,
                cover,
                interval: (gop.start_time, gop.end_time),
            });
        }
    }
    candidates.sort_by(|a, b| {
        a.sequence_number
            .partial_cmp(&b.sequence_number)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.physical_id.cmp(&b.physical_id))
            .then(a.gop_index.cmp(&b.gop_index))
    });
    candidates
}

impl crate::engine::Engine {
    /// Evicts GOP pages until the logical video fits inside its storage
    /// budget (or nothing evictable remains). Returns the number of pages
    /// evicted. Physical videos whose last page is evicted are removed.
    ///
    /// A page at or above the baseline quality is evictable only because
    /// another such copy covers it, and that cover may be a view's derived
    /// GOPs. They are hardened first (synced, checksum cleared), so the
    /// guard relies on durable bytes only. Quality estimates move as a
    /// view's bytes do, so the cover is found here, at eviction time.
    pub fn enforce_budget(&mut self, name: &str) -> Result<usize, VssError> {
        let mut evicted = 0usize;
        loop {
            let Some(budget) = self.budget_bytes(name)? else { return Ok(evicted) };
            let used = self.bytes_used(name)?;
            if used <= budget {
                return Ok(evicted);
            }
            let video = self.catalog.video(name)?.clone();
            let order = eviction_order(&video, &self.config.eviction_policy);
            let Some(victim) = order.first() else { return Ok(evicted) };
            if let Some(cover) = victim.cover {
                let (start, end) = victim.interval;
                self.catalog.harden_gops(name, cover, start, end)?;
            }
            self.catalog.remove_gop(name, victim.physical_id, victim.gop_index)?;
            evicted += 1;
            // Drop physical videos that no longer hold any data.
            let empty: Vec<PhysicalVideoId> = self
                .catalog
                .video(name)?
                .physical
                .iter()
                .filter(|p| p.gops.is_empty())
                .map(|p| p.id)
                .collect();
            for id in empty {
                self.catalog.remove_physical(name, id)?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vss_catalog::GopRecord;

    fn gop(index: u64, start: f64, end: f64, last_access: u64) -> GopRecord {
        GopRecord {
            index,
            start_time: start,
            end_time: end,
            frame_count: 30,
            byte_len: 1000,
            lossless_level: None,
            last_access: vss_catalog::AtomicClock::new(last_access),
            crc: None,
        }
    }

    fn physical(id: u64, codec: &str, is_original: bool, mse_bound: f64, gops: Vec<GopRecord>) -> PhysicalVideoRecord {
        PhysicalVideoRecord {
            id,
            width: 320,
            height: 180,
            frame_rate: 30.0,
            codec: codec.into(),
            is_original,
            mse_bound,
            gops,
        }
    }

    fn two_copy_video() -> LogicalVideoRecord {
        let mut video = LogicalVideoRecord::new("v");
        // Original: 4 GOPs over [0, 4).
        video.physical.push(physical(
            1,
            "h264",
            true,
            0.0,
            (0..4).map(|i| gop(i, i as f64, i as f64 + 1.0, 10 + i)).collect(),
        ));
        // Cached lower-quality copy over [0, 2), accessed more recently.
        video.physical.push(physical(
            2,
            "rgb",
            false,
            200.0,
            (0..2).map(|i| gop(i, i as f64, i as f64 + 1.0, 50 + i)).collect(),
        ));
        video
    }

    #[test]
    fn position_offset_prefers_edges() {
        assert_eq!(position_offset(0, 10), 0.0);
        assert_eq!(position_offset(9, 10), 1.0);
        assert_eq!(position_offset(5, 10), 5.0);
        assert_eq!(position_offset(0, 0), 0.0);
    }

    #[test]
    fn baseline_guard_protects_the_only_good_copy() {
        let video = two_copy_video();
        let order = eviction_order(&video, &EvictionPolicy::LruVss);
        // GOPs 2 and 3 of the original have no alternate cover of any quality,
        // and GOPs 0 and 1 of the original have only a *low-quality* copy, so
        // every original page is protected; only the cached copy is evictable.
        assert!(order.iter().all(|c| c.physical_id == 2), "{order:?}");
        assert_eq!(order.len(), 2);
        // A page below the baseline needs no cover to go.
        assert!(order.iter().all(|c| c.cover.is_none()));
    }

    #[test]
    fn high_quality_duplicate_unlocks_original_pages() {
        let mut video = two_copy_video();
        // Make the cached copy pristine quality covering [0, 2).
        video.physical[1].mse_bound = 0.0;
        let order = eviction_order(&video, &EvictionPolicy::LruVss);
        // Now original page 1 is also evictable (its region has an alternate
        // lossless copy, which its eviction relies on), but pages 2 and 3
        // remain protected, and so does page 0: the original's first and
        // last pages bound what a read may ask for.
        let originals: Vec<&EvictionCandidate> =
            order.iter().filter(|c| c.physical_id == 1).collect();
        assert_eq!(originals.len(), 1);
        assert_eq!(originals[0].gop_index, 1);
        assert_eq!(originals[0].cover, Some(2));
        assert_eq!(originals[0].interval, (1.0, 2.0));
        // The pristine copy's own pages are evictable because the original
        // covers them.
        assert!(order.iter().filter(|c| c.physical_id == 2).all(|c| c.cover == Some(1)));
    }

    #[test]
    fn redundancy_prefers_evicting_dominated_copies() {
        let video = two_copy_video();
        let owner = &video.physical[1];
        assert_eq!(redundancy_rank(&video, owner, 0.0, 1.0), 1);
        let original = &video.physical[0];
        assert_eq!(redundancy_rank(&video, original, 0.0, 1.0), 0);
    }

    #[test]
    fn lru_vss_orders_by_adjusted_sequence_number() {
        let mut video = LogicalVideoRecord::new("v");
        // One original (protected) plus one long cached copy; all cached pages
        // share the same recency so position decides the order.
        video.physical.push(physical(1, "h264", true, 0.0, (0..6).map(|i| gop(i, i as f64, i as f64 + 1.0, 100)).collect()));
        video.physical.push(physical(2, "rgb", false, 150.0, (0..6).map(|i| gop(i, i as f64, i as f64 + 1.0, 7)).collect()));
        let order = eviction_order(&video, &EvictionPolicy::LruVss);
        let cached: Vec<u64> = order.iter().filter(|c| c.physical_id == 2).map(|c| c.gop_index).collect();
        // Edges (0 and 5) first, the innermost page (index 3, position offset 3) last.
        let first = cached.first().copied().unwrap();
        assert!(first == 0 || first == 5, "{cached:?}");
        assert_eq!(cached.last().copied().unwrap(), 3, "{cached:?}");
        // Plain LRU ignores position: order is purely by recency, which is a
        // tie here, broken by ids — the middle is *not* specially protected.
        let lru = eviction_order(&video, &EvictionPolicy::Lru);
        let lru_cached: Vec<u64> = lru.iter().filter(|c| c.physical_id == 2).map(|c| c.gop_index).collect();
        assert_eq!(lru_cached, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn interval_coverage_requires_contiguity() {
        let p = physical(1, "h264", false, 0.0, vec![gop(0, 0.0, 1.0, 0), gop(2, 2.0, 3.0, 0)]);
        assert!(covers_interval(&p, 0.0, 1.0));
        assert!(covers_interval(&p, 2.0, 3.0));
        assert!(!covers_interval(&p, 0.5, 2.5));
        assert!(!covers_interval(&p, 1.0, 2.0));
    }
}
