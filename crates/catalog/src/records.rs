//! Catalog records: the persisted metadata describing logical and physical
//! videos and their GOPs.
//!
//! The paper's prototype keeps this metadata in SQLite; here it is a set of
//! plain serde records persisted as JSON next to the video data. Records
//! deliberately store codecs and formats as strings so the catalog's on-disk
//! schema stays stable and human-inspectable.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use vss_codec::Codec;
use vss_frame::Resolution;

/// Identifier of a physical video within the catalog.
pub type PhysicalVideoId = u64;

/// A monotonically advancing logical clock that can be bumped through a
/// shared (`&self`) reference.
///
/// Recency bookkeeping (the LRU clocks on GOP pages) is the only catalog
/// state a *read-only* session mutates: before this type existed, merely
/// reading a video required exclusive access to the catalog just to record
/// "page f was touched now". Storing the clocks in atomics lets readers
/// holding a shared lock bump them concurrently; [`AtomicClock::advance_to`]
/// uses `fetch_max`, so racing touches can never move a clock backwards.
///
/// Serialization (and equality/cloning) go through the loaded value, so the
/// persisted catalog schema is unchanged: an `AtomicClock` is a plain integer
/// on disk.
#[derive(Debug, Default)]
pub struct AtomicClock(AtomicU64);

impl AtomicClock {
    /// Creates a clock at the given value.
    pub const fn new(value: u64) -> Self {
        Self(AtomicU64::new(value))
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Advances the clock to `value` if that is later than the current value
    /// (racing touches keep the latest timestamp, never an earlier one).
    pub fn advance_to(&self, value: u64) {
        self.0.fetch_max(value, Ordering::AcqRel);
    }

    /// Atomically increments the clock, returning the new value.
    pub fn increment(&self) -> u64 {
        self.0.fetch_add(1, Ordering::AcqRel) + 1
    }
}

impl Clone for AtomicClock {
    fn clone(&self) -> Self {
        Self::new(self.get())
    }
}

impl PartialEq for AtomicClock {
    fn eq(&self, other: &Self) -> bool {
        self.get() == other.get()
    }
}

impl Serialize for AtomicClock {
    fn to_value(&self) -> serde::json::Value {
        self.get().to_value()
    }
}

impl Deserialize for AtomicClock {
    fn from_value(value: &serde::json::Value) -> Result<Self, String> {
        u64::from_value(value).map(Self::new)
    }
}

/// Metadata for one GOP file of a physical video.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GopRecord {
    /// Index of the GOP within its physical video (also its file stem).
    pub index: u64,
    /// Start time of the GOP within the logical video, in seconds.
    pub start_time: f64,
    /// End time of the GOP within the logical video, in seconds.
    pub end_time: f64,
    /// Number of frames in the GOP.
    pub frame_count: usize,
    /// Size of the GOP file on disk, in bytes.
    pub byte_len: u64,
    /// Lossless (deferred) compression level applied on top of the GOP file,
    /// if any. `None` means the file holds the GOP container directly.
    pub lossless_level: Option<u8>,
    /// Logical timestamp of the last access (for recency-based eviction).
    /// Atomic so read-only sessions holding a shared lock can bump it.
    pub last_access: AtomicClock,
    /// CRC-32 of the file's bytes while the GOP is *derived*: written
    /// without `fsync`, so [`Catalog::open`](crate::Catalog::open) verifies
    /// it. `None` for a durable GOP (an original's, or a hardened view page).
    pub crc: Option<u32>,
}

impl GopRecord {
    /// Duration of the GOP in seconds.
    pub fn duration(&self) -> f64 {
        (self.end_time - self.start_time).max(0.0)
    }

    /// True if the GOP temporally overlaps `[start, end)`.
    pub fn overlaps(&self, start: f64, end: f64) -> bool {
        self.start_time < end - 1e-9 && self.end_time > start + 1e-9
    }
}

/// Metadata for one physical video (a materialized representation of a
/// logical video in a specific spatial/physical configuration).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhysicalVideoRecord {
    /// Catalog-wide identifier.
    pub id: PhysicalVideoId,
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// Frame rate in frames per second.
    pub frame_rate: f64,
    /// Codec name (`h264`, `hevc`, `rgb`, `yuv420`, `yuv422`).
    pub codec: String,
    /// True for the originally written physical video (never evictable below
    /// the baseline-quality cover).
    pub is_original: bool,
    /// Upper bound on the accumulated MSE of this representation relative to
    /// the originally written video (0 for the original itself), maintained
    /// with the paper's composition bound.
    pub mse_bound: f64,
    /// GOPs in temporal order.
    pub gops: Vec<GopRecord>,
}

impl PhysicalVideoRecord {
    /// The video's resolution.
    pub fn resolution(&self) -> Resolution {
        Resolution::new(self.width, self.height)
    }

    /// The video's codec, if the stored name is recognized.
    pub fn codec(&self) -> Option<Codec> {
        Codec::parse(&self.codec)
    }

    /// Start time of the earliest GOP (0 if empty).
    pub fn start_time(&self) -> f64 {
        self.gops.first().map_or(0.0, |g| g.start_time)
    }

    /// End time of the latest GOP (0 if empty).
    pub fn end_time(&self) -> f64 {
        self.gops.last().map_or(0.0, |g| g.end_time)
    }

    /// Total bytes of all GOP files.
    pub fn byte_len(&self) -> u64 {
        self.gops.iter().map(|g| g.byte_len).sum()
    }

    /// Directory name used on disk, mirroring the paper's layout
    /// (e.g. `1920x1080r30.hevc.12`).
    pub fn directory_name(&self) -> String {
        format!("{}x{}r{}.{}.{}", self.width, self.height, self.frame_rate, self.codec, self.id)
    }

    /// Looks up a GOP by its index in `O(log n)`.
    ///
    /// GOP indices are assigned monotonically on append and evictions only
    /// remove entries, so `gops` is always sorted by index — a binary search
    /// replaces the linear scans the read/eviction paths used to perform per
    /// lookup (which made them quadratic over a physical video's GOPs).
    pub fn gop_by_index(&self, index: u64) -> Option<&GopRecord> {
        let position = self.gops.binary_search_by_key(&index, |g| g.index).ok()?;
        Some(&self.gops[position])
    }

    /// Mutable variant of [`gop_by_index`](Self::gop_by_index).
    pub fn gop_by_index_mut(&mut self, index: u64) -> Option<&mut GopRecord> {
        let position = self.gops.binary_search_by_key(&index, |g| g.index).ok()?;
        Some(&mut self.gops[position])
    }

    /// Position of a GOP in the `gops` vector by its index.
    pub fn gop_position(&self, index: u64) -> Option<usize> {
        self.gops.binary_search_by_key(&index, |g| g.index).ok()
    }

    /// A precomputed index → GOP map for call sites that perform many
    /// lookups against a snapshot of this record (e.g. executing one read
    /// plan). Borrows the records, so it costs one `O(n)` pass up front and
    /// nothing per hit.
    pub fn gop_index_map(&self) -> std::collections::HashMap<u64, &GopRecord> {
        self.gops.iter().map(|g| (g.index, g)).collect()
    }
}

/// Metadata for one logical video.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogicalVideoRecord {
    /// The logical video's name (unique within a catalog).
    pub name: String,
    /// Storage budget in bytes for all physical representations of this
    /// video. `None` means "unset" until the first write establishes it.
    pub storage_budget_bytes: Option<u64>,
    /// The budget requested at creation as a multiple of the original's
    /// size, which the first write resolves into `storage_budget_bytes`.
    /// `None` means the store's configured default applies.
    pub budget_multiple: Option<f64>,
    /// Physical representations, including the original.
    pub physical: Vec<PhysicalVideoRecord>,
}

impl LogicalVideoRecord {
    /// Creates an empty logical video record.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            storage_budget_bytes: None,
            budget_multiple: None,
            physical: Vec::new(),
        }
    }

    /// Total bytes used across all physical representations.
    pub fn bytes_used(&self) -> u64 {
        self.physical.iter().map(PhysicalVideoRecord::byte_len).sum()
    }

    /// The originally written physical video, if any.
    pub fn original(&self) -> Option<&PhysicalVideoRecord> {
        self.physical.iter().find(|p| p.is_original)
    }

    /// Looks up a physical video by id.
    pub fn physical_by_id(&self, id: PhysicalVideoId) -> Option<&PhysicalVideoRecord> {
        self.physical.iter().find(|p| p.id == id)
    }

    /// Mutable lookup of a physical video by id.
    pub fn physical_by_id_mut(&mut self, id: PhysicalVideoId) -> Option<&mut PhysicalVideoRecord> {
        self.physical.iter_mut().find(|p| p.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gop(index: u64, start: f64, end: f64, bytes: u64) -> GopRecord {
        GopRecord {
            index,
            start_time: start,
            end_time: end,
            frame_count: 30,
            byte_len: bytes,
            lossless_level: None,
            last_access: AtomicClock::new(0),
            crc: None,
        }
    }

    fn physical(id: u64, original: bool) -> PhysicalVideoRecord {
        PhysicalVideoRecord {
            id,
            width: 1920,
            height: 1080,
            frame_rate: 30.0,
            codec: "hevc".into(),
            is_original: original,
            mse_bound: 0.0,
            gops: vec![gop(0, 0.0, 1.0, 100), gop(1, 1.0, 2.0, 120), gop(2, 2.0, 3.0, 80)],
        }
    }

    #[test]
    fn gop_overlap_and_duration() {
        let g = gop(0, 2.0, 3.0, 10);
        assert!(g.overlaps(2.5, 4.0));
        assert!(g.overlaps(0.0, 2.5));
        assert!(!g.overlaps(3.0, 4.0));
        assert!(!g.overlaps(0.0, 2.0));
        assert_eq!(g.duration(), 1.0);
    }

    #[test]
    fn physical_record_accessors() {
        let p = physical(7, true);
        assert_eq!(p.resolution(), Resolution::R2K);
        assert_eq!(p.codec(), Some(Codec::Hevc));
        assert_eq!(p.start_time(), 0.0);
        assert_eq!(p.end_time(), 3.0);
        assert_eq!(p.byte_len(), 300);
        assert_eq!(p.directory_name(), "1920x1080r30.hevc.7");
    }

    #[test]
    fn gop_lookup_is_consistent_with_linear_scan() {
        let mut p = physical(1, true);
        // Evict the middle GOP; the remaining indices stay sorted.
        p.gops.remove(1);
        for index in 0..4u64 {
            let scanned = p.gops.iter().find(|g| g.index == index);
            assert_eq!(p.gop_by_index(index).map(|g| g.index), scanned.map(|g| g.index));
            assert_eq!(p.gop_position(index).is_some(), scanned.is_some());
        }
        let map = p.gop_index_map();
        assert_eq!(map.len(), p.gops.len());
        assert!(map.contains_key(&0) && map.contains_key(&2) && !map.contains_key(&1));
        p.gop_by_index_mut(2).unwrap().byte_len = 7;
        assert_eq!(p.gop_by_index(2).unwrap().byte_len, 7);
    }

    #[test]
    fn logical_record_accounting() {
        let mut l = LogicalVideoRecord::new("traffic");
        assert_eq!(l.bytes_used(), 0);
        assert!(l.original().is_none());
        l.physical.push(physical(1, true));
        l.physical.push(physical(2, false));
        assert_eq!(l.bytes_used(), 600);
        assert_eq!(l.original().unwrap().id, 1);
        assert!(l.physical_by_id(2).is_some());
        assert!(l.physical_by_id(9).is_none());
        l.physical_by_id_mut(2).unwrap().gops.pop();
        assert_eq!(l.bytes_used(), 520);
    }

    #[test]
    fn records_serialize_round_trip() {
        let l = LogicalVideoRecord {
            name: "v".into(),
            storage_budget_bytes: Some(1 << 20),
            budget_multiple: Some(2.5),
            physical: vec![physical(3, true)],
        };
        let json = serde_json::to_string(&l).unwrap();
        let back: LogicalVideoRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, l);
    }

    #[test]
    fn atomic_clock_is_monotonic_and_value_equal() {
        let clock = AtomicClock::new(5);
        clock.advance_to(3);
        assert_eq!(clock.get(), 5, "advance_to never moves the clock backwards");
        clock.advance_to(9);
        assert_eq!(clock.get(), 9);
        assert_eq!(clock.increment(), 10);
        assert_eq!(clock.clone(), AtomicClock::new(10));
        let json = serde_json::to_string(&clock).unwrap();
        let back: AtomicClock = serde_json::from_str(&json).unwrap();
        assert_eq!(back.get(), 10);
    }

    #[test]
    fn unknown_codec_name_is_detected() {
        let mut p = physical(1, false);
        p.codec = "vp9".into();
        assert_eq!(p.codec(), None);
    }
}
