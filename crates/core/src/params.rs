//! The VSS API parameter types (paper Figure 1).
//!
//! Every read and write is described by three parameter groups:
//!
//! * **Temporal** (`T`) — a start/end time interval and a frame rate.
//! * **Spatial** (`S`) — a resolution and an optional region of interest.
//! * **Physical** (`P`) — a frame layout, compression codec and quality.

use vss_codec::Codec;
use vss_frame::{PsnrDb, RegionOfInterest, Resolution};

/// Which planning algorithm a read should use (the greedy variant exists for
/// the Figure 10 baseline comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlannerKind {
    /// The exact minimum-cost planner (default).
    #[default]
    Optimal,
    /// The dependency-naïve greedy baseline.
    Greedy,
}

/// A half-open temporal interval `[start, end)` in seconds, with an optional
/// frame-rate override.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalRange {
    /// Start time in seconds (inclusive).
    pub start: f64,
    /// End time in seconds (exclusive).
    pub end: f64,
    /// Requested frame rate; `None` keeps the source frame rate.
    pub frame_rate: Option<f64>,
}

impl TemporalRange {
    /// Creates a range covering `[start, end)` at the source frame rate.
    pub fn new(start: f64, end: f64) -> Self {
        Self { start, end, frame_rate: None }
    }

    /// Sets an explicit output frame rate.
    pub fn at_frame_rate(mut self, fps: f64) -> Self {
        self.frame_rate = Some(fps);
        self
    }

    /// Duration of the range in seconds (zero if inverted).
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// Spatial parameters: output resolution and optional region of interest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialParameters {
    /// Requested output resolution; `None` keeps the source resolution.
    pub resolution: Option<Resolution>,
    /// Optional region of interest, in output-resolution coordinates.
    pub region: Option<RegionOfInterest>,
}

impl SpatialParameters {
    /// Keep the source resolution, no region of interest.
    pub fn source() -> Self {
        Self { resolution: None, region: None }
    }

    /// Request a specific output resolution.
    pub fn at_resolution(resolution: Resolution) -> Self {
        Self { resolution: Some(resolution), region: None }
    }

    /// Adds a region of interest.
    pub fn with_region(mut self, region: RegionOfInterest) -> Self {
        self.region = Some(region);
        self
    }
}

/// Physical parameters: frame layout / codec and quality threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalParameters {
    /// Requested codec (which for raw codecs also fixes the frame layout).
    pub codec: Codec,
    /// Minimum acceptable quality relative to the originally written video.
    /// `None` uses the system default (40 dB — "lossless" per the paper).
    pub quality_threshold: Option<PsnrDb>,
    /// Encoder quality (0–100) used if the result must be (re)compressed.
    /// `None` uses the system default.
    pub encoder_quality: Option<u8>,
}

impl PhysicalParameters {
    /// Requests the given codec with default thresholds.
    pub fn codec(codec: Codec) -> Self {
        Self { codec, quality_threshold: None, encoder_quality: None }
    }

    /// Sets the minimum acceptable quality.
    pub fn with_quality_threshold(mut self, threshold: PsnrDb) -> Self {
        self.quality_threshold = Some(threshold);
        self
    }

    /// Sets the encoder quality for compressed outputs.
    pub fn with_encoder_quality(mut self, quality: u8) -> Self {
        self.encoder_quality = Some(quality);
        self
    }
}

/// A `read(name, S, T, P)` operation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadRequest {
    /// Logical video name.
    pub name: String,
    /// Temporal parameters.
    pub temporal: TemporalRange,
    /// Spatial parameters.
    pub spatial: SpatialParameters,
    /// Physical parameters.
    pub physical: PhysicalParameters,
    /// Whether VSS may admit the result into its cache of materialized views
    /// (the default). Disabling is useful for benchmarking baselines.
    pub cacheable: bool,
    /// Which planning algorithm answers the read (default: optimal).
    pub planner: PlannerKind,
}

impl ReadRequest {
    /// A read of `[start, end)` seconds in the given codec, source resolution
    /// and frame rate, cacheable, planned by the optimal planner.
    pub fn new(name: impl Into<String>, start: f64, end: f64, codec: Codec) -> Self {
        Self {
            name: name.into(),
            temporal: TemporalRange::new(start, end),
            spatial: SpatialParameters::source(),
            physical: PhysicalParameters::codec(codec),
            cacheable: true,
            planner: PlannerKind::default(),
        }
    }

    /// Sets the output resolution.
    pub fn resolution(mut self, resolution: Resolution) -> Self {
        self.spatial.resolution = Some(resolution);
        self
    }

    /// Sets the output resolution (alias of [`resolution`](Self::resolution)).
    pub fn at_resolution(self, resolution: Resolution) -> Self {
        self.resolution(resolution)
    }

    /// Sets the region of interest to crop the output to.
    pub fn crop(mut self, region: RegionOfInterest) -> Self {
        self.spatial.region = Some(region);
        self
    }

    /// Sets the region of interest (alias of [`crop`](Self::crop)).
    pub fn with_region(self, region: RegionOfInterest) -> Self {
        self.crop(region)
    }

    /// Sets the output frame rate.
    pub fn fps(mut self, fps: f64) -> Self {
        self.temporal.frame_rate = Some(fps);
        self
    }

    /// Sets the output frame rate (alias of [`fps`](Self::fps)).
    pub fn at_frame_rate(self, fps: f64) -> Self {
        self.fps(fps)
    }

    /// Sets the minimum acceptable output quality.
    pub fn quality_threshold(mut self, threshold: PsnrDb) -> Self {
        self.physical.quality_threshold = Some(threshold);
        self
    }

    /// Sets the encoder quality used when the result must be (re)compressed.
    pub fn encoder_quality(mut self, quality: u8) -> Self {
        self.physical.encoder_quality = Some(quality);
        self
    }

    /// Marks the read as non-cacheable.
    pub fn uncacheable(mut self) -> Self {
        self.cacheable = false;
        self
    }

    /// Selects the planning algorithm.
    pub fn planner(mut self, planner: PlannerKind) -> Self {
        self.planner = planner;
        self
    }

    /// Whether the read's result can be admitted to the cache at all: not
    /// when it was marked non-cacheable or a region of interest was applied
    /// (cropped results are not reusable as general fragments). The first
    /// term of the plan-time predicate that decides whether a read samples
    /// frames for, and commits, a view (see the `read` module).
    pub(crate) fn may_admit(&self) -> bool {
        self.cacheable && self.spatial.region.is_none()
    }
}

/// A `write(name, S, T, P, data)` operation. The frame data itself is passed
/// alongside the request.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteRequest {
    /// Logical video name.
    pub name: String,
    /// Codec to persist the written data in.
    pub codec: Codec,
    /// Encoder quality (0–100) for compressed writes; `None` = default.
    pub encoder_quality: Option<u8>,
    /// Start time in seconds of the written data within the logical video.
    pub start_time: f64,
}

impl WriteRequest {
    /// Writes starting at time zero in the given codec.
    pub fn new(name: impl Into<String>, codec: Codec) -> Self {
        Self { name: name.into(), codec, encoder_quality: None, start_time: 0.0 }
    }

    /// Sets the encoder quality.
    pub fn encoder_quality(mut self, quality: u8) -> Self {
        self.encoder_quality = Some(quality);
        self
    }

    /// Sets the encoder quality (alias of
    /// [`encoder_quality`](Self::encoder_quality)).
    pub fn with_encoder_quality(self, quality: u8) -> Self {
        self.encoder_quality(quality)
    }

    /// Sets the start time of the written data.
    pub fn starting_at(mut self, start_time: f64) -> Self {
        self.start_time = start_time;
        self
    }
}

/// The storage budget assigned to a logical video (paper Section 4): either a
/// multiple of the initially written physical video's size or a fixed byte
/// ceiling. The prototype default is 10× the original.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StorageBudget {
    /// Budget is `multiple ×` the size of the originally written video.
    MultipleOfOriginal(f64),
    /// Fixed ceiling in bytes.
    Bytes(u64),
    /// No limit (used by experiments that explicitly assume infinite budget).
    Unlimited,
}

impl Default for StorageBudget {
    fn default() -> Self {
        StorageBudget::MultipleOfOriginal(10.0)
    }
}

impl StorageBudget {
    /// Resolves the budget to bytes given the original video's size.
    pub fn resolve(&self, original_bytes: u64) -> Option<u64> {
        match self {
            StorageBudget::MultipleOfOriginal(multiple) => {
                Some((original_bytes as f64 * multiple).round() as u64)
            }
            StorageBudget::Bytes(bytes) => Some(*bytes),
            StorageBudget::Unlimited => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vss_frame::PixelFormat;

    #[test]
    fn temporal_range_builders() {
        let t = TemporalRange::new(10.0, 25.0).at_frame_rate(15.0);
        assert_eq!(t.duration(), 15.0);
        assert_eq!(t.frame_rate, Some(15.0));
        assert_eq!(TemporalRange::new(5.0, 3.0).duration(), 0.0);
    }

    #[test]
    fn read_request_builders_compose() {
        let roi = RegionOfInterest::new(0, 0, 100, 100).unwrap();
        let r = ReadRequest::new("traffic", 0.0, 60.0, Codec::H264)
            .at_resolution(Resolution::R1K)
            .with_region(roi)
            .at_frame_rate(15.0)
            .uncacheable();
        assert_eq!(r.name, "traffic");
        assert_eq!(r.spatial.resolution, Some(Resolution::R1K));
        assert_eq!(r.spatial.region, Some(roi));
        assert_eq!(r.temporal.frame_rate, Some(15.0));
        assert!(!r.cacheable);
        assert_eq!(r.planner, PlannerKind::Optimal);
    }

    #[test]
    fn read_request_short_builders_match_legacy_names() {
        let roi = RegionOfInterest::new(2, 2, 10, 10).unwrap();
        let short = ReadRequest::new("v", 0.0, 1.0, Codec::Hevc)
            .resolution(Resolution::new(64, 48))
            .crop(roi)
            .fps(10.0)
            .quality_threshold(PsnrDb(30.0))
            .encoder_quality(70)
            .planner(PlannerKind::Greedy);
        let legacy = ReadRequest::new("v", 0.0, 1.0, Codec::Hevc)
            .at_resolution(Resolution::new(64, 48))
            .with_region(roi)
            .at_frame_rate(10.0)
            .planner(PlannerKind::Greedy);
        assert_eq!(short.spatial, legacy.spatial);
        assert_eq!(short.temporal, legacy.temporal);
        assert_eq!(short.planner, PlannerKind::Greedy);
        assert_eq!(short.physical.quality_threshold, Some(PsnrDb(30.0)));
        assert_eq!(short.physical.encoder_quality, Some(70));
    }

    #[test]
    fn write_request_builders() {
        let w = WriteRequest::new("v", Codec::Raw(PixelFormat::Rgb8))
            .with_encoder_quality(70)
            .starting_at(12.0);
        assert_eq!(w.encoder_quality, Some(70));
        assert_eq!(w.start_time, 12.0);
    }

    #[test]
    fn storage_budget_resolution() {
        assert_eq!(StorageBudget::default().resolve(100), Some(1000));
        assert_eq!(StorageBudget::MultipleOfOriginal(2.5).resolve(100), Some(250));
        assert_eq!(StorageBudget::Bytes(42).resolve(1_000_000), Some(42));
        assert_eq!(StorageBudget::Unlimited.resolve(100), None);
    }

    #[test]
    fn physical_parameters_builders() {
        let p = PhysicalParameters::codec(Codec::Hevc)
            .with_quality_threshold(PsnrDb(30.0))
            .with_encoder_quality(60);
        assert_eq!(p.quality_threshold, Some(PsnrDb(30.0)));
        assert_eq!(p.encoder_quality, Some(60));
    }
}
