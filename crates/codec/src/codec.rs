//! Codec identifiers and the [`VideoCodec`] trait.

use crate::{CodecError, EncodedGop};
use vss_frame::{FrameSequence, PixelFormat};

/// The compression method component (`c`) of VSS's physical parameters.
///
/// `H264` and `Hevc` are the simulated lossy video codecs (see the crate
/// documentation for how they map onto the real codecs the paper uses);
/// `Raw` stores uncompressed frames in the given pixel layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Codec {
    /// Simulated H.264: single-hypothesis prediction, coarser rate/quality
    /// trade-off, cheapest to encode and decode.
    H264,
    /// Simulated HEVC: a second, spatio-temporal predictor family for P
    /// frames, chosen once per GOP, producing smaller output on coherent
    /// video at higher computational cost.
    Hevc,
    /// Uncompressed frames in the given physical layout.
    Raw(PixelFormat),
}

impl Codec {
    /// True for the lossy video codecs.
    pub fn is_compressed(&self) -> bool {
        !matches!(self, Codec::Raw(_))
    }

    /// Short lowercase name used in VSS's on-disk directory layout
    /// (e.g. `traffic/1920x1080r30.hevc/...`).
    pub fn name(&self) -> String {
        match self {
            Codec::H264 => "h264".to_string(),
            Codec::Hevc => "hevc".to_string(),
            Codec::Raw(fmt) => fmt.name().to_string(),
        }
    }

    /// Parses a codec from its [`name`](Self::name).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "h264" => Some(Codec::H264),
            "hevc" => Some(Codec::Hevc),
            other => PixelFormat::parse(other).map(Codec::Raw),
        }
    }

    /// Stable numeric identifier used in bitstream headers.
    pub(crate) fn id(&self) -> u8 {
        match self {
            Codec::H264 => 1,
            Codec::Hevc => 2,
            Codec::Raw(PixelFormat::Rgb8) => 10,
            Codec::Raw(PixelFormat::Yuv420) => 11,
            Codec::Raw(PixelFormat::Yuv422) => 12,
        }
    }

    /// Inverse of [`id`](Self::id).
    pub(crate) fn from_id(id: u8) -> Option<Self> {
        match id {
            1 => Some(Codec::H264),
            2 => Some(Codec::Hevc),
            10 => Some(Codec::Raw(PixelFormat::Rgb8)),
            11 => Some(Codec::Raw(PixelFormat::Yuv420)),
            12 => Some(Codec::Raw(PixelFormat::Yuv422)),
            _ => None,
        }
    }

    /// All codecs exercised by the benchmark harness.
    pub fn all() -> Vec<Codec> {
        vec![
            Codec::H264,
            Codec::Hevc,
            Codec::Raw(PixelFormat::Rgb8),
            Codec::Raw(PixelFormat::Yuv420),
            Codec::Raw(PixelFormat::Yuv422),
        ]
    }
}

impl std::fmt::Display for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Encoder configuration shared by the simulated codecs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncoderConfig {
    /// Quality on a 0–100 scale. Higher is better quality / larger output.
    /// The default of 85 yields near-lossless output (≈40 dB) on the
    /// synthetic datasets, matching the paper's default thresholds.
    pub quality: u8,
    /// Maximum frames per GOP. Video codecs typically fix GOP sizes to a
    /// small constant (the paper cites 30–300 frames); the VSS prototype
    /// accepts ingested GOP sizes as-is.
    pub gop_size: usize,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self { quality: 85, gop_size: 30 }
    }
}

impl EncoderConfig {
    /// Creates a configuration with the given quality and the default GOP size.
    pub fn with_quality(quality: u8) -> Self {
        Self { quality: quality.min(100), ..Self::default() }
    }

    /// Maps the 0–100 quality setting onto a quantization step.
    ///
    /// Quality 100 → step 1 (lossless residuals); quality 0 → step 48.
    pub fn quantizer(&self) -> i32 {
        let q = f64::from(self.quality.min(100));
        let step = 1.0 + (100.0 - q) * 0.47;
        step.round() as i32
    }
}

/// A video codec that can compress a frame sequence into an [`EncodedGop`]
/// and decompress it again.
///
/// Implementations must produce *independently decodable* GOPs: decoding
/// requires no data outside the GOP, which is the property VSS relies on to
/// treat GOPs as cache pages and to transform them independently.
pub trait VideoCodec: Send + Sync {
    /// The codec identifier this implementation produces.
    fn codec(&self) -> Codec;

    /// Encodes a frame sequence into a single GOP on the calling thread.
    fn encode(&self, frames: &FrameSequence, config: &EncoderConfig) -> Result<EncodedGop, CodecError> {
        self.encode_slice(frames.frames(), frames.frame_rate(), config, 1)
    }

    /// Encodes a borrowed frame slice into a single GOP without building an
    /// intermediate [`FrameSequence`]: the zero-copy entry point the GOP
    /// pipeline uses when chunking a long sequence. The frames must share
    /// one width, height and pixel format
    /// ([`FrameError::ShapeMismatch`](vss_frame::FrameError::ShapeMismatch)
    /// otherwise).
    ///
    /// `threads` is the budget the encode may spend *inside* the GOP (`0` =
    /// every core, `1` = the calling thread alone): the lossy codecs code a
    /// frame's planes, and HEVC's two candidates, side by side. The bytes
    /// are the same for every budget, and every thread an encode starts has
    /// exited when it returns.
    fn encode_slice(
        &self,
        frames: &[vss_frame::Frame],
        frame_rate: f64,
        config: &EncoderConfig,
        threads: usize,
    ) -> Result<EncodedGop, CodecError>;

    /// Decodes every frame of a GOP.
    fn decode(&self, gop: &EncodedGop) -> Result<FrameSequence, CodecError> {
        self.decode_prefix(gop, gop.frame_count())
    }

    /// Decodes only the first `count` frames of a GOP.
    ///
    /// Because predicted frames depend on their predecessors, decoding frame
    /// `k` still requires decoding frames `0..k`; this is exactly the
    /// "look-back" cost VSS's read planner accounts for.
    fn decode_prefix(&self, gop: &EncodedGop, count: usize) -> Result<FrameSequence, CodecError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_names_round_trip() {
        for codec in Codec::all() {
            assert_eq!(Codec::parse(&codec.name()), Some(codec));
            assert_eq!(Codec::from_id(codec.id()), Some(codec));
        }
        assert_eq!(Codec::parse("mpeg2"), None);
        assert_eq!(Codec::from_id(99), None);
    }

    #[test]
    fn compressed_flag() {
        assert!(Codec::H264.is_compressed());
        assert!(Codec::Hevc.is_compressed());
        assert!(!Codec::Raw(PixelFormat::Rgb8).is_compressed());
    }

    #[test]
    fn quantizer_mapping_is_monotonic() {
        let mut last = i32::MAX;
        for q in (0..=100).step_by(5) {
            let step = EncoderConfig::with_quality(q).quantizer();
            assert!(step <= last, "quantizer should not increase with quality");
            assert!(step >= 1);
            last = step;
        }
        assert_eq!(EncoderConfig::with_quality(100).quantizer(), 1);
        assert!(EncoderConfig::with_quality(0).quantizer() >= 40);
    }

    #[test]
    fn default_config_is_near_lossless_tier() {
        let c = EncoderConfig::default();
        assert!(c.quality >= 80);
        assert!(c.quantizer() <= 10);
    }
}
