//! # vss-codec
//!
//! Simulated video compression substrate for the VSS reproduction.
//!
//! The paper's prototype drives FFmpeg/NVENC H.264 and HEVC codecs and
//! Zstandard; this crate provides from-scratch equivalents with the same
//! externally observable behaviour the storage manager depends on:
//!
//! * [`SimH264`] / [`SimHevc`] — lossy intra/inter codecs over YUV 4:2:0 with
//!   quantized prediction residuals, real rate/quality trade-offs, and
//!   I/P frame dependencies within independently decodable GOPs.
//! * [`RawCodec`] — uncompressed storage in any [`PixelFormat`](vss_frame::PixelFormat).
//! * [`lossless`] — a plane-predicting, Huffman-coding lossless codec with
//!   compression levels 1–19, standing in for Zstandard in the
//!   deferred-compression optimization.
//! * [`EncodedGop`] — the serialized group-of-pictures container VSS stores
//!   as individual files and treats as cache pages, and [`read_page`], the
//!   one reader of such a file.
//! * [`CostModel`] — the fixed per-pixel transcode cost table standing in for
//!   the paper's vbench-derived `α`, and the look-back cost used by the
//!   read planner.

#![warn(missing_docs)]

pub mod bitstream;
mod codec;
mod costmodel;
mod error;
mod gop;
pub mod lossless;
mod video;

pub use codec::{Codec, EncoderConfig, VideoCodec};
pub use costmodel::{lookback_cost, CostModel, ETA_DEPENDENT_FRAME};
pub use error::CodecError;
pub use gop::{read_page, EncodedGop, FrameInfo};
pub use video::{
    codec_instance, decode_gops_parallel, encode_to_gops, encode_to_gops_parallel, RawCodec,
    SimH264, SimHevc,
};
