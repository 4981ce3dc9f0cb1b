//! The encoded group-of-pictures (GOP) container.
//!
//! VSS arranges every physical video as a sequence of GOPs, each
//! independently decodable and stored as its own file (paper Section 2).
//! An [`EncodedGop`] *is* that file: one immutable buffer — a small header,
//! then the concatenated per-frame payloads — and a frame table indexing
//! into it. [`EncodedGop::new`] serializes the encoder's output once; from
//! then on the same bytes are what the store writes, what the wire carries
//! and what every live subscriber holds, and a clone costs a reference
//! count. [`EncodedGop::from_bytes`] takes a file's bytes by value and
//! validates them in place.
//!
//! [`read_page`] is the one reader of a stored page: a `VSSG` page is the
//! GOP's own bytes, and a `VSL3` page, which deferred compression wrote
//! ([`crate::lossless`]), is decompressed first.

use crate::bitstream::{read_u32, read_varint, write_u32, write_varint};
use crate::{lossless, Codec, CodecError};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"VSSG";
const VERSION: u8 = 1;

/// Per-frame metadata within a GOP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// True for independently decodable (intra / I) frames; false for
    /// predicted (P) frames that depend on every preceding frame in the GOP.
    pub is_intra: bool,
    /// Offset of the frame payload within the GOP payload (the bytes after
    /// the header).
    pub offset: usize,
    /// Length of the frame payload in bytes.
    pub len: usize,
}

/// One encoded, independently decodable group of pictures: its serialized
/// bytes, which every clone shares.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedGop(Arc<Gop>);

#[derive(Debug, PartialEq)]
struct Gop {
    header: Header,
    bytes: Vec<u8>,
}

/// A serialized GOP's header fields and frame table.
#[derive(Debug, PartialEq)]
pub(crate) struct Header {
    pub(crate) codec: Codec,
    pub(crate) width: u32,
    pub(crate) height: u32,
    /// Frame rate in millihertz (frames per 1000 seconds) to keep the header integral.
    frame_rate_mhz: u32,
    quantizer: u32,
    pub(crate) frames: Vec<FrameInfo>,
    /// Where the payload starts: the header's length in bytes.
    pub(crate) payload: usize,
}

impl Header {
    /// Parses and validates the header of `data`, a whole serialized GOP:
    /// its frame table must account for every byte after it.
    pub(crate) fn parse(data: &[u8]) -> Result<Self, CodecError> {
        let mut pos = 0usize;
        // Magic, version and codec id, so that none of the three reads past the end.
        if data.len() < 6 || &data[..4] != MAGIC {
            return Err(CodecError::Corrupt("bad magic".into()));
        }
        pos += 4;
        let version = data[pos];
        pos += 1;
        if version != VERSION {
            return Err(CodecError::Corrupt(format!("unsupported version {version}")));
        }
        let codec = Codec::from_id(data[pos]).ok_or_else(|| CodecError::Corrupt("unknown codec id".into()))?;
        pos += 1;
        let width = read_u32(data, &mut pos)?;
        let height = read_u32(data, &mut pos)?;
        let frame_rate_mhz = read_u32(data, &mut pos)?;
        let quantizer = read_u32(data, &mut pos)?;
        let count = read_varint(data, &mut pos)? as usize;
        if count > 1 << 20 {
            return Err(CodecError::Corrupt("implausible frame count".into()));
        }
        let mut frames = Vec::with_capacity(count);
        let mut offset = 0usize;
        for _ in 0..count {
            let is_intra = *data
                .get(pos)
                .ok_or_else(|| CodecError::Corrupt("truncated frame table".into()))?
                != 0;
            pos += 1;
            let len = read_varint(data, &mut pos)? as usize;
            frames.push(FrameInfo { is_intra, offset, len });
            offset = offset
                .checked_add(len)
                .ok_or_else(|| CodecError::Corrupt("payload offset overflow".into()))?;
        }
        if offset != data.len() - pos {
            return Err(CodecError::Corrupt(format!(
                "payload length {} does not match frame table total {offset}",
                data.len() - pos
            )));
        }
        Ok(Self { codec, width, height, frame_rate_mhz, quantizer, frames, payload: pos })
    }
}

impl EncodedGop {
    /// Assembles a GOP from encoder output, serializing it once: the header
    /// goes in front of `payload`, in the payload's own buffer when its
    /// capacity has room.
    pub fn new(
        codec: Codec,
        width: u32,
        height: u32,
        frame_rate: f64,
        quantizer: u32,
        frames: Vec<FrameInfo>,
        mut payload: Vec<u8>,
    ) -> Self {
        let frame_rate_mhz = (frame_rate * 1000.0).round().max(1.0) as u32;
        let mut head = MAGIC.to_vec();
        head.push(VERSION);
        head.push(codec.id());
        for value in [width, height, frame_rate_mhz, quantizer] {
            write_u32(&mut head, value);
        }
        write_varint(&mut head, frames.len() as u64);
        for f in &frames {
            head.push(u8::from(f.is_intra));
            write_varint(&mut head, f.len as u64);
        }
        let header = Header { codec, width, height, frame_rate_mhz, quantizer, frames, payload: head.len() };
        payload.splice(..0, head);
        Self(Arc::new(Gop { header, bytes: payload }))
    }

    /// Parses a GOP from bytes produced by [`as_bytes`](Self::as_bytes),
    /// keeping `bytes` as its buffer.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, CodecError> {
        let header = Header::parse(&bytes)?;
        Ok(Self(Arc::new(Gop { header, bytes })))
    }

    /// The serialized GOP (the on-disk file format), borrowed.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0.bytes
    }

    /// The serialized GOP, copied out.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }

    /// Total serialized size in bytes (header + payload).
    pub fn byte_len(&self) -> usize {
        self.0.bytes.len()
    }

    /// Codec the GOP was encoded with.
    pub fn codec(&self) -> Codec {
        self.0.header.codec
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.0.header.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.0.header.height
    }

    /// Nominal frame rate in frames per second.
    pub fn frame_rate(&self) -> f64 {
        f64::from(self.0.header.frame_rate_mhz) / 1000.0
    }

    /// Quantization step the encoder used (1 for raw/lossless payloads).
    pub fn quantizer(&self) -> u32 {
        self.0.header.quantizer
    }

    /// Number of frames in the GOP.
    pub fn frame_count(&self) -> usize {
        self.0.header.frames.len()
    }

    /// Per-frame metadata.
    pub fn frames(&self) -> &[FrameInfo] {
        &self.0.header.frames
    }

    /// The payload bytes of frame `index`.
    pub fn frame_payload(&self, index: usize) -> Result<&[u8], CodecError> {
        let Gop { header, bytes } = &*self.0;
        let info = header
            .frames
            .get(index)
            .ok_or(CodecError::FrameOutOfRange { index, len: header.frames.len() })?;
        let start = header.payload + info.offset;
        bytes
            .get(start..start + info.len)
            .ok_or_else(|| CodecError::Corrupt("frame payload extends past buffer".into()))
    }

}

/// Reads a stored page — the bytes of one GOP file — into its GOP: a `VSSG`
/// page is parsed in place, a `VSL3` page is decompressed and then parsed.
/// Any other content is [`CodecError::Corrupt`].
pub fn read_page(bytes: Vec<u8>) -> Result<EncodedGop, CodecError> {
    match bytes.starts_with(lossless::MAGIC) {
        true => EncodedGop::from_bytes(lossless::decompress(&bytes)?),
        false => EncodedGop::from_bytes(bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_gop() -> EncodedGop {
        let frames = vec![
            FrameInfo { is_intra: true, offset: 0, len: 4 },
            FrameInfo { is_intra: false, offset: 4, len: 3 },
            FrameInfo { is_intra: false, offset: 7, len: 5 },
        ];
        EncodedGop::new(Codec::H264, 64, 32, 30.0, 5, frames, vec![9u8; 12])
    }

    #[test]
    fn round_trip_serialization() {
        let gop = sample_gop();
        let bytes = gop.to_bytes();
        assert_eq!(bytes.len(), gop.byte_len());
        let parsed = EncodedGop::from_bytes(bytes).unwrap();
        assert_eq!(parsed, gop);
        assert_eq!(parsed.frame_rate(), 30.0);
        assert_eq!(parsed.codec(), Codec::H264);
        let intra: Vec<bool> = parsed.frames().iter().map(|f| f.is_intra).collect();
        assert_eq!(intra, [true, false, false]);
    }

    #[test]
    fn frame_payload_slicing() {
        let gop = sample_gop();
        assert_eq!(gop.frame_payload(0).unwrap().len(), 4);
        assert_eq!(gop.frame_payload(2).unwrap().len(), 5);
        assert!(matches!(gop.frame_payload(3), Err(CodecError::FrameOutOfRange { .. })));
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let gop = sample_gop();
        let mut bytes = gop.to_bytes();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(EncodedGop::from_bytes(bad).is_err());
        // Truncated payload.
        bytes.truncate(bytes.len() - 3);
        assert!(EncodedGop::from_bytes(bytes).is_err());
        // Unknown codec id.
        let mut bad = gop.to_bytes();
        bad[5] = 200;
        assert!(EncodedGop::from_bytes(bad).is_err());
        assert!(EncodedGop::from_bytes(Vec::new()).is_err());
        // Fails on the parent, which indexed past the end of these (a panic,
        // not an error): the lossless codec peeks arbitrary input this way.
        assert!(EncodedGop::from_bytes(b"VSSG".to_vec()).is_err());
        assert!(EncodedGop::from_bytes(b"VSSG\x01".to_vec()).is_err());
    }
}
