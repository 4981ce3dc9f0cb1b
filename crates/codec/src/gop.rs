//! The encoded group-of-pictures (GOP) container.
//!
//! VSS arranges every physical video as a sequence of GOPs, each
//! independently decodable and stored as its own file (paper Section 2).
//! [`EncodedGop`] is the in-memory and on-disk representation of one such
//! GOP: a small header plus the concatenated per-frame payloads.

use crate::bitstream::{read_u32, read_varint, write_u32, write_varint};
use crate::{Codec, CodecError};

const MAGIC: &[u8; 4] = b"VSSG";
const VERSION: u8 = 1;

/// Per-frame metadata within a GOP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// True for independently decodable (intra / I) frames; false for
    /// predicted (P) frames that depend on every preceding frame in the GOP.
    pub is_intra: bool,
    /// Offset of the frame payload within the GOP payload buffer.
    pub offset: usize,
    /// Length of the frame payload in bytes.
    pub len: usize,
}

/// One encoded, independently decodable group of pictures.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedGop {
    codec: Codec,
    width: u32,
    height: u32,
    /// Frame rate in millihertz (frames per 1000 seconds) to keep the header integral.
    frame_rate_mhz: u32,
    quantizer: u32,
    frames: Vec<FrameInfo>,
    payload: Vec<u8>,
}

impl EncodedGop {
    /// Assembles a GOP from encoder output.
    pub fn new(
        codec: Codec,
        width: u32,
        height: u32,
        frame_rate: f64,
        quantizer: u32,
        frames: Vec<FrameInfo>,
        payload: Vec<u8>,
    ) -> Self {
        Self {
            codec,
            width,
            height,
            frame_rate_mhz: (frame_rate * 1000.0).round().max(1.0) as u32,
            quantizer,
            frames,
            payload,
        }
    }

    /// Codec the GOP was encoded with.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Nominal frame rate in frames per second.
    pub fn frame_rate(&self) -> f64 {
        f64::from(self.frame_rate_mhz) / 1000.0
    }

    /// Quantization step the encoder used (1 for raw/lossless payloads).
    pub fn quantizer(&self) -> u32 {
        self.quantizer
    }

    /// Number of frames in the GOP.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Per-frame metadata.
    pub fn frames(&self) -> &[FrameInfo] {
        &self.frames
    }

    /// The payload bytes of frame `index`.
    pub fn frame_payload(&self, index: usize) -> Result<&[u8], CodecError> {
        let info = self
            .frames
            .get(index)
            .ok_or(CodecError::FrameOutOfRange { index, len: self.frames.len() })?;
        self.payload
            .get(info.offset..info.offset + info.len)
            .ok_or_else(|| CodecError::Corrupt("frame payload extends past buffer".into()))
    }

    /// Number of independently decodable frames.
    pub fn independent_frame_count(&self) -> usize {
        self.frames.iter().filter(|f| f.is_intra).count()
    }

    /// Number of predicted (dependent) frames.
    pub fn dependent_frame_count(&self) -> usize {
        self.frame_count() - self.independent_frame_count()
    }

    /// Total serialized size in bytes (header + payload).
    pub fn byte_len(&self) -> usize {
        // Header: magic(4) + version(1) + codec(1) + 4*u32 + frame table.
        let table: usize = self.frames.iter().map(|f| 1 + varint_len(f.len as u64)).sum();
        4 + 1 + 1 + 16 + varint_len(self.frames.len() as u64) + table + self.payload.len()
    }

    /// Mean bits per pixel across the GOP — the `MBPP` statistic VSS's
    /// quality model maps to an estimated PSNR (paper Section 3.2).
    pub fn bits_per_pixel(&self) -> f64 {
        let pixels = u64::from(self.width) * u64::from(self.height) * self.frames.len().max(1) as u64;
        (self.byte_len() as f64 * 8.0) / pixels as f64
    }

    /// Serializes the GOP to bytes (the on-disk file format).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(self.codec.id());
        write_u32(&mut out, self.width);
        write_u32(&mut out, self.height);
        write_u32(&mut out, self.frame_rate_mhz);
        write_u32(&mut out, self.quantizer);
        write_varint(&mut out, self.frames.len() as u64);
        for f in &self.frames {
            out.push(u8::from(f.is_intra));
            write_varint(&mut out, f.len as u64);
        }
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a GOP from bytes produced by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(data: &[u8]) -> Result<Self, CodecError> {
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
        let mut lens = Vec::with_capacity(count);
        for _ in 0..count {
            let is_intra = *data
                .get(pos)
                .ok_or_else(|| CodecError::Corrupt("truncated frame table".into()))?
                != 0;
            pos += 1;
            let len = read_varint(data, &mut pos)? as usize;
            lens.push((is_intra, len));
        }
        let payload = data
            .get(pos..)
            .ok_or_else(|| CodecError::Corrupt("missing payload".into()))?
            .to_vec();
        let mut offset = 0usize;
        for (is_intra, len) in lens {
            frames.push(FrameInfo { is_intra, offset, len });
            offset = offset
                .checked_add(len)
                .ok_or_else(|| CodecError::Corrupt("payload offset overflow".into()))?;
        }
        if offset != payload.len() {
            return Err(CodecError::Corrupt(format!(
                "payload length {} does not match frame table total {offset}",
                payload.len()
            )));
        }
        Ok(Self { codec, width, height, frame_rate_mhz, quantizer, frames, payload })
    }
}

fn varint_len(mut v: u64) -> usize {
    let mut len = 1;
    while v >= 0x80 {
        v >>= 7;
        len += 1;
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use vss_frame::PixelFormat;

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
        let parsed = EncodedGop::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, gop);
        assert_eq!(parsed.frame_rate(), 30.0);
        assert_eq!(parsed.codec(), Codec::H264);
        assert_eq!(parsed.independent_frame_count(), 1);
        assert_eq!(parsed.dependent_frame_count(), 2);
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
        assert!(EncodedGop::from_bytes(&bad).is_err());
        // Truncated payload.
        bytes.truncate(bytes.len() - 3);
        assert!(EncodedGop::from_bytes(&bytes).is_err());
        // Unknown codec id.
        let mut bad = gop.to_bytes();
        bad[5] = 200;
        assert!(EncodedGop::from_bytes(&bad).is_err());
        assert!(EncodedGop::from_bytes(&[]).is_err());
        // Fails on the parent, which indexed past the end of these (a panic,
        // not an error): the lossless codec peeks arbitrary input this way.
        assert!(EncodedGop::from_bytes(b"VSSG").is_err());
        assert!(EncodedGop::from_bytes(b"VSSG\x01").is_err());
    }

    #[test]
    fn bits_per_pixel_reflects_payload_size() {
        let small = EncodedGop::new(
            Codec::Hevc,
            64,
            64,
            30.0,
            5,
            vec![FrameInfo { is_intra: true, offset: 0, len: 10 }],
            vec![0u8; 10],
        );
        let large = EncodedGop::new(
            Codec::Raw(PixelFormat::Rgb8),
            64,
            64,
            30.0,
            1,
            vec![FrameInfo { is_intra: true, offset: 0, len: 64 * 64 * 3 }],
            vec![0u8; 64 * 64 * 3],
        );
        assert!(small.bits_per_pixel() < large.bits_per_pixel());
        assert!((large.bits_per_pixel() - 24.0).abs() < 1.0);
    }

    #[test]
    fn varint_len_matches_encoder() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v));
        }
    }
}
