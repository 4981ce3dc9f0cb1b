//! Low-level bitstream primitives: varint and zig-zag coding plus a
//! zero-run-length coder for quantized residuals.
//!
//! The simulated codecs serialize quantized prediction residuals with this
//! module. The format is deliberately simple (no arithmetic coding) but is a
//! real entropy-reducing representation: long zero runs — which dominate
//! temporally coherent video — collapse to a couple of bytes.
//!
//! The coder is streaming: `ResidualWriter` takes residuals as the plane
//! kernels produce them and `ResidualReader` hands out non-zero residuals
//! by position, so neither side holds a plane of residuals.
//! [`encode_residuals`] and [`decode_residuals`] are thin wrappers of them.
//!
//! Decoding is one loop: `ResidualReader::next` parses and checks one pair,
//! inlined into each consumer, and reads the two bytes of a one-byte run and
//! a one-byte value at once. A reader that kept the next pair as a lookahead
//! field decoded a 480×272 H.264 P-frame (≈ 19 000 pairs) at 2.4–2.7 ns/px;
//! this loop takes 1.2–1.3, most of it allocating and touching the frame.

use crate::CodecError;

/// Appends an unsigned LEB128 varint to `out`.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint, advancing `pos`.
pub fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data
            .get(*pos)
            .ok_or_else(|| CodecError::Corrupt("truncated varint".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::Corrupt("varint overflow".into()));
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Zig-zag maps a signed value to unsigned so small magnitudes stay small.
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// The one zero-run writer. A block is its residual count, then `(zero run,
/// non-zero value)` varint pairs, then — if it ends in zeros — the trailing
/// run followed by a zig-zag 0, which no non-zero residual can produce.
/// Residuals are pushed one at a time, as an encoder's kernels produce them.
pub(crate) struct ResidualWriter<'a> {
    out: &'a mut Vec<u8>,
    zero_run: u64,
}

impl<'a> ResidualWriter<'a> {
    /// Starts a block of `count` residuals.
    pub(crate) fn new(out: &'a mut Vec<u8>, count: usize) -> Self {
        write_varint(out, count as u64);
        Self { out, zero_run: 0 }
    }

    #[inline]
    pub(crate) fn push(&mut self, residual: i32) {
        if residual == 0 {
            self.zero_run += 1;
        } else {
            write_varint(self.out, self.zero_run);
            write_varint(self.out, zigzag(i64::from(residual)));
            self.zero_run = 0;
        }
    }

    pub(crate) fn finish(self) {
        if self.zero_run > 0 {
            write_varint(self.out, self.zero_run);
            write_varint(self.out, zigzag(0));
        }
    }
}

/// Encodes a slice of quantized residuals using zero-run-length + zig-zag
/// varint coding. The output begins with the residual count so the decoder
/// knows when to stop.
pub fn encode_residuals(residuals: &[i32], out: &mut Vec<u8>) {
    let mut writer = ResidualWriter::new(out, residuals.len());
    residuals.iter().for_each(|&r| writer.push(r));
    writer.finish();
}

/// The one zero-run reader: hands out a block's non-zero residuals by
/// position, one parsed pair at a time.
pub(crate) struct ResidualReader<'a> {
    data: &'a [u8],
    /// Offset of the first byte not yet parsed.
    pub(crate) pos: usize,
    /// Residuals in the block.
    pub(crate) count: usize,
    /// Residuals parsed so far.
    parsed: usize,
    /// A residual `fill` parsed for a later row than the one it wrote.
    carried: Option<(usize, i32)>,
    /// Residuals `fill` has handed out.
    filled: usize,
}

impl<'a> ResidualReader<'a> {
    /// Opens the block starting at `data[pos]`.
    pub(crate) fn new(data: &'a [u8], mut pos: usize) -> Result<Self, CodecError> {
        let count = read_varint(data, &mut pos)?;
        if count > 1 << 28 {
            return Err(CodecError::Corrupt(format!("residual count {count} implausibly large")));
        }
        Ok(Self { data, pos, count: count as usize, parsed: 0, carried: None, filled: 0 })
    }

    /// Parses the next non-zero residual as `(position in the block,
    /// value)`, or `None` once only zeros are left. Two bytes with the high
    /// bit clear are a one-byte run and a one-byte value, which nearly every
    /// pair of a coherent plane is; any other pair takes [`read_varint`]. A
    /// zero run is checked against what remains of the count before it
    /// moves the position, so no length a corrupt stream claims can
    /// overflow or pass the end of the block.
    #[inline(always)]
    pub(crate) fn next(&mut self) -> Result<Option<(usize, i32)>, CodecError> {
        if self.parsed == self.count {
            return Ok(None);
        }
        let (run, value) = match self.data.get(self.pos..self.pos + 2) {
            Some(&[run, value]) if (run | value) < 0x80 => {
                self.pos += 2;
                (u64::from(run), u64::from(value))
            }
            _ => {
                let (run, value, pos) = read_pair(self.data, self.pos)?;
                self.pos = pos;
                (run, value)
            }
        };
        if run > (self.count - self.parsed) as u64 {
            return Err(corrupt("zero run exceeds residual count"));
        }
        self.parsed += run as usize;
        match (unzigzag(value), self.parsed == self.count) {
            (0, true) => Ok(None),
            // A zero is only legal as the final trailing-run marker.
            (0, false) => Err(corrupt("premature trailing-run marker")),
            (_, true) => Err(corrupt("residual value after full count")),
            (value, false) => {
                let value = i32::try_from(value).map_err(|_| corrupt("residual out of i32 range"))?;
                self.parsed += 1;
                Ok(Some((self.parsed - 1, value)))
            }
        }
    }

    /// Writes the next `out.len()` residuals of the block into `out`.
    pub(crate) fn fill(&mut self, out: &mut [i32]) -> Result<(), CodecError> {
        out.fill(0);
        let from = self.filled;
        self.filled += out.len();
        while let Some((at, value)) = self.carried.take().map_or_else(|| self.next(), |pair| Ok(Some(pair)))? {
            if at >= self.filled {
                self.carried = Some((at, value));
                break;
            }
            out[at - from] = value;
        }
        Ok(())
    }
}

/// Decodes a residual slice produced by [`encode_residuals`], advancing `pos`.
pub fn decode_residuals(data: &[u8], pos: &mut usize) -> Result<Vec<i32>, CodecError> {
    let mut reader = ResidualReader::new(data, *pos)?;
    // Cap the pre-allocation: a corrupt header claiming a huge (but
    // below-limit) count must not commit gigabytes before the payload check
    // fails. Legitimate blocks grow past the cap via ordinary resizing.
    let mut out = Vec::with_capacity(reader.count.min(1 << 16));
    while let Some((at, value)) = reader.next()? {
        out.resize(at, 0);
        out.push(value);
    }
    out.resize(reader.count, 0);
    *pos = reader.pos;
    Ok(out)
}

/// Reads a `(run, value)` pair with a multi-byte or truncated varint in it
/// and returns it with the position after it. Out of line and passed by
/// value, so the inlined fast path keeps the reader's fields in registers.
#[inline(never)]
fn read_pair(data: &[u8], mut pos: usize) -> Result<(u64, u64, usize), CodecError> {
    let run = read_varint(data, &mut pos)?;
    Ok((run, read_varint(data, &mut pos)?, pos))
}

#[cold]
pub(crate) fn corrupt(what: &str) -> CodecError {
    CodecError::Corrupt(what.into())
}

/// Writes a little-endian u32 (used for fixed header fields).
pub fn write_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Reads a little-endian u32, advancing `pos`.
pub fn read_u32(data: &[u8], pos: &mut usize) -> Result<u32, CodecError> {
    let bytes = data
        .get(*pos..*pos + 4)
        .ok_or_else(|| CodecError::Corrupt("truncated u32".into()))?;
    *pos += 4;
    Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        let values = [0u64, 1, 127, 128, 300, 16_384, u32::MAX as u64, u64::MAX];
        for &v in &values {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_truncation_is_detected() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1_000_000);
        buf.pop();
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos).is_err());
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [-1_000_000i64, -255, -1, 0, 1, 255, 1_000_000] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small.
        assert!(zigzag(-1) <= 2);
        assert!(zigzag(1) <= 2);
    }

    #[test]
    fn residual_round_trip_with_runs() {
        let cases: Vec<Vec<i32>> = vec![
            vec![],
            vec![0; 1000],
            vec![1, -1, 2, -2, 0, 0, 0, 5],
            vec![0, 0, 0, 0, 7],
            vec![7, 0, 0, 0, 0],
            (-50..50).collect(),
        ];
        for case in cases {
            let mut buf = Vec::new();
            encode_residuals(&case, &mut buf);
            let mut pos = 0;
            let decoded = decode_residuals(&buf, &mut pos).unwrap();
            assert_eq!(decoded, case);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zero_heavy_residuals_compress_well() {
        let mut residuals = vec![0i32; 10_000];
        residuals[5000] = 3;
        let mut buf = Vec::new();
        encode_residuals(&residuals, &mut buf);
        assert!(buf.len() < 20, "10k zero residuals should take a handful of bytes, got {}", buf.len());
    }

    #[test]
    fn u32_round_trip() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 0xDEAD_BEEF);
        write_u32(&mut buf, 7);
        let mut pos = 0;
        assert_eq!(read_u32(&buf, &mut pos).unwrap(), 0xDEAD_BEEF);
        assert_eq!(read_u32(&buf, &mut pos).unwrap(), 7);
        assert!(read_u32(&buf, &mut pos).is_err());
    }

    #[test]
    fn a_zero_run_that_would_overflow_the_position_is_corrupt() {
        // One decoded value, then a run of u64::MAX: `position + run`
        // overflowed (a panic in debug builds, a wrap past the check and a
        // shrinking `resize` in release) before runs were checked against
        // what remains of the count.
        let mut buf = Vec::new();
        write_varint(&mut buf, 5);
        write_varint(&mut buf, 1);
        write_varint(&mut buf, zigzag(1));
        write_varint(&mut buf, u64::MAX);
        write_varint(&mut buf, zigzag(1));
        let mut pos = 0;
        assert!(matches!(decode_residuals(&buf, &mut pos), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn fill_hands_out_rows_across_run_boundaries() {
        let residuals: Vec<i32> = vec![0, 0, 3, 0, 0, 0, 0, -2, 9, 0, 0, 0];
        let mut buf = Vec::new();
        encode_residuals(&residuals, &mut buf);
        for row in [1usize, 2, 3, 4, 6, 12] {
            let mut reader = ResidualReader::new(&buf, 0).unwrap();
            let mut out = vec![7i32; row];
            for expected in residuals.chunks(row) {
                reader.fill(&mut out).unwrap();
                assert_eq!(out, expected, "rows of {row}");
            }
            assert_eq!(reader.pos, buf.len());
        }
    }

    #[test]
    fn corrupt_residuals_are_rejected_not_panicked() {
        // Claim 5 residuals but provide a zero run of 10.
        let mut buf = Vec::new();
        write_varint(&mut buf, 5);
        write_varint(&mut buf, 10);
        write_varint(&mut buf, zigzag(1));
        let mut pos = 0;
        assert!(decode_residuals(&buf, &mut pos).is_err());
    }
}
