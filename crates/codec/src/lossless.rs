//! Lossless compression used by VSS's deferred-compression optimization.
//!
//! The paper uses Zstandard, whose relevant properties are: (a) it is
//! lossless, (b) it exposes a compression level (1–19) trading speed for
//! ratio, and (c) decompression is far faster than a video codec. This
//! module provides a delta-filtered LZ77 codec with the same three
//! properties. Level controls the match-search effort (hash-chain depth),
//! so higher levels genuinely cost more time and produce smaller output on
//! typical raw-frame data.
//!
//! # The output is a pure function of (input, level)
//!
//! Deferred compression stores what [`compress`] emits and charges it to
//! the storage budget, so every admission and eviction decision after it
//! depends on those exact bytes (`tests/golden_lossless.rs` pins them). At
//! each position the match search walks the hash chain newest first — at
//! most `8 × level` candidates, none more than 2^20 bytes back — and keeps
//! the *first* longest match: a later tie never replaces it. Three
//! shortcuts make the walk cheap without changing the (length, distance)
//! it keeps:
//!
//! * it stops once the best match reaches the limit (the bytes left,
//!   capped at 32 768): any later candidate can at most tie;
//! * it skips a candidate whose four bytes ending at the current best
//!   length differ from the input's (zlib checks the last byte alone): a
//!   match longer than the best must agree on every byte up to and
//!   including that one, so this candidate could at most tie. The best
//!   starts at 3, not 0 — a match shorter than 4 bytes is never emitted,
//!   so the first candidate of the longest length still wins whenever a
//!   match is, and when none reaches 4 bytes both searches emit a literal;
//! * it measures a match eight bytes at a time — the trailing zero bits of
//!   the XOR of two little-endian words count their equal leading bytes —
//!   and the tail byte by byte, which is the count a byte loop gets.
//!
//! The chain tables hold `u32` positions for any input shorter than 4 GiB
//! (every GOP), which halves their footprint; the walk over them is the
//! same as over `usize` ones, which longer inputs use.
//!
//! # The decoder is bounded by the original length
//!
//! [`decompress`] checks every literal run and match against the room left
//! under the header's original length *before* copying it, and grows its
//! output only as far as the tokens it has read reach, never past that
//! length. A corrupt stream therefore costs at most its claimed length in
//! memory and work and ends in [`CodecError::Corrupt`] — not an abort on a
//! huge reservation, and not a gigabyte copy before the length check.

use crate::bitstream::{read_varint, write_varint};
use crate::CodecError;

const MAGIC: &[u8; 4] = b"VSSL";
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 1 << 15;
const MAX_DIST: usize = 1 << 20;
const HASH_BITS: u32 = 16;

/// Minimum supported compression level.
pub const MIN_LEVEL: u8 = 1;
/// Maximum supported compression level (mirrors Zstandard's 19).
pub const MAX_LEVEL: u8 = 19;

/// Compresses `data` at the given level (clamped to `1..=19`).
pub fn compress(data: &[u8], level: u8) -> Vec<u8> {
    let level = level.clamp(MIN_LEVEL, MAX_LEVEL);
    let filtered = delta_filter(data);
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(MAGIC);
    out.push(level);
    write_varint(&mut out, data.len() as u64);
    if filtered.len() < u32::MAX as usize {
        lz_compress::<u32>(&filtered, level, &mut out);
    } else {
        lz_compress::<usize>(&filtered, level, &mut out);
    }
    out
}

/// Decompresses a buffer produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut pos = 0usize;
    let magic = data.get(0..4).ok_or_else(|| CodecError::Corrupt("missing lossless magic".into()))?;
    if magic != MAGIC {
        return Err(CodecError::Corrupt("bad lossless magic".into()));
    }
    pos += 4;
    let _level = *data.get(pos).ok_or_else(|| CodecError::Corrupt("missing level".into()))?;
    pos += 1;
    let original_len = read_varint(data, &mut pos)? as usize;
    if original_len > 1 << 34 {
        return Err(CodecError::Corrupt("implausible original length".into()));
    }
    let mut out = lz_decompress(&data[pos..], original_len)?;
    delta_unfilter(&mut out);
    Ok(out)
}

/// Byte-wise delta filter: smooth pixel data becomes long runs of small values.
fn delta_filter(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    let mut prev = 0u8;
    for &b in data {
        out.push(b.wrapping_sub(prev));
        prev = b;
    }
    out
}

fn delta_unfilter(data: &mut [u8]) {
    let mut prev = 0u8;
    for d in data {
        prev = prev.wrapping_add(*d);
        *d = prev;
    }
}

fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    ((v.wrapping_mul(2654435761)) >> (32 - HASH_BITS)) as usize
}

/// A hash-chain entry: a position in the input, or `NONE`.
trait Pos: Copy + Eq {
    const NONE: Self;
    fn at(position: usize) -> Self;
    fn get(self) -> usize;
}

impl Pos for u32 {
    const NONE: Self = u32::MAX;
    fn at(position: usize) -> Self {
        position as u32
    }
    fn get(self) -> usize {
        self as usize
    }
}

impl Pos for usize {
    const NONE: Self = usize::MAX;
    fn at(position: usize) -> Self {
        position
    }
    fn get(self) -> usize {
        self
    }
}

/// LZ77 with hash-chain match search. Tokens:
/// `0x00 <len> <bytes>` literal run, `0x01 <len> <dist>` back-reference.
fn lz_compress<P: Pos>(data: &[u8], level: u8, out: &mut Vec<u8>) {
    let max_chain = usize::from(level) * 8;
    // On the heap: 256–512 KiB is too much for a `par_map` worker's stack.
    #[allow(clippy::useless_vec)]
    let mut head = vec![P::NONE; 1 << HASH_BITS];
    let mut prev = vec![P::NONE; data.len()];
    let mut literal_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |out: &mut Vec<u8>, start: usize, end: usize| {
        if end > start {
            out.push(0x00);
            write_varint(out, (end - start) as u64);
            out.extend_from_slice(&data[start..end]);
        }
    };

    while i + MIN_MATCH <= data.len() {
        let h = hash4(data, i);
        let (best_len, best_dist) = longest_match(data, i, head[h], &prev, max_chain);
        if best_len >= MIN_MATCH {
            flush_literals(out, literal_start, i);
            out.push(0x01);
            write_varint(out, best_len as u64);
            write_varint(out, best_dist as u64);
            // Insert hash entries for the matched region (bounded for speed).
            let insert_end = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
            let step = if level >= 10 { 1 } else { 2 };
            let mut j = i;
            while j < insert_end {
                let hj = hash4(data, j);
                prev[j] = head[hj];
                head[hj] = P::at(j);
                j += step;
            }
            i += best_len;
            literal_start = i;
        } else {
            prev[i] = head[h];
            head[h] = P::at(i);
            i += 1;
        }
    }
    flush_literals(out, literal_start, data.len());
}

/// The first longest match for position `i` on the hash chain starting at
/// `candidate`, as `(len, dist)`; `len` is below `MIN_MATCH` when there is
/// none to emit. The walk and its bounds are a byte-by-byte search's; the
/// shortcuts in the module docs only skip candidates that could not have
/// replaced the best.
fn longest_match<P: Pos>(data: &[u8], i: usize, mut candidate: P, prev: &[P], max_chain: usize) -> (usize, usize) {
    let limit = (data.len() - i).min(MAX_MATCH);
    let (mut best_len, mut best_dist) = (MIN_MATCH - 1, 0usize);
    let mut chain = 0usize;
    while candidate != P::NONE && chain < max_chain && best_len < limit {
        let at = candidate.get();
        let dist = i - at;
        if dist > MAX_DIST {
            break;
        }
        if word_ending_at(data, at + best_len) == word_ending_at(data, i + best_len) {
            let len = match_len(&data[at..at + limit], &data[i..i + limit]);
            if len > best_len {
                best_len = len;
                best_dist = dist;
            }
        }
        candidate = prev[at];
        chain += 1;
    }
    (best_len, best_dist)
}

/// The four bytes `data[end - 3..=end]`.
fn word_ending_at(data: &[u8], end: usize) -> u32 {
    u32::from_le_bytes(data[end - 3..=end].try_into().unwrap())
}

/// Length of the common prefix of two equally long slices.
fn match_len(a: &[u8], b: &[u8]) -> usize {
    let mut len = 0;
    for (wa, wb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = u64::from_le_bytes(wa.try_into().unwrap()) ^ u64::from_le_bytes(wb.try_into().unwrap());
        if diff != 0 {
            return len + diff.trailing_zeros() as usize / 8;
        }
        len += 8;
    }
    len + a[len..].iter().zip(&b[len..]).take_while(|(x, y)| x == y).count()
}

fn lz_decompress(data: &[u8], original_len: usize) -> Result<Vec<u8>, CodecError> {
    // A stream of literals alone expands to its own length; matches make
    // the output grow past that, token by token.
    let mut out = Vec::with_capacity(original_len.min(data.len()));
    let mut pos = 0usize;
    while pos < data.len() {
        let token = data[pos];
        pos += 1;
        match token {
            0x00 => {
                let len = checked_len(read_varint(data, &mut pos)?, original_len - out.len())?;
                let bytes = data
                    .get(pos..pos + len)
                    .ok_or_else(|| CodecError::Corrupt("truncated literal run".into()))?;
                grow(&mut out, len, original_len);
                out.extend_from_slice(bytes);
                pos += len;
            }
            0x01 => {
                let len = checked_len(read_varint(data, &mut pos)?, original_len - out.len())?;
                let dist = read_varint(data, &mut pos)?;
                if dist == 0 || dist > out.len() as u64 {
                    return Err(CodecError::Corrupt("invalid match distance".into()));
                }
                grow(&mut out, len, original_len);
                copy_match(&mut out, dist as usize, len);
            }
            other => return Err(CodecError::Corrupt(format!("unknown token {other}"))),
        }
    }
    if out.len() != original_len {
        return Err(CodecError::Corrupt(format!(
            "decompressed {} bytes, expected {original_len}",
            out.len()
        )));
    }
    Ok(out)
}

/// A token's length, refused before anything is copied if it would write
/// past the original length.
fn checked_len(len: u64, room: usize) -> Result<usize, CodecError> {
    usize::try_from(len)
        .ok()
        .filter(|&len| len <= room)
        .ok_or_else(|| CodecError::Corrupt("decompressed past original length".into()))
}

/// Makes room for `len` more bytes (`len` fits under `original_len`),
/// doubling the way `Vec` does but never past `original_len`.
fn grow(out: &mut Vec<u8>, len: usize, original_len: usize) {
    if out.capacity() - out.len() < len {
        out.reserve_exact(out.len().max(len).min(original_len - out.len()));
    }
}

/// Appends `len` bytes starting `dist` back. When the match overlaps its
/// own output (`len > dist`) the source is the last `dist` bytes repeated,
/// so each chunk copies a whole number of periods from the same start and
/// the chunk doubles as the output grows.
fn copy_match(out: &mut Vec<u8>, dist: usize, len: usize) {
    let start = out.len() - dist;
    let mut left = len;
    while left > 0 {
        let chunk = left.min(out.len() - start);
        out.extend_from_within(start..start + chunk);
        left -= chunk;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{codec_instance, Codec, EncoderConfig};
    use vss_frame::{pattern, FrameSequence, PixelFormat};

    #[test]
    fn round_trip_various_inputs() {
        let inputs: Vec<Vec<u8>> = vec![
            vec![],
            vec![7],
            vec![0; 10_000],
            (0..=255u8).cycle().take(5_000).collect(),
            pattern::gradient(64, 64, PixelFormat::Rgb8, 3).into_data(),
            pattern::noise(32, 32, PixelFormat::Rgb8, 3).into_data(),
        ];
        for input in inputs {
            for level in [1, 5, 10, 19] {
                let compressed = compress(&input, level);
                let restored = decompress(&compressed).unwrap();
                assert_eq!(restored, input, "level {level}, len {}", input.len());
            }
        }
    }

    #[test]
    fn frames_with_flat_regions_compress_substantially() {
        // Realistic raw frames (sky, road surfaces) contain large flat
        // regions; build one from filled rectangles over a dark background.
        let mut frame = vss_frame::Frame::black(128, 128, PixelFormat::Rgb8).unwrap();
        pattern::fill_rect(&mut frame, 0, 0, 128, 40, (90, 140, 200));
        pattern::fill_rect(&mut frame, 0, 80, 128, 48, (60, 60, 60));
        pattern::fill_rect(&mut frame, 30, 50, 40, 20, (200, 30, 30));
        let data = frame.into_data();
        let compressed = compress(&data, 5);
        assert!(
            compressed.len() * 4 < data.len(),
            "frame with flat regions should compress at least 4x: {} vs {}",
            compressed.len(),
            data.len()
        );
    }

    #[test]
    fn higher_levels_do_not_produce_larger_output_on_frame_data() {
        let data = pattern::gradient(96, 96, PixelFormat::Rgb8, 2).into_data();
        let low = compress(&data, 1).len();
        let high = compress(&data, 19).len();
        assert!(high <= low, "level 19 ({high}) should be <= level 1 ({low})");
    }

    #[test]
    fn noise_does_not_explode() {
        let data = pattern::noise(64, 64, PixelFormat::Rgb8, 1).into_data();
        let compressed = compress(&data, 3);
        // Incompressible data may grow slightly but must stay bounded.
        assert!(compressed.len() < data.len() + data.len() / 8 + 64);
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let data = pattern::gradient(32, 32, PixelFormat::Rgb8, 0).into_data();
        let mut compressed = compress(&data, 5);
        assert!(decompress(&compressed[..3]).is_err());
        compressed[0] = b'X';
        assert!(decompress(&compressed).is_err());
        // Truncation is detected via the original-length check.
        let compressed = compress(&data, 5);
        let truncated = &compressed[..compressed.len() - 5];
        assert!(decompress(truncated).is_err());
        assert!(decompress(&[]).is_err());
    }

    #[test]
    fn level_is_clamped() {
        let data = vec![1u8; 100];
        let a = compress(&data, 0);
        let b = compress(&data, 200);
        assert_eq!(decompress(&a).unwrap(), data);
        assert_eq!(decompress(&b).unwrap(), data);
        assert_eq!(a[4], MIN_LEVEL);
        assert_eq!(b[4], MAX_LEVEL);
    }

    fn header(original_len: u64) -> Vec<u8> {
        let mut stream = MAGIC.to_vec();
        stream.push(9);
        write_varint(&mut stream, original_len);
        stream
    }

    /// What a stream claims to decompress to.
    fn claimed_len(stream: &[u8]) -> Option<u64> {
        let mut pos = 5;
        read_varint(stream, &mut pos).ok()
    }

    /// The one outcome a (possibly corrupt) stream may have besides a
    /// typed error: exactly the length its header claims, in a buffer
    /// reserved for no more than that.
    fn assert_bounded(stream: &[u8], what: &str) {
        if let Ok(restored) = decompress(stream) {
            assert_eq!(Some(restored.len() as u64), claimed_len(stream), "{what}");
            assert_eq!(restored.capacity(), restored.len(), "{what}: over-reserved");
        }
    }

    /// Fails on the parent: the first stream aborted the process on a
    /// 16 GiB reservation, the second copied 1 GiB before its length check.
    #[test]
    fn corrupt_streams_return_err_or_exactly_original_len() {
        let huge_claim = header(1 << 34);
        assert_eq!(huge_claim.len(), 10);
        assert!(decompress(&huge_claim).is_err());
        let mut huge_match = header(2);
        huge_match.extend_from_slice(&[0x00, 1, b'x', 0x01]);
        write_varint(&mut huge_match, 1 << 30);
        write_varint(&mut huge_match, 1);
        assert!(decompress(&huge_match).is_err());

        let frames = (0..3).map(|i| pattern::gradient(32, 24, PixelFormat::Yuv420, i)).collect();
        let clip = FrameSequence::new(frames, 30.0).unwrap();
        let gop = codec_instance(Codec::Raw(PixelFormat::Yuv420)).encode(&clip, &EncoderConfig::default()).unwrap();
        let raw = gop.to_bytes();
        let compressed = compress(&raw, 9);
        assert_eq!(decompress(&compressed).unwrap(), raw);
        assert_bounded(&compressed, "intact");
        for end in 0..compressed.len() {
            assert!(decompress(&compressed[..end]).is_err(), "prefix {end} of {}", compressed.len());
        }
        for at in 0..compressed.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut flipped = compressed.clone();
                flipped[at] ^= mask;
                assert_bounded(&flipped, &format!("byte {at} ^ {mask:#x}"));
            }
        }
    }

    /// The match search before its shortcuts: a byte loop over every
    /// candidate. Kept here as the oracle the fast search must agree with.
    fn reference_longest_match(data: &[u8], i: usize, mut candidate: usize, prev: &[usize], max_chain: usize) -> (usize, usize) {
        let limit = (data.len() - i).min(MAX_MATCH);
        let (mut best_len, mut best_dist, mut chain) = (0, 0, 0);
        while candidate != usize::MAX && chain < max_chain {
            let dist = i - candidate;
            if dist > MAX_DIST {
                break;
            }
            let mut len = 0;
            while len < limit && data[candidate + len] == data[i + len] {
                len += 1;
            }
            if len > best_len {
                best_len = len;
                best_dist = dist;
            }
            candidate = prev[candidate];
            chain += 1;
        }
        (best_len, best_dist)
    }

    /// Period 3 with a perturbed byte every 29, a run of zeros and two raw
    /// frames: chains full of ties, hash collisions, partial-word
    /// mismatches and matches up to the end.
    fn search_corpus() -> Vec<u8> {
        let mut data: Vec<u8> = (0..6_000usize)
            .map(|i| [1u8, 2, 3][i % 3] ^ if i % 29 == 28 { (i / 29) as u8 | 1 } else { 0 })
            .collect();
        data.extend(std::iter::repeat_n(0, 700));
        data.extend(delta_filter(pattern::gradient(48, 32, PixelFormat::Yuv420, 1).data()));
        data.extend(delta_filter(&pattern::add_noise(&pattern::gradient(48, 32, PixelFormat::Rgb8, 2), 3, 9).into_data()));
        data
    }

    #[test]
    fn the_fast_match_search_picks_what_the_byte_loop_picks() {
        let data = search_corpus();
        // Only an emitted match is output; below `MIN_MATCH` both are literals.
        let emitted = |(len, dist): (usize, usize)| (len >= MIN_MATCH).then_some((len, dist));
        for max_chain in [8, 16, 80, 152] {
            let mut head = vec![usize::MAX; 1 << HASH_BITS];
            let mut prev = vec![usize::MAX; data.len()];
            for i in 0..data.len() - MIN_MATCH + 1 {
                let h = hash4(&data, i);
                assert_eq!(
                    emitted(longest_match(&data, i, head[h], &prev, max_chain)),
                    emitted(reference_longest_match(&data, i, head[h], &prev, max_chain)),
                    "position {i}, chain {max_chain}"
                );
                prev[i] = head[h];
                head[h] = i;
            }
        }
    }

    #[test]
    fn u32_and_usize_chain_tables_emit_the_same_stream() {
        let data = search_corpus();
        for level in [1, 9, 10, 19] {
            let (mut narrow, mut wide) = (Vec::new(), Vec::new());
            lz_compress::<u32>(&data, level, &mut narrow);
            lz_compress::<usize>(&data, level, &mut wide);
            assert_eq!(narrow, wide, "level {level}");
        }
    }

    #[test]
    fn match_len_counts_like_a_byte_loop() {
        let a: Vec<u8> = (0..40).collect();
        for len in 0..=a.len() {
            for differ_at in 0..=len {
                let mut b = a[..len].to_vec();
                if differ_at < len {
                    b[differ_at] ^= 0x40;
                }
                assert_eq!(match_len(&a[..len], &b), differ_at, "len {len}");
            }
        }
    }

    #[test]
    fn overlapping_matches_repeat_their_period() {
        for dist in 1..=9 {
            let mut out: Vec<u8> = (1..=dist as u8).collect();
            copy_match(&mut out, dist, 100);
            assert!(out.iter().enumerate().all(|(i, &b)| b == (i % dist) as u8 + 1), "dist {dist}");
        }
    }
}
