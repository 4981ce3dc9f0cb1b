//! Lossless compression used by VSS's deferred-compression optimization.
//!
//! The paper uses Zstandard, whose relevant properties are: (a) it is
//! lossless, (b) it exposes a compression level (1–19) trading speed for
//! ratio, and (c) decompression is far faster than a video codec. This is
//! the stand-in, built for what deferred compression stores: raw GOPs, whose
//! sensor noise defeats match search but whose neighbours predict them well.
//!
//! **Format 3.** The magic `VSL3`, the level, the original length and a
//! layout, then one block per 64 KiB of the original, stored verbatim where
//! coding would not shrink it. [`compress`] reads the
//! [`EncodedGop`](crate::EncodedGop) header: a raw GOP's frames are coded
//! by plane (`Rgb8` as one plane whose left neighbour is the same channel 3
//! bytes back, YUV as its three planes), its header and other input as one
//! row. A coded block predicts each sample
//! from its restored left or above neighbour — the first row from the left,
//! the first column from above — and codes the wrapping residuals as tokens
//! (a residual, or a run of 2..=64 zeros) in four bit streams under its own
//! canonical Huffman code of at most 12 bits, so one table lookup decodes a
//! token. Both predictors invert as row operations: left as prefix sums
//! (eight samples a word at step 1), above as a row add.
//!
//! **The level is how many predictors a block tries** — left from level 1,
//! above joins at 7 — and a block keeps the smallest exact result: a higher
//! level costs more CPU and is never larger. The output is a pure function
//! of (input, level), pinned by `tests/golden_lossless.rs`. No predictor
//! reads the above-left sample, as LOCO-I's median (MED) does: on every page
//! set measured MED stored more than left alone (`cached_clips`-like views
//! 0.151 vs 0.127 of their bytes) and restored a sample at a time (decode
//! 4.5–4.9 vs 1.2–1.25 ns per output byte, one thread).
//!
//! **The decoder is bounded by the original length:** [`decompress`] grows
//! its output a block at a time, once the block's bytes are present, and
//! refuses a token past its block, so a corrupt stream costs at most its
//! claimed length and ends in [`CodecError::Corrupt`], as does another
//! format's (format 2's `VSL2` and the LZ77 `VSSL` stream's too).

use crate::bitstream::{corrupt, read_varint, write_varint};
use crate::gop::Header;
use crate::{Codec, CodecError};
use std::ops::Range;
use vss_frame::PixelFormat;

pub(crate) const MAGIC: &[u8; 4] = b"VSL3";
const BLOCK: usize = 1 << 16;
const MAX_BITS: u32 = 12;
const MAX_RUN: usize = 64;
/// Residuals `0..=255`, then zero runs of `2..=MAX_RUN`, symbol `254 + run`.
const SYMBOLS: usize = 255 + MAX_RUN;
const STREAMS: usize = 4;
// Predictors, in the order the levels add them; a block's tag is 1 + its
// predictor (0: stored).
const LEFT: u8 = 0;
const ABOVE: u8 = 1;
/// The first level whose blocks also try [`ABOVE`].
const ABOVE_FROM: u8 = 7;
/// Minimum supported compression level.
pub const MIN_LEVEL: u8 = 1;
/// Maximum supported compression level (mirrors Zstandard's 19).
pub const MAX_LEVEL: u8 = 19;

/// Compresses `data` at the given level (clamped to `1..=19`).
pub fn compress(data: &[u8], level: u8) -> Vec<u8> {
    let level = level.clamp(MIN_LEVEL, MAX_LEVEL);
    let layout = Layout::of(data);
    let mut out = MAGIC.to_vec();
    out.push(level);
    for v in [data.len(), layout.id.into(), layout.prefix, layout.width, layout.height] {
        write_varint(&mut out, v as u64);
    }
    // In a row of plain bytes every predictor is "left": one try does.
    let tries = if layout.frame > 0 && level >= ABOVE_FROM { 2 } else { 1 };
    let (mut residuals, mut best) = (Vec::new(), Vec::new());
    for start in (0..data.len()).step_by(BLOCK) {
        let end = (start + BLOCK).min(data.len());
        let mut chosen: Option<(u8, Code)> = None;
        for predictor in [LEFT, ABOVE].into_iter().take(tries) {
            layout.residuals(data, start..end, predictor, &mut residuals);
            let code = Code::new(&residuals);
            if chosen.as_ref().is_none_or(|(_, kept)| code.size < kept.size) {
                chosen = Some((predictor, code));
                std::mem::swap(&mut residuals, &mut best);
            }
        }
        match chosen {
            Some((predictor, code)) if code.size < 1 + end - start => {
                out.push(1 + predictor);
                code.write(&best, &mut out);
            }
            _ => {
                out.push(0);
                out.extend_from_slice(&data[start..end]);
            }
        }
    }
    out
}

/// Decompresses a buffer produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    if data.len() < 5 || &data[..4] != MAGIC {
        return Err(corrupt("bad lossless magic"));
    }
    let mut pos = 5;
    let [len, id, prefix, width, height] = [(); 5].map(|_| read_varint(data, &mut pos));
    let (len, layout) = (len? as usize, Layout::read(id?, prefix?, width?, height?));
    let layout = layout.filter(|l| len <= 1 << 34 && l.prefix <= len && (l.frame == 0 || (len - l.prefix).is_multiple_of(l.frame)));
    let layout = layout.map(|l| Layout { prefix: if l.frame == 0 { len } else { l.prefix }, ..l });
    let layout = layout.ok_or_else(|| corrupt("implausible original length or layout"))?;
    let (mut out, mut table) = (Vec::new(), [INVALID; 1 << MAX_BITS]);
    while out.len() < len {
        let (start, block) = (out.len(), BLOCK.min(len - out.len()));
        let tag = *data.get(pos).filter(|&&tag| tag <= 1 + ABOVE).ok_or_else(|| corrupt("bad block tag"))?;
        pos += 1;
        let mut streams = [&data[..0]; STREAMS];
        let lens = if tag == 0 {
            vec![block as u64]
        } else {
            read_table(data, &mut pos, &mut table)?;
            (0..STREAMS).map(|_| read_varint(data, &mut pos)).collect::<Result<_, _>>()?
        };
        for (stream, bytes) in streams.iter_mut().zip(lens) {
            let end = usize::try_from(bytes).ok().and_then(|bytes| pos.checked_add(bytes));
            *stream = end.and_then(|end| data.get(pos..end)).ok_or_else(|| corrupt("truncated block"))?;
            pos += stream.len();
        }
        // Room for the block, doubling as `Vec` does but never past `len`.
        if out.capacity() - start < block {
            out.reserve_exact(start.max(block).min(len - start));
        }
        if tag == 0 {
            out.extend_from_slice(streams[0]);
        } else {
            out.resize(start + block, 0);
            decode_tokens(streams, &table, &mut out[start..])?;
            layout.restore(&mut out, start, tag - 1 == ABOVE);
        }
    }
    match pos == data.len() {
        true => Ok(out),
        false => Err(corrupt("trailing bytes after the last block")),
    }
}

// --- layout and prediction ---------------------------------------------------

/// An original as `prefix` bytes in one row (a GOP's header, or all of
/// other input), then frames of `frame` bytes (none if 0), each of `planes`
/// — `(offset, row bytes, rows)` — whose left neighbours are `step` back.
struct Layout {
    /// The raw GOP's codec id (0 for plain bytes), width and height.
    id: u8,
    width: usize,
    height: usize,
    prefix: usize,
    frame: usize,
    step: usize,
    planes: Vec<(usize, usize, usize)>,
}

impl Layout {
    fn of(data: &[u8]) -> Self {
        let header = Header::parse(data).ok().filter(|header| !header.frames.is_empty());
        let layout = header.and_then(|h| Self::read(h.codec.id().into(), h.payload as u64, h.width.into(), h.height.into()));
        match layout {
            Some(layout) if (data.len() - layout.prefix).is_multiple_of(layout.frame) => layout,
            _ => Self { id: 0, width: 0, height: 0, prefix: data.len(), frame: 0, step: 1, planes: Vec::new() },
        }
    }

    /// The layout a header declares: plain bytes for id 0, else a raw
    /// format's frames; `None` for anything else.
    fn read(id: u64, prefix: u64, width: u64, height: u64) -> Option<Self> {
        let format = match u8::try_from(id).ok().map(|id| (id, Codec::from_id(id))) {
            Some((0, _)) => return Some(Self { id: 0, width: 0, height: 0, prefix: 0, frame: 0, step: 1, planes: Vec::new() }),
            Some((_, Some(Codec::Raw(format)))) => format,
            _ => return None,
        };
        let (w, h) = (u32::try_from(width).ok()?, u32::try_from(height).ok()?);
        (width * height <= 1 << 34).then_some(())?;
        let rgb = format == PixelFormat::Rgb8;
        let planes = match rgb {
            true => vec![(0, 3 * w as usize, h as usize)],
            false => format.plane_layouts(w, h).iter().map(|p| (p.offset, p.width, p.height)).collect(),
        };
        let planes = planes.into_iter().filter(|&(_, row, rows)| row * rows > 0).collect();
        let (prefix, frame, step) = (usize::try_from(prefix).ok()?, format.frame_bytes(w, h), if rgb { 3 } else { 1 });
        (frame > 0).then_some(Self { id: id as u8, width: w as usize, height: h as usize, prefix, frame, step, planes })
    }

    /// Calls `f(base, row, step, from, to)` for every stretch of one plane
    /// in `range`: samples `from..to` of the plane that starts at `base`.
    fn spans(&self, range: Range<usize>, mut f: impl FnMut(usize, usize, usize, usize, usize)) {
        let mut pos = range.start;
        while pos < range.end {
            let (base, row, size, step) = if pos < self.prefix {
                (0, self.prefix, self.prefix, 1)
            } else {
                let frame = pos - (pos - self.prefix) % self.frame;
                let &(offset, row, rows) = self.planes.iter().rfind(|p| frame + p.0 <= pos).unwrap();
                (frame + offset, row, row * rows, self.step)
            };
            let to = (base + size).min(range.end);
            f(base, row, step, pos - base, to - base);
            pos = to;
        }
    }

    /// The residuals of `data[range]` under `predictor`.
    fn residuals(&self, data: &[u8], range: Range<usize>, predictor: u8, out: &mut Vec<u8>) {
        let start = range.start;
        out.resize(range.len(), 0); // every byte is written below
        self.spans(range, |base, row, step, from, to| {
            let out = &mut out[base + from - start..base + to - start];
            predict_span(&data[base..base + to], row, step, from, predictor == ABOVE, out)
        });
    }

    /// Turns `out[start..]`'s residuals back into samples, in place.
    fn restore(&self, out: &mut [u8], start: usize, above: bool) {
        self.spans(start..out.len(), |base, row, step, from, to| restore_span(&mut out[base..base + to], row, step, from, above));
    }
}

/// Each row of a plane stretch that samples `from..plane.len()` touch: its
/// start, end and first sample.
fn rows(plane: usize, row: usize, from: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    (from / row..plane.div_ceil(row)).map(move |r| (r * row, plane.min(r * row + row), from.max(r * row) - r * row))
}

/// Writes the residuals of samples `from..` of `plane` to `out`: each
/// sample less its left neighbour, `step` back, or with `above` and below
/// the first row, the sample above it. The first `step` samples of a row
/// are predicted from above (from 0 in the first row).
fn predict_span(plane: &[u8], row: usize, step: usize, from: usize, above: bool, out: &mut [u8]) {
    for (start, end, c0) in rows(plane.len(), row, from) {
        let (current, out) = (&plane[start..end], &mut out[start + c0 - from..end - from]);
        let up = (start > 0).then(|| &plane[start - row..end - row]);
        let first = current.len().min(step).max(c0);
        for c in c0..first {
            out[c - c0] = current[c].wrapping_sub(up.map_or(0, |u| u[c]));
        }
        if first < current.len() {
            let reference = match up {
                Some(u) if above => &u[first..],
                _ => &current[first - step..],
            };
            let samples = current[first..].iter().zip(reference);
            out[first - c0..].iter_mut().zip(samples).for_each(|(r, (&x, &p))| *r = x.wrapping_sub(p));
        }
    }
}

/// Restores samples `from..` of `plane`, which hold their residuals, as
/// [`predict_span`] predicted them: a row add from above, prefix sums from
/// the left at step 1, and at step 3 a running sum whose last three samples
/// ride in registers.
fn restore_span(plane: &mut [u8], row: usize, step: usize, from: usize, above: bool) {
    for (start, end, c0) in rows(plane.len(), row, from) {
        let (before, current) = plane.split_at_mut(start);
        let current = &mut current[..end - start];
        let up = (start > 0).then(|| &before[start - row..end - row]);
        let first = current.len().min(step).max(c0);
        for c in c0..first {
            current[c] = current[c].wrapping_add(up.map_or(0, |u| u[c]));
        }
        let (done, rest) = current.split_at_mut(first);
        if rest.is_empty() {
            continue;
        }
        match up {
            Some(u) if above => rest.iter_mut().zip(&u[first..]).for_each(|(x, &b)| *x = x.wrapping_add(b)),
            _ if step == 1 => prefix_sums(rest, done[first - 1]),
            _ => {
                let [mut a0, mut a1, mut a2] = [done[first - 3], done[first - 2], done[first - 1]];
                for x in rest {
                    *x = x.wrapping_add(a0);
                    (a0, a1, a2) = (a1, a2, *x);
                }
            }
        }
    }
}

/// Replaces each byte of `row` with the wrapping sum of `carry` and the
/// bytes up to it, eight at a time: only the running total carries over.
fn prefix_sums(row: &mut [u8], mut carry: u8) {
    const LOW: u64 = 0x00ff_00ff_00ff_00ff;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let mut words = row.chunks_exact_mut(8);
    for word in &mut words {
        let x = u64::from_le_bytes((*word).try_into().unwrap());
        // Even and odd bytes summed in 16-bit lanes, where they cannot carry,
        // then `carry` added to each byte without carries between them.
        let (even, odd) = ((x & LOW).wrapping_mul(0x0001_0001_0001_0001), (x >> 8 & LOW).wrapping_mul(0x0001_0001_0001_0001));
        let sums = (even.wrapping_add(odd << 16) & LOW) | (even.wrapping_add(odd) & LOW) << 8;
        let c = u64::from(carry) * 0x0101_0101_0101_0101;
        let out = ((sums & !HIGH) + (c & !HIGH)) ^ ((sums ^ c) & HIGH);
        word.copy_from_slice(&out.to_le_bytes());
        carry = (out >> 56) as u8;
    }
    for x in words.into_remainder() {
        carry = carry.wrapping_add(*x);
        *x = carry;
    }
}

// --- entropy coding ----------------------------------------------------------

/// Stream `k` of a block's residuals: `n·k/STREAMS .. n·(k+1)/STREAMS`.
fn stream(residuals: &[u8], k: usize) -> &[u8] {
    &residuals[residuals.len() * k / STREAMS..residuals.len() * (k + 1) / STREAMS]
}

/// Splits `residuals` into tokens for `t`: `literals` gets stretches of
/// residuals, each its own symbol (a lone zero too), `run` zero runs of
/// `2..=MAX_RUN`, symbol `254 + run` (a longer run is split, a last single
/// zero being a literal). Runs come from a mask of the zeros, 64 residuals
/// at a time, so a chunk without two zeros in a row costs a few word
/// operations.
#[inline(always)]
fn tokens<T>(residuals: &[u8], t: &mut T, mut literals: impl FnMut(&mut T, &[u8]), mut run: impl FnMut(&mut T, usize)) {
    // `from`: the first residual not handed out; `open`: where a run that
    // reached the end of the last chunk began.
    let (mut from, mut open) = (0, None);
    let mut close = |t: &mut T, start: usize, end: usize| {
        if end - start >= 2 {
            literals(t, &residuals[from..start]);
            for at in (start..end).step_by(MAX_RUN) {
                match (end - at).min(MAX_RUN) {
                    1 => literals(t, &residuals[at..end]),
                    zeros => run(t, zeros),
                }
            }
            from = end;
        }
    };
    // 0x80 in exactly the zero bytes of a word, those bits then gathered.
    let low7 = 0x7f7f_7f7f_7f7f_7f7fu64;
    let zero_bits = |w: u64| (!(((w & low7) + low7) | w | low7) >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56;
    for (chunk, base) in residuals.chunks(64).zip((0..).step_by(64)) {
        let mut zeros = match chunk.len() {
            64 => chunk.chunks_exact(8).zip((0..).step_by(8)).fold(0, |m, (w, k)| m | zero_bits(u64::from_le_bytes(w.try_into().unwrap())) << k),
            _ => chunk.iter().zip(0..).fold(0, |m, (&v, i)| m | u64::from(v == 0) << i),
        };
        if let Some(start) = open.take() {
            let ones = (!zeros).trailing_zeros() as usize;
            if ones >= chunk.len() {
                open = Some(start);
                continue;
            }
            close(t, start, base + ones);
            zeros &= !0 << ones;
        }
        // A run that reaches the chunk's end stays open.
        let top = (zeros << (64 - chunk.len())).leading_ones() as usize;
        if top > 0 {
            open = Some(base + chunk.len() - top);
            zeros &= !(!0 << (chunk.len() - top));
        }
        let mut pairs = zeros & zeros >> 1;
        while pairs != 0 {
            let start = pairs.trailing_zeros() as usize;
            close(t, base + start, base + start + (!(zeros >> start)).trailing_zeros() as usize);
            zeros &= zeros.wrapping_add(1 << start);
            pairs &= zeros;
        }
    }
    if let Some(start) = open {
        close(t, start, residuals.len());
    }
    literals(t, &residuals[from..]);
}

/// A block's Huffman code and its exact size: tag, table, stream lengths
/// and streams.
struct Code {
    lengths: [u8; SYMBOLS],
    /// The table and the stream lengths, as written.
    head: Vec<u8>,
    bytes: [usize; STREAMS],
    size: usize,
}

impl Code {
    fn new(residuals: &[u8]) -> Self {
        let counts: [[u32; SYMBOLS]; STREAMS] = std::array::from_fn(|k| token_counts(stream(residuals, k)));
        let lengths = limited_lengths(std::array::from_fn(|s| counts.iter().map(|counts| counts[s]).sum()));
        let bits = |counts: [u32; SYMBOLS]| counts.iter().zip(&lengths).map(|(&n, &l)| u64::from(n) * u64::from(l)).sum::<u64>();
        let bytes = counts.map(|counts| bits(counts).div_ceil(8) as usize);
        let mut head = Vec::new();
        write_table(&lengths, &mut head);
        bytes.iter().for_each(|&bytes| write_varint(&mut head, bytes as u64));
        let size = 1 + head.len() + bytes.iter().sum::<usize>();
        Self { lengths, head, bytes, size }
    }

    /// Appends the block after its tag.
    fn write(&self, residuals: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(&self.head);
        let codes = canonical_codes(&self.lengths).expect("an encoder's lengths satisfy Kraft");
        for (k, &bytes) in self.bytes.iter().enumerate() {
            let at = out.len();
            out.resize(at + bytes + 8, 0);
            let mut writer = Writer { codes: &codes, lengths: &self.lengths, out: &mut out[at..], at: 0, bits: 0, count: 0 };
            tokens(stream(residuals, k), &mut writer, Writer::literals, |w, run| w.put(254 + run));
            out.truncate(at + bytes);
        }
    }
}

/// One stream's token counts: a histogram of its residuals in four
/// interleaved tables, so a repeated value does not wait on its own last
/// increment, less the zeros that runs take.
fn token_counts(residuals: &[u8]) -> [u32; SYMBOLS] {
    let mut tables = [[0u32; 256]; 4];
    let mut quads = residuals.chunks_exact(4);
    for quad in &mut quads {
        tables.iter_mut().zip(quad).for_each(|(table, &v)| table[usize::from(v)] += 1);
    }
    quads.remainder().iter().for_each(|&v| tables[0][usize::from(v)] += 1);
    let (mut counts, mut zeros) = ([0u32; SYMBOLS], 0);
    tokens(residuals, &mut (&mut counts, &mut zeros), |_, _| {}, |(counts, zeros), run| {
        counts[254 + run] += 1;
        **zeros += run as u32;
    });
    for (v, count) in counts.iter_mut().take(256).enumerate() {
        *count = tables.iter().map(|table| table[v]).sum();
    }
    counts[0] -= zeros;
    counts
}

/// Packs codes LSB first into `out`, which has eight bytes of slack: each
/// `put` stores the whole buffer, of which the bytes before its last,
/// partial one are final.
struct Writer<'a> {
    codes: &'a [u16; SYMBOLS],
    lengths: &'a [u8; SYMBOLS],
    out: &'a mut [u8],
    at: usize,
    bits: u64,
    count: u32,
}

impl Writer<'_> {
    #[inline(always)]
    fn put(&mut self, symbol: usize) {
        self.push(self.codes[symbol].into(), self.lengths[symbol].into());
    }

    #[inline(always)]
    fn push(&mut self, value: u64, length: u32) {
        self.bits |= value << self.count;
        self.count += length;
        self.out[self.at..self.at + 8].copy_from_slice(&self.bits.to_le_bytes());
        (self.at, self.bits, self.count) = (self.at + self.count as usize / 8, self.bits >> (self.count / 8 * 8), self.count % 8);
    }

    /// Four literals (48 bits at most) are packed apart from the buffer,
    /// then pushed at once.
    #[inline(always)]
    fn literals(&mut self, stretch: &[u8]) {
        let mut quads = stretch.chunks_exact(4);
        for quad in &mut quads {
            let (value, length) = quad.iter().fold((0u64, 0u32), |(value, length), &v| {
                let v = usize::from(v);
                (value | u64::from(self.codes[v]) << length, length + u32::from(self.lengths[v]))
            });
            self.push(value, length);
        }
        quads.remainder().iter().for_each(|&v| self.put(v.into()));
    }
}

/// Huffman code lengths of `counts`, at most `MAX_BITS` long: the counts
/// are halved (never to zero) until the code fits.
fn limited_lengths(mut counts: [u32; SYMBOLS]) -> [u8; SYMBOLS] {
    loop {
        let lengths = huffman_lengths(&counts);
        if lengths.iter().all(|&l| u32::from(l) <= MAX_BITS) {
            return lengths;
        }
        counts.iter_mut().filter(|c| **c > 0).for_each(|c| *c = (*c >> 1) | 1);
    }
}

/// Huffman code lengths by the two-queue method, ties broken by symbol so
/// that the code is a function of the counts; a lone symbol gets length 1.
fn huffman_lengths(counts: &[u32; SYMBOLS]) -> [u8; SYMBOLS] {
    let mut leaves: Vec<(u32, usize)> = (0..SYMBOLS).filter(|&s| counts[s] > 0).map(|s| (counts[s], s)).collect();
    leaves.sort_unstable();
    // Nodes 0..n are the leaves, n.. the merged nodes as they are made, which
    // is also in order of weight.
    let (n, nodes) = (leaves.len(), (2 * leaves.len()).max(1) - 1);
    let mut weight: Vec<u64> = leaves.iter().map(|&(count, _)| count.into()).collect();
    let (mut parent, mut depth, mut next) = (vec![0; nodes], vec![0u8; nodes], [0, n]);
    for node in n..nodes {
        let mut take = || {
            let queue = usize::from(next[0] == n || (next[1] < node && weight[next[1]] < weight[next[0]]));
            next[queue] += 1;
            next[queue] - 1
        };
        let (x, y) = (take(), take());
        weight.push(weight[x] + weight[y]);
        (parent[x], parent[y]) = (node, node);
    }
    for node in (0..nodes.saturating_sub(1)).rev() {
        depth[node] = depth[parent[node]].saturating_add(1);
    }
    let mut lengths = [0; SYMBOLS];
    leaves.iter().zip(&depth).for_each(|(&(_, symbol), &d)| lengths[symbol] = d.max(1));
    lengths
}

/// Canonical codes for `lengths`, bit-reversed for an LSB-first stream;
/// `None` when the lengths oversubscribe the code space.
fn canonical_codes(lengths: &[u8; SYMBOLS]) -> Option<[u16; SYMBOLS]> {
    let mut per_length = [0u32; MAX_BITS as usize + 1];
    lengths.iter().filter(|&&l| l > 0).for_each(|&l| per_length[usize::from(l)] += 1);
    let (mut next, mut code) = ([0u32; MAX_BITS as usize + 1], 0);
    for length in 1..=MAX_BITS as usize {
        code = (code + per_length[length - 1]) << 1;
        next[length] = code;
        if code + per_length[length] > 1 << length {
            return None;
        }
    }
    let mut codes = [0u16; SYMBOLS];
    for (symbol, &length) in lengths.iter().enumerate().filter(|(_, &l)| l > 0) {
        codes[symbol] = (next[usize::from(length)] as u16).reverse_bits() >> (16 - length);
        next[usize::from(length)] += 1;
    }
    Some(codes)
}

/// Code lengths as nibbles, low nibble first: a length `0..=12`, or 15 and
/// `n - 3` for a run of `3..=18` zero lengths.
fn write_table(lengths: &[u8; SYMBOLS], out: &mut Vec<u8>) {
    let (mut nibbles, mut s) = (Vec::new(), 0);
    while s < SYMBOLS {
        let zeros = lengths[s..].iter().take(18).take_while(|&&l| l == 0).count();
        if zeros >= 3 {
            nibbles.extend([15, zeros as u8 - 3]);
            s += zeros;
        } else {
            nibbles.push(lengths[s]);
            s += 1;
        }
    }
    out.extend(nibbles.chunks(2).map(|pair| pair[0] | pair.get(1).map_or(0, |high| high << 4)));
}

/// A token as a decode-table entry: the bits its code takes (bits 0..4),
/// the byte it writes (4..12; a run writes a zero where the output has one)
/// and how far it moves the output (12..). `INVALID` moves past any block.
const INVALID: u32 = 1 << 31;

/// Reads a block's code lengths and fills the decode table: each symbol's
/// entry at every index whose low bits are its code.
fn read_table(data: &[u8], pos: &mut usize, table: &mut [u32; 1 << MAX_BITS]) -> Result<(), CodecError> {
    let (mut lengths, mut s, mut nibble) = ([0u8; SYMBOLS], 0, 0);
    let mut next = || {
        let byte = data.get(*pos + nibble / 2).ok_or_else(|| corrupt("truncated code table"))?;
        nibble += 1;
        Ok::<u8, CodecError>(if nibble % 2 == 1 { byte & 15 } else { byte >> 4 })
    };
    while s < SYMBOLS {
        match next()? {
            15 => s += usize::from(next()?) + 3,
            length if u32::from(length) <= MAX_BITS => (lengths[s], s) = (length, s + 1),
            _ => return Err(corrupt("code length out of range")),
        }
    }
    *pos += nibble.div_ceil(2);
    let codes = canonical_codes(&lengths).filter(|_| s == SYMBOLS).ok_or_else(|| corrupt("bad code table"))?;
    table.fill(INVALID);
    for (symbol, &length) in lengths.iter().enumerate().filter(|(_, &l)| l > 0) {
        let (byte, advance) = if symbol < 256 { (symbol, 1) } else { (0, symbol - 254) };
        let entry = u32::from(length) | (byte as u32) << 4 | (advance as u32) << 12;
        (usize::from(codes[symbol])..table.len()).step_by(1 << length).for_each(|i| table[i] = entry);
    }
    Ok(())
}

/// An LSB-first reader over one stream, which is its bit position; past
/// the stream's end it reads zeros, which `overran` reports.
struct Reader<'a> {
    data: &'a [u8],
    bit: usize,
}

impl Reader<'_> {
    /// Decodes up to four tokens (48 bits at most) from one load into
    /// `out[*o..]`; `false` once the stream's part of the block is whole.
    #[inline(always)]
    fn step(&mut self, table: &[u32; 1 << MAX_BITS], out: &mut [u8], o: &mut usize) -> Result<bool, CodecError> {
        if *o == out.len() {
            return Ok(false);
        }
        let at = self.bit / 8;
        let word = match self.data.get(at..at + 8) {
            Some(word) => u64::from_le_bytes(word.try_into().unwrap()),
            None => (0..8).fold(0, |w, k| w | u64::from(self.data.get(at + k).copied().unwrap_or(0)) << (8 * k)),
        };
        let mut bits = word >> (self.bit % 8);
        for _ in 0..4 {
            let entry = table[(bits & ((1 << MAX_BITS) - 1)) as usize];
            let (length, advance) = (entry & 15, (entry >> 12) as usize);
            if advance > out.len() - *o {
                return Err(corrupt("invalid code or zero run past the block"));
            }
            out[*o] = (entry >> 4) as u8;
            (*o, bits, self.bit) = (*o + advance, bits >> length, self.bit + length as usize);
            if *o == out.len() {
                break;
            }
        }
        Ok(true)
    }
}

/// Decodes a block's streams into `out` (zeroed, the block long), a step of
/// each live stream in turn: four dependency chains side by side.
fn decode_tokens(streams: [&[u8]; STREAMS], table: &[u32; 1 << MAX_BITS], out: &mut [u8]) -> Result<(), CodecError> {
    let n = out.len();
    let (a_out, rest) = out.split_at_mut(n / STREAMS);
    let (b_out, rest) = rest.split_at_mut(n * 2 / STREAMS - n / STREAMS);
    let (c_out, d_out) = rest.split_at_mut(n * 3 / STREAMS - n * 2 / STREAMS);
    let [mut a, mut b, mut c, mut d] = streams.map(|data| Reader { data, bit: 0 });
    let [mut at_a, mut at_b, mut at_c, mut at_d] = [0; STREAMS];
    while a.step(table, a_out, &mut at_a)?
        | b.step(table, b_out, &mut at_b)?
        | c.step(table, c_out, &mut at_c)?
        | d.step(table, d_out, &mut at_d)?
    {}
    match [a, b, c, d].iter().any(|r| r.bit > r.data.len() * 8) {
        true => Err(corrupt("block payload ended early")),
        false => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{codec_instance, EncoderConfig};
    use vss_frame::{pattern, FrameSequence, PixelFormat};

    fn raw_gop(width: u32, height: u32, format: PixelFormat, noise: u8) -> Vec<u8> {
        let frames = (0..3)
            .map(|i| pattern::add_noise(&pattern::gradient(width, height, format, i), noise, 7 + i))
            .collect();
        let clip = FrameSequence::new(frames, 30.0).unwrap();
        codec_instance(Codec::Raw(format)).encode(&clip, &EncoderConfig::default()).unwrap().to_bytes()
    }

    #[test]
    fn round_trip_various_inputs() {
        let inputs: Vec<Vec<u8>> = vec![
            vec![],
            vec![7],
            vec![0; 10_000],
            vec![0; 200_000],
            (0..=255u8).cycle().take(5_000).collect(),
            pattern::gradient(64, 64, PixelFormat::Rgb8, 3).into_data(),
            pattern::noise(32, 32, PixelFormat::Rgb8, 3).into_data(),
            raw_gop(96, 64, PixelFormat::Rgb8, 6),
            raw_gop(200, 120, PixelFormat::Yuv420, 2),
            raw_gop(64, 48, PixelFormat::Yuv422, 0),
        ];
        for input in inputs {
            for level in MIN_LEVEL..=MAX_LEVEL {
                let compressed = compress(&input, level);
                let restored = decompress(&compressed).unwrap();
                assert_eq!(restored, input, "level {level}, len {}", input.len());
            }
        }
    }

    #[test]
    fn odd_geometries_round_trip() {
        for (width, height, format) in [
            (1, 1, PixelFormat::Rgb8),
            (3, 5, PixelFormat::Rgb8),
            (2, 2, PixelFormat::Yuv420),
            (6, 6, PixelFormat::Yuv420),
            (2, 3, PixelFormat::Yuv422),
            (10, 1, PixelFormat::Yuv422),
        ] {
            let gop = raw_gop(width, height, format, 9);
            assert_eq!(Layout::of(&gop).frame, format.frame_bytes(width, height), "{width}x{height} {format:?}");
            for level in MIN_LEVEL..=MAX_LEVEL {
                assert_eq!(decompress(&compress(&gop, level)).unwrap(), gop, "{width}x{height} {format:?} L{level}");
            }
        }
    }

    #[test]
    fn a_block_may_start_inside_a_rows_first_pixel() {
        // At step 3 a row's first three samples are predicted from above, the
        // rest from the left: a block that starts after one or two of them
        // restores the others from above and the rest of the row from them.
        let mut split = 0;
        for width in 2..32 {
            let gop = raw_gop(width, 65_536 / (9 * width) + 1, PixelFormat::Rgb8, 5);
            let layout = Layout::of(&gop);
            if (1..3).contains(&((BLOCK - layout.prefix) % layout.frame % (3 * width as usize))) {
                split += 1;
                for level in [MIN_LEVEL, MAX_LEVEL] {
                    assert_eq!(decompress(&compress(&gop, level)).unwrap(), gop, "width {width}, level {level}");
                }
            }
        }
        assert!(split > 0, "no block starts inside a first pixel");
    }

    #[test]
    fn a_gop_is_coded_by_planes_and_other_input_as_bytes() {
        let gop = raw_gop(32, 16, PixelFormat::Rgb8, 2);
        assert_eq!(Layout::of(&gop).frame, 32 * 16 * 3);
        // One byte short of a GOP, and an H.264 GOP, are bytes.
        assert_eq!(Layout::of(&gop[..gop.len() - 1]).frame, 0);
        let clip = FrameSequence::new(vec![pattern::gradient(32, 16, PixelFormat::Yuv420, 0)], 30.0).unwrap();
        let h264 = codec_instance(Codec::H264).encode(&clip, &EncoderConfig::default()).unwrap().to_bytes();
        assert_eq!(Layout::of(&h264).frame, 0);
        assert_eq!(decompress(&compress(&h264, 19)).unwrap(), h264);
        assert_eq!(decompress(&compress(&gop[..gop.len() - 1], 19)).unwrap(), &gop[..gop.len() - 1]);
    }

    #[test]
    fn sizes_do_not_grow_with_the_level() {
        for (gop, what) in [
            (raw_gop(160, 90, PixelFormat::Rgb8, 12), "noisy Rgb8"),
            (raw_gop(160, 90, PixelFormat::Yuv420, 0), "smooth Yuv420"),
        ] {
            let sizes: Vec<usize> = (MIN_LEVEL..=MAX_LEVEL).map(|level| compress(&gop, level).len()).collect();
            assert!(sizes.windows(2).all(|pair| pair[1] <= pair[0]), "{what}: {sizes:?}");
            assert!(sizes[0] * 10 < gop.len() * 9, "{what} shrinks at level 1: {} of {}", sizes[0], gop.len());
        }
    }

    #[test]
    fn the_same_input_gives_the_same_bytes() {
        let gop = raw_gop(120, 68, PixelFormat::Yuv420, 3);
        for level in [1, 10, 19] {
            assert_eq!(compress(&gop, level), compress(&gop, level));
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
    fn noise_is_stored_verbatim() {
        let data = pattern::noise(64, 64, PixelFormat::Rgb8, 1).into_data();
        let compressed = compress(&data, 3);
        // Incompressible blocks are stored: one tag byte per block.
        assert!(compressed.len() <= data.len() + 16, "{} of {}", compressed.len(), data.len());
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let data = pattern::gradient(32, 32, PixelFormat::Rgb8, 0).into_data();
        let mut compressed = compress(&data, 5);
        assert!(decompress(&compressed[..3]).is_err());
        compressed[0] = b'X';
        assert!(decompress(&compressed).is_err());
        let compressed = compress(&data, 5);
        assert!(decompress(&compressed[..compressed.len() - 5]).is_err());
        let mut trailing = compressed.clone();
        trailing.push(0);
        assert!(decompress(&trailing).is_err());
        assert!(decompress(&[]).is_err());
    }

    #[test]
    fn the_old_lz77_stream_is_refused() {
        // Format 1's magic, level 9, a 1-byte original, one 1-byte literal.
        let old = [b'V', b'S', b'S', b'L', 9, 1, 0x00, 1, b'x'];
        assert!(matches!(decompress(&old), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn a_format_2_stream_is_refused() {
        // Format 2's magic, level 9, a 1-byte original of plain bytes (layout
        // 0, 0, 0, 0), one stored block: format 3 but for the magic.
        let old = [b'V', b'S', b'L', b'2', 9, 1, 0, 0, 0, 0, 0, b'x'];
        let mut current = old;
        current[3] = b'3';
        assert_eq!(decompress(&current).unwrap(), b"x");
        assert!(matches!(decompress(&old), Err(CodecError::Corrupt(m)) if m.contains("magic")));
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

    #[test]
    fn lengths_are_limited_and_complete() {
        // Fibonacci counts make the deepest unlimited Huffman tree.
        let mut counts = [0u32; SYMBOLS];
        let (mut a, mut b) = (1u32, 1u32);
        for count in counts.iter_mut().take(30) {
            *count = a;
            (a, b) = (b, a + b);
        }
        assert!(huffman_lengths(&counts).iter().any(|&l| u32::from(l) > MAX_BITS));
        let lengths = limited_lengths(counts);
        assert!(lengths.iter().all(|&l| u32::from(l) <= MAX_BITS));
        let kraft: f64 = lengths.iter().filter(|&&l| l > 0).map(|&l| 0.5f64.powi(i32::from(l))).sum();
        assert!((kraft - 1.0).abs() < 1e-12, "{kraft}");
        assert!(canonical_codes(&lengths).is_some());
    }

    fn header(original_len: u64) -> Vec<u8> {
        let mut stream = MAGIC.to_vec();
        stream.push(9);
        write_varint(&mut stream, original_len);
        stream.extend_from_slice(&[0, 0, 0, 0]); // layout: plain bytes
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

    #[test]
    fn corrupt_streams_return_err_or_exactly_original_len() {
        let huge_claim = header(1 << 34);
        assert_eq!(huge_claim.len(), 14);
        assert!(decompress(&huge_claim).is_err());
        // A 2-byte original whose one block is a run of 64 zeros: one
        // symbol, code length 1.
        let mut lengths = [0u8; SYMBOLS];
        lengths[SYMBOLS - 1] = 1;
        let mut huge_run = header(2);
        huge_run.push(1 + LEFT);
        write_table(&lengths, &mut huge_run);
        // Four stream lengths; of the 2 residuals, stream 1 codes the first.
        huge_run.extend_from_slice(&[0, 1, 0, 0, 0x00]);
        assert!(matches!(decompress(&huge_run), Err(CodecError::Corrupt(m)) if m.contains("zero run")));

        for compressed in [
            compress(&raw_gop(32, 24, PixelFormat::Yuv420, 1), 9),
            compress(&raw_gop(9, 7, PixelFormat::Rgb8, 4), 19),
        ] {
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
    }
}
