//! Seeded input generation: the op sequences, Zipf and Poisson draws, scene
//! seeds and the digest that proves two runs saw the same inputs.
//!
//! The benchmark owns its RNG so that a change to a library RNG can never
//! silently change the op sequence a `--seed` stands for.

use vss_frame::{Frame, PixelFormat, Resolution};
use vss_workload::{SceneConfig, SceneRenderer};

/// SplitMix64: tiny, seedable, and every seed (including 0) is usable.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for one purpose (`tag`) of one seed, so adding
    /// a draw to one stream never shifts another.
    pub fn fork(seed: u64, tag: &str) -> Self {
        let mut digest = Digest::new();
        digest.bytes(tag.as_bytes());
        let mut rng = Self(seed ^ digest.value());
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is below 2^-40
    /// for every bound the benchmark uses.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A deck dealt without replacement and reshuffled when it runs out: every
/// value comes up equally often, only the order depends on the seed. Op mixes
/// are dealt from decks so that two seeds do the same work in another order
/// and a metric's spread across seeds is the system's, not the draw's.
#[derive(Debug, Clone)]
pub struct Deck<T> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    pub fn new(cards: Vec<T>) -> Self {
        let next = cards.len();
        Self { cards, next }
    }

    pub fn deal(&mut self, rng: &mut Rng) -> T {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// How often each of `n` ranks occurs among `total` draws that follow
/// Zipf(`s`) exactly (largest-remainder rounding): the expected counts, not a
/// sample of them.
pub fn zipf_counts(n: usize, s: f64, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / (rank as f64).powf(s)).collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = total - counts.iter().sum::<usize>();
    for &rank in by_remainder.iter().take(short) {
        counts[rank] += 1;
    }
    counts
}

/// Due times (ns from phase start) of `count` Poisson arrivals at `rate_hz`.
pub fn poisson_schedule(rng: &mut Rng, rate_hz: f64, count: usize) -> Vec<u64> {
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            at += -(1.0 - rng.unit()).ln() / rate_hz;
            (at * 1e9) as u64
        })
        .collect()
}

/// A 64-bit running hash (FNV-style multiply-xor over 8-byte words) used for
/// the inputs digest and for comparing read outputs with the reference
/// engine. Word-wise so hashing a megabyte of pixels costs ~0.1 ms.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(23);
    }

    pub fn bytes(&mut self, data: &[u8]) {
        self.word(data.len() as u64);
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.word(u64::from_le_bytes(tail));
    }

    pub fn frames(&mut self, frames: &[Frame]) {
        for frame in frames {
            self.bytes(frame.data());
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// One camera's pre-rendered frame ring. Videos are built by cycling the
/// ring, so rendering cost stays out of the way while content still has
/// motion, noise and a seam the codecs must handle.
///
/// Scenes are numbered, not seeded from `--seed`: codec cost depends on
/// content, and between two random scenes `frames_s` differed by 7 % — more
/// than a metric may spread across seeds. The seed decides which ops run on
/// this content in which order, never the content.
pub fn render_ring(
    scene: u64,
    camera: usize,
    resolution: Resolution,
    format: PixelFormat,
    overlap: f64,
    frames: usize,
) -> Vec<Frame> {
    SceneRenderer::new(SceneConfig {
        resolution,
        format,
        overlap,
        seed: 0x5ce9e + scene,
        ..SceneConfig::default()
    })
    .render_sequence(camera, frames)
    .into_frames()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(
            Rng::fork(7, "ops").next_u64(),
            Rng::fork(7, "scene").next_u64()
        );
    }

    #[test]
    fn zipf_counts_sum_to_the_total_and_favour_low_ranks() {
        let counts = zipf_counts(80, 1.0, 900);
        assert_eq!(counts.iter().sum::<usize>(), 900);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        assert!(
            counts[0] > 900 / 6,
            "rank 0 of Zipf(1.0, 80) holds ~20% of the mass"
        );
        assert!(counts[79] >= 1);
    }

    #[test]
    fn deck_deals_every_card_once_per_round() {
        let mut deck = Deck::new((0..10).collect());
        let mut rng = Rng::new(5);
        for _ in 0..3 {
            let mut round: Vec<i32> = (0..10).map(|_| deck.deal(&mut rng)).collect();
            round.sort_unstable();
            assert_eq!(round, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn poisson_schedule_is_increasing_at_the_requested_rate() {
        let due = poisson_schedule(&mut Rng::new(3), 100.0, 5000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let seconds = *due.last().unwrap() as f64 / 1e9;
        assert!(
            (seconds - 50.0).abs() < 3.0,
            "5000 arrivals at 100/s take ~50 s, got {seconds}"
        );
    }

    #[test]
    fn digest_sees_length_and_content() {
        let mut a = Digest::new();
        a.bytes(b"abcdefghi");
        let mut b = Digest::new();
        b.bytes(b"abcdefghj");
        let mut c = Digest::new();
        c.bytes(b"abcdefgh");
        c.bytes(b"i");
        assert_ne!(a.value(), b.value());
        assert_ne!(a.value(), c.value());
    }
}
