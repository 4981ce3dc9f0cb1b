//! Property-based tests (proptest) over the core invariants of the
//! reproduction: codec round trips, lossless identity, quality-bound
//! monotonicity, planner coverage/optimality dominance and eviction safety.

use proptest::prelude::*;
use vss::codec::{codec_instance, lossless, Codec, CostModel, EncoderConfig};
use vss::frame::{pattern, quality, Frame, FrameSequence, PixelFormat, Resolution};
use vss::solver::{plan_read, plan_read_greedy, FragmentCandidate, ReadPlanRequest};

fn arbitrary_frame(width: u32, height: u32) -> impl Strategy<Value = Frame> {
    (0u64..1_000_000).prop_map(move |seed| {
        let base = pattern::gradient(width, height, PixelFormat::Yuv420, seed);
        pattern::add_noise(&base, (seed % 5) as u8, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The lossless (deferred-compression) codec is an identity for any input
    /// at any level.
    #[test]
    fn lossless_codec_is_identity(data in proptest::collection::vec(any::<u8>(), 0..4096), level in 0u8..25) {
        let compressed = lossless::compress(&data, level);
        let restored = lossless::decompress(&compressed).unwrap();
        prop_assert_eq!(restored, data);
    }

    /// Varint/zig-zag residual coding round-trips arbitrary residual vectors.
    #[test]
    fn residual_coding_round_trips(residuals in proptest::collection::vec(-512i32..512, 0..2048)) {
        let mut buffer = Vec::new();
        vss::codec::bitstream::encode_residuals(&residuals, &mut buffer);
        let mut position = 0;
        let decoded = vss::codec::bitstream::decode_residuals(&buffer, &mut position).unwrap();
        prop_assert_eq!(decoded, residuals);
        prop_assert_eq!(position, buffer.len());
    }

    /// Both lossy codecs round-trip arbitrary (noisy-gradient) frames with an
    /// error bounded by the quantizer, and higher quality never decodes to a
    /// lower PSNR on the same content.
    #[test]
    fn lossy_codecs_bound_error_and_respect_quality(
        frame in arbitrary_frame(48, 32),
        advanced in any::<bool>(),
    ) {
        let codec = if advanced { Codec::Hevc } else { Codec::H264 };
        let implementation = codec_instance(codec);
        let sequence = FrameSequence::new(vec![frame.clone(), frame.clone()], 30.0).unwrap();
        let low = implementation.encode(&sequence, &EncoderConfig::with_quality(40)).unwrap();
        let high = implementation.encode(&sequence, &EncoderConfig::with_quality(95)).unwrap();
        let low_psnr = quality::sequence_psnr(
            sequence.frames(),
            implementation.decode(&low).unwrap().frames(),
        ).unwrap();
        let high_psnr = quality::sequence_psnr(
            sequence.frames(),
            implementation.decode(&high).unwrap().frames(),
        ).unwrap();
        prop_assert!(high_psnr.db() >= low_psnr.db() - 0.5,
            "higher quality decoded worse: {} vs {}", high_psnr, low_psnr);
        prop_assert!(high_psnr.db() > 35.0, "quality-95 should be near-lossless, got {}", high_psnr);
        // Serialization round trip preserves decodability.
        let reparsed = vss::codec::EncodedGop::from_bytes(&high.to_bytes()).unwrap();
        prop_assert_eq!(implementation.decode(&reparsed).unwrap(), implementation.decode(&high).unwrap());
    }

    /// The paper's transitive MSE bound holds for arbitrary three-frame chains.
    #[test]
    fn mse_composition_bound_holds(
        f0 in arbitrary_frame(32, 32),
        noise_a in 0u8..12,
        noise_b in 0u8..12,
        seed in 0u64..1000,
    ) {
        let f1 = pattern::add_noise(&f0, noise_a, seed);
        let f2 = pattern::add_noise(&f1, noise_b, seed ^ 0xABCD);
        let direct = quality::mse(&f0, &f2).unwrap();
        let bound = quality::compose_mse_bound(
            quality::mse(&f0, &f1).unwrap(),
            quality::mse(&f1, &f2).unwrap(),
        );
        prop_assert!(direct <= bound + 1e-6, "direct {} exceeds bound {}", direct, bound);
    }

    /// The optimal planner always covers the requested range, never uses
    /// rejected-quality fragments, and never costs more than the greedy
    /// baseline.
    #[test]
    fn planner_covers_and_dominates_greedy(
        fragment_seeds in proptest::collection::vec((0.0f64..50.0, 1.0f64..30.0, any::<bool>(), any::<bool>()), 1..8),
        start in 0.0f64..10.0,
        length in 5.0f64..40.0,
    ) {
        let mut candidates = vec![FragmentCandidate {
            id: 0,
            start: 0.0,
            end: 60.0,
            resolution: Resolution::R2K,
            codec: Codec::H264,
            frame_rate: 30.0,
            gop_frames: 30,
            quality_ok: true,
        }];
        for (i, (frag_start, frag_len, use_hevc, quality_ok)) in fragment_seeds.iter().enumerate() {
            candidates.push(FragmentCandidate {
                id: (i + 1) as u64,
                start: *frag_start,
                end: (frag_start + frag_len).min(60.0),
                resolution: Resolution::R2K,
                codec: if *use_hevc { Codec::Hevc } else { Codec::H264 },
                frame_rate: 30.0,
                gop_frames: 30,
                quality_ok: *quality_ok,
            });
        }
        let request = ReadPlanRequest {
            start,
            end: (start + length).min(60.0),
            resolution: Resolution::R2K,
            codec: Codec::Hevc,
        };
        let model = CostModel;
        let optimal = plan_read(&request, &candidates, &model).unwrap();
        let greedy = plan_read_greedy(&request, &candidates, &model).unwrap();
        prop_assert!(optimal.covers_range(request.start, request.end));
        prop_assert!(greedy.covers_range(request.start, request.end));
        prop_assert!(optimal.total_cost <= greedy.total_cost + 1e-6);
        let rejected: Vec<u64> = candidates.iter().filter(|c| !c.quality_ok).map(|c| c.id).collect();
        for used in optimal.fragments_used() {
            prop_assert!(!rejected.contains(&used), "plan used a rejected fragment");
        }
    }

    /// Frame resampling and format conversion preserve shape invariants for
    /// arbitrary even target sizes.
    #[test]
    fn resampling_preserves_shape(
        frame in arbitrary_frame(64, 48),
        w in 2u32..80,
        h in 2u32..60,
    ) {
        let w = w & !1;
        let h = h & !1;
        prop_assume!(w >= 2 && h >= 2);
        let resized = vss::frame::resize_bilinear(&frame, w, h).unwrap();
        prop_assert_eq!(resized.width(), w);
        prop_assert_eq!(resized.height(), h);
        prop_assert_eq!(resized.format(), frame.format());
        let rgb = resized.convert(PixelFormat::Rgb8).unwrap();
        prop_assert_eq!(rgb.byte_len(), (w * h * 3) as usize);
    }
}

// Structured inputs for the lossless codec's match search and bulk-copy
// decoder. Fewer cases: each is up to a megabyte.
proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Uniform random bytes (the test above) almost never form a match;
    /// these inputs are nearly all match. A period shorter than the match
    /// (1–16 bytes) makes every match overlap its own output.
    #[test]
    fn lossless_codec_is_identity_on_periodic_data(
        period in 1usize..17,
        len in 0usize..20_000,
        seed in any::<u64>(),
        level in 1u8..20,
    ) {
        let unit: Vec<u8> = (0..period).map(|k| (seed >> (k % 8 * 8)) as u8 ^ k as u8).collect();
        let data: Vec<u8> = unit.iter().copied().cycle().take(len).collect();
        prop_assert_eq!(lossless::decompress(&lossless::compress(&data, level)).unwrap(), data);
    }

    /// Zero runs longer than the 32 768-byte longest match, between noise.
    #[test]
    fn lossless_codec_is_identity_on_long_zero_runs(
        run in 32_769usize..100_000,
        noise in 0usize..64,
        seed in any::<u64>(),
        level in 1u8..20,
    ) {
        let mut rng = pattern::Xorshift::new(seed);
        let mut data: Vec<u8> = (0..noise).map(|_| rng.next_u64() as u8).collect();
        data.resize(noise + run, 0);
        data.extend((0..noise).map(|_| rng.next_u64() as u8));
        prop_assert_eq!(lossless::decompress(&lossless::compress(&data, level)).unwrap(), data);
    }

    /// A noise block repeated at a distance near the 2^20-byte match
    /// window, either side of it.
    #[test]
    fn lossless_codec_is_identity_on_repeats_near_the_window(
        offset in 0usize..16,
        block in 1usize..4_096,
        seed in any::<u64>(),
        level in 1u8..20,
    ) {
        let mut rng = pattern::Xorshift::new(seed);
        let distance = (1 << 20) - 8 + offset;
        let mut data: Vec<u8> = (0..distance).map(|_| rng.next_u64() as u8).collect();
        data.extend_from_within(..block);
        prop_assert_eq!(lossless::decompress(&lossless::compress(&data, level)).unwrap(), data);
    }
}
