//! Property-based round-trip and robustness tests (proptest shim) for the
//! zero-run/varint bitstream coder — the entropy layer every simulated codec
//! serializes its quantized residuals through.
//!
//! Two families of properties:
//!
//! * **Lossless round trip** — arbitrary residual blocks (dense, sparse and
//!   zero-run-heavy) encode→decode to exactly the input, consuming exactly
//!   the bytes the encoder produced.
//! * **Robustness** — truncated or corrupted bitstreams (and entirely random
//!   bytes, at both the residual and the GOP-container layer) return
//!   [`CodecError`]s instead of panicking or over-allocating. Real H.264
//!   and HEVC GOPs of a noisy clip, every frame truncated at every length
//!   and single bytes flipped at random, go through the decoder itself
//!   (`VideoCodec::decode` and `decode_prefix`), whose pair parser takes a
//!   two-byte fast path and falls back to the varint reader. Their stored
//!   pages, and a raw GOP's deferred-compressed pages at levels 1 and 19,
//!   cut at every length and flipped at random, go through the page reader
//!   ([`read_page`]).
//!
//! The container itself is its bytes: a parse of them is the same GOP, and
//! a clone shares them.

use proptest::prelude::*;
use vss_codec::bitstream::{
    decode_residuals, encode_residuals, read_varint, unzigzag, write_varint, zigzag,
};
use vss_codec::{codec_instance, lossless, read_page, Codec, CodecError, EncodedGop, EncoderConfig, FrameInfo};
use vss_frame::{pattern, Frame, FrameSequence, PixelFormat};

/// Seeded noise over a still gradient, every third frame clean.
fn noisy_clip() -> FrameSequence {
    let base = pattern::gradient(18, 10, PixelFormat::Yuv420, 3);
    let frames: Vec<Frame> = (0..5u64)
        .map(|i| if i % 3 == 0 { base.clone() } else { pattern::add_noise(&base, 40, 0x5eed + i) })
        .collect();
    FrameSequence::new(frames, 30.0).unwrap()
}

/// H.264 and HEVC GOPs of [`noisy_clip`] at quality 100 (step 1): noisy
/// residuals need two-byte varints, and HEVC keeps its basic predictors on
/// the noisy frames and its advanced ones on the clean frames, so both
/// families are decoded.
fn noisy_gops() -> Vec<EncodedGop> {
    let clip = noisy_clip();
    let config = EncoderConfig { quality: 100, gop_size: clip.len() };
    let gops: Vec<EncodedGop> =
        [Codec::H264, Codec::Hevc].map(|codec| codec_instance(codec).encode(&clip, &config).unwrap()).into();
    let flags: Vec<u8> = (0..clip.len()).map(|i| gops[1].frame_payload(i).unwrap()[0]).collect();
    assert!(flags.contains(&0) && flags.contains(&1), "HEVC mode flags {flags:?}");
    assert!(gops.iter().all(|gop| multi_byte_pairs(gop) > 0), "no multi-byte pair in the clip");
    gops
}

/// Pairs with a varint of more than one byte, by walking every plane block.
fn multi_byte_pairs(gop: &EncodedGop) -> usize {
    let mut found = 0;
    for i in 0..gop.frame_count() {
        let payload = gop.frame_payload(i).unwrap();
        let mut pos = usize::from(gop.codec() == Codec::Hevc);
        for _plane in 0..3 {
            let (count, mut parsed) = (read_varint(payload, &mut pos).unwrap(), 0);
            while parsed < count {
                let start = pos;
                parsed += read_varint(payload, &mut pos).unwrap();
                parsed += u64::from(read_varint(payload, &mut pos).unwrap() != 0);
                found += usize::from(pos - start > 2);
            }
        }
    }
    found
}

/// `gop` with its payload and frame table replaced.
fn with_frames(gop: &EncodedGop, frames: Vec<FrameInfo>, payload: Vec<u8>) -> EncodedGop {
    EncodedGop::new(gop.codec(), gop.width(), gop.height(), gop.frame_rate(), gop.quantizer(), frames, payload)
}

/// Stored pages and the GOPs they read to: the `VSSG` pages of
/// [`noisy_gops`], and the `VSL3` pages of a raw GOP of [`noisy_clip`]
/// compressed at levels 1 and 19.
fn pages() -> Vec<(Vec<u8>, EncodedGop)> {
    let mut pages: Vec<_> = noisy_gops().into_iter().map(|gop| (gop.to_bytes(), gop)).collect();
    let raw = codec_instance(Codec::Raw(PixelFormat::Yuv420)).encode(&noisy_clip(), &EncoderConfig::default()).unwrap();
    for level in [1, 19] {
        pages.push((lossless::compress(raw.as_bytes(), level), raw.clone()));
    }
    pages
}

/// The concatenated frame payloads of `gop`.
fn payload(gop: &EncodedGop) -> Vec<u8> {
    (0..gop.frame_count()).flat_map(|i| gop.frame_payload(i).unwrap().to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn varint_round_trips_and_consumes_exactly_its_bytes(value in any::<u64>()) {
        let mut buf = Vec::new();
        write_varint(&mut buf, value);
        let mut pos = 0;
        prop_assert_eq!(read_varint(&buf, &mut pos).unwrap(), value);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_round_trips_and_keeps_small_magnitudes_small(value in any::<i64>()) {
        prop_assert_eq!(unzigzag(zigzag(value)), value);
        if let Some(magnitude) = value.checked_abs() {
            if magnitude <= i64::MAX / 2 {
                prop_assert!(zigzag(value) <= 2 * magnitude as u64 + 1);
            }
        }
    }

    #[test]
    fn dense_residual_blocks_round_trip(
        residuals in proptest::collection::vec(-100_000i32..100_000, 0..2048),
    ) {
        let mut buf = Vec::new();
        encode_residuals(&residuals, &mut buf);
        let mut pos = 0;
        let decoded = decode_residuals(&buf, &mut pos).unwrap();
        prop_assert_eq!(decoded, residuals);
        prop_assert_eq!(pos, buf.len(), "decoder must consume exactly the encoded bytes");
    }

    #[test]
    fn zero_run_heavy_blocks_round_trip(
        // Sparse blocks built as (run-length, value) pairs: long zero runs
        // are the regime temporally coherent video puts the coder in.
        runs in proptest::collection::vec((0usize..600, -512i32..512), 0..32),
        trailing_zeros in 0usize..500,
    ) {
        let mut residuals = Vec::new();
        for (run, value) in runs {
            residuals.extend(std::iter::repeat_n(0i32, run));
            residuals.push(value);
        }
        residuals.extend(std::iter::repeat_n(0i32, trailing_zeros));
        let mut buf = Vec::new();
        encode_residuals(&residuals, &mut buf);
        let mut pos = 0;
        let decoded = decode_residuals(&buf, &mut pos).unwrap();
        prop_assert_eq!(decoded, residuals);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn extreme_residual_values_round_trip(
        residuals in proptest::collection::vec(any::<i32>(), 0..256),
    ) {
        let mut buf = Vec::new();
        encode_residuals(&residuals, &mut buf);
        let mut pos = 0;
        prop_assert_eq!(decode_residuals(&buf, &mut pos).unwrap(), residuals);
    }

    #[test]
    fn truncated_residual_streams_error_instead_of_panicking(
        residuals in proptest::collection::vec(-512i32..512, 1..512),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut buf = Vec::new();
        encode_residuals(&residuals, &mut buf);
        // Every strict prefix must fail: the decoder consumes exactly the
        // full encoding, so a missing suffix always surfaces as an error.
        let cut = ((buf.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < buf.len());
        buf.truncate(cut);
        let mut pos = 0;
        prop_assert!(decode_residuals(&buf, &mut pos).is_err());
    }

    #[test]
    fn corrupted_residual_streams_never_panic(
        residuals in proptest::collection::vec(-512i32..512, 1..256),
        flip_index in any::<usize>(),
        flip_mask in 1u8..255,
    ) {
        let mut buf = Vec::new();
        encode_residuals(&residuals, &mut buf);
        let index = flip_index % buf.len();
        buf[index] ^= flip_mask;
        // A flipped byte may still decode (to different residuals) or error;
        // it must never panic, and the decoder must stay inside the buffer.
        let mut pos = 0;
        let _ = decode_residuals(&buf, &mut pos);
        prop_assert!(pos <= buf.len());
    }

    #[test]
    fn random_bytes_never_panic_the_residual_decoder(
        noise in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        // Arbitrary garbage, including headers claiming huge residual
        // counts: the decoder must reject or finish without panicking and
        // without committing count-sized allocations up front.
        let mut pos = 0;
        let _ = decode_residuals(&noise, &mut pos);
        prop_assert!(pos <= noise.len());
    }

    #[test]
    fn a_flipped_byte_in_a_real_gop_decodes_or_errors_never_panics(
        flip_index in any::<usize>(),
        flip_mask in 1u8..255,
        prefix in 0usize..6,
    ) {
        for gop in noisy_gops() {
            let mut bytes = payload(&gop);
            let index = flip_index % bytes.len();
            bytes[index] ^= flip_mask;
            let flipped = with_frames(&gop, gop.frames().to_vec(), bytes);
            let implementation = codec_instance(gop.codec());
            // Ok (other samples) or a typed error: the result type has no
            // third outcome, so what is checked is that nothing panics.
            let _ = implementation.decode(&flipped);
            let _ = implementation.decode_prefix(&flipped, prefix);
        }
    }

    #[test]
    fn a_flipped_byte_in_a_page_reads_or_is_corrupt(
        flip_index in any::<usize>(),
        flip_mask in 1u8..255,
    ) {
        for (mut page, _) in pages() {
            let index = flip_index % page.len();
            page[index] ^= flip_mask;
            let result = read_page(page);
            prop_assert!(matches!(result, Ok(_) | Err(CodecError::Corrupt(_))), "{result:?}");
        }
    }

    #[test]
    fn truncated_or_random_gop_containers_error_instead_of_panicking(
        noise in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // The GOP container sits directly above the bitstream layer; feeding
        // it noise (or a truncated header) must produce a clean error.
        let _ = EncodedGop::from_bytes(noise);
    }
}

#[test]
fn every_truncation_of_a_page_is_corrupt() {
    for (page, gop) in pages() {
        let magic = String::from_utf8_lossy(&page[..4]).into_owned();
        assert!(read_page(page.clone()).unwrap() == gop, "{magic}");
        for len in 0..page.len() {
            let result = read_page(page[..len].to_vec());
            assert!(matches!(result, Err(CodecError::Corrupt(_))), "{magic} page cut to {len}: {result:?}");
        }
    }
}

#[test]
fn a_gop_is_its_bytes_and_its_clones_share_them() {
    for (_, gop) in pages() {
        assert_eq!(gop.byte_len(), gop.as_bytes().len());
        assert!(EncodedGop::from_bytes(gop.to_bytes()).unwrap() == gop);
        let clone = gop.clone();
        assert_eq!(clone.as_bytes().as_ptr(), gop.as_bytes().as_ptr(), "a clone copied the bytes");
    }
}

#[test]
fn huge_claimed_count_is_rejected_without_allocation() {
    // A 2-byte stream whose count varint claims ~2^28 residuals: the decoder
    // must fail on the missing payload without first allocating gigabytes.
    let mut buf = Vec::new();
    write_varint(&mut buf, (1 << 28) - 1);
    let mut pos = 0;
    assert!(decode_residuals(&buf, &mut pos).is_err());
    // And counts above the plausibility limit are rejected outright.
    let mut buf = Vec::new();
    write_varint(&mut buf, 1 << 29);
    let mut pos = 0;
    assert!(decode_residuals(&buf, &mut pos).is_err());
}

#[test]
fn every_truncation_of_a_real_gop_frame_is_an_error_not_a_panic() {
    // The decoder consumes a frame's payload to its last byte (the V plane
    // comes last), so any strict prefix of one frame fails that frame, and
    // only that frame: the frames before it still decode as they did.
    for gop in noisy_gops() {
        let implementation = codec_instance(gop.codec());
        let full = implementation.decode(&gop).unwrap();
        let bytes = payload(&gop);
        for (index, info) in gop.frames().iter().enumerate() {
            for len in 0..info.len {
                let mut frames = gop.frames().to_vec();
                frames[index].len = len;
                let cut = with_frames(&gop, frames, bytes.clone());
                let label = format!("{} frame {index} cut to {len} of {} bytes", gop.codec(), info.len);
                assert!(matches!(implementation.decode(&cut), Err(vss_codec::CodecError::Corrupt(_))), "{label}");
                assert!(implementation.decode_prefix(&cut, index + 1).is_err(), "{label}");
                let before = implementation.decode_prefix(&cut, index).unwrap();
                assert_eq!(before.frames(), &full.frames()[..index], "{label}");
            }
        }
    }
}

#[test]
fn bytes_after_a_frames_v_plane_are_corrupt() {
    // The last frame grown by three bytes its V plane never reads: the
    // frame table still accounts for every byte, so only the frame's own
    // end can tell. The frames before it still decode as they did.
    for gop in noisy_gops() {
        let implementation = codec_instance(gop.codec());
        let full = implementation.decode(&gop).unwrap();
        let (mut frames, mut bytes) = (gop.frames().to_vec(), payload(&gop));
        frames.last_mut().unwrap().len += 3;
        bytes.extend_from_slice(&[1, 2, 3]);
        let grown = with_frames(&gop, frames, bytes);
        let last = gop.frame_count() - 1;
        assert!(matches!(implementation.decode(&grown), Err(vss_codec::CodecError::Corrupt(_))), "{}", gop.codec());
        assert_eq!(implementation.decode_prefix(&grown, last).unwrap().frames(), &full.frames()[..last]);
    }
}

#[test]
fn pairs_at_the_one_byte_limit_round_trip_at_the_end_of_a_block() {
    // Runs and zig-zag levels on both sides of the one-byte varint limit
    // (level 63 → 126 and −64 → 127 fit a byte, 64 → 128 does not), as the
    // block's last pair — its last two bytes when both fit — or before a
    // trailing run, alone in the buffer and with a second block behind it.
    // A pair the two-byte fast path cannot take falls back to the varint
    // reader, and the fast path never reads into the next block.
    let next_block = [5, 0, -64];
    for run in [0usize, 1, 127, 128, 16_383, 16_384] {
        for level in [1i32, -1, 63, -63, 64, -64] {
            for trailing in [0usize, 1, 127, 128] {
                let mut residuals = vec![0i32; run];
                residuals.push(level);
                residuals.extend(std::iter::repeat_n(0, trailing));
                let mut buf = Vec::new();
                encode_residuals(&residuals, &mut buf);
                let mut two = buf.clone();
                encode_residuals(&next_block, &mut two);
                let label = format!("run {run}, level {level}, trailing {trailing}");
                let mut pos = 0;
                assert_eq!(decode_residuals(&buf, &mut pos).unwrap(), residuals, "{label}");
                assert_eq!(pos, buf.len(), "{label}");
                let mut pos = 0;
                assert_eq!(decode_residuals(&two, &mut pos).unwrap(), residuals, "{label}");
                assert_eq!(pos, buf.len(), "{label}");
                assert_eq!(decode_residuals(&two, &mut pos).unwrap(), next_block, "{label}");
                assert_eq!(pos, two.len(), "{label}");
                for cut in 0..buf.len() {
                    assert!(decode_residuals(&buf[..cut], &mut 0).is_err(), "{label}, cut to {cut}");
                }
            }
        }
    }
}
