//! Property-based round-trip and robustness tests (proptest shim) for the
//! `vss-net` wire format — every message kind the protocol defines.
//!
//! Two families of properties, mirroring the codec layer's bitstream suite:
//!
//! * **Lossless round trip** — arbitrary messages of every kind
//!   encode→decode to exactly the input value.
//! * **Robustness** — truncated (strict prefix), bit-flipped and entirely
//!   random payloads return errors (or, for benign flips, a decoded
//!   message), but **never panic and never allocate from an unvalidated
//!   length** — oversized envelope lengths and implausible frame counts are
//!   refused up front, the same pre-allocation discipline as
//!   `decode_residuals`.

use proptest::prelude::*;
use proptest::TestRng;
use vss_codec::{codec_instance, Codec, EncoderConfig};
use vss_core::{
    ChunkStats, PlannerKind, ReadRequest, StorageBudget, VideoMetadata, WriteRequest,
};
use vss_frame::{pattern, Frame, PixelFormat, RegionOfInterest, Resolution};
use vss_net::SubscribeFrom;
use vss_net::wire::{
    decode_message, encode_message, read_message, AdminTable, Message, WireError,
    WireWriteReport, MAX_CREDIT_FRAMES, MAX_MESSAGE_BYTES, MAX_METRICS, MAX_STREAM_ID,
};

/// Every variant of `Message`: 23 operation messages, the three
/// multiplexing frames and the four admin frames.
const KIND_COUNT: u8 = 30;
/// Kinds `0..PLAIN_KIND_COUNT` are the operation messages — the population
/// a `Mux` frame's `inner` is drawn from (mux frames never nest).
const PLAIN_KIND_COUNT: u8 = 23;
/// Kinds `PLAIN_KIND_COUNT..MUX_KIND_END` are the three multiplexing
/// frames (credit, reset, mux) — the ones whose wire layout starts with a
/// validated stream id.
const MUX_KIND_END: u8 = 26;

fn arbitrary_string(rng: &mut TestRng) -> String {
    let len = rng.next_below(12) as usize;
    (0..len).map(|_| char::from(b'a' + (rng.next_below(26) as u8))).collect()
}

fn arbitrary_frames(rng: &mut TestRng) -> Vec<Frame> {
    let formats = [PixelFormat::Rgb8, PixelFormat::Yuv420, PixelFormat::Yuv422];
    let format = formats[rng.next_below(3) as usize];
    let count = rng.next_below(4) as usize;
    (0..count).map(|i| pattern::gradient(16, 12, format, rng.next_u64() ^ i as u64)).collect()
}

fn arbitrary_budget(rng: &mut TestRng) -> Option<StorageBudget> {
    match rng.next_below(4) {
        0 => None,
        1 => Some(StorageBudget::MultipleOfOriginal(rng.next_f64() * 20.0)),
        2 => Some(StorageBudget::Bytes(rng.next_u64() >> 20)),
        _ => Some(StorageBudget::Unlimited),
    }
}

fn arbitrary_read_request(rng: &mut TestRng) -> ReadRequest {
    let codecs = [
        Codec::H264,
        Codec::Hevc,
        Codec::Raw(PixelFormat::Rgb8),
        Codec::Raw(PixelFormat::Yuv420),
        Codec::Raw(PixelFormat::Yuv422),
    ];
    let mut request = ReadRequest::new(
        arbitrary_string(rng),
        rng.next_f64() * 10.0,
        10.0 + rng.next_f64() * 10.0,
        codecs[rng.next_below(5) as usize],
    );
    if rng.next_below(2) == 0 {
        request = request.fps(1.0 + rng.next_f64() * 59.0);
    }
    if rng.next_below(2) == 0 {
        request = request.resolution(Resolution::new(
            2 + 2 * rng.next_below(500) as u32,
            2 + 2 * rng.next_below(500) as u32,
        ));
    }
    if rng.next_below(2) == 0 {
        let x0 = rng.next_below(50) as u32;
        let y0 = rng.next_below(50) as u32;
        request = request
            .crop(RegionOfInterest::new(x0, y0, x0 + 1 + rng.next_below(50) as u32, y0 + 1 + rng.next_below(50) as u32).unwrap());
    }
    if rng.next_below(2) == 0 {
        request = request.quality_threshold(vss_frame::PsnrDb(20.0 + rng.next_f64() * 30.0));
    }
    if rng.next_below(2) == 0 {
        request = request.encoder_quality(rng.next_below(101) as u8);
    }
    if rng.next_below(2) == 0 {
        request = request.uncacheable();
    }
    if rng.next_below(2) == 0 {
        request = request.planner(PlannerKind::Greedy);
    }
    request
}

fn arbitrary_error(rng: &mut TestRng) -> WireError {
    WireError {
        code: rng.next_below(120) as u16,
        message: arbitrary_string(rng),
        range: if rng.next_below(2) == 0 {
            None
        } else {
            Some((rng.next_f64(), rng.next_f64(), rng.next_f64(), rng.next_f64()))
        },
    }
}

fn arbitrary_stream_id(rng: &mut TestRng) -> u32 {
    1 + rng.next_below(MAX_STREAM_ID as u64) as u32
}

/// Builds one arbitrary message of the given kind — together the kinds
/// cover every frame type of the protocol.
fn arbitrary_message(kind: u8, rng: &mut TestRng) -> Message {
    match kind % KIND_COUNT {
        0 => Message::Hello { magic: rng.next_u64() as u32, version: rng.next_u64() as u16 },
        1 => Message::Create { name: arbitrary_string(rng), budget: arbitrary_budget(rng) },
        2 => Message::Delete { name: arbitrary_string(rng) },
        3 => Message::Metadata { name: arbitrary_string(rng) },
        4 => Message::OpenReadStream { request: arbitrary_read_request(rng) },
        5 => {
            let mut request = WriteRequest::new(
                arbitrary_string(rng),
                if rng.next_below(2) == 0 { Codec::H264 } else { Codec::Raw(PixelFormat::Rgb8) },
            );
            if rng.next_below(2) == 0 {
                request = request.encoder_quality(rng.next_below(101) as u8);
            }
            request = request.starting_at(rng.next_f64() * 100.0);
            Message::WriteBegin { request, frame_rate: 1.0 + rng.next_f64() * 59.0 }
        }
        6 => Message::AppendBegin {
            name: arbitrary_string(rng),
            frame_rate: 1.0 + rng.next_f64() * 59.0,
        },
        7 => Message::WriteChunk { frames: arbitrary_frames(rng) },
        8 => Message::WriteFinish,
        9 => Message::WriteAbort,
        10 => Message::HelloAck { version: rng.next_u64() as u16, session: rng.next_u64() },
        11 => Message::Ok,
        12 => Message::Error(arbitrary_error(rng)),
        13 => Message::MetadataReply(VideoMetadata {
            bytes_used: rng.next_u64() >> 10,
            budget_bytes: if rng.next_below(2) == 0 { None } else { Some(rng.next_u64() >> 10) },
            time_range: if rng.next_below(2) == 0 {
                None
            } else {
                Some((rng.next_f64() * 10.0, 10.0 + rng.next_f64() * 10.0))
            },
        }),
        14 => Message::StreamBegin {
            frame_rate: 1.0 + rng.next_f64() * 59.0,
            compressed: rng.next_below(2) == 0,
        },
        15 => {
            let frames = arbitrary_frames(rng);
            let encoded_gop = if rng.next_below(2) == 0 || frames.is_empty() {
                None
            } else {
                Some(
                    codec_instance(Codec::H264)
                        .encode_slice(&frames, 30.0, &EncoderConfig::default(), 1)
                        .unwrap(),
                )
            };
            Message::StreamChunk {
                frame_rate: 1.0 + rng.next_f64() * 59.0,
                last: rng.next_below(2) == 0,
                frames,
                encoded_gop,
                delta: ChunkStats {
                    gops_read: rng.next_below(100) as usize,
                    frames_decoded: rng.next_below(10_000) as usize,
                    bytes_read: rng.next_u64() >> 20,
                },
            }
        }
        16 => Message::StreamEnd,
        17 => Message::WriteReady { gop_size: 1 + rng.next_below(300) },
        19 => Message::Subscribe {
            name: arbitrary_string(rng),
            from: match rng.next_below(3) {
                0 => SubscribeFrom::Start,
                1 => SubscribeFrom::Seq(rng.next_u64()),
                _ => SubscribeFrom::Live,
            },
        },
        20 => Message::SubChunk {
            seq: rng.next_u64(),
            start_time: rng.next_f64() * 100.0,
            end_time: 100.0 + rng.next_f64(),
            frame_rate: 1.0 + rng.next_f64() * 59.0,
            frame_count: 1 + rng.next_below(300),
            gop: codec_instance(Codec::H264)
                .encode_slice(
                    &[pattern::gradient(16, 12, PixelFormat::Yuv420, rng.next_u64())],
                    30.0,
                    &EncoderConfig::default(),
                    1,
                )
                .unwrap(),
        },
        21 => Message::SubGap { from_seq: rng.next_u64(), to_seq: rng.next_u64() },
        22 => Message::SubEnd,
        23 => Message::MuxCredit {
            stream_id: arbitrary_stream_id(rng),
            frames: 1 + rng.next_below(MAX_CREDIT_FRAMES as u64) as u32,
        },
        24 => Message::MuxReset {
            stream_id: arbitrary_stream_id(rng),
            error: if rng.next_below(2) == 0 { None } else { Some(arbitrary_error(rng)) },
        },
        25 => Message::Mux {
            stream_id: arbitrary_stream_id(rng),
            inner: Box::new(arbitrary_message(
                (rng.next_below(PLAIN_KIND_COUNT as u64)) as u8,
                rng,
            )),
        },
        // The decoder takes any topic byte; serving one is the server's call.
        26 => Message::AdminRequest { topic: rng.next_u64() as u8, arg: rng.next_u64() },
        27 => Message::StatsPageRequest {
            start: rng.next_u64() as u32,
            max: 1 + rng.next_below(MAX_METRICS as u64) as u32,
        },
        28 => {
            let columns = 1 + rng.next_below(4) as usize;
            Message::AdminTable(AdminTable {
                title: arbitrary_string(rng),
                columns: (0..columns).map(|_| arbitrary_string(rng)).collect(),
                rows: (0..rng.next_below(4) as usize)
                    .map(|_| (0..columns).map(|_| arbitrary_string(rng)).collect())
                    .collect(),
            })
        }
        29 => Message::StatsPage {
            total: rng.next_u64() as u32,
            start: rng.next_u64() as u32,
            snapshot: vss_telemetry::TelemetrySnapshot {
                counters: (0..rng.next_below(4))
                    .map(|i| (format!("c{i}"), rng.next_u64()))
                    .collect(),
                gauges: (0..rng.next_below(4))
                    .map(|i| (format!("g{i}"), rng.next_u64() as i64))
                    .collect(),
                histograms: Vec::new(),
            },
        },
        _ => Message::WriteReport(WireWriteReport {
            physical_id: rng.next_u64(),
            gops_written: rng.next_below(1000),
            frames_written: rng.next_below(100_000),
            bytes_written: rng.next_u64() >> 16,
            deferred_levels: (0..rng.next_below(16)).map(|_| rng.next_below(10) as u8).collect(),
            elapsed_micros: rng.next_u64() >> 16,
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn every_message_kind_round_trips(kind in 0u8..KIND_COUNT, seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let message = arbitrary_message(kind, &mut rng);
        let payload = encode_message(&message);
        prop_assert!(payload.len() <= MAX_MESSAGE_BYTES);
        let decoded = decode_message(&payload)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(decoded, message);
    }

    #[test]
    fn strict_prefixes_of_every_kind_always_error(kind in 0u8..KIND_COUNT, seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let payload = encode_message(&arbitrary_message(kind, &mut rng));
        // Sampled cut points (every prefix for short messages).
        for cut in 0..payload.len() {
            if payload.len() > 64 && cut % 7 != 0 && cut + 8 < payload.len() {
                continue;
            }
            prop_assert!(
                decode_message(&payload[..cut]).is_err(),
                "strict prefix of {} / {} bytes decoded",
                cut,
                payload.len()
            );
        }
    }

    #[test]
    fn bit_flips_never_panic_or_overallocate(
        kind in 0u8..KIND_COUNT,
        seed in any::<u64>(),
        flip in any::<u64>(),
    ) {
        let mut rng = TestRng::new(seed);
        let mut payload = encode_message(&arbitrary_message(kind, &mut rng));
        prop_assume!(!payload.is_empty());
        let position = (flip as usize) % payload.len();
        payload[position] ^= 1 << (flip % 8);
        // Either a decode error or some (different) valid message — both
        // fine; what matters is that nothing panics and nothing allocates
        // from a corrupt length (caps inside the decoders).
        let _ = decode_message(&payload);
    }

    #[test]
    fn random_payloads_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_message(&bytes);
    }

    #[test]
    fn oversized_envelope_lengths_are_refused(claimed in (MAX_MESSAGE_BYTES as u64 + 1)..u32::MAX as u64) {
        // An envelope whose header claims gigabytes must be refused before
        // any payload allocation (read_message validates the length first).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(claimed as u32).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        prop_assert!(read_message(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn out_of_range_mux_fields_are_refused(
        kind in PLAIN_KIND_COUNT..MUX_KIND_END,
        seed in any::<u64>(),
        raw in any::<u32>(),
        zero in any::<bool>(),
    ) {
        let stream_id =
            if zero { 0 } else { MAX_STREAM_ID + 1 + raw % (u32::MAX - MAX_STREAM_ID) };
        // Every mux decoder validates its stream id before allocating for the
        // body: patch a valid frame's id field (bytes 1..5 after the kind
        // tag) out of range and the whole frame must be refused.
        let mut rng = TestRng::new(seed);
        let mut payload = encode_message(&arbitrary_message(kind, &mut rng));
        payload[1..5].copy_from_slice(&stream_id.to_le_bytes());
        prop_assert!(decode_message(&payload).is_err(), "stream id {stream_id} decoded");
    }

    #[test]
    fn out_of_range_credit_windows_are_refused(
        seed in any::<u64>(),
        raw in any::<u32>(),
        zero in any::<bool>(),
    ) {
        let frames =
            if zero { 0 } else { MAX_CREDIT_FRAMES + 1 + raw % (u32::MAX - MAX_CREDIT_FRAMES) };
        let mut rng = TestRng::new(seed);
        let grant = Message::MuxCredit { stream_id: arbitrary_stream_id(&mut rng), frames: 1 };
        let mut payload = encode_message(&grant);
        // The window field follows the kind tag and the stream id.
        payload[5..9].copy_from_slice(&frames.to_le_bytes());
        prop_assert!(decode_message(&payload).is_err(), "credit window {frames} decoded");
    }

    #[test]
    fn nested_mux_frames_are_refused(seed in any::<u64>(), kind in 0u8..PLAIN_KIND_COUNT) {
        // A Mux frame whose inner message is itself a mux-family frame is a
        // protocol violation — hand-build one (the encoder refuses to).
        let mut rng = TestRng::new(seed);
        let inner = Message::Mux {
            stream_id: arbitrary_stream_id(&mut rng),
            inner: Box::new(arbitrary_message(kind, &mut rng)),
        };
        for nested in [
            inner.clone(),
            Message::MuxCredit { stream_id: 1, frames: 1 },
            Message::MuxReset { stream_id: 1, error: None },
        ] {
            let mut payload = vec![0x7d]; // KIND_MUX
            payload.extend_from_slice(&arbitrary_stream_id(&mut rng).to_le_bytes());
            payload.extend_from_slice(&encode_message(&nested));
            prop_assert!(decode_message(&payload).is_err(), "nested {} decoded", nested.kind_name());
        }
        let _ = inner;
    }

    #[test]
    fn interleaved_mux_streams_round_trip_in_order(seed in any::<u64>(), count in 1usize..24) {
        // The demultiplexer's ground truth: frames of many concurrent
        // streams interleaved arbitrarily on one connection decode back in
        // exact order, and a stream truncated mid-frame yields every
        // complete frame then an error — never a panic, never a frame from
        // a partial envelope.
        let mut rng = TestRng::new(seed);
        let mut wire = Vec::new();
        let mut sent = Vec::new();
        for _ in 0..count {
            let stream_id = 1 + rng.next_below(6) as u32;
            let message = match rng.next_below(4) {
                0 => Message::MuxCredit { stream_id, frames: 1 + rng.next_below(16) as u32 },
                1 => Message::MuxReset {
                    stream_id,
                    error: if rng.next_below(2) == 0 {
                        None
                    } else {
                        Some(arbitrary_error(&mut rng))
                    },
                },
                _ => Message::Mux {
                    stream_id,
                    inner: Box::new(arbitrary_message(
                        rng.next_below(PLAIN_KIND_COUNT as u64) as u8,
                        &mut rng,
                    )),
                },
            };
            let payload = encode_message(&message);
            wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            wire.extend_from_slice(&payload);
            sent.push(message);
        }
        let mut cursor = wire.as_slice();
        for expected in &sent {
            let decoded = read_message(&mut cursor)
                .map_err(|e| TestCaseError::fail(format!("interleaved decode failed: {e}")))?;
            prop_assert_eq!(&decoded, expected);
        }
        prop_assert!(cursor.is_empty());
        // Truncate mid-final-frame: the tail read must error, not invent.
        let cut = wire.len() - 1 - (rng.next_below(4) as usize).min(wire.len() - 1);
        let mut cursor = &wire[..cut];
        for expected in &sent {
            match read_message(&mut cursor) {
                Ok(decoded) => prop_assert_eq!(&decoded, expected),
                Err(_) => return Ok(()),
            }
        }
        prop_assert!(false, "truncated stream decoded every frame");
    }
}
