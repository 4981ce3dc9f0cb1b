//! Golden wire bytes: the encoded form of every live message kind, of the
//! mux and traced envelopes, and of the borrowed-frames chunk writer, pinned
//! against constants captured on the parent of the table-driven codec
//! rewrite (commit baa5b468a97d549b5042216678261c503f1dabfc) by running
//! this test there with an empty `GOLDEN` table and pasting the rows it
//! printed.
//!
//! Each row is a label, the payload length and an FNV-1a digest of the
//! payload; every row also checks that the payload decodes back to the
//! value it was encoded from. A row changes only when the wire format does,
//! and then it is a protocol change, not a refactor. The GOP-bearing rows
//! carry a raw-codec GOP container, so they also change with the GOP
//! container format (pinned on its own in `vss-codec`'s golden tests).

use vss_codec::{codec_instance, Codec, EncodedGop, EncoderConfig};
use vss_core::{
    ChunkStats, PlannerKind, ReadRequest, StorageBudget, VideoMetadata, VssError, WriteRequest,
};
use vss_frame::{pattern, Frame, PixelFormat, PsnrDb, RegionOfInterest, Resolution};
use vss_net::wire::{
    admin_topic, code, decode_envelope, decode_message, encode_message, encode_mux, encode_traced,
    write_mux_chunk_message, AdminTable, Envelope, Message, WireError, WireWriteReport,
    PROTOCOL_MAGIC, PROTOCOL_VERSION,
};
use vss_net::SubscribeFrom;
use vss_telemetry::{HistogramSummary, TelemetrySnapshot};

fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn row(label: &str, payload: &[u8]) -> String {
    format!("{label} len={} fnv={:016x}", payload.len(), fnv1a(payload))
}

/// One frame per pixel format, so every format name crosses the wire.
fn frames() -> Vec<Frame> {
    [PixelFormat::Rgb8, PixelFormat::Yuv420, PixelFormat::Yuv422]
        .into_iter()
        .enumerate()
        .map(|(i, format)| pattern::gradient(8, 6, format, i as u64))
        .collect()
}

fn gop() -> EncodedGop {
    let frames: Vec<Frame> = (0..2)
        .map(|i| pattern::gradient(4, 2, PixelFormat::Yuv420, i))
        .collect();
    codec_instance(Codec::Raw(PixelFormat::Yuv420))
        .encode_slice(&frames, 30.0, &EncoderConfig::default(), 1)
        .unwrap()
}

/// Every message kind the protocol speaks, with both states of every
/// `Option`, every `StorageBudget` and `SubscribeFrom` tag, and an error
/// with and without its range.
fn corpus() -> Vec<(&'static str, Message)> {
    let full_read = ReadRequest::new("cam-1", 0.5, 2.5, Codec::Hevc)
        .resolution(Resolution::new(64, 48))
        .crop(RegionOfInterest::new(2, 4, 30, 28).unwrap())
        .fps(15.0)
        .quality_threshold(PsnrDb(32.5))
        .encoder_quality(70)
        .planner(PlannerKind::Greedy)
        .uncacheable();
    let out_of_range = VssError::OutOfRange {
        requested_start: 0.0,
        requested_end: 9.0,
        available_start: 0.5,
        available_end: 3.0,
    };
    let table = AdminTable {
        title: "sessions".into(),
        columns: vec!["conn".into(), "peer".into(), "session".into()],
        rows: vec![
            vec!["1".into(), "127.0.0.1:9".into(), "3".into()],
            vec!["2".into(), "127.0.0.1:10".into(), "4".into()],
        ],
    };
    let snapshot = TelemetrySnapshot {
        counters: vec![
            ("engine.read.ops".into(), 42),
            ("net.mux.resets{kind=read}".into(), 7),
        ],
        gauges: vec![
            ("server.admission.queue_depth".into(), -3),
            ("net.conn.active".into(), 2),
        ],
        histograms: vec![(
            "engine.read.latency_ns".into(),
            HistogramSummary {
                count: 10,
                sum: 1000,
                max: 400,
                p50: 90,
                p90: 300,
                p99: 400,
            },
        )],
    };
    vec![
        (
            "hello",
            Message::Hello {
                magic: PROTOCOL_MAGIC,
                version: PROTOCOL_VERSION,
            },
        ),
        (
            "create",
            Message::Create {
                name: "cam".into(),
                budget: None,
            },
        ),
        (
            "create-multiple",
            Message::Create {
                name: "cam".into(),
                budget: Some(StorageBudget::MultipleOfOriginal(2.5)),
            },
        ),
        (
            "create-bytes",
            Message::Create {
                name: "cam".into(),
                budget: Some(StorageBudget::Bytes(1 << 20)),
            },
        ),
        (
            "create-unlimited",
            Message::Create {
                name: "cam".into(),
                budget: Some(StorageBudget::Unlimited),
            },
        ),
        ("delete", Message::Delete { name: "cam".into() }),
        ("metadata", Message::Metadata { name: "cam".into() }),
        (
            "open-read",
            Message::OpenReadStream {
                request: ReadRequest::new("cam", 0.0, 2.0, Codec::H264),
            },
        ),
        (
            "open-read-full",
            Message::OpenReadStream { request: full_read },
        ),
        (
            "open-read-raw",
            Message::OpenReadStream {
                request: ReadRequest::new("cam", 1.0, 1.5, Codec::Raw(PixelFormat::Yuv422)),
            },
        ),
        (
            "write-begin",
            Message::WriteBegin {
                request: WriteRequest::new("cam", Codec::H264),
                frame_rate: 30.0,
            },
        ),
        (
            "write-begin-full",
            Message::WriteBegin {
                request: WriteRequest::new("cam", Codec::Raw(PixelFormat::Rgb8))
                    .encoder_quality(90)
                    .starting_at(4.0),
                frame_rate: 29.97,
            },
        ),
        (
            "append-begin",
            Message::AppendBegin {
                name: "cam".into(),
                frame_rate: 30.0,
            },
        ),
        (
            "write-chunk-empty",
            Message::WriteChunk { frames: Vec::new() },
        ),
        ("write-chunk", Message::WriteChunk { frames: frames() }),
        ("write-finish", Message::WriteFinish),
        ("write-abort", Message::WriteAbort),
        (
            "subscribe-start",
            Message::Subscribe {
                name: "cam".into(),
                from: SubscribeFrom::Start,
            },
        ),
        (
            "subscribe-seq",
            Message::Subscribe {
                name: "cam".into(),
                from: SubscribeFrom::Seq(42),
            },
        ),
        (
            "subscribe-live",
            Message::Subscribe {
                name: "cam".into(),
                from: SubscribeFrom::Live,
            },
        ),
        (
            "hello-ack",
            Message::HelloAck {
                version: PROTOCOL_VERSION,
                session: 0x1234_5678_9abc,
            },
        ),
        ("ok", Message::Ok),
        (
            "error",
            Message::Error(WireError {
                code: code::VIDEO_NOT_FOUND,
                message: "cam".into(),
                range: None,
            }),
        ),
        (
            "error-range",
            Message::Error(WireError::from_error(&out_of_range)),
        ),
        (
            "metadata-reply",
            Message::MetadataReply(VideoMetadata {
                bytes_used: 0,
                budget_bytes: None,
                time_range: None,
            }),
        ),
        (
            "metadata-reply-full",
            Message::MetadataReply(VideoMetadata {
                bytes_used: 123_456,
                budget_bytes: Some(1 << 30),
                time_range: Some((0.0, 3.0)),
            }),
        ),
        (
            "stream-begin",
            Message::StreamBegin {
                frame_rate: 30.0,
                compressed: true,
            },
        ),
        (
            "stream-begin-raw",
            Message::StreamBegin {
                frame_rate: 15.0,
                compressed: false,
            },
        ),
        (
            "stream-chunk",
            Message::StreamChunk {
                frame_rate: 30.0,
                last: false,
                frames: Vec::new(),
                encoded_gop: None,
                delta: ChunkStats::default(),
            },
        ),
        (
            "stream-chunk-full",
            Message::StreamChunk {
                frame_rate: 30.0,
                last: true,
                frames: frames(),
                encoded_gop: Some(gop()),
                delta: ChunkStats {
                    gops_read: 1,
                    frames_decoded: 3,
                    bytes_read: 512,
                },
            },
        ),
        ("stream-end", Message::StreamEnd),
        ("write-ready", Message::WriteReady { gop_size: 30 }),
        (
            "write-report",
            Message::WriteReport(WireWriteReport {
                physical_id: 9,
                gops_written: 3,
                frames_written: 90,
                bytes_written: 65_536,
                deferred_levels: vec![0, 3, 19],
                elapsed_micros: 1_500,
            }),
        ),
        (
            "sub-chunk",
            Message::SubChunk {
                seq: 7,
                start_time: 7.0,
                end_time: 8.0,
                frame_rate: 30.0,
                frame_count: 2,
                gop: gop(),
            },
        ),
        (
            "sub-gap",
            Message::SubGap {
                from_seq: 0,
                to_seq: 7,
            },
        ),
        ("sub-end", Message::SubEnd),
        (
            "mux",
            Message::Mux {
                stream_id: 7,
                inner: Box::new(Message::OpenReadStream {
                    request: ReadRequest::new("cam", 0.0, 2.0, Codec::H264),
                }),
            },
        ),
        (
            "mux-credit",
            Message::MuxCredit {
                stream_id: 3,
                frames: 16,
            },
        ),
        (
            "mux-reset",
            Message::MuxReset {
                stream_id: 9,
                error: None,
            },
        ),
        (
            "mux-reset-error",
            Message::MuxReset {
                stream_id: 9,
                error: Some(WireError::protocol("gone")),
            },
        ),
        (
            "admin-request",
            Message::AdminRequest {
                topic: admin_topic::SPANS,
                arg: 42,
            },
        ),
        (
            "stats-page-request",
            Message::StatsPageRequest {
                start: 128,
                max: 64,
            },
        ),
        ("admin-table", Message::AdminTable(table)),
        (
            "stats-page",
            Message::StatsPage {
                total: 7000,
                start: 4096,
                snapshot,
            },
        ),
    ]
}

fn rows() -> Vec<String> {
    let mut rows = Vec::new();
    for (label, message) in corpus() {
        let payload = encode_message(&message);
        assert_eq!(
            decode_message(&payload).unwrap(),
            message,
            "{label} round trip"
        );
        rows.push(row(label, &payload));
    }

    let chunk = Message::WriteChunk { frames: frames() };
    let payload = encode_mux(9, &chunk);
    let expected = Message::Mux {
        stream_id: 9,
        inner: Box::new(chunk),
    };
    assert_eq!(
        decode_message(&payload).unwrap(),
        expected,
        "encode_mux round trip"
    );
    rows.push(row("encode_mux", &payload));

    for (label, parent) in [
        ("encode_traced", Some(77)),
        ("encode_traced-no-parent", None),
    ] {
        let message = Message::Metadata {
            name: "cam-7".into(),
        };
        let payload = encode_traced(11, parent, &message);
        let envelope = Envelope {
            request_id: Some(11),
            parent_span_id: parent,
            message,
        };
        assert_eq!(
            decode_envelope(&payload).unwrap(),
            envelope,
            "{label} round trip"
        );
        rows.push(row(label, &payload));
    }

    // The borrowed-frames writer emits a whole envelope: length prefix, then
    // a mux-wrapped WriteChunk.
    let mut written = Vec::new();
    write_mux_chunk_message(&mut written, 5, &frames()).unwrap();
    let (length, payload) = written.split_at(4);
    assert_eq!(
        u32::from_le_bytes(length.try_into().unwrap()) as usize,
        payload.len()
    );
    let expected = Message::Mux {
        stream_id: 5,
        inner: Box::new(Message::WriteChunk { frames: frames() }),
    };
    assert_eq!(
        decode_message(payload).unwrap(),
        expected,
        "write_mux_chunk_message round trip"
    );
    rows.push(row("write_mux_chunk_message", &written));
    rows
}

#[test]
fn wire_bytes_match_the_parent_commit() {
    let actual = rows();
    if actual != GOLDEN {
        for line in &actual {
            println!("    \"{line}\",");
        }
        let first = actual.iter().zip(GOLDEN).position(|(a, g)| a != g);
        panic!(
            "golden mismatch ({} rows, {} expected), first differing row: {first:?}",
            actual.len(),
            GOLDEN.len()
        );
    }
}

#[rustfmt::skip]
const GOLDEN: &[&str] = &[
    "hello len=7 fnv=7eacc9ba822e358d",
    "create len=9 fnv=98173c0161a2c7ef",
    "create-multiple len=18 fnv=87dc789c2e3a34a3",
    "create-bytes len=18 fnv=e4ba6928a1fcae2a",
    "create-unlimited len=10 fnv=123f8258e796dd0d",
    "delete len=8 fnv=20b967b1837d08d8",
    "metadata len=8 fnv=3526b170eb81a04f",
    "open-read len=39 fnv=5681050eaa1853c7",
    "open-read-full len=82 fnv=a9a5f4c7f233e2f9",
    "open-read-raw len=41 fnv=f4c66614489b6155",
    "write-begin len=33 fnv=0a69721f6fa40ca1",
    "write-begin-full len=33 fnv=6c3d9c49c9f615f8",
    "append-begin len=16 fnv=d25bea6bf6d356f2",
    "write-chunk-empty len=5 fnv=4a33692d0fa73c67",
    "write-chunk len=380 fnv=07e2055d88d55ed0",
    "write-finish len=1 fnv=af63c44c8601c3c4",
    "write-abort len=1 fnv=af63c74c8601c8dd",
    "subscribe-start len=9 fnv=6e645ab744215ae5",
    "subscribe-seq len=17 fnv=4a7e3cc689756c18",
    "subscribe-live len=9 fnv=6e6458b74421577f",
    "hello-ack len=11 fnv=2ac220fcd6263bd9",
    "ok len=1 fnv=af643f4c860294c5",
    "error len=11 fnv=d32f1105d2816885",
    "error-range len=97 fnv=7e62578ef6b9b106",
    "metadata-reply len=11 fnv=6251410c141109eb",
    "metadata-reply-full len=35 fnv=6da4bce8466bee2e",
    "stream-begin len=10 fnv=30b06f7c2f60373d",
    "stream-begin-raw len=10 fnv=a618be7be0e04ada",
    "stream-chunk len=39 fnv=8e39a6b2b864d88f",
    "stream-chunk-full len=469 fnv=67166a6e76b27426",
    "stream-end len=1 fnv=af643a4c86028c46",
    "write-ready len=9 fnv=84caf9727dccd609",
    "write-report len=48 fnv=9fcd539996768a83",
    "sub-chunk len=96 fnv=19a4482f9af29eeb",
    "sub-gap len=17 fnv=13f42020fc62f50c",
    "sub-end len=1 fnv=af64404c86029678",
    "mux len=44 fnv=e54020f545ebd505",
    "mux-credit len=9 fnv=7b02c39bcfe07e28",
    "mux-reset len=6 fnv=9c991627b746ab39",
    "mux-reset-error len=17 fnv=22b93d6148168fb3",
    "admin-request len=10 fnv=57dea5860cc2cfde",
    "stats-page-request len=9 fnv=d6910906a54622f1",
    "admin-table len=99 fnv=814a0e522596a2d9",
    "stats-page len=226 fnv=70b663bb84b43f98",
    "encode_mux len=385 fnv=d43ea8ec088cee84",
    "encode_traced len=27 fnv=a208c8754525313f",
    "encode_traced-no-parent len=27 fnv=2f7d8a230cce1cf2",
    "write_mux_chunk_message len=389 fnv=97d171ed33f3b2aa",
];
