//! The VSS wire format: message grammar, binary encoding and the typed
//! error mapping.
//!
//! See the [crate docs](crate) for the protocol narrative (handshake,
//! request/response flows, streaming and backpressure). This module defines
//! the bytes:
//!
//! * **Envelope** — every message is one length-prefixed frame:
//!   a little-endian `u32` payload length (1 ..= [`MAX_MESSAGE_BYTES`])
//!   followed by the payload, whose first byte is the message kind. A
//!   receiver refuses implausible lengths *before* allocating, so a corrupt
//!   or hostile peer can never make it commit gigabytes (the same
//!   pre-allocation discipline as the codec layer's `decode_residuals` cap).
//! * **Primitives** — integers are little-endian; `f64` travels as its IEEE
//!   bit pattern; `bool` is one byte (`0`/`1`); strings are `u32`-length-
//!   prefixed UTF-8 (≤ [`MAX_STRING_BYTES`]); options are a one-byte tag
//!   followed by the value.
//! * **Decoding is total** — malformed input yields an error, never a panic,
//!   and a strict prefix of a valid message always errors (every decoder
//!   checks availability before slicing, and [`decode_message`] requires the
//!   payload to be consumed exactly).
//!
//! # Admin frame grammar
//!
//! The introspection plane is four unary request/reply pairs, all riding
//! the ordinary envelope (and, over a multiplexed connection, the control
//! stream — never a data stream):
//!
//! ```text
//! AdminRequest       = 0x0d topic:u8 arg:u64        ; topic in admin_topic
//! AdminTable         = 0x8e title:str ncols:u32 col:str{ncols}
//!                           nrows:u32 cell:str{nrows*ncols}
//! StatsPageRequest   = 0x0e start:u32 max:u32       ; 1 <= max <= MAX_METRICS
//! StatsPage          = 0x8f total:u32 start:u32 snapshot
//! MetricsTextRequest = 0x0f
//! MetricsText        = 0x90 text:str
//! ```
//!
//! `AdminRequest` answers with one pre-rendered [`AdminTable`] per
//! [`admin_topic`] selector (sessions, mux streams, shards, span trees).
//! `StatsPageRequest` walks the registry flattened as counters → gauges →
//! histograms, each section in sorted series order; a client concatenates
//! pages until `start + page-len == total`, so a registry of any size
//! crosses the wire without hitting the per-message [`MAX_METRICS`] cap.
//! `MetricsText` is the Prometheus-style exposition of the same registry.
//!
//! # Traced request envelope
//!
//! ```text
//! traced = 0x7e request_id:u64 parent_span_id:u64 message
//! ```
//!
//! A request sent under an active telemetry scope carries its request id
//! and the client's innermost open span id (0 = none), so the server's
//! spans chain under the client's op span and one request yields one
//! connected [`vss_telemetry::span_tree`] across processes.
//!
//! # Reserved bytes
//!
//! Three first-payload bytes belonged to retired protocol versions and stay
//! reserved — never reassigned, and refused by [`decode_message`] as unknown
//! kinds: `0x7f` (the request-id-only envelope), `0x0b` (one-frame stats
//! request) and `0x8a` (its one-frame snapshot reply; [`Message::StatsPage`]
//! is the one registry fetch).

use std::io::{Read, Write};
use vss_codec::{Codec, CodecError, EncodedGop};
use vss_core::{
    ChunkStats, PlannerKind, ReadRequest, StorageBudget, VideoMetadata, VssError, WriteReport,
    WriteRequest,
};
use vss_frame::{Frame, PixelFormat, RegionOfInterest, Resolution};
use vss_live::SubscribeFrom;
use vss_telemetry::{HistogramSummary, TelemetrySnapshot};

/// Protocol magic carried by the client's `Hello` ("VSSN").
pub const PROTOCOL_MAGIC: u32 = 0x5653_534e;
/// The one protocol version this build speaks. A `Hello` offering less is
/// refused with a typed protocol error before admission; the server always
/// acknowledges at exactly this version, and a client refuses a `HelloAck`
/// carrying any other.
pub const PROTOCOL_VERSION: u16 = 3;
/// Ceiling on one message's payload, checked before any allocation.
pub const MAX_MESSAGE_BYTES: usize = 64 << 20;
/// Ceiling on one string field (names, error text).
pub const MAX_STRING_BYTES: usize = 1 << 20;
/// Ceiling on the frames carried by one chunk message.
pub const MAX_FRAMES_PER_CHUNK: usize = 4096;
/// Ceiling on a wire frame's width/height (validated before the pixel
/// buffer's expected size is even computed).
pub const MAX_DIMENSION: u32 = 16_384;
/// Streaming transfers split GOPs whose pixel payload exceeds this many
/// bytes across several fragments, keeping every message under the envelope
/// ceiling.
pub const FRAGMENT_BYTES: usize = 8 << 20;
/// Ceiling on the frames one reassembled chunk may accumulate across its
/// fragments (receiver-side guard: a peer that never sends `last = true`
/// cannot grow the receiver unboundedly).
pub const MAX_CHUNK_FRAMES: usize = 1 << 16;
/// Ceiling on the pixel bytes one reassembled chunk may accumulate across
/// its fragments.
pub const MAX_CHUNK_BYTES: u64 = 1 << 30;
/// First payload byte of a **traced** envelope:
/// `[0x7e][request id: u64 LE][parent span id: u64 LE][message]`. It tags a
/// request with its id and the sender's innermost open span id (0 encodes
/// "no parent"), so server-side spans chain under the client's op span and
/// [`vss_telemetry::span_tree`] reassembles one connected tree per request.
/// The value collides with no message kind (client kinds are `0x01..=0x7a`,
/// server kinds `0x81..`), so a traced payload is unambiguous; the
/// handshake itself is never wrapped.
pub const ENVELOPE_TRACED: u8 = 0x7e;
/// Ceiling on the metrics one [`Message::StatsPage`] section (counters,
/// gauges or histograms) may carry, checked before any allocation. A
/// registry larger than this arrives as several
/// [`Message::StatsPageRequest`] pages.
pub const MAX_METRICS: usize = 4096;
/// Ceiling on the columns of one [`Message::AdminTable`].
pub const MAX_ADMIN_COLUMNS: usize = 32;
/// Ceiling on the rows of one [`Message::AdminTable`]; servers truncate
/// (and say so in the table title) rather than exceed it.
pub const MAX_ADMIN_ROWS: usize = 4096;
/// Ceiling on a multiplexed stream id. Ids are client-chosen,
/// start at 1 (0 is reserved for the connection's control plane and always
/// invalid on the wire) and are validated **before** the frame's inner
/// payload is decoded, so a corrupt id can never steer an allocation.
pub const MAX_STREAM_ID: u32 = 1 << 20;
/// Ceiling on one [`Message::MuxCredit`] grant in data frames. Grants are
/// cumulative; a single grant above this cap (or of zero) is a protocol
/// error, refused before any state changes.
pub const MAX_CREDIT_FRAMES: u32 = 1 << 16;

/// Wire error codes — one per [`VssError`] variant (the encode mapping in
/// [`WireError::from_error`] is deliberately exhaustive: adding a `VssError`
/// variant without assigning it a code is a compile error).
pub mod code {
    /// [`vss_core::VssError::VideoNotFound`].
    pub const VIDEO_NOT_FOUND: u16 = 1;
    /// [`vss_core::VssError::VideoExists`].
    pub const VIDEO_EXISTS: u16 = 2;
    /// [`vss_core::VssError::OutOfRange`].
    pub const OUT_OF_RANGE: u16 = 3;
    /// [`vss_core::VssError::EmptyWrite`].
    pub const EMPTY_WRITE: u16 = 4;
    /// [`vss_core::VssError::Unsatisfiable`].
    pub const UNSATISFIABLE: u16 = 5;
    /// [`vss_core::VssError::Unsupported`].
    pub const UNSUPPORTED: u16 = 6;
    /// [`vss_core::VssError::JointCompressionAborted`].
    pub const JOINT_COMPRESSION_ABORTED: u16 = 7;
    /// [`vss_core::VssError::Catalog`] (display text crosses the wire).
    pub const CATALOG: u16 = 8;
    /// [`vss_core::VssError::Codec`] (display text crosses the wire).
    pub const CODEC: u16 = 9;
    /// [`vss_core::VssError::Frame`] (display text crosses the wire).
    pub const FRAME: u16 = 10;
    /// [`vss_core::VssError::Solver`] (display text crosses the wire).
    pub const SOLVER: u16 = 11;
    /// [`vss_core::VssError::Vision`] (display text crosses the wire).
    pub const VISION: u16 = 12;
    /// [`vss_core::VssError::Overloaded`] — admission control shed the
    /// session; back off and retry.
    pub const OVERLOADED: u16 = 13;
    /// A protocol violation (bad handshake, malformed or unexpected frame);
    /// not a `VssError` variant of its own — decodes to
    /// [`vss_core::VssError::Remote`].
    pub const PROTOCOL: u16 = 100;
}

/// Topic selectors for [`Message::AdminRequest`]. Each topic
/// answers with one [`Message::AdminTable`]; `arg` is topic-specific and 0
/// when unused.
pub mod admin_topic {
    /// Live sessions: connection id, peer, session id, open mux streams.
    pub const SESSIONS: u8 = 1;
    /// Active mux streams across all sessions: session, stream id, kind,
    /// remaining credit, frames sent.
    pub const STREAMS: u8 = 2;
    /// Per-shard server table: shard index, videos, read/write ops, cache
    /// hits, bytes, lock-wait p99.
    pub const SHARDS: u8 = 3;
    /// Recent span trees. `arg = 0` lists the most recent traced request
    /// ids; a non-zero `arg` renders that request id's tree, one span per
    /// row, the op column indented by tree depth.
    pub const SPANS: u8 = 4;
}

/// One rendered admin table as it crosses the wire: a title, column
/// headers, and string rows (pre-rendered server-side so clients — and
/// `vss-top` — need no per-topic schema knowledge). Bounded by
/// [`MAX_ADMIN_COLUMNS`] and [`MAX_ADMIN_ROWS`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AdminTable {
    /// Human-readable table title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows; every row has exactly `columns.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl AdminTable {
    /// Renders the table as aligned text (header, rule, rows).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (index, cell) in row.iter().enumerate() {
                if index < widths.len() {
                    widths[index] = widths[index].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let render = |cells: &[String], out: &mut String| {
            for (index, cell) in cells.iter().enumerate() {
                let width = widths.get(index).copied().unwrap_or(0);
                let _ = if index + 1 == cells.len() {
                    writeln!(out, "{cell}")
                } else {
                    write!(out, "{cell:<width$}  ")
                };
            }
        };
        render(&self.columns, &mut out);
        for row in &self.rows {
            render(row, &mut out);
        }
        out
    }
}

/// A typed error as it crosses the wire: a code from [`code`], the error's
/// display text, and (for `OutOfRange`) the four interval bounds so that
/// variant round-trips losslessly.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Error code (see [`code`]).
    pub code: u16,
    /// Display text of the originating error.
    pub message: String,
    /// `OutOfRange` payload: requested start/end, available start/end.
    pub range: Option<(f64, f64, f64, f64)>,
}

impl WireError {
    /// A protocol-violation error.
    pub fn protocol(message: impl Into<String>) -> Self {
        Self { code: code::PROTOCOL, message: message.into(), range: None }
    }

    /// Maps a [`VssError`] onto the wire — exhaustively, with no catch-all
    /// arm, so a new error variant cannot silently degrade to a generic
    /// code.
    pub fn from_error(error: &VssError) -> Self {
        let plain = |c: u16, message: String| Self { code: c, message, range: None };
        match error {
            VssError::VideoNotFound(name) => plain(code::VIDEO_NOT_FOUND, name.clone()),
            VssError::VideoExists(name) => plain(code::VIDEO_EXISTS, name.clone()),
            VssError::OutOfRange {
                requested_start,
                requested_end,
                available_start,
                available_end,
            } => Self {
                code: code::OUT_OF_RANGE,
                message: error.to_string(),
                range: Some((*requested_start, *requested_end, *available_start, *available_end)),
            },
            VssError::EmptyWrite => plain(code::EMPTY_WRITE, String::new()),
            VssError::Unsatisfiable(msg) => plain(code::UNSATISFIABLE, msg.clone()),
            VssError::Unsupported(msg) => plain(code::UNSUPPORTED, msg.clone()),
            VssError::JointCompressionAborted(msg) => {
                plain(code::JOINT_COMPRESSION_ABORTED, msg.clone())
            }
            VssError::Overloaded(msg) => plain(code::OVERLOADED, msg.clone()),
            VssError::Catalog(e) => plain(code::CATALOG, e.to_string()),
            VssError::Codec(e) => plain(code::CODEC, e.to_string()),
            VssError::Frame(e) => plain(code::FRAME, e.to_string()),
            VssError::Solver(e) => plain(code::SOLVER, e.to_string()),
            VssError::Vision(e) => plain(code::VISION, e.to_string()),
            // A proxied remote error keeps its original code, so chains of
            // servers stay lossless.
            VssError::Remote { code, message } => plain(*code, message.clone()),
        }
    }

    /// Reconstructs the closest local [`VssError`]. Structural variants
    /// round-trip exactly; `Catalog`/`Codec` rebuild inside the same variant
    /// around their string-carrying inner errors; the remaining nested
    /// subsystem errors (and protocol violations) surface as
    /// [`VssError::Remote`] with the original code and display text.
    pub fn into_error(self) -> VssError {
        match self.code {
            code::VIDEO_NOT_FOUND => VssError::VideoNotFound(self.message),
            code::VIDEO_EXISTS => VssError::VideoExists(self.message),
            code::OUT_OF_RANGE => {
                let (requested_start, requested_end, available_start, available_end) =
                    self.range.unwrap_or((0.0, 0.0, 0.0, 0.0));
                VssError::OutOfRange {
                    requested_start,
                    requested_end,
                    available_start,
                    available_end,
                }
            }
            code::EMPTY_WRITE => VssError::EmptyWrite,
            code::UNSATISFIABLE => VssError::Unsatisfiable(self.message),
            code::UNSUPPORTED => VssError::Unsupported(self.message),
            code::JOINT_COMPRESSION_ABORTED => VssError::JointCompressionAborted(self.message),
            code::OVERLOADED => VssError::Overloaded(self.message),
            code::CATALOG => VssError::Catalog(vss_catalog::CatalogError::Io(
                std::io::Error::other(self.message),
            )),
            code::CODEC => VssError::Codec(CodecError::Corrupt(self.message)),
            other => VssError::Remote { code: other, message: self.message },
        }
    }
}

/// A [`WriteReport`] in wire form (durations travel as integral
/// microseconds; the physical-video id is the catalog's `u64`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireWriteReport {
    /// Identifier of the physical video written.
    pub physical_id: u64,
    /// GOPs written.
    pub gops_written: u64,
    /// Frames written.
    pub frames_written: u64,
    /// Bytes written to disk.
    pub bytes_written: u64,
    /// Per-GOP deferred-compression levels, in write order.
    pub deferred_levels: Vec<u8>,
    /// Server-side wall-clock time in microseconds.
    pub elapsed_micros: u64,
}

impl WireWriteReport {
    /// Captures a server-side report for the wire.
    pub fn from_report(report: &WriteReport) -> Self {
        Self {
            physical_id: report.physical_id,
            gops_written: report.gops_written as u64,
            frames_written: report.frames_written as u64,
            bytes_written: report.bytes_written,
            deferred_levels: report.deferred_levels.clone(),
            elapsed_micros: report.elapsed.as_micros().min(u64::MAX as u128) as u64,
        }
    }

    /// Rebuilds the client-side [`WriteReport`].
    pub fn into_report(self) -> WriteReport {
        WriteReport {
            physical_id: self.physical_id,
            gops_written: self.gops_written as usize,
            frames_written: self.frames_written as usize,
            bytes_written: self.bytes_written,
            deferred_levels: self.deferred_levels,
            elapsed: std::time::Duration::from_micros(self.elapsed_micros),
        }
    }
}

/// Every message of the protocol. Kinds `0x01..` travel client → server,
/// `0x81..` server → client; see the [crate docs](crate) for the flows.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Opens a connection: magic + version. First message on every
    /// connection.
    Hello {
        /// Must be [`PROTOCOL_MAGIC`].
        magic: u32,
        /// Newest version the client speaks; the server refuses anything
        /// below [`PROTOCOL_VERSION`] with a typed protocol error.
        version: u16,
    },
    /// Creates a logical video.
    Create {
        /// Logical video name.
        name: String,
        /// Optional explicit storage budget.
        budget: Option<StorageBudget>,
    },
    /// Deletes a logical video.
    Delete {
        /// Logical video name.
        name: String,
    },
    /// Requests storage accounting for a logical video.
    Metadata {
        /// Logical video name.
        name: String,
    },
    /// Opens a GOP-at-a-time streaming read.
    OpenReadStream {
        /// The read request, verbatim.
        request: ReadRequest,
    },
    /// Opens an incremental write (the server replies
    /// [`Message::WriteReady`] with its GOP size).
    WriteBegin {
        /// The write request, verbatim.
        request: WriteRequest,
        /// Frame rate of the pushed frames.
        frame_rate: f64,
    },
    /// Opens an append to a video's original representation (the server
    /// acknowledges with [`Message::Ok`], then buffers chunks until
    /// [`Message::WriteFinish`]).
    AppendBegin {
        /// Logical video name.
        name: String,
        /// Frame rate of the pushed frames.
        frame_rate: f64,
    },
    /// One slab of frames of an in-progress write or append.
    WriteChunk {
        /// The frames, in push order.
        frames: Vec<Frame>,
    },
    /// Completes an in-progress write or append; the server replies
    /// [`Message::WriteReport`].
    WriteFinish,
    /// Abandons an in-progress write or append: the server discards
    /// unpersisted data (for a sink, only fully persisted GOPs remain).
    WriteAbort,
    /// Opens a live tailing subscription. The server acknowledges with
    /// [`Message::Ok`] and then streams
    /// [`Message::SubChunk`]/[`Message::SubGap`] events until the video is
    /// deleted ([`Message::SubEnd`]) or the client resets the stream.
    Subscribe {
        /// Logical video name (need not exist yet — the subscription waits).
        name: String,
        /// Where the subscription starts.
        from: SubscribeFrom,
    },
    /// Handshake acknowledgement: the protocol version and the admitted
    /// session's server-unique id.
    HelloAck {
        /// Always [`PROTOCOL_VERSION`]; a client refuses anything else.
        version: u16,
        /// Server-side session id.
        session: u64,
    },
    /// Generic success acknowledgement (create, delete, append-begin).
    Ok,
    /// A typed error. Terminates the enclosing operation; the connection
    /// stays usable unless the error was a protocol violation.
    Error(WireError),
    /// Reply to [`Message::Metadata`].
    MetadataReply(VideoMetadata),
    /// First reply to [`Message::OpenReadStream`]: announces the stream.
    StreamBegin {
        /// Frame rate of the drained output.
        frame_rate: f64,
        /// Whether chunks carry encoded GOPs.
        compressed: bool,
    },
    /// One fragment of one streamed chunk. Fragments of a chunk share its
    /// frame rate; the fragment with `last = true` carries the chunk's
    /// encoded GOP and stats delta and completes it.
    StreamChunk {
        /// Frame rate of the chunk's frames.
        frame_rate: f64,
        /// True on the final fragment of the chunk.
        last: bool,
        /// This fragment's frames.
        frames: Vec<Frame>,
        /// The chunk's encoded output GOP (final fragment only, compressed
        /// streams only).
        encoded_gop: Option<EncodedGop>,
        /// The chunk's stats delta (final fragment only).
        delta: ChunkStats,
    },
    /// The stream completed successfully.
    StreamEnd,
    /// Reply to [`Message::WriteBegin`]: the write is admitted and the
    /// client should chunk its pushes on this GOP boundary.
    WriteReady {
        /// The server's flush boundary in frames.
        gop_size: u64,
    },
    /// Reply to [`Message::WriteFinish`].
    WriteReport(WireWriteReport),
    /// One subscribed GOP, exactly as persisted (already encoded — no
    /// re-encode on the fan-out path).
    SubChunk {
        /// The GOP's position in the video's original representation.
        seq: u64,
        /// Start timestamp (seconds).
        start_time: f64,
        /// End timestamp (seconds, exclusive).
        end_time: f64,
        /// Frame rate of the GOP.
        frame_rate: f64,
        /// Number of frames in the GOP.
        frame_count: u64,
        /// The persisted container bytes.
        gop: EncodedGop,
    },
    /// Sequence numbers `from_seq..to_seq` are no longer available (trimmed
    /// by retention before this subscriber could read them).
    SubGap {
        /// First missing sequence number.
        from_seq: u64,
        /// One past the last missing sequence number.
        to_seq: u64,
    },
    /// The subscribed video was deleted; no further events follow.
    SubEnd,
    /// One multiplexed frame (both directions): `inner` belongs
    /// to the stream `stream_id`. A stream is opened by the first client
    /// frame carrying its id (an [`Message::OpenReadStream`],
    /// [`Message::WriteBegin`], [`Message::AppendBegin`] or
    /// [`Message::Subscribe`]); every later frame of the operation rides the
    /// same id. Mux frames never nest.
    Mux {
        /// Stream this frame belongs to (`1..=`[`MAX_STREAM_ID`]).
        stream_id: u32,
        /// The operation message.
        inner: Box<Message>,
    },
    /// A cumulative credit grant (both directions): the sender
    /// allows `frames` more *data* frames — [`Message::StreamChunk`],
    /// [`Message::SubChunk`] and [`Message::SubGap`] toward a client,
    /// [`Message::WriteChunk`] toward a server — on stream `stream_id`.
    /// Control and terminal frames never consume credit.
    MuxCredit {
        /// Stream the grant applies to.
        stream_id: u32,
        /// Additional data frames allowed (`1..=`[`MAX_CREDIT_FRAMES`]).
        frames: u32,
    },
    /// Tears down one stream without touching the connection (both
    /// directions). A client reset cancels the server-side operation
    /// (an unfinished ingest aborts — only fully persisted GOPs remain); a
    /// server reset carries the typed error that ended the stream. Resetting
    /// an unknown stream is answered (or ignored) per stream — never by
    /// closing the connection.
    MuxReset {
        /// Stream being torn down.
        stream_id: u32,
        /// Why the stream ended (absent on a plain cancellation).
        error: Option<WireError>,
    },
    /// Requests one admin table; the server replies
    /// [`Message::AdminTable`].
    AdminRequest {
        /// Which table — an [`admin_topic`] selector.
        topic: u8,
        /// Topic-specific argument (0 when unused).
        arg: u64,
    },
    /// Requests one page of the server's telemetry registry; the server
    /// replies [`Message::StatsPage`]. Pages walk the
    /// registry flattened as counters, then gauges, then histograms, each
    /// in sorted series order.
    StatsPageRequest {
        /// Flattened index of the first series wanted.
        start: u32,
        /// Maximum series in the reply (`1..=`[`MAX_METRICS`]).
        max: u32,
    },
    /// Requests the registry as Prometheus-style text; the server replies
    /// [`Message::MetricsText`].
    MetricsTextRequest,
    /// Reply to [`Message::AdminRequest`]: one pre-rendered table.
    AdminTable(AdminTable),
    /// Reply to [`Message::StatsPageRequest`]: one page of the registry.
    StatsPage {
        /// Total series in the flattened registry at snapshot time.
        total: u32,
        /// Flattened index of this page's first series.
        start: u32,
        /// The page: every section ≤ [`MAX_METRICS`] by construction.
        snapshot: TelemetrySnapshot,
    },
    /// Reply to [`Message::MetricsTextRequest`]: sorted text exposition
    /// (truncated at a line boundary to fit [`MAX_STRING_BYTES`] if the
    /// registry is enormous).
    MetricsText {
        /// The exposition text.
        text: String,
    },
}

impl Message {
    /// The message's kind name — safe for error text (never drags payload
    /// bytes, e.g. pixel buffers, into a string).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "Hello",
            Message::Create { .. } => "Create",
            Message::Delete { .. } => "Delete",
            Message::Metadata { .. } => "Metadata",
            Message::OpenReadStream { .. } => "OpenReadStream",
            Message::WriteBegin { .. } => "WriteBegin",
            Message::AppendBegin { .. } => "AppendBegin",
            Message::WriteChunk { .. } => "WriteChunk",
            Message::WriteFinish => "WriteFinish",
            Message::WriteAbort => "WriteAbort",
            Message::Subscribe { .. } => "Subscribe",
            Message::HelloAck { .. } => "HelloAck",
            Message::Ok => "Ok",
            Message::Error(_) => "Error",
            Message::MetadataReply(_) => "MetadataReply",
            Message::StreamBegin { .. } => "StreamBegin",
            Message::StreamChunk { .. } => "StreamChunk",
            Message::StreamEnd => "StreamEnd",
            Message::WriteReady { .. } => "WriteReady",
            Message::WriteReport(_) => "WriteReport",
            Message::SubChunk { .. } => "SubChunk",
            Message::SubGap { .. } => "SubGap",
            Message::SubEnd => "SubEnd",
            Message::Mux { .. } => "Mux",
            Message::MuxCredit { .. } => "MuxCredit",
            Message::MuxReset { .. } => "MuxReset",
            Message::AdminRequest { .. } => "AdminRequest",
            Message::StatsPageRequest { .. } => "StatsPageRequest",
            Message::MetricsTextRequest => "MetricsTextRequest",
            Message::AdminTable(_) => "AdminTable",
            Message::StatsPage { .. } => "StatsPage",
            Message::MetricsText { .. } => "MetricsText",
        }
    }
}

const KIND_HELLO: u8 = 0x01;
const KIND_CREATE: u8 = 0x02;
const KIND_DELETE: u8 = 0x03;
const KIND_METADATA: u8 = 0x04;
const KIND_OPEN_READ_STREAM: u8 = 0x05;
const KIND_WRITE_BEGIN: u8 = 0x06;
const KIND_APPEND_BEGIN: u8 = 0x07;
const KIND_WRITE_CHUNK: u8 = 0x08;
const KIND_WRITE_FINISH: u8 = 0x09;
const KIND_WRITE_ABORT: u8 = 0x0a;
// 0x0b is reserved (see the module docs).
const KIND_SUBSCRIBE: u8 = 0x0c;
const KIND_HELLO_ACK: u8 = 0x81;
const KIND_OK: u8 = 0x82;
const KIND_ERROR: u8 = 0x83;
const KIND_METADATA_REPLY: u8 = 0x84;
const KIND_STREAM_BEGIN: u8 = 0x85;
const KIND_STREAM_CHUNK: u8 = 0x86;
const KIND_STREAM_END: u8 = 0x87;
const KIND_WRITE_READY: u8 = 0x88;
const KIND_WRITE_REPORT: u8 = 0x89;
// 0x8a is reserved.
const KIND_SUB_CHUNK: u8 = 0x8b;
const KIND_SUB_GAP: u8 = 0x8c;
const KIND_SUB_END: u8 = 0x8d;
// Mux frames travel both directions, so their kinds live in the gap between
// the client (0x01..) and envelope-marker (0x7e; 0x7f reserved) namespaces.
const KIND_MUX_RESET: u8 = 0x7b;
const KIND_MUX_CREDIT: u8 = 0x7c;
const KIND_MUX: u8 = 0x7d;
const KIND_ADMIN_REQUEST: u8 = 0x0d;
const KIND_STATS_PAGE_REQUEST: u8 = 0x0e;
const KIND_METRICS_TEXT_REQUEST: u8 = 0x0f;
const KIND_ADMIN_TABLE: u8 = 0x8e;
const KIND_STATS_PAGE: u8 = 0x8f;
const KIND_METRICS_TEXT: u8 = 0x90;

/// `SubscribeFrom` tag bytes.
const SUB_FROM_START: u8 = 0x00;
const SUB_FROM_SEQ: u8 = 0x01;
const SUB_FROM_LIVE: u8 = 0x02;

// ---------------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

fn put_opt<T>(out: &mut Vec<u8>, value: &Option<T>, mut put: impl FnMut(&mut Vec<u8>, &T)) {
    match value {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put(out, v);
        }
    }
}

// ---------------------------------------------------------------------------
// Primitive readers — every read checks availability first; no read panics
// or allocates from unvalidated lengths.
// ---------------------------------------------------------------------------

/// Cursor over one received payload.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

type DecodeResult<T> = Result<T, String>;

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or("length overflow")?;
        let slice = self.data.get(self.pos..end).ok_or("truncated message")?;
        self.pos = end;
        Ok(slice)
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn get_u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn get_u16(&mut self) -> DecodeResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn get_u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn get_u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn get_f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    fn get_bool(&mut self) -> DecodeResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("invalid bool byte {other}")),
        }
    }

    fn get_str(&mut self) -> DecodeResult<String> {
        let len = self.get_u32()? as usize;
        if len > MAX_STRING_BYTES {
            return Err(format!("string of {len} bytes exceeds the {MAX_STRING_BYTES} cap"));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8 string".into())
    }

    fn get_bytes(&mut self) -> DecodeResult<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    fn get_opt<T>(
        &mut self,
        mut get: impl FnMut(&mut Self) -> DecodeResult<T>,
    ) -> DecodeResult<Option<T>> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(get(self)?)),
            other => Err(format!("invalid option tag {other}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Composite codecs
// ---------------------------------------------------------------------------

/// Reads and validates a multiplexed stream id — the first field of every mux
/// frame, checked before anything after it is decoded.
fn get_stream_id(cursor: &mut Cursor<'_>) -> DecodeResult<u32> {
    let id = cursor.get_u32()?;
    if id == 0 || id > MAX_STREAM_ID {
        return Err(format!("stream id {id} outside 1..={MAX_STREAM_ID}"));
    }
    Ok(id)
}

fn put_codec(out: &mut Vec<u8>, codec: Codec) {
    put_str(out, &codec.name());
}

fn get_codec(cursor: &mut Cursor<'_>) -> DecodeResult<Codec> {
    let name = cursor.get_str()?;
    Codec::parse(&name).ok_or_else(|| format!("unknown codec '{name}'"))
}

fn put_frame(out: &mut Vec<u8>, frame: &Frame) {
    put_u32(out, frame.width());
    put_u32(out, frame.height());
    put_str(out, frame.format().name());
    put_bytes(out, frame.data());
}

fn get_frame(cursor: &mut Cursor<'_>) -> DecodeResult<Frame> {
    let width = cursor.get_u32()?;
    let height = cursor.get_u32()?;
    if width > MAX_DIMENSION || height > MAX_DIMENSION {
        return Err(format!("implausible frame dimensions {width}x{height}"));
    }
    let format_name = cursor.get_str()?;
    let format = PixelFormat::parse(&format_name)
        .ok_or_else(|| format!("unknown pixel format '{format_name}'"))?;
    let data = cursor.get_bytes()?;
    Frame::from_data(width, height, format, data.to_vec())
        .map_err(|e| format!("invalid frame: {e}"))
}

fn put_frames(out: &mut Vec<u8>, frames: &[Frame]) {
    put_u32(out, frames.len() as u32);
    for frame in frames {
        put_frame(out, frame);
    }
}

fn get_frames(cursor: &mut Cursor<'_>) -> DecodeResult<Vec<Frame>> {
    let count = cursor.get_u32()? as usize;
    if count > MAX_FRAMES_PER_CHUNK {
        return Err(format!("chunk of {count} frames exceeds the {MAX_FRAMES_PER_CHUNK} cap"));
    }
    // Pre-allocation bounded by what the payload can actually hold, not by
    // the claimed count (the `decode_residuals` discipline).
    let mut frames = Vec::with_capacity(count.min(cursor.remaining() / 9 + 1));
    for _ in 0..count {
        frames.push(get_frame(cursor)?);
    }
    Ok(frames)
}

fn put_budget(out: &mut Vec<u8>, budget: &StorageBudget) {
    match budget {
        StorageBudget::MultipleOfOriginal(multiple) => {
            out.push(1);
            put_f64(out, *multiple);
        }
        StorageBudget::Bytes(bytes) => {
            out.push(2);
            put_u64(out, *bytes);
        }
        StorageBudget::Unlimited => out.push(3),
    }
}

fn get_budget(cursor: &mut Cursor<'_>) -> DecodeResult<StorageBudget> {
    match cursor.get_u8()? {
        1 => Ok(StorageBudget::MultipleOfOriginal(cursor.get_f64()?)),
        2 => Ok(StorageBudget::Bytes(cursor.get_u64()?)),
        3 => Ok(StorageBudget::Unlimited),
        other => Err(format!("invalid budget tag {other}")),
    }
}

fn put_read_request(out: &mut Vec<u8>, request: &ReadRequest) {
    put_str(out, &request.name);
    put_f64(out, request.temporal.start);
    put_f64(out, request.temporal.end);
    put_opt(out, &request.temporal.frame_rate, |o, v| put_f64(o, *v));
    put_opt(out, &request.spatial.resolution, |o, r| {
        put_u32(o, r.width);
        put_u32(o, r.height);
    });
    put_opt(out, &request.spatial.region, |o, r| {
        put_u32(o, r.x0);
        put_u32(o, r.y0);
        put_u32(o, r.x1);
        put_u32(o, r.y1);
    });
    put_codec(out, request.physical.codec);
    put_opt(out, &request.physical.quality_threshold, |o, q| put_f64(o, q.0));
    put_opt(out, &request.physical.encoder_quality, |o, q| o.push(*q));
    put_bool(out, request.cacheable);
    out.push(match request.planner {
        PlannerKind::Optimal => 0,
        PlannerKind::Greedy => 1,
    });
}

fn get_read_request(cursor: &mut Cursor<'_>) -> DecodeResult<ReadRequest> {
    let name = cursor.get_str()?;
    let start = cursor.get_f64()?;
    let end = cursor.get_f64()?;
    let frame_rate = cursor.get_opt(|c| c.get_f64())?;
    let resolution = cursor.get_opt(|c| {
        let width = c.get_u32()?;
        let height = c.get_u32()?;
        Ok(Resolution::new(width, height))
    })?;
    let region = cursor.get_opt(|c| {
        let (x0, y0, x1, y1) = (c.get_u32()?, c.get_u32()?, c.get_u32()?, c.get_u32()?);
        RegionOfInterest::new(x0, y0, x1, y1).map_err(|e| format!("invalid region: {e}"))
    })?;
    let codec = get_codec(cursor)?;
    let quality_threshold = cursor.get_opt(|c| c.get_f64().map(vss_frame::PsnrDb))?;
    let encoder_quality = cursor.get_opt(|c| c.get_u8())?;
    let cacheable = cursor.get_bool()?;
    let planner = match cursor.get_u8()? {
        0 => PlannerKind::Optimal,
        1 => PlannerKind::Greedy,
        other => return Err(format!("invalid planner tag {other}")),
    };
    let mut request = ReadRequest::new(name, start, end, codec);
    request.temporal.frame_rate = frame_rate;
    request.spatial.resolution = resolution;
    request.spatial.region = region;
    request.physical.quality_threshold = quality_threshold;
    request.physical.encoder_quality = encoder_quality;
    request.cacheable = cacheable;
    request.planner = planner;
    Ok(request)
}

fn put_write_request(out: &mut Vec<u8>, request: &WriteRequest) {
    put_str(out, &request.name);
    put_codec(out, request.codec);
    put_opt(out, &request.encoder_quality, |o, q| o.push(*q));
    put_f64(out, request.start_time);
}

fn get_write_request(cursor: &mut Cursor<'_>) -> DecodeResult<WriteRequest> {
    let name = cursor.get_str()?;
    let codec = get_codec(cursor)?;
    let encoder_quality = cursor.get_opt(|c| c.get_u8())?;
    let start_time = cursor.get_f64()?;
    let mut request = WriteRequest::new(name, codec);
    request.encoder_quality = encoder_quality;
    request.start_time = start_time;
    Ok(request)
}

fn put_wire_error(out: &mut Vec<u8>, error: &WireError) {
    put_u16(out, error.code);
    put_str(out, &error.message);
    put_opt(out, &error.range, |o, (a, b, c, d)| {
        put_f64(o, *a);
        put_f64(o, *b);
        put_f64(o, *c);
        put_f64(o, *d);
    });
}

fn get_wire_error(cursor: &mut Cursor<'_>) -> DecodeResult<WireError> {
    let code = cursor.get_u16()?;
    let message = cursor.get_str()?;
    let range =
        cursor.get_opt(|c| Ok((c.get_f64()?, c.get_f64()?, c.get_f64()?, c.get_f64()?)))?;
    Ok(WireError { code, message, range })
}

fn put_metadata(out: &mut Vec<u8>, metadata: &VideoMetadata) {
    put_u64(out, metadata.bytes_used);
    put_opt(out, &metadata.budget_bytes, |o, b| put_u64(o, *b));
    put_opt(out, &metadata.time_range, |o, (s, e)| {
        put_f64(o, *s);
        put_f64(o, *e);
    });
}

fn get_metadata(cursor: &mut Cursor<'_>) -> DecodeResult<VideoMetadata> {
    let bytes_used = cursor.get_u64()?;
    let budget_bytes = cursor.get_opt(|c| c.get_u64())?;
    let time_range = cursor.get_opt(|c| Ok((c.get_f64()?, c.get_f64()?)))?;
    Ok(VideoMetadata { bytes_used, budget_bytes, time_range })
}

fn put_delta(out: &mut Vec<u8>, delta: &ChunkStats) {
    put_u64(out, delta.gops_read as u64);
    put_u64(out, delta.frames_decoded as u64);
    put_u64(out, delta.bytes_read);
}

fn get_delta(cursor: &mut Cursor<'_>) -> DecodeResult<ChunkStats> {
    Ok(ChunkStats {
        gops_read: cursor.get_u64()? as usize,
        frames_decoded: cursor.get_u64()? as usize,
        bytes_read: cursor.get_u64()?,
    })
}

fn put_report(out: &mut Vec<u8>, report: &WireWriteReport) {
    put_u64(out, report.physical_id);
    put_u64(out, report.gops_written);
    put_u64(out, report.frames_written);
    put_u64(out, report.bytes_written);
    put_bytes(out, &report.deferred_levels);
    put_u64(out, report.elapsed_micros);
}

fn get_report(cursor: &mut Cursor<'_>) -> DecodeResult<WireWriteReport> {
    Ok(WireWriteReport {
        physical_id: cursor.get_u64()?,
        gops_written: cursor.get_u64()?,
        frames_written: cursor.get_u64()?,
        bytes_written: cursor.get_u64()?,
        deferred_levels: cursor.get_bytes()?.to_vec(),
        elapsed_micros: cursor.get_u64()?,
    })
}

fn put_snapshot(out: &mut Vec<u8>, snapshot: &TelemetrySnapshot) {
    put_u32(out, snapshot.counters.len() as u32);
    for (name, value) in &snapshot.counters {
        put_str(out, name);
        put_u64(out, *value);
    }
    put_u32(out, snapshot.gauges.len() as u32);
    for (name, value) in &snapshot.gauges {
        put_str(out, name);
        // i64 travels as its two's-complement bit pattern.
        put_u64(out, *value as u64);
    }
    put_u32(out, snapshot.histograms.len() as u32);
    for (name, h) in &snapshot.histograms {
        put_str(out, name);
        put_u64(out, h.count);
        put_u64(out, h.sum);
        put_u64(out, h.max);
        put_u64(out, h.p50);
        put_u64(out, h.p90);
        put_u64(out, h.p99);
    }
}

fn put_admin_table(out: &mut Vec<u8>, table: &AdminTable) {
    put_str(out, &table.title);
    put_u32(out, table.columns.len() as u32);
    for column in &table.columns {
        put_str(out, column);
    }
    put_u32(out, table.rows.len() as u32);
    for row in &table.rows {
        for cell in row {
            put_str(out, cell);
        }
    }
}

fn get_admin_table(cursor: &mut Cursor<'_>) -> DecodeResult<AdminTable> {
    let title = cursor.get_str()?;
    let column_count = cursor.get_u32()? as usize;
    if column_count == 0 || column_count > MAX_ADMIN_COLUMNS {
        return Err(format!(
            "admin table of {column_count} columns outside 1..={MAX_ADMIN_COLUMNS}"
        ));
    }
    let mut columns = Vec::with_capacity(column_count);
    for _ in 0..column_count {
        columns.push(cursor.get_str()?);
    }
    let row_count = cursor.get_u32()? as usize;
    if row_count > MAX_ADMIN_ROWS {
        return Err(format!("admin table of {row_count} rows exceeds the {MAX_ADMIN_ROWS} cap"));
    }
    let mut rows = Vec::with_capacity(row_count.min(256));
    for _ in 0..row_count {
        let mut row = Vec::with_capacity(column_count);
        for _ in 0..column_count {
            row.push(cursor.get_str()?);
        }
        rows.push(row);
    }
    Ok(AdminTable { title, columns, rows })
}

/// Reads one snapshot-section length, refusing implausible counts before any
/// allocation.
fn get_metric_count(cursor: &mut Cursor<'_>) -> DecodeResult<usize> {
    let count = cursor.get_u32()? as usize;
    if count > MAX_METRICS {
        return Err(format!("snapshot section of {count} metrics exceeds the {MAX_METRICS} cap"));
    }
    Ok(count)
}

fn get_snapshot(cursor: &mut Cursor<'_>) -> DecodeResult<TelemetrySnapshot> {
    let mut snapshot = TelemetrySnapshot::default();
    for _ in 0..get_metric_count(cursor)? {
        snapshot.counters.push((cursor.get_str()?, cursor.get_u64()?));
    }
    for _ in 0..get_metric_count(cursor)? {
        snapshot.gauges.push((cursor.get_str()?, cursor.get_u64()? as i64));
    }
    for _ in 0..get_metric_count(cursor)? {
        let name = cursor.get_str()?;
        let summary = HistogramSummary {
            count: cursor.get_u64()?,
            sum: cursor.get_u64()?,
            max: cursor.get_u64()?,
            p50: cursor.get_u64()?,
            p90: cursor.get_u64()?,
            p99: cursor.get_u64()?,
        };
        snapshot.histograms.push((name, summary));
    }
    Ok(snapshot)
}

// ---------------------------------------------------------------------------
// Message encode / decode
// ---------------------------------------------------------------------------

/// Encodes one message to its payload bytes (kind byte included, envelope
/// length prefix excluded).
pub fn encode_message(message: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    match message {
        Message::Hello { magic, version } => {
            out.push(KIND_HELLO);
            put_u32(&mut out, *magic);
            put_u16(&mut out, *version);
        }
        Message::Create { name, budget } => {
            out.push(KIND_CREATE);
            put_str(&mut out, name);
            put_opt(&mut out, budget, put_budget);
        }
        Message::Delete { name } => {
            out.push(KIND_DELETE);
            put_str(&mut out, name);
        }
        Message::Metadata { name } => {
            out.push(KIND_METADATA);
            put_str(&mut out, name);
        }
        Message::OpenReadStream { request } => {
            out.push(KIND_OPEN_READ_STREAM);
            put_read_request(&mut out, request);
        }
        Message::WriteBegin { request, frame_rate } => {
            out.push(KIND_WRITE_BEGIN);
            put_write_request(&mut out, request);
            put_f64(&mut out, *frame_rate);
        }
        Message::AppendBegin { name, frame_rate } => {
            out.push(KIND_APPEND_BEGIN);
            put_str(&mut out, name);
            put_f64(&mut out, *frame_rate);
        }
        Message::WriteChunk { frames } => {
            out.push(KIND_WRITE_CHUNK);
            put_frames(&mut out, frames);
        }
        Message::WriteFinish => out.push(KIND_WRITE_FINISH),
        Message::WriteAbort => out.push(KIND_WRITE_ABORT),
        Message::Subscribe { name, from } => {
            out.push(KIND_SUBSCRIBE);
            put_str(&mut out, name);
            match from {
                SubscribeFrom::Start => out.push(SUB_FROM_START),
                SubscribeFrom::Seq(seq) => {
                    out.push(SUB_FROM_SEQ);
                    put_u64(&mut out, *seq);
                }
                SubscribeFrom::Live => out.push(SUB_FROM_LIVE),
            }
        }
        Message::HelloAck { version, session } => {
            out.push(KIND_HELLO_ACK);
            put_u16(&mut out, *version);
            put_u64(&mut out, *session);
        }
        Message::Ok => out.push(KIND_OK),
        Message::Error(error) => {
            out.push(KIND_ERROR);
            put_wire_error(&mut out, error);
        }
        Message::MetadataReply(metadata) => {
            out.push(KIND_METADATA_REPLY);
            put_metadata(&mut out, metadata);
        }
        Message::StreamBegin { frame_rate, compressed } => {
            out.push(KIND_STREAM_BEGIN);
            put_f64(&mut out, *frame_rate);
            put_bool(&mut out, *compressed);
        }
        Message::StreamChunk { frame_rate, last, frames, encoded_gop, delta } => {
            out.push(KIND_STREAM_CHUNK);
            put_f64(&mut out, *frame_rate);
            put_bool(&mut out, *last);
            put_frames(&mut out, frames);
            put_opt(&mut out, encoded_gop, |o, g| put_bytes(o, &g.to_bytes()));
            put_delta(&mut out, delta);
        }
        Message::StreamEnd => out.push(KIND_STREAM_END),
        Message::WriteReady { gop_size } => {
            out.push(KIND_WRITE_READY);
            put_u64(&mut out, *gop_size);
        }
        Message::WriteReport(report) => {
            out.push(KIND_WRITE_REPORT);
            put_report(&mut out, report);
        }
        Message::SubChunk { seq, start_time, end_time, frame_rate, frame_count, gop } => {
            out.push(KIND_SUB_CHUNK);
            put_u64(&mut out, *seq);
            put_f64(&mut out, *start_time);
            put_f64(&mut out, *end_time);
            put_f64(&mut out, *frame_rate);
            put_u64(&mut out, *frame_count);
            put_bytes(&mut out, &gop.to_bytes());
        }
        Message::SubGap { from_seq, to_seq } => {
            out.push(KIND_SUB_GAP);
            put_u64(&mut out, *from_seq);
            put_u64(&mut out, *to_seq);
        }
        Message::SubEnd => out.push(KIND_SUB_END),
        Message::Mux { stream_id, inner } => {
            out.push(KIND_MUX);
            put_u32(&mut out, *stream_id);
            out.extend_from_slice(&encode_message(inner));
        }
        Message::MuxCredit { stream_id, frames } => {
            out.push(KIND_MUX_CREDIT);
            put_u32(&mut out, *stream_id);
            put_u32(&mut out, *frames);
        }
        Message::MuxReset { stream_id, error } => {
            out.push(KIND_MUX_RESET);
            put_u32(&mut out, *stream_id);
            put_opt(&mut out, error, put_wire_error);
        }
        Message::AdminRequest { topic, arg } => {
            out.push(KIND_ADMIN_REQUEST);
            out.push(*topic);
            put_u64(&mut out, *arg);
        }
        Message::StatsPageRequest { start, max } => {
            out.push(KIND_STATS_PAGE_REQUEST);
            put_u32(&mut out, *start);
            put_u32(&mut out, *max);
        }
        Message::MetricsTextRequest => out.push(KIND_METRICS_TEXT_REQUEST),
        Message::AdminTable(table) => {
            out.push(KIND_ADMIN_TABLE);
            put_admin_table(&mut out, table);
        }
        Message::StatsPage { total, start, snapshot } => {
            out.push(KIND_STATS_PAGE);
            put_u32(&mut out, *total);
            put_u32(&mut out, *start);
            put_snapshot(&mut out, snapshot);
        }
        Message::MetricsText { text } => {
            out.push(KIND_METRICS_TEXT);
            put_str(&mut out, text);
        }
    }
    out
}

/// Encodes `message` wrapped in a [`Message::Mux`] frame for `stream_id`
/// without boxing it first (the multiplexed send path's equivalent of
/// [`encode_message`]).
pub fn encode_mux(stream_id: u32, message: &Message) -> Vec<u8> {
    let body = encode_message(message);
    let mut out = Vec::with_capacity(5 + body.len());
    out.push(KIND_MUX);
    put_u32(&mut out, stream_id);
    out.extend_from_slice(&body);
    out
}

/// Decodes one message from its payload bytes. Total: malformed input —
/// truncations, bit flips, unknown kinds, trailing garbage — produces an
/// error, never a panic or an unbounded allocation.
pub fn decode_message(payload: &[u8]) -> DecodeResult<Message> {
    let mut cursor = Cursor::new(payload);
    let kind = cursor.get_u8()?;
    let message = match kind {
        KIND_HELLO => {
            Message::Hello { magic: cursor.get_u32()?, version: cursor.get_u16()? }
        }
        KIND_CREATE => Message::Create {
            name: cursor.get_str()?,
            budget: cursor.get_opt(get_budget)?,
        },
        KIND_DELETE => Message::Delete { name: cursor.get_str()? },
        KIND_METADATA => Message::Metadata { name: cursor.get_str()? },
        KIND_OPEN_READ_STREAM => {
            Message::OpenReadStream { request: get_read_request(&mut cursor)? }
        }
        KIND_WRITE_BEGIN => Message::WriteBegin {
            request: get_write_request(&mut cursor)?,
            frame_rate: cursor.get_f64()?,
        },
        KIND_APPEND_BEGIN => Message::AppendBegin {
            name: cursor.get_str()?,
            frame_rate: cursor.get_f64()?,
        },
        KIND_WRITE_CHUNK => Message::WriteChunk { frames: get_frames(&mut cursor)? },
        KIND_WRITE_FINISH => Message::WriteFinish,
        KIND_WRITE_ABORT => Message::WriteAbort,
        KIND_SUBSCRIBE => {
            let name = cursor.get_str()?;
            let from = match cursor.get_u8()? {
                SUB_FROM_START => SubscribeFrom::Start,
                SUB_FROM_SEQ => SubscribeFrom::Seq(cursor.get_u64()?),
                SUB_FROM_LIVE => SubscribeFrom::Live,
                other => return Err(format!("unknown subscribe-from tag 0x{other:02x}")),
            };
            Message::Subscribe { name, from }
        }
        KIND_HELLO_ACK => Message::HelloAck {
            version: cursor.get_u16()?,
            session: cursor.get_u64()?,
        },
        KIND_OK => Message::Ok,
        KIND_ERROR => Message::Error(get_wire_error(&mut cursor)?),
        KIND_METADATA_REPLY => Message::MetadataReply(get_metadata(&mut cursor)?),
        KIND_STREAM_BEGIN => Message::StreamBegin {
            frame_rate: cursor.get_f64()?,
            compressed: cursor.get_bool()?,
        },
        KIND_STREAM_CHUNK => {
            let frame_rate = cursor.get_f64()?;
            let last = cursor.get_bool()?;
            let frames = get_frames(&mut cursor)?;
            let encoded_gop = cursor.get_opt(|c| {
                let bytes = c.get_bytes()?;
                EncodedGop::from_bytes(bytes).map_err(|e| format!("invalid GOP: {e}"))
            })?;
            let delta = get_delta(&mut cursor)?;
            Message::StreamChunk { frame_rate, last, frames, encoded_gop, delta }
        }
        KIND_STREAM_END => Message::StreamEnd,
        KIND_WRITE_READY => Message::WriteReady { gop_size: cursor.get_u64()? },
        KIND_WRITE_REPORT => Message::WriteReport(get_report(&mut cursor)?),
        KIND_SUB_CHUNK => {
            let seq = cursor.get_u64()?;
            let start_time = cursor.get_f64()?;
            let end_time = cursor.get_f64()?;
            let frame_rate = cursor.get_f64()?;
            let frame_count = cursor.get_u64()?;
            let gop = EncodedGop::from_bytes(cursor.get_bytes()?)
                .map_err(|e| format!("invalid GOP: {e}"))?;
            Message::SubChunk { seq, start_time, end_time, frame_rate, frame_count, gop }
        }
        KIND_SUB_GAP => {
            Message::SubGap { from_seq: cursor.get_u64()?, to_seq: cursor.get_u64()? }
        }
        KIND_SUB_END => Message::SubEnd,
        // Every mux decoder validates the stream id (and any credit window)
        // *before* touching the rest of the payload — the decode-before-alloc
        // discipline — so a corrupt frame is refused before the inner
        // message's length fields can steer an allocation.
        KIND_MUX => {
            let stream_id = get_stream_id(&mut cursor)?;
            let inner = decode_message(cursor.take(cursor.remaining())?)?;
            if matches!(
                inner,
                Message::Mux { .. } | Message::MuxCredit { .. } | Message::MuxReset { .. }
            ) {
                return Err(format!("mux frames never nest ({})", inner.kind_name()));
            }
            Message::Mux { stream_id, inner: Box::new(inner) }
        }
        KIND_MUX_CREDIT => {
            let stream_id = get_stream_id(&mut cursor)?;
            let frames = cursor.get_u32()?;
            if frames == 0 || frames > MAX_CREDIT_FRAMES {
                return Err(format!(
                    "credit grant of {frames} frames outside 1..={MAX_CREDIT_FRAMES}"
                ));
            }
            Message::MuxCredit { stream_id, frames }
        }
        KIND_MUX_RESET => {
            let stream_id = get_stream_id(&mut cursor)?;
            Message::MuxReset { stream_id, error: cursor.get_opt(get_wire_error)? }
        }
        KIND_ADMIN_REQUEST => {
            // Any topic byte decodes; the server answers unknown topics with
            // a typed Unsupported error so the control connection survives.
            Message::AdminRequest { topic: cursor.get_u8()?, arg: cursor.get_u64()? }
        }
        KIND_STATS_PAGE_REQUEST => {
            let start = cursor.get_u32()?;
            let max = cursor.get_u32()?;
            if max == 0 || max as usize > MAX_METRICS {
                return Err(format!("stats page size {max} outside 1..={MAX_METRICS}"));
            }
            Message::StatsPageRequest { start, max }
        }
        KIND_METRICS_TEXT_REQUEST => Message::MetricsTextRequest,
        KIND_ADMIN_TABLE => Message::AdminTable(get_admin_table(&mut cursor)?),
        KIND_STATS_PAGE => {
            let total = cursor.get_u32()?;
            let start = cursor.get_u32()?;
            Message::StatsPage { total, start, snapshot: get_snapshot(&mut cursor)? }
        }
        KIND_METRICS_TEXT => Message::MetricsText { text: cursor.get_str()? },
        other => return Err(format!("unknown message kind 0x{other:02x}")),
    };
    if cursor.remaining() != 0 {
        return Err(format!("{} trailing byte(s) after message", cursor.remaining()));
    }
    Ok(message)
}

// ---------------------------------------------------------------------------
// Socket framing
// ---------------------------------------------------------------------------

/// Wraps a transport failure as the catalog I/O error every local store
/// already produces for disk failures (one mapping, shared crate-wide).
pub(crate) fn io_error(error: std::io::Error) -> VssError {
    VssError::Catalog(vss_catalog::CatalogError::Io(error))
}

/// A local protocol-violation error (the typed counterpart of
/// [`WireError::protocol`] on the wire).
pub(crate) fn protocol_error(message: impl Into<String>) -> VssError {
    VssError::Remote { code: code::PROTOCOL, message: message.into() }
}

/// Sender-side check for name-bearing operations: a name over
/// [`MAX_STRING_BYTES`] would be rejected by the peer's decoder (killing the
/// connection), so refuse it locally with a typed error before any bytes
/// move.
pub(crate) fn check_name(name: &str) -> Result<(), VssError> {
    if name.len() > MAX_STRING_BYTES {
        return Err(protocol_error(format!(
            "video name of {} bytes exceeds the {MAX_STRING_BYTES} wire cap",
            name.len()
        )));
    }
    Ok(())
}

/// Writes one already-encoded payload as a length-prefixed envelope.
/// Refuses (rather than sends) a payload over [`MAX_MESSAGE_BYTES`] — the
/// sender-side half of the allocation cap.
fn write_payload(writer: &mut impl Write, payload: &[u8]) -> Result<(), VssError> {
    if payload.len() > MAX_MESSAGE_BYTES {
        return Err(protocol_error(format!(
            "outgoing message of {} bytes exceeds the {} cap",
            payload.len(),
            MAX_MESSAGE_BYTES
        )));
    }
    writer.write_all(&(payload.len() as u32).to_le_bytes()).map_err(io_error)?;
    writer.write_all(payload).map_err(io_error)
}

/// Writes one message as a length-prefixed envelope. Refuses (rather than
/// sends) a payload over [`MAX_MESSAGE_BYTES`] — the sender-side half of
/// the allocation cap.
pub fn write_message(writer: &mut impl Write, message: &Message) -> Result<(), VssError> {
    write_payload(writer, &encode_message(message))
}

/// One decoded payload: the message plus the trace context its
/// [`ENVELOPE_TRACED`] envelope carried, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Request id from the traced envelope (absent on plain payloads).
    pub request_id: Option<u64>,
    /// Parent span id from the traced envelope: the sender's innermost open
    /// span when the request was encoded. Absent on plain payloads (and
    /// when the traced envelope carried 0).
    pub parent_span_id: Option<u64>,
    /// The message itself.
    pub message: Message,
}

/// Encodes one message wrapped in the traced envelope, carrying both the
/// request id and the sender's parent span id (`None` encodes as 0).
pub fn encode_traced(request_id: u64, parent_span_id: Option<u64>, message: &Message) -> Vec<u8> {
    let body = encode_message(message);
    let mut out = Vec::with_capacity(17 + body.len());
    out.push(ENVELOPE_TRACED);
    put_u64(&mut out, request_id);
    put_u64(&mut out, parent_span_id.unwrap_or(0));
    out.extend_from_slice(&body);
    out
}

/// Decodes one payload that may or may not carry the traced envelope.
/// Total, like [`decode_message`].
pub fn decode_envelope(payload: &[u8]) -> DecodeResult<Envelope> {
    match payload.first() {
        Some(&ENVELOPE_TRACED) => {
            if payload.len() < 17 {
                return Err("truncated traced envelope".into());
            }
            let request_id = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
            let parent = u64::from_le_bytes(payload[9..17].try_into().expect("8 bytes"));
            Ok(Envelope {
                request_id: Some(request_id),
                parent_span_id: (parent != 0).then_some(parent),
                message: decode_message(&payload[17..])?,
            })
        }
        _ => Ok(Envelope {
            request_id: None,
            parent_span_id: None,
            message: decode_message(payload)?,
        }),
    }
}

/// Writes one message wrapped in the traced envelope (see
/// [`encode_traced`]).
pub fn write_traced_message(
    writer: &mut impl Write,
    request_id: u64,
    parent_span_id: Option<u64>,
    message: &Message,
) -> Result<(), VssError> {
    write_payload(writer, &encode_traced(request_id, parent_span_id, message))
}

/// Slices one page out of a registry snapshot for [`Message::StatsPage`]:
/// the registry flattened as counters, then gauges, then histograms (each
/// already in sorted series order), with `start..start + max` selected.
/// Returns `(total, page)`; the page's sections stay under [`MAX_METRICS`]
/// because `max` is capped by the request decoder.
pub fn snapshot_page(snapshot: &TelemetrySnapshot, start: u32, max: u32) -> (u32, TelemetrySnapshot) {
    let counters = snapshot.counters.len();
    let gauges = snapshot.gauges.len();
    let histograms = snapshot.histograms.len();
    let total = counters + gauges + histograms;
    let start = (start as usize).min(total);
    let end = start.saturating_add(max as usize).min(total);
    fn slice<T: Clone>(items: &[T], offset: usize, start: usize, end: usize) -> Vec<T> {
        let lo = start.saturating_sub(offset).min(items.len());
        let hi = end.saturating_sub(offset).min(items.len());
        items[lo..hi].to_vec()
    }
    let page = TelemetrySnapshot {
        counters: slice(&snapshot.counters, 0, start, end),
        gauges: slice(&snapshot.gauges, counters, start, end),
        histograms: slice(&snapshot.histograms, counters + gauges, start, end),
    };
    (total as u32, page)
}

/// Reads one length-prefixed payload and decodes it as an [`Envelope`]
/// (traced or plain). Servers read requests through this so a client's
/// trace context is surfaced; [`read_message`] is the plain equivalent for
/// reply streams, which are never wrapped.
pub fn read_envelope(reader: &mut impl Read) -> Result<Envelope, VssError> {
    let payload = read_payload(reader)?;
    decode_envelope(&payload).map_err(protocol_error)
}

/// Writes one message wrapped in a [`Message::Mux`] frame for `stream_id`
/// (see [`encode_mux`]).
pub fn write_mux_message(
    writer: &mut impl Write,
    stream_id: u32,
    message: &Message,
) -> Result<(), VssError> {
    write_payload(writer, &encode_mux(stream_id, message))
}

/// Writes a mux-wrapped [`Message::WriteChunk`] serialized straight from
/// borrowed frames — the ingest hot path writes pixel buffers into the
/// payload instead of cloning them into an owned message first.
pub fn write_mux_chunk_message(
    writer: &mut impl Write,
    stream_id: u32,
    frames: &[Frame],
) -> Result<(), VssError> {
    let bytes: usize = frames.iter().map(|f| f.byte_len() + 32).sum();
    let mut payload = Vec::with_capacity(5 + 1 + 4 + bytes);
    payload.push(KIND_MUX);
    put_u32(&mut payload, stream_id);
    payload.push(KIND_WRITE_CHUNK);
    put_frames(&mut payload, frames);
    write_payload(writer, &payload)
}

/// The one fragmentation rule both directions of the protocol share: splits
/// a run of frames into slabs bounded by [`MAX_FRAMES_PER_CHUNK`] frames and
/// [`FRAGMENT_BYTES`] pixel bytes, returning the **end index** of each slab
/// (the final entry is `frames.len()`; an empty input yields one empty
/// slab). Splits happen only between frames — see the crate docs for the
/// resulting single-frame size limit.
pub fn fragment_boundaries(frames: &[Frame]) -> Vec<usize> {
    let mut boundaries = Vec::new();
    let mut start = 0usize;
    let mut slab_bytes = 0usize;
    for (index, frame) in frames.iter().enumerate() {
        if index > start
            && (index - start >= MAX_FRAMES_PER_CHUNK
                || slab_bytes + frame.byte_len() > FRAGMENT_BYTES)
        {
            boundaries.push(index);
            start = index;
            slab_bytes = 0;
        }
        slab_bytes += frame.byte_len();
    }
    boundaries.push(frames.len());
    boundaries
}

/// Reads one length-prefixed payload. The length is validated against
/// [`MAX_MESSAGE_BYTES`] **before** the payload buffer is allocated, so an
/// adversarial or corrupt length can never cause an outsized allocation.
fn read_payload(reader: &mut impl Read) -> Result<Vec<u8>, VssError> {
    let mut header = [0u8; 4];
    reader.read_exact(&mut header).map_err(io_error)?;
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 || len > MAX_MESSAGE_BYTES {
        return Err(protocol_error(format!(
            "incoming message length {len} outside 1..={MAX_MESSAGE_BYTES}"
        )));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload).map_err(io_error)?;
    Ok(payload)
}

/// Reads one length-prefixed message. The length is validated against
/// [`MAX_MESSAGE_BYTES`] before the payload buffer is allocated. Rejects
/// traced envelopes — replies are never wrapped; use [`read_envelope`] on
/// the request path.
pub fn read_message(reader: &mut impl Read) -> Result<Message, VssError> {
    decode_message(&read_payload(reader)?).map_err(protocol_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vss_frame::pattern;

    #[test]
    fn admin_messages_round_trip() {
        let table = AdminTable {
            title: "sessions".into(),
            columns: vec!["conn".into(), "peer".into(), "session".into()],
            rows: vec![
                vec!["1".into(), "127.0.0.1:9".into(), "3".into()],
                vec!["2".into(), "127.0.0.1:10".into(), "4".into()],
            ],
        };
        let messages = vec![
            Message::AdminRequest { topic: admin_topic::SESSIONS, arg: 0 },
            Message::AdminRequest { topic: admin_topic::SPANS, arg: 42 },
            Message::StatsPageRequest { start: 128, max: 64 },
            Message::MetricsTextRequest,
            Message::AdminTable(table.clone()),
            Message::StatsPage { total: 7000, start: 4096, snapshot: TelemetrySnapshot::default() },
            Message::MetricsText { text: "vss_net_conn_accepted 3\n".into() },
        ];
        for message in messages {
            let decoded = decode_message(&encode_message(&message)).expect("decodes");
            assert_eq!(format!("{decoded:?}"), format!("{message:?}"));
        }
        let rendered = table.to_text();
        assert!(rendered.contains("# sessions"), "{rendered}");
        assert!(rendered.contains("127.0.0.1:10"), "{rendered}");
    }

    #[test]
    fn admin_decoders_refuse_invalid_shapes() {
        // Unknown topics decode — the server refuses them with a typed
        // error instead of the decoder killing the connection.
        let mut probe = vec![KIND_ADMIN_REQUEST, 9];
        probe.extend_from_slice(&7u64.to_le_bytes());
        match decode_message(&probe).expect("unknown topic decodes") {
            Message::AdminRequest { topic: 9, arg: 7 } => {}
            other => panic!("unexpected decode: {other:?}"),
        }
        // Zero and oversized page requests.
        for max in [0u32, MAX_METRICS as u32 + 1] {
            let mut bad = vec![KIND_STATS_PAGE_REQUEST];
            bad.extend_from_slice(&0u32.to_le_bytes());
            bad.extend_from_slice(&max.to_le_bytes());
            assert!(decode_message(&bad).is_err(), "page size {max} accepted");
        }
        // Zero-column table.
        let mut bad = vec![KIND_ADMIN_TABLE];
        put_str(&mut bad, "t");
        bad.extend_from_slice(&0u32.to_le_bytes());
        bad.extend_from_slice(&0u32.to_le_bytes());
        assert!(decode_message(&bad).is_err());
    }

    #[test]
    fn traced_envelopes_round_trip_and_plain_payloads_pass_through() {
        let message = Message::Metadata { name: "cam-7".into() };
        let traced = encode_traced(11, Some(77), &message);
        assert_eq!(traced[0], ENVELOPE_TRACED);
        assert_eq!(
            decode_envelope(&traced).unwrap(),
            Envelope { request_id: Some(11), parent_span_id: Some(77), message: message.clone() }
        );
        // 0 encodes "no parent".
        let traced = encode_traced(11, None, &message);
        assert_eq!(decode_envelope(&traced).expect("traced decodes").parent_span_id, None);
        assert_eq!(
            decode_envelope(&encode_message(&message)).unwrap(),
            Envelope { request_id: None, parent_span_id: None, message: message.clone() }
        );
        // The plain decoder (reply path) rejects the marker as an unknown
        // kind instead of misreading the payload.
        assert!(decode_message(&traced).is_err());
        // Strict prefixes of a traced envelope always error.
        for len in 0..traced.len() {
            assert!(decode_envelope(&traced[..len]).is_err(), "prefix of {len} bytes decoded");
        }
    }

    #[test]
    fn retired_kind_bytes_decode_to_the_unknown_kind_error() {
        // 0x7f was the request-id-only envelope, 0x0b / 0x8a the one-frame
        // stats pair. All stay reserved: a well-formed retired payload is
        // refused exactly like any other unknown kind, on both decoders.
        let mut old_tagged = vec![0x7f];
        put_u64(&mut old_tagged, 99);
        old_tagged.extend_from_slice(&encode_message(&Message::Ok));
        let mut old_snapshot = vec![0x8a];
        put_snapshot(&mut old_snapshot, &TelemetrySnapshot::default());
        for payload in [old_tagged, vec![0x0b], old_snapshot] {
            let error = decode_message(&payload).expect_err("retired kind decoded");
            assert!(error.contains("unknown message kind"), "{error}");
            assert!(decode_envelope(&payload).is_err());
        }
    }

    #[test]
    fn snapshot_pages_cover_the_flattened_registry_exactly() {
        let snapshot = TelemetrySnapshot {
            counters: (0..5).map(|i| (format!("c{i}"), i as u64)).collect(),
            gauges: (0..3).map(|i| (format!("g{i}"), i as i64)).collect(),
            histograms: (0..4)
                .map(|i| (format!("h{i}"), HistogramSummary { count: i, ..Default::default() }))
                .collect(),
        };
        // Walk with a page size that straddles every section boundary.
        let mut merged = TelemetrySnapshot::default();
        let mut start = 0u32;
        loop {
            let (total, page) = snapshot_page(&snapshot, start, 2);
            assert_eq!(total, 12);
            let got = page.counters.len() + page.gauges.len() + page.histograms.len();
            merged.counters.extend(page.counters);
            merged.gauges.extend(page.gauges);
            merged.histograms.extend(page.histograms);
            start += got as u32;
            if start >= total {
                break;
            }
            assert!(got > 0, "no progress at {start}");
        }
        assert_eq!(merged, snapshot);
        // Out-of-range start yields an empty page, not a panic.
        let (_, empty) = snapshot_page(&snapshot, 999, 2);
        assert_eq!(empty, TelemetrySnapshot::default());
    }

    #[test]
    fn every_vss_error_variant_round_trips_or_lands_in_a_typed_remote() {
        let errors = vec![
            VssError::VideoNotFound("cam".into()),
            VssError::VideoExists("cam".into()),
            VssError::OutOfRange {
                requested_start: 0.0,
                requested_end: 9.0,
                available_start: 0.0,
                available_end: 3.0,
            },
            VssError::EmptyWrite,
            VssError::Unsatisfiable("no plan".into()),
            VssError::Unsupported("cannot rescale".into()),
            VssError::JointCompressionAborted("too few matches".into()),
            VssError::Overloaded("8 active".into()),
        ];
        for error in errors {
            let text = error.to_string();
            let decoded = WireError::from_error(&error).into_error();
            // Structural variants reconstruct to an identically displayed
            // error (OutOfRange re-renders from its bounds).
            assert_eq!(decoded.to_string(), text, "round trip changed {error:?}");
            assert_eq!(
                std::mem::discriminant(&decoded),
                std::mem::discriminant(&WireError::from_error(&decoded).into_error())
            );
        }
        // Nested subsystem errors keep their top-level type where a string
        // carrier exists, and their display text always survives.
        let catalog = VssError::Catalog(vss_catalog::CatalogError::Corrupt("bad json".into()));
        assert!(matches!(
            WireError::from_error(&catalog).into_error(),
            VssError::Catalog(_)
        ));
        let codec = VssError::Codec(CodecError::EmptyInput);
        assert!(matches!(WireError::from_error(&codec).into_error(), VssError::Codec(_)));
        let frame = VssError::Frame(vss_frame::FrameError::ShapeMismatch);
        let decoded = WireError::from_error(&frame).into_error();
        assert!(matches!(decoded, VssError::Remote { code: code::FRAME, .. }));
        assert!(
            decoded.to_string().contains("differ in resolution or format"),
            "display text crosses the wire"
        );
        // Proxying a Remote error preserves the original code.
        let rewired = WireError::from_error(&decoded);
        assert_eq!(rewired.code, code::FRAME);
    }

    #[test]
    fn request_messages_round_trip() {
        let request = ReadRequest::new("cam-1", 0.5, 2.5, Codec::Hevc)
            .resolution(Resolution::new(64, 48))
            .crop(RegionOfInterest::new(2, 2, 30, 30).unwrap())
            .fps(15.0)
            .quality_threshold(vss_frame::PsnrDb(32.0))
            .encoder_quality(70)
            .planner(PlannerKind::Greedy)
            .uncacheable();
        let message = Message::OpenReadStream { request };
        assert_eq!(decode_message(&encode_message(&message)).unwrap(), message);

        let write = Message::WriteBegin {
            request: WriteRequest::new("cam-1", Codec::H264)
                .with_encoder_quality(90)
                .starting_at(4.0),
            frame_rate: 30.0,
        };
        assert_eq!(decode_message(&encode_message(&write)).unwrap(), write);
    }

    #[test]
    fn chunk_messages_round_trip_with_frames_and_gops() {
        let frames: Vec<Frame> =
            (0..3).map(|i| pattern::gradient(32, 24, PixelFormat::Yuv420, i)).collect();
        let gop = vss_codec::codec_instance(Codec::H264)
            .encode_slice(&frames, 30.0, &vss_codec::EncoderConfig::default(), 1)
            .unwrap();
        let message = Message::StreamChunk {
            frame_rate: 30.0,
            last: true,
            frames,
            encoded_gop: Some(gop),
            delta: ChunkStats { gops_read: 1, frames_decoded: 3, bytes_read: 512 },
        };
        assert_eq!(decode_message(&encode_message(&message)).unwrap(), message);
    }

    #[test]
    fn fragment_boundaries_respect_both_caps_and_cover_everything() {
        assert_eq!(fragment_boundaries(&[]), vec![0]);
        let small: Vec<Frame> =
            (0..3).map(|i| pattern::gradient(16, 12, PixelFormat::Rgb8, i)).collect();
        assert_eq!(fragment_boundaries(&small), vec![3]);
        // Count cap: one more frame than the per-message limit splits once.
        let many: Vec<Frame> = (0..MAX_FRAMES_PER_CHUNK + 1)
            .map(|_| pattern::gradient(2, 2, PixelFormat::Rgb8, 0))
            .collect();
        assert_eq!(fragment_boundaries(&many), vec![MAX_FRAMES_PER_CHUNK, many.len()]);
        // Byte cap: frames of ~1.5 MiB split before 8 MiB accumulates.
        let big: Vec<Frame> =
            (0..8).map(|_| pattern::gradient(832, 624, PixelFormat::Rgb8, 0)).collect();
        let boundaries = fragment_boundaries(&big);
        assert!(boundaries.len() > 1, "byte cap must split: {boundaries:?}");
        assert_eq!(*boundaries.last().unwrap(), 8);
        let mut start = 0usize;
        for end in boundaries {
            let bytes: usize = big[start..end].iter().map(Frame::byte_len).sum();
            assert!(bytes <= FRAGMENT_BYTES);
            start = end;
        }
    }

    #[test]
    fn oversized_lengths_are_refused_before_allocation() {
        // A header claiming a multi-gigabyte payload must error out of
        // read_message without trying to allocate it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        let error = read_message(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(error, VssError::Remote { code: code::PROTOCOL, .. }));

        // Same discipline inside a payload: a chunk claiming 2^32-ish frames
        // errors instead of allocating.
        let mut payload = vec![KIND_WRITE_CHUNK];
        put_u32(&mut payload, u32::MAX);
        assert!(decode_message(&payload).is_err());
    }

    #[test]
    fn stats_pages_round_trip_with_every_section() {
        let snapshot = TelemetrySnapshot {
            counters: vec![("engine.read.ops".into(), 42), ("wal.append.ops".into(), 7)],
            gauges: vec![("server.admission.queue_depth".into(), -3)],
            histograms: vec![(
                "engine.read.latency_ns".into(),
                HistogramSummary { count: 10, sum: 1000, max: 400, p50: 90, p90: 300, p99: 400 },
            )],
        };
        let message = Message::StatsPage { total: 4, start: 0, snapshot };
        assert_eq!(decode_message(&encode_message(&message)).unwrap(), message);
    }

    #[test]
    fn snapshot_metric_count_is_capped_before_allocation() {
        let mut payload = vec![KIND_STATS_PAGE];
        put_u32(&mut payload, 1);
        put_u32(&mut payload, 0);
        put_u32(&mut payload, u32::MAX);
        assert!(decode_message(&payload).is_err());
    }

    #[test]
    fn subscription_messages_round_trip() {
        for from in [SubscribeFrom::Start, SubscribeFrom::Seq(42), SubscribeFrom::Live] {
            let message = Message::Subscribe { name: "cam-3".into(), from };
            assert_eq!(decode_message(&encode_message(&message)).unwrap(), message);
        }
        let frames: Vec<Frame> =
            (0..3).map(|i| pattern::gradient(32, 24, PixelFormat::Yuv420, i)).collect();
        let gop = vss_codec::codec_instance(Codec::H264)
            .encode_slice(&frames, 30.0, &vss_codec::EncoderConfig::default(), 1)
            .unwrap();
        let chunk = Message::SubChunk {
            seq: 7,
            start_time: 7.0,
            end_time: 8.0,
            frame_rate: 30.0,
            frame_count: 3,
            gop,
        };
        assert_eq!(decode_message(&encode_message(&chunk)).unwrap(), chunk);
        let gap = Message::SubGap { from_seq: 0, to_seq: 7 };
        assert_eq!(decode_message(&encode_message(&gap)).unwrap(), gap);
        assert_eq!(decode_message(&encode_message(&Message::SubEnd)).unwrap(), Message::SubEnd);
        // Strict prefixes of a subscription chunk always error.
        let payload = encode_message(&chunk);
        for len in 0..payload.len() {
            assert!(decode_message(&payload[..len]).is_err(), "prefix of {len} bytes decoded");
        }
        // An unknown subscribe-from tag is refused, not misread.
        let mut bad = vec![KIND_SUBSCRIBE];
        put_str(&mut bad, "cam");
        bad.push(0x7f);
        assert!(decode_message(&bad).is_err());
    }

    #[test]
    fn mux_frames_round_trip_and_never_nest() {
        let inner = Message::OpenReadStream {
            request: ReadRequest::new("cam", 0.0, 2.0, Codec::H264),
        };
        let message = Message::Mux { stream_id: 7, inner: Box::new(inner.clone()) };
        assert_eq!(decode_message(&encode_message(&message)).unwrap(), message);
        // The unboxed encoder produces identical bytes.
        assert_eq!(encode_mux(7, &inner), encode_message(&message));
        // Strict prefixes of a mux frame always error.
        let payload = encode_message(&message);
        for len in 0..payload.len() {
            assert!(decode_message(&payload[..len]).is_err(), "prefix of {len} bytes decoded");
        }
        // Nesting any mux-family frame inside a mux frame is refused.
        for nested in [
            Message::Mux { stream_id: 1, inner: Box::new(Message::Ok) },
            Message::MuxCredit { stream_id: 1, frames: 1 },
            Message::MuxReset { stream_id: 1, error: None },
        ] {
            let bytes = encode_mux(2, &nested);
            assert!(decode_message(&bytes).is_err(), "nested {} decoded", nested.kind_name());
        }
        let credit = Message::MuxCredit { stream_id: 3, frames: 16 };
        assert_eq!(decode_message(&encode_message(&credit)).unwrap(), credit);
        for error in [None, Some(WireError::protocol("gone"))] {
            let reset = Message::MuxReset { stream_id: 9, error };
            assert_eq!(decode_message(&encode_message(&reset)).unwrap(), reset);
        }
        // A mux-wrapped chunk serialized from borrowed frames matches the
        // owned encoding byte for byte.
        let frames: Vec<Frame> =
            (0..2).map(|i| pattern::gradient(16, 12, PixelFormat::Rgb8, i)).collect();
        let mut direct = Vec::new();
        write_mux_chunk_message(&mut direct, 5, &frames).unwrap();
        let mut owned = Vec::new();
        write_mux_message(&mut owned, 5, &Message::WriteChunk { frames }).unwrap();
        assert_eq!(direct, owned);
    }

    #[test]
    fn mux_fields_are_validated_before_the_inner_payload_is_touched() {
        // Stream id 0 and over-cap ids are refused for every mux kind.
        for kind in [KIND_MUX, KIND_MUX_CREDIT, KIND_MUX_RESET] {
            for id in [0u32, MAX_STREAM_ID + 1, u32::MAX] {
                let mut payload = vec![kind];
                put_u32(&mut payload, id);
                // A huge claimed length follows; the id check must fire first.
                put_u32(&mut payload, u32::MAX);
                assert!(decode_message(&payload).is_err(), "kind 0x{kind:02x} id {id} decoded");
            }
        }
        // A zero or over-cap credit grant is refused.
        for frames in [0u32, MAX_CREDIT_FRAMES + 1] {
            let mut payload = vec![KIND_MUX_CREDIT];
            put_u32(&mut payload, 4);
            put_u32(&mut payload, frames);
            assert!(decode_message(&payload).is_err());
        }
        // A mux frame whose inner chunk claims 2^32-ish frames errors out of
        // the inner decoder instead of allocating (the decode-before-alloc
        // discipline holds through the wrapper).
        let mut payload = vec![KIND_MUX];
        put_u32(&mut payload, 1);
        payload.push(KIND_WRITE_CHUNK);
        put_u32(&mut payload, u32::MAX);
        assert!(decode_message(&payload).is_err());
        // An empty inner payload is a truncated frame, not a panic.
        let mut empty = vec![KIND_MUX];
        put_u32(&mut empty, 1);
        assert!(decode_message(&empty).is_err());
    }

    #[test]
    fn strict_prefixes_always_error() {
        let message = Message::Create {
            name: "cam".into(),
            budget: Some(StorageBudget::Bytes(1024)),
        };
        let payload = encode_message(&message);
        for len in 0..payload.len() {
            assert!(
                decode_message(&payload[..len]).is_err(),
                "a strict prefix of {len} bytes decoded successfully"
            );
        }
    }
}
