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
//! # Where a layout lives
//!
//! A message's layout is its row in the table that declares [`Message`]:
//! the kind byte, then the fields in wire order. The encoder,
//! [`decode_message`], [`Message::kind_name`] and the range checks on
//! single fields (`field: T where RANGE`, run as the field is decoded) are
//! generated from that row. Each field type implements the private `Wire`
//! trait once, both directions side by side, with its own
//! decode-before-alloc cap. Adding a message is one table row, plus one
//! `Wire` impl per field type the wire does not carry yet.
//!
//! # Admin frames
//!
//! The introspection plane is two unary request/reply pairs on the
//! ordinary envelope (over a multiplexed connection, on the control stream,
//! never a data stream). `StatsPageRequest` walks the registry flattened as
//! counters → gauges → histograms, each section in sorted series order; a
//! client fetches pages until `start + page-len == total`, so a registry of
//! any size crosses the wire without hitting the per-message
//! [`MAX_METRICS`] cap, and renders the text exposition from the result.
//! `AdminRequest` answers with one pre-rendered [`AdminTable`]; the one
//! topic served is [`admin_topic::SPANS`] (span trees).
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
//! Five first-payload bytes belonged to retired messages and stay reserved
//! — never reassigned, and refused by [`decode_message`] as unknown kinds:
//! `0x7f` (the request-id-only envelope), `0x0b` / `0x8a` (the one-frame
//! stats request and its snapshot reply) and `0x0f` / `0x90` (the text
//! exposition request and its reply). [`Message::StatsPage`] is the one
//! registry fetch.

use std::io::{Read, Write};
use vss_codec::{Codec, CodecError, EncodedGop};
use vss_core::{
    ChunkStats, PhysicalParameters, PlannerKind, ReadRequest, SpatialParameters, StorageBudget,
    TemporalRange, VideoMetadata, VssError, WriteReport, WriteRequest,
};
use vss_frame::{Frame, PixelFormat, PsnrDb, RegionOfInterest, Resolution};
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
/// Ceiling on the rows of one [`Message::AdminTable`]; a server truncates
/// rather than exceed it, ending the table with a `…` row.
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

/// Topic selectors for [`Message::AdminRequest`]. A served topic answers
/// with one [`Message::AdminTable`]; any other topic byte (the retired
/// `1`–`3` included) gets a typed `Unsupported` error.
pub mod admin_topic {
    /// Recent span trees. `arg = 0` lists the most recent traced request
    /// ids; a non-zero `arg` renders that request id's tree, one span per
    /// row, the op column indented by tree depth.
    pub const SPANS: u8 = 4;
}

/// One rendered admin table as it crosses the wire: a title, column
/// headers, and string rows (pre-rendered server-side so clients — and
/// `vss-top` — need no schema knowledge). Bounded by
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
        Self {
            code: code::PROTOCOL,
            message: message.into(),
            range: None,
        }
    }

    /// Maps a [`VssError`] onto the wire — exhaustively, with no catch-all
    /// arm, so a new error variant cannot silently degrade to a generic
    /// code.
    pub fn from_error(error: &VssError) -> Self {
        let plain = |c: u16, message: String| Self {
            code: c,
            message,
            range: None,
        };
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
                range: Some((
                    *requested_start,
                    *requested_end,
                    *available_start,
                    *available_end,
                )),
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
            other => VssError::Remote {
                code: other,
                message: self.message,
            },
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

/// Declares [`Message`] from the message table and generates everything that
/// depends on a layout from it: the `kind` byte constants, one encoder per
/// message (`encode::*`, taking the fields borrowed), [`Message::kind_name`]
/// and the `Wire` impl behind [`encode_message`] and [`decode_message`]. A
/// field written `name: T where RANGE` is refused outside `RANGE` as soon as
/// it is decoded, before any later field is read.
macro_rules! messages {
    (
        $(#[$meta:meta])*
        pub enum Message {
            $(
                $(#[$variant_meta:meta])*
                $kind:literal $name:ident
                $({
                    $($(#[$field_meta:meta])* $field:ident: $ty:ty $(where $range:expr)?),* $(,)?
                })?
                $(($value:ident: $value_ty:ty))?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum Message {
            $(
                $(#[$variant_meta])*
                #[doc = concat!("\n\nKind byte `", stringify!($kind), "`.")]
                $name $({ $($(#[$field_meta])* $field: $ty),* })? $(($value_ty))?,
            )*
        }

        /// The kind byte of every message, by variant name.
        #[allow(non_upper_case_globals)]
        mod kind {
            $(pub(super) const $name: u8 = $kind;)*
        }

        /// One encoder per message, taking its fields borrowed and in wire
        /// order, so a frame can be encoded from parts it does not own
        /// ([`encode_mux`], [`write_mux_chunk_message`]).
        #[allow(non_snake_case)]
        mod encode {
            use super::{kind, Wire};
            $(
                pub(super) fn $name(
                    out: &mut Vec<u8>,
                    $($($field: &(impl Wire + ?Sized),)*)?
                    $($value: &(impl Wire + ?Sized))?
                ) {
                    out.push(kind::$name);
                    $($($field.put(out);)*)?
                    $($value.put(out);)?
                }
            )*
        }

        impl Message {
            /// The message's kind name — safe for error text (never drags
            /// payload bytes, e.g. pixel buffers, into a string).
            pub fn kind_name(&self) -> &'static str {
                match self {
                    $(Message::$name { .. } => stringify!($name),)*
                }
            }
        }

        impl Wire for Message {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $(
                        Message::$name $({ $($field),* })? $(($value))? => {
                            encode::$name(out $($(, $field)*)? $(, $value)?)
                        }
                    )*
                }
            }

            fn get(cursor: &mut Cursor<'_>) -> DecodeResult<Self> {
                Ok(match u8::get(cursor)? {
                    $(
                        kind::$name => Message::$name
                            $({ $($field: {
                                let value = <$ty>::get(cursor)?;
                                $(if !($range).contains(&value) {
                                    let field = concat!(stringify!($name), ".", stringify!($field));
                                    return Err(format!("{field} {value} outside {:?}", $range));
                                })?
                                value
                            }),* })?
                            $((<$value_ty>::get(cursor)?))?,
                    )*
                    other => return Err(format!("unknown message kind 0x{other:02x}")),
                })
            }
        }
    };
}

messages! {
    /// Every message of the protocol. Kinds `0x01..` travel client → server,
    /// `0x81..` server → client; see the [crate docs](crate) for the flows.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Message {
        /// Opens a connection: magic + version. First message on every
        /// connection.
        0x01 Hello {
            /// Must be [`PROTOCOL_MAGIC`].
            magic: u32,
            /// Newest version the client speaks; the server refuses anything
            /// below [`PROTOCOL_VERSION`] with a typed protocol error.
            version: u16,
        },
        /// Creates a logical video.
        0x02 Create {
            /// Logical video name.
            name: String,
            /// Optional explicit storage budget.
            budget: Option<StorageBudget>,
        },
        /// Deletes a logical video.
        0x03 Delete {
            /// Logical video name.
            name: String,
        },
        /// Requests storage accounting for a logical video.
        0x04 Metadata {
            /// Logical video name.
            name: String,
        },
        /// Opens a GOP-at-a-time streaming read.
        0x05 OpenReadStream {
            /// The read request, verbatim.
            request: ReadRequest,
        },
        /// Opens an incremental write (the server replies
        /// [`Message::WriteReady`] with its GOP size).
        0x06 WriteBegin {
            /// The write request, verbatim.
            request: WriteRequest,
            /// Frame rate of the pushed frames.
            frame_rate: f64,
        },
        /// Opens an append to a video's original representation (the server
        /// acknowledges with [`Message::Ok`], then buffers chunks until
        /// [`Message::WriteFinish`]).
        0x07 AppendBegin {
            /// Logical video name.
            name: String,
            /// Frame rate of the pushed frames.
            frame_rate: f64,
        },
        /// One slab of frames of an in-progress write or append.
        0x08 WriteChunk {
            /// The frames, in push order.
            frames: Vec<Frame>,
        },
        /// Completes an in-progress write or append; the server replies
        /// [`Message::WriteReport`].
        0x09 WriteFinish,
        /// Abandons an in-progress write or append: the server discards
        /// unpersisted data (for a sink, only fully persisted GOPs remain).
        0x0a WriteAbort,
        // 0x0b is reserved (see the module docs).
        /// Opens a live tailing subscription. The server acknowledges with
        /// [`Message::Ok`] and then streams
        /// [`Message::SubChunk`]/[`Message::SubGap`] events until the video is
        /// deleted ([`Message::SubEnd`]) or the client resets the stream.
        0x0c Subscribe {
            /// Logical video name (need not exist yet — the subscription waits).
            name: String,
            /// Where the subscription starts.
            from: SubscribeFrom,
        },
        /// Handshake acknowledgement: the protocol version and the admitted
        /// session's server-unique id.
        0x81 HelloAck {
            /// Always [`PROTOCOL_VERSION`]; a client refuses anything else.
            version: u16,
            /// Server-side session id.
            session: u64,
        },
        /// Generic success acknowledgement (create, delete, append-begin).
        0x82 Ok,
        /// A typed error. Terminates the enclosing operation; the connection
        /// stays usable unless the error was a protocol violation.
        0x83 Error(error: WireError),
        /// Reply to [`Message::Metadata`].
        0x84 MetadataReply(metadata: VideoMetadata),
        /// First reply to [`Message::OpenReadStream`]: announces the stream.
        0x85 StreamBegin {
            /// Frame rate of the drained output.
            frame_rate: f64,
            /// Whether chunks carry encoded GOPs.
            compressed: bool,
        },
        /// One fragment of one streamed chunk. Fragments of a chunk share its
        /// frame rate; the fragment with `last = true` carries the chunk's
        /// encoded GOP and stats delta and completes it.
        0x86 StreamChunk {
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
        0x87 StreamEnd,
        /// Reply to [`Message::WriteBegin`]: the write is admitted and the
        /// client should chunk its pushes on this GOP boundary.
        0x88 WriteReady {
            /// The server's flush boundary in frames.
            gop_size: u64,
        },
        /// Reply to [`Message::WriteFinish`].
        0x89 WriteReport(report: WireWriteReport),
        // 0x8a is reserved.
        /// One subscribed GOP, exactly as persisted (already encoded — no
        /// re-encode on the fan-out path).
        0x8b SubChunk {
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
        /// Sequence numbers `from_seq..to_seq` are no longer stored (an
        /// evicted original page); delivery continues at `to_seq`.
        0x8c SubGap {
            /// First missing sequence number.
            from_seq: u64,
            /// One past the last missing sequence number.
            to_seq: u64,
        },
        /// The subscribed video was deleted; no further events follow.
        0x8d SubEnd,
        // Mux frames travel both directions, so their kinds live in the gap
        // between the client (0x01..) and envelope-marker (0x7e; 0x7f
        // reserved) namespaces.
        /// One multiplexed frame (both directions): `inner` belongs
        /// to the stream `stream_id`. A stream is opened by the first client
        /// frame carrying its id (an [`Message::OpenReadStream`],
        /// [`Message::WriteBegin`], [`Message::AppendBegin`] or
        /// [`Message::Subscribe`]); every later frame of the operation rides the
        /// same id. Mux frames never nest.
        0x7d Mux {
            /// Stream this frame belongs to (`1..=`[`MAX_STREAM_ID`]).
            stream_id: u32 where 1..=MAX_STREAM_ID,
            /// The operation message.
            inner: Box<Message>,
        },
        /// A cumulative credit grant (both directions): the sender
        /// allows `frames` more *data* frames — [`Message::StreamChunk`],
        /// [`Message::SubChunk`] and [`Message::SubGap`] toward a client,
        /// [`Message::WriteChunk`] toward a server — on stream `stream_id`.
        /// Control and terminal frames never consume credit.
        0x7c MuxCredit {
            /// Stream the grant applies to.
            stream_id: u32 where 1..=MAX_STREAM_ID,
            /// Additional data frames allowed (`1..=`[`MAX_CREDIT_FRAMES`]).
            frames: u32 where 1..=MAX_CREDIT_FRAMES,
        },
        /// Tears down one stream without touching the connection (both
        /// directions). A client reset cancels the server-side operation
        /// (an unfinished ingest aborts — only fully persisted GOPs remain); a
        /// server reset carries the typed error that ended the stream. Resetting
        /// an unknown stream is answered (or ignored) per stream — never by
        /// closing the connection.
        0x7b MuxReset {
            /// Stream being torn down.
            stream_id: u32 where 1..=MAX_STREAM_ID,
            /// Why the stream ended (absent on a plain cancellation).
            error: Option<WireError>,
        },
        /// Requests one admin table; the server replies
        /// [`Message::AdminTable`], or a typed `Unsupported` error for a
        /// topic it does not serve (any topic byte decodes).
        0x0d AdminRequest {
            /// Which table — an [`admin_topic`] selector.
            topic: u8,
            /// Topic-specific argument (0 when unused).
            arg: u64,
        },
        /// Requests one page of the server's telemetry registry; the server
        /// replies [`Message::StatsPage`]. Pages walk the
        /// registry flattened as counters, then gauges, then histograms, each
        /// in sorted series order.
        0x0e StatsPageRequest {
            /// Flattened index of the first series wanted.
            start: u32,
            /// Maximum series in the reply (`1..=`[`MAX_METRICS`]).
            max: u32 where 1..=MAX_METRICS as u32,
        },
        // 0x0f is reserved.
        /// Reply to [`Message::AdminRequest`]: one pre-rendered table.
        0x8e AdminTable(table: AdminTable),
        /// Reply to [`Message::StatsPageRequest`]: one page of the registry.
        0x8f StatsPage {
            /// Total series in the flattened registry at snapshot time.
            total: u32,
            /// Flattened index of this page's first series.
            start: u32,
            /// The page: every section ≤ [`MAX_METRICS`] by construction.
            snapshot: TelemetrySnapshot,
        },
        // 0x90 is reserved.
    }
}

// ---------------------------------------------------------------------------
// Field codecs: one `Wire` impl per wire type, both directions side by side.
// Every `get` checks availability before slicing and bounds every count
// before allocating; no decode panics.
// ---------------------------------------------------------------------------

type DecodeResult<T> = Result<T, String>;

/// One wire type's layout: how a value is appended to a payload, and how it
/// is read back. The unsized slice forms (`[u8]`, `[T]`) only encode — they
/// let borrowed data go on the wire without a copy.
trait Wire {
    fn put(&self, out: &mut Vec<u8>);

    fn get(cursor: &mut Cursor<'_>) -> DecodeResult<Self>
    where
        Self: Sized;
}

/// Cursor over one received payload.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

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

    /// Reads a `u32` count and refuses it above `max` before anything is
    /// allocated for it.
    fn count(&mut self, max: usize) -> DecodeResult<usize> {
        let count = u32::get(self)? as usize;
        if count > max {
            return Err(format!("count {count} exceeds the {max} cap"));
        }
        Ok(count)
    }

    /// Reads a byte string (the layout `[u8]` encodes) without copying it.
    fn bytes(&mut self) -> DecodeResult<&'a [u8]> {
        let len = u32::get(self)? as usize;
        self.take(len)
    }
}

/// Numbers travel little-endian; `f64` as its IEEE bit pattern, `i64` as
/// its two's complement.
macro_rules! wire_numbers {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn get(cursor: &mut Cursor<'_>) -> DecodeResult<Self> {
                let bytes = cursor.take(std::mem::size_of::<$int>())?;
                let bytes = bytes.try_into().expect("take returns the length asked for");
                Ok(<$int>::from_le_bytes(bytes))
            }
        }
    )*};
}

wire_numbers!(u8, u16, u32, u64, i64, f64);

/// In-memory counts travel as `u64`.
impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> DecodeResult<Self> {
        Ok(u64::get(cursor)? as usize)
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn get(cursor: &mut Cursor<'_>) -> DecodeResult<Self> {
        match u8::get(cursor)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("invalid bool byte {other}")),
        }
    }
}

/// A byte string: a `u32` length, then the bytes. Pixel buffers, GOP
/// containers, level lists and strings all travel this way; `Cursor::bytes`
/// reads it back.
impl Wire for [u8] {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self);
    }
}

impl Wire for Vec<u8> {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_slice().put(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> DecodeResult<Self> {
        Ok(cursor.bytes()?.to_vec())
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_bytes().put(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> DecodeResult<Self> {
        let len = cursor.count(MAX_STRING_BYTES)?;
        String::from_utf8(cursor.take(len)?.to_vec()).map_err(|_| "invalid UTF-8 string".into())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.put(out);
            }
        }
    }

    fn get(cursor: &mut Cursor<'_>) -> DecodeResult<Self> {
        match u8::get(cursor)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(cursor)?)),
            other => Err(format!("invalid option tag {other}")),
        }
    }
}

/// A fixed tuple travels as its fields in order, with nothing in between.
macro_rules! wire_tuples {
    ($(($($t:ident $v:ident),*))*) => {$(
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            fn put(&self, _out: &mut Vec<u8>) {
                let ($($v,)*) = self;
                $($v.put(_out);)*
            }

            fn get(_cursor: &mut Cursor<'_>) -> DecodeResult<Self> {
                Ok(($($t::get(_cursor)?,)*))
            }
        }
    )*};
}

wire_tuples!(() (A a, B b) (A a, B b, C c, D d));

/// Element types of a counted list — a `u32` count, then the elements — and
/// the cap on that count, refused before anything is allocated.
trait Element: Wire {
    const MAX: usize;
}

/// A chunk's frames.
impl Element for Frame {
    const MAX: usize = MAX_FRAMES_PER_CHUNK;
}

/// A telemetry snapshot section's `(series, value)` pairs.
impl<T: Wire> Element for (String, T) {
    const MAX: usize = MAX_METRICS;
}

impl<T: Element> Wire for [T] {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for item in self {
            item.put(out);
        }
    }
}

impl<T: Element> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_slice().put(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> DecodeResult<Self> {
        let count = cursor.count(T::MAX)?;
        // Pre-allocation bounded by what the payload can still hold, not by
        // the claimed count (the `decode_residuals` discipline).
        let mut items = Vec::with_capacity(count.min(cursor.remaining()));
        for _ in 0..count {
            items.push(T::get(cursor)?);
        }
        Ok(items)
    }
}

/// Implements [`Wire`] for structs that travel as a plain list of their
/// fields, in the order given.
macro_rules! wire_structs {
    ($($ty:ident { $($field:tt),* })*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }

            fn get(cursor: &mut Cursor<'_>) -> DecodeResult<Self> {
                Ok(Self { $($field: Wire::get(cursor)?),* })
            }
        }
    )*};
}

wire_structs! {
    ReadRequest { name, temporal, spatial, physical, cacheable, planner }
    TemporalRange { start, end, frame_rate }
    SpatialParameters { resolution, region }
    PhysicalParameters { codec, quality_threshold, encoder_quality }
    Resolution { width, height }
    PsnrDb { 0 }
    WriteRequest { name, codec, encoder_quality, start_time }
    WireError { code, message, range }
    VideoMetadata { bytes_used, budget_bytes, time_range }
    ChunkStats { gops_read, frames_decoded, bytes_read }
    WireWriteReport {
        physical_id, gops_written, frames_written, bytes_written, deferred_levels, elapsed_micros
    }
    HistogramSummary { count, sum, max, p50, p90, p99 }
    TelemetrySnapshot { counters, gauges, histograms }
}

/// A codec travels as its name.
impl Wire for Codec {
    fn put(&self, out: &mut Vec<u8>) {
        self.name().put(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> DecodeResult<Self> {
        let name = String::get(cursor)?;
        Codec::parse(&name).ok_or_else(|| format!("unknown codec '{name}'"))
    }
}

impl Wire for Frame {
    fn put(&self, out: &mut Vec<u8>) {
        (self.width(), self.height()).put(out);
        self.format().name().as_bytes().put(out);
        self.data().put(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> DecodeResult<Self> {
        let (width, height) = <(u32, u32)>::get(cursor)?;
        if width > MAX_DIMENSION || height > MAX_DIMENSION {
            return Err(format!("implausible frame dimensions {width}x{height}"));
        }
        let format_name = String::get(cursor)?;
        let format = PixelFormat::parse(&format_name)
            .ok_or_else(|| format!("unknown pixel format '{format_name}'"))?;
        Frame::from_data(width, height, format, cursor.bytes()?.to_vec())
            .map_err(|e| format!("invalid frame: {e}"))
    }
}

/// A GOP travels as its serialized container, a byte string.
impl Wire for EncodedGop {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bytes().put(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> DecodeResult<Self> {
        EncodedGop::from_bytes(cursor.bytes()?).map_err(|e| format!("invalid GOP: {e}"))
    }
}

/// Implements `Wire` for enums that travel as a tag byte, then the
/// variant's one field if it has one.
macro_rules! wire_tagged {
    ($($ty:ident { $($tag:literal $variant:ident $(($value:ident: $value_ty:ty))?),* })*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $(($value))? => {
                        out.push($tag);
                        $($value.put(out);)?
                    })*
                }
            }

            fn get(cursor: &mut Cursor<'_>) -> DecodeResult<Self> {
                Ok(match u8::get(cursor)? {
                    $($tag => $ty::$variant $((<$value_ty>::get(cursor)?))?,)*
                    other => {
                        return Err(format!(concat!("invalid ", stringify!($ty), " tag {}"), other))
                    }
                })
            }
        }
    )*};
}

wire_tagged! {
    StorageBudget { 1 MultipleOfOriginal(multiple: f64), 2 Bytes(bytes: u64), 3 Unlimited }
    SubscribeFrom { 0 Start, 1 Seq(seq: u64), 2 Live }
    PlannerKind { 0 Optimal, 1 Greedy }
}

/// A region is validated as it is decoded.
impl Wire for RegionOfInterest {
    fn put(&self, out: &mut Vec<u8>) {
        (self.x0, self.y0, self.x1, self.y1).put(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> DecodeResult<Self> {
        let (x0, y0, x1, y1) = Wire::get(cursor)?;
        RegionOfInterest::new(x0, y0, x1, y1).map_err(|e| format!("invalid region: {e}"))
    }
}

/// A table travels as its title, its columns (a `u32` count in
/// `1..=MAX_ADMIN_COLUMNS`, then the headers) and its rows (a `u32` count of
/// at most [`MAX_ADMIN_ROWS`], then every row's cells — one per column, so a
/// row carries no count of its own).
impl Wire for AdminTable {
    fn put(&self, out: &mut Vec<u8>) {
        self.title.put(out);
        (self.columns.len() as u32).put(out);
        self.columns.iter().for_each(|column| column.put(out));
        (self.rows.len() as u32).put(out);
        self.rows.iter().flatten().for_each(|cell| cell.put(out));
    }

    fn get(cursor: &mut Cursor<'_>) -> DecodeResult<Self> {
        let title = String::get(cursor)?;
        let width = u32::get(cursor)? as usize;
        if !(1..=MAX_ADMIN_COLUMNS).contains(&width) {
            return Err(format!(
                "admin table of {width} columns outside 1..={MAX_ADMIN_COLUMNS}"
            ));
        }
        let row = |cursor: &mut Cursor<'_>| -> DecodeResult<Vec<String>> {
            (0..width).map(|_| String::get(cursor)).collect()
        };
        let columns = row(cursor)?;
        let height = cursor.count(MAX_ADMIN_ROWS)?;
        let rows = (0..height)
            .map(|_| row(cursor))
            .collect::<DecodeResult<_>>()?;
        Ok(AdminTable {
            title,
            columns,
            rows,
        })
    }
}

/// A mux frame's inner message: the rest of its payload. Mux frames never
/// nest, and the inner kind byte is checked before the inner message is
/// decoded, so no payload can make the decoder recurse.
impl Wire for Box<Message> {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }

    fn get(cursor: &mut Cursor<'_>) -> DecodeResult<Self> {
        if let Some(&inner @ (kind::Mux | kind::MuxCredit | kind::MuxReset)) =
            cursor.data.get(cursor.pos)
        {
            return Err(format!("mux frames never nest (kind 0x{inner:02x})"));
        }
        Message::get(cursor).map(Box::new)
    }
}

// ---------------------------------------------------------------------------
// Message encode / decode
// ---------------------------------------------------------------------------

/// Encodes one message to its payload bytes (kind byte included, envelope
/// length prefix excluded).
pub fn encode_message(message: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    message.put(&mut out);
    out
}

/// Encodes `message` wrapped in a [`Message::Mux`] frame for `stream_id`
/// without boxing it first (the multiplexed send path's equivalent of
/// [`encode_message`]).
pub fn encode_mux(stream_id: u32, message: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    encode::Mux(&mut out, &stream_id, message);
    out
}

/// Decodes one message from its payload bytes. Total: malformed input —
/// truncations, bit flips, unknown kinds, trailing garbage — produces an
/// error, never a panic or an unbounded allocation.
pub fn decode_message(payload: &[u8]) -> DecodeResult<Message> {
    let mut cursor = Cursor::new(payload);
    let message = Message::get(&mut cursor)?;
    if cursor.remaining() != 0 {
        return Err(format!(
            "{} trailing byte(s) after message",
            cursor.remaining()
        ));
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
    VssError::Remote {
        code: code::PROTOCOL,
        message: message.into(),
    }
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
    writer
        .write_all(&(payload.len() as u32).to_le_bytes())
        .map_err(io_error)?;
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
    let mut out = vec![ENVELOPE_TRACED];
    (request_id, parent_span_id.unwrap_or(0)).put(&mut out);
    message.put(&mut out);
    out
}

/// Decodes one payload that may or may not carry the traced envelope.
/// Total, like [`decode_message`].
pub fn decode_envelope(payload: &[u8]) -> DecodeResult<Envelope> {
    let (request_id, parent, message) = match payload.split_first() {
        Some((&ENVELOPE_TRACED, traced)) => {
            let mut cursor = Cursor::new(traced);
            let (request_id, parent) = <(u64, u64)>::get(&mut cursor)?;
            (Some(request_id), parent, &traced[cursor.pos..])
        }
        _ => (None, 0, payload),
    };
    Ok(Envelope {
        request_id,
        parent_span_id: (parent != 0).then_some(parent),
        message: decode_message(message)?,
    })
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
pub fn snapshot_page(
    snapshot: &TelemetrySnapshot,
    start: u32,
    max: u32,
) -> (u32, TelemetrySnapshot) {
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
    // A mux frame's inner message is the rest of its payload: encode the
    // mux head around nothing, then the chunk after it.
    encode::Mux(&mut payload, &stream_id, &());
    encode::WriteChunk(&mut payload, frames);
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
            // A retired topic still decodes; the server refuses it typed.
            Message::AdminRequest { topic: 1, arg: 0 },
            Message::AdminRequest { topic: admin_topic::SPANS, arg: 42 },
            Message::StatsPageRequest { start: 128, max: 64 },
            Message::AdminTable(table.clone()),
            Message::StatsPage { total: 7000, start: 4096, snapshot: TelemetrySnapshot::default() },
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
        let mut probe = vec![kind::AdminRequest, 9];
        probe.extend_from_slice(&7u64.to_le_bytes());
        match decode_message(&probe).expect("unknown topic decodes") {
            Message::AdminRequest { topic: 9, arg: 7 } => {}
            other => panic!("unexpected decode: {other:?}"),
        }
        // Zero and oversized page requests.
        for max in [0u32, MAX_METRICS as u32 + 1] {
            let mut bad = Vec::new();
            encode::StatsPageRequest(&mut bad, &0u32, &max);
            assert!(decode_message(&bad).is_err(), "page size {max} accepted");
        }
        // Zero-column table.
        let mut bad = Vec::new();
        encode::AdminTable(&mut bad, &AdminTable { title: "t".into(), ..AdminTable::default() });
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
        // stats pair, 0x0f / 0x90 the text exposition pair. All stay
        // reserved: a well-formed retired payload is refused exactly like any
        // other unknown kind, on both decoders.
        let mut old_tagged = vec![0x7f];
        99u64.put(&mut old_tagged);
        old_tagged.extend_from_slice(&encode_message(&Message::Ok));
        let mut old_snapshot = vec![0x8a];
        TelemetrySnapshot::default().put(&mut old_snapshot);
        let mut old_text = vec![0x90];
        String::from("vss_net_conn_accepted 3\n").put(&mut old_text);
        for payload in [old_tagged, vec![0x0b], old_snapshot, vec![0x0f], old_text] {
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
                .encoder_quality(90)
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
        let mut payload = vec![kind::WriteChunk];
        u32::MAX.put(&mut payload);
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
        let mut payload = Vec::new();
        encode::StatsPage(&mut payload, &1u32, &0u32, &u32::MAX);
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
        let mut bad = Vec::new();
        encode::Subscribe(&mut bad, &String::from("cam"), &0x7fu8);
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
        for kind in [kind::Mux, kind::MuxCredit, kind::MuxReset] {
            for id in [0u32, MAX_STREAM_ID + 1, u32::MAX] {
                let mut payload = vec![kind];
                id.put(&mut payload);
                // A huge claimed length follows; the id check must fire first.
                u32::MAX.put(&mut payload);
                assert!(decode_message(&payload).is_err(), "kind 0x{kind:02x} id {id} decoded");
            }
        }
        // A zero or over-cap credit grant is refused.
        for frames in [0u32, MAX_CREDIT_FRAMES + 1] {
            let mut payload = Vec::new();
            encode::MuxCredit(&mut payload, &4u32, &frames);
            assert!(decode_message(&payload).is_err());
        }
        // A mux frame whose inner chunk claims 2^32-ish frames errors out of
        // the inner decoder instead of allocating (the decode-before-alloc
        // discipline holds through the wrapper).
        let mut payload = Vec::new();
        encode::Mux(&mut payload, &1u32, &());
        payload.push(kind::WriteChunk);
        u32::MAX.put(&mut payload);
        assert!(decode_message(&payload).is_err());
        // An empty inner payload is a truncated frame, not a panic.
        let mut empty = Vec::new();
        encode::Mux(&mut empty, &1u32, &());
        assert!(decode_message(&empty).is_err());
    }

    #[test]
    fn deeply_nested_mux_heads_are_refused_without_recursing() {
        // Each nested mux head is five bytes, so a 1 MiB payload could nest
        // 200 000 deep: the inner kind is refused before it is decoded.
        let mut payload = Vec::new();
        for _ in 0..200_000 {
            encode::Mux(&mut payload, &1u32, &());
        }
        encode::Ok(&mut payload);
        let error = decode_message(&payload).expect_err("nested mux frames decoded");
        assert!(error.contains("never nest"), "{error}");
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
