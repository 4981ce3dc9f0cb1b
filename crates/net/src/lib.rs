//! # vss-net
//!
//! The network layer of the VSS reproduction: a streaming wire protocol plus
//! a TCP server ([`NetServer`]) and client ([`RemoteStore`]) that turn the
//! in-process `vss-server` service into a real **multi-process** storage
//! service. The client implements the full
//! [`vss_core::VideoStorage`] contract, so the workload driver, benchmark
//! harness and streaming test matrix run unmodified against a store in
//! another process.
//!
//! ```no_run
//! use vss_core::{ReadRequest, VideoStorage, VssConfig, WriteRequest};
//! use vss_net::{NetServer, RemoteStore};
//! use vss_server::VssServer;
//! # fn frames() -> vss_frame::FrameSequence { unimplemented!() }
//!
//! let server = VssServer::open(VssConfig::new("/tmp/store")).unwrap();
//! let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();
//! let mut store = RemoteStore::connect(net.local_addr()).unwrap();
//! store.write(&WriteRequest::new("cam", vss_codec::Codec::H264), &frames()).unwrap();
//! for chunk in store
//!     .read_stream(&ReadRequest::new("cam", 0.0, 1.0, vss_codec::Codec::H264))
//!     .unwrap()
//! {
//!     let _gop = chunk.unwrap(); // GOP-at-a-time, O(GOP) memory end to end
//! }
//! net.shutdown();
//! ```
//!
//! # Protocol specification
//!
//! The protocol is a length-prefixed, versioned binary exchange over TCP.
//! All integers are little-endian. One connection carries the control plane
//! **and** any number of concurrent streaming operations, multiplexed
//! frame-by-frame.
//!
//! ## Frame grammar
//!
//! ```text
//! connection  = hello hello-ack frame*
//! envelope    = length:u32 payload            ; 1 <= length <= 64 MiB
//! payload     = kind:u8 fields                ; kinds 0x01.. client→server,
//!               | 0x7E rid:u64 parent:u64     ;       0x81.. server→client;
//!                 kind:u8 fields              ; 0x7E = traced envelope
//!                                             ;  (request id + parent span
//!                                             ;  id, 0 = none), requests only
//!
//! hello       = 0x01 magic:u32 version:u16    ; magic = "VSSN" (0x5653534E)
//! hello-ack   = 0x81 version:u16 session:u64  ; or error (e.g. OVERLOADED)
//!                                             ; version = 3 on both
//!
//! frame       = unary | mux | mux-credit | mux-reset   ; interleaved
//!
//! ;; ---- multiplexing ------------------------------------------------
//! ;; A mux frame binds one operation message to one stream. A stream is
//! ;; opened by the first client frame carrying a fresh id (its inner
//! ;; message must be an opener: read-stream, write, append or subscribe);
//! ;; every later frame of that operation rides the same id. Mux frames
//! ;; never nest. Unary operations (create/delete/metadata/admin) travel
//! ;; un-muxed on the same connection, serviced between stream frames; an
//! ;; opener sent un-muxed is answered with a typed protocol error.
//! mux         = 0x7D stream_id:u32 payload    ; 1 <= stream_id <= 2^20
//! mux-credit  = 0x7C stream_id:u32 frames:u32 ; 1 <= frames <= 2^16
//! mux-reset   = 0x7B stream_id:u32 error:opt<error-fields>
//!
//! ;; The mux payloads of one stream, both directions, spell one operation:
//! operation   = read-stream | write | append | subscribe
//! unary       = (create | delete | metadata | admin) (ok | error)
//! create      = 0x02 name:str budget:opt<budget>
//! delete      = 0x03 name:str
//! metadata    = 0x04 name:str                 ; reply 0x84 metadata-reply
//!
//! read-stream = 0x05 read-request
//!               ( error
//!               | stream-begin stream-chunk* (stream-end | error) )
//! stream-begin= 0x85 frame_rate:f64 compressed:bool
//! stream-chunk= 0x86 frame_rate:f64 last:bool frames:vec<frame>
//!                    gop:opt<bytes> delta:3*u64
//! stream-end  = 0x87
//!
//! write       = 0x06 write-request frame_rate:f64
//!               ( error
//!               | write-ready ingest )
//! append      = 0x07 name:str frame_rate:f64 ( error | ok ingest )
//! write-ready = 0x88 gop_size:u64
//! ingest      = chunk* (finish (write-report | error) | abort)
//! chunk       = 0x08 frames:vec<frame>
//! finish      = 0x09
//! abort       = 0x0A
//! write-report= 0x89 physical_id:u64 gops:u64 frames:u64 bytes:u64
//!                    deferred:bytes elapsed_us:u64
//!
//! subscribe   = 0x0C name:str from
//!               ( error
//!               | ok (sub-chunk | sub-gap)* (sub-end | error) )
//! from        = 0x00 | 0x01 seq:u64 | 0x02    ; start | seq(n) | live
//! sub-chunk   = 0x8B seq:u64 start:f64 end:f64 frame_rate:f64
//!                    frame_count:u64 gop:bytes
//! sub-gap     = 0x8C from_seq:u64 to_seq:u64
//! sub-end     = 0x8D
//!
//! ;; ---- admin plane --------------------------------------------------
//! ;; Unary introspection over the same connection. Any other topic byte
//! ;; (the retired 0x01-0x03 included) decodes fine and is answered with a
//! ;; typed UNSUPPORTED error — never by dropping the connection.
//! admin       = admin-req (admin-table | error)
//!             | stats-page-req (stats-page | error)
//! admin-req   = 0x0D topic:u8 arg:u64
//! topic       = 0x04 spans                     ; arg 0 = recent request ids,
//!                                              ;     n = one request's tree
//! admin-table = 0x8E title:str cols:vec<str> rows:vec<vec<str>>
//! stats-page-req = 0x0E start:u32 max:u32      ; 1 <= max <= 4096/section
//! stats-page  = 0x8F total:u32 start:u32 snapshot
//!
//! error       = 0x83 error-fields
//! error-fields= code:u16 message:str range:opt<4*f64>
//! frame       = width:u32 height:u32 format:str data:bytes
//! str / bytes = length:u32 raw                ; str <= 1 MiB, UTF-8
//! opt<T>      = 0x00 | 0x01 T
//! ```
//!
//! Full field-level definitions (and the caps every decoder enforces before
//! allocating — stream ids and credit windows included, the same
//! decode-before-alloc discipline as the rest of the wire) live in [`wire`],
//! one row of its message table per message.
//!
//! One known protocol limit: chunk fragmentation splits **between** frames
//! (an oversized encoded GOP rides a trailing fragment of its own), never
//! inside a frame or GOP — so a single raw frame or single encoded GOP
//! whose wire form exceeds the 64 MiB envelope (≈ uncompressed 8K RGB and
//! above) cannot cross the wire; the sender refuses the message and the
//! connection ends. Stores of such frames remain fully usable in-process;
//! intra-frame fragmentation is a ROADMAP follow-on.
//!
//! ## Credit-based flow control
//!
//! Per-connection TCP backpressure cannot pace streams independently: one
//! slow consumer would stall every stream sharing the socket. The protocol
//! therefore paces each stream by an explicit window of **data frames**:
//!
//! * Data frames are the ones that carry bulk payload: `stream-chunk`,
//!   `sub-chunk` and `sub-gap` toward a client, `chunk` (`WriteChunk`)
//!   toward a server. Every other frame — openers, acks, reports, errors,
//!   terminals, resets — is credit-exempt, so completion and errors always
//!   flow even when a window is closed.
//! * A sender may ship one data frame per credit it holds; credits arrive as
//!   cumulative `mux-credit` grants (travelling un-muxed, themselves
//!   credit-exempt) and are spent one per data frame sent. A sender out of
//!   credit parks **off the socket** (the server worker waits on its stream's
//!   window, not the writer lock), so siblings keep flowing.
//! * For reads and subscriptions the client grants a window of 4 data
//!   frames right after opening the stream and one more credit per data
//!   frame it consumes, the last one included. For writes and
//!   appends the server grants a fixed 4-frame window after `write-ready` /
//!   `ok` and one more per chunk it dequeues into the persistence path.
//! * Overrunning a window is a protocol violation: the receiver's router
//!   never blocks on a stream channel, so a frame arriving with no window
//!   open proves the peer ignored flow control — the server answers with a
//!   `mux-reset` carrying a typed error (the connection survives); the
//!   client fails the shared connection.
//! * `mux-reset` tears down exactly one stream. A client reset cancels the
//!   server-side operation (an unfinished ingest aborts — only fully
//!   persisted GOPs remain); a server reset carries the typed error that
//!   ended the stream. A reset naming an unknown or already-closed stream is
//!   answered per-stream (or ignored — resets are idempotent), **never** by
//!   closing the connection.
//! * A credit grant for a stream the receiver no longer holds is late, not
//!   wrong — the last credit of a drained stream usually arrives after the
//!   stream ended — and is ignored, never answered with a reset. A fully
//!   drained stream therefore ends without one.
//!
//! Telemetry mirrors the mechanism: `net.mux.streams_opened` /
//! `net.mux.streams_active` count streams, `net.mux.resets` counts
//! teardowns, and `net.mux.credit_stall_ns` records how long server workers
//! actually parked on closed windows.
//!
//! ## Introspection plane
//!
//! A server shows itself remotely in exactly two ways, both unary requests
//! on the same connection (see the grammar above):
//!
//! * **The telemetry registry**, fetched page by page (`stats-page-req`):
//!   every counter, gauge and histogram, each section in sorted series
//!   order. A registry of any size arrives whole, each series once; the
//!   client renders the Prometheus-style text exposition from it. The
//!   per-shard (`server.shard.*{shard=N}`), per-connection (`net.conn.*`)
//!   and per-stream-kind (`net.mux.*{kind=...}`) views are series in it.
//! * **Span trees**, via the `spans` admin topic.
//!
//! The `vss-top` binary renders both live against a running server. A
//! server keeps no per-connection or per-stream registry: peer addresses
//! and a stream's target and remaining credit are not observable remotely,
//! and a reset carries its typed error and message, nothing more.
//!
//! Tracing: a request sent under an active telemetry scope travels in a
//! `0x7E` **traced envelope** carrying `(request id, parent span id)`, so
//! the spans a server opens while serving a request attach under the
//! client's operation span. One client op therefore yields a single
//! connected span tree — client → net dispatch → per-stream worker → shard
//! lock → engine decode → WAL fsync — queryable via
//! `vss_telemetry::span_tree` in-process or the `spans` admin topic over
//! the wire.
//!
//! ## Versioning
//!
//! Exactly one protocol version (3) is spoken. The client's `Hello` carries
//! the protocol magic and that version; a `Hello` offering less is answered
//! with a typed protocol error naming the supported version and closed
//! **before** admission, and a client refuses a `HelloAck` at any other
//! version. Anything other than a valid `Hello` on a fresh connection is a
//! protocol error. Nothing after the handshake branches on a version.
//!
//! First-payload bytes of retired messages (`0x7F`, `0x0B`, `0x8A`, `0x0F`,
//! `0x90`) stay reserved: never reassigned, and refused by the ordinary
//! unknown-kind decode error. Client and server ship from the same commit,
//! so a future version **replaces** this wire in one commit — bump the
//! constant, change the grammar, delete what it obsoletes. It does not fork
//! a second layout beside the old one.
//!
//! ## Admission control
//!
//! Every connection is admitted through [`vss_server::VssServer::try_session`]
//! between `Hello` and `HelloAck`: when the server is at its
//! [`ServerConfig`](vss_server::ServerConfig) limits (max concurrent
//! sessions, max in-flight bytes) the connection is answered at once with
//! error code `OVERLOADED` (13) and closed. A shutting-down server refuses
//! new connections the same way while in-flight operations drain. Overload
//! has this one behaviour end to end: the server sheds with the typed error
//! and [`RemoteStore`] passes [`vss_core::VssError::Overloaded`] to its
//! caller. Neither side waits or retries — whether and when to dial again
//! is the caller's decision.
//!
//! The admission slot is **per connection, not per operation**: a
//! [`RemoteStore`] holds exactly one slot however many streams it runs
//! concurrently, so a client can never shed *itself* at low session limits.
//! Within an admitted connection, concurrent streams are capped (64) and an
//! opener past the cap is refused with a per-stream `OVERLOADED` reset, not
//! a connection error.
//!
//! ## Streaming and backpressure semantics
//!
//! * **Reads** — the server drains [`vss_server::Session::read_stream`]: the
//!   plan is snapshotted under the shard's *read* lock and the lock is
//!   released **before the first chunk hits the socket**; the stream's
//!   worker decodes each GOP and then sends it. One `stream-chunk` message
//!   carries (a fragment of) one GOP; fragments of oversized GOPs share its
//!   frame rate, and the `last` fragment carries the chunk's encoded GOP
//!   and stats delta. The client
//!   reassembles chunks from its per-stream **bounded channel** (fed by the
//!   demultiplexer thread; sized by the stream's credit window): a slow
//!   consumer stops granting credit, the server worker for that stream parks
//!   off the shared socket, and the in-flight bytes stay counted in the
//!   server's gauge — which feeds the admission gate. End-to-end memory stays
//!   O(GOP) per stream.
//! * **Writes** — `write-ready` announces the server's GOP size; the client
//!   pushes frames in GOP-aligned chunks and the server persists through
//!   [`vss_server::Session::write_sink`]: shard write lock per GOP, encode
//!   outside the lock, store bytes identical to a local batch write. The stream is
//!   the pipeline: the client never needs more than one GOP in hand.
//! * **Appends** — the same pipeline through
//!   [`vss_server::Session::append_sink`], onto the video's original
//!   timeline: the server holds at most one GOP of an append however long
//!   the transfer, and the stored bytes are identical to a local append of
//!   the same frames. `append` is answered with an error instead of `ok`
//!   when the video has no original or `frame_rate` is not the original's;
//!   frames of another resolution are refused with the typed frame error
//!   before any of them is persisted. An append that is aborted or reset
//!   has sink abort semantics, exactly like a write: the GOPs that filled
//!   are persisted whole, nothing partial is.
//! * **Subscriptions** — `subscribe` opens a live tailing feed: every GOP
//!   persisted to the video fans out to every subscriber **exactly as
//!   stored** — already encoded, never re-encoded. A slow client is paced
//!   by its credit window; when its hub queue overflows, the hub drops the
//!   queue and the subscription transparently re-reads the missed
//!   GOPs from disk (cursor-based catch-up that serves the stored pages),
//!   re-seaming onto the live feed without duplicating or skipping a GOP —
//!   ingest never waits on a subscriber. GOPs evicted from the original
//!   before a subscriber reaches them surface as an explicit `sub-gap`. Deleting the
//!   video ends the feed with `sub-end`; dropping the client-side
//!   [`LiveFeed`] sends a `mux-reset` for its stream.
//! * **Cancellation** — dropping a client-side stream, sink or feed sends a
//!   `mux-reset` for exactly that stream; the shared connection and every
//!   sibling stream continue untouched. The server cancels the stream's
//!   worker and aborts its operation: a read drain stops, an ingest drops
//!   its sink so **only fully persisted GOPs remain on disk**.
//!
//! ## Error mapping
//!
//! Every [`vss_core::VssError`] variant has a wire code ([`wire::code`]);
//! the encode mapping is exhaustive by construction (no catch-all arm), so
//! adding an error variant is a compile error here, not a silent downgrade.
//! Structural variants round-trip exactly; nested subsystem errors cross as
//! their display text and decode into the same top-level variant where a
//! string-carrying inner error exists (`Catalog`, `Codec`), or into the
//! typed [`vss_core::VssError::Remote`] otherwise.

#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{LiveFeed, RemoteStore};
pub use server::NetServer;
pub use vss_live::{LiveGop, SubEvent, SubscribeFrom};
