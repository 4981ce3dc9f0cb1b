//! The network client: [`RemoteStore`] speaks the full
//! [`VideoStorage`] contract against a [`NetServer`](crate::server::NetServer)
//! over TCP.
//!
//! A `RemoteStore` holds **one** multiplexed connection for everything: the
//! control plane (create / delete / metadata / stats / spans) plus any
//! number of concurrent reads, sinks, appends and subscriptions, each on its
//! own stream id. A demultiplexing reader thread routes inbound frames to
//! per-stream bounded channels; dropping a half-consumed stream sends a
//! typed `MuxReset` (the server cancels just that stream's worker) without
//! disturbing the socket the sibling streams share.
//!
//! Flow control is per stream, in credits: the client grants a window of
//! data frames (`MuxCredit`) when it opens a stream and tops it up one
//! frame at a time as the consumer drains its channel, so a slow consumer
//! parks only its own stream while siblings keep flowing — with O(GOP)
//! memory per stream at every hop.

use crate::wire::{
    fragment_boundaries, read_message, write_message, write_mux_chunk_message, write_mux_message,
    write_traced_message, AdminTable, Message, WireError, MAX_METRICS, PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Mutex;
use std::thread::JoinHandle;
use vss_core::{
    GopWriteBackend, ReadChunk, ReadRequest, ReadResult, ReadStream, StorageBudget, VideoMetadata,
    VideoStorage, VssError, WriteReport, WriteRequest, WriteSink,
};
use vss_frame::{Frame, FrameSequence};
use vss_live::{LiveGop, SubEvent, SubscribeFrom};

use crate::wire::{check_name, io_error, protocol_error};

/// Mints request ids for client-originated operations. The id rides the
/// wire in the traced envelope and shows up in span
/// records on both sides of the connection — where ids from *every* client
/// process share one registry, so the counter starts at a per-process
/// offset (pid and clock folded over the upper bits, low bits clear for
/// readability) instead of 1: two clients tracing against the same server
/// would otherwise collide on ids 1, 2, 3, ... and their span trees would
/// merge into disconnected forests.
fn next_request_id() -> u64 {
    use std::sync::OnceLock;
    static BASE: OnceLock<u64> = OnceLock::new();
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let base = *BASE.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0);
        let seed = (std::process::id() as u64) ^ (nanos << 20);
        // splitmix64 finalizer: spread pid/clock entropy over all bits.
        let mut z = seed.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        (z ^ (z >> 31)) << 20
    });
    base.wrapping_add(NEXT.fetch_add(1, Ordering::Relaxed)).max(1)
}

/// Appends one stats page's section to the merged section, keeping only
/// entries that sort after the last one kept. A series registered between
/// pages shifts every later index back, so the next page can repeat series
/// the previous one ended with; series are never removed, so anything not
/// past the last kept name is such a repeat or a newcomer that sorts
/// earlier.
fn merge_sorted<T>(merged: &mut Vec<(String, T)>, page: Vec<(String, T)>) {
    for entry in page {
        if merged.last().is_none_or(|(last, _)| *last < entry.0) {
            merged.push(entry);
        }
    }
}

// ---------------------------------------------------------------------------
// Multiplexing: one shared connection, many streams
// ---------------------------------------------------------------------------

/// Slack on top of a stream's credit window when sizing its inbound channel:
/// room for the credit-exempt control frames (open replies, terminal frames,
/// write-window grants) so the demultiplexer can always route without
/// blocking.
const MUX_CHANNEL_SLACK: usize = 8;

/// Data-frame credit window granted to each multiplexed read/subscribe
/// stream: two chunks buffered for the consumer, doubled so the server keeps
/// the next fragments in flight while the consumer works.
const STREAM_WINDOW: u32 = 4;

type FrameSender = SyncSender<Result<Message, VssError>>;

/// Routing state shared between a [`MuxConn`] and its demultiplexing reader
/// thread. The thread holds only this (never the `MuxConn`), so dropping the
/// last connection handle tears the socket and thread down deterministically.
struct MuxShared {
    /// Per-stream inbound routes.
    streams: Mutex<HashMap<u32, FrameSender>>,
    /// One-shot route for the reply to the in-flight unary exchange.
    control: Mutex<Option<FrameSender>>,
    /// First fatal connection error, kept in lossless wire form so every
    /// later caller can re-materialize the typed error.
    dead: Mutex<Option<WireError>>,
}

impl MuxShared {
    fn new() -> Self {
        Self {
            streams: Mutex::new(HashMap::new()),
            control: Mutex::new(None),
            dead: Mutex::new(None),
        }
    }

    /// The connection's fatal error, if it has one.
    fn dead(&self) -> Option<VssError> {
        self.dead.lock().expect("dead lock").as_ref().map(|error| error.clone().into_error())
    }

    /// Marks the connection dead and wakes every waiter: the pending unary
    /// exchange (if any) and all live streams receive the error, then their
    /// channels close.
    fn fail(&self, error: &VssError) {
        let wire = WireError::from_error(error);
        {
            let mut dead = self.dead.lock().expect("dead lock");
            if dead.is_none() {
                *dead = Some(wire.clone());
            }
        }
        if let Some(sender) = self.control.lock().expect("control lock").take() {
            let _ = sender.try_send(Err(wire.clone().into_error()));
        }
        for (_, sender) in self.streams.lock().expect("streams lock").drain() {
            let _ = sender.try_send(Err(wire.clone().into_error()));
        }
    }
}

/// A multiplexed connection: the store's single socket, shared by
/// the control plane and every concurrent stream. Live streams hold an
/// `Arc` to it, so the connection — and the **one** admission slot it
/// occupies server-side — outlives the [`RemoteStore`] that dialed it until
/// the last stream finishes.
struct MuxConn {
    socket: TcpStream,
    writer: Mutex<BufWriter<TcpStream>>,
    shared: Arc<MuxShared>,
    /// The demultiplexing reader thread, joined on drop.
    reader: Mutex<Option<JoinHandle<()>>>,
    /// Serializes unary request/reply exchanges (streams are unaffected).
    unary_gate: Mutex<()>,
    next_stream: AtomicU32,
}

impl MuxConn {
    /// Dials and handshakes (the one exchange that is never wrapped in a
    /// traced envelope), then spawns the demultiplexing reader thread.
    fn dial(addr: SocketAddr) -> Result<Arc<Self>, VssError> {
        let socket = TcpStream::connect(addr).map_err(io_error)?;
        socket.set_nodelay(true).map_err(io_error)?;
        let mut reader = BufReader::new(socket.try_clone().map_err(io_error)?);
        let mut writer = BufWriter::new(socket.try_clone().map_err(io_error)?);
        let hello = Message::Hello { magic: PROTOCOL_MAGIC, version: PROTOCOL_VERSION };
        write_message(&mut writer, &hello)?;
        writer.flush().map_err(io_error)?;
        match read_message(&mut reader)? {
            Message::HelloAck { version: PROTOCOL_VERSION, .. } => {}
            Message::HelloAck { version, .. } => {
                return Err(protocol_error(format!(
                    "server acknowledged protocol version {version}, this client speaks \
                     {PROTOCOL_VERSION}"
                )))
            }
            Message::Error(error) => return Err(error.into_error()),
            other => {
                return Err(protocol_error(format!(
                    "unexpected handshake reply {}",
                    other.kind_name()
                )))
            }
        };
        let shared = Arc::new(MuxShared::new());
        let conn = Arc::new(Self {
            socket,
            writer: Mutex::new(writer),
            shared: Arc::clone(&shared),
            reader: Mutex::new(None),
            unary_gate: Mutex::new(()),
            next_stream: AtomicU32::new(1),
        });
        let thread = std::thread::spawn(move || {
            let mut reader = reader;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                demux_reader(&mut reader, &shared);
            }));
            if outcome.is_err() {
                shared.fail(&protocol_error("demultiplexer thread panicked"));
            }
            // However the reader exits, shut the socket down so a server
            // blocked writing to a connection nobody drains fails fast.
            let _ = reader.get_ref().shutdown(Shutdown::Both);
        });
        *conn.reader.lock().expect("reader slot") = Some(thread);
        Ok(conn)
    }

    fn dead_error(&self) -> VssError {
        self.shared.dead().unwrap_or_else(|| protocol_error("multiplexed connection closed"))
    }

    /// Sends one top-level frame. An active request scope travels as a
    /// traced envelope — request id plus the caller's span id — and the
    /// server's spans parent under the client span.
    fn send(&self, message: &Message) -> Result<(), VssError> {
        let mut writer = self.writer.lock().expect("writer lock");
        match vss_telemetry::current_request_id() {
            Some(request_id) => {
                let parent = vss_telemetry::current_parent_span();
                write_traced_message(&mut *writer, request_id, parent, message)?;
            }
            None => write_message(&mut *writer, message)?,
        }
        writer.flush().map_err(io_error)
    }

    /// Sends one mux-wrapped frame on `stream_id`.
    fn send_mux(&self, stream_id: u32, message: &Message) -> Result<(), VssError> {
        let mut writer = self.writer.lock().expect("writer lock");
        match vss_telemetry::current_request_id() {
            Some(request_id) => {
                let parent = vss_telemetry::current_parent_span();
                let wrapped = Message::Mux { stream_id, inner: Box::new(message.clone()) };
                write_traced_message(&mut *writer, request_id, parent, &wrapped)?;
            }
            None => write_mux_message(&mut *writer, stream_id, message)?,
        }
        writer.flush().map_err(io_error)
    }

    /// Sends one `WriteChunk` on `stream_id` serialized directly from
    /// borrowed frames (the ingest hot path never clones a pixel buffer).
    fn send_mux_chunk(&self, stream_id: u32, frames: &[Frame]) -> Result<(), VssError> {
        let mut writer = self.writer.lock().expect("writer lock");
        write_mux_chunk_message(&mut *writer, stream_id, frames)?;
        writer.flush().map_err(io_error)
    }

    /// Runs one unary request/reply exchange over the shared connection.
    /// Correlation is by ordering: a gate serializes unary exchanges, and
    /// the demultiplexer routes the next non-mux frame to the registered
    /// one-shot slot. Streams proceed concurrently, unaffected by the gate.
    fn unary(&self, message: &Message) -> Result<Message, VssError> {
        let _gate = self.unary_gate.lock().expect("unary gate");
        let (sender, receiver) = sync_channel(1);
        *self.shared.control.lock().expect("control lock") = Some(sender);
        // Registration, then the dead check: `fail` delivers to whatever is
        // registered when it runs, so either this check sees the error or
        // the receiver gets it — no window where a reply waiter hangs.
        if let Some(error) = self.shared.dead() {
            self.shared.control.lock().expect("control lock").take();
            return Err(error);
        }
        self.send(message)?;
        match receiver.recv() {
            Ok(reply) => reply,
            Err(_) => Err(self.dead_error()),
        }
    }

    /// Opens a new stream: allocates an id, registers its inbound route, and
    /// sends the mux-wrapped `open` message, granting `window` data-frame
    /// credits up front when the stream expects server data.
    fn open_stream(
        self: &Arc<Self>,
        open: &Message,
        window: u32,
    ) -> Result<MuxStreamHandle, VssError> {
        let stream_id = self.next_stream.fetch_add(1, Ordering::Relaxed);
        if stream_id > crate::wire::MAX_STREAM_ID {
            return Err(protocol_error("stream ids exhausted on this connection"));
        }
        let (sender, receiver) = sync_channel(window as usize + MUX_CHANNEL_SLACK);
        self.shared.streams.lock().expect("streams lock").insert(stream_id, sender);
        let handle =
            MuxStreamHandle { conn: Arc::clone(self), stream_id, receiver, finished: false };
        // Same registration-then-check ordering as `unary`.
        if let Some(error) = self.shared.dead() {
            return Err(error); // the handle's drop unregisters the route
        }
        self.send_mux(stream_id, open)?;
        if window > 0 {
            handle.grant(window)?;
        }
        Ok(handle)
    }
}

impl Drop for MuxConn {
    fn drop(&mut self) {
        // Shut the socket down first so a demultiplexer blocked mid-read
        // wakes with an error, then join — connections never leak their
        // reader thread or hang the dropper.
        let _ = self.socket.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.lock().expect("reader slot").take() {
            let _ = reader.join();
        }
    }
}

/// The demultiplexing reader: the connection's only socket reader, routing
/// every inbound frame to its stream's bounded channel (or to the one-shot
/// unary slot). It never blocks on a slow consumer — per-stream credit
/// guarantees a channel slot for every data frame the server may send, so a
/// full channel is a protocol violation, not a backpressure condition.
fn demux_reader(reader: &mut BufReader<TcpStream>, shared: &MuxShared) {
    loop {
        match read_message(reader) {
            Ok(Message::Mux { stream_id, inner }) => {
                let streams = shared.streams.lock().expect("streams lock");
                let Some(sender) = streams.get(&stream_id) else {
                    continue; // the frame raced our reset of this stream
                };
                match sender.try_send(Ok(*inner)) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        drop(streams);
                        shared.fail(&protocol_error(format!(
                            "server overran the credit window of stream {stream_id}"
                        )));
                        return;
                    }
                    Err(TrySendError::Disconnected(_)) => {} // handle mid-drop
                }
            }
            Ok(Message::MuxCredit { stream_id, frames }) => {
                let streams = shared.streams.lock().expect("streams lock");
                if let Some(sender) = streams.get(&stream_id) {
                    if let Err(TrySendError::Full(_)) =
                        sender.try_send(Ok(Message::MuxCredit { stream_id, frames }))
                    {
                        drop(streams);
                        shared.fail(&protocol_error(format!(
                            "server flooded credit grants on stream {stream_id}"
                        )));
                        return;
                    }
                }
            }
            Ok(Message::MuxReset { stream_id, error }) => {
                // The server tore this one stream down; surface its typed
                // error and close the stream's channel. Unknown ids are the
                // benign race with a stream that just finished.
                let sender = shared.streams.lock().expect("streams lock").remove(&stream_id);
                if let Some(sender) = sender {
                    let error = error.map(WireError::into_error).unwrap_or_else(|| {
                        protocol_error(format!("stream {stream_id} reset by server"))
                    });
                    let _ = sender.try_send(Err(error));
                }
            }
            Ok(reply) => {
                let Some(sender) = shared.control.lock().expect("control lock").take() else {
                    shared.fail(&protocol_error(format!(
                        "unsolicited {} outside any exchange",
                        reply.kind_name()
                    )));
                    return;
                };
                let _ = sender.try_send(Ok(reply));
            }
            Err(error) => {
                shared.fail(&error);
                return;
            }
        }
    }
}

/// One live client-side stream on a multiplexed connection. Its frames
/// arrive from the demultiplexer through a bounded channel; dropping it
/// unfinished sends a typed `MuxReset` — the server cancels just this
/// stream's worker — instead of closing the socket the sibling streams
/// share.
struct MuxStreamHandle {
    conn: Arc<MuxConn>,
    stream_id: u32,
    receiver: Receiver<Result<Message, VssError>>,
    /// Set once the stream reached a terminal frame, so drop skips the
    /// (pointless) reset.
    finished: bool,
}

impl MuxStreamHandle {
    /// Waits for the next frame routed to this stream. A closed channel
    /// means the connection died; the stored fatal error is surfaced.
    fn recv(&self) -> Result<Message, VssError> {
        match self.receiver.recv() {
            Ok(item) => item,
            Err(_) => Err(self.conn.dead_error()),
        }
    }

    /// Dequeues a banked frame without blocking.
    fn try_recv(&self) -> Option<Result<Message, VssError>> {
        self.receiver.try_recv().ok()
    }

    /// Grants the server `frames` more data-frame credits on this stream.
    fn grant(&self, frames: u32) -> Result<(), VssError> {
        self.conn.send(&Message::MuxCredit { stream_id: self.stream_id, frames })
    }

    /// Sends one mux-wrapped frame on this stream.
    fn send(&self, message: &Message) -> Result<(), VssError> {
        self.conn.send_mux(self.stream_id, message)
    }

    /// Sends one `WriteChunk` on this stream straight from borrowed frames.
    fn send_chunk(&self, frames: &[Frame]) -> Result<(), VssError> {
        self.conn.send_mux_chunk(self.stream_id, frames)
    }

    /// Marks the stream terminally finished (no reset on drop).
    fn finish(&mut self) {
        self.finished = true;
    }
}

impl Drop for MuxStreamHandle {
    fn drop(&mut self) {
        self.conn.shared.streams.lock().expect("streams lock").remove(&self.stream_id);
        if !self.finished {
            // Typed per-stream cancellation: the server cancels this
            // stream's worker (aborting an unfinished ingest); the shared
            // socket and every sibling stream are untouched.
            let _ =
                self.conn.send(&Message::MuxReset { stream_id: self.stream_id, error: None });
        }
    }
}

/// A remote VSS store: the full [`VideoStorage`] contract over the `vss-net`
/// wire protocol, so the workload driver, harness and tests run unmodified
/// against a store living in another process.
///
/// The store's connection is admitted through the server's
/// [`ServerConfig`](vss_server::ServerConfig) gate; an overloaded server
/// surfaces as [`VssError::Overloaded`] here. A store holds exactly **one**
/// admission slot no matter how many streams it runs: the control plane and
/// every concurrent read, sink, append and subscription share one
/// multiplexed connection, so a streaming client cannot shed or starve
/// *itself* at low `max_concurrent_sessions`. Remote reads stream
/// GOP-at-a-time and never admit to the server's cache of materialized views
/// ([`read`](VideoStorage::read) is a client-side drain of
/// [`read_stream`](VideoStorage::read_stream), byte-identical by
/// construction); remote writes stream through the server's
/// `Session::write_sink` path, so the resulting store is byte-identical to a
/// local batch write of the same frames.
pub struct RemoteStore {
    addr: SocketAddr,
    /// The shared multiplexed connection (`None` until dialed, and again
    /// after a transport failure — see [`mux_conn`](Self::mux_conn)).
    control: Mutex<Option<Arc<MuxConn>>>,
}

impl std::fmt::Debug for RemoteStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteStore").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl RemoteStore {
    /// Dials and handshakes the store's connection to a
    /// [`NetServer`](crate::server::NetServer) (`addr` resolves to its
    /// listen address), once. Fails with [`VssError::Overloaded`] when the
    /// server's admission control sheds the session; whether and when to
    /// dial again is the caller's decision.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, VssError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(io_error)?
            .next()
            .ok_or_else(|| protocol_error("address resolved to nothing"))?;
        let store = Self { addr, control: Mutex::new(None) };
        store.mux_conn()?;
        Ok(store)
    }

    /// Requests the server's live telemetry snapshot (counters, gauges and
    /// histogram summaries). The registry is fetched in pages
    /// ([`Message::StatsPageRequest`]) and reassembled, so a labeled
    /// registry of any size arrives whole: every series registered before
    /// the call appears exactly once, each section in sorted order. Pages are
    /// cut by index and the registry may grow between them, so a series
    /// registered during the fetch may be missing.
    pub fn stats_snapshot(&self) -> Result<vss_telemetry::TelemetrySnapshot, VssError> {
        let _scope = vss_telemetry::request_scope(next_request_id());
        let _span = vss_telemetry::span("client", "stats", "");
        let mut merged = vss_telemetry::TelemetrySnapshot::default();
        let mut start = 0u32;
        loop {
            let request = Message::StatsPageRequest { start, max: MAX_METRICS as u32 };
            match self.unary(request)? {
                Message::StatsPage { total, start: page_start, snapshot } => {
                    if page_start != start {
                        return Err(protocol_error(format!(
                            "stats page started at {page_start}, expected {start}"
                        )));
                    }
                    let got = snapshot.counters.len()
                        + snapshot.gauges.len()
                        + snapshot.histograms.len();
                    merge_sorted(&mut merged.counters, snapshot.counters);
                    merge_sorted(&mut merged.gauges, snapshot.gauges);
                    merge_sorted(&mut merged.histograms, snapshot.histograms);
                    start = start.saturating_add(got as u32);
                    if start >= total {
                        return Ok(merged);
                    }
                    if got == 0 {
                        return Err(protocol_error(format!(
                            "stats paging stalled at {start} of {total} series"
                        )));
                    }
                }
                other => {
                    return Err(protocol_error(format!(
                        "unexpected stats page reply {}",
                        other.kind_name()
                    )))
                }
            }
        }
    }

    /// Fetches one pre-rendered admin table: the recent traced requests, or
    /// one request's span tree (see [`crate::wire::admin_topic`]). The
    /// server owns the schema, so callers (and `vss-top`) only print.
    pub fn admin_table(&self, topic: u8, arg: u64) -> Result<AdminTable, VssError> {
        let _scope = vss_telemetry::request_scope(next_request_id());
        let _span = vss_telemetry::span("client", "admin", "");
        match self.unary(Message::AdminRequest { topic, arg })? {
            Message::AdminTable(table) => Ok(table),
            other => Err(protocol_error(format!("unexpected admin reply {}", other.kind_name()))),
        }
    }

    /// Fetches the server registry as Prometheus-style text exposition,
    /// rendered from the paged [`stats_snapshot`](Self::stats_snapshot).
    pub fn metrics_text(&self) -> Result<String, VssError> {
        Ok(self.stats_snapshot()?.text_exposition())
    }

    /// Opens a live tailing subscription as one stream of the store's
    /// connection: GOPs persisted to `name` after (or, with
    /// [`SubscribeFrom::Start`], before) this call stream back exactly as
    /// stored — already encoded, never re-encoded.
    ///
    /// A live feed is never silently reopened: a mid-stream transport
    /// failure surfaces as an error event. Dropping the [`LiveFeed`] resets
    /// its stream; the server unregisters the subscriber, so an abandoned
    /// feed never delays ingest.
    pub fn subscribe(&self, name: &str, from: SubscribeFrom) -> Result<LiveFeed, VssError> {
        check_name(name)?;
        let _scope = vss_telemetry::request_scope(next_request_id());
        let _span = vss_telemetry::span("client", "subscribe", name);
        let open = Message::Subscribe { name: name.into(), from };
        let handle = self.open_mux(&open, STREAM_WINDOW, |reply, handle| match reply {
            Message::Ok => Ok(handle),
            other => {
                Err(protocol_error(format!("unexpected subscribe reply {}", other.kind_name())))
            }
        })?;
        Ok(LiveFeed { handle, done: false })
    }

    /// The server address this store dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The store's connection — the one accessor every operation goes
    /// through. A connection the demultiplexer has recorded dead (server
    /// restart, idle reset) is dropped and redialed here, before anything is
    /// sent on it.
    fn mux_conn(&self) -> Result<Arc<MuxConn>, VssError> {
        let mut slot = self.control.lock().expect("control lock");
        if let Some(conn) = slot.as_ref().filter(|conn| conn.shared.dead().is_none()) {
            return Ok(Arc::clone(conn));
        }
        let conn = MuxConn::dial(self.addr)?;
        *slot = Some(Arc::clone(&conn));
        Ok(conn)
    }

    /// Opens one stream on the shared multiplexed connection. A typed error
    /// reply (an `Overloaded` shed included) is returned as is; `classify`
    /// decides what any other opening reply means. Once a stream is open it
    /// is never silently reopened.
    fn open_mux<T>(
        &self,
        open: &Message,
        window: u32,
        classify: impl FnOnce(Message, MuxStreamHandle) -> Result<T, VssError>,
    ) -> Result<T, VssError> {
        let handle = self.mux_conn()?.open_stream(open, window)?;
        match handle.recv()? {
            Message::Error(error) => Err(error.into_error()),
            reply => classify(reply, handle),
        }
    }

    /// Runs one request/response exchange on the control plane. A typed
    /// server error (an `Overloaded` shed included) leaves the exchange
    /// aligned and the connection kept. A transport failure mid-exchange is
    /// surfaced — the server may or may not have applied the request — and
    /// drops the connection, so the next call redials.
    fn unary(&self, message: Message) -> Result<Message, VssError> {
        let conn = self.mux_conn()?;
        match conn.unary(&message) {
            Ok(Message::Error(error)) => Err(error.into_error()),
            Ok(reply) => Ok(reply),
            Err(error) => {
                let mut slot = self.control.lock().expect("control lock");
                if slot.as_ref().is_some_and(|current| Arc::ptr_eq(current, &conn)) {
                    *slot = None;
                }
                Err(error)
            }
        }
    }
}

/// A live tailing feed: an iterator of [`SubEvent`]s, carried by one
/// credit-paced stream of the store's connection — a consumer that stops
/// draining simply stops granting credits, parking the server-side relay
/// while the hub's lag policy (drop + catch-up reads) absorbs the overflow;
/// the ingest path and the store's sibling streams never wait on this feed.
/// The iterator finishes after [`SubEvent::End`] (the video was deleted) or
/// an error event; dropping it mid-feed cancels the subscription with a
/// typed `MuxReset` — the feed owns no thread, and the shared connection
/// lives on for the store's other streams.
pub struct LiveFeed {
    handle: MuxStreamHandle,
    done: bool,
}

impl std::fmt::Debug for LiveFeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveFeed").finish_non_exhaustive()
    }
}

impl Iterator for LiveFeed {
    type Item = Result<SubEvent, VssError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.handle.recv() {
            Ok(Message::SubChunk { seq, start_time, end_time, frame_rate, frame_count, gop }) => {
                // The event left the channel: hand its credit back.
                let _ = self.handle.grant(1);
                Some(Ok(SubEvent::Gop(LiveGop {
                    seq,
                    start_time,
                    end_time,
                    frame_count: frame_count as usize,
                    frame_rate,
                    gop: Arc::new(gop),
                })))
            }
            Ok(Message::SubGap { from_seq, to_seq }) => {
                let _ = self.handle.grant(1);
                Some(Ok(SubEvent::Gap { from_seq, to_seq }))
            }
            Ok(Message::SubEnd) => {
                self.done = true;
                self.handle.finish();
                Some(Ok(SubEvent::End))
            }
            Ok(Message::Error(error)) => {
                self.done = true;
                self.handle.finish();
                Some(Err(error.into_error()))
            }
            Ok(other) => {
                self.done = true;
                Some(Err(protocol_error(format!(
                    "unexpected message in feed: {}",
                    other.kind_name()
                ))))
            }
            Err(error) => {
                self.done = true;
                self.handle.finish();
                Some(Err(error))
            }
        }
    }
}

/// Client half of a multiplexed streamed read: reassembles chunk fragments
/// on the consumer's own thread (the demultiplexer already did the socket
/// read) and replenishes one credit per drained fragment, keeping the
/// server exactly one window ahead of the consumer.
struct MuxChunkIter {
    handle: MuxStreamHandle,
    pending: Vec<Frame>,
    pending_bytes: u64,
    done: bool,
}

impl MuxChunkIter {
    fn new(handle: MuxStreamHandle) -> Self {
        Self { handle, pending: Vec::new(), pending_bytes: 0, done: false }
    }
}

impl Iterator for MuxChunkIter {
    type Item = Result<ReadChunk, VssError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            match self.handle.recv() {
                Ok(Message::StreamChunk { frame_rate, last, frames, encoded_gop, delta }) => {
                    // The fragment left the channel: hand its credit back.
                    let _ = self.handle.grant(1);
                    self.pending_bytes += frames.iter().map(|f| f.byte_len() as u64).sum::<u64>();
                    self.pending.extend(frames);
                    // Receiver-side accumulation guard: a peer that keeps
                    // sending `last = false` fragments cannot grow this side
                    // unboundedly (the per-hop O(GOP) discipline).
                    if self.pending.len() > crate::wire::MAX_CHUNK_FRAMES
                        || self.pending_bytes > crate::wire::MAX_CHUNK_BYTES
                    {
                        self.done = true;
                        return Some(Err(protocol_error(format!(
                            "chunk reassembly exceeded {} frames / {} bytes",
                            crate::wire::MAX_CHUNK_FRAMES,
                            crate::wire::MAX_CHUNK_BYTES
                        ))));
                    }
                    if !last {
                        continue;
                    }
                    self.pending_bytes = 0;
                    let frames = std::mem::take(&mut self.pending);
                    let sequence = if frames.is_empty() {
                        FrameSequence::empty(frame_rate)
                    } else {
                        FrameSequence::new(frames, frame_rate)
                    };
                    let item = sequence
                        .map(|frames| ReadChunk { frames, encoded_gop, stats_delta: delta })
                        .map_err(VssError::Frame);
                    if item.is_err() {
                        self.done = true; // poisoned: stop (drop sends the reset)
                    }
                    return Some(item);
                }
                Ok(Message::StreamEnd) => {
                    self.done = true;
                    self.handle.finish();
                    return None;
                }
                Ok(Message::Error(error)) => {
                    self.done = true;
                    self.handle.finish(); // the server already ended the stream
                    return Some(Err(error.into_error()));
                }
                Ok(other) => {
                    self.done = true;
                    return Some(Err(protocol_error(format!(
                        "unexpected message in stream: {}",
                        other.kind_name()
                    ))));
                }
                Err(error) => {
                    self.done = true;
                    self.handle.finish(); // stream is gone; nothing to reset
                    return Some(Err(error));
                }
            }
        }
    }
}

/// Sink backend that relays GOPs on one stream of the shared multiplexed
/// connection, pacing sends by the server's credit grants instead of TCP
/// backpressure. Dropping it unfinished sends a typed `MuxReset` — the
/// server discards unpersisted GOPs (abort semantics) — without touching
/// the socket the sibling streams share.
struct MuxSinkBackend {
    handle: Option<MuxStreamHandle>,
    /// Data-frame credits banked from the server's `MuxCredit` grants.
    credit: u64,
}

impl MuxSinkBackend {
    /// Spends one data-frame credit: drains banked grants first, then
    /// blocks until the server tops the window up. A typed error frame
    /// arriving instead (the server failed or shed the ingest) surfaces
    /// immediately.
    fn take_credit(&mut self) -> Result<(), VssError> {
        loop {
            let Some(handle) = self.handle.as_ref() else {
                return Err(protocol_error("write stream already finished"));
            };
            let message = match handle.try_recv() {
                Some(message) => message,
                None if self.credit > 0 => break,
                None => handle.recv(),
            };
            match message {
                Ok(Message::MuxCredit { frames, .. }) => self.credit += u64::from(frames),
                Ok(Message::Error(error)) => {
                    self.handle = None; // the drop sends the reset: server aborts
                    return Err(error.into_error());
                }
                Ok(other) => {
                    self.handle = None;
                    return Err(protocol_error(format!(
                        "unexpected message in write stream: {}",
                        other.kind_name()
                    )));
                }
                Err(error) => {
                    self.handle = None;
                    return Err(error);
                }
            }
        }
        self.credit -= 1;
        Ok(())
    }

    /// Sends frames in slabs cut by the shared [`fragment_boundaries`] rule,
    /// spending one credit per slab; slabs go straight from the borrowed
    /// frames onto the wire ([`write_mux_chunk_message`]) — the write hot
    /// path never clones a pixel buffer.
    fn send_frames(&mut self, frames: &[Frame]) -> Result<(), VssError> {
        let mut start = 0usize;
        for end in fragment_boundaries(frames) {
            if end > start {
                self.take_credit()?;
                let handle = self
                    .handle
                    .as_ref()
                    .ok_or_else(|| protocol_error("write stream already finished"))?;
                handle.send_chunk(&frames[start..end])?;
            }
            start = end;
        }
        Ok(())
    }

    fn finish_exchange(&mut self) -> Result<WriteReport, VssError> {
        let Some(mut handle) = self.handle.take() else {
            return Err(protocol_error("write stream already finished"));
        };
        handle.send(&Message::WriteFinish)?;
        loop {
            match handle.recv() {
                Ok(Message::MuxCredit { .. }) => continue, // grants raced the finish
                Ok(Message::WriteReport(report)) => {
                    handle.finish();
                    return Ok(report.into_report());
                }
                Ok(Message::Error(error)) => {
                    handle.finish();
                    return Err(error.into_error());
                }
                Ok(other) => {
                    return Err(protocol_error(format!(
                        "unexpected write reply {}",
                        other.kind_name()
                    )));
                }
                Err(error) => {
                    handle.finish(); // stream is gone; nothing to reset
                    return Err(error);
                }
            }
        }
    }
}

impl GopWriteBackend for MuxSinkBackend {
    fn flush_gop(&mut self, frames: &[Frame]) -> Result<(), VssError> {
        self.send_frames(frames)
    }

    fn finish(&mut self) -> Result<WriteReport, VssError> {
        self.finish_exchange()
    }
}

impl VideoStorage for RemoteStore {
    fn label(&self) -> &'static str {
        "vss-net"
    }

    fn create(&mut self, name: &str, budget: Option<StorageBudget>) -> Result<(), VssError> {
        check_name(name)?;
        let _scope = vss_telemetry::request_scope(next_request_id());
        let _span = vss_telemetry::span("client", "create", name);
        match self.unary(Message::Create { name: name.into(), budget })? {
            Message::Ok => Ok(()),
            other => Err(protocol_error(format!("unexpected create reply {}", other.kind_name()))),
        }
    }

    fn delete(&mut self, name: &str) -> Result<(), VssError> {
        check_name(name)?;
        let _scope = vss_telemetry::request_scope(next_request_id());
        let _span = vss_telemetry::span("client", "delete", name);
        match self.unary(Message::Delete { name: name.into() })? {
            Message::Ok => Ok(()),
            other => Err(protocol_error(format!("unexpected delete reply {}", other.kind_name()))),
        }
    }

    fn write(
        &mut self,
        request: &WriteRequest,
        frames: &FrameSequence,
    ) -> Result<WriteReport, VssError> {
        // A batch write is a drained sink: the server persists GOP-at-a-time
        // through `Session::write_sink`, producing a byte-identical store to
        // a local batch write of the same frames.
        let mut sink = self.write_sink(request, frames.frame_rate())?;
        sink.push_sequence(frames)?;
        sink.finish()
    }

    fn append(&mut self, name: &str, frames: &FrameSequence) -> Result<WriteReport, VssError> {
        check_name(name)?;
        let _scope = vss_telemetry::request_scope(next_request_id());
        let _span = vss_telemetry::span("client", "append", name);
        let begin = Message::AppendBegin { name: name.into(), frame_rate: frames.frame_rate() };
        let handle = self.open_mux(&begin, 0, |reply, handle| match reply {
            Message::Ok => Ok(handle),
            other => Err(protocol_error(format!("unexpected append reply {}", other.kind_name()))),
        })?;
        let mut backend = MuxSinkBackend { handle: Some(handle), credit: 0 };
        backend.send_frames(frames.frames())?;
        backend.finish_exchange()
    }

    fn read(&mut self, request: &ReadRequest) -> Result<ReadResult, VssError> {
        // Byte-identical to the server executing the same request: the
        // server drains `Session::read_stream`, and draining is how the
        // engine implements materialized reads. (Remote reads never admit to
        // the server's cache — like every streaming read.)
        self.read_stream(request)?.drain()
    }

    fn read_stream(&mut self, request: &ReadRequest) -> Result<ReadStream, VssError> {
        check_name(&request.name)?;
        // The scope covers the stream *open* — the traced envelope carries
        // the id to the server, whose spans for the whole drain then join
        // this trace; the client-side span measures time-to-first-chunk.
        let _scope = vss_telemetry::request_scope(next_request_id());
        let _span = vss_telemetry::span("client", "read_stream", request.name.as_str());
        let open = Message::OpenReadStream { request: request.clone() };
        self.open_mux(&open, STREAM_WINDOW, |reply, handle| match reply {
            Message::StreamBegin { frame_rate, compressed } => {
                Ok(ReadStream::from_chunks(frame_rate, compressed, MuxChunkIter::new(handle)))
            }
            other => Err(protocol_error(format!("unexpected stream reply {}", other.kind_name()))),
        })
    }

    fn write_sink(
        &mut self,
        request: &WriteRequest,
        frame_rate: f64,
    ) -> Result<WriteSink<'_>, VssError> {
        check_name(&request.name)?;
        let _scope = vss_telemetry::request_scope(next_request_id());
        let _span = vss_telemetry::span("client", "write", request.name.as_str());
        let open = Message::WriteBegin { request: request.clone(), frame_rate };
        let (handle, gop_size) = self.open_mux(&open, 0, |reply, handle| match reply {
            Message::WriteReady { gop_size } => Ok((handle, gop_size)),
            other => {
                Err(protocol_error(format!("unexpected write-begin reply {}", other.kind_name())))
            }
        })?;
        Ok(WriteSink::from_backend(
            Box::new(MuxSinkBackend { handle: Some(handle), credit: 0 }),
            frame_rate,
            // Chunk pushes on the server's own GOP boundary so each
            // flush relays exactly one server-side GOP.
            gop_size.clamp(1, u32::MAX as u64) as usize,
        ))
    }

    fn metadata(&self, name: &str) -> Result<VideoMetadata, VssError> {
        check_name(name)?;
        let _scope = vss_telemetry::request_scope(next_request_id());
        let _span = vss_telemetry::span("client", "metadata", name);
        match self.unary(Message::Metadata { name: name.into() })? {
            Message::MetadataReply(metadata) => Ok(metadata),
            other => Err(protocol_error(format!("unexpected metadata reply {}", other.kind_name()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workload driver boxes stores as `dyn VideoStorage + Send` and
    /// moves streams across threads; both must stay `Send` — they carry an
    /// `Arc<MuxConn>` across threads.
    #[test]
    fn remote_handles_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<RemoteStore>();
        assert_send::<MuxChunkIter>();
        assert_send::<MuxSinkBackend>();
        assert_send::<LiveFeed>();
    }
}
