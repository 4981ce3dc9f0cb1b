//! The network front-end: [`NetServer`] serves the wire protocol over TCP
//! on top of a [`VssServer`].
//!
//! One dispatcher thread per connection plus one worker per open stream.
//! Every connection is admitted through [`VssServer::try_session`], so the
//! [`ServerConfig`](vss_server::ServerConfig) limits govern remote clients:
//! an over-limit connection is answered with a typed `Overloaded` error and
//! closed. Reads drain
//! [`Session::read_stream`] — the shard lock is released when the plan
//! snapshot is taken, before the first chunk hits the socket — and writes
//! and appends flow through [`Session::write_sink`] /
//! [`Session::append_sink`], persisting GOP-at-a-time under the shard's
//! write lock per GOP. Chunk payloads in motion are counted into the
//! server's in-flight-byte gauge, which feeds the admission gate.
//!
//! [`NetServer::shutdown`] stops the listener, closes every live connection
//! (handlers observe the closed socket, abort any in-flight operation and
//! drop their sessions — an aborted sink leaves only fully persisted GOPs)
//! and joins every thread. Pair it with [`VssServer::shutdown`] to drain
//! in-process sessions too.

use crate::wire::{
    admin_topic, fragment_boundaries, read_envelope, read_message, snapshot_page, write_message,
    write_mux_message, AdminTable, Message, WireError, WireWriteReport, FRAGMENT_BYTES,
    MAX_ADMIN_ROWS, PROTOCOL_MAGIC, PROTOCOL_VERSION,
};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read as IoRead, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use vss_core::{ReadChunk, VssError, WriteSink};
use vss_frame::Frame;
use vss_server::{InFlightBytes, Session, SubEvent, SubscribeFrom, VssServer};

use crate::wire::io_error;

/// Cached `&'static` telemetry handles for the connection hot path.
mod metrics {
    use std::sync::OnceLock;
    use vss_telemetry::{Counter, Gauge, Histogram};

    /// `net.conn.bytes_received`: request bytes off every socket.
    pub(super) fn bytes_received() -> &'static Counter {
        static C: OnceLock<&'static Counter> = OnceLock::new();
        C.get_or_init(|| vss_telemetry::counter("net.conn.bytes_received"))
    }

    /// `net.conn.bytes_sent`: reply bytes onto every socket.
    pub(super) fn bytes_sent() -> &'static Counter {
        static C: OnceLock<&'static Counter> = OnceLock::new();
        C.get_or_init(|| vss_telemetry::counter("net.conn.bytes_sent"))
    }

    /// `net.conn.accepted`: connections accepted since process start.
    pub(super) fn accepted() -> &'static Counter {
        static C: OnceLock<&'static Counter> = OnceLock::new();
        C.get_or_init(|| vss_telemetry::counter("net.conn.accepted"))
    }

    /// `net.conn.active`: handler threads currently live.
    pub(super) fn active() -> &'static Gauge {
        static G: OnceLock<&'static Gauge> = OnceLock::new();
        G.get_or_init(|| vss_telemetry::gauge("net.conn.active"))
    }

    /// `net.mux.streams_opened`: multiplexed streams opened since start.
    pub(super) fn mux_streams_opened() -> &'static Counter {
        static C: OnceLock<&'static Counter> = OnceLock::new();
        C.get_or_init(|| vss_telemetry::counter("net.mux.streams_opened"))
    }

    /// `net.mux.streams_active`: multiplexed stream workers currently live.
    pub(super) fn mux_streams_active() -> &'static Gauge {
        static G: OnceLock<&'static Gauge> = OnceLock::new();
        G.get_or_init(|| vss_telemetry::gauge("net.mux.streams_active"))
    }

    /// `net.mux.resets`: per-stream resets received or sent.
    pub(super) fn mux_resets() -> &'static Counter {
        static C: OnceLock<&'static Counter> = OnceLock::new();
        C.get_or_init(|| vss_telemetry::counter("net.mux.resets"))
    }

    /// `net.mux.credit_stall_ns`: time stream workers spent waiting for a
    /// client credit grant (one sample per wait that actually blocked).
    pub(super) fn mux_credit_stall() -> &'static Histogram {
        static H: OnceLock<&'static Histogram> = OnceLock::new();
        H.get_or_init(|| vss_telemetry::histogram("net.mux.credit_stall_ns"))
    }
}

/// A transport wrapper counting every byte that crosses the socket into a
/// telemetry counter (buffered above, so the count reflects actual I/O).
struct Counting<T> {
    inner: T,
    counter: &'static vss_telemetry::Counter,
}

impl<T: IoRead> IoRead for Counting<T> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.counter.add(n as u64);
        Ok(n)
    }
}

impl<T: Write> Write for Counting<T> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counter.add(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// The handler's buffered, byte-counted transport halves.
type ConnReader = BufReader<Counting<TcpStream>>;
type ConnWriter = BufWriter<Counting<TcpStream>>;

/// Decrements the live-connection gauge when a handler exits (however it
/// exits).
struct ConnectionGuard;

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        metrics::active().sub(1);
    }
}

/// One live connection's registry entry: the handler thread plus a clone of
/// its socket (closed on shutdown to unblock the handler's reads).
struct ConnectionEntry {
    socket: Option<TcpStream>,
    handler: JoinHandle<()>,
}

struct NetInner {
    server: VssServer,
    addr: SocketAddr,
    stop: AtomicBool,
    /// Live connections; finished entries are reaped on every accept (and a
    /// final sweep at shutdown), so a long-running server does not
    /// accumulate dead sockets or join handles.
    connections: Mutex<Vec<ConnectionEntry>>,
}

/// A TCP listener serving the `vss-net` protocol for one [`VssServer`]. See
/// the [module docs](self).
pub struct NetServer {
    inner: Arc<NetInner>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl NetServer {
    /// Binds a listener (use port 0 for an ephemeral port — see
    /// [`local_addr`](Self::local_addr)) and starts accepting connections
    /// against `server`.
    pub fn bind(server: VssServer, addr: impl ToSocketAddrs) -> Result<Self, VssError> {
        let listener = TcpListener::bind(addr).map_err(io_error)?;
        let addr = listener.local_addr().map_err(io_error)?;
        let inner = Arc::new(NetInner {
            server,
            addr,
            stop: AtomicBool::new(false),
            connections: Mutex::new(Vec::new()),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(&inner, listener))
        };
        Ok(Self { inner, accept: Mutex::new(Some(accept)) })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The served [`VssServer`].
    pub fn server(&self) -> &VssServer {
        &self.inner.server
    }

    /// Stops the listener, closes every live connection and joins the accept
    /// and handler threads. Handlers whose socket closes mid-operation abort
    /// that operation exactly like a client disconnect: streams stop
    /// draining, sinks discard their buffered partial GOP and drop their
    /// session. Idempotent. Does **not** drain in-process sessions —
    /// follow with [`VssServer::shutdown`] for a full drain.
    pub fn shutdown(&self) {
        if self.inner.stop.swap(true, Ordering::SeqCst) {
            // Another caller is (or was) shutting down; still join below so
            // every caller returns to a quiesced server.
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.inner.addr);
        if let Some(accept) = self.accept.lock().expect("accept lock").take() {
            let _ = accept.join();
        }
        let connections: Vec<ConnectionEntry> =
            std::mem::take(&mut *self.inner.connections.lock().expect("connections lock"));
        for entry in &connections {
            if let Some(socket) = &entry.socket {
                let _ = socket.shutdown(Shutdown::Both);
            }
        }
        for entry in connections {
            let _ = entry.handler.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(inner: &Arc<NetInner>, listener: TcpListener) {
    loop {
        let (stream, _peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(_) if inner.stop.load(Ordering::SeqCst) => return,
            Err(_) => {
                // Persistent accept errors (e.g. fd exhaustion) must not
                // busy-spin: back off briefly so handlers can finish and
                // free their descriptors.
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
        };
        if inner.stop.load(Ordering::SeqCst) {
            return; // the shutdown wake-up connection (or a late client)
        }
        let socket = stream.try_clone().ok();
        let handler = {
            let inner = Arc::clone(inner);
            std::thread::spawn(move || handle_connection(&inner, stream))
        };
        let mut connections = inner.connections.lock().expect("connections lock");
        // Reap finished connections so fds and join handles don't accumulate
        // across a long-running server's lifetime.
        let mut live = Vec::with_capacity(connections.len() + 1);
        for entry in connections.drain(..) {
            if entry.handler.is_finished() {
                let _ = entry.handler.join();
            } else {
                live.push(entry);
            }
        }
        live.push(ConnectionEntry { socket, handler });
        *connections = live;
    }
}

/// Serves one connection: handshake, admission, then the dispatcher loop
/// ([`serve_mux_connection`]). Any transport error ends the connection;
/// dropping the [`Session`] releases its admission slot.
fn handle_connection(inner: &Arc<NetInner>, stream: TcpStream) {
    metrics::accepted().incr();
    metrics::active().add(1);
    let _conn = ConnectionGuard;
    let _ = stream.set_nodelay(true);
    // The accept loop parks its own clone of this socket (so shutdown() can
    // interrupt blocked reads), which means dropping the reader and writer
    // here does *not* close the connection. Shut the socket down explicitly
    // whenever this handler exits — on any path — so the peer always sees
    // EOF instead of a silently wedged connection.
    struct FinOnExit(TcpStream);
    impl Drop for FinOnExit {
        fn drop(&mut self) {
            let _ = self.0.shutdown(Shutdown::Both);
        }
    }
    let _fin = stream.try_clone().ok().map(FinOnExit);
    // Pre-admission read timeout: an idle or byte-trickling connection
    // cannot hold a handler thread (and its descriptors) forever *before*
    // it has passed the admission gate; it is dropped and reaped instead.
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(10)));
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader =
        BufReader::new(Counting { inner: read_half, counter: metrics::bytes_received() });
    let mut writer = BufWriter::new(Counting { inner: stream, counter: metrics::bytes_sent() });
    let send = |writer: &mut ConnWriter, message: &Message| -> Result<(), VssError> {
        write_message(writer, message)?;
        writer.flush().map_err(io_error)
    };

    // --- handshake + admission --------------------------------------------
    // One protocol version: a client offering less is refused with a typed
    // protocol error before it can take an admission slot.
    match read_message(&mut reader) {
        Ok(Message::Hello { magic: PROTOCOL_MAGIC, version }) if version >= PROTOCOL_VERSION => {}
        Ok(Message::Hello { magic: PROTOCOL_MAGIC, version }) => {
            let _ = send(
                &mut writer,
                &Message::Error(WireError::protocol(format!(
                    "unsupported protocol version {version} (this server speaks \
                     {PROTOCOL_VERSION})"
                ))),
            );
            return;
        }
        Ok(_) | Err(_) => {
            let _ = send(
                &mut writer,
                &Message::Error(WireError::protocol("expected a Hello handshake")),
            );
            return;
        }
    }
    // One admission slot per connection — the connection's one `Session` is
    // shared by its control plane and every multiplexed stream, so a client
    // with an open control session can stream without being shed against
    // itself.
    let session = match inner.server.try_session() {
        Ok(session) => Arc::new(session),
        Err(error) => {
            // Typed shed: the client sees VssError::Overloaded (or whatever
            // the admission gate produced) and can back off.
            let _ = send(&mut writer, &Message::Error(WireError::from_error(&error)));
            return;
        }
    };
    let ack = Message::HelloAck { version: PROTOCOL_VERSION, session: session.id() };
    if send(&mut writer, &ack).is_err() {
        return;
    }
    // Admitted: the session now counts against the server's limits, so the
    // anti-idle timeout comes off (long-lived control connections are fine).
    let _ = reader.get_ref().inner.set_read_timeout(None);

    serve_mux_connection(inner, &session, &mut reader, writer);
}

fn reply_unit(
    writer: &mut ConnWriter,
    result: Result<(), VssError>,
) -> Result<(), VssError> {
    let message = match result {
        Ok(()) => Message::Ok,
        Err(error) => Message::Error(WireError::from_error(&error)),
    };
    write_message(writer, &message)?;
    writer.flush().map_err(io_error)
}

/// Cuts one owned chunk into its wire fragments — `(message, payload
/// bytes)` pairs in send order — by the shared [`fragment_boundaries`]
/// rule.
fn chunk_fragments(mut chunk: ReadChunk) -> Vec<(Message, u64)> {
    let frame_rate = chunk.frames.frame_rate();
    let mut frames: Vec<Frame> = chunk.frames.into_frames();
    // One fragmentation rule for both directions of the protocol.
    let boundaries = fragment_boundaries(&frames);
    // An encoded GOP too big to share the final pixel fragment's budget
    // rides a trailing fragment of its own, so a compressed GOP has the
    // whole envelope — not just the fragment slack — to itself.
    let gop_bytes = chunk.encoded_gop.as_ref().map_or(0, |g| g.byte_len());
    let final_start = if boundaries.len() >= 2 { boundaries[boundaries.len() - 2] } else { 0 };
    let final_bytes: usize = frames[final_start..].iter().map(Frame::byte_len).sum();
    let own_gop_fragment = gop_bytes > 0 && final_bytes + gop_bytes > FRAGMENT_BYTES;
    let last_index = boundaries.len() - 1;
    let mut fragments = Vec::with_capacity(last_index + 2);
    let mut consumed = 0usize;
    for (index, end) in boundaries.into_iter().enumerate() {
        let fragment: Vec<Frame> = frames.drain(..end - consumed).collect();
        consumed = end;
        let last = index == last_index && !own_gop_fragment;
        let bytes: u64 = fragment.iter().map(|f| f.byte_len() as u64).sum();
        let message = Message::StreamChunk {
            frame_rate,
            last,
            frames: fragment,
            // The chunk is owned and exactly one fragment carries the GOP —
            // move it, don't copy it.
            encoded_gop: if last { chunk.encoded_gop.take() } else { None },
            delta: if last { chunk.stats_delta } else { Default::default() },
        };
        fragments.push((message, bytes));
    }
    if own_gop_fragment {
        let message = Message::StreamChunk {
            frame_rate,
            last: true,
            frames: Vec::new(),
            encoded_gop: chunk.encoded_gop.take(),
            delta: chunk.stats_delta,
        };
        fragments.push((message, gop_bytes as u64));
    }
    fragments
}

// ---------------------------------------------------------------------------
// Admin plane: span trees
// ---------------------------------------------------------------------------

/// Builds one admin table (see [`admin_topic`]). Tables are pre-rendered
/// strings: the server owns the schema, clients and `vss-top` just print.
fn admin_table(topic: u8, arg: u64) -> Result<AdminTable, VssError> {
    let mut table = match topic {
        admin_topic::SPANS if arg == 0 => {
            // Most recent traced request ids, newest first.
            let mut seen = std::collections::BTreeSet::new();
            let mut rows = Vec::new();
            for span in vss_telemetry::recent_spans().into_iter().rev() {
                let Some(request_id) = span.request_id else { continue };
                if !seen.insert(request_id) {
                    continue;
                }
                let tree = vss_telemetry::span_tree(request_id);
                let root = tree
                    .roots()
                    .first()
                    .map_or_else(String::new, |root| format!("{}.{}", root.layer, root.op));
                rows.push(vec![
                    request_id.to_string(),
                    tree.spans.len().to_string(),
                    if tree.is_connected() { "yes" } else { "no" }.to_string(),
                    root,
                ]);
            }
            AdminTable {
                title: "recent traces".into(),
                columns: ["request", "spans", "connected", "root"].map(String::from).to_vec(),
                rows,
            }
        }
        admin_topic::SPANS => {
            let tree = vss_telemetry::span_tree(arg);
            if tree.spans.is_empty() {
                return Err(VssError::Unsatisfiable(format!(
                    "no recorded spans for request {arg} (the span ring may have wrapped)"
                )));
            }
            AdminTable {
                title: format!("trace {arg}"),
                columns: vec!["span".to_string()],
                rows: tree.render().lines().map(|line| vec![line.to_string()]).collect(),
            }
        }
        other => {
            return Err(VssError::Unsupported(format!(
                "unknown admin topic {other} (the one topic served is spans=4; 1-3 are retired)"
            )))
        }
    };
    // The wire refuses oversize tables; showing the first page with an
    // explicit marker beats an undecodable reply.
    if table.rows.len() > MAX_ADMIN_ROWS {
        table.rows.truncate(MAX_ADMIN_ROWS - 1);
        let marker = std::iter::once(String::from("…"))
            .chain(std::iter::repeat_n(String::new(), table.columns.len() - 1))
            .collect();
        table.rows.push(marker);
    }
    Ok(table)
}

// ---------------------------------------------------------------------------
// Multiplexing: per-connection dispatcher + per-stream workers
// ---------------------------------------------------------------------------

/// Initial client→server data-frame window granted to every multiplexed
/// ingest stream (the server replenishes one credit per chunk it dequeues).
const SERVER_WRITE_WINDOW: u32 = 4;
/// Ceiling on concurrently open streams per connection: each stream is a
/// worker thread, so a client cannot fan one admitted connection out into
/// unbounded server threads. An open beyond the cap is answered with a typed
/// per-stream `Overloaded` reset — the connection stays usable.
const MAX_MUX_STREAMS: usize = 64;

/// Per-stream flow-control state shared between the dispatcher (which
/// receives credit grants and resets) and the stream's worker thread (which
/// spends credit before every data frame).
struct StreamCtl {
    credit: Mutex<u64>,
    granted: Condvar,
    cancelled: AtomicBool,
    /// The per-kind `net.mux.credit_stall_ns{kind=...}` series (the
    /// unlabeled series stays the all-kinds total).
    stall: &'static vss_telemetry::Histogram,
}

impl StreamCtl {
    fn new(kind: &'static str) -> Self {
        Self {
            credit: Mutex::new(0),
            granted: Condvar::new(),
            cancelled: AtomicBool::new(false),
            stall: vss_telemetry::histogram_with("net.mux.credit_stall_ns", &[("kind", kind)]),
        }
    }

    /// Adds a cumulative credit grant and wakes a waiting worker.
    fn grant(&self, frames: u32) {
        *self.credit.lock().expect("credit lock") += u64::from(frames);
        self.granted.notify_all();
    }

    /// Cancels the stream and wakes any credit waiter.
    fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        let _guard = self.credit.lock().expect("credit lock");
        self.granted.notify_all();
    }

    fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Spends one data-frame credit, blocking until the client grants one.
    /// Returns `false` when the stream was cancelled instead — this wait is
    /// the stream's *only* pacing point, so a stalled consumer parks its
    /// worker here (stall time is recorded) without touching the socket,
    /// and sibling streams keep flowing.
    fn take_credit(&self) -> bool {
        let mut credit = self.credit.lock().expect("credit lock");
        if *credit == 0 && !self.is_cancelled() {
            let started = std::time::Instant::now();
            while *credit == 0 && !self.is_cancelled() {
                credit = self.granted.wait(credit).expect("credit lock");
            }
            let stalled = started.elapsed();
            metrics::mux_credit_stall().record_duration(stalled);
            self.stall.record_duration(stalled);
        }
        if self.is_cancelled() {
            return false;
        }
        *credit -= 1;
        true
    }
}

/// One frame routed from the dispatcher to an ingest worker. Chunk frames
/// carry their in-flight-byte guard, so queued-but-unconsumed pixels keep
/// feeding the admission gauge.
enum IngestFrame {
    Chunk { frames: Vec<Frame>, guard: InFlightBytes },
    Finish,
    Abort,
}

/// Dispatcher-side record of one live multiplexed stream.
struct ServerStream {
    ctl: Arc<StreamCtl>,
    worker: JoinHandle<()>,
    /// Feeds an ingest worker; `None` for read and subscribe streams.
    ingest: Option<SyncSender<IngestFrame>>,
}

impl ServerStream {
    /// Cancels the stream (waking credit waits, closing the ingest queue)
    /// and joins its worker.
    fn stop(mut self) {
        self.ctl.cancel();
        self.ingest = None;
        let _ = self.worker.join();
    }
}

/// Decrements the active-stream gauges — the all-kinds total and the
/// stream's `{kind=...}` series — when a worker exits (however it exits).
struct StreamGuard {
    kind_active: &'static vss_telemetry::Gauge,
}

impl Drop for StreamGuard {
    fn drop(&mut self) {
        metrics::mux_streams_active().sub(1);
        self.kind_active.sub(1);
    }
}

/// Sends one mux-wrapped message under the shared writer lock. Workers call
/// this only when they hold a credit (or for credit-exempt control frames),
/// so the lock is held for one fragment's socket write at a time.
fn send_mux(
    writer: &Mutex<ConnWriter>,
    stream_id: u32,
    message: &Message,
) -> Result<(), VssError> {
    let mut writer = writer.lock().expect("writer lock");
    write_mux_message(&mut *writer, stream_id, message)?;
    writer.flush().map_err(io_error)
}

/// Sends a plain (un-muxed) frame under the shared writer lock — credit
/// grants and resets, which carry their stream id themselves.
fn send_plain(writer: &Mutex<ConnWriter>, message: &Message) -> Result<(), VssError> {
    let mut writer = writer.lock().expect("writer lock");
    write_message(&mut *writer, message)?;
    writer.flush().map_err(io_error)
}

/// Sends one per-stream reset carrying the typed error that ended it.
fn send_reset(
    writer: &Mutex<ConnWriter>,
    stream_id: u32,
    error: WireError,
) -> Result<(), VssError> {
    metrics::mux_resets().incr();
    send_plain(writer, &Message::MuxReset { stream_id, error: Some(error) })
}

/// Answers a frame for an unknown (or just-closed) stream with a typed
/// per-stream reset — never by dropping the connection, so a reset that
/// races a late data frame cannot take down the client's other streams.
fn reset_unknown_stream(
    writer: &Mutex<ConnWriter>,
    stream_id: u32,
    what: &str,
) -> Result<(), VssError> {
    send_reset(
        writer,
        stream_id,
        WireError::protocol(format!("{what} for unknown or closed stream {stream_id}")),
    )
}

/// The request loop: one dispatcher thread routes every inbound frame — mux
/// opens spawn per-stream workers, data frames feed ingest queues, credit
/// grants top up [`StreamCtl`]s, resets tear streams down — and serves the
/// unary control-plane operations inline. All streams share the
/// connection's one [`Session`]: admission is per client, not per stream.
fn serve_mux_connection(
    inner: &Arc<NetInner>,
    session: &Arc<Session>,
    reader: &mut ConnReader,
    writer: ConnWriter,
) {
    let writer = Arc::new(Mutex::new(writer));
    let mut streams: HashMap<u32, ServerStream> = HashMap::new();
    // The loop ends on disconnect (or garbage) — tear the connection down.
    while let Ok(envelope) = read_envelope(reader) {
        // Reap workers that finished on their own (stream ran to its end);
        // their map entries only exist to route late credit/reset frames.
        let finished: Vec<u32> =
            streams.iter().filter(|(_, s)| s.worker.is_finished()).map(|(id, _)| *id).collect();
        for id in finished {
            if let Some(stream) = streams.remove(&id) {
                let _ = stream.worker.join();
            }
        }
        let _scope = envelope
            .request_id
            .map(|id| vss_telemetry::trace_scope(id, envelope.parent_span_id));
        let outcome = match envelope.message {
            Message::Mux { stream_id, inner: frame } => {
                dispatch_mux_frame(inner, session, &writer, &mut streams, stream_id, *frame)
            }
            // A grant for a stream the dispatcher no longer holds is late, not
            // wrong: the client returns a credit for every fragment it
            // consumes, the last one included, and that one usually lands
            // after the finished worker was reaped. It is ignored, as the
            // client's demultiplexer ignores frames for streams it dropped.
            Message::MuxCredit { stream_id, frames } => {
                if let Some(stream) = streams.get(&stream_id) {
                    stream.ctl.grant(frames);
                }
                Ok(())
            }
            Message::MuxReset { stream_id, .. } => {
                metrics::mux_resets().incr();
                // Resets are idempotent: an unknown id just means the stream
                // already ended (the reset raced its terminal frame).
                if let Some(stream) = streams.remove(&stream_id) {
                    stream.stop();
                }
                Ok(())
            }
            // --- control plane: unary operations, served inline -----------
            Message::Create { name, budget } => {
                let _span = vss_telemetry::span("net", "create", name.as_str());
                reply_unit(
                    &mut writer.lock().expect("writer lock"),
                    session.create(&name, budget),
                )
            }
            Message::Delete { name } => {
                let _span = vss_telemetry::span("net", "delete", name.as_str());
                reply_unit(&mut writer.lock().expect("writer lock"), session.delete(&name))
            }
            Message::Metadata { name } => {
                let _span = vss_telemetry::span("net", "metadata", name.as_str());
                let reply = match session.metadata(&name) {
                    Ok(metadata) => Message::MetadataReply(metadata),
                    Err(error) => Message::Error(WireError::from_error(&error)),
                };
                send_plain(&writer, &reply)
            }
            Message::AdminRequest { topic, arg } => {
                let _span = vss_telemetry::span("net", "admin", "");
                let reply = match admin_table(topic, arg) {
                    Ok(table) => Message::AdminTable(table),
                    Err(error) => Message::Error(WireError::from_error(&error)),
                };
                send_plain(&writer, &reply)
            }
            Message::StatsPageRequest { start, max } => {
                let _span = vss_telemetry::span("net", "stats_page", "");
                let snapshot = vss_telemetry::snapshot();
                let (total, page) = snapshot_page(&snapshot, start, max);
                send_plain(&writer, &Message::StatsPage { total, start, snapshot: page })
            }
            other => send_plain(
                &writer,
                &Message::Error(WireError::protocol(format!(
                    "unexpected message {} outside any operation",
                    other.kind_name()
                ))),
            ),
        };
        if outcome.is_err() {
            break; // transport failure: connection is gone
        }
    }
    // Teardown: cancel every live stream (waking credit waits and closing
    // ingest queues) **before** joining, so no worker is joined while it can
    // still block — an unfinished ingest aborts, leaving only fully
    // persisted GOPs.
    let remaining: Vec<ServerStream> = streams.into_values().collect();
    for stream in &remaining {
        stream.ctl.cancel();
    }
    for stream in remaining {
        stream.stop();
    }
}

/// Routes one inbound mux frame: opens a stream for the four opener
/// messages, feeds ingest queues, and answers anything unroutable with a
/// per-stream reset (never a connection abort).
fn dispatch_mux_frame(
    inner: &Arc<NetInner>,
    session: &Arc<Session>,
    writer: &Arc<Mutex<ConnWriter>>,
    streams: &mut HashMap<u32, ServerStream>,
    stream_id: u32,
    frame: Message,
) -> Result<(), VssError> {
    let drop_stream = |streams: &mut HashMap<u32, ServerStream>| {
        streams.remove(&stream_id).expect("present above").stop();
    };
    if let Some(stream) = streams.get(&stream_id) {
        let Some(sender) = stream.ingest.as_ref() else {
            // Client data frames are only valid on ingest streams.
            let what = frame.kind_name();
            drop_stream(streams);
            return reset_unknown_stream(writer, stream_id, what);
        };
        let item = match frame {
            Message::WriteChunk { frames } => {
                let bytes: u64 = frames.iter().map(|f| f.byte_len() as u64).sum();
                IngestFrame::Chunk { frames, guard: inner.server.track_in_flight(bytes) }
            }
            Message::WriteFinish => IngestFrame::Finish,
            Message::WriteAbort => IngestFrame::Abort,
            other => {
                let what = other.kind_name();
                drop_stream(streams);
                return reset_unknown_stream(writer, stream_id, what);
            }
        };
        if sender.try_send(item).is_err() {
            // The client overran its write window (or the worker died): a
            // blocking send here would let one stream stall the whole
            // dispatcher, so the stream is reset instead.
            drop_stream(streams);
            return send_reset(
                writer,
                stream_id,
                WireError::protocol(format!(
                    "stream {stream_id} overran its {SERVER_WRITE_WINDOW}-frame write window"
                )),
            );
        }
        return Ok(());
    }
    // Unknown id: the four opener messages start a new stream; anything else
    // is a late frame for a closed stream — typed per-stream reset.
    match frame {
        opener @ (Message::OpenReadStream { .. }
        | Message::WriteBegin { .. }
        | Message::AppendBegin { .. }
        | Message::Subscribe { .. }) => {
            if streams.len() >= MAX_MUX_STREAMS {
                return send_reset(
                    writer,
                    stream_id,
                    WireError::from_error(&VssError::Overloaded(format!(
                        "connection already has {MAX_MUX_STREAMS} open streams"
                    ))),
                );
            }
            let stream = spawn_mux_stream(inner, session, writer, stream_id, opener);
            streams.insert(stream_id, stream);
            Ok(())
        }
        other => reset_unknown_stream(writer, stream_id, other.kind_name()),
    }
}

/// Spawns the worker thread for one newly opened stream.
fn spawn_mux_stream(
    inner: &Arc<NetInner>,
    session: &Arc<Session>,
    writer: &Arc<Mutex<ConnWriter>>,
    stream_id: u32,
    opener: Message,
) -> ServerStream {
    // The stream's kind label (`read`/`write`/`sub`) and target video.
    let (kind, target) = match &opener {
        Message::OpenReadStream { request } => ("read", request.name.as_str()),
        Message::WriteBegin { request, .. } => ("write", request.name.as_str()),
        Message::AppendBegin { name, .. } => ("write", name.as_str()),
        Message::Subscribe { name, .. } => ("sub", name.as_str()),
        _ => unreachable!("spawn_mux_stream is only called for opener messages"),
    };
    // The dispatch stage is its own `net`-layer span: it parents the worker
    // span below, so a traced request's tree reads client → dispatch →
    // worker → shard lock / engine.
    let _dispatch_span = vss_telemetry::span("net", "dispatch", target);
    metrics::mux_streams_opened().incr();
    vss_telemetry::counter_with("net.mux.streams_opened", &[("kind", kind)]).incr();
    let kind_active = vss_telemetry::gauge_with("net.mux.streams_active", &[("kind", kind)]);
    metrics::mux_streams_active().add(1);
    kind_active.add(1);
    let ctl = Arc::new(StreamCtl::new(kind));
    let (ingest, receiver) = match &opener {
        Message::WriteBegin { .. } | Message::AppendBegin { .. } => {
            // Window-sized queue plus slack for the credit-exempt terminal
            // frame: a client honoring its window never sees the queue full.
            let (tx, rx) = sync_channel(SERVER_WRITE_WINDOW as usize + 2);
            (Some(tx), Some(rx))
        }
        _ => (None, None),
    };
    let worker = {
        let inner = Arc::clone(inner);
        let session = Arc::clone(session);
        let writer = Arc::clone(writer);
        let ctl = Arc::clone(&ctl);
        // The dispatcher's envelope scope is active here but thread-locals
        // don't cross the spawn: carry the request id *and* the current
        // parent span (the dispatch span above) into the worker so its spans
        // join the caller's trace as children of the dispatch stage.
        let request_id = vss_telemetry::current_request_id();
        let parent_span = vss_telemetry::current_parent_span();
        std::thread::spawn(move || {
            let _scope = request_id.map(|id| vss_telemetry::trace_scope(id, parent_span));
            let _guard = StreamGuard { kind_active };
            match opener {
                Message::OpenReadStream { request } => {
                    let span = vss_telemetry::span("net", "read_stream", request.name.as_str());
                    mux_read_worker(&inner, &session, &writer, stream_id, &ctl, &request, span);
                }
                Message::WriteBegin { request, frame_rate } => {
                    let span = vss_telemetry::span("net", "write", request.name.as_str());
                    let receiver = receiver.expect("ingest queue");
                    let opened = session.write_sink(&request, frame_rate).map(|sink| {
                        (Message::WriteReady { gop_size: sink.gop_size() as u64 }, sink)
                    });
                    mux_ingest_worker(&writer, stream_id, opened, &receiver, span);
                }
                Message::AppendBegin { name, frame_rate } => {
                    let span = vss_telemetry::span("net", "append", name.as_str());
                    let receiver = receiver.expect("ingest queue");
                    // An append is a sink onto the original's timeline.
                    let opened =
                        session.append_sink(&name, frame_rate).map(|sink| (Message::Ok, sink));
                    mux_ingest_worker(&writer, stream_id, opened, &receiver, span);
                }
                Message::Subscribe { name, from } => {
                    let span = vss_telemetry::span("net", "subscribe", name.as_str());
                    mux_subscribe_worker(
                        &inner, &session, &writer, stream_id, &ctl, &name, from, span,
                    );
                }
                _ => unreachable!("spawn_mux_stream is only called for opener messages"),
            }
        })
    };
    ServerStream { ctl, worker, ingest }
}

/// Drains one `Session::read_stream` onto the shared connection,
/// credit-paced per fragment: the worker parks in [`StreamCtl::take_credit`]
/// — not on the socket — when its client stops granting, so a slow stream
/// never holds the writer lock against its siblings.
fn mux_read_worker(
    inner: &Arc<NetInner>,
    session: &Arc<Session>,
    writer: &Mutex<ConnWriter>,
    stream_id: u32,
    ctl: &StreamCtl,
    request: &vss_core::ReadRequest,
    span: vss_telemetry::Span,
) {
    // The span closes *before* the terminal frame goes out: a client that has
    // seen this op's reply must also find the span in its very next stats
    // snapshot, even though the worker thread may not be rescheduled yet.
    let mut span = Some(span);
    let stream = match session.read_stream(request) {
        Ok(stream) => stream,
        Err(error) => {
            span.take();
            let _ = send_mux(writer, stream_id, &Message::Error(WireError::from_error(&error)));
            return;
        }
    };
    let begin = Message::StreamBegin {
        frame_rate: stream.output_frame_rate(),
        compressed: stream.is_compressed(),
    };
    if send_mux(writer, stream_id, &begin).is_err() {
        return;
    }
    for chunk in stream {
        if ctl.is_cancelled() {
            return;
        }
        match chunk {
            Ok(chunk) => {
                for (message, bytes) in chunk_fragments(chunk) {
                    if !ctl.take_credit() {
                        return;
                    }
                    let _in_flight = inner.server.track_in_flight(bytes);
                    if send_mux(writer, stream_id, &message).is_err() {
                        return;
                    }
                }
            }
            Err(error) => {
                // Errors surface in plan order, exactly like a local stream.
                span.take();
                let _ =
                    send_mux(writer, stream_id, &Message::Error(WireError::from_error(&error)));
                return;
            }
        }
    }
    span.take();
    let _ = send_mux(writer, stream_id, &Message::StreamEnd);
}

/// Services one multiplexed write or append over its freshly opened sink
/// (`opened` pairs it with the reply that announces it; an open that failed
/// — missing video, frame-rate mismatch — is answered typed before the
/// client ships the clip): grants the client its write window, then consumes
/// queued chunks GOP-at-a-time — replenishing one credit per dequeued chunk
/// — until finish, abort, or teardown (a closed queue drops the sink, so
/// only fully persisted GOPs remain).
fn mux_ingest_worker(
    writer: &Mutex<ConnWriter>,
    stream_id: u32,
    opened: Result<(Message, WriteSink<'static>), VssError>,
    receiver: &Receiver<IngestFrame>,
    span: vss_telemetry::Span,
) {
    // Closed before any frame that ends the op from the client's point of
    // view (Error / WriteReport), so the span is visible to a snapshot taken
    // right after the reply — see `mux_read_worker`.
    let mut span = Some(span);
    let mut sink = match opened {
        Ok((ready, sink)) => {
            if send_mux(writer, stream_id, &ready).is_err() {
                return;
            }
            sink
        }
        Err(error) => {
            span.take();
            let _ = send_mux(writer, stream_id, &Message::Error(WireError::from_error(&error)));
            return;
        }
    };
    if send_plain(writer, &Message::MuxCredit { stream_id, frames: SERVER_WRITE_WINDOW }).is_err()
    {
        return;
    }
    let mut failed = false;
    loop {
        let Ok(item) = receiver.recv() else {
            return; // reset or teardown: drop the sink, aborting it
        };
        match item {
            IngestFrame::Chunk { frames, guard } => {
                // The queue slot is free: replenish the window immediately so
                // the client ships the next chunk while this one persists.
                // Credits keep flowing after a failure too — the client may
                // be blocked on its window on the way to its finish.
                if send_plain(writer, &Message::MuxCredit { stream_id, frames: 1 }).is_err() {
                    return;
                }
                if failed {
                    continue; // discard until the client finishes or aborts
                }
                let _in_flight = guard;
                for frame in frames {
                    if let Err(error) = sink.push_frame(frame) {
                        span.take();
                        let reply = Message::Error(WireError::from_error(&error));
                        if send_mux(writer, stream_id, &reply).is_err() {
                            return;
                        }
                        failed = true;
                        break;
                    }
                }
            }
            IngestFrame::Finish => {
                if !failed {
                    let reply = match sink.finish() {
                        Ok(report) => Message::WriteReport(WireWriteReport::from_report(&report)),
                        Err(error) => Message::Error(WireError::from_error(&error)),
                    };
                    span.take();
                    let _ = send_mux(writer, stream_id, &reply);
                }
                return;
            }
            IngestFrame::Abort => return, // drop the sink: abort
        }
    }
}

/// Services one multiplexed live subscription: relays hub events
/// credit-paced, so a stalled feed consumer parks here (hub lag policy
/// absorbing the overflow) while sibling streams keep flowing. A departed
/// client sends `MuxReset`; the cancel flag is checked every idle tick.
#[allow(clippy::too_many_arguments)]
fn mux_subscribe_worker(
    inner: &Arc<NetInner>,
    session: &Arc<Session>,
    writer: &Mutex<ConnWriter>,
    stream_id: u32,
    ctl: &StreamCtl,
    name: &str,
    from: SubscribeFrom,
    span: vss_telemetry::Span,
) {
    // Closed before the terminal frame — see `mux_read_worker`.
    let mut span = Some(span);
    let mut subscription = session.subscribe(name, from);
    if send_mux(writer, stream_id, &Message::Ok).is_err() {
        return;
    }
    loop {
        if ctl.is_cancelled() {
            return;
        }
        if inner.stop.load(Ordering::SeqCst) {
            span.take();
            let _ = send_mux(writer, stream_id, &Message::SubEnd);
            return;
        }
        match subscription.next_timeout(std::time::Duration::from_millis(100)) {
            Ok(Some(SubEvent::Gop(gop))) => {
                if !ctl.take_credit() {
                    return;
                }
                let bytes = gop.gop.byte_len() as u64;
                let message = Message::SubChunk {
                    seq: gop.seq,
                    start_time: gop.start_time,
                    end_time: gop.end_time,
                    frame_rate: gop.frame_rate,
                    frame_count: gop.frame_count as u64,
                    gop: (*gop.gop).clone(),
                };
                let _in_flight = inner.server.track_in_flight(bytes);
                if send_mux(writer, stream_id, &message).is_err() {
                    return;
                }
            }
            Ok(Some(SubEvent::Gap { from_seq, to_seq })) => {
                if !ctl.take_credit() {
                    return;
                }
                let message = Message::SubGap { from_seq, to_seq };
                if send_mux(writer, stream_id, &message).is_err() {
                    return;
                }
            }
            Ok(Some(SubEvent::End)) => {
                span.take();
                let _ = send_mux(writer, stream_id, &Message::SubEnd);
                return;
            }
            Ok(None) => {} // idle tick: re-check cancellation and shutdown
            Err(error) => {
                span.take();
                let _ =
                    send_mux(writer, stream_id, &Message::Error(WireError::from_error(&error)));
                return;
            }
        }
    }
}
