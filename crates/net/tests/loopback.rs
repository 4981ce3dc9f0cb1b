//! End-to-end loopback coverage of the protocol flows: the handshake's
//! version check, unary operations, streaming reads/writes, typed errors
//! (including admission shed), cancellation and shutdown.

use std::io::{BufReader, Read};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;
use vss_codec::Codec;
use vss_core::{ReadRequest, VideoStorage, VssConfig, VssError, WriteRequest};
use vss_frame::{pattern, FrameSequence, PixelFormat};
use vss_net::wire::{self, read_message, write_message, Message, PROTOCOL_MAGIC};
use vss_net::{NetServer, RemoteStore};
use vss_server::{ServerConfig, VssServer};

fn temp_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!(
        "vss-net-loopback-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn sequence(frames: usize, seed: u64) -> FrameSequence {
    let frames: Vec<_> = (0..frames)
        .map(|i| pattern::gradient(48, 36, PixelFormat::Yuv420, seed + i as u64))
        .collect();
    FrameSequence::new(frames, 30.0).unwrap()
}

#[test]
fn full_contract_round_trips_over_loopback() {
    let root = temp_root("contract");
    let server = VssServer::open_sharded(VssConfig::new(&root), 2).unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();
    let mut store = RemoteStore::connect(net.local_addr()).unwrap();
    assert_eq!(store.label(), "vss-net");

    // create / write / append / metadata
    store.create("cam", None).unwrap();
    let clip = sequence(75, 0);
    let report = store.write(&WriteRequest::new("cam", Codec::H264), &clip).unwrap();
    assert_eq!(report.frames_written, 75);
    assert_eq!(report.gops_written, 3);
    let appended = store.append("cam", &sequence(30, 75)).unwrap();
    assert_eq!(appended.frames_written, 30);
    let metadata = store.metadata("cam").unwrap();
    assert!(metadata.bytes_used > 0);
    let (start, end) = metadata.time_range.unwrap();
    assert!(start == 0.0 && end > 3.0);

    // Materialized read and streamed read agree with the in-process session.
    let request = ReadRequest::new("cam", 0.0, 2.5, Codec::Hevc).uncacheable();
    let local = server.session().read(&request).unwrap();
    let remote = store.read(&request).unwrap();
    assert_eq!(remote.frames.frames(), local.frames.frames());
    let remote_gops: Vec<Vec<u8>> =
        remote.encoded.iter().flatten().map(|g| g.to_bytes()).collect();
    let local_gops: Vec<Vec<u8>> =
        local.encoded.iter().flatten().map(|g| g.to_bytes()).collect();
    assert_eq!(remote_gops, local_gops);
    assert!(remote.stats.gops_read > 0, "chunk deltas accumulate into stream stats");
    assert!(remote.stats.bytes_read > 0);

    // Incremental write over the wire: byte-identical report to a local
    // batch write of the same frames on a fresh name.
    let mut sink = store.write_sink(&WriteRequest::new("sink", Codec::H264), 30.0).unwrap();
    for frame in clip.frames() {
        sink.push_frame(frame.clone()).unwrap();
    }
    let sink_report = sink.finish().unwrap();
    assert_eq!(sink_report.gops_written, report.gops_written);
    assert_eq!(sink_report.bytes_written, report.bytes_written);
    assert_eq!(sink_report.deferred_levels, report.deferred_levels);

    // Typed errors cross the wire: the top-level variant is preserved (a
    // missing video surfaces from the engine as a catalog error, exactly as
    // it does locally) and the display text survives.
    let missing = store.read(&ReadRequest::new("missing", 0.0, 1.0, Codec::H264)).unwrap_err();
    assert!(matches!(missing, VssError::Catalog(_)), "got {missing:?}");
    assert!(missing.to_string().contains("missing"));
    assert!(matches!(
        store.read(&ReadRequest::new("cam", 0.0, 99.0, Codec::H264)),
        Err(VssError::OutOfRange { requested_end, .. }) if requested_end == 99.0
    ));
    let duplicate = store.create("cam", None).unwrap_err();
    assert!(duplicate.to_string().contains("cam"), "got {duplicate:?}");

    store.delete("cam").unwrap();
    assert!(store.metadata("cam").is_err());

    net.shutdown();
    drop(store);
    assert!(server.shutdown(Duration::from_secs(10)), "drained after network shutdown");
    let _ = std::fs::remove_dir_all(root);
}

/// A client offering an older protocol version is refused during the
/// handshake with a typed protocol error naming the one supported version,
/// then sees EOF — and the refusal happens **before** admission, so it never
/// consumes the server's single session slot.
#[test]
fn hellos_below_the_protocol_version_are_refused_before_admission() {
    let root = temp_root("old-hello");
    let server = VssServer::open_configured(
        VssConfig::new(&root),
        1,
        ServerConfig { max_concurrent_sessions: 1, ..ServerConfig::default() },
    )
    .unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();

    // Both refused sockets stay open until the real client below has been
    // admitted: had either taken the slot, that connect would be shed.
    let mut refused = Vec::new();
    for version in [1u16, 2] {
        let mut socket = TcpStream::connect(net.local_addr()).unwrap();
        socket.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write_message(&mut socket, &Message::Hello { magic: PROTOCOL_MAGIC, version }).unwrap();
        let mut reader = BufReader::new(socket);
        match read_message(&mut reader).unwrap() {
            Message::Error(error) => {
                assert_eq!(error.code, wire::code::PROTOCOL, "typed protocol error: {error:?}");
                assert!(
                    error.message.contains(&format!("version {version}"))
                        && error.message.contains("speaks 3"),
                    "refusal names both versions: {}",
                    error.message
                );
            }
            other => panic!("Hello at version {version} answered with {}", other.kind_name()),
        }
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "EOF follows the refusal");
        refused.push(reader);
    }
    assert_eq!(server.rejected_sessions(), 0, "refused before the admission gate");

    let mut store = RemoteStore::connect(net.local_addr()).unwrap();
    store.create("cam", None).unwrap();
    drop(refused);

    net.shutdown();
    drop(store);
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}

/// A peer that acknowledges the handshake at another version is not a
/// server this client can talk to: `connect` fails with a typed protocol
/// error instead of hanging or limping along.
#[test]
fn a_hello_ack_at_another_version_fails_the_connect() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        let hello = read_message(&mut BufReader::new(socket.try_clone().unwrap())).unwrap();
        assert!(matches!(hello, Message::Hello { magic: PROTOCOL_MAGIC, version: 3 }));
        write_message(&mut socket, &Message::HelloAck { version: 2, session: 7 }).unwrap();
        // Hold the socket open until the client hangs up, so a client that
        // wrongly waited for more would block here rather than see EOF.
        let _ = socket.read(&mut [0u8; 1]);
    });
    match RemoteStore::connect(addr) {
        Err(VssError::Remote { code, message }) => {
            assert_eq!(code, wire::code::PROTOCOL);
            assert!(message.contains("version 2"), "error names the bad version: {message}");
        }
        other => panic!("expected a typed protocol error, got {other:?}"),
    }
    fake.join().unwrap();
}

/// Two clients, each on its one multiplexed connection, run the full data
/// plane against the same server at the same time, and each sees exactly the
/// bytes the in-process engine produces.
#[test]
fn two_clients_share_a_server_concurrently() {
    let root = temp_root("two-clients");
    let server = VssServer::open_sharded(VssConfig::new(&root), 2).unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();
    let addr = net.local_addr();

    let clients: Vec<_> = [1u64, 2]
        .into_iter()
        .map(|client| {
            std::thread::spawn(move || {
                let mut store = RemoteStore::connect(addr).unwrap();
                let name = format!("cam-{client}");
                let clip = sequence(75, client);
                store.create(&name, None).unwrap();
                let report = store.write(&WriteRequest::new(&name, Codec::H264), &clip).unwrap();
                assert_eq!(report.frames_written, 75);
                store.append(&name, &sequence(30, 100 + client)).unwrap();

                let request = ReadRequest::new(&name, 0.0, 2.5, Codec::Hevc).uncacheable();
                let remote = store.read(&request).unwrap();
                assert_eq!(remote.frames.len(), 75);

                // Incremental sink, plus a half-consumed stream dropped early.
                let sink_name = format!("sink-{client}");
                let mut sink =
                    store.write_sink(&WriteRequest::new(&sink_name, Codec::H264), 30.0).unwrap();
                for frame in clip.frames() {
                    sink.push_frame(frame.clone()).unwrap();
                }
                assert_eq!(sink.finish().unwrap().gops_written, report.gops_written);
                let mut stream = store
                    .read_stream(&ReadRequest::new(&name, 0.0, 3.0, Codec::Hevc).uncacheable())
                    .unwrap();
                stream.next().unwrap().unwrap();
                drop(stream);
                assert!(store.metadata(&name).unwrap().bytes_used > 0);
                (name, request)
            })
        })
        .collect();
    for client in clients {
        let (name, request) = client.join().expect("client panicked");
        // Each client's store content matches the in-process engine's view.
        let local = server.session().read(&request).unwrap();
        assert_eq!(local.frames.len(), 75, "{name} diverged");
    }

    net.shutdown();
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn admission_shed_surfaces_as_overloaded_and_cancellation_aborts_cleanly() {
    let root = temp_root("admission");
    let server = VssServer::open_configured(
        VssConfig::new(&root),
        2,
        ServerConfig { max_concurrent_sessions: 2, ..ServerConfig::default() },
    )
    .unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();

    // A dropped client's session frees up asynchronously (the handler
    // observes the closed socket), so a real client backs off and retries on
    // Overloaded; these helpers do the same.
    fn retry<T>(mut op: impl FnMut() -> Result<T, VssError>) -> T {
        for _ in 0..500 {
            match op() {
                Ok(value) => return value,
                Err(VssError::Overloaded(_)) => std::thread::sleep(Duration::from_millis(10)),
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        panic!("operation stayed Overloaded for 5 seconds");
    }

    let mut first = RemoteStore::connect(net.local_addr()).unwrap();
    let second = retry(|| RemoteStore::connect(net.local_addr()));
    // Two connections hold both slots; every further dial is shed with a
    // typed Overloaded, and the server counts exactly those sheds.
    for _ in 0..4 {
        match RemoteStore::connect(net.local_addr()) {
            Err(VssError::Overloaded(_)) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }
    assert_eq!(server.rejected_sessions(), 4, "the limit admits exactly the configured count");
    drop(second);

    retry(|| first.write(&WriteRequest::new("cam", Codec::H264), &sequence(150, 0)));

    // Dropping a half-consumed remote stream resets just that stream; the
    // server aborts the drain and the store's connection stays usable.
    let mut stream = retry(|| {
        first.read_stream(&ReadRequest::new("cam", 0.0, 5.0, Codec::Hevc).uncacheable())
    });
    stream.next().unwrap().unwrap();
    drop(stream);

    // Aborting a remote sink mid-clip leaves only fully persisted GOPs.
    // (Explicit loop: the sink borrows the store, so it cannot escape the
    // retry closure.)
    let mut sink = loop {
        match first.write_sink(&WriteRequest::new("aborted", Codec::H264), 30.0) {
            Ok(sink) => break sink,
            Err(VssError::Overloaded(_)) => std::thread::sleep(Duration::from_millis(10)),
            Err(other) => panic!("unexpected write_sink error: {other:?}"),
        }
    };
    for frame in sequence(70, 9).frames() {
        sink.push_frame(frame.clone()).unwrap();
    }
    drop(sink);
    // Follow-up traffic on the same store still works and sees whole GOPs.
    let full =
        retry(|| first.read(&ReadRequest::new("cam", 0.0, 5.0, Codec::H264).uncacheable()));
    assert_eq!(full.frames.len(), 150);
    if let Ok(metadata) = first.metadata("aborted") {
        let (start, end) = metadata.time_range.unwrap();
        let persisted = first
            .read(
                &ReadRequest::new("aborted", start, end, Codec::Raw(PixelFormat::Yuv420))
                    .uncacheable(),
            )
            .unwrap();
        assert_eq!(persisted.frames.len() % 30, 0, "aborted remote sink left a partial GOP");
    }

    net.shutdown();
    drop(first);
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}

/// Every file under `root`, by relative path — the whole on-disk store.
fn store_pages(root: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut pages = Vec::new();
    let mut pending = vec![root.to_path_buf()];
    while let Some(dir) = pending.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let relative = path.strip_prefix(root).unwrap().to_string_lossy().into_owned();
                pages.push((relative, std::fs::read(&path).unwrap()));
            }
        }
    }
    pages.sort();
    pages
}

/// `AppendBegin` carries a client-chosen frame rate and the chunks carry
/// client-chosen frames: an append that does not match the original's
/// resolution or frame rate is refused with the typed frame error before
/// anything is persisted, and the video stays readable.
#[test]
fn a_mismatched_wire_append_is_refused_typed_and_persists_nothing() {
    let root = temp_root("append-shape");
    let server = VssServer::open_sharded(VssConfig::new(&root), 2).unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();
    let mut store = RemoteStore::connect(net.local_addr()).unwrap();
    store.write(&WriteRequest::new("cam", Codec::H264), &sequence(60, 0)).unwrap();
    let before = store_pages(&root);

    let small: Vec<_> =
        (0..30).map(|i| pattern::gradient(24, 18, PixelFormat::Yuv420, i)).collect();
    let wrong_resolution = store.append("cam", &FrameSequence::new(small, 30.0).unwrap());
    let wrong_rate =
        store.append("cam", &FrameSequence::new(sequence(30, 60).into_frames(), 15.0).unwrap());
    for (refused, text) in [(wrong_resolution, "resolution"), (wrong_rate, "frame rate")] {
        match refused {
            Err(VssError::Remote { code, message }) => {
                assert_eq!(code, wire::code::FRAME, "typed frame error: {message}");
                assert!(message.contains(text), "error names the mismatch: {message}");
            }
            other => panic!("expected a typed frame error, got {other:?}"),
        }
    }
    assert_eq!(store_pages(&root), before, "a refused append leaves the store untouched");

    let read = store.read(&ReadRequest::new("cam", 0.0, 2.0, Codec::H264).uncacheable()).unwrap();
    assert_eq!(read.frames.len(), 60);
    // The connection and the video both still take a well-formed append.
    store.append("cam", &sequence(30, 60)).unwrap();
    assert_eq!(store.metadata("cam").unwrap().time_range, Some((0.0, 3.0)));

    net.shutdown();
    drop(store);
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}

/// A wire append is a sink: the server persists it GOP-at-a-time instead of
/// buffering the clip, so an append several times larger than 100 kB goes
/// through — and leaves exactly the files a local append of the same frames
/// leaves.
#[test]
fn an_oversized_wire_append_matches_a_local_append() {
    let head = sequence(60, 0);
    let tail = sequence(150, 60);
    let tail_bytes: usize = tail.frames().iter().map(|f| f.byte_len()).sum();
    let limit = 100_000u64;
    assert!(tail_bytes as u64 > 3 * limit, "the append is several times the limit");

    let local_root = temp_root("append-local");
    let local = VssServer::open_sharded(VssConfig::new(&local_root), 2).unwrap();
    let session = local.session();
    session.write(&WriteRequest::new("cam", Codec::H264), &head).unwrap();
    let local_report = session.append("cam", &tail).unwrap();
    drop(session);
    assert!(local.shutdown(Duration::from_secs(10)));

    let root = temp_root("append-oversize");
    let server = VssServer::open_sharded(VssConfig::new(&root), 2).unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();
    let mut store = RemoteStore::connect(net.local_addr()).unwrap();
    store.write(&WriteRequest::new("cam", Codec::H264), &head).unwrap();
    let report = store.append("cam", &tail).unwrap();
    assert_eq!(report.frames_written, 150);
    assert_eq!(report.gops_written, local_report.gops_written);
    assert_eq!(report.bytes_written, local_report.bytes_written);
    assert_eq!(server.in_flight_bytes(), 0, "every chunk's guard was released");
    net.shutdown();
    drop(store);
    assert!(server.shutdown(Duration::from_secs(10)));

    assert_eq!(store_pages(&root), store_pages(&local_root), "wire and local appends diverged");
    let _ = std::fs::remove_dir_all(root);
    let _ = std::fs::remove_dir_all(local_root);
}

/// A wire append reset mid-transfer has sink abort semantics, exactly like
/// an aborted `WriteBegin`: the GOPs that filled are persisted and readable,
/// the partial GOP is discarded. (Raw socket: `RemoteStore::append` cannot
/// be interrupted half way.)
#[test]
fn a_wire_append_reset_mid_transfer_leaves_only_whole_gops() {
    let root = temp_root("append-abort");
    let server = VssServer::open_sharded(VssConfig::new(&root), 2).unwrap();
    server.session().write(&WriteRequest::new("cam", Codec::H264), &sequence(60, 0)).unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();

    let mut socket = TcpStream::connect(net.local_addr()).unwrap();
    socket.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = BufReader::new(socket.try_clone().unwrap());
    write_message(&mut socket, &Message::Hello { magic: PROTOCOL_MAGIC, version: 3 }).unwrap();
    assert!(matches!(read_message(&mut reader).unwrap(), Message::HelloAck { version: 3, .. }));

    let begin = Message::AppendBegin { name: "cam".into(), frame_rate: 30.0 };
    wire::write_mux_message(&mut socket, 1, &begin).unwrap();
    match read_message(&mut reader).unwrap() {
        Message::Mux { stream_id: 1, inner } => assert!(matches!(*inner, Message::Ok)),
        other => panic!("append-begin answered with {}", other.kind_name()),
    }
    match read_message(&mut reader).unwrap() {
        Message::MuxCredit { stream_id: 1, frames } => assert!(frames >= 1),
        other => panic!("expected the write window, got {}", other.kind_name()),
    }
    // Two full GOPs and ten frames of a third, then a reset instead of a
    // finish. The dispatcher joins the stream's worker while handling the
    // reset, so the metadata reply below sees the final state.
    wire::write_mux_chunk_message(&mut socket, 1, sequence(70, 60).frames()).unwrap();
    write_message(&mut socket, &Message::MuxReset { stream_id: 1, error: None }).unwrap();
    write_message(&mut socket, &Message::Metadata { name: "cam".into() }).unwrap();
    let metadata = loop {
        match read_message(&mut reader).unwrap() {
            Message::MuxCredit { .. } => continue,
            Message::MetadataReply(metadata) => break metadata,
            other => panic!("unexpected {} after the reset", other.kind_name()),
        }
    };
    assert_eq!(metadata.time_range, Some((0.0, 4.0)), "the two whole GOPs persisted");
    drop((socket, reader));

    let read = server
        .session()
        .read(&ReadRequest::new("cam", 0.0, 4.0, Codec::H264).uncacheable())
        .unwrap();
    assert_eq!(read.frames.len(), 120, "whole GOPs only, all readable");

    net.shutdown();
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}
