//! End-to-end loopback coverage of the protocol flows: unary operations,
//! streaming reads/writes, typed errors (including admission shed and
//! refused handshakes), cancellation and shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use vss_codec::Codec;
use vss_core::{ReadRequest, VideoStorage, VssConfig, VssError, WriteRequest};
use vss_frame::{pattern, FrameSequence, PixelFormat};
use vss_net::wire::{
    code, encode_message, read_message, write_message, Message, PROTOCOL_MAGIC, PROTOCOL_VERSION,
};
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

/// Dials the server over a raw socket (no `RemoteStore`), with a read
/// timeout so a server that hangs fails the test instead of wedging it.
fn raw_socket(addr: std::net::SocketAddr) -> TcpStream {
    let socket = TcpStream::connect(addr).unwrap();
    socket.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    socket
}

/// Sends one raw length-prefixed payload.
fn send_payload(socket: &mut TcpStream, payload: &[u8]) {
    socket.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
    socket.write_all(payload).unwrap();
}

/// Completes a version-3 handshake on a raw socket.
fn raw_handshake(socket: &mut TcpStream) {
    write_message(socket, &Message::Hello { magic: PROTOCOL_MAGIC, version: PROTOCOL_VERSION })
        .unwrap();
    match read_message(socket).unwrap() {
        Message::HelloAck { version, .. } => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

/// Asserts the server closed `socket`: a read sees EOF (or a reset) before
/// the read timeout, never a hang.
fn assert_closed(socket: &mut TcpStream, what: &str) {
    let mut byte = [0u8; 1];
    match socket.read(&mut byte) {
        Ok(0) => {}
        Err(error) if error.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("{what}: expected EOF, got {other:?}"),
    }
}

/// The server speaks protocol version 3 only. Older `Hello`s are refused
/// with a typed error before admission; a streaming opener sent outside a
/// mux frame is refused per request without ending the connection; and a
/// payload in a retired envelope or kind ends just its own connection.
#[test]
fn pre_v3_hellos_and_retired_frames_get_typed_refusals() {
    let root = temp_root("refusal");
    let server = VssServer::open_sharded(VssConfig::new(&root), 1).unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();
    let addr = net.local_addr();

    // (a) Version-1 and version-2 hellos get a typed PROTOCOL error naming
    // version 3, then EOF; no session is ever admitted for them.
    for version in [1u16, 2] {
        let mut socket = raw_socket(addr);
        write_message(&mut socket, &Message::Hello { magic: PROTOCOL_MAGIC, version }).unwrap();
        match read_message(&mut socket).unwrap() {
            Message::Error(error) => {
                assert_eq!(error.code, code::PROTOCOL, "{error:?}");
                assert!(error.message.contains("version 3"), "{}", error.message);
            }
            other => panic!("version {version}: expected a typed refusal, got {other:?}"),
        }
        assert_closed(&mut socket, "refused hello");
        assert_eq!(server.active_sessions(), 0, "version {version} was admitted");
    }

    let mut store = RemoteStore::connect(addr).unwrap();
    store.write(&WriteRequest::new("cam", Codec::H264), &sequence(30, 0)).unwrap();

    // (b) A plain OpenReadStream outside any Mux frame is a typed error,
    // and the same connection still answers the next unary request.
    let mut socket = raw_socket(addr);
    raw_handshake(&mut socket);
    let open = Message::OpenReadStream { request: ReadRequest::new("cam", 0.0, 1.0, Codec::H264) };
    write_message(&mut socket, &open).unwrap();
    match read_message(&mut socket).unwrap() {
        Message::Error(error) => {
            assert_eq!(error.code, code::PROTOCOL, "{error:?}");
            assert!(error.message.contains("outside any operation"), "{}", error.message);
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    write_message(&mut socket, &Message::Metadata { name: "cam".into() }).unwrap();
    match read_message(&mut socket).unwrap() {
        Message::MetadataReply(metadata) => assert!(metadata.bytes_used > 0),
        other => panic!("expected MetadataReply, got {other:?}"),
    }
    drop(socket);

    // (c) The retired request-id envelope (0x7F) and the retired one-frame
    // stats request (0x0B) end only their own connection.
    let body = encode_message(&Message::Metadata { name: "cam".into() });
    let mut tagged = vec![0x7f];
    tagged.extend_from_slice(&42u64.to_le_bytes());
    tagged.extend_from_slice(&body);
    for payload in [tagged, vec![0x0b]] {
        let mut socket = raw_socket(addr);
        raw_handshake(&mut socket);
        send_payload(&mut socket, &payload);
        assert_closed(&mut socket, &format!("payload 0x{:02x}", payload[0]));
    }
    // The server is unharmed: the store's connection still reads.
    let read =
        store.read(&ReadRequest::new("cam", 0.0, 1.0, Codec::Raw(PixelFormat::Yuv420))).unwrap();
    assert_eq!(read.frames.len(), 30);

    net.shutdown();
    drop(store);
    assert!(server.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn admission_shed_surfaces_as_overloaded_and_cancellation_aborts_cleanly() {
    let root = temp_root("admission");
    let server = VssServer::open_configured(
        VssConfig::new(&root).with_readahead(2),
        2,
        ServerConfig { max_concurrent_sessions: 2, ..ServerConfig::default() },
    )
    .unwrap();
    let net = NetServer::bind(server.clone(), "127.0.0.1:0").unwrap();

    // Sessions released by a finished/cancelled operation free up
    // asynchronously (the handler observes the closed socket), so a real
    // client backs off and retries on Overloaded; these helpers do the same.
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
    // Two control connections hold both slots; the third client is shed with
    // a typed Overloaded.
    match RemoteStore::connect(net.local_addr()) {
        Err(VssError::Overloaded(_)) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert!(server.rejected_sessions() >= 1);
    drop(second); // a free slot lets the admission-retry helpers below settle

    retry(|| first.write(&WriteRequest::new("cam", Codec::H264), &sequence(150, 0)));

    // Dropping a half-consumed remote stream resets just that stream; the
    // server aborts the drain and the store stays usable.
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
