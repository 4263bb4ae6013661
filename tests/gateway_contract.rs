//! The gateway's connection contract, in tier-1: the admission hard cap
//! holds under a pipelined burst, shutdown answers every admitted
//! request, a client that never reads meets read backpressure instead
//! of growing the server's memory, and cannot hold shutdown up either.

#[path = "../crates/net/tests/common/mod.rs"]
mod common;

use common::{fast_runtime, handshake, open_config, start_gateway};
use eugene::net::wire::{self, Frame, FrameBuffer, SubmitRequest};
use eugene::net::{ClientConfig, ClientError, Gateway, GatewayConfig, MultiplexClient};
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn open_gateway(ramp: Vec<f32>, stage_time: Duration, workers: usize) -> Gateway {
    start_gateway(ramp, stage_time, fast_runtime(workers), open_config())
}

/// Shuts `gateway` down on another thread; `Some(elapsed)` if it
/// returned within `bound`, `None` if it was still blocked.
fn shutdown_within(gateway: Gateway, bound: Duration) -> Option<Duration> {
    let (tx, rx) = mpsc::channel();
    let started = Instant::now();
    std::thread::spawn(move || {
        gateway.shutdown();
        let _ = tx.send(started.elapsed());
    });
    rx.recv_timeout(bound).ok()
}

/// Pipelines `Ping`s on `stream` (non-blocking) until the server has
/// taken nothing for `stall`: its `Pong` backlog reached the cap and it
/// stopped reading. Writes whole frames only, so the server never sees
/// a torn frame. Returns the bytes written and the chunk the last write
/// stopped in, with the position it stopped at.
fn ping_until_unread(stream: &mut TcpStream, stall: Duration) -> (usize, Vec<u8>, usize) {
    const LIMIT: usize = 64 << 20;
    const PINGS_PER_CHUNK: u64 = 256;
    let mut chunk = Vec::new();
    let mut chunk_pos = 0;
    let mut next_nonce = 0u64;
    let mut written = 0usize;
    let mut stalled_since: Option<Instant> = None;
    loop {
        if chunk_pos == chunk.len() {
            chunk.clear();
            chunk_pos = 0;
            for nonce in next_nonce..next_nonce + PINGS_PER_CHUNK {
                chunk.extend_from_slice(&wire::encode_frame(&Frame::Ping { nonce }));
            }
            next_nonce += PINGS_PER_CHUNK;
        }
        match stream.write(&chunk[chunk_pos..]) {
            Ok(n) => {
                chunk_pos += n;
                written += n;
                stalled_since = None;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if stalled_since.get_or_insert_with(Instant::now).elapsed() >= stall {
                    return (written, chunk, chunk_pos);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => panic!("write failed after {written} bytes: {e}"),
        }
        assert!(
            written < LIMIT,
            "wrote {written} bytes of unread Pings and the gateway is still reading"
        );
    }
}

/// A pipelined submit burst far deeper than `hard_cap`: the event loop
/// admits the burst back-to-back within one read sweep, so the atomic
/// reservation gauge must be what stops the overflow.
#[test]
fn hard_cap_holds_under_concurrent_submits() {
    const HARD_CAP: u64 = 16;
    const BURST: usize = 64;
    let gateway = start_gateway(
        vec![0.5, 0.95],
        Duration::from_millis(3),
        fast_runtime(4),
        GatewayConfig {
            high_water: 8,
            hard_cap: HARD_CAP,
            ..GatewayConfig::default()
        },
    );
    let status = gateway.status();
    let client =
        MultiplexClient::new(gateway.local_addr(), ClientConfig::default()).expect("resolve");

    let pending: Vec<_> = (0..BURST)
        .map(|i| {
            client
                .submit("anon", &[i as f32], Duration::from_secs(5), false)
                .expect("pipelined submit")
        })
        .collect();
    let (mut answered, mut rejected) = (0u64, 0u64);
    for (i, p) in pending.into_iter().enumerate() {
        match p.wait() {
            Ok(_) => answered += 1,
            Err(ClientError::Rejected { .. }) => rejected += 1,
            Err(e) => panic!("request {i}: {e}"),
        }
    }

    assert!(
        status.peak_in_flight() <= HARD_CAP,
        "in-flight load must never exceed hard_cap={HARD_CAP}, peaked at {}",
        status.peak_in_flight()
    );
    // A slot is released just after its Final is written, so the client
    // can hold the last answer a moment before the gauge reads zero.
    let deadline = Instant::now() + Duration::from_secs(5);
    while status.in_flight_reserved() > 0 {
        assert!(Instant::now() < deadline, "every slot released");
        std::thread::yield_now();
    }
    assert!(answered > 0, "some requests must get through");
    assert!(
        rejected > 0,
        "a {BURST}-deep burst against cap {HARD_CAP} must shed"
    );
}

/// Gateway shutdown with a pipeline full of in-flight multiplexed
/// requests: every one of them still gets its `Final` during the drain.
#[test]
fn shutdown_drains_every_in_flight_request() {
    const N: usize = 8;
    let gateway = open_gateway(vec![0.4, 0.7, 0.95], Duration::from_millis(10), 4);
    let client = MultiplexClient::new(gateway.local_addr(), ClientConfig::default())
        .expect("resolve loopback");
    let pending: Vec<_> = (0..N)
        .map(|i| {
            client
                .submit("interactive", &[i as f32], Duration::from_secs(10), false)
                .expect("submit")
        })
        .collect();
    // The drain guarantee covers admitted requests, not bytes still in
    // the socket buffer: wait until all N are admitted, then shut down.
    let status = gateway.status();
    let deadline = Instant::now() + Duration::from_secs(5);
    while status.in_flight_reserved() < N as u64 {
        assert!(
            Instant::now() < deadline,
            "gateway never admitted all {N} submits"
        );
        std::thread::yield_now();
    }
    gateway.shutdown();
    for (i, p) in pending.into_iter().enumerate() {
        let outcome = p
            .wait()
            .unwrap_or_else(|e| panic!("request {i} lost in drain: {e}"));
        assert_eq!(outcome.predicted, Some(i as u64));
    }
}

/// A client that pipelines `Ping`s and never reads must see its own
/// `send` stall long before it has pushed 64 MiB: once the `Pong`s it
/// leaves unread fill the write backlog, the gateway stops reading its
/// socket. Nothing queued is dropped — when the client does read, every
/// `Pong` arrives in nonce order — and the connection still serves.
#[test]
fn a_client_that_never_reads_meets_read_backpressure() {
    // A `WouldBlock` alone only says the gateway reads slower than this
    // loop writes; a socket that takes nothing for this long says it
    // stopped reading.
    const STALL: Duration = Duration::from_millis(200);
    let gateway = open_gateway(vec![0.9], Duration::ZERO, 1);
    let mut stream = handshake(gateway.local_addr());
    stream.set_nonblocking(true).expect("non-blocking");

    // Every Ping encodes to the same length, so the byte count written
    // says how many whole frames the gateway can have received.
    let frame_len = wire::encode_frame(&Frame::Ping { nonce: 0 }).len();
    let (written, chunk, chunk_pos) = ping_until_unread(&mut stream, STALL);

    // Read every answer. The frame the blocked write cut in half is
    // finished as the socket takes it again.
    let pings = written.div_ceil(frame_len);
    let mut tail = &chunk[chunk_pos..chunk_pos + (pings * frame_len - written)];
    let mut buffer = FrameBuffer::new();
    let mut expected = 0u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    while expected < pings as u64 {
        if !tail.is_empty() {
            match stream.write(tail) {
                Ok(n) => tail = &tail[n..],
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => panic!("finishing the cut frame: {e}"),
            }
        }
        match buffer.poll(&mut stream).expect("read Pong") {
            Some(Frame::Pong { nonce }) => {
                assert_eq!(nonce, expected, "Pongs arrive in nonce order");
                expected += 1;
            }
            Some(other) => panic!("expected Pong, got {other:?}"),
            None => {
                assert!(
                    Instant::now() < deadline,
                    "{expected} of {pings} Pongs arrived: the gateway never resumed reading"
                );
                std::thread::yield_now();
            }
        }
    }

    // The throttled connection still serves requests.
    stream.set_nonblocking(false).expect("blocking");
    wire::write_frame(
        &mut stream,
        &Frame::Submit(SubmitRequest {
            client_tag: 1,
            class: "after-backpressure".to_owned(),
            budget_ms: 5_000,
            want_progress: false,
            payload: vec![4.0],
            routing_key: None,
            model: None,
            tenant: None,
            epoch: None,
        }),
    )
    .expect("submit");
    loop {
        match buffer.poll(&mut stream).expect("read Final") {
            Some(Frame::Final {
                client_tag,
                response,
            }) => {
                assert_eq!(client_tag, 1);
                assert_eq!(response.predicted, Some(4));
                break;
            }
            Some(other) => panic!("expected Final, got {other:?}"),
            None => {}
        }
    }
}

/// A client that pipelines `Ping`s and never reads leaves `Pong`s the
/// gateway can never flush. Shutdown must still return — once every
/// admitted request is answered, a connection that has taken no bytes
/// for the stall period is closed — and a well-behaved client connected
/// at the same time still gets every in-flight answer.
#[test]
fn gateway_shutdown_returns_with_a_client_that_never_reads() {
    const IN_FLIGHT: usize = 4;
    let gateway = open_gateway(vec![0.5, 0.95], Duration::from_millis(100), 2);
    let mut stream = handshake(gateway.local_addr());
    stream.set_nonblocking(true).expect("non-blocking");
    ping_until_unread(&mut stream, Duration::from_millis(200));

    let client = MultiplexClient::new(gateway.local_addr(), ClientConfig::default()).unwrap();
    let pending: Vec<_> = (0..IN_FLIGHT)
        .map(|i| {
            client
                .submit("drained", &[i as f32], Duration::from_secs(30), false)
                .expect("submit")
        })
        .collect();
    let status = gateway.status();
    let deadline = Instant::now() + Duration::from_secs(10);
    while status.in_flight_reserved() < IN_FLIGHT as u64 {
        assert!(Instant::now() < deadline, "gateway never admitted the load");
        std::thread::sleep(Duration::from_millis(2));
    }

    shutdown_within(gateway, Duration::from_secs(10))
        .expect("gateway shutdown still blocked 10 s after a client stopped reading");
    for (i, p) in pending.into_iter().enumerate() {
        let outcome = p
            .wait()
            .unwrap_or_else(|e| panic!("request {i} lost at shutdown: {e}"));
        assert_eq!(outcome.predicted, Some(i as u64));
    }
    drop(stream);
}
