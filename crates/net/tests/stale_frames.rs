//! Stale-frame handling: frames addressed to a tag that is no longer
//! pending (timed-out attempts, old tags after reconnect) must be counted
//! and dropped — never delivered, and never allowed to influence backoff.

mod common;

use common::start_gateway;
use eugene_net::wire::{self, Frame, FrameBuffer, WireResponse, PROTOCOL_VERSION};
use eugene_net::{ClientConfig, ClientError, EugeneClient, GatewayConfig, MultiplexClient};
use eugene_serve::RuntimeConfig;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// Fake gateway: acks the handshake, reads one submit (tag T), then sends
/// a burst of frames for a *different* tag — including a `Reject` with a
/// poisonous 60s retry hint — before finally answering T.
fn stale_then_answer_server() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut buffer = FrameBuffer::new();
        loop {
            if let Some(Frame::Hello { .. }) = buffer.poll(&mut stream).expect("read hello") {
                break;
            }
        }
        wire::write_frame(
            &mut stream,
            &Frame::HelloAck {
                version: PROTOCOL_VERSION,
            },
        )
        .expect("ack");
        let submit = loop {
            if let Some(Frame::Submit(submit)) = buffer.poll(&mut stream).expect("read submit") {
                break submit;
            }
        };
        let stale_tag = submit.client_tag.wrapping_add(999);
        // Three stale frames for a tag the client is not waiting on...
        wire::write_frame(
            &mut stream,
            &Frame::StageUpdate {
                client_tag: stale_tag,
                stage: 0,
                confidence: 0.4,
                predicted: 7,
            },
        )
        .expect("stale stage");
        wire::write_frame(
            &mut stream,
            &Frame::Reject {
                client_tag: stale_tag,
                retry_after_ms: 60_000, // must NOT become anyone's backoff floor
                reason: wire::RejectReason::Overload,
            },
        )
        .expect("stale reject");
        wire::write_frame(
            &mut stream,
            &Frame::Final {
                client_tag: stale_tag,
                response: WireResponse {
                    predicted: Some(7),
                    confidence: Some(0.4),
                    stages_executed: 1,
                    expired: false,
                    latency_us: 1,
                    degraded: false,
                },
            },
        )
        .expect("stale final");
        // ...then the real answer.
        wire::write_frame(
            &mut stream,
            &Frame::Final {
                client_tag: submit.client_tag,
                response: WireResponse {
                    predicted: Some(42),
                    confidence: Some(0.9),
                    stages_executed: 1,
                    expired: false,
                    latency_us: 1,
                    degraded: false,
                },
            },
        )
        .expect("real final");
    });
    addr
}

#[test]
fn serial_client_counts_and_ignores_stale_frames() {
    let addr = stale_then_answer_server();
    let mut client = EugeneClient::new(addr, ClientConfig::default()).expect("resolve");
    let started = Instant::now();
    let outcome = client
        .infer("stale", &[1.0], Duration::from_secs(5))
        .expect("real final must arrive");
    assert_eq!(outcome.predicted, Some(42));
    assert_eq!(
        outcome.attempts, 1,
        "a stale Reject must not be treated as a rejection of this attempt"
    );
    assert_eq!(client.stale_frames(), 3, "all three stale frames counted");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the stale Reject's 60s retry hint must not delay anything"
    );
}

#[test]
fn mux_client_counts_and_ignores_stale_frames() {
    let addr = stale_then_answer_server();
    let client = MultiplexClient::new(addr, ClientConfig::default()).expect("resolve");
    let outcome = client
        .submit("stale", &[1.0], Duration::from_secs(5), false)
        .expect("submit")
        .wait()
        .expect("real final must arrive");
    assert_eq!(outcome.predicted, Some(42));
    // The reader may still be mid-burst when wait() returns; give it a
    // moment to count the stragglers.
    let deadline = Instant::now() + Duration::from_secs(2);
    while client.stale_frames() < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(client.stale_frames(), 3, "all three stale frames counted");
}

/// A request whose client-side deadline lapses is abandoned: its late
/// `Final` counts as stale, and — unlike the serial client, which drops
/// the socket — the multiplexed connection keeps serving other requests.
#[test]
fn abandoned_deadline_leaves_the_pipeline_usable() {
    let gateway = start_gateway(
        vec![0.5, 0.8, 0.95],
        Duration::from_millis(25),
        RuntimeConfig {
            num_workers: 2,
            ..RuntimeConfig::default()
        },
        GatewayConfig {
            high_water: 1_000_000,
            hard_cap: 2_000_000,
            ..GatewayConfig::default()
        },
    );
    let client =
        MultiplexClient::new(gateway.local_addr(), ClientConfig::default()).expect("resolve");

    // 3 stages x 25ms ≈ 75ms of work against a 15ms client budget: the
    // client gives up before the server's answer can arrive. That makes
    // the "late Final counts as stale" path deterministic: the server
    // kills the request at the same 15ms, but the kill cannot interrupt
    // a running stage, so its expired Final leaves no earlier than the
    // first stage's 25ms.
    let result = client
        .submit("impatient", &[5.0], Duration::from_millis(15), false)
        .expect("submit")
        .wait();
    match result {
        Err(ClientError::DeadlineExhausted) => {}
        other => panic!("expected DeadlineExhausted, got {other:?}"),
    }

    // The same connection must still answer new requests correctly.
    let outcome = client
        .submit("patient", &[9.0], Duration::from_secs(10), false)
        .expect("submit")
        .wait()
        .expect("pipeline must survive an abandoned request");
    assert_eq!(outcome.predicted, Some(9));

    // The abandoned tag's late Final (the server's expired answer) is
    // counted as stale once it straggles in.
    let deadline = Instant::now() + Duration::from_secs(5);
    while client.stale_frames() < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        client.stale_frames() >= 1,
        "the abandoned request's late Final must be counted as stale"
    );
    assert!(client.is_connected(), "deadline must not kill the pipe");
}
