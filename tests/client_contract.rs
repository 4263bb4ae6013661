//! The client's contract, in tier-1: frames for a tag that is no longer
//! pending are counted and dropped (never delivered, never allowed to set
//! a backoff floor), a lapsed deadline abandons the request but keeps the
//! connection, and the retry loop never outlives its budget.

#[path = "../crates/net/tests/common/mod.rs"]
mod common;

use common::start_gateway;
use eugene::net::wire::{self, Frame, FrameBuffer, WireResponse, PROTOCOL_VERSION};
use eugene::net::{ClientConfig, ClientError, GatewayConfig, MultiplexClient};
use eugene::serve::RuntimeConfig;
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
fn client_counts_and_ignores_stale_frames() {
    let addr = stale_then_answer_server();
    let client = MultiplexClient::new(addr, ClientConfig::default()).expect("resolve");
    let started = Instant::now();
    let outcome = client
        .infer("stale", &[1.0], Duration::from_secs(5))
        .expect("real final must arrive");
    assert_eq!(outcome.predicted, Some(42));
    assert_eq!(
        outcome.attempts, 1,
        "a stale Reject must not be treated as a rejection of this attempt"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the stale Reject's 60s retry hint must not delay anything"
    );
    // The reader counts the burst before it routes the real Final, so
    // the count is complete by the time `infer` returns.
    assert_eq!(client.stale_frames(), 3, "all three stale frames counted");
}

/// A request whose client-side deadline lapses is abandoned, not the
/// socket: its late `Final` counts as stale, and the connection keeps
/// serving other requests.
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

#[test]
fn client_retry_never_outlives_its_budget() {
    // high_water == hard_cap == 0 rejects every class unconditionally, so
    // the client's retry loop can only end via its own deadline logic.
    let gateway = start_gateway(
        vec![0.9],
        Duration::ZERO,
        RuntimeConfig {
            num_workers: 1,
            ..RuntimeConfig::default()
        },
        GatewayConfig {
            high_water: 0,
            hard_cap: 0,
            ..GatewayConfig::default()
        },
    );
    let client = MultiplexClient::new(
        gateway.local_addr(),
        ClientConfig {
            max_attempts: 1_000, // budget, not attempts, must stop the loop
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(40),
            ..ClientConfig::default()
        },
    )
    .expect("resolve loopback");

    let budget = Duration::from_millis(200);
    let started = Instant::now();
    let result = client.infer("any", &[1.0], budget);
    let elapsed = started.elapsed();
    match result {
        Err(ClientError::Rejected { .. }) | Err(ClientError::DeadlineExhausted) => {}
        other => panic!("expected rejection or deadline, got {other:?}"),
    }
    // The final backoff decision happens strictly before the deadline, so
    // the loop may only exceed the budget by scheduling noise (generous
    // here: the whole workspace's test binaries may be competing for
    // cores). An unbounded loop would run for many seconds — max_attempts
    // alone permits ~1000 round trips.
    assert!(
        elapsed < budget + Duration::from_millis(800),
        "retry loop ran {elapsed:?} against a {budget:?} budget"
    );
    gateway.shutdown();
}
