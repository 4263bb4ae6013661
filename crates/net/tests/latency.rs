//! Event-driven latency regressions: the gateway must react to connects,
//! stage progress, and connection exits when they *happen*, not on the
//! next edge of some internal polling tick.

mod common;

use common::start_gateway;
use eugene_net::wire::{self, Frame, FrameBuffer, PROTOCOL_VERSION};
use eugene_net::{ClientConfig, GatewayConfig, MultiplexClient};
use eugene_serve::RuntimeConfig;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn fast_runtime(workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        num_workers: workers,
        ..RuntimeConfig::default()
    }
}

fn open_config() -> GatewayConfig {
    GatewayConfig {
        high_water: 1_000_000,
        hard_cap: 2_000_000,
        ..GatewayConfig::default()
    }
}

/// Connects and completes the Hello/HelloAck handshake, returning the
/// stream (so the connection stays open until the caller drops it).
fn handshake(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    wire::write_frame(
        &mut stream,
        &Frame::Hello {
            max_version: PROTOCOL_VERSION,
        },
    )
    .expect("hello");
    let mut buffer = FrameBuffer::new();
    loop {
        match buffer.poll(&mut stream).expect("read ack") {
            Some(Frame::HelloAck { .. }) => return stream,
            Some(other) => panic!("expected HelloAck, got {other:?}"),
            None => {}
        }
    }
}

/// Regression for the accept loop's old fixed 5ms `WouldBlock` sleep: a
/// connect against an idle gateway paid up to a full sleep period before
/// being accepted. Thirty sequential handshakes cost ~75ms of
/// accumulated sleep under the old loop; with the event loop parked in a
/// poller they complete in a few milliseconds total.
#[test]
fn idle_gateway_accepts_without_a_sleep_tick() {
    const CONNECTS: usize = 30;
    let gateway = start_gateway(vec![0.9], Duration::ZERO, fast_runtime(2), open_config());
    let addr = gateway.local_addr();

    // Warm-up: first connect pays thread-pool and allocator cold costs.
    drop(handshake(addr));

    let started = Instant::now();
    for _ in 0..CONNECTS {
        // Sequential: each handshake pays the full accept wakeup latency
        // before the next connect begins.
        drop(handshake(addr));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(60),
        "{CONNECTS} sequential connects took {elapsed:?} — the accept \
         loop is sleeping between polls instead of waiting for readiness"
    );
}

/// `StageUpdate`s must stream while later stages are still executing —
/// arriving event-driven within a stage time of being produced, never
/// batched up with the `Final`.
#[test]
fn stage_updates_stream_during_execution() {
    let stage_time = Duration::from_millis(60);
    let gateway = start_gateway(
        vec![0.2, 0.4, 0.95],
        stage_time,
        fast_runtime(1),
        open_config(),
    );
    let mut stream = handshake(gateway.local_addr());
    let started = Instant::now();
    wire::write_frame(
        &mut stream,
        &Frame::Submit(wire::SubmitRequest {
            client_tag: 1,
            class: "stream".to_owned(),
            budget_ms: 5_000,
            want_progress: true,
            payload: vec![3.0],
            routing_key: None,
            model: None,
            tenant: None,
            epoch: None,
        }),
    )
    .expect("submit");

    let mut buffer = FrameBuffer::new();
    let mut update_arrivals = Vec::new();
    let final_at = loop {
        match buffer.poll(&mut stream).expect("read frame") {
            Some(Frame::StageUpdate { .. }) => update_arrivals.push(started.elapsed()),
            Some(Frame::Final { .. }) => break started.elapsed(),
            Some(other) => panic!("unexpected frame {other:?}"),
            None => {}
        }
    };

    assert_eq!(update_arrivals.len(), 3, "one update per stage");
    // Stage 0 finishes after ~one stage time; its update must arrive
    // well before the remaining two stages complete.
    assert!(
        update_arrivals[0] < stage_time * 2,
        "first StageUpdate arrived at {:?} — updates are being held back \
         instead of streamed (Final at {final_at:?})",
        update_arrivals[0]
    );
    assert!(
        final_at >= stage_time * 3,
        "three {stage_time:?} stages cannot finish in {final_at:?}"
    );
}

/// The accept path must stay live while an existing connection is wedged
/// mid-request: new connections handshake promptly, and once the slow
/// connection finishes, the open-connection gauge drains without waiting
/// for another connect.
#[test]
fn accepts_stay_live_while_a_connection_is_wedged() {
    let stage_time = Duration::from_millis(300);
    let gateway = start_gateway(vec![0.95], stage_time, fast_runtime(2), open_config());
    let addr = gateway.local_addr();

    // Wedge connection A: one slow in-flight request.
    let client = MultiplexClient::new(addr, ClientConfig::default()).expect("resolve");
    let pending = client
        .submit("wedge", &[7.0], Duration::from_secs(10), false)
        .expect("submit");

    // While A is mid-stage, a burst of fresh connections must each be
    // accepted and handshaken quickly.
    let started = Instant::now();
    for i in 0..12 {
        let t = Instant::now();
        drop(handshake(addr));
        assert!(
            t.elapsed() < Duration::from_millis(100),
            "connect {i} took {:?} while another connection was wedged",
            t.elapsed()
        );
    }
    assert!(
        started.elapsed() < stage_time,
        "the whole connect burst must finish before the wedged request"
    );

    let outcome = pending.wait().expect("wedged request still answered");
    assert_eq!(outcome.predicted, Some(7));
    drop(client);

    let status = gateway.status();
    let deadline = Instant::now() + Duration::from_secs(5);
    while status.open_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "{} connections still open after all clients closed",
            status.open_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
