//! Event-driven latency regressions: the gateway must react to connects,
//! stage progress, and connection exits when they *happen*, not on the
//! next edge of some internal polling tick; and closed sockets leave the
//! event loop as they close.

mod common;

use common::{fast_runtime, handshake, open_config, start_gateway};
use eugene_net::wire::{self, Frame, FrameBuffer};
use eugene_net::{ClientConfig, MultiplexClient};
use std::time::{Duration, Instant};

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
/// batched up with the `Final`. (What the updates carry is
/// `loopback.rs`'s check.)
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
    let mut first_update = None;
    let final_at = loop {
        match buffer.poll(&mut stream).expect("read frame") {
            Some(Frame::StageUpdate { .. }) => {
                first_update.get_or_insert(started.elapsed());
            }
            Some(Frame::Final { .. }) => break started.elapsed(),
            Some(other) => panic!("unexpected frame {other:?}"),
            None => {}
        }
    };

    let first_update = first_update.expect("a StageUpdate ahead of the Final");
    // Stage 0 finishes after ~one stage time; its update must arrive
    // well before the remaining two stages complete.
    assert!(
        first_update < stage_time * 2,
        "first StageUpdate arrived at {first_update:?} — updates are being \
         held back instead of streamed (Final at {final_at:?})"
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

/// Sixty connect → infer → disconnect cycles: closed sockets leave the
/// event loop promptly, so the open-connection gauge stays bounded by
/// *live* connections during the churn and drains once it stops, and no
/// thread is spawned per connection.
#[test]
fn connection_churn_drains_closed_sockets() {
    const CYCLES: usize = 60;
    let gateway = start_gateway(vec![0.9], Duration::ZERO, fast_runtime(2), open_config());
    let addr = gateway.local_addr();
    let status = gateway.status();

    for cycle in 0..CYCLES {
        let client = MultiplexClient::new(addr, ClientConfig::default()).expect("resolve loopback");
        let outcome = client
            .infer("churn", &[cycle as f32], Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
        assert_eq!(outcome.predicted, Some(cycle as u64));
        drop(client);
        if cycle % 10 == 9 {
            assert!(
                status.open_connections() <= 16,
                "cycle {cycle}: {} connections open — closed sockets are \
                 not leaving the event loop",
                status.open_connections()
            );
        }
    }

    let deadline = Instant::now() + Duration::from_secs(5);
    while status.open_connections() > 1 {
        assert!(
            Instant::now() < deadline,
            "{} connections still open long after all {CYCLES} closed",
            status.open_connections()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(status.connections_opened(), CYCLES as u64);
    assert!(!status.accept_failed(), "accepting must survive churn");
    assert_eq!(status.threads_spawned(), 1, "churn must not spawn threads");
}
