//! Connection lifecycle on the gateway's event loop: under churn and
//! under an idle crowd, sockets are held by one thread and closed ones
//! leave the loop promptly.

mod common;

use common::start_gateway;
use eugene_net::wire::{self, Frame, FrameBuffer, PROTOCOL_VERSION};
use eugene_net::{ClientConfig, Gateway, GatewayConfig, MultiplexClient};
use eugene_serve::RuntimeConfig;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn open_gateway(ramp: Vec<f32>, stage_time: Duration) -> Gateway {
    start_gateway(
        ramp,
        stage_time,
        RuntimeConfig {
            num_workers: 2,
            ..RuntimeConfig::default()
        },
        GatewayConfig {
            high_water: 1_000_000,
            hard_cap: 2_000_000,
            ..GatewayConfig::default()
        },
    )
}

/// Sixty connect → infer → disconnect cycles: closed sockets leave the
/// event loop promptly, so the open-connection gauge stays bounded by
/// *live* connections during the churn and drains once it stops, and no
/// thread is spawned per connection.
#[test]
fn connection_churn_drains_closed_sockets() {
    const CYCLES: usize = 60;
    let gateway = open_gateway(vec![0.9], Duration::ZERO);
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

/// The scaling claim, sized for a CI box: hundreds of idle handshaken
/// connections are held by ONE gateway thread, and a request threaded
/// between them still completes promptly.
#[test]
fn idle_connections_hold_on_a_single_thread() {
    const IDLE: usize = 600;
    let gateway = open_gateway(vec![0.9], Duration::from_millis(1));
    let addr = gateway.local_addr();
    let status = gateway.status();

    let mut idle = Vec::with_capacity(IDLE);
    for i in 0..IDLE {
        let mut stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {i}: {e}"));
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
                Some(Frame::HelloAck { .. }) => break,
                Some(other) => panic!("expected HelloAck, got {other:?}"),
                None => {}
            }
        }
        idle.push(stream);
    }
    assert_eq!(status.open_connections(), IDLE as u64);
    assert_eq!(
        status.threads_spawned(),
        1,
        "{IDLE} idle connections must cost exactly one gateway thread"
    );

    // A working request among the idle crowd completes promptly.
    let client = MultiplexClient::new(addr, ClientConfig::default()).expect("resolve");
    let started = Instant::now();
    let outcome = client
        .infer("busy", &[3.0], Duration::from_secs(5))
        .expect("request among idle connections");
    assert_eq!(outcome.predicted, Some(3));
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "request took {:?} with {IDLE} idle connections parked",
        started.elapsed()
    );

    // Closing the idle sockets drains the gauge without new activity.
    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(10);
    while status.open_connections() > 1 {
        assert!(
            Instant::now() < deadline,
            "{} connections still open after all idle sockets closed",
            status.open_connections()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
