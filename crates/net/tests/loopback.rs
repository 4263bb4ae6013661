//! End-to-end loopback tests: a real runtime behind a real TCP gateway,
//! exercised by real clients.

mod common;

use common::{fast_runtime, open_config, start_gateway};
use eugene_net::{ClientConfig, ClientError, GatewayConfig, MultiplexClient};
use eugene_serve::RuntimeConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

#[test]
fn two_hundred_concurrent_requests_across_classes_zero_lost() {
    let gateway = start_gateway(
        vec![0.3, 0.6, 0.9],
        Duration::ZERO,
        fast_runtime(8),
        open_config(),
    );
    let addr = gateway.local_addr();

    const CONNECTIONS: usize = 40;
    const PER_CONNECTION: usize = 6; // 240 requests total
    let classes = ["interactive", "batch"];
    let completed = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(CONNECTIONS));
    let mut handles = Vec::new();
    for conn in 0..CONNECTIONS {
        let completed = Arc::clone(&completed);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let client = MultiplexClient::new(
                addr,
                ClientConfig {
                    seed: conn as u64,
                    ..ClientConfig::default()
                },
            )
            .expect("resolve loopback");
            barrier.wait();
            for i in 0..PER_CONNECTION {
                let class = classes[(conn + i) % classes.len()];
                let label = (conn * PER_CONNECTION + i) as f32;
                let outcome = client
                    .infer(class, &[label, 1.0, 2.0], Duration::from_secs(30))
                    .expect("request must not be lost");
                assert_eq!(outcome.predicted, Some(label as u64), "payload round-trips");
                assert!(!outcome.expired);
                assert_eq!(outcome.stages_executed, 3);
                completed.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    for handle in handles {
        handle.join().expect("client thread panicked");
    }
    assert_eq!(
        completed.load(Ordering::Relaxed),
        (CONNECTIONS * PER_CONNECTION) as u64,
        "every single request must be answered"
    );
    gateway.shutdown();
}

#[test]
fn overload_sheds_then_recovers() {
    // One slow worker and a tiny admission window: a synchronized burst
    // must overflow it.
    let gateway = start_gateway(
        vec![0.5, 0.9],
        Duration::from_millis(20),
        fast_runtime(1),
        GatewayConfig {
            high_water: 2,
            hard_cap: 4,
            ..GatewayConfig::default()
        },
    );
    let addr = gateway.local_addr();

    const BURST: usize = 16;
    let barrier = Arc::new(Barrier::new(BURST));
    let mut handles = Vec::new();
    for i in 0..BURST {
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let client = MultiplexClient::new(
                addr,
                ClientConfig {
                    max_attempts: 1, // observe the raw admission decision
                    seed: i as u64,
                    ..ClientConfig::default()
                },
            )
            .expect("resolve loopback");
            barrier.wait();
            client.infer("burst", &[i as f32], Duration::from_secs(10))
        }));
    }
    let mut completed = 0u32;
    let mut rejected = 0u32;
    for handle in handles {
        match handle.join().expect("client thread panicked") {
            Ok(outcome) => {
                assert!(!outcome.expired);
                completed += 1;
            }
            Err(ClientError::Rejected { retry_after, .. }) => {
                assert!(
                    retry_after > Duration::ZERO,
                    "reject must carry a backoff hint"
                );
                rejected += 1;
            }
            Err(other) => panic!("unexpected failure under overload: {other}"),
        }
    }
    assert!(
        rejected > 0,
        "a 16-deep burst into hard_cap=4 must shed load"
    );
    assert!(completed > 0, "admitted requests must still complete");

    // Recovery: once the burst drains, a fresh request is admitted again.
    let client = MultiplexClient::new(addr, ClientConfig::default()).expect("resolve loopback");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.infer("burst", &[7.0], Duration::from_secs(5)) {
            Ok(outcome) => {
                assert_eq!(outcome.predicted, Some(7));
                break;
            }
            Err(ClientError::Rejected { retry_after, .. }) if Instant::now() < deadline => {
                std::thread::sleep(retry_after);
            }
            Err(other) => panic!("gateway failed to recover after overload: {other}"),
        }
    }
    gateway.shutdown();
}

#[test]
fn graceful_shutdown_answers_every_in_flight_request() {
    // 3 stages x 30ms on 2 workers: six requests take ~270ms of engine
    // time, so shutdown at +60ms lands with most of them still in flight.
    let gateway = start_gateway(
        vec![0.2, 0.5, 0.9],
        Duration::from_millis(30),
        fast_runtime(2),
        open_config(),
    );
    let addr = gateway.local_addr();

    const CLIENTS: usize = 6;
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let mut handles = Vec::new();
    for i in 0..CLIENTS {
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let client = MultiplexClient::new(
                addr,
                ClientConfig {
                    max_attempts: 1,
                    ..ClientConfig::default()
                },
            )
            .expect("resolve loopback");
            barrier.wait();
            client.infer("drain", &[i as f32], Duration::from_secs(30))
        }));
    }
    barrier.wait();
    std::thread::sleep(Duration::from_millis(60));
    gateway.shutdown();

    for (i, handle) in handles.into_iter().enumerate() {
        let outcome = handle
            .join()
            .expect("client thread panicked")
            .unwrap_or_else(|e| panic!("request {i} lost during shutdown: {e}"));
        assert_eq!(outcome.predicted, Some(i as u64));
        assert_eq!(outcome.stages_executed, 3);
    }
}

/// The stream's content through the client's `want_progress` default:
/// one update per executed stage, each carrying that stage's confidence
/// and prediction, and none past an early exit. (That updates arrive
/// while later stages still run is `latency.rs`'s check; that they reach
/// the right tag among many is `tests/multiplex.rs`'s.)
#[test]
fn progress_streaming_reports_each_stage_and_early_exit() {
    let gateway = start_gateway(
        vec![0.2, 0.95, 0.99],
        Duration::ZERO,
        RuntimeConfig {
            num_workers: 2,
            confidence_threshold: 0.9, // stage 2 hits 0.95 and exits early
            ..RuntimeConfig::default()
        },
        open_config(),
    );
    let addr = gateway.local_addr();
    let client = MultiplexClient::new(
        addr,
        ClientConfig {
            want_progress: true,
            ..ClientConfig::default()
        },
    )
    .expect("resolve loopback");

    let outcome = client
        .infer("stream", &[42.0], Duration::from_secs(10))
        .expect("streamed inference");
    assert_eq!(outcome.stages_executed, 2, "early exit at the second stage");
    assert_eq!(outcome.predicted, Some(42));
    assert_eq!(outcome.stage_updates.len(), 2, "one update per stage");
    assert_eq!(outcome.stage_updates[0].confidence, 0.2);
    assert_eq!(outcome.stage_updates[1].confidence, 0.95);
    assert!(outcome.stage_updates.iter().all(|u| u.predicted == 42));
    gateway.shutdown();
}
