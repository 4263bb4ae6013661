//! The serving runtime's deadline contract, in tier-1: the coordinator is
//! the only deadline clock. A request past its deadline is answered
//! exactly once — `expired` under Kill, a partial `degraded` answer under
//! Degrade when a stage completed — the kill gauge counts exactly the
//! expired answers, and gathering for a batch never delays a kill.

#[path = "../crates/net/tests/common/mod.rs"]
mod common;

use common::shard_runtime;
use eugene::nn::{StagedNetwork, StagedNetworkConfig};
use eugene::sched::Fifo;
use eugene::serve::{
    InferenceRequest, InferenceResponse, OverloadPolicy, RuntimeConfig, ServiceClass,
    ServingRuntime,
};
use eugene::service::StagedNetworkEngine;
use eugene::tensor::seeded_rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn runtime(ramp: Vec<f32>, stage_ms: u64, config: RuntimeConfig) -> ServingRuntime {
    shard_runtime(ramp, Duration::from_millis(stage_ms), &config)
}

fn class(deadline_ms: u64) -> ServiceClass {
    ServiceClass::new("test", Duration::from_millis(deadline_ms))
}

fn one_worker() -> RuntimeConfig {
    RuntimeConfig {
        num_workers: 1,
        ..RuntimeConfig::default()
    }
}

/// Blocks until the runtime reports a stage executing, so a request
/// submitted next is known to queue behind it.
fn wait_until_running(rt: &ServingRuntime) {
    let stats = rt.stats();
    let started = Instant::now();
    while stats.running() == 0 {
        assert!(started.elapsed() < Duration::from_secs(5), "no stage ran");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn deadline_interrupts_slow_tasks() {
    // Stages take 30 ms; deadline 40 ms: at most 2 stages can finish.
    let rt = runtime(vec![0.5, 0.7, 0.9], 30, RuntimeConfig::default());
    let (_, rx) = rt.submit(InferenceRequest::new(vec![2.0], class(40)));
    let response = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(response.expired, "task should be killed at its deadline");
    assert!(
        response.stages_executed < 3,
        "ran {} stages",
        response.stages_executed
    );
    if response.stages_executed > 0 {
        assert!(response.is_answered(), "partial results are returned");
    }
    rt.shutdown();
}

/// Several requests that expire together are each answered `expired`
/// exactly once, and the kill gauge counts each of them once.
#[test]
fn concurrent_expiries_are_each_answered_once_and_counted_once() {
    const DOOMED: usize = 6;
    // One worker held by a long first stage: the short-deadline requests
    // queued behind it never start, so they all expire in the same pass.
    let rt = runtime(vec![0.5, 0.9], 150, one_worker());
    let stats = rt.stats();
    let (_, occupant_rx) = rt.submit(InferenceRequest::new(vec![0.0], class(10_000)));
    wait_until_running(&rt);
    let doomed: Vec<_> = (1..=DOOMED)
        .map(|i| rt.submit(InferenceRequest::new(vec![i as f32], class(25))))
        .collect();
    // Shutdown drains every request and drops every respond sender, so
    // each channel now holds every answer the runtime will ever send.
    rt.shutdown();
    for (id, rx) in doomed {
        let answers: Vec<InferenceResponse> = rx.iter().collect();
        assert_eq!(answers.len(), 1, "request {id} answered exactly once");
        assert!(answers[0].expired);
        assert_eq!(answers[0].stages_executed, 0);
    }
    let occupant: Vec<InferenceResponse> = occupant_rx.iter().collect();
    assert_eq!(occupant.len(), 1);
    assert!(!occupant[0].expired, "a far deadline is not killed early");
    assert_eq!(occupant[0].stages_executed, 2);
    assert_eq!(stats.deadline_kills(), DOOMED as u64);
}

/// A short-deadline request submitted while a long-deadline one is in
/// flight still expires on time: it is killed at its own deadline, not
/// when the long request's stage frees the only worker.
#[test]
fn a_short_deadline_behind_a_long_one_still_expires_on_time() {
    let rt = runtime(vec![0.5, 0.9], 300, one_worker());
    let (_, long_rx) = rt.submit(InferenceRequest::new(vec![0.0], class(60_000)));
    wait_until_running(&rt);
    let submitted = Instant::now();
    let (_, short_rx) = rt.submit(InferenceRequest::new(vec![1.0], class(20)));
    let short = short_rx.recv_timeout(Duration::from_secs(10)).unwrap();
    let waited = submitted.elapsed();
    assert!(short.expired);
    assert_eq!(short.stages_executed, 0);
    assert!(
        short.latency >= Duration::from_millis(20),
        "not killed early"
    );
    assert!(
        waited < Duration::from_millis(200),
        "killed at its 20ms deadline, not after the 300ms stage; took {waited:?}"
    );
    let long = long_rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(!long.expired);
    assert_eq!(long.stages_executed, 2);
    rt.shutdown();
}

/// A request completing exactly at its deadline races the deadline
/// check. Whichever wins, the kill gauge counts exactly the responses
/// that actually expired.
#[test]
fn kill_racing_completion_never_inflates_the_kill_gauge() {
    let rt = runtime(vec![0.9], 1, RuntimeConfig::default());
    let mut expired = 0u64;
    for i in 0..100 {
        // Deadline == stage time: completion and expiry collide.
        let (_, rx) = rt.submit(InferenceRequest::new(vec![i as f32], class(1)));
        let response = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        if response.expired {
            expired += 1;
        } else {
            assert_eq!(response.stages_executed, 1);
        }
    }
    let stats = rt.stats();
    assert_eq!(stats.completed(), 100);
    assert_eq!(
        stats.deadline_kills(),
        expired,
        "every counted kill must correspond to an expired response"
    );
    assert_eq!(stats.degraded_exits(), 0, "Kill policy never degrades");
    rt.shutdown();
}

#[test]
fn deadline_expiry_mid_gather_finalizes_without_stalling_the_batch() {
    // One worker, long stages, and a gather window far longer than any
    // deadline: request C expires while parked for batching and must
    // finalize immediately, while A and B still complete fully.
    let config = RuntimeConfig {
        num_workers: 1,
        max_batch: 2,
        gather_window: Duration::from_millis(500),
        ..RuntimeConfig::default()
    };
    let rt = runtime(vec![0.5, 0.9], 60, config);
    let (_, rx_a) = rt.submit(InferenceRequest::new(vec![0.0], class(10_000)));
    // Let A occupy the worker before B and C arrive.
    wait_until_running(&rt);
    let (_, rx_b) = rt.submit(InferenceRequest::new(vec![1.0], class(10_000)));
    let (_, rx_c) = rt.submit(InferenceRequest::new(vec![2.0], class(30)));
    let started = Instant::now();
    let response_c = rx_c.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(response_c.expired, "C's deadline passed while gathering");
    assert_eq!(response_c.stages_executed, 0);
    assert!(
        started.elapsed() < Duration::from_millis(400),
        "C must not wait out the 500ms gather window, took {:?}",
        started.elapsed()
    );
    let response_a = rx_a.recv_timeout(Duration::from_secs(10)).unwrap();
    let response_b = rx_b.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(!response_a.expired, "A unaffected by C's expiry");
    assert_eq!(response_a.stages_executed, 2);
    assert!(!response_b.expired, "B's batch was not stalled by C");
    assert_eq!(response_b.stages_executed, 2);
    rt.shutdown();
}

#[test]
fn degrade_mode_converts_deadline_kill_into_partial_answer() {
    let config = RuntimeConfig {
        overload: OverloadPolicy::Degrade,
        ..RuntimeConfig::default()
    };
    // 3 stages x 30ms against a 40ms deadline: full execution cannot
    // fit, but at least one stage always completes.
    let rt = runtime(vec![0.5, 0.7, 0.9], 30, config);
    let (_, rx) = rt.submit(InferenceRequest::new(vec![2.0], class(40)));
    let response = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(!response.expired, "degrade mode must not report a miss");
    assert!(response.degraded, "the early exit is flagged");
    assert!(response.is_answered(), "partial answer returned");
    assert!(
        (1..3).contains(&response.stages_executed),
        "ran {} stages",
        response.stages_executed
    );
    let stats = rt.stats();
    assert_eq!(stats.deadline_kills(), 0);
    assert!(stats.degraded_exits() >= 1);
    rt.shutdown();
}

#[test]
fn degrade_mode_with_zero_stages_still_expires() {
    let config = RuntimeConfig {
        overload: OverloadPolicy::Degrade,
        ..one_worker()
    };
    // One worker, one long-running occupant: the starved victim never
    // executes a stage, so there is nothing to degrade to.
    let rt = runtime(vec![0.5, 0.9], 60, config);
    let (_, rx_a) = rt.submit(InferenceRequest::new(vec![0.0], class(10_000)));
    wait_until_running(&rt);
    let (_, rx_b) = rt.submit(InferenceRequest::new(vec![1.0], class(25)));
    let response_b = rx_b.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(response_b.expired, "a zero-stage request has no answer");
    assert!(!response_b.degraded);
    assert_eq!(response_b.stages_executed, 0);
    let response_a = rx_a.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(!response_a.expired);
    rt.shutdown();
}

/// The staged-network engine answers a payload of the wrong width with a
/// session that has no stage to run. That request's work is done at its
/// first dispatch: it is answered then with what it has (nothing, not
/// expired), not dispatched again on every pass until its deadline.
#[test]
fn a_session_with_no_stage_is_answered_at_once_not_at_its_deadline() {
    let config = StagedNetworkConfig {
        input_dim: 4,
        num_classes: 3,
        stage_widths: vec![vec![8], vec![8]],
        dropout: 0.0,
        input_skip: false,
    };
    let network = StagedNetwork::new(&config, &mut seeded_rng(0));
    let engine = Arc::new(StagedNetworkEngine::new(Arc::new(network)));
    let rt = ServingRuntime::start(
        engine,
        Box::new(Fifo::new()),
        RuntimeConfig {
            num_workers: 2,
            ..RuntimeConfig::default()
        },
    );
    let (_, rx) = rt.submit(InferenceRequest::new(vec![1.0, 2.0], class(2_000)));
    let response = rx.recv_timeout(Duration::from_secs(10)).unwrap();
    assert!(!response.expired, "answered before its deadline");
    assert_eq!(response.stages_executed, 0);
    assert_eq!(response.predicted, None);
    let dispatches = rt.stats().singleton_dispatches();
    assert!(dispatches <= 1, "dispatched {dispatches} times");
    rt.shutdown();
}
