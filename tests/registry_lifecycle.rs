//! Registry lifecycle over the wire: models load and unload at runtime —
//! with requests in flight — and the unloaded generation's counters
//! survive in the gateway snapshot.

#[path = "../crates/net/tests/common/mod.rs"]
mod common;

use common::{fast_runtime, shard_runtime};
use eugene::net::{
    ClientConfig, ClientError, Gateway, GatewayConfig, MultiplexClient, RejectReason, SubmitOptions,
};
use eugene::serve::ModelRegistry;
use std::time::{Duration, Instant};

/// One attempt, so a Reject surfaces as the typed error instead of being
/// retried into a deadline.
fn one_try() -> ClientConfig {
    ClientConfig {
        max_attempts: 1,
        ..ClientConfig::default()
    }
}

fn to(model: &str) -> SubmitOptions {
    SubmitOptions {
        model: Some(model.to_owned()),
        ..SubmitOptions::default()
    }
}

/// Polls until `model` shows at least `n` submitted requests, so a test
/// can order registry mutations against in-flight traffic.
fn await_submitted(registry: &ModelRegistry, model: &str, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let submitted = registry
            .stats_of(model)
            .map(|s| s.snapshot().submitted)
            .unwrap_or(0);
        if submitted >= n {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "model {model} never saw {n} submissions"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn models_load_and_unload_with_requests_in_flight() {
    let slow = Duration::from_millis(150);
    let registry = ModelRegistry::new("a");
    registry.load("a", shard_runtime(vec![0.95], slow, &fast_runtime(2)));
    let gateway = Gateway::start_registry(registry.clone(), GatewayConfig::default())
        .expect("bind loopback gateway");
    let client = MultiplexClient::new(gateway.local_addr(), one_try()).expect("connect");

    // Wedge model "a" with a slow in-flight request.
    let pending = client
        .submit_with(
            "lifecycle",
            &[7.0],
            Duration::from_secs(10),
            false,
            &to("a"),
        )
        .expect("submit to a");
    await_submitted(&registry, "a", 1);

    // Load "b" while "a" is mid-request; it serves immediately.
    registry.load(
        "b",
        shard_runtime(vec![0.9], Duration::ZERO, &fast_runtime(2)),
    );
    let outcome = client
        .infer_with("lifecycle", &[5.0], Duration::from_secs(10), &to("b"))
        .expect("freshly loaded model serves");
    assert_eq!(outcome.predicted, Some(5));

    // Unload "a": the wedged request drains to completion, not to an
    // error.
    assert!(registry.unload("a"), "a was loaded");
    let outcome = pending.wait().expect("in-flight request survives unload");
    assert_eq!(outcome.predicted, Some(7));

    // New submissions to the unloaded name are cleanly rejected.
    let err = client
        .infer_with("lifecycle", &[1.0], Duration::from_secs(2), &to("a"))
        .expect_err("unloaded model must reject");
    match err {
        ClientError::Rejected { reason, .. } => {
            assert_eq!(reason, RejectReason::UnknownModel);
        }
        other => panic!("expected UnknownModel reject, got {other:?}"),
    }

    // Only the survivor is listed, but the snapshot still carries the
    // unloaded generation's work: counters are retired, never lost.
    let names: Vec<String> = registry.models().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, ["b"]);
    let snapshot = gateway.snapshot();
    assert_eq!(snapshot.per_model["a"].completed, 1);
    assert_eq!(snapshot.per_model["b"].completed, 1);

    drop(client);
    gateway.shutdown();
}

/// Reloading an existing name swaps generations without dropping the
/// name: the version bumps and both generations' work aggregates.
#[test]
fn reload_swaps_generations_under_traffic() {
    let registry = ModelRegistry::new("m");
    registry.load(
        "m",
        shard_runtime(vec![0.9], Duration::ZERO, &fast_runtime(2)),
    );
    let gateway = Gateway::start_registry(registry.clone(), GatewayConfig::default())
        .expect("bind loopback gateway");
    let client = MultiplexClient::new(gateway.local_addr(), one_try()).expect("connect");

    let outcome = client
        .infer_with("reload", &[3.0], Duration::from_secs(10), &to("m"))
        .expect("first generation serves");
    assert_eq!(outcome.predicted, Some(3));
    let v1 = registry.models()[0].1;

    registry.load(
        "m",
        shard_runtime(vec![0.9], Duration::ZERO, &fast_runtime(2)),
    );
    let v2 = registry.models()[0].1;
    assert!(v2 > v1, "reload bumps the version ({v1} -> {v2})");

    let outcome = client
        .infer_with("reload", &[4.0], Duration::from_secs(10), &to("m"))
        .expect("second generation serves");
    assert_eq!(outcome.predicted, Some(4));
    assert_eq!(
        gateway.snapshot().per_model["m"].completed,
        2,
        "both generations' completions aggregate under the name"
    );

    drop(client);
    gateway.shutdown();
}
