//! Fault injection for the sharded front tier: keys spread over every
//! shard exactly as the ring routes them, shard death is invisible to
//! clients — in-flight submits replay to the warm standby and complete
//! with correct payloads, exactly once — and live elasticity
//! (`add_shard` / `remove_shard` mid-load) keeps every request accounted
//! with zero client-visible errors.
//!
//! The router's tier-1 contract (kill mid-flight, the 100x kill/revive
//! exactly-once hammer, no shard left, shutdown with a stalled or silent
//! client, the one-thread budget) is the root `tests/router_contract.rs`.

mod common;

use common::{shard_runtime, start_router};
use eugene_net::shard::{ShardConfig, ShardRouter};
use eugene_net::{ClientConfig, GatewayConfig, LoadgenConfig, MultiplexClient};
use eugene_serve::RuntimeConfig;
use std::time::Duration;

const RAMP: [f32; 2] = [0.5, 0.95];

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        num_workers: 2,
        ..RuntimeConfig::default()
    }
}

fn shard_config() -> ShardConfig {
    ShardConfig {
        gateway: GatewayConfig {
            high_water: 1_000_000,
            hard_cap: 2_000_000,
            ..GatewayConfig::default()
        },
        ..ShardConfig::default()
    }
}

fn start(shards: usize, stage_time: Duration) -> ShardRouter {
    start_router(
        shards,
        RAMP.to_vec(),
        stage_time,
        runtime_config(),
        shard_config(),
    )
}

/// A routing key the live ring currently maps to `shard`.
fn key_on_shard(router: &ShardRouter, shard: usize) -> u64 {
    (0..100_000u64)
        .find(|&k| router.shard_for_key(k) == Some(shard))
        .expect("some key must map to every live shard")
}

/// Loadgen config with wide budgets: any reject, error, or deadline miss
/// the report shows is a real fault-handling defect, not timing noise.
fn loadgen_config(addr: String, total: usize, seed: u64) -> LoadgenConfig {
    LoadgenConfig {
        addr,
        connections: 2,
        total_requests: total,
        rate_hz: 600.0,
        seed,
        concurrency: 8,
        keyspace: Some(64),
        classes: vec![eugene_net::loadgen::ClassSpec {
            name: "replicated".to_owned(),
            budget_ms: 30_000,
            weight: 1.0,
            payload_len: 16,
        }],
        client: ClientConfig {
            // One attempt only: the tier itself must absorb the fault.
            // Any client-side retry would mask a failover bug.
            max_attempts: 1,
            ..ClientConfig::default()
        },
        ..LoadgenConfig::default()
    }
}

// ---------------------------------------------------------------------
// Distribution: distinct keys spread over every shard, and every request
// is served by exactly the shard the ring names.
// ---------------------------------------------------------------------

#[test]
fn keys_spread_over_all_shards() {
    const SHARDS: usize = 3;
    const KEYS: u64 = 48;
    let router = start(SHARDS, Duration::from_millis(1));
    let client = MultiplexClient::new(router.local_addr(), ClientConfig::default()).unwrap();
    let mut expected = vec![0u64; SHARDS];
    let pending: Vec<_> = (0..KEYS)
        .map(|key| {
            expected[router.shard_for_key(key).unwrap()] += 1;
            client
                .submit_keyed(
                    "mix",
                    &[key as f32],
                    Duration::from_secs(10),
                    false,
                    Some(key),
                )
                .expect("submit")
        })
        .collect();
    for (key, p) in pending.into_iter().enumerate() {
        let outcome = p.wait().expect("keyed request completes");
        assert_eq!(
            outcome.predicted,
            Some(key as u64),
            "payload survived routing"
        );
    }
    let per_shard: Vec<u64> = router.shard_stats().iter().map(|s| s.completed()).collect();
    assert_eq!(
        per_shard.iter().sum::<u64>(),
        KEYS,
        "every request served once"
    );
    assert_eq!(
        per_shard, expected,
        "requests landed exactly where the ring routes"
    );
    for (shard, &served) in per_shard.iter().enumerate() {
        assert!(
            served > 0,
            "shard {shard} served nothing out of {KEYS} keys"
        );
    }
    router.shutdown();
}

#[test]
fn router_answers_pings_locally() {
    let router = start(2, Duration::from_millis(1));
    let client = MultiplexClient::new(router.local_addr(), ClientConfig::default()).unwrap();
    let rtt = client.ping(Duration::from_secs(5)).expect("pong");
    assert!(rtt < Duration::from_secs(5));
    router.shutdown();
}

// ---------------------------------------------------------------------
// Regression: revive ordering. The ring must republish a revived shard
// only once it can serve: the runtime is loaded into the shard's registry
// before its virtual nodes return, so requests hammered across the
// revival window never fail.
// ---------------------------------------------------------------------

#[test]
fn revive_republishes_only_after_accept_health() {
    const REVIVALS: usize = 20;
    const VICTIM: usize = 0;
    let router = start(2, Duration::from_millis(1));
    let client = MultiplexClient::new(
        router.local_addr(),
        ClientConfig {
            // One attempt: a submit routed onto a revived shard that
            // cannot serve yet would surface immediately instead of
            // being retried into invisibility.
            max_attempts: 1,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let victim_key = key_on_shard(&router, VICTIM);

    for round in 0..REVIVALS {
        router.kill_shard(VICTIM);
        let runtime = shard_runtime(RAMP.to_vec(), Duration::from_millis(1), &runtime_config());
        std::thread::scope(|scope| {
            let reviver = scope.spawn(|| router.revive_shard(VICTIM, runtime).expect("revive"));
            // Requests before, during, and after the revival window. Each
            // must complete on the first attempt regardless of which side
            // of the ring republish it lands on.
            for i in 0..8u64 {
                let outcome = client
                    .infer_keyed(
                        "revive-race",
                        &[i as f32],
                        Duration::from_secs(30),
                        Some(victim_key),
                    )
                    .unwrap_or_else(|e| panic!("round {round} request {i}: {e:?}"));
                assert_eq!(outcome.predicted, Some(i));
            }
            reviver.join().unwrap();
        });
    }
    assert_eq!(router.shard_lost_rejects(), 0, "spurious ShardLost");
    router.shutdown();
}

// ---------------------------------------------------------------------
// Regression: a connection opened before a kill + revive reaches the
// revived generation on its first keyed request after the revival.
// ---------------------------------------------------------------------

#[test]
fn old_connections_reach_a_revived_shard_first_try() {
    const VICTIM: usize = 0;
    let router = start(2, Duration::from_millis(1));
    // max_attempts 1: a request lost to the dead generation must fail
    // the test, not burn a silent retry.
    let client = MultiplexClient::new(
        router.local_addr(),
        ClientConfig {
            max_attempts: 1,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let victim_key = key_on_shard(&router, VICTIM);

    // Serve this connection from both shards before the kill.
    for shard in 0..2 {
        let key = key_on_shard(&router, shard);
        let outcome = client
            .infer_keyed("prime", &[1.0], Duration::from_secs(10), Some(key))
            .expect("both shards serve before the kill");
        assert_eq!(outcome.predicted, Some(1));
    }

    router.kill_shard(VICTIM);
    // While the victim is down its keys serve from the standby.
    let outcome = client
        .infer_keyed("standby", &[2.0], Duration::from_secs(10), Some(victim_key))
        .expect("standby serves the victim's keys");
    assert_eq!(outcome.predicted, Some(2));

    router
        .revive_shard(
            VICTIM,
            shard_runtime(RAMP.to_vec(), Duration::from_millis(1), &runtime_config()),
        )
        .expect("revive");
    let before = router.shard_stats()[VICTIM].completed();
    let outcome = client
        .infer_keyed("revived", &[3.0], Duration::from_secs(10), Some(victim_key))
        .expect("first request after revival must not hit a stale socket");
    assert_eq!(outcome.predicted, Some(3));
    assert_eq!(
        router.shard_stats()[VICTIM].completed(),
        before + 1,
        "the revived generation served it"
    );
    router.shutdown();
}

// ---------------------------------------------------------------------
// Loadgen through a kill and then a live scale-out with NO client
// retries: the tier itself absorbs both, so the report shows zero
// rejects, zero errors, zero deadline misses — every request completed.
// ---------------------------------------------------------------------

#[test]
fn loadgen_through_kill_is_zero_error() {
    const SHARDS: usize = 3;
    const TOTAL: usize = 300;
    let router = start(SHARDS, Duration::from_millis(1));
    let config = loadgen_config(router.local_addr().to_string(), TOTAL, 23);
    let epoch_start = router.ring_epoch();

    let run = std::thread::spawn(move || eugene_net::loadgen::run(&config));
    std::thread::sleep(Duration::from_millis(150));
    assert!(router.kill_shard(0), "victim was alive");
    std::thread::sleep(Duration::from_millis(120));
    router
        .add_shard(shard_runtime(
            RAMP.to_vec(),
            Duration::from_millis(1),
            &runtime_config(),
        ))
        .expect("live scale-out after the kill");
    let report = run.join().expect("loadgen run never hangs");

    assert_eq!(
        report.completed, TOTAL as u64,
        "kill + scale-out must be invisible: {report:?}"
    );
    assert_eq!(report.rejected, 0, "{report:?}");
    assert_eq!(report.rejected_shard_lost, 0, "{report:?}");
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.deadline_exhausted, 0, "{report:?}");
    assert!(
        router.ring_epoch() - epoch_start >= 2,
        "the kill and the scale-out must each bump the ring epoch"
    );
    router.shutdown();
}

// ---------------------------------------------------------------------
// Live elasticity under load: scale out (add_shard) and back in
// (remove_shard) mid-run. With single-attempt clients every request must
// still complete — the removed shard's drain finishes its work, and a
// submit that races the drain reroutes to the key's new owner.
// ---------------------------------------------------------------------

#[test]
fn live_scale_out_and_in_under_load() {
    const SHARDS: usize = 2;
    const TOTAL: usize = 400;
    let router = start(SHARDS, Duration::from_millis(1));
    let config = loadgen_config(router.local_addr().to_string(), TOTAL, 41);
    let epoch_start = router.ring_epoch();

    let run = std::thread::spawn(move || eugene_net::loadgen::run(&config));

    std::thread::sleep(Duration::from_millis(120));
    let newcomer = router
        .add_shard(shard_runtime(
            RAMP.to_vec(),
            Duration::from_millis(1),
            &runtime_config(),
        ))
        .expect("live scale-out");
    assert_eq!(newcomer, SHARDS, "new slot appended");
    assert_eq!(router.alive_shards(), SHARDS + 1);

    std::thread::sleep(Duration::from_millis(150));
    assert!(router.remove_shard(0), "live scale-in of shard 0");

    let report = run.join().expect("loadgen run never hangs");
    assert_eq!(
        report.completed, TOTAL as u64,
        "elasticity must be invisible: {report:?}"
    );
    assert_eq!(report.rejected, 0, "{report:?}");
    assert_eq!(report.rejected_shard_lost, 0, "{report:?}");
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.deadline_exhausted, 0, "{report:?}");

    // Membership changes bumped the ring epoch, and the newcomer is a
    // first-class ring member serving its ranges.
    assert!(router.ring_epoch() > epoch_start, "epoch must advance");
    assert_eq!(router.alive_shards(), SHARDS);
    assert_eq!(
        router.shard_for_key(key_on_shard(&router, newcomer)),
        Some(newcomer)
    );
    router.shutdown();
}
