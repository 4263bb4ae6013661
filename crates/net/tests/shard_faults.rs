//! Fault injection for the sharded front tier: shard death must be a
//! well-defined event — in-flight requests on the dead shard answer
//! `ShardLost`, new sessions re-admit onto survivors, nothing ever
//! hangs — and revival must restore the exact prior key assignment.

mod common;

use common::{shard_runtime, start_router};
use eugene_net::shard::{FailoverPolicy, ReplicaConfig, ShardConfig, ShardRouter};
use eugene_net::wire::RejectReason;
use eugene_net::{ClientConfig, ClientError, GatewayConfig, LoadgenConfig, MultiplexClient};
use eugene_serve::RuntimeConfig;
use std::time::{Duration, Instant};

const RAMP: [f32; 2] = [0.5, 0.95];

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        num_workers: 2,
        ..RuntimeConfig::default()
    }
}

fn shard_config() -> ShardConfig {
    ShardConfig {
        // This suite pins the legacy pre-replication contract: shard
        // death answers in-flight tags with ShardLost (the transparent
        // Replay policy has its own suite, replica_faults.rs).
        replica: ReplicaConfig {
            failover: FailoverPolicy::Reject,
            ..ReplicaConfig::default()
        },
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

// ---------------------------------------------------------------------
// Kill mid-flight: staged sessions on the victim get ShardLost, new
// sessions land on survivors, revival restores the assignment.
// ---------------------------------------------------------------------

#[test]
fn kill_mid_flight_rejects_in_flight_and_reroutes_new() {
    const SHARDS: usize = 3;
    const IN_FLIGHT: usize = 8;
    const VICTIM: usize = 1;
    // Slow stages so the victim's requests are reliably still staged when
    // the shard dies.
    let router = start(SHARDS, Duration::from_millis(150));
    let client = MultiplexClient::new(router.local_addr(), ClientConfig::default()).unwrap();

    let victim_key = key_on_shard(&router, VICTIM);
    let survivor_key = key_on_shard(&router, (VICTIM + 1) % SHARDS);
    let assignment_before: Vec<Option<usize>> = (0..256).map(|k| router.shard_for_key(k)).collect();

    let doomed: Vec<_> = (0..IN_FLIGHT)
        .map(|i| {
            client
                .submit_keyed(
                    "doomed",
                    &[i as f32],
                    Duration::from_secs(30),
                    false,
                    Some(victim_key),
                )
                .expect("submit onto victim")
        })
        .collect();
    let safe = client
        .submit_keyed(
            "safe",
            &[7.0],
            Duration::from_secs(30),
            false,
            Some(survivor_key),
        )
        .expect("submit onto survivor");

    // Wait until the victim shard has actually admitted the requests, so
    // the kill provably lands mid-flight, then kill it.
    let victim_stats = &router.shard_stats()[VICTIM];
    let admitted_by = Instant::now() + Duration::from_secs(10);
    while (victim_stats.submitted() as usize) < IN_FLIGHT {
        assert!(
            Instant::now() < admitted_by,
            "victim never admitted the load"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(router.kill_shard(VICTIM), "victim was alive");
    assert_eq!(router.alive_shards(), SHARDS - 1);

    // Every in-flight request on the dead shard resolves promptly with a
    // ShardLost reject — no hangs, no fabricated finals.
    for (i, p) in doomed.into_iter().enumerate() {
        let waited = Instant::now();
        match p.wait() {
            Err(ClientError::Rejected { reason, .. }) => {
                assert_eq!(reason, RejectReason::ShardLost, "request {i}");
            }
            other => panic!("request {i} on dead shard resolved as {other:?}"),
        }
        assert!(
            waited.elapsed() < Duration::from_secs(5),
            "request {i} took {:?} to observe shard loss",
            waited.elapsed()
        );
    }
    assert!(router.shard_lost_rejects() >= IN_FLIGHT as u64);

    // The survivor's request is untouched by the kill.
    let outcome = safe.wait().expect("survivor keeps serving");
    assert_eq!(outcome.predicted, Some(7));

    // New sessions with the victim's key re-admit onto a survivor.
    let rerouted = router.shard_for_key(victim_key).expect("ring not empty");
    assert_ne!(rerouted, VICTIM, "dead shard must leave the ring");
    let outcome = client
        .infer_keyed("retry", &[3.0], Duration::from_secs(30), Some(victim_key))
        .expect("victim-keyed request re-admits on a survivor");
    assert_eq!(outcome.predicted, Some(3));

    // Revival restores the exact prior assignment (bounded remapping both
    // ways: only the victim's keys ever moved).
    router
        .revive_shard(
            VICTIM,
            shard_runtime(RAMP.to_vec(), Duration::from_millis(1), &runtime_config()),
        )
        .expect("revive shard");
    assert_eq!(router.alive_shards(), SHARDS);
    let assignment_after: Vec<Option<usize>> = (0..256).map(|k| router.shard_for_key(k)).collect();
    assert_eq!(
        assignment_before, assignment_after,
        "revival restores the ring"
    );
    let outcome = client
        .infer_keyed("revived", &[5.0], Duration::from_secs(30), Some(victim_key))
        .expect("revived shard serves again");
    assert_eq!(outcome.predicted, Some(5));
    router.shutdown();
}

// ---------------------------------------------------------------------
// Loadgen under a mid-run kill: the run terminates with every request
// accounted for (completed / rejected / expired / errors), zero hangs,
// and bounded tail latency.
// ---------------------------------------------------------------------

#[test]
fn loadgen_completes_through_a_kill() {
    const SHARDS: usize = 3;
    const TOTAL: usize = 300;
    let router = start(SHARDS, Duration::from_millis(1));
    let addr = router.local_addr().to_string();
    let config = LoadgenConfig {
        addr,
        connections: 2,
        total_requests: TOTAL,
        rate_hz: 600.0,
        seed: 11,
        concurrency: 8,
        keyspace: Some(64),
        client: ClientConfig {
            // Retries re-admit ShardLost sessions onto survivors, so the
            // kill costs latency, not failed requests.
            max_attempts: 4,
            ..ClientConfig::default()
        },
        ..LoadgenConfig::default()
    };

    let killer = {
        std::thread::spawn({
            let kill_at = Duration::from_millis(150);
            move || {
                std::thread::sleep(kill_at);
            }
        })
    };
    // Kill one shard roughly mid-run from a sibling thread while the
    // loadgen drives the router.
    let run = std::thread::spawn(move || eugene_net::loadgen::run(&config));
    killer.join().unwrap();
    router.kill_shard(0);
    let started = Instant::now();
    let report = run.join().expect("loadgen run never hangs");
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "run must terminate promptly after the kill"
    );

    let accounted = report.completed
        + report.rejected
        + report.expired
        + report.deadline_exhausted
        + report.errors;
    assert_eq!(
        accounted, TOTAL as u64,
        "every request resolves exactly once"
    );
    assert!(
        report.completed > (TOTAL / 2) as u64,
        "survivors keep serving: only {}/{TOTAL} completed",
        report.completed
    );
    assert!(
        report.p99_ms < 5_000.0,
        "p99 must stay bounded through the kill, got {}ms",
        report.p99_ms
    );
    router.shutdown();
}

// ---------------------------------------------------------------------
// Router-level protocol details that a single gateway also guarantees.
// ---------------------------------------------------------------------

#[test]
fn router_answers_pings_locally() {
    let router = start(2, Duration::from_millis(1));
    let client = MultiplexClient::new(router.local_addr(), ClientConfig::default()).unwrap();
    let rtt = client.ping(Duration::from_secs(5)).expect("pong");
    assert!(rtt < Duration::from_secs(5));
    router.shutdown();
}

#[test]
fn all_shards_dead_yields_shard_lost_not_a_hang() {
    let router = start(2, Duration::from_millis(1));
    let client = MultiplexClient::new(router.local_addr(), ClientConfig::default()).unwrap();
    // Prove the tier serves, then take every shard down.
    client
        .infer("warm", &[1.0], Duration::from_secs(10))
        .expect("tier serves before the kills");
    router.kill_shard(0);
    router.kill_shard(1);
    assert_eq!(router.alive_shards(), 0);
    let started = Instant::now();
    match client.infer("orphan", &[2.0], Duration::from_secs(5)) {
        Err(ClientError::Rejected { reason, .. }) => {
            assert_eq!(reason, RejectReason::ShardLost);
        }
        // All retries were ShardLost-rejected and the budget may lapse
        // during the mandated backoffs; either way it resolves.
        Err(ClientError::DeadlineExhausted) => {}
        other => panic!("expected ShardLost with no shards alive, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "no-shard submits must resolve, not hang"
    );
    assert!(router.shard_lost_rejects() > 0);
    router.shutdown();
}
