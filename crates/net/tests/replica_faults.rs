//! Fault injection for the *replicated* front tier (the default
//! `FailoverPolicy::Replay`): shard
//! death must be invisible to clients — in-flight submits replay to the
//! warm standby and complete with correct payloads, exactly once — and
//! live elasticity (`add_shard` / `remove_shard` mid-load) must keep
//! every request accounted with zero client-visible errors.
//!
//! The legacy `FailoverPolicy::Reject` contract (shard death answers
//! `ShardLost`) lives in `shard_faults.rs`.

mod common;

use common::{shard_runtime, start_router};
use eugene_net::shard::{ShardConfig, ShardRouter};
use eugene_net::{ClientConfig, GatewayConfig, LoadgenConfig, LoadgenMode, MultiplexClient};
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
        // Replay is the ReplicaConfig default; the point of this suite is
        // exercising it, so no override here — a changed default would
        // fail these tests loudly.
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
        mode: LoadgenMode::Multiplexed { concurrency: 8 },
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
// Transparent failover: kill a shard with staged requests in flight; all
// of them replay to the warm standby and complete. Zero ShardLost, zero
// client-visible anything.
// ---------------------------------------------------------------------

#[test]
fn kill_mid_flight_is_invisible_to_clients() {
    const SHARDS: usize = 3;
    const IN_FLIGHT: usize = 8;
    const VICTIM: usize = 1;
    // Slow stages so the victim's requests are reliably still staged when
    // the shard dies.
    let router = start(SHARDS, Duration::from_millis(150));
    let client = MultiplexClient::new(router.local_addr(), ClientConfig::default()).unwrap();

    let victim_key = key_on_shard(&router, VICTIM);
    let group = router.replicas_for_key(victim_key);
    assert_eq!(group[0], VICTIM, "primary is the ring owner");
    let standby = group[1];
    assert_ne!(standby, VICTIM, "standby is a distinct shard");

    let doomed: Vec<_> = (0..IN_FLIGHT)
        .map(|i| {
            client
                .submit_keyed(
                    "replayed",
                    &[i as f32],
                    Duration::from_secs(30),
                    false,
                    Some(victim_key),
                )
                .expect("submit onto victim")
        })
        .collect();

    // Wait until the victim has admitted the load so the kill provably
    // lands mid-flight, then kill it.
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

    // Every in-flight request completes with its payload intact — the
    // kill cost latency (a re-execution on the standby), nothing else.
    for (i, p) in doomed.into_iter().enumerate() {
        let outcome = p
            .wait()
            .unwrap_or_else(|e| panic!("request {i} surfaced the kill as {e:?}"));
        assert_eq!(outcome.predicted, Some(i as u64), "request {i} payload");
    }
    assert_eq!(
        router.shard_lost_rejects(),
        0,
        "transparent failover must not reject"
    );
    assert!(
        router.failover_replays() >= IN_FLIGHT as u64,
        "expected >= {IN_FLIGHT} replays, saw {}",
        router.failover_replays()
    );
    // The replays landed on the warm standby the ring named up front.
    assert_eq!(router.shard_for_key(victim_key), Some(standby));
    assert!(
        router.shard_stats()[standby].completed() >= IN_FLIGHT as u64,
        "standby served the replayed load"
    );
    assert_eq!(client.stale_frames(), 0, "no double answers");
    router.shutdown();
}

// ---------------------------------------------------------------------
// Regression: the reroute/kill race. Killing a shard while submits are
// being written used to double-answer (in-line retry + reader sweep both
// claiming the tag) and double-count shard_lost. Exactly-once is now
// structural (tag ownership); hammer the window 100x and require zero
// stale frames and full per-request accounting.
// ---------------------------------------------------------------------

#[test]
fn repeated_kill_revive_never_double_answers() {
    const ROUNDS: usize = 100;
    const PER_ROUND: usize = 4;
    const VICTIM: usize = 0;
    let router = start(2, Duration::from_millis(1));
    let client = MultiplexClient::new(router.local_addr(), ClientConfig::default()).unwrap();
    let victim_key = key_on_shard(&router, VICTIM);

    for round in 0..ROUNDS {
        let pending: Vec<_> = (0..PER_ROUND)
            .map(|i| {
                client
                    .submit_keyed(
                        "race",
                        &[(round * PER_ROUND + i) as f32],
                        Duration::from_secs(30),
                        false,
                        Some(victim_key),
                    )
                    .expect("submit")
            })
            .collect();
        // Kill immediately — depending on scheduling the submits are
        // pre-write, mid-write, or already staged. All three interleavings
        // must resolve each tag exactly once.
        router.kill_shard(VICTIM);
        for (i, p) in pending.into_iter().enumerate() {
            let outcome = p
                .wait()
                .unwrap_or_else(|e| panic!("round {round} request {i}: {e:?}"));
            assert_eq!(outcome.predicted, Some((round * PER_ROUND + i) as u64));
        }
        router
            .revive_shard(
                VICTIM,
                shard_runtime(RAMP.to_vec(), Duration::from_millis(1), &runtime_config()),
            )
            .expect("revive");
    }
    assert_eq!(
        client.stale_frames(),
        0,
        "a stale frame is a double-answered tag"
    );
    assert_eq!(router.shard_lost_rejects(), 0);
    router.shutdown();
}

// ---------------------------------------------------------------------
// Regression: revive ordering. The ring used to republish before the
// revived gateway accepted connections, so a submit racing the revival
// dialed a dead socket and saw a spurious ShardLost. The ring now
// publishes only after an accept-health probe; hammering requests across
// the revival window must never fail.
// ---------------------------------------------------------------------

#[test]
fn revive_republishes_only_after_accept_health() {
    const REVIVALS: usize = 20;
    const VICTIM: usize = 0;
    let router = start(2, Duration::from_millis(1));
    let client = MultiplexClient::new(
        router.local_addr(),
        ClientConfig {
            // One attempt: a dial against a not-yet-accepting revived
            // shard would surface immediately instead of being retried
            // into invisibility.
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
// Regression: stale upstream reuse. A router connection used to cache
// its proxy to shard N forever; after kill + revive the cached socket
// pointed at the dead generation and the first keyed request on an old
// connection failed. Upstreams are now keyed by (shard, generation).
// ---------------------------------------------------------------------

#[test]
fn old_connections_reach_a_revived_shard_first_try() {
    const VICTIM: usize = 0;
    let router = start(2, Duration::from_millis(1));
    // max_attempts 1: reuse of a stale upstream must fail the test, not
    // burn a silent retry.
    let client = MultiplexClient::new(
        router.local_addr(),
        ClientConfig {
            max_attempts: 1,
            ..ClientConfig::default()
        },
    )
    .unwrap();
    let victim_key = key_on_shard(&router, VICTIM);

    // Prime this connection's upstream cache with generation-1 sockets to
    // both shards.
    for shard in 0..2 {
        let key = key_on_shard(&router, shard);
        let outcome = client
            .infer_keyed("prime", &[1.0], Duration::from_secs(10), Some(key))
            .expect("prime the upstream cache");
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
// Loadgen through a kill with NO client retries: under Replay the tier
// itself absorbs the fault, so the report shows zero rejects, zero
// errors, zero deadline misses — every request completed.
// ---------------------------------------------------------------------

#[test]
fn loadgen_through_kill_is_zero_error() {
    const SHARDS: usize = 3;
    const TOTAL: usize = 300;
    let router = start(SHARDS, Duration::from_millis(1));
    let config = loadgen_config(router.local_addr().to_string(), TOTAL, 23);

    let run = std::thread::spawn(move || eugene_net::loadgen::run(&config));
    std::thread::sleep(Duration::from_millis(150));
    router.kill_shard(0);
    let report = run.join().expect("loadgen run never hangs");

    assert_eq!(
        report.completed, TOTAL as u64,
        "kill must be invisible: {report:?}"
    );
    assert_eq!(report.rejected, 0, "{report:?}");
    assert_eq!(report.rejected_shard_lost, 0, "{report:?}");
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.deadline_exhausted, 0, "{report:?}");
    router.shutdown();
}

// ---------------------------------------------------------------------
// Live elasticity under load: scale out (add_shard) and back in
// (remove_shard) mid-run. With single-attempt clients every request must
// still complete — the double-routing window covers migrating ranges and
// the drain protocol finishes the removed shard's work.
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
