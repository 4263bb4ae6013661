//! The shard router's contract, in tier-1: a shard killed mid-flight is
//! invisible to clients and answered exactly once however the kill races
//! the answer, a tier with no shard left answers `ShardLost` instead of
//! hanging, a router grown from one shard fails over like one started
//! wide, a shard index that was never a shard is refused without harm,
//! and router shutdown returns even when a client stopped reading or
//! never said Hello. The router's thread budget is checked in
//! `tests/router_threads.rs`, a process of its own.

#[path = "../crates/net/tests/common/mod.rs"]
mod common;

use common::{fast_runtime, handshake, open_config, shard_runtime, start_router};
use eugene::net::wire::{self, Frame, RejectReason};
use eugene::net::{ClientConfig, ClientError, MultiplexClient, ShardConfig, ShardRouter};
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const RAMP: [f32; 2] = [0.5, 0.95];

fn start(shards: usize, stage_time: Duration) -> ShardRouter {
    start_router(
        shards,
        RAMP.to_vec(),
        stage_time,
        fast_runtime(2),
        ShardConfig {
            gateway: open_config(),
            ..ShardConfig::default()
        },
    )
}

/// A routing key the live ring currently maps to `shard`.
fn key_on_shard(router: &ShardRouter, shard: usize) -> u64 {
    (0..100_000u64)
        .find(|&k| router.shard_for_key(k) == Some(shard))
        .expect("some key must map to every live shard")
}

/// Waits until the shards together have admitted `n` submits.
fn wait_admitted(router: &ShardRouter, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while router
        .shard_stats()
        .iter()
        .map(|s| s.submitted())
        .sum::<u64>()
        < n
    {
        assert!(
            Instant::now() < deadline,
            "shards never admitted {n} submits"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Shuts `router` down on another thread; `Some(elapsed)` if it
/// returned within `bound`, `None` if it was still blocked.
fn shutdown_within(router: ShardRouter, bound: Duration) -> Option<Duration> {
    let (tx, rx) = mpsc::channel();
    let started = Instant::now();
    std::thread::spawn(move || {
        router.shutdown();
        let _ = tx.send(started.elapsed());
    });
    rx.recv_timeout(bound).ok()
}

/// Kill a shard with staged requests in flight: every one replays to the
/// warm standby and completes with its payload, a request on another
/// shard is untouched, and revival restores the exact prior assignment.
/// After its submits the client sends nothing, so the replays depend on
/// the failover waking the connection's thread.
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
    let survivor_key = key_on_shard(&router, (VICTIM + 1) % SHARDS);
    let group = router.replicas_for_key(victim_key);
    assert_eq!(group[0], VICTIM, "primary is the ring owner");
    let standby = group[1];
    assert_ne!(standby, VICTIM, "standby is a distinct shard");
    let assignment_before: Vec<Option<usize>> = (0..256).map(|k| router.shard_for_key(k)).collect();

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
    let safe = client
        .submit_keyed(
            "safe",
            &[7.0],
            Duration::from_secs(30),
            false,
            Some(survivor_key),
        )
        .expect("submit onto survivor");

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
    assert_eq!(router.alive_shards(), SHARDS - 1);

    // Every in-flight request completes with its payload intact — the
    // kill cost latency (a re-execution on the standby), nothing else.
    for (i, p) in doomed.into_iter().enumerate() {
        let outcome = p
            .wait()
            .unwrap_or_else(|e| panic!("request {i} surfaced the kill as {e:?}"));
        assert_eq!(outcome.predicted, Some(i as u64), "request {i} payload");
    }
    let outcome = safe.wait().expect("survivor keeps serving");
    assert_eq!(outcome.predicted, Some(7), "survivor request untouched");
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

    // Revival restores the exact prior assignment, and the revived shard
    // serves its keys again.
    router
        .revive_shard(
            VICTIM,
            shard_runtime(RAMP.to_vec(), Duration::from_millis(1), &fast_runtime(2)),
        )
        .expect("revive shard");
    assert_eq!(router.alive_shards(), SHARDS);
    let assignment_after: Vec<Option<usize>> = (0..256).map(|k| router.shard_for_key(k)).collect();
    assert_eq!(
        assignment_before, assignment_after,
        "revival restores the ring"
    );
    let before = router.shard_stats()[VICTIM].completed();
    let outcome = client
        .infer_keyed("revived", &[5.0], Duration::from_secs(30), Some(victim_key))
        .expect("revived shard serves again");
    assert_eq!(outcome.predicted, Some(5));
    assert_eq!(router.shard_stats()[VICTIM].completed(), before + 1);
    router.shutdown();
}

/// Fault injection at an index that was never a shard is refused — kill
/// and remove answer `false`, revive `InvalidInput` — and the router
/// keeps serving.
#[test]
fn an_unknown_shard_index_is_refused_and_the_router_keeps_serving() {
    let router = start(2, Duration::from_millis(1));
    let unknown = router.num_shards();
    assert!(!router.kill_shard(unknown), "no shard to kill");
    assert!(!router.remove_shard(unknown), "no shard to remove");
    let err = router
        .revive_shard(
            unknown,
            shard_runtime(RAMP.to_vec(), Duration::from_millis(1), &fast_runtime(2)),
        )
        .expect_err("no shard to revive");
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    assert_eq!(router.alive_shards(), 2);

    let client = MultiplexClient::new(router.local_addr(), ClientConfig::default()).unwrap();
    let key = key_on_shard(&router, 1);
    let outcome = client
        .infer_keyed("known", &[3.0], Duration::from_secs(10), Some(key))
        .expect("the router still serves");
    assert_eq!(outcome.predicted, Some(3));
    router.shutdown();
}

/// With every shard dead, a submit resolves with `ShardLost` (or runs out
/// its budget across `ShardLost` retries) instead of hanging.
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

/// A client that pipelines `Ping`s and never reads stalls the router's
/// `Pong` writes. Shutdown must still return — the stalled connection is
/// cut off once it has taken no bytes for the engine's stall period — and
/// a well-behaved client connected at the same time still gets every
/// in-flight answer.
#[test]
fn router_shutdown_returns_with_a_client_that_never_reads() {
    const LIMIT: usize = 64 << 20;
    const PINGS_PER_CHUNK: u64 = 256;
    // A socket that takes nothing for this long says the router stopped
    // reading it.
    const STALL: Duration = Duration::from_millis(200);
    const IN_FLIGHT: usize = 4;
    let router = start(2, Duration::from_millis(100));
    let mut stream = handshake(router.local_addr());
    stream.set_nonblocking(true).expect("non-blocking");

    // Write whole frames only: the write position carries over partial
    // writes, so the router never sees a torn frame and keeps reading
    // until its own `Pong` writes block.
    let mut chunk = Vec::new();
    let mut chunk_pos = 0;
    let mut next_nonce = 0u64;
    let mut written = 0usize;
    let mut stalled_since: Option<Instant> = None;
    loop {
        if chunk_pos == chunk.len() {
            chunk.clear();
            chunk_pos = 0;
            for nonce in next_nonce..next_nonce + PINGS_PER_CHUNK {
                chunk.extend_from_slice(&wire::encode_frame(&Frame::Ping { nonce }));
            }
            next_nonce += PINGS_PER_CHUNK;
        }
        match stream.write(&chunk[chunk_pos..]) {
            Ok(n) => {
                chunk_pos += n;
                written += n;
                stalled_since = None;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if stalled_since.get_or_insert_with(Instant::now).elapsed() >= STALL {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => panic!("write failed after {written} bytes: {e}"),
        }
        assert!(
            written < LIMIT,
            "wrote {written} bytes of unread Pings and the router is still reading"
        );
    }

    let client = MultiplexClient::new(router.local_addr(), ClientConfig::default()).unwrap();
    let pending: Vec<_> = (0..IN_FLIGHT)
        .map(|i| {
            client
                .submit_keyed(
                    "drained",
                    &[i as f32],
                    Duration::from_secs(30),
                    false,
                    Some(i as u64),
                )
                .expect("submit")
        })
        .collect();
    wait_admitted(&router, IN_FLIGHT as u64);

    shutdown_within(router, Duration::from_secs(20))
        .expect("router shutdown still blocked 20 s after a client stopped reading");
    for (i, p) in pending.into_iter().enumerate() {
        let outcome = p
            .wait()
            .unwrap_or_else(|e| panic!("request {i} lost at shutdown: {e}"));
        assert_eq!(outcome.predicted, Some(i as u64));
    }
    drop(stream);
}

/// A raw connection that never sends Hello cannot hold up shutdown, and
/// a client with requests in flight gets every answer within it: the
/// answer that empties a draining connection wakes its thread.
#[test]
fn router_shutdown_is_prompt_with_a_client_that_never_says_hello() {
    const IN_FLIGHT: usize = 4;
    let router = start(2, Duration::from_millis(100));
    let silent = TcpStream::connect(router.local_addr()).expect("connect");
    let client = MultiplexClient::new(router.local_addr(), ClientConfig::default()).unwrap();
    let pending: Vec<_> = (0..IN_FLIGHT)
        .map(|i| {
            client
                .submit_keyed(
                    "drained",
                    &[i as f32],
                    Duration::from_secs(30),
                    false,
                    Some(i as u64),
                )
                .expect("submit")
        })
        .collect();
    wait_admitted(&router, IN_FLIGHT as u64);
    let elapsed = shutdown_within(router, Duration::from_secs(5))
        .expect("router shutdown blocked by a client that never said Hello");
    assert!(
        elapsed < Duration::from_secs(1),
        "shutdown took {elapsed:?} with a silent client and {IN_FLIGHT} requests in flight"
    );
    for (i, p) in pending.into_iter().enumerate() {
        let outcome = p
            .wait()
            .unwrap_or_else(|e| panic!("request {i} lost at shutdown: {e}"));
        assert_eq!(outcome.predicted, Some(i as u64));
    }
    drop(silent);
}

/// The kill/answer race, hammered: killing a shard while submits are
/// pre-admission, admitted, or already staged must resolve every tag
/// exactly once — zero stale frames, zero `ShardLost`, every payload
/// intact — 100 times over.
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
        // still unread, just admitted, or already staged. All three
        // interleavings must resolve each tag exactly once.
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
                shard_runtime(RAMP.to_vec(), Duration::from_millis(1), &fast_runtime(2)),
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

/// A router started with one shard, then grown, fails over like one
/// started wide: requests admitted while shard 0 was the only shard
/// replay to the added shard when shard 0 dies, and none is answered
/// `ShardLost`.
#[test]
fn a_router_grown_from_one_shard_replays_requests_admitted_before_the_add() {
    const IN_FLIGHT: usize = 4;
    let router = start(1, Duration::from_millis(150));
    let client = MultiplexClient::new(router.local_addr(), ClientConfig::default()).unwrap();
    let pending: Vec<_> = (0..IN_FLIGHT)
        .map(|i| {
            client
                .submit_keyed(
                    "grown",
                    &[i as f32],
                    Duration::from_secs(30),
                    false,
                    Some(i as u64),
                )
                .expect("submit onto the only shard")
        })
        .collect();
    wait_admitted(&router, IN_FLIGHT as u64);

    let added = router
        .add_shard(shard_runtime(
            RAMP.to_vec(),
            Duration::from_millis(1),
            &fast_runtime(2),
        ))
        .expect("add shard");
    assert!(router.kill_shard(0), "shard 0 was alive");
    assert_eq!(router.alive_shards(), 1);

    for (i, p) in pending.into_iter().enumerate() {
        let outcome = p
            .wait()
            .unwrap_or_else(|e| panic!("request {i} surfaced the kill as {e:?}"));
        assert_eq!(outcome.predicted, Some(i as u64), "request {i} payload");
    }
    assert_eq!(router.shard_lost_rejects(), 0, "every request replayed");
    assert!(
        router.failover_replays() >= IN_FLIGHT as u64,
        "expected >= {IN_FLIGHT} replays, saw {}",
        router.failover_replays()
    );
    assert!(
        router.shard_stats()[added].completed() >= IN_FLIGHT as u64,
        "the added shard served the replayed load"
    );
    assert_eq!(client.stale_frames(), 0, "no double answers");
    router.shutdown();
}
