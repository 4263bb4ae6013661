//! The shard router's thread budget: its own threads are one event loop,
//! however many shards and client connections it serves.
//!
//! The check counts the threads of this process, so this file holds one
//! test and the test harness runs it alone in its own process. The
//! clients are raw sockets, which add no threads to the count.

#[path = "../crates/net/tests/common/mod.rs"]
mod common;

use common::{handshake, infer, start_router};
use eugene::net::wire::FrameBuffer;
use eugene::net::{ShardConfig, ShardRouter};
use eugene::serve::RuntimeConfig;
use std::time::Duration;

/// Threads of this process, as the kernel lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

/// A routing key the live ring currently maps to `shard`.
fn key_on_shard(router: &ShardRouter, shard: usize) -> u64 {
    (0..100_000u64)
        .find(|&k| router.shard_for_key(k) == Some(shard))
        .expect("some key must map to every live shard")
}

/// Three one-worker shards and sixteen open connections, each served by
/// every shard: the process gains each runtime's coordinator and worker
/// and exactly one router thread.
#[test]
fn router_threads_are_one_event_loop() {
    const SHARDS: usize = 3;
    const WORKERS: usize = 1;
    const CONNECTIONS: usize = 16;
    let before = threads();
    let router = start_router(
        SHARDS,
        vec![0.5, 0.95],
        Duration::from_millis(1),
        RuntimeConfig {
            num_workers: WORKERS,
            ..RuntimeConfig::default()
        },
        ShardConfig::default(),
    );
    let keys: Vec<u64> = (0..SHARDS).map(|s| key_on_shard(&router, s)).collect();
    let mut conns: Vec<_> = (0..CONNECTIONS)
        .map(|_| (handshake(router.local_addr()), FrameBuffer::new()))
        .collect();
    for (i, (stream, buffer)) in conns.iter_mut().enumerate() {
        for (tag, &key) in keys.iter().enumerate() {
            let predicted = infer(stream, buffer, tag as u64, i as f32, Some(key));
            assert_eq!(predicted, Some(i as u64));
        }
    }
    assert_eq!(router.status().open_connections(), CONNECTIONS as u64);
    let runtimes = SHARDS * (1 + WORKERS);
    assert_eq!(
        threads(),
        before + runtimes + 1,
        "the router added threads beyond its runtimes' {runtimes} and one event loop"
    );
    drop(conns);
    router.shutdown();
}
