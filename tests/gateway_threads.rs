//! A gateway holds an idle crowd on the threads it started with: the
//! process gains no thread while 2000 handshaken, silent connections
//! arrive, and a live request from a fresh connection still gets through
//! in under a second.
//!
//! The check counts the threads of this process, so this file holds one
//! test and the test harness runs it alone in its own process. The
//! clients are raw sockets, which add no threads to the count.

#[path = "../crates/net/tests/common/mod.rs"]
mod common;

use common::{fast_runtime, handshake, infer, open_config, start_gateway};
use eugene::net::wire::FrameBuffer;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Idle connections in the crowd. Each costs this process two file
/// descriptors, one per end.
const CROWD: usize = 2_000;
/// Descriptors left to everything else in the process.
const FD_RESERVE: usize = 200;

/// Threads of this process, as the kernel lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

/// The soft limit on open files, from `/proc/self/limits`.
fn open_file_limit() -> usize {
    let limits = std::fs::read_to_string("/proc/self/limits").expect("read /proc/self/limits");
    let soft = limits
        .lines()
        .find(|line| line.starts_with("Max open files"))
        .and_then(|line| line.split_whitespace().nth(3))
        .expect("a Max open files line");
    soft.parse().unwrap_or(usize::MAX)
}

/// The crowd arrives without a thread being added, a live request gets
/// through it in under a second, and closed sockets leave the
/// open-connection gauge without new activity.
#[test]
fn idle_crowd_adds_no_thread() {
    let needed = 2 * CROWD + FD_RESERVE;
    let limit = open_file_limit();
    assert!(
        limit >= needed,
        "{CROWD} idle connections need {needed} open files, the soft limit is {limit}: \
         raise it (ulimit -n {needed}) and rerun"
    );
    let gateway = start_gateway(vec![0.95], Duration::ZERO, fast_runtime(2), open_config());
    let addr = gateway.local_addr();
    let status = gateway.status();
    // The runtime's coordinator spawns its worker pool after `start`
    // returns; one answered request proves the pool is up.
    let mut warm = handshake(addr);
    assert_eq!(
        infer(&mut warm, &mut FrameBuffer::new(), 0, 1.0, None),
        Some(1)
    );

    let before = threads();
    let idle: Vec<TcpStream> = (0..CROWD).map(|_| handshake(addr)).collect();
    assert_eq!(status.open_connections(), CROWD as u64 + 1);
    assert_eq!(
        threads(),
        before,
        "{CROWD} idle connections must be held by the threads the gateway started with"
    );

    let started = Instant::now();
    let mut live = handshake(addr);
    assert_eq!(
        infer(&mut live, &mut FrameBuffer::new(), 1, 2.0, None),
        Some(2)
    );
    let rtt = started.elapsed();
    println!("live request among {CROWD} idle connections: {rtt:?}");
    assert!(
        rtt < Duration::from_secs(1),
        "a live request among {CROWD} idle connections took {rtt:?}"
    );

    drop((warm, idle, live));
    let deadline = Instant::now() + Duration::from_secs(10);
    while status.open_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "{} connections still open after the crowd closed",
            status.open_connections()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    gateway.shutdown();
}
