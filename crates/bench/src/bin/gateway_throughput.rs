//! Measures the network gateway end to end: a seeded open-loop Poisson
//! load generator drives a loopback TCP gateway over a synthetic staged
//! engine, once comfortably under capacity and once well over it — then
//! sweeps the single-connection pipelining curve with the multiplexed
//! client.
//!
//! The shapes to look for: under nominal load the gateway answers
//! everything with low tail latency and a zero reject rate; under
//! overload, admission control sheds lowest-utility classes with
//! `Reject{retry_after}` so the admitted remainder still meets its
//! deadlines rather than collapsing into queueing failure; and on a
//! single TCP connection, throughput climbs with multiplexed in-flight
//! depth until it saturates runtime capacity — far above one request in
//! flight at a time on the same socket.
//! The sweep then repeats with stage-level micro-batching enabled
//! (`max_batch > 1`): same-stage requests gathered within the window fuse
//! into one stage execution, lifting the saturated ceiling further.
//!
//! Finally, the idle-connection scaling curve: the gateway holds a
//! growing crowd of idle (handshaken but silent) connections while the
//! bench records gateway thread count, handshake latency, and the
//! round-trip time of a live request threaded through the crowd. The
//! event loop holds ten thousand idle connections on one thread.
//!
//! Last, the shard-scaling curve: the same saturated multiplexed keyed
//! workload against a `ShardRouter` over N = 1..4 shards, each with its
//! own runtime. Aggregate throughput must clear 2.5x the single-shard
//! ceiling at N=4.
//!
//! The replicated-resilience section drives the same tier through a
//! shard kill AND a live scale-out with single-attempt clients — both
//! must be invisible (zero rejects, zero errors, every request
//! completed).
//!
//! Two multi-tenant / multi-model sections close the run. Tenant
//! isolation: a compliant tenant and a rogue tenant offering 4x the
//! compliant rate share one gateway with weighted per-tenant quotas; the
//! rogue's overshoot must shed while the compliant tenant sees zero
//! errors and a p99 inside its SLO. Data-aware routing: the same
//! mixed-difficulty workload runs against three equal-compute
//! deployments — full model only, compressed model only, and a
//! two-variant registry whose dispatcher sends easy inputs to the
//! compressed variant — and the two-variant registry must beat both
//! single-variant deployments on utility per second.
//!
//! Writes `results/gateway_throughput.json`.
//!
//! An overload-degradation section compares the runtime's two overload
//! policies at rates straddling the saturation knee: a Kill deployment
//! (admission shedding plus deadline kills) against a Degrade deployment
//! (wide-open admission, anytime early exit). Past the knee the Degrade
//! deployment must win on delivered utility per second — answering
//! everyone a little beats answering some perfectly.
//!
//! Run: `cargo run --release -p eugene-bench --bin gateway_throughput`
//! (add `--quick` for a shorter run, `--idle` for only the
//! idle-connection scaling curve, `--sharded` for only the shard-scaling
//! curve, `--replicated` for only the replicated-resilience section,
//! `--overload` for only the overload-degradation comparison,
//! `--tenants` for only the tenant-isolation and data-aware routing
//! sections)

use eugene_bench::{has_flag, print_table, write_json};
use eugene_net::wire::{self, Frame, FrameBuffer, PROTOCOL_VERSION};
use eugene_net::{
    loadgen, ClassSpec, ClientConfig, Gateway, GatewayConfig, LoadReport, LoadgenConfig,
    MultiplexClient, ShardConfig, ShardRouter, SubmitOptions, TenantQuota, TenantSpec,
};
use eugene_sched::Fifo;
use eugene_serve::{
    EngineSession, InferenceEngine, ModelRegistry, OverloadPolicy, RuntimeConfig, ServingRuntime,
    StageReport,
};
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Three-stage engine with a fixed per-stage cost: the bench measures the
/// network and admission path, so the "model" must be deterministic.
///
/// `payload[0]` is the answer to echo; `payload[1] >= 0.5` marks the
/// input as *hard*. A `wrong_on_hard` engine stands in for a compressed
/// variant that has lost accuracy on hard inputs: it answers them fast,
/// but wrong.
struct FixedCostEngine {
    ramp: Vec<f32>,
    stage_time: Duration,
    wrong_on_hard: bool,
}

impl InferenceEngine for FixedCostEngine {
    fn num_stages(&self) -> usize {
        self.ramp.len()
    }

    fn begin(&self, payload: &[f32]) -> Box<dyn EngineSession> {
        let answer = payload.first().copied().unwrap_or(0.0) as usize;
        let hard = payload.get(1).copied().unwrap_or(0.0) >= 0.5;
        Box::new(FixedCostSession {
            ramp: self.ramp.clone(),
            stage_time: self.stage_time,
            done: 0,
            predicted: if hard && self.wrong_on_hard {
                answer + 1
            } else {
                answer
            },
        })
    }

    fn next_stage_batch(&self, batch: &mut [Box<dyn EngineSession>]) -> Vec<Option<StageReport>> {
        // A fused stage costs one `stage_time` for the whole batch,
        // mirroring the staged-network engine where a multi-row forward
        // traverses the weight panels once for every row. This is what the
        // batched columns measure: occupancy turned into throughput.
        let mut stages_paid = std::collections::HashSet::new();
        batch
            .iter_mut()
            .map(|session| {
                let s = session
                    .as_any_mut()
                    .downcast_mut::<FixedCostSession>()
                    .expect("fixed-cost engine only begins fixed-cost sessions");
                if s.done >= s.ramp.len() {
                    return None;
                }
                if stages_paid.insert(s.done) {
                    std::thread::sleep(s.stage_time);
                }
                let report = StageReport {
                    predicted: s.predicted,
                    confidence: s.ramp[s.done],
                };
                s.done += 1;
                Some(report)
            })
            .collect()
    }
}

struct FixedCostSession {
    ramp: Vec<f32>,
    stage_time: Duration,
    done: usize,
    predicted: usize,
}

impl EngineSession for FixedCostSession {
    fn next_stage(&mut self) -> Option<StageReport> {
        if self.done >= self.ramp.len() {
            return None;
        }
        std::thread::sleep(self.stage_time);
        let report = StageReport {
            predicted: self.predicted,
            confidence: self.ramp[self.done],
        };
        self.done += 1;
        Some(report)
    }

    fn stages_done(&self) -> usize {
        self.done
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// One point of the single-connection pipelining sweep.
#[derive(Serialize)]
struct PipelinePoint {
    /// Concurrent in-flight requests pipelined on the one connection.
    depth: usize,
    report: LoadReport,
    /// Micro-batching gauges for this point (all zero when `max_batch`
    /// was 1).
    batching: BatchStats,
}

/// Snapshot of the runtime's micro-batching gauges after a scenario.
#[derive(Serialize, Clone, Default)]
struct BatchStats {
    fused_batches: u64,
    batched_stage_executions: u64,
    peak_batch_occupancy: usize,
    singleton_dispatches: u64,
    mean_gather_wait_us: u64,
}

/// One point of the shard-scaling curve: the same saturated multiplexed
/// workload spread by routing key over `shards` gateway shards.
#[derive(Serialize)]
struct ShardPoint {
    shards: usize,
    report: LoadReport,
    /// Runtime counters summed across all shards after the run.
    aggregate_submitted: u64,
    aggregate_completed: u64,
}

/// The replicated-resilience section: the front tier absorbing a shard
/// kill AND a live scale-out with single-attempt clients.
#[derive(Serialize)]
struct ReplicatedResilience {
    /// Loadgen driven through a mid-run `kill_shard` and a mid-run
    /// `add_shard` with `max_attempts: 1` — every reject, error, or
    /// deadline miss would be a client-visible fault, so all of them
    /// gate at zero.
    elasticity: LoadReport,
    /// In-flight submits transparently replayed to the warm standby
    /// across the kill.
    failover_replays: u64,
    /// Ring-epoch advances over the run (the kill and the scale-out each
    /// bump it).
    epoch_advances: u64,
}

/// The tenant-isolation measurement: one gateway, two tenants, the rogue
/// offering 4x the compliant rate against a weighted fair-share quota.
#[derive(Serialize)]
struct TenantIsolationPoint {
    /// Aggregate offered rate across both tenants, requests per second.
    offered_rps: f64,
    /// Compliant tenant's latency SLO the gate is checked against, ms.
    slo_ms: f64,
    /// Loadgen view of the run, including the per-tenant breakdown.
    report: LoadReport,
    /// Gateway admission counters per tenant after the run.
    compliant_admitted: u64,
    compliant_shed: u64,
    rogue_admitted: u64,
    rogue_shed: u64,
}

/// One equal-compute deployment of the data-aware routing comparison.
#[derive(Serialize)]
struct VariantPoint {
    deployment: String,
    requests: u64,
    /// Answers matching the payload's ground truth.
    correct: u64,
    /// Completed answers that missed the ground truth (the compressed
    /// variant on hard inputs).
    wrong: u64,
    elapsed_s: f64,
    throughput_rps: f64,
    /// (correct - wrong) per second: a wrong answer costs what a right
    /// one earns, so speed alone cannot win the comparison.
    utility_per_s: f64,
}

/// One point of the overload-degradation comparison: the same offered
/// rate against a Degrade-policy deployment (admission wide open, the
/// runtime early-exits what it cannot finish) and a Kill-policy
/// deployment behind admission shedding (the pre-anytime baseline).
#[derive(Serialize)]
struct OverloadPoint {
    policy: String,
    rate_hz: f64,
    report: LoadReport,
}

/// One point of the idle-connection scaling curve.
#[derive(Serialize)]
struct IdlePoint {
    /// Idle, handshaken connections held open during the measurement.
    idle_connections: usize,
    /// Gateway threads spawned to hold them (runtime workers excluded).
    gateway_threads: u64,
    /// Connect + Hello/HelloAck handshake latency across the ramp-up.
    connect_p50_us: u64,
    connect_p99_us: u64,
    /// Round trip of one live request threaded through the idle crowd.
    request_rtt_ms: f64,
}

#[derive(Serialize)]
struct GatewayThroughputDoc {
    /// Actual core count of the machine that produced the numbers.
    host_cores: usize,
    /// Kernel tiers and CPU features in effect during the run.
    isa: eugene_bench::HostIsa,
    stage_time_ms: f64,
    workers: usize,
    /// Fused-batch limit used by the batched sections (`max_batch`).
    max_batch: usize,
    nominal: LoadReport,
    overload: LoadReport,
    /// One-request-per-connection baseline on a single socket.
    serial_single_connection: LoadReport,
    /// Multiplexed single-connection throughput vs pipelining depth,
    /// stage batching disabled (`max_batch == 1`).
    mux_single_connection_curve: Vec<PipelinePoint>,
    /// The same sweep with stage-level micro-batching enabled: same-stage
    /// requests gathered within the window fuse into one stage execution.
    batched_mux_single_connection_curve: Vec<PipelinePoint>,
    /// One-request-per-connection at 64 sockets, for the equal-concurrency
    /// comparison against the depth-64 single-socket point.
    per_connection_64: LoadReport,
    /// Idle-connection scaling: threads and latency vs idle crowd size.
    idle_connection_curve: Vec<IdlePoint>,
    /// Shard-scaling: aggregate throughput of the same saturated
    /// multiplexed workload against a ShardRouter over N = 1..4 shards.
    sharded_scaling_curve: Vec<ShardPoint>,
    /// Replicated resilience: a shard kill plus a live scale-out under
    /// single-attempt load (all faults absorbed by the tier).
    replicated_resilience: ReplicatedResilience,
    /// Overload degradation: Degrade-policy (anytime early exit, wide-open
    /// admission) vs Kill-policy (admission shedding + deadline kills) at
    /// rates straddling the ~1300 rps saturation knee. Beyond the knee the
    /// Degrade deployment must win on delivered utility per second.
    overload_degradation: Vec<OverloadPoint>,
    /// Tenant isolation: a rogue tenant at 4x the compliant tenant's rate
    /// sheds its own traffic; the compliant tenant stays inside its SLO.
    tenant_isolation: TenantIsolationPoint,
    /// Data-aware routing: full-only vs compressed-only vs a two-variant
    /// registry with a difficulty dispatcher, at equal total compute.
    data_aware_utility: Vec<VariantPoint>,
}

/// Connects and completes the wire handshake, returning the open stream.
fn handshake(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
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
        match buffer.poll(&mut stream).expect("read HelloAck") {
            Some(Frame::HelloAck { .. }) => return stream,
            Some(other) => panic!("expected HelloAck, got {other:?}"),
            None => {}
        }
    }
}

/// Holds `idle` silent connections against a fresh gateway, measuring
/// handshake latency during the ramp, the gateway's thread budget, and
/// the round trip of one live request among the crowd.
fn idle_scenario(idle: usize) -> IdlePoint {
    let engine = Arc::new(FixedCostEngine {
        ramp: vec![0.95],
        stage_time: Duration::ZERO,
        wrong_on_hard: false,
    });
    let runtime = ServingRuntime::start(
        engine,
        Box::new(Fifo::new()),
        RuntimeConfig {
            num_workers: 2,
            ..RuntimeConfig::default()
        },
    );
    let gateway = Gateway::start(
        runtime,
        GatewayConfig {
            high_water: 1_000_000,
            hard_cap: 2_000_000,
            ..GatewayConfig::default()
        },
    )
    .expect("bind loopback gateway");
    let addr = gateway.local_addr();
    let status = gateway.status();
    println!("idle: ramping to {idle} idle connections...");

    let mut connect_us: Vec<u64> = Vec::with_capacity(idle);
    let mut conns = Vec::with_capacity(idle);
    for _ in 0..idle {
        let t = Instant::now();
        conns.push(handshake(addr));
        connect_us.push(t.elapsed().as_micros() as u64);
    }
    connect_us.sort_unstable();
    let pct = |p: f64| connect_us[((connect_us.len() - 1) as f64 * p) as usize];

    let client = MultiplexClient::new(addr, ClientConfig::default()).expect("resolve");
    let t = Instant::now();
    let outcome = client
        .infer("probe", &[1.0], Duration::from_secs(10))
        .expect("live request among idle crowd");
    let request_rtt_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(outcome.predicted, Some(1));

    let point = IdlePoint {
        idle_connections: idle,
        gateway_threads: status.threads_spawned(),
        connect_p50_us: pct(0.50),
        connect_p99_us: pct(0.99),
        request_rtt_ms,
    };
    drop(conns);
    gateway.shutdown();
    point
}

/// The idle scaling sweep, to 10k connections — ~20k fds on loopback,
/// hence the rlimit raise, with the curve clamped to whatever the kernel
/// actually grants.
fn idle_sweep(quick: bool) -> Vec<IdlePoint> {
    let points: &[usize] = if quick {
        &[100, 2_000]
    } else {
        &[100, 1_000, 10_000]
    };
    let want = *points.last().expect("non-empty") as u64 * 2 + 2_000;
    let granted = eugene_net::reactor::raise_nofile_limit(want);
    let max_idle = (granted.saturating_sub(2_000) / 2) as usize;
    points
        .iter()
        .map(|&n| idle_scenario(n.min(max_idle)))
        .collect()
}

fn start_gateway(admission: bool, max_batch: usize) -> Gateway {
    let engine = Arc::new(FixedCostEngine {
        ramp: vec![0.4, 0.7, 0.95],
        stage_time: Duration::from_millis(1),
        wrong_on_hard: false,
    });
    let runtime = ServingRuntime::start(
        engine,
        Box::new(Fifo::new()),
        RuntimeConfig {
            num_workers: 4,
            confidence_threshold: 0.9,
            max_batch,
            gather_window: Duration::from_millis(1),
            ..RuntimeConfig::default()
        },
    );
    // The pipelining sweep opens admission wide: it measures the wire and
    // demux path, and shedding at depth 64 would truncate the curve.
    let (high_water, hard_cap) = if admission {
        (32, 96)
    } else {
        (1_000_000, 2_000_000)
    };
    let mut config = GatewayConfig {
        high_water,
        hard_cap,
        ..GatewayConfig::default()
    };
    config.class_utility.insert("interactive".to_owned(), 2.0);
    config.class_utility.insert("batch".to_owned(), 0.5);
    Gateway::start(runtime, config).expect("bind loopback gateway")
}

struct Scenario<'a> {
    name: &'a str,
    connections: usize,
    /// Submitter threads; `== connections` keeps one request in flight
    /// per socket.
    concurrency: usize,
    admission: bool,
    max_batch: usize,
    rate_hz: f64,
    total: usize,
    seed: u64,
}

fn scenario(s: Scenario<'_>) -> (LoadReport, BatchStats) {
    // Fresh gateway per scenario so overload cannot pollute nominal.
    let gateway = start_gateway(s.admission, s.max_batch);
    let config = LoadgenConfig {
        addr: gateway.local_addr().to_string(),
        connections: s.connections,
        total_requests: s.total,
        rate_hz: s.rate_hz,
        classes: vec![
            ClassSpec {
                name: "interactive".to_owned(),
                budget_ms: 200,
                weight: 1.0,
                payload_len: 16,
            },
            ClassSpec {
                name: "batch".to_owned(),
                budget_ms: 1_000,
                weight: 1.0,
                payload_len: 16,
            },
        ],
        seed: s.seed,
        client: ClientConfig {
            max_attempts: 1, // measure raw admission decisions
            ..ClientConfig::default()
        },
        concurrency: s.concurrency,
        keyspace: None,
        tenants: Vec::new(),
        wait_grace: Duration::ZERO,
    };
    println!(
        "{}: {} requests at {:.0} req/s over {} connection(s), {} submitter(s)...",
        s.name, s.total, s.rate_hz, s.connections, s.concurrency
    );
    let report = loadgen::run(&config);
    let stats = gateway.stats();
    let batching = BatchStats {
        fused_batches: stats.fused_batches(),
        batched_stage_executions: stats.batched_stage_executions(),
        peak_batch_occupancy: stats.peak_batch_occupancy(),
        singleton_dispatches: stats.singleton_dispatches(),
        mean_gather_wait_us: stats.mean_gather_wait().as_micros() as u64,
    };
    gateway.shutdown();
    (report, batching)
}

/// Drives a saturated multiplexed keyed workload against a [`ShardRouter`]
/// over `shards` fresh runtimes (same fixed-cost engine and worker budget
/// per shard as the single-gateway scenarios, batching disabled so each
/// shard's capacity is engine-bound and the curve isolates sharding).
fn sharded_scenario(shards: usize, total: usize, seed: u64) -> ShardPoint {
    let runtimes = (0..shards)
        .map(|_| {
            let engine = Arc::new(FixedCostEngine {
                ramp: vec![0.4, 0.7, 0.95],
                stage_time: Duration::from_millis(1),
                wrong_on_hard: false,
            });
            ServingRuntime::start(
                engine,
                Box::new(Fifo::new()),
                RuntimeConfig {
                    num_workers: 4,
                    confidence_threshold: 0.9,
                    ..RuntimeConfig::default()
                },
            )
        })
        .collect();
    let router = ShardRouter::start(
        runtimes,
        ShardConfig {
            gateway: GatewayConfig {
                // Admission wide open: the curve measures capacity scaling,
                // not shedding.
                high_water: 1_000_000,
                hard_cap: 2_000_000,
                ..GatewayConfig::default()
            },
            ..ShardConfig::default()
        },
    )
    .expect("bind loopback shard router");
    println!("sharded: {total} requests over {shards} shard(s), mux depth 64 x 2 conns...");
    let report = loadgen::run(&LoadgenConfig {
        addr: router.local_addr().to_string(),
        connections: 2,
        total_requests: total,
        rate_hz: 10_000.0,
        classes: vec![ClassSpec {
            name: "sharded".to_owned(),
            // Generous budget: saturation is the point, expiry is noise.
            budget_ms: 10_000,
            weight: 1.0,
            payload_len: 16,
        }],
        seed,
        client: ClientConfig {
            max_attempts: 1,
            ..ClientConfig::default()
        },
        concurrency: 64,
        keyspace: Some(4_096),
        tenants: Vec::new(),
        wait_grace: Duration::ZERO,
    });
    let aggregate = router.aggregate_stats();
    router.shutdown();
    ShardPoint {
        shards,
        report,
        aggregate_submitted: aggregate.submitted,
        aggregate_completed: aggregate.completed,
    }
}

/// The shard-scaling sweep, plus the claim the front tier exists for:
/// aggregate throughput at N=4 shards clears 2.5x the single-shard
/// ceiling on the same saturated workload.
fn sharded_sweep(quick: bool) -> Vec<ShardPoint> {
    let (counts, total): (Vec<usize>, usize) = if quick {
        (vec![1, 2], 600)
    } else {
        (vec![1, 2, 3, 4], 2_400)
    };
    let curve: Vec<ShardPoint> = counts
        .iter()
        .map(|&n| sharded_scenario(n, total, 31 + n as u64))
        .collect();
    let rows: Vec<Vec<String>> = curve
        .iter()
        .map(|p| {
            vec![
                p.shards.to_string(),
                format!("{:.0}", p.report.throughput_rps),
                format!("{:.2}", p.report.p50_ms),
                format!("{:.2}", p.report.p99_ms),
                p.aggregate_completed.to_string(),
            ]
        })
        .collect();
    print_table(
        "Shard scaling",
        &["shards", "rps", "p50ms", "p99ms", "completed"],
        &rows,
    );
    for point in &curve {
        assert_eq!(
            point.report.completed
                + point.report.rejected
                + point.report.expired
                + point.report.deadline_exhausted
                + point.report.errors,
            point.report.requests,
            "every sharded request must be accounted for"
        );
    }
    let base = curve.first().expect("curve is non-empty");
    let deepest = curve.last().expect("curve is non-empty");
    if deepest.shards >= 4 {
        assert!(
            deepest.report.throughput_rps > 2.5 * base.report.throughput_rps,
            "{} shards must scale the saturated aggregate past 2.5x one \
             shard ({:.0} rps vs {:.0} rps)",
            deepest.shards,
            deepest.report.throughput_rps,
            base.report.throughput_rps
        );
    } else {
        assert!(
            deepest.report.throughput_rps > 1.4 * base.report.throughput_rps,
            "{} shards must beat one shard ({:.0} rps vs {:.0} rps)",
            deepest.shards,
            deepest.report.throughput_rps,
            base.report.throughput_rps
        );
    }
    curve
}

/// One fresh shard runtime for the replicated-resilience section: same
/// fixed-cost engine and worker budget as the shard-scaling curve.
fn replicated_runtime() -> ServingRuntime {
    let engine = Arc::new(FixedCostEngine {
        ramp: vec![0.4, 0.7, 0.95],
        stage_time: Duration::from_millis(1),
        wrong_on_hard: false,
    });
    ServingRuntime::start(
        engine,
        Box::new(Fifo::new()),
        RuntimeConfig {
            num_workers: 4,
            confidence_threshold: 0.9,
            ..RuntimeConfig::default()
        },
    )
}

/// The replicated section: drive the tier through a shard kill AND a
/// live scale-out mid-run. With single-attempt clients, both events must
/// be invisible — every request completes, zero rejects, zero errors.
fn replicated_fault_phase(quick: bool) -> ReplicatedResilience {
    const SHARDS: usize = 3;
    let total = if quick { 800 } else { 3_000 };
    let runtimes = (0..SHARDS).map(|_| replicated_runtime()).collect();
    let router = ShardRouter::start(
        runtimes,
        ShardConfig {
            gateway: GatewayConfig {
                high_water: 1_000_000,
                hard_cap: 2_000_000,
                ..GatewayConfig::default()
            },
            ..ShardConfig::default()
        },
    )
    .expect("bind loopback shard router");
    let epoch_start = router.ring_epoch();
    println!(
        "replicated: {total} requests through a shard kill + live \
         scale-out, max_attempts 1..."
    );
    // Multiplexed, keyed, and `max_attempts: 1` so the *tier* must
    // absorb every fault — a client-side retry would mask a failover bug
    // as latency.
    let config = LoadgenConfig {
        addr: router.local_addr().to_string(),
        connections: 2,
        total_requests: total,
        rate_hz: 2_000.0,
        classes: vec![ClassSpec {
            name: "replicated".to_owned(),
            budget_ms: 10_000,
            weight: 1.0,
            payload_len: 16,
        }],
        seed: 43,
        client: ClientConfig {
            max_attempts: 1,
            ..ClientConfig::default()
        },
        concurrency: 32,
        keyspace: Some(4_096),
        tenants: Vec::new(),
        wait_grace: Duration::ZERO,
    };
    let run = std::thread::spawn(move || loadgen::run(&config));
    // Kill only once the victim provably has work in flight, so the
    // failover replay path is actually exercised (bounded wait: with an
    // unsaturated tier the victim may momentarily be idle).
    std::thread::sleep(Duration::from_millis(80));
    let until = Instant::now() + Duration::from_millis(500);
    while Instant::now() < until {
        let stats = &router.shard_stats()[0];
        if stats.submitted() > stats.completed() {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    assert!(router.kill_shard(0), "victim was alive");
    std::thread::sleep(Duration::from_millis(120));
    router
        .add_shard(replicated_runtime())
        .expect("live scale-out");
    let report = run.join().expect("loadgen run never hangs");

    assert_eq!(
        report.completed, report.requests,
        "kill + scale-out must be invisible to single-attempt clients: {report:?}"
    );
    assert_eq!(report.rejected, 0, "{report:?}");
    assert_eq!(report.rejected_shard_lost, 0, "{report:?}");
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.deadline_exhausted, 0, "{report:?}");
    let failover_replays = router.failover_replays();
    let epoch_advances = router.ring_epoch() - epoch_start;
    assert!(epoch_advances >= 2, "kill + scale-out must bump the epoch");
    router.shutdown();
    ReplicatedResilience {
        elasticity: report,
        failover_replays,
        epoch_advances,
    }
}

/// Tenant isolation under overload: a compliant tenant offering ~300 req/s
/// (well inside its weighted share of the ~1300 req/s engine capacity)
/// shares the gateway with a rogue tenant offering 4x that. The governor's
/// weighted fair shares (3:1 over hard_cap 48 → 36 vs 12 in-flight) mean
/// the queue the rogue builds past the high-water mark is *its own*: the
/// rogue sheds, the compliant tenant never does and its p99 stays inside
/// the SLO.
fn tenant_scenario(quick: bool) -> TenantIsolationPoint {
    const SLO_MS: f64 = 200.0;
    let engine = Arc::new(FixedCostEngine {
        ramp: vec![0.4, 0.7, 0.95],
        stage_time: Duration::from_millis(1),
        wrong_on_hard: false,
    });
    let runtime = ServingRuntime::start(
        engine,
        Box::new(Fifo::new()),
        RuntimeConfig {
            num_workers: 4,
            confidence_threshold: 0.9,
            ..RuntimeConfig::default()
        },
    );
    let mut quotas = HashMap::new();
    quotas.insert(
        "compliant".to_owned(),
        TenantQuota {
            weight: 3.0,
            max_in_flight: None,
        },
    );
    quotas.insert(
        "rogue".to_owned(),
        TenantQuota {
            weight: 1.0,
            max_in_flight: None,
        },
    );
    let gateway = Gateway::start(
        runtime,
        GatewayConfig {
            high_water: 12,
            hard_cap: 48,
            tenant_quotas: quotas,
            ..GatewayConfig::default()
        },
    )
    .expect("bind loopback gateway");

    let total = if quick { 900 } else { 3_000 };
    let offered_rps = 1_500.0;
    println!(
        "tenants: {total} requests at {offered_rps:.0} req/s, \
         compliant:rogue offered 1:4, quota weights 3:1..."
    );
    let report = loadgen::run(&LoadgenConfig {
        addr: gateway.local_addr().to_string(),
        connections: 64,
        total_requests: total,
        rate_hz: offered_rps,
        classes: vec![ClassSpec {
            name: "interactive".to_owned(),
            budget_ms: 400,
            weight: 1.0,
            payload_len: 16,
        }],
        seed: 37,
        client: ClientConfig {
            max_attempts: 1, // a shed must surface as a shed, not a retry
            ..ClientConfig::default()
        },
        concurrency: 64,
        keyspace: None,
        tenants: vec![
            TenantSpec {
                name: "compliant".to_owned(),
                weight: 1.0,
            },
            TenantSpec {
                name: "rogue".to_owned(),
                weight: 4.0,
            },
        ],
        wait_grace: Duration::ZERO,
    });
    let rows = gateway.snapshot().per_tenant;
    let point = TenantIsolationPoint {
        offered_rps,
        slo_ms: SLO_MS,
        compliant_admitted: rows.get("compliant").map_or(0, |r| r.admitted),
        compliant_shed: rows.get("compliant").map_or(0, |r| r.shed),
        rogue_admitted: rows.get("rogue").map_or(0, |r| r.admitted),
        rogue_shed: rows.get("rogue").map_or(0, |r| r.shed),
        report,
    };
    gateway.shutdown();

    let table: Vec<Vec<String>> = point
        .report
        .per_tenant
        .iter()
        .map(|(name, t)| {
            vec![
                name.clone(),
                t.requests.to_string(),
                t.completed.to_string(),
                t.rejected.to_string(),
                t.errors.to_string(),
                format!("{:.2}", t.p50_ms),
                format!("{:.2}", t.p99_ms),
            ]
        })
        .collect();
    print_table(
        "Tenant isolation",
        &["tenant", "req", "done", "shed", "err", "p50ms", "p99ms"],
        &table,
    );

    let compliant = &point.report.per_tenant["compliant"];
    assert_eq!(compliant.errors, 0, "compliant tenant must see zero errors");
    assert_eq!(
        compliant.rejected, 0,
        "the rogue's overload must never shed the compliant tenant"
    );
    assert_eq!(
        compliant.expired + compliant.deadline_exhausted,
        0,
        "compliant tenant must miss no deadlines"
    );
    assert!(
        compliant.p99_ms < SLO_MS,
        "a rogue at 4x quota must not push the compliant p99 past the \
         {SLO_MS:.0}ms SLO (saw {:.2}ms)",
        compliant.p99_ms
    );
    let rogue = &point.report.per_tenant["rogue"];
    assert!(
        rogue.rejected > 0,
        "the rogue's overshoot must shed its own traffic"
    );
    assert_eq!(point.rogue_shed, rogue.rejected, "gateway and client agree");
    point
}

/// Starts one fixed-cost runtime for the data-aware comparison: `workers`
/// of the equal-compute budget, a full (3-stage) or compressed (1-stage)
/// ramp, and optionally the compressed variant's accuracy loss.
fn variant_runtime(ramp: &[f32], workers: usize, wrong_on_hard: bool) -> ServingRuntime {
    ServingRuntime::start(
        Arc::new(FixedCostEngine {
            ramp: ramp.to_vec(),
            stage_time: Duration::from_millis(1),
            wrong_on_hard,
        }),
        Box::new(Fifo::new()),
        RuntimeConfig {
            num_workers: workers,
            confidence_threshold: 0.9,
            ..RuntimeConfig::default()
        },
    )
}

/// Drives the shared mixed-difficulty workload (every 4th input hard)
/// through one registry-backed deployment, checking each answer against
/// the ground truth carried in the payload.
fn data_aware_deployment(deployment: &str, registry: ModelRegistry, total: usize) -> VariantPoint {
    let gateway = Gateway::start_registry(
        registry,
        GatewayConfig {
            // Admission wide open: the comparison is about where requests
            // run, not whether they are admitted.
            high_water: 1_000_000,
            hard_cap: 2_000_000,
            ..GatewayConfig::default()
        },
    )
    .expect("bind loopback gateway");
    let client = MultiplexClient::new(
        gateway.local_addr(),
        ClientConfig {
            max_attempts: 1,
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    println!("data-aware [{deployment}]: {total} requests, 25% hard, window 256...");

    // Settling is strict FIFO (PendingInference::wait consumes the
    // handle), so a slow full-model request at the front hides completed
    // work behind it. The window is deep enough that the hidden tail
    // never drains the server's queues.
    const WINDOW: usize = 256;
    let mut pending: VecDeque<(u64, eugene_net::PendingInference)> = VecDeque::new();
    let (mut correct, mut wrong) = (0u64, 0u64);
    let mut settle = |(answer, p): (u64, eugene_net::PendingInference)| {
        let outcome = p.wait().expect("deployment completes every request");
        if outcome.predicted == Some(answer) {
            correct += 1;
        } else {
            wrong += 1;
        }
    };
    let start = Instant::now();
    for i in 0..total {
        let answer = (i % 32) as u64;
        let hard = if i % 4 == 0 { 1.0 } else { 0.0 };
        let p = client
            .submit_with(
                "variant",
                &[answer as f32, hard],
                Duration::from_secs(30),
                false,
                &SubmitOptions::default(),
            )
            .expect("admitted");
        pending.push_back((answer, p));
        if pending.len() >= WINDOW {
            settle(pending.pop_front().expect("window is non-empty"));
        }
    }
    for entry in pending {
        settle(entry);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    drop(client);
    gateway.shutdown();
    VariantPoint {
        deployment: deployment.to_owned(),
        requests: total as u64,
        correct,
        wrong,
        elapsed_s,
        throughput_rps: total as f64 / elapsed_s,
        utility_per_s: (correct as f64 - wrong as f64) / elapsed_s,
    }
}

/// The data-aware routing comparison at an equal 4-worker compute budget.
/// The dispatcher here is the oracle the facade's fitted mean-variance
/// predictor approximates (`Eugene::serve_multi` fits it from data; the
/// bench's engine is synthetic, so difficulty rides in the payload): easy
/// inputs go to the compressed variant, hard ones to the full model.
fn data_aware_sweep(quick: bool) -> Vec<VariantPoint> {
    let total = if quick { 600 } else { 2_400 };
    const FULL: &[f32] = &[0.4, 0.7, 0.95];
    const COMPRESSED: &[f32] = &[0.95];

    let full_only = ModelRegistry::new("full");
    full_only.load("full", variant_runtime(FULL, 4, false));

    let compressed_only = ModelRegistry::new("compressed");
    compressed_only.load("compressed", variant_runtime(COMPRESSED, 4, true));

    let two_variant = ModelRegistry::new("full");
    two_variant.load("full", variant_runtime(FULL, 2, false));
    two_variant.load("compressed", variant_runtime(COMPRESSED, 2, true));
    two_variant.set_dispatcher(Arc::new(|payload: &[f32]| {
        if payload.get(1).copied().unwrap_or(1.0) >= 0.5 {
            "full".to_owned()
        } else {
            "compressed".to_owned()
        }
    }));

    let curve = vec![
        data_aware_deployment("full-only", full_only, total),
        data_aware_deployment("compressed-only", compressed_only, total),
        data_aware_deployment("data-aware", two_variant, total),
    ];
    let rows: Vec<Vec<String>> = curve
        .iter()
        .map(|p| {
            vec![
                p.deployment.clone(),
                p.requests.to_string(),
                p.correct.to_string(),
                p.wrong.to_string(),
                format!("{:.0}", p.throughput_rps),
                format!("{:.0}", p.utility_per_s),
            ]
        })
        .collect();
    print_table(
        "Data-aware routing (equal compute)",
        &["deployment", "req", "correct", "wrong", "rps", "util/s"],
        &rows,
    );

    let full = &curve[0];
    let compressed = &curve[1];
    let data_aware = &curve[2];
    assert_eq!(
        full.wrong, 0,
        "the full model answers every input correctly"
    );
    assert!(
        compressed.wrong > 0,
        "the compressed-only deployment must pay for hard inputs"
    );
    assert_eq!(
        data_aware.wrong, 0,
        "the dispatcher must route every hard input to the full model"
    );
    for single in [full, compressed] {
        assert!(
            data_aware.utility_per_s > 1.1 * single.utility_per_s,
            "the two-variant registry must beat the {} deployment on \
             utility at equal compute ({:.0}/s vs {:.0}/s)",
            single.deployment,
            data_aware.utility_per_s,
            single.utility_per_s
        );
    }
    curve
}

fn print_idle_table(curve: &[IdlePoint]) {
    let rows: Vec<Vec<String>> = curve
        .iter()
        .map(|p| {
            vec![
                p.idle_connections.to_string(),
                p.gateway_threads.to_string(),
                format!("{}", p.connect_p50_us),
                format!("{}", p.connect_p99_us),
                format!("{:.2}", p.request_rtt_ms),
            ]
        })
        .collect();
    print_table(
        "Idle-connection scaling",
        &["idle", "threads", "conn p50us", "conn p99us", "rtt ms"],
        &rows,
    );
}

/// One deployment of the overload-degradation comparison: a fresh
/// runtime under `policy` on the concave-ramp engine, driven at
/// `rate_hz` by pipelined submitters so the offered rate is real even
/// past saturation.
fn overload_policy_scenario(
    policy: OverloadPolicy,
    rate_hz: f64,
    total: usize,
    seed: u64,
) -> LoadReport {
    let engine = Arc::new(FixedCostEngine {
        // Concave confidence ramp: early stages carry most of the
        // utility, which is the regime anytime degradation targets.
        ramp: vec![0.6, 0.8, 0.95],
        stage_time: Duration::from_millis(1),
        wrong_on_hard: false,
    });
    let runtime = ServingRuntime::start(
        engine,
        Box::new(Fifo::new()),
        RuntimeConfig {
            num_workers: 4,
            confidence_threshold: 0.9,
            overload: policy,
            ..RuntimeConfig::default()
        },
    );
    // The Degrade deployment admits everything and lets the runtime
    // early-exit what it cannot finish; the Kill baseline sheds at the
    // door (same marks as the admission-control scenario) and the
    // runtime kills whatever slips through and runs past its deadline.
    let (high_water, hard_cap) = match policy {
        OverloadPolicy::Degrade => (1_000_000, 2_000_000),
        OverloadPolicy::Kill => (32, 96),
    };
    let gateway = Gateway::start(
        runtime,
        GatewayConfig {
            high_water,
            hard_cap,
            ..GatewayConfig::default()
        },
    )
    .expect("bind loopback gateway");
    let report = loadgen::run(&LoadgenConfig {
        addr: gateway.local_addr().to_string(),
        connections: 4,
        total_requests: total,
        rate_hz,
        classes: vec![ClassSpec {
            name: "anytime".to_owned(),
            budget_ms: 30,
            weight: 1.0,
            payload_len: 16,
        }],
        seed,
        client: ClientConfig {
            max_attempts: 1, // a shed must book as a shed, not a retry
            ..ClientConfig::default()
        },
        concurrency: 128,
        keyspace: None,
        tenants: Vec::new(),
        // Let an answer produced at the server's deadline cross the wire
        // instead of booking as a client-side miss.
        wait_grace: Duration::from_millis(50),
    });
    gateway.shutdown();
    report
}

/// The overload-degradation sweep and the claim the Degrade policy exists
/// for: past the saturation knee, answering everyone a little beats
/// answering some perfectly and the rest not at all.
fn overload_degradation_sweep(quick: bool) -> Vec<OverloadPoint> {
    // Full-depth capacity is ~1300 rps (3 x 1ms stages over 4 workers);
    // the rates straddle that knee.
    const KNEE_RPS: f64 = 1_300.0;
    let (rates, total): (Vec<f64>, usize) = if quick {
        (vec![800.0, 2_600.0], 500)
    } else {
        (vec![800.0, 1_300.0, 2_000.0, 3_000.0], 1_500)
    };
    let mut points = Vec::new();
    for (i, &rate) in rates.iter().enumerate() {
        for (name, policy) in [
            ("degrade", OverloadPolicy::Degrade),
            ("kill", OverloadPolicy::Kill),
        ] {
            println!("overload-{name}: {total} requests at {rate:.0} req/s, mux depth 128...");
            let report = overload_policy_scenario(policy, rate, total, 41 + i as u64);
            points.push(OverloadPoint {
                policy: name.to_owned(),
                rate_hz: rate,
                report,
            });
        }
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.policy.clone(),
                format!("{:.0}", p.rate_hz),
                format!("{:.0}", p.report.throughput_rps),
                p.report.rejected.to_string(),
                p.report.expired.to_string(),
                p.report.degraded.to_string(),
                format!("{:.2}", p.report.mean_stages),
                format!("{:.0}", p.report.utility_per_s),
            ]
        })
        .collect();
    print_table(
        "Overload degradation",
        &[
            "policy", "offered", "rps", "rej", "exp", "degr", "stages", "util/s",
        ],
        &rows,
    );

    for point in points.iter().filter(|p| p.policy == "degrade") {
        assert_eq!(
            point.report.rejected, 0,
            "the Degrade deployment admits everything (offered {:.0} rps)",
            point.rate_hz
        );
    }
    for pair in points.chunks(2) {
        let (degrade, kill) = (&pair[0], &pair[1]);
        if degrade.rate_hz <= KNEE_RPS {
            continue;
        }
        assert!(
            degrade.report.utility_per_s > kill.report.utility_per_s,
            "past the saturation knee ({:.0} rps offered), anytime \
             degradation must out-deliver reject-shedding on utility per \
             second (degrade {:.0} vs kill {:.0})",
            degrade.rate_hz,
            degrade.report.utility_per_s,
            kill.report.utility_per_s
        );
    }
    points
}

/// The scaling claim the event loop exists for: its deepest point must
/// hold its idle crowd on one gateway thread and still answer a live
/// request promptly.
fn assert_idle_curve(curve: &[IdlePoint]) {
    let deepest = curve
        .iter()
        .max_by_key(|p| p.idle_connections)
        .expect("idle points present");
    assert_eq!(
        deepest.gateway_threads, 1,
        "{} idle connections must be held by the single event-loop thread, \
         spawned {}",
        deepest.idle_connections, deepest.gateway_threads
    );
    assert!(
        deepest.request_rtt_ms < 1_000.0,
        "a live request among {} idle connections took {:.1}ms",
        deepest.idle_connections,
        deepest.request_rtt_ms
    );
}

fn main() {
    let quick = has_flag("--quick");
    let idle_only = has_flag("--idle");
    let sharded_only = has_flag("--sharded");
    if idle_only {
        // Scaling curve only (CI runs this): no JSON refresh, so the full
        // document's other sections stay intact.
        let idle_curve = idle_sweep(quick);
        print_idle_table(&idle_curve);
        assert_idle_curve(&idle_curve);
        return;
    }
    if sharded_only {
        // Shard-scaling curve only (CI runs this with --quick): asserts the
        // multi-shard speedup without refreshing the JSON document.
        sharded_sweep(quick);
        return;
    }
    if has_flag("--replicated") {
        // Replicated-resilience section only (CI runs this with --quick):
        // asserts the zero-error kill + scale-out gate without
        // refreshing the JSON.
        replicated_fault_phase(quick);
        return;
    }
    if has_flag("--overload") {
        // Overload-degradation comparison only (CI runs this with
        // --quick): asserts the utility win past the knee without
        // refreshing the JSON document.
        overload_degradation_sweep(quick);
        return;
    }
    if has_flag("--tenants") {
        // Multi-tenant / multi-model sections only (CI runs this with
        // --quick): asserts tenant isolation and the data-aware routing
        // win without refreshing the JSON document.
        tenant_scenario(quick);
        data_aware_sweep(quick);
        return;
    }
    let (nominal_total, overload_total) = if quick { (300, 600) } else { (1_500, 3_000) };
    let (serial_total, sweep_total) = if quick { (150, 400) } else { (600, 1_200) };

    const MAX_BATCH: usize = 8;

    // ~3ms of engine time per request across 4 workers puts capacity
    // near 1300 req/s: probe well under it with a handful of connections,
    // then well over it with enough concurrency (64 blocking connections
    // against high_water 32) to drive admission control into shedding.
    let (nominal, _) = scenario(Scenario {
        name: "nominal",
        connections: 8,
        concurrency: 8,
        admission: true,
        max_batch: 1,
        rate_hz: 400.0,
        total: nominal_total,
        seed: 11,
    });
    let (overload, _) = scenario(Scenario {
        name: "overload",
        connections: 64,
        concurrency: 64,
        admission: true,
        max_batch: 1,
        rate_hz: 4_000.0,
        total: overload_total,
        seed: 13,
    });

    // Single-connection pipelining sweep: one socket, multiplexed depth
    // 1→64, offered far above capacity so each point is concurrency-bound.
    // The serial baseline is the same socket with one request in flight.
    let (serial_single, _) = scenario(Scenario {
        name: "serial-1conn",
        connections: 1,
        concurrency: 1,
        admission: false,
        max_batch: 1,
        rate_hz: 10_000.0,
        total: serial_total,
        seed: 17,
    });
    let sweep = |name: &'static str, max_batch: usize, seed_base: u64| -> Vec<PipelinePoint> {
        [1usize, 4, 16, 64]
            .into_iter()
            .map(|depth| {
                let (report, batching) = scenario(Scenario {
                    name,
                    connections: 1,
                    concurrency: depth,
                    admission: false,
                    max_batch,
                    rate_hz: 10_000.0,
                    total: sweep_total,
                    seed: seed_base + depth as u64,
                });
                PipelinePoint {
                    depth,
                    report,
                    batching,
                }
            })
            .collect()
    };
    let curve = sweep("mux-1conn", 1, 19);
    // The same sweep with stage-level micro-batching: same-stage requests
    // gathered within the window fuse into one stage execution, so deep
    // pipelines should clear well above the unbatched capacity ceiling.
    let batched_curve = sweep("mux-1conn-batched", MAX_BATCH, 29);
    // Equal concurrency, opposite connection models: 64 one-deep sockets vs
    // the depth-64 point above on one socket.
    let (per_connection_64, _) = scenario(Scenario {
        name: "serial-64conn",
        connections: 64,
        concurrency: 64,
        admission: false,
        max_batch: 1,
        rate_hz: 10_000.0,
        total: sweep_total,
        seed: 23,
    });

    let row = |name: &str, r: &LoadReport| {
        vec![
            name.to_owned(),
            format!("{:.0}", r.throughput_rps),
            format!("{:.2}", r.p50_ms),
            format!("{:.2}", r.p95_ms),
            format!("{:.2}", r.p99_ms),
            format!("{:.3}", r.reject_rate),
            format!("{:.3}", r.deadline_miss_rate),
        ]
    };
    let mut rows = vec![row("nominal", &nominal), row("overload", &overload)];
    rows.push(row("serial 1 conn", &serial_single));
    for point in &curve {
        rows.push(row(&format!("mux 1 conn x{}", point.depth), &point.report));
    }
    for point in &batched_curve {
        rows.push(row(&format!("mux batched x{}", point.depth), &point.report));
    }
    rows.push(row("serial 64 conn", &per_connection_64));
    print_table(
        "Gateway throughput",
        &["scenario", "rps", "p50ms", "p95ms", "p99ms", "rej", "miss"],
        &rows,
    );

    let idle_curve = idle_sweep(quick);
    print_idle_table(&idle_curve);
    assert_idle_curve(&idle_curve);

    let sharded_curve = sharded_sweep(quick);
    let replicated = replicated_fault_phase(quick);
    let overload_curve = overload_degradation_sweep(quick);
    let tenant_isolation = tenant_scenario(quick);
    let data_aware = data_aware_sweep(quick);

    assert_eq!(
        nominal.completed
            + nominal.rejected
            + nominal.expired
            + nominal.deadline_exhausted
            + nominal.errors,
        nominal.requests,
        "every offered request must be accounted for"
    );
    let deepest = curve.last().expect("sweep is non-empty");
    assert!(
        deepest.report.throughput_rps > 2.0 * serial_single.throughput_rps,
        "pipelining 64 requests on one connection must beat the serial \
         one-request-per-connection baseline on that connection \
         (mux {:.0} rps vs serial {:.0} rps)",
        deepest.report.throughput_rps,
        serial_single.throughput_rps
    );
    let deepest_batched = batched_curve.last().expect("batched sweep is non-empty");
    assert!(
        deepest_batched.batching.fused_batches > 0,
        "a saturated pipeline must actually fuse stage batches"
    );
    assert!(
        deepest_batched.report.throughput_rps > deepest.report.throughput_rps,
        "stage-level micro-batching must lift the saturated single-socket \
         ceiling (batched {:.0} rps vs unbatched {:.0} rps)",
        deepest_batched.report.throughput_rps,
        deepest.report.throughput_rps
    );

    write_json(
        "gateway_throughput",
        &GatewayThroughputDoc {
            host_cores: eugene_bench::host_cores(),
            isa: eugene_bench::host_isa(),
            stage_time_ms: 1.0,
            workers: 4,
            max_batch: MAX_BATCH,
            nominal,
            overload,
            serial_single_connection: serial_single,
            mux_single_connection_curve: curve,
            batched_mux_single_connection_curve: batched_curve,
            per_connection_64,
            idle_connection_curve: idle_curve,
            sharded_scaling_curve: sharded_curve,
            replicated_resilience: replicated,
            overload_degradation: overload_curve,
            tenant_isolation,
            data_aware_utility: data_aware,
        },
    );
}
