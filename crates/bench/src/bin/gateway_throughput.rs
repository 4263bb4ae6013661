//! The three gateway paths the serving benchmark (`benchmark/`, contract
//! in `BENCHMARK.json`) has no workload for, each run against a loopback
//! TCP gateway over `FixedCostEngine`, a synthetic staged engine whose
//! stages cost a fixed `thread::sleep`:
//!
//! - **Idle-connection crowd** (`--idle`): the gateway holds a growing
//!   crowd of handshaken but silent connections while the bench records
//!   handshake latency, how much the process's thread count grows from
//!   just after the gateway starts to the moment the whole crowd is held
//!   (the gate requires zero: the event loop holds ten thousand idle
//!   connections on the thread it started with), and the round trip of a
//!   live request threaded through the crowd.
//! - **Tenant isolation** (`--tenants`): a compliant tenant and a rogue
//!   tenant offering 4x the compliant rate share one gateway with weighted
//!   per-tenant quotas; the rogue's overshoot must shed while the
//!   compliant tenant sees zero errors and a p99 inside its SLO.
//! - **Data-aware routing** (`--tenants`): the same mixed-difficulty
//!   workload runs against three equal-compute deployments — full model
//!   only, compressed model only, and a two-variant registry whose
//!   dispatcher sends easy inputs to the compressed variant — and the
//!   two-variant registry must beat both single-variant deployments on
//!   utility per second.
//!
//! The serving path itself is measured once, by the benchmark, with a
//! trained staged network and every answer checked bit for bit. It took
//! over the sections this binary used to time with the sleep engine:
//! nominal load and admission shedding (`small-gateway`, and
//! `wide-f32-overload` for shedding), pipelining many requests on one
//! socket (every workload: its driver multiplexes one connection),
//! stage micro-batching (`wide-f32-gateway`, `serve.fused_batches`),
//! shard scaling and the routed path (the int8 workload, served by two
//! shards behind the router), and overload degradation
//! (`wide-f32-overload`, which runs the Degrade policy at 150 % of
//! capacity). Failover under a shard kill and a live scale-out is gated
//! by `crates/net/tests/replica_faults.rs`.
//!
//! Run: `cargo run --release -p eugene-bench --bin gateway_throughput`
//! runs all three sections and writes `results/gateway_throughput.json`.
//! `--quick` shortens every section; `--idle` runs only the idle crowd
//! and `--tenants` only the tenant and data-aware sections, and neither
//! rewrites the JSON. Any other argument exits with status 2.

use eugene_bench::{check_flags, has_flag, print_table, write_json};
use eugene_net::wire::{self, Frame, FrameBuffer, PROTOCOL_VERSION};
use eugene_net::{
    loadgen, ClassSpec, ClientConfig, Gateway, GatewayConfig, LoadReport, LoadgenConfig,
    MultiplexClient, SubmitOptions, TenantQuota, TenantSpec,
};
use eugene_sched::Fifo;
use eugene_serve::{
    EngineSession, InferenceEngine, ModelRegistry, RuntimeConfig, ServingRuntime, StageReport,
};
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Staged engine with a fixed per-stage cost: the bench measures the
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

/// Per-stage cost of every scenario that serves real work.
const STAGE_TIME: Duration = Duration::from_millis(1);
/// The full model's confidence ramp: three stages, early exit at 0.9.
const FULL: &[f32] = &[0.4, 0.7, 0.95];
/// The compressed variant: one stage, confident at once.
const COMPRESSED: &[f32] = &[0.95];

/// Starts a FIFO runtime over `FixedCostEngine` with `workers` workers and
/// a 0.9 early-exit threshold.
fn fixed_cost_runtime(
    ramp: &[f32],
    stage_time: Duration,
    workers: usize,
    wrong_on_hard: bool,
) -> ServingRuntime {
    ServingRuntime::start(
        Arc::new(FixedCostEngine {
            ramp: ramp.to_vec(),
            stage_time,
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

/// One point of the idle-connection scaling curve.
#[derive(Serialize)]
struct IdlePoint {
    /// Idle, handshaken connections held open during the measurement.
    idle_connections: usize,
    /// Growth of the process's thread count from just after the gateway
    /// started to the moment the whole crowd was held.
    thread_growth: i64,
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
    /// Idle-connection scaling: thread growth and latency vs crowd size.
    idle_connection_curve: Vec<IdlePoint>,
    /// Tenant isolation: a rogue tenant at 4x the compliant tenant's rate
    /// sheds its own traffic; the compliant tenant stays inside its SLO.
    tenant_isolation: TenantIsolationPoint,
    /// Data-aware routing: full-only vs compressed-only vs a two-variant
    /// registry with a difficulty dispatcher, at equal total compute.
    data_aware_utility: Vec<VariantPoint>,
}

/// Threads of this process, as the kernel lists them.
fn process_threads() -> i64 {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count() as i64
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

/// Round trip of one live request from a fresh client, which is dropped
/// (its reader thread joined) before this returns.
fn probe_rtt_ms(addr: SocketAddr) -> f64 {
    let client = MultiplexClient::new(addr, ClientConfig::default()).expect("resolve");
    let t = Instant::now();
    let outcome = client
        .infer("probe", &[1.0], Duration::from_secs(10))
        .expect("live request answered");
    let rtt_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(outcome.predicted, Some(1));
    rtt_ms
}

/// Holds `idle` silent connections against a fresh gateway, measuring
/// handshake latency during the ramp, how many threads the process gained
/// while the crowd arrived, and the round trip of one live request among
/// the crowd.
fn idle_scenario(idle: usize) -> IdlePoint {
    let runtime = fixed_cost_runtime(COMPRESSED, Duration::ZERO, 2, false);
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
    // The runtime's coordinator spawns its worker pool after `start`
    // returns; one answered request proves the pool is up, and the probe
    // client's reader thread is joined before the baseline count.
    probe_rtt_ms(addr);
    let threads_at_start = process_threads();
    println!("idle: ramping to {idle} idle connections...");

    let mut connect_us: Vec<u64> = Vec::with_capacity(idle);
    let mut conns = Vec::with_capacity(idle);
    for _ in 0..idle {
        let t = Instant::now();
        conns.push(handshake(addr));
        connect_us.push(t.elapsed().as_micros() as u64);
    }
    // Counted before the probe client exists: its reader thread is the
    // bench's, not the gateway's.
    let thread_growth = process_threads() - threads_at_start;
    connect_us.sort_unstable();
    let pct = |p: f64| connect_us[((connect_us.len() - 1) as f64 * p) as usize];

    let point = IdlePoint {
        idle_connections: idle,
        thread_growth,
        connect_p50_us: pct(0.50),
        connect_p99_us: pct(0.99),
        request_rtt_ms: probe_rtt_ms(addr),
    };
    drop(conns);
    gateway.shutdown();
    point
}

/// The idle scaling sweep, to 10k connections — ~20k fds on loopback,
/// hence the rlimit raise, with the curve clamped to whatever the kernel
/// actually grants. Prints the curve and gates it.
fn idle_sweep(quick: bool) -> Vec<IdlePoint> {
    let points: &[usize] = if quick {
        &[100, 2_000]
    } else {
        &[100, 1_000, 10_000]
    };
    let want = *points.last().expect("non-empty") as u64 * 2 + 2_000;
    let granted = eugene_net::reactor::raise_nofile_limit(want);
    let max_idle = (granted.saturating_sub(2_000) / 2) as usize;
    let curve: Vec<IdlePoint> = points
        .iter()
        .map(|&n| idle_scenario(n.min(max_idle)))
        .collect();
    print_idle_table(&curve);
    assert_idle_curve(&curve);
    curve
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
    let runtime = fixed_cost_runtime(FULL, STAGE_TIME, 4, false);
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

    let full_only = ModelRegistry::new("full");
    full_only.load("full", fixed_cost_runtime(FULL, STAGE_TIME, 4, false));

    let compressed_only = ModelRegistry::new("compressed");
    compressed_only.load(
        "compressed",
        fixed_cost_runtime(COMPRESSED, STAGE_TIME, 4, true),
    );

    let two_variant = ModelRegistry::new("full");
    two_variant.load("full", fixed_cost_runtime(FULL, STAGE_TIME, 2, false));
    two_variant.load(
        "compressed",
        fixed_cost_runtime(COMPRESSED, STAGE_TIME, 2, true),
    );
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
                p.thread_growth.to_string(),
                format!("{}", p.connect_p50_us),
                format!("{}", p.connect_p99_us),
                format!("{:.2}", p.request_rtt_ms),
            ]
        })
        .collect();
    print_table(
        "Idle-connection scaling",
        &["idle", "+threads", "conn p50us", "conn p99us", "rtt ms"],
        &rows,
    );
}

/// The scaling claim the event loop exists for: no crowd may add a thread
/// to the process, and the deepest crowd must still let a live request
/// through promptly.
fn assert_idle_curve(curve: &[IdlePoint]) {
    for point in curve {
        assert_eq!(
            point.thread_growth, 0,
            "{} idle connections must be held by the threads the gateway \
             started with, but the process gained {}",
            point.idle_connections, point.thread_growth
        );
    }
    let deepest = curve
        .iter()
        .max_by_key(|p| p.idle_connections)
        .expect("idle points present");
    assert!(
        deepest.request_rtt_ms < 1_000.0,
        "a live request among {} idle connections took {:.1}ms",
        deepest.idle_connections,
        deepest.request_rtt_ms
    );
}

fn main() {
    check_flags(&["--quick", "--idle", "--tenants"]);
    let quick = has_flag("--quick");
    if has_flag("--idle") {
        // Idle crowd only (CI runs this): no JSON refresh, so the full
        // document's other sections stay intact.
        idle_sweep(quick);
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

    let idle_curve = idle_sweep(quick);
    let tenant_isolation = tenant_scenario(quick);
    let data_aware = data_aware_sweep(quick);

    write_json(
        "gateway_throughput",
        &GatewayThroughputDoc {
            host_cores: eugene_bench::host_cores(),
            isa: eugene_bench::host_isa(),
            idle_connection_curve: idle_curve,
            tenant_isolation,
            data_aware_utility: data_aware,
        },
    );
}
