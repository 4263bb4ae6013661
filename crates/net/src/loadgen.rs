//! Seeded open-loop Poisson load generator for a [`crate::server::Gateway`].
//!
//! The generator models an *open* system: arrival times are drawn from an
//! exponential inter-arrival distribution at a fixed aggregate rate and
//! pre-assigned to connection workers, so a slow server cannot slow the
//! offered load down (unlike closed-loop benchmarks, which hide queueing
//! collapse). Everything is derived from a single seed, so runs are
//! reproducible.
//!
//! `concurrency` submitter threads each fire their share of the schedule,
//! one request in flight at a time, through `connections` shared
//! [`crate::client::MultiplexClient`]s dealt round-robin. With
//! `concurrency == connections` every socket carries one request at a
//! time; a larger `concurrency` pipelines tagged requests, so a handful of
//! sockets carry the whole offered load.

use crate::client::{ClientConfig, ClientError, MultiplexClient, SubmitOptions};
use crate::wire::RejectReason;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One service class in the offered mix.
#[derive(Debug, Clone)]
pub struct ClassSpec {
    /// Service-class name sent with each submit.
    pub name: String,
    /// End-to-end budget per request, in milliseconds.
    pub budget_ms: u64,
    /// Relative share of the traffic mix (weights need not sum to 1).
    pub weight: f64,
    /// Number of f32 elements in each request payload.
    pub payload_len: usize,
}

/// One tenant identity in the offered mix: requests carry its name on
/// the wire (per-tenant admission quotas apply) and the report breaks
/// results down per tenant.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name sent with each submit.
    pub name: String,
    /// Relative share of the offered traffic (weights need not sum to 1).
    pub weight: f64,
}

/// Full description of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Gateway address, e.g. `"127.0.0.1:4096"`.
    pub addr: String,
    /// Concurrent TCP connections, one shared client each.
    pub connections: usize,
    /// Total requests across all connections.
    pub total_requests: usize,
    /// Aggregate arrival rate in requests per second.
    pub rate_hz: f64,
    /// Traffic mix; must be non-empty.
    pub classes: Vec<ClassSpec>,
    /// Master seed for arrivals, class choice, payloads, and client jitter.
    pub seed: u64,
    /// Client policy applied to every worker.
    pub client: ClientConfig,
    /// Submitter threads, dealt round-robin across the `connections`
    /// clients. Each waits for its answer before its next submit, so the
    /// in-flight depth per socket is roughly `concurrency / connections`.
    pub concurrency: usize,
    /// Multi-shard mode: when `Some(k)`, every request carries a routing
    /// key drawn uniformly from `0..k`, so a sharded front tier spreads
    /// the offered load across its ring. `None` sends no keys (a single
    /// gateway, or router fallback to per-connection keys).
    pub keyspace: Option<u64>,
    /// Tenant mix: when non-empty, each request is attributed to one
    /// tenant by weight and carries its name on the wire. Empty sends
    /// anonymous (pre-tenant) submits.
    pub tenants: Vec<TenantSpec>,
    /// Extra client-side patience beyond each class's wire budget. The
    /// budget sent on the wire (the server's deadline) is unchanged; the
    /// client just keeps listening this much longer, so an answer the
    /// server produces *at* the deadline — an anytime degradation, say —
    /// still gets counted instead of booking as `deadline_exhausted`.
    /// Zero reproduces the strict wait-exactly-the-budget behavior.
    pub wait_grace: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            connections: 4,
            total_requests: 256,
            rate_hz: 200.0,
            classes: vec![ClassSpec {
                name: "default".to_owned(),
                budget_ms: 100,
                weight: 1.0,
                payload_len: 16,
            }],
            seed: 0,
            client: ClientConfig::default(),
            concurrency: 4,
            keyspace: None,
            tenants: Vec::new(),
            wait_grace: Duration::ZERO,
        }
    }
}

/// Aggregated results of one run, serializable into a bench's results
/// document.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Requests offered.
    pub requests: u64,
    /// Requests answered with a final (non-expired) prediction.
    pub completed: u64,
    /// Requests shed by gateway admission control.
    pub rejected: u64,
    /// Slice of `rejected` carrying `RejectReason::ShardLost`: requests
    /// the sharded front tier could not place on any shard. Zero under
    /// transparent failover — the replica-fault suites gate on it.
    pub rejected_shard_lost: u64,
    /// Requests answered but killed at their server-side deadline.
    pub expired: u64,
    /// Requests answered with a degraded (anytime early-exit) result:
    /// usable, counted in `completed`, but shallower than asked.
    pub degraded: u64,
    /// Final answers that carried zero executed stages (no usable
    /// prediction at all — starvation kills).
    pub zero_stage_finals: u64,
    /// Requests whose client-side budget ran out before any answer.
    pub deadline_exhausted: u64,
    /// Requests lost to wire/connection errors.
    pub errors: u64,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_s: f64,
    /// Round-trip latency percentiles over answered requests, ms.
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Mean stages executed per answered request.
    pub mean_stages: f64,
    /// Summed confidence of every non-expired answer — the run's
    /// delivered utility under the paper's imprecise-computation model
    /// (a miss delivers zero, a degraded answer its partial confidence).
    pub aggregate_utility: f64,
    /// Per-tenant breakdown (empty unless `LoadgenConfig::tenants` was
    /// set), keyed by tenant name.
    pub per_tenant: BTreeMap<String, TenantLoadReport>,
}

/// One tenant's slice of a [`LoadReport`].
#[derive(Debug, Clone, Serialize)]
pub struct TenantLoadReport {
    pub requests: u64,
    pub completed: u64,
    pub rejected: u64,
    pub expired: u64,
    pub degraded: u64,
    pub deadline_exhausted: u64,
    pub errors: u64,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

/// One request in the pre-generated schedule.
#[derive(Debug, PartialEq)]
struct PlannedRequest {
    /// Offset from run start at which to fire.
    at: Duration,
    class: usize,
    payload: Vec<f32>,
    /// Sharding routing key (drawn when `LoadgenConfig::keyspace` is set).
    key: Option<u64>,
    /// Index into `LoadgenConfig::tenants` (drawn when non-empty).
    tenant: Option<usize>,
}

/// One answered request as the tally books it.
struct Answer {
    latency_ms: f64,
    expired: bool,
    degraded: bool,
    stages: u32,
    confidence: Option<f32>,
}

/// One tally bucket: the run total and each tenant row share this shape.
#[derive(Default, Clone)]
struct Tally {
    requests: u64,
    completed: u64,
    rejected: u64,
    rejected_shard_lost: u64,
    expired: u64,
    degraded: u64,
    zero_stage_finals: u64,
    deadline_exhausted: u64,
    errors: u64,
    stages_sum: u64,
    utility_sum: f64,
    latencies_ms: Vec<f64>,
}

impl Tally {
    /// Books one request outcome: `Ok` for an answered request, `Err`
    /// for the failure classes.
    fn note(&mut self, outcome: &Result<Answer, ClientError>) {
        self.requests += 1;
        match outcome {
            Ok(answer) => {
                self.latencies_ms.push(answer.latency_ms);
                self.stages_sum += u64::from(answer.stages);
                if answer.stages == 0 {
                    self.zero_stage_finals += 1;
                }
                if answer.expired {
                    self.expired += 1;
                } else {
                    self.completed += 1;
                    self.utility_sum += f64::from(answer.confidence.unwrap_or(0.0));
                    if answer.degraded {
                        self.degraded += 1;
                    }
                }
            }
            Err(ClientError::Rejected { reason, .. }) => {
                self.rejected += 1;
                if *reason == RejectReason::ShardLost {
                    self.rejected_shard_lost += 1;
                }
            }
            Err(ClientError::DeadlineExhausted) => self.deadline_exhausted += 1,
            Err(ClientError::Wire(_)) => self.errors += 1,
        }
    }

    fn merge(&mut self, other: Tally) {
        self.requests += other.requests;
        self.completed += other.completed;
        self.rejected += other.rejected;
        self.rejected_shard_lost += other.rejected_shard_lost;
        self.expired += other.expired;
        self.degraded += other.degraded;
        self.zero_stage_finals += other.zero_stage_finals;
        self.deadline_exhausted += other.deadline_exhausted;
        self.errors += other.errors;
        self.stages_sum += other.stages_sum;
        self.utility_sum += other.utility_sum;
        self.latencies_ms.extend(other.latencies_ms);
    }
}

/// Per-worker tally, merged after join.
struct WorkerTally {
    total: Tally,
    /// One row per configured tenant, indexed like `LoadgenConfig::tenants`.
    tenants: Vec<Tally>,
}

impl WorkerTally {
    fn new(num_tenants: usize) -> Self {
        Self {
            total: Tally::default(),
            tenants: vec![Tally::default(); num_tenants],
        }
    }

    fn note(&mut self, tenant: Option<usize>, outcome: &Result<Answer, ClientError>) {
        self.total.note(outcome);
        if let Some(i) = tenant {
            self.tenants[i].note(outcome);
        }
    }
}

/// Runs the configured load against the gateway and reports aggregates.
///
/// Arrivals follow a Poisson process at `rate_hz`: inter-arrival gaps are
/// `-ln(U)/rate` with `U` uniform on (0, 1]. The schedule is generated up
/// front from the seed and dealt round-robin to `concurrency` workers, so
/// the offered load is independent of server behavior.
pub fn run(config: &LoadgenConfig) -> LoadReport {
    assert!(
        !config.classes.is_empty(),
        "loadgen needs at least one class"
    );
    assert!(
        config.connections > 0,
        "loadgen needs at least one connection"
    );
    assert!(
        config.concurrency > 0,
        "loadgen needs at least one submitter"
    );
    assert!(config.rate_hz > 0.0, "arrival rate must be positive");
    // Pre-generate the whole schedule so workers only sleep and send.
    let schedules = build_schedules(config);

    let clients = (0..config.connections)
        .map(|i| {
            let mut client_config = config.client.clone();
            // Distinct jitter stream per client, still derived from the seed.
            client_config.seed = config
                .seed
                .wrapping_add(0xD1B5_4A32_D192_ED03u64.wrapping_mul(i as u64 + 1));
            MultiplexClient::new(&config.addr, client_config).map(Arc::new)
        })
        .collect::<io::Result<Vec<_>>>();

    let started = Instant::now();
    let mut tally = WorkerTally::new(config.tenants.len());
    match clients {
        Ok(clients) => {
            let handles: Vec<_> = schedules
                .into_iter()
                .enumerate()
                .map(|(worker, schedule)| {
                    let client = Arc::clone(&clients[worker % clients.len()]);
                    let classes = config.classes.clone();
                    let tenants = config.tenants.clone();
                    let wait_grace = config.wait_grace;
                    std::thread::Builder::new()
                        .name(format!("eugene-loadgen-{worker}"))
                        .spawn(move || {
                            worker_loop(&client, &classes, &tenants, schedule, started, wait_grace)
                        })
                        .expect("spawn loadgen worker")
                })
                .collect();
            for handle in handles {
                let part = handle.join().expect("loadgen worker panicked");
                tally.total.merge(part.total);
                for (row, part_row) in tally.tenants.iter_mut().zip(part.tenants) {
                    row.merge(part_row);
                }
            }
        }
        // An unresolvable address loses every request to the wire.
        Err(_) => {
            tally.total.requests = config.total_requests as u64;
            tally.total.errors = config.total_requests as u64;
        }
    }
    let elapsed = started.elapsed();

    let per_tenant = config
        .tenants
        .iter()
        .zip(tally.tenants.iter_mut())
        .map(|(spec, row)| {
            row.latencies_ms
                .sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            (
                spec.name.clone(),
                TenantLoadReport {
                    requests: row.requests,
                    completed: row.completed,
                    rejected: row.rejected,
                    expired: row.expired,
                    degraded: row.degraded,
                    deadline_exhausted: row.deadline_exhausted,
                    errors: row.errors,
                    p50_ms: percentile(&row.latencies_ms, 0.50),
                    p99_ms: percentile(&row.latencies_ms, 0.99),
                },
            )
        })
        .collect();

    let total = &mut tally.total;
    total
        .latencies_ms
        .sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let requests = config.total_requests as u64;
    let answered = total.completed + total.expired;
    LoadReport {
        requests,
        completed: total.completed,
        rejected: total.rejected,
        rejected_shard_lost: total.rejected_shard_lost,
        expired: total.expired,
        degraded: total.degraded,
        zero_stage_finals: total.zero_stage_finals,
        deadline_exhausted: total.deadline_exhausted,
        errors: total.errors,
        elapsed_s: elapsed.as_secs_f64(),
        p50_ms: percentile(&total.latencies_ms, 0.50),
        p99_ms: percentile(&total.latencies_ms, 0.99),
        mean_stages: total.stages_sum as f64 / answered.max(1) as f64,
        aggregate_utility: total.utility_sum,
        per_tenant,
    }
}

/// Draws the whole open-loop schedule from `config.seed` and deals it
/// round-robin to `config.concurrency` workers: per request, a Poisson
/// arrival gap, a class by weight, a payload, a routing key when
/// `keyspace` is set, and a tenant by weight when `tenants` is non-empty.
fn build_schedules(config: &LoadgenConfig) -> Vec<Vec<PlannedRequest>> {
    let class_weights: Vec<f64> = config.classes.iter().map(|c| c.weight).collect();
    let class_weight: f64 = class_weights.iter().sum();
    assert!(
        class_weight > 0.0,
        "class weights must sum to a positive value"
    );
    let tenant_weights: Vec<f64> = config.tenants.iter().map(|t| t.weight).collect();
    let tenant_weight: f64 = tenant_weights.iter().sum();
    assert!(
        config.tenants.is_empty() || tenant_weight > 0.0,
        "tenant weights must sum to a positive value"
    );

    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let mut schedules: Vec<Vec<PlannedRequest>> =
        (0..config.concurrency).map(|_| Vec::new()).collect();
    let mut clock = Duration::ZERO;
    for i in 0..config.total_requests {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        clock += Duration::from_secs_f64(-u.ln() / config.rate_hz);
        let class = weighted_index(&class_weights, class_weight, rng.gen_range(0.0..1.0));
        let payload: Vec<f32> = (0..config.classes[class].payload_len)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        let key = config.keyspace.map(|k| rng.gen_range(0..k.max(1)));
        let tenant = (!config.tenants.is_empty())
            .then(|| weighted_index(&tenant_weights, tenant_weight, rng.gen_range(0.0..1.0)));
        schedules[i % config.concurrency].push(PlannedRequest {
            at: clock,
            class,
            payload,
            key,
            tenant,
        });
    }
    schedules
}

/// The wire addressing for one planned request. With a grace window, the
/// server's deadline is pinned to the class budget while the client waits
/// `budget + grace`, so answers produced at the deadline still land.
fn submit_options(
    planned: &PlannedRequest,
    tenants: &[TenantSpec],
    spec: &ClassSpec,
    wait_grace: Duration,
) -> SubmitOptions {
    SubmitOptions {
        routing_key: planned.key,
        model: None,
        tenant: planned.tenant.map(|i| tenants[i].name.clone()),
        wire_budget: (!wait_grace.is_zero()).then(|| Duration::from_millis(spec.budget_ms)),
    }
}

/// One submitter: fires its share of the open-loop schedule through a
/// shared client, waiting for each answer before the next submit.
fn worker_loop(
    client: &MultiplexClient,
    classes: &[ClassSpec],
    tenants: &[TenantSpec],
    schedule: Vec<PlannedRequest>,
    started: Instant,
    wait_grace: Duration,
) -> WorkerTally {
    let mut tally = WorkerTally::new(tenants.len());
    for planned in schedule {
        // Open loop: fire at the scheduled instant regardless of how the
        // previous request fared.
        let now = started.elapsed();
        if planned.at > now {
            std::thread::sleep(planned.at - now);
        }
        let spec = &classes[planned.class];
        let options = submit_options(&planned, tenants, spec, wait_grace);
        let sent = Instant::now();
        let outcome = client
            .infer_with(
                &spec.name,
                &planned.payload,
                Duration::from_millis(spec.budget_ms) + wait_grace,
                &options,
            )
            .map(|outcome| Answer {
                latency_ms: sent.elapsed().as_secs_f64() * 1e3,
                expired: outcome.expired,
                degraded: outcome.degraded,
                stages: outcome.stages_executed,
                confidence: outcome.confidence,
            });
        tally.note(planned.tenant, &outcome);
    }
    tally
}

/// Picks an index from a weight slice given `u` in [0, 1).
fn weighted_index(weights: &[f64], total_weight: f64, u: f64) -> usize {
    let mut cut = u * total_weight;
    for (i, weight) in weights.iter().enumerate() {
        cut -= weight;
        if cut < 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Nearest-rank percentile over a sorted slice; 0.0 when empty.
fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ms.len() as f64 * q).ceil() as usize).clamp(1, sorted_ms.len());
    sorted_ms[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, weight: f64) -> ClassSpec {
        ClassSpec {
            name: name.to_owned(),
            budget_ms: 50,
            weight,
            payload_len: 4,
        }
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.95), 95.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    fn answer(latency_ms: f64, expired: bool, degraded: bool, stages: u32) -> Answer {
        Answer {
            latency_ms,
            expired,
            degraded,
            stages,
            confidence: (stages > 0).then_some(0.5),
        }
    }

    #[test]
    fn tenant_rows_book_outcomes_alongside_the_total() {
        let mut tally = WorkerTally::new(2);
        tally.note(Some(0), &Ok(answer(5.0, false, false, 3)));
        tally.note(
            Some(1),
            &Err(ClientError::Rejected {
                retry_after: Duration::from_millis(10),
                reason: crate::wire::RejectReason::TenantOverQuota,
            }),
        );
        tally.note(None, &Ok(answer(7.0, true, false, 0)));
        assert_eq!(tally.total.requests, 3);
        assert_eq!(tally.total.completed, 1);
        assert_eq!(tally.total.rejected, 1);
        assert_eq!(tally.total.expired, 1);
        assert_eq!(tally.tenants[0].completed, 1);
        assert_eq!(tally.tenants[0].requests, 1);
        assert_eq!(tally.tenants[1].rejected, 1);
        assert_eq!(tally.tenants[1].completed, 0);
    }

    #[test]
    fn tally_books_utility_degradation_and_zero_stage_finals() {
        let mut tally = Tally::default();
        tally.note(&Ok(answer(4.0, false, false, 3))); // full answer
        tally.note(&Ok(answer(2.0, false, true, 1))); // degraded answer
        tally.note(&Ok(answer(9.0, true, false, 0))); // starvation kill
        assert_eq!(tally.completed, 2);
        assert_eq!(tally.degraded, 1);
        assert_eq!(tally.expired, 1);
        assert_eq!(tally.zero_stage_finals, 1);
        assert_eq!(tally.stages_sum, 4);
        // Utility sums non-expired confidences only: 0.5 + 0.5.
        assert!((tally.utility_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_index_partitions_the_unit_interval() {
        let weights = [1.0, 3.0];
        assert_eq!(weighted_index(&weights, 4.0, 0.0), 0);
        assert_eq!(weighted_index(&weights, 4.0, 0.24), 0);
        assert_eq!(weighted_index(&weights, 4.0, 0.26), 1);
        assert_eq!(weighted_index(&weights, 4.0, 0.999), 1);
    }

    #[test]
    fn schedule_generation_is_deterministic() {
        let config = |seed: u64| LoadgenConfig {
            total_requests: 32,
            concurrency: 3,
            classes: vec![spec("a", 1.0), spec("b", 1.0)],
            keyspace: Some(1_000),
            tenants: vec![
                TenantSpec {
                    name: "t0".to_owned(),
                    weight: 1.0,
                },
                TenantSpec {
                    name: "t1".to_owned(),
                    weight: 2.0,
                },
            ],
            seed,
            ..LoadgenConfig::default()
        };
        let first = build_schedules(&config(42));
        assert_eq!(first.len(), 3, "one schedule per submitter");
        assert_eq!(first.iter().map(Vec::len).sum::<usize>(), 32);
        assert!(first
            .iter()
            .flatten()
            .all(|p| p.key.is_some() && p.tenant.is_some()));
        assert_eq!(first, build_schedules(&config(42)));
        assert_ne!(
            first,
            build_schedules(&config(43)),
            "different seeds should diverge"
        );
    }
}
