//! Every metric the benchmark reports, by name, unit and direction — the
//! one list `BENCHMARK.json`, the reports and `--compare` are all checked
//! against.

use crate::workload;
use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By how much `b` is worse than `a`, as a share of `a` (negative
    /// when `b` is better).
    pub fn worse_by(self, a: f64, b: f64) -> f64 {
        let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
        match self {
            Better::Lower => change,
            Better::Higher => -change,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse. The benchmark contract also rejects the
    /// benchmark itself when ten runs spread wider than this and asks for
    /// spreads under a third of it, so a bound is three times the widest
    /// quartile spread the A/A runs showed, capped at the contract's 0.25
    /// (README "A/A record").
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the service sees. Reported by `--trace 0`, on every
/// workload.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p99_ms", "ms", Lower, 0.25),
    e2e("capacity_rps", "1/s", Higher, 0.25),
    e2e("goodput_rps", "1/s", Higher, 0.07),
    e2e("utility_per_s", "1/s", Higher, 0.2),
    e2e("rss_mb", "MiB", Lower, 0.1),
];

/// What single layers do. Reported by `--trace 1`; no bounds. The README
/// says which end-to-end metric each should move, on which workload.
pub const PER_LAYER: &[Metric] = &[
    // eugene-tensor (isolated; the last two computed from shapes)
    layer("tensor.gemm_f32_r1_us", "us", Lower),
    layer("tensor.gemm_f32_r8_us", "us", Lower),
    layer("tensor.gemm_i8_r1_us", "us", Lower),
    layer("tensor.gemm_i8_r8_us", "us", Lower),
    layer("tensor.flops_per_req", "count", Lower),
    layer("tensor.weight_bytes_per_dispatch", "B", Lower),
    // eugene-nn (isolated, then in-run plan cache counters)
    layer("nn.plan_exec_f32_r1_us", "us", Lower),
    layer("nn.plan_exec_f32_r8_us", "us", Lower),
    layer("nn.plan_exec_i8_r1_us", "us", Lower),
    layer("nn.plan_exec_i8_r8_us", "us", Lower),
    layer("nn.walk_r1_us", "us", Lower),
    layer("nn.plan_compile_ms", "ms", Lower),
    layer("nn.plan_packed_bytes", "B", Lower),
    layer("nn.plan_cache_hits", "count", Higher),
    layer("nn.plan_cache_misses", "count", Lower),
    // eugene-service (in-run TracedEngine; adapter isolated)
    layer("service.batch_calls", "count", Lower),
    layer("service.batch_rows_mean", "count", Higher),
    layer("service.batch_us_p50", "us", Lower),
    layer("service.singleton_calls", "count", Lower),
    layer("service.busy_share", "ratio", Higher),
    layer("service.worker_util", "ratio", Lower),
    layer("service.begin_us_mean", "us", Lower),
    layer("service.adapter_us_r8", "us", Lower),
    // eugene-sched / eugene-gp
    layer("sched.assign_calls", "count", Lower),
    layer("sched.assign_busy_share", "ratio", Lower),
    layer("sched.assign_us_p50", "us", Lower),
    layer("sched.assign_us_q64", "us", Lower),
    layer("gp.predictor_fit_ms", "ms", Lower),
    // eugene-serve (wire fields + RuntimeStats deltas)
    layer("serve.residence_p50_ms", "ms", Lower),
    layer("serve.residence_p99_ms", "ms", Lower),
    layer("serve.first_stage_p50_ms", "ms", Lower),
    layer("serve.stage_gap_p50_ms", "ms", Lower),
    layer("serve.fused_batches", "count", Higher),
    layer("serve.singleton_dispatches", "count", Lower),
    layer("serve.batch_occupancy_mean", "count", Higher),
    layer("serve.gather_wait_mean_us", "us", Lower),
    layer("serve.deadline_kills", "count", Lower),
    layer("serve.degraded_exits", "count", Lower),
    layer("serve.mean_stages", "count", Higher),
    layer("serve.inflight_mean", "count", Lower),
    layer("serve.littles_law_ratio", "ratio", Lower),
    layer("serve.submit_direct_us", "us", Lower),
    // eugene-net wire (isolated)
    layer("net.wire.encode_submit_us", "us", Lower),
    layer("net.wire.decode_submit_us", "us", Lower),
    layer("net.wire.encode_final_us", "us", Lower),
    layer("net.wire.decode_final_us", "us", Lower),
    layer("net.wire.bytes_per_req", "B", Lower),
    // eugene-net gateway (client timestamps + GatewayStatus)
    layer("net.overhead_p50_ms", "ms", Lower),
    layer("net.overhead_p99_ms", "ms", Lower),
    layer("net.gateway.ping_rtt_us", "us", Lower),
    layer("net.gateway.finals_sent", "count", Higher),
    layer("net.gateway.rejects_sent", "count", Lower),
    layer("net.gateway.peak_in_flight", "count", Lower),
    layer("net.gateway.threads_spawned", "count", Lower),
    // eugene-net shard (zero unless the workload runs a router)
    layer("net.shard.overhead_p50_ms", "ms", Lower),
    layer("net.shard.ring_route_ns", "ns", Lower),
    layer("net.shard.failover_replays", "count", Lower),
    layer("net.shard.shard_lost_rejects", "count", Lower),
    layer("net.shard.completion_spread", "ratio", Lower),
    // the whole server: CPU per request, demoted from the end-to-end list
    // because on `small-gateway` it follows where the kernel places threads
    // (README "A/A record")
    layer("server.cpu_ms_per_req", "ms", Lower),
    // the harness itself: validity checks, not layers
    layer("driver.send_late_p99_us", "us", Lower),
    layer("driver.send_late_max_ms", "ms", Lower),
    layer("driver.encode_write_us_mean", "us", Lower),
    layer("driver.failed_share", "ratio", Lower),
    layer("driver.shed_share", "ratio", Lower),
    layer("driver.p99_tail_samples", "count", Higher),
    layer("trace.overhead_share", "ratio", Lower),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// How long one run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 22;

fn text(s: &str) -> Value {
    Value::String(s.to_owned())
}

/// The contents of `BENCHMARK.json`, generated so the file cannot drift
/// from what the binary reports.
pub fn benchmark_json() -> Value {
    let metric = |m: &Metric, bounded: bool| {
        let mut entry = vec![
            ("name".to_owned(), text(m.name)),
            ("unit".to_owned(), text(m.unit)),
            ("better".to_owned(), text(m.better.as_str())),
        ];
        if bounded {
            entry.push(("bound".to_owned(), Value::F64(m.bound)));
        }
        Value::Object(entry)
    };
    Value::Object(vec![
        (
            "command".to_owned(),
            Value::Array(vec![text("bash"), text("benchmark/run.sh")]),
        ),
        ("paths".to_owned(), Value::Array(vec![text("benchmark")])),
        ("run_seconds".to_owned(), Value::U64(RUN_SECONDS)),
        (
            "workloads".to_owned(),
            Value::Array(
                workload::all()
                    .iter()
                    .map(|w| {
                        Value::Object(vec![
                            ("name".to_owned(), text(w.name)),
                            ("why".to_owned(), text(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".to_owned(),
            Value::Array(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer".to_owned(),
            Value::Array(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The limits the benchmark contract puts on `BENCHMARK.json`.
    #[test]
    fn catalog_fits_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(names.insert(m.name), "{} is used twice", m.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        let workloads = workload::all();
        assert!((2..=8).contains(&workloads.len()));
        for w in &workloads {
            assert!(name_ok(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((Better::Lower.worse_by(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worse_by(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worse_by(10.0, 11.0) < 0.0);
    }
}
