//! Data-aware routing (paper §II-D) pays at equal compute: the same
//! mixed-difficulty workload runs against three deployments of four
//! workers each — the full model only, a compressed model only, and a
//! two-variant registry whose dispatcher sends easy inputs to the
//! compressed variant — and the two-variant registry must beat both
//! single-variant deployments on utility per second.
//!
//! The comparison is a timing, so it is the only test in this file and
//! nothing runs beside it in its process.

mod common;

use common::{open_config, shard_runtime, StagedTestEngine};
use eugene_net::{ClientConfig, Gateway, MultiplexClient, PendingInference};
use eugene_sched::Fifo;
use eugene_serve::{EngineSession, InferenceEngine, ModelRegistry, RuntimeConfig, ServingRuntime};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-stage cost of both variants.
const STAGE_TIME: Duration = Duration::from_millis(1);
/// The full model's confidence ramp: three stages, early exit at 0.9.
const FULL: [f32; 3] = [0.4, 0.7, 0.95];
/// The compressed variant: one stage, confident at once.
const COMPRESSED: [f32; 1] = [0.95];
/// Requests per deployment.
const REQUESTS: usize = 600;

/// A compressed variant that has lost accuracy on hard inputs: it
/// answers them as fast as easy ones, but wrong. `payload[0]` is the
/// answer and `payload[1] >= 0.5` marks the input hard.
struct WrongOnHard(StagedTestEngine);

impl InferenceEngine for WrongOnHard {
    fn num_stages(&self) -> usize {
        self.0.num_stages()
    }

    fn begin(&self, payload: &[f32]) -> Box<dyn EngineSession> {
        let mut payload = payload.to_vec();
        if payload[1] >= 0.5 {
            payload[0] += 1.0;
        }
        self.0.begin(&payload)
    }
}

fn config(workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        num_workers: workers,
        confidence_threshold: 0.9,
        ..RuntimeConfig::default()
    }
}

fn full(workers: usize) -> ServingRuntime {
    shard_runtime(FULL.to_vec(), STAGE_TIME, &config(workers))
}

fn compressed(workers: usize) -> ServingRuntime {
    let engine = WrongOnHard(StagedTestEngine {
        ramp: COMPRESSED.to_vec(),
        stage_time: STAGE_TIME,
    });
    ServingRuntime::start(Arc::new(engine), Box::new(Fifo::new()), config(workers))
}

/// What one deployment scored on the workload.
struct Score {
    correct: u64,
    wrong: u64,
    /// (correct - wrong) per second: a wrong answer costs what a right
    /// one earns, so speed alone cannot win the comparison.
    utility_per_s: f64,
}

/// Drives the mixed-difficulty workload (every 4th input hard) through
/// one deployment, checking each answer against the ground truth the
/// payload carries.
fn score(registry: ModelRegistry) -> Score {
    let gateway = Gateway::start_registry(registry, open_config()).expect("bind loopback gateway");
    let one_try = ClientConfig {
        max_attempts: 1,
        ..ClientConfig::default()
    };
    let client = MultiplexClient::new(gateway.local_addr(), one_try).expect("connect");
    // Answers are settled in submit order, so a slow full-model request
    // at the front hides completed work behind it. The window is deep
    // enough that the hidden tail never drains the server's queues.
    const WINDOW: usize = 256;
    let mut pending: VecDeque<(u64, PendingInference)> = VecDeque::new();
    let (mut correct, mut wrong) = (0u64, 0u64);
    let mut settle = |(answer, p): (u64, PendingInference)| {
        let outcome = p.wait().expect("deployment completes every request");
        if outcome.predicted == Some(answer) {
            correct += 1;
        } else {
            wrong += 1;
        }
    };
    let started = Instant::now();
    for i in 0..REQUESTS {
        let answer = (i % 32) as u64;
        let hard = if i % 4 == 0 { 1.0 } else { 0.0 };
        let p = client
            .submit(
                "variant",
                &[answer as f32, hard],
                Duration::from_secs(30),
                false,
            )
            .expect("admitted");
        pending.push_back((answer, p));
        if pending.len() >= WINDOW {
            settle(pending.pop_front().expect("window is non-empty"));
        }
    }
    pending.into_iter().for_each(&mut settle);
    let elapsed_s = started.elapsed().as_secs_f64();
    drop(client);
    gateway.shutdown();
    Score {
        correct,
        wrong,
        utility_per_s: (correct as f64 - wrong as f64) / elapsed_s,
    }
}

/// The dispatcher is the oracle that `Eugene::serve_multi`'s fitted
/// estimator approximates: the engines here are synthetic, so difficulty
/// rides in the payload.
#[test]
fn data_aware_registry_beats_each_single_variant_at_equal_compute() {
    let full_only = ModelRegistry::new("full");
    full_only.load("full", full(4));
    let compressed_only = ModelRegistry::new("compressed");
    compressed_only.load("compressed", compressed(4));
    let two_variant = ModelRegistry::new("full");
    two_variant.load("full", full(2));
    two_variant.load("compressed", compressed(2));
    two_variant.set_dispatcher(Arc::new(|payload: &[f32]| {
        if payload[1] >= 0.5 {
            "full"
        } else {
            "compressed"
        }
        .to_owned()
    }));

    let full = score(full_only);
    let compressed = score(compressed_only);
    let data_aware = score(two_variant);
    println!(
        "utility/s: data-aware {:.0}, full-only {:.0}, compressed-only {:.0}",
        data_aware.utility_per_s, full.utility_per_s, compressed.utility_per_s
    );
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
    assert_eq!(data_aware.correct, REQUESTS as u64);
    for (name, single) in [("full-only", &full), ("compressed-only", &compressed)] {
        assert!(
            data_aware.utility_per_s > 1.1 * single.utility_per_s,
            "the two-variant registry must beat the {name} deployment on \
             utility at equal compute ({:.0}/s vs {:.0}/s)",
            data_aware.utility_per_s,
            single.utility_per_s
        );
    }
}
