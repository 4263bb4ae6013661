//! Per-stage inference cost of the experiment network — the unit of work
//! the RTDeepIoT scheduler allocates, and the early-exit saving: running
//! one stage costs about a third of running all three. Both cases run
//! the serving session (`StagedNetworkEngine`), so each stage executes
//! its compiled plan.

use criterion::{criterion_group, criterion_main, Criterion};
use eugene_nn::{StagedNetwork, StagedNetworkConfig};
use eugene_serve::InferenceEngine;
use eugene_service::StagedNetworkEngine;
use eugene_tensor::seeded_rng;
use std::hint::black_box;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let config = StagedNetworkConfig::three_stage(32, 10);
    let network = StagedNetwork::new(&config, &mut seeded_rng(3));
    let engine = StagedNetworkEngine::new(Arc::new(network));
    let sample: Vec<f32> = (0..32).map(|i| (i as f32).sin()).collect();

    c.bench_function("one_stage", |b| {
        b.iter(|| {
            let mut session = engine.begin(black_box(&sample));
            black_box(session.next_stage())
        });
    });
    c.bench_function("all_three_stages", |b| {
        b.iter(|| {
            let mut session = engine.begin(black_box(&sample));
            while let Some(report) = session.next_stage() {
                black_box(report);
            }
        });
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
