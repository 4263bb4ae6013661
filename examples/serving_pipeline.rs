//! The full run-time inference service of paper §III-C: a trained and
//! calibrated staged model served by the worker pool, with RTDeepIoT
//! scheduling, early exit on confident results, two service classes with
//! different latency constraints, and the coordinator killing over-budget
//! work at its deadline.
//!
//! Run: `cargo run --release --example serving_pipeline`

use eugene::data::{SyntheticImages, SyntheticImagesConfig};
use eugene::serve::{InferenceRequest, ServiceClass};
use eugene::service::{Eugene, SchedulerKind, ServeOptions, TrainRequest};
use eugene::tensor::seeded_rng;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = seeded_rng(11);
    let gen = SyntheticImages::new(SyntheticImagesConfig::default(), &mut rng);
    let (train, _) = gen.generate(1500, &mut rng);
    let (calib, _) = gen.generate(800, &mut rng);
    let (stream, _) = gen.generate(40, &mut rng);

    let mut eugene = Eugene::new(12);
    println!("training...");
    let model = eugene.train(TrainRequest::standard(&train))?;
    println!("calibrating confidence (paper Eq. 4)...");
    let outcome = eugene.calibrate(model, &calib)?;
    println!(
        "  alpha {:+.2}, mean ECE {:.3} -> {:.3}",
        outcome.alpha, outcome.ece_before, outcome.ece_after
    );

    // Start the serving runtime: 4 workers, RTDeepIoT-1 scheduling,
    // early exit at 90% confidence (§II-E: refrain from executing
    // additional layers once quality is reached).
    let options = ServeOptions {
        scheduler: SchedulerKind::RtDeepIot { lookahead: 1 },
        num_workers: 4,
        confidence_threshold: 0.90,
        ..ServeOptions::default()
    };
    let runtime = eugene.serve(model, &options, Some(&train))?;

    // Two service classes (paper §V): an interactive chatbot-like class
    // with a tight deadline and a tolerant surveillance-like class.
    let interactive = ServiceClass::new("interactive", Duration::from_millis(30));
    let surveillance = ServiceClass::new("surveillance", Duration::from_secs(5));

    println!("\nsubmitting {} requests...", stream.len());
    let receivers: Vec<_> = (0..stream.len())
        .map(|i| {
            let class = if i % 2 == 0 {
                interactive.clone()
            } else {
                surveillance.clone()
            };
            let request = InferenceRequest::new(stream.sample(i).to_vec(), class.clone());
            (i, class, runtime.submit(request))
        })
        .collect();

    let mut early_exits = 0;
    let mut expired = 0;
    let mut stage_total = 0;
    for (i, class, (_, rx)) in receivers {
        let response = rx.recv_timeout(Duration::from_secs(30))?;
        stage_total += response.stages_executed;
        if response.expired {
            expired += 1;
        }
        if !response.expired && response.stages_executed < 3 {
            early_exits += 1;
        }
        if i < 8 {
            println!(
                "  req {i:>2} [{:>12}]: predicted {:?} conf {:?} after {} stages in {:?}{}",
                class.name(),
                response.predicted,
                response.confidence.map(|c| (c * 100.0).round() / 100.0),
                response.stages_executed,
                response.latency,
                if response.expired { "  (DEADLINE)" } else { "" },
            );
        }
    }
    println!(
        "\nsummary: {} requests, mean stages {:.2}, early exits {}, deadline kills {}",
        stream.len(),
        stage_total as f64 / stream.len() as f64,
        early_exits,
        expired
    );

    // Per-class usage accounting and pricing (paper SV).
    let pricing = eugene::serve::PricingModel::new(1.0, 0.5, 0.5);
    for (class, usage) in runtime.usage_ledger().snapshot() {
        println!(
            "class {class:>12}: {} requests, {} stages, {} early exits, {} expired -> invoice {:.2} credits",
            usage.requests, usage.stages_executed, usage.early_exits, usage.expired,
            pricing.invoice(&usage)
        );
    }
    runtime.shutdown();
    Ok(())
}
