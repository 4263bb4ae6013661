//! Reproduces **Table II**: Expected Calibration Error of three
//! confidence-estimation methods on the three-stage network.
//!
//! Paper numbers (three-stage ResNet on CIFAR-10):
//!
//! | stage | Uncalibrated | RDeepSense | RTDeepIoT |
//! |-------|-------------|------------|-----------|
//! | 1     | 0.134       | 0.058      | 0.010     |
//! | 2     | 0.146       | 0.046      | 0.012     |
//! | 3     | 0.123       | 0.054      | 0.008     |
//!
//! The shape to match: RTDeepIoT (entropy calibration) < RDeepSense
//! (MC-dropout) < Uncalibrated at every stage, with roughly an order of
//! magnitude between the endpoints.
//!
//! Run: `cargo run --release -p eugene-bench --bin table2_ece [--sweep]`

use eugene_bench::{check_flags, has_flag, print_table, write_json, Workload, WorkloadConfig};
use eugene_calibrate::{ece, EntropyCalibrator, EntropyCalibratorConfig, McDropout};
use eugene_nn::{evaluate_staged, TrainConfig, Trainer};
use eugene_tensor::seeded_rng;
use serde::Serialize;

const BINS: usize = 10;

#[derive(Serialize)]
struct Table2 {
    uncalibrated: Vec<f64>,
    rdeepsense: Vec<f64>,
    rtdeepiot: Vec<f64>,
}

fn main() {
    check_flags(&["--sweep"]);
    println!("training the three-stage workload (overfit on purpose)...");
    let workload = Workload::standard(WorkloadConfig::default());

    // Column 1: uncalibrated test-set ECE.
    let uncal: Vec<f64> = workload
        .test_evals()
        .iter()
        .map(|e| ece(&e.confidences, &e.correct, BINS))
        .collect();

    // Column 2: RDeepSense baseline — MC-dropout averaging.
    let mc = McDropout::new(20).evaluate(&workload.network, &workload.test, &mut seeded_rng(7));
    let rdeep: Vec<f64> = mc
        .iter()
        .map(|e| ece(&e.confidences, &e.correct, BINS))
        .collect();

    // Column 3: RTDeepIoT — entropy-regularized fine-tuning (Eq. 4),
    // calibrated on the training split, measured on the test split.
    let calibrated = workload.calibrated_network(8);
    let rt: Vec<f64> = evaluate_staged(&calibrated, &workload.test)
        .iter()
        .map(|e| ece(&e.confidences, &e.correct, BINS))
        .collect();

    let rows: Vec<Vec<String>> = (0..3)
        .map(|s| {
            vec![
                format!("Stage {}", s + 1),
                format!("{:.3}", uncal[s]),
                format!("{:.3}", rdeep[s]),
                format!("{:.3}", rt[s]),
            ]
        })
        .collect();
    print_table(
        "Table II: ECE of confidence calibration methods (test split)",
        &["", "Uncalibrated", "RDeepSense", "RTDeepIoT"],
        &rows,
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\nShape check: RTDeepIoT {:.3} < RDeepSense {:.3} < Uncalibrated {:.3}: {}",
        mean(&rt),
        mean(&rdeep),
        mean(&uncal),
        mean(&rt) < mean(&rdeep) && mean(&rdeep) < mean(&uncal),
    );
    write_json(
        "table2_ece",
        &Table2 {
            uncalibrated: uncal,
            rdeepsense: rdeep,
            rtdeepiot: rt,
        },
    );

    if has_flag("--sweep") {
        alpha_sweep(&workload);
    }
}

/// Ablation: ECE as a function of the entropy-regularization strength,
/// demonstrating the paper's sign rule (overconfident nets need the
/// entropy-*rewarding* sign) and the sensitivity to magnitude.
fn alpha_sweep(workload: &Workload) {
    let mut rows = Vec::new();
    #[derive(Serialize)]
    struct SweepPoint {
        alpha: f32,
        mean_test_ece: f64,
        mean_test_accuracy: f64,
    }
    let mut sweep = Vec::new();
    for &alpha in &[-3.0f32, -1.5, -0.8, -0.3, 0.0, 0.3, 0.8] {
        let mut net = workload.network.clone();
        if alpha != 0.0 {
            Trainer::new(TrainConfig {
                epochs: 15,
                learning_rate: 3e-4,
                entropy_alpha: alpha,
                ..TrainConfig::default()
            })
            .fit(&mut net, &workload.train, &mut seeded_rng(9));
        }
        let evals = evaluate_staged(&net, &workload.test);
        let mean_ece = evals
            .iter()
            .map(|e| ece(&e.confidences, &e.correct, BINS))
            .sum::<f64>()
            / evals.len() as f64;
        let mean_acc = evals.iter().map(|e| e.accuracy).sum::<f64>() / evals.len() as f64;
        rows.push(vec![
            format!("{alpha:+.1}"),
            format!("{mean_ece:.3}"),
            format!("{mean_acc:.3}"),
        ]);
        sweep.push(SweepPoint {
            alpha,
            mean_test_ece: mean_ece,
            mean_test_accuracy: mean_acc,
        });
    }
    print_table(
        "Ablation: entropy-regularization strength (alpha) sweep",
        &["alpha", "mean ECE", "mean accuracy"],
        &rows,
    );
    // The automatic controller's result, for reference: per-head logit
    // scales below 1.0 confirm the overconfident-network correction.
    let chosen = EntropyCalibrator::new(EntropyCalibratorConfig::default());
    let mut net = workload.network.clone();
    let outcome = chosen.calibrate(&mut net, &workload.calib, &mut seeded_rng(10));
    println!(
        "controller result: per-head scales {:?} ({} rounds)",
        outcome
            .scales
            .iter()
            .map(|s| (s * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
        outcome.rounds_run
    );
    write_json("table2_alpha_sweep", &sweep);
}
