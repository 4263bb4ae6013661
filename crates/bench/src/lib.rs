//! Shared experiment harness for the table/figure reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper (see DESIGN.md's experiment index). They share the workload
//! defined here: the synthetic CIFAR-10 stand-in, a three-stage network
//! deliberately overfit so it exhibits the miscalibration of the paper's
//! Fig. 2, and helpers for printing aligned tables and dumping JSON
//! results under `results/`.

use eugene_calibrate::{EntropyCalibrator, EntropyCalibratorConfig};
use eugene_data::{Dataset, SyntheticImages, SyntheticImagesConfig};
use eugene_nn::{
    evaluate_staged, StageEval, StagedNetwork, StagedNetworkConfig, TrainConfig, Trainer,
};
use eugene_tensor::seeded_rng;
use serde::Serialize;
use std::path::PathBuf;

/// The trained experiment artifacts shared by the calibration, GP, and
/// scheduling benches.
pub struct Workload {
    /// The trained (uncalibrated) three-stage network.
    pub network: StagedNetwork,
    /// Training split (50 000 images in the paper; scaled down here).
    pub train: Dataset,
    /// Calibration split: held out from training, used to measure the
    /// confidence/accuracy gap the calibration controller closes.
    pub calib: Dataset,
    /// Test split, untouched by training and calibration.
    pub test: Dataset,
}

/// Workload scale knobs, so quick runs and full runs share code.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Training samples.
    pub train_size: usize,
    /// Test samples.
    pub test_size: usize,
    /// Training epochs (high on purpose: the paper's Fig. 2a needs an
    /// overconfident, overfit network).
    pub epochs: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            train_size: 1500,
            test_size: 2000,
            epochs: 140,
            seed: 20190710, // ICDCS 2019 opened July 7-10
        }
    }
}

impl Workload {
    /// Builds and trains the standard workload.
    pub fn standard(config: WorkloadConfig) -> Self {
        let mut rng = seeded_rng(config.seed);
        // Parity-gated pairs make depth genuinely matter (the paper's
        // staged ResNet shows ~65/80/88% per-stage accuracy; this workload
        // lands at ~72/82/86%).
        let gen = SyntheticImages::new(
            SyntheticImagesConfig {
                paired_parity: true,
                easy_fraction: 0.60,
                medium_fraction: 0.25,
                noise: 0.30,
                ..Default::default()
            },
            &mut rng,
        );
        let (train, _) = gen.generate(config.train_size, &mut rng);
        let (calib, _) = gen.generate(config.test_size / 2, &mut rng);
        let (test, _) = gen.generate(config.test_size, &mut rng);
        let arch = StagedNetworkConfig::three_stage(train.dim(), train.num_classes());
        let mut network = StagedNetwork::new(&arch, &mut rng);
        Trainer::new(TrainConfig {
            epochs: config.epochs,
            learning_rate: 1.5e-3,
            ..TrainConfig::default()
        })
        .fit(&mut network, &train, &mut rng);
        Self {
            network,
            train,
            calib,
            test,
        }
    }

    /// Per-stage evaluations on the test split.
    pub fn test_evals(&self) -> Vec<StageEval> {
        evaluate_staged(&self.network, &self.test)
    }

    /// Per-stage evaluations on the training split.
    pub fn train_evals(&self) -> Vec<StageEval> {
        evaluate_staged(&self.network, &self.train)
    }

    /// Returns an entropy-calibrated copy of the network (the RTDeepIoT
    /// calibration row): fine-tuned on the training split while the
    /// feedback controller measures the gap on the calibration split; the
    /// test split stays untouched for evaluation.
    pub fn calibrated_network(&self, seed: u64) -> StagedNetwork {
        let mut copy = self.network.clone();
        EntropyCalibrator::new(EntropyCalibratorConfig::default()).calibrate(
            &mut copy,
            &self.calib,
            &mut seeded_rng(seed),
        );
        copy
    }

    /// Per-sample confidence curves (`n x stages`) of a network over a
    /// dataset — the training input of the paper's GP regressors.
    pub fn confidence_curves(network: &StagedNetwork, data: &Dataset) -> Vec<Vec<f32>> {
        let evals = evaluate_staged(network, data);
        (0..data.len())
            .map(|i| evals.iter().map(|e| e.confidences[i]).collect())
            .collect()
    }
}

/// Host ISA metadata stamped into results JSON, so a throughput number
/// can always be traced back to the kernel tier and CPU features that
/// produced it.
#[derive(Debug, Clone, Serialize)]
pub struct HostIsa {
    /// f32 kernel tier dispatch picks on this host.
    pub tier: &'static str,
    /// i8 kernel tier dispatch picks on this host.
    pub quant_tier: &'static str,
    /// Whether the SIMD tier is actually vectorized here (false means
    /// the portable fused twin is standing in).
    pub simd_active: bool,
    /// Raw `is_x86_feature_detected!` results, by feature name.
    pub features: std::collections::BTreeMap<String, bool>,
}

/// Detects [`HostIsa`] for the current process.
pub fn host_isa() -> HostIsa {
    HostIsa {
        tier: eugene_tensor::isa_tier(),
        quant_tier: eugene_tensor::quant_tier_name(),
        simd_active: eugene_tensor::simd_active(),
        features: eugene_tensor::cpu_features()
            .entries()
            .into_iter()
            .map(|(name, present)| (name.to_owned(), present))
            .collect(),
    }
}

/// Actual core count of the benchmarking host (1 if undetectable).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Writes a JSON result document under `results/`, creating the directory
/// if needed; EXPERIMENTS.md references these files.
///
/// # Panics
///
/// Panics if the filesystem write fails (bench binaries want loud
/// failures).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let body = serde_json::to_string_pretty(value).expect("serialize result");
    std::fs::write(&path, body).expect("write result file");
    println!("  [saved {}]", path.display());
}

/// Checks the command line against the flags a binary accepts; call it
/// first in `main`. An unknown argument exits with status 2 before any
/// work runs, so a stale flag cannot fall through to the full run and
/// rewrite its `results/` file.
pub fn check_flags(accepted: &[&str]) {
    if let Some(unknown) = unknown_arg(std::env::args().skip(1), accepted) {
        eprintln!(
            "unknown argument `{unknown}`; accepted: {}",
            accepted.join(" ")
        );
        std::process::exit(2);
    }
}

/// The first argument not in `accepted`, if any.
fn unknown_arg(mut args: impl Iterator<Item = String>, accepted: &[&str]) -> Option<String> {
    args.find(|a| !accepted.contains(&a.as_str()))
}

/// Parses a `--flag` style argument from the command line.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_workload_trains_and_is_miscalibrated() {
        let workload = Workload::standard(WorkloadConfig {
            train_size: 400,
            test_size: 400,
            epochs: 30,
            seed: 1,
        });
        let evals = workload.test_evals();
        assert_eq!(evals.len(), 3);
        assert!(evals[2].accuracy > 0.3, "accuracy {}", evals[2].accuracy);
        // Overfit network: mean confidence exceeds accuracy on test data.
        let gap = evals[2].mean_confidence() as f64 - evals[2].accuracy;
        assert!(gap > 0.0, "expected overconfidence, gap {gap}");
    }

    #[test]
    fn unknown_arg_names_the_first_flag_not_accepted() {
        let args = |list: &[&str]| {
            list.iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .into_iter()
        };
        let accepted = ["--quick", "--idle"];
        assert_eq!(unknown_arg(args(&[]), &accepted), None);
        assert_eq!(unknown_arg(args(&["--quick", "--idle"]), &accepted), None);
        assert_eq!(
            unknown_arg(args(&["--quick", "--sharded", "--x"]), &accepted),
            Some("--sharded".to_owned())
        );
        assert_eq!(
            unknown_arg(args(&["quick"]), &accepted),
            Some("quick".to_owned())
        );
    }

    #[test]
    fn confidence_curves_align_with_dataset() {
        let workload = Workload::standard(WorkloadConfig {
            train_size: 200,
            test_size: 100,
            epochs: 5,
            seed: 2,
        });
        let curves = Workload::confidence_curves(&workload.network, &workload.test);
        assert_eq!(curves.len(), 100);
        assert!(curves.iter().all(|c| c.len() == 3));
    }
}
