use crate::diagram::{ece, overall_gap};
use eugene_data::Dataset;
use eugene_nn::{evaluate_staged, StagedNetwork};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration for [`EntropyCalibrator`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EntropyCalibratorConfig {
    /// Controller rounds; each round re-measures the gap and adjusts
    /// `alpha`, then re-optimizes the head scale.
    pub rounds: usize,
    /// Step size of the inner scale optimization.
    pub learning_rate: f32,
    /// Gradient steps of the inner scale optimization per round.
    pub inner_steps: usize,
    /// Number of ECE bins used for measurement and model selection.
    pub num_bins: usize,
    /// Proportional gain mapping the measured per-head confidence gap to
    /// the `alpha` adjustment for the next round (integral control).
    pub gain: f32,
    /// Weight of the cross-entropy anchor during head fine-tuning.
    pub ce_weight: f32,
    /// Stop early once the absolute per-head gap drops below this.
    pub tolerance: f64,
}

impl Default for EntropyCalibratorConfig {
    fn default() -> Self {
        Self {
            rounds: 40,
            learning_rate: 0.1,
            inner_steps: 8,
            num_bins: 10,
            gain: 4.0,
            ce_weight: 0.3,
            tolerance: 0.005,
        }
    }
}

/// Result of an entropy-calibration run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationOutcome {
    /// Mean of the per-head `alpha` values applied in the final round.
    pub alpha: f32,
    /// Mean ECE across stages before fine-tuning (calibration split).
    pub ece_before: f64,
    /// Mean ECE across stages after fine-tuning (calibration split).
    pub ece_after: f64,
    /// Per-stage ECE before fine-tuning.
    pub per_stage_before: Vec<f64>,
    /// Per-stage ECE after fine-tuning.
    pub per_stage_after: Vec<f64>,
    /// Per-head logit scale finally applied (`< 1` means confidence was
    /// reduced — the expected correction for an overconfident network).
    pub scales: Vec<f32>,
    /// Controller rounds actually executed (max over heads).
    pub rounds_run: usize,
}

/// The paper's entropy-based confidence calibration (Eq. 4, the RTDeepIoT
/// rows of Table II), realized as a feedback controller.
///
/// The paper's tuning rule — "when the confidence underestimates the
/// accuracy, we set α < 0 and vice-versa ... the weights are adjusted
/// (calibrated) such that the underestimation and overestimation roughly
/// cancel out" — is a fixed-point condition on the signed gap
/// `conf(S) - acc(S)`. The calibrator runs it to that fixed point per
/// stage head.
///
/// Two constraints shape the implementation, both discovered the hard way
/// on overfit networks:
///
/// 1. **the trunk is frozen** — entropy rewards propagated through the
///    shared trunk degrade deeper stages' features; only the thin
///    per-stage heads are adjusted, matching the paper's architecture
///    where each stage ends in "a thin softmax function layer";
/// 2. **each head fine-tunes along its logit-scale direction** — the
///    Eq. 4 loss `ce_weight * CE + alpha * H` is optimized over a
///    positive per-head scale applied to the head's logits. Positive
///    scaling preserves every argmax, so accuracy is exactly invariant
///    while confidence moves; `alpha` itself tracks the measured gap.
///
/// # Examples
///
/// See `crates/bench/src/bin/table2_ece.rs`, which reproduces Table II
/// end to end.
#[derive(Debug, Clone)]
pub struct EntropyCalibrator {
    config: EntropyCalibratorConfig,
}

impl EntropyCalibrator {
    /// Creates a calibrator.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` or `gain <= 0`.
    pub fn new(config: EntropyCalibratorConfig) -> Self {
        assert!(config.rounds > 0, "rounds must be positive");
        assert!(config.gain > 0.0, "gain must be positive");
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &EntropyCalibratorConfig {
        &self.config
    }

    /// Measures the mean ECE (over stages) of `network` on `data`.
    pub fn mean_ece(&self, network: &StagedNetwork, data: &Dataset) -> f64 {
        let per_stage = self.per_stage_ece(network, data);
        per_stage.iter().sum::<f64>() / per_stage.len() as f64
    }

    /// Per-stage ECE of `network` on `data`.
    pub fn per_stage_ece(&self, network: &StagedNetwork, data: &Dataset) -> Vec<f64> {
        evaluate_staged(network, data)
            .iter()
            .map(|eval| ece(&eval.confidences, &eval.correct, self.config.num_bins))
            .collect()
    }

    /// Calibrates `network` in place against a held-out calibration
    /// split, per stage head.
    ///
    /// Because the fine-tune family is a single positive scalar per head,
    /// it cannot memorize the calibration split, so the full split serves
    /// both as the Eq. 4 fitting objective and as the gap measurement —
    /// unlike unconstrained fine-tuning, which would need a further
    /// held-out half to keep the measurement honest.
    ///
    /// `rng` is reserved for future stochastic variants; the scale
    /// optimization itself is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `calibration` has fewer than four samples.
    pub fn calibrate(
        &self,
        network: &mut StagedNetwork,
        calibration: &Dataset,
        _rng: &mut impl Rng,
    ) -> CalibrationOutcome {
        assert!(
            calibration.len() >= 4,
            "calibration split needs at least four samples"
        );
        let per_stage_before = self.per_stage_ece(network, calibration);
        let ece_before = per_stage_before.iter().sum::<f64>() / per_stage_before.len() as f64;

        // Trunk activations are constant while only heads change.
        let acts = network.stage_activations(calibration.features());

        let num_stages = network.num_stages();
        let mut final_alphas = vec![0.0f32; num_stages];
        let mut scales = vec![1.0f32; num_stages];
        let mut rounds_run = 0;
        for s in 0..num_stages {
            let (alpha, scale, rounds) = self.calibrate_head(
                &mut network.heads_mut()[s],
                &acts[s],
                calibration.labels(),
                &acts[s],
                calibration.labels(),
            );
            final_alphas[s] = alpha;
            scales[s] = scale;
            rounds_run = rounds_run.max(rounds);
        }
        let per_stage_after = self.per_stage_ece(network, calibration);
        let ece_after = per_stage_after.iter().sum::<f64>() / per_stage_after.len() as f64;
        CalibrationOutcome {
            alpha: final_alphas.iter().sum::<f32>() / final_alphas.len().max(1) as f32,
            ece_before,
            ece_after,
            per_stage_before,
            per_stage_after,
            scales,
            rounds_run,
        }
    }

    /// Runs the feedback loop on one head. Returns the last alpha, the
    /// applied scale, and the number of rounds run.
    fn calibrate_head(
        &self,
        head: &mut eugene_nn::Linear,
        fit_acts: &eugene_tensor::Matrix,
        fit_labels: &[usize],
        measure_acts: &eugene_tensor::Matrix,
        measure_labels: &[usize],
    ) -> (f32, f32, usize) {
        use eugene_nn::loss::weighted_entropy_regularized;
        use eugene_nn::{Layer, StageEval};

        // The head's raw logits never change; only the scale does.
        let base_fit = head.infer(fit_acts);
        let base_measure = head.infer(measure_acts);
        let scaled = |base: &eugene_tensor::Matrix, s: f32| base.map(|z| z * s);
        let measure = |s: f32| -> (f64, f64) {
            let eval = StageEval::from_logits(0, &scaled(&base_measure, s), measure_labels);
            (
                overall_gap(&eval.confidences, &eval.correct),
                ece(&eval.confidences, &eval.correct, self.config.num_bins),
            )
        };

        let mut scale = 1.0f32;
        let (_, ece0) = measure(scale);
        let mut best = (ece0, scale);
        let mut alpha = 0.0f32;
        let mut rounds = 0;
        for _ in 0..self.config.rounds {
            let (gap, current_ece) = measure(scale);
            if current_ece < best.0 {
                best = (current_ece, scale);
            }
            if gap.abs() < self.config.tolerance {
                break;
            }
            // Integral control: accumulate alpha until the gap flips sign;
            // positive gap (overconfident) drives alpha negative, which
            // rewards entropy in the minimized loss.
            alpha -= (self.config.gain as f64 * gap) as f32;
            // Inner optimization of the scale under Eq. 4.
            for _ in 0..self.config.inner_steps {
                let logits = scaled(&base_fit, scale);
                let out =
                    weighted_entropy_regularized(&logits, fit_labels, self.config.ce_weight, alpha);
                // dL/ds = sum_ij dL/dz_ij * z0_ij (out.grad is already
                // normalized by the batch size).
                let mut dlds = 0.0f32;
                for (g, z0) in out.grad.as_slice().iter().zip(base_fit.as_slice()) {
                    dlds += g * z0;
                }
                scale = (scale - self.config.learning_rate * dlds).max(0.01);
            }
            rounds += 1;
        }
        let (_, final_ece) = measure(scale);
        if final_ece < best.0 {
            best = (final_ece, scale);
        }
        // Bake the winning scale into the head.
        head.weights_mut().scale_in_place(best.1);
        head.bias_mut().scale_in_place(best.1);
        (alpha, best.1, rounds)
    }
}

impl Default for EntropyCalibrator {
    fn default() -> Self {
        Self::new(EntropyCalibratorConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eugene_data::{SyntheticImages, SyntheticImagesConfig};
    use eugene_nn::{StagedNetworkConfig, TrainConfig, Trainer};
    use eugene_tensor::seeded_rng;
    use std::sync::OnceLock;

    /// An intentionally overfit network (small data, many epochs) with
    /// its train and calibration sets. Trained once per test binary;
    /// each test gets its own copy.
    fn overconfident_network() -> (StagedNetwork, Dataset, Dataset) {
        static FIXTURE: OnceLock<(StagedNetwork, Dataset, Dataset)> = OnceLock::new();
        FIXTURE.get_or_init(train_overconfident_network).clone()
    }

    fn train_overconfident_network() -> (StagedNetwork, Dataset, Dataset) {
        let mut rng = seeded_rng(42);
        let gen = SyntheticImages::new(
            SyntheticImagesConfig {
                num_classes: 5,
                dim: 12,
                ..Default::default()
            },
            &mut rng,
        );
        let (train, _) = gen.generate(250, &mut rng);
        let (calib, _) = gen.generate(500, &mut rng);
        let config = StagedNetworkConfig {
            input_dim: train.dim(),
            num_classes: train.num_classes(),
            stage_widths: vec![vec![32], vec![32]],
            dropout: 0.0,
            input_skip: false,
        };
        let mut net = StagedNetwork::new(&config, &mut seeded_rng(43));
        Trainer::new(TrainConfig {
            epochs: 120,
            learning_rate: 2e-3,
            ..TrainConfig::default()
        })
        .fit(&mut net, &train, &mut seeded_rng(44));
        (net, train, calib)
    }

    #[test]
    fn overfit_network_is_overconfident_and_calibration_reduces_ece() {
        let (mut net, _train, calib) = overconfident_network();
        let calibrator = EntropyCalibrator::default();
        let before = calibrator.mean_ece(&net, &calib);
        assert!(
            before > 0.03,
            "overfit network should be miscalibrated (ece {before})"
        );
        let evals = evaluate_staged(&net, &calib);
        let gap = overall_gap(&evals[1].confidences, &evals[1].correct);
        assert!(
            gap > 0.0,
            "overfit network should be overconfident (gap {gap})"
        );

        let outcome = calibrator.calibrate(&mut net, &calib, &mut seeded_rng(45));
        assert!(
            outcome.ece_after <= outcome.ece_before,
            "calibration must not increase ECE: {} -> {}",
            outcome.ece_before,
            outcome.ece_after
        );
        assert!(
            outcome.ece_after < before * 0.5,
            "expected a clear ECE reduction: {before} -> {}",
            outcome.ece_after
        );
        // Overconfident => the applied correction must shrink confidence.
        assert!(
            outcome.scales.iter().all(|&s| s < 1.0),
            "scales {:?} should all be below 1",
            outcome.scales
        );
        assert!(outcome.rounds_run > 0);
    }

    #[test]
    fn calibration_preserves_accuracy_exactly() {
        let (mut net, _train, calib) = overconfident_network();
        let acc_before: Vec<f64> = evaluate_staged(&net, &calib)
            .iter()
            .map(|e| e.accuracy)
            .collect();
        EntropyCalibrator::default().calibrate(&mut net, &calib, &mut seeded_rng(46));
        let acc_after: Vec<f64> = evaluate_staged(&net, &calib)
            .iter()
            .map(|e| e.accuracy)
            .collect();
        // Positive logit scaling preserves every argmax.
        assert_eq!(acc_before, acc_after);
    }

    #[test]
    fn second_calibration_pass_stops_quickly() {
        let (mut net, _train, calib) = overconfident_network();
        let calibrator = EntropyCalibrator::default();
        calibrator.calibrate(&mut net, &calib, &mut seeded_rng(47));
        let outcome = calibrator.calibrate(&mut net, &calib, &mut seeded_rng(48));
        assert!(
            outcome.rounds_run < calibrator.config().rounds,
            "second calibration should stop early ({} rounds)",
            outcome.rounds_run
        );
    }

    #[test]
    fn calibration_generalizes_to_unseen_data() {
        let (mut net, _train, calib) = overconfident_network();
        // Fresh data from the identical generator state sequence.
        let mut rng = seeded_rng(42);
        let gen = SyntheticImages::new(
            SyntheticImagesConfig {
                num_classes: 5,
                dim: 12,
                ..Default::default()
            },
            &mut rng,
        );
        let _ = gen.generate(250, &mut rng); // consume the train draw
        let _ = gen.generate(500, &mut rng); // consume the calib draw
        let (test, _) = gen.generate(500, &mut rng);
        let calibrator = EntropyCalibrator::default();
        let test_before = calibrator.mean_ece(&net, &test);
        calibrator.calibrate(&mut net, &calib, &mut seeded_rng(49));
        let test_after = calibrator.mean_ece(&net, &test);
        assert!(
            test_after < test_before * 0.7,
            "test-set ECE should drop substantially: {test_before} -> {test_after}"
        );
    }

    #[test]
    #[should_panic(expected = "calibration split")]
    fn tiny_calibration_split_panics() {
        let mut rng = seeded_rng(1);
        let config = StagedNetworkConfig {
            input_dim: 4,
            num_classes: 2,
            stage_widths: vec![vec![4]],
            dropout: 0.0,
            input_skip: false,
        };
        let mut net = StagedNetwork::new(&config, &mut rng);
        let tiny = Dataset::new(eugene_tensor::Matrix::zeros(2, 4), vec![0, 1], 2);
        EntropyCalibrator::default().calibrate(&mut net, &tiny, &mut rng);
    }

    #[test]
    #[should_panic(expected = "gain")]
    fn non_positive_gain_rejected() {
        EntropyCalibrator::new(EntropyCalibratorConfig {
            gain: 0.0,
            ..Default::default()
        });
    }
}
