use eugene_data::Dataset;
use eugene_nn::{StageEval, StagedNetwork};
use eugene_tensor::{softmax, Matrix};
use rand::rngs::StdRng;

/// The RDeepSense-style baseline of Table II: Monte-Carlo dropout.
///
/// Instead of one deterministic forward pass, run `passes` stochastic
/// passes with dropout live and average the per-stage softmax
/// distributions (Gal & Ghahramani, the paper's \[14\]; RDeepSense is the
/// paper's \[6\]). Averaging over sampled sub-networks shrinks overconfident
/// point estimates, which is why it lands between "uncalibrated" and the
/// entropy-calibrated network in Table II.
///
/// # Examples
///
/// ```
/// use eugene_calibrate::McDropout;
/// let baseline = McDropout::new(10);
/// assert_eq!(baseline.passes(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McDropout {
    passes: usize,
}

impl McDropout {
    /// Creates the baseline with the given number of stochastic passes.
    ///
    /// # Panics
    ///
    /// Panics if `passes == 0`.
    pub fn new(passes: usize) -> Self {
        assert!(passes > 0, "need at least one stochastic pass");
        Self { passes }
    }

    /// Number of stochastic passes.
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Evaluates `network` on `data` with MC-dropout averaging, returning
    /// one [`StageEval`] per stage (as the deterministic
    /// [`eugene_nn::evaluate_staged`] does).
    pub fn evaluate(
        &self,
        network: &StagedNetwork,
        data: &Dataset,
        rng: &mut StdRng,
    ) -> Vec<StageEval> {
        let num_stages = network.num_stages();
        let n = data.len();
        let k = data.num_classes();
        let mut prob_sums: Vec<Matrix> = (0..num_stages).map(|_| Matrix::zeros(n, k)).collect();
        for _ in 0..self.passes {
            let logits = network.predict_stochastic(data.features(), rng);
            for (s, stage_logits) in logits.iter().enumerate() {
                for i in 0..n {
                    let p = softmax(stage_logits.row(i));
                    let row = prob_sums[s].row_mut(i);
                    for (acc, v) in row.iter_mut().zip(&p) {
                        *acc += v;
                    }
                }
            }
        }
        let scale = 1.0 / self.passes as f32;
        prob_sums
            .into_iter()
            .enumerate()
            .map(|(s, mut probs)| {
                probs.scale_in_place(scale);
                StageEval::from_probs(s, probs, data.labels())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eugene_data::{SyntheticImages, SyntheticImagesConfig};
    use eugene_nn::{evaluate_staged, StagedNetworkConfig, TrainConfig, Trainer};
    use eugene_tensor::seeded_rng;
    use std::sync::OnceLock;

    /// A trained dropout network and its training set. Trained once per
    /// test binary; each test gets its own copy.
    fn dropout_network() -> (StagedNetwork, Dataset) {
        static FIXTURE: OnceLock<(StagedNetwork, Dataset)> = OnceLock::new();
        FIXTURE.get_or_init(train_dropout_network).clone()
    }

    fn train_dropout_network() -> (StagedNetwork, Dataset) {
        let mut rng = seeded_rng(7);
        let gen = SyntheticImages::new(
            SyntheticImagesConfig {
                num_classes: 4,
                dim: 10,
                ..Default::default()
            },
            &mut rng,
        );
        let (train, _) = gen.generate(300, &mut rng);
        let config = StagedNetworkConfig {
            input_dim: train.dim(),
            num_classes: train.num_classes(),
            stage_widths: vec![vec![24], vec![24]],
            dropout: 0.25,
            input_skip: false,
        };
        let mut net = StagedNetwork::new(&config, &mut seeded_rng(8));
        Trainer::new(TrainConfig {
            epochs: 40,
            ..TrainConfig::default()
        })
        .fit(&mut net, &train, &mut seeded_rng(9));
        (net, train)
    }

    #[test]
    fn averaged_probs_are_distributions() {
        let (net, data) = dropout_network();
        let evals = McDropout::new(8).evaluate(&net, &data, &mut seeded_rng(10));
        assert_eq!(evals.len(), 2);
        for eval in &evals {
            for i in 0..eval.len() {
                let sum: f32 = eval.probs.row(i).iter().sum();
                assert!((sum - 1.0).abs() < 1e-4, "row {i} sums to {sum}");
            }
        }
    }

    #[test]
    fn mc_dropout_softens_confidence() {
        let (net, data) = dropout_network();
        let deterministic = evaluate_staged(&net, &data);
        let mc = McDropout::new(16).evaluate(&net, &data, &mut seeded_rng(11));
        let det_conf = deterministic[1].mean_confidence();
        let mc_conf = mc[1].mean_confidence();
        assert!(
            mc_conf < det_conf + 1e-3,
            "MC averaging should not raise confidence: {det_conf} -> {mc_conf}"
        );
    }

    #[test]
    fn accuracy_survives_averaging() {
        let (net, data) = dropout_network();
        let deterministic = evaluate_staged(&net, &data);
        let mc = McDropout::new(16).evaluate(&net, &data, &mut seeded_rng(12));
        assert!(
            (mc[1].accuracy - deterministic[1].accuracy).abs() < 0.08,
            "accuracy shift too large: {} vs {}",
            mc[1].accuracy,
            deterministic[1].accuracy
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_passes_rejected() {
        McDropout::new(0);
    }
}
