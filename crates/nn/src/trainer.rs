use crate::{Adam, Optimizer, StagedNetwork};
use eugene_data::Dataset;
use eugene_tensor::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters for [`Trainer`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Entropy-regularization coefficient `alpha` from the paper's Eq. 4,
    /// applied to every head. `0.0` trains with plain cross-entropy;
    /// calibration fine-tuning sets it non-zero.
    pub entropy_alpha: f32,
    /// Per-head `alpha` overrides; when set, takes precedence over
    /// `entropy_alpha` (the calibration controller tunes each stage head
    /// separately because their miscalibration differs).
    pub entropy_alphas: Option<Vec<f32>>,
    /// Weight on the cross-entropy term (`1.0` for normal training;
    /// calibration fine-tuning weakens the one-hot anchor).
    pub ce_weight: f32,
    /// Relative loss weight per head; `None` weights all heads equally.
    pub head_weights: Option<Vec<f32>>,
    /// Whether to reshuffle the training set each epoch.
    pub shuffle: bool,
    /// Worker threads for the parallel matmul kernels during training:
    /// `Some(1)` forces single-threaded kernels, `Some(0)` or `None`
    /// leaves the process-wide setting untouched (`0` means
    /// auto-detect). Applied via [`eugene_tensor::set_parallelism`] when
    /// [`Trainer::fit`] starts; the setting is process-wide, so the last
    /// trainer to start wins.
    #[serde(default)]
    pub parallelism: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 20,
            batch_size: 32,
            learning_rate: 1e-3,
            entropy_alpha: 0.0,
            entropy_alphas: None,
            ce_weight: 1.0,
            head_weights: None,
            shuffle: true,
            parallelism: None,
        }
    }
}

/// Per-epoch training telemetry returned by [`Trainer::fit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean total loss (summed over heads) per epoch.
    pub epoch_losses: Vec<f32>,
}

impl TrainReport {
    /// The final epoch's mean loss.
    ///
    /// # Panics
    ///
    /// Panics if no epochs were run.
    pub fn final_loss(&self) -> f32 {
        *self.epoch_losses.last().expect("at least one epoch")
    }

    /// Whether the loss decreased from first to last epoch.
    pub fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(first), Some(last)) => last < first,
            _ => false,
        }
    }
}

/// Mini-batch trainer for [`StagedNetwork`]s.
///
/// All heads train jointly: the total loss is the (weighted) sum of each
/// head's entropy-regularized cross-entropy, and trunk gradients accumulate
/// across heads, exactly as the paper's staged ResNet trains its three
/// classifiers.
///
/// # Examples
///
/// See the crate-level example in [`crate`].
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` or `batch_size` is zero, or if `head_weights`
    /// contains a negative weight.
    pub fn new(config: TrainConfig) -> Self {
        assert!(config.epochs > 0, "epochs must be positive");
        assert!(config.batch_size > 0, "batch_size must be positive");
        if let Some(ws) = &config.head_weights {
            assert!(
                ws.iter().all(|w| *w >= 0.0),
                "head weights must be non-negative"
            );
        }
        if let Some(alphas) = &config.entropy_alphas {
            assert!(
                alphas.iter().all(|a| a.is_finite()),
                "per-head alphas must be finite"
            );
        }
        Self { config }
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `network` on `data`, returning per-epoch telemetry.
    ///
    /// # Panics
    ///
    /// Panics if `head_weights` was provided with a length different from
    /// the network's stage count, or if the dataset is empty.
    pub fn fit(
        &self,
        network: &mut StagedNetwork,
        data: &Dataset,
        rng: &mut impl Rng,
    ) -> TrainReport {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        if let Some(threads) = self.config.parallelism {
            eugene_tensor::set_parallelism(threads);
        }
        let num_heads = network.num_stages();
        let weights = match &self.config.head_weights {
            Some(ws) => {
                assert_eq!(ws.len(), num_heads, "need one weight per head");
                ws.clone()
            }
            None => vec![1.0; num_heads],
        };
        let mut optimizer = Adam::new(self.config.learning_rate);
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);
        for _ in 0..self.config.epochs {
            let epoch_data = if self.config.shuffle {
                data.shuffled(rng)
            } else {
                data.clone()
            };
            let mut total_loss = 0.0;
            let mut batches = 0;
            for (features, labels) in epoch_data.batches(self.config.batch_size) {
                total_loss +=
                    self.train_batch(network, &mut optimizer, &weights, &features, &labels);
                batches += 1;
            }
            epoch_losses.push(total_loss / batches.max(1) as f32);
        }
        TrainReport { epoch_losses }
    }

    fn train_batch(
        &self,
        network: &mut StagedNetwork,
        optimizer: &mut Adam,
        weights: &[f32],
        features: &Matrix,
        labels: &[usize],
    ) -> f32 {
        let logits = network.forward_train(features);
        let mut total_loss = 0.0;
        let mut grads = Vec::with_capacity(logits.len());
        for (s, stage_logits) in logits.iter().enumerate() {
            let alpha = match &self.config.entropy_alphas {
                Some(alphas) => alphas.get(s).copied().unwrap_or(self.config.entropy_alpha),
                None => self.config.entropy_alpha,
            };
            let out = crate::loss::weighted_entropy_regularized(
                stage_logits,
                labels,
                self.config.ce_weight,
                alpha,
            );
            total_loss += weights[s] * out.loss;
            grads.push(&out.grad * weights[s]);
        }
        network.backward(&grads);
        optimizer.begin_step();
        let mut index = 0;
        network.visit_params(&mut |param, grad| {
            optimizer.update(index, param, grad);
            index += 1;
        });
        total_loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StagedNetworkConfig;
    use eugene_tensor::seeded_rng;

    fn blob_dataset(n: usize, seed: u64) -> Dataset {
        // Two well-separated Gaussian blobs in 2D.
        let mut rng = seeded_rng(seed);
        let mut features = Matrix::zeros(n, 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            let center = if class == 0 { -2.0 } else { 2.0 };
            features[(i, 0)] = center + eugene_tensor::standard_normal(&mut rng) * 0.5;
            features[(i, 1)] = center + eugene_tensor::standard_normal(&mut rng) * 0.5;
            labels.push(class);
        }
        Dataset::new(features, labels, 2)
    }

    fn accuracy_at_stage(net: &StagedNetwork, data: &Dataset, stage: usize) -> f64 {
        let logits = net.predict_all(data.features());
        let mut correct = 0;
        for i in 0..data.len() {
            if eugene_tensor::argmax(logits[stage].row(i)) == data.label(i) {
                correct += 1;
            }
        }
        correct as f64 / data.len() as f64
    }

    #[test]
    fn trainer_learns_separable_blobs() {
        let data = blob_dataset(200, 1);
        let config = StagedNetworkConfig {
            input_dim: 2,
            num_classes: 2,
            stage_widths: vec![vec![8], vec![8]],
            dropout: 0.0,
            input_skip: false,
        };
        let mut net = StagedNetwork::new(&config, &mut seeded_rng(2));
        let report = Trainer::new(TrainConfig {
            epochs: 30,
            batch_size: 16,
            ..TrainConfig::default()
        })
        .fit(&mut net, &data, &mut seeded_rng(3));
        assert!(
            report.improved(),
            "loss should decrease: {:?}",
            report.epoch_losses
        );
        let acc = accuracy_at_stage(&net, &data, 1);
        assert!(acc > 0.95, "final-stage accuracy {acc} too low");
        let acc0 = accuracy_at_stage(&net, &data, 0);
        assert!(acc0 > 0.9, "first-stage accuracy {acc0} too low");
    }

    #[test]
    fn head_weights_zero_freezes_a_head() {
        // With weight zero on head 0, only the deeper head learns; the
        // first head should stay near chance while the second learns.
        let data = blob_dataset(200, 4);
        let config = StagedNetworkConfig {
            input_dim: 2,
            num_classes: 2,
            stage_widths: vec![vec![8], vec![8]],
            dropout: 0.0,
            input_skip: false,
        };
        let mut net = StagedNetwork::new(&config, &mut seeded_rng(5));
        Trainer::new(TrainConfig {
            epochs: 25,
            batch_size: 16,
            head_weights: Some(vec![0.0, 1.0]),
            ..TrainConfig::default()
        })
        .fit(&mut net, &data, &mut seeded_rng(6));
        let acc1 = accuracy_at_stage(&net, &data, 1);
        assert!(acc1 > 0.95, "trained head accuracy {acc1}");
    }

    #[test]
    fn training_is_deterministic_given_seeds() {
        let data = blob_dataset(60, 7);
        let config = StagedNetworkConfig {
            input_dim: 2,
            num_classes: 2,
            stage_widths: vec![vec![4]],
            dropout: 0.0,
            input_skip: false,
        };
        let run = |seed| {
            let mut net = StagedNetwork::new(&config, &mut seeded_rng(seed));
            let report = Trainer::new(TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            })
            .fit(&mut net, &data, &mut seeded_rng(seed + 1));
            report.epoch_losses
        };
        assert_eq!(run(8), run(8));
    }

    /// A published model sheds its gradient buffers; training it again
    /// must re-materialise them and land on bitwise the same weights as
    /// a copy that never released anything.
    #[test]
    fn released_network_trains_on_bitwise_like_an_unreleased_one() {
        let data = blob_dataset(60, 9);
        let config = StagedNetworkConfig {
            input_dim: 2,
            num_classes: 2,
            stage_widths: vec![vec![4], vec![3]],
            dropout: 0.0,
            input_skip: true,
        };
        let one_epoch = Trainer::new(TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        });
        let mut kept = StagedNetwork::new(&config, &mut seeded_rng(10));
        one_epoch.fit(&mut kept, &data, &mut seeded_rng(11));
        let mut released = kept.clone();
        released.release_training_state();

        one_epoch.fit(&mut kept, &data, &mut seeded_rng(12));
        one_epoch.fit(&mut released, &data, &mut seeded_rng(12));
        let params = |net: &mut StagedNetwork| {
            let mut bits = Vec::new();
            net.visit_params(&mut |p, g| {
                assert_eq!(
                    p.shape(),
                    g.shape(),
                    "gradient buffer matches its parameter"
                );
                bits.extend(p.as_slice().iter().map(|v| v.to_bits()));
            });
            bits
        };
        assert_eq!(params(&mut kept), params(&mut released));
    }

    #[test]
    fn parallelism_knob_is_applied_and_training_stays_deterministic() {
        let data = blob_dataset(60, 14);
        let config = StagedNetworkConfig {
            input_dim: 2,
            num_classes: 2,
            stage_widths: vec![vec![4]],
            dropout: 0.0,
            input_skip: false,
        };
        let run = |threads: Option<usize>| {
            let mut net = StagedNetwork::new(&config, &mut seeded_rng(15));
            let report = Trainer::new(TrainConfig {
                epochs: 2,
                parallelism: threads,
                ..TrainConfig::default()
            })
            .fit(&mut net, &data, &mut seeded_rng(16));
            report.epoch_losses
        };
        let single = run(Some(1));
        assert_eq!(eugene_tensor::parallelism(), 1, "knob reached the kernels");
        let auto = run(Some(0));
        assert_eq!(
            single, auto,
            "kernel parallelism must not change training results"
        );
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let config = StagedNetworkConfig {
            input_dim: 2,
            num_classes: 2,
            stage_widths: vec![vec![4]],
            dropout: 0.0,
            input_skip: false,
        };
        let mut net = StagedNetwork::new(&config, &mut seeded_rng(9));
        let empty = Dataset::new(Matrix::zeros(0, 2), vec![], 2);
        Trainer::new(TrainConfig::default()).fit(&mut net, &empty, &mut seeded_rng(10));
    }

    #[test]
    #[should_panic(expected = "one weight per head")]
    fn wrong_head_weight_count_panics() {
        let data = blob_dataset(10, 11);
        let config = StagedNetworkConfig {
            input_dim: 2,
            num_classes: 2,
            stage_widths: vec![vec![4]],
            dropout: 0.0,
            input_skip: false,
        };
        let mut net = StagedNetwork::new(&config, &mut seeded_rng(12));
        Trainer::new(TrainConfig {
            head_weights: Some(vec![1.0, 1.0]),
            ..TrainConfig::default()
        })
        .fit(&mut net, &data, &mut seeded_rng(13));
    }
}
