//! The two trained models and the reference answers every served answer
//! is compared with.

use crate::host::{refuse, Refusal};
use crate::workload::{ModelKind, Workload};
use eugene_data::{Dataset, SyntheticImages, SyntheticImagesConfig};
use eugene_nn::{StagedNetworkConfig, TrainConfig};
use eugene_service::{Eugene, ModelId, TrainRequest};
use eugene_tensor::seeded_rng;

/// Seed of data generation and training. Fixed: `--seed` varies the
/// traffic, never the model, so every run serves bit-identical weights.
const MODEL_SEED: u64 = 0xE06E;

/// Distinct payloads the traffic draws from.
pub const PAYLOAD_POOL: usize = 128;

const TEST_SAMPLES: usize = 1000;

struct Recipe {
    data: SyntheticImagesConfig,
    architecture: StagedNetworkConfig,
    train_samples: usize,
    train: TrainConfig,
}

fn recipe(kind: ModelKind) -> Recipe {
    match kind {
        ModelKind::Small => Recipe {
            data: SyntheticImagesConfig {
                dim: 32,
                paired_parity: true,
                ..Default::default()
            },
            architecture: StagedNetworkConfig::three_stage(32, 10),
            train_samples: 2000,
            train: TrainConfig {
                epochs: 10,
                ..Default::default()
            },
        },
        // Sized so that f32 compute dominates server CPU (README "Model
        // sizing"). Two epochs over 800 samples is all set-up can afford;
        // the head weights and the low learning rate keep the ordering
        // stage 1 < stage 2 < stage 3 that short training would
        // otherwise leave to chance.
        ModelKind::Wide => Recipe {
            data: SyntheticImagesConfig {
                dim: 256,
                paired_parity: true,
                noise: 0.5,
                easy_fraction: 0.3,
                medium_fraction: 0.35,
                ..Default::default()
            },
            architecture: StagedNetworkConfig {
                input_dim: 256,
                num_classes: 10,
                stage_widths: vec![vec![512], vec![1024, 1024], vec![1024, 1024]],
                dropout: 0.1,
                input_skip: true,
            },
            train_samples: 800,
            train: TrainConfig {
                epochs: 2,
                learning_rate: 3e-4,
                head_weights: Some(vec![0.1, 0.3, 1.0]),
                ..Default::default()
            },
        },
    }
}

/// A trained, registered model plus the data that came with it.
pub struct TrainedModel {
    pub eugene: Eugene,
    pub id: ModelId,
    /// Training split; also fits the scheduler's confidence predictor.
    pub train: Dataset,
    pub test: Dataset,
    /// Test accuracy per stage, for the report.
    pub stage_accuracy: Vec<f64>,
}

/// Trains the workload's model through the product's front door
/// (`Eugene::train`, then `quantize_model` for the Int8 variant).
///
/// Refuses unless test accuracy rises strictly with stage depth: a staged
/// network whose deeper exits are not better is not the system the paper
/// describes, and utility numbers measured on it mean nothing.
pub fn train(workload: &Workload) -> Result<TrainedModel, Refusal> {
    let recipe = recipe(workload.model);
    let mut rng = seeded_rng(MODEL_SEED);
    let generator = SyntheticImages::new(recipe.data, &mut rng);
    let (train, _) = generator.generate(recipe.train_samples, &mut rng);
    let (test, _) = generator.generate(TEST_SAMPLES, &mut rng);
    let mut eugene = Eugene::new(MODEL_SEED);
    let id = eugene
        .train(TrainRequest {
            data: &train,
            architecture: Some(recipe.architecture),
            train: recipe.train,
        })
        .expect("training data is non-empty");
    if workload.int8 {
        let stages: Vec<usize> = (0..3).collect();
        eugene
            .quantize_model(id, &stages)
            .expect("model was just registered");
    }
    let stage_accuracy: Vec<f64> = eugene
        .evaluate(id, &test)
        .expect("test data matches the model")
        .iter()
        .map(|e| e.accuracy)
        .collect();
    if !stage_accuracy.windows(2).all(|w| w[0] < w[1]) {
        return refuse(format!(
            "test accuracy does not rise strictly with stage depth: {stage_accuracy:?}"
        ));
    }
    Ok(TrainedModel {
        eugene,
        id,
        train,
        test,
        stage_accuracy,
    })
}

/// What the model answers for one payload after each stage:
/// `(predicted, confidence.to_bits())`.
pub type StageAnswers = Vec<(u64, u32)>;

/// The in-process reference: `classify(payload)` for every payload of the
/// pool. A served answer that stopped after `n` stages must equal entry
/// `n - 1` bit for bit — the repository's contract across batching,
/// fusion and Int8.
pub fn reference_answers(model: &TrainedModel) -> Vec<StageAnswers> {
    (0..PAYLOAD_POOL)
        .map(|i| {
            model
                .eugene
                .classify(model.id, model.test.sample(i))
                .expect("payload matches the model")
                .iter()
                .map(|out| (out.predicted as u64, out.confidence.to_bits()))
                .collect()
        })
        .collect()
}
