//! From-scratch neural networks with staged (early-exit) heads.
//!
//! The paper's run-time inference architecture (Fig. 1, Fig. 3) divides a
//! deep network into a small number of *stages* and attaches a thin softmax
//! classifier at the end of each stage, so the scheduler can stop a task
//! once confidence is high enough. This crate implements the pieces needed
//! to train and serve such networks on CPU, with no external ML framework:
//!
//! - [`Linear`], [`Activation`], [`Dropout`] layers with exact backprop;
//! - [`Sequential`] containers and the multi-head [`StagedNetwork`];
//! - softmax cross-entropy with the paper's **entropy regularizer**
//!   (`L = CE + alpha * H`, Eq. 4) in [`loss`];
//! - [`Sgd`] and [`Adam`] optimizers;
//! - a [`Trainer`] driving mini-batch epochs, and evaluation helpers; and
//! - the stage compiler ([`compile`]), which lowers each stage to a cached
//!   [`StagePlan`].
//!
//! Plans are the only way a served stage runs: the serving engine runs
//! one plan per stage it dispatches. The layer walk
//! ([`StagedNetwork::classify`]) is only the reference the plans are held
//! bitwise equal to.
//!
//! # Examples
//!
//! Train a tiny staged classifier and classify one input at every stage:
//!
//! ```
//! use eugene_nn::{StagedNetwork, StagedNetworkConfig, Trainer, TrainConfig};
//! use eugene_data::{SyntheticImages, SyntheticImagesConfig};
//! use eugene_tensor::seeded_rng;
//!
//! let mut rng = seeded_rng(0);
//! let gen = SyntheticImages::new(SyntheticImagesConfig::default(), &mut rng);
//! let (train, _) = gen.generate(200, &mut rng);
//!
//! let config = StagedNetworkConfig {
//!     input_dim: train.dim(),
//!     num_classes: train.num_classes(),
//!     stage_widths: vec![vec![32], vec![32], vec![32]],
//!     dropout: 0.0,
//!     input_skip: false,
//! };
//! let mut net = StagedNetwork::new(&config, &mut rng);
//! Trainer::new(TrainConfig { epochs: 3, ..TrainConfig::default() })
//!     .fit(&mut net, &train, &mut rng);
//!
//! let outputs = net.classify(train.sample(0));
//! assert_eq!(outputs.len(), 3);
//! assert!(outputs.iter().all(|o| o.confidence > 0.0 && o.confidence <= 1.0));
//! ```

mod activation;
pub mod compile;
mod dropout;
pub mod graph;
mod layer;
mod linear;
pub mod loss;
mod metrics;
mod optimizer;
mod sequential;
mod snapshot;
mod staged;
mod trainer;

pub use activation::Activation;
pub use compile::{CompileError, PlanCache, PlanKey, StagePlan};
pub use dropout::Dropout;
pub use graph::{ActKind, LayerRef, Op, OpGraph, OutputRole, SourceKind};
pub use layer::Layer;
pub use linear::Linear;
pub use metrics::{accuracy, evaluate_staged, StageEval};
pub use optimizer::{Adam, Optimizer, Sgd};
pub use sequential::Sequential;
pub use snapshot::{LayerSnapshot, NetworkSnapshot, SnapshotError};
pub use staged::{StageOutput, StagedNetwork, StagedNetworkConfig};
pub use trainer::{TrainConfig, TrainReport, Trainer};

// The kernel-parallelism knob, re-exported so training and serving code
// can size the worker pool without depending on `eugene_tensor` directly.
pub use eugene_tensor::{parallelism, set_parallelism, PlanCacheStats, Precision};

#[cfg(test)]
mod integration_tests;
