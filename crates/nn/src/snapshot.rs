//! Serializable network snapshots.
//!
//! The paper's caching story ships models across the network: the server
//! "may retrain a neural network ..., compress the result, and download
//! the compressed model to the device" (§II-B), and §IV-A moves partial
//! models between clients and servers. [`NetworkSnapshot`] is the wire
//! format: a plain-data description of a [`StagedNetwork`] that
//! round-trips through any serde format.

use crate::compile::stage_graph;
use crate::{Activation, Dropout, Layer, Linear, Sequential, StagedNetwork};
use eugene_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// One layer, as plain data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerSnapshot {
    /// Fully connected layer (weights `in x out`, bias `1 x out`).
    Linear {
        /// Weight matrix.
        weights: Matrix,
        /// Bias row.
        bias: Matrix,
    },
    /// ReLU activation.
    Relu,
    /// Tanh activation.
    Tanh,
    /// Inverted dropout with its probability and RNG seed.
    Dropout {
        /// Drop probability.
        p: f32,
        /// Mask RNG seed.
        seed: u64,
    },
}

/// A whole staged network, as plain data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSnapshot {
    /// Trunk stages, each a list of layers.
    pub stages: Vec<Vec<LayerSnapshot>>,
    /// One classifier head per stage.
    pub heads: Vec<LayerSnapshot>,
    /// Input dimensionality.
    pub input_dim: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Whether stages after the first see the raw input (shortcuts).
    pub input_skip: bool,
}

/// Error restoring a network from a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot has no stages or mismatched heads.
    MalformedStructure {
        /// What was wrong.
        reason: String,
    },
    /// A head was not a linear layer.
    NonLinearHead {
        /// Stage index of the offending head.
        stage: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::MalformedStructure { reason } => {
                write!(f, "malformed network snapshot: {reason}")
            }
            SnapshotError::NonLinearHead { stage } => {
                write!(f, "head of stage {stage} must be a linear layer")
            }
        }
    }
}

impl Error for SnapshotError {}

impl StagedNetwork {
    /// Captures the network as plain serializable data.
    ///
    /// Unknown custom layer types are not representable; networks built by
    /// this crate's constructors always snapshot cleanly.
    ///
    /// # Panics
    ///
    /// Panics if the network contains a layer type this module does not
    /// know (impossible for networks built via [`crate::StagedNetworkConfig`]).
    pub fn to_snapshot(&self) -> NetworkSnapshot {
        let stages = self
            .stages()
            .iter()
            .map(|block| {
                block
                    .layers()
                    .iter()
                    .map(|l| snapshot_layer(l.as_ref()))
                    .collect()
            })
            .collect();
        let heads = self
            .heads()
            .iter()
            .map(|h| LayerSnapshot::Linear {
                weights: h.weights().clone(),
                bias: h.bias().clone(),
            })
            .collect();
        NetworkSnapshot {
            stages,
            heads,
            input_dim: self.input_dim(),
            num_classes: self.num_classes(),
            input_skip: self.input_skip(),
        }
    }

    /// Restores a network from a snapshot. A snapshot may have crossed
    /// the network, so every shape is checked before any layer is
    /// built, and the widths must chain by the rule serving compiles
    /// with ([`crate::compile::stage_graph`]): a restored network
    /// always serves.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] if the snapshot is structurally invalid.
    pub fn from_snapshot(snapshot: &NetworkSnapshot) -> Result<Self, SnapshotError> {
        let malformed = |reason: String| SnapshotError::MalformedStructure { reason };
        if snapshot.input_dim == 0 {
            return Err(malformed("input_dim is 0".to_owned()));
        }
        if snapshot.num_classes < 2 {
            return Err(malformed(format!(
                "{} classes, need at least 2",
                snapshot.num_classes
            )));
        }
        if snapshot.stages.is_empty() {
            return Err(malformed("no stages".to_owned()));
        }
        if snapshot.stages.len() != snapshot.heads.len() {
            return Err(malformed(format!(
                "{} stages but {} heads",
                snapshot.stages.len(),
                snapshot.heads.len()
            )));
        }
        for layer in snapshot.stages.iter().flatten().chain(&snapshot.heads) {
            check_layer(layer).map_err(malformed)?;
        }
        let mut stages = Vec::with_capacity(snapshot.stages.len());
        for layers in &snapshot.stages {
            let mut block = Sequential::new();
            for layer in layers {
                block.push_boxed(restore_layer(layer));
            }
            stages.push(block);
        }
        let mut heads = Vec::with_capacity(snapshot.heads.len());
        for (s, head) in snapshot.heads.iter().enumerate() {
            match head {
                LayerSnapshot::Linear { weights, bias } => {
                    heads.push(Linear::from_parts(weights.clone(), bias.clone()));
                }
                _ => return Err(SnapshotError::NonLinearHead { stage: s }),
            }
        }
        let network = StagedNetwork::from_parts(
            stages,
            heads,
            snapshot.input_dim,
            snapshot.num_classes,
            snapshot.input_skip,
        );
        for stage in 0..network.num_stages() {
            stage_graph(&network, stage).map_err(|e| malformed(e.to_string()))?;
        }
        Ok(network)
    }
}

/// The checks that keep [`restore_layer`] from panicking: every matrix
/// holds `rows × cols` values, a `Linear` is non-empty with a `1 × out`
/// bias, and a dropout probability lies in `[0, 1)`.
fn check_layer(layer: &LayerSnapshot) -> Result<(), String> {
    match layer {
        LayerSnapshot::Linear { weights, bias } => {
            for (name, m) in [("weights", weights), ("bias", bias)] {
                if m.rows().checked_mul(m.cols()) != Some(m.len()) {
                    return Err(format!(
                        "{name} claim {}x{} but hold {} values",
                        m.rows(),
                        m.cols(),
                        m.len()
                    ));
                }
            }
            if weights.is_empty() {
                return Err(format!("{}x{} weights", weights.rows(), weights.cols()));
            }
            if bias.shape() != (1, weights.cols()) {
                return Err(format!(
                    "bias is {}x{}, must be 1x{}",
                    bias.rows(),
                    bias.cols(),
                    weights.cols()
                ));
            }
        }
        LayerSnapshot::Dropout { p, .. } if !(0.0..1.0).contains(p) => {
            return Err(format!("drop probability {p} outside [0, 1)"));
        }
        _ => {}
    }
    Ok(())
}

fn snapshot_layer(layer: &dyn Layer) -> LayerSnapshot {
    if let Some(linear) = layer.as_any().downcast_ref::<Linear>() {
        return LayerSnapshot::Linear {
            weights: linear.weights().clone(),
            bias: linear.bias().clone(),
        };
    }
    if let Some(dropout) = layer.as_any().downcast_ref::<Dropout>() {
        return LayerSnapshot::Dropout {
            p: dropout.probability(),
            // The seed is not recoverable from StdRng; reseed from the
            // probability's bits for determinism. Dropout is inert at
            // inference, so this only affects further training runs.
            seed: dropout.probability().to_bits() as u64,
        };
    }
    if layer.as_any().downcast_ref::<Activation>().is_some() {
        return match layer.describe().as_str() {
            "tanh" => LayerSnapshot::Tanh,
            _ => LayerSnapshot::Relu,
        };
    }
    panic!("unsupported layer type in snapshot: {}", layer.describe());
}

fn restore_layer(snapshot: &LayerSnapshot) -> Box<dyn Layer> {
    match snapshot {
        LayerSnapshot::Linear { weights, bias } => {
            Box::new(Linear::from_parts(weights.clone(), bias.clone()))
        }
        LayerSnapshot::Relu => Box::new(Activation::relu()),
        LayerSnapshot::Tanh => Box::new(Activation::tanh()),
        LayerSnapshot::Dropout { p, seed } => Box::new(Dropout::new(*p, *seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StagedNetworkConfig;
    use eugene_tensor::seeded_rng;

    fn network() -> StagedNetwork {
        let config = StagedNetworkConfig {
            input_dim: 6,
            num_classes: 4,
            stage_widths: vec![vec![8], vec![8, 8]],
            dropout: 0.2,
            input_skip: true,
        };
        StagedNetwork::new(&config, &mut seeded_rng(1))
    }

    #[test]
    fn snapshot_round_trip_preserves_inference() {
        let net = network();
        let snapshot = net.to_snapshot();
        let restored = StagedNetwork::from_snapshot(&snapshot).unwrap();
        let sample: Vec<f32> = (0..6).map(|i| (i as f32).sin()).collect();
        let a = net.classify(&sample);
        let b = restored.classify(&sample);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.predicted, y.predicted);
            assert!((x.confidence - y.confidence).abs() < 1e-6);
        }
        assert_eq!(restored.param_count(), net.param_count());
        assert_eq!(restored.input_skip(), net.input_skip());
    }

    #[test]
    fn snapshot_survives_json() {
        let net = network();
        let json = serde_json::to_string(&net.to_snapshot()).unwrap();
        let parsed: NetworkSnapshot = serde_json::from_str(&json).unwrap();
        let restored = StagedNetwork::from_snapshot(&parsed).unwrap();
        let sample = [0.5f32; 6];
        let a = net.classify(&sample);
        let b = restored.classify(&sample);
        for (x, y) in a.iter().zip(&b) {
            assert!((x.confidence - y.confidence).abs() < 1e-6);
        }
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        let empty = NetworkSnapshot {
            stages: vec![],
            heads: vec![],
            input_dim: 4,
            num_classes: 2,
            input_skip: false,
        };
        assert!(matches!(
            StagedNetwork::from_snapshot(&empty),
            Err(SnapshotError::MalformedStructure { .. })
        ));

        let bad_head = NetworkSnapshot {
            stages: vec![vec![LayerSnapshot::Relu]],
            heads: vec![LayerSnapshot::Relu],
            input_dim: 4,
            num_classes: 2,
            input_skip: false,
        };
        assert!(matches!(
            StagedNetwork::from_snapshot(&bad_head),
            Err(SnapshotError::NonLinearHead { stage: 0 })
        ));
    }

    #[test]
    fn snapshots_that_cannot_serve_are_refused_without_panicking() {
        fn linear(weights: Matrix, bias: Matrix) -> LayerSnapshot {
            LayerSnapshot::Linear { weights, bias }
        }
        /// Claims 8x8 but holds one value: only a deserialized matrix can.
        fn short() -> Matrix {
            serde_json::from_str(r#"{"rows":8,"cols":8,"data":[0.5]}"#).unwrap()
        }
        type Corrupt = fn(&mut NetworkSnapshot);
        let cases: [(&str, Corrupt); 7] = [
            ("bias not 1 x out", |s| {
                s.stages[0][0] = linear(Matrix::zeros(6, 8), Matrix::zeros(1, 7))
            }),
            ("dropout p outside [0, 1)", |s| {
                s.stages[0][2] = LayerSnapshot::Dropout { p: 1.5, seed: 0 }
            }),
            ("widths do not chain through the input skip", |s| {
                // Stage 1 sees [8 | 6] = 14 columns, not 8.
                s.stages[1][0] = linear(Matrix::zeros(8, 8), Matrix::zeros(1, 8))
            }),
            ("head output is not num_classes", |s| {
                s.heads[1] = linear(Matrix::zeros(8, 3), Matrix::zeros(1, 3))
            }),
            ("matrix rows x cols != data length", |s| {
                s.stages[1][3] = linear(short(), Matrix::zeros(1, 8))
            }),
            ("input_dim 0", |s| s.input_dim = 0),
            ("one class", |s| s.num_classes = 1),
        ];
        for (what, corrupt) in cases {
            let mut snapshot = network().to_snapshot();
            corrupt(&mut snapshot);
            let got = std::panic::catch_unwind(|| StagedNetwork::from_snapshot(&snapshot));
            assert!(
                matches!(got, Ok(Err(SnapshotError::MalformedStructure { .. }))),
                "{what}: expected MalformedStructure, got {:?}",
                got.map(|r| r.map(|_| "a network"))
            );
        }
    }

    #[test]
    fn snapshot_size_tracks_parameters() {
        // The cached-model story ships snapshots to devices; a pruned
        // model's snapshot must be proportionally smaller.
        let net = network();
        let big = serde_json::to_vec(&net.to_snapshot()).unwrap().len();
        let small_config = StagedNetworkConfig {
            input_dim: 6,
            num_classes: 4,
            stage_widths: vec![vec![3]],
            dropout: 0.0,
            input_skip: false,
        };
        let small_net = StagedNetwork::new(&small_config, &mut seeded_rng(2));
        let small = serde_json::to_vec(&small_net.to_snapshot()).unwrap().len();
        assert!(small * 2 < big, "small {small} vs big {big}");
    }
}
