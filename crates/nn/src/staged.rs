use crate::compile::{CompileError, PlanCache, PlanKey, StagePlan};
use crate::{Activation, Dropout, Layer, Linear, Sequential};
use eugene_tensor::{argmax, softmax, Matrix, Precision};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Architecture description for a [`StagedNetwork`].
///
/// `stage_widths[s]` lists the hidden-layer widths inside stage `s`; each
/// stage ends where the next begins, and a thin softmax classifier head is
/// attached to every stage boundary (paper Fig. 1 / Fig. 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagedNetworkConfig {
    /// Input feature dimensionality.
    pub input_dim: usize,
    /// Number of output classes shared by all heads.
    pub num_classes: usize,
    /// Hidden widths per stage, outermost `Vec` indexed by stage.
    pub stage_widths: Vec<Vec<usize>>,
    /// Dropout probability inserted after every hidden activation
    /// (`0.0` disables dropout).
    pub dropout: f32,
    /// Shortcut connections (paper Fig. 3: "ResNets add extra shortcut
    /// connections"): each stage after the first sees `[previous stage
    /// output | raw input]`, so an early narrow stage does not bottleneck
    /// the information available to deeper stages.
    pub input_skip: bool,
}

impl StagedNetworkConfig {
    /// The three-stage configuration used by the reproduction's
    /// CIFAR-10-stand-in experiments, mirroring the paper's three-stage
    /// ResNet: a deliberately narrow first stage (cheap, less accurate),
    /// wider later stages, and shortcut connections so depth genuinely
    /// adds accuracy.
    pub fn three_stage(input_dim: usize, num_classes: usize) -> Self {
        Self {
            input_dim,
            num_classes,
            stage_widths: vec![vec![8], vec![24], vec![64, 64]],
            dropout: 0.1,
            input_skip: true,
        }
    }
}

/// The classification emitted by one stage head: the paper's
/// `(predicted value, confidence)` tuple (§III-C).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageOutput {
    /// Zero-based stage index that produced this output.
    pub stage: usize,
    /// Full softmax distribution over classes.
    pub probs: Vec<f32>,
    /// `argmax` class.
    pub predicted: usize,
    /// The largest probability — the classification confidence.
    pub confidence: f32,
}

impl StageOutput {
    fn from_logits(stage: usize, logits: &[f32]) -> Self {
        let probs = softmax(logits);
        let predicted = argmax(&probs);
        let confidence = probs[predicted];
        Self {
            stage,
            probs,
            predicted,
            confidence,
        }
    }
}

/// A deep network split into stages with a softmax classifier per stage.
///
/// This is the reproduction's analog of the paper's three-stage ResNet
/// (Fig. 3): `stages[0..n]` form the trunk (optionally with input
/// shortcuts), and `heads[s]` maps stage `s`'s activations to class
/// logits. Training runs all heads jointly. Serving runs one stage at a
/// time, so the scheduler can stop early, and only through compiled
/// [`StagePlan`]s ([`StagedNetwork::stage_plan`]). The layer walk
/// ([`StagedNetwork::classify`], [`StagedNetwork::predict_all`]) is the
/// reference those plans are held bitwise equal to.
#[derive(Clone)]
pub struct StagedNetwork {
    stages: Vec<Sequential>,
    heads: Vec<Linear>,
    input_dim: usize,
    num_classes: usize,
    stage_output_dims: Vec<usize>,
    input_skip: bool,
    /// Compiled stage plans, keyed by `(stage, rows, precision)`.
    /// Cloning a network yields a fresh, empty cache (see
    /// [`PlanCache`]); every parameter-mutation path below calls
    /// `plans.invalidate()`.
    plans: PlanCache,
}

impl StagedNetwork {
    /// Builds a network from `config`, initializing weights from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if the config has no stages, a stage has no layers, or any
    /// dimension is zero.
    pub fn new(config: &StagedNetworkConfig, rng: &mut impl Rng) -> Self {
        assert!(!config.stage_widths.is_empty(), "need at least one stage");
        assert!(config.input_dim > 0, "input_dim must be positive");
        assert!(config.num_classes >= 2, "need at least two classes");
        let mut stages = Vec::with_capacity(config.stage_widths.len());
        let mut heads = Vec::with_capacity(config.stage_widths.len());
        let mut stage_output_dims = Vec::with_capacity(config.stage_widths.len());
        let mut prev_out = config.input_dim;
        for (s, widths) in config.stage_widths.iter().enumerate() {
            assert!(!widths.is_empty(), "stage {s} must have at least one layer");
            let mut in_dim = if s > 0 && config.input_skip {
                prev_out + config.input_dim
            } else {
                prev_out
            };
            let mut block = Sequential::new();
            for &w in widths {
                assert!(w > 0, "stage {s} has a zero-width layer");
                block.push(Linear::new(in_dim, w, rng));
                block.push(Activation::relu());
                if config.dropout > 0.0 {
                    block.push(Dropout::new(config.dropout, rng.gen()));
                }
                in_dim = w;
            }
            heads.push(Linear::new(in_dim, config.num_classes, rng));
            stage_output_dims.push(in_dim);
            stages.push(block);
            prev_out = in_dim;
        }
        Self {
            stages,
            heads,
            input_dim: config.input_dim,
            num_classes: config.num_classes,
            stage_output_dims,
            input_skip: config.input_skip,
            plans: PlanCache::new(),
        }
    }

    /// Assembles a network from pre-built stage blocks and heads (used by
    /// model reduction).
    ///
    /// # Panics
    ///
    /// Panics if `stages` and `heads` lengths differ or are empty.
    pub fn from_parts(
        stages: Vec<Sequential>,
        heads: Vec<Linear>,
        input_dim: usize,
        num_classes: usize,
        input_skip: bool,
    ) -> Self {
        assert!(!stages.is_empty(), "need at least one stage");
        assert_eq!(stages.len(), heads.len(), "one head per stage required");
        let stage_output_dims = heads.iter().map(Linear::in_dim).collect();
        Self {
            stages,
            heads,
            input_dim,
            num_classes,
            stage_output_dims,
            input_skip,
            plans: PlanCache::new(),
        }
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Whether stages after the first see the raw input via a shortcut.
    pub fn input_skip(&self) -> bool {
        self.input_skip
    }

    /// The activation width at the output of stage `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn stage_output_dim(&self, s: usize) -> usize {
        self.stage_output_dims[s]
    }

    /// Total trainable parameters across trunk and heads.
    pub fn param_count(&self) -> usize {
        self.stages
            .iter()
            .map(Sequential::param_count)
            .sum::<usize>()
            + self.heads.iter().map(Layer::param_count).sum::<usize>()
    }

    /// Borrows the trunk blocks.
    pub fn stages(&self) -> &[Sequential] {
        &self.stages
    }

    /// Mutably borrows the trunk blocks (used by pruning). Invalidates
    /// all compiled stage plans — the caller may mutate weights.
    pub fn stages_mut(&mut self) -> &mut [Sequential] {
        self.plans.invalidate();
        &mut self.stages
    }

    /// Borrows the per-stage heads.
    pub fn heads(&self) -> &[Linear] {
        &self.heads
    }

    /// Mutably borrows the per-stage heads (used by pruning and
    /// calibration). Invalidates all compiled stage plans.
    pub fn heads_mut(&mut self) -> &mut [Linear] {
        self.plans.invalidate();
        &mut self.heads
    }

    /// The serving precision of trunk stage `s`: [`Precision::Int8`]
    /// when every `Linear` in the block carries a quantized pack,
    /// [`Precision::F32`] otherwise. Heads always serve f32 — their
    /// logits feed entropy-based exit decisions, where quantization
    /// noise would directly perturb confidence thresholds.
    pub fn stage_precision(&self, s: usize) -> Precision {
        let mut linears = self
            .stages
            .get(s)
            .into_iter()
            .flat_map(trunk_linears)
            .peekable();
        if linears.peek().is_some() && linears.all(|lin| lin.precision() == Precision::Int8) {
            Precision::Int8
        } else {
            Precision::F32
        }
    }

    /// Per-stage serving precisions, indexable by stage.
    pub fn stage_precisions(&self) -> Vec<Precision> {
        (0..self.stages.len())
            .map(|s| self.stage_precision(s))
            .collect()
    }

    /// Switches the listed trunk stages to quantized (i8) serving by
    /// packing every `Linear` in those blocks; stages not listed are
    /// reset to f32. Out-of-range indices are ignored. Heads are left
    /// untouched (see [`StagedNetwork::stage_precision`]).
    pub fn quantize_stages(&mut self, stages: &[usize]) {
        // Repacking changes which kernels (and which packs) a stage
        // serves with, so every compiled plan is stale.
        self.plans.invalidate();
        for (s, block) in self.stages.iter_mut().enumerate() {
            let precision = if stages.contains(&s) {
                Precision::Int8
            } else {
                Precision::F32
            };
            trunk_linears_mut(block).for_each(|lin| lin.set_precision(precision));
        }
    }

    /// Resident heap bytes of the weight packs the layers own (f32
    /// panels built by plan compilation, Int8 packs built by
    /// [`StagedNetwork::quantize_stages`]). Plans only borrow these,
    /// so the figure does not grow with the number of compiled batch
    /// shapes.
    pub fn packed_weight_bytes(&self) -> usize {
        self.stages
            .iter()
            .flat_map(trunk_linears)
            .chain(&self.heads)
            .map(|lin| {
                lin.packed_weights().map_or(0, |p| p.packed_bytes())
                    + lin.quantized_pack().map_or(0, |q| q.packed_bytes())
            })
            .sum()
    }

    /// Frees what only training reads (see
    /// [`Linear::release_training_state`]) on every layer — called where
    /// a model is published for serving. The network stays trainable.
    pub fn release_training_state(&mut self) {
        self.stages
            .iter_mut()
            .flat_map(trunk_linears_mut)
            .chain(&mut self.heads)
            .for_each(Linear::release_training_state);
    }

    /// The input a stage consumes given the previous stage's output.
    fn stage_input(&self, s: usize, hidden: &Matrix, input: &Matrix) -> Matrix {
        if s > 0 && self.input_skip {
            hidden.hconcat(input)
        } else {
            hidden.clone()
        }
    }

    /// Training forward pass over a batch: returns per-stage logits,
    /// caching layer state for [`StagedNetwork::backward`].
    pub fn forward_train(&mut self, input: &Matrix) -> Vec<Matrix> {
        let mut logits = Vec::with_capacity(self.stages.len());
        let mut hidden = input.clone();
        for s in 0..self.stages.len() {
            let stage_in = if s > 0 && self.input_skip {
                hidden.hconcat(input)
            } else {
                hidden
            };
            hidden = self.stages[s].forward(&stage_in);
            logits.push(self.heads[s].forward(&hidden));
        }
        logits
    }

    /// Backward pass given the per-stage logit gradients (one matrix per
    /// head, as produced by the losses in [`crate::loss`]).
    ///
    /// Returns the gradient with respect to the network input (including
    /// shortcut contributions).
    ///
    /// # Panics
    ///
    /// Panics if `grad_logits.len() != self.num_stages()` or called before
    /// [`StagedNetwork::forward_train`].
    pub fn backward(&mut self, grad_logits: &[Matrix]) -> Matrix {
        assert_eq!(
            grad_logits.len(),
            self.stages.len(),
            "need one logit gradient per stage"
        );
        let mut carry: Option<Matrix> = None;
        let mut input_grad: Option<Matrix> = None;
        for s in (0..self.stages.len()).rev() {
            let mut g = self.heads[s].backward(&grad_logits[s]);
            if let Some(c) = carry {
                g += &c;
            }
            let full = self.stages[s].backward(&g);
            if s > 0 && self.input_skip {
                // Split [prev stage | raw input] gradient.
                let prev_width = self.stage_output_dims[s - 1];
                let prev_cols: Vec<usize> = (0..prev_width).collect();
                let input_cols: Vec<usize> = (prev_width..prev_width + self.input_dim).collect();
                let to_input = full.select_cols(&input_cols);
                match &mut input_grad {
                    Some(acc) => *acc += &to_input,
                    None => input_grad = Some(to_input),
                }
                carry = Some(full.select_cols(&prev_cols));
            } else {
                carry = Some(full);
            }
        }
        let mut total = carry.expect("at least one stage");
        if let Some(acc) = input_grad {
            total += &acc;
        }
        total
    }

    /// Visits all `(parameter, gradient)` pairs in a stable order:
    /// trunk stages first, then heads.
    pub fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        // The optimizer mutates weights through this hook.
        self.plans.invalidate();
        for stage in &mut self.stages {
            stage.visit_params(visitor);
        }
        for head in &mut self.heads {
            head.visit_params(visitor);
        }
    }

    /// Pure inference of the trunk only: the activation matrix at each
    /// stage boundary for a whole batch. Confidence calibration freezes
    /// the trunk and fine-tunes only the thin classifier heads, so it
    /// caches these activations once and reuses them every round.
    pub fn stage_activations(&self, input: &Matrix) -> Vec<Matrix> {
        let mut out = Vec::with_capacity(self.stages.len());
        let mut hidden = input.clone();
        for s in 0..self.stages.len() {
            let stage_in = self.stage_input(s, &hidden, input);
            hidden = self.stages[s].infer(&stage_in);
            out.push(hidden.clone());
        }
        out
    }

    /// Pure inference: per-stage logits for a whole batch.
    pub fn predict_all(&self, input: &Matrix) -> Vec<Matrix> {
        self.stage_activations(input)
            .iter()
            .zip(&self.heads)
            .map(|(h, head)| head.infer(h))
            .collect()
    }

    /// Stochastic inference with dropout live (Monte-Carlo pass); used by
    /// the RDeepSense calibration baseline.
    pub fn predict_stochastic(&self, input: &Matrix, rng: &mut StdRng) -> Vec<Matrix> {
        let mut logits = Vec::with_capacity(self.stages.len());
        let mut hidden = input.clone();
        for s in 0..self.stages.len() {
            let stage_in = self.stage_input(s, &hidden, input);
            hidden = self.stages[s].infer_stochastic(&stage_in, rng);
            logits.push(self.heads[s].infer_stochastic(&hidden, rng));
        }
        logits
    }

    /// Runs every stage on a single sample through the layer walk,
    /// returning one [`StageOutput`] per stage — the reference the
    /// compiled serving plans are held bitwise equal to.
    ///
    /// # Panics
    ///
    /// Panics if `sample.len() != self.input_dim()`.
    pub fn classify(&self, sample: &[f32]) -> Vec<StageOutput> {
        assert_eq!(
            sample.len(),
            self.input_dim,
            "sample dimension {} must equal input_dim {}",
            sample.len(),
            self.input_dim
        );
        self.predict_all(&Matrix::row_vector(sample))
            .iter()
            .enumerate()
            .map(|(s, logits)| StageOutput::from_logits(s, logits.row(0)))
            .collect()
    }

    /// The compiled, cached execution plan for `stage` at a batch
    /// shape of `rows`, compiling it on first use. Plans fuse
    /// elementwise tails into the GEMM epilogue, multiply with the
    /// layers' pre-packed weight panels (packed once per layer, shared
    /// by every `rows`) and pool their intermediate buffers, and execute
    /// **bitwise-identically** to the layer walk — see
    /// [`crate::compile`].
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when the stage does not exist, holds a
    /// layer the op IR cannot express, or has widths that do not chain;
    /// serving refuses such a network.
    pub fn stage_plan(&self, stage: usize, rows: usize) -> Result<Arc<StagePlan>, CompileError> {
        let key = PlanKey {
            stage,
            rows,
            precision: self.stage_precision(stage),
        };
        self.plans.get_or_compile(self, key)
    }

    /// The network's compiled-plan cache (counters, generation tag).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// A short human-readable architecture summary.
    pub fn describe(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .enumerate()
            .map(|(s, block)| {
                format!(
                    "stage{}: {} -> head {}",
                    s,
                    block.describe(),
                    self.heads[s].describe()
                )
            })
            .collect();
        stages.join("\n")
    }
}

/// The `Linear` layers of one trunk block.
fn trunk_linears(block: &Sequential) -> impl Iterator<Item = &Linear> {
    block
        .layers()
        .iter()
        .filter_map(|layer| layer.as_any().downcast_ref::<Linear>())
}

fn trunk_linears_mut(block: &mut Sequential) -> impl Iterator<Item = &mut Linear> {
    block
        .layers_mut()
        .iter_mut()
        .filter_map(|layer| layer.as_any_mut().downcast_mut::<Linear>())
}

impl std::fmt::Debug for StagedNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "StagedNetwork({} stages, {} params)",
            self.num_stages(),
            self.param_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eugene_tensor::seeded_rng;

    fn tiny_config() -> StagedNetworkConfig {
        StagedNetworkConfig {
            input_dim: 4,
            num_classes: 3,
            stage_widths: vec![vec![6], vec![6], vec![5]],
            dropout: 0.0,
            input_skip: false,
        }
    }

    fn skip_config() -> StagedNetworkConfig {
        StagedNetworkConfig {
            input_skip: true,
            ..tiny_config()
        }
    }

    #[test]
    fn construction_matches_config() {
        let net = StagedNetwork::new(&tiny_config(), &mut seeded_rng(1));
        assert_eq!(net.num_stages(), 3);
        assert_eq!(net.input_dim(), 4);
        assert_eq!(net.num_classes(), 3);
        assert_eq!(net.stage_output_dim(0), 6);
        assert_eq!(net.stage_output_dim(2), 5);
        assert!(!net.input_skip());
    }

    #[test]
    fn quantize_stages_tags_precisions_and_tracks_f32() {
        let mut net = StagedNetwork::new(&tiny_config(), &mut seeded_rng(11));
        let input = Matrix::from_rows(&[&[0.2, -0.5, 0.8, 0.1], &[0.9, 0.3, -0.2, -0.7]]);
        let f32_logits = net.predict_all(&input);
        assert_eq!(net.stage_precisions(), vec![Precision::F32; 3]);

        net.quantize_stages(&[0, 1]);
        assert_eq!(
            net.stage_precisions(),
            vec![Precision::Int8, Precision::Int8, Precision::F32]
        );
        let q_logits = net.predict_all(&input);
        for (ql, fl) in q_logits.iter().zip(&f32_logits) {
            for (q, f) in ql.as_slice().iter().zip(fl.as_slice()) {
                assert!((q - f).abs() < 0.1, "quantized logits drifted: {q} vs {f}");
            }
        }

        net.quantize_stages(&[]);
        assert_eq!(net.stage_precisions(), vec![Precision::F32; 3]);
        assert_eq!(net.predict_all(&input), f32_logits, "f32 path restored");
    }

    #[test]
    fn param_count_is_exact() {
        let net = StagedNetwork::new(&tiny_config(), &mut seeded_rng(2));
        // Trunk: 4*6+6, 6*6+6, 6*5+5. Heads: 6*3+3, 6*3+3, 5*3+3.
        let expected = (4 * 6 + 6) + (6 * 6 + 6) + (6 * 5 + 5) + 2 * (6 * 3 + 3) + (5 * 3 + 3);
        assert_eq!(net.param_count(), expected);
    }

    #[test]
    fn skip_widens_later_stage_inputs() {
        let net = StagedNetwork::new(&skip_config(), &mut seeded_rng(3));
        // Stage 2's first linear must accept 6 (prev) + 4 (input) dims.
        // Trunk params: 4*6+6, (6+4)*6+6, (6+4)*5+5.
        let expected_trunk = (4 * 6 + 6) + (10 * 6 + 6) + (10 * 5 + 5);
        let heads = 2 * (6 * 3 + 3) + (5 * 3 + 3);
        assert_eq!(net.param_count(), expected_trunk + heads);
    }

    #[test]
    fn classify_runs_each_stage_once() {
        for config in [tiny_config(), skip_config()] {
            let net = StagedNetwork::new(&config, &mut seeded_rng(3));
            let outputs = net.classify(&[0.1, 0.2, 0.3, 0.4]);
            let stages: Vec<usize> = outputs.iter().map(|o| o.stage).collect();
            assert_eq!(stages, vec![0, 1, 2]);
        }
    }

    #[test]
    fn classify_agrees_with_batch_prediction() {
        for config in [tiny_config(), skip_config()] {
            let net = StagedNetwork::new(&config, &mut seeded_rng(4));
            let samples = [[0.5, -0.5, 0.25, 1.0], [-0.3, 0.9, 0.1, -0.6]];
            let rows: Vec<&[f32]> = samples.iter().map(|r| &r[..]).collect();
            let batch_logits = net.predict_all(&Matrix::from_rows(&rows));
            for (r, sample) in samples.iter().enumerate() {
                for (s, out) in net.classify(sample).iter().enumerate() {
                    let expected = softmax(batch_logits[s].row(r));
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&out.probs), bits(&expected), "sample {r}, stage {s}");
                }
            }
        }
    }

    #[test]
    fn stage_outputs_are_distributions() {
        let net = StagedNetwork::new(&tiny_config(), &mut seeded_rng(5));
        for out in net.classify(&[1.0, 2.0, 3.0, 4.0]) {
            assert!((out.probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            assert!(out.confidence >= 1.0 / 3.0 - 1e-6, "max prob at least 1/K");
            assert_eq!(out.predicted, argmax(&out.probs));
        }
    }

    #[test]
    fn backward_produces_input_gradient_matching_finite_differences() {
        for config in [tiny_config(), skip_config()] {
            let mut net = StagedNetwork::new(&config, &mut seeded_rng(6));
            let x = Matrix::from_rows(&[&[0.2, -0.4, 0.6, 0.1]]);
            // Scalar objective: sum of all stage logits.
            let logits = net.forward_train(&x);
            let grads: Vec<Matrix> = logits
                .iter()
                .map(|l| Matrix::filled(l.rows(), l.cols(), 1.0))
                .collect();
            let grad_in = net.backward(&grads);
            let objective = |net: &StagedNetwork, x: &Matrix| -> f32 {
                net.predict_all(x).iter().map(Matrix::sum).sum()
            };
            let eps = 1e-3;
            for c in 0..4 {
                let mut plus = x.clone();
                plus[(0, c)] += eps;
                let mut minus = x.clone();
                minus[(0, c)] -= eps;
                let numeric = (objective(&net, &plus) - objective(&net, &minus)) / (2.0 * eps);
                assert!(
                    (grad_in[(0, c)] - numeric).abs() < 2e-2,
                    "skip={}: input grad (0,{c}): analytic {} vs numeric {numeric}",
                    config.input_skip,
                    grad_in[(0, c)]
                );
            }
        }
    }

    #[test]
    fn visit_params_is_stable_and_complete() {
        let mut net = StagedNetwork::new(&skip_config(), &mut seeded_rng(7));
        let mut total = 0;
        net.visit_params(&mut |p, _| total += p.len());
        assert_eq!(total, net.param_count());
    }

    #[test]
    #[should_panic(expected = "sample dimension")]
    fn wrong_input_dim_panics() {
        let net = StagedNetwork::new(&tiny_config(), &mut seeded_rng(8));
        net.classify(&[1.0]);
    }

    #[test]
    fn stochastic_prediction_differs_with_dropout() {
        let config = StagedNetworkConfig {
            dropout: 0.4,
            ..tiny_config()
        };
        let net = StagedNetwork::new(&config, &mut seeded_rng(9));
        let x = Matrix::from_rows(&[&[1.0, 1.0, 1.0, 1.0]]);
        let mut rng = seeded_rng(10);
        let a = net.predict_stochastic(&x, &mut rng);
        let b = net.predict_stochastic(&x, &mut rng);
        assert_ne!(a[2], b[2], "MC passes should differ at the deepest head");
        // Deterministic inference is stable.
        assert_eq!(net.predict_all(&x), net.predict_all(&x));
    }

    #[test]
    fn stage_activations_match_predict_all_via_heads() {
        let net = StagedNetwork::new(&skip_config(), &mut seeded_rng(11));
        let x = Matrix::from_rows(&[&[0.3, 0.1, -0.7, 0.9], &[1.0, 0.0, 0.0, -1.0]]);
        let acts = net.stage_activations(&x);
        let logits = net.predict_all(&x);
        for (s, act) in acts.iter().enumerate() {
            let via_head = net.heads()[s].infer(act);
            assert_eq!(via_head, logits[s]);
        }
    }
}
