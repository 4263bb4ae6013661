use crate::Layer;
use eugene_tensor::{xavier_uniform, Matrix, PackedRhs, Precision, QuantizedRhs};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// The packed weights a compiled plan multiplies with: a shared handle
/// to the pack its layer owns, so every plan shape of a layer — and
/// every clone of its network — reads one copy of the panels.
pub(crate) enum WeightPack {
    F32(Arc<PackedRhs>),
    Int8(Arc<QuantizedRhs>),
}

/// A fully connected layer: `y = x W + b`.
///
/// Weights are `in_dim x out_dim` so a `batch x in_dim` activation matrix
/// multiplies on the left.
///
/// # Examples
///
/// ```
/// use eugene_nn::{Layer, Linear};
/// use eugene_tensor::{seeded_rng, Matrix};
///
/// let layer = Linear::new(3, 2, &mut seeded_rng(0));
/// let out = layer.infer(&Matrix::zeros(4, 3));
/// assert_eq!(out.shape(), (4, 2));
/// ```
/// # Precision
///
/// A layer normally runs f32 kernels. [`Linear::set_precision`] with
/// [`Precision::Int8`] packs the weights into a [`QuantizedRhs`] once;
/// inference then runs the i8 GEMM tier (activations quantized per row
/// on the fly). An f32 layer packs its GEMM panels ([`PackedRhs`]) the
/// first time a stage plan is compiled over it. Both packs are
/// serving-time state: never serialized (rebuilt after load), shared —
/// not rebuilt — by `Clone`, and dropped by any weight mutation.
/// Training always uses the f32 weights.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    weights: Matrix,
    bias: Matrix,
    /// Empty (`0 x 0`) after [`Linear::release_training_state`];
    /// `backward`/`visit_params` re-materialise zeroed buffers.
    grad_weights: Matrix,
    grad_bias: Matrix,
    #[serde(skip)]
    cached_input: Option<Matrix>,
    /// Packed quantized weights when serving at `Precision::Int8`;
    /// shared so cloning a serving network does not repack.
    #[serde(skip)]
    quantized: Option<Arc<QuantizedRhs>>,
    /// Pre-packed f32 panels, built by the first plan compiled over
    /// this layer and borrowed by every plan after it.
    #[serde(skip)]
    packed: OnceLock<Arc<PackedRhs>>,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "layer dimensions must be positive"
        );
        Self {
            weights: xavier_uniform(in_dim, out_dim, rng),
            bias: Matrix::zeros(1, out_dim),
            grad_weights: Matrix::zeros(in_dim, out_dim),
            grad_bias: Matrix::zeros(1, out_dim),
            cached_input: None,
            quantized: None,
            packed: OnceLock::new(),
        }
    }

    /// Creates a layer from explicit weights and bias.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x weights.cols()`.
    pub fn from_parts(weights: Matrix, bias: Matrix) -> Self {
        assert_eq!(
            bias.shape(),
            (1, weights.cols()),
            "bias must be 1x{} (got {}x{})",
            weights.cols(),
            bias.rows(),
            bias.cols()
        );
        let (in_dim, out_dim) = weights.shape();
        Self {
            weights,
            bias,
            grad_weights: Matrix::zeros(in_dim, out_dim),
            grad_bias: Matrix::zeros(1, out_dim),
            cached_input: None,
            quantized: None,
            packed: OnceLock::new(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The weight matrix (`in_dim x out_dim`).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The bias row vector (`1 x out_dim`).
    pub fn bias(&self) -> &Matrix {
        &self.bias
    }

    /// Mutable weight access, used by pruning. Drops both weight packs:
    /// a pack built from the old weights would silently serve stale
    /// parameters.
    pub fn weights_mut(&mut self) -> &mut Matrix {
        self.drop_packs();
        &mut self.weights
    }

    /// The one place a weight pack is dropped.
    fn drop_packs(&mut self) {
        self.quantized = None;
        self.packed.take();
    }

    /// Mutable bias access, used by pruning.
    pub fn bias_mut(&mut self) -> &mut Matrix {
        &mut self.bias
    }

    /// The precision this layer serves at: [`Precision::Int8`] when a
    /// quantized weight pack is installed, [`Precision::F32`] otherwise.
    pub fn precision(&self) -> Precision {
        if self.quantized.is_some() {
            Precision::Int8
        } else {
            Precision::F32
        }
    }

    /// The installed quantized weight pack, if serving at i8 — e.g. for
    /// reporting its packed footprint.
    pub fn quantized_pack(&self) -> Option<&QuantizedRhs> {
        self.quantized.as_deref()
    }

    /// The f32 panel pack, once a plan has been compiled over this
    /// layer (and until the next weight mutation).
    pub fn packed_weights(&self) -> Option<&Arc<PackedRhs>> {
        self.packed.get()
    }

    /// A shared handle to the pack this layer serves with: the Int8
    /// pack when installed, otherwise the f32 panels — packed here, on
    /// first request, and nowhere else. Concurrent first requests pack
    /// once. The stage compiler embeds the handle in its plans, so a
    /// compiled dispatch multiplies with the layer's own panels.
    pub(crate) fn serving_pack(&self) -> WeightPack {
        match &self.quantized {
            Some(q) => WeightPack::Int8(Arc::clone(q)),
            None => WeightPack::F32(Arc::clone(
                self.packed
                    .get_or_init(|| Arc::new(self.weights.prepacked_rhs())),
            )),
        }
    }

    /// Switches the serving precision. `Int8` packs the current weights
    /// into the quantized GEMM layout (a no-op if already packed) and
    /// drops the f32 panels it no longer multiplies with; `F32` drops
    /// the Int8 pack. Training is unaffected either way — gradients
    /// always flow through the f32 weights.
    pub fn set_precision(&mut self, precision: Precision) {
        match precision {
            Precision::F32 => self.quantized = None,
            Precision::Int8 => {
                if self.quantized.is_none() {
                    self.drop_packs();
                    self.quantized = Some(Arc::new(self.weights.quantized_rhs()));
                }
            }
        }
    }

    /// Frees what only training reads — the gradient accumulators (a
    /// second full copy of the weights) and the cached forward input —
    /// for a model that is published for serving. Training it again
    /// still works: the buffers come back zeroed on demand.
    pub fn release_training_state(&mut self) {
        self.grad_weights = Matrix::zeros(0, 0);
        self.grad_bias = Matrix::zeros(0, 0);
        self.cached_input = None;
    }

    fn ensure_grads(&mut self) {
        if self.grad_weights.shape() != self.weights.shape() {
            self.grad_weights = Matrix::zeros(self.in_dim(), self.out_dim());
            self.grad_bias = Matrix::zeros(1, self.out_dim());
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        self.cached_input = Some(input.clone());
        self.infer(input)
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        self.ensure_grads();
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward on Linear");
        // dW = x^T g, accumulated so multi-head trunks can sum head grads.
        self.grad_weights += &input.t_matmul(grad_output);
        self.grad_bias += &Matrix::row_vector(&grad_output.sum_rows());
        grad_output.matmul_t(&self.weights)
    }

    fn infer(&self, input: &Matrix) -> Matrix {
        let mut out = match &self.quantized {
            Some(q) => input.matmul_quantized(q),
            None => input.matmul(&self.weights),
        };
        out.add_row_broadcast(self.bias.row(0));
        out
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        // The optimizer mutates weights through this hook, so both
        // packs are stale afterwards.
        self.drop_packs();
        self.ensure_grads();
        visitor(&mut self.weights, &mut self.grad_weights);
        visitor(&mut self.bias, &mut self.grad_bias);
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn describe(&self) -> String {
        format!("linear {}->{}", self.in_dim(), self.out_dim())
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eugene_tensor::seeded_rng;

    #[test]
    fn forward_applies_weights_and_bias() {
        let weights = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let bias = Matrix::row_vector(&[0.5, -0.5]);
        let layer = Linear::from_parts(weights, bias);
        let out = layer.infer(&Matrix::from_rows(&[&[3.0, 4.0]]));
        assert_eq!(out, Matrix::from_rows(&[&[3.5, 7.5]]));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = seeded_rng(1);
        let mut layer = Linear::new(3, 2, &mut rng);
        let input = Matrix::from_rows(&[&[0.3, -0.7, 0.2], &[1.1, 0.4, -0.5]]);
        // Loss = sum(output), so dL/doutput = ones.
        let ones = Matrix::filled(2, 2, 1.0);
        layer.forward(&input);
        let grad_in = layer.backward(&ones);

        let eps = 1e-3;
        // Check input gradient at a couple of coordinates.
        for &(r, c) in &[(0usize, 0usize), (1, 2)] {
            let mut plus = input.clone();
            plus[(r, c)] += eps;
            let mut minus = input.clone();
            minus[(r, c)] -= eps;
            let f_plus = layer.infer(&plus).sum();
            let f_minus = layer.infer(&minus).sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            assert!(
                (grad_in[(r, c)] - numeric).abs() < 1e-2,
                "input grad ({r},{c}): analytic {} vs numeric {numeric}",
                grad_in[(r, c)]
            );
        }

        // Check a weight gradient coordinate.
        let analytic = {
            let mut found = None;
            layer.visit_params(&mut |_p, g| {
                if found.is_none() {
                    found = Some(g[(1, 0)]);
                }
            });
            found.unwrap()
        };
        let numeric = {
            let mut plus = layer.clone();
            plus.weights_mut()[(1, 0)] += eps;
            let mut minus = layer.clone();
            minus.weights_mut()[(1, 0)] -= eps;
            (plus.infer(&input).sum() - minus.infer(&input).sum()) / (2.0 * eps)
        };
        assert!(
            (analytic - numeric).abs() < 1e-2,
            "weight grad: analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn gradients_accumulate_across_backward_calls() {
        let mut rng = seeded_rng(2);
        let mut layer = Linear::new(2, 2, &mut rng);
        let input = Matrix::identity(2);
        let g = Matrix::filled(2, 2, 1.0);
        layer.forward(&input);
        layer.backward(&g);
        let mut first = Matrix::zeros(2, 2);
        layer.visit_params(&mut |_p, grad| {
            if grad.shape() == (2, 2) {
                first = grad.clone();
            }
        });
        layer.forward(&input);
        layer.backward(&g);
        layer.visit_params(&mut |_p, grad| {
            if grad.shape() == (2, 2) {
                assert_eq!(grad.as_slice()[0], 2.0 * first.as_slice()[0]);
            }
        });
    }

    #[test]
    fn param_count_counts_weights_and_bias() {
        let layer = Linear::new(3, 4, &mut seeded_rng(3));
        assert_eq!(layer.param_count(), 3 * 4 + 4);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut layer = Linear::new(2, 2, &mut seeded_rng(4));
        layer.backward(&Matrix::zeros(1, 2));
    }

    #[test]
    fn describe_mentions_shape() {
        let layer = Linear::new(8, 16, &mut seeded_rng(5));
        assert_eq!(layer.describe(), "linear 8->16");
    }

    #[test]
    fn quantized_inference_tracks_f32() {
        let mut rng = seeded_rng(6);
        let mut layer = Linear::new(17, 9, &mut rng);
        let input = xavier_uniform(5, 17, &mut rng);
        let f32_out = layer.infer(&input);
        assert_eq!(layer.precision(), Precision::F32);

        layer.set_precision(Precision::Int8);
        assert_eq!(layer.precision(), Precision::Int8);
        let q_out = layer.infer(&input);
        assert_eq!(q_out.shape(), f32_out.shape());
        for (q, f) in q_out.as_slice().iter().zip(f32_out.as_slice()) {
            assert!((q - f).abs() < 0.05, "quantized output drifted: {q} vs {f}");
        }

        layer.set_precision(Precision::F32);
        assert_eq!(layer.infer(&input), f32_out, "f32 path restored bitwise");
    }

    #[test]
    fn weight_mutation_invalidates_quantized_pack() {
        let mut rng = seeded_rng(7);
        let mut layer = Linear::new(4, 3, &mut rng);
        layer.set_precision(Precision::Int8);
        layer.weights_mut()[(0, 0)] += 1.0;
        assert_eq!(
            layer.precision(),
            Precision::F32,
            "stale pack must be dropped on weight mutation"
        );

        layer.set_precision(Precision::Int8);
        layer.visit_params(&mut |_p, _g| {});
        assert_eq!(
            layer.precision(),
            Precision::F32,
            "optimizer access drops the pack too"
        );
    }

    #[test]
    fn training_still_runs_f32_while_quantized() {
        let mut rng = seeded_rng(8);
        let mut plain = Linear::new(3, 2, &mut rng);
        let mut quant = plain.clone();
        quant.set_precision(Precision::Int8);
        let input = Matrix::from_rows(&[&[0.2, -0.4, 0.9]]);
        let g = Matrix::filled(1, 2, 1.0);
        plain.forward(&input);
        quant.forward(&input);
        let gi_plain = plain.backward(&g);
        let gi_quant = quant.backward(&g);
        assert_eq!(gi_plain, gi_quant, "backward is precision-independent");
    }
}
