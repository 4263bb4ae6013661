//! Property tests pinning the compiled-plan execution path to the
//! layer-walk path **bitwise**, across random architectures, batch
//! sizes, serving precisions, and kernel tiers.
//!
//! The contract (see `crates/nn/src/compile.rs`): a [`StagePlan`] may
//! fuse bias/relu into the GEMM epilogue, pre-pack weight panels, and
//! reuse arena buffers — but every output element must carry the exact
//! bits the unfused `Sequential::infer` + `Linear::infer` walk
//! produces. CI runs this suite twice, the second pass under
//! `EUGENE_SIMD=0`, so the ambient tier covers both the vectorized and
//! scalar kernels; the forced-scalar test below additionally pins the
//! scalar tier inside a single run.
//!
//! `simd_mode` is process-global, so tests that force it serialize on
//! [`mode_lock`] and restore the ambient mode.

use eugene_nn::{Activation, Layer, Linear, Sequential, StagedNetwork, StagedNetworkConfig};
use eugene_tensor::{
    seeded_rng, set_simd_mode, simd_mode, xavier_uniform, Matrix, Precision, SimdMode,
};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests around the process-global kernel-path override.
fn mode_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// Runs `body` with the kernel path forced to `mode`, restoring the
/// previous mode afterwards (panic-safe).
fn with_mode<R>(mode: SimdMode, body: impl FnOnce() -> R) -> R {
    let _guard = mode_lock();
    let before = simd_mode();
    set_simd_mode(mode);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    set_simd_mode(before);
    match result {
        Ok(r) => r,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// The unfused oracle: one stage of the layer walk, exactly as
/// `InferenceSession::next_stage` / `stage_activations` run it.
fn layer_walk_stage(
    net: &StagedNetwork,
    stage: usize,
    hidden: &Matrix,
    raw: &Matrix,
) -> (Matrix, Matrix) {
    let stage_in = if stage > 0 && net.input_skip() {
        hidden.hconcat(raw)
    } else {
        hidden.clone()
    };
    let h = net.stages()[stage].infer(&stage_in);
    let l = net.heads()[stage].infer(&h);
    (h, l)
}

fn assert_bitwise(a: &Matrix, b: &Matrix, what: &str) -> Result<(), proptest::CaseError> {
    prop_assert_eq!(a.shape(), b.shape(), "{}: shape mismatch", what);
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{}: element {} differs: {} vs {}",
            what,
            i,
            x,
            y
        );
    }
    Ok(())
}

/// Walks every stage of `net` through both paths over the same batch,
/// asserting bitwise-identical hidden activations and logits at every
/// stage boundary.
fn check_all_stages(net: &StagedNetwork, input: &Matrix) -> Result<(), proptest::CaseError> {
    let mut hidden = input.clone();
    for stage in 0..net.num_stages() {
        let plan = net
            .stage_plan(stage, input.rows())
            .expect("standard stages always compile");
        prop_assert!(
            plan.fused_gemm_steps() >= 2,
            "stage {} plan should fuse trunk and head GEMMs (got {})",
            stage,
            plan.fused_gemm_steps()
        );
        let (plan_h, plan_l) = plan.execute(net, &hidden, input);
        let (walk_h, walk_l) = layer_walk_stage(net, stage, &hidden, input);
        assert_bitwise(&plan_h, &walk_h, &format!("stage {stage} hidden"))?;
        assert_bitwise(&plan_l, &walk_l, &format!("stage {stage} logits"))?;
        // Second dispatch reuses the pooled arena — must be stable.
        let (again_h, again_l) = plan.execute(net, &hidden, input);
        assert_bitwise(
            &again_h,
            &plan_h,
            &format!("stage {stage} hidden redispatch"),
        )?;
        assert_bitwise(
            &again_l,
            &plan_l,
            &format!("stage {stage} logits redispatch"),
        )?;
        hidden = walk_h;
    }
    check_batch_of_one(net, input.row(0))
}

/// The serving path for a batch of one (`NetworkSession::next_stage` in
/// `eugene-service`) chains the `rows = 1` plans, feeding each stage the
/// plan's own hidden output. That chain must reproduce `classify` — the
/// layer-walk session — bitwise, stage by stage.
fn check_batch_of_one(net: &StagedNetwork, sample: &[f32]) -> Result<(), proptest::CaseError> {
    let raw = Matrix::row_vector(sample);
    let mut hidden = raw.clone();
    for want in net.classify(sample) {
        let plan = net
            .stage_plan(want.stage, 1)
            .expect("standard stages compile");
        let (next, logits) = plan.execute(net, &hidden, &raw);
        let got = eugene_tensor::softmax(logits.row(0));
        prop_assert_eq!(got.len(), want.probs.len());
        for (g, w) in got.iter().zip(&want.probs) {
            prop_assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "stage {}: rows=1 plan chain vs classify: {} vs {}",
                want.stage,
                g,
                w
            );
        }
        hidden = next;
    }
    Ok(())
}

/// Random staged-network architectures: 1–3 stages, 1–2 layers each,
/// widths straddling the kernels' tile boundaries, optional dropout
/// (which inference elides) and input-skip shortcuts.
fn arch_strategy() -> impl Strategy<Value = (StagedNetworkConfig, u64, usize)> {
    (
        (
            2usize..12,
            2usize..5,
            proptest::collection::vec(proptest::collection::vec(1usize..24, 1..3), 1..4),
        ),
        (any::<bool>(), any::<bool>(), any::<u64>(), 1usize..9),
    )
        .prop_map(
            |((input_dim, classes, widths), (skip, dropout, seed, rows))| {
                (
                    StagedNetworkConfig {
                        input_dim,
                        num_classes: classes,
                        stage_widths: widths,
                        dropout: if dropout { 0.3 } else { 0.0 },
                        input_skip: skip,
                    },
                    seed,
                    rows,
                )
            },
        )
}

fn build(config: &StagedNetworkConfig, seed: u64, rows: usize) -> (StagedNetwork, Matrix) {
    let mut rng = seeded_rng(seed);
    let net = StagedNetwork::new(config, &mut rng);
    let input = xavier_uniform(rows, config.input_dim, &mut rng);
    (net, input)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// f32 plans, ambient kernel tier (vectorized in the default CI
    /// pass, scalar in the `EUGENE_SIMD=0` pass).
    #[test]
    fn compiled_plan_matches_layer_walk_bitwise_f32((config, seed, rows) in arch_strategy()) {
        let _guard = mode_lock();
        let (net, input) = build(&config, seed, rows);
        check_all_stages(&net, &input)?;
    }

    /// Int8 plans: a random subset of stages quantized. The plan embeds
    /// the layer's own quantized pack, so parity must hold bitwise.
    #[test]
    fn compiled_plan_matches_layer_walk_bitwise_int8(
        (config, seed, rows) in arch_strategy(),
        mask in any::<u8>(),
    ) {
        let _guard = mode_lock();
        let (mut net, input) = build(&config, seed, rows);
        let quantized: Vec<usize> =
            (0..net.num_stages()).filter(|s| mask & (1 << s) != 0).collect();
        net.quantize_stages(&quantized);
        for &s in &quantized {
            prop_assert_eq!(net.stage_precision(s), Precision::Int8);
            prop_assert_eq!(
                net.stage_plan(s, rows).unwrap().precision(),
                Precision::Int8,
                "plan must be compiled at the stage's serving precision"
            );
        }
        check_all_stages(&net, &input)?;
    }

    /// The scalar tier pinned explicitly, independent of the ambient
    /// mode: plans must not bake in a kernel path — a pack built under
    /// one tier is ignored (not misused) under another.
    #[test]
    fn forced_scalar_tier_keeps_parity((config, seed, rows) in arch_strategy()) {
        let (net, input) = build(&config, seed, rows);
        with_mode(SimdMode::ForceScalar, || check_all_stages(&net, &input))?;
    }

    /// A plan compiled under the ambient (possibly vectorized) tier and
    /// then executed under the scalar tier must still match the scalar
    /// layer walk: the pre-packed panels no longer match the active
    /// tier's geometry and must fall back to on-the-fly packing.
    #[test]
    fn plan_survives_tier_flip_bitwise((config, seed, rows) in arch_strategy()) {
        let _guard = mode_lock();
        let (net, input) = build(&config, seed, rows);
        // Compile (and warm) every plan under the ambient tier.
        for stage in 0..net.num_stages() {
            net.stage_plan(stage, rows).unwrap();
        }
        drop(_guard);
        with_mode(SimdMode::ForceScalar, || check_all_stages(&net, &input))?;
    }
}

/// Stages containing tanh activations cannot fold the activation into
/// the GEMM epilogue; the compiler must emit a separate elementwise
/// step and still match the walk bitwise.
#[test]
fn tanh_stage_compiles_with_unfused_elementwise_step() {
    let _guard = mode_lock();
    let mut rng = seeded_rng(42);
    let mut block = Sequential::new();
    block.push(Linear::new(6, 10, &mut rng));
    block.push(Activation::tanh());
    block.push(Linear::new(10, 7, &mut rng));
    block.push(Activation::relu());
    let head = Linear::new(7, 3, &mut rng);
    let net = StagedNetwork::from_parts(vec![block], vec![head], 6, 3, false);

    let plan = net.stage_plan(0, 5).expect("tanh stage compiles");
    // Trunk GEMM (bias fused, tanh split off) + trunk GEMM (bias+relu
    // fused) + head GEMM (bias fused) = 3 fused GEMMs + 1 elementwise.
    assert_eq!(plan.fused_gemm_steps(), 3);
    assert_eq!(plan.num_steps(), 4);

    let input = xavier_uniform(5, 6, &mut seeded_rng(43));
    let (plan_h, plan_l) = plan.execute(&net, &input, &input);
    let stage_in = input.clone();
    let walk_h = net.stages()[0].infer(&stage_in);
    let walk_l = net.heads()[0].infer(&walk_h);
    assert_eq!(plan_h, walk_h);
    assert_eq!(plan_l, walk_l);
    for (a, b) in plan_h.as_slice().iter().zip(walk_h.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// The graph builder's reference interpreter (no fusion, no arenas)
/// agrees with the layer walk — anchoring the IR itself, not just the
/// compiled plans, to the network semantics.
#[test]
fn stage_graph_reference_interpreter_matches_layer_walk() {
    let _guard = mode_lock();
    let config = StagedNetworkConfig {
        input_dim: 5,
        num_classes: 4,
        stage_widths: vec![vec![7], vec![6, 9]],
        dropout: 0.1,
        input_skip: true,
    };
    let mut rng = seeded_rng(7);
    let net = StagedNetwork::new(&config, &mut rng);
    let input = xavier_uniform(3, 5, &mut rng);

    let resolve = |layer: eugene_nn::LayerRef| -> (Matrix, Vec<f32>) {
        match layer {
            eugene_nn::LayerRef::Trunk { stage, layer } => {
                let lin = net.stages()[stage].layers()[layer]
                    .as_any()
                    .downcast_ref::<Linear>()
                    .unwrap();
                (lin.weights().clone(), lin.bias().row(0).to_vec())
            }
            eugene_nn::LayerRef::Head { stage } => {
                let lin = &net.heads()[stage];
                (lin.weights().clone(), lin.bias().row(0).to_vec())
            }
        }
    };

    let mut hidden = input.clone();
    for stage in 0..net.num_stages() {
        let graph = eugene_nn::compile::stage_graph(&net, stage).expect("builds");
        let outputs = graph.eval_reference(&hidden, &input, &resolve);
        assert_eq!(outputs.len(), 2, "hidden + logits outputs");
        let (walk_h, walk_l) = layer_walk_stage(&net, stage, &hidden, &input);
        assert_eq!(outputs[0], walk_h, "stage {stage} hidden via interpreter");
        assert_eq!(outputs[1], walk_l, "stage {stage} logits via interpreter");
        hidden = walk_h;
    }
}
