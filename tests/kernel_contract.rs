//! The kernel contract the serving path leans on, at the shapes it
//! serves: batches of 1..=9 rows against weights wide enough to reach
//! the packed panel kernels (and their edge tiles, k-block tails and
//! software prefetch).
//!
//! - the pre-packed f32 product == the per-call-packed product == the
//!   ambient tier's oracle (the portable fused twin when the SIMD tier
//!   is active, the naive reference under `EUGENE_SIMD=0`);
//! - the i8 product on the ambient tier == the scalar quantized tier;
//! - a compiled plan chain at rows 1..=8 == `classify`, in f32 and with
//!   every stage Int8.
//!
//! All comparisons are bit for bit, on fixed seeds. `scripts/ci.sh`
//! runs this file twice: under auto-detection and with `EUGENE_SIMD=0`.

use eugene::nn::{StagedNetwork, StagedNetworkConfig};
use eugene::tensor::{
    seeded_rng, set_simd_mode, simd_active, simd_mode, softmax, standard_normal, Matrix, SimdMode,
};
use std::sync::{Mutex, MutexGuard};

const SHAPES: [(usize, usize); 3] = [(300, 70), (257, 1024), (1024, 96)];

/// The kernel-path override is process-global; every test here holds
/// this lock.
fn mode_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Runs `body` with the kernel path forced to `mode`, restoring the
/// ambient mode afterwards (panic-safe). Callers hold [`mode_lock`].
fn with_mode<R>(mode: SimdMode, body: impl FnOnce() -> R) -> R {
    let ambient = simd_mode();
    set_simd_mode(mode);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    set_simd_mode(ambient);
    result.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = seeded_rng(seed);
    let data = (0..rows * cols)
        .map(|_| standard_normal(&mut rng))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn assert_bitwise(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {idx}: {g} vs {w}"
        );
    }
}

#[test]
fn prepacked_f32_product_equals_per_call_packing_and_the_tier_oracle() {
    let _guard = mode_lock();
    for (k, n) in SHAPES {
        let w = random_matrix(k, n, 0x1400 + n as u64);
        let pack = w.prepacked_rhs();
        for m in 1..=9 {
            let x = random_matrix(m, k, 0x1500 + m as u64);
            let per_call = x.matmul(&w);
            let mut prepacked = Matrix::zeros(0, 0);
            x.matmul_epilogue_into(&w, Some(&pack), None, false, &mut prepacked);
            let oracle = if simd_active() {
                with_mode(SimdMode::ForcePortable, || x.matmul(&w))
            } else {
                x.matmul_reference(&w)
            };
            let what = format!("{m}x{k}x{n}");
            assert_bitwise(
                &prepacked,
                &per_call,
                &format!("{what} prepacked vs per-call"),
            );
            assert_bitwise(&per_call, &oracle, &format!("{what} per-call vs oracle"));
        }
    }
}

#[test]
fn i8_product_equals_the_scalar_quantized_tier() {
    let _guard = mode_lock();
    for (k, n) in SHAPES {
        let w = random_matrix(k, n, 0x1600 + n as u64);
        let pack = w.quantized_rhs();
        // Packed under the forced mode, so it carries the scalar layout.
        let scalar_pack = with_mode(SimdMode::ForceScalar, || w.quantized_rhs());
        for m in 1..=9 {
            let x = random_matrix(m, k, 0x1700 + m as u64);
            let fast = x.matmul_quantized(&pack);
            let scalar = with_mode(SimdMode::ForceScalar, || x.matmul_quantized(&scalar_pack));
            assert_bitwise(&fast, &scalar, &format!("{m}x{k}x{n} i8 vs scalar tier"));
        }
    }
}

/// Chains the `rows`-shaped plans of every stage over a batch and
/// checks each row against `classify` of that row alone.
fn assert_plan_chain_matches_classify(net: &StagedNetwork, batch: &Matrix, what: &str) {
    let rows = batch.rows();
    let want: Vec<_> = (0..rows).map(|r| net.classify(batch.row(r))).collect();
    let mut hidden = batch.clone();
    for stage in 0..net.num_stages() {
        let plan = net.stage_plan(stage, rows).expect("stage compiles");
        let (next, logits) = plan.execute(net, &hidden, batch);
        for (r, outputs) in want.iter().enumerate() {
            let got = softmax(logits.row(r));
            let want = &outputs[stage].probs;
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{what}: rows={rows} stage {stage} row {r}: {g} vs {w}"
                );
            }
        }
        hidden = next;
    }
}

#[test]
fn plan_chain_at_rows_1_to_8_equals_classify_in_f32_and_int8() {
    let _guard = mode_lock();
    // Wide enough that even a batch of one leaves the small-product
    // path (m*k*n > 32^3) and runs the panel kernels.
    let config = StagedNetworkConfig {
        input_dim: 200,
        num_classes: 10,
        stage_widths: vec![vec![192], vec![208], vec![176]],
        dropout: 0.0,
        input_skip: true,
    };
    let mut net = StagedNetwork::new(&config, &mut seeded_rng(0x14));
    let batches: Vec<Matrix> = (1..=8)
        .map(|rows| random_matrix(rows, config.input_dim, 0x1800 + rows as u64))
        .collect();
    for batch in &batches {
        assert_plan_chain_matches_classify(&net, batch, "f32");
    }
    net.quantize_stages(&[0, 1, 2]);
    for batch in &batches {
        assert_plan_chain_matches_classify(&net, batch, "all Int8");
    }
}
