//! Kernel throughput bench: GFLOP/s of the kernel tiers — naive
//! reference, blocked scalar, SIMD f32 (AVX-512F/AVX2+FMA when the host
//! has them), and the quantized i8 tier — across matrix sizes and thread
//! counts, with the host's detected ISA recorded alongside the numbers.
//!
//! Regenerates `results/kernel_throughput.json`. Run with `--quick` for a
//! CI smoke pass over small sizes; quick mode still asserts a
//! conservative speedup floor so a silently de-vectorized build fails CI.
//!
//! `--fused` measures the compiled-plan serving path instead: one
//! 512-wide network stage dispatched at the serving micro-batch shape,
//! layer walk (per-dispatch planning, per-call weight packing, separate
//! bias/relu passes) vs compiled [`eugene_nn::StagePlan`] (pre-packed
//! panels, GEMM-epilogue fusion, arena-pooled intermediates). That the
//! f32 plan allocates nothing per dispatch after warm-up, and that a
//! second batch shape borrows the first's weight panels, is proved by
//! `crates/nn/tests/plan_allocations.rs`.
//!
//! `--roofline` asks how close the serving products come to the speed
//! the host can read memory at all. A product at m <= 8 reads every
//! packed weight once and does almost nothing else, so its ceiling is a
//! plain vector read loop over a working set of the same size. The
//! report puts the two side by side: stream-read GB/s (1 thread and
//! every core at once) and the effective weight GB/s of the pre-packed
//! f32 product and the i8 product at m in {1, 4, 8}, with the ratio per
//! row. That the vector kernels equal their portable twins bit for bit
//! at these shapes is `tests/kernel_contract.rs`'s check.

use eugene_bench::{check_flags, has_flag, host_cores, host_isa, print_table, write_json, HostIsa};
use eugene_nn::{Layer, StagedNetwork, StagedNetworkConfig};
use eugene_tensor::{
    seeded_rng, set_parallelism, set_simd_mode, standard_normal, AlignedVec, Matrix, PackedRhs,
    QuantizedRhs, SimdMode,
};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct KernelPoint {
    size: usize,
    threads: usize,
    /// Naive triple-loop reference (single-thread, measured once per size).
    gflops_reference: f64,
    /// Legacy cache-blocked scalar kernel (`EUGENE_SIMD=0` tier).
    gflops_scalar_blocked: f64,
    /// Explicit-SIMD f32 tier (portable fused twin off x86_64).
    gflops_simd: f64,
    /// Quantized i8 tier, in GFLOP/s-equivalent (same 2n^3 op count).
    gops_quantized: f64,
    simd_vs_scalar: f64,
    quant_vs_simd: f64,
}

/// The fused-serving comparison: per-dispatch stage execution through
/// the layer walk vs the compiled plan, at the serving micro-batch
/// shape (single thread — the per-worker view).
#[derive(Serialize)]
struct FusedServingPoint {
    /// Hidden width of the benchmarked stage (weights are `dim x dim`).
    dim: usize,
    /// Micro-batch rows per dispatch.
    rows: usize,
    /// Layer-walk dispatches per second, f32.
    unfused_dispatch_hz_f32: f64,
    /// Compiled-plan dispatches per second, f32.
    fused_dispatch_hz_f32: f64,
    /// The headline ratio the CI gate floors.
    fused_vs_unfused_f32: f64,
    /// Layer-walk dispatches per second, Int8 trunk.
    unfused_dispatch_hz_int8: f64,
    /// Compiled-plan dispatches per second, Int8 trunk.
    fused_dispatch_hz_int8: f64,
    fused_vs_unfused_int8: f64,
    /// Steps in the compiled stage plan (after fusion).
    plan_steps: usize,
}

/// Plain vector read bandwidth of the host, the ceiling for a product
/// that touches every weight once.
#[derive(Serialize)]
struct StreamPoint {
    /// Threads reading at once, each over its own buffer.
    threads: usize,
    /// GB/s one thread reads while `threads` run (10^9 bytes).
    gb_per_s_per_thread: f64,
}

/// One serving-shaped product against the stream-read ceiling measured
/// at the same thread count.
#[derive(Serialize)]
struct RooflineRow {
    /// Weight shape `k x n` and batch rows `m`.
    k: usize,
    n: usize,
    m: usize,
    /// Threads running the product at once, each on pack copies of
    /// its own.
    threads: usize,
    /// Pre-packed f32 product: time per call on one thread, weight
    /// bytes (`k*n*4`) over that time, and that rate over the stream
    /// rate.
    f32_us: f64,
    f32_gb_per_s: f64,
    f32_vs_stream: f64,
    /// The same for the i8 product (`k*n` weight bytes).
    i8_us: f64,
    i8_gb_per_s: f64,
    i8_vs_stream: f64,
}

#[derive(Serialize)]
struct Roofline {
    /// Bytes each stream thread reads per pass, and the least the
    /// weight copies a product rotates through add up to — larger than
    /// a core's private caches, as a served model's panels are.
    working_set_bytes: usize,
    stream: Vec<StreamPoint>,
    rows: Vec<RooflineRow>,
}

#[derive(Serialize)]
struct KernelThroughputDoc {
    quick: bool,
    /// `available_parallelism` of the machine that produced the numbers.
    host_cores: usize,
    isa: HostIsa,
    sizes: Vec<usize>,
    threads: Vec<usize>,
    points: Vec<KernelPoint>,
    /// Compiled-plan serving path vs the layer walk (see
    /// [`FusedServingPoint`]); absent in docs written before the stage
    /// compiler existed.
    fused: Option<FusedServingPoint>,
    /// Serving products against the host's stream-read bandwidth (see
    /// [`Roofline`]); absent in docs written before it was measured.
    roofline: Option<Roofline>,
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = seeded_rng(seed);
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| standard_normal(&mut rng))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Times `op` over enough repetitions to exceed the measurement target
/// and returns GFLOP/s for an `n^3` product (2*n^3 flops per multiply).
fn gflops(n: usize, quick: bool, op: impl Fn() -> Matrix) -> f64 {
    let flops = 2.0 * (n as f64).powi(3);
    // Warm up (page in the pool, fill caches).
    let sink = op();
    std::hint::black_box(sink.as_slice()[0]);
    let target = if quick { 0.01 } else { 0.08 };
    let mut reps = 0u32;
    let start = Instant::now();
    loop {
        let out = op();
        std::hint::black_box(out.as_slice()[0]);
        reps += 1;
        if start.elapsed().as_secs_f64() >= target {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    flops * f64::from(reps) / secs / 1e9
}

/// Times a dispatch closure in dispatches/sec. Unlike [`gflops`] the
/// closure returns nothing, so a non-allocating dispatch path stays
/// non-allocating through the measurement loop.
fn dispatch_hz(quick: bool, mut dispatch: impl FnMut()) -> f64 {
    dispatch(); // warm up
    let target = if quick { 0.02 } else { 0.15 };
    let mut reps = 0u32;
    let start = Instant::now();
    loop {
        dispatch();
        reps += 1;
        if start.elapsed().as_secs_f64() >= target {
            break;
        }
    }
    f64::from(reps) / start.elapsed().as_secs_f64()
}

fn assert_bitwise(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: fused dispatch diverged from the layer walk: {x} vs {y}"
        );
    }
}

/// Benchmarks one serving dispatch of a 512-wide stage at micro-batch
/// rows = 8, single thread: layer walk vs compiled plan, f32 and Int8.
fn fused_serving_bench(quick: bool) -> FusedServingPoint {
    const DIM: usize = 512;
    const ROWS: usize = 8;
    set_parallelism(1);
    set_simd_mode(SimdMode::Auto);
    let config = StagedNetworkConfig {
        input_dim: DIM,
        num_classes: 10,
        stage_widths: vec![vec![DIM]],
        dropout: 0.0,
        input_skip: false,
    };
    let mut net = StagedNetwork::new(&config, &mut seeded_rng(0xF5));
    let input = random_matrix(ROWS, DIM, 0xBEEF);

    // The layer walk: per-dispatch intermediates, per-call weight
    // packing, bias and relu as separate passes.
    let walk = |net: &StagedNetwork| {
        let h = net.stages()[0].infer(&input);
        let l = net.heads()[0].infer(&h);
        (h, l)
    };
    let unfused_f32 = dispatch_hz(quick, || {
        let (h, l) = walk(&net);
        std::hint::black_box((h.as_slice()[0], l.as_slice()[0]));
    });

    let plan = net.stage_plan(0, ROWS).expect("bench stage compiles");
    let plan_steps = plan.num_steps();
    let mut out_h = Matrix::zeros(0, 0);
    let mut out_l = Matrix::zeros(0, 0);
    // Warm the arena and output buffers, and pin the parity contract
    // right here in the bench: fused == walk, bitwise.
    plan.execute_into(&net, &input, &input, &mut out_h, &mut out_l);
    let (walk_h, walk_l) = walk(&net);
    assert_bitwise(&out_h, &walk_h, "f32 hidden");
    assert_bitwise(&out_l, &walk_l, "f32 logits");

    let fused_f32 = dispatch_hz(quick, || {
        plan.execute_into(&net, &input, &input, &mut out_h, &mut out_l);
        std::hint::black_box((out_h.as_slice()[0], out_l.as_slice()[0]));
    });

    // Int8 trunk: the plan embeds the layer's own quantized pack.
    drop(plan);
    net.quantize_stages(&[0]);
    let unfused_int8 = dispatch_hz(quick, || {
        let (h, l) = walk(&net);
        std::hint::black_box((h.as_slice()[0], l.as_slice()[0]));
    });
    let qplan = net.stage_plan(0, ROWS).expect("int8 stage compiles");
    assert_eq!(qplan.precision(), eugene_tensor::Precision::Int8);
    qplan.execute_into(&net, &input, &input, &mut out_h, &mut out_l);
    let (walk_h, walk_l) = walk(&net);
    assert_bitwise(&out_h, &walk_h, "int8 hidden");
    assert_bitwise(&out_l, &walk_l, "int8 logits");
    let fused_int8 = dispatch_hz(quick, || {
        qplan.execute_into(&net, &input, &input, &mut out_h, &mut out_l);
        std::hint::black_box((out_h.as_slice()[0], out_l.as_slice()[0]));
    });

    FusedServingPoint {
        dim: DIM,
        rows: ROWS,
        unfused_dispatch_hz_f32: unfused_f32,
        fused_dispatch_hz_f32: fused_f32,
        fused_vs_unfused_f32: fused_f32 / unfused_f32,
        unfused_dispatch_hz_int8: unfused_int8,
        fused_dispatch_hz_int8: fused_int8,
        fused_vs_unfused_int8: fused_int8 / unfused_int8,
        plan_steps,
    }
}

/// Prints the fused comparison and enforces the serving-path floor:
/// fused must beat the layer walk (>= 1.15x in the full run, >= 1.0x
/// in the timing-noise-prone quick pass).
fn report_fused(point: &FusedServingPoint, quick: bool) {
    print_table(
        "compiled-plan serving dispatch vs layer walk (single thread)",
        &[
            "dim",
            "rows",
            "walk f32/s",
            "plan f32/s",
            "ratio",
            "walk i8/s",
            "plan i8/s",
            "ratio",
        ],
        &[vec![
            format!("{}", point.dim),
            format!("{}", point.rows),
            format!("{:.0}", point.unfused_dispatch_hz_f32),
            format!("{:.0}", point.fused_dispatch_hz_f32),
            format!("{:.2}x", point.fused_vs_unfused_f32),
            format!("{:.0}", point.unfused_dispatch_hz_int8),
            format!("{:.0}", point.fused_dispatch_hz_int8),
            format!("{:.2}x", point.fused_vs_unfused_int8),
        ]],
    );
    let floor = if quick { 1.0 } else { 1.15 };
    assert!(
        point.fused_vs_unfused_f32 >= floor,
        "fused serving floor: expected compiled plan >= {floor:.2}x layer walk \
         at {0}x{0} rows={1} single-thread f32, got {2:.2}x",
        point.dim,
        point.rows,
        point.fused_vs_unfused_f32
    );
}

const ROOFLINE_WORKING_SET: usize = 16 << 20;
const ROOFLINE_SHAPES: [(usize, usize); 3] = [(256, 512), (512, 1024), (1024, 1024)];
const ROOFLINE_ROWS: [usize; 3] = [1, 4, 8];

/// Sums `buf` with the widest vector loads the host has, eight
/// independent accumulators deep so the adds never wait on each other.
fn stream_read(buf: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if eugene_tensor::avx512_available() {
            // SAFETY: AVX-512F was just detected.
            return unsafe { stream_read_avx512(buf) };
        }
        if eugene_tensor::avx2_fma_available() {
            // SAFETY: AVX2 was just detected.
            return unsafe { stream_read_avx2(buf) };
        }
    }
    buf.iter().sum()
}

/// # Safety
///
/// Requires avx512f; `buf` must start 64-byte aligned with a length
/// that is a multiple of 128.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn stream_read_avx512(buf: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    assert!(buf.len().is_multiple_of(128) && (buf.as_ptr() as usize).is_multiple_of(64));
    let mut acc = [_mm512_setzero_ps(); 8];
    for chunk in buf.chunks_exact(128) {
        for (lane, a) in acc.iter_mut().enumerate() {
            *a = _mm512_add_ps(*a, _mm512_load_ps(chunk.as_ptr().add(lane * 16)));
        }
    }
    let mut sum = acc[0];
    for a in &acc[1..] {
        sum = _mm512_add_ps(sum, *a);
    }
    _mm512_reduce_add_ps(sum)
}

/// # Safety
///
/// Requires avx2; `buf` must start 32-byte aligned with a length that
/// is a multiple of 64.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn stream_read_avx2(buf: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    assert!(buf.len().is_multiple_of(64) && (buf.as_ptr() as usize).is_multiple_of(32));
    let mut acc = [_mm256_setzero_ps(); 8];
    for chunk in buf.chunks_exact(64) {
        for (lane, a) in acc.iter_mut().enumerate() {
            *a = _mm256_add_ps(*a, _mm256_load_ps(chunk.as_ptr().add(lane * 8)));
        }
    }
    let mut sum = acc[0];
    for a in &acc[1..] {
        sum = _mm256_add_ps(sum, *a);
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
    lanes.iter().sum()
}

/// Runs one worker per thread, all released together, and returns the
/// mean seconds one call took on one thread. `worker(t)` builds thread
/// `t`'s closure (so it can own a reused output buffer); the closure
/// gets the call number.
fn seconds_per_call<W: FnMut(usize)>(
    threads: usize,
    quick: bool,
    worker: impl Fn(usize) -> W + Sync,
) -> f64 {
    let target = if quick { 0.02 } else { 0.25 };
    let barrier = std::sync::Barrier::new(threads);
    let per_thread: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (worker, barrier) = (&worker, &barrier);
                scope.spawn(move || {
                    let mut call = worker(t);
                    call(0); // warm up: page the buffers in
                    barrier.wait();
                    let start = Instant::now();
                    let mut calls = 0usize;
                    while start.elapsed().as_secs_f64() < target {
                        calls += 1;
                        call(calls);
                    }
                    start.elapsed().as_secs_f64() / calls as f64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("roofline thread panicked"))
            .collect()
    });
    per_thread.iter().sum::<f64>() / threads as f64
}

fn roofline_bench(quick: bool, host_cores: usize) -> Roofline {
    set_parallelism(1);
    set_simd_mode(SimdMode::Auto);
    // ROADMAP aim 1: no multi-thread number from a host that cannot run
    // the threads side by side.
    let thread_counts: Vec<usize> = if host_cores > 1 {
        vec![1, host_cores]
    } else {
        println!("roofline: host has 1 core, refusing the multi-thread column");
        vec![1]
    };

    let floats = ROOFLINE_WORKING_SET / 4;
    let buffers: Vec<AlignedVec<f32>> = (0..host_cores)
        .map(|t| {
            let mut buf = AlignedVec::zeroed(floats);
            buf.as_mut_slice().fill(t as f32 + 0.5);
            buf
        })
        .collect();
    let stream: Vec<StreamPoint> = thread_counts
        .iter()
        .map(|&threads| {
            let secs = seconds_per_call(threads, quick, |t| {
                let buf = buffers[t].as_slice();
                move |_| {
                    std::hint::black_box(stream_read(std::hint::black_box(buf)));
                }
            });
            StreamPoint {
                threads,
                gb_per_s_per_thread: ROOFLINE_WORKING_SET as f64 / secs / 1e9,
            }
        })
        .collect();
    drop(buffers);

    let mut rows = Vec::new();
    for &(k, n) in &ROOFLINE_SHAPES {
        let w = random_matrix(k, n, 0xB0 + n as u64);
        // A served model's panels do not stay in a core's caches from
        // one dispatch to the next; rotate through enough copies of the
        // pack that these do not either. Every thread gets copies of
        // its own: threads sharing a rotation fall into step, the one
        // behind reading what the one ahead just pulled in.
        let copies = |bytes: usize| ROOFLINE_WORKING_SET.div_ceil(bytes).max(2);
        let (f32_copies, i8_copies) = (copies(k * n * 4), copies(k * n));
        let packs: Vec<PackedRhs> = (0..f32_copies * host_cores)
            .map(|_| w.prepacked_rhs())
            .collect();
        let qpacks: Vec<QuantizedRhs> = (0..i8_copies * host_cores)
            .map(|_| w.quantized_rhs())
            .collect();
        for &m in &ROOFLINE_ROWS {
            let x = random_matrix(m, k, 0xC0 + m as u64);
            for (&threads, ceiling) in thread_counts.iter().zip(&stream) {
                let (x, w) = (&x, &w);
                let f32_secs = seconds_per_call(threads, quick, |t| {
                    let mine = &packs[t * f32_copies..][..f32_copies];
                    let mut out = Matrix::zeros(0, 0);
                    move |call| {
                        let pack = Some(&mine[call % mine.len()]);
                        x.matmul_epilogue_into(w, pack, None, false, &mut out);
                        std::hint::black_box(out.as_slice()[0]);
                    }
                });
                let i8_secs = seconds_per_call(threads, quick, |t| {
                    let mine = &qpacks[t * i8_copies..][..i8_copies];
                    let mut out = Matrix::zeros(0, 0);
                    move |call| {
                        let pack = &mine[call % mine.len()];
                        x.matmul_quantized_epilogue_into(pack, None, false, &mut out);
                        std::hint::black_box(out.as_slice()[0]);
                    }
                });
                let f32_gb_per_s = (k * n * 4) as f64 / f32_secs / 1e9;
                let i8_gb_per_s = (k * n) as f64 / i8_secs / 1e9;
                rows.push(RooflineRow {
                    k,
                    n,
                    m,
                    threads,
                    f32_us: f32_secs * 1e6,
                    f32_gb_per_s,
                    f32_vs_stream: f32_gb_per_s / ceiling.gb_per_s_per_thread,
                    i8_us: i8_secs * 1e6,
                    i8_gb_per_s,
                    i8_vs_stream: i8_gb_per_s / ceiling.gb_per_s_per_thread,
                });
            }
        }
    }
    set_parallelism(0);
    Roofline {
        working_set_bytes: ROOFLINE_WORKING_SET,
        stream,
        rows,
    }
}

fn report_roofline(roofline: &Roofline) {
    print_table(
        "stream read, 16 MiB per thread (load + add)",
        &["threads", "GB/s per thread"],
        &roofline
            .stream
            .iter()
            .map(|p| {
                vec![
                    format!("{}", p.threads),
                    format!("{:.2}", p.gb_per_s_per_thread),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        "serving products vs stream read (weight bytes / time, per thread)",
        &[
            "k x n",
            "m",
            "threads",
            "f32 us",
            "f32 GB/s",
            "f32/stream",
            "i8 us",
            "i8 GB/s",
            "i8/stream",
        ],
        &roofline
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}x{}", r.k, r.n),
                    format!("{}", r.m),
                    format!("{}", r.threads),
                    format!("{:.1}", r.f32_us),
                    format!("{:.2}", r.f32_gb_per_s),
                    format!("{:.2}", r.f32_vs_stream),
                    format!("{:.1}", r.i8_us),
                    format!("{:.2}", r.i8_gb_per_s),
                    format!("{:.2}", r.i8_vs_stream),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn main() {
    check_flags(&["--quick", "--roofline", "--fused"]);
    let quick = has_flag("--quick");
    if has_flag("--roofline") {
        // Report only: no JSON rewrite.
        report_roofline(&roofline_bench(quick, host_cores()));
        return;
    }
    if has_flag("--fused") {
        // Fused-serving gate only: no tier sweep, no JSON rewrite.
        let point = fused_serving_bench(quick);
        report_fused(&point, quick);
        set_simd_mode(SimdMode::Auto);
        set_parallelism(0);
        return;
    }
    let host_cores = host_cores();
    let sizes: Vec<usize> = if quick {
        vec![64, 128]
    } else {
        vec![64, 128, 256, 512]
    };
    let threads: Vec<usize> = if quick { vec![1, 2] } else { vec![1, 2, 4] };
    let isa = host_isa();

    println!(
        "kernel_throughput: host has {host_cores} core(s), f32 tier {}, i8 tier {}",
        isa.tier, isa.quant_tier
    );
    let mut points = Vec::new();
    let mut rows = Vec::new();
    for &n in &sizes {
        let a = random_matrix(n, n, 0xA5 + n as u64);
        let b = random_matrix(n, n, 0x5A + n as u64);
        // Weights are packed once at deploy time; only the activation
        // quantization and the i8 kernel are on the serving path.
        let packed = b.quantized_rhs();
        set_parallelism(1);
        set_simd_mode(SimdMode::ForceScalar);
        let reference = gflops(n, quick, || a.matmul_reference(&b));
        for &t in &threads {
            set_parallelism(t);
            set_simd_mode(SimdMode::ForceScalar);
            let scalar = gflops(n, quick, || a.matmul(&b));
            set_simd_mode(SimdMode::ForceSimd);
            let simd = gflops(n, quick, || a.matmul(&b));
            let quant = gflops(n, quick, || a.matmul_quantized(&packed));
            let simd_vs_scalar = simd / scalar;
            let quant_vs_simd = quant / simd;
            rows.push(vec![
                format!("{n}"),
                format!("{t}"),
                format!("{reference:.2}"),
                format!("{scalar:.2}"),
                format!("{simd:.2}"),
                format!("{quant:.2}"),
                format!("{simd_vs_scalar:.2}x"),
                format!("{quant_vs_simd:.2}x"),
            ]);
            points.push(KernelPoint {
                size: n,
                threads: t,
                gflops_reference: reference,
                gflops_scalar_blocked: scalar,
                gflops_simd: simd,
                gops_quantized: quant,
                simd_vs_scalar,
                quant_vs_simd,
            });
        }
    }
    set_simd_mode(SimdMode::Auto);
    set_parallelism(0);

    print_table(
        "matmul GFLOP/s by kernel tier",
        &[
            "size", "threads", "naive", "scalar", "simd", "quant", "simd/sc", "q/simd",
        ],
        &rows,
    );

    if quick {
        // CI floor: catches a build whose SIMD tier silently fell back
        // to scalar (or whose quantized tier collapsed), without being
        // sensitive to small-size timing noise. Only meaningful where
        // the SIMD tier is actually vectorized.
        if isa.simd_active {
            let top = points
                .iter()
                .filter(|p| p.threads == 1)
                .max_by_key(|p| p.size)
                .expect("at least one single-thread point");
            assert!(
                top.simd_vs_scalar >= 1.5,
                "quick floor: expected SIMD >= 1.5x blocked scalar at {0}x{0}, got {1:.2}x",
                top.size,
                top.simd_vs_scalar
            );
            assert!(
                top.quant_vs_simd >= 0.5,
                "quick floor: quantized tier collapsed at {0}x{0}: {1:.2}x of SIMD",
                top.size,
                top.quant_vs_simd
            );
        }
        return;
    }

    let single_512 = points
        .iter()
        .find(|p| p.size == 512 && p.threads == 1)
        .expect("512x512 single-thread point");
    assert!(
        single_512.gflops_scalar_blocked / single_512.gflops_reference >= 2.0,
        "expected >= 2x blocked-scalar speedup over naive at 512x512, got {:.2}x",
        single_512.gflops_scalar_blocked / single_512.gflops_reference
    );
    if isa.simd_active {
        assert!(
            single_512.simd_vs_scalar >= 3.0,
            "expected SIMD >= 3x blocked scalar at 512x512 single-thread, got {:.2}x",
            single_512.simd_vs_scalar
        );
        assert!(
            single_512.quant_vs_simd >= 1.5,
            "expected quantized >= 1.5x SIMD f32 at 512x512 single-thread, got {:.2}x",
            single_512.quant_vs_simd
        );
    }
    // The compiled-plan serving path rides along in the full run so
    // `results/kernel_throughput.json` records the serving-dispatch
    // speedup next to the raw kernel tiers.
    let fused = fused_serving_bench(false);
    report_fused(&fused, false);
    let roofline = roofline_bench(false, host_cores);
    report_roofline(&roofline);
    set_simd_mode(SimdMode::Auto);
    set_parallelism(0);
    write_json(
        "kernel_throughput",
        &KernelThroughputDoc {
            quick,
            host_cores,
            isa,
            sizes,
            threads,
            points,
            fused: Some(fused),
            roofline: Some(roofline),
        },
    );
}
