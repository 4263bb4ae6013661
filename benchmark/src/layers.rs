//! Isolated per-layer measurements: single-thread loops calling one
//! layer's public functions directly, with the shapes of the workload's
//! model. They say what a layer costs when nothing else runs; the traced
//! pass says what it costs in the running system.

use crate::model::TrainedModel;
use crate::stack;
use crate::workload::{ModelKind, Workload};
use eugene_net::wire::{decode_frame, encode_frame, Frame, SubmitRequest, WireResponse};
use eugene_net::HashRing;
use eugene_nn::{Layer, StagedNetwork};
use eugene_sched::{RtDeepIot, Scheduler, TaskView};
use eugene_serve::{InferenceEngine, InferenceRequest, ServiceClass};
use eugene_service::StagedNetworkEngine;
use eugene_tensor::{Matrix, QuantizedRhs};
use rand::Rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time budget of one isolated measurement.
const BUDGET: Duration = Duration::from_millis(40);

/// Median duration of `f` in microseconds: at least five calls, then as
/// many as fit in [`BUDGET`].
fn median_us(mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy set-up
    let began = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (began.elapsed() < BUDGET && samples.len() < 10_000) {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    crate::measure::median(&mut samples)
}

fn random_matrix(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
    )
}

/// Chains the three compiled stage plans at `rows` rows, as the engine
/// does for a fused batch.
fn plan_chain(network: &StagedNetwork, raw: &Matrix) {
    let mut hidden = raw.clone();
    for stage in 0..network.num_stages() {
        let plan = network
            .stage_plan(stage, raw.rows())
            .expect("dense stages compile");
        let (next, logits) = plan.execute(network, &hidden, raw);
        black_box(logits);
        hidden = next;
    }
}

/// Every isolated metric, as `(name, value)`.
pub fn isolated(workload: &Workload, model: &TrainedModel) -> Vec<(&'static str, f64)> {
    let mut rng = eugene_tensor::seeded_rng(1);
    let mut out = Vec::new();
    let network = stack::network_copy(workload, model);
    let stages = network.num_stages();
    let dim = network.input_dim();

    // eugene-tensor: the model's widest layer.
    let width = match workload.model {
        ModelKind::Small => 64,
        ModelKind::Wide => 1024,
    };
    let weights = random_matrix(width, width, &mut rng);
    let quantized = QuantizedRhs::pack(width, width, weights.as_slice());
    for (rows, f32_name, i8_name) in [
        (1, "tensor.gemm_f32_r1_us", "tensor.gemm_i8_r1_us"),
        (8, "tensor.gemm_f32_r8_us", "tensor.gemm_i8_r8_us"),
    ] {
        let lhs = random_matrix(rows, width, &mut rng);
        out.push((
            f32_name,
            median_us(|| drop(black_box(lhs.matmul(&weights)))),
        ));
        out.push((
            i8_name,
            median_us(|| drop(black_box(lhs.matmul_quantized(&quantized)))),
        ));
    }
    // Computed from shapes, not measured: one multiply-add per weight per
    // request, and every weight of a stage read once per dispatch.
    let params: Vec<usize> = (0..stages)
        .map(|s| network.stages()[s].param_count() + network.heads()[s].param_count())
        .collect();
    let total_params: usize = params.iter().sum();
    out.push(("tensor.flops_per_req", 2.0 * total_params as f64));
    let bytes_per_weight = if workload.int8 { 1.0 } else { 4.0 };
    out.push((
        "tensor.weight_bytes_per_dispatch",
        total_params as f64 * bytes_per_weight / stages as f64,
    ));

    // eugene-nn: compiled plans at both precisions, and the layer walk.
    let f32_network = {
        let mut n = network.clone();
        n.quantize_stages(&[]);
        n
    };
    let i8_network = {
        let mut n = network.clone();
        n.quantize_stages(&(0..stages).collect::<Vec<_>>());
        n
    };
    let sample = model.test.sample(0);
    for (rows, f32_name, i8_name) in [
        (1, "nn.plan_exec_f32_r1_us", "nn.plan_exec_i8_r1_us"),
        (8, "nn.plan_exec_f32_r8_us", "nn.plan_exec_i8_r8_us"),
    ] {
        let raw = Matrix::from_vec(rows, dim, sample.repeat(rows));
        out.push((f32_name, median_us(|| plan_chain(&f32_network, &raw))));
        out.push((i8_name, median_us(|| plan_chain(&i8_network, &raw))));
    }
    out.push((
        "nn.walk_r1_us",
        median_us(|| drop(black_box(network.classify(sample)))),
    ));
    let raw8 = Matrix::from_vec(8, dim, sample.repeat(8));
    out.push((
        "nn.plan_compile_ms",
        median_us(|| {
            network.plan_cache().invalidate();
            for stage in 0..stages {
                black_box(network.stage_plan(stage, 8).expect("dense stages compile"));
            }
        }) / 1e3,
    ));
    // What a warmed server holds: one plan per stage and batch size 1..=8.
    let packed: usize = (0..stages)
        .flat_map(|s| (1..=8).map(move |rows| (s, rows)))
        .map(|(s, rows)| {
            network
                .stage_plan(s, rows)
                .expect("dense stages compile")
                .packed_bytes()
        })
        .sum();
    out.push(("nn.plan_packed_bytes", packed as f64));

    // eugene-service: what the engine adapter adds around the plans for a
    // fused batch of 8 (gather, softmax, scatter).
    let shared = Arc::new(network.clone());
    let engine = StagedNetworkEngine::new(Arc::clone(&shared));
    let engine_r8 = median_us(|| {
        let mut batch: Vec<_> = (0..8).map(|_| engine.begin(sample)).collect();
        for _ in 0..stages {
            black_box(engine.next_stage_batch(&mut batch));
        }
    });
    let plans_r8 = median_us(|| plan_chain(&shared, &raw8));
    out.push(("service.adapter_us_r8", (engine_r8 - plans_r8).max(0.0)));

    // eugene-gp / eugene-sched: fitting the confidence predictor, then one
    // scheduling decision over 64 ready tasks.
    let t0 = Instant::now();
    let predictor = model
        .eugene
        .fit_confidence_predictor(model.id, &model.train)
        .expect("predictor fits on the training split");
    out.push(("gp.predictor_fit_ms", t0.elapsed().as_secs_f64() * 1e3));
    let mut scheduler = RtDeepIot::new(predictor, 1, 0.1);
    let observed: Vec<Vec<f32>> = (0..64)
        .map(|i| (0..i % stages).map(|s| 0.3 + 0.2 * s as f32).collect())
        .collect();
    let views: Vec<TaskView<'_>> = observed
        .iter()
        .enumerate()
        .map(|(id, seen)| TaskView {
            id,
            stages_done: seen.len(),
            num_stages: stages,
            observed: seen,
            admitted_at: 0,
            deadline_remaining_ms: 100,
            remaining_quanta: 50,
        })
        .collect();
    out.push((
        "sched.assign_us_q64",
        median_us(|| drop(black_box(scheduler.assign(&views, 16)))),
    ));

    // eugene-serve: a submit round trip with no socket in the way.
    let runtime = model
        .eugene
        .serve(
            model.id,
            &stack::serve_options(workload),
            Some(&model.train),
        )
        .expect("runtime starts");
    let class = ServiceClass::new("default", Duration::from_secs(2));
    out.push((
        "serve.submit_direct_us",
        median_us(|| {
            let (_, rx) = runtime.submit(InferenceRequest::new(sample.to_vec(), class.clone()));
            black_box(rx.recv().expect("runtime answers"));
        }),
    ));
    runtime.shutdown();

    // eugene-net wire: codec cost at this workload's payload size.
    let submit = Frame::Submit(SubmitRequest {
        client_tag: 7,
        class: "default".to_owned(),
        budget_ms: 2_000,
        want_progress: false,
        payload: sample.to_vec(),
        routing_key: Some(99),
        model: None,
        tenant: None,
        epoch: None,
    });
    let fin = Frame::Final {
        client_tag: 7,
        response: WireResponse {
            predicted: Some(3),
            confidence: Some(0.75),
            stages_executed: 3,
            expired: false,
            latency_us: 1234,
            degraded: false,
        },
    };
    let (submit_bytes, final_bytes) = (encode_frame(&submit), encode_frame(&fin));
    out.push((
        "net.wire.encode_submit_us",
        median_us(|| drop(black_box(encode_frame(&submit)))),
    ));
    out.push((
        "net.wire.decode_submit_us",
        median_us(|| drop(black_box(decode_frame(&submit_bytes)))),
    ));
    out.push((
        "net.wire.encode_final_us",
        median_us(|| drop(black_box(encode_frame(&fin)))),
    ));
    out.push((
        "net.wire.decode_final_us",
        median_us(|| drop(black_box(decode_frame(&final_bytes)))),
    ));
    out.push((
        "net.wire.bytes_per_req",
        (submit_bytes.len() + final_bytes.len()) as f64,
    ));

    // eugene-net shard: one ring lookup, 2 shards x 64 virtual nodes.
    let mut ring = HashRing::new(0, 64);
    ring.insert(0);
    ring.insert(1);
    let mut key = 0u64;
    out.push((
        "net.shard.ring_route_ns",
        median_us(|| {
            for _ in 0..1000 {
                key = key.wrapping_add(0x9E37_79B9);
                black_box(ring.route(key));
            }
        }),
    ));
    out
}
