//! Plan-cache lifecycle at the serving layer: micro-batched engine
//! dispatches compile each stage plan once and reuse it thereafter, a
//! batch of one runs the `rows = 1` plans (bitwise the layer walk, on
//! every tier and precision), the runtime surfaces the counters, and a
//! model reload never serves a stale plan.

use eugene_nn::{Linear, StagedNetwork, StagedNetworkConfig};
use eugene_sched::Fifo;
use eugene_serve::{
    EngineSession, InferenceEngine, InferenceRequest, RuntimeConfig, ServiceClass, ServingRuntime,
};
use eugene_service::StagedNetworkEngine;
use eugene_tensor::{seeded_rng, set_simd_mode, simd_mode, SimdMode};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

fn network(seed: u64) -> StagedNetwork {
    let config = StagedNetworkConfig {
        input_dim: 5,
        num_classes: 3,
        stage_widths: vec![vec![7], vec![6]],
        dropout: 0.0,
        input_skip: true,
    };
    StagedNetwork::new(&config, &mut seeded_rng(seed))
}

fn payloads(n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| (0..5).map(|c| (i * 5 + c) as f32 * 0.07 - 0.8).collect())
        .collect()
}

fn run_batch_to_completion(engine: &StagedNetworkEngine, n: usize) {
    let mut batch: Vec<Box<dyn EngineSession>> =
        payloads(n).iter().map(|p| engine.begin(p)).collect();
    for _ in 0..engine.num_stages() {
        let reports = engine.next_stage_batch(&mut batch);
        assert!(reports.iter().all(Option::is_some));
    }
}

#[test]
fn micro_batched_dispatch_compiles_each_stage_once_then_hits() {
    let engine = StagedNetworkEngine::new(Arc::new(network(1)));
    assert_eq!(
        engine.plan_cache_stats().unwrap().misses,
        0,
        "no plans before the first dispatch"
    );

    run_batch_to_completion(&engine, 4);
    let stats = engine.plan_cache_stats().unwrap();
    assert_eq!(
        stats.misses as usize,
        engine.num_stages(),
        "first pass compiles one plan per stage"
    );
    assert_eq!(stats.entries, engine.num_stages());

    // Same batch shape again: pure hits, zero compiles.
    run_batch_to_completion(&engine, 4);
    let stats = engine.plan_cache_stats().unwrap();
    assert_eq!(stats.misses as usize, engine.num_stages());
    assert_eq!(stats.hits as usize, engine.num_stages());

    // A different batch shape is a different key.
    run_batch_to_completion(&engine, 2);
    let stats = engine.plan_cache_stats().unwrap();
    assert_eq!(stats.misses as usize, 2 * engine.num_stages());
}

/// The kernel-path override is process-global and the tiers differ in
/// their bits, so every test that compares bits holds this lock.
fn mode_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Runs `body` with the scalar kernel tier forced, restoring the
/// ambient mode afterwards (panic-safe). Callers hold [`mode_lock`].
fn with_scalar_tier(body: impl FnOnce()) {
    let ambient = simd_mode();
    set_simd_mode(SimdMode::ForceScalar);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    set_simd_mode(ambient);
    if let Err(payload) = result {
        std::panic::resume_unwind(payload);
    }
}

/// Runs one session per payload to completion and asserts every report
/// carries the bits `classify` (the layer-walk oracle) computes.
fn assert_sessions_match_classify(engine: &StagedNetworkEngine, what: &str) {
    for payload in payloads(3) {
        let mut session = engine.begin(&payload);
        for want in engine.network().classify(&payload) {
            let got = session.next_stage().expect("one report per stage");
            assert_eq!(
                got.predicted, want.predicted,
                "{what}: stage {}",
                want.stage
            );
            assert_eq!(
                got.confidence.to_bits(),
                want.confidence.to_bits(),
                "{what}: stage {}: batch-of-one plan vs layer walk",
                want.stage
            );
        }
        assert!(session.next_stage().is_none());
    }
}

/// `NetworkSession::next_stage` executes the `rows = 1` stage plans.
/// They must answer bitwise like `classify` for f32 and every subset of
/// Int8 stages, under the ambient tier, with the scalar tier forced,
/// and when the tier flips after the plans and packs were built.
#[test]
fn batch_of_one_session_matches_classify_bitwise_on_every_lane() {
    let _guard = mode_lock();
    for mask in 0u8..4 {
        let mut net = network(20 + u64::from(mask));
        let quantized: Vec<usize> = (0..net.num_stages())
            .filter(|s| mask & (1 << s) != 0)
            .collect();
        net.quantize_stages(&quantized);
        let scalar_from_the_start = StagedNetworkEngine::new(Arc::new(net.clone()));
        let engine = StagedNetworkEngine::new(Arc::new(net));

        assert_sessions_match_classify(&engine, &format!("int8 {quantized:?}, ambient tier"));
        let compiled = engine.plan_cache_stats().unwrap().misses;
        assert_eq!(
            compiled as usize,
            engine.num_stages(),
            "one rows=1 plan per stage"
        );

        with_scalar_tier(|| {
            // Panels packed for the ambient tier no longer fit and must
            // be ignored, not misused.
            assert_sessions_match_classify(&engine, &format!("int8 {quantized:?}, tier flipped"));
            assert_sessions_match_classify(
                &scalar_from_the_start,
                &format!("int8 {quantized:?}, scalar tier"),
            );
        });
        assert_eq!(
            engine.plan_cache_stats().unwrap().misses,
            compiled,
            "the flipped pass reused the cached plans"
        );
    }
}

/// The runtime still dispatches a lone request as singletons — it calls
/// the session, not `next_stage_batch` — and each of those is now a
/// plan-cache lookup on key `rows = 1`: compiled by the first request,
/// hit by the second.
#[test]
fn batch_of_one_is_a_singleton_dispatch_and_a_rows1_plan_hit() {
    let engine = Arc::new(StagedNetworkEngine::new(Arc::new(network(5))));
    let stages = engine.num_stages() as u64;
    let config = RuntimeConfig {
        num_workers: 2,
        max_batch: 4,
        gather_window: Duration::from_millis(2),
        ..RuntimeConfig::default()
    };
    let runtime = ServingRuntime::start(engine.clone(), Box::new(Fifo::new()), config);
    let class = ServiceClass::new("t", Duration::from_secs(5));
    for (nth, payload) in payloads(2).into_iter().enumerate() {
        let (_, rx) = runtime.submit(InferenceRequest::new(payload, class.clone()));
        let response = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("response arrives");
        assert_eq!(response.stages_executed as u64, stages);
        let nth = nth as u64 + 1;
        let stats = runtime.stats();
        assert_eq!(stats.fused_batches(), 0, "a lone request is never fused");
        assert_eq!(stats.singleton_dispatches(), nth * stages);
        let plans = runtime.plan_cache_stats().expect("plans are counted");
        assert_eq!(
            (plans.misses, plans.hits, plans.entries as u64),
            (stages, (nth - 1) * stages, stages),
            "request {nth}: one rows=1 plan per stage, compiled once"
        );
    }
    // The cached entries are the `rows = 1` keys: looking them up is a hit.
    for stage in 0..engine.num_stages() {
        engine.network().stage_plan(stage, 1).unwrap();
    }
    assert_eq!(engine.plan_cache_stats().unwrap().misses, stages);
    runtime.shutdown();
}

#[test]
fn runtime_surfaces_plan_cache_counters() {
    let engine: Arc<StagedNetworkEngine> = Arc::new(StagedNetworkEngine::new(Arc::new(network(2))));
    let config = RuntimeConfig {
        num_workers: 2,
        max_batch: 4,
        gather_window: Duration::from_millis(2),
        ..RuntimeConfig::default()
    };
    let runtime = ServingRuntime::start(engine, Box::new(Fifo::new()), config);
    let class = ServiceClass::new("t", Duration::from_secs(5));
    let receivers: Vec<_> = payloads(4)
        .into_iter()
        .map(|p| runtime.submit(InferenceRequest::new(p, class.clone())).1)
        .collect();
    for rx in receivers {
        let response = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("response arrives");
        assert!(response.is_answered());
    }
    let stats = runtime
        .plan_cache_stats()
        .expect("staged-network engines serve through plans");
    assert!(
        stats.misses >= 1,
        "serving dispatches must have compiled at least one plan"
    );
    runtime.shutdown();
}

#[test]
fn model_reload_starts_from_a_fresh_cache_and_new_weights() {
    let _guard = mode_lock();
    let engine_a = StagedNetworkEngine::new(Arc::new(network(3)));
    run_batch_to_completion(&engine_a, 3);
    assert!(engine_a.plan_cache_stats().unwrap().entries > 0);

    // "Reload": a retrained copy of the model replaces the old one. The
    // clone starts with an empty plan cache by construction, so no plan
    // built from the old weights can survive the swap.
    let mut retrained = engine_a.network().as_ref().clone();
    retrained.stages_mut()[0]
        .layers_mut()
        .iter_mut()
        .filter_map(|l| l.as_any_mut().downcast_mut::<Linear>())
        .for_each(|lin| lin.weights_mut()[(0, 0)] += 1.0);
    let retrained = Arc::new(retrained);
    let engine_b = StagedNetworkEngine::new(Arc::clone(&retrained));

    let stats = engine_b.plan_cache_stats().unwrap();
    assert_eq!(
        stats.entries, 0,
        "reloaded model must not inherit compiled plans"
    );

    // The new engine's fused dispatch matches the new network's own
    // layer walk bitwise — not the old weights.
    let inputs = payloads(3);
    let mut batch: Vec<Box<dyn EngineSession>> = inputs.iter().map(|p| engine_b.begin(p)).collect();
    let reports = engine_b.next_stage_batch(&mut batch);
    for (p, report) in inputs.iter().zip(reports) {
        let want = &retrained.classify(p)[0];
        let got = report.expect("stage report");
        assert_eq!(got.predicted, want.predicted);
        assert_eq!(
            got.confidence.to_bits(),
            want.confidence.to_bits(),
            "reloaded engine must serve the new weights bitwise"
        );
    }
    assert!(engine_b.plan_cache_stats().unwrap().misses >= 1);

    // The old engine's cache is untouched by the reload.
    assert!(engine_a.plan_cache_stats().unwrap().entries > 0);
}
