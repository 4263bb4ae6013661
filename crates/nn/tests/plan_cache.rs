//! Plan-cache lifecycle tests: hit/miss accounting, invalidation on
//! every parameter-mutation path, generation tags proving no stale plan
//! is ever served, the quantize-after-compile regression, a
//! concurrency hammer over one shared plan, and weight-pack ownership:
//! one pack per layer shared by every plan shape and every clone,
//! dropped by every mutation funnel, never served stale or foreign.

use eugene_nn::{Layer, Linear, StagedNetwork, StagedNetworkConfig};
use eugene_tensor::{seeded_rng, xavier_uniform, Matrix, Precision};
use std::sync::Arc;

fn tiny_net(seed: u64) -> StagedNetwork {
    let config = StagedNetworkConfig {
        input_dim: 6,
        num_classes: 3,
        stage_widths: vec![vec![8], vec![10]],
        dropout: 0.0,
        input_skip: true,
    };
    StagedNetwork::new(&config, &mut seeded_rng(seed))
}

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

fn assert_bitwise(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

fn trunk_linears(net: &StagedNetwork, stage: usize) -> impl Iterator<Item = &Linear> {
    net.stages()[stage]
        .layers()
        .iter()
        .filter_map(|l| l.as_any().downcast_ref::<Linear>())
}

fn trunk_linears_mut(net: &mut StagedNetwork, stage: usize) -> impl Iterator<Item = &mut Linear> {
    net.stages_mut()[stage]
        .layers_mut()
        .iter_mut()
        .filter_map(|l| l.as_any_mut().downcast_mut::<Linear>())
}

#[test]
fn hits_and_misses_are_counted_per_key() {
    let net = tiny_net(1);
    let stats = net.plan_cache().stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));

    let p1 = net.stage_plan(0, 4).unwrap();
    let stats = net.plan_cache().stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));

    // Same key: a hit, and the very same plan object.
    let p2 = net.stage_plan(0, 4).unwrap();
    assert!(Arc::ptr_eq(&p1, &p2), "same key must reuse the plan");
    let stats = net.plan_cache().stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

    // Different batch shape and different stage: distinct plans.
    let _ = net.stage_plan(0, 8).unwrap();
    let _ = net.stage_plan(1, 4).unwrap();
    let stats = net.plan_cache().stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 3, 3));
}

#[test]
fn stages_mut_invalidates_all_plans() {
    let mut net = tiny_net(2);
    let old = net.stage_plan(0, 2).unwrap();
    let gen_before = net.plan_cache().generation();
    assert_eq!(old.generation(), gen_before);

    // Mutate a trunk weight through the pruning funnel.
    trunk_linears_mut(&mut net, 0).for_each(|lin| lin.weights_mut()[(0, 0)] += 0.5);

    let stats = net.plan_cache().stats();
    assert_eq!(stats.entries, 0, "mutation must drop every cached plan");
    assert!(stats.invalidations >= 1);
    assert!(net.plan_cache().generation() > gen_before);

    // The fresh plan carries the new generation and the new weights.
    let fresh = net.stage_plan(0, 2).unwrap();
    assert!(!Arc::ptr_eq(&old, &fresh), "stale plan must not be served");
    assert_eq!(fresh.generation(), net.plan_cache().generation());
    let input = xavier_uniform(2, 6, &mut seeded_rng(3));
    let (plan_h, plan_l) = fresh.execute(&net, &input, &input);
    let (walk_h, walk_l) = layer_walk_stage(&net, 0, &input, &input);
    assert_bitwise(&plan_h, &walk_h, "post-mutation hidden");
    assert_bitwise(&plan_l, &walk_l, "post-mutation logits");
}

#[test]
fn heads_mut_and_visit_params_invalidate() {
    let mut net = tiny_net(4);
    net.stage_plan(0, 1).unwrap();
    net.stage_plan(1, 1).unwrap();
    assert_eq!(net.plan_cache().stats().entries, 2);

    net.heads_mut()[0].bias_mut()[(0, 0)] += 1.0;
    assert_eq!(net.plan_cache().stats().entries, 0, "heads_mut invalidates");

    net.stage_plan(0, 1).unwrap();
    let gen_before = net.plan_cache().generation();
    net.visit_params(&mut |_p, _g| {});
    assert_eq!(
        net.plan_cache().stats().entries,
        0,
        "optimizer access invalidates"
    );
    assert!(net.plan_cache().generation() > gen_before);
}

/// The quantize-after-compile regression: a plan compiled while a stage
/// served f32 must not survive `quantize_stages` / `set_precision` —
/// the next dispatch must compile and serve the Int8 plan.
#[test]
fn quantize_after_compile_serves_the_int8_plan() {
    let mut net = tiny_net(5);
    let f32_plan = net.stage_plan(0, 3).unwrap();
    assert_eq!(f32_plan.precision(), Precision::F32);
    let gen_f32 = f32_plan.generation();

    net.quantize_stages(&[0]);
    assert_eq!(net.stage_precision(0), Precision::Int8);
    assert_eq!(
        net.plan_cache().stats().entries,
        0,
        "quantize_stages must invalidate compiled plans"
    );

    let q_plan = net.stage_plan(0, 3).unwrap();
    assert_eq!(
        q_plan.precision(),
        Precision::Int8,
        "post-quantization dispatch must serve the Int8 plan, not the cached f32 plan"
    );
    assert!(q_plan.generation() > gen_f32, "generation tag must advance");

    // And the Int8 plan matches the quantized layer walk bitwise.
    let input = xavier_uniform(3, 6, &mut seeded_rng(6));
    let (plan_h, plan_l) = q_plan.execute(&net, &input, &input);
    let (walk_h, walk_l) = layer_walk_stage(&net, 0, &input, &input);
    assert_bitwise(&plan_h, &walk_h, "int8 hidden");
    assert_bitwise(&plan_l, &walk_l, "int8 logits");
}

/// `set_precision` reached through `stages_mut` (rather than
/// `quantize_stages`) must equally invalidate.
#[test]
fn set_precision_via_stages_mut_invalidates() {
    let mut net = tiny_net(7);
    net.stage_plan(0, 2).unwrap();
    trunk_linears_mut(&mut net, 0).for_each(|lin| lin.set_precision(Precision::Int8));
    assert_eq!(net.plan_cache().stats().entries, 0);
    let plan = net.stage_plan(0, 2).unwrap();
    assert_eq!(plan.precision(), Precision::Int8);
}

/// Model reload hands out a fresh network object; its plan cache must
/// start empty — plans never travel between network instances — while
/// its layers share the original's weight packs until one side's
/// weights change.
#[test]
fn cloned_network_shares_packs_but_starts_with_an_empty_cache() {
    let net = tiny_net(8);
    net.stage_plan(0, 2).unwrap();
    net.stage_plan(1, 2).unwrap();
    assert_eq!(net.plan_cache().stats().entries, 2);

    let mut copy = net.clone();
    for (own, cloned) in net.heads().iter().zip(copy.heads()) {
        assert!(
            Arc::ptr_eq(
                own.packed_weights().unwrap(),
                cloned.packed_weights().unwrap()
            ),
            "a clone must share the pack, not rebuild it"
        );
    }
    assert_eq!(copy.packed_weight_bytes(), net.packed_weight_bytes());
    let stats = copy.plan_cache().stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.entries, stats.invalidations),
        (0, 0, 0, 0),
        "a reloaded/cloned model must not inherit compiled plans"
    );
    // The copy compiles its own plans and serves identically.
    let input = xavier_uniform(2, 6, &mut seeded_rng(9));
    let a = net.stage_plan(0, 2).unwrap().execute(&net, &input, &input);
    let b = copy
        .stage_plan(0, 2)
        .unwrap()
        .execute(&copy, &input, &input);
    assert_bitwise(&a.0, &b.0, "clone hidden");
    assert_bitwise(&a.1, &b.1, "clone logits");

    // Retraining the copy drops only the copy's handles: the original
    // keeps its packs and its plans keep answering.
    copy.visit_params(&mut |p, _g| p.as_mut_slice()[0] += 0.25);
    assert!(copy.heads()[0].packed_weights().is_none());
    assert!(net.heads()[0].packed_weights().is_some());
    let again = net.stage_plan(0, 2).unwrap().execute(&net, &input, &input);
    assert_bitwise(&again.1, &a.1, "original after the copy retrained");
}

/// The tentpole: the f32 panels belong to the layer, so compiling more
/// batch shapes adds no weight bytes and every shape multiplies with
/// the same `Arc`.
#[test]
fn every_plan_shape_borrows_the_layers_one_pack() {
    let net = tiny_net(13);
    assert_eq!(
        net.packed_weight_bytes(),
        0,
        "nothing packed before a compile"
    );
    let first: Vec<_> = (0..net.num_stages())
        .map(|s| net.stage_plan(s, 1).unwrap())
        .collect();
    let one_shape = net.packed_weight_bytes();

    for (stage, first) in first.iter().enumerate() {
        for rows in 2..=8 {
            let plan = net.stage_plan(stage, rows).unwrap();
            assert_eq!(plan.f32_packs().count(), 2, "trunk GEMM + head GEMM");
            assert_eq!(plan.packed_bytes(), first.packed_bytes());
            for (a, b) in plan.f32_packs().zip(first.f32_packs()) {
                assert!(
                    Arc::ptr_eq(a, b),
                    "stage {stage}: rows {rows} must share the rows=1 pack"
                );
            }
        }
        let owned = trunk_linears(&net, stage).chain([&net.heads()[stage]]);
        for (own, held) in owned.zip(first.f32_packs()) {
            assert!(Arc::ptr_eq(own.packed_weights().unwrap(), held));
        }
    }
    assert_eq!(
        net.packed_weight_bytes(),
        one_shape,
        "eight shapes per stage hold the bytes of one"
    );
    let per_plan: usize = first.iter().map(|p| p.packed_bytes()).sum();
    assert_eq!(one_shape, per_plan, "each layer's pack counted once");
}

/// Each of the four mutation funnels drops the pack of the layer it
/// touched, and the next plan packs — and serves — the new weights.
#[test]
fn every_mutation_funnel_drops_the_pack_and_serves_the_new_weights() {
    type Funnel = (&'static str, fn(&mut StagedNetwork));
    let funnels: [Funnel; 4] = [
        ("stages_mut", |net| {
            trunk_linears_mut(net, 0).for_each(|lin| lin.weights_mut()[(0, 0)] += 0.5)
        }),
        ("heads_mut", |net| {
            net.heads_mut()[0].weights_mut()[(0, 0)] += 0.5
        }),
        ("visit_params", |net| {
            net.visit_params(&mut |p, _g| p.as_mut_slice()[0] += 0.5)
        }),
        ("quantize_stages", |net| net.quantize_stages(&[0])),
    ];
    let input = xavier_uniform(3, 6, &mut seeded_rng(14));
    for (name, mutate) in funnels {
        let mut net = tiny_net(15);
        let old_plan = net.stage_plan(0, 3).unwrap();
        let old_packs: Vec<_> = old_plan.f32_packs().cloned().collect();
        let (old_h, old_l) = old_plan.execute(&net, &input, &input);
        drop(old_plan);

        mutate(&mut net);
        let trunk = trunk_linears(&net, 0).next().unwrap();
        let head = &net.heads()[0];
        let touched = if name == "heads_mut" { head } else { trunk };
        assert!(
            touched.packed_weights().is_none(),
            "{name}: the mutated layer must drop its f32 pack"
        );

        let plan = net.stage_plan(0, 3).unwrap();
        // `old_packs` keeps the old panels alive, so a fresh pack cannot
        // reuse their address. (The now-Int8 trunk layer has no f32
        // pack to compare.)
        if let Some(repacked) = touched.packed_weights() {
            assert!(
                old_packs.iter().all(|old| !Arc::ptr_eq(old, repacked)),
                "{name}: the mutated layer's old pack must not be reused"
            );
        }
        let (plan_h, plan_l) = plan.execute(&net, &input, &input);
        let (walk_h, walk_l) = layer_walk_stage(&net, 0, &input, &input);
        assert_bitwise(&plan_h, &walk_h, &format!("{name}: hidden"));
        assert_bitwise(&plan_l, &walk_l, &format!("{name}: logits"));
        assert!(
            plan_h != old_h || plan_l != old_l,
            "{name}: the answer must reflect the mutation"
        );
    }
}

/// The stale-pack hole: a prepacked GEMM never reads the weight matrix,
/// so a plan run against a same-shape network it was not compiled from
/// would multiply the old panels with the new bias. It must panic.
#[test]
#[should_panic(expected = "f32 plan outlived its weight pack")]
fn plan_executed_against_a_foreign_network_panics() {
    let net = tiny_net(16);
    let foreign = tiny_net(17);
    // The foreign network has packs of its own: shape and presence both
    // match, only identity tells them apart.
    foreign.stage_plan(0, 2).unwrap();
    let plan = net.stage_plan(0, 2).unwrap();
    let input = xavier_uniform(2, 6, &mut seeded_rng(18));
    plan.execute(&foreign, &input, &input);
}

/// Same hole, other door: a plan kept past a weight mutation of its own
/// network (the cache no longer serves it, but the `Arc` is alive).
#[test]
#[should_panic(expected = "f32 plan outlived its weight pack")]
fn plan_kept_across_a_weight_mutation_panics() {
    let mut net = tiny_net(19);
    let kept = net.stage_plan(0, 2).unwrap();
    trunk_linears_mut(&mut net, 0).for_each(|lin| lin.weights_mut()[(0, 0)] += 0.5);
    // Another shape repacks the new weights; the kept plan still holds
    // the old panels.
    net.stage_plan(0, 3).unwrap();
    let input = xavier_uniform(2, 6, &mut seeded_rng(20));
    kept.execute(&net, &input, &input);
}

/// No stale plan ever executes: every plan handed out carries the
/// cache's current generation tag, across an interleaving of compiles
/// and invalidations.
#[test]
fn served_plans_always_carry_the_current_generation() {
    let mut net = tiny_net(10);
    for round in 0..5 {
        for stage in 0..net.num_stages() {
            for rows in [1usize, 3, 7] {
                let plan = net.stage_plan(stage, rows).unwrap();
                assert_eq!(
                    plan.generation(),
                    net.plan_cache().generation(),
                    "round {round}: plan generation must match the cache"
                );
            }
        }
        // Alternate mutation paths between rounds.
        if round % 2 == 0 {
            net.heads_mut()[0].bias_mut()[(0, 0)] += 0.1;
        } else {
            net.quantize_stages(&[round % 2]);
        }
    }
}

/// Hammer one cached plan from many dispatcher threads: arena buffers
/// must never alias across concurrent executions, and every output must
/// be bitwise-stable. Run with high `--test-threads` in CI.
#[test]
fn concurrent_dispatchers_share_one_plan_without_aliasing() {
    const THREADS: usize = 8;
    const ITERS: usize = 50;
    const ROWS: usize = 4;

    let net = Arc::new(tiny_net(11));
    let plan = net.stage_plan(0, ROWS).unwrap();

    // Per-thread distinct inputs with precomputed references.
    let inputs: Vec<Matrix> = (0..THREADS)
        .map(|t| xavier_uniform(ROWS, 6, &mut seeded_rng(100 + t as u64)))
        .collect();
    let expected: Vec<(Matrix, Matrix)> = inputs
        .iter()
        .map(|input| plan.execute(&net, input, input))
        .collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let net = Arc::clone(&net);
            let plan = Arc::clone(&plan);
            let input = &inputs[t];
            let want = &expected[t];
            scope.spawn(move || {
                let mut out_h = Matrix::zeros(0, 0);
                let mut out_l = Matrix::zeros(0, 0);
                for iter in 0..ITERS {
                    plan.execute_into(&net, input, input, &mut out_h, &mut out_l);
                    for (a, b) in out_h.as_slice().iter().zip(want.0.as_slice()) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "thread {t} iter {iter}: hidden corrupted under concurrency"
                        );
                    }
                    for (a, b) in out_l.as_slice().iter().zip(want.1.as_slice()) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "thread {t} iter {iter}: logits corrupted under concurrency"
                        );
                    }
                }
            });
        }
    });

    // The hammer went through the shared plan: still exactly one entry,
    // no extra compiles.
    let stats = net.plan_cache().stats();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.misses, 1);
}

/// Eight threads compile eight *different* batch shapes of one stage at
/// once: the layers' packs are built exactly once and every plan holds
/// that one `Arc`.
#[test]
fn concurrent_compiles_of_different_shapes_pack_each_layer_once() {
    const THREADS: usize = 8;
    let net = Arc::new(tiny_net(21));
    let start = std::sync::Barrier::new(THREADS);
    let plans: Vec<Arc<eugene_nn::StagePlan>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=THREADS)
            .map(|rows| {
                let (net, start) = (&net, &start);
                scope.spawn(move || {
                    start.wait();
                    net.stage_plan(1, rows).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(net.plan_cache().stats().misses, THREADS as u64);
    let owned: Vec<_> = trunk_linears(&net, 1)
        .chain([&net.heads()[1]])
        .map(|lin| lin.packed_weights().expect("packed by the first compile"))
        .collect();
    for plan in &plans {
        for (own, held) in owned.iter().zip(plan.f32_packs()) {
            assert!(
                Arc::ptr_eq(own, held),
                "rows {}: a second pack",
                plan.rows()
            );
        }
    }
    for own in owned {
        assert_eq!(
            Arc::strong_count(own),
            1 + THREADS,
            "the layer and each of the eight plans hold the one pack"
        );
    }
}

/// Concurrent lookups of the *same key* from many threads compile at
/// most once (compilation happens under the cache lock) and all see the
/// same plan object.
#[test]
fn concurrent_lookups_compile_once() {
    let net = Arc::new(tiny_net(12));
    let plans: Vec<Arc<eugene_nn::StagePlan>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let net = Arc::clone(&net);
                scope.spawn(move || net.stage_plan(1, 5).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for p in &plans[1..] {
        assert!(Arc::ptr_eq(&plans[0], p), "all threads share one plan");
    }
    assert_eq!(net.plan_cache().stats().misses, 1, "compiled exactly once");
}
