//! `Eugene::serve_multi`'s fitted dispatcher (paper §II-D): submits that
//! name no model are routed per payload by a confidence estimator fitted
//! on calibration data, between a reduced copy of a model and the model
//! itself.
//!
//! The test counts this process's threads, so it is the only test in
//! this file.

use eugene::data::{Dataset, SyntheticImages, SyntheticImagesConfig};
use eugene::net::{ClientConfig, GatewayConfig, MultiplexClient, SubmitOptions};
use eugene::service::{
    DispatchPolicy, Eugene, EugeneError, ModelVariant, SchedulerKind, ServeOptions, TrainRequest,
};
use eugene::tensor::{seeded_rng, Matrix};
use std::time::Duration;

/// Threads of this process, as the kernel lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

/// A calibration set and a held-out set drawn from one generator, so
/// they share class prototypes.
fn datasets() -> (Dataset, Dataset) {
    let mut rng = seeded_rng(33);
    let gen = SyntheticImages::new(
        SyntheticImagesConfig {
            num_classes: 4,
            dim: 10,
            ..Default::default()
        },
        &mut rng,
    );
    let (calibration, _) = gen.generate(300, &mut rng);
    let (held_out, _) = gen.generate(40, &mut rng);
    (calibration, held_out)
}

/// Anonymous submits reach both variants and are all answered; a
/// payload of the wrong width takes the `hard` route and fails there as
/// it would on that model alone; and a policy with no calibration data
/// is refused before any runtime starts.
#[test]
fn fitted_dispatcher_routes_anonymous_submits_by_payload() {
    let (data, held_out) = datasets();
    let mut eugene = Eugene::new(34);
    let full = eugene.train(TrainRequest::quick(&data)).expect("train");
    let reduced = eugene.reduce(full, 0.5, &data).expect("reduce");
    let fifo = ServeOptions {
        scheduler: SchedulerKind::Fifo,
        ..ServeOptions::default()
    };
    let variants = [
        ModelVariant {
            name: "full".into(),
            model: full,
            options: fifo.clone(),
        },
        ModelVariant {
            name: "reduced".into(),
            model: reduced,
            options: ServeOptions {
                confidence_threshold: 0.6,
                ..fifo
            },
        },
    ];
    // Four classes: a stage-1 confidence of 0.3 is just above chance,
    // which on these seeds splits the held-out set about 2:1 toward the
    // reduced copy.
    let policy = |data| DispatchPolicy {
        easy: "reduced",
        hard: "full",
        threshold: 0.3,
        caution: 1.0,
        data,
    };

    let empty = Dataset::new(Matrix::zeros(0, data.dim()), Vec::new(), data.num_classes());
    let before = threads();
    let refused = eugene.serve_multi(
        &variants,
        "full",
        Some(&policy(&empty)),
        None,
        GatewayConfig::default(),
    );
    assert!(matches!(refused, Err(EugeneError::EmptyDataset)));
    assert_eq!(threads(), before, "a refused policy must leave no runtime");

    let gateway = eugene
        .serve_multi(
            &variants,
            "full",
            Some(&policy(&data)),
            None,
            GatewayConfig::default(),
        )
        .expect("serve");
    let client = MultiplexClient::new(gateway.local_addr(), ClientConfig::default())
        .expect("resolve loopback");
    let budget = Duration::from_secs(30);
    for i in 0..held_out.len() {
        let outcome = client
            .infer("test", held_out.sample(i), budget)
            .expect("anonymous submit answered");
        assert!(outcome.predicted.is_some(), "sample {i} answered");
    }
    let routed = gateway.snapshot().per_model;
    assert_eq!(
        routed["full"].completed + routed["reduced"].completed,
        held_out.len() as u64
    );
    assert!(
        routed["full"].completed > 0 && routed["reduced"].completed > 0,
        "anonymous submits must reach both variants: full {}, reduced {}",
        routed["full"].completed,
        routed["reduced"].completed
    );

    let wrong_width = vec![0.5; data.dim() + 1];
    let on_full = SubmitOptions {
        model: Some("full".into()),
        ..SubmitOptions::default()
    };
    let alone = client
        .infer_with("test", &wrong_width, budget, &on_full)
        .expect("named submit answered");
    let dispatched = client
        .infer("test", &wrong_width, budget)
        .expect("anonymous submit answered");
    assert_eq!(alone.predicted, None, "the full model refuses the payload");
    assert_eq!(
        (dispatched.predicted, dispatched.stages_executed),
        (alone.predicted, alone.stages_executed),
        "a wrong-width payload fails on the hard route as on that model alone"
    );
    let after = gateway.snapshot().per_model;
    assert_eq!(after["full"].completed, routed["full"].completed + 2);
    assert_eq!(after["reduced"].completed, routed["reduced"].completed);
    gateway.shutdown();
}
