//! End-to-end integration across crates: the full Eugene service life
//! cycle from client data to scheduled, deadline-bounded serving.

use eugene::data::{SyntheticImages, SyntheticImagesConfig};
use eugene::nn::TrainConfig;
use eugene::serve::{InferenceRequest, ServiceClass};
use eugene::service::{Eugene, SchedulerKind, ServeOptions, TrainRequest};
use eugene::tensor::seeded_rng;
use std::time::Duration;

/// Draws several datasets from ONE generator: splits must share class
/// prototypes or they describe different classification problems.
fn datasets(seed: u64, sizes: &[usize]) -> Vec<eugene::data::Dataset> {
    let mut rng = seeded_rng(seed);
    let gen = SyntheticImages::new(
        SyntheticImagesConfig {
            num_classes: 5,
            dim: 12,
            ..Default::default()
        },
        &mut rng,
    );
    sizes.iter().map(|&n| gen.generate(n, &mut rng).0).collect()
}

fn quick_train(eugene: &mut Eugene, data: &eugene::data::Dataset) -> eugene::service::ModelId {
    eugene
        .train(TrainRequest {
            data,
            architecture: None,
            train: TrainConfig {
                epochs: 15,
                ..TrainConfig::default()
            },
        })
        .expect("train")
}

#[test]
fn train_calibrate_serve_with_early_exit() {
    let mut parts = datasets(1, &[500, 300, 30]).into_iter();
    let (train, calib, stream) = (
        parts.next().unwrap(),
        parts.next().unwrap(),
        parts.next().unwrap(),
    );
    let mut eugene = Eugene::new(4);
    let model = quick_train(&mut eugene, &train);
    let outcome = eugene.calibrate(model, &calib).expect("calibrate");
    assert!(outcome.ece_after <= outcome.ece_before + 1e-9);

    let runtime = eugene
        .serve(
            model,
            &ServeOptions {
                scheduler: SchedulerKind::RtDeepIot { lookahead: 1 },
                num_workers: 2,
                // Calibration pulls confidence down toward accuracy, so
                // the early-exit bar sits just above chance-of-error.
                confidence_threshold: 0.78,
                ..ServeOptions::default()
            },
            Some(&train),
        )
        .expect("serve");
    let class = ServiceClass::new("test", Duration::from_secs(10));
    let mut answered = 0;
    let mut early = 0;
    let receivers: Vec<_> = (0..stream.len())
        .map(|i| {
            runtime.submit(InferenceRequest::new(
                stream.sample(i).to_vec(),
                class.clone(),
            ))
        })
        .collect();
    for (_, rx) in receivers {
        let response = rx.recv_timeout(Duration::from_secs(30)).expect("response");
        assert!(response.stages_executed >= 1);
        if response.is_answered() {
            answered += 1;
        }
        if response.stages_executed < 3 && !response.expired {
            early += 1;
            // Early exit only fires at or above the threshold.
            assert!(response.confidence.expect("confident") >= 0.78);
        }
    }
    assert_eq!(answered, stream.len());
    assert!(early > 0, "calibrated confident inputs should exit early");
    runtime.shutdown();
}

#[test]
fn all_scheduler_kinds_serve_requests() {
    let mut parts = datasets(5, &[400, 8]).into_iter();
    let (train, stream) = (parts.next().unwrap(), parts.next().unwrap());
    let mut eugene = Eugene::new(7);
    let model = quick_train(&mut eugene, &train);
    for scheduler in [
        SchedulerKind::RtDeepIot { lookahead: 2 },
        SchedulerKind::DynamicConstant { lookahead: 1 },
        SchedulerKind::DeadlineAwareRtDeepIot {
            lookahead: 1,
            slack: 2,
        },
        SchedulerKind::RoundRobin,
        SchedulerKind::Fifo,
    ] {
        let runtime = eugene
            .serve(
                model,
                &ServeOptions {
                    scheduler: scheduler.clone(),
                    num_workers: 2,
                    confidence_threshold: 1.0,
                    ..ServeOptions::default()
                },
                Some(&train),
            )
            .expect("serve");
        let class = ServiceClass::new("t", Duration::from_secs(10));
        let receivers: Vec<_> = (0..stream.len())
            .map(|i| {
                runtime.submit(InferenceRequest::new(
                    stream.sample(i).to_vec(),
                    class.clone(),
                ))
            })
            .collect();
        for (_, rx) in receivers {
            let response = rx.recv_timeout(Duration::from_secs(30)).expect("response");
            assert_eq!(
                response.stages_executed, 3,
                "{scheduler:?} should run all stages without early exit"
            );
        }
        runtime.shutdown();
    }
}

#[test]
fn reduction_keeps_the_model_usable_end_to_end() {
    let mut parts = datasets(8, &[500, 300]).into_iter();
    let (train, test) = (parts.next().unwrap(), parts.next().unwrap());
    let mut eugene = Eugene::new(10);
    let model = quick_train(&mut eugene, &train);
    let full_acc = eugene
        .evaluate(model, &test)
        .unwrap()
        .pop()
        .unwrap()
        .accuracy;
    let reduced = eugene.reduce(model, 0.5, &train).expect("reduce");
    let reduced_info = eugene.model_info(reduced).unwrap();
    let full_info = eugene.model_info(model).unwrap();
    assert!(reduced_info.param_count < full_info.param_count);
    let reduced_acc = eugene
        .evaluate(reduced, &test)
        .unwrap()
        .pop()
        .unwrap()
        .accuracy;
    assert!(
        reduced_acc > full_acc - 0.15,
        "reduced accuracy {reduced_acc} vs full {full_acc}"
    );
    // The reduced model can also be served.
    let runtime = eugene
        .serve(reduced, &ServeOptions::default(), Some(&train))
        .expect("serve reduced");
    let class = ServiceClass::new("t", Duration::from_secs(10));
    let (_, rx) = runtime.submit(InferenceRequest::new(test.sample(0).to_vec(), class));
    assert!(rx
        .recv_timeout(Duration::from_secs(30))
        .unwrap()
        .is_answered());
    runtime.shutdown();
}

#[test]
fn tight_deadlines_trigger_the_daemon_but_never_lose_requests() {
    let mut parts = datasets(11, &[400, 20]).into_iter();
    let (train, stream) = (parts.next().unwrap(), parts.next().unwrap());
    let mut eugene = Eugene::new(13);
    let model = quick_train(&mut eugene, &train);
    let runtime = eugene
        .serve(
            model,
            &ServeOptions {
                scheduler: SchedulerKind::Fifo,
                num_workers: 1,
                confidence_threshold: 1.0,
                ..ServeOptions::default()
            },
            None,
        )
        .expect("serve");
    // Sub-millisecond deadline with one worker and 20 queued requests:
    // most must be killed, every one must still answer.
    let class = ServiceClass::new("instant", Duration::from_micros(800));
    let receivers: Vec<_> = (0..stream.len())
        .map(|i| {
            runtime.submit(InferenceRequest::new(
                stream.sample(i).to_vec(),
                class.clone(),
            ))
        })
        .collect();
    let mut expired = 0;
    for (_, rx) in receivers {
        let response = rx.recv_timeout(Duration::from_secs(30)).expect("response");
        if response.expired {
            expired += 1;
        }
    }
    assert!(expired > 0, "deadline kills should fire under overload");
    runtime.shutdown();
}
