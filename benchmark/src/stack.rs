//! Puts a trained model behind a socket, two ways: through the product's
//! front door (`Eugene::serve_gateway` / `Eugene::serve_sharded`) for the
//! numbers users see, and rebuilt by hand from the same public parts with
//! the tracing wrappers in place for the per-layer pass.

use crate::model::TrainedModel;
use crate::trace::{IdleAssigns, TracedEngine, TracedScheduler, Tracer};
use crate::workload::{Front, Workload};
use eugene_net::{Gateway, GatewayConfig, GatewayStatus, ReplicaConfig, ShardConfig, ShardRouter};
use eugene_nn::{Layer, StagedNetwork};
use eugene_profiler::ConvSpec;
use eugene_sched::RtDeepIot;
use eugene_serve::{RuntimeConfig, RuntimeStats, ServingRuntime, StageCostModel};
use eugene_service::{SchedulerKind, ServeOptions, StagedNetworkEngine};
use std::net::SocketAddr;
use std::sync::Arc;

/// A running deployment of either shape.
pub enum Served {
    Gateway(Gateway),
    Router(ShardRouter),
}

impl Served {
    pub fn addr(&self) -> SocketAddr {
        match self {
            Served::Gateway(g) => g.local_addr(),
            Served::Router(r) => r.local_addr(),
        }
    }

    /// Occupancy handles of every runtime behind the socket.
    pub fn runtime_stats(&self) -> Vec<RuntimeStats> {
        match self {
            Served::Gateway(g) => vec![g.stats()],
            Served::Router(r) => r.shard_stats(),
        }
    }

    /// Network-edge gauges of every gateway behind the socket.
    pub fn gateway_status(&self) -> Vec<GatewayStatus> {
        match self {
            Served::Gateway(g) => vec![g.status()],
            Served::Router(r) => (0..r.num_shards()).map(|i| r.shard_status(i)).collect(),
        }
    }

    pub fn router(&self) -> Option<&ShardRouter> {
        match self {
            Served::Gateway(_) => None,
            Served::Router(r) => Some(r),
        }
    }

    pub fn shutdown(self) {
        match self {
            Served::Gateway(g) => g.shutdown(),
            Served::Router(r) => r.shutdown(),
        }
    }
}

/// The serving options of a workload. Everything not named follows the
/// product's defaults, so a change of default shows up in the numbers.
pub fn serve_options(workload: &Workload) -> ServeOptions {
    ServeOptions {
        scheduler: SchedulerKind::RtDeepIot { lookahead: 1 },
        num_workers: match workload.front {
            Front::Gateway { workers } => workers,
            Front::Sharded { .. } => 1,
        },
        confidence_threshold: workload.confidence_threshold,
        max_batch: 8,
        overload: workload.overload,
        ..ServeOptions::default()
    }
}

/// `GatewayConfig::default()` plus the class utilities of the traffic
/// mix, which admission needs to shed the cheaper class first.
///
/// Steady workloads also lift the admission caps out of reach. They run
/// far below saturation, where the default caps (64 / 128 in flight) only
/// ever trip when the host freezes the process for tens of milliseconds
/// and the overdue requests arrive as one burst; a reject there would
/// record the host, not the service. The overload workload, whose subject
/// is admission, keeps the default caps.
pub fn gateway_config(workload: &Workload) -> GatewayConfig {
    let defaults = GatewayConfig::default();
    let lift = if workload.steady { 16 } else { 1 };
    GatewayConfig {
        class_utility: workload
            .classes
            .iter()
            .map(|c| (c.name.to_owned(), c.utility))
            .collect(),
        high_water: defaults.high_water * lift,
        hard_cap: defaults.hard_cap * lift,
        ..defaults
    }
}

/// Serves the model the way a user of the library would.
pub fn start_facade(workload: &Workload, model: &TrainedModel) -> Served {
    let options = serve_options(workload);
    let data = Some(&model.train);
    match workload.front {
        Front::Gateway { .. } => Served::Gateway(
            model
                .eugene
                .serve_gateway(model.id, &options, data, gateway_config(workload))
                .expect("gateway binds a loopback port"),
        ),
        Front::Sharded { shards } => Served::Router(
            model
                .eugene
                .serve_sharded(
                    model.id,
                    &options,
                    data,
                    shards,
                    ReplicaConfig::default(),
                    ShardConfig {
                        gateway: gateway_config(workload),
                        ..ShardConfig::default()
                    },
                )
                .expect("router and shards bind loopback ports"),
        ),
    }
}

/// A private copy of the registered network (the façade keeps its own),
/// bit-identical because snapshots carry the raw weights and
/// quantization is a pure function of them.
pub fn network_copy(workload: &Workload, model: &TrainedModel) -> StagedNetwork {
    let snapshot = model
        .eugene
        .export_model(model.id)
        .expect("model is registered");
    let mut network = StagedNetwork::from_snapshot(&snapshot).expect("own snapshot is valid");
    if workload.int8 {
        let stages: Vec<usize> = (0..network.num_stages()).collect();
        network.quantize_stages(&stages);
    }
    network
}

/// The traced twin of [`start_facade`]: the same stack, assembled by hand
/// the way `Eugene::serve` assembles it (same scheduler, same cost
/// priors, same runtime and gateway configuration), with `TracedEngine`
/// and `TracedScheduler` between the runtime and the real parts. Returns
/// the deployment and the network it serves (for plan-cache counters).
pub fn start_traced(
    workload: &Workload,
    model: &TrainedModel,
    tracer: &Arc<Tracer>,
    idle: &Arc<IdleAssigns>,
) -> (Served, Arc<StagedNetwork>) {
    let options = serve_options(workload);
    let network = Arc::new(network_copy(workload, model));
    // `Eugene::serve` prices each stage at its parameter count times the
    // device model's mean per-parameter cost over the Table-1 layers.
    let (total_ms, total_macs) = ConvSpec::table1_rows()
        .iter()
        .fold((0.0, 0u64), |(ms, macs), (_, spec)| {
            (ms + model.eugene.profile_layer(spec), macs + spec.macs())
        });
    let ns_per_param = total_ms * 1e6 / total_macs.max(1) as f64;
    let priors: Vec<f64> = (0..network.num_stages())
        .map(|s| {
            let params = network.stages()[s].param_count() + network.heads()[s].param_count();
            (params as f64 * ns_per_param / 1e6).max(1e-3)
        })
        .collect();
    let runtime = || {
        let predictor = model
            .eugene
            .fit_confidence_predictor(model.id, &model.train)
            .expect("predictor fits on the training split");
        let baseline = 1.0 / network.num_classes() as f32;
        let scheduler = TracedScheduler::new(
            Box::new(RtDeepIot::new(predictor, 1, baseline)),
            Arc::clone(tracer),
            Arc::clone(idle),
        );
        let engine = TracedEngine::new(
            Arc::new(StagedNetworkEngine::new(Arc::clone(&network))),
            Arc::clone(tracer),
        );
        ServingRuntime::start_with_cost_model(
            Arc::new(engine),
            Box::new(scheduler),
            RuntimeConfig {
                num_workers: options.num_workers,
                confidence_threshold: options.confidence_threshold,
                max_batch: options.max_batch,
                gather_window: options.gather_window,
                overload: options.overload,
                queue_high_water: options.queue_high_water,
                ..RuntimeConfig::default()
            },
            StageCostModel::from_priors(priors.clone()),
        )
    };
    let served = match workload.front {
        Front::Gateway { .. } => Served::Gateway(
            Gateway::start(runtime(), gateway_config(workload))
                .expect("gateway binds a loopback port"),
        ),
        Front::Sharded { shards } => Served::Router(
            ShardRouter::start(
                (0..shards).map(|_| runtime()).collect(),
                ShardConfig {
                    gateway: gateway_config(workload),
                    ..ShardConfig::default()
                },
            )
            .expect("router and shards bind loopback ports"),
        ),
    };
    (served, network)
}
