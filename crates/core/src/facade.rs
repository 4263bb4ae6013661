use crate::{EugeneError, StagedNetworkEngine};
use eugene_calibrate::{
    CalibrationOutcome, EntropyCalibrator, MeanVarianceConfig, MeanVarianceEstimator,
};
use eugene_compress::{prune_nodes, CachedModel, CachedModelConfig};
use eugene_data::Dataset;
use eugene_label::{LabelingOutcome, SemiSupervisedLabeler};
use eugene_net::{Gateway, GatewayConfig, ReplicaConfig, ShardConfig, ShardRouter};
use eugene_nn::{
    evaluate_staged, NetworkSnapshot, Precision, StageEval, StageOutput, StagedNetwork,
    StagedNetworkConfig, TrainConfig, Trainer,
};
use eugene_partition::{EarlyExitProfile, LinkModel, PartitionPlan, PartitionPlanner, StageCost};
use eugene_profiler::{ConvSpec, DeviceModel};
use eugene_sched::{
    DcPredictor, DeadlineAware, Fifo, PwlCurvePredictor, RoundRobin, RtDeepIot, Scheduler,
};
use eugene_serve::{
    ModelRegistry, OverloadPolicy, RuntimeConfig, ServingRuntime, StageCostModel, VariantDispatcher,
};
use eugene_tensor::{seeded_rng, Matrix};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Handle to a model held by the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ModelId(u64);

/// Metadata about a registered model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelInfo {
    /// The handle.
    pub id: ModelId,
    /// Number of stages.
    pub num_stages: usize,
    /// Input dimensionality.
    pub input_dim: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Trainable parameter count.
    pub param_count: usize,
}

/// A training request for [`Eugene::train`].
#[derive(Debug, Clone)]
pub struct TrainRequest<'a> {
    /// Client-supplied labeled data.
    pub data: &'a Dataset,
    /// Network architecture; `None` uses the standard three-stage layout.
    pub architecture: Option<StagedNetworkConfig>,
    /// Trainer hyper-parameters.
    pub train: TrainConfig,
}

impl<'a> TrainRequest<'a> {
    /// A short training run with default architecture — handy for
    /// examples and tests.
    pub fn quick(data: &'a Dataset) -> Self {
        Self {
            data,
            architecture: None,
            train: TrainConfig {
                epochs: 10,
                ..TrainConfig::default()
            },
        }
    }

    /// A full-length training run with default architecture.
    pub fn standard(data: &'a Dataset) -> Self {
        Self {
            data,
            architecture: None,
            train: TrainConfig::default(),
        }
    }
}

/// Scheduling policy selection for [`Eugene::serve`].
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerKind {
    /// The utility-maximizing RTDeepIoT scheduler with lookahead `k`,
    /// driven by GP-fit piecewise-linear confidence curves learned from
    /// the given training data.
    RtDeepIot {
        /// Lookahead parameter `k`.
        lookahead: usize,
    },
    /// The constant-slope ablation.
    DynamicConstant {
        /// Lookahead parameter `k`.
        lookahead: usize,
    },
    /// RTDeepIoT wrapped in the deadline-aware adapter (paper SV):
    /// near-deadline tasks preempt pure utility maximization.
    DeadlineAwareRtDeepIot {
        /// Lookahead parameter `k`.
        lookahead: usize,
        /// Criticality slack in scheduling quanta.
        slack: u64,
    },
    /// Stage-level round robin.
    RoundRobin,
    /// First-come-first-served run-to-completion.
    Fifo,
}

/// Options for [`Eugene::serve`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Scheduling policy.
    pub scheduler: SchedulerKind,
    /// Worker threads.
    pub num_workers: usize,
    /// Early-exit confidence threshold (`1.0` disables).
    pub confidence_threshold: f32,
    /// Largest fused stage batch (`1` disables micro-batching).
    pub max_batch: usize,
    /// How long same-stage requests may gather before a partial batch
    /// dispatches anyway (ignored when `max_batch == 1`).
    pub gather_window: std::time::Duration,
    /// What the runtime does with requests it cannot finish in time:
    /// [`OverloadPolicy::Kill`] expires them empty-handed,
    /// [`OverloadPolicy::Degrade`] force-exits them at the deepest
    /// completed stage (anytime degradation).
    pub overload: OverloadPolicy,
    /// Parked-queue depth above which [`OverloadPolicy::Degrade`] starts
    /// shedding the lowest utility-density requests early.
    pub queue_high_water: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let runtime = RuntimeConfig::default();
        Self {
            scheduler: SchedulerKind::RtDeepIot { lookahead: 1 },
            num_workers: 4,
            confidence_threshold: 1.0,
            max_batch: runtime.max_batch,
            gather_window: runtime.gather_window,
            overload: runtime.overload,
            queue_high_water: runtime.queue_high_water,
        }
    }
}

/// One named model behind a [`Eugene::serve_multi`] deployment.
#[derive(Debug, Clone)]
pub struct ModelVariant {
    /// Registry name clients address requests to
    /// ([`eugene_net::SubmitOptions::model`]).
    pub name: String,
    /// The registered model served under that name.
    pub model: ModelId,
    /// Per-variant runtime budgets: workers, batching, exit threshold.
    pub options: ServeOptions,
}

/// Data-aware routing policy for [`Eugene::serve_multi`]: submissions
/// that name no model are dispatched per payload between a cheap
/// early-exit variant and the full model.
#[derive(Debug, Clone)]
pub struct DispatchPolicy<'a> {
    /// Variant served when the input is predicted easy — typically a
    /// reduced model with early exit enabled.
    pub easy: &'a str,
    /// Variant served otherwise — typically the full model.
    pub hard: &'a str,
    /// Stage-1 confidence the easy variant must be predicted to reach
    /// for the cheap route to be trusted with the input.
    pub threshold: f32,
    /// Risk aversion, in predicted standard deviations of confidence the
    /// router holds in reserve. The effective margin is scaled down by
    /// the variants' cost ratio under the device model: the cheaper the
    /// easy variant, the less head-room the router demands.
    pub caution: f32,
    /// Calibration data the confidence estimator is fitted on.
    pub data: &'a Dataset,
}

/// The deep-intelligence-as-a-service façade; see the crate docs for the
/// service-to-method map.
pub struct Eugene {
    models: HashMap<u64, Arc<StagedNetwork>>,
    next_id: u64,
    rng: StdRng,
    device: DeviceModel,
}

impl Eugene {
    /// Creates a service instance seeded for reproducibility.
    pub fn new(seed: u64) -> Self {
        Self {
            models: HashMap::new(),
            next_id: 0,
            rng: seeded_rng(seed),
            device: DeviceModel::nexus5_class(),
        }
    }

    /// Number of registered models.
    pub fn model_count(&self) -> usize {
        self.models.len()
    }

    fn network(&self, id: ModelId) -> Result<&Arc<StagedNetwork>, EugeneError> {
        self.models
            .get(&id.0)
            .ok_or(EugeneError::UnknownModel { id: id.0 })
    }

    fn register(&mut self, network: StagedNetwork) -> ModelId {
        let id = self.next_id;
        self.next_id += 1;
        self.publish(id, network);
        ModelId(id)
    }

    /// Stores `network` as model `id`. A published model is served, not
    /// trained, so it sheds its gradient buffers (a second full copy of
    /// the weights); training a copy later re-materialises them.
    fn publish(&mut self, id: u64, mut network: StagedNetwork) {
        network.release_training_state();
        self.models.insert(id, Arc::new(network));
    }

    /// §II-A *training*: fits a staged network on client data and
    /// registers it.
    ///
    /// # Errors
    ///
    /// Returns [`EugeneError::EmptyDataset`] if the dataset is empty.
    pub fn train(&mut self, request: TrainRequest<'_>) -> Result<ModelId, EugeneError> {
        if request.data.is_empty() {
            return Err(EugeneError::EmptyDataset);
        }
        let architecture = request.architecture.unwrap_or_else(|| {
            StagedNetworkConfig::three_stage(request.data.dim(), request.data.num_classes())
        });
        let mut network = StagedNetwork::new(&architecture, &mut self.rng);
        Trainer::new(request.train).fit(&mut network, request.data, &mut self.rng);
        Ok(self.register(network))
    }

    /// Registers an externally built network (e.g. a pruned model coming
    /// back from fine-tuning).
    pub fn register_model(&mut self, network: StagedNetwork) -> ModelId {
        self.register(network)
    }

    /// §II-B model shipping: exports a model as a serializable snapshot —
    /// what the server "downloads ... to the device" when caching.
    ///
    /// # Errors
    ///
    /// Returns [`EugeneError::UnknownModel`] for an unissued id.
    pub fn export_model(&self, id: ModelId) -> Result<NetworkSnapshot, EugeneError> {
        Ok(self.network(id)?.to_snapshot())
    }

    /// Imports a snapshot (e.g. received from a peer server) and registers
    /// the restored model.
    ///
    /// # Errors
    ///
    /// Returns [`EugeneError::MalformedSnapshot`] if the snapshot is
    /// structurally invalid.
    pub fn import_model(&mut self, snapshot: &NetworkSnapshot) -> Result<ModelId, EugeneError> {
        let network =
            StagedNetwork::from_snapshot(snapshot).map_err(|e| EugeneError::MalformedSnapshot {
                reason: e.to_string(),
            })?;
        Ok(self.register(network))
    }

    /// Metadata for a registered model.
    ///
    /// # Errors
    ///
    /// Returns [`EugeneError::UnknownModel`] for an unissued id.
    pub fn model_info(&self, id: ModelId) -> Result<ModelInfo, EugeneError> {
        let network = self.network(id)?;
        Ok(ModelInfo {
            id,
            num_stages: network.num_stages(),
            input_dim: network.input_dim(),
            num_classes: network.num_classes(),
            param_count: network.param_count(),
        })
    }

    /// §II-A *labeling*: proposes labels for `unlabeled` from a small
    /// labeled seed set.
    ///
    /// # Errors
    ///
    /// Returns [`EugeneError::EmptyDataset`] if the seed set is empty, or
    /// [`EugeneError::DimensionMismatch`] if dimensionalities differ.
    pub fn label(
        &mut self,
        labeled: &Dataset,
        unlabeled: &Matrix,
    ) -> Result<LabelingOutcome, EugeneError> {
        if labeled.is_empty() {
            return Err(EugeneError::EmptyDataset);
        }
        if labeled.dim() != unlabeled.cols() {
            return Err(EugeneError::DimensionMismatch {
                expected: labeled.dim(),
                actual: unlabeled.cols(),
            });
        }
        Ok(SemiSupervisedLabeler::default().label(labeled, unlabeled, &mut self.rng))
    }

    /// §III-A *result quality*: entropy-calibrates a model in place
    /// against a calibration split.
    ///
    /// # Errors
    ///
    /// Returns [`EugeneError::UnknownModel`] or
    /// [`EugeneError::EmptyDataset`].
    pub fn calibrate(
        &mut self,
        id: ModelId,
        calibration: &Dataset,
    ) -> Result<CalibrationOutcome, EugeneError> {
        if calibration.is_empty() {
            return Err(EugeneError::EmptyDataset);
        }
        let network = self.network(id)?;
        let mut copy = (**network).clone();
        let outcome = EntropyCalibrator::default().calibrate(&mut copy, calibration, &mut self.rng);
        self.publish(id.0, copy);
        Ok(outcome)
    }

    /// §II-B *model reduction*: node-prunes a model, fine-tunes the
    /// reduction on `data`, and registers the smaller model.
    ///
    /// # Errors
    ///
    /// Returns [`EugeneError::UnknownModel`] or
    /// [`EugeneError::EmptyDataset`].
    pub fn reduce(
        &mut self,
        id: ModelId,
        keep_fraction: f64,
        data: &Dataset,
    ) -> Result<ModelId, EugeneError> {
        if data.is_empty() {
            return Err(EugeneError::EmptyDataset);
        }
        let network = self.network(id)?;
        let mut pruned = prune_nodes(network, keep_fraction);
        Trainer::new(TrainConfig {
            epochs: 8,
            learning_rate: 5e-4,
            ..TrainConfig::default()
        })
        .fit(&mut pruned, data, &mut self.rng);
        Ok(self.register(pruned))
    }

    /// Switches the listed trunk stages of a registered model to
    /// quantized (i8) serving; stages not listed revert to f32. The
    /// usual deployment quantizes the *early* stages — they run for
    /// every request, so that is where the i8 kernel tier's per-core
    /// speedup buys the most throughput — while late stages and all
    /// exit heads keep f32 accuracy. Returns the resulting per-stage
    /// precisions.
    ///
    /// Runtimes already serving this model are unaffected (they hold
    /// their own snapshot); runtimes started afterwards — including
    /// [`Eugene::serve_multi`] variants — serve the quantized stages
    /// and track their latencies in per-precision cost-model lanes.
    ///
    /// # Errors
    ///
    /// Returns [`EugeneError::UnknownModel`] for an unissued id.
    pub fn quantize_model(
        &mut self,
        id: ModelId,
        stages: &[usize],
    ) -> Result<Vec<Precision>, EugeneError> {
        let arc = self
            .models
            .get_mut(&id.0)
            .ok_or(EugeneError::UnknownModel { id: id.0 })?;
        let network = Arc::make_mut(arc);
        network.quantize_stages(stages);
        Ok(network.stage_precisions())
    }

    /// §II-B *caching*: trains a reduced frequent-classes-plus-other model
    /// for on-device deployment.
    ///
    /// # Errors
    ///
    /// Returns [`EugeneError::EmptyDataset`] if `data` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `frequent_classes` is empty or invalid (see
    /// [`CachedModel::build`]).
    pub fn build_cached_model(
        &mut self,
        data: &Dataset,
        frequent_classes: &[usize],
        config: &CachedModelConfig,
    ) -> Result<CachedModel, EugeneError> {
        if data.is_empty() {
            return Err(EugeneError::EmptyDataset);
        }
        Ok(CachedModel::build(
            data,
            frequent_classes,
            config,
            &mut self.rng,
        ))
    }

    /// §II-C *execution profiling*: predicted latency of a layer on the
    /// service's device model.
    pub fn profile_layer(&self, spec: &ConvSpec) -> f64 {
        self.device.latency_ms(spec)
    }

    /// §II-D *result quality for estimation tasks*: trains a regression
    /// model that returns a `(mean, standard deviation)` distribution
    /// estimate per input (the RDeepSense-style service).
    ///
    /// # Errors
    ///
    /// Returns [`EugeneError::EmptyDataset`] if `inputs` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != inputs.rows()`.
    pub fn train_estimator(
        &mut self,
        inputs: &Matrix,
        targets: &[f32],
        config: &MeanVarianceConfig,
    ) -> Result<MeanVarianceEstimator, EugeneError> {
        if inputs.rows() == 0 {
            return Err(EugeneError::EmptyDataset);
        }
        Ok(MeanVarianceEstimator::fit(
            inputs,
            targets,
            0.2,
            config,
            &mut self.rng,
        ))
    }

    /// §IV-A *distributing the inference model*: plans the client/server
    /// split of a model under the given link, exploiting the early-exit
    /// probabilities measured on `data` at `exit_threshold`.
    ///
    /// `device_ns_per_param` / `server_ns_per_param` price one parameter's
    /// multiply-accumulate on each side (e.g. `5.0` for an embedded CPU,
    /// `0.2` for a server-class accelerator).
    ///
    /// # Errors
    ///
    /// Returns facade errors for bad ids/data.
    ///
    /// # Panics
    ///
    /// Panics if either speed is not positive.
    pub fn plan_partition(
        &self,
        id: ModelId,
        data: &Dataset,
        exit_threshold: f32,
        link: &LinkModel,
        device_ns_per_param: f64,
        server_ns_per_param: f64,
    ) -> Result<PartitionPlan, EugeneError> {
        assert!(
            device_ns_per_param > 0.0 && server_ns_per_param > 0.0,
            "per-parameter speeds must be positive"
        );
        if data.is_empty() {
            return Err(EugeneError::EmptyDataset);
        }
        let network = self.network(id)?;
        let stages: Vec<StageCost> = network
            .stages()
            .iter()
            .enumerate()
            .map(|(s, stage)| {
                use eugene_nn::Layer;
                let params = (stage.param_count() + network.heads()[s].param_count()) as f64;
                StageCost {
                    device_ms: params * device_ns_per_param / 1e6,
                    server_ms: params * server_ns_per_param / 1e6,
                    boundary_bytes: network.stage_output_dim(s) as u64 * 4,
                }
            })
            .collect();
        let planner =
            PartitionPlanner::new(stages, network.input_dim() as u64 * 4).expect("stages exist");
        let evals = self.evaluate(id, data)?;
        let curves: Vec<Vec<f32>> = (0..data.len())
            .map(|i| evals.iter().map(|e| e.confidences[i]).collect())
            .collect();
        let exits = EarlyExitProfile::from_confidence_curves(&curves, exit_threshold)
            .expect("non-empty curves");
        Ok(planner.plan(link, &exits))
    }

    /// Classifies one sample through every stage of a model.
    ///
    /// # Errors
    ///
    /// Returns [`EugeneError::UnknownModel`] or
    /// [`EugeneError::DimensionMismatch`].
    pub fn classify(&self, id: ModelId, sample: &[f32]) -> Result<Vec<StageOutput>, EugeneError> {
        let network = self.network(id)?;
        if sample.len() != network.input_dim() {
            return Err(EugeneError::DimensionMismatch {
                expected: network.input_dim(),
                actual: sample.len(),
            });
        }
        Ok(network.classify(sample))
    }

    /// Evaluates a model's stage heads on a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`EugeneError::UnknownModel`] or
    /// [`EugeneError::DimensionMismatch`].
    pub fn evaluate(&self, id: ModelId, data: &Dataset) -> Result<Vec<StageEval>, EugeneError> {
        let network = self.network(id)?;
        if data.dim() != network.input_dim() {
            return Err(EugeneError::DimensionMismatch {
                expected: network.input_dim(),
                actual: data.dim(),
            });
        }
        Ok(evaluate_staged(network, data))
    }

    /// §III-B: fits the GP-then-piecewise-linear confidence-curve
    /// predictor from a model's behavior on training data.
    ///
    /// # Errors
    ///
    /// Returns façade errors for bad ids/data, or
    /// [`EugeneError::ConfidenceFit`] if the GP fit fails.
    pub fn fit_confidence_predictor(
        &self,
        id: ModelId,
        data: &Dataset,
    ) -> Result<PwlCurvePredictor, EugeneError> {
        if data.is_empty() {
            return Err(EugeneError::EmptyDataset);
        }
        let evals = self.evaluate(id, data)?;
        let n = data.len();
        let curves: Vec<Vec<f32>> = (0..n)
            .map(|i| evals.iter().map(|e| e.confidences[i]).collect())
            .collect();
        Ok(PwlCurvePredictor::fit(&curves, 10)?)
    }

    /// §III-C *run-time inference*: starts a serving runtime over a
    /// model. `predictor_data` trains the confidence-curve models for the
    /// utility-maximizing schedulers (ignored by RR/FIFO).
    ///
    /// # Errors
    ///
    /// Returns façade errors for bad ids/data.
    pub fn serve(
        &self,
        id: ModelId,
        options: &ServeOptions,
        predictor_data: Option<&Dataset>,
    ) -> Result<ServingRuntime, EugeneError> {
        let network = self.network(id)?;
        let baseline = 1.0 / network.num_classes() as f32;
        let scheduler: Box<dyn Scheduler> = match &options.scheduler {
            SchedulerKind::RtDeepIot { lookahead } => {
                let data = predictor_data.ok_or(EugeneError::EmptyDataset)?;
                let predictor = self.fit_confidence_predictor(id, data)?;
                Box::new(RtDeepIot::new(predictor, *lookahead, baseline))
            }
            SchedulerKind::DynamicConstant { lookahead } => {
                let data = predictor_data.ok_or(EugeneError::EmptyDataset)?;
                let evals = self.evaluate(id, data)?;
                let priors: Vec<f32> = evals.iter().map(StageEval::mean_confidence).collect();
                Box::new(
                    RtDeepIot::new(DcPredictor::new(priors), *lookahead, baseline)
                        .with_name(format!("RTDeepIoT-DC-{lookahead}")),
                )
            }
            SchedulerKind::DeadlineAwareRtDeepIot { lookahead, slack } => {
                let data = predictor_data.ok_or(EugeneError::EmptyDataset)?;
                let predictor = self.fit_confidence_predictor(id, data)?;
                Box::new(DeadlineAware::new(
                    RtDeepIot::new(predictor, *lookahead, baseline),
                    *slack,
                ))
            }
            SchedulerKind::RoundRobin => Box::new(RoundRobin::new()),
            SchedulerKind::Fifo => Box::new(Fifo::new()),
        };
        let engine = Arc::new(StagedNetworkEngine::new(Arc::clone(network)));
        // Cold-start Δtime priors for the utility-density scheduler: each
        // stage priced as its parameter count at the device model's mean
        // per-parameter rate (§II-C), refined online by measured EMAs.
        let ns = self.per_param_ns();
        let priors: Vec<f64> = (0..network.num_stages())
            .map(|s| {
                use eugene_nn::Layer;
                let params = network.stages()[s].param_count() + network.heads()[s].param_count();
                (params as f64 * ns / 1e6).max(1e-3)
            })
            .collect();
        Ok(ServingRuntime::start_with_cost_model(
            engine,
            scheduler,
            RuntimeConfig {
                num_workers: options.num_workers,
                confidence_threshold: options.confidence_threshold,
                max_batch: options.max_batch,
                gather_window: options.gather_window,
                overload: options.overload,
                queue_high_water: options.queue_high_water,
                ..RuntimeConfig::default()
            },
            StageCostModel::from_priors(priors),
        ))
    }

    /// *Deep intelligence as a service*, literally: starts a serving
    /// runtime (as [`Eugene::serve`]) and exposes it over TCP behind a
    /// [`Gateway`] with atomic admission control. Remote clients talk to
    /// it with the serial [`eugene_net::EugeneClient`] (one request in
    /// flight per connection) or the pipelining
    /// [`eugene_net::MultiplexClient`], which interleaves arbitrarily
    /// many tagged in-flight requests — with per-stage progress streams —
    /// over a single connection. One event loop (epoll on Linux) serves
    /// every connection and holds tens of thousands of idle ones; no
    /// thread is ever spawned per connection or per request, and
    /// [`Gateway::status`] exposes admission/accept/thread gauges for
    /// monitoring.
    ///
    /// # Errors
    ///
    /// Returns façade errors for bad ids/data, or
    /// [`EugeneError::Network`] if the gateway cannot bind its address.
    pub fn serve_gateway(
        &self,
        id: ModelId,
        options: &ServeOptions,
        predictor_data: Option<&Dataset>,
        gateway: GatewayConfig,
    ) -> Result<Gateway, EugeneError> {
        let runtime = self.serve(id, options, predictor_data)?;
        Gateway::start(runtime, gateway).map_err(|e| EugeneError::Network {
            reason: e.to_string(),
        })
    }

    /// Horizontal scale-out of [`Eugene::serve_gateway`]: starts `shards`
    /// independent serving runtimes over the same model, one [`Gateway`]
    /// each, behind a [`ShardRouter`] that consistently hashes routing
    /// keys across them. Clients connect to
    /// [`ShardRouter::local_addr`] with the exact same wire protocol —
    /// nothing changes on the client side except (optionally) supplying a
    /// routing key for session affinity.
    ///
    /// `replica` sets the tier's replication posture: under the default
    /// [`eugene_net::FailoverPolicy::Replay`], a shard dying mid-flight
    /// transparently replays its in-flight requests to each key's warm
    /// standby (the ring successor) and clients see normal answers;
    /// under [`eugene_net::FailoverPolicy::Reject`], failures surface as
    /// the legacy [`eugene_net::RejectReason::ShardLost`] rejects while
    /// new sessions re-admit onto survivors. The router also supports
    /// live elasticity ([`ShardRouter::add_shard`] /
    /// [`ShardRouter::remove_shard`]) with a double-routing migration
    /// window governed by [`ReplicaConfig::migration_window`].
    ///
    /// # Errors
    ///
    /// Returns façade errors for bad ids/data, or
    /// [`EugeneError::Network`] if the router or a shard gateway cannot
    /// bind its address.
    pub fn serve_sharded(
        &self,
        id: ModelId,
        options: &ServeOptions,
        predictor_data: Option<&Dataset>,
        shards: usize,
        replica: ReplicaConfig,
        mut config: ShardConfig,
    ) -> Result<ShardRouter, EugeneError> {
        assert!(shards > 0, "serve_sharded needs at least one shard");
        config.replica = replica;
        let runtimes = (0..shards)
            .map(|_| self.serve(id, options, predictor_data))
            .collect::<Result<Vec<_>, _>>()?;
        ShardRouter::start(runtimes, config).map_err(|e| EugeneError::Network {
            reason: e.to_string(),
        })
    }

    /// Multi-model serving: starts one runtime per variant — each with
    /// its own scheduler, worker pool, and batching budget — behind a
    /// single [`Gateway`] fronting a [`ModelRegistry`]. Clients address a
    /// variant by name ([`eugene_net::SubmitOptions::model`]); models can
    /// be loaded and unloaded at runtime through [`Gateway::registry`],
    /// and per-tenant admission quotas come from
    /// [`GatewayConfig::tenant_quotas`].
    ///
    /// Anonymous submissions go to `default_model` — unless `dispatch` is
    /// given, in which case a data-aware dispatcher picks the variant per
    /// payload: a mean-variance estimator (the §II-D estimation service)
    /// is fitted to the easy variant's stage-1 confidence on
    /// `dispatch.data`, and a request takes the cheap route only when its
    /// predicted confidence clears [`DispatchPolicy::threshold`] with a
    /// margin of `caution / advantage` standard deviations, where
    /// `advantage` is the variants' cost ratio priced by the §II-C device
    /// model.
    ///
    /// # Errors
    ///
    /// Returns façade errors for bad ids/data, [`EugeneError::Network`]
    /// if the gateway cannot bind, or [`EugeneError::EmptyDataset`] if
    /// `dispatch.data` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `variants` is empty or `default_model` /
    /// [`DispatchPolicy::easy`] / [`DispatchPolicy::hard`] name no
    /// variant.
    pub fn serve_multi(
        &mut self,
        variants: &[ModelVariant],
        default_model: &str,
        dispatch: Option<&DispatchPolicy<'_>>,
        predictor_data: Option<&Dataset>,
        gateway: GatewayConfig,
    ) -> Result<Gateway, EugeneError> {
        assert!(
            !variants.is_empty(),
            "serve_multi needs at least one variant"
        );
        assert!(
            variants.iter().any(|v| v.name == default_model),
            "default model {default_model:?} names no variant"
        );
        // Fit the dispatcher before spinning up any runtime so a bad
        // policy fails without leaving worker pools behind.
        let dispatcher = dispatch
            .map(|policy| self.fit_dispatcher(variants, policy))
            .transpose()?;
        let registry = ModelRegistry::new(default_model);
        for variant in variants {
            let runtime = self.serve(variant.model, &variant.options, predictor_data)?;
            registry.load(&variant.name, runtime);
        }
        if let Some(dispatcher) = dispatcher {
            registry.set_dispatcher(dispatcher);
        }
        Gateway::start_registry(registry.clone(), gateway).map_err(|e| {
            registry.shutdown();
            EugeneError::Network {
                reason: e.to_string(),
            }
        })
    }

    /// Builds the data-aware variant router for [`Eugene::serve_multi`].
    fn fit_dispatcher(
        &mut self,
        variants: &[ModelVariant],
        policy: &DispatchPolicy<'_>,
    ) -> Result<Arc<dyn VariantDispatcher>, EugeneError> {
        let find = |name: &str| -> ModelId {
            variants
                .iter()
                .find(|v| v.name == name)
                .unwrap_or_else(|| panic!("dispatch variant {name:?} names no variant"))
                .model
        };
        let (easy_id, hard_id) = (find(policy.easy), find(policy.hard));
        if policy.data.is_empty() {
            return Err(EugeneError::EmptyDataset);
        }
        // Target: the stage-1 confidence each calibration sample would
        // get from the cheap route.
        let stage1 = self.evaluate(easy_id, policy.data)?[0].confidences.clone();
        let estimator = MeanVarianceEstimator::fit(
            policy.data.features(),
            &stage1,
            0.2,
            &MeanVarianceConfig::default(),
            &mut self.rng,
        );
        // Price both variants on the device model; a bigger cost
        // advantage for the easy variant buys a thinner safety margin.
        let ns = self.per_param_ns();
        let easy_ms = self.network(easy_id)?.param_count() as f64 * ns / 1e6;
        let hard_ms = self.network(hard_id)?.param_count() as f64 * ns / 1e6;
        let advantage = (hard_ms / easy_ms.max(f64::MIN_POSITIVE)).max(1.0) as f32;
        let margin = policy.caution / advantage;
        let input_dim = self.network(easy_id)?.input_dim();
        let threshold = policy.threshold;
        let (easy, hard) = (policy.easy.to_owned(), policy.hard.to_owned());
        Ok(Arc::new(move |payload: &[f32]| {
            // Malformed payloads take the default/full route and fail
            // there exactly as they would in a single-model deployment.
            if payload.len() != input_dim {
                return hard.clone();
            }
            let (mean, sigma) = estimator.predict(payload);
            if mean - margin * sigma >= threshold {
                easy.clone()
            } else {
                hard.clone()
            }
        }))
    }

    /// Mean device-model cost of one multiply-accumulate in nanoseconds,
    /// read off the profiler's Table-1 reference layers — a
    /// per-parameter price for comparing dense variants on this device.
    fn per_param_ns(&self) -> f64 {
        let mut total_ms = 0.0;
        let mut total_macs = 0u64;
        for (_, spec) in ConvSpec::table1_rows() {
            total_ms += self.device.latency_ms(&spec);
            total_macs += spec.macs();
        }
        total_ms * 1e6 / total_macs.max(1) as f64
    }
}

impl std::fmt::Debug for Eugene {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Eugene({} models)", self.models.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eugene_data::{SyntheticImages, SyntheticImagesConfig};
    use eugene_serve::{InferenceRequest, ServiceClass};
    use std::time::Duration;

    fn dataset(seed: u64, n: usize) -> Dataset {
        datasets(seed, &[n]).pop().unwrap()
    }

    /// Draws several datasets from ONE generator so they share class
    /// prototypes (separate generators are separate problems).
    fn datasets(seed: u64, sizes: &[usize]) -> Vec<Dataset> {
        let mut rng = seeded_rng(seed);
        let gen = SyntheticImages::new(
            SyntheticImagesConfig {
                num_classes: 4,
                dim: 10,
                ..Default::default()
            },
            &mut rng,
        );
        sizes.iter().map(|&n| gen.generate(n, &mut rng).0).collect()
    }

    #[test]
    fn train_classify_evaluate_round_trip() {
        let data = dataset(1, 300);
        let mut eugene = Eugene::new(2);
        let id = eugene.train(TrainRequest::quick(&data)).unwrap();
        let info = eugene.model_info(id).unwrap();
        assert_eq!(info.num_stages, 3);
        assert_eq!(info.input_dim, 10);
        let outputs = eugene.classify(id, data.sample(0)).unwrap();
        assert_eq!(outputs.len(), 3);
        let evals = eugene.evaluate(id, &data).unwrap();
        assert!(evals[2].accuracy > 0.4);
    }

    #[test]
    fn unknown_model_and_dimension_errors() {
        let data = dataset(3, 50);
        let mut eugene = Eugene::new(4);
        assert!(matches!(
            eugene.classify(ModelId(99), &[0.0; 10]),
            Err(EugeneError::UnknownModel { .. })
        ));
        let id = eugene.train(TrainRequest::quick(&data)).unwrap();
        assert!(matches!(
            eugene.classify(id, &[0.0; 3]),
            Err(EugeneError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn reduce_shrinks_parameters() {
        let data = dataset(5, 300);
        let mut eugene = Eugene::new(6);
        let id = eugene.train(TrainRequest::quick(&data)).unwrap();
        let small = eugene.reduce(id, 0.5, &data).unwrap();
        let big_info = eugene.model_info(id).unwrap();
        let small_info = eugene.model_info(small).unwrap();
        assert!(small_info.param_count < big_info.param_count / 2);
        assert_eq!(eugene.model_count(), 2);
    }

    #[test]
    fn calibrate_does_not_increase_ece() {
        let mut parts = datasets(7, &[300, 300]).into_iter();
        let (data, calib) = (parts.next().unwrap(), parts.next().unwrap());
        let mut eugene = Eugene::new(9);
        let id = eugene
            .train(TrainRequest {
                data: &data,
                architecture: None,
                train: TrainConfig {
                    epochs: 60,
                    ..TrainConfig::default()
                },
            })
            .unwrap();
        let outcome = eugene.calibrate(id, &calib).unwrap();
        assert!(outcome.ece_after <= outcome.ece_before + 1e-9);
    }

    #[test]
    fn confidence_predictor_fits() {
        let data = dataset(10, 200);
        let mut eugene = Eugene::new(11);
        let id = eugene.train(TrainRequest::quick(&data)).unwrap();
        let predictor = eugene.fit_confidence_predictor(id, &data).unwrap();
        use eugene_sched::ConfidencePredictor;
        let p = predictor.predict(&[0.5], 2);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn serve_round_trip_with_rtdeepiot() {
        let data = dataset(12, 300);
        let mut eugene = Eugene::new(13);
        let id = eugene.train(TrainRequest::quick(&data)).unwrap();
        let runtime = eugene
            .serve(id, &ServeOptions::default(), Some(&data))
            .unwrap();
        let class = ServiceClass::new("test", Duration::from_secs(10));
        let (_, rx) = runtime.submit(InferenceRequest::new(data.sample(0).to_vec(), class));
        let response = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(response.stages_executed, 3);
        assert!(response.is_answered());
        runtime.shutdown();
    }

    #[test]
    fn serve_with_micro_batching_answers_every_request_exactly() {
        let data = dataset(27, 300);
        let mut eugene = Eugene::new(28);
        let id = eugene.train(TrainRequest::quick(&data)).unwrap();
        let runtime = eugene
            .serve(
                id,
                &ServeOptions {
                    scheduler: SchedulerKind::Fifo,
                    num_workers: 1,
                    max_batch: 4,
                    gather_window: Duration::from_millis(2),
                    ..ServeOptions::default()
                },
                None,
            )
            .unwrap();
        let class = ServiceClass::new("test", Duration::from_secs(10));
        let receivers: Vec<_> = (0..6)
            .map(|i| {
                runtime
                    .submit(InferenceRequest::new(
                        data.sample(i).to_vec(),
                        class.clone(),
                    ))
                    .1
            })
            .collect();
        for (i, rx) in receivers.into_iter().enumerate() {
            let response = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(response.stages_executed, 3);
            // Batched serving must scatter each request its own answer —
            // identical to the solo classification of that sample.
            let direct = eugene.classify(id, data.sample(i)).unwrap();
            assert_eq!(response.predicted, Some(direct[2].predicted));
        }
        let stats = runtime.stats();
        assert!(
            stats.fused_batches() + stats.singleton_dispatches() > 0,
            "micro-batching path was exercised"
        );
        runtime.shutdown();
    }

    #[test]
    fn serve_gateway_round_trip_over_loopback() {
        let data = dataset(25, 300);
        let mut eugene = Eugene::new(26);
        let id = eugene.train(TrainRequest::quick(&data)).unwrap();
        let gateway = eugene
            .serve_gateway(
                id,
                &ServeOptions {
                    scheduler: SchedulerKind::Fifo,
                    ..ServeOptions::default()
                },
                None,
                eugene_net::GatewayConfig::default(),
            )
            .unwrap();
        let mut client = eugene_net::EugeneClient::new(
            gateway.local_addr(),
            eugene_net::ClientConfig::default(),
        )
        .unwrap();
        let outcome = client
            .infer("test", data.sample(0), Duration::from_secs(30))
            .unwrap();
        assert_eq!(outcome.stages_executed, 3);
        assert!(outcome.predicted.is_some());
        assert_eq!(
            gateway.status().threads_spawned(),
            1,
            "the gateway serves from one event-loop thread"
        );
        gateway.shutdown();
    }

    #[test]
    fn serve_sharded_round_trips_and_spreads_keys() {
        let data = dataset(31, 300);
        let mut eugene = Eugene::new(32);
        let id = eugene.train(TrainRequest::quick(&data)).unwrap();
        let router = eugene
            .serve_sharded(
                id,
                &ServeOptions {
                    scheduler: SchedulerKind::Fifo,
                    ..ServeOptions::default()
                },
                None,
                2,
                eugene_net::ReplicaConfig::default(),
                eugene_net::ShardConfig::default(),
            )
            .unwrap();
        assert_eq!(router.num_shards(), 2);
        assert_eq!(router.alive_shards(), 2);
        let mut client =
            eugene_net::EugeneClient::new(router.local_addr(), eugene_net::ClientConfig::default())
                .unwrap();
        // Distinct routing keys land on the shard the ring names; the
        // wire answers are indistinguishable from a single gateway.
        for key in 0..8u64 {
            let outcome = client
                .infer_keyed("test", data.sample(0), Duration::from_secs(30), Some(key))
                .unwrap();
            assert_eq!(outcome.stages_executed, 3);
            assert!(outcome.predicted.is_some());
        }
        let total = router.aggregate_stats();
        assert_eq!(total.submitted, 8);
        assert_eq!(total.completed, 8);
        router.shutdown();
    }

    #[test]
    fn serve_multi_serves_named_variants_with_data_aware_dispatch() {
        let data = dataset(33, 300);
        let mut eugene = Eugene::new(34);
        let full = eugene.train(TrainRequest::quick(&data)).unwrap();
        let compressed = eugene.reduce(full, 0.5, &data).unwrap();
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
                name: "compressed".into(),
                model: compressed,
                options: ServeOptions {
                    confidence_threshold: 0.6,
                    ..fifo
                },
            },
        ];
        let gateway = eugene
            .serve_multi(
                &variants,
                "full",
                Some(&DispatchPolicy {
                    easy: "compressed",
                    hard: "full",
                    threshold: 0.5,
                    caution: 1.0,
                    data: &data,
                }),
                None,
                eugene_net::GatewayConfig::default(),
            )
            .unwrap();
        let mut client = eugene_net::EugeneClient::new(
            gateway.local_addr(),
            eugene_net::ClientConfig::default(),
        )
        .unwrap();
        // Explicit addressing: each variant answers under its own name.
        for name in ["full", "compressed"] {
            let outcome = client
                .infer_with(
                    "test",
                    data.sample(0),
                    Duration::from_secs(30),
                    &eugene_net::SubmitOptions {
                        model: Some(name.into()),
                        ..Default::default()
                    },
                )
                .unwrap();
            assert!(outcome.predicted.is_some(), "variant {name} answered");
        }
        // Anonymous submissions flow through the data-aware dispatcher.
        for i in 0..10 {
            let outcome = client
                .infer("test", data.sample(i), Duration::from_secs(30))
                .unwrap();
            assert!(outcome.predicted.is_some());
        }
        let snapshot = gateway.snapshot();
        assert!(snapshot.per_model["full"].completed >= 1);
        assert!(snapshot.per_model["compressed"].completed >= 1);
        let completed: u64 = snapshot.per_model.values().map(|m| m.completed).sum();
        assert_eq!(completed, 12, "every submission answered by some variant");
        gateway.shutdown();
    }

    #[test]
    fn quantized_early_stages_serve_and_stay_accurate() {
        let data = dataset(41, 300);
        let mut eugene = Eugene::new(42);
        let id = eugene.train(TrainRequest::quick(&data)).unwrap();
        let f32_answers: Vec<_> = (0..20)
            .map(|i| eugene.classify(id, data.sample(i)).unwrap())
            .collect();

        // Quantize the first two of three stages; the deepest stage and
        // all heads stay f32.
        let precisions = eugene.quantize_model(id, &[0, 1]).unwrap();
        assert_eq!(
            precisions,
            vec![Precision::Int8, Precision::Int8, Precision::F32]
        );
        let mut agree = 0usize;
        for (i, f32_stages) in f32_answers.iter().enumerate() {
            let q_stages = eugene.classify(id, data.sample(i)).unwrap();
            assert_eq!(q_stages.len(), f32_stages.len());
            if q_stages.last().unwrap().predicted == f32_stages.last().unwrap().predicted {
                agree += 1;
            }
        }
        assert!(
            agree >= 18,
            "i8 trunk flips too many final predictions: {agree}/20"
        );

        // The quantized model serves through the normal runtime path.
        let runtime = eugene
            .serve(
                id,
                &ServeOptions {
                    scheduler: SchedulerKind::Fifo,
                    ..ServeOptions::default()
                },
                None,
            )
            .unwrap();
        let (_, rx) = runtime.submit(eugene_serve::InferenceRequest::new(
            data.sample(0).to_vec(),
            eugene_serve::ServiceClass::new("test", Duration::from_secs(30)),
        ));
        let response = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(response.predicted.is_some());
        assert!(!response.expired);
        runtime.shutdown();

        // And back to f32 restores the original answers exactly.
        let restored = eugene.quantize_model(id, &[]).unwrap();
        assert_eq!(restored, vec![Precision::F32; 3]);
        for (i, f32_stages) in f32_answers.iter().enumerate() {
            assert_eq!(&eugene.classify(id, data.sample(i)).unwrap(), f32_stages);
        }
    }

    #[test]
    fn labeling_service_runs() {
        let full = dataset(14, 400);
        let split = full.split(0.1);
        let mut eugene = Eugene::new(15);
        let outcome = eugene.label(&split.train, split.test.features()).unwrap();
        assert!(outcome.coverage > 0.0);
    }

    #[test]
    fn profiling_service_reproduces_table1_inversion() {
        let eugene = Eugene::new(16);
        let rows = ConvSpec::table1_rows();
        assert!(eugene.profile_layer(&rows[1].1) > eugene.profile_layer(&rows[0].1));
        assert!(eugene.profile_layer(&rows[2].1) > eugene.profile_layer(&rows[3].1));
    }

    #[test]
    fn partition_planning_reacts_to_bandwidth() {
        let data = dataset(19, 300);
        let mut eugene = Eugene::new(20);
        let id = eugene.train(TrainRequest::quick(&data)).unwrap();
        let fast = eugene
            .plan_partition(
                id,
                &data,
                0.9,
                &eugene_partition::LinkModel::new(100.0e6, 1.0),
                5.0,
                0.2,
            )
            .unwrap();
        let slow = eugene
            .plan_partition(
                id,
                &data,
                0.9,
                &eugene_partition::LinkModel::new(50.0, 200.0),
                5.0,
                0.2,
            )
            .unwrap();
        assert!(slow.split >= fast.split, "{} -> {}", fast.split, slow.split);
        assert_eq!(slow.split, 3, "a dead link forces device-only execution");
    }

    #[test]
    fn estimator_service_predicts_with_uncertainty() {
        let mut eugene = Eugene::new(21);
        let mut rng = seeded_rng(22);
        let n = 300;
        let mut inputs = Matrix::zeros(n, 1);
        let mut targets = Vec::with_capacity(n);
        for i in 0..n {
            let x = (i as f32 / n as f32) * 2.0 - 1.0;
            inputs[(i, 0)] = x;
            targets.push(x * 0.8 + eugene_tensor::standard_normal(&mut rng) * 0.1);
        }
        let model = eugene
            .train_estimator(&inputs, &targets, &MeanVarianceConfig::default())
            .unwrap();
        let (mean, sigma) = model.predict(&[0.5]);
        assert!((mean - 0.4).abs() < 0.15, "mean {mean}");
        assert!(sigma > 0.0 && sigma < 0.5, "sigma {sigma}");
    }

    #[test]
    fn export_import_round_trip() {
        let data = dataset(23, 200);
        let mut eugene = Eugene::new(24);
        let id = eugene.train(TrainRequest::quick(&data)).unwrap();
        let snapshot = eugene.export_model(id).unwrap();
        let json = serde_json::to_string(&snapshot).unwrap();
        let parsed: eugene_nn::NetworkSnapshot = serde_json::from_str(&json).unwrap();
        let restored = eugene.import_model(&parsed).unwrap();
        let a = eugene.classify(id, data.sample(0)).unwrap();
        let b = eugene.classify(restored, data.sample(0)).unwrap();
        assert_eq!(a[2].predicted, b[2].predicted);
        assert!((a[2].confidence - b[2].confidence).abs() < 1e-6);
    }

    #[test]
    fn cached_model_service_builds() {
        let data = dataset(17, 400);
        let mut eugene = Eugene::new(18);
        let cached = eugene
            .build_cached_model(&data, &[0, 1], &CachedModelConfig::default())
            .unwrap();
        assert_eq!(cached.classes(), &[0, 1]);
    }
}
