use crate::{
    InferenceRequest, ModelBreakdown, ReplySink, RequestId, RuntimeStats, ServingRuntime,
    StatsSnapshot,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// The model name a single-model deployment serves under, and the name
/// [`ModelRegistry::single`] registers its runtime as.
pub const DEFAULT_MODEL: &str = "default";

/// Why a registry submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The named model (or the one the dispatcher picked) is not loaded.
    /// The name is returned so the gateway can report it.
    UnknownModel(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Data-aware variant selection: picks a model name for a request that
/// named no model, from the request's input features alone.
///
/// This is where SneakPeek-style routing plugs in: a dispatcher built
/// from the compressed variant's calibrated stage-1 confidence sends
/// easy inputs to a cheap early-exit variant and hard inputs to the full
/// model. Any `Fn(&[f32]) -> String + Send + Sync` closure qualifies.
pub trait VariantDispatcher: Send + Sync {
    /// The model name to serve this payload with. Returning a name that
    /// is not currently loaded makes the submission fail with
    /// [`RegistryError::UnknownModel`] — dispatchers should stick to
    /// names they know are registered.
    fn pick(&self, payload: &[f32]) -> String;
}

impl<F> VariantDispatcher for F
where
    F: Fn(&[f32]) -> String + Send + Sync,
{
    fn pick(&self, payload: &[f32]) -> String {
        self(payload)
    }
}

/// One loaded model: its private runtime (own workers, own scheduler,
/// own gather buckets / batch budget) plus its load generation.
struct ModelEntry {
    runtime: ServingRuntime,
    version: u64,
    stats: RuntimeStats,
}

struct RegistryInner {
    models: RwLock<HashMap<String, ModelEntry>>,
    /// Gauges of unloaded generations, kept so per-model counters are
    /// cumulative across a name's reloads rather than resetting.
    retired: Mutex<Vec<(String, RuntimeStats)>>,
    dispatcher: Mutex<Option<Arc<dyn VariantDispatcher>>>,
    default_model: Mutex<String>,
    versions: AtomicU64,
}

/// A versioned, named collection of live [`ServingRuntime`]s — the model
/// half of the serving control plane.
///
/// Each loaded model owns a full runtime: its own worker pool, scheduler,
/// early-exit threshold, and gather buckets, so per-model worker/batch
/// budgets fall out of the one-runtime-per-model structure rather than
/// needing cross-model arbitration. Models load and unload at runtime;
/// unloading drains the model's in-flight requests while new submissions
/// against the gone name fail fast with [`RegistryError::UnknownModel`].
///
/// Handles are cheap clones over shared state; the gateway, its reactor,
/// and test harnesses all hold the same registry.
///
/// # Submission vs unload ordering
///
/// [`ModelRegistry::submit_to`] holds the model-map read lock across the
/// underlying [`ServingRuntime::submit_to`] call, and [`ModelRegistry::unload`]
/// removes the entry under the write lock *before* shutting the runtime
/// down. A submission therefore either lands on a runtime that will
/// drain it, or observes the name as gone — it can never reach a runtime
/// that has stopped accepting (which would panic).
#[derive(Clone)]
pub struct ModelRegistry {
    inner: Arc<RegistryInner>,
}

impl ModelRegistry {
    /// Creates an empty registry whose unnamed submissions resolve to
    /// `default_model` (until a dispatcher overrides that).
    pub fn new(default_model: impl Into<String>) -> Self {
        Self {
            inner: Arc::new(RegistryInner {
                models: RwLock::new(HashMap::new()),
                retired: Mutex::new(Vec::new()),
                dispatcher: Mutex::new(None),
                default_model: Mutex::new(default_model.into()),
                versions: AtomicU64::new(0),
            }),
        }
    }

    /// Wraps one runtime as a single-model registry under
    /// [`DEFAULT_MODEL`] — the adapter that keeps a pre-registry
    /// single-model gateway deployment working unchanged.
    pub fn single(runtime: ServingRuntime) -> Self {
        let registry = Self::new(DEFAULT_MODEL);
        registry.load(DEFAULT_MODEL, runtime);
        registry
    }

    /// Loads (or replaces) a named model, returning its load generation.
    ///
    /// Replacement is a drain, not a drop: the previous runtime finishes
    /// its in-flight requests before this call returns, while new
    /// submissions already land on the replacement.
    pub fn load(&self, name: impl Into<String>, runtime: ServingRuntime) -> u64 {
        let name = name.into();
        let version = self.inner.versions.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = ModelEntry {
            stats: runtime.stats(),
            runtime,
            version,
        };
        let previous = self
            .inner
            .models
            .write()
            .expect("model map lock")
            .insert(name.clone(), entry);
        if let Some(previous) = previous {
            self.retire(&name, previous);
        }
        version
    }

    /// Unloads a named model, draining its in-flight requests before
    /// returning. Returns `false` if the name was not loaded. Subsequent
    /// submissions naming it fail with [`RegistryError::UnknownModel`].
    pub fn unload(&self, name: &str) -> bool {
        let removed = self
            .inner
            .models
            .write()
            .expect("model map lock")
            .remove(name);
        match removed {
            Some(entry) => {
                self.retire(name, entry);
                true
            }
            None => false,
        }
    }

    /// Retires an entry outside the map lock: counters are preserved for
    /// cumulative per-model stats, then the runtime drains and joins.
    fn retire(&self, name: &str, entry: ModelEntry) {
        self.inner
            .retired
            .lock()
            .expect("retired lock")
            .push((name.to_owned(), entry.stats));
        entry.runtime.shutdown();
    }

    /// Installs the data-aware dispatcher consulted for submissions that
    /// name no model. Replaces any previous dispatcher.
    pub fn set_dispatcher(&self, dispatcher: Arc<dyn VariantDispatcher>) {
        *self.inner.dispatcher.lock().expect("dispatcher lock") = Some(dispatcher);
    }

    /// Loaded model names with their load generations, sorted by name.
    pub fn models(&self) -> Vec<(String, u64)> {
        let mut names: Vec<(String, u64)> = self
            .inner
            .models
            .read()
            .expect("model map lock")
            .iter()
            .map(|(name, entry)| (name.clone(), entry.version))
            .collect();
        names.sort();
        names
    }

    /// The model unnamed submissions fall back to when no dispatcher is
    /// installed.
    pub fn default_model(&self) -> String {
        self.inner
            .default_model
            .lock()
            .expect("default model lock")
            .clone()
    }

    /// Whether `name` is currently loaded.
    pub fn contains(&self, name: &str) -> bool {
        self.inner
            .models
            .read()
            .expect("model map lock")
            .contains_key(name)
    }

    /// Resolves the model a request addresses: an explicit name wins,
    /// otherwise the dispatcher (if any) picks from the payload,
    /// otherwise the default model.
    pub fn resolve(&self, model: Option<&str>, payload: &[f32]) -> String {
        match model {
            Some(name) => name.to_owned(),
            None => {
                let dispatcher = self
                    .inner
                    .dispatcher
                    .lock()
                    .expect("dispatcher lock")
                    .clone();
                match dispatcher {
                    Some(dispatcher) => dispatcher.pick(payload),
                    None => self
                        .inner
                        .default_model
                        .lock()
                        .expect("default model lock")
                        .clone(),
                }
            }
        }
    }

    /// Submits a request to the model it resolves to (see
    /// [`ModelRegistry::resolve`]), its replies going to `sink` (see
    /// [`ServingRuntime::submit_to`]). Returns the assigned id and the
    /// resolved model name.
    pub fn submit_to(
        &self,
        model: Option<&str>,
        request: InferenceRequest,
        want_stages: bool,
        sink: ReplySink,
    ) -> Result<(RequestId, String), RegistryError> {
        let chosen = self.resolve(model, &request.payload);
        let models = self.inner.models.read().expect("model map lock");
        let entry = models
            .get(&chosen)
            .ok_or_else(|| RegistryError::UnknownModel(chosen.clone()))?;
        // The read lock is held across the submit: an unload's write lock
        // cannot interleave, so the runtime is still accepting here.
        let id = entry.runtime.submit_to(request, want_stages, sink);
        Ok((id, chosen))
    }

    /// Live stats handle of one loaded model.
    pub fn stats_of(&self, name: &str) -> Option<RuntimeStats> {
        self.inner
            .models
            .read()
            .expect("model map lock")
            .get(name)
            .map(|entry| entry.stats.clone())
    }

    /// Aggregate snapshot across every loaded model, with a `per_model`
    /// row per name. Rows are cumulative: an unloaded (or replaced)
    /// generation's counters stay in its name's row.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for (name, stats) in self.inner.retired.lock().expect("retired lock").iter() {
            total.absorb(&stats.snapshot());
            total
                .per_model
                .entry(name.clone())
                .or_default()
                .absorb(&ModelBreakdown::of(stats));
        }
        for (name, entry) in self.inner.models.read().expect("model map lock").iter() {
            total.absorb(&entry.stats.snapshot());
            total
                .per_model
                .entry(name.clone())
                .or_default()
                .absorb(&ModelBreakdown::of(&entry.stats));
        }
        total
    }

    /// Unloads every model, draining each. Idempotent; the handle stays
    /// usable (models can be loaded again afterwards).
    pub fn shutdown(&self) {
        let drained: Vec<(String, ModelEntry)> = self
            .inner
            .models
            .write()
            .expect("model map lock")
            .drain()
            .collect();
        for (name, entry) in drained {
            self.retire(&name, entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testing::RampEngine;
    use crate::runtime::final_answers;
    use crate::{RuntimeConfig, ServiceClass};
    use eugene_sched::Fifo;
    use std::time::Duration;

    fn runtime(ramp: Vec<f32>, stage_ms: u64, threshold: f32) -> ServingRuntime {
        let engine = Arc::new(RampEngine {
            ramp,
            stage_time: Duration::from_millis(stage_ms),
        });
        ServingRuntime::start(
            engine,
            Box::new(Fifo::new()),
            RuntimeConfig {
                confidence_threshold: threshold,
                ..RuntimeConfig::default()
            },
        )
    }

    fn request(payload: f32) -> InferenceRequest {
        InferenceRequest::new(
            vec![payload],
            ServiceClass::new("test", Duration::from_secs(10)),
        )
    }

    #[test]
    fn named_submissions_route_to_their_model() {
        let registry = ModelRegistry::new("full");
        registry.load("full", runtime(vec![0.5, 0.7, 0.9], 1, 1.0));
        registry.load("compressed", runtime(vec![0.95], 1, 0.9));

        let (sink, rx) = final_answers();
        registry
            .submit_to(Some("compressed"), request(3.0), false, Arc::clone(&sink))
            .expect("compressed is loaded");
        let response = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(response.stages_executed, 1, "compressed has one stage");

        // No name resolves to the default model.
        let (id, chosen) = registry
            .submit_to(None, request(4.0), false, sink)
            .expect("default is loaded");
        assert_eq!(chosen, "full");
        let response = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(response.id, id);
        assert_eq!(response.stages_executed, 3, "full runs all stages");
        registry.shutdown();
    }

    #[test]
    fn unknown_model_is_a_clean_error() {
        let registry = ModelRegistry::new(DEFAULT_MODEL);
        let (sink, _rx) = final_answers();
        let err = registry
            .submit_to(Some("nope"), request(0.0), false, sink)
            .unwrap_err();
        assert_eq!(err, RegistryError::UnknownModel("nope".to_owned()));
        registry.shutdown();
    }

    #[test]
    fn unload_drains_in_flight_and_rejects_new_submissions() {
        let registry = ModelRegistry::new(DEFAULT_MODEL);
        registry.load(DEFAULT_MODEL, runtime(vec![0.5, 0.9], 20, 1.0));
        let (sink, rx) = final_answers();
        let mut ids = Vec::new();
        for i in 0..4 {
            let (id, _) = registry
                .submit_to(None, request(i as f32), false, Arc::clone(&sink))
                .expect("loaded");
            ids.push(id);
        }
        assert!(registry.unload(DEFAULT_MODEL), "was loaded");
        // Unload drained: every in-flight request already has a response.
        for _ in &ids {
            let response = rx.try_recv().expect("drained before unload returned");
            assert!(ids.contains(&response.id));
            assert_eq!(response.stages_executed, 2);
        }
        // The name is gone now.
        let err = registry
            .submit_to(None, request(9.0), false, sink)
            .unwrap_err();
        assert_eq!(err, RegistryError::UnknownModel(DEFAULT_MODEL.to_owned()));
        assert!(!registry.unload(DEFAULT_MODEL), "second unload is a no-op");
        registry.shutdown();
    }

    #[test]
    fn reload_bumps_version_and_keeps_cumulative_stats() {
        let registry = ModelRegistry::new(DEFAULT_MODEL);
        let v1 = registry.load(DEFAULT_MODEL, runtime(vec![0.9], 1, 1.0));
        let (sink, rx) = final_answers();
        registry
            .submit_to(None, request(1.0), false, Arc::clone(&sink))
            .expect("loaded");
        rx.recv_timeout(Duration::from_secs(10)).unwrap();

        let v2 = registry.load(DEFAULT_MODEL, runtime(vec![0.8, 0.9], 1, 1.0));
        assert!(v2 > v1, "replacement is a newer generation");
        assert_eq!(registry.models(), vec![(DEFAULT_MODEL.to_owned(), v2)]);
        registry
            .submit_to(None, request(2.0), false, sink)
            .expect("replacement serves");
        rx.recv_timeout(Duration::from_secs(10)).unwrap();

        let snapshot = registry.snapshot();
        let row = &snapshot.per_model[DEFAULT_MODEL];
        assert_eq!(row.submitted, 2, "counters survive the reload");
        assert_eq!(row.completed, 2);
        registry.shutdown();
    }

    #[test]
    fn dispatcher_picks_variants_from_the_payload() {
        let registry = ModelRegistry::new("full");
        registry.load("full", runtime(vec![0.5, 0.7, 0.9], 1, 1.0));
        registry.load("compressed", runtime(vec![0.95], 1, 0.9));
        registry.set_dispatcher(Arc::new(|payload: &[f32]| {
            if payload[0] < 1.0 {
                "compressed"
            } else {
                "full"
            }
            .to_owned()
        }));

        let (sink, rx) = final_answers();
        let (_, chosen) = registry
            .submit_to(None, request(0.5), false, Arc::clone(&sink))
            .unwrap();
        assert_eq!(chosen, "compressed");
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10))
                .unwrap()
                .stages_executed,
            1
        );
        let (_, chosen) = registry.submit_to(None, request(2.0), false, sink).unwrap();
        assert_eq!(chosen, "full");
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10))
                .unwrap()
                .stages_executed,
            3
        );
        // An explicit name always beats the dispatcher.
        assert_eq!(registry.resolve(Some("full"), &[0.1]), "full");
        registry.shutdown();
    }
}
