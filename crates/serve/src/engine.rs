use eugene_profiler::PlanCacheStats;

/// Output of one executed stage: the paper's `(predicted value,
/// confidence)` tuple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageReport {
    /// Predicted class after this stage.
    pub predicted: usize,
    /// Classification confidence after this stage.
    pub confidence: f32,
}

/// A staged model the runtime can serve.
///
/// The serving crate is model-agnostic: `eugene-service` adapts
/// `eugene_nn::StagedNetwork` to this trait, and tests use synthetic
/// engines. Implementations must be shareable across worker threads.
pub trait InferenceEngine: Send + Sync {
    /// Number of stages every session will expose.
    fn num_stages(&self) -> usize;

    /// Precision the engine serves `stage` at. The runtime keys its
    /// latency EMAs by this tag so a quantized stage (several times
    /// faster than f32) never poisons the f32 estimate or vice versa.
    /// Defaults to f32; mixed-precision engines override it.
    fn stage_precision(&self, _stage: usize) -> eugene_profiler::Precision {
        eugene_profiler::Precision::F32
    }

    /// Starts a new inference session over one input.
    fn begin(&self, payload: &[f32]) -> Box<dyn EngineSession>;

    /// Executes the next stage of every session in `batch`, returning one
    /// report slot per session in the same order.
    ///
    /// The default runs the sessions one by one — correct for any engine.
    /// Engines whose stage cost is dominated by matrix products (e.g. the
    /// staged-network engine in `eugene-core`) override this to fuse the
    /// batch into a single multi-row forward via
    /// [`EngineSession::as_any_mut`] downcasts. Overrides must preserve
    /// per-session semantics exactly: the runtime scatters row `i`'s
    /// report back to request `i` as if it had run alone.
    fn next_stage_batch(&self, batch: &mut [Box<dyn EngineSession>]) -> Vec<Option<StageReport>> {
        batch.iter_mut().map(|s| s.next_stage()).collect()
    }

    /// Counters of the engine's compiled-plan cache, when it serves
    /// through one (see `eugene-service`'s staged-network engine).
    /// Engines without plan compilation return `None` (the default).
    fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        None
    }
}

/// One in-flight inference: executes a single stage per call.
///
/// Sessions move between the coordinator and worker threads, so they must
/// be `Send`.
pub trait EngineSession: Send {
    /// Executes the next stage and reports its classification.
    ///
    /// Returns `None` once all stages have run.
    fn next_stage(&mut self) -> Option<StageReport>;

    /// Number of stages executed so far.
    fn stages_done(&self) -> usize;

    /// Downcasting hook so an engine's
    /// [`InferenceEngine::next_stage_batch`] override can recover its
    /// concrete session type from the boxed trait objects the runtime
    /// hands it. Implementations return `self`.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use std::thread::sleep;
    use std::time::Duration;

    /// Deterministic engine for tests: confidence follows a fixed ramp and
    /// each stage takes a configurable wall-clock time.
    pub struct RampEngine {
        pub ramp: Vec<f32>,
        pub stage_time: Duration,
    }

    impl InferenceEngine for RampEngine {
        fn num_stages(&self) -> usize {
            self.ramp.len()
        }

        fn begin(&self, payload: &[f32]) -> Box<dyn EngineSession> {
            Box::new(RampSession {
                ramp: self.ramp.clone(),
                stage_time: self.stage_time,
                done: 0,
                predicted: payload.first().copied().unwrap_or(0.0) as usize,
            })
        }
    }

    pub struct RampSession {
        ramp: Vec<f32>,
        stage_time: Duration,
        done: usize,
        predicted: usize,
    }

    impl EngineSession for RampSession {
        fn next_stage(&mut self) -> Option<StageReport> {
            if self.done >= self.ramp.len() {
                return None;
            }
            sleep(self.stage_time);
            let report = StageReport {
                predicted: self.predicted,
                confidence: self.ramp[self.done],
            };
            self.done += 1;
            Some(report)
        }

        fn stages_done(&self) -> usize {
            self.done
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn ramp_engine_walks_its_ramp() {
        let engine = RampEngine {
            ramp: vec![0.5, 0.9],
            stage_time: Duration::ZERO,
        };
        let mut session = engine.begin(&[3.0]);
        let first = session.next_stage().unwrap();
        assert_eq!(first.confidence, 0.5);
        assert_eq!(first.predicted, 3);
        assert_eq!(session.stages_done(), 1);
        assert_eq!(session.next_stage().unwrap().confidence, 0.9);
        assert!(session.next_stage().is_none());
    }
}
