//! Tracing from outside: the two public traits the runtime accepts
//! (`InferenceEngine`, `Scheduler`) wrapped so that every call into them
//! leaves a span, plus the in-memory span store the traced pass writes out.
//!
//! Nothing here changes what the wrapped code computes. Sessions are
//! wrapped too, but `as_any_mut` hands out the *inner* session, so the
//! real engine's downcast in `next_stage_batch` still finds its own
//! session type and fuses exactly as it does untraced.

use eugene_sched::{Scheduler, TaskId, TaskView};
use eugene_serve::{EngineSession, InferenceEngine, PlanCacheStats, Precision, StageReport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval. `id` is the request tag for request spans and a
/// sequence number for engine and scheduler spans; `parent` names the
/// span kind that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Rows of a batch, tasks seen by the scheduler; 0 where meaningless.
    pub size: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span store shared by every wrapper of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    seq: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Arc<Self> {
        Arc::new(Self {
            epoch,
            seq: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(&self, name: &'static str, parent: &'static str, start_ns: u64, size: usize) {
        let end_ns = self.now_ns();
        let id = self.seq.fetch_add(1, Ordering::Relaxed);
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(Span {
                name,
                id,
                parent,
                start_ns,
                end_ns,
                size: size as u32,
            });
    }

    /// Takes every span recorded so far, ordered by start time.
    pub fn drain(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no span recorder panics while holding the lock"),
        );
        spans.sort_by_key(|s| s.start_ns);
        spans
    }
}

pub const ENGINE_BEGIN: &str = "engine.begin";
pub const ENGINE_BATCH: &str = "engine.next_stage_batch";
pub const ENGINE_SINGLE: &str = "engine.next_stage";
pub const SCHED_ASSIGN: &str = "sched.assign";
const RUNTIME: &str = "runtime";

/// Delegates to the real engine and times `begin`, `next_stage_batch`
/// and (through [`TracedSession`]) singleton `next_stage` calls.
pub struct TracedEngine {
    inner: Arc<dyn InferenceEngine>,
    tracer: Arc<Tracer>,
}

impl TracedEngine {
    pub fn new(inner: Arc<dyn InferenceEngine>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl InferenceEngine for TracedEngine {
    fn num_stages(&self) -> usize {
        self.inner.num_stages()
    }

    fn stage_precision(&self, stage: usize) -> Precision {
        self.inner.stage_precision(stage)
    }

    fn begin(&self, payload: &[f32]) -> Box<dyn EngineSession> {
        let start = self.tracer.now_ns();
        let inner = self.inner.begin(payload);
        self.tracer.record(ENGINE_BEGIN, RUNTIME, start, 1);
        Box::new(TracedSession {
            inner,
            tracer: Arc::clone(&self.tracer),
        })
    }

    fn next_stage_batch(&self, batch: &mut [Box<dyn EngineSession>]) -> Vec<Option<StageReport>> {
        let start = self.tracer.now_ns();
        let reports = self.inner.next_stage_batch(batch);
        self.tracer
            .record(ENGINE_BATCH, RUNTIME, start, batch.len());
        reports
    }

    fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        self.inner.plan_cache_stats()
    }
}

struct TracedSession {
    inner: Box<dyn EngineSession>,
    tracer: Arc<Tracer>,
}

impl EngineSession for TracedSession {
    fn next_stage(&mut self) -> Option<StageReport> {
        let start = self.tracer.now_ns();
        let report = self.inner.next_stage();
        self.tracer.record(ENGINE_SINGLE, RUNTIME, start, 1);
        report
    }

    fn stages_done(&self) -> usize {
        self.inner.stages_done()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

/// Delegates to the real scheduler and times `assign`. Calls that see no
/// task (the coordinator polls every 200 µs) are counted and timed in
/// aggregate but leave no span.
pub struct TracedScheduler {
    inner: Box<dyn Scheduler>,
    tracer: Arc<Tracer>,
    idle: Arc<IdleAssigns>,
}

/// Aggregate of `assign` calls that saw an empty task list.
#[derive(Debug, Default)]
pub struct IdleAssigns {
    pub calls: AtomicU64,
    pub busy_ns: AtomicU64,
}

impl TracedScheduler {
    pub fn new(inner: Box<dyn Scheduler>, tracer: Arc<Tracer>, idle: Arc<IdleAssigns>) -> Self {
        Self {
            inner,
            tracer,
            idle,
        }
    }
}

impl Scheduler for TracedScheduler {
    fn assign(&mut self, tasks: &[TaskView<'_>], slots: usize) -> Vec<TaskId> {
        let start = self.tracer.now_ns();
        let picked = self.inner.assign(tasks, slots);
        if tasks.is_empty() {
            self.idle.calls.fetch_add(1, Ordering::Relaxed);
            self.idle
                .busy_ns
                .fetch_add(self.tracer.now_ns() - start, Ordering::Relaxed);
        } else {
            self.tracer
                .record(SCHED_ASSIGN, RUNTIME, start, tasks.len());
        }
        picked
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Writes spans as compact JSON rows:
/// `[name, id, parent, start_us, end_us, size]`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"columns\": [\"name\", \"id\", \"parent\", \"start_us\", \"end_us\", \"size\"], \"spans\": ["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "[\"{}\",{},\"{}\",{:.3},{:.3},{}]{comma}",
            s.name,
            s.id,
            s.parent,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            s.size
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eugene_nn::{StagedNetwork, StagedNetworkConfig};
    use eugene_service::StagedNetworkEngine;
    use eugene_tensor::seeded_rng;

    /// The traced engine must not change answers, and wrapped sessions
    /// must still fuse: the real engine's downcast sees its own session.
    #[test]
    fn traced_engine_fuses_and_answers_like_the_real_one() {
        let config = StagedNetworkConfig::three_stage(8, 4);
        let network = Arc::new(StagedNetwork::new(&config, &mut seeded_rng(3)));
        let real: Arc<dyn InferenceEngine> = Arc::new(StagedNetworkEngine::new(network.clone()));
        let tracer = Tracer::new(Instant::now());
        let traced = TracedEngine::new(Arc::clone(&real), Arc::clone(&tracer));
        let payloads: Vec<Vec<f32>> = (0..4)
            .map(|i| (0..8).map(|j| (i * 8 + j) as f32 * 0.1 - 1.0).collect())
            .collect();
        let mut batch: Vec<_> = payloads.iter().map(|p| traced.begin(p)).collect();
        let misses_before = network.plan_cache().stats().misses;
        let reports = traced.next_stage_batch(&mut batch);
        assert_eq!(
            network.plan_cache().stats().misses,
            misses_before + 1,
            "a 4-row plan was compiled: the batch ran fused, not row by row"
        );
        for (payload, report) in payloads.iter().zip(reports) {
            let want = &network.classify(payload)[0];
            let got = report.expect("stage 1 ran");
            assert_eq!(got.predicted, want.predicted);
            assert_eq!(got.confidence.to_bits(), want.confidence.to_bits());
        }
        assert_eq!(batch[0].stages_done(), 1);
        // The singleton path is timed through the session wrapper.
        assert!(batch[0].next_stage().is_some());
        let names: Vec<_> = tracer.drain().iter().map(|s| s.name).collect();
        assert_eq!(names.iter().filter(|n| **n == ENGINE_BEGIN).count(), 4);
        assert_eq!(names.iter().filter(|n| **n == ENGINE_BATCH).count(), 1);
        assert_eq!(names.iter().filter(|n| **n == ENGINE_SINGLE).count(), 1);
    }
}
