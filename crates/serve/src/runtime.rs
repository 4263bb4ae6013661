use crate::batch::GatherBuckets;
use crate::{
    EngineSession, InferenceEngine, InferenceRequest, InferenceResponse, Reply, ReplySink,
    RequestId, RuntimeStats, StageProgress, StageReport, UsageLedger, WorkerPool,
};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use eugene_profiler::{Precision, StageCostModel};
use eugene_sched::{Scheduler, TaskView};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the runtime does with a request that cannot finish all the work
/// its confidence threshold asks for before its deadline.
///
/// The paper's anytime-prediction architecture (§II-E) makes every staged
/// request's partial result usable, which turns overload handling into a
/// choice:
///
/// - [`OverloadPolicy::Kill`] (the historical behavior): the coordinator
///   kills the task at its deadline and the response is flagged
///   `expired` — the request "missed" even though stages may have
///   completed.
/// - [`OverloadPolicy::Degrade`]: the runtime schedules ready stage-work
///   by marginal utility density (estimated Δconfidence of the next
///   stage, from the online confidence profile, divided by its Δtime,
///   from the [`StageCostModel`]) and an overload controller force-exits
///   requests at earlier stages — before their deadline would kill them —
///   whenever the next stage no longer fits the remaining budget or the
///   parked queue grows past `queue_high_water`. A deadline kill that
///   still arrives is converted into an early exit whenever at least one
///   stage completed: the response carries `degraded: true` and the last
///   stage's `(predicted, confidence)` instead of `expired: true`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Deadline misses are killed and reported `expired` (default).
    #[default]
    Kill,
    /// Utility-density scheduling plus anytime degradation: deadline
    /// pressure shortens answers instead of voiding them.
    Degrade,
}

/// Configuration for [`ServingRuntime`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Worker threads executing stages.
    pub num_workers: usize,
    /// Early-exit threshold: once a task's confidence reaches this value
    /// the service refrains "from executing additional layers" (§II-E).
    /// `1.0` effectively disables early exit.
    pub confidence_threshold: f32,
    /// Maximum requests fused into one batched stage execution. `1` (the
    /// default) dispatches every stage alone: a gather bucket is full at
    /// one member, so nothing ever waits for peers.
    pub max_batch: usize,
    /// How long a schedulable request may wait in a gather bucket for
    /// same-stage peers before its batch is flushed regardless (see
    /// `crate::batch` for the full flush rules). Only meaningful when
    /// `max_batch > 1`. Gathering never delays a deadline: the coordinator
    /// checks every task each pass, so an expiring request is killed and
    /// finalized mid-gather.
    pub gather_window: Duration,
    /// How deadline pressure resolves: kill (report `expired`) or degrade
    /// (force an earlier exit and report a usable partial answer).
    pub overload: OverloadPolicy,
    /// Parked-queue depth above which the [`OverloadPolicy::Degrade`]
    /// controller starts shedding the lowest-utility-density requests
    /// that already hold a partial answer. Ignored under
    /// [`OverloadPolicy::Kill`].
    pub queue_high_water: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            num_workers: 4,
            confidence_threshold: 1.0,
            max_batch: 1,
            gather_window: Duration::from_millis(1),
            overload: OverloadPolicy::Kill,
            queue_high_water: 64,
        }
    }
}

/// One submitted request: `(id, request, want_stages, sink)`.
type Submission = (RequestId, InferenceRequest, bool, ReplySink);
/// One task's stage outcome: `(id, session, report, panicked)`.
type StageOutcome = (RequestId, Box<dyn EngineSession>, Option<StageReport>, bool);
/// One worker job's outcomes: one per member of the dispatched batch.
type JobDone = Vec<StageOutcome>;
/// One gathered member handed to [`dispatch`]: `(id, session, the sink
/// its stage replies go to, if it asked for them)`.
type BatchMember = (RequestId, Box<dyn EngineSession>, Option<ReplySink>);

/// Process-wide request-id source. Ids must be unique across *all*
/// runtimes, not just within one: a gateway hands one reply sink to many
/// runtimes and demultiplexes their replies by id, so per-runtime
/// counters would collide.
static NEXT_REQUEST_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The live serving coordinator (paper §III-C).
///
/// One coordinator thread owns the task table and the scheduler and is
/// the runtime's only clock: stage executions are dispatched to a
/// [`WorkerPool`], every stage result comes back on the coordinator's
/// completion channel, and each coordinator pass kills the tasks that
/// exceeded their service class's latency constraint (the paper's
/// deadline daemon). Killed tasks return the result of their last
/// completed stage (or a starvation response if no stage ran) and their
/// worker "is returned to the pool". A runtime is that one thread plus
/// `num_workers` workers.
///
/// # Examples
///
/// See `examples/serving_pipeline.rs` at the repository root.
pub struct ServingRuntime {
    submit_tx: Option<Sender<Submission>>,
    ledger: UsageLedger,
    stats: RuntimeStats,
    /// A handle to the served engine, retained so observability
    /// surfaces (e.g. plan-cache counters) stay reachable after the
    /// engine moves into the coordinator thread.
    engine: Arc<dyn InferenceEngine>,
    coordinator: Option<JoinHandle<()>>,
}

impl ServingRuntime {
    /// Starts the runtime over `engine` with the given scheduling policy.
    ///
    /// The per-stage cost model starts from a flat 1 ms prior and is
    /// refined online from measured stage latencies; callers with an
    /// analytic profile should use
    /// [`ServingRuntime::start_with_cost_model`].
    ///
    /// # Panics
    ///
    /// Panics if `config.num_workers == 0`.
    pub fn start(
        engine: Arc<dyn InferenceEngine>,
        scheduler: Box<dyn Scheduler>,
        config: RuntimeConfig,
    ) -> Self {
        let cost = StageCostModel::uniform(engine.num_stages().max(1), 1.0);
        Self::start_with_cost_model(engine, scheduler, config, cost)
    }

    /// Starts the runtime with an analytic per-stage cost model (e.g.
    /// priced on the §II-C device profiler) seeding the utility-density
    /// scheduler's Δtime estimates. Measured stage latencies still refine
    /// the model online.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_workers == 0`.
    pub fn start_with_cost_model(
        engine: Arc<dyn InferenceEngine>,
        scheduler: Box<dyn Scheduler>,
        config: RuntimeConfig,
        cost: StageCostModel,
    ) -> Self {
        assert!(config.num_workers > 0, "need at least one worker");
        let (submit_tx, submit_rx) = unbounded::<Submission>();
        let ledger = UsageLedger::new();
        let stats = RuntimeStats::new();
        let engine_handle = Arc::clone(&engine);
        let coordinator = {
            let ledger = ledger.clone();
            let stats = stats.clone();
            std::thread::Builder::new()
                .name("eugene-coordinator".to_owned())
                .spawn(move || {
                    coordinator_loop(engine, scheduler, config, cost, submit_rx, ledger, stats)
                })
                .expect("spawn coordinator")
        };
        Self {
            submit_tx: Some(submit_tx),
            ledger,
            stats,
            engine: engine_handle,
            coordinator: Some(coordinator),
        }
    }

    /// Counters of the engine's compiled-plan cache, when the served
    /// engine executes through one (`None` for engines without plan
    /// compilation). Lets operators confirm steady-state serving is
    /// all cache hits and that weight mutations invalidate plans.
    pub fn plan_cache_stats(&self) -> Option<crate::PlanCacheStats> {
        self.engine.plan_cache_stats()
    }

    /// Submits a request; the response arrives on the returned channel.
    ///
    /// # Panics
    ///
    /// Panics if called after [`ServingRuntime::shutdown`].
    pub fn submit(&self, request: InferenceRequest) -> (RequestId, Receiver<InferenceResponse>) {
        let (sink, rx) = final_answers();
        (self.submit_to(request, false, sink), rx)
    }

    /// Submits a request whose replies go to `sink`: one
    /// [`Reply::Stage`] per finished stage if `want_stages` is set, then
    /// exactly one [`Reply::Final`]. Returns the assigned [`RequestId`].
    ///
    /// Every reply carries its request's id, so one sink can serve any
    /// number of requests (and runtimes): the network gateway hands all
    /// of its requests one sink and demultiplexes by id.
    ///
    /// # Panics
    ///
    /// Panics if called after [`ServingRuntime::shutdown`].
    pub fn submit_to(
        &self,
        request: InferenceRequest,
        want_stages: bool,
        sink: ReplySink,
    ) -> RequestId {
        let id = NEXT_REQUEST_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.stats.note_submitted();
        self.submit_tx
            .as_ref()
            .expect("runtime has been shut down")
            .send((id, request, want_stages, sink))
            .expect("coordinator alive");
        id
    }

    /// Live occupancy gauges (in-flight, queue depth); the handle stays
    /// valid after shutdown and can be cloned freely.
    pub fn stats(&self) -> RuntimeStats {
        self.stats.clone()
    }

    /// The per-service-class usage ledger (paper SV: resource accounting
    /// per class, the input to a pricing structure).
    pub fn usage_ledger(&self) -> &UsageLedger {
        &self.ledger
    }

    /// Stops accepting requests, drains in-flight work, and joins the
    /// coordinator.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.submit_tx.take();
        if let Some(handle) = self.coordinator.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServingRuntime {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// A sink that forwards each final answer to the returned channel and
/// ignores stage replies.
pub(crate) fn final_answers() -> (ReplySink, Receiver<InferenceResponse>) {
    let (tx, rx) = unbounded();
    let sink: ReplySink = Arc::new(move |reply| {
        if let Reply::Final(response) = reply {
            let _ = tx.send(response);
        }
    });
    (sink, rx)
}

struct ActiveTask {
    /// Service class name, for usage accounting.
    class_name: String,
    /// Present while the task is parked; `None` while a worker runs it.
    session: Option<Box<dyn EngineSession>>,
    observed: Vec<f32>,
    last: Option<StageReport>,
    started: Instant,
    deadline: Instant,
    /// The deadline passed before the task's work was done.
    killed: bool,
    /// A stage panicked inside the engine; always finalizes as expired.
    panicked: bool,
    /// The overload controller force-exited this task (or a deadline kill
    /// was converted): it finalizes with its partial answer, not expired.
    degraded: bool,
    /// Parked in a gather bucket awaiting a fused dispatch. The session
    /// stays with the task (the bucket holds only the id), so a deadline
    /// kill mid-gather finalizes it like any parked task.
    gathering: bool,
    /// Stage index a worker is executing right now (`None` while parked);
    /// lets the gather logic count tasks about to reach a bucket's stage.
    running_stage: Option<usize>,
    /// When the current stage was handed to a worker; its elapsed time on
    /// completion feeds the stage cost model's moving average.
    dispatched_at: Option<Instant>,
    /// Stages this task can run: the engine's count, cut to what already
    /// ran once the session reports that it has no stage left.
    num_stages: usize,
    /// The submitter asked for a [`Reply::Stage`] per finished stage.
    want_stages: bool,
    /// Where this request's replies go.
    sink: ReplySink,
}

impl ActiveTask {
    /// Every stage ran, or the last one was confident enough to exit.
    fn work_done(&self, confidence_threshold: f32) -> bool {
        self.observed.len() >= self.num_stages
            || self
                .last
                .is_some_and(|r| r.confidence >= confidence_threshold)
    }
}

#[allow(clippy::too_many_arguments)]
fn coordinator_loop(
    engine: Arc<dyn InferenceEngine>,
    mut scheduler: Box<dyn Scheduler>,
    config: RuntimeConfig,
    mut cost: StageCostModel,
    submit_rx: Receiver<Submission>,
    ledger: UsageLedger,
    stats: RuntimeStats,
) {
    let pool = WorkerPool::new(config.num_workers);
    let (done_tx, done_rx) = unbounded::<JobDone>();
    let mut tasks: HashMap<RequestId, ActiveTask> = HashMap::new();
    // `max_batch == 0` asks for no fusion, the same as 1.
    let max_batch = config.max_batch.max(1);
    let mut buckets = GatherBuckets::new(max_batch, config.gather_window);
    // Online per-stage confidence profile: the Δutility half of the
    // utility-density ordering.
    let mut profile = ConfidenceProfile::new(engine.num_stages());
    // Per-stage serving precisions, sampled once: engines are immutable
    // while serving. Every cost observation and estimate below is keyed
    // by this tag so quantized stages (several times faster) and f32
    // stages keep separate latency EMAs.
    let precisions: Vec<Precision> = (0..engine.num_stages())
        .map(|s| engine.stage_precision(s))
        .collect();
    // Outstanding worker jobs (a fused batch occupies one worker).
    let mut busy_jobs = 0usize;
    // Tasks whose stage is executing right now (>= busy_jobs under fusion).
    let mut running_tasks = 0usize;
    let mut accepting = true;
    scheduler.reset();

    loop {
        // 1. Accept new requests.
        loop {
            match submit_rx.try_recv() {
                Ok((id, request, want_stages, sink)) => {
                    let session = engine.begin(&request.payload);
                    let now = Instant::now();
                    let deadline = now + request.class.deadline();
                    tasks.insert(
                        id,
                        ActiveTask {
                            class_name: request.class.name().to_owned(),
                            session: Some(session),
                            observed: Vec::new(),
                            last: None,
                            started: now,
                            deadline,
                            killed: false,
                            panicked: false,
                            degraded: false,
                            gathering: false,
                            running_stage: None,
                            dispatched_at: None,
                            num_stages: engine.num_stages(),
                            want_stages,
                            sink,
                        },
                    );
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    accepting = false;
                    break;
                }
            }
        }

        // 2. Collect finished jobs — deliberately *before* the deadline
        // check, so a request that completed right at its deadline is
        // observed as complete rather than killed. A stage that panicked
        // inside the engine marks its task so it finalizes with whatever
        // it had, rather than deadlocking the runtime. A session that
        // reports no stage without panicking has none left to run: its
        // work is done with what it has.
        while let Ok(entries) = done_rx.try_recv() {
            busy_jobs -= 1;
            for (id, session, report, panicked) in entries {
                running_tasks -= 1;
                if let Some(task) = tasks.get_mut(&id) {
                    let stage = task.running_stage.take();
                    if let Some(report) = report {
                        if let Some(stage) = stage {
                            profile.observe(stage, report.confidence);
                            if let Some(at) = task.dispatched_at {
                                cost.observe_precision_ms(
                                    stage,
                                    precision_at(&precisions, stage),
                                    at.elapsed().as_secs_f64() * 1e3,
                                );
                            }
                        }
                        task.observed.push(report.confidence);
                        task.last = Some(report);
                    } else if !panicked {
                        task.num_stages = task.observed.len();
                    }
                    task.dispatched_at = None;
                    if panicked {
                        task.panicked = true;
                    }
                    task.session = Some(session);
                }
            }
        }

        // 3. Enforce deadlines (the paper's deadline daemon): kill every
        // task past its deadline unless it is already killed, degraded, or
        // parked with its work done — a completion that beat this check
        // finalizes as answered below. A running task is marked too; it
        // finalizes once its stage returns.
        let now = Instant::now();
        for task in tasks.values_mut() {
            let complete = task.session.is_some() && task.work_done(config.confidence_threshold);
            if task.deadline <= now && !task.killed && !task.degraded && !complete {
                task.killed = true;
            }
        }

        // 3b. Overload controller (Degrade mode): force-exit requests at
        // an earlier stage *before* their deadline kills them — when the
        // estimated next stage no longer fits the remaining budget, and,
        // under queue pressure, the lowest-utility-density parked requests
        // that already hold a partial answer.
        if config.overload == OverloadPolicy::Degrade {
            let mut parked_depth = 0usize;
            for task in tasks.values_mut() {
                if task.session.is_none() || task.killed || task.panicked || task.degraded {
                    continue;
                }
                // Already complete: it finalizes this very iteration.
                if task.work_done(config.confidence_threshold) {
                    continue;
                }
                parked_depth += 1;
                if task.observed.is_empty() {
                    continue;
                }
                let remaining_ms = task.deadline.saturating_duration_since(now).as_secs_f64() * 1e3;
                let next = task.observed.len();
                if cost.estimate_precision_ms(next, precision_at(&precisions, next)) > remaining_ms
                {
                    task.degraded = true;
                    parked_depth -= 1;
                }
            }
            if parked_depth > config.queue_high_water {
                let mut shedable: Vec<(RequestId, f64)> = tasks
                    .iter()
                    .filter(|(_, t)| {
                        t.session.is_some()
                            && !t.killed
                            && !t.panicked
                            && !t.degraded
                            && !t.observed.is_empty()
                    })
                    .map(|(&id, t)| (id, utility_density(t, &profile, &cost, &precisions)))
                    .collect();
                shedable.sort_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                });
                for (id, _) in shedable
                    .into_iter()
                    .take(parked_depth - config.queue_high_water)
                {
                    if let Some(task) = tasks.get_mut(&id) {
                        task.degraded = true;
                    }
                }
            }
        }

        // 4. Finalize tasks that are done, killed, degraded, or confident
        // enough. Gathered tasks keep their session, so a deadline kill
        // mid-gather finalizes here like any parked task (the bucket is
        // pruned below).
        let finished: Vec<RequestId> = tasks
            .iter()
            .filter(|(_, t)| {
                t.session.is_some()
                    && (t.killed
                        || t.panicked
                        || t.degraded
                        || t.work_done(config.confidence_threshold))
            })
            .map(|(&id, _)| id)
            .collect();
        for id in finished {
            let task = tasks.remove(&id).expect("task present");
            // Degrade mode turns a deadline kill into an early exit
            // whenever at least one stage completed: the partial answer is
            // the paper's imprecise-computation result, not a miss. A
            // zero-stage kill has nothing to return and stays an expiry,
            // as does any engine panic; a kill that raced *full*
            // completion (only visible once the running stage returned)
            // cut nothing short and is swallowed as stale.
            let fully_done = task.work_done(config.confidence_threshold);
            let (expired, degraded) = if task.panicked {
                (true, false)
            } else if task.degraded || (task.killed && config.overload == OverloadPolicy::Degrade) {
                if fully_done {
                    (false, false)
                } else if task.observed.is_empty() {
                    (true, false)
                } else {
                    (false, true)
                }
            } else {
                (task.killed, false)
            };
            if degraded {
                stats.note_degraded_exit();
            } else if task.killed && !task.panicked {
                if expired {
                    stats.note_deadline_kill();
                } else {
                    stats.note_stale_kill_swallowed();
                }
            }
            ledger.record(
                &task.class_name,
                task.observed.len(),
                expired,
                !expired && task.observed.len() < task.num_stages,
            );
            let response = InferenceResponse {
                id,
                predicted: task.last.map(|r| r.predicted),
                confidence: task.last.map(|r| r.confidence),
                stages_executed: task.observed.len(),
                expired,
                degraded,
                latency: task.started.elapsed(),
            };
            // Completion is recorded before the reply so a submitter that
            // has received every response observes a consistent gauge.
            stats.note_completed();
            (task.sink)(Reply::Final(response));
        }

        // 5. Schedule parked tasks onto free workers through the gather
        // buckets. With `max_batch == 1` every bucket is full at one
        // member and `capacity <= free`, so every pick dispatches alone in
        // this same pass.
        buckets.prune(|id| {
            tasks
                .get(&id)
                .is_some_and(|t| !t.killed && !t.panicked && !t.degraded)
        });
        // The scheduler may claim one batch worth of slots per worker —
        // including busy ones, so buckets keep filling while every worker
        // is occupied (that backlog is where fusion under overload comes
        // from) — minus what is already claimed.
        let capacity = (config.num_workers * max_batch)
            .saturating_sub(buckets.total_gathered() + running_tasks);
        if capacity > 0 {
            let now = Instant::now();
            for picked in pick_schedulable(
                &mut scheduler,
                &tasks,
                capacity,
                &config,
                &profile,
                &cost,
                &precisions,
            ) {
                if let Some(task) = tasks.get_mut(&picked) {
                    task.gathering = true;
                    buckets.add(task.observed.len(), picked, now);
                }
            }
        }
        let mut free = config.num_workers.saturating_sub(busy_jobs);
        while free > 0 {
            let now = Instant::now();
            let popped = buckets.pop_ready(
                now,
                |id| {
                    tasks.get(&id).is_some_and(|t| {
                        // A gathered request is deadline-urgent once its
                        // remaining budget is within one gather window of
                        // its estimated next-stage cost: waiting longer
                        // risks its deadline killing it before the stage
                        // even dispatches.
                        let next = t.observed.len();
                        let margin = urgent_margin(
                            cost.estimate_precision_ms(next, precision_at(&precisions, next)),
                            config.gather_window,
                        );
                        t.deadline.saturating_duration_since(now) <= margin
                    })
                },
                |stage| potential_joiners(&tasks, stage),
            );
            let Some((_, members)) = popped else {
                break;
            };
            let mut batch = Vec::with_capacity(members.len());
            for (id, wait) in members {
                let Some(task) = tasks.get_mut(&id) else {
                    continue;
                };
                task.gathering = false;
                if task.killed || task.panicked || task.degraded {
                    continue;
                }
                let Some(session) = task.session.take() else {
                    continue;
                };
                task.running_stage = Some(task.observed.len());
                task.dispatched_at = Some(now);
                stats.note_gather_wait(wait);
                let stage_sink = task.want_stages.then(|| Arc::clone(&task.sink));
                batch.push((id, session, stage_sink));
            }
            if batch.is_empty() {
                continue;
            }
            stats.note_batch_dispatch(batch.len());
            busy_jobs += 1;
            running_tasks += batch.len();
            free -= 1;
            dispatch(&pool, Arc::clone(&engine), batch, &done_tx);
        }

        // 6. Publish occupancy, exit when drained, otherwise pace the loop.
        stats.set_occupancy(running_tasks, tasks.len().saturating_sub(running_tasks));
        if !accepting && tasks.is_empty() && busy_jobs == 0 {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    stats.set_occupancy(0, 0);
    pool.shutdown();
}

/// Online per-stage confidence profile: the running mean of the
/// confidence every completed stage reported, per stage index. This is
/// the Δutility half of the utility-density ordering — "how much
/// confidence does one more stage typically buy". Unseen stages fall back
/// to a linear ramp prior so cold starts still order sensibly.
struct ConfidenceProfile {
    sums: Vec<f64>,
    counts: Vec<u64>,
    num_stages: usize,
}

impl ConfidenceProfile {
    fn new(num_stages: usize) -> Self {
        let n = num_stages.max(1);
        Self {
            sums: vec![0.0; n],
            counts: vec![0; n],
            num_stages: n,
        }
    }

    fn observe(&mut self, stage: usize, confidence: f32) {
        if stage < self.sums.len() && confidence.is_finite() {
            self.sums[stage] += f64::from(confidence);
            self.counts[stage] += 1;
        }
    }

    /// Expected confidence after executing stage index `stage`.
    fn expected_after(&self, stage: usize) -> f64 {
        let stage = stage.min(self.num_stages - 1);
        if self.counts[stage] > 0 {
            self.sums[stage] / self.counts[stage] as f64
        } else {
            (stage + 1) as f64 / self.num_stages as f64
        }
    }
}

/// Serving precision of `stage`, falling back to f32 for stages past the
/// sampled engine depth (sessions never run stages beyond `num_stages`,
/// but estimates are occasionally asked about them).
fn precision_at(precisions: &[Precision], stage: usize) -> Precision {
    precisions.get(stage).copied().unwrap_or(Precision::F32)
}

/// Marginal utility density of running `task`'s next stage: estimated
/// Δconfidence (confidence profile) over estimated Δtime (stage cost
/// model, at the stage's serving precision), in confidence per
/// millisecond. The floor on the gain keeps fully-plateaued tasks
/// schedulable rather than starved forever.
fn utility_density(
    task: &ActiveTask,
    profile: &ConfidenceProfile,
    cost: &StageCostModel,
    precisions: &[Precision],
) -> f64 {
    let next = task.observed.len();
    let current = task.last.map_or(0.0, |r| f64::from(r.confidence));
    let gain = (profile.expected_after(next) - current).max(1e-4);
    gain / cost
        .estimate_precision_ms(next, precision_at(precisions, next))
        .max(1e-6)
}

/// Remaining-budget threshold below which a gathered request must flush
/// regardless of batching opportunities: one more gather window of waiting
/// plus the estimated cost of the stage itself. Deriving the margin from
/// the request's own next-stage cost fixes both failure modes of the old
/// fixed `2 x gather_window` margin: a short-deadline request with an
/// expensive next stage flushed too late (margin ignored the stage cost,
/// so the stage could no longer finish), and a long-deadline request with
/// a cheap stage flushed pointlessly early under a wide window.
fn urgent_margin(est_next_stage_ms: f64, gather_window: Duration) -> Duration {
    let stage = Duration::from_secs_f64(est_next_stage_ms.max(0.0) / 1e3);
    gather_window.saturating_add(stage)
}

/// Picks at most `capacity` parked, live, not-yet-gathered tasks to run
/// next: by marginal utility density under [`OverloadPolicy::Degrade`],
/// by the configured scheduling policy otherwise.
fn pick_schedulable(
    scheduler: &mut Box<dyn Scheduler>,
    tasks: &HashMap<RequestId, ActiveTask>,
    capacity: usize,
    config: &RuntimeConfig,
    profile: &ConfidenceProfile,
    cost: &StageCostModel,
    precisions: &[Precision],
) -> Vec<RequestId> {
    let mut entries: Vec<(&RequestId, &ActiveTask)> = tasks
        .iter()
        .filter(|(_, t)| {
            t.session.is_some() && !t.killed && !t.panicked && !t.degraded && !t.gathering
        })
        .collect();
    entries.sort_by_key(|(id, _)| **id);
    if config.overload == OverloadPolicy::Degrade {
        // Utility-density order: highest Δconfidence/Δtime first, ties
        // broken toward the nearer deadline, then by id for determinism.
        // Under overload this naturally prefers first stages (largest
        // confidence gain), so every admitted request reaches stage >= 1
        // before anyone's refinement stages run.
        let mut ranked: Vec<(f64, Instant, RequestId)> = entries
            .iter()
            .map(|(id, t)| {
                (
                    utility_density(t, profile, cost, precisions),
                    t.deadline,
                    **id,
                )
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });
        return ranked
            .into_iter()
            .take(capacity)
            .map(|(_, _, id)| id)
            .collect();
    }
    let now = Instant::now();
    let views: Vec<TaskView<'_>> = entries
        .iter()
        .map(|(id, t)| {
            let remaining_ms = t.deadline.saturating_duration_since(now).as_millis() as u64;
            TaskView {
                id: **id as usize,
                stages_done: t.observed.len(),
                num_stages: t.num_stages,
                observed: &t.observed,
                admitted_at: 0,
                deadline_remaining_ms: remaining_ms,
                // In stage-execution units, as the schedulers' slack
                // arithmetic expects (they compare this against counts of
                // stages left, not milliseconds).
                remaining_quanta: (remaining_ms as f64
                    / cost
                        .estimate_precision_ms(
                            t.observed.len(),
                            precision_at(precisions, t.observed.len()),
                        )
                        .max(1e-6)) as u64,
            }
        })
        .collect();
    scheduler
        .assign(&views, capacity)
        .into_iter()
        .take(capacity)
        .map(|picked| picked as RequestId)
        .collect()
}

/// Tasks outside the gather buckets that could still reach `stage`: parked
/// tasks already there, and running tasks whose current stage parks them
/// there next. Zero means waiting out the gather window buys nothing.
fn potential_joiners(tasks: &HashMap<RequestId, ActiveTask>, stage: usize) -> usize {
    tasks
        .values()
        .filter(|t| !t.killed && !t.panicked && !t.degraded)
        .filter(|t| match (&t.session, t.running_stage) {
            (Some(_), _) => !t.gathering && t.observed.len() == stage,
            (None, Some(running)) => running + 1 == stage,
            (None, None) => false,
        })
        .count()
}

/// Executes one gathered batch (one to `max_batch` members) on the pool
/// via the engine's [`InferenceEngine::next_stage_batch`], scattering
/// per-session reports back as individual stage outcomes. A member's
/// stage reply goes to its sink before the outcome is posted, so it
/// always precedes the final reply the coordinator sends after.
fn dispatch(
    pool: &WorkerPool,
    engine: Arc<dyn InferenceEngine>,
    batch: Vec<BatchMember>,
    done_tx: &Sender<JobDone>,
) {
    let done_tx = done_tx.clone();
    pool.execute(move || {
        let mut ids = Vec::with_capacity(batch.len());
        let mut sessions: Vec<Box<dyn EngineSession>> = Vec::with_capacity(batch.len());
        let mut sinks = Vec::with_capacity(batch.len());
        for (id, session, sink) in batch {
            ids.push(id);
            sessions.push(session);
            sinks.push(sink);
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.next_stage_batch(&mut sessions)
        }));
        let entries: JobDone = match outcome {
            Ok(mut reports) => {
                // A misbehaving override must never lose sessions: pad or
                // truncate its report list to the batch size.
                reports.resize(sessions.len(), None);
                ids.into_iter()
                    .zip(sessions)
                    .zip(reports)
                    .zip(sinks)
                    .map(|(((id, session), report), sink)| {
                        if let (Some(r), Some(sink)) = (report, sink) {
                            sink(Reply::Stage(StageProgress {
                                request_id: id,
                                stage: session.stages_done().saturating_sub(1),
                                confidence: r.confidence,
                                predicted: r.predicted,
                            }));
                        }
                        (id, session, report, false)
                    })
                    .collect()
            }
            // A panic inside a batched stage poisons the whole batch:
            // every member finalizes as killed with whatever it already
            // had.
            Err(_) => ids
                .into_iter()
                .zip(sessions)
                .map(|(id, session)| (id, session, None, true))
                .collect(),
        };
        let _ = done_tx.send(entries);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testing::RampEngine;
    use crate::ServiceClass;
    use eugene_sched::Fifo;

    fn runtime(ramp: Vec<f32>, stage_ms: u64, config: RuntimeConfig) -> ServingRuntime {
        let engine = Arc::new(RampEngine {
            ramp,
            stage_time: Duration::from_millis(stage_ms),
        });
        ServingRuntime::start(engine, Box::new(Fifo::new()), config)
    }

    fn class(deadline_ms: u64) -> ServiceClass {
        ServiceClass::new("test", Duration::from_millis(deadline_ms))
    }

    #[test]
    fn serves_a_request_through_all_stages() {
        let rt = runtime(vec![0.5, 0.7, 0.9], 1, RuntimeConfig::default());
        let (_, rx) = rt.submit(InferenceRequest::new(vec![3.0], class(5_000)));
        let response = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(response.stages_executed, 3);
        assert_eq!(response.predicted, Some(3));
        assert_eq!(response.confidence, Some(0.9));
        assert!(!response.expired);
        // `max_batch == 1` dispatches through the same gather path: each
        // stage is a batch of one.
        let stats = rt.stats();
        assert_eq!(stats.singleton_dispatches(), 3);
        assert_eq!(stats.fused_batches(), 0);
        rt.shutdown();
    }

    #[test]
    fn early_exit_skips_remaining_stages() {
        let config = RuntimeConfig {
            confidence_threshold: 0.8,
            ..RuntimeConfig::default()
        };
        let rt = runtime(vec![0.85, 0.9, 0.99], 1, config);
        let (_, rx) = rt.submit(InferenceRequest::new(vec![1.0], class(5_000)));
        let response = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(response.stages_executed, 1, "first stage already confident");
        assert_eq!(response.confidence, Some(0.85));
        rt.shutdown();
    }

    #[test]
    fn many_concurrent_requests_all_answered() {
        let rt = runtime(vec![0.6, 0.9], 1, RuntimeConfig::default());
        let receivers: Vec<_> = (0..20)
            .map(|i| {
                let (id, rx) = rt.submit(InferenceRequest::new(vec![i as f32], class(10_000)));
                (i, id, rx)
            })
            .collect();
        for (i, id, rx) in receivers {
            let response = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(response.id, id);
            assert_eq!(response.stages_executed, 2);
            assert_eq!(response.predicted, Some(i));
        }
        rt.shutdown();
    }

    #[test]
    fn ledger_accounts_per_class_usage() {
        let config = RuntimeConfig {
            confidence_threshold: 0.8,
            ..RuntimeConfig::default()
        };
        let rt = runtime(vec![0.85, 0.9, 0.95], 1, config);
        // Two classes: both early-exit after one stage (0.85 >= 0.8).
        let a = ServiceClass::new("interactive", Duration::from_secs(10));
        let b = ServiceClass::new("batch", Duration::from_secs(10));
        let mut rxs = Vec::new();
        for i in 0..6 {
            let class = if i % 3 == 0 { a.clone() } else { b.clone() };
            rxs.push(rt.submit(InferenceRequest::new(vec![0.0], class)));
        }
        for (_, rx) in rxs {
            rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        let interactive = rt.usage_ledger().usage("interactive");
        let batch = rt.usage_ledger().usage("batch");
        assert_eq!(interactive.requests, 2);
        assert_eq!(batch.requests, 4);
        assert_eq!(interactive.early_exits, 2);
        assert_eq!(interactive.stages_executed, 2);
        assert_eq!(rt.usage_ledger().total_stages(), 6);
        rt.shutdown();
    }

    /// An engine whose second stage always panics.
    struct ExplosiveEngine;
    impl crate::InferenceEngine for ExplosiveEngine {
        fn num_stages(&self) -> usize {
            3
        }
        fn begin(&self, _payload: &[f32]) -> Box<dyn crate::EngineSession> {
            Box::new(ExplosiveSession { done: 0 })
        }
    }
    struct ExplosiveSession {
        done: usize,
    }
    impl crate::EngineSession for ExplosiveSession {
        fn next_stage(&mut self) -> Option<StageReport> {
            if self.done >= 1 {
                panic!("stage 2 explodes");
            }
            self.done += 1;
            Some(StageReport {
                predicted: 0,
                confidence: 0.5,
            })
        }
        fn stages_done(&self) -> usize {
            self.done
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn worker_panic_fails_the_task_without_wedging_the_runtime() {
        let rt = ServingRuntime::start(
            Arc::new(ExplosiveEngine),
            Box::new(Fifo::new()),
            RuntimeConfig::default(),
        );
        let (_, rx) = rt.submit(InferenceRequest::new(vec![0.0], class(5_000)));
        let response = rx.recv_timeout(Duration::from_secs(10)).expect("response");
        assert!(response.expired, "panicked task finalizes as killed");
        assert_eq!(response.stages_executed, 1, "only the good stage counted");
        assert_eq!(response.confidence, Some(0.5));
        // The runtime keeps serving and shuts down cleanly.
        rt.shutdown();
    }

    #[test]
    fn fused_batches_form_under_load_and_answer_correctly() {
        let config = RuntimeConfig {
            num_workers: 1,
            max_batch: 4,
            gather_window: Duration::from_millis(5),
            ..RuntimeConfig::default()
        };
        let rt = runtime(vec![0.5, 0.9], 10, config);
        let rxs: Vec<_> = (0..8)
            .map(|i| rt.submit(InferenceRequest::new(vec![i as f32], class(30_000))))
            .collect();
        for (i, (id, rx)) in rxs.into_iter().enumerate() {
            let response = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(response.id, id);
            assert_eq!(response.stages_executed, 2);
            assert_eq!(response.predicted, Some(i), "row scattered to wrong task");
            assert!(!response.expired);
        }
        let stats = rt.stats();
        assert!(
            stats.fused_batches() > 0,
            "8 requests through 1 worker with max_batch 4 must fuse"
        );
        assert!(stats.peak_batch_occupancy() >= 2);
        assert!(stats.batched_stage_executions() >= 2);
        rt.shutdown();
    }

    #[test]
    fn lone_request_never_waits_to_be_fused() {
        let config = RuntimeConfig {
            num_workers: 2,
            max_batch: 4,
            gather_window: Duration::from_millis(2),
            ..RuntimeConfig::default()
        };
        let rt = runtime(vec![0.5, 0.9], 1, config);
        let (_, rx) = rt.submit(InferenceRequest::new(vec![5.0], class(10_000)));
        let response = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(response.stages_executed, 2);
        let stats = rt.stats();
        assert_eq!(
            stats.fused_batches(),
            0,
            "a lone request must never wait to be fused"
        );
        assert!(
            stats.singleton_dispatches() >= 2,
            "each stage flushes as a batch of one"
        );
        rt.shutdown();
    }

    /// One sink shared by every request, fused batches, and a mix of
    /// requests that want stages and requests that do not: each request
    /// that asked gets `Stage` replies for stages 0..k in order, then one
    /// `Final` for k stages; the others get only their `Final`.
    #[test]
    fn each_request_gets_its_stages_in_order_then_one_final() {
        let config = RuntimeConfig {
            num_workers: 1,
            max_batch: 4,
            gather_window: Duration::from_millis(5),
            ..RuntimeConfig::default()
        };
        let rt = runtime(vec![0.4, 0.6, 0.9], 5, config);
        let (tx, rx) = unbounded();
        let sink: ReplySink = Arc::new(move |reply| {
            let _ = tx.send(reply);
        });
        let submitted: Vec<(RequestId, bool)> = (0..8)
            .map(|i| {
                let want_stages = i % 3 != 0;
                let request = InferenceRequest::new(vec![i as f32], class(30_000));
                (
                    rt.submit_to(request, want_stages, Arc::clone(&sink)),
                    want_stages,
                )
            })
            .collect();
        drop(sink);
        let stats = rt.stats();
        let ledger = rt.usage_ledger().clone();
        // Shutdown drains every request and drops every sink, so the
        // channel then holds every reply the runtime will ever send.
        rt.shutdown();
        let mut replies: HashMap<RequestId, Vec<Reply>> = HashMap::new();
        for reply in rx.iter() {
            let id = match &reply {
                Reply::Stage(stage) => stage.request_id,
                Reply::Final(response) => response.id,
            };
            replies.entry(id).or_default().push(reply);
        }
        assert_eq!(replies.len(), submitted.len(), "no reply for unknown ids");
        for (id, want_stages) in submitted {
            let replies = &replies[&id];
            let (last, stages) = replies.split_last().expect("answered");
            let Reply::Final(response) = last else {
                panic!("request {id}: the last reply must be its Final");
            };
            assert_eq!(response.stages_executed, 3);
            let expected = if want_stages { 3 } else { 0 };
            assert_eq!(stages.len(), expected, "request {id}: stage replies");
            for (k, reply) in stages.iter().enumerate() {
                let Reply::Stage(stage) = reply else {
                    panic!("request {id}: a second Final");
                };
                assert_eq!(stage.stage, k, "request {id}: stages in order");
            }
        }
        assert!(stats.fused_batches() > 0, "stage replies survive fusion");
        assert_eq!(ledger.total_stages(), 24);
    }

    #[test]
    fn shutdown_with_no_requests_is_clean() {
        let rt = runtime(vec![0.9], 1, RuntimeConfig::default());
        rt.shutdown();
    }

    #[test]
    fn stats_track_in_flight_and_completion() {
        let rt = runtime(vec![0.5, 0.9], 5, RuntimeConfig::default());
        let stats = rt.stats();
        assert_eq!(stats.in_flight(), 0);
        let rxs: Vec<_> = (0..8)
            .map(|i| rt.submit(InferenceRequest::new(vec![i as f32], class(10_000))))
            .collect();
        assert_eq!(stats.submitted(), 8);
        assert!(stats.in_flight() > 0, "requests are open while queued");
        for (_, rx) in rxs {
            rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        // The coordinator finalizes each response before sending it, so by
        // the time all responses arrived every request is complete.
        assert_eq!(stats.completed(), 8);
        assert_eq!(stats.in_flight(), 0);
        rt.shutdown();
        assert_eq!(stats.running(), 0);
        assert_eq!(stats.queued(), 0);
    }

    #[test]
    fn shutdown_with_in_flight_requests_answers_or_closes_every_channel() {
        // Slow stages so shutdown lands while requests are mid-pipeline.
        let rt = runtime(vec![0.3, 0.6, 0.9], 10, RuntimeConfig::default());
        let rxs: Vec<_> = (0..12)
            .map(|i| rt.submit(InferenceRequest::new(vec![i as f32], class(10_000))))
            .collect();
        rt.shutdown();
        // Shutdown drains: every submitted request still gets a response
        // (never a hang, never a lost channel).
        for (id, rx) in rxs {
            let response = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("drained request answered");
            assert_eq!(response.id, id);
            assert_eq!(response.stages_executed, 3);
        }
    }

    /// Satellite regression, direction 1: a request whose next stage is
    /// expensive must turn urgent while the stage still fits its budget —
    /// the old fixed `2 x gather_window` margin ignored the stage cost
    /// and flushed too late whenever the stage outweighed the window.
    #[test]
    fn urgent_margin_covers_an_expensive_next_stage() {
        let window = Duration::from_millis(2);
        let margin = urgent_margin(50.0, window);
        assert!(
            margin >= Duration::from_millis(50),
            "margin {margin:?} must cover the 50ms stage"
        );
        assert!(
            window.saturating_mul(2) < Duration::from_millis(50),
            "the old fixed margin would have flushed too late"
        );
    }

    /// Satellite regression, direction 2: a cheap next stage under a wide
    /// gather window must not be flushed pointlessly early — the derived
    /// margin stays below the old fixed `2 x gather_window`.
    #[test]
    fn urgent_margin_does_not_flush_cheap_stages_early() {
        let window = Duration::from_millis(100);
        let margin = urgent_margin(0.5, window);
        assert!(
            margin < window.saturating_mul(2),
            "margin {margin:?} must be under the old fixed 200ms"
        );
        assert!(margin >= window, "one window of slack is always kept");
    }

    #[test]
    fn degrade_mode_leaves_feasible_requests_alone() {
        let config = RuntimeConfig {
            overload: OverloadPolicy::Degrade,
            ..RuntimeConfig::default()
        };
        let rt = runtime(vec![0.5, 0.7, 0.9], 1, config);
        let (_, rx) = rt.submit(InferenceRequest::new(vec![3.0], class(5_000)));
        let response = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(!response.degraded && !response.expired);
        assert_eq!(response.stages_executed, 3);
        rt.shutdown();
    }

    #[test]
    fn utility_density_prefers_first_stages_and_cheap_work() {
        let mut profile = ConfidenceProfile::new(3);
        // Learned concave ramp: stage 0 -> 0.5, stage 1 -> 0.8, stage 2
        // -> 0.9 (diminishing returns per extra stage).
        for (stage, conf) in [(0usize, 0.5f32), (1, 0.8), (2, 0.9)] {
            profile.observe(stage, conf);
        }
        let cost = StageCostModel::uniform(3, 1.0);
        let fresh = task_at_stage(&[], None);
        let midway = task_at_stage(&[0.5], Some(0.5));
        let deep = task_at_stage(&[0.5, 0.8], Some(0.8));
        let f32s = vec![Precision::F32; 3];
        let d_fresh = utility_density(&fresh, &profile, &cost, &f32s);
        let d_mid = utility_density(&midway, &profile, &cost, &f32s);
        let d_deep = utility_density(&deep, &profile, &cost, &f32s);
        assert!(
            d_fresh > d_mid && d_mid > d_deep,
            "first stages buy the most confidence per ms: {d_fresh} {d_mid} {d_deep}"
        );
        // A costlier next stage lowers density at equal gain.
        let mut pricey = StageCostModel::uniform(3, 1.0);
        pricey.observe_ms(0, 10.0);
        assert!(utility_density(&fresh, &profile, &pricey, &f32s) < d_fresh);
        // A quantized stage 0 keeps its own (cheap) lane: the f32 lane's
        // 10ms samples must not slow the quantized estimate down.
        let mixed = vec![Precision::Int8, Precision::F32, Precision::F32];
        pricey.observe_precision_ms(0, Precision::Int8, 0.5);
        assert!(
            utility_density(&fresh, &profile, &pricey, &mixed) > d_fresh,
            "quantized lane is cheaper than the 1ms prior"
        );
    }

    fn task_at_stage(observed: &[f32], last_conf: Option<f32>) -> ActiveTask {
        let now = Instant::now();
        ActiveTask {
            class_name: "test".to_owned(),
            session: None,
            observed: observed.to_vec(),
            last: last_conf.map(|confidence| StageReport {
                predicted: 0,
                confidence,
            }),
            started: now,
            deadline: now + Duration::from_secs(1),
            killed: false,
            panicked: false,
            degraded: false,
            gathering: false,
            running_stage: None,
            dispatched_at: None,
            num_stages: 3,
            want_stages: false,
            sink: Arc::new(|_| {}),
        }
    }

    #[test]
    fn drop_while_requests_are_in_flight_does_not_deadlock() {
        let rt = runtime(vec![0.5, 0.9], 10, RuntimeConfig::default());
        let rxs: Vec<_> = (0..6)
            .map(|i| rt.submit(InferenceRequest::new(vec![i as f32], class(10_000))))
            .collect();
        drop(rt);
        for (_, rx) in rxs {
            // Either a drained response or a cleanly closed channel; a
            // panic or deadlock would fail the test.
            let _ = rx.recv_timeout(Duration::from_secs(10));
        }
    }
}
