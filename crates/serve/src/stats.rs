use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Live occupancy gauges for a [`crate::ServingRuntime`].
///
/// A cheap cloneable handle over shared atomic counters: the runtime's
/// coordinator updates them as requests move through the pipeline, and any
/// number of observers (admission controllers, metrics exporters) read
/// them without locking. Values are monotonic counters (`submitted`,
/// `completed`) plus instantaneous gauges (`running`, `queued`), so
/// `in_flight` — the admission-control load signal — is derived as
/// `submitted - completed` and can never under-count a request that has
/// been accepted but not yet answered.
#[derive(Clone, Debug, Default)]
pub struct RuntimeStats {
    inner: Arc<Gauges>,
}

#[derive(Debug, Default)]
struct Gauges {
    submitted: AtomicU64,
    completed: AtomicU64,
    running: AtomicUsize,
    queued: AtomicUsize,
    // Micro-batching gauges (only `singleton_dispatches` and the gather
    // wait move when max_batch == 1).
    fused_batches: AtomicU64,
    batched_stages: AtomicU64,
    peak_batch: AtomicUsize,
    singleton_dispatches: AtomicU64,
    gather_wait_micros: AtomicU64,
    gather_waits: AtomicU64,
    // Deadline / degradation gauges.
    deadline_kills: AtomicU64,
    degraded_exits: AtomicU64,
    stale_kills_swallowed: AtomicU64,
}

impl RuntimeStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests accepted via `submit` since startup.
    pub fn submitted(&self) -> u64 {
        self.inner.submitted.load(Ordering::Relaxed)
    }

    /// Requests that have received their final response.
    pub fn completed(&self) -> u64 {
        self.inner.completed.load(Ordering::Relaxed)
    }

    /// Requests accepted but not yet answered (queued + running +
    /// awaiting finalization).
    pub fn in_flight(&self) -> u64 {
        // Read completed first so a concurrent submit+complete pair can
        // only make the difference conservative (too high), never negative.
        let completed = self.completed();
        self.submitted().saturating_sub(completed)
    }

    /// Tasks whose stage is executing on a worker right now.
    pub fn running(&self) -> usize {
        self.inner.running.load(Ordering::Relaxed)
    }

    /// Admitted tasks parked between stages, waiting for a worker.
    pub fn queued(&self) -> usize {
        self.inner.queued.load(Ordering::Relaxed)
    }

    /// Fused stage executions: batches of two or more requests that ran
    /// as one forward.
    pub fn fused_batches(&self) -> u64 {
        self.inner.fused_batches.load(Ordering::Relaxed)
    }

    /// Stage executions that rode inside a fused batch (the occupancy
    /// numerator: `batched_stage_executions / fused_batches` is the mean
    /// batch size).
    pub fn batched_stage_executions(&self) -> u64 {
        self.inner.batched_stages.load(Ordering::Relaxed)
    }

    /// Largest batch fused so far.
    pub fn peak_batch_occupancy(&self) -> usize {
        self.inner.peak_batch.load(Ordering::Relaxed)
    }

    /// Gather buckets flushed with a single member: every stage of a
    /// `max_batch == 1` runtime, and lone requests of a batching one.
    pub fn singleton_dispatches(&self) -> u64 {
        self.inner.singleton_dispatches.load(Ordering::Relaxed)
    }

    /// Mean time a request spent parked in a gather bucket before its
    /// stage dispatched (zero if nothing has gathered yet).
    pub fn mean_gather_wait(&self) -> std::time::Duration {
        let waits = self.inner.gather_waits.load(Ordering::Relaxed);
        if waits == 0 {
            return std::time::Duration::ZERO;
        }
        let total = self.inner.gather_wait_micros.load(Ordering::Relaxed);
        std::time::Duration::from_micros(total / waits)
    }

    /// Requests the deadline daemon killed and that were answered
    /// `expired` with no usable result.
    pub fn deadline_kills(&self) -> u64 {
        self.inner.deadline_kills.load(Ordering::Relaxed)
    }

    /// Requests force-exited early with a usable partial result — by the
    /// overload controller or by a deadline that would otherwise have
    /// killed them (anytime degradation).
    pub fn degraded_exits(&self) -> u64 {
        self.inner.degraded_exits.load(Ordering::Relaxed)
    }

    /// Kill signals that raced a just-completed request (the daemon fired
    /// between completion and `deregister`) and were swallowed. These are
    /// bookkeeping noise, never user-visible failures.
    pub fn stale_kills_swallowed(&self) -> u64 {
        self.inner.stale_kills_swallowed.load(Ordering::Relaxed)
    }

    pub(crate) fn note_deadline_kill(&self) {
        self.inner.deadline_kills.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_degraded_exit(&self) {
        self.inner.degraded_exits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_stale_kill_swallowed(&self) {
        self.inner
            .stale_kills_swallowed
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_batch_dispatch(&self, size: usize) {
        if size >= 2 {
            self.inner.fused_batches.fetch_add(1, Ordering::Relaxed);
            self.inner
                .batched_stages
                .fetch_add(size as u64, Ordering::Relaxed);
            self.inner.peak_batch.fetch_max(size, Ordering::Relaxed);
        } else {
            self.inner
                .singleton_dispatches
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn note_gather_wait(&self, wait: std::time::Duration) {
        self.inner
            .gather_wait_micros
            .fetch_add(wait.as_micros() as u64, Ordering::Relaxed);
        self.inner.gather_waits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_submitted(&self) {
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_completed(&self) {
        self.inner.completed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn set_occupancy(&self, running: usize, queued: usize) {
        self.inner.running.store(running, Ordering::Relaxed);
        self.inner.queued.store(queued, Ordering::Relaxed);
    }

    /// Point-in-time copy of every gauge, suitable for aggregation across
    /// runtimes (one per shard) or for diffing before/after a workload.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            submitted: self.submitted(),
            completed: self.completed(),
            in_flight: self.in_flight(),
            running: self.running(),
            queued: self.queued(),
            fused_batches: self.fused_batches(),
            batched_stage_executions: self.batched_stage_executions(),
            peak_batch_occupancy: self.peak_batch_occupancy(),
            singleton_dispatches: self.singleton_dispatches(),
            deadline_kills: self.deadline_kills(),
            degraded_exits: self.degraded_exits(),
            stale_kills_swallowed: self.stale_kills_swallowed(),
            per_model: BTreeMap::new(),
            per_tenant: BTreeMap::new(),
        }
    }
}

/// Per-model slice of an aggregate snapshot: the gauges of one named
/// registry entry, cumulative across reloads of the same name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModelBreakdown {
    pub submitted: u64,
    pub completed: u64,
    pub in_flight: u64,
    pub fused_batches: u64,
}

impl ModelBreakdown {
    /// Reads one runtime's gauges into a breakdown row.
    pub fn of(stats: &RuntimeStats) -> Self {
        Self {
            submitted: stats.submitted(),
            completed: stats.completed(),
            in_flight: stats.in_flight(),
            fused_batches: stats.fused_batches(),
        }
    }

    /// Sums another row into this one (same-name rows across shards or
    /// across a model's reload generations).
    pub fn absorb(&mut self, other: &ModelBreakdown) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.in_flight += other.in_flight;
        self.fused_batches += other.fused_batches;
    }
}

/// Per-tenant slice of an aggregate snapshot: what the gateway's
/// admission layer admitted and shed for one tenant identity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantBreakdown {
    pub admitted: u64,
    pub shed: u64,
    pub in_flight: u64,
}

impl TenantBreakdown {
    /// Sums another row into this one.
    pub fn absorb(&mut self, other: &TenantBreakdown) {
        self.admitted += other.admitted;
        self.shed += other.shed;
        self.in_flight += other.in_flight;
    }
}

/// Plain-value copy of [`RuntimeStats`] gauges at one instant.
///
/// Unlike the live handle, a snapshot is inert data: it can be summed
/// across shards ([`StatsSnapshot::absorb`] / [`StatsSnapshot::aggregate`])
/// without racing the runtimes that keep updating the originals. Counters
/// add; `peak_batch_occupancy` takes the max (a peak across shards is the
/// largest any one shard fused, not a sum). The `per_model` / `per_tenant`
/// breakdowns merge by name, so aggregating shard snapshots yields one row
/// per model and per tenant across the whole deployment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub submitted: u64,
    pub completed: u64,
    pub in_flight: u64,
    pub running: usize,
    pub queued: usize,
    pub fused_batches: u64,
    pub batched_stage_executions: u64,
    pub peak_batch_occupancy: usize,
    pub singleton_dispatches: u64,
    pub deadline_kills: u64,
    pub degraded_exits: u64,
    pub stale_kills_swallowed: u64,
    /// One row per registry model (empty for a bare runtime snapshot).
    pub per_model: BTreeMap<String, ModelBreakdown>,
    /// One row per tenant the gateway admission layer has seen (empty
    /// below the gateway layer).
    pub per_tenant: BTreeMap<String, TenantBreakdown>,
}

impl StatsSnapshot {
    /// Folds another snapshot into this one (summing counters, maxing the
    /// peak gauge, merging the per-model / per-tenant rows by name).
    pub fn absorb(&mut self, other: &StatsSnapshot) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.in_flight += other.in_flight;
        self.running += other.running;
        self.queued += other.queued;
        self.fused_batches += other.fused_batches;
        self.batched_stage_executions += other.batched_stage_executions;
        self.peak_batch_occupancy = self.peak_batch_occupancy.max(other.peak_batch_occupancy);
        self.singleton_dispatches += other.singleton_dispatches;
        self.deadline_kills += other.deadline_kills;
        self.degraded_exits += other.degraded_exits;
        self.stale_kills_swallowed += other.stale_kills_swallowed;
        for (name, row) in &other.per_model {
            self.per_model.entry(name.clone()).or_default().absorb(row);
        }
        for (name, row) in &other.per_tenant {
            self.per_tenant.entry(name.clone()).or_default().absorb(row);
        }
    }

    /// Sums a set of per-runtime stats handles into one aggregate view.
    pub fn aggregate<'a>(stats: impl IntoIterator<Item = &'a RuntimeStats>) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for s in stats {
            total.absorb(&s.snapshot());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_track_updates() {
        let stats = RuntimeStats::new();
        assert_eq!(stats.submitted(), 0);
        assert_eq!(stats.in_flight(), 0);

        stats.note_submitted();
        stats.note_submitted();
        let observer = stats.clone();
        assert_eq!(observer.submitted(), 2, "clones share state");
        assert_eq!(observer.in_flight(), 2);

        stats.set_occupancy(1, 1);
        assert_eq!(observer.running(), 1);
        assert_eq!(observer.queued(), 1);

        stats.note_completed();
        assert_eq!(observer.in_flight(), 1);
        stats.note_completed();
        assert_eq!(observer.in_flight(), 0);
        assert_eq!(observer.completed(), 2);
    }

    #[test]
    fn batch_gauges_distinguish_fused_and_singleton_dispatches() {
        let stats = RuntimeStats::new();
        stats.note_batch_dispatch(1);
        stats.note_batch_dispatch(4);
        stats.note_batch_dispatch(2);
        assert_eq!(stats.singleton_dispatches(), 1);
        assert_eq!(stats.fused_batches(), 2);
        assert_eq!(stats.batched_stage_executions(), 6);
        assert_eq!(stats.peak_batch_occupancy(), 4);

        assert_eq!(stats.mean_gather_wait(), std::time::Duration::ZERO);
        stats.note_gather_wait(std::time::Duration::from_micros(100));
        stats.note_gather_wait(std::time::Duration::from_micros(300));
        assert_eq!(
            stats.mean_gather_wait(),
            std::time::Duration::from_micros(200)
        );
    }

    #[test]
    fn in_flight_never_underflows() {
        let stats = RuntimeStats::new();
        stats.note_completed();
        assert_eq!(stats.in_flight(), 0);
    }

    #[test]
    fn snapshots_aggregate_counters_and_max_peaks() {
        let a = RuntimeStats::new();
        a.note_submitted();
        a.note_submitted();
        a.note_completed();
        a.note_batch_dispatch(4);
        let b = RuntimeStats::new();
        b.note_submitted();
        b.note_batch_dispatch(2);
        b.note_batch_dispatch(1);

        let total = StatsSnapshot::aggregate([&a, &b]);
        assert_eq!(total.submitted, 3);
        assert_eq!(total.completed, 1);
        assert_eq!(total.in_flight, 2);
        assert_eq!(total.fused_batches, 2);
        assert_eq!(total.batched_stage_executions, 6);
        assert_eq!(total.peak_batch_occupancy, 4, "peak is a max, not a sum");
        assert_eq!(total.singleton_dispatches, 1);
    }

    #[test]
    fn breakdown_rows_merge_by_name() {
        let mut a = StatsSnapshot::default();
        a.per_model.insert(
            "full".to_owned(),
            ModelBreakdown {
                submitted: 4,
                completed: 3,
                in_flight: 1,
                fused_batches: 2,
            },
        );
        a.per_tenant.insert(
            "acme".to_owned(),
            TenantBreakdown {
                admitted: 4,
                shed: 1,
                in_flight: 1,
            },
        );
        let mut b = StatsSnapshot::default();
        b.per_model.insert(
            "full".to_owned(),
            ModelBreakdown {
                submitted: 6,
                completed: 6,
                in_flight: 0,
                fused_batches: 1,
            },
        );
        b.per_model
            .insert("compressed".to_owned(), ModelBreakdown::default());
        b.per_tenant.insert(
            "zenith".to_owned(),
            TenantBreakdown {
                admitted: 2,
                shed: 0,
                in_flight: 0,
            },
        );

        a.absorb(&b);
        assert_eq!(a.per_model.len(), 2, "rows union across snapshots");
        let full = &a.per_model["full"];
        assert_eq!(full.submitted, 10);
        assert_eq!(full.completed, 9);
        assert_eq!(full.fused_batches, 3);
        assert_eq!(a.per_tenant.len(), 2);
        assert_eq!(a.per_tenant["acme"].admitted, 4);
        assert_eq!(a.per_tenant["zenith"].admitted, 2);
    }
}
