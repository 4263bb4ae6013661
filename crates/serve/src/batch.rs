//! Stage-level gather buckets: the coordinator's one dispatch path.
//!
//! The coordinator parks every schedulable task here. Tasks waiting at
//! the same stage index accumulate in a bucket; a bucket is flushed to a
//! worker as one batched stage execution when any of these hold:
//!
//! - it is **full** ([`crate::RuntimeConfig::max_batch`] members — with
//!   the default of one, every bucket is full as soon as it exists);
//! - its **gather window** has elapsed since the oldest member arrived;
//! - a member is **deadline-urgent** (flushing immediately is the only
//!   way it can still make progress before its deadline kills it —
//!   gathering never delays the kill itself, which the coordinator's
//!   deadline check applies to gathered tasks too);
//! - there are **no potential joiners**: nothing parked or running could
//!   reach this stage, so waiting out the window would buy latency and no
//!   occupancy.
//!
//! Buckets never own sessions — members are request ids, and the
//! coordinator prunes ids whose task was killed or finalized mid-gather,
//! so an expiring request leaves the bucket without stalling the rest of
//! the batch.

use crate::RequestId;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One member: the request and when it entered the bucket (for the
/// gather-latency gauge).
#[derive(Debug, Clone, Copy)]
struct Member {
    id: RequestId,
    added: Instant,
}

#[derive(Debug)]
struct Bucket {
    members: Vec<Member>,
}

impl Bucket {
    fn oldest(&self) -> Instant {
        self.members
            .iter()
            .map(|m| m.added)
            .min()
            .expect("bucket never left empty")
    }
}

/// Per-stage gather buckets; see the module docs for the flush rules.
#[derive(Debug)]
pub(crate) struct GatherBuckets {
    max_batch: usize,
    window: Duration,
    buckets: HashMap<usize, Bucket>,
}

impl GatherBuckets {
    pub(crate) fn new(max_batch: usize, window: Duration) -> Self {
        Self {
            max_batch,
            window,
            buckets: HashMap::new(),
        }
    }

    /// Total members across all buckets (already-claimed schedule slots).
    pub(crate) fn total_gathered(&self) -> usize {
        self.buckets.values().map(|b| b.members.len()).sum()
    }

    /// Parks `id` in the bucket for `stage`.
    pub(crate) fn add(&mut self, stage: usize, id: RequestId, now: Instant) {
        self.buckets
            .entry(stage)
            .or_insert_with(|| Bucket {
                members: Vec::new(),
            })
            .members
            .push(Member { id, added: now });
    }

    /// Drops members for which `alive` is false (killed or finalized
    /// mid-gather), then drops empty buckets.
    pub(crate) fn prune(&mut self, alive: impl Fn(RequestId) -> bool) {
        for bucket in self.buckets.values_mut() {
            bucket.members.retain(|m| alive(m.id));
        }
        self.buckets.retain(|_, b| !b.members.is_empty());
    }

    /// Pops up to `max_batch` members of one flush-ready bucket, oldest
    /// members first, returning the stage and each member's gather wait.
    /// Returns `None` when no bucket is ready. The caller is responsible
    /// for only asking while a worker is free — an unflushed bucket keeps
    /// gathering, which is where fusion under overload comes from.
    ///
    /// `urgent(id)` reports whether a member's deadline is close enough
    /// that waiting longer would forfeit it; `joiners(stage)` counts
    /// tasks outside this bucket that could still reach `stage`.
    pub(crate) fn pop_ready(
        &mut self,
        now: Instant,
        urgent: impl Fn(RequestId) -> bool,
        joiners: impl Fn(usize) -> usize,
    ) -> Option<(usize, Vec<(RequestId, Duration)>)> {
        let stage = *self
            .buckets
            .iter()
            .find(|(stage, bucket)| {
                let full = bucket.members.len() >= self.max_batch;
                let window_elapsed = now.saturating_duration_since(bucket.oldest()) >= self.window;
                let any_urgent = bucket.members.iter().any(|m| urgent(m.id));
                full || window_elapsed || any_urgent || joiners(**stage) == 0
            })?
            .0;
        let bucket = self.buckets.get_mut(&stage).expect("bucket present");
        bucket.members.sort_by_key(|m| m.added);
        let take = bucket.members.len().min(self.max_batch);
        let taken: Vec<(RequestId, Duration)> = bucket
            .members
            .drain(..take)
            .map(|m| (m.id, now.saturating_duration_since(m.added)))
            .collect();
        if bucket.members.is_empty() {
            self.buckets.remove(&stage);
        }
        Some((stage, taken))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NEVER_URGENT: fn(RequestId) -> bool = |_| false;
    const NO_JOINERS: fn(usize) -> usize = |_| 0;
    const MANY_JOINERS: fn(usize) -> usize = |_| 9;

    fn window() -> Duration {
        Duration::from_millis(50)
    }

    #[test]
    fn full_bucket_flushes_immediately_even_with_joiners() {
        let mut buckets = GatherBuckets::new(2, window());
        let now = Instant::now();
        buckets.add(0, 1, now);
        buckets.add(0, 2, now);
        buckets.add(0, 3, now);
        let (stage, members) = buckets
            .pop_ready(now, NEVER_URGENT, MANY_JOINERS)
            .expect("full bucket is ready");
        assert_eq!(stage, 0);
        assert_eq!(members.len(), 2, "flush caps at max_batch");
        assert_eq!(buckets.total_gathered(), 1, "remainder keeps gathering");
    }

    #[test]
    fn partial_bucket_waits_for_window_while_joiners_exist() {
        let mut buckets = GatherBuckets::new(4, window());
        let start = Instant::now();
        buckets.add(1, 7, start);
        assert!(
            buckets
                .pop_ready(start, NEVER_URGENT, MANY_JOINERS)
                .is_none(),
            "inside the window with joiners pending: keep gathering"
        );
        let later = start + window();
        let (stage, members) = buckets
            .pop_ready(later, NEVER_URGENT, MANY_JOINERS)
            .expect("window elapsed");
        assert_eq!((stage, members.len()), (1, 1));
        assert!(members[0].1 >= window(), "gather wait is reported");
    }

    #[test]
    fn no_joiners_is_the_batch_of_one_fast_path() {
        let mut buckets = GatherBuckets::new(8, window());
        let now = Instant::now();
        buckets.add(2, 11, now);
        let (stage, members) = buckets
            .pop_ready(now, NEVER_URGENT, NO_JOINERS)
            .expect("nothing can join: flush now");
        assert_eq!((stage, members.len()), (2, 1));
        assert_eq!(buckets.total_gathered(), 0);
    }

    #[test]
    fn urgent_member_overrides_the_window() {
        let mut buckets = GatherBuckets::new(8, Duration::from_secs(3600));
        let now = Instant::now();
        buckets.add(0, 1, now);
        buckets.add(0, 2, now);
        assert!(buckets.pop_ready(now, NEVER_URGENT, MANY_JOINERS).is_none());
        let (_, members) = buckets
            .pop_ready(now, |id| id == 2, MANY_JOINERS)
            .expect("urgent deadline forces the flush");
        assert_eq!(members.len(), 2, "the whole bucket rides along");
    }

    #[test]
    fn prune_drops_dead_members_and_empty_buckets() {
        let mut buckets = GatherBuckets::new(4, window());
        let now = Instant::now();
        buckets.add(0, 1, now);
        buckets.add(0, 2, now);
        buckets.add(1, 3, now);
        buckets.prune(|id| id == 2);
        assert_eq!(buckets.total_gathered(), 1);
        let (stage, members) = buckets
            .pop_ready(now, NEVER_URGENT, NO_JOINERS)
            .expect("survivor still flushes");
        assert_eq!((stage, members[0].0), (0, 2));
        assert!(
            buckets.pop_ready(now, NEVER_URGENT, NO_JOINERS).is_none(),
            "stage-1 bucket vanished with its only member"
        );
    }

    #[test]
    fn flush_order_is_oldest_first() {
        let mut buckets = GatherBuckets::new(2, window());
        let start = Instant::now();
        buckets.add(0, 5, start + Duration::from_millis(2));
        buckets.add(0, 4, start);
        let (_, members) = buckets
            .pop_ready(start + window(), NEVER_URGENT, NO_JOINERS)
            .expect("ready");
        assert_eq!(members[0].0, 4, "earliest arrival dispatches first");
        assert_eq!(members[1].0, 5);
    }
}
