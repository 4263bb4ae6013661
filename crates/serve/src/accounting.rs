use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-service-class usage counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassUsage {
    /// Requests answered (including expired ones).
    pub requests: u64,
    /// Stage executions consumed.
    pub stages_executed: u64,
    /// Requests answered `expired` (killed at their deadline).
    pub expired: u64,
    /// Requests that exited early on confidence.
    pub early_exits: u64,
}

/// Thread-safe per-class usage ledger, shared between the serving
/// coordinator and callers.
///
/// Paper §V: "different applications will have different demands and
/// constraints ... An appropriate pricing structure may be needed that is
/// informed of the true resource cost imposed by clients of each class on
/// the service." The ledger records that true resource cost — stage
/// executions, not requests — per class.
#[derive(Debug, Clone, Default)]
pub struct UsageLedger {
    inner: Arc<Mutex<HashMap<String, ClassUsage>>>,
}

impl UsageLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one finished request.
    pub fn record(&self, class: &str, stages_executed: usize, expired: bool, early_exit: bool) {
        let mut inner = self.inner.lock();
        let usage = inner.entry(class.to_owned()).or_default();
        usage.requests += 1;
        usage.stages_executed += stages_executed as u64;
        if expired {
            usage.expired += 1;
        }
        if early_exit {
            usage.early_exits += 1;
        }
    }

    /// Usage of one class so far.
    pub fn usage(&self, class: &str) -> ClassUsage {
        self.inner.lock().get(class).copied().unwrap_or_default()
    }

    /// Snapshot of every class's usage.
    pub fn snapshot(&self) -> HashMap<String, ClassUsage> {
        self.inner.lock().clone()
    }

    /// Total stage executions across all classes.
    pub fn total_stages(&self) -> u64 {
        self.inner.lock().values().map(|u| u.stages_executed).sum()
    }
}

/// A simple cost model over ledger entries: a fixed fee per request plus a
/// metered fee per executed stage (the "true resource cost").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PricingModel {
    /// Flat cost per request (admission, queueing, bookkeeping).
    pub per_request: f64,
    /// Cost per stage execution (compute).
    pub per_stage: f64,
    /// Discount multiplier applied to expired requests ("no utility is
    /// accrued for tasks that are not completed" — the service still paid
    /// for partial compute, so this models goodwill, not cost).
    pub expired_refund: f64,
}

impl PricingModel {
    /// Creates a pricing model.
    ///
    /// # Panics
    ///
    /// Panics if any component is negative or `expired_refund > 1`.
    pub fn new(per_request: f64, per_stage: f64, expired_refund: f64) -> Self {
        assert!(
            per_request >= 0.0 && per_stage >= 0.0,
            "costs must be non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&expired_refund),
            "refund must be a fraction"
        );
        Self {
            per_request,
            per_stage,
            expired_refund,
        }
    }

    /// Invoice amount for one class's usage.
    pub fn invoice(&self, usage: &ClassUsage) -> f64 {
        let gross = usage.requests as f64 * self.per_request
            + usage.stages_executed as f64 * self.per_stage;
        // Approximate the refund as proportional to the expired share of
        // requests (per-request granularity is not tracked).
        let expired_share = if usage.requests == 0 {
            0.0
        } else {
            usage.expired as f64 / usage.requests as f64
        };
        gross * (1.0 - self.expired_refund * expired_share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_per_class() {
        let ledger = UsageLedger::new();
        ledger.record("interactive", 1, false, true);
        ledger.record("interactive", 2, true, false);
        ledger.record("batch", 3, false, false);
        let interactive = ledger.usage("interactive");
        assert_eq!(interactive.requests, 2);
        assert_eq!(interactive.stages_executed, 3);
        assert_eq!(interactive.expired, 1);
        assert_eq!(interactive.early_exits, 1);
        assert_eq!(ledger.usage("batch").stages_executed, 3);
        assert_eq!(ledger.total_stages(), 6);
        assert_eq!(ledger.usage("unknown"), ClassUsage::default());
    }

    #[test]
    fn ledger_is_shareable_across_threads() {
        let ledger = UsageLedger::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let ledger = ledger.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        ledger.record("c", 2, false, false);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ledger.usage("c").requests, 400);
        assert_eq!(ledger.usage("c").stages_executed, 800);
    }

    #[test]
    fn invoice_meters_stages() {
        let pricing = PricingModel::new(1.0, 0.5, 0.0);
        let usage = ClassUsage {
            requests: 10,
            stages_executed: 25,
            expired: 0,
            early_exits: 4,
        };
        assert!((pricing.invoice(&usage) - (10.0 + 12.5)).abs() < 1e-9);
    }

    #[test]
    fn heavier_class_pays_more() {
        // The paper's point: an interactive class that forces deep
        // execution imposes more cost than one that exits early.
        let pricing = PricingModel::new(1.0, 1.0, 0.0);
        let shallow = ClassUsage {
            requests: 10,
            stages_executed: 12,
            ..Default::default()
        };
        let deep = ClassUsage {
            requests: 10,
            stages_executed: 30,
            ..Default::default()
        };
        assert!(pricing.invoice(&deep) > pricing.invoice(&shallow));
    }

    #[test]
    fn expired_refund_discounts() {
        let pricing = PricingModel::new(1.0, 1.0, 0.5);
        let usage = ClassUsage {
            requests: 4,
            stages_executed: 8,
            expired: 2,
            early_exits: 0,
        };
        // Gross 12, half the requests expired, refund 50% of that share.
        assert!((pricing.invoice(&usage) - 12.0 * 0.75).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "refund")]
    fn invalid_refund_rejected() {
        PricingModel::new(1.0, 1.0, 1.5);
    }
}
