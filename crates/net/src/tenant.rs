//! Per-tenant admission: quotas, weighted fair shedding, and gauges.
//!
//! The gateway's global admission control (high-water/hard-cap with
//! class-utility shedding) treats every submitter as one anonymous
//! crowd, so a single misbehaving client can push the whole gateway
//! into overload and get *other* tenants' traffic shed. The
//! [`TenantGovernor`] fixes that for requests that carry a tenant
//! identity (the trailing `tenant` field on `Submit`):
//!
//! - each tenant may carry a hard per-tenant in-flight cap
//!   ([`TenantQuota::max_in_flight`]), enforced at any load;
//! - under overload (gateway load at or past `high_water`), a tenant is
//!   shed once its own in-flight share reaches its *weighted fair
//!   share* of the hard cap — `weight / total_weight × hard_cap` — so
//!   the tenant that grew past its share sheds first while tenants
//!   within their share keep being admitted, all the way to the hard
//!   cap;
//! - anonymous requests (no tenant field, every pre-registry client)
//!   keep the exact legacy class-utility admission path.
//!
//! Shed decisions answer with
//! [`RejectReason::TenantOverQuota`](crate::wire::RejectReason) so a
//! client can tell "the gateway is full" from "I am over my quota".

use crate::wire::RejectReason;
use eugene_serve::TenantBreakdown;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Admission quota for one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantQuota {
    /// Fair-share weight under overload: a tenant's protected share of
    /// the gateway's hard cap is `weight / total_weight` (summed over
    /// all configured tenants, plus this quota if unconfigured).
    pub weight: f64,
    /// Hard per-tenant in-flight cap, enforced at any load. `None`
    /// bounds the tenant only by its fair share and the gateway caps.
    pub max_in_flight: Option<u64>,
}

impl Default for TenantQuota {
    fn default() -> Self {
        Self {
            weight: 1.0,
            max_in_flight: None,
        }
    }
}

/// Why (and with what hint) a tenant submission was shed.
pub(crate) struct TenantShed {
    pub(crate) retry_after_ms: u64,
    pub(crate) reason: RejectReason,
}

/// The backoff hint for an admission reject: load-scaled, capped at 1s
/// (same shape as the anonymous path's hint).
fn retry_hint(overshoot: u64) -> u64 {
    (10 * (overshoot + 1)).min(1_000)
}

#[derive(Debug, Default)]
struct TenantGauges {
    in_flight: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
}

/// Holds one tenant's in-flight unit from admission until the request's
/// `Final` is written (drop releases), mirroring `AdmissionSlot` at the
/// per-tenant granularity.
pub(crate) struct TenantSlot {
    gauges: Arc<TenantGauges>,
}

impl Drop for TenantSlot {
    fn drop(&mut self) {
        self.gauges.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

struct GovernorInner {
    quotas: HashMap<String, TenantQuota>,
    default_quota: TenantQuota,
    /// Sum of configured quota weights; an unconfigured tenant adds the
    /// default quota's weight on top when computing its share.
    configured_weight: f64,
    /// Gauges per tenant name ever seen, created on first contact.
    gauges: Mutex<HashMap<String, Arc<TenantGauges>>>,
}

/// Cloneable per-tenant admission state shared by a gateway's event
/// loop and its stats snapshot.
#[derive(Clone)]
pub(crate) struct TenantGovernor {
    inner: Arc<GovernorInner>,
}

impl TenantGovernor {
    pub(crate) fn new(quotas: HashMap<String, TenantQuota>, default_quota: TenantQuota) -> Self {
        let configured_weight = quotas.values().map(|q| q.weight.max(0.0)).sum();
        Self {
            inner: Arc::new(GovernorInner {
                quotas,
                default_quota,
                configured_weight,
                gauges: Mutex::new(HashMap::new()),
            }),
        }
    }

    fn gauges_of(&self, tenant: &str) -> Arc<TenantGauges> {
        Arc::clone(
            self.inner
                .gauges
                .lock()
                .entry(tenant.to_owned())
                .or_default(),
        )
    }

    /// The quota governing `tenant` and the total weight its share is
    /// computed against.
    fn quota_of(&self, tenant: &str) -> (TenantQuota, f64) {
        match self.inner.quotas.get(tenant) {
            Some(quota) => (quota.clone(), self.inner.configured_weight),
            None => (
                self.inner.default_quota.clone(),
                self.inner.configured_weight + self.inner.default_quota.weight.max(0.0),
            ),
        }
    }

    /// Admission decision for `tenant` at gateway in-flight `load`.
    /// Pure: gauges are only read, so the caller can run this inside a
    /// reservation CAS loop and only commit effects on success.
    pub(crate) fn decide(
        &self,
        tenant: &str,
        load: u64,
        high_water: u64,
        hard_cap: u64,
    ) -> Result<(), TenantShed> {
        let gauges = self.gauges_of(tenant);
        let (quota, total_weight) = self.quota_of(tenant);
        let tenant_in_flight = gauges.in_flight.load(Ordering::Acquire);
        if let Some(cap) = quota.max_in_flight {
            if tenant_in_flight >= cap {
                return Err(TenantShed {
                    retry_after_ms: retry_hint(tenant_in_flight.saturating_sub(cap)),
                    reason: RejectReason::TenantOverQuota,
                });
            }
        }
        if load >= hard_cap {
            return Err(TenantShed {
                retry_after_ms: retry_hint(load.saturating_sub(high_water)),
                reason: RejectReason::Overload,
            });
        }
        if load >= high_water {
            // Weighted fair shedding: past the high-water mark a tenant
            // only grows while it is within its share of the hard cap,
            // so the tenant that overshot sheds its own traffic first
            // and compliant tenants ride through the overload.
            let share = if total_weight > 0.0 {
                quota.weight.max(0.0) / total_weight * hard_cap as f64
            } else {
                hard_cap as f64
            };
            if tenant_in_flight as f64 >= share {
                return Err(TenantShed {
                    retry_after_ms: retry_hint(load.saturating_sub(high_water)),
                    reason: RejectReason::TenantOverQuota,
                });
            }
        }
        Ok(())
    }

    /// Commits an admission: counts it and returns the in-flight guard.
    pub(crate) fn begin(&self, tenant: &str) -> TenantSlot {
        let gauges = self.gauges_of(tenant);
        gauges.admitted.fetch_add(1, Ordering::Relaxed);
        gauges.in_flight.fetch_add(1, Ordering::AcqRel);
        TenantSlot { gauges }
    }

    /// Counts a shed decision against `tenant`.
    pub(crate) fn note_shed(&self, tenant: &str) {
        self.gauges_of(tenant).shed.fetch_add(1, Ordering::Relaxed);
    }

    /// One breakdown row per tenant ever seen.
    pub(crate) fn snapshot(&self) -> BTreeMap<String, TenantBreakdown> {
        self.inner
            .gauges
            .lock()
            .iter()
            .map(|(name, gauges)| {
                (
                    name.clone(),
                    TenantBreakdown {
                        admitted: gauges.admitted.load(Ordering::Relaxed),
                        shed: gauges.shed.load(Ordering::Relaxed),
                        in_flight: gauges.in_flight.load(Ordering::Acquire),
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn governor(quotas: &[(&str, f64, Option<u64>)]) -> TenantGovernor {
        TenantGovernor::new(
            quotas
                .iter()
                .map(|(name, weight, cap)| {
                    (
                        (*name).to_owned(),
                        TenantQuota {
                            weight: *weight,
                            max_in_flight: *cap,
                        },
                    )
                })
                .collect(),
            TenantQuota::default(),
        )
    }

    #[test]
    fn below_high_water_everyone_is_admitted() {
        let g = governor(&[("a", 1.0, None), ("b", 1.0, None)]);
        assert!(g.decide("a", 0, 8, 16).is_ok());
        assert!(g.decide("unconfigured", 7, 8, 16).is_ok());
    }

    #[test]
    fn per_tenant_cap_binds_at_any_load() {
        let g = governor(&[("a", 1.0, Some(2))]);
        let _one = g.begin("a");
        let _two = g.begin("a");
        let shed = g.decide("a", 0, 8, 16).unwrap_err();
        assert_eq!(shed.reason, RejectReason::TenantOverQuota);
        assert!(shed.retry_after_ms > 0);
        // Releasing an in-flight unit reopens the cap.
        drop(_one);
        assert!(g.decide("a", 0, 8, 16).is_ok());
    }

    #[test]
    fn overload_sheds_the_tenant_over_its_fair_share_first() {
        // Equal weights over hard_cap 16: each tenant's share is 8.
        let g = governor(&[("greedy", 1.0, None), ("polite", 1.0, None)]);
        let mut held = Vec::new();
        for _ in 0..8 {
            held.push(g.begin("greedy"));
        }
        let _p = g.begin("polite");
        // Past high water, greedy (at its share) is shed...
        let shed = g.decide("greedy", 9, 8, 16).unwrap_err();
        assert_eq!(shed.reason, RejectReason::TenantOverQuota);
        // ...while polite (1 of 8) keeps being admitted to the hard cap.
        assert!(g.decide("polite", 9, 8, 16).is_ok());
        assert!(g.decide("polite", 15, 8, 16).is_ok());
        // Nobody beats the hard cap.
        let full = g.decide("polite", 16, 8, 16).unwrap_err();
        assert_eq!(full.reason, RejectReason::Overload);
    }

    #[test]
    fn weights_skew_the_shares() {
        // 3:1 over hard_cap 16 → shares 12 and 4.
        let g = governor(&[("big", 3.0, None), ("small", 1.0, None)]);
        let mut held = Vec::new();
        for _ in 0..4 {
            held.push(g.begin("small"));
        }
        assert!(g.decide("small", 10, 8, 16).is_err());
        for _ in 0..4 {
            held.push(g.begin("big"));
        }
        assert!(g.decide("big", 10, 8, 16).is_ok(), "4 of 12 used");
    }

    #[test]
    fn snapshot_rows_track_admitted_shed_and_in_flight() {
        let g = governor(&[("a", 1.0, Some(1))]);
        let slot = g.begin("a");
        g.note_shed("a");
        g.note_shed("b");
        let rows = g.snapshot();
        assert_eq!(rows["a"].admitted, 1);
        assert_eq!(rows["a"].shed, 1);
        assert_eq!(rows["a"].in_flight, 1);
        assert_eq!(rows["b"].admitted, 0);
        assert_eq!(rows["b"].shed, 1);
        drop(slot);
        assert_eq!(g.snapshot()["a"].in_flight, 0, "slot drop releases");
    }
}
