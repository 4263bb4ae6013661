//! TCP gateway exposing a [`ServingRuntime`] over the wire protocol.
//!
//! A [`Gateway`] binds a listener and hands it to one readiness-driven
//! event loop (`crate::readiness`) that owns every connection socket:
//! it accepts, handshakes, admits pipelined submits for arbitrarily many
//! concurrent client tags per connection, and demultiplexes the
//! runtime's responses and stage progress back into
//! [`Frame::StageUpdate`]/[`Frame::Final`] frames. The gateway costs one
//! thread however many connections it holds, and no thread is ever
//! spawned per connection or per request.
//!
//! This module owns what the event loop consults: configuration, the
//! admission decision and the [`GatewayStatus`] gauges. Admission
//! control reserves an in-flight slot *atomically* (a CAS on the
//! gateway-wide reservation gauge), so concurrent submits can never race
//! past `hard_cap`: above the high-water mark the gateway sheds the
//! lowest-utility service classes first (rejecting with a load-scaled
//! `retry_after_ms`), and above the hard cap it rejects everything. A
//! slot is held from admission until the request's `Final` frame has
//! been written back.
//!
//! Transient accept errors (fd exhaustion, aborted handshakes) bench the
//! listener for a capped backoff while established connections keep
//! being served; a terminal accept failure is surfaced through
//! [`GatewayStatus::accept_failed`]. Shutdown is graceful: accepting
//! stops, every admitted request is answered and flushed, and the
//! runtime itself is drained last.

use crate::reactor;
use crate::tenant::{TenantGovernor, TenantQuota, TenantSlot};
use crate::wire::{self, Frame, RejectReason};
use eugene_serve::{InferenceResponse, ModelRegistry, RuntimeStats, ServingRuntime, StatsSnapshot};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The gateway's connection engine. There is one — the readiness event
/// loop — so this names it rather than selects it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GatewayBackend {
    /// A single readiness-driven event loop (epoll on Linux, `poll(2)`
    /// elsewhere) owning every connection socket non-blockingly.
    #[default]
    Readiness,
}

/// Admission-control and socket policy for a [`Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address; port 0 picks a free port (see [`Gateway::local_addr`]).
    pub addr: String,
    /// In-flight load at which shedding begins.
    pub high_water: u64,
    /// In-flight load at which every class is rejected. Must exceed
    /// `high_water`.
    pub hard_cap: u64,
    /// Utility per service class; classes not listed default to `1.0`.
    /// Under overload, lower-utility classes are shed first.
    pub class_utility: HashMap<String, f64>,
    /// Per-tenant admission quotas, keyed by the trailing `tenant` field
    /// on `Submit`. Identified tenants not listed here get
    /// `default_tenant_quota`; requests carrying no tenant ride the
    /// anonymous class-utility admission path unchanged (see
    /// [`crate::tenant`]).
    pub tenant_quotas: HashMap<String, TenantQuota>,
    /// Quota applied to identified tenants absent from `tenant_quotas`.
    pub default_tenant_quota: TenantQuota,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            high_water: 64,
            hard_cap: 128,
            class_utility: HashMap::new(),
            tenant_quotas: HashMap::new(),
            default_tenant_quota: TenantQuota::default(),
        }
    }
}

impl GatewayConfig {
    fn utility(&self, class: &str) -> f64 {
        self.class_utility.get(class).copied().unwrap_or(1.0)
    }

    fn max_utility(&self) -> f64 {
        self.class_utility.values().copied().fold(1.0f64, f64::max)
    }

    /// Admission decision for `class` at the given in-flight `load`:
    /// `Ok(())` admits, `Err(retry_after_ms)` rejects.
    ///
    /// Between `high_water` and `hard_cap` the utility bar rises linearly
    /// from zero to the maximum configured utility, so the lowest-utility
    /// classes are shed first and the highest-utility class survives
    /// until the hard cap.
    fn admit(&self, class: &str, load: u64) -> Result<(), u64> {
        if load < self.high_water {
            return Ok(());
        }
        let overshoot = load.saturating_sub(self.high_water);
        let retry_after_ms = (10 * (overshoot + 1)).min(1_000);
        if load >= self.hard_cap {
            return Err(retry_after_ms);
        }
        let span = self.hard_cap.saturating_sub(self.high_water).max(1);
        let pressure = overshoot as f64 / span as f64; // [0, 1)
        if self.utility(class) <= pressure * self.max_utility() {
            Err(retry_after_ms)
        } else {
            Ok(())
        }
    }
}

/// Observability gauges for a [`Gateway`], cloneable and lock-free.
///
/// Distinct from [`RuntimeStats`] (the runtime's own occupancy): these
/// cover the network edge — admission reservations, accept-loop health,
/// connection churn, and the thread budget.
#[derive(Clone, Debug, Default)]
pub struct GatewayStatus {
    inner: Arc<StatusInner>,
}

#[derive(Debug, Default)]
struct StatusInner {
    /// Admission slots currently reserved (admission .. Final written).
    reserved: AtomicU64,
    /// High-water mark of `reserved` over the gateway's lifetime.
    peak_reserved: AtomicU64,
    /// Transient accept errors that were retried with backoff.
    accept_retries: AtomicU64,
    /// Set when the accept loop hit a terminal error and gave up.
    accept_failed: AtomicBool,
    /// Connections accepted / fully torn down since startup.
    connections_opened: AtomicU64,
    connections_closed: AtomicU64,
    /// Gateway-spawned threads since startup: the event loop, once.
    threads_spawned: AtomicU64,
    /// Terminal answers written toward clients: `Final` frames and
    /// `Reject` frames, counted exactly once at the event loop's single
    /// queue point. `finals + rejects` is the
    /// gateway's total answered-request count, which a sharded front
    /// tier reconciles against client-side accounting to prove no
    /// request was dropped or double-answered across a failover.
    finals_sent: AtomicU64,
    rejects_sent: AtomicU64,
}

impl GatewayStatus {
    /// Admission slots currently held (admitted requests whose `Final`
    /// has not yet been written back).
    pub fn in_flight_reserved(&self) -> u64 {
        self.inner.reserved.load(Ordering::Acquire)
    }

    /// Lifetime peak of [`GatewayStatus::in_flight_reserved`]; by
    /// construction never exceeds the configured `hard_cap`.
    pub fn peak_in_flight(&self) -> u64 {
        self.inner.peak_reserved.load(Ordering::Acquire)
    }

    /// Transient accept errors absorbed with backoff so far.
    pub fn accept_retries(&self) -> u64 {
        self.inner.accept_retries.load(Ordering::Relaxed)
    }

    /// Whether the accept loop died on a terminal error: the gateway
    /// still serves existing connections but accepts no new ones.
    pub fn accept_failed(&self) -> bool {
        self.inner.accept_failed.load(Ordering::Relaxed)
    }

    /// Connections currently being served.
    pub fn open_connections(&self) -> u64 {
        self.inner
            .connections_opened
            .load(Ordering::Relaxed)
            .saturating_sub(self.inner.connections_closed.load(Ordering::Relaxed))
    }

    /// Connections accepted since startup.
    pub fn connections_opened(&self) -> u64 {
        self.inner.connections_opened.load(Ordering::Relaxed)
    }

    /// Gateway threads spawned since startup: one event loop, however
    /// many connections and requests it serves.
    pub fn threads_spawned(&self) -> u64 {
        self.inner.threads_spawned.load(Ordering::Relaxed)
    }

    /// `Final` frames written toward clients since startup.
    pub fn finals_sent(&self) -> u64 {
        self.inner.finals_sent.load(Ordering::Relaxed)
    }

    /// `Reject` frames written toward clients since startup.
    pub fn rejects_sent(&self) -> u64 {
        self.inner.rejects_sent.load(Ordering::Relaxed)
    }

    // Mutation points for the event loop.
    pub(crate) fn note_final_sent(&self) {
        self.inner.finals_sent.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_reject_sent(&self) {
        self.inner.rejects_sent.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_connection_opened(&self) {
        self.inner
            .connections_opened
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_connection_closed(&self) {
        self.inner
            .connections_closed
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_thread_spawned(&self) {
        self.inner.threads_spawned.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_accept_retry(&self) {
        self.inner.accept_retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_accept_failed(&self) {
        self.inner.accept_failed.store(true, Ordering::Relaxed);
    }
}

/// An admission reservation: holds one in-flight slot from the admission
/// decision until the request's `Final` frame is written (drop releases).
#[derive(Debug)]
pub(crate) struct AdmissionSlot {
    status: GatewayStatus,
}

impl Drop for AdmissionSlot {
    fn drop(&mut self) {
        self.status.inner.reserved.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Atomically reserves an in-flight slot, admitting via `decide` at the
/// observed load. The load test and CAS happen on the same gauge, so
/// concurrent submits cannot both observe `hard_cap - 1` and admit —
/// the read-then-submit TOCTOU of a load check followed by a submit.
fn reserve_with<E>(
    status: &GatewayStatus,
    decide: impl Fn(u64) -> Result<(), E>,
) -> Result<AdmissionSlot, E> {
    loop {
        let load = status.inner.reserved.load(Ordering::Acquire);
        decide(load)?;
        if status
            .inner
            .reserved
            .compare_exchange(load, load + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            status
                .inner
                .peak_reserved
                .fetch_max(load + 1, Ordering::AcqRel);
            return Ok(AdmissionSlot {
                status: status.clone(),
            });
        }
        // Lost the race to another submit; re-read and re-decide.
    }
}

/// The anonymous (tenant-less) admission path: class-utility shedding
/// between `high_water` and `hard_cap`, reject hint on refusal.
pub(crate) fn try_reserve(
    config: &GatewayConfig,
    status: &GatewayStatus,
    class: &str,
) -> Result<AdmissionSlot, u64> {
    reserve_with(status, |load| config.admit(class, load))
}

/// Everything one admitted request holds until its `Final` frame is
/// written: the gateway-wide slot plus, for identified tenants, the
/// tenant's in-flight unit. Dropping releases both.
pub(crate) struct Lease {
    _slot: AdmissionSlot,
    _tenant: Option<TenantSlot>,
}

/// The full admission decision for one submit: anonymous requests take
/// the legacy class-utility path, identified tenants the quota /
/// weighted-fair-share path (see [`crate::tenant`]). `Err` carries the
/// reject frame's backoff hint and reason.
pub(crate) fn admit_submit(
    config: &GatewayConfig,
    status: &GatewayStatus,
    governor: &TenantGovernor,
    class: &str,
    tenant: Option<&str>,
) -> Result<Lease, (u64, RejectReason)> {
    match tenant {
        None => match try_reserve(config, status, class) {
            Ok(slot) => Ok(Lease {
                _slot: slot,
                _tenant: None,
            }),
            Err(retry_after_ms) => Err((retry_after_ms, RejectReason::Overload)),
        },
        Some(name) => {
            let reserved = reserve_with(status, |load| {
                governor.decide(name, load, config.high_water, config.hard_cap)
            });
            match reserved {
                Ok(slot) => Ok(Lease {
                    _slot: slot,
                    _tenant: Some(governor.begin(name)),
                }),
                Err(shed) => {
                    governor.note_shed(name);
                    Err((shed.retry_after_ms, shed.reason))
                }
            }
        }
    }
}

/// Accept errors worth retrying with backoff: transient fd/buffer
/// pressure and peers that vanished mid-handshake. Anything else (a
/// broken listener) is terminal.
pub(crate) fn is_transient_accept_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::Interrupted
            | io::ErrorKind::TimedOut
    ) || matches!(
        e.raw_os_error(),
        // ENOMEM, ENFILE, EMFILE, ENOBUFS: resource pressure recovers
        // once connections close; the raw codes are POSIX/Linux values.
        Some(12) | Some(23) | Some(24) | Some(105)
    )
}

/// Consecutive transient accept failures tolerated before giving up.
pub(crate) const ACCEPT_RETRY_LIMIT: u32 = 64;
/// First accept-error backoff; doubles per consecutive failure.
pub(crate) const ACCEPT_BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Upper bound on a single accept-error backoff sleep.
pub(crate) const ACCEPT_BACKOFF_CAP: Duration = Duration::from_millis(500);

/// A running network gateway; dropping it (or calling
/// [`Gateway::shutdown`]) drains connections and the underlying runtime.
pub struct Gateway {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Nudges the event loop out of its poller wait on shutdown.
    waker: reactor::Waker,
    event_loop: Option<JoinHandle<()>>,
    registry: ModelRegistry,
    governor: TenantGovernor,
    stats: RuntimeStats,
    status: GatewayStatus,
}

impl Gateway {
    /// Binds the listener and starts serving `runtime` over TCP, as a
    /// single-model deployment: the runtime is registered under
    /// [`eugene_serve::DEFAULT_MODEL`] and every submit resolves to it,
    /// whether or not it names a model.
    pub fn start(runtime: ServingRuntime, config: GatewayConfig) -> io::Result<Self> {
        Self::start_registry(ModelRegistry::single(runtime), config)
    }

    /// Binds the listener and serves a whole model registry: each
    /// submit's trailing model id is resolved against `registry` (its
    /// dispatcher picks for submits naming none), and models can be
    /// loaded/unloaded while the gateway is serving. The gateway owns
    /// the registry's lifecycle — [`Gateway::shutdown`] drains and
    /// unloads every model.
    pub fn start_registry(registry: ModelRegistry, config: GatewayConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking accept: the event loop parks in its poller, never
        // in `accept`.
        listener.set_nonblocking(true)?;
        let stats = registry
            .stats_of(&registry.default_model())
            .unwrap_or_default();
        let status = GatewayStatus::default();
        let governor = TenantGovernor::new(
            config.tenant_quotas.clone(),
            config.default_tenant_quota.clone(),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let waker = reactor::Waker::new()?;
        let event_loop = crate::readiness::spawn(
            listener,
            registry.clone(),
            governor.clone(),
            Arc::new(config),
            Arc::clone(&stop),
            status.clone(),
            waker.clone(),
        )?;
        Ok(Self {
            local_addr,
            stop,
            waker,
            event_loop: Some(event_loop),
            registry,
            governor,
            stats,
            status,
        })
    }

    /// The bound address (with the concrete port when `addr` asked for 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live occupancy gauges of the default model's runtime (the whole
    /// deployment for a single-model gateway; see [`Gateway::snapshot`]
    /// for the multi-model aggregate).
    pub fn stats(&self) -> RuntimeStats {
        self.stats.clone()
    }

    /// The model registry this gateway serves; use it to load/unload
    /// models while the gateway is running.
    pub fn registry(&self) -> ModelRegistry {
        self.registry.clone()
    }

    /// The per-tenant admission governor (shared with the shard router's
    /// aggregation).
    pub(crate) fn governor(&self) -> TenantGovernor {
        self.governor.clone()
    }

    /// Aggregate deployment snapshot: per-model rows from the registry
    /// plus per-tenant admission rows from the gateway's governor.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut snapshot = self.registry.snapshot();
        for (name, row) in self.governor.snapshot() {
            snapshot.per_tenant.entry(name).or_default().absorb(&row);
        }
        snapshot
    }

    /// Network-edge gauges: admission reservations, accept health,
    /// connection churn, thread budget.
    pub fn status(&self) -> GatewayStatus {
        self.status.clone()
    }

    /// Stops accepting, drains every connection's in-flight submits, then
    /// drains and joins the runtime.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // The event loop is parked in its poller, not on a timer: kick it
        // so shutdown begins immediately.
        self.waker.wake();
        if let Some(handle) = self.event_loop.take() {
            let _ = handle.join();
        }
        // The event loop is joined: nothing submits anymore, so draining
        // the registry (idempotent) is race-free.
        self.registry.shutdown();
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

pub(crate) fn final_frame(client_tag: u64, response: InferenceResponse) -> Frame {
    Frame::Final {
        client_tag,
        response: wire::WireResponse {
            predicted: response.predicted.map(|p| p as u64),
            confidence: response.confidence,
            stages_executed: response.stages_executed as u32,
            expired: response.expired,
            latency_us: response.latency.as_micros() as u64,
            degraded: response.degraded,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_sheds_lowest_utility_first() {
        let mut config = GatewayConfig {
            high_water: 10,
            hard_cap: 20,
            ..GatewayConfig::default()
        };
        config.class_utility.insert("premium".to_owned(), 2.0);
        config.class_utility.insert("batch".to_owned(), 0.5);

        // Below high water: everyone admitted.
        assert!(config.admit("batch", 9).is_ok());
        // Mid-overload: batch (utility 0.5 <= 0.5*2.0) shed at pressure
        // 0.25 already, premium survives.
        assert!(config.admit("batch", 13).is_err());
        assert!(config.admit("premium", 13).is_ok());
        // Unlisted classes (utility 1.0) shed once pressure*max crosses 1.
        assert!(config.admit("anon", 13).is_ok());
        assert!(config.admit("anon", 16).is_err());
        // Hard cap: even premium rejected.
        assert!(config.admit("premium", 20).is_err());
    }

    #[test]
    fn retry_after_scales_with_overshoot() {
        let config = GatewayConfig {
            high_water: 10,
            hard_cap: 12,
            ..GatewayConfig::default()
        };
        let near = config.admit("x", 12).unwrap_err();
        let far = config.admit("x", 60).unwrap_err();
        assert!(far > near, "deeper overload asks for a longer backoff");
        assert!(config.admit("x", 10_000).unwrap_err() <= 1_000, "capped");
    }

    #[test]
    fn reservation_is_atomic_under_concurrent_hammering() {
        // 16 threads race reserve/release against hard_cap 8; the CAS
        // admission must never let the gauge exceed the cap.
        let config = Arc::new(GatewayConfig {
            high_water: 8,
            hard_cap: 8,
            ..GatewayConfig::default()
        });
        let status = GatewayStatus::default();
        let admitted = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let config = Arc::clone(&config);
            let status = status.clone();
            let admitted = Arc::clone(&admitted);
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000 {
                    match try_reserve(&config, &status, "x") {
                        Ok(slot) => {
                            admitted.fetch_add(1, Ordering::Relaxed);
                            assert!(
                                status.in_flight_reserved() <= 8,
                                "reservation gauge blew past the hard cap"
                            );
                            if i % 3 == 0 {
                                std::thread::yield_now();
                            }
                            drop(slot);
                        }
                        Err(retry_after_ms) => assert!(retry_after_ms > 0),
                    }
                }
            }));
        }
        for handle in handles {
            handle.join().expect("hammer thread panicked");
        }
        assert_eq!(status.in_flight_reserved(), 0, "every slot released");
        assert!(status.peak_in_flight() <= 8, "peak bounded by hard cap");
        assert!(
            admitted.load(Ordering::Relaxed) > 0,
            "some reservations must succeed"
        );
    }

    #[test]
    fn transient_accept_errors_are_classified() {
        for kind in [
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::Interrupted,
            io::ErrorKind::TimedOut,
        ] {
            assert!(is_transient_accept_error(&io::Error::new(kind, "t")));
        }
        // EMFILE (24): fd exhaustion recovers once connections close.
        assert!(is_transient_accept_error(&io::Error::from_raw_os_error(24)));
        // EBADF (9): the listener itself is broken — terminal.
        assert!(!is_transient_accept_error(&io::Error::from_raw_os_error(9)));
        assert!(!is_transient_accept_error(&io::Error::new(
            io::ErrorKind::InvalidInput,
            "t"
        )));
    }
}
