//! Sharded front tier: one router socket, N shard slots with replica
//! groups, served by the gateway's own event loop.
//!
//! A [`ShardRouter`] owns N in-process [`ServingRuntime`]s, each in a
//! shard slot of its own (its models, admission gauges and tenant
//! governor), and speaks the exact same wire protocol as a single
//! [`Gateway`](crate::server::Gateway) — it *is* the gateway's engine
//! with a slot per shard — so [`crate::client::MultiplexClient`] users
//! work unchanged. Every submit is steered by a consistent-hash ring
//! ([`HashRing`]) over the request's routing key — the client-provided
//! [`crate::wire::SubmitRequest::routing_key`] when present, a
//! per-connection key otherwise — so related requests stick to one shard
//! while the keyspace spreads evenly across all of them. The submit goes
//! straight into the owning shard's runtime: no second gateway, no
//! loopback hop, no second encode.
//!
//! # Replica groups and failure semantics
//!
//! Every keyspace range has a *replica group*: the ring owner (primary)
//! plus the next distinct shards walking the ring
//! ([`HashRing::route_replicas`]). The first successor is the range's
//! warm standby — the shard that inherits the range the instant the
//! primary leaves the ring, because consistent hashing hands a removed
//! member's keys to exactly its ring successors.
//!
//! [`ShardRouter::kill_shard`] takes a shard off the ring and bumps its
//! generation, then drains its runtime. Every request in flight on the
//! killed generation is *replayed* to its key's new ring owner — the warm
//! standby — and the client sees a normal `Final`, never an error. An
//! answer the killed runtime still produces is dropped, so each request
//! is answered exactly once. A
//! [`RejectReason::ShardLost`](crate::wire::RejectReason::ShardLost)
//! reject answers a request only when no shard can take it: the ring is
//! empty, or its reroute attempts ran out.
//!
//! # How router threads wake
//!
//! A router is one event loop plus its runtimes' threads. The loop parks
//! in its poller and wakes for a socket, a runtime's completion, a ring
//! edit, or a benched listener's retry; nothing polls on a timer.
//!
//! # Live elasticity
//!
//! [`ShardRouter::add_shard`] and [`ShardRouter::remove_shard`] resize
//! the tier without restarting it; both are ring edits. Adding a shard
//! publishes its virtual nodes, moving only the bounded-remap key ranges.
//! Removing one takes its ranges off the ring (new traffic re-routes to
//! the standbys), then drains its runtime, which answers everything it
//! admitted — zero client-visible loss. [`ShardRouter::revive_shard`]
//! loads a fresh runtime into a killed shard and re-inserts its virtual
//! nodes at the exact same points, restoring the prior assignment.
//! Every ring edit bumps a monotonically increasing *epoch*
//! ([`ShardRouter::ring_epoch`]).

use crate::readiness::{Engine, Shared, Slot};
use crate::server::{GatewayConfig, GatewayStatus};
use eugene_serve::{ModelRegistry, RuntimeStats, ServingRuntime, StatsSnapshot};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer used for
/// both ring points and key hashes (deterministic across runs and
/// platforms, unlike `std`'s `RandomState`).
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Consistent-hash ring with virtual nodes.
///
/// Each member shard owns `virtual_nodes` points on a `u64` ring; a key
/// routes to the owner of the first point at or after its hash
/// (wrapping). Point positions depend only on `(seed, shard, vnode)` —
/// never on insertion order — so membership changes are *minimal*:
/// removing a shard moves only the keys it owned, and re-inserting it
/// restores the exact prior assignment.
#[derive(Debug, Clone)]
pub struct HashRing {
    seed: u64,
    virtual_nodes: usize,
    /// Sorted `(point_hash, shard)` pairs; ties break by shard index so
    /// the order is fully deterministic.
    points: Vec<(u64, usize)>,
    members: Vec<usize>,
}

impl HashRing {
    /// An empty ring. `virtual_nodes` is clamped to at least 1.
    pub fn new(seed: u64, virtual_nodes: usize) -> Self {
        Self {
            seed,
            virtual_nodes: virtual_nodes.max(1),
            points: Vec::new(),
            members: Vec::new(),
        }
    }

    fn point_hash(&self, shard: usize, vnode: usize) -> u64 {
        splitmix64(self.seed ^ splitmix64(((shard as u64) << 32) | vnode as u64))
    }

    fn key_hash(&self, key: u64) -> u64 {
        // A distinct stream from point hashes (the leading constant), so
        // keys never collide with points systematically.
        splitmix64(self.seed ^ key ^ 0xA5A5_5A5A_F0F0_0F0F)
    }

    /// Adds `shard`'s virtual nodes; no-op if already a member.
    pub fn insert(&mut self, shard: usize) {
        if self.members.contains(&shard) {
            return;
        }
        self.members.push(shard);
        self.members.sort_unstable();
        for vnode in 0..self.virtual_nodes {
            self.points.push((self.point_hash(shard, vnode), shard));
        }
        self.points.sort_unstable();
    }

    /// Removes `shard`'s virtual nodes; no-op if not a member. A later
    /// `insert` restores its exact prior points.
    pub fn remove(&mut self, shard: usize) {
        self.members.retain(|&s| s != shard);
        self.points.retain(|&(_, s)| s != shard);
    }

    /// Whether `shard` is currently on the ring.
    pub fn contains(&self, shard: usize) -> bool {
        self.members.contains(&shard)
    }

    /// Current members, ascending.
    pub fn shards(&self) -> &[usize] {
        &self.members
    }

    /// Number of member shards.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The shard owning `key`, or `None` on an empty ring.
    pub fn route(&self, key: u64) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let h = self.key_hash(key);
        let i = self.points.partition_point(|&(p, _)| p < h);
        let (_, shard) = self.points[i % self.points.len()];
        Some(shard)
    }

    /// The first `n` *distinct* shards walking the ring from `key`'s
    /// hash: `[0]` is the owner ([`HashRing::route`]), `[1]` is the
    /// shard that would inherit the key if the owner left the ring (the
    /// warm standby), and so on. Returns fewer than `n` when the ring
    /// has fewer members.
    pub fn route_replicas(&self, key: u64, n: usize) -> Vec<usize> {
        if self.points.is_empty() || n == 0 {
            return Vec::new();
        }
        let want = n.min(self.members.len());
        let h = self.key_hash(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let mut out = Vec::with_capacity(want);
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if !out.contains(&shard) {
                out.push(shard);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }
}

/// Replication policy for a [`ShardRouter`].
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Replica-group size per keyspace range: the primary plus
    /// `replicas - 1` ring successors, the shards a killed primary's keys
    /// fall to. Clamped to at least 2 (primary + warm standby) wherever
    /// it is used.
    pub replicas: usize,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        Self { replicas: 2 }
    }
}

/// Policy for a [`ShardRouter`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Router bind address; port 0 picks a free port.
    pub addr: String,
    /// Virtual nodes per shard on the ring: more smooths the key
    /// distribution, at `O(n log n)` rebuild cost on membership change.
    pub virtual_nodes: usize,
    /// Ring seed: routers sharing a seed (and shard count) agree on the
    /// full key→shard assignment.
    pub seed: u64,
    /// Replication policy.
    pub replica: ReplicaConfig,
    /// Admission policy of every shard, each reserving on its own gauges;
    /// its `addr` is unused (the router binds [`ShardConfig::addr`]).
    pub gateway: GatewayConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            virtual_nodes: 64,
            seed: 0,
            replica: ReplicaConfig::default(),
            gateway: GatewayConfig::default(),
        }
    }
}

/// Sharded gateway front tier; see the module docs for semantics.
///
/// Dropping the router (or calling [`ShardRouter::shutdown`]) stops
/// accepting, answers every admitted request, and drains every shard's
/// runtime.
pub struct ShardRouter {
    engine: Engine,
    /// Replica-group size, at least 2.
    replicas: usize,
}

impl ShardRouter {
    /// Puts each runtime in a shard slot of its own and binds the router
    /// socket in front of them.
    pub fn start(runtimes: Vec<ServingRuntime>, config: ShardConfig) -> io::Result<Self> {
        assert!(
            !runtimes.is_empty(),
            "a shard router needs at least one shard"
        );
        let mut ring = HashRing::new(config.seed, config.virtual_nodes);
        let slots = runtimes
            .into_iter()
            .enumerate()
            .map(|(i, runtime)| {
                ring.insert(i);
                let registry = ModelRegistry::single(runtime);
                Slot::new(registry, &config.gateway, GatewayStatus::default())
            })
            .collect();
        let engine = Engine::start(
            &config.addr,
            config.gateway,
            GatewayStatus::default(),
            ring,
            slots,
        )?;
        Ok(Self {
            engine,
            replicas: config.replica.replicas.max(2),
        })
    }

    fn shared(&self) -> &Shared {
        &self.engine.shared
    }

    /// The router's bound address — point clients here.
    pub fn local_addr(&self) -> SocketAddr {
        self.engine.local_addr
    }

    /// Total shard slots ever created (alive or not).
    pub fn num_shards(&self) -> usize {
        self.shared().membership.read().slots.len()
    }

    /// Shards currently on the ring.
    pub fn alive_shards(&self) -> usize {
        self.shared().membership.read().ring.len()
    }

    /// Where `key` currently routes, or `None` with no shard alive.
    pub fn shard_for_key(&self, key: u64) -> Option<usize> {
        self.shared().membership.read().ring.route(key)
    }

    /// `key`'s replica group under the current ring: primary first, then
    /// the warm standby, then further successors.
    pub fn replicas_for_key(&self, key: u64) -> Vec<usize> {
        self.shared()
            .membership
            .read()
            .ring
            .route_replicas(key, self.replicas)
    }

    /// Monotonic ring epoch: bumped on every membership change.
    pub fn ring_epoch(&self) -> u64 {
        self.shared().epoch.load(Ordering::Relaxed)
    }

    /// Per-shard runtime occupancy handles, indexed by shard.
    pub fn shard_stats(&self) -> Vec<RuntimeStats> {
        self.shared()
            .membership
            .read()
            .slots
            .iter()
            .map(|slot| slot.stats.lock().clone())
            .collect()
    }

    /// Admission gauges of shard `index`: its reservations and the
    /// answers it produced. Panics if `index` was never a shard.
    pub fn shard_status(&self, index: usize) -> GatewayStatus {
        let slot = self.shared().slot(index).expect("no shard at this index");
        slot.status.clone()
    }

    /// The router's own network-edge gauges: its one event loop, its
    /// connections, its accept health.
    pub fn status(&self) -> GatewayStatus {
        self.shared().edge.clone()
    }

    /// Aggregate snapshot across all shards: totals plus per-model and
    /// per-tenant rows merged by name. A shard's registry and governor
    /// outlive a kill — the registry keeps a drained runtime's counters —
    /// so counters never regress across a kill/revive cycle.
    pub fn aggregate_stats(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for slot in self.shared().membership.read().slots.iter() {
            total.absorb(&slot.registry.snapshot());
            for (name, row) in slot.governor.snapshot() {
                total.per_tenant.entry(name).or_default().absorb(&row);
            }
        }
        total
    }

    /// `ShardLost` rejects the router has answered so far.
    pub fn shard_lost_rejects(&self) -> u64 {
        self.shared().shard_lost.load(Ordering::Relaxed)
    }

    /// In-flight submits transparently replayed across a shard failover
    /// so far.
    pub fn failover_replays(&self) -> u64 {
        self.shared().failovers.load(Ordering::Relaxed)
    }

    /// Kills shard `index` as a fault injection: the ring drops it and
    /// its generation moves on, so its in-flight requests replay to each
    /// key's new owner (the warm standby); then its runtime is drained,
    /// and whatever it still answers is dropped. Returns `false` if it
    /// was already down or was never a shard.
    pub fn kill_shard(&self, index: usize) -> bool {
        let Some(slot) = self.shared().slot(index) else {
            return false;
        };
        let killed = self
            .shared()
            .edit(|membership| {
                slot.alive.swap(false, Ordering::AcqRel).then(|| {
                    membership.ring.remove(index);
                    slot.generation.fetch_add(1, Ordering::AcqRel);
                })
            })
            .is_some();
        if killed {
            slot.registry.shutdown();
        }
        killed
    }

    /// Brings killed shard `index` back with a fresh runtime, loaded into
    /// the shard's registry before its virtual nodes return to the ring
    /// at the exact same points — so the assignment reverts to what it
    /// was before the kill. Fails with `InvalidInput` if `index` was
    /// never a shard.
    pub fn revive_shard(&self, index: usize, runtime: ServingRuntime) -> io::Result<()> {
        let slot = self.shared().slot(index).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("no shard {index}"))
        })?;
        assert!(
            !slot.alive.load(Ordering::Acquire),
            "revive_shard on a live shard"
        );
        *slot.stats.lock() = runtime.stats();
        slot.registry.load(slot.registry.default_model(), runtime);
        self.shared().edit(|membership| {
            slot.alive.store(true, Ordering::Release);
            membership.ring.insert(index);
            Some(())
        });
        Ok(())
    }

    /// Live scale-out: appends a shard slot for `runtime` and publishes
    /// its virtual nodes, moving only the bounded-remap key ranges.
    /// Returns the new shard's index. Never fails in process.
    pub fn add_shard(&self, runtime: ServingRuntime) -> io::Result<usize> {
        let registry = ModelRegistry::single(runtime);
        let slot = Slot::new(registry, &self.shared().config, GatewayStatus::default());
        let index = self.shared().edit(|membership| {
            membership.slots.push(Arc::new(slot));
            let index = membership.slots.len() - 1;
            membership.ring.insert(index);
            Some(index)
        });
        Ok(index.expect("an insert always edits the ring"))
    }

    /// Live scale-in: takes shard `index` off the ring (new traffic
    /// immediately re-routes to the ranges' standbys), then drains its
    /// runtime, which answers every request it admitted; returns once
    /// the drain is done. A submit that raced the drain reroutes to the
    /// key's new owner, so nothing is lost. Refuses (returns `false`) for
    /// the last ring member, a shard already down, or an index that was
    /// never a shard.
    pub fn remove_shard(&self, index: usize) -> bool {
        let Some(slot) = self.shared().slot(index) else {
            return false;
        };
        let removed = self
            .shared()
            .edit(|membership| {
                let ring = &mut membership.ring;
                (ring.len() > 1 && ring.contains(index) && slot.alive.swap(false, Ordering::AcqRel))
                    .then(|| ring.remove(index))
            })
            .is_some();
        if removed {
            slot.registry.shutdown();
        }
        removed
    }

    /// Stops accepting, answers and flushes every admitted request (a
    /// client that stopped reading is cut off once it has taken no bytes
    /// for a stall period), then drains every shard's runtime.
    pub fn shutdown(self) {
        // Dropping the engine is the shutdown.
        drop(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_routes_deterministically_and_membership_is_order_free() {
        let mut a = HashRing::new(7, 64);
        let mut b = HashRing::new(7, 64);
        for shard in 0..4 {
            a.insert(shard);
        }
        for shard in (0..4).rev() {
            b.insert(shard);
        }
        for key in 0..512u64 {
            assert_eq!(a.route(key), b.route(key), "insert order must not matter");
        }
        assert_eq!(a.shards(), &[0, 1, 2, 3]);
    }

    #[test]
    fn ring_remove_moves_only_the_removed_shards_keys() {
        let mut ring = HashRing::new(3, 64);
        for shard in 0..4 {
            ring.insert(shard);
        }
        let before: Vec<Option<usize>> = (0..2048u64).map(|k| ring.route(k)).collect();
        ring.remove(2);
        for (key, owner) in before.iter().enumerate() {
            let now = ring.route(key as u64);
            if *owner == Some(2) {
                assert_ne!(now, Some(2));
            } else {
                assert_eq!(now, *owner, "key {key} moved although its shard survived");
            }
        }
        ring.insert(2);
        let after: Vec<Option<usize>> = (0..2048u64).map(|k| ring.route(k)).collect();
        assert_eq!(before, after, "re-insert must restore the exact assignment");
    }

    #[test]
    fn ring_spreads_keys_across_all_shards() {
        let mut ring = HashRing::new(11, 64);
        for shard in 0..4 {
            ring.insert(shard);
        }
        let mut counts = [0usize; 4];
        for key in 0..4096u64 {
            counts[ring.route(key).unwrap()] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                count > 4096 / 16,
                "shard {shard} owns only {count} of 4096 keys"
            );
        }
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = HashRing::new(0, 64);
        assert!(ring.is_empty());
        assert_eq!(ring.route(42), None);
        assert!(ring.route_replicas(42, 2).is_empty());
    }

    #[test]
    fn replicas_start_with_the_owner_and_are_distinct() {
        let mut ring = HashRing::new(5, 64);
        for shard in 0..4 {
            ring.insert(shard);
        }
        for key in 0..1024u64 {
            let replicas = ring.route_replicas(key, 3);
            assert_eq!(replicas.len(), 3);
            assert_eq!(Some(replicas[0]), ring.route(key), "primary is the owner");
            let mut sorted = replicas.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct shards");
        }
    }

    #[test]
    fn standby_inherits_the_key_when_the_primary_leaves() {
        let mut ring = HashRing::new(9, 64);
        for shard in 0..4 {
            ring.insert(shard);
        }
        for key in 0..1024u64 {
            let replicas = ring.route_replicas(key, 2);
            let primary = replicas[0];
            let standby = replicas[1];
            let mut without = ring.clone();
            without.remove(primary);
            assert_eq!(
                without.route(key),
                Some(standby),
                "removal successor must be the standby for key {key}"
            );
        }
    }
}
