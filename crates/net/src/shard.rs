//! Sharded front tier: one router socket, N [`Gateway`] shards with
//! replica groups.
//!
//! A [`ShardRouter`] owns N gateway shards (each wrapping its own
//! [`ServingRuntime`]) and exposes the exact same wire protocol as a
//! single gateway, so [`crate::client::MultiplexClient`] users work
//! unchanged. Every
//! [`Frame::Submit`] is steered by a consistent-hash ring
//! ([`HashRing`]) over the request's routing key — the client-provided
//! [`crate::wire::SubmitRequest::routing_key`] when present, a
//! per-connection key otherwise — so related requests stick to one shard
//! while the keyspace spreads evenly across all of them.
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
//! A probe thread watches each shard's accept health
//! ([`GatewayStatus::accept_failed`], which also covers a poisoned
//! readiness reactor). When a shard dies — probe detection, a failed
//! dial/write, or an explicit [`ShardRouter::kill_shard`] — the router
//! removes it from the ring and severs its proxy connections. Every
//! submit in flight on it is then *replayed* to the key's new ring
//! owner — the warm standby — and the client sees a normal `Final`,
//! never an error. A per-connection tag-ownership table guarantees
//! exactly-once: only the path that *claims* a tag (removes it from the
//! table) may answer it, so a replayed request is never answered twice
//! even when the original shard's answer races the failover. A
//! [`RejectReason::ShardLost`] reject answers a request only when no
//! shard can take it: the ring is empty, its reroute attempts ran out,
//! or the connection drain's failsafe expired.
//!
//! # How router threads wake
//!
//! No router thread polls on a timer. Each client connection's thread
//! waits in its own [`Poller`] on the client socket plus a
//! [`reactor::Waker`]; a failover sweep parks its tags and fires that
//! waker, the upstream reader that claims the last tag of a draining
//! connection fires it, and router stop fires every connection's.
//! Upstream readers block in `read` until severing shuts their socket
//! down or the shard closes it after a drain. Only the health probe
//! ticks, and handshakes bound their reads by their own deadline.
//!
//! # Live elasticity
//!
//! [`ShardRouter::add_shard`] and [`ShardRouter::remove_shard`] resize
//! the tier without restarting it. Adding a shard publishes its virtual
//! nodes only after the gateway proves accept-healthy, then opens a
//! *migration window* ([`ReplicaConfig::migration_window`]): while it is
//! open, a dial failure against the newcomer falls back to the next
//! replica — the previous owner of the very same range — instead of
//! declaring the shard dead, so both shards serve the moving ranges
//! (double-routing) until the window closes. Removing a shard is a
//! graceful drain: its ranges leave the ring first (epoch bump), its
//! gateway keeps serving until in-flight work reaches zero, then shuts
//! down — zero client-visible loss. [`ShardRouter::revive_shard`]
//! re-inserts a killed shard's virtual nodes at the exact same points
//! (restoring the prior assignment) and likewise waits for accept
//! health before publishing the ring update.
//!
//! Every ring mutation bumps a monotonically increasing *epoch*
//! ([`ShardRouter::ring_epoch`]), stamped on each proxied submit
//! ([`crate::wire::SubmitRequest::epoch`]) so operators can correlate a
//! replayed request with the membership change that caused it.
//!
//! An optional load-aware rebalancer ([`RebalanceConfig`]) samples
//! per-shard completion rates and moves virtual nodes from the hottest
//! shard to the coldest when the spread exceeds a threshold, narrowing
//! per-shard rps spread under skewed keyspaces.

use crate::reactor::{self, Interest, Poller};
use crate::server::{Gateway, GatewayConfig, GatewayStatus};
use crate::tenant::TenantGovernor;
use crate::wire::{self, Frame, FrameBuffer, RejectReason, WireError, PROTOCOL_VERSION};
use eugene_serve::{ModelRegistry, RuntimeStats, ServingRuntime, StatsSnapshot};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{Shutdown as SocketShutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer used for
/// both ring points and key hashes (deterministic across runs and
/// platforms, unlike `std`'s `RandomState`).
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Consistent-hash ring with virtual nodes and per-shard weights.
///
/// Each member shard owns a number of points on a `u64` ring (its
/// *weight*, defaulting to `virtual_nodes`); a key routes to the owner of
/// the first point at or after its hash (wrapping). Point positions
/// depend only on `(seed, shard, vnode)` — never on insertion order — so
/// membership changes are *minimal*: removing a shard moves only the keys
/// it owned, and re-inserting it restores the exact prior assignment.
/// Weights persist across remove/insert for the same reason: a revived
/// shard comes back at exactly the points the rebalancer left it with.
#[derive(Debug, Clone)]
pub struct HashRing {
    seed: u64,
    virtual_nodes: usize,
    /// Sorted `(point_hash, shard)` pairs; ties break by shard index so
    /// the order is fully deterministic.
    points: Vec<(u64, usize)>,
    members: Vec<usize>,
    /// Per-shard virtual-node counts, kept across `remove` so a
    /// re-`insert` restores the shard's exact prior footprint.
    weights: HashMap<usize, usize>,
}

impl HashRing {
    /// An empty ring. `virtual_nodes` is clamped to at least 1.
    pub fn new(seed: u64, virtual_nodes: usize) -> Self {
        Self {
            seed,
            virtual_nodes: virtual_nodes.max(1),
            points: Vec::new(),
            members: Vec::new(),
            weights: HashMap::new(),
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
        for vnode in 0..self.vnodes_of(shard) {
            self.points.push((self.point_hash(shard, vnode), shard));
        }
        self.points.sort_unstable();
    }

    /// Removes `shard`'s virtual nodes; no-op if not a member. The
    /// shard's weight is retained, so a later `insert` restores its
    /// exact prior points.
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

    /// The number of virtual nodes `shard` owns (or would own on
    /// insert): its explicit weight, or the ring default.
    pub fn vnodes_of(&self, shard: usize) -> usize {
        self.weights
            .get(&shard)
            .copied()
            .unwrap_or(self.virtual_nodes)
    }

    /// Sets `shard`'s virtual-node count (clamped to at least 1),
    /// rebuilding its points if it is a member. Only the re-weighted
    /// shard's keyspace share changes; points of other shards stay
    /// exactly where they were.
    pub fn set_vnodes(&mut self, shard: usize, count: usize) {
        let count = count.max(1);
        self.weights.insert(shard, count);
        if self.members.contains(&shard) {
            self.points.retain(|&(_, s)| s != shard);
            for vnode in 0..count {
                self.points.push((self.point_hash(shard, vnode), shard));
            }
            self.points.sort_unstable();
        }
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
    /// `replicas - 1` ring successors considered as failover/fallback
    /// targets. Clamped to at least 2 (primary + warm standby) wherever
    /// it is used.
    pub replicas: usize,
    /// Double-routing window opened by [`ShardRouter::add_shard`]:
    /// while it lasts, a dial failure against the new shard falls back
    /// to the range's previous owner instead of marking the newcomer
    /// dead, so the migrating ranges always have >= 1 serving owner.
    pub migration_window: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        Self {
            replicas: 2,
            migration_window: Duration::from_millis(250),
        }
    }
}

/// Load-aware virtual-node rebalancing policy; `None` in
/// [`ShardConfig::rebalance`] disables the thread entirely.
#[derive(Debug, Clone)]
pub struct RebalanceConfig {
    /// Sampling interval: each tick diffs per-shard completion counters
    /// against the previous tick.
    pub interval: Duration,
    /// Minimum completions across all shards in one interval before the
    /// sample is trusted (idle tiers never rebalance).
    pub min_samples: u64,
    /// Trigger threshold: rebalance when the hottest shard's completion
    /// delta exceeds `max_spread` times the coldest's.
    pub max_spread: f64,
    /// Virtual nodes moved from hottest to coldest per rebalance.
    pub step: usize,
    /// Floor on any shard's virtual-node count: a hot shard is never
    /// drained below this, so every shard always owns keyspace.
    pub min_vnodes: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(200),
            min_samples: 64,
            max_spread: 1.5,
            step: 8,
            min_vnodes: 8,
        }
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
    /// Load-aware virtual-node rebalancing; `None` (the default) keeps
    /// the ring assignment static.
    pub rebalance: Option<RebalanceConfig>,
    /// Template for each shard's gateway; `addr` is overridden with a
    /// fresh loopback port per shard.
    pub gateway: GatewayConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            virtual_nodes: 64,
            seed: 0,
            replica: ReplicaConfig::default(),
            rebalance: None,
            gateway: GatewayConfig::default(),
        }
    }
}

/// How often the health probe re-checks each shard's accept health.
const PROBE_INTERVAL: Duration = Duration::from_millis(25);

/// `retry_after_ms` hint carried by synthesized `ShardLost` rejects: a
/// retry opens a fresh session, which re-admits onto survivors.
const LOST_RETRY_MS: u64 = 25;

/// How long a connection drain waits for its in-flight answers before
/// answering the rest `ShardLost`, and how long router stop waits for
/// its connections before cutting off clients that stopped reading.
const DRAIN_FAILSAFE: Duration = Duration::from_secs(10);

/// Owner sentinel for a tag not yet assigned to any upstream.
const NO_SHARD: usize = usize::MAX;

/// One in-flight request as tracked by its client connection.
struct TagEntry {
    /// The submit as received, retained so a failover can replay it.
    submit: wire::SubmitRequest,
    /// The routing key the submit was steered by.
    key: u64,
    /// Current owner: which shard (and which generation of it) the
    /// request is in flight on. Only the owning upstream's reader may
    /// claim the tag and answer the client.
    shard: usize,
    generation: u64,
    /// Routing attempts spent (dials and writes both count); bounded by
    /// [`SUBMIT_REROUTE_LIMIT`] before the router gives up.
    attempts: usize,
    /// Set when the owner died and the tag awaits replay by the
    /// connection's thread; a parked tag still claims normally if the
    /// old shard's answer already arrived, which makes the replay a
    /// no-op.
    parked: bool,
}

/// Per-client-connection tag-ownership table: the single source of truth
/// for "who answers this tag". Every terminal answer to the client —
/// a forwarded `Final`/`Reject` or a synthesized `ShardLost` — must
/// first *claim* the tag (remove it here); whoever claims it answers,
/// everyone else drops. That makes answering structurally exactly-once
/// even when a shard's real answer races its death.
struct TagTable {
    tags: Mutex<HashMap<u64, TagEntry>>,
    /// The connection thread's wake-up: fired when tags are parked for
    /// replay and, once `draining`, when the last tag is claimed.
    waker: reactor::Waker,
    /// Set when the connection starts its drain.
    draining: AtomicBool,
}

impl TagTable {
    fn new(waker: reactor::Waker) -> Self {
        Self {
            tags: Mutex::new(HashMap::new()),
            waker,
            draining: AtomicBool::new(false),
        }
    }

    /// Registers a fresh submit before any routing attempt, so an answer
    /// (however fast) always finds its owner.
    fn begin(&self, key: u64, submit: wire::SubmitRequest) {
        let tag = submit.client_tag;
        self.tags.lock().insert(
            tag,
            TagEntry {
                submit,
                key,
                shard: NO_SHARD,
                generation: 0,
                attempts: 0,
                parked: false,
            },
        );
    }

    /// Claims `tag` if `(shard, generation)` currently owns it: the
    /// caller gains the exclusive right (and duty) to answer the client.
    /// Claiming the last tag of a draining connection wakes its thread.
    fn claim_owned(&self, tag: u64, shard: usize, generation: u64) -> bool {
        let mut tags = self.tags.lock();
        match tags.get(&tag) {
            Some(e) if e.shard == shard && e.generation == generation => {
                tags.remove(&tag);
                if tags.is_empty() && self.draining.load(Ordering::Acquire) {
                    self.waker.wake();
                }
                true
            }
            _ => false,
        }
    }

    /// Whether `(shard, generation)` owns `tag` (stage-update gate).
    fn contains_owned(&self, tag: u64, shard: usize, generation: u64) -> bool {
        let tags = self.tags.lock();
        matches!(tags.get(&tag), Some(e) if e.shard == shard && e.generation == generation)
    }

    /// Parks every tag owned by `(shard, generation)` for replay and
    /// wakes the connection's thread; returns how many it parked.
    /// Parked entries stay in the table (the replay will re-own them)
    /// but are skipped by repeat sweeps.
    fn park_owned(&self, shard: usize, generation: u64) -> u64 {
        let mut parked = 0;
        for entry in self.tags.lock().values_mut() {
            if entry.shard == shard && entry.generation == generation && !entry.parked {
                entry.parked = true;
                parked += 1;
            }
        }
        if parked > 0 {
            self.waker.wake();
        }
        parked
    }

    /// Parks `tag` if `(shard, generation)` owns it and it is not parked
    /// yet — the single-tag variant of [`TagTable::park_owned`], used by
    /// a failed submit write whose upstream reader may have run its
    /// sweep *before* the write path stamped ownership (in which case
    /// the sweep saw nothing and only the writer can fail the tag over).
    /// The transition is under the table lock, so when writer and sweep
    /// race, exactly one of them parks the tag.
    fn park_one(&self, tag: u64, shard: usize, generation: u64) -> bool {
        let parked = match self.tags.lock().get_mut(&tag) {
            Some(e) if e.shard == shard && e.generation == generation && !e.parked => {
                e.parked = true;
                true
            }
            _ => false,
        };
        if parked {
            self.waker.wake();
        }
        parked
    }

    /// Every tag awaiting replay.
    fn parked(&self) -> Vec<u64> {
        let tags = self.tags.lock();
        tags.iter()
            .filter(|(_, e)| e.parked)
            .map(|(&tag, _)| tag)
            .collect()
    }

    /// Claims `tag` regardless of owner (the routing loop giving up).
    fn claim(&self, tag: u64) -> bool {
        self.tags.lock().remove(&tag).is_some()
    }

    fn is_empty(&self) -> bool {
        self.tags.lock().is_empty()
    }

    /// Removes and returns every tag (connection-drain failsafe).
    fn take_all(&self) -> Vec<u64> {
        self.tags.lock().drain().map(|(tag, _)| tag).collect()
    }
}

/// One proxied upstream connection: router → shard, carrying every
/// request one *client* connection routed to one *shard generation*.
/// Client tags pass through verbatim (they are unique per client
/// connection, and each client connection gets its own upstreams), so no
/// tag translation is ever needed.
struct UpstreamShared {
    /// Which shard (and which generation of it) this connection serves;
    /// the owner stamp its reader claims tags under.
    shard: usize,
    generation: u64,
    /// Write half toward the shard; locked per frame.
    writer: Mutex<TcpStream>,
    /// Write half back toward the client (shared with the other upstreams
    /// of the same client connection).
    client_writer: Arc<Mutex<TcpStream>>,
    /// The connection's tag-ownership table (shared with its other
    /// upstreams and the routing loop).
    table: Arc<TagTable>,
    /// Set once the upstream is unusable (severed, write failure, reader
    /// exit); the routing loop then dials a fresh upstream.
    dead: AtomicBool,
    /// Router-lifetime count of tags replayed across a failover.
    failovers: Arc<AtomicU64>,
}

impl UpstreamShared {
    /// Kills the socket under the upstream reader/submitter: reads and
    /// writes start failing immediately, which makes the reader exit and
    /// run the failover sweep for everything still in flight.
    fn sever(&self) {
        self.dead.store(true, Ordering::Release);
        let _ = self.writer.lock().shutdown(SocketShutdown::Both);
    }

    /// Failover sweep, run by the reader exactly once when it exits:
    /// parks every owned tag for replay. On a clean drain every tag was
    /// already claimed by a forwarded answer, so the sweep is a no-op.
    fn fail_over(&self) {
        let parked = self.table.park_owned(self.shard, self.generation);
        self.failovers.fetch_add(parked, Ordering::Relaxed);
    }

    /// Single-tag failover, run by a failed submit write after severing.
    /// The reader's sweep may have already run — *before* the write path
    /// stamped this tag's ownership — in which case the sweep saw
    /// nothing and only this call rescues the tag. The park transition
    /// is serialized by the table lock, so when the sweep and the writer
    /// race, exactly one parks the tag.
    fn fail_over_tag(&self, tag: u64) {
        if self.table.park_one(tag, self.shard, self.generation) {
            self.failovers.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A live upstream as held by one client connection's handler.
struct Upstream {
    shared: Arc<UpstreamShared>,
    reader: JoinHandle<()>,
    /// Set once the connection drain sent this upstream a `Shutdown`:
    /// the gateway stops reading new submits after that, so the routing
    /// loop must dial fresh rather than reuse it.
    notified: bool,
}

/// Forwards shard → client frames for tags this upstream owns, then runs
/// the failover sweep on exit (whatever the exit reason — the sweep is a
/// no-op unless tags were stranded).
fn upstream_reader_loop(mut stream: TcpStream, shared: Arc<UpstreamShared>) {
    let mut buffer = FrameBuffer::new();
    // The socket has no read timeout: `sever`'s shutdown, or the shard
    // closing after a drain, is what ends the read.
    loop {
        let frame = match buffer.poll(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => continue,
            Err(_) => break,
        };
        match frame {
            // Forward only tags we own and can claim: a tag that failed
            // over (re-owned by another shard) or was already answered
            // must not reach the client from here too.
            Frame::Final { client_tag, .. } | Frame::Reject { client_tag, .. }
                if shared
                    .table
                    .claim_owned(client_tag, shared.shard, shared.generation) =>
            {
                let _ = wire::write_frame(&mut *shared.client_writer.lock(), &frame);
            }
            Frame::StageUpdate { client_tag, .. }
                if shared
                    .table
                    .contains_owned(client_tag, shared.shard, shared.generation) =>
            {
                let _ = wire::write_frame(&mut *shared.client_writer.lock(), &frame);
            }
            // Handshake happened before this reader spawned; anything
            // else from the shard (or a disowned tag) is dropped.
            _ => {}
        }
    }
    shared.dead.store(true, Ordering::Release);
    shared.fail_over();
}

/// One gateway shard as tracked by the router.
struct ShardSlot {
    /// The shard's gateway; `None` after a kill, `Some` again after
    /// revival. Held out-of-band so killing never blocks the ring.
    gateway: Mutex<Option<Gateway>>,
    addr: Mutex<SocketAddr>,
    stats: Mutex<RuntimeStats>,
    status: Mutex<GatewayStatus>,
    /// The shard's model registry and tenant governor, held beyond the
    /// gateway itself so per-model/per-tenant rows keep aggregating (and
    /// survive) across a kill.
    registry: Mutex<ModelRegistry>,
    governor: Mutex<TenantGovernor>,
    /// Counters of this slot's pre-revival generations, folded in when a
    /// revive replaces the registry/governor handles.
    retired: Mutex<StatsSnapshot>,
    alive: AtomicBool,
    /// Bumped every time the slot gets a fresh gateway (revive); cached
    /// upstreams are keyed by `(shard, generation)` so a connection can
    /// never reuse a severed socket from the previous generation.
    generation: AtomicU64,
    /// Live proxy connections into this shard, severed on death.
    upstreams: Mutex<Vec<Weak<UpstreamShared>>>,
}

impl ShardSlot {
    fn for_gateway(gateway: Gateway) -> Self {
        Self {
            addr: Mutex::new(gateway.local_addr()),
            stats: Mutex::new(gateway.stats()),
            status: Mutex::new(gateway.status()),
            registry: Mutex::new(gateway.registry()),
            governor: Mutex::new(gateway.governor()),
            retired: Mutex::new(StatsSnapshot::default()),
            alive: AtomicBool::new(true),
            generation: AtomicU64::new(0),
            upstreams: Mutex::new(Vec::new()),
            gateway: Mutex::new(Some(gateway)),
        }
    }
}

/// An open double-routing window: dial failures against `shard` fall to
/// the next replica until `until`, instead of marking the shard dead.
struct Migration {
    shard: usize,
    until: Instant,
}

/// State shared by the accept loop, connection handlers, and the probe.
struct RouterShared {
    config: ShardConfig,
    /// Growable: `add_shard` appends, indices are stable forever.
    slots: RwLock<Vec<Arc<ShardSlot>>>,
    ring: RwLock<HashRing>,
    /// Bumped on every ring mutation (kill, revive, add, remove,
    /// rebalance); stamped on proxied submits.
    epoch: AtomicU64,
    /// Open double-routing windows (pruned lazily).
    migrations: Mutex<Vec<Migration>>,
    stop: AtomicBool,
    shard_lost: Arc<AtomicU64>,
    failovers: Arc<AtomicU64>,
    rebalances: AtomicU64,
    conn_counter: AtomicU64,
    accept_failed: AtomicBool,
    /// Graceful-drain threads spawned by `remove_shard`.
    drainers: Mutex<Vec<JoinHandle<()>>>,
    /// Accepted client connections (finished ones reaped on accept).
    conns: Mutex<Vec<ClientConn>>,
    /// Client connection threads still running, and the condvar each
    /// one signals on exit: router stop waits on it.
    live_conns: Mutex<usize>,
    conn_exited: Condvar,
}

/// One accepted client connection as the router tracks it: what stop
/// needs to wake its thread and, past the drain failsafe, to cut it off.
struct ClientConn {
    handle: JoinHandle<()>,
    waker: reactor::Waker,
    /// A clone of the client socket: shutting it down unblocks a thread
    /// stuck writing to a client that stopped reading.
    socket: TcpStream,
}

impl RouterShared {
    fn slot(&self, shard: usize) -> Arc<ShardSlot> {
        Arc::clone(&self.slots.read()[shard])
    }

    /// Takes `shard` off the ring and severs its proxies — but only if
    /// the slot is still at `generation`. Every down-verdict (probe
    /// status, dial failure, write failure) was formed against a specific
    /// incarnation; the guard keeps a verdict that raced a full
    /// kill+revive cycle from condemning the *new* incarnation. The
    /// alive flip and the ring removal happen together under the ring
    /// write lock, paired with `revive_shard`'s store+insert, so `alive`
    /// and ring membership can never be observed disagreeing.
    fn mark_shard_down(&self, shard: usize, generation: u64) {
        let slot = self.slot(shard);
        {
            let mut ring = self.ring.write();
            if slot.generation.load(Ordering::Acquire) != generation {
                return;
            }
            if !slot.alive.swap(false, Ordering::AcqRel) {
                return;
            }
            // Ring inside the same critical section: a submit that races
            // this sees either the old ring (its write then fails and
            // fails over) or the shrunk one.
            ring.remove(shard);
        }
        self.epoch.fetch_add(1, Ordering::Relaxed);
        let upstreams: Vec<Weak<UpstreamShared>> = std::mem::take(&mut *slot.upstreams.lock());
        for weak in upstreams {
            if let Some(upstream) = weak.upgrade() {
                upstream.sever();
            }
        }
    }

    /// Whether `shard` is inside an open double-routing window.
    fn in_migration(&self, shard: usize) -> bool {
        let now = Instant::now();
        let mut migrations = self.migrations.lock();
        migrations.retain(|m| m.until > now);
        migrations.iter().any(|m| m.shard == shard)
    }
}

/// Sharded gateway front tier; see the module docs for semantics.
///
/// Dropping the router (or calling [`ShardRouter::shutdown`]) stops
/// accepting, joins every proxy connection, and drains each surviving
/// shard's gateway and runtime.
pub struct ShardRouter {
    local_addr: SocketAddr,
    shared: Arc<RouterShared>,
    waker: reactor::Waker,
    accept_handle: Option<JoinHandle<()>>,
    probe_handle: Option<JoinHandle<()>>,
    rebalance_handle: Option<JoinHandle<()>>,
}

impl ShardRouter {
    /// Boots one gateway per runtime (each on its own loopback port) and
    /// binds the router socket in front of them.
    pub fn start(runtimes: Vec<ServingRuntime>, config: ShardConfig) -> io::Result<Self> {
        assert!(
            !runtimes.is_empty(),
            "a shard router needs at least one shard"
        );
        let mut slots = Vec::with_capacity(runtimes.len());
        let mut ring = HashRing::new(config.seed, config.virtual_nodes);
        for (i, runtime) in runtimes.into_iter().enumerate() {
            let mut gateway_config = config.gateway.clone();
            gateway_config.addr = "127.0.0.1:0".to_owned();
            let gateway = Gateway::start(runtime, gateway_config)?;
            ring.insert(i);
            slots.push(Arc::new(ShardSlot::for_gateway(gateway)));
        }

        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let rebalance = config.rebalance.clone();
        let shared = Arc::new(RouterShared {
            config,
            slots: RwLock::new(slots),
            ring: RwLock::new(ring),
            epoch: AtomicU64::new(1),
            migrations: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            shard_lost: Arc::new(AtomicU64::new(0)),
            failovers: Arc::new(AtomicU64::new(0)),
            rebalances: AtomicU64::new(0),
            conn_counter: AtomicU64::new(0),
            accept_failed: AtomicBool::new(false),
            drainers: Mutex::new(Vec::new()),
            conns: Mutex::new(Vec::new()),
            live_conns: Mutex::new(0),
            conn_exited: Condvar::new(),
        });
        let waker = reactor::Waker::new()?;

        let accept_handle = {
            let shared = Arc::clone(&shared);
            let waker = waker.clone();
            let poller = Poller::new()?;
            std::thread::Builder::new()
                .name("eugene-shard-accept".to_owned())
                .spawn(move || router_accept_loop(listener, shared, poller, waker))
                .expect("spawn shard accept thread")
        };
        let probe_handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("eugene-shard-probe".to_owned())
                .spawn(move || probe_loop(shared))
                .expect("spawn shard probe thread")
        };
        let rebalance_handle = rebalance.map(|policy| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("eugene-shard-rebalance".to_owned())
                .spawn(move || rebalance_loop(shared, policy))
                .expect("spawn shard rebalance thread")
        });
        Ok(Self {
            local_addr,
            shared,
            waker,
            accept_handle: Some(accept_handle),
            probe_handle: Some(probe_handle),
            rebalance_handle,
        })
    }

    /// The router's bound address — point clients here.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Total shard slots ever created (alive or not).
    pub fn num_shards(&self) -> usize {
        self.shared.slots.read().len()
    }

    /// Shards currently on the ring.
    pub fn alive_shards(&self) -> usize {
        self.shared.ring.read().len()
    }

    /// Where `key` currently routes, or `None` with no shard alive.
    pub fn shard_for_key(&self, key: u64) -> Option<usize> {
        self.shared.ring.read().route(key)
    }

    /// `key`'s replica group under the current ring: primary first, then
    /// the warm standby, then further successors.
    pub fn replicas_for_key(&self, key: u64) -> Vec<usize> {
        let n = self.shared.config.replica.replicas.max(2);
        self.shared.ring.read().route_replicas(key, n)
    }

    /// A point-in-time copy of the routing ring (tests and benches
    /// inspect placement and virtual-node weights through this).
    pub fn ring_snapshot(&self) -> HashRing {
        self.shared.ring.read().clone()
    }

    /// Monotonic ring epoch: bumped on every membership or weight
    /// change, stamped on every proxied submit.
    pub fn ring_epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Relaxed)
    }

    /// The loopback address shard `index`'s gateway listens on.
    pub fn shard_addr(&self, index: usize) -> SocketAddr {
        *self.shared.slot(index).addr.lock()
    }

    /// Per-shard runtime occupancy handles, indexed by shard.
    pub fn shard_stats(&self) -> Vec<RuntimeStats> {
        self.shared
            .slots
            .read()
            .iter()
            .map(|slot| slot.stats.lock().clone())
            .collect()
    }

    /// Network-edge gauges of shard `index`'s gateway.
    pub fn shard_status(&self, index: usize) -> GatewayStatus {
        self.shared.slot(index).status.lock().clone()
    }

    /// Aggregate snapshot across all shards: totals plus per-model and
    /// per-tenant rows merged by name. Rows of a killed shard keep
    /// contributing (its registry and governor outlive the gateway), and
    /// a revive folds the killed generation into a retained baseline — so
    /// counters never regress across a kill/revive cycle.
    pub fn aggregate_stats(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for slot in self.shared.slots.read().iter() {
            total.absorb(&slot.retired.lock());
            total.absorb(&slot.registry.lock().snapshot());
            for (name, row) in slot.governor.lock().snapshot() {
                total.per_tenant.entry(name).or_default().absorb(&row);
            }
        }
        total
    }

    /// `ShardLost` rejects the router has synthesized so far.
    pub fn shard_lost_rejects(&self) -> u64 {
        self.shared.shard_lost.load(Ordering::Relaxed)
    }

    /// In-flight submits transparently replayed across a shard failover
    /// so far.
    pub fn failover_replays(&self) -> u64 {
        self.shared.failovers.load(Ordering::Relaxed)
    }

    /// Virtual-node moves the load-aware rebalancer has applied so far.
    pub fn rebalances(&self) -> u64 {
        self.shared.rebalances.load(Ordering::Relaxed)
    }

    /// Whether the router's own accept loop is still healthy.
    pub fn accept_healthy(&self) -> bool {
        !self.shared.accept_failed.load(Ordering::Relaxed)
    }

    /// Kills shard `index` as a fault injection: the ring drops it, its
    /// proxies are severed (in-flight requests replay to each key's new
    /// owner, the warm standby), and only then is its gateway torn down.
    /// Returns `false` if it was already down.
    pub fn kill_shard(&self, index: usize) -> bool {
        let slot = self.shared.slot(index);
        let generation = slot.generation.load(Ordering::Acquire);
        let was_alive = slot.alive.load(Ordering::Acquire);
        // Sever the proxies *before* the gateway's graceful shutdown:
        // clients must observe a deterministic failover, not a race
        // against the dying shard's drain.
        self.shared.mark_shard_down(index, generation);
        let gateway = slot.gateway.lock().take();
        if let Some(gateway) = gateway {
            gateway.shutdown();
        }
        was_alive
    }

    /// Brings shard `index` back with a fresh runtime. The ring update
    /// publishes only after the new gateway proves accept-healthy (a
    /// probe connection completes the handshake), so a concurrent submit
    /// can never route onto a listener that is not accepting yet. Its
    /// virtual nodes then return at the exact same points, so the
    /// assignment reverts to what it was before the kill.
    pub fn revive_shard(&self, index: usize, runtime: ServingRuntime) -> io::Result<()> {
        let slot = self.shared.slot(index);
        assert!(
            !slot.alive.load(Ordering::Acquire),
            "revive_shard on a live shard"
        );
        let mut gateway_config = self.shared.config.gateway.clone();
        gateway_config.addr = "127.0.0.1:0".to_owned();
        let gateway = Gateway::start(runtime, gateway_config)?;
        wait_accept_healthy(gateway.local_addr())?;
        *slot.addr.lock() = gateway.local_addr();
        *slot.stats.lock() = gateway.stats();
        *slot.status.lock() = gateway.status();
        // Fold the killed generation's counters into the slot's retired
        // baseline before its handles are replaced, so aggregate rows
        // never regress across a kill/revive cycle.
        {
            let mut retired = slot.retired.lock();
            retired.absorb(&slot.registry.lock().snapshot());
            for (name, row) in slot.governor.lock().snapshot() {
                retired.per_tenant.entry(name).or_default().absorb(&row);
            }
        }
        *slot.registry.lock() = gateway.registry();
        *slot.governor.lock() = gateway.governor();
        *slot.gateway.lock() = Some(gateway);
        // New generation: cached upstreams from before the kill are
        // stale by construction and will be re-dialed, never reused. The
        // bump, the alive flip, and the ring insert happen together
        // under the ring write lock (paired with `mark_shard_down`) so a
        // stale down-verdict can neither land between the flip and the
        // insert — which would publish a dead-flagged shard the next
        // kill no-ops on — nor pass the generation guard afterwards.
        {
            let mut ring = self.shared.ring.write();
            slot.generation.fetch_add(1, Ordering::Release);
            slot.alive.store(true, Ordering::Release);
            ring.insert(index);
        }
        self.shared.epoch.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Live scale-out: boots a gateway for `runtime`, waits until it is
    /// accept-healthy, appends it as a new shard slot, and publishes its
    /// virtual nodes — moving only the bounded-remap key ranges. A
    /// double-routing window ([`ReplicaConfig::migration_window`]) then
    /// covers the cutover: dial failures against the newcomer fall back
    /// to each range's previous owner instead of declaring it dead.
    /// Returns the new shard's index.
    pub fn add_shard(&self, runtime: ServingRuntime) -> io::Result<usize> {
        let mut gateway_config = self.shared.config.gateway.clone();
        gateway_config.addr = "127.0.0.1:0".to_owned();
        let gateway = Gateway::start(runtime, gateway_config)?;
        wait_accept_healthy(gateway.local_addr())?;
        let index = {
            let mut slots = self.shared.slots.write();
            slots.push(Arc::new(ShardSlot::for_gateway(gateway)));
            slots.len() - 1
        };
        self.shared.migrations.lock().push(Migration {
            shard: index,
            until: Instant::now() + self.shared.config.replica.migration_window,
        });
        self.shared.ring.write().insert(index);
        self.shared.epoch.fetch_add(1, Ordering::Relaxed);
        Ok(index)
    }

    /// Live scale-in: takes shard `index` off the ring (new traffic
    /// immediately re-routes to the ranges' standbys), then shuts its
    /// gateway down in the background. The gateway's shutdown answers
    /// every request it admitted, and a submit it never read fails over
    /// to the key's new owner when its upstream closes, so nothing is
    /// lost. Refuses (returns `false`) for the last ring member or a
    /// shard already down.
    pub fn remove_shard(&self, index: usize) -> bool {
        let slot = self.shared.slot(index);
        {
            let mut ring = self.shared.ring.write();
            if ring.len() <= 1 || !ring.contains(index) {
                return false;
            }
            if !slot.alive.swap(false, Ordering::AcqRel) {
                return false;
            }
            ring.remove(index);
        }
        self.shared.epoch.fetch_add(1, Ordering::Relaxed);
        let handle = std::thread::Builder::new()
            .name("eugene-shard-drain".to_owned())
            .spawn(move || {
                let gateway = slot.gateway.lock().take();
                if let Some(gateway) = gateway {
                    gateway.shutdown();
                }
            })
            .expect("spawn shard drain thread");
        self.shared.drainers.lock().push(handle);
        true
    }

    /// Stops accepting, lets every client connection drain (bounded by
    /// the drain failsafe, after which a client that stopped reading has
    /// its socket shut down), joins them, then drains each surviving
    /// shard.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.waker.wake();
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.probe_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.rebalance_handle.take() {
            let _ = handle.join();
        }
        let conns: Vec<ClientConn> = std::mem::take(&mut *self.shared.conns.lock());
        for conn in &conns {
            conn.waker.wake();
        }
        let deadline = Instant::now() + DRAIN_FAILSAFE;
        let mut live = self.shared.live_conns.lock();
        while *live > 0 {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            self.shared.conn_exited.wait_for(&mut live, remaining);
        }
        drop(live);
        for conn in conns {
            // Still running past the failsafe: blocked writing to a
            // client that stopped reading.
            if !conn.handle.is_finished() {
                let _ = conn.socket.shutdown(SocketShutdown::Both);
            }
            let _ = conn.handle.join();
        }
        let drainers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.shared.drainers.lock());
        for handle in drainers {
            let _ = handle.join();
        }
        let slots: Vec<Arc<ShardSlot>> = self.shared.slots.read().iter().cloned().collect();
        for slot in slots {
            if let Some(gateway) = slot.gateway.lock().take() {
                gateway.shutdown();
            }
        }
    }
}

impl Drop for ShardRouter {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Blocks until the gateway at `addr` completes a full
/// `Hello`/`HelloAck` handshake (bounded at ~2 s): proof the accept path
/// is live end to end, not merely that the port is bound.
fn wait_accept_healthy(addr: SocketAddr) -> io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let probe =
            TcpStream::connect_timeout(&addr, Duration::from_millis(250)).and_then(|mut stream| {
                shard_handshake(&mut stream, deadline)
                    .map_err(|e| io::Error::new(io::ErrorKind::BrokenPipe, e.to_string()))
            });
        match probe {
            Ok(()) => return Ok(()),
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
}

/// The router's side of a shard handshake: sends `Hello` and waits for a
/// valid `HelloAck` until `deadline`, with the time remaining as the
/// read timeout, which it clears on success so later reads block.
fn shard_handshake(stream: &mut TcpStream, deadline: Instant) -> Result<(), WireError> {
    stream.set_nodelay(true).ok();
    wire::write_frame(
        stream,
        &Frame::Hello {
            max_version: PROTOCOL_VERSION,
        },
    )?;
    let mut buffer = FrameBuffer::new();
    loop {
        // Checked first: a zero read timeout is an error, not a poll.
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(WireError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "shard handshake timed out",
            )));
        }
        stream.set_read_timeout(Some(remaining))?;
        match buffer.poll(stream)? {
            Some(Frame::HelloAck { version }) if (1..=PROTOCOL_VERSION).contains(&version) => break,
            Some(_) => return Err(WireError::Malformed("expected HelloAck from shard")),
            None => {}
        }
    }
    stream.set_read_timeout(None)?;
    Ok(())
}

const TOKEN_LISTENER: usize = 0;
const TOKEN_WAKER: usize = 1;

fn router_accept_loop(
    listener: TcpListener,
    shared: Arc<RouterShared>,
    mut poller: Poller,
    waker: reactor::Waker,
) {
    if poller
        .register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
        .and_then(|()| poller.register(waker.read_fd(), TOKEN_WAKER, Interest::READ))
        .is_err()
    {
        shared.accept_failed.store(true, Ordering::Relaxed);
        return;
    }
    let mut events = Vec::new();
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        // Reap finished connection handlers so the tracked vector stays
        // bounded by live connections under churn.
        shared.conns.lock().retain(|c| !c.handle.is_finished());
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // A socket or pipe the process cannot afford is a
                    // connection dropped, not an accept failure.
                    let (Ok(conn_waker), Ok(socket)) = (reactor::Waker::new(), stream.try_clone())
                    else {
                        continue;
                    };
                    *shared.live_conns.lock() += 1;
                    let handle = {
                        let shared = Arc::clone(&shared);
                        let waker = conn_waker.clone();
                        std::thread::Builder::new()
                            .name("eugene-shard-conn".to_owned())
                            .spawn(move || {
                                serve_client_connection(stream, waker, &shared);
                                *shared.live_conns.lock() -= 1;
                                shared.conn_exited.notify_all();
                            })
                            .expect("spawn shard connection thread")
                    };
                    shared.conns.lock().push(ClientConn {
                        handle,
                        waker: conn_waker,
                        socket,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    shared.accept_failed.store(true, Ordering::Relaxed);
                    return;
                }
            }
        }
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        if poller.wait(&mut events, None).is_err() {
            shared.accept_failed.store(true, Ordering::Relaxed);
            return;
        }
        if events.iter().any(|e| e.token == TOKEN_WAKER) {
            waker.drain();
        }
    }
}

/// Health probe: a shard whose gateway reports a dead accept path (which
/// includes a poisoned readiness reactor) is taken off the ring.
fn probe_loop(shared: Arc<RouterShared>) {
    while !shared.stop.load(Ordering::Relaxed) {
        let slots: Vec<Arc<ShardSlot>> = shared.slots.read().iter().cloned().collect();
        for (i, slot) in slots.iter().enumerate() {
            if !slot.alive.load(Ordering::Acquire) {
                continue;
            }
            // Generation first: if the slot is revived between this
            // status read and the verdict below, the guard inside
            // `mark_shard_down` discards the stale observation.
            let generation = slot.generation.load(Ordering::Acquire);
            let failed = slot.status.lock().accept_failed();
            if failed || slot.gateway.lock().is_none() {
                shared.mark_shard_down(i, generation);
            }
        }
        std::thread::sleep(PROBE_INTERVAL);
    }
}

/// Load-aware rebalancer: each tick diffs per-shard completion counters;
/// when the hottest shard's delta exceeds `max_spread`× the coldest's
/// (and the sample is large enough to trust), it moves `step` virtual
/// nodes from hot to cold. Weights persist on the ring, so a revive
/// keeps the rebalanced assignment.
fn rebalance_loop(shared: Arc<RouterShared>, policy: RebalanceConfig) {
    let mut last: HashMap<usize, u64> = HashMap::new();
    while !shared.stop.load(Ordering::Relaxed) {
        std::thread::sleep(policy.interval);
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let members: Vec<usize> = shared.ring.read().shards().to_vec();
        if members.len() < 2 {
            continue;
        }
        let mut deltas: Vec<(usize, u64)> = Vec::with_capacity(members.len());
        let slots: Vec<Arc<ShardSlot>> = shared.slots.read().iter().cloned().collect();
        for &shard in &members {
            let completed = slots[shard].stats.lock().completed();
            let prev = last.insert(shard, completed).unwrap_or(completed);
            deltas.push((shard, completed.saturating_sub(prev)));
        }
        let total: u64 = deltas.iter().map(|&(_, d)| d).sum();
        if total < policy.min_samples {
            continue;
        }
        let &(hot, hot_delta) = deltas.iter().max_by_key(|&&(_, d)| d).expect(">=2 members");
        let &(cold, cold_delta) = deltas.iter().min_by_key(|&&(_, d)| d).expect(">=2 members");
        if hot == cold || (hot_delta as f64) <= policy.max_spread * (cold_delta.max(1) as f64) {
            continue;
        }
        {
            let mut ring = shared.ring.write();
            let hot_vnodes = ring.vnodes_of(hot);
            if hot_vnodes <= policy.min_vnodes {
                continue;
            }
            let step = policy.step.min(hot_vnodes - policy.min_vnodes).max(1);
            ring.set_vnodes(hot, hot_vnodes - step);
            let cold_vnodes = ring.vnodes_of(cold);
            ring.set_vnodes(cold, cold_vnodes + step);
        }
        shared.epoch.fetch_add(1, Ordering::Relaxed);
        shared.rebalances.fetch_add(1, Ordering::Relaxed);
    }
}

/// How many routing attempts (dials and writes both count) one submit
/// may spend chasing the ring across shard deaths before the router
/// gives up and synthesizes `ShardLost` — exactly once, via the tag
/// table.
const SUBMIT_REROUTE_LIMIT: usize = 4;

/// Everything one client connection's routing loop owns.
struct ConnState {
    shared: Arc<RouterShared>,
    client_writer: Arc<Mutex<TcpStream>>,
    table: Arc<TagTable>,
    /// Live upstream per shard; staleness (dead, old generation, or
    /// drain-notified) forces a fresh dial.
    upstreams: HashMap<usize, Upstream>,
    /// Upstreams replaced while still potentially delivering answers
    /// for tags they own; joined at connection end.
    retired: Vec<Upstream>,
}

impl ConnState {
    /// Routes the table entry for `tag` onto the ring: picks the first
    /// healthy replica, dials or reuses its upstream, stamps the current
    /// ring epoch, and writes the submit. Dial failures walk the replica
    /// group (respecting migration grace); a failed write severs the
    /// upstream and leaves the failover sweep to re-queue the tag. When
    /// no shard can take the request (or attempts run out), claims the
    /// tag and synthesizes `ShardLost` — the single place that counter
    /// can increment for a routed tag.
    fn route_entry(&mut self, tag: u64) {
        // Candidates that failed to dial under migration grace this
        // call: skipped locally without marking the shard down.
        let mut skip: Vec<usize> = Vec::new();
        loop {
            let key = {
                let tags = self.table.tags.lock();
                match tags.get(&tag) {
                    // Already answered (claimed) — nothing to route.
                    None => return,
                    Some(e) if e.attempts >= SUBMIT_REROUTE_LIMIT => {
                        drop(tags);
                        self.give_up(tag);
                        return;
                    }
                    Some(e) => e.key,
                }
            };
            let replicas = self.shared.config.replica.replicas.max(2);
            let candidates = self.shared.ring.read().route_replicas(key, replicas);
            let Some(&shard) = candidates.iter().find(|s| !skip.contains(s)) else {
                self.give_up(tag);
                return;
            };
            {
                let mut tags = self.table.tags.lock();
                match tags.get_mut(&tag) {
                    Some(e) => e.attempts += 1,
                    None => return,
                }
            }
            if let Err(dialed_generation) = self.ensure_upstream(shard) {
                if self.shared.in_migration(shard) {
                    // Double-routing window: the newcomer may not be
                    // reachable yet; fall back to the range's previous
                    // owner without declaring the shard dead.
                    skip.push(shard);
                } else {
                    self.shared.mark_shard_down(shard, dialed_generation);
                }
                continue;
            }
            let upstream = self.upstreams.get(&shard).expect("upstream just ensured");
            let generation = upstream.shared.generation;
            // Set ownership *before* the bytes leave, so the answer
            // (however fast) always finds its owner; stamp the ring
            // epoch the routing decision was made under.
            let frame = {
                let mut tags = self.table.tags.lock();
                let Some(entry) = tags.get_mut(&tag) else {
                    return;
                };
                entry.shard = shard;
                entry.generation = generation;
                entry.parked = false;
                let mut submit = entry.submit.clone();
                submit.epoch = Some(self.shared.epoch.load(Ordering::Relaxed));
                Frame::Submit(submit)
            };
            let write_result = wire::write_frame(&mut *upstream.shared.writer.lock(), &frame);
            match write_result {
                Ok(()) => return,
                Err(_) => {
                    // Exactly-once by construction: do NOT retry in
                    // line. Sever, then fail over *this* tag explicitly
                    // — the reader's sweep may have run before the
                    // ownership stamp above and missed it; the parked
                    // transition keeps the two paths from both queueing.
                    upstream.shared.sever();
                    upstream.shared.fail_over_tag(tag);
                    if !self.shared.in_migration(shard) {
                        self.shared.mark_shard_down(shard, generation);
                    }
                    return;
                }
            }
        }
    }

    /// Claims `tag` and answers `ShardLost`: no shard can take it. The
    /// claim makes the synthesis exactly-once — if a real answer or the
    /// failover sweep got there first, this is a no-op.
    fn give_up(&self, tag: u64) {
        if !self.table.claim(tag) {
            return;
        }
        self.shared.shard_lost.fetch_add(1, Ordering::Relaxed);
        let _ = wire::write_frame(
            &mut *self.client_writer.lock(),
            &Frame::Reject {
                client_tag: tag,
                retry_after_ms: LOST_RETRY_MS,
                reason: RejectReason::ShardLost,
            },
        );
    }

    /// Makes `self.upstreams[shard]` a usable connection to the shard's
    /// *current* generation: reuses a healthy cached upstream, retires a
    /// stale one (dead, previous generation, or drain-notified) and
    /// dials fresh. A dial failure returns the generation that was
    /// dialed, so the caller's down-verdict can never condemn a newer
    /// incarnation of the slot.
    fn ensure_upstream(&mut self, shard: usize) -> Result<(), u64> {
        let slot = self.shared.slot(shard);
        let generation = slot.generation.load(Ordering::Acquire);
        let stale = match self.upstreams.get(&shard) {
            None => false,
            Some(u) => {
                u.shared.dead.load(Ordering::Acquire)
                    || u.shared.generation != generation
                    || u.notified
            }
        };
        if stale {
            // A dead upstream's reader is exiting anyway; a live-but-
            // stale one (old generation / drain-notified) may still be
            // delivering answers for tags it owns, so retire it without
            // severing and join it at connection end.
            let old = self.upstreams.remove(&shard).expect("stale entry exists");
            if old.shared.dead.load(Ordering::Acquire) {
                old.shared.sever();
            }
            self.retired.push(old);
        }
        if self.upstreams.contains_key(&shard) {
            return Ok(());
        }
        match dial_upstream(
            &self.shared,
            &slot,
            shard,
            generation,
            &self.client_writer,
            &self.table,
        ) {
            Ok(upstream) => {
                self.upstreams.insert(shard, upstream);
                Ok(())
            }
            Err(_) => Err(generation),
        }
    }
}

const TOKEN_CLIENT: usize = 0;

/// A reader that makes at most one `read`. After a readiness event that
/// `read` cannot block, and every later call reports `WouldBlock`, so
/// [`FrameBuffer::poll`] decodes what arrived instead of blocking
/// mid-frame. `None` decodes only what is already buffered.
struct OneRead<'a>(Option<&'a TcpStream>);

impl Read for OneRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.0.take() {
            Some(mut stream) => stream.read(buf),
            None => Err(io::ErrorKind::WouldBlock.into()),
        }
    }
}

/// One client connection's thread: it waits in its own poller on the
/// client socket and the connection's waker, never on a timer.
fn serve_client_connection(stream: TcpStream, waker: reactor::Waker, shared: &Arc<RouterShared>) {
    let Ok(mut poller) = Poller::new() else {
        return;
    };
    if stream.set_nodelay(true).is_err()
        || poller
            .register(stream.as_raw_fd(), TOKEN_CLIENT, Interest::READ)
            .and_then(|()| poller.register(waker.read_fd(), TOKEN_WAKER, Interest::READ))
            .is_err()
    {
        return;
    }
    let mut events = Vec::new();
    let mut buffer = FrameBuffer::new();
    // Handshake: the router speaks for the whole tier. Router stop wakes
    // a client that never says Hello out of the wait.
    let version = loop {
        if poller.wait(&mut events, None).is_err() || shared.stop.load(Ordering::Relaxed) {
            return;
        }
        if !events.iter().any(|e| e.token == TOKEN_CLIENT) {
            continue;
        }
        match buffer.poll(&mut OneRead(Some(&stream))) {
            Ok(Some(Frame::Hello { max_version })) => break max_version.min(PROTOCOL_VERSION),
            Ok(Some(_)) | Err(_) => return,
            Ok(None) => {}
        }
    };
    let client_writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    if version == 0
        || wire::write_frame(&mut *client_writer.lock(), &Frame::HelloAck { version }).is_err()
    {
        return;
    }
    // Fallback affinity for submits without an explicit routing key: all
    // keyless requests of one connection stick to one shard.
    let conn_key = splitmix64(0xC0_22_EC_71 ^ shared.conn_counter.fetch_add(1, Ordering::Relaxed));
    let mut conn = ConnState {
        shared: Arc::clone(shared),
        client_writer,
        table: Arc::new(TagTable::new(waker.clone())),
        upstreams: HashMap::new(),
        retired: Vec::new(),
    };

    // The first pass decodes whatever the client pipelined behind Hello.
    let mut client_ready = false;
    'serve: loop {
        let mut source = OneRead(client_ready.then_some(&stream));
        loop {
            let frame = match buffer.poll(&mut source) {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(_) => break 'serve,
            };
            match frame {
                Frame::Submit(submit) => {
                    let key = submit.routing_key.unwrap_or(conn_key);
                    let tag = submit.client_tag;
                    conn.table.begin(key, submit);
                    conn.route_entry(tag);
                }
                Frame::Ping { nonce }
                    if wire::write_frame(
                        &mut *conn.client_writer.lock(),
                        &Frame::Pong { nonce },
                    )
                    .is_err() =>
                {
                    break 'serve;
                }
                Frame::Ping { .. } => {}
                Frame::Shutdown => break 'serve,
                // Hello replays and server->client kinds are ignored, same
                // as a plain gateway.
                _ => {}
            }
        }
        if poller.wait(&mut events, None).is_err() {
            break;
        }
        if events.iter().any(|e| e.token == TOKEN_WAKER) {
            waker.drain();
            if shared.stop.load(Ordering::Relaxed) {
                break;
            }
            // Failover replays: tags parked by a dead upstream's sweep
            // re-route to their key's new owner (the warm standby).
            for tag in conn.table.parked() {
                conn.route_entry(tag);
            }
        }
        client_ready = events.iter().any(|e| e.token == TOKEN_CLIENT);
    }

    // Drain: ask every upstream shard to finish its in-flight work,
    // keep servicing failover replays (a shard dying *mid-drain* still
    // fails its tags over to a survivor), and leave only when every tag
    // has been answered; the reader that claims the last one wakes this
    // wait. A drain-notified upstream stops reading new submits, so a
    // mid-drain replay dials fresh (`notified` staleness in
    // `ensure_upstream`). The failsafe deadline converts anything still
    // unanswered into `ShardLost` so the client can never hang.
    let _ = poller.deregister(stream.as_raw_fd());
    conn.table.draining.store(true, Ordering::Release);
    let failsafe = Instant::now() + DRAIN_FAILSAFE;
    loop {
        for tag in conn.table.parked() {
            conn.route_entry(tag);
        }
        for upstream in conn.upstreams.values_mut() {
            if !upstream.notified {
                upstream.notified = true;
                let _ = wire::write_frame(&mut *upstream.shared.writer.lock(), &Frame::Shutdown);
            }
        }
        if conn.table.is_empty() {
            break;
        }
        let remaining = failsafe.saturating_duration_since(Instant::now());
        if remaining.is_zero() || poller.wait(&mut events, Some(remaining)).is_err() {
            for tag in conn.table.take_all() {
                shared.shard_lost.fetch_add(1, Ordering::Relaxed);
                let _ = wire::write_frame(
                    &mut *conn.client_writer.lock(),
                    &Frame::Reject {
                        client_tag: tag,
                        retry_after_ms: LOST_RETRY_MS,
                        reason: RejectReason::ShardLost,
                    },
                );
            }
            break;
        }
        waker.drain();
    }
    let retired = std::mem::take(&mut conn.retired);
    for upstream in retired
        .into_iter()
        .chain(conn.upstreams.drain().map(|(_, u)| u))
    {
        if !upstream.notified {
            let _ = wire::write_frame(&mut *upstream.shared.writer.lock(), &Frame::Shutdown);
        }
        let _ = upstream.reader.join();
    }
}

/// Dials shard `shard`'s gateway (at generation `generation`), completes
/// the handshake, spawns the forwarding reader, and registers the
/// upstream for severing on death.
fn dial_upstream(
    shared: &RouterShared,
    slot: &ShardSlot,
    shard: usize,
    generation: u64,
    client_writer: &Arc<Mutex<TcpStream>>,
    table: &Arc<TagTable>,
) -> Result<Upstream, WireError> {
    if !slot.alive.load(Ordering::Acquire) {
        return Err(WireError::Io(io::Error::new(
            io::ErrorKind::NotConnected,
            "shard is down",
        )));
    }
    let addr = *slot.addr.lock();
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1))?;
    shard_handshake(&mut stream, Instant::now() + Duration::from_secs(2))?;
    let upstream_shared = Arc::new(UpstreamShared {
        shard,
        generation,
        writer: Mutex::new(stream.try_clone().map_err(WireError::Io)?),
        client_writer: Arc::clone(client_writer),
        table: Arc::clone(table),
        dead: AtomicBool::new(false),
        failovers: Arc::clone(&shared.failovers),
    });
    {
        let mut registered = slot.upstreams.lock();
        registered.retain(|weak| weak.strong_count() > 0);
        registered.push(Arc::downgrade(&upstream_shared));
    }
    // Late check: the shard may have been marked down between the alive
    // check and the registration; a severed registration guarantees the
    // reader cannot outlive the shard silently.
    if !slot.alive.load(Ordering::Acquire) {
        upstream_shared.sever();
    }
    let reader = {
        let shared = Arc::clone(&upstream_shared);
        std::thread::Builder::new()
            .name("eugene-shard-upstream".to_owned())
            .spawn(move || upstream_reader_loop(stream, shared))
            .expect("spawn upstream reader thread")
    };
    Ok(Upstream {
        shared: upstream_shared,
        reader,
        notified: false,
    })
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

    #[test]
    fn set_vnodes_shifts_share_and_persists_across_remove() {
        let mut ring = HashRing::new(13, 64);
        for shard in 0..3 {
            ring.insert(shard);
        }
        let owned_before = (0..4096u64).filter(|&k| ring.route(k) == Some(0)).count();
        ring.set_vnodes(0, 16);
        let owned_after = (0..4096u64).filter(|&k| ring.route(k) == Some(0)).count();
        assert!(
            owned_after < owned_before,
            "fewer vnodes must shrink shard 0's share ({owned_before} -> {owned_after})"
        );
        // Keys not owned by shard 0 before or after must not have moved
        // between the *other* shards: only the re-weighted shard's
        // ranges are in play.
        let snapshot: Vec<Option<usize>> = (0..4096u64).map(|k| ring.route(k)).collect();
        ring.remove(0);
        ring.insert(0);
        let restored: Vec<Option<usize>> = (0..4096u64).map(|k| ring.route(k)).collect();
        assert_eq!(
            snapshot, restored,
            "weight must persist across remove/insert"
        );
        assert_eq!(ring.vnodes_of(0), 16);
    }
}
