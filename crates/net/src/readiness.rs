//! The connection engine: one event loop, every socket, one or many
//! shard slots.
//!
//! A [`Gateway`](crate::server::Gateway) and a
//! [`ShardRouter`](crate::shard::ShardRouter) are the same engine: a single
//! thread parked in a [`Poller`](crate::reactor::Poller) (epoll on Linux,
//! `poll(2)` elsewhere) serving [`Slot`]s. A slot holds what a gateway
//! serves — a [`ModelRegistry`], its admission [`GatewayStatus`] and
//! [`TenantGovernor`] — and a gateway is the one-slot case. Sockets are
//! non-blocking: the loop accepts, handshakes, reassembles frames through
//! a [`FrameBuffer`], and routes each submit through the shared
//! [`HashRing`] (its routing key, or the connection's key) to the owning
//! slot, where [`admit_submit`] admits it and `submit_to` hands it to the
//! slot's registry. Write interest is armed only while a queue is
//! non-empty, so ten thousand idle connections cost zero wakeups.
//!
//! Every submit, to any slot and any model, carries the loop's one
//! [`ReplySink`]: it puts the runtime's [`Reply`] on the loop's one reply
//! channel and wakes the loop's pipe. The loop drains that channel in
//! order into per-connection write queues, so a request's stage updates
//! reach the wire before its `Final` and forwarding is event-driven end
//! to end — no polling tick anywhere, and nothing to re-attach when a
//! model is loaded or a shard revived. The loop's wait times out only
//! for a deadline it owns: a benched listener's retry or a shutdown
//! drain.
//!
//! A kill takes a slot off the ring and bumps its generation under the
//! ring's write lock, then wakes the loop. Each route remembers the slot
//! generation it was admitted under, so a kill strands exactly the routes
//! of the older generation: the loop replays each to its key's new ring
//! owner and drops any answer or stage update that still arrives for a
//! stale route. A request is answered when its route leaves the map, on
//! this one thread — exactly once by construction.
//!
//! Backpressure runs both ways. Outbound, a queue that the socket will
//! not take waits for write readiness. Inbound, a connection whose
//! unflushed answers reach [`WRITE_BACKLOG_CAP`] bytes stops being read
//! until its client drains them: a client that pipelines frames and
//! never reads stalls in its own `send` instead of growing the server's
//! memory without bound. Answers to requests already admitted are always
//! queued — the cap only delays reading new frames. At shutdown, once
//! every admitted request is answered, a connection whose peer has taken
//! no bytes for [`WRITE_STALL`] is closed rather than waited on.

use crate::reactor::{self, Interest, Poller};
use crate::server::{
    admit_submit, final_frame, is_transient_accept_error, GatewayConfig, GatewayStatus, Lease,
    ACCEPT_BACKOFF_BASE, ACCEPT_BACKOFF_CAP, ACCEPT_RETRY_LIMIT,
};
use crate::shard::{splitmix64, HashRing};
use crate::tenant::TenantGovernor;
use crate::wire::{
    self, Frame, FrameBuffer, RejectReason, SubmitRequest, WireError, PROTOCOL_VERSION,
};
use crossbeam::channel::Receiver;
use eugene_serve::{
    InferenceRequest, ModelRegistry, RegistryError, Reply, ReplySink, RequestId, RuntimeStats,
    ServiceClass,
};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller token for the listening socket.
const TOKEN_LISTENER: usize = 0;
/// Poller token for the wakeup pipe (runtime replies, ring edits,
/// shutdown).
const TOKEN_WAKER: usize = 1;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONN: usize = 2;

/// Unflushed outbound bytes at which a connection stops being read.
///
/// A constant, not a setting: it bounds the memory one non-reading
/// client can pin to about this much (plus the frames of the read burst
/// that crossed it), while a client that reads at all never meets it —
/// 1 MiB is about 25k `Final` frames queued on one connection.
const WRITE_BACKLOG_CAP: usize = 1 << 20;

/// How long a connection with unflushed answers may take no bytes before
/// shutdown gives up on it. Progress-based: a slow client that still
/// reads keeps getting its answers.
const WRITE_STALL: Duration = Duration::from_millis(500);

/// Routing attempts one submit may spend chasing the ring across kills
/// and drains before it is answered `ShardLost`.
const SUBMIT_REROUTE_LIMIT: usize = 4;

/// `retry_after_ms` hint carried by `ShardLost` rejects: a retry opens a
/// fresh attempt, which routes onto whatever the ring holds by then.
const LOST_RETRY_MS: u64 = 25;

/// One shard slot: what a gateway serves, plus the liveness that ring
/// edits flip. A [`Gateway`](crate::server::Gateway) is an engine with
/// exactly one slot.
pub(crate) struct Slot {
    pub(crate) registry: ModelRegistry,
    /// Admission reservations and the answers this slot produced.
    pub(crate) status: GatewayStatus,
    pub(crate) governor: TenantGovernor,
    /// Occupancy of the default model's current runtime; a revive
    /// replaces it.
    pub(crate) stats: Mutex<RuntimeStats>,
    pub(crate) alive: AtomicBool,
    /// Bumped by a kill: a route admitted under an older generation is
    /// stale and replays to its key's new owner.
    pub(crate) generation: AtomicU64,
}

impl Slot {
    /// A live slot serving `registry`, admitting with `config`'s tenant
    /// quotas and reserving on `status`.
    pub(crate) fn new(
        registry: ModelRegistry,
        config: &GatewayConfig,
        status: GatewayStatus,
    ) -> Self {
        let stats = registry
            .stats_of(&registry.default_model())
            .unwrap_or_default();
        Self {
            governor: TenantGovernor::new(
                config.tenant_quotas.clone(),
                config.default_tenant_quota.clone(),
            ),
            registry,
            status,
            stats: Mutex::new(stats),
            alive: AtomicBool::new(true),
            generation: AtomicU64::new(0),
        }
    }
}

/// The ring and the slots it routes to, edited together under one lock.
pub(crate) struct Membership {
    pub(crate) ring: HashRing,
    /// Append-only: indices are stable forever.
    pub(crate) slots: Vec<Arc<Slot>>,
}

/// State the event loop shares with the handle that owns it.
pub(crate) struct Shared {
    pub(crate) membership: RwLock<Membership>,
    /// Bumped with every ring edit, under the membership lock.
    pub(crate) epoch: AtomicU64,
    /// Admission template for every slot.
    pub(crate) config: GatewayConfig,
    /// The engine's own gauges: thread budget, accept health, connection
    /// churn, and `ShardLost` rejects. A gateway's one slot shares it.
    pub(crate) edge: GatewayStatus,
    pub(crate) failovers: AtomicU64,
    pub(crate) shard_lost: AtomicU64,
    stop: AtomicBool,
    waker: reactor::Waker,
}

impl Shared {
    /// Slot `index`, or `None` if no slot was ever created there.
    pub(crate) fn slot(&self, index: usize) -> Option<Arc<Slot>> {
        self.membership.read().slots.get(index).cloned()
    }

    /// Applies a ring edit under the membership write lock. When `edit`
    /// reports a change (`Some`), the epoch is bumped inside the same
    /// critical section and the loop is woken to replay stranded routes.
    pub(crate) fn edit<R>(&self, edit: impl FnOnce(&mut Membership) -> Option<R>) -> Option<R> {
        let changed = {
            let mut membership = self.membership.write();
            let changed = edit(&mut membership);
            if changed.is_some() {
                self.epoch.fetch_add(1, Ordering::AcqRel);
            }
            changed
        };
        if changed.is_some() {
            self.waker.wake();
        }
        changed
    }

    /// `key`'s ring owner: its slot and the generation it is at.
    fn owner(&self, key: u64) -> Option<(Arc<Slot>, u64)> {
        let membership = self.membership.read();
        let slot = &membership.slots[membership.ring.route(key)?];
        let generation = slot.generation.load(Ordering::Acquire);
        Some((Arc::clone(slot), generation))
    }
}

/// A running engine. Dropping it stops accepting, answers and flushes
/// every admitted request, joins the loop, then drains every slot's
/// registry.
pub(crate) struct Engine {
    pub(crate) shared: Arc<Shared>,
    pub(crate) local_addr: SocketAddr,
    event_loop: Option<JoinHandle<()>>,
}

impl Engine {
    /// Binds `addr` and starts the event loop over `slots`, routed by
    /// `ring`. Fails fast (before the thread exists) if the listener
    /// cannot bind or the poller cannot be set up.
    pub(crate) fn start(
        addr: &str,
        config: GatewayConfig,
        edge: GatewayStatus,
        ring: HashRing,
        slots: Vec<Slot>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking accept: the loop parks in its poller, never in
        // `accept`.
        listener.set_nonblocking(true)?;
        let waker = reactor::Waker::new()?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.register(waker.read_fd(), TOKEN_WAKER, Interest::READ)?;

        let shared = Arc::new(Shared {
            membership: RwLock::new(Membership {
                ring,
                slots: Vec::new(),
            }),
            epoch: AtomicU64::new(1),
            config,
            edge,
            failovers: AtomicU64::new(0),
            shard_lost: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            waker: waker.clone(),
        });
        shared
            .membership
            .write()
            .slots
            .extend(slots.into_iter().map(Arc::new));
        // Every reply of every runtime — stage and final — lands on one
        // channel, in the order it was sent, and kicks the wakeup pipe.
        let (reply_tx, replies) = crossbeam::channel::unbounded();
        let sink: ReplySink = {
            let waker = waker.clone();
            Arc::new(move |reply| {
                let _ = reply_tx.send(reply);
                waker.wake();
            })
        };

        shared.edge.note_thread_spawned();
        let mut reactor = Reactor {
            poller,
            listener,
            listener_alive: true,
            waker,
            swept_epoch: shared.epoch.load(Ordering::Acquire),
            shared: Arc::clone(&shared),
            conns: HashMap::new(),
            routes: HashMap::new(),
            sink,
            replies,
            next_token: TOKEN_FIRST_CONN,
            accept_backoff: ACCEPT_BACKOFF_BASE,
            accept_errors: 0,
            accept_retry_at: None,
            stopping: false,
        };
        let event_loop = std::thread::Builder::new()
            .name("eugene-gateway-reactor".to_owned())
            .spawn(move || reactor.run())?;
        Ok(Self {
            shared,
            local_addr,
            event_loop: Some(event_loop),
        })
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // The loop is parked in its poller, not on a timer: kick it so
        // shutdown begins immediately.
        self.shared.waker.wake();
        if let Some(handle) = self.event_loop.take() {
            let _ = handle.join();
        }
        // The loop is joined: nothing submits anymore, so draining the
        // registries (idempotent) is race-free.
        let slots = self.shared.membership.read().slots.clone();
        for slot in slots {
            slot.registry.shutdown();
        }
    }
}

/// One queued outbound frame; `lease` rides along on `Final` frames so
/// the admission reservation(s) are released exactly when the frame has
/// been written (or the connection died trying).
struct WriteEntry {
    bytes: Vec<u8>,
    /// Drop guard only — released when the entry is popped (flushed) or
    /// the connection is torn down.
    _lease: Option<Lease>,
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    buffer: FrameBuffer,
    /// Routing key for submits that carry none: all keyless requests of
    /// one connection stick to one slot.
    key: u64,
    /// Hello/HelloAck completed; Submits before it close the connection.
    handshaken: bool,
    /// False once the client sent `Shutdown`, closed its write side, or
    /// corrupted the stream: no more reads, drain in-flight, then close.
    reading: bool,
    write: VecDeque<WriteEntry>,
    /// Bytes of `write.front()` already flushed to the socket.
    write_pos: usize,
    /// Bytes queued in `write` and not yet flushed.
    queued_bytes: usize,
    /// When the socket last took bytes, or the queue last went from
    /// empty to non-empty: the clock of [`WRITE_STALL`].
    last_progress: Instant,
    /// Requests admitted on this connection whose `Final` has not yet
    /// been queued.
    in_flight: usize,
    /// The interest the poller currently holds for this socket; `None`
    /// when deregistered (quiescent half-closed connections must leave
    /// the poller or level-triggered hangup events would spin the loop).
    registered: Option<Interest>,
}

impl Conn {
    fn new(stream: TcpStream, key: u64) -> Self {
        Self {
            stream,
            buffer: FrameBuffer::new(),
            key,
            handshaken: false,
            reading: true,
            write: VecDeque::new(),
            write_pos: 0,
            queued_bytes: 0,
            last_progress: Instant::now(),
            in_flight: 0,
            registered: None,
        }
    }

    /// Whether the loop should pull more frames from this connection:
    /// it is still reading and its write backlog is under the cap.
    fn wants_read(&self) -> bool {
        self.reading && self.queued_bytes < WRITE_BACKLOG_CAP
    }

    /// The interest this connection currently needs from the poller.
    fn wanted_interest(&self) -> Interest {
        Interest {
            readable: self.wants_read(),
            writable: !self.write.is_empty(),
        }
    }

    /// Done: nothing left to read, write, or wait for.
    fn drained(&self) -> bool {
        !self.reading && self.in_flight == 0 && self.write.is_empty()
    }
}

/// An admitted request: where its answer frames go, and where it runs.
struct Route {
    token: usize,
    lease: Lease,
    slot: Arc<Slot>,
    /// The slot's generation at admission.
    generation: u64,
    key: u64,
    /// Routing attempts spent so far (bounded by
    /// [`SUBMIT_REROUTE_LIMIT`]).
    attempts: usize,
    /// The submit as received (its `client_tag` addresses every answer
    /// frame), kept so a kill can replay it to the key's new owner.
    submit: SubmitRequest,
}

impl Route {
    /// A kill bumped the slot's generation since admission.
    fn is_stale(&self) -> bool {
        self.slot.generation.load(Ordering::Acquire) != self.generation
    }
}

struct Reactor {
    poller: Poller,
    listener: TcpListener,
    listener_alive: bool,
    waker: reactor::Waker,
    shared: Arc<Shared>,
    /// The ring epoch stale routes were last replayed at.
    swept_epoch: u64,
    conns: HashMap<usize, Conn>,
    routes: HashMap<RequestId, Route>,
    /// Handed to every submit; feeds `replies`.
    sink: ReplySink,
    replies: Receiver<Reply>,
    next_token: usize,
    accept_backoff: Duration,
    accept_errors: u32,
    /// Set while a transient accept error has the listener benched; the
    /// loop's wait timeout shrinks to the remaining backoff instead of
    /// the thread sleeping.
    accept_retry_at: Option<Instant>,
    stopping: bool,
}

impl Reactor {
    fn run(&mut self) {
        let mut events: Vec<reactor::Event> = Vec::new();
        let mut dirty: Vec<usize> = Vec::new();
        loop {
            if self.shared.stop.load(Ordering::Relaxed) && !self.stopping {
                self.begin_shutdown();
            }
            if self.stopping {
                self.close_stalled();
                if self.drained() {
                    self.close_everything();
                    return;
                }
            }

            let timeout = self.wait_timeout();
            if self.poller.wait(&mut events, timeout).is_err() {
                // A broken poller is terminal: flush nothing more, fold
                // the engine rather than spin.
                self.shared.edge.note_accept_failed();
                self.close_everything();
                return;
            }

            dirty.clear();
            for &event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_burst(&mut dirty),
                    TOKEN_WAKER => self.waker.drain(),
                    token => self.handle_conn_event(token, event, &mut dirty),
                }
            }
            // A benched listener re-arms by deadline, not by event.
            if self.accept_retry_at.is_some_and(|at| Instant::now() >= at) {
                self.accept_retry_at = None;
                self.accept_burst(&mut dirty);
            }

            self.replay_stale(&mut dirty);
            self.drain_replies(&mut dirty);
            self.settle(&mut dirty);
        }
    }

    /// The poller wait deadline: indefinite when fully event-driven,
    /// bounded only while a shutdown drain or an accept backoff is
    /// pending.
    fn wait_timeout(&self) -> Option<Duration> {
        if self.stopping {
            return Some(Duration::from_millis(50));
        }
        let at = self.accept_retry_at?;
        Some(
            at.saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1)),
        )
    }

    fn begin_shutdown(&mut self) {
        self.stopping = true;
        if self.listener_alive {
            let _ = self.poller.deregister(self.listener.as_raw_fd());
            self.listener_alive = false;
        }
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.reading = false;
            }
            self.update_interest(token);
        }
    }

    /// Shutdown is complete once every admitted request has been
    /// answered and every answer flushed.
    fn drained(&self) -> bool {
        self.routes.is_empty() && self.conns.values().all(|c| c.write.is_empty())
    }

    /// Shutdown's way past a client that stopped reading: once every
    /// admitted request is answered, a connection whose socket has taken
    /// no bytes for [`WRITE_STALL`] will not drain, so it is closed.
    fn close_stalled(&mut self) {
        if !self.routes.is_empty() {
            return;
        }
        let stalled: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.write.is_empty() && c.last_progress.elapsed() >= WRITE_STALL)
            .map(|(&token, _)| token)
            .collect();
        for token in stalled {
            self.close_conn(token);
        }
    }

    fn close_everything(&mut self) {
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }

    fn accept_burst(&mut self, dirty: &mut Vec<usize>) {
        if !self.listener_alive || self.accept_retry_at.is_some() || self.stopping {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.accept_errors = 0;
                    self.accept_backoff = ACCEPT_BACKOFF_BASE;
                    if stream.set_nonblocking(true).is_err() {
                        continue; // stillborn socket; drop it
                    }
                    stream.set_nodelay(true).ok();
                    let token = self.next_token;
                    self.next_token += 1;
                    self.shared.edge.note_connection_opened();
                    let key = splitmix64(0xC0_22_EC_71 ^ token as u64);
                    self.conns.insert(token, Conn::new(stream, key));
                    self.update_interest(token);
                    dirty.push(token);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.accept_errors = 0;
                    self.accept_backoff = ACCEPT_BACKOFF_BASE;
                    return;
                }
                Err(e) => {
                    self.accept_errors += 1;
                    if !is_transient_accept_error(&e) || self.accept_errors > ACCEPT_RETRY_LIMIT {
                        self.shared.edge.note_accept_failed();
                        let _ = self.poller.deregister(self.listener.as_raw_fd());
                        self.listener_alive = false;
                        return;
                    }
                    // Bench the listener for one backoff period; the
                    // loop keeps serving established connections
                    // meanwhile.
                    self.shared.edge.note_accept_retry();
                    self.accept_retry_at = Some(Instant::now() + self.accept_backoff);
                    self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_CAP);
                    return;
                }
            }
        }
    }

    fn handle_conn_event(&mut self, token: usize, event: reactor::Event, dirty: &mut Vec<usize>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // already closed this round
        };
        if (event.readable || event.hangup) && conn.wants_read() {
            self.drive_read(token);
        } else if event.hangup {
            // Half-closed connection with nothing left to read: the peer
            // is gone (or reset). If a flush attempt cannot finish now,
            // it never will — drop the connection.
            if self.drive_write(token).map_or(true, |flushed| !flushed) {
                self.close_conn(token);
                return;
            }
        }
        if event.writable && self.conns.contains_key(&token) && self.drive_write(token).is_err() {
            self.close_conn(token);
            return;
        }
        dirty.push(token);
    }

    /// Reads and handles every complete frame currently available, until
    /// the write backlog reaches its cap.
    fn drive_read(&mut self, token: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !conn.wants_read() {
                return;
            }
            match conn.buffer.poll(&mut conn.stream) {
                Ok(Some(frame)) => self.handle_frame(token, frame),
                Ok(None) => return, // would block: all caught up
                Err(WireError::Truncated) => {
                    // Peer closed its write side: stop reading, keep the
                    // connection until in-flight answers have flushed.
                    conn.reading = false;
                    return;
                }
                Err(_) => {
                    // Corrupt stream: no resynchronization possible.
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    fn handle_frame(&mut self, token: usize, frame: Frame) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.handshaken {
            match frame {
                Frame::Hello { max_version } if max_version >= 1 => {
                    conn.handshaken = true;
                    let ack = Frame::HelloAck {
                        version: PROTOCOL_VERSION.min(max_version),
                    };
                    self.queue_frame(token, &ack, None);
                }
                _ => self.close_conn(token),
            }
            return;
        }
        match frame {
            Frame::Submit(submit) => {
                let key = submit.routing_key.unwrap_or(conn.key);
                self.dispatch(token, submit, key, 0);
            }
            Frame::Ping { nonce } => self.queue_frame(token, &Frame::Pong { nonce }, None),
            Frame::Shutdown => {
                conn.reading = false;
            }
            // Clients have no business sending server->client frames or
            // a second Hello; ignore rather than kill in-flight work.
            _ => {}
        }
    }

    /// The routing step: steers `submit` through the ring to `key`'s
    /// owner slot, admits it there and hands it to the slot's registry.
    /// A registry that a kill or removal drained between the ring read
    /// and the submit is a reroute, not a reject. `attempts` is what the
    /// request has already spent; once the ring is empty or the attempts
    /// run out, the answer is `ShardLost`.
    fn dispatch(&mut self, token: usize, submit: SubmitRequest, key: u64, mut attempts: usize) {
        loop {
            let client_tag = submit.client_tag;
            let owner = if attempts < SUBMIT_REROUTE_LIMIT {
                self.shared.owner(key)
            } else {
                None
            };
            let Some((slot, generation)) = owner else {
                self.answer_shard_lost(token, client_tag);
                return;
            };
            attempts += 1;
            // A zero budget can never be met (and ServiceClass rejects
            // it): answer expired immediately rather than erroring the
            // connection.
            if submit.budget_ms == 0 {
                let frame = Frame::Final {
                    client_tag,
                    response: wire::WireResponse {
                        predicted: None,
                        confidence: None,
                        stages_executed: 0,
                        expired: true,
                        latency_us: 0,
                        degraded: false,
                    },
                };
                self.answer(token, &frame, &slot.status, None);
                return;
            }
            let lease = match admit_submit(
                &self.shared.config,
                &slot.status,
                &slot.governor,
                &submit.class,
                submit.tenant.as_deref(),
            ) {
                Ok(lease) => lease,
                Err((retry_after_ms, reason)) => {
                    let frame = Frame::Reject {
                        client_tag,
                        retry_after_ms,
                        reason,
                    };
                    self.answer(token, &frame, &slot.status, None);
                    return;
                }
            };
            // Re-anchor the client's remaining budget on the server
            // clock: the runtime enforces the deadline as `now + budget`,
            // so client and server clocks never need to agree.
            let service_class =
                ServiceClass::new(&submit.class, Duration::from_millis(submit.budget_ms));
            let request = InferenceRequest::new(submit.payload.clone(), service_class);
            match slot.registry.submit_to(
                submit.model.as_deref(),
                request,
                submit.want_progress,
                Arc::clone(&self.sink),
            ) {
                Ok((id, _model)) => {
                    // Single-threaded: the route is registered before the
                    // loop can observe the completion, so responses can
                    // never orphan here.
                    self.routes.insert(
                        id,
                        Route {
                            token,
                            lease,
                            slot,
                            generation,
                            key,
                            attempts,
                            submit,
                        },
                    );
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.in_flight += 1;
                    }
                    return;
                }
                Err(RegistryError::UnknownModel(_))
                    if !slot.alive.load(Ordering::Acquire)
                        || slot.generation.load(Ordering::Acquire) != generation =>
                {
                    // Route again: the ring no longer names this slot.
                    drop(lease);
                }
                Err(RegistryError::UnknownModel(_)) => {
                    let frame = Frame::Reject {
                        client_tag,
                        retry_after_ms: 0,
                        reason: RejectReason::UnknownModel,
                    };
                    self.answer(token, &frame, &slot.status, None);
                    return;
                }
            }
        }
    }

    /// Answers `client_tag` with `ShardLost`: no slot can take it.
    fn answer_shard_lost(&mut self, token: usize, client_tag: u64) {
        self.shared.shard_lost.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(&self.shared);
        let frame = Frame::Reject {
            client_tag,
            retry_after_ms: LOST_RETRY_MS,
            reason: RejectReason::ShardLost,
        };
        self.answer(token, &frame, &shared.edge, None);
    }

    /// Replays every route a kill stranded, once per ring epoch: each
    /// leaves the map (so a late answer from the killed runtime finds
    /// nothing to answer) and routes again to its key's new owner.
    fn replay_stale(&mut self, dirty: &mut Vec<usize>) {
        let epoch = self.shared.epoch.load(Ordering::Acquire);
        if epoch == self.swept_epoch {
            return;
        }
        self.swept_epoch = epoch;
        let stale: Vec<RequestId> = self
            .routes
            .iter()
            .filter(|(_, route)| route.is_stale())
            .map(|(&id, _)| id)
            .collect();
        for id in stale {
            let Some(route) = self.routes.remove(&id) else {
                continue;
            };
            // The dead slot's reservation goes; the replay reserves on
            // the slot it lands on.
            drop(route.lease);
            let Some(conn) = self.conns.get_mut(&route.token) else {
                continue; // connection gone: nobody to answer
            };
            conn.in_flight = conn.in_flight.saturating_sub(1);
            self.shared.failovers.fetch_add(1, Ordering::Relaxed);
            self.dispatch(route.token, route.submit, route.key, route.attempts);
            dirty.push(route.token);
        }
    }

    /// Forwards every reply the runtimes have sent, in the order they
    /// sent them: a stage becomes a `StageUpdate`, a final answer the
    /// route's `Final`. A runtime sends a request's stage replies before
    /// its final one, so the per-tag "all `StageUpdate`s, then the
    /// `Final`" wire contract holds by channel order. Replies for a stale
    /// route are dropped (its replay answers instead), as are replies for
    /// a route already answered or whose connection died.
    fn drain_replies(&mut self, dirty: &mut Vec<usize>) {
        while let Ok(reply) = self.replies.try_recv() {
            match reply {
                Reply::Stage(event) => {
                    let live = self.routes.get(&event.request_id).filter(|r| !r.is_stale());
                    let Some(route) = live else {
                        continue;
                    };
                    let frame = Frame::StageUpdate {
                        client_tag: route.submit.client_tag,
                        stage: event.stage as u32,
                        confidence: event.confidence,
                        predicted: event.predicted as u64,
                    };
                    let token = route.token;
                    self.queue_frame(token, &frame, None);
                    dirty.push(token);
                }
                Reply::Final(response) => {
                    if self.routes.get(&response.id).is_none_or(Route::is_stale) {
                        continue;
                    }
                    let Some(route) = self.routes.remove(&response.id) else {
                        continue;
                    };
                    if let Some(conn) = self.conns.get_mut(&route.token) {
                        conn.in_flight = conn.in_flight.saturating_sub(1);
                        let frame = final_frame(route.submit.client_tag, response);
                        self.answer(route.token, &frame, &route.slot.status, Some(route.lease));
                        dirty.push(route.token);
                    }
                    // Connection gone: dropping the lease releases the
                    // admission reservation(s) here instead.
                }
            }
        }
    }

    /// Queues a terminal answer (`Final` or `Reject`), counted on
    /// `status` — the single point where answers are counted, so each
    /// request counts exactly once.
    fn answer(
        &mut self,
        token: usize,
        frame: &Frame,
        status: &GatewayStatus,
        lease: Option<Lease>,
    ) {
        if !self.conns.contains_key(&token) {
            return;
        }
        match frame {
            Frame::Final { .. } => status.note_final_sent(),
            Frame::Reject { .. } => status.note_reject_sent(),
            _ => {}
        }
        self.queue_frame(token, frame, lease);
    }

    /// Encodes `frame` onto `token`'s write queue and flushes
    /// opportunistically (most frames go out without a poller round).
    fn queue_frame(&mut self, token: usize, frame: &Frame, lease: Option<Lease>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let bytes = wire::encode_frame(frame);
        if conn.write.is_empty() {
            conn.last_progress = Instant::now();
        }
        conn.queued_bytes += bytes.len();
        conn.write.push_back(WriteEntry {
            bytes,
            _lease: lease,
        });
        if self.drive_write(token).is_err() {
            self.close_conn(token);
        }
    }

    /// Writes as much queued data as the socket accepts. Returns
    /// `Ok(true)` when the queue is fully flushed, `Ok(false)` on
    /// backpressure (write interest stays armed), `Err` when the peer is
    /// gone.
    fn drive_write(&mut self, token: usize) -> io::Result<bool> {
        let Some(conn) = self.conns.get_mut(&token) else {
            return Ok(true);
        };
        while let Some(entry) = conn.write.front() {
            match conn.stream.write(&entry.bytes[conn.write_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    conn.write_pos += n;
                    conn.queued_bytes -= n;
                    conn.last_progress = Instant::now();
                    if conn.write_pos == entry.bytes.len() {
                        conn.write.pop_front(); // drops the lease, if any
                        conn.write_pos = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Reconciles poller interest with a connection's current needs,
    /// resumes reading on connections whose backlog drained under the
    /// cap, and closes connections that have fully drained. Deduplicates
    /// `dirty` in place (a token may be touched several times per round).
    fn settle(&mut self, dirty: &mut Vec<usize>) {
        dirty.sort_unstable();
        dirty.dedup();
        for &token in dirty.iter() {
            // Wanting to read while the poller holds no read interest
            // means the cap throttled this connection and has just let
            // go. Read now rather than on the next readable event: the
            // frames left in its `FrameBuffer` may be all the client will
            // ever send.
            if self
                .conns
                .get(&token)
                .is_some_and(|c| c.wants_read() && c.registered.is_some_and(|have| !have.readable))
            {
                self.drive_read(token);
            }
            if self.conns.get(&token).is_some_and(|c| c.drained()) {
                self.close_conn(token);
            } else {
                self.update_interest(token);
            }
        }
    }

    /// Registers, reregisters, or deregisters `token`'s socket so the
    /// poller's interest matches [`Conn::wanted_interest`]. A connection
    /// wanting nothing (half-closed, waiting on a runtime) leaves the
    /// poller entirely: with level-triggered polling a dead-read socket
    /// would otherwise report hangup forever and spin the loop.
    fn update_interest(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = conn.wanted_interest();
        let fd = conn.stream.as_raw_fd();
        let have = conn.registered;
        if have == Some(want) {
            return;
        }
        if !want.readable && !want.writable {
            if have.is_some() {
                let _ = self.poller.deregister(fd);
                conn.registered = None;
            }
            return;
        }
        let armed = if have.is_some() {
            self.poller.reregister(fd, token, want).is_ok()
        } else {
            self.poller.register(fd, token, want).is_ok()
        };
        if armed {
            conn.registered = Some(want);
        } else if have.is_none() {
            // A socket the poller never knew about cannot make progress.
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            if conn.registered.is_some() {
                let _ = self.poller.deregister(conn.stream.as_raw_fd());
            }
            self.shared.edge.note_connection_closed();
            // `conn.write` drops here, releasing any admission slots
            // still attached to unflushed `Final` frames.
        }
    }
}
