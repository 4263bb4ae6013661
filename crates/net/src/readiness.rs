//! The gateway's connection engine: one event loop, every socket.
//!
//! A [`Gateway`](crate::server::Gateway) serves all connections from a
//! single thread parked in a [`Poller`](crate::reactor::Poller) (epoll on
//! Linux, `poll(2)` elsewhere). Sockets are non-blocking: the loop
//! accepts, handshakes, reassembles frames through a [`FrameBuffer`],
//! admits submits through [`admit_submit`], and demultiplexes the
//! runtime's shared response and progress funnels back into
//! per-connection write queues. Write interest is armed only while a
//! queue is non-empty, so ten thousand idle connections cost zero
//! wakeups.
//!
//! The registry's completion waker
//! ([`ModelRegistry::set_completion_waker`]) nudges the loop's wakeup
//! pipe whenever any model's runtime finishes a response or emits stage
//! progress, so forwarding latency is event-driven end to end — no
//! polling tick anywhere.
//!
//! Backpressure runs both ways. Outbound, a queue that the socket will
//! not take waits for write readiness. Inbound, a connection whose
//! unflushed answers reach [`WRITE_BACKLOG_CAP`] bytes stops being read
//! until its client drains them: a client that pipelines frames and
//! never reads stalls in its own `send` instead of growing the server's
//! memory without bound. Answers to requests already admitted are always
//! queued — the cap only delays reading new frames.

use crate::reactor::{self, Interest, Poller};
use crate::server::{
    admit_submit, final_frame, is_transient_accept_error, GatewayConfig, GatewayStatus, Lease,
    ACCEPT_BACKOFF_BASE, ACCEPT_BACKOFF_CAP, ACCEPT_RETRY_LIMIT,
};
use crate::tenant::TenantGovernor;
use crate::wire::{self, Frame, FrameBuffer, SubmitRequest, WireError, PROTOCOL_VERSION};
use crossbeam::channel::{Receiver, Sender};
use eugene_serve::{
    InferenceRequest, InferenceResponse, ModelRegistry, RequestId, ServiceClass, StageProgress,
};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poller token for the listening socket.
const TOKEN_LISTENER: usize = 0;
/// Poller token for the wakeup pipe (runtime completions + shutdown).
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
    /// Requests admitted on this connection whose `Final` has not yet
    /// been queued.
    in_flight: usize,
    /// The interest the poller currently holds for this socket; `None`
    /// when deregistered (quiescent half-closed connections must leave
    /// the poller or level-triggered hangup events would spin the loop).
    registered: Option<Interest>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buffer: FrameBuffer::new(),
            handshaken: false,
            reading: true,
            write: VecDeque::new(),
            write_pos: 0,
            queued_bytes: 0,
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

/// Where an in-flight request's answer frames must be routed.
struct Route {
    token: usize,
    tag: u64,
    lease: Lease,
}

/// Starts the event loop; returns its join handle. Fails fast (before
/// the thread exists) if the poller cannot be created or the listener
/// and wakeup pipe cannot be registered.
pub(crate) fn spawn(
    listener: TcpListener,
    registry: ModelRegistry,
    governor: TenantGovernor,
    config: Arc<GatewayConfig>,
    stop: Arc<AtomicBool>,
    status: GatewayStatus,
    waker: reactor::Waker,
) -> io::Result<JoinHandle<()>> {
    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    poller.register(waker.read_fd(), TOKEN_WAKER, Interest::READ)?;

    // Everything any model's runtime finishes — responses and stage
    // progress — lands in these funnels and kicks the wakeup pipe, so
    // the loop never needs a forwarding-latency poll tick. The registry
    // re-applies the waker to models loaded later, so model churn never
    // drops the nudge.
    let (respond_tx, respond_rx) = crossbeam::channel::unbounded();
    let (progress_tx, progress_rx) = crossbeam::channel::unbounded();
    {
        let waker = waker.clone();
        registry.set_completion_waker(Arc::new(move || waker.wake()));
    }

    status.note_thread_spawned();
    let mut reactor = Reactor {
        poller,
        listener,
        listener_alive: true,
        waker,
        registry,
        governor,
        config,
        stop,
        status,
        conns: HashMap::new(),
        routes: HashMap::new(),
        respond_tx,
        respond_rx,
        progress_tx,
        progress_rx,
        next_token: TOKEN_FIRST_CONN,
        accept_backoff: ACCEPT_BACKOFF_BASE,
        accept_errors: 0,
        accept_retry_at: None,
        stopping: false,
    };
    std::thread::Builder::new()
        .name("eugene-gateway-reactor".to_owned())
        .spawn(move || reactor.run())
}

struct Reactor {
    poller: Poller,
    listener: TcpListener,
    listener_alive: bool,
    waker: reactor::Waker,
    registry: ModelRegistry,
    governor: TenantGovernor,
    config: Arc<GatewayConfig>,
    stop: Arc<AtomicBool>,
    status: GatewayStatus,
    conns: HashMap<usize, Conn>,
    routes: HashMap<RequestId, Route>,
    respond_tx: Sender<InferenceResponse>,
    respond_rx: Receiver<InferenceResponse>,
    progress_tx: Sender<StageProgress>,
    progress_rx: Receiver<StageProgress>,
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
            if self.stop.load(Ordering::Relaxed) && !self.stopping {
                self.begin_shutdown();
            }
            if self.stopping && self.drained() {
                self.close_everything();
                return;
            }

            let timeout = self.wait_timeout();
            if self.poller.wait(&mut events, timeout).is_err() {
                // A broken poller is terminal: flush nothing more, fold
                // the gateway rather than spin.
                self.status.note_accept_failed();
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
            if let Some(at) = self.accept_retry_at {
                if Instant::now() >= at {
                    self.accept_retry_at = None;
                    self.accept_burst(&mut dirty);
                }
            }

            self.drain_funnels(&mut dirty);
            self.settle(&mut dirty);
        }
    }

    /// The poller wait deadline: indefinite when fully event-driven,
    /// bounded only while an accept backoff or shutdown drain is pending.
    fn wait_timeout(&self) -> Option<Duration> {
        if self.stopping {
            return Some(Duration::from_millis(50));
        }
        self.accept_retry_at.map(|at| {
            at.saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1))
        })
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
                    self.status.note_connection_opened();
                    self.conns.insert(token, Conn::new(stream));
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
                        self.status.note_accept_failed();
                        let _ = self.poller.deregister(self.listener.as_raw_fd());
                        self.listener_alive = false;
                        return;
                    }
                    // Bench the listener for one backoff period; the
                    // loop keeps serving established connections
                    // meanwhile.
                    self.status.note_accept_retry();
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
            Frame::Submit(submit) => self.handle_submit(token, submit),
            Frame::Ping { nonce } => self.queue_frame(token, &Frame::Pong { nonce }, None),
            Frame::Shutdown => {
                conn.reading = false;
            }
            // Clients have no business sending server->client frames or
            // a second Hello; ignore rather than kill in-flight work.
            _ => {}
        }
    }

    fn handle_submit(&mut self, token: usize, submit: SubmitRequest) {
        let SubmitRequest {
            client_tag,
            class,
            budget_ms,
            want_progress,
            payload,
            // Steering happens in the sharded front tier; a gateway shard
            // serves whatever lands on it.
            routing_key: _,
            model,
            tenant,
            // Ring-epoch stamp is observability for the router tier; a
            // gateway ignores it.
            epoch: _,
        } = submit;
        // A zero budget can never be met (and ServiceClass rejects it):
        // answer expired immediately rather than erroring the connection.
        if budget_ms == 0 {
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
            self.queue_frame(token, &frame, None);
            return;
        }
        let lease = match admit_submit(
            &self.config,
            &self.status,
            &self.governor,
            &class,
            tenant.as_deref(),
        ) {
            Ok(lease) => lease,
            Err((retry_after_ms, reason)) => {
                let frame = Frame::Reject {
                    client_tag,
                    retry_after_ms,
                    reason,
                };
                self.queue_frame(token, &frame, None);
                return;
            }
        };
        // Re-anchor the client's remaining budget on the server clock:
        // the runtime enforces the deadline as `now + budget`, so client and
        // server clocks never need to agree.
        let service_class = ServiceClass::new(&class, Duration::from_millis(budget_ms));
        let request = InferenceRequest::new(payload, service_class);
        let respond_tx = self.respond_tx.clone();
        let progress = want_progress.then(|| self.progress_tx.clone());
        let id = match self
            .registry
            .submit_to(model.as_deref(), request, respond_tx, progress)
        {
            Ok((id, _model)) => id,
            Err(eugene_serve::RegistryError::UnknownModel(_)) => {
                let frame = Frame::Reject {
                    client_tag,
                    retry_after_ms: 0,
                    reason: wire::RejectReason::UnknownModel,
                };
                self.queue_frame(token, &frame, None);
                return;
            }
        };
        // Single-threaded: the route is registered before the loop can
        // observe the completion, so responses can never orphan here.
        self.routes.insert(
            id,
            Route {
                token,
                tag: client_tag,
                lease,
            },
        );
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.in_flight += 1;
        }
    }

    /// Forwards everything the runtime has finished, preserving the
    /// per-tag "all `StageUpdate`s, then the `Final`" wire contract: the
    /// runtime enqueues a request's progress strictly before its
    /// response, so sweeping the progress funnel dry before forwarding
    /// each response guarantees that response's updates are already
    /// queued ahead of its `Final`.
    fn drain_funnels(&mut self, dirty: &mut Vec<usize>) {
        loop {
            while let Ok(event) = self.progress_rx.try_recv() {
                let Some(route) = self.routes.get(&event.request_id) else {
                    continue; // connection died; drop the update
                };
                let frame = Frame::StageUpdate {
                    client_tag: route.tag,
                    stage: event.stage as u32,
                    confidence: event.confidence,
                    predicted: event.predicted as u64,
                };
                let token = route.token;
                self.queue_frame(token, &frame, None);
                dirty.push(token);
            }
            let Ok(response) = self.respond_rx.try_recv() else {
                return;
            };
            let Some(Route { token, tag, lease }) = self.routes.remove(&response.id) else {
                continue; // connection died before the answer; drop it
            };
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.in_flight = conn.in_flight.saturating_sub(1);
                let frame = final_frame(tag, response);
                self.queue_frame(token, &frame, Some(lease));
                dirty.push(token);
            }
            // Connection gone: dropping `lease` releases the admission
            // reservation(s) here instead.
        }
    }

    /// Encodes `frame` onto `token`'s write queue and flushes
    /// opportunistically (most frames go out without a poller round).
    fn queue_frame(&mut self, token: usize, frame: &Frame, lease: Option<Lease>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // Single choke point every outbound frame passes through, so
        // terminal answers are counted exactly once per request.
        match frame {
            Frame::Final { .. } => self.status.note_final_sent(),
            Frame::Reject { .. } => self.status.note_reject_sent(),
            _ => {}
        }
        let bytes = wire::encode_frame(frame);
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
                    if conn.write_pos == entry.bytes.len() {
                        conn.write.pop_front(); // drops the slot, if any
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
    /// wanting nothing (half-closed, waiting on the runtime) leaves the
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
            self.status.note_connection_closed();
            // `conn.write` drops here, releasing any admission slots
            // still attached to unflushed `Final` frames.
        }
    }
}
