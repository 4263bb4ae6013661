//! The blocking gateway client, with deadline-aware retry.
//!
//! [`MultiplexClient`] speaks the [`crate::wire`] protocol over one TCP
//! connection. Each submit gets a fresh `client_tag`, and a background
//! reader thread routes every `StageUpdate`/`Final`/`Reject` frame back to
//! the matching [`PendingInference`]. The API is `&self` throughout, so
//! many threads can share one client (and one socket); a caller that waits
//! for each answer before the next submit keeps one request in flight.
//!
//! Deadlines are per request: the deadline is anchored when the inference
//! starts, each submit carries only the *remaining* budget, retries back
//! off with capped exponential backoff plus seeded jitter, and no sleep
//! ever extends past the deadline. A request whose deadline passes is
//! abandoned, not the socket. Tags come from a wrapping client-lifetime
//! counter and are never reused while a request is pending; frames that
//! arrive for a tag no longer pending (an abandoned request, an old tag
//! echoed after reconnect) are counted as *stale* and discarded — in
//! particular a stale `Reject` never sets the backoff floor for the
//! current attempt.

use crate::wire::{
    self, Frame, FrameBuffer, RejectReason, SubmitRequest, WireError, PROTOCOL_VERSION,
};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown as SocketShutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connection and retry policy for [`MultiplexClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Maximum submit attempts per inference (first try included).
    pub max_attempts: u32,
    /// First retry backoff; doubles each attempt.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
    /// Seed for backoff jitter (deterministic per client).
    pub seed: u64,
    /// Ask the gateway to stream per-stage progress frames.
    pub want_progress: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(1),
            max_attempts: 4,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(250),
            seed: 0,
            want_progress: false,
        }
    }
}

/// One per-stage progress report streamed by the gateway.
#[derive(Debug, Clone, PartialEq)]
pub struct StageUpdate {
    pub stage: u32,
    pub confidence: f32,
    pub predicted: u64,
}

/// Per-request addressing carried on a submit beyond class and budget.
///
/// Everything here is optional and defaults to the pre-registry wire
/// shape: no routing key, no model (the gateway's default model or its
/// data-aware dispatcher decides), no tenant (the request is admitted on
/// the anonymous class-utility path rather than a tenant quota).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubmitOptions {
    /// Sharding affinity: a sharded front tier pins all submits carrying
    /// the same key to the same shard. A plain gateway ignores it.
    pub routing_key: Option<u64>,
    /// Registry model to serve this request with; `None` lets the
    /// gateway's dispatcher (or default model) pick.
    pub model: Option<String>,
    /// Tenant identity for per-tenant admission quotas.
    pub tenant: Option<String>,
    /// Server-side budget to put on the wire, decoupled from how long
    /// this client waits. `None` (the default) sends the remaining wait
    /// budget, so client patience and server deadline coincide. `Some`
    /// pins the server's deadline while the `budget` passed to the infer
    /// call bounds only the wait — the slack lets an answer the server
    /// produces *at* its deadline (e.g. an anytime-degraded result) still
    /// reach the caller instead of being abandoned mid-flight.
    pub wire_budget: Option<Duration>,
}

impl SubmitOptions {
    fn keyed(routing_key: Option<u64>) -> Self {
        Self {
            routing_key,
            ..Self::default()
        }
    }
}

/// A completed inference as observed by the client.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceOutcome {
    /// Predicted label from the deepest completed stage, if any ran.
    pub predicted: Option<u64>,
    /// Confidence of that prediction.
    pub confidence: Option<f32>,
    /// Stages the runtime executed.
    pub stages_executed: u32,
    /// Whether the server killed the request at its deadline.
    pub expired: bool,
    /// Whether the runtime force-exited the request at an earlier stage
    /// under overload (anytime degradation); the answer is usable.
    pub degraded: bool,
    /// Server-side latency.
    pub server_latency: Duration,
    /// End-to-end latency including queueing, retries, and the network.
    pub round_trip: Duration,
    /// Progress frames received (empty unless `want_progress`).
    pub stage_updates: Vec<StageUpdate>,
    /// Submit attempts spent (1 = first try succeeded).
    pub attempts: u32,
}

/// Why an inference did not produce an outcome.
#[derive(Debug)]
pub enum ClientError {
    /// The budget ran out before a final answer arrived (possibly while
    /// backing off between attempts).
    DeadlineExhausted,
    /// The server refused the request and retries were exhausted (or the
    /// mandated backoff would outlive the budget). `reason` says whether
    /// admission control shed it or the serving shard was lost mid-flight.
    Rejected {
        retry_after: Duration,
        reason: RejectReason,
    },
    /// Connection/protocol failure that retries could not absorb.
    Wire(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::DeadlineExhausted => write!(f, "deadline budget exhausted"),
            ClientError::Rejected {
                retry_after,
                reason,
            } => {
                write!(
                    f,
                    "rejected by gateway ({reason:?}, retry after {retry_after:?})"
                )
            }
            ClientError::Wire(e) => write!(f, "wire failure: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

/// Demuxed event delivered to one pending request's channel.
enum MuxEvent {
    Stage(StageUpdate),
    Final(wire::WireResponse),
    Reject {
        retry_after_ms: u64,
        reason: RejectReason,
    },
}

/// State shared between a mux connection's users and its reader thread.
///
/// The reader holds only this (never the [`MuxConn`] itself), so dropping
/// the last `MuxConn` reference can join the reader without a cycle.
struct MuxShared {
    /// In-flight tags → the channel their frames are routed to. `Final`
    /// and `Reject` remove the entry; `StageUpdate` does not.
    pending: Mutex<HashMap<u64, Sender<MuxEvent>>>,
    /// Outstanding ping nonces → wakeup channels.
    pings: Mutex<HashMap<u64, Sender<()>>>,
    /// Set by the reader on any wire failure (including the socket
    /// shutdown of a deliberate close): the connection is unusable and the
    /// next submit re-dials.
    dead: AtomicBool,
    /// Client-lifetime stale-frame counter (shared across reconnects).
    stale: Arc<AtomicU64>,
}

/// One live multiplexed connection: a locked write half (frame-atomic)
/// plus the reader thread demuxing the read half.
struct MuxConn {
    writer: Mutex<TcpStream>,
    shared: Arc<MuxShared>,
    reader: Mutex<Option<JoinHandle<()>>>,
}

impl Drop for MuxConn {
    fn drop(&mut self) {
        {
            let mut writer = self.writer.lock();
            // Courtesy close; the socket shutdown right after is what
            // wakes the reader from its blocking read.
            let _ = wire::write_frame(&mut *writer, &Frame::Shutdown);
            writer.shutdown(SocketShutdown::Both).ok();
        }
        if let Some(handle) = self.reader.lock().take() {
            let _ = handle.join();
        }
    }
}

fn mux_reader_loop(mut stream: TcpStream, mut buffer: FrameBuffer, shared: Arc<MuxShared>) {
    loop {
        let frame = match buffer.poll(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => continue,
            Err(_) => {
                shared.dead.store(true, Ordering::Relaxed);
                // Dropping the senders disconnects every waiter, which
                // observes `Disconnected` and classifies the attempt as a
                // retryable connection loss.
                shared.pending.lock().clear();
                shared.pings.lock().clear();
                return;
            }
        };
        match frame {
            Frame::StageUpdate {
                client_tag,
                stage,
                confidence,
                predicted,
            } => {
                let routed = shared.pending.lock().get(&client_tag).map(|tx| {
                    tx.send(MuxEvent::Stage(StageUpdate {
                        stage,
                        confidence,
                        predicted,
                    }))
                });
                if routed.is_none() {
                    shared.stale.fetch_add(1, Ordering::Relaxed);
                }
            }
            Frame::Final {
                client_tag,
                response,
            } => match shared.pending.lock().remove(&client_tag) {
                Some(tx) => {
                    let _ = tx.send(MuxEvent::Final(response));
                }
                None => {
                    shared.stale.fetch_add(1, Ordering::Relaxed);
                }
            },
            Frame::Reject {
                client_tag,
                retry_after_ms,
                reason,
            } => match shared.pending.lock().remove(&client_tag) {
                Some(tx) => {
                    let _ = tx.send(MuxEvent::Reject {
                        retry_after_ms,
                        reason,
                    });
                }
                // A stale Reject (old tag, post-reconnect echo) is counted
                // and dropped — its retry_after must not slow anyone down.
                None => {
                    shared.stale.fetch_add(1, Ordering::Relaxed);
                }
            },
            Frame::Pong { nonce } => {
                if let Some(tx) = shared.pings.lock().remove(&nonce) {
                    let _ = tx.send(());
                }
            }
            // Servers have no business sending client->server frames.
            _ => {}
        }
    }
}

/// A submitted inference whose `Final` has not been awaited yet.
///
/// Obtained from [`MultiplexClient::submit`]; any number may be
/// outstanding on the same connection at once. [`PendingInference::wait`]
/// blocks until the final answer, a rejection, the request's deadline, or
/// connection loss — whichever comes first. Dropping a pending inference
/// abandons it: a late `Final` is then counted as stale, not delivered.
pub struct PendingInference {
    conn: Arc<MuxConn>,
    tag: u64,
    rx: Receiver<MuxEvent>,
    deadline: Instant,
    submitted: Instant,
    stage_updates: Vec<StageUpdate>,
    done: bool,
}

impl PendingInference {
    /// The wire tag this request was submitted under.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Blocks until this request resolves (single attempt, no retry).
    ///
    /// For rejected requests use [`MultiplexClient::infer`] if you want
    /// the retry/backoff loop.
    pub fn wait(mut self) -> Result<InferenceOutcome, ClientError> {
        match self.wait_attempt() {
            Ok(mut outcome) => {
                outcome.attempts = 1;
                Ok(outcome)
            }
            Err(AttemptError::Fatal(e)) | Err(AttemptError::Retry { error: e, .. }) => Err(e),
        }
    }

    fn wait_attempt(&mut self) -> Result<InferenceOutcome, AttemptError> {
        loop {
            let remaining = self.deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                self.abandon();
                return Err(AttemptError::Fatal(ClientError::DeadlineExhausted));
            }
            match self.rx.recv_timeout(remaining) {
                Ok(MuxEvent::Stage(update)) => {
                    // A non-advancing stage number means the request was
                    // transparently replayed on another shard (failover)
                    // and its stage stream restarted: keep only the
                    // stream of the attempt that will produce the Final.
                    if let Some(last) = self.stage_updates.last() {
                        if update.stage <= last.stage {
                            self.stage_updates.clear();
                        }
                    }
                    self.stage_updates.push(update);
                }
                Ok(MuxEvent::Final(response)) => {
                    self.done = true;
                    return Ok(InferenceOutcome {
                        predicted: response.predicted,
                        confidence: response.confidence,
                        stages_executed: response.stages_executed,
                        expired: response.expired,
                        degraded: response.degraded,
                        server_latency: Duration::from_micros(response.latency_us),
                        round_trip: self.submitted.elapsed(),
                        stage_updates: std::mem::take(&mut self.stage_updates),
                        attempts: 0, // filled by the caller
                    });
                }
                Ok(MuxEvent::Reject {
                    retry_after_ms,
                    reason,
                }) => {
                    self.done = true;
                    let retry_after = Duration::from_millis(retry_after_ms);
                    return Err(AttemptError::Retry {
                        floor: retry_after,
                        error: ClientError::Rejected {
                            retry_after,
                            reason,
                        },
                    });
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    // The reader died and dropped our sender: connection
                    // lost mid-flight; retryable on a fresh connection.
                    self.done = true;
                    return Err(AttemptError::retry(ClientError::Wire(WireError::Truncated)));
                }
            }
        }
    }

    /// Deregisters the tag so late frames count as stale instead of
    /// leaking a dead channel in the routing table. The connection itself
    /// stays healthy — one timed-out request must not stall the pipeline.
    fn abandon(&mut self) {
        self.conn.shared.pending.lock().remove(&self.tag);
        self.done = true;
    }
}

impl Drop for PendingInference {
    fn drop(&mut self) {
        if !self.done {
            self.abandon();
        }
    }
}

/// Gateway client: any number of concurrent requests over one TCP
/// connection, demuxed by `client_tag`.
///
/// [`MultiplexClient::infer`] submits, waits and retries in one call;
/// [`MultiplexClient::submit`] returns at once so callers can pipeline.
/// Shareable across threads (`&self` API); submits interleave freely and
/// a background reader routes every response to the matching
/// [`PendingInference`]. Reconnects lazily after connection loss; tags
/// come from a wrapping client-lifetime counter, so tags are never reused
/// across a reconnect and stale frames from an old socket can never be
/// misdelivered.
///
/// ```no_run
/// use eugene_net::client::{ClientConfig, MultiplexClient};
/// use std::time::Duration;
///
/// let client = MultiplexClient::new("127.0.0.1:7878", ClientConfig::default())?;
/// // Pipeline a burst of submits, then harvest the answers.
/// let pending: Vec<_> = (0..64)
///     .map(|i| client.submit("interactive", &[i as f32], Duration::from_millis(250), false))
///     .collect::<Result<_, _>>()?;
/// for p in pending {
///     let outcome = p.wait()?;
///     println!("predicted {:?}", outcome.predicted);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct MultiplexClient {
    addr: SocketAddr,
    config: ClientConfig,
    conn: Mutex<Option<Arc<MuxConn>>>,
    next_tag: AtomicU64,
    next_nonce: AtomicU64,
    stale: Arc<AtomicU64>,
    rng: Mutex<rand::rngs::StdRng>,
}

impl MultiplexClient {
    /// Resolves `addr` and prepares a client; the connection is dialed
    /// lazily on first submit and re-dialed after failures.
    pub fn new(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        let rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        Ok(Self {
            addr,
            config,
            conn: Mutex::new(None),
            next_tag: AtomicU64::new(0),
            next_nonce: AtomicU64::new(0),
            stale: Arc::new(AtomicU64::new(0)),
            rng: Mutex::new(rng),
        })
    }

    /// Dials the gateway now instead of on first submit.
    pub fn connect(&self, timeout: Duration) -> Result<(), ClientError> {
        self.connection(Instant::now() + timeout).map(|_| ())
    }

    /// Whether a live (non-dead) connection is currently held.
    pub fn is_connected(&self) -> bool {
        self.conn
            .lock()
            .as_ref()
            .is_some_and(|c| !c.shared.dead.load(Ordering::Relaxed))
    }

    /// Frames received for tags no longer pending, accumulated over the
    /// client's lifetime (across reconnects). Stale frames are counted
    /// and dropped, never delivered.
    pub fn stale_frames(&self) -> u64 {
        self.stale.load(Ordering::Relaxed)
    }

    /// Allocates the next client tag from the wrapping counter. Tags stay
    /// unique as long as fewer than 2^64 requests are simultaneously in
    /// flight, and are never reused across reconnects (the counter is
    /// client-lifetime, not per-connection).
    fn alloc_tag(&self) -> u64 {
        // fetch_add wraps on overflow, which is exactly the semantics we
        // want at the u64::MAX boundary.
        self.next_tag.fetch_add(1, Ordering::Relaxed)
    }

    /// Submits one inference without waiting; the returned handle resolves
    /// it. Any number of submits may be pipelined before the first wait.
    pub fn submit(
        &self,
        class: &str,
        payload: &[f32],
        budget: Duration,
        want_progress: bool,
    ) -> Result<PendingInference, ClientError> {
        self.submit_with_deadline(
            class,
            payload,
            Instant::now() + budget,
            want_progress,
            &SubmitOptions::default(),
        )
    }

    /// [`MultiplexClient::submit`] with an explicit sharding routing key:
    /// a sharded front tier pins all submits carrying the same key to the
    /// same shard. A plain gateway ignores the key.
    pub fn submit_keyed(
        &self,
        class: &str,
        payload: &[f32],
        budget: Duration,
        want_progress: bool,
        routing_key: Option<u64>,
    ) -> Result<PendingInference, ClientError> {
        self.submit_with_deadline(
            class,
            payload,
            Instant::now() + budget,
            want_progress,
            &SubmitOptions::keyed(routing_key),
        )
    }

    /// [`MultiplexClient::submit`] with full per-request addressing:
    /// routing key, registry model, and tenant (see [`SubmitOptions`]).
    pub fn submit_with(
        &self,
        class: &str,
        payload: &[f32],
        budget: Duration,
        want_progress: bool,
        options: &SubmitOptions,
    ) -> Result<PendingInference, ClientError> {
        self.submit_with_deadline(
            class,
            payload,
            Instant::now() + budget,
            want_progress,
            options,
        )
    }

    fn submit_with_deadline(
        &self,
        class: &str,
        payload: &[f32],
        deadline: Instant,
        want_progress: bool,
        options: &SubmitOptions,
    ) -> Result<PendingInference, ClientError> {
        let conn = self.connection(deadline)?;
        self.submit_on(&conn, class, payload, deadline, want_progress, options)
    }

    /// Registers a fresh tag on `conn` and writes its submit.
    fn submit_on(
        &self,
        conn: &Arc<MuxConn>,
        class: &str,
        payload: &[f32],
        deadline: Instant,
        want_progress: bool,
        options: &SubmitOptions,
    ) -> Result<PendingInference, ClientError> {
        let tag = self.alloc_tag();
        let (tx, rx) = unbounded();
        {
            // The reader stores `dead` before it locks `pending` to clear
            // it, so under this lock either `dead` is visible or the clear
            // is still to come and will drop our sender. Without the check
            // a submit racing the reader's death would park a sender no
            // reader is left to drop, and wait out its whole budget.
            let mut pending = conn.shared.pending.lock();
            if conn.shared.dead.load(Ordering::Relaxed) {
                return Err(ClientError::Wire(WireError::Truncated));
            }
            pending.insert(tag, tx);
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        let frame = Frame::Submit(SubmitRequest {
            client_tag: tag,
            class: class.to_owned(),
            budget_ms: options.wire_budget.unwrap_or(remaining).as_millis().max(1) as u64,
            want_progress,
            payload: payload.to_vec(),
            routing_key: options.routing_key,
            model: options.model.clone(),
            tenant: options.tenant.clone(),
            epoch: None,
        });
        if let Err(e) = wire::write_frame(&mut *conn.writer.lock(), &frame) {
            conn.shared.pending.lock().remove(&tag);
            conn.shared.dead.store(true, Ordering::Relaxed);
            return Err(e.into());
        }
        Ok(PendingInference {
            conn: Arc::clone(conn),
            tag,
            rx,
            deadline,
            submitted: Instant::now(),
            stage_updates: Vec::new(),
            done: false,
        })
    }

    /// Runs one inference with an end-to-end deadline `budget`, retrying
    /// rejections and connection loss with capped, jittered backoff that
    /// never sleeps past the deadline. Concurrent callers share the
    /// pipelined connection and never serialize behind each other.
    pub fn infer(
        &self,
        class: &str,
        payload: &[f32],
        budget: Duration,
    ) -> Result<InferenceOutcome, ClientError> {
        self.infer_keyed(class, payload, budget, None)
    }

    /// [`MultiplexClient::infer`] with an explicit sharding routing key.
    pub fn infer_keyed(
        &self,
        class: &str,
        payload: &[f32],
        budget: Duration,
        routing_key: Option<u64>,
    ) -> Result<InferenceOutcome, ClientError> {
        self.infer_with(class, payload, budget, &SubmitOptions::keyed(routing_key))
    }

    /// [`MultiplexClient::infer`] with full per-request addressing:
    /// routing key, registry model, and tenant (see [`SubmitOptions`]).
    pub fn infer_with(
        &self,
        class: &str,
        payload: &[f32],
        budget: Duration,
        options: &SubmitOptions,
    ) -> Result<InferenceOutcome, ClientError> {
        let started = Instant::now();
        let deadline = started + budget;
        let mut attempts = 0u32;
        let mut last_error = ClientError::DeadlineExhausted;
        while attempts < self.config.max_attempts {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ClientError::DeadlineExhausted);
            }
            attempts += 1;
            match self.attempt(class, payload, deadline, options) {
                Ok(mut outcome) => {
                    outcome.round_trip = started.elapsed();
                    outcome.attempts = attempts;
                    return Ok(outcome);
                }
                Err(AttemptError::Fatal(e)) => return Err(e),
                Err(AttemptError::Retry { floor, error }) => {
                    last_error = error;
                    let backoff = self.backoff(attempts).max(floor);
                    if Instant::now() + backoff >= deadline || attempts >= self.config.max_attempts
                    {
                        return Err(last_error);
                    }
                    std::thread::sleep(backoff);
                }
            }
        }
        Err(last_error)
    }

    fn attempt(
        &self,
        class: &str,
        payload: &[f32],
        deadline: Instant,
        options: &SubmitOptions,
    ) -> Result<InferenceOutcome, AttemptError> {
        let mut pending = match self.submit_with_deadline(
            class,
            payload,
            deadline,
            self.config.want_progress,
            options,
        ) {
            Ok(pending) => pending,
            Err(ClientError::DeadlineExhausted) => {
                return Err(AttemptError::Fatal(ClientError::DeadlineExhausted))
            }
            // Dial/write failures are transient: retry with backoff.
            Err(e) => return Err(AttemptError::retry(e)),
        };
        pending.wait_attempt()
    }

    /// Round-trips a Ping over the shared connection; returns the RTT.
    pub fn ping(&self, timeout: Duration) -> Result<Duration, ClientError> {
        let deadline = Instant::now() + timeout;
        let conn = self.connection(deadline)?;
        let nonce = self.next_nonce.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = unbounded();
        conn.shared.pings.lock().insert(nonce, tx);
        let started = Instant::now();
        if let Err(e) = wire::write_frame(&mut *conn.writer.lock(), &Frame::Ping { nonce }) {
            conn.shared.pings.lock().remove(&nonce);
            conn.shared.dead.store(true, Ordering::Relaxed);
            return Err(e.into());
        }
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(()) => Ok(started.elapsed()),
            Err(RecvTimeoutError::Timeout) => {
                conn.shared.pings.lock().remove(&nonce);
                Err(ClientError::DeadlineExhausted)
            }
            Err(RecvTimeoutError::Disconnected) => Err(ClientError::Wire(WireError::Truncated)),
        }
    }

    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .config
            .backoff_base
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.config.backoff_cap);
        let jitter = self.rng.lock().gen_range(0.5f64..1.5);
        exp.mul_f64(jitter)
    }

    /// Returns the live connection, dialing a fresh one (under the lock,
    /// so concurrent submitters share a single dial) if none exists or
    /// the previous one died.
    fn connection(&self, deadline: Instant) -> Result<Arc<MuxConn>, ClientError> {
        let mut guard = self.conn.lock();
        if let Some(conn) = guard.as_ref() {
            if !conn.shared.dead.load(Ordering::Relaxed) {
                return Ok(Arc::clone(conn));
            }
        }
        let conn = Arc::new(self.dial(deadline)?);
        *guard = Some(Arc::clone(&conn));
        Ok(conn)
    }

    fn dial(&self, deadline: Instant) -> Result<MuxConn, ClientError> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(ClientError::DeadlineExhausted);
        }
        let timeout = self.config.connect_timeout.min(remaining);
        let mut stream = TcpStream::connect_timeout(&self.addr, timeout)?;
        stream.set_nodelay(true).ok();
        wire::write_frame(
            &mut stream,
            &Frame::Hello {
                max_version: PROTOCOL_VERSION,
            },
        )?;
        // Handshake completes on this thread; the buffer (with any bytes
        // the server pipelined behind the ack) is handed to the reader.
        let mut buffer = FrameBuffer::new();
        loop {
            // Checked first: a zero read timeout is an error, not a poll.
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ClientError::DeadlineExhausted);
            }
            stream
                .set_read_timeout(Some(remaining))
                .map_err(WireError::Io)?;
            match buffer.poll(&mut stream)? {
                Some(Frame::HelloAck { version }) if (1..=PROTOCOL_VERSION).contains(&version) => {
                    break;
                }
                Some(_) => {
                    return Err(ClientError::Wire(WireError::Malformed("expected HelloAck")))
                }
                None => continue,
            }
        }
        // The reader blocks in `read`; `MuxConn::drop` wakes it by shutting
        // the socket down.
        stream.set_read_timeout(None).map_err(WireError::Io)?;
        let shared = Arc::new(MuxShared {
            pending: Mutex::new(HashMap::new()),
            pings: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            stale: Arc::clone(&self.stale),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            let stream = stream.try_clone().map_err(WireError::Io)?;
            std::thread::Builder::new()
                .name("eugene-mux-reader".to_owned())
                .spawn(move || mux_reader_loop(stream, buffer, shared))
                .expect("spawn mux reader thread")
        };
        Ok(MuxConn {
            writer: Mutex::new(stream),
            shared,
            reader: Mutex::new(Some(reader)),
        })
    }
}

enum AttemptError {
    /// Retry after backing off at least `floor`.
    Retry { floor: Duration, error: ClientError },
    /// Not retryable; surface to the caller.
    Fatal(ClientError),
}

impl AttemptError {
    fn retry(error: ClientError) -> Self {
        AttemptError::Retry {
            floor: Duration::ZERO,
            error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn backoff_is_capped_and_jittered_deterministically() {
        let config = ClientConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(80),
            seed: 7,
            ..ClientConfig::default()
        };
        let a = MultiplexClient::new("127.0.0.1:1", config.clone()).unwrap();
        let b = MultiplexClient::new("127.0.0.1:1", config).unwrap();
        for attempt in 1..10 {
            let x = a.backoff(attempt);
            let y = b.backoff(attempt);
            assert_eq!(x, y, "same seed, same jitter");
            // Cap 80ms, jitter < 1.5: never above 120ms.
            assert!(x <= Duration::from_millis(120), "attempt {attempt}: {x:?}");
            assert!(x >= Duration::from_millis(5), "attempt {attempt}: {x:?}");
        }
    }

    #[test]
    fn tags_wrap_at_u64_max_without_panic_or_reuse() {
        // fetch_add wraps atomically at the boundary, and the counter is
        // client-lifetime so a reconnect never resets it into the range of
        // tags still pending on the old socket.
        let client = MultiplexClient::new("127.0.0.1:1", ClientConfig::default()).unwrap();
        client.next_tag.store(u64::MAX - 1, Ordering::Relaxed);
        assert_eq!(client.alloc_tag(), u64::MAX - 1);
        assert_eq!(client.alloc_tag(), u64::MAX);
        assert_eq!(client.alloc_tag(), 0);
    }

    #[test]
    fn infer_against_dead_address_respects_budget() {
        // Nothing listens on this port; every attempt fails fast and the
        // client must give up within (roughly) the budget.
        let client = MultiplexClient::new(
            "127.0.0.1:1",
            ClientConfig {
                connect_timeout: Duration::from_millis(50),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        let started = Instant::now();
        let result = client.infer("c", &[1.0], Duration::from_millis(200));
        assert!(result.is_err());
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "retry loop must stay bounded by the budget"
        );
    }

    #[test]
    fn submit_racing_the_readers_death_fails_fast_and_retryably() {
        // Fake gateway: acks the handshake, then closes the socket.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buffer = FrameBuffer::new();
            while !matches!(buffer.poll(&mut stream), Ok(Some(Frame::Hello { .. }))) {}
            let ack = Frame::HelloAck {
                version: PROTOCOL_VERSION,
            };
            wire::write_frame(&mut stream, &ack).unwrap();
        });
        let client = MultiplexClient::new(addr, ClientConfig::default()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let conn = client.connection(deadline).unwrap();
        server.join().unwrap();
        while !conn.shared.dead.load(Ordering::Relaxed) {
            assert!(Instant::now() < deadline, "reader never saw the close");
            std::thread::sleep(Duration::from_millis(1));
        }

        // A submitter still holding the stale `Arc` must not park a tag
        // that no reader will ever resolve.
        let started = Instant::now();
        let result = client.submit_on(
            &conn,
            "c",
            &[1.0],
            deadline,
            false,
            &SubmitOptions::default(),
        );
        assert!(
            matches!(result, Err(ClientError::Wire(_))),
            "expected a retryable connection loss, got a pending inference or a fatal error"
        );
        assert!(started.elapsed() < Duration::from_secs(1));
        assert!(conn.shared.pending.lock().is_empty(), "no tag left behind");
    }
}
