//! The benchmark's own load generator: one connection, one sender
//! thread, one receiver thread, speaking the wire protocol directly.
//!
//! `eugene_net::loadgen` is not used: its workers block in `infer_with`,
//! so depth is capped at the thread count and latency is stamped from the
//! send, which hides the queue a stall causes. Here the open phase follows
//! a seeded schedule and every request is timed **from the instant it was
//! due**; how late the sender ran is reported beside the latencies.

use crate::workload::{Class, ROUTING_KEYS};
use eugene_net::wire::{self, Frame, FrameBuffer, SubmitRequest, WireResponse};
use eugene_net::{RejectReason, PROTOCOL_VERSION};
use rand::Rng;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How often a blocked read returns so the receiver can check whether the
/// phase is over.
const READ_POLL: Duration = Duration::from_millis(5);

/// The inputs of one phase, all derived from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// When each request is due, in nanoseconds after the phase starts.
    /// All zero for a closed phase, where a request is due as soon as the
    /// window has room.
    pub due_ns: Vec<u64>,
    /// Index into the payload pool.
    pub payload: Vec<u32>,
    /// Routing key, sent only by keyed workloads.
    pub key: Vec<u64>,
}

impl Schedule {
    /// A Poisson process of exactly `round(rate * duration)` arrivals:
    /// exponential gaps rescaled to span `duration`, which is a Poisson
    /// process conditioned on its count. Fixing the count keeps the
    /// offered load identical across seeds while arrival instants,
    /// payloads and keys vary.
    pub fn poisson(seed: u64, rate_rps: f64, duration: Duration, pool: usize) -> Self {
        let n = (rate_rps * duration.as_secs_f64()).round().max(1.0) as usize;
        let mut rng = eugene_tensor::seeded_rng(seed);
        let mut at = 0.0f64;
        let mut arrivals = Vec::with_capacity(n);
        for _ in 0..n {
            at += exponential(&mut rng);
            arrivals.push(at);
        }
        // One more gap closes the interval, so the last arrival is not
        // pinned to the end of the phase.
        let span = at + exponential(&mut rng);
        let scale = duration.as_nanos() as f64 / span;
        let due_ns = arrivals.iter().map(|a| (a * scale) as u64).collect();
        Self::with_due(due_ns, &mut rng, pool)
    }

    /// `n` requests, each due immediately: the closed phase sends one
    /// whenever its window has room.
    pub fn back_to_back(seed: u64, n: usize, pool: usize) -> Self {
        let mut rng = eugene_tensor::seeded_rng(seed);
        Self::with_due(vec![0; n], &mut rng, pool)
    }

    fn with_due(due_ns: Vec<u64>, rng: &mut impl Rng, pool: usize) -> Self {
        let n = due_ns.len();
        Self {
            due_ns,
            payload: (0..n).map(|_| rng.gen_range(0..pool as u32)).collect(),
            key: (0..n).map(|_| rng.gen_range(0..ROUTING_KEYS)).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.due_ns.len()
    }
}

fn exponential(rng: &mut impl Rng) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln()
}

/// What the requests of a phase carry.
#[derive(Clone, Copy)]
pub struct Traffic<'a> {
    pub schedule: &'a Schedule,
    pub payloads: &'a [Vec<f32>],
    /// Request `i` belongs to class `i % classes.len()`.
    pub classes: &'a [Class],
    pub keyed: bool,
    pub want_progress: bool,
}

impl Traffic<'_> {
    pub fn class_of(&self, tag: usize) -> &Class {
        &self.classes[tag % self.classes.len()]
    }

    fn submit(&self, tag: usize) -> Frame {
        let class = self.class_of(tag);
        Frame::Submit(SubmitRequest {
            client_tag: tag as u64,
            class: class.name.to_owned(),
            budget_ms: class.budget_ms,
            want_progress: self.want_progress,
            payload: self.payloads[self.schedule.payload[tag] as usize].clone(),
            routing_key: self.keyed.then(|| self.schedule.key[tag]),
            model: None,
            tenant: None,
            epoch: None,
        })
    }
}

/// How the sender decides when the next request goes out.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Open loop: each request at its due time, whatever the server does.
    Open,
    /// Closed loop: `window` requests outstanding, the next submit on
    /// each terminal answer, for `duration`.
    Closed { window: usize, duration: Duration },
}

#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// Encode + write began / ended, nanoseconds after the phase start.
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Final(WireResponse),
    Reject(RejectReason),
}

#[derive(Debug, Clone)]
pub struct Answer {
    /// Arrival of the terminal frame, nanoseconds after the phase start.
    pub at_ns: u64,
    pub outcome: Outcome,
}

#[derive(Debug, Clone, Copy)]
pub struct StageArrival {
    pub tag: u64,
    pub stage: u32,
    pub at_ns: u64,
}

/// Everything one phase observed, indexed by request tag.
#[derive(Debug, Default)]
pub struct PhaseLog {
    pub sends: Vec<Sent>,
    /// `answers[tag]`; `None` for a request never answered.
    pub answers: Vec<Option<Answer>>,
    /// `StageUpdate` arrivals (only when progress was asked for).
    pub stage_updates: Vec<StageArrival>,
    /// Server in-flight depth sampled by the sender just before each
    /// send. Poisson arrivals see time averages, so their mean is the
    /// time-average depth.
    pub in_flight: Vec<u32>,
    /// Undecodable frames, unknown or duplicate tags, failed writes.
    pub wire_errors: u64,
    /// Phase start → last send finished.
    pub send_span_s: f64,
    /// Process CPU time over the phase, and the part of it the two
    /// driver threads used themselves.
    pub process_cpu_s: f64,
    pub driver_cpu_s: f64,
}

#[cfg(test)]
impl PhaseLog {
    /// Requests sent but never answered with a terminal frame.
    pub fn unanswered(&self) -> u64 {
        self.answers.iter().filter(|a| a.is_none()).count() as u64
    }
}

/// Connects and shakes hands. Returns the write half and the read half
/// (with `READ_POLL` as its read timeout) of one connection.
pub fn connect(addr: SocketAddr) -> io::Result<(TcpStream, TcpStream)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_POLL))?;
    wire::write_frame(
        &mut stream,
        &Frame::Hello {
            max_version: PROTOCOL_VERSION,
        },
    )
    .map_err(io::Error::other)?;
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut buffer = FrameBuffer::new();
    loop {
        match buffer.poll(&mut stream).map_err(io::Error::other)? {
            Some(Frame::HelloAck { .. }) => break,
            Some(other) => {
                return Err(io::Error::other(format!(
                    "expected HelloAck, got {other:?}"
                )))
            }
            None if Instant::now() > deadline => {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no HelloAck"))
            }
            None => {}
        }
    }
    let reader = stream.try_clone()?;
    Ok((stream, reader))
}

/// Runs one phase over an established connection and returns its log.
///
/// Generic over the transport so a test can put a bounded in-memory pipe
/// and a stalling fake server behind it; the benchmark passes the two
/// halves of a `TcpStream`. `in_flight` reads the server's current depth
/// (sampled by the sender). `grace` is how long the receiver waits for
/// stragglers after the last send.
pub fn run_phase<W, R>(
    mut writer: W,
    mut reader: R,
    traffic: Traffic<'_>,
    pace: Pace,
    grace: Duration,
    in_flight: &(dyn Fn() -> u64 + Sync),
) -> PhaseLog
where
    W: Write + Send,
    R: Read + Send,
{
    let n = traffic.schedule.len();
    let sent_count = &AtomicUsize::new(0);
    let sender_done = &AtomicBool::new(false);
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    let credit_tx = &credit_tx;
    let cpu_before = crate::host::process_cpu_s();
    let start = Instant::now();
    let since = move |t: Instant| t.duration_since(start).as_nanos() as u64;

    let (sender_out, receiver_out) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            crate::host::pin_driver_thread();
            let cpu0 = crate::host::thread_cpu_s();
            let mut sends = Vec::with_capacity(n);
            let mut depth = Vec::with_capacity(n);
            let mut write_failed = false;
            let end = match pace {
                Pace::Open => None,
                Pace::Closed { window, duration } => {
                    for _ in 0..window {
                        let _ = credit_tx.send(());
                    }
                    Some(start + duration)
                }
            };
            for tag in 0..n {
                match end {
                    None => {
                        let due = start + Duration::from_nanos(traffic.schedule.due_ns[tag]);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                    }
                    Some(end) => {
                        let left = end.saturating_duration_since(Instant::now());
                        if left.is_zero() || credit_rx.recv_timeout(left).is_err() {
                            break;
                        }
                    }
                }
                depth.push(in_flight() as u32);
                let t0 = Instant::now();
                let bytes = wire::encode_frame(&traffic.submit(tag));
                if writer
                    .write_all(&bytes)
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    write_failed = true;
                    break;
                }
                sends.push(Sent {
                    start_ns: since(t0),
                    end_ns: since(Instant::now()),
                });
                sent_count.store(sends.len(), Ordering::Release);
            }
            let send_span_s = start.elapsed().as_secs_f64();
            sender_done.store(true, Ordering::Release);
            let cpu = crate::host::thread_cpu_s() - cpu0;
            (sends, depth, write_failed, send_span_s, cpu)
        });

        let receiver = scope.spawn(move || {
            crate::host::pin_driver_thread();
            let cpu0 = crate::host::thread_cpu_s();
            let mut answers: Vec<Option<Answer>> = vec![None; n];
            let mut stage_updates = Vec::new();
            let mut wire_errors = 0u64;
            let mut terminal = 0usize;
            let mut buffer = FrameBuffer::new();
            let mut done_at: Option<Instant> = None;
            loop {
                let outcome = match buffer.poll(&mut reader) {
                    Ok(Some(Frame::Final {
                        client_tag,
                        response,
                    })) => Some((client_tag, Outcome::Final(response))),
                    Ok(Some(Frame::Reject {
                        client_tag, reason, ..
                    })) => Some((client_tag, Outcome::Reject(reason))),
                    Ok(Some(Frame::StageUpdate {
                        client_tag, stage, ..
                    })) => {
                        stage_updates.push(StageArrival {
                            tag: client_tag,
                            stage,
                            at_ns: since(Instant::now()),
                        });
                        None
                    }
                    Ok(Some(_)) => {
                        wire_errors += 1;
                        None
                    }
                    Ok(None) => None,
                    Err(_) => {
                        // A corrupt or closed stream cannot resynchronize.
                        wire_errors += 1;
                        break;
                    }
                };
                if let Some((tag, outcome)) = outcome {
                    let at_ns = since(Instant::now());
                    match answers.get_mut(tag as usize) {
                        Some(slot @ None) => {
                            *slot = Some(Answer { at_ns, outcome });
                            terminal += 1;
                            let _ = credit_tx.send(());
                        }
                        // Unknown tag, or a second answer to one request.
                        _ => wire_errors += 1,
                    }
                }
                if sender_done.load(Ordering::Acquire) {
                    if terminal >= sent_count.load(Ordering::Acquire) {
                        break;
                    }
                    let since_done = *done_at.get_or_insert_with(Instant::now);
                    if since_done.elapsed() > grace {
                        break;
                    }
                }
            }
            let cpu = crate::host::thread_cpu_s() - cpu0;
            (answers, stage_updates, wire_errors, cpu)
        });

        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });

    let (sends, in_flight, write_failed, send_span_s, sender_cpu) = sender_out;
    let (mut answers, stage_updates, wire_errors, receiver_cpu) = receiver_out;
    answers.truncate(sends.len());
    PhaseLog {
        sends,
        answers,
        stage_updates,
        in_flight,
        wire_errors: wire_errors + u64::from(write_failed),
        send_span_s,
        process_cpu_s: crate::host::process_cpu_s() - cpu_before,
        driver_cpu_s: sender_cpu + receiver_cpu,
    }
}

/// Round-trip times of `n` sequential `Ping`s on an idle connection, in
/// nanoseconds: the reactor/thread hand-off without the runtime.
pub fn ping_rtts(mut writer: impl Write, mut reader: impl Read, n: u64) -> io::Result<Vec<u64>> {
    let mut buffer = FrameBuffer::new();
    let mut rtts = Vec::with_capacity(n as usize);
    for nonce in 0..n {
        let t0 = Instant::now();
        wire::write_frame(&mut writer, &Frame::Ping { nonce }).map_err(io::Error::other)?;
        loop {
            match buffer.poll(&mut reader).map_err(io::Error::other)? {
                Some(Frame::Pong { nonce: echoed }) if echoed == nonce => break,
                Some(_) => {}
                None if t0.elapsed() > Duration::from_secs(2) => {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "no Pong"))
                }
                None => {}
            }
        }
        rtts.push(t0.elapsed().as_nanos() as u64);
    }
    Ok(rtts)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};

    /// Write half of a bounded in-memory pipe: blocks when the reader
    /// falls `capacity` chunks behind, like a socket whose buffers are
    /// full.
    pub struct PipeWriter(SyncSender<Vec<u8>>);

    pub struct PipeReader {
        rx: Receiver<Vec<u8>>,
        pending: VecDeque<u8>,
        /// `None` blocks until data or EOF; `Some` times out like a
        /// socket with a read timeout.
        timeout: Option<Duration>,
    }

    pub fn pipe(capacity: usize, timeout: Option<Duration>) -> (PipeWriter, PipeReader) {
        let (tx, rx) = mpsc::sync_channel(capacity);
        (
            PipeWriter(tx),
            PipeReader {
                rx,
                pending: VecDeque::new(),
                timeout,
            },
        )
    }

    impl Write for PipeWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0
                .send(buf.to_vec())
                .map_err(|_| io::Error::from(io::ErrorKind::BrokenPipe))?;
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Read for PipeReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pending.is_empty() {
                let chunk = match self.timeout {
                    None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                    Some(t) => self.rx.recv_timeout(t),
                };
                match chunk {
                    Ok(chunk) => self.pending.extend(chunk),
                    Err(RecvTimeoutError::Timeout) => return Err(io::ErrorKind::TimedOut.into()),
                    Err(RecvTimeoutError::Disconnected) => return Ok(0),
                }
            }
            let n = buf.len().min(self.pending.len());
            for (dst, src) in buf.iter_mut().zip(self.pending.drain(..n)) {
                *dst = src;
            }
            Ok(n)
        }
    }

    /// A wire server that answers every submit at once with `answer`, but
    /// stops reading for `stall` when it reaches request `stall_at`.
    pub fn fake_server(
        mut from_client: PipeReader,
        mut to_client: PipeWriter,
        stall_at: u64,
        stall: Duration,
        answer: impl Fn(&SubmitRequest) -> WireResponse + Send + 'static,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            while let Ok(frame) = wire::read_frame(&mut from_client) {
                let Frame::Submit(submit) = frame else {
                    continue;
                };
                if submit.client_tag == stall_at {
                    std::thread::sleep(stall);
                }
                let reply = Frame::Final {
                    client_tag: submit.client_tag,
                    response: answer(&submit),
                };
                if wire::write_frame(&mut to_client, &reply).is_err() {
                    break;
                }
            }
        })
    }

    pub const TEST_CLASS: &[Class] = &[Class {
        name: "default",
        budget_ms: 2_000,
        utility: 1.0,
    }];

    pub fn instant_answer(_: &SubmitRequest) -> WireResponse {
        WireResponse {
            predicted: Some(1),
            confidence: Some(0.5),
            stages_executed: 3,
            expired: false,
            latency_us: 0,
            degraded: false,
        }
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let make = |seed| Schedule::poisson(seed, 500.0, Duration::from_secs(2), 128);
        let (a, b, c) = (make(7), make(7), make(8));
        assert_eq!(a, b);
        assert_ne!(a.due_ns, c.due_ns);
        assert_ne!(a.payload, c.payload);
        assert_eq!(a.len(), 1000, "the count is fixed by rate x duration");
        assert_eq!(c.len(), 1000);
        assert!(a.due_ns.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.due_ns.last().unwrap() < 2_000_000_000);
        assert!(a.payload.iter().all(|&p| p < 128));
        assert!(a.key.iter().all(|&k| k < ROUTING_KEYS));
    }

    /// Coordinated omission: when a stalled server pushes back on the
    /// sender, the requests that should have gone out during the stall
    /// waited too. Timed from their due time they show the stall; the
    /// same run stamped from the actual send hides it.
    #[test]
    fn latency_from_due_time_shows_a_stall_that_send_stamps_hide() {
        let schedule = Schedule::poisson(3, 1000.0, Duration::from_secs(1), 4);
        let payloads = vec![vec![0.0f32; 8]; 4];
        let traffic = Traffic {
            schedule: &schedule,
            payloads: &payloads,
            classes: TEST_CLASS,
            keyed: false,
            want_progress: false,
        };
        // Two chunks of buffering: the sender blocks almost as soon as the
        // server stops reading.
        let (to_server, from_client) = pipe(2, None);
        let (to_client, from_server) = pipe(1 << 16, Some(Duration::from_millis(5)));
        let server = fake_server(
            from_client,
            to_client,
            400,
            Duration::from_millis(200),
            instant_answer,
        );
        let log = run_phase(
            to_server,
            from_server,
            traffic,
            Pace::Open,
            Duration::from_secs(2),
            &|| 0,
        );
        server.join().unwrap();
        assert_eq!(log.sends.len(), 1000);
        assert_eq!(log.unanswered(), 0);
        assert_eq!(log.wire_errors, 0);

        let p99 = |from: &dyn Fn(usize) -> u64| {
            let mut ms: Vec<f64> = (0..1000)
                .map(|i| (log.answers[i].as_ref().unwrap().at_ns - from(i)) as f64 / 1e6)
                .collect();
            crate::measure::percentile(&mut ms, 0.99)
        };
        let from_due = p99(&|i| schedule.due_ns[i]);
        let from_send = p99(&|i| log.sends[i].start_ns);
        assert!(
            from_due > 150.0,
            "p99 from due time reflects the 200 ms stall: {from_due} ms"
        );
        assert!(
            from_send < 50.0,
            "p99 from send time hides it: {from_send} ms"
        );
    }

    #[test]
    fn closed_phase_keeps_a_fixed_window_outstanding() {
        let schedule = Schedule::back_to_back(5, 100_000, 4);
        let payloads = vec![vec![0.0f32; 8]; 4];
        let traffic = Traffic {
            schedule: &schedule,
            payloads: &payloads,
            classes: TEST_CLASS,
            keyed: false,
            want_progress: false,
        };
        let (to_server, from_client) = pipe(1 << 16, None);
        let (to_client, from_server) = pipe(1 << 16, Some(Duration::from_millis(5)));
        // A server that never answers until the client has nothing more to
        // say would deadlock a closed loop; this one stalls once instead,
        // which bounds what can be outstanding to exactly the window.
        let server = fake_server(
            from_client,
            to_client,
            50,
            Duration::from_millis(100),
            instant_answer,
        );
        let log = run_phase(
            to_server,
            from_server,
            traffic,
            Pace::Closed {
                window: 8,
                duration: Duration::from_millis(300),
            },
            Duration::from_secs(2),
            &|| 0,
        );
        server.join().unwrap();
        assert_eq!(log.unanswered(), 0);
        assert!(log.sends.len() > 100, "sent {}", log.sends.len());
        // At every send, sends so far minus answers already received must
        // not exceed the window.
        let mut arrivals: Vec<u64> = log
            .answers
            .iter()
            .map(|a| a.as_ref().unwrap().at_ns)
            .collect();
        arrivals.sort_unstable();
        for (i, sent) in log.sends.iter().enumerate() {
            let answered = arrivals.partition_point(|&at| at <= sent.end_ns);
            assert!(
                i + 1 - answered.min(i + 1) <= 8 + 1,
                "window breached at {i}"
            );
        }
    }
}
