//! Shared fixtures for eugene-net integration tests: a deterministic
//! staged engine (the serve crate's test engine is private), helpers that
//! boot a full runtime + gateway or router on a loopback socket, and a
//! raw-socket handshake and request.

use eugene_net::wire::{self, Frame, FrameBuffer, SubmitRequest, PROTOCOL_VERSION};
use eugene_net::{Gateway, GatewayConfig, ShardConfig, ShardRouter};
use eugene_sched::Fifo;
use eugene_serve::{EngineSession, InferenceEngine, RuntimeConfig, ServingRuntime, StageReport};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Staged engine whose confidence walks a fixed ramp, one stage per call,
/// each stage costing `stage_time` of wall clock. The predicted label is
/// the first payload element truncated to an integer, so tests can check
/// payloads survive the wire round trip.
pub struct StagedTestEngine {
    pub ramp: Vec<f32>,
    pub stage_time: Duration,
}

impl InferenceEngine for StagedTestEngine {
    fn num_stages(&self) -> usize {
        self.ramp.len()
    }

    fn begin(&self, payload: &[f32]) -> Box<dyn EngineSession> {
        Box::new(StagedTestSession {
            ramp: self.ramp.clone(),
            stage_time: self.stage_time,
            done: 0,
            predicted: payload.first().copied().unwrap_or(0.0) as usize,
        })
    }
}

struct StagedTestSession {
    ramp: Vec<f32>,
    stage_time: Duration,
    done: usize,
    predicted: usize,
}

impl EngineSession for StagedTestSession {
    fn next_stage(&mut self) -> Option<StageReport> {
        if self.done >= self.ramp.len() {
            return None;
        }
        std::thread::sleep(self.stage_time);
        let report = StageReport {
            predicted: self.predicted,
            confidence: self.ramp[self.done],
        };
        self.done += 1;
        Some(report)
    }

    fn stages_done(&self) -> usize {
        self.done
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Boots a runtime over [`StagedTestEngine`] and a gateway on a free
/// loopback port.
#[allow(dead_code)]
pub fn start_gateway(
    ramp: Vec<f32>,
    stage_time: Duration,
    runtime_config: RuntimeConfig,
    gateway_config: GatewayConfig,
) -> Gateway {
    let engine = Arc::new(StagedTestEngine { ramp, stage_time });
    let runtime = ServingRuntime::start(engine, Box::new(Fifo::new()), runtime_config);
    Gateway::start(runtime, gateway_config).expect("bind loopback gateway")
}

/// One fresh runtime over [`StagedTestEngine`], for booting or reviving a
/// shard.
#[allow(dead_code)]
pub fn shard_runtime(
    ramp: Vec<f32>,
    stage_time: Duration,
    runtime_config: &RuntimeConfig,
) -> ServingRuntime {
    let engine = Arc::new(StagedTestEngine { ramp, stage_time });
    ServingRuntime::start(engine, Box::new(Fifo::new()), *runtime_config)
}

/// Boots `shards` runtimes over [`StagedTestEngine`] behind a
/// [`ShardRouter`] on a free loopback port.
#[allow(dead_code)]
pub fn start_router(
    shards: usize,
    ramp: Vec<f32>,
    stage_time: Duration,
    runtime_config: RuntimeConfig,
    shard_config: ShardConfig,
) -> ShardRouter {
    let runtimes = (0..shards)
        .map(|_| shard_runtime(ramp.clone(), stage_time, &runtime_config))
        .collect();
    ShardRouter::start(runtimes, shard_config).expect("bind loopback shard router")
}

/// A runtime config with `workers` workers and every other knob at its
/// default (no early exit).
#[allow(dead_code)]
pub fn fast_runtime(workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        num_workers: workers,
        ..RuntimeConfig::default()
    }
}

/// Effectively no admission control: for tests that measure delivery,
/// not shedding.
#[allow(dead_code)]
pub fn open_config() -> GatewayConfig {
    GatewayConfig {
        high_water: 1_000_000,
        hard_cap: 2_000_000,
        ..GatewayConfig::default()
    }
}

/// Connects and completes the Hello/HelloAck handshake, returning the
/// stream (so the connection stays open until the caller drops it). The
/// gateway sends nothing unasked after its `HelloAck`, so a fresh
/// `FrameBuffer` reads the connection's next frames.
#[allow(dead_code)]
pub fn handshake(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    wire::write_frame(
        &mut stream,
        &Frame::Hello {
            max_version: PROTOCOL_VERSION,
        },
    )
    .expect("hello");
    let mut buffer = FrameBuffer::new();
    loop {
        match buffer.poll(&mut stream).expect("read ack") {
            Some(Frame::HelloAck { .. }) => return stream,
            Some(other) => panic!("expected HelloAck, got {other:?}"),
            None => {}
        }
    }
}

/// Submits `payload` under `tag` on a handshaken raw connection and
/// returns the prediction its `Final` carries, skipping any
/// `StageUpdate`s on the way.
#[allow(dead_code)]
pub fn infer(
    stream: &mut TcpStream,
    buffer: &mut FrameBuffer,
    tag: u64,
    payload: f32,
    routing_key: Option<u64>,
) -> Option<u64> {
    let submit = SubmitRequest {
        client_tag: tag,
        class: "budget".to_owned(),
        budget_ms: 10_000,
        want_progress: false,
        payload: vec![payload],
        routing_key,
        model: None,
        tenant: None,
        epoch: None,
    };
    wire::write_frame(stream, &Frame::Submit(submit)).expect("submit");
    loop {
        match buffer.poll(stream).expect("read answer") {
            Some(Frame::StageUpdate { .. }) | None => {}
            Some(Frame::Final {
                client_tag,
                response,
            }) => {
                assert_eq!(client_tag, tag);
                return response.predicted;
            }
            Some(other) => panic!("expected a Final, got {other:?}"),
        }
    }
}
