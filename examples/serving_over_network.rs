//! Deep intelligence *as a service*, over an actual network: a trained
//! staged model served through the TCP gateway, queried by a remote-style
//! client that streams per-stage early-exit progress across the wire.
//!
//! The gateway re-anchors each request's latency budget on its own clock,
//! streams a `StageUpdate` frame per executed stage, sheds load with
//! `Reject` frames under overload, and drains in-flight work on shutdown.
//!
//! Run: `cargo run --release --example serving_over_network`

use eugene::data::{SyntheticImages, SyntheticImagesConfig};
use eugene::net::{ClientConfig, GatewayConfig, MultiplexClient};
use eugene::service::{Eugene, SchedulerKind, ServeOptions, TrainRequest};
use eugene::tensor::seeded_rng;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = seeded_rng(31);
    let gen = SyntheticImages::new(SyntheticImagesConfig::default(), &mut rng);
    let (train, _) = gen.generate(1500, &mut rng);
    let (stream, _) = gen.generate(12, &mut rng);

    let mut eugene = Eugene::new(32);
    println!("training...");
    let model = eugene.train(TrainRequest::standard(&train))?;

    // Serve the model behind a TCP gateway on a free loopback port:
    // 4 workers, RTDeepIoT scheduling, early exit at 90% confidence.
    let gateway = eugene.serve_gateway(
        model,
        &ServeOptions {
            scheduler: SchedulerKind::RtDeepIot { lookahead: 1 },
            num_workers: 4,
            confidence_threshold: 0.90,
            ..ServeOptions::default()
        },
        Some(&train),
        GatewayConfig::default(),
    )?;
    let addr = gateway.local_addr();
    println!("gateway listening on {addr}");

    // A client on the other side of the socket. `want_progress` asks the
    // gateway to stream one StageUpdate frame per executed stage, so the
    // client watches confidence build (and early exit trigger) live.
    let client = MultiplexClient::new(
        addr,
        ClientConfig {
            want_progress: true,
            seed: 7,
            ..ClientConfig::default()
        },
    )?;
    let rtt = client.ping(Duration::from_secs(2))?;
    println!("ping: {rtt:?}\n");

    let mut early_exits = 0;
    let mut stage_total = 0u32;
    for i in 0..stream.len() {
        // Alternate an interactive class (tight budget) with a tolerant
        // surveillance-like class; budgets travel the wire as remaining
        // milliseconds and are re-anchored on the server clock.
        let (class, budget) = if i % 2 == 0 {
            ("interactive", Duration::from_millis(250))
        } else {
            ("surveillance", Duration::from_secs(5))
        };
        let outcome = client.infer(class, stream.sample(i), budget)?;
        stage_total += outcome.stages_executed;
        if !outcome.expired && (outcome.stages_executed as usize) < 3 {
            early_exits += 1;
        }
        let trail: Vec<String> = outcome
            .stage_updates
            .iter()
            .map(|u| format!("s{}:{:.2}", u.stage, u.confidence))
            .collect();
        println!(
            "req {i:>2} [{class:>12}] predicted {:?} after {} stages  [{}]  server {:?} rtt {:?}{}",
            outcome.predicted,
            outcome.stages_executed,
            trail.join(" -> "),
            outcome.server_latency,
            outcome.round_trip,
            if outcome.expired { "  (DEADLINE)" } else { "" },
        );
    }
    println!(
        "\nsummary: {} requests over TCP, mean stages {:.2}, early exits {}",
        stream.len(),
        f64::from(stage_total) / stream.len() as f64,
        early_exits
    );

    // Graceful shutdown drains every in-flight request before closing.
    gateway.shutdown();
    println!("gateway drained and stopped");
    Ok(())
}
