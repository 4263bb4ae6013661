//! Connection multiplexing in action: 64 tagged inference requests
//! pipelined over ONE TCP connection, answered out of order and demuxed
//! back to their submitters — then the same work pushed through the same
//! client one request at a time, each answer awaited before the next
//! submit, to show what pipelining buys.
//!
//! Every data frame on the wire carries a `client_tag`; `MultiplexClient`
//! allocates a fresh tag per submit and a background reader routes each
//! `StageUpdate`/`Final`/`Reject` to the matching `PendingInference`.
//! Server-side, one event loop serves every connection — never a thread
//! per connection or per request — and admission reserves in-flight
//! slots atomically, so the hard cap holds even with the whole burst in
//! flight at once.
//!
//! Run: `cargo run --release --example multiplexed_pipelining`

use eugene::data::{SyntheticImages, SyntheticImagesConfig};
use eugene::net::{ClientConfig, GatewayConfig, MultiplexClient};
use eugene::service::{Eugene, SchedulerKind, ServeOptions, TrainRequest};
use eugene::tensor::seeded_rng;
use std::time::{Duration, Instant};

const BURST: usize = 64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = seeded_rng(41);
    let gen = SyntheticImages::new(SyntheticImagesConfig::default(), &mut rng);
    let (train, _) = gen.generate(1500, &mut rng);
    let (stream, _) = gen.generate(BURST, &mut rng);

    let mut eugene = Eugene::new(33);
    println!("training...");
    let model = eugene.train(TrainRequest::standard(&train))?;

    let gateway = eugene.serve_gateway(
        model,
        &ServeOptions {
            scheduler: SchedulerKind::Fifo,
            num_workers: 4,
            confidence_threshold: 0.90,
            ..ServeOptions::default()
        },
        None,
        GatewayConfig {
            // Admission must hold the whole burst: 64 in flight at once.
            high_water: 128,
            hard_cap: 256,
            ..GatewayConfig::default()
        },
    )?;
    let addr = gateway.local_addr();
    let status = gateway.status();
    println!("gateway listening on {addr}\n");

    // --- Pipelined: one connection, all 64 requests in flight at once.
    let mux = MultiplexClient::new(addr, ClientConfig::default())?;
    let started = Instant::now();
    let pending: Vec<_> = (0..BURST)
        .map(|i| {
            // Stream per-stage progress for a few of them, interleaved
            // mid-flight with the plain requests.
            let want_progress = i % 16 == 0;
            mux.submit(
                "interactive",
                stream.sample(i),
                Duration::from_secs(5),
                want_progress,
            )
        })
        .collect::<Result<_, _>>()?;
    println!(
        "submitted {BURST} requests on one connection in {:?} (peak in-flight so far: {})",
        started.elapsed(),
        status.peak_in_flight(),
    );
    for p in pending {
        let tag = p.tag();
        let outcome = p.wait()?;
        if !outcome.stage_updates.is_empty() {
            let trail: Vec<String> = outcome
                .stage_updates
                .iter()
                .map(|u| format!("s{}:{:.2}", u.stage, u.confidence))
                .collect();
            println!(
                "  tag {tag:>2} streamed [{}] -> predicted {:?}",
                trail.join(" -> "),
                outcome.predicted
            );
        }
    }
    let mux_elapsed = started.elapsed();
    println!(
        "pipelined: {BURST} answers in {mux_elapsed:?} ({:.0} req/s), peak in-flight {}\n",
        BURST as f64 / mux_elapsed.as_secs_f64(),
        status.peak_in_flight(),
    );

    // --- Serial baseline: the same client and connection, each submit
    // waited for before the next, so one request is in flight at a time.
    let started = Instant::now();
    for i in 0..BURST {
        mux.submit(
            "interactive",
            stream.sample(i),
            Duration::from_secs(5),
            false,
        )?
        .wait()?;
    }
    let serial_elapsed = started.elapsed();
    println!(
        "serial:    {BURST} answers in {serial_elapsed:?} ({:.0} req/s)",
        BURST as f64 / serial_elapsed.as_secs_f64(),
    );
    println!(
        "speedup from pipelining: {:.1}x on the same single connection",
        serial_elapsed.as_secs_f64() / mux_elapsed.as_secs_f64()
    );
    println!(
        "gateway threads spawned: {} for {} connections ({} requests served)",
        status.threads_spawned(),
        status.connections_opened(),
        2 * BURST,
    );

    gateway.shutdown();
    println!("gateway drained and stopped");
    Ok(())
}
