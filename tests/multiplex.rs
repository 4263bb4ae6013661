//! Multiplexing tests: many concurrent tagged requests over a single TCP
//! connection, demuxed correctly under interleaving and reordering, with
//! every stage update of a tag ahead of its `Final`. (The hard-cap and
//! shutdown-drain contracts live in `tests/gateway_contract.rs`.)

#[path = "../crates/net/tests/common/mod.rs"]
mod common;

use common::{fast_runtime, open_config, start_gateway};
use eugene::net::wire::{self, Frame, FrameBuffer, WireResponse, PROTOCOL_VERSION};
use eugene::net::{ClientConfig, MultiplexClient};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::net::TcpListener;
use std::time::Duration;

/// ≥64 interleaved in-flight tags on ONE connection: every `Final` must
/// reach the request that submitted it, and `want_progress` streams
/// (interleaved mid-flight with plain requests) must carry only their own
/// tag's stage reports.
#[test]
fn ninety_six_interleaved_tags_demux_on_one_connection() {
    const N: usize = 96;
    let ramp = vec![0.3, 0.6, 0.9];
    let gateway = start_gateway(
        ramp.clone(),
        Duration::from_millis(2),
        fast_runtime(4),
        open_config(),
    );
    let status = gateway.status();
    let client = MultiplexClient::new(gateway.local_addr(), ClientConfig::default())
        .expect("resolve loopback");

    // Pipeline every submit before waiting on any: all N are in flight on
    // the single socket at once.
    let pending: Vec<_> = (0..N)
        .map(|i| {
            let want_progress = i % 2 == 0;
            client
                .submit(
                    "interactive",
                    &[i as f32],
                    Duration::from_secs(10),
                    want_progress,
                )
                .expect("pipelined submit")
        })
        .collect();

    for (i, p) in pending.into_iter().enumerate() {
        let want_progress = i % 2 == 0;
        let outcome = p.wait().unwrap_or_else(|e| panic!("request {i}: {e}"));
        assert_eq!(
            outcome.predicted,
            Some(i as u64),
            "Final for tag {i} must carry request {i}'s prediction"
        );
        assert!(!outcome.expired, "request {i} expired");
        if want_progress {
            assert_eq!(
                outcome.stage_updates.len(),
                ramp.len(),
                "request {i} must stream one update per stage"
            );
            for update in &outcome.stage_updates {
                assert_eq!(
                    update.predicted, i as u64,
                    "stage update for tag {i} carried another tag's payload"
                );
            }
        } else {
            assert!(
                outcome.stage_updates.is_empty(),
                "request {i} did not ask for progress but got {} updates",
                outcome.stage_updates.len()
            );
        }
    }

    assert_eq!(client.stale_frames(), 0, "no frame may go undelivered");
    assert!(
        status.peak_in_flight() >= 64,
        "the single connection must have sustained >=64 concurrent \
         in-flight requests, saw peak {}",
        status.peak_in_flight()
    );
    assert_eq!(status.connections_opened(), 1, "exactly one connection");
}

/// Regression for the per-submit forwarder-thread leak: a connection that
/// carries 10k requests must cost the gateway no thread beyond its event
/// loop.
#[test]
fn ten_thousand_requests_on_one_connection_spawn_bounded_threads() {
    const TOTAL: usize = 10_000;
    const WINDOW: usize = 250;
    let gateway = start_gateway(vec![0.9], Duration::ZERO, fast_runtime(8), open_config());
    let status = gateway.status();
    let client = MultiplexClient::new(gateway.local_addr(), ClientConfig::default())
        .expect("resolve loopback");

    let mut done = 0usize;
    while done < TOTAL {
        let window = WINDOW.min(TOTAL - done);
        let pending: Vec<_> = (0..window)
            .map(|i| {
                client
                    .submit(
                        "batch",
                        &[(done + i) as f32],
                        Duration::from_secs(10),
                        false,
                    )
                    .expect("submit")
            })
            .collect();
        for (i, p) in pending.into_iter().enumerate() {
            let outcome = p.wait().expect("wait");
            assert_eq!(outcome.predicted, Some((done + i) as u64));
        }
        done += window;
    }

    // The event loop is the gateway's only thread; nothing per request.
    assert_eq!(status.connections_opened(), 1);
    assert_eq!(
        status.threads_spawned(),
        1,
        "10k requests must run on the single event-loop thread"
    );
    assert_eq!(status.open_connections(), 1, "one live connection");
}

/// Hand-rolled wire server that answers a batch of submits in an
/// arbitrary permuted order; returns the listening address.
fn permuting_fake_server(n: usize, order: Vec<usize>) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut buffer = FrameBuffer::new();
        // Handshake.
        loop {
            if let Some(Frame::Hello { .. }) = buffer.poll(&mut stream).expect("read hello") {
                break;
            }
        }
        wire::write_frame(
            &mut stream,
            &Frame::HelloAck {
                version: PROTOCOL_VERSION,
            },
        )
        .expect("ack");
        // Collect all n submits first (they arrive pipelined), then answer
        // in the permuted order, streaming a StageUpdate before each Final
        // for requests that asked for progress.
        let mut submits = Vec::with_capacity(n);
        while submits.len() < n {
            if let Some(Frame::Submit(submit)) = buffer.poll(&mut stream).expect("read submit") {
                submits.push(submit);
            }
        }
        for &i in &order {
            let submit = &submits[i];
            if submit.want_progress {
                wire::write_frame(
                    &mut stream,
                    &Frame::StageUpdate {
                        client_tag: submit.client_tag,
                        stage: 0,
                        confidence: 0.5,
                        predicted: submit.client_tag,
                    },
                )
                .expect("stage update");
            }
            wire::write_frame(
                &mut stream,
                &Frame::Final {
                    client_tag: submit.client_tag,
                    response: WireResponse {
                        predicted: Some(submit.client_tag),
                        confidence: Some(0.9),
                        stages_executed: 1,
                        expired: false,
                        latency_us: 1,
                        degraded: false,
                    },
                },
            )
            .expect("final");
        }
    });
    addr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever order the server completes tags in, every answer must be
    /// routed to the request that owns the tag.
    #[test]
    fn out_of_order_tag_completion_routes_correctly(
        n in 2usize..24,
        seed in any::<u64>(),
    ) {
        // Fisher–Yates from the seed: the vendored proptest has no
        // shuffle strategy, so derive the permutation deterministically.
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }

        let addr = permuting_fake_server(n, order);
        let client = MultiplexClient::new(addr, ClientConfig::default())
            .expect("resolve fake server");
        let pending: Vec<_> = (0..n)
            .map(|i| {
                client
                    .submit("prop", &[i as f32], Duration::from_secs(5), i % 2 == 0)
                    .expect("submit")
            })
            .collect();
        for p in pending {
            let tag = p.tag();
            let want_progress = tag % 2 == 0;
            let outcome = p.wait().expect("wait");
            prop_assert_eq!(
                outcome.predicted,
                Some(tag),
                "answer for tag {} went to the wrong request",
                tag
            );
            if want_progress {
                prop_assert_eq!(outcome.stage_updates.len(), 1);
                prop_assert_eq!(outcome.stage_updates[0].predicted, tag);
            } else {
                prop_assert!(outcome.stage_updates.is_empty());
            }
        }
        prop_assert_eq!(client.stale_frames(), 0);
    }
}
