//! Adversarial wire-protocol tests: the decoder and a live gateway must
//! survive arbitrary, truncated, and bit-flipped input without panicking.

mod common;

use common::start_gateway;
use eugene_net::wire::{decode_frame, encode_frame, Frame, SubmitRequest};
use eugene_net::{ClientConfig, GatewayConfig, MultiplexClient};
use eugene_serve::RuntimeConfig;
use proptest::prelude::*;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// Model / tenant names over an alphabet that includes non-ASCII, so the
/// trailing addressing fields are fuzzed as arbitrary UTF-8, not just
/// identifiers.
fn name_strategy() -> impl Strategy<Value = String> {
    const ALPHABET: &[char] = &['a', 'z', '0', '9', '-', '_', '\u{3b1}', '\u{65e5}'];
    prop::collection::vec(0usize..ALPHABET.len(), 1..12)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

proptest! {
    /// Arbitrary bytes must never panic the decoder — they either decode
    /// or produce a typed error.
    #[test]
    fn decoder_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = decode_frame(&bytes);
    }

    /// A valid frame with one flipped byte must never panic the decoder.
    #[test]
    fn decoder_survives_single_byte_corruption(
        tag in any::<u64>(),
        budget in any::<u64>(),
        flip_pos in any::<u16>(),
        flip_bit in 0u8..8,
    ) {
        let mut bytes = encode_frame(&Frame::Submit(SubmitRequest {
            client_tag: tag,
            class: "fuzz".to_owned(),
            budget_ms: budget,
            want_progress: tag % 2 == 0,
            payload: vec![1.0, -2.5, 3.75],
            routing_key: Some(tag ^ 0xABCD),
            model: if tag % 3 == 0 { None } else { Some("variant-b".to_owned()) },
            tenant: if budget % 2 == 0 { Some("acme".to_owned()) } else { None },
            epoch: if tag % 5 == 0 { Some(tag >> 3) } else { None },
        }));
        let pos = flip_pos as usize % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        let _ = decode_frame(&bytes);
    }

    /// Every prefix of a valid frame decodes as Truncated (or a typed
    /// error), never a panic or a bogus success.
    #[test]
    fn decoder_survives_truncation(cut in any::<u16>()) {
        let bytes = encode_frame(&Frame::Submit(SubmitRequest {
            client_tag: 9,
            class: "truncate".to_owned(),
            budget_ms: 100,
            want_progress: true,
            payload: vec![0.5; 16],
            routing_key: Some(7),
            model: Some("full".to_owned()),
            tenant: Some("tenant-a".to_owned()),
            epoch: Some(3),
        }));
        let cut = cut as usize % bytes.len();
        prop_assert!(decode_frame(&bytes[..cut]).is_err(), "prefix must not decode");
    }

    /// Submit frames round-trip exactly through encode/decode — including
    /// the trailing model / tenant addressing fields.
    #[test]
    fn submit_roundtrips(
        tag in any::<u64>(),
        budget in any::<u64>(),
        want_progress in any::<bool>(),
        payload in prop::collection::vec(-1000.0f32..1000.0, 0..32),
        model in prop::option::of(name_strategy()),
        tenant in prop::option::of(name_strategy()),
        epoch in prop::option::of(any::<u64>()),
    ) {
        let frame = Frame::Submit(SubmitRequest {
            client_tag: tag,
            class: "class-\u{3b1}".to_owned(), // non-ASCII survives too
            budget_ms: budget,
            want_progress,
            payload,
            routing_key: if tag % 2 == 0 { Some(tag) } else { None },
            model,
            tenant,
            epoch,
        });
        let bytes = encode_frame(&frame);
        let (decoded, used) = decode_frame(&bytes).expect("own encoding decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, frame);
    }

    /// v1 interop: a peer that predates the model registry ends the
    /// Submit payload after the routing key (or even before it). Both
    /// legacy shapes must decode as "default model, anonymous tenant",
    /// whatever the rest of the frame holds.
    #[test]
    fn legacy_submits_without_trailing_fields_still_decode(
        tag in any::<u64>(),
        budget in any::<u64>(),
        payload in prop::collection::vec(-1000.0f32..1000.0, 0..16),
        keyed in any::<bool>(),
        drop_routing_key_too in any::<bool>(),
    ) {
        let full = Frame::Submit(SubmitRequest {
            client_tag: tag,
            class: "legacy".to_owned(),
            budget_ms: budget,
            want_progress: false,
            payload,
            routing_key: if keyed && !drop_routing_key_too { Some(tag) } else { None },
            model: None,
            tenant: None,
            epoch: None,
        });
        let mut bytes = encode_frame(&full);
        // Strip the trailing absent-field tags a legacy encoder never
        // writes: model + tenant + epoch (3 bytes), optionally
        // routing_key too (1 more byte when None), then re-seal length
        // + checksum.
        let strip = if drop_routing_key_too { 4 } else { 3 };
        bytes.truncate(bytes.len() - strip);
        let len = (bytes.len() - 12) as u32;
        bytes[4..8].copy_from_slice(&len.to_le_bytes());
        let sum = eugene_net::wire::checksum(&bytes[12..]);
        bytes[8..12].copy_from_slice(&sum.to_le_bytes());

        let (decoded, used) = decode_frame(&bytes).expect("legacy frame decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, full);
    }
}

/// A live gateway fed raw garbage on many connections must keep serving
/// well-formed clients.
#[test]
fn gateway_survives_garbage_connections() {
    let gateway = start_gateway(
        vec![0.9],
        Duration::ZERO,
        RuntimeConfig::default(),
        GatewayConfig::default(),
    );
    let addr = gateway.local_addr();

    let mut rng_state = 0x5EED_u64;
    let mut next = move || {
        // SplitMix64 keeps the garbage deterministic.
        rng_state = rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for round in 0..24 {
        let mut stream = TcpStream::connect(addr).expect("connect garbage stream");
        let len = (next() % 200) as usize + 1;
        let garbage: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        // Some rounds start with valid magic so the server walks deeper
        // into the header before hitting nonsense.
        let _ = match round % 3 {
            0 => stream.write_all(&garbage),
            1 => stream
                .write_all(&[0xEB, 0x9E])
                .and_then(|_| stream.write_all(&garbage)),
            _ => {
                // Truncated-but-valid prefix: write half a real frame.
                let bytes = encode_frame(&Frame::Ping { nonce: next() });
                stream.write_all(&bytes[..bytes.len() / 2])
            }
        };
        drop(stream);
    }

    // The gateway must still answer a well-behaved client.
    let client = MultiplexClient::new(addr, ClientConfig::default()).expect("resolve loopback");
    let rtt = client
        .ping(Duration::from_secs(5))
        .expect("gateway still alive");
    assert!(rtt < Duration::from_secs(5));
    let outcome = client
        .infer("sane", &[11.0], Duration::from_secs(10))
        .expect("gateway still serves inference");
    assert_eq!(outcome.predicted, Some(11));
    gateway.shutdown();
}
