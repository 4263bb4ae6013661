//! Per-tenant admission over the wire: hard per-tenant caps bind at any
//! load, overload sheds by weighted fair share (the tenant that overshot
//! sheds first), a rogue tenant at 4x a compliant one's rate cannot push
//! the compliant tenant past its latency SLO, and anonymous traffic keeps
//! the legacy path.

mod common;

use common::start_gateway;
use eugene_net::{
    loadgen, ClassSpec, ClientConfig, ClientError, GatewayConfig, LoadgenConfig, MultiplexClient,
    PendingInference, RejectReason, SubmitOptions, TenantQuota, TenantSpec,
};
use eugene_serve::RuntimeConfig;
use std::collections::HashMap;
use std::time::{Duration, Instant};

fn one_try() -> ClientConfig {
    ClientConfig {
        max_attempts: 1,
        ..ClientConfig::default()
    }
}

/// Weighted fair-share quotas with no hard per-tenant cap.
fn weighted(tenants: &[(&str, f64)]) -> HashMap<String, TenantQuota> {
    tenants
        .iter()
        .map(|&(name, weight)| {
            let quota = TenantQuota {
                weight,
                max_in_flight: None,
            };
            (name.to_owned(), quota)
        })
        .collect()
}

fn tenant(name: &str) -> SubmitOptions {
    SubmitOptions {
        tenant: Some(name.to_owned()),
        ..SubmitOptions::default()
    }
}

fn expect_tenant_shed(err: ClientError) -> Duration {
    match err {
        ClientError::Rejected {
            reason,
            retry_after,
        } => {
            assert_eq!(reason, RejectReason::TenantOverQuota);
            retry_after
        }
        other => panic!("expected TenantOverQuota reject, got {other:?}"),
    }
}

/// Polls the gateway snapshot until `tenant` holds `n` in-flight units,
/// ordering admission decisions deterministically.
fn await_in_flight(gateway: &eugene_net::Gateway, tenant: &str, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let in_flight = gateway
            .snapshot()
            .per_tenant
            .get(tenant)
            .map(|row| row.in_flight)
            .unwrap_or(0);
        if in_flight >= n {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "tenant {tenant} never reached {n} in flight"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A hard per-tenant cap sheds only that tenant — other tenants and
/// anonymous clients ride through untouched.
#[test]
fn a_tenant_cap_sheds_only_that_tenant() {
    let mut quotas = HashMap::new();
    quotas.insert(
        "capped".to_owned(),
        TenantQuota {
            weight: 1.0,
            max_in_flight: Some(1),
        },
    );
    let gateway = start_gateway(
        vec![0.95],
        Duration::from_millis(500),
        RuntimeConfig {
            num_workers: 4,
            ..RuntimeConfig::default()
        },
        GatewayConfig {
            tenant_quotas: quotas,
            ..GatewayConfig::default()
        },
    );
    let client = MultiplexClient::new(gateway.local_addr(), one_try()).expect("connect");

    // Fill the capped tenant's single slot.
    let wedged = client
        .submit_with(
            "cap",
            &[3.0],
            Duration::from_secs(10),
            false,
            &tenant("capped"),
        )
        .expect("first request admitted");
    await_in_flight(&gateway, "capped", 1);

    // A second request for the same tenant bounces with a retry hint...
    let retry_after = expect_tenant_shed(
        client
            .infer_with("cap", &[4.0], Duration::from_secs(2), &tenant("capped"))
            .expect_err("cap binds"),
    );
    assert!(retry_after > Duration::ZERO, "shed carries a backoff hint");

    // ...while another tenant and an anonymous client sail through.
    let ok = client
        .infer_with("cap", &[5.0], Duration::from_secs(10), &tenant("other"))
        .expect("other tenant unaffected");
    assert_eq!(ok.predicted, Some(5));
    let ok = client
        .infer_with(
            "cap",
            &[6.0],
            Duration::from_secs(10),
            &SubmitOptions::default(),
        )
        .expect("anonymous unaffected");
    assert_eq!(ok.predicted, Some(6));

    let outcome = wedged
        .wait()
        .expect("capped tenant's admitted work finishes");
    assert_eq!(outcome.predicted, Some(3));

    let rows = gateway.snapshot().per_tenant;
    assert_eq!(rows["capped"].admitted, 1);
    assert_eq!(rows["capped"].shed, 1);
    assert_eq!(rows["other"].admitted, 1);
    assert_eq!(rows["other"].shed, 0);
    gateway.shutdown();
}

/// Past the high-water mark, the tenant that grew to its weighted fair
/// share sheds its own traffic first; the heavier tenant keeps being
/// admitted afterwards.
#[test]
fn overload_sheds_by_weighted_fair_share() {
    // Shares of hard_cap 8 at weights 3:1 → heavy 6, light 2.
    let quotas = weighted(&[("heavy", 3.0), ("light", 1.0)]);
    let gateway = start_gateway(
        vec![0.95],
        Duration::from_millis(1_500),
        RuntimeConfig {
            num_workers: 8,
            ..RuntimeConfig::default()
        },
        GatewayConfig {
            high_water: 2,
            hard_cap: 8,
            tenant_quotas: quotas,
            ..GatewayConfig::default()
        },
    );
    let client = MultiplexClient::new(gateway.local_addr(), one_try()).expect("connect");
    let mut held: Vec<PendingInference> = Vec::new();
    let mut wedge = |name: &str, n: u64| {
        held.push(
            client
                .submit_with(
                    "fair",
                    &[1.0],
                    Duration::from_secs(30),
                    false,
                    &tenant(name),
                )
                .expect("admitted"),
        );
        await_in_flight(&gateway, name, n);
    };

    // Heavy takes the gateway past high water, then keeps growing within
    // its share; light is admitted up to its own share.
    wedge("heavy", 1);
    wedge("heavy", 2);
    wedge("heavy", 3); // load 2 ≥ high_water, but 2 < share 6
    wedge("light", 1); // load 3, light 0 < share 2
    wedge("light", 2); // load 4, light 1 < share 2

    // Light is now at its fair share: its next request sheds...
    expect_tenant_shed(
        client
            .infer_with("fair", &[9.0], Duration::from_secs(2), &tenant("light"))
            .expect_err("light overshot its share"),
    );
    // ...while heavy — within its share — is still admitted, later in
    // time than light's shed.
    wedge("heavy", 4);

    for pending in held {
        let outcome = pending.wait().expect("admitted work completes");
        assert_eq!(outcome.predicted, Some(1));
    }
    let rows = gateway.snapshot().per_tenant;
    assert_eq!(rows["heavy"].admitted, 4);
    assert_eq!(rows["heavy"].shed, 0);
    assert_eq!(rows["light"].admitted, 2);
    assert_eq!(rows["light"].shed, 1);
    gateway.shutdown();
}

/// Isolation under overload: a compliant tenant offering ~300 req/s, well
/// inside its weighted share of the engine's ~1300 req/s, shares the
/// gateway with a rogue tenant offering 4x that. The weighted fair shares
/// (3:1 over hard_cap 48, so 36 vs 12 in flight) make the queue the rogue
/// builds past the high-water mark its own: the rogue sheds, and the
/// compliant tenant sees no error, shed or missed deadline, and a p99
/// inside its SLO.
#[test]
fn a_rogue_tenant_cannot_push_a_compliant_one_past_its_slo() {
    const SLO_MS: f64 = 200.0;
    let gateway = start_gateway(
        vec![0.4, 0.7, 0.95],
        Duration::from_millis(1),
        RuntimeConfig {
            num_workers: 4,
            confidence_threshold: 0.9,
            ..RuntimeConfig::default()
        },
        GatewayConfig {
            high_water: 12,
            hard_cap: 48,
            tenant_quotas: weighted(&[("compliant", 3.0), ("rogue", 1.0)]),
            ..GatewayConfig::default()
        },
    );
    let report = loadgen::run(&LoadgenConfig {
        addr: gateway.local_addr().to_string(),
        connections: 64,
        total_requests: 900,
        rate_hz: 1_500.0,
        classes: vec![ClassSpec {
            name: "interactive".to_owned(),
            budget_ms: 400,
            weight: 1.0,
            payload_len: 16,
        }],
        seed: 37,
        client: one_try(), // a shed must surface as a shed, not a retry
        concurrency: 64,
        tenants: vec![
            TenantSpec {
                name: "compliant".to_owned(),
                weight: 1.0,
            },
            TenantSpec {
                name: "rogue".to_owned(),
                weight: 4.0,
            },
        ],
        ..LoadgenConfig::default()
    });
    let rows = gateway.snapshot().per_tenant;
    gateway.shutdown();

    let compliant = &report.per_tenant["compliant"];
    println!(
        "compliant p99 {:.2} ms against the {SLO_MS:.0} ms SLO",
        compliant.p99_ms
    );
    assert_eq!(compliant.errors, 0, "compliant tenant must see zero errors");
    assert_eq!(
        compliant.rejected, 0,
        "the rogue's overload must never shed the compliant tenant"
    );
    assert_eq!(
        compliant.expired + compliant.deadline_exhausted,
        0,
        "compliant tenant must miss no deadlines"
    );
    assert!(
        compliant.p99_ms < SLO_MS,
        "a rogue at 4x quota must not push the compliant p99 past the \
         {SLO_MS:.0} ms SLO (saw {:.2} ms)",
        compliant.p99_ms
    );
    let rogue = &report.per_tenant["rogue"];
    assert!(
        rogue.rejected > 0,
        "the rogue's overshoot must shed its own traffic"
    );
    assert_eq!(
        rows["rogue"].shed, rogue.rejected,
        "gateway and client agree"
    );
}
