#!/usr/bin/env bash
# The full CI gate, runnable locally. Everything here must pass before a
# change merges; CI (.github/workflows/ci.yml) runs exactly this script.
#
# The workspace builds fully offline: every dependency is a vendored
# path crate under vendor/, so `--offline` is safe everywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --workspace --release"
cargo build --workspace --release --offline

echo "==> cargo test --workspace -q"
cargo test --workspace -q --offline

# Leak/multiplexing regressions, named explicitly so a future test-file
# rename cannot silently drop them from the gate: >=64 interleaved
# in-flight tags on one connection, the event loop's connection lifecycle
# (churn drains closed sockets, an idle crowd on one thread), the
# event-driven latency bounds (no accept sleep, no forwarding tick), the
# shard fault-injection suite (ShardLost on kill under the legacy Reject
# policy, survivors keep serving), the replica fault suite (transparent
# replay on kill, exactly-once answers across 100x kill/revive races,
# revive ordering, generation-keyed upstreams, live add/remove under
# load), the consistent-hash ring property suite (bounded remap, exact
# restore, restart determinism, replica placement, double-routing
# windows), the registry lifecycle suite (load/unload with requests in
# flight), the per-tenant admission suite (hard caps, weighted fair
# shedding), and the overload degradation suite (2x saturation in
# Degrade mode: zero rejects after admission, every Final carries >=1
# stage, utility beats the kill baseline). The gateway's own contract
# (hard cap under a pipelined burst, drain on shutdown, read
# backpressure) runs in the root crate's tier-1 `tests/gateway_contract.rs`.
echo "==> cargo test -p eugene-net --test multiplex --test stale_frames --test readiness --test latency --test shard_faults --test replica_faults --test ring_properties --test registry_lifecycle --test tenants --test overload -q"
cargo test -p eugene-net -q --offline \
  --test multiplex --test stale_frames --test readiness --test latency \
  --test shard_faults --test replica_faults --test ring_properties --test registry_lifecycle \
  --test tenants --test overload

# Kernel regressions, named explicitly for the same reason: the blocked/
# parallel matmul paths must stay bitwise-equal to the naive references
# at every parallelism setting (what serving micro-batching relies on).
# Run twice — once with kernel-path auto-detection and once with the
# SIMD tier forced off — so both the vectorized kernels and the scalar
# fallback stay under the same parity contract.
echo "==> cargo test -p eugene-tensor --test kernel_properties -q"
cargo test -p eugene-tensor -q --offline --test kernel_properties
echo "==> EUGENE_SIMD=0 cargo test -p eugene-tensor --test kernel_properties -q"
EUGENE_SIMD=0 cargo test -p eugene-tensor -q --offline --test kernel_properties

# The same contract at the shapes the serving path runs (batches of
# 1..=9 rows against pre-packed wide weights, f32 and i8, and a plan
# chain against classify) — fixed seeds, so it also runs in tier-1.
echo "==> cargo test -p eugene --test kernel_contract -q"
cargo test -p eugene -q --offline --test kernel_contract
echo "==> EUGENE_SIMD=0 cargo test -p eugene --test kernel_contract -q"
EUGENE_SIMD=0 cargo test -p eugene -q --offline --test kernel_contract

# Plan-compiler regressions, named explicitly for the same reason: the
# op-graph parity proptests (compiled plans bitwise-equal to the layer
# walk across architectures/batches/precisions/tier flips) and the
# plan-cache lifecycle suite (hit/miss accounting, invalidation on every
# parameter-mutation funnel, quantize-after-compile, the concurrency
# hammers, one weight pack per layer shared by every plan shape and
# clone, stale/foreign plans panic instead of answering). Run twice — once under kernel-path auto-detection and once
# with the SIMD tier forced off — so fused epilogues on both the
# vectorized and scalar tiers stay under the parity contract.
echo "==> cargo test -p eugene-nn --test plan_parity --test plan_cache -q"
cargo test -p eugene-nn -q --offline --test plan_parity --test plan_cache
echo "==> EUGENE_SIMD=0 cargo test -p eugene-nn --test plan_parity --test plan_cache -q"
EUGENE_SIMD=0 cargo test -p eugene-nn -q --offline --test plan_parity --test plan_cache

# Serving-layer plan lifecycle: micro-batched dispatch compiles each
# stage once then hits, a batch of one runs the rows=1 plans bitwise
# like the layer walk on every lane, the runtime surfaces the counters,
# and a model reload never serves a stale plan.
echo "==> cargo test -p eugene-service --test plan_lifecycle -q"
cargo test -p eugene-service -q --offline --test plan_lifecycle
echo "==> EUGENE_SIMD=0 cargo test -p eugene-service --test plan_lifecycle -q"
EUGENE_SIMD=0 cargo test -p eugene-service -q --offline --test plan_lifecycle

# Kernel throughput smoke: exercises the scalar/SIMD/quantized GEMM
# tiers and the worker pool end to end. Quick mode asserts a
# conservative speedup floor (SIMD >= 1.5x blocked scalar, quantized
# not collapsed) so a silently de-vectorized build fails here.
echo "==> kernel_throughput --quick"
cargo run --release --offline -p eugene-bench --bin kernel_throughput -- --quick

# Fused-serving smoke: compiled-plan dispatch vs the unfused layer walk
# at 512x512, single thread. Asserts bitwise parity inline, zero
# steady-state allocations after warm-up (counting global allocator),
# a second batch shape compiling with < 1 % of the first's allocated
# bytes (plans borrow the layers' weight panels), and that the fused
# plan is at least as fast as the walk (the full bench holds the 1.15x
# floor).
echo "==> kernel_throughput --fused --quick"
cargo run --release --offline -p eugene-bench --bin kernel_throughput -- --fused --quick

# Roofline smoke: stream-read bandwidth against the effective weight
# bandwidth of the serving products. Report only, except that it checks
# inline that the prefetching kernels equal their portable twins bit for
# bit on a pack that fills its allocation.
echo "==> kernel_throughput --roofline --quick"
cargo run --release --offline -p eugene-bench --bin kernel_throughput -- --roofline --quick

# Idle-connection scaling smoke: the gateway holds an idle crowd;
# asserts the event loop holds it on a single thread.
echo "==> gateway_throughput --quick --idle"
cargo run --release --offline -p eugene-bench --bin gateway_throughput -- --quick --idle

# Shard-scaling smoke: a saturated multiplexed keyed workload against the
# ShardRouter at N=1 and N=2 shards; asserts two shards beat one.
echo "==> gateway_throughput --quick --sharded"
cargo run --release --offline -p eugene-bench --bin gateway_throughput -- --quick --sharded

# Replicated-resilience smoke: a shard kill plus a live scale-out under
# single-attempt load must be invisible (zero rejects/errors), and the
# load-aware rebalancer must narrow a lumpy ring's per-shard rps spread
# well under the static control's.
echo "==> gateway_throughput --quick --replicated"
cargo run --release --offline -p eugene-bench --bin gateway_throughput -- --quick --replicated

# Overload-degradation smoke: Degrade vs Kill at rates straddling the
# saturation knee; asserts anytime degradation wins on utility per second
# past the knee.
echo "==> gateway_throughput --quick --overload"
cargo run --release --offline -p eugene-bench --bin gateway_throughput -- --quick --overload

# Multi-tenant smoke: a rogue tenant at 4x the compliant tenant's rate
# must shed its own traffic (compliant p99 inside SLO, zero errors), and
# the two-variant registry must beat both single-variant deployments on
# utility at equal compute.
echo "==> gateway_throughput --quick --tenants"
cargo run --release --offline -p eugene-bench --bin gateway_throughput -- --quick --tenants

# The repository's benchmark (benchmark/, a package of its own outside
# the workspace): its unit tests and a < 60 s smoke over all four
# workloads, both passes, with every answer checked bit for bit — so it
# cannot rot against the crates' public API.
echo "==> cargo test --manifest-path benchmark/Cargo.toml"
cargo test --manifest-path benchmark/Cargo.toml --offline
echo "==> benchmark/run.sh --smoke"
bash benchmark/run.sh --smoke

echo "CI gate passed."
