#!/usr/bin/env bash
# The full CI gate, runnable locally. Everything here must pass before a
# change merges; CI (.github/workflows/ci.yml) runs exactly this script.
#
# Tier-1 (`cargo build --release && cargo test -q` at the root) already
# runs the umbrella package and every crate under crates/, because the
# root Cargo.toml sets `default-members = [".", "crates/*"]`. This script
# adds what tier-1 leaves out: fmt, clippy, rustdoc, the vendored crates
# (`--workspace`), the benchmark package, the `EUGENE_SIMD=0` reruns on
# the scalar kernel tier, the `--no-run` guards and the smokes.
#
# The workspace builds fully offline: every dependency is a vendored
# path crate under vendor/, so `--offline` is safe everywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Rustdoc gate: a doc link to a renamed or deleted item is an error.
# The vendored crossbeam carries a warning of its own and is left out.
echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --exclude crossbeam

echo "==> cargo build --workspace --release"
cargo build --workspace --release --offline

# The repository's benchmark (benchmark/) is a package of its own outside
# the workspace that compiles against the crates' public API. Building
# and unit-testing it right after the workspace build makes a signature
# it depends on fail here, in minutes, not after the whole suite; its
# smoke runs at the end.
echo "==> cargo test --manifest-path benchmark/Cargo.toml"
cargo test --manifest-path benchmark/Cargo.toml --offline

echo "==> cargo test --workspace -q"
cargo test --workspace -q --offline

# The workspace run above already ran every suite below once. The
# `--no-run --test <name>` lines do not run them again: they only make
# cargo fail if a named test target disappears, so a future test-file
# rename cannot silently drop a suite from the gate. Only the
# `EUGENE_SIMD=0` passes run for real, because they run the suites on
# the scalar tier, which the workspace run does not cover.
#
# In eugene-net: the event-driven latency bounds (no accept sleep, no
# forwarding tick, closed sockets leave the loop under churn), the
# router fault suite (keys land where the ring routes, pings answered
# locally, revive ordering, old connections reach a revived shard,
# zero-error loadgen through a kill, live add/remove under load), the
# per-tenant admission suite (hard caps, weighted fair shedding, a rogue
# tenant at 4x cannot push a compliant one past its SLO), the overload
# degradation suite (2x saturation in Degrade mode: zero rejects after
# admission, every Final carries >=1 stage, utility beats the kill
# baseline), and the data-aware registry (beats each single-variant
# deployment on utility at equal compute; a timing, alone in its
# process). In the root crate: the gateway's contract (hard cap under a
# pipelined burst, drain on shutdown over one or many connections, read
# backpressure, shutdown past a client that never reads) in
# `tests/gateway_contract.rs`, multiplexing (96 interleaved tags with
# stage streams on one connection, every update ahead of its Final; 10k
# requests on one connection and one thread) in `tests/multiplex.rs`,
# the registry lifecycle (load/unload with requests in flight, a model
# loaded into a running gateway serves) in `tests/registry_lifecycle.rs`,
# `serve_multi`'s fitted dispatcher (anonymous submits reach both
# variants, a wrong-width payload fails on the hard route, no data no
# runtime) in `tests/fitted_dispatcher.rs`, the client's (stale frames
# counted and dropped, a lapsed deadline abandons the request but keeps
# the connection, retry bounded by the budget) in
# `tests/client_contract.rs`, the shard router's (a kill mid-flight is
# invisible, exactly-once answers across 100x kill/revive races, no
# shard left answers ShardLost, shutdown returns with a stalled or
# silent client, a router grown from one shard fails over, an unknown
# shard index refused) in `tests/router_contract.rs`, the thread budgets
# (each counted in a process of its own): the router is one event loop
# in `tests/router_threads.rs`, and a gateway holds an idle crowd without
# gaining a thread while a live request gets through it in under a
# second in `tests/gateway_threads.rs`,
# the consistent-hash ring property suite (bounded remap, exact restore,
# restart determinism, replica placement, scale-out successors) in
# `tests/ring_properties.rs`, and the runtime's deadline contract in
# `tests/runtime_contract.rs`.
echo "==> cargo test -p eugene-net --no-run --test latency --test replica_faults --test tenants --test overload --test data_aware_registry"
cargo test -p eugene-net -q --offline --no-run \
  --test latency --test replica_faults --test tenants --test overload \
  --test data_aware_registry
echo "==> cargo test -p eugene --no-run --test gateway_contract --test multiplex --test registry_lifecycle --test fitted_dispatcher --test router_contract --test router_threads --test gateway_threads --test ring_properties"
cargo test -p eugene -q --offline --no-run \
  --test gateway_contract --test multiplex --test registry_lifecycle \
  --test fitted_dispatcher --test router_contract --test router_threads \
  --test gateway_threads --test ring_properties

# Kernel regressions: the blocked/parallel matmul paths must stay
# bitwise-equal to the naive references at every parallelism setting
# (what serving micro-batching relies on). The workspace run covers
# kernel-path auto-detection; the second pass forces the SIMD tier off
# so the scalar fallback stays under the same parity contract.
echo "==> cargo test -p eugene-tensor --no-run --test kernel_properties"
cargo test -p eugene-tensor -q --offline --no-run --test kernel_properties
echo "==> EUGENE_SIMD=0 cargo test -p eugene-tensor --test kernel_properties -q"
EUGENE_SIMD=0 cargo test -p eugene-tensor -q --offline --test kernel_properties

# The same contract at the shapes the serving path runs (batches of
# 1..=9 rows against pre-packed wide weights, f32 and i8, including a
# 1024x1024 pack that fills its allocation, and a plan chain against
# classify) — fixed seeds, so it also runs in tier-1.
echo "==> cargo test -p eugene --no-run --test kernel_contract"
cargo test -p eugene -q --offline --no-run --test kernel_contract
echo "==> EUGENE_SIMD=0 cargo test -p eugene --test kernel_contract -q"
EUGENE_SIMD=0 cargo test -p eugene -q --offline --test kernel_contract

# Plan-compiler regressions: the op-graph parity proptests (compiled
# plans, the only serving path, bitwise-equal to the layer walk, the
# reference, across architectures/batches/precisions/tier flips), the
# plan-cache lifecycle suite (hit/miss
# accounting, invalidation on every parameter-mutation funnel,
# quantize-after-compile, the concurrency hammers, one weight pack per
# layer shared by every plan shape and clone, stale/foreign plans panic
# instead of answering) and the allocation proofs (an f32 plan
# dispatch allocates nothing after warm-up; a second batch shape
# allocates under 1 % of the first's bytes; a counting allocator in a
# process of its own). The scalar pass keeps fused epilogues on both
# the vectorized and scalar tiers under the parity contract.
echo "==> cargo test -p eugene-nn --no-run --test plan_parity --test plan_cache --test plan_allocations"
cargo test -p eugene-nn -q --offline --no-run \
  --test plan_parity --test plan_cache --test plan_allocations
echo "==> EUGENE_SIMD=0 cargo test -p eugene-nn --test plan_parity --test plan_cache -q"
EUGENE_SIMD=0 cargo test -p eugene-nn -q --offline --test plan_parity --test plan_cache

# Serving-layer plan lifecycle: micro-batched dispatch compiles each
# stage once then hits, a batch of one runs the rows=1 plans bitwise
# like the layer walk on every lane, the runtime surfaces the counters,
# and a model reload never serves a stale plan.
echo "==> cargo test -p eugene-service --no-run --test plan_lifecycle"
cargo test -p eugene-service -q --offline --no-run --test plan_lifecycle
echo "==> EUGENE_SIMD=0 cargo test -p eugene-service --test plan_lifecycle -q"
EUGENE_SIMD=0 cargo test -p eugene-service -q --offline --test plan_lifecycle

# Kernel throughput smoke: exercises the scalar/SIMD/quantized GEMM
# tiers and the worker pool end to end. Quick mode asserts a
# conservative speedup floor (SIMD >= 1.5x blocked scalar, quantized
# not collapsed) so a silently de-vectorized build fails here.
echo "==> kernel_throughput --quick"
cargo run --release --offline -p eugene-bench --bin kernel_throughput -- --quick

# Fused-serving smoke: compiled-plan dispatch vs the unfused layer walk
# at 512x512, single thread. Asserts bitwise parity inline and that the
# fused plan is at least as fast as the walk (the full bench holds the
# 1.15x floor).
echo "==> kernel_throughput --fused --quick"
cargo run --release --offline -p eugene-bench --bin kernel_throughput -- --fused --quick

# Roofline smoke: stream-read bandwidth against the effective weight
# bandwidth of the serving products. Report only.
echo "==> kernel_throughput --roofline --quick"
cargo run --release --offline -p eugene-bench --bin kernel_throughput -- --roofline --quick

# The benchmark's smoke: < 60 s over all four workloads, both passes,
# with every answer checked bit for bit.
echo "==> benchmark/run.sh --smoke"
bash benchmark/run.sh --smoke

echo "CI gate passed."
