//! Networked service gateway for the Eugene serving runtime.
//!
//! The paper frames Eugene as *deep intelligence as a service*: clients on
//! the other side of a network hand inference requests to a shared
//! provider, each with a latency constraint, and the provider schedules
//! staged execution to answer as many requests as possible within their
//! deadlines. This crate supplies the missing network edge around
//! [`eugene_serve::ServingRuntime`]:
//!
//! - [`wire`]: a versioned, length-prefixed, checksummed binary framing
//!   with a typed [`wire::Frame`] codec that never panics on malformed or
//!   truncated input;
//! - [`server`]: a [`server::Gateway`] — a TCP server that multiplexes
//!   arbitrarily many in-flight requests per connection from one
//!   readiness-driven event loop that owns every socket and demuxes
//!   [`wire::Frame::StageUpdate`]/[`wire::Frame::Final`] frames by
//!   `client_tag` into per-connection write queues (a connection whose
//!   unflushed answers pass a fixed byte cap is not read until its client
//!   drains them), while admission control atomically reserves an
//!   in-flight slot per submit (so concurrent submits can never blow past
//!   `hard_cap`) and sheds load with [`wire::Frame::Reject`] above the
//!   high-water mark (lowest-utility service classes first). The gateway
//!   also fronts a [`eugene_serve::ModelRegistry`] (multiple named models,
//!   loaded and unloaded at runtime) and a per-tenant admission governor
//!   ([`TenantQuota`]) with weighted fair shedding, so one misbehaving
//!   tenant sheds its own traffic first;
//! - [`client`]: the blocking [`client::MultiplexClient`], which keeps any
//!   number of tagged requests outstanding on one connection and applies
//!   deadline-aware retry — capped exponential backoff with jitter that
//!   never retries past the request's remaining budget;
//! - [`loadgen`]: a seeded open-loop Poisson load generator whose
//!   submitter threads share a few clients, producing per-outcome counts,
//!   latency percentiles and delivered utility. It is the one load
//!   generator for tests and bench scenarios; the serving benchmark keeps
//!   its own driver;
//! - [`shard`]: a [`shard::ShardRouter`] front tier that consistently
//!   hashes routing keys across N shards, each an in-process runtime in a
//!   slot of the gateway's own event loop — a router is that loop with
//!   a slot per shard, so a submit goes straight into its shard's
//!   runtime. Every keyspace range has a replica group (primary plus warm
//!   standby); a killed shard's in-flight requests transparently replay
//!   to the standby (a [`wire::RejectReason::ShardLost`] reject answers
//!   only a request no shard can take), and shards can be added and
//!   removed live as ring edits — same wire protocol, so the client works
//!   unchanged against it.
//!
//! Deadlines cross the wire as *remaining budgets* (milliseconds), not
//! absolute times, so client and server clocks never need to agree: the
//! gateway re-anchors each budget against its own clock on receipt.
//!
//! # Examples
//!
//! See `examples/serving_over_network.rs` at the repository root, which
//! serves a staged model over a loopback socket and streams early-exit
//! progress to the client.

pub mod client;
pub mod loadgen;
pub mod reactor;
mod readiness;
pub mod server;
pub mod shard;
mod tenant;
pub mod wire;

pub use client::{
    ClientConfig, ClientError, InferenceOutcome, MultiplexClient, PendingInference, SubmitOptions,
};
pub use loadgen::{ClassSpec, LoadReport, LoadgenConfig, TenantLoadReport, TenantSpec};
pub use server::{Gateway, GatewayBackend, GatewayConfig, GatewayStatus};
pub use shard::{HashRing, ReplicaConfig, ShardConfig, ShardRouter};
pub use tenant::TenantQuota;
pub use wire::{Frame, RejectReason, SubmitRequest, WireError, WireResponse, PROTOCOL_VERSION};
