//! Live serving runtime for staged inference (paper §III-C).
//!
//! The paper's proof-of-concept runs the scheduler in user space: "The
//! scheduler spawns a pool of worker processes. These processes wait on
//! input images to arrive ... The confidence in classification will then
//! be sent to our user-level scheduler through a named pipe in linux ...
//! A daemon process monitors the elapsed time for each task. If the
//! elapsed time for a task exceeds the maximum latency constraint, the
//! daemon process will send a signal to stop the current computation."
//!
//! This crate reproduces that architecture with threads standing in for
//! processes and channels standing in for named pipes. The coordinator
//! thread plays both the scheduler and the daemon: workers send every
//! stage result back on its one completion channel, and each coordinator
//! pass kills whatever is past its deadline.
//!
//! Each request is answered through the [`ReplySink`] its submitter
//! passed to [`ServingRuntime::submit_to`]: a worker sends a
//! [`Reply::Stage`] per finished stage if the submitter asked for them,
//! before it reports the stage to the coordinator, and the coordinator
//! sends exactly one [`Reply::Final`] after it — so a request's stage
//! replies always come before its final one.
//!
//! - [`WorkerPool`]: a fixed pool of worker threads executing stage jobs;
//! - [`ServingRuntime`]: the coordinator gluing a staged model
//!   ([`InferenceEngine`]), a stage scheduler
//!   ([`eugene_sched::Scheduler`]) and the pool into a request/reply
//!   service;
//! - [`ServiceClass`]: per-class latency constraints (the paper's §V
//!   extension: "the scheduler ... needs to be modified to support
//!   multiple service classes");
//! - [`OverloadPolicy`]: how deadline pressure resolves — kill (report
//!   `expired`) or degrade (utility-density scheduling plus anytime
//!   degradation: force an earlier exit and return the partial answer).
//!
//! # Examples
//!
//! See `examples/serving_pipeline.rs` at the repository root, which serves
//! a trained staged network through this runtime.

mod accounting;
mod batch;
mod engine;
mod pool;
mod registry;
mod request;
mod runtime;
mod stats;

pub use accounting::{ClassUsage, PricingModel, UsageLedger};
pub use engine::{EngineSession, InferenceEngine, StageReport};
pub use eugene_profiler::{PlanCacheStats, Precision, StageCostModel};
pub use pool::WorkerPool;
pub use registry::{ModelRegistry, RegistryError, VariantDispatcher, DEFAULT_MODEL};
pub use request::{
    InferenceRequest, InferenceResponse, Reply, ReplySink, RequestId, ServiceClass, StageProgress,
};
pub use runtime::{OverloadPolicy, RuntimeConfig, ServingRuntime};
pub use stats::{ModelBreakdown, RuntimeStats, StatsSnapshot, TenantBreakdown};
