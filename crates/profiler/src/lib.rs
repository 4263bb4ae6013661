//! Execution-time profiling of neural-network layers (paper §II-C,
//! Table I; FastDeepIoT-style, the paper's \[9\]).
//!
//! The paper's Table I shows that on a mobile device the execution time of
//! a convolutional layer is **not** a linear function of its FLOP count:
//! layers with identical FLOPs differ by ~2.6x, and a layer with *more*
//! FLOPs can run *faster*. The cause is regime changes in the underlying
//! GEMM kernels (SIMD tile occupancy across output channels, cache
//! blocking across input channels). The remedy, per FastDeepIoT, is an
//! automated profiler that "breaks execution models into piece-wise linear
//! regions" and fits a regression per region.
//!
//! This crate provides:
//!
//! - [`ConvSpec`] and [`ConvSpec::flops`]: layer descriptions and FLOP
//!   counting;
//! - [`DeviceModel`]: an analytic mobile-CPU latency model calibrated so
//!   the four Table I rows land on the paper's measured numbers (within a
//!   few percent) — this is our stand-in for the Nexus 5 testbed;
//! - [`PwlRegressionTree`]: a CART-style regression tree with linear leaf
//!   models — the piecewise-linear profiler — plus a naive
//!   linear-in-FLOPs baseline [`FlopsLinearModel`] that demonstrably fails
//!   on the same data;
//! - [`StageCostModel`]: the per-stage cost accessor the serving
//!   runtime's utility-density scheduler reads — analytic priors (priced
//!   on a [`DeviceModel`]) refined online by measured stage latencies.
//!
//! # Examples
//!
//! ```
//! use eugene_profiler::{ConvSpec, DeviceModel};
//!
//! let device = DeviceModel::nexus5_class();
//! let cnn1 = ConvSpec::same_padding(8, 32, 3, 224);
//! let cnn2 = ConvSpec::same_padding(32, 8, 3, 224);
//! assert_eq!(cnn1.flops(), cnn2.flops());
//! // Equal FLOPs, very different latency (Table I).
//! assert!(device.latency_ms(&cnn2) > 2.0 * device.latency_ms(&cnn1));
//! ```

mod device;
mod flops;
mod stage_cost;
mod tree;

pub use device::DeviceModel;
pub use flops::ConvSpec;
pub use stage_cost::StageCostModel;
// Re-exported so cost-model consumers (the serving runtime) can tag
// observations, and report plan-cache counters, without a direct tensor
// dependency.
pub use eugene_tensor::{PlanCacheStats, Precision};
pub use tree::{FlopsLinearModel, PwlRegressionTree, TreeConfig};
