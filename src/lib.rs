//! Eugene: deep intelligence as a service — umbrella crate.
//!
//! This crate re-exports the full reproduction of *Eugene: Towards Deep
//! Intelligence as a Service* (ICDCS 2019) so downstream users can depend
//! on a single crate:
//!
//! - [`tensor`] — dense linear algebra substrate.
//! - [`nn`] — from-scratch neural networks with staged (early-exit) heads.
//! - [`data`] — synthetic CIFAR-10 stand-in and IoT sensor streams.
//! - [`calibrate`] — ECE, reliability diagrams, entropy-regularized
//!   confidence calibration (paper Eq. 4, Table II, Fig. 2).
//! - [`gp`] — Gaussian-process confidence-curve regression and its
//!   piecewise-linear runtime compression (paper §III-B, Table III).
//! - [`profiler`] — FastDeepIoT-style execution-time profiling (Table I).
//! - [`partition`] — client/server model partitioning with early-exit
//!   awareness (paper §IV-A).
//! - [`compress`] — DeepIoT-style model reduction and reduced-model caching
//!   (paper §II-B).
//! - [`label`] — SenseGAN-style semi-supervised labeling (paper §II-A).
//! - [`sched`] — the RTDeepIoT utility-maximizing stage scheduler and its
//!   baselines with a discrete-event simulator (paper §III, Fig. 4).
//! - [`serve`] — the live serving runtime: one coordinator thread that
//!   schedules stages, enforces deadlines and collects stage results over
//!   a worker pool (paper §III-C).
//! - [`net`] — the network edge: wire protocol, TCP gateway with
//!   admission control, deadline-aware client, Poisson load generator.
//! - [`collab`] — collaborative multi-camera inferencing (paper §IV,
//!   Table IV).
//! - [`service`] — the `Eugene` façade tying the suite together (§II).
//!
//! # Examples
//!
//! ```
//! use eugene::tensor::Matrix;
//!
//! let m = Matrix::identity(3);
//! assert_eq!(m.matmul(&m), m);
//! ```

pub use eugene_calibrate as calibrate;
pub use eugene_collab as collab;
pub use eugene_compress as compress;
pub use eugene_data as data;
pub use eugene_gp as gp;
pub use eugene_label as label;
pub use eugene_net as net;
pub use eugene_nn as nn;
pub use eugene_partition as partition;
pub use eugene_profiler as profiler;
pub use eugene_sched as sched;
pub use eugene_serve as serve;
pub use eugene_service as service;
pub use eugene_tensor as tensor;
