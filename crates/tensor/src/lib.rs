//! Dense matrix and vector math substrate for the Eugene reproduction.
//!
//! Eugene's staged neural networks, Gaussian-process regressors, and model
//! compression all operate on small dense matrices. This crate provides a
//! deliberately compact, dependency-light implementation of exactly the
//! linear algebra those subsystems need: a row-major [`Matrix`] with
//! matrix/vector products, element-wise maps, reductions, and the
//! probability helpers (softmax, entropy, argmax) used throughout the
//! confidence-calibration pipeline.
//!
//! # Examples
//!
//! ```
//! use eugene_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

mod alloc;
mod error;
mod kernels;
mod matrix;
mod pool;
mod precision;
mod quant;
mod rng;
mod simd;
mod stats;

pub use alloc::{is_panel_aligned, AlignedVec, PANEL_ALIGN};
pub use error::ShapeError;
pub use matrix::Matrix;
pub use pool::{parallelism, set_parallelism};
pub use precision::{PlanCacheStats, Precision};
pub use quant::{
    qgemm, quant_tier_name, quantize_symmetric, row_scales, symmetric_scale, QuantizedRhs,
};
pub use rng::{seeded_rng, standard_normal, xavier_uniform};
pub use simd::{
    avx2_fma_available, avx512_available, cpu_features, isa_tier, set_simd_mode, simd_active,
    simd_mode, CpuFeatures, PackedRhs, SimdMode,
};
pub use stats::{argmax, entropy, log_softmax, mean, softmax, softmax_in_place, std_dev, variance};
