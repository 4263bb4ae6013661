//! The Eugene service façade (paper §II): one object offering the full
//! "deep intelligence as a service" suite.
//!
//! Clients of Eugene "ask the service to (i) generate deep neural network
//! models (from client-supplied training data), (ii) help with
//! (automatic) labeling of data sets, and (iii) perform model reduction
//! (if needed for caching)", with server-side support for profiling,
//! calibrated confidence, and utility-maximizing scheduling. [`Eugene`]
//! wires the substrate crates into exactly that API:
//!
//! | Service (paper §II) | Method |
//! |---|---|
//! | Training | [`Eugene::train`] |
//! | Data labeling | [`Eugene::label`] |
//! | Model reduction | [`Eugene::reduce`] |
//! | Reduced-model caching | [`Eugene::build_cached_model`] |
//! | Execution profiling | [`Eugene::profile_layer`] |
//! | Result quality (calibration) | [`Eugene::calibrate`] |
//! | Confidence-curve fitting | [`Eugene::fit_confidence_predictor`] |
//! | Run-time inference | [`Eugene::serve`] |
//! | Networked service gateway | [`Eugene::serve_gateway`] |
//! | Multi-model, multi-tenant serving | [`Eugene::serve_multi`] |
//!
//! # Examples
//!
//! ```
//! use eugene_service::{Eugene, TrainRequest};
//! use eugene_data::{SyntheticImages, SyntheticImagesConfig};
//! use eugene_tensor::seeded_rng;
//!
//! let mut rng = seeded_rng(0);
//! let gen = SyntheticImages::new(SyntheticImagesConfig::default(), &mut rng);
//! let (data, _) = gen.generate(300, &mut rng);
//!
//! let mut eugene = Eugene::new(7);
//! let model = eugene.train(TrainRequest::quick(&data))?;
//! let outputs = eugene.classify(model, data.sample(0))?;
//! assert_eq!(outputs.len(), 3);
//! # Ok::<(), eugene_service::EugeneError>(())
//! ```

mod engine;
mod error;
mod facade;

pub use engine::StagedNetworkEngine;
pub use error::EugeneError;
pub use facade::{
    DispatchPolicy, Eugene, ModelId, ModelInfo, ModelVariant, SchedulerKind, ServeOptions,
    TrainRequest,
};
// Gateway configuration surfaces through the façade's `serve_gateway` /
// `serve_multi` signatures; re-export it so callers can set admission
// caps, address models, and set tenant quotas without depending on
// eugene-net directly.
pub use eugene_net::{
    FailoverPolicy, Gateway, GatewayConfig, RebalanceConfig, ReplicaConfig, ShardConfig,
    ShardRouter, SubmitOptions, TenantQuota,
};
pub use eugene_serve::{
    ModelRegistry, OverloadPolicy, PlanCacheStats, Precision, RegistryError, VariantDispatcher,
};
