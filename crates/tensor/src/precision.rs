//! Numeric precision tags for kernel and stage execution, and the
//! counters of the compiled-plan cache that keys stage plans by them.

/// The numeric precision a computation (a layer, a network stage, a
/// kernel call) executes in.
///
/// Threaded from the kernel tier up through `eugene-nn` stage configs
/// and the serving runtime's cost model: quantized stages and f32
/// stages have very different latencies, so everything that estimates
/// or observes stage cost keys on this tag to avoid poisoning one
/// precision's EMA with the other's samples.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum Precision {
    /// Full-precision f32 kernels (the default tier).
    #[default]
    F32,
    /// Quantized i8×i8→i32 kernels with f32 dequantization.
    Int8,
}

impl Precision {
    /// Number of distinct precision tags (for per-precision tables).
    pub const COUNT: usize = 2;

    /// Stable dense index for per-precision lookup tables.
    pub fn index(self) -> usize {
        match self {
            Precision::F32 => 0,
            Precision::Int8 => 1,
        }
    }

    /// Short stable name (used in results JSON and logs).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Point-in-time counters of a compiled-plan cache: `eugene-nn`'s
/// `PlanCache` produces them, and the serving runtime surfaces them
/// through `InferenceEngine::plan_cache_stats` for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served by an already-compiled, current-generation plan.
    pub hits: u64,
    /// Lookups that compiled a new plan.
    pub misses: u64,
    /// Generation bumps (each drops every cached plan).
    pub invalidations: u64,
    /// Plans currently cached.
    pub entries: usize,
    /// Current generation tag.
    pub generation: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_stable() {
        assert_eq!(Precision::F32.index(), 0);
        assert_eq!(Precision::Int8.index(), 1);
        assert_eq!(Precision::COUNT, 2);
        assert_eq!(Precision::default(), Precision::F32);
        assert_eq!(Precision::Int8.to_string(), "int8");
    }
}
