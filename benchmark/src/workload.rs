//! The four workloads. Everything a workload fixes lives here, so a
//! reader can see at a glance which product defaults the benchmark
//! overrides (few) and which rates were frozen at calibration.

use eugene_service::OverloadPolicy;

/// Which trained model a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// `StagedNetworkConfig::three_stage(32, 10)`: compute is
    /// microseconds, plumbing dominates.
    Small,
    /// `[[512],[1024,1024],[1024,1024]]` over 256 inputs: compute
    /// dominates.
    Wide,
}

/// How the model is put behind a socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// `Eugene::serve_gateway` with this many workers.
    Gateway { workers: usize },
    /// `Eugene::serve_sharded`: this many shards of one worker each,
    /// submits keyed uniformly over `ROUTING_KEYS`.
    Sharded { shards: usize },
}

/// A service class of the traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Class {
    pub name: &'static str,
    pub budget_ms: u64,
    pub utility: f64,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub model: ModelKind,
    pub int8: bool,
    pub front: Front,
    pub confidence_threshold: f32,
    pub overload: OverloadPolicy,
    /// Traffic alternates over these classes request by request.
    pub classes: &'static [Class],
    /// Open-phase offered rate, frozen at calibration (see README).
    pub rate_rps: f64,
    /// Steady workloads must answer everything in budget; the overload
    /// workload is expected to shed and degrade.
    pub steady: bool,
    /// Fresh deployments of the (once-trained) model an end-to-end run is
    /// split over; each metric is the median over them. More for the small
    /// model: its numbers depend most on where the kernel happens to place
    /// threads, which is decided anew per deployment.
    pub rounds: usize,
}

/// Keys the sharded workload spreads its submits over.
pub const ROUTING_KEYS: u64 = 4096;

/// Outstanding requests in the closed phase.
pub const CLOSED_WINDOW: usize = 32;

/// Measurement windows per open phase; a latency metric is the median,
/// over every window of every round, of that window's percentile.
pub const OPEN_WINDOWS: usize = 2;

/// Share of `--seconds` spent in open phases; the rest is closed phases.
pub const OPEN_SHARE: f64 = 0.7;

const DEFAULT_CLASS: &[Class] = &[Class {
    name: "default",
    budget_ms: 2_000,
    utility: 1.0,
}];

const OVERLOAD_CLASSES: &[Class] = &[
    Class {
        name: "interactive",
        budget_ms: 50,
        utility: 2.0,
    },
    Class {
        name: "batch",
        budget_ms: 250,
        utility: 0.5,
    },
];

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "small-gateway",
            why: "Plumbing floor: a microsecond model, so wire codec, gateway admission, runtime coordination and gather window do nearly all the work; kernel changes must not move it.",
            model: ModelKind::Small,
            int8: false,
            front: Front::Gateway { workers: 2 },
            confidence_threshold: 1.0,
            overload: OverloadPolicy::Kill,
            classes: DEFAULT_CLASS,
            rate_rps: 3000.0,
            steady: true,
            rounds: 8,
        },
        Workload {
            name: "wide-f32-gateway",
            why: "Compute-bound f32 lane at half capacity: SIMD GEMM and compiled stage plans do most of the work; wire or gateway changes must not move it.",
            model: ModelKind::Wide,
            int8: false,
            front: Front::Gateway { workers: 2 },
            confidence_threshold: 1.0,
            overload: OverloadPolicy::Kill,
            classes: DEFAULT_CLASS,
            rate_rps: RATE_WIDE_F32,
            steady: true,
            rounds: 6,
        },
        Workload {
            name: "wide-int8-sharded",
            why: "Same layers used differently: the i8/VNNI lane instead of f32, and ShardRouter proxying on top of two one-worker gateways with keyed submits.",
            model: ModelKind::Wide,
            int8: true,
            front: Front::Sharded { shards: 2 },
            confidence_threshold: 1.0,
            overload: OverloadPolicy::Kill,
            classes: DEFAULT_CLASS,
            rate_rps: RATE_WIDE_INT8,
            steady: true,
            rounds: 6,
        },
        Workload {
            name: "wide-f32-overload",
            why: "The paper's regime at 150 % of capacity: early exit, admission shedding, utility-density ordering and anytime degradation all fire; scheduler changes move utility here only.",
            model: ModelKind::Wide,
            int8: false,
            front: Front::Gateway { workers: 2 },
            confidence_threshold: 0.9,
            overload: OverloadPolicy::Degrade,
            classes: OVERLOAD_CLASSES,
            rate_rps: RATE_WIDE_OVERLOAD,
            steady: false,
            rounds: 6,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

// Calibration record (README "Calibration"): closed-phase capacity measured
// on the seed commit, two significant figures, then frozen. They never
// adapt to the code under test.
const RATE_WIDE_F32: f64 = 2600.0;
const RATE_WIDE_INT8: f64 = 3100.0;
const RATE_WIDE_OVERLOAD: f64 = 7700.0;
