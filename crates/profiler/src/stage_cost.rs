use crate::{ConvSpec, DeviceModel};
use eugene_tensor::Precision;

/// Per-stage execution-cost model for a staged network: analytic priors
/// refined online by measured stage latencies.
///
/// The serving runtime's utility-density scheduler needs Δtime — how long
/// the *next* stage of a request will take — before it has run that stage
/// even once. The priors supply that cold-start estimate (priced from the
/// §II-C device model, or any other source), and every measured stage
/// execution then folds into an exponential moving average, so the
/// estimate converges on the deployment's real per-stage latency without
/// ever being undefined.
///
/// # Examples
///
/// ```
/// use eugene_profiler::StageCostModel;
///
/// let mut cost = StageCostModel::from_priors(vec![2.0, 4.0, 8.0]);
/// assert_eq!(cost.estimate_ms(1), 4.0);
/// // Measurements pull the estimate toward observed reality.
/// for _ in 0..100 {
///     cost.observe_ms(1, 10.0);
/// }
/// assert!((cost.estimate_ms(1) - 10.0).abs() < 0.5);
/// // Stages beyond the model fall back to the deepest known stage.
/// assert_eq!(cost.estimate_ms(9), cost.estimate_ms(2));
/// ```
/// Measurements are kept in separate lanes per [`Precision`]: a stage
/// served quantized (i8 kernels) runs several times faster than the
/// same stage in f32, so folding both into one EMA would poison the
/// estimate for whichever precision runs less often. The untagged
/// `observe_ms`/`estimate_ms` are the f32 lane; quantized callers use
/// the `_precision_` variants.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCostModel {
    /// Analytic prior per stage, in milliseconds.
    priors_ms: Vec<f64>,
    /// Measured EMA per stage and precision lane; `None` until that
    /// (stage, precision) pair has run once.
    measured_ms: Vec<[Option<f64>; Precision::COUNT]>,
    /// EMA smoothing factor in `(0, 1]`: weight of the newest sample.
    alpha: f64,
}

/// Fallback estimate when a model is built with no stages at all.
const DEFAULT_STAGE_MS: f64 = 1.0;

impl StageCostModel {
    /// Builds a model from analytic per-stage priors in milliseconds.
    /// Non-finite or non-positive priors are clamped to a small epsilon
    /// so densities derived from them stay finite.
    pub fn from_priors(priors_ms: Vec<f64>) -> Self {
        let priors_ms: Vec<f64> = priors_ms
            .into_iter()
            .map(|p| if p.is_finite() && p > 0.0 { p } else { 1e-3 })
            .collect();
        let measured_ms = vec![[None; Precision::COUNT]; priors_ms.len()];
        Self {
            priors_ms,
            measured_ms,
            alpha: 0.2,
        }
    }

    /// A flat prior: `num_stages` stages of `stage_ms` each.
    pub fn uniform(num_stages: usize, stage_ms: f64) -> Self {
        Self::from_priors(vec![stage_ms; num_stages])
    }

    /// Prices each stage (a sequence of layers) on a device model — the
    /// §II-C profiler supplying the scheduler's cold-start Δtime.
    pub fn from_device(device: &DeviceModel, stages: &[Vec<ConvSpec>]) -> Self {
        Self::from_priors(
            stages
                .iter()
                .map(|layers| device.network_latency_ms(layers))
                .collect(),
        )
    }

    /// Number of stages the model describes.
    pub fn num_stages(&self) -> usize {
        self.priors_ms.len()
    }

    /// Overrides the EMA smoothing factor (clamped to `(0, 1]`).
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha.clamp(1e-3, 1.0);
        self
    }

    /// Folds one measured f32 execution of `stage` (in milliseconds)
    /// into the moving average. Out-of-range stages and junk samples
    /// are ignored.
    pub fn observe_ms(&mut self, stage: usize, sample_ms: f64) {
        self.observe_precision_ms(stage, Precision::F32, sample_ms);
    }

    /// Folds one measured execution of `stage` at `precision` into that
    /// precision lane's moving average. Out-of-range stages and junk
    /// samples are ignored.
    pub fn observe_precision_ms(&mut self, stage: usize, precision: Precision, sample_ms: f64) {
        if stage >= self.measured_ms.len() || !sample_ms.is_finite() || sample_ms < 0.0 {
            return;
        }
        let slot = &mut self.measured_ms[stage][precision.index()];
        *slot = Some(match *slot {
            Some(ema) => ema + self.alpha * (sample_ms - ema),
            None => sample_ms,
        });
    }

    /// Best current estimate of one f32 execution of `stage`, in
    /// milliseconds: the measured EMA when the stage has run, the
    /// analytic prior otherwise. Stages past the end of the model reuse
    /// the deepest known stage (degenerate models fall back to
    /// `DEFAULT_STAGE_MS`).
    pub fn estimate_ms(&self, stage: usize) -> f64 {
        self.estimate_precision_ms(stage, Precision::F32)
    }

    /// Best current estimate of one execution of `stage` at
    /// `precision`. Each precision lane prefers its own measured EMA; a
    /// lane that has never run falls back to the analytic prior (which
    /// is f32-derived — conservative for quantized stages, and replaced
    /// by the lane's first real sample).
    pub fn estimate_precision_ms(&self, stage: usize, precision: Precision) -> f64 {
        if self.priors_ms.is_empty() {
            return DEFAULT_STAGE_MS;
        }
        let stage = stage.min(self.priors_ms.len() - 1);
        match self.measured_ms[stage][precision.index()] {
            Some(ema) => ema.max(1e-6),
            None => self.priors_ms[stage],
        }
    }

    /// Estimated cost of running stages `from..until` (exclusive) in
    /// f32, i.e. the remaining work of a request that has finished
    /// `from` stages.
    pub fn remaining_ms(&self, from: usize, until: usize) -> f64 {
        (from..until).map(|s| self.estimate_ms(s)).sum()
    }

    /// [`Self::remaining_ms`] with a per-stage precision lookup, for
    /// engines whose stages run in mixed precision.
    pub fn remaining_precision_ms(
        &self,
        from: usize,
        until: usize,
        precision_of: impl Fn(usize) -> Precision,
    ) -> f64 {
        (from..until)
            .map(|s| self.estimate_precision_ms(s, precision_of(s)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priors_answer_before_any_measurement() {
        let cost = StageCostModel::from_priors(vec![1.0, 2.0, 3.0]);
        assert_eq!(cost.estimate_ms(0), 1.0);
        assert_eq!(cost.estimate_ms(2), 3.0);
        assert_eq!(cost.remaining_ms(1, 3), 5.0);
    }

    #[test]
    fn measurements_converge_and_only_touch_their_stage() {
        let mut cost = StageCostModel::from_priors(vec![1.0, 2.0]);
        for _ in 0..200 {
            cost.observe_ms(0, 7.0);
        }
        assert!((cost.estimate_ms(0) - 7.0).abs() < 1e-3);
        assert_eq!(cost.estimate_ms(1), 2.0, "stage 1 still on its prior");
    }

    #[test]
    fn junk_samples_and_bad_stages_are_ignored() {
        let mut cost = StageCostModel::from_priors(vec![1.0]);
        cost.observe_ms(0, f64::NAN);
        cost.observe_ms(0, -5.0);
        cost.observe_ms(99, 5.0);
        assert_eq!(cost.estimate_ms(0), 1.0);
    }

    #[test]
    fn degenerate_priors_are_clamped() {
        let cost = StageCostModel::from_priors(vec![0.0, f64::INFINITY, -1.0]);
        for s in 0..3 {
            let e = cost.estimate_ms(s);
            assert!(e.is_finite() && e > 0.0, "stage {s}: {e}");
        }
        let empty = StageCostModel::from_priors(vec![]);
        assert_eq!(empty.estimate_ms(0), DEFAULT_STAGE_MS);
        assert_eq!(empty.remaining_ms(0, 3), 3.0 * DEFAULT_STAGE_MS);
    }

    #[test]
    fn device_pricing_matches_network_latency() {
        let device = DeviceModel::nexus5_class();
        let stages = vec![
            vec![ConvSpec::same_padding(8, 16, 3, 32)],
            vec![
                ConvSpec::same_padding(16, 16, 3, 32),
                ConvSpec::same_padding(16, 32, 3, 16),
            ],
        ];
        let cost = StageCostModel::from_device(&device, &stages);
        assert_eq!(cost.num_stages(), 2);
        assert!((cost.estimate_ms(0) - device.network_latency_ms(&stages[0])).abs() < 1e-9);
        assert!((cost.estimate_ms(1) - device.network_latency_ms(&stages[1])).abs() < 1e-9);
        assert!(cost.estimate_ms(1) > cost.estimate_ms(0));
    }

    #[test]
    fn precision_lanes_do_not_poison_each_other() {
        let mut cost = StageCostModel::from_priors(vec![4.0]);
        for _ in 0..200 {
            cost.observe_precision_ms(0, Precision::Int8, 1.0);
        }
        assert!((cost.estimate_precision_ms(0, Precision::Int8) - 1.0).abs() < 1e-3);
        assert_eq!(cost.estimate_ms(0), 4.0, "f32 lane still on its prior");
        for _ in 0..200 {
            cost.observe_ms(0, 8.0);
        }
        assert!((cost.estimate_ms(0) - 8.0).abs() < 1e-3);
        assert!(
            (cost.estimate_precision_ms(0, Precision::Int8) - 1.0).abs() < 1e-3,
            "int8 lane untouched by f32 samples"
        );
        let rem = cost.remaining_precision_ms(0, 1, |_| Precision::Int8);
        assert!((rem - 1.0).abs() < 1e-3);
    }

    #[test]
    fn out_of_range_stage_reuses_deepest_estimate() {
        let mut cost = StageCostModel::from_priors(vec![1.0, 4.0]);
        cost.observe_ms(1, 6.0);
        assert_eq!(cost.estimate_ms(5), cost.estimate_ms(1));
    }
}
