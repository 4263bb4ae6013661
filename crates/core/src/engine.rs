use eugene_nn::StagedNetwork;
use eugene_serve::{EngineSession, InferenceEngine, StageReport};
use eugene_tensor::{argmax, softmax, Matrix};
use std::sync::Arc;

/// Adapts a trained [`StagedNetwork`] to the serving runtime's
/// [`InferenceEngine`] interface, so the paper's worker pool can execute
/// real network stages.
///
/// # Examples
///
/// ```
/// use eugene_nn::{StagedNetwork, StagedNetworkConfig};
/// use eugene_serve::InferenceEngine;
/// use eugene_service::StagedNetworkEngine;
/// use eugene_tensor::seeded_rng;
/// use std::sync::Arc;
///
/// let config = StagedNetworkConfig {
///     input_dim: 4,
///     num_classes: 3,
///     stage_widths: vec![vec![8], vec![8]],
///     dropout: 0.0,
///     input_skip: false,
/// };
/// let net = StagedNetwork::new(&config, &mut seeded_rng(0));
/// let engine = StagedNetworkEngine::new(Arc::new(net));
/// let mut session = engine.begin(&[0.1, 0.2, 0.3, 0.4]);
/// let report = session.next_stage().expect("stage 1");
/// assert!(report.confidence > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct StagedNetworkEngine {
    network: Arc<StagedNetwork>,
}

impl StagedNetworkEngine {
    /// Wraps a shared network.
    pub fn new(network: Arc<StagedNetwork>) -> Self {
        Self { network }
    }

    /// The wrapped network.
    pub fn network(&self) -> &Arc<StagedNetwork> {
        &self.network
    }
}

impl InferenceEngine for StagedNetworkEngine {
    fn num_stages(&self) -> usize {
        self.network.num_stages()
    }

    fn stage_precision(&self, stage: usize) -> eugene_serve::Precision {
        self.network.stage_precision(stage)
    }

    fn begin(&self, payload: &[f32]) -> Box<dyn EngineSession> {
        // Payloads arrive from untrusted network clients; a width mismatch
        // must yield an empty session (zero stages, no prediction) rather
        // than reach a panicking matmul inside a worker.
        let valid = payload.len() == self.network.input_dim();
        Box::new(NetworkSession {
            network: Arc::clone(&self.network),
            input: Matrix::row_vector(payload),
            hidden: Matrix::row_vector(payload),
            done: 0,
            valid,
        })
    }

    fn next_stage_batch(&self, batch: &mut [Box<dyn EngineSession>]) -> Vec<Option<StageReport>> {
        let mut reports: Vec<Option<StageReport>> = batch.iter().map(|_| None).collect();
        // Group fusable sessions by the stage they are about to run. The
        // runtime gathers per stage, so normally there is exactly one
        // group; grouping defends against callers that mix stages. A
        // session is fusable only if it runs *this* engine's network —
        // rows of a fused forward all go through the same weights.
        let mut groups: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        let mut singles: Vec<usize> = Vec::new();
        for (i, session) in batch.iter_mut().enumerate() {
            match session.as_any_mut().downcast_mut::<NetworkSession>() {
                Some(s)
                    if Arc::ptr_eq(&s.network, &self.network)
                        && s.valid
                        && s.done < s.network.num_stages() =>
                {
                    groups.entry(s.done).or_default().push(i);
                }
                _ => singles.push(i),
            }
        }
        for i in singles {
            reports[i] = batch[i].next_stage();
        }
        for (stage, members) in groups {
            // Gather members' hidden rows and raw inputs; row `r` of the
            // fused stage is bitwise what request `r` would get alone,
            // so scattering it back is exact (see `run_stage`).
            let mut hidden_rows: Vec<f32> = Vec::new();
            let mut raw_rows: Vec<f32> = Vec::new();
            for &i in &members {
                let s = network_session(&mut batch[i]);
                hidden_rows.extend_from_slice(s.hidden.row(0));
                raw_rows.extend_from_slice(s.input.row(0));
            }
            let hcols = hidden_rows.len() / members.len();
            let gathered = Matrix::from_vec(members.len(), hcols, hidden_rows);
            let raw = Matrix::from_vec(members.len(), self.network.input_dim(), raw_rows);
            let (hidden, logits) = run_stage(&self.network, stage, &gathered, &raw);
            for (r, &i) in members.iter().enumerate() {
                let s = network_session(&mut batch[i]);
                s.hidden = Matrix::row_vector(hidden.row(r));
                s.done += 1;
                let probs = softmax(logits.row(r));
                let predicted = argmax(&probs);
                reports[i] = Some(StageReport {
                    predicted,
                    confidence: probs[predicted],
                });
            }
        }
        reports
    }

    fn plan_cache_stats(&self) -> Option<eugene_serve::PlanCacheStats> {
        let s = self.network.plan_cache().stats();
        Some(eugene_serve::PlanCacheStats {
            hits: s.hits,
            misses: s.misses,
            invalidations: s.invalidations,
            entries: s.entries,
            generation: s.generation,
        })
    }
}

/// Executes `stage` over `hidden.rows()` requests at once, returning
/// `(hidden, logits)`. Every serving dispatch — a fused micro-batch or
/// a batch of one — runs the compiled, cached stage plan for its row
/// count: fused GEMM epilogues, the layers' shared pre-packed panels,
/// pooled intermediates, so no weight is packed at request time.
/// `plan_parity` holds plans bitwise-equal to the layer walk at every
/// row count, which keeps the walk below only for stages holding a
/// layer the op IR cannot express; there the blocked kernels still
/// accumulate each output row in a fixed k-order independent of the
/// row count.
fn run_stage(
    network: &StagedNetwork,
    stage: usize,
    hidden: &Matrix,
    raw: &Matrix,
) -> (Matrix, Matrix) {
    match network.stage_plan(stage, hidden.rows()) {
        Ok(plan) => plan.execute(network, hidden, raw),
        Err(_) => {
            use eugene_nn::Layer;
            // Mirror the trunk's shortcut wiring: stages after the
            // first see [previous output | raw input].
            let stage_in = if stage > 0 && network.input_skip() {
                hidden.hconcat(raw)
            } else {
                hidden.clone()
            };
            let hidden = network.stages()[stage].infer(&stage_in);
            let logits = network.heads()[stage].infer(&hidden);
            (hidden, logits)
        }
    }
}

/// Recovers the concrete session after the grouping pass has already
/// downcast-checked it.
fn network_session(session: &mut Box<dyn EngineSession>) -> &mut NetworkSession {
    session
        .as_any_mut()
        .downcast_mut::<NetworkSession>()
        .expect("grouped sessions were downcast-checked")
}

/// One in-flight inference over an owned network reference; stages execute
/// lazily, exactly one per [`EngineSession::next_stage`] call.
#[derive(Debug)]
struct NetworkSession {
    network: Arc<StagedNetwork>,
    input: Matrix,
    hidden: Matrix,
    done: usize,
    valid: bool,
}

impl EngineSession for NetworkSession {
    fn next_stage(&mut self) -> Option<StageReport> {
        if !self.valid || self.done >= self.network.num_stages() {
            return None;
        }
        let (hidden, logits) = run_stage(&self.network, self.done, &self.hidden, &self.input);
        self.hidden = hidden;
        let probs = softmax(logits.row(0));
        let predicted = argmax(&probs);
        self.done += 1;
        Some(StageReport {
            predicted,
            confidence: probs[predicted],
        })
    }

    fn stages_done(&self) -> usize {
        self.done
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eugene_nn::StagedNetworkConfig;
    use eugene_tensor::seeded_rng;

    fn engine() -> StagedNetworkEngine {
        let config = StagedNetworkConfig {
            input_dim: 4,
            num_classes: 3,
            stage_widths: vec![vec![6], vec![6], vec![5]],
            dropout: 0.0,
            input_skip: false,
        };
        StagedNetworkEngine::new(Arc::new(StagedNetwork::new(&config, &mut seeded_rng(1))))
    }

    #[test]
    fn session_matches_direct_classification() {
        let engine = engine();
        let sample = [0.3, -0.1, 0.7, 0.2];
        let direct = engine.network().classify(&sample);
        let mut session = engine.begin(&sample);
        for expected in direct {
            let got = session.next_stage().unwrap();
            assert_eq!(got.predicted, expected.predicted);
            assert!((got.confidence - expected.confidence).abs() < 1e-6);
        }
        assert!(session.next_stage().is_none());
    }

    #[test]
    fn sessions_are_independent() {
        let engine = engine();
        let mut a = engine.begin(&[1.0, 0.0, 0.0, 0.0]);
        let mut b = engine.begin(&[0.0, 0.0, 0.0, 1.0]);
        let ra = a.next_stage().unwrap();
        let rb = b.next_stage().unwrap();
        // Different inputs, same network: reports may differ, but sessions
        // must not interfere with each other's progress.
        assert_eq!(a.stages_done(), 1);
        assert_eq!(b.stages_done(), 1);
        let _ = (ra, rb);
    }

    #[test]
    fn engine_reports_stage_count() {
        assert_eq!(engine().num_stages(), 3);
    }

    #[test]
    fn wrong_width_payload_yields_an_empty_session() {
        // Network clients control the payload; a mismatched width must not
        // panic a worker — it produces a session that executes no stages.
        let engine = engine();
        for payload in [&[][..], &[0.1][..], &[0.0; 9][..]] {
            let mut session = engine.begin(payload);
            assert!(session.next_stage().is_none());
            assert_eq!(session.stages_done(), 0);
        }
    }

    #[test]
    fn fused_batch_is_bitwise_identical_to_solo_sessions() {
        // The serving runtime scatters row `i` of a fused forward back to
        // request `i` as if it had run alone — which is only sound if the
        // kernels make batched rows bitwise-equal to solo rows. Exercise
        // the input-skip wiring too: it is the trickiest gather path.
        let config = StagedNetworkConfig {
            input_dim: 5,
            num_classes: 4,
            stage_widths: vec![vec![7], vec![6], vec![8]],
            dropout: 0.0,
            input_skip: true,
        };
        let engine =
            StagedNetworkEngine::new(Arc::new(StagedNetwork::new(&config, &mut seeded_rng(11))));
        let payloads: Vec<Vec<f32>> = (0..4)
            .map(|i| (0..5).map(|c| (i * 5 + c) as f32 * 0.13 - 1.0).collect())
            .collect();

        let solo: Vec<Vec<StageReport>> = payloads
            .iter()
            .map(|p| {
                let mut session = engine.begin(p);
                std::iter::from_fn(|| session.next_stage()).collect()
            })
            .collect();

        let mut batch: Vec<Box<dyn EngineSession>> =
            payloads.iter().map(|p| engine.begin(p)).collect();
        // The loop variable drives repeated fused calls, not iteration
        // over `solo`.
        #[allow(clippy::needless_range_loop)]
        for stage in 0..engine.num_stages() {
            let reports = engine.next_stage_batch(&mut batch);
            assert_eq!(reports.len(), batch.len());
            for (i, report) in reports.iter().enumerate() {
                let got = report.expect("stage report for every live session");
                let want = solo[i][stage];
                assert_eq!(got.predicted, want.predicted);
                assert_eq!(
                    got.confidence.to_bits(),
                    want.confidence.to_bits(),
                    "stage {stage}, session {i}: fused confidence must be \
                     bitwise-identical to the solo run"
                );
            }
        }
        assert!(engine
            .next_stage_batch(&mut batch)
            .iter()
            .all(Option::is_none));
    }

    /// A layer the op IR has no lowering for: halves its input.
    #[derive(Clone)]
    struct Halve;

    impl eugene_nn::Layer for Halve {
        fn forward(&mut self, input: &Matrix) -> Matrix {
            self.infer(input)
        }
        fn backward(&mut self, grad_output: &Matrix) -> Matrix {
            self.infer(grad_output)
        }
        fn infer(&self, input: &Matrix) -> Matrix {
            input.map(|v| v * 0.5)
        }
        fn describe(&self) -> String {
            "halve".into()
        }
        fn clone_box(&self) -> Box<dyn eugene_nn::Layer> {
            Box::new(self.clone())
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn uncompilable_stage_falls_back_to_the_layer_walk() {
        use eugene_nn::{Linear, Sequential};
        let mut rng = seeded_rng(21);
        let mut block = Sequential::new();
        block.push(Linear::new(4, 6, &mut rng));
        block.push(Halve);
        let head = Linear::new(6, 3, &mut rng);
        let network = Arc::new(StagedNetwork::from_parts(
            vec![block],
            vec![head],
            4,
            3,
            false,
        ));
        assert!(network.stage_plan(0, 1).is_err(), "no lowering for Halve");
        let engine = StagedNetworkEngine::new(Arc::clone(&network));
        let payloads = [[0.3, -0.1, 0.7, 0.2], [0.9, 0.4, -0.6, 0.1]];

        let mut batch: Vec<Box<dyn EngineSession>> =
            payloads.iter().map(|p| engine.begin(p)).collect();
        let fused = engine.next_stage_batch(&mut batch);
        for (payload, fused) in payloads.iter().zip(fused) {
            let want = &network.classify(payload)[0];
            let solo = engine.begin(payload).next_stage().unwrap();
            for got in [solo, fused.unwrap()] {
                assert_eq!(got.predicted, want.predicted);
                assert_eq!(got.confidence.to_bits(), want.confidence.to_bits());
            }
        }
        assert_eq!(network.plan_cache().stats().entries, 0);
    }

    #[test]
    fn mixed_batch_isolates_unfusable_sessions() {
        let engine = engine();
        let sample = [0.3, -0.1, 0.7, 0.2];
        let solo_first = {
            let mut s = engine.begin(&sample);
            s.next_stage().unwrap()
        };

        // An invalid-width session, an exhausted session, and two live ones.
        let mut exhausted = engine.begin(&sample);
        while exhausted.next_stage().is_some() {}
        let mut batch: Vec<Box<dyn EngineSession>> = vec![
            engine.begin(&[1.0]),
            exhausted,
            engine.begin(&sample),
            engine.begin(&sample),
        ];
        let reports = engine.next_stage_batch(&mut batch);
        assert!(reports[0].is_none(), "invalid payload never reports");
        assert!(reports[1].is_none(), "finished session never reports");
        for i in [2, 3] {
            let got = reports[i].expect("live sessions still progress");
            assert_eq!(got.predicted, solo_first.predicted);
            assert_eq!(got.confidence.to_bits(), solo_first.confidence.to_bits());
            assert_eq!(batch[i].stages_done(), 1);
        }
    }

    #[test]
    fn batch_members_at_different_stages_still_match_solo_runs() {
        // The runtime's per-stage buckets make mixed-stage batches
        // unlikely, but the engine must stay correct if handed one.
        let engine = engine();
        let ahead_payload = [0.9, 0.1, -0.4, 0.6];
        let behind_payload = [0.2, 0.8, 0.5, -0.3];
        let mut ahead = engine.begin(&ahead_payload);
        ahead.next_stage();
        let mut batch: Vec<Box<dyn EngineSession>> = vec![ahead, engine.begin(&behind_payload)];
        let reports = engine.next_stage_batch(&mut batch);

        let mut solo_ahead = engine.begin(&ahead_payload);
        solo_ahead.next_stage();
        let want_ahead = solo_ahead.next_stage().unwrap();
        let want_behind = engine.begin(&behind_payload).next_stage().unwrap();
        assert_eq!(
            reports[0].unwrap().confidence.to_bits(),
            want_ahead.confidence.to_bits()
        );
        assert_eq!(
            reports[1].unwrap().confidence.to_bits(),
            want_behind.confidence.to_bits()
        );
        assert_eq!(batch[0].stages_done(), 2);
        assert_eq!(batch[1].stages_done(), 1);
    }

    #[test]
    fn session_matches_classification_with_input_skip() {
        // Regression test: the session must mirror the trunk's shortcut
        // wiring, or stage 2's matmul sees the wrong width.
        let config = StagedNetworkConfig {
            input_dim: 5,
            num_classes: 3,
            stage_widths: vec![vec![4], vec![6], vec![6]],
            dropout: 0.0,
            input_skip: true,
        };
        let engine =
            StagedNetworkEngine::new(Arc::new(StagedNetwork::new(&config, &mut seeded_rng(7))));
        let sample = [0.2, -0.4, 0.6, 0.1, 0.9];
        let direct = engine.network().classify(&sample);
        let mut session = engine.begin(&sample);
        for expected in direct {
            let got = session.next_stage().unwrap();
            assert_eq!(got.predicted, expected.predicted);
            assert!((got.confidence - expected.confidence).abs() < 1e-6);
        }
    }
}
