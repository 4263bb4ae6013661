//! Turns a phase log into verdicts and numbers: every answer is checked
//! against the in-process reference, then latencies, goodput, utility and
//! CPU per request are derived.

use crate::driver::{Outcome, Pace, PhaseLog, Traffic};
use crate::model::StageAnswers;
use crate::workload::OPEN_WINDOWS;
use std::time::Duration;

/// Nearest-rank percentile; sorts `values` in place. `p` in `(0, 1]`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    values.sort_by(f64::total_cmp);
    let rank = (p * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// The median, or 0 for no samples (a metric whose events did not occur).
pub fn median_or_zero(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0u64), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// What became of the requests of one phase.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    pub sent: u64,
    /// Correct, not expired, answered inside the class budget.
    pub good: u64,
    /// `Final` whose prediction or confidence bits differ from the
    /// reference at the reported depth.
    pub wrong_answers: u64,
    pub rejected: u64,
    pub expired: u64,
    /// `Final` that is neither expired nor carries a prediction.
    pub zero_stage: u64,
    /// Correct and not expired, but later than the class budget.
    pub late: u64,
    pub unanswered: u64,
    pub wire_errors: u64,
    pub degraded: u64,
    /// Stages executed, summed over non-expired answers.
    pub stages: u64,
    /// Σ reported confidence × class utility over good answers.
    pub utility: f64,
}

impl Tally {
    /// Requests the service did not serve as asked, whatever the reason.
    pub fn not_served(&self) -> u64 {
        self.rejected + self.expired + self.zero_stage + self.late
    }

    /// Requests the system got wrong or lost. These fail a run on every
    /// workload.
    pub fn broken(&self) -> u64 {
        self.wrong_answers + self.unanswered + self.wire_errors
    }

    /// The contract's `failed` count. A steady workload must serve
    /// everything; the overload workload sheds and degrades by design, so
    /// only what is broken counts there.
    pub fn failed(&self, steady: bool) -> u64 {
        if steady {
            self.broken() + self.not_served()
        } else {
            self.broken()
        }
    }

    pub fn failed_share(&self) -> f64 {
        (self.broken() + self.not_served()) as f64 / self.sent.max(1) as f64
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.good += other.good;
        self.wrong_answers += other.wrong_answers;
        self.rejected += other.rejected;
        self.expired += other.expired;
        self.zero_stage += other.zero_stage;
        self.late += other.late;
        self.unanswered += other.unanswered;
        self.wire_errors += other.wire_errors;
        self.degraded += other.degraded;
        self.stages += other.stages;
        self.utility += other.utility;
    }
}

/// One non-expired answer, for the latency statistics.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub tag: usize,
    /// Due time → `Final` received.
    pub latency_ns: u64,
    /// Server-side residence (`Final.latency_us`).
    pub residence_us: u64,
    /// `Final` received − write finished − residence: socket, decode,
    /// admission, dispatch and write queue as one lump.
    pub overhead_ns: u64,
}

#[derive(Debug, Default)]
pub struct Judged {
    pub tally: Tally,
    pub served: Vec<Served>,
}

/// Checks every answer of a phase against the reference and classifies
/// it.
pub fn judge(
    log: &PhaseLog,
    traffic: Traffic<'_>,
    pace: Pace,
    reference: &[StageAnswers],
) -> Judged {
    let mut judged = Judged::default();
    let tally = &mut judged.tally;
    tally.sent = log.sends.len() as u64;
    tally.wire_errors = log.wire_errors;
    for (tag, answer) in log.answers.iter().enumerate() {
        let Some(answer) = answer else {
            tally.unanswered += 1;
            continue;
        };
        let response = match &answer.outcome {
            Outcome::Reject(_) => {
                tally.rejected += 1;
                continue;
            }
            Outcome::Final(response) => response,
        };
        if response.expired {
            tally.expired += 1;
            continue;
        }
        let stages = response.stages_executed as usize;
        let (Some(predicted), Some(confidence)) = (response.predicted, response.confidence) else {
            tally.zero_stage += 1;
            continue;
        };
        let expected = &reference[traffic.schedule.payload[tag] as usize];
        if stages == 0 || expected.get(stages - 1) != Some(&(predicted, confidence.to_bits())) {
            tally.wrong_answers += 1;
            continue;
        }
        tally.stages += stages as u64;
        tally.degraded += u64::from(response.degraded);
        let sent = log.sends[tag];
        let due_ns = match pace {
            Pace::Open => traffic.schedule.due_ns[tag],
            // A closed phase has no schedule: a request is due when sent.
            Pace::Closed { .. } => sent.start_ns,
        };
        let latency_ns = answer.at_ns.saturating_sub(due_ns);
        let class = traffic.class_of(tag);
        if Duration::from_nanos(latency_ns) <= Duration::from_millis(class.budget_ms) {
            tally.good += 1;
            tally.utility += f64::from(confidence) * class.utility;
        } else {
            tally.late += 1;
        }
        judged.served.push(Served {
            tag,
            latency_ns,
            residence_us: response.latency_us,
            overhead_ns: answer
                .at_ns
                .saturating_sub(sent.end_ns)
                .saturating_sub(response.latency_us * 1000),
        });
    }
    judged
}

/// Latency percentiles of an open phase, cut into `OPEN_WINDOWS` windows
/// by due time. A reported latency is the median over windows (of every
/// round) of the window's percentile, so one bad window moves it less than
/// it would move a whole-run percentile.
#[derive(Debug, Clone)]
pub struct WindowedLatency {
    /// Per-window percentiles, in time order.
    pub window_p50_ms: Vec<f64>,
    pub window_p99_ms: Vec<f64>,
    /// Fewest samples beyond the p99 in any window.
    pub min_tail_samples: usize,
}

pub fn windowed_latency(
    served: &[Served],
    traffic: Traffic<'_>,
    phase: Duration,
) -> Option<WindowedLatency> {
    let width = phase.as_nanos() as u64 / OPEN_WINDOWS as u64;
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); OPEN_WINDOWS];
    for s in served {
        let w = (traffic.schedule.due_ns[s.tag] / width.max(1)) as usize;
        windows[w.min(OPEN_WINDOWS - 1)].push(s.latency_ns as f64 / 1e6);
    }
    if windows.iter().any(Vec::is_empty) {
        return None;
    }
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut min_tail = usize::MAX;
    for w in &mut windows {
        p50s.push(percentile(w, 0.5));
        p99s.push(percentile(w, 0.99));
        min_tail = min_tail.min(w.len() - (0.99 * w.len() as f64).ceil() as usize);
    }
    Some(WindowedLatency {
        window_p50_ms: p50s,
        window_p99_ms: p99s,
        min_tail_samples: min_tail,
    })
}

impl WindowedLatency {
    /// Median over this phase's windows of the window's median.
    pub fn p50_ms(&self) -> f64 {
        median(&mut self.window_p50_ms.clone())
    }

    /// A steady open phase must not end with a growing backlog: median
    /// latency that rose window after window to at least twice where it
    /// began is a queue that never drained, and its percentiles describe
    /// the length of the run, not the system.
    pub fn backlog_grew(&self) -> bool {
        let w = &self.window_p50_ms;
        w.windows(2).all(|pair| pair[1] > pair[0]) && w[w.len() - 1] >= 2.0 * w[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::{fake_server, instant_answer, pipe, TEST_CLASS};
    use crate::driver::{run_phase, Schedule};

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
        assert_eq!(percentile(&mut [7.0], 0.99), 7.0);
    }

    #[test]
    fn backlog_growth_needs_a_monotone_doubling() {
        let lat = |w: &[f64]| WindowedLatency {
            window_p50_ms: w.to_vec(),
            window_p99_ms: Vec::new(),
            min_tail_samples: 0,
        };
        assert!(lat(&[1.0, 2.0, 3.0, 4.0, 5.0]).backlog_grew());
        assert!(!lat(&[1.0, 1.2, 1.1, 1.3, 1.4]).backlog_grew());
        assert!(!lat(&[1.0, 1.1, 1.2, 1.3, 1.4]).backlog_grew());
    }

    /// A run must fail when the service answers something other than the
    /// reference: the fake server answers `(1, 0.5)` after three stages;
    /// a reference that agrees passes, one that differs in a single
    /// confidence bit makes every answer a wrong answer.
    #[test]
    fn a_wrong_reference_fails_every_answer() {
        let schedule = Schedule::poisson(11, 2000.0, Duration::from_millis(100), 2);
        let payloads = vec![vec![0.0f32; 4]; 2];
        let traffic = Traffic {
            schedule: &schedule,
            payloads: &payloads,
            classes: TEST_CLASS,
            keyed: false,
            want_progress: false,
        };
        let (to_server, from_client) = pipe(1 << 16, None);
        let (to_client, from_server) = pipe(1 << 16, Some(Duration::from_millis(5)));
        let server = fake_server(
            from_client,
            to_client,
            u64::MAX,
            Duration::ZERO,
            instant_answer,
        );
        let log = run_phase(
            to_server,
            from_server,
            traffic,
            Pace::Open,
            Duration::from_secs(2),
            &|| 0,
        );
        server.join().unwrap();

        let right: Vec<StageAnswers> = vec![vec![(9, 0), (9, 0), (1, 0.5f32.to_bits())]; 2];
        let judged = judge(&log, traffic, Pace::Open, &right);
        assert_eq!(judged.tally.sent, 200);
        assert_eq!(judged.tally.good, 200);
        assert_eq!(judged.tally.failed(true), 0);
        assert_eq!(judged.tally.utility, 100.0);

        let wrong: Vec<StageAnswers> = vec![vec![(9, 0), (9, 0), (1, 0.5f32.to_bits() + 1)]; 2];
        let judged = judge(&log, traffic, Pace::Open, &wrong);
        assert_eq!(judged.tally.wrong_answers, 200);
        assert_eq!(judged.tally.good, 0);
        assert_eq!(judged.tally.failed(true), 200);
        assert_eq!(
            judged.tally.failed(false),
            200,
            "wrong answers fail every workload"
        );
        assert!(judged.served.is_empty());
    }
}
