//! `--compare A.json B.json`: the tool that decides whether two sets of
//! runs differ. A results file is what `--suite --out` writes:
//! `{"host": {...}, "runs": [{"workload", "seed", "metrics": {name: {"value", "unit"}}}]}`,
//! each run's `metrics` being the `metrics` of its result line.

use crate::catalog::{self, Metric};
use crate::workload;
use serde::Value;
use std::collections::BTreeMap;

/// `(workload, metric) → values`, one per run.
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

pub fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let root: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = root
        .as_object()
        .and_then(|o| serde::obj_get(o, "runs"))
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    let mut samples = Samples::new();
    for run in runs {
        let entries = run
            .as_object()
            .ok_or_else(|| format!("{path}: a run is not an object"))?;
        let workload = serde::obj_get(entries, "workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: a run names no workload"))?;
        let metrics = serde::obj_get(entries, "metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{path}: a run has no metrics"))?;
        for (name, metric) in metrics {
            let value = metric
                .as_object()
                .and_then(|m| serde::obj_get(m, "value"))
                .and_then(number)
                .ok_or_else(|| format!("{path}: {name} has no numeric value"))?;
            samples
                .entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(samples)
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (exclusive method), so spreads here read the same as the driver's.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median; 0 for a single run.
pub fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |[q1, q2, q3]| {
        (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `B`'s median is worse than `A`'s by more than the bound.
    Regressed,
    /// Run-to-run spread is wider than the bound: no claim either way.
    Unresolved,
    /// A side has no run of this workload, or the sides have different
    /// numbers of runs: a suite that stopped half-way proves nothing.
    Missing,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

#[derive(Debug)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static Metric,
    pub runs_a: usize,
    pub runs_b: usize,
    pub median_a: f64,
    pub median_b: f64,
    pub worse_by: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// One row per (workload, end-to-end metric) of the catalog, whether or
/// not the files hold it: a pairing neither side measured must show up as
/// `missing`, not vanish from the table.
pub fn compare(a: &Samples, b: &Samples) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in workload::all() {
        for metric in catalog::END_TO_END {
            let key = (workload.name.to_owned(), metric.name.to_owned());
            let values_a = a.get(&key).map_or(&[][..], Vec::as_slice);
            let values_b = b.get(&key).map_or(&[][..], Vec::as_slice);
            let mut row = Row {
                workload: workload.name,
                metric,
                runs_a: values_a.len(),
                runs_b: values_b.len(),
                median_a: f64::NAN,
                median_b: f64::NAN,
                worse_by: f64::NAN,
                spread: f64::NAN,
                verdict: Verdict::Missing,
            };
            if !values_a.is_empty() && values_a.len() == values_b.len() {
                // Python's `statistics.median`, like the quartiles.
                let median_of = |v: &[f64]| quartiles(v).map_or(v[0], |[_, q2, _]| q2);
                row.median_a = median_of(values_a);
                row.median_b = median_of(values_b);
                row.worse_by = metric.better.worse_by(row.median_a, row.median_b);
                row.spread = spread(values_a).max(spread(values_b));
                row.verdict = if row.spread > metric.bound {
                    Verdict::Unresolved
                } else if row.worse_by > metric.bound {
                    Verdict::Regressed
                } else {
                    Verdict::Ok
                };
            }
            rows.push(row);
        }
    }
    rows
}

/// Prints the table; returns whether every row is `ok`.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<20} {:<16} {:>7} {:>12} {:>12} {:>6} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "runs", "median A", "median B", "unit", "B worse", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<20} {:<16} {:>3}/{:<3} {:>12.4} {:>12.4} {:>6} {:>+8.2}% {:>7.2}% {:>6.1}%  {}",
            r.workload,
            r.metric.name,
            r.runs_a,
            r.runs_b,
            r.median_a,
            r.median_b,
            r.metric.unit,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.metric.bound * 100.0,
            r.verdict.as_str()
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} ok, {} regressed, {} unresolved, {} missing",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        count(Verdict::Missing)
    );
    count(Verdict::Ok) == rows.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    /// Every workload with the same three values for `latency_p50_ms` and
    /// a constant for every other metric.
    fn samples(p50: &[f64]) -> Samples {
        let mut samples = Samples::new();
        for w in workload::all() {
            for m in catalog::END_TO_END {
                let values = if m.name == "latency_p50_ms" {
                    p50.to_vec()
                } else {
                    vec![1.0; p50.len()]
                };
                samples.insert((w.name.to_owned(), m.name.to_owned()), values);
            }
        }
        samples
    }

    fn p50_verdicts(a: &Samples, b: &Samples) -> Vec<Verdict> {
        compare(a, b)
            .iter()
            .filter(|r| r.metric.name == "latency_p50_ms")
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn verdicts() {
        let bound = catalog::end_to_end("latency_p50_ms").unwrap().bound;
        let base = samples(&[10.0, 10.1, 9.9]);
        let verdict = |b: &Samples| p50_verdicts(&base, b)[0];
        assert_eq!(verdict(&samples(&[10.05, 10.0, 10.1])), Verdict::Ok);
        assert!(print(&compare(&base, &base)));
        let worse = 10.0 * (1.0 + bound * 1.5);
        assert_eq!(
            verdict(&samples(&[worse, worse * 1.001, worse * 0.999])),
            Verdict::Regressed
        );
        // Better by any amount is not a regression.
        assert_eq!(verdict(&samples(&[5.0, 5.01, 4.99])), Verdict::Ok);
        // A noisy side makes the row unresolved whatever the medians say.
        assert_eq!(verdict(&samples(&[5.0, 10.0, 20.0])), Verdict::Unresolved);
    }

    /// A suite that stopped before its last workload, or one run short,
    /// must not compare as a pass.
    #[test]
    fn a_half_written_side_is_missing_not_ok() {
        let base = samples(&[10.0, 10.1, 9.9]);
        let last = workload::all().last().unwrap().name;

        let mut without_last = base.clone();
        without_last.retain(|(w, _), _| w != last);
        for (a, b) in [(&base, &without_last), (&without_last, &base)] {
            let rows = compare(a, b);
            assert_eq!(rows.len(), compare(&base, &base).len());
            assert!(rows
                .iter()
                .all(|r| (r.verdict == Verdict::Missing) == (r.workload == last)));
            assert!(!print(&rows));
        }

        let mut one_run_short = base.clone();
        for values in one_run_short.values_mut() {
            values.pop();
        }
        assert!(p50_verdicts(&base, &one_run_short)
            .iter()
            .all(|v| *v == Verdict::Missing));
        assert!(!print(&compare(&Samples::new(), &Samples::new())));
    }
}
