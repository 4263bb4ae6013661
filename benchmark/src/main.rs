//! `serve_bench`: the repository's benchmark. A trained staged network is
//! served through the product's front door and driven over loopback TCP
//! from this same process; every answer is checked bit for bit against the
//! in-process reference. See `benchmark/README.md`.

mod catalog;
mod compare;
mod driver;
mod host;
mod layers;
mod measure;
mod model;
mod run;
mod stack;
mod trace;
mod workload;

use run::{Report, RunConfig};
use serde::Value;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  serve_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one run; the last line of stdout is the result as one JSON object
      (--trace 0: end-to-end metrics, --trace 1: per-layer metrics)
  serve_bench --suite [--seeds 1,2,3] [--seconds <s>] --out <file.json>
      every workload at every seed with --trace 0; runs are appended to <file.json>
  serve_bench --compare <A.json> <B.json>
      per (end-to-end metric, workload): both medians, how much worse B is, the
      spread, the bound, and ok | regressed | unresolved | missing; exits non-zero
      unless all ok
  serve_bench --smoke
      every workload, both passes, at 2 s; checks the result schema, that steady
      workloads fail nothing, and BENCHMARK.json against the metric catalog
  serve_bench --benchmark-json
      prints the contents of BENCHMARK.json
workloads: small-gateway wide-f32-gateway wide-int8-sharded wide-f32-overload";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("serve_bench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The value following `flag`, if the flag is present.
fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    value_of(args, flag)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{flag} {v}: not a valid value\n{USAGE}"))
        })
        .transpose()
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let has = |flag: &str| args.iter().any(|a| a == flag);
    if has("--benchmark-json") {
        let json =
            serde_json::to_string_pretty(&catalog::benchmark_json()).map_err(|e| e.to_string())?;
        println!("{json}");
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
            return Err(format!("--compare needs two files\n{USAGE}"));
        };
        let rows = compare::compare(&compare::load(a)?, &compare::load(b)?);
        return Ok(if compare::print(&rows) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    if has("--smoke") {
        return smoke();
    }
    let seconds: f64 = parsed(args, "--seconds")?.unwrap_or(catalog::RUN_SECONDS as f64);
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds}: out of range"));
    }
    if has("--suite") {
        let out = value_of(args, "--out").ok_or(format!("--suite needs --out\n{USAGE}"))?;
        let seeds: Vec<u64> = value_of(args, "--seeds")
            .unwrap_or("1,2,3")
            .split(',')
            .map(|s| s.parse().map_err(|_| format!("--seeds: {s} is not a seed")))
            .collect::<Result<_, _>>()?;
        return suite(&seeds, seconds, out);
    }
    let name = value_of(args, "--workload").ok_or(USAGE)?;
    let workload =
        workload::by_name(name).ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
    let cfg = RunConfig {
        rounds: workload.rounds,
        workload,
        seed: parsed(args, "--seed")?.unwrap_or(1),
        seconds,
        strict: true,
    };
    let traced = match value_of(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let report = run_once(&cfg, traced)?;
    println!("{}", result_line(&report));
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one pass and prints the human-readable report to stderr.
fn run_once(cfg: &RunConfig, traced: bool) -> Result<Report, String> {
    eprintln!(
        "serve_bench: {} seed {} {} s, {} pass; host {}",
        cfg.workload.name,
        cfg.seed,
        cfg.seconds,
        if traced { "per-layer" } else { "end-to-end" },
        serde_json::to_string(&host::stamp()).map_err(|e| e.to_string())?,
    );
    let report = if traced {
        run::per_layer(cfg)
    } else {
        run::end_to_end(cfg)
    }
    .map_err(|refusal| refusal.to_string())?;
    for (metric, value) in &report.metrics {
        eprintln!("  {:<34} {value:>16.4} {}", metric.name, metric.unit);
    }
    for note in &report.notes {
        eprintln!("  # {note}");
    }
    eprintln!(
        "  attempted {} failed {} correct {}",
        report.attempted, report.failed, report.correct
    );
    Ok(report)
}

fn metrics_value(report: &Report) -> Value {
    Value::Object(
        report
            .metrics
            .iter()
            .map(|(metric, value)| {
                (
                    metric.name.to_owned(),
                    Value::Object(vec![
                        ("value".to_owned(), Value::F64(*value)),
                        ("unit".to_owned(), Value::String(metric.unit.to_owned())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The contract's result line.
fn result_line(report: &Report) -> String {
    let value = Value::Object(vec![
        ("correct".to_owned(), Value::Bool(report.correct)),
        ("attempted".to_owned(), Value::U64(report.attempted.max(1))),
        ("failed".to_owned(), Value::U64(report.failed)),
        ("metrics".to_owned(), metrics_value(report)),
    ]);
    serde_json::to_string(&value).expect("a value tree always serializes")
}

/// Appends one `--trace 0` run per (workload, seed) to the results file.
/// Each run is a process of its own, exactly as the benchmark driver runs
/// it, so that one run's memory and threads cannot colour the next
/// (`rss_mb` would start from what the runs before it left in the heap).
fn suite(seeds: &[u64], seconds: f64, out: &str) -> Result<ExitCode, String> {
    let mut runs: Vec<Value> = match std::fs::read_to_string(out) {
        Ok(text) => serde_json::from_str::<Value>(&text)
            .ok()
            .and_then(|root| {
                root.as_object()
                    .and_then(|o| serde::obj_get(o, "runs"))
                    .and_then(Value::as_array)
                    .map(<[Value]>::to_vec)
            })
            .ok_or_else(|| format!("{out} exists but is not a results file"))?,
        Err(_) => Vec::new(),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for &seed in seeds {
        for workload in workload::all() {
            let run = std::process::Command::new(&exe)
                .args(["--workload", workload.name, "--trace", "0"])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            if !run.status.success() {
                return Err(format!("{} seed {seed}: the run failed", workload.name));
            }
            let result: Value = String::from_utf8_lossy(&run.stdout)
                .lines()
                .last()
                .and_then(|line| serde_json::from_str(line).ok())
                .ok_or_else(|| format!("{} seed {seed}: no result line", workload.name))?;
            let metrics = result
                .as_object()
                .and_then(|o| serde::obj_get(o, "metrics"))
                .ok_or_else(|| format!("{} seed {seed}: no metrics", workload.name))?;
            runs.push(Value::Object(vec![
                (
                    "workload".to_owned(),
                    Value::String(workload.name.to_owned()),
                ),
                ("seed".to_owned(), Value::U64(seed)),
                ("metrics".to_owned(), metrics.clone()),
            ]));
            let file = Value::Object(vec![
                ("host".to_owned(), host::stamp()),
                ("runs".to_owned(), Value::Array(runs.clone())),
            ]);
            std::fs::write(
                out,
                serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?,
            )
            .map_err(|e| format!("{out}: {e}"))?;
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Every workload, both passes, short phases: checks what can be checked
/// in under a minute. Latency validity conditions are off (two-second
/// runs cannot meet them); correctness conditions are not.
fn smoke() -> Result<ExitCode, String> {
    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        let on_disk: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        if on_disk != catalog::benchmark_json() {
            return Err(
                "BENCHMARK.json differs from the metric catalog; regenerate it with --benchmark-json"
                    .to_owned(),
            );
        }
    }
    for workload in workload::all() {
        let cfg = RunConfig {
            workload,
            seed: 1,
            seconds: 2.0,
            rounds: 1,
            strict: false,
        };
        for traced in [false, true] {
            let report = run_once(&cfg, traced)?;
            let line = result_line(&report);
            let parsed: Value = serde_json::from_str(&line).map_err(|e| e.to_string())?;
            let keys: Vec<&str> = parsed
                .as_object()
                .map(|o| o.iter().map(|(k, _)| k.as_str()).collect())
                .unwrap_or_default();
            if keys != ["correct", "attempted", "failed", "metrics"] {
                return Err(format!("result line has keys {keys:?}"));
            }
            if report.metrics.iter().any(|(_, v)| !v.is_finite()) {
                return Err(format!("{}: a metric is not finite", cfg.workload.name));
            }
            if !traced && report.metrics.iter().any(|(_, v)| *v <= 0.0) {
                return Err(format!(
                    "{}: an end-to-end metric is zero",
                    cfg.workload.name
                ));
            }
            if !report.correct || report.failed != 0 {
                return Err(format!(
                    "{}: {} of {} requests failed",
                    cfg.workload.name, report.failed, report.attempted
                ));
            }
            if traced && cfg.workload.steady {
                let ratio = report
                    .metrics
                    .iter()
                    .find(|(metric, _)| metric.name == "serve.littles_law_ratio")
                    .map_or(f64::NAN, |(_, v)| *v);
                if !(0.7..=1.3).contains(&ratio) {
                    return Err(format!(
                        "{}: Little's law ratio {ratio:.3} is off",
                        cfg.workload.name
                    ));
                }
            }
        }
    }
    eprintln!("serve_bench: smoke passed");
    Ok(ExitCode::SUCCESS)
}
