//! `e2e` — the end-to-end benchmark.
//!
//! ```text
//! e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! e2e --repeat N --out DIR [--workload NAME] [--seed N] [--seconds S]
//! ```
//!
//! A single run prints its result as the last line of stdout:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`,
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`, which also writes `NAME.trace.json` and
//! `NAME.layers.json` into `--out`). Everything else goes to stderr.
//!
//! `--repeat N` runs every workload (or the one named) N times with seeds
//! `seed, seed+1, …`, writes each result into `--out`, and prints the
//! median and quartiles of every end-to-end metric, flagging any whose
//! quartile spread exceeds its bound in `./BENCHMARK.json`.

use std::path::PathBuf;
use std::process::ExitCode;

use disparity_e2e::run::{run, RunResult};
use disparity_e2e::stats::{quartiles, sorted};
use disparity_e2e::workload::{Scale, Workload};
use disparity_model::json::{self, Value};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    repeat: Option<u64>,
}

const USAGE: &str =
    "usage: e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       \
                     e2e --repeat N --out DIR [--workload NAME] [--seed N] [--seconds S]\n\
                     workloads: cold_fusion design_session optimize_plans sim_sweep";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: None,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                };
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--repeat" => {
                let n: u64 = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                args.repeat = Some(n.max(1));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Default output directory: `e2e-out` next to the executable (inside the
/// build's target directory).
fn default_out() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("e2e-out")))
        .unwrap_or_else(|| PathBuf::from("e2e-out"))
}

fn report_json(workload: Workload, seed: u64, result: &RunResult) -> Value {
    json::object(vec![
        ("workload", Value::from(workload.name())),
        ("seed", Value::Int(i64::try_from(seed).unwrap_or(i64::MAX))),
        ("result", result.to_json()),
        (
            "details",
            Value::Object(
                result
                    .details
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), v.clone()))
                    .collect(),
            ),
        ),
    ])
}

fn write_report(dir: &std::path::Path, file: &str, value: &Value) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, value.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// `BENCHMARK.json`'s end-to-end bounds by metric name (empty when the
/// file is absent).
fn bounds() -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Vec::new();
    };
    Value::parse(&text)
        .ok()
        .and_then(|v| {
            v.get("end_to_end")?.as_array().map(|list| {
                list.iter()
                    .filter_map(|m| {
                        Some((
                            m.get("name")?.as_str()?.to_string(),
                            m.get("bound")?.as_f64()?,
                        ))
                    })
                    .collect()
            })
        })
        .unwrap_or_default()
}

fn repeat(args: &Args, n: u64, scale: Scale) -> Result<(), String> {
    let out = args.out.clone().ok_or("--repeat needs --out DIR")?;
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut results: Vec<(Workload, RunResult)> = Vec::new();
    for r in 0..n {
        for &w in &workloads {
            let seed = args.seed + r;
            eprintln!("e2e: repeat {}/{n}: {} seed {seed}", r + 1, w.name());
            let result = run(w, seed, scale, false, &out)?;
            write_report(
                &out,
                &format!("{}.seed{seed}.json", w.name()),
                &report_json(w, seed, &result),
            )?;
            if result.failed > 0 {
                return Err(format!(
                    "{} seed {seed}: {} failed operation(s)",
                    w.name(),
                    result.failed
                ));
            }
            results.push((w, result));
        }
    }
    let bounds = bounds();
    println!(
        "{:<16} {:<16} {:>13} {:>13} {:>13} {:>8} {:>6}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    for &w in &workloads {
        let runs: Vec<&RunResult> = results
            .iter()
            .filter(|(rw, _)| *rw == w)
            .map(|(_, r)| r)
            .collect();
        for m in &runs[0].metrics {
            let values = sorted(runs.iter().filter_map(|r| r.metric(m.name)).collect());
            let (q, spread) = match quartiles(&values) {
                Ok(q) => (q, (q[2] - q[0]) / q[1]),
                Err(_) => ([values[0]; 3], 0.0),
            };
            let bound = bounds
                .iter()
                .find(|(name, _)| name == m.name)
                .map(|(_, b)| *b);
            let flag = match bound {
                Some(b) if spread > b => "  SPREAD > BOUND",
                _ => "",
            };
            println!(
                "{:<16} {:<16} {:>13.4} {:>13.4} {:>13.4} {:>8.4} {:>6}{flag}",
                w.name(),
                m.name,
                q[0],
                q[1],
                q[2],
                spread,
                bound.map_or("-".to_string(), |b| b.to_string()),
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let scale = Scale {
        seconds: args.seconds,
        quick: false,
    };
    if let Some(n) = args.repeat {
        return match repeat(&args, n, scale) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("e2e: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = args.workload else {
        eprintln!("e2e: --workload is required\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let out = args.out.clone().unwrap_or_else(default_out);
    match run(workload, args.seed, scale, args.trace, &out) {
        Ok(result) => {
            let report = report_json(workload, args.seed, &result);
            let mode = if args.trace { "layers-run" } else { "e2e-run" };
            if let Err(e) = write_report(&out, &format!("{}.{mode}.json", workload.name()), &report)
            {
                eprintln!("e2e: {e}");
            }
            eprintln!("{}", report.to_pretty());
            println!("{}", result.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e: {} seed {}: {e}", workload.name(), args.seed);
            ExitCode::FAILURE
        }
    }
}
