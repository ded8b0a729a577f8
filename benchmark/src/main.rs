//! The repository's benchmark. Three ways in:
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` runs one
//!   workload in this process and prints one JSON object as the last line
//!   of standard output: the end-to-end metrics (`--trace 0`) or the
//!   per-layer metrics (`--trace 1`). This is the form `BENCHMARK.json`
//!   names.
//! * `run [--seed N] [--trace] [--out FILE] [--workload NAME] [--smoke]`
//!   runs every workload in a fresh child process each — an untraced
//!   pass, then a traced one — checks the outputs, prints every metric by
//!   name with its unit, and optionally writes the run record.
//! * `compare A.json B.json` holds two run records against the bounds.
//!
//! See `README.md` beside this package for the metrics and their reasons.

mod json;
mod metrics;
mod probes;
mod record;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use json::Value;
use metrics::Workload;
use workloads::Plan;

/// Flags shared by the three forms. No environment variable is read.
#[derive(Default)]
struct Args {
    positional: Vec<String>,
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    /// `--trace` alone, or `--trace 1`.
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                parsed.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                let text = value("--seed")?;
                parsed.seed = Some(text.parse().map_err(|_| format!("bad seed '{text}'"))?);
            }
            "--seconds" => {
                let text = value("--seconds")?;
                let seconds: f64 = text.parse().map_err(|_| format!("bad seconds '{text}'"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {text}"));
                }
                parsed.seconds = Some(seconds);
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => parsed.smoke = true,
            "--trace" => {
                parsed.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            _ => parsed.positional.push(arg),
        }
    }
    Ok(parsed)
}

const USAGE: &str = "usage:
  adminref-benchmark --workload NAME --seed N --seconds S --trace 0|1
  adminref-benchmark run [--seed N] [--trace] [--out FILE] [--workload NAME] [--smoke]
  adminref-benchmark compare A.json[,A2.json...] B.json[,B2.json...]
workloads: wire_read replica_read wire_write admission_trickle analysis_suite";

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.positional.first().map(String::as_str) {
        Some("run") => record::run_all(&args),
        Some("compare") if args.positional.len() == 3 => {
            record::compare(&args.positional[1], &args.positional[2])
        }
        None if args.workload.is_some() => one_workload(&args),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("adminref-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Moves this process into a scratch directory beside its own executable
/// — inside the build directory, so inside the checkout — and points the
/// store's `TempDir` there. Paths stay relative and short: a Unix socket
/// address holds about a hundred bytes.
fn enter_scratch() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let scratch = exe
        .parent()
        .ok_or("the executable has no directory")?
        .join("bench-scratch");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("creating {scratch:?}: {e}"))?;
    std::env::set_current_dir(&scratch).map_err(|e| format!("entering {scratch:?}: {e}"))?;
    // Before any thread exists; `TempDir` reads it.
    std::env::set_var("TMPDIR", ".");
    Ok(())
}

/// The form `BENCHMARK.json` names: one workload, one JSON line.
fn one_workload(args: &Args) -> Result<bool, String> {
    let workload = args.workload.ok_or("--workload is required")?;
    let seed = args.seed.ok_or("--seed is required")?;
    let seconds = match args.seconds {
        _ if args.smoke => 0.2,
        Some(seconds) => seconds,
        None => return Err("--seconds is required".into()),
    };
    enter_scratch()?;
    let secs = Duration::from_secs_f64;
    let plan = if args.trace {
        // Half the time in the traced window, about the other half in the probes.
        Plan {
            seed,
            warmup: secs((seconds * 0.1).min(1.0)),
            window: secs(seconds / 2.0),
            setup_repeats: 1,
            trace: true,
            probe_budget: secs(if args.smoke { 0.005 } else { 0.1 }),
        }
    } else {
        Plan {
            seed,
            warmup: secs((seconds * 0.2).min(1.0)),
            window: secs(seconds),
            setup_repeats: if args.smoke { 1 } else { 5 },
            trace: false,
            probe_budget: Duration::ZERO,
        }
    };
    let mut outcome = workloads::run(workload, plan)?;
    outcome.values.set("rss_peak_mb", peak_rss_mb()?);
    for line in outcome.notes.iter().chain(&outcome.violations) {
        eprintln!("{line}");
    }
    let metrics = if args.trace {
        let traced_rate = outcome
            .values
            .get("ops_per_s")
            .ok_or("ops_per_s was not measured")?;
        outcome.values.set("trace.ops_per_s", traced_rate);
        let spans = PathBuf::from(format!("spans-{}.jsonl", workload.name()));
        outcome
            .trace
            .write_to(&spans)
            .map_err(|e| format!("writing {spans:?}: {e}"))?;
        outcome.values.per_layer(workload)?
    } else {
        outcome.values.end_to_end()?
    };
    let correct = outcome.violations.is_empty();
    let line = Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    Ok(correct && outcome.failed == 0 && outcome.attempted > 0)
}

/// `VmHWM`: the most resident memory this process ever held.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
