//! `run`: every workload in a fresh child process each, both passes, one
//! run record. `compare`: two sets of run records against the bounds.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::metrics::{Better, Workload, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::median;
use crate::Args;

/// The seed `run` uses when none is given.
const DEFAULT_SEED: u64 = 20_070_923;

/// Runs one pass of one workload in a child process and returns the JSON
/// object it printed last, with whether it exited zero.
fn child_pass(
    args: &Args,
    workload: Workload,
    seed: u64,
    trace: bool,
) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("starting the {} child: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("the {} child printed no result", workload.name()))?;
    let value =
        json::parse(last).map_err(|e| format!("the {} child's result: {e}", workload.name()))?;
    Ok((value, output.status.success()))
}

fn metric_value(pass: &Value, name: &str) -> Option<f64> {
    pass.get("metrics")?.get(name)?.get("value")?.as_f64()
}

pub fn run_all(args: &Args) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let selected: Vec<Workload> = match args.workload {
        Some(one) => vec![one],
        None => Workload::ALL.to_vec(),
    };
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for workload in selected {
        eprintln!("== {} ==", workload.name());
        let (untraced, ok_untraced) = child_pass(args, workload, seed, false)?;
        let (traced, ok_traced) = child_pass(args, workload, seed, true)?;
        all_ok &= ok_untraced && ok_traced;
        let flag = |pass: &Value, key| pass.get(key).cloned().unwrap_or(Value::Null);
        // (untraced − traced) ÷ untraced, on the workload's throughput.
        let overhead = match (
            metric_value(&untraced, "ops_per_s"),
            metric_value(&traced, "trace.ops_per_s"),
        ) {
            (Some(plain), Some(with_spans)) if plain > 0.0 => {
                Value::Num((plain - with_spans) / plain)
            }
            _ => Value::Null,
        };
        println!("{}", workload.name());
        for (pass, metrics) in [(&untraced, "end-to-end"), (&traced, "per-layer")] {
            println!(
                "  {metrics}: correct={} attempted={} failed={}",
                flag(pass, "correct").render(),
                flag(pass, "attempted").render(),
                flag(pass, "failed").render()
            );
            for (name, metric) in pass.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
                let value = metric
                    .get("value")
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = metric.get("unit").and_then(Value::as_str).unwrap_or("?");
                println!("    {name:<36} {value:>16.4} {unit}");
            }
        }
        println!(
            "    {:<36} {:>16} ratio",
            "trace_overhead_share",
            overhead.render()
        );
        workloads.push((
            workload.name(),
            Value::obj(vec![
                ("untraced", untraced),
                ("traced", traced),
                ("trace_overhead_share", overhead),
            ]),
        ));
    }
    if args.trace {
        println!("span files: <build directory>/release/bench-scratch/spans-<workload>.jsonl");
    }
    let record = Value::obj(vec![
        ("schema", Value::Num(1.0)),
        ("seed", Value::Num(seed as f64)),
        (
            "run_seconds",
            Value::Num(if args.smoke { 0.2 } else { RUN_SECONDS as f64 }),
        ),
        ("environment", environment()),
        ("workloads", Value::obj(workloads)),
    ]);
    if let Some(path) = &args.out {
        std::fs::write(path, record.render_pretty())
            .map_err(|e| format!("writing {path:?}: {e}"))?;
        eprintln!("run record written to {}", path.display());
    }
    Ok(all_ok)
}

/// Where the numbers were taken: they are this machine's, this kernel's
/// and this file system's, not a device's or a network's.
fn environment() -> Value {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|s| s.trim().to_string())
            .ok()
    };
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let text = |value: Option<String>| Value::str(value.unwrap_or_else(|| "unknown".into()));
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf));
    Value::obj(vec![
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("kernel", text(read("/proc/sys/kernel/osrelease"))),
        ("rustc", text(rustc)),
        ("commit", text(commit())),
        ("scratch_fs", text(exe_dir.and_then(|dir| fs_type_of(&dir)))),
    ])
}

/// The checked-out commit, read from `.git` by hand (a checkout that is
/// not a repository has none).
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// File-system type of the mount holding `dir`, from `/proc/self/mountinfo`.
fn fs_type_of(dir: &Path) -> Option<String> {
    let dir = dir.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            // "... <mount point> <options> [optional fields] - <fs type> ..."
            let mount_point = line.split(' ').nth(4)?;
            let fs_type = line.split(" - ").nth(1)?.split(' ').next()?;
            dir.starts_with(mount_point)
                .then_some((mount_point.len(), fs_type))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs_type)| fs_type.to_string())
}

// ----- compare --------------------------------------------------------------

/// One side of a comparison: one or more run records of one commit.
fn load_side(list: &str) -> Result<Vec<Value>, String> {
    list.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            json::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

fn values_of(side: &[Value], workload: &str, pass: &str, metric: &str) -> Vec<f64> {
    side.iter()
        .filter_map(|record| {
            metric_value(record.get("workloads")?.get(workload)?.get(pass)?, metric)
        })
        .collect()
}

/// How much worse than `a` the value `b` is, as a share of `a`, in the
/// metric's own direction (negative = better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Prints one row per (end-to-end metric, workload): both medians, the
/// ratio B/A with A as its base, the bound, and the verdict; then the
/// exact counts, which must be identical. Returns `false` on any `worse`
/// row or differing count.
pub fn compare(a_list: &str, b_list: &str) -> Result<bool, String> {
    let (a_side, b_side) = (load_side(a_list)?, load_side(b_list)?);
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict   (A = {} run(s), B = {} run(s); ratio = B/A)",
        "workload", "metric", "A median", "B median", "ratio", "bound", a_side.len(), b_side.len()
    );
    let mut clean = true;
    for workload in Workload::ALL {
        for metric in &END_TO_END {
            let mut a = values_of(&a_side, workload.name(), "untraced", metric.name);
            let mut b = values_of(&b_side, workload.name(), "untraced", metric.name);
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (a_median, b_median) = (median(&mut a), median(&mut b));
            let worse = worse_by(metric.better, a_median, b_median);
            // After `median`, both are sorted: [0] is the lowest run.
            let spread = |v: &[f64], m: f64| (v[v.len() - 1] - v[0]) / m;
            let noisy = spread(&a, a_median).max(spread(&b, b_median)) > metric.bound;
            // Does every run of B read better than every run of A?
            let b_all_better = match metric.better {
                Better::Lower => b[b.len() - 1] < a[0],
                Better::Higher => b[0] > a[a.len() - 1],
            };
            let b_all_worse = match metric.better {
                Better::Lower => b[0] > a[a.len() - 1],
                Better::Higher => b[b.len() - 1] < a[0],
            };
            let verdict = if worse > metric.bound {
                // Beyond the bound: a regression unless the two sides' runs overlap.
                if b_all_worse || (a.len() == 1 && b.len() == 1) {
                    "worse"
                } else {
                    "unresolved"
                }
            } else if noisy && !b_all_better {
                "unresolved"
            } else {
                "ok"
            };
            clean &= verdict != "worse";
            println!(
                "{:<18} {:<16} {:>14.4} {:>14.4} {:>9.4} {:>6.0}%  {verdict}",
                workload.name(),
                metric.name,
                a_median,
                b_median,
                b_median / a_median,
                metric.bound * 100.0
            );
        }
    }
    println!("exact counts (must be identical in every run of both sides):");
    for metric in PER_LAYER.iter().filter(|m| EXACT_COUNTS.contains(&m.name)) {
        for workload in Workload::ALL.into_iter().filter(|w| metric.measured_on(*w)) {
            let mut all = values_of(&a_side, workload.name(), "traced", metric.name);
            all.extend(values_of(&b_side, workload.name(), "traced", metric.name));
            let Some(first) = all.first() else { continue };
            let same = all.iter().all(|v| v == first);
            clean &= same;
            println!(
                "{:<18} {:<28} {:>14}  {}",
                workload.name(),
                metric.name,
                first,
                if same { "identical" } else { "DIFFERS" }
            );
        }
    }
    Ok(clean)
}

/// Counts made by the program that repeat exactly for one seed.
const EXACT_COUNTS: [&str; 4] = [
    "store.wal_bytes_per_cmd",
    "wire.bytes_per_check",
    "replication.bytes_per_epoch",
    "search.states_expanded",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metrics_direction() {
        assert_eq!(worse_by(Better::Lower, 100.0, 110.0), 0.1);
        assert_eq!(worse_by(Better::Higher, 100.0, 90.0), 0.1);
        assert!(worse_by(Better::Higher, 100.0, 120.0) < 0.0);
    }
}
