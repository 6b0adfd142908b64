//! Multi-run modes: every workload in its own process (so `peak_rss_mib`
//! is per workload), and `--check-repeat`, which shows that two sets of
//! runs of the same code agree within the bounds `BENCHMARK.json` fixes.

use crate::measure::median;
use crate::{Args, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

const RUNS_PER_SIDE: u64 = 5;
/// What ISSUE 13 wanted every pair to repeat within. A pair inside its
/// bound whose ten values spread wider than this is reported as unresolved
/// at this level: ten runs a side do not separate a change of this size
/// from the host's noise there.
const TARGET: f64 = 0.10;

fn child(args: &Args, workload: &str, seed: u64) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    Ok(cmd)
}

/// Runs each workload in its own child process, passing its output on.
pub fn all_workloads(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    for workload in WORKLOADS {
        let status = child(args, workload, args.seed)?
            .status()
            .map_err(|e| e.to_string())?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

/// One run in a child process; returns its end-to-end metric values.
fn measure(args: &Args, workload: &str, seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let output = child(args, workload, seed)?
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}",
            output.status
        ));
    }
    let result: serde_json::Value =
        serde_json::from_str(last).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    if !matches!(result.get("correct"), Some(serde_json::Value::Bool(true))) {
        return Err(format!("{workload} seed {seed} reported incorrect outputs"));
    }
    let metrics = result
        .get("metrics")
        .and_then(serde_json::Value::as_object)
        .ok_or("result has no metrics object")?;
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let len = v.len();
    if len < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let (j, delta) = ((i * (len + 1)) / 4, (i * (len + 1)) % 4);
        let j = j.clamp(1, len - 1);
        (v[j - 1] * (4 - delta) as f64 + v[j] * delta as f64) / 4.0
    };
    (cut(1), cut(3))
}

/// `v` to five significant digits: the metrics span 1e-3 to 1e6.
fn sig5(v: f64) -> String {
    let decimals = (4 - v.abs().max(f64::MIN_POSITIVE).log10().floor() as i32).clamp(0, 9);
    format!("{v:.*}", decimals as usize)
}

/// Two sets (A, B) of five runs of every workload, interleaved
/// A B A B …, every run on its own seed. Prints each side's median and
/// quartiles per (metric, workload) and fails if a pair of medians
/// differs by more than the metric's bound, or if the spread of the ten
/// values (quartile distance ÷ median) exceeds it. The spread of `setup_s`
/// is printed but not checked, as the driver does: a run holds three
/// samples of it against a hundred segments of the timed figures, and its
/// bound is there for the distance between the medians.
pub fn check_repeat(args: &Args) -> Result<bool, String> {
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let spec: serde_json::Value = serde_json::from_str(&spec).map_err(|e| e.to_string())?;
    let bounds: Vec<(String, f64)> = spec
        .get("end_to_end")
        .and_then(serde_json::Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();

    // values[side][workload][metric]
    let mut values: [BTreeMap<&str, BTreeMap<String, Vec<f64>>>; 2] = Default::default();
    for round in 0..RUNS_PER_SIDE {
        for (side, runs) in values.iter_mut().enumerate() {
            for workload in WORKLOADS {
                let seed = args.seed + 2 * round + side as u64;
                eprintln!(
                    "check-repeat: round {round} side {} {workload} seed {seed}",
                    ["A", "B"][side]
                );
                for (name, value) in measure(args, workload, seed)? {
                    runs.entry(workload)
                        .or_default()
                        .entry(name)
                        .or_default()
                        .push(value);
                }
            }
        }
    }

    let mut all_ok = true;
    println!(
        "{:<17} {:<15} {:>12} {:>25} {:>12} {:>25} {:>7} {:>7} {:>6}",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "diff",
        "spread",
        "bound"
    );
    for workload in WORKLOADS {
        for (name, bound) in &bounds {
            let side = |s: usize| values[s][workload].get(name).cloned().unwrap_or_default();
            let (a, b) = (side(0), side(1));
            let (ma, mb) = (median(&a), median(&b));
            let ((a1, a3), (b1, b3)) = (quartiles(&a), quartiles(&b));
            let pooled: Vec<f64> = a.iter().chain(&b).copied().collect();
            let (p1, p3) = quartiles(&pooled);
            let diff = (mb - ma).abs() / ma;
            let spread = (p3 - p1) / median(&pooled);
            let ok = diff <= *bound && (name == "setup_s" || spread <= *bound);
            all_ok &= ok;
            let verdict = match (ok, diff.max(spread) <= TARGET) {
                (false, _) => "FAIL".to_string(),
                (true, true) => "ok".to_string(),
                (true, false) => format!("ok, unresolved at {:.0}%", TARGET * 100.0),
            };
            println!(
                "{workload:<17} {name:<15} {:>12} {:>25} {:>12} {:>25} {:>6.2}% {:>6.2}% {:>5.0}% {}",
                sig5(ma),
                format!("[{}, {}]", sig5(a1), sig5(a3)),
                sig5(mb),
                format!("[{}, {}]", sig5(b1), sig5(b3)),
                diff * 100.0,
                spread * 100.0,
                bound * 100.0,
                verdict
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::{quartiles, sig5};

    #[test]
    fn sig5_keeps_five_significant_digits() {
        assert_eq!(sig5(0.000_912_34), "0.00091234");
        assert_eq!(sig5(2.13331), "2.1333");
        assert_eq!(sig5(1_099_198.133), "1099198");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
    }
}
