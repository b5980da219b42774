//! `ive_benchmark compare <old.json> <new.json>`: applies each end-to-end
//! metric's bound to every (metric, workload) row of two sets of runs.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::report::{Better, END_TO_END};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Regressed,
    /// The runs of one side spread wider than the bound and the sides
    /// overlap: the data cannot say.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Spread of one side's runs as a share of their median: the distance
/// between the quartiles from four runs up, the range below that.
fn spread(values: &[f64]) -> f64 {
    let sorted = stats::sorted(values);
    let (lo, hi) = if sorted.len() >= 4 {
        (quartile(&sorted, 1), quartile(&sorted, 3))
    } else {
        (sorted[0], sorted[sorted.len() - 1])
    };
    (hi - lo) / stats::median(values).abs()
}

/// Quartile `k` by the exclusive method (what Python's
/// `statistics.quantiles(values, n=4)` computes).
fn quartile(sorted: &[f64], k: usize) -> f64 {
    let n = sorted.len();
    let pos = k as f64 * (n + 1) as f64 / 4.0;
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let frac = pos - j as f64;
    sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
}

/// Judges one row. `old` and `new` are the metric's value in each run.
pub fn judge(old: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (old_med, new_med) = (stats::median(old), stats::median(new));
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (new_med - old_med) / old_med.abs();
    let all_new = |pred: fn(f64, f64) -> bool| {
        new.iter().all(|n| old.iter().all(|o| pred(sign * n, sign * o)))
    };
    let noise = spread(old).max(spread(new));
    if noise > bound {
        return if all_new(|n, o| n < o) {
            Verdict::Better
        } else if worse_by > bound && all_new(|n, o| n > o) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > noise {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Per workload: per metric, the value in each untraced run; and the
/// requests attempted and failed over all runs.
struct RunSet {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    requests: BTreeMap<String, (f64, f64)>,
}

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs =
        doc.get("runs").and_then(Json::as_arr).ok_or(format!("{path}: no \"runs\" array"))?;
    let mut set = RunSet { values: BTreeMap::new(), requests: BTreeMap::new() };
    for run in runs {
        if run.get("quick").and_then(Json::as_bool) != Some(false) {
            return Err(format!("{path}: holds a --quick run, which measures nothing comparable"));
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: run without workload"))?;
        let count = |key| run.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let requests = set.requests.entry(workload.to_string()).or_default();
        requests.0 += count("attempted");
        requests.1 += count("failed");
        if run.get("traced").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let metrics = run.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                let row = set.values.entry(workload.to_string()).or_default();
                row.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(set)
}

/// Prints one line per row and returns whether nothing regressed.
///
/// # Errors
/// Fails on unreadable files, quick runs, or a row one side lacks.
pub fn run(old_path: &str, new_path: &str) -> Result<bool, String> {
    let (old, new) = (load(old_path)?, load(new_path)?);
    let mut ok = true;
    println!(
        "{:<18} {:<16} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "old median", "new median", "change", "spread", "bound"
    );
    for (workload, old_metrics) in &old.values {
        let new_metrics =
            new.values.get(workload).ok_or(format!("{new_path}: no untraced run of {workload}"))?;
        for def in &END_TO_END {
            let (Some(o), Some(n)) = (old_metrics.get(def.name), new_metrics.get(def.name)) else {
                return Err(format!("{workload}: {} is missing from one side", def.name));
            };
            let verdict = judge(o, n, def.better, def.bound);
            ok &= verdict != Verdict::Regressed;
            println!(
                "{:<18} {:<16} {:>12.4} {:>12.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {} (n={}/{})",
                workload,
                def.name,
                stats::median(o),
                stats::median(n),
                (stats::median(n) / stats::median(o) - 1.0) * 100.0,
                spread(o).max(spread(n)) * 100.0,
                def.bound * 100.0,
                verdict.as_str(),
                o.len(),
                n.len(),
            );
        }
        let share = |set: &RunSet| set.requests.get(workload).map_or(0.0, |(a, f)| f / a.max(1.0));
        let (o, n) = (share(&old), share(&new));
        let verdict = if n > o { Verdict::Regressed } else { Verdict::WithinBound };
        ok &= verdict != Verdict::Regressed;
        println!(
            "{workload:<18} {:<16} {o:>12.6} {n:>12.6}  any increase regresses  {}",
            "failed_share",
            verdict.as_str()
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!((quartile(&v, 1), quartile(&v, 3)), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(
            (quartile(&[1.0, 2.0, 4.0, 8.0], 1), quartile(&[1.0, 2.0, 4.0, 8.0], 3)),
            (1.25, 7.0)
        );
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let old = [100.0, 101.0, 99.0, 100.5];
        let lower = |new: &[f64]| judge(&old, new, Better::Lower, 0.10);
        assert_eq!(lower(&[100.2, 99.8, 100.9, 100.1]), Verdict::WithinBound);
        assert_eq!(lower(&[108.0, 109.0, 108.5, 107.9]), Verdict::WithinBound);
        assert_eq!(lower(&[112.0, 113.0, 111.5, 112.2]), Verdict::Regressed);
        assert_eq!(lower(&[90.0, 91.0, 89.5, 90.2]), Verdict::Better);
        // Wide spread, overlapping sides: the data cannot say.
        assert_eq!(lower(&[80.0, 130.0, 100.0, 120.0]), Verdict::Unresolved);
        // Wide spread, but every new run beats every old run.
        assert_eq!(lower(&[50.0, 80.0, 60.0, 90.0]), Verdict::Better);
        // For a higher-is-better metric the same numbers read the other way.
        assert_eq!(
            judge(&old, &[112.0, 113.0, 111.5, 112.2], Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            judge(&old, &[88.0, 87.0, 88.5, 87.8], Better::Higher, 0.10),
            Verdict::Regressed
        );
    }
}
