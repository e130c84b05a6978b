//! `benchmark compare A B`: for each workload and end-to-end metric,
//! whether the runs in directory B are better, worse, unchanged or
//! unresolved against those in directory A, using the bounds in
//! `BENCHMARK.json` and the medians and quartiles over repeated runs.

use crate::stats::quartiles;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median beats A's by more than A's own quartile spread.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Within the bound, and no gain beyond A's spread.
    Unchanged,
    /// A's spread is wider than the bound and the runs overlap, so no
    /// conclusion is possible.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// An end-to-end metric's gate, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// Unit, for display.
    pub unit: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// Reads the end-to-end gates from `BENCHMARK.json`.
pub fn gates(benchmark_json: &Path) -> Result<Vec<Gate>, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("cannot read {}: {e}", benchmark_json.display()))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    v["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Gate {
                name: m["name"]
                    .as_str()
                    .ok_or("metric without a name")?
                    .to_owned(),
                unit: m["unit"].as_str().unwrap_or("").to_owned(),
                lower_is_better: m["better"] == "lower",
                bound: m["bound"].as_f64().ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// The verdict for runs `a` and `b` of one metric.
///
/// # Panics
///
/// When either side has no runs.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let [a1, am, a3] = quartiles(a);
    let [_, bm, _] = quartiles(b);
    // Positive when B is worse, as a share of A's median.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (bm - am) / am.abs();
    let spread = (a3 - a1) / am.abs();
    if spread > bound {
        let all = |worse: bool| {
            b.iter()
                .all(|&y| a.iter().all(|&x| (sign * (y - x) > 0.0) == worse && y != x))
        };
        return if all(false) {
            Verdict::Better
        } else if all(true) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// End-to-end metric values per workload, from every results file in
/// `dir` written by an untraced run.
pub fn load_runs(dir: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut runs: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if v["trace"] == true {
            continue;
        }
        let Some(workload) = v["workload"].as_str() else {
            continue;
        };
        let by_metric = runs.entry(workload.to_owned()).or_default();
        for (name, m) in v["metrics"].as_object().into_iter().flatten() {
            if let Some(x) = m["value"].as_f64() {
                by_metric.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(runs)
}

/// Prints one row of verdicts per workload, then the figures behind
/// them. Returns whether every verdict is `better` or `unchanged`.
pub fn run(benchmark_json: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let gates = gates(benchmark_json)?;
    let (runs_a, runs_b) = (load_runs(a)?, load_runs(b)?);
    let mut header = format!("{:<12}", "workload");
    for g in &gates {
        header.push_str(&format!(" {:>16}", g.name));
    }
    println!("{header}");
    let mut details = Vec::new();
    let mut agree = true;
    for (workload, metrics_a) in &runs_a {
        let Some(metrics_b) = runs_b.get(workload) else {
            continue;
        };
        let mut row = format!("{workload:<12}");
        for g in &gates {
            let (Some(xa), Some(xb)) = (metrics_a.get(&g.name), metrics_b.get(&g.name)) else {
                row.push_str(&format!(" {:>16}", "-"));
                continue;
            };
            let v = verdict(xa, xb, g.lower_is_better, g.bound);
            agree &= matches!(v, Verdict::Better | Verdict::Unchanged);
            row.push_str(&format!(" {:>16}", v.label()));
            let [a1, am, a3] = quartiles(xa);
            let [b1, bm, b3] = quartiles(xb);
            details.push(format!(
                "{workload} {}: A {am:.4} [{a1:.4}, {a3:.4}] n={} -> B {bm:.4} [{b1:.4}, {b3:.4}] n={} {}: {:+.2}% (bound {:.0}%) {}",
                g.name,
                xa.len(),
                xb.len(),
                g.unit,
                (bm - am) / am.abs() * 100.0,
                g.bound * 100.0,
                v.label()
            ));
        }
        println!("{row}");
    }
    for line in details {
        println!("{line}");
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * (i as f64 - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn same_distribution_is_unchanged() {
        let a = around(10.0, 0.1);
        assert_eq!(verdict(&a, &a, true, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn a_regression_beyond_the_bound_is_worse() {
        let a = around(10.0, 0.1);
        let b = around(12.0, 0.1);
        assert_eq!(verdict(&a, &b, true, 0.1), Verdict::Worse);
        // For a higher-is-better metric the same move is a gain.
        assert_eq!(verdict(&a, &b, false, 0.1), Verdict::Better);
    }

    #[test]
    fn a_small_regression_within_the_bound_is_unchanged() {
        let a = around(10.0, 0.1);
        let b = around(10.5, 0.1);
        assert_eq!(verdict(&a, &b, true, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn a_gain_beyond_the_spread_is_better() {
        let a = around(10.0, 0.1);
        let b = around(9.5, 0.1);
        assert_eq!(verdict(&a, &b, true, 0.1), Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_disjoint() {
        let a = around(10.0, 3.0);
        let overlapping = around(10.5, 3.0);
        assert_eq!(verdict(&a, &overlapping, true, 0.1), Verdict::Unresolved);
        let disjoint_better = around(5.0, 1.0);
        assert_eq!(verdict(&a, &disjoint_better, true, 0.1), Verdict::Better);
        let disjoint_worse = around(20.0, 1.0);
        assert_eq!(verdict(&a, &disjoint_worse, true, 0.1), Verdict::Worse);
    }
}
