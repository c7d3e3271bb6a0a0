//! `--compare A B`: judge each end-to-end metric of run(s) B against
//! run(s) A with the bounds in `BENCHMARK.json`.
//!
//! The rule is the quartile rule of the choosing-metrics method: a metric
//! whose run-to-run spread (inter-quartile distance over the median) is
//! wider than its bound cannot show a regression of that size, so it is
//! `unresolved` unless every run of B reads better than every run of A.
//! Otherwise B's median may be worse than A's by at most the bound. The
//! spread comes from A's own runs when A holds at least four, else from
//! the spreads recorded in `spread.json` when the bounds were set.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use serde_json::Value;

use crate::spec::Spec;
use crate::stats::{median, spread};

/// Spreads measured over ten seeds when the bounds were chosen.
const RECORDED_SPREAD: &str = include_str!("../spread.json");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` (the change's runs) against `a` (the parent's runs).
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64, spread: f64) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else { return Verdict::Unresolved };
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let all_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    if spread > bound {
        return if all_better { Verdict::Ok } else { Verdict::Unresolved };
    }
    let worse = if lower_is_better { mb - ma } else { ma - mb };
    let worse_share = if ma != 0.0 {
        worse / ma.abs()
    } else if worse > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    if worse_share > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `(workload, metric) → value` of one results file.
type RunValues = BTreeMap<(String, String), f64>;

fn load_runs(path: &Path) -> Result<Vec<RunValues>, String> {
    let files: Vec<std::path::PathBuf> = if path.is_dir() {
        let mut f: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        f.sort();
        f
    } else {
        vec![path.to_path_buf()]
    };
    files
        .iter()
        .map(|f| {
            let text =
                std::fs::read_to_string(f).map_err(|e| format!("reading {}: {e}", f.display()))?;
            let v: Value =
                serde_json::from_str(&text).map_err(|e| format!("{}: {e}", f.display()))?;
            let mut out = RunValues::new();
            for w in v.get("workloads").and_then(Value::as_array).into_iter().flatten() {
                let Some(name) = w.get("workload").and_then(Value::as_str) else { continue };
                for (metric, m) in
                    w.get("end_to_end").and_then(Value::as_object).into_iter().flatten()
                {
                    if let Some(x) = m.get("value").and_then(Value::as_f64) {
                        out.insert((name.to_string(), metric.clone()), x);
                    }
                }
            }
            Ok(out)
        })
        .collect()
}

fn recorded_spread(workload: &str, metric: &str) -> Option<f64> {
    let v: Value = serde_json::from_str(RECORDED_SPREAD).ok()?;
    v.get("workloads")?.get(workload)?.get(metric)?.get("spread")?.as_f64()
}

/// Print one verdict per workload and end-to-end metric; `Err` when
/// anything regressed.
pub fn run(spec: &Spec, a: &Path, b: &Path) -> Result<(), String> {
    let runs_a = load_runs(a)?;
    let runs_b = load_runs(b)?;
    let workloads: BTreeSet<String> =
        runs_a.iter().flat_map(|r| r.keys().map(|k| k.0.clone())).collect();
    println!(
        "{:<16} {:<20} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    let mut regressed = 0;
    for w in &workloads {
        for m in &spec.end_to_end {
            let key = (w.clone(), m.name.clone());
            let va: Vec<f64> = runs_a.iter().filter_map(|r| r.get(&key).copied()).collect();
            let vb: Vec<f64> = runs_b.iter().filter_map(|r| r.get(&key).copied()).collect();
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let s = if va.len() >= 4 {
                spread(&va).unwrap_or(f64::INFINITY)
            } else {
                recorded_spread(w, &m.name).unwrap_or(f64::INFINITY)
            };
            let v = verdict(&va, &vb, m.lower_is_better, m.bound, s);
            regressed += usize::from(v == Verdict::Regressed);
            let (ma, mb) = (median(&va).unwrap_or(0.0), median(&vb).unwrap_or(0.0));
            let change = if ma != 0.0 {
                format!("{:+.1}%", (mb - ma) / ma.abs() * 100.0)
            } else {
                "-".into()
            };
            println!(
                "{w:<16} {:<20} {ma:>12.6} {mb:>12.6} {change:>8} {:>7.1}% {:>6.1}%  {}",
                m.name,
                s * 100.0,
                m.bound * 100.0,
                v.name()
            );
        }
    }
    if regressed > 0 {
        Err(format!("{regressed} metric(s) regressed"))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_quartile_rule() {
        let a = [10.0, 10.2, 9.9, 10.1];
        // Within the bound.
        assert_eq!(verdict(&a, &[10.5, 10.4], true, 0.10, 0.02), Verdict::Ok);
        // Worse by more than the bound.
        assert_eq!(verdict(&a, &[12.0, 12.2], true, 0.10, 0.02), Verdict::Regressed);
        // Higher is better: a drop beyond the bound regresses, a rise is fine.
        assert_eq!(verdict(&a, &[8.0, 8.5], false, 0.10, 0.02), Verdict::Regressed);
        assert_eq!(verdict(&a, &[12.0], false, 0.10, 0.02), Verdict::Ok);
        // Spread wider than the bound: unresolved, even if B looks worse…
        assert_eq!(verdict(&a, &[12.0, 12.2], true, 0.10, 0.15), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        assert_eq!(verdict(&a, &[9.0, 9.5], true, 0.10, 0.15), Verdict::Ok);
        assert_eq!(verdict(&a, &[9.0, 10.15], true, 0.10, 0.15), Verdict::Unresolved);
        // Deterministic metrics: any worsening beyond the bound regresses.
        assert_eq!(verdict(&[5.0], &[5.0], true, 1e-9, 0.0), Verdict::Ok);
        assert_eq!(verdict(&[5.0], &[5.001], true, 1e-9, 0.0), Verdict::Regressed);
        assert_eq!(verdict(&[], &[1.0], true, 0.1, 0.0), Verdict::Unresolved);
    }

    #[test]
    fn every_end_to_end_metric_has_a_recorded_spread() {
        let spec = Spec::load(&crate::repo_root()).expect("BENCHMARK.json parses");
        for w in crate::workloads::Workload::ALL {
            for m in &spec.end_to_end {
                assert!(
                    recorded_spread(w.name(), &m.name).is_some(),
                    "spread.json lacks {} / {}",
                    w.name(),
                    m.name
                );
            }
        }
    }
}
