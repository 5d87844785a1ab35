//! `--compare A.json B.json`: two result files of `run.sh`, one row per
//! (end-to-end metric, workload), judged against the bounds in
//! `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::spec::EXACT;
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The runs of one side spread wider than the bound, so a difference of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

/// Judges `b` against `a` for a metric where `higher` is better or not.
/// `bound` is the share of `a`'s median by which the metric may get worse.
pub fn verdict(a: &[f64], b: &[f64], higher: bool, bound: f64) -> Verdict {
    // Interquartile range as a share of the median: the driver's spread.
    let spread = |v: &[f64]| {
        if v.len() < 2 {
            return 0.0;
        }
        let (q1, q3) = quartiles(v);
        (q3 - q1) / median(v).abs()
    };
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = if higher { (ma - mb) / ma.abs() } else { (mb - ma) / ma.abs() };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// All untraced (or traced) runs of a result file, as
/// workload → metric → values in run order, plus operation totals.
struct Side {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload → (attempted, failed), summed over the runs.
    ops: BTreeMap<String, (f64, f64)>,
    /// (workload, seed) → exact counter → value, from traced runs.
    exact: BTreeMap<(String, u64), BTreeMap<String, f64>>,
}

fn load(path: &Path) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no \"runs\" array", path.display()))?;
    let mut side = Side { values: BTreeMap::new(), ops: BTreeMap::new(), exact: BTreeMap::new() };
    for run in runs {
        let bad = || format!("{}: malformed run entry", path.display());
        let workload = run.get("workload").and_then(Json::as_str).ok_or_else(bad)?.to_owned();
        let seed = run.get("seed").and_then(Json::as_f64).ok_or_else(bad)? as u64;
        let traced = run.get("trace") == Some(&Json::Bool(true));
        let metrics = run.get("metrics").and_then(Json::as_obj).ok_or_else(bad)?;
        let ops = side.ops.entry(workload.clone()).or_default();
        ops.0 += run.get("attempted").and_then(Json::as_f64).ok_or_else(bad)?;
        ops.1 += run.get("failed").and_then(Json::as_f64).ok_or_else(bad)?;
        for (name, entry) in metrics {
            let value = entry.get("value").and_then(Json::as_f64).ok_or_else(bad)?;
            if traced {
                if EXACT.contains(&name.as_str()) {
                    side.exact
                        .entry((workload.clone(), seed))
                        .or_default()
                        .insert(name.clone(), value);
                }
            } else {
                side.values
                    .entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(side)
}

fn describe(v: &[f64]) -> String {
    if v.len() < 2 {
        format!("{:.5}", median(v))
    } else {
        let (q1, q3) = quartiles(v);
        format!("{:.5} [{:.5}, {:.5}]", median(v), q1, q3)
    }
}

pub fn run(a_path: &Path, b_path: &Path) -> Result<(), String> {
    let spec = Json::parse(include_str!("../../BENCHMARK.json")).map_err(|e| e.to_string())?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut regressions = Vec::new();
    let mut unresolved = 0;
    println!("metric workload A:median[q1,q3] B:median[q1,q3] bound verdict");
    for metric in spec.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end list")? {
        let field = |k| metric.get(k).and_then(Json::as_str).ok_or("malformed end_to_end entry");
        let (name, higher) = (field("name")?, field("better")? == "higher");
        let bound =
            metric.get("bound").and_then(Json::as_f64).ok_or("end_to_end entry without bound")?;
        for (workload, metrics_a) in &a.values {
            let (Some(va), Some(vb)) =
                (metrics_a.get(name), b.values.get(workload).and_then(|m| m.get(name)))
            else {
                continue;
            };
            let v = verdict(va, vb, higher, bound);
            println!("{name} {workload} {} {} {bound} {v:?}", describe(va), describe(vb));
            match v {
                Verdict::Worse => regressions.push(format!("{name} on {workload} is worse")),
                Verdict::Unresolved => unresolved += 1,
                Verdict::Better | Verdict::Within => {}
            }
        }
    }
    for (workload, &(attempted_a, failed_a)) in &a.ops {
        let Some(&(attempted_b, failed_b)) = b.ops.get(workload) else { continue };
        let (ra, rb) = (failed_a / attempted_a.max(1.0), failed_b / attempted_b.max(1.0));
        println!(
            "ops_failed/ops_attempted {workload} {failed_a}/{attempted_a} {failed_b}/{attempted_b}"
        );
        if rb > ra {
            regressions.push(format!("more operations fail on {workload}"));
        }
    }
    for (key, counters_a) in &a.exact {
        let Some(counters_b) = b.exact.get(key) else { continue };
        for (name, va) in counters_a {
            let Some(vb) = counters_b.get(name) else { continue };
            let same = va == vb;
            println!(
                "{name} {} seed {} {va} {vb} exact {}",
                key.0,
                key.1,
                if same { "same" } else { "DIFFERS" }
            );
            if !same {
                regressions.push(format!("exact counter {name} on {} changed", key.0));
            }
        }
    }
    println!("{unresolved} row(s) unresolved");
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(regressions.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shift = |d: f64| a.map(|x| x + d);
        // Higher is better: losing 12 % is worse, 5 % is within, +12 % better.
        assert_eq!(verdict(&a, &shift(-12.0), true, 0.10), Verdict::Worse);
        assert_eq!(verdict(&a, &shift(-5.0), true, 0.10), Verdict::Within);
        assert_eq!(verdict(&a, &shift(12.0), true, 0.10), Verdict::Better);
        // Lower is better: the same shifts read the other way round.
        assert_eq!(verdict(&a, &shift(12.0), false, 0.10), Verdict::Worse);
        assert_eq!(verdict(&a, &shift(-12.0), false, 0.10), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&steady, &noisy, true, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &steady, false, 0.10), Verdict::Unresolved);
        // A single set has no spread to judge by.
        assert_eq!(verdict(&[100.0], &[101.0], true, 0.10), Verdict::Within);
    }
}
