//! Shared plumbing for the experiment harness binaries.
//!
//! Every table and figure of the paper's evaluation section has a
//! corresponding binary in `src/bin/`, named after it (`table1_hierarchy` …
//! `fig9cd_clueweb`). The binaries print the paper-style rows/series to
//! stdout and, where a series is produced, also write a CSV under
//! `target/experiments/` so the curves can be plotted.
//!
//! All binaries accept `--full` to run at a larger scale (more documents, more
//! topics, more iterations); the default is a quick configuration that
//! finishes in seconds to a couple of minutes, so every table and figure can
//! be regenerated end-to-end on a laptop.
//!
//! Training loops are never hand-rolled here: every run goes through the
//! workspace's unified [`Trainer`] pipeline (overlapped evaluation included)
//! and produces the shared [`IterationLog`] report format this module's
//! printing and CSV helpers consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fs;
use std::path::PathBuf;

use warplda::prelude::*;

/// Returns true when `--full` was passed on the command line.
pub fn full_scale() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Directory where the harness writes CSV series; created on demand.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Writes a CSV file (header + rows) under `target/experiments/` and prints
/// its path. Crash-safe: a partially written series never replaces a
/// previous one.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = experiments_dir().join(name);
    warplda::corpus::io::atomic_write::<std::io::Error, _>(&path, |f| {
        writeln!(f, "{header}")?;
        for row in rows {
            writeln!(f, "{row}")?;
        }
        Ok(())
    })
    .expect("write CSV file");
    println!("[csv] wrote {}", path.display());
}

/// Runs `iterations` iterations of a sampler through the unified [`Trainer`]
/// pipeline, evaluating the likelihood every `eval_every` iterations (and on
/// the final iteration), and returns the log. Evaluation overlaps sampling on
/// a background worker.
pub fn run_trace(
    name: &str,
    sampler: &mut dyn Sampler,
    corpus: &Corpus,
    iterations: usize,
    eval_every: usize,
) -> IterationLog {
    let trainer = Trainer::new(corpus);
    let config = TrainerConfig::new(iterations).eval_every(eval_every.max(1));
    trainer.train(&config, name, sampler)
}

/// Prints a set of logs as aligned "LL vs iteration" and "LL vs time"
/// tables, plus the speed-up ratios against the first (reference) log — the
/// four panels of each Figure 5 row.
pub fn print_convergence_report(logs: &[IterationLog], reference_targets: &[f64]) {
    println!("\n== log likelihood by iteration ==");
    print!("{:>6}", "iter");
    for t in logs {
        print!(" {:>22}", t.name());
    }
    println!();
    let reference: Vec<&IterationRecord> = logs[0].eval_points().collect();
    let others: Vec<Vec<&IterationRecord>> =
        logs.iter().map(|t| t.eval_points().collect()).collect();
    for (i, p) in reference.iter().enumerate() {
        print!("{:>6}", p.iteration);
        for points in &others {
            if let Some(q) = points.get(i) {
                print!(" {:>22.1}", q.log_likelihood.unwrap());
            } else {
                print!(" {:>22}", "-");
            }
        }
        println!();
    }

    println!("\n== log likelihood by time (seconds) ==");
    for t in logs {
        let line: Vec<String> = t
            .eval_points()
            .map(|p| format!("({:.2}s, {:.1})", p.seconds, p.log_likelihood.unwrap()))
            .collect();
        println!("{:<22} {}", t.name(), line.join(" "));
    }

    println!("\n== throughput ==");
    for t in logs {
        println!("{:<22} {:>10.2} Mtoken/s", t.name(), t.mean_tokens_per_sec() / 1e6);
    }

    if !reference_targets.is_empty() {
        println!("\n== speed-up of {} over the others to reach a target LL ==", logs[0].name());
        print!("{:>16}", "target LL");
        for t in logs.iter().skip(1) {
            print!(" {:>18} (iter)", t.name());
            print!(" {:>18} (time)", t.name());
        }
        println!();
        for &target in reference_targets {
            print!("{:>16.1}", target);
            let ref_iter = logs[0].iterations_to_reach(target);
            let ref_time = logs[0].seconds_to_reach(target);
            for t in logs.iter().skip(1) {
                let iter_ratio = match (ref_iter, t.iterations_to_reach(target)) {
                    (Some(a), Some(b)) => format!("{:.2}x", b as f64 / a as f64),
                    _ => "-".to_string(),
                };
                let time_ratio = match (ref_time, t.seconds_to_reach(target)) {
                    (Some(a), Some(b)) => format!("{:.2}x", b / a),
                    _ => "-".to_string(),
                };
                print!(" {:>25} {:>25}", iter_ratio, time_ratio);
            }
            println!();
        }
    }
}

/// Converts logs to CSV rows: `sampler,iteration,seconds,log_likelihood`.
pub fn logs_to_csv_rows(logs: &[IterationLog]) -> Vec<String> {
    logs.iter().flat_map(IterationLog::csv_rows).collect()
}

/// Likelihood targets for the speed-up panels: fractions of the way from the
/// first evaluated likelihood to the *lowest* final likelihood across logs,
/// so that every sampler reaches every target (the paper picks its targets the
/// same way — likelihood levels all runs attain).
pub fn default_targets(logs: &[IterationLog]) -> Vec<f64> {
    let start = logs
        .iter()
        .filter_map(|t| t.eval_points().next().and_then(|p| p.log_likelihood))
        .fold(f64::INFINITY, f64::min);
    let attained = logs.iter().map(IterationLog::final_ll).fold(f64::INFINITY, f64::min);
    [0.5, 0.8, 0.95].iter().map(|f| start + (attained - start) * f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_helpers_work() {
        let corpus = DatasetPreset::Tiny.generate_scaled(10);
        let params = ModelParams::paper_defaults(6);
        let mut s = WarpLda::new(&corpus, params, WarpLdaConfig::default(), 1);
        let log = run_trace("WarpLDA", &mut s, &corpus, 6, 2);
        assert_eq!(log.records().len(), 6);
        assert_eq!(log.eval_points().count(), 3);
        assert!(log.mean_tokens_per_sec() > 0.0);
        assert!(log.final_ll().is_finite());
        let targets = default_targets(std::slice::from_ref(&log));
        assert_eq!(targets.len(), 3);
        assert!(log.iterations_to_reach(f64::NEG_INFINITY).is_some());
        assert!(log.iterations_to_reach(0.0).is_none());
        let rows = logs_to_csv_rows(std::slice::from_ref(&log));
        assert_eq!(rows.len(), 3);
    }
}
