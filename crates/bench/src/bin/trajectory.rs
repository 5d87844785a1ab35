//! The exact-counter trajectory: `BENCH_TRAJECTORY.json` at the repository
//! root holds one entry per change, and this binary checks a benchmark smoke
//! run against the last one.
//!
//! ```text
//! bash benchmark/run.sh --smoke | trajectory                  # check
//! bash benchmark/run.sh --smoke | trajectory --append LABEL
//! ```
//!
//! It reads the `name value unit` lines that `run.sh --smoke` prints under
//! each `== <workload> …` header and keeps only the [`COUNTERS`]: values that
//! are exact on any host (allocation counts, byte sizes, seeded chains,
//! simulated cache misses), not timings. The check compares each of them bit
//! for bit with the last entry and exits 1 on any difference, on a missing
//! counter or on a missing workload. `--append` writes the run as the next
//! entry instead, for a change that moves a counter on purpose.
//!
//! Each entry also records the host's CPU count and two size counts of the
//! working tree, which a run prints as a diff and never gates: Rust lines outside `benchmark/`, and distinct public
//! names (`pub fn/struct/enum/trait/type/const/static`) under `crates/*/src`.
//!
//! This binary is the file's only writer. It writes one key per line, so
//! reading the file back is a line scan, not a JSON parser.

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

use std::collections::BTreeSet;
use std::io::Read as _;
use std::process::Command;

/// The trajectory file, relative to the repository root.
const FILE: &str = "BENCH_TRAJECTORY.json";

/// The smoke's exact counters. Every workload prints each of them.
const COUNTERS: [&str; 13] = [
    "cluster_bytes_per_token",
    "core.allocs_per_iter",
    "core.par_allocs_per_iter",
    "core.iters_to_target",
    "core.final_ll_per_token",
    "core.checkpoint_bytes",
    "cachesim.l1_miss_per_token",
    "cachesim.l3_miss_per_token",
    "dist.bytes_per_iter",
    "dist.recovery_bytes",
    "dist.recoveries",
    "serve.allocs_per_request",
    "serve.model_bytes",
];

/// Key prefix of the size counts.
const SIZE: &str = "size.";

/// One entry: `(key, value)` pairs in file order. A value is kept as the
/// text it was read or printed as, so a number survives a round trip bit for
/// bit. Counter keys are `workload/counter`.
type Entry = Vec<(String, String)>;

/// The counters of a smoke run, as `workload/counter` keys, in print order.
/// A counter printed twice under one workload must print the same value.
fn parse_smoke(text: &str) -> Result<Entry, String> {
    let mut out: Entry = Vec::new();
    let mut workload = None;
    for line in text.lines() {
        if let Some(header) = line.strip_prefix("== ") {
            workload = header.split_whitespace().next().map(str::to_owned);
            continue;
        }
        let mut fields = line.split_whitespace();
        let (Some(name), Some(value), Some(_unit), None) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        let Some(workload) = &workload else { continue };
        if !COUNTERS.contains(&name) {
            continue;
        }
        let key = format!("{workload}/{name}");
        match out.iter().find(|(k, _)| *k == key) {
            Some((_, seen)) if !same(seen, value) => {
                return Err(format!("{key} printed {seen} and then {value} in one run"));
            }
            Some(_) => {}
            None => out.push((key, value.to_owned())),
        }
    }
    Ok(out)
}

/// The host's CPU count, as the smoke's traced runs print it. An entry
/// records it; the check does not compare it.
fn host_cpus(text: &str) -> Option<(String, String)> {
    let line = text.lines().find_map(|l| l.strip_prefix("host_cpus "))?;
    let cpus = line.split_whitespace().next()?;
    Some(("host_cpus".to_owned(), cpus.to_owned()))
}

/// Bit-for-bit equality of two printed values (text equality when either is
/// not a number).
fn same(a: &str, b: &str) -> bool {
    match (a.parse::<f64>(), b.parse::<f64>()) {
        (Ok(x), Ok(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// The entries of a trajectory file: each line that is just `{` opens one,
/// each `"key": value` line adds to it.
fn parse_file(text: &str) -> Vec<Entry> {
    let mut entries = Vec::new();
    for line in text.lines().map(str::trim) {
        if line == "{" {
            entries.push(Vec::new());
        } else if let (Some(entry), Some(rest)) = (entries.last_mut(), line.strip_prefix('"')) {
            let Some((key, value)) = rest.split_once("\": ") else { continue };
            let value = value.trim_end_matches(',');
            let value = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')).unwrap_or(value);
            entry.push((key.to_owned(), value.to_owned()));
        }
    }
    entries
}

/// The whole file: a JSON object whose `entries` array holds one object per
/// entry, one key per line.
fn render_file(entries: &[Entry]) -> String {
    let mut out = String::from("{\"entries\": [\n");
    for (i, entry) in entries.iter().enumerate() {
        out.push_str("    {\n");
        for (j, (key, value)) in entry.iter().enumerate() {
            let number = value.parse::<f64>().is_ok_and(f64::is_finite);
            let value = if number { value.clone() } else { format!("{value:?}") };
            let comma = if j + 1 < entry.len() { "," } else { "" };
            out.push_str(&format!("      {key:?}: {value}{comma}\n"));
        }
        out.push_str(if i + 1 < entries.len() { "    },\n" } else { "    }\n" });
    }
    out.push_str("]}\n");
    out
}

/// What differs between the counters of `last` and those of a run: one line
/// per changed counter, per counter the run lacks and per workload it lacks.
fn compare(last: &Entry, run: &Entry) -> Vec<String> {
    let counters = |e: &Entry| -> Vec<(String, String)> {
        e.iter().filter(|(k, _)| k.contains('/')).cloned().collect()
    };
    let (last, run) = (counters(last), counters(run));
    let workload = |key: &str| key.split('/').next().unwrap_or_default().to_owned();
    let ran: BTreeSet<String> = run.iter().map(|(k, _)| workload(k)).collect();
    let mut missing_workloads = BTreeSet::new();
    let mut diffs = Vec::new();
    for (key, want) in &last {
        let w = workload(key);
        if !ran.contains(&w) {
            missing_workloads.insert(w);
            continue;
        }
        match run.iter().find(|(k, _)| k == key) {
            None => diffs.push(format!("{key}: missing (last entry {want})")),
            Some((_, got)) if !same(got, want) => {
                diffs.push(format!("{key}: {got} (last entry {want})"));
            }
            Some(_) => {}
        }
    }
    diffs.extend(missing_workloads.into_iter().map(|w| format!("{w}: workload missing")));
    diffs
}

/// The working tree's size counts, from `git ls-files`: Rust lines outside
/// `benchmark/`, and distinct public names under `crates/*/src`. Empty when
/// git cannot list the files.
fn size_counts() -> Entry {
    let Ok(out) = Command::new("git").arg("ls-files").output() else { return Vec::new() };
    let files = String::from_utf8_lossy(&out.stdout).into_owned();
    let (mut lines, mut names) = (0usize, BTreeSet::new());
    for path in files.lines() {
        let rust = path.ends_with(".rs") && !path.starts_with("benchmark/");
        let crate_src = path.strip_prefix("crates/").and_then(|p| p.split_once('/'));
        let crate_src = crate_src.is_some_and(|(_, rest)| rest.starts_with("src/"));
        if !rust && !crate_src {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(path) else { continue };
        if rust {
            lines += text.bytes().filter(|&b| b == b'\n').count();
        }
        if crate_src {
            names.extend(public_names(&text));
        }
    }
    vec![
        (format!("{SIZE}rust_lines"), lines.to_string()),
        (format!("{SIZE}public_names"), names.len().to_string()),
    ]
}

/// The names `\bpub (fn|struct|enum|trait|type|const|static) NAME` declares.
fn public_names(text: &str) -> Vec<String> {
    const KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut names = Vec::new();
    for (at, _) in text.match_indices("pub ") {
        if text[..at].chars().next_back().is_some_and(word) {
            continue;
        }
        let rest = &text[at + 4..];
        let Some(rest) = KINDS.iter().find_map(|k| rest.strip_prefix(k)?.strip_prefix(' ')) else {
            continue;
        };
        let name: String = rest.chars().take_while(|&c| word(c)).collect();
        if !name.is_empty() {
            names.push(name);
        }
    }
    names
}

/// Prints how the size counts moved since the last entry.
fn print_sizes(last: &Entry, now: &Entry) {
    for (key, value) in now {
        let before = last.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
        let delta = match before.map(|b| (b.parse::<i64>(), value.parse::<i64>())) {
            Some((Ok(b), Ok(v))) => format!("{b} -> {v} ({:+})", v - b),
            _ => format!("{} -> {value}", before.unwrap_or("-")),
        };
        println!("{key} {delta}");
    }
}

/// `Some(label)` for `--append LABEL`, `None` for a check; `Err` names the
/// argument that is not understood.
fn parse_args(args: impl Iterator<Item = String>) -> Result<Option<String>, String> {
    let args: Vec<String> = args.collect();
    match args.as_slice() {
        [] => Ok(None),
        [flag, label] if flag == "--append" => Ok(Some(label.clone())),
        [first, ..] => Err(first.clone()),
    }
}

fn main() {
    let append = parse_args(std::env::args().skip(1)).unwrap_or_else(|arg| {
        eprintln!(
            "trajectory: unexpected argument `{arg}`\n\
             usage: trajectory [--append LABEL] < smoke-output"
        );
        std::process::exit(2)
    });
    let mut smoke = String::new();
    let run = std::io::stdin()
        .read_to_string(&mut smoke)
        .map_err(|e| format!("reading the smoke output: {e}"))
        .and_then(|_| parse_smoke(&smoke));
    let run = run.unwrap_or_else(|e| {
        eprintln!("trajectory: {e}");
        std::process::exit(2)
    });
    let mut entries = parse_file(&std::fs::read_to_string(FILE).unwrap_or_default());
    let sizes = size_counts();
    let last = entries.last().cloned().unwrap_or_default();
    let label = |e: &Entry| e.iter().find(|(k, _)| k == "label").map(|(_, v)| v.clone());
    println!("last entry: {}", label(&last).unwrap_or_else(|| "none".to_owned()));
    print_sizes(&last, &sizes);
    if let Some(label) = append {
        let mut entry = vec![("label".to_owned(), label)];
        entry.extend(host_cpus(&smoke));
        entry.extend(sizes);
        entry.extend(run);
        entries.push(entry);
        std::fs::write(FILE, render_file(&entries)).unwrap_or_else(|e| {
            eprintln!("trajectory: writing {FILE}: {e}");
            std::process::exit(2)
        });
        println!("appended entry {} to {FILE}", entries.len());
        return;
    }
    if last.is_empty() {
        eprintln!("trajectory: {FILE} holds no entry to check against");
        std::process::exit(2);
    }
    let diffs = compare(&last, &run);
    let checked = last.iter().filter(|(k, _)| k.contains('/')).count();
    if diffs.is_empty() {
        println!("{checked} exact counters as in the last entry");
        return;
    }
    for diff in &diffs {
        println!("DIFFERS {diff}");
    }
    println!("{} of {checked} exact counters differ from the last entry", diffs.len());
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two workloads as `run.sh --smoke` prints them: the untraced run's
    /// end-to-end lines, then the traced run's per-layer lines.
    fn smoke() -> String {
        let mut text = String::new();
        for (workload, bytes) in [("train_dense", "6.491659778587786"), ("cluster", "6.5")] {
            text.push_str(&format!(
                "== {workload} seed 1 trace 0\nsetup_s 0.01 s\n\
                 cluster_bytes_per_token {bytes} B\nops_failed 0 count\n{{\"correct\":true}}\n\
                 == {workload} seed 1 trace 1\ncore.word_phase_s_per_iter 0.005 s\n"
            ));
            for (i, name) in COUNTERS.iter().skip(1).enumerate() {
                text.push_str(&format!("{name} {} count\n", i * 7));
            }
        }
        text
    }

    fn entry() -> Entry {
        let mut entry = vec![("label".to_owned(), "base".to_owned())];
        entry.push((format!("{SIZE}rust_lines"), "25776".to_owned()));
        entry.extend(parse_smoke(&smoke()).unwrap());
        entry
    }

    #[test]
    fn a_smoke_run_matches_the_entry_it_was_appended_as() {
        let run = parse_smoke(&smoke()).unwrap();
        assert_eq!(run.len(), 2 * COUNTERS.len(), "timings and JSON lines are not counters");
        let file = render_file(&[entry(), entry()]);
        let back = parse_file(&file);
        assert_eq!(back, [entry(), entry()], "{file}");
        assert!(compare(back.last().unwrap(), &run).is_empty());
    }

    #[test]
    fn an_edited_counter_fails_the_check() {
        let edited =
            smoke().replace("cluster_bytes_per_token 6.5 B", "cluster_bytes_per_token 6.51 B");
        let diffs = compare(&entry(), &parse_smoke(&edited).unwrap());
        assert_eq!(diffs, ["cluster/cluster_bytes_per_token: 6.51 (last entry 6.5)"]);
        let dropped: String = smoke()
            .lines()
            .filter(|l| !l.starts_with("dist.recoveries"))
            .map(|l| l.to_owned() + "\n")
            .collect();
        assert_eq!(compare(&entry(), &parse_smoke(&dropped).unwrap()).len(), 2, "one per workload");
    }

    #[test]
    fn a_dropped_workload_fails_the_check() {
        let text = smoke();
        let only_dense = &text[..text.find("== cluster").unwrap()];
        let diffs = compare(&entry(), &parse_smoke(only_dense).unwrap());
        assert_eq!(diffs, ["cluster: workload missing"]);
    }

    #[test]
    fn public_names_follow_the_pinned_scan() {
        // Written with `PUB` so that the scan of this file finds none of them.
        let text = "PUB fn a() {}\nPUB(crate) fn b() {}\n  PUB struct C;\nrePUB fn d() {}\n\
                    PUB unsafe fn e() {}\nPUB const F: u8 = 0; PUB static G: u8 = 0;\n";
        assert_eq!(public_names(&text.replace("PUB", "pub")), ["a", "C", "F", "G"]);
    }

    #[test]
    fn only_append_is_an_argument() {
        let args = |a: &[&str]| parse_args(a.iter().map(|s| s.to_string()));
        assert_eq!(args(&[]), Ok(None));
        assert_eq!(args(&["--append", "x"]), Ok(Some("x".to_owned())));
        assert_eq!(args(&["--append"]), Err("--append".to_owned()));
        assert_eq!(args(&["--full"]), Err("--full".to_owned()));
    }
}
