//! Compares two sides of the repository benchmark under its 10-pair rule.
//!
//! ```text
//! benchdiff PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! Each file holds one benchmark result line per run (the JSON object the
//! benchmark prints last); line `i` of both files is pair `i`. For every
//! end-to-end metric of `BENCHMARK.json` it prints the parent's quartiles,
//! the change's median, the pairs the change won and a verdict (gain,
//! regression, unresolved, no regression); see [`lax_bench::benchdiff`].
//! Exits 1 on a regression or a larger failed-operation share on the
//! change side, 2 on unreadable or malformed input, 0 otherwise.

use std::fs;
use std::process::ExitCode;

use lax_bench::benchdiff::{compare, rules, Report, BENCHMARK_JSON};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [parent, change] = args.as_slice() else {
        eprintln!("usage: benchdiff PARENT.jsonl CHANGE.jsonl");
        return ExitCode::from(2);
    };
    match diff(parent, change) {
        Ok(report) => {
            print!("{}", report.render());
            ExitCode::from(report.exit_code())
        }
        Err(e) => {
            eprintln!("benchdiff: {e}");
            ExitCode::from(2)
        }
    }
}

fn diff(parent: &str, change: &str) -> Result<Report, String> {
    let read =
        |path: &str| fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let rules = rules(BENCHMARK_JSON).map_err(|e| e.to_string())?;
    compare(&rules, &read(parent)?, &read(change)?).map_err(|e| e.to_string())
}
