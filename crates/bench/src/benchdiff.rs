//! Paired comparison of two sides of the repository benchmark under its
//! 10-pair rule (`benchmark/README.md`, "Comparing two commits").
//!
//! Each side is a JSONL file holding one line per benchmark run: the JSON
//! object the benchmark prints last,
//! `{"correct":…,"attempted":N,"failed":N,"metrics":{NAME:{"value":V,"unit":U},…}}`.
//! Line `i` of the parent file and line `i` of the change file form pair
//! `i` (same seed, run back to back). Blank lines are skipped.
//!
//! The compared metrics are the end-to-end ones of `BENCHMARK.json`, each
//! with its `better` direction and its `bound`, a fraction of the parent's
//! median. A line from a run of every workload names them
//! `WORKLOAD.NAME`; a line from one workload names them `NAME`. Per metric
//! the verdict is, in this order:
//!
//! * **regression** — the change's median is worse than the parent's by
//!   more than the bound;
//! * **gain** — the change wins at least nine of every ten pairs (ties
//!   count for neither side) and its median is better by more than the
//!   parent's interquartile range;
//! * **unresolved** — either side's interquartile range over its median is
//!   wider than the bound, so the runs cannot tell;
//! * **no regression** — otherwise.
//!
//! A change side whose share of failed operations (`failed / attempted`,
//! summed over its runs) is larger than the parent's fails as well.
//! Quartiles interpolate linearly between order statistics.

use std::collections::BTreeMap;
use std::fmt;

use sim_core::json::{self, Value};
use sim_core::table::Table;

/// The repository's benchmark declaration, compiled in: its end-to-end
/// metrics are what `benchdiff` compares.
pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric of `BENCHMARK.json`: its name, which way it
/// improves, and the largest tolerated worsening of the median as a
/// fraction of the parent's median.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRule {
    name: String,
    better: Better,
    bound: f64,
}

/// Which input a problem was found in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The parent commit's runs.
    Parent,
    /// The change's runs.
    Change,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Side::Parent => "parent",
            Side::Change => "change",
        })
    }
}

/// Why two run files could not be compared.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffError {
    /// `BENCHMARK.json` has no usable `end_to_end` list.
    Rules(String),
    /// A run line (side, 1-based line number) is not a benchmark result
    /// object, or lacks an end-to-end metric the first parent run has.
    Line(Side, usize, String),
    /// The files hold different numbers of runs (parent, change), or none.
    Pairs(usize, usize),
    /// The first parent run carries no end-to-end metric of `BENCHMARK.json`.
    NoMetrics,
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::Rules(why) => write!(f, "BENCHMARK.json: {why}"),
            DiffError::Line(side, line, why) => write!(f, "{side} line {line}: {why}"),
            DiffError::Pairs(parent, change) => {
                write!(f, "cannot pair {parent} parent run(s) with {change} change run(s)")
            }
            DiffError::NoMetrics => {
                write!(f, "the runs carry no end-to-end metric of BENCHMARK.json")
            }
        }
    }
}

impl std::error::Error for DiffError {}

/// Reads the `end_to_end` metric rules of a `BENCHMARK.json` document.
///
/// # Errors
///
/// [`DiffError::Rules`] when the document does not parse or a rule lacks a
/// name, a `better` of `lower`/`higher`, or a finite non-negative bound.
pub fn rules(benchmark_json: &str) -> Result<Vec<MetricRule>, DiffError> {
    let doc = json::parse(benchmark_json).map_err(|e| DiffError::Rules(e.to_string()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| DiffError::Rules("no `end_to_end` list".into()))?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| DiffError::Rules("a metric has no name".into()))?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => {
                    return Err(DiffError::Rules(format!("`{name}` has no lower/higher `better`")))
                }
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .filter(|b| b.is_finite() && *b >= 0.0)
                .ok_or_else(|| DiffError::Rules(format!("`{name}` has no usable bound")))?;
            Ok(MetricRule { name: name.to_string(), better, bound })
        })
        .collect()
}

/// One benchmark run's result line.
#[derive(Debug, Clone)]
struct Run {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn parse_run(side: Side, line: usize, text: &str) -> Result<Run, DiffError> {
    let err = |why: String| DiffError::Line(side, line, why);
    let doc = json::parse(text).map_err(|e| err(e.to_string()))?;
    let count = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64)
            .map(|n| n as u64)
            .ok_or_else(|| err(format!("`{key}` is not a count")))
    };
    let (attempted, failed) = (count("attempted")?, count("failed")?);
    if failed > attempted {
        return Err(err(format!("{failed} failed of {attempted} attempted")));
    }
    let Some(Value::Object(pairs)) = doc.get("metrics") else {
        return Err(err("no `metrics` object".into()));
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in pairs {
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .filter(|v| v.is_finite())
            .ok_or_else(|| err(format!("metric `{name}` has no finite value")))?;
        metrics.insert(name.clone(), value);
    }
    Ok(Run { attempted, failed, metrics })
}

fn parse_runs(side: Side, text: &str) -> Result<Vec<Run>, DiffError> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_run(side, i + 1, l))
        .collect()
}

/// First quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Quartiles {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Quartiles {
    fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let x = p * (v.len() - 1) as f64;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
        };
        Quartiles { q1: at(0.25), median: at(0.5), q3: at(0.75) }
    }

    fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Interquartile range over the median (infinite for a zero median
    /// with any spread).
    fn spread(&self) -> f64 {
        let iqr = self.iqr();
        if iqr == 0.0 {
            0.0
        } else if self.median == 0.0 {
            f64::INFINITY
        } else {
            iqr / self.median.abs()
        }
    }
}

/// A metric's verdict (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Gain,
    Regression,
    Unresolved,
    NoRegression,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::NoRegression => "no regression",
        })
    }
}

/// One metric compared across the pairs: its name as the runs carry it
/// (`WORKLOAD.NAME` on merged lines), both sides' quartiles, the pairs the
/// change won strictly, and the verdict.
#[derive(Debug, Clone, PartialEq)]
struct MetricDiff {
    name: String,
    parent: Quartiles,
    change: Quartiles,
    wins: usize,
    pairs: usize,
    verdict: Verdict,
}

fn judge(rule: &MetricRule, name: &str, parent: &[f64], change: &[f64]) -> MetricDiff {
    let sign = match rule.better {
        Better::Lower => -1.0,
        Better::Higher => 1.0,
    };
    let wins = parent.iter().zip(change).filter(|(p, c)| sign * (*c - *p) > 0.0).count();
    let (pq, cq) = (Quartiles::of(parent), Quartiles::of(change));
    let gap = sign * (cq.median - pq.median);
    let worse = if gap >= 0.0 {
        0.0
    } else if pq.median == 0.0 {
        f64::INFINITY
    } else {
        -gap / pq.median.abs()
    };
    let verdict = if worse > rule.bound {
        Verdict::Regression
    } else if wins * 10 >= parent.len() * 9 && gap > pq.iqr() {
        Verdict::Gain
    } else if pq.spread().max(cq.spread()) > rule.bound {
        Verdict::Unresolved
    } else {
        Verdict::NoRegression
    };
    MetricDiff {
        name: name.to_string(),
        parent: pq,
        change: cq,
        wins,
        pairs: parent.len(),
        verdict,
    }
}

/// The comparison of two run files: one entry per compared metric, in
/// name order, and each side's `(failed, attempted)` summed over its runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    metrics: Vec<MetricDiff>,
    parent_ops: (u64, u64),
    change_ops: (u64, u64),
}

impl Report {
    /// `true` when the change fails a larger share of its operations than
    /// the parent.
    fn more_failures(&self) -> bool {
        let share = |(failed, attempted): (u64, u64)| match attempted {
            0 => 0.0,
            a => failed as f64 / a as f64,
        };
        share(self.change_ops) > share(self.parent_ops)
    }

    /// Process exit code: 1 on any regression or a larger failure share,
    /// 0 otherwise.
    pub fn exit_code(&self) -> u8 {
        let regressed = self.metrics.iter().any(|m| m.verdict == Verdict::Regression);
        u8::from(regressed || self.more_failures())
    }

    /// The per-metric table and a one-line conclusion.
    pub fn render(&self) -> String {
        let mut t = Table::with_columns(&[
            "metric",
            "parent q1",
            "parent median",
            "parent q3",
            "change median",
            "won",
            "verdict",
        ]);
        for m in &self.metrics {
            t.row(vec![
                m.name.clone(),
                sig(m.parent.q1),
                sig(m.parent.median),
                sig(m.parent.q3),
                sig(m.change.median),
                format!("{}/{}", m.wins, m.pairs),
                m.verdict.to_string(),
            ]);
        }
        let (pf, pa) = self.parent_ops;
        let (cf, ca) = self.change_ops;
        let mut out = t.render();
        out.push_str(&format!("failed operations: parent {pf}/{pa}, change {cf}/{ca}\n"));
        out.push_str(match (self.exit_code(), self.more_failures()) {
            (0, _) => "benchdiff: no regression\n",
            (_, true) => "benchdiff: FAIL (the change fails a larger share of operations)\n",
            _ => "benchdiff: FAIL (regression)\n",
        });
        out
    }
}

/// Five significant digits, without exponent.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (4 - v.abs().log10().floor() as i64).clamp(0, 12) as usize;
    format!("{v:.decimals$}")
}

/// The rule a run's metric name falls under: `NAME` or `WORKLOAD.NAME`.
fn rule_for<'r>(rules: &'r [MetricRule], name: &str) -> Option<&'r MetricRule> {
    let base = name.rsplit_once('.').map_or(name, |(_, base)| base);
    rules.iter().find(|r| r.name == base)
}

/// Compares the parent's and the change's run files under `rules`.
///
/// # Errors
///
/// A [`DiffError`] when a line is not a result object, the files do not
/// pair up, or an end-to-end metric is not in every run.
pub fn compare(rules: &[MetricRule], parent: &str, change: &str) -> Result<Report, DiffError> {
    let parent = parse_runs(Side::Parent, parent)?;
    let change = parse_runs(Side::Change, change)?;
    if parent.is_empty() || parent.len() != change.len() {
        return Err(DiffError::Pairs(parent.len(), change.len()));
    }
    let compared: Vec<(&String, &MetricRule)> = parent[0]
        .metrics
        .keys()
        .filter_map(|name| rule_for(rules, name).map(|rule| (name, rule)))
        .collect();
    if compared.is_empty() {
        return Err(DiffError::NoMetrics);
    }
    let column = |side: Side, runs: &[Run], name: &str| {
        runs.iter()
            .enumerate()
            .map(|(i, run)| {
                run.metrics.get(name).copied().ok_or_else(|| {
                    DiffError::Line(side, i + 1, format!("metric `{name}` is missing"))
                })
            })
            .collect::<Result<Vec<f64>, DiffError>>()
    };
    let mut metrics = Vec::with_capacity(compared.len());
    for (name, rule) in compared {
        let p = column(Side::Parent, &parent, name)?;
        let c = column(Side::Change, &change, name)?;
        metrics.push(judge(rule, name, &p, &c));
    }
    let ops = |runs: &[Run]| {
        runs.iter().fold((0u64, 0u64), |(f, a), r| {
            (f.saturating_add(r.failed), a.saturating_add(r.attempted))
        })
    };
    Ok(Report { metrics, parent_ops: ops(&parent), change_ops: ops(&change) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::rng::SimRng;

    /// One result line with the given failure counts and metric values.
    fn line(attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(name, v)| format!(r#""{name}":{{"value":{v},"unit":"x"}}"#))
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
            failed == 0,
            metrics.join(",")
        )
    }

    /// A run file of `sim_us_per_s` values (higher is better, bound 0.25).
    fn runs(values: &[f64]) -> String {
        values.iter().map(|v| line(10, 0, &[("sim_us_per_s", *v)]) + "\n").collect()
    }

    fn repo_rules() -> Vec<MetricRule> {
        rules(BENCHMARK_JSON).unwrap()
    }

    fn only(parent: &str, change: &str) -> MetricDiff {
        let report = compare(&repo_rules(), parent, change).unwrap();
        assert_eq!(report.metrics.len(), 1);
        report.metrics[0].clone()
    }

    const PARENT: [f64; 10] = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0];

    #[test]
    fn the_compiled_in_rules_are_the_benchmarks_end_to_end_metrics() {
        let names: Vec<(String, Better, f64)> =
            repo_rules().into_iter().map(|r| (r.name, r.better, r.bound)).collect();
        assert_eq!(
            names,
            vec![
                ("setup_s".into(), Better::Lower, 0.25),
                ("sim_us_per_s".into(), Better::Higher, 0.25),
                ("peak_rss_mb".into(), Better::Lower, 0.25),
                ("table1_err_max".into(), Better::Lower, 0.001),
            ]
        );
    }

    #[test]
    fn ten_wins_past_the_iqr_is_a_gain() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 1.05).collect();
        let m = only(&runs(&PARENT), &runs(&change));
        assert_eq!((m.wins, m.pairs, m.verdict), (10, 10, Verdict::Gain));
        assert_eq!(m.parent.median, 100.0);
        assert_eq!((m.parent.q1, m.parent.q3), (99.25, 100.75));
    }

    #[test]
    fn nine_wins_and_one_tie_is_a_gain() {
        let mut change: Vec<f64> = PARENT.iter().map(|v| v + 5.0).collect();
        change[3] = PARENT[3];
        let m = only(&runs(&PARENT), &runs(&change));
        assert_eq!((m.wins, m.verdict), (9, Verdict::Gain));
    }

    #[test]
    fn eight_wins_is_no_gain() {
        let mut change: Vec<f64> = PARENT.iter().map(|v| v + 5.0).collect();
        change[3] = PARENT[3];
        change[7] = PARENT[7] - 1.0;
        let m = only(&runs(&PARENT), &runs(&change));
        assert_eq!((m.wins, m.verdict), (8, Verdict::NoRegression));
    }

    #[test]
    fn ten_wins_inside_the_iqr_is_no_gain() {
        let change: Vec<f64> = PARENT.iter().map(|v| v + 0.5).collect();
        let m = only(&runs(&PARENT), &runs(&change));
        assert_eq!((m.wins, m.verdict), (10, Verdict::NoRegression));
    }

    #[test]
    fn a_median_worse_than_the_bound_is_a_regression_and_exits_1() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 0.7).collect();
        let report = compare(&repo_rules(), &runs(&PARENT), &runs(&change)).unwrap();
        assert_eq!(report.metrics[0].verdict, Verdict::Regression);
        assert_eq!(report.exit_code(), 1);
        assert!(report.render().contains("REGRESSION"));
        // Worse, but inside the bound: no regression, exit 0.
        let change: Vec<f64> = PARENT.iter().map(|v| v * 0.8).collect();
        let report = compare(&repo_rules(), &runs(&PARENT), &runs(&change)).unwrap();
        assert_eq!(report.metrics[0].verdict, Verdict::NoRegression);
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let wide = [60.0, 140.0, 70.0, 130.0, 100.0, 100.0, 65.0, 135.0, 100.0, 100.0];
        let m = only(&runs(&PARENT), &runs(&wide));
        assert_eq!(m.verdict, Verdict::Unresolved);
        let m = only(&runs(&wide), &runs(&wide));
        assert_eq!(m.verdict, Verdict::Unresolved);
    }

    #[test]
    fn a_larger_failure_share_on_the_change_side_fails() {
        let ok: String = (0..10).map(|_| line(40, 0, &[("sim_us_per_s", 1.0)]) + "\n").collect();
        let mut bad = ok.clone();
        bad.push_str(&line(40, 1, &[("sim_us_per_s", 1.0)]));
        let ok11 = format!("{ok}{}", line(40, 0, &[("sim_us_per_s", 1.0)]));
        let report = compare(&repo_rules(), &ok11, &bad).unwrap();
        assert_eq!(report.metrics[0].verdict, Verdict::NoRegression);
        assert!(report.more_failures());
        assert_eq!(report.exit_code(), 1);
        assert_eq!((report.parent_ops, report.change_ops), ((0, 440), (1, 440)));
        // The same share on both sides, or fewer failures, passes.
        let report = compare(&repo_rules(), &bad, &bad).unwrap();
        assert_eq!(report.exit_code(), 0);
        let report = compare(&repo_rules(), &bad, &ok11).unwrap();
        assert_eq!(report.exit_code(), 0);
    }

    #[test]
    fn merged_lines_compare_every_workloads_end_to_end_metrics() {
        let merged = |rss: f64| {
            (0..10)
                .map(|_| {
                    let metrics = [
                        ("fleet_plain.peak_rss_mb", rss),
                        ("fleet_plain.gpu_sim.run_s", 1.0),
                        ("rnn_chains.setup_s", 0.7),
                        ("rnn_chains.table1_err_max", 0.048378),
                    ];
                    line(12, 0, &metrics) + "\n"
                })
                .collect::<String>()
        };
        let report = compare(&repo_rules(), &merged(4.0), &merged(6.0)).unwrap();
        let got: Vec<(&str, Verdict)> =
            report.metrics.iter().map(|m| (m.name.as_str(), m.verdict)).collect();
        assert_eq!(
            got,
            vec![
                ("fleet_plain.peak_rss_mb", Verdict::Regression),
                ("rnn_chains.setup_s", Verdict::NoRegression),
                ("rnn_chains.table1_err_max", Verdict::NoRegression),
            ]
        );
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        let repo = repo_rules();
        let ten = runs(&PARENT);
        let nine = runs(&PARENT[..9]);
        assert_eq!(compare(&repo, &ten, &nine), Err(DiffError::Pairs(10, 9)));
        assert_eq!(compare(&repo, "", "\n"), Err(DiffError::Pairs(0, 0)));
        let foreign = line(1, 0, &[("jobs_per_s", 1.0)]);
        assert_eq!(compare(&repo, &foreign, &foreign), Err(DiffError::NoMetrics));
        let mut lines: Vec<&str> = ten.lines().collect();
        let gap = line(10, 0, &[("peak_rss_mb", 1.0)]);
        lines[4] = &gap;
        assert_eq!(
            compare(&repo, &ten, &lines.join("\n")),
            Err(DiffError::Line(Side::Change, 5, "metric `sim_us_per_s` is missing".into()))
        );
        assert!(matches!(
            compare(&repo, &ten.replace("\"failed\":0", "\"failed\":11"), &ten),
            Err(DiffError::Line(Side::Parent, 1, _))
        ));
        assert!(matches!(
            compare(&repo, &ten, "not json\n"),
            Err(DiffError::Line(Side::Change, 1, _))
        ));
        assert!(matches!(rules("{}"), Err(DiffError::Rules(_))));
        assert!(matches!(
            rules(r#"{"end_to_end":[{"name":"x","better":"up","bound":1}]}"#),
            Err(DiffError::Rules(_))
        ));
    }

    /// One seeded mutation: truncate, flip a byte or splice two lines.
    fn mutate(text: &str, rng: &mut SimRng) -> String {
        let mut bytes = text.as_bytes().to_vec();
        if bytes.is_empty() {
            return String::new();
        }
        match rng.below(3) {
            0 => bytes.truncate(rng.below(bytes.len() as u64 + 1) as usize),
            1 => {
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] ^= 1 << rng.below(8);
            }
            _ => {
                // Line i's head joined to line j's tail, in place of line i.
                let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
                let i = rng.below(lines.len() as u64) as usize;
                let j = rng.below(lines.len() as u64) as usize;
                let head = &lines[i][..rng.below(lines[i].len() as u64 + 1) as usize];
                let tail = &lines[j][rng.below(lines[j].len() as u64 + 1) as usize..];
                let mut out = lines.clone();
                let spliced = [head, tail].concat();
                out[i] = &spliced;
                bytes = out.concat();
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    #[test]
    fn mutated_inputs_never_panic() {
        let parent = runs(&PARENT);
        let change: Vec<f64> = PARENT.iter().map(|v| v * 1.05).collect();
        let change = runs(&change);
        let mut rng = SimRng::seed_from(0xbe9c);
        let repo = repo_rules();
        for round in 0..3000 {
            let (mut p, mut c, mut r) =
                (parent.clone(), change.clone(), BENCHMARK_JSON.to_string());
            for _ in 0..=round % 3 {
                p = mutate(&p, &mut rng);
                c = mutate(&c, &mut rng);
                r = mutate(&r, &mut rng);
            }
            // A typed error or a clean verdict; never a panic.
            if let Ok(report) = compare(&repo, &p, &c) {
                std::hint::black_box((report.render(), report.exit_code()));
            }
            if let Ok(mutated) = rules(&r) {
                if let Ok(report) = compare(&mutated, &parent, &change) {
                    std::hint::black_box(report.render());
                }
            }
        }
    }
}
