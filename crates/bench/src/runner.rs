//! Experiment execution and caching: a thin memoizing layer over the
//! parallel [`sweep`](crate::sweep) engine, so every figure computed in one
//! process reuses the same runs.

use std::collections::BTreeMap;

use gpu_sim::prelude::*;
use sim_core::table::{fmt_f, Table};
use workloads::spec::{ArrivalRate, Benchmark};

use crate::checkpoint::{CellProfile, Checkpoint};
use crate::sweep::{self, BenchError, Scenario, SweepOptions};

/// Jobs per benchmark run (paper Section 5.3).
pub const JOBS_PER_RUN: usize = 128;

/// Default RNG seed for the published experiment set.
pub const DEFAULT_SEED: u64 = 20210301;

/// Memoized experiment results keyed by [`Scenario`]. `get`/`met` run
/// missing cells inline; [`ResultsDb::warm`] fans a whole grid across
/// worker threads first, so the figure renderers afterwards only hit cache.
#[derive(Debug, Default)]
pub struct ResultsDb {
    cache: BTreeMap<Scenario, SimReport>,
    profiles: BTreeMap<Scenario, CellProfile>,
    n_jobs: usize,
    seed: u64,
    verbose: bool,
    checkpoint: Option<Checkpoint>,
}

impl ResultsDb {
    /// Creates a database using the default job count and seed.
    pub fn new() -> Self {
        ResultsDb {
            cache: BTreeMap::new(),
            profiles: BTreeMap::new(),
            n_jobs: JOBS_PER_RUN,
            seed: DEFAULT_SEED,
            verbose: false,
            checkpoint: None,
        }
    }

    /// Creates a database with a custom job count (for fast smoke tests).
    pub fn with_jobs(n_jobs: usize, seed: u64) -> Self {
        ResultsDb { n_jobs, seed, ..ResultsDb::new() }
    }

    /// Prints one progress line per executed (non-cached) run.
    pub fn verbose(mut self) -> Self {
        self.verbose = true;
        self
    }

    /// Attaches a crash-safe checkpoint: cells a previous run recorded
    /// there are preloaded into the cache (reports round-trip bit-exactly,
    /// so warmed figures stay byte-identical), and every cell finished
    /// from now on is persisted as soon as it lands. Keys that are not a
    /// fault-free [`Scenario`] are ignored — they belong to other binaries
    /// sharing the format (the fault sweep's cells carry `:fI`).
    pub fn with_checkpoints(mut self, ck: Checkpoint) -> Self {
        for (key, (report, profile)) in ck.cells() {
            if let Some(scenario) = key.parse::<Scenario>().ok().filter(|s| s.fault_milli == 0) {
                if let Some(profile) = profile {
                    self.profiles.insert(scenario.clone(), *profile);
                }
                self.cache.insert(scenario, report.clone());
            }
        }
        self.checkpoint = Some(ck);
        self
    }

    /// The attached checkpoint, if any.
    pub fn checkpoint(&self) -> Option<&Checkpoint> {
        self.checkpoint.as_ref()
    }

    /// Persists one finished cell to the checkpoint file, if one is
    /// attached. Write failures are reported but never fail the sweep:
    /// checkpointing is an accelerator for `--resume`, not a correctness
    /// dependency.
    fn persist(
        checkpoint: &mut Option<Checkpoint>,
        scenario: &Scenario,
        report: &SimReport,
        profile: CellProfile,
    ) {
        if let Some(ck) = checkpoint.as_mut() {
            if let Err(e) = ck.record(&scenario.to_string(), (report.clone(), Some(profile))) {
                eprintln!("warning: checkpoint write failed: {e}");
            }
        }
    }

    /// The [`Scenario`] this database associates with a cell.
    pub fn scenario(&self, scheduler: &str, bench: Benchmark, rate: ArrivalRate) -> Scenario {
        Scenario::new(scheduler, bench, rate, self.n_jobs, self.seed)
    }

    /// Runs every not-yet-cached cell of the `schedulers` × `benches` ×
    /// `rates` grid on `jobs` worker threads and caches the reports.
    ///
    /// Deterministic: cached results are bit-identical for any `jobs` (each
    /// cell's seed comes from [`Scenario::cell_seed`], not the worker that
    /// ran it).
    ///
    /// # Errors
    ///
    /// Returns the first cell failure (unknown scheduler, invalid jobs)
    /// after all good cells have been cached.
    pub fn warm(
        &mut self,
        schedulers: &[&str],
        benches: &[Benchmark],
        rates: &[ArrivalRate],
        jobs: usize,
    ) -> Result<(), BenchError> {
        let mut missing: Vec<Scenario> = Vec::new();
        for s in schedulers {
            for &b in benches {
                for &r in rates {
                    let scenario = self.scenario(s, b, r);
                    if !self.cache.contains_key(&scenario) {
                        missing.push(scenario);
                    }
                }
            }
        }
        if missing.is_empty() {
            return Ok(());
        }
        let verbose = self.verbose;
        let opts = SweepOptions::new(jobs);
        let total = missing.len();
        let mut done = 0;
        // Drive par_map_with directly (rather than run_sweep) so the
        // completion callback sees each report and can checkpoint it the
        // moment it lands — a kill -9 one cell before the end loses one
        // cell, not the sweep.
        let checkpoint = &mut self.checkpoint;
        let profiles = &mut self.profiles;
        let results = sweep::par_map_with(
            &missing,
            jobs,
            |s| sweep::run_cell_profiled(s, &opts),
            |i, (r, attempts): &(Result<SimReport, BenchError>, u32), cell_wall| {
                done += 1;
                if let Ok(report) = r {
                    let profile = CellProfile { wall: cell_wall, retries: attempts - 1 };
                    profiles.insert(missing[i].clone(), profile);
                    Self::persist(checkpoint, &missing[i], report, profile);
                }
                if verbose {
                    eprintln!(
                        "[sweep {:>3}/{}] {:<28} {} ({:.1?})",
                        done,
                        total,
                        missing[i].to_string(),
                        if r.is_ok() { "ok" } else { "FAILED" },
                        cell_wall
                    );
                }
            },
        );
        let mut first_err = None;
        for (scenario, (result, _)) in missing.into_iter().zip(results) {
            match result {
                Ok(report) => {
                    self.cache.insert(scenario, report);
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Returns (running inline if necessary) the report for a cell.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError`] if the cell cannot run (unknown scheduler
    /// name, invalid generated jobs).
    pub fn get(&mut self, scheduler: &str, bench: Benchmark, rate: ArrivalRate) -> Result<&SimReport, BenchError> {
        let key = self.scenario(scheduler, bench, rate);
        if !self.cache.contains_key(&key) {
            let t0 = std::time::Instant::now();
            let report = sweep::run_cell(&key, &sweep::RunOptions::default())?;
            let profile = CellProfile { wall: t0.elapsed(), retries: 0 };
            self.profiles.insert(key.clone(), profile);
            Self::persist(&mut self.checkpoint, &key, &report, profile);
            if self.verbose {
                eprintln!(
                    "[run] {:<9} {:<7} {:<6} met {:>3}/{} ({:.1?})",
                    scheduler,
                    bench.name(),
                    rate.name(),
                    report.deadlines_met(),
                    self.n_jobs,
                    t0.elapsed()
                );
            }
            self.cache.insert(key.clone(), report);
        }
        Ok(&self.cache[&key])
    }

    /// Deadline-met count for a cell.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError`] if the cell cannot run.
    pub fn met(&mut self, scheduler: &str, bench: Benchmark, rate: ArrivalRate) -> Result<usize, BenchError> {
        Ok(self.get(scheduler, bench, rate)?.deadlines_met())
    }

    /// Ratio of deadline-met counts versus a baseline scheduler, clamped so
    /// a zero-over-zero cell reads as 1.0 and x-over-zero as x (matching
    /// how normalized bar charts handle empty baselines).
    ///
    /// # Errors
    ///
    /// Returns [`BenchError`] if either cell cannot run.
    pub fn met_ratio(
        &mut self,
        scheduler: &str,
        baseline: &str,
        bench: Benchmark,
        rate: ArrivalRate,
    ) -> Result<f64, BenchError> {
        let a = self.met(scheduler, bench, rate)? as f64;
        let b = self.met(baseline, bench, rate)? as f64;
        Ok(if b == 0.0 {
            if a == 0.0 {
                1.0
            } else {
                a
            }
        } else {
            a / b
        })
    }

    /// Number of jobs per run.
    pub fn n_jobs(&self) -> usize {
        self.n_jobs
    }

    /// Execution profiles of every cell this database ran (or restored from
    /// a checkpoint), keyed by scenario.
    pub fn profiles(&self) -> &BTreeMap<Scenario, CellProfile> {
        &self.profiles
    }

    /// The `n` slowest cells by wall-clock, slowest first.
    pub fn slowest_cells(&self, n: usize) -> Vec<(&Scenario, CellProfile)> {
        let mut cells: Vec<(&Scenario, CellProfile)> =
            self.profiles.iter().map(|(s, p)| (s, *p)).collect();
        cells.sort_by(|a, b| b.1.wall.cmp(&a.1.wall).then_with(|| a.0.cmp(b.0)));
        cells.truncate(n);
        cells
    }

    /// Renders the sweep profiling summary: totals plus a slowest-`n`-cells
    /// table (scenario, wall-clock, events simulated, events/sec, retries).
    /// `None` when no cells were executed by this process or restored with
    /// profiles.
    pub fn profile_summary(&self, n: usize) -> Option<String> {
        if self.profiles.is_empty() {
            return None;
        }
        let total_wall: std::time::Duration = self.profiles.values().map(|p| p.wall).sum();
        let total_events: u64 = self
            .profiles
            .keys()
            .filter_map(|s| self.cache.get(s))
            .map(|r| r.events)
            .sum();
        let total_retries: u32 = self.profiles.values().map(|p| p.retries).sum();
        let mut out = format!(
            "sweep profile: {} cell(s), {:.1?} total cell wall-clock, {} events simulated, {} retr{}\n\nslowest cells\n\n",
            self.profiles.len(),
            total_wall,
            total_events,
            total_retries,
            if total_retries == 1 { "y" } else { "ies" },
        );
        let mut t = Table::with_columns(&["scenario", "wall (s)", "events", "events/sec", "retries"]);
        for (scenario, profile) in self.slowest_cells(n) {
            let events = self.cache.get(scenario).map(|r| r.events);
            t.row(vec![
                scenario.to_string(),
                fmt_f(profile.wall.as_secs_f64(), 2),
                events.map_or_else(|| "-".to_string(), |e| e.to_string()),
                events.map_or_else(
                    || "-".to_string(),
                    |e| {
                        let secs = profile.wall.as_secs_f64();
                        if secs == 0.0 { "-".to_string() } else { fmt_f(e as f64 / secs, 0) }
                    },
                ),
                profile.retries.to_string(),
            ]);
        }
        out.push_str(&t.render());
        Some(out)
    }

    /// Renders the per-cell throughput profile as a JSON document:
    /// one record per profiled cell (scenario, events simulated, wall-clock
    /// nanoseconds, events/sec), the geometric mean of the per-cell
    /// events/sec rates, and a `trajectory` array — one summary point per
    /// regeneration, so the perf history across PRs is machine-readable.
    /// Pass the previous document as `existing` to carry its trajectory
    /// forward (a pre-trajectory document contributes one point derived
    /// from its cells); the current run's point is appended. Cells are
    /// emitted in scenario order, so the document is deterministic for a
    /// given run. `None` when no cells were executed by this process or
    /// restored with profiles.
    pub fn throughput_json(&self, existing: Option<&str>) -> Option<String> {
        if self.profiles.is_empty() {
            return None;
        }
        let mut out = String::from("{\n  \"cells\": [\n");
        let mut rates = Vec::with_capacity(self.profiles.len());
        let mut total_wall_ns: u128 = 0;
        let mut slowest_wall_ns: u128 = 0;
        for (i, (scenario, profile)) in self.profiles.iter().enumerate() {
            let events = self.cache.get(scenario).map_or(0, |r| r.events);
            let secs = profile.wall.as_secs_f64();
            let rate = if secs > 0.0 { events as f64 / secs } else { 0.0 };
            if rate > 0.0 {
                rates.push(rate);
            }
            total_wall_ns += profile.wall.as_nanos();
            slowest_wall_ns = slowest_wall_ns.max(profile.wall.as_nanos());
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("    {\"scenario\": \"");
            sim_core::json::escape_into(&mut out, &scenario.to_string());
            out.push_str(&format!(
                "\", \"events\": {events}, \"wall_ns\": {}, \"events_per_sec\": {rate:.3}}}",
                profile.wall.as_nanos()
            ));
        }
        let geomean = sim_core::stats::geomean(&rates);
        let mut trajectory = prior_trajectory(existing);
        trajectory.push(trajectory_point(
            self.profiles.len(),
            total_wall_ns as f64 / 1e9,
            slowest_wall_ns as f64 / 1e9,
            geomean,
        ));
        out.push_str(&format!(
            "\n  ],\n  \"geomean_events_per_sec\": {geomean:.3},\n  \"trajectory\": [\n"
        ));
        for (i, point) in trajectory.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("    ");
            out.push_str(point);
        }
        out.push_str("\n  ]\n}\n");
        debug_assert!(sim_core::json::validate(&out).is_ok());
        Some(out)
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// `true` when nothing has been run yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

/// One rendered trajectory point.
fn trajectory_point(cells: usize, total_s: f64, slowest_s: f64, geomean: f64) -> String {
    format!(
        "{{\"cells\": {cells}, \"total_cell_wall_s\": {total_s:.2}, \
         \"slowest_cell_s\": {slowest_s:.2}, \"geomean_events_per_sec\": {geomean:.3}}}"
    )
}

/// Extracts (and re-renders) the trajectory of a previous
/// `BENCH_throughput.json` document. A parseable document without a
/// `trajectory` key contributes one point summarized from its cells, so
/// histories start from the profile committed before trajectories existed.
/// Unparseable or absent input yields an empty history.
fn prior_trajectory(existing: Option<&str>) -> Vec<String> {
    let Some(Ok(doc)) = existing.map(sim_core::json::parse) else {
        return Vec::new();
    };
    if let Some(points) = doc.get("trajectory").and_then(|t| t.as_array()) {
        return points
            .iter()
            .map(|p| {
                let num = |key: &str| p.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0);
                trajectory_point(
                    num("cells") as usize,
                    num("total_cell_wall_s"),
                    num("slowest_cell_s"),
                    num("geomean_events_per_sec"),
                )
            })
            .collect();
    }
    let Some(cells) = doc.get("cells").and_then(|c| c.as_array()) else {
        return Vec::new();
    };
    let mut total_ns = 0.0f64;
    let mut slowest_ns = 0.0f64;
    for cell in cells {
        let wall = cell.get("wall_ns").and_then(|v| v.as_f64()).unwrap_or(0.0);
        total_ns += wall;
        slowest_ns = slowest_ns.max(wall);
    }
    let geomean =
        doc.get("geomean_events_per_sec").and_then(|v| v.as_f64()).unwrap_or(0.0);
    vec![trajectory_point(cells.len(), total_ns / 1e9, slowest_ns / 1e9, geomean)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_cell_produces_resolved_jobs() {
        let s = Scenario::new("RR", Benchmark::Ipv6, ArrivalRate::Low, 8, 1);
        let r = sweep::run_cell(&s, &sweep::RunOptions::default()).unwrap();
        assert_eq!(r.records.len(), 8);
        assert_eq!(r.completed() + r.rejected(), 8);
    }

    #[test]
    fn db_caches_runs() {
        let mut db = ResultsDb::with_jobs(4, 1);
        let a = db.met("RR", Benchmark::Stem, ArrivalRate::Low).unwrap();
        let b = db.met("RR", Benchmark::Stem, ArrivalRate::Low).unwrap();
        assert_eq!(a, b);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn ratio_handles_zero_baseline() {
        let mut db = ResultsDb::with_jobs(2, 1);
        // Against itself the ratio is exactly 1 (or 1-by-convention).
        let r = db.met_ratio("RR", "RR", Benchmark::Ipv6, ArrivalRate::Low).unwrap();
        assert_eq!(r, 1.0);
    }

    #[test]
    fn unknown_scheduler_surfaces_as_typed_error() {
        let mut db = ResultsDb::with_jobs(2, 1);
        let err = db.met("NOPE", Benchmark::Ipv6, ArrivalRate::Low).unwrap_err();
        assert!(matches!(err, BenchError::UnknownScheduler(_)), "{err}");
    }

    #[test]
    fn warm_matches_inline_get_bit_for_bit() {
        let mut warmed = ResultsDb::with_jobs(4, 2);
        warmed
            .warm(&["RR", "EDF"], &[Benchmark::Ipv6], &[ArrivalRate::Low, ArrivalRate::High], 4)
            .unwrap();
        assert_eq!(warmed.len(), 4);
        let mut inline = ResultsDb::with_jobs(4, 2);
        for sched in ["RR", "EDF"] {
            for rate in [ArrivalRate::Low, ArrivalRate::High] {
                let a = warmed.get(sched, Benchmark::Ipv6, rate).unwrap().clone();
                let b = inline.get(sched, Benchmark::Ipv6, rate).unwrap().clone();
                assert_eq!(a, b, "{sched}/{rate}");
            }
        }
    }

    #[test]
    fn checkpointed_cells_resume_bit_identically() {
        let path = std::env::temp_dir().join(format!("lax-db-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut first = ResultsDb::with_jobs(4, 2).with_checkpoints(Checkpoint::open(&path));
        first
            .warm(&["RR", "EDF"], &[Benchmark::Ipv6], &[ArrivalRate::Low], 2)
            .unwrap();
        assert_eq!(first.checkpoint().unwrap().len(), 2, "every warmed cell persisted");

        // A new db over the same file starts fully warm — the resume path —
        // and serves reports bit-identical to a from-scratch run.
        let mut resumed = ResultsDb::with_jobs(4, 2).with_checkpoints(Checkpoint::open(&path));
        assert_eq!(resumed.len(), 2, "cells preloaded from the checkpoint");
        let mut fresh = ResultsDb::with_jobs(4, 2);
        for sched in ["RR", "EDF"] {
            let a = resumed.get(sched, Benchmark::Ipv6, ArrivalRate::Low).unwrap().clone();
            let b = fresh.get(sched, Benchmark::Ipv6, ArrivalRate::Low).unwrap().clone();
            assert_eq!(a, b, "{sched}: resumed report must be bit-identical");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn throughput_json_is_valid_and_covers_every_profiled_cell() {
        let mut db = ResultsDb::with_jobs(4, 2);
        assert!(db.throughput_json(None).is_none(), "no profiles yet");
        db.warm(&["RR", "EDF"], &[Benchmark::Ipv6], &[ArrivalRate::Low], 2).unwrap();
        let json = db.throughput_json(None).expect("profiles recorded by warm");
        sim_core::json::validate(&json).expect("emitted document must parse");
        assert_eq!(json.matches("\"scenario\"").count(), db.profiles().len());
        assert!(json.contains("\"geomean_events_per_sec\""));
        assert!(json.contains("\"wall_ns\""));
        assert!(json.contains("\"trajectory\""));
        assert_eq!(json.matches("\"total_cell_wall_s\"").count(), 1, "fresh history: one point");
        // Regenerating against the previous document appends a point and
        // keeps the old one.
        let again = db.throughput_json(Some(&json)).unwrap();
        sim_core::json::validate(&again).expect("appended document must parse");
        assert_eq!(again.matches("\"total_cell_wall_s\"").count(), 2);
        // A pre-trajectory document contributes one derived baseline point.
        let legacy = r#"{"cells": [{"scenario": "A", "events": 10, "wall_ns": 2000000000, "events_per_sec": 5.0}], "geomean_events_per_sec": 5.0}"#;
        let migrated = db.throughput_json(Some(legacy)).unwrap();
        assert_eq!(migrated.matches("\"total_cell_wall_s\"").count(), 2);
        assert!(migrated.contains("\"total_cell_wall_s\": 2.00"), "baseline derived from cells");
    }

    #[test]
    fn foreign_checkpoint_keys_are_ignored_on_resume() {
        let path = std::env::temp_dir().join(format!("lax-db-foreign-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut ck = Checkpoint::open(&path);
        let report = sweep::run_cell(
            &Scenario::new("RR", Benchmark::Ipv6, ArrivalRate::Low, 2, 1),
            &sweep::RunOptions::default(),
        )
        .unwrap();
        // A fault-sweep key, and one in the fault sweep's older `:f0` form.
        ck.record("RR:IPV6:low:j2:s1:f0.5", (report.clone(), None)).unwrap();
        ck.record("RR:IPV6:low:j2:s1:f0", (report, None)).unwrap();
        let db = ResultsDb::with_jobs(2, 1).with_checkpoints(Checkpoint::open(&path));
        assert!(db.is_empty(), "suffixed keys belong to other binaries");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn warm_profiles_every_cell_and_profiles_survive_resume() {
        let path = std::env::temp_dir().join(format!("lax-db-prof-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut db = ResultsDb::with_jobs(4, 2).with_checkpoints(Checkpoint::open(&path));
        db.warm(&["RR", "EDF"], &[Benchmark::Ipv6], &[ArrivalRate::Low], 2).unwrap();
        assert_eq!(db.profiles().len(), 2, "every warmed cell gets a profile");
        for (s, p) in db.profiles() {
            assert_eq!(p.retries, 0, "{s}: clean cells take one attempt");
            let r = &db.cache[s];
            assert!(r.events > 0, "{s}: report carries the event count");
        }
        let summary = db.profile_summary(10).unwrap();
        assert!(summary.contains("slowest cells"), "{summary}");
        assert!(summary.contains("RR:IPV6:low:j4:s2"), "{summary}");

        let resumed = ResultsDb::with_jobs(4, 2).with_checkpoints(Checkpoint::open(&path));
        assert_eq!(resumed.profiles(), db.profiles(), "profiles restore from the checkpoint");
        assert_eq!(resumed.slowest_cells(1).len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn warm_reports_bad_cell_but_caches_good_ones() {
        let mut db = ResultsDb::with_jobs(2, 1);
        let err = db
            .warm(&["RR", "NOPE"], &[Benchmark::Ipv6], &[ArrivalRate::Low], 2)
            .unwrap_err();
        assert!(matches!(err, BenchError::UnknownScheduler(_)));
        assert_eq!(db.len(), 1, "the RR cell still landed in cache");
    }
}
