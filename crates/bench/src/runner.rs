//! Experiment execution and caching: a thin memoizing layer over the
//! parallel [`sweep`](crate::sweep) engine, so every figure computed in one
//! process reuses the same runs.

use std::collections::BTreeMap;

use gpu_sim::prelude::*;
use workloads::spec::{ArrivalRate, Benchmark};

use crate::checkpoint::Checkpoint;
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
        for (key, report) in ck.cells() {
            if let Some(scenario) = key.parse::<Scenario>().ok().filter(|s| s.fault_milli == 0) {
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
    fn persist(checkpoint: &mut Option<Checkpoint>, scenario: &Scenario, report: &SimReport) {
        if let Some(ck) = checkpoint.as_mut() {
            if let Err(e) = ck.record(&scenario.to_string(), report.clone()) {
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
        let results = sweep::par_map_with(
            &missing,
            jobs,
            |s| sweep::run_cell_opts(s, &opts),
            |i, r: &Result<SimReport, BenchError>| {
                done += 1;
                if let Ok(report) = r {
                    Self::persist(checkpoint, &missing[i], report);
                }
                if verbose {
                    eprintln!(
                        "[sweep {:>3}/{}] {:<28} {}",
                        done,
                        total,
                        missing[i].to_string(),
                        if r.is_ok() { "ok" } else { "FAILED" },
                    );
                }
            },
        );
        let mut first_err = None;
        for (scenario, result) in missing.into_iter().zip(results) {
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
            let report = sweep::run_cell(&key, &sweep::RunOptions::default())?;
            Self::persist(&mut self.checkpoint, &key, &report);
            if self.verbose {
                eprintln!(
                    "[run] {:<9} {:<7} {:<6} met {:>3}/{}",
                    scheduler,
                    bench.name(),
                    rate.name(),
                    report.deadlines_met(),
                    self.n_jobs,
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

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// `true` when nothing has been run yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
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
        ck.record("RR:IPV6:low:j2:s1:f0.5", report.clone()).unwrap();
        ck.record("RR:IPV6:low:j2:s1:f0", report).unwrap();
        let db = ResultsDb::with_jobs(2, 1).with_checkpoints(Checkpoint::open(&path));
        assert!(db.is_empty(), "suffixed keys belong to other binaries");
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
