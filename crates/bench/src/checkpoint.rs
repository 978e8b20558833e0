//! Crash-safe incremental checkpointing of finished cells.
//!
//! Every resumable binary (`all`, `faults`, `dag`, `cluster`, `chaos`)
//! records each finished cell to a checkpoint file as it lands; an
//! interrupted run restarted with `--resume` reloads the file and re-runs
//! only the missing cells. One keyed [`Store`] does this for every binary,
//! generic over a per-record [`Codec`] that owns only the body format:
//! [`SweepCodec`] stores a [`SimReport`] ([`Checkpoint`]), and
//! [`FleetCodec`] stores a [`ClusterReport`]
//! ([`FleetCheckpoint`]). Three properties make the store safe to lean on:
//!
//! * **Exact round-trip.** Resumed runs must stay byte-identical to
//!   uninterrupted ones, so every `f64` is stored as the hex of its IEEE
//!   bits ([`f64::to_bits`]), never through decimal formatting, which
//!   rounds. `restores_reports_bit_exactly` locks this in.
//! * **Crash atomicity.** Each update rewrites the whole file to a
//!   sibling `.tmp`, syncs it to disk and `rename`s it into place, so a
//!   `SIGKILL` or power loss at any instant leaves either the previous
//!   complete snapshot or the new one, never a torn file. (Snapshots are
//!   small, so rewrite-per-cell is cheap.)
//! * **Per-block tolerance.** Cells are `cell KEY` … `end` blocks. A file
//!   with an unknown header reads as empty; a block that fails to parse is
//!   dropped and the good blocks are kept. No input panics: the worst case
//!   is re-running work.
//!
//! Cells are keyed by strings (a cell's string form, e.g.
//! `LAX:IPV6:high:j128:s42:f0.5` for a faulted cell) rather than parsed
//! structs, so one sweep format serves `all`, `faults` and `dag`. A fleet
//! key follows the cell with each non-default run knob
//! (`LL:HYBRID:high:d4:j2000:s7:f1 --retry-budget 0`), so a grid resumed
//! under other knobs re-runs its cells instead of restoring another run's.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gpu_sim::prelude::*;
use sim_core::stats::StreamingQuantiles;

use crate::cluster::{ClusterReport, ClusterScenario};
use crate::sweep::BenchError;

/// The body format of one record kind. The [`Store`] owns the header line,
/// the `cell KEY` … `end` framing and the atomic flush; a codec only turns
/// a record into body lines and back.
pub trait Codec {
    /// What one cell stores.
    type Record;
    /// First line of every file of this kind. A file starting with
    /// anything else reads as empty, which is how format bumps restart.
    const HEADER: &'static str;
    /// Appends the record's body lines (each ending in `\n`). No line may
    /// start with `cell ` or be exactly `end`.
    fn render(out: &mut String, record: &Self::Record);
    /// Parses a body back, given the cell's key; `None` marks the block
    /// malformed, and the store drops it.
    fn parse(key: &str, body: &[&str]) -> Option<Self::Record>;
}

/// A checkpoint file plus its in-memory view: a map from cell key to the
/// finished record.
#[derive(Debug)]
pub struct Store<C: Codec> {
    path: PathBuf,
    cells: BTreeMap<String, C::Record>,
}

/// The sweep store of `all`, `faults` and `dag`.
pub type Checkpoint = Store<SweepCodec>;

/// The fleet store of `cluster` and `chaos`.
pub type FleetCheckpoint = Store<FleetCodec>;

impl<C: Codec> Store<C> {
    /// Opens (or prepares to create) the checkpoint at `path`, loading any
    /// cells a previous run left behind. A missing, unreadable or
    /// unrecognized file simply yields an empty checkpoint.
    pub fn open(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let cells =
            fs::read_to_string(&path).map(|text| parse_file::<C>(&text)).unwrap_or_default();
        Store { path, cells }
    }

    /// Opens the checkpoint a resumable binary streams into. Unless
    /// `resume` is set, a stale file from an earlier run is deleted first,
    /// so a fresh run never adopts its cells. Discards and restored cell
    /// counts are logged to stderr under `[tag]`.
    pub fn for_run(path: impl Into<PathBuf>, resume: bool, tag: &str) -> Self {
        let path = path.into();
        if !resume && fs::remove_file(&path).is_ok() {
            eprintln!(
                "[{tag}] discarded stale checkpoint {} (run with --resume to keep it)",
                path.display()
            );
        }
        let store = Self::open(path);
        if !store.is_empty() {
            eprintln!(
                "[{tag}] resuming: {} cell(s) restored from {}",
                store.len(),
                store.path.display()
            );
        }
        store
    }

    /// The record stored for `key`, if any.
    pub fn get(&self, key: &str) -> Option<&C::Record> {
        self.cells.get(key)
    }

    /// `true` if `key` has a stored record.
    pub fn contains(&self, key: &str) -> bool {
        self.cells.contains_key(key)
    }

    /// Iterates over all stored `(key, record)` cells in key order.
    pub fn cells(&self) -> impl Iterator<Item = (&str, &C::Record)> {
        self.cells.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of stored cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when no cells are stored.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Stores one finished cell (replacing any earlier record under `key`)
    /// and atomically persists the snapshot.
    ///
    /// # Errors
    ///
    /// [`BenchError::Io`] if the snapshot cannot be written; the in-memory
    /// view still holds the cell, so the sweep can finish regardless.
    pub fn record(&mut self, key: &str, record: C::Record) -> Result<(), BenchError> {
        self.cells.insert(key.to_string(), record);
        self.flush()
    }

    /// Deletes the checkpoint file (kept cells stay in memory). Used once
    /// a run completes so a later fresh run does not resume by accident.
    ///
    /// # Errors
    ///
    /// [`BenchError::Io`] on filesystem failure (a missing file is fine).
    pub fn discard_file(&self) -> Result<(), BenchError> {
        match fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(&self.path, &e)),
        }
    }

    /// Rewrites the snapshot: serialize everything to `<path>.tmp`, sync
    /// it, then rename over the real file so readers (and crashes) only
    /// ever see a complete snapshot.
    fn flush(&self) -> Result<(), BenchError> {
        let text = self.render();
        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
        }
        let tmp = self.path.with_extension("tmp");
        let write = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()
        };
        write().map_err(|e| io_err(&tmp, &e))?;
        fs::rename(&tmp, &self.path).map_err(|e| io_err(&self.path, &e))
    }

    /// The whole file: the header, then one `cell KEY` … `end` block per
    /// cell in key order.
    fn render(&self) -> String {
        let mut text = format!("{}\n", C::HEADER);
        for (key, record) in &self.cells {
            let _ = writeln!(text, "cell {key}");
            C::render(&mut text, record);
            text.push_str("end\n");
        }
        text
    }
}

fn io_err(path: &Path, e: &std::io::Error) -> BenchError {
    BenchError::Io(format!("{}: {e}", path.display()))
}

/// Parses a whole file; malformed cell blocks are dropped, everything else
/// is kept. Returns empty on a bad header.
fn parse_file<C: Codec>(text: &str) -> BTreeMap<String, C::Record> {
    let mut cells = BTreeMap::new();
    let mut lines = text.lines();
    if lines.next() != Some(C::HEADER) {
        return cells;
    }
    let mut block: Option<(&str, Vec<&str>)> = None;
    for line in lines {
        if let Some(key) = line.strip_prefix("cell ") {
            // A `cell` line inside an unterminated block abandons it.
            block = Some((key, Vec::new()));
        } else if line == "end" {
            if let Some((key, body)) = block.take() {
                if let Some(record) = C::parse(key, &body) {
                    cells.insert(key.to_string(), record);
                }
            }
        } else if let Some((_, body)) = block.as_mut() {
            body.push(line);
        }
    }
    cells
}

/// An `f64` rendered as the 16 hex digits of its IEEE bits.
struct HexF64(f64);

impl fmt::Display for HexF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0.to_bits())
    }
}

fn f64_from_hex(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// The sweep record: a [`SimReport`]. Free-text fields (the scheduler name,
/// each job's benchmark label) end their lines so embedded spaces survive.
#[derive(Debug)]
pub struct SweepCodec;

impl Codec for SweepCodec {
    type Record = SimReport;

    /// v2 added the `events` summary field and an optional `profile` line
    /// (one timed run per cell), which is no longer written and is skipped
    /// on read, so files that carry it still resume; v1 files read as
    /// empty (their cells simply re-run).
    const HEADER: &'static str = "lax-bench-checkpoint v2";

    fn render(out: &mut String, r: &Self::Record) {
        let _ = writeln!(out, "scheduler {}", r.scheduler);
        let _ = writeln!(
            out,
            "summary {} {} {} {} {} {} {}",
            r.makespan.as_cycles(),
            HexF64(r.energy_mj),
            r.total_wgs,
            HexF64(r.l1_hit_rate),
            HexF64(r.l2_hit_rate),
            r.events,
            r.records.len()
        );
        for rec in &r.records {
            let _ = write!(
                out,
                "job {} {} {} ",
                rec.id.0,
                rec.arrival.as_cycles(),
                rec.deadline_abs.as_cycles()
            );
            let _ = match rec.fate {
                JobFate::Completed(t) => write!(out, "C{}", t.as_cycles()),
                JobFate::Rejected(t) => write!(out, "R{}", t.as_cycles()),
                JobFate::Aborted(t) => write!(out, "A{}", t.as_cycles()),
                JobFate::Unfinished => write!(out, "U"),
            };
            let _ = writeln!(out, " {} {}", HexF64(rec.wgs_executed), rec.bench);
        }
    }

    fn parse(_key: &str, body: &[&str]) -> Option<Self::Record> {
        let [scheduler, summary, rest @ ..] = body else {
            return None;
        };
        let scheduler = scheduler.strip_prefix("scheduler ")?.to_string();
        let mut s = summary.strip_prefix("summary ")?.split(' ');
        let makespan = Duration::from_cycles(s.next()?.parse().ok()?);
        let energy_mj = f64_from_hex(s.next()?)?;
        let total_wgs = s.next()?.parse().ok()?;
        let l1_hit_rate = f64_from_hex(s.next()?)?;
        let l2_hit_rate = f64_from_hex(s.next()?)?;
        let events = s.next()?.parse().ok()?;
        let n_records: usize = s.next()?.parse().ok()?;
        if s.next().is_some() {
            return None;
        }
        let jobs = match rest.split_first() {
            Some((line, jobs)) if line.starts_with("profile ") => jobs,
            _ => rest,
        };
        if jobs.len() != n_records {
            return None;
        }
        let records = jobs.iter().map(|line| parse_job(line)).collect::<Option<Vec<_>>>()?;
        Some(SimReport {
            scheduler,
            records,
            makespan,
            energy_mj,
            total_wgs,
            l1_hit_rate,
            l2_hit_rate,
            events,
        })
    }
}

fn parse_job(line: &str) -> Option<JobRecord> {
    // The benchmark label is free text: split off the 5 fixed fields, keep
    // the rest of the line verbatim.
    let mut f = line.strip_prefix("job ")?.splitn(6, ' ');
    let id = JobId(f.next()?.parse().ok()?);
    let arrival = Cycle::from_cycles(f.next()?.parse().ok()?);
    let deadline_abs = Cycle::from_cycles(f.next()?.parse().ok()?);
    let fate = parse_fate(f.next()?)?;
    let wgs_executed = f64_from_hex(f.next()?)?;
    let bench: Arc<str> = Arc::from(f.next()?);
    Some(JobRecord { id, bench, arrival, deadline_abs, fate, wgs_executed })
}

fn parse_fate(s: &str) -> Option<JobFate> {
    if s == "U" {
        return Some(JobFate::Unfinished);
    }
    // Split on the first *character*: an empty field or a multi-byte tag
    // is a malformed block, not a panic.
    let mut chars = s.chars();
    let tag = chars.next()?;
    let t = Cycle::from_cycles(chars.as_str().parse().ok()?);
    match tag {
        'C' => Some(JobFate::Completed(t)),
        'R' => Some(JobFate::Rejected(t)),
        'A' => Some(JobFate::Aborted(t)),
        _ => None,
    }
}

/// The fleet record: a [`ClusterReport`] as its summary scalars plus the
/// latency sketch's raw buckets, so a resumed grid reproduces its output
/// byte-identically without storing a million per-job records. The key is
/// the run's [`ClusterBuilder`](crate::cluster::ClusterBuilder) string: the
/// scenario's string form, which parses back into
/// [`ClusterReport::scenario`], then any non-default knob flags.
#[derive(Debug)]
pub struct FleetCodec;

impl Codec for FleetCodec {
    type Record = ClusterReport;

    /// v2 added `lost retried shed` to the summary line; v3 added the
    /// `misses` line. Older files read as empty.
    const HEADER: &'static str = "lax-bench-cluster-checkpoint v3";

    fn render(out: &mut String, r: &ClusterReport) {
        let (counts, zeros, sum, min, max) = r.latency_us.raw_parts();
        let _ = writeln!(out, "fidelity {}", r.fidelity);
        let _ = writeln!(
            out,
            "summary {} {} {} {} {} {} {} {} {} {}",
            r.total,
            r.rejected,
            r.device_rejected,
            r.completed,
            r.met,
            r.lost,
            r.retried,
            r.shed,
            r.makespan.as_cycles(),
            r.events
        );
        out.push_str("misses");
        for cause in MissCause::ALL {
            let _ = write!(out, " {}", r.misses.count(cause));
        }
        out.push_str("\ndevices");
        for c in &r.per_device_jobs {
            let _ = write!(out, " {c}");
        }
        let _ = writeln!(out, "\nsketch {zeros} {} {} {}", HexF64(sum), HexF64(min), HexF64(max));
        out.push_str("buckets");
        for (i, &c) in counts.iter().enumerate().filter(|(_, &c)| c > 0) {
            let _ = write!(out, " {i}:{c}");
        }
        out.push('\n');
    }

    fn parse(key: &str, body: &[&str]) -> Option<ClusterReport> {
        let [fidelity, summary, misses, devices, sketch, buckets] = body else {
            return None;
        };
        let scenario: ClusterScenario = key.split(' ').next()?.parse().ok()?;
        let fidelity = fidelity.strip_prefix("fidelity ")?.parse().ok()?;
        let mut s = summary.strip_prefix("summary ")?.split(' ');
        let mut next = || s.next()?.parse::<u64>().ok();
        let (total, rejected, device_rejected) = (next()?, next()?, next()?);
        let (completed, met, lost, retried, shed) = (next()?, next()?, next()?, next()?, next()?);
        let (makespan, events) = (Duration::from_cycles(next()?), next()?);
        let mut m = misses.strip_prefix("misses ")?.split(' ');
        let mut breakdown = MissBreakdown::default();
        for cause in MissCause::ALL {
            breakdown.add_n(cause, m.next()?.parse().ok()?);
        }
        let per_device_jobs = devices
            .strip_prefix("devices")?
            .split_whitespace()
            .map(|c| c.parse().ok())
            .collect::<Option<Vec<u64>>>()?;
        let mut sk = sketch.strip_prefix("sketch ")?.split(' ');
        let zeros: u64 = sk.next()?.parse().ok()?;
        let sum = f64_from_hex(sk.next()?)?;
        let min = f64_from_hex(sk.next()?)?;
        let max = f64_from_hex(sk.next()?)?;
        let mut counts: Vec<u64> = Vec::new();
        for pair in buckets.strip_prefix("buckets")?.split_whitespace() {
            let (i, c) = pair.split_once(':')?;
            // No finite sample lands above the top bucket, so a larger
            // index is corrupt; bounding it also bounds the allocation.
            let i: usize = i.parse().ok().filter(|&i| i <= StreamingQuantiles::max_bucket())?;
            if i >= counts.len() {
                counts.resize(i + 1, 0);
            }
            counts[i] = c.parse().ok()?;
        }
        // The sketch recomputes its sample count; it must not overflow.
        counts.iter().try_fold(zeros, |n, &c| n.checked_add(c))?;
        Some(ClusterReport {
            scenario,
            fidelity,
            total,
            rejected,
            device_rejected,
            completed,
            met,
            lost,
            retried,
            shed,
            misses: breakdown,
            latency_us: StreamingQuantiles::from_raw_parts(counts, zeros, sum, min, max),
            per_device_jobs,
            makespan,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use sim_core::rng::SimRng;
    use workloads::spec::{ArrivalRate, Benchmark};

    use super::*;
    use crate::cluster::ClusterBuilder;

    fn report(scheduler: &str, jobs: usize) -> SimReport {
        let records = (0..jobs)
            .map(|i| JobRecord {
                id: JobId(i as u32),
                bench: Arc::from("IPV6 mixed"),
                arrival: Cycle::from_cycles(i as u64 * 1000),
                deadline_abs: Cycle::from_cycles(i as u64 * 1000 + 777),
                fate: match i % 4 {
                    0 => JobFate::Completed(Cycle::from_cycles(i as u64 * 1000 + 500)),
                    1 => JobFate::Rejected(Cycle::from_cycles(i as u64 * 1000)),
                    2 => JobFate::Aborted(Cycle::from_cycles(i as u64 * 1000 + 900)),
                    _ => JobFate::Unfinished,
                },
                // Deliberately awkward floats: non-terminating binary
                // fractions and a subnormal — decimal formatting would
                // corrupt them, to_bits must not.
                wgs_executed: 0.1 + 0.2 + i as f64 * 1e-17,
            })
            .collect();
        SimReport {
            scheduler: scheduler.to_string(),
            records,
            makespan: Duration::from_cycles(123_456_789),
            energy_mj: std::f64::consts::PI * 1e3,
            total_wgs: 42,
            l1_hit_rate: 2.0 / 3.0,
            l2_hit_rate: f64::MIN_POSITIVE / 2.0,
            events: 1_234_567,
        }
    }

    /// The fleet cells the cluster tests use: a fault-free LL cell and a
    /// faulted RR cell with losses, retries and every miss counter.
    fn fleet_reports() -> Vec<ClusterReport> {
        [("LL", 0), ("RR", 1500)]
            .iter()
            .map(|&(policy, milli)| {
                let s =
                    ClusterScenario::new(policy, Benchmark::Hybrid, ArrivalRate::High, 4, 400, 7)
                        .with_fault_milli(milli);
                ClusterBuilder::new(s).run().unwrap()
            })
            .collect()
    }

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lax-ckpt-{name}-{}", std::process::id()))
    }

    #[test]
    fn restores_reports_bit_exactly() {
        let path = tmp_path("roundtrip");
        let mut ck = Checkpoint::open(&path);
        let a = report("LAX", 7);
        let b = report("RR with spaces", 3);
        ck.record("LAX:IPV6:high:j128:s42", a.clone()).unwrap();
        ck.record("RR:IPV6:high:j128:s42:f0.5", b.clone()).unwrap();
        let reloaded = Checkpoint::open(&path);
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.get("LAX:IPV6:high:j128:s42").cloned(), Some(a));
        assert_eq!(reloaded.get("RR:IPV6:high:j128:s42:f0.5").cloned(), Some(b));
        ck.discard_file().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn recording_twice_overwrites_in_place() {
        let path = tmp_path("overwrite");
        let mut ck = Checkpoint::open(&path);
        ck.record("k", report("A", 2)).unwrap();
        ck.record("k", report("B", 1)).unwrap();
        let reloaded = Checkpoint::open(&path);
        assert_eq!(reloaded.len(), 1);
        assert_eq!(reloaded.get("k").unwrap().scheduler, "B");
        ck.discard_file().unwrap();
    }

    #[test]
    fn missing_file_and_garbage_files_read_as_empty() {
        assert!(Checkpoint::open(tmp_path("nonexistent")).is_empty());
        let path = tmp_path("garbage");
        fs::write(&path, "this is not a checkpoint\ncell x\nend\n").unwrap();
        assert!(Checkpoint::open(&path).is_empty(), "bad header rejects the file");
        assert!(FleetCheckpoint::open(&path).is_empty(), "bad header rejects the file");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_or_corrupt_cells_are_dropped_without_losing_good_ones() {
        let path = tmp_path("torn");
        let mut ck = Checkpoint::open(&path);
        ck.record("good", report("LAX", 2)).unwrap();
        // Simulate a corrupted tail: a cell whose job count lies, then an
        // unterminated block (as if truncated mid-write).
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("cell bad\nscheduler X\nsummary 1 0 0 0 0 0 5\njob 0 0 0 U 0 b\nend\n");
        text.push_str("cell truncated\nscheduler Y\n");
        fs::write(&path, &text).unwrap();
        let reloaded = Checkpoint::open(&path);
        assert_eq!(reloaded.len(), 1, "only the intact cell survives");
        assert!(reloaded.contains("good"));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_corrupt_fleet_block_keeps_the_good_ones() {
        let path = tmp_path("fleet-torn");
        let reports = fleet_reports();
        let mut ck = FleetCheckpoint::open(&path);
        for r in &reports {
            ck.record(&r.scenario.to_string(), r.clone()).unwrap();
        }
        // Corrupt the first block only: the second must still restore.
        let text = fs::read_to_string(&path).unwrap().replacen("fidelity fast", "fidelity warp", 1);
        fs::write(&path, text).unwrap();
        let reloaded = FleetCheckpoint::open(&path);
        assert_eq!(reloaded.len(), 1);
        let survivor = reloaded.cells().next().unwrap().1;
        assert!(reports.contains(survivor));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fleet_reports_round_trip_bit_exactly() {
        let path = tmp_path("fleet-roundtrip");
        let _ = fs::remove_file(&path);
        let mut ck = FleetCheckpoint::open(&path);
        assert!(ck.is_empty());
        let reports = fleet_reports();
        for r in &reports {
            ck.record(&r.scenario.to_string(), r.clone()).unwrap();
        }
        let reopened = FleetCheckpoint::open(&path);
        assert_eq!(reopened.len(), 2);
        for r in &reports {
            let key = r.scenario.to_string();
            assert_eq!(reopened.get(&key), Some(r), "{key} must round-trip bit-exactly");
        }
        assert!(reports[1].lost > 0 && reports[1].retried > 0, "the faulted cell exercises losses");
        ck.discard_file().unwrap();
        assert!(FleetCheckpoint::open(&path).is_empty());
    }

    #[test]
    fn older_format_versions_are_rejected_wholesale() {
        let path = tmp_path("v1");
        fs::write(
            &path,
            "lax-bench-checkpoint v1\ncell k\nscheduler A\nsummary 1 0 0 0 0 0\nend\n",
        )
        .unwrap();
        assert!(Checkpoint::open(&path).is_empty(), "v1 header reads as absent");
        // Pre-miss-attribution fleet files (v2 header) are foreign too: the
        // parser must not guess at a missing `misses` line.
        fs::write(&path, "lax-bench-cluster-checkpoint v2\ncell LL:HYBRID:high:d4:j400:s7\n")
            .unwrap();
        assert!(FleetCheckpoint::open(&path).is_empty(), "v2 files must restart from scratch");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn no_tmp_file_left_behind() {
        let path = tmp_path("tmpclean");
        let mut ck = Checkpoint::open(&path);
        ck.record("k", report("A", 1)).unwrap();
        assert!(!path.with_extension("tmp").exists());
        ck.discard_file().unwrap();
    }

    #[test]
    fn a_fresh_run_discards_and_a_resumed_run_keeps() {
        let path = tmp_path("for-run");
        let mut ck = Checkpoint::open(&path);
        ck.record("k", report("A", 1)).unwrap();
        assert_eq!(Checkpoint::for_run(&path, true, "test").len(), 1, "--resume keeps cells");
        assert!(Checkpoint::for_run(&path, false, "test").is_empty(), "fresh runs start empty");
        assert!(!path.exists(), "the stale file is gone");
    }

    #[test]
    fn an_empty_job_fate_is_a_malformed_block_not_a_panic() {
        let exact = "lax-bench-checkpoint v2\ncell k\nscheduler A\nsummary 1 0 0 0 0 0 1\n\
                     job 0 0 0  0 b\nend\n";
        assert!(parse_file::<SweepCodec>(exact).is_empty());
        // A multi-byte first character reached the same byte split.
        let multibyte = exact.replace("0  0 b", "0 é5 0 b");
        assert!(parse_file::<SweepCodec>(&multibyte).is_empty());
    }

    #[test]
    fn an_out_of_range_bucket_is_a_malformed_block_not_a_panic() {
        let block = |buckets: &str| {
            format!(
                "lax-bench-cluster-checkpoint v3\ncell LL:HYBRID:high:d4:j400:s7\nfidelity fast\n\
                 summary 400 133 0 267 267 0 0 0 28692795 534\nmisses 133 0 0 0 0 0 0\n\
                 devices 74 69 62 62\nsketch 0 41312e61fdf3b645 40863e90b9af7201 40bb3a54d242e6be\n\
                 buckets {buckets}\nend\n"
            )
        };
        assert_eq!(parse_file::<FleetCodec>(&block("1354:1")).len(), 1, "the control parses");
        // usize::MAX overflowed `i + 1`; a large index that does not
        // overflow allocated without bound.
        assert!(parse_file::<FleetCodec>(&block("18446744073709551615:1")).is_empty());
        assert!(parse_file::<FleetCodec>(&block("4000000000000:1")).is_empty());
        let top = StreamingQuantiles::max_bucket();
        assert_eq!(parse_file::<FleetCodec>(&block(&format!("{top}:1"))).len(), 1);
        assert!(parse_file::<FleetCodec>(&block(&format!("{}:1", top + 1))).is_empty());
        // Counts whose total overflows the sketch's sample count.
        assert!(parse_file::<FleetCodec>(&block("1:18446744073709551615 2:1")).is_empty());
    }

    /// Both files as the two stores this one replaced wrote them (the
    /// fleet store printed unpadded hex), rendered from the reports below.
    /// Existing `.ckpt` files must still resume.
    const PARENT_SWEEP_FILE: &str = "lax-bench-checkpoint v2
cell LAX:IPV6:high:j128:s42
scheduler LAX
summary 123456789 40a88b2f704a9409 42 3fe5555555555555 0008000000000000 1234567 4
profile 499602d3 3
job 0 0 777 C500 3fd3333333333334 IPV6 mixed
job 1 1000 1777 R1000 3fd3333333333334 IPV6 mixed
job 2 2000 2777 A2900 3fd3333333333334 IPV6 mixed
job 3 3000 3777 U 3fd3333333333335 IPV6 mixed
end
cell RR:IPV6:high:j128:s42:f0.5
scheduler RR with spaces
summary 123456789 40a88b2f704a9409 42 3fe5555555555555 0008000000000000 1234567 2
job 0 0 777 C500 3fd3333333333334 IPV6 mixed
job 1 1000 1777 R1000 3fd3333333333334 IPV6 mixed
end
";

    const PARENT_FLEET_FILE: &str = "lax-bench-cluster-checkpoint v3
cell LL:HYBRID:high:d4:j400:s7
fidelity fast
summary 400 133 0 267 267 0 0 0 28692795 534
misses 133 0 0 0 0 0 0
devices 74 69 62 62
sketch 0 41312e61fdf3b645 40863e90b9af7201 40bb3a54d242e6be
buckets 1354:1 1355:1 1356:1 1373:1 1375:1 1377:1 1380:1 1392:1 1410:1 1413:2 1414:3 1416:2 1420:1 1422:1 1423:1 1427:1 1429:1 1432:1 1434:1 1438:1 1448:1 1452:1 1453:2 1454:2 1456:1 1457:1 1460:1 1461:1 1465:3 1468:1 1469:1 1470:1 1471:2 1475:2 1480:1 1482:1 1483:1 1484:2 1487:3 1488:1 1490:1 1491:1 1492:1 1493:2 1494:2 1497:1 1498:1 1501:1 1502:1 1503:1 1504:1 1506:2 1508:2 1509:1 1510:1 1511:2 1513:1 1514:2 1516:1 1517:1 1518:2 1519:2 1520:1 1521:1 1522:3 1523:1 1524:4 1525:2 1526:2 1527:2 1528:6 1529:3 1530:2 1531:4 1532:3 1533:2 1534:1 1535:6 1536:3 1537:3 1538:2 1539:5 1540:5 1541:3 1542:3 1543:5 1544:5 1545:6 1546:6 1547:2 1548:4 1549:4 1550:6 1551:4 1552:4 1553:3 1554:3 1555:4 1556:1 1557:2 1558:4 1559:2 1560:4 1562:1 1563:1 1564:1 1565:2 1566:1 1567:2 1568:2 1569:2 1570:5 1571:4 1572:1 1573:2 1574:4 1575:2 1576:1 1577:2 1578:4 1579:4 1580:4 1582:2 1583:1
end
cell RR:HYBRID:high:d4:j400:s7:f1.5
fidelity fast
summary 400 0 0 343 69 57 17 0 221834857 760
misses 0 0 218 56 0 57 0
devices 76 69 136 136
sketch 0 4163dda3db645a1c 4085e5529a485cd8 4101e708bb0cf87e
buckets 1352:2 1353:1 1355:2 1366:1 1374:1 1377:1 1385:1 1395:1 1410:2 1413:2 1414:3 1415:1 1429:1 1432:1 1445:1 1451:1 1453:1 1454:2 1455:1 1461:1 1462:2 1463:1 1464:1 1471:1 1473:1 1483:1 1484:1 1486:1 1491:1 1493:1 1498:2 1499:1 1503:1 1508:1 1512:1 1515:1 1521:1 1522:1 1525:1 1526:1 1530:2 1531:1 1532:1 1533:1 1546:1 1547:1 1548:1 1549:2 1553:1 1556:1 1561:1 1563:1 1567:1 1570:1 1572:1 1578:1 1581:1 1583:1 1585:2 1586:1 1590:1 1592:2 1596:1 1598:1 1599:1 1604:1 1606:1 1608:1 1612:2 1617:2 1619:2 1620:1 1621:1 1623:2 1624:1 1625:2 1628:1 1629:2 1630:1 1631:2 1633:1 1635:1 1637:1 1640:1 1642:1 1643:1 1645:1 1649:2 1651:1 1653:2 1654:1 1655:3 1656:1 1657:1 1658:1 1661:2 1667:1 1670:1 1671:1 1672:1 1674:2 1677:2 1678:1 1679:1 1680:1 1681:2 1683:2 1684:1 1686:3 1691:1 1692:1 1693:2 1696:1 1698:1 1699:2 1700:2 1701:1 1705:1 1707:2 1711:2 1712:3 1715:1 1716:1 1717:4 1718:5 1722:1 1723:2 1726:1 1727:1 1728:2 1729:1 1730:3 1731:4 1733:1 1734:2 1735:1 1736:2 1737:3 1738:2 1739:1 1740:5 1741:3 1744:2 1745:2 1747:2 1748:1 1749:2 1751:1 1752:1 1753:2 1754:2 1755:3 1756:1 1757:1 1758:4 1759:1 1760:1 1761:6 1763:1 1764:3 1765:1 1766:2 1769:2 1771:1 1772:2 1774:1 1775:2 1776:3 1777:5 1778:4 1779:4 1780:3 1781:2 1782:4 1783:1 1784:2 1785:1 1786:1 1787:2 1788:2 1789:3 1790:2 1793:3 1794:1 1795:1 1796:2 1798:1 1799:2 1800:2 1802:1 1803:3 1804:1 1805:1 1807:1 1808:1 1809:2 1810:2 1811:1 1812:2 1813:1 1814:2 1815:1 1816:1 1819:3 1820:2 1821:2 1822:3 1823:4 1824:1 1828:1 1829:1 1832:1 1839:1 1889:1
end
";

    #[test]
    fn files_written_by_the_previous_stores_still_resume() {
        let sweep = parse_file::<SweepCodec>(PARENT_SWEEP_FILE);
        assert_eq!(sweep.len(), 2);
        assert_eq!(sweep["LAX:IPV6:high:j128:s42"], report("LAX", 4));
        assert_eq!(sweep["RR:IPV6:high:j128:s42:f0.5"], report("RR with spaces", 2));
        let fleet = parse_file::<FleetCodec>(PARENT_FLEET_FILE);
        assert_eq!(fleet.values().cloned().collect::<Vec<_>>(), fleet_reports());
    }

    #[test]
    fn a_parent_profile_line_is_skipped_and_never_written() {
        // The parent file's first cell carries `profile 499602d3 3` (one
        // timed run per cell, no longer stored): it loads to the same
        // report as the cell without the line.
        assert!(PARENT_SWEEP_FILE.contains("\nprofile 499602d3 3\n"));
        let without = PARENT_SWEEP_FILE.replace("profile 499602d3 3\n", "");
        assert_eq!(parse_file::<SweepCodec>(PARENT_SWEEP_FILE), parse_file::<SweepCodec>(&without));
        truncation_keeps_only_intact_cells::<SweepCodec>(PARENT_SWEEP_FILE);
        // Rendering that cell now gives the parent's bytes minus the line.
        let mut store = Store::<SweepCodec> { path: PathBuf::new(), cells: BTreeMap::new() };
        store.cells = parse_file::<SweepCodec>(PARENT_SWEEP_FILE);
        let rendered = store.render();
        assert!(!rendered.contains("profile"), "{rendered}");
        assert_eq!(rendered, without);
    }

    /// Renders both kinds of file through a real store, for the fuzzers.
    fn sample_files() -> (String, String) {
        let mut sweep = Store::<SweepCodec> { path: PathBuf::new(), cells: BTreeMap::new() };
        sweep.cells.insert("LAX:IPV6:high:j128:s42".into(), report("LAX", 5));
        sweep.cells.insert("RR:IPV6:high:j128:s42:f0.5".into(), report("RR with spaces", 3));
        let mut fleet = Store::<FleetCodec> { path: PathBuf::new(), cells: BTreeMap::new() };
        for r in fleet_reports() {
            fleet.cells.insert(r.scenario.to_string(), r);
        }
        (sweep.render(), fleet.render())
    }

    /// Every byte prefix of a valid file restores only cells equal to the
    /// originals, and never panics.
    fn truncation_keeps_only_intact_cells<C: Codec>(text: &str)
    where
        C::Record: PartialEq + fmt::Debug,
    {
        let full = parse_file::<C>(text);
        assert_eq!(full.len(), text.matches("\nend\n").count(), "the sample parses whole");
        for cut in 0..=text.len() {
            let Some(prefix) = text.get(..cut) else { continue };
            for (key, record) in parse_file::<C>(prefix) {
                assert_eq!(Some(&record), full.get(&key), "prefix of {cut} bytes altered {key}");
            }
        }
        // `open` is a file read in front of the same parser.
        let path = tmp_path("truncated");
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert_eq!(Store::<C>::open(&path).cells, parse_file::<C>(&text[..text.len() / 2]));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_files_restore_only_intact_cells() {
        let (sweep, fleet) = sample_files();
        truncation_keeps_only_intact_cells::<SweepCodec>(&sweep);
        truncation_keeps_only_intact_cells::<FleetCodec>(&fleet);
    }

    /// One seeded mutation: a byte flip, a line splice, a line
    /// duplication or an inserted multi-byte character.
    fn mutate(text: &str, rng: &mut SimRng) -> String {
        let mut bytes = text.as_bytes().to_vec();
        let at = |rng: &mut SimRng, len: usize| rng.below(len as u64 + 1) as usize;
        match rng.below(4) {
            0 => {
                let i = at(rng, bytes.len() - 1);
                bytes[i] ^= 1 << rng.below(8);
            }
            1 | 2 => {
                let lines: Vec<&str> = text.split_inclusive('\n').collect();
                let i = at(rng, lines.len() - 1);
                let j = at(rng, lines.len() - 1);
                let mut out: Vec<&str> = lines.clone();
                if rng.below(2) == 0 {
                    out.insert(j, lines[i]); // duplicate a line elsewhere
                } else {
                    out.swap(i, j); // splice two lines
                }
                bytes = out.concat().into_bytes();
            }
            _ => {
                let c = ['é', '€', '𝄞', '\u{0}'][rng.below(4) as usize];
                let mut i = at(rng, bytes.len());
                while !text.is_char_boundary(i) {
                    i -= 1;
                }
                let mut buf = [0; 4];
                bytes.splice(i..i, c.encode_utf8(&mut buf).bytes());
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    #[test]
    fn mutated_files_never_panic_the_parsers() {
        let (sweep, fleet) = sample_files();
        let mut rng = SimRng::seed_from(0x5eed);
        for round in 0..3000 {
            let (mut s, mut f) = (sweep.clone(), fleet.clone());
            for _ in 0..=round % 3 {
                s = mutate(&s, &mut rng);
                f = mutate(&f, &mut rng);
            }
            // Any outcome but a panic is fine.
            std::hint::black_box((parse_file::<SweepCodec>(&s), parse_file::<FleetCodec>(&f)));
        }
    }
}
