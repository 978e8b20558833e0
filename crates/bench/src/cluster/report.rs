//! The merged report of a fleet cell, the two tables the fleet binaries
//! render from it, and the one grid driver both binaries run.

use std::error::Error;
use std::path::PathBuf;

use gpu_sim::prelude::*;
use sim_core::stats::StreamingQuantiles;
use sim_core::table::Table;

use super::{cells_from_cli, knobs_from_cli, ClusterBuilder, ClusterScenario};
use crate::checkpoint::FleetCheckpoint;
use crate::cli::Cli;
use crate::sweep::{run_grid, write_output};

/// Merged outcome of one cluster cell. Compares bit-exactly (`PartialEq`),
/// which the worker-count determinism tests and checkpoint round trip rely
/// on.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// The cell that produced this report.
    pub scenario: ClusterScenario,
    /// Fidelity tier the devices ran at.
    pub fidelity: Fidelity,
    /// Jobs in the arrival stream.
    pub total: u64,
    /// Jobs the router rejected at the front door (LL admission).
    pub rejected: u64,
    /// Jobs a device's own admission control rejected (detailed tier).
    pub device_rejected: u64,
    /// Jobs that completed on some device.
    pub completed: u64,
    /// Completed jobs that made their deadline.
    pub met: u64,
    /// Jobs lost to device crashes (in flight when the device went down
    /// and not recovered within the retry budget). Zero without faults.
    pub lost: u64,
    /// Successful re-placements of crash-lost (or outage-stalled) jobs.
    pub retried: u64,
    /// Jobs shed at the front door under degraded capacity
    /// ([`ClusterBuilder::shed_degraded`]). Zero without faults.
    pub shed: u64,
    /// Per-cause breakdown of every job that did not make its deadline.
    /// Conserves exactly against the counters above — see
    /// [`MissBreakdown`] for the identities, the headline one being
    /// `misses.total() == total - met`. Computed on every run, observed or
    /// not.
    pub misses: MissBreakdown,
    /// Arrival-to-completion latency sketch over completed jobs,
    /// microseconds (p50/p99/p999 within 0.5% relative error).
    pub latency_us: StreamingQuantiles,
    /// Jobs routed to each device, in device-index order.
    pub per_device_jobs: Vec<u64>,
    /// Latest device makespan.
    pub makespan: Duration,
    /// Model events processed, summed over devices.
    pub events: u64,
}

impl ClusterReport {
    /// Deadline attainment: the fraction of *all* offered jobs that
    /// completed by their deadline. Rejected jobs — at the front door or a
    /// device — count as misses, so admission cannot inflate the score.
    pub fn attainment(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.met as f64 / self.total as f64
    }
}

/// Late completions split by cause: died waiting for a slot, or the
/// service alone blew the deadline.
const LATE: [(&str, MissCause); 2] =
    [("m_queue", MissCause::QueueingDelay), ("m_serv", MissCause::ServiceTime)];

/// One row per report: the `head` columns, one miss count per `causes`
/// entry, then attainment, the p50/p99/p999 and mean latency and the
/// makespan, the columns both fleet tables end with.
fn slo_table(
    reports: &[ClusterReport],
    head: &[&str],
    causes: &[(&str, MissCause)],
    head_row: impl Fn(&ClusterReport) -> Vec<String>,
) -> Table {
    let mut columns = head.to_vec();
    columns.extend(causes.iter().map(|&(name, _)| name));
    columns.extend(["attain", "p50_us", "p99_us", "p999_us", "mean_us", "makespan_ms"]);
    let mut table = Table::with_columns(&columns);
    for r in reports {
        let mut row = head_row(r);
        row.extend(causes.iter().map(|&(_, cause)| r.misses.count(cause).to_string()));
        let q = &r.latency_us;
        row.extend([
            format!("{:.4}", r.attainment()),
            format!("{:.1}", q.p50()),
            format!("{:.1}", q.p99()),
            format!("{:.1}", q.p999()),
            format!("{:.1}", q.mean()),
            format!("{:.2}", r.makespan.as_us_f64() / 1000.0),
        ]);
        table.row(row);
    }
    table
}

/// Renders the per-policy SLO-attainment table the `cluster` binary writes:
/// one row per report, with streaming p50/p99/p999 latency tails and the
/// miss attribution split (`m_queue`/`m_serv`: late completions that died
/// waiting for a slot vs. ones whose service alone blew the deadline).
pub fn cluster_table(reports: &[ClusterReport]) -> Table {
    let head = ["cell", "policy", "devices", "jobs", "routed", "rejected", "met"];
    slo_table(reports, &head, &LATE, |r| {
        let s = &r.scenario;
        vec![
            format!("{}:{}", s.bench, s.rate),
            s.policy.clone(),
            s.devices.to_string(),
            r.total.to_string(),
            (r.total - r.rejected).to_string(),
            (r.rejected + r.device_rejected).to_string(),
            r.met.to_string(),
        ]
    })
}

/// Renders the robustness table the `chaos` binary writes: one row per
/// report with the failure-domain counters (shed/lost/retried) alongside
/// the attainment and latency tails, plus the typed miss attribution
/// (`m_queue`/`m_serv` split late completions, `m_crash`/`m_retry` split
/// final losses). [`cluster_table`] stays unchanged so fault-free results
/// files are byte-stable.
pub fn chaos_table(reports: &[ClusterReport]) -> Table {
    let head = [
        "cell", "policy", "f", "devices", "jobs", "rejected", "shed", "lost", "retried", "done",
        "met",
    ];
    let causes = [
        LATE[0],
        LATE[1],
        ("m_crash", MissCause::CrashLoss),
        ("m_retry", MissCause::RetryExhausted),
    ];
    slo_table(reports, &head, &causes, |r| {
        let s = &r.scenario;
        vec![
            format!("{}:{}", s.bench, s.rate),
            s.policy.clone(),
            format!("{}", s.fault_intensity()),
            s.devices.to_string(),
            r.total.to_string(),
            (r.rejected + r.device_rejected).to_string(),
            r.shed.to_string(),
            r.lost.to_string(),
            r.retried.to_string(),
            r.completed.to_string(),
            r.met.to_string(),
        ]
    })
}

/// The body of a fleet-grid binary (`cluster`, `chaos`): reads the rest of
/// `cli` — `--jobs`, `--smoke`, `--resume`, `--out`, `--ckpt`, the run
/// knobs and the cells — runs the grid one cell at a time through the
/// checkpoint store, and writes `header`, a `# fidelity:` line and
/// `table`'s rendering to `--out` (default `results/{name}.txt`).
///
/// Without cells the grid is `smoke` under `--smoke`, `full` otherwise.
/// Progress and the checkpoint tag are named `name`. The checkpoint is
/// kept only with `--ckpt`, and removed once the artifact is written.
///
/// # Errors
///
/// A bad command line, before anything is written; the first failing
/// cell, after every other cell ran; or an I/O error.
pub fn run_fleet_grid(
    mut cli: Cli,
    name: &str,
    smoke: Vec<ClusterScenario>,
    full: Vec<ClusterScenario>,
    header: &str,
    table: fn(&[ClusterReport]) -> Table,
) -> Result<(), Box<dyn Error>> {
    let jobs = cli.jobs()?;
    let use_smoke = cli.flag("--smoke")?;
    let resume = cli.flag("--resume")?;
    let out = cli.value("--out")?.unwrap_or_else(|| format!("results/{name}.txt"));
    let out = PathBuf::from(out);
    let ckpt_path = cli.value("--ckpt")?.map(PathBuf::from);
    let knobs = knobs_from_cli(&mut cli)?;
    let mut cells = cells_from_cli(&cli.positionals()?)?;
    if cells.is_empty() {
        cells = if use_smoke { smoke } else { full };
    }
    let builders: Vec<ClusterBuilder> = cells.into_iter().map(|c| knobs(c).workers(jobs)).collect();

    let mut checkpoint = ckpt_path.map(|p| FleetCheckpoint::for_run(p, resume, name));
    eprintln!("[{name}] {} cell(s) on {jobs} worker thread(s)", builders.len());
    let t0 = std::time::Instant::now();
    // One cell at a time: a detailed cell spreads its devices over `jobs`.
    let reports =
        run_grid(&builders, 1, checkpoint.as_mut(), ClusterBuilder::run, |b, r| match r {
            Ok(r) => eprintln!(
                "[{name}] {b}: attain {:.4}, p999 {:.1}us, lost {}, retried {}",
                r.attainment(),
                r.latency_us.p999(),
                r.lost,
                r.retried
            ),
            Err(e) => eprintln!("[{name}] {b}: {e}"),
        })?;

    let mut text = header.to_string();
    // Every cell ran under the one knob set, so the first names its fidelity.
    text.push_str(&format!("# fidelity: {}\n", reports[0].fidelity));
    text.push_str(&table(&reports).render());
    write_output(&out, &text)?;
    if let Some(ckpt) = checkpoint.as_ref() {
        ckpt.discard_file()?;
    }
    eprintln!("[{name}] wrote {} in {:?}", out.display(), t0.elapsed());
    Ok(())
}
