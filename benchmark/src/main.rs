//! The repository's benchmark: seeded workloads over the device simulator
//! and the fleet layer, timed from outside the library.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! One workload runs in one process: it calibrates the suite, runs rounds of
//! its cells until `--seconds` have passed, times the calibration in fresh
//! child processes (`setup_s`, untraced runs only), and prints every metric
//! by name with its unit. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 1` each round adds a decorated pass and an observed pass, the
//! per-layer metrics replace the end-to-end ones, and the spans are written
//! as Chrome trace-event JSON to `benchmark/trace/<workload>.json`.
//!
//! Without `--workload` every workload runs in sequence, each in a child
//! process, and the final line merges their results.
//!
//! The process exits non-zero when any cell fails or any output check does.

mod trace;
mod workload;

use std::fs;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use sim_core::json;
use sim_core::stats::Samples;
use workloads::suite::BenchmarkSuite;

use trace::{Pass, Tracer, CALLBACKS};
use workload::{run_cell, Cell, CellOutcome, Workload, DEFAULT_SEED, FLEET_WORKERS};

/// End-to-end metrics, reported by untraced runs.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("sim_us_per_s", "us/s"),
    ("peak_rss_mb", "MB"),
    ("table1_err_max", "fraction"),
];

/// Fresh processes whose calibration time `setup_s` takes the median of.
const SETUP_PROBES: usize = 5;

/// Command-line options.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    setup_probe: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        setup_probe: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let t = Instant::now();
        BenchmarkSuite::calibrated();
        println!("{}", t.elapsed().as_secs_f64());
        return ExitCode::SUCCESS;
    }
    if cfg!(debug_assertions) && !args.smoke {
        eprintln!("benchmark: refusing a timed run from a debug build; build with --release");
        return ExitCode::from(2);
    }
    let correct = match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    match correct {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The result of one workload run.
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The final output line.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(r#""{}":{{"value":{},"unit":"{}"}}"#, json::escaped(name), value, unit)
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Runs one workload in this process and prints its report.
fn run_one(w: Workload, args: &Args) -> Result<bool, String> {
    let suite = BenchmarkSuite::calibrated();
    let table1_err_max = suite.calibrations().map(|c| c.rel_error()).fold(0.0, f64::max);

    let cells = w.cells(args.seed, args.smoke);
    let passes: &[Pass] = match (args.trace, w.is_fleet()) {
        (false, _) => &[Pass::Plain],
        (true, false) => &[Pass::Plain, Pass::Decorated, Pass::Observed],
        (true, true) => &[Pass::Plain, Pass::Observed],
    };
    let committed = !args.smoke && args.seed == DEFAULT_SEED && w.is_fleet();
    let mut tracer = Tracer::new();
    let mut first: Vec<Option<CellOutcome>> = vec![None; cells.len()];
    let mut out = Outcome { attempted: 0, failed: 0, problems: Vec::new(), metrics: Vec::new() };
    let start = Instant::now();
    let mut rounds = 0;
    let mut peak_rss = 0.0;
    loop {
        let round_start = Instant::now();
        for (i, cell) in cells.iter().enumerate() {
            for &pass in passes {
                out.attempted += 1;
                let check_rows = committed && rounds == 0 && pass == Pass::Plain;
                let problems = match run_cell(w, cell, i, rounds, pass, check_rows, &mut tracer) {
                    Err(e) => vec![e.to_string()],
                    Ok(mut o) => {
                        let mut problems = std::mem::take(&mut o.problems);
                        match &first[i] {
                            None => first[i] = Some(o),
                            Some(f) if f.digest != o.digest => problems.push(format!(
                                "{pass:?} pass of round {rounds} changed the outcome"
                            )),
                            Some(_) => {}
                        }
                        problems
                    }
                };
                if !problems.is_empty() {
                    out.failed += 1;
                    out.problems.extend(problems.iter().map(|p| format!("{}: {p}", cell.label())));
                }
            }
        }
        eprintln!("[{}] round {rounds}: {:.3} s", w.name(), round_start.elapsed().as_secs_f64());
        if rounds == 0 {
            // Later rounds repeat the same work; the allocator's layout
            // drifts over the repeats, so their peak would depend on how
            // many rounds fit in the run.
            peak_rss = peak_rss_mb()?;
        }
        rounds += 1;
        if args.smoke || start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let root = if w.is_fleet() { "ClusterBuilder::run" } else { "cell" };
    let host_s = tracer.layer_s(Pass::Plain, root);
    let offered: u64 = cells.iter().map(Cell::offered).sum();
    let met: u64 = first.iter().flatten().map(|o| o.met).sum();
    let sim_us: f64 = first.iter().flatten().map(|o| o.sim_us).sum();
    let mut digest = DefaultHasher::new();
    for o in &first {
        o.as_ref().map(|o| o.digest).hash(&mut digest);
    }
    if args.trace {
        out.metrics = per_layer(w, &tracer);
        let text = tracer.to_chrome_json(&cells.iter().map(Cell::label).collect::<Vec<_>>());
        match json::validate(&text) {
            Ok(()) => {
                let path = trace_path(w);
                fs::create_dir_all(path.parent().expect("trace path has a directory"))
                    .and_then(|()| fs::write(&path, &text))
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                println!("trace {}", path.display());
            }
            Err(e) => out.problems.push(format!("trace: {e}")),
        }
    } else {
        let setup = setup_s(if args.smoke { 1 } else { SETUP_PROBES })?;
        let values = [setup, ratio(sim_us, host_s), peak_rss, table1_err_max];
        out.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit.to_string()))
            .collect();
    }

    println!(
        "workload {} seed={} seconds={} trace={} smoke={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke
    );
    println!(
        "machine nproc={} fleet_workers={FLEET_WORKERS} profile={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" }
    );
    println!(
        "rounds={rounds} passes={} cells={} attempted={} failed={} committed_rows={}",
        passes.len(),
        cells.len(),
        out.attempted,
        out.failed,
        if committed { "checked" } else { "skipped" }
    );
    println!("digest {} {:016x}", w.name(), digest.finish());
    // Not gated: offered jobs depend on the seed's draw far more than on
    // the simulator's speed, and attainment is a simulated outcome.
    println!("info jobs_per_s {} jobs/s", ratio(offered as f64, host_s));
    println!("info attainment {} fraction", ratio(met as f64, offered as f64));
    for p in &out.problems {
        println!("problem {p}");
    }
    for (name, value, unit) in &out.metrics {
        println!("{name} {value} {unit}");
    }
    println!("{}", out.json());
    Ok(out.correct())
}

/// Where a traced run writes its spans.
fn trace_path(w: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("trace").join(format!("{}.json", w.name()))
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median over `n` fresh processes of the first `BenchmarkSuite::calibrated`
/// call: the set-up every run of the simulator pays before its first cell.
fn setup_s(n: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut samples = Samples::new();
    for _ in 0..n {
        let out = Command::new(&exe)
            .arg("--setup-probe")
            .output()
            .map_err(|e| format!("running the set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let secs: f64 =
            text.trim().parse().map_err(|_| format!("set-up probe printed `{}`", text.trim()))?;
        samples.push(secs);
    }
    Ok(samples.percentile(0.5))
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("reading VmHWM: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `traced / plain - 1`, or 0 when nothing ran plain.
fn overhead(traced: f64, plain: f64) -> f64 {
    if plain == 0.0 {
        0.0
    } else {
        traced / plain - 1.0
    }
}

/// Every per-layer metric, from the traced run's spans. Layers a workload
/// never calls read 0.
fn per_layer(w: Workload, t: &Tracer) -> Vec<(String, f64, String)> {
    use Pass::{Decorated, Observed, Plain};
    const GEN: &str = "BenchmarkSuite::generate_jobs";
    const RUN: &str = "Simulation::try_run";
    const FLEET: &str = "ClusterBuilder::run";
    let count = |key: &str| t.counter(Observed, RUN, key);
    let run_s = t.layer_s(Plain, RUN);
    let events = t.counter(Plain, RUN, "events");
    let (l2, dram) = (count("memsys.l2_lines"), count("memsys.dram_lines"));
    let decisions = count("cp_frontend.decisions");
    let mut m = vec![
        ("workloads.generate_jobs_s".to_string(), t.layer_s(Plain, GEN), "s"),
        ("workloads.kernels".into(), t.counter(Plain, GEN, "kernels"), "count"),
        ("gpu_sim.build_s".into(), t.layer_s(Plain, "SimBuilder::build"), "s"),
        ("gpu_sim.run_s".into(), run_s, "s"),
        (
            "gpu_sim.run_self_s".into(),
            t.sum_of_minima(Decorated, RUN, |i| t.self_ns(i) as f64 / 1e9),
            "s",
        ),
        ("gpu_sim.events".into(), events, "count"),
        ("gpu_sim.ns_per_event".into(), ratio(run_s * 1e9, events), "ns"),
        ("gpu_sim.wgs".into(), t.counter(Plain, RUN, "wgs"), "count"),
        ("gpu_sim.memsys.bundles".into(), count("memsys.bundles"), "count"),
        ("gpu_sim.memsys.l1_lines".into(), count("memsys.l1_lines"), "count"),
        ("gpu_sim.memsys.l2_lines".into(), l2, "count"),
        ("gpu_sim.memsys.dram_lines".into(), dram, "count"),
        ("gpu_sim.memsys.l2_hit_frac".into(), ratio(l2, l2 + dram), "fraction"),
        ("gpu_sim.exec.waves".into(), count("exec.waves"), "count"),
        ("gpu_sim.dispatch.kernels".into(), count("dispatch.kernels"), "count"),
        ("gpu_sim.dispatch.wgs".into(), count("dispatch.wgs"), "count"),
        ("gpu_sim.cp_frontend.decisions".into(), decisions, "count"),
        (
            "gpu_sim.cp_frontend.admit_frac".into(),
            ratio(count("cp_frontend.admitted"), decisions),
            "fraction",
        ),
        (
            "gpu_sim.cp_frontend.priority_updates".into(),
            count("cp_frontend.priority_updates"),
            "count",
        ),
    ];
    for cb in CALLBACKS {
        let calls = t.counter(Decorated, RUN, &format!("{cb}.calls"));
        m.push((format!("schedulers.{cb}.calls"), calls, "count"));
        let secs = t.counter(Decorated, RUN, &format!("{cb}.s"));
        m.push((format!("schedulers.{cb}.s"), secs, "s"));
    }

    let observed_run_s = t.layer_s(Observed, RUN);
    let fleet_s = t.layer_s(Plain, FLEET);
    let observed_fleet_s = t.layer_s(Observed, FLEET);
    let devices_s = t.layer_s(Observed, "fleet.devices");
    let routed = t.counter(Observed, FLEET, "routed");
    let rejected = t.counter(Observed, FLEET, "rejected");
    let (lost, retried) = (t.counter(Plain, FLEET, "lost"), t.counter(Plain, FLEET, "retried"));
    // The traced passes' time over the plain pass's, per traced pass.
    let trace_overhead = if w.is_fleet() {
        overhead(observed_fleet_s, fleet_s)
    } else {
        let traced = t.layer_s(Decorated, "cell") + t.layer_s(Observed, "cell");
        overhead(traced / 2.0, t.layer_s(Plain, "cell"))
    };
    m.extend([
        ("gpu_sim.probe.observed_run_s".into(), observed_run_s, "s"),
        ("gpu_sim.probe.overhead_frac".into(), overhead(observed_run_s, run_s), "fraction"),
        ("cluster.generate_s".into(), t.layer_s(Observed, "cluster.generate"), "s"),
        ("cluster.emit_s".into(), t.layer_s(Observed, "cluster.emit"), "s"),
        ("cluster.observed_overhead_frac".into(), overhead(observed_fleet_s, fleet_s), "fraction"),
        ("routing.route_s".into(), t.layer_s(Observed, "routing.route"), "s"),
        ("routing.routed".into(), routed, "count"),
        ("routing.rejected".into(), rejected, "count"),
        ("routing.admit_frac".into(), ratio(routed, routed + rejected), "fraction"),
        ("fleet.devices_s".into(), devices_s, "s"),
        ("fleet.events".into(), t.counter(Plain, FLEET, "events"), "count"),
        ("fleet.ns_per_job".into(), ratio(devices_s * 1e9, routed), "ns"),
        ("fleet.lost".into(), lost, "count"),
        ("fleet.retried".into(), retried, "count"),
        ("fleet.retry_success_frac".into(), ratio(retried, retried + lost), "fraction"),
        ("bench.trace_overhead_frac".into(), trace_overhead, "fraction"),
    ]);
    m.into_iter().map(|(n, v, u)| (n, v, u.to_string())).collect()
}

/// Runs every workload in its own child process, forwarding their output,
/// and prints one merged result line with metrics named `workload.metric`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut merged = Outcome { attempted: 0, failed: 0, problems: Vec::new(), metrics: Vec::new() };
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = json::parse(stdout.lines().last().unwrap_or_default());
        let Ok(last) = last else {
            merged.problems.push(format!("{} printed no result line", w.name()));
            continue;
        };
        if !out.status.success() || last.get("correct") != Some(&json::Value::Bool(true)) {
            merged.problems.push(format!("{} was not correct", w.name()));
        }
        let num = |key: &str| last.get(key).and_then(json::Value::as_f64).unwrap_or(0.0) as u64;
        merged.attempted += num("attempted");
        merged.failed += num("failed");
        if let Some(json::Value::Object(metrics)) = last.get("metrics") {
            for (name, m) in metrics {
                let value = m.get("value").and_then(json::Value::as_f64).unwrap_or_default();
                let unit = m.get("unit").and_then(json::Value::as_str).unwrap_or_default();
                merged.metrics.push((format!("{}.{name}", w.name()), value, unit.to_string()));
            }
        }
    }
    println!("{}", merged.json());
    Ok(merged.correct())
}
