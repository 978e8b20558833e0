//! End-to-end tests of the fleet layer: cells, knobs and checkpoint keys,
//! both fidelity tiers, faults, retries and shedding, the probe stream and
//! the miss attribution.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use gpu_sim::prelude::*;
use schedulers::routing;
use sim_core::rng::Fnv1a;
use workloads::spec::{ArrivalRate, Benchmark};
use workloads::stream::Arrival;
use workloads::suite::BenchmarkSuite;

use super::arrivals::{arrivals, job_stream, last_arrival};
use super::*;
use crate::checkpoint::{Codec, FleetCheckpoint, FleetCodec};
use crate::cli::Cli;
use crate::sweep::{device_simulation, run_grid, BenchError, SharedObserver};

fn scen(policy: &str) -> ClusterScenario {
    ClusterScenario::new(policy, Benchmark::Hybrid, ArrivalRate::High, 4, 400, 7)
}

/// The cell's whole arrival stream.
fn whole_stream(s: &ClusterScenario) -> Vec<(Arrival, Duration)> {
    job_stream(s, BenchmarkSuite::calibrated()).collect()
}

/// Records every probe event with its instant.
#[derive(Default)]
struct EventLog(Vec<(Cycle, ProbeEvent)>);

impl Observer<ProbeEvent> for EventLog {
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
        self.0.push((at, event.clone()));
    }
}

/// A cell seeded from its own intensity produces the same report (but for
/// the scenario it names) and the same observed event stream as the
/// fault-free cell with the same plan injected, at both tiers.
#[test]
fn seeded_cells_run_like_the_injected_plan() {
    // The detailed tier runs a full simulation per device, too slow for
    // thousands of jobs in a test.
    let cells = [
        (Fidelity::Fast, Benchmark::Hybrid, ArrivalRate::High, 4, 3 * 4096 + 7),
        (Fidelity::Detailed, Benchmark::Ipv6, ArrivalRate::Low, 2, 3 * 8 + 3),
    ];
    for (fidelity, bench, rate, devices, n) in cells {
        for policy in ["RR", "LL"] {
            let s = ClusterScenario::new(policy, bench, rate, devices, n, 7);
            let span = last_arrival(&s).saturating_since(Cycle::ZERO);
            for milli in [1000, 2000] {
                let faulted = s.clone().with_fault_milli(milli);
                let plan = FleetFaultPlan::seeded(
                    faulted.fault_seed(),
                    faulted.fault_intensity(),
                    span,
                    devices as u32,
                );
                assert_ne!(plan, FleetFaultPlan::none(), "{faulted}: the plan must fault");
                let run = |builder: ClusterBuilder| {
                    let log = Arc::new(Mutex::new(EventLog::default()));
                    let report = builder.fidelity(fidelity).observe(log.clone()).run().unwrap();
                    let events = std::mem::take(&mut log.lock().unwrap().0);
                    (report, events)
                };
                let (injected, injected_events) =
                    run(ClusterBuilder::new(s.clone()).fleet_faults(plan));
                let (seeded, seeded_events) = run(ClusterBuilder::new(faulted.clone()));
                assert_eq!(
                    ClusterReport { scenario: s.clone(), ..seeded },
                    injected,
                    "{faulted}: the seeded cell must match the injected plan"
                );
                assert!(seeded_events == injected_events, "{faulted}: event streams differ");
            }
        }
    }
}

#[test]
fn cluster_scenario_round_trips_through_strings() {
    for s in [
        ClusterScenario::new("LL", Benchmark::Hybrid, ArrivalRate::High, 16, 1_000_000, 20210301),
        ClusterScenario::new("RR", Benchmark::Ipv6, ArrivalRate::Low, 1, 1, 0),
        ClusterScenario::new("P2C", Benchmark::Stem, ArrivalRate::Medium, 64, 12, u64::MAX),
    ] {
        let text = s.to_string();
        assert_eq!(text.parse::<ClusterScenario>().unwrap(), s, "{text}");
    }
}

#[test]
#[should_panic(expected = "contains ':'")]
fn cluster_scenario_rejects_colon_in_policy() {
    let _ = ClusterScenario::new("LL:EVIL", Benchmark::Ipv6, ArrivalRate::High, 1, 1, 1);
}

/// A builder's string is its checkpoint key: the bare cell under the
/// default knobs, and a key of its own under each knob flag, whose
/// first field still restores the cell through the fleet codec.
#[test]
fn checkpoint_key_names_each_non_default_knob() {
    let cell = scen("LL").with_fault_milli(1000);
    let defaults = knobs_from_cli(&mut Cli::new(Vec::<String>::new())).unwrap();
    assert_eq!(defaults(cell.clone()).to_string(), cell.to_string());
    let mut body = String::new();
    FleetCodec::render(&mut body, &defaults(cell.clone()).run().unwrap());
    let body: Vec<&str> = body.lines().collect();
    let mut keys = vec![cell.to_string()];
    for flags in [
        &["--fidelity", "detailed"][..],
        &["--scheduler", "RR"],
        &["--slots", "3"],
        &["--jitter", "0.1"],
        &["--retry-budget", "0"],
        &["--backoff-us", "250"],
        &["--shed"],
    ] {
        let mut cli = Cli::new(flags.iter().copied());
        let key = knobs_from_cli(&mut cli).unwrap()(cell.clone()).to_string();
        assert_eq!(cli.positionals(), Ok(vec![]), "{flags:?} must be taken out of the line");
        assert_eq!(key, format!("{cell} {}", flags.join(" ")));
        assert!(!keys.contains(&key), "{key} repeats a key");
        assert_eq!(FleetCodec::parse(&key, &body).unwrap().scenario, cell, "{key}");
        keys.push(key);
    }
    for (flags, named) in [
        (&["--slots", "x"][..], "bad value `x` for `--slots`"),
        (&["--fidelity", "exact"], "bad value `exact` for `--fidelity`"),
        (&["--backoff-us", "18446744073709551615"], "for `--backoff-us`: at most"),
    ] {
        let err = knobs_from_cli(&mut Cli::new(flags.iter().copied())).err().unwrap();
        assert!(err.to_string().contains(named), "{err}");
    }
}

/// A store holding a cell's report made at retry budget 0 does not
/// answer for the default-budget run of that cell: the grid runs it
/// afresh and returns the fresh report.
#[test]
fn resume_under_other_knobs_reruns_the_cell() {
    let cell = scen("LL").with_fault_milli(1000);
    let budget0 = ClusterBuilder::new(cell.clone()).retry_budget(0);
    let stale = budget0.run().unwrap();
    let path = std::env::temp_dir().join(format!("lax-knob-key-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut store = FleetCheckpoint::open(&path);
    store.record(&budget0.to_string(), stale.clone()).unwrap();
    let runs = AtomicUsize::new(0);
    let counted = |b: &ClusterBuilder| {
        runs.fetch_add(1, Ordering::Relaxed);
        b.run()
    };
    let fresh = ClusterBuilder::new(cell);
    let cells = std::slice::from_ref(&fresh);
    let reports = run_grid(cells, 1, Some(&mut store), counted, |_, _| {}).unwrap();
    assert_eq!(runs.into_inner(), 1, "the default-budget cell must run");
    assert_eq!(reports, [fresh.run().unwrap()]);
    assert_ne!(reports[0], stale, "the budget must change this cell's report");
    store.discard_file().unwrap();
}

#[test]
fn cell_seeds_pair_policies_but_differ_across_workloads() {
    let a = scen("RR");
    let b = scen("LL");
    assert_eq!(
        a.cell_seed(),
        b.cell_seed(),
        "policies compared on one cell must route identical streams"
    );
    assert_ne!(a.cell_seed(), ClusterScenario { devices: 8, ..a.clone() }.cell_seed());
    assert_ne!(a.cell_seed(), ClusterScenario { n_jobs: 401, ..a.clone() }.cell_seed());
    assert_ne!(a.cell_seed(), ClusterScenario { seed: 8, ..a.clone() }.cell_seed());
    assert_ne!(a.cell_seed(), ClusterScenario { bench: Benchmark::Gmm, ..a.clone() }.cell_seed());
    assert_ne!(a.device_seed(0), a.device_seed(1));
    assert_eq!(a.device_seed(3), b.device_seed(3), "device seeds are policy-blind");
}

#[test]
fn fast_cluster_is_bit_identical_across_worker_counts() {
    for policy in routing::names() {
        let s = scen(policy);
        let one = ClusterBuilder::new(s.clone()).workers(1).run().unwrap();
        let eight = ClusterBuilder::new(s).workers(8).run().unwrap();
        assert_eq!(one, eight, "{policy}: reports must not depend on worker count");
    }
}

#[test]
fn fast_tier_accounting_identity_holds() {
    let r = ClusterBuilder::new(scen("LL")).run().unwrap();
    assert_eq!(r.completed + r.rejected, r.total);
    assert_eq!(r.latency_us.len() as u64, r.completed);
    assert_eq!(r.per_device_jobs.iter().sum::<u64>() + r.rejected, r.total);
    assert_eq!(r.per_device_jobs.len(), r.scenario.devices);
    assert!(r.met <= r.completed);
    assert!((0.0..=1.0).contains(&r.attainment()));
    assert!(r.events > 0);
}

/// An overloaded fleet (one slot per device at the high HYBRID rate):
/// deadline-aware routing must beat deadline-blind round-robin, and its
/// admission test must actually fire. This is the paper's claim at
/// cluster scope.
#[test]
fn least_laxity_beats_round_robin_when_overloaded() {
    let run = |policy: &str| {
        let s = ClusterScenario::new(policy, Benchmark::Hybrid, ArrivalRate::High, 4, 2000, 7);
        ClusterBuilder::new(s).slots(1).run().unwrap()
    };
    let rr = run("RR");
    let ll = run("LL");
    assert!(ll.rejected > 0, "LL's front-door admission must fire under overload");
    assert!(ll.met > rr.met, "LL ({} met) must beat RR ({} met) under overload", ll.met, rr.met);
}

struct DecisionCounter {
    routed: u64,
    rejected: u64,
}

impl Observer<ProbeEvent> for DecisionCounter {
    fn on_event(&mut self, _at: Cycle, event: &ProbeEvent) {
        match event {
            ProbeEvent::JobRouted { .. } => self.routed += 1,
            ProbeEvent::JobRejected { .. } => self.rejected += 1,
            _ => {}
        }
    }
}

#[test]
fn router_probes_cover_every_job_and_do_not_perturb() {
    let s = scen("LL");
    let plain = ClusterBuilder::new(s.clone()).run().unwrap();
    let counter = Arc::new(Mutex::new(DecisionCounter { routed: 0, rejected: 0 }));
    let observed = ClusterBuilder::new(s).observe(counter.clone()).run().unwrap();
    assert_eq!(plain, observed, "observers must not perturb the cluster report");
    let c = counter.lock().unwrap();
    assert_eq!(c.routed + c.rejected, observed.total);
    assert_eq!(c.rejected, observed.rejected);
}

#[test]
fn detailed_tier_runs_full_simulations_per_device() {
    let s = ClusterScenario::new("LOW", Benchmark::Ipv6, ArrivalRate::Low, 2, 12, 3);
    let r = ClusterBuilder::new(s).fidelity(Fidelity::Detailed).run().unwrap();
    assert_eq!(r.fidelity, Fidelity::Detailed);
    assert_eq!(r.completed + r.rejected + r.device_rejected, r.total);
    assert_eq!(r.latency_us.len() as u64, r.completed);
    assert!(r.met > 0, "a low-rate IPV6 cell must meet deadlines");
    assert!(
        r.events > 2 * r.total,
        "detailed devices process real event streams, got {}",
        r.events
    );
}

#[test]
fn unknown_policy_and_scheduler_are_typed_errors() {
    let err = ClusterBuilder::new(scen("WARP")).run().unwrap_err();
    match &err {
        BenchError::UnknownPolicy(e) => assert_eq!(e.name(), "WARP"),
        other => panic!("expected UnknownPolicy, got {other:?}"),
    }
    assert!(err.to_string().contains("WARP"));
    let s = ClusterScenario::new("RR", Benchmark::Ipv6, ArrivalRate::Low, 2, 4, 3);
    let err = ClusterBuilder::new(s)
        .fidelity(Fidelity::Detailed)
        .device_scheduler("NOPE")
        .run()
        .unwrap_err();
    assert!(matches!(err, BenchError::UnknownScheduler(_)), "{err:?}");
}

#[test]
fn cluster_table_reports_policies_and_tail_tiers() {
    let reports: Vec<ClusterReport> =
        ["RR", "LL"].iter().map(|p| ClusterBuilder::new(scen(p)).run().unwrap()).collect();
    let text = cluster_table(&reports).render();
    for needle in ["policy", "attain", "p99_us", "p999_us", "RR", "LL", "HYBRID:high"] {
        assert!(text.contains(needle), "table must mention {needle}:\n{text}");
    }
}

#[test]
fn fault_scenarios_round_trip_through_strings() {
    for (milli, text) in [
        (1000, "LL:HYBRID:high:d4:j400:s7:f1"),
        (1500, "LL:HYBRID:high:d4:j400:s7:f1.5"),
        (1, "LL:HYBRID:high:d4:j400:s7:f0.001"),
        (2000, "LL:HYBRID:high:d4:j400:s7:f2"),
    ] {
        let s = scen("LL").with_fault_milli(milli);
        assert_eq!(s.to_string(), text);
        assert_eq!(text.parse::<ClusterScenario>().unwrap(), s, "{text}");
    }
    // Intensity is part of the cell identity for the *fault* seed but
    // not the workload seed: arrival streams stay paired across
    // intensities so robustness comparisons isolate the faults.
    let base = scen("LL");
    let faulty = scen("LL").with_fault_milli(1000);
    assert_eq!(base.cell_seed(), faulty.cell_seed());
    assert_ne!(faulty.fault_seed(), scen("LL").with_fault_milli(2000).fault_seed());
    assert_eq!(faulty.fault_seed(), scen("RR").with_fault_milli(1000).fault_seed());
}

/// A plan whose only entry is a factor-1.0 straggler is non-empty yet
/// must perturb nothing: the booking model's stretch is a bit-exact
/// no-op at factor 1.0.
#[test]
fn noop_fault_plan_is_bit_identical_to_fault_free_run() {
    let noop = FleetFaultPlan {
        stragglers: vec![StragglerWindow {
            device: 0,
            at: Cycle::ZERO,
            until: Cycle::MAX,
            factor: 1.0,
        }],
        ..FleetFaultPlan::none()
    };
    for policy in routing::names() {
        let s = scen(policy);
        let plain = ClusterBuilder::new(s.clone()).run().unwrap();
        let chaos = ClusterBuilder::new(s).fleet_faults(noop.clone()).run().unwrap();
        assert_eq!(plain, chaos, "{policy}: a no-op plan must not change the report");
    }
}

#[test]
fn intensity_zero_matches_a_scenario_without_fault_suffix() {
    let s = scen("LL").with_fault_milli(0);
    assert_eq!(
        ClusterBuilder::new(s).run().unwrap(),
        ClusterBuilder::new(scen("LL")).run().unwrap()
    );
}

/// Fault-free reports pinned field by field, as the fault-free engine
/// produced them before it was folded into the time-ordered one: the
/// fast tier on `scen(policy)` for every policy, plus one detailed cell.
/// Per cell: `[met, rejected, completed, events, makespan cycles]` and
/// the bits of `[p50, p99, mean]`.
#[test]
fn fault_free_reports_match_their_golden_values() {
    let golden: [(&str, Fidelity, [u64; 5], [u64; 3]); 5] = [
        (
            "RR:HYBRID:high:d4:j400:s7",
            Fidelity::Fast,
            [92, 0, 400, 800, 113_024_223],
            [0x40cd_dad3_3606_0ee5, 0x40eb_35d3_07da_fabc, 0x40d2_c205_71de_69ad],
        ),
        (
            "LOW:HYBRID:high:d4:j400:s7",
            Fidelity::Fast,
            [74, 0, 400, 800, 92_073_574],
            [0x40d1_80e8_1e8d_9ff8, 0x40e3_ca45_cb9b_d137, 0x40d2_4c92_7df0_377c],
        ),
        (
            "P2C:HYBRID:high:d4:j400:s7",
            Fidelity::Fast,
            [74, 0, 400, 800, 91_840_032],
            [0x40d2_36d9_78a8_034b, 0x40e3_ca45_cb9b_d137, 0x40d2_636b_d8bb_a6c3],
        ),
        (
            "LL:HYBRID:high:d4:j400:s7",
            Fidelity::Fast,
            [267, 133, 267, 534, 28_692_795],
            [0x40b1_62c0_f487_471a, 0x40ba_efa1_86bd_ece9, 0x40b0_792d_0e56_0418],
        ),
        (
            "LL:IPV6:high:d2:j48:s3",
            Fidelity::Detailed,
            [18, 0, 27, 592_982, 615_944],
            [0x4040_27d6_8294_aba2, 0x4051_612c_4cb0_bae4, 0x4043_1f29_9793_c8e1],
        ),
    ];
    for (cell, fidelity, counts, bits) in golden {
        let r = ClusterBuilder::new(cell.parse().unwrap()).fidelity(fidelity).run().unwrap();
        let got_counts = [r.met, r.rejected, r.completed, r.events, r.makespan.as_cycles()];
        let q = &r.latency_us;
        let got_bits = [q.p50().to_bits(), q.p99().to_bits(), q.mean().to_bits()];
        assert_eq!((got_counts, got_bits), (counts, bits), "{cell}");
    }
}

#[test]
fn out_of_range_fleet_knobs_are_typed_errors() {
    let base = || ClusterBuilder::new(scen("LL")).workers(2);
    let bounds = [("slots", "at least 1"), ("jitter", "in [0, 1)"), ("devices", "at most 65535")];
    for (builder, name) in [
        (base().slots(0), "slots"),
        (base().jitter(1.5), "jitter"),
        (base().jitter(-0.1), "jitter"),
        (base().jitter(1.0), "jitter"),
        (ClusterBuilder::new(ClusterScenario { devices: 1 << 16, ..scen("LL") }), "devices"),
    ] {
        for fidelity in [Fidelity::Fast, Fidelity::Detailed] {
            let err = builder.clone().fidelity(fidelity).run().unwrap_err();
            assert!(
                matches!(&err, BenchError::FleetKnob { knob, .. } if *knob == name),
                "{name}: {err:?}"
            );
            let msg = err.to_string();
            assert!(msg.contains(name), "{msg}");
            // Each message states its own knob's bound and no other's.
            for (knob, bound) in bounds {
                assert_eq!(msg.contains(bound), knob == name, "{name}: {msg}");
            }
        }
    }
    // The edges of the valid ranges still run.
    ClusterBuilder::new(scen("LL")).slots(1).jitter(0.0).run().unwrap();
    ClusterBuilder::new(scen("LL")).jitter(0.999).run().unwrap();
}

/// The booking-fate boundary: a booking completing exactly at its
/// device's next crash instant survives the crash; one completing a
/// cycle after it is lost to the crash and retried.
#[test]
fn booking_fate_boundary_is_the_crash_instant() {
    let s = ClusterScenario::new("RR", Benchmark::Stem, ArrivalRate::Low, 1, 1, 3);
    let (job, service) = whole_stream(&s)[0];
    // Room for the retry to pass the laxity gate after a full service.
    assert!(service.as_cycles() * 2 < s.bench.deadline().as_cycles());
    let completion = job.at + service;
    let run = |at: Cycle| {
        let crash = DeviceCrash { device: 0, at, until: completion + Duration::from_cycles(1) };
        ClusterBuilder::new(s.clone())
            .jitter(0.0)
            .retry_backoff(Duration::from_cycles(1))
            .fleet_faults(FleetFaultPlan { crashes: vec![crash], ..FleetFaultPlan::none() })
            .run()
            .unwrap()
    };
    let on_time = run(completion);
    assert_eq!((on_time.completed, on_time.met, on_time.retried, on_time.lost), (1, 1, 0, 0));
    let late = run(Cycle::from_cycles(completion.as_cycles() - 1));
    assert_eq!((late.completed, late.retried, late.lost), (1, 1, 0));
    assert_eq!(late.per_device_jobs, vec![2], "the lost booking and its retry");
    assert!(late.latency_us.max() > on_time.latency_us.max());
}

/// A crash window over the middle of the stream on the first `devices`
/// devices. Spans derive from the actual arrival stream so losses are
/// guaranteed, not luck.
fn mid_stream_crash(s: &ClusterScenario, devices: u32) -> FleetFaultPlan {
    let span = last_arrival(s).as_cycles();
    let (at, until) = (Cycle::from_cycles(span / 4), Cycle::from_cycles(span / 2));
    let crashes = (0..devices).map(|device| DeviceCrash { device, at, until }).collect();
    FleetFaultPlan { crashes, ..FleetFaultPlan::none() }
}

#[test]
fn crashes_conserve_jobs_and_retries_recover_work() {
    let s = scen("RR");
    let plan = mid_stream_crash(&s, 2);
    let r = ClusterBuilder::new(s.clone()).fleet_faults(plan.clone()).run().unwrap();
    assert_eq!(
        r.completed + r.rejected + r.shed + r.lost,
        r.total,
        "every job must be completed, rejected, shed or lost"
    );
    assert_eq!(r.latency_us.len() as u64, r.completed);
    assert!(r.retried > 0, "crash-lost jobs must re-enter the front door");
    assert!(r.met < r.total, "losing half the fleet mid-stream must cost deadlines");

    // Retry disabled: the same crashes turn recoveries into losses.
    let no_retry = ClusterBuilder::new(s).fleet_faults(plan).retry_budget(0).run().unwrap();
    assert_eq!(no_retry.retried, 0);
    assert!(no_retry.lost > 0, "with no retry budget, crash-lost jobs stay lost");
    assert_eq!(
        no_retry.completed + no_retry.rejected + no_retry.shed + no_retry.lost,
        no_retry.total
    );
    assert!(no_retry.completed < r.completed, "retries must recover real work");
}

#[test]
fn chaos_runs_are_bit_identical_across_worker_counts() {
    for policy in routing::names() {
        let s = scen(policy).with_fault_milli(1500);
        let one = ClusterBuilder::new(s.clone()).workers(1).run().unwrap();
        let eight = ClusterBuilder::new(s).workers(8).run().unwrap();
        assert_eq!(one, eight, "{policy}: chaos reports must not depend on worker count");
    }
}

#[derive(Default)]
struct ChaosCounter {
    down: u64,
    crashed: u64,
    restored: u64,
    retried: u64,
    shed: u64,
    rejected: u64,
}

impl Observer<ProbeEvent> for ChaosCounter {
    fn on_event(&mut self, _at: Cycle, event: &ProbeEvent) {
        match event {
            ProbeEvent::DeviceDown { crashed, .. } => {
                self.down += 1;
                self.crashed += u64::from(*crashed);
            }
            ProbeEvent::DeviceRestored { .. } => self.restored += 1,
            ProbeEvent::JobRetried { .. } => self.retried += 1,
            ProbeEvent::JobShed { .. } => self.shed += 1,
            ProbeEvent::JobRejected { .. } => self.rejected += 1,
            _ => {}
        }
    }
}

#[test]
fn chaos_probes_cover_failure_events_and_do_not_perturb() {
    let s = scen("LL");
    let plan = mid_stream_crash(&s, 2);
    let plain = ClusterBuilder::new(s.clone()).fleet_faults(plan.clone()).run().unwrap();
    let counter = Arc::new(Mutex::new(ChaosCounter::default()));
    let observed =
        ClusterBuilder::new(s).fleet_faults(plan).observe(counter.clone()).run().unwrap();
    assert_eq!(plain, observed, "observers must not perturb the chaos report");
    let c = counter.lock().unwrap();
    assert_eq!(c.down, 2, "both crash windows must be announced");
    assert_eq!(c.crashed, 2);
    assert_eq!(c.restored, 2, "both devices must return to rotation");
    assert_eq!(c.retried, observed.retried);
    assert_eq!(c.shed, observed.shed);
    assert_eq!(c.rejected, observed.rejected);
}

/// RR never rejects, so under a 3-of-4-devices-down window with one
/// slot each, shedding is the only pressure valve — and it must fire
/// only when enabled.
#[test]
fn shedding_under_degraded_capacity_is_opt_in() {
    let s = ClusterScenario::new("RR", Benchmark::Hybrid, ArrivalRate::High, 4, 2000, 7);
    let span = last_arrival(&s);
    let at = Cycle::from_cycles(span.as_cycles() / 8);
    let until = Cycle::from_cycles(span.as_cycles() * 7 / 8);
    let plan = FleetFaultPlan {
        outages: vec![CorrelatedOutage { first: 1, count: 3, at, until }],
        ..FleetFaultPlan::none()
    };
    let build = |shed| {
        ClusterBuilder::new(s.clone())
            .slots(1)
            .fleet_faults(plan.clone())
            .shed_degraded(shed)
            .run()
            .unwrap()
    };
    let keep = build(false);
    assert_eq!(keep.shed, 0);
    let shedding = build(true);
    assert!(shedding.shed > 0, "an overloaded survivor must shed hopeless jobs");
    assert_eq!(
        shedding.completed + shedding.rejected + shedding.shed + shedding.lost,
        shedding.total
    );
}

#[test]
fn detailed_chaos_conserves_jobs_across_both_phases() {
    let s = ClusterScenario::new("LOW", Benchmark::Ipv6, ArrivalRate::Low, 2, 24, 3);
    let plan = mid_stream_crash(&s, 1);
    let r = ClusterBuilder::new(s).fidelity(Fidelity::Detailed).fleet_faults(plan).run().unwrap();
    assert_eq!(r.fidelity, Fidelity::Detailed);
    assert_eq!(
        r.completed + r.rejected + r.device_rejected + r.shed + r.lost,
        r.total,
        "phase-2 simulations must account for every surviving booking"
    );
    assert_eq!(r.latency_us.len() as u64, r.completed);
    assert!(r.completed > 0);
}

#[test]
fn chaos_table_reports_failure_columns() {
    let s = scen("RR");
    let plan = mid_stream_crash(&s, 2);
    let r = ClusterBuilder::new(s.clone()).fleet_faults(plan).run().unwrap();
    let text = chaos_table(&[r]).render();
    for needle in ["shed", "lost", "retried", "attain", "RR", "HYBRID:high"] {
        assert!(text.contains(needle), "table must mention {needle}:\n{text}");
    }
    // The intensity column reflects the scenario, not the override.
    let seeded = ClusterBuilder::new(s.with_fault_milli(1500)).run().unwrap();
    assert!(chaos_table(&[seeded]).render().contains("1.5"));
}

/// Checks every conservation identity [`MissBreakdown`] documents
/// against the report's own counters.
fn assert_attribution_conserves(r: &ClusterReport) {
    let m = &r.misses;
    assert_eq!(m.count(MissCause::FrontDoorReject), r.rejected, "front-door identity");
    assert_eq!(m.count(MissCause::DeviceReject), r.device_rejected, "device-reject identity");
    assert_eq!(
        m.count(MissCause::QueueingDelay) + m.count(MissCause::ServiceTime),
        r.completed - r.met,
        "every late completion splits into queueing vs service"
    );
    assert_eq!(
        m.count(MissCause::CrashLoss) + m.count(MissCause::RetryExhausted),
        r.lost,
        "every final loss is a crash loss or a retry exhaustion"
    );
    assert_eq!(m.count(MissCause::Shed), r.shed, "shed identity");
    assert_eq!(m.total(), r.total - r.met, "exactly one cause per non-met job");
}

#[test]
fn miss_attribution_conserves_exactly_in_fast_tier() {
    for policy in routing::names() {
        let plain = ClusterBuilder::new(scen(policy)).run().unwrap();
        assert_attribution_conserves(&plain);
        let chaos = ClusterBuilder::new(scen(policy).with_fault_milli(1500))
            .retry_budget(1)
            .shed_degraded(true)
            .run()
            .unwrap();
        assert_attribution_conserves(&chaos);
        assert!(
            chaos.misses.total() > 0,
            "{policy}: heavy faults at the high rate must cost deadlines"
        );
    }
}

#[test]
fn miss_attribution_conserves_exactly_in_detailed_tier() {
    let plain = ClusterBuilder::new(ClusterScenario::new(
        "LL",
        Benchmark::Ipv6,
        ArrivalRate::High,
        2,
        24,
        3,
    ))
    .fidelity(Fidelity::Detailed)
    .run()
    .unwrap();
    assert_attribution_conserves(&plain);
    let s = ClusterScenario::new("LOW", Benchmark::Ipv6, ArrivalRate::Low, 2, 24, 3);
    let jobs = whole_stream(&s);
    let span = jobs.last().unwrap().0.at;
    let plan = FleetFaultPlan {
        crashes: vec![DeviceCrash {
            device: 0,
            at: Cycle::from_cycles(span.as_cycles() / 4),
            until: Cycle::from_cycles(span.as_cycles() / 2),
        }],
        ..FleetFaultPlan::none()
    };
    let chaos =
        ClusterBuilder::new(s).fidelity(Fidelity::Detailed).fleet_faults(plan).run().unwrap();
    assert_attribution_conserves(&chaos);
}

/// Counts outcome events and checks the post-merge stream's ordering
/// contract (completion timestamps non-decreasing).
#[derive(Default)]
struct OutcomeAudit {
    completed: u64,
    met: u64,
    misses: MissBreakdown,
    prev_completion: Option<Cycle>,
    unsorted: bool,
}

impl Observer<ProbeEvent> for OutcomeAudit {
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
        match event {
            ProbeEvent::JobCompleted { met, .. } => {
                self.completed += 1;
                self.met += u64::from(*met);
                if self.prev_completion.is_some_and(|prev| at < prev) {
                    self.unsorted = true;
                }
                self.prev_completion = Some(at);
            }
            ProbeEvent::JobMissed { cause, .. } => self.misses.add(*cause),
            _ => {}
        }
    }
}

#[test]
fn fleet_observers_never_perturb_and_outcome_events_reconcile() {
    for policy in routing::names() {
        for fault in [0, 1500] {
            let s = scen(policy).with_fault_milli(fault);
            let build = || ClusterBuilder::new(s.clone()).retry_budget(1).shed_degraded(true);
            let bare = build().workers(1).run().unwrap();
            let sampler = Arc::new(Mutex::new(FleetSampler::new()));
            let tracer = Arc::new(Mutex::new(FleetTraceWriter::new()));
            let audit = Arc::new(Mutex::new(OutcomeAudit::default()));
            let observed = build()
                .workers(8)
                .observe(sampler.clone())
                .observe(tracer.clone())
                .observe(audit.clone())
                .run()
                .unwrap();
            assert_eq!(
                bare, observed,
                "{policy}/f{fault}: observers and worker count must not change the report"
            );
            let a = audit.lock().unwrap();
            assert!(!a.unsorted, "{policy}/f{fault}: completions must arrive time-sorted");
            assert_eq!(a.completed, observed.completed);
            assert_eq!(a.met, observed.met);
            assert_eq!(
                a.misses, observed.misses,
                "{policy}/f{fault}: probe misses must mirror the report breakdown"
            );
            let sam = sampler.lock().unwrap();
            assert_eq!(sam.misses(), &observed.misses);
            assert!(sam.to_csv().lines().count() > 1);
            sim_core::json::validate(&sam.to_json()).unwrap();
            sim_core::json::validate(&tracer.lock().unwrap().finish()).unwrap();
        }
    }
}

#[test]
fn detailed_chaos_outcome_events_match_both_phases() {
    let s = ClusterScenario::new("LOW", Benchmark::Ipv6, ArrivalRate::Low, 2, 24, 3);
    let plan = mid_stream_crash(&s, 1);
    let build =
        || ClusterBuilder::new(s.clone()).fidelity(Fidelity::Detailed).fleet_faults(plan.clone());
    let bare = build().run().unwrap();
    let audit = Arc::new(Mutex::new(OutcomeAudit::default()));
    let observed = build().observe(audit.clone()).run().unwrap();
    assert_eq!(bare, observed, "detailed-tier observers must not perturb either phase");
    let a = audit.lock().unwrap();
    assert_eq!(a.completed, observed.completed, "one JobCompleted per phase-2 completion");
    assert_eq!(a.misses, observed.misses);
}

/// An outcome event's `(instant, job, kind)` key: each completion (kind
/// 0) and each miss settled after routing (kind 1). Front-door rejections
/// and sheds are live verdicts, not outcomes.
fn outcome_key(at: Cycle, event: &ProbeEvent) -> Option<(Cycle, u32, u8)> {
    match event {
        ProbeEvent::JobCompleted { job, .. } => Some((at, job.0, 0)),
        ProbeEvent::JobMissed { cause: MissCause::FrontDoorReject | MissCause::Shed, .. } => None,
        ProbeEvent::JobMissed { job, .. } => Some((at, job.0, 1)),
        _ => None,
    }
}

/// Records the key of every outcome event an observer sees.
#[derive(Default)]
struct OutcomeKeys(Vec<(Cycle, u32, u8)>);

impl Observer<ProbeEvent> for OutcomeKeys {
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
        self.0.extend(outcome_key(at, event));
    }
}

/// The outcome stream is sorted by instant, then job id, and a late job's
/// completion comes just before its miss, at both tiers and under faults.
#[test]
fn outcome_events_sort_by_instant_then_job_with_completion_first() {
    let detailed = ClusterScenario::new("LL", Benchmark::Ipv6, ArrivalRate::High, 2, 24, 3);
    for (s, fidelity) in [
        (scen("RR"), Fidelity::Fast),
        (scen("LL").with_fault_milli(1500), Fidelity::Fast),
        (detailed, Fidelity::Detailed),
    ] {
        let keys = Arc::new(Mutex::new(OutcomeKeys::default()));
        let builder = ClusterBuilder::new(s.clone()).fidelity(fidelity);
        let r = builder.observe(keys.clone()).run().unwrap();
        let keys = &keys.lock().unwrap().0;
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{s}: outcome events out of order");
        let late = keys.windows(2).filter(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1)).count();
        assert_eq!(late as u64, r.completed - r.met, "{s}: one miss after each late completion");
    }
    assert!(ClusterBuilder::new(scen("RR")).run().unwrap().met < 400, "RR must complete late");
}

/// A cell's whole probe stream, run with two retries per job and
/// shedding on.
fn narrated(s: &ClusterScenario, fidelity: Fidelity) -> (ClusterReport, Vec<(Cycle, ProbeEvent)>) {
    let log = Arc::new(Mutex::new(EventLog::default()));
    let builder = ClusterBuilder::new(s.clone()).fidelity(fidelity).retry_budget(2);
    let report = builder.shed_degraded(true).observe(log.clone()).run().unwrap();
    let events = std::mem::take(&mut log.lock().unwrap().0);
    (report, events)
}

/// Observers hear one stream in time order at both tiers: crash retries
/// and sheds, routing verdicts and outcomes interleave by instant.
#[test]
fn observers_hear_every_fleet_event_in_time_order() {
    let detailed = ClusterScenario::new("LL", Benchmark::Hybrid, ArrivalRate::High, 2, 12, 3)
        .with_fault_milli(2000);
    for (s, fidelity) in [
        (scen("LL").with_fault_milli(1500), Fidelity::Fast),
        (scen("RR").with_fault_milli(2000), Fidelity::Fast),
        (detailed, Fidelity::Detailed),
    ] {
        let (r, events) = narrated(&s, fidelity);
        assert!(r.retried > 0 && r.shed > 0, "{s}: the cell must retry and shed");
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0), "{s}: events out of time order");
        let first_outcome = events.iter().position(|(at, e)| outcome_key(*at, e).is_some());
        let last_live = events.iter().rposition(|(at, e)| outcome_key(*at, e).is_none());
        assert!(first_outcome < last_live, "{s}: outcomes must interleave with live verdicts");
    }
}

/// Ordering the stream once in the engine keeps each half of it as it
/// was: live verdicts in engine order, and outcomes sorted by instant,
/// then job, then completion before miss. A test-side reference buffers
/// each half and sorts it, which must change nothing; the digests pin both
/// halves to those the engine narrated when it sorted its buffered
/// outcomes after the run, ties between retried jobs included.
#[test]
fn live_and_outcome_subsequences_match_their_sorted_references() {
    for (cell, fidelity, live_digest, outcome_digest) in [
        (
            "RR:HYBRID:high:d4:j2000:s7",
            Fidelity::Fast,
            0xecad_8390_3bf4_b8b2,
            0x5402_c1bc_5d76_b53e,
        ),
        (
            "RR:HYBRID:high:d4:j2000:s7:f1",
            Fidelity::Fast,
            0xd64a_125c_3cbb_5c2b,
            0x8ec8_d462_8272_cd78,
        ),
        (
            "RR:HYBRID:high:d4:j2000:s7:f2",
            Fidelity::Fast,
            0xb118_6bb0_042e_25c0,
            0x9749_bafc_e07e_726e,
        ),
        (
            "LL:HYBRID:high:d4:j2000:s7",
            Fidelity::Fast,
            0x1ad1_bea2_af57_b9dc,
            0xb5a6_6da8_31de_6d1a,
        ),
        (
            "LL:HYBRID:high:d4:j2000:s7:f1",
            Fidelity::Fast,
            0x1363_2480_dd78_d12d,
            0x9099_c6a3_9f1b_e65c,
        ),
        (
            "LL:HYBRID:high:d4:j2000:s7:f2",
            Fidelity::Fast,
            0xc32e_96c9_0e37_09f6,
            0xe437_6258_fc8d_6849,
        ),
        (
            "LL:IPV6:high:d2:j24:s3:f1",
            Fidelity::Detailed,
            0x8972_7789_9cb8_15bc,
            0x5ba4_4f4a_eed8_2ed5,
        ),
    ] {
        let (_, events) = narrated(&cell.parse().unwrap(), fidelity);
        let (outcomes, live): (Vec<_>, Vec<_>) =
            events.into_iter().partition(|(at, e)| outcome_key(*at, e).is_some());
        let mut reference = live.clone();
        reference.sort_by_key(|&(at, _)| at);
        assert!(live == reference, "{cell}: live verdicts out of engine order");
        let mut reference = outcomes.clone();
        reference.sort_by_key(|(at, e)| outcome_key(*at, e));
        assert!(outcomes == reference, "{cell}: outcomes out of (instant, job, kind) order");
        let digest = |events: &[(Cycle, ProbeEvent)]| {
            let mut h = Fnv1a::new();
            for (at, e) in events {
                h.eat(format!("{at:?} {e:?}\n").as_bytes());
            }
            h.finish()
        };
        assert_eq!(digest(&live), live_digest, "{cell}: live verdicts changed");
        assert_eq!(digest(&outcomes), outcome_digest, "{cell}: outcomes changed");
    }
}

/// The telemetry series of tier-1's fleet trace cell, pinned bit for bit:
/// rows closed as the ordered stream passes each window render exactly as
/// the series did when every window stayed open until the run ended.
#[test]
fn fleet_trace_cell_series_match_their_golden_digests() {
    let s: ClusterScenario = "LL:HYBRID:high:d4:j2000:s7:f1".parse().unwrap();
    let sampler = Arc::new(Mutex::new(FleetSampler::new().with_devices(4)));
    let builder = ClusterBuilder::new(s).retry_budget(2).shed_degraded(true);
    builder.observe(sampler.clone()).run().unwrap();
    let sampler = sampler.lock().unwrap();
    let digest = |doc: String| {
        let mut h = Fnv1a::new();
        h.eat(doc.as_bytes());
        (doc.len(), h.finish())
    };
    assert_eq!(digest(sampler.to_csv()), (52064, 0x27df_4831_f788_c98a), "CSV");
    assert_eq!(digest(sampler.to_json()), (210_368, 0x9807_2258_4aa8_99f5), "series JSON");
}

/// Each job's first fate event, by job id: a device's `JobResolved`, or a
/// fleet's outcome events read as a [`JobFate`] (a late completion's miss
/// follows its completion, which is kept).
#[derive(Default)]
struct Fates(BTreeMap<u32, JobFate>);

impl Observer<ProbeEvent> for Fates {
    fn on_event(&mut self, at: Cycle, event: &ProbeEvent) {
        let (job, fate) = match *event {
            ProbeEvent::JobResolved { job, fate } => (job, fate),
            ProbeEvent::JobCompleted { job, .. } => (job, JobFate::Completed(at)),
            ProbeEvent::JobMissed { job, cause: MissCause::DeviceReject, .. } => {
                (job, JobFate::Rejected(at))
            }
            ProbeEvent::JobMissed { job, .. } => (job, JobFate::Aborted(at)),
            _ => return,
        };
        self.0.entry(job.0).or_insert(fate);
    }
}

/// The `d1` oracle. A fault-free one-device detailed cell under RR routing
/// hands every job to its device at its arrival, with its deadline, so it
/// must run exactly what the device path runs on the same stream,
/// collected: the same per-job fates, heard through an observer on each
/// side, and the same met, device-rejected, makespan and event counts.
/// Checked for a device scheduler without and with admission control, on
/// a chain and a DAG benchmark.
#[test]
fn one_device_detailed_cell_runs_like_the_device_path() {
    let suite = BenchmarkSuite::calibrated();
    // A few jobs that overlap on the device, the cells side by side: in the
    // debug profile the detailed tier costs about a second per job.
    let cells: Vec<(Benchmark, usize, &str)> = [(Benchmark::Hybrid, 3), (Benchmark::FanOut, 2)]
        .into_iter()
        .flat_map(|(bench, n)| ["RR", "LAX"].map(|scheduler| (bench, n, scheduler)))
        .collect();
    sim_core::par::par_map(&cells, cells.len(), |&(bench, n, scheduler)| {
        let s = ClusterScenario::new("RR", bench, ArrivalRate::High, 1, n, 5);
        let cell = format!("{s} on {scheduler}");
        let fleet_fates = Arc::new(Mutex::new(Fates::default()));
        let fleet = ClusterBuilder::new(s.clone())
            .fidelity(Fidelity::Detailed)
            .device_scheduler(scheduler)
            .observe(fleet_fates.clone())
            .run()
            .unwrap();
        let device_fates = Arc::new(Mutex::new(Fates::default()));
        let jobs = arrivals(&s).into_jobs(suite, bench.deadline()).unwrap();
        let observers = [device_fates.clone() as SharedObserver];
        let device = device_simulation(suite, jobs, scheduler, FaultPlan::none(), &observers)
            .unwrap()
            .try_run()
            .unwrap();
        let fates = &fleet_fates.lock().unwrap().0;
        assert_eq!(fates.len(), n, "{cell}: every job has a fate");
        assert_eq!(fates, &device_fates.lock().unwrap().0, "{cell}");
        assert!(fleet.met > 0, "{cell}: a cell that meets nothing checks little");
        let met = device.deadlines_met() as u64;
        assert_eq!(
            (fleet.met, fleet.device_rejected, fleet.makespan, fleet.events),
            (met, device.rejected() as u64, device.makespan, device.events),
            "{cell}"
        );
    });
}
