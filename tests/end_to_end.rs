//! Cross-crate integration tests: full simulations over calibrated
//! workloads under every scheduler.
//!
//! Job counts are kept small so debug-mode runs stay fast; the headline
//! paper-shape assertions run over the cheapest benchmarks.

use deadline_gpu::quick::simulate;
use gpu_sim::job::JobFate;
use workloads::spec::{ArrivalRate, Benchmark};

#[test]
fn every_scheduler_resolves_every_job() {
    for sched in schedulers::registry::names() {
        let r = simulate(Benchmark::Ipv6, ArrivalRate::Medium, 16, sched, 3);
        assert_eq!(r.records.len(), 16, "{sched}");
        for rec in &r.records {
            assert!(
                !matches!(rec.fate, JobFate::Unfinished),
                "{sched} left job {:?} unresolved",
                rec.id
            );
        }
    }
}

#[test]
fn lax_beats_rr_on_oversubscribed_packet_lookups() {
    let rr = simulate(Benchmark::Ipv6, ArrivalRate::High, 64, "RR", 42);
    let lax = simulate(Benchmark::Ipv6, ArrivalRate::High, 64, "LAX", 42);
    assert!(
        lax.deadlines_met() > rr.deadlines_met(),
        "LAX {} should beat RR {}",
        lax.deadlines_met(),
        rr.deadlines_met()
    );
}

#[test]
fn lax_wastes_less_work_than_rr() {
    let rr = simulate(Benchmark::Stem, ArrivalRate::High, 48, "RR", 9);
    let lax = simulate(Benchmark::Stem, ArrivalRate::High, 48, "LAX", 9);
    assert!(
        lax.useful_wg_fraction() > rr.useful_wg_fraction(),
        "LAX useful {} vs RR {}",
        lax.useful_wg_fraction(),
        rr.useful_wg_fraction()
    );
}

#[test]
fn baymax_cannot_serve_40us_deadlines() {
    // The 50us model call exceeds IPV6's entire deadline (paper Sec 6.1.1).
    let bay = simulate(Benchmark::Ipv6, ArrivalRate::Medium, 16, "BAY", 5);
    assert_eq!(bay.deadlines_met(), 0);
    assert_eq!(bay.rejected(), 16, "admission control sees the infeasibility");
}

#[test]
fn low_rate_is_easier_than_high_rate() {
    for sched in ["RR", "LAX"] {
        let low = simulate(Benchmark::Stem, ArrivalRate::Low, 32, sched, 8);
        let high = simulate(Benchmark::Stem, ArrivalRate::High, 32, sched, 8);
        assert!(
            low.deadlines_met() >= high.deadlines_met(),
            "{sched}: low {} < high {}",
            low.deadlines_met(),
            high.deadlines_met()
        );
    }
}

#[test]
fn rejected_jobs_never_execute_work() {
    let r = simulate(Benchmark::Ipv6, ArrivalRate::High, 48, "LAX", 13);
    for rec in &r.records {
        if matches!(rec.fate, JobFate::Rejected(_)) {
            assert_eq!(rec.wgs_executed, 0.0, "rejected job {:?} ran WGs", rec.id);
        }
    }
    assert!(r.rejected() > 0, "high-rate IPV6 must trigger admission control");
}

#[test]
fn completion_times_are_deterministic_across_runs() {
    let a = simulate(Benchmark::Gru, ArrivalRate::Medium, 12, "LAX", 77);
    let b = simulate(Benchmark::Gru, ArrivalRate::Medium, 12, "LAX", 77);
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.fate.completed_at(), y.fate.completed_at());
        assert_eq!(x.wgs_executed, y.wgs_executed);
    }
    assert_eq!(a.energy_mj, b.energy_mj);
    assert_eq!(a.total_wgs, b.total_wgs);
}

#[test]
fn host_side_lax_variants_preserve_the_paper_ordering() {
    // Figure 8: LAX >= LAX-CPU >= LAX-SW (within noise; assert the ends).
    let sw = simulate(Benchmark::Cuckoo, ArrivalRate::High, 48, "LAX-SW", 21);
    let cp = simulate(Benchmark::Cuckoo, ArrivalRate::High, 48, "LAX", 21);
    assert!(
        cp.deadlines_met() >= sw.deadlines_met(),
        "CP-integrated LAX ({}) must be at least as good as LAX-SW ({})",
        cp.deadlines_met(),
        sw.deadlines_met()
    );
}

#[test]
fn batching_scheduler_runs_rnn_chains_in_lockstep() {
    let bat = simulate(Benchmark::Gru, ArrivalRate::Low, 8, "BAT", 31);
    assert_eq!(bat.completed(), 8, "all low-rate GRU jobs complete under BAT");
    // Lock-step batches attribute fractional WGs to members.
    let frac = bat.records.iter().any(|r| r.wgs_executed.fract() != 0.0);
    assert!(frac, "batched execution splits WGs across members");
}

#[test]
fn energy_accounting_is_consistent() {
    let r = simulate(Benchmark::Gmm, ArrivalRate::Low, 8, "RR", 15);
    assert!(r.energy_mj > 0.0);
    assert!(r.l2_hit_rate >= 0.0 && r.l2_hit_rate <= 1.0);
    assert!(r.total_wgs >= 8, "each GMM job has at least one WG");
}

#[test]
fn hybrid_mixes_two_rnn_flavors() {
    let r = simulate(Benchmark::Hybrid, ArrivalRate::Low, 6, "RR", 2);
    let benches: std::collections::BTreeSet<String> =
        r.records.iter().map(|rec| rec.bench.to_string()).collect();
    assert!(benches.contains("HYBRID/LSTM128"));
    assert!(benches.contains("HYBRID/GRU256"));
}

#[test]
fn lax_drop_reclaims_work_from_expired_jobs() {
    use gpu_sim::prelude::*;
    use lax::ext::LaxDrop;
    use lax::lax::{Lax, LaxConfig};
    use workloads::suite::BenchmarkSuite;

    // Disable admission in both so that expired jobs exist; the only
    // difference is whether they are dropped mid-flight.
    let no_admit = LaxConfig { admission: false, ..LaxConfig::default() };
    let suite = BenchmarkSuite::calibrated();
    let run = |mode: SchedulerMode| {
        let jobs = suite.generate_jobs(Benchmark::Stem, ArrivalRate::High, 48, 9);
        Simulation::builder()
            .offline_rates(suite.offline_rates())
            .jobs(jobs)
            .scheduler(mode)
            .build()
            .unwrap()
            .run()
    };
    let plain = run(SchedulerMode::Cp(Box::new(Lax::with_config(no_admit.clone()))));
    let drop = run(SchedulerMode::Cp(Box::new(LaxDrop::with_config(no_admit))));
    let aborted = drop.records.iter().filter(|r| matches!(r.fate, JobFate::Aborted(_))).count();
    assert!(aborted > 0, "oversubscribed STEM must trigger drops");
    assert!(
        drop.total_wgs < plain.total_wgs,
        "dropping must save work: {} vs {}",
        drop.total_wgs,
        plain.total_wgs
    );
    assert!(
        drop.deadlines_met() >= plain.deadlines_met(),
        "reclaimed capacity should not hurt on-time completions: {} vs {}",
        drop.deadlines_met(),
        plain.deadlines_met()
    );
}
