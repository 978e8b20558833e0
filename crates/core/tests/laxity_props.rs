//! Property-based tests of the laxity/priority algebra (Algorithm 2) and
//! the admission rule (Algorithm 1).
//!
//! Cases are sampled from a seeded [`SimRng`] (the registry is offline, so
//! no proptest): every run draws the same inputs, keeping failures exactly
//! reproducible — rerun with the printed case index to debug.

use lax::admission::AdmissionEstimate;
use lax::laxity::{us_to_prio, LaxityEstimate, PRIO_INF};
use sim_core::rng::SimRng;

const CASES: usize = 512;

/// Uniform draw in `[lo, hi)`.
fn uniform(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    lo + rng.uniform_f64() * (hi - lo)
}

fn estimate(rng: &mut SimRng) -> LaxityEstimate {
    LaxityEstimate {
        remaining_us: uniform(rng, 0.0, 10_000.0),
        duration_us: uniform(rng, 0.0, 10_000.0),
        deadline_us: uniform(rng, 1.0, 10_000.0),
    }
}

/// Priorities always land in [0, PRIO_INF].
#[test]
fn priority_is_bounded() {
    let mut rng = SimRng::seed_from(0x1a71);
    for case in 0..CASES {
        let e = estimate(&mut rng);
        let p = e.priority();
        assert!((0..=PRIO_INF).contains(&p), "case {case}: {e:?} -> {p}");
    }
}

/// Among jobs that will make their deadline, smaller laxity never gets
/// a lower priority rank (lower value = runs earlier).
#[test]
fn tighter_laxity_never_ranks_lower() {
    let mut rng = SimRng::seed_from(0x1a72);
    for case in 0..CASES {
        let e = LaxityEstimate {
            remaining_us: uniform(&mut rng, 0.0, 1_000.0),
            duration_us: uniform(&mut rng, 0.0, 1_000.0),
            deadline_us: uniform(&mut rng, 3_000.0, 10_000.0),
        };
        let extra = uniform(&mut rng, 0.0, 500.0);
        let tighter = LaxityEstimate { remaining_us: e.remaining_us + extra, ..e };
        assert!(
            e.laxity_us() > 0.0 && tighter.laxity_us() > 0.0,
            "case {case}: constructed with slack"
        );
        assert!(
            tighter.priority() <= e.priority(),
            "case {case}: more remaining work => less laxity => must not rank lower"
        );
    }
}

/// Among jobs with the SAME deadline (the paper's homogeneous-job
/// setting), a predicted miss never outranks a predicted hit. This is
/// Algorithm 2's line-14 guarantee: the miss's completion time exceeds
/// the shared deadline, which bounds every positive laxity. (It does
/// NOT hold across very different deadlines - a known limitation of
/// mixing laxities and completion times on one scale.)
#[test]
fn predicted_misses_rank_below_predicted_hits() {
    let mut rng = SimRng::seed_from(0x1a73);
    let mut checked = 0;
    for case in 0..CASES {
        let deadline = uniform(&mut rng, 1.0, 10_000.0);
        let hit_completion = uniform(&mut rng, 0.0, 10_000.0);
        let miss_remaining = uniform(&mut rng, 0.0, 10_000.0);
        let duration_frac = rng.uniform_f64();
        if hit_completion >= deadline {
            continue; // precondition, as prop_assume! did
        }
        checked += 1;
        let hit = LaxityEstimate {
            remaining_us: hit_completion,
            duration_us: 0.0,
            deadline_us: deadline,
        };
        // Construct a miss: completion beyond the deadline, not yet expired.
        let miss = LaxityEstimate {
            remaining_us: deadline + miss_remaining,
            duration_us: deadline * duration_frac,
            deadline_us: deadline,
        };
        assert!(hit.laxity_us() > 0.0, "case {case}");
        assert!(miss.laxity_us() <= 0.0, "case {case}");
        assert!(miss.priority() >= hit.priority(), "case {case}");
    }
    assert!(checked > CASES / 8, "precondition rejected too many cases");
}

/// Expired jobs (elapsed past the deadline) are parked at infinity.
#[test]
fn expired_jobs_park_at_infinity() {
    let mut rng = SimRng::seed_from(0x1a74);
    let mut checked = 0;
    for case in 0..CASES {
        let e = estimate(&mut rng);
        if e.duration_us <= e.deadline_us {
            continue;
        }
        checked += 1;
        assert_eq!(e.priority(), PRIO_INF, "case {case}: {e:?}");
    }
    assert!(checked > CASES / 8, "precondition rejected too many cases");
}

/// The priority conversion is monotone and saturating.
#[test]
fn prio_conversion_is_monotone() {
    let mut rng = SimRng::seed_from(0x1a75);
    for case in 0..CASES {
        let a = uniform(&mut rng, 0.0, 1e7);
        let b = uniform(&mut rng, 0.0, 1e7);
        if a <= b {
            assert!(us_to_prio(a) <= us_to_prio(b), "case {case}: {a} vs {b}");
        } else {
            assert!(us_to_prio(a) >= us_to_prio(b), "case {case}: {a} vs {b}");
        }
    }
}

/// Admission accepts exactly when the Algorithm 1 inequality holds.
#[test]
fn admission_matches_the_inequality() {
    let mut rng = SimRng::seed_from(0x1a76);
    for case in 0..CASES {
        let queue = uniform(&mut rng, 0.0, 10_000.0);
        let hold = uniform(&mut rng, 0.0, 10_000.0);
        let age = uniform(&mut rng, 0.0, 10_000.0);
        let deadline = uniform(&mut rng, 1.0, 10_000.0);
        let e = AdmissionEstimate {
            queue_delay_us: queue,
            hold_us: hold,
            age_us: age,
            deadline_us: deadline,
        };
        assert_eq!(e.accepts(), queue + hold + age < deadline, "case {case}");
    }
}

/// More queued work never turns a rejection into an acceptance.
#[test]
fn admission_is_monotone_in_queue_delay() {
    let mut rng = SimRng::seed_from(0x1a77);
    for case in 0..CASES {
        let queue = uniform(&mut rng, 0.0, 5_000.0);
        let extra = uniform(&mut rng, 0.0, 5_000.0);
        let hold = uniform(&mut rng, 0.0, 5_000.0);
        let deadline = uniform(&mut rng, 1.0, 10_000.0);
        let base = AdmissionEstimate {
            queue_delay_us: queue,
            hold_us: hold,
            age_us: 0.0,
            deadline_us: deadline,
        };
        let worse = AdmissionEstimate { queue_delay_us: queue + extra, ..base };
        assert!(
            !worse.accepts() || base.accepts(),
            "case {case}: more queued work turned a rejection into an acceptance"
        );
    }
}
