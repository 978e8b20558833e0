//! Property test for the analytic memory-interval fast path: for random
//! compute profiles, seeds, and fault (DRAM-throttle) windows, the batched
//! [`MemoryHierarchy::access_run`] and the per-access reference
//! [`MemoryHierarchy::access_bundle`] must produce identical
//! `(completion_time, mix, energy_bits, counters)` tuples at **every**
//! access prefix — not just at the end of a run, so a transient divergence
//! that later cancels out is still caught.
//!
//! This is the unit-level face of the bit-identity contract; the
//! system-level face is `observers_do_not_perturb_cell_reports` in
//! lax-bench (observers force the reference path, so that test compares
//! whole `SimReport`s across the two paths).

use gpu_sim::config::{EnergyConfig, MemConfig};
use gpu_sim::energy::EnergyMeter;
use gpu_sim::kernel::AccessPattern;
use gpu_sim::memory::{gen_address, MemoryHierarchy};
use sim_core::time::Cycle;

/// SplitMix64, for deterministic test-local randomness.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything observable about a hierarchy after a prefix of accesses.
#[derive(Debug, PartialEq)]
struct Snapshot {
    l1_hit_rate_bits: u64,
    l2_hit_rate_bits: u64,
    dram_accesses: u64,
    dram_busy_cycles: u64,
}

fn snapshot(m: &MemoryHierarchy) -> Snapshot {
    Snapshot {
        l1_hit_rate_bits: m.l1_hit_rate().to_bits(),
        l2_hit_rate_bits: m.l2_hit_rate().to_bits(),
        dram_accesses: m.dram_accesses(),
        dram_busy_cycles: m.dram_busy_cycles(),
    }
}

/// One randomized trial: two hierarchies (reference vs batched) driven
/// with an identical access sequence, compared after every access.
fn run_trial(trial_seed: u64, accesses: usize) {
    let mut rng = trial_seed;
    let cfg = MemConfig::default();
    let num_cus = 1 + (mix(&mut rng) % 8) as u32;
    let mut reference = MemoryHierarchy::new(num_cus, &cfg);
    let mut batched = MemoryHierarchy::new(num_cus, &cfg);
    let mut ref_energy = EnergyMeter::new(EnergyConfig::default());
    let mut bat_energy = EnergyMeter::new(EnergyConfig::default());

    // Random per-trial "profiles": pattern, coalescing width, job seed.
    let job_seed = mix(&mut rng);
    let patterns = [
        AccessPattern::Streaming,
        AccessPattern::SharedRegion { base: 1 << 42, len: 1 << 18 },
        AccessPattern::RandomWithin { len: 1 << 20 },
    ];

    // A random fault window: a DRAM throttle raised partway through the
    // trial and dropped again later — the batched path must fast-forward
    // channel clocks identically under a scaled service time.
    let fault_on = mix(&mut rng) as usize % accesses;
    let fault_off = fault_on + (mix(&mut rng) as usize % (accesses - fault_on));
    let fault_scale = 1.0 + (mix(&mut rng) % 300) as f64 / 100.0;

    let mut now = Cycle::ZERO;
    for i in 0..accesses {
        if i == fault_on {
            reference.set_dram_scale(fault_scale);
            batched.set_dram_scale(fault_scale);
        }
        if i == fault_off {
            reference.set_dram_scale(1.0);
            batched.set_dram_scale(1.0);
        }
        let pattern = patterns[(mix(&mut rng) % 3) as usize];
        let lines = 1 + (mix(&mut rng) % 8) as u32;
        let cu = (mix(&mut rng) % num_cus as u64) as usize;
        let wave_seq = (mix(&mut rng) % 64) as u32;
        let addr = gen_address(pattern, job_seed, wave_seq, i as u32, lines, cfg.line_bytes);
        now += sim_core::time::Duration::from_cycles(mix(&mut rng) % 500);

        let (ref_done, ref_mix) = reference.access_bundle(cu, addr, lines, now);
        let (bat_done, bat_mix) = batched.access_run(cu, addr, lines, now);
        ref_energy.add_memory(ref_mix);
        bat_energy.add_memory(bat_mix);

        // The full prefix tuple: completion time, mix, energy bits, and
        // every observable counter must agree access-by-access.
        assert_eq!(ref_done, bat_done, "completion diverged (trial {trial_seed}, access {i})");
        assert_eq!(ref_mix, bat_mix, "mix diverged (trial {trial_seed}, access {i})");
        assert_eq!(
            ref_energy.dynamic_mj().to_bits(),
            bat_energy.dynamic_mj().to_bits(),
            "energy bits diverged (trial {trial_seed}, access {i})"
        );
        assert_eq!(
            snapshot(&reference),
            snapshot(&batched),
            "counters diverged (trial {trial_seed}, access {i})"
        );
    }
}

#[test]
fn batched_path_is_bit_identical_at_every_prefix() {
    for trial in 0..32u64 {
        run_trial(0xBEEF_0000 + trial, 400);
    }
}

/// Wide bundles beyond the analytic window must fall back to (and exactly
/// match) the reference walk, including ones larger than the L1 set count.
#[test]
fn oversized_bundles_fall_back_to_reference() {
    let cfg = MemConfig::default();
    let mut reference = MemoryHierarchy::new(1, &cfg);
    let mut batched = MemoryHierarchy::new(1, &cfg);
    let mut rng = 0xFEED_u64;
    let mut now = Cycle::ZERO;
    for i in 0..64u32 {
        let lines = 30 + (mix(&mut rng) % 80) as u32; // straddles every gate
        let addr = (mix(&mut rng) % (1 << 22)) & !63;
        now += sim_core::time::Duration::from_cycles(100);
        let r = reference.access_bundle(0, addr, lines, now);
        let b = batched.access_run(0, addr, lines, now);
        assert_eq!(r, b, "oversized bundle diverged at access {i}");
    }
}
