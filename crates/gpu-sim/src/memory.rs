//! Memory hierarchy: per-CU L1 caches, one shared L2, multi-channel DRAM,
//! plus deterministic synthetic address generation for the three access
//! patterns kernels declare.

use sim_core::time::{Cycle, Duration};

use crate::cache::{ProbeResult, SetAssocCache};
use crate::config::MemConfig;
use crate::dram::Dram;
use crate::kernel::AccessPattern;

/// Where a request was satisfied (for latency + energy accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServicedBy {
    /// L1 hit.
    L1,
    /// L1 miss, L2 hit.
    L2,
    /// Missed both caches.
    Dram,
}

/// Counts of accesses serviced at each level, for a whole request bundle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessMix {
    /// Lines that hit in L1.
    pub l1: u64,
    /// Lines that hit in L2.
    pub l2: u64,
    /// Lines that went to DRAM.
    pub dram: u64,
}

/// The full memory system.
#[derive(Debug)]
pub struct MemoryHierarchy {
    l1s: Vec<SetAssocCache>,
    l2: SetAssocCache,
    dram: Dram,
    cfg: MemConfig,
}

impl MemoryHierarchy {
    /// Builds the hierarchy for `num_cus` compute units.
    ///
    /// # Panics
    ///
    /// Panics if the cache geometry in `cfg` is invalid (checked earlier by
    /// [`crate::config::GpuConfig::validate`]).
    pub fn new(num_cus: u32, cfg: &MemConfig) -> Self {
        MemoryHierarchy {
            l1s: (0..num_cus)
                .map(|_| SetAssocCache::new(cfg.l1_bytes, cfg.l1_ways, cfg.line_bytes))
                .collect(),
            l2: SetAssocCache::new(cfg.l2_bytes, cfg.l2_ways, cfg.line_bytes),
            dram: Dram::new(cfg.dram_channels, cfg.dram_latency_cycles, cfg.dram_service_cycles),
            cfg: cfg.clone(),
        }
    }

    /// Issues a bundle of `lines` consecutive-line accesses starting at
    /// `base_addr` from CU `cu`, at time `now`.
    ///
    /// Returns the time the *last* line's data is available plus the mix of
    /// levels that serviced the bundle (for energy accounting). The
    /// requesting wavefront blocks until the returned completion time.
    pub fn access_bundle(
        &mut self,
        cu: usize,
        base_addr: u64,
        lines: u32,
        now: Cycle,
    ) -> (Cycle, AccessMix) {
        debug_assert!(lines > 0);
        let mut mix = AccessMix::default();
        let mut done = now + Duration::from_cycles(self.cfg.l1_hit_cycles);
        let l1 = &mut self.l1s[cu];
        for i in 0..lines as u64 {
            let addr = base_addr + i * self.cfg.line_bytes as u64;
            let finish = match l1.probe(addr) {
                ProbeResult::Hit => {
                    mix.l1 += 1;
                    now + Duration::from_cycles(self.cfg.l1_hit_cycles)
                }
                ProbeResult::Miss => match self.l2.probe(addr) {
                    ProbeResult::Hit => {
                        mix.l2 += 1;
                        now + Duration::from_cycles(self.cfg.l1_hit_cycles + self.cfg.l2_hit_cycles)
                    }
                    ProbeResult::Miss => {
                        mix.dram += 1;
                        let base = now
                            + Duration::from_cycles(
                                self.cfg.l1_hit_cycles + self.cfg.l2_hit_cycles,
                            );
                        self.dram.access(addr, base)
                    }
                },
            };
            done = done.max(finish);
        }
        (done, mix)
    }

    /// The analytic fast path for [`MemoryHierarchy::access_bundle`]:
    /// services the whole bundle in three phase-separated passes (L1 probe
    /// run, L2 probe run over the L1 miss mask, one closed-form
    /// [`Dram::access_run`] over the L2 miss mask) instead of `lines`
    /// interleaved per-line hierarchy walks.
    ///
    /// Bit-identical to `access_bundle` whenever the bundle's consecutive
    /// lines touch pairwise-distinct sets in both caches (`lines` at most
    /// the set count of each level): distinct sets make the per-line probes
    /// within one level commutative, L1 and L2 are separate structures so
    /// the cross-level interleave is free, DRAM sees the same ascending
    /// per-channel line order, and the bundle completion is a max over
    /// per-line finishes, which commutes with any reordering. Bundles that
    /// could self-conflict (never with the shipped geometries, which have
    /// 64+ sets against ≤32-line bundles) fall back to the reference walk.
    pub fn access_run(
        &mut self,
        cu: usize,
        base_addr: u64,
        lines: u32,
        now: Cycle,
    ) -> (Cycle, AccessMix) {
        debug_assert!(lines > 0);
        let l1 = &mut self.l1s[cu];
        if lines > 32 || lines as u64 > l1.num_sets() || lines as u64 > self.l2.num_sets() {
            return self.access_bundle(cu, base_addr, lines, now);
        }
        let line_bytes = self.cfg.line_bytes as u64;
        let base_line = base_addr >> self.cfg.line_bytes.trailing_zeros();
        let l1_miss = l1.probe_run(base_line, lines);
        let l1_time = now + Duration::from_cycles(self.cfg.l1_hit_cycles);
        if l1_miss == 0 {
            return (l1_time, AccessMix { l1: lines as u64, l2: 0, dram: 0 });
        }
        let mut dram_mask = 0u32;
        let mut rest = l1_miss;
        while rest != 0 {
            let i = rest.trailing_zeros();
            rest &= rest - 1;
            if !self.l2.probe_line(base_line + i as u64) {
                dram_mask |= 1 << i;
            }
        }
        let mix = AccessMix {
            l1: (lines - l1_miss.count_ones()) as u64,
            l2: (l1_miss.count_ones() - dram_mask.count_ones()) as u64,
            dram: dram_mask.count_ones() as u64,
        };
        let l2_time = l1_time + Duration::from_cycles(self.cfg.l2_hit_cycles);
        if dram_mask == 0 {
            return (l2_time, mix);
        }
        // Every DRAM finish exceeds `l2_time` (it adds at least one service
        // plus the fixed latency), so the bundle max is the DRAM worst line.
        (self.dram.access_run(base_addr, line_bytes, dram_mask, l2_time), mix)
    }

    /// Aggregate L1 hit rate across CUs.
    pub fn l1_hit_rate(&self) -> f64 {
        let (h, m) = self.l1s.iter().fold((0u64, 0u64), |(h, m), c| (h + c.hits(), m + c.misses()));
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// L2 hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        self.l2.hit_rate()
    }

    /// Total DRAM line accesses.
    pub fn dram_accesses(&self) -> u64 {
        self.dram.accesses()
    }

    /// Cumulative DRAM channel-busy cycles (see [`Dram::busy_cycles`]).
    pub fn dram_busy_cycles(&self) -> u64 {
        self.dram.busy_cycles()
    }

    /// Number of DRAM channels.
    pub fn dram_channels(&self) -> usize {
        self.dram.channels()
    }

    /// Sets the fault-injection DRAM bandwidth throttle (see
    /// [`Dram::set_service_scale`]); 1.0 restores nominal bandwidth exactly.
    pub fn set_dram_scale(&mut self, scale: f64) {
        self.dram.set_service_scale(scale);
    }
}

/// The simulated address space: every byte an access touches lies below
/// this limit (2^43, 8 TiB), which is what lets the caches store 32-bit
/// tags (see [`crate::cache`]).
pub const ADDRESS_LIMIT: u64 = 1 << 43;

/// Bytes of the per-job virtual slice streaming and random patterns use.
const JOB_REGION_BYTES: u64 = 1 << 24; // 16 MiB virtual slice per job
/// Start of the per-job slices; the 2^16 of them end at 2^32 + 2^40.
const JOB_SPACE_BASE: u64 = 1 << 32;

/// Exclusive upper bound of every byte an access of `pattern` touches: the
/// end of the pattern's window plus one access's span of
/// `lines_per_access` lines. Saturates instead of overflowing, so an
/// absurd region still compares above [`ADDRESS_LIMIT`].
pub fn access_end(pattern: AccessPattern, lines_per_access: u32, line_bytes: u32) -> u64 {
    let window_end = match pattern {
        AccessPattern::Streaming | AccessPattern::RandomWithin { .. } => {
            JOB_SPACE_BASE + (1 << 16) * JOB_REGION_BYTES
        }
        AccessPattern::SharedRegion { base, len } => base.saturating_add(len),
    };
    window_end.saturating_add(u64::from(lines_per_access) * u64::from(line_bytes))
}

/// Deterministically generates the base address of one access.
///
/// * `job_seed` — distinguishes per-job buffers (use the job id).
/// * `wave_seq` — the wavefront's global index within its kernel.
/// * `access_idx` — which of the wavefront's accesses this is.
///
/// Streaming addresses walk a per-job region; shared-region and random
/// patterns hash the indices into their window, so replays are reproducible.
///
/// The access starting here stays below [`access_end`], whatever the seed
/// and indices: per-job slices end below 2^41, and a shared region ends
/// where it says. So for every kernel [`crate::kernel::KernelDesc::validate`]
/// accepts, every address is below [`ADDRESS_LIMIT`].
pub fn gen_address(
    pattern: AccessPattern,
    job_seed: u64,
    wave_seq: u32,
    access_idx: u32,
    lines_per_access: u32,
    line_bytes: u32,
) -> u64 {
    match pattern {
        AccessPattern::Streaming => {
            let region = JOB_SPACE_BASE + (job_seed % (1 << 16)) * JOB_REGION_BYTES;
            let offset = (wave_seq as u64 * 257 + access_idx as u64)
                * lines_per_access as u64
                * line_bytes as u64;
            region + (offset % JOB_REGION_BYTES)
        }
        AccessPattern::SharedRegion { base, len } => {
            let h =
                splitmix64((wave_seq as u64) << 32 | access_idx as u64 ^ job_seed.rotate_left(17));
            let line_count = (len / line_bytes as u64).max(1);
            base + fast_rem(h, line_count) * line_bytes as u64
        }
        AccessPattern::RandomWithin { len } => {
            let region = JOB_SPACE_BASE + (job_seed % (1 << 16)) * JOB_REGION_BYTES;
            let h = splitmix64(job_seed ^ ((wave_seq as u64) << 20) ^ access_idx as u64);
            let line_count = (len.min(JOB_REGION_BYTES) / line_bytes as u64).max(1);
            region + fast_rem(h, line_count) * line_bytes as u64
        }
    }
}

/// `x % m` with a mask fast path: region line counts are usually powers of
/// two, and `m` is a runtime value the compiler cannot strength-reduce.
#[inline]
fn fast_rem(x: u64, m: u64) -> u64 {
    if m.is_power_of_two() {
        x & (m - 1)
    } else {
        x % m
    }
}

/// SplitMix64 hash step (public-domain constant mix).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(2, &MemConfig::default())
    }

    #[test]
    fn l1_hit_is_fast() {
        let mut m = mem();
        let (_, mix1) = m.access_bundle(0, 0x1000, 1, Cycle::ZERO);
        assert_eq!(mix1.dram, 1);
        let (done, mix2) = m.access_bundle(0, 0x1000, 1, Cycle::from_cycles(1000));
        assert_eq!(mix2.l1, 1);
        assert_eq!(done, Cycle::from_cycles(1000 + 28));
    }

    #[test]
    fn l2_serves_other_cus_l1_misses() {
        let mut m = mem();
        m.access_bundle(0, 0x2000, 1, Cycle::ZERO);
        let (_, mix) = m.access_bundle(1, 0x2000, 1, Cycle::from_cycles(1000));
        assert_eq!(mix.l2, 1, "line brought into L2 by CU0 hits from CU1");
    }

    #[test]
    fn bundle_latency_is_worst_line() {
        let mut m = mem();
        // Warm one line of a two-line bundle.
        m.access_bundle(0, 0x4000, 1, Cycle::ZERO);
        let (done, mix) = m.access_bundle(0, 0x4000, 2, Cycle::from_cycles(5000));
        assert_eq!(mix.l1, 1);
        assert_eq!(mix.dram, 1);
        let cold = 28 + 120 + 220 + 4;
        assert_eq!(done, Cycle::from_cycles(5000 + cold));
    }

    #[test]
    fn streaming_addresses_differ_per_wave_and_job() {
        let a = gen_address(AccessPattern::Streaming, 1, 0, 0, 2, 64);
        let b = gen_address(AccessPattern::Streaming, 1, 1, 0, 2, 64);
        let c = gen_address(AccessPattern::Streaming, 2, 0, 0, 2, 64);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shared_region_addresses_stay_in_region() {
        let base = 1 << 42;
        let len = 1 << 20;
        for w in 0..100 {
            let a = gen_address(AccessPattern::SharedRegion { base, len }, 7, w, 3, 1, 64);
            assert!(a >= base && a < base + len);
        }
    }

    /// The address contract at its extremes: every pattern, seeds and
    /// indices at both ends of their ranges, a shared region flush against
    /// the limit, and wide accesses, stay below [`access_end`] and hence
    /// below [`ADDRESS_LIMIT`].
    #[test]
    fn addresses_stay_below_the_limit_at_extreme_indices() {
        let lines = 32;
        let span = u64::from(lines) * 64;
        let patterns = [
            AccessPattern::Streaming,
            AccessPattern::RandomWithin { len: u64::MAX },
            AccessPattern::RandomWithin { len: 1 },
            AccessPattern::SharedRegion { base: ADDRESS_LIMIT - span - (1 << 30), len: 1 << 30 },
            AccessPattern::SharedRegion { base: ADDRESS_LIMIT - span - 100, len: 100 },
        ];
        let seeds = [0, 1, (1 << 16) - 1, 1 << 16, u64::MAX / 3, u64::MAX];
        let indices = [0, 1, 256, u32::MAX / 257, u32::MAX - 1, u32::MAX];
        for pattern in patterns {
            let end = access_end(pattern, lines, 64);
            assert!(end <= ADDRESS_LIMIT, "{pattern:?} ends at {end:#x}");
            for seed in seeds {
                for wave in indices {
                    for access in indices {
                        let a = gen_address(pattern, seed, wave, access, lines, 64);
                        assert!(a + span <= end, "{pattern:?} {seed} {wave} {access}: {a:#x}");
                    }
                }
            }
        }
        let past = AccessPattern::SharedRegion { base: ADDRESS_LIMIT - 64, len: 64 };
        assert!(access_end(past, 1, 64) > ADDRESS_LIMIT);
        let absurd = AccessPattern::SharedRegion { base: u64::MAX, len: u64::MAX };
        assert_eq!(access_end(absurd, 1, 64), u64::MAX);
    }

    #[test]
    fn address_generation_is_deterministic() {
        let p = AccessPattern::RandomWithin { len: 1 << 20 };
        assert_eq!(gen_address(p, 5, 9, 2, 1, 64), gen_address(p, 5, 9, 2, 1, 64));
    }
}
