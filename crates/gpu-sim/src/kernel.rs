//! Kernel descriptors: the unit of work a compute queue holds.
//!
//! A kernel is described, not executed: the simulator only needs its grid
//! shape, resource footprint, and per-wavefront compute/memory profile. Real
//! kernels (MIOpen tensor ops, rocBLAS GEMM, packet-processing lookups) are
//! modeled by descriptors calibrated so isolated execution time, thread count
//! and context size match the paper's Table 1.

use std::sync::Arc;

use crate::config::GpuConfig;
use crate::memory::{access_end, ADDRESS_LIMIT};
use crate::simd::COMPLETION_EPS;

/// Identifies a kernel *class* (e.g. "LSTM GEMM"), the key of the paper's
/// Kernel Profiling Table.
///
/// Class ids are dense indices into a [`ClassTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelClassId(pub u16);

impl KernelClassId {
    /// Index form for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a kernel's memory accesses map onto addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Each wavefront streams sequentially through its own slice of a
    /// per-job buffer (activations, packet payloads). Mostly cold lines.
    Streaming,
    /// Accesses hit a region shared by every job of the same class (RNN
    /// weights shared across inference jobs, Section 5.2). Warm in L2.
    SharedRegion {
        /// Base address of the shared region (line-aligned).
        base: u64,
        /// Region length in bytes.
        len: u64,
    },
    /// Uniformly random lines within a per-job working set of `len` bytes
    /// (hash-table lookups: CUCKOO, IPV6 longest-prefix match).
    RandomWithin {
        /// Working-set length in bytes.
        len: u64,
    },
}

/// Per-wavefront execution profile.
///
/// A wavefront alternates compute segments and memory accesses: with `m`
/// accesses the `issue_cycles` of compute are split into `m + 1` equal
/// segments. The SIMD issue stage serves resident wavefronts
/// processor-sharing, so compute slows down under occupancy; memory requests
/// queue in the DRAM channels, so latency grows under bandwidth pressure.
/// These are the contention signals LAX's profiling table observes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeProfile {
    /// Total SIMD issue-cycles of compute per wavefront.
    pub issue_cycles: u64,
    /// Number of (coalesced) memory accesses per wavefront.
    pub mem_accesses: u32,
    /// Cache lines touched per access (coalescing width).
    pub lines_per_access: u32,
    /// Address-generation behaviour.
    pub pattern: AccessPattern,
}

impl ComputeProfile {
    /// A pure-compute profile (no memory traffic).
    pub fn compute_only(issue_cycles: u64) -> Self {
        ComputeProfile {
            issue_cycles,
            mem_accesses: 0,
            lines_per_access: 1,
            pattern: AccessPattern::Streaming,
        }
    }

    /// Length of each compute segment between memory accesses.
    #[inline]
    pub fn segment_cycles(&self) -> f64 {
        self.issue_cycles as f64 / (self.mem_accesses as f64 + 1.0)
    }

    /// A lower bound, in cycles, on the isolated run of any kernel with
    /// this profile ([`crate::sim::run_isolated`]): `issue_cycles` less
    /// one [`COMPLETION_EPS`] per compute segment, rounded down to whole
    /// cycles.
    ///
    /// A SIMD serves each wave at most one issue-cycle per cycle (its
    /// processor-sharing rate `min(1, coissue / n)` never exceeds 1). A
    /// wave runs its `m + 1` segments one after another, and a segment
    /// counts as done up to `COMPLETION_EPS` issue-cycles early. So every
    /// wave spends at least `issue_cycles - (m + 1) · COMPLETION_EPS`
    /// cycles computing; dispatch, memory stalls and contention only add
    /// to that. Rounding the slack up to a whole cycle also absorbs the
    /// floating-point rounding of the service arithmetic, since a run
    /// lasts a whole number of cycles.
    pub fn min_isolated_cycles(&self) -> u64 {
        let slack = ((self.mem_accesses as f64 + 1.0) * COMPLETION_EPS).ceil() as u64;
        self.issue_cycles.saturating_sub(slack)
    }
}

/// Static description of one kernel launch.
///
/// # Examples
///
/// ```
/// use gpu_sim::kernel::{ComputeProfile, KernelClassId, KernelDesc};
///
/// let k = KernelDesc::new(
///     KernelClassId(0),
///     "ipv6_lookup",
///     8192,
///     256,
///     32,
///     4096,
///     ComputeProfile::compute_only(2_000),
/// );
/// assert_eq!(k.num_wgs(), 32);
/// assert_eq!(k.waves_per_wg(), 4);
/// assert_eq!(k.total_waves(), 128);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Profiling-table class.
    pub class: KernelClassId,
    /// Human-readable name (Table 1 kernel name).
    pub name: Arc<str>,
    /// Total threads in the grid.
    pub grid_threads: u32,
    /// Threads per workgroup.
    pub wg_size: u32,
    /// Vector registers per thread, in 4-byte units.
    pub vgprs_per_thread: u32,
    /// LDS bytes per workgroup.
    pub lds_per_wg: u32,
    /// Per-wavefront execution profile.
    pub profile: ComputeProfile,
}

impl KernelDesc {
    /// Creates a descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `grid_threads` or `wg_size` is zero, or if `wg_size` does
    /// not divide `grid_threads`.
    pub fn new(
        class: KernelClassId,
        name: impl Into<Arc<str>>,
        grid_threads: u32,
        wg_size: u32,
        vgprs_per_thread: u32,
        lds_per_wg: u32,
        profile: ComputeProfile,
    ) -> Self {
        assert!(grid_threads > 0 && wg_size > 0, "empty kernel");
        assert!(
            grid_threads.is_multiple_of(wg_size),
            "wg_size {wg_size} must divide grid {grid_threads}"
        );
        KernelDesc {
            class,
            name: name.into(),
            grid_threads,
            wg_size,
            vgprs_per_thread,
            lds_per_wg,
            profile,
        }
    }

    /// Number of workgroups in the grid.
    #[inline]
    pub fn num_wgs(&self) -> u32 {
        self.grid_threads / self.wg_size
    }

    /// Wavefronts per workgroup (64-thread waves).
    #[inline]
    pub fn waves_per_wg(&self) -> u32 {
        self.wg_size.div_ceil(64)
    }

    /// Total wavefronts in the grid.
    #[inline]
    pub fn total_waves(&self) -> u32 {
        self.num_wgs() * self.waves_per_wg()
    }

    /// Kernel context footprint in bytes (registers + LDS across the grid):
    /// the "context size" column of Table 1 and the quantity that makes
    /// preemption expensive (Section 1).
    pub fn context_bytes(&self) -> u64 {
        let reg = self.grid_threads as u64 * self.vgprs_per_thread as u64 * 4;
        let lds = self.num_wgs() as u64 * self.lds_per_wg as u64;
        reg + lds
    }

    /// Fraction of one CU's VGPR file a single WG needs.
    pub fn vgpr_bytes_per_wg(&self) -> u32 {
        self.wg_size * self.vgprs_per_thread * 4
    }

    /// Returns a copy scaled to `factor` times the threads (for batching):
    /// grid grows, per-thread work is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn batched(&self, factor: u32) -> KernelDesc {
        assert!(factor > 0);
        let mut k = self.clone();
        k.grid_threads *= factor;
        k
    }

    /// Sanity-checks the descriptor against a machine configuration: a
    /// single WG must fit on one CU, otherwise it can never be dispatched,
    /// and every access must stay below [`ADDRESS_LIMIT`] (a shared region
    /// must end, with one access's span to spare, at or below 2^43).
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self, cfg: &GpuConfig) -> Result<(), String> {
        // Re-check the `KernelDesc::new` asserts: the fields are public, so
        // a literal-constructed descriptor must not divide by zero later.
        if self.grid_threads == 0 || self.wg_size == 0 {
            return Err("kernel has an empty grid".into());
        }
        if !self.grid_threads.is_multiple_of(self.wg_size) {
            return Err(format!("wg_size {} must divide grid {}", self.wg_size, self.grid_threads));
        }
        if self.wg_size > cfg.max_threads_per_cu {
            return Err(format!("WG of {} threads exceeds CU capacity", self.wg_size));
        }
        if self.waves_per_wg() > cfg.max_waves_per_cu() {
            return Err("WG needs more wave slots than one CU has".into());
        }
        if self.vgpr_bytes_per_wg() > cfg.vgpr_bytes_per_cu {
            return Err("WG exceeds CU register file".into());
        }
        if self.lds_per_wg > cfg.lds_bytes_per_cu {
            return Err("WG exceeds CU LDS".into());
        }
        if self.profile.issue_cycles == 0 && self.profile.mem_accesses == 0 {
            return Err("kernel performs no work".into());
        }
        let profile = &self.profile;
        let end = access_end(profile.pattern, profile.lines_per_access, cfg.mem.line_bytes);
        if end > ADDRESS_LIMIT {
            return Err(format!(
                "accesses reach {end:#x}, past the {ADDRESS_LIMIT:#x}-byte address space"
            ));
        }
        Ok(())
    }
}

/// Registry of kernel classes used in one simulation, indexed by
/// [`KernelClassId`].
///
/// The experiment harness builds one table per benchmark; the CP's counters
/// and the schedulers' offline profiles are sized from it.
#[derive(Debug, Clone, Default)]
pub struct ClassTable {
    names: Vec<Arc<str>>,
}

impl ClassTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ClassTable::default()
    }

    /// Registers a class and returns its id. Re-registering the same name
    /// returns the existing id.
    pub fn register(&mut self, name: &str) -> KernelClassId {
        if let Some(pos) = self.names.iter().position(|n| &**n == name) {
            return KernelClassId(pos as u16);
        }
        assert!(self.names.len() < u16::MAX as usize, "too many kernel classes");
        self.names.push(Arc::from(name));
        KernelClassId((self.names.len() - 1) as u16)
    }

    /// Name of a class.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this table.
    pub fn name(&self, id: KernelClassId) -> &str {
        &self.names[id.index()]
    }

    /// Number of registered classes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if no classes are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc() -> KernelDesc {
        KernelDesc::new(
            KernelClassId(0),
            "k",
            1024,
            256,
            64,
            8192,
            ComputeProfile {
                issue_cycles: 1000,
                mem_accesses: 4,
                lines_per_access: 2,
                pattern: AccessPattern::Streaming,
            },
        )
    }

    #[test]
    fn grid_shape_math() {
        let k = desc();
        assert_eq!(k.num_wgs(), 4);
        assert_eq!(k.waves_per_wg(), 4);
        assert_eq!(k.total_waves(), 16);
    }

    #[test]
    fn context_bytes_counts_registers_and_lds() {
        let k = desc();
        // 1024 threads * 64 vgprs * 4B + 4 WGs * 8192B LDS
        assert_eq!(k.context_bytes(), 1024 * 64 * 4 + 4 * 8192);
    }

    #[test]
    fn segment_cycles_split_compute_between_accesses() {
        let k = desc();
        assert_eq!(k.profile.segment_cycles(), 200.0);
    }

    #[test]
    fn batched_scales_grid_only() {
        let k = desc().batched(4);
        assert_eq!(k.grid_threads, 4096);
        assert_eq!(k.num_wgs(), 16);
        assert_eq!(k.profile, desc().profile);
    }

    #[test]
    fn validate_rejects_oversized_wg() {
        let cfg = GpuConfig::default();
        assert!(desc().validate(&cfg).is_ok());
        let k = KernelDesc::new(
            KernelClassId(0),
            "big",
            4096,
            4096,
            64,
            0,
            ComputeProfile::compute_only(10),
        );
        assert!(k.validate(&cfg).is_err());
    }

    #[test]
    fn validate_rejects_a_shared_region_past_the_address_limit() {
        let cfg = GpuConfig::default();
        let region = |base: u64, len: u64| {
            let mut k = desc();
            k.profile.pattern = AccessPattern::SharedRegion { base, len };
            k.validate(&cfg)
        };
        let span = 2 * 64; // lines_per_access 2
        assert!(region(1 << 42, 1 << 20).is_ok());
        assert!(region(ADDRESS_LIMIT - span - (1 << 20), 1 << 20).is_ok());
        let err = region(ADDRESS_LIMIT - span - (1 << 20) + 64, 1 << 20).unwrap_err();
        assert!(err.contains("address space"), "{err}");
        assert!(region(1 << 44, 1 << 20).is_err(), "the old region base");
        assert!(region(u64::MAX - 8, 1 << 20).is_err(), "no overflow");
    }

    #[test]
    fn min_isolated_cycles_subtracts_a_whole_cycle_of_slack() {
        let mut p = desc().profile;
        assert_eq!(p.min_isolated_cycles(), 999);
        p.mem_accesses = 3_000_000;
        assert_eq!(p.min_isolated_cycles(), 996);
        p.issue_cycles = 0;
        assert_eq!(p.min_isolated_cycles(), 0);
    }

    #[test]
    fn class_table_deduplicates() {
        let mut t = ClassTable::new();
        let a = t.register("gemm");
        let b = t.register("act");
        let a2 = t.register("gemm");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.name(b), "act");
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic]
    fn wg_size_must_divide_grid() {
        KernelDesc::new(KernelClassId(0), "bad", 100, 64, 1, 0, ComputeProfile::compute_only(1));
    }
}
