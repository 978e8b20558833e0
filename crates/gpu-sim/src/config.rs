//! Simulated machine configuration (the paper's Table 2 system).

use sim_core::time::Duration;

use crate::cache::{MAX_WAYS, MIN_WAY_BYTES};

/// Full GPU + memory-system configuration.
///
/// Defaults reproduce Table 2 of the paper: a 1.5 GHz, 8-CU GCN-style GPU
/// with 128 compute queues, 16 KB L1D per CU, a 4 MB shared L2 and 16-channel
/// DDR4.
///
/// # Examples
///
/// ```
/// use gpu_sim::config::GpuConfig;
///
/// let cfg = GpuConfig::default();
/// assert_eq!(cfg.num_cus, 8);
/// assert_eq!(cfg.num_queues, 128);
/// assert_eq!(cfg.max_waves_per_cu(), 40);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of compute units.
    pub num_cus: u32,
    /// SIMD units per CU.
    pub simds_per_cu: u32,
    /// Maximum resident wavefronts per SIMD unit.
    pub waves_per_simd: u32,
    /// Threads per wavefront (fixed 64 on GCN).
    pub wave_width: u32,
    /// Wavefronts one SIMD unit overlaps at full rate (GCN executes 64-lane
    /// ops over 4 cycles on 16-lane SIMDs, so 4 waves interleave freely).
    pub coissue_waves: u32,
    /// Maximum concurrently resident threads per CU.
    pub max_threads_per_cu: u32,
    /// Vector register file bytes per CU.
    pub vgpr_bytes_per_cu: u32,
    /// Local data store bytes per CU.
    pub lds_bytes_per_cu: u32,
    /// Number of hardware compute queues (streams) the CP manages.
    pub num_queues: usize,
    /// Streams the CP can inspect per [`GpuConfig::inspect_interval`].
    pub inspect_batch: u32,
    /// Interval in which `inspect_batch` streams are parsed (paper: 2 us).
    pub inspect_interval: Duration,
    /// Host-to-device latency charged per kernel launch for CPU-side
    /// schedulers (paper Section 5.1: 4 us).
    pub host_launch_overhead: Duration,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// Energy model parameters.
    pub energy: EnergyConfig,
}

/// Cache and DRAM parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// L1 data cache bytes per CU.
    pub l1_bytes: u32,
    /// L1 associativity.
    pub l1_ways: u32,
    /// L1 hit latency in cycles.
    pub l1_hit_cycles: u64,
    /// Shared L2 bytes.
    pub l2_bytes: u32,
    /// L2 associativity.
    pub l2_ways: u32,
    /// Additional latency for an L1-miss/L2-hit, in cycles.
    pub l2_hit_cycles: u64,
    /// Number of independent DRAM channels.
    pub dram_channels: u32,
    /// Fixed DRAM access latency (closed-page style), in cycles.
    pub dram_latency_cycles: u64,
    /// Channel occupancy per line transferred, in cycles (bandwidth model).
    pub dram_service_cycles: u64,
}

/// Per-event energies in picojoules plus static power.
///
/// Values follow the per-instruction energy methodology the paper cites
/// (references 6 and 81 there); see DESIGN.md substitution 4.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyConfig {
    /// Energy per wavefront VALU issue-cycle (64 lanes), pJ.
    pub valu_pj: f64,
    /// Energy per L1 access, pJ.
    pub l1_pj: f64,
    /// Energy per L2 access, pJ.
    pub l2_pj: f64,
    /// Energy per DRAM line access, pJ.
    pub dram_pj: f64,
    /// Static (leakage + uncore) power in watts, charged over the makespan.
    pub static_watts: f64,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            num_cus: 8,
            simds_per_cu: 4,
            waves_per_simd: 10,
            wave_width: 64,
            coissue_waves: 4,
            max_threads_per_cu: 2560,
            vgpr_bytes_per_cu: 256 * 1024,
            lds_bytes_per_cu: 64 * 1024,
            num_queues: 128,
            inspect_batch: 4,
            inspect_interval: Duration::from_us(2),
            host_launch_overhead: Duration::from_us(4),
            mem: MemConfig::default(),
            energy: EnergyConfig::default(),
        }
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            line_bytes: 64,
            l1_bytes: 16 * 1024,
            l1_ways: 4,
            l1_hit_cycles: 28,
            l2_bytes: 4 * 1024 * 1024,
            l2_ways: 16,
            l2_hit_cycles: 120,
            dram_channels: 16,
            dram_latency_cycles: 220,
            dram_service_cycles: 4,
        }
    }
}

impl Default for EnergyConfig {
    fn default() -> Self {
        EnergyConfig {
            valu_pj: 64.0,
            l1_pj: 30.0,
            l2_pj: 120.0,
            dram_pj: 2_200.0,
            static_watts: 12.0,
        }
    }
}

impl GpuConfig {
    /// Maximum resident wavefronts on one CU.
    #[inline]
    pub fn max_waves_per_cu(&self) -> u32 {
        self.simds_per_cu * self.waves_per_simd
    }

    /// Maximum resident wavefronts on the whole device.
    #[inline]
    pub fn max_waves(&self) -> u32 {
        self.num_cus * self.max_waves_per_cu()
    }

    /// Per-stream inspection service time (4 streams per 2 us -> 0.5 us).
    #[inline]
    pub fn inspect_service(&self) -> Duration {
        Duration::from_cycles(self.inspect_interval.as_cycles() / self.inspect_batch as u64)
    }

    /// Validates internal consistency; called by the simulator constructor.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_cus == 0 || self.simds_per_cu == 0 || self.waves_per_simd == 0 {
            return Err("CU/SIMD/wave counts must be positive".into());
        }
        if self.wave_width == 0 || !self.wave_width.is_power_of_two() {
            return Err("wave width must be a positive power of two".into());
        }
        if self.coissue_waves == 0 {
            return Err("coissue_waves must be positive".into());
        }
        if self.num_queues == 0 {
            return Err("need at least one compute queue".into());
        }
        if self.mem.line_bytes == 0 || !self.mem.line_bytes.is_power_of_two() {
            return Err("line size must be a positive power of two".into());
        }
        let levels = [
            ("L1", self.mem.l1_bytes, self.mem.l1_ways),
            ("L2", self.mem.l2_bytes, self.mem.l2_ways),
        ];
        for (level, bytes, ways) in levels {
            if !(1..=MAX_WAYS).contains(&ways) {
                return Err(format!("{level} associativity {ways} is not 1 to {MAX_WAYS}"));
            }
            let lines = bytes / self.mem.line_bytes;
            if lines == 0 || !lines.is_multiple_of(ways) {
                return Err(format!("{level} lines must be divisible by associativity"));
            }
            let sets = lines / ways;
            if !sets.is_power_of_two() {
                return Err(format!("{level} set count {sets} must be a power of two"));
            }
            let way_bytes = u64::from(sets) * u64::from(self.mem.line_bytes);
            if way_bytes < MIN_WAY_BYTES {
                return Err(format!(
                    "{level} ways of {way_bytes} bytes are below {MIN_WAY_BYTES}: \
                     32-bit tags would not reach the address space"
                ));
            }
        }
        if self.mem.dram_channels == 0 || !self.mem.dram_channels.is_power_of_two() {
            return Err("DRAM channels must be a positive power of two".into());
        }
        if self.inspect_batch == 0 {
            return Err("inspection batch must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let c = GpuConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.num_cus, 8);
        assert_eq!(c.simds_per_cu, 4);
        assert_eq!(c.waves_per_simd, 10);
        assert_eq!(c.max_threads_per_cu, 2560);
        assert_eq!(c.vgpr_bytes_per_cu, 256 * 1024);
        assert_eq!(c.num_queues, 128);
        assert_eq!(c.mem.dram_channels, 16);
    }

    #[test]
    fn inspect_service_is_half_us() {
        let c = GpuConfig::default();
        assert_eq!(c.inspect_service(), Duration::from_cycles(750));
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = GpuConfig { num_cus: 0, ..GpuConfig::default() };
        assert!(c.validate().is_err());

        let mut c = GpuConfig::default();
        c.mem.line_bytes = 48;
        assert!(c.validate().is_err());

        let mut c = GpuConfig::default();
        c.mem.dram_channels = 3;
        assert!(c.validate().is_err());

        // 12 KiB of 4-way L1 is 48 sets: the cache model indexes sets by
        // mask, so this used to pass here and panic building the cache.
        let mut c = GpuConfig::default();
        c.mem.l1_bytes = 12 * 1024;
        assert_eq!(c.validate().unwrap_err(), "L1 set count 48 must be a power of two");

        let mut c = GpuConfig::default();
        c.mem.l2_bytes = 3 * 1024 * 1024;
        assert_eq!(c.validate().unwrap_err(), "L2 set count 3072 must be a power of two");

        // Ways below 2 KiB: a 32-bit tag would not reach 2^43.
        let mut c = GpuConfig::default();
        c.mem.l1_bytes = 4 * 1024;
        c.mem.l1_ways = 4;
        assert!(c.validate().unwrap_err().contains("32-bit tags"));
        c.mem.l1_ways = 2;
        assert!(c.validate().is_ok(), "2 KiB ways are enough");

        let mut c = GpuConfig::default();
        c.mem.l2_ways = 128;
        c.mem.l2_bytes = 128 * 64 * 16;
        assert!(c.validate().unwrap_err().starts_with("L2 ways of 1024 bytes"));

        // A set's occupancy is one byte: 256 ways would wrap it.
        let mut c = GpuConfig::default();
        c.mem.l2_ways = 256;
        assert_eq!(c.validate().unwrap_err(), "L2 associativity 256 is not 1 to 255");
        c.mem.l2_ways = 0;
        assert!(c.validate().is_err());
    }
}
