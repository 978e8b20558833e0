//! Per-event energy accounting (dynamic) plus static power over the
//! makespan, following the per-instruction-energy methodology the paper
//! cites for its energy results (Table 5c).

use sim_core::time::Duration;

use crate::config::EnergyConfig;
use crate::memory::AccessMix;

/// Accumulates energy in picojoules.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    cfg: EnergyConfig,
    dynamic_pj: f64,
}

impl EnergyMeter {
    /// Creates a meter with the given energy constants.
    pub fn new(cfg: EnergyConfig) -> Self {
        EnergyMeter { cfg, dynamic_pj: 0.0 }
    }

    /// Charges `issue_cycles` of VALU work (one wavefront instruction per
    /// issue-cycle across 64 lanes).
    pub fn add_compute(&mut self, issue_cycles: f64) {
        self.dynamic_pj += issue_cycles * self.cfg.valu_pj;
    }

    /// Charges a memory request bundle. Every line pays L1 lookup energy;
    /// deeper levels add their own.
    pub fn add_memory(&mut self, mix: AccessMix) {
        let total_lines = (mix.l1 + mix.l2 + mix.dram) as f64;
        self.dynamic_pj += total_lines * self.cfg.l1_pj;
        self.dynamic_pj += (mix.l2 + mix.dram) as f64 * self.cfg.l2_pj;
        self.dynamic_pj += mix.dram as f64 * self.cfg.dram_pj;
    }

    /// Dynamic energy so far, in millijoules.
    pub fn dynamic_mj(&self) -> f64 {
        self.dynamic_pj * 1e-9
    }

    /// Total energy (dynamic + static over `makespan`), in millijoules.
    pub fn total_mj(&self, makespan: Duration) -> f64 {
        self.dynamic_mj() + self.cfg.static_watts * makespan.as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnergyConfig;

    #[test]
    fn compute_energy_scales_with_cycles() {
        let mut m = EnergyMeter::new(EnergyConfig::default());
        m.add_compute(1e9); // 1e9 issue-cycles * 64 pJ = 64 mJ
        assert!((m.dynamic_mj() - 64.0).abs() < 1e-9);
    }

    #[test]
    fn memory_energy_charges_each_level() {
        let cfg = EnergyConfig {
            valu_pj: 0.0,
            l1_pj: 1.0,
            l2_pj: 10.0,
            dram_pj: 100.0,
            static_watts: 0.0,
        };
        let mut m = EnergyMeter::new(cfg);
        m.add_memory(AccessMix { l1: 1, l2: 1, dram: 1 });
        // 3 L1 lookups + 2 L2 + 1 DRAM = 3 + 20 + 100 = 123 pJ
        assert!((m.dynamic_pj - 123.0).abs() < 1e-12);
    }

    #[test]
    fn static_power_integrates_over_makespan() {
        let cfg =
            EnergyConfig { valu_pj: 0.0, l1_pj: 0.0, l2_pj: 0.0, dram_pj: 0.0, static_watts: 10.0 };
        let m = EnergyMeter::new(cfg);
        // 10 W for 1 ms = 10 mJ... in millijoules: 10 * 1e-3 s * 1e3 = 10.
        assert!((m.total_mj(Duration::from_ms(1)) - 10.0).abs() < 1e-9);
    }
}
