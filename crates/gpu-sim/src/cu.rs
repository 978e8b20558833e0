//! Compute unit: SIMD units plus the occupancy limits (threads, wave slots,
//! registers, LDS) that gate workgroup placement.

use crate::config::GpuConfig;
use crate::kernel::KernelDesc;
use crate::simd::SimdUnit;

/// One compute unit.
#[derive(Debug)]
pub struct ComputeUnit {
    /// The CU's SIMD issue units.
    pub simds: Vec<SimdUnit>,
    waves_per_simd: u32,
    max_threads: u32,
    vgpr_capacity: u32,
    lds_capacity: u32,
    threads_used: u32,
    vgpr_used: u32,
    lds_used: u32,
    offline: bool,
}

impl ComputeUnit {
    /// Creates an idle CU from the machine configuration.
    pub fn new(cfg: &GpuConfig) -> Self {
        ComputeUnit {
            simds: (0..cfg.simds_per_cu).map(|_| SimdUnit::new(cfg.coissue_waves)).collect(),
            waves_per_simd: cfg.waves_per_simd,
            max_threads: cfg.max_threads_per_cu,
            vgpr_capacity: cfg.vgpr_bytes_per_cu,
            lds_capacity: cfg.lds_bytes_per_cu,
            threads_used: 0,
            vgpr_used: 0,
            lds_used: 0,
            offline: false,
        }
    }

    /// Free wavefront slots across all SIMD units.
    pub fn free_wave_slots(&self) -> u32 {
        self.simds.iter().map(|s| self.waves_per_simd - s.resident()).sum()
    }

    /// Wavefronts currently resident.
    pub fn resident_waves(&self) -> u32 {
        self.simds.iter().map(SimdUnit::resident).sum()
    }

    /// Marks the CU offline (fault injection): it stops accepting new
    /// workgroups while resident waves drain normally. `false` restores it.
    pub fn set_offline(&mut self, offline: bool) {
        self.offline = offline;
    }

    /// `true` while the CU is marked offline by a fault.
    pub fn is_offline(&self) -> bool {
        self.offline
    }

    /// `true` if one workgroup of `k` fits right now.
    pub fn can_fit(&self, k: &KernelDesc) -> bool {
        !self.offline
            && self.threads_used + k.wg_size <= self.max_threads
            && self.vgpr_used + k.vgpr_bytes_per_wg() <= self.vgpr_capacity
            && self.lds_used + k.lds_per_wg <= self.lds_capacity
            && self.free_wave_slots() >= k.waves_per_wg()
    }

    /// Reserves resources for one WG of `k` and assigns each of its waves to
    /// a SIMD unit (least-loaded first). Returns the SIMD index per wave.
    ///
    /// # Panics
    ///
    /// Panics if the WG does not fit; call [`ComputeUnit::can_fit`] first.
    pub fn place_wg(&mut self, k: &KernelDesc) -> Vec<u32> {
        assert!(self.can_fit(k), "placing WG that does not fit");
        self.threads_used += k.wg_size;
        self.vgpr_used += k.vgpr_bytes_per_wg();
        self.lds_used += k.lds_per_wg;
        let mut placement = Vec::with_capacity(k.waves_per_wg() as usize);
        for _ in 0..k.waves_per_wg() {
            let (idx, simd) = self
                .simds
                .iter_mut()
                .enumerate()
                .filter(|(_, s)| s.resident() < self.waves_per_simd)
                .min_by_key(|(i, s)| (s.resident(), *i))
                .expect("can_fit guaranteed a free slot");
            simd.reserve_slot();
            placement.push(idx as u32);
        }
        placement
    }

    /// Releases the WG-level resources (threads/VGPR/LDS). Wave slots are
    /// released per-wave as each wavefront finishes.
    ///
    /// # Panics
    ///
    /// Panics if more is released than was reserved.
    pub fn release_wg(&mut self, k: &KernelDesc) {
        assert!(self.threads_used >= k.wg_size);
        self.threads_used -= k.wg_size;
        self.vgpr_used -= k.vgpr_bytes_per_wg();
        self.lds_used -= k.lds_per_wg;
    }

    /// Threads currently resident (occupancy observability).
    pub fn threads_used(&self) -> u32 {
        self.threads_used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ComputeProfile, KernelClassId};

    fn cu() -> ComputeUnit {
        ComputeUnit::new(&GpuConfig::default())
    }

    fn kernel(wg_size: u32, vgprs: u32, lds: u32) -> KernelDesc {
        KernelDesc::new(
            KernelClassId(0),
            "k",
            wg_size,
            wg_size,
            vgprs,
            lds,
            ComputeProfile::compute_only(10),
        )
    }

    #[test]
    fn fresh_cu_has_all_slots() {
        let c = cu();
        assert_eq!(c.free_wave_slots(), 40);
        assert_eq!(c.resident_waves(), 0);
    }

    #[test]
    fn placement_balances_across_simds() {
        let mut c = cu();
        let k = kernel(256, 16, 0); // 4 waves
        let placement = c.place_wg(&k);
        assert_eq!(placement.len(), 4);
        // One wave per SIMD when all are empty.
        let mut sorted = placement.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        assert_eq!(c.free_wave_slots(), 36);
        assert_eq!(c.threads_used(), 256);
    }

    #[test]
    fn thread_limit_blocks_placement() {
        let mut c = cu();
        let k = kernel(1024, 4, 0);
        assert!(c.can_fit(&k));
        c.place_wg(&k);
        c.place_wg(&k);
        // 2048 threads used; a third 1024-thread WG would exceed 2560.
        assert!(!c.can_fit(&k));
    }

    #[test]
    fn vgpr_limit_blocks_placement() {
        let mut c = cu();
        // 256 threads * 128 vgprs * 4B = 128KB per WG -> only two fit in 256KB.
        let k = kernel(256, 128, 0);
        c.place_wg(&k);
        c.place_wg(&k);
        assert!(!c.can_fit(&k));
    }

    #[test]
    fn lds_limit_blocks_placement() {
        let mut c = cu();
        let k = kernel(64, 4, 40 * 1024);
        c.place_wg(&k);
        assert!(!c.can_fit(&k), "two WGs need 80KB LDS > 64KB");
    }

    #[test]
    fn offline_cu_refuses_new_work_until_restored() {
        let mut c = cu();
        let k = kernel(64, 4, 0);
        assert!(c.can_fit(&k));
        c.set_offline(true);
        assert!(c.is_offline());
        assert!(!c.can_fit(&k), "offline CU must not accept workgroups");
        c.set_offline(false);
        assert!(c.can_fit(&k), "restored CU accepts work again");
    }

    #[test]
    fn release_restores_capacity() {
        let mut c = cu();
        let k = kernel(1024, 4, 1024);
        c.place_wg(&k);
        c.release_wg(&k);
        assert_eq!(c.threads_used(), 0);
        // Wave slots are still held until waves finish individually.
        assert_eq!(c.free_wave_slots(), 24);
    }
}
