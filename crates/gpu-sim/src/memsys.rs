//! Memory subsystem: owns the L1/L2/DRAM hierarchy model and services
//! wave memory requests (address generation, access timing, energy and
//! probe accounting, fault stretching).
//!
//! Other subsystems never touch [`crate::memory::MemoryHierarchy`]
//! directly; they go through [`request`] and the typed accessors below.

use sim_core::time::Cycle;

use crate::config::MemConfig;
use crate::kernel::ComputeProfile;
use crate::memory::{gen_address, MemoryHierarchy};
use crate::probe::ProbeEvent;
use crate::state::SimState;

/// The memory subsystem. Wraps the hierarchy model; fields are private so
/// all interaction goes through the typed methods / [`request`].
pub(crate) struct MemSys {
    hier: MemoryHierarchy,
}

impl MemSys {
    pub(crate) fn new(num_cus: u32, cfg: &MemConfig) -> Self {
        MemSys { hier: MemoryHierarchy::new(num_cus, cfg) }
    }

    /// Applies a DRAM-bandwidth fault (service-time scale factor).
    pub(crate) fn set_dram_scale(&mut self, scale: f64) {
        self.hier.set_dram_scale(scale);
    }

    pub(crate) fn l1_hit_rate(&self) -> f64 {
        self.hier.l1_hit_rate()
    }

    pub(crate) fn l2_hit_rate(&self) -> f64 {
        self.hier.l2_hit_rate()
    }

    pub(crate) fn dram_accesses(&self) -> u64 {
        self.hier.dram_accesses()
    }

    pub(crate) fn dram_busy_cycles(&self) -> u64 {
        self.hier.dram_busy_cycles()
    }

    pub(crate) fn dram_channels(&self) -> usize {
        self.hier.dram_channels()
    }
}

/// Services one wave memory access: generates the address, runs it through
/// the hierarchy, books energy, fires the probe, and stretches the
/// completion time inside fault slowdown windows. Returns the absolute
/// completion time.
pub(crate) fn request(
    st: &mut SimState,
    cu: usize,
    profile: &ComputeProfile,
    job_seed: u64,
    wave_seq: u32,
    accesses_done: u32,
    now: Cycle,
) -> Cycle {
    let addr = gen_address(
        profile.pattern,
        job_seed,
        wave_seq,
        accesses_done,
        profile.lines_per_access,
        st.shared.cfg.mem.line_bytes,
    );
    // With an observer attached, take the reference per-line walk so probe
    // consumers exercise the interleaved path; otherwise the analytic run.
    // The observer-equivalence test (attached vs detached reports) is the
    // standing gate that both produce identical results.
    let (done, mix) = if st.shared.probes.is_active() {
        st.mem.hier.access_bundle(cu, addr, profile.lines_per_access, now)
    } else {
        st.mem.hier.access_run(cu, addr, profile.lines_per_access, now)
    };
    st.shared.energy.add_memory(mix);
    st.shared.probes.emit_with(now, || ProbeEvent::MemAccess { cu: cu as u16, mix });
    // Slowdown windows also stretch memory latency; skipped entirely at
    // scale 1.0 so fault-free runs stay bit-exact.
    let scale = st.shared.fault_scale();
    if scale > 1.0 {
        now + done.saturating_since(now).mul_f64(scale)
    } else {
        done
    }
}
