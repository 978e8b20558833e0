//! Execution subsystem: CU/SIMD wave advancement, workgroup placement, and
//! the kernel/job completion cascade.
//!
//! ## Polled SIMD completions (the hot path)
//!
//! Per-wave segment completions dominate a run's event count. Instead of
//! round-tripping each predicted completion through the engine's global
//! heap (schedule, sift, pop, discard-if-stale), the subsystem keeps one
//! [`Pred`] slot per SIMD unit. [`reschedule_simd`] writes the unit's next
//! predicted completion into its slot, stamped with a sequence number from
//! the same counter the event queue uses, so the engine can order the
//! minimum prediction ([`Exec::next_poll`]) against the queue head by
//! `(time, seq)` — exactly the order the old heap events popped in. Stale
//! predictions are overwritten in place (generation mismatch) instead of
//! lingering in the heap.

use std::sync::Arc;

use sim_core::time::Cycle;

use crate::config::GpuConfig;
use crate::cp_frontend;
use crate::cu::ComputeUnit;
use crate::dispatch;
use crate::engine::Effects;
use crate::host;
use crate::job::{JobFate, JobId};
use crate::kernel::KernelDesc;
use crate::probe::ProbeEvent;
use crate::sim::SchedulerMode;
use crate::slab::{Slab, SlabKey};
use crate::state::{self, SimState};
use crate::wave::{KernelRun, WaveState, Wavefront, WorkgroupRun};

/// One SIMD unit's next predicted segment completion. The sequence stamp
/// lives packed into the parallel `keys` entry; this struct keeps what the
/// staleness check needs: `gen` snapshots the SIMD's membership generation
/// so a stale slot is recognized and overwritten.
#[derive(Debug, Clone, Copy, Default)]
struct Pred {
    at: Cycle,
    gen: u64,
    valid: bool,
}

/// One in-flight memory completion, parked on its SIMD's pending list
/// instead of the global event heap.
///
/// `key` packs `(completion time, stamp)` exactly like the poll-prediction
/// sort keys, so the engine can arbitrate memory returns against heap
/// events and segment completions in one `(time, sequence)` order.
#[derive(Debug, Clone, Copy)]
struct MemPend {
    key: u128,
    wave: SlabKey,
}

/// The execution subsystem: compute units, the in-flight wave/WG/kernel
/// arenas, and the per-SIMD completion predictions.
pub(crate) struct Exec {
    cus: Vec<ComputeUnit>,
    waves: Slab<Wavefront>,
    wgs: Slab<WorkgroupRun>,
    runs: Slab<KernelRun>,
    preds: Vec<Pred>,
    /// Packed `(at, stamp)` sort keys parallel to `preds`, `u128::MAX` for
    /// invalid slots. The engine's per-event poll takes the argmin of this
    /// small dense array — a branch-light scan the optimizer vectorizes,
    /// instead of walking the wider `Pred` structs.
    keys: Vec<u128>,
    /// Cached argmin of `keys` as `(key, slot)`; `(u128::MAX, 0)` when all
    /// slots are idle. A write to a non-head slot updates this in O(1)
    /// (only a *smaller* key can displace the head), so the scan reruns
    /// only when the head slot itself changed (`head_dirty`) — i.e. once
    /// per serviced poll, not once per event.
    head: (u128, usize),
    head_dirty: bool,
    /// Per-SIMD in-flight memory completions (unsorted; at most the unit's
    /// resident waves, so scans are a few entries). Wave memory returns are
    /// the single hottest event class — parking them here instead of the
    /// global heap turns ~2 log-n heap operations per access into O(1)
    /// pushes plus a tiny argmin, while `mem_keys`/`mem_head` keep them in
    /// the engine's `(time, stamp)` arbitration exactly like `keys`/`head`.
    mem_pending: Vec<Vec<MemPend>>,
    /// Minimum pending-completion key per SIMD, `u128::MAX` when none.
    mem_keys: Vec<u128>,
    /// Cached argmin of `mem_keys`, maintained like `head`: pushes can only
    /// lower a slot's minimum (O(1) update), pops mark it dirty.
    mem_head: (u128, usize),
    mem_head_dirty: bool,
    simds_per_cu: usize,
    completed_buf: Vec<SlabKey>,
}

impl Exec {
    pub(crate) fn new(cfg: &GpuConfig) -> Self {
        Exec {
            cus: (0..cfg.num_cus).map(|_| ComputeUnit::new(cfg)).collect(),
            waves: Slab::new(),
            wgs: Slab::new(),
            runs: Slab::new(),
            preds: vec![Pred::default(); (cfg.num_cus * cfg.simds_per_cu) as usize],
            keys: vec![u128::MAX; (cfg.num_cus * cfg.simds_per_cu) as usize],
            head: (u128::MAX, 0),
            head_dirty: false,
            mem_pending: (0..cfg.num_cus * cfg.simds_per_cu)
                .map(|_| Vec::with_capacity(cfg.waves_per_simd as usize))
                .collect(),
            mem_keys: vec![u128::MAX; (cfg.num_cus * cfg.simds_per_cu) as usize],
            mem_head: (u128::MAX, 0),
            mem_head_dirty: false,
            simds_per_cu: cfg.simds_per_cu as usize,
            completed_buf: Vec::new(),
        }
    }

    /// Read-only view of the compute units (metrics, occupancy scans).
    pub(crate) fn cus(&self) -> &[ComputeUnit] {
        &self.cus
    }

    /// Totals of (free, resident) wave slots across the device.
    pub(crate) fn wave_slot_totals(&self) -> (u32, u32) {
        let mut free = 0;
        let mut resident = 0;
        for cu in &self.cus {
            free += cu.free_wave_slots();
            resident += cu.resident_waves();
        }
        (free, resident)
    }

    /// Applies a CU offline/online fault transition.
    pub(crate) fn set_cu_offline(&mut self, cu: usize, offline: bool) {
        self.cus[cu].set_offline(offline);
    }

    /// The CU best able to take a WG of `kernel`: most free wave slots,
    /// lowest index at ties. `None` when nothing fits.
    pub(crate) fn best_cu(&self, kernel: &KernelDesc) -> Option<usize> {
        self.cus
            .iter()
            .enumerate()
            .filter(|(_, c)| c.can_fit(kernel))
            .max_by_key(|(i, c)| (c.free_wave_slots(), usize::MAX - i))
            .map(|(i, _)| i)
    }

    /// Registers a new kernel run, returning its arena key.
    pub(crate) fn insert_run(&mut self, run: KernelRun) -> SlabKey {
        self.runs.insert(run)
    }

    /// Drops a kernel run (abort path).
    pub(crate) fn remove_run(&mut self, rk: SlabKey) {
        self.runs.remove(rk);
    }

    /// Workgroups of run `rk` not yet dispatched.
    pub(crate) fn wgs_pending(&self, rk: SlabKey) -> u32 {
        self.runs[rk].wgs_pending()
    }

    /// `true` while run `rk` has dispatched WGs that have not completed.
    pub(crate) fn run_inflight(&self, rk: SlabKey) -> bool {
        self.runs[rk].wgs_dispatched > self.runs[rk].wgs_completed
    }

    /// The earliest live SIMD completion prediction as a packed
    /// `((time << 64 | stamp), slot)` key, `u128::MAX` when every unit is
    /// idle. The engine compares the key against the event-queue head and
    /// the pending-memory minimum to decide what fires next.
    pub(crate) fn poll_key(&mut self) -> (u128, usize) {
        if self.head_dirty {
            let mut best = 0usize;
            let mut bk = u128::MAX;
            for (i, &k) in self.keys.iter().enumerate() {
                if k < bk {
                    bk = k;
                    best = i;
                }
            }
            self.head = (bk, best);
            self.head_dirty = false;
        }
        self.head
    }

    /// The earliest pending memory completion as a packed
    /// `((time << 64 | stamp), slot)` key, `u128::MAX` when none are in
    /// flight. Same contract as [`Exec::poll_key`].
    pub(crate) fn mem_key(&mut self) -> (u128, usize) {
        if self.mem_head_dirty {
            let mut best = 0usize;
            let mut bk = u128::MAX;
            for (i, &k) in self.mem_keys.iter().enumerate() {
                if k < bk {
                    bk = k;
                    best = i;
                }
            }
            self.mem_head = (bk, best);
            self.mem_head_dirty = false;
        }
        self.mem_head
    }

    /// Parks wave `wave`'s memory return at `(at, stamp)` on SIMD `slot`'s
    /// pending list. A push can only lower the slot's minimum, so the
    /// cached argmin updates in O(1) and never goes dirty.
    fn push_mem(&mut self, slot: usize, at: Cycle, stamp: u64, wave: SlabKey) {
        let key = (at.as_cycles() as u128) << 64 | stamp as u128;
        self.mem_pending[slot].push(MemPend { key, wave });
        if key < self.mem_keys[slot] {
            self.mem_keys[slot] = key;
            if !self.mem_head_dirty && key < self.mem_head.0 {
                self.mem_head = (key, slot);
            }
        }
    }

    /// Removes and returns the earliest pending memory completion of SIMD
    /// `slot`, updating the slot minimum and marking the argmin dirty when
    /// the head slot was popped.
    fn pop_mem(&mut self, slot: usize) -> Option<SlabKey> {
        let list = &mut self.mem_pending[slot];
        let min_key = self.mem_keys[slot];
        let pos = list.iter().position(|e| e.key == min_key)?;
        let entry = list.swap_remove(pos);
        self.mem_keys[slot] = list.iter().map(|e| e.key).min().unwrap_or(u128::MAX);
        if !self.mem_head_dirty && slot == self.mem_head.1 {
            self.mem_head_dirty = true;
        }
        Some(entry.wave)
    }

    /// Writes slot `slot`'s prediction.
    #[inline]
    fn write_pred(&mut self, slot: usize, at: Cycle, stamp: u64, gen: u64) {
        self.preds[slot] = Pred { at, gen, valid: true };
        let k = (at.as_cycles() as u128) << 64 | stamp as u128;
        self.keys[slot] = k;
        if !self.head_dirty {
            if k < self.head.0 {
                self.head = (k, slot);
            } else if slot == self.head.1 {
                self.head_dirty = true;
            }
        }
    }

    /// Invalidates slot `slot`'s prediction.
    #[inline]
    fn invalidate_pred(&mut self, slot: usize) {
        self.preds[slot].valid = false;
        self.keys[slot] = u128::MAX;
        if !self.head_dirty && slot == self.head.1 {
            self.head_dirty = true;
        }
    }
}

/// Re-predicts SIMD `(cu, simd)`'s next completion after a membership or
/// progress change.
///
/// A still-valid slot with an unchanged generation keeps its existing
/// stamp: the earliest allocation governs ordering, matching the old
/// behavior where the first of several same-generation heap events was the
/// one that fired.
pub(crate) fn reschedule_simd(
    ex: &mut Exec,
    fx: &mut Effects<'_>,
    cu: usize,
    simd: usize,
    now: Cycle,
) {
    let s = &ex.cus[cu].simds[simd];
    let slot = cu * ex.simds_per_cu + simd;
    match s.next_completion(now) {
        Some(t) => {
            let gen = s.generation();
            let p = &ex.preds[slot];
            if p.valid && p.gen == gen {
                debug_assert_eq!(p.at, t, "same-generation prediction must be stable");
            } else {
                let stamp = fx.stamp();
                ex.write_pred(slot, t, stamp, gen);
            }
        }
        None => ex.invalidate_pred(slot),
    }
}

/// Places one WG of run `run_key` onto CU `cu_idx`, issuing its waves.
pub(crate) fn place_wg(
    st: &mut SimState,
    fx: &mut Effects<'_>,
    run_key: SlabKey,
    cu_idx: usize,
    now: Cycle,
) {
    let SimState { shared, exec, .. } = st;
    let desc = exec.runs[run_key].desc.clone();
    let job = exec.runs[run_key].job;
    let placement = exec.cus[cu_idx].place_wg(&desc);
    shared.counters.note_wg_placed(desc.class, now);
    let wg_key = exec.wgs.insert(WorkgroupRun {
        run: run_key,
        cu: cu_idx as u32,
        waves_total: placement.len() as u32,
        waves_done: 0,
        threads: desc.wg_size,
        vgpr_bytes: desc.vgpr_bytes_per_wg(),
        lds_bytes: desc.lds_per_wg,
    });
    shared.probes.emit_with(now, || ProbeEvent::WgDispatched {
        cu: cu_idx as u16,
        job,
        wg: wg_key,
    });
    // Segments started inside a slowdown window are stretched; `* 1.0`
    // outside windows is bit-exact, preserving fault-free identity.
    let segment = exec.runs[run_key].segment_cycles * shared.fault_scale();
    for simd_idx in placement {
        let wave_seq = {
            let run = &mut exec.runs[run_key];
            let s = run.next_wave_seq;
            run.next_wave_seq += 1;
            s
        };
        let key = exec.waves.insert(Wavefront {
            wg: wg_key,
            run: run_key,
            cu: cu_idx as u32,
            simd: simd_idx,
            wave_seq,
            remaining: segment,
            accesses_done: 0,
            state: WaveState::Computing,
        });
        let simd = &mut exec.cus[cu_idx].simds[simd_idx as usize];
        simd.advance(now);
        simd.activate_with(key, segment);
        reschedule_simd(exec, fx, cu_idx, simd_idx as usize, now);
        shared
            .probes
            .emit_with(now, || ProbeEvent::WaveIssued { cu: cu_idx as u16, simd: simd_idx as u16 });
    }
    exec.runs[run_key].wgs_dispatched += 1;
}

/// Services the SIMD whose prediction slot won the engine's poll: advances
/// progress, retires completed segments into memory requests or wave
/// completion, and re-predicts.
pub(crate) fn service_poll(st: &mut SimState, fx: &mut Effects<'_>, slot: usize, now: Cycle) {
    // Consume the slot first: if the unit re-predicts below without a
    // membership change (completions drained to empty), the fresh write
    // allocates a new stamp, exactly as the old heap path scheduled a new
    // event after a no-op fire.
    st.exec.invalidate_pred(slot);
    let (cu, simd) = (slot / st.exec.simds_per_cu, slot % st.exec.simds_per_cu);
    let mut completed = std::mem::take(&mut st.exec.completed_buf);
    completed.clear();
    let min_rem = st.exec.cus[cu].simds[simd].advance_collect_min(now, &mut completed);
    if completed.is_empty() {
        st.exec.completed_buf = completed;
        reschedule_simd(&mut st.exec, fx, cu, simd, now);
        return;
    }
    // Tracks whether any wave fully finished: the completion cascade
    // (WG/kernel/job retirement, re-dispatch) can place fresh waves on this
    // very unit, so the survivor minimum from the fused pass is only
    // trusted when every completed wave merely blocked on memory.
    let mut cascade = false;
    for &key in &completed {
        {
            let exec = &mut st.exec;
            exec.cus[cu].simds[simd].deactivate(key, &mut exec.waves);
        }
        let (run_key, wave_seq, accesses_done) = {
            let w = &st.exec.waves[key];
            (w.run, w.wave_seq, w.accesses_done)
        };
        let (profile, job_seed) = {
            let run = &st.exec.runs[run_key];
            (run.desc.profile, run.job.0 as u64)
        };
        if accesses_done < profile.mem_accesses {
            st.exec.waves[key].state = WaveState::MemPending;
            let done =
                crate::memsys::request(st, cu, &profile, job_seed, wave_seq, accesses_done, now);
            // Park the completion on this SIMD's pending list. The stamp is
            // allocated exactly where the old heap event was scheduled, so
            // `(time, stamp)` arbitration — and with it every artifact —
            // is unchanged.
            let stamp = fx.stamp();
            st.exec.push_mem(slot, done, stamp, key);
        } else {
            cascade = true;
            finish_wave(st, fx, key, now);
        }
    }
    completed.clear();
    st.exec.completed_buf = completed;
    if cascade {
        reschedule_simd(&mut st.exec, fx, cu, simd, now);
    } else if min_rem.is_finite() {
        // Membership changed only by the deactivations above, so the
        // survivor minimum is the exact fold a fresh scan would produce;
        // the stamp is allocated at the same sequence point the full
        // reschedule would use.
        let t = st.exec.cus[cu].simds[simd].predict_from_min(min_rem, now);
        let gen = st.exec.cus[cu].simds[simd].generation();
        let stamp = fx.stamp();
        st.exec.write_pred(slot, t, stamp, gen);
    } else {
        st.exec.invalidate_pred(slot);
    }
}

/// Services SIMD `slot`'s earliest pending memory return: the wave's access
/// completed, so start its next compute segment.
///
/// A wave squashed while blocked (kernel abort) leaves its pending entry
/// behind; it pops here at its original `(time, stamp)` and no-ops, exactly
/// as the old heap event did.
pub(crate) fn service_mem(st: &mut SimState, fx: &mut Effects<'_>, slot: usize, now: Cycle) {
    let key = st.exec.pop_mem(slot).expect("mem arbitration chose an empty slot");
    let SimState { shared, exec, .. } = st;
    let Some(w) = exec.waves.get_mut(key) else {
        return;
    };
    debug_assert_eq!(w.state, WaveState::MemPending);
    w.accesses_done += 1;
    w.state = WaveState::Computing;
    let (cu, simd, run_key) = (w.cu as usize, w.simd as usize, w.run);
    let segment = exec.runs[run_key].segment_cycles * shared.fault_scale();
    let s = &mut exec.cus[cu].simds[simd];
    // Fused advance + activate + predict: the activation always bumps the
    // generation, so the full reschedule would unconditionally rescan and
    // restamp anyway — compute the post-activation minimum inline instead.
    let min_rem = s.advance_min(now).min(segment);
    s.activate_with(key, segment);
    let t = s.predict_from_min(min_rem, now);
    let gen = s.generation();
    let stamp = fx.stamp();
    exec.write_pred(slot, t, stamp, gen);
}

fn finish_wave(st: &mut SimState, fx: &mut Effects<'_>, key: SlabKey, now: Cycle) {
    let (wg_done, wg) = {
        let SimState { shared, exec, .. } = st;
        let w = exec.waves.remove(key).expect("finishing a dead wave");
        let (cu, simd) = (w.cu as usize, w.simd as usize);
        shared.energy.add_compute(exec.runs[w.run].desc.profile.issue_cycles as f64);
        exec.cus[cu].simds[simd].release_slot();
        let wg = &mut exec.wgs[w.wg];
        wg.waves_done += 1;
        (wg.waves_done == wg.waves_total, w.wg)
    };
    if wg_done {
        complete_wg(st, fx, wg, now);
    }
}

fn complete_wg(st: &mut SimState, fx: &mut Effects<'_>, wg_key: SlabKey, now: Cycle) {
    let (run_key, q, job_id) = {
        let SimState { shared, exec, .. } = st;
        let wg = exec.wgs.remove(wg_key).expect("completing a dead WG");
        let run_key = wg.run;
        let desc: Arc<KernelDesc> = exec.runs[run_key].desc.clone();
        exec.cus[wg.cu as usize].release_wg(&desc);
        exec.runs[run_key].wgs_completed += 1;
        shared.counters.record_wg(desc.class, now);
        shared.total_wgs += 1;
        let q = exec.runs[run_key].queue;
        let job_id = exec.runs[run_key].job;
        let kernel_idx = exec.runs[run_key].kernel_idx;
        shared.probes.emit_with(now, || ProbeEvent::WgRetired {
            cu: wg.cu as u16,
            job: job_id,
            wg: wg_key,
        });
        shared.queues[q].job_mut().stages[kernel_idx].wgs_completed += 1;
        (run_key, q, job_id)
    };
    // Attribute the WG to real jobs for wasted-work accounting.
    host::attribute_wg(st, job_id);
    state::with_cp(st, now, |s, ctx| s.on_wg_complete(ctx, q));
    if st.exec.runs[run_key].is_complete() {
        complete_kernel(st, fx, q, run_key, now);
    }
    dispatch::try_dispatch(st, fx, now);
}

fn complete_kernel(
    st: &mut SimState,
    fx: &mut Effects<'_>,
    q: usize,
    run_key: SlabKey,
    now: Cycle,
) {
    let run = st.exec.runs.remove(run_key).expect("completing a dead run");
    let job_id = run.job;
    let kernel_idx = run.kernel_idx;
    let (complete, critical) = {
        let a = st.shared.queues[q].job_mut();
        a.complete_stage(kernel_idx);
        (a.is_complete(), a.job.graph().on_critical_path(kernel_idx))
    };
    st.shared.probes.emit_with(now, || ProbeEvent::KernelCompleted {
        job: job_id,
        queue: q,
        kernel: kernel_idx,
        critical,
    });
    state::with_cp(st, now, |s, ctx| s.on_kernel_complete(ctx, q));
    if job_id.0 < host::SYNTH_BASE && matches!(st.shared.mode, SchedulerMode::Host(_)) {
        // Chain-enqueued real job: notify the host of kernel progress.
        host::on_device_kernel_done(st, fx, job_id, kernel_idx, complete, now);
    }
    if complete {
        complete_job(st, fx, q, job_id, now);
    }
}

fn complete_job(st: &mut SimState, fx: &mut Effects<'_>, q: usize, job_id: JobId, now: Cycle) {
    state::with_cp(st, now, |s, ctx| s.on_job_complete(ctx, q));
    st.shared.queues[q].active = None;
    st.shared.queue_of_job.remove(&job_id);
    if job_id.0 >= host::SYNTH_BASE {
        host::complete_synth(st, fx, job_id.0, now);
    } else if matches!(st.shared.mode, SchedulerMode::Host(_)) {
        host::complete_real(st, fx, job_id, now);
    } else {
        st.shared.resolve(job_id, JobFate::Completed(now), now);
    }
    cp_frontend::pump(st, fx, now);
    dispatch::try_dispatch(st, fx, now);
}
