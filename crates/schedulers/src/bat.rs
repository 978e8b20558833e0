//! BatchMaker (BAT) [Gao et al., EuroSys'18]: dynamic, cellular batching of
//! RNN inference on the host.
//!
//! Jobs whose next kernel is the same "cell" (same class, same position in
//! the chain) are merged into one launched kernel and executed lock-step.
//! A short accumulation window after each arrival lets batches form. BAT is
//! deadline-blind: batching maximizes efficiency but delays individual
//! jobs, which is exactly why it loses jobs under deadline pressure
//! (Section 6.1.1: geomean 23% fewer on-time jobs than RR).

use std::collections::BTreeMap;

use gpu_sim::host::{HostCmd, HostEvent, HostScheduler, HostView};
use gpu_sim::job::JobId;
use sim_core::time::{Cycle, Duration};

/// Accumulation window after an arrival before launching, letting
/// same-cell jobs coalesce.
const BATCH_WINDOW: Duration = Duration::from_us(20);

/// Maximum jobs merged into one launch.
const MAX_BATCH: usize = 32;

/// The BatchMaker scheduler.
#[derive(Debug, Default)]
pub struct Bat {
    /// Time of the currently armed accumulation wake-up, if any.
    armed: Option<Cycle>,
}

impl Bat {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Bat::default()
    }

    fn launch_batches(&mut self, view: &HostView<'_>, out: &mut Vec<HostCmd>) {
        // Group launchable jobs by (kernel position, class, wg size).
        let mut cells: BTreeMap<(usize, u16, u32), Vec<JobId>> = BTreeMap::new();
        for j in view.jobs {
            if !j.launchable() {
                continue;
            }
            let Some(k) = j.next_kernel_desc() else { continue };
            cells.entry((j.next_kernel, k.class.0, k.wg_size)).or_default().push(j.desc.id);
        }
        for ((kernel_idx, _, _), members) in cells {
            for chunk in members.chunks(MAX_BATCH) {
                out.push(HostCmd::LaunchBatch {
                    members: chunk.to_vec(),
                    kernel_idx,
                    extra: Duration::ZERO,
                    prio: 0,
                });
            }
        }
    }
}

impl HostScheduler for Bat {
    fn name(&self) -> &'static str {
        "BAT"
    }

    fn react(&mut self, event: HostEvent, view: &HostView<'_>, out: &mut Vec<HostCmd>) {
        match event {
            HostEvent::Arrival(_) => {
                // Accumulate: arm one wake-up per window rather than
                // launching immediately.
                if self.armed.is_none_or(|t| t <= view.now) {
                    let t = view.now + BATCH_WINDOW;
                    self.armed = Some(t);
                    out.push(HostCmd::WakeAt(t));
                }
            }
            HostEvent::Wake => {
                self.armed = None;
                self.launch_batches(view, out);
            }
            HostEvent::KernelDone { .. } => {
                // Members of a finished cell re-batch immediately for the
                // next cell (lock-step chains stay batched).
                self.launch_batches(view, out);
            }
            HostEvent::Tick => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::config::GpuConfig;
    use gpu_sim::counters::Counters;
    use gpu_sim::host::HostJob;
    use gpu_sim::job::JobDesc;
    use gpu_sim::kernel::{ComputeProfile, KernelClassId, KernelDesc};
    use std::sync::Arc;

    fn host_jobs(n: u32) -> Vec<HostJob> {
        (0..n)
            .map(|i| {
                let k = Arc::new(KernelDesc::new(
                    KernelClassId(0),
                    "k",
                    640,
                    64,
                    8,
                    0,
                    ComputeProfile::compute_only(10),
                ));
                HostJob::new(Arc::new(
                    JobDesc::chain(JobId(i), "b", vec![k], Duration::from_us(1_000), Cycle::ZERO)
                        .unwrap(),
                ))
            })
            .collect()
    }

    #[test]
    fn arrival_arms_a_window_then_wake_batches() {
        let jobs = host_jobs(3);
        let counters = Counters::new(1, Duration::from_us(100));
        let cfg = GpuConfig::default();
        let view = HostView {
            now: Cycle::ZERO,
            jobs: &jobs,
            counters: &counters,
            config: &cfg,
            inflight_kernels: 0,
        };
        let mut bat = Bat::new();
        let mut out = Vec::new();
        bat.react(HostEvent::Arrival(JobId(0)), &view, &mut out);
        assert!(matches!(out[0], HostCmd::WakeAt(_)));
        out.clear();
        // Second arrival inside the window does not re-arm.
        bat.react(HostEvent::Arrival(JobId(1)), &view, &mut out);
        assert!(out.is_empty());
        // Wake: all three launchable jobs batch into one launch.
        let view = HostView {
            now: Cycle::ZERO + BATCH_WINDOW,
            jobs: &jobs,
            counters: &counters,
            config: &cfg,
            inflight_kernels: 0,
        };
        bat.react(HostEvent::Wake, &view, &mut out);
        assert_eq!(out.len(), 1);
        match &out[0] {
            HostCmd::LaunchBatch { members, kernel_idx, .. } => {
                assert_eq!(members.len(), 3);
                assert_eq!(*kernel_idx, 0);
            }
            other => panic!("expected LaunchBatch, got {other:?}"),
        }
    }

    #[test]
    fn inflight_jobs_are_not_rebatched() {
        let mut jobs = host_jobs(2);
        jobs[0].inflight = true;
        let counters = Counters::new(1, Duration::from_us(100));
        let cfg = GpuConfig::default();
        let view = HostView {
            now: Cycle::ZERO,
            jobs: &jobs,
            counters: &counters,
            config: &cfg,
            inflight_kernels: 1,
        };
        let mut bat = Bat::new();
        let mut out = Vec::new();
        bat.react(HostEvent::Wake, &view, &mut out);
        match &out[0] {
            HostCmd::LaunchBatch { members, .. } => assert_eq!(members, &vec![JobId(1)]),
            other => panic!("unexpected {other:?}"),
        }
    }
}
