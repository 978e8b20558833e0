//! Helpers shared by the host-mode and probe integration tests: chain-job
//! builders and three small host schedulers.

use std::sync::Arc;

use gpu_sim::host::{HostCmd, HostEvent, HostScheduler, HostView};
use gpu_sim::prelude::*;

pub fn kernel(class: u16, issue: u64, threads: u32) -> Arc<KernelDesc> {
    Arc::new(KernelDesc::new(
        KernelClassId(class),
        format!("k{class}"),
        threads,
        threads.min(256),
        8,
        0,
        ComputeProfile::compute_only(issue),
    ))
}

pub fn job(id: u32, kernels: Vec<Arc<KernelDesc>>, deadline_us: u64, arrival_us: u64) -> JobDesc {
    JobDesc::chain(
        JobId(id),
        "host-test",
        kernels,
        Duration::from_us(deadline_us),
        Cycle::ZERO + Duration::from_us(arrival_us),
    )
    .unwrap()
}

/// Launches every job's kernels one at a time, FIFO.
#[derive(Debug, Default)]
pub struct FifoHost;

impl HostScheduler for FifoHost {
    fn name(&self) -> &'static str {
        "FIFO-HOST"
    }

    fn react(&mut self, _event: HostEvent, view: &HostView<'_>, out: &mut Vec<HostCmd>) {
        for j in view.jobs {
            if j.launchable() && j.next_kernel_desc().is_some() {
                out.push(HostCmd::Launch {
                    job: j.desc.id,
                    kernel_idx: j.next_kernel,
                    extra: Duration::ZERO,
                    prio: 0,
                });
            }
        }
    }
}

/// Rejects everything.
#[derive(Debug, Default)]
pub struct RejectAll;

impl HostScheduler for RejectAll {
    fn name(&self) -> &'static str {
        "REJECT-ALL"
    }

    fn react(&mut self, event: HostEvent, _view: &HostView<'_>, out: &mut Vec<HostCmd>) {
        if let HostEvent::Arrival(j) = event {
            out.push(HostCmd::Reject(j));
        }
    }
}

/// Enqueues whole chains with a fixed priority per job id (even ids first).
#[derive(Debug, Default)]
pub struct ChainHost;

impl HostScheduler for ChainHost {
    fn name(&self) -> &'static str {
        "CHAIN-HOST"
    }

    fn react(&mut self, event: HostEvent, _view: &HostView<'_>, out: &mut Vec<HostCmd>) {
        if let HostEvent::Arrival(j) = event {
            out.push(HostCmd::EnqueueChain {
                job: j,
                prio: (j.0 % 2) as i64,
            });
        }
    }
}
