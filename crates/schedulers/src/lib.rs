//! # schedulers
//!
//! The ten baseline GPU job schedulers the paper compares LAX against
//! (Table 3), implemented over `gpu-sim`'s two attachment points:
//!
//! **CP-integrated** (run inside the command processor, fresh fine-grained
//! state):
//!
//! * `RR` — deadline-blind round-robin (built into `gpu-sim`, the
//!   contemporary-GPU baseline).
//! * [`cp_policies::Mlfq`] — two-level multi-level feedback queue.
//! * [`cp_policies::Edf`] — earliest-deadline-first, non-preemptive.
//! * [`cp_policies::Sjf`] / [`cp_policies::Ljf`] — static
//!   shortest/longest-job-first from offline profiles.
//! * [`cp_policies::Srf`] — shortest-remaining-time-first using LAX's
//!   dynamic estimator.
//! * [`prema::Prema`] — token-based predictive preemption (HPCA'20),
//!   extended to concurrent jobs as in the paper.
//!
//! **Host-side** (CPU scheduling with host-device latencies):
//!
//! * [`bat::Bat`] — BatchMaker-style cellular batching (EuroSys'18).
//! * [`bay::Bay`] — Baymax QoS-headroom scheduling with 50 us prediction
//!   overhead (ASPLOS'16).
//! * [`pro::Pro`] — Prophet utilization-driven co-scheduling (ASPLOS'17).
//!
//! [`registry`] builds any of them — plus LAX and its variants — by name.
//!
//! [`routing`] holds the cluster-level counterpart: the four
//! router/admission policies (`RR`, `LOW`, `P2C`, `LL`) that place jobs
//! across a fleet of devices, with the paper's laxity admission test
//! generalized to the front door.

#![warn(missing_docs)]

pub mod bat;
pub mod bay;
pub mod cp_policies;
pub mod host_common;
pub mod prema;
pub mod pro;
pub mod registry;
pub mod routing;
