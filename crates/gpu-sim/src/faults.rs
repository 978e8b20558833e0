//! Deterministic fault injection: typed, scheduled perturbations of the
//! simulated machine.
//!
//! The paper's headline claim is graceful degradation under load spikes and
//! transient slowdowns, but steady-state Poisson arrivals never exercise
//! those regimes. A [`FaultPlan`] describes a fixed schedule of typed fault
//! events — compute/memory slowdown windows, compute units going offline
//! (drain-and-restore), DRAM channel throttling, and arrival-burst storms —
//! that the simulator replays exactly.
//!
//! # Determinism contract
//!
//! * A plan is pure data. Two runs with the same jobs, scheduler and plan
//!   are bit-identical, on any thread of any sweep.
//! * [`FaultPlan::none`] injects nothing: the simulator schedules zero
//!   extra events and draws zero extra random numbers, so a `none` run is
//!   **bit-identical** to a run on a build without this module.
//! * [`FaultPlan::seeded`] derives the schedule from a `u64` seed (use the
//!   sweep cell's seed) via [`SimRng`], never from wall-clock or thread
//!   identity.
//!
//! # Semantics
//!
//! * **Slowdown** (`×k` on compute and memory): applies to compute segments
//!   *started* while the window is active (in-flight segments keep their
//!   original length) and to memory requests issued during the window.
//!   Overlapping windows multiply.
//! * **CU offline**: the unit stops accepting new workgroups; resident
//!   waves drain normally. At the window's end the CU is restored and the
//!   dispatcher re-runs.
//! * **DRAM throttle**: scales the per-line channel service time
//!   (bandwidth, not latency). Overlapping windows multiply.
//! * **Arrival burst**: compresses inter-arrival gaps for a contiguous
//!   fraction of the job stream, modelling a load storm. Bursts act at
//!   workload-generation time (see `workloads::burst`), before the
//!   simulator ever sees the jobs.

use std::fmt;

use sim_core::rng::{FaultDraws, SimRng};
use sim_core::time::{Cycle, Duration};

/// A transient whole-device slowdown: every compute segment started and
/// every memory request issued in `[at, until)` takes `factor` times as
/// long. Models thermal throttling, co-located interference, or DVFS dips.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowdown {
    /// Window start.
    pub at: Cycle,
    /// Window end (exclusive).
    pub until: Cycle,
    /// Stretch factor; must be `>= 1.0`.
    pub factor: f64,
}

/// A compute unit going offline for a window: no new workgroups are placed
/// on it, resident waves drain, and at `until` it is restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CuFault {
    /// Index of the compute unit (must be `< num_cus`).
    pub cu: u32,
    /// Offline from this instant.
    pub at: Cycle,
    /// Back online at this instant.
    pub until: Cycle,
}

/// A DRAM bandwidth throttle: per-line channel service time is multiplied
/// by `factor` during `[at, until)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramThrottle {
    /// Window start.
    pub at: Cycle,
    /// Window end (exclusive).
    pub until: Cycle,
    /// Service-time multiplier; must be `>= 1.0`.
    pub factor: f64,
}

/// An arrival-burst storm: the inter-arrival gaps of a contiguous slice of
/// the job stream are divided by `compression`, locally multiplying the
/// offered load. Fractions address the stream so one plan scales to any
/// job count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalBurst {
    /// Start of the burst as a fraction of the job stream, in `[0, 1)`.
    pub start_frac: f64,
    /// Length of the burst as a fraction of the job stream, in `(0, 1]`.
    pub len_frac: f64,
    /// Gap-compression factor; must be `>= 1.0` (1.0 is a no-op).
    pub compression: f64,
}

/// A complete, deterministic fault schedule for one simulation run.
///
/// # Examples
///
/// ```
/// use gpu_sim::faults::FaultPlan;
/// use sim_core::time::Duration;
///
/// assert!(FaultPlan::none().is_none());
/// let plan = FaultPlan::seeded(42, 1.0, Duration::from_ms(5), 8);
/// assert!(!plan.is_none());
/// assert_eq!(plan, FaultPlan::seeded(42, 1.0, Duration::from_ms(5), 8));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Whole-device compute/memory slowdown windows.
    pub slowdowns: Vec<Slowdown>,
    /// Compute-unit offline windows.
    pub cu_faults: Vec<CuFault>,
    /// DRAM bandwidth throttle windows.
    pub dram_throttles: Vec<DramThrottle>,
    /// Arrival-burst storms (applied by the workload layer).
    pub bursts: Vec<ArrivalBurst>,
}

impl FaultPlan {
    /// The empty plan. Runs built with it are bit-identical to runs that
    /// never mention faults at all.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// `true` when the plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.slowdowns.is_empty()
            && self.cu_faults.is_empty()
            && self.dram_throttles.is_empty()
            && self.bursts.is_empty()
    }

    /// Number of scheduled fault events (bursts count once each).
    pub fn len(&self) -> usize {
        self.slowdowns.len() + self.cu_faults.len() + self.dram_throttles.len() + self.bursts.len()
    }

    /// `true` when the plan is empty (alias of [`FaultPlan::is_none`] for
    /// the conventional pairing with [`FaultPlan::len`]).
    pub fn is_empty(&self) -> bool {
        self.is_none()
    }

    /// Generates a plan of the given `intensity` from a seed, placing fault
    /// windows uniformly over `[0, span)` on a machine with `num_cus`
    /// compute units.
    ///
    /// `intensity` scales both the number of fault windows and their
    /// severity; `0.0` returns [`FaultPlan::none`] exactly. At intensity
    /// 1.0 the plan carries roughly two slowdown windows (×2–×3), one or
    /// two CU-offline windows, one DRAM throttle and one arrival burst;
    /// counts and factors grow linearly from there.
    ///
    /// The schedule is a pure function of the arguments: the same
    /// `(seed, intensity, span, num_cus)` always yields the same plan, so
    /// sweeps over fault intensity stay bit-identical across worker counts.
    pub fn seeded(seed: u64, intensity: f64, span: Duration, num_cus: u32) -> FaultPlan {
        assert!(intensity >= 0.0, "fault intensity must be non-negative");
        assert!(num_cus > 0, "need at least one CU");
        if intensity == 0.0 || span.is_zero() {
            return FaultPlan::none();
        }
        // Independent sub-streams so adding one fault class never perturbs
        // another's schedule.
        let mut root = SimRng::seed_from(seed ^ 0x0FA0_17ED_5EED);
        let mut slow_rng = root.fork(1);
        let mut cu_rng = root.fork(2);
        let mut dram_rng = root.fork(3);
        let mut burst_rng = root.fork(4);
        let draws = FaultDraws::new(intensity, span);
        let mut plan = FaultPlan::none();
        for _ in 0..draws.count(&mut slow_rng, 2.0) {
            let (at, until) = draws.window(&mut slow_rng, 0.10);
            let factor = 1.5 + slow_rng.uniform_f64() * (1.0 + intensity);
            plan.slowdowns.push(Slowdown { at, until, factor });
        }
        for _ in 0..draws.count(&mut cu_rng, 1.5) {
            let (at, until) = draws.window(&mut cu_rng, 0.15);
            let cu = cu_rng.below(u64::from(num_cus)) as u32;
            plan.cu_faults.push(CuFault { cu, at, until });
        }
        for _ in 0..draws.count(&mut dram_rng, 1.0) {
            let (at, until) = draws.window(&mut dram_rng, 0.12);
            let factor = 2.0 + dram_rng.uniform_f64() * 2.0 * intensity;
            plan.dram_throttles.push(DramThrottle { at, until, factor });
        }
        for _ in 0..draws.count(&mut burst_rng, 1.0) {
            let start_frac = burst_rng.uniform_f64() * 0.8;
            let len_frac = 0.05 + burst_rng.uniform_f64() * 0.15;
            let compression = 2.0 + burst_rng.uniform_f64() * 2.0 * intensity;
            plan.bursts.push(ArrivalBurst {
                start_frac,
                len_frac: len_frac.min(1.0 - start_frac),
                compression,
            });
        }
        plan
    }

    /// Validates the plan against a machine with `num_cus` compute units.
    ///
    /// # Errors
    ///
    /// Returns the first ill-formed fault as a typed [`FaultPlanError`]: an
    /// empty or inverted window, a factor below 1.0, a CU index out of
    /// range, or a burst fraction outside the unit interval.
    pub fn validate(&self, num_cus: u32) -> Result<(), FaultPlanError> {
        for (index, s) in self.slowdowns.iter().enumerate() {
            if s.until <= s.at {
                return Err(FaultPlanError::EmptyWindow { kind: FaultKind::Slowdown, index });
            }
            if s.factor < 1.0 || !s.factor.is_finite() {
                return Err(FaultPlanError::FactorBelowOne {
                    kind: FaultKind::Slowdown,
                    index,
                    factor: s.factor,
                });
            }
        }
        for (index, c) in self.cu_faults.iter().enumerate() {
            if c.until <= c.at {
                return Err(FaultPlanError::EmptyWindow { kind: FaultKind::CuFault, index });
            }
            if c.cu >= num_cus {
                return Err(FaultPlanError::CuOutOfRange { index, cu: c.cu, num_cus });
            }
        }
        for (index, d) in self.dram_throttles.iter().enumerate() {
            if d.until <= d.at {
                return Err(FaultPlanError::EmptyWindow { kind: FaultKind::DramThrottle, index });
            }
            if d.factor < 1.0 || !d.factor.is_finite() {
                return Err(FaultPlanError::FactorBelowOne {
                    kind: FaultKind::DramThrottle,
                    index,
                    factor: d.factor,
                });
            }
        }
        for (index, b) in self.bursts.iter().enumerate() {
            if !(0.0..1.0).contains(&b.start_frac) {
                return Err(FaultPlanError::BurstStartOutOfRange { index, start_frac: b.start_frac });
            }
            if b.len_frac <= 0.0 || b.len_frac > 1.0 || b.len_frac.is_nan() {
                return Err(FaultPlanError::BurstLenOutOfRange { index, len_frac: b.len_frac });
            }
            if b.compression < 1.0 || !b.compression.is_finite() {
                return Err(FaultPlanError::FactorBelowOne {
                    kind: FaultKind::Burst,
                    index,
                    factor: b.compression,
                });
            }
        }
        Ok(())
    }

    /// The timed transitions the simulator schedules, in deterministic
    /// order (by time, then fault class, then plan index). Bursts are
    /// absent: they act at workload-generation time.
    pub fn transitions(&self) -> Vec<(Cycle, FaultAction)> {
        let mut out = Vec::with_capacity(2 * (self.len() - self.bursts.len()));
        for (i, s) in self.slowdowns.iter().enumerate() {
            out.push((s.at, FaultAction::SlowdownStart(i)));
            out.push((s.until, FaultAction::SlowdownEnd(i)));
        }
        for (i, c) in self.cu_faults.iter().enumerate() {
            out.push((c.at, FaultAction::CuOffline(i)));
            out.push((c.until, FaultAction::CuRestore(i)));
        }
        for (i, d) in self.dram_throttles.iter().enumerate() {
            out.push((d.at, FaultAction::ThrottleStart(i)));
            out.push((d.until, FaultAction::ThrottleEnd(i)));
        }
        out.sort_by_key(|&(t, a)| (t, a.class_order()));
        out
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return write!(f, "no faults");
        }
        write!(
            f,
            "{} slowdowns, {} CU faults, {} DRAM throttles, {} bursts",
            self.slowdowns.len(),
            self.cu_faults.len(),
            self.dram_throttles.len(),
            self.bursts.len()
        )
    }
}

/// Which fault list of a [`FaultPlan`] a [`FaultPlanError`] points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// [`FaultPlan::slowdowns`].
    Slowdown,
    /// [`FaultPlan::cu_faults`].
    CuFault,
    /// [`FaultPlan::dram_throttles`].
    DramThrottle,
    /// [`FaultPlan::bursts`].
    Burst,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Slowdown => "slowdown",
            FaultKind::CuFault => "cu fault",
            FaultKind::DramThrottle => "dram throttle",
            FaultKind::Burst => "burst",
        })
    }
}

/// Typed rejection from [`FaultPlan::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// A window's end does not lie strictly after its start.
    EmptyWindow {
        /// Offending fault class.
        kind: FaultKind,
        /// Index into that class's list.
        index: usize,
    },
    /// A stretch/throttle/compression factor below 1.0 (or non-finite).
    FactorBelowOne {
        /// Offending fault class.
        kind: FaultKind,
        /// Index into that class's list.
        index: usize,
        /// The offending factor.
        factor: f64,
    },
    /// A CU fault naming a unit the machine does not have.
    CuOutOfRange {
        /// Index into [`FaultPlan::cu_faults`].
        index: usize,
        /// The out-of-range CU index.
        cu: u32,
        /// CU count the plan was validated against.
        num_cus: u32,
    },
    /// A burst `start_frac` outside `[0, 1)`.
    BurstStartOutOfRange {
        /// Index into [`FaultPlan::bursts`].
        index: usize,
        /// The offending fraction.
        start_frac: f64,
    },
    /// A burst `len_frac` outside `(0, 1]`.
    BurstLenOutOfRange {
        /// Index into [`FaultPlan::bursts`].
        index: usize,
        /// The offending fraction.
        len_frac: f64,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::EmptyWindow { kind, index } => {
                write!(f, "{kind} {index}: empty window (end must lie after start)")
            }
            FaultPlanError::FactorBelowOne { kind: FaultKind::Burst, index, factor } => {
                write!(f, "burst {index}: compression {factor} must be >= 1.0")
            }
            FaultPlanError::FactorBelowOne { kind, index, factor } => {
                write!(f, "{kind} {index}: factor {factor} must be >= 1.0")
            }
            FaultPlanError::CuOutOfRange { index, cu, num_cus } => {
                write!(f, "cu fault {index}: CU {cu} out of range (machine has {num_cus})")
            }
            FaultPlanError::BurstStartOutOfRange { index, start_frac } => {
                write!(f, "burst {index}: start_frac {start_frac} outside [0, 1)")
            }
            FaultPlanError::BurstLenOutOfRange { index, len_frac } => {
                write!(f, "burst {index}: len_frac {len_frac} outside (0, 1]")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// One timed state transition derived from a [`FaultPlan`]; the payload is
/// an index into the plan's corresponding fault list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// A [`Slowdown`] window opens.
    SlowdownStart(usize),
    /// A [`Slowdown`] window closes.
    SlowdownEnd(usize),
    /// A [`CuFault`] takes the unit offline.
    CuOffline(usize),
    /// A [`CuFault`] window ends; the unit is restored.
    CuRestore(usize),
    /// A [`DramThrottle`] window opens.
    ThrottleStart(usize),
    /// A [`DramThrottle`] window closes.
    ThrottleEnd(usize),
}

impl FaultAction {
    /// Stable ordering key for equal-time transitions (ends before starts,
    /// so zero-gap windows never double-apply; then class, then index).
    fn class_order(self) -> (u8, u8, usize) {
        match self {
            FaultAction::SlowdownEnd(i) => (0, 0, i),
            FaultAction::CuRestore(i) => (0, 1, i),
            FaultAction::ThrottleEnd(i) => (0, 2, i),
            FaultAction::SlowdownStart(i) => (1, 0, i),
            FaultAction::CuOffline(i) => (1, 1, i),
            FaultAction::ThrottleStart(i) => (1, 2, i),
        }
    }
}

/// Live fault state the simulator consults on its hot paths: the product of
/// all currently open slowdown windows, and likewise for DRAM throttles.
///
/// Kept separate from [`FaultPlan`] so the plan stays immutable (and
/// reusable across runs) while the injector tracks what is active.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    slow_active: Vec<bool>,
    throttle_active: Vec<bool>,
}

impl FaultInjector {
    /// Creates an injector with no windows open yet.
    pub fn new(plan: FaultPlan) -> Self {
        let slow_active = vec![false; plan.slowdowns.len()];
        let throttle_active = vec![false; plan.dram_throttles.len()];
        FaultInjector { plan, slow_active, throttle_active }
    }

    /// The plan being replayed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Product of all open slowdown windows (`1.0` when none are open).
    pub fn slowdown_factor(&self) -> f64 {
        self.plan
            .slowdowns
            .iter()
            .zip(&self.slow_active)
            .filter(|&(_, &on)| on)
            .map(|(s, _)| s.factor)
            .product()
    }

    /// Product of all open DRAM throttle windows (`1.0` when none).
    pub fn dram_factor(&self) -> f64 {
        self.plan
            .dram_throttles
            .iter()
            .zip(&self.throttle_active)
            .filter(|&(_, &on)| on)
            .map(|(d, _)| d.factor)
            .product()
    }

    /// Applies one transition, returning what the simulator must do next.
    pub fn apply(&mut self, action: FaultAction) -> FaultEffect {
        match action {
            FaultAction::SlowdownStart(i) => {
                self.slow_active[i] = true;
                FaultEffect::None
            }
            FaultAction::SlowdownEnd(i) => {
                self.slow_active[i] = false;
                FaultEffect::None
            }
            FaultAction::CuOffline(i) => FaultEffect::SetCuOffline {
                cu: self.plan.cu_faults[i].cu as usize,
                offline: true,
            },
            FaultAction::CuRestore(i) => FaultEffect::SetCuOffline {
                cu: self.plan.cu_faults[i].cu as usize,
                offline: false,
            },
            FaultAction::ThrottleStart(i) => {
                self.throttle_active[i] = true;
                FaultEffect::SetDramScale(self.dram_factor())
            }
            FaultAction::ThrottleEnd(i) => {
                self.throttle_active[i] = false;
                FaultEffect::SetDramScale(self.dram_factor())
            }
        }
    }
}

/// What the simulator must change after a [`FaultInjector::apply`]; the
/// injector itself owns no machine state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEffect {
    /// Nothing beyond the injector's own bookkeeping (slowdowns are read
    /// back lazily via [`FaultInjector::slowdown_factor`]).
    None,
    /// Mark a CU offline/online and re-run dispatch.
    SetCuOffline {
        /// Index of the compute unit.
        cu: usize,
        /// `true` to take it offline.
        offline: bool,
    },
    /// Push the new aggregate DRAM service-time scale into the memory
    /// hierarchy.
    SetDramScale(f64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_empty_and_valid() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert!(p.transitions().is_empty());
        assert!(p.validate(1).is_ok());
        assert_eq!(p.to_string(), "no faults");
    }

    #[test]
    fn seeded_is_deterministic_and_scales_with_intensity() {
        let span = Duration::from_ms(10);
        let a = FaultPlan::seeded(7, 1.0, span, 8);
        let b = FaultPlan::seeded(7, 1.0, span, 8);
        assert_eq!(a, b, "same arguments, same plan");
        assert!(a.validate(8).is_ok());
        assert_ne!(a, FaultPlan::seeded(8, 1.0, span, 8), "seed perturbs the plan");
        assert_eq!(FaultPlan::seeded(7, 0.0, span, 8), FaultPlan::none());
        // Averaged over seeds, higher intensity means more fault events.
        let total = |i: f64| -> usize { (0..32).map(|s| FaultPlan::seeded(s, i, span, 8).len()).sum() };
        assert!(total(3.0) > total(0.5), "intensity should scale event counts");
    }

    #[test]
    fn transitions_are_sorted_with_ends_before_starts() {
        let t = Cycle::from_cycles;
        let plan = FaultPlan {
            slowdowns: vec![Slowdown { at: t(100), until: t(200), factor: 2.0 }],
            cu_faults: vec![CuFault { cu: 0, at: t(200), until: t(300) }],
            dram_throttles: vec![DramThrottle { at: t(50), until: t(100), factor: 2.0 }],
            bursts: vec![ArrivalBurst { start_frac: 0.0, len_frac: 0.5, compression: 2.0 }],
        };
        let tr = plan.transitions();
        assert_eq!(tr.len(), 6, "bursts do not produce sim transitions");
        let times: Vec<u64> = tr.iter().map(|(c, _)| c.as_cycles()).collect();
        assert_eq!(times, vec![50, 100, 100, 200, 200, 300]);
        // At t=100 the throttle END precedes the slowdown START; at t=200
        // the slowdown END precedes the CU offline START.
        assert_eq!(tr[1].1, FaultAction::ThrottleEnd(0));
        assert_eq!(tr[2].1, FaultAction::SlowdownStart(0));
        assert_eq!(tr[3].1, FaultAction::SlowdownEnd(0));
        assert_eq!(tr[4].1, FaultAction::CuOffline(0));
    }

    #[test]
    fn validate_rejects_ill_formed_faults() {
        let t = Cycle::from_cycles;
        let bad_window = FaultPlan {
            slowdowns: vec![Slowdown { at: t(10), until: t(10), factor: 2.0 }],
            ..FaultPlan::none()
        };
        let err = bad_window.validate(8).unwrap_err();
        assert_eq!(err, FaultPlanError::EmptyWindow { kind: FaultKind::Slowdown, index: 0 });
        assert!(err.to_string().contains("empty window"));
        let bad_factor = FaultPlan {
            slowdowns: vec![Slowdown { at: t(0), until: t(10), factor: 0.5 }],
            ..FaultPlan::none()
        };
        let err = bad_factor.validate(8).unwrap_err();
        assert!(matches!(err, FaultPlanError::FactorBelowOne { factor, .. } if factor == 0.5));
        assert!(err.to_string().contains("factor"));
        let bad_cu = FaultPlan {
            cu_faults: vec![CuFault { cu: 9, at: t(0), until: t(10) }],
            ..FaultPlan::none()
        };
        let err = bad_cu.validate(8).unwrap_err();
        assert_eq!(err, FaultPlanError::CuOutOfRange { index: 0, cu: 9, num_cus: 8 });
        assert!(err.to_string().contains("out of range"));
        let bad_burst = FaultPlan {
            bursts: vec![ArrivalBurst { start_frac: 1.5, len_frac: 0.1, compression: 2.0 }],
            ..FaultPlan::none()
        };
        let err = bad_burst.validate(8).unwrap_err();
        assert!(matches!(err, FaultPlanError::BurstStartOutOfRange { .. }));
        assert!(err.to_string().contains("start_frac"));
        let nan_compression = FaultPlan {
            bursts: vec![ArrivalBurst { start_frac: 0.0, len_frac: 0.1, compression: f64::NAN }],
            ..FaultPlan::none()
        };
        assert!(nan_compression.validate(8).is_err());
    }

    #[test]
    fn injector_tracks_overlapping_windows_multiplicatively() {
        let t = Cycle::from_cycles;
        let plan = FaultPlan {
            slowdowns: vec![
                Slowdown { at: t(0), until: t(100), factor: 2.0 },
                Slowdown { at: t(50), until: t(150), factor: 3.0 },
            ],
            dram_throttles: vec![DramThrottle { at: t(0), until: t(10), factor: 4.0 }],
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.slowdown_factor(), 1.0);
        inj.apply(FaultAction::SlowdownStart(0));
        assert_eq!(inj.slowdown_factor(), 2.0);
        inj.apply(FaultAction::SlowdownStart(1));
        assert_eq!(inj.slowdown_factor(), 6.0);
        inj.apply(FaultAction::SlowdownEnd(0));
        assert_eq!(inj.slowdown_factor(), 3.0);
        assert_eq!(
            inj.apply(FaultAction::ThrottleStart(0)),
            FaultEffect::SetDramScale(4.0)
        );
        assert_eq!(inj.apply(FaultAction::ThrottleEnd(0)), FaultEffect::SetDramScale(1.0));
    }

    #[test]
    fn injector_reports_cu_effects() {
        let t = Cycle::from_cycles;
        let plan = FaultPlan {
            cu_faults: vec![CuFault { cu: 3, at: t(0), until: t(10) }],
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan);
        assert_eq!(
            inj.apply(FaultAction::CuOffline(0)),
            FaultEffect::SetCuOffline { cu: 3, offline: true }
        );
        assert_eq!(
            inj.apply(FaultAction::CuRestore(0)),
            FaultEffect::SetCuOffline { cu: 3, offline: false }
        );
    }
}
