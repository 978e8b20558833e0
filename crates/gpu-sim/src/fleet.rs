//! Fleet front end: device fidelity tiers for cluster-scale simulation.
//!
//! A cluster run drives N devices behind a router. At million-job scale the
//! full event-driven machine (~20k events per RNN job) is unaffordable, so
//! the fleet layer offers two tiers:
//!
//! * **Fast** — each device is a [`FastDevice`]: a `c`-slot queueing model
//!   served at the calibrated isolated service time of each job's kernel
//!   chain (one slot per compute unit: the same capacity abstraction the
//!   router's free-time model uses). A seeded per-device jitter widens
//!   service times slightly so devices are not bit-for-bit clones, and
//!   straggler windows stretch bookings that start inside them. Costs O(1)
//!   per booking; a million jobs route and execute in seconds.
//! * **Detailed** — each device is a full [`crate::sim::Simulation`]; the
//!   cluster layer materializes kernel chains per surviving booking. Costs
//!   what the single-device simulator costs; used for smokes and fidelity
//!   cross-checks.
//!
//! [`FastDevice`] is the fleet's one booking model and lives here (it only
//! needs `sim-core` types). Both tiers book through it — the detailed tier
//! with jitter 0 and no straggler windows, only to decide which bookings a
//! device crash loses. The cluster engine, which owns routing, fault
//! replay, workload materialization and outcome accounting, is assembled
//! by the bench crate.
//!
//! # Fleet failure model
//!
//! Production fleets lose devices; a [`FleetFaultPlan`] is the cluster-level
//! counterpart of the single-device [`crate::faults::FaultPlan`]: a seeded,
//! pure-data schedule of typed fleet fault events — device **crashes**
//! (down for a window, in-flight jobs lost, restored empty), **drain
//! windows** (planned restarts: no new placements, in-flight work
//! completes), per-device **straggler windows** (a service-time multiplier)
//! and **correlated outages** (a contiguous device range crashing together,
//! modelling a rack or power-domain failure). The same determinism contract
//! as `FaultPlan` holds: plans derive from the *workload cell's* seed,
//! never from the routing policy or worker identity, so paired policy
//! comparisons and `--jobs N` bit-identity survive fault injection.

use std::fmt;
use std::str::FromStr;

use sim_core::rng::SimRng;
use sim_core::time::{Cycle, Duration};

/// How much machinery each cluster device runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// Calibrated queueing model, O(1) per job (the default: million-job
    /// runs are its reason to exist).
    #[default]
    Fast,
    /// Full event-driven simulation per device.
    Detailed,
}

impl Fidelity {
    /// Display name (`fast` / `detailed`).
    pub fn name(self) -> &'static str {
        match self {
            Fidelity::Fast => "fast",
            Fidelity::Detailed => "detailed",
        }
    }
}

impl std::fmt::Display for Fidelity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a [`Fidelity`] from its display name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFidelityError(String);

impl std::fmt::Display for ParseFidelityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown fidelity `{}` (known: fast, detailed)", self.0)
    }
}

impl std::error::Error for ParseFidelityError {}

impl FromStr for Fidelity {
    type Err = ParseFidelityError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fast" => Ok(Fidelity::Fast),
            "detailed" => Ok(Fidelity::Detailed),
            _ => Err(ParseFidelityError(s.to_string())),
        }
    }
}

/// The fleet's one booking model: a device as `c` FIFO service slots, each
/// booking served at its calibrated isolated service time.
///
/// A booking takes the earliest-free slot and starts at the later of its
/// entry instant and that slot's free time. Its service is the calibrated
/// estimate times a seeded jitter multiplier drawn uniformly from
/// `[1 - jitter, 1 + jitter]` (one draw per booking, in booking order; no
/// draw at all when `jitter` is 0), times the product of the factors of
/// every straggler window containing the start instant.
///
/// # Examples
///
/// ```
/// use gpu_sim::fleet::FastDevice;
/// use sim_core::time::{Cycle, Duration};
///
/// let mut dev = FastDevice::new(1, 0.0, 7);
/// let a = dev.book(Cycle::ZERO, Duration::from_us(100));
/// let b = dev.book(Cycle::ZERO + Duration::from_us(30), Duration::from_us(80));
/// assert_eq!(a.completion, b.start, "one slot: the second booking queues");
/// assert_eq!(b.completion.as_us_f64(), 180.0);
/// ```
#[derive(Debug, Clone)]
pub struct FastDevice {
    /// Free-at instant of each slot.
    slots: Vec<Cycle>,
    jitter: f64,
    rng: SimRng,
    /// `(at, until, factor)` of this device's straggler windows.
    stragglers: Vec<(Cycle, Cycle, f64)>,
}

/// When one [`FastDevice`] booking is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Service {
    /// Service start: the slot grab, so `start - entry` is queueing delay.
    pub start: Cycle,
    /// Completion instant.
    pub completion: Cycle,
}

impl FastDevice {
    /// An idle device with `slots` service slots (one per compute unit
    /// models the machine's job-level parallelism), service-jitter
    /// half-width `jitter`, and the seed of its jitter stream. The cluster
    /// layer hashes the seed from the workload cell and device index, never
    /// from the routing policy, so policy comparisons stay paired.
    ///
    /// `slots` must be at least 1 and `jitter` must lie in `[0, 1)`; the
    /// cluster layer rejects other values with a typed error before it
    /// builds any device.
    pub fn new(slots: usize, jitter: f64, seed: u64) -> Self {
        FastDevice {
            slots: vec![Cycle::ZERO; slots],
            jitter,
            rng: SimRng::seed_from(seed),
            stragglers: Vec::new(),
        }
    }

    /// The same device with straggler windows: a booking that *starts*
    /// inside `[at, until)` takes `factor` times its service, and
    /// overlapping windows multiply. Pass only this device's windows.
    pub fn with_stragglers<'a>(
        mut self,
        windows: impl IntoIterator<Item = &'a StragglerWindow>,
    ) -> Self {
        self.stragglers.extend(windows.into_iter().map(|w| (w.at, w.until, w.factor)));
        self
    }

    /// Books one job entering at `entry` with calibrated service
    /// `service_est`. Entries must not decrease from one booking to the
    /// next.
    ///
    /// # Panics
    ///
    /// Panics if the device was built with zero slots.
    pub fn book(&mut self, entry: Cycle, service_est: Duration) -> Service {
        let service = if self.jitter == 0.0 {
            service_est
        } else {
            let m = 1.0 - self.jitter + 2.0 * self.jitter * self.rng.uniform_f64();
            service_est.mul_f64(m)
        };
        let slot = self.slots.iter_mut().min().expect("a device needs at least one slot");
        let start = (*slot).max(entry);
        let factor: f64 = self
            .stragglers
            .iter()
            .filter(|&&(at, until, _)| at <= start && start < until)
            .map(|&(_, _, f)| f)
            .product();
        // Apply only a real stretch: `mul_f64(1.0)` is arithmetically a
        // no-op but must also be one bit for bit.
        let service = if factor != 1.0 { service.mul_f64(factor) } else { service };
        let completion = start + service;
        *slot = completion;
        Service { start, completion }
    }

    /// Restores the device empty at `at`: every slot is free from then on.
    pub fn restore(&mut self, at: Cycle) {
        self.slots.fill(at);
    }
}

/// Router-visible availability of one fleet device.
///
/// Driven by [`FleetFaultPlan`] transitions at the cluster layer; routing
/// policies place work only on [`DeviceHealth::Up`] devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeviceHealth {
    /// Accepting new work.
    #[default]
    Up,
    /// Finishing in-flight work but accepting no new placements (a planned
    /// restart's drain phase).
    Draining,
    /// Crashed: out of rotation, in-flight work lost.
    Down,
}

impl DeviceHealth {
    /// Display name (`up` / `draining` / `down`).
    pub fn name(self) -> &'static str {
        match self {
            DeviceHealth::Up => "up",
            DeviceHealth::Draining => "draining",
            DeviceHealth::Down => "down",
        }
    }
}

impl fmt::Display for DeviceHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A device crash: down for `[at, until)`, in-flight and queued jobs lost,
/// restored with an empty queue at `until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceCrash {
    /// Index of the crashing device (must be `< devices`).
    pub device: u32,
    /// Crash instant.
    pub at: Cycle,
    /// Restore instant (exclusive end of the down window).
    pub until: Cycle,
}

/// A planned drain-restore window: the device stops accepting new work at
/// `at`, finishes whatever is in flight, and rejoins rotation at `until`.
/// Nothing is lost — the maintenance counterpart of [`DeviceCrash`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceDrain {
    /// Index of the draining device (must be `< devices`).
    pub device: u32,
    /// Drain start.
    pub at: Cycle,
    /// Back in rotation at this instant.
    pub until: Cycle,
}

/// A straggler window: jobs *started* on the device during `[at, until)`
/// take `factor` times their calibrated service time. Models a degraded
/// replica — thermal throttling, a failing DIMM, noisy co-tenancy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerWindow {
    /// Index of the straggling device (must be `< devices`).
    pub device: u32,
    /// Window start.
    pub at: Cycle,
    /// Window end (exclusive).
    pub until: Cycle,
    /// Service-time multiplier; must be `>= 1.0`. Overlapping windows on
    /// one device multiply.
    pub factor: f64,
}

/// A correlated multi-device outage: the contiguous device range
/// `[first, first + count)` crashes together for `[at, until)` — a rack,
/// power-domain or top-of-rack-switch failure. Semantics per device are
/// exactly [`DeviceCrash`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorrelatedOutage {
    /// First device of the range.
    pub first: u32,
    /// Devices in the range (must be `>= 1` and fit in the fleet).
    pub count: u32,
    /// Crash instant for the whole range.
    pub at: Cycle,
    /// Restore instant for the whole range.
    pub until: Cycle,
}

/// A complete, deterministic fleet fault schedule for one cluster run —
/// the cluster counterpart of [`crate::faults::FaultPlan`].
///
/// # Examples
///
/// ```
/// use gpu_sim::fleet::FleetFaultPlan;
/// use sim_core::time::Duration;
///
/// assert!(FleetFaultPlan::none().is_none());
/// let plan = FleetFaultPlan::seeded(42, 1.0, Duration::from_ms(50), 8);
/// assert!(!plan.is_none());
/// assert_eq!(plan, FleetFaultPlan::seeded(42, 1.0, Duration::from_ms(50), 8));
/// assert!(plan.validate(8).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetFaultPlan {
    /// Single-device crash windows.
    pub crashes: Vec<DeviceCrash>,
    /// Planned drain-restore windows.
    pub drains: Vec<DeviceDrain>,
    /// Per-device straggler windows.
    pub stragglers: Vec<StragglerWindow>,
    /// Correlated multi-device outages.
    pub outages: Vec<CorrelatedOutage>,
}

impl FleetFaultPlan {
    /// The empty plan: a cluster run built with it is bit-identical to one
    /// that never mentions fleet faults at all.
    pub fn none() -> Self {
        FleetFaultPlan::default()
    }

    /// `true` when the plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.crashes.is_empty()
            && self.drains.is_empty()
            && self.stragglers.is_empty()
            && self.outages.is_empty()
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.crashes.len() + self.drains.len() + self.stragglers.len() + self.outages.len()
    }

    /// `true` when the plan is empty (alias of [`FleetFaultPlan::is_none`]
    /// for the conventional pairing with [`FleetFaultPlan::len`]).
    pub fn is_empty(&self) -> bool {
        self.is_none()
    }

    /// Generates a plan of the given `intensity` from a seed, placing fault
    /// windows uniformly over `[0, span)` on a fleet of `devices` devices.
    ///
    /// `intensity` scales both how many fault windows the plan carries and
    /// how severe they are; `0.0` returns [`FleetFaultPlan::none`] exactly
    /// (the intensity-0 run is bit-identical to a fault-free one). At
    /// intensity 1.0 on an 8-device fleet the plan carries roughly two
    /// crashes, one drain, three straggler windows (×1.5–×3) and an even
    /// chance of one correlated two-to-three-device outage; crash and
    /// straggler counts also scale with fleet size so larger fleets see
    /// proportionally many failures.
    ///
    /// The schedule is a pure function of the arguments — seed it from the
    /// workload cell (never the routing policy) so policy comparisons stay
    /// paired and `--jobs N` bit-identity holds.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is negative or `devices` is zero.
    pub fn seeded(seed: u64, intensity: f64, span: Duration, devices: u32) -> FleetFaultPlan {
        assert!(intensity >= 0.0, "fleet fault intensity must be non-negative");
        assert!(devices > 0, "a fleet needs at least one device");
        if intensity == 0.0 || span.is_zero() {
            return FleetFaultPlan::none();
        }
        // Independent sub-streams so adding one fault class never perturbs
        // another's schedule (same idiom as `FaultPlan::seeded`).
        let mut root = SimRng::seed_from(seed ^ 0xF1EE_7FA0_17ED);
        let mut crash_rng = root.fork(1);
        let mut drain_rng = root.fork(2);
        let mut strag_rng = root.fork(3);
        let mut outage_rng = root.fork(4);
        let span_cycles = span.as_cycles();
        let count = |r: &mut SimRng, mean: f64| -> usize {
            // Deterministic rounding of a scaled count: floor + Bernoulli
            // on the fractional part.
            let scaled = mean * intensity;
            let base = scaled.floor();
            let extra = usize::from(r.uniform_f64() < (scaled - base));
            base as usize + extra
        };
        let window = |r: &mut SimRng, frac: f64| -> (Cycle, Cycle) {
            let len = ((span_cycles as f64 * frac).max(1.0)) as u64;
            let start = r.below(span_cycles.saturating_sub(len).max(1));
            (Cycle::from_cycles(start), Cycle::from_cycles(start + len))
        };
        let per_fleet = (f64::from(devices) / 8.0).max(1.0);
        let mut plan = FleetFaultPlan::none();
        for _ in 0..count(&mut crash_rng, 2.0 * per_fleet) {
            let (at, until) = window(&mut crash_rng, 0.10 + 0.05 * intensity.min(2.0));
            let device = crash_rng.below(u64::from(devices)) as u32;
            plan.crashes.push(DeviceCrash { device, at, until });
        }
        for _ in 0..count(&mut drain_rng, 1.0) {
            let (at, until) = window(&mut drain_rng, 0.10);
            let device = drain_rng.below(u64::from(devices)) as u32;
            plan.drains.push(DeviceDrain { device, at, until });
        }
        for _ in 0..count(&mut strag_rng, 3.0 * per_fleet) {
            let (at, until) = window(&mut strag_rng, 0.20);
            let device = strag_rng.below(u64::from(devices)) as u32;
            let factor = 1.5 + strag_rng.uniform_f64() * (0.5 + intensity);
            plan.stragglers.push(StragglerWindow { device, at, until, factor });
        }
        if devices >= 2 {
            for _ in 0..count(&mut outage_rng, 0.5) {
                let (at, until) = window(&mut outage_rng, 0.08);
                let max_width = (u64::from(devices) / 2).max(2);
                let count = (2 + outage_rng.below(max_width.saturating_sub(1).max(1))) as u32;
                let count = count.min(devices);
                let first = outage_rng.below(u64::from(devices - count) + 1) as u32;
                plan.outages.push(CorrelatedOutage { first, count, at, until });
            }
        }
        plan
    }

    /// Validates the plan against a fleet of `devices` devices.
    ///
    /// # Errors
    ///
    /// Returns the first ill-formed fault as a typed [`FleetFaultError`]:
    /// an empty or inverted window, a straggler factor below 1.0, a device
    /// index out of range, or an outage range that is empty or overruns the
    /// fleet.
    pub fn validate(&self, devices: u32) -> Result<(), FleetFaultError> {
        for (index, c) in self.crashes.iter().enumerate() {
            if c.until <= c.at {
                return Err(FleetFaultError::EmptyWindow { kind: FleetFaultKind::Crash, index });
            }
            if c.device >= devices {
                return Err(FleetFaultError::DeviceOutOfRange {
                    kind: FleetFaultKind::Crash,
                    index,
                    device: c.device,
                    devices,
                });
            }
        }
        for (index, d) in self.drains.iter().enumerate() {
            if d.until <= d.at {
                return Err(FleetFaultError::EmptyWindow { kind: FleetFaultKind::Drain, index });
            }
            if d.device >= devices {
                return Err(FleetFaultError::DeviceOutOfRange {
                    kind: FleetFaultKind::Drain,
                    index,
                    device: d.device,
                    devices,
                });
            }
        }
        for (index, s) in self.stragglers.iter().enumerate() {
            if s.until <= s.at {
                return Err(FleetFaultError::EmptyWindow {
                    kind: FleetFaultKind::Straggler,
                    index,
                });
            }
            if s.device >= devices {
                return Err(FleetFaultError::DeviceOutOfRange {
                    kind: FleetFaultKind::Straggler,
                    index,
                    device: s.device,
                    devices,
                });
            }
            if s.factor < 1.0 || !s.factor.is_finite() {
                return Err(FleetFaultError::FactorBelowOne { index, factor: s.factor });
            }
        }
        for (index, o) in self.outages.iter().enumerate() {
            if o.until <= o.at {
                return Err(FleetFaultError::EmptyWindow { kind: FleetFaultKind::Outage, index });
            }
            if o.count == 0 {
                return Err(FleetFaultError::EmptyOutage { index });
            }
            if u64::from(o.first) + u64::from(o.count) > u64::from(devices) {
                return Err(FleetFaultError::OutageTooWide {
                    index,
                    first: o.first,
                    count: o.count,
                    devices,
                });
            }
        }
        Ok(())
    }

    /// The timed transitions the cluster layer replays, in deterministic
    /// order: by time, with window *ends before starts* at equal instants
    /// (so a zero-gap crash-restore-crash never loses the same job twice),
    /// then fault class, then plan index.
    pub fn transitions(&self) -> Vec<(Cycle, FleetFaultAction)> {
        let mut out = Vec::with_capacity(2 * self.len());
        for (i, c) in self.crashes.iter().enumerate() {
            out.push((c.at, FleetFaultAction::CrashStart(i)));
            out.push((c.until, FleetFaultAction::CrashEnd(i)));
        }
        for (i, d) in self.drains.iter().enumerate() {
            out.push((d.at, FleetFaultAction::DrainStart(i)));
            out.push((d.until, FleetFaultAction::DrainEnd(i)));
        }
        for (i, s) in self.stragglers.iter().enumerate() {
            out.push((s.at, FleetFaultAction::StragglerStart(i)));
            out.push((s.until, FleetFaultAction::StragglerEnd(i)));
        }
        for (i, o) in self.outages.iter().enumerate() {
            out.push((o.at, FleetFaultAction::OutageStart(i)));
            out.push((o.until, FleetFaultAction::OutageEnd(i)));
        }
        out.sort_by_key(|&(t, a)| (t, a.class_order()));
        out
    }
}

impl fmt::Display for FleetFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return write!(f, "no fleet faults");
        }
        write!(
            f,
            "{} crashes, {} drains, {} stragglers, {} outages",
            self.crashes.len(),
            self.drains.len(),
            self.stragglers.len(),
            self.outages.len()
        )
    }
}

/// One timed state transition derived from a [`FleetFaultPlan`]; the
/// payload indexes the plan's corresponding fault list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetFaultAction {
    /// A [`DeviceCrash`] takes the device down.
    CrashStart(usize),
    /// A [`DeviceCrash`] window ends; the device restores empty.
    CrashEnd(usize),
    /// A [`DeviceDrain`] stops new placements.
    DrainStart(usize),
    /// A [`DeviceDrain`] window ends; the device rejoins rotation.
    DrainEnd(usize),
    /// A [`StragglerWindow`] opens.
    StragglerStart(usize),
    /// A [`StragglerWindow`] closes.
    StragglerEnd(usize),
    /// A [`CorrelatedOutage`] takes its device range down.
    OutageStart(usize),
    /// A [`CorrelatedOutage`] window ends; the range restores empty.
    OutageEnd(usize),
}

impl FleetFaultAction {
    /// Stable ordering key for equal-time transitions (ends before starts,
    /// then class, then index).
    fn class_order(self) -> (u8, u8, usize) {
        match self {
            FleetFaultAction::CrashEnd(i) => (0, 0, i),
            FleetFaultAction::OutageEnd(i) => (0, 1, i),
            FleetFaultAction::DrainEnd(i) => (0, 2, i),
            FleetFaultAction::StragglerEnd(i) => (0, 3, i),
            FleetFaultAction::CrashStart(i) => (1, 0, i),
            FleetFaultAction::OutageStart(i) => (1, 1, i),
            FleetFaultAction::DrainStart(i) => (1, 2, i),
            FleetFaultAction::StragglerStart(i) => (1, 3, i),
        }
    }
}

/// Which fault list of a [`FleetFaultPlan`] a [`FleetFaultError`] points
/// into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetFaultKind {
    /// [`FleetFaultPlan::crashes`].
    Crash,
    /// [`FleetFaultPlan::drains`].
    Drain,
    /// [`FleetFaultPlan::stragglers`].
    Straggler,
    /// [`FleetFaultPlan::outages`].
    Outage,
}

impl fmt::Display for FleetFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FleetFaultKind::Crash => "crash",
            FleetFaultKind::Drain => "drain",
            FleetFaultKind::Straggler => "straggler",
            FleetFaultKind::Outage => "outage",
        })
    }
}

/// Typed rejection from [`FleetFaultPlan::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetFaultError {
    /// A window's end does not lie strictly after its start.
    EmptyWindow {
        /// Offending fault class.
        kind: FleetFaultKind,
        /// Index into that class's list.
        index: usize,
    },
    /// A fault names a device the fleet does not have.
    DeviceOutOfRange {
        /// Offending fault class.
        kind: FleetFaultKind,
        /// Index into that class's list.
        index: usize,
        /// The out-of-range device index.
        device: u32,
        /// Fleet size the plan was validated against.
        devices: u32,
    },
    /// A straggler factor below 1.0 (or non-finite).
    FactorBelowOne {
        /// Index into [`FleetFaultPlan::stragglers`].
        index: usize,
        /// The offending factor.
        factor: f64,
    },
    /// An outage with `count == 0`.
    EmptyOutage {
        /// Index into [`FleetFaultPlan::outages`].
        index: usize,
    },
    /// An outage range overrunning the fleet.
    OutageTooWide {
        /// Index into [`FleetFaultPlan::outages`].
        index: usize,
        /// First device of the range.
        first: u32,
        /// Devices in the range.
        count: u32,
        /// Fleet size the plan was validated against.
        devices: u32,
    },
}

impl fmt::Display for FleetFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetFaultError::EmptyWindow { kind, index } => {
                write!(f, "{kind} {index}: empty window (end must lie after start)")
            }
            FleetFaultError::DeviceOutOfRange { kind, index, device, devices } => {
                write!(f, "{kind} {index}: device {device} out of range (fleet has {devices})")
            }
            FleetFaultError::FactorBelowOne { index, factor } => {
                write!(f, "straggler {index}: factor {factor} must be >= 1.0")
            }
            FleetFaultError::EmptyOutage { index } => {
                write!(f, "outage {index}: empty device range")
            }
            FleetFaultError::OutageTooWide { index, first, count, devices } => {
                write!(
                    f,
                    "outage {index}: devices [{first}, {}) out of range (fleet has {devices})",
                    first + count
                )
            }
        }
    }
}

impl std::error::Error for FleetFaultError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(t: u64) -> Cycle {
        Cycle::ZERO + Duration::from_us(t)
    }

    /// Books `(entry_us, service_us)` pairs in order, returning each
    /// booking's `(start_us, completion_us)`.
    fn book_all(dev: &mut FastDevice, jobs: &[(u64, u64)]) -> Vec<(f64, f64)> {
        jobs.iter()
            .map(|&(entry, service)| {
                let s = dev.book(us(entry), Duration::from_us(service));
                (s.start.as_us_f64(), s.completion.as_us_f64())
            })
            .collect()
    }

    #[test]
    fn fidelity_names_round_trip() {
        assert_eq!("fast".parse::<Fidelity>().unwrap(), Fidelity::Fast);
        assert_eq!("DETAILED".parse::<Fidelity>().unwrap(), Fidelity::Detailed);
        let err = "cinematic".parse::<Fidelity>().unwrap_err();
        assert!(err.to_string().contains("cinematic"));
    }

    #[test]
    fn single_slot_fifo_queueing_math_is_exact() {
        // Job 0: [0, 100); job 1 enters at 30, waits until 100, done 180;
        // job 2 enters at 250 on an idle device, done 300.
        let mut dev = FastDevice::new(1, 0.0, 1);
        let got = book_all(&mut dev, &[(0, 100), (30, 80), (250, 50)]);
        assert_eq!(got, vec![(0.0, 100.0), (100.0, 180.0), (250.0, 300.0)]);
    }

    #[test]
    fn extra_slots_overlap_service() {
        let jobs = [(0, 100), (0, 100), (0, 100)];
        let last = |slots| book_all(&mut FastDevice::new(slots, 0.0, 1), &jobs)[2].1;
        assert_eq!(last(1), 300.0);
        assert_eq!(last(2), 200.0);
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let jobs: Vec<(u64, u64)> = (0..200).map(|i| (i * 10, 100)).collect();
        let run = |seed| book_all(&mut FastDevice::new(2, 0.05, seed), &jobs);
        let a = run(9);
        assert_eq!(a, run(9), "same seed, same bookings");
        assert_ne!(a, run(10), "the jitter seed matters");
        // Entries 1 ms apart never queue, so start-to-completion is exactly
        // the jittered service.
        let mut dev = FastDevice::new(1, 0.05, 9);
        for i in 0..200 {
            let s = dev.book(us(i * 1_000), Duration::from_us(100));
            let service = s.completion.saturating_since(s.start).as_us_f64();
            assert!((95.0..=105.0).contains(&service), "booking {i}: {service} us");
        }
    }

    #[test]
    fn empty_and_restored_devices_serve_on_entry() {
        for slots in [1, 4] {
            let mut dev = FastDevice::new(slots, 0.0, 1);
            assert_eq!(book_all(&mut dev, &[(5, 10)]), vec![(5.0, 15.0)], "{slots} slots");
        }
        // A restore drops the queue: work booked before it no longer delays
        // a booking after it.
        let mut dev = FastDevice::new(1, 0.0, 1);
        book_all(&mut dev, &[(0, 1_000)]);
        dev.restore(us(200));
        assert_eq!(book_all(&mut dev, &[(150, 10)]), vec![(200.0, 210.0)]);
        assert_eq!(book_all(&mut dev, &[(300, 10)]), vec![(300.0, 310.0)]);
    }

    #[test]
    fn stragglers_stretch_only_bookings_that_start_inside_and_unit_factor_is_exact() {
        let window =
            |factor| StragglerWindow { device: 0, at: us(100), until: us(200), factor };
        let jobs = [(0, 50), (100, 50), (199, 50), (200, 50)];
        let slow = [window(2.0)];
        let got = book_all(&mut FastDevice::new(4, 0.0, 1).with_stragglers(&slow), &jobs);
        // Starts at 0 and 200 lie outside [100, 200); 100 and 199 inside.
        assert_eq!(got, vec![(0.0, 50.0), (100.0, 200.0), (199.0, 299.0), (200.0, 250.0)]);
        // Factor 1.0 must not touch a single bit, jitter included.
        let jobs: Vec<(u64, u64)> = (0..300).map(|i| (i, 37)).collect();
        let unit = [window(1.0)];
        let plain = book_all(&mut FastDevice::new(3, 0.02, 5), &jobs);
        let noop = book_all(&mut FastDevice::new(3, 0.02, 5).with_stragglers(&unit), &jobs);
        assert_eq!(plain, noop);
    }

    #[test]
    fn seeded_fleet_plan_is_deterministic_and_scales() {
        let span = Duration::from_ms(100);
        let a = FleetFaultPlan::seeded(7, 1.0, span, 8);
        let b = FleetFaultPlan::seeded(7, 1.0, span, 8);
        assert_eq!(a, b, "same arguments, same plan");
        assert!(!a.is_none());
        assert!(a.validate(8).is_ok());
        let heavy = FleetFaultPlan::seeded(7, 4.0, span, 8);
        assert!(heavy.len() >= a.len(), "intensity scales the schedule up");
        let other = FleetFaultPlan::seeded(8, 1.0, span, 8);
        assert_ne!(a, other, "the seed matters");
    }

    #[test]
    fn intensity_zero_is_exactly_none() {
        let plan = FleetFaultPlan::seeded(7, 0.0, Duration::from_ms(100), 8);
        assert_eq!(plan, FleetFaultPlan::none());
        assert!(plan.is_empty());
        assert!(plan.transitions().is_empty());
    }

    #[test]
    fn transitions_are_time_sorted_with_ends_before_starts() {
        let at = Cycle::from_cycles(1_000);
        let until = Cycle::from_cycles(2_000);
        let plan = FleetFaultPlan {
            // Crash 0 ends exactly where crash 1 starts: the end must be
            // replayed first so the device is briefly healthy in between.
            crashes: vec![
                DeviceCrash { device: 0, at, until },
                DeviceCrash { device: 1, at: until, until: Cycle::from_cycles(3_000) },
            ],
            drains: vec![DeviceDrain { device: 2, at, until }],
            stragglers: vec![StragglerWindow { device: 3, at, until, factor: 2.0 }],
            outages: vec![CorrelatedOutage { first: 4, count: 2, at, until }],
        };
        assert!(plan.validate(8).is_ok());
        let ts = plan.transitions();
        assert_eq!(ts.len(), 2 * plan.len());
        for pair in ts.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "transitions sorted by time");
        }
        let end0 = ts.iter().position(|&(_, a)| a == FleetFaultAction::CrashEnd(0)).unwrap();
        let start1 = ts.iter().position(|&(_, a)| a == FleetFaultAction::CrashStart(1)).unwrap();
        assert!(end0 < start1, "equal-instant window ends replay before starts");
    }

    #[test]
    fn validate_rejects_ill_formed_plans() {
        let at = Cycle::from_cycles(100);
        let until = Cycle::from_cycles(200);
        let empty = FleetFaultPlan {
            crashes: vec![DeviceCrash { device: 0, at: until, until: at }],
            ..FleetFaultPlan::none()
        };
        let err = empty.validate(4).unwrap_err();
        assert_eq!(err, FleetFaultError::EmptyWindow { kind: FleetFaultKind::Crash, index: 0 });
        assert!(err.to_string().contains("empty window"));

        let oob = FleetFaultPlan {
            drains: vec![DeviceDrain { device: 9, at, until }],
            ..FleetFaultPlan::none()
        };
        let err = oob.validate(4).unwrap_err();
        assert!(matches!(err, FleetFaultError::DeviceOutOfRange { device: 9, devices: 4, .. }));
        assert!(err.to_string().contains("out of range"));

        let slow = FleetFaultPlan {
            stragglers: vec![StragglerWindow { device: 0, at, until, factor: 0.5 }],
            ..FleetFaultPlan::none()
        };
        let err = slow.validate(4).unwrap_err();
        assert!(matches!(err, FleetFaultError::FactorBelowOne { factor, .. } if factor == 0.5));
        assert!(err.to_string().contains("must be >= 1.0"));

        let wide = FleetFaultPlan {
            outages: vec![CorrelatedOutage { first: 3, count: 2, at, until }],
            ..FleetFaultPlan::none()
        };
        let err = wide.validate(4).unwrap_err();
        assert!(matches!(err, FleetFaultError::OutageTooWide { .. }));
    }

    #[test]
    fn seeded_outages_fit_any_fleet_width() {
        // Sweep seeds and widths: every generated plan must validate, and
        // correlated outages in particular must stay inside the fleet.
        for devices in [2u32, 3, 5, 8, 16] {
            for seed in 0..20 {
                let plan = FleetFaultPlan::seeded(seed, 2.0, Duration::from_ms(50), devices);
                plan.validate(devices).unwrap_or_else(|e| {
                    panic!("seed {seed} devices {devices}: {e}");
                });
            }
        }
    }

    #[test]
    fn fleet_plan_display_summarizes() {
        assert_eq!(FleetFaultPlan::none().to_string(), "no fleet faults");
        let plan = FleetFaultPlan {
            crashes: vec![DeviceCrash {
                device: 0,
                at: Cycle::ZERO,
                until: Cycle::from_cycles(1),
            }],
            ..FleetFaultPlan::none()
        };
        assert_eq!(plan.to_string(), "1 crashes, 0 drains, 0 stragglers, 0 outages");
    }

    #[test]
    fn device_health_names() {
        assert_eq!(DeviceHealth::default(), DeviceHealth::Up);
        assert_eq!(DeviceHealth::Draining.to_string(), "draining");
        assert_eq!(DeviceHealth::Down.name(), "down");
    }
}
