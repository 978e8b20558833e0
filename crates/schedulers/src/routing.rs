//! Cluster-level routing/admission policies.
//!
//! The paper's CP admission test is per-device: a job is dropped when its
//! laxity — deadline minus predicted queueing plus service time — is
//! already negative (Little's-Law gating, Section 4.1.1). A fleet
//! generalizes that decision to *placement*: the router holds a predicted
//! free-time model of every device and either binds an arriving job to one
//! device or rejects it at the front door because no device can make the
//! deadline. Four policies, same registry idiom as
//! [`crate::registry`]:
//!
//! * `RR` — round-robin, deadline- and load-blind (the baseline).
//! * `LOW` — least-outstanding-work: bind to the device with the least
//!   predicted backlog.
//! * `P2C` — power-of-two-choices: sample two devices, take the less
//!   loaded (the classic low-coordination balancer).
//! * `LL` — least-laxity offload: bind where predicted laxity is maximal
//!   and *reject* jobs whose best laxity is still negative — the paper's
//!   admission test lifted to cluster scope.
//!
//! The router is an estimate holder, not a simulator: devices execute
//! independently (in parallel) after routing, so policies must rely only on
//! arrival-time predictions — exactly the information a real front door
//! has.
//!
//! # Failure domains
//!
//! Under a `FleetFaultPlan` the cluster layer drives per-device
//! [`DeviceHealth`] through [`Router::set_health`]; every policy then
//! places only on [`DeviceHealth::Up`] devices (failover), LL re-predicts
//! completion against the survivors, and [`Router::reset_device`] clears a
//! crashed device's slot model when it restores empty. With zero healthy
//! devices a request gets [`RouteDecision::NoDevice`] and the front door
//! decides whether to retry it later or shed it.

use std::fmt;
use std::str::FromStr;

use gpu_sim::fleet::{DeviceHealth, Slots};
use sim_core::rng::SimRng;
use sim_core::time::{Cycle, Duration};

/// A cluster routing/admission policy, buildable by registry name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutePolicy {
    /// Round-robin over devices in index order.
    RoundRobin,
    /// Least outstanding predicted work.
    LeastOutstanding,
    /// Power-of-two-choices: two sampled devices, less loaded wins.
    PowerOfTwo,
    /// Deadline-aware least-laxity placement with front-door admission.
    LeastLaxity,
}

impl RoutePolicy {
    /// All policies, in reporting order.
    pub const ALL: [RoutePolicy; 4] = [
        RoutePolicy::RoundRobin,
        RoutePolicy::LeastOutstanding,
        RoutePolicy::PowerOfTwo,
        RoutePolicy::LeastLaxity,
    ];

    /// Registry name (what `ClusterScenario` strings and CLIs use).
    pub fn name(self) -> &'static str {
        match self {
            RoutePolicy::RoundRobin => "RR",
            RoutePolicy::LeastOutstanding => "LOW",
            RoutePolicy::PowerOfTwo => "P2C",
            RoutePolicy::LeastLaxity => "LL",
        }
    }
}

impl fmt::Display for RoutePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for a routing-policy name outside the registry; lists the valid
/// names, mirroring [`crate::registry::UnknownScheduler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownRoutePolicy {
    name: String,
}

impl UnknownRoutePolicy {
    /// The rejected name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for UnknownRoutePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown routing policy `{}` (known: {})", self.name, names().join(", "))
    }
}

impl std::error::Error for UnknownRoutePolicy {}

impl FromStr for RoutePolicy {
    type Err = UnknownRoutePolicy;

    /// Parses a registry name, case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        RoutePolicy::ALL
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| UnknownRoutePolicy { name: s.to_string() })
    }
}

/// Builds a policy by registry name.
///
/// # Errors
///
/// Returns [`UnknownRoutePolicy`] (listing the registry) for unknown names.
pub fn try_build(name: &str) -> Result<RoutePolicy, UnknownRoutePolicy> {
    name.parse()
}

/// Every registry name, in reporting order.
pub fn names() -> Vec<&'static str> {
    RoutePolicy::ALL.iter().map(|p| p.name()).collect()
}

/// One arriving job as the router sees it: when it arrived, how long a
/// device is predicted to need for it in isolation, and its relative
/// deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRequest {
    /// Arrival instant (requests must be fed in non-decreasing order).
    pub arrival: Cycle,
    /// Predicted service time on an unloaded device.
    pub service_est: Duration,
    /// Relative deadline (absolute deadline = `arrival + deadline`).
    pub deadline: Duration,
}

/// The router's verdict on one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RouteDecision {
    /// Bind the job to `device`.
    Route {
        /// Chosen device index.
        device: usize,
        /// Predicted queueing delay before service starts there.
        predicted_wait: Duration,
        /// Predicted laxity at completion, in microseconds (negative means
        /// the job is predicted to miss even on the best device).
        laxity_us: f64,
    },
    /// No device is predicted to meet the deadline; drop at the front door
    /// (only [`RoutePolicy::LeastLaxity`] rejects).
    Reject {
        /// The best (least negative) laxity across devices, microseconds.
        laxity_us: f64,
    },
    /// Every device is out of rotation (Down or Draining); nothing can be
    /// placed right now regardless of policy. The caller decides whether to
    /// hold the job for retry or shed it.
    NoDevice,
}

/// Stateful router over `n` devices, each modeled as `slots` independent
/// service slots (one per compute unit in the fast fidelity tier).
///
/// The model is the very [`Slots`] type the fast tier's devices book
/// through: each slot stores the instant it becomes free; a routed job
/// takes the earliest-free slot of its device and pushes that slot's free
/// time to `max(now, free) + service_est`. All predictions are made at
/// arrival time and are completely deterministic. A device's earliest free
/// time is O(1) and its backlog O(1) while every slot is busy, so routing
/// one arrival costs O(devices) for `LOW` and `LL` (O(1) for `RR` and `P2C`
/// on a healthy fleet), plus a booking that is O(1) in the common case.
#[derive(Debug, Clone)]
pub struct Router {
    policy: RoutePolicy,
    /// Predicted slot free times of each device.
    slots: Vec<Slots>,
    /// Per-device availability; only `Up` devices receive placements. All
    /// `Up` unless the cluster layer replays fleet faults into the router.
    health: Vec<DeviceHealth>,
    /// How many entries of `health` are `Up`.
    up: usize,
    rr_next: usize,
    /// Consumed only by [`RoutePolicy::PowerOfTwo`]; seeded from the
    /// workload cell so P2C is deterministic per cell.
    rng: SimRng,
}

impl Router {
    /// A router over `devices` devices of `slots_per_device` slots each.
    ///
    /// # Panics
    ///
    /// Panics if `devices` or `slots_per_device` is zero.
    pub fn new(policy: RoutePolicy, devices: usize, slots_per_device: usize, seed: u64) -> Self {
        assert!(devices > 0, "router needs at least one device");
        Router {
            policy,
            slots: vec![Slots::new(slots_per_device); devices],
            health: vec![DeviceHealth::Up; devices],
            up: devices,
            rr_next: 0,
            rng: SimRng::seed_from(seed),
        }
    }

    /// Number of devices behind the router.
    pub fn devices(&self) -> usize {
        self.slots.len()
    }

    /// Current health of device `d`.
    pub fn health(&self, d: usize) -> DeviceHealth {
        self.health[d]
    }

    /// Sets the health of device `d` (driven by fleet fault transitions).
    pub fn set_health(&mut self, d: usize, health: DeviceHealth) {
        let was_up = self.health[d] == DeviceHealth::Up;
        let is_up = health == DeviceHealth::Up;
        self.up = self.up + usize::from(is_up) - usize::from(was_up);
        self.health[d] = health;
    }

    /// `true` when every device is out of rotation.
    pub fn all_unavailable(&self) -> bool {
        self.up == 0
    }

    /// `true` when every device is in rotation.
    pub fn all_up(&self) -> bool {
        self.up == self.devices()
    }

    /// Clears device `d`'s predicted slot model to "free at `at`" — a
    /// crashed device restores with an empty queue, so predictions carried
    /// over from before the crash would be fiction.
    pub fn reset_device(&mut self, d: usize, at: Cycle) {
        self.slots[d].fill(at);
    }

    /// The best (largest) predicted laxity of `req` across `Up` devices,
    /// or `None` when no device is in rotation. Pure prediction: books
    /// nothing. The front door's retry/shed gate for every policy — a lost
    /// job re-enters only if some survivor could still make its deadline.
    pub fn best_laxity(&self, req: &RouteRequest) -> Option<f64> {
        self.up_devices()
            .map(|d| self.predict(d, req).1)
            .min()
            .map(|completion| Self::laxity_us(req, completion))
    }

    /// Predicted backlog of device `d` at `now`, in microseconds: the sum
    /// over its slots of how far each free time lies in the future. Pure
    /// read of the router's slot model — books nothing, ignores health —
    /// exposed so fleet observers can sample per-device queue depth without
    /// reaching into router internals.
    pub fn backlog_us(&self, d: usize, now: Cycle) -> f64 {
        self.slots[d].backlog(now).as_us_f64()
    }

    /// Indices of devices currently accepting placements, ascending. On a
    /// healthy fleet the health test is skipped.
    fn up_devices(&self) -> impl Iterator<Item = usize> + '_ {
        let all_up = self.all_up();
        (0..self.devices()).filter(move |&d| all_up || self.health[d] == DeviceHealth::Up)
    }

    /// The `i`-th Up device in index order (`i` itself on a healthy fleet).
    fn nth_up(&self, i: usize) -> usize {
        if self.all_up() {
            i
        } else {
            self.up_devices().nth(i).expect("position below the Up count")
        }
    }

    /// Predicted (wait, completion) if `req` were bound to device `d`.
    fn predict(&self, d: usize, req: &RouteRequest) -> (Duration, Cycle) {
        let start = self.slots[d].earliest().max(req.arrival);
        let wait = start.saturating_since(req.arrival);
        (wait, start + req.service_est)
    }

    /// Signed laxity in microseconds of completing at `completion` against
    /// the request's absolute deadline.
    fn laxity_us(req: &RouteRequest, completion: Cycle) -> f64 {
        let deadline_abs = req.arrival + req.deadline;
        if completion <= deadline_abs {
            deadline_abs.saturating_since(completion).as_us_f64()
        } else {
            -completion.saturating_since(deadline_abs).as_us_f64()
        }
    }

    /// Books `req` onto device `d`, updating the slot model, and returns
    /// the decision.
    fn commit(&mut self, d: usize, req: &RouteRequest) -> RouteDecision {
        let (wait, completion) = self.predict(d, req);
        self.slots[d].book(completion);
        RouteDecision::Route {
            device: d,
            predicted_wait: wait,
            laxity_us: Self::laxity_us(req, completion),
        }
    }

    /// Among `candidates`, the device with the least outstanding work
    /// (ties to the lowest index).
    fn least_loaded(&self, candidates: impl Iterator<Item = usize>, now: Cycle) -> usize {
        candidates.map(|d| (self.slots[d].backlog(now), d)).min().expect("at least one candidate").1
    }

    /// Routes one request. Requests must arrive in non-decreasing `arrival`
    /// order (the generator produces them that way).
    ///
    /// Placement considers only [`DeviceHealth::Up`] devices; when none are
    /// in rotation the verdict is [`RouteDecision::NoDevice`]. On an
    /// all-healthy fleet every policy makes the choices (and, for P2C, the
    /// RNG draws) it made before health existed, so fault-free runs stay
    /// bit-identical.
    pub fn route(&mut self, req: &RouteRequest) -> RouteDecision {
        let n = self.devices();
        if self.all_unavailable() {
            return RouteDecision::NoDevice;
        }
        match self.policy {
            RoutePolicy::RoundRobin => {
                // First Up device at or after the cursor; the cursor then
                // moves past it, so rotation degrades to rotation over the
                // survivors.
                let mut d = self.rr_next;
                while self.health[d] != DeviceHealth::Up {
                    d = (d + 1) % n;
                }
                self.rr_next = (d + 1) % n;
                self.commit(d, req)
            }
            RoutePolicy::LeastOutstanding => {
                let d = self.least_loaded(self.up_devices(), req.arrival);
                self.commit(d, req)
            }
            RoutePolicy::PowerOfTwo => {
                // Sample a among the m Up devices and b uniformly from the
                // other m-1, both by position among the Up devices.
                let m = self.up;
                let a = self.rng.below(m as u64) as usize;
                let d = if m == 1 {
                    self.nth_up(a)
                } else {
                    let mut b = self.rng.below(m as u64 - 1) as usize;
                    if b >= a {
                        b += 1;
                    }
                    self.least_loaded([self.nth_up(a), self.nth_up(b)].into_iter(), req.arrival)
                };
                self.commit(d, req)
            }
            RoutePolicy::LeastLaxity => {
                // Maximal laxity == minimal predicted completion; scan the
                // surviving devices, ties to the lowest index.
                let best = self
                    .up_devices()
                    .map(|d| (self.predict(d, req).1, d))
                    .min()
                    .expect("at least one Up device");
                let laxity = Self::laxity_us(req, best.0);
                if laxity < 0.0 {
                    RouteDecision::Reject { laxity_us: laxity }
                } else {
                    self.commit(best.1, req)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(arrival_us: u64, service_us: u64, deadline_us: u64) -> RouteRequest {
        RouteRequest {
            arrival: Cycle::ZERO + Duration::from_us(arrival_us),
            service_est: Duration::from_us(service_us),
            deadline: Duration::from_us(deadline_us),
        }
    }

    fn device_of(d: RouteDecision) -> usize {
        match d {
            RouteDecision::Route { device, .. } => device,
            other => panic!("expected a placement, got {other:?}"),
        }
    }

    /// The router as it stood before [`Slots`]: an unsorted slot vector per
    /// device, a min search per prediction and booking, a saturating fold
    /// per backlog, and P2C failover over a collected list of Up devices.
    struct Reference {
        policy: RoutePolicy,
        slots: Vec<Vec<Cycle>>,
        health: Vec<DeviceHealth>,
        rr_next: usize,
        rng: SimRng,
    }

    impl Reference {
        fn new(policy: RoutePolicy, devices: usize, slots: usize, seed: u64) -> Self {
            Reference {
                policy,
                slots: vec![vec![Cycle::ZERO; slots]; devices],
                health: vec![DeviceHealth::Up; devices],
                rr_next: 0,
                rng: SimRng::seed_from(seed),
            }
        }

        fn up(&self) -> Vec<usize> {
            (0..self.slots.len()).filter(|&d| self.health[d] == DeviceHealth::Up).collect()
        }

        fn outstanding(&self, d: usize, now: Cycle) -> Duration {
            self.slots[d]
                .iter()
                .map(|&free| free.saturating_since(now))
                .fold(Duration::ZERO, |acc, w| acc.saturating_add(w))
        }

        fn predict(&self, d: usize, req: &RouteRequest) -> (Duration, Cycle) {
            let start = (*self.slots[d].iter().min().unwrap()).max(req.arrival);
            (start.saturating_since(req.arrival), start + req.service_est)
        }

        fn best_laxity(&self, req: &RouteRequest) -> Option<f64> {
            let best = self.up().into_iter().map(|d| self.predict(d, req).1).min()?;
            Some(Router::laxity_us(req, best))
        }

        fn least_loaded(&self, candidates: &[usize], now: Cycle) -> usize {
            candidates.iter().map(|&d| (self.outstanding(d, now), d)).min().unwrap().1
        }

        fn commit(&mut self, d: usize, req: &RouteRequest) -> RouteDecision {
            let (wait, completion) = self.predict(d, req);
            *self.slots[d].iter_mut().min().unwrap() = completion;
            RouteDecision::Route {
                device: d,
                predicted_wait: wait,
                laxity_us: Router::laxity_us(req, completion),
            }
        }

        fn route(&mut self, req: &RouteRequest) -> RouteDecision {
            let up = self.up();
            if up.is_empty() {
                return RouteDecision::NoDevice;
            }
            let d = match self.policy {
                RoutePolicy::RoundRobin => {
                    let mut d = self.rr_next;
                    while self.health[d] != DeviceHealth::Up {
                        d = (d + 1) % self.slots.len();
                    }
                    self.rr_next = (d + 1) % self.slots.len();
                    d
                }
                RoutePolicy::LeastOutstanding => self.least_loaded(&up, req.arrival),
                RoutePolicy::PowerOfTwo => {
                    let m = up.len();
                    let a = self.rng.below(m as u64) as usize;
                    if m == 1 {
                        up[a]
                    } else {
                        let mut b = self.rng.below(m as u64 - 1) as usize;
                        if b >= a {
                            b += 1;
                        }
                        self.least_loaded(&[up[a], up[b]], req.arrival)
                    }
                }
                RoutePolicy::LeastLaxity => {
                    let (completion, d) =
                        up.iter().map(|&d| (self.predict(d, req).1, d)).min().unwrap();
                    let laxity = Router::laxity_us(req, completion);
                    if laxity < 0.0 {
                        return RouteDecision::Reject { laxity_us: laxity };
                    }
                    d
                }
            };
            self.commit(d, req)
        }
    }

    /// Routes one seeded stream through `Router` and `Reference` side by
    /// side, with health flips and crash resets, and asserts equal
    /// decisions, best laxities and backlogs throughout; returns the
    /// chosen devices.
    fn route_against_reference(
        policy: RoutePolicy,
        devices: usize,
        slots: usize,
        seed: u64,
        flips: bool,
    ) -> Vec<usize> {
        let mut router = Router::new(policy, devices, slots, seed);
        let mut reference = Reference::new(policy, devices, slots, seed);
        let mut rng = SimRng::seed_from(seed ^ 0x5eed);
        let mut arrival = 0;
        let mut picks = Vec::new();
        for step in 0..1500 {
            arrival += rng.below(40);
            let r = req(arrival, 5 + rng.below(300), 50 + rng.below(2000));
            if flips && rng.below(25) == 0 {
                let d = rng.below(devices as u64) as usize;
                let h = [DeviceHealth::Up, DeviceHealth::Draining, DeviceHealth::Down]
                    [rng.below(3) as usize];
                router.set_health(d, h);
                reference.health[d] = h;
            }
            if flips && rng.below(60) == 0 {
                let d = rng.below(devices as u64) as usize;
                router.reset_device(d, r.arrival);
                reference.slots[d].fill(r.arrival);
            }
            let ctx = format!("{policy} seed={seed} step={step}");
            assert_eq!(router.best_laxity(&r), reference.best_laxity(&r), "{ctx}");
            let got = router.route(&r);
            assert_eq!(got, reference.route(&r), "{ctx}");
            if let RouteDecision::Route { device, .. } = got {
                picks.push(device);
            }
            for d in 0..devices {
                let want = reference.outstanding(d, r.arrival).as_us_f64();
                assert_eq!(router.backlog_us(d, r.arrival), want, "{ctx} device {d}");
            }
        }
        picks
    }

    #[test]
    fn routing_matches_the_per_slot_scan_reference() {
        for policy in RoutePolicy::ALL {
            for (devices, slots) in [(1, 1), (4, 2), (6, 3), (16, 8)] {
                for seed in 0..3 {
                    route_against_reference(policy, devices, slots, seed, true);
                    route_against_reference(policy, devices, slots, seed, false);
                }
            }
        }
    }

    #[test]
    fn p2c_failover_picks_devices_by_position_among_survivors() {
        // A degraded fleet held fixed: P2C must choose exactly the devices
        // the collected Up list chose, and only survivors.
        let mut router = Router::new(RoutePolicy::PowerOfTwo, 8, 2, 11);
        let mut reference = Reference::new(RoutePolicy::PowerOfTwo, 8, 2, 11);
        for (d, h) in
            [(1, DeviceHealth::Down), (4, DeviceHealth::Draining), (5, DeviceHealth::Down)]
        {
            router.set_health(d, h);
            reference.health[d] = h;
        }
        let picks: Vec<usize> = (0..400)
            .map(|i| {
                let r = req(i * 3, 40, 10_000);
                let got = router.route(&r);
                assert_eq!(got, reference.route(&r), "arrival {i}");
                device_of(got)
            })
            .collect();
        let distinct: std::collections::BTreeSet<_> = picks.iter().copied().collect();
        assert_eq!(distinct.into_iter().collect::<Vec<_>>(), vec![0, 2, 3, 6, 7]);
    }

    #[test]
    fn names_round_trip_and_unknowns_list_the_registry() {
        for p in RoutePolicy::ALL {
            assert_eq!(try_build(p.name()).unwrap(), p);
            assert_eq!(p.name().to_lowercase().parse::<RoutePolicy>().unwrap(), p);
        }
        let err = try_build("SHORTEST-QUEUE-EVER").unwrap_err();
        assert_eq!(err.name(), "SHORTEST-QUEUE-EVER");
        let msg = err.to_string();
        for name in names() {
            assert!(msg.contains(name), "{msg} must list {name}");
        }
    }

    #[test]
    fn round_robin_cycles_devices_in_order() {
        let mut r = Router::new(RoutePolicy::RoundRobin, 3, 1, 1);
        let picks: Vec<usize> = (0..6).map(|i| device_of(r.route(&req(i, 10, 1000)))).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_outstanding_prefers_the_idle_device() {
        let mut r = Router::new(RoutePolicy::LeastOutstanding, 2, 1, 1);
        // Pin device 0 with a long job; the next two must go to device 1
        // until it accumulates as much work.
        assert_eq!(device_of(r.route(&req(0, 1000, 100_000))), 0);
        assert_eq!(device_of(r.route(&req(0, 10, 100_000))), 1);
        assert_eq!(device_of(r.route(&req(0, 10, 100_000))), 1);
    }

    #[test]
    fn least_laxity_places_on_earliest_completion_and_rejects_hopeless_jobs() {
        let mut r = Router::new(RoutePolicy::LeastLaxity, 2, 1, 1);
        // Both idle: first job lands on device 0 (tie to lowest index).
        assert_eq!(device_of(r.route(&req(0, 100, 500))), 0);
        // Device 0 busy for 100us: same job now completes earlier on 1.
        assert_eq!(device_of(r.route(&req(0, 100, 500))), 1);
        // A job that cannot make its deadline anywhere is rejected and the
        // slot model is left untouched.
        let before = r.clone();
        match r.route(&req(0, 100, 50)) {
            RouteDecision::Reject { laxity_us } => assert!(laxity_us < 0.0),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(format!("{:?}", r.slots), format!("{:?}", before.slots));
        // A feasible job is still admitted afterwards.
        assert!(matches!(r.route(&req(200, 10, 500)), RouteDecision::Route { .. }));
    }

    #[test]
    fn least_laxity_reports_nonnegative_laxity_on_admit() {
        let mut r = Router::new(RoutePolicy::LeastLaxity, 2, 1, 1);
        for i in 0..10 {
            match r.route(&req(i * 5, 40, 400)) {
                RouteDecision::Route { laxity_us, .. } => assert!(laxity_us >= 0.0),
                RouteDecision::Reject { .. } => {}
                RouteDecision::NoDevice => panic!("healthy fleet reported NoDevice"),
            }
        }
    }

    #[test]
    fn power_of_two_is_deterministic_per_seed_and_spreads_load() {
        let run = |seed: u64| {
            let mut r = Router::new(RoutePolicy::PowerOfTwo, 8, 1, seed);
            (0..64).map(|i| device_of(r.route(&req(i, 100, 100_000)))).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same placements");
        assert_ne!(run(7), run(8), "the sampling seed matters");
        let picks = run(7);
        let distinct: std::collections::HashSet<_> = picks.iter().collect();
        assert!(distinct.len() >= 4, "P2C must spread across devices: {picks:?}");
    }

    #[test]
    fn multi_slot_devices_overlap_jobs() {
        // Two slots: two concurrent jobs, the third queues behind the first.
        let mut r = Router::new(RoutePolicy::LeastOutstanding, 1, 2, 1);
        r.route(&req(0, 100, 10_000));
        r.route(&req(0, 100, 10_000));
        match r.route(&req(0, 100, 10_000)) {
            RouteDecision::Route { predicted_wait, .. } => {
                assert_eq!(predicted_wait, Duration::from_us(100));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn router_demands_at_least_one_device() {
        let r = std::panic::catch_unwind(|| Router::new(RoutePolicy::RoundRobin, 0, 1, 1));
        assert!(r.is_err());
    }

    #[test]
    fn policies_fail_over_around_down_devices() {
        for policy in RoutePolicy::ALL {
            let mut r = Router::new(policy, 4, 1, 1);
            r.set_health(1, DeviceHealth::Down);
            r.set_health(2, DeviceHealth::Draining);
            for i in 0..12 {
                match r.route(&req(i, 10, 100_000)) {
                    RouteDecision::Route { device, .. } => {
                        assert!(
                            device == 0 || device == 3,
                            "{policy}: placed on out-of-rotation device {device}"
                        );
                    }
                    other => panic!("{policy}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn round_robin_rotates_over_survivors() {
        let mut r = Router::new(RoutePolicy::RoundRobin, 4, 1, 1);
        r.set_health(1, DeviceHealth::Down);
        let picks: Vec<usize> = (0..6).map(|i| device_of(r.route(&req(i, 10, 100_000)))).collect();
        assert_eq!(picks, vec![0, 2, 3, 0, 2, 3]);
    }

    #[test]
    fn all_down_yields_no_device_and_books_nothing() {
        for policy in RoutePolicy::ALL {
            let mut r = Router::new(policy, 2, 1, 1);
            r.set_health(0, DeviceHealth::Down);
            r.set_health(1, DeviceHealth::Draining);
            assert!(r.all_unavailable());
            let before = r.clone();
            assert_eq!(r.route(&req(0, 10, 1000)), RouteDecision::NoDevice);
            assert_eq!(format!("{:?}", r.slots), format!("{:?}", before.slots));
            assert_eq!(r.best_laxity(&req(0, 10, 1000)), None);
        }
    }

    #[test]
    fn reset_device_clears_the_slot_model() {
        let mut r = Router::new(RoutePolicy::LeastOutstanding, 2, 1, 1);
        // Load device 0 heavily, crash it, restore it empty at t=50us: the
        // next job must see it idle again.
        r.route(&req(0, 10_000, 1_000_000));
        let restore = Cycle::ZERO + Duration::from_us(50);
        r.reset_device(0, restore);
        assert_eq!(device_of(r.route(&req(50, 10, 100_000))), 0);
    }

    #[test]
    fn backlog_us_tracks_booked_work_and_drains_with_time() {
        let mut r = Router::new(RoutePolicy::LeastOutstanding, 2, 1, 1);
        assert_eq!(r.backlog_us(0, Cycle::ZERO), 0.0);
        r.route(&req(0, 400, 100_000)); // lands on device 0
        assert_eq!(r.backlog_us(0, Cycle::ZERO), 400.0);
        assert_eq!(r.backlog_us(1, Cycle::ZERO), 0.0);
        // Backlog is measured from `now`: half way through, half remains,
        // and past the completion it saturates at zero.
        let half = Cycle::ZERO + Duration::from_us(200);
        assert_eq!(r.backlog_us(0, half), 200.0);
        let past = Cycle::ZERO + Duration::from_us(1000);
        assert_eq!(r.backlog_us(0, past), 0.0);
    }

    #[test]
    fn best_laxity_predicts_against_survivors_only() {
        let mut r = Router::new(RoutePolicy::LeastLaxity, 2, 1, 1);
        // Device 1 idle, device 0 loaded: laxity is measured against 1.
        r.route(&req(0, 400, 100_000));
        let healthy = r.best_laxity(&req(0, 100, 500)).unwrap();
        assert!(healthy >= 0.0, "idle survivor admits the job: {healthy}");
        // With device 1 down, the 400us backlog on device 0 eats the
        // deadline and a tighter request becomes infeasible.
        r.set_health(1, DeviceHealth::Down);
        let degraded = r.best_laxity(&req(0, 100, 450)).unwrap();
        assert!(degraded < 0.0, "loaded survivor cannot make it: {degraded}");
    }

    #[test]
    fn healthy_fleet_routing_is_unchanged_by_health_plumbing() {
        // A down-then-restored device must leave P2C's RNG stream and RR's
        // cursor behaving as if health never existed once all are Up again.
        for policy in RoutePolicy::ALL {
            let mut plain = Router::new(policy, 4, 2, 9);
            let mut toggled = Router::new(policy, 4, 2, 9);
            toggled.set_health(2, DeviceHealth::Down);
            toggled.set_health(2, DeviceHealth::Up);
            for i in 0..32 {
                assert_eq!(
                    plain.route(&req(i, 25, 10_000)),
                    toggled.route(&req(i, 25, 10_000)),
                    "{policy}"
                );
            }
        }
    }
}
