//! DRAM channel bandwidth model.
//!
//! Each channel is a single server: a line transfer occupies the channel for
//! a fixed service time, so queueing delay rises as concurrent kernels push
//! more misses — the bandwidth-contention signal that slows WG completion
//! rates under load.

use sim_core::time::{Cycle, Duration};

/// Multi-channel DRAM with per-channel FIFO occupancy.
///
/// # Examples
///
/// ```
/// use gpu_sim::dram::Dram;
/// use sim_core::time::Cycle;
///
/// let mut d = Dram::new(2, 200, 4);
/// let t0 = Cycle::ZERO;
/// // Two back-to-back accesses to the same channel queue up.
/// let a = d.access(0x00, t0);
/// let b = d.access(0x00, t0);
/// assert!(b > a);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    busy_until: Vec<Cycle>,
    latency: Duration,
    service: Duration,
    /// Service time after the current fault throttle; equals `service`
    /// whenever the throttle scale is exactly 1.0.
    service_scaled: Duration,
    channel_mask: u64,
    accesses: u64,
    busy_cycles: u64,
}

impl Dram {
    /// Creates a DRAM model with `channels` (power of two), a fixed access
    /// `latency_cycles`, and `service_cycles` of channel occupancy per line.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is not a positive power of two.
    pub fn new(channels: u32, latency_cycles: u64, service_cycles: u64) -> Self {
        assert!(channels > 0 && channels.is_power_of_two());
        Dram {
            busy_until: vec![Cycle::ZERO; channels as usize],
            latency: Duration::from_cycles(latency_cycles),
            service: Duration::from_cycles(service_cycles),
            service_scaled: Duration::from_cycles(service_cycles),
            channel_mask: (channels - 1) as u64,
            accesses: 0,
            busy_cycles: 0,
        }
    }

    /// Sets the fault-injection bandwidth throttle: per-line channel
    /// occupancy becomes `scale` times the configured service time (at
    /// least one cycle). A scale of exactly 1.0 restores the configured
    /// value bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite or below 1.0 (plans are validated
    /// before the run, so this is an internal invariant).
    pub fn set_service_scale(&mut self, scale: f64) {
        assert!(scale.is_finite() && scale >= 1.0, "bad DRAM throttle scale {scale}");
        self.service_scaled = if scale == 1.0 {
            self.service
        } else {
            self.service.mul_f64(scale).max(Duration::from_cycles(1))
        };
    }

    /// Issues a line access at time `now`; returns the completion time
    /// (including queueing behind earlier accesses to the same channel).
    pub fn access(&mut self, addr: u64, now: Cycle) -> Cycle {
        self.accesses += 1;
        let line = addr >> 6;
        let ch = (line & self.channel_mask) as usize;
        let start = self.busy_until[ch].max(now);
        let done = start + self.service_scaled;
        self.busy_until[ch] = done;
        self.busy_cycles += done.saturating_since(start).as_cycles();
        done + self.latency
    }

    /// Issues every line of `mask` (bit `i` = line `i` of a consecutive run
    /// starting at `base_addr`, `line_bytes` apart) at time `now`; returns
    /// the completion time of the worst line.
    ///
    /// The closed-form equivalent of calling [`Dram::access`] per set bit
    /// in ascending line order: per-channel queueing is applied in the same
    /// order (ascending lines visit each channel in ascending order), the
    /// completion maximum commutes with the constant latency added at the
    /// end, and the busy-cycle counter advances by exactly `count * service`
    /// because every access occupies its channel for one full service time
    /// regardless of queueing. Counters and channel clocks are fast-forwarded
    /// once per run instead of once per line.
    pub fn access_run(&mut self, base_addr: u64, line_bytes: u64, mask: u32, now: Cycle) -> Cycle {
        debug_assert!(mask != 0);
        let count = mask.count_ones() as u64;
        let mut rest = mask;
        let mut worst = Cycle::ZERO;
        while rest != 0 {
            let i = rest.trailing_zeros() as u64;
            rest &= rest - 1;
            let line = (base_addr + i * line_bytes) >> 6;
            let ch = (line & self.channel_mask) as usize;
            let start = self.busy_until[ch].max(now);
            let done = start + self.service_scaled;
            self.busy_until[ch] = done;
            worst = worst.max(done);
        }
        self.accesses += count;
        self.busy_cycles += count * self.service_scaled.as_cycles();
        worst + self.latency
    }

    /// Total line accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Cumulative cycles any channel spent transferring lines (the sum of
    /// per-access service occupancy). Divide a delta by
    /// `channels() * elapsed cycles` for a bandwidth-utilization fraction.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Number of DRAM channels.
    pub fn channels(&self) -> usize {
        self.busy_until.len()
    }

    /// Current queueing backlog (cycles beyond `now`) of the most congested
    /// channel; a contention observability hook for tests.
    pub fn max_backlog(&self, now: Cycle) -> Duration {
        self.busy_until.iter().map(|&b| b.saturating_since(now)).max().unwrap_or(Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_access_takes_service_plus_latency() {
        let mut d = Dram::new(4, 200, 4);
        let done = d.access(0, Cycle::ZERO);
        assert_eq!(done, Cycle::from_cycles(204));
    }

    #[test]
    fn same_channel_queues() {
        let mut d = Dram::new(4, 200, 4);
        let a = d.access(0, Cycle::ZERO);
        let b = d.access(4 * 64, Cycle::ZERO); // line 4 -> channel 0 again
        assert_eq!(a, Cycle::from_cycles(204));
        assert_eq!(b, Cycle::from_cycles(208));
    }

    #[test]
    fn different_channels_do_not_queue() {
        let mut d = Dram::new(4, 200, 4);
        let a = d.access(0, Cycle::ZERO);
        let b = d.access(64, Cycle::ZERO); // line 1 -> channel 1
        assert_eq!(a, b);
    }

    #[test]
    fn service_scale_throttles_and_restores_exactly() {
        let mut d = Dram::new(4, 200, 4);
        d.set_service_scale(3.0);
        let a = d.access(0, Cycle::ZERO);
        assert_eq!(a, Cycle::from_cycles(212), "3x service under throttle");
        d.set_service_scale(1.0);
        let mut fresh = Dram::new(4, 200, 4);
        fresh.access(0, Cycle::ZERO);
        let b = d.access(64, Cycle::ZERO); // different channel: no queueing
        let f = fresh.access(64, Cycle::ZERO);
        assert_eq!(b, f, "scale 1.0 restores the configured service exactly");
    }

    #[test]
    fn backlog_reports_congestion() {
        let mut d = Dram::new(2, 100, 10);
        for i in 0..10 {
            d.access(i * 2 * 64, Cycle::ZERO); // all channel 0
        }
        assert_eq!(d.max_backlog(Cycle::ZERO), Duration::from_cycles(100));
        assert_eq!(d.accesses(), 10);
        assert_eq!(d.busy_cycles(), 100, "ten transfers of ten cycles each");
        assert_eq!(d.channels(), 2);
    }
}
