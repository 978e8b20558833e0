//! SIMD issue model: resident wavefronts share the unit's issue bandwidth
//! processor-sharing style, with a co-issue window.
//!
//! With `n` wavefronts actively computing, each progresses at
//! `min(1, coissue/n)` issue-cycles per cycle: up to `coissue` waves overlap
//! for free (GCN executes a 64-lane instruction over 4 cycles on a 16-lane
//! SIMD), beyond that issue bandwidth is shared fairly. The model is updated
//! lazily: on every membership change the elapsed service is distributed and
//! the next completion event is re-predicted. Stale events are detected with
//! a generation counter.

use sim_core::time::{Cycle, Duration};

use crate::slab::{Slab, SlabKey};
use crate::wave::Wavefront;

/// Numerical slack when deciding a segment has finished, in issue-cycles:
/// a compute segment may end up to this much short of its length, which
/// is why [`crate::kernel::ComputeProfile::min_isolated_cycles`] subtracts
/// it once per segment.
pub const COMPLETION_EPS: f64 = 1e-6;

/// One SIMD unit's scheduling state.
///
/// The wavefront *data* lives in the simulation's wave arena; the SIMD holds
/// membership plus each computing wave's remaining issue-cycles. `resident`
/// counts slot usage (computing + memory-blocked waves both hold their
/// slot); `active` lists waves currently computing as `(key, remaining)`.
/// While a wave is active its arena `remaining` field is stale — the copy
/// here is authoritative (written back on [`SimdUnit::deactivate`]) so the
/// hot advance/predict scans stay inside one contiguous vector instead of
/// chasing arena slots.
#[derive(Debug, Clone)]
pub struct SimdUnit {
    active: Vec<(SlabKey, f64)>,
    resident: u32,
    last_update: Cycle,
    generation: u64,
    coissue: u32,
}

impl Default for SimdUnit {
    fn default() -> Self {
        SimdUnit::new(1)
    }
}

impl SimdUnit {
    /// Creates an idle SIMD unit that can overlap `coissue` wavefronts at
    /// full rate.
    ///
    /// On GCN each 16-lane SIMD executes a 64-lane instruction over 4
    /// cycles, so up to 4 resident wavefronts interleave without slowing
    /// each other; beyond that they share issue bandwidth. With `n` active
    /// waves each progresses at `min(1, coissue/n)` issue-cycles per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `coissue` is zero.
    pub fn new(coissue: u32) -> Self {
        assert!(coissue > 0, "coissue must be positive");
        SimdUnit {
            active: Vec::new(),
            resident: 0,
            last_update: Cycle::ZERO,
            generation: 0,
            coissue,
        }
    }

    /// Per-wave progress rate with `n` active waves. Within the co-issue
    /// window the rate is exactly 1.0 (an integer quotient `c/n` with
    /// `c >= n` never rounds below one), so the common case skips the
    /// division.
    #[inline]
    fn share(&self, n: usize) -> f64 {
        if n <= self.coissue as usize {
            1.0
        } else {
            self.coissue as f64 / n as f64
        }
    }

    /// `rem / share(n)` with the division elided when the share is exactly
    /// 1.0 (`x / 1.0` is bit-identical to `x`).
    #[inline]
    fn scaled_rem(&self, rem: f64, n: usize) -> f64 {
        if n <= self.coissue as usize {
            rem
        } else {
            rem / self.share(n)
        }
    }

    /// Number of waves holding slots (computing or blocked).
    #[inline]
    pub fn resident(&self) -> u32 {
        self.resident
    }

    /// Current generation; events carrying an older value are stale.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Reserves a residency slot for a newly placed wave.
    pub fn reserve_slot(&mut self) {
        self.resident += 1;
    }

    /// Releases the residency slot of a finished wave.
    ///
    /// # Panics
    ///
    /// Panics if no slots are held.
    pub fn release_slot(&mut self) {
        assert!(self.resident > 0, "releasing an unheld SIMD slot");
        self.resident -= 1;
    }

    /// Distributes elapsed issue service among active waves up to `now`.
    pub fn advance(&mut self, now: Cycle) {
        let elapsed = now.saturating_since(self.last_update);
        self.last_update = now;
        let n = self.active.len();
        if n == 0 || elapsed.is_zero() {
            return;
        }
        let service = elapsed.as_cycles() as f64 * self.share(n);
        for (_, rem) in &mut self.active {
            *rem = (*rem - service).max(0.0);
        }
    }

    /// Fused [`SimdUnit::advance`] + [`SimdUnit::collect_completed`] +
    /// survivor minimum, in one pass over the active list: subtracts the
    /// elapsed service, appends completed keys (remaining ~ 0) to `out`,
    /// and returns the minimum remaining issue-cycles among the waves that
    /// survive (`f64::INFINITY` when none do). The survivor minimum equals
    /// what [`SimdUnit::next_completion`]'s fold would see after the caller
    /// deactivates every completed wave — f64 `min` over a set of
    /// non-negative values is order-independent — so callers that retire
    /// the completed waves without other membership changes can re-predict
    /// from it without a second scan.
    pub fn advance_collect_min(&mut self, now: Cycle, out: &mut Vec<SlabKey>) -> f64 {
        let elapsed = now.saturating_since(self.last_update);
        self.last_update = now;
        let n = self.active.len();
        let mut min_rem = f64::INFINITY;
        if n == 0 {
            return min_rem;
        }
        if elapsed.is_zero() {
            for &(k, rem) in &self.active {
                if rem <= COMPLETION_EPS {
                    out.push(k);
                } else {
                    min_rem = min_rem.min(rem);
                }
            }
            return min_rem;
        }
        let service = elapsed.as_cycles() as f64 * self.share(n);
        for (k, rem) in &mut self.active {
            *rem = (*rem - service).max(0.0);
            if *rem <= COMPLETION_EPS {
                out.push(*k);
            } else {
                min_rem = min_rem.min(*rem);
            }
        }
        min_rem
    }

    /// Fused [`SimdUnit::advance`] + running minimum over *all* active
    /// waves (completed or not), for callers about to activate one more
    /// wave and re-predict: `min(advance_min(now), new_remaining)` is
    /// exactly the fold [`SimdUnit::next_completion`] would compute after
    /// the activation.
    pub fn advance_min(&mut self, now: Cycle) -> f64 {
        let elapsed = now.saturating_since(self.last_update);
        self.last_update = now;
        let n = self.active.len();
        let mut min_rem = f64::INFINITY;
        if n == 0 {
            return min_rem;
        }
        if elapsed.is_zero() {
            for &(_, rem) in &self.active {
                min_rem = min_rem.min(rem);
            }
            return min_rem;
        }
        let service = elapsed.as_cycles() as f64 * self.share(n);
        for (_, rem) in &mut self.active {
            *rem = (*rem - service).max(0.0);
            min_rem = min_rem.min(*rem);
        }
        min_rem
    }

    /// The [`SimdUnit::next_completion`] arithmetic applied to an
    /// externally tracked minimum (from the fused advance passes), skipping
    /// the fold. Caller guarantees `min_rem` is the minimum remaining of
    /// the *current* active set and that the set is non-empty.
    #[inline]
    pub fn predict_from_min(&self, min_rem: f64, now: Cycle) -> Cycle {
        debug_assert!(!self.active.is_empty());
        let x = self.scaled_rem(min_rem, self.active.len());
        let t = x as u64;
        let cycles = if t as f64 == x { t } else { t + 1 }.max(1);
        now + Duration::from_cycles(cycles)
    }

    /// Adds a wave to the active (computing) set, capturing its arena
    /// `remaining` as the unit's working copy. Caller must have called
    /// [`SimdUnit::advance`] to `now` first.
    pub fn activate(&mut self, key: SlabKey, waves: &Slab<Wavefront>) {
        self.activate_with(key, waves[key].remaining);
    }

    /// [`SimdUnit::activate`] with the remaining issue-cycles supplied
    /// directly, for hot-path callers that already know the fresh segment
    /// length and skip the arena round-trip (the arena `remaining` is stale
    /// while a wave is active either way; `deactivate` writes it back).
    pub fn activate_with(&mut self, key: SlabKey, remaining: f64) {
        debug_assert!(!self.active.iter().any(|&(k, _)| k == key));
        self.active.push((key, remaining));
        self.generation += 1;
    }

    /// Removes a wave from the active set (it blocked on memory or
    /// finished), writing its remaining issue-cycles back to the arena.
    /// Caller must have advanced to `now` first.
    ///
    /// # Panics
    ///
    /// Panics if the wave was not active.
    pub fn deactivate(&mut self, key: SlabKey, waves: &mut Slab<Wavefront>) {
        let pos = self
            .active
            .iter()
            .position(|&(k, _)| k == key)
            .expect("deactivating a wave that is not active");
        let (_, rem) = self.active.swap_remove(pos);
        waves[key].remaining = rem;
        self.generation += 1;
    }

    /// Predicts when the next active wave finishes its compute segment,
    /// assuming membership stays fixed. `None` when idle.
    pub fn next_completion(&self, now: Cycle) -> Option<Cycle> {
        let n = self.active.len();
        let min_rem = self
            .active
            .iter()
            .map(|&(_, rem)| rem)
            .fold(f64::INFINITY, f64::min);
        if min_rem.is_finite() {
            // Integer ceiling; identical to `.ceil().max(1.0) as u64` for the
            // non-negative sub-2^53 values remaining/share take, without the
            // libm call.
            let x = self.scaled_rem(min_rem, n);
            let t = x as u64;
            let cycles = if t as f64 == x { t } else { t + 1 }.max(1);
            Some(now + Duration::from_cycles(cycles))
        } else {
            None
        }
    }

    /// Returns the active waves whose current segment is complete
    /// (remaining ~ 0) after an [`SimdUnit::advance`].
    pub fn completed_waves(&self) -> Vec<SlabKey> {
        self.active
            .iter()
            .filter(|&&(_, rem)| rem <= COMPLETION_EPS)
            .map(|&(k, _)| k)
            .collect()
    }

    /// Appends the completed active waves to `out` instead of allocating —
    /// the hot-path variant of [`SimdUnit::completed_waves`], yielding keys
    /// in the same (active-list) order.
    pub fn collect_completed(&self, out: &mut Vec<SlabKey>) {
        out.extend(
            self.active.iter().filter(|&&(_, rem)| rem <= COMPLETION_EPS).map(|&(k, _)| k),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use crate::wave::WaveState;

    fn wave(remaining: f64) -> Wavefront {
        // Slab keys for wg/run are dummies here.
        let mut slab = Slab::new();
        let dummy = slab.insert(0u8);
        let _ = JobId(0);
        Wavefront {
            wg: dummy,
            run: dummy,
            cu: 0,
            simd: 0,
            wave_seq: 0,
            remaining,
            accesses_done: 0,
            state: WaveState::Computing,
        }
    }

    #[test]
    fn single_wave_runs_at_full_rate() {
        let mut waves = Slab::new();
        let k = waves.insert(wave(100.0));
        let mut s = SimdUnit::new(1);
        s.reserve_slot();
        s.activate(k, &waves);
        let done = s.next_completion(Cycle::ZERO).unwrap();
        assert_eq!(done, Cycle::from_cycles(100));
        s.advance(done);
        assert_eq!(s.completed_waves(), vec![k]);
    }

    #[test]
    fn two_waves_share_issue_bandwidth() {
        let mut waves = Slab::new();
        let a = waves.insert(wave(100.0));
        let b = waves.insert(wave(100.0));
        let mut s = SimdUnit::new(1);
        s.reserve_slot();
        s.reserve_slot();
        s.activate(a, &waves);
        s.activate(b, &waves);
        // Each progresses at 1/2: both finish at t=200.
        let done = s.next_completion(Cycle::ZERO).unwrap();
        assert_eq!(done, Cycle::from_cycles(200));
        s.advance(done);
        assert_eq!(s.completed_waves().len(), 2);
    }

    #[test]
    fn coissue_window_overlaps_waves_for_free() {
        let mut waves = Slab::new();
        let keys: Vec<_> = (0..4).map(|_| waves.insert(wave(100.0))).collect();
        let mut s = SimdUnit::new(4);
        for &k in &keys {
            s.reserve_slot();
            s.activate(k, &waves);
        }
        // Four waves within the co-issue window: all finish at t=100.
        assert_eq!(s.next_completion(Cycle::ZERO), Some(Cycle::from_cycles(100)));
        // An eighth... a fifth wave pushes the share to 4/5.
        let extra = waves.insert(wave(100.0));
        s.reserve_slot();
        s.activate(extra, &waves);
        assert_eq!(s.next_completion(Cycle::ZERO), Some(Cycle::from_cycles(125)));
    }

    #[test]
    fn departure_speeds_up_remaining_wave() {
        let mut waves = Slab::new();
        let a = waves.insert(wave(50.0));
        let b = waves.insert(wave(100.0));
        let mut s = SimdUnit::new(1);
        s.reserve_slot();
        s.reserve_slot();
        s.activate(a, &waves);
        s.activate(b, &waves);
        // a finishes at t=100 (50 remaining at rate 1/2).
        let t1 = s.next_completion(Cycle::ZERO).unwrap();
        assert_eq!(t1, Cycle::from_cycles(100));
        s.advance(t1);
        assert_eq!(s.completed_waves(), vec![a]);
        s.deactivate(a, &mut waves);
        s.release_slot();
        // b has 50 left, now alone -> finishes 50 cycles later.
        let t2 = s.next_completion(t1).unwrap();
        assert_eq!(t2, Cycle::from_cycles(150));
    }

    #[test]
    fn generation_bumps_on_membership_changes() {
        let mut waves = Slab::new();
        let a = waves.insert(wave(10.0));
        let mut s = SimdUnit::new(1);
        let g0 = s.generation();
        s.reserve_slot();
        s.activate(a, &waves);
        assert!(s.generation() > g0);
        let g1 = s.generation();
        s.advance(Cycle::from_cycles(5));
        assert_eq!(s.generation(), g1, "advance alone does not invalidate");
        s.deactivate(a, &mut waves);
        assert!(s.generation() > g1);
    }

    #[test]
    fn idle_unit_predicts_nothing() {
        let s = SimdUnit::new(1);
        assert_eq!(s.next_completion(Cycle::ZERO), None);
    }
}
