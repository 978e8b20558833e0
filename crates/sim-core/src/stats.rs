//! Streaming statistics used by the experiment harness: exact percentiles
//! for small cells, a bounded-memory quantile sketch (p50/p99/p999) for
//! million-job cluster runs, geometric means, and rate windows.

use crate::time::Duration;

/// Collects scalar samples and answers order statistics.
///
/// Samples are kept (they are small: one `f64` per completed job), so
/// percentiles are exact rather than approximated.
///
/// # Examples
///
/// ```
/// use sim_core::stats::Samples;
///
/// let mut s = Samples::new();
/// for v in 1..=100 {
///     s.push(v as f64);
/// }
/// assert_eq!(s.percentile(0.99), 99.0);
/// assert_eq!(s.percentile(0.50), 50.0);
/// assert_eq!(s.len(), 100);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    pub fn push(&mut self, v: f64) {
        assert!(!v.is_nan(), "NaN sample");
        self.values.push(v);
        self.sorted = false;
    }

    /// Adds a duration sample in microseconds.
    pub fn push_duration(&mut self, d: Duration) {
        self.push(d.as_us_f64());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Exact `q`-quantile (`q` in `[0,1]`) using the nearest-rank method,
    /// `0.0` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN by construction"));
            self.sorted = true;
        }
        let rank = ((q * self.values.len() as f64).ceil() as usize).max(1) - 1;
        self.values[rank.min(self.values.len() - 1)]
    }

    /// Maximum sample, `0.0` when empty.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }
}

/// Per-decade growth factor of the [`StreamingQuantiles`] bucket ladder.
///
/// Bucket boundaries grow geometrically by this factor, so any reported
/// quantile is within `(GROWTH - 1) / 2` (0.5%) relative error of the exact
/// nearest-rank answer over the same stream.
const QUANTILE_GROWTH: f64 = 1.01;

/// Smallest positive magnitude [`StreamingQuantiles`] resolves (in whatever
/// unit the caller pushes; 1e-3 µs = 1 ns for latency streams). Smaller
/// positive samples fold into the first bucket.
const QUANTILE_FLOOR: f64 = 1e-3;

/// Bounded-memory streaming quantile sketch with a p999 tier.
///
/// [`Samples`] keeps every value, which is exact but O(n) memory — fine for
/// 128-job cells, unaffordable for million-job cluster runs. This sketch
/// instead counts samples in geometrically spaced buckets (growth factor
/// 1.01), so any quantile it reports is within 0.5% relative error of the
/// exact nearest-rank statistic while memory stays bounded by the dynamic
/// range (a few thousand `u64` counters), independent of stream length.
///
/// Sketches over disjoint streams [`merge`](StreamingQuantiles::merge)
/// losslessly, which is what lets per-device workers run in parallel and
/// still produce an order-independent cluster-wide report.
///
/// # Examples
///
/// ```
/// use sim_core::stats::StreamingQuantiles;
///
/// let mut q = StreamingQuantiles::new();
/// for v in 1..=1000 {
///     q.push(v as f64);
/// }
/// assert!((q.p50() - 500.0).abs() / 500.0 < 0.01);
/// assert!((q.p999() - 999.0).abs() / 999.0 < 0.01);
/// assert_eq!(q.len(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingQuantiles {
    /// Bucket `i` counts samples in `[FLOOR * G^i, FLOOR * G^(i+1))`; the
    /// vector grows on demand to the highest bucket seen.
    counts: Vec<u64>,
    /// Samples that were exactly zero (reported back as exactly zero).
    zeros: u64,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for StreamingQuantiles {
    fn default() -> Self {
        StreamingQuantiles {
            counts: Vec::new(),
            zeros: 0,
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl StreamingQuantiles {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        StreamingQuantiles::default()
    }

    fn bucket_of(v: f64) -> usize {
        if v < QUANTILE_FLOOR {
            return 0;
        }
        // The ratio saturates at f64::MAX rather than overflowing to +inf,
        // so every finite sample lands at or below `max_bucket`.
        ((v / QUANTILE_FLOOR).min(f64::MAX).ln() / QUANTILE_GROWTH.ln()).floor() as usize
    }

    /// The highest bucket index any finite sample can land in (about 71k),
    /// which bounds the sketch's bucket vector. Checkpoint parsers reject
    /// stored bucket indices above it.
    pub fn max_bucket() -> usize {
        Self::bucket_of(f64::MAX)
    }

    /// Geometric midpoint of bucket `i`, the sketch's representative for
    /// every sample that landed there.
    fn representative(&self, i: usize) -> f64 {
        let mid = QUANTILE_FLOOR * QUANTILE_GROWTH.powf(i as f64 + 0.5);
        mid.clamp(self.min, self.max)
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN, infinite, or negative.
    pub fn push(&mut self, v: f64) {
        assert!(v.is_finite(), "non-finite sample");
        assert!(v >= 0.0, "negative sample");
        if v == 0.0 {
            self.zeros += 1;
        } else {
            let b = Self::bucket_of(v);
            if b >= self.counts.len() {
                self.counts.resize(b + 1, 0);
            }
            self.counts[b] += 1;
        }
        self.total += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Adds a duration sample in microseconds.
    pub fn push_duration(&mut self, d: Duration) {
        self.push(d.as_us_f64());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Arithmetic mean, `0.0` when empty (exact, not bucketed).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum / self.total as f64
    }

    /// Smallest sample (exact), `0.0` when empty.
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.min
    }

    /// Largest sample (exact), `0.0` when empty.
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.max
    }

    /// Approximate `q`-quantile (`q` in `[0,1]`), nearest-rank convention
    /// matching [`Samples::percentile`]; `0.0` when empty. Within 0.5%
    /// relative error of the exact answer.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1) - 1;
        if rank < self.zeros {
            return 0.0;
        }
        let mut cum = self.zeros;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if rank < cum {
                return self.representative(i);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile — the tail tier fleet-scale SLO reporting keys on.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Folds another sketch into this one. Counts — and therefore every
    /// quantile, `len`, `min` and `max` — come out identical to pushing both
    /// streams into one sketch in any order. The `sum` behind `mean` is
    /// floating-point and accumulates in merge order, so callers that need
    /// bit-identical reports must merge in a deterministic order (the
    /// cluster layer merges per-device sketches in device-index order).
    pub fn merge(&mut self, other: &StreamingQuantiles) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.zeros += other.zeros;
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The sketch's raw state `(bucket_counts, zeros, sum, min, max)`, for
    /// checkpoint serialization. `min`/`max` are the *internal* sentinels
    /// (`+inf`/`-inf` when empty), not the `0.0` the accessors report, so a
    /// round trip through [`StreamingQuantiles::from_raw_parts`] is exact.
    pub fn raw_parts(&self) -> (&[u64], u64, f64, f64, f64) {
        (&self.counts, self.zeros, self.sum, self.min, self.max)
    }

    /// Rebuilds a sketch from [`StreamingQuantiles::raw_parts`] state; the
    /// sample count is recomputed from the bucket counts.
    pub fn from_raw_parts(counts: Vec<u64>, zeros: u64, sum: f64, min: f64, max: f64) -> Self {
        let total = zeros + counts.iter().sum::<u64>();
        StreamingQuantiles { counts, zeros, total, sum, min, max }
    }
}

/// Geometric mean of strictly positive values.
///
/// Values `<= 0` are clamped to `epsilon` (1e-9) so a single zero ratio (a
/// scheduler completing no jobs at all, as BAY does on IPV6 in the paper)
/// drags the geomean down without poisoning it into zero, mirroring how such
/// results are conventionally reported.
///
/// Returns `0.0` for an empty slice.
///
/// # Examples
///
/// ```
/// use sim_core::stats::geomean;
///
/// assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
/// assert_eq!(geomean(&[]), 0.0);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|&v| v.max(1e-9).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// A sliding-window event-rate meter.
///
/// Tracks how many events occurred in the last `window` of simulated time;
/// this is exactly the "WG completion rate" counter the paper adds to the
/// GPU (Section 4.1.1). Old events are evicted lazily on read.
#[derive(Debug, Clone)]
pub struct RateWindow {
    window: Duration,
    events: std::collections::VecDeque<(crate::time::Cycle, u64)>,
    total: u64,
}

impl RateWindow {
    /// Creates a meter with the given window length.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: Duration) -> Self {
        assert!(!window.is_zero(), "rate window must be non-zero");
        RateWindow { window, events: std::collections::VecDeque::new(), total: 0 }
    }

    /// Records `count` events at time `now`.
    pub fn record(&mut self, now: crate::time::Cycle, count: u64) {
        self.evict(now);
        self.events.push_back((now, count));
        self.total += count;
    }

    /// Events per microsecond over the window ending at `now`.
    pub fn rate_per_us(&mut self, now: crate::time::Cycle) -> f64 {
        self.evict(now);
        self.total as f64 / self.window.as_us_f64()
    }

    /// Raw event count in the window ending at `now`.
    pub fn count(&mut self, now: crate::time::Cycle) -> u64 {
        self.evict(now);
        self.total
    }

    fn evict(&mut self, now: crate::time::Cycle) {
        let cutoff = now - self.window; // saturating
        while let Some(&(t, c)) = self.events.front() {
            if t < cutoff {
                self.events.pop_front();
                self.total -= c;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Cycle;

    #[test]
    fn percentile_nearest_rank() {
        let mut s = Samples::new();
        for v in [10.0, 20.0, 30.0, 40.0] {
            s.push(v);
        }
        assert_eq!(s.percentile(0.25), 10.0);
        assert_eq!(s.percentile(0.5), 20.0);
        assert_eq!(s.percentile(0.99), 40.0);
        assert_eq!(s.percentile(1.0), 40.0);
    }

    #[test]
    fn percentile_after_interleaved_pushes() {
        let mut s = Samples::new();
        s.push(5.0);
        assert_eq!(s.percentile(1.0), 5.0);
        s.push(1.0);
        assert_eq!(s.percentile(0.0), 1.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let mut s = Samples::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(0.5), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(&[0.0, 1.0]) < 1e-3);
    }

    #[test]
    fn rate_window_evicts_old_events() {
        let mut w = RateWindow::new(Duration::from_us(100));
        w.record(Cycle::from_cycles(0), 10);
        assert_eq!(w.count(Cycle::from_cycles(0)), 10);
        // Still inside the window.
        assert_eq!(w.count(Cycle::ZERO + Duration::from_us(100)), 10);
        // Now outside.
        assert_eq!(w.count(Cycle::ZERO + Duration::from_us(201)), 0);
    }

    #[test]
    fn rate_window_rate_per_us() {
        let mut w = RateWindow::new(Duration::from_us(100));
        let now = Cycle::ZERO + Duration::from_us(50);
        w.record(now, 200);
        assert_eq!(w.rate_per_us(now), 2.0);
    }

    #[test]
    #[should_panic]
    fn nan_sample_panics() {
        Samples::new().push(f64::NAN);
    }

    /// Pushes the same seeded stream into an exact [`Samples`] and a
    /// [`StreamingQuantiles`] sketch and asserts every tier (p50..p999)
    /// agrees within the sketch's 0.5% bucket-width guarantee (1% margin).
    fn assert_sketch_tracks_exact(values: &[f64]) {
        let mut exact = Samples::new();
        let mut sketch = StreamingQuantiles::new();
        for &v in values {
            exact.push(v);
            sketch.push(v);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let e = exact.percentile(q);
            let s = sketch.quantile(q);
            let rel = (s - e).abs() / e.max(1e-12);
            assert!(rel < 0.01, "q={q}: sketch {s} vs exact {e} (rel {rel})");
        }
        assert_eq!(sketch.len(), values.len());
        assert_eq!(sketch.max(), exact.max());
        let mean_rel = (sketch.mean() - exact.mean()).abs() / exact.mean().max(1e-12);
        assert!(mean_rel < 1e-9, "mean is exact, not bucketed");
    }

    #[test]
    fn streaming_quantiles_track_exact_on_exponential_data() {
        // Exponential tails are the latency shape the cluster reports on.
        let mut rng = crate::rng::SimRng::seed_from(7);
        let values: Vec<f64> =
            (0..20_000).map(|_| -250.0 * (1.0 - rng.uniform_f64()).max(1e-15).ln()).collect();
        assert_sketch_tracks_exact(&values);
    }

    #[test]
    fn streaming_quantiles_track_exact_on_uniform_data() {
        let mut rng = crate::rng::SimRng::seed_from(21);
        let values: Vec<f64> = (0..20_000).map(|_| 5.0 + 995.0 * rng.uniform_f64()).collect();
        assert_sketch_tracks_exact(&values);
    }

    #[test]
    fn streaming_quantile_tiers_are_monotone() {
        let mut rng = crate::rng::SimRng::seed_from(3);
        let mut q = StreamingQuantiles::new();
        for _ in 0..10_000 {
            q.push(rng.uniform_f64() * 1e6);
        }
        assert!(q.p50() <= q.p99());
        assert!(q.p99() <= q.p999());
        assert!(q.p999() <= q.max());
        assert!(q.min() <= q.p50());
    }

    #[test]
    fn streaming_quantiles_merge_matches_single_stream_counts() {
        let mut rng = crate::rng::SimRng::seed_from(11);
        let values: Vec<f64> = (0..4_000).map(|_| rng.uniform_f64() * 300.0).collect();
        let mut whole = StreamingQuantiles::new();
        let mut left = StreamingQuantiles::new();
        let mut right = StreamingQuantiles::new();
        for (i, &v) in values.iter().enumerate() {
            whole.push(v);
            if i % 2 == 0 {
                left.push(v);
            } else {
                right.push(v);
            }
        }
        // Merge in either order: counts, quantiles and extrema are identical.
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(lr.quantile(q), whole.quantile(q));
            assert_eq!(rl.quantile(q), whole.quantile(q));
        }
        assert_eq!(lr.len(), whole.len());
        assert_eq!(lr.min(), whole.min());
        assert_eq!(lr.max(), whole.max());
        // The mean reassociates under merge; equal to ~1 ulp, not bitwise.
        assert!((lr.mean() - whole.mean()).abs() / whole.mean() < 1e-12);
    }

    #[test]
    fn streaming_quantiles_handle_zeros_and_empty() {
        let empty = StreamingQuantiles::new();
        assert!(empty.is_empty());
        assert_eq!(empty.quantile(0.5), 0.0);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.min(), 0.0);
        assert_eq!(empty.max(), 0.0);

        let mut q = StreamingQuantiles::new();
        for _ in 0..90 {
            q.push(0.0);
        }
        for _ in 0..10 {
            q.push(50.0);
        }
        assert_eq!(q.quantile(0.5), 0.0);
        assert_eq!(q.min(), 0.0);
        assert!((q.quantile(0.99) - 50.0).abs() / 50.0 < 0.01);
    }

    #[test]
    fn streaming_quantiles_are_deterministic_and_comparable() {
        let build = || {
            let mut q = StreamingQuantiles::new();
            let mut rng = crate::rng::SimRng::seed_from(5);
            for _ in 0..1_000 {
                q.push(rng.uniform_f64() * 1e4);
            }
            q
        };
        assert_eq!(build(), build());
    }

    #[test]
    #[should_panic = "negative sample"]
    fn streaming_quantiles_reject_negative_samples() {
        StreamingQuantiles::new().push(-1.0);
    }

    #[test]
    #[should_panic = "non-finite sample"]
    fn streaming_quantiles_reject_nan() {
        StreamingQuantiles::new().push(f64::NAN);
    }

    #[test]
    fn the_largest_finite_sample_lands_in_the_top_bucket() {
        let top = StreamingQuantiles::max_bucket();
        assert!((71_000..72_000).contains(&top), "{top}");
        let mut q = StreamingQuantiles::new();
        q.push(f64::MAX);
        q.push(f64::MAX / 2.0);
        assert_eq!(q.raw_parts().0.len(), top + 1);
        assert_eq!(q.max(), f64::MAX);
    }
}
