//! A deterministic discrete-event queue with O(log n) scheduling and lazy
//! cancellation.
//!
//! Events at equal timestamps pop in scheduling order (FIFO), which makes
//! whole-simulation runs bit-for-bit reproducible for a fixed RNG seed.

use crate::time::Cycle;

/// Handle to a scheduled event, used to cancel it before it fires.
///
/// Ids are unique for the lifetime of one [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

struct Entry<E> {
    at: Cycle,
    seq: u64,
    payload: E,
}

/// A 4-ary min-heap on `(at, seq)`. Quarter the depth of a binary heap and
/// children share a cache line, which matters because heap churn sits on the
/// simulator's hot path. Keys are unique (`seq` never repeats), so pop order
/// is the same total order any correct heap would produce.
struct Min4<E> {
    v: Vec<Entry<E>>,
}

impl<E> Min4<E> {
    const ARITY: usize = 4;

    fn new() -> Self {
        Min4 { v: Vec::new() }
    }

    #[inline]
    fn key(&self, i: usize) -> (Cycle, u64) {
        (self.v[i].at, self.v[i].seq)
    }

    #[inline]
    fn len(&self) -> usize {
        self.v.len()
    }

    #[inline]
    fn peek(&self) -> Option<&Entry<E>> {
        self.v.first()
    }

    fn push(&mut self, e: Entry<E>) {
        self.v.push(e);
        let mut i = self.v.len() - 1;
        while i > 0 {
            let parent = (i - 1) / Self::ARITY;
            if self.key(i) < self.key(parent) {
                self.v.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn pop(&mut self) -> Option<Entry<E>> {
        if self.v.is_empty() {
            return None;
        }
        let last = self.v.len() - 1;
        self.v.swap(0, last);
        let out = self.v.pop();
        self.sift_down(0);
        out
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.v.len();
        loop {
            let first = Self::ARITY * i + 1;
            if first >= n {
                break;
            }
            let mut m = first;
            for c in first + 1..(first + Self::ARITY).min(n) {
                if self.key(c) < self.key(m) {
                    m = c;
                }
            }
            if self.key(m) < self.key(i) {
                self.v.swap(i, m);
                i = m;
            } else {
                break;
            }
        }
    }

    /// Rebuilds the heap property over arbitrary contents in O(n).
    fn heapify(v: Vec<Entry<E>>) -> Self {
        let mut h = Min4 { v };
        if h.v.len() > 1 {
            for i in (0..=(h.v.len() - 2) / Self::ARITY).rev() {
                h.sift_down(i);
            }
        }
        h
    }
}

/// Priority queue of timestamped events.
///
/// Cancellation is *lazy*: cancelled entries stay in the heap and are skipped
/// on pop, so `cancel` is amortized O(1). When cancelled entries outnumber
/// half the heap the queue compacts itself — rebuilding the heap without the
/// dead entries — so a schedule/cancel storm keeps memory proportional to the
/// number of *live* events instead of growing without bound.
///
/// # Examples
///
/// ```
/// use sim_core::event::EventQueue;
/// use sim_core::time::Cycle;
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycle::from_cycles(20), "second");
/// let id = q.schedule(Cycle::from_cycles(5), "dropped");
/// q.schedule(Cycle::from_cycles(10), "first");
/// q.cancel(id);
/// assert_eq!(q.pop(), Some((Cycle::from_cycles(10), "first")));
/// assert_eq!(q.pop(), Some((Cycle::from_cycles(20), "second")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: Min4<E>,
    next_seq: u64,
    cancelled: std::collections::HashSet<u64>,
    now: Cycle,
    /// Bumped by every operation that can change the live head (schedule,
    /// pop, cancel), so hot loops can cache [`EventQueue::peek_key`] and
    /// recompute it only when this moves. Lazy cancelled-entry cleanup
    /// inside peeks does not bump it: the live head is unaffected.
    version: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: Min4::new(),
            next_seq: 0,
            cancelled: std::collections::HashSet::new(),
            now: Cycle::ZERO,
            version: 0,
        }
    }

    /// The timestamp of the most recently popped event (the current
    /// simulation time).
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error and panics in debug builds;
    /// release builds clamp to `now` to keep long runs alive.
    pub fn schedule(&mut self, at: Cycle, payload: E) -> EventId {
        debug_assert!(at >= self.now, "scheduling into the past: {at} < {}", self.now);
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.version += 1;
        self.heap.push(Entry { at, seq, payload });
        EventId(seq)
    }

    /// Reserves the next tie-break sequence number without scheduling an
    /// event.
    ///
    /// Callers that track deadlines *outside* the queue (e.g. a polled
    /// next-completion prediction) use stamps to give those deadlines a
    /// total order against scheduled events: an external deadline
    /// `(t, stamp)` fires before a queued event `(t', seq)` iff
    /// `(t, stamp) < (t', seq)` lexicographically — exactly the order the
    /// deadline would have popped in had it been scheduled at the moment
    /// the stamp was taken.
    pub fn stamp(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Cancels a previously scheduled event. Cancelling an already-fired or
    /// already-cancelled event is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.version += 1;
        self.cancelled.insert(id.0);
        if self.cancelled.len() * 2 > self.heap.len() {
            self.compact();
        }
    }

    /// Rebuilds the heap without cancelled entries. Ids left in `cancelled`
    /// afterwards referenced already-fired events (cancel-after-fire
    /// no-ops); dropping them keeps [`EventQueue::len`] exact.
    fn compact(&mut self) {
        let mut entries = std::mem::replace(&mut self.heap, Min4::new()).v;
        entries.retain(|e| !self.cancelled.contains(&e.seq));
        self.cancelled.clear();
        self.heap = Min4::heapify(entries);
    }

    /// Pops the earliest live event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.version += 1;
        while let Some(entry) = self.heap.pop() {
            if !self.cancelled.is_empty() && self.cancelled.remove(&entry.seq) {
                continue;
            }
            self.now = entry.at;
            return Some((entry.at, entry.payload));
        }
        None
    }

    /// Timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<Cycle> {
        self.peek_key().map(|(at, _)| at)
    }

    /// `(timestamp, sequence)` of the next live event without popping it.
    ///
    /// The pair orders the queue head against externally-tracked deadlines
    /// stamped with [`EventQueue::stamp`].
    pub fn peek_key(&mut self) -> Option<(Cycle, u64)> {
        if self.cancelled.is_empty() {
            return self.heap.peek().map(|e| (e.at, e.seq));
        }
        while let Some(entry) = self.heap.peek() {
            if self.cancelled.contains(&entry.seq) {
                let seq = entry.seq;
                self.heap.pop();
                self.cancelled.remove(&seq);
                continue;
            }
            return Some((entry.at, entry.seq));
        }
        None
    }

    /// Monotonic counter of live-head-affecting operations; see the field
    /// doc. Equal versions across two calls guarantee an unchanged
    /// [`EventQueue::peek_key`] result.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of live (non-cancelled) events still queued.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// `true` if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue").field("now", &self.now).field("live", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::from_cycles(30), 3);
        q.schedule(Cycle::from_cycles(10), 1);
        q.schedule(Cycle::from_cycles(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = Cycle::from_cycles(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(Cycle::from_cycles(1), "a");
        q.schedule(Cycle::from_cycles(2), "b");
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(Cycle::from_cycles(1), "a");
        assert!(q.pop().is_some());
        q.cancel(a);
        q.schedule(Cycle::from_cycles(2), "b");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::ZERO + Duration::from_us(1), ());
        q.pop();
        assert_eq!(q.now(), Cycle::from_cycles(1500));
    }

    #[test]
    fn peek_time_sees_through_cancellations() {
        let mut q = EventQueue::new();
        let a = q.schedule(Cycle::from_cycles(1), ());
        q.schedule(Cycle::from_cycles(7), ());
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(Cycle::from_cycles(7)));
    }

    #[test]
    fn peek_key_matches_pop_order() {
        let mut q = EventQueue::new();
        let t = Cycle::from_cycles(9);
        q.schedule(t, "first");
        let external = q.stamp();
        q.schedule(t, "second");
        // The queue head at the same timestamp but an earlier seq outranks
        // the external stamp; after it pops, the stamp outranks "second".
        let head = q.peek_key().unwrap();
        assert!(head < (t, external));
        q.pop();
        let head = q.peek_key().unwrap();
        assert!((t, external) < head);
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn cancel_storm_keeps_heap_bounded() {
        let mut q = EventQueue::new();
        let mut peak = 0usize;
        let mut survivors = Vec::new();
        for i in 0u64..10_000 {
            let id = q.schedule(Cycle::from_cycles(10_000 + i), i);
            if i % 8 == 0 {
                survivors.push(i);
            } else {
                q.cancel(id);
            }
            peak = peak.max(q.heap.len());
            // Compaction fires whenever dead entries exceed half the heap,
            // so the heap never holds more than live + dead <= 2*live + 1.
            assert!(
                q.heap.len() <= 2 * q.len() + 1,
                "heap {} not bounded by live {}",
                q.heap.len(),
                q.len()
            );
        }
        assert!(peak <= 2 * survivors.len() + 2, "peak heap {peak} unbounded");
        assert_eq!(q.len(), survivors.len());
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, survivors);
    }

    #[test]
    fn pop_order_unchanged_through_compaction() {
        // Interleave schedules, cancels, and pops (including equal-time FIFO
        // runs) and check against a naive sorted model.
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new(); // (time, id), id = insertion order
        let mut next_id = 0u64;
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        let mut rng = 0x9e3779b97f4a7c15u64;
        let step = |s: &mut u64| {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            *s
        };
        for round in 0..200 {
            let base = 1_000 * (round + 1);
            let mut ids = Vec::new();
            for _ in 0..20 {
                let t = base + step(&mut rng) % 5; // lots of equal-time ties
                ids.push((q.schedule(Cycle::from_cycles(t), next_id), t, next_id));
                model.push((t, next_id));
                next_id += 1;
            }
            for &(id, t, payload) in &ids {
                if step(&mut rng) % 3 != 0 {
                    q.cancel(id);
                    model.retain(|&(mt, mid)| !(mt == t && mid == payload));
                }
            }
            for _ in 0..5 {
                if let Some((_, e)) = q.pop() {
                    popped.push(e);
                    model.sort(); // (time, insertion id): FIFO at equal times
                    expected.push(model.remove(0).1);
                }
            }
        }
        while let Some((_, e)) = q.pop() {
            popped.push(e);
            model.sort();
            expected.push(model.remove(0).1);
        }
        assert!(model.is_empty());
        assert_eq!(popped, expected);
    }
}
