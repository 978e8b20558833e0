//! Set-associative cache model with true LRU replacement.
//!
//! The simulator probes caches at request-issue time and converts the result
//! into a latency; there is no coherence traffic to model because the
//! workloads are read-dominated inference/lookup kernels and the paper's
//! system is a unified-memory APU without device copies (Section 5).
//!
//! Tags are stored as `u32`: the shared L2's tag array is 256 KiB instead
//! of 512 KiB, and a 16-way set fits one 64-byte host line. A tag is the
//! address shifted right by the way size (sets × line bytes), so a cache
//! reaches the first `2^32` way sizes of the address space. Every address
//! the simulator generates is below [`ADDRESS_LIMIT`] (2^43), and
//! [`crate::config::GpuConfig::validate`] rejects ways smaller than
//! [`MIN_WAY_BYTES`] (2 KiB), so a configured cache reaches every address.
//! A direct probe past a cache's reach panics; it never aliases another
//! line silently.

use crate::memory::ADDRESS_LIMIT;

/// Smallest way (sets × line bytes) whose 32-bit tags reach every address
/// below [`ADDRESS_LIMIT`].
pub const MIN_WAY_BYTES: u64 = ADDRESS_LIMIT >> u32::BITS;

/// Largest associativity: a set's occupancy is kept in one byte.
pub const MAX_WAYS: u32 = u8::MAX as u32;

/// Result of probing one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResult {
    /// Line was present.
    Hit,
    /// Line was absent and has been allocated.
    Miss,
}

/// A set-associative, LRU, allocate-on-miss cache over 64-byte lines.
///
/// # Examples
///
/// ```
/// use gpu_sim::cache::{ProbeResult, SetAssocCache};
///
/// let mut c = SetAssocCache::new(4 * 64, 2, 64); // 4 lines, 2-way
/// assert_eq!(c.probe(0), ProbeResult::Miss);
/// assert_eq!(c.probe(0), ProbeResult::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// All tag storage, one fixed-stride `ways`-sized slice per set, each
    /// slice in LRU order (slot 0 = LRU, `len-1` = MRU). Flat layout keeps
    /// a probe inside one or two cache lines instead of chasing a per-set
    /// heap allocation.
    tags: Vec<u32>,
    /// Occupied ways per set.
    lens: Vec<u8>,
    ways: usize,
    set_mask: u64,
    tag_shift: u32,
    line_shift: u32,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates a cache of `bytes` capacity, `ways` associativity and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (non-power-of-two set count,
    /// zero ways or more than [`MAX_WAYS`], capacity not divisible by way
    /// size).
    pub fn new(bytes: u32, ways: u32, line_bytes: u32) -> Self {
        assert!((1..=MAX_WAYS).contains(&ways), "associativity {ways} is not 1 to {MAX_WAYS}");
        assert!(line_bytes.is_power_of_two() && line_bytes > 0);
        let lines = bytes / line_bytes;
        assert!(lines > 0 && lines.is_multiple_of(ways), "bad cache geometry");
        let num_sets = (lines / ways) as u64;
        assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        SetAssocCache {
            tags: vec![0; (num_sets * ways as u64) as usize],
            lens: vec![0; num_sets as usize],
            ways: ways as usize,
            set_mask: num_sets - 1,
            tag_shift: num_sets.trailing_zeros(),
            line_shift: line_bytes.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of sets; an access run of up to this many consecutive lines
    /// touches pairwise-distinct sets (see
    /// [`crate::memory::MemoryHierarchy::access_run`]).
    #[inline]
    pub fn num_sets(&self) -> u64 {
        self.set_mask + 1
    }

    /// Probes (and on miss, allocates) the line containing `addr`.
    #[inline]
    pub fn probe(&mut self, addr: u64) -> ProbeResult {
        if self.probe_line(addr >> self.line_shift) {
            ProbeResult::Hit
        } else {
            ProbeResult::Miss
        }
    }

    /// Probes (and on miss, allocates) cache line number `line`; returns
    /// `true` on a hit. The `probe` body minus the address shift, for
    /// callers that iterate line numbers directly.
    ///
    /// # Panics
    ///
    /// Panics if `line` is past the cache's reach (its tag needs more
    /// than 32 bits).
    #[inline]
    pub fn probe_line(&mut self, line: u64) -> bool {
        let set_idx = (line & self.set_mask) as usize;
        let tag = self.tag(line);
        let len = self.lens[set_idx] as usize;
        let base = set_idx * self.ways;
        // Most probes re-touch the most recently used line; a hit there
        // needs no reordering at all.
        if len > 0 && self.tags[base + len - 1] == tag {
            self.hits += 1;
            return true;
        }
        self.probe_slow(set_idx, base, len, tag)
    }

    /// Probes `count` consecutive lines starting at `line`, returning a
    /// miss mask (bit `i` set = line `i` missed). Caller guarantees
    /// `count <= num_sets()` so the lines touch pairwise-distinct sets and
    /// the probes are order-independent.
    ///
    /// When the run does not wrap the set index space, all lines share one
    /// tag (`line >> tag_shift` is constant while `line & set_mask`
    /// increments), so the sweep hoists the tag and walks the per-set
    /// metadata contiguously instead of re-deriving both per line.
    pub fn probe_run(&mut self, line: u64, count: u32) -> u32 {
        debug_assert!(count as u64 <= self.num_sets());
        let set0 = (line & self.set_mask) as usize;
        let mut miss = 0u32;
        if set0 + count as usize <= self.num_sets() as usize {
            let tag = self.tag(line);
            for i in 0..count as usize {
                let set_idx = set0 + i;
                let len = self.lens[set_idx] as usize;
                let base = set_idx * self.ways;
                if len > 0 && self.tags[base + len - 1] == tag {
                    self.hits += 1;
                } else if !self.probe_slow(set_idx, base, len, tag) {
                    miss |= 1 << i;
                }
            }
        } else {
            for i in 0..count as u64 {
                if !self.probe_line(line + i) {
                    miss |= 1 << i as u32;
                }
            }
        }
        miss
    }

    /// The 32-bit tag of cache line number `line`.
    #[inline]
    fn tag(&self, line: u64) -> u32 {
        let tag = line >> self.tag_shift;
        assert!(tag <= u64::from(u32::MAX), "line {line:#x} is past the cache's 32-bit tag reach");
        tag as u32
    }

    /// Non-MRU probe outcome: scan the set, rotate on hit, allocate on miss.
    fn probe_slow(&mut self, set_idx: usize, base: usize, len: usize, tag: u32) -> bool {
        let set = &mut self.tags[base..base + len];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            set.copy_within(pos + 1.., pos);
            set[len - 1] = tag;
            self.hits += 1;
            true
        } else if len == self.ways {
            set.copy_within(1.., 0);
            set[len - 1] = tag;
            self.misses += 1;
            false
        } else {
            self.tags[base + len] = tag;
            self.lens[set_idx] += 1;
            self.misses += 1;
            false
        }
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in `[0,1]`; `0.0` before any access.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = SetAssocCache::new(1024, 4, 64);
        assert_eq!(c.probe(0x100), ProbeResult::Miss);
        assert_eq!(c.probe(0x100), ProbeResult::Hit);
        assert_eq!(c.probe(0x13f), ProbeResult::Hit, "same line");
        assert_eq!(c.probe(0x140), ProbeResult::Miss, "next line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2 sets * 2 ways. Lines mapping to set 0: line numbers 0,2,4,...
        let mut c = SetAssocCache::new(4 * 64, 2, 64);
        let line = |n: u64| n * 64;
        assert_eq!(c.probe(line(0)), ProbeResult::Miss);
        assert_eq!(c.probe(line(2)), ProbeResult::Miss);
        // Touch line 0 so line 2 is LRU.
        assert_eq!(c.probe(line(0)), ProbeResult::Hit);
        // New line in set 0 evicts line 2.
        assert_eq!(c.probe(line(4)), ProbeResult::Miss);
        assert_eq!(c.probe(line(0)), ProbeResult::Hit);
        assert_eq!(c.probe(line(2)), ProbeResult::Miss, "was evicted");
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = SetAssocCache::new(16 * 64, 4, 64);
        // Stream 64 distinct lines twice: second pass still misses.
        for pass in 0..2 {
            for n in 0..64u64 {
                let r = c.probe(n * 64);
                if pass == 1 {
                    assert_eq!(r, ProbeResult::Miss);
                }
            }
        }
    }

    #[test]
    fn working_set_smaller_than_cache_hits() {
        let mut c = SetAssocCache::new(64 * 64, 4, 64);
        for n in 0..16u64 {
            c.probe(n * 64);
        }
        for n in 0..16u64 {
            assert_eq!(c.probe(n * 64), ProbeResult::Hit);
        }
        assert!(c.hit_rate() >= 0.5);
    }

    /// The packed sorted-LRU implementation must match a straightforward
    /// recency-ordered list model exactly: cross-check hit/miss sequences
    /// over an adversarial access mix 3x larger than the cache.
    #[test]
    fn probe_matches_reference_lru_model() {
        let ways = 4usize;
        let mut c = SetAssocCache::new(8 * 64, ways as u32, 64); // 2 sets, 4 ways
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); 2]; // MRU at end
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = x % 24;
            let set = (line & 1) as usize;
            let tag = line >> 1;
            let hit = c.probe(line * 64) == ProbeResult::Hit;
            let m = &mut model[set];
            let model_hit = if let Some(pos) = m.iter().position(|&t| t == tag) {
                m.remove(pos);
                m.push(tag);
                true
            } else {
                if m.len() == ways {
                    m.remove(0); // evict LRU
                }
                m.push(tag);
                false
            };
            assert_eq!(hit, model_hit, "divergence at line {line}");
        }
        assert!(c.hits() > 0 && c.misses() > 0);
    }

    #[test]
    fn tags_reach_every_address_below_the_limit() {
        // A minimal way (MIN_WAY_BYTES: 32 sets of 64-byte lines) tells the
        // top line below ADDRESS_LIMIT apart from its low-tag aliases.
        let mut c = SetAssocCache::new(MIN_WAY_BYTES as u32 * 2, 2, 64);
        let top = ADDRESS_LIMIT - 64;
        assert_eq!(c.probe(top), ProbeResult::Miss);
        assert_eq!(c.probe(top % MIN_WAY_BYTES), ProbeResult::Miss, "a distinct line");
        assert_eq!(c.probe(top), ProbeResult::Hit);
        assert_eq!(c.probe_run(top >> 6, 1), 0);
    }

    #[test]
    #[should_panic(expected = "32-bit tag reach")]
    fn a_probe_past_the_reach_panics_instead_of_aliasing() {
        let mut c = SetAssocCache::new(MIN_WAY_BYTES as u32 * 2, 2, 64);
        c.probe(0);
        // Tag 2^32 would truncate to tag 0 and hit the line above.
        c.probe(ADDRESS_LIMIT);
    }

    #[test]
    #[should_panic(expected = "32-bit tag reach")]
    fn a_probe_run_past_the_reach_panics_instead_of_aliasing() {
        let mut c = SetAssocCache::new(MIN_WAY_BYTES as u32 * 2, 2, 64);
        c.probe_run(ADDRESS_LIMIT >> 6, 4);
    }

    #[test]
    #[should_panic(expected = "associativity 256")]
    fn more_ways_than_the_occupancy_byte_counts_panics() {
        SetAssocCache::new(256 * 64, 256, 64);
    }

    #[test]
    #[should_panic]
    fn bad_geometry_panics() {
        SetAssocCache::new(3 * 64, 2, 64);
    }
}
