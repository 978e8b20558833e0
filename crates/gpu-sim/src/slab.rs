//! A minimal generational arena for in-flight simulation objects
//! (wavefronts, workgroups, kernel runs).
//!
//! Keys are reused after removal but carry a generation so a stale key can
//! never silently alias a new object — important because memory-response
//! events may outlive the wavefront they target if a kernel is squashed.

/// Key into a [`Slab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlabKey {
    index: u32,
    generation: u32,
}

impl SlabKey {
    /// Raw slot index (stable while the entry is live).
    #[inline]
    pub fn index(self) -> usize {
        self.index as usize
    }
}

#[derive(Debug)]
enum Slot<T> {
    Occupied { generation: u32, value: T },
    Free { generation: u32, next_free: Option<u32> },
}

/// Generational arena.
///
/// # Examples
///
/// ```
/// use gpu_sim::slab::Slab;
///
/// let mut s = Slab::new();
/// let k = s.insert("wave");
/// assert_eq!(s[k], "wave");
/// assert_eq!(s.remove(k), Some("wave"));
/// assert!(s.get(k).is_none()); // stale key
/// ```
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: Option<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Slab { slots: Vec::new(), free_head: None, len: 0 }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value, returning its key.
    pub fn insert(&mut self, value: T) -> SlabKey {
        self.len += 1;
        if let Some(idx) = self.free_head {
            let slot = &mut self.slots[idx as usize];
            let (generation, next_free) = match slot {
                Slot::Free { generation, next_free } => (*generation, *next_free),
                Slot::Occupied { .. } => unreachable!("free list points at occupied slot"),
            };
            self.free_head = next_free;
            let generation = generation.wrapping_add(1);
            *slot = Slot::Occupied { generation, value };
            SlabKey { index: idx, generation }
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot::Occupied { generation: 0, value });
            SlabKey { index: idx, generation: 0 }
        }
    }

    /// Drops every live entry and recycles all slots, without releasing
    /// the slot storage. Generations advance exactly as if each entry had
    /// been [`remove`](Slab::remove)d individually, so keys handed out
    /// before the clear are stale afterwards — and keys minted by
    /// subsequent inserts are identical to the remove-then-reinsert
    /// sequence (see the `clear_matches_individual_removes` test).
    pub fn clear(&mut self) {
        // Rebuild the free list back-to-front over *every* slot (already
        // free ones included, so none leak) so the head ends up at the
        // lowest index — the order `remove` produces when called on a
        // fully occupied slab in descending index order.
        self.free_head = None;
        for (i, slot) in self.slots.iter_mut().enumerate().rev() {
            let generation = match slot {
                Slot::Occupied { generation, .. } | Slot::Free { generation, .. } => *generation,
            };
            *slot = Slot::Free { generation, next_free: self.free_head };
            self.free_head = Some(i as u32);
        }
        self.len = 0;
    }

    /// Debug guard against keys that were never minted by this slab: a
    /// key's generation can never exceed its slot's current generation,
    /// so a larger one means the key came from a different slab (or from
    /// a future this slab hasn't reached). Stale-but-genuine keys (older
    /// generation) are a legal miss and stay silent.
    #[inline]
    fn check_key(&self, key: SlabKey) {
        if cfg!(debug_assertions) {
            if let Some(slot) = self.slots.get(key.index()) {
                let current = match slot {
                    Slot::Occupied { generation, .. } | Slot::Free { generation, .. } => {
                        *generation
                    }
                };
                debug_assert!(
                    key.generation <= current,
                    "slab key generation {} is ahead of slot {} generation {} — \
                     key was minted by a different slab",
                    key.generation,
                    key.index,
                    current,
                );
            }
        }
    }

    /// Returns a reference if the key is live.
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        self.check_key(key);
        match self.slots.get(key.index())? {
            Slot::Occupied { generation, value } if *generation == key.generation => Some(value),
            _ => None,
        }
    }

    /// Returns a mutable reference if the key is live.
    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        self.check_key(key);
        match self.slots.get_mut(key.index())? {
            Slot::Occupied { generation, value } if *generation == key.generation => Some(value),
            _ => None,
        }
    }

    /// Removes and returns the value if the key is live.
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        self.check_key(key);
        let slot = self.slots.get_mut(key.index())?;
        match slot {
            Slot::Occupied { generation, .. } if *generation == key.generation => {
                let generation = *generation;
                let old =
                    std::mem::replace(slot, Slot::Free { generation, next_free: self.free_head });
                self.free_head = Some(key.index);
                self.len -= 1;
                match old {
                    Slot::Occupied { value, .. } => Some(value),
                    Slot::Free { .. } => unreachable!(),
                }
            }
            _ => None,
        }
    }

    /// Iterates over live `(key, &value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (SlabKey, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Occupied { generation, value } => {
                Some((SlabKey { index: i as u32, generation: *generation }, value))
            }
            Slot::Free { .. } => None,
        })
    }
}

impl<T> std::ops::Index<SlabKey> for Slab<T> {
    type Output = T;
    /// # Panics
    ///
    /// Panics if the key is stale or out of range.
    fn index(&self, key: SlabKey) -> &T {
        self.get(key).expect("stale or invalid slab key")
    }
}

impl<T> std::ops::IndexMut<SlabKey> for Slab<T> {
    fn index_mut(&mut self, key: SlabKey) -> &mut T {
        self.get_mut(key).expect("stale or invalid slab key")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut s = Slab::new();
        let a = s.insert(1);
        let b = s.insert(2);
        assert_eq!(s.len(), 2);
        assert_eq!(s[a], 1);
        assert_eq!(s.remove(a), Some(1));
        assert_eq!(s.get(a), None);
        assert_eq!(s[b], 2);
    }

    #[test]
    fn slots_are_reused_with_new_generation() {
        let mut s = Slab::new();
        let a = s.insert("a");
        s.remove(a);
        let b = s.insert("b");
        assert_eq!(a.index(), b.index());
        assert_ne!(a, b);
        assert_eq!(s.get(a), None);
        assert_eq!(s[b], "b");
    }

    #[test]
    fn iter_skips_free_slots() {
        let mut s = Slab::new();
        let a = s.insert(1);
        let _b = s.insert(2);
        let _c = s.insert(3);
        s.remove(a);
        let live: Vec<i32> = s.iter().map(|(_, v)| *v).collect();
        assert_eq!(live, vec![2, 3]);
    }

    #[test]
    fn clear_recycles_slots_and_stales_old_keys() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.get(a), None);
        assert_eq!(s.get(b), None);
        // Reuse starts at the lowest index, with generation bumped.
        let c = s.insert("c");
        assert_eq!(c.index(), 0);
        assert_ne!(a, c);
        assert_eq!(s[c], "c");
    }

    /// `clear` must mint exactly the same keys on reuse as removing every
    /// entry individually (highest index first) would — per-wave scratch
    /// callers rely on key-generation stability across clear/reuse cycles.
    #[test]
    fn clear_matches_individual_removes() {
        let mut via_clear = Slab::new();
        let mut via_remove = Slab::new();
        for round in 0..5 {
            let n = 3 + round;
            let ka: Vec<_> = (0..n).map(|i| via_clear.insert(i)).collect();
            let kb: Vec<_> = (0..n).map(|i| via_remove.insert(i)).collect();
            assert_eq!(ka, kb, "insert keys diverged in round {round}");
            via_clear.clear();
            for &k in kb.iter().rev() {
                via_remove.remove(k);
            }
        }
    }

    #[test]
    #[should_panic(expected = "ahead of slot")]
    #[cfg(debug_assertions)]
    fn foreign_key_is_caught_in_debug() {
        let mut minted = Slab::new();
        let k0 = minted.insert(0);
        minted.remove(k0);
        let fresh = minted.insert(1); // generation 1 at index 0
        let mut other = Slab::new();
        other.insert("x"); // generation 0 at index 0
        let _ = other.get(fresh); // key from `minted`, generation too new
    }

    #[test]
    fn double_remove_is_none() {
        let mut s = Slab::new();
        let a = s.insert(5);
        assert_eq!(s.remove(a), Some(5));
        assert_eq!(s.remove(a), None);
        assert!(s.is_empty());
    }
}
