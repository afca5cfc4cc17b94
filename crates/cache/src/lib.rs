//! # rqfa-cache — one stamp-invalidated result cache
//!
//! The paper's §3 *bypass token* is "data on the previous selection":
//! remember which variant a retrieval chose, reuse it while the case base
//! is unchanged. Both allocation managers of this workspace keep exactly
//! that — `rqfa_service::cache::RetrievalCache` on the serving path and
//! the `rqfa-rsoc` manager and CBR cycle, which hold a [`GenCache`]
//! directly — so invalidation and eviction semantics cannot diverge.
//!
//! The pieces, each usable on its own:
//!
//! * [`GenCache`] — the store: keyed by a `u64` fingerprint, stamped with
//!   a generic *generation* (`G: Copy + Eq`; every holder instantiates it
//!   with `rqfa_core::Generation` and passes the stamp of the request's
//!   function type — the generation of that type's last mutation — so a
//!   mutation invalidates one type's entries). A lookup hits only when the
//!   stamp matches; a mismatch is a *stale* miss that drops the entry on
//!   the spot, so the recompute that follows re-inserts it as the newest
//!   entry (the historical FIFO cache kept the old position — see
//!   `docs/caching.md` for why that was a bug). At capacity the oldest
//!   *insertion* is evicted — FIFO: hits and overwrites do no
//!   bookkeeping at all.
//! * [`DigestState`] — the hasher for maps keyed by a fingerprint: one
//!   seeded multiply, because the key is a digest already.
//!
//! Observable behaviour is a pure function of the operation history — no
//! clocks, and the one random value, the index's hash seed, decides only
//! where an entry sits, never which one is evicted — so a brute-force
//! model can (and does, in the workspace test
//! `tests/cache_differential.rs`) replay arbitrary operation traces and
//! demand bit-identical observable behaviour.
//!
//! ```
//! use rqfa_cache::GenCache;
//!
//! let mut cache: GenCache<&str, u64> = GenCache::new(2);
//! cache.insert(1, 0, "one");
//! cache.insert(2, 0, "two");
//! assert_eq!(cache.lookup(1, 0), Some(&"one"));
//! cache.insert(3, 0, "three");           // capacity 2: key 1, the oldest insert, goes
//! assert_eq!(cache.lookup(1, 0), None);
//! assert_eq!(cache.lookup(2, 1), None);  // generation moved on: stale
//! assert_eq!(cache.stats().stale, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digest;

pub use digest::DigestState;

use std::collections::HashMap;

/// Cumulative observable counters of one [`GenCache`].
///
/// Invariants (asserted by the differential harness):
/// `hits + misses == lookups`, and `stale <= misses` (a miss
/// subcategory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served (hit or miss).
    pub lookups: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups not answered (absent or stale).
    pub misses: u64,
    /// Misses caused by a generation mismatch (entry dropped on the spot).
    pub stale: u64,
    /// Stores accepted (fresh inserts and in-place overwrites).
    pub insertions: u64,
    /// Entries displaced (oldest insertion first) to make room.
    pub evictions: u64,
}

/// "No slot": the end of the insertion-order list and of the free list.
const NIL: u32 = u32::MAX;

/// One slab slot. A live slot is a node of the insertion-order list; a
/// free one holds no value and links to the next free slot by `next`.
#[derive(Debug, Clone)]
struct Slot<V, G> {
    key: u64,
    prev: u32,
    next: u32,
    /// The generation `value` was computed at.
    stamp: G,
    value: Option<V>,
}

/// Fingerprint-keyed, generation-invalidated, FIFO-evicted store.
///
/// `V` is the cached value, `G` the generation stamp (any `Copy + Eq`
/// type — the workspace uses `rqfa_core::Generation`).
///
/// Semantics, normative for every holder (see `docs/caching.md`):
///
/// * a lookup hits iff the key is resident **and** its stamp equals the
///   lookup stamp;
/// * a stale entry is removed at detection, so its eventual re-insert is
///   a *fresh* insert, the newest in the eviction order;
/// * an insert over a resident key overwrites in place and keeps the
///   original place in the eviction order;
/// * at capacity a fresh insert evicts the oldest insertion;
/// * capacity 0 disables storage entirely (lookups still count).
///
/// Entries live in one slab, threaded into a list in insertion order
/// (the victim is its head); one index maps fingerprint → slot. Every
/// operation is O(1), and a store writes into a slot: nothing is
/// allocated per entry unless `V` itself does.
#[derive(Debug, Clone)]
pub struct GenCache<V, G: Copy + Eq> {
    capacity: usize,
    slots: Vec<Slot<V, G>>,
    /// Fingerprint → slot. Probed, never iterated: victims come from the
    /// list, so the hash seed cannot reach observable behaviour — two
    /// caches fed the same operations evict identically.
    index: HashMap<u64, u32, DigestState>,
    /// The oldest and the newest insertion, and the first free slot.
    head: u32,
    tail: u32,
    free: u32,
    stats: CacheStats,
}

impl<V, G: Copy + Eq> GenCache<V, G> {
    /// A cache of at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> GenCache<V, G> {
        // Reserved, not touched: a large cache costs pages as it fills.
        let reserve = capacity.min(1 << 16);
        GenCache {
            capacity: capacity.min(NIL as usize), // slot numbers are `u32`
            slots: Vec::with_capacity(reserve),
            index: HashMap::with_capacity_and_hasher(reserve, DigestState::default()),
            head: NIL,
            tail: NIL,
            free: NIL,
            stats: CacheStats::default(),
        }
    }

    /// Looks the key up at `stamp`. A generation mismatch counts as a
    /// stale miss and drops the entry.
    pub fn lookup(&mut self, key: u64, stamp: G) -> Option<&V> {
        self.stats.lookups += 1;
        let Some(&at) = self.index.get(&key) else {
            self.stats.misses += 1;
            return None;
        };
        if self.slots[at as usize].stamp != stamp {
            // Invalidated by a mutation. A stamp never returns to a value
            // it left, so the entry can never hit again — drop it now,
            // which also re-ages the recompute that follows (the refresh
            // enters as a brand-new insert).
            self.stats.stale += 1;
            self.stats.misses += 1;
            self.remove(key);
            return None;
        }
        self.stats.hits += 1;
        self.slots[at as usize].value.as_ref()
    }

    /// The resident value at `stamp` without touching statistics.
    #[cfg(test)]
    fn peek(&self, key: u64, stamp: G) -> Option<&V> {
        let slot = &self.slots[*self.index.get(&key)? as usize];
        slot.value.as_ref().filter(|_| slot.stamp == stamp)
    }

    /// Stores `value` computed at `stamp`. Overwrites in place when the
    /// key is resident (whatever its old stamp); otherwise the oldest
    /// insertion is evicted at capacity and the entry enters fresh.
    pub fn insert(&mut self, key: u64, stamp: G, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.stats.insertions += 1;
        if let Some(&at) = self.index.get(&key) {
            let slot = &mut self.slots[at as usize];
            (slot.stamp, slot.value) = (stamp, Some(value));
            return;
        }
        if self.index.len() >= self.capacity {
            self.stats.evictions += 1;
            self.remove(self.slots[self.head as usize].key);
        }
        let slot = Slot {
            key,
            prev: self.tail,
            next: NIL,
            stamp,
            value: Some(value),
        };
        let mut at = self.free;
        if at == NIL {
            at = self.slots.len() as u32; // below the capacity, which is at most `NIL`
            self.slots.push(slot);
        } else {
            self.free = std::mem::replace(&mut self.slots[at as usize], slot).next;
        }
        match self.tail {
            NIL => self.head = at,
            tail => self.slots[tail as usize].next = at,
        }
        self.tail = at;
        self.index.insert(key, at);
        self.debug_check();
    }

    /// Drops one key, returning its value: its slot leaves the index and
    /// the list for the free list.
    fn remove(&mut self, key: u64) -> Option<V> {
        let at = self.index.remove(&key)?;
        let slot = &mut self.slots[at as usize];
        let (prev, next, value) = (slot.prev, slot.next, slot.value.take());
        slot.next = std::mem::replace(&mut self.free, at);
        match prev {
            NIL => self.head = next,
            prev => self.slots[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.slots[next as usize].prev = prev,
        }
        self.debug_check();
        value
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Slab, list and index must describe one resident set: debug builds
    /// walk all three after every change of structure.
    fn debug_check(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let (mut at, mut prev, mut live, mut free) = (self.head, NIL, 0, 0);
        while at != NIL {
            let slot = &self.slots[at as usize];
            assert!(slot.value.is_some(), "slot {at} is listed but free");
            assert_eq!(slot.prev, prev, "slot {at} does not link back");
            assert_eq!(self.index.get(&slot.key), Some(&at), "slot {at} is not indexed by its key");
            (prev, at, live) = (at, slot.next, live + 1);
        }
        assert_eq!(prev, self.tail, "the list does not end at its tail");
        at = self.free;
        while at != NIL {
            assert!(self.slots[at as usize].value.is_none(), "slot {at} is free but live");
            (at, free) = (self.slots[at as usize].next, free + 1);
        }
        assert_eq!(live, self.index.len(), "list and index differ in length");
        assert_eq!(live + free, self.slots.len(), "a slot is neither listed nor free");
        assert!(self.slots.len() <= self.capacity, "the slab outgrew the capacity");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize) -> GenCache<u32, u64> {
        GenCache::new(capacity)
    }

    #[test]
    fn hit_requires_matching_stamp_and_stale_drops() {
        let mut c = cache(8);
        c.insert(42, 0, 1);
        assert_eq!(c.lookup(42, 0), Some(&1));
        assert_eq!(c.lookup(42, 1), None);
        assert!(c.is_empty(), "stale entries are dropped");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.stale), (1, 1, 1));
        assert_eq!(s.lookups, s.hits + s.misses);
    }

    #[test]
    fn stale_refresh_re_ages_the_entry() {
        // Regression for the historical FIFO cache: a refreshed entry
        // kept its original insertion age and could be evicted as the
        // oldest resident right after being recomputed. Unified
        // semantics: the stale drop makes the refresh a fresh insert.
        let mut c = cache(2);
        c.insert(1, 0, 10);
        c.insert(2, 0, 20);
        assert_eq!(c.lookup(1, 1), None, "stale");
        c.insert(1, 1, 11); // refresh: now the *newest* entry
        c.insert(3, 1, 30); // evicts 2 (the oldest), not the refreshed 1
        assert_eq!(c.lookup(1, 1), Some(&11));
        assert_eq!(c.lookup(2, 1), None);
        assert_eq!(c.lookup(3, 1), Some(&30));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_storage_but_counts_lookups() {
        let mut c = cache(0);
        c.insert(1, 0, 1);
        assert!(c.is_empty());
        assert_eq!(c.lookup(1, 0), None);
        let s = c.stats();
        assert_eq!((s.lookups, s.misses, s.insertions), (1, 1, 0));
    }

    #[test]
    fn peek_and_remove_do_not_touch_lookup_stats() {
        let mut c = cache(4);
        c.insert(1, 0, 9);
        assert_eq!(c.peek(1, 0), Some(&9));
        assert_eq!(c.peek(1, 1), None);
        assert_eq!(c.remove(1), Some(9));
        assert_eq!(c.remove(1), None);
        assert_eq!(c.stats().lookups, 0);
    }

    #[test]
    fn freed_slots_are_recycled_and_the_slab_stays_within_capacity() {
        let mut c = cache(4);
        for round in 0..50u64 {
            for key in 0..6 {
                c.insert(round * 6 + key, round, 0);
            }
            // A removal from the middle of the list and a stale drop at
            // its head, so the free list holds slots out of slab order.
            c.remove(round * 6 + 4);
            assert_eq!(c.lookup(round * 6 + 2, round + 1), None);
            assert_eq!(c.len(), 2);
        }
        assert_eq!(c.slots.len(), 4, "grown to capacity once, then recycled");
        assert_eq!(c.stats().evictions, 2 + 49 * 4);
    }

    #[test]
    fn eviction_respects_capacity() {
        let mut c = cache(3);
        for key in 0..10 {
            c.insert(key, 0, u32::try_from(key).unwrap());
            assert!(c.len() <= 3);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().evictions, 7);
    }

    #[test]
    fn fifo_victims_in_insertion_order_despite_hits() {
        let mut c = cache(3);
        for key in [1, 2, 3] {
            c.insert(key, 0, 0);
        }
        assert_eq!(c.lookup(1, 0), Some(&0));
        c.insert(1, 0, 7); // overwrite in place: keeps the original age
        c.insert(4, 0, 0);
        assert_eq!(c.peek(1, 0), None, "FIFO ignores hits and overwrites");
        c.insert(5, 0, 0);
        assert_eq!(c.peek(2, 0), None);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn removal_forgets_keys() {
        // A removed key must leave the eviction queue too: it neither
        // counts toward capacity nor comes back as a phantom victim.
        let mut c = cache(2);
        c.insert(1, 0, 0);
        c.insert(2, 0, 0);
        assert_eq!(c.remove(2), Some(0));
        c.insert(3, 0, 0);
        assert_eq!((c.len(), c.stats().evictions), (2, 0), "room was freed");
        c.insert(4, 0, 0);
        assert_eq!(c.peek(1, 0), None, "the oldest survivor goes first");
        assert_eq!(c.peek(3, 0), Some(&0));
        assert_eq!(c.stats().evictions, 1);
    }
}
