//! # rqfa-cache — one stamp-invalidated result cache
//!
//! The paper's §3 *bypass tokens* are a fingerprint-keyed result cache:
//! remember what a retrieval answered, reuse it while the case base is
//! unchanged. Two subsystems of this workspace grew that idea
//! independently — `rqfa_core::TokenCache` and
//! `rqfa_service::cache::RetrievalCache` — and both are now thin typed
//! facades over this crate, so invalidation and eviction semantics cannot
//! diverge again.
//!
//! The pieces, each usable on its own:
//!
//! * [`GenCache`] — the store: keyed by a `u64` fingerprint, stamped with
//!   a generic *generation* (`G: Copy + Eq`; both facades instantiate it
//!   with `rqfa_core::Generation` and pass the stamp of the request's
//!   function type — the generation of that type's last mutation — so a
//!   mutation invalidates one type's entries). A lookup hits only when the
//!   stamp matches; a mismatch is a *stale* miss that drops the entry on
//!   the spot, so the recompute that follows re-inserts it with a fresh
//!   age (the historical FIFO cache kept the old age — see
//!   `docs/caching.md` for why that was a bug). At capacity the oldest
//!   *insertion* is evicted — FIFO: hits and overwrites do no
//!   bookkeeping at all.
//! * [`RankedEntry`] — cross-request n-best subsumption: a cached top-*k*
//!   ranking answers later best-of and top-*j* (`j ≤ k`) lookups exactly.
//!
//! Everything is deterministic — no clocks, no randomness — so a
//! brute-force model can (and does, in the workspace test
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

mod ranked;

pub use ranked::RankedEntry;

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// Cumulative observable counters of one [`GenCache`].
///
/// Invariants (asserted by the differential harness):
/// `hits + misses == lookups`, and `stale + uncovered <= misses` (both
/// are miss subcategories).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served (hit or miss).
    pub lookups: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups not answered (absent, stale, or insufficient coverage).
    pub misses: u64,
    /// Misses caused by a generation mismatch (entry dropped on the spot).
    pub stale: u64,
    /// Misses where the entry was fresh but failed the caller's coverage
    /// predicate (e.g. a top-5 lookup over a cached top-3).
    pub uncovered: u64,
    /// Stores accepted (fresh inserts and in-place overwrites).
    pub insertions: u64,
    /// Entries displaced (oldest insertion first) to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 with no lookups.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / self.lookups as f64
            }
        }
    }
}

/// One resident entry: the value, the generation it was computed at, and
/// its insertion age (its key in the eviction queue).
#[derive(Debug, Clone)]
struct Slot<V, G> {
    stamp: G,
    value: V,
    age: u64,
}

/// Fingerprint-keyed, generation-invalidated, FIFO-evicted store.
///
/// `V` is the cached value, `G` the generation stamp (any `Copy + Eq`
/// type — the workspace uses `rqfa_core::Generation`).
///
/// Semantics, normative for every facade (see `docs/caching.md`):
///
/// * a lookup hits iff the key is resident **and** its stamp equals the
///   lookup stamp (and the optional coverage predicate holds);
/// * a stale entry is removed at detection, so its eventual re-insert is
///   a *fresh* insert with a fresh age;
/// * an insert over a resident key overwrites in place and keeps the
///   original insertion age;
/// * at capacity a fresh insert evicts the oldest insertion;
/// * capacity 0 disables storage entirely (lookups still count).
#[derive(Debug, Clone)]
pub struct GenCache<V, G: Copy + Eq> {
    capacity: usize,
    map: HashMap<u64, Slot<V, G>>,
    /// Insertion age → key, oldest first. Ages come from one monotone
    /// counter, so the victim choice is a pure function of the operation
    /// history — two caches fed the same operations evict identically.
    queue: BTreeMap<u64, u64>,
    seq: u64,
    stats: CacheStats,
}

impl<V, G: Copy + Eq> GenCache<V, G> {
    /// A cache of at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> GenCache<V, G> {
        GenCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 16)),
            queue: BTreeMap::new(),
            seq: 0,
            stats: CacheStats::default(),
        }
    }

    /// Looks the key up at `stamp`. A generation mismatch counts as a
    /// stale miss and drops the entry.
    pub fn lookup(&mut self, key: u64, stamp: G) -> Option<&V> {
        self.lookup_if(key, stamp, |_| true)
    }

    /// Like [`GenCache::lookup`], but a fresh entry additionally has to
    /// satisfy `covers` — a failing predicate is an *uncovered* miss that
    /// leaves the entry resident (it still answers smaller requests).
    pub fn lookup_if(
        &mut self,
        key: u64,
        stamp: G,
        covers: impl FnOnce(&V) -> bool,
    ) -> Option<&V> {
        // Go through the entry API so the hot hit path probes the map
        // exactly once.
        self.stats.lookups += 1;
        match self.map.entry(key) {
            Entry::Occupied(slot) => {
                if slot.get().stamp == stamp {
                    if covers(&slot.get().value) {
                        self.stats.hits += 1;
                        Some(&slot.into_mut().value)
                    } else {
                        self.stats.misses += 1;
                        self.stats.uncovered += 1;
                        None
                    }
                } else {
                    // Invalidated by a mutation. A stamp never returns to a
                    // value it left, so the entry can never hit again —
                    // drop it now, which
                    // also re-ages the recompute that follows (the refresh
                    // enters as a brand-new insert).
                    self.stats.misses += 1;
                    self.stats.stale += 1;
                    self.queue.remove(&slot.remove().age);
                    None
                }
            }
            Entry::Vacant(_) => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The resident value at `stamp` without touching statistics (for
    /// merge decisions before an insert).
    pub fn peek(&self, key: u64, stamp: G) -> Option<&V> {
        self.map
            .get(&key)
            .filter(|slot| slot.stamp == stamp)
            .map(|slot| &slot.value)
    }

    /// Stores `value` computed at `stamp`. Overwrites in place when the
    /// key is resident (whatever its old stamp); otherwise the oldest
    /// insertions are evicted down to capacity and the entry enters fresh.
    pub fn insert(&mut self, key: u64, stamp: G, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.stats.insertions += 1;
        if let Some(slot) = self.map.get_mut(&key) {
            slot.stamp = stamp;
            slot.value = value;
            return;
        }
        while self.map.len() >= self.capacity {
            let Some((_, victim)) = self.queue.pop_first() else {
                break;
            };
            self.map.remove(&victim);
            self.stats.evictions += 1;
        }
        self.seq += 1;
        let age = self.seq;
        self.map.insert(key, Slot { stamp, value, age });
        self.queue.insert(age, key);
        self.debug_check();
    }

    /// Drops one key (e.g. a targeted invalidation), returning its value.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let slot = self.map.remove(&key)?;
        self.queue.remove(&slot.age);
        self.debug_check();
        Some(slot.value)
    }

    /// Drops every entry (statistics survive).
    pub fn clear(&mut self) {
        self.map.clear();
        self.queue.clear();
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resident set and eviction queue must never drift apart.
    fn debug_check(&self) {
        debug_assert_eq!(
            self.map.len(),
            self.queue.len(),
            "eviction queue desynced from the resident set"
        );
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
    fn uncovered_miss_keeps_the_entry() {
        let mut c = cache(4);
        c.insert(5, 0, 3);
        assert_eq!(c.lookup_if(5, 0, |&v| v > 10), None);
        let s = c.stats();
        assert_eq!((s.misses, s.uncovered, s.stale), (1, 1, 0));
        assert_eq!(c.len(), 1, "uncovered misses leave the entry resident");
        assert_eq!(c.lookup_if(5, 0, |&v| v > 1), Some(&3));
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

    #[test]
    fn clear_resets_entries_but_not_stats() {
        let mut c = cache(4);
        c.insert(1, 0, 1);
        c.lookup(1, 0);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits, 1);
        c.insert(2, 0, 2);
        assert_eq!(c.len(), 1, "a cleared cache stores again");
    }
}
