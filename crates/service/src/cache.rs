//! Retrieval result cache with type-stamp invalidation.
//!
//! Keyed by [`Request::fingerprint`](rqfa_core::Request::fingerprint) — the
//! same canonical digest the paper's bypass tokens use (§3) — and stamped
//! by the caller with the stamp of the request's function type
//! ([`CaseBase::type_stamp`](rqfa_core::CaseBase::type_stamp): the
//! generation at which that type was last mutated). A mutation of the case
//! base (retain/revise/evict) moves the stamp of the one type it touches,
//! which makes every cached result *of that type* stale at once without
//! walking the map, and leaves the other types' results valid — retrieval
//! reads nothing a foreign mutation changes. A stale hit is detected on
//! lookup, reported as a miss, dropped on the spot, and re-inserted fresh
//! by the recompute that follows (so a refreshed entry is the cache's
//! *newest*, not a resurrection of its original age).
//!
//! [`RetrievalCache`] is a typed facade over [`rqfa_cache::GenCache`]
//! holding the best-of answer — the winner and how many variants the scan
//! evaluated — inline in the slot, so an entry owns no heap block and a
//! hit reads its answer from the slot itself.
//!
//! Eviction is FIFO: the service's hit pattern is dominated by *bursts*
//! of identical requests (the bypass-token traffic of §3), which FIFO
//! serves with zero per-hit bookkeeping. The normative semantics table
//! lives in `docs/caching.md`.

use rqfa_cache::{CacheStats, GenCache};
use rqfa_core::{Generation, OpCounts, Retrieval, Scored};
use rqfa_fixed::Q15;

/// What one cache probe observed (the worker feeds this into the
/// per-class `cache_*` metrics).
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// Served from the cache.
    Hit(Retrieval<Q15>),
    /// Not served; `stale` tells a generation-mismatch drop apart from a
    /// cold miss.
    Miss {
        /// Whether the miss invalidated a stale entry.
        stale: bool,
    },
}

/// Fixed-capacity cache of best-of retrieval results.
#[derive(Debug)]
pub struct RetrievalCache {
    /// `(best, evaluated)` of one scan: a [`Retrieval`] without its
    /// operation counts, which a hit reports as zero.
    inner: GenCache<(Option<Scored<Q15>>, usize), Generation>,
}

impl RetrievalCache {
    /// A cache holding at most `capacity` results (0 disables caching).
    pub fn new(capacity: usize) -> RetrievalCache {
        RetrievalCache {
            inner: GenCache::new(capacity),
        }
    }

    /// Looks up the best-of result for `fingerprint` computed at
    /// `generation` — the current stamp of the request's function type. A
    /// resident entry with another stamp counts as stale and is
    /// discarded.
    pub fn lookup(&mut self, fingerprint: u64, generation: Generation) -> Option<Retrieval<Q15>> {
        match self.lookup_outcome(fingerprint, generation) {
            CacheLookup::Hit(retrieval) => Some(retrieval),
            CacheLookup::Miss { .. } => None,
        }
    }

    /// Like [`RetrievalCache::lookup`], but reports *why* a miss missed.
    pub fn lookup_outcome(&mut self, fingerprint: u64, generation: Generation) -> CacheLookup {
        let stale_before = self.inner.stats().stale;
        match self.inner.lookup(fingerprint, generation) {
            Some(&(best, evaluated)) => CacheLookup::Hit(Retrieval {
                best,
                evaluated,
                ops: OpCounts::default(),
            }),
            None => CacheLookup::Miss {
                stale: self.inner.stats().stale > stale_before,
            },
        }
    }

    /// Stores a best-of retrieval computed at `generation`, the stamp of
    /// the request's function type.
    pub fn insert(&mut self, fingerprint: u64, generation: Generation, result: &Retrieval<Q15>) {
        self.inner
            .insert(fingerprint, generation, (result.best, result.evaluated));
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The counters of the underlying store.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqfa_core::ids::ImplId;
    use rqfa_core::ExecutionTarget;

    fn g(raw: u64) -> Generation {
        Generation::from_raw(raw)
    }

    fn result(raw_impl: u16) -> Retrieval<Q15> {
        Retrieval {
            best: Some(Scored {
                impl_id: ImplId::new(raw_impl).unwrap(),
                target: ExecutionTarget::Dsp,
                similarity: Q15::ONE,
            }),
            evaluated: 3,
            ops: OpCounts::default(),
        }
    }

    #[test]
    fn hit_requires_matching_generation() {
        let mut cache = RetrievalCache::new(8);
        cache.insert(42, g(0), &result(1));
        assert!(cache.lookup(42, g(0)).is_some());
        // A mutation bumped the generation: the entry is stale.
        assert!(cache.lookup(42, g(1)).is_none());
        let s = cache.cache_stats();
        assert_eq!((s.hits, s.misses, s.stale), (1, 1, 1));
        // The recompute re-inserts fresh; the new generation hits again.
        cache.insert(42, g(1), &result(2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(42, g(1)).unwrap().best.unwrap().impl_id.raw(), 2);
    }

    #[test]
    fn stale_miss_is_distinguished_from_cold_miss() {
        let mut cache = RetrievalCache::new(8);
        assert_eq!(cache.lookup_outcome(7, g(0)), CacheLookup::Miss { stale: false });
        cache.insert(7, g(0), &result(1));
        assert_eq!(cache.lookup_outcome(7, g(2)), CacheLookup::Miss { stale: true });
        assert_eq!(cache.lookup_outcome(7, g(2)), CacheLookup::Miss { stale: false });
    }

    #[test]
    fn invalidation_cycles_do_not_grow_the_cache() {
        // Regression: stale removal used to leave dangling keys in the
        // FIFO order deque, one per invalidation cycle, and eviction
        // could then drop the *live* re-inserted entry. Hammer the
        // retain→re-request cycle and check the cache stays bounded.
        let mut cache = RetrievalCache::new(2);
        for raw in 0..100u64 {
            let generation = g(raw);
            assert!(cache.lookup(1, generation).is_none() || raw > 0);
            cache.insert(1, generation, &result(1));
            cache.insert(2, generation, &result(2));
            assert!(cache.lookup(1, generation).is_some());
            assert!(cache.lookup(2, generation).is_some());
            assert!(cache.len() <= 2);
        }
    }

    #[test]
    fn stale_refresh_is_re_aged() {
        // The historical FIFO cache overwrote stale entries in place and
        // kept their original insertion age, so a just-refreshed entry
        // could be the next eviction victim. The unified store drops
        // stale entries at detection, making the refresh the newest.
        let mut cache = RetrievalCache::new(2);
        cache.insert(1, g(0), &result(1));
        cache.insert(2, g(0), &result(2));
        assert!(cache.lookup(1, g(1)).is_none(), "stale drop");
        cache.insert(1, g(1), &result(1)); // refresh
        cache.insert(3, g(1), &result(3)); // evicts 2, not the fresh 1
        assert!(cache.lookup(1, g(1)).is_some(), "refreshed entry survives");
        assert!(cache.lookup(2, g(1)).is_none());
        assert!(cache.lookup(3, g(1)).is_some());
    }

    #[test]
    fn fifo_eviction_bounds_size() {
        let mut cache = RetrievalCache::new(2);
        cache.insert(1, g(0), &result(1));
        cache.insert(2, g(0), &result(2));
        cache.insert(3, g(0), &result(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(1, g(0)).is_none(), "oldest entry evicted");
        assert!(cache.lookup(3, g(0)).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = RetrievalCache::new(0);
        cache.insert(1, g(0), &result(1));
        assert!(cache.is_empty());
        assert!(cache.lookup(1, g(0)).is_none());
    }

    #[test]
    fn reinsert_updates_value() {
        let mut cache = RetrievalCache::new(4);
        cache.insert(7, g(0), &result(1));
        cache.insert(7, g(1), &result(2));
        let hit = cache.lookup(7, g(1)).unwrap();
        assert_eq!(hit.best.unwrap().impl_id.raw(), 2);
        assert_eq!(cache.len(), 1);
    }
}
