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
//! [`RetrievalCache`] is a typed facade over [`rqfa_cache::GenCache`] —
//! the same generalized store behind `rqfa_rsoc::TokenCache` — holding
//! [`RankedEntry`] values, which buys **n-best subsumption** for free: a
//! cached top-*k* ranking answers later best-of and top-*j* (`j ≤ k`)
//! lookups bit-identically to a recompute (`rank` sorts then truncates, so
//! smaller requests are exact prefixes — see `rqfa_core::nbest::rank`).
//!
//! Eviction is FIFO: the service's hit pattern is dominated by *bursts*
//! of identical requests (the bypass-token traffic of §3), which FIFO
//! serves with zero per-hit bookkeeping. The normative semantics table
//! lives in `docs/caching.md`.

use rqfa_cache::{CacheStats, GenCache, RankedEntry};
use rqfa_core::{Generation, NBest, OpCounts, Retrieval, Scored};
use rqfa_fixed::Q15;

/// What one cache probe observed (the worker feeds this into the
/// per-class `cache_*` metrics).
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// Served from the cache.
    Hit(Retrieval<Q15>),
    /// Not served; `stale` tells a generation-mismatch drop apart from a
    /// cold (or insufficient-coverage) miss.
    Miss {
        /// Whether the miss invalidated a stale entry.
        stale: bool,
    },
}

/// Fixed-capacity cache of ranked retrieval results.
#[derive(Debug)]
pub struct RetrievalCache {
    inner: GenCache<RankedEntry<Scored<Q15>>, Generation>,
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
        match self.inner.lookup_if(fingerprint, generation, |e| e.covers(1)) {
            Some(entry) => CacheLookup::Hit(Retrieval {
                best: entry.best().copied(),
                evaluated: entry.evaluated(),
                ops: OpCounts::default(),
            }),
            None => CacheLookup::Miss {
                stale: self.inner.stats().stale > stale_before,
            },
        }
    }

    /// Looks up a top-`n` ranking. Subsumption: any cached entry whose
    /// ranking covers `n` (it requested ≥ `n`, or it ranked every
    /// evaluated candidate) answers exactly; a fresh-but-narrower entry
    /// is a miss that leaves the entry in place for smaller requests.
    /// Cached results report zeroed [`OpCounts`] — no scan ran.
    pub fn lookup_n_best(
        &mut self,
        fingerprint: u64,
        generation: Generation,
        n: usize,
    ) -> Option<NBest<Q15>> {
        self.inner
            .lookup_if(fingerprint, generation, |e| e.covers(n))
            .map(|entry| NBest {
                ranked: entry.prefix(n).to_vec(),
                evaluated: entry.evaluated(),
                ops: OpCounts::default(),
            })
    }

    /// Stores a best-of retrieval computed at `generation`, the stamp of
    /// the request's function type (a ranking of
    /// size 1 — later best-of lookups hit it; larger n-best lookups
    /// recompute and widen the entry).
    pub fn insert(&mut self, fingerprint: u64, generation: Generation, result: &Retrieval<Q15>) {
        self.insert_entry(
            fingerprint,
            generation,
            RankedEntry::best_of(result.best, result.evaluated),
        );
    }

    /// Stores an **unfiltered** top-`requested` ranking computed at
    /// `generation`. Threshold-filtered results
    /// (`retrieve_n_best_above`) must not be cached here: a filtered
    /// list is not prefix-closed, so subsumption would fabricate
    /// answers.
    pub fn insert_n_best(
        &mut self,
        fingerprint: u64,
        generation: Generation,
        requested: usize,
        nbest: &NBest<Q15>,
    ) {
        if requested == 0 && nbest.evaluated > 0 {
            return; // a top-0 of something answers nothing — don't waste a slot
        }
        self.insert_entry(
            fingerprint,
            generation,
            RankedEntry::new(nbest.ranked.clone(), requested, nbest.evaluated),
        );
    }

    /// Keep-the-wider-entry merge: never let a narrow result clobber a
    /// same-stamp entry that already answers more.
    fn insert_entry(
        &mut self,
        fingerprint: u64,
        generation: Generation,
        entry: RankedEntry<Scored<Q15>>,
    ) {
        let coverage = entry.coverage();
        self.inner.insert_if(fingerprint, generation, entry, |old| old.coverage() < coverage);
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// `(hits, misses, stale_detections)` counters since construction
    /// (the historical triple; see [`RetrievalCache::cache_stats`] for
    /// the full set).
    pub fn stats(&self) -> (u64, u64, u64) {
        let s = self.inner.stats();
        (s.hits, s.misses, s.stale)
    }

    /// The full counter set of the underlying store.
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

    fn scored(raw_impl: u16, similarity: f64) -> Scored<Q15> {
        Scored {
            impl_id: ImplId::new(raw_impl).unwrap(),
            target: ExecutionTarget::Dsp,
            similarity: Q15::from_f64(similarity).unwrap(),
        }
    }

    fn result(raw_impl: u16) -> Retrieval<Q15> {
        Retrieval {
            best: Some(scored(raw_impl, 1.0)),
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
        assert_eq!(cache.stats(), (1, 1, 1));
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

    fn nbest(scores: &[(u16, f64)], evaluated: usize) -> NBest<Q15> {
        NBest {
            ranked: scores.iter().map(|&(id, s)| scored(id, s)).collect(),
            evaluated,
            ops: OpCounts::default(),
        }
    }

    #[test]
    fn cached_n_best_serves_best_of_and_smaller_n() {
        let mut cache = RetrievalCache::new(8);
        let three = nbest(&[(2, 0.9), (1, 0.8), (3, 0.4)], 5);
        cache.insert_n_best(9, g(0), 3, &three);
        // Best-of is the ranking's head.
        let best = cache.lookup(9, g(0)).unwrap();
        assert_eq!(best.best.unwrap().impl_id.raw(), 2);
        assert_eq!(best.evaluated, 5);
        // top-2 is the exact prefix.
        let two = cache.lookup_n_best(9, g(0), 2).unwrap();
        assert_eq!(
            two.ranked.iter().map(|s| s.impl_id.raw()).collect::<Vec<_>>(),
            [2, 1]
        );
        // top-4 exceeds the cached coverage (3 of 5): miss, entry stays.
        assert!(cache.lookup_n_best(9, g(0), 4).is_none());
        assert_eq!(cache.cache_stats().uncovered, 1);
        assert!(cache.lookup(9, g(0)).is_some(), "entry still serves j ≤ 3");
    }

    #[test]
    fn complete_ranking_covers_any_request() {
        let mut cache = RetrievalCache::new(8);
        // requested 10 ≥ evaluated 2: the ranking is complete.
        let all = nbest(&[(2, 0.9), (1, 0.8)], 2);
        cache.insert_n_best(5, g(0), 10, &all);
        let big = cache.lookup_n_best(5, g(0), 50).unwrap();
        assert_eq!(big.ranked.len(), 2);
        assert_eq!(big.evaluated, 2);
    }

    #[test]
    fn narrow_insert_never_clobbers_wider_same_generation_entry() {
        let mut cache = RetrievalCache::new(8);
        cache.insert_n_best(4, g(0), 3, &nbest(&[(2, 0.9), (1, 0.8), (3, 0.4)], 5));
        // A best-of store for the same fingerprint+generation arrives
        // (e.g. from an API caller that bypassed lookup): keep the wide one.
        cache.insert(4, g(0), &result(2));
        assert!(cache.lookup_n_best(4, g(0), 3).is_some());
        // A *newer-generation* best-of does replace it.
        cache.insert(4, g(1), &result(2));
        assert!(cache.lookup_n_best(4, g(1), 3).is_none());
        assert!(cache.lookup(4, g(1)).is_some());
    }

    #[test]
    fn generation_bump_invalidates_ranked_and_best_atomically() {
        let mut cache = RetrievalCache::new(8);
        cache.insert_n_best(6, g(0), 3, &nbest(&[(2, 0.9), (1, 0.8), (3, 0.4)], 3));
        assert!(cache.lookup(6, g(0)).is_some());
        // One mutation: *both* views of the entry go stale at once.
        assert!(cache.lookup_n_best(6, g(1), 2).is_none());
        assert!(cache.lookup(6, g(1)).is_none());
        assert_eq!(cache.cache_stats().stale, 1, "one entry, one stale drop");
    }
}
