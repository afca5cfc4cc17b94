//! Bypass tokens — §3: "The allocation manager could create a kind of
//! bypass-token containing data on the previous selection which can be
//! reused at repeated function calls so that only an availability check on
//! the function and its allocated resources has to be done."
//!
//! A token caches the outcome of one retrieval, keyed by the request
//! fingerprint and stamped with the requested function type's stamp
//! ([`CaseBase::type_stamp`]). A mutation of that type moves the stamp and
//! kills the token, so a self-learning system never reuses a stale
//! selection; mutations of other types leave it valid, because they
//! cannot change what the retrieval would answer.
//!
//! [`TokenCache`] is a thin typed facade over
//! [`rqfa_cache::GenCache`] — the same generalized store that backs the
//! service layer's retrieval cache — instantiated with
//! [`Generation`] stamps and [`BypassToken`] values. Eviction is FIFO;
//! the normative semantics live in `docs/caching.md`.

use rqfa_cache::GenCache;
use rqfa_core::{CaseBase, Generation, ImplId, Request, Scored, TypeId, Q15};

/// A cached retrieval outcome for one exact request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BypassToken {
    /// Fingerprint of the request this token answers.
    pub fingerprint: u64,
    /// The requested function type.
    pub type_id: TypeId,
    /// The selected implementation variant.
    pub impl_id: ImplId,
    /// The similarity achieved at selection time.
    pub similarity: Q15,
    /// The stamp of `type_id` the selection was computed at.
    pub generation: Generation,
}

/// Statistics of a token cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (absent or stale).
    pub misses: u64,
    /// Tokens dropped because they were stale (type stamp mismatch).
    pub invalidations: u64,
    /// Tokens evicted by the capacity policy.
    pub evictions: u64,
}

impl TokenStats {
    /// Hit rate in `[0, 1]`; `0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / total as f64
            }
        }
    }
}

/// Fixed-capacity cache of bypass tokens (FIFO eviction).
///
/// ```
/// use rqfa_core::{paper, FixedEngine};
/// use rqfa_rsoc::TokenCache;
///
/// let cb = paper::table1_case_base();
/// let request = paper::table1_request()?;
/// let mut cache = TokenCache::new(16);
///
/// // First call: miss, run retrieval, store the token.
/// assert!(cache.lookup(&request, &cb).is_none());
/// let best = FixedEngine::new().retrieve(&cb, &request)?.best.unwrap();
/// cache.store(&request, &cb, &best);
///
/// // Repeated call: answered without retrieval.
/// let token = cache.lookup(&request, &cb).unwrap();
/// assert_eq!(token.impl_id, paper::IMPL_DSP);
/// assert_eq!(cache.stats().hits, 1);
/// # Ok::<(), rqfa_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TokenCache {
    inner: GenCache<BypassToken, Generation>,
}

impl TokenCache {
    /// Creates a cache holding at most `capacity` tokens (minimum 1 — a
    /// bypass-token cache that cannot hold a token would silently
    /// disable the §3 optimisation).
    pub fn new(capacity: usize) -> TokenCache {
        TokenCache {
            inner: GenCache::new(capacity.max(1)),
        }
    }

    /// Looks up a token for `request`, validating it against the current
    /// stamp of the requested type. Stale tokens are dropped and counted.
    pub fn lookup(&mut self, request: &Request, case_base: &CaseBase) -> Option<BypassToken> {
        // A type the base does not hold has no token: `store` refuses it.
        let stamp = case_base
            .type_stamp(request.type_id())
            .unwrap_or(Generation::GENESIS);
        self.inner.lookup(request.fingerprint(), stamp).copied()
    }

    /// Stores the outcome of a retrieval as a token. A request for a type
    /// `case_base` does not hold has no retrieval outcome and is ignored.
    pub fn store(&mut self, request: &Request, case_base: &CaseBase, best: &Scored<Q15>) {
        let Some(stamp) = case_base.type_stamp(request.type_id()) else {
            return;
        };
        let fp = request.fingerprint();
        self.inner.insert(
            fp,
            stamp,
            BypassToken {
                fingerprint: fp,
                type_id: request.type_id(),
                impl_id: best.impl_id,
                similarity: best.similarity,
                generation: stamp,
            },
        );
    }

    /// Drops all tokens (e.g. after a repository reload).
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Number of live tokens.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the cache holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> TokenStats {
        let s = self.inner.stats();
        TokenStats {
            hits: s.hits,
            misses: s.misses,
            invalidations: s.stale,
            evictions: s.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqfa_core::{paper, AttrBinding, ExecutionTarget, FixedEngine, ImplVariant};

    fn best_for(cb: &CaseBase, request: &Request) -> Scored<Q15> {
        FixedEngine::new().retrieve(cb, request).unwrap().best.unwrap()
    }

    #[test]
    fn hit_after_store() {
        let cb = paper::table1_case_base();
        let request = paper::table1_request().unwrap();
        let mut cache = TokenCache::new(4);
        assert!(cache.lookup(&request, &cb).is_none());
        cache.store(&request, &cb, &best_for(&cb, &request));
        assert!(cache.lookup(&request, &cb).is_some());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert!(cache.stats().hit_rate() > 0.49);
    }

    #[test]
    fn mutation_invalidates() {
        let mut cb = paper::table1_case_base();
        let request = paper::table1_request().unwrap();
        let mut cache = TokenCache::new(4);
        cache.store(&request, &cb, &best_for(&cb, &request));
        // Retain a new variant: the type's stamp moves, token must die.
        cb.retain_variant(paper::FIR_EQUALIZER, extra_variant()).unwrap();
        assert!(cache.lookup(&request, &cb).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.is_empty());
    }

    fn extra_variant() -> ImplVariant {
        ImplVariant::new(
            ImplId::new(9).unwrap(),
            ExecutionTarget::Fpga,
            vec![AttrBinding::new(paper::ATTR_BITWIDTH, 12)],
        )
        .unwrap()
    }

    #[test]
    fn a_token_survives_mutations_of_other_types_only() {
        let mut cb = paper::table1_case_base();
        let request = paper::table1_request().unwrap();
        assert_eq!(request.type_id(), paper::FIR_EQUALIZER);
        let mut cache = TokenCache::new(4);
        cache.store(&request, &cb, &best_for(&cb, &request));
        // A retain into the FFT type cannot change a FIR retrieval.
        cb.retain_variant(paper::FFT_1D, extra_variant()).unwrap();
        let token = cache.lookup(&request, &cb).expect("token of the untouched type");
        assert_eq!(token.impl_id, best_for(&cb, &request).impl_id);
        assert_eq!(cache.stats().invalidations, 0);
        // A retain into the FIR type can, and kills it.
        cb.retain_variant(paper::FIR_EQUALIZER, extra_variant()).unwrap();
        assert!(cache.lookup(&request, &cb).is_none());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn unknown_types_hold_no_token() {
        let cb = paper::table1_case_base();
        let request = Request::builder(TypeId::new(99).unwrap())
            .constraint(paper::ATTR_RATE, 40)
            .build()
            .unwrap();
        let mut cache = TokenCache::new(4);
        let fir = paper::table1_request().unwrap();
        cache.store(&request, &cb, &best_for(&cb, &fir));
        assert!(cache.is_empty());
        assert!(cache.lookup(&request, &cb).is_none());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let cb = paper::table1_case_base();
        let mut cache = TokenCache::new(2);
        let requests: Vec<Request> = (38..=42u16)
            .map(|rate| {
                Request::builder(paper::FIR_EQUALIZER)
                    .constraint(paper::ATTR_RATE, rate)
                    .build()
                    .unwrap()
            })
            .collect();
        for r in &requests {
            cache.store(r, &cb, &best_for(&cb, r));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 3);
        // The newest two survive.
        assert!(cache.lookup(&requests[4], &cb).is_some());
        assert!(cache.lookup(&requests[0], &cb).is_none());
    }

    #[test]
    fn clear_empties_cache() {
        let cb = paper::table1_case_base();
        let request = paper::table1_request().unwrap();
        let mut cache = TokenCache::new(4);
        cache.store(&request, &cb, &best_for(&cb, &request));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let cb = paper::table1_case_base();
        let request = paper::table1_request().unwrap();
        let mut cache = TokenCache::new(0);
        cache.store(&request, &cb, &best_for(&cb, &request));
        assert_eq!(cache.len(), 1);
    }
}
