//! The case-base generation counter as a first-class type.
//!
//! Every mutation of a [`CaseBase`](crate::CaseBase) (retain / revise /
//! evict) advances the generation by exactly one, and records the new
//! value as the **stamp** of the one function type it touched
//! ([`CaseBase::type_stamp`](crate::CaseBase::type_stamp)). The subsystems
//! that key off the counter must agree on its meaning:
//!
//! * the persistence write-ahead log (`rqfa-persist`) stamps every logged
//!   mutation record with the generation it produced; replication
//!   deduplicates and fences by it;
//! * the bypass tokens of `rqfa-rsoc`'s allocation manager and CBR cycle
//!   (§3 of the paper), the service-layer retrieval result cache
//!   (`rqfa_service::cache::RetrievalCache`) and the compiled type planes
//!   ([`crate::PlaneEngine`]) are validated against the requested type's
//!   stamp, so a mutation costs the cached results and the compiled plane
//!   of one type, not of the whole base.
//!
//! Using one shared newtype instead of bare `u64`s makes it a type error
//! to mix the generation stamp of one subsystem with an unrelated counter,
//! so WAL stamps can never diverge from cache-invalidation stamps.

use core::fmt;

/// A monotone case-base generation stamp.
///
/// Ordering is the mutation order: `a < b` means `a` was observed strictly
/// before `b` on the same case base.
///
/// ```
/// use rqfa_core::Generation;
///
/// let g = Generation::GENESIS;
/// assert_eq!(g.raw(), 0);
/// assert!(g.next() > g);
/// assert_eq!(g.next(), Generation::from_raw(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Generation(u64);

impl Generation {
    /// The generation of a freshly constructed, never-mutated case base.
    pub const GENESIS: Generation = Generation(0);

    /// Wraps a raw counter value (e.g. read back from a persisted image).
    pub const fn from_raw(raw: u64) -> Generation {
        Generation(raw)
    }

    /// The raw counter value (e.g. for serialization).
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The generation after one more mutation.
    #[must_use]
    pub const fn next(self) -> Generation {
        Generation(self.0 + 1)
    }

    /// How many mutations lie between `earlier` and `self` (saturating at
    /// zero when `earlier` is actually newer).
    pub const fn since(self, earlier: Generation) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Generation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_is_zero_and_default() {
        assert_eq!(Generation::GENESIS, Generation::default());
        assert_eq!(Generation::GENESIS.raw(), 0);
    }

    #[test]
    fn next_is_strictly_monotone() {
        let mut g = Generation::GENESIS;
        for expect in 1..=100u64 {
            let n = g.next();
            assert!(n > g);
            assert_eq!(n.raw(), expect);
            g = n;
        }
    }

    #[test]
    fn since_counts_mutations() {
        let a = Generation::from_raw(3);
        let b = Generation::from_raw(10);
        assert_eq!(b.since(a), 7);
        assert_eq!(a.since(b), 0, "saturates instead of wrapping");
        assert_eq!(a.since(a), 0);
    }

    #[test]
    fn displays_with_prefix() {
        assert_eq!(Generation::from_raw(42).to_string(), "g42");
    }
}
