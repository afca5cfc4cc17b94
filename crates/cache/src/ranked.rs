//! Cross-request n-best subsumption.
//!
//! A ranked retrieval result answers more than the query that produced
//! it: the top-*j* of a top-*k* list **is** the top-*j* list whenever
//! `j ≤ k` (ranking sorts then truncates, so smaller requests are exact
//! prefixes), and a list that ranked *every* evaluated candidate answers
//! any *j* at all. Storing one [`RankedEntry`] per fingerprint therefore
//! lets a cached n-best result serve later best-of (`j = 1`) and smaller
//! n-best lookups bit-identically to a recompute — without the cache
//! knowing anything about scores or engines (the element type is fully
//! generic).
//!
//! The subsumption argument only holds for *unfiltered* rankings: a
//! threshold-filtered list is not prefix-closed (elements drop out at
//! arbitrary ranks), so facades must not feed filtered results in.

/// A cached ranking: the top-`requested` of `evaluated` candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedEntry<T> {
    /// A ranking of at most one element — every best-of result — inline:
    /// the entry owns no heap block and a hit reads its answer from the
    /// entry itself.
    head: Option<T>,
    /// A longer ranking, whole (`head` is `None`), so that
    /// [`RankedEntry::ranked`] is one slice either way.
    long: Vec<T>,
    requested: usize,
    evaluated: usize,
}

impl<T> RankedEntry<T> {
    /// Wraps the top-`requested` ranking of `evaluated` candidates.
    /// `ranked` must be the unfiltered prefix, i.e.
    /// `ranked.len() == min(requested, evaluated)`.
    pub fn new(mut ranked: Vec<T>, requested: usize, evaluated: usize) -> RankedEntry<T> {
        debug_assert_eq!(
            ranked.len(),
            requested.min(evaluated),
            "ranked list must be the unfiltered top-requested prefix"
        );
        let head = if ranked.len() > 1 { None } else { ranked.pop() };
        // A vector emptied into `head` is dropped, not kept for its block.
        let long = if head.is_none() { ranked } else { Vec::new() };
        RankedEntry {
            head,
            long,
            requested,
            evaluated,
        }
    }

    /// The best-of result of a scan over `evaluated` candidates (a
    /// ranking of size 1), built without touching the heap.
    pub fn best_of(best: Option<T>, evaluated: usize) -> RankedEntry<T> {
        debug_assert_eq!(best.is_some(), evaluated > 0, "a scan of anything has a winner");
        RankedEntry {
            head: best,
            long: Vec::new(),
            requested: 1,
            evaluated,
        }
    }

    /// Whether every evaluated candidate made the list (a complete
    /// ranking answers any request size).
    pub fn is_complete(&self) -> bool {
        self.requested >= self.evaluated
    }

    /// Whether this entry can answer a top-`n` request exactly.
    pub fn covers(&self, n: usize) -> bool {
        n <= self.requested || self.is_complete()
    }

    /// The top-`n` prefix. Only exact when [`RankedEntry::covers`]`(n)`.
    pub fn prefix(&self, n: usize) -> &[T] {
        let ranked = self.ranked();
        &ranked[..ranked.len().min(n)]
    }

    /// The single best candidate (a best-of lookup is `prefix(1)`).
    pub fn best(&self) -> Option<&T> {
        self.ranked().first()
    }

    /// The full stored ranking.
    pub fn ranked(&self) -> &[T] {
        match &self.head {
            Some(_) => self.head.as_slice(),
            None => &self.long,
        }
    }

    /// The request size this entry was computed for.
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// How many candidates the producing scan evaluated.
    pub fn evaluated(&self) -> usize {
        self.evaluated
    }

    /// Totally-ordered coverage, for keep-the-wider-entry merges: a
    /// complete ranking beats any truncated one; among truncated ones the
    /// larger `requested` wins.
    pub fn coverage(&self) -> usize {
        if self.is_complete() {
            usize::MAX
        } else {
            self.requested
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_entry_covers_smaller_requests_only() {
        let e = RankedEntry::new(vec![10, 20, 30], 3, 9);
        assert!(e.covers(1) && e.covers(3));
        assert!(!e.covers(4));
        assert_eq!(e.prefix(2), &[10, 20]);
        assert_eq!(e.best(), Some(&10));
        assert_eq!(e.coverage(), 3);
    }

    #[test]
    fn complete_entry_covers_everything() {
        let e = RankedEntry::new(vec![1, 2], 5, 2);
        assert!(e.is_complete());
        assert!(e.covers(100));
        assert_eq!(e.prefix(100), &[1, 2]);
        assert_eq!(e.coverage(), usize::MAX);
    }

    #[test]
    fn empty_ranking_of_nothing_is_complete() {
        let e: RankedEntry<u32> = RankedEntry::new(vec![], 1, 0);
        assert!(e.is_complete());
        assert!(e.covers(3));
        assert_eq!(e.best(), None);
    }

    #[test]
    fn a_ranking_of_at_most_one_is_inline_and_reads_like_a_list() {
        let e = RankedEntry::best_of(Some(7), 9);
        assert_eq!(e, RankedEntry::new(vec![7], 1, 9));
        assert_eq!((e.best(), e.ranked(), e.prefix(5)), (Some(&7), &[7][..], &[7][..]));
        assert!(e.covers(1) && !e.covers(2));
        // No heap block either way in, and none for the empty ranking.
        assert_eq!(e.long.capacity(), 0);
        assert_eq!(RankedEntry::new(vec![7], 1, 9).long.capacity(), 0);
        assert_eq!(RankedEntry::<u32>::best_of(None, 0), RankedEntry::new(vec![], 1, 0));
        // A longer ranking stays one slice.
        let wide = RankedEntry::new(vec![3, 2], 2, 9);
        assert_eq!((wide.best(), wide.ranked(), wide.prefix(1)), (Some(&3), &[3, 2][..], &[3][..]));
    }
}
