//! Function requests: the *problem description* side of the CBR retrieval.
//!
//! A request names the desired function type and an (optionally incomplete)
//! set of constraining attributes, each with a weight. The weights are the
//! `w_i` of equation (2); their sum is normalized to exactly 1. The builder
//! computes both the real-valued weights (for the float reference engine)
//! and the UQ1.15 weights stored in the request memory list (fig. 4, left),
//! distributing the rounding remainder so the fixed weights sum to exactly
//! `0x8000` — the property the hardware accumulator relies on to never
//! overflow.

use core::fmt;
use std::sync::Arc;

use rqfa_fixed::Q15;

use crate::attribute::AttrBinding;
use crate::error::CoreError;
use crate::ids::{AttrId, TypeId};

/// One weighted constraint of a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraint {
    /// The constrained attribute type.
    pub attr: AttrId,
    /// The requested value in domain units.
    pub value: u16,
    /// Normalized real-valued weight (`Σ = 1.0`), for the float engine.
    pub weight: f64,
    /// Normalized UQ1.15 weight (`Σ raw = 0x8000` exactly), as stored in the
    /// request memory list and consumed by the fixed engines.
    pub weight_q15: Q15,
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={} (w={:.3})", self.attr, self.value, self.weight)
    }
}

/// A QoS-constrained function request.
///
/// ```
/// use rqfa_core::{AttrId, Request, TypeId};
///
/// // The request of fig. 3: FIR equalizer, {bw=16, stereo, 40 kSamples/s}.
/// let request = Request::builder(TypeId::new(1)?)
///     .constraint(AttrId::new(1)?, 16)
///     .constraint(AttrId::new(3)?, 1)
///     .constraint(AttrId::new(4)?, 40)
///     .build()?;
/// assert_eq!(request.constraints().len(), 3);
/// // Unspecified weights default to equal shares that sum to exactly one.
/// let total: f64 = request.constraints().iter().map(|c| c.weight).sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// # Ok::<(), rqfa_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    type_id: TypeId,
    /// Fixed at build, so shared: a clone — the one a client makes of a
    /// stored request on every submit — increments a count instead of
    /// copying the list, and every clone reads the same list, as the
    /// retrieval unit reads a request list where it lies in Req-MEM
    /// (fig. 4). Built in one allocation, count and constraints
    /// together. A fat pointer: with the fingerprint beside it a request
    /// is 32 bytes.
    constraints: Arc<[Constraint]>,
    /// [`fingerprint_of`] the two fields above, fixed at build.
    fingerprint: u64,
}

impl Request {
    /// Starts building a request for the given function type.
    pub fn builder(type_id: TypeId) -> RequestBuilder {
        RequestBuilder {
            type_id,
            raw: Vec::new(),
        }
    }

    /// Builds a request from constraints that are already the request
    /// list's normal form (fig. 4, left): `(attribute, value, UQ1.15
    /// weight word)` strictly ascending by attribute, the weight words
    /// summing to exactly `0x8000` — the shape every encoder emits, so
    /// the shape every decoder meets. `None` for any other shape
    /// (unsorted, duplicate, sum off, empty): the caller hands those to
    /// [`Request::builder`], which normalizes or rejects them.
    ///
    /// The value equals the builder's, bit for bit, for the same parts
    /// with `f64::from(word)` as relative weights: their sum is the
    /// integer 32768, so each division `word / 32768` is exact, each
    /// quantization floor is the word itself and no remainder is handed
    /// out.
    ///
    /// One allocation: the shared constraint list, sized by `parts.len()`
    /// and written in place. An iterator that yields fewer or more parts
    /// than its `len()` gives `None`, as does a `len()` beyond the 65 535
    /// attribute ids a strictly ascending list can hold — refused before
    /// it sizes anything.
    pub fn from_normalized<I>(type_id: TypeId, parts: I) -> Option<Request>
    where
        I: IntoIterator<Item = (AttrId, u16, u16)>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut parts = parts.into_iter();
        let len = parts.len();
        if len > usize::from(u16::MAX) {
            return None;
        }
        let one = Q15::ONE.raw();
        // Stands in for a part the iterator owed and did not yield; the
        // list is then refused, so it is never read.
        const MISSING: Constraint = Constraint {
            attr: match AttrId::new(0) {
                Ok(id) => id,
                Err(_) => unreachable!(),
            },
            value: 0,
            weight: 0.0,
            weight_q15: Q15::ZERO,
        };
        let mut sum = 0u32;
        let mut last: Option<AttrId> = None;
        let mut normal = true;
        // Collected from a mapped range, whose length the standard
        // library trusts: the list is allocated once, at its size, with
        // the count beside it, where a `Vec` would be copied into a
        // second block. The checks ride in the closure.
        let constraints: Arc<[Constraint]> = (0..len)
            .map(|_| {
                let Some((attr, value, word)) = parts.next() else {
                    normal = false;
                    return MISSING;
                };
                normal &= last.is_none_or(|prev| prev < attr);
                last = Some(attr);
                sum = sum.saturating_add(u32::from(word));
                Constraint {
                    attr,
                    value,
                    weight: f64::from(word) / f64::from(one),
                    weight_q15: Q15::saturating_from_raw(word),
                }
            })
            .collect();
        if !normal || sum != u32::from(one) || parts.next().is_some() {
            return None;
        }
        Some(Request {
            type_id,
            fingerprint: fingerprint_of(type_id, &constraints),
            constraints,
        })
    }

    /// The requested function type (`IDType`).
    pub fn type_id(&self) -> TypeId {
        self.type_id
    }

    /// The constraints, sorted by attribute id.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Looks up the constraint on `attr`, if any.
    pub fn constraint(&self, attr: AttrId) -> Option<&Constraint> {
        self.constraints
            .binary_search_by_key(&attr, |c| c.attr)
            .ok()
            .map(|idx| &self.constraints[idx])
    }

    /// The attribute/value bindings without weights.
    pub fn bindings(&self) -> impl Iterator<Item = AttrBinding> + '_ {
        self.constraints
            .iter()
            .map(|c| AttrBinding::new(c.attr, c.value))
    }

    /// A stable 64-bit fingerprint of the request (type, attributes, values,
    /// quantized weights). Two requests with the same fingerprint retrieve
    /// identically, which is what the bypass-token cache needs. Computed
    /// once, when the request is built.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// FNV-1a over the canonical word sequence of a request.
fn fingerprint_of(type_id: TypeId, constraints: &[Constraint]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u16| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    };
    eat(type_id.raw());
    for c in constraints {
        eat(c.attr.raw());
        eat(c.value);
        eat(c.weight_q15.raw());
    }
    hash
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request {} {{", self.type_id)?;
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

/// Builder for [`Request`] (see [`Request::builder`]).
#[derive(Debug, Clone)]
pub struct RequestBuilder {
    type_id: TypeId,
    raw: Vec<(AttrId, u16, f64)>,
}

impl RequestBuilder {
    /// Adds a constraint with default weight `1.0` (relative).
    pub fn constraint(self, attr: AttrId, value: u16) -> RequestBuilder {
        self.weighted_constraint(attr, value, 1.0)
    }

    /// Adds a constraint with an explicit relative weight.
    ///
    /// Weights are relative: the builder divides by their sum, so
    /// `(2.0, 1.0, 1.0)` yields `(0.5, 0.25, 0.25)`.
    pub fn weighted_constraint(mut self, attr: AttrId, value: u16, weight: f64) -> RequestBuilder {
        self.raw.push((attr, value, weight));
        self
    }

    /// Finalizes the request: sorts constraints by attribute id, checks for
    /// duplicates and normalizes weights.
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyRequest`] without constraints.
    /// * [`CoreError::DuplicateAttr`] on duplicate attribute ids.
    /// * [`CoreError::InvalidWeights`] if weights are negative, non-finite
    ///   or sum to zero.
    pub fn build(mut self) -> Result<Request, CoreError> {
        if self.raw.is_empty() {
            return Err(CoreError::EmptyRequest);
        }
        self.raw.sort_by_key(|(attr, _, _)| *attr);
        for pair in self.raw.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(CoreError::DuplicateAttr { attr: pair[1].0 });
            }
        }
        let sum: f64 = self.raw.iter().map(|(_, _, w)| *w).sum();
        if !sum.is_finite() || sum <= 0.0 || self.raw.iter().any(|(_, _, w)| *w < 0.0 || !w.is_finite())
        {
            return Err(CoreError::InvalidWeights);
        }
        let weights: Vec<f64> = self.raw.iter().map(|(_, _, w)| w / sum).collect();
        let q15 = quantize_weights(&weights);
        // Zipped slices and a vector's iterator, mapped: a length the
        // standard library trusts, so one allocation, as in
        // `from_normalized`.
        let constraints: Arc<[Constraint]> = self
            .raw
            .iter()
            .zip(weights.iter().zip(q15))
            .map(|(&(attr, value, _), (&weight, weight_q15))| Constraint {
                attr,
                value,
                weight,
                weight_q15,
            })
            .collect();
        Ok(Request {
            type_id: self.type_id,
            fingerprint: fingerprint_of(self.type_id, &constraints),
            constraints,
        })
    }
}

/// Quantizes normalized weights (`Σ = 1.0`) into UQ1.15 words whose raw sum
/// is exactly `0x8000`, using the largest-remainder method.
///
/// This mirrors the design-time tool flow of the paper: the request list is
/// generated offline with exact weight words so the hardware accumulator
/// `Σ s_i·w_i` can never exceed `1.0`.
fn quantize_weights(weights: &[f64]) -> Vec<Q15> {
    let one = f64::from(Q15::ONE.raw());
    let mut floors: Vec<(usize, u32, f64)> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let exact = w * one;
            let floor = exact.floor();
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            (i, floor as u32, exact - floor)
        })
        .collect();
    let assigned: u32 = floors.iter().map(|&(_, f, _)| f).sum();
    let mut deficit = u32::from(Q15::ONE.raw()).saturating_sub(assigned);
    // Hand out the missing ulps to the largest remainders first.
    floors.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(core::cmp::Ordering::Equal));
    let mut raws = vec![0u32; weights.len()];
    for (i, floor, _) in &floors {
        let extra = u32::from(deficit > 0);
        deficit -= extra;
        raws[*i] = floor + extra;
    }
    raws.into_iter()
        .map(|raw| Q15::saturating_from_raw(raw.min(u32::from(Q15::ONE.raw())) as u16))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aid(raw: u16) -> AttrId {
        AttrId::new(raw).unwrap()
    }

    fn tid(raw: u16) -> TypeId {
        TypeId::new(raw).unwrap()
    }

    #[test]
    fn builder_sorts_and_normalizes() {
        let r = Request::builder(tid(1))
            .constraint(aid(4), 40)
            .constraint(aid(1), 16)
            .constraint(aid(3), 1)
            .build()
            .unwrap();
        let ids: Vec<u16> = r.constraints().iter().map(|c| c.attr.raw()).collect();
        assert_eq!(ids, [1, 3, 4]);
        let total: u32 = r.constraints().iter().map(|c| u32::from(c.weight_q15.raw())).sum();
        assert_eq!(total, 0x8000, "fixed weights must sum to exactly 1.0");
    }

    #[test]
    fn explicit_weights_are_relative() {
        let r = Request::builder(tid(1))
            .weighted_constraint(aid(1), 0, 2.0)
            .weighted_constraint(aid(2), 0, 1.0)
            .weighted_constraint(aid(3), 0, 1.0)
            .build()
            .unwrap();
        assert!((r.constraints()[0].weight - 0.5).abs() < 1e-12);
        assert!((r.constraints()[1].weight - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_requests() {
        assert!(matches!(
            Request::builder(tid(1)).build(),
            Err(CoreError::EmptyRequest)
        ));
        assert!(matches!(
            Request::builder(tid(1))
                .constraint(aid(1), 0)
                .constraint(aid(1), 1)
                .build(),
            Err(CoreError::DuplicateAttr { .. })
        ));
        assert!(matches!(
            Request::builder(tid(1))
                .weighted_constraint(aid(1), 0, -1.0)
                .weighted_constraint(aid(2), 0, 2.0)
                .build(),
            Err(CoreError::InvalidWeights)
        ));
        assert!(matches!(
            Request::builder(tid(1))
                .weighted_constraint(aid(1), 0, 0.0)
                .build(),
            Err(CoreError::InvalidWeights)
        ));
        assert!(matches!(
            Request::builder(tid(1))
                .weighted_constraint(aid(1), 0, f64::NAN)
                .build(),
            Err(CoreError::InvalidWeights)
        ));
    }

    #[test]
    fn quantized_thirds_sum_exactly() {
        let q = quantize_weights(&[1.0 / 3.0; 3]);
        let total: u32 = q.iter().map(|w| u32::from(w.raw())).sum();
        assert_eq!(total, 0x8000);
        // Two of them get the extra ulp.
        let mut raws: Vec<u16> = q.iter().map(|w| w.raw()).collect();
        raws.sort_unstable();
        assert_eq!(raws, [10922, 10923, 10923]);
    }

    #[test]
    fn quantize_handles_extremes() {
        let q = quantize_weights(&[1.0]);
        assert_eq!(q[0], Q15::ONE);
        let q = quantize_weights(&[0.5, 0.5]);
        assert_eq!(q[0].raw() + q[1].raw(), 0x8000);
    }

    #[test]
    fn fingerprint_distinguishes_requests() {
        let a = Request::builder(tid(1)).constraint(aid(1), 16).build().unwrap();
        let b = Request::builder(tid(1)).constraint(aid(1), 17).build().unwrap();
        let c = Request::builder(tid(2)).constraint(aid(1), 16).build().unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        // The words [type 1, attr 1, value 16, weight 0x8000], hashed as ever:
        // caches, the wire and the benchmark's input digest key on the value.
        assert_eq!(a.fingerprint(), 0x7b96_03e1_6e77_a56d);
    }

    /// What the builder makes of the same parts, the weight words taken
    /// as relative weights — the route every decoder took before
    /// [`Request::from_normalized`].
    fn through_the_builder(type_id: TypeId, parts: &[(AttrId, u16, u16)]) -> Result<Request, CoreError> {
        parts
            .iter()
            .fold(Request::builder(type_id), |builder, &(attr, value, word)| {
                builder.weighted_constraint(attr, value, f64::from(word))
            })
            .build()
    }

    #[test]
    fn normalized_parts_build_the_builders_request_bit_for_bit() {
        // xorshift64*, as the other seeded sweeps of the workspace.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |bound: u64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound
        };
        for round in 0..2_000 {
            let count = 1 + below(12) as usize;
            // Cut points in [0, 0x8000], sorted: the gaps are weight words
            // that sum to exactly one — zero words and a lone 0x8000 among
            // them.
            let mut cuts: Vec<u64> = (1..count).map(|_| below(0x8001)).collect();
            cuts.sort_unstable();
            cuts.push(0x8000);
            let mut attr = 0;
            let mut low = 0;
            let parts: Vec<(AttrId, u16, u16)> = cuts
                .iter()
                .map(|&cut| {
                    attr += 1 + below(5) as u16;
                    let word = (cut - low) as u16;
                    low = cut;
                    (aid(attr), below(1 << 16) as u16, word)
                })
                .collect();
            let type_id = tid(1 + below(60_000) as u16);
            let fast = Request::from_normalized(type_id, parts.iter().copied())
                .unwrap_or_else(|| panic!("round {round}: {parts:?} is normalized"));
            let built = through_the_builder(type_id, &parts).unwrap();
            assert_eq!(fast, built, "round {round}");
            assert_eq!(fast.fingerprint(), built.fingerprint(), "round {round}");
            for (a, b) in fast.constraints().iter().zip(built.constraints()) {
                assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "round {round}");
            }
        }
    }

    #[test]
    fn parts_out_of_normal_form_are_left_to_the_builder() {
        let half = 0x4000;
        let shapes: [&[(AttrId, u16, u16)]; 6] = [
            // Empty.
            &[],
            // Unsorted.
            &[(aid(2), 0, half), (aid(1), 0, half)],
            // Duplicate attribute.
            &[(aid(1), 0, half), (aid(1), 1, half)],
            // Sum one ulp short, one ulp over, and far over.
            &[(aid(1), 0, half), (aid(2), 0, half - 1)],
            &[(aid(1), 0, half), (aid(2), 0, half + 1)],
            &[(aid(1), 0, 0xFFFF), (aid(2), 0, 0xFFFF), (aid(3), 0, 0x8002)],
        ];
        for parts in shapes {
            assert_eq!(Request::from_normalized(tid(1), parts.iter().copied()), None, "{parts:?}");
        }
        // The builder still answers each of them as it always did.
        assert_eq!(through_the_builder(tid(1), shapes[0]), Err(CoreError::EmptyRequest));
        assert!(through_the_builder(tid(1), shapes[1]).is_ok());
        assert!(matches!(
            through_the_builder(tid(1), shapes[2]),
            Err(CoreError::DuplicateAttr { .. })
        ));
        assert!(through_the_builder(tid(1), shapes[3]).is_ok());
    }

    #[test]
    fn a_clone_shares_its_constraint_list() {
        let original = Request::builder(tid(3))
            .constraint(aid(1), 16)
            .weighted_constraint(aid(4), 40, 2.0)
            .build()
            .unwrap();
        // Sharing costs no room: a queued job holds the request inline.
        #[cfg(target_pointer_width = "64")]
        assert_eq!(std::mem::size_of::<Request>(), 32);
        let clone = original.clone();
        assert_eq!(clone.constraints().as_ptr(), original.constraints().as_ptr());
        assert_eq!(clone, original);
        assert_eq!(clone.fingerprint(), original.fingerprint());
        let decoded = Request::from_normalized(tid(3), [(aid(1), 16, 0x4000), (aid(4), 40, 0x4000)])
            .unwrap();
        let clone = decoded.clone();
        assert_eq!(clone.constraints().as_ptr(), decoded.constraints().as_ptr());
        assert_eq!(clone, decoded);
        assert_eq!(clone.fingerprint(), decoded.fingerprint());
    }

    /// Normalized parts behind an iterator that reports `claimed` as its
    /// exact length, whatever it holds.
    struct Lying {
        parts: std::vec::IntoIter<(AttrId, u16, u16)>,
        claimed: usize,
    }

    impl Iterator for Lying {
        type Item = (AttrId, u16, u16);

        fn next(&mut self) -> Option<Self::Item> {
            self.parts.next()
        }

        fn size_hint(&self) -> (usize, Option<usize>) {
            (self.claimed, Some(self.claimed))
        }
    }

    impl ExactSizeIterator for Lying {}

    #[test]
    fn a_length_that_lies_in_either_direction_gives_none() {
        let parts = vec![(aid(1), 16, 0x2000), (aid(3), 1, 0x2000), (aid(4), 40, 0x4000)];
        let lying = |claimed| Lying {
            parts: parts.clone().into_iter(),
            claimed,
        };
        assert!(Request::from_normalized(tid(1), lying(3)).is_some(), "the truth is accepted");
        for claimed in [0, 1, 2, 4, 5, 64, usize::from(u16::MAX) + 1, usize::MAX] {
            assert_eq!(Request::from_normalized(tid(1), lying(claimed)), None, "claimed {claimed}");
        }
    }

    #[test]
    fn constraint_lookup() {
        let r = Request::builder(tid(1))
            .constraint(aid(1), 16)
            .constraint(aid(4), 40)
            .build()
            .unwrap();
        assert_eq!(r.constraint(aid(4)).unwrap().value, 40);
        assert!(r.constraint(aid(2)).is_none());
        assert_eq!(r.bindings().count(), 2);
    }

    #[test]
    fn display_mentions_type_and_constraints() {
        let r = Request::builder(tid(7)).constraint(aid(1), 3).build().unwrap();
        let s = r.to_string();
        assert!(s.contains("T7") && s.contains("A1=3"));
    }
}
