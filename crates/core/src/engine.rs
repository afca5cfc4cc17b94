//! Retrieval engines: the *retrieve* step of the CBR cycle (fig. 6).
//!
//! Two software engines share the exact decision semantics of the hardware
//! unit so their results can be compared bit-for-bit:
//!
//! * [`FloatEngine`] — `f64` arithmetic, the golden reference (plays the
//!   role of the paper's Matlab model).
//! * [`FixedEngine`] — UQ1.15 arithmetic with the identical operation order
//!   as the simulated datapath (`rqfa-hwsim`) and the soft-core program
//!   (`rqfa-softcore`). This engine defines the reference bit pattern.
//!
//! ## Decision semantics (shared by all engines in the workspace)
//!
//! Variants are scanned in implementation-tree order (ascending id). The
//! winner is the **first variant achieving the maximum** global similarity:
//! the running best is only replaced on *strictly greater* similarity,
//! mirroring the `S > S_best` comparator of fig. 6. Request attributes
//! missing from a variant contribute `s_i = 0` ("a missing attribute can be
//! seen as unsatisfiable requirement").

use core::fmt;

use rqfa_fixed::Q15;

use crate::casebase::CaseBase;
use crate::error::CoreError;
use crate::ids::ImplId;
use crate::implvariant::ExecutionTarget;
use crate::request::Request;
use crate::similarity::{local_f64, local_q15};

/// One scored implementation variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored<S> {
    /// The variant id.
    pub impl_id: ImplId,
    /// The execution resource of the variant (handy for feasibility checks
    /// and reports; retrieval itself ignores it).
    pub target: ExecutionTarget,
    /// The global similarity.
    pub similarity: S,
}

impl<S: fmt::Display> fmt::Display for Scored<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}) S={}", self.impl_id, self.target, self.similarity)
    }
}

/// Operation counters, filled in by every retrieval run.
///
/// They quantify the *computational effort* argument of §2.2 (Manhattan vs
/// Mahalanobis) and the search-effort argument of §4.1 (resumable vs
/// restarting attribute search).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Attribute-list words visited while searching (the resumable scan).
    pub search_steps: u64,
    /// Absolute-difference computations.
    pub distances: u64,
    /// Multiplications (both `d·recip` and `s_i·w_i`).
    pub multiplies: u64,
    /// Additions/subtractions (accumulator and complements).
    pub additions: u64,
    /// Best-score comparisons.
    pub comparisons: u64,
}

impl OpCounts {
    /// Total arithmetic operations (excluding pure memory search steps).
    pub fn arithmetic(&self) -> u64 {
        self.distances + self.multiplies + self.additions + self.comparisons
    }
}

/// One request's slot in a [`FixedEngine::score_batch`] result: the full
/// score vector plus operation counters, or the per-request error.
pub type ScoreResult = Result<(Vec<Scored<Q15>>, OpCounts), CoreError>;

/// The result of one retrieval run.
#[derive(Debug, Clone, PartialEq)]
pub struct Retrieval<S> {
    /// The winning variant (first variant achieving the maximum), or `None`
    /// if the function type exists but holds no variants — impossible for a
    /// validated [`CaseBase`], hence effectively always `Some`.
    pub best: Option<Scored<S>>,
    /// Number of variants evaluated.
    pub evaluated: usize,
    /// Operation counters.
    pub ops: OpCounts,
}

/// Scans an implementation's sorted attribute list for `attr`, starting at
/// `cursor`, advancing the cursor (the §4.1 resumable search). Returns the
/// value if found. Counts visited entries into `steps`.
fn resumable_find(
    attrs: &[crate::attribute::AttrBinding],
    cursor: &mut usize,
    attr: crate::ids::AttrId,
    steps: &mut u64,
) -> Option<u16> {
    while *cursor < attrs.len() {
        *steps += 1;
        let entry = attrs[*cursor];
        if entry.attr == attr {
            // Leave the cursor on the next entry: request ids ascend, and
            // each implementation id occurs at most once.
            *cursor += 1;
            return Some(entry.value);
        }
        if entry.attr > attr {
            // Sorted list: the attribute cannot appear later. Do not advance
            // past this entry — it may match the next (larger) request id.
            return None;
        }
        *cursor += 1;
    }
    None
}

/// The `f64` reference engine.
///
/// ```
/// use rqfa_core::{paper, FloatEngine};
///
/// let cb = paper::table1_case_base();
/// let request = paper::table1_request()?;
/// let result = FloatEngine::new().retrieve(&cb, &request)?;
/// let best = result.best.unwrap();
/// assert_eq!(best.impl_id, paper::IMPL_DSP); // Table 1: the DSP wins
/// assert!((best.similarity - 0.96).abs() < 5e-3);
/// # Ok::<(), rqfa_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FloatEngine;

impl FloatEngine {
    /// Creates the engine. Amalgamation is the paper's weighted sum
    /// (equation (2)), as in the hardware unit.
    pub fn new() -> FloatEngine {
        FloatEngine
    }

    /// Scores every variant of the requested type, in tree order.
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnknownType`] if the type is absent.
    /// * [`CoreError::UndeclaredAttr`] if a request attribute has no bounds
    ///   entry.
    pub fn score_all(
        &self,
        case_base: &CaseBase,
        request: &Request,
    ) -> Result<(Vec<Scored<f64>>, OpCounts), CoreError> {
        let ty = case_base.require_type(request.type_id())?;
        let bounds = case_base.bounds();
        // Resolve d_max per constraint once (the supplemental-list lookup).
        let mut d_max = Vec::with_capacity(request.constraints().len());
        for c in request.constraints() {
            d_max.push(bounds.require(c.attr)?.max_distance);
        }
        let mut ops = OpCounts::default();
        let mut scores = Vec::with_capacity(ty.variant_count());
        for variant in ty.variants() {
            // Equation (2): S = Σ w_i · s_i, accumulated in constraint order.
            let mut similarity = 0.0f64;
            let mut cursor = 0usize;
            for (c, &dm) in request.constraints().iter().zip(&d_max) {
                let s = match resumable_find(variant.attrs(), &mut cursor, c.attr, &mut ops.search_steps)
                {
                    Some(value) => {
                        ops.distances += 1;
                        ops.multiplies += 1; // d · 1/(1+d_max)
                        ops.additions += 1; // 1 − …
                        local_f64(c.value, value, dm)
                    }
                    None => 0.0,
                };
                ops.multiplies += 1; // s_i · w_i
                ops.additions += 1; // accumulate
                similarity += s * c.weight;
            }
            ops.comparisons += 1;
            scores.push(Scored {
                impl_id: variant.id(),
                target: variant.target(),
                similarity,
            });
        }
        Ok((scores, ops))
    }

    /// Retrieves the most similar variant (fig. 6 semantics).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FloatEngine::score_all`].
    pub fn retrieve(
        &self,
        case_base: &CaseBase,
        request: &Request,
    ) -> Result<Retrieval<f64>, CoreError> {
        let (scores, ops) = self.score_all(case_base, request)?;
        Ok(Retrieval {
            evaluated: scores.len(),
            best: first_achieving_max_f64(&scores),
            ops,
        })
    }
}

/// The UQ1.15 engine — the bit-pattern reference for the hardware unit.
///
/// ```
/// use rqfa_core::{paper, FixedEngine};
///
/// let cb = paper::table1_case_base();
/// let request = paper::table1_request()?;
/// let result = FixedEngine::new().retrieve(&cb, &request)?;
/// let best = result.best.unwrap();
/// assert_eq!(best.impl_id, paper::IMPL_DSP);
/// assert!((best.similarity.to_f64() - 0.96).abs() < 5e-3);
/// # Ok::<(), rqfa_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixedEngine {
    _private: (),
}

impl FixedEngine {
    /// Creates the engine. Only weighted-sum amalgamation exists in the
    /// 16-bit datapath, so there is nothing to configure.
    pub fn new() -> FixedEngine {
        FixedEngine::default()
    }

    /// Scores every variant of the requested type in UQ1.15, in tree order,
    /// using exactly the datapath operation order:
    /// `acc += ((1 − sat(d·recip)) · w) >> 15` with truncation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FloatEngine::score_all`].
    pub fn score_all(
        &self,
        case_base: &CaseBase,
        request: &Request,
    ) -> Result<(Vec<Scored<Q15>>, OpCounts), CoreError> {
        let ty = case_base.require_type(request.type_id())?;
        self.score_type(case_base.bounds(), ty, request)
    }

    /// Scores one request against an already-resolved function type.
    fn score_type(
        &self,
        bounds: &crate::bounds::BoundsTable,
        ty: &crate::casebase::FunctionType,
        request: &Request,
    ) -> Result<(Vec<Scored<Q15>>, OpCounts), CoreError> {
        let mut recips = Vec::with_capacity(request.constraints().len());
        for c in request.constraints() {
            recips.push(bounds.require(c.attr)?.recip);
        }
        let mut ops = OpCounts::default();
        let mut scores = Vec::with_capacity(ty.variant_count());
        for variant in ty.variants() {
            let mut acc: u32 = 0;
            let mut cursor = 0usize;
            for (c, &recip) in request.constraints().iter().zip(&recips) {
                let si = match resumable_find(
                    variant.attrs(),
                    &mut cursor,
                    c.attr,
                    &mut ops.search_steps,
                ) {
                    Some(value) => {
                        ops.distances += 1;
                        ops.multiplies += 1;
                        ops.additions += 1;
                        local_q15(c.value, value, recip)
                    }
                    None => Q15::ZERO,
                };
                ops.multiplies += 1;
                ops.additions += 1;
                acc += u32::from(si.mul_trunc(c.weight_q15).raw());
            }
            // Σ(s_i·w_i) ≤ Σ w_i = 0x8000 because each term ≤ w_i.
            let similarity = Q15::saturating_from_raw(acc.min(u32::from(Q15::ONE.raw())) as u16);
            ops.comparisons += 1;
            scores.push(Scored {
                impl_id: variant.id(),
                target: variant.target(),
                similarity,
            });
        }
        Ok((scores, ops))
    }

    /// Retrieves the most similar variant (fig. 6 semantics).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FloatEngine::score_all`].
    pub fn retrieve(
        &self,
        case_base: &CaseBase,
        request: &Request,
    ) -> Result<Retrieval<Q15>, CoreError> {
        let (scores, ops) = self.score_all(case_base, request)?;
        Ok(Retrieval {
            evaluated: scores.len(),
            best: first_achieving_max_q15(&scores),
            ops,
        })
    }

    /// Retrieves, rejecting results below `threshold` ("it's conceivable to
    /// reject all results below a given threshold similarity", §3).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FloatEngine::score_all`].
    pub fn retrieve_above(
        &self,
        case_base: &CaseBase,
        request: &Request,
        threshold: Q15,
    ) -> Result<Option<Scored<Q15>>, CoreError> {
        let retrieval = self.retrieve(case_base, request)?;
        Ok(retrieval.best.filter(|s| s.similarity >= threshold))
    }

    /// Retrieves a whole batch of requests in one call, returning per-item
    /// results in input order.
    ///
    /// The batch is processed grouped by function type so the type lookup
    /// (a binary search over the implementation tree) is paid once per
    /// distinct type instead of once per request — the software analogue of
    /// the hardware unit keeping the level-0 pointer parked while a burst
    /// of requests for the same function streams in. A request for an
    /// unknown type yields an `Err` in its slot without poisoning the rest
    /// of the batch, which is what a multiplexing service layer needs.
    ///
    /// Requests are taken by reference (`&[&Request]`) so a queueing
    /// layer can batch jobs it owns without cloning constraint lists on
    /// its hot path.
    pub fn retrieve_batch(
        &self,
        case_base: &CaseBase,
        requests: &[&Request],
    ) -> Vec<Result<Retrieval<Q15>, CoreError>> {
        self.score_batch(case_base, requests)
            .into_iter()
            .map(|item| {
                item.map(|(scores, ops)| Retrieval {
                    evaluated: scores.len(),
                    best: first_achieving_max_q15(&scores),
                    ops,
                })
            })
            .collect()
    }

    /// Batch variant of [`FixedEngine::score_all`]: full score vectors for
    /// every request, in input order, grouped by type internally.
    pub fn score_batch(&self, case_base: &CaseBase, requests: &[&Request]) -> Vec<ScoreResult> {
        let bounds = case_base.bounds();
        // Stable-sort indices by type id so each group resolves its type once.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| requests[i].type_id());
        let mut out: Vec<Option<ScoreResult>> = (0..requests.len()).map(|_| None).collect();
        // Cache the resolved `&FunctionType` itself across a same-type
        // group — `None` for a missing type, so an absent type costs one
        // lookup (not one `Result` clone with its error payload) per
        // request in the group.
        let mut current: Option<(crate::ids::TypeId, Option<&crate::casebase::FunctionType>)> =
            None;
        for i in order {
            let request = requests[i];
            let tid = request.type_id();
            let ty = match current {
                Some((cached, ty)) if cached == tid => ty,
                _ => {
                    let looked_up = case_base.function_type(tid);
                    current = Some((tid, looked_up));
                    looked_up
                }
            };
            out[i] = Some(match ty {
                Some(ty) => self.score_type(bounds, ty, request),
                None => Err(CoreError::UnknownType { type_id: tid }),
            });
        }
        out.into_iter().map(|slot| slot.expect("every slot filled")).collect()
    }
}

/// First variant achieving the maximum similarity (strict-`>` update rule).
fn first_achieving_max_f64(scores: &[Scored<f64>]) -> Option<Scored<f64>> {
    let mut best: Option<Scored<f64>> = None;
    for s in scores {
        match &best {
            None => best = Some(*s),
            Some(b) if s.similarity > b.similarity => best = Some(*s),
            _ => {}
        }
    }
    best
}

/// First variant achieving the maximum similarity (strict-`>` update rule).
fn first_achieving_max_q15(scores: &[Scored<Q15>]) -> Option<Scored<Q15>> {
    let mut best: Option<Scored<Q15>> = None;
    for s in scores {
        match &best {
            None => best = Some(*s),
            Some(b) if s.similarity > b.similarity => best = Some(*s),
            _ => {}
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn table1_float_similarities() {
        let cb = paper::table1_case_base();
        let request = paper::table1_request().unwrap();
        let (scores, _) = FloatEngine::new().score_all(&cb, &request).unwrap();
        assert_eq!(scores.len(), 3);
        let by_id = |raw: u16| {
            scores
                .iter()
                .find(|s| s.impl_id.raw() == raw)
                .unwrap()
                .similarity
        };
        assert!((by_id(1) - 0.8529).abs() < 5e-4, "FPGA: {}", by_id(1));
        assert!((by_id(2) - 0.9640).abs() < 5e-4, "DSP: {}", by_id(2));
        assert!((by_id(3) - 0.4305).abs() < 5e-4, "GP: {}", by_id(3));
    }

    #[test]
    fn table1_fixed_matches_float_ranking() {
        let cb = paper::table1_case_base();
        let request = paper::table1_request().unwrap();
        let (f_scores, _) = FloatEngine::new().score_all(&cb, &request).unwrap();
        let (q_scores, _) = FixedEngine::new().score_all(&cb, &request).unwrap();
        for (f, q) in f_scores.iter().zip(&q_scores) {
            assert_eq!(f.impl_id, q.impl_id);
            assert!(
                (f.similarity - q.similarity.to_f64()).abs() < 2e-3,
                "{}: float {} vs fixed {}",
                f.impl_id,
                f.similarity,
                q.similarity
            );
        }
        let f_best = FloatEngine::new().retrieve(&cb, &request).unwrap().best.unwrap();
        let q_best = FixedEngine::new().retrieve(&cb, &request).unwrap().best.unwrap();
        assert_eq!(f_best.impl_id, q_best.impl_id);
    }

    #[test]
    fn unknown_type_is_an_error() {
        let cb = paper::table1_case_base();
        let request = Request::builder(crate::ids::TypeId::new(99).unwrap())
            .constraint(crate::ids::AttrId::new(1).unwrap(), 1)
            .build()
            .unwrap();
        assert!(matches!(
            FloatEngine::new().retrieve(&cb, &request),
            Err(CoreError::UnknownType { .. })
        ));
        assert!(matches!(
            FixedEngine::new().retrieve(&cb, &request),
            Err(CoreError::UnknownType { .. })
        ));
    }

    #[test]
    fn missing_attribute_scores_zero_share() {
        // Request an attribute the GP variant lacks entirely: similarity must
        // drop by that constraint's full weight share.
        let cb = paper::incomplete_attrs_case_base();
        let request = paper::table1_request().unwrap();
        let (scores, _) = FloatEngine::new().score_all(&cb, &request).unwrap();
        // Variant 2 lacks attribute 3 (output mode): its best possible
        // similarity is 2/3 even with perfect other matches.
        let v2 = scores.iter().find(|s| s.impl_id.raw() == 2).unwrap();
        assert!(v2.similarity <= 2.0 / 3.0 + 1e-12);
    }

    #[test]
    fn tie_breaks_to_first_variant() {
        // Two identical variants: the first in tree order must win.
        let cb = paper::tie_case_base();
        let request = paper::table1_request().unwrap();
        let best = FixedEngine::new().retrieve(&cb, &request).unwrap().best.unwrap();
        assert_eq!(best.impl_id.raw(), 1);
        let best_f = FloatEngine::new().retrieve(&cb, &request).unwrap().best.unwrap();
        assert_eq!(best_f.impl_id.raw(), 1);
    }

    #[test]
    fn threshold_rejects_low_similarity() {
        let cb = paper::table1_case_base();
        let request = paper::table1_request().unwrap();
        let engine = FixedEngine::new();
        let ok = engine
            .retrieve_above(&cb, &request, Q15::from_f64(0.9).unwrap())
            .unwrap();
        assert!(ok.is_some());
        let none = engine
            .retrieve_above(&cb, &request, Q15::ONE)
            .unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn op_counts_are_plausible() {
        let cb = paper::table1_case_base();
        let request = paper::table1_request().unwrap();
        let (_, ops) = FixedEngine::new().score_all(&cb, &request).unwrap();
        // 3 variants × 3 constraints: every constraint costs one s·w multiply.
        assert!(ops.multiplies >= 9);
        assert!(ops.search_steps > 0);
        assert_eq!(ops.comparisons, 3);
        assert!(ops.arithmetic() > 0);
    }

    #[test]
    fn batch_matches_single_retrievals_in_input_order() {
        let cb = paper::table1_case_base();
        let engine = FixedEngine::new();
        let fir = paper::table1_request().unwrap();
        let fft = Request::builder(paper::FFT_1D)
            .constraint(crate::ids::AttrId::new(1).unwrap(), 16)
            .build()
            .unwrap();
        // Interleaved types: the batch sorts internally but must answer
        // in input order.
        let batch = [&fft, &fir, &fft, &fir];
        let results = engine.retrieve_batch(&cb, &batch);
        assert_eq!(results.len(), 4);
        for (request, result) in batch.iter().zip(&results) {
            let single = engine.retrieve(&cb, request).unwrap();
            assert_eq!(result.as_ref().unwrap(), &single);
        }
    }

    #[test]
    fn batch_isolates_unknown_type_errors() {
        let cb = paper::table1_case_base();
        let engine = FixedEngine::new();
        let good = paper::table1_request().unwrap();
        let bad = Request::builder(crate::ids::TypeId::new(99).unwrap())
            .constraint(crate::ids::AttrId::new(1).unwrap(), 1)
            .build()
            .unwrap();
        let results = engine.retrieve_batch(&cb, &[&good, &bad, &good]);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(CoreError::UnknownType { .. })));
        assert!(results[2].is_ok(), "error slot must not poison the batch");
        assert!(engine.retrieve_batch(&cb, &[]).is_empty());
    }

    #[test]
    fn resumable_search_never_rescans() {
        // 10 request attrs against a 10-attr list: exactly one pass.
        let cb = paper::dense_case_base(10);
        let mut builder = Request::builder(crate::ids::TypeId::new(1).unwrap());
        for i in 1..=10u16 {
            builder = builder.constraint(crate::ids::AttrId::new(i).unwrap(), 5);
        }
        let request = builder.build().unwrap();
        let (_, ops) = FixedEngine::new().score_all(&cb, &request).unwrap();
        // One variant, 10 attrs: at most one visit per list entry.
        assert!(ops.search_steps <= 10, "search steps: {}", ops.search_steps);
    }
}
