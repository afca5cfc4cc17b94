//! The AVX2 wide kernel: the paper's 16-bit retrieval datapath (fig. 7)
//! sixteen times side by side.
//!
//! One 256-bit register holds 16 `u16` lanes — the 16 rows of one
//! lane-step of a presorted copy. A step loops over the request's planned
//! constraints with the similarity accumulator **in a register** and
//! clamps it; the top-1 walk in the parent module decides which steps to
//! score and keeps the best of the 16 scores. Each
//! lane runs the scalar UQ1.15 datapath exactly, on `epu16` operations
//! only (proofs: `docs/retrieval.md`, "Variant axis"):
//!
//! ```text
//! d    = max(c, v) − min(c, v)                        |case − request|
//! sat  = min(mullo(min(d, d_cap), recip), 0x8000)     scale_int(d)
//! s_i  = 0x8000 − sat                                 complement
//! term = mulhi(s_i, 2w)        (s_i itself at w = 1.0) mul_trunc
//! acc  = adds_epu16(acc, term & present)              saturating Σ
//! ```
//!
//! `d_cap = ⌈0x8000 / recip⌉` comes from the plane's reciprocal table:
//! clamping `d` to it keeps the product inside 16 bits and saturates
//! exactly where `Q15::scale_int` does. `(s_i · w) >> 15` is the high
//! half of `s_i · 2w`, one `vpmulhuw`. (Recombining `mulhi` and `mullo`
//! of `s_i · w` is as exact and needs no special weight, but LLVM folds
//! the recombining shift into the multiply, loses `vpmulhuw` and emits
//! two widened `vpmulld` per step — the instruction this kernel exists
//! to avoid.) The final clamp `min(acc, 0x8000)` equals the scalar
//! path's clamp of the `u16`-saturated sum.
//!
//! A copy is padded to whole steps with rows that bind no column, so a
//! padded lane's every term is masked to 0 and it scores 0.
//!
//! This is the only module in the crate allowed to use `unsafe` (the
//! crate root carries `deny(unsafe_code)`). Inside
//! `#[target_feature(enable = "avx2")]` functions the arithmetic
//! intrinsics are safe calls; what is left is the 256-bit load, which
//! takes a `&[u16; 16]`, and the one runtime-detected dispatch into
//! [`score_step`] in the parent module.

#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::{
    __m256i, _mm256_adds_epu16, _mm256_and_si256, _mm256_cmpeq_epi16, _mm256_extract_epi64,
    _mm256_loadu_si256, _mm256_max_epu16, _mm256_min_epu16, _mm256_mulhi_epu16, _mm256_mullo_epi16,
    _mm256_set1_epi16, _mm256_setr_epi16, _mm256_setzero_si256, _mm256_sub_epi16,
};

use rqfa_fixed::Q15;

use super::{PlanEntry, LANES};
use crate::plane::SortedCopy;

/// UQ1.15 `1.0`, `0x8000`.
const ONE: u16 = Q15::ONE.raw();

/// Runtime feature probe. Called once per [`PlaneEngine`](super::PlaneEngine)
/// construction, never in the hot loop.
pub(super) fn available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Broadcasts one `u16` to every lane.
#[inline]
#[target_feature(enable = "avx2")]
fn splat(word: u16) -> __m256i {
    _mm256_set1_epi16(word.cast_signed())
}

/// Loads one lane-step.
#[inline]
#[target_feature(enable = "avx2")]
fn load(lanes: &[u16; LANES]) -> __m256i {
    // SAFETY: `lanes` is 32 readable bytes, and `loadu` asks no alignment.
    unsafe { _mm256_loadu_si256(lanes.as_ptr().cast()) }
}

/// The 16 lanes of a register, lane 0 first.
#[inline]
#[target_feature(enable = "avx2")]
fn lanes(v: __m256i) -> [u16; LANES] {
    let quads = [
        _mm256_extract_epi64::<0>(v),
        _mm256_extract_epi64::<1>(v),
        _mm256_extract_epi64::<2>(v),
        _mm256_extract_epi64::<3>(v),
    ];
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    core::array::from_fn(|lane| (quads[lane / 4] >> (16 * (lane % 4))) as u16)
}

/// The per-lane local similarity `s_i = 1 − scale_int(|case − value|)`.
#[inline]
#[target_feature(enable = "avx2")]
fn local(cases: __m256i, entry: &PlanEntry) -> __m256i {
    let (value, one) = (splat(entry.value), splat(ONE));
    let d = _mm256_sub_epi16(
        _mm256_max_epu16(cases, value),
        _mm256_min_epu16(cases, value),
    );
    let capped = _mm256_min_epu16(d, splat(entry.d_cap));
    let sat = _mm256_min_epu16(_mm256_mullo_epi16(capped, splat(entry.recip.raw())), one);
    _mm256_sub_epi16(one, sat)
}

/// All-ones in the lanes whose bit is set in `bits` (lane 0 = bit 0).
#[inline]
#[target_feature(enable = "avx2")]
fn spread(bits: u16) -> __m256i {
    #[rustfmt::skip]
    let lane_bit = _mm256_setr_epi16(
        1, 2, 4, 8, 0x10, 0x20, 0x40, 0x80, 0x100, 0x200, 0x400, 0x800, 0x1000, 0x2000, 0x4000,
        i16::MIN,
    );
    _mm256_cmpeq_epi16(_mm256_and_si256(splat(bits), lane_bit), lane_bit)
}

/// One constraint's terms `mul_trunc(s_i, weight)` over one lane-step.
///
/// `(s_i · w) >> 15 = (s_i · 2w) >> 16`, the high half of a 16 × 16
/// product. The one weight whose double does not fit 16 bits is 1.0, and
/// `s_i · 1.0` is `s_i`.
#[inline]
#[target_feature(enable = "avx2")]
fn term(cases: &[u16; LANES], entry: &PlanEntry) -> __m256i {
    let si = local(load(cases), entry);
    match entry.weight.raw().checked_mul(2) {
        Some(doubled) => _mm256_mulhi_epu16(si, splat(doubled)),
        None => si,
    }
}

/// The 16 clamped scores of lane-step `step` of `copy`: every planned
/// constraint's terms accumulated in a register, lanes that do not bind
/// a constraint's column adding 0 for it.
#[target_feature(enable = "avx2")]
pub(super) fn score_step(copy: &SortedCopy<'_>, plan: &[PlanEntry], step: usize) -> [u16; LANES] {
    let mut acc = _mm256_setzero_si256();
    for entry in plan {
        let (cases, present) = copy.step(entry.column as usize, step);
        // The term before the presence branch, not inside its arms: the
        // compiler selects `vpmulhuw` only while the multiply sits in one
        // basic block with the widening of both operands.
        let term = term(cases, entry);
        let term = if present == u16::MAX {
            term
        } else {
            _mm256_and_si256(term, spread(present))
        };
        acc = _mm256_adds_epu16(acc, term);
    }
    lanes(_mm256_min_epu16(acc, splat(ONE)))
}

#[cfg(test)]
mod tests {
    use std::io::Write;

    use rqfa_fixed::{local_similarity, recip_plus_one};

    use super::*;
    use crate::attribute::{AttrBinding, AttrDecl};
    use crate::bounds::BoundsTable;
    use crate::casebase::{CaseBase, FunctionType};
    use crate::ids::{AttrId, ImplId, TypeId};
    use crate::implvariant::{ExecutionTarget, ImplVariant};
    use crate::kernel::{walk, ActivePath};
    use crate::plane::{saturation_distance, RetrievalPlane};

    /// One lane of [`local`] in plain `u16` arithmetic: `wrapping_mul` is
    /// `mullo`.
    fn model_local(case: u16, entry: &PlanEntry) -> u16 {
        let d = case.max(entry.value) - case.min(entry.value);
        ONE - d.min(entry.d_cap).wrapping_mul(entry.recip.raw()).min(ONE)
    }

    /// One lane of [`terms`]: the high half of the widened product is
    /// `mulhi`.
    fn model_term(case: u16, entry: &PlanEntry) -> u16 {
        let si = model_local(case, entry);
        match entry.weight.raw().checked_mul(2) {
            #[allow(clippy::cast_possible_truncation)]
            Some(doubled) => ((u32::from(si) * u32::from(doubled)) >> 16) as u16,
            None => si,
        }
    }

    /// What the shared fixed-point code computes for the same inputs.
    fn fixed_term(case: u16, entry: &PlanEntry) -> u16 {
        local_similarity(case.abs_diff(entry.value), entry.recip)
            .mul_trunc(entry.weight)
            .raw()
    }

    fn entry(value: u16, recip: Q15, weight: u16) -> PlanEntry {
        PlanEntry {
            column: 0,
            value,
            d_cap: saturation_distance(recip),
            recip,
            weight: Q15::new(weight).unwrap(),
        }
    }

    /// Test-only entry into the real vector code: one constraint's terms
    /// for 16 case values.
    #[target_feature(enable = "avx2")]
    fn vector_terms(cases: &[u16; LANES], entry: &PlanEntry) -> [u16; LANES] {
        lanes(term(cases, entry))
    }

    /// Runs `check(cases, entry)` over the exhaustive input families of
    /// the datapath, 16 case values at a time:
    ///
    /// * `scale_int`: every `d ∈ 0..=0xFFFF` (so `d_cap − 1`, `d_cap`,
    ///   `d_cap + 1` of every reciprocal), from either side of the
    ///   requested value, at weight 1.0 (`term = s_i`);
    /// * `mul_trunc`: every `s_i ∈ 0..=0x8000` (reciprocal 1 makes
    ///   `s_i = 0x8000 − d`) under each weight.
    fn for_every_input(mut check: impl FnMut(&[u16; LANES], &PlanEntry)) {
        let recips = [0, 1, 2, 3, 0x4000, 0x7FFF, 0x8000]
            .map(|raw| Q15::new(raw).unwrap())
            .into_iter()
            .chain([0, 1, 8, 36, 255, 65534].map(recip_plus_one));
        for recip in recips {
            for base in (0..=u16::MAX).step_by(LANES) {
                let rising: [u16; LANES] = core::array::from_fn(|lane| base + lane as u16);
                check(&rising, &entry(0, recip, ONE));
                check(&rising.map(|d| u16::MAX - d), &entry(u16::MAX, recip, ONE));
            }
        }
        for weight in [0, 1, 0x2AAB, 0x4000, 0x7FFF, 0x8000] {
            for base in (0..=ONE).step_by(LANES) {
                // The step past 0x8000 re-checks saturated distances.
                let cases: [u16; LANES] = core::array::from_fn(|lane| base + lane as u16);
                check(&cases, &entry(0, Q15::new(1).unwrap(), weight));
            }
        }
    }

    #[test]
    fn lane_model_matches_the_fixed_point_code_on_every_input() {
        for_every_input(|cases, entry| {
            for &case in cases {
                assert_eq!(
                    model_term(case, entry),
                    fixed_term(case, entry),
                    "case {case:#x}, {entry:?}"
                );
            }
        });
    }

    /// Whether the vector half of a test can run here. A host without
    /// AVX2 says so on stderr (around the harness's output capture): the
    /// skip must not read as a pass.
    fn vector_half_runs(test: &str) -> bool {
        if !available() {
            writeln!(std::io::stderr(), "SKIPPED {test}: no AVX2 on this host").unwrap();
        }
        available()
    }

    #[test]
    fn vector_lanes_match_the_model_on_every_input() {
        if !vector_half_runs("vector_lanes_match_the_model_on_every_input") {
            return;
        }
        for_every_input(|cases, entry| {
            // SAFETY: AVX2 was detected just above.
            let vector = unsafe { vector_terms(cases, entry) };
            assert_eq!(
                vector,
                cases.map(|case| model_term(case, entry)),
                "{entry:?}"
            );
        });
    }

    #[test]
    fn the_accumulator_saturates_exactly_where_the_wide_sum_clamps() {
        // 40 variants bound to 0, 100, 200, … on one dense attribute with
        // `d_max = 3900`: requests for 0 see `s_i` fall from 1.0 in steps.
        // Plans of un-normalised weights put the term sums of different
        // variants below 0x8000, between 0x8000 and 0xFFFF, and above
        // 0xFFFF within one pass.
        let attr = AttrId::new(1).unwrap();
        let bounds =
            BoundsTable::from_decls([AttrDecl::new(attr, "synthetic", 0, 3900).unwrap()]).unwrap();
        let cases: Vec<u16> = (0..40).map(|i| i * 100).collect();
        let variants = (1..)
            .zip(&cases)
            .map(|(id, &case)| {
                let bindings = vec![AttrBinding::new(attr, case)];
                ImplVariant::new(ImplId::new(id).unwrap(), ExecutionTarget::Dsp, bindings)
                    .unwrap()
            })
            .collect();
        let type_id = TypeId::new(1).unwrap();
        let cb = CaseBase::new(
            bounds,
            vec![FunctionType::new(type_id, "synthetic", variants).unwrap()],
        )
        .unwrap();
        let plane = RetrievalPlane::compile(&cb);
        let ty = plane.type_plane(type_id).unwrap();
        let (recip, _) = plane.scale(attr).unwrap();
        let (mut between, mut above) = (false, false);
        let vector =
            vector_half_runs("the_accumulator_saturates_exactly_where_the_wide_sum_clamps");
        for weights in [
            vec![0x4000, 0x3FFF],
            vec![0x8000, 0x0001],
            vec![0x8000, 0x7FFF],
            vec![0x8000, 0x8000],
            vec![0x8000, 0x8000, 0x8000],
            vec![0x7FFF; 5],
        ] {
            let plan: Vec<PlanEntry> = weights.iter().map(|&w| entry(0, recip, w)).collect();
            let wide_sums: Vec<u32> = cases
                .iter()
                .map(|&case| plan.iter().map(|e| u32::from(fixed_term(case, e))).sum())
                .collect();
            assert!(wide_sums.iter().any(|&sum| sum < 0x8000), "{weights:x?}");
            between |= wide_sums.iter().any(|&sum| sum > 0x8000 && sum <= 0xFFFF);
            above |= wide_sums.iter().any(|&sum| sum > 0xFFFF);
            let clamped: Vec<u16> = wide_sums
                .iter()
                .map(|&sum| sum.min(0x8000) as u16)
                .collect();
            // The model: a saturating `u16` accumulator, clamped last.
            let model: Vec<u16> = cases
                .iter()
                .map(|&case| {
                    plan.iter()
                        .fold(0u16, |acc, e| acc.saturating_add(model_term(case, e)))
                        .min(ONE)
                })
                .collect();
            assert_eq!(model, clamped, "{weights:x?}");
            if !vector {
                continue;
            }
            let copy = ty.sorted(0);
            let mut row = vec![0xAAAA; ty.variant_count()];
            for step in 0..copy.steps() {
                // SAFETY: AVX2 was detected just above.
                let scores = unsafe { score_step(&copy, &plan, step) };
                for (&score, &index) in scores.iter().zip(copy.rows(step)) {
                    match row.get_mut(usize::from(index)) {
                        Some(slot) => *slot = score,
                        None => assert_eq!(score, 0, "padded lanes score 0"),
                    }
                }
            }
            assert_eq!(row, clamped, "{weights:x?}");
            // The walk over the same copy finds the first maximum.
            let (index, best) = walk(ty, &plan, &mut 0, ActivePath::Avx2);
            let max = *clamped.iter().max().unwrap();
            let first_max = clamped.iter().position(|&s| s == max).unwrap();
            assert_eq!((index, best), (first_max, max));
        }
        assert!(
            between && above,
            "sums on both sides of 0xFFFF were exercised"
        );
    }
}
