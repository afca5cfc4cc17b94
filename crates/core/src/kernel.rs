//! Zero-allocation scoring kernels over a compiled [`RetrievalPlane`].
//!
//! A request's constraints are resolved into a *plan* (column, requested
//! value, reciprocal + saturation distance, weight — everything the inner
//! loops need, free of request lifetimes), and the plan is streamed
//! through the paper's 16-bit datapath (fig. 7) one **lane-step** of 16
//! variants at a time: abs-diff, scale, complement, weight, accumulate,
//! clamp. Scores are UQ1.15 words in a `u16`; the accumulator
//! **saturates** instead of widening, which is exact because the only
//! reader clamps to `0x8000` anyway (`min(min(Σ, 0xFFFF), 0x8000) =
//! min(Σ, 0x8000)`). Every per-term operation is the shared `rqfa_fixed`
//! code or an exact transliteration of it, and the saturating sum of
//! non-negative terms does not depend on their order, so every score is
//! **bit-identical** to the one
//! [`FixedEngine::score_all`](crate::FixedEngine::score_all) computes,
//! and the winner to [`FixedEngine::retrieve`](crate::FixedEngine::retrieve)'s
//! — the workspace differential harness (`tests/plane_differential.rs`)
//! proves it over seeded random case bases, request streams and
//! mid-stream mutations, with the wide and scalar paths held to the same
//! contract.
//!
//! **Top-1 is an exact walk over a presorted copy**, not a pass over the
//! whole type. The request's heaviest planned constraint is the *pivot*;
//! the walk scores the lane-step of the type's copy presorted by the
//! pivot ([`TypePlane`] keeps one per column) that holds the requested
//! pivot value, then steps outward on either side. A side stops at the
//! first step whose bound — the other planned weights plus the pivot's
//! term at the distance from the requested value to the step's key range,
//! clamped like the accumulator — is strictly below the best score so
//! far. No score in a step exceeds its bound, and bounds do not rise
//! along a side, so no skipped step holds the winner or ties it. The
//! winner is the highest score, ties to the smallest tree index: the
//! naive engine's first-achieving maximum. Top-1 is the plane's only
//! sink: n-best and full score vectors are the naive engines' business.
//!
//! Two paths score a lane-step, selected once per engine:
//!
//! * **Wide** — on hosts with AVX2 (runtime-detected, never compiled in
//!   on foreign targets beyond the `std::arch` gate), the `wide`
//!   submodule runs sixteen copies of the datapath side by side, one
//!   256-bit register of `u16` lanes per step, the accumulator in a
//!   register.
//! * **Scalar** — always compiled: the same step, lane by lane.
//!
//! Steady-state calls allocate nothing: every intermediate lives in the
//! caller-owned [`Scratch`] (sized on first use, reused after), and the
//! batch entry point writes its results into a caller-owned buffer. A
//! batch is a loop over its requests through the function a single
//! request takes; scoring several requests per column pass was measured
//! and removed (`docs/retrieval.md`, "Request axis").
//!
//! [`PlaneEngine`] is the drop-in facade: it owns a plane + scratch pair,
//! recompiles a type plane whenever that type's stamp
//! ([`CaseBase::type_stamp`]) moves, and mirrors the top-1 entry points
//! of [`FixedEngine`](crate::FixedEngine). Path selection is a
//! construction-time knob ([`KernelPath`]):
//! [`KernelPath::Auto`] resolves to the widest detected path,
//! [`KernelPath::ForceScalar`] pins the scalar loops (the benchmark A/B
//! and the fallback-honesty CI lane use this). The cost model of the
//! [`OpCounts`] it reports is documented in `docs/retrieval.md` and is
//! **path-independent** (arithmetic counters are identical to the naive
//! path; `search_steps` counts per-constraint column resolutions instead
//! of attribute-list walk steps). It is also independent of pruning:
//! the counters model the paper's datapath, which scores every variant.

use core::borrow::Borrow;
use core::cmp::Reverse;

use rqfa_fixed::Q15;

use crate::casebase::CaseBase;
use crate::engine::{OpCounts, Retrieval, Scored};
use crate::error::CoreError;
use crate::generation::Generation;
use crate::plane::{RetrievalPlane, SortedCopy, TypePlane, COLUMN_PAD};
use crate::request::Request;

#[cfg(target_arch = "x86_64")]
mod wide;

/// Kernel path selection for [`PlaneEngine::with_kernel`].
///
/// The choice never changes results — both paths are bit-identical and
/// report the same [`OpCounts`] — only how the work is laid onto the
/// machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KernelPath {
    /// Runtime-detect the widest available path; scalar when the host
    /// has none. The default.
    #[default]
    Auto,
    /// Pin the scalar loops even where a wide path is available — the
    /// benchmark A/B baseline and the CI lane that keeps the fallback
    /// honest.
    ForceScalar,
}

/// The resolved, host-specific path a [`PlaneEngine`] actually runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ActivePath {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl ActivePath {
    fn resolve(path: KernelPath) -> ActivePath {
        match path {
            KernelPath::ForceScalar => ActivePath::Scalar,
            KernelPath::Auto => {
                #[cfg(target_arch = "x86_64")]
                if wide::available() {
                    return ActivePath::Avx2;
                }
                ActivePath::Scalar
            }
        }
    }

    fn name(self) -> &'static str {
        match self {
            ActivePath::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            ActivePath::Avx2 => "avx2",
        }
    }
}

/// Whether this host has a wide (SIMD) kernel path that
/// [`KernelPath::Auto`] would select. Purely informational — the scalar
/// fallback is always compiled and always available.
pub fn wide_kernel_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        wide::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One planned constraint: the request shape's constants for one column,
/// looked up once per request instead of once per variant. A constraint
/// on an attribute no variant of the type binds (`s_i = 0` everywhere)
/// is charged but never planned — it moves no accumulator.
#[derive(Debug, Clone, Copy)]
struct PlanEntry {
    /// Column index within the [`TypePlane`].
    column: u32,
    /// Requested value in domain units.
    value: u16,
    /// The distance at which `d · recip` saturates
    /// ([`saturation_distance`](crate::plane::saturation_distance)).
    d_cap: u16,
    /// Pre-resolved `1/(1 + d_max)`.
    recip: Q15,
    /// UQ1.15 weight word from the request list.
    weight: Q15,
}

/// Variants per lane-step: the unit both paths score.
const LANES: usize = COLUMN_PAD;

/// Reusable scratch arena of the scoring kernels.
///
/// Own one per worker/thread and pass it to every kernel call: after the
/// first few requests size the buffers, steady-state scoring performs no
/// heap allocation (the [`Scratch::grows`] counter and the workspace
/// counting-allocator test both verify this).
#[derive(Debug, Default)]
pub struct Scratch {
    /// The planned constraints of the request being scored.
    plan: Vec<PlanEntry>,
    /// Buffer reallocation events (capacity growth), for scratch-reuse
    /// assertions.
    grows: u64,
    /// Lane-steps the top-1 walk has scored.
    steps_scored: u64,
}

impl Scratch {
    /// A fresh, empty arena.
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// How many times any internal buffer had to grow its capacity.
    /// Stable across calls once the arena is warm — the scratch-reuse
    /// counterpart of the counting-allocator test.
    pub fn grows(&self) -> u64 {
        self.grows
    }
}

/// Clears `buffer` ahead of `n` pushes, tracking capacity growth.
fn reset<T>(buffer: &mut Vec<T>, n: usize, grows: &mut u64) {
    if buffer.capacity() < n {
        *grows += 1;
    }
    buffer.clear();
}

/// Resolves the request's constraints against the plane — scale
/// constants from the flat table, column index by binary search — into
/// the scratch plan, charging the modeled datapath cost of each. One
/// `search_steps` per constraint: the whole per-request "setup" the
/// compiled plane leaves.
///
/// Errors mirror the naive path: the **first** constraint (in attribute
/// order) whose attribute has no bounds entry fails with
/// [`CoreError::UndeclaredAttr`].
fn resolve(
    plane: &RetrievalPlane,
    ty: &TypePlane,
    request: &Request,
    scratch: &mut Scratch,
    ops: &mut OpCounts,
) -> Result<(), CoreError> {
    let Scratch { plan, grows, .. } = scratch;
    reset(plan, request.constraints().len(), grows);
    for c in request.constraints() {
        let (recip, d_cap) = plane
            .scale(c.attr)
            .ok_or(CoreError::UndeclaredAttr { attr: c.attr })?;
        ops.search_steps += 1;
        let column = ty.column_index(c.attr);
        charge(ty, column.map_or(0, |index| ty.columns()[index].1), ops);
        if let Some(index) = column {
            plan.push(PlanEntry {
                column: u32::try_from(index).expect("u16-id attr space"),
                value: c.value,
                d_cap,
                recip,
                weight: c.weight_q15,
            });
        }
    }
    Ok(())
}

/// Charges the modeled cost of one constraint over a column that
/// `bound` of the type's variants bind (0: no variant binds the
/// attribute). Every variant pays the `s_i·w_i` multiply/accumulate; a
/// variant that binds the attribute also pays the distance, its scaling
/// and the complement. The model is analytic and **path-independent**:
/// the wide lanes and the scalar loops perform the same modeled datapath
/// arithmetic, so the counters stay bit-identical to the naive engine no
/// matter how lanes are packed or which steps the walk skips (see
/// `docs/retrieval.md`).
fn charge(ty: &TypePlane, bound: usize, ops: &mut OpCounts) {
    let (rows, present) = (ty.variant_count() as u64, bound as u64);
    ops.distances += present;
    ops.multiplies += rows + present;
    ops.additions += rows + present;
}

/// One term of the datapath: `mul_trunc(s(d), weight)` for a case at
/// distance `d` from the requested value — the naive engine's arithmetic.
fn term(entry: &PlanEntry, d: u16) -> u16 {
    rqfa_fixed::local_similarity(d, entry.recip)
        .mul_trunc(entry.weight)
        .raw()
}

/// The scalar twin of `wide::score_step`: lane-step `step` of `copy`
/// through the datapath one lane at a time. Lanes that do not bind a
/// planned column add `s_i = 0` for it, exactly as the naive engine's
/// failed `resumable_find` does, so padded rows score 0.
fn score_step_scalar(copy: &SortedCopy<'_>, plan: &[PlanEntry], step: usize) -> [u16; LANES] {
    let mut acc = [0u16; LANES];
    for entry in plan {
        let (cases, present) = copy.step(entry.column as usize, step);
        for (lane, (sum, &case)) in acc.iter_mut().zip(cases).enumerate() {
            if present >> lane & 1 == 1 {
                *sum = sum.saturating_add(term(entry, case.abs_diff(entry.value)));
            }
        }
    }
    // Final clamp, identical to the naive engine: Σ(s_i·w_i) ≤ Σ w_i =
    // 0x8000, saturated defensively anyway.
    acc.map(|sum| sum.min(Q15::ONE.raw()))
}

/// The 16 clamped scores of lane-step `step` of `copy`, on `path`.
#[allow(unsafe_code)] // the one dispatch into the runtime-detected wide path
fn score_step(
    path: ActivePath,
    copy: &SortedCopy<'_>,
    plan: &[PlanEntry],
    step: usize,
) -> [u16; LANES] {
    match path {
        ActivePath::Scalar => score_step_scalar(copy, plan, step),
        // SAFETY: `ActivePath::Avx2` is only constructed after
        // `wide::available()` observed AVX2 at runtime.
        #[cfg(target_arch = "x86_64")]
        ActivePath::Avx2 => unsafe { wide::score_step(copy, plan, step) },
    }
}

/// The fused top-1: walks the copy presorted by the plan's heaviest
/// entry (the pivot, the first of equals) outward from the step holding
/// the requested pivot value, and returns `(tree index, raw similarity)`
/// of the highest score, ties to the smallest tree index. Each side stops
/// at the first step whose bound is strictly below the best score:
/// `min(0x8000, Σ other weights + term(pivot, d))`, with `d` the distance
/// from the requested value to the step's key range and term 0 for steps
/// that bind no pivot. Adds the steps it scored to `steps_scored`.
fn walk(
    ty: &TypePlane,
    plan: &[PlanEntry],
    steps_scored: &mut u64,
    path: ActivePath,
) -> (usize, u16) {
    let Some(pivot) = plan.iter().min_by_key(|entry| Reverse(entry.weight)) else {
        // Nothing planned: every variant scores 0 and the first one wins.
        return (0, 0);
    };
    let weight = |entry: &PlanEntry| u32::from(entry.weight.raw());
    let rest = plan.iter().map(weight).sum::<u32>() - weight(pivot);
    let copy = ty.sorted(pivot.column as usize);
    let keys = copy.keys();
    let bound = |step: usize| {
        let pivot_term = keys.get(step).map_or(0, |&[first, last]| {
            let d = first.saturating_sub(pivot.value).max(pivot.value.saturating_sub(last));
            term(pivot, d)
        });
        (rest + u32::from(pivot_term)).min(u32::from(Q15::ONE.raw()))
    };
    // A lane's rank: its score above its complemented tree index, so the
    // larger rank is the higher score, then the smaller index. Padded
    // rows rank 0 and never win.
    let best_of = |step: usize| {
        let scores = score_step(path, &copy, plan, step);
        scores
            .iter()
            .zip(copy.rows(step))
            .map(|(&score, &row)| u32::from(score) << 16 | u32::from(!row))
            .max()
            .expect("LANES > 0")
    };
    // A pivot column exists only where some variant binds it: `keys` is
    // never empty.
    let start = keys
        .partition_point(|&[_, last]| last < pivot.value)
        .min(keys.len() - 1);
    let mut best = best_of(start);
    let mut scored = 1;
    for step in (0..start).rev() {
        if bound(step) < best >> 16 {
            break;
        }
        best = best.max(best_of(step));
        scored += 1;
    }
    for step in start + 1..copy.steps() {
        if bound(step) < best >> 16 {
            break;
        }
        best = best.max(best_of(step));
        scored += 1;
    }
    *steps_scored += scored;
    #[allow(clippy::cast_possible_truncation)] // the halves of a 32-bit rank
    (usize::from(!(best as u16)), (best >> 16) as u16)
}

/// Scores one request with the fused top-1 walk.
fn score_top1(
    plane: &RetrievalPlane,
    request: &Request,
    scratch: &mut Scratch,
    path: ActivePath,
) -> Result<Retrieval<Q15>, CoreError> {
    let type_id = request.type_id();
    let ty = plane
        .type_plane(type_id)
        .ok_or(CoreError::UnknownType { type_id })?;
    let mut ops = OpCounts::default();
    resolve(plane, ty, request, scratch, &mut ops)?;
    // The comparator: one comparison per variant, whether the walk scores
    // it or not.
    ops.comparisons += ty.variant_count() as u64;
    let (index, raw) = walk(ty, &scratch.plan, &mut scratch.steps_scored, path);
    Ok(Retrieval {
        // A function type — and so its plane — is never empty.
        best: Some(Scored {
            impl_id: ty.impl_ids()[index],
            target: ty.targets()[index],
            similarity: Q15::saturating_from_raw(raw),
        }),
        evaluated: ty.variant_count(),
        ops,
    })
}

/// The compiled-plane retrieval engine: a [`RetrievalPlane`] cache plus a
/// [`Scratch`] arena behind the familiar [`FixedEngine`](crate::FixedEngine) entry points.
///
/// The facade is bound to **one case base lineage** (a shard's store and
/// the states its mutations take it through): it validates freshness
/// purely by stamps — the base generation says whether anything moved,
/// the type stamps say what — and recompiles only the type planes whose
/// stamp moved. Handed a base of another lineage it cannot tell equal
/// stamps over different content apart; only a differing set of type ids
/// is noticed, and answered with a full compile. Results are
/// bit-identical to the naive engine — winner, its score, tie selection
/// and error values — on **every** kernel path; only
/// [`OpCounts::search_steps`] follows the plane cost model (see
/// `docs/retrieval.md`).
///
/// ```
/// use rqfa_core::{paper, FixedEngine, KernelPath, PlaneEngine};
///
/// let cb = paper::table1_case_base();
/// let request = paper::table1_request()?;
/// let mut plane = PlaneEngine::new(); // KernelPath::Auto
/// let fast = plane.retrieve(&cb, &request)?;
/// let naive = FixedEngine::new().retrieve(&cb, &request)?;
/// assert_eq!(fast.best, naive.best);
/// assert_eq!(fast.evaluated, naive.evaluated);
///
/// // The pinned-scalar engine answers identically, lane for lane.
/// let mut scalar = PlaneEngine::with_kernel(KernelPath::ForceScalar);
/// assert_eq!(scalar.retrieve(&cb, &request)?.best, fast.best);
/// # Ok::<(), rqfa_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct PlaneEngine {
    plane: Option<RetrievalPlane>,
    scratch: Scratch,
    recompiles: u64,
    types_recompiled: u64,
    active: ActivePath,
}

impl Default for PlaneEngine {
    fn default() -> PlaneEngine {
        PlaneEngine::new()
    }
}

impl PlaneEngine {
    /// A fresh engine with an empty (lazily compiled) plane on the
    /// [`KernelPath::Auto`] path.
    pub fn new() -> PlaneEngine {
        PlaneEngine::with_kernel(KernelPath::Auto)
    }

    /// A fresh engine pinned to `path` (resolved once, here: the probe
    /// never runs in the hot loop).
    pub fn with_kernel(path: KernelPath) -> PlaneEngine {
        PlaneEngine {
            plane: None,
            scratch: Scratch::new(),
            recompiles: 0,
            types_recompiled: 0,
            active: ActivePath::resolve(path),
        }
    }

    /// The resolved kernel path this engine runs: `"avx2"` or
    /// `"scalar"`. Benchmarks and logs report this.
    pub fn kernel_path(&self) -> &'static str {
        self.active.name()
    }

    /// Ensures the plane is current with `case_base`: compiled in full at
    /// first use, and after that one type plane per moved type stamp.
    fn ensure(&mut self, case_base: &CaseBase) {
        let compiled = match &mut self.plane {
            Some(plane) if plane.generation() == case_base.generation() => return,
            Some(plane) => plane.refresh(case_base),
            None => {
                let plane = self.plane.insert(RetrievalPlane::compile(case_base));
                plane.type_planes().len()
            }
        };
        if compiled > 0 {
            self.recompiles += 1;
            self.types_recompiled += compiled as u64;
        }
    }

    /// The compiled plane for `case_base` (compiling it if stale).
    pub fn plane(&mut self, case_base: &CaseBase) -> &RetrievalPlane {
        self.ensure(case_base);
        self.plane.as_ref().expect("just ensured")
    }

    /// How many times the plane was brought up to date — once at first
    /// use, once per observed generation change after.
    pub fn recompiles(&self) -> u64 {
        self.recompiles
    }

    /// How many type planes those updates compiled — every type at first
    /// use, then one per type whose stamp had moved.
    pub fn types_recompiled(&self) -> u64 {
        self.types_recompiled
    }

    /// How many lane-steps of [`COLUMN_PAD`] variants the top-1 walk of
    /// [`PlaneEngine::retrieve`] and [`PlaneEngine::retrieve_batch_into`]
    /// has scored. A full scan scores [`TypePlane::padded_len`] ÷ 16 per
    /// request; the pruning pins compare against that.
    pub fn steps_scored(&self) -> u64 {
        self.scratch.steps_scored
    }

    /// Scratch-buffer growth events (see [`Scratch::grows`]).
    pub fn scratch_grows(&self) -> u64 {
        self.scratch.grows()
    }

    /// The case-base generation the compiled plane is current with, if
    /// any.
    pub fn compiled_generation(&self) -> Option<Generation> {
        self.plane.as_ref().map(RetrievalPlane::generation)
    }

    /// Plane-kernel equivalent of [`FixedEngine::retrieve`](crate::FixedEngine::retrieve): fused top-1,
    /// zero allocation in steady state.
    ///
    /// # Errors
    ///
    /// Same conditions (and identical error values) as
    /// [`FixedEngine::score_all`](crate::FixedEngine::score_all).
    pub fn retrieve(
        &mut self,
        case_base: &CaseBase,
        request: &Request,
    ) -> Result<Retrieval<Q15>, CoreError> {
        self.ensure(case_base);
        let plane = self.plane.as_ref().expect("just ensured");
        score_top1(plane, request, &mut self.scratch, self.active)
    }

    /// Plane-kernel equivalent of [`FixedEngine::retrieve_batch`](crate::FixedEngine::retrieve_batch),
    /// writing per-item results into the caller-owned `out` (cleared
    /// first, answers in input order): the plane is validated once, then
    /// every request takes the path [`PlaneEngine::retrieve`] takes.
    /// `requests` is anything that lends out a [`Request`] per item, so
    /// a caller's own batch records need no side vector of references.
    pub fn retrieve_batch_into<R: Borrow<Request>>(
        &mut self,
        case_base: &CaseBase,
        requests: &[R],
        out: &mut Vec<Result<Retrieval<Q15>, CoreError>>,
    ) {
        self.ensure(case_base);
        let plane = self.plane.as_ref().expect("just ensured");
        out.clear();
        out.extend(
            requests
                .iter()
                .map(|request| score_top1(plane, request.borrow(), &mut self.scratch, self.active)),
        );
    }

    /// Allocating convenience wrapper over
    /// [`PlaneEngine::retrieve_batch_into`].
    pub fn retrieve_batch(
        &mut self,
        case_base: &CaseBase,
        requests: &[&Request],
    ) -> Vec<Result<Retrieval<Q15>, CoreError>> {
        let mut out = Vec::new();
        self.retrieve_batch_into(case_base, requests, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::{AttrBinding, AttrDecl};
    use crate::bounds::BoundsTable;
    use crate::casebase::FunctionType;
    use crate::engine::FixedEngine;
    use crate::ids::{AttrId, ImplId, TypeId};
    use crate::implvariant::{ExecutionTarget, ImplVariant};
    use crate::paper;

    #[test]
    fn matches_naive_on_the_paper_example() {
        let cb = paper::table1_case_base();
        let request = paper::table1_request().unwrap();
        let naive = FixedEngine::new().retrieve(&cb, &request).unwrap();
        let plane = PlaneEngine::new().retrieve(&cb, &request).unwrap();
        assert_eq!(naive.best, plane.best, "bit-identical winner and score");
        assert_eq!(naive.evaluated, plane.evaluated);
        let (naive_ops, plane_ops) = (naive.ops, plane.ops);
        assert_eq!(naive_ops.distances, plane_ops.distances);
        assert_eq!(naive_ops.multiplies, plane_ops.multiplies);
        assert_eq!(naive_ops.additions, plane_ops.additions);
        assert_eq!(naive_ops.comparisons, plane_ops.comparisons);
        // search_steps follows the plane cost model: one per constraint.
        assert_eq!(plane_ops.search_steps, request.constraints().len() as u64);
    }

    #[test]
    fn winner_and_ties_match_naive() {
        for cb in [
            paper::table1_case_base(),
            paper::tie_case_base(),
            paper::incomplete_attrs_case_base(),
        ] {
            let request = paper::table1_request().unwrap();
            let naive = FixedEngine::new().retrieve(&cb, &request).unwrap();
            let fast = PlaneEngine::new().retrieve(&cb, &request).unwrap();
            assert_eq!(naive.best, fast.best);
            assert_eq!(naive.evaluated, fast.evaluated);
        }
    }

    #[test]
    fn batch_answers_in_input_order_and_isolates_errors() {
        let cb = paper::table1_case_base();
        let mut fast = PlaneEngine::new();
        let fir = paper::table1_request().unwrap();
        let fft = Request::builder(paper::FFT_1D)
            .constraint(AttrId::new(1).unwrap(), 16)
            .build()
            .unwrap();
        let bad = Request::builder(TypeId::new(99).unwrap())
            .constraint(AttrId::new(1).unwrap(), 1)
            .build()
            .unwrap();
        let batch = [&fft, &bad, &fir, &fft, &fir];
        let naive = FixedEngine::new().retrieve_batch(&cb, &batch);
        let plane = fast.retrieve_batch(&cb, &batch);
        assert_eq!(naive.len(), plane.len());
        for (n, p) in naive.iter().zip(&plane) {
            match (n, p) {
                (Ok(n), Ok(p)) => {
                    assert_eq!(n.best, p.best);
                    assert_eq!(n.evaluated, p.evaluated);
                }
                (Err(n), Err(p)) => assert_eq!(n, p),
                other => panic!("diverged: {other:?}"),
            }
        }
        assert!(fast.retrieve_batch(&cb, &[]).is_empty());
    }

    #[test]
    fn undeclared_attr_matches_naive_error() {
        let cb = paper::table1_case_base();
        let request = Request::builder(paper::FIR_EQUALIZER)
            .constraint(AttrId::new(77).unwrap(), 1)
            .build()
            .unwrap();
        let naive = FixedEngine::new().retrieve(&cb, &request).unwrap_err();
        let plane = PlaneEngine::new().retrieve(&cb, &request).unwrap_err();
        assert_eq!(naive, plane);
    }

    #[test]
    fn generation_bump_recompiles_exactly_once() {
        let mut cb = paper::table1_case_base();
        let request = paper::table1_request().unwrap();
        let mut fast = PlaneEngine::new();
        fast.retrieve(&cb, &request).unwrap();
        fast.retrieve(&cb, &request).unwrap();
        assert_eq!(fast.recompiles(), 1, "stable generation reuses the plane");
        cb.evict_variant(paper::FIR_EQUALIZER, paper::IMPL_GP).unwrap();
        let after = fast.retrieve(&cb, &request).unwrap();
        assert_eq!(fast.recompiles(), 2, "mutation invalidates the plane");
        assert_eq!(after.evaluated, 2);
        assert_eq!(fast.compiled_generation(), Some(cb.generation()));
    }

    #[test]
    fn a_mutation_recompiles_only_its_own_type_plane() {
        let mut cb = paper::table1_case_base();
        let fir = paper::table1_request().unwrap();
        let mut fast = PlaneEngine::new();
        fast.retrieve(&cb, &fir).unwrap();
        assert_eq!(fast.types_recompiled(), cb.type_count() as u64);
        let fft_before = fast.plane(&cb).type_plane(paper::FFT_1D).unwrap().clone();
        cb.evict_variant(paper::FIR_EQUALIZER, paper::IMPL_GP).unwrap();
        let after = fast.retrieve(&cb, &fir).unwrap();
        assert_eq!(after.best, FixedEngine::new().retrieve(&cb, &fir).unwrap().best);
        assert_eq!(fast.recompiles(), 2);
        assert_eq!(
            fast.types_recompiled(),
            cb.type_count() as u64 + 1,
            "the FFT plane is reused, not rebuilt"
        );
        assert_eq!(fast.plane(&cb).type_plane(paper::FFT_1D).unwrap(), &fft_before);
    }

    #[test]
    fn a_base_with_other_types_is_compiled_in_full() {
        // One engine serves one lineage; a base that cannot be a later
        // state of the compiled one (its type ids differ) must not be
        // patched type by type.
        let request = paper::table1_request().unwrap();
        let mut fast = PlaneEngine::new();
        fast.retrieve(&paper::table1_case_base(), &request).unwrap();
        let mut other = wide_case_base(1);
        other
            .evict_variant(TypeId::new(1).unwrap(), ImplId::new(1).unwrap())
            .unwrap();
        let wide = wide_request(&mut 3);
        let naive = FixedEngine::new().retrieve(&other, &wide).unwrap();
        assert_eq!(fast.retrieve(&other, &wide).unwrap().best, naive.best);
        assert_eq!(fast.plane(&other).type_planes().len(), 1);
    }

    #[test]
    fn scratch_stops_growing_after_warmup() {
        let cb = paper::table1_case_base();
        let request = paper::table1_request().unwrap();
        let mut fast = PlaneEngine::new();
        let mut out = Vec::new();
        for _ in 0..3 {
            fast.retrieve(&cb, &request).unwrap();
            fast.retrieve_batch_into(&cb, &[&request, &request], &mut out);
        }
        let warm = fast.scratch_grows();
        for _ in 0..100 {
            fast.retrieve(&cb, &request).unwrap();
            fast.retrieve_batch_into(&cb, &[&request, &request], &mut out);
        }
        assert_eq!(fast.scratch_grows(), warm, "steady state must not grow");
    }

    #[test]
    fn kernel_path_resolution_is_honest() {
        let auto = PlaneEngine::new();
        let scalar = PlaneEngine::with_kernel(KernelPath::ForceScalar);
        assert_eq!(scalar.kernel_path(), "scalar");
        if wide_kernel_available() {
            assert_eq!(auto.kernel_path(), "avx2");
        } else {
            assert_eq!(auto.kernel_path(), "scalar");
        }
    }

    /// Tiny deterministic generator (splitmix64) for the synthetic case
    /// base below — no dev-dependency on the workloads crate.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A case base wide enough to span several lane-steps and end in a
    /// padded one (37 variants = 2 × 16 + 5) with a mix of dense and
    /// sparse columns.
    fn wide_case_base(seed: u64) -> CaseBase {
        let mut state = seed;
        let attrs: Vec<AttrId> = (1..=4).map(|id| AttrId::new(id).unwrap()).collect();
        let bounds = BoundsTable::from_decls(
            attrs
                .iter()
                .map(|&attr| AttrDecl::new(attr, "synthetic", 0, 500).unwrap())
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let variants = (1..=37u16)
            .map(|id| {
                // Attr 1 is bound everywhere (dense); the rest are
                // present with probability ~1/2 (sparse).
                let mut bindings = Vec::new();
                for (i, &attr) in attrs.iter().enumerate() {
                    if i == 0 || splitmix(&mut state).is_multiple_of(2) {
                        #[allow(clippy::cast_possible_truncation)]
                        let value = (splitmix(&mut state) % 501) as u16;
                        bindings.push(AttrBinding::new(attr, value));
                    }
                }
                ImplVariant::new(ImplId::new(id).unwrap(), ExecutionTarget::Dsp, bindings)
                    .unwrap()
            })
            .collect();
        CaseBase::new(
            bounds,
            vec![FunctionType::new(TypeId::new(1).unwrap(), "synthetic", variants).unwrap()],
        )
        .unwrap()
    }

    fn wide_request(state: &mut u64) -> Request {
        let mut builder = Request::builder(TypeId::new(1).unwrap());
        let mut constrained = false;
        for id in 1..=4u16 {
            if !splitmix(state).is_multiple_of(4) {
                #[allow(clippy::cast_possible_truncation)]
                let value = (splitmix(state) % 501) as u16;
                #[allow(clippy::cast_precision_loss)]
                let weight = (splitmix(state) % 100) as f64 / 100.0 + 0.01;
                builder = builder.weighted_constraint(AttrId::new(id).unwrap(), value, weight);
                constrained = true;
            }
        }
        if !constrained {
            builder = builder.constraint(AttrId::new(1).unwrap(), 42);
        }
        builder.build().unwrap()
    }

    #[test]
    fn wide_and_scalar_paths_are_bit_identical() {
        // On hosts without the wide path both engines run scalar and
        // this degenerates to a self-check; on SIMD hosts it is the
        // in-crate lane-exactness proof (the workspace differential
        // harness covers the full streams).
        let cb = wide_case_base(0xDA7E_2004);
        let mut auto = PlaneEngine::new();
        let mut scalar = PlaneEngine::with_kernel(KernelPath::ForceScalar);
        let naive = FixedEngine::new();
        let mut state = 7u64;
        for _ in 0..64 {
            let request = wide_request(&mut state);
            let auto_best = auto.retrieve(&cb, &request).unwrap();
            let scalar_best = scalar.retrieve(&cb, &request).unwrap();
            let naive_best = naive.retrieve(&cb, &request).unwrap();
            assert_eq!(auto_best.best, scalar_best.best, "paths must be bit-identical");
            assert_eq!(auto_best.best, naive_best.best, "plane must match naive");
            assert_eq!(auto_best.ops, scalar_best.ops, "cost model is path-independent");
            let (naive_ops, plane_ops) = (naive_best.ops, auto_best.ops);
            assert_eq!(
                (naive_ops.distances, naive_ops.multiplies),
                (plane_ops.distances, plane_ops.multiplies)
            );
            assert_eq!(
                (naive_ops.additions, naive_ops.comparisons),
                (plane_ops.additions, plane_ops.comparisons)
            );
        }
    }

    #[test]
    fn batch_matches_single_requests() {
        // A batch is a loop over the single-request path: results and
        // per-request ops must equal it on both engines.
        let cb = wide_case_base(0x0B10_C4ED);
        let mut state = 99u64;
        let pool: Vec<Request> = (0..10).map(|_| wide_request(&mut state)).collect();
        let batch: Vec<&Request> = pool.iter().collect();
        for path in [KernelPath::Auto, KernelPath::ForceScalar] {
            let mut engine = PlaneEngine::with_kernel(path);
            let batched = engine.retrieve_batch(&cb, &batch);
            assert_eq!(batched.len(), batch.len());
            for (request, result) in pool.iter().zip(&batched) {
                let single = engine.retrieve(&cb, request).unwrap();
                let batched = result.as_ref().unwrap();
                assert_eq!(single.best, batched.best, "path {path:?}");
                assert_eq!(single.evaluated, batched.evaluated);
                assert_eq!(single.ops, batched.ops, "path {path:?}");
            }
        }
    }
}
