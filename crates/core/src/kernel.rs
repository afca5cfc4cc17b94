//! Zero-allocation scoring kernels over a compiled [`RetrievalPlane`].
//!
//! The kernels score **column-major**: the outer loop walks maximal
//! same-column runs of a per-block *plan*, the inner loop streams one
//! contiguous [`AttrColumn`] accumulating into
//! per-variant `u32` rows held in a reusable [`Scratch`] arena. Because
//! the UQ1.15 accumulator of the naive engine is a plain `u32` sum of
//! per-constraint terms, clamped **once** at the end, *any* accumulation
//! order produces **bit-identical** scores to
//! [`FixedEngine::score_all`](crate::FixedEngine::score_all)'s
//! variant-outer order — the workspace differential harness
//! (`tests/plane_differential.rs`) proves it over seeded random case
//! bases, request streams and mid-stream mutations, with the wide and
//! scalar paths held to the same contract.
//!
//! Two levels of parallelism ride on that order-insensitivity:
//!
//! * **Wide lanes** — on hosts with the feature (runtime-detected, never
//!   compiled in on foreign targets beyond the `std::arch` gate), the
//!   `wide` submodule streams columns 8 variants per lane-step with AVX2
//!   `u32` lanes replicating the scalar UQ1.15 datapath exactly. Columns
//!   are physically padded to [`COLUMN_PAD`](crate::plane::COLUMN_PAD)
//!   rows so tails need no masking; padded lanes either read *absent*
//!   (sparse) or accumulate into padded rows no reduction ever reads
//!   (dense).
//! * **Register blocking** — the batch path scores up to `BLOCK` (4)
//!   same-type requests per column pass: each (hot, cache-resident)
//!   column load is amortized across every request in the block, the
//!   software analogue of the paper's hardware scoring several parked
//!   requests per case-memory sweep.
//!
//! Steady-state calls allocate nothing: every intermediate lives in the
//! caller-owned [`Scratch`] (sized on first use, reused after), the fused
//! top-1 reduction never materializes a score vector, and the `*_into`
//! variants write rankings and batch results into caller-owned buffers.
//!
//! [`PlaneEngine`] is the drop-in facade: it owns a plane + scratch pair,
//! recompiles a type plane whenever that type's stamp
//! ([`CaseBase::type_stamp`]) moves, and mirrors the
//! [`FixedEngine`](crate::FixedEngine) entry points. Path selection is a
//! construction-time knob ([`KernelPath`]):
//! [`KernelPath::Auto`] resolves to the widest detected path,
//! [`KernelPath::ForceScalar`] pins the scalar loops (the benchmark A/B
//! and the fallback-honesty CI lane use this). The cost model of the
//! [`OpCounts`] it reports is documented in `docs/retrieval.md` and is
//! **path-independent** (arithmetic counters are identical to the naive
//! path; `search_steps` counts per-constraint column resolutions instead
//! of attribute-list walk steps).

use core::borrow::Borrow;

use rqfa_fixed::Q15;

use crate::casebase::CaseBase;
use crate::engine::{OpCounts, Retrieval, ScoreResult, Scored};
use crate::error::CoreError;
use crate::generation::Generation;
use crate::nbest::NBest;
use crate::plane::{AttrColumn, RetrievalPlane, TypePlane};
use crate::request::Request;
use crate::similarity::local_q15;

#[cfg(target_arch = "x86_64")]
mod wide;

/// Sentinel for a constraint whose attribute no variant of the type binds
/// (it contributes `s_i = 0` to every variant).
const NO_COLUMN: u32 = u32::MAX;

/// Rows per register block on the batch path: each same-type leader group
/// is scored in blocks of up to this many requests per column pass.
const BLOCK: usize = 4;

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

/// One pre-resolved request constraint: the request shape's constants,
/// looked up once per request instead of once per variant.
#[derive(Debug, Clone, Copy)]
struct ResolvedConstraint {
    /// Requested value in domain units.
    value: u16,
    /// UQ1.15 weight word from the request list.
    weight: Q15,
    /// Pre-resolved `1/(1 + d_max)` from the plane's reciprocal table.
    recip: Q15,
    /// Column index within the [`TypePlane`], or [`NO_COLUMN`].
    column: u32,
}

/// One planned (request-row × column) streaming step of a register
/// block: everything the inner loops need, free of request lifetimes.
/// Whole-column misses ([`NO_COLUMN`]) never enter a plan — they touch
/// no accumulator.
#[derive(Debug, Clone, Copy)]
struct PlanEntry {
    /// Column index within the [`TypePlane`].
    column: u32,
    /// Accumulator row of this entry's request within the block.
    row: u32,
    /// Requested value in domain units.
    value: u16,
    /// UQ1.15 weight word from the request list.
    weight: Q15,
    /// Pre-resolved `1/(1 + d_max)`.
    recip: Q15,
}

/// Reusable scratch arena of the scoring kernels.
///
/// Own one per worker/thread and pass it to every kernel call: after the
/// first few requests size the buffers, steady-state scoring performs no
/// heap allocation (the [`Scratch::grows`] counter and the workspace
/// counting-allocator test both verify this).
#[derive(Debug, Default)]
pub struct Scratch {
    /// Per-variant UQ1.15 accumulators (`Σ raw(s_i·w_i)`, clamped late);
    /// on the batch path, [`BLOCK`] rows of padded stride.
    acc: Vec<u32>,
    /// Pre-resolved constraints of the request being scored.
    resolved: Vec<ResolvedConstraint>,
    /// The block plan: planned streaming steps, sorted by (column, row).
    plan: Vec<PlanEntry>,
    /// Index buffer for ranking (top-k) and batch grouping.
    order: Vec<u32>,
    /// Buffer reallocation events (capacity growth), for scratch-reuse
    /// assertions.
    grows: u64,
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

    /// Clears `acc` to `n` zeroed rows, tracking capacity growth.
    fn reset_rows(&mut self, n: usize) {
        if self.acc.capacity() < n {
            self.grows += 1;
        }
        self.acc.clear();
        self.acc.resize(n, 0);
    }

    /// Clears `resolved`, tracking capacity growth.
    fn reset_constraints(&mut self, n: usize) {
        if self.resolved.capacity() < n {
            self.grows += 1;
        }
        self.resolved.clear();
    }

    /// Clears `order`, tracking capacity growth.
    fn reset_order(&mut self, n: usize) {
        if self.order.capacity() < n {
            self.grows += 1;
        }
        self.order.clear();
    }
}

/// Resolves the request's constraints against the plane: reciprocal from
/// the flat table, column index by binary search. One `search_steps` per
/// constraint — the whole per-request "setup" the compiled plane leaves.
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
    scratch.reset_constraints(request.constraints().len());
    for c in request.constraints() {
        let recip = plane
            .recip(c.attr)
            .ok_or(CoreError::UndeclaredAttr { attr: c.attr })?;
        ops.search_steps += 1;
        let column = match ty.column_index(c.attr) {
            Some(index) => u32::try_from(index).expect("u16-id attr space"),
            None => NO_COLUMN,
        };
        scratch.resolved.push(ResolvedConstraint {
            value: c.value,
            weight: c.weight_q15,
            recip,
            column,
        });
    }
    Ok(())
}

/// Charges the modeled per-column cost of one resolved constraint. The
/// model is analytic and **path-independent**: wide lanes, register
/// blocking and the scalar loops all perform the same modeled datapath
/// arithmetic, so the counters stay bit-identical to the naive engine
/// no matter how lanes are packed (see `docs/retrieval.md`).
fn charge(ty: &TypePlane, rc: &ResolvedConstraint, ops: &mut OpCounts) {
    let rows = ty.variant_count() as u64;
    if rc.column == NO_COLUMN {
        // s_i = 0 for every variant: the accumulator is unchanged, only
        // the s_i·w_i multiply/accumulate cost is paid.
        ops.multiplies += rows;
        ops.additions += rows;
        return;
    }
    let column = &ty.columns()[rc.column as usize];
    if column.is_dense() {
        ops.distances += rows;
        ops.multiplies += 2 * rows;
        ops.additions += 2 * rows;
    } else {
        let present = column.present_count() as u64;
        ops.distances += present;
        ops.multiplies += rows + present;
        ops.additions += rows + present;
    }
}

/// Appends the resolved constraints (minus whole-column misses) to the
/// block plan, tagged with the request's accumulator `row`.
fn plan_row(scratch: &mut Scratch, row: u32) {
    let Scratch {
        resolved,
        plan,
        grows,
        ..
    } = scratch;
    let needed = plan.len() + resolved.len();
    if plan.capacity() < needed {
        *grows += 1;
    }
    plan.extend(
        resolved
            .iter()
            .filter(|rc| rc.column != NO_COLUMN)
            .map(|rc| PlanEntry {
                column: rc.column,
                row,
                value: rc.value,
                weight: rc.weight,
                recip: rc.recip,
            }),
    );
}

/// Scalar streaming of one planned constraint over its column into one
/// accumulator row (`acc.len() == stride ≥ variant_count`): the exact
/// per-slot arithmetic of the naive engine. Missing bindings (sparse
/// holes) contribute `s_i = 0` exactly as the naive engine's failed
/// `resumable_find` does.
fn stream_scalar(column: &AttrColumn, entry: &PlanEntry, acc: &mut [u32]) {
    if column.is_dense() {
        for (slot, &value) in acc.iter_mut().zip(column.values()) {
            let si = local_q15(entry.value, value, entry.recip);
            *slot += u32::from(si.mul_trunc(entry.weight).raw());
        }
    } else {
        let values = column.values();
        for (word_index, &word) in column.present_words().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let index = word_index * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let si = local_q15(entry.value, values[index], entry.recip);
                acc[index] += u32::from(si.mul_trunc(entry.weight).raw());
            }
        }
    }
}

/// Streams a `(column, row)`-sorted block plan: the outer loop walks
/// maximal same-column runs, the inner loops revisit the (hot) column
/// once per planned row — register blocking that amortizes each column
/// load across every request in the block. Dispatches each run to the
/// engine's resolved path.
#[allow(unsafe_code)] // the one dispatch into the runtime-detected wide path
fn accumulate_block(
    ty: &TypePlane,
    plan: &[PlanEntry],
    acc: &mut [u32],
    stride: usize,
    path: ActivePath,
) {
    let mut start = 0usize;
    while start < plan.len() {
        let column_index = plan[start].column;
        let end = plan[start..]
            .iter()
            .position(|e| e.column != column_index)
            .map_or(plan.len(), |offset| start + offset);
        let column = &ty.columns()[column_index as usize];
        let run = &plan[start..end];
        match path {
            ActivePath::Scalar => {
                for entry in run {
                    let base = entry.row as usize * stride;
                    stream_scalar(column, entry, &mut acc[base..base + stride]);
                }
            }
            #[cfg(target_arch = "x86_64")]
            ActivePath::Avx2 => {
                // SAFETY: `ActivePath::Avx2` is only constructed after
                // `wide::available()` observed AVX2 at runtime, and the
                // callers size `acc` to `(max row + 1) × stride` with
                // `stride == ty.padded_len()` — exactly the bounds
                // `wide::stream_avx2` documents.
                unsafe { wide::stream_avx2(column, run, acc, stride) };
            }
        }
        start = end;
    }
}

/// Resolves, plans and accumulates one request into row 0 of the scratch
/// accumulators (padded stride). On return `scratch.acc[..variant_count]`
/// holds the unclamped sums and `ops` carries resolution + datapath cost.
fn score_request(
    plane: &RetrievalPlane,
    ty: &TypePlane,
    request: &Request,
    scratch: &mut Scratch,
    path: ActivePath,
    ops: &mut OpCounts,
) -> Result<(), CoreError> {
    resolve(plane, ty, request, scratch, ops)?;
    for rc in &scratch.resolved {
        charge(ty, rc, ops);
    }
    scratch.plan.clear();
    plan_row(scratch, 0);
    let stride = ty.padded_len();
    scratch.reset_rows(stride);
    let Scratch { acc, plan, .. } = scratch;
    plan.sort_unstable_by_key(|e| (e.column, e.row));
    accumulate_block(ty, plan, acc, stride, path);
    Ok(())
}

/// Final clamp of one accumulator slot, identical to the naive engine:
/// `Σ(s_i·w_i) ≤ Σ w_i = 0x8000`, saturated defensively anyway.
#[inline]
fn clamp(acc: u32) -> Q15 {
    #[allow(clippy::cast_possible_truncation)]
    Q15::saturating_from_raw(acc.min(u32::from(Q15::ONE.raw())) as u16)
}

/// Fused top-1 reduction over one **unpadded** accumulator row
/// (`acc.len() == variant_count`): clamp + first-achieving-max
/// (strict-`>` update) in one pass, never materializing a score vector.
fn reduce_top1(ty: &TypePlane, acc: &[u32], ops: &mut OpCounts) -> Option<Scored<Q15>> {
    let mut best: Option<(usize, Q15)> = None;
    for (index, &sum) in acc.iter().enumerate() {
        let similarity = clamp(sum);
        ops.comparisons += 1;
        match best {
            None => best = Some((index, similarity)),
            Some((_, b)) if similarity > b => best = Some((index, similarity)),
            _ => {}
        }
    }
    best.map(|(index, similarity)| Scored {
        impl_id: ty.impl_ids()[index],
        target: ty.targets()[index],
        similarity,
    })
}

/// Scores one request against one type plane and fuses the top-1
/// reduction.
fn score_top1(
    plane: &RetrievalPlane,
    ty: &TypePlane,
    request: &Request,
    scratch: &mut Scratch,
    path: ActivePath,
) -> Result<Retrieval<Q15>, CoreError> {
    let mut ops = OpCounts::default();
    score_request(plane, ty, request, scratch, path, &mut ops)?;
    let best = reduce_top1(ty, &scratch.acc[..ty.variant_count()], &mut ops);
    Ok(Retrieval {
        best,
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
/// bit-identical to the naive engine — scores, winner/tie selection,
/// n-best order and error values — on **every** kernel path; only [`OpCounts::search_steps`]
/// follows the plane cost model (see `docs/retrieval.md`).
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
        let ty = plane
            .type_plane(request.type_id())
            .ok_or(CoreError::UnknownType {
                type_id: request.type_id(),
            })?;
        score_top1(plane, ty, request, &mut self.scratch, self.active)
    }

    /// Plane-kernel equivalent of [`FixedEngine::retrieve_batch`](crate::FixedEngine::retrieve_batch),
    /// writing per-item results into the caller-owned `out` (cleared
    /// first, answers in input order). The batch is grouped by function
    /// type, and each same-type group is scored in register blocks of up
    /// to `BLOCK` (4) requests per column pass — the software analogue of
    /// the hardware streaming a same-function burst over a parked
    /// level-0 pointer, now serving several requests per sweep.
    /// `requests` is anything that lends out a [`Request`] per item, so
    /// a caller's own batch records need no side vector of references.
    pub fn retrieve_batch_into<R: Borrow<Request>>(
        &mut self,
        case_base: &CaseBase,
        requests: &[R],
        out: &mut Vec<Result<Retrieval<Q15>, CoreError>>,
    ) {
        let at = |i: u32| -> &Request { requests[i as usize].borrow() };
        self.ensure(case_base);
        // Group indices by type id (stable: ties keep input order) using
        // the scratch index buffer.
        self.scratch.reset_order(requests.len());
        let order = &mut self.scratch.order;
        order.extend(0..u32::try_from(requests.len()).expect("batch fits u32"));
        order.sort_unstable_by_key(|&i| (at(i).type_id(), i));
        out.clear();
        out.extend(requests.iter().map(|r| {
            Err(CoreError::UnknownType {
                type_id: r.borrow().type_id(),
            })
        }));
        let plane = self.plane.as_ref().expect("just ensured");
        // Temporarily move the order buffer out so `scratch` can be
        // borrowed mutably by the per-block kernels.
        let order = std::mem::take(&mut self.scratch.order);
        let mut cursor = 0usize;
        while cursor < order.len() {
            let type_id = at(order[cursor]).type_id();
            let group_end = order[cursor..]
                .iter()
                .position(|&i| at(i).type_id() != type_id)
                .map_or(order.len(), |offset| cursor + offset);
            // One type resolution per same-type group; the group streams
            // through in register blocks.
            if let Some(ty) = plane.type_plane(type_id) {
                let stride = ty.padded_len();
                let variants = ty.variant_count();
                for chunk in order[cursor..group_end].chunks(BLOCK) {
                    // Plan the whole block: per-request resolution +
                    // analytic cost, then one streaming pass serves
                    // every planned row.
                    let mut ops_block = [OpCounts::default(); BLOCK];
                    let mut planned = [false; BLOCK];
                    self.scratch.plan.clear();
                    self.scratch.reset_rows(stride * chunk.len());
                    for (row, &index) in chunk.iter().enumerate() {
                        let request = at(index);
                        let mut ops = OpCounts::default();
                        match resolve(plane, ty, request, &mut self.scratch, &mut ops) {
                            Ok(()) => {
                                for rc in &self.scratch.resolved {
                                    charge(ty, rc, &mut ops);
                                }
                                plan_row(
                                    &mut self.scratch,
                                    u32::try_from(row).expect("block row fits u32"),
                                );
                                ops_block[row] = ops;
                                planned[row] = true;
                            }
                            Err(error) => out[index as usize] = Err(error),
                        }
                    }
                    {
                        let Scratch { acc, plan, .. } = &mut self.scratch;
                        plan.sort_unstable_by_key(|e| (e.column, e.row));
                        accumulate_block(ty, plan, acc, stride, self.active);
                    }
                    for (row, &index) in chunk.iter().enumerate() {
                        if !planned[row] {
                            continue;
                        }
                        let mut ops = ops_block[row];
                        let base = row * stride;
                        let best =
                            reduce_top1(ty, &self.scratch.acc[base..base + variants], &mut ops);
                        out[index as usize] = Ok(Retrieval {
                            best,
                            evaluated: variants,
                            ops,
                        });
                    }
                }
            }
            cursor = group_end;
        }
        self.scratch.order = order;
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

    /// Plane-kernel equivalent of [`FixedEngine::retrieve_n_best`](crate::FixedEngine::retrieve_n_best),
    /// writing the ranked list into the caller-owned `ranked` buffer
    /// (cleared first; descending similarity, ties broken by tree order,
    /// truncated to `n`). Returns `(evaluated, ops)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FixedEngine::score_all`](crate::FixedEngine::score_all).
    pub fn retrieve_n_best_into(
        &mut self,
        case_base: &CaseBase,
        request: &Request,
        n: usize,
        ranked: &mut Vec<Scored<Q15>>,
    ) -> Result<(usize, OpCounts), CoreError> {
        self.ensure(case_base);
        let plane = self.plane.as_ref().expect("just ensured");
        let ty = plane
            .type_plane(request.type_id())
            .ok_or(CoreError::UnknownType {
                type_id: request.type_id(),
            })?;
        let mut ops = OpCounts::default();
        score_request(plane, ty, request, &mut self.scratch, self.active, &mut ops)?;
        let variants = ty.variant_count();
        // Clamp in place, then rank indices: descending similarity with
        // ascending-index tie-break — exactly `nbest::rank`. Padded
        // accumulator rows stay untouched and unread.
        for acc in &mut self.scratch.acc[..variants] {
            *acc = u32::from(clamp(*acc).raw());
        }
        ops.comparisons += variants as u64;
        self.scratch.reset_order(variants);
        self.scratch
            .order
            .extend(0..u32::try_from(variants).expect("u16-id variant space"));
        let acc = &self.scratch.acc;
        self.scratch
            .order
            .sort_unstable_by_key(|&i| (std::cmp::Reverse(acc[i as usize]), i));
        ranked.clear();
        ranked.extend(self.scratch.order.iter().take(n).map(|&i| {
            let index = i as usize;
            Scored {
                impl_id: ty.impl_ids()[index],
                target: ty.targets()[index],
                #[allow(clippy::cast_possible_truncation)]
                similarity: Q15::saturating_from_raw(acc[index] as u16),
            }
        }));
        Ok((variants, ops))
    }

    /// Allocating convenience wrapper over
    /// [`PlaneEngine::retrieve_n_best_into`], mirroring
    /// [`FixedEngine::retrieve_n_best`](crate::FixedEngine::retrieve_n_best).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FixedEngine::score_all`](crate::FixedEngine::score_all).
    pub fn retrieve_n_best(
        &mut self,
        case_base: &CaseBase,
        request: &Request,
        n: usize,
    ) -> Result<NBest<Q15>, CoreError> {
        let mut ranked = Vec::new();
        let (evaluated, ops) = self.retrieve_n_best_into(case_base, request, n, &mut ranked)?;
        Ok(NBest {
            ranked,
            evaluated,
            ops,
        })
    }

    /// Materializes the full score vector (the "unless asked" escape
    /// hatch, and the differential harness's comparison point against
    /// [`FixedEngine::score_all`](crate::FixedEngine::score_all)).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FixedEngine::score_all`](crate::FixedEngine::score_all).
    pub fn score_all(
        &mut self,
        case_base: &CaseBase,
        request: &Request,
    ) -> Result<(Vec<Scored<Q15>>, OpCounts), CoreError> {
        self.ensure(case_base);
        let plane = self.plane.as_ref().expect("just ensured");
        let ty = plane
            .type_plane(request.type_id())
            .ok_or(CoreError::UnknownType {
                type_id: request.type_id(),
            })?;
        let mut ops = OpCounts::default();
        score_request(plane, ty, request, &mut self.scratch, self.active, &mut ops)?;
        ops.comparisons += ty.variant_count() as u64;
        let scores = self.scratch.acc[..ty.variant_count()]
            .iter()
            .enumerate()
            .map(|(index, &acc)| Scored {
                impl_id: ty.impl_ids()[index],
                target: ty.targets()[index],
                similarity: clamp(acc),
            })
            .collect();
        Ok((scores, ops))
    }

    /// Plane-kernel equivalent of [`FixedEngine::score_batch`](crate::FixedEngine::score_batch): full
    /// score vectors in input order. Each request resolves its type
    /// plane independently (a binary search over the compiled plane —
    /// there is no per-group state left to amortize on the
    /// full-vector path; the fused top-1 batch path is
    /// [`PlaneEngine::retrieve_batch_into`]).
    pub fn score_batch(&mut self, case_base: &CaseBase, requests: &[&Request]) -> Vec<ScoreResult> {
        requests
            .iter()
            .map(|request| self.score_all(case_base, request))
            .collect()
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
        let naive = FixedEngine::new();
        let mut fast = PlaneEngine::new();
        let (naive_scores, naive_ops) = naive.score_all(&cb, &request).unwrap();
        let (plane_scores, plane_ops) = fast.score_all(&cb, &request).unwrap();
        assert_eq!(naive_scores, plane_scores, "bit-identical score vectors");
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
    fn n_best_matches_naive_ranking() {
        let cb = paper::table1_case_base();
        let request = paper::table1_request().unwrap();
        let mut fast = PlaneEngine::new();
        for n in 0..5 {
            let naive = FixedEngine::new()
                .retrieve_n_best(&cb, &request, n)
                .unwrap();
            let plane = fast.retrieve_n_best(&cb, &request, n).unwrap();
            assert_eq!(naive.ranked, plane.ranked, "n = {n}");
            assert_eq!(naive.evaluated, plane.evaluated);
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
        let naive = FixedEngine::new().score_all(&cb, &request).unwrap_err();
        let plane = PlaneEngine::new().score_all(&cb, &request).unwrap_err();
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
        let mut ranked = Vec::new();
        for _ in 0..3 {
            fast.retrieve(&cb, &request).unwrap();
            fast.retrieve_batch_into(&cb, &[&request, &request], &mut out);
            fast.retrieve_n_best_into(&cb, &request, 2, &mut ranked).unwrap();
        }
        let warm = fast.scratch_grows();
        for _ in 0..100 {
            fast.retrieve(&cb, &request).unwrap();
            fast.retrieve_batch_into(&cb, &[&request, &request], &mut out);
            fast.retrieve_n_best_into(&cb, &request, 2, &mut ranked).unwrap();
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

    /// A case base wide enough to span several 8-lane steps (37 variants
    /// > 2 × 16-row pads) with a mix of dense and sparse columns.
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
            let (auto_scores, auto_ops) = auto.score_all(&cb, &request).unwrap();
            let (scalar_scores, scalar_ops) = scalar.score_all(&cb, &request).unwrap();
            let (naive_scores, _) = naive.score_all(&cb, &request).unwrap();
            assert_eq!(auto_scores, scalar_scores, "paths must be bit-identical");
            assert_eq!(auto_scores, naive_scores, "plane must match naive");
            assert_eq!(auto_ops, scalar_ops, "cost model is path-independent");
            let auto_best = auto.retrieve(&cb, &request).unwrap();
            let scalar_best = scalar.retrieve(&cb, &request).unwrap();
            assert_eq!(auto_best.best, scalar_best.best);
            assert_eq!(auto_best.ops, scalar_best.ops);
            let auto_nb = auto.retrieve_n_best(&cb, &request, 5).unwrap();
            let scalar_nb = scalar.retrieve_n_best(&cb, &request, 5).unwrap();
            assert_eq!(auto_nb.ranked, scalar_nb.ranked);
        }
    }

    #[test]
    fn blocked_batch_matches_single_requests() {
        // Ten same-type requests exercise multi-chunk register blocking
        // (ceil(10 / BLOCK) = 3 blocks); results and per-request ops
        // must equal the one-at-a-time path on both engines.
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
