//! The compiled **retrieval plane**: presorted, step-major images of the
//! case base, kept current one function type at a time.
//!
//! The paper's hardware unit owes its speed to *precompiled memory
//! layout*: the implementation tree is serialized at design time into
//! presorted linear lists, so a burst of same-function requests streams
//! over a parked level-0 pointer with no per-request setup. The naive
//! software path ([`crate::FixedEngine::score_all`]) re-pays that setup on
//! every request — a heap allocation for the reciprocal table, another
//! for the score vector, and a per-variant `resumable_find` walk over the
//! attribute list.
//!
//! A [`RetrievalPlane`] is the software analogue of the design-time
//! tool flow, applied at run time and invalidated per function type by
//! the case base's type stamps ([`CaseBase::type_stamp`]):
//!
//! * per function type, its **columns**: the attributes its variants
//!   bind, ascending, each with the number of variants that bind it (what
//!   the cost model charges a constraint for, and the length of a copy's
//!   keyed head);
//! * per column, one **presorted copy** of the whole type: every column's
//!   `u16` values and presence, rows ordered by that column's value, laid
//!   out one 16-row lane-step after the other — the presorted lists the
//!   top-1 walk of [`crate::kernel`] starts from the request's value in;
//! * a flat, sorted **reciprocal table** (`attr → 1/(1+d_max)` in
//!   UQ1.15, plus the distance `d_cap` at which `d · recip` saturates —
//!   the constant that lets the wide kernel multiply in 16 bits),
//!   pre-resolved from the bounds table so a request shape resolves its
//!   constants with binary searches over a dense slice instead of
//!   `BTreeMap` pointer chasing;
//! * variant identity columns (`ImplId`, [`ExecutionTarget`]) in tree
//!   order, so winner selection keeps the exact decision semantics of the
//!   naive engines.
//!
//! The plane stores *copies* of the `u16` payloads (a few bytes per
//! attribute binding), never references — it stays valid while the case
//! base mutates, and a mutation costs the recompile of the one type plane
//! whose stamp it moved; the reciprocal table images the bounds table,
//! which no mutation changes.
//! The scoring kernels that run over a plane live in [`crate::kernel`];
//! the normative hot-path model is `docs/retrieval.md`.

use crate::bounds::BoundsTable;
use crate::casebase::{CaseBase, FunctionType};
use crate::generation::Generation;
use crate::ids::{AttrId, ImplId, TypeId};
use crate::implvariant::ExecutionTarget;
use rqfa_fixed::Q15;

/// The sorted copies are padded to a multiple of this many rows (value
/// 0, bound by no column), so the kernels score whole lane-steps: 16 is
/// the wide path's lane width (one 256-bit register of `u16` lanes) and
/// the unit the top-1 walk scores or skips. A padded row binds nothing,
/// so every term of it is masked to 0 and it never wins.
pub const COLUMN_PAD: usize = 16;

/// Rounds a variant count up to a whole number of lane-steps (a multiple
/// of [`COLUMN_PAD`]) — the row count of a padded sorted copy.
pub const fn padded_rows(variants: usize) -> usize {
    variants.div_ceil(COLUMN_PAD) * COLUMN_PAD
}

/// The compiled image of one function type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypePlane {
    type_id: TypeId,
    impl_ids: Vec<ImplId>,
    targets: Vec<ExecutionTarget>,
    /// `(attribute, variants binding it)` per column, sorted by ascending
    /// [`AttrId`] (the union of all variants' attributes).
    columns: Vec<(AttrId, usize)>,
    /// One copy of the plane presorted by each column.
    sorted: SortedCopies,
}

impl TypePlane {
    /// Compiles the image of `ty`.
    fn compile(ty: &FunctionType) -> TypePlane {
        let variants = ty.variants();
        let n = variants.len();
        let impl_ids = variants.iter().map(crate::implvariant::ImplVariant::id).collect();
        let targets = variants
            .iter()
            .map(crate::implvariant::ImplVariant::target)
            .collect();
        // The union of bound attributes. Variant attribute lists are
        // sorted, so a merge over a sorted accumulator stays cheap.
        let mut attrs: Vec<AttrId> = Vec::new();
        for variant in variants {
            for binding in variant.attrs() {
                if let Err(pos) = attrs.binary_search(&binding.attr) {
                    attrs.insert(pos, binding.attr);
                }
            }
        }
        // The bindings row-major, `(value, bound)` per cell: what a sorted
        // copy gathers one row at a time.
        let width = attrs.len();
        let mut columns: Vec<(AttrId, usize)> = attrs.into_iter().map(|attr| (attr, 0)).collect();
        let mut image = vec![(0, false); n * width];
        for (index, variant) in variants.iter().enumerate() {
            for binding in variant.attrs() {
                let pos = columns
                    .binary_search_by_key(&binding.attr, |&(attr, _)| attr)
                    .expect("column exists for every bound attribute");
                columns[pos].1 += 1;
                image[index * width + pos] = (binding.value, true);
            }
        }
        let sorted = SortedCopies::compile(&columns, &image, n);
        TypePlane {
            type_id: ty.id(),
            impl_ids,
            targets,
            columns,
            sorted,
        }
    }

    /// The function type this plane images.
    pub fn type_id(&self) -> TypeId {
        self.type_id
    }

    /// Number of variants (rows).
    pub fn variant_count(&self) -> usize {
        self.impl_ids.len()
    }

    /// The row count of this plane's sorted copies (the variant count
    /// rounded up to a multiple of [`COLUMN_PAD`]).
    pub fn padded_len(&self) -> usize {
        padded_rows(self.impl_ids.len())
    }

    /// Variant ids in tree order.
    pub fn impl_ids(&self) -> &[ImplId] {
        &self.impl_ids
    }

    /// Variant execution targets in tree order.
    pub fn targets(&self) -> &[ExecutionTarget] {
        &self.targets
    }

    /// `(attribute, variants binding it)` per column, sorted by ascending
    /// [`AttrId`].
    pub fn columns(&self) -> &[(AttrId, usize)] {
        &self.columns
    }

    /// Index of the column for `attr`, if any variant binds it.
    pub fn column_index(&self, attr: AttrId) -> Option<usize> {
        self.columns.binary_search_by_key(&attr, |&(a, _)| a).ok()
    }

    /// The copy of this plane presorted by column `pivot`.
    pub(crate) fn sorted(&self, pivot: usize) -> SortedCopy<'_> {
        let (width, steps) = (self.columns.len(), self.padded_len() / COLUMN_PAD);
        let chunks = steps * width;
        let bound_steps = self.columns[pivot].1.div_ceil(COLUMN_PAD);
        SortedCopy {
            width,
            values: &self.sorted.values[pivot * chunks..][..chunks],
            present: &self.sorted.present[pivot * chunks..][..chunks],
            rows: &self.sorted.rows[pivot * steps..][..steps],
            keys: &self.sorted.keys[pivot * steps..][..bound_steps],
        }
    }
}

/// Every presorted copy of one type plane, one per column, each in one
/// buffer per field: copy `k` is the `k`-th run of `steps · width`
/// chunks, `steps` rows and `steps` keys.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SortedCopies {
    values: Vec<[u16; COLUMN_PAD]>,
    present: Vec<u16>,
    rows: Vec<[u16; COLUMN_PAD]>,
    keys: Vec<[u16; 2]>,
}

impl SortedCopies {
    /// Sorts the `n` rows of `columns` by each column in turn. `image`
    /// holds row `r`'s `(value, bound)` of column `j` at `r · width + j`.
    fn compile(columns: &[(AttrId, usize)], image: &[(u16, bool)], n: usize) -> SortedCopies {
        let (width, steps) = (columns.len(), n.div_ceil(COLUMN_PAD));
        let chunks = steps * width;
        let mut copies = SortedCopies {
            values: vec![[0; COLUMN_PAD]; width * chunks],
            present: vec![0; width * chunks],
            rows: vec![[u16::MAX; COLUMN_PAD]; width * steps],
            keys: vec![[0; 2]; width * steps],
        };
        let mut order = Vec::with_capacity(n);
        for (k, &(_, bound)) in columns.iter().enumerate() {
            let pivot = |row: usize| image[row * width + k];
            // One packed key per row: (absent, value, tree index). A tree
            // index fits 16 bits and is never `0xFFFF`, the padding mark:
            // a type holds at most 65 535 variants, one per `ImplId` word.
            order.clear();
            order.extend((0..n).map(|index| {
                let (value, present) = pivot(index);
                u64::from(!present) << 32 | u64::from(value) << 16 | index as u64
            }));
            order.sort_unstable();
            let values = &mut copies.values[k * chunks..][..chunks];
            let present = &mut copies.present[k * chunks..][..chunks];
            let rows = &mut copies.rows[k * steps..][..steps];
            for (position, &key) in order.iter().enumerate() {
                let row = u16::try_from(key & 0xFFFF).expect("masked to 16 bits");
                let (step, lane) = (position / COLUMN_PAD, position % COLUMN_PAD);
                rows[step][lane] = row;
                let cells = &image[usize::from(row) * width..][..width];
                let at = step * width..(step + 1) * width;
                for ((chunk, mask), &(value, bound)) in values[at.clone()]
                    .iter_mut()
                    .zip(&mut present[at])
                    .zip(cells)
                {
                    chunk[lane] = value;
                    *mask |= u16::from(bound) << lane;
                }
            }
            let keys = &mut copies.keys[k * steps..];
            for (step, key) in keys.iter_mut().take(bound.div_ceil(COLUMN_PAD)).enumerate() {
                let first = step * COLUMN_PAD;
                let last = (first + COLUMN_PAD).min(bound) - 1;
                *key = [first, last].map(|position| {
                    pivot(usize::from(rows[position / COLUMN_PAD][position % COLUMN_PAD])).0
                });
            }
        }
        copies
    }
}

/// A type plane presorted by one of its columns, the *pivot*: every
/// column of the type, with the rows that bind the pivot first, by
/// ascending pivot value, then the rows that do not; ties keep tree
/// order. The copy is laid out step-major — a lane-step's 16 values of
/// every column sit together — so scoring one step reads one contiguous
/// block, and it is padded to whole steps with rows that bind nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SortedCopy<'p> {
    /// Columns per step (the type's column count).
    width: usize,
    /// Lane-step `s` of column `j` is chunk `s · width + j`; unbound
    /// slots and padded rows hold 0.
    values: &'p [[u16; COLUMN_PAD]],
    /// Which lanes of that chunk bind column `j` (lane `l` = bit `l`).
    present: &'p [u16],
    /// The tree index of each row, one chunk per step; `u16::MAX` for
    /// padded rows.
    rows: &'p [[u16; COLUMN_PAD]],
    /// The `[first, last]` pivot value of each step that holds a row
    /// binding the pivot, over those rows only. The steps past them bind
    /// no pivot at all.
    keys: &'p [[u16; 2]],
}

impl<'p> SortedCopy<'p> {
    /// Number of lane-steps.
    pub(crate) fn steps(&self) -> usize {
        self.rows.len()
    }

    /// Lane-step `step` of column `column`: its 16 values and which of
    /// them bind the column.
    #[inline]
    pub(crate) fn step(&self, column: usize, step: usize) -> (&'p [u16; COLUMN_PAD], u16) {
        let chunk = step * self.width + column;
        (&self.values[chunk], self.present[chunk])
    }

    /// The tree indices of lane-step `step`'s rows (`u16::MAX`: padding).
    #[inline]
    pub(crate) fn rows(&self, step: usize) -> &'p [u16; COLUMN_PAD] {
        &self.rows[step]
    }

    /// The pivot key range of each step holding a row that binds the
    /// pivot; every later step binds none.
    pub(crate) fn keys(&self) -> &'p [[u16; 2]] {
        self.keys
    }
}

/// The compiled retrieval plane of a whole case base: one [`TypePlane`]
/// per function type, each remembered with the type stamp it was
/// compiled at.
///
/// ```
/// use rqfa_core::{paper, plane::RetrievalPlane};
///
/// let cb = paper::table1_case_base();
/// let plane = RetrievalPlane::compile(&cb);
/// assert_eq!(plane.generation(), cb.generation());
/// let fir = plane.type_plane(paper::FIR_EQUALIZER).unwrap();
/// assert_eq!(fir.variant_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetrievalPlane {
    generation: Generation,
    /// `(attr, 1/(1+d_max), d_cap)` for every declared attribute, sorted
    /// by id — the pre-resolved supplemental list.
    recips: Vec<(AttrId, Q15, u16)>,
    /// One plane per function type, sorted by [`TypeId`].
    types: Vec<TypePlane>,
    /// The type stamp each plane was compiled at, aligned with `types`.
    stamps: Vec<Generation>,
}

impl RetrievalPlane {
    /// Compiles the plane for `case_base` at its current generation.
    pub fn compile(case_base: &CaseBase) -> RetrievalPlane {
        RetrievalPlane {
            generation: case_base.generation(),
            recips: compile_recips(case_base.bounds()),
            types: case_base
                .function_types()
                .iter()
                .map(TypePlane::compile)
                .collect(),
            stamps: case_base.type_stamps().to_vec(),
        }
    }

    /// Brings a plane compiled from an earlier state of `case_base` up to
    /// its current one, recompiling exactly the type planes whose stamp
    /// moved, and returns how many that was. A base with a different set
    /// of type ids is not a later state of the compiled one (mutations
    /// never add or remove a type): the whole plane is compiled afresh.
    pub(crate) fn refresh(&mut self, case_base: &CaseBase) -> usize {
        let types = case_base.function_types();
        let same_types = types.len() == self.types.len()
            && types.iter().zip(&self.types).all(|(ty, plane)| ty.id() == plane.type_id);
        if !same_types {
            *self = RetrievalPlane::compile(case_base);
            return self.types.len();
        }
        let mut recompiled = 0;
        for (index, &stamp) in case_base.type_stamps().iter().enumerate() {
            if self.stamps[index] != stamp {
                self.types[index] = TypePlane::compile(&types[index]);
                self.stamps[index] = stamp;
                recompiled += 1;
            }
        }
        self.generation = case_base.generation();
        recompiled
    }

    /// The case-base generation this plane is current with. A case base
    /// whose generation differs has mutated since; the type planes whose
    /// stamp moved must be recompiled before serving it (the
    /// [`crate::kernel::PlaneEngine`] facade does this automatically).
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// The type planes, sorted by [`TypeId`].
    pub fn type_planes(&self) -> &[TypePlane] {
        &self.types
    }

    /// Looks up the plane of one function type.
    pub fn type_plane(&self, type_id: TypeId) -> Option<&TypePlane> {
        self.types
            .binary_search_by_key(&type_id, TypePlane::type_id)
            .ok()
            .map(|idx| &self.types[idx])
    }

    /// The pre-resolved reciprocal `1/(1 + d_max)` of a declared
    /// attribute — bit-identical to
    /// [`crate::BoundsEntry::recip`](crate::BoundsEntry).
    pub fn recip(&self, attr: AttrId) -> Option<Q15> {
        self.scale(attr).map(|(recip, _)| recip)
    }

    /// The reciprocal of a declared attribute together with its
    /// saturation distance ([`saturation_distance`]).
    pub(crate) fn scale(&self, attr: AttrId) -> Option<(Q15, u16)> {
        self.recips
            .binary_search_by_key(&attr, |&(a, _, _)| a)
            .ok()
            .map(|idx| (self.recips[idx].1, self.recips[idx].2))
    }

    /// Number of declared attributes in the reciprocal table.
    pub fn declared_attrs(&self) -> usize {
        self.recips.len()
    }
}

/// The smallest distance at which `d · recip` saturates:
/// `d_cap = ⌈0x8000 / recip⌉`, so `d ≥ d_cap ⇔ d · recip ≥ 0x8000`. A
/// kernel that clamps `d` to `d_cap` first can form the product in 16
/// bits (`d_cap · recip < 0x8000 + recip ≤ 0x10000`) and still saturate
/// exactly where [`Q15::scale_int`] does. A zero reciprocal never
/// saturates; its cap is the largest distance there is.
pub(crate) fn saturation_distance(recip: Q15) -> u16 {
    match recip.raw() {
        0 => u16::MAX,
        raw => Q15::ONE.raw().div_ceil(raw),
    }
}

/// Flattens the bounds table into the sorted reciprocal slice.
fn compile_recips(bounds: &BoundsTable) -> Vec<(AttrId, Q15, u16)> {
    bounds
        .iter()
        .map(|decl| {
            let entry = bounds
                .entry(decl.id())
                .expect("iterated declarations resolve");
            (decl.id(), entry.recip, saturation_distance(entry.recip))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn compiles_paper_case_base() {
        let cb = paper::table1_case_base();
        let plane = RetrievalPlane::compile(&cb);
        assert_eq!(plane.type_planes().len(), cb.type_count());
        let fir = plane.type_plane(paper::FIR_EQUALIZER).unwrap();
        assert_eq!(fir.variant_count(), 3);
        assert_eq!(fir.impl_ids()[1], paper::IMPL_DSP);
        // One column per bound attribute, ascending, each with the number
        // of variants that bind it.
        let ty = cb.function_type(paper::FIR_EQUALIZER).unwrap();
        let mut attrs: Vec<AttrId> = ty
            .variants()
            .iter()
            .flat_map(|variant| variant.attrs().iter().map(|binding| binding.attr))
            .collect();
        attrs.sort_unstable();
        attrs.dedup();
        let bound = |attr| ty.variants().iter().filter(|v| v.attr(attr).is_some()).count();
        let expected: Vec<(AttrId, usize)> = attrs.into_iter().map(|a| (a, bound(a))).collect();
        assert_eq!(fir.columns(), expected);
    }

    #[test]
    fn sparse_columns_track_presence() {
        let cb = paper::incomplete_attrs_case_base();
        let plane = RetrievalPlane::compile(&cb);
        let ty = plane.type_planes().first().unwrap();
        let variants = cb.function_type(ty.type_id()).unwrap().variants();
        let sparse: Vec<(AttrId, usize)> = ty
            .columns()
            .iter()
            .copied()
            .filter(|&(_, bound)| bound < ty.variant_count())
            .collect();
        assert!(!sparse.is_empty(), "fixture has a variant missing an attr");
        for (attr, bound) in sparse {
            let binding = variants.iter().filter(|v| v.attr(attr).is_some()).count();
            assert_eq!(bound, binding, "{attr:?}");
        }
    }

    #[test]
    fn recips_match_bounds_entries() {
        let cb = paper::table1_case_base();
        let plane = RetrievalPlane::compile(&cb);
        assert_eq!(plane.declared_attrs(), cb.bounds().len());
        for decl in cb.bounds().iter() {
            let entry = cb.bounds().entry(decl.id()).unwrap();
            assert_eq!(plane.recip(decl.id()), Some(entry.recip));
        }
        assert_eq!(plane.recip(AttrId::new(999).unwrap()), None);
    }

    #[test]
    fn saturation_distance_is_where_scale_int_saturates() {
        for raw in (0..=0x8000u16).step_by(7).chain([1, 2, 3, 0x7FFF, 0x8000]) {
            let recip = Q15::new(raw).unwrap();
            let d_cap = saturation_distance(recip);
            if raw == 0 {
                assert_eq!(d_cap, u16::MAX);
                continue;
            }
            assert_eq!(recip.scale_int(d_cap), Q15::ONE, "recip {raw:#x}");
            assert!(u32::from(d_cap) * u32::from(raw) <= 0xFFFF, "16-bit product");
            assert!(u32::from(d_cap - 1) * u32::from(raw) < 0x8000, "recip {raw:#x}");
        }
    }

    /// 37 variants (two whole lane-steps and five rows) over one dense
    /// and two sparse attributes, values with repeats.
    fn three_step_case_base() -> CaseBase {
        use crate::attribute::{AttrBinding, AttrDecl};
        use crate::implvariant::ImplVariant;
        let attrs: Vec<AttrId> = (1..=3).map(|raw| AttrId::new(raw).unwrap()).collect();
        let bounds = BoundsTable::from_decls(
            attrs
                .iter()
                .map(|&attr| AttrDecl::new(attr, "synthetic", 0, 40).unwrap()),
        )
        .unwrap();
        let variants = (0..37u16)
            .map(|index| {
                let bindings = attrs
                    .iter()
                    .zip(1u16..)
                    .filter(|&(_, raw)| raw == 1 || (index + raw) % 3 != 0)
                    .map(|(&attr, raw)| AttrBinding::new(attr, (index * 17 + raw * 5) % 13))
                    .collect();
                let id = ImplId::new(index + 1).unwrap();
                ImplVariant::new(id, ExecutionTarget::Dsp, bindings).unwrap()
            })
            .collect();
        let ty = FunctionType::new(TypeId::new(1).unwrap(), "synthetic", variants).unwrap();
        CaseBase::new(bounds, vec![ty]).unwrap()
    }

    #[test]
    fn sorted_copies_are_the_columns_in_pivot_order() {
        for cb in [
            paper::table1_case_base(),
            paper::tie_case_base(),
            paper::incomplete_attrs_case_base(),
            three_step_case_base(),
        ] {
            let plane = RetrievalPlane::compile(&cb);
            for ty in plane.type_planes() {
                let n = ty.variant_count();
                let variants = cb.function_type(ty.type_id()).unwrap().variants();
                // Variant `row`'s `(value, bound)` of an attribute, 0 if
                // unbound.
                let cell = |row: usize, attr| {
                    variants[row]
                        .attr(attr)
                        .map_or((0, false), |value| (value, true))
                };
                assert_eq!(ty.padded_len() % COLUMN_PAD, 0);
                assert!(ty.padded_len() >= n && ty.padded_len() < n + COLUMN_PAD);
                for (k, &(pivot, bound)) in ty.columns().iter().enumerate() {
                    let copy = ty.sorted(k);
                    assert_eq!(copy.steps() * COLUMN_PAD, ty.padded_len());
                    let order: Vec<u16> = (0..copy.steps()).flat_map(|s| *copy.rows(s)).collect();
                    // Every variant once, by (absent, value, tree index),
                    // then padding.
                    let key = |&row: &u16| {
                        let row = usize::from(row);
                        let (value, present) = cell(row, pivot);
                        (!present, value, row)
                    };
                    assert!(order[..n].windows(2).all(|w| key(&w[0]) < key(&w[1])));
                    assert!(order[n..].iter().all(|&row| row == u16::MAX));
                    for (position, &row) in order.iter().enumerate() {
                        let (step, lane) = (position / COLUMN_PAD, position % COLUMN_PAD);
                        for (j, &(attr, _)) in ty.columns().iter().enumerate() {
                            let (values, present) = copy.step(j, step);
                            let lane_cell = (values[lane], present >> lane & 1 == 1);
                            if row == u16::MAX {
                                assert_eq!(lane_cell, (0, false), "padding binds nothing");
                            } else {
                                assert_eq!(lane_cell, cell(usize::from(row), attr));
                            }
                        }
                    }
                    // One key range per step that binds the pivot.
                    let bound: Vec<u16> = order[..bound]
                        .iter()
                        .map(|&row| cell(usize::from(row), pivot).0)
                        .collect();
                    let keys: Vec<[u16; 2]> = bound
                        .chunks(COLUMN_PAD)
                        .map(|step| [step[0], step[step.len() - 1]])
                        .collect();
                    assert_eq!(copy.keys(), keys);
                }
            }
        }
    }

    #[test]
    fn generation_stamp_tracks_mutations() {
        let mut cb = paper::table1_case_base();
        let plane = RetrievalPlane::compile(&cb);
        assert_eq!(plane.generation(), cb.generation());
        cb.evict_variant(paper::FIR_EQUALIZER, paper::IMPL_GP).unwrap();
        assert_ne!(plane.generation(), cb.generation());
        let recompiled = RetrievalPlane::compile(&cb);
        assert_eq!(recompiled.generation(), cb.generation());
        let fir = recompiled.type_plane(paper::FIR_EQUALIZER).unwrap();
        assert_eq!(fir.variant_count(), 2);
    }
}
