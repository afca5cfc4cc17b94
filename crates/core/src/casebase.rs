//! The case base: a hierarchy of function types and their implementation
//! variants, plus the design-global bounds table.
//!
//! This is the in-memory form of the paper's *implementation tree*
//! (fig. 3/5): level 0 lists function types, level 1 the implementation
//! variants of each type, level 2 the attribute bindings of each variant.
//! All levels are kept sorted by id so `rqfa-memlist` can serialize them
//! directly into the presorted linear lists the hardware expects.

use core::fmt;

use crate::bounds::BoundsTable;
use crate::error::CoreError;
use crate::generation::Generation;
use crate::ids::{ImplId, TypeId};
use crate::implvariant::ImplVariant;
use crate::mutation::CaseMutation;

/// One function type (level 0 node) and its implementation variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionType {
    id: TypeId,
    name: String,
    variants: Vec<ImplVariant>,
}

impl FunctionType {
    /// Creates a function type from its variants.
    ///
    /// Variants are sorted by [`ImplId`].
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyType`] if no variants are given.
    /// * [`CoreError::DuplicateImpl`] if two variants share an id.
    pub fn new(
        id: TypeId,
        name: impl Into<String>,
        mut variants: Vec<ImplVariant>,
    ) -> Result<FunctionType, CoreError> {
        if variants.is_empty() {
            return Err(CoreError::EmptyType { type_id: id });
        }
        variants.sort_by_key(ImplVariant::id);
        for pair in variants.windows(2) {
            if pair[0].id() == pair[1].id() {
                return Err(CoreError::DuplicateImpl {
                    type_id: id,
                    impl_id: pair[1].id(),
                });
            }
        }
        Ok(FunctionType {
            id,
            name: name.into(),
            variants,
        })
    }

    /// The type identifier (`IDType`).
    pub fn id(&self) -> TypeId {
        self.id
    }

    /// Human-readable name ("FIR Equalizer", "1D-FFT", …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The implementation variants, sorted by id.
    pub fn variants(&self) -> &[ImplVariant] {
        &self.variants
    }

    /// Looks up one variant by id.
    pub fn variant(&self, id: ImplId) -> Option<&ImplVariant> {
        self.variants
            .binary_search_by_key(&id, ImplVariant::id)
            .ok()
            .map(|idx| &self.variants[idx])
    }

    /// Number of variants.
    pub fn variant_count(&self) -> usize {
        self.variants.len()
    }
}

impl fmt::Display for FunctionType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} \"{}\" ({} variants)", self.id, self.name, self.variants.len())
    }
}

/// The complete case base: bounds table + implementation tree.
///
/// Mutation happens through [`CaseBase::retain_variant`] and related methods
/// (the *retain* step of the CBR cycle, a paper future-work item); every
/// mutation bumps a generation counter and stamps the one function type it
/// touched with the new value ([`CaseBase::type_stamp`]), so caches such as
/// the bypass-token store (§3) drop exactly the results of that type.
///
/// Equality compares *content* (bounds, tree, generation). The type stamps
/// are coherence metadata: two bases that reached the same content by
/// different histories (a recovered base and the oracle it mirrors) are
/// equal.
///
/// ```
/// use rqfa_core::paper;
///
/// let cb = paper::table1_case_base();
/// assert_eq!(cb.type_count(), 2); // FIR equalizer + 1D-FFT
/// let fir = cb.function_type(paper::FIR_EQUALIZER).unwrap();
/// assert_eq!(fir.variant_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct CaseBase {
    bounds: BoundsTable,
    types: Vec<FunctionType>,
    generation: Generation,
    /// The generation at which each type was last mutated, aligned with
    /// `types`. Never above `generation`.
    type_stamps: Vec<Generation>,
}

impl PartialEq for CaseBase {
    fn eq(&self, other: &CaseBase) -> bool {
        self.bounds == other.bounds
            && self.types == other.types
            && self.generation == other.generation
    }
}

impl Eq for CaseBase {}

impl CaseBase {
    /// Creates a case base from a bounds table and function types.
    ///
    /// Types are sorted by [`TypeId`]. Every attribute used by any variant
    /// must be declared in the bounds table and every value must lie within
    /// its declared bounds — the memory image cannot represent anything
    /// else, and out-of-bounds values would break the reciprocal arithmetic.
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptyCaseBase`] with no types.
    /// * [`CoreError::DuplicateType`] on duplicate ids.
    /// * [`CoreError::UndeclaredAttr`] / [`CoreError::ValueOutOfBounds`] for
    ///   attribute violations.
    pub fn new(bounds: BoundsTable, mut types: Vec<FunctionType>) -> Result<CaseBase, CoreError> {
        if types.is_empty() {
            return Err(CoreError::EmptyCaseBase);
        }
        types.sort_by_key(FunctionType::id);
        for pair in types.windows(2) {
            if pair[0].id() == pair[1].id() {
                return Err(CoreError::DuplicateType { id: pair[1].id() });
            }
        }
        for ty in &types {
            for variant in ty.variants() {
                for binding in variant.attrs() {
                    bounds.check_value(binding.attr, binding.value)?;
                }
            }
        }
        let type_stamps = vec![Generation::GENESIS; types.len()];
        Ok(CaseBase {
            bounds,
            types,
            generation: Generation::GENESIS,
            type_stamps,
        })
    }

    /// The design-global bounds table.
    pub fn bounds(&self) -> &BoundsTable {
        &self.bounds
    }

    /// All function types, sorted by id.
    pub fn function_types(&self) -> &[FunctionType] {
        &self.types
    }

    /// Position of function type `id` in the sorted `types` (and in
    /// `type_stamps`).
    fn type_index(&self, id: TypeId) -> Result<usize, CoreError> {
        self.types
            .binary_search_by_key(&id, FunctionType::id)
            .map_err(|_| CoreError::UnknownType { type_id: id })
    }

    /// Looks up a function type.
    pub fn function_type(&self, id: TypeId) -> Option<&FunctionType> {
        self.type_index(id).ok().map(|idx| &self.types[idx])
    }

    /// Looks up a function type, failing with [`CoreError::UnknownType`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownType`] when absent.
    pub fn require_type(&self, id: TypeId) -> Result<&FunctionType, CoreError> {
        self.type_index(id).map(|idx| &self.types[idx])
    }

    /// Number of function types.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// Total number of implementation variants across all types.
    pub fn variant_count(&self) -> usize {
        self.types.iter().map(FunctionType::variant_count).sum()
    }

    /// Monotone counter incremented on every mutation; used by the
    /// persistence layer to stamp write-ahead-log records, by replication
    /// to deduplicate and fence, and as the source of the per-type stamps
    /// that validate cached results ([`CaseBase::type_stamp`]).
    pub fn generation(&self) -> Generation {
        self.generation
    }

    /// The generation at which function type `id` was last mutated
    /// ([`Generation::GENESIS`] if never on this instance's history);
    /// `None` for a type the case base does not hold.
    ///
    /// This is the stamp every retrieval-result cache and compiled type
    /// plane is validated against. Retrieval reads only the requested
    /// type's subtree and the bounds table, and no mutation changes the
    /// bounds table, so while a type's stamp stands still a cached result
    /// for that type is bit-identical to a recompute — whatever happened
    /// to the other types (`docs/caching.md`).
    pub fn type_stamp(&self, id: TypeId) -> Option<Generation> {
        self.type_index(id).ok().map(|idx| self.type_stamps[idx])
    }

    /// Every type's stamp, aligned with [`CaseBase::function_types`].
    pub fn type_stamps(&self) -> &[Generation] {
        &self.type_stamps
    }

    /// Overwrites the generation counter.
    ///
    /// This exists for exactly two callers: a persistence layer restoring
    /// a recovered case base to the generation its snapshot/log recorded,
    /// and a caller rolling back an applied mutation (the inverse
    /// mutation bumps the counter again, so the rollback must restore
    /// it). Anything else should let mutations advance the counter — a
    /// generation that moves backwards while caches are alive would
    /// resurrect stale entries.
    ///
    /// Type stamps above the restored value are pulled down to it. A
    /// rollback leaves the touched types' *content* as it was at
    /// `generation`, so that stamp is exact for them; left above the
    /// counter, a stamp would be issued a second time — for different
    /// content — once real mutations advance the counter past it.
    pub fn restore_generation(&mut self, generation: Generation) {
        self.generation = generation;
        for stamp in &mut self.type_stamps {
            *stamp = (*stamp).min(generation);
        }
    }

    /// Advances the generation for a mutation of `types[idx]` and stamps
    /// that type with it — the one place a mutation becomes visible to
    /// caches, logs and replicas.
    fn bump(&mut self, idx: usize) {
        self.generation = self.generation.next();
        self.type_stamps[idx] = self.generation;
    }

    /// Applies a [`CaseMutation`] and returns its inverse.
    ///
    /// The inverse, applied next, restores the previous contents (the
    /// generation keeps advancing; use
    /// [`CaseBase::restore_generation`] if a rollback must also rewind
    /// the counter). A failed mutation leaves the case base untouched,
    /// generation included.
    ///
    /// # Errors
    ///
    /// The union of the error conditions of
    /// [`CaseBase::retain_variant`], [`CaseBase::revise_variant`] and
    /// [`CaseBase::evict_variant`].
    pub fn apply_mutation(&mut self, mutation: &CaseMutation) -> Result<CaseMutation, CoreError> {
        match mutation {
            CaseMutation::Retain { type_id, variant } => {
                self.retain_variant(*type_id, variant.clone())?;
                Ok(CaseMutation::Evict {
                    type_id: *type_id,
                    impl_id: variant.id(),
                })
            }
            CaseMutation::Revise { type_id, variant } => {
                let old = self
                    .require_type(*type_id)?
                    .variant(variant.id())
                    .ok_or(CoreError::UnknownImpl {
                        type_id: *type_id,
                        impl_id: variant.id(),
                    })?
                    .clone();
                self.revise_variant(*type_id, variant.clone())?;
                Ok(CaseMutation::Revise {
                    type_id: *type_id,
                    variant: old,
                })
            }
            CaseMutation::Evict { type_id, impl_id } => {
                let removed = self.evict_variant(*type_id, *impl_id)?;
                Ok(CaseMutation::Retain {
                    type_id: *type_id,
                    variant: removed,
                })
            }
        }
    }

    /// Applies a whole batch of mutations **all-or-nothing**, returning
    /// their inverses in order. If any mutation is rejected, the ones
    /// already applied are rolled back (inverses in reverse order) and
    /// the generation counter is rewound — the case base is left
    /// bit-identical to before the call, with no type stamp above the
    /// rewound counter ([`CaseBase::restore_generation`]). This is the
    /// single rollback primitive both the service's ephemeral shards and
    /// the persistence layer's group commit build on, so the "memory
    /// never runs ahead of the log" contract has exactly one
    /// implementation.
    ///
    /// # Errors
    ///
    /// The first failing mutation's error (state fully rolled back).
    pub fn apply_mutations_atomic(
        &mut self,
        mutations: &[CaseMutation],
    ) -> Result<Vec<CaseMutation>, CoreError> {
        let before = self.generation;
        let mut inverses = Vec::with_capacity(mutations.len());
        for mutation in mutations {
            match self.apply_mutation(mutation) {
                Ok(inverse) => inverses.push(inverse),
                Err(e) => {
                    for inverse in inverses.drain(..).rev() {
                        self.apply_mutation(&inverse)
                            .expect("the inverse of a just-applied mutation applies");
                    }
                    self.restore_generation(before);
                    return Err(e);
                }
            }
        }
        Ok(inverses)
    }

    /// *Retain* step of the CBR cycle: inserts a new implementation variant
    /// into an existing function type at run time (self-learning extension,
    /// §5 outlook).
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnknownType`] if the type does not exist.
    /// * [`CoreError::DuplicateImpl`] if the id is taken.
    /// * attribute errors as in [`CaseBase::new`].
    pub fn retain_variant(
        &mut self,
        type_id: TypeId,
        variant: ImplVariant,
    ) -> Result<(), CoreError> {
        for binding in variant.attrs() {
            self.bounds.check_value(binding.attr, binding.value)?;
        }
        let idx = self.type_index(type_id)?;
        let ty = &mut self.types[idx];
        match ty
            .variants
            .binary_search_by_key(&variant.id(), ImplVariant::id)
        {
            Ok(_) => Err(CoreError::DuplicateImpl {
                type_id,
                impl_id: variant.id(),
            }),
            Err(pos) => {
                ty.variants.insert(pos, variant);
                self.bump(idx);
                Ok(())
            }
        }
    }

    /// Removes an implementation variant (used by the learning eviction
    /// policy when the case base outgrows its memory budget).
    ///
    /// Returns the removed variant.
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnknownType`] if the type does not exist.
    /// * [`CoreError::UnknownImpl`] if the type holds no such variant.
    /// * [`CoreError::EmptyType`] if removal would leave the type empty —
    ///   a case base must keep at least one realization per declared type.
    pub fn evict_variant(
        &mut self,
        type_id: TypeId,
        impl_id: ImplId,
    ) -> Result<ImplVariant, CoreError> {
        let idx = self.type_index(type_id)?;
        let ty = &mut self.types[idx];
        let pos = ty
            .variants
            .binary_search_by_key(&impl_id, ImplVariant::id)
            .map_err(|_| CoreError::UnknownImpl { type_id, impl_id })?;
        if ty.variants.len() == 1 {
            return Err(CoreError::EmptyType { type_id });
        }
        let removed = ty.variants.remove(pos);
        self.bump(idx);
        Ok(removed)
    }

    /// *Revise* step: replaces the attribute set of an existing variant with
    /// corrected values (e.g. after measuring real QoS at run time).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownType`] and the attribute errors as in
    /// [`CaseBase::retain_variant`]; [`CoreError::UnknownImpl`] if the
    /// type holds no variant with the revised id.
    pub fn revise_variant(
        &mut self,
        type_id: TypeId,
        revised: ImplVariant,
    ) -> Result<(), CoreError> {
        for binding in revised.attrs() {
            self.bounds.check_value(binding.attr, binding.value)?;
        }
        let idx = self.type_index(type_id)?;
        let ty = &mut self.types[idx];
        let pos = ty
            .variants
            .binary_search_by_key(&revised.id(), ImplVariant::id)
            .map_err(|_| CoreError::UnknownImpl {
                type_id,
                impl_id: revised.id(),
            })?;
        ty.variants[pos] = revised;
        self.bump(idx);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::{AttrBinding, AttrDecl};
    use crate::ids::AttrId;
    use crate::implvariant::ExecutionTarget;

    fn aid(raw: u16) -> AttrId {
        AttrId::new(raw).unwrap()
    }

    fn bounds() -> BoundsTable {
        BoundsTable::from_decls(vec![AttrDecl::new(aid(1), "bits", 0, 32).unwrap()]).unwrap()
    }

    fn variant(id: u16, bits: u16) -> ImplVariant {
        ImplVariant::new(
            ImplId::new(id).unwrap(),
            ExecutionTarget::Fpga,
            vec![AttrBinding::new(aid(1), bits)],
        )
        .unwrap()
    }

    fn case_base() -> CaseBase {
        let ty = FunctionType::new(TypeId::new(1).unwrap(), "f", vec![variant(1, 16), variant(2, 8)])
            .unwrap();
        CaseBase::new(bounds(), vec![ty]).unwrap()
    }

    fn tid(raw: u16) -> TypeId {
        TypeId::new(raw).unwrap()
    }

    /// Three types, two variants each.
    fn three_types() -> CaseBase {
        let types = (1..=3)
            .map(|raw| {
                FunctionType::new(tid(raw), "f", vec![variant(1, 16), variant(2, 8)]).unwrap()
            })
            .collect();
        CaseBase::new(bounds(), types).unwrap()
    }

    #[test]
    fn lookup_by_type_and_impl() {
        let cb = case_base();
        let ty = cb.function_type(TypeId::new(1).unwrap()).unwrap();
        assert_eq!(ty.variant(ImplId::new(2).unwrap()).unwrap().attr(aid(1)), Some(8));
        assert!(cb.function_type(TypeId::new(9).unwrap()).is_none());
        assert!(cb.require_type(TypeId::new(9).unwrap()).is_err());
    }

    #[test]
    fn rejects_empty_and_duplicates() {
        assert!(matches!(
            CaseBase::new(bounds(), vec![]),
            Err(CoreError::EmptyCaseBase)
        ));
        let t1 = FunctionType::new(TypeId::new(1).unwrap(), "a", vec![variant(1, 1)]).unwrap();
        let t2 = FunctionType::new(TypeId::new(1).unwrap(), "b", vec![variant(1, 1)]).unwrap();
        assert!(matches!(
            CaseBase::new(bounds(), vec![t1, t2]),
            Err(CoreError::DuplicateType { .. })
        ));
        assert!(matches!(
            FunctionType::new(TypeId::new(1).unwrap(), "e", vec![]),
            Err(CoreError::EmptyType { .. })
        ));
        assert!(matches!(
            FunctionType::new(TypeId::new(1).unwrap(), "d", vec![variant(1, 1), variant(1, 2)]),
            Err(CoreError::DuplicateImpl { .. })
        ));
    }

    #[test]
    fn rejects_out_of_bounds_values() {
        let ty =
            FunctionType::new(TypeId::new(1).unwrap(), "f", vec![variant(1, 33)]).unwrap();
        assert!(matches!(
            CaseBase::new(bounds(), vec![ty]),
            Err(CoreError::ValueOutOfBounds { .. })
        ));
    }

    #[test]
    fn retain_inserts_sorted_and_bumps_generation() {
        let mut cb = case_base();
        let g0 = cb.generation();
        cb.retain_variant(TypeId::new(1).unwrap(), variant(5, 4)).unwrap();
        assert_eq!(cb.generation(), g0.next());
        let ty = cb.function_type(TypeId::new(1).unwrap()).unwrap();
        let ids: Vec<u16> = ty.variants().iter().map(|v| v.id().raw()).collect();
        assert_eq!(ids, [1, 2, 5]);
        // Duplicate insert fails.
        assert!(cb.retain_variant(TypeId::new(1).unwrap(), variant(5, 4)).is_err());
    }

    #[test]
    fn evict_keeps_types_nonempty() {
        let mut cb = case_base();
        cb.evict_variant(TypeId::new(1).unwrap(), ImplId::new(2).unwrap())
            .unwrap();
        assert!(matches!(
            cb.evict_variant(TypeId::new(1).unwrap(), ImplId::new(1).unwrap()),
            Err(CoreError::EmptyType { .. })
        ));
    }

    #[test]
    fn a_missing_variant_is_not_a_missing_type() {
        let mut cb = case_base();
        let absent = ImplId::new(7).unwrap();
        let unknown_impl = CoreError::UnknownImpl {
            type_id: tid(1),
            impl_id: absent,
        };
        assert_eq!(cb.evict_variant(tid(1), absent), Err(unknown_impl.clone()));
        assert_eq!(cb.revise_variant(tid(1), variant(7, 4)), Err(unknown_impl.clone()));
        let revise = CaseMutation::Revise {
            type_id: tid(1),
            variant: variant(7, 4),
        };
        assert_eq!(cb.apply_mutation(&revise), Err(unknown_impl));
        // A missing *type* still says so.
        let unknown_type = CoreError::UnknownType { type_id: tid(9) };
        assert_eq!(cb.evict_variant(tid(9), absent), Err(unknown_type.clone()));
        assert_eq!(cb.revise_variant(tid(9), variant(1, 4)), Err(unknown_type));
        assert_eq!(cb.generation(), Generation::GENESIS, "rejections change nothing");
    }

    #[test]
    fn a_mutation_stamps_only_its_own_type() {
        let mut cb = three_types();
        assert_eq!(cb.type_stamps(), [Generation::GENESIS; 3]);
        cb.retain_variant(tid(2), variant(5, 4)).unwrap();
        cb.revise_variant(tid(3), variant(1, 2)).unwrap();
        cb.evict_variant(tid(2), ImplId::new(1).unwrap()).unwrap();
        assert_eq!(cb.generation().raw(), 3);
        assert_eq!(cb.type_stamp(tid(1)), Some(Generation::GENESIS));
        assert_eq!(cb.type_stamp(tid(2)), Some(Generation::from_raw(3)));
        assert_eq!(cb.type_stamp(tid(3)), Some(Generation::from_raw(2)));
        assert_eq!(cb.type_stamp(tid(9)), None);
    }

    #[test]
    fn stamps_are_not_content() {
        // Same content and generation, reached by different histories.
        let mut a = three_types();
        let mut b = three_types();
        a.revise_variant(tid(1), variant(1, 3)).unwrap();
        b.revise_variant(tid(2), variant(1, 3)).unwrap();
        a.revise_variant(tid(2), variant(1, 3)).unwrap();
        b.revise_variant(tid(1), variant(1, 3)).unwrap();
        assert_ne!(a.type_stamps(), b.type_stamps());
        assert_eq!(a, b);
    }

    #[test]
    fn a_rolled_back_batch_leaves_no_stamp_to_be_reissued() {
        let mut cb = three_types();
        cb.revise_variant(tid(1), variant(1, 3)).unwrap(); // g1
        let before = cb.clone();
        // Touches type 2 twice, then fails: rolled back through g2..g5.
        let batch = [
            CaseMutation::Retain {
                type_id: tid(2),
                variant: variant(5, 4),
            },
            CaseMutation::Revise {
                type_id: tid(2),
                variant: variant(5, 9),
            },
            CaseMutation::Evict {
                type_id: tid(3),
                impl_id: ImplId::new(7).unwrap(),
            },
        ];
        assert!(cb.apply_mutations_atomic(&batch).is_err());
        assert_eq!(cb, before);
        assert!(cb.type_stamps().iter().all(|&s| s <= cb.generation()));
        assert_eq!(cb.type_stamp(tid(1)), before.type_stamp(tid(1)), "untouched");

        // A reader caches a type-2 result now, at the post-rollback stamp
        // (a stamped cache entry hits exactly while the stamp is equal).
        let cached_at = cb.type_stamp(tid(2));
        // Real mutations of other types walk the counter up to the last
        // value the rolled-back batch had burnt on type 2 (g5) ...
        cb.revise_variant(tid(1), variant(1, 5)).unwrap(); // g2
        cb.revise_variant(tid(3), variant(1, 5)).unwrap(); // g3
        cb.revise_variant(tid(1), variant(1, 6)).unwrap(); // g4
        assert_eq!(cb.type_stamp(tid(2)), cached_at, "type 2 is untouched: still a hit");
        // ... and the one that lands on it changes type 2 for real.
        cb.retain_variant(tid(2), variant(6, 1)).unwrap(); // g5
        assert_eq!(cb.generation().raw(), 5);
        assert_ne!(
            cb.type_stamp(tid(2)),
            cached_at,
            "the entry predates the mutation and must not hit"
        );
    }

    #[test]
    fn revise_replaces_in_place() {
        let mut cb = case_base();
        cb.revise_variant(TypeId::new(1).unwrap(), variant(2, 31)).unwrap();
        let ty = cb.function_type(TypeId::new(1).unwrap()).unwrap();
        assert_eq!(ty.variant(ImplId::new(2).unwrap()).unwrap().attr(aid(1)), Some(31));
        assert_eq!(cb.variant_count(), 2);
    }
}
