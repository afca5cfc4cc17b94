//! The full CBR cycle of fig. 2: **retrieve → reuse → revise → retain**.
//!
//! The paper implements only the retrieval step in hardware and notes that
//! "many practical CBR-implementations restrict to the retrieval step";
//! dynamic case-base updates towards a *self-learning system* are named as
//! future work (§5). This module provides that loop in library form: a
//! [`CbrCycle`] retrieves a suggestion, the caller deploys it and reports
//! the *measured* QoS attributes back, and the cycle decides whether to
//! revise the stored case or retain a brand-new one.
//!
//! Repeated calls skip retrieval through §3's bypass tokens: "data on the
//! previous selection which can be reused at repeated function calls".
//! The cycle — and the allocation manager of `system.rs` — keeps that
//! previous selection in a [`GenCache`] keyed by the request fingerprint
//! at the stamp of the requested type ([`CaseBase::type_stamp`]), so a
//! mutation of that type kills its tokens and leaves every other type's
//! valid (`docs/caching.md`).

use rqfa_cache::GenCache;
use rqfa_core::{
    AttrBinding, CaseBase, CoreError, ExecutionTarget, FixedEngine, Footprint, FunctionType,
    Generation, ImplId, ImplVariant, Request, Scored, Q15,
};

/// What the cycle did with the feedback of one solved problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum LearnAction {
    /// Measured attributes matched the stored case; nothing to learn.
    Confirmed,
    /// The stored case was revised in place with measured values.
    Revised {
        /// The revised variant.
        impl_id: ImplId,
    },
    /// A new case was retained.
    Retained {
        /// The id assigned to the new variant.
        impl_id: ImplId,
    },
    /// Feedback was inconsistent (e.g. out-of-bounds measurement) and was
    /// discarded.
    Discarded,
}

/// Outcome of one pass through the cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleOutcome {
    /// The suggested solution (the *reuse* payload).
    pub suggestion: Scored<Q15>,
    /// Whether the suggestion was served from the bypass-token cache
    /// (retrieval skipped entirely).
    pub bypassed: bool,
}

/// Configuration of the learning policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearnPolicy {
    /// Measured-vs-stored deviation (per attribute, in raw units) above
    /// which the stored case is *revised*.
    pub revise_deviation: u16,
    /// Similarity below which a solved problem is considered novel enough
    /// to *retain* as a new case.
    pub retain_below: Q15,
    /// Maximum number of variants a single function type may grow to; the
    /// lowest-similarity learned case is evicted beyond this.
    pub max_variants_per_type: usize,
}

impl Default for LearnPolicy {
    fn default() -> LearnPolicy {
        LearnPolicy {
            revise_deviation: 0,
            retain_below: Q15::from_f64_saturating(0.999),
            max_variants_per_type: 32,
        }
    }
}

/// Orchestrates retrieve/reuse/revise/retain against a mutable case base.
///
/// ```
/// use rqfa_core::paper;
/// use rqfa_rsoc::CbrCycle;
///
/// let mut cb = paper::table1_case_base();
/// let mut cycle = CbrCycle::new(16);
/// let request = paper::table1_request()?;
///
/// let first = cycle.retrieve(&cb, &request)?;
/// assert!(!first.bypassed);
/// let second = cycle.retrieve(&cb, &request)?;
/// assert!(second.bypassed, "repeated call must hit the bypass token");
/// # Ok::<(), rqfa_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CbrCycle {
    engine: FixedEngine,
    cache: GenCache<Scored<Q15>, Generation>,
    policy: LearnPolicy,
}

/// Where a request's bypass token lives: its fingerprint at the stamp of
/// its type. A type `case_base` does not hold has no token — it is
/// neither looked up nor stored.
pub(crate) fn token_key(case_base: &CaseBase, request: &Request) -> Option<(u64, Generation)> {
    let stamp = case_base.type_stamp(request.type_id())?;
    Some((request.fingerprint(), stamp))
}

impl CbrCycle {
    /// Creates a cycle that keeps the bypass tokens of up to
    /// `cache_capacity` requests (0 disables bypass: every call
    /// retrieves) and the default learning policy.
    pub fn new(cache_capacity: usize) -> CbrCycle {
        CbrCycle {
            engine: FixedEngine::new(),
            cache: GenCache::new(cache_capacity),
            policy: LearnPolicy::default(),
        }
    }

    /// Replaces the learning policy.
    pub fn with_policy(mut self, policy: LearnPolicy) -> CbrCycle {
        self.policy = policy;
        self
    }

    /// The bypass-token cache (for statistics inspection).
    pub fn cache(&self) -> &GenCache<Scored<Q15>, Generation> {
        &self.cache
    }

    /// **Retrieve + reuse**: returns the suggested variant, via the bypass
    /// cache when possible.
    ///
    /// # Errors
    ///
    /// Propagates retrieval errors ([`CoreError::UnknownType`] etc.).
    pub fn retrieve(
        &mut self,
        case_base: &CaseBase,
        request: &Request,
    ) -> Result<CycleOutcome, CoreError> {
        let key = token_key(case_base, request);
        if let Some(&suggestion) = key.and_then(|(fp, stamp)| self.cache.lookup(fp, stamp)) {
            return Ok(CycleOutcome {
                suggestion,
                bypassed: true,
            });
        }
        let retrieval = self.engine.retrieve(case_base, request)?;
        let best = retrieval.best.ok_or(CoreError::EmptyCaseBase)?;
        if let Some((fp, stamp)) = key {
            self.cache.insert(fp, stamp, best);
        }
        Ok(CycleOutcome {
            suggestion: best,
            bypassed: false,
        })
    }

    /// **Revise + retain**: feeds measured QoS attributes of a deployed
    /// solution back into the case base.
    ///
    /// * If the suggestion matched with high similarity and measurements
    ///   agree with the stored case → [`LearnAction::Confirmed`].
    /// * If measurements deviate from the stored attribute values by more
    ///   than the policy's tolerance → the case is **revised** in place.
    /// * If the achieved similarity was below `retain_below` → the measured
    ///   attribute set is **retained** as a new case (new variant id), so
    ///   the next similar request finds an exact match.
    ///
    /// # Errors
    ///
    /// Propagates case-base mutation errors; measurement values outside the
    /// design-global bounds yield [`LearnAction::Discarded`] instead of an
    /// error.
    pub fn learn(
        &mut self,
        case_base: &mut CaseBase,
        request: &Request,
        outcome: &CycleOutcome,
        measured: &[AttrBinding],
        target: ExecutionTarget,
        footprint: Footprint,
    ) -> Result<LearnAction, CoreError> {
        // Discard inconsistent feedback early.
        for m in measured {
            if case_base.bounds().check_value(m.attr, m.value).is_err() {
                return Ok(LearnAction::Discarded);
            }
        }
        let ty = case_base.require_type(request.type_id())?;
        let stored = ty
            .variant(outcome.suggestion.impl_id)
            .ok_or(CoreError::UnknownType {
                type_id: request.type_id(),
            })?;

        // Deviation between measured and stored values.
        let mut max_dev: u16 = 0;
        for m in measured {
            if let Some(stored_value) = stored.attr(m.attr) {
                max_dev = max_dev.max(stored_value.abs_diff(m.value));
            } else {
                // Measured an attribute the case does not even describe.
                max_dev = u16::MAX;
            }
        }

        if outcome.suggestion.similarity < self.policy.retain_below {
            // Novel problem: retain measured reality as a new case.
            let new_id = next_free_impl_id(ty)?;
            let variant =
                ImplVariant::with_footprint(new_id, target, measured.to_vec(), footprint)?;
            case_base.retain_variant(request.type_id(), variant)?;
            self.enforce_budget(case_base, request)?;
            return Ok(LearnAction::Retained { impl_id: new_id });
        }

        if max_dev > self.policy.revise_deviation {
            // Same case, wrong numbers: revise in place, merging measured
            // values over the stored attribute set.
            let mut attrs: Vec<AttrBinding> = stored.attrs().to_vec();
            for m in measured {
                match attrs.binary_search_by_key(&m.attr, |b| b.attr) {
                    Ok(i) => attrs[i] = *m,
                    Err(i) => attrs.insert(i, *m),
                }
            }
            let revised = ImplVariant::with_footprint(
                stored.id(),
                stored.target(),
                attrs,
                *stored.footprint(),
            )?;
            case_base.revise_variant(request.type_id(), revised)?;
            return Ok(LearnAction::Revised {
                impl_id: outcome.suggestion.impl_id,
            });
        }

        Ok(LearnAction::Confirmed)
    }

    /// Evicts the newest learned variants beyond the per-type budget.
    fn enforce_budget(
        &mut self,
        case_base: &mut CaseBase,
        request: &Request,
    ) -> Result<(), CoreError> {
        let ty = case_base.require_type(request.type_id())?;
        if ty.variant_count() <= self.policy.max_variants_per_type {
            return Ok(());
        }
        // Evict the highest-id variant that is NOT the one just retained —
        // learned ids grow upward, so this drops the oldest learned case
        // second-newest first. Original (design-time) variants have the
        // lowest ids and are never evicted while any learned case remains.
        let candidate = ty
            .variants()
            .iter()
            .rev()
            .nth(1)
            .map(ImplVariant::id);
        if let Some(id) = candidate {
            case_base.evict_variant(request.type_id(), id)?;
        }
        Ok(())
    }
}

/// Smallest unused implementation id in the type (learned cases grow the id
/// space upward).
fn next_free_impl_id(ty: &FunctionType) -> Result<ImplId, CoreError> {
    let max_raw = ty
        .variants()
        .iter()
        .map(|v| v.id().raw())
        .max()
        .unwrap_or(0);
    ImplId::new(max_raw + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqfa_core::{paper, TypeId};

    #[test]
    fn confirmed_when_measurement_matches() {
        let mut cb = paper::table1_case_base();
        let mut cycle = CbrCycle::new(8).with_policy(LearnPolicy {
            retain_below: Q15::from_f64(0.5).unwrap(),
            ..LearnPolicy::default()
        });
        let request = paper::table1_request().unwrap();
        let outcome = cycle.retrieve(&cb, &request).unwrap();
        // Feed back exactly the stored DSP attributes.
        let measured = vec![
            AttrBinding::new(paper::ATTR_BITWIDTH, 16),
            AttrBinding::new(paper::ATTR_MODE, 0),
            AttrBinding::new(paper::ATTR_OUTPUT, 1),
            AttrBinding::new(paper::ATTR_RATE, 44),
        ];
        let action = cycle
            .learn(
                &mut cb,
                &request,
                &outcome,
                &measured,
                ExecutionTarget::Dsp,
                Footprint::none(),
            )
            .unwrap();
        assert_eq!(action, LearnAction::Confirmed);
    }

    #[test]
    fn revises_on_deviating_measurement() {
        let mut cb = paper::table1_case_base();
        let mut cycle = CbrCycle::new(8).with_policy(LearnPolicy {
            retain_below: Q15::from_f64(0.5).unwrap(),
            revise_deviation: 1,
            ..LearnPolicy::default()
        });
        let request = paper::table1_request().unwrap();
        let outcome = cycle.retrieve(&cb, &request).unwrap();
        // The DSP actually only reaches 40 kSamples/s (stored: 44).
        let measured = vec![AttrBinding::new(paper::ATTR_RATE, 40)];
        let action = cycle
            .learn(
                &mut cb,
                &request,
                &outcome,
                &measured,
                ExecutionTarget::Dsp,
                Footprint::none(),
            )
            .unwrap();
        assert_eq!(
            action,
            LearnAction::Revised {
                impl_id: paper::IMPL_DSP
            }
        );
        let dsp = cb
            .function_type(paper::FIR_EQUALIZER)
            .unwrap()
            .variant(paper::IMPL_DSP)
            .unwrap();
        assert_eq!(dsp.attr(paper::ATTR_RATE), Some(40));
        // Revision invalidates bypass tokens.
        let again = cycle.retrieve(&cb, &request).unwrap();
        assert!(!again.bypassed);
    }

    #[test]
    fn retains_novel_case() {
        let mut cb = paper::table1_case_base();
        // Everything below 0.999 counts as novel (default policy). Ask for a
        // combination no stored case matches exactly.
        let mut cycle = CbrCycle::new(8);
        let request = Request::builder(paper::FIR_EQUALIZER)
            .constraint(paper::ATTR_BITWIDTH, 12)
            .constraint(paper::ATTR_OUTPUT, 0)
            .constraint(paper::ATTR_RATE, 30)
            .build()
            .unwrap();
        let outcome = cycle.retrieve(&cb, &request).unwrap();
        assert!(outcome.suggestion.similarity < Q15::ONE);
        let measured = vec![
            AttrBinding::new(paper::ATTR_BITWIDTH, 12),
            AttrBinding::new(paper::ATTR_OUTPUT, 0),
            AttrBinding::new(paper::ATTR_RATE, 30),
        ];
        let before = cb.variant_count();
        let action = cycle
            .learn(
                &mut cb,
                &request,
                &outcome,
                &measured,
                ExecutionTarget::GpProcessor,
                Footprint::none(),
            )
            .unwrap();
        assert!(matches!(action, LearnAction::Retained { .. }));
        assert_eq!(cb.variant_count(), before + 1);
        // The retained case is now a perfect match for the same request.
        let rerun = cycle.retrieve(&cb, &request).unwrap();
        assert_eq!(rerun.suggestion.similarity, Q15::ONE);
    }

    #[test]
    fn discards_out_of_bounds_feedback() {
        let mut cb = paper::table1_case_base();
        let mut cycle = CbrCycle::new(8);
        let request = paper::table1_request().unwrap();
        let outcome = cycle.retrieve(&cb, &request).unwrap();
        let measured = vec![AttrBinding::new(paper::ATTR_RATE, 999)]; // bounds are [8,44]
        let action = cycle
            .learn(
                &mut cb,
                &request,
                &outcome,
                &measured,
                ExecutionTarget::Dsp,
                Footprint::none(),
            )
            .unwrap();
        assert_eq!(action, LearnAction::Discarded);
    }

    #[test]
    fn budget_eviction_keeps_type_bounded() {
        let mut cb = paper::table1_case_base();
        let mut cycle = CbrCycle::new(8).with_policy(LearnPolicy {
            max_variants_per_type: 4,
            ..LearnPolicy::default()
        });
        // Retain several novel cases by varying the requested rate.
        for rate in [20u16, 24, 28, 32, 36] {
            let request = Request::builder(paper::FIR_EQUALIZER)
                .constraint(paper::ATTR_BITWIDTH, 12)
                .constraint(paper::ATTR_RATE, rate)
                .build()
                .unwrap();
            let outcome = cycle.retrieve(&cb, &request).unwrap();
            let measured = vec![
                AttrBinding::new(paper::ATTR_BITWIDTH, 12),
                AttrBinding::new(paper::ATTR_RATE, rate),
            ];
            cycle
                .learn(
                    &mut cb,
                    &request,
                    &outcome,
                    &measured,
                    ExecutionTarget::Fpga,
                    Footprint::none(),
                )
                .unwrap();
        }
        let fir = cb.function_type(paper::FIR_EQUALIZER).unwrap();
        assert!(fir.variant_count() <= 5, "got {}", fir.variant_count());
        // The original design-time variants survive.
        assert!(fir.variant(paper::IMPL_FPGA).is_some());
        assert!(fir.variant(paper::IMPL_DSP).is_some());
        assert!(fir.variant(paper::IMPL_GP).is_some());
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
        let mut cycle = CbrCycle::new(4);
        assert!(!cycle.retrieve(&cb, &request).unwrap().bypassed);
        // A retain into the FFT type cannot change a FIR retrieval.
        cb.retain_variant(paper::FFT_1D, extra_variant()).unwrap();
        let kept = cycle.retrieve(&cb, &request).unwrap();
        assert!(kept.bypassed, "token of the untouched type");
        let direct = FixedEngine::new().retrieve(&cb, &request).unwrap().best;
        assert_eq!(Some(kept.suggestion), direct);
        assert_eq!(cycle.cache().stats().stale, 0);
        // A retain into the FIR type can, and kills it; the recompute
        // stores a fresh token that the next call bypasses on.
        cb.retain_variant(paper::FIR_EQUALIZER, extra_variant()).unwrap();
        assert!(!cycle.retrieve(&cb, &request).unwrap().bypassed);
        assert_eq!(cycle.cache().stats().stale, 1);
        assert!(cycle.retrieve(&cb, &request).unwrap().bypassed);
    }

    #[test]
    fn unknown_types_hold_no_token() {
        let cb = paper::table1_case_base();
        let mut cycle = CbrCycle::new(4);
        cycle.retrieve(&cb, &paper::table1_request().unwrap()).unwrap();
        let unknown = Request::builder(TypeId::new(99).unwrap())
            .constraint(paper::ATTR_RATE, 40)
            .build()
            .unwrap();
        let before = (cycle.cache().len(), cycle.cache().stats());
        assert!(matches!(
            cycle.retrieve(&cb, &unknown),
            Err(CoreError::UnknownType { .. })
        ));
        assert_eq!((cycle.cache().len(), cycle.cache().stats()), before);
    }

    #[test]
    fn zero_capacity_disables_bypass() {
        let cb = paper::table1_case_base();
        let request = paper::table1_request().unwrap();
        let mut cycle = CbrCycle::new(0);
        for _ in 0..3 {
            assert!(!cycle.retrieve(&cb, &request).unwrap().bypassed);
        }
        assert!(cycle.cache().is_empty());
    }
}
