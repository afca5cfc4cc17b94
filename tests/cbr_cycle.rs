//! Experiment E7: the complete CBR cycle of fig. 2 (retrieve → reuse →
//! revise → retain) across crates: core case base + rsoc cycle, with
//! bypass tokens and generation-based invalidation in the loop.

use rqfa::core::{paper, AttrBinding, ExecutionTarget, Footprint, Request, Q15};
use rqfa::rsoc::{CbrCycle, LearnAction, LearnPolicy};
use rqfa::workloads::{CaseGen, RequestGen};

#[test]
fn cycle_converges_to_exact_matches() {
    // Keep retraining on the same stream of problems: after one pass,
    // every repeated problem must retrieve with similarity 1.0.
    let mut case_base = CaseGen::new(2, 3, 4, 5).seed(3).value_span(60).build();
    let requests = RequestGen::new(&case_base)
        .seed(9)
        .count(8)
        .repeat_fraction(0.0)
        .generate();
    let mut cycle = CbrCycle::new(32).with_policy(LearnPolicy {
        retain_below: Q15::from_f64(0.999).unwrap(),
        max_variants_per_type: 64,
        ..LearnPolicy::default()
    });

    for request in &requests {
        let outcome = cycle.retrieve(&case_base, request).unwrap();
        // Feedback: the deployed solution achieves exactly the request.
        let measured: Vec<AttrBinding> = request.bindings().collect();
        cycle
            .learn(
                &mut case_base,
                request,
                &outcome,
                &measured,
                ExecutionTarget::Fpga,
                Footprint::none(),
            )
            .unwrap();
    }
    for request in &requests {
        let again = cycle.retrieve(&case_base, request).unwrap();
        assert!(
            again.suggestion.similarity.is_one(),
            "request not learned: {request}"
        );
    }
}

#[test]
fn learn_retains_a_novel_case_then_discards_inconsistent_feedback() {
    let mut case_base = paper::table1_case_base();
    let mut cycle = CbrCycle::new(8);

    // Novel problem → retained.
    let novel = Request::builder(paper::FIR_EQUALIZER)
        .constraint(paper::ATTR_BITWIDTH, 11)
        .constraint(paper::ATTR_RATE, 33)
        .build()
        .unwrap();
    let outcome = cycle.retrieve(&case_base, &novel).unwrap();
    let action = cycle
        .learn(
            &mut case_base,
            &novel,
            &outcome,
            &[
                AttrBinding::new(paper::ATTR_BITWIDTH, 11),
                AttrBinding::new(paper::ATTR_RATE, 33),
            ],
            ExecutionTarget::Fpga,
            Footprint::none(),
        )
        .unwrap();
    assert!(matches!(action, LearnAction::Retained { .. }));

    // Inconsistent feedback → discarded.
    let outcome = cycle.retrieve(&case_base, &novel).unwrap();
    let action = cycle
        .learn(
            &mut case_base,
            &novel,
            &outcome,
            &[AttrBinding::new(paper::ATTR_RATE, 9999)],
            ExecutionTarget::Fpga,
            Footprint::none(),
        )
        .unwrap();
    assert_eq!(action, LearnAction::Discarded);
}

#[test]
fn mutation_invalidates_bypass_tokens_across_layers() {
    let mut case_base = paper::table1_case_base();
    let mut cycle = CbrCycle::new(8);
    let request = paper::table1_request().unwrap();

    let first = cycle.retrieve(&case_base, &request).unwrap();
    assert!(!first.bypassed);
    let second = cycle.retrieve(&case_base, &request).unwrap();
    assert!(second.bypassed);

    // A second cycle, learning elsewhere, mutates the case base
    // (generation bump).
    let mut mutator = CbrCycle::new(8);
    let novel = Request::builder(paper::FIR_EQUALIZER)
        .constraint(paper::ATTR_BITWIDTH, 9)
        .build()
        .unwrap();
    let outcome = mutator.retrieve(&case_base, &novel).unwrap();
    mutator
        .learn(
            &mut case_base,
            &novel,
            &outcome,
            &[AttrBinding::new(paper::ATTR_BITWIDTH, 9)],
            ExecutionTarget::Dsp,
            Footprint::none(),
        )
        .unwrap();

    let third = cycle.retrieve(&case_base, &request).unwrap();
    assert!(!third.bypassed, "stale token must not survive a mutation");
}

#[test]
fn eviction_budget_preserves_design_variants() {
    let mut case_base = paper::table1_case_base();
    let mut cycle = CbrCycle::new(8).with_policy(LearnPolicy {
        max_variants_per_type: 5,
        ..LearnPolicy::default()
    });
    for rate in 10..30u16 {
        let request = Request::builder(paper::FIR_EQUALIZER)
            .constraint(paper::ATTR_RATE, rate)
            .constraint(paper::ATTR_BITWIDTH, 9)
            .build()
            .unwrap();
        let outcome = cycle.retrieve(&case_base, &request).unwrap();
        let _ = cycle
            .learn(
                &mut case_base,
                &request,
                &outcome,
                &[
                    AttrBinding::new(paper::ATTR_BITWIDTH, 9),
                    AttrBinding::new(paper::ATTR_RATE, rate),
                ],
                ExecutionTarget::Fpga,
                Footprint::none(),
            )
            .unwrap();
    }
    let fir = case_base.function_type(paper::FIR_EQUALIZER).unwrap();
    assert!(fir.variant_count() <= 6, "budget enforced: {}", fir.variant_count());
    for original in [paper::IMPL_FPGA, paper::IMPL_DSP, paper::IMPL_GP] {
        assert!(
            fir.variant(original).is_some(),
            "design-time variant {original} evicted"
        );
    }
}
