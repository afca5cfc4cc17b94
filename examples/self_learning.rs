//! The self-learning system of the §5 outlook: the full CBR cycle of
//! fig. 2 (retrieve → reuse → revise → retain) running against a live
//! case base. Measured QoS feedback revises wrong cases and retains novel
//! operating points, and bypass tokens invalidate automatically on every
//! case-base mutation.
//!
//! Run with: `cargo run --example self_learning`

use rqfa::core::{paper, AttrBinding, ExecutionTarget, Footprint, Request};
use rqfa::fixed::Q15;
use rqfa::rsoc::{CbrCycle, LearnAction, LearnPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut case_base = paper::table1_case_base();
    // Policy: suggestions above 0.95 similarity are "the same case" (revise
    // on deviation); below that the solved problem is novel (retain).
    let mut cycle = CbrCycle::new(16).with_policy(LearnPolicy {
        retain_below: Q15::from_f64(0.95)?,
        ..LearnPolicy::default()
    });

    // A request no stored case matches exactly: 12-bit mono at 30 kS/s.
    let request = Request::builder(paper::FIR_EQUALIZER)
        .constraint(paper::ATTR_BITWIDTH, 12)
        .constraint(paper::ATTR_OUTPUT, 0)
        .constraint(paper::ATTR_RATE, 30)
        .build()?;

    // Round 1: retrieve + reuse.
    let outcome = cycle.retrieve(&case_base, &request)?;
    println!(
        "round 1: suggested {} (S = {:.4}), bypassed: {}",
        outcome.suggestion.impl_id,
        outcome.suggestion.similarity.to_f64(),
        outcome.bypassed
    );

    // The deployed solution is measured: it actually delivers exactly the
    // requested operating point (say, a parameterizable FPGA filter).
    let measured = vec![
        AttrBinding::new(paper::ATTR_BITWIDTH, 12),
        AttrBinding::new(paper::ATTR_OUTPUT, 0),
        AttrBinding::new(paper::ATTR_RATE, 30),
    ];
    let action = cycle.learn(
        &mut case_base,
        &request,
        &outcome,
        &measured,
        ExecutionTarget::Fpga,
        Footprint {
            bitstream_bytes: 80 * 1024,
            slices: 700,
            dynamic_mw: 160,
            exec_us: 14,
            ..Footprint::none()
        },
    )?;
    println!("feedback: {action:?}");
    assert!(matches!(action, LearnAction::Retained { .. }));

    // Round 2: the retained case now answers the same request perfectly.
    let again = cycle.retrieve(&case_base, &request)?;
    println!(
        "round 2: suggested {} (S = {:.4}), bypassed: {}",
        again.suggestion.impl_id,
        again.suggestion.similarity.to_f64(),
        again.bypassed
    );
    assert!(again.suggestion.similarity.is_one());

    // Round 3: repeated call → bypass token, retrieval skipped entirely.
    let third = cycle.retrieve(&case_base, &request)?;
    println!(
        "round 3: suggested {} via bypass token: {}",
        third.suggestion.impl_id, third.bypassed
    );
    assert!(third.bypassed);

    // Revision: the DSP case overstates its sample rate; measurement
    // corrects it in place.
    let dsp_request = paper::table1_request()?;
    let dsp_outcome = cycle.retrieve(&case_base, &dsp_request)?;
    let action = cycle.learn(
        &mut case_base,
        &dsp_request,
        &dsp_outcome,
        &[AttrBinding::new(paper::ATTR_RATE, 40)],
        ExecutionTarget::Dsp,
        Footprint::none(),
    )?;
    println!("DSP feedback: {action:?}");
    assert!(matches!(action, LearnAction::Revised { .. }));

    let dsp = case_base
        .function_type(paper::FIR_EQUALIZER)
        .unwrap()
        .variant(paper::IMPL_DSP)
        .unwrap();
    println!(
        "case base now holds {} FIR variants; DSP rate revised to {:?} kS/s",
        case_base.function_type(paper::FIR_EQUALIZER).unwrap().variant_count(),
        dsp.attr(paper::ATTR_RATE).unwrap()
    );
    println!(
        "bypass cache: {} hits / {} misses",
        cycle.cache().stats().hits,
        cycle.cache().stats().misses
    );
    Ok(())
}
