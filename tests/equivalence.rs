//! Experiment E5: the paper's equivalence claim — "we get the same
//! retrieval results in high precision floating point Matlab simulation as
//! we get from VHDL simulation" — as a workspace-wide property. Random
//! case bases from the workload generator flow through all four
//! implementations; every fixed-point path must agree bit-exactly, and
//! the float reference must agree up to quantization ties.

use rqfa::core::{FixedEngine, FloatEngine};
use rqfa::hwsim::{RetrievalUnit, UnitConfig};
use rqfa::memlist::{encode_case_base, encode_request};
use rqfa::softcore::{run_retrieval_with, CpuCostModel, ProgramKind};
use rqfa::workloads::check::check;
use rqfa::workloads::{CaseGen, RequestGen};

const CASES: u32 = 40;

#[test]
fn four_engines_agree_on_generated_workloads() {
    check("four_engines_agree_on_generated_workloads", CASES, |rng| {
        let seed = rng.gen_range(0u64..5000);
        let case_base = CaseGen::new(4, 6, 5, 8)
            .seed(seed)
            .value_span(200)
            .build();
        let requests = RequestGen::new(&case_base)
            .seed(seed ^ 0xABCD)
            .count(5)
            .generate();
        let cb_img = encode_case_base(&case_base).unwrap();

        for request in &requests {
            let fixed = FixedEngine::new().retrieve(&case_base, request).unwrap().best.unwrap();
            let req_img = encode_request(request).unwrap();

            let mut unit = RetrievalUnit::new(&cb_img, UnitConfig::default()).unwrap();
            let hw = unit.retrieve(&req_img).unwrap();
            assert_eq!(hw.best, Some((fixed.impl_id.raw(), fixed.similarity)));

            let sw = run_retrieval_with(
                &cb_img,
                &req_img,
                CpuCostModel::default(),
                ProgramKind::HandOptimized,
            )
            .unwrap();
            assert_eq!(sw.best, Some((fixed.impl_id.raw(), fixed.similarity)));

            // Float agrees up to quantization: if winners differ, the float
            // scores of both must be within the quantization bound.
            let float = FloatEngine::new().retrieve(&case_base, request).unwrap().best.unwrap();
            if float.impl_id != fixed.impl_id {
                let (scores, _) = FloatEngine::new().score_all(&case_base, request).unwrap();
                let fixed_winner_float = scores
                    .iter()
                    .find(|s| s.impl_id == fixed.impl_id)
                    .unwrap()
                    .similarity;
                assert!(
                    (float.similarity - fixed_winner_float).abs() < 8e-3,
                    "winner divergence beyond quantization: {} vs {}",
                    float.similarity,
                    fixed_winner_float
                );
            }
        }
    });
}

/// Ranking agreement rate between float and fixed stays high — the
/// quantitative form of the paper's "same retrieval results" claim.
#[test]
fn fixed_float_winner_agreement_is_high() {
    check("fixed_float_winner_agreement_is_high", CASES, |rng| {
        let seed = rng.gen_range(0u64..500);
        let case_base = CaseGen::new(3, 8, 5, 6).seed(seed).value_span(100).build();
        let requests = RequestGen::new(&case_base).seed(seed).count(20).generate();
        let mut agree = 0usize;
        for request in &requests {
            let f = FloatEngine::new().retrieve(&case_base, request).unwrap().best.unwrap();
            let q = FixedEngine::new().retrieve(&case_base, request).unwrap().best.unwrap();
            if f.impl_id == q.impl_id {
                agree += 1;
            }
        }
        // Ties at quantization boundaries are rare; demand ≥ 90 %.
        assert!(agree * 10 >= requests.len() * 9, "{agree}/{}", requests.len());
    });
}
