//! Experiment E10 — the §2.2 design decision: "[the Mahalanobis] method is
//! very effective concerning the results but the computational efforts
//! would be too large so we decided to apply Manhattan distance metrics."
//! Measures both sides: ranking agreement and arithmetic cost.
//!
//! `cargo run -p rqfa-bench --bin mahalanobis_ablation [-- --json <path>]`
//!
//! With `--json <path>` the per-shape agreement and cost ratios (both
//! deterministic) are emitted as an `rqfa-bench/v1` report.

use rqfa_bench::json::BenchReport;
use rqfa_bench::mahalanobis::MahalanobisEngine;
use rqfa_bench::workload;
use rqfa_core::FloatEngine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let json_path = rqfa_bench::json_path_from_args();
    let mut report = BenchReport::new("mahalanobis_ablation");
    println!("E10. Weighted-Manhattan vs Mahalanobis retrieval\n");
    println!(
        "{:<18} {:>10} {:>12} {:>12} {:>9}",
        "shape", "agree", "manh. ops", "mahal. ops", "ratio"
    );
    for &(label, t, i, a, k) in rqfa_bench::SHAPES {
        let (case_base, requests) = workload(t, i, a, k, 12);
        let manhattan = FloatEngine::new();
        let mahalanobis = MahalanobisEngine::new();
        let mut agree = 0usize;
        let (mut ops_manh, mut ops_mahal) = (0u64, 0u64);
        for request in &requests {
            let m = manhattan.retrieve(&case_base, request)?;
            let h = mahalanobis.retrieve(&case_base, request)?;
            if m.best.unwrap().impl_id == h.best.unwrap().impl_id {
                agree += 1;
            }
            ops_manh += m.ops.arithmetic();
            ops_mahal += h.ops.arithmetic();
        }
        println!(
            "{label:<18} {:>7}/{:>2} {:>12} {:>12} {:>8.1}×",
            agree,
            requests.len(),
            ops_manh / 12,
            ops_mahal / 12,
            ops_mahal as f64 / ops_manh as f64
        );
        // "tiny  (2×3×4)" → "tiny": the first word is the metric key.
        let key = label.split_whitespace().next().unwrap_or(label);
        #[allow(clippy::cast_precision_loss)]
        {
            report.push(
                format!("{key}/agreement"),
                "ratio",
                agree as f64 / requests.len() as f64,
            );
            report.push(
                format!("{key}/ops_ratio"),
                "ratio",
                ops_mahal as f64 / ops_manh as f64,
            );
        }
    }
    println!(
        "\nthe engines usually agree on the winner while the covariance\n\
         build + inversion + quadratic forms cost one to two orders of\n\
         magnitude more arithmetic — the paper's trade-off, quantified."
    );
    if let Some(path) = json_path {
        report
            .write_validated(&path)
            .expect("bench report must validate against rqfa-bench/v1");
        println!("\njson report: {} (schema valid)", path.display());
    }
    Ok(())
}
