//! # rqfa-bench — experiment harness
//!
//! One binary per paper artifact (see this crate's `README.md`):
//!
//! | Binary | Artifact |
//! |--------|----------|
//! | `table1_similarity` | Table 1 — retrieval similarity example |
//! | `table2_synthesis`  | Table 2 — synthesis results on XC2V3000 |
//! | `table3_memory`     | Table 3 — case-base memory consumption |
//! | `speedup_hw_sw`     | §4.2 — the ~8.5× HW/SW comparison + sensitivity |
//! | `fig6_cycles_sweep` | fig. 6 — FSM cycles vs case-base shape |
//! | `nbest_sweep`       | §5 — n-most-similar extension |
//! | `compact_ablation`  | §5 — compacted attribute blocks (≥2× claim) |
//! | `search_ablation`   | §4.1 — resumable vs restart-from-top search |
//! | `mahalanobis_ablation` | §2.2 — Manhattan vs Mahalanobis cost/quality |
//! | `fixed_vs_float`    | §4.2 — fixed/float ranking agreement |
//! | `rsoc_scenario`     | fig. 1 — allocation-manager metrics |
//!
//! Four binaries serve the perf trajectory rather than a paper artifact:
//! `service_trace` and `distributed_trace` (the deterministic-replay
//! trajectories behind the committed `BENCH_<pr>.json` gates),
//! `bench_gate` (the CI regression gate over those reports, policy in
//! [`gate`]) and `retrieval_kernel` (the kernel microbench, the only
//! file here that reads the wall clock). Live serving-stack numbers are
//! `benchmark/`'s. [`mahalanobis`] is the §2.2 baseline
//! `mahalanobis_ablation` measures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod json;
pub mod mahalanobis;

use rqfa_core::{CaseBase, Request};
use rqfa_workloads::{CaseGen, RequestGen};

/// Standard experiment shapes `(label, types, impls, attrs, attr_types)`.
pub const SHAPES: &[(&str, u16, u16, u16, u16)] = &[
    ("tiny  (2×3×4)", 2, 3, 4, 6),
    ("paper (15×10×10)", 15, 10, 10, 10),
    ("wide  (15×40×10)", 15, 40, 10, 10),
    ("deep  (60×10×10)", 60, 10, 10, 10),
];

/// Builds the workload for one shape: the case base plus `n` requests.
///
/// # Panics
///
/// Never for the shapes in [`SHAPES`].
pub fn workload(types: u16, impls: u16, attrs: u16, attr_types: u16, n: usize) -> (CaseBase, Vec<Request>) {
    let case_base = CaseGen::new(types, impls, attrs, attr_types)
        .seed(u64::from(types) * 31 + u64::from(impls))
        .value_span(500)
        .build();
    let requests = RequestGen::new(&case_base)
        .seed(0xBEEF)
        .count(n)
        .repeat_fraction(0.0)
        .generate();
    (case_base, requests)
}

/// Prints a horizontal rule sized for the experiment tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Appends telemetry [`Sample`](rqfa_telemetry::Sample)s to a report
/// under `prefix/` — the bridge from a registry (or any
/// [`MetricSource`](rqfa_telemetry::MetricSource) collection) to the
/// `rqfa-bench/v1` document the gate compares.
pub fn push_samples(
    report: &mut json::BenchReport,
    prefix: &str,
    samples: &[rqfa_telemetry::Sample],
) {
    for sample in samples {
        report.push(format!("{prefix}/{}", sample.name), sample.unit, sample.value);
    }
}

/// Parses the one flag the report-emitting benches share: `--json <path>`.
/// Returns `None` when the flag is absent.
///
/// # Panics
///
/// Panics (with usage text) on `--json` without a path or on unknown
/// arguments — a bench invocation with a typo must fail loudly, not
/// silently skip its report.
pub fn json_path_from_args() -> Option<std::path::PathBuf> {
    args_with_flags(&[]).0
}

/// Parses the shared bench CLI: an optional `--json <path>` plus any of
/// the boolean `flags` (e.g. `&["--scalar"]`). Returns the json path
/// and, aligned with `flags`, whether each flag was present.
///
/// # Panics
///
/// Panics (with usage text) on `--json` without a path or on arguments
/// outside `flags` — a bench invocation with a typo must fail loudly,
/// not silently skip its report.
pub fn args_with_flags(flags: &[&str]) -> (Option<std::path::PathBuf>, Vec<bool>) {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    let mut present = vec![false; flags.len()];
    while let Some(arg) = args.next() {
        if arg == "--json" {
            let value = args.next().expect("usage: --json <path>");
            path = Some(std::path::PathBuf::from(value));
        } else if let Some(i) = flags.iter().position(|f| *f == arg) {
            present[i] = true;
        } else {
            panic!("unknown argument {arg:?} (usage: [--json <path>] {})", flags.join(" "));
        }
    }
    (path, present)
}
