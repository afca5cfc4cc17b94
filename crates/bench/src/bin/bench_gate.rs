//! The CI perf-regression gate over `rqfa-bench/v1` reports.
//!
//! Two modes:
//!
//! * `bench_gate <baseline.json> <fresh.json>` — compares a fresh bench
//!   run against a committed baseline under the tolerance policy of
//!   `rqfa_bench::gate` (one tight ±25% band, both directions, every
//!   unit). Exit 1 on any violation, with one line per failing metric.
//! * `bench_gate --validate <file.json>...` — schema-validates each file
//!   (the committed `BENCH_*.json` trajectory) without comparing. Exit 1
//!   on the first malformed file.

use std::process::ExitCode;

use rqfa_bench::gate::compare;
use rqfa_bench::json::validate_report;

fn load(path: &str) -> Result<rqfa_bench::json::BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    validate_report(&text).map_err(|e| format!("{path}: {e}"))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  bench_gate <baseline.json> <fresh.json>\n  bench_gate --validate <file.json>..."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((flag, files)) if flag == "--validate" => {
            if files.is_empty() {
                return usage();
            }
            for path in files {
                match load(path) {
                    Ok(report) => println!(
                        "ok: {path} ({}, {} metrics)",
                        report.bench,
                        report.results.len()
                    ),
                    Err(e) => {
                        eprintln!("INVALID: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Some((baseline_path, [fresh_path])) => {
            let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
                (Ok(b), Ok(f)) => (b, f),
                (b, f) => {
                    for e in [b.err(), f.err()].into_iter().flatten() {
                        eprintln!("INVALID: {e}");
                    }
                    return ExitCode::FAILURE;
                }
            };
            let verdict = compare(&baseline, &fresh);
            if verdict.passed() {
                println!(
                    "gate passed: {} metrics within tolerance ({baseline_path} vs {fresh_path})",
                    verdict.checked
                );
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "gate FAILED: {} violation(s), {} metrics checked",
                    verdict.failures.len(),
                    verdict.checked
                );
                for failure in &verdict.failures {
                    eprintln!("  {failure}");
                }
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}
