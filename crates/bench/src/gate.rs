//! The perf-trajectory regression gate.
//!
//! CI re-runs `service_trace` / `distributed_trace` against the committed
//! `BENCH_<pr>.json` baseline and feeds both reports through [`compare`].
//! Both are deterministic replays under a manual clock — `us` quantiles,
//! `count`s, `ratio`s and the simulated throughput `sim_req_per_sec`
//! carry no timer noise by construction — so there is one policy, a
//! *tight band*: fresh must lie within ±25 % (`TIGHT_RATIO`) of baseline
//! in both directions, so a 2× p99 regression fails and a silent 2×
//! "improvement" (usually a broken workload, not a miracle) fails too.
//! No unit is exempt. Wall-clock numbers are not gated here: they are
//! `benchmark/`'s job (pinned CPU, quiet-slice sampling, paired runs);
//! `retrieval_kernel`'s `req_per_sec` rows are only schema-validated.
//!
//! The metric *sets* must match exactly: a metric that disappears — or a
//! new one smuggled in without refreshing the baseline — fails the gate,
//! so the trajectory can only be changed deliberately, by committing a
//! new `BENCH_<pr>.json`.

use crate::json::BenchReport;

/// Absolute slack added to every band edge so exact-zero and
/// bit-identical comparisons never fail on representation noise.
const EPS: f64 = 1e-9;

/// Two-sided band every metric is held to: fresh must satisfy
/// `fresh <= base * TIGHT_RATIO` and `fresh * TIGHT_RATIO >= base`.
const TIGHT_RATIO: f64 = 1.25;

/// The outcome of one baseline-vs-fresh comparison.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Metrics compared (present in both reports).
    pub checked: usize,
    /// One human-readable line per violation; empty means the gate passes.
    pub failures: Vec<String>,
}

impl GateReport {
    /// Whether the fresh report is within tolerance of the baseline.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compares `fresh` against `baseline`. See the module docs for the
/// policy. Never panics; all violations are reported as
/// [`GateReport::failures`].
pub fn compare(baseline: &BenchReport, fresh: &BenchReport) -> GateReport {
    let mut report = GateReport::default();
    if baseline.bench != fresh.bench {
        report.failures.push(format!(
            "bench name changed: baseline {:?}, fresh {:?}",
            baseline.bench, fresh.bench
        ));
    }
    for base in &baseline.results {
        let Some(new) = fresh.results.iter().find(|m| m.name == base.name) else {
            report
                .failures
                .push(format!("metric {:?} missing from the fresh report", base.name));
            continue;
        };
        report.checked += 1;
        if new.unit != base.unit {
            report.failures.push(format!(
                "metric {:?} changed unit: baseline {:?}, fresh {:?}",
                base.name, base.unit, new.unit
            ));
            continue;
        }
        let too_high = new.value > base.value * TIGHT_RATIO + EPS;
        let too_low = new.value * TIGHT_RATIO < base.value - EPS;
        if too_high || too_low {
            report.failures.push(format!(
                "{}: outside the ±{:.0}% band (baseline {} {}, fresh {})",
                base.name,
                (TIGHT_RATIO - 1.0) * 100.0,
                base.value,
                base.unit,
                new.value
            ));
        }
    }
    for new in &fresh.results {
        if baseline.metric(&new.name).is_none() {
            report.failures.push(format!(
                "metric {:?} is new — refresh the committed baseline to admit it",
                new.name
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> BenchReport {
        let mut r = BenchReport::new("service_trace");
        r.push("load_100/HIGH/p99", "us", 12_000.0);
        r.push("load_100/HIGH/missed_deadline", "count", 40.0);
        r.push("load_100/HIGH/hit_rate", "ratio", 0.31);
        r.push("load_100/sim_req_per_sec", "sim_req_per_sec", 61_000.0);
        r.push("zipf/plane_single", "req_per_sec", 50_000.0);
        r.push("zero/metric", "count", 0.0);
        r
    }

    #[test]
    fn identical_reports_pass() {
        let base = baseline();
        let report = compare(&base, &base.clone());
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.checked, base.results.len());
    }

    #[test]
    fn doubled_p99_fails_the_gate() {
        // The injected-regression negative test: a 2× p99 must be caught.
        let base = baseline();
        let mut fresh = base.clone();
        fresh.results[0].value = 24_000.0;
        let report = compare(&base, &fresh);
        assert!(!report.passed());
        assert!(
            report.failures[0].contains("load_100/HIGH/p99"),
            "{:?}",
            report.failures
        );
    }

    #[test]
    fn tight_band_is_two_sided() {
        // A metric collapsing to half its baseline is just as suspicious.
        let base = baseline();
        let mut fresh = base.clone();
        fresh.results[1].value = 10.0;
        assert!(!compare(&base, &fresh).passed());
    }

    #[test]
    fn simulated_throughput_stays_tight() {
        let base = baseline();
        let mut fresh = base.clone();
        fresh.results[3].value = 30_000.0; // sim halved: deterministic, fails
        assert!(!compare(&base, &fresh).passed());
        // No unit is exempt: a halved `req_per_sec` row fails the same way.
        let mut fresh = base.clone();
        fresh.results[4].value = 25_000.0;
        assert!(!compare(&base, &fresh).passed());
    }

    #[test]
    fn zero_to_zero_passes_and_zero_to_nonzero_fails() {
        let base = baseline();
        assert!(compare(&base, &base.clone()).passed());
        let mut fresh = base.clone();
        fresh.results[5].value = 3.0;
        assert!(!compare(&base, &fresh).passed());
    }

    #[test]
    fn metric_set_mismatches_fail_both_ways() {
        let base = baseline();
        let mut missing = base.clone();
        missing.results.pop();
        assert!(!compare(&base, &missing).passed());
        let mut extra = base.clone();
        extra.push("sneaky/new", "count", 1.0);
        assert!(!compare(&base, &extra).passed());
    }

    #[test]
    fn unit_changes_fail() {
        let base = baseline();
        let mut fresh = base.clone();
        fresh.results[0].unit = "ns".into();
        assert!(!compare(&base, &fresh).passed());
    }
}
