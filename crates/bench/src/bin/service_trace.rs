//! Experiment E15 — the committed perf trajectory: per-class QoS curves
//! of the allocation service over a load sweep, produced by the
//! *deterministic* replay driver so the numbers are bit-identical across
//! runs and machines and the CI gate can hold a tight band on them.
//!
//! The workload is a deadline-skewed, zipf-popular open-loop mix (wide
//! per-request deadline spread within each sheddable class, a 2048-payload
//! zipf-1.1 pool for cache traffic) replayed through the real service
//! pipeline — real admission/displacement, real EDF lanes + promotion,
//! real result cache, real plane kernel — under a `ManualClock` and the
//! default [`CostModel`] (50 µs dispatch + 25 µs/request). Three load
//! points bracket saturation (two shards × batch 8 ≈ 64k req/s capacity):
//! 0.6× is comfortably inside, 1.0× rides the edge, 1.4× is overload
//! where shed/deadline behaviour dominates.
//!
//! Every replay runs **twice** and the driver asserts the two reports are
//! identical before anything is written — the determinism claim is
//! checked on every invocation, not just in unit tests.
//!
//! `cargo run --release -p rqfa-bench --bin service_trace [-- --json <path>]`
//!
//! With `--json BENCH_<pr>.json` this emits the trajectory artifact the
//! repository commits; `bench_gate` compares a fresh run against it.

use rqfa_bench::json::BenchReport;
use rqfa_bench::push_samples;
use rqfa_core::{CaseBase, QosClass};
use rqfa_service::replay::{CostModel, TraceArrival, TraceDriver, TraceReport};
use rqfa_service::ServiceConfig;
use rqfa_telemetry::Sample;
use rqfa_workloads::{CaseGen, TrafficGen};

/// Load multipliers applied to the base per-class rates, with the metric
/// prefix each point publishes under.
const LOADS: [(&str, f64); 3] = [("load_060", 0.6), ("load_100", 1.0), ("load_140", 1.4)];

/// Base per-class arrival rates, req/s — sums to ~64k req/s, the nominal
/// capacity of the replayed fabric at the default cost model.
const BASE_RATES: [(QosClass, f64); 4] = [
    (QosClass::Critical, 2_000.0),
    (QosClass::High, 10_000.0),
    (QosClass::Medium, 20_000.0),
    (QosClass::Low, 32_000.0),
];

const DURATION_US: u64 = 250_000;

fn trace(case_base: &CaseBase, scale: f64) -> Vec<TraceArrival> {
    let mut gen = TrafficGen::deadline_skewed(case_base)
        .seed(0xE15)
        .duration_us(DURATION_US)
        .popularity(rqfa_workloads::Popularity::Zipf {
            universe: 2048,
            exponent: 1.1,
        });
    for (class, rate) in BASE_RATES {
        gen = gen.rate_per_sec(class, rate * scale);
    }
    gen.generate()
        .into_iter()
        .map(|a| TraceArrival {
            at_us: a.at_us,
            class: a.class,
            deadline_us: a.deadline_us,
            request: a.request,
        })
        .collect()
}

/// Runs one load point twice and asserts the replays are bit-identical.
fn run_twice(driver: &TraceDriver, arrivals: &[TraceArrival]) -> TraceReport {
    let first = driver.run(arrivals);
    let second = driver.run(arrivals);
    assert_eq!(first.replies, second.replies, "replay must be deterministic");
    assert_eq!(first.metrics, second.metrics, "metrics must be deterministic");
    assert_eq!(
        first.trace.events, second.trace.events,
        "trace must be deterministic"
    );
    first
}

/// Simulated end-of-run instant: the newest trace event (the ring keeps
/// the newest events, so drops cannot move this).
fn sim_end_us(report: &TraceReport) -> u64 {
    report
        .trace
        .events
        .iter()
        .map(|e| e.at_us)
        .max()
        .unwrap_or(0)
        .max(1)
}

fn main() {
    let json_path = rqfa_bench::json_path_from_args();
    let mut report = BenchReport::new("service_trace");
    println!("E15. Deterministic QoS trajectory (replayed service, manual clock)\n");
    let case_base = CaseGen::new(24, 24, 8, 10).seed(0xE15).build();
    let config = ServiceConfig::default()
        .with_shards(2)
        .with_batch_size(8)
        .with_queue_capacity(128)
        .with_promotion_margin_us(2_000)
        .with_cache_capacity(256)
        .with_trace_capacity(1 << 16);
    let cost = CostModel::default();
    println!(
        "fabric: 2 shards × batch 8, EDF + promotion, cache 256; \
         cost {} µs dispatch + {} µs/request (≈64k req/s capacity)",
        cost.dispatch_overhead_us, cost.per_request_us
    );
    println!("workload: deadline-skewed zipf mix, {} ms per load point\n", DURATION_US / 1_000);
    let driver = TraceDriver::new(&case_base, &config, cost);

    for (prefix, scale) in LOADS {
        let arrivals = trace(&case_base, scale);
        let result = run_twice(&driver, &arrivals);
        let end_us = sim_end_us(&result);
        #[allow(clippy::cast_precision_loss)]
        let sim_rate = result.metrics.completed() as f64 / (end_us as f64 / 1e6);
        println!(
            "load {scale:.1}× — {} arrivals, {} completed, {} shed, \
             {:.0} sim req/s over {:.1} sim ms (replayed twice, identical):",
            arrivals.len(),
            result.metrics.completed(),
            result.metrics.shed(),
            sim_rate,
            end_us as f64 / 1e3,
        );
        print!("{}", result.metrics);
        println!();

        let mut samples: Vec<Sample> = Vec::new();
        result.metrics.collect(&mut samples);
        push_samples(&mut report, prefix, &samples);
        report.push(
            format!("{prefix}/sim_req_per_sec"),
            "sim_req_per_sec",
            sim_rate,
        );
        #[allow(clippy::cast_precision_loss)]
        {
            report.push(
                format!("{prefix}/trace/events"),
                "count",
                result.trace.events.len() as f64,
            );
            report.push(
                format!("{prefix}/trace/dropped"),
                "count",
                result.trace.dropped as f64,
            );
        }
    }

    if let Some(path) = json_path {
        report
            .write_validated(&path)
            .expect("bench report must validate against rqfa-bench/v1");
        println!("json report: {} (schema valid)", path.display());
    }
}
