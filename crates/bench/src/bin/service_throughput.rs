//! Experiment E13 — allocation-service throughput vs shard count, and the
//! QoS behaviour of the batching scheduler under an open-loop load.
//!
//! Two sweeps:
//!
//! 1. **Closed-loop saturation**: submit a fixed request block as fast as
//!    the front-end can, wait for every reply, report requests/second for
//!    1, 2 and 4 shards (best of `TRIALS` trials to shave scheduler
//!    noise). Acceptance: throughput is monotonically non-decreasing in
//!    shards, within `NOISE_BAND`.
//! 2. **Open-loop QoS**: replay a Poisson per-class traffic mix through a
//!    deliberately undersized queue and print the per-class service
//!    report (p50/p99, hit rate, shed counts) — CRITICAL must end with
//!    zero sheds.
//!
//! `cargo run --release -p rqfa-bench --bin service_throughput [-- --json <path>]`
//!
//! With `--json <path>` the closed-loop numbers (direct and per-shard-count
//! req/s, hit rates) are additionally emitted as an `rqfa-bench/v1`
//! report.

use std::time::Instant;

use rqfa_bench::json::BenchReport;
use rqfa_core::{CaseBase, FixedEngine, QosClass};
use rqfa_service::{AllocationService, ServiceConfig, Ticket};
use rqfa_workloads::{CaseGen, RequestGen, TrafficGen};

const TRIALS: usize = 5;
const REQUESTS: usize = 30_000;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// Tolerated per-step throughput dip. On a single-core host the shard
/// workers time-slice one CPU, so scaling is flat and scheduler noise
/// dominates; the band keeps the monotonicity verdict about structure
/// (sharding must not *cost* throughput), not about timer jitter.
const NOISE_BAND: f64 = 0.90;

fn main() {
    let json_path = rqfa_bench::json_path_from_args();
    let mut report = BenchReport::new("service_throughput");
    println!("E13. Allocation service: throughput vs shards, QoS under load\n");
    let case_base = CaseGen::new(24, 24, 8, 10).seed(0xE13).build();
    println!(
        "case base: {} types × ~{} variants (total {})",
        case_base.type_count(),
        case_base.variant_count() / case_base.type_count(),
        case_base.variant_count()
    );
    let requests = RequestGen::new(&case_base)
        .seed(0xBEEF)
        .count(REQUESTS)
        .repeat_fraction(0.3)
        .generate();
    println!("workload: {REQUESTS} requests, 30% exact repeats (cache traffic)");
    println!(
        "host parallelism: {} core(s)\n",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );

    // Baseline: the single-shot engine, no service layer at all.
    let engine = FixedEngine::new();
    let start = Instant::now();
    for request in &requests {
        std::hint::black_box(engine.retrieve(&case_base, request).unwrap());
    }
    let direct = per_sec(REQUESTS, start.elapsed().as_secs_f64());
    println!("direct FixedEngine (no queue, no cache): {direct:>10.0} req/s\n");
    report.push("closed_loop/direct_engine", "req_per_sec", direct);

    println!("closed-loop saturation (best of {TRIALS} trials):");
    println!("{:<8} {:>12} {:>10} {:>8}", "shards", "req/s", "hit %", "vs 1");
    let mut last = 0.0f64;
    let mut base = 0.0f64;
    let mut monotone = true;
    for shards in SHARD_COUNTS {
        let (rate, hit_rate) = best_trial(&case_base, &requests, shards);
        report.push(format!("closed_loop/shards_{shards}"), "req_per_sec", rate);
        report.push(format!("closed_loop/hit_rate_shards_{shards}"), "ratio", hit_rate);
        if base == 0.0 {
            base = rate;
        }
        monotone &= rate >= last * NOISE_BAND;
        last = rate;
        println!(
            "{:<8} {:>12.0} {:>9.1}% {:>7.2}×",
            shards,
            rate,
            hit_rate * 100.0,
            rate / base
        );
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let band_pct = ((1.0 - NOISE_BAND) * 100.0).round() as u32;
    println!(
        "monotone non-decreasing (±{band_pct}% noise band): {}\n",
        if monotone { "yes" } else { "NO" }
    );

    open_loop_qos(&case_base);

    if let Some(path) = json_path {
        report
            .write_validated(&path)
            .expect("bench report must validate against rqfa-bench/v1");
        println!("\njson report: {} (schema valid)", path.display());
    }
}

/// One closed-loop trial: submit everything, wait for everything.
fn trial(case_base: &CaseBase, requests: &[rqfa_core::Request], shards: usize) -> (f64, f64) {
    let service = AllocationService::new(
        case_base,
        &ServiceConfig::default()
            .with_shards(shards)
            .with_queue_capacity(REQUESTS + 1), // closed loop: nothing shed
    ).expect("valid service config");
    let start = Instant::now();
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|r| service.submit(r.clone(), QosClass::Medium))
        .collect();
    for ticket in tickets {
        ticket.wait().expect("every request answered");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let snap = service.shutdown();
    assert_eq!(snap.shed(), 0, "closed loop must not shed");
    (
        per_sec(requests.len(), elapsed),
        snap.class(QosClass::Medium).hit_rate(),
    )
}

fn best_trial(case_base: &CaseBase, requests: &[rqfa_core::Request], shards: usize) -> (f64, f64) {
    (0..TRIALS)
        .map(|_| trial(case_base, requests, shards))
        .fold((0.0, 0.0), |best, t| if t.0 > best.0 { t } else { best })
}

/// Open-loop Poisson mix through an undersized queue: the QoS report.
fn open_loop_qos(case_base: &CaseBase) {
    println!("open-loop QoS mix (Poisson, 200/1k/2k/4k req/s, 200 ms, tiny queue):");
    let arrivals = TrafficGen::new(case_base)
        .seed(0x9005)
        .duration_us(200_000)
        .repeat_fraction(0.3)
        .generate();
    let service = AllocationService::new(
        case_base,
        &ServiceConfig::default()
            .with_shards(2)
            .with_queue_capacity(64)
            .with_deadline_budget_us(QosClass::Medium, 5_000)
            .with_deadline_budget_us(QosClass::Low, 1_000),
    ).expect("valid service config");
    // Replay with arrival pacing so the Poisson structure survives.
    let start = Instant::now();
    for arrival in &arrivals {
        while (start.elapsed().as_micros() as u64) < arrival.at_us {
            std::hint::spin_loop();
        }
        let _ = service.submit(arrival.request.clone(), arrival.class);
    }
    let snap = service.shutdown();
    print!("{snap}");
    assert_eq!(
        snap.class(QosClass::Critical).shed(),
        0,
        "CRITICAL must never be shed"
    );
    println!("\nCRITICAL sheds: 0 (guaranteed by construction)");
}

fn per_sec(n: usize, secs: f64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    if secs > 0.0 {
        n as f64 / secs
    } else {
        f64::INFINITY
    }
}
