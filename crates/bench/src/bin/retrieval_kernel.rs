//! Experiment E14 — the compiled retrieval plane vs the naive scan
//! engine, on the saturating zipf trace (the perf-trajectory anchor).
//!
//! Sections:
//!
//! 1. **Verification pass** — before any timing, plane and naive answers
//!    are compared bit-for-bit over the whole trace (winner and evaluated
//!    count, every request). A perf number for a wrong kernel is worse
//!    than no number.
//! 2. **Single-request throughput** — `FixedEngine::retrieve` vs
//!    `PlaneEngine::retrieve` over the zipf trace, best of `TRIALS`.
//!    Acceptance (CI perf-smoke lane): plane ≥ naive. The committed
//!    trajectory (`BENCH_<pr>.json`) records the actual margin (≥ 2× at
//!    PR 5 time).
//! 3. **Batch throughput** — `retrieve_batch` vs `retrieve_batch_into`
//!    at batch 32 (the service's dispatch shape).
//! 4. **Kernel-path A/B** — the same single-request sweep on a
//!    `ForceScalar` engine, so the wide (SIMD) margin over the scalar
//!    streaming kernel is measured directly. On hosts without the CPU
//!    feature both engines resolve to scalar and the ratio is ≈ 1.
//! 5. **Scan group** — the zipf trace's 24-variant types are two
//!    lane-steps long, so it times the per-request fixed cost and cannot
//!    see a streaming kernel. `scan/*` repeats sections 1, 2, 3 and 4 on
//!    the benchmark's `local_scan` shape: 16 types × 512 variants and
//!    20 000 non-repeating requests, verified bit-for-bit first. It also
//!    reports how many of a type's 32 lane-steps the top-1 walk scored
//!    per request (`scan/steps_scored_per_req`) and the single-request
//!    time (`scan/plane_single_ns_per_req`), on whichever path the run
//!    pins.
//!
//! `--scalar` pins *every* plane engine in the run (including the
//! verification pass) to the scalar kernel — the CI fallback lane runs
//! this to prove the bench and its acceptance assertions hold with the
//! wide path force-disabled.
//!
//! `cargo run --release -p rqfa-bench --bin retrieval_kernel [-- --json <path>] [-- --scalar]`

use std::time::Instant;

use rqfa_bench::json::BenchReport;
use rqfa_core::{CaseBase, FixedEngine, KernelPath, PlaneEngine, Request};
use rqfa_workloads::{CaseGen, RequestGen, TrafficGen};

const TRIALS: usize = 3;
const BATCH: usize = 32;

fn main() {
    let (json_path, flags) = rqfa_bench::args_with_flags(&["--scalar"]);
    let kernel = if flags[0] {
        KernelPath::ForceScalar
    } else {
        KernelPath::Auto
    };
    println!("E14. Compiled retrieval plane vs naive scan\n");
    let case_base = CaseGen::new(24, 24, 8, 10).seed(0xE14).build();
    println!(
        "case base: {} types × ~{} variants (total {}), {} attr types",
        case_base.type_count(),
        case_base.variant_count() / case_base.type_count(),
        case_base.variant_count(),
        case_base.bounds().len()
    );
    let zipf: Vec<Request> = TrafficGen::zipf_skewed(&case_base)
        .seed(0xE141)
        .duration_us(4_000_000)
        .generate()
        .into_iter()
        .map(|a| a.request)
        .collect();
    println!("zipf trace: {} requests (universe 2048, exponent 1.1)\n", zipf.len());

    let mut report = BenchReport::new("retrieval_kernel");
    #[allow(clippy::cast_precision_loss)]
    report.push("zipf/requests", "count", zipf.len() as f64);

    verify(&case_base, &zipf, kernel);

    // ── single-request throughput ─────────────────────────────────────
    let naive_engine = FixedEngine::new();
    let naive_single = naive_single_rate(&case_base, &zipf);
    let mut plane_engine = PlaneEngine::with_kernel(kernel);
    println!(
        "kernel path: {} (wide available on this host: {})\n",
        plane_engine.kernel_path(),
        rqfa_core::wide_kernel_available()
    );
    let plane_single = plane_single_rate(&mut plane_engine, &case_base, &zipf);
    print_pair("single request", naive_single, plane_single);
    report.push("zipf/naive_single", "req_per_sec", naive_single);
    report.push("zipf/plane_single", "req_per_sec", plane_single);
    report.push("zipf/speedup_single", "ratio", plane_single / naive_single);

    // ── batch throughput (the service dispatch shape) ─────────────────
    let batches: Vec<Vec<&Request>> = zipf.chunks(BATCH).map(|c| c.iter().collect()).collect();
    let naive_batch = best_rate(zipf.len(), || {
        for batch in &batches {
            std::hint::black_box(naive_engine.retrieve_batch(&case_base, batch));
        }
    });
    let plane_batch = plane_batch_rate(&mut plane_engine, &case_base, &zipf);
    print_pair(&format!("batch {BATCH}"), naive_batch, plane_batch);
    report.push("zipf/naive_batch32", "req_per_sec", naive_batch);
    report.push("zipf/plane_batch32", "req_per_sec", plane_batch);
    report.push("zipf/speedup_batch32", "ratio", plane_batch / naive_batch);

    // ── kernel-path A/B (wide vs forced-scalar streaming) ─────────────
    let mut scalar_engine = PlaneEngine::with_kernel(KernelPath::ForceScalar);
    let scalar_single = plane_single_rate(&mut scalar_engine, &case_base, &zipf);
    println!(
        "\nkernel A/B      scalar {scalar_single:>11.0} req/s   {:>6} {plane_single:>11.0} req/s   ({}×)",
        plane_engine.kernel_path(),
        fmt_ratio(plane_single / scalar_single)
    );
    report.push(
        "kernel/wide_available",
        "count",
        f64::from(u8::from(rqfa_core::wide_kernel_available())),
    );
    report.push("kernel/scalar_single", "req_per_sec", scalar_single);
    report.push("kernel/wide_over_scalar", "ratio", plane_single / scalar_single);

    // ── scan group (long type planes: the streaming kernel's trace) ───
    let scan_base = CaseGen::new(16, 512, 10, 10).seed(0xE17).build();
    let scan: Vec<Request> = RequestGen::new(&scan_base)
        .seed(0xE171)
        .count(20_000)
        .repeat_fraction(0.0)
        .generate();
    println!(
        "\nscan base: {} types × {} variants, {} non-repeating requests",
        scan_base.type_count(),
        scan_base.variant_count() / scan_base.type_count(),
        scan.len()
    );
    let steps_per_req = verify(&scan_base, &scan, kernel);
    // Fresh engines: one engine serves one case-base lineage.
    let mut scan_engine = PlaneEngine::with_kernel(kernel);
    let scan_naive = naive_single_rate(&scan_base, &scan);
    let scan_single = plane_single_rate(&mut scan_engine, &scan_base, &scan);
    let scan_batch = plane_batch_rate(&mut scan_engine, &scan_base, &scan);
    let scan_scalar = plane_single_rate(
        &mut PlaneEngine::with_kernel(KernelPath::ForceScalar),
        &scan_base,
        &scan,
    );
    let scan_ns = 1.0e9 / scan_single;
    print_pair("scan single", scan_naive, scan_single);
    print_pair(&format!("scan batch {BATCH}"), scan_naive, scan_batch);
    println!(
        "scan kernel A/B scalar {scan_scalar:>11.0} req/s   {:>6} {scan_single:>11.0} req/s   ({}×)",
        plane_engine.kernel_path(),
        fmt_ratio(scan_single / scan_scalar)
    );
    #[allow(clippy::cast_precision_loss)]
    let steps_per_type = (scan_base.variant_count() / scan_base.type_count()).div_ceil(16) as f64;
    println!(
        "scan walk       {steps_per_req:.2} of {steps_per_type:.0} lane-steps scored per request, \
         {scan_ns:.0} ns/request ({})",
        scan_engine.kernel_path()
    );
    report.push("scan/naive_single", "req_per_sec", scan_naive);
    report.push("scan/plane_single", "req_per_sec", scan_single);
    report.push("scan/plane_batch32", "req_per_sec", scan_batch);
    report.push("scan/scalar_single", "req_per_sec", scan_scalar);
    report.push("scan/wide_over_scalar", "ratio", scan_single / scan_scalar);
    report.push("scan/steps_scored_per_req", "count", steps_per_req);
    report.push("scan/plane_single_ns_per_req", "ns", scan_ns);

    // Acceptance. The zipf margin is deliberately generous (≥ 1×: the
    // plane must never be slower) so CI noise cannot flake the lane; the
    // committed BENCH_<pr>.json records the real ≥ 2× margin.
    assert!(
        plane_single >= naive_single,
        "plane single-request throughput regressed below naive \
         ({plane_single:.0} < {naive_single:.0} req/s)"
    );
    println!(
        "\nverdict: plane ≥ naive ({}× single, {}× batch) ✓",
        fmt_ratio(plane_single / naive_single),
        fmt_ratio(plane_batch / naive_batch),
    );

    if let Some(path) = json_path {
        report
            .write_validated(&path)
            .expect("bench report must validate against rqfa-bench/v1");
        println!("json report: {} (schema valid)", path.display());
    }
}

/// Bit-identity check over the whole trace before any timing, on the
/// same kernel path the timed sections will use. Returns the lane-steps
/// the top-1 walk scored per request.
fn verify(case_base: &CaseBase, trace: &[Request], kernel: KernelPath) -> f64 {
    let naive = FixedEngine::new();
    let mut plane = PlaneEngine::with_kernel(kernel);
    for (i, request) in trace.iter().enumerate() {
        let n = naive.retrieve(case_base, request).unwrap();
        let p = plane.retrieve(case_base, request).unwrap();
        assert_eq!(n.best, p.best, "winner diverged at request {i}");
        assert_eq!(n.evaluated, p.evaluated);
    }
    println!("verification: plane ≡ naive over {} requests ✓\n", trace.len());
    #[allow(clippy::cast_precision_loss)]
    {
        plane.steps_scored() as f64 / trace.len() as f64
    }
}

/// `FixedEngine::retrieve` over `trace`, one request per call.
fn naive_single_rate(case_base: &CaseBase, trace: &[Request]) -> f64 {
    let naive = FixedEngine::new();
    best_rate(trace.len(), || {
        for request in trace {
            std::hint::black_box(naive.retrieve(case_base, request).unwrap());
        }
    })
}

/// `PlaneEngine::retrieve` over `trace`, one request per call (the plane
/// is compiled before the clock starts).
fn plane_single_rate(engine: &mut PlaneEngine, case_base: &CaseBase, trace: &[Request]) -> f64 {
    engine.retrieve(case_base, &trace[0]).unwrap();
    best_rate(trace.len(), || {
        for request in trace {
            std::hint::black_box(engine.retrieve(case_base, request).unwrap());
        }
    })
}

/// `PlaneEngine::retrieve_batch_into` over `trace` in batches of `BATCH`
/// (the service's dispatch shape).
fn plane_batch_rate(engine: &mut PlaneEngine, case_base: &CaseBase, trace: &[Request]) -> f64 {
    let batches: Vec<Vec<&Request>> = trace.chunks(BATCH).map(|c| c.iter().collect()).collect();
    let mut out = Vec::new();
    engine.retrieve_batch_into(case_base, &batches[0], &mut out);
    best_rate(trace.len(), || {
        for batch in &batches {
            engine.retrieve_batch_into(case_base, batch, &mut out);
            std::hint::black_box(out.len());
        }
    })
}

fn best_rate(requests: usize, mut body: impl FnMut()) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..TRIALS {
        let start = Instant::now();
        body();
        let secs = start.elapsed().as_secs_f64();
        #[allow(clippy::cast_precision_loss)]
        let rate = if secs > 0.0 {
            requests as f64 / secs
        } else {
            f64::MAX
        };
        best = best.max(rate);
    }
    best
}

fn print_pair(label: &str, naive: f64, plane: f64) {
    println!(
        "{label:<16} naive {naive:>12.0} req/s   plane {plane:>12.0} req/s   ({}×)",
        fmt_ratio(plane / naive)
    );
}

fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}")
}
