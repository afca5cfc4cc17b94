//! Service demo: drive the sharded, QoS-class-aware allocation service
//! with the open-loop traffic generator, then teach it a better variant at
//! run time and watch the cache invalidate.
//!
//! Run with: `cargo run --release --example service_demo`

use std::time::Duration;

use rqfa::core::{paper, QosClass};
use rqfa::service::{AllocationService, Outcome, ServiceConfig};
use rqfa::workloads::{CaseGen, TrafficGen};

/// How long a LOW request may wait before it is shed at dispatch.
const LOW_DEADLINE: Duration = Duration::from_millis(2);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A mid-sized platform library and a 2-shard service over it.
    //    Shard 0 owns the even type ids, shard 1 the odd ones; each has
    //    its own worker thread, queue, engine and result cache.
    let case_base = CaseGen::new(12, 10, 6, 8).seed(42).build();
    let service = AllocationService::new(
        &case_base,
        &ServiceConfig::default()
            .with_shards(2)
            .with_queue_capacity(256),
    ).expect("valid service config");

    // 2. 100 ms of open-loop Poisson traffic across the four QoS classes
    //    (CRITICAL thin, LOW bulky — the fig. 1 mix writ large).
    let arrivals = TrafficGen::new(&case_base)
        .seed(7)
        .duration_us(100_000)
        .repeat_fraction(0.4)
        .generate();
    println!("replaying {} arrivals through 2 shards…", arrivals.len());
    for arrival in &arrivals {
        // Open loop: fire and forget; the metrics tell the story. Bulk
        // LOW work is only worth serving within 2 ms.
        let request = arrival.request.clone();
        let _ = match arrival.class {
            QosClass::Low => service.submit_with_deadline(request, arrival.class, LOW_DEADLINE),
            class => service.submit(request, class),
        };
    }

    // 3. While the floods drain, a single HIGH request with a ticket we
    //    actually wait on (the paper's Table 1 example, on its own
    //    service over the paper case base).
    let paper_service = AllocationService::new(
        &paper::table1_case_base(),
        &ServiceConfig::default(),
    ).expect("valid service config");
    let reply = paper_service
        .submit(paper::table1_request()?, QosClass::High)
        .wait()
        .expect("service answers");
    if let Outcome::Allocated { best, cached, .. } = &reply.outcome {
        println!(
            "\nTable 1 request → {} (S = {}), cached: {cached}, {} µs",
            best.impl_id, best.similarity, reply.latency_us
        );
        assert_eq!(best.impl_id, paper::IMPL_DSP); // the DSP wins, as in the paper
    }

    // 4. Run-time learning: retain a perfect-match FPGA variant. The
    //    shard's generation counter bumps, invalidating its cache.
    let perfect = rqfa::core::ImplVariant::new(
        rqfa::core::ImplId::new(9)?,
        rqfa::core::ExecutionTarget::Fpga,
        vec![
            rqfa::core::AttrBinding::new(paper::ATTR_BITWIDTH, 16),
            rqfa::core::AttrBinding::new(paper::ATTR_OUTPUT, 1),
            rqfa::core::AttrBinding::new(paper::ATTR_RATE, 40),
        ],
    )?;
    paper_service.retain_variant(paper::FIR_EQUALIZER, perfect)?;
    let reply = paper_service
        .submit(paper::table1_request()?, QosClass::High)
        .wait()
        .expect("service answers");
    if let Outcome::Allocated { best, cached, .. } = &reply.outcome {
        println!(
            "after retain     → {} (S = {}), cached: {cached} (cache invalidated)",
            best.impl_id, best.similarity
        );
        assert_eq!(best.impl_id.raw(), 9); // the learned variant wins now
        assert!(!cached);
    }
    paper_service.shutdown();

    // 5. Drain the traffic service and print the per-class QoS report.
    let snapshot = service.shutdown();
    println!("\nper-class service report:\n{snapshot}");
    assert_eq!(
        snapshot.class(QosClass::Critical).shed(),
        0,
        "CRITICAL is never shed"
    );
    Ok(())
}
