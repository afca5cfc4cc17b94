//! Workspace-level observability properties (see `docs/observability.md`):
//!
//! 1. **Clock injection is total** — a live service under a frozen
//!    [`ManualClock`] stamps *every* latency as zero: no code on the
//!    request path still reads the wall clock directly.
//! 2. **Timelines reconcile with replies** — in a deterministic replay,
//!    every reply's flight-recorder timeline has a stage breakdown that
//!    sums exactly to the latency the reply reported. The trace and the
//!    metrics are two views of one execution, not two estimates.
//! 3. **Snapshots are consistent at every sample point** — under live
//!    concurrent load, `cache_hits + cache_misses == completed + failed`
//!    holds per class in *every* snapshot, not just the final one
//!    (the batch-atomic commit contract).
//! 4. **The registry unifies heterogeneous sources** — service metrics
//!    and a finished rsoc simulation's counters land in one prefixed
//!    snapshot.

use std::sync::Arc;

use rqfa::core::QosClass;
use rqfa::service::replay::{CostModel, TraceArrival, TraceDriver};
use rqfa::service::{AllocationService, ServiceConfig, SharedClock, Ticket};
use rqfa::telemetry::{ManualClock, Registry};
use rqfa::workloads::{CaseGen, RequestGen, TrafficGen};

/// 1. With time frozen, every reply latency and every latency quantile is
///    zero, and every trace event lands at µs 0 — any stray `Instant::now()`
///    left on the request path would leak real elapsed time into one of them.
#[test]
fn frozen_manual_clock_zeroes_every_latency() {
    let case_base = CaseGen::new(8, 8, 6, 8).seed(0x0B5E).build();
    let requests = RequestGen::new(&case_base)
        .seed(0x0B5E + 1)
        .count(400)
        .repeat_fraction(0.3)
        .generate();
    let clock: SharedClock = Arc::new(ManualClock::new());
    let service = AllocationService::new(
        &case_base,
        &ServiceConfig::default()
            .with_shards(2)
            .with_queue_capacity(requests.len() + 1)
            .with_clock(clock)
            .with_trace_capacity(1 << 14),
    ).expect("valid service config");
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|r| service.submit(r.clone(), QosClass::High))
        .collect();
    for ticket in tickets {
        let reply = ticket.wait().expect("closed loop answers everything");
        assert_eq!(reply.latency_us, 0, "frozen clock must stamp zero latency");
    }
    let trace = service.drain_trace();
    assert!(trace.total > 0, "tracing was enabled");
    assert!(
        trace.events.iter().all(|e| e.at_us == 0),
        "every event is stamped from the injected clock"
    );
    let snap = service.shutdown();
    let high = snap.class(QosClass::High);
    assert_eq!(high.completed, 400);
    assert_eq!((high.p50_us, high.p99_us), (0, 0));
}

/// 2. Replay a saturating deadline-skewed trace and reconcile the two
///    observability planes: for every reply, the timeline's stage breakdown
///    sums to exactly the reported latency.
#[test]
fn replay_timeline_breakdowns_sum_to_reply_latencies() {
    let case_base = CaseGen::new(12, 12, 6, 8).seed(0x0B5F).build();
    let arrivals: Vec<TraceArrival> = TrafficGen::deadline_skewed(&case_base)
        .seed(0x0B5F)
        .duration_us(60_000)
        .generate()
        .into_iter()
        .map(|a| TraceArrival {
            at_us: a.at_us,
            class: a.class,
            deadline_us: a.deadline_us,
            request: a.request,
        })
        .collect();
    assert!(arrivals.len() > 200, "trace is non-trivial");
    let config = ServiceConfig::default()
        .with_shards(2)
        .with_batch_size(4)
        .with_queue_capacity(64)
        .with_trace_capacity(1 << 17);
    let driver = TraceDriver::new(&case_base, &config, CostModel::default());
    let report = driver.run(&arrivals);
    assert_eq!(report.trace.dropped, 0, "ring sized to keep every event");

    let timelines = report.trace.timelines();
    let mut reconciled = 0usize;
    for reply in &report.replies {
        let timeline = timelines
            .iter()
            .find(|t| t.request_id == reply.id)
            .expect("every reply has a timeline");
        let breakdown = timeline
            .breakdown()
            .expect("every timeline is terminal (replied or shed)");
        assert_eq!(
            breakdown.total_us(),
            reply.latency_us,
            "request {}: stages {:?} must sum to the recorded latency",
            reply.id,
            breakdown
        );
        reconciled += 1;
    }
    assert_eq!(reconciled, arrivals.len());
    // The breakdown is not degenerate: under saturation some request
    // spent real time queued.
    assert!(
        timelines
            .iter()
            .filter_map(rqfa::telemetry::RequestTimeline::breakdown)
            .any(|b| b.queue_us > 0),
        "a saturating trace must show queue wait somewhere"
    );
}

/// A clock that moves one µs per read: every clock read on the request
/// path becomes visible as a distinct tick, whatever the thread timing.
#[derive(Debug, Default)]
struct TickingClock(std::sync::atomic::AtomicU64);

impl rqfa::telemetry::Clock for TickingClock {
    fn now_us(&self) -> u64 {
        self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
    }
}

/// 2b. The kernel has a stage of its own. The worker stamps a batch twice
///     — at pickup and after the kernel call — so a computed reply's
///     timeline shows `service_us > 0` and its latency includes the kernel,
///     a store hit answers at the pickup stamp with `service_us == 0`, and
///     either way the stages still sum to the reported latency.
#[test]
fn live_timelines_carry_the_kernel_stage() {
    let case_base = CaseGen::new(6, 8, 6, 8).seed(0x0B60).build();
    let mut seen = std::collections::HashSet::new();
    let requests: Vec<_> = RequestGen::new(&case_base)
        .seed(0x0B61)
        .count(64)
        .repeat_fraction(0.0)
        .generate()
        .into_iter()
        .filter(|r| seen.insert(r.fingerprint()))
        .collect();
    let clock: SharedClock = Arc::new(TickingClock::default());
    let service = AllocationService::new(
        &case_base,
        &ServiceConfig::default()
            .with_clock(clock)
            .with_trace_capacity(1 << 14),
    )
    .expect("valid service config");
    // Two passes, each drained before the next: computed, then cached.
    let mut replies = Vec::new();
    for _ in 0..2 {
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| service.submit(r.clone(), QosClass::High))
            .collect();
        replies.extend(tickets.into_iter().map(|t| t.wait().expect("answered")));
    }
    let trace = service.drain_trace();
    assert_eq!(trace.dropped, 0);
    let timelines = trace.timelines();
    let (mut computed, mut cached) = (0, 0);
    for reply in &replies {
        let timeline = timelines
            .iter()
            .find(|t| t.request_id == reply.id)
            .expect("every reply has a timeline");
        let breakdown = timeline.breakdown().expect("terminal timeline");
        assert_eq!(breakdown.total_us(), reply.latency_us, "request {}", reply.id);
        match reply.outcome {
            rqfa::service::Outcome::Allocated { cached: false, .. } => {
                assert!(breakdown.service_us > 0, "request {}: {breakdown:?}", reply.id);
                computed += 1;
            }
            rqfa::service::Outcome::Allocated { cached: true, .. } => {
                assert_eq!(breakdown.service_us, 0, "request {}: {breakdown:?}", reply.id);
                cached += 1;
            }
            ref other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert_eq!((computed, cached), (requests.len(), requests.len()));
    service.shutdown();
}

/// 3. The batch-atomic commit gate: sample snapshots continuously while
///    four submitter threads drive the service, and require the cache/outcome
///    identity — and the hand-over's `wakes <= parks` — to hold in every
///    single sample.
#[test]
fn snapshots_are_consistent_at_every_sample_point() {
    let case_base = CaseGen::new(10, 10, 6, 8).seed(0x0B60).build();
    let requests = RequestGen::new(&case_base)
        .seed(0x0B60 + 1)
        .count(1_500)
        .repeat_fraction(0.3)
        .generate();
    let service = Arc::new(AllocationService::new(
        &case_base,
        &ServiceConfig::default()
            .with_shards(2)
            .with_batch_size(4)
            .with_queue_capacity(requests.len() * 4 + 1),
    ).expect("valid service config"));

    let submitters: Vec<_> = (0..4)
        .map(|_| {
            let service = Arc::clone(&service);
            let requests = requests.clone();
            std::thread::spawn(move || {
                let tickets: Vec<Ticket> = requests
                    .iter()
                    .map(|r| service.submit(r.clone(), QosClass::Medium))
                    .collect();
                for ticket in tickets {
                    ticket.wait().expect("closed loop answers everything");
                }
            })
        })
        .collect();

    let mut samples = 0u32;
    let expected = (requests.len() * 4) as u64;
    loop {
        let snap = service.metrics();
        for class in QosClass::ALL {
            let c = snap.class(class);
            assert_eq!(
                c.cache_hits + c.cache_misses,
                c.completed + c.failed,
                "{class} snapshot #{samples}: every dispatched request probes \
                 the cache exactly once, atomically with its outcome"
            );
            assert!(
                c.completed + c.failed + c.shed() <= c.submitted,
                "{class} snapshot #{samples}: outcomes never outrun submissions"
            );
        }
        assert!(
            snap.worker_wakes <= snap.worker_parks,
            "snapshot #{samples}: {} wakes for {} parks — a park is woken at most once",
            snap.worker_wakes,
            snap.worker_parks
        );
        samples += 1;
        if snap.completed() == expected {
            break;
        }
        std::thread::yield_now();
    }
    for t in submitters {
        t.join().unwrap();
    }
    assert!(samples > 1, "the loop sampled the service mid-flight");
    Arc::into_inner(service)
        .expect("submitters joined, last reference")
        .shutdown();
}

/// 4. One registry snapshot spans the service and a finished rsoc run.
#[test]
fn registry_unifies_service_and_rsoc_sources() {
    let case_base = CaseGen::new(6, 6, 5, 6).seed(0x0B61).build();
    let requests = RequestGen::new(&case_base).seed(7).count(50).generate();
    let service = AllocationService::new(
        &case_base,
        &ServiceConfig::default().with_queue_capacity(64),
    ).expect("valid service config");
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|r| service.submit(r.clone(), QosClass::Low))
        .collect();
    for ticket in tickets {
        ticket.wait().expect("answered");
    }

    let registry = Registry::new();
    service.register_metrics(&registry, "service");
    let sim = rqfa::rsoc::Metrics {
        requests: 12,
        accepted: 9,
        ..rqfa::rsoc::Metrics::default()
    };
    registry.register("rsoc", Arc::new(sim) as Arc<dyn rqfa::telemetry::MetricSource>);

    let snapshot = registry.snapshot();
    let value = |name: &str| {
        snapshot
            .samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("missing sample {name}"))
            .value
    };
    assert_eq!(value("service/LOW/completed"), 50.0);
    assert_eq!(value("rsoc/requests"), 12.0);
    assert_eq!(value("rsoc/accepted"), 9.0);
    service.shutdown();
}

/// 5. Net-plane events ride along without breaking reconciliation — a
///    remote-backed flow merges the node's pipeline trace with the
///    client's frame trace under one request id, and every timeline's
///    stage breakdown *still* sums exactly to the reply's latency (the
///    non-ladder frame kinds are accounted, never double-counted).
#[test]
fn net_plane_events_keep_timelines_telescoping() {
    use rqfa::core::placement::{NodeId, NodeMap};
    use rqfa::net::RetryPolicy;
    use rqfa::service::remote::{ClusterClient, NodeServer, RemoteShard};
    use rqfa::telemetry::{EventKind, FlightRecorder, TraceDump};
    use std::time::Duration;

    let clock: SharedClock = Arc::new(ManualClock::new());
    let case_base = CaseGen::new(6, 5, 4, 6).seed(0x0B62).build();
    let service = Arc::new(
        AllocationService::new(
            &case_base,
            &ServiceConfig::default()
                .with_shards(1)
                .with_cache_capacity(0)
                .with_trace_capacity(1 << 14)
                .with_clock(Arc::clone(&clock)),
        )
        .expect("valid service config"),
    );
    let server = NodeServer::spawn(Arc::clone(&service)).expect("loopback bind");
    let recorder = Arc::new(FlightRecorder::new(1 << 12));
    let remote = RemoteShard::tcp(
        server.addr(),
        Duration::from_millis(500),
        RetryPolicy::loopback(),
    )
    .with_recorder(Arc::clone(&recorder), Arc::clone(&clock));
    let client = ClusterClient::new(Box::new(NodeMap::new(vec![Some(NodeId::new(0))])), None);
    client.set_node(NodeId::new(0), remote);

    // Sequential submits against a single node: the cluster's ids and
    // the node service's internal job ids advance in lockstep from 0, so
    // the two traces key the same flows by the same id.
    let requests = RequestGen::new(&case_base).seed(0x0B63).count(40).generate();
    let replies: Vec<_> = requests
        .into_iter()
        .map(|r| client.submit(r, QosClass::Medium))
        .collect();

    let merged = TraceDump::merge([service.drain_trace(), recorder.drain()]);
    assert_eq!(merged.dropped, 0, "rings sized to keep every event");
    let timelines = merged.timelines();
    for reply in &replies {
        assert!(
            matches!(reply.outcome, rqfa::service::Outcome::Allocated { .. }),
            "request {}: {:?}",
            reply.id,
            reply.outcome
        );
        let timeline = timelines
            .iter()
            .find(|t| t.request_id == reply.id)
            .expect("every reply has a merged timeline");
        // The wire is *in* the timeline…
        let sent = timeline
            .events
            .iter()
            .filter(|e| e.kind == EventKind::FrameSent)
            .count();
        let received = timeline
            .events
            .iter()
            .filter(|e| e.kind == EventKind::FrameReceived)
            .count();
        assert_eq!((sent, received), (1, 1), "request {}: one clean exchange", reply.id);
        // …and the breakdown still telescopes to the reported latency.
        let breakdown = timeline
            .breakdown()
            .expect("every timeline is terminal");
        assert_eq!(
            breakdown.total_us(),
            reply.latency_us,
            "request {}: net-plane events must not perturb the stage sum",
            reply.id
        );
    }
    // A clean loopback never retried or timed out.
    assert!(
        !merged
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::FrameRetried | EventKind::FrameTimedOut)),
        "clean transport shows no retry/timeout events"
    );
    server.shutdown();
}
