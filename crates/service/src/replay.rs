//! Deterministic trace replay through the real service pipeline.
//!
//! The live [`AllocationService`](crate::AllocationService) is
//! intentionally concurrent: worker threads race the submitters, so two
//! runs of the same workload interleave differently and produce different
//! latency histograms. That is correct for production and useless for a
//! regression trajectory. [`TraceDriver`] removes exactly the two sources
//! of nondeterminism — threads and the wall clock — and keeps everything
//! else: it drives the very `ShardCore` the live worker threads drive —
//! arrivals enter through [`ClassQueue::admit`](crate::queue::ClassQueue::admit)
//! (same admission limits, displacement, EDF lanes, weighted arbiter)
//! and batches run through the same `step` (same cache, plane kernel,
//! metrics commit), all
//! under a [`ManualClock`] advanced by a single-threaded discrete-event
//! loop.
//!
//! ## Event model
//!
//! Time advances only to the next *event*: an arrival instant from the
//! trace, or the instant a busy shard becomes free. At each event time
//! `t`, arrivals at `t` are submitted first, then every shard that is
//! free and backlogged dispatches one batch. A dispatched batch is
//! *processed at* `t` (queue wait is the reply latency, exactly as in the
//! live service where a worker stamps the batch when it picks it up) and
//! occupies its shard until `t + cost(batch)`, where
//! [`CostModel`] prices a batch as `dispatch_overhead_us` plus
//! `per_request_us` per job. Shards dispatch in ascending index order;
//! ties between arrivals are broken by trace order. Every choice is
//! total-ordered, so a replay is bit-identical across runs and machines —
//! `service_trace` in `rqfa-bench` replays its workload twice and asserts
//! exactly that before writing a BENCH artifact.

use std::sync::Arc;

use rqfa_core::{CaseBase, QosClass, Request};
use rqfa_telemetry::{FlightRecorder, ManualClock, TraceDump};

use crate::config::validate_config;
use crate::metrics::ServiceMetrics;
use crate::shard::{self, ShardCore, ShardStore, Timing};
use crate::{MetricsSnapshot, Reply, ServiceConfig, Ticket};

/// Deterministic service-time model of one dispatched batch.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Fixed cost of one dispatch round (lock, plane check, fan-out), µs.
    pub dispatch_overhead_us: u64,
    /// Marginal cost per job in the batch, µs.
    pub per_request_us: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            dispatch_overhead_us: 50,
            per_request_us: 25,
        }
    }
}

impl CostModel {
    /// Service time of a batch of `jobs` jobs, µs (min 1, so a shard
    /// never dispatches twice at one instant).
    pub fn batch_us(&self, jobs: usize) -> u64 {
        (self.dispatch_overhead_us + self.per_request_us * jobs as u64).max(1)
    }
}

/// One timestamped request of a replayable trace.
#[derive(Debug, Clone)]
pub struct TraceArrival {
    /// Submission instant, µs from the start of the replay.
    pub at_us: u64,
    /// QoS class the request is submitted in.
    pub class: QosClass,
    /// Explicit per-request deadline, µs after submission (`None`: no
    /// deadline, as in the live service).
    pub deadline_us: Option<u64>,
    /// The allocation request itself.
    pub request: Request,
}

/// What one replay produced.
#[derive(Debug)]
pub struct TraceReport {
    /// Every reply, in request-id order (one per trace arrival).
    pub replies: Vec<Reply>,
    /// The final metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// The merged flight-recorder dump (tracing is always on in a
    /// replay, sized by [`ServiceConfig::trace_capacity`] or a default).
    pub trace: TraceDump,
}

/// One replayed shard: the real shard core plus the tick it is busy
/// until.
struct ReplayShard {
    core: ShardCore,
    free_at_us: u64,
}

/// The single-threaded discrete-event driver. See the module docs.
pub struct TraceDriver {
    config: ServiceConfig,
    cost: CostModel,
    case_base: CaseBase,
}

impl TraceDriver {
    /// A driver over `case_base`, sharded and tuned by `config`.
    /// `config.clock` is ignored — the driver owns a private
    /// [`ManualClock`]; `config.trace_capacity` of 0 is raised to a
    /// default so the replay always yields a trace.
    ///
    /// # Panics
    ///
    /// On a configuration [`AllocationService::new`](crate::AllocationService::new)
    /// would reject (a zero `shards`, `batch_size` or `queue_capacity`).
    pub fn new(case_base: &CaseBase, config: &ServiceConfig, cost: CostModel) -> TraceDriver {
        validate_config(config).expect("valid service config");
        let mut config = config.clone();
        if config.trace_capacity == 0 {
            config.trace_capacity = 1 << 16;
        }
        TraceDriver {
            config,
            cost,
            case_base: case_base.clone(),
        }
    }

    /// Replays `arrivals` (sorted by `at_us` internally, trace order
    /// breaking ties) and returns replies, metrics and the event trace.
    /// Deterministic: identical inputs give an identical report.
    pub fn run(&self, arrivals: &[TraceArrival]) -> TraceReport {
        let clock = Arc::new(ManualClock::new());
        let mut config = self.config.clone();
        config.clock = Arc::clone(&clock) as _;
        let metrics = Arc::new(ServiceMetrics::default());
        // One ring for the whole replay (the live service keeps one per
        // shard): the dump is then a single globally ordered stream.
        let recorder = Arc::new(FlightRecorder::new(config.trace_capacity));

        let mut shards: Vec<ReplayShard> = shard::partition(&self.case_base, config.shards)
            .into_iter()
            .map(|slice| ReplayShard {
                core: ShardCore::new(
                    ShardStore::ephemeral(slice),
                    &config,
                    Arc::clone(&metrics),
                    Some(Arc::clone(&recorder)),
                ),
                free_at_us: 0,
            })
            .collect();

        // Stable sort: equal-instant arrivals keep trace order.
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        order.sort_by_key(|&i| arrivals[i].at_us);

        let mut tickets: Vec<Ticket> = Vec::with_capacity(arrivals.len());
        let mut next = 0usize; // index into `order`
        loop {
            // The next event: an arrival, or a backlogged shard freeing up.
            let next_arrival = order.get(next).map(|&i| arrivals[i].at_us);
            let next_free = shards
                .iter()
                .filter(|s| !s.core.shared.queue.is_empty())
                .map(|s| s.free_at_us)
                .min();
            let t = match (next_arrival, next_free) {
                (Some(a), Some(f)) => a.min(f),
                (Some(a), None) => a,
                (None, Some(f)) => f,
                (None, None) => break,
            };
            clock.set_us(t);

            // Arrivals first at equal instants: in the live service a job
            // must be queued before a worker can pick it up.
            while let Some(&i) = order.get(next) {
                let arrival = &arrivals[i];
                if arrival.at_us > t {
                    break;
                }
                let owner = shard::route(arrival.request.type_id(), shards.len());
                tickets.push(shards[owner].core.shared.queue.admit(
                    i as u64,
                    arrival.request.clone(),
                    arrival.class,
                    arrival.deadline_us,
                ));
                next += 1;
            }

            // Then every free, backlogged shard dispatches one batch,
            // processed at `t` and occupying the shard for its cost.
            for shard in &mut shards {
                if shard.free_at_us > t || shard.core.shared.queue.is_empty() {
                    continue;
                }
                let served = shard
                    .core
                    .step(Timing::Modelled)
                    .expect("backlogged queue yields a batch");
                let batch_us = self.cost.batch_us(served);
                // The live driver feeds the estimator the clock time it
                // measured around the step; here the cost model *is* the
                // truth, so the estimator sees exactly what the event
                // loop charges — estimator-bounded batch fill replays
                // bit-identically.
                shard.core.shared.queue.estimator().observe(batch_us, served);
                shard.free_at_us = t + batch_us;
            }
        }

        let mut replies: Vec<Reply> = tickets
            .into_iter()
            .map(|ticket| ticket.try_wait().expect("drained replay answers every job"))
            .collect();
        replies.sort_by_key(|r| r.id);
        TraceReport {
            replies,
            metrics: metrics.snapshot(),
            trace: recorder.drain(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Outcome;
    use rqfa_core::paper;

    fn arrivals(n: u64, gap_us: u64) -> Vec<TraceArrival> {
        (0..n)
            .map(|i| TraceArrival {
                at_us: i * gap_us,
                class: QosClass::ALL[(i % 4) as usize],
                deadline_us: Some(5_000),
                request: paper::table1_request().unwrap(),
            })
            .collect()
    }

    #[test]
    fn replay_is_deterministic() {
        let cb = paper::table1_case_base();
        let config = ServiceConfig::default().with_shards(2).with_batch_size(4);
        let driver = TraceDriver::new(&cb, &config, CostModel::default());
        let trace = arrivals(64, 40);
        let a = driver.run(&trace);
        let b = driver.run(&trace);
        assert_eq!(a.replies, b.replies);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.trace.events.len(), b.trace.events.len());
    }

    #[test]
    fn latencies_equal_queue_wait_under_the_cost_model() {
        // One shard, arrivals back to back: the second batch waits for
        // the first batch's service time.
        let cb = paper::table1_case_base();
        let config = ServiceConfig::default().with_shards(1).with_batch_size(1);
        let cost = CostModel {
            dispatch_overhead_us: 100,
            per_request_us: 0,
        };
        let driver = TraceDriver::new(&cb, &config, cost);
        let trace = vec![
            TraceArrival {
                at_us: 0,
                class: QosClass::Critical,
                deadline_us: None,
                request: paper::table1_request().unwrap(),
            },
            TraceArrival {
                at_us: 0,
                class: QosClass::Critical,
                deadline_us: None,
                request: paper::table1_request().unwrap(),
            },
        ];
        let report = driver.run(&trace);
        assert_eq!(report.replies[0].latency_us, 0, "dispatched at arrival");
        assert_eq!(
            report.replies[1].latency_us, 100,
            "waited out the first batch's service time"
        );
    }

    #[test]
    fn expired_deadlines_shed_at_dispatch() {
        let cb = paper::table1_case_base();
        let config = ServiceConfig::default().with_shards(1).with_batch_size(1);
        let cost = CostModel {
            dispatch_overhead_us: 10_000,
            per_request_us: 0,
        };
        let driver = TraceDriver::new(&cb, &config, cost);
        let mut trace = arrivals(1, 0);
        trace.push(TraceArrival {
            at_us: 1,
            class: QosClass::Low,
            deadline_us: Some(50), // expires while the first batch runs
            request: paper::table1_request().unwrap(),
        });
        let report = driver.run(&trace);
        assert_eq!(report.replies[1].outcome, Outcome::ShedDeadline);
        assert_eq!(report.metrics.class(QosClass::Low).shed_deadline, 1);
    }
}
