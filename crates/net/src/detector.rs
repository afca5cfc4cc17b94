//! Lease-based failure detection, driven entirely by the injected
//! clock.
//!
//! Each supervised node holds a **lease**: a heartbeat renews it, and
//! the detector classifies liveness purely from how many whole lease
//! periods have elapsed since the last renewal —
//!
//! * 0 missed leases → [`Liveness::Healthy`],
//! * 1 to `down_misses − 1` → [`Liveness::Suspect`],
//! * ≥ `down_misses` → [`Liveness::Down`].
//!
//! The assessment is a pure function of `(last_beat, clock.now_us())`, so
//! under a `ManualClock` the whole detect→decide path is deterministic:
//! a chaos schedule that advances the clock by exactly `k` leases
//! always produces the same verdict, and a heartbeat loss shorter than
//! the lease can *never* reach `Suspect` — the no-false-promotion
//! property `tests/distributed.rs` asserts.
//!
//! State transitions are recorded into an optional flight recorder
//! (`EventKind::{NodeSuspected, NodeDown, NodeRecovered}`, keyed by the
//! node id in the request-id field) and the detector registers as a
//! [`MetricSource`] publishing per-node liveness gauges.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use rqfa_telemetry::{EventKind, FlightRecorder, MetricSource, Sample, SharedClock};

/// The detector's verdict on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Liveness {
    /// The lease is current: the node answered within one lease period.
    Healthy,
    /// At least one lease missed, but fewer than the down threshold —
    /// the node is degraded or the link is flaky; no action yet.
    Suspect,
    /// The down threshold of consecutive leases expired unanswered: the
    /// supervisor may act (promote, repoint).
    Down,
}

impl Liveness {
    /// Stable gauge encoding (0 = healthy, 1 = suspect, 2 = down).
    pub fn gauge(self) -> u64 {
        match self {
            Liveness::Healthy => 0,
            Liveness::Suspect => 1,
            Liveness::Down => 2,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct NodeHealth {
    /// Clock tick of the last lease renewal, µs.
    last_beat_us: u64,
    verdict: Liveness,
}

/// Per-node lease bookkeeping (see the module docs for the contract).
pub struct FailureDetector {
    clock: SharedClock,
    lease_us: u64,
    down_misses: u64,
    recorder: Option<Arc<FlightRecorder>>,
    nodes: Mutex<BTreeMap<u16, NodeHealth>>,
}

impl std::fmt::Debug for FailureDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailureDetector")
            .field("lease_us", &self.lease_us)
            .field("down_misses", &self.down_misses)
            .finish_non_exhaustive()
    }
}

impl FailureDetector {
    /// A detector whose nodes are `Suspect` after one missed lease of
    /// `lease_us` µs and `Down` after `down_misses` consecutive misses.
    ///
    /// # Panics
    ///
    /// Panics on a zero lease or a zero down threshold — both would
    /// declare a node dead at the instant it registered.
    pub fn new(clock: SharedClock, lease_us: u64, down_misses: u64) -> FailureDetector {
        assert!(lease_us > 0, "a lease must cover a positive interval");
        assert!(down_misses > 0, "the down threshold must allow ≥ 1 miss");
        FailureDetector {
            clock,
            lease_us,
            down_misses,
            recorder: None,
            nodes: Mutex::new(BTreeMap::new()),
        }
    }

    /// Records liveness transitions into `recorder`
    /// (`NodeSuspected`/`NodeDown`/`NodeRecovered`, node id in the
    /// request-id field, arg = missed leases).
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<FlightRecorder>) -> FailureDetector {
        self.recorder = Some(recorder);
        self
    }

    /// The lease period in µs.
    pub fn lease_us(&self) -> u64 {
        self.lease_us
    }

    /// Consecutive missed leases after which a node is `Down`.
    pub fn down_misses(&self) -> u64 {
        self.down_misses
    }

    /// Registers (or re-registers) a node with a fresh lease granted at
    /// the current clock tick.
    pub fn register(&self, node: u16) {
        let now = self.clock.now_us();
        self.nodes.lock().expect("detector poisoned").insert(
            node,
            NodeHealth {
                last_beat_us: now,
                verdict: Liveness::Healthy,
            },
        );
    }

    /// Renews `node`'s lease at the current clock tick (a heartbeat
    /// answered). Unknown nodes are registered implicitly.
    pub fn beat(&self, node: u16) {
        let now = self.clock.now_us();
        let mut nodes = self.nodes.lock().expect("detector poisoned");
        let health = nodes.entry(node).or_insert(NodeHealth {
            last_beat_us: now,
            verdict: Liveness::Healthy,
        });
        let was = health.verdict;
        health.last_beat_us = now;
        health.verdict = Liveness::Healthy;
        if was != Liveness::Healthy {
            self.record(node, EventKind::NodeRecovered, 0);
        }
    }

    /// Whole lease periods between `health`'s last renewal and `now`,
    /// and the verdict they imply.
    fn judge(&self, health: &NodeHealth, now: u64) -> (u64, Liveness) {
        let misses = now.saturating_sub(health.last_beat_us) / self.lease_us;
        let verdict = if misses == 0 {
            Liveness::Healthy
        } else if misses < self.down_misses {
            Liveness::Suspect
        } else {
            Liveness::Down
        };
        (misses, verdict)
    }

    /// Whole lease periods elapsed since `node`'s last renewal (0 for
    /// an unknown node — nothing was promised yet).
    pub fn misses(&self, node: u16) -> u64 {
        let now = self.clock.now_us();
        let nodes = self.nodes.lock().expect("detector poisoned");
        nodes.get(&node).map_or(0, |h| self.judge(h, now).0)
    }

    /// Classifies `node` at the current clock tick, recording any
    /// state transition. Unknown nodes read `Healthy`.
    pub fn assess(&self, node: u16) -> Liveness {
        let now = self.clock.now_us();
        let mut nodes = self.nodes.lock().expect("detector poisoned");
        let Some(health) = nodes.get_mut(&node) else {
            return Liveness::Healthy;
        };
        let (misses, verdict) = self.judge(health, now);
        if verdict != health.verdict {
            health.verdict = verdict;
            let kind = match verdict {
                Liveness::Healthy => EventKind::NodeRecovered,
                Liveness::Suspect => EventKind::NodeSuspected,
                Liveness::Down => EventKind::NodeDown,
            };
            self.record(node, kind, misses);
        }
        verdict
    }

    fn record(&self, node: u16, kind: EventKind, misses: u64) {
        if let Some(recorder) = &self.recorder {
            recorder.record(self.clock.now_us(), u64::from(node), 0, kind, misses);
        }
    }
}

impl MetricSource for FailureDetector {
    fn collect(&self, out: &mut Vec<Sample>) {
        let now = self.clock.now_us();
        let nodes = self.nodes.lock().expect("detector poisoned");
        for (node, health) in nodes.iter() {
            let (misses, verdict) = self.judge(health, now);
            out.push(Sample::count(format!("node{node}/liveness"), verdict.gauge()));
            out.push(Sample::count(format!("node{node}/missed_leases"), misses));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqfa_telemetry::ManualClock;

    fn detector() -> (Arc<ManualClock>, FailureDetector) {
        let clock = Arc::new(ManualClock::new());
        let shared: SharedClock = Arc::clone(&clock) as SharedClock;
        (clock, FailureDetector::new(shared, 1_000, 3))
    }

    #[test]
    fn verdict_follows_whole_missed_leases_exactly() {
        let (clock, det) = detector();
        det.register(7);
        assert_eq!(det.assess(7), Liveness::Healthy);
        // Anything short of one whole lease stays healthy — the
        // no-false-suspicion bound.
        clock.advance_us(999);
        assert_eq!(det.assess(7), Liveness::Healthy);
        assert_eq!(det.misses(7), 0);
        clock.advance_us(1);
        assert_eq!(det.assess(7), Liveness::Suspect);
        clock.advance_us(1_000);
        assert_eq!(det.assess(7), Liveness::Suspect);
        assert_eq!(det.misses(7), 2);
        clock.advance_us(1_000);
        assert_eq!(det.assess(7), Liveness::Down);
        assert_eq!(det.misses(7), 3);
    }

    #[test]
    fn a_beat_renews_the_lease_and_recovers_the_node() {
        let (clock, det) = detector();
        det.register(1);
        clock.advance_us(10_000);
        assert_eq!(det.assess(1), Liveness::Down);
        det.beat(1);
        assert_eq!(det.assess(1), Liveness::Healthy);
        assert_eq!(det.misses(1), 0);
    }

    #[test]
    fn unknown_nodes_read_healthy_and_beat_registers() {
        let (clock, det) = detector();
        assert_eq!(det.assess(9), Liveness::Healthy);
        det.beat(9);
        clock.advance_us(3_000);
        assert_eq!(det.assess(9), Liveness::Down);
    }

    #[test]
    fn transitions_are_recorded_once_each() {
        let clock = Arc::new(ManualClock::new());
        let recorder = Arc::new(FlightRecorder::new(64));
        let det = FailureDetector::new(Arc::clone(&clock) as SharedClock, 1_000, 2)
            .with_recorder(Arc::clone(&recorder));
        det.register(4);
        clock.advance_us(1_500);
        // Repeated assessments in the same state record one transition.
        assert_eq!(det.assess(4), Liveness::Suspect);
        assert_eq!(det.assess(4), Liveness::Suspect);
        clock.advance_us(1_000);
        assert_eq!(det.assess(4), Liveness::Down);
        det.beat(4);
        let dump = recorder.drain();
        let kinds: Vec<EventKind> = dump.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                EventKind::NodeSuspected,
                EventKind::NodeDown,
                EventKind::NodeRecovered
            ]
        );
        assert!(dump.events.iter().all(|e| e.request_id == 4));
    }

    #[test]
    fn liveness_gauges_collect_per_node() {
        let (clock, det) = detector();
        det.register(0);
        det.register(1);
        clock.advance_us(5_000);
        det.beat(1);
        let mut out = Vec::new();
        det.collect(&mut out);
        let value = |name: &str| out.iter().find(|s| s.name == name).unwrap().value;
        assert_eq!(value("node0/liveness"), 2.0);
        assert_eq!(value("node0/missed_leases"), 5.0);
        assert_eq!(value("node1/liveness"), 0.0);
    }
}
