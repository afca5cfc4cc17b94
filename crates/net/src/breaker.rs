//! A clock-driven circuit breaker for remote shard calls.
//!
//! The degradation ladder's first rung: once a remote node has failed
//! `threshold` consecutive calls, the breaker **opens** and every
//! further call is refused *immediately* — no connect, no retry loop,
//! no timeout burn. After `cooldown_us` on the injected clock the
//! breaker admits exactly one **probe** (half-open); the probe's
//! outcome decides whether the breaker re-closes or re-opens for
//! another cooldown. The state machine is a pure function of the call
//! outcomes and the clock, so under a `ManualClock` the open→probe→
//! close trajectory is deterministic and replayable.
//!
//! ```text
//! Closed ──(threshold consecutive failures)──▶ Open
//! Open ──(cooldown elapsed, one caller)──▶ HalfOpen
//! HalfOpen ──probe ok──▶ Closed      HalfOpen ──probe fails──▶ Open
//! ```
//!
//! Transitions are recorded into an optional flight recorder
//! (`BreakerOpened` / `BreakerClosed`, node id in the request-id field)
//! and the breaker publishes its state and trip counters as a
//! [`MetricSource`].

use std::sync::{Arc, Mutex};

use rqfa_telemetry::{Counter, EventKind, FlightRecorder, MetricSource, Sample, SharedClock};

/// Where the breaker's state machine currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow normally; consecutive failures are being counted.
    Closed,
    /// Calls are refused without touching the network until the
    /// cooldown elapses.
    Open,
    /// One probe call is in flight; everyone else is refused until it
    /// settles.
    HalfOpen,
}

impl BreakerState {
    /// Stable gauge encoding (0 = closed, 1 = open, 2 = half-open).
    pub fn gauge(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u64,
    /// Clock tick of the last trip, µs.
    opened_at_us: u64,
}

/// The breaker proper. Shareable across threads; see the module docs
/// for the state machine.
pub struct CircuitBreaker {
    clock: SharedClock,
    threshold: u64,
    cooldown_us: u64,
    /// Which node this breaker guards — only used to label recorded
    /// events and metrics.
    node: u16,
    recorder: Option<Arc<FlightRecorder>>,
    inner: Mutex<BreakerInner>,
    opens: Counter,
    fast_fails: Counter,
}

impl std::fmt::Debug for CircuitBreaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircuitBreaker")
            .field("node", &self.node)
            .field("threshold", &self.threshold)
            .field("cooldown_us", &self.cooldown_us)
            .field("state", &self.state())
            .finish_non_exhaustive()
    }
}

impl CircuitBreaker {
    /// A breaker for `node` that opens after `threshold` consecutive
    /// failures and probes again after `cooldown_us` µs.
    ///
    /// # Panics
    ///
    /// Panics on a zero threshold (the breaker would be born open) or a
    /// zero cooldown (open would be indistinguishable from closed).
    pub fn new(clock: SharedClock, node: u16, threshold: u64, cooldown_us: u64) -> CircuitBreaker {
        assert!(threshold > 0, "a breaker must tolerate ≥ 1 failure");
        assert!(cooldown_us > 0, "an open breaker must stay open a while");
        CircuitBreaker {
            clock,
            threshold,
            cooldown_us,
            node,
            recorder: None,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at_us: 0,
            }),
            opens: Counter::new(),
            fast_fails: Counter::new(),
        }
    }

    /// Records open/close transitions into `recorder`.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<FlightRecorder>) -> CircuitBreaker {
        self.recorder = Some(recorder);
        self
    }

    /// The current state (advancing Open → HalfOpen is *not* done here;
    /// only [`CircuitBreaker::admit`] takes that edge, so the probe
    /// slot is handed to an actual caller).
    pub fn state(&self) -> BreakerState {
        self.inner.lock().expect("breaker poisoned").state
    }

    /// Trips to open, total.
    pub fn opens(&self) -> u64 {
        self.opens.get()
    }

    /// Calls refused without touching the network, total.
    pub fn fast_fails(&self) -> u64 {
        self.fast_fails.get()
    }

    /// Asks permission to place a call. `true` means go (closed, or the
    /// single half-open probe slot); `false` means fail fast without
    /// touching the network. The caller that receives the probe slot
    /// *must* report back via [`CircuitBreaker::on_success`] or
    /// [`CircuitBreaker::on_failure`], else the breaker stays half-open
    /// and refuses everyone.
    pub fn admit(&self) -> bool {
        let mut inner = self.inner.lock().expect("breaker poisoned");
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => {
                // A probe is already in flight.
                self.fast_fails.incr();
                false
            }
            BreakerState::Open => {
                let waited = self.clock.now_us().saturating_sub(inner.opened_at_us);
                if waited >= self.cooldown_us {
                    // This caller becomes the probe.
                    inner.state = BreakerState::HalfOpen;
                    true
                } else {
                    self.fast_fails.incr();
                    false
                }
            }
        }
    }

    /// Reports a successful call: any state re-closes and the failure
    /// run resets.
    pub fn on_success(&self) {
        let mut inner = self.inner.lock().expect("breaker poisoned");
        let was = inner.state;
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
        if was != BreakerState::Closed {
            self.record(EventKind::BreakerClosed, 0);
        }
    }

    /// Reports a failed call. A half-open probe failure re-opens
    /// immediately; in closed state the run counter advances and trips
    /// the breaker at the threshold.
    pub fn on_failure(&self) {
        let mut inner = self.inner.lock().expect("breaker poisoned");
        inner.consecutive_failures += 1;
        let trip = match inner.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => inner.consecutive_failures >= self.threshold,
            // Failures reported while already open (stragglers from
            // calls admitted before the trip) keep it open.
            BreakerState::Open => false,
        };
        if trip {
            inner.state = BreakerState::Open;
            inner.opened_at_us = self.clock.now_us();
            self.opens.incr();
            self.record(EventKind::BreakerOpened, inner.consecutive_failures);
        }
    }

    fn record(&self, kind: EventKind, arg: u64) {
        if let Some(recorder) = &self.recorder {
            recorder.record(self.clock.now_us(), u64::from(self.node), 0, kind, arg);
        }
    }
}

impl MetricSource for CircuitBreaker {
    fn collect(&self, out: &mut Vec<Sample>) {
        let node = self.node;
        out.push(Sample::count(
            format!("node{node}/breaker_state"),
            self.state().gauge(),
        ));
        out.push(Sample::count(
            format!("node{node}/breaker_opens"),
            self.opens.get(),
        ));
        out.push(Sample::count(
            format!("node{node}/breaker_fast_fails"),
            self.fast_fails.get(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqfa_telemetry::ManualClock;

    fn breaker(threshold: u64, cooldown_us: u64) -> (Arc<ManualClock>, CircuitBreaker) {
        let clock = Arc::new(ManualClock::new());
        let shared: SharedClock = Arc::clone(&clock) as SharedClock;
        (clock, CircuitBreaker::new(shared, 3, threshold, cooldown_us))
    }

    #[test]
    fn opens_after_threshold_consecutive_failures_only() {
        let (_clock, b) = breaker(3, 1_000);
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        // A success resets the run — two more failures don't trip it.
        b.on_success();
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn open_fast_fails_until_cooldown_then_hands_out_one_probe() {
        let (clock, b) = breaker(1, 1_000);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit(), "open refuses immediately");
        clock.advance_us(999);
        assert!(!b.admit(), "still cooling down");
        assert_eq!(b.fast_fails(), 2);
        clock.advance_us(1);
        assert!(b.admit(), "cooldown elapsed: probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.admit(), "only one probe at a time");
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit());
    }

    #[test]
    fn a_failed_probe_reopens_for_a_fresh_cooldown() {
        let (clock, b) = breaker(1, 1_000);
        b.on_failure();
        clock.advance_us(1_000);
        assert!(b.admit());
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 2);
        // The cooldown restarts from the probe failure, not the
        // original trip.
        clock.advance_us(999);
        assert!(!b.admit());
        clock.advance_us(1);
        assert!(b.admit());
    }

    #[test]
    fn transitions_are_recorded_with_the_node_id() {
        let clock = Arc::new(ManualClock::new());
        let recorder = Arc::new(FlightRecorder::new(16));
        let b = CircuitBreaker::new(Arc::clone(&clock) as SharedClock, 7, 2, 500)
            .with_recorder(Arc::clone(&recorder));
        b.on_failure();
        b.on_failure();
        clock.advance_us(500);
        assert!(b.admit());
        b.on_success();
        let dump = recorder.drain();
        let kinds: Vec<EventKind> = dump.events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [EventKind::BreakerOpened, EventKind::BreakerClosed]);
        assert!(dump.events.iter().all(|e| e.request_id == 7));
        assert_eq!(dump.events[0].arg, 2, "the trip carries the failure run");
    }

    #[test]
    fn metrics_expose_state_and_counters() {
        let (_clock, b) = breaker(1, 1_000);
        b.on_failure();
        assert!(!b.admit());
        let mut out = Vec::new();
        b.collect(&mut out);
        let value = |name: &str| out.iter().find(|s| s.name == name).unwrap().value;
        assert_eq!(value("node3/breaker_state"), 1.0);
        assert_eq!(value("node3/breaker_opens"), 1.0);
        assert_eq!(value("node3/breaker_fast_fails"), 1.0);
    }
}
