//! Service configuration: every knob of an
//! [`AllocationService`](crate::AllocationService), its builders and
//! its validation.

use rqfa_core::QosClass;
use rqfa_persist::PersistPolicy;
use rqfa_telemetry::{monotonic, SharedClock};

use crate::error::ServiceError;
#[cfg(doc)]
use crate::{AllocationService, ClassSnapshot, ManualClock, Outcome, WeightedArbiter};

/// Configuration of an [`AllocationService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards / worker threads (min 1).
    pub shards: usize,
    /// Maximum jobs dispatched per scheduling round of one worker
    /// (min 1).
    pub batch_size: usize,
    /// Per-shard queue bound across classes (min 1). Admission limits
    /// step with urgency: LOW is refused at `1×` this bound, MEDIUM at
    /// `2×`, HIGH at `4×`; CRITICAL is always admitted.
    pub queue_capacity: usize,
    /// Per-shard result-cache capacity in entries (0 disables caching).
    /// Eviction is FIFO (see `docs/caching.md`).
    pub cache_capacity: usize,
    /// Per-class queueing-delay budget in µs, indexed by
    /// [`QosClass::index`]. The budget defines a sheddable job's
    /// *effective deadline* (submit time + budget) unless the request
    /// carried an explicit deadline
    /// ([`AllocationService::submit_with_deadline`]); a job whose
    /// effective deadline has expired when the worker picks it up is
    /// dropped. `None` disables the budget; CRITICAL ignores its budget
    /// entirely (never shed, but a served-late CRITICAL request counts as
    /// a [`missed deadline`](ClassSnapshot::missed_deadline)).
    pub deadline_budget_us: [Option<u64>; QosClass::COUNT],
    /// A lane head within this many µs of its effective deadline is
    /// *urgent*: the scheduler may serve it ahead of the weighted order
    /// (bounded by [`WeightedArbiter::DEFAULT_PROMOTIONS`] out-of-credit
    /// promotions per round). `0` promotes only heads due this very
    /// tick, which is usually too late — size it around one batch's
    /// service time.
    pub promotion_margin_us: u64,
    /// Durable shards checkpoint (snapshot + WAL compaction) after this
    /// many acknowledged mutations, replayed ones included (each shard's
    /// [`PersistPolicy::snapshot_every`]); `0` checkpoints only on
    /// [`AllocationService::checkpoint`]. Ignored by ephemeral services.
    ///
    /// Checkpoints are two-phase (see the [`shard`](crate::shard) module
    /// docs): the store lock is held only to clone the state and to
    /// trim the log, and the snapshot write + fsync run with it
    /// released, so retrievals keep flowing. The automatic checkpoint
    /// still runs on the thread of the
    /// [`AllocationService::apply_mutation`] call that crosses the
    /// cadence, which pays for the clone and the snapshot I/O; set `0`
    /// and run explicit [`AllocationService::checkpoint`]s from a
    /// maintenance context to keep that cost off the mutation path.
    pub snapshot_every: u64,
    /// The time source of the whole request path: admission stamps, EDF
    /// ordering, slack promotion, dispatch-time deadline checks and
    /// reply latencies all read this clock's µs tick — never
    /// `Instant::now()` directly. Defaults to the monotonic wall clock; inject a
    /// [`ManualClock`] for deterministic tests and trace replays.
    pub clock: SharedClock,
    /// Per-shard flight-recorder capacity in events. `0` (the default)
    /// disables tracing entirely — no recorder is allocated and the
    /// request path records nothing. When armed, each shard keeps the
    /// newest `trace_capacity` events in a fixed ring (zero allocation
    /// per event); drain them with [`AllocationService::drain_trace`].
    pub trace_capacity: usize,
    /// Whether admission refuses deadlined sheddable jobs the measured
    /// service rate predicts cannot finish in time even if queued
    /// (answered with [`Outcome::ShedPredicted`] immediately). Off by
    /// default; has no effect until the shard's estimator is warm. The
    /// degradation lever that keeps doomed LOW work from clogging
    /// queues — and burning remote retry budgets — while a node is
    /// down (see `docs/distribution.md`).
    pub predictive_shed: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            shards: 1,
            batch_size: 32,
            queue_capacity: 4096,
            cache_capacity: 1 << 16,
            deadline_budget_us: [None; QosClass::COUNT],
            promotion_margin_us: 0,
            snapshot_every: PersistPolicy::default().snapshot_every,
            clock: monotonic(),
            trace_capacity: 0,
            predictive_shed: false,
        }
    }
}

impl ServiceConfig {
    /// Sets the shard count. Like every sizing knob the value is stored
    /// as given — a zero `shards`, `batch_size` or `queue_capacity` is
    /// rejected at service construction with [`ServiceError::Config`],
    /// never silently clamped.
    pub fn with_shards(mut self, shards: usize) -> ServiceConfig {
        self.shards = shards;
        self
    }

    /// Sets the dispatch batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> ServiceConfig {
        self.batch_size = batch_size;
        self
    }

    /// Sets the per-shard queue bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServiceConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the per-shard cache capacity (0 disables caching).
    pub fn with_cache_capacity(mut self, capacity: usize) -> ServiceConfig {
        self.cache_capacity = capacity;
        self
    }

    /// Sets one class's queueing-delay budget.
    pub fn with_deadline_budget_us(mut self, class: QosClass, budget_us: u64) -> ServiceConfig {
        self.deadline_budget_us[class.index()] = Some(budget_us);
        self
    }

    /// Sets the slack margin (µs) under which a lane head is promoted.
    pub fn with_promotion_margin_us(mut self, margin_us: u64) -> ServiceConfig {
        self.promotion_margin_us = margin_us;
        self
    }

    /// Sets the durable checkpoint cadence (0 = manual only).
    pub fn with_snapshot_every(mut self, mutations: u64) -> ServiceConfig {
        self.snapshot_every = mutations;
        self
    }

    /// Injects the request-path time source (see
    /// [`ServiceConfig::clock`]).
    pub fn with_clock(mut self, clock: SharedClock) -> ServiceConfig {
        self.clock = clock;
        self
    }

    /// Arms per-shard flight recording with the given ring capacity in
    /// events (0 disables tracing).
    pub fn with_trace_capacity(mut self, capacity: usize) -> ServiceConfig {
        self.trace_capacity = capacity;
        self
    }

    /// Enables predictive shedding at admission (see
    /// [`ServiceConfig::predictive_shed`]).
    pub fn with_predictive_shed(mut self, on: bool) -> ServiceConfig {
        self.predictive_shed = on;
        self
    }
}

/// Validates a configuration before any shard state is built or touched.
pub(crate) fn validate_config(config: &ServiceConfig) -> Result<(), ServiceError> {
    let reject = |what: &str| Err(ServiceError::Config(format!("{what} must be at least 1")));
    if config.shards == 0 {
        return reject("shards (routing is type_id % shards)");
    }
    if config.batch_size == 0 {
        return reject("batch_size (an empty batch serves nothing)");
    }
    if config.queue_capacity == 0 {
        return reject("queue_capacity (it is LOW's admission limit)");
    }
    Ok(())
}
