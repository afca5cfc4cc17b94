//! Service configuration: every knob of an
//! [`AllocationService`](crate::AllocationService), its builders and
//! its validation.

use rqfa_persist::PersistPolicy;
use rqfa_telemetry::{monotonic, SharedClock};

use crate::error::ServiceError;
#[cfg(doc)]
use crate::{AllocationService, ManualClock};

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
    /// ordering, the batch-fill cap, dispatch-time deadline checks and
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
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            shards: 1,
            batch_size: 32,
            queue_capacity: 4096,
            cache_capacity: 1 << 16,
            snapshot_every: PersistPolicy::default().snapshot_every,
            clock: monotonic(),
            trace_capacity: 0,
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
