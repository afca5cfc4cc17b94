//! # rqfa-service — a sharded, batched, QoS-class-aware allocation service
//!
//! The paper's retrieval unit answers one allocation request at a time
//! on-chip. This crate turns that single-shot engine into a service layer
//! that multiplexes *many* requesters over shared retrieval resources with
//! per-class guarantees — the shape hardware QoS enforcement and NoC
//! virtualization literature converges on:
//!
//! * **Sharding** ([`shard`]): function types partition across N shards,
//!   each one shard core — queue, result cache, compiled
//!   [`PlaneEngine`](rqfa_core::PlaneEngine) — driven by a worker
//!   thread. Since retrieval only touches the requested type's subtree,
//!   shard answers are bit-identical to one big
//!   [`FixedEngine`](rqfa_core::FixedEngine) over the merged case base.
//! * **Batching + deadline-aware QoS scheduling** ([`queue`], [`sched`]):
//!   per-class lanes ordered earliest-deadline-first by each request's own
//!   deadline ([`AllocationService::submit_with_deadline`]), drained in
//!   weighted round-robin (8:4:2:1), a batch fill capped before it would
//!   make a picked deadline late at the estimated rate, and
//!   urgency-tiered admission limits that shed by **largest slack
//!   first** under overload — CRITICAL is never shed, ever. The full
//!   model lives in `docs/scheduling.md`.
//! * **One hand-over per batch, not per request** ([`Ticket`],
//!   [`queue`]): a ticket is a one-shot reply slot — one small
//!   allocation shared with its job, no channel — whose filler wakes only
//!   a waiter that parked on it; the worker wakes the clients a batch
//!   released together, cache hits before the kernel call; a submit
//!   signals the worker's condvar only when it finds the worker parked;
//!   a caller that blocks at once (a node's connection thread, a cluster
//!   client's local site) runs an idle shard's batch itself and wakes
//!   nobody, and so does a thread blocked in [`Ticket::wait`] whose idle
//!   shard owes it at most one batch. `docs/scheduling.md` §7 is
//!   normative.
//! * **Result caching** ([`cache`]): retrievals are memoized by request
//!   fingerprint and stamped with the request's function-type stamp; a
//!   retain/revise/evict invalidates the cached results of the one type
//!   it touches.
//!   Eviction is FIFO, backed by the workspace-wide `rqfa-cache` store —
//!   the normative model lives in `docs/caching.md`.
//! * **Metrics** ([`metrics`]): per-class p50/p99 latency, hit rate and
//!   shed counts from lock-free counters, with batch-granular snapshot
//!   consistency and a [`MetricSource`]
//!   bridge into the workspace metrics registry.
//! * **Observability** (`rqfa-telemetry`): the service clock is
//!   injectable ([`ServiceConfig::with_clock`]) and its `u64` µs tick is
//!   the only time type on the request path, so schedulers, deadline
//!   checks and latency stamps run against a
//!   [`ManualClock`] in tests and replays;
//!   [`ServiceConfig::with_trace_capacity`] arms a per-shard
//!   [flight recorder](rqfa_telemetry::FlightRecorder) whose events
//!   reconstruct per-request timelines
//!   ([`AllocationService::drain_trace`]). `docs/observability.md` has
//!   the full model.
//! * **Deterministic replay** ([`replay`]): a single-threaded
//!   discrete-event driver of the very shard cores the worker threads
//!   drive, under a manual clock — same code, reproducible latencies.
//!
//! ## Quick start
//!
//! ```
//! use rqfa_core::{paper, QosClass};
//! use rqfa_service::{AllocationService, Outcome, ServiceConfig};
//!
//! let service = AllocationService::new(
//!     &paper::table1_case_base(),
//!     &ServiceConfig::default().with_shards(2),
//! )?;
//! let ticket = service.submit(paper::table1_request()?, QosClass::High);
//! let reply = ticket.wait().expect("service alive");
//! match reply.outcome {
//!     Outcome::Allocated { best, .. } => assert_eq!(best.impl_id, paper::IMPL_DSP),
//!     other => panic!("unexpected outcome: {other:?}"),
//! }
//! service.shutdown();
//! # Ok::<(), rqfa_service::ServiceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod config;
mod durable;
mod error;
pub mod metrics;
pub mod queue;
pub mod remote;
pub mod replay;
pub mod sched;
pub mod shard;
mod ticket;

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rqfa_core::{CaseBase, CaseMutation, CoreError, ImplVariant, QosClass, Request, Scored, TypeId};
use rqfa_fixed::Q15;
use rqfa_persist::{PersistError, RecoveryReport};
use rqfa_telemetry::{MetricSource, Registry};

use config::validate_config;
pub use config::ServiceConfig;
pub use error::ServiceError;
pub use metrics::{ClassSnapshot, MetricsSnapshot, ServiceMetrics};
pub use rqfa_cache::CacheStats;
pub use rqfa_telemetry::{
    Clock, ManualClock, MonotonicClock, RequestTimeline, SharedClock, StageBreakdown, TraceDump,
};
pub use sched::{ServiceTimeEstimator, WeightedArbiter};
pub use ticket::Ticket;

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Retrieval succeeded.
    Allocated {
        /// The winning implementation variant.
        best: Scored<Q15>,
        /// Variants evaluated to produce this result. A cached reply
        /// reports the count recorded when the entry was computed — use
        /// `cached`, not this field, to tell hits from fresh retrievals.
        evaluated: usize,
        /// Whether the result came from the shard's result cache.
        cached: bool,
    },
    /// Shed at admission: the shard queue was full (LOW only).
    ShedQueueFull,
    /// Shed at dispatch: the job's deadline expired before it was served.
    ShedDeadline,
    /// Retrieval failed (e.g. unknown function type).
    Failed(CoreError),
    /// The owning shard's site cannot answer: a remote node that stayed
    /// unreachable through the transport's bounded retry budget, or a
    /// local shard whose worker died (see [`remote`]). Produced
    /// client-side — a dead site degrades the requests routed to it into
    /// this explicit outcome, never a hang or a panic.
    Unavailable {
        /// Connection/send attempts made before giving up: the retry
        /// budget for a remote node. 0 has one meaning: no transport
        /// stands in front of the dead shard, which was local.
        attempts: u32,
    },
    /// Nothing in this build produces this outcome: admission does not
    /// shed by predicted lateness. It stays (with wire code 5) only
    /// because the `benchmark/` harness still names it, and goes once
    /// that harness stops naming it.
    ShedPredicted {
        /// Predicted completion lateness had the job been queued, µs.
        late_us: u64,
    },
}

impl Outcome {
    /// Whether the request was shed (any way).
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            Outcome::ShedQueueFull | Outcome::ShedDeadline | Outcome::ShedPredicted { .. }
        )
    }
}

/// The service's answer to one submitted request.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The id [`AllocationService::submit`] handed out.
    pub id: u64,
    /// The request's QoS class.
    pub class: QosClass,
    /// What happened.
    pub outcome: Outcome,
    /// End-to-end latency (submit → reply), µs.
    pub latency_us: u64,
}

/// One queued allocation request (internal).
#[derive(Debug)]
pub struct Job {
    pub(crate) id: u64,
    pub(crate) class: QosClass,
    pub(crate) request: Request,
    /// Clock tick (µs) at which the job was submitted.
    pub(crate) enqueued_at: u64,
    /// Deadline as a clock tick (µs): the explicit per-request deadline,
    /// else none (sorts behind every deadlined job).
    pub(crate) deadline: Option<u64>,
    /// The job's half of the reply slot it shares with its [`Ticket`].
    pub(crate) filler: ticket::Filler,
}

impl Job {
    /// The id [`AllocationService::submit`] handed out.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The job's QoS class.
    pub fn class(&self) -> QosClass {
        self.class
    }

    /// The job's deadline, if any, as a clock tick in µs.
    pub fn deadline(&self) -> Option<u64> {
        self.deadline
    }
}

/// The sharded, batched, QoS-class-aware allocation service.
///
/// See the [crate docs](crate) for the architecture. The service owns a
/// private copy of the case base (split into shard slices); run-time
/// learning flows through [`AllocationService::retain_variant`] and
/// friends, which mutate the owning shard and invalidate the cached
/// results of the function type they touch.
pub struct AllocationService {
    shards: Vec<shard::Shard>,
    metrics: Arc<ServiceMetrics>,
    next_id: AtomicU64,
}

impl AllocationService {
    /// Builds an ephemeral (in-memory) service over a snapshot of
    /// `case_base` and spawns one worker thread per shard. Learned
    /// mutations do not survive the process — see
    /// [`AllocationService::durable_create`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::Config`] for an invalid configuration (zero
    /// shards) — routing is `type_id % shards`, so a shard count of 0
    /// has no meaning and must not silently degrade to 1.
    pub fn new(
        case_base: &CaseBase,
        config: &ServiceConfig,
    ) -> Result<AllocationService, ServiceError> {
        validate_config(config)?;
        let stores = shard::partition(case_base, config.shards)
            .into_iter()
            .map(shard::ShardStore::ephemeral)
            .collect();
        Ok(AllocationService::from_stores(stores, config))
    }

    /// Builds a *durable* service: each non-empty shard gets its own
    /// write-ahead log and snapshot pair under `dir/shard-<i>/`, seeded
    /// with a genesis snapshot of its slice of `case_base`. Any previous
    /// durable state in `dir` is discarded.
    ///
    /// ```
    /// use rqfa_core::paper;
    /// use rqfa_service::{AllocationService, ServiceConfig};
    ///
    /// let dir = std::env::temp_dir().join("rqfa-durable-doctest");
    /// let config = ServiceConfig::default().with_shards(2);
    ///
    /// // Create durable state, learn something, "crash" (drop without a
    /// // checkpoint)…
    /// let service =
    ///     AllocationService::durable_create(&paper::table1_case_base(), &dir, &config)?;
    /// service.evict_variant(paper::FIR_EQUALIZER, paper::IMPL_GP)?;
    /// drop(service);
    ///
    /// // …and recover: the shard layout comes from the on-disk MANIFEST,
    /// // the mutation replays from the WAL, and answers are bit-identical
    /// // to a service that never crashed.
    /// let (recovered, reports) = AllocationService::durable_recover(&dir, &config)?;
    /// let replayed: usize = reports.iter().flatten().map(|r| r.replayed).sum();
    /// assert_eq!(replayed, 1);
    /// recovered.shutdown();
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), rqfa_service::ServiceError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`ServiceError::Persist`] on store initialization failures,
    /// [`ServiceError::Manifest`] if the manifest cannot be written.
    pub fn durable_create(
        case_base: &CaseBase,
        dir: &Path,
        config: &ServiceConfig,
    ) -> Result<AllocationService, ServiceError> {
        validate_config(config)?;
        let stores = durable::create(case_base, dir, config.shards, config.snapshot_every)?;
        Ok(AllocationService::from_stores(stores, config))
    }

    /// Recovers a durable service from `dir`: reads the manifest, then
    /// per shard picks the newest valid snapshot and replays that shard's
    /// WAL on top. A recovered service answers every request
    /// bit-identically to one that never crashed (the workspace recovery
    /// harness asserts this).
    ///
    /// The shard count comes from the manifest — `config.shards` is
    /// ignored, because the type→shard routing must match the layout the
    /// logs were written under.
    ///
    /// Returns the service plus one [`RecoveryReport`] per shard
    /// (`None` for shards that never held state).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Manifest`] for a missing/bad manifest,
    /// [`ServiceError::Persist`] for unrecoverable shard state.
    pub fn durable_recover(
        dir: &Path,
        config: &ServiceConfig,
    ) -> Result<(AllocationService, Vec<Option<RecoveryReport>>), ServiceError> {
        let (stores, reports) = durable::recover(dir, config.snapshot_every)?;
        Ok((AllocationService::from_stores(stores, config), reports))
    }

    /// Spawns the workers over prepared shard stores.
    fn from_stores(stores: Vec<shard::ShardStore>, config: &ServiceConfig) -> AllocationService {
        let metrics = Arc::new(ServiceMetrics::default());
        let shards = stores
            .into_iter()
            .enumerate()
            .map(|(index, store)| shard::Shard::spawn(index, store, config, Arc::clone(&metrics)))
            .collect();
        AllocationService {
            shards,
            metrics,
            next_id: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Exports shard `shard`'s snapshot container (the replication
    /// transfer unit — the same dual-slot image format checkpoints
    /// write) together with the generation it captures.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Remote`] unless the shard is durable (replication
    /// needs a WAL to stream the tail from).
    pub fn export_shard_snapshot(
        &self,
        shard: usize,
    ) -> Result<(Vec<u8>, rqfa_core::Generation), ServiceError> {
        self.shards[shard].export_snapshot()
    }

    /// Shard `shard`'s write-ahead-log records newer than `through` —
    /// the tail a leader streams to a follower holding a snapshot at
    /// generation `through`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Remote`] unless the shard is durable;
    /// [`ServiceError::Persist`] if the log cannot be read.
    pub fn shard_wal_tail(
        &self,
        shard: usize,
        through: rqfa_core::Generation,
    ) -> Result<Vec<rqfa_persist::StampedMutation>, ServiceError> {
        self.shards[shard].wal_tail(through)
    }

    /// The generation of shard `shard`'s served case base.
    pub fn shard_generation(&self, shard: usize) -> rqfa_core::Generation {
        self.shards[shard].generation()
    }

    /// Submits a request in the given QoS class. Always returns a ticket;
    /// a request shed at admission gets its `ShedQueueFull` reply
    /// immediately. The job has no deadline; use
    /// [`AllocationService::submit_with_deadline`] to give it one.
    pub fn submit(&self, request: Request, class: QosClass) -> Ticket {
        self.submit_us(request, class, None)
    }

    /// Submits a request that must complete within `deadline` from now.
    /// The deadline drives EDF ordering, the batch-fill cap, displacement
    /// *and* dispatch shedding — except that CRITICAL is still never
    /// shed: a late CRITICAL request is served anyway and counted as a
    /// [`missed deadline`](ClassSnapshot::missed_deadline). A deadline
    /// too far to represent saturates at the end of the time axis.
    pub fn submit_with_deadline(
        &self,
        request: Request,
        class: QosClass,
        deadline: Duration,
    ) -> Ticket {
        let deadline_us = u64::try_from(deadline.as_micros()).unwrap_or(u64::MAX);
        self.submit_us(request, class, Some(deadline_us))
    }

    /// The one submit path: numbers the request and hands it to the
    /// owning shard's front half ([`queue::ClassQueue::admit`]).
    /// `deadline_us` is relative to now, in µs — the form deadlines
    /// arrive in over the wire.
    pub(crate) fn submit_us(
        &self,
        request: Request,
        class: QosClass,
        deadline_us: Option<u64>,
    ) -> Ticket {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.shard_for(request.type_id())
            .submit(id, request, class, deadline_us)
    }

    /// The blocking submit: what `submit_us(..).wait()` returns, for a
    /// caller that has nothing to do until the reply — a node's
    /// connection thread, a cluster client's local site. When the owning
    /// shard is idle the calling thread runs its own batch instead of
    /// waking the worker and sleeping until it is woken back
    /// ([`shard::Shard::call`]). `None` if the shard is dead.
    pub(crate) fn call_us(
        &self,
        request: Request,
        class: QosClass,
        deadline_us: Option<u64>,
    ) -> Option<Reply> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.shard_for(request.type_id())
            .call(id, request, class, deadline_us)
    }

    /// Applies any [`CaseMutation`] on the shard owning its function
    /// type, returning the inverse mutation. On a durable service the
    /// mutation is in that shard's write-ahead log before this returns
    /// `Ok` — a crash afterwards cannot lose it.
    ///
    /// An *automatic* checkpoint that fails afterwards does not fail the
    /// apply (the mutation itself is durable); poll
    /// [`AllocationService::take_checkpoint_errors`] or force
    /// [`AllocationService::checkpoint`] to observe such failures before
    /// the un-compacted log grows unboundedly.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Core`] for invariant violations (nothing is
    /// logged), [`ServiceError::Persist`] when durability fails (the
    /// in-memory state is rolled back so memory never runs ahead of the
    /// log).
    pub fn apply_mutation(&self, mutation: &CaseMutation) -> Result<CaseMutation, ServiceError> {
        self.shard_for(mutation.type_id()).apply(mutation)
    }

    /// *Retain* step routed to the owning shard; bumps that shard's
    /// generation counter and moves `type_id`'s stamp to it, invalidating
    /// the cached results of that type only.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AllocationService::apply_mutation`].
    pub fn retain_variant(
        &self,
        type_id: TypeId,
        variant: ImplVariant,
    ) -> Result<(), ServiceError> {
        self.apply_mutation(&CaseMutation::Retain { type_id, variant })
            .map(|_| ())
    }

    /// *Revise* step routed to the owning shard.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AllocationService::apply_mutation`].
    pub fn revise_variant(
        &self,
        type_id: TypeId,
        revised: ImplVariant,
    ) -> Result<(), ServiceError> {
        self.apply_mutation(&CaseMutation::Revise {
            type_id,
            variant: revised,
        })
        .map(|_| ())
    }

    /// Eviction routed to the owning shard.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AllocationService::apply_mutation`].
    pub fn evict_variant(
        &self,
        type_id: TypeId,
        impl_id: rqfa_core::ImplId,
    ) -> Result<ImplVariant, ServiceError> {
        match self.apply_mutation(&CaseMutation::Evict { type_id, impl_id })? {
            CaseMutation::Retain { variant, .. } => Ok(variant),
            other => unreachable!("inverse of evict is retain, got {other:?}"),
        }
    }

    /// Forces a checkpoint (snapshot + WAL compaction) on every durable
    /// shard — e.g. before a planned shutdown, to make the next recovery
    /// replay-free. No-op on an ephemeral service.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Persist`] if any shard's checkpoint fails; earlier
    /// shards' checkpoints remain in effect (each shard checkpoints
    /// independently, and no acknowledged mutation is ever at risk).
    pub fn checkpoint(&self) -> Result<(), ServiceError> {
        for shard in &self.shards {
            shard.checkpoint()?;
        }
        Ok(())
    }

    /// Drains the errors of failed *automatic* checkpoints, as
    /// `(shard index, error)` pairs. Automatic checkpoints run inside
    /// [`AllocationService::apply_mutation`] and do not fail the apply
    /// (the mutation is already durable in the WAL), so an operator must
    /// poll this — or run explicit [`AllocationService::checkpoint`]s —
    /// to notice a shard whose snapshots are failing while its log
    /// grows. Empty on ephemeral services and in healthy operation.
    pub fn take_checkpoint_errors(&self) -> Vec<(usize, PersistError)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(index, shard)| {
                shard.take_checkpoint_error().map(|e| (index, e))
            })
            .collect()
    }

    /// Jobs currently queued across all shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.shared.queue.len()).sum()
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Drains every shard's flight recorder into one merged dump
    /// (empty when tracing is off — see
    /// [`ServiceConfig::with_trace_capacity`]). Timestamps are the
    /// service clock's µs ticks, shared across shards (and with every
    /// other recorder on the same clock); the drain is non-destructive
    /// and safe under live traffic.
    pub fn drain_trace(&self) -> TraceDump {
        TraceDump::merge(
            self.shards
                .iter()
                .filter_map(|shard| shard.shared.queue.recorder.as_ref())
                .map(|recorder| recorder.drain()),
        )
    }

    /// Registers this service's metric sources on `registry`: the
    /// service counters under `prefix`, and each durable shard's persist
    /// counters under `prefix/shard-<i>/persist`.
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        registry.register(prefix, Arc::clone(&self.metrics) as Arc<dyn MetricSource>);
        for (index, shard) in self.shards.iter().enumerate() {
            if let Some(stats) = shard.persist_stats() {
                registry.register(format!("{prefix}/shard-{index}/persist"), stats);
            }
        }
    }

    /// Drains every queue, joins the workers and returns the final
    /// metrics. Every submitted request is answered before this returns.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        for shard in &mut self.shards {
            shard.join();
        }
        self.metrics.snapshot()
    }

    fn shard_for(&self, type_id: TypeId) -> &shard::Shard {
        &self.shards[shard::route(type_id, self.shards.len())]
    }
}

/// Deterministic construction of internal [`Job`]s, so queue- and
/// scheduler-level properties (EDF order, anti-starvation, shed
/// determinism) can be asserted from the workspace test suites without
/// going through live worker threads and wall-clock timing.
///
/// Not part of the stable API — test support only.
#[doc(hidden)]
pub mod testkit {
    use super::*;

    pub use crate::shard::BatchHarness;

    /// Builds a job with an explicit enqueue tick and deadline
    /// (both clock µs), plus the ticket its reply (if any) arrives on.
    pub fn job(
        id: u64,
        class: QosClass,
        request: Request,
        enqueued_at: u64,
        deadline: Option<u64>,
    ) -> (Job, Ticket) {
        let (filler, ticket) = ticket::reply_slot(id, class);
        (
            Job {
                id,
                class,
                request,
                enqueued_at,
                deadline,
                filler,
            },
            ticket,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqfa_core::paper;

    #[test]
    fn answers_the_paper_example() {
        let service = AllocationService::new(
            &paper::table1_case_base(),
            &ServiceConfig::default().with_shards(2),
        ).expect("valid service config");
        let ticket = service.submit(paper::table1_request().unwrap(), QosClass::Medium);
        let reply = ticket.wait().unwrap();
        match reply.outcome {
            Outcome::Allocated { best, cached, .. } => {
                assert_eq!(best.impl_id, paper::IMPL_DSP);
                assert!(!cached);
            }
            other => panic!("unexpected: {other:?}"),
        }
        let snap = service.shutdown();
        assert_eq!(snap.class(QosClass::Medium).completed, 1);
    }

    #[test]
    fn repeat_requests_hit_the_cache() {
        let service =
            AllocationService::new(&paper::table1_case_base(), &ServiceConfig::default()).expect("valid service config");
        let request = paper::table1_request().unwrap();
        let first = service.submit(request.clone(), QosClass::High).wait().unwrap();
        let second = service.submit(request, QosClass::High).wait().unwrap();
        let (a, b) = match (&first.outcome, &second.outcome) {
            (
                Outcome::Allocated { best: a, cached: ca, .. },
                Outcome::Allocated { best: b, cached: cb, .. },
            ) => {
                assert!(!ca);
                assert!(cb, "second identical request must be a cache hit");
                (*a, *b)
            }
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(a, b);
        assert_eq!(service.shutdown().class(QosClass::High).cache_hits, 1);
    }

    #[test]
    fn unknown_type_fails_cleanly() {
        let service =
            AllocationService::new(&paper::table1_case_base(), &ServiceConfig::default().with_shards(3)).expect("valid service config");
        let request = Request::builder(TypeId::new(57).unwrap())
            .constraint(rqfa_core::AttrId::new(1).unwrap(), 1)
            .build()
            .unwrap();
        let reply = service.submit(request, QosClass::Low).wait().unwrap();
        assert!(matches!(
            reply.outcome,
            Outcome::Failed(CoreError::UnknownType { .. })
        ));
        service.shutdown();
    }

    #[test]
    fn recover_refuses_when_a_durable_shard_directory_is_missing() {
        // Losing a shard's on-disk state must fail recovery loudly, not
        // degrade its types into silent UnknownType replies.
        let dir = std::env::temp_dir().join(format!(
            "rqfa-durable-missing-shard-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let service = AllocationService::durable_create(
            &paper::table1_case_base(),
            &dir,
            &ServiceConfig::default().with_shards(3),
        )
        .unwrap();
        assert!(service.take_checkpoint_errors().is_empty());
        service.shutdown();
        std::fs::remove_dir_all(dir.join("shard-2")).unwrap();
        let result = AllocationService::durable_recover(&dir, &ServiceConfig::default());
        match result {
            Err(ServiceError::Manifest(message)) => {
                assert!(message.contains("shard-2"), "{message}");
            }
            Err(other) => panic!("wrong error kind: {other}"),
            Ok(_) => panic!("missing shard state must not recover silently"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_create_purges_stale_shard_directories() {
        // Regression: re-creating durable state in a directory used to
        // leave old `shard-<i>` dirs behind; a shard empty under the new
        // layout would then resurrect the *old* case base on recover.
        let dir = std::env::temp_dir().join(format!(
            "rqfa-durable-purge-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Layout 1: 2 types over 3 shards → shard-1 and shard-2 durable.
        let first = AllocationService::durable_create(
            &paper::table1_case_base(),
            &dir,
            &ServiceConfig::default().with_shards(3),
        )
        .unwrap();
        first.shutdown();
        assert!(dir.join("shard-2").is_dir());

        // Layout 2: only FIR (TypeId 1) over 2 shards → shard-1 only.
        let cb = CaseBase::new(
            paper::table1_case_base().bounds().clone(),
            vec![paper::table1_case_base().function_types()[0].clone()],
        )
        .unwrap();
        let second = AllocationService::durable_create(
            &cb,
            &dir,
            &ServiceConfig::default().with_shards(2),
        )
        .unwrap();
        second.shutdown();
        assert!(
            !dir.join("shard-2").is_dir(),
            "stale shard dir from the old layout must be purged"
        );

        // Recovery serves the new layout: FFT (TypeId 2) is unknown now.
        let (recovered, reports) = AllocationService::durable_recover(
            &dir,
            &ServiceConfig::default(),
        )
        .unwrap();
        assert_eq!(reports.len(), 2);
        let request = Request::builder(TypeId::new(2).unwrap())
            .constraint(rqfa_core::AttrId::new(1).unwrap(), 10)
            .build()
            .unwrap();
        let reply = recovered.submit(request, QosClass::Medium).wait().unwrap();
        assert!(matches!(
            reply.outcome,
            Outcome::Failed(CoreError::UnknownType { .. })
        ));
        recovered.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_shards_is_a_config_error_not_a_clamp() {
        // Regression: `with_shards(0)` used to clamp silently to one
        // shard, making `shards=0` mean something it shouldn't. Now the
        // value is stored verbatim and construction refuses it loudly.
        assert_eq!(ServiceConfig::default().with_shards(0).shards, 0);
        let Err(err) = AllocationService::new(
            &paper::table1_case_base(),
            &ServiceConfig::default().with_shards(0),
        ) else {
            panic!("zero shards must be rejected")
        };
        assert!(matches!(err, ServiceError::Config(_)), "{err}");
        // The other two sizing knobs follow the same rule, whether the
        // zero arrives through the builder or a struct literal: stored
        // verbatim, refused at construction, clamped nowhere.
        assert_eq!(ServiceConfig::default().with_batch_size(0).batch_size, 0);
        assert_eq!(ServiceConfig::default().with_queue_capacity(0).queue_capacity, 0);
        for (what, config) in [
            ("batch_size", ServiceConfig::default().with_batch_size(0)),
            ("batch_size", ServiceConfig { batch_size: 0, ..ServiceConfig::default() }),
            ("queue_capacity", ServiceConfig::default().with_queue_capacity(0)),
            ("queue_capacity", ServiceConfig { queue_capacity: 0, ..ServiceConfig::default() }),
        ] {
            match AllocationService::new(&paper::table1_case_base(), &config) {
                Err(ServiceError::Config(message)) => {
                    assert!(message.contains(what), "{message} should name {what}");
                }
                Err(other) => panic!("zero {what}: expected a Config error, got {other}"),
                Ok(_) => panic!("zero {what} must be rejected"),
            }
        }
        // The durable constructor validates before touching the disk.
        let dir = std::env::temp_dir().join(format!("rqfa-zero-shards-{}", std::process::id()));
        let Err(err) = AllocationService::durable_create(
            &paper::table1_case_base(),
            &dir,
            &ServiceConfig::default().with_shards(0),
        ) else {
            panic!("zero shards must be rejected")
        };
        assert!(matches!(err, ServiceError::Config(_)), "{err}");
        assert!(!dir.exists(), "rejected config must not create state");
    }

    #[test]
    fn shutdown_answers_everything_first() {
        let service = AllocationService::new(
            &paper::table1_case_base(),
            &ServiceConfig::default().with_batch_size(2),
        ).expect("valid service config");
        let tickets: Vec<Ticket> = (0..50)
            .map(|_| service.submit(paper::table1_request().unwrap(), QosClass::Low))
            .collect();
        service.shutdown();
        for ticket in tickets {
            assert!(ticket.wait().is_some());
        }
    }
}
