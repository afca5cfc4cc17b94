//! The sharded case-base store, the shard core and its drivers.
//!
//! Function types are partitioned across N shards by `TypeId` (modulo N —
//! type ids are dense in practice, so the spread is even). Each shard is
//! one `ShardCore`: a private [`CaseBase`] slice behind a mutex, a private
//! [`RetrievalCache`], a [`ClassQueue`] and a [`PlaneEngine`], built by
//! one constructor and run through one path — `ClassQueue::admit` in,
//! `ShardCore::step` out. The live service drives it from a worker
//! thread — and, when the shard is idle, from the thread of a blocking
//! call (`Shard::call`) or of a waiter blocked on a ticket
//! (`Ticket::wait`) — the replay from its event loop, the
//! [`BatchHarness`] by hand.
//! Because retrieval only ever touches the requested type's subtree, a
//! shard answers exactly as the single big engine would over the merged
//! case base — sharding changes *where* a request runs, never *what* it
//! answers (the integration suite asserts this).
//!
//! Mutations (retain/revise/evict) lock the owning shard's case base
//! directly. Each moves the stamp of the one function type it touches
//! (`CaseBase::type_stamp`); the worker looks cached results up and
//! inserts them at the *request's type* stamp, so the next lookups drop
//! that type's cached results — each once, as `stale` — and keep every
//! other type's, and the plane engine recompiles that one type plane.
//! A *durable* shard additionally owns a
//! [`DurableCaseBase`] — its write-ahead log is appended under the same
//! lock before the mutation is acknowledged, so the log can never run
//! behind the state the workers serve from.
//!
//! Checkpoints (snapshot + log compaction) run in **two phases** so their
//! I/O never stalls the shard's retrievals: phase 1 clones the state and
//! checks the stale snapshot slot out under the store lock (cheap), the
//! snapshot write then runs with the lock *released*, and phase 2
//! re-locks only to reinstall the slot and trim the already-snapshotted
//! log prefix (bounded read + atomic replace). The mutation that leaves
//! the durable case base's `checkpoint_due` true runs it, off the lock.
//! A per-shard checkpoint mutex serializes checkpoints against each
//! other — never against retrievals; a due checkpoint simply skips a
//! beat when one is already in flight.

use std::borrow::Borrow;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};

use rqfa_core::{
    CaseBase, CaseMutation, CoreError, Generation, PlaneEngine, QosClass, Request, Retrieval,
    TypeId,
};
use rqfa_fixed::Q15;
use rqfa_persist::{DurableCaseBase, FileStore, PersistError};
use rqfa_telemetry::{EventKind, FlightRecorder};

use crate::cache::{CacheLookup, RetrievalCache};
use crate::error::ServiceError;
use crate::metrics::{BatchDeltas, ServiceMetrics};
use crate::queue::ClassQueue;
use crate::ticket::{Ticket, Waiters};
use crate::{Job, Outcome, Reply, ServiceConfig};

/// Routes a function type to its owning shard — the service's placement
/// function, delegating to [`rqfa_core::placement::shard_index`] so every
/// layer (local workers, remote nodes, replication) agrees on ownership.
///
/// # Panics
///
/// With `shards == 0` — a shard count is validated at service
/// construction ([`ServiceError::Config`]),
/// never silently clamped here.
pub fn route(type_id: TypeId, shards: usize) -> usize {
    rqfa_core::placement::shard_index(type_id, shards)
}

/// Splits a case base into per-shard slices. Slice `i` holds every
/// function type with `route(id, n) == i`; all slices share the (cloned)
/// bounds table and inherit the source's generation — a service built
/// over a promoted replica resumes counting at the replica's generation
/// instead of rewinding to genesis. A slice may be empty (`None`) when
/// no type routes to it.
///
/// # Panics
///
/// With `shards == 0` (see [`route`]).
pub fn partition(case_base: &CaseBase, shards: usize) -> Vec<Option<CaseBase>> {
    assert!(shards > 0, "partition requires at least one shard");
    let mut buckets: Vec<Vec<rqfa_core::FunctionType>> = vec![Vec::new(); shards];
    for ty in case_base.function_types() {
        buckets[route(ty.id(), shards)].push(ty.clone());
    }
    buckets
        .into_iter()
        .map(|types| {
            if types.is_empty() {
                None
            } else {
                let mut slice = CaseBase::new(case_base.bounds().clone(), types)
                    .expect("slices of a valid case base stay valid");
                slice.restore_generation(case_base.generation());
                Some(slice)
            }
        })
        .collect()
}

/// What one shard serves retrievals from and applies mutations to.
///
/// The worker thread only ever reads [`ShardStore::case_base`]; the
/// mutation path goes through [`ShardStore::apply`], which for a durable
/// shard is write-ahead: validate + apply in memory, append to the WAL,
/// roll back if the append fails.
pub(crate) enum ShardStore {
    /// No function type routes to this shard.
    Empty,
    /// In-memory only (the pre-persistence behaviour).
    Ephemeral(CaseBase),
    /// WAL + snapshot backed.
    Durable(Box<DurableCaseBase<FileStore>>),
}

impl ShardStore {
    /// An in-memory store over one [`partition`] slice (`None` = no
    /// type routes to the shard).
    pub(crate) fn ephemeral(slice: Option<CaseBase>) -> ShardStore {
        slice.map_or(ShardStore::Empty, ShardStore::Ephemeral)
    }

    /// The case base served by this shard, if any.
    pub(crate) fn case_base(&self) -> Option<&CaseBase> {
        match self {
            ShardStore::Empty => None,
            ShardStore::Ephemeral(cb) => Some(cb),
            ShardStore::Durable(durable) => Some(durable.case_base()),
        }
    }

    /// The generation of the served case base: what replication, fencing
    /// and `shard_generation` report. Cached results are *not* validated
    /// against it — see [`ShardStore::type_stamp`].
    pub(crate) fn generation(&self) -> Generation {
        self.case_base()
            .map_or(Generation::GENESIS, CaseBase::generation)
    }

    /// The stamp the cache validates and stamps results of `type_id`
    /// with. A type this shard does not hold has no results to validate —
    /// its retrievals fail before any insert — so any constant serves.
    pub(crate) fn type_stamp(&self, type_id: TypeId) -> Generation {
        self.case_base()
            .and_then(|cb| cb.type_stamp(type_id))
            .unwrap_or(Generation::GENESIS)
    }

    /// Applies a mutation, returning its inverse (durably for a durable
    /// shard — the mutation is in the WAL before this returns `Ok`).
    pub(crate) fn apply(&mut self, mutation: &CaseMutation) -> Result<CaseMutation, ServiceError> {
        match self {
            ShardStore::Empty => Err(ServiceError::Core(CoreError::UnknownType {
                type_id: mutation.type_id(),
            })),
            ShardStore::Ephemeral(cb) => cb.apply_mutation(mutation).map_err(ServiceError::Core),
            ShardStore::Durable(durable) => durable.apply(mutation).map_err(ServiceError::from),
        }
    }

    /// The durable case base, which owns the checkpoint debt and cadence
    /// (`None` for shards with nothing to checkpoint).
    pub(crate) fn durable(&mut self) -> Option<&mut DurableCaseBase<FileStore>> {
        match self {
            ShardStore::Durable(durable) => Some(durable),
            _ => None,
        }
    }
}

/// One live shard: the thread-loop driver of a [`ShardCore`], plus the
/// handle the service front end keeps on what every driver shares (queue
/// to admit into, store to mutate, worker context to drive with), and the
/// checkpoint lock.
pub(crate) struct Shard {
    pub(crate) shared: Arc<Shared>,
    /// Serializes checkpoints against each other (never against the
    /// store lock — retrievals keep flowing during checkpoint I/O).
    checkpoint_lock: Mutex<()>,
    /// Parked error of the last failed automatic checkpoint.
    checkpoint_error: Mutex<Option<PersistError>>,
    worker: Option<JoinHandle<()>>,
}

impl Shard {
    /// Spawns the live driver of a shard core over `store`: a thread
    /// stepping the core until the queue is shut down and drained,
    /// feeding each step's *measured* duration (store-lock wait included
    /// — the next lane head waits that out too) to the scheduler's
    /// estimator. Under a frozen `ManualClock` every measurement is 0, so
    /// batch fill is unbounded.
    pub(crate) fn spawn(
        index: usize,
        store: ShardStore,
        config: &ServiceConfig,
        metrics: Arc<ServiceMetrics>,
    ) -> Shard {
        let mut core = ShardCore::new(store, config, metrics, None);
        let shared = Arc::clone(&core.shared);
        let worker = std::thread::Builder::new()
            .name(format!("rqfa-shard-{index}"))
            .spawn(move || {
                // `core` is dropped when this thread exits — by return or
                // by panic — which tears the queue down (see its `Drop`).
                while core.step(Timing::Measured).is_some() {}
            })
            .expect("spawn shard worker");
        Shard {
            shared,
            checkpoint_lock: Mutex::new(()),
            checkpoint_error: Mutex::new(None),
            worker: Some(worker),
        }
    }

    /// Submits one request ([`ClassQueue::admit`]).
    pub(crate) fn submit(
        &self,
        id: u64,
        request: Request,
        class: QosClass,
        deadline_us: Option<u64>,
    ) -> Ticket {
        self.ticket(self.shared.queue.admit_with(id, request, class, deadline_us, None))
    }

    /// An admitted job's ticket; one whose job may yet be a waiter's to
    /// run holds this shard weakly, so that the thread blocked on it can
    /// run the batch the shard's idle worker owes it (`docs/scheduling.md`
    /// §7.5). No other job ever is, so no other ticket pays for the handle.
    fn ticket(&self, (ticket, owed): (Ticket, bool)) -> Ticket {
        if owed {
            ticket.driven_by(&self.shared)
        } else {
            ticket
        }
    }

    /// A blocking submit — what `submit(..).wait()` returns — by a fourth
    /// driver of the shard core: when the shard is idle the caller runs
    /// its own batch instead of handing a batch of one to the worker and
    /// sleeping until it is handed back (`docs/scheduling.md` §7.4).
    ///
    /// `None` as from [`Ticket::wait`]: the shard's worker is dead, or
    /// this call found the store lock poisoned — in which case it shuts
    /// the queue as a dying worker does and answers `None`; it never
    /// panics the caller's thread.
    pub(crate) fn call(
        &self,
        id: u64,
        request: Request,
        class: QosClass,
        deadline_us: Option<u64>,
    ) -> Option<Reply> {
        // Held: a batch is running, so this job queues behind it like any
        // other. Poisoned: a driver died mid-batch; the worker finds out
        // on its next step and takes the queue down with it.
        let Ok(mut context) = self.shared.context.try_lock() else {
            return self.submit(id, request, class, deadline_us).wait();
        };
        let queue = &self.shared.queue;
        let (admitted, _) = self.shared.drive(&mut context, |batch| {
            queue.admit_with(id, request, class, deadline_us, Some(batch))
        });
        drop(context);
        self.ticket(admitted).wait()
    }

    /// Applies a mutation to this shard's store under its lock, returning
    /// the inverse mutation, and runs the checkpoint that left due once
    /// the lock is released. One already in flight makes that a no-op
    /// (the debt stays due); a failed one parks its error for
    /// [`Shard::take_checkpoint_error`] instead of failing the apply.
    pub(crate) fn apply(&self, mutation: &CaseMutation) -> Result<CaseMutation, ServiceError> {
        let (inverse, due) = {
            let mut store = self.shared.store.lock().expect("store poisoned");
            let inverse = store.apply(mutation)?;
            (inverse, store.durable().is_some_and(|d| d.checkpoint_due()))
        };
        if due {
            if let Ok(_guard) = self.checkpoint_lock.try_lock() {
                if let Err(e) = self.checkpoint_locked() {
                    *self.checkpoint_error.lock().expect("error slot poisoned") = Some(e);
                }
            }
        }
        Ok(inverse)
    }

    /// Forces a checkpoint on this shard's store (durable shards only).
    pub(crate) fn checkpoint(&self) -> Result<(), PersistError> {
        let _guard = self.checkpoint_lock.lock().expect("checkpoint poisoned");
        self.checkpoint_locked()
    }

    /// The two-phase checkpoint body. Caller holds `checkpoint_lock`;
    /// the store lock is only taken for the cheap begin/finish phases,
    /// so retrievals and mutations keep flowing during the snapshot
    /// write.
    fn checkpoint_locked(&self) -> Result<(), PersistError> {
        let pending = match self.shared.store.lock().expect("store poisoned").durable() {
            Some(durable) => durable.checkpoint_begin()?,
            None => return Ok(()), // nothing durable to checkpoint
        };
        let written = pending.write(); // the expensive I/O — off-lock
        let mut store = self.shared.store.lock().expect("store poisoned");
        store.durable().expect("a shard's store keeps its kind").checkpoint_finish(written)
    }

    /// Drains this shard's parked automatic-checkpoint error, if any.
    pub(crate) fn take_checkpoint_error(&self) -> Option<PersistError> {
        self.checkpoint_error
            .lock()
            .expect("error slot poisoned")
            .take()
    }

    /// The durable store's write-path counters (`None` for ephemeral and
    /// empty shards). The returned block reads lock-free afterwards.
    pub(crate) fn persist_stats(&self) -> Option<Arc<rqfa_persist::PersistStats>> {
        let mut store = self.shared.store.lock().expect("store poisoned");
        store.durable().map(|durable| durable.stats())
    }

    /// Exports this durable shard's snapshot container (the replication
    /// transfer unit) together with the generation it captures. The
    /// store lock is held only for the in-memory encode.
    pub(crate) fn export_snapshot(&self) -> Result<(Vec<u8>, Generation), ServiceError> {
        self.replicating(|durable| Ok((durable.export_snapshot()?, durable.generation())))
    }

    /// This durable shard's WAL records newer than `through` — the tail a
    /// leader streams to a follower holding a snapshot at `through`.
    pub(crate) fn wal_tail(
        &self,
        through: Generation,
    ) -> Result<Vec<rqfa_persist::StampedMutation>, ServiceError> {
        self.replicating(|durable| durable.wal_tail(through))
    }

    /// Runs `f` on this shard's durable case base under the store lock.
    /// Only durable shards replicate: there is no WAL to stream otherwise.
    fn replicating<T>(
        &self,
        f: impl FnOnce(&DurableCaseBase<FileStore>) -> Result<T, PersistError>,
    ) -> Result<T, ServiceError> {
        let mut store = self.shared.store.lock().expect("store poisoned");
        let durable = store.durable().ok_or_else(|| {
            ServiceError::Remote("only durable shards replicate (no WAL to stream)".into())
        })?;
        Ok(f(durable)?)
    }

    /// The generation of this shard's served case base.
    pub(crate) fn generation(&self) -> Generation {
        self.shared.store.lock().expect("store poisoned").generation()
    }

    /// Signals shutdown and joins the worker, draining queued jobs first.
    /// A batch a waiter took off the queue before the shutdown may still
    /// be running on the waiter's thread: it holds the context until the
    /// batch is answered, so taking the context once after the join
    /// waits it out. After the shutdown nobody else takes a batch.
    pub(crate) fn join(&mut self) {
        self.shared.queue.shutdown();
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
        drop(self.shared.context.lock());
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.join();
    }
}

/// Whether a driver's batch durations are real. The live drivers (the
/// worker loop, a blocking caller, a waiter) feed theirs to the scheduler's
/// estimator — inside the context's critical section, so the estimator
/// has one writer at a time. The replay charges its cost model instead
/// and the harness nothing: under their frozen clocks every measurement
/// would read 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Timing {
    Measured,
    Modelled,
}

/// One shard's whole request path, driver-agnostic: the front half
/// ([`ClassQueue::admit`] on [`Shared::queue`]) turns requests into
/// queued jobs, the worker half ([`ShardCore::step`]) turns queued jobs
/// into replies. The live service steps it from a thread loop (and runs
/// an idle shard's batch from a blocking caller, [`Shard::call`], or a
/// blocked waiter, [`Ticket::wait`]), the deterministic replay from its
/// discrete-event loop, and the [`BatchHarness`] hands
/// [`ShardCore::run`] caller-built batches — one constructor, one
/// execution path, four drivers.
pub(crate) struct ShardCore {
    pub(crate) shared: Arc<Shared>,
    /// The batch in this driver's hands.
    flight: InFlight,
}

/// What every driver of one shard core shares. A live shard's tickets
/// that a waiter may drive hold it weakly ([`Shard::submit`]): no
/// allocation per ticket, and a ticket that outlives the shard keeps
/// none of it alive.
pub(crate) struct Shared {
    /// The front half; also holds what both halves share — the
    /// configuration (with its clock), the metrics block and the flight
    /// recorder.
    pub(crate) queue: ClassQueue,
    pub(crate) store: Mutex<ShardStore>,
    /// Engine, cache and scratch: locked per batch by whoever runs it.
    context: Mutex<WorkerContext>,
}

impl ShardCore {
    /// Wires one shard from `config`: queue (with its estimator), result
    /// cache, plane engine and flight recorder, all on `config.clock`,
    /// counting into `metrics`. The recorder is a ring of the shard's
    /// own, sized by `config.trace_capacity` (0 = tracing off), unless
    /// the driver passes one to share across shards.
    pub(crate) fn new(
        store: ShardStore,
        config: &ServiceConfig,
        metrics: Arc<ServiceMetrics>,
        shared_recorder: Option<Arc<FlightRecorder>>,
    ) -> ShardCore {
        let capacity = config.trace_capacity;
        let recorder = shared_recorder
            .or_else(|| (capacity > 0).then(|| Arc::new(FlightRecorder::new(capacity))));
        let shared = Shared {
            queue: ClassQueue::new(config, metrics, recorder),
            store: Mutex::new(store),
            context: Mutex::new(WorkerContext {
                engine: PlaneEngine::new(),
                cache: RetrievalCache::new(config.cache_capacity),
                results: Vec::new(),
                deltas: BatchDeltas::default(),
                idle_flight: InFlight::default(),
            }),
        };
        ShardCore {
            shared: Arc::new(shared),
            flight: InFlight::default(),
        }
    }

    /// Pops the next batch (blocking while the queue is empty) and runs
    /// it, returning the number of jobs it held. `None` once the queue is
    /// shut down and drained — the driver's signal to stop.
    pub(crate) fn step(&mut self, timing: Timing) -> Option<usize> {
        let queue = &self.shared.queue;
        // The queue mutex is free again before the context is waited
        // for: an inline driver holds the context while it pops.
        queue
            .pop_batch(queue.config.batch_size, &mut self.flight.batch)
            .then(|| self.run(timing))
    }

    /// Runs the batch in this driver's hands.
    ///
    /// # Panics
    ///
    /// On a poisoned context or store lock: a driver or a mutator died
    /// holding it. The batch is dropped with the panicking driver, so its
    /// tickets wake with `None` (see the `Drop` below).
    fn run(&mut self, timing: Timing) -> usize {
        let shared = &*self.shared;
        let mut context = shared.context.lock().expect("context poisoned");
        shared
            .run(&mut context, &mut self.flight, timing)
            .expect("store poisoned")
    }
}

impl Shared {
    /// Runs the batch in `flight` against the (locked) store — the one
    /// execution path of every driver — and returns the number of jobs it
    /// held. `None`, with the batch still in `flight`, if the store lock
    /// is poisoned.
    fn run(
        &self,
        context: &mut WorkerContext,
        flight: &mut InFlight,
        timing: Timing,
    ) -> Option<usize> {
        let queue = &self.queue;
        let served = flight.batch.len();
        // Timed from before the store lock is taken to after the last
        // reply is sent.
        let started = queue.config.clock.now_us();
        let store = self.store.lock().ok()?;
        process_batch(&store, queue, context, flight);
        drop(store);
        if timing == Timing::Measured {
            let elapsed_us = queue.config.clock.now_us().saturating_sub(started);
            queue.estimator().observe(elapsed_us, served);
        }
        Some(served)
    }

    /// The one inline drive (`docs/scheduling.md` §7.4, §7.5), with the
    /// context held: takes the context's spare buffers into this
    /// driver's hands, lets `pop` fill the batch under the queue mutex,
    /// runs a non-empty batch and counts it, puts the buffers back.
    /// Returns what `pop` returned and whether a batch was answered. A
    /// store lock found poisoned makes the driver go as a dying worker
    /// goes: the batch is dropped, its slots abandoned, the queue shut.
    fn drive<T>(
        &self,
        context: &mut WorkerContext,
        pop: impl FnOnce(&mut Vec<Job>) -> T,
    ) -> (T, bool) {
        // In this driver's hands, not in the shared context, while it
        // holds jobs: unwinding drops them here, where their slots are
        // abandoned, instead of stranding them where nobody looks.
        let mut flight = std::mem::take(&mut context.idle_flight);
        let popped = pop(&mut flight.batch);
        let mut ran = false;
        if !flight.batch.is_empty() {
            if self.run(context, &mut flight, Timing::Measured).is_some() {
                // Release: pairs with the snapshot's Acquire read, which
                // must see the batch (counted by the run) too.
                let inline_runs = &self.queue.metrics.inline_runs;
                inline_runs.fetch_add(1, Ordering::Release);
                ran = true;
            } else {
                flight.batch.clear();
                self.queue.abort();
            }
        }
        context.idle_flight = flight;
        (popped, ran)
    }

    /// Runs the batch the shard's empty-handed worker would run next on
    /// the calling thread — a waiter's, whose reply is still outstanding
    /// (`docs/scheduling.md` §7.5). Returns whether it answered one:
    /// `false` if a batch is running (context held), a driver died
    /// (context poisoned), the worker is busy, the queue is empty or
    /// deeper than one batch, or the store lock was found poisoned.
    pub(crate) fn run_owed_batch(&self) -> bool {
        let Ok(mut context) = self.context.try_lock() else {
            return false;
        };
        self.drive(&mut context, |batch| self.queue.pop_owed(batch)).1
    }
}

/// Dropping the core — the worker half — leaves nobody to serve the
/// queue, so the queue goes with it: shut, backlog dropped unanswered.
/// A no-op after a drained shutdown; if a live worker thread dies
/// instead (a panic under the poisoned store lock), queued tickets wake
/// with `None` and later submits are refused on the spot, instead of
/// both waiting forever on a thread that is gone.
impl Drop for ShardCore {
    fn drop(&mut self) {
        self.shared.queue.abort();
    }
}

/// The reusable per-shard state of the retrieval hot path: the compiled
/// plane engine (scratch arena + plane, one type plane recompiled per
/// moved type stamp), the shard's result cache, and the batch-local
/// buffers that hold no job. One mutex guards it; whoever runs a batch
/// holds it for the length of the batch.
///
/// Everything here is sized by the first few batches and reused after, so
/// the steady-state worker allocates nothing per request or per batch
/// (`tests/zero_alloc.rs` holds the whole request path to its budget).
struct WorkerContext {
    engine: PlaneEngine,
    cache: RetrievalCache,
    /// Engine results of the current batch's misses, reused.
    results: Vec<Result<Retrieval<Q15>, CoreError>>,
    /// The current batch's outcome deltas, committed batch-atomically.
    deltas: BatchDeltas,
    /// Buffers for an inline driver — a blocking caller or a waiter — to
    /// take into its own hands while it drives ([`Shared::drive`]); empty
    /// whenever the context is unlocked.
    idle_flight: InFlight,
}

/// What one driver has in flight: every buffer that holds a job or a
/// released waiter while a batch runs. A driver keeps it in its own
/// hands, never in the shared [`WorkerContext`], so a driver that unwinds
/// mid-batch drops exactly these — the jobs' reply slots are abandoned
/// and the collected waiters woken (their `Drop`s) — and nothing is left
/// behind in state that outlives it.
#[derive(Default)]
struct InFlight {
    /// The batch being run: filled by the queue's fill loop (or the
    /// harness), drained by `process_batch`.
    batch: Vec<Job>,
    /// The current batch's cache misses: what the kernel scores.
    misses: Vec<Miss>,
    /// Waiters the replies so far released, not yet woken.
    waiters: Waiters,
}

/// A job the kernel has to score. It keeps its pass-1 fingerprint and
/// type stamp (the store stays locked, so the stamp cannot move), so the
/// insert in pass 2 neither re-hashes the constraint list nor searches
/// the type again.
struct Miss {
    fingerprint: u64,
    type_stamp: Generation,
    job: Job,
}

/// Lets the kernel's batch call read the requests where they lie.
impl Borrow<Request> for Miss {
    fn borrow(&self) -> &Request {
        &self.job.request
    }
}

/// One clock read shared by the events, deadline checks and reply
/// latencies it stamps (which keeps a manual-clock replay exactly
/// reproducible), plus where those events, latency samples and released
/// waiters go. A batch takes two: one at dispatch, for shedding and cache
/// hits, and one after the kernel call, for everything the kernel
/// answered; the waiters of each are woken together when it is done —
/// one hand-over per batch pass, not one per reply.
struct BatchStamp<'a> {
    now: u64,
    queue: &'a ClassQueue,
    waiters: &'a mut Waiters,
}

impl BatchStamp<'_> {
    fn record(&self, job: &Job, kind: EventKind, arg: u64) {
        self.queue.trace(self.now, job.id, job.class, kind, arg);
    }

    /// Answers `job`, its latency judged at this stamp. A waiter the
    /// reply releases is woken with the rest of the stamp's.
    fn reply(&mut self, job: Job, outcome: Outcome) {
        let latency_us = self.now.saturating_sub(job.enqueued_at);
        self.waiters
            .extend(job.reply(outcome, latency_us, &self.queue.metrics));
    }

    /// Answers `job` as failed.
    fn fail(&mut self, job: Job, error: CoreError, deltas: &mut BatchDeltas) {
        deltas.class(job.class).failed += 1;
        self.record(&job, EventKind::Failed, 0);
        self.reply(job, Outcome::Failed(error));
    }

    /// Completes `job` with a retrieval result.
    fn finish(
        &mut self,
        job: Job,
        retrieval: Retrieval<Q15>,
        cached: bool,
        deltas: &mut BatchDeltas,
    ) {
        // Served, but late? CRITICAL is never shed, so an expired deadline
        // surfaces here as a miss instead.
        if job.deadline.is_some_and(|d| self.now > d) {
            deltas.class(job.class).missed_deadline += 1;
        }
        let Some(best) = retrieval.best else {
            // Unreachable for a validated case base; reported honestly anyway.
            let type_id = job.request.type_id();
            return self.fail(job, CoreError::UnknownType { type_id }, deltas);
        };
        deltas.class(job.class).completed += 1;
        if cached {
            deltas.class(job.class).cache_hits += 1;
        }
        self.record(&job, EventKind::Replied, u64::from(cached));
        let evaluated = retrieval.evaluated;
        self.reply(job, Outcome::Allocated { best, evaluated, cached });
    }
}

/// Processes one dispatched batch: shed expired jobs, answer cache hits,
/// run every miss through the plane kernel's batch API, and answer what
/// it scored.
///
/// Every surviving job probes the cache once, so `cache_hits` counts
/// exactly what the store hit. Two identical requests in one batch are
/// two misses and two kernel calls, answered bit-identically; the second
/// insert overwrites the first in place. Normative semantics:
/// `docs/retrieval.md`.
fn process_batch(
    store: &ShardStore,
    queue: &ClassQueue,
    ctx: &mut WorkerContext,
    flight: &mut InFlight,
) {
    let metrics = &*queue.metrics;
    metrics.batches.fetch_add(1, Ordering::Relaxed);
    metrics
        .batched_requests
        .fetch_add(flight.batch.len() as u64, Ordering::Relaxed);
    let now = queue.config.clock.now_us();
    let waiters = &mut flight.waiters;
    let mut stamp = BatchStamp { now, queue, waiters };

    // Pass 1: deadline shedding, cache lookups.
    for job in flight.batch.drain(..) {
        stamp.record(&job, EventKind::Dispatched, 0);
        if job.class.sheddable() && job.deadline.is_some_and(|d| stamp.now > d) {
            ctx.deltas.class(job.class).shed_deadline += 1;
            stamp.record(&job, EventKind::ShedDeadline, 0);
            stamp.reply(job, Outcome::ShedDeadline);
            continue;
        }
        let fingerprint = job.request.fingerprint();
        let type_stamp = store.type_stamp(job.request.type_id());
        match ctx.cache.lookup_outcome(fingerprint, type_stamp) {
            CacheLookup::Hit(hit) => {
                stamp.record(&job, EventKind::CacheHit, 0);
                stamp.finish(job, hit, true, &mut ctx.deltas);
                continue;
            }
            CacheLookup::Miss { stale } => {
                let deltas = ctx.deltas.class(job.class);
                deltas.cache_misses += 1;
                if stale {
                    deltas.cache_stale += 1;
                    stamp.record(&job, EventKind::CacheStale, 0);
                } else {
                    stamp.record(&job, EventKind::CacheMiss, 0);
                }
            }
        }
        flight.misses.push(Miss { fingerprint, type_stamp, job });
    }
    // Sheds and cache hits are answered: their waiters go now, not after
    // a kernel call they never needed.
    flight.waiters.wake();

    // Pass 2: one batched plane-kernel call for every miss.
    'serve: {
        if flight.misses.is_empty() {
            break 'serve;
        }
        let waiters = &mut flight.waiters;
        let Some(case_base) = store.case_base() else {
            // Empty shard: no type routes here, so the type is unknown.
            let mut stamp = BatchStamp { now, queue, waiters };
            for Miss { job, .. } in flight.misses.drain(..) {
                let type_id = job.request.type_id();
                stamp.fail(job, CoreError::UnknownType { type_id }, &mut ctx.deltas);
            }
            break 'serve;
        };
        ctx.engine
            .retrieve_batch_into(case_base, &flight.misses, &mut ctx.results);
        // The kernel ran: what it answered is stamped after it, so the
        // `Scored` checkpoint and the reported latency carry its cost.
        let now = queue.config.clock.now_us();
        let mut stamp = BatchStamp { now, queue, waiters };
        for result in ctx.results.iter().flatten() {
            ctx.deltas.add_ops(&result.ops);
        }
        for (miss, result) in flight.misses.drain(..).zip(ctx.results.drain(..)) {
            let Miss { fingerprint, type_stamp, job } = miss;
            match result {
                Ok(retrieval) => {
                    stamp.record(&job, EventKind::Scored, retrieval.evaluated as u64);
                    ctx.cache.insert(fingerprint, type_stamp, &retrieval);
                    stamp.finish(job, retrieval, false, &mut ctx.deltas);
                }
                Err(error) => stamp.fail(job, error, &mut ctx.deltas),
            }
        }
    }
    // Whatever the kernel (or the empty shard) answered is in its slot.
    flight.waiters.wake();
    // One commit per batch: a concurrent snapshot sees either none or all
    // of this batch's outcome counters (the snapshot-consistency
    // invariant the observability suite samples under load).
    metrics.commit(&ctx.deltas);
    ctx.deltas.clear();
}

/// Drives the worker's batch-processing path synchronously, without
/// worker threads or wall-clock dependence: the caller decides exactly
/// which jobs form one dispatch batch, which makes cache accounting
/// deterministic and assertable. Construct jobs with
/// [`crate::testkit::job`].
///
/// Not part of the stable API — test support only.
#[doc(hidden)]
pub struct BatchHarness {
    core: ShardCore,
}

impl BatchHarness {
    /// A harness over an ephemeral copy of `case_base`: the shard core
    /// `config` describes (cache, clock, flight recorder),
    /// driven by hand.
    pub fn new(case_base: &CaseBase, config: &ServiceConfig) -> BatchHarness {
        let store = ShardStore::Ephemeral(case_base.clone());
        let metrics = Arc::new(ServiceMetrics::default());
        BatchHarness {
            core: ShardCore::new(store, config, metrics, None),
        }
    }

    /// Processes `batch` exactly as one worker dispatch round would.
    pub fn run_batch(&mut self, batch: Vec<Job>) {
        self.core.flight.batch = batch;
        self.core.run(Timing::Modelled);
    }

    /// Applies a mutation to the underlying store (moves the mutated
    /// type's stamp, so the next batch drops that type's cached results
    /// and recompiles its type plane).
    pub fn apply(&mut self, mutation: &CaseMutation) -> Result<CaseMutation, ServiceError> {
        self.core.shared.store.lock().expect("store poisoned").apply(mutation)
    }

    fn context(&self) -> std::sync::MutexGuard<'_, WorkerContext> {
        self.core.shared.context.lock().expect("context poisoned")
    }

    /// Metrics accumulated by the processed batches.
    pub fn metrics(&self) -> crate::MetricsSnapshot {
        self.core.shared.queue.metrics.snapshot()
    }

    /// The result cache's counter set.
    pub fn cache_stats(&self) -> rqfa_cache::CacheStats {
        self.context().cache.cache_stats()
    }

    /// Plane (re)compilations performed by the worker's engine.
    pub fn engine_recompiles(&self) -> u64 {
        self.context().engine.recompiles()
    }

    /// Type planes those (re)compilations compiled.
    pub fn engine_types_recompiled(&self) -> u64 {
        self.context().engine.types_recompiled()
    }
}

impl Job {
    /// Fills the job's reply slot and records the latency sample. Shed
    /// replies stay out of the histogram — a near-zero "latency" for
    /// dropped work would drown the p50/p99 of the traffic actually
    /// served. If the caller dropped its ticket the result is simply
    /// discarded. Returns the waiter parked on the ticket, for the caller
    /// to unpark.
    #[must_use = "the registered waiter is parked until it is unparked"]
    pub(crate) fn reply(
        self,
        outcome: Outcome,
        latency_us: u64,
        metrics: &ServiceMetrics,
    ) -> Option<Thread> {
        if !outcome.is_shed() {
            metrics.class(self.class).latency.record(latency_us);
        }
        self.filler.fill(Reply {
            id: self.id,
            class: self.class,
            outcome,
            latency_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqfa_core::paper;

    #[test]
    fn partition_covers_every_type_exactly_once() {
        // A source with history: slices inherit its generation, and their
        // type stamps start at or below it.
        let mut cb = paper::table1_case_base();
        cb.evict_variant(paper::FIR_EQUALIZER, paper::IMPL_GP).unwrap();
        for shards in 1..=4 {
            let slices = partition(&cb, shards);
            assert_eq!(slices.len(), shards);
            for slice in slices.iter().flatten() {
                assert_eq!(slice.generation(), cb.generation());
                assert!(slice.type_stamps().iter().all(|&s| s <= slice.generation()));
            }
            let total: usize = slices
                .iter()
                .flatten()
                .map(CaseBase::type_count)
                .sum();
            assert_eq!(total, cb.type_count());
            for slice in slices.iter().flatten() {
                for ty in slice.function_types() {
                    assert_eq!(
                        slice.function_types().len(),
                        slice.type_count(),
                    );
                    // Every type landed on its routed shard.
                    let original = cb.function_type(ty.id()).unwrap();
                    assert_eq!(original, ty);
                }
            }
        }
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for raw in 1..50u16 {
            let id = TypeId::new(raw).unwrap();
            for shards in 1..=8 {
                let s = route(id, shards);
                assert!(s < shards);
                assert_eq!(s, route(id, shards));
            }
        }
    }

    #[test]
    fn single_shard_partition_is_the_whole_case_base() {
        let cb = paper::table1_case_base();
        let slices = partition(&cb, 1);
        assert_eq!(slices[0].as_ref().unwrap(), &cb);
    }
    #[test]
    fn a_dead_worker_strands_no_ticket() {
        // Regression: a worker that died (here: its `store poisoned`
        // expect, after a mutator panicked under the store lock) left
        // the queue admitting, so every later `Ticket::wait` blocked
        // forever on a thread that was gone.
        use crate::{AllocationService, Outcome};
        use rqfa_core::QosClass;
        use rqfa_telemetry::{Clock, MonotonicClock};
        use std::time::Duration;

        let mut service =
            AllocationService::new(&paper::table1_case_base(), &ServiceConfig::default())
                .expect("valid service config");
        let shared = Arc::clone(&service.shards[0].shared);
        let poisoner = std::thread::spawn(move || {
            let _held = shared.store.lock().unwrap();
            panic!("mutator dies holding the store lock (expected by this test)");
        });
        assert!(poisoner.join().is_err());

        // The batch in the dying worker's hands is dropped unanswered:
        // the ticket wakes with `None` well inside its bound.
        let bound = Duration::from_secs(30);
        let began_us = MonotonicClock.now_us();
        let request = paper::table1_request().unwrap();
        let in_flight = service.submit(request.clone(), QosClass::High);
        assert_eq!(in_flight.wait_timeout(bound), None);
        let waited = Duration::from_micros(MonotonicClock.now_us() - began_us);
        assert!(waited < bound, "woken by the teardown, not the timeout");

        // Once the worker is gone the queue is shut: a later submit is
        // answered on the spot as refused instead of queueing forever.
        let worker = service.shards[0].worker.take().expect("live worker");
        assert!(worker.join().is_err(), "the worker died of the poisoned lock");
        let late = service.submit(request, QosClass::High);
        assert_eq!(late.try_wait().map(|r| r.outcome), Some(Outcome::ShedQueueFull));
    }

    use crate::{AllocationService, Outcome};
    use rqfa_telemetry::ManualClock;

    /// A one-shard service on a frozen manual clock, tracing on, whose
    /// worker has provably parked on its empty queue.
    fn parked_service(config: ServiceConfig) -> AllocationService {
        let config = config
            .with_clock(Arc::new(ManualClock::new()))
            .with_trace_capacity(64);
        let service = AllocationService::new(&paper::table1_case_base(), &config)
            .expect("valid service config");
        while service.metrics.worker_parks.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        service
    }

    fn event_kinds(service: &AllocationService) -> Vec<Vec<EventKind>> {
        let timelines = service.drain_trace().timelines();
        timelines
            .iter()
            .map(|timeline| timeline.events.iter().map(|event| event.kind).collect())
            .collect()
    }

    #[test]
    fn a_blocking_call_into_an_idle_shard_runs_its_own_batch() {
        let request = paper::table1_request().unwrap();
        let inline = parked_service(ServiceConfig::default());
        let twin = parked_service(ServiceConfig::default());
        let called = inline.call_us(request.clone(), QosClass::High, None);
        let waited = twin.submit(request.clone(), QosClass::High).wait();
        assert!(matches!(
            called,
            Some(Reply { outcome: Outcome::Allocated { cached: false, .. }, .. })
        ));
        assert_eq!(called, waited, "field for field what submit(..).wait() returns");

        // The caller ran the batch; the worker slept through it.
        let snap = inline.metrics();
        assert_eq!((snap.inline_runs, snap.batches, snap.batched_requests), (1, 1, 1));
        assert_eq!((snap.worker_parks, snap.worker_wakes), (1, 0));
        assert_eq!(snap.class(QosClass::High).picks, 1, "through the arbiter");
        assert_eq!(inline.pending(), 0);
        let snap = twin.metrics();
        assert_eq!((snap.inline_runs, snap.batches, snap.worker_wakes), (0, 1, 1));

        // Not a second request path: event for event the queued timeline.
        let ladder = [[
            EventKind::Submitted,
            EventKind::Admitted,
            EventKind::Scheduled,
            EventKind::Dispatched,
            EventKind::CacheMiss,
            EventKind::Scored,
            EventKind::Replied,
        ]];
        assert_eq!(event_kinds(&inline), ladder);
        assert_eq!(event_kinds(&twin), ladder);

        // The worker is still parked, so the next call drives again —
        // against the same cache the worker would have used.
        let again = inline.call_us(request, QosClass::Low, None).unwrap();
        assert!(matches!(again.outcome, Outcome::Allocated { cached: true, .. }));
        let snap = inline.shutdown();
        assert_eq!((snap.inline_runs, snap.batches), (2, 2));
        assert_eq!((snap.worker_parks, snap.worker_wakes), (1, 0));
        assert_eq!(snap.completed(), 2);
        twin.shutdown();
    }

    #[test]
    fn a_blocking_call_into_a_busy_shard_queues_like_any_other() {
        let service = parked_service(ServiceConfig::default());
        let request = paper::table1_request().unwrap();
        // A batch is running, as far as the caller can tell.
        let running = service.shards[0].shared.context.lock().unwrap();
        let reply = std::thread::scope(|scope| {
            let caller = scope.spawn(|| service.call_us(request, QosClass::High, None));
            // The ordinary push woke the worker, which now waits for the
            // context behind the "batch" ahead of it.
            while service.metrics.worker_wakes.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            assert!(!caller.is_finished());
            drop(running);
            caller.join().unwrap()
        });
        assert!(matches!(reply, Some(Reply { outcome: Outcome::Allocated { .. }, .. })));
        let snap = service.shutdown();
        assert_eq!((snap.inline_runs, snap.batches, snap.worker_wakes), (0, 1, 1));
    }

    #[test]
    fn a_blocking_call_on_a_poisoned_store_answers_none_and_shuts_the_shard() {
        // The twin of `a_dead_worker_strands_no_ticket` for a batch the
        // caller drives: the thread that happens to find the poisoned
        // lock is a connection's or a client's, and must not die of it.
        let mut service = parked_service(ServiceConfig::default());
        let shared = Arc::clone(&service.shards[0].shared);
        let poisoner = std::thread::spawn(move || {
            let _held = shared.store.lock().unwrap();
            panic!("mutator dies holding the store lock (expected by this test)");
        });
        assert!(poisoner.join().is_err());

        let request = paper::table1_request().unwrap();
        assert_eq!(service.call_us(request.clone(), QosClass::High, None), None);
        // The queue went down as behind a dead worker, and the worker —
        // woken by the teardown, not by a job — left without a panic.
        let worker = service.shards[0].worker.take().expect("live worker");
        let stuck = "the worker stayed parked: the queue was not shut";
        assert!(join_bounded(worker, stuck).is_ok());
        let late = service.submit(request.clone(), QosClass::High);
        assert_eq!(late.try_wait().map(|r| r.outcome), Some(Outcome::ShedQueueFull));
        let late = service.call_us(request, QosClass::Critical, None);
        assert_eq!(late.map(|r| r.outcome), Some(Outcome::ShedQueueFull));
        assert_eq!(service.metrics().inline_runs, 0);
    }

    /// A parked service whose worker now poses as one in its yield, so a
    /// waiter may run the batch the worker owes it.
    fn yielding_service() -> AllocationService {
        let service = parked_service(ServiceConfig::default());
        service.shards[0].shared.queue.pose_parked_worker_as_yielding(true);
        service
    }

    /// Joins `thread` within 30 s, or fails the test with `stuck`: a
    /// thread that parks where it should finish fails the test instead
    /// of hanging it.
    fn join_bounded<T>(thread: JoinHandle<T>, stuck: &str) -> std::thread::Result<T> {
        for _ in 0..30_000 {
            if thread.is_finished() {
                return thread.join();
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("{stuck}");
    }

    /// `ticket.wait()` on a thread of its own, bounded: a waiter that
    /// failed to drive would park beside a posing worker whom no push
    /// wakes (the service's teardown does, once the test has failed).
    fn wait_bounded(ticket: Ticket) -> Option<Reply> {
        let waiter = std::thread::spawn(move || ticket.wait());
        let stuck = "the waiter parked instead of running the batch it was owed";
        join_bounded(waiter, stuck).unwrap()
    }

    #[test]
    fn a_waiter_on_a_yielding_shard_runs_its_batch() {
        let request = paper::table1_request().unwrap();
        let inline = yielding_service();
        let twin = parked_service(ServiceConfig::default());
        let driven = wait_bounded(inline.submit(request.clone(), QosClass::High));
        let served = twin.submit(request.clone(), QosClass::High).wait();
        assert!(matches!(
            driven,
            Some(Reply { outcome: Outcome::Allocated { cached: false, .. }, .. })
        ));
        assert_eq!(driven, served, "field for field what the worker answers");

        // The waiter ran the batch; the worker was not woken for it.
        let snap = inline.metrics();
        assert_eq!((snap.inline_runs, snap.batches, snap.batched_requests), (1, 1, 1));
        assert_eq!((snap.worker_parks, snap.worker_wakes), (1, 0));
        assert_eq!(snap.class(QosClass::High).picks, 1, "through the arbiter");
        assert_eq!(inline.pending(), 0);
        let snap = twin.metrics();
        assert_eq!((snap.inline_runs, snap.batches, snap.worker_wakes), (0, 1, 1));

        // Event for event the timeline the worker writes.
        let ladder = [[
            EventKind::Submitted,
            EventKind::Admitted,
            EventKind::Scheduled,
            EventKind::Dispatched,
            EventKind::CacheMiss,
            EventKind::Scored,
            EventKind::Replied,
        ]];
        assert_eq!(event_kinds(&inline), ladder);
        assert_eq!(event_kinds(&twin), ladder);

        // One batch, not one job: a waiter runs the other submitters'
        // jobs queued with its own, against the worker's cache.
        let submit = || inline.submit(request.clone(), QosClass::Low);
        let [first, second, third] = [(); 3].map(|()| submit());
        let first = wait_bounded(first).unwrap();
        assert!(matches!(first.outcome, Outcome::Allocated { cached: true, .. }));
        for ticket in [second, third] {
            assert!(ticket.try_wait().is_some(), "answered in the waiter's batch");
        }
        let snap = inline.metrics();
        assert_eq!((snap.inline_runs, snap.batches, snap.batched_requests), (2, 2, 4));
        inline.shards[0].shared.queue.pose_parked_worker_as_yielding(false);
        let snap = inline.shutdown();
        assert_eq!((snap.worker_parks, snap.worker_wakes, snap.completed()), (1, 0, 4));
        twin.shutdown();
    }

    #[test]
    fn a_waiter_on_a_busy_shard_parks_as_today() {
        let service = parked_service(ServiceConfig::default());
        let request = paper::table1_request().unwrap();
        // A batch is running, as far as the waiter can tell.
        let running = service.shards[0].shared.context.lock().unwrap();
        let ticket = service.submit(request, QosClass::High);
        let reply = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| ticket.wait());
            // The submit woke the worker, which took the job and now
            // waits for the context behind the "batch" ahead of it.
            while service.metrics.worker_wakes.load(Ordering::Relaxed) == 0
                || service.pending() > 0
            {
                std::thread::yield_now();
            }
            assert!(!waiter.is_finished());
            drop(running);
            waiter.join().unwrap()
        });
        assert!(matches!(reply, Some(Reply { outcome: Outcome::Allocated { .. }, .. })));
        let snap = service.shutdown();
        assert_eq!((snap.inline_runs, snap.batches, snap.worker_wakes), (0, 1, 1));
    }

    #[test]
    fn a_waiter_on_a_poisoned_store_answers_none_and_shuts_the_shard() {
        // The twin of the blocking call's test, for a batch a waiter runs.
        let mut service = yielding_service();
        let shared = Arc::clone(&service.shards[0].shared);
        let poisoner = std::thread::spawn(move || {
            let _held = shared.store.lock().unwrap();
            panic!("mutator dies holding the store lock (expected by this test)");
        });
        assert!(poisoner.join().is_err());

        let request = paper::table1_request().unwrap();
        assert_eq!(wait_bounded(service.submit(request.clone(), QosClass::High)), None);
        // The queue went down as behind a dead worker (checked first: a
        // queue left up would leave the posing worker asleep), and the
        // worker — woken by the teardown, not by a job — left without a
        // panic.
        let late = service.submit(request, QosClass::High);
        assert_eq!(late.try_wait().map(|r| r.outcome), Some(Outcome::ShedQueueFull));
        let worker = service.shards[0].worker.take().expect("live worker");
        let stuck = "the worker stayed parked: the queue was not shut";
        assert!(join_bounded(worker, stuck).is_ok());
        assert_eq!(service.metrics().inline_runs, 0);
    }

    #[test]
    fn a_ticket_that_outlives_shutdown_neither_drives_nor_keeps_the_store_alive() {
        let service = yielding_service();
        let shared = Arc::downgrade(&service.shards[0].shared);
        let metrics = Arc::clone(&service.metrics);
        let ticket = service.submit(paper::table1_request().unwrap(), QosClass::High);
        assert_eq!(shared.weak_count(), 2, "the ticket holds the shard, as the test does");
        let snap = service.shutdown();
        assert_eq!(shared.strong_count(), 0, "queue, store and context went with the shard");
        let reply = ticket.wait().expect("a drained shutdown answers first");
        assert!(matches!(reply.outcome, Outcome::Allocated { .. }));
        let after = metrics.snapshot();
        assert_eq!((after.inline_runs, after.batches), (snap.inline_runs, snap.batches));
        assert_eq!((snap.inline_runs, snap.batches), (0, 1), "the worker drained it");
    }

    #[test]
    fn shutdown_waits_out_a_batch_an_inline_driver_is_running() {
        // A waiter that took a batch before the shutdown holds the context
        // until the batch is answered; `shutdown` returns only after.
        let service = parked_service(ServiceConfig::default());
        let shared = Arc::clone(&service.shards[0].shared);
        let running = shared.context.lock().unwrap();
        let shutdown = std::thread::spawn(move || service.shutdown());
        // Nothing is queued, so the worker leaves at once, dropping its
        // core; then only the held context stands in `shutdown`'s way.
        while Arc::strong_count(&shared) > 2 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!shutdown.is_finished(), "returned beside a running batch");
        drop(running);
        assert_eq!(shutdown.join().unwrap().batches, 0);
    }

    use rqfa_core::{AttrBinding, ExecutionTarget, ImplId, ImplVariant};
    use std::path::PathBuf;

    fn retain(id: u16) -> CaseMutation {
        let bits = vec![AttrBinding::new(paper::ATTR_BITWIDTH, 9)];
        let variant = ImplVariant::new(ImplId::new(id).unwrap(), ExecutionTarget::Fpga, bits);
        CaseMutation::Retain { type_id: paper::FIR_EQUALIZER, variant: variant.unwrap() }
    }

    /// A one-shard durable service checkpointing every `every` mutations,
    /// over a fresh directory.
    fn durable_service(name: &str, every: u64) -> (AllocationService, PathBuf, ServiceConfig) {
        let dir = std::env::temp_dir().join(format!("rqfa-shard-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServiceConfig::default().with_snapshot_every(every);
        let base = paper::table1_case_base();
        (AllocationService::durable_create(&base, &dir, &config).unwrap(), dir, config)
    }

    /// Completed checkpoints of a one-shard durable service.
    fn checkpoints(service: &AllocationService) -> u64 {
        service.shards[0].persist_stats().expect("durable shard").checkpoints.get()
    }

    #[test]
    fn an_ephemeral_or_empty_shard_is_never_due() {
        // Only a durable case base counts checkpoint debt.
        let mut ephemeral = ShardStore::ephemeral(Some(paper::table1_case_base()));
        (10..20).for_each(|id| assert!(ephemeral.apply(&retain(id)).is_ok()));
        let mut empty = ShardStore::ephemeral(None);
        assert!(empty.apply(&retain(10)).is_err());
        assert!(ephemeral.durable().is_none() && empty.durable().is_none());
    }

    #[test]
    fn recovered_debt_brings_the_next_checkpoint_forward() {
        // Cadence N = 4, R = 2 records replayed: the recovered shard
        // still owes them, so it checkpoints after N − R = 2 more
        // mutations, not after N.
        let (service, dir, config) = durable_service("recovered-debt", 4);
        service.apply_mutation(&retain(10)).unwrap();
        service.apply_mutation(&retain(11)).unwrap();
        assert_eq!(checkpoints(&service), 0);
        drop(service); // no checkpoint on the way down

        let (service, reports) = AllocationService::durable_recover(&dir, &config).unwrap();
        assert_eq!(reports[0].map(|r| r.replayed), Some(2));
        service.apply_mutation(&retain(12)).unwrap();
        assert_eq!(checkpoints(&service), 0);
        service.apply_mutation(&retain(13)).unwrap();
        assert_eq!(checkpoints(&service), 1);
        service.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn a_failed_automatic_checkpoint_is_parked_once_and_retried() {
        if !std::path::Path::new("/dev/full").exists() {
            return;
        }
        let (service, dir, config) = durable_service("parked-error", 2);
        service.apply_mutation(&retain(10)).unwrap();
        // The first checkpoint writes the stale slot B through its temp
        // file; that write fails with ENOSPC, once (the failed replace
        // removes the link).
        std::os::unix::fs::symlink("/dev/full", dir.join("shard-0/snap-b.tmp")).unwrap();
        service
            .apply_mutation(&retain(11))
            .expect("the mutation that crossed the cadence is acknowledged");
        let errors = service.take_checkpoint_errors();
        assert!(matches!(errors.as_slice(), [(0, PersistError::Io { .. })]), "{errors:?}");
        assert!(service.take_checkpoint_errors().is_empty(), "taken once");
        assert_eq!(checkpoints(&service), 0);

        // The debt stays due: the next mutation retries, and it lands.
        service.apply_mutation(&retain(12)).unwrap();
        assert_eq!(checkpoints(&service), 1);
        assert!(service.take_checkpoint_errors().is_empty());
        drop(service);

        // All three recover, from the snapshot the retry wrote.
        let (recovered, reports) = AllocationService::durable_recover(&dir, &config).unwrap();
        let report = reports[0].expect("shard 0 is durable");
        assert_eq!((report.snapshot_generation.raw(), report.replayed), (3, 0));
        recovered.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
