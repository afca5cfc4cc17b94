//! The per-shard batching request queue with deadline-aware lanes.
//!
//! One [`ClassQueue`] feeds each shard worker: four class-indexed lanes
//! behind one mutex, a weighted arbiter deciding which lane each
//! batch slot is drawn from, and a condvar the worker parks on when the
//! lanes are empty — signalled once per park, by the one submitter that
//! finds the worker parked, never once per submit (see *Waking the
//! worker* below). A batch fill stops only when it holds its `max` or the
//! lanes are empty.
//!
//! ## Lane ordering
//!
//! Each lane holds its jobs in one total order, `(sort key, sequence)`.
//! The sort key is the job's deadline (the explicit per-request deadline,
//! as a clock tick); a job with no deadline carries an explicit
//! no-deadline sentinel that orders **after every tick**, so *any*
//! explicit deadline — however far in the future — sorts ahead of the
//! deadline-free backlog, and deadline-free jobs keep arrival order among
//! themselves. The lane head is therefore always the job closest to
//! missing — earliest-deadline-first; with no deadlines in play at all
//! that is exactly arrival order. The monotonic sequence breaks ties
//! deterministically, so two runs over the same trace dispatch — and shed
//! — identically.
//!
//! Arrivals are near-sorted — with no deadline, *exactly* sorted — so a
//! lane is a sorted ring plus a min-max heap (the private `Lane`): an
//! arrival whose key is not below the ring's back is pushed there, one
//! that sorts earlier (a per-request deadline tighter than its
//! predecessors') goes to the heap, and head, tail and both pops compare
//! the two parts' ends. The heap holds 32-byte `(key, slot)` handles
//! over a per-lane slab of jobs, so its sifts never move a job and a
//! warm lane allocates nothing. The order is the one above either way;
//! only its price differs.
//!
//! ## Arbitration
//!
//! Which lane yields the next job of a batch is the arbiter's call, credit
//! **weighted round-robin** — the software analogue of an AXI
//! interconnect's weighted QoS arbiter (the full model, with its
//! invariants, is in `docs/scheduling.md`): each class holds a credit
//! counter refilled to [`QosClass::weight`]; picking a job costs one
//! credit; the most urgent class with both work and credit wins; when
//! every backlogged class is out of credit, all counters refill (a new
//! *round*). LOW traffic therefore keeps forward progress (no starvation)
//! while CRITICAL gets an 8:4:2:1 share under saturation. Within a lane
//! the order is the lane's own, above; the arbiter only ever decides
//! *which lane* yields the next job.
//!
//! ## Overload policy
//!
//! Admission limits step with urgency so total queue memory stays bounded
//! while less-urgent traffic sheds first: a LOW job is refused once
//! `capacity` jobs are queued, MEDIUM at `2 × capacity`, HIGH at
//! `4 × capacity`; CRITICAL is always admitted — it must never be shed.
//! At its limit a sheddable class sheds by **largest slack first**: if the
//! newcomer's deadline is nearer than the lane's largest-slack resident,
//! that resident is displaced (it had the most schedule room to lose) and
//! the newcomer admitted; otherwise the newcomer — itself the
//! largest-slack job — bounces. With no deadlines in play the newcomer
//! always has the largest key, so this degrades to the classic
//! refuse-the-arrival policy. On top of admission control, deadlines shed
//! HIGH/MEDIUM/LOW at *dispatch* once they have expired — work that can
//! still meet its deadline is never refused for it.
//!
//! ## Waking the worker
//!
//! A condvar signal is a system call whether or not anybody sleeps, so
//! it may not be paid per request. The worker publishes `parked` under
//! the mutex before it waits; a push that finds the flag set clears it
//! and, after unlocking, issues the one wake that park is owed. Pushes
//! that find it clear — the worker is running, or already woken and not
//! yet scheduled — signal nobody. `parked` implies an empty queue
//! whenever the mutex is free, so no wake-up is lost; the proof sketch
//! is in `docs/scheduling.md` ("Hand-over protocol"), and
//! `worker_parks` / `worker_wakes` count both sides.
//!
//! Going to sleep is a system call too, and the instant after a batch is
//! the worst one to pay it: the replies just filled are what releases
//! the closed-loop clients that submit the next round. So a worker that
//! finds the queue empty gives the CPU away **once**
//! (`thread::yield_now`, mutex released, nothing published) and looks
//! again before it parks.
//!
//! One push leaves the flag alone: that of a blocking caller who holds
//! the shard's worker context and takes its job straight back, in the
//! push's own critical section, to run it itself
//! (`ClassQueue::admit_with`, `docs/scheduling.md` §7.4). The queue
//! is empty again before the mutex is free, so the implication stands.
//! A worker in its yield is as empty-handed as a parked one, so such a
//! caller takes a lone job back from it too (`yielding`). A thread
//! blocked on a ticket goes one step further (`ClassQueue::pop_owed`,
//! §7.5): beside an empty-handed worker and at most one batch queued, it
//! takes the batch the worker would pop next, and leaves both flags as
//! they were. It only ever shortens the queue, so the implication
//! stands.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use rqfa_core::{QosClass, Request};
use rqfa_telemetry::{EventKind, FlightRecorder};

use crate::metrics::ServiceMetrics;
use crate::ticket::{self, Ticket};
use crate::{Job, Outcome, ServiceConfig};

/// A lane's sort key: explicit ticks order chronologically, and the
/// no-deadline sentinel orders after **every** tick (the derived `Ord`
/// follows variant order) — so even a deadline saturated at `u64::MAX`
/// sorts ahead of the deadline-free backlog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SortKey {
    /// Order by this clock tick (µs): the job's deadline.
    At(u64),
    /// A job with no deadline at all: behind every deadlined job, in
    /// arrival order among themselves (via the tie-breaking sequence).
    NoDeadline,
}

/// How [`ClassQueue::push`] disposed of a job.
#[derive(Debug)]
pub enum Admission {
    /// The job was queued.
    Admitted,
    /// The job was queued by displacing the same-class resident with the
    /// largest slack — the displaced job must be answered as shed.
    Displaced(Job),
    /// The job was refused (class limit reached and the job itself holds
    /// the largest slack, or the queue is shut down).
    Refused(Job),
}

/// A lane's total order: deadline, then arrival sequence.
type Key = (SortKey, u64);

/// One class lane: its jobs in [`Key`] order, as two parts.
///
/// `ring` takes every arrival whose key is not below its back — all of
/// them while deadlines are absent — so the common insert is a
/// `push_back` and the common pop a `pop_front`. `late` takes an arrival
/// that sorts before the ring's back, into a min-max heap whose least
/// and greatest keys are both at hand. Head, tail and both pops compare
/// the two parts' ends, so callers see one ordered sequence with unique
/// keys.
#[derive(Default)]
struct Lane {
    ring: VecDeque<(Key, Job)>,
    late: Late,
}

impl Lane {
    /// How many batches' worth of slots a drained part keeps
    /// ([`Lane::trim`]).
    const KEEP_BATCHES: usize = 8;

    fn insert(&mut self, key: Key, job: Job) {
        if self.ring.back().is_some_and(|(back, _)| key < *back) {
            self.late.insert(key, job);
        } else {
            self.ring.push_back((key, job));
        }
    }

    fn is_empty(&self) -> bool {
        self.ring.is_empty() && self.late.is_empty()
    }

    /// Whether the lane's first job sits in the ring (else in `late`, or
    /// nowhere).
    fn head_in_ring(&self) -> bool {
        match (self.ring.front(), self.late.first_key()) {
            (Some((ring, _)), Some(late)) => *ring < late,
            (ring, _) => ring.is_some(),
        }
    }

    /// Whether the lane's last job sits in the ring.
    fn tail_in_ring(&self) -> bool {
        match (self.ring.back(), self.late.last_key()) {
            (Some((ring, _)), Some(late)) => *ring > late,
            (ring, _) => ring.is_some(),
        }
    }

    /// The job closest to missing (the fill asks only
    /// [`Lane::is_empty`]; the tests look).
    #[cfg(test)]
    fn first(&self) -> Option<&Job> {
        if self.head_in_ring() {
            self.ring.front().map(|(_, job)| job)
        } else {
            self.late.first()
        }
    }

    fn pop_first(&mut self) -> Option<Job> {
        if self.head_in_ring() {
            self.ring.pop_front().map(|(_, job)| job)
        } else {
            self.late.pop_first()
        }
    }

    /// The key of the largest-slack resident.
    fn last_key(&self) -> Option<Key> {
        if self.tail_in_ring() {
            self.ring.back().map(|&(key, _)| key)
        } else {
            self.late.last_key()
        }
    }

    fn pop_last(&mut self) -> Option<Job> {
        if self.tail_in_ring() {
            self.ring.pop_back().map(|(_, job)| job)
        } else {
            self.late.pop_last()
        }
    }

    /// Gives a part's memory back once a burst far beyond `keep` jobs has
    /// drained from it: a part holding at most `keep` jobs in more than
    /// `2 × keep` slots shrinks (CRITICAL has no admission limit, so
    /// nothing else bounds what a burst leaves behind). A lane that stays
    /// within `2 × keep` never reallocates.
    fn trim(&mut self, keep: usize) {
        let band = keep.saturating_mul(2);
        if self.ring.len() <= keep && self.ring.capacity() > band {
            self.ring.shrink_to(keep);
        }
        if self.late.len() <= keep && self.late.slots() > band {
            self.late.shrink_to(keep);
        }
    }
}

/// The late part of a [`Lane`]: a min-max heap (Atkinson et al., 1986)
/// of `(Key, slot)` handles over a slab of jobs.
///
/// Even levels of `heap` are min levels and odd levels max levels, so
/// the least key is `heap[0]` and the greatest the larger of `heap[1]`
/// and `heap[2]`. Sifts move only the 32-byte handles; each job is
/// written to its slot once and taken out once. Freed slots go to
/// `free` for the next insert, and when the heap empties the slab and
/// the free list start over, so a warm lane allocates nothing.
#[derive(Default)]
struct Late {
    heap: Vec<(Key, u32)>,
    slab: Vec<Option<Job>>,
    free: Vec<u32>,
}

impl Late {
    fn len(&self) -> usize {
        self.heap.len()
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Slots allocated for jobs.
    fn slots(&self) -> usize {
        self.slab.capacity()
    }

    fn first_key(&self) -> Option<Key> {
        self.heap.first().map(|&(key, _)| key)
    }

    #[cfg(test)]
    fn first(&self) -> Option<&Job> {
        let &(_, slot) = self.heap.first()?;
        self.slab[slot as usize].as_ref()
    }

    /// Where the greatest key sits: the larger root child, or the root.
    fn last_index(&self) -> Option<usize> {
        match self.heap.len() {
            0 => None,
            1 => Some(0),
            2 => Some(1),
            _ => Some(if self.heap[1].0 > self.heap[2].0 { 1 } else { 2 }),
        }
    }

    fn last_key(&self) -> Option<Key> {
        self.last_index().map(|i| self.heap[i].0)
    }

    fn insert(&mut self, key: Key, job: Job) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(job);
                slot
            }
            None => {
                self.slab.push(Some(job));
                u32::try_from(self.slab.len() - 1).expect("a lane holds fewer than 2^32 jobs")
            }
        };
        self.heap.push((key, slot));
        self.sift_up(self.heap.len() - 1);
    }

    fn pop_first(&mut self) -> Option<Job> {
        (!self.heap.is_empty()).then(|| self.remove(0))
    }

    fn pop_last(&mut self) -> Option<Job> {
        self.last_index().map(|i| self.remove(i))
    }

    /// Takes out the handle at `i` — the root or a root child, the only
    /// places a min or max sits — and its job.
    fn remove(&mut self, i: usize) -> Job {
        let (_, slot) = self.heap.swap_remove(i);
        if i < self.heap.len() {
            self.sift_down(i);
        }
        let job = self.slab[slot as usize].take().expect("a handle's slot holds its job");
        if self.heap.is_empty() {
            self.slab.clear();
            self.free.clear();
        } else {
            self.free.push(slot);
        }
        job
    }

    /// Moves the jobs into a fresh slab of `keep` slots (renumbering the
    /// handles), and gives the heap's and the free list's excess back.
    fn shrink_to(&mut self, keep: usize) {
        let mut slab = Vec::with_capacity(keep.max(self.heap.len()));
        for (new, (_, slot)) in self.heap.iter_mut().enumerate() {
            slab.push(self.slab[*slot as usize].take());
            *slot = u32::try_from(new).expect("a lane holds fewer than 2^32 jobs");
        }
        self.slab = slab;
        self.free.clear();
        self.free.shrink_to(keep);
        self.heap.shrink_to(keep);
    }

    /// Whether `i` sits on a min level (even depth).
    fn on_min_level(i: usize) -> bool {
        (i + 1).ilog2().is_multiple_of(2)
    }

    /// Whether the handle at `a` belongs above the one at `b` on a level
    /// of the given kind: the lesser on min levels, the greater on max.
    fn above(&self, a: usize, b: usize, min: bool) -> bool {
        (self.heap[a].0 < self.heap[b].0) == min
    }

    fn sift_up(&mut self, i: usize) {
        if i == 0 {
            return;
        }
        let parent = (i - 1) / 2;
        let min = Self::on_min_level(i);
        // A handle that belongs above its parent, which is on the other
        // kind of level, swaps with it and climbs that kind's levels.
        let (mut i, min) = if self.above(i, parent, !min) {
            self.heap.swap(i, parent);
            (parent, !min)
        } else {
            (i, min)
        };
        while i >= 3 {
            let grandparent = ((i - 1) / 2 - 1) / 2;
            if !self.above(i, grandparent, min) {
                break;
            }
            self.heap.swap(i, grandparent);
            i = grandparent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let min = Self::on_min_level(i);
        let len = self.heap.len();
        loop {
            // The child or grandchild that belongs highest.
            let first_child = 2 * i + 1;
            if first_child >= len {
                return;
            }
            let mut best = first_child;
            let candidates = [first_child + 1, 4 * i + 3, 4 * i + 4, 4 * i + 5, 4 * i + 6];
            for c in candidates.into_iter().take_while(|&c| c < len) {
                if self.above(c, best, min) {
                    best = c;
                }
            }
            if !self.above(best, i, min) {
                return;
            }
            self.heap.swap(best, i);
            if best <= first_child + 1 {
                // A child sits on the other kind of level, below nothing
                // of this one's: done.
                return;
            }
            // A grandchild: the handle moved down may now belong above
            // its new parent, on the other kind of level.
            let parent = (best - 1) / 2;
            if self.above(parent, best, min) {
                self.heap.swap(best, parent);
            }
            i = best;
        }
    }
}

/// Credit-based weighted round-robin arbiter over the four QoS classes
/// (see *Arbitration* above).
#[derive(Debug)]
pub(crate) struct WeightedArbiter {
    credits: [u32; QosClass::COUNT],
}

impl WeightedArbiter {
    /// An arbiter at the start of a round: every class holds its
    /// [`QosClass::weight`] in credits (8:4:2:1).
    pub(crate) fn new() -> WeightedArbiter {
        WeightedArbiter {
            credits: QosClass::ALL.map(QosClass::weight),
        }
    }

    /// Picks the class to serve next given which classes have queued work:
    /// the most urgent backlogged class with credit, after a refill (a new
    /// round) if none has any. Returns `None` when no class has work;
    /// consumes one credit otherwise.
    pub(crate) fn pick(&mut self, backlogged: [bool; QosClass::COUNT]) -> Option<QosClass> {
        if !backlogged.iter().any(|&b| b) {
            return None;
        }
        let creditable = |credits: &[u32; QosClass::COUNT]| {
            QosClass::ALL
                .into_iter()
                .find(|c| backlogged[c.index()] && credits[c.index()] > 0)
        };
        let class = creditable(&self.credits).unwrap_or_else(|| {
            *self = WeightedArbiter::new();
            creditable(&self.credits).expect("a backlogged lane has credit after a refill")
        });
        self.credits[class.index()] -= 1;
        Some(class)
    }
}

struct Inner {
    lanes: [Lane; QosClass::COUNT],
    arbiter: WeightedArbiter,
    len: usize,
    seq: u64,
    shutdown: bool,
    /// The worker is waiting on `available` (or about to) and has not
    /// been signalled since. Set by the worker, cleared by whoever takes
    /// on the wake; implies `len == 0` whenever the mutex is free.
    parked: bool,
    /// The worker found the queue empty and is giving the CPU away once
    /// before it parks (`pop_batch`). Nobody owes it a wake — it looks
    /// again by itself — so only the inline drivers read this, a driving
    /// push and a waiter's pop: like a parked worker, a yielding one holds
    /// nothing and wants nothing yet.
    yielding: bool,
}

impl Inner {
    /// Whether the worker holds no job and is not about to run one:
    /// parked, or in the yield before it parks.
    fn empty_handed(&self) -> bool {
        self.parked || self.yielding
    }
}

/// A bounded, class-aware, deadline-aware MPSC job queue feeding one
/// shard worker — the shard's *front half*: [`ClassQueue::admit`] is the
/// one place a request becomes a [`Job`] and the one home of the
/// [`Admission`] handling, whichever driver runs the shard.
pub struct ClassQueue {
    inner: Mutex<Inner>,
    available: Condvar,
    /// The service configuration the queue reads its knobs from.
    /// `config.clock` is the whole shard's one time base: arrival
    /// stamps, deadlines, batch stamps and trace stamps are all that
    /// clock's µs ticks.
    pub(crate) config: ServiceConfig,
    pub(crate) metrics: Arc<ServiceMetrics>,
    /// The shard's flight recorder (`None` = tracing off).
    pub(crate) recorder: Option<Arc<FlightRecorder>>,
}

impl ClassQueue {
    /// The queue `config` describes, counting into `metrics` and tracing
    /// into `recorder`.
    pub fn new(
        config: &ServiceConfig,
        metrics: Arc<ServiceMetrics>,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> ClassQueue {
        ClassQueue {
            inner: Mutex::new(Inner {
                lanes: Default::default(),
                arbiter: WeightedArbiter::new(),
                len: 0,
                seq: 0,
                shutdown: false,
                parked: false,
                yielding: false,
            }),
            available: Condvar::new(),
            config: config.clone(),
            metrics,
            recorder,
        }
    }

    /// Records one event of request `id` at tick `at_us` (no-op with
    /// tracing off).
    pub(crate) fn trace(&self, at_us: u64, id: u64, class: QosClass, kind: EventKind, arg: u64) {
        if let Some(recorder) = &self.recorder {
            recorder.record(at_us, id, class.index() as u8, kind, arg);
        }
    }

    /// Submits one request to this shard: stamps it, forms its deadline
    /// (`deadline_us` after now, else none — saturating, so an absurdly
    /// far deadline stays in the future instead of wrapping into the past),
    /// pushes it, and answers whatever admission sheds on the spot. The
    /// reply, immediate or the worker's, arrives on the returned ticket.
    pub fn admit(
        &self,
        id: u64,
        request: Request,
        class: QosClass,
        deadline_us: Option<u64>,
    ) -> Ticket {
        self.admit_with(id, request, class, deadline_us, None).0
    }

    /// [`ClassQueue::admit`], optionally by a blocking caller that holds
    /// the shard's worker context and offers (`drive`) to run the batch
    /// itself: when the push finds the worker parked (or yielding before
    /// a park) and the queue otherwise empty, the job comes
    /// straight back in the offered batch (`docs/scheduling.md` §7.4) and
    /// the caller owes it a run; otherwise the batch stays empty and the
    /// job is queued, or shed, as any other. Also returns whether the
    /// queued job may yet be a waiter's to run ([`ClassQueue::pop_owed`]).
    pub(crate) fn admit_with(
        &self,
        id: u64,
        request: Request,
        class: QosClass,
        deadline_us: Option<u64>,
        drive: Option<&mut Vec<Job>>,
    ) -> (Ticket, bool) {
        debug_assert!(drive.as_ref().is_none_or(|batch| batch.is_empty()));
        let metrics = &*self.metrics;
        metrics.class(class).submitted.fetch_add(1, Ordering::Relaxed);
        let (filler, ticket) = ticket::reply_slot(id, class);
        let now = self.config.clock.now_us();
        let record = |id, class, kind, arg| self.trace(now, id, class, kind, arg);
        record(id, class, EventKind::Submitted, 0);
        let job = Job {
            id,
            class,
            request,
            enqueued_at: now,
            deadline: deadline_us.map(|d| now.saturating_add(d)),
            filler,
        };
        let (admission, owed) = self.push_with(job, drive);
        match admission {
            Admission::Admitted => {}
            Admission::Displaced(victim) => {
                // The newcomer took the largest-slack resident's slot.
                record(victim.id, victim.class, EventKind::Displaced, id);
                record(victim.id, victim.class, EventKind::ShedQueueFull, 0);
                let shed = &metrics.class(victim.class).shed_queue_full;
                shed.fetch_add(1, Ordering::Relaxed);
                let waited_us = now.saturating_sub(victim.enqueued_at);
                // The victim's submitter may already be parked on it.
                if let Some(waiter) = victim.reply(Outcome::ShedQueueFull, waited_us, metrics) {
                    waiter.unpark();
                }
            }
            Admission::Refused(job) => {
                record(id, class, EventKind::Refused, 0);
                record(id, class, EventKind::ShedQueueFull, 0);
                let shed = &metrics.class(class).shed_queue_full;
                shed.fetch_add(1, Ordering::Relaxed);
                answer_unseen(job, Outcome::ShedQueueFull, metrics);
            }
        }
        (ticket, owed)
    }

    /// Enqueues a job. See [`Admission`] for the outcomes; the class's
    /// admission limit is LOW: 1× capacity, MEDIUM: 2×, HIGH: 4×,
    /// CRITICAL: unlimited. A queued job's `Admitted` event is recorded
    /// here, under the mutex, so it precedes in record order whatever the
    /// job's driver records once it can see the job.
    pub fn push(&self, job: Job) -> Admission {
        self.push_with(job, None).0
    }

    /// [`ClassQueue::push`], offering to drive: a caller that passes its
    /// batch and whose insert finds the worker empty-handed — parked, or
    /// in the one yield before a park — and its own job the only one
    /// queued gets the job back through the very fill loop
    /// [`ClassQueue::pop_batch`] runs, in the same critical section.
    /// `parked` stays as it was and no wake is issued: the queue is empty
    /// again before the mutex is free, as the wake protocol requires of
    /// a parked worker's queue and as a yielding worker expects to find
    /// it.
    ///
    /// The flag beside the admission says whether a waiter's pop would
    /// take from the queue the push leaves. Only a job so pushed can ever
    /// be in a waiter's pop: a worker is empty-handed only from a moment
    /// it found the queue empty, and until it pops again the queue only
    /// grows, but beside one batch or less (`docs/scheduling.md` §7.5).
    fn push_with(&self, job: Job, drive: Option<&mut Vec<Job>>) -> (Admission, bool) {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.shutdown {
            return (Admission::Refused(job), false);
        }
        let capacity = self.config.queue_capacity;
        let limit = match job.class {
            QosClass::Critical => usize::MAX,
            QosClass::High => capacity.saturating_mul(4),
            QosClass::Medium => capacity.saturating_mul(2),
            QosClass::Low => capacity,
        };
        let key = (job.deadline.map_or(SortKey::NoDeadline, SortKey::At), inner.seq);
        inner.seq += 1;
        let admitted = |job: &Job| {
            self.trace(job.enqueued_at, job.id, job.class, EventKind::Admitted, 0);
        };
        if inner.len >= limit {
            // Shed by largest slack: the lane's last key is its
            // largest-slack resident. Strict `<` keeps the no-deadline
            // case on the classic refuse-the-arrival policy.
            let lane = &mut inner.lanes[job.class.index()];
            if job.class.sheddable() {
                if let Some(last_key) = lane.last_key() {
                    if key.0 < last_key.0 {
                        let victim = lane.pop_last().expect("lane non-empty");
                        admitted(&job);
                        lane.insert(key, job);
                        // One in, one out: the queue was and stays
                        // non-empty, so nobody is parked on it.
                        debug_assert!(!inner.parked, "parked worker beside a full lane");
                        return (Admission::Displaced(victim), self.owes_a_batch(&inner));
                    }
                }
            }
            return (Admission::Refused(job), false);
        }
        admitted(&job);
        inner.lanes[job.class.index()].insert(key, job);
        inner.len += 1;
        // Empty-handed — parked, or in the yield before it parks — beside
        // a queue that holds this job alone (a parked worker's always
        // does; a yielding one's may have taken ordinary pushes).
        if inner.empty_handed() && inner.len == 1 {
            if let Some(batch) = drive {
                self.fill(&mut inner, self.config.batch_size, batch);
                debug_assert!(inner.len == 0, "the lone job came back");
                return (Admission::Admitted, false);
            }
        }
        // Whoever finds the worker parked takes on its wake; everybody
        // else's push is over here.
        let wake = std::mem::take(&mut inner.parked);
        let owed = self.owes_a_batch(&inner);
        drop(inner);
        if wake {
            self.wake_worker();
        }
        (Admission::Admitted, owed)
    }

    /// The one wake a worker's park is owed — the only condvar signal on
    /// the request path (CI greps for a second one). Called after
    /// unlocking, by the submitter that cleared `parked`.
    fn wake_worker(&self) {
        // Release: pairs with the snapshot's Acquire read, which must see
        // the park (counted under the mutex this caller just held) too.
        self.metrics.worker_wakes.fetch_add(1, Ordering::Release);
        self.available.notify_one();
    }

    /// Pops the next batch of up to `max` jobs into `batch` (cleared
    /// first, so the driver's buffer is reused), blocking while the queue
    /// is empty. Returns `false` once the queue is shut down *and*
    /// drained, which is the worker's signal to exit.
    #[must_use = "`false` means shut down and drained"]
    pub fn pop_batch(&self, max: usize, batch: &mut Vec<Job>) -> bool {
        batch.clear();
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.len == 0 && !inner.shutdown {
            // Empty right after a batch: the replies just filled are what
            // lets the submitters run, so give them the CPU once before
            // paying for a sleep and a wake. `parked` is untouched across
            // the yield, so pushes signal nobody and the wake protocol
            // starts, unchanged, at the re-check below; `yielding` only
            // tells a blocking caller it may still run its own lone job
            // (else one such caller would keep the worker from ever
            // parking, and itself from ever driving).
            inner.yielding = true;
            drop(inner);
            std::thread::yield_now();
            inner = self.inner.lock().expect("queue poisoned");
            inner.yielding = false;
        }
        loop {
            if inner.len > 0 {
                break;
            }
            if inner.shutdown {
                return false;
            }
            // Published under the lock: the next push sees it and wakes
            // us. A spurious return finds it still set and is not a new
            // park.
            if !inner.parked {
                inner.parked = true;
                self.metrics.worker_parks.fetch_add(1, Ordering::Relaxed);
            }
            inner = self.available.wait(inner).expect("queue poisoned");
        }
        self.fill(&mut inner, max, batch);
        true
    }

    /// The waiter's pop (`docs/scheduling.md` §7.5): the batch the worker
    /// would pop next, into `batch` (empty), through the one fill loop —
    /// but only while the worker is empty-handed and the queue holds
    /// `0 < len ≤ batch_size`, so the caller leaves the shard idle as it
    /// found it and never takes over a backlog. Nothing after shutdown:
    /// the worker drains that. `parked` and `yielding` stay as they are
    /// and no wake is issued; a pop only shortens the queue, so `parked ⇒
    /// len == 0` holds across it.
    pub(crate) fn pop_owed(&self, batch: &mut Vec<Job>) {
        debug_assert!(batch.is_empty());
        let mut inner = self.inner.lock().expect("queue poisoned");
        if self.owes_a_batch(&inner) {
            self.fill(&mut inner, self.config.batch_size, batch);
        }
    }

    /// Whether a waiter's pop takes from the queue as it stands: the
    /// worker is empty-handed, the queue is not shut down and holds
    /// `0 < len ≤ batch_size`.
    fn owes_a_batch(&self, inner: &Inner) -> bool {
        inner.empty_handed()
            && !inner.shutdown
            && (1..=self.config.batch_size).contains(&inner.len)
    }

    /// The one fill loop: moves jobs from the lanes into `batch` until it
    /// holds `max` or the lanes are empty. Called with the queue mutex
    /// held, by whoever is about to run the batch: the worker from
    /// [`ClassQueue::pop_batch`], a blocking caller from its own push, a
    /// waiter from [`ClassQueue::pop_owed`].
    fn fill(&self, inner: &mut Inner, max: usize, batch: &mut Vec<Job>) {
        let mut picks = [0u64; QosClass::COUNT];
        while batch.len() < max {
            let backlogged = inner.lanes.each_ref().map(|lane| !lane.is_empty());
            let Some(class) = inner.arbiter.pick(backlogged) else {
                break;
            };
            let job = inner.lanes[class.index()]
                .pop_first()
                .expect("arbiter picked a backlogged lane");
            picks[class.index()] += 1;
            if self.recorder.is_some() {
                // The `Scheduled` stamp is the one use of a reading here,
                // so an untraced fill never reads the clock. A traced one
                // re-reads it every pick: under a real clock a stamp must
                // not go stale across a long batch (a frozen manual clock
                // returns the same tick each read, so replays are
                // unaffected).
                let now = self.config.clock.now_us();
                self.trace(now, job.id, job.class, EventKind::Scheduled, 0);
            }
            inner.len -= 1;
            batch.push(job);
        }
        // Per fill, not per pick: the counters, and the look at what a
        // drained burst left allocated.
        let keep = self.config.batch_size.saturating_mul(Lane::KEEP_BATCHES);
        for class in QosClass::ALL {
            let i = class.index();
            if picks[i] == 0 {
                continue;
            }
            self.metrics.class(class).picks.fetch_add(picks[i], Ordering::Relaxed);
            inner.lanes[i].trim(keep);
        }
    }

    /// Test support: puts the worker parked on this queue into the state
    /// of one in the yield before its park (`true`), to whom no wake is
    /// owed, or back (`false`). No test thread can be held inside the
    /// real yield.
    #[cfg(test)]
    pub(crate) fn pose_parked_worker_as_yielding(&self, yielding: bool) {
        let mut inner = self.inner.lock().unwrap();
        assert!(inner.len == 0 && inner.parked == yielding, "a parked worker's empty queue");
        (inner.parked, inner.yielding) = (!yielding, yielding);
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").len
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Initiates shutdown: new pushes are refused, blocked workers wake,
    /// and `pop_batch` drains the backlog before returning `false`.
    pub fn shutdown(&self) {
        self.inner.lock().expect("queue poisoned").shutdown = true;
        // Off the request path: signalled whether or not anyone parks.
        self.available.notify_all();
    }

    /// Tears the queue down *without* draining: new pushes are refused
    /// and the backlog is dropped unanswered, which abandons every
    /// queued job's reply slot — a waiting [`Ticket`] wakes with `None`.
    /// A no-op after a drained shutdown.
    pub(crate) fn abort(&self) {
        // Runs from a `Drop`, possibly mid-unwind: never panic here.
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.shutdown = true;
        inner.len = 0;
        let backlog = std::mem::take(&mut inner.lanes);
        drop(inner);
        drop(backlog);
        self.available.notify_all();
    }
}

/// Answers a job refused at the door. Its ticket has not been handed to
/// the submitter yet, so no waiter can be parked on it.
fn answer_unseen(job: Job, outcome: Outcome, metrics: &ServiceMetrics) {
    let waiter = job.reply(outcome, 0, metrics);
    debug_assert!(waiter.is_none(), "a waiter on a ticket nobody holds");
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::testkit;
    use std::collections::BTreeMap;
    use rqfa_core::ids::{AttrId, TypeId};
    use rqfa_telemetry::{ManualClock, SharedClock};

    fn request() -> Request {
        Request::builder(TypeId::new(1).unwrap())
            .constraint(AttrId::new(1).unwrap(), 5)
            .build()
            .unwrap()
    }

    fn job(id: u64, class: QosClass) -> Job {
        testkit::job(id, class, request(), 0, None).0
    }

    fn deadline_job(id: u64, class: QosClass, base: u64, deadline_us: u64) -> Job {
        testkit::job(id, class, request(), base, Some(base + deadline_us)).0
    }

    /// A config on a frozen manual clock (tick 0), so every test here is
    /// wall-clock-free.
    fn config(capacity: usize) -> ServiceConfig {
        ServiceConfig::default()
            .with_queue_capacity(capacity)
            .with_clock(Arc::new(ManualClock::new()))
    }

    fn build(config: &ServiceConfig) -> ClassQueue {
        ClassQueue::new(config, Arc::new(ServiceMetrics::default()), None)
    }

    fn queue(capacity: usize) -> ClassQueue {
        build(&config(capacity))
    }

    fn pop(q: &ClassQueue, max: usize) -> Option<Vec<Job>> {
        let mut batch = Vec::new();
        q.pop_batch(max, &mut batch).then_some(batch)
    }

    fn push_ok(q: &ClassQueue, job: Job) {
        assert!(matches!(q.push(job), Admission::Admitted));
    }

    #[test]
    fn fifo_within_class_weighted_across_classes() {
        // Without deadlines EDF degrades to arrival order inside a lane.
        let q = queue(64);
        for id in 0..4 {
            push_ok(&q, job(id, QosClass::Low));
        }
        for id in 4..8 {
            push_ok(&q, job(id, QosClass::Critical));
        }
        let batch = pop(&q, 8).unwrap();
        assert_eq!(batch.len(), 8);
        // Critical jobs dominate the front of the batch.
        assert_eq!(batch[0].class, QosClass::Critical);
        let crit_ids: Vec<u64> = batch
            .iter()
            .filter(|j| j.class == QosClass::Critical)
            .map(|j| j.id)
            .collect();
        assert_eq!(crit_ids, [4, 5, 6, 7], "arrival order inside a class");
    }

    #[test]
    fn edf_orders_a_lane_by_effective_deadline() {
        let q = queue(64);
        // Insertion order 0..4 with deadlines 40/10/30/20 ms — and one
        // deadline-free job that must sort behind all of them.
        for (id, us) in [(0, 40_000u64), (1, 10_000), (2, 30_000), (3, 20_000)] {
            push_ok(&q, deadline_job(id, QosClass::High, 0, us));
        }
        push_ok(&q, job(4, QosClass::High));
        let order: Vec<u64> = pop(&q, 8).unwrap().iter().map(|j| j.id).collect();
        assert_eq!(order, [1, 3, 2, 0, 4], "earliest deadline first");
    }

    #[test]
    fn low_is_refused_when_full_but_critical_is_not() {
        let q = queue(2);
        push_ok(&q, job(0, QosClass::Low));
        push_ok(&q, job(1, QosClass::Low));
        assert!(matches!(q.push(job(2, QosClass::Low)), Admission::Refused(_)));
        push_ok(&q, job(3, QosClass::Critical));
        push_ok(&q, job(4, QosClass::High));
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn admission_limits_step_with_urgency() {
        // capacity 2 → LOW refused at 2, MEDIUM at 4, HIGH at 8,
        // CRITICAL never: total memory stays bounded for sheddable
        // classes even with no deadlines in play.
        let q = queue(2);
        let fill = |q: &ClassQueue, class, n: u64| {
            (0..n)
                .filter(|&i| matches!(q.push(job(i, class)), Admission::Admitted))
                .count()
        };
        assert_eq!(fill(&q, QosClass::Low, 10), 2);
        assert_eq!(fill(&q, QosClass::Medium, 10), 2); // len 2 → stops at 4
        assert_eq!(fill(&q, QosClass::High, 10), 4); // len 4 → stops at 8
        assert!(matches!(q.push(job(99, QosClass::Medium)), Admission::Refused(_)));
        assert!(matches!(q.push(job(99, QosClass::Low)), Admission::Refused(_)));
        assert_eq!(fill(&q, QosClass::Critical, 10), 10); // unbounded
        assert_eq!(q.len(), 18);
    }

    #[test]
    fn overload_displaces_the_largest_slack_resident() {
        let q = queue(3);
        push_ok(&q, deadline_job(0, QosClass::Low, 0, 40_000));
        push_ok(&q, deadline_job(1, QosClass::Low, 0, 10_000));
        push_ok(&q, deadline_job(2, QosClass::Low, 0, 30_000));
        // Full. A tighter newcomer displaces id 0 (largest slack)…
        match q.push(deadline_job(3, QosClass::Low, 0, 5_000)) {
            Admission::Displaced(victim) => assert_eq!(victim.id, 0),
            other => panic!("expected displacement, got {other:?}"),
        }
        // …while a looser newcomer (now the largest slack itself) bounces.
        match q.push(deadline_job(4, QosClass::Low, 0, 50_000)) {
            Admission::Refused(refused) => assert_eq!(refused.id, 4),
            other => panic!("expected refusal, got {other:?}"),
        }
        assert_eq!(q.len(), 3);
        let order: Vec<u64> = pop(&q, 8).unwrap().iter().map(|j| j.id).collect();
        assert_eq!(order, [3, 1, 2], "survivors dispatch EDF");
    }

    #[test]
    fn far_deadline_sorts_before_no_deadline() {
        // Regression: an explicit deadline beyond the old 1-year sort
        // horizon used to sort *behind* deadline-free jobs — and was
        // displaced first as "largest slack" under overload. Any
        // explicit deadline must order before the no-deadline sentinel.
        let q = queue(2);
        let two_years_us = 2 * 365 * 24 * 3600 * 1_000_000u64;
        push_ok(&q, job(0, QosClass::Low));
        push_ok(&q, deadline_job(1, QosClass::Low, 0, two_years_us));
        // Full. The tight newcomer must displace the no-deadline job,
        // not the far-deadline one.
        match q.push(deadline_job(2, QosClass::Low, 0, 1_000)) {
            Admission::Displaced(victim) => {
                assert_eq!(victim.id, 0, "the deadline-free job holds the largest slack");
            }
            other => panic!("expected displacement, got {other:?}"),
        }
        let order: Vec<u64> = pop(&q, 8).unwrap().iter().map(|j| j.id).collect();
        assert_eq!(order, [2, 1], "far deadline dispatches before none");
    }

    #[test]
    fn admit_saturates_deadlines_too_far_to_represent() {
        // Regression: `now + deadline` used to overflow at the front
        // door (a panic on the old time type, a wrap into the past on raw ticks
        // — which would shed viable work). The deadline saturates at the
        // far end of the time axis instead: admitted, behind nearer
        // deadlines, ahead of deadline-free work, and answered.
        let clock = Arc::new(ManualClock::new());
        clock.advance_us(1_000);
        let q = build(&config(64).with_clock(Arc::clone(&clock) as SharedClock));
        let mut receivers = vec![q.admit(0, request(), QosClass::Low, None)];
        receivers.extend((1..19).map(|id| q.admit(id, request(), QosClass::Low, Some(u64::MAX))));
        receivers.push(q.admit(19, request(), QosClass::Low, Some(10_000)));
        let batch = pop(&q, 32).unwrap();
        let order: Vec<u64> = batch.iter().map(|j| j.id).collect();
        let expected: Vec<u64> = std::iter::once(19).chain(1..19).chain([0]).collect();
        assert_eq!(order, expected, "near, then saturated-far, then none");
        assert_eq!(batch[1].deadline, Some(u64::MAX));
        for ticket in receivers {
            assert!(ticket.try_wait().is_none(), "admitted, not shed at the door");
        }
    }

    /// Tiny deterministic generator (splitmix64) for the mixed-trace
    /// property test below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn sort_order_matches_the_documented_contract_under_mixed_traces() {
        // Property: over random mixes of no-deadline / near-deadline /
        // far-deadline jobs (far: beyond the old 1-year horizon), one
        // lane's pop order equals the documented total order: explicit
        // deadlines ascending then deadline-free in arrival order, ties
        // by sequence.
        let year_us = 365u64 * 24 * 3600 * 1_000_000;
        for seed in 0..8u64 {
            let mut state = seed ^ 0xEDF0;
            let q = queue(1024);
            // (id, absolute deadline tick, if any); arrival ticks
            // strictly increase with id.
            let mut jobs: Vec<(u64, Option<u64>)> = Vec::new();
            for id in 0..64u64 {
                let deadline = match splitmix(&mut state) % 3 {
                    0 => None,
                    1 => Some(id + splitmix(&mut state) % 100_000),
                    _ => Some(id + year_us + splitmix(&mut state) % year_us),
                };
                push_ok(&q, testkit::job(id, QosClass::High, request(), id, deadline).0);
                jobs.push((id, deadline));
            }
            // Push order == sequence order, so (deadline-free last,
            // deadline ascending, id) is the contract.
            let mut expected: Vec<u64> = jobs.iter().map(|&(id, _)| id).collect();
            expected.sort_by_key(|&id| {
                let (_, deadline) = jobs[usize::try_from(id).unwrap()];
                (deadline.is_none(), deadline.unwrap_or(0), id)
            });
            let order: Vec<u64> =
                pop(&q, jobs.len()).unwrap().iter().map(|j| j.id).collect();
            assert_eq!(order, expected, "seed {seed}");
        }
    }

    #[test]
    fn lane_matches_an_ordered_map_over_seeded_operations() {
        // Differential: `Lane` (sorted ring + min-max heap over a slab)
        // against a plain ordered map, operation for operation. Keys come
        // in stretches of one regime each, so ring-only, heap-only and
        // mixed lanes all occur and hand over to one another.
        let (mut saw_late, mut saw_both, mut deepest) = (false, false, 0);
        for seed in 0..16u64 {
            let mut state = seed ^ 0x1A9E;
            let mut lane = Lane::default();
            let mut model: BTreeMap<Key, u64> = BTreeMap::new();
            for step in 0..4096u64 {
                let draw = splitmix(&mut state);
                match draw % 8 {
                    0..=3 => {
                        let regime = (step / 256 + seed) % 7;
                        let sort = match if regime == 6 { (draw >> 8) % 6 } else { regime } {
                            0 => SortKey::NoDeadline,
                            1 => SortKey::At(step), // in arrival order
                            2 => SortKey::At((1 << 20) - step), // reversed
                            3 => SortKey::At(7), // tied
                            4 => SortKey::At(step + (draw >> 16) % 160_000), // random, as surge's
                            _ => SortKey::At(u64::MAX - (draw >> 16) % 4), // far future
                        };
                        // The sequence doubles as the job's id.
                        let key = (sort, step);
                        lane.insert(key, job(step, QosClass::High));
                        model.insert(key, step);
                    }
                    4 | 5 => assert_eq!(
                        lane.pop_first().map(|job| job.id),
                        model.pop_first().map(|(_, id)| id),
                        "pop_first, seed {seed} step {step}"
                    ),
                    6 => assert_eq!(
                        lane.pop_last().map(|job| job.id),
                        model.pop_last().map(|(_, id)| id),
                        "pop_last, seed {seed} step {step}"
                    ),
                    _ => {}
                }
                assert_eq!(
                    lane.first().map(|job| job.id),
                    model.first_key_value().map(|(_, &id)| id),
                    "first, seed {seed} step {step}"
                );
                assert_eq!(
                    lane.last_key(),
                    model.last_key_value().map(|(&key, _)| key),
                    "last_key, seed {seed} step {step}"
                );
                assert_eq!(lane.is_empty(), model.is_empty(), "is_empty, seed {seed} step {step}");
                saw_late |= !lane.late.is_empty();
                saw_both |= !lane.late.is_empty() && !lane.ring.is_empty();
                deepest = deepest.max(lane.late.len());
            }
            while let Some((_, id)) = model.pop_first() {
                assert_eq!(lane.pop_first().map(|job| job.id), Some(id), "drain, seed {seed}");
            }
            assert!(lane.first().is_none() && lane.pop_last().is_none());
        }
        assert!(saw_late && saw_both, "the traces must reach both parts of a lane");
        // Seven levels or more: sifts meet grandchildren on both kinds of
        // level.
        assert!(deepest >= 127, "the heap must grow deep: {deepest}");
    }

    #[test]
    fn a_drained_burst_gives_the_ring_back_and_a_steady_lane_keeps_it() {
        let q = queue(64);
        let keep = q.config.batch_size * Lane::KEEP_BATCHES;
        // Ring slots, heap handles, slab slots.
        let capacity = |q: &ClassQueue| {
            let inner = q.inner.lock().unwrap();
            let lane = &inner.lanes[0];
            [lane.ring.capacity(), lane.late.heap.capacity(), lane.late.slab.capacity()]
        };
        // CRITICAL has no admission limit: nothing else bounds the burst.
        // Deadline-free jobs fill the ring; deadlines in reverse order
        // each sort before the ring's back, so they fill the heap.
        let burst = 8 * keep as u64;
        let push_burst = |q: &ClassQueue, n: u64| {
            for id in 0..n {
                push_ok(q, job(id, QosClass::Critical));
                push_ok(q, deadline_job(n + id, QosClass::Critical, 0, n - id));
            }
        };
        push_burst(&q, burst);
        assert!(capacity(&q).iter().all(|&c| c >= 8 * keep), "{:?}", capacity(&q));
        while !q.is_empty() {
            assert!(!pop(&q, 32).unwrap().is_empty());
        }
        let drained = capacity(&q);
        assert!(drained.iter().all(|&c| c <= 2 * keep), "a drained burst kept {drained:?}");
        // A lane that cycles within `2 × keep` is left alone.
        for round in 0..4 {
            push_burst(&q, 2 * keep as u64);
            let grown = capacity(&q);
            while !q.is_empty() {
                assert!(!pop(&q, 32).unwrap().is_empty());
            }
            assert_eq!(capacity(&q), grown, "round {round}: steady state reallocates nothing");
        }
    }

    #[test]
    fn a_lane_holding_at_most_keep_late_jobs_moves_them_to_a_smaller_slab() {
        // A burst drains to a standing few: the heap never empties, so its
        // slab never starts over, and the trim renumbers what is left.
        let mut lane = Lane::default();
        lane.insert((SortKey::NoDeadline, 0), job(0, QosClass::Critical));
        for seq in 1..1024 {
            lane.insert((SortKey::At(2048 - seq), seq), job(seq, QosClass::Critical));
        }
        for _ in 0..1000 {
            lane.pop_first();
        }
        // 23 late jobs and the deadline-free one are left.
        lane.trim(32);
        assert!(lane.late.slots() <= 32 && lane.late.heap.capacity() <= 32);
        let ids: Vec<u64> = std::iter::from_fn(|| lane.pop_first()).map(|job| job.id).collect();
        assert_eq!(ids, (1..24).rev().chain([0]).collect::<Vec<_>>(), "the order survives");
    }

    /// A clock that jumps forward 10 µs on every read — makes the
    /// per-pick clock re-read in `pop_batch` observable, and counts the
    /// reads.
    #[derive(Debug, Default)]
    pub(crate) struct TickingClock(std::sync::atomic::AtomicU64);

    impl TickingClock {
        /// How many times the clock has been read.
        pub(crate) fn reads(&self) -> u64 {
            self.0.load(Ordering::SeqCst) / 10
        }
    }

    impl rqfa_telemetry::Clock for TickingClock {
        fn now_us(&self) -> u64 {
            self.0.fetch_add(10, Ordering::SeqCst)
        }
    }

    #[test]
    fn scheduled_stamps_re_read_the_clock_per_pick() {
        // Regression: `pop_batch` used to read the clock once before the
        // fill loop, so every `Scheduled` event in a batch carried the
        // same stamp under an advancing clock.
        let recorder = Arc::new(FlightRecorder::new(64));
        let q = ClassQueue::new(
            &config(64).with_clock(Arc::new(TickingClock::default())),
            Arc::new(ServiceMetrics::default()),
            Some(Arc::clone(&recorder)),
        );
        for id in 0..4 {
            push_ok(&q, job(id, QosClass::High));
        }
        assert_eq!(pop(&q, 4).unwrap().len(), 4);
        let stamps: Vec<u64> = recorder
            .drain()
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Scheduled)
            .map(|e| e.at_us)
            .collect();
        assert_eq!(stamps.len(), 4);
        for pair in stamps.windows(2) {
            assert!(pair[1] > pair[0], "each pick re-reads the clock: {stamps:?}");
        }
    }

    #[test]
    fn fill_reads_the_clock_only_for_a_pick_that_consumes_it() {
        let clock = Arc::new(TickingClock::default());
        let on_clock = || config(64).with_clock(Arc::clone(&clock) as SharedClock);
        // No recorder: nothing stamps a pick, so no pick reads — with
        // deadlined jobs in the fill as without.
        let q = build(&on_clock());
        for id in 0..8 {
            push_ok(&q, job(id, QosClass::ALL[id as usize % QosClass::COUNT]));
        }
        assert_eq!(pop(&q, 8).unwrap().len(), 8);
        assert_eq!(clock.reads(), 0, "eight picks nobody stamps");
        for id in 0..4 {
            push_ok(&q, deadline_job(id, QosClass::High, 0, 1_000_000 + id));
        }
        assert_eq!(pop(&q, 4).unwrap().len(), 4);
        assert_eq!(clock.reads(), 0, "four deadlined picks nobody stamps");
        // A recorder stamps every pick.
        let recorder = Some(Arc::new(FlightRecorder::new(64)));
        let traced = ClassQueue::new(&on_clock(), Arc::new(ServiceMetrics::default()), recorder);
        for id in 0..4 {
            push_ok(&traced, deadline_job(id, QosClass::High, 0, 1_000_000));
        }
        assert_eq!(pop(&traced, 4).unwrap().len(), 4);
        assert_eq!(clock.reads(), 4, "a traced fill re-reads per pick");
        // Admission: exactly one read each.
        for id in 0..3 {
            let _ticket = q.admit(id, request(), QosClass::High, Some(1_000_000));
        }
        assert_eq!(clock.reads(), 4 + 3, "one clock read per admission");
    }

    #[test]
    fn empty_backlog_yields_none() {
        let mut arb = WeightedArbiter::new();
        assert_eq!(arb.pick([false; 4]), None);
    }

    #[test]
    fn single_backlogged_class_always_wins() {
        let mut arb = WeightedArbiter::new();
        let only_low = [false, false, false, true];
        for _ in 0..100 {
            assert_eq!(arb.pick(only_low), Some(QosClass::Low));
        }
    }

    #[test]
    fn saturation_share_follows_weights() {
        let mut arb = WeightedArbiter::new();
        let mut counts = [0u32; 4];
        for _ in 0..1500 {
            let class = arb.pick([true; 4]).unwrap();
            counts[class.index()] += 1;
        }
        // 1500 picks = 100 full rounds of 15 credits → exactly 8:4:2:1.
        assert_eq!(counts, [800, 400, 200, 100]);
    }

    #[test]
    fn low_is_not_starved_by_critical() {
        let mut arb = WeightedArbiter::new();
        let crit_and_low = [true, false, false, true];
        let mut low = 0;
        for _ in 0..900 {
            if arb.pick(crit_and_low) == Some(QosClass::Low) {
                low += 1;
            }
        }
        assert_eq!(low, 100, "LOW must get its 1/9 share");
    }

    #[test]
    fn pop_respects_batch_limit() {
        let q = queue(64);
        for id in 0..10 {
            push_ok(&q, job(id, QosClass::Medium));
        }
        assert_eq!(pop(&q, 4).unwrap().len(), 4);
        assert_eq!(q.len(), 6);
    }

    #[test]
    fn shutdown_drains_then_ends() {
        let q = queue(64);
        push_ok(&q, job(0, QosClass::Low));
        q.shutdown();
        assert!(matches!(q.push(job(1, QosClass::Critical)), Admission::Refused(_)));
        assert_eq!(pop(&q, 8).unwrap().len(), 1);
        assert!(pop(&q, 8).is_none());
    }

    #[test]
    fn abort_disconnects_the_backlog_and_refuses_newcomers() {
        let q = queue(64);
        let queued = q.admit(0, request(), QosClass::Critical, None);
        q.abort();
        assert!(
            queued.is_abandoned(),
            "a stranded job's ticket must wake with nothing, not hang"
        );
        assert_eq!(queued.wait(), None);
        let late = q.admit(1, request(), QosClass::Critical, None);
        assert_eq!(late.try_wait().unwrap().outcome, Outcome::ShedQueueFull);
        assert!(pop(&q, 8).is_none(), "nothing left to serve");
    }

    #[test]
    fn blocked_pop_wakes_on_push() {
        // One wake per park, not per push: the push that finds the worker
        // parked signals it; the rest of the burst — whether or not the
        // worker has got to run yet — signals nobody.
        let metrics = Arc::new(ServiceMetrics::default());
        let q = Arc::new(ClassQueue::new(&config(8), Arc::clone(&metrics), None));
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || pop(&q2, 1).map(|b| b.len()));
        while metrics.worker_parks.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        for id in 0..5 {
            push_ok(&q, job(id, QosClass::High));
        }
        assert_eq!(handle.join().unwrap(), Some(1));
        assert_eq!(metrics.worker_wakes.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.worker_parks.load(Ordering::Relaxed), 1);
        // A backlogged queue parks nobody and is owed no wake.
        assert_eq!(pop(&q, 8).unwrap().len(), 4);
        assert_eq!(metrics.worker_parks.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_driving_push_takes_its_job_back_only_from_a_parked_worker() {
        let metrics = Arc::new(ServiceMetrics::default());
        let q = Arc::new(ClassQueue::new(&config(8), Arc::clone(&metrics), None));
        let mut batch = Vec::new();
        // Nobody is parked: an offer to drive changes nothing, whether
        // the queue is empty or a job is already waiting.
        for queued in 0..2 {
            let (ticket, _) =
                q.admit_with(queued, request(), QosClass::High, None, Some(&mut batch));
            assert!(batch.is_empty() && ticket.try_wait().is_none());
            assert_eq!(q.len(), queued as usize + 1);
        }
        assert_eq!(pop(&q, 8).unwrap().len(), 2);

        let q2 = Arc::clone(&q);
        let worker = std::thread::spawn(move || pop(&q2, 8).map(|b| b[0].id));
        while metrics.worker_parks.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        // Parked: the job comes straight back, picked by the same fill
        // loop, the queue is empty again and the worker sleeps on.
        let (ticket, _) = q.admit_with(2, request(), QosClass::Low, None, Some(&mut batch));
        assert_eq!(batch.len(), 1);
        assert_eq!((batch[0].id, ticket.id()), (2, 2));
        assert_eq!(metrics.class(QosClass::Low).picks.load(Ordering::Relaxed), 1);
        assert!(q.is_empty());
        assert_eq!(metrics.worker_wakes.load(Ordering::Relaxed), 0);
        // `parked` is still set: the next ordinary push owes the wake.
        push_ok(&q, job(3, QosClass::High));
        assert_eq!(worker.join().unwrap(), Some(3));
        assert_eq!(metrics.worker_wakes.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.worker_parks.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_driving_push_takes_a_lone_job_back_from_a_yielding_worker() {
        // The yield sits between two lock acquisitions of `pop_batch`, so
        // no test thread can be held inside it: the flag is set by hand.
        let metrics = Arc::new(ServiceMetrics::default());
        let q = ClassQueue::new(&config(8), Arc::clone(&metrics), None);
        let mut batch = Vec::new();
        q.inner.lock().unwrap().yielding = true;
        // Alone in the queue: the job comes back, nobody is signalled.
        let (ticket, _) = q.admit_with(0, request(), QosClass::High, None, Some(&mut batch));
        assert_eq!((batch.len(), batch[0].id, ticket.id()), (1, 0, 0));
        assert!(q.is_empty());
        // Behind an ordinary push the yielding worker is about to find,
        // it queues like any other.
        batch.clear();
        push_ok(&q, job(1, QosClass::High));
        let _queued = q.admit_with(2, request(), QosClass::High, None, Some(&mut batch));
        assert!(batch.is_empty());
        assert_eq!(q.len(), 2);
        assert_eq!(metrics.worker_wakes.load(Ordering::Relaxed), 0);
    }

    /// A traced queue of batch size 8 on a frozen clock, its metrics, and
    /// the same seven mixed jobs pushed: four classes, two deadlined.
    fn owed_queue() -> (ClassQueue, Arc<ServiceMetrics>, Arc<FlightRecorder>) {
        let metrics = Arc::new(ServiceMetrics::default());
        let recorder = Arc::new(FlightRecorder::new(256));
        let config = config(64).with_batch_size(8);
        let q = ClassQueue::new(&config, Arc::clone(&metrics), Some(Arc::clone(&recorder)));
        for id in 0..5 {
            push_ok(&q, job(id, QosClass::ALL[id as usize % QosClass::COUNT]));
        }
        push_ok(&q, deadline_job(5, QosClass::Low, 0, 1_000));
        push_ok(&q, deadline_job(6, QosClass::Medium, 0, 500));
        (q, metrics, recorder)
    }

    fn owed(q: &ClassQueue) -> Vec<u64> {
        let mut batch = Vec::new();
        q.pop_owed(&mut batch);
        batch.iter().map(|j| j.id).collect()
    }

    #[test]
    fn a_waiters_pop_takes_the_whole_queue_from_a_yielding_worker_as_the_worker_would() {
        // The yield cannot hold a test thread: the flag is set by hand.
        let (q, metrics, recorder) = owed_queue();
        let (twin, twin_metrics, twin_recorder) = owed_queue();
        q.inner.lock().unwrap().yielding = true;
        let taken = owed(&q);
        let popped: Vec<u64> = pop(&twin, 8).unwrap().iter().map(|j| j.id).collect();
        assert_eq!(taken.len(), 7, "len ≤ batch_size: the whole queue");
        assert_eq!(taken, popped, "the same picks in the same order");
        assert!(q.is_empty());
        let snapshot =
            |m: &ServiceMetrics| QosClass::ALL.map(|c| m.class(c).picks.load(Ordering::Relaxed));
        assert_eq!(snapshot(&metrics), snapshot(&twin_metrics));
        assert_eq!(recorder.drain().events, twin_recorder.drain().events, "`Scheduled` included");
        let credit = |q: &ClassQueue| format!("{:?}", q.inner.lock().unwrap().arbiter);
        assert_eq!(credit(&q), credit(&twin), "the arbiter charged alike");
        // The flags are the worker's: the pop leaves them, and wakes nobody.
        let inner = q.inner.lock().unwrap();
        assert!(inner.yielding && !inner.parked);
        drop(inner);
        assert_eq!(metrics.worker_wakes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_waiters_pop_takes_nothing_unless_an_empty_handed_worker_owes_one_batch() {
        let set = |q: &ClassQueue, parked: bool, yielding: bool| {
            let mut inner = q.inner.lock().unwrap();
            (inner.parked, inner.yielding) = (parked, yielding);
        };
        // A running worker: it pops these itself.
        let (q, ..) = owed_queue();
        assert!(owed(&q).is_empty());
        assert_eq!(q.len(), 7);
        // A backlog deeper than one batch: the worker's to drain.
        push_ok(&q, job(7, QosClass::High));
        push_ok(&q, job(8, QosClass::High));
        set(&q, false, true);
        assert!(owed(&q).is_empty());
        assert_eq!(q.len(), 9);
        // An empty queue, beside a yielding or a parked worker.
        let q = queue(64);
        set(&q, false, true);
        assert!(owed(&q).is_empty());
        set(&q, true, false);
        assert!(owed(&q).is_empty());
        // After shutdown the worker drains what is left.
        let (q, ..) = owed_queue();
        set(&q, false, true);
        q.shutdown();
        assert!(owed(&q).is_empty());
        assert_eq!(pop(&q, 8).unwrap().len(), 7);
    }

    #[test]
    fn a_push_says_whether_a_waiters_pop_may_take_its_job() {
        let q = build(&config(64).with_batch_size(4));
        let admit = |id| q.admit_with(id, request(), QosClass::High, None, None).1;
        // A running worker pops this job itself, and so does a parked
        // one, which the push wakes.
        assert!(!admit(0));
        assert_eq!(pop(&q, 4).unwrap().len(), 1);
        q.inner.lock().unwrap().parked = true;
        assert!(!admit(0));
        assert_eq!(pop(&q, 4).unwrap().len(), 1);
        // Beside a yielding worker: up to one batch is a waiter's, the
        // job that makes it a backlog is the worker's, and so is every
        // later one (a waiter's pop takes nothing from a backlog).
        q.inner.lock().unwrap().yielding = true;
        assert_eq!((1..=5).map(admit).collect::<Vec<_>>(), [true, true, true, true, false]);
        assert!(!admit(6));
        assert!(owed(&q).is_empty());
        // After shutdown the push is refused.
        let q = build(&config(64).with_batch_size(4));
        q.inner.lock().unwrap().yielding = true;
        q.shutdown();
        assert!(!q.admit_with(7, request(), QosClass::High, None, None).1);
    }
}
