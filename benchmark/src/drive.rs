//! The load generator: offers a workload's arrivals to the running
//! system and logs what came back. Only calls into public functions are
//! timed, on this thread's monotonic clock; replies go into a buffer
//! allocated (and touched) beforehand and are checked after the clock
//! stops.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use rqfa_core::CaseMutation;
use rqfa_service::remote::ClusterClient;
use rqfa_service::{AllocationService, Outcome, Reply, Ticket};
use rqfa_workloads::MutationGen;

use crate::inputs::{Arrival, Inputs};
use crate::machine::cpu_seconds;
use crate::spec::{Load, Spec};
use crate::system::System;

/// Entries one window can log; a window ends early when the log is
/// full, so memory does not grow with throughput.
pub const LOG_CAPACITY: usize = 1 << 19;
/// Mutations generated ahead of a window (learning workloads).
const MUTATION_POOL: usize = 1 << 12;
/// How one logged operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Code {
    Allocated,
    AllocatedCached,
    ShedQueueFull,
    ShedDeadline,
    ShedPredicted,
    Failed,
    Unavailable,
    NoReply,
    MutationAcked,
    MutationFailed,
}

/// One logged operation. Times saturate at `u32::MAX` ns (4.29 s).
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Index of the arrival (unused for mutations).
    pub index: u32,
    /// Submit call → reply seen.
    pub latency_ns: u32,
    /// Time inside the `submit*` call; traced runs only.
    pub call_ns: u32,
    /// `Reply::latency_us`, the service's own figure.
    pub reported_us: u32,
    pub impl_id: u16,
    pub similarity: u16,
    pub evaluated: u16,
    pub code: Code,
    /// The client found nothing to collect and had to block before it
    /// saw this reply. Everything it had in flight was still in the
    /// system's hands at that moment, so slices are cut there.
    pub blocked: bool,
    /// µs from the start of the window to the moment the reply was seen.
    pub at_us: u32,
}

/// Not all zero: see [`Log::with_capacity`].
pub(crate) const BLANK: Entry = Entry {
    index: u32::MAX,
    latency_ns: 0,
    call_ns: 0,
    reported_us: 0,
    impl_id: 0,
    similarity: 0,
    evaluated: 0,
    code: Code::NoReply,
    blocked: false,
    at_us: 0,
};

/// A fixed-capacity reply log whose pages are resident from the start.
pub struct Log {
    entries: Vec<Entry>,
    len: usize,
}

impl Log {
    pub fn with_capacity(capacity: usize) -> Log {
        // A fill that is not all zero, so the allocator cannot hand out
        // untouched zero pages that become resident only as the run writes.
        let entries = vec![BLANK; capacity];
        Log { entries, len: 0 }
    }

    fn push(&mut self, entry: Entry) {
        if self.len < self.entries.len() {
            self.entries[self.len] = entry;
            self.len += 1;
        }
    }

    /// Whether fewer than `reserve` slots are left.
    fn nearly_full(&self, reserve: usize) -> bool {
        self.len + reserve >= self.entries.len()
    }

    pub fn entries(&self) -> &[Entry] {
        &self.entries[..self.len]
    }

    pub fn clear(&mut self) {
        self.len = 0;
    }
}

fn saturating_ns(duration: Duration) -> u32 {
    u32::try_from(duration.as_nanos()).unwrap_or(u32::MAX)
}

fn saturating_us(duration: Duration) -> u32 {
    u32::try_from(duration.as_micros()).unwrap_or(u32::MAX)
}

fn reply_entry(
    index: usize,
    at_us: u32,
    latency_ns: u32,
    call_ns: u32,
    reply: Option<Reply>,
) -> Entry {
    let mut entry = Entry {
        index: index as u32,
        at_us,
        latency_ns,
        call_ns,
        ..BLANK
    };
    let Some(reply) = reply else {
        return entry;
    };
    entry.reported_us = u32::try_from(reply.latency_us).unwrap_or(u32::MAX);
    entry.code = match reply.outcome {
        Outcome::Allocated {
            best,
            evaluated,
            cached,
        } => {
            entry.impl_id = best.impl_id.raw();
            entry.similarity = best.similarity.raw();
            entry.evaluated = u16::try_from(evaluated).unwrap_or(u16::MAX);
            if cached {
                Code::AllocatedCached
            } else {
                Code::Allocated
            }
        }
        Outcome::ShedQueueFull => Code::ShedQueueFull,
        Outcome::ShedDeadline => Code::ShedDeadline,
        Outcome::ShedPredicted { .. } => Code::ShedPredicted,
        Outcome::Failed(_) => Code::Failed,
        Outcome::Unavailable { .. } => Code::Unavailable,
    };
    entry
}

/// What the client keeps about a request it has in flight.
#[derive(Debug, Clone, Copy)]
struct Offered {
    index: usize,
    sent: Instant,
    call_ns: u32,
}

impl Offered {
    /// The log entry for `reply`, seen at `now` in a window that began at
    /// `start`.
    fn entry(self, start: Instant, now: Instant, reply: Option<Reply>) -> Entry {
        reply_entry(
            self.index,
            saturating_us(now - start),
            saturating_ns(now - self.sent),
            self.call_ns,
            reply,
        )
    }
}

fn submit(service: &AllocationService, arrival: &Arrival) -> Ticket {
    match arrival.deadline_us {
        Some(us) => service.submit_with_deadline(
            arrival.request.clone(),
            arrival.class,
            Duration::from_micros(us),
        ),
        None => service.submit(arrival.request.clone(), arrival.class),
    }
}

/// The learning traffic of a workload: valid mutations generated ahead
/// of the clock, one applied after every `every` reads.
pub struct Mutator {
    gen: MutationGen,
    pool: VecDeque<CaseMutation>,
    every: usize,
    reads: usize,
}

impl Mutator {
    fn top_up(&mut self) {
        while self.pool.len() < MUTATION_POOL {
            self.pool.push_back(self.gen.next_mutation());
        }
    }

    /// Applies what was generated but not yet applied, so the service
    /// reaches exactly the generator's state, and returns that state's
    /// generator for the reference comparison.
    pub fn settle(mut self, service: &AllocationService) -> (MutationGen, u64) {
        let mut failed = 0;
        for mutation in self.pool.drain(..) {
            failed += u64::from(service.apply_mutation(&mutation).is_err());
        }
        (self.gen, failed)
    }
}

/// What the operating system charged one window.
#[derive(Debug, Clone, Copy)]
pub struct WindowCost {
    pub duration_s: f64,
    pub cpu_s: f64,
}

/// Drives one workload against one running system.
pub struct Driver<'a> {
    pub spec: &'a Spec,
    pub inputs: &'a Inputs,
    pub system: &'a System,
    /// Additionally time every call made (traced runs).
    pub time_calls: bool,
    /// Next arrival to offer; arrivals are replayed in a cycle.
    cursor: usize,
    pub mutator: Option<Mutator>,
    /// Most tickets the surge had in flight at once.
    pub max_outstanding: usize,
}

impl<'a> Driver<'a> {
    pub fn new(
        spec: &'a Spec,
        inputs: &'a Inputs,
        system: &'a System,
        seed: u64,
        time_calls: bool,
    ) -> Driver<'a> {
        let mutator = spec.mutate_every.map(|every| Mutator {
            gen: MutationGen::new(&inputs.base, seed),
            pool: VecDeque::with_capacity(MUTATION_POOL),
            every,
            reads: 0,
        });
        Driver {
            spec,
            inputs,
            system,
            time_calls,
            cursor: 0,
            mutator,
            max_outstanding: 0,
        }
    }

    /// How many logs [`Driver::window`] fills (one per client thread).
    pub fn log_count(&self) -> usize {
        match self.spec.load {
            Load::ClosedCluster { threads } => threads,
            _ => 1,
        }
    }

    /// Runs one window of about `len` and returns what it cost.
    /// Everything submitted is answered before this returns.
    pub fn window(&mut self, len: Duration, logs: &mut [Log]) -> WindowCost {
        if let Some(mutator) = &mut self.mutator {
            mutator.top_up();
        }
        let cpu_before = cpu_seconds();
        let start = Instant::now();
        match (self.system, self.spec.load) {
            (System::Local(service), Load::ClosedLocal { outstanding }) => {
                self.closed_local(service, outstanding, start, len, &mut logs[0]);
            }
            (System::Local(service), Load::Surge { burst }) => {
                self.surge(service, burst, start, len, &mut logs[0]);
            }
            (System::Cluster(cluster), Load::ClosedCluster { threads }) => {
                let arrivals = &self.inputs.arrivals;
                let first = self.cursor;
                let client = &cluster.client;
                std::thread::scope(|scope| {
                    for (thread, log) in logs.iter_mut().enumerate().take(threads) {
                        scope.spawn(move || {
                            closed_cluster(
                                client,
                                arrivals,
                                (first + thread) % arrivals.len(),
                                threads,
                                start,
                                len,
                                log,
                            );
                        });
                    }
                });
                let offered: usize = logs.iter().map(|log| log.entries().len()).sum();
                self.cursor = (first + offered) % arrivals.len();
            }
            _ => unreachable!("the workload table pairs loads with their systems"),
        }
        WindowCost {
            duration_s: start.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - cpu_before,
        }
    }

    fn closed_local(
        &mut self,
        service: &AllocationService,
        outstanding: usize,
        start: Instant,
        len: Duration,
        log: &mut Log,
    ) {
        let arrivals = &self.inputs.arrivals;
        let deadline = start + len;
        let mut ring: VecDeque<(Ticket, Offered)> = VecDeque::with_capacity(outstanding);
        let mut now = Instant::now();
        loop {
            while ring.len() < outstanding {
                let index = self.cursor;
                self.cursor = (self.cursor + 1) % arrivals.len();
                // With calls untimed, the stamp taken when the previous
                // reply was seen serves as the send time: nothing but
                // the log write lies between.
                let sent = if self.time_calls { Instant::now() } else { now };
                let ticket = submit(service, &arrivals[index]);
                let call_ns = if self.time_calls {
                    saturating_ns(sent.elapsed())
                } else {
                    0
                };
                ring.push_back((
                    ticket,
                    Offered {
                        index,
                        sent,
                        call_ns,
                    },
                ));
                if let Some(mutator) = &mut self.mutator {
                    mutator.reads += 1;
                    if mutator.reads >= mutator.every {
                        mutator.reads = 0;
                        if let Some(mutation) = mutator.pool.pop_front() {
                            let asked = Instant::now();
                            let acked = service.apply_mutation(&mutation).is_ok();
                            now = Instant::now();
                            log.push(Entry {
                                at_us: saturating_us(now - start),
                                latency_ns: saturating_ns(now - asked),
                                code: if acked {
                                    Code::MutationAcked
                                } else {
                                    Code::MutationFailed
                                },
                                ..BLANK
                            });
                        }
                    }
                }
            }
            let (ticket, oldest) = ring.pop_front().expect("ring was just filled");
            let ready = ticket.try_wait();
            let blocked = ready.is_none();
            let reply = ready.or_else(|| ticket.wait());
            now = Instant::now();
            log.push(Entry {
                blocked,
                ..oldest.entry(start, now, reply)
            });
            if now >= deadline || log.nearly_full(2 * outstanding + 2) {
                break;
            }
        }
        for (ticket, rest) in ring {
            let reply = ticket.wait();
            log.push(rest.entry(start, Instant::now(), reply));
        }
    }

    /// Overload without a clock. Each round offers `burst` arrivals,
    /// blocks on the newest ticket of the most urgent class in flight,
    /// collects every other reply that is ready, and goes on. That
    /// ticket cannot be in the batch the service is answering just now
    /// and is in the next one, so on one CPU, where the service runs only
    /// while the client blocks, a round is a batch or two of service
    /// against one burst of arrivals at any speed of the machine; an open
    /// loop at a fixed rate is 1.4 × capacity one second and 2.5 × the
    /// next on a host whose speed changes under it. Replies are stamped
    /// when the client wakes, at most a round after they were sent.
    fn surge(
        &mut self,
        service: &AllocationService,
        burst: usize,
        start: Instant,
        len: Duration,
        log: &mut Log,
    ) {
        /// Class (0 is CRITICAL), then newest first.
        type Rank = (usize, std::cmp::Reverse<Instant>);
        let arrivals = &self.inputs.arrivals;
        let deadline = start + len;
        let mut pending: Vec<(Ticket, Offered, Rank)> = Vec::with_capacity(1 << 12);
        loop {
            for _ in 0..burst {
                let index = self.cursor;
                self.cursor = (self.cursor + 1) % arrivals.len();
                let arrival = &arrivals[index];
                let sent = Instant::now();
                let ticket = submit(service, arrival);
                let call_ns = if self.time_calls {
                    saturating_ns(sent.elapsed())
                } else {
                    0
                };
                let offered = Offered {
                    index,
                    sent,
                    call_ns,
                };
                let rank = (arrival.class.index(), std::cmp::Reverse(sent));
                pending.push((ticket, offered, rank));
            }
            self.max_outstanding = self.max_outstanding.max(pending.len());
            // Hand the CPU to the service. A ticket that is answered
            // already (shed on arrival) hands over nothing.
            let now = loop {
                let first = (0..pending.len())
                    .min_by_key(|&at| pending[at].2)
                    .expect("a burst was just offered");
                let (ticket, awaited, _) = pending.swap_remove(first);
                let ready = ticket.try_wait();
                let blocked = ready.is_none();
                let reply = ready.or_else(|| ticket.wait());
                let now = Instant::now();
                log.push(Entry {
                    blocked,
                    ..awaited.entry(start, now, reply)
                });
                if blocked || pending.is_empty() {
                    break now;
                }
            };
            let mut at = 0;
            while at < pending.len() {
                match pending[at].0.try_wait() {
                    Some(reply) => {
                        let (_, done, _) = pending.swap_remove(at);
                        log.push(done.entry(start, now, Some(reply)));
                    }
                    None => at += 1,
                }
            }
            if now >= deadline || log.nearly_full(2 * (pending.len() + burst)) {
                break;
            }
        }
        for (ticket, rest, _) in pending {
            let reply = ticket.wait();
            log.push(rest.entry(start, Instant::now(), reply));
        }
    }
}

/// One blocking client thread of the cluster workload: offers every
/// `stride`-th arrival from `cursor` on.
fn closed_cluster(
    client: &ClusterClient,
    arrivals: &[Arrival],
    mut cursor: usize,
    stride: usize,
    start: Instant,
    len: Duration,
    log: &mut Log,
) {
    let deadline = start + len;
    loop {
        let arrival = &arrivals[cursor];
        let sent = Instant::now();
        let reply = client.submit(arrival.request.clone(), arrival.class);
        let now = Instant::now();
        // Every call blocks until its reply, so the call is the latency.
        let latency_ns = saturating_ns(now - sent);
        log.push(Entry {
            blocked: true,
            ..reply_entry(
                cursor,
                saturating_us(now - start),
                latency_ns,
                latency_ns,
                Some(reply),
            )
        });
        cursor = (cursor + stride) % arrivals.len();
        if now >= deadline || log.nearly_full(2) {
            break;
        }
    }
}
