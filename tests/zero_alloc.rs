//! The zero-allocation proof: a counting global allocator wraps the
//! system allocator, and the steady-state plane-kernel hot path —
//! `retrieve` and `retrieve_batch_into` over a warm [`PlaneEngine`],
//! including the top-1 walk over a long type plane's sorted copies — must
//! perform **zero** heap allocations per request.
//!
//! The file holds exactly one `#[test]` so no concurrent test can
//! allocate while the counter window is open (integration-test files are
//! separate binaries, but tests *within* one file share the process).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rqfa::core::{KernelPath, PlaneEngine, Request};
use rqfa::workloads::{CaseGen, RequestGen};

/// System allocator with a global allocation counter.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation verbatim to the system allocator;
// the counter is a relaxed atomic side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_plane_retrieval_allocates_nothing() {
    // A non-trivial shape: sparse columns (6 of 10 attrs bound) and
    // enough variants that a regression to per-request allocation would
    // be unmissable across the measured window.
    let case_base = CaseGen::new(8, 16, 6, 10).seed(0xA110C).build();
    let pool = RequestGen::new(&case_base)
        .seed(0xA110C + 1)
        .count(256)
        .repeat_fraction(0.2)
        .generate();
    let mut out = Vec::new();
    let batches: Vec<Vec<&Request>> = pool.chunks(32).map(|c| c.iter().collect()).collect();

    // Both kernel paths must be allocation-free: the auto path (the wide
    // SIMD kernel where the host has it) and the pinned scalar fallback.
    for path in [KernelPath::Auto, KernelPath::ForceScalar] {
        let mut engine = PlaneEngine::with_kernel(path);

        // Warm-up: compile the plane, size the scratch arena and the
        // reused output buffers.
        for request in &pool {
            engine.retrieve(&case_base, request).unwrap();
        }
        for batch in &batches {
            engine.retrieve_batch_into(&case_base, batch, &mut out);
        }

        // Measured window: single-request retrievals.
        let before = allocations();
        for _ in 0..4 {
            for request in &pool {
                std::hint::black_box(engine.retrieve(&case_base, request).unwrap());
            }
        }
        assert_eq!(
            allocations(),
            before,
            "steady-state retrieve must not allocate ({path:?})"
        );

        // Measured window: batch retrievals. The `Vec<&Request>` of borrows is built outside
        // the window — a service worker holds its own job buffer; the
        // engine itself must stay allocation-free.
        let before = allocations();
        for _ in 0..4 {
            for batch in &batches {
                engine.retrieve_batch_into(&case_base, batch, &mut out);
            }
        }
        assert_eq!(
            allocations(),
            before,
            "steady-state batch retrieval must not allocate ({path:?})"
        );
    }
    // Measured window: the top-1 walk. The base above has 16 variants a
    // type — one lane-step, nothing to walk. Here a type is 32 steps of
    // sparse columns (6 of 10 attrs bound), so the walk starts inside a
    // sorted copy, bounds its neighbours, and meets absent tails.
    let long_base = CaseGen::new(4, 512, 6, 10).seed(0xA110D).build();
    let long_pool = RequestGen::new(&long_base)
        .seed(0xA110D + 1)
        .count(256)
        .repeat_fraction(0.0)
        .generate();
    let long_batches: Vec<Vec<&Request>> =
        long_pool.chunks(32).map(|c| c.iter().collect()).collect();
    for path in [KernelPath::Auto, KernelPath::ForceScalar] {
        let mut engine = PlaneEngine::with_kernel(path);
        for request in &long_pool {
            engine.retrieve(&long_base, request).unwrap();
        }
        for batch in &long_batches {
            engine.retrieve_batch_into(&long_base, batch, &mut out);
        }
        let (before, steps_before) = (allocations(), engine.steps_scored());
        for _ in 0..4 {
            for request in &long_pool {
                std::hint::black_box(engine.retrieve(&long_base, request).unwrap());
            }
            for batch in &long_batches {
                engine.retrieve_batch_into(&long_base, batch, &mut out);
            }
        }
        assert_eq!(
            allocations(),
            before,
            "the steady-state walk must not allocate ({path:?})"
        );
        let scored = engine.steps_scored() - steps_before;
        let all = 4 * 2 * long_pool.len() as u64 * 32;
        assert!(
            scored > 0 && scored < all,
            "the window must walk, and prune: {scored} of {all} lane-steps ({path:?})"
        );
    }
    // Measured window: the telemetry hot path. Enabling tracing must not
    // put an allocation on the request path: recording an event (ring
    // slot overwrite, including wraparound — the ring holds 1024 and the
    // window writes 4096) and reading an injectable clock are both free.
    let recorder = rqfa::telemetry::FlightRecorder::new(1024);
    let clock = rqfa::telemetry::ManualClock::new();
    recorder.record(0, 0, 0, rqfa::telemetry::EventKind::Submitted, 0);
    let before = allocations();
    for i in 0..4096u64 {
        clock.advance_us(1);
        let at_us = std::hint::black_box(clock.elapsed_us());
        recorder.record(at_us, i, (i % 4) as u8, rqfa::telemetry::EventKind::Dispatched, 0);
    }
    assert_eq!(
        allocations(),
        before,
        "flight-recorder record + manual clock must not allocate"
    );

    // Measured windows: the whole request path of a live service — submit,
    // admission, EDF lane, batch pop, cache probe, reply, ticket wake — 32
    // tickets in flight (`local_hot`'s depth) and 256 (`local_scan`'s),
    // requests cloned outside the window. The one allocation a request
    // causes is its reply slot (measured: 1.000 per request at either
    // depth, with or without deadlines — a lane is a ring plus a heap of
    // handles over a slab, all of which keep their slots, not a tree that
    // splits and frees nodes). The budget leaves less slack than one
    // allocation per two full rounds, so a per-batch
    // `Vec::with_capacity` or a ring regrown per round trips it as
    // surely as a per-request channel does.
    {
        use rqfa::core::QosClass;
        use rqfa::service::{AllocationService, Outcome, ServiceConfig, Ticket};
        use rqfa::workloads::rng::SmallRng;
        use std::time::Duration;
        const IN_FLIGHT: usize = 32;
        const DEEP: usize = 256;
        const REQUESTS: usize = 4096;
        // Serves `pool`, cycled: four times round as warm-up (fills the
        // cache, sizes the worker's buffers and the lanes' rings, creates
        // this thread's handle), then `REQUESTS` measured. With a
        // `deadline_seed`, HIGH, MEDIUM and LOW requests carry seeded
        // deadlines drawn from `surge_overload`'s ranges, so arrivals
        // reach their lanes out of deadline order. Returns how many of
        // the measured requests were answered from the cache.
        let window = |config: ServiceConfig,
                      pool: &[Request],
                      in_flight: usize,
                      deadline_seed: Option<u64>,
                      what: &str|
         -> usize {
            let service = AllocationService::new(&case_base, &config).expect("valid config");
            let mut tickets: Vec<Ticket> = Vec::with_capacity(in_flight);
            let mut rng = SmallRng::seed_from_u64(deadline_seed.unwrap_or(0));
            let mut drive = |requests: Vec<Request>| -> usize {
                let mut cached_replies = 0;
                let mut requests = requests.into_iter().enumerate().peekable();
                while requests.peek().is_some() {
                    for (i, request) in requests.by_ref().take(in_flight) {
                        let class = QosClass::ALL[i % QosClass::COUNT];
                        let deadline_ms = match class {
                            _ if deadline_seed.is_none() => None,
                            QosClass::Critical => None,
                            QosClass::High => Some(rng.gen_range(2..=40u64)),
                            QosClass::Medium => Some(rng.gen_range(5..=80u64)),
                            QosClass::Low => Some(rng.gen_range(10..=160u64)),
                        };
                        tickets.push(match deadline_ms {
                            Some(ms) => service.submit_with_deadline(
                                request,
                                class,
                                Duration::from_millis(ms),
                            ),
                            None => service.submit(request, class),
                        });
                    }
                    for ticket in tickets.drain(..) {
                        let reply = std::hint::black_box(ticket.wait().expect("answered"));
                        if matches!(reply.outcome, Outcome::Allocated { cached: true, .. }) {
                            cached_replies += 1;
                        }
                    }
                }
                cached_replies
            };
            let stream = |n: usize| -> Vec<Request> { pool.iter().cycle().take(n).cloned().collect() };
            drive(stream(4 * pool.len()));
            let measured = stream(REQUESTS);
            let before = allocations();
            let cached_replies = drive(measured);
            let allocated = allocations() - before;
            assert!(
                allocated <= (REQUESTS + REQUESTS / (2 * in_flight)) as u64,
                "{what}: the service request path allocated {allocated} times for \
                 {REQUESTS} requests (budget: the reply slot)"
            );
            service.shutdown();
            cached_replies
        };

        // The shape `local_hot` drives: every request a cache hit. Before
        // the reply slot this window measured 2.2–2.6: a channel counter
        // and a 31-slot message block per ticket, three vectors per batch.
        let hits = window(ServiceConfig::default(), &pool, IN_FLIGHT, None, "hit window");
        assert_eq!(hits, REQUESTS, "the hit window must hit");

        // The shape `local_scan` drives: 1024 distinct requests cycled
        // past a 256-entry cache, so every request misses, runs the
        // kernel, and its insert evicts. Before the slab store this window
        // measured 2.163: a ranking vector per entry, built on insert and
        // freed on eviction, and the eviction queue's tree nodes.
        let mut seen = std::collections::HashSet::new();
        let distinct: Vec<Request> = RequestGen::new(&case_base)
            .seed(0xA110C + 2)
            .count(2048)
            .repeat_fraction(0.0)
            .generate()
            .into_iter()
            .filter(|r| seen.insert(r.fingerprint()))
            .take(1024)
            .collect();
        assert_eq!(distinct.len(), 1024, "workload collapsed");
        let config = ServiceConfig::default().with_cache_capacity(256);
        let hits = window(config.clone(), &distinct, IN_FLIGHT, None, "miss window");
        assert_eq!(hits, 0, "the miss window must miss");
        // The same misses 256 deep: 64 jobs a lane, full batches, eight
        // batches a round.
        let hits = window(config.clone(), &distinct, DEEP, None, "deep miss window");
        assert_eq!(hits, 0, "the deep miss window must miss");
        // The shape `surge_overload` drives: the same misses 256 deep,
        // three classes in four with a deadline of its own, so most
        // arrivals sort before their ring's back and take the lane's
        // heap. Before the heap of handles over a slab this window
        // measured 1.003–1.08 per request (1.08 pinned to one CPU): the
        // B-tree that held those jobs split nodes as it grew and freed
        // them as it drained.
        let hits = window(config, &distinct, DEEP, Some(0xEDF), "deadlined window");
        assert_eq!(hits, 0, "the deadlined window must miss");

        // The shape `cluster_hot`'s nodes serve: one blocking call at a
        // time into an idle shard, so the caller runs its own batch
        // (`docs/scheduling.md` §7.4) — through a cluster client whose
        // every site is local, the public door of that path. Still the
        // reply slot and nothing else: the driver's buffers are taken out
        // of the shard's context and put back, not built per call.
        let service = std::sync::Arc::new(
            AllocationService::new(&case_base, &ServiceConfig::default()).expect("valid config"),
        );
        let client = rqfa::service::remote::ClusterClient::new(
            Box::new(rqfa::core::ModuloPlacement::new(1)),
            Some(std::sync::Arc::clone(&service)),
        );
        let call = |requests: Vec<Request>| {
            for (i, request) in requests.into_iter().enumerate() {
                let reply = client.submit(request, QosClass::ALL[i % QosClass::COUNT]);
                assert!(matches!(std::hint::black_box(reply.outcome), Outcome::Allocated { .. }));
            }
        };
        call(pool.iter().cycle().take(4 * pool.len()).cloned().collect());
        let measured: Vec<Request> = pool.iter().cycle().take(REQUESTS).cloned().collect();
        let inline_before = service.metrics().inline_runs;
        let before = allocations();
        call(measured);
        let allocated = allocations() - before;
        assert!(
            allocated <= (REQUESTS + REQUESTS / (2 * IN_FLIGHT)) as u64,
            "blocking window: {allocated} allocations for {REQUESTS} calls (budget: the reply slot)"
        );
        let inline_runs = service.metrics().inline_runs - inline_before;
        assert!(inline_runs > 0, "the blocking window must drive its own batches");
    }

    // Measured window: the wire. A warm `FrameConn` sends from its send
    // buffer and decodes in its receive buffer, so a `Submit` + `Reply`
    // round trip allocates exactly once — the decoded request's
    // constraints — however many fields, words and CRCs it moves. Before
    // the in-place codec this window measured two dozen: a `Vec<u16>`
    // image per message, its copy into a frame, the payload copied out
    // again and the request rebuilt through the builder's temporaries.
    {
        use rqfa::core::QosClass;
        use rqfa::net::{FrameConn, Message, Submit, WireOutcome, WireReply};
        use std::io::{Read, Write};

        /// An in-memory duplex that keeps its storage: what is written is
        /// read back, and a drained pipe starts over at the front.
        #[derive(Default)]
        struct Pipe {
            bytes: Vec<u8>,
            read: usize,
        }

        impl Write for Pipe {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.bytes.extend_from_slice(data);
                Ok(data.len())
            }

            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        impl Read for Pipe {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                let n = out.len().min(self.bytes.len() - self.read);
                out[..n].copy_from_slice(&self.bytes[self.read..self.read + n]);
                self.read += n;
                if self.read == self.bytes.len() {
                    self.bytes.clear();
                    self.read = 0;
                }
                Ok(n)
            }
        }

        let engine = rqfa::core::FixedEngine::new();
        let exchanges: Vec<(Message, Message)> = pool
            .iter()
            .enumerate()
            .map(|(id, request)| {
                let class = QosClass::ALL[id % QosClass::COUNT];
                let best = engine.retrieve(&case_base, request).unwrap().best.unwrap();
                let submit = Message::Submit(Submit {
                    id: id as u64,
                    class,
                    deadline_us: (id % 2 == 0).then_some(1_000),
                    request: request.clone(),
                });
                let reply = Message::Reply(WireReply {
                    id: id as u64,
                    class,
                    outcome: WireOutcome::Allocated {
                        best,
                        evaluated: 16,
                        cached: id % 3 == 0,
                    },
                    latency_us: 40,
                });
                (submit, reply)
            })
            .collect();
        let mut conn = FrameConn::new(Pipe::default());
        let round_trips = |conn: &mut FrameConn<Pipe>| {
            for (submit, reply) in &exchanges {
                conn.send(submit).unwrap();
                let (received, _) = conn.recv().unwrap();
                let Message::Submit(received) = std::hint::black_box(received) else {
                    panic!("a submit was sent");
                };
                let Message::Submit(sent) = submit else { unreachable!() };
                assert_eq!(received.request.fingerprint(), sent.request.fingerprint());
                conn.send(reply).unwrap();
                let (received, _) = conn.recv().unwrap();
                assert!(matches!(std::hint::black_box(received), Message::Reply(_)));
            }
        };
        round_trips(&mut conn);
        let before = allocations();
        round_trips(&mut conn);
        assert_eq!(
            allocations() - before,
            exchanges.len() as u64,
            "a warm connection's Submit + Reply round trip allocates once: the request"
        );
    }

    // Contrast: the naive engine allocates on every request (this is the
    // cost the plane removes — if this ever goes to zero the harness
    // window itself is broken).
    let naive = rqfa::core::FixedEngine::new();
    let before = allocations();
    for request in pool.iter().take(16) {
        std::hint::black_box(naive.retrieve(&case_base, request).unwrap());
    }
    assert!(
        allocations() > before,
        "sanity: the naive path allocates, so the counter window works"
    );
}
