//! Experiment E13: the allocation service must scale *without changing any
//! answer*. Workspace-level properties:
//!
//! 1. **Ranking equivalence** — sharded + batched + cached retrieval
//!    returns exactly what a single `FixedEngine` over the merged case
//!    base returns, for every request of a generated workload.
//! 2. **Cache coherence** — repeating a request hits the cache; a retain
//!    mutation invalidates it and the next answer reflects the new
//!    variant.
//! 3. **QoS protection** — under deliberate overload with a tiny queue,
//!    CRITICAL requests are never shed while LOW traffic is.
//! 4. **Deadline-aware scheduling** (see `docs/scheduling.md`) — on a
//!    deadline-skewed trace whose arrival order is the exact reverse of
//!    its deadline order, EDF dispatch meets every HIGH budget; weighted
//!    round-robin keeps CRITICAL's weighted share through the queue on
//!    seeded saturating traces; overload shedding displaces by largest slack first and is
//!    bit-deterministic across runs.
//!
//! The scheduling properties drive the queue/arbiter directly through
//! `rqfa::service::testkit` with *virtual* time (one dispatch slot = one
//! simulated millisecond), so they are timing-free and CI-stable.

use std::time::Duration;

use rqfa::core::{
    paper, AttrBinding, AttrId, CaseMutation, ExecutionTarget, FixedEngine, ImplId, ImplVariant,
    ModuloPlacement, QosClass, Request,
};
use rqfa::memlist::MemError;
use rqfa::persist::PersistError;
use rqfa::service::queue::{Admission, ClassQueue};
use rqfa::service::remote::ClusterClient;
use rqfa::service::{
    testkit, AllocationService, Job, ManualClock, Outcome, Reply, ServiceConfig, ServiceError,
    ServiceMetrics, Ticket,
};
use rqfa::workloads::{CaseGen, RequestGen};
use std::sync::Arc;

/// 1a. Every shard count answers exactly like the single engine, request
/// by request, including similarity bit patterns.
#[test]
fn sharded_retrieval_matches_single_engine() {
    let case_base = CaseGen::new(13, 8, 6, 9).seed(0xA11C).value_span(300).build();
    let requests = RequestGen::new(&case_base)
        .seed(0x51AB)
        .count(200)
        .repeat_fraction(0.4) // exercise the cache path too
        .generate();
    let engine = FixedEngine::new();

    for shards in [1usize, 2, 4] {
        let service = AllocationService::new(
            &case_base,
            &ServiceConfig::default().with_shards(shards),
        ).expect("valid service config");
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| service.submit(r.clone(), QosClass::Medium))
            .collect();
        for (request, ticket) in requests.iter().zip(tickets) {
            let reply = ticket.wait().expect("service answers before shutdown");
            let expected = engine
                .retrieve(&case_base, request)
                .expect("generated request is valid")
                .best
                .expect("validated case base always has a best");
            match reply.outcome {
                Outcome::Allocated { best, .. } => {
                    assert_eq!(
                        best.impl_id, expected.impl_id,
                        "{shards} shard(s): winner differs for {request}"
                    );
                    assert_eq!(
                        best.similarity, expected.similarity,
                        "{shards} shard(s): similarity bits differ for {request}"
                    );
                }
                other => panic!("{shards} shard(s): unexpected outcome {other:?}"),
            }
        }
        let snap = service.shutdown();
        assert_eq!(snap.class(QosClass::Medium).completed, requests.len() as u64);
        assert_eq!(snap.shed(), 0, "no shedding in an underloaded run");
    }
}

/// 1b. A batch spanning every shard completes fully even when some types
/// route to one shard and the rest to others.
#[test]
fn cross_shard_round_robin_workload_completes() {
    let case_base = CaseGen::new(8, 4, 4, 6).seed(3).build();
    let service =
        AllocationService::new(&case_base, &ServiceConfig::default().with_shards(4)).expect("valid service config");
    let requests = RequestGen::new(&case_base).seed(9).count(100).generate();
    let tickets: Vec<Ticket> = requests
        .into_iter()
        .map(|r| service.submit(r, QosClass::High))
        .collect();
    let mut answered = 0;
    for ticket in tickets {
        assert!(matches!(
            ticket.wait().expect("answered").outcome,
            Outcome::Allocated { .. }
        ));
        answered += 1;
    }
    assert_eq!(answered, 100);
    service.shutdown();
}

/// 2. Cache hits on repetition; retain-invalidation changes the answer.
#[test]
fn cache_invalidation_on_case_insertion() {
    let case_base = paper::table1_case_base();
    let service = AllocationService::new(&case_base, &ServiceConfig::default()).expect("valid service config");
    let request = paper::table1_request().unwrap();

    let allocated = |reply: Reply| match reply.outcome {
        Outcome::Allocated { best, cached, .. } => (best, cached),
        other => panic!("unexpected outcome {other:?}"),
    };

    // Miss, then hit, answering identically (Table 1: the DSP wins).
    let (first, cached) = allocated(service.submit(request.clone(), QosClass::High).wait().unwrap());
    assert!(!cached);
    assert_eq!(first.impl_id, paper::IMPL_DSP);
    let (second, cached) = allocated(service.submit(request.clone(), QosClass::High).wait().unwrap());
    assert!(cached, "identical repeat must come from the cache");
    assert_eq!(second, first);

    // Retain a variant matching the request exactly: similarity 1.0.
    let perfect = ImplVariant::new(
        ImplId::new(9).unwrap(),
        ExecutionTarget::Fpga,
        vec![
            AttrBinding::new(paper::ATTR_BITWIDTH, 16),
            AttrBinding::new(paper::ATTR_OUTPUT, 1),
            AttrBinding::new(paper::ATTR_RATE, 40),
        ],
    )
    .unwrap();
    service
        .retain_variant(paper::FIR_EQUALIZER, perfect)
        .unwrap();

    // The stale cached answer must NOT be served: recomputed, new winner.
    let (third, cached) = allocated(service.submit(request, QosClass::High).wait().unwrap());
    assert!(!cached, "mutation must invalidate the cached result");
    assert_eq!(third.impl_id.raw(), 9, "the retained perfect match wins");
    assert!(third.similarity > first.similarity);

    let snap = service.shutdown();
    assert_eq!(snap.class(QosClass::High).cache_hits, 1);
    assert_eq!(snap.class(QosClass::High).completed, 3);
}

/// 3. CRITICAL is never shed, even with a 4-slot queue under a flood of
///    LOW traffic with 1 µs deadlines.
#[test]
fn critical_survives_overload_that_sheds_low() {
    let case_base = CaseGen::new(6, 32, 8, 10).seed(77).build();
    let config = ServiceConfig::default()
        .with_shards(2)
        .with_queue_capacity(4)
        .with_batch_size(4)
        .with_cache_capacity(0); // keep the workers honest (no shortcut)
    let service = AllocationService::new(&case_base, &config).expect("valid service config");
    let requests = RequestGen::new(&case_base)
        .seed(5)
        .count(2_000)
        .repeat_fraction(0.0)
        .generate();

    let mut critical_tickets = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        if i % 10 == 0 {
            critical_tickets.push(service.submit(request.clone(), QosClass::Critical));
        } else {
            // Fire-and-forget flood; replies collected via metrics.
            let deadline = Duration::from_micros(1);
            let _ = service.submit_with_deadline(request.clone(), QosClass::Low, deadline);
        }
    }

    for ticket in critical_tickets {
        let reply = ticket.wait().expect("critical must always be answered");
        assert!(
            matches!(reply.outcome, Outcome::Allocated { .. }),
            "CRITICAL must never be shed, got {:?}",
            reply.outcome
        );
    }

    let snap = service.shutdown();
    let critical = snap.class(QosClass::Critical);
    assert_eq!(critical.shed(), 0, "no shed path may touch CRITICAL");
    assert_eq!(critical.completed, critical.submitted);
    let low = snap.class(QosClass::Low);
    assert!(
        low.shed() > 0,
        "a 4-slot queue under a 1800-request flood must shed LOW \
         (shed {} of {})",
        low.shed(),
        low.submitted
    );
    // Accounting closes: every LOW request either completed, was shed, or
    // failed — nothing vanishes.
    assert_eq!(low.completed + low.shed() + low.failed, low.submitted);
}

/// A probe request for scheduler-level tests (payload is irrelevant to
/// queue ordering).
fn probe_request() -> Request {
    paper::table1_request().unwrap()
}

/// Builds a queue of the given capacity, everything else default, on a
/// frozen manual clock at tick 0 — the `base` every scheduler-level test
/// below measures from.
fn sched_queue(capacity: usize) -> ClassQueue {
    let config = ServiceConfig::default()
        .with_queue_capacity(capacity)
        .with_clock(Arc::new(ManualClock::new()));
    ClassQueue::new(&config, Arc::new(ServiceMetrics::default()), None)
}

/// Drains up to `max` queued jobs as one batch (the queue is never empty
/// or shut down where the tests below call this).
fn pop_batch(q: &ClassQueue, max: usize) -> Vec<Job> {
    let mut batch = Vec::new();
    assert!(q.pop_batch(max, &mut batch), "queue shut down");
    batch
}

/// 5a. The EDF property: on one deadline-skewed mixed-load trace whose
///     HIGH arrival order is the exact reverse of its deadline order,
///     dispatched with a virtual service time of one slot = 1 ms, EDF
///     meets *every* HIGH deadline — by dispatching HIGH in deadline
///     order, the reverse of arrival order (arrival order would serve
///     the tightest-deadline job last and miss it).
#[test]
fn edf_meets_high_budgets_where_fifo_misses() {
    const SLOT_US: u64 = 1_000;
    const HIGHS: u64 = 30;
    let q = sched_queue(1024);
    let base = 0;
    // HIGH deadlines are *reverse-skewed*: the latest arrival has the
    // tightest deadline (50 − id ms), so arrival order and deadline
    // order are exactly opposed. MEDIUM load interleaves via the
    // 4:2 weighted share with effectively unconstrained deadlines.
    for id in 0..HIGHS {
        let deadline = base + SLOT_US * (50 - id);
        let (job, _rx) = testkit::job(id, QosClass::High, probe_request(), base, Some(deadline));
        assert!(matches!(q.push(job), Admission::Admitted));
    }
    for id in HIGHS..HIGHS + 20 {
        let deadline = base + SLOT_US * 500;
        let (job, _rx) = testkit::job(id, QosClass::Medium, probe_request(), base, Some(deadline));
        assert!(matches!(q.push(job), Admission::Admitted));
    }
    // Dispatch everything; job at global position p completes at
    // virtual time (p + 1) slots.
    let order = pop_batch(&q, usize::MAX);
    assert_eq!(order.len() as u64, HIGHS + 20);
    let edf: Vec<(u64, bool)> = order
        .iter()
        .enumerate()
        .filter(|(_, job)| job.class() == QosClass::High)
        .map(|(position, job)| {
            let completion = base + SLOT_US * (position as u64 + 1);
            (job.id(), completion <= job.deadline().unwrap())
        })
        .collect();
    assert_eq!(edf.len() as u64, HIGHS);
    assert!(
        edf.iter().all(|&(_, met)| met),
        "EDF must meet every HIGH deadline on this trace: {edf:?}"
    );
    // And EDF dispatches HIGH in the reverse of arrival order.
    assert!(edf.windows(2).all(|w| w[0].0 > w[1].0));
}

/// 5c. Overload displacement: at the class limit the largest-slack LOW
///     resident is shed first (not the queue tail), the newcomer only
///     bounces when it *is* the largest-slack job, and the whole shed
///     sequence is deterministic across identical runs.
#[test]
fn shed_order_is_largest_slack_first_and_deterministic() {
    let run = || {
        let q = sched_queue(4);
        let base = 0;
        let mut log: Vec<String> = Vec::new();
        let push = |id: u64, deadline_ms: u64, log: &mut Vec<String>| {
            let (job, _rx) = testkit::job(
                id,
                QosClass::Low,
                probe_request(),
                base,
                Some(base + deadline_ms * 1_000),
            );
            log.push(match q.push(job) {
                Admission::Admitted => format!("admit {id}"),
                Admission::Displaced(victim) => format!("displace {} for {id}", victim.id()),
                Admission::Refused(job) => format!("refuse {}", job.id()),
            });
        };
        // Fill the LOW lane to its limit (capacity 4)…
        for (id, ms) in [(0, 100u64), (1, 20), (2, 60), (3, 80)] {
            push(id, ms, &mut log);
        }
        // …then: a 10 ms newcomer displaces id 0 (slack 100 ms), a 30 ms
        // newcomer displaces id 3 (slack 80 ms), a 90 ms newcomer is now
        // itself the largest slack and bounces.
        push(4, 10, &mut log);
        push(5, 30, &mut log);
        push(6, 90, &mut log);
        let order: Vec<u64> = pop_batch(&q, usize::MAX)
            .iter()
            .map(Job::id)
            .collect();
        (log, order)
    };
    let (log, order) = run();
    assert_eq!(
        log,
        [
            "admit 0",
            "admit 1",
            "admit 2",
            "admit 3",
            "displace 0 for 4",
            "displace 3 for 5",
            "refuse 6"
        ]
    );
    assert_eq!(order, [4, 1, 5, 2], "survivors dispatch in deadline order");
    let (log2, order2) = run();
    assert_eq!((log, order), (log2, order2), "shed order is deterministic");
}

/// Tiny deterministic generator (splitmix64) for the seeded property
/// test below.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 5b. Weighted round-robin through the queue under deadline pressure:
///     every MEDIUM and LOW job is due 1 µs after arrival and a warm
///     estimator cuts fills short at the tightest picked deadline. Over
///     seeded saturating traces with randomized batch sizes CRITICAL
///     keeps at least its weight / Σ weights = 8/15 of every pick
///     stream — deadlines reorder work inside a lane, never across
///     lanes — and the deadlined classes keep their credit share.
#[test]
fn critical_keeps_its_weighted_floor_on_saturating_deadline_traces() {
    const PICKS: u64 = 1_700; // 113 rounds of 15 credits + 5 picks
    for seed in 0..4u64 {
        let mut state = seed ^ 0xD1A0;
        let q = sched_queue(8_192);
        // 1 µs per job: a picked 1 µs deadline ends the fill early.
        q.estimator().observe(1, 1);
        let base = 0;
        let mut id = 0u64;
        for (class, count, deadlined) in [
            (QosClass::Critical, 1_000u64, false),
            (QosClass::High, 700, false),
            (QosClass::Medium, 500, true),
            (QosClass::Low, 400, true),
        ] {
            for _ in 0..count {
                let deadline = deadlined.then_some(base + 1);
                let (job, _rx) = testkit::job(id, class, probe_request(), base, deadline);
                assert!(matches!(q.push(job), Admission::Admitted));
                id += 1;
            }
        }
        let mut counts = [0u64; 4];
        let mut served = 0u64;
        while served < PICKS {
            let want = (1 + splitmix(&mut state) % 32).min(PICKS - served) as usize;
            let batch = pop_batch(&q, want);
            assert!(!batch.is_empty(), "a saturated queue yields every batch a pick");
            for job in &batch {
                counts[job.class().index()] += 1;
            }
            served += batch.len() as u64;
        }
        // CRITICAL's floor: 8 of every 15 credits.
        assert!(
            counts[QosClass::Critical.index()] * 15 >= PICKS * 8,
            "seed {seed}: CRITICAL below its weighted share, counts {counts:?}"
        );
        // The deadlined classes keep their 3 credits a round, less the
        // partial round at the end, which CRITICAL takes whole.
        assert!(
            (counts[QosClass::Medium.index()] + counts[QosClass::Low.index()]) * 17 >= PICKS * 3,
            "seed {seed}: deadlined classes lost share, counts {counts:?}"
        );
    }
}

/// 5d. Per-request deadlines flow end to end: an already-expired
///     sheddable deadline is shed at dispatch; CRITICAL with the same
///     expired deadline is *served* (never shed) and accounted as a
///     missed deadline.
#[test]
fn explicit_deadlines_shed_sheddable_but_never_critical() {
    let case_base = paper::table1_case_base();
    let service = AllocationService::new(&case_base, &ServiceConfig::default()).expect("valid service config");
    let expired = Duration::ZERO;

    let low = service
        .submit_with_deadline(paper::table1_request().unwrap(), QosClass::Low, expired)
        .wait()
        .unwrap();
    assert_eq!(low.outcome, Outcome::ShedDeadline);

    let critical = service
        .submit_with_deadline(paper::table1_request().unwrap(), QosClass::Critical, expired)
        .wait()
        .unwrap();
    assert!(
        matches!(critical.outcome, Outcome::Allocated { .. }),
        "CRITICAL is served even when late, got {:?}",
        critical.outcome
    );

    // The other extreme: a deadline too far to represent saturates
    // instead of overflowing (this call used to panic in the caller) or
    // wrapping into the past (which would shed it as expired).
    let far = service
        .submit_with_deadline(paper::table1_request().unwrap(), QosClass::Low, Duration::MAX)
        .wait()
        .unwrap();
    assert!(
        matches!(far.outcome, Outcome::Allocated { .. }),
        "a far deadline is admitted and served, got {:?}",
        far.outcome
    );

    let snap = service.shutdown();
    assert_eq!(snap.class(QosClass::Low).shed_deadline, 1);
    assert_eq!(snap.class(QosClass::Critical).shed(), 0);
    assert_eq!(snap.class(QosClass::Critical).missed_deadline, 1);
}

/// 4. Durable shard recovery equivalence: run a durable service, apply K
///    mutations through it (some shards auto-checkpoint, some keep WAL
///    records), kill it without a final checkpoint, recover from the
///    on-disk WALs — and every retrieval of the recovered service must
///    match an unkilled single-engine oracle that applied the same K
///    mutations in memory, bit for bit.
#[test]
fn killed_durable_shards_recover_equivalent_to_unkilled_oracle() {
    let case_base = CaseGen::new(9, 5, 4, 6).seed(0xD00D).value_span(250).build();
    let dir = std::env::temp_dir().join(format!(
        "rqfa-shard-recovery-{}-{:x}",
        std::process::id(),
        0xD00Du32
    ));
    let _ = std::fs::remove_dir_all(&dir);
    // snapshot_every=4 makes some shards checkpoint mid-run while others
    // still carry WAL records at kill time — both recovery paths in one run.
    let config = ServiceConfig::default().with_shards(3).with_snapshot_every(4);

    let service =
        AllocationService::durable_create(&case_base, &dir, &config).expect("durable create");
    let mut oracle = case_base.clone();

    // K deterministic mutations: fresh retains across all types, plus a
    // revise and an evict, routed through the service (and mirrored into
    // the in-memory oracle).
    let mut mutations: Vec<CaseMutation> = Vec::new();
    for (i, ty) in case_base.function_types().iter().enumerate() {
        let attr = AttrId::new(1 + (i as u16 % 6)).unwrap();
        let entry = case_base.bounds().entry(attr).unwrap();
        mutations.push(CaseMutation::Retain {
            type_id: ty.id(),
            variant: ImplVariant::new(
                ImplId::new(900 + i as u16).unwrap(),
                ExecutionTarget::Fpga,
                vec![AttrBinding::new(attr, entry.lower)],
            )
            .unwrap(),
        });
    }
    let first = &case_base.function_types()[0];
    mutations.push(CaseMutation::Revise {
        type_id: first.id(),
        variant: {
            let old = &first.variants()[0];
            let mut attrs = old.attrs().to_vec();
            let entry = case_base.bounds().entry(attrs[0].attr).unwrap();
            attrs[0] = AttrBinding::new(attrs[0].attr, entry.upper);
            ImplVariant::new(old.id(), old.target(), attrs).unwrap()
        },
    });
    mutations.push(CaseMutation::Evict {
        type_id: first.id(),
        impl_id: first.variants()[1].id(),
    });

    for mutation in &mutations {
        service.apply_mutation(mutation).expect("service applies");
        oracle.apply_mutation(mutation).expect("oracle applies");
    }

    // The registry carries every durable shard's write-path counters:
    // one append per mutation, and only the first behind each log
    // rewrite had to grow its file.
    let registry = rqfa::telemetry::Registry::new();
    service.register_metrics(&registry, "service");
    let snapshot = registry.snapshot();
    let over_shards = |name: &str| -> f64 {
        let samples = snapshot.samples.iter().filter(|s| s.name.ends_with(name));
        samples.map(|s| s.value).sum()
    };
    assert_eq!(over_shards("/persist/appends"), mutations.len() as f64);
    let grows = over_shards("/persist/reserve_grows");
    assert!((3.0..mutations.len() as f64).contains(&grows), "reserve_grows {grows}");

    // Serve (and cache) some traffic, then KILL: drop without checkpoint.
    let warmup = RequestGen::new(&case_base).seed(0x11).count(50).generate();
    for request in &warmup {
        let _ = service.submit(request.clone(), QosClass::Medium).wait();
    }
    drop(service);

    // Recover from disk. Shard count comes from the manifest.
    let (recovered, reports) =
        AllocationService::durable_recover(&dir, &config).expect("durable recover");
    assert_eq!(recovered.shard_count(), 3);
    let replayed: usize = reports.iter().flatten().map(|r| r.replayed).sum();
    let skipped: usize = reports.iter().flatten().map(|r| r.skipped_older).sum();
    assert_eq!(skipped, 0, "clean checkpoints leave no pre-snapshot records");
    assert!(
        replayed < mutations.len(),
        "snapshot_every=4 must have checkpointed at least one shard \
         (replayed {replayed} of {})",
        mutations.len()
    );

    // Every retrieval of the recovered service matches the single-engine
    // oracle bit for bit — including requests that hit mutated variants.
    // Three passes over distinct requests: cold after recovery; again, now
    // from the recovered shards' caches; and after one more mutation, which
    // the recovered type stamps must scope to its own type — that type's
    // entries recompute once, every other type's keep answering cached.
    let engine = FixedEngine::new();
    let mut seen = std::collections::HashSet::new();
    let requests: Vec<Request> = RequestGen::new(&case_base)
        .seed(0x22)
        .count(300)
        .generate()
        .into_iter()
        .filter(|r| seen.insert(r.fingerprint()))
        .collect();
    let learned = case_base.function_types()[2].id();
    for pass in 0..3 {
        if pass == 2 {
            let mutation = CaseMutation::Evict {
                type_id: learned,
                impl_id: case_base.function_type(learned).unwrap().variants()[0].id(),
            };
            recovered.apply_mutation(&mutation).expect("recovered service learns");
            oracle.apply_mutation(&mutation).expect("oracle applies");
        }
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| recovered.submit(r.clone(), QosClass::High))
            .collect();
        for (request, ticket) in requests.iter().zip(tickets) {
            let reply = ticket.wait().expect("recovered service answers");
            let expected = engine
                .retrieve(&oracle, request)
                .expect("oracle accepts generated requests");
            assert_eq!(
                reply.outcome,
                Outcome::Allocated {
                    best: expected.best.expect("non-empty case base"),
                    evaluated: expected.evaluated,
                    cached: match pass {
                        0 => false,
                        1 => true,
                        _ => request.type_id() != learned,
                    },
                },
                "pass {pass}: {request}"
            );
        }
    }
    recovered.shutdown();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// 4b. Recovery is idempotent: recovering twice (second time after more
///     mutations + kill) keeps answering like the oracle.
#[test]
fn repeated_kill_recover_cycles_stay_equivalent() {
    let case_base = CaseGen::new(5, 4, 3, 5).seed(0xAB).build();
    let dir = std::env::temp_dir().join(format!(
        "rqfa-shard-recovery-cycles-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig::default().with_shards(2).with_snapshot_every(0);

    let mut oracle = case_base.clone();
    let service =
        AllocationService::durable_create(&case_base, &dir, &config).expect("create");
    let engine = FixedEngine::new();
    let requests = RequestGen::new(&case_base).seed(0x33).count(100).generate();

    let mut service = service;
    for round in 0..3u16 {
        // One fresh retain per round, through the live service.
        let ty = &case_base.function_types()[usize::from(round) % case_base.type_count()];
        let attr = AttrId::new(1).unwrap();
        let entry = case_base.bounds().entry(attr).unwrap();
        let mutation = CaseMutation::Retain {
            type_id: ty.id(),
            variant: ImplVariant::new(
                ImplId::new(700 + round).unwrap(),
                ExecutionTarget::Dsp,
                vec![AttrBinding::new(attr, entry.upper)],
            )
            .unwrap(),
        };
        service.apply_mutation(&mutation).expect("apply");
        oracle.apply_mutation(&mutation).expect("oracle");

        // Kill + recover.
        drop(service);
        let (next, _) = AllocationService::durable_recover(&dir, &config).expect("recover");
        service = next;

        for request in &requests {
            let reply = service
                .submit(request.clone(), QosClass::Medium)
                .wait()
                .expect("answered");
            let expected = engine.retrieve(&oracle, request).unwrap().best.unwrap();
            match reply.outcome {
                Outcome::Allocated { best, .. } => {
                    assert_eq!(
                        (best.impl_id, best.similarity),
                        (expected.impl_id, expected.similarity),
                        "round {round}: {request}"
                    );
                }
                other => panic!("round {round}: unexpected outcome {other:?}"),
            }
        }
    }
    service.shutdown();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// 4c. A `durable_create` that cannot succeed destroys nothing: the
///     8192-variant base does not fit one snapshot image, and the refusal
///     must come before the directory's previous state — here one
///     acknowledged mutation past genesis — is purged.
#[test]
fn failed_durable_create_leaves_the_old_state_recoverable() {
    let dir = std::env::temp_dir().join(format!(
        "rqfa-durable-create-refused-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig::default().with_shards(1);

    let service = AllocationService::durable_create(&paper::table1_case_base(), &dir, &config)
        .expect("create");
    service
        .evict_variant(paper::FIR_EQUALIZER, paper::IMPL_GP)
        .expect("acknowledged");
    drop(service);

    let too_large = CaseGen::new(16, 512, 8, 10).seed(1).build();
    let refused = AllocationService::durable_create(&too_large, &dir, &config);
    assert!(
        matches!(
            refused,
            Err(ServiceError::Persist(PersistError::Mem(MemError::ImageTooLarge { .. })))
        ),
        "{:?}",
        refused.err()
    );

    let (recovered, reports) = AllocationService::durable_recover(&dir, &config).expect("recover");
    let replayed: usize = reports.iter().flatten().map(|r| r.replayed).sum();
    assert_eq!(replayed, 1, "the acknowledged mutation survives the refused create");
    recovered.shutdown();
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// 5. Cache metrics invariants, end to end (see `docs/caching.md`):
///    every dispatched request probes the shard cache exactly once, so
///    after a drained shutdown `cache_hits + cache_misses == completed +
///    failed` holds per class; stale detections are a subset of misses
///    (a stale result is *never* served); and the per-class hit counters
///    agree with the `cached` flags observed on the replies themselves.
#[test]
fn cache_metrics_invariants_hold_end_to_end() {
    let case_base = CaseGen::new(9, 6, 5, 8).seed(0x77).build();
    let requests = RequestGen::new(&case_base)
        .seed(0x99)
        .count(300)
        .repeat_fraction(0.5)
        .generate();
    let service = AllocationService::new(
        &case_base,
        &ServiceConfig::default().with_shards(3).with_cache_capacity(64),
    ).expect("valid service config");
    let mut cached_replies = [0u64; 4];
    let classes = [
        QosClass::Critical,
        QosClass::High,
        QosClass::Medium,
        QosClass::Low,
    ];
    let mut replay = |service: &AllocationService| {
        let tickets: Vec<Ticket> = requests
            .iter()
            .enumerate()
            .map(|(i, r)| service.submit(r.clone(), classes[i % classes.len()]))
            .collect();
        for ticket in tickets {
            let reply = ticket.wait().expect("answered");
            if let Outcome::Allocated { cached: true, .. } = reply.outcome {
                cached_replies[reply.class.index()] += 1;
            }
        }
    };
    // Phase 1 populates the caches; the mutations bump every shard's
    // generation; phase 2 turns the resident entries into stale
    // detections.
    replay(&service);
    for ty in case_base.function_types() {
        service
            .evict_variant(ty.id(), ty.variants()[0].id())
            .expect("evict");
    }
    replay(&service);
    let snap = service.shutdown();
    let mut total_stale = 0;
    for class in QosClass::ALL {
        let c = snap.class(class);
        assert_eq!(
            c.cache_hits + c.cache_misses,
            c.completed + c.failed,
            "{class}: every dispatched request probes once"
        );
        assert_eq!(c.cache_lookups(), c.cache_hits + c.cache_misses);
        assert!(
            c.cache_stale <= c.cache_misses,
            "{class}: stale must be counted as misses"
        );
        assert_eq!(
            c.cache_hits,
            cached_replies[class.index()],
            "{class}: metrics disagree with observed replies"
        );
        assert_eq!(c.failed, 0, "{class}");
        assert_eq!(c.completed + c.shed(), c.submitted, "{class}");
        total_stale += c.cache_stale;
    }
    assert!(total_stale > 0, "the mutation must surface as stale detections");
}

/// 6. Within-batch duplicates (`docs/retrieval.md`): identical requests
///    inside one dispatch batch are scored like any others — each probes
///    the cache once, misses, and is scored by the kernel — and answered
///    bit-identically, uncached; their inserts overwrite one entry per
///    fingerprint in place. Replayed, so batch composition — and
///    therefore every counter and event — is exact, not timing-dependent.
#[test]
fn within_batch_duplicates_are_each_scored_and_answered_alike() {
    use rqfa::service::replay::{CostModel, TraceArrival, TraceDriver};
    use rqfa::telemetry::EventKind;

    let case_base = paper::table1_case_base();
    // One shard, room for the whole burst in one batch, and a cache of
    // exactly two entries: one per distinct fingerprint.
    let config = ServiceConfig::default()
        .with_shards(1)
        .with_batch_size(8)
        .with_cache_capacity(2);
    let driver = TraceDriver::new(&case_base, &config, CostModel::default());
    let fir = paper::table1_request().unwrap();
    let fft = Request::builder(paper::FFT_1D)
        .constraint(AttrId::new(1).unwrap(), 16)
        .build()
        .unwrap();
    // Six jobs in one batch at tick 0, then one of each request once the
    // batch is done.
    let pattern = [&fir, &fft, &fir, &fir, &fft, &fir, &fir, &fft];
    let arrivals: Vec<TraceArrival> = pattern
        .iter()
        .enumerate()
        .map(|(i, request)| TraceArrival {
            at_us: if i < 6 { 0 } else { 10_000 },
            class: QosClass::Medium,
            deadline_us: None,
            request: (*request).clone(),
        })
        .collect();
    let report = driver.run(&arrivals);

    let class = report.metrics.class(QosClass::Medium);
    assert_eq!(class.cache_misses, 6, "every job of the burst misses");
    assert_eq!(class.cache_hits, 2, "the later pair is served from the cache");
    assert_eq!(class.completed, 8);
    assert_eq!(report.metrics.batches, 2);
    let of_kind = |kind| report.trace.events.iter().filter(move |e| e.kind == kind);
    let ids = |kind| of_kind(kind).map(|e| e.request_id).collect::<Vec<_>>();
    assert_eq!(ids(EventKind::Scored), [0, 1, 2, 3, 4, 5], "one kernel score per job");
    assert_eq!(ids(EventKind::CacheHit), [6, 7]);
    assert!(of_kind(EventKind::CacheHit).chain(of_kind(EventKind::Scheduled)).all(|e| e.arg == 0));

    // Replies: bit-identical to a direct engine run; `cached` only where
    // the store hit. Both entries outlived six inserts into a cache of
    // two: the duplicates overwrote their fingerprint's entry in place.
    let engine = FixedEngine::new();
    let mut cached_flags = Vec::new();
    for (reply, request) in report.replies.iter().zip(pattern) {
        match reply.outcome {
            Outcome::Allocated {
                best,
                evaluated,
                cached,
            } => {
                let expected = engine.retrieve(&case_base, request).unwrap();
                assert_eq!(Some(best), expected.best, "reply bits must match");
                assert_eq!(evaluated, expected.evaluated);
                cached_flags.push(cached);
            }
            ref other => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert_eq!(cached_flags, [false, false, false, false, false, false, true, true]);
}

/// 6b. A batch after a mutation never serves the pre-mutation result:
///     the first probe drops the stale entry, every duplicate behind it
///     misses too, the plane engine recompiles once, and every reply
///     carries the post-mutation answer.
#[test]
fn a_batch_after_a_mutation_never_serves_the_pre_mutation_result() {
    let case_base = paper::table1_case_base();
    let mut harness = testkit::BatchHarness::new(&case_base, &ServiceConfig::default());
    let fir = paper::table1_request().unwrap();
    let (job, rx) = testkit::job(0, QosClass::Medium, fir.clone(), 0, None);
    harness.run_batch(vec![job]);
    assert!(rx.try_wait().is_some());
    assert_eq!(harness.engine_recompiles(), 1);

    // Mutate: the type stamp moves, cache entry + plane both go stale.
    harness
        .apply(&CaseMutation::Evict {
            type_id: paper::FIR_EQUALIZER,
            impl_id: paper::IMPL_GP,
        })
        .expect("evict applies");

    let mut jobs = Vec::new();
    let mut receivers = Vec::new();
    for i in 0..3 {
        let (job, rx) = testkit::job(1 + i, QosClass::Medium, fir.clone(), 0, None);
        jobs.push(job);
        receivers.push(rx);
    }
    harness.run_batch(jobs);
    assert_eq!(harness.engine_recompiles(), 2, "one recompile per generation");
    let snap = harness.metrics();
    let class = snap.class(QosClass::Medium);
    assert_eq!(class.cache_stale, 1, "the first probe detects the stale entry");
    assert_eq!(class.cache_misses, 4, "first batch + every post-mutation job");
    assert_eq!(class.cache_hits, 0, "nothing is served from before the mutation");
    for rx in &receivers {
        match rx.try_wait().expect("replied").outcome {
            Outcome::Allocated { best, evaluated, cached } => {
                assert_eq!(evaluated, 2, "post-mutation case base has 2 variants");
                assert_ne!(best.impl_id, paper::IMPL_GP, "evicted variant cannot win");
                assert!(!cached);
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
}

/// 6c. Duplicates of a failing request in one batch each fail
///     identically, and the per-class cache counters keep summing to the
///     served total (the invariant of §5 above) even on the error path.
#[test]
fn failing_duplicates_in_one_batch_each_fail_alike() {
    let case_base = paper::table1_case_base();
    let mut harness = testkit::BatchHarness::new(&case_base, &ServiceConfig::default());
    let unknown = Request::builder(rqfa::core::TypeId::new(57).unwrap())
        .constraint(AttrId::new(1).unwrap(), 1)
        .build()
        .unwrap();
    let mut jobs = Vec::new();
    let mut receivers = Vec::new();
    for i in 0..3 {
        let (job, rx) = testkit::job(i, QosClass::Low, unknown.clone(), 0, None);
        jobs.push(job);
        receivers.push(rx);
    }
    harness.run_batch(jobs);
    for rx in &receivers {
        match rx.try_wait().expect("replied").outcome {
            Outcome::Failed(rqfa::core::CoreError::UnknownType { type_id }) => {
                assert_eq!(type_id.raw(), 57);
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    let snap = harness.metrics();
    let class = snap.class(QosClass::Low);
    assert_eq!(class.failed, 3);
    assert_eq!(class.cache_hits, 0, "a failure is never a hit");
    assert_eq!(
        class.cache_hits + class.cache_misses,
        class.completed + class.failed,
        "probe accounting holds on the error path"
    );
}

/// 6d. Live end-to-end: a duplicate-heavy stream through real worker
///     threads with the result cache **disabled**. Batch composition is
///     timing-dependent, so the test asserts consistency (flags ==
///     counters, bits == engine), not exact counts; with no store to hit
///     nothing is flagged cached.
#[test]
fn live_duplicate_heavy_stream_keeps_replies_and_metrics_consistent() {
    let case_base = CaseGen::new(5, 6, 5, 8).seed(0xC0A1).build();
    let pool = RequestGen::new(&case_base)
        .seed(0xC0A2)
        .count(8) // tiny pool → duplicate-heavy stream
        .repeat_fraction(0.0)
        .generate();
    let service = AllocationService::new(
        &case_base,
        &ServiceConfig::default()
            .with_shards(2)
            .with_cache_capacity(0) // no store: nothing can hit
            .with_queue_capacity(5_000),
    ).expect("valid service config");
    let engine = FixedEngine::new();
    let tickets: Vec<(usize, Ticket)> = (0..2_000)
        .map(|i| (i % pool.len(), service.submit(pool[i % pool.len()].clone(), QosClass::Medium)))
        .collect();
    let mut flagged = 0u64;
    for (slot, ticket) in tickets {
        let reply = ticket.wait().expect("answered");
        match reply.outcome {
            Outcome::Allocated { best, cached, .. } => {
                let expected = engine.retrieve(&case_base, &pool[slot]).unwrap();
                assert_eq!(Some(best), expected.best, "duplicate bits must match");
                flagged += u64::from(cached);
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    let snap = service.shutdown();
    let class = snap.class(QosClass::Medium);
    assert_eq!(class.completed, 2_000);
    assert_eq!(class.cache_hits, flagged, "counters agree with reply flags");
    assert_eq!(flagged, 0, "a disabled cache serves nothing");
    assert_eq!(
        class.cache_hits + class.cache_misses,
        class.completed + class.failed
    );
}

/// 7a. The hand-over under stress: two clients, 100 k requests each,
///     collecting through every door a ticket has — `try_wait` polling,
///     blocking `wait`, short `wait_timeout`s — against one live shard.
///     Every ticket resolves with the reference engine's bits. A lost
///     wake-up would show as a hang, so the whole run is bounded and
///     fails loudly instead.
#[test]
fn every_ticket_resolves_bit_identically_through_every_wait_path() {
    const CLIENTS: usize = 2;
    const PER_CLIENT: usize = 100_000;
    const IN_FLIGHT: usize = 16;
    const BOUND: Duration = Duration::from_secs(300);

    let case_base = CaseGen::new(6, 8, 6, 8).seed(0x7A11).build();
    let pool = RequestGen::new(&case_base)
        .seed(0x7A12)
        .count(256)
        .repeat_fraction(0.0)
        .generate();
    let engine = FixedEngine::new();
    let expected: Vec<_> = pool
        .iter()
        .map(|r| engine.retrieve(&case_base, r).unwrap().best)
        .collect();
    let (pool, expected) = (Arc::new(pool), Arc::new(expected));
    let service = Arc::new(
        AllocationService::new(&case_base, &ServiceConfig::default()).expect("valid service config"),
    );

    let (done_tx, done) = std::sync::mpsc::channel();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let (service, pool, expected) =
                (Arc::clone(&service), Arc::clone(&pool), Arc::clone(&expected));
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                let check = |slot: usize, reply: Option<Reply>| match reply {
                    Some(Reply { outcome: Outcome::Allocated { best, .. }, .. }) => {
                        assert_eq!(Some(best), expected[slot], "request {slot}");
                    }
                    other => panic!("request {slot} did not resolve: {other:?}"),
                };
                let mut window: std::collections::VecDeque<(usize, Ticket)> =
                    std::collections::VecDeque::with_capacity(IN_FLIGHT);
                for i in 0..PER_CLIENT + IN_FLIGHT {
                    if i >= IN_FLIGHT {
                        let (slot, ticket) = window.pop_front().expect("window is full");
                        let reply = match i % 3 {
                            0 => ticket.wait(),
                            1 => loop {
                                if let Some(reply) = ticket.try_wait() {
                                    break Some(reply);
                                }
                                std::thread::yield_now();
                            },
                            _ => loop {
                                if let Some(reply) = ticket.wait_timeout(Duration::from_micros(20)) {
                                    break Some(reply);
                                }
                            },
                        };
                        check(slot, reply);
                    }
                    if i < PER_CLIENT {
                        let slot = (i * (client + 1)) % pool.len();
                        let class = QosClass::ALL[i % QosClass::COUNT];
                        window.push_back((slot, service.submit(pool[slot].clone(), class)));
                    }
                }
                done_tx.send(()).expect("main thread is waiting");
            })
        })
        .collect();
    for _ in 0..CLIENTS {
        done.recv_timeout(BOUND)
            .expect("a client hung or died: a reply or its wake-up was lost");
    }
    for client in clients {
        client.join().unwrap();
    }
    let snap = Arc::into_inner(service).expect("clients joined").shutdown();
    assert_eq!(snap.completed(), (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(snap.shed(), 0);
    assert!(snap.worker_wakes <= snap.worker_parks, "{snap:?}");
}

/// 7b. The books under a submitter that never blocks and drops every
///     ticket at once, beside the worker it keeps waking: every submit
///     is accounted for exactly once per class, CRITICAL is never shed,
///     and a park is woken at most once. (Bookkeeping only — no drain
///     rate is asserted.)
#[test]
fn a_never_blocking_submitter_that_drops_its_tickets_keeps_the_books() {
    const SUBMITS: usize = 150_000;
    let case_base = CaseGen::new(6, 8, 6, 8).seed(0x7B11).build();
    let pool = RequestGen::new(&case_base)
        .seed(0x7B12)
        .count(64)
        .repeat_fraction(0.0)
        .generate();
    let service = AllocationService::new(
        &case_base,
        &ServiceConfig::default().with_queue_capacity(256),
    )
    .expect("valid service config");
    for i in 0..SUBMITS {
        // 1 CRITICAL : 3 HIGH : 6 MEDIUM : 10 LOW, every fourth with a
        // deadline (some too tight to meet), all tickets dropped unread.
        let class = match i % 20 {
            0 => QosClass::Critical,
            1..=3 => QosClass::High,
            4..=9 => QosClass::Medium,
            _ => QosClass::Low,
        };
        let request = pool[i % pool.len()].clone();
        if i % 4 == 0 {
            let deadline = Duration::from_micros(1 + (i % 7) as u64 * 500);
            drop(service.submit_with_deadline(request, class, deadline));
        } else {
            drop(service.submit(request, class));
        }
    }
    let snap = service.shutdown();
    let mut submitted = 0;
    for class in QosClass::ALL {
        let c = snap.class(class);
        assert_eq!(
            c.completed + c.failed + c.shed(),
            c.submitted,
            "{class}: every submit ends exactly once"
        );
        submitted += c.submitted;
    }
    assert_eq!(submitted, SUBMITS as u64);
    assert_eq!(snap.class(QosClass::Critical).shed(), 0);
    assert!(snap.worker_wakes <= snap.worker_parks, "{snap:?}");
}

/// 7c. Blocking callers beside pipelining ones: three threads that call
///     and wait (each runs its own batch whenever it finds the shard
///     idle, `docs/scheduling.md` §7.4) and two that keep 32 tickets in
///     flight each, one polling, one blocking in `wait` (which runs the
///     batch an idle worker owes it, §7.5), on one shard. Every reply
///     carries the reference engine's bits, every submit ends exactly
///     once, a park is woken at most once, and both the worker and the
///     inline drivers ran batches. Bounded, as 7a, against a lost
///     wake-up.
#[test]
fn blocking_callers_and_a_pipelining_submitter_share_one_shard() {
    const BLOCKING: usize = 3;
    const PER_CLIENT: usize = 100_000;
    const IN_FLIGHT: usize = 32;
    const POOL: usize = 256;
    const BOUND: Duration = Duration::from_secs(300);

    let case_base = CaseGen::new(6, 8, 6, 8).seed(0x7C11).build();
    let pool = RequestGen::new(&case_base)
        .seed(0x7C12)
        .count(POOL)
        .repeat_fraction(0.0)
        .generate();
    let engine = FixedEngine::new();
    let expected: Vec<_> = pool
        .iter()
        .map(|r| engine.retrieve(&case_base, r).unwrap().best)
        .collect();
    let (pool, expected) = (Arc::new(pool), Arc::new(expected));
    let service = Arc::new(
        AllocationService::new(&case_base, &ServiceConfig::default()).expect("valid service config"),
    );
    // The blocking entry point is crate-private; a cluster client whose
    // every site is local is its public door.
    let client = Arc::new(ClusterClient::new(
        Box::new(ModuloPlacement::new(1)),
        Some(Arc::clone(&service)),
    ));

    let check = |expected: &[Option<_>], slot: usize, reply: Option<Reply>| match reply {
        Some(Reply { outcome: Outcome::Allocated { best, .. }, .. }) => {
            assert_eq!(Some(best), expected[slot], "request {slot}");
        }
        other => panic!("request {slot} did not resolve: {other:?}"),
    };
    let slot_of = |client: usize, i: usize| (i * (client + 1)) % POOL;
    let class_of = |i: usize| QosClass::ALL[i % QosClass::COUNT];
    let (done_tx, done) = std::sync::mpsc::channel();
    let mut clients: Vec<_> = (0..BLOCKING)
        .map(|caller| {
            let (client, pool, expected) =
                (Arc::clone(&client), Arc::clone(&pool), Arc::clone(&expected));
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                for i in 0..PER_CLIENT {
                    let slot = slot_of(caller, i);
                    let reply = client.submit(pool[slot].clone(), class_of(i));
                    check(&expected, slot, Some(reply));
                }
                done_tx.send(()).expect("main thread is waiting");
            })
        })
        .collect();
    for (client, blocks) in [(BLOCKING, false), (BLOCKING + 1, true)] {
        let (pipelined, pool, expected) =
            (Arc::clone(&service), Arc::clone(&pool), Arc::clone(&expected));
        let done_tx = done_tx.clone();
        clients.push(std::thread::spawn(move || {
            let mut window = std::collections::VecDeque::with_capacity(IN_FLIGHT);
            for i in 0..PER_CLIENT + IN_FLIGHT {
                if i >= IN_FLIGHT {
                    let (slot, ticket): (usize, Ticket) = window.pop_front().expect("full window");
                    let reply = if blocks {
                        ticket.wait()
                    } else {
                        loop {
                            if let Some(reply) = ticket.try_wait() {
                                break Some(reply);
                            }
                            std::thread::yield_now();
                        }
                    };
                    check(&expected, slot, reply);
                }
                if i < PER_CLIENT {
                    let slot = slot_of(client, i);
                    window.push_back((slot, pipelined.submit(pool[slot].clone(), class_of(i))));
                }
            }
            done_tx.send(()).expect("main thread is waiting");
        }));
    }
    for _ in &clients {
        done.recv_timeout(BOUND)
            .expect("a client hung or died: a reply or its wake-up was lost");
    }
    for client in clients {
        client.join().unwrap();
    }
    drop(client);
    let snap = Arc::into_inner(service).expect("clients joined").shutdown();
    for class in QosClass::ALL {
        let c = snap.class(class);
        assert_eq!(c.completed + c.failed + c.shed(), c.submitted, "{class}");
    }
    assert_eq!(snap.completed(), ((BLOCKING + 2) * PER_CLIENT) as u64);
    assert!(snap.worker_wakes <= snap.worker_parks, "{snap:?}");
    assert!(0 < snap.inline_runs && snap.inline_runs < snap.batches, "{snap:?}");
}

