//! The type-scoping proof: a mutation costs the cached results of the one
//! function type it touches, never another type's, and never an answer.
//!
//! Seeded streams of mixed submit / retain / revise / evict operations
//! drive the shard core by hand ([`testkit::BatchHarness`]) and the live
//! threaded [`AllocationService`] in lockstep with two references:
//!
//! * **answers** — every reply is bit-identical (variant, similarity
//!   word, target, evaluated count) to [`FixedEngine`] over an oracle base
//!   that applied the same mutations;
//! * **cache behaviour** — a model that knows only the normative rule of
//!   `docs/caching.md` (an entry is fresh while its *type's* stamp stands
//!   still) predicts the `cached` flag of every reply: entries of
//!   untouched types answer `cached: true` right after another type's
//!   mutation, and each entry of the mutated type misses — counted
//!   `stale` — exactly once.
//!
//! The service-level cache invariants (`hits + misses == completed +
//! failed` per class) are re-checked over the whole stream.

use std::collections::{HashMap, HashSet};

use rqfa::core::{CaseBase, CaseMutation, FixedEngine, QosClass, Request, TypeId};
use rqfa::service::{testkit, AllocationService, MetricsSnapshot, Outcome, Reply, ServiceConfig};
use rqfa::workloads::rng::SmallRng;
use rqfa::workloads::{CaseGen, MutationGen, RequestGen};

const SEEDS: u64 = 10;
const STEPS: usize = 400;
const TYPES: u16 = 5;

/// What drives the shard core: by hand, or through the live threads.
trait Driver {
    /// Serves one round of requests, replies in input order.
    fn serve(&mut self, round: &[(Request, QosClass)]) -> Vec<Reply>;
    fn mutate(&mut self, mutation: &CaseMutation);
    /// Final metrics, plus the driver's own counters where it has any:
    /// `(cache stale drops, type planes compiled)`.
    fn finish(self) -> (MetricsSnapshot, Option<(u64, u64)>);
}

struct Harness {
    harness: testkit::BatchHarness,
    next_id: u64,
}

impl Driver for Harness {
    fn serve(&mut self, round: &[(Request, QosClass)]) -> Vec<Reply> {
        let (jobs, tickets): (Vec<_>, Vec<_>) = round
            .iter()
            .map(|(request, class)| {
                self.next_id += 1;
                testkit::job(self.next_id, *class, request.clone(), 0, None)
            })
            .unzip();
        self.harness.run_batch(jobs);
        tickets
            .into_iter()
            .map(|ticket| ticket.try_wait().expect("a run batch answers every job"))
            .collect()
    }

    fn mutate(&mut self, mutation: &CaseMutation) {
        self.harness
            .apply(mutation)
            .expect("generated mutation is valid");
    }

    fn finish(self) -> (MetricsSnapshot, Option<(u64, u64)>) {
        let own = (
            self.harness.cache_stats().stale,
            self.harness.engine_types_recompiled(),
        );
        (self.harness.metrics(), Some(own))
    }
}

struct Live(AllocationService);

impl Driver for Live {
    fn serve(&mut self, round: &[(Request, QosClass)]) -> Vec<Reply> {
        // All in flight at once (the worker batches them as it finds
        // them), all answered before the next operation.
        let tickets: Vec<_> = round
            .iter()
            .map(|(request, class)| self.0.submit(request.clone(), *class))
            .collect();
        tickets
            .into_iter()
            .map(|ticket| ticket.wait().expect("live service answers"))
            .collect()
    }

    fn mutate(&mut self, mutation: &CaseMutation) {
        self.0
            .apply_mutation(mutation)
            .expect("generated mutation is valid");
    }

    fn finish(self) -> (MetricsSnapshot, Option<(u64, u64)>) {
        (self.0.shutdown(), None)
    }
}

/// The normative cache rule and nothing else: which fingerprints are
/// resident, and which of those predate a mutation of their type.
#[derive(Default)]
struct Model {
    /// Fresh entries, with the mutation count at their insert.
    fresh: HashMap<u64, u64>,
    stale: HashSet<u64>,
    stale_drops: u64,
    hits: u64,
    /// Hits on entries that outlived a mutation (of another type, or
    /// they would be stale).
    hits_across_mutations: u64,
    mutations: u64,
}

impl Model {
    /// Predicts the `cached` flag of the next reply for `fingerprint`.
    fn serve(&mut self, fingerprint: u64) -> bool {
        if let Some(&inserted_at) = self.fresh.get(&fingerprint) {
            self.hits += 1;
            if self.mutations > inserted_at {
                self.hits_across_mutations += 1;
            }
            return true;
        }
        if self.stale.remove(&fingerprint) {
            self.stale_drops += 1;
        }
        self.fresh.insert(fingerprint, self.mutations);
        false
    }

    fn mutate(&mut self, type_id: TypeId, type_of: &HashMap<u64, TypeId>) {
        self.mutations += 1;
        let stale = &mut self.stale;
        self.fresh.retain(|fingerprint, _| {
            let hit = type_of[fingerprint] == type_id;
            if hit {
                stale.insert(*fingerprint);
            }
            !hit
        });
    }
}

fn lockstep(seed: u64, base: &CaseBase, mut driver: impl Driver, label: &str) {
    let label = format!("{label} seed {seed}");
    let mut seen = HashSet::new();
    let pool: Vec<Request> = RequestGen::new(base)
        .seed(seed.wrapping_mul(0x9E37) + 5)
        .count(160)
        .repeat_fraction(0.0)
        .generate()
        .into_iter()
        .filter(|r| seen.insert(r.fingerprint()))
        .collect();
    assert!(
        pool.len() > 60,
        "{label}: workload collapsed to {}",
        pool.len()
    );
    let type_of: HashMap<u64, TypeId> = pool
        .iter()
        .map(|r| (r.fingerprint(), r.type_id()))
        .collect();

    let engine = FixedEngine::new();
    let mut learner = MutationGen::new(base, seed ^ 0x1EA2);
    let mut model = Model::default();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7C0D);
    let mut served = 0u64;
    for step in 0..STEPS {
        if rng.gen_range(0..100u32) < 15 {
            let mutation = learner.next_mutation();
            driver.mutate(&mutation);
            model.mutate(mutation.type_id(), &type_of);
            continue;
        }
        // A round of distinct requests (no within-batch followers: the
        // live worker's batch cut is its own business), mixed classes.
        let mut picked = HashSet::new();
        let round: Vec<(Request, QosClass)> = (0..rng.gen_range(1..=12usize))
            .map(|_| rng.gen_range(0..pool.len()))
            .filter(|&index| picked.insert(index))
            .map(|index| (pool[index].clone(), QosClass::ALL[index % 4]))
            .collect();
        let oracle = learner.case_base();
        for ((request, class), reply) in round.iter().zip(driver.serve(&round)) {
            let expected = engine.retrieve(oracle, request).expect("oracle answers");
            let want_cached = model.serve(request.fingerprint());
            assert_eq!(reply.class, *class);
            assert_eq!(
                reply.outcome,
                Outcome::Allocated {
                    best: expected.best.expect("non-empty type"),
                    evaluated: expected.evaluated,
                    cached: want_cached,
                },
                "{label} step {step}: {request}"
            );
            served += 1;
        }
    }

    // The stream exercised what it claims to prove.
    assert!(
        model.mutations > 20,
        "{label}: {} mutations",
        model.mutations
    );
    assert!(
        model.stale_drops > 20,
        "{label}: staleness barely exercised"
    );
    assert!(
        model.hits_across_mutations > 500,
        "{label}: survival barely exercised"
    );

    let (snapshot, own) = driver.finish();
    let (mut hits, mut stale, mut completed) = (0, 0, 0);
    for class in QosClass::ALL {
        let c = snapshot.class(class);
        assert_eq!(
            c.cache_hits + c.cache_misses,
            c.completed + c.failed,
            "{label} {class}: every dispatched request probes once"
        );
        assert_eq!(c.failed, 0, "{label} {class}");
        hits += c.cache_hits;
        stale += c.cache_stale;
        completed += c.completed;
    }
    assert_eq!(completed, served, "{label}");
    assert_eq!(hits, model.hits, "{label}: hits");
    assert_eq!(
        stale, model.stale_drops,
        "{label}: each stale entry drops once"
    );
    if let Some((cache_stale, types_recompiled)) = own {
        assert_eq!(cache_stale, model.stale_drops, "{label}: cache's own count");
        assert!(
            types_recompiled <= model.mutations + u64::from(TYPES),
            "{label}: {types_recompiled} type planes for {} mutations",
            model.mutations
        );
    }
}

#[test]
fn a_mutation_costs_one_types_cached_results_and_never_an_answer() {
    for seed in 0..SEEDS {
        let base = CaseGen::new(TYPES, 6, 4, 8)
            .seed(seed)
            .value_span(200)
            .build();
        let config = ServiceConfig::default().with_cache_capacity(4096);
        let harness = Harness {
            harness: testkit::BatchHarness::new(&base, &config),
            next_id: 0,
        };
        lockstep(seed, &base, harness, "harness");
        // Two shards: the slices `partition` cuts carry stamps of their
        // own, and several types still share each shard's cache.
        let live = AllocationService::new(&base, &config.with_shards(2)).expect("valid config");
        lockstep(seed, &base, Live(live), "live");
    }
}
