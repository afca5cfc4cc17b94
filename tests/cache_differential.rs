//! The cache proof: model-based differential testing of `rqfa-cache`.
//!
//! A brute-force **reference model** re-implements the normative cache
//! semantics (`docs/caching.md`) with none of the production data
//! structures: entries live in a flat `Vec`, victims are found by linear
//! scans, insertion age is an explicit field. Seeded random operation
//! traces — lookup / insert / mutate-generation — drive the real
//! [`GenCache`] and the model in lockstep and demand bit-identical
//! observable behaviour (returned values, resident count, and the full
//! statistics block) after *every* operation, at capacities 0 (storage
//! disabled, lookups still count), 1 and 16 over 64 keys, and 256 over
//! 1024 keys. Halfway through each trace the real cache is cloned, and
//! the clone replays the rest in lockstep with the original. In a debug
//! build the store additionally re-checks its own structure (slab, list,
//! index) after every change.
//!
//! On top of the generic differential core:
//!
//! * **The service facade** — `RetrievalCache` replays the same traces,
//!   with and without generation moves, in lockstep with the same model:
//!   every hit serves the `(best, evaluated)` pair the model holds, every
//!   miss says whether it dropped a stale entry, and `cache_stats()`
//!   equals the model's counters after every operation.
//! * **Answer invariance** — caching never changes *what* the service
//!   answers, only how often it answers from cache.

use rqfa::cache::{CacheStats, GenCache};
use rqfa::core::{
    ExecutionTarget, FixedEngine, Generation, ImplId, OpCounts, QosClass, Retrieval, Scored,
};
use rqfa::fixed::Q15;
use rqfa::service::cache::{CacheLookup, RetrievalCache};
use rqfa::service::{AllocationService, Outcome, ServiceConfig};
use rqfa::workloads::rng::SmallRng;
use rqfa::workloads::{CaseGen, RequestGen};

const SEEDS: u64 = 10;
const OPS_PER_TRACE: usize = 10_000;
const CAPACITY: usize = 16;
const KEY_UNIVERSE: u64 = 64;

// ---------------------------------------------------------------------------
// The reference model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ModelEntry {
    key: u64,
    stamp: u64,
    value: u64,
    /// Insertion age, assigned from one monotone counter; overwrites
    /// keep it, so the minimum is always the oldest insertion.
    age: u64,
}

/// Brute-force executable specification of the cache semantics.
struct ModelCache {
    capacity: usize,
    seq: u64,
    entries: Vec<ModelEntry>,
    stats: CacheStats,
}

impl ModelCache {
    fn new(capacity: usize) -> ModelCache {
        ModelCache {
            capacity,
            seq: 0,
            entries: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    fn position(&self, key: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.key == key)
    }

    fn lookup(&mut self, key: u64, stamp: u64) -> Option<u64> {
        self.stats.lookups += 1;
        match self.position(key) {
            Some(index) if self.entries[index].stamp == stamp => {
                self.stats.hits += 1;
                Some(self.entries[index].value)
            }
            Some(index) => {
                // Stale: dropped at detection, so the refresh re-ages.
                self.stats.misses += 1;
                self.stats.stale += 1;
                self.entries.remove(index);
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: u64, stamp: u64, value: u64) {
        if self.capacity == 0 {
            return;
        }
        self.stats.insertions += 1;
        if let Some(index) = self.position(key) {
            // Overwrite in place: the insertion age stays.
            self.entries[index].stamp = stamp;
            self.entries[index].value = value;
            return;
        }
        while self.entries.len() >= self.capacity {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.age)
                .map(|(i, _)| i)
                .expect("capacity > 0, so a full cache has entries");
            self.entries.remove(oldest);
            self.stats.evictions += 1;
        }
        self.seq += 1;
        self.entries.push(ModelEntry {
            key,
            stamp,
            value,
            age: self.seq,
        });
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

// ---------------------------------------------------------------------------
// The seeded traces
// ---------------------------------------------------------------------------

/// One operation of a trace.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A lookup at the current generation — the only stamp a real caller
    /// ever has in hand.
    Lookup,
    /// An insert with a distinguishable payload, so a divergence in
    /// *which* entry survives shows up as a value mismatch.
    Insert(u64),
    /// Case-base mutation: every resident entry goes stale at once.
    Mutate,
}

/// `(key, op)` pairs of one seeded trace. Without `mutations` the draws
/// that would move the generation are lookups instead, so both shapes
/// share every key and every insert payload.
fn trace(universe: u64, seed: u64, mutations: bool) -> impl Iterator<Item = (u64, Op)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1FF_CACE);
    let mut next_value: u64 = 0;
    (0..OPS_PER_TRACE).map(move |_| {
        let key = rng.gen_range(0..universe);
        let op = match rng.gen_range(0..100u32) {
            0..=49 => Op::Lookup,
            50..=94 => {
                next_value += 1;
                Op::Insert(next_value)
            }
            _ if mutations => Op::Mutate,
            _ => Op::Lookup,
        };
        (key, op)
    })
}

/// The operations the generic core runs on the real store.
fn on_store(cache: &mut GenCache<u64, u64>, key: u64, op: Op, generation: u64) -> Option<u64> {
    match op {
        Op::Lookup => cache.lookup(key, generation).copied(),
        Op::Insert(value) => {
            cache.insert(key, generation, value);
            None
        }
        Op::Mutate => unreachable!("the driver moves the generation"),
    }
}

/// Asserts the counters and their invariants after one operation.
fn check_stats(label: &str, step: usize, got: CacheStats, want: CacheStats) {
    assert_eq!(got, want, "{label} step {step}: counters");
    assert_eq!(got.hits + got.misses, got.lookups, "{label}: hits+misses==lookups");
    assert!(got.stale <= got.misses, "{label}: stale⊆misses");
}

// ---------------------------------------------------------------------------
// The differential core
// ---------------------------------------------------------------------------

/// One seeded trace through the real cache and the model, asserting
/// identical observable behaviour after every operation. Halfway through,
/// the real cache is cloned, and the clone has to replay the rest of the
/// trace exactly as the original does.
fn drive_trace(capacity: usize, universe: u64, seed: u64) -> CacheStats {
    let label = format!("capacity={capacity} universe={universe} seed={seed}");
    let mut real: GenCache<u64, u64> = GenCache::new(capacity);
    let mut clone: Option<GenCache<u64, u64>> = None;
    let mut model = ModelCache::new(capacity);
    let mut generation: u64 = 0;
    for (step, (key, op)) in trace(universe, seed, true).enumerate() {
        if step == OPS_PER_TRACE / 2 {
            clone = Some(real.clone());
        }
        let want = match op {
            Op::Mutate => {
                generation += 1;
                continue;
            }
            Op::Lookup => model.lookup(key, generation),
            Op::Insert(value) => {
                model.insert(key, generation, value);
                None
            }
        };
        let got = on_store(&mut real, key, op, generation);
        assert_eq!(got, want, "{label} step {step}: {op:?} on key {key}");
        if let Some(clone) = &mut clone {
            let cloned = on_store(clone, key, op, generation);
            assert_eq!(cloned, got, "{label} step {step}: the clone answers {op:?} differently");
            assert_eq!(
                (clone.len(), clone.stats()),
                (real.len(), real.stats()),
                "{label} step {step}: the clone drifted"
            );
        }
        assert_eq!(real.len(), model.len(), "{label} step {step}: len");
        check_stats(&label, step, real.stats(), model.stats);
    }
    model.stats
}

#[test]
fn the_cache_matches_the_reference_model_on_seeded_traces() {
    // The last shape is what the slab store adds over a map: a list long
    // enough that stale drops leave from its middle, and slots that are
    // freed and recycled out of slab order.
    for (capacity, universe) in [(0, 64), (1, 64), (CAPACITY, KEY_UNIVERSE), (256, 1024)] {
        let mut exercised = CacheStats::default();
        for seed in 0..SEEDS {
            let s = drive_trace(capacity, universe, seed);
            exercised.lookups += s.lookups;
            exercised.hits += s.hits;
            exercised.stale += s.stale;
            exercised.insertions += s.insertions;
            exercised.evictions += s.evictions;
        }
        // The traces must actually stress every mechanism they claim to
        // verify at this capacity.
        assert!(exercised.lookups > 40_000, "capacity {capacity}: lookups not counted");
        if capacity == 0 {
            // Storage disabled: every lookup is a plain miss, nothing is
            // ever stored, and the counters say exactly that.
            assert_eq!(exercised.hits + exercised.insertions + exercised.evictions, 0);
            assert_eq!(exercised.stale, 0);
            continue;
        }
        // In the sparse shape a key is rarely looked up within the ≈ 20
        // operations its generation lasts, so it hits less; it is held to
        // the drops and evictions it is there for instead.
        let sparse = universe > KEY_UNIVERSE;
        let (hits, stale, evictions) = if sparse { (250, 5000, 5000) } else { (500, 50, 500) };
        assert!(exercised.hits > hits, "capacity {capacity}: traces barely hit");
        assert!(exercised.stale > stale, "capacity {capacity}: staleness not exercised");
        assert!(exercised.evictions > evictions, "capacity {capacity}: eviction not exercised");
    }
}

// ---------------------------------------------------------------------------
// The service facade against the same model
// ---------------------------------------------------------------------------

/// The retrieval the model's value `value` stands for: `evaluated` is the
/// value itself, so a served pair names the entry it came from.
fn retrieval(value: u64) -> Retrieval<Q15> {
    let best = (!value.is_multiple_of(5)).then(|| Scored {
        impl_id: ImplId::new(u16::try_from(value % 4096).unwrap() + 1).unwrap(),
        target: ExecutionTarget::Dsp,
        similarity: Q15::ONE,
    });
    Retrieval {
        best,
        evaluated: usize::try_from(value).unwrap(),
        ops: OpCounts::default(),
    }
}

/// One seeded trace through `RetrievalCache` and the model in lockstep.
fn drive_facade(capacity: usize, seed: u64, mutations: bool) -> CacheStats {
    let label = format!("facade capacity={capacity} seed={seed} mutations={mutations}");
    let mut facade = RetrievalCache::new(capacity);
    let mut model = ModelCache::new(capacity);
    let mut generation: u64 = 0;
    for (step, (key, op)) in trace(KEY_UNIVERSE, seed, mutations).enumerate() {
        let stamp = Generation::from_raw(generation);
        match op {
            Op::Mutate => generation += 1,
            Op::Lookup => {
                let stale_before = model.stats.stale;
                let want = match model.lookup(key, generation) {
                    Some(value) => CacheLookup::Hit(retrieval(value)),
                    None => CacheLookup::Miss {
                        stale: model.stats.stale > stale_before,
                    },
                };
                let got = facade.lookup_outcome(key, stamp);
                assert_eq!(got, want, "{label} step {step}: lookup of key {key}");
            }
            Op::Insert(value) => {
                model.insert(key, generation, value);
                facade.insert(key, stamp, &retrieval(value));
            }
        }
        assert_eq!(facade.len(), model.len(), "{label} step {step}: len");
        assert_eq!(facade.is_empty(), model.len() == 0, "{label} step {step}: is_empty");
        check_stats(&label, step, facade.cache_stats(), model.stats);
    }
    model.stats
}

#[test]
fn the_retrieval_cache_matches_the_reference_model_with_and_without_stamp_moves() {
    for capacity in [0, 1, CAPACITY] {
        for mutations in [false, true] {
            let mut exercised = CacheStats::default();
            for seed in 0..SEEDS {
                let s = drive_facade(capacity, seed, mutations);
                exercised.hits += s.hits;
                exercised.stale += s.stale;
                exercised.evictions += s.evictions;
            }
            let shape = format!("capacity {capacity}, mutations {mutations}");
            assert_eq!(exercised.stale > 0, mutations && capacity > 0, "{shape}: staleness");
            if capacity > 0 {
                assert!(exercised.hits > 500, "{shape}: traces barely hit");
                assert!(exercised.evictions > 500, "{shape}: eviction not exercised");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Caching changes hit rates, never answers
// ---------------------------------------------------------------------------

#[test]
fn caching_never_changes_what_the_service_answers() {
    let case_base = CaseGen::new(8, 6, 5, 8).seed(0xCAFE).build();
    let requests = RequestGen::new(&case_base)
        .seed(0xAB)
        .count(400)
        .repeat_fraction(0.5)
        .generate();
    let engine = FixedEngine::new();
    // Storage disabled, a tiny cache (plenty of evictions and
    // re-computes) and one every distinct request fits in.
    for cache_capacity in [0, 8, 1024] {
        let service = AllocationService::new(
            &case_base,
            &ServiceConfig::default()
                .with_shards(2)
                .with_cache_capacity(cache_capacity),
        ).expect("valid service config");
        let tickets: Vec<_> = requests
            .iter()
            .map(|r| service.submit(r.clone(), QosClass::Medium))
            .collect();
        for (request, ticket) in requests.iter().zip(tickets) {
            let reply = ticket.wait().unwrap();
            let direct = engine.retrieve(&case_base, request).unwrap();
            match reply.outcome {
                Outcome::Allocated { best, .. } => {
                    assert_eq!(
                        best,
                        direct.best.unwrap(),
                        "cache capacity {cache_capacity}: answer changed"
                    );
                }
                other => panic!("cache capacity {cache_capacity}: unexpected outcome {other:?}"),
            }
        }
        service.shutdown();
    }
}
