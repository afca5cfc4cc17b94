//! The cache proof: model-based differential testing of `rqfa-cache`.
//!
//! A brute-force **reference model** re-implements the normative cache
//! semantics (`docs/caching.md`) with none of the production data
//! structures: entries live in a flat `Vec`, victims are found by linear
//! scans, insertion age is an explicit field. Seeded random operation
//! traces — lookup / coverage-gated lookup / insert / mutate-generation /
//! remove — drive the real
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
//! * **FIFO facade compatibility** — the service's `RetrievalCache` in
//!   its default configuration replays mutation-free traces bit-
//!   identically to a verbatim copy of the pre-refactor FIFO cache
//!   (`LegacyFifoCache` below). With generation mutations the two differ
//!   *by design* in exactly one way: the legacy cache let a refreshed
//!   stale entry keep its original insertion age (so a just-recomputed
//!   result could be the next eviction victim); the unified store drops
//!   stale entries at detection and re-ages the refresh. A dedicated
//!   regression pins that divergence.
//! * **n-best subsumption** — a cached top-k ranking answers best-of and
//!   top-j (j ≤ k) lookups bit-identically to an engine recompute, and
//!   a mutation of the entry's function type invalidates every view of it
//!   atomically — while the entries of every other type keep answering.
//! * **Answer invariance** — caching never changes *what* the service
//!   answers, only how often it answers from cache.

use std::collections::{HashMap, VecDeque};

use rqfa::cache::GenCache;
use rqfa::core::{
    CaseMutation, FixedEngine, Generation, ImplId, OpCounts, QosClass, Retrieval, Scored,
};
use rqfa::fixed::Q15;
use rqfa::service::cache::RetrievalCache;
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

/// Observable counters, mirroring `rqfa_cache::CacheStats` field by field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ModelStats {
    lookups: u64,
    hits: u64,
    misses: u64,
    stale: u64,
    uncovered: u64,
    insertions: u64,
    evictions: u64,
}

/// Brute-force executable specification of the cache semantics.
struct ModelCache {
    capacity: usize,
    seq: u64,
    entries: Vec<ModelEntry>,
    stats: ModelStats,
}

impl ModelCache {
    fn new(capacity: usize) -> ModelCache {
        ModelCache {
            capacity,
            seq: 0,
            entries: Vec::new(),
            stats: ModelStats::default(),
        }
    }

    fn position(&self, key: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.key == key)
    }

    fn lookup(&mut self, key: u64, stamp: u64) -> Option<u64> {
        self.lookup_if(key, stamp, |_| true)
    }

    fn lookup_if(&mut self, key: u64, stamp: u64, covers: impl FnOnce(u64) -> bool) -> Option<u64> {
        self.stats.lookups += 1;
        match self.position(key) {
            Some(index) if self.entries[index].stamp == stamp => {
                if covers(self.entries[index].value) {
                    self.stats.hits += 1;
                    Some(self.entries[index].value)
                } else {
                    // Uncovered: a miss that leaves the entry resident.
                    self.stats.misses += 1;
                    self.stats.uncovered += 1;
                    None
                }
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

    fn remove(&mut self, key: u64) -> Option<u64> {
        let index = self.position(key)?;
        Some(self.entries.remove(index).value)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

// ---------------------------------------------------------------------------
// The differential core
// ---------------------------------------------------------------------------

/// One operation of a trace.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A lookup at the current generation — the only stamp a real caller
    /// ever has in hand.
    Lookup,
    /// A coverage-gated lookup (the n-best subsumption shape): a fresh
    /// entry failing the predicate is an *uncovered* miss that stays
    /// resident.
    LookupIfOdd,
    /// An insert with a distinguishable payload, so a divergence in
    /// *which* entry survives shows up as a value mismatch.
    Insert(u64),
    /// Targeted invalidation.
    Remove,
}

fn odd(value: u64) -> bool {
    !value.is_multiple_of(2)
}

impl Op {
    fn on_real(self, cache: &mut GenCache<u64, u64>, key: u64, generation: u64) -> Option<u64> {
        match self {
            Op::Lookup => cache.lookup(key, generation).copied(),
            Op::LookupIfOdd => cache.lookup_if(key, generation, |&v| odd(v)).copied(),
            Op::Insert(value) => {
                cache.insert(key, generation, value);
                None
            }
            Op::Remove => cache.remove(key),
        }
    }

    fn on_model(self, cache: &mut ModelCache, key: u64, generation: u64) -> Option<u64> {
        match self {
            Op::Lookup => cache.lookup(key, generation),
            Op::LookupIfOdd => cache.lookup_if(key, generation, odd),
            Op::Insert(value) => {
                cache.insert(key, generation, value);
                None
            }
            Op::Remove => cache.remove(key),
        }
    }
}

/// One seeded trace through the real cache and the model, asserting
/// identical observable behaviour after every operation. Halfway through,
/// the real cache is cloned, and the clone has to replay the rest of the
/// trace exactly as the original does.
fn drive_trace(capacity: usize, universe: u64, seed: u64) -> ModelStats {
    let label = format!("capacity={capacity} universe={universe} seed={seed}");
    let mut real: GenCache<u64, u64> = GenCache::new(capacity);
    let mut clone: Option<GenCache<u64, u64>> = None;
    let mut model = ModelCache::new(capacity);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1FF_CACE);
    let mut generation: u64 = 0;
    let mut next_value: u64 = 0;
    for step in 0..OPS_PER_TRACE {
        if step == OPS_PER_TRACE / 2 {
            clone = Some(real.clone());
        }
        let key = rng.gen_range(0..universe);
        let op = match rng.gen_range(0..100u32) {
            0..=39 => Op::Lookup,
            40..=44 => Op::LookupIfOdd,
            45..=84 => {
                next_value += 1;
                Op::Insert(next_value)
            }
            // Case-base mutation: every resident entry goes stale at once.
            85..=89 => {
                generation += 1;
                continue;
            }
            _ => Op::Remove,
        };
        let want = op.on_model(&mut model, key, generation);
        let got = op.on_real(&mut real, key, generation);
        assert_eq!(got, want, "{label} step {step}: {op:?} on key {key}");
        if let Some(clone) = &mut clone {
            let cloned = op.on_real(clone, key, generation);
            assert_eq!(cloned, got, "{label} step {step}: the clone answers {op:?} differently");
            assert_eq!(
                (clone.len(), clone.stats()),
                (real.len(), real.stats()),
                "{label} step {step}: the clone drifted"
            );
        }
        assert_eq!(real.len(), model.len(), "{label} step {step}: len");
        let s = real.stats();
        let m = model.stats;
        assert_eq!(
            (s.lookups, s.hits, s.misses, s.stale, s.uncovered),
            (m.lookups, m.hits, m.misses, m.stale, m.uncovered),
            "{label} step {step}: lookup counters"
        );
        assert_eq!(
            (s.insertions, s.evictions),
            (m.insertions, m.evictions),
            "{label} step {step}: store counters"
        );
        // The metrics invariants, re-checked continuously.
        assert_eq!(s.hits + s.misses, s.lookups, "{label}: hits+misses==lookups");
        assert!(s.stale + s.uncovered <= s.misses, "{label}: stale⊆misses");
    }
    model.stats
}

#[test]
fn the_cache_matches_the_reference_model_on_seeded_traces() {
    // The last shape is what the slab store adds over a map: a list long
    // enough that stale drops and removals leave from its middle, and
    // slots that are freed and recycled out of slab order.
    for (capacity, universe) in [(0, 64), (1, 64), (CAPACITY, KEY_UNIVERSE), (256, 1024)] {
        let mut exercised = ModelStats::default();
        for seed in 0..SEEDS {
            let s = drive_trace(capacity, universe, seed);
            exercised.lookups += s.lookups;
            exercised.hits += s.hits;
            exercised.stale += s.stale;
            exercised.uncovered += s.uncovered;
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
            assert_eq!(exercised.stale + exercised.uncovered, 0);
            continue;
        }
        // In the sparse shape a key is rarely looked up within the ≈ 20
        // operations its generation lasts, so it hits less; it is held to
        // the drops and evictions it is there for instead.
        let sparse = universe > KEY_UNIVERSE;
        let (hits, uncovered, stale, evictions) =
            if sparse { (250, 10, 5000, 5000) } else { (500, 20, 50, 500) };
        assert!(exercised.hits > hits, "capacity {capacity}: traces barely hit");
        assert!(exercised.stale > stale, "capacity {capacity}: staleness not exercised");
        assert!(exercised.uncovered > uncovered, "capacity {capacity}: coverage not exercised");
        assert!(exercised.evictions > evictions, "capacity {capacity}: eviction not exercised");
    }
}

// ---------------------------------------------------------------------------
// FIFO facade bit-compatibility with the pre-refactor RetrievalCache
// ---------------------------------------------------------------------------

/// Verbatim re-implementation of the pre-refactor
/// `rqfa_service::cache::RetrievalCache` (FIFO order deque, stale entries
/// overwritten in place), kept here as the compatibility oracle.
struct LegacyFifoCache {
    capacity: usize,
    map: HashMap<u64, (Generation, Option<Scored<Q15>>, usize)>,
    order: VecDeque<u64>,
    hits: u64,
    misses: u64,
    stale: u64,
}

impl LegacyFifoCache {
    fn new(capacity: usize) -> LegacyFifoCache {
        LegacyFifoCache {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            stale: 0,
        }
    }

    fn lookup(&mut self, fingerprint: u64, generation: Generation) -> Option<Retrieval<Q15>> {
        match self.map.get(&fingerprint) {
            Some(&(stamp, best, evaluated)) if stamp == generation => {
                self.hits += 1;
                Some(Retrieval {
                    best,
                    evaluated,
                    ops: OpCounts::default(),
                })
            }
            Some(_) => {
                self.stale += 1;
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, fingerprint: u64, generation: Generation, result: &Retrieval<Q15>) {
        if self.capacity == 0 {
            return;
        }
        if !self.map.contains_key(&fingerprint) {
            while self.map.len() >= self.capacity {
                match self.order.pop_front() {
                    Some(old) => {
                        self.map.remove(&old);
                    }
                    None => break,
                }
            }
            self.order.push_back(fingerprint);
        }
        self.map
            .insert(fingerprint, (generation, result.best, result.evaluated));
    }
}

fn retrieval(raw_impl: u16, evaluated: usize) -> Retrieval<Q15> {
    Retrieval {
        best: Some(Scored {
            impl_id: ImplId::new(raw_impl).unwrap(),
            target: rqfa::core::ExecutionTarget::Dsp,
            similarity: Q15::ONE,
        }),
        evaluated,
        ops: OpCounts::default(),
    }
}

#[test]
fn fifo_facade_is_bit_compatible_with_the_legacy_cache_without_mutations() {
    // Without generation bumps the legacy in-place overwrite and the
    // unified drop-and-reinsert are indistinguishable, so every
    // observable — hit pattern, served values, counters, size — must
    // match exactly, trace for trace.
    let generation = Generation::GENESIS;
    for seed in 0..SEEDS {
        let mut facade = RetrievalCache::new(CAPACITY);
        let mut legacy = LegacyFifoCache::new(CAPACITY);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x001E_6AC7);
        for step in 0..OPS_PER_TRACE {
            let fingerprint = rng.gen_range(0..KEY_UNIVERSE);
            if rng.gen_bool(0.5) {
                let got = facade.lookup(fingerprint, generation);
                let want = legacy.lookup(fingerprint, generation);
                match (&got, &want) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.best, b.best, "seed {seed} step {step}");
                        assert_eq!(a.evaluated, b.evaluated, "seed {seed} step {step}");
                    }
                    (None, None) => {}
                    other => panic!("seed {seed} step {step}: diverged: {other:?}"),
                }
            } else {
                // Like the real worker, the recompute for a fingerprint at
                // a fixed generation is a pure function of both — re-inserts
                // carry the identical payload (which is also why the
                // facade's keep-the-wider-entry merge may skip them).
                let result = retrieval(
                    u16::try_from(fingerprint).unwrap() % 4096 + 1,
                    usize::try_from(fingerprint).unwrap() % 7 + 1,
                );
                facade.insert(fingerprint, generation, &result);
                legacy.insert(fingerprint, generation, &result);
            }
            assert_eq!(facade.len(), legacy.map.len(), "seed {seed} step {step}");
            assert_eq!(
                facade.stats(),
                (legacy.hits, legacy.misses, legacy.stale),
                "seed {seed} step {step}"
            );
        }
    }
}

#[test]
fn refresh_re_aging_is_the_one_deliberate_divergence_from_legacy() {
    // The satellite fix: the legacy cache kept a refreshed entry's
    // original FIFO age, so the entry recomputed *last* was evicted
    // *first*. Same operations, opposite survivors.
    let g0 = Generation::GENESIS;
    let g1 = g0.next();

    // The shared script: fill a 2-entry cache, let a mutation land, have
    // fingerprint 1 re-requested (stale miss + refresh), then force one
    // eviction with a third fingerprint.
    let mut facade = RetrievalCache::new(2);
    facade.insert(1, g0, &retrieval(10, 1));
    facade.insert(2, g0, &retrieval(20, 1));
    assert!(facade.lookup(1, g1).is_none());
    facade.insert(1, g1, &retrieval(11, 1));
    facade.insert(3, g1, &retrieval(30, 1));

    let mut legacy = LegacyFifoCache::new(2);
    legacy.insert(1, g0, &retrieval(10, 1));
    legacy.insert(2, g0, &retrieval(20, 1));
    assert!(legacy.lookup(1, g1).is_none());
    legacy.insert(1, g1, &retrieval(11, 1));
    legacy.insert(3, g1, &retrieval(30, 1));
    // Unified semantics: the refreshed 1 is the *newest* entry, so the
    // eviction takes 2 (the oldest untouched resident).
    assert!(facade.lookup(1, g1).is_some(), "refreshed entry must survive");
    assert!(facade.lookup(3, g1).is_some());
    assert!(facade.lookup(2, g1).is_none());
    // Legacy semantics: the refresh kept 1's original insertion age, so
    // 1 was evicted moments after being recomputed while the stale 2
    // stayed resident — the bug this PR fixes (residency checked via the
    // oracle's internals; a lookup of 2 would be masked by staleness).
    assert!(!legacy.map.contains_key(&1), "legacy evicts the refresh");
    assert!(legacy.map.contains_key(&2), "legacy keeps the stale resident");
    assert!(legacy.map.contains_key(&3));
}

// ---------------------------------------------------------------------------
// n-best subsumption vs engine recompute
// ---------------------------------------------------------------------------

#[test]
fn cached_n_best_answers_best_of_and_smaller_n_bit_identically_to_recompute() {
    let mut case_base = CaseGen::new(6, 8, 4, 6).seed(0x5B5).build();
    let engine = FixedEngine::new();
    // Distinct fingerprints only: the coverage bookkeeping below assumes
    // one cached entry per request (a repeat would widen an older entry).
    let mut seen = std::collections::HashSet::new();
    let requests: Vec<_> = RequestGen::new(&case_base)
        .seed(0x17)
        .count(60)
        .repeat_fraction(0.0)
        .generate()
        .into_iter()
        .filter(|r| seen.insert(r.fingerprint()))
        .collect();
    assert!(requests.len() > 40, "workload collapsed to {}", requests.len());
    let mut cache = RetrievalCache::new(1024);
    let mut rng = SmallRng::seed_from_u64(0xBE57);
    let mut cached = Vec::new();
    for (index, request) in requests.iter().enumerate() {
        let fingerprint = request.fingerprint();
        // Entries live at their *type's* stamp, as the shard worker
        // stores them.
        let generation = case_base.type_stamp(request.type_id()).unwrap();
        let k = rng.gen_range(1..=6usize);
        let nbest = engine.retrieve_n_best(&case_base, request, k).unwrap();
        cache.insert_n_best(fingerprint, generation, k, &nbest);
        cached.push((request, k));

        // Best-of: bit-identical to the single-result engine (the rank
        // tie-break guarantees rank(…, 1)[0] == retrieve().best).
        let direct = engine.retrieve(&case_base, request).unwrap();
        let served = cache
            .lookup(fingerprint, generation)
            .expect("covered best-of must hit");
        assert_eq!(served.best, direct.best, "request {index}");
        assert_eq!(served.evaluated, direct.evaluated, "request {index}");

        // Every j ≤ k: the exact prefix the engine would recompute.
        for j in 0..=k {
            let direct_j = engine.retrieve_n_best(&case_base, request, j).unwrap();
            let served_j = cache
                .lookup_n_best(fingerprint, generation, j)
                .expect("j ≤ k is covered");
            assert_eq!(served_j.ranked, direct_j.ranked, "request {index} j={j}");
            assert_eq!(served_j.evaluated, direct_j.evaluated, "request {index} j={j}");
        }

        // j > k: answered only when the cached ranking is complete
        // (k ≥ evaluated) — and then still bit-identically.
        let beyond = k + 1;
        match cache.lookup_n_best(fingerprint, generation, beyond) {
            Some(served_beyond) => {
                assert!(k >= direct.evaluated, "request {index}: incomplete entry over-served");
                let direct_beyond = engine
                    .retrieve_n_best(&case_base, request, beyond)
                    .unwrap();
                assert_eq!(served_beyond.ranked, direct_beyond.ranked);
            }
            None => assert!(k < direct.evaluated, "request {index}: complete entry under-served"),
        }
    }

    // One mutation invalidates *every view* of every entry of its type
    // atomically — one stale drop per entry, whichever view asks first —
    // and leaves every other type's entries answering as before.
    let victim_type = case_base.function_types()[0].id();
    let victim_impl = case_base.function_types()[0].variants()[0].id();
    let stale_before = cache.cache_stats().stale;
    case_base
        .apply_mutation(&CaseMutation::Evict {
            type_id: victim_type,
            impl_id: victim_impl,
        })
        .unwrap();
    let mut victims = 0u64;
    for (index, &(request, k)) in cached.iter().enumerate() {
        let fingerprint = request.fingerprint();
        let stamp = case_base.type_stamp(request.type_id()).unwrap();
        if request.type_id() == victim_type {
            victims += 1;
            assert!(cache.lookup_n_best(fingerprint, stamp, 1).is_none());
            assert!(cache.lookup(fingerprint, stamp).is_none());
        } else {
            let direct = engine.retrieve_n_best(&case_base, request, k).unwrap();
            let served = cache
                .lookup_n_best(fingerprint, stamp, k)
                .expect("another type's mutation must not cost this entry");
            assert_eq!(served.ranked, direct.ranked, "request {index}");
            let best = cache.lookup(fingerprint, stamp).expect("best-of view too");
            assert_eq!(Some(&best.best.unwrap()), direct.ranked.first());
        }
    }
    assert!(victims > 0 && victims < cached.len() as u64, "both sides exercised");
    assert_eq!(
        cache.cache_stats().stale - stale_before,
        victims,
        "one stale drop per entry of the mutated type, none elsewhere"
    );

    // And recomputes against the mutated case base re-populate correctly.
    let stamp = case_base.type_stamp(victim_type).unwrap();
    for (index, request) in requests
        .iter()
        .filter(|r| r.type_id() == victim_type)
        .enumerate()
    {
        let fingerprint = request.fingerprint();
        let nbest = engine.retrieve_n_best(&case_base, request, 4).unwrap();
        cache.insert_n_best(fingerprint, stamp, 4, &nbest);
        let direct = engine.retrieve(&case_base, request).unwrap();
        let served = cache.lookup(fingerprint, stamp).unwrap();
        assert_eq!(served.best, direct.best, "post-mutation request {index}");
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
