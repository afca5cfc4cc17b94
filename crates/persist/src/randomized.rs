//! Seed-driven randomized coverage of WAL append/replay: properties
//! over seeded loops, with no outside dependency.
//!
//! The generators come from `rqfa-workloads`: its in-crate xoshiro256**
//! PRNG is bit-stable across platforms, so every "random" sequence here
//! is fully reproducible from the printed seed. Three properties:
//!
//! 1. **Round trip** — any mutation sequence replay-decodes to itself.
//! 2. **Prefix durability** — truncating the log at *any* byte yields
//!    exactly the longest whole-record prefix, never an error or a
//!    panic.
//! 3. **End-to-end recovery** — a `DurableCaseBase` under a random
//!    mutation workload with random crash points recovers to a state
//!    whose retrievals are bit-identical to an oracle that applied the
//!    same acknowledged prefix in memory.
//! 4. **Hostile bytes** — `parse_frame` and `Wal::replay` over arbitrary
//!    bytes, over valid frames followed by zero, garbage and mixed
//!    tails, over bit flips and lying length words: never a panic, a
//!    clean length within the input, and nothing decoded that the bytes
//!    present do not pay for.
//! 5. **Byte-range compaction** — recovery's rewritten log is the one
//!    the old re-encoding compaction wrote (every clean frame re-encodes
//!    to its own bytes), over snapshotted prefixes, torn tails, reserves.

use rqfa_core::{
    AttrBinding, AttrId, CaseBase, CaseMutation, ExecutionTarget, FixedEngine, Generation, ImplId,
    ImplVariant, Request,
};
use rqfa_workloads::rng::SmallRng;
use rqfa_workloads::{CaseGen, RequestGen};

use crate::durable::{DurableCaseBase, PersistPolicy, RecoveryReport, StoreSet};
use crate::error::PersistError;
use crate::record::{encode_frame, parse_frame, FrameParse, StampedMutation};
use crate::snapshot::write_snapshot;
use crate::store::{FailingStore, MemStore, Store};
use crate::wal::Wal;

const SEEDS: u64 = 24;

/// The CaseGen shape used throughout: 6 types × 5 variants, 6 of 8 attrs
/// bound per variant.
fn seeded_case_base(seed: u64) -> CaseBase {
    CaseGen::new(6, 5, 6, 8).seed(seed).build()
}

/// Draws a random valid-*looking* mutation (it may still be rejected by
/// the case base — e.g. a duplicate retain id — which is part of the
/// point: rejected mutations must never reach the log).
fn random_mutation(rng: &mut SmallRng, cb: &CaseBase) -> CaseMutation {
    let types = cb.function_types();
    let ty = &types[rng.gen_range(0..types.len())];
    let type_id = ty.id();
    match rng.gen_range(0..3u32) {
        0 => {
            // Retain a fresh (usually) id with 1-3 random in-bounds attrs.
            let impl_id = ImplId::new(rng.gen_range(1..2000u16)).unwrap();
            let mut attrs = Vec::new();
            for raw in 1..=8u16 {
                if attrs.len() < 3 && rng.gen_bool(0.4) {
                    let attr = AttrId::new(raw).unwrap();
                    let entry = cb.bounds().entry(attr).unwrap();
                    attrs.push(AttrBinding::new(
                        attr,
                        rng.gen_range(entry.lower..=entry.upper),
                    ));
                }
            }
            if attrs.is_empty() {
                let attr = AttrId::new(1).unwrap();
                let entry = cb.bounds().entry(attr).unwrap();
                attrs.push(AttrBinding::new(attr, entry.lower));
            }
            let target = match rng.gen_range(0..4u32) {
                0 => ExecutionTarget::Fpga,
                1 => ExecutionTarget::Dsp,
                2 => ExecutionTarget::GpProcessor,
                _ => ExecutionTarget::Dedicated(rng.gen_range(0..=255u16) as u8),
            };
            CaseMutation::Retain {
                type_id,
                variant: ImplVariant::new(impl_id, target, attrs).unwrap(),
            }
        }
        1 => {
            // Revise an existing variant with a new value for one attr.
            let variants = ty.variants();
            let old = &variants[rng.gen_range(0..variants.len())];
            let mut attrs = old.attrs().to_vec();
            let slot = rng.gen_range(0..attrs.len());
            let entry = cb.bounds().entry(attrs[slot].attr).unwrap();
            attrs[slot] = AttrBinding::new(
                attrs[slot].attr,
                rng.gen_range(entry.lower..=entry.upper),
            );
            CaseMutation::Revise {
                type_id,
                variant: ImplVariant::new(old.id(), old.target(), attrs).unwrap(),
            }
        }
        _ => {
            let variants = ty.variants();
            let victim = variants[rng.gen_range(0..variants.len())].id();
            CaseMutation::Evict {
                type_id,
                impl_id: victim,
            }
        }
    }
}

/// Requests that exercise every type of the case base.
fn probe_requests(cb: &CaseBase, seed: u64) -> Vec<Request> {
    RequestGen::new(cb).seed(seed).count(40).generate()
}

/// Asserts two case bases answer a request stream bit-identically.
fn assert_bit_identical(a: &CaseBase, b: &CaseBase, requests: &[Request], context: &str) {
    let engine = FixedEngine::new();
    for request in requests {
        let ra = engine.retrieve(a, request);
        let rb = engine.retrieve(b, request);
        match (&ra, &rb) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.best, y.best, "{context}: best differs for {request}");
                assert_eq!(x.evaluated, y.evaluated, "{context}: evaluated differs");
            }
            _ => assert_eq!(ra.is_err(), rb.is_err(), "{context}: error parity"),
        }
    }
}

#[test]
fn random_sequences_roundtrip_through_the_wal() {
    for seed in 0..SEEDS {
        let cb0 = seeded_case_base(seed);
        let mut oracle = cb0.clone();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        let mut wal = Wal::new(MemStore::new());
        let mut logged = Vec::new();
        for _ in 0..60 {
            let mutation = random_mutation(&mut rng, &oracle);
            if oracle.apply_mutation(&mutation).is_ok() {
                let stamped = StampedMutation {
                    generation: oracle.generation(),
                    mutation,
                };
                wal.append_batch(std::slice::from_ref(&stamped)).unwrap();
                logged.push(stamped);
            }
        }
        let replay = wal.replay().unwrap();
        assert_eq!(replay.records, logged, "seed {seed}");
        assert_eq!(replay.torn_tail_bytes, 0, "seed {seed}");
    }
}

#[test]
fn any_byte_truncation_yields_the_longest_whole_prefix() {
    for seed in 0..SEEDS {
        let cb0 = seeded_case_base(seed);
        let mut oracle = cb0.clone();
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37));
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let mut bytes: Vec<u8> = Vec::new();
        for _ in 0..20 {
            let mutation = random_mutation(&mut rng, &oracle);
            if oracle.apply_mutation(&mutation).is_ok() {
                let frame = encode_frame(&StampedMutation {
                    generation: oracle.generation(),
                    mutation,
                });
                bytes.extend_from_slice(&frame);
                frames.push(frame);
            }
        }
        // Boundaries of whole-record prefixes.
        let mut boundaries = vec![0usize];
        for f in &frames {
            boundaries.push(boundaries.last().unwrap() + f.len());
        }
        // Random byte cuts plus every boundary cut.
        let mut cuts: Vec<usize> = boundaries.clone();
        for _ in 0..64 {
            cuts.push(rng.gen_range(0..=bytes.len()));
        }
        for cut in cuts {
            let wal = Wal::new(MemStore::from_bytes(bytes[..cut].to_vec()));
            let replay = wal.replay().unwrap();
            let expect = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(
                replay.records.len(),
                expect,
                "seed {seed}, cut {cut}: wrong durable prefix"
            );
            assert_eq!(
                replay.torn_tail_bytes > 0,
                !boundaries.contains(&cut),
                "seed {seed}, cut {cut}: torn-tail flag"
            );
        }
    }
}

#[test]
fn random_crash_points_recover_the_acknowledged_prefix() {
    for seed in 0..SEEDS {
        let cb0 = seeded_case_base(seed);
        let requests = probe_requests(&cb0, seed ^ 0xCAFE);
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(31) ^ 0xC4A5);

        // Run a durable instance over a crash-injected WAL store.
        let wal_budget = rng.gen_range(1..4000u64);
        let stores = StoreSet {
            wal: FailingStore::new(MemStore::new(), wal_budget),
            snap_a: FailingStore::new(MemStore::new(), u64::MAX),
            snap_b: FailingStore::new(MemStore::new(), u64::MAX),
        };
        let mut durable =
            DurableCaseBase::create(&cb0, stores, PersistPolicy::manual()).unwrap();
        let mut oracle = cb0.clone();
        let mut acknowledged = 0usize;
        for _ in 0..50 {
            let mutation = random_mutation(&mut rng, durable.case_base());
            match durable.apply(&mutation) {
                Ok(_) => {
                    oracle.apply_mutation(&mutation).expect("oracle agrees");
                    acknowledged += 1;
                }
                Err(crate::PersistError::Core(_)) => {} // invalid draw
                Err(_) => break,                        // the injected crash
            }
        }
        let surviving = durable.into_stores().map(FailingStore::into_inner);
        let (recovered, report) =
            DurableCaseBase::recover(surviving, PersistPolicy::manual()).unwrap();
        assert_eq!(
            report.replayed, acknowledged,
            "seed {seed}: every acknowledged mutation must recover"
        );
        assert_bit_identical(
            recovered.case_base(),
            &oracle,
            &requests,
            &format!("seed {seed}"),
        );
    }
}

/// The compaction recovery did before it kept byte ranges — re-encode
/// the clean records stamped after the snapshot, unless the log has no
/// torn tail and nothing to skip — and the report it owes.
fn reencoding_oracle(log: &[u8], snapshot: Generation) -> (Vec<u8>, RecoveryReport) {
    let (mut kept, mut replayed, mut skipped_older, mut offset) = (Vec::new(), 0, 0, 0);
    while let FrameParse::Complete { record, consumed } = parse_frame(&log[offset..]) {
        offset += consumed;
        if record.generation <= snapshot {
            skipped_older += 1;
        } else {
            kept.extend_from_slice(&encode_frame(&record));
            replayed += 1;
        }
    }
    let torn_tail_bytes = log[offset..].iter().rposition(|&b| b != 0).map_or(0, |at| at + 1);
    let rewritten = if torn_tail_bytes > 0 || skipped_older > 0 { kept } else { log.to_vec() };
    let (snapshot_generation, corrupt_slots) = (snapshot, 0);
    let report =
        RecoveryReport { snapshot_generation, replayed, skipped_older, torn_tail_bytes, corrupt_slots };
    (rewritten, report)
}

/// Recovers from `log` over a snapshot of `state` in slot A.
fn recover_over(log: Vec<u8>, state: &CaseBase) -> Result<(DurableCaseBase<MemStore>, RecoveryReport), PersistError> {
    let mut snap_a = MemStore::new();
    write_snapshot(&mut snap_a, state).unwrap();
    let stores = StoreSet { wal: MemStore::from_bytes(log), snap_a, snap_b: MemStore::new() };
    DurableCaseBase::recover(stores, PersistPolicy::manual())
}

#[test]
fn byte_range_compaction_equals_the_reencoding_oracle() {
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0xC0DA) ^ 0x0DE);
        // states[g] is the case base at generation g, frames[g - 1] the
        // record that made it.
        let (mut states, mut frames) = (vec![seeded_case_base(seed)], Vec::new());
        while frames.len() < 40 {
            let mut next = states.last().unwrap().clone();
            let mutation = random_mutation(&mut rng, &next);
            if next.apply_mutation(&mutation).is_ok() {
                let generation = next.generation();
                frames.push(encode_frame(&StampedMutation { generation, mutation }));
                states.push(next);
            }
        }
        for round in 0..12 {
            let context = format!("seed {seed}, round {round}");
            let acked = rng.gen_range(0..=24usize);
            let snap_at = rng.gen_range(0..=acked);
            let clean = MemStore::from_bytes(frames[..acked].concat());
            // Behind the acknowledged frames: nothing, or a window torn by
            // byte prefix or by sector subset; then a zero reserve.
            let mut log = if round % 3 == 0 {
                clean.into_bytes()
            } else {
                let window = frames[acked..acked + rng.gen_range(1..=16usize)].concat();
                let mut torn = match round % 3 {
                    1 => FailingStore::new(clean, rng.gen_range(0..window.len() as u64)),
                    _ => FailingStore::tearing_sectors(clean, 0, rng.next_u64()),
                };
                assert!(torn.append(&window).is_err(), "{context}: the window tears");
                torn.into_inner().into_bytes()
            };
            log.resize(log.len() + rng.gen_range(0..1024usize), 0);
            let oracle = reencoding_oracle(&log, Generation::from_raw(snap_at as u64));
            let (recovered, report) = recover_over(log, &states[snap_at]).unwrap();
            let rewritten = recovered.into_stores().wal.into_bytes();
            assert_eq!((rewritten, report), oracle, "{context}");
        }
        // A stale stamp behind a replayed record is corruption: the
        // re-encoding compaction dropped it silently, recovery refuses.
        let stale = recover_over([frames[..4].concat(), frames[0].clone()].concat(), &states[2]);
        assert!(
            matches!(stale, Err(PersistError::GenerationGap { expected, found })
                if expected.raw() == 5 && found.raw() == 1),
            "seed {seed}"
        );
    }
}

/// Replays `bytes` and checks what must hold of *any* input. Returns
/// the clean length.
fn replay_hostile(bytes: &[u8], context: &str) -> usize {
    let replay = Wal::new(MemStore::from_bytes(bytes.to_vec())).replay().unwrap();
    assert_eq!(replay.total_bytes, bytes.len(), "{context}");
    assert!(replay.clean_len <= bytes.len(), "{context}: clean length past the input");
    assert!(
        replay.clean_len + replay.torn_tail_bytes <= bytes.len(),
        "{context}: torn tail past the input"
    );
    assert_eq!(
        replay.torn_tail_bytes > 0,
        bytes[replay.clean_len..].iter().any(|&b| b != 0),
        "{context}: only zeros are a clean remainder"
    );
    // Every record was paid for by its own bytes: re-encoded, the clean
    // records are exactly as long as the clean prefix, so no length word
    // made the decoder allocate beyond what is present.
    let reencoded: usize = replay
        .records
        .iter()
        .map(|record| encode_frame(record).len())
        .sum();
    assert_eq!(reencoded, replay.clean_len, "{context}: records vs clean bytes");
    replay.clean_len
}

#[test]
fn hostile_bytes_never_panic_and_never_outgrow_the_input() {
    for seed in 0..SEEDS {
        let cb0 = seeded_case_base(seed);
        let mut oracle = cb0.clone();
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0xB175) ^ 0xF022);
        let mut frames: Vec<u8> = Vec::new();
        let mut records = 0usize;
        while records < 12 {
            let mutation = random_mutation(&mut rng, &oracle);
            if oracle.apply_mutation(&mutation).is_ok() {
                let stamped = StampedMutation {
                    generation: oracle.generation(),
                    mutation,
                };
                frames.extend_from_slice(&encode_frame(&stamped));
                records += 1;
            }
        }
        let garbage = |rng: &mut SmallRng, len: usize| -> Vec<u8> {
            (0..len).map(|_| rng.gen_range(0..=255u16) as u8).collect()
        };

        // Arbitrary bytes, with and without a plausible magic in front.
        for round in 0..32 {
            let len = rng.gen_range(0..200usize);
            let mut bytes = garbage(&mut rng, len);
            if round % 2 == 0 && bytes.len() >= 2 {
                bytes[..2].copy_from_slice(&crate::RECORD_MAGIC.to_le_bytes());
            }
            let _ = parse_frame(&bytes);
            replay_hostile(&bytes, &format!("seed {seed}, garbage round {round}"));
        }

        // Valid frames followed by a zero, a garbage and a mixed tail:
        // the frames all replay, whatever follows them.
        let zero_len = rng.gen_range(0..600usize);
        let junk_len = rng.gen_range(1..60usize);
        let junk = garbage(&mut rng, junk_len);
        let tails: [Vec<u8>; 4] = [
            vec![0; zero_len],
            junk.clone(),
            [vec![0; zero_len], junk.clone()].concat(),
            [junk, vec![0; zero_len]].concat(),
        ];
        for (shape, tail) in tails.iter().enumerate() {
            let bytes = [frames.as_slice(), tail.as_slice()].concat();
            let clean = replay_hostile(&bytes, &format!("seed {seed}, tail shape {shape}"));
            // A junk tail may, once in 2^32, parse on; it never parses short.
            assert!(clean >= frames.len(), "seed {seed}, tail shape {shape}: lost a clean frame");
            if shape == 0 {
                assert_eq!(clean, frames.len(), "seed {seed}: zeros parsed as a frame");
            }
        }

        // Bit flips anywhere: the scan stops at or before the damage or
        // steps over a frame the CRC still vouches for — never beyond
        // the input.
        for _ in 0..64 {
            let mut bytes = frames.clone();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8u32);
            let clean = replay_hostile(&bytes, &format!("seed {seed}, flip at {at}"));
            assert!(clean <= at, "seed {seed}: a flipped frame at {at} replayed");
        }

        // Lying length words: every frame's payload-length field set to
        // values that point far past the input. The parser must refuse
        // before it reads — or allocates — what is not there.
        let mut offset = 0;
        while offset < frames.len() {
            let FrameParse::Complete { consumed, .. } = parse_frame(&frames[offset..]) else {
                panic!("seed {seed}: clean frame at {offset} did not parse");
            };
            for lie in [0u16, 1, 0x7FFF, 0xFFFE, 0xFFFF, rng.gen_range(0..=0xFFFFu16)] {
                let mut bytes = frames.clone();
                bytes[offset + 12..offset + 14].copy_from_slice(&lie.to_le_bytes());
                if bytes == frames {
                    continue;
                }
                assert_eq!(parse_frame(&bytes[offset..]), FrameParse::Torn);
                let clean = replay_hostile(&bytes, &format!("seed {seed}, lie {lie:#x} at {offset}"));
                assert_eq!(clean, offset, "seed {seed}: scan stops at the lying frame");
            }
            offset += consumed;
        }
    }
}
