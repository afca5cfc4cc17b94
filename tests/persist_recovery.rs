//! Experiment E14: crash-recovery correctness of the persistence layer.
//!
//! The contract under test: **a recovered case base answers retrievals
//! bit-identically to an uninterrupted oracle that applied the same
//! acknowledged mutation prefix** — for every injected failure point:
//!
//! * torn WAL tail (crash mid-append), at *every* byte offset;
//! * crash during a snapshot write (atomic media and torn media);
//! * crash between snapshot and WAL compaction;
//! * snapshot + log + torn tail combined;
//! * crash inside a **group-commit flush window** (batched appends), at
//!   *every* byte offset — the acknowledged prefix is exactly the whole
//!   batches, and recovery must never fall behind it;
//! * an **in-place** append torn by *sector*: behind every acknowledged
//!   prefix, every subset of the sectors one unacknowledged frame or
//!   flush window touches, over a log that carries a zero reserve — and
//!   the frame such a tear can leave whole behind a hole, which must be
//!   scrubbed before the next append can splice it back in;
//! * crash while an append **grows the reserve**: any prefix of the
//!   zeros, with and without the frame.
//!
//! All crashes are injected deterministically (byte budgets, sector
//! masks, byte truncation), so the suite is timing-free and CI-stable.

use rqfa::core::{
    AttrBinding, AttrId, CaseBase, CaseMutation, ExecutionTarget, FixedEngine, ImplId, ImplVariant,
    Request,
};
use rqfa::memlist::MemError;
use rqfa::persist::{
    encode_frame, encode_snapshot, parse_frame, write_snapshot, DurableCaseBase, FailingStore,
    FrameParse, MemStore, PersistError, PersistPolicy, RecoveryReport, StampedMutation, StoreSet,
    SECTOR_BYTES,
};
use rqfa::workloads::rng::SmallRng;
use rqfa::workloads::{CaseGen, RequestGen};

/// The workload shape all scenarios share.
fn seed_case_base() -> CaseBase {
    CaseGen::new(5, 4, 4, 6).seed(0xE14).value_span(200).build()
}

/// A deterministic script of `n` mutations, each valid at its position
/// (validated against a scratch copy while generating).
fn mutation_script(cb: &CaseBase, n: usize, seed: u64) -> Vec<CaseMutation> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut scratch = cb.clone();
    let mut script = Vec::with_capacity(n);
    let mut next_fresh_id = 1000u16;
    while script.len() < n {
        let types = scratch.function_types();
        let ty = &types[rng.gen_range(0..types.len())];
        let type_id = ty.id();
        let mutation = match rng.gen_range(0..3u32) {
            0 => {
                let attr = AttrId::new(rng.gen_range(1..=6u16)).unwrap();
                let entry = scratch.bounds().entry(attr).unwrap();
                let value = rng.gen_range(entry.lower..=entry.upper);
                let target = match rng.gen_range(0..3u32) {
                    0 => ExecutionTarget::Fpga,
                    1 => ExecutionTarget::Dsp,
                    _ => ExecutionTarget::Dedicated(rng.gen_range(0..=9u16) as u8),
                };
                next_fresh_id += 1;
                CaseMutation::Retain {
                    type_id,
                    variant: ImplVariant::new(
                        ImplId::new(next_fresh_id).unwrap(),
                        target,
                        vec![AttrBinding::new(attr, value)],
                    )
                    .unwrap(),
                }
            }
            1 => {
                let variants = ty.variants();
                let old = &variants[rng.gen_range(0..variants.len())];
                let mut attrs = old.attrs().to_vec();
                let slot = rng.gen_range(0..attrs.len());
                let entry = scratch.bounds().entry(attrs[slot].attr).unwrap();
                attrs[slot] =
                    AttrBinding::new(attrs[slot].attr, rng.gen_range(entry.lower..=entry.upper));
                CaseMutation::Revise {
                    type_id,
                    variant: ImplVariant::new(old.id(), old.target(), attrs).unwrap(),
                }
            }
            _ => {
                let variants = ty.variants();
                if variants.len() < 2 {
                    continue; // eviction must keep the type non-empty
                }
                CaseMutation::Evict {
                    type_id,
                    impl_id: variants[rng.gen_range(0..variants.len())].id(),
                }
            }
        };
        if scratch.apply_mutation(&mutation).is_ok() {
            script.push(mutation);
        }
    }
    script
}

/// Oracle states after applying each prefix of the script: `oracles[j]`
/// is the case base after the first `j` mutations.
fn oracle_states(cb: &CaseBase, script: &[CaseMutation]) -> Vec<CaseBase> {
    let mut states = Vec::with_capacity(script.len() + 1);
    let mut current = cb.clone();
    states.push(current.clone());
    for mutation in script {
        current.apply_mutation(mutation).expect("script is valid");
        states.push(current.clone());
    }
    states
}

fn probe_requests(cb: &CaseBase) -> Vec<Request> {
    RequestGen::new(cb).seed(0xB17).count(60).generate()
}

/// The headline assertion: identical winners, bit-identical similarity
/// words, identical targets and evaluation counts — over a whole stream.
fn assert_bit_identical(recovered: &CaseBase, oracle: &CaseBase, requests: &[Request], ctx: &str) {
    let engine = FixedEngine::new();
    for request in requests {
        let a = engine.retrieve(recovered, request);
        let b = engine.retrieve(oracle, request);
        match (a, b) {
            (Ok(ra), Ok(rb)) => {
                assert_eq!(ra.best, rb.best, "{ctx}: winner/bits differ for {request}");
                assert_eq!(ra.evaluated, rb.evaluated, "{ctx}: evaluated differs");
            }
            (a, b) => assert_eq!(a.is_err(), b.is_err(), "{ctx}: error parity for {request}"),
        }
    }
    assert_eq!(
        recovered.generation(),
        oracle.generation(),
        "{ctx}: recovered generation must equal the oracle's"
    );
    // However it was rebuilt (snapshot, replay, torn tail): no type stamp
    // runs ahead of the counter that will issue the next one.
    assert!(
        recovered.type_stamps().iter().all(|&s| s <= recovered.generation()),
        "{ctx}: a recovered type stamp exceeds the generation"
    );
}

/// Crash 1: torn WAL tail. Truncate the log at **every byte offset** and
/// require recovery to restore exactly the longest fully-durable prefix.
#[test]
fn torn_wal_tail_recovers_every_prefix() {
    let cb0 = seed_case_base();
    let script = mutation_script(&cb0, 18, 1);
    let oracles = oracle_states(&cb0, &script);
    let requests = probe_requests(&cb0);

    // Run the durable instance to completion, tracking frame boundaries.
    let mut durable =
        DurableCaseBase::create(&cb0, StoreSet::in_memory(), PersistPolicy::manual()).unwrap();
    let mut boundaries = vec![0u64];
    for mutation in &script {
        durable.apply(mutation).unwrap();
        boundaries.push(durable.wal_bytes().unwrap());
    }
    let stores = durable.into_stores();
    let wal_bytes = stores.wal.bytes().to_vec();
    assert_eq!(*boundaries.last().unwrap() as usize, wal_bytes.len());

    for cut in 0..=wal_bytes.len() {
        let crashed = StoreSet {
            wal: MemStore::from_bytes(wal_bytes[..cut].to_vec()),
            snap_a: stores.snap_a.clone(),
            snap_b: stores.snap_b.clone(),
        };
        let (recovered, report) =
            DurableCaseBase::recover(crashed, PersistPolicy::manual()).unwrap();
        // The durable prefix: every whole frame at or before the cut.
        let expect = boundaries.iter().filter(|&&b| b > 0 && b as usize <= cut).count();
        assert_eq!(report.replayed, expect, "cut at byte {cut}");
        assert_eq!(
            report.torn_tail_bytes > 0,
            !boundaries.iter().any(|&b| b as usize == cut),
            "cut at byte {cut}: torn-tail flag"
        );
        assert_bit_identical(
            recovered.case_base(),
            &oracles[expect],
            &requests,
            &format!("torn tail, cut {cut}"),
        );
    }
}

/// Crash 2a: snapshot write crashes on atomic media (file-store
/// semantics: rename never happened). The previous snapshot plus the
/// full WAL must reconstruct everything acknowledged.
#[test]
fn snapshot_crash_on_atomic_media_loses_nothing() {
    let cb0 = seed_case_base();
    let script = mutation_script(&cb0, 12, 2);
    let oracles = oracle_states(&cb0, &script);
    let requests = probe_requests(&cb0);

    // Budget sweep: the checkpoint's snapshot write fails at different
    // points of its byte budget (0 = immediately, up to one byte short
    // of the full snapshot).
    let snapshot_len = rqfa::persist::encode_snapshot(oracles.last().unwrap())
        .unwrap()
        .len() as u64;
    for budget in [0u64, 1, 37, snapshot_len / 2, snapshot_len - 1] {
        let stores = StoreSet {
            wal: FailingStore::new(MemStore::new(), u64::MAX),
            snap_a: FailingStore::new(MemStore::new(), u64::MAX),
            snap_b: FailingStore::new(MemStore::new(), budget),
        };
        let mut durable = DurableCaseBase::create(&cb0, stores, PersistPolicy::manual()).unwrap();
        for mutation in &script {
            durable.apply(mutation).unwrap();
        }
        // Checkpoint targets the stale slot B, whose budget tears it.
        let err = durable.checkpoint().unwrap_err();
        assert!(matches!(err, rqfa::persist::PersistError::Crashed { .. }));

        let surviving = durable.into_stores().map(FailingStore::into_inner);
        assert!(surviving.snap_b.bytes().is_empty(), "atomic replace: all or nothing");
        let (recovered, report) =
            DurableCaseBase::recover(surviving, PersistPolicy::manual()).unwrap();
        assert_eq!(report.replayed, script.len());
        assert_eq!(report.corrupt_slots, 0);
        assert_bit_identical(
            recovered.case_base(),
            oracles.last().unwrap(),
            &requests,
            &format!("snapshot crash, budget {budget}"),
        );
    }
}

/// Crash 2b: the snapshot slot holds *torn bytes* (media without atomic
/// replacement). Every truncation of the new snapshot must be detected
/// and recovery must fall back to the previous slot + full WAL.
#[test]
fn torn_snapshot_slot_falls_back_to_previous() {
    let cb0 = seed_case_base();
    let script = mutation_script(&cb0, 10, 3);
    let oracles = oracle_states(&cb0, &script);
    let requests = probe_requests(&cb0);

    let mut durable =
        DurableCaseBase::create(&cb0, StoreSet::in_memory(), PersistPolicy::manual()).unwrap();
    for mutation in &script {
        durable.apply(mutation).unwrap();
    }
    let full_snapshot = rqfa::persist::encode_snapshot(durable.case_base()).unwrap();
    let stores = durable.into_stores();

    // Sample every 5th byte plus the edges — each must read as corrupt.
    let mut cuts: Vec<usize> = (0..full_snapshot.len()).step_by(5).collect();
    cuts.push(full_snapshot.len() - 1);
    for cut in cuts {
        let crashed = StoreSet {
            wal: stores.wal.clone(),
            snap_a: stores.snap_a.clone(),
            snap_b: MemStore::from_bytes(full_snapshot[..cut].to_vec()),
        };
        let (recovered, report) =
            DurableCaseBase::recover(crashed, PersistPolicy::manual()).unwrap();
        assert_eq!(report.corrupt_slots, usize::from(cut != 0), "cut {cut}");
        assert_eq!(report.replayed, script.len(), "cut {cut}");
        assert_bit_identical(
            recovered.case_base(),
            oracles.last().unwrap(),
            &requests,
            &format!("torn snapshot, cut {cut}"),
        );
    }
}

/// Crash 3: between snapshot and compaction — the snapshot is durable
/// but the WAL still holds every record. Recovery must skip the
/// already-snapshotted records by generation stamp, not reapply them.
#[test]
fn crash_between_snapshot_and_compaction_skips_old_records() {
    let cb0 = seed_case_base();
    let script = mutation_script(&cb0, 14, 4);
    let oracles = oracle_states(&cb0, &script);
    let requests = probe_requests(&cb0);

    for snap_at in [1usize, 7, 14] {
        let mut durable =
            DurableCaseBase::create(&cb0, StoreSet::in_memory(), PersistPolicy::manual()).unwrap();
        for mutation in &script {
            durable.apply(mutation).unwrap();
        }
        // Manually write the snapshot of an intermediate state into the
        // stale slot and *skip compaction* — exactly the on-media state a
        // crash right after the snapshot leaves behind.
        let mut stores = durable.into_stores();
        write_snapshot(&mut stores.snap_b, &oracles[snap_at]).unwrap();

        let (recovered, report) =
            DurableCaseBase::recover(stores, PersistPolicy::manual()).unwrap();
        assert_eq!(report.skipped_older, snap_at, "snap at {snap_at}");
        assert_eq!(report.replayed, script.len() - snap_at, "snap at {snap_at}");
        assert_eq!(report.snapshot_generation.raw(), snap_at as u64);
        assert_bit_identical(
            recovered.case_base(),
            oracles.last().unwrap(),
            &requests,
            &format!("snapshot at {snap_at} without compaction"),
        );
    }
}

/// Crash 4: the full combination — durable snapshot mid-history, no
/// compaction, *and* a torn WAL tail. Swept over every byte of the tail.
#[test]
fn snapshot_plus_torn_log_combination() {
    let cb0 = seed_case_base();
    let script = mutation_script(&cb0, 12, 5);
    let oracles = oracle_states(&cb0, &script);
    let requests = probe_requests(&cb0);
    let snap_at = 5usize;

    let mut durable =
        DurableCaseBase::create(&cb0, StoreSet::in_memory(), PersistPolicy::manual()).unwrap();
    let mut boundaries = vec![0u64];
    for mutation in &script {
        durable.apply(mutation).unwrap();
        boundaries.push(durable.wal_bytes().unwrap());
    }
    let mut stores = durable.into_stores();
    write_snapshot(&mut stores.snap_b, &oracles[snap_at]).unwrap();
    let wal_bytes = stores.wal.bytes().to_vec();

    for cut in 0..=wal_bytes.len() {
        let crashed = StoreSet {
            wal: MemStore::from_bytes(wal_bytes[..cut].to_vec()),
            snap_a: stores.snap_a.clone(),
            snap_b: stores.snap_b.clone(),
        };
        let (recovered, report) =
            DurableCaseBase::recover(crashed, PersistPolicy::manual()).unwrap();
        let durable_records = boundaries.iter().filter(|&&b| b > 0 && b as usize <= cut).count();
        // The snapshot guarantees at least `snap_at` even if the log lost
        // those bytes; beyond it the log extends the state.
        let expect_state = durable_records.max(snap_at);
        assert_eq!(
            report.replayed,
            durable_records.saturating_sub(snap_at),
            "cut {cut}"
        );
        assert_eq!(report.skipped_older, durable_records.min(snap_at), "cut {cut}");
        assert_bit_identical(
            recovered.case_base(),
            &oracles[expect_state],
            &requests,
            &format!("combo, cut {cut}"),
        );
    }
}

/// Crash 5: a torn **group-commit** window. The script lands in batches
/// of `WINDOW` mutations, each batch one `apply_batch` = one WAL write;
/// the cut sweeps every byte of the log. The contract under overload of
/// crash points:
///
/// * recovery restores some whole-frame prefix `m` of the script,
///   bit-identical to the oracle after `m` mutations;
/// * `m` never falls below the **acknowledged** prefix — the mutations of
///   every batch whose write completed before the cut (frames of the
///   torn batch were never acknowledged, so recovering any whole-frame
///   subset of them is correct, not lossy).
#[test]
fn torn_group_commit_window_recovers_the_acknowledged_prefix() {
    let cb0 = seed_case_base();
    const WINDOW: usize = 3;
    let script = mutation_script(&cb0, 4 * WINDOW, 6);
    let oracles = oracle_states(&cb0, &script);
    let requests = probe_requests(&cb0);

    let mut durable =
        DurableCaseBase::create(&cb0, StoreSet::in_memory(), PersistPolicy::manual()).unwrap();
    // Per-frame boundaries (for the expected whole-frame prefix) come
    // from the deterministic frame encoding; per-batch boundaries (the
    // acknowledgement points) from the live log length after each
    // apply_batch.
    let mut frame_boundaries = vec![0u64];
    for (j, mutation) in script.iter().enumerate() {
        let frame = encode_frame(&StampedMutation {
            generation: oracles[j + 1].generation(),
            mutation: mutation.clone(),
        });
        frame_boundaries.push(frame_boundaries[j] + frame.len() as u64);
    }
    let mut ack_boundaries = vec![(0u64, 0usize)]; // (log bytes, mutations acked)
    for (batch_index, window) in script.chunks(WINDOW).enumerate() {
        durable.apply_batch(window).unwrap();
        ack_boundaries.push((
            durable.wal_bytes().unwrap(),
            (batch_index + 1) * WINDOW,
        ));
    }
    let stores = durable.into_stores();
    let wal_bytes = stores.wal.bytes().to_vec();
    assert_eq!(
        *frame_boundaries.last().unwrap() as usize,
        wal_bytes.len(),
        "batched appends are byte-identical to single appends"
    );

    for cut in 0..=wal_bytes.len() {
        let crashed = StoreSet {
            wal: MemStore::from_bytes(wal_bytes[..cut].to_vec()),
            snap_a: stores.snap_a.clone(),
            snap_b: stores.snap_b.clone(),
        };
        let (recovered, report) =
            DurableCaseBase::recover(crashed, PersistPolicy::manual()).unwrap();
        let whole_frames = frame_boundaries
            .iter()
            .filter(|&&b| b > 0 && b as usize <= cut)
            .count();
        let acked = ack_boundaries
            .iter()
            .filter(|&&(b, _)| b as usize <= cut)
            .map(|&(_, n)| n)
            .max()
            .unwrap_or(0);
        assert_eq!(report.replayed, whole_frames, "cut at byte {cut}");
        assert!(
            whole_frames >= acked,
            "cut at byte {cut}: recovery ({whole_frames}) fell behind the \
             acknowledged prefix ({acked})"
        );
        assert_bit_identical(
            recovered.case_base(),
            &oracles[whole_frames],
            &requests,
            &format!("torn flush window, cut {cut}"),
        );
    }
}

/// Zeros behind the frames of a crafted log: more than any write below.
const RESERVE: usize = 4096;

/// The frames the script produces, in order (`frames[j]` carries the
/// stamp of `oracles[j + 1]`).
fn script_frames(script: &[CaseMutation], oracles: &[CaseBase]) -> Vec<Vec<u8>> {
    script
        .iter()
        .zip(&oracles[1..])
        .map(|(mutation, after)| {
            encode_frame(&StampedMutation {
                generation: after.generation(),
                mutation: mutation.clone(),
            })
        })
        .collect()
}

/// Media as a machine finds them after a reboot: the genesis snapshot
/// and a log of exactly these raw bytes, its end unknown.
fn rebooted(cb0: &CaseBase, wal: Vec<u8>) -> StoreSet<MemStore> {
    let mut stores = DurableCaseBase::create(cb0, StoreSet::in_memory(), PersistPolicy::manual())
        .unwrap()
        .into_stores();
    stores.wal = MemStore::from_bytes(wal);
    stores
}

/// Recovers from a log of `acked` frames and a zero reserve, then lets
/// `write` fail on a store that tears its first write by the sector
/// subset `landing`. Returns the raw log the crash leaves behind.
fn crash_in_place(
    cb0: &CaseBase,
    acked: &[Vec<u8>],
    landing: u64,
    write: impl FnOnce(&mut DurableCaseBase<FailingStore<MemStore>>) -> Result<(), PersistError>,
) -> Vec<u8> {
    let mut log = acked.concat();
    log.resize(log.len() + RESERVE, 0);
    let media = rebooted(cb0, log);
    let stores = StoreSet {
        wal: FailingStore::tearing_sectors(media.wal, 0, landing),
        snap_a: FailingStore::new(media.snap_a, u64::MAX),
        snap_b: FailingStore::new(media.snap_b, u64::MAX),
    };
    let (mut durable, report) = DurableCaseBase::recover(stores, PersistPolicy::manual()).unwrap();
    assert_eq!(report.replayed, acked.len());
    assert_eq!(report.torn_tail_bytes, 0, "a zero reserve is not a torn tail");
    let before = durable.case_base().clone();
    assert!(matches!(write(&mut durable), Err(PersistError::Crashed { .. })));
    assert_eq!(durable.case_base(), &before, "nothing acknowledged, memory rolled back");
    durable.into_stores().wal.into_inner().into_bytes()
}

/// What the sector model says of a write of `frames` at offset `start`:
/// how many leading frames land whole, and whether anything non-zero
/// lands behind them.
fn sector_model(frames: &[Vec<u8>], start: usize, landing: u64) -> (usize, bool) {
    let first_sector = start as u64 / SECTOR_BYTES;
    let lands = |at: usize| landing >> (at as u64 / SECTOR_BYTES - first_sector) & 1 == 1;
    let mut at = start;
    let mut whole = 0;
    let mut counting = true;
    let mut debris = false;
    for frame in frames {
        let landed: Vec<bool> = (at..at + frame.len()).map(lands).collect();
        counting &= landed.iter().all(|&l| l);
        if counting {
            whole += 1;
        } else {
            debris |= landed.iter().zip(frame).any(|(&l, &byte)| l && byte != 0);
        }
        at += frame.len();
    }
    (whole, debris)
}

/// Sectors a write of `len` bytes at `start` touches.
fn sectors_touched(start: usize, len: usize) -> u64 {
    (start + len - 1) as u64 / SECTOR_BYTES - start as u64 / SECTOR_BYTES + 1
}

fn recover_raw(cb0: &CaseBase, log: Vec<u8>) -> (DurableCaseBase<MemStore>, RecoveryReport) {
    DurableCaseBase::recover(rebooted(cb0, log), PersistPolicy::manual()).unwrap()
}

/// Crash 6: an in-place append torn by **sector subset**. Behind every
/// acknowledged prefix, one unacknowledged frame and one unacknowledged
/// flush window are written over the log's zero reserve, and every
/// subset of the sectors the write touches lands. Recovery yields the
/// acknowledged prefix plus exactly the leading frames that landed
/// whole (for a single frame: nothing, unless all of it landed),
/// bit-identical to the oracle, and calls the log torn exactly when
/// something non-zero is left behind those.
#[test]
fn sector_subset_tears_recover_the_acknowledged_prefix() {
    let cb0 = seed_case_base();
    const WINDOW: usize = 24;
    const ACKED: usize = 38;
    let script = mutation_script(&cb0, ACKED + WINDOW, 8);
    let oracles = oracle_states(&cb0, &script);
    let requests = probe_requests(&cb0);
    let frames = script_frames(&script, &oracles);
    let window_len: usize = frames[ACKED..].iter().map(Vec::len).sum();
    assert!(
        frames[..ACKED].concat().len() > 2 * SECTOR_BYTES as usize
            && window_len > SECTOR_BYTES as usize,
        "the sweep crosses sector boundaries with single frames and with windows"
    );

    let mut straddling_frames = 0;
    for acked in 0..=ACKED {
        let start: usize = frames[..acked].iter().map(Vec::len).sum();
        for window in [1, WINDOW] {
            let unacked = &frames[acked..acked + window];
            let len: usize = unacked.iter().map(Vec::len).sum();
            let sectors = sectors_touched(start, len);
            straddling_frames += usize::from(window == 1 && sectors > 1);
            for landing in 0..1u64 << sectors {
                let ctx = format!("{acked} acked, window {window}, sectors {landing:0b}");
                let log = crash_in_place(&cb0, &frames[..acked], landing, |durable| {
                    durable.apply_batch(&script[acked..acked + window]).map(drop)
                });
                let (whole, debris) = sector_model(unacked, start, landing);
                if window == 1 && landing != (1 << sectors) - 1 {
                    assert_eq!(whole, 0, "{ctx}: a frame missing a sector is no frame");
                }
                let (recovered, report) = recover_raw(&cb0, log);
                assert_eq!(report.replayed, acked + whole, "{ctx}");
                assert_eq!(report.torn_tail_bytes > 0, debris, "{ctx}: torn-tail flag");
                assert_bit_identical(recovered.case_base(), &oracles[acked + whole], &requests, &ctx);
            }
        }
    }
    assert!(straddling_frames >= 2, "single frames straddled {straddling_frames} boundaries");
}

/// Crash 7, the regression the sector model exists for: a flush window
/// `[A, B]` whose first sector never lands leaves `B` whole behind a
/// hole where `A` began. Replay stops at the hole, so `B` is invisible —
/// until the client retries `A`, which has the hole's length: unscrubbed,
/// the log would then read `…, A, B`, and `B` was never acknowledged.
#[test]
fn a_whole_frame_behind_a_hole_is_scrubbed_before_the_next_append() {
    let cb0 = seed_case_base();
    let script = mutation_script(&cb0, 40, 9);
    let oracles = oracle_states(&cb0, &script);
    let requests = probe_requests(&cb0);
    let frames = script_frames(&script, &oracles);
    let boundary = |n: usize| frames[..n].iter().map(Vec::len).sum::<usize>();
    // `A` is the first frame to straddle a sector boundary; `B` follows
    // it inside the second sector.
    let a = (0..frames.len())
        .find(|&n| boundary(n + 1) > SECTOR_BYTES as usize)
        .unwrap();
    assert!(boundary(a) < SECTOR_BYTES as usize, "A straddles the boundary");

    let log = crash_in_place(&cb0, &frames[..a], 0b10, |durable| {
        durable.apply_batch(&script[a..a + 2]).map(drop)
    });
    assert!(
        matches!(
            parse_frame(&log[boundary(a + 1)..]),
            FrameParse::Complete { record, .. } if record.generation == oracles[a + 2].generation()
        ),
        "the crash left B whole on the medium"
    );
    assert!(log[boundary(a)..SECTOR_BYTES as usize].iter().all(|&b| b == 0), "behind a hole");

    let (mut recovered, report) = recover_raw(&cb0, log);
    assert_eq!(report.replayed, a);
    assert!(report.torn_tail_bytes > 0, "debris behind the clean frames is a torn tail");
    assert_eq!(recovered.wal_bytes().unwrap() as usize, boundary(a));
    // The client retries A alone; the machine dies again right after.
    recovered.apply(&script[a]).unwrap();
    let log = recovered.into_stores().wal.into_bytes();
    let (again, report) = recover_raw(&cb0, log);
    assert_eq!(report.replayed, a + 1, "exactly A: B was never acknowledged");
    assert_eq!(report.torn_tail_bytes, 0);
    assert_bit_identical(again.case_base(), &oracles[a + 1], &requests, "retry after scrub");
}

/// Crash 8: the append that finds no room carries a chunk of zeros
/// behind its frame. The crash leaves any prefix of those zeros, with
/// the frame or without it; either is a clean log, and the next append
/// continues right behind the frames.
#[test]
fn a_crash_during_reserve_growth_leaves_a_clean_log() {
    let cb0 = seed_case_base();
    let script = mutation_script(&cb0, 8, 10);
    let oracles = oracle_states(&cb0, &script);
    let requests = probe_requests(&cb0);
    let frames = script_frames(&script, &oracles);

    for acked in [0usize, 1, 6] {
        for with_frame in [false, true] {
            for zeros in [0usize, 1, 2, 511, 512, 513, 4096, 8191, 8192] {
                let ctx = format!("{acked} acked, frame {with_frame}, {zeros} zeros");
                let landed = acked + usize::from(with_frame);
                let mut log = frames[..landed].concat();
                log.resize(log.len() + zeros, 0);
                let (mut recovered, report) = recover_raw(&cb0, log);
                assert_eq!(report.replayed, landed, "{ctx}");
                assert_eq!(report.torn_tail_bytes, 0, "{ctx}: zeros are no torn tail");
                assert_bit_identical(recovered.case_base(), &oracles[landed], &requests, &ctx);
                // The log goes on in place, behind the frames.
                recovered.apply(&script[landed]).unwrap();
                let log = recovered.into_stores().wal.into_bytes();
                let content = frames[..=landed].concat();
                assert_eq!(log[..content.len()], content[..], "{ctx}");
                let (again, report) = recover_raw(&cb0, log);
                assert_eq!((report.replayed, report.torn_tail_bytes), (landed + 1, 0), "{ctx}");
                assert_bit_identical(again.case_base(), &oracles[landed + 1], &requests, &ctx);
            }
        }
    }
}

/// A case base that outgrows the snapshot image's 16-bit address space
/// (`local_scan`'s 8192 variants) is an error in every build profile,
/// never a panic: no input may take a node down.
#[test]
fn oversize_case_base_is_refused_not_panicked_on() {
    let too_large = CaseGen::new(16, 512, 8, 10).seed(1).build();
    assert!(matches!(
        encode_snapshot(&too_large),
        Err(PersistError::Mem(MemError::ImageTooLarge { .. }))
    ));
}

/// Sanity for the harness itself: the script and frame encoding are
/// deterministic, so every run of this suite exercises the same bytes.
#[test]
fn harness_is_deterministic() {
    let cb = seed_case_base();
    let a = mutation_script(&cb, 10, 7);
    let b = mutation_script(&cb, 10, 7);
    assert_eq!(a, b);
    let mut oracle = cb.clone();
    let mut frames_a = Vec::new();
    for m in &a {
        oracle.apply_mutation(m).unwrap();
        frames_a.push(encode_frame(&StampedMutation {
            generation: oracle.generation(),
            mutation: m.clone(),
        }));
    }
    let mut oracle2 = cb;
    for (m, frame) in b.iter().zip(&frames_a) {
        oracle2.apply_mutation(m).unwrap();
        assert_eq!(
            &encode_frame(&StampedMutation {
                generation: oracle2.generation(),
                mutation: m.clone(),
            }),
            frame
        );
    }
}
