//! The durable case base: WAL + dual-slot snapshots + recovery.
//!
//! ## Write path
//!
//! [`DurableCaseBase::apply`] applies the mutation to the in-memory case
//! base (which validates it), stamps it with the resulting generation,
//! and appends it to the WAL. Only when the append succeeds is the
//! mutation acknowledged; an append failure rolls the in-memory state
//! back (via the inverse mutation) so memory never runs ahead of the
//! log. It counts the mutations since the last checkpoint and says when
//! one is due ([`DurableCaseBase::checkpoint_due`]); the owner runs it.
//!
//! [`DurableCaseBase::apply_batch`] is the **group commit** path: a whole
//! window of mutations becomes one WAL append — one `fdatasync` on a
//! file store — and nothing in the window is acknowledged before that
//! single flush returns. A crash inside the window can therefore only
//! drop unacknowledged suffix frames, which is exactly the torn-tail
//! case replay already handles.
//!
//! ## Checkpoint = snapshot + compaction
//!
//! Snapshots alternate between two slots (A/B), always overwriting the
//! *stale* one, so the newest durable snapshot is never destroyed by a
//! crash mid-write. After the new snapshot is durable, the WAL is
//! compacted to the records newer than it (atomic rewrite).
//!
//! Checkpoints can also run in **two phases** for concurrent owners:
//! [`DurableCaseBase::checkpoint_begin`] checks the stale slot out with a
//! clone of the state (cheap, under the owner's lock),
//! [`PendingCheckpoint::write`] does the snapshot I/O off-lock, and
//! [`DurableCaseBase::checkpoint_finish`] reinstalls the slot and trims
//! the log tail (bounded work, under the lock again). `rqfa-service`
//! uses this so a checkpoint never stalls a shard's retrievals.
//!
//! ## Recovery invariants
//!
//! [`DurableCaseBase::recover`] restores exactly the acknowledged prefix:
//!
//! 1. Pick the valid snapshot with the highest generation (a torn or
//!    corrupt slot is skipped; the dual-slot discipline guarantees the
//!    other slot holds the previous good snapshot).
//! 2. Replay WAL records in order, *skipping* the prefix stamped at or
//!    below the snapshot generation (left behind by a crash between
//!    snapshot and compaction) and *stopping* at the first bytes that are
//!    no clean frame: all zeros is the log's reserve and its clean end,
//!    anything else a torn tail (left behind by a crash mid-append).
//! 3. Each replayed stamp must be exactly `generation + 1` — anything
//!    else is corruption beyond what a crash can produce and fails
//!    recovery loudly ([`PersistError::GenerationGap`]).
//! 4. Before the first new append, a log with a torn tail or a skipped
//!    prefix is rewritten as the byte range between them. Appends go in
//!    place, so a write can tear by sector: a batch `[A, B]` can leave
//!    `B` whole behind a hole where `A` was. Left there, `B` would follow
//!    the next append of `A`'s length as a CRC-clean, correctly stamped
//!    frame that nobody was ever acknowledged.
//!
//! A recovered case base answers retrievals bit-identically to one that
//! never crashed (the workspace `tests/persist_recovery.rs` harness
//! proves this for every crash point).

use std::sync::Arc;
use std::time::Instant;

use rqfa_core::{CaseBase, CaseMutation, Generation};

use crate::error::PersistError;
use crate::record::StampedMutation;
use crate::snapshot::{read_snapshot, write_snapshot};
use crate::stats::PersistStats;
use crate::store::Store;
use crate::wal::Wal;

/// Checkpoint policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistPolicy {
    /// A checkpoint (snapshot + WAL compaction) is due after this many
    /// acknowledged mutations ([`DurableCaseBase::checkpoint_due`]). `0`
    /// makes none due — the log then grows until the owner calls
    /// [`DurableCaseBase::checkpoint`] on its own.
    pub snapshot_every: u64,
}

impl Default for PersistPolicy {
    fn default() -> PersistPolicy {
        PersistPolicy { snapshot_every: 64 }
    }
}

impl PersistPolicy {
    /// A policy under which no checkpoint ever falls due.
    pub fn manual() -> PersistPolicy {
        PersistPolicy { snapshot_every: 0 }
    }
}

/// The three storage media one durable case base needs.
#[derive(Debug, Clone)]
pub struct StoreSet<S> {
    /// The write-ahead log.
    pub wal: S,
    /// Snapshot slot A.
    pub snap_a: S,
    /// Snapshot slot B.
    pub snap_b: S,
}

impl<S> StoreSet<S> {
    /// Applies `f` to each store — e.g. to unwrap a
    /// [`FailingStore`](crate::FailingStore) layer after a simulated
    /// crash.
    pub fn map<T>(self, mut f: impl FnMut(S) -> T) -> StoreSet<T> {
        StoreSet {
            wal: f(self.wal),
            snap_a: f(self.snap_a),
            snap_b: f(self.snap_b),
        }
    }
}

impl StoreSet<crate::MemStore> {
    /// Three fresh in-memory stores.
    pub fn in_memory() -> StoreSet<crate::MemStore> {
        StoreSet {
            wal: crate::MemStore::new(),
            snap_a: crate::MemStore::new(),
            snap_b: crate::MemStore::new(),
        }
    }
}

impl StoreSet<crate::FileStore> {
    /// File stores under `dir` (`wal.log`, `snap-a.img`, `snap-b.img`),
    /// creating the directory if needed.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] if the directory cannot be created.
    pub fn in_dir(dir: &std::path::Path) -> Result<StoreSet<crate::FileStore>, PersistError> {
        std::fs::create_dir_all(dir).map_err(|e| PersistError::Io {
            op: "create-dir",
            message: e.to_string(),
        })?;
        Ok(StoreSet {
            wal: crate::FileStore::new(dir.join("wal.log")),
            snap_a: crate::FileStore::new(dir.join("snap-a.img")),
            snap_b: crate::FileStore::new(dir.join("snap-b.img")),
        })
    }
}

/// What recovery found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The generation of the snapshot recovery started from.
    pub snapshot_generation: Generation,
    /// WAL records replayed on top of the snapshot.
    pub replayed: usize,
    /// WAL records skipped because the snapshot already contained them
    /// (non-zero exactly when a crash hit between snapshot and
    /// compaction).
    pub skipped_older: usize,
    /// Bytes of torn WAL tail dropped (non-zero exactly when a crash hit
    /// mid-append).
    pub torn_tail_bytes: usize,
    /// Snapshot slots that were present but unreadable (non-zero exactly
    /// when a crash hit mid-snapshot on a medium without atomic
    /// replacement).
    pub corrupt_slots: usize,
}

/// A [`CaseBase`] whose mutations survive crashes.
///
/// ```
/// use rqfa_core::{paper, CaseMutation};
/// use rqfa_persist::{DurableCaseBase, PersistPolicy, StoreSet};
///
/// let stores = StoreSet::in_memory();
/// let mut durable = DurableCaseBase::create(
///     &paper::table1_case_base(),
///     stores,
///     PersistPolicy::default(),
/// )?;
/// durable.apply(&CaseMutation::Evict {
///     type_id: paper::FIR_EQUALIZER,
///     impl_id: paper::IMPL_GP,
/// })?;
///
/// // "Crash": take the raw media, recover from them.
/// let (recovered, report) = DurableCaseBase::recover(
///     durable.into_stores(),
///     PersistPolicy::default(),
/// )?;
/// assert_eq!(report.replayed, 1);
/// assert_eq!(recovered.case_base().variant_count(), 4);
/// # Ok::<(), rqfa_persist::PersistError>(())
/// ```
#[derive(Debug)]
pub struct DurableCaseBase<S> {
    case_base: CaseBase,
    wal: Wal<S>,
    /// Snapshot slots A/B. A slot is `None` exactly while a two-phase
    /// checkpoint has it checked out (see
    /// [`DurableCaseBase::checkpoint_begin`]).
    snaps: [Option<S>; 2],
    active_slot: usize,
    policy: PersistPolicy,
    since_checkpoint: u64,
    /// Log length covering exactly the acknowledged records. A failed
    /// append may tear bytes beyond it; the log is rewritten without
    /// them before any later append, so acknowledged frames never land
    /// behind — or in front of — what nobody was acknowledged.
    clean_wal_len: u64,
    /// Set when the post-failure truncation itself failed; the next
    /// apply retries the repair before touching the medium.
    wal_dirty: bool,
    /// Write-path observability (shared — see [`DurableCaseBase::stats`]).
    stats: Arc<PersistStats>,
}

impl<S: Store> DurableCaseBase<S> {
    /// Initializes fresh durable state: writes a genesis snapshot of
    /// `initial` into slot A and empties the WAL. Any previous content of
    /// the stores is discarded.
    ///
    /// # Errors
    ///
    /// Snapshot encoding or store-write failures; on error the stores may
    /// hold partial genesis state, which [`DurableCaseBase::recover`]
    /// will refuse cleanly rather than misread.
    pub fn create(
        initial: &CaseBase,
        stores: StoreSet<S>,
        policy: PersistPolicy,
    ) -> Result<DurableCaseBase<S>, PersistError> {
        let mut this = DurableCaseBase {
            case_base: initial.clone(),
            wal: Wal::new(stores.wal),
            snaps: [Some(stores.snap_a), Some(stores.snap_b)],
            active_slot: 0,
            policy,
            since_checkpoint: 0,
            clean_wal_len: 0,
            wal_dirty: false,
            stats: PersistStats::shared(),
        };
        // Invalidate any stale previous state *before* the genesis
        // snapshot lands, clearing B → A → WAL. A crash anywhere in this
        // sequence leaves media that recovery either reads as one
        // consistent pre-create state, refuses loudly (no valid
        // snapshot, or a generation gap against the surviving slot) —
        // never a silent mix of old and new generations.
        this.slot_mut(1).replace(&[])?;
        this.slot_mut(0).replace(&[])?;
        this.wal.retain(0..0)?;
        write_snapshot(this.slot_mut(0), initial)?;
        Ok(this)
    }

    /// Recovers the durable state from whatever the stores hold.
    ///
    /// # Errors
    ///
    /// * [`PersistError::NoValidSnapshot`] if neither slot decodes;
    /// * [`PersistError::GenerationGap`] if the log does not continue the
    ///   snapshot (corruption beyond a crash);
    /// * [`PersistError::Core`] if a replayed mutation no longer applies
    ///   (ditto);
    /// * store read failures.
    pub fn recover(
        stores: StoreSet<S>,
        policy: PersistPolicy,
    ) -> Result<(DurableCaseBase<S>, RecoveryReport), PersistError> {
        let mut corrupt_slots = 0usize;
        let mut read_slot = |store: &S| match read_snapshot(store) {
            Ok(found) => Ok(found),
            Err(PersistError::CorruptSnapshot { .. }) => {
                corrupt_slots += 1;
                Ok(None)
            }
            Err(other) => Err(other),
        };
        let slot_a = read_slot(&stores.snap_a)?;
        let slot_b = read_slot(&stores.snap_b)?;
        let (active_slot, snapshot) = match (slot_a, slot_b) {
            (Some(a), Some(b)) => {
                if a.generation >= b.generation {
                    (0, a)
                } else {
                    (1, b)
                }
            }
            (Some(a), None) => (0, a),
            (None, Some(b)) => (1, b),
            (None, None) => return Err(PersistError::NoValidSnapshot),
        };

        let mut wal = Wal::new(stores.wal);
        let replay = wal.replay_after(snapshot.generation)?;
        let mut case_base = snapshot.case_base;
        for record in &replay.records {
            let expected = case_base.generation().next();
            if record.generation != expected {
                return Err(PersistError::GenerationGap {
                    expected,
                    found: record.generation,
                });
            }
            case_base.apply_mutation(&record.mutation)?;
            debug_assert_eq!(case_base.generation(), record.generation);
        }

        // Make the medium clean before accepting new writes: the next
        // append lands in place right behind the clean frames, and a
        // torn tail left there would either swallow it (the next scan
        // stops at the garbage) or, where a whole frame survived behind
        // a hole, be spliced back into the log by it. The atomic rewrite
        // also drops the prefix the snapshot already covers. A clean log
        // is left as it is and the store told where it ends.
        let clean_wal_len = if replay.torn_tail_bytes > 0 || replay.skipped > 0 {
            wal.retain(replay.skipped_len as u64..replay.clean_len as u64)?
        } else {
            wal.mark_end(replay.clean_len as u64);
            replay.clean_len as u64
        };

        let replayed = replay.records.len();
        let report = RecoveryReport {
            snapshot_generation: snapshot.generation,
            replayed,
            skipped_older: replay.skipped,
            torn_tail_bytes: replay.torn_tail_bytes,
            corrupt_slots,
        };
        let this = DurableCaseBase {
            case_base,
            wal,
            snaps: [Some(stores.snap_a), Some(stores.snap_b)],
            active_slot,
            policy,
            since_checkpoint: replayed as u64,
            clean_wal_len,
            wal_dirty: false,
            stats: PersistStats::shared(),
        };
        this.stats.wal_bytes_since_checkpoint.set(clean_wal_len);
        Ok((this, report))
    }

    /// The current in-memory case base.
    pub fn case_base(&self) -> &CaseBase {
        &self.case_base
    }

    /// The current generation (mirror of `case_base().generation()`).
    pub fn generation(&self) -> Generation {
        self.case_base.generation()
    }

    /// Acknowledged mutations since the last successful checkpoint
    /// (after a recovery: the records it replayed, plus the new ones).
    pub fn since_checkpoint(&self) -> u64 {
        self.since_checkpoint
    }

    /// Whether [`DurableCaseBase::since_checkpoint`] has reached the
    /// policy's cadence — the owner's cue to run a checkpoint, since
    /// applying never runs one.
    pub fn checkpoint_due(&self) -> bool {
        self.policy.snapshot_every > 0 && self.since_checkpoint >= self.policy.snapshot_every
    }

    /// Encodes the current in-memory state as one transferable snapshot
    /// image (the same dual-slot container format
    /// [`crate::snapshot::encode_snapshot`] writes to disk) — the unit a
    /// leader ships to bootstrap a replica. The image carries the
    /// current generation; stream the WAL tail *after* that generation
    /// ([`DurableCaseBase::wal_tail`]) on top to bring the replica to
    /// head.
    ///
    /// # Errors
    ///
    /// Snapshot-encoding failures (a case base too large for the 16-bit
    /// image format).
    pub fn export_snapshot(&self) -> Result<Vec<u8>, PersistError> {
        crate::snapshot::encode_snapshot(&self.case_base)
    }

    /// The acknowledged WAL records stamped after `through`, in log
    /// order — the replication tail matching a shipped snapshot at that
    /// generation. Records past the acknowledged clean length (torn
    /// bytes of a failed append) are never included.
    ///
    /// # Errors
    ///
    /// Propagates store read failures.
    pub fn wal_tail(&self, through: Generation) -> Result<Vec<StampedMutation>, PersistError> {
        Ok(self.wal.replay_after(through)?.records)
    }

    /// This case base's write-path counters. The block is behind an
    /// `Arc`, so callers that keep the case base itself under a lock
    /// (e.g. a service shard) can hand the stats out for lock-free
    /// reading.
    pub fn stats(&self) -> Arc<PersistStats> {
        Arc::clone(&self.stats)
    }

    /// Applies a mutation durably and returns its inverse.
    ///
    /// On success the mutation is in the WAL — a crash at any later point
    /// recovers it. On error the in-memory case base is unchanged.
    ///
    /// # Errors
    ///
    /// * [`PersistError::Core`] if the mutation violates case-base
    ///   invariants (nothing written);
    /// * store append failures (in-memory state rolled back).
    pub fn apply(&mut self, mutation: &CaseMutation) -> Result<CaseMutation, PersistError> {
        let mut inverses = self.apply_batch(std::slice::from_ref(mutation))?;
        Ok(inverses.pop().expect("one mutation yields one inverse"))
    }

    /// Applies a whole batch of mutations durably — the **group commit**
    /// path — and returns their inverses in order.
    ///
    /// The batch is all-or-nothing: every mutation is validated and
    /// applied in memory first (any rejection rolls the earlier ones
    /// back and nothing touches the medium), then all frames land in the
    /// WAL as **one** store append — a single `fdatasync` on a file
    /// store, which is what lifts durable throughput past the
    /// one-fsync-per-mutation floor. No mutation of the batch is
    /// acknowledged before the whole append returned: a crash inside the
    /// flush window can only lose *unacknowledged* suffix frames, so the
    /// acknowledged-prefix recovery contract is unchanged.
    ///
    /// # Errors
    ///
    /// * [`PersistError::Core`] if any mutation violates case-base
    ///   invariants (in-memory state fully rolled back, nothing written);
    /// * store append failures (ditto, plus torn-byte repair as in
    ///   [`DurableCaseBase::apply`]).
    pub fn apply_batch(
        &mut self,
        mutations: &[CaseMutation],
    ) -> Result<Vec<CaseMutation>, PersistError> {
        if mutations.is_empty() {
            return Ok(Vec::new());
        }
        // Repair first if an earlier failed append left torn bytes that
        // the immediate truncation could not remove — appending behind
        // garbage would hide these frames from every future replay.
        if self.wal_dirty {
            self.wal.retain(0..self.clean_wal_len)?;
            self.wal_dirty = false;
        }
        let before = self.case_base.generation();
        // One rollback primitive for the whole workspace: the in-memory
        // batch is all-or-nothing via CaseBase itself.
        let inverses = self.case_base.apply_mutations_atomic(mutations)?;
        let mut stamp = before;
        let stamped: Vec<crate::StampedMutation> = mutations
            .iter()
            .map(|mutation| {
                stamp = stamp.next();
                crate::StampedMutation {
                    generation: stamp,
                    mutation: mutation.clone(),
                }
            })
            .collect();
        debug_assert_eq!(stamp, self.case_base.generation());
        let grows_before = self.wal.store().reserve_grows();
        let append_started = Instant::now();
        match self.wal.append_batch(&stamped) {
            Ok(batch_len) => {
                self.clean_wal_len += batch_len;
                self.stats.appends.incr();
                self.stats
                    .reserve_grows
                    .add(self.wal.store().reserve_grows() - grows_before);
                self.stats.appended_mutations.add(mutations.len() as u64);
                self.stats
                    .append_us
                    .record(u64::try_from(append_started.elapsed().as_micros()).unwrap_or(u64::MAX));
                self.stats.flush_window.record(mutations.len() as u64);
                self.stats.wal_bytes_since_checkpoint.set(self.clean_wal_len);
            }
            Err(e) => {
                // Un-apply: the inverses, newest first, are themselves an
                // all-or-nothing batch; then rewind the counter.
                let reversed: Vec<CaseMutation> = inverses.into_iter().rev().collect();
                self.case_base
                    .apply_mutations_atomic(&reversed)
                    .expect("the inverses of just-applied mutations apply");
                self.case_base.restore_generation(before);
                // Drop whatever the failed append tore onto the medium;
                // if even that fails, flag the log for repair-on-retry.
                if self.wal.retain(0..self.clean_wal_len).is_err() {
                    self.wal_dirty = true;
                }
                return Err(e);
            }
        }
        self.since_checkpoint += mutations.len() as u64;
        Ok(inverses)
    }

    /// Snapshots the current state into the stale slot, then compacts the
    /// WAL to the records newer than the snapshot. One-phase convenience
    /// over [`DurableCaseBase::checkpoint_begin`] → write →
    /// [`DurableCaseBase::checkpoint_finish`] for single-threaded owners.
    ///
    /// # Errors
    ///
    /// Store failures. A failure *before* the snapshot became durable
    /// leaves the previous checkpoint intact; a failure *between*
    /// snapshot and compaction leaves a longer log whose older records
    /// recovery skips by generation. Either way no acknowledged mutation
    /// is lost.
    pub fn checkpoint(&mut self) -> Result<(), PersistError> {
        let pending = self.checkpoint_begin()?;
        let written = pending.write();
        self.checkpoint_finish(written)
    }

    /// Phase 1 of a two-phase checkpoint: checks the stale snapshot slot
    /// out together with a clone of the current state, so the expensive
    /// snapshot write ([`PendingCheckpoint::write`]) can run **without**
    /// whatever lock guards this durable case base. A concurrent owner —
    /// e.g. a shard whose retrievals read the case base under a mutex —
    /// keeps serving while the snapshot I/O happens elsewhere; only
    /// [`DurableCaseBase::checkpoint_finish`] needs the lock again, and
    /// its compaction is a bounded read + atomic replace of the (small)
    /// post-snapshot log tail, never a frame-parsing rewrite.
    ///
    /// Mutations applied between begin and finish are stamped after the
    /// cloned generation and stay in the log tail the finish keeps — they
    /// are simply not covered by this snapshot yet.
    ///
    /// # Errors
    ///
    /// [`PersistError::CheckpointInFlight`] if a pending checkpoint
    /// already holds a slot.
    pub fn checkpoint_begin(&mut self) -> Result<PendingCheckpoint<S>, PersistError> {
        let target = 1 - self.active_slot;
        let store = self.snaps[target]
            .take()
            .ok_or(PersistError::CheckpointInFlight)?;
        Ok(PendingCheckpoint {
            slot: target,
            store,
            image: self.case_base.clone(),
            wal_mark: self.clean_wal_len,
            counted: self.since_checkpoint,
        })
    }

    /// Phase 3 of a two-phase checkpoint: reinstalls the slot, and — if
    /// the snapshot write succeeded — promotes it to the active slot and
    /// compacts the WAL down to the frames appended since
    /// [`DurableCaseBase::checkpoint_begin`].
    ///
    /// # Errors
    ///
    /// The parked snapshot-write error, or compaction store failures. A
    /// failed write leaves the previous checkpoint active (a torn slot
    /// is skipped by recovery; the next checkpoint overwrites it).
    pub fn checkpoint_finish(&mut self, written: WrittenCheckpoint<S>) -> Result<(), PersistError> {
        let WrittenCheckpoint {
            slot,
            store,
            wal_mark,
            counted,
            result,
        } = written;
        self.snaps[slot] = Some(store);
        result?;
        self.active_slot = slot;
        // Everything before the begin mark is covered by the snapshot;
        // everything acknowledged since is exactly the tail to keep. The
        // clean-length bound also sheds any torn bytes a failed append
        // left behind.
        self.clean_wal_len = self.wal.retain(wal_mark..self.clean_wal_len)?;
        self.wal_dirty = false;
        // Mutations acknowledged after begin are not in this snapshot:
        // only the counted prefix leaves the checkpoint debt.
        self.since_checkpoint = self.since_checkpoint.saturating_sub(counted);
        self.stats.checkpoints.incr();
        self.stats.wal_bytes_since_checkpoint.set(self.clean_wal_len);
        Ok(())
    }

    /// Current WAL content in bytes — the frames, not the reserve a file
    /// keeps behind them (observability / test hook).
    ///
    /// # Errors
    ///
    /// Store read failures.
    pub fn wal_bytes(&self) -> Result<u64, PersistError> {
        self.wal.store().len()
    }

    /// Consumes the handle, returning the raw stores — what a crashed
    /// machine would find on its media.
    ///
    /// # Panics
    ///
    /// If a two-phase checkpoint is still pending (a slot is checked
    /// out); finish it first.
    pub fn into_stores(self) -> StoreSet<S> {
        let [snap_a, snap_b] = self.snaps;
        StoreSet {
            wal: self.wal.into_store(),
            snap_a: snap_a.expect("no checkpoint pending"),
            snap_b: snap_b.expect("no checkpoint pending"),
        }
    }

    /// The slot's store; panics while a pending checkpoint holds it.
    fn slot_mut(&mut self, slot: usize) -> &mut S {
        self.snaps[slot].as_mut().expect("no checkpoint pending")
    }
}

/// A checkpoint between [`DurableCaseBase::checkpoint_begin`] and its
/// write: owns the stale snapshot slot plus a clone of the state to
/// snapshot, so the I/O can run off-lock.
#[derive(Debug)]
pub struct PendingCheckpoint<S> {
    slot: usize,
    store: S,
    image: CaseBase,
    wal_mark: u64,
    counted: u64,
}

impl<S: Store> PendingCheckpoint<S> {
    /// The generation this checkpoint will make durable.
    pub fn generation(&self) -> Generation {
        self.image.generation()
    }

    /// Phase 2: writes the snapshot — the expensive, lock-free part.
    /// Never fails directly; the outcome is parked inside the returned
    /// [`WrittenCheckpoint`] so the slot store always travels back to
    /// [`DurableCaseBase::checkpoint_finish`].
    pub fn write(mut self) -> WrittenCheckpoint<S> {
        let result = write_snapshot(&mut self.store, &self.image);
        WrittenCheckpoint {
            slot: self.slot,
            store: self.store,
            wal_mark: self.wal_mark,
            counted: self.counted,
            result,
        }
    }
}

/// The outcome of [`PendingCheckpoint::write`], ready to be handed back
/// to [`DurableCaseBase::checkpoint_finish`].
#[derive(Debug)]
pub struct WrittenCheckpoint<S> {
    slot: usize,
    store: S,
    wal_mark: u64,
    counted: u64,
    result: Result<(), PersistError>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{FailingStore, MemStore};
    use rqfa_core::{paper, AttrBinding, ExecutionTarget, FixedEngine, ImplId, ImplVariant};

    fn retain(id: u16, bits: u16) -> CaseMutation {
        retain_into(paper::FIR_EQUALIZER, id, bits)
    }

    fn retain_into(type_id: rqfa_core::TypeId, id: u16, bits: u16) -> CaseMutation {
        CaseMutation::Retain {
            type_id,
            variant: ImplVariant::new(
                ImplId::new(id).unwrap(),
                ExecutionTarget::Fpga,
                vec![AttrBinding::new(paper::ATTR_BITWIDTH, bits)],
            )
            .unwrap(),
        }
    }

    #[test]
    fn create_apply_recover_roundtrip() {
        let mut durable = DurableCaseBase::create(
            &paper::table1_case_base(),
            StoreSet::in_memory(),
            PersistPolicy::manual(),
        )
        .unwrap();
        durable.apply(&retain(10, 9)).unwrap();
        durable.apply(&retain(11, 10)).unwrap();
        let reference = durable.case_base().clone();
        let (recovered, report) =
            DurableCaseBase::recover(durable.into_stores(), PersistPolicy::manual()).unwrap();
        assert_eq!(report.replayed, 2);
        assert_eq!(report.skipped_older, 0);
        assert_eq!(report.torn_tail_bytes, 0);
        assert_eq!(recovered.generation(), reference.generation());
        let request = paper::table1_request().unwrap();
        let engine = FixedEngine::new();
        assert_eq!(
            engine.retrieve(recovered.case_base(), &request).unwrap(),
            engine.retrieve(&reference, &request).unwrap(),
        );
    }

    #[test]
    fn rejected_mutation_writes_nothing() {
        let mut durable = DurableCaseBase::create(
            &paper::table1_case_base(),
            StoreSet::in_memory(),
            PersistPolicy::manual(),
        )
        .unwrap();
        let wal_before = durable.wal_bytes().unwrap();
        // Duplicate impl id 1 already exists.
        assert!(matches!(
            durable.apply(&retain(1, 9)),
            Err(PersistError::Core(_))
        ));
        assert_eq!(durable.wal_bytes().unwrap(), wal_before);
        assert_eq!(durable.generation(), Generation::GENESIS);
    }

    #[test]
    fn torn_append_rolls_back_memory() {
        let stores = StoreSet::in_memory().map(|s| FailingStore::new(s, u64::MAX));
        let durable =
            DurableCaseBase::create(&paper::table1_case_base(), stores, PersistPolicy::manual())
                .unwrap();
        // Rebuild with a tiny remaining budget by crashing the WAL store:
        // simplest is a fresh instance whose WAL tears on first append.
        let inner = durable.into_stores().map(FailingStore::into_inner);
        let stores = StoreSet {
            wal: FailingStore::new(inner.wal, 3), // < one frame: tears
            snap_a: FailingStore::new(inner.snap_a, u64::MAX),
            snap_b: FailingStore::new(inner.snap_b, u64::MAX),
        };
        let (mut durable, _) = DurableCaseBase::recover(stores, PersistPolicy::manual()).unwrap();
        let before = durable.case_base().clone();
        assert!(matches!(
            durable.apply(&retain(10, 9)),
            Err(PersistError::Crashed { .. })
        ));
        assert_eq!(durable.case_base(), &before, "memory must roll back");
        // The torn bytes on the medium are dropped by the next recovery.
        let surviving = durable.into_stores().map(FailingStore::into_inner);
        let (recovered, report) =
            DurableCaseBase::recover(surviving, PersistPolicy::manual()).unwrap();
        assert_eq!(report.torn_tail_bytes, 3);
        assert_eq!(report.replayed, 0);
        assert_eq!(recovered.case_base().function_types(), before.function_types());
    }

    #[test]
    fn a_checkpoint_falls_due_at_the_cadence_and_pays_the_debt() {
        let mut durable = DurableCaseBase::create(
            &paper::table1_case_base(),
            StoreSet::in_memory(),
            PersistPolicy { snapshot_every: 2 },
        )
        .unwrap();
        durable.apply(&retain(10, 9)).unwrap();
        assert!(!durable.checkpoint_due());
        durable.apply(&retain(11, 10)).unwrap();
        assert!(durable.checkpoint_due() && durable.wal_bytes().unwrap() > 0);
        durable.checkpoint().unwrap();
        assert_eq!(durable.wal_bytes().unwrap(), 0, "compaction emptied the log");
        assert_eq!(durable.since_checkpoint(), 0);
        let (recovered, report) =
            DurableCaseBase::recover(durable.into_stores(), PersistPolicy::default()).unwrap();
        assert_eq!(report.snapshot_generation, Generation::from_raw(2));
        assert_eq!(report.replayed, 0);
        assert_eq!(recovered.generation(), Generation::from_raw(2));
    }

    /// A store whose next append tears mid-write and errors *once* —
    /// the transient-failure case (ENOSPC, EINTR-ish) FailingStore's
    /// permanent crash cannot model.
    struct FlakyStore {
        inner: MemStore,
        fail_next_append: bool,
        /// The failing append lands whole but is not counted as content —
        /// what a file store's failed `fdatasync` leaves.
        fail_after_landing: bool,
    }

    impl Store for FlakyStore {
        fn read_all(&self) -> Result<Vec<u8>, PersistError> {
            self.inner.read_all()
        }
        fn append(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
            if self.fail_next_append {
                self.fail_next_append = false;
                if self.fail_after_landing {
                    let end = self.inner.len()?;
                    self.inner.append(bytes)?;
                    self.inner.mark_end(end);
                } else {
                    // Tear: half the frame reaches the medium, then error.
                    self.inner.append(&bytes[..bytes.len() / 2])?;
                }
                return Err(PersistError::Io {
                    op: "append",
                    message: "transient".into(),
                });
            }
            self.inner.append(bytes)
        }
        fn replace(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
            self.inner.replace(bytes)
        }
        fn len(&self) -> Result<u64, PersistError> {
            self.inner.len()
        }
        fn mark_end(&mut self, len: u64) {
            self.inner.mark_end(len);
        }
    }

    fn flaky_durable() -> DurableCaseBase<FlakyStore> {
        let stores = StoreSet::in_memory().map(|inner| FlakyStore {
            inner,
            fail_next_append: false,
            fail_after_landing: false,
        });
        DurableCaseBase::create(&paper::table1_case_base(), stores, PersistPolicy::manual())
            .unwrap()
    }

    #[test]
    fn a_failed_append_leaves_no_type_stamp_to_be_reissued() {
        // The rollback of a failed append runs the inverse through the
        // counter (retain g2, evict g3) before rewinding it to g1. A FIR
        // stamp left at g3 would be handed out again — for different
        // content — by the real FIR mutation that later lands on g3, and
        // a result cached in between would hit across it.
        let mut durable = flaky_durable();
        durable.apply(&retain(10, 9)).unwrap(); // g1
        durable.wal.store_mut().fail_next_append = true;
        assert!(durable.apply(&retain(11, 10)).is_err());
        let base = durable.case_base();
        assert_eq!(base.generation(), Generation::from_raw(1));
        assert!(base.type_stamps().iter().all(|&s| s <= base.generation()));
        let cached_at = base.type_stamp(paper::FIR_EQUALIZER).unwrap();

        durable.apply(&retain_into(paper::FFT_1D, 20, 9)).unwrap(); // g2
        let base = durable.case_base();
        assert_eq!(base.type_stamp(paper::FIR_EQUALIZER), Some(cached_at), "FIR untouched");
        durable.apply(&retain(12, 11)).unwrap(); // g3: FIR changes for real
        let base = durable.case_base();
        assert_eq!(base.generation(), Generation::from_raw(3));
        assert_ne!(
            base.type_stamp(paper::FIR_EQUALIZER),
            Some(cached_at),
            "a result cached before the mutation must not validate after it"
        );
    }

    #[test]
    fn transient_append_failure_does_not_bury_later_appends() {
        // Regression: a failed append used to leave its torn bytes in
        // the live log; the *next successful* append then landed behind
        // garbage and was invisible to replay — an acknowledged mutation
        // silently lost without any crash.
        let mut durable = flaky_durable();
        durable.apply(&retain(10, 9)).unwrap();

        // Inject one transient failure, losing mutation 11 (unacked)…
        durable.wal.store_mut().fail_next_append = true;
        assert!(durable.apply(&retain(11, 10)).is_err());
        // …then acknowledge mutation 12 normally.
        durable.apply(&retain(12, 11)).unwrap();

        let media = durable.into_stores().map(|s| s.inner);
        let (recovered, report) =
            DurableCaseBase::recover(media, PersistPolicy::manual()).unwrap();
        assert_eq!(
            report.replayed, 2,
            "both acknowledged mutations must replay (10 and 12)"
        );
        assert_eq!(report.torn_tail_bytes, 0, "torn bytes were repaired in-process");
        let ty = recovered
            .case_base()
            .function_type(paper::FIR_EQUALIZER)
            .unwrap();
        assert!(ty.variant(ImplId::new(12).unwrap()).is_some());
        assert!(ty.variant(ImplId::new(11).unwrap()).is_none());
    }

    #[test]
    fn a_failed_in_place_append_is_scrubbed_though_the_length_never_moved() {
        // A file store's append that fails in its flush has put the
        // window [11, 12] on the medium without counting it as content.
        // The repair must rewrite the log although it is no longer than
        // the clean length: otherwise the retried 11 overwrites its own
        // lost twin and 12 — never acknowledged — follows it again.
        let mut durable = flaky_durable();
        durable.apply(&retain(10, 9)).unwrap();
        let store = durable.wal.store_mut();
        store.fail_next_append = true;
        store.fail_after_landing = true;
        assert!(durable.apply_batch(&[retain(11, 10), retain(12, 11)]).is_err());
        durable.apply(&retain(11, 10)).unwrap();

        let mut media = durable.into_stores().map(|s| s.inner);
        media.wal = MemStore::from_bytes(media.wal.into_bytes()); // reboot: end unknown
        let (recovered, report) =
            DurableCaseBase::recover(media, PersistPolicy::manual()).unwrap();
        assert_eq!(report.replayed, 2, "10 and the retried 11, not the stray 12");
        assert_eq!(report.torn_tail_bytes, 0);
        assert_eq!(recovered.generation(), Generation::from_raw(2));
    }

    #[test]
    fn file_log_recovers_and_continues_in_place_over_its_reserve() {
        let dir = std::env::temp_dir().join(format!("rqfa-persist-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal_size = || std::fs::metadata(dir.join("wal.log")).unwrap().len();
        let mut durable = DurableCaseBase::create(
            &paper::table1_case_base(),
            StoreSet::in_dir(&dir).unwrap(),
            PersistPolicy::manual(),
        )
        .unwrap();
        assert_eq!(wal_size(), 0, "create reserves nothing");
        durable.apply(&retain(10, 9)).unwrap();
        durable.apply(&retain(11, 10)).unwrap();
        let allocated = wal_size();
        let content = durable.wal_bytes().unwrap();
        assert!(content < allocated, "wal_bytes counts frames, not the reserve");
        assert_eq!(durable.stats().wal_bytes_since_checkpoint.get(), content);
        assert_eq!(durable.stats().reserve_grows.get(), 1, "two appends, one growth");
        drop(durable);

        // Reopen: the end of the log is found by the scan, and the next
        // append lands there — same file, same size, nothing rewritten.
        let (mut recovered, report) =
            DurableCaseBase::recover(StoreSet::in_dir(&dir).unwrap(), PersistPolicy::manual())
                .unwrap();
        assert_eq!((report.replayed, report.torn_tail_bytes), (2, 0));
        assert_eq!(recovered.wal_bytes().unwrap(), content);
        recovered.apply(&retain(12, 11)).unwrap();
        assert_eq!(wal_size(), allocated);
        assert_eq!(recovered.stats().reserve_grows.get(), 0);
        assert_eq!(recovered.wal_tail(Generation::from_raw(2)).unwrap().len(), 1);
        // A checkpoint rewrites the content only; the reserve regrows
        // with the first append after it.
        recovered.checkpoint().unwrap();
        assert_eq!(wal_size(), 0);
        recovered.apply(&retain(13, 12)).unwrap();
        assert_eq!(wal_size(), allocated);
        drop(recovered);

        // A log as the previous format wrote it — frames, no zeros —
        // recovers as it is.
        let frames = Wal::new(crate::FileStore::new(dir.join("wal.log")))
            .replay()
            .unwrap();
        let raw = std::fs::read(dir.join("wal.log")).unwrap();
        std::fs::write(dir.join("wal.log"), &raw[..frames.clean_len]).unwrap();
        let (mut old_format, report) =
            DurableCaseBase::recover(StoreSet::in_dir(&dir).unwrap(), PersistPolicy::manual())
                .unwrap();
        assert_eq!((report.replayed, report.torn_tail_bytes), (1, 0));
        old_format.apply(&retain(14, 13)).unwrap();
        assert_eq!(wal_size(), allocated);
        drop(old_format);
        let (last, report) =
            DurableCaseBase::recover(StoreSet::in_dir(&dir).unwrap(), PersistPolicy::manual())
                .unwrap();
        assert_eq!(report.replayed, 2);
        assert_eq!(last.generation(), Generation::from_raw(5));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_truncates_the_torn_tail_so_later_appends_survive() {
        // Regression: recover() used to leave torn bytes in the log;
        // frames appended behind them were unreachable to the *next*
        // recovery — acknowledged mutations silently vanished.
        let mut durable = DurableCaseBase::create(
            &paper::table1_case_base(),
            StoreSet::in_memory(),
            PersistPolicy::manual(),
        )
        .unwrap();
        durable.apply(&retain(10, 9)).unwrap();
        durable.apply(&retain(11, 10)).unwrap();
        let mut stores = durable.into_stores();
        let mut torn = stores.wal.into_bytes();
        torn.extend_from_slice(&[0x13, 0x37, 0xFE]); // crashed append
        stores.wal = MemStore::from_bytes(torn);

        let (mut recovered, report) =
            DurableCaseBase::recover(stores, PersistPolicy::manual()).unwrap();
        assert_eq!(report.replayed, 2);
        assert_eq!(report.torn_tail_bytes, 3);
        // The mutation acknowledged *after* recovery…
        recovered.apply(&retain(12, 11)).unwrap();
        // …must survive the next crash+recovery.
        let (again, report) =
            DurableCaseBase::recover(recovered.into_stores(), PersistPolicy::manual()).unwrap();
        assert_eq!(report.replayed, 3, "post-recovery append was lost");
        assert_eq!(report.torn_tail_bytes, 0, "tail was truncated at recovery");
        assert_eq!(again.generation(), Generation::from_raw(3));
    }

    #[test]
    fn create_over_stale_media_cannot_resurrect_old_state() {
        // Regression: create() used to write the genesis snapshot before
        // invalidating old media; a crash in between (or just a bug)
        // could leave a *newer-generation* stale slot that recovery
        // would prefer over the genesis.
        let mut old = DurableCaseBase::create(
            &paper::table1_case_base(),
            StoreSet::in_memory(),
            PersistPolicy::manual(),
        )
        .unwrap();
        old.apply(&retain(10, 9)).unwrap();
        old.checkpoint().unwrap(); // lands in slot B
        assert_eq!(old.generation(), Generation::from_raw(1));
        let stale_stores = old.into_stores();

        // Re-create fresh state over the same media.
        let fresh =
            DurableCaseBase::create(&paper::table1_case_base(), stale_stores, PersistPolicy::manual())
                .unwrap();
        let (recovered, report) =
            DurableCaseBase::recover(fresh.into_stores(), PersistPolicy::manual()).unwrap();
        assert_eq!(report.snapshot_generation, Generation::GENESIS);
        assert_eq!(report.replayed, 0);
        assert_eq!(
            recovered.case_base().variant_count(),
            paper::table1_case_base().variant_count(),
            "the stale retained variant must not resurrect"
        );
    }

    #[test]
    fn batch_apply_is_atomic_in_memory_and_one_append_on_media() {
        let mut durable = DurableCaseBase::create(
            &paper::table1_case_base(),
            StoreSet::in_memory(),
            PersistPolicy::manual(),
        )
        .unwrap();
        // A batch with an invalid middle mutation (duplicate impl id 1)
        // must leave memory and media completely untouched.
        let before = durable.case_base().clone();
        let wal_before = durable.wal_bytes().unwrap();
        let err = durable.apply_batch(&[retain(10, 9), retain(1, 9), retain(11, 10)]);
        assert!(matches!(err, Err(PersistError::Core(_))));
        assert_eq!(durable.case_base(), &before, "partial batch rolled back");
        assert_eq!(durable.wal_bytes().unwrap(), wal_before, "nothing written");

        // A valid batch acknowledges every mutation and replays whole.
        let inverses = durable.apply_batch(&[retain(10, 9), retain(11, 10)]).unwrap();
        assert_eq!(inverses.len(), 2);
        assert_eq!(durable.generation(), Generation::from_raw(2));
        let (recovered, report) =
            DurableCaseBase::recover(durable.into_stores(), PersistPolicy::manual()).unwrap();
        assert_eq!(report.replayed, 2);
        assert_eq!(recovered.generation(), Generation::from_raw(2));
    }

    #[test]
    fn torn_batch_append_rolls_back_the_whole_window() {
        // The WAL store's budget covers one frame of a three-frame batch:
        // the single batched append tears, no mutation may be acked.
        let probe = {
            let mut w = Wal::new(MemStore::new());
            w.append_batch(&[crate::StampedMutation {
                generation: Generation::from_raw(1),
                mutation: retain(10, 9),
            }])
            .unwrap();
            w.into_store().bytes().len() as u64
        };
        // Seed genesis state on unconstrained media first, then swap in a
        // WAL whose budget tears mid-batch via recover.
        let seeded = DurableCaseBase::create(
            &paper::table1_case_base(),
            StoreSet::in_memory(),
            PersistPolicy::manual(),
        )
        .unwrap();
        let inner = seeded.into_stores();
        let stores = StoreSet {
            wal: FailingStore::new(inner.wal, probe + 2),
            snap_a: FailingStore::new(inner.snap_a, u64::MAX),
            snap_b: FailingStore::new(inner.snap_b, u64::MAX),
        };
        let (mut durable, _) = DurableCaseBase::recover(stores, PersistPolicy::manual()).unwrap();
        let before = durable.case_base().clone();
        let err = durable.apply_batch(&[retain(10, 9), retain(11, 10), retain(12, 11)]);
        assert!(matches!(err, Err(PersistError::Crashed { .. })));
        assert_eq!(durable.case_base(), &before, "whole window rolled back");
        // The surviving torn prefix holds at most whole unacked frames —
        // recovery may replay them or drop them, but never invents state.
        let surviving = durable.into_stores().map(FailingStore::into_inner);
        let (recovered, report) =
            DurableCaseBase::recover(surviving, PersistPolicy::manual()).unwrap();
        assert!(report.replayed <= 1, "at most the first whole frame");
        assert!(recovered.generation().raw() <= 1);
    }

    #[test]
    fn two_phase_checkpoint_equals_one_phase() {
        let mut durable = DurableCaseBase::create(
            &paper::table1_case_base(),
            StoreSet::in_memory(),
            PersistPolicy::manual(),
        )
        .unwrap();
        durable.apply(&retain(10, 9)).unwrap();

        let pending = durable.checkpoint_begin().unwrap();
        assert_eq!(pending.generation(), Generation::from_raw(1));
        // A second begin while one is pending is refused.
        assert!(matches!(
            durable.checkpoint_begin(),
            Err(PersistError::CheckpointInFlight)
        ));
        // A mutation lands *between* begin and finish: it must survive in
        // the log tail the finish keeps.
        durable.apply(&retain(11, 10)).unwrap();
        let written = pending.write();
        durable.checkpoint_finish(written).unwrap();
        assert!(durable.wal_bytes().unwrap() > 0, "post-begin frame kept");
        assert_eq!(durable.since_checkpoint(), 1, "and still owed");

        let (recovered, report) =
            DurableCaseBase::recover(durable.into_stores(), PersistPolicy::manual()).unwrap();
        assert_eq!(report.snapshot_generation, Generation::from_raw(1));
        assert_eq!(report.replayed, 1, "the between-phases mutation replays");
        assert_eq!(report.skipped_older, 0);
        assert_eq!(recovered.generation(), Generation::from_raw(2));
    }

    #[test]
    fn failed_two_phase_write_keeps_previous_checkpoint() {
        let stores = StoreSet {
            wal: FailingStore::new(MemStore::new(), u64::MAX),
            snap_a: FailingStore::new(MemStore::new(), u64::MAX),
            snap_b: FailingStore::new(MemStore::new(), 4), // snapshot tears
        };
        let mut durable =
            DurableCaseBase::create(&paper::table1_case_base(), stores, PersistPolicy::manual())
                .unwrap();
        durable.apply(&retain(10, 9)).unwrap();
        let pending = durable.checkpoint_begin().unwrap();
        let written = pending.write();
        assert!(matches!(
            durable.checkpoint_finish(written),
            Err(PersistError::Crashed { .. })
        ));
        // The slot travelled back: a retry checkpoint is possible (it
        // fails again on this permanently-crashed medium, but the slot
        // keeps round-tripping), and recovery still has genesis + log.
        let retry = durable.checkpoint_begin().expect("slot was reinstalled");
        assert!(durable.checkpoint_finish(retry.write()).is_err());
        let surviving = durable.into_stores().map(FailingStore::into_inner);
        let (recovered, report) =
            DurableCaseBase::recover(surviving, PersistPolicy::manual()).unwrap();
        assert_eq!(report.snapshot_generation, Generation::GENESIS);
        assert_eq!(report.replayed, 1);
        assert_eq!(recovered.generation(), Generation::from_raw(1));
    }

    #[test]
    fn recover_from_empty_media_fails_cleanly() {
        assert!(matches!(
            DurableCaseBase::recover(StoreSet::<MemStore>::in_memory(), PersistPolicy::default()),
            Err(PersistError::NoValidSnapshot)
        ));
    }

    #[test]
    fn generation_gap_is_detected() {
        let mut durable = DurableCaseBase::create(
            &paper::table1_case_base(),
            StoreSet::in_memory(),
            PersistPolicy::manual(),
        )
        .unwrap();
        durable.apply(&retain(10, 9)).unwrap();
        durable.apply(&retain(11, 10)).unwrap();
        let mut stores = durable.into_stores();
        // Surgically remove the *first* record: frames are back to back,
        // so cutting the first frame's bytes leaves a clean-looking log
        // whose stamps start at 2 — recovery must refuse.
        let bytes = stores.wal.bytes().to_vec();
        let first_len = {
            let probe = Wal::new(MemStore::from_bytes(bytes.clone()));
            let n = probe.replay().unwrap().records.len();
            assert_eq!(n, 2);
            // Parse one frame to learn its length.
            match crate::record::parse_frame(&bytes) {
                crate::record::FrameParse::Complete { consumed, .. } => consumed,
                crate::record::FrameParse::Torn => unreachable!(),
            }
        };
        stores.wal = MemStore::from_bytes(bytes[first_len..].to_vec());
        assert!(matches!(
            DurableCaseBase::recover(stores, PersistPolicy::default()),
            Err(PersistError::GenerationGap { .. })
        ));
    }
}
