//! The append-only write-ahead log of case-base mutations.
//!
//! Frames (see [`crate::record`]) are appended back to back. Replay scans
//! from the front and stops at the first frame that is not complete and
//! CRC-clean: by the [`Store`] atomicity contract only the *last* append
//! can tear, so everything before the tear is intact and everything from
//! the tear on was never acknowledged to any caller — dropping it is
//! correct, not lossy.
//!
//! Where the log ends is found by that scan, not stored anywhere. Behind
//! the frames a medium may carry a reserve of zeros (see
//! [`crate::FileStore`]); the frame magic is non-zero, so zeros never
//! parse as a frame, and a remainder that is *all* zero is the clean
//! end of the log, not a tear. Anything else behind the clean frames is
//! a torn append — and because an in-place write tears by sector, not
//! only by prefix, the remainder may hold a whole, CRC-clean frame
//! behind a hole. The scan never reaches it; the owner must scrub it
//! (rewrite the log) before appending again, or the next frame of the
//! hole's length would splice it back into the log.
//!
//! Compaction (after a snapshot at generation `G`) atomically rewrites
//! the log keeping only records stamped after `G`. Because the rewrite
//! uses [`Store::replace`], a crash during compaction leaves the *old*
//! log — recovery then simply skips the already-snapshotted prefix by
//! generation stamp.

use rqfa_core::Generation;

use crate::error::PersistError;
use crate::record::{encode_frame, parse_frame, FrameParse, StampedMutation};
use crate::store::Store;

/// What a full scan of the log found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// The complete, CRC-clean records in log order.
    pub records: Vec<StampedMutation>,
    /// Offset just past the last clean frame — where the log ends.
    pub clean_len: usize,
    /// Bytes after the clean frames up to the last non-zero one: 0 for a
    /// cleanly closed log, whether or not a zero reserve follows it.
    pub torn_tail_bytes: usize,
    /// Bytes scanned: frames, torn tail and reserve.
    pub total_bytes: usize,
}

impl WalReplay {
    /// Whether the log ended in a torn (crashed) append.
    pub fn has_torn_tail(&self) -> bool {
        self.torn_tail_bytes > 0
    }
}

/// A write-ahead log over any [`Store`].
#[derive(Debug, Clone)]
pub struct Wal<S> {
    store: S,
}

impl<S: Store> Wal<S> {
    /// Wraps a store as a WAL (the store may already hold frames).
    pub fn new(store: S) -> Wal<S> {
        Wal { store }
    }

    /// Appends one record, returning the frame size in bytes. On error
    /// nothing is acknowledged — the write may still have torn onto the
    /// medium; the caller should repair via [`Wal::truncate_to`] (replay
    /// drops the tail either way).
    ///
    /// # Errors
    ///
    /// Propagates the store's write failure and frame-encoding failures
    /// (in the latter case nothing touches the medium).
    pub fn append(&mut self, record: &StampedMutation) -> Result<u64, PersistError> {
        let frame = encode_frame(record)?;
        self.store.append(&frame)?;
        Ok(frame.len() as u64)
    }

    /// Appends a whole batch of records as **one** store write — the group
    /// commit primitive. On a [`FileStore`](crate::FileStore) that is one
    /// `write(2)` plus one `fdatasync` for the entire window instead of
    /// one per record, which is where batched durable throughput comes
    /// from. Returns the total bytes appended.
    ///
    /// Atomicity follows the [`Store`] append contract: a crash can leave
    /// any sector subset of the batch on the medium. Replay then recovers
    /// the whole frames up to the first damaged one — safe, because no
    /// record of the batch was acknowledged to any caller before this
    /// method returned — and reports whatever follows as a torn tail.
    ///
    /// # Errors
    ///
    /// Frame-encoding failures (nothing touches the medium) and the
    /// store's write failure (the write may still have torn; the caller
    /// repairs via [`Wal::truncate_to`]).
    pub fn append_batch(&mut self, records: &[StampedMutation]) -> Result<u64, PersistError> {
        let mut batch = Vec::new();
        for record in records {
            batch.extend_from_slice(&encode_frame(record)?);
        }
        if batch.is_empty() {
            return Ok(0);
        }
        self.store.append(&batch)?;
        Ok(batch.len() as u64)
    }

    /// Atomically rewrites the log as its first `len` bytes — the repair
    /// after a failed append (the caller tracks the last clean length).
    /// It rewrites even when the store reports no more than `len`: an
    /// in-place append that failed may have left bytes behind the
    /// content end that no length shows.
    ///
    /// # Errors
    ///
    /// Propagates store failures; on error the old content survives.
    pub fn truncate_to(&mut self, len: u64) -> Result<(), PersistError> {
        let mut bytes = self.store.read_all()?;
        bytes.truncate(usize::try_from(len).unwrap_or(usize::MAX));
        self.store.replace(&bytes)
    }

    /// Tells the store where the log ends, as a scan of it found
    /// ([`WalReplay::clean_len`]). Only for a log whose remainder is all
    /// zero — the next append lands at `clean_len`, over the reserve.
    pub fn mark_end(&mut self, clean_len: u64) {
        self.store.mark_end(clean_len);
    }

    /// Scans the whole log, returning every clean record, where they
    /// end, and the size of the torn tail, if any. Zeros behind the
    /// clean frames are the medium's reserve, not a tear.
    ///
    /// # Errors
    ///
    /// Propagates the store's read failure. A torn or corrupt tail is
    /// *not* an error — it is reported in the result.
    pub fn replay(&self) -> Result<WalReplay, PersistError> {
        let bytes = self.store.read_all()?;
        let mut records = Vec::new();
        let mut offset = 0usize;
        while offset < bytes.len() {
            match parse_frame(&bytes[offset..]) {
                FrameParse::Complete { record, consumed } => {
                    records.push(record);
                    offset += consumed;
                }
                FrameParse::Torn => break,
            }
        }
        let torn_tail_bytes = bytes[offset..]
            .iter()
            .rposition(|&byte| byte != 0)
            .map_or(0, |last| last + 1);
        Ok(WalReplay {
            records,
            clean_len: offset,
            torn_tail_bytes,
            total_bytes: bytes.len(),
        })
    }

    /// The clean records stamped *after* `through`, in log order — the
    /// replication tail a leader streams to a follower that already
    /// holds a snapshot at generation `through` (the follower applies
    /// them under the same `exactly +1` discipline as recovery). A torn
    /// tail is dropped exactly as [`Wal::replay`] drops it.
    ///
    /// # Errors
    ///
    /// Propagates store read failures.
    pub fn tail_after(&self, through: Generation) -> Result<Vec<StampedMutation>, PersistError> {
        let mut replay = self.replay()?;
        replay.records.retain(|record| record.generation > through);
        Ok(replay.records)
    }

    /// Atomically rewrites the log keeping only records stamped *after*
    /// `through` (a clean compaction also drops any torn tail). Returns
    /// how many records were kept.
    ///
    /// # Errors
    ///
    /// Propagates store failures; on error the previous log content
    /// survives untouched (atomic `replace`).
    pub fn compact_through(&mut self, through: Generation) -> Result<usize, PersistError> {
        let replay = self.replay()?;
        let mut bytes = Vec::new();
        let mut kept = 0usize;
        for record in &replay.records {
            if record.generation > through {
                bytes.extend_from_slice(&encode_frame(record)?);
                kept += 1;
            }
        }
        self.store.replace(&bytes)?;
        Ok(kept)
    }

    /// Atomically drops every byte before `from` and every byte at or
    /// beyond `clean_len`, keeping exactly the frames in `[from,
    /// clean_len)`. This is the checkpoint-finish compaction: the prefix
    /// is covered by the snapshot that just became durable, and anything
    /// past the clean length is unacknowledged garbage from a torn
    /// append. Returns the new log length.
    ///
    /// Unlike [`Wal::compact_through`] this never parses frames, so the
    /// under-lock cost is one bounded read plus one atomic replace — of
    /// the content only; the reserve behind it is neither read nor
    /// rewritten.
    ///
    /// # Errors
    ///
    /// Propagates store failures; on error the old content survives
    /// (atomic `replace`).
    pub fn retain_tail(&mut self, from: u64, clean_len: u64) -> Result<u64, PersistError> {
        let bytes = self.store.read_all()?;
        let hi = usize::try_from(clean_len).unwrap_or(usize::MAX).min(bytes.len());
        let lo = usize::try_from(from).unwrap_or(usize::MAX).min(hi);
        let tail = &bytes[lo..hi];
        self.store.replace(tail)?;
        Ok(tail.len() as u64)
    }

    /// Atomically empties the log (fresh-state initialization).
    ///
    /// # Errors
    ///
    /// Propagates the store's write failure.
    pub fn clear(&mut self) -> Result<(), PersistError> {
        self.store.replace(&[])
    }

    /// The underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the underlying store (in-crate fault-injection
    /// tests).
    #[cfg(test)]
    pub(crate) fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Consumes the WAL, returning the store.
    pub fn into_store(self) -> S {
        self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use rqfa_core::{paper, CaseMutation};

    fn evict(generation: u64) -> StampedMutation {
        StampedMutation {
            generation: Generation::from_raw(generation),
            mutation: CaseMutation::Evict {
                type_id: paper::FIR_EQUALIZER,
                impl_id: paper::IMPL_GP,
            },
        }
    }

    #[test]
    fn append_replay_roundtrip() {
        let mut wal = Wal::new(MemStore::new());
        for g in 1..=5 {
            wal.append(&evict(g)).unwrap();
        }
        let replay = wal.replay().unwrap();
        assert_eq!(replay.records.len(), 5);
        assert!(!replay.has_torn_tail());
        assert_eq!(replay.records[4], evict(5));
        assert_eq!(replay.total_bytes, wal.store().len().unwrap() as usize);
    }

    #[test]
    fn torn_tail_is_dropped_at_every_byte() {
        let mut wal = Wal::new(MemStore::new());
        wal.append(&evict(1)).unwrap();
        wal.append(&evict(2)).unwrap();
        let clean = wal.store().bytes().to_vec();
        let one_frame = clean.len() / 2;
        for keep in 0..clean.len() {
            let torn = Wal::new(MemStore::from_bytes(clean[..keep].to_vec()));
            let replay = torn.replay().unwrap();
            let expect = keep / one_frame; // whole frames that survived
            assert_eq!(replay.records.len(), expect, "keep={keep}");
            assert_eq!(replay.has_torn_tail(), keep % one_frame != 0);
        }
    }

    #[test]
    fn compaction_keeps_only_newer_records() {
        let mut wal = Wal::new(MemStore::new());
        for g in 1..=6 {
            wal.append(&evict(g)).unwrap();
        }
        let kept = wal.compact_through(Generation::from_raw(4)).unwrap();
        assert_eq!(kept, 2);
        let replay = wal.replay().unwrap();
        let stamps: Vec<u64> = replay.records.iter().map(|r| r.generation.raw()).collect();
        assert_eq!(stamps, [5, 6]);
        // Compacting through everything empties the log.
        wal.compact_through(Generation::from_raw(100)).unwrap();
        assert_eq!(wal.replay().unwrap().records.len(), 0);
        assert_eq!(wal.store().len().unwrap(), 0);
    }

    #[test]
    fn batch_append_is_one_write_of_back_to_back_frames() {
        let mut batched = Wal::new(MemStore::new());
        let records: Vec<StampedMutation> = (1..=4).map(evict).collect();
        let bytes = batched.append_batch(&records).unwrap();
        assert_eq!(batched.append_batch(&[]).unwrap(), 0);

        let mut single = Wal::new(MemStore::new());
        for record in &records {
            single.append(record).unwrap();
        }
        assert_eq!(
            batched.store().bytes(),
            single.store().bytes(),
            "a batch is byte-identical to the same records appended singly"
        );
        assert_eq!(bytes as usize, single.store().bytes().len());
        assert_eq!(batched.replay().unwrap().records.len(), 4);
    }

    #[test]
    fn retain_tail_keeps_exactly_the_clean_window() {
        let mut wal = Wal::new(MemStore::new());
        let mut boundaries = vec![0usize];
        for g in 1..=4 {
            wal.append(&evict(g)).unwrap();
            boundaries.push(wal.store().bytes().len());
        }
        // Torn garbage past the acknowledged length.
        let clean_len = boundaries[4] as u64;
        wal.store_mut().append(&[0xBA, 0xD1]).unwrap();
        let kept = wal.retain_tail(boundaries[2] as u64, clean_len).unwrap();
        assert_eq!(kept as usize, boundaries[4] - boundaries[2]);
        let replay = wal.replay().unwrap();
        let stamps: Vec<u64> = replay.records.iter().map(|r| r.generation.raw()).collect();
        assert_eq!(stamps, [3, 4]);
        assert!(!replay.has_torn_tail(), "garbage beyond clean_len dropped");
    }

    #[test]
    fn clear_empties_the_log() {
        let mut wal = Wal::new(MemStore::new());
        wal.append(&evict(1)).unwrap();
        wal.clear().unwrap();
        assert!(wal.into_store().bytes().is_empty());
    }

    #[test]
    fn garbage_between_frames_truncates_from_there() {
        let mut wal = Wal::new(MemStore::new());
        wal.append(&evict(1)).unwrap();
        let mut bytes = wal.store().bytes().to_vec();
        bytes.extend_from_slice(&[0xDE, 0xAD]);
        let frame2 = {
            let mut w = Wal::new(MemStore::new());
            w.append(&evict(2)).unwrap();
            w.into_store().into_bytes()
        };
        bytes.extend_from_slice(&frame2);
        let replay = Wal::new(MemStore::from_bytes(bytes)).replay().unwrap();
        // The record *after* the corruption is unreachable — the scan
        // cannot distinguish garbage length, so it stops. That record was
        // never acknowledged under the append-tear model.
        assert_eq!(replay.records.len(), 1);
        assert!(replay.has_torn_tail());
    }
}
