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
//! The one rewrite, [`Wal::retain`], atomically keeps a byte range of
//! the log (compaction after a snapshot, repair after a failed append).
//! Because it uses [`Store::replace`], a crash during it leaves the
//! *old* log — recovery then skips the already-snapshotted prefix by
//! generation stamp ([`Wal::replay_after`]).

use std::ops::Range;

use rqfa_core::Generation;

use crate::error::PersistError;
use crate::record::{append_frame, parse_frame, FrameParse, StampedMutation};
use crate::store::Store;

/// What a full scan of the log found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// The complete, CRC-clean records after the skipped ones, in order.
    pub records: Vec<StampedMutation>,
    /// Clean records skipped (see [`Wal::replay_after`]).
    pub skipped: usize,
    /// Offset just past the skipped records — where `records` begin.
    pub skipped_len: usize,
    /// Offset just past the last clean frame — where the log ends.
    pub clean_len: usize,
    /// Bytes after the clean frames up to the last non-zero one: 0 for a
    /// cleanly closed log, whether or not a zero reserve follows it.
    pub torn_tail_bytes: usize,
    /// Bytes scanned: frames, torn tail and reserve.
    pub total_bytes: usize,
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

    /// Appends records — one, or a group commit — as **one** store
    /// write. On a [`FileStore`](crate::FileStore) that is one
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
    /// The store's write failure (the write may still have torn; the
    /// caller repairs by [`Wal::retain`]ing the acknowledged length).
    pub fn append_batch(&mut self, records: &[StampedMutation]) -> Result<u64, PersistError> {
        let mut batch = Vec::new();
        for record in records {
            append_frame(&mut batch, record);
        }
        if batch.is_empty() {
            return Ok(0);
        }
        self.store.append(&batch)?;
        Ok(batch.len() as u64)
    }

    /// Atomically rewrites the log as the content bytes in `keep`
    /// (clamped), returning the new length. It rewrites even when
    /// `keep` covers the whole content: an in-place append that failed
    /// may have left bytes behind the content end that no length shows.
    ///
    /// # Errors
    ///
    /// Propagates store failures; on error the old content survives
    /// (atomic `replace`).
    pub fn retain(&mut self, keep: Range<u64>) -> Result<u64, PersistError> {
        let bytes = if keep.is_empty() { Vec::new() } else { self.store.read_all()? };
        let end = bytes.len().min(usize::try_from(keep.end).unwrap_or(usize::MAX));
        let start = end.min(usize::try_from(keep.start).unwrap_or(usize::MAX));
        self.store.replace(&bytes[start..end])?;
        Ok((end - start) as u64)
    }

    /// Tells the store where the log ends, as a scan of it found
    /// ([`WalReplay::clean_len`]). Only for a log whose remainder is all
    /// zero — the next append lands at `clean_len`, over the reserve.
    pub fn mark_end(&mut self, clean_len: u64) {
        self.store.mark_end(clean_len);
    }

    /// [`Wal::replay_after`] genesis: every clean record (stamps start
    /// after it).
    ///
    /// # Errors
    ///
    /// As for [`Wal::replay_after`].
    pub fn replay(&self) -> Result<WalReplay, PersistError> {
        self.replay_after(Generation::GENESIS)
    }

    /// Scans the whole log, returning the clean records after the ones at
    /// its front stamped at or below `through`, where each part ends,
    /// and the size of the torn tail, if any. Stamps only ascend, so a
    /// stale stamp *behind* a kept record is kept, for the caller's
    /// `exactly +1` check to refuse. Zeros behind the clean frames are
    /// the medium's reserve, not a tear.
    ///
    /// # Errors
    ///
    /// Propagates the store's read failure. A torn or corrupt tail is
    /// *not* an error — it is reported in the result.
    pub fn replay_after(&self, through: Generation) -> Result<WalReplay, PersistError> {
        let bytes = self.store.read_all()?;
        let mut records = Vec::new();
        let (mut skipped, mut skipped_len) = (0usize, 0usize);
        let mut offset = 0usize;
        while let FrameParse::Complete { record, consumed } = parse_frame(&bytes[offset..]) {
            offset += consumed;
            if records.is_empty() && record.generation <= through {
                skipped += 1;
                skipped_len = offset;
            } else {
                records.push(record);
            }
        }
        let torn_tail_bytes = bytes[offset..]
            .iter()
            .rposition(|&byte| byte != 0)
            .map_or(0, |last| last + 1);
        Ok(WalReplay {
            records,
            skipped,
            skipped_len,
            clean_len: offset,
            torn_tail_bytes,
            total_bytes: bytes.len(),
        })
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
    use crate::record::encode_frame;
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

    /// A log of records stamped `stamps`, one append each.
    fn log_of(stamps: impl IntoIterator<Item = u64>) -> Wal<MemStore> {
        let mut wal = Wal::new(MemStore::new());
        for g in stamps {
            wal.append_batch(&[evict(g)]).unwrap();
        }
        wal
    }

    fn stamps(records: &[StampedMutation]) -> Vec<u64> {
        records.iter().map(|r| r.generation.raw()).collect()
    }

    #[test]
    fn append_replay_roundtrip() {
        let wal = log_of(1..=5);
        let replay = wal.replay().unwrap();
        assert_eq!((replay.records.len(), replay.skipped, replay.torn_tail_bytes), (5, 0, 0));
        assert_eq!(replay.records[4], evict(5));
        assert_eq!(replay.total_bytes, wal.store().len().unwrap() as usize);
    }

    #[test]
    fn compaction_keeps_only_newer_records() {
        let mut wal = log_of(1..=6);
        let clean_len = wal.store().len().unwrap();
        wal.store_mut().append(&[0xBA, 0xD1]).unwrap(); // torn garbage
        let replay = wal.replay_after(Generation::from_raw(4)).unwrap();
        assert_eq!((replay.skipped, replay.clean_len as u64), (4, clean_len));
        assert_eq!(replay.skipped_len, replay.clean_len / 6 * 4, "four of six equal frames");
        let kept = wal.retain(replay.skipped_len as u64..clean_len).unwrap();
        assert_eq!(kept as usize, replay.clean_len - replay.skipped_len);
        let replay = wal.replay().unwrap();
        assert_eq!(stamps(&replay.records), [5, 6]);
        assert_eq!(replay.torn_tail_bytes, 0, "garbage beyond the range dropped");
        assert_eq!(wal.retain(0..u64::MAX).unwrap(), kept, "clamped to the content");
        // A stale stamp behind a kept record is not part of the prefix.
        let replay = log_of([1, 2, 3, 1]).replay_after(Generation::from_raw(1)).unwrap();
        assert_eq!((replay.skipped, stamps(&replay.records)), (1, vec![2, 3, 1]));
    }

    #[test]
    fn batch_append_is_one_write_of_back_to_back_frames() {
        let mut batched = Wal::new(MemStore::new());
        let records: Vec<StampedMutation> = (1..=4).map(evict).collect();
        let bytes = batched.append_batch(&records).unwrap();
        assert_eq!(batched.append_batch(&[]).unwrap(), 0);

        let frames: Vec<u8> = records.iter().flat_map(encode_frame).collect();
        assert_eq!(batched.store().bytes(), frames, "the records' frames back to back");
        assert_eq!(bytes as usize, frames.len());
        assert_eq!(batched.replay().unwrap().records.len(), 4);
    }

    #[test]
    fn garbage_between_frames_truncates_from_there() {
        let mut bytes = log_of([1]).into_store().into_bytes();
        bytes.extend_from_slice(&[0xDE, 0xAD]);
        bytes.extend_from_slice(&encode_frame(&evict(2)));
        let replay = Wal::new(MemStore::from_bytes(bytes)).replay().unwrap();
        // The record *after* the corruption is unreachable — the scan
        // cannot distinguish garbage length, so it stops. That record was
        // never acknowledged under the append-tear model.
        assert_eq!(replay.records.len(), 1);
        assert!(replay.torn_tail_bytes > 0);
    }

    #[test]
    fn clear_empties_the_log() {
        let mut wal = log_of([1]);
        assert_eq!(wal.retain(0..0).unwrap(), 0);
        assert!(wal.into_store().bytes().is_empty());
    }
}
