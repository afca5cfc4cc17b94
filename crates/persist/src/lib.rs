//! # rqfa-persist — durable case bases
//!
//! The paper's memory-list controller is the system's source of truth for
//! allocatable function variants, but the learned case-base mutations of
//! the CBR cycle (*retain* / *revise* / *evict*, §5 outlook) are
//! in-memory only — they evaporate on restart, which makes QoS
//! enforcement meaningless across component restarts. This crate makes
//! them durable:
//!
//! * [`Wal`] — an append-only **write-ahead log** of mutation records,
//!   each a CRC-guarded, generation-stamped frame whose payload reuses
//!   the `memlist` 16-bit word encoding ([`record`]);
//! * [`snapshot`] — periodic **full snapshots** as canonical `memlist`
//!   CB-MEM images in a CRC-guarded container, alternating between two
//!   slots so the newest durable snapshot is never overwritten in place;
//! * [`DurableCaseBase`] — the orchestrator: apply → log → ack, a
//!   checkpoint (snapshot + log compaction) due every N mutations, and
//!   [`recovery`](DurableCaseBase::recover) that restores exactly the
//!   acknowledged prefix after any crash;
//! * [`seal`] / [`open`] — the one `magic | body | CRC-32` envelope
//!   both formats (and `rqfa-net`'s wire frames) are written in;
//! * [`FailingStore`] — deterministic **crash injection**: a [`Store`]
//!   decorator that tears a write at an exact byte offset, or by any
//!   subset of the sectors it touches, so the workspace harness
//!   (`tests/persist_recovery.rs`) can prove recovery across torn WAL
//!   tails, mid-snapshot crashes and
//!   crash-between-snapshot-and-compaction, byte by byte.
//!
//! ## Quick start
//!
//! ```
//! use rqfa_core::{paper, CaseMutation, FixedEngine};
//! use rqfa_persist::{DurableCaseBase, PersistPolicy, StoreSet};
//!
//! // Durable state on any Store — in-memory here, files in production.
//! let mut durable = DurableCaseBase::create(
//!     &paper::table1_case_base(),
//!     StoreSet::in_memory(),
//!     PersistPolicy::default(),
//! )?;
//! durable.apply(&CaseMutation::Evict {
//!     type_id: paper::FIR_EQUALIZER,
//!     impl_id: paper::IMPL_GP,
//! })?;
//!
//! // Crash + recover: the mutation survived.
//! let (recovered, report) =
//!     DurableCaseBase::recover(durable.into_stores(), PersistPolicy::default())?;
//! assert_eq!(report.replayed, 1);
//! assert_eq!(recovered.since_checkpoint(), 1, "the debt survives the crash");
//! let request = paper::table1_request()?;
//! let best = FixedEngine::new()
//!     .retrieve(recovered.case_base(), &request)?
//!     .best
//!     .unwrap();
//! assert_eq!(best.impl_id, paper::IMPL_DSP);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc;
mod durable;
mod error;
pub mod record;
pub mod snapshot;
pub mod stats;
mod store;
mod wal;

pub use crc::{crc32, open, seal, Unsealed};
pub use durable::{
    DurableCaseBase, PendingCheckpoint, PersistPolicy, RecoveryReport, StoreSet, WrittenCheckpoint,
};
pub use stats::PersistStats;
pub use error::PersistError;
pub use record::{
    append_frame, decode_frame, encode_frame, parse_frame, FrameParse, StampedMutation,
    RECORD_MAGIC,
};
pub use snapshot::{
    decode_snapshot, encode_snapshot, read_snapshot, write_snapshot, Snapshot, SNAPSHOT_MAGIC,
};
pub use store::{FailingStore, FileStore, MemStore, Store, SECTOR_BYTES};
pub use wal::{Wal, WalReplay};

#[cfg(test)]
mod randomized;
