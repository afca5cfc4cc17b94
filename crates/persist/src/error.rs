//! Error type of the persistence layer.

use core::fmt;

use rqfa_core::{CoreError, Generation};
use rqfa_memlist::MemError;

/// Everything that can go wrong while persisting or recovering a case base.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PersistError {
    /// A replayed mutation or decoded image violated a case-base invariant.
    Core(CoreError),
    /// A snapshot image failed memory-image encoding or decoding.
    Mem(MemError),
    /// An operating-system I/O failure (file stores only).
    Io {
        /// The operation that failed ("append", "replace", "read", …).
        op: &'static str,
        /// The OS error rendered as text.
        message: String,
    },
    /// A [`FailingStore`](crate::FailingStore) exhausted its injected write
    /// budget — the simulated crash point.
    Crashed {
        /// Bytes of the failing write that still reached the medium
        /// (the torn prefix).
        written: u64,
    },
    /// A snapshot image is structurally invalid (bad magic, short read,
    /// CRC mismatch, inconsistent section sizes).
    CorruptSnapshot {
        /// What exactly was wrong.
        reason: &'static str,
    },
    /// WAL replay found a record whose generation stamp does not continue
    /// the sequence — the log is corrupt beyond an honest torn tail.
    GenerationGap {
        /// The stamp recovery expected next.
        expected: Generation,
        /// The stamp actually found.
        found: Generation,
    },
    /// Recovery found no valid snapshot in any slot — there is nothing to
    /// replay the log against.
    NoValidSnapshot,
    /// [`checkpoint_begin`](crate::DurableCaseBase::checkpoint_begin) was
    /// called while an earlier checkpoint was still pending — its slot is
    /// checked out and there is no stale slot left to write into.
    CheckpointInFlight,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Core(e) => write!(f, "case-base violation: {e}"),
            PersistError::Mem(e) => write!(f, "memory-image error: {e}"),
            PersistError::Io { op, message } => write!(f, "i/o failure during {op}: {message}"),
            PersistError::Crashed { written } => {
                write!(f, "injected crash: write torn after {written} byte(s)")
            }
            PersistError::CorruptSnapshot { reason } => {
                write!(f, "corrupt snapshot: {reason}")
            }
            PersistError::GenerationGap { expected, found } => {
                write!(f, "log generation gap: expected {expected}, found {found}")
            }
            PersistError::NoValidSnapshot => write!(f, "no valid snapshot in any slot"),
            PersistError::CheckpointInFlight => {
                write!(f, "a two-phase checkpoint is already pending")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Core(e) => Some(e),
            PersistError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for PersistError {
    fn from(e: CoreError) -> PersistError {
        PersistError::Core(e)
    }
}

impl From<MemError> for PersistError {
    fn from(e: MemError) -> PersistError {
        PersistError::Mem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = PersistError::Crashed { written: 7 };
        assert!(e.to_string().contains("7 byte"));
        let g = PersistError::GenerationGap {
            expected: Generation::from_raw(4),
            found: Generation::from_raw(9),
        };
        assert!(g.to_string().contains("g4") && g.to_string().contains("g9"));
        assert!(PersistError::NoValidSnapshot.to_string().contains("snapshot"));
    }

    #[test]
    fn wraps_core_and_mem_errors() {
        let core: PersistError = CoreError::EmptyCaseBase.into();
        assert!(matches!(core, PersistError::Core(_)));
        use std::error::Error;
        assert!(core.source().is_some());
    }
}
