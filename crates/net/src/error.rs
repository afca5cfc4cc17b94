//! The net plane's error type.

use core::fmt;

use rqfa_core::CoreError;
use rqfa_memlist::MemError;
use rqfa_persist::{PersistError, Unsealed};

/// Everything a wire operation can fail with. Transport defects
/// (truncation, bit flips, wrong magic) and decode failures are all
/// *clean* errors — a damaged frame can never misparse into a valid
/// message, because the CRC covers every payload byte and the message
/// codecs re-validate domain invariants on decode.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// An I/O failure of the underlying stream.
    Io(std::io::Error),
    /// A read timed out (or would block) before a full frame arrived.
    Timeout,
    /// The stream ended inside a frame.
    Truncated,
    /// The frame header's magic word is wrong — not a frame boundary.
    BadMagic {
        /// The word found where [`crate::frame::FRAME_MAGIC`] belongs.
        found: u16,
    },
    /// The frame checksum does not cover its content.
    BadCrc {
        /// CRC-32 recomputed over the received content.
        expected: u32,
        /// CRC-32 carried by the frame.
        found: u32,
    },
    /// The payload length field exceeds the frame format's bound.
    PayloadTooLarge {
        /// The declared payload size in words.
        words: usize,
    },
    /// A structurally valid frame carried a payload the message codec
    /// rejects (unknown kind, short payload, bad enum tag, …).
    Malformed(&'static str),
    /// A decoded payload failed domain validation while rebuilding the
    /// core type (e.g. a request with duplicate attributes).
    Core(CoreError),
    /// A request image failed the memlist layer (oversized image, bad
    /// list structure).
    Mem(MemError),
    /// An embedded WAL frame or snapshot container failed the persist
    /// layer's own validation.
    Persist(PersistError),
    /// The replication stream broke its contract (chunk gap, wrong
    /// total, generation gap, message out of phase).
    Replication(&'static str),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "stream I/O: {e}"),
            NetError::Timeout => write!(f, "read timed out before a full frame arrived"),
            NetError::Truncated => write!(f, "stream ended inside a frame"),
            NetError::BadMagic { found } => {
                write!(f, "bad frame magic {found:#06x}")
            }
            NetError::BadCrc { expected, found } => {
                write!(f, "frame CRC mismatch: computed {expected:#010x}, carried {found:#010x}")
            }
            NetError::PayloadTooLarge { words } => {
                write!(f, "payload of {words} words exceeds the frame bound")
            }
            NetError::Malformed(what) => write!(f, "malformed message: {what}"),
            NetError::Core(e) => write!(f, "decoded payload invalid: {e}"),
            NetError::Mem(e) => write!(f, "request image invalid: {e}"),
            NetError::Persist(e) => write!(f, "embedded persist payload invalid: {e}"),
            NetError::Replication(what) => write!(f, "replication protocol violation: {what}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Core(e) => Some(e),
            NetError::Mem(e) => Some(e),
            NetError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        match e.kind() {
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => NetError::Timeout,
            std::io::ErrorKind::UnexpectedEof => NetError::Truncated,
            _ => NetError::Io(e),
        }
    }
}

impl From<CoreError> for NetError {
    fn from(e: CoreError) -> NetError {
        NetError::Core(e)
    }
}

impl From<MemError> for NetError {
    fn from(e: MemError) -> NetError {
        NetError::Mem(e)
    }
}

impl From<PersistError> for NetError {
    fn from(e: PersistError) -> NetError {
        NetError::Persist(e)
    }
}

impl From<Unsealed> for NetError {
    fn from(e: Unsealed) -> NetError {
        match e {
            Unsealed::Short => NetError::Truncated,
            Unsealed::BadMagic { found } => NetError::BadMagic { found },
            Unsealed::BadCrc { expected, found } => NetError::BadCrc { expected, found },
        }
    }
}
