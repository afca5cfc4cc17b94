//! Length-prefixed, CRC-guarded transport frames of 16-bit words.
//!
//! The wire unit mirrors the WAL frame discipline of `rqfa-persist`:
//! a fixed header, a length-prefixed word payload, and a CRC-32 trailer
//! covering everything after the magic. Layout (little-endian words):
//!
//! ```text
//! word 0   magic        0xCBF7
//! word 1   kind         message discriminator (see `wire`)
//! word 2   len          payload length in words (≤ 65535)
//! word 3…  payload      `len` words
//! trailer  crc          CRC-32 over the bytes of words 1..3+len,
//!                       low word first
//! ```
//!
//! Every field is a word, so a frame is also a valid `memlist`-style
//! word list — the same 16-bit vocabulary as the memory images, the WAL
//! and the snapshots. Decoding rejects any defect (short buffer, wrong
//! magic, flipped bit, trailing garbage) with a clean [`NetError`];
//! `tests` sweep every truncated prefix and every single-byte corruption
//! of valid frames.

use rqfa_persist::crc32;

use crate::error::NetError;

/// First word of every frame.
pub const FRAME_MAGIC: u16 = 0xCBF7;

/// Header size in words: magic, kind, len.
pub const HEADER_WORDS: usize = 3;

/// Trailer size in words: CRC-32, low word first.
pub const TRAILER_WORDS: usize = 2;

/// Maximum payload length in words (the 16-bit length field's range).
pub const MAX_PAYLOAD_WORDS: usize = u16::MAX as usize;

/// One decoded transport frame: a message kind and its word payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message discriminator (see [`crate::wire`]).
    pub kind: u16,
    /// The payload words.
    pub payload: Vec<u16>,
}

/// Serializes words as little-endian bytes.
pub(crate) fn words_to_bytes(words: &[u16]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(words.len() * 2);
    for word in words {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    bytes
}

/// Reassembles little-endian bytes into words.
///
/// # Errors
///
/// [`NetError::Malformed`] on an odd byte count.
pub(crate) fn bytes_to_words(bytes: &[u8]) -> Result<Vec<u16>, NetError> {
    if !bytes.len().is_multiple_of(2) {
        return Err(NetError::Malformed("odd byte count is not a word list"));
    }
    Ok(bytes
        .chunks_exact(2)
        .map(|pair| u16::from_le_bytes([pair[0], pair[1]]))
        .collect())
}

/// Encodes one frame as its on-wire bytes.
///
/// # Errors
///
/// [`NetError::PayloadTooLarge`] past [`MAX_PAYLOAD_WORDS`].
pub fn encode_frame(kind: u16, payload: &[u16]) -> Result<Vec<u8>, NetError> {
    let Ok(len) = u16::try_from(payload.len()) else {
        return Err(NetError::PayloadTooLarge {
            words: payload.len(),
        });
    };
    // The bytes are written once, where they are sent from.
    let mut bytes = Vec::with_capacity((HEADER_WORDS + payload.len() + TRAILER_WORDS) * 2);
    for word in [FRAME_MAGIC, kind, len].iter().chain(payload) {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    // CRC over everything after the magic: kind, len, payload. Low word
    // first, each word little-endian: the CRC's own little-endian bytes.
    let crc = crc32(&bytes[2..]);
    bytes.extend_from_slice(&crc.to_le_bytes());
    Ok(bytes)
}

/// Decodes a byte buffer holding **exactly one** frame. Any deviation —
/// too short, too long, wrong magic, CRC mismatch — is an error; a
/// frame can never silently decode from a damaged buffer.
///
/// # Errors
///
/// [`NetError::Truncated`] for short or odd-sized buffers (and buffers
/// with trailing garbage, which can only be a framing tear),
/// [`NetError::BadMagic`] / [`NetError::BadCrc`] for corruption.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, NetError> {
    let min_bytes = (HEADER_WORDS + TRAILER_WORDS) * 2;
    if bytes.len() < min_bytes || !bytes.len().is_multiple_of(2) {
        return Err(NetError::Truncated);
    }
    let word = |at: usize| u16::from_le_bytes([bytes[2 * at], bytes[2 * at + 1]]);
    if word(0) != FRAME_MAGIC {
        return Err(NetError::BadMagic { found: word(0) });
    }
    let len = usize::from(word(2));
    if bytes.len() != (HEADER_WORDS + len + TRAILER_WORDS) * 2 {
        // A length field disagreeing with the buffer is a tear (or a
        // flipped length bit — either way the CRC words are not where
        // the header claims).
        return Err(NetError::Truncated);
    }
    // The received bytes are checked where they lie; only the payload
    // is copied out.
    let (body, trailer) = bytes.split_at((HEADER_WORDS + len) * 2);
    let expected = crc32(&body[2..]);
    let found = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    if expected != found {
        return Err(NetError::BadCrc { expected, found });
    }
    Ok(Frame {
        kind: word(1),
        payload: bytes_to_words(&body[HEADER_WORDS * 2..])?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let payload: Vec<u16> = (0..37).collect();
        let bytes = encode_frame(9, &payload).unwrap();
        let frame = decode_frame(&bytes).unwrap();
        assert_eq!(frame.kind, 9);
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn empty_payload_round_trips() {
        let bytes = encode_frame(3, &[]).unwrap();
        let frame = decode_frame(&bytes).unwrap();
        assert_eq!(frame, Frame { kind: 3, payload: Vec::new() });
    }

    #[test]
    fn every_truncated_prefix_is_rejected() {
        let bytes = encode_frame(7, &[1, 2, 3, 0xFFFF]).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                decode_frame(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let bytes = encode_frame(7, &[0xAAAA, 0x5555, 0]).unwrap();
        for at in 0..bytes.len() {
            for flip in [0x01u8, 0x80] {
                let mut bad = bytes.clone();
                bad[at] ^= flip;
                assert!(
                    decode_frame(&bad).is_err(),
                    "flip {flip:#04x} at byte {at} must not decode"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_frame(1, &[42]).unwrap();
        bytes.extend_from_slice(&[0, 0]);
        assert!(matches!(decode_frame(&bytes), Err(NetError::Truncated)));
    }

    #[test]
    fn oversized_payload_is_refused_at_encode() {
        let too_big = vec![0u16; MAX_PAYLOAD_WORDS + 1];
        assert!(matches!(
            encode_frame(1, &too_big),
            Err(NetError::PayloadTooLarge { .. })
        ));
    }
}
