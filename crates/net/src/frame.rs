//! Length-prefixed, CRC-guarded transport frames of 16-bit words.
//!
//! A frame is `rqfa-persist`'s one envelope ([`rqfa_persist::seal`] /
//! [`rqfa_persist::open`]), the same the WAL records and snapshot
//! containers are written in, around a header and a length-prefixed word
//! payload. Layout (little-endian words, written and read by
//! `rqfa_memlist`'s one codec, [`WordSink`] and [`LeWords`]):
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
//! and the snapshots. The header is parsed in one place
//! (`parse_header`), for a whole frame and for the head of a
//! connection's receive buffer alike. Decoding rejects any defect (short
//! buffer, wrong magic, flipped bit, trailing garbage) with a clean
//! [`NetError`]; `tests` sweep every truncated prefix and every
//! single-byte corruption of valid frames.

use std::borrow::Cow;

use rqfa_memlist::{LeWords, WordSink, Words};
use rqfa_persist::{open, seal};

use crate::error::NetError;

/// First word of every frame.
pub const FRAME_MAGIC: u16 = 0xCBF7;

/// Header size in words: magic, kind, len.
pub const HEADER_WORDS: usize = 3;

/// Trailer size in words: CRC-32, low word first.
pub const TRAILER_WORDS: usize = 2;

/// Maximum payload length in words (the 16-bit length field's range).
pub const MAX_PAYLOAD_WORDS: usize = u16::MAX as usize;

/// Header size in bytes.
pub(crate) const HEADER_BYTES: usize = HEADER_WORDS * 2;

/// One decoded transport frame: a message kind and its word payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message discriminator (see [`crate::wire`]).
    pub kind: u16,
    /// The payload words.
    pub payload: Vec<u16>,
}

/// Where a received payload's words lie: the `[u16]` of a decoded
/// [`Frame`], or the bytes of a frame checked in place ([`LeWords`]). The
/// message decoders are written once, over this.
pub(crate) trait Payload<'a>: Words + Copy {
    /// The words from `at` on (`at` ≤ the length).
    fn tail(self, at: usize) -> Self;

    /// The words copied out.
    fn to_words(self) -> Vec<u16>;

    /// The words as little-endian bytes — borrowed where that is what
    /// they already are.
    fn to_bytes(self) -> Cow<'a, [u8]>;
}

impl<'a> Payload<'a> for &'a [u16] {
    fn tail(self, at: usize) -> &'a [u16] {
        &self[at..]
    }

    fn to_words(self) -> Vec<u16> {
        self.to_vec()
    }

    fn to_bytes(self) -> Cow<'a, [u8]> {
        let mut bytes = Vec::new();
        bytes.put_words(self);
        Cow::Owned(bytes)
    }
}

impl<'a> Payload<'a> for LeWords<'a> {
    fn tail(self, at: usize) -> LeWords<'a> {
        LeWords::tail(self, at)
    }

    fn to_words(self) -> Vec<u16> {
        LeWords::to_words(self)
    }

    fn to_bytes(self) -> Cow<'a, [u8]> {
        Cow::Borrowed(self.as_bytes())
    }
}

/// Writes one frame into `bytes`, replacing what was there: the header,
/// whatever payload `fill` appends (whole words), the CRC trailer. The
/// bytes are written once, where they are sent from — a connection's
/// send buffer, or a vector of their own ([`encode_frame`]).
///
/// # Errors
///
/// What `fill` fails with, and [`NetError::PayloadTooLarge`] past
/// [`MAX_PAYLOAD_WORDS`].
pub(crate) fn write_frame(
    bytes: &mut Vec<u8>,
    kind: u16,
    fill: impl FnOnce(&mut Vec<u8>) -> Result<(), NetError>,
) -> Result<(), NetError> {
    bytes.clear();
    seal(bytes, FRAME_MAGIC, |bytes| {
        // The length is known once the payload lies behind it.
        bytes.put_words(&[kind, 0]);
        fill(bytes)?;
        debug_assert!(bytes.len().is_multiple_of(2), "a payload is whole words");
        let words = (bytes.len() - HEADER_BYTES) / 2;
        let Ok(len) = u16::try_from(words) else {
            return Err(NetError::PayloadTooLarge { words });
        };
        bytes[4..HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
        Ok(())
    })
}

/// Encodes one frame as its on-wire bytes.
///
/// # Errors
///
/// [`NetError::PayloadTooLarge`] past [`MAX_PAYLOAD_WORDS`].
pub fn encode_frame(kind: u16, payload: &[u16]) -> Result<Vec<u8>, NetError> {
    let mut bytes = Vec::with_capacity((HEADER_WORDS + payload.len() + TRAILER_WORDS) * 2);
    write_frame(&mut bytes, kind, |bytes| {
        bytes.put_words(payload);
        Ok(())
    })?;
    Ok(bytes)
}

/// Parses the header at the front of `bytes`: the frame's kind and its
/// whole size in bytes, as the header announces them. `None` while
/// fewer bytes than a header are there.
///
/// # Errors
///
/// [`NetError::BadMagic`] when the first word is not [`FRAME_MAGIC`].
pub(crate) fn parse_header(bytes: &[u8]) -> Result<Option<(u16, usize)>, NetError> {
    let Some(header) = bytes.get(..HEADER_BYTES).and_then(LeWords::new) else {
        return Ok(None);
    };
    let word = |at| header.get(at).expect("a header is three words");
    if word(0) != FRAME_MAGIC {
        return Err(NetError::BadMagic { found: word(0) });
    }
    let len = usize::from(word(2));
    Ok(Some((word(1), (HEADER_WORDS + len + TRAILER_WORDS) * 2)))
}

/// Checks a byte buffer holding **exactly one** frame where it lies and
/// hands out the kind and the payload, still in place. Any deviation —
/// too short, too long, wrong magic, CRC mismatch — is an error; a frame
/// can never silently decode from a damaged buffer.
///
/// # Errors
///
/// As [`decode_frame`].
pub(crate) fn check_frame(bytes: &[u8]) -> Result<(u16, LeWords<'_>), NetError> {
    if bytes.len() < (HEADER_WORDS + TRAILER_WORDS) * 2 || !bytes.len().is_multiple_of(2) {
        return Err(NetError::Truncated);
    }
    let (kind, size) = parse_header(bytes)?.ok_or(NetError::Truncated)?;
    if bytes.len() != size {
        // A length field disagreeing with the buffer is a tear (or a
        // flipped length bit — either way the CRC words are not where
        // the header claims).
        return Err(NetError::Truncated);
    }
    let body = open(bytes, FRAME_MAGIC)?;
    // Behind the kind and the length words: the payload.
    let payload = LeWords::new(&body[4..]).expect("an even frame has an even payload");
    Ok((kind, payload))
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
    let (kind, payload) = check_frame(bytes)?;
    Ok(Frame {
        kind,
        payload: payload.to_words(),
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
