//! The write-ahead-log record format.
//!
//! Every case-base mutation becomes one self-delimiting record whose
//! payload reuses the `memlist` 16-bit word idiom (presorted attribute
//! pairs, `0xFFFF` terminator) — the same encoding the hardware images
//! use, so a WAL payload *is* a tiny memory-image list. The record is a
//! [`seal`]ed envelope, its words written and read by
//! `rqfa_memlist`'s one little-endian codec ([`WordSink`], [`LeWords`]):
//!
//! ```text
//! offset  size  field
//! 0       2     magic            0xCB1C, little-endian
//! 2       8     generation       u64 LE — the stamp the mutation produced
//! 10      2     kind             1 retain · 2 revise · 3 evict
//! 12      2     payload words    n (u16 LE)
//! 14      2n    payload          n × u16 LE words (see below)
//! 14+2n   4     crc32            over bytes [2, 14+2n) — everything but
//!                                the magic
//! ```
//!
//! Payload words:
//!
//! * retain / revise: `type_id, impl_id, target, (attr, value)*, 0xFFFF`
//! * evict: `type_id, impl_id, 0xFFFF`
//!
//! The target word is [`ExecutionTarget::word`]. Resource footprints and
//! human-readable names are *not* persisted — they are not part of the
//! hardware memory layout either (see `rqfa_memlist::decode`), and
//! retrieval results do not depend on them.
//!
//! Any structural defect — short frame, wrong magic, CRC mismatch,
//! malformed payload — parses as [`FrameParse::Torn`], which replay
//! treats as the end of the durable log (a torn tail, the only thing an
//! honest crashed append can leave behind).

use std::convert::Infallible;

use rqfa_core::{
    AttrBinding, AttrId, CaseMutation, ExecutionTarget, Generation, ImplId, ImplVariant, TypeId,
};
use rqfa_memlist::{LeWords, WordSink, Words, END_MARKER};

use crate::crc::{open, seal};
use crate::error::PersistError;

/// The record magic word.
pub const RECORD_MAGIC: u16 = 0xCB1C;

/// Frame overhead in bytes around the payload words.
pub const FRAME_OVERHEAD: usize = 2 + 8 + 2 + 2 + 4;

/// Word offsets in the body (behind the magic): the generation's four
/// words, then the kind, the payload length and the payload.
const KIND_AT: usize = 4;
const LEN_AT: usize = 5;
const PAYLOAD_AT: usize = 6;

const KIND_RETAIN: u16 = 1;
const KIND_REVISE: u16 = 2;
const KIND_EVICT: u16 = 3;

/// A mutation plus the generation stamp it produced when applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampedMutation {
    /// The case-base generation *after* the mutation applied.
    pub generation: Generation,
    /// The mutation itself.
    pub mutation: CaseMutation,
}

/// Encodes one stamped mutation as a self-delimiting WAL frame.
///
/// # Panics
///
/// As [`append_frame`].
pub fn encode_frame(stamped: &StampedMutation) -> Vec<u8> {
    let mut frame = Vec::new();
    append_frame(&mut frame, stamped);
    frame
}

/// Appends one stamped mutation's WAL frame to `out`: a log batch, or a
/// wire frame carrying the record as it lands on disk.
///
/// # Panics
///
/// If the payload outgrows its 16-bit length word: a variant with more
/// than 32 765 attributes, which no case base can declare usefully.
pub fn append_frame(out: &mut Vec<u8>, stamped: &StampedMutation) {
    let (kind, type_id, impl_id, variant) = match &stamped.mutation {
        CaseMutation::Retain { type_id, variant } => {
            (KIND_RETAIN, type_id, variant.id(), Some(variant))
        }
        CaseMutation::Revise { type_id, variant } => {
            (KIND_REVISE, type_id, variant.id(), Some(variant))
        }
        CaseMutation::Evict { type_id, impl_id } => (KIND_EVICT, type_id, *impl_id, None),
    };
    let payload_words = 3 + variant.map_or(0, |v| 1 + 2 * v.attr_count());
    let len = u16::try_from(payload_words).expect("mutation payloads are tiny");
    out.reserve(FRAME_OVERHEAD + 2 * payload_words);
    let Ok(()) = seal(out, RECORD_MAGIC, |body| {
        body.extend_from_slice(&stamped.generation.raw().to_le_bytes());
        body.put_words(&[kind, len, type_id.raw(), impl_id.raw()]);
        if let Some(variant) = variant {
            body.put_word(variant.target().word());
            for binding in variant.attrs() {
                body.put_words(&[binding.attr.raw(), binding.value]);
            }
        }
        body.put_word(END_MARKER);
        Ok::<_, Infallible>(())
    });
}

/// The outcome of parsing one frame at the head of a byte slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameParse {
    /// A complete, CRC-clean frame of `consumed` bytes.
    Complete {
        /// The decoded record.
        record: StampedMutation,
        /// Bytes the frame occupied.
        consumed: usize,
    },
    /// The bytes do not start with a complete valid frame — a torn or
    /// corrupt tail.
    Torn,
}

/// The mutation a payload of kind `kind` encodes, read where its words
/// lie; `None` for anything but exactly one well-formed payload.
fn decode_mutation(kind: u16, payload: LeWords<'_>) -> Option<CaseMutation> {
    let word = |at| payload.get(at);
    let type_id = TypeId::new(word(0)?).ok()?;
    let impl_id = ImplId::new(word(1)?).ok()?;
    match kind {
        KIND_EVICT => {
            if word(2)? != END_MARKER || payload.len() != 3 {
                return None;
            }
            Some(CaseMutation::Evict { type_id, impl_id })
        }
        KIND_RETAIN | KIND_REVISE => {
            let target = ExecutionTarget::from_word(word(2)?)?;
            // `(attr, value)` pairs, as a memlist attribute list, up to
            // the terminator — which must close the payload exactly.
            let mut attrs = Vec::new();
            let mut at = 3;
            while word(at)? != END_MARKER {
                let attr = AttrId::new(word(at)?).ok()?;
                attrs.push(AttrBinding::new(attr, word(at + 1)?));
                at += 2;
            }
            if payload.len() != at + 1 {
                return None;
            }
            let variant = ImplVariant::new(impl_id, target, attrs).ok()?;
            if kind == KIND_RETAIN {
                Some(CaseMutation::Retain { type_id, variant })
            } else {
                Some(CaseMutation::Revise { type_id, variant })
            }
        }
        _ => None,
    }
}

/// Parses the frame at the head of `bytes`.
pub fn parse_frame(bytes: &[u8]) -> FrameParse {
    match parse(bytes) {
        Some((record, consumed)) => FrameParse::Complete { record, consumed },
        None => FrameParse::Torn,
    }
}

/// The record at the head of `bytes` and its size, `None` for a torn one.
fn parse(bytes: &[u8]) -> Option<(StampedMutation, usize)> {
    // The body's words ahead of the payload say how long the record is.
    let head = LeWords::new(bytes.get(2..2 + 2 * PAYLOAD_AT)?)?;
    let total = FRAME_OVERHEAD + 2 * usize::from(head.get(LEN_AT)?);
    let body = open(bytes.get(..total)?, RECORD_MAGIC).ok()?;
    let generation = Generation::from_raw(u64::from_le_bytes(*body.first_chunk()?));
    let words = LeWords::new(body)?;
    let mutation = decode_mutation(words.get(KIND_AT)?, words.tail(PAYLOAD_AT))?;
    let record = StampedMutation {
        generation,
        mutation,
    };
    Some((record, total))
}
/// Decodes a frame that must be complete and valid (tests, tools).
///
/// Prefer [`parse_frame`] when scanning a log, where a torn tail is an
/// expected, recoverable condition rather than an error.
///
/// # Errors
///
/// [`PersistError::CorruptSnapshot`] when the frame is torn or corrupt.
pub fn decode_frame(bytes: &[u8]) -> Result<StampedMutation, PersistError> {
    match parse_frame(bytes) {
        FrameParse::Complete { record, .. } => Ok(record),
        FrameParse::Torn => Err(PersistError::CorruptSnapshot {
            reason: "frame is torn or corrupt",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqfa_core::paper;

    fn retain() -> StampedMutation {
        let variant = ImplVariant::new(
            ImplId::new(9).unwrap(),
            ExecutionTarget::Dedicated(7),
            vec![
                AttrBinding::new(paper::ATTR_BITWIDTH, 12),
                AttrBinding::new(paper::ATTR_RATE, 30),
            ],
        )
        .unwrap();
        StampedMutation {
            generation: Generation::from_raw(17),
            mutation: CaseMutation::Retain {
                type_id: paper::FIR_EQUALIZER,
                variant,
            },
        }
    }

    fn revise() -> StampedMutation {
        StampedMutation {
            generation: Generation::from_raw(2),
            mutation: CaseMutation::Revise {
                type_id: paper::FFT_1D,
                variant: ImplVariant::new(
                    paper::IMPL_DSP,
                    ExecutionTarget::Dsp,
                    vec![AttrBinding::new(paper::ATTR_BITWIDTH, 24)],
                )
                .unwrap(),
            },
        }
    }

    fn evict() -> StampedMutation {
        StampedMutation {
            generation: Generation::from_raw(u64::MAX),
            mutation: CaseMutation::Evict {
                type_id: paper::FIR_EQUALIZER,
                impl_id: paper::IMPL_GP,
            },
        }
    }

    #[test]
    fn frame_roundtrip_all_kinds() {
        for record in [retain(), revise(), evict()] {
            let frame = encode_frame(&record);
            match parse_frame(&frame) {
                FrameParse::Complete {
                    record: decoded,
                    consumed,
                } => {
                    assert_eq!(decoded, record);
                    assert_eq!(consumed, frame.len());
                }
                FrameParse::Torn => panic!("clean frame parsed as torn"),
            }
            assert_eq!(decode_frame(&frame).unwrap(), record);
        }
    }

    #[test]
    fn every_truncation_is_torn_not_panic() {
        let frame = encode_frame(&retain());
        for keep in 0..frame.len() {
            assert_eq!(
                parse_frame(&frame[..keep]),
                FrameParse::Torn,
                "prefix of {keep} bytes must parse as torn"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let frame = encode_frame(&retain());
        for byte in 0..frame.len() {
            for bit in 0..8u8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                match parse_frame(&bad) {
                    FrameParse::Torn => {}
                    FrameParse::Complete { record, .. } => {
                        panic!("flip at {byte}:{bit} went undetected: {record:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_do_not_confuse_the_parser() {
        let frame = encode_frame(&retain());
        let mut stream = frame.clone();
        stream.extend_from_slice(&[0xAB; 13]);
        match parse_frame(&stream) {
            FrameParse::Complete { consumed, .. } => assert_eq!(consumed, frame.len()),
            FrameParse::Torn => panic!("leading frame must still parse"),
        }
    }

    // One record of each kind as the log has always written it. The
    // layout is the on-disk contract: recovery reads logs written by
    // every earlier build, so these bytes never change.
    const RETAIN: &[u8] = &[
        0x1c, 0xcb, 0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
        0x08, 0x00, 0x01, 0x00, 0x09, 0x00, 0x07, 0x01, 0x01, 0x00, 0x0c, 0x00,
        0x04, 0x00, 0x1e, 0x00, 0xff, 0xff, 0xc4, 0x98, 0x98, 0x70,
    ];
    const REVISE: &[u8] = &[
        0x1c, 0xcb, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00,
        0x06, 0x00, 0x02, 0x00, 0x02, 0x00, 0x01, 0x00, 0x01, 0x00, 0x18, 0x00,
        0xff, 0xff, 0xec, 0x98, 0x2b, 0xc1,
    ];
    const EVICT: &[u8] = &[
        0x1c, 0xcb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x03, 0x00,
        0x03, 0x00, 0x01, 0x00, 0x03, 0x00, 0xff, 0xff, 0x93, 0xab, 0xcc, 0xd3,
    ];

    #[test]
    fn every_record_kind_is_its_golden_frame() {
        for (golden, record) in [(RETAIN, retain()), (REVISE, revise()), (EVICT, evict())] {
            assert_eq!(encode_frame(&record), golden, "{record:?}");
            assert_eq!(decode_frame(golden).unwrap(), record);
        }
    }
}
