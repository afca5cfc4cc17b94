//! Decoding memory images back into core structures.
//!
//! The image stores only retrieval-relevant data: ids, values, bounds,
//! reciprocals and weights. Execution targets, human-readable names and
//! resource footprints are *not* part of the hardware's memory layout —
//! decoding reconstructs semantically equivalent [`CaseBase`]/[`Request`]
//! values with default targets and generated names. Retrieval results over
//! a decoded case base are bit-identical to the original (round-trip
//! property tested in `tests/` at the workspace root).

use rqfa_core::{
    AttrBinding, AttrDecl, AttrId, BoundsTable, CaseBase, FunctionType, ImplId, ImplVariant,
    Request, TypeId,
};

use crate::error::MemError;
use crate::layout::{CaseBaseImage, RequestImage, REQ_BLOCK_WORDS, SUPPL_BLOCK_WORDS};
use crate::word::{MemImage, Words, END_MARKER};

/// One parsed supplemental-list entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupplementalEntry {
    /// Attribute id.
    pub attr: u16,
    /// Lower design bound.
    pub lower: u16,
    /// Upper design bound.
    pub upper: u16,
    /// Raw UQ1.15 reciprocal `1/(1+d_max)`.
    pub recip: u16,
}

/// Parses the supplemental list of a case-base image.
///
/// # Errors
///
/// Structural errors ([`MemError::UnterminatedList`],
/// [`MemError::TruncatedBlock`], [`MemError::OutOfRange`]).
pub fn decode_supplemental(image: &CaseBaseImage) -> Result<Vec<SupplementalEntry>, MemError> {
    let words = image.image();
    let base = image.supplemental_base()?;
    let mut entries = Vec::new();
    let mut addr = base;
    loop {
        let first = words.read(addr)?;
        if first == END_MARKER {
            return Ok(entries);
        }
        let lower = words
            .read(addr + 1)
            .map_err(|_| MemError::TruncatedBlock { at: addr })?;
        let upper = words
            .read(addr + 2)
            .map_err(|_| MemError::TruncatedBlock { at: addr })?;
        let recip = words
            .read(addr + 3)
            .map_err(|_| MemError::TruncatedBlock { at: addr })?;
        entries.push(SupplementalEntry {
            attr: first,
            lower,
            upper,
            recip,
        });
        addr = addr
            .checked_add(SUPPL_BLOCK_WORDS)
            .ok_or(MemError::UnterminatedList { start: base })?;
    }
}

/// Walks a `(id, pointer)`-entry list, returning the pairs.
fn decode_pointer_list(words: &MemImage, base: u16) -> Result<Vec<(u16, u16)>, MemError> {
    let mut out = Vec::new();
    let mut addr = base;
    loop {
        let id = words.read(addr)?;
        if id == END_MARKER {
            return Ok(out);
        }
        let ptr = words
            .read(addr + 1)
            .map_err(|_| MemError::TruncatedBlock { at: addr })?;
        out.push((id, ptr));
        addr = addr
            .checked_add(2)
            .ok_or(MemError::UnterminatedList { start: base })?;
    }
}

/// Walks an `(attr, value)`-entry list.
fn decode_attr_list(words: &MemImage, base: u16) -> Result<Vec<(u16, u16)>, MemError> {
    let mut out = Vec::new();
    let mut addr = base;
    loop {
        let id = words.read(addr)?;
        if id == END_MARKER {
            return Ok(out);
        }
        let value = words
            .read(addr + 1)
            .map_err(|_| MemError::TruncatedBlock { at: addr })?;
        out.push((id, value));
        addr = addr
            .checked_add(2)
            .ok_or(MemError::UnterminatedList { start: base })?;
    }
}

/// Rebuilds a [`CaseBase`] from an image.
///
/// Execution targets default to [`rqfa_core::ExecutionTarget::GpProcessor`]
/// and names are generated (`"type-<id>"`); see the module docs.
///
/// # Errors
///
/// Structural errors for malformed images, [`MemError::Core`] if the data
/// violates case-base invariants (unsorted lists surface here too).
pub fn decode_case_base(image: &CaseBaseImage) -> Result<CaseBase, MemError> {
    let words = image.image();
    let supplemental = decode_supplemental(image)?;
    let mut decls = Vec::with_capacity(supplemental.len());
    for entry in &supplemental {
        let id = AttrId::new(entry.attr).map_err(MemError::Core)?;
        decls.push(
            AttrDecl::new(id, format!("attr-{}", entry.attr), entry.lower, entry.upper)
                .map_err(MemError::Core)?,
        );
    }
    let bounds = BoundsTable::from_decls(decls).map_err(MemError::Core)?;

    let tree_base = image.tree_base()?;
    let mut types = Vec::new();
    for (type_raw, impl_ptr) in decode_pointer_list(words, tree_base)? {
        let type_id = TypeId::new(type_raw).map_err(MemError::Core)?;
        let mut variants = Vec::new();
        for (impl_raw, attr_ptr) in decode_pointer_list(words, impl_ptr)? {
            let impl_id = ImplId::new(impl_raw).map_err(MemError::Core)?;
            let mut bindings = Vec::new();
            for (attr_raw, value) in decode_attr_list(words, attr_ptr)? {
                let attr = AttrId::new(attr_raw).map_err(MemError::Core)?;
                bindings.push(AttrBinding::new(attr, value));
            }
            variants.push(
                ImplVariant::new(impl_id, rqfa_core::ExecutionTarget::GpProcessor, bindings)
                    .map_err(MemError::Core)?,
            );
        }
        types.push(
            FunctionType::new(type_id, format!("type-{type_raw}"), variants)
                .map_err(MemError::Core)?,
        );
    }
    CaseBase::new(bounds, types).map_err(MemError::Core)
}

/// Rebuilds a [`Request`] from a Req-MEM image.
///
/// A list in normal form — constraints strictly ascending by attribute,
/// UQ1.15 weights summing to exactly `0x8000`, which is what
/// [`crate::encode_request`] emits — becomes the request directly
/// ([`Request::from_normalized`]): the weight words *are* its quantized
/// weights, so the round trip is fingerprint-stable by construction. Any
/// other list goes through the validating [`Request::builder`], its
/// weight words taken as relative weights; for a list in normal form the
/// builder computes the same value, bit for bit.
///
/// # Errors
///
/// Structural errors for malformed images, [`MemError::Core`] for semantic
/// violations (duplicate attributes, zero weights).
pub fn decode_request(image: &RequestImage) -> Result<Request, MemError> {
    decode_request_words(image.image().words())
}

/// [`decode_request`] over the words where they lie ([`Words`]): a
/// request off the wire is decoded in the receive buffer, without a
/// [`RequestImage`] built to hold it. Words behind the terminator are
/// not read.
///
/// # Errors
///
/// As [`decode_request`]; [`MemError::ImageTooLarge`] past the 16-bit
/// address space.
pub fn decode_request_words<W: Words + ?Sized>(words: &W) -> Result<Request, MemError> {
    if words.len() > usize::from(u16::MAX) {
        return Err(MemError::ImageTooLarge { words: words.len() });
    }
    let read = |addr: u16| {
        words.get(usize::from(addr)).ok_or(MemError::OutOfRange {
            addr,
            len: words.len(),
        })
    };
    let type_id = TypeId::new(read(0)?).map_err(MemError::Core)?;
    // The constraint block at `addr`, `None` at the terminator.
    let block = |addr: u16| -> Result<Option<(AttrId, u16, u16)>, MemError> {
        let first = read(addr)?;
        if first == END_MARKER {
            return Ok(None);
        }
        let truncated = |_| MemError::TruncatedBlock { at: addr };
        let value = read(addr + 1).map_err(truncated)?;
        let weight = read(addr + 2).map_err(truncated)?;
        let attr = AttrId::new(first).map_err(MemError::Core)?;
        Ok(Some((attr, value, weight)))
    };
    // First the list's structure, block by block in address order, and
    // its length — so that what is built is allocated once, at its size.
    let mut blocks: u16 = 0;
    let mut addr: u16 = 1;
    while block(addr)?.is_some() {
        blocks += 1;
        addr = addr
            .checked_add(REQ_BLOCK_WORDS)
            .ok_or(MemError::UnterminatedList { start: 1 })?;
    }
    let parts = (0..blocks).map(|index| {
        block(1 + REQ_BLOCK_WORDS * index)
            .ok()
            .flatten()
            .expect("the first pass read this block")
    });
    if let Some(request) = Request::from_normalized(type_id, parts.clone()) {
        return Ok(request);
    }
    parts
        .fold(Request::builder(type_id), |builder, (attr, value, weight)| {
            builder.weighted_constraint(attr, value, f64::from(weight))
        })
        .build()
        .map_err(MemError::Core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_case_base, encode_request};
    use rqfa_core::{paper, FixedEngine};

    #[test]
    fn case_base_roundtrip_preserves_retrieval() {
        let original = paper::table1_case_base();
        let image = encode_case_base(&original).unwrap();
        let decoded = decode_case_base(&image).unwrap();
        assert_eq!(decoded.type_count(), original.type_count());
        assert_eq!(decoded.variant_count(), original.variant_count());
        let request = paper::table1_request().unwrap();
        let engine = FixedEngine::new();
        let a = engine.retrieve(&original, &request).unwrap().best.unwrap();
        let b = engine.retrieve(&decoded, &request).unwrap().best.unwrap();
        assert_eq!(a.impl_id, b.impl_id);
        assert_eq!(a.similarity, b.similarity);
    }

    #[test]
    fn request_roundtrip_is_fingerprint_stable() {
        let original = paper::table1_request().unwrap();
        let image = encode_request(&original).unwrap();
        let decoded = decode_request(&image).unwrap();
        assert_eq!(original.fingerprint(), decoded.fingerprint());
        for (a, b) in original.constraints().iter().zip(decoded.constraints()) {
            assert_eq!(a.attr, b.attr);
            assert_eq!(a.value, b.value);
            assert_eq!(a.weight_q15, b.weight_q15);
        }
    }

    /// The builder route every request list took before the normalized
    /// one existed: each block fed to [`Request::builder`] as it is read,
    /// weight words as relative weights. The oracle for what
    /// [`decode_request`] must answer, `Ok` or `Err`, for any words.
    fn through_the_builder(words: &[u16]) -> Result<Request, MemError> {
        let image = MemImage::from_words(words.to_vec())?;
        let type_id = TypeId::new(image.read(0)?).map_err(MemError::Core)?;
        let mut builder = Request::builder(type_id);
        let mut addr: u16 = 1;
        loop {
            let first = image.read(addr)?;
            if first == END_MARKER {
                break;
            }
            let truncated = |_| MemError::TruncatedBlock { at: addr };
            let value = image.read(addr + 1).map_err(truncated)?;
            let weight = image.read(addr + 2).map_err(truncated)?;
            let attr = AttrId::new(first).map_err(MemError::Core)?;
            builder = builder.weighted_constraint(attr, value, f64::from(weight));
            addr += 3;
        }
        builder.build().map_err(MemError::Core)
    }

    fn assert_same_answer(words: &[u16], what: &str) {
        let expected = through_the_builder(words);
        let found = decode_request_words(words);
        assert_eq!(found, expected, "{what}: {words:04x?}");
        if let (Ok(found), Ok(expected)) = (&found, &expected) {
            assert_eq!(found.fingerprint(), expected.fingerprint(), "{what}");
            for (a, b) in found.constraints().iter().zip(expected.constraints()) {
                assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "{what}: {words:04x?}");
            }
        }
    }

    #[test]
    fn every_request_list_decodes_to_the_builder_routes_answer() {
        // xorshift64*, as the other seeded sweeps of the workspace.
        let mut state = 0x5EED_0F11_5757u64;
        let mut below = |bound: u64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D) % bound
        };
        let mut normalized = 0;
        for _ in 0..2_000 {
            // A list in normal form: what `encode_request` emits.
            let count = 1 + below(8) as usize;
            let mut cuts: Vec<u64> = (1..count).map(|_| below(0x8001)).collect();
            cuts.sort_unstable();
            cuts.push(0x8000);
            let mut words = vec![1 + below(1_000) as u16];
            let (mut attr, mut low) = (0u16, 0u64);
            for cut in cuts {
                attr += 1 + below(4) as u16;
                words.extend([attr, below(1 << 16) as u16, (cut - low) as u16]);
                low = cut;
            }
            words.push(END_MARKER);
            assert_same_answer(&words, "normal form");
            normalized += usize::from(decode_request_words(&words[..]).is_ok());

            // Every way out of normal form, each still the builder's call.
            let last = words.len() - 2;
            let mut off = words.clone();
            off[last] = off[last].wrapping_add(1 + below(0xFFFE) as u16);
            assert_same_answer(&off, "weight sum off");
            if count > 1 {
                let mut swapped = words.clone();
                let (a, b) = (1, 1 + 3 * (count - 1));
                for k in 0..3 {
                    swapped.swap(a + k, b + k);
                }
                assert_same_answer(&swapped, "unsorted");
                let mut twice = words.clone();
                twice[4] = twice[1];
                assert_same_answer(&twice, "duplicate attribute");
            }
            let mut zeroed = words.clone();
            for block in 0..count {
                zeroed[3 + 3 * block] = 0;
            }
            assert_same_answer(&zeroed, "all weights zero");
            // Reserved ids where a type or an attribute belongs.
            for (at, raw) in [(0, 0), (0, END_MARKER), (1, 0), (last - 2, 0)] {
                let mut reserved = words.clone();
                reserved[at] = raw;
                assert_same_answer(&reserved, "reserved id");
            }
            // Structure: every truncation (the terminator and blocks cut
            // at each word), words behind the terminator, arbitrary words.
            for cut in 0..words.len() {
                assert_same_answer(&words[..cut], "truncated");
            }
            let mut trailing = words.clone();
            trailing.extend((0..below(5)).map(|_| below(1 << 16) as u16));
            assert_same_answer(&trailing, "words behind the terminator");
            let noise: Vec<u16> = (0..below(24)).map(|_| below(1 << 16) as u16).collect();
            assert_same_answer(&noise, "arbitrary words");
        }
        assert_eq!(normalized, 2_000, "the normal-form lists must decode");
        assert_same_answer(&[1, END_MARKER], "empty request");
        assert_same_answer(&[], "no words");
    }

    #[test]
    fn an_oversized_word_list_is_refused_before_it_is_read() {
        let words = vec![1u16; usize::from(u16::MAX) + 1];
        assert_eq!(
            decode_request_words(&words[..]),
            Err(MemError::ImageTooLarge { words: words.len() })
        );
    }

    #[test]
    fn supplemental_entries_match_bounds() {
        let cb = paper::table1_case_base();
        let image = encode_case_base(&cb).unwrap();
        let entries = decode_supplemental(&image).unwrap();
        assert_eq!(entries.len(), 4);
        let rate = entries.iter().find(|e| e.attr == 4).unwrap();
        assert_eq!((rate.lower, rate.upper), (8, 44));
        let expect = rqfa_fixed::recip_plus_one(36).raw();
        assert_eq!(rate.recip, expect);
    }

    #[test]
    fn truncated_image_errors() {
        let cb = paper::table1_case_base();
        let image = encode_case_base(&cb).unwrap();
        let mut words = image.image().words().to_vec();
        words.truncate(words.len() - 3); // chop the tail of the last list
        let broken = CaseBaseImage::from_image(MemImage::from_words(words).unwrap());
        assert!(decode_case_base(&broken).is_err());
    }

    #[test]
    fn garbage_pointer_errors() {
        let words = vec![2, 9999, END_MARKER];
        let broken = CaseBaseImage::from_image(MemImage::from_words(words).unwrap());
        assert!(decode_case_base(&broken).is_err());
    }
}
