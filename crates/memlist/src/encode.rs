//! Encoding core structures into memory images (the design-time tool flow:
//! "We developed some tools in Matlab for creating and exporting all needed
//! data structures (implementation-tree, request list etc.)", §4.2).

use rqfa_core::{CaseBase, Request};

use crate::error::MemError;
use crate::layout::{CaseBaseImage, RequestImage, HEADER_WORDS};
use crate::report::predicted_request_words;
use crate::word::{ImageBuilder, MemImage, WordSink, END_MARKER};

/// Encodes a validated [`CaseBase`] into the canonical CB-MEM image.
///
/// Layout: header (2 pointer words), supplemental list, type directory,
/// implementation lists, attribute lists — all lists presorted by id and
/// `0xFFFF`-terminated (see [`crate::layout`]).
///
/// # Errors
///
/// [`MemError::ImageTooLarge`] if the case base does not fit the 16-bit
/// word address space.
///
/// ```
/// use rqfa_core::paper;
/// use rqfa_memlist::encode_case_base;
///
/// let image = encode_case_base(&paper::table1_case_base())?;
/// // Header + supplemental (4 attrs × 4 + 1) + tree.
/// assert!(image.image().len() > 20);
/// assert_eq!(image.supplemental_base()?, 2);
/// # Ok::<(), rqfa_memlist::MemError>(())
/// ```
pub fn encode_case_base(case_base: &CaseBase) -> Result<CaseBaseImage, MemError> {
    let mut b = ImageBuilder::new();
    // Header placeholders.
    b.push(0).push(0);
    b.section("header", 0);

    // Supplemental list: (attr id, lower, upper, recip)* END.
    let suppl_base = b.cursor();
    for decl in case_base.bounds().iter() {
        let entry = case_base
            .bounds()
            .entry(decl.id())
            .expect("iterating declared attributes");
        b.push(decl.id().raw())
            .push(entry.lower)
            .push(entry.upper)
            .push(entry.recip.raw());
    }
    b.terminate();
    b.section("supplemental", suppl_base);

    // Type directory with placeholder pointers.
    let tree_base = b.cursor();
    let mut type_ptr_slots = Vec::with_capacity(case_base.type_count());
    for ty in case_base.function_types() {
        b.push(ty.id().raw());
        type_ptr_slots.push(b.cursor());
        b.push(0);
    }
    b.terminate();
    b.section("type-directory", tree_base);

    // Implementation lists, one per type, with placeholder attr pointers.
    let impl_base = b.cursor();
    let mut attr_ptr_slots: Vec<u16> = Vec::with_capacity(case_base.variant_count());
    for (ty, ptr_slot) in case_base.function_types().iter().zip(type_ptr_slots) {
        b.patch(ptr_slot, b.cursor());
        for variant in ty.variants() {
            b.push(variant.id().raw());
            attr_ptr_slots.push(b.cursor());
            b.push(0);
        }
        b.terminate();
    }
    b.section("impl-lists", impl_base);

    // Attribute lists, one per variant.
    let attr_base = b.cursor();
    let mut slot_iter = attr_ptr_slots.into_iter();
    for ty in case_base.function_types() {
        for variant in ty.variants() {
            let slot = slot_iter.next().expect("one slot per variant");
            b.patch(slot, b.cursor());
            for binding in variant.attrs() {
                b.push(binding.attr.raw()).push(binding.value);
            }
            b.terminate();
        }
    }
    b.section("attr-lists", attr_base);

    // Patch header.
    b.patch(0, suppl_base);
    b.patch(1, tree_base);

    let (image, sections) = b.finish()?;
    debug_assert!(image.len() >= usize::from(HEADER_WORDS));
    Ok(CaseBaseImage::from_parts(image, sections))
}

/// Encodes a [`Request`] into the Req-MEM image:
/// `[type id, (attr id, value, weight)*, 0xFFFF]` (fig. 4, left).
///
/// # Errors
///
/// [`MemError::ImageTooLarge`] for absurdly large requests (> ~21k
/// constraints).
///
/// ```
/// use rqfa_core::paper;
/// use rqfa_memlist::encode_request;
///
/// let image = encode_request(&paper::table1_request()?)?;
/// // 1 type word + 3 constraints × 3 words + terminator = 11 words.
/// assert_eq!(image.image().len(), 11);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn encode_request(request: &Request) -> Result<RequestImage, MemError> {
    let mut words = Vec::with_capacity(predicted_request_words(request.constraints().len()));
    write_request(&mut words, request)?;
    let image = MemImage::from_words(words)?;
    Ok(RequestImage::from_image_unchecked(image))
}

/// Writes a [`Request`]'s Req-MEM image into `sink` — the words
/// [`encode_request`] builds, written where they go: a wire `Submit`
/// writes them in place into a connection's send buffer.
///
/// # Errors
///
/// [`MemError::ImageTooLarge`] when the image would outgrow the 16-bit
/// address space; then nothing is written.
#[inline]
pub fn write_request(sink: &mut impl WordSink, request: &Request) -> Result<(), MemError> {
    let words = predicted_request_words(request.constraints().len());
    if words > usize::from(u16::MAX) {
        return Err(MemError::ImageTooLarge { words });
    }
    sink.put_word(request.type_id().raw());
    for c in request.constraints() {
        sink.put_word(c.attr.raw());
        sink.put_word(c.value);
        sink.put_word(c.weight_q15.raw());
    }
    sink.put_word(END_MARKER);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqfa_core::paper;

    #[test]
    fn table1_case_base_layout() {
        let cb = paper::table1_case_base();
        let img = encode_case_base(&cb).unwrap();
        let words = img.image();
        // Header.
        let suppl = img.supplemental_base().unwrap();
        let tree = img.tree_base().unwrap();
        assert_eq!(suppl, 2);
        // Supplemental: 4 attrs × 4 words + END = 17 words → tree at 19.
        assert_eq!(tree, 19);
        // Supplemental first block: attr 1, bounds [8,16].
        assert_eq!(words.read(suppl).unwrap(), 1);
        assert_eq!(words.read(suppl + 1).unwrap(), 8);
        assert_eq!(words.read(suppl + 2).unwrap(), 16);
        // Type directory: (1, ptr) (2, ptr) END.
        assert_eq!(words.read(tree).unwrap(), 1);
        assert_eq!(words.read(tree + 2).unwrap(), 2);
        assert_eq!(words.read(tree + 4).unwrap(), END_MARKER);
        // First type's impl list: ids 1, 2, 3.
        let impl_list = words.read(tree + 1).unwrap();
        assert_eq!(words.read(impl_list).unwrap(), 1);
        assert_eq!(words.read(impl_list + 2).unwrap(), 2);
        assert_eq!(words.read(impl_list + 4).unwrap(), 3);
        assert_eq!(words.read(impl_list + 6).unwrap(), END_MARKER);
        // FPGA variant attribute list: (1,16)(2,0)(3,2)(4,44) END.
        let attrs = words.read(impl_list + 1).unwrap();
        let expect = [1u16, 16, 2, 0, 3, 2, 4, 44, END_MARKER];
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(words.read(attrs + i as u16).unwrap(), *want, "word {i}");
        }
    }

    #[test]
    fn sections_cover_entire_image() {
        let img = encode_case_base(&paper::table1_case_base()).unwrap();
        let total: usize = img.sections().iter().map(crate::layout::Section::words).sum();
        assert_eq!(total, img.image().len());
        let names: Vec<&str> = img.sections().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["header", "supplemental", "type-directory", "impl-lists", "attr-lists"]
        );
    }

    #[test]
    fn request_image_matches_paper_size() {
        // Table 3: 10-attribute request = 64 bytes.
        let mut builder = rqfa_core::Request::builder(rqfa_core::TypeId::new(1).unwrap());
        let cb = paper::dense_case_base(10);
        for i in 1..=10u16 {
            builder = builder.constraint(rqfa_core::AttrId::new(i).unwrap(), 5);
        }
        let request = builder.build().unwrap();
        let image = encode_request(&request).unwrap();
        assert_eq!(image.image().bytes(), 64, "Table 3: request = 64 bytes");
        let _ = &cb;
    }

    #[test]
    fn request_words_in_order() {
        let request = paper::table1_request().unwrap();
        let image = encode_request(&request).unwrap();
        let w = image.image();
        assert_eq!(w.read(0).unwrap(), 1); // type
        assert_eq!(w.read(1).unwrap(), 1); // attr 1
        assert_eq!(w.read(2).unwrap(), 16); // value
        assert_eq!(w.read(4).unwrap(), 3); // attr 3
        assert_eq!(w.read(7).unwrap(), 4); // attr 4
        assert_eq!(w.read(10).unwrap(), END_MARKER);
        // Weights sum to exactly 1.0.
        let sum = u32::from(w.read(3).unwrap()) + u32::from(w.read(6).unwrap())
            + u32::from(w.read(9).unwrap());
        assert_eq!(sum, 0x8000);
    }
}
