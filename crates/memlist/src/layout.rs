//! Image layouts: where the lists of figs. 4–5 live inside the RAM blocks.
//!
//! The hardware retrieval unit uses two memories (fig. 7): **CB-MEM** holds
//! the case base (supplemental list + implementation tree), **Req-MEM**
//! holds one request. This module defines the canonical layout:
//!
//! ```text
//! CB-MEM                                Req-MEM
//! ┌──────────────────────────────┐      ┌─────────────────────────────┐
//! │ 0: ptr → supplemental list   │      │ 0: function type id         │
//! │ 1: ptr → type directory      │      │ 1: attr id   ┐              │
//! │ supplemental list:           │      │ 2: value     │ per          │
//! │   (id, lower, upper, recip)* │      │ 3: weight    ┘ constraint   │
//! │   0xFFFF                     │      │ …  (presorted by attr id)   │
//! │ type directory (level 0):    │      │ n: 0xFFFF                   │
//! │   (type id, ptr)* 0xFFFF     │      └─────────────────────────────┘
//! │ impl lists (level 1):        │
//! │   (impl id, ptr)* 0xFFFF     │
//! │ attribute lists (level 2):   │
//! │   (attr id, value)* 0xFFFF   │
//! └──────────────────────────────┘
//! ```
//!
//! All lists are presorted by ascending id; `0xFFFF` terminates each list.

use crate::error::MemError;
use crate::word::MemImage;

/// Word address of the pointer to the supplemental list in CB-MEM.
pub const SUPPL_PTR_ADDR: u16 = 0;
/// Word address of the pointer to the type directory in CB-MEM.
pub const TREE_PTR_ADDR: u16 = 1;
/// Number of header words in CB-MEM.
pub const HEADER_WORDS: u16 = 2;
/// Words per supplemental-list block: `(id, lower, upper, recip)`.
pub const SUPPL_BLOCK_WORDS: u16 = 4;
/// Words per request constraint block: `(id, value, weight)`.
pub const REQ_BLOCK_WORDS: u16 = 3;

/// A named section of an image, for memory accounting (Table 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section name (e.g. `"attr-lists"`).
    pub name: String,
    /// Word-address range.
    pub range: core::ops::Range<usize>,
}

impl Section {
    /// Section length in words.
    pub fn words(&self) -> usize {
        self.range.len()
    }

    /// Section length in bytes.
    pub fn bytes(&self) -> usize {
        self.range.len() * 2
    }
}

/// An encoded case base (CB-MEM content) with its section map.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseBaseImage {
    image: MemImage,
    sections: Vec<Section>,
}

impl CaseBaseImage {
    pub(crate) fn from_parts(
        image: MemImage,
        sections: Vec<(String, core::ops::Range<usize>)>,
    ) -> CaseBaseImage {
        CaseBaseImage {
            image,
            sections: sections
                .into_iter()
                .map(|(name, range)| Section { name, range })
                .collect(),
        }
    }

    /// Wraps a raw image without section information (e.g. loaded from a
    /// repository). Run [`crate::validate::validate_case_base`] before
    /// trusting it.
    pub fn from_image(image: MemImage) -> CaseBaseImage {
        CaseBaseImage {
            image,
            sections: Vec::new(),
        }
    }

    /// The raw words.
    pub fn image(&self) -> &MemImage {
        &self.image
    }

    /// Section map (empty for images wrapped via [`Self::from_image`]).
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Base address of the supplemental list.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the image lacks the header.
    pub fn supplemental_base(&self) -> Result<u16, MemError> {
        self.image.read(SUPPL_PTR_ADDR)
    }

    /// Base address of the type directory (implementation-tree level 0).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] if the image lacks the header.
    pub fn tree_base(&self) -> Result<u16, MemError> {
        self.image.read(TREE_PTR_ADDR)
    }
}

/// An encoded request (Req-MEM content).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestImage {
    image: MemImage,
}

impl RequestImage {
    pub(crate) fn from_image_unchecked(image: MemImage) -> RequestImage {
        RequestImage { image }
    }

    /// Wraps a raw image. Run [`crate::validate::validate_request`] before
    /// trusting it.
    pub fn from_image(image: MemImage) -> RequestImage {
        RequestImage { image }
    }

    /// Wraps raw words (e.g. a request arriving off the wire — the word
    /// format doubles as the RPC payload encoding). Only the image-size
    /// bound is checked here; structural trust comes from
    /// [`crate::decode::decode_request`], which accepts a list in normal
    /// form as it is and rebuilds any other through the validating
    /// [`rqfa_core::Request`] builder, or from
    /// [`crate::validate::validate_request`].
    ///
    /// # Errors
    ///
    /// [`MemError::ImageTooLarge`] past the 16-bit address space.
    pub fn from_words(words: Vec<u16>) -> Result<RequestImage, MemError> {
        Ok(RequestImage {
            image: MemImage::from_words(words)?,
        })
    }

    /// The raw words.
    pub fn image(&self) -> &MemImage {
        &self.image
    }

    /// The requested function type id (word 0).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfRange`] on an empty image.
    pub fn type_id(&self) -> Result<u16, MemError> {
        self.image.read(0)
    }

    /// Number of constraint blocks (derived from image length).
    pub fn constraint_count(&self) -> usize {
        // 1 type word + 3k + 1 terminator.
        self.image.len().saturating_sub(2) / usize::from(REQ_BLOCK_WORDS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::END_MARKER;

    #[test]
    fn header_pointers_resolve() {
        let img = MemImage::from_words(vec![2, 3, END_MARKER, END_MARKER]).unwrap();
        let cb = CaseBaseImage::from_image(img);
        assert_eq!(cb.supplemental_base().unwrap(), 2);
        assert_eq!(cb.tree_base().unwrap(), 3);
        assert!(cb.sections().is_empty());
    }

    #[test]
    fn request_accessors() {
        let img = MemImage::from_words(vec![7, 1, 16, 0x4000, 4, 40, 0x4000, END_MARKER]).unwrap();
        let req = RequestImage::from_image(img);
        assert_eq!(req.type_id().unwrap(), 7);
        assert_eq!(req.constraint_count(), 2);
    }

    #[test]
    fn section_arithmetic() {
        let s = Section {
            name: "x".into(),
            range: 4..10,
        };
        assert_eq!(s.words(), 6);
        assert_eq!(s.bytes(), 12);
    }
}
