//! # rqfa-memlist — 16-bit word memory images of the case base
//!
//! The hardware retrieval unit of Ullmann et al. (DATE 2004) stores all of
//! its data structures as linear lists of 16-bit words in block RAM
//! (§4.1, figs. 4–5): the *request list*, the *attribute supplemental
//! list* (design bounds + pre-computed reciprocals) and the three-level
//! *implementation tree*. This crate is the serialization layer between
//! the semantic structures of [`rqfa_core`] and those raw words:
//!
//! * [`encode_case_base`] / [`encode_request`] — the design-time tool flow
//!   (the paper generated these images with Matlab scripts);
//! * [`decode_case_base`] / [`decode_request`] — the inverse, for loading
//!   images from a repository;
//! * [`validate_case_base`] / [`validate_request`] — structural validation
//!   of untrusted images (terminators, sorted ids, pointer closure, UQ1.15
//!   sanity, reciprocal consistency);
//! * [`compact`] — the packed attribute-block encoding of the §5 outlook
//!   (≥2× scan-speed claim, measured in experiment E9);
//! * [`MemoryReport`] and the `predicted_*` functions — the Table 3
//!   memory-consumption accounting;
//! * [`WordSink`] / [`LeWords`] — the one little-endian word codec the
//!   same words rest and travel in: `rqfa-persist`'s WAL records and
//!   snapshots, `rqfa-net`'s frames ([`write_request`] writes a request
//!   straight into one).
//!
//! ```
//! use rqfa_core::paper;
//! use rqfa_memlist::{encode_case_base, encode_request, validate_case_base};
//!
//! let image = encode_case_base(&paper::table1_case_base())?;
//! let summary = validate_case_base(&image)?;
//! assert_eq!(summary.variants, 5);
//! let request = encode_request(&paper::table1_request()?)?;
//! assert_eq!(request.image().bytes(), 22); // 11 words
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compact;
mod decode;
mod encode;
mod error;
pub mod layout;
mod memh;
mod report;
mod validate;
mod word;

pub use compact::{encode_compact_case_base, is_compactible, CompactCaseBaseImage};
pub use decode::{
    decode_case_base, decode_request, decode_request_words, decode_supplemental, SupplementalEntry,
};
pub use encode::{encode_case_base, encode_request, write_request};
pub use error::MemError;
pub use layout::{CaseBaseImage, RequestImage, Section};
pub use memh::{from_memh, to_memh};
pub use report::{
    predicted_compact_words, predicted_request_words, predicted_words, MemoryReport,
};
pub use validate::{validate_case_base, validate_raw, validate_request, ValidationSummary};
pub use word::{ImageBuilder, LeWords, MemImage, SectionMap, WordSink, Words, END_MARKER};
