//! UQ1.15 fixed-point arithmetic for the rqfa retrieval datapath.
//!
//! The hardware retrieval unit of Ullmann et al. (DATE 2004) computes all
//! similarity values on a 16-bit datapath. This crate pins down the exact
//! arithmetic used by *every* engine in the workspace — the software
//! reference (`rqfa-core`'s fixed engine), the cycle-level hardware
//! simulator (`rqfa-hwsim`) and the soft-core assembly program
//! (`rqfa-softcore`) — so that the paper's bit-exactness claim
//! ("same retrieval results in Matlab float simulation as in VHDL/ModelSim")
//! can be checked as a machine-verified property.
//!
//! # Number format
//!
//! Similarities, weights and reciprocal range constants live in **UQ1.15**:
//! an unsigned 16-bit word interpreted as `raw / 32768`. The value `1.0` is
//! exactly [`Q15::ONE`] (`0x8000`); all representable values lie in
//! `[0.0, 1.0]`. One integer guard bit keeps `1.0` addressable while still
//! fitting the 18×18 hardware multipliers of the Virtex-II with room to
//! spare.
//!
//! Attribute values themselves are plain `u16` integers in domain units
//! (kSamples/s, bits, enum codes, …); only *similarities* are fractional.
//!
//! # Rounding policy
//!
//! * Design-time constants (the `1/(1+d_max)` reciprocals of the paper's
//!   supplemental list) are computed with **round-to-nearest** — they are
//!   produced offline by tooling, where rounding is free
//!   ([`recip::recip_plus_one`]).
//! * Run-time products **truncate** (`>> 15`), matching the natural
//!   behaviour of a hardware multiplier that simply drops low-order bits
//!   ([`Q15::mul_trunc`], [`Q15::scale_int`]).
//!
//! # Example
//!
//! Local similarity of equation (1) of the paper,
//! `s = 1 − d/(1 + d_max)`, without a divider:
//!
//! ```
//! use rqfa_fixed::{local_similarity, recip_plus_one, Q15};
//!
//! let d_max = 36;                      // design-time bound for this attribute
//! let recip = recip_plus_one(d_max);   // ≈ 1/37 in UQ1.15
//! let s = local_similarity(4, recip);  // d = |44 − 40| = 4
//! assert!((s.to_f64() - (1.0 - 4.0 / 37.0)).abs() < 1e-3);
//! assert_eq!(local_similarity(0, recip), Q15::ONE);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod q15;
mod recip;

pub use error::Q15RangeError;
pub use q15::Q15;
pub use recip::{local_similarity, max_distance_for, recip_plus_one};
