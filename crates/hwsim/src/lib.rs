//! # rqfa-hwsim — cycle-level simulator of the hardware retrieval unit
//!
//! Models the FPGA retrieval unit of Ullmann et al. (DATE 2004), §4.2:
//! the finite-state machine of fig. 6 and the datapath of fig. 7 (two
//! 18×18 multipliers, absolute-difference unit, UQ1.15 accumulator,
//! best-score comparator) operating on the 16-bit word memory images of
//! [`rqfa_memlist`] through synchronous BRAM ports.
//!
//! The simulator plays the role the VHDL model + ModelSim played for the
//! authors: it must produce **bit-identical retrieval results** to the
//! fixed-point software reference ([`rqfa_core::FixedEngine`]) while
//! yielding credible cycle counts for the performance comparison against
//! the soft-core processor (experiment E4, the paper's 8.5× claim).
//!
//! ```
//! use rqfa_core::paper;
//! use rqfa_memlist::{encode_case_base, encode_request};
//! use rqfa_hwsim::{RetrievalUnit, UnitConfig};
//!
//! let cb = encode_case_base(&paper::table1_case_base())?;
//! let request = encode_request(&paper::table1_request()?)?;
//! let mut unit = RetrievalUnit::new(&cb, UnitConfig::default())?;
//! let result = unit.retrieve(&request)?;
//! assert_eq!(result.best.unwrap().0, 2); // the DSP variant of Table 1
//! println!("retrieval took {} cycles", result.cycles);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Variants (for the ablation experiments)
//!
//! * [`UnitConfig::n_best`] — the n-most-similar register bank (§5).
//! * [`ImageLayout::Classic`] with [`PortWidth::Wide`] — 32-bit fetches.
//! * [`ImageLayout::Compact`] — packed attribute words (§5, ≥2× claim).
//! * [`UnitConfig::resume`] `= false` — disables the §4.1 sorted-cursor
//!   optimization (restart-from-top baseline).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bram;
mod datapath;
mod error;
mod fsm;
mod trace;
mod unit;
mod vcd;

pub use bram::{Bram, PortWidth};
pub use datapath::{Datapath, DatapathStats};
pub use error::HwError;
pub use fsm::{CostModel, CycleBreakdown, Phase};
pub use trace::{Trace, TraceEvent};
pub use unit::{HwRetrieval, ImageLayout, RetrievalUnit, UnitConfig};
pub use vcd::export_vcd;
