//! # rqfa-synth — netlist resource/timing estimator (Table 2)
//!
//! The paper reports synthesis results of the retrieval unit on a Xilinx
//! Virtex-II XC2V3000 (ISE 6.2): **441 CLB slices, 2 MULT18X18, 2 block
//! RAMs, ~75 MHz**. We cannot run the vendor tool chain, so this crate is
//! a small, self-contained synthesis *estimator*:
//!
//! * [`Primitive`] / [`TechLibrary`] — RTL primitives characterized into
//!   LUT4/FF counts and delays with Virtex-II-style constants;
//! * [`Netlist`] — structural netlists (named instances + directed nets);
//! * [`estimate_area`] — LUT/FF roll-up and slice packing;
//! * [`analyze`] — longest register-to-register path (static timing);
//! * [`build_retrieval_unit`] / [`synthesize_retrieval_unit`] — the
//!   fig. 7 datapath and its Table 2 estimate.
//!
//! Two library constants (`packing`, `generated_control_levels`) are
//! calibrated against the paper's single published data point; everything
//! else follows from the structure of the netlist. See
//! `src/library.rs` for the substitution rationale.
//!
//! ```
//! use rqfa_synth::synthesize_retrieval_unit;
//!
//! let report = synthesize_retrieval_unit()?;
//! assert_eq!(report.area.mult18, 2);
//! assert_eq!(report.area.bram18, 2);
//! println!("{}", report.table2());
//! # Ok::<(), rqfa_synth::SynthError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod error;
mod library;
mod netlist;
mod power;
mod primitive;
mod retrieval_unit;
mod timing;

pub use area::{estimate_area, AreaReport};
pub use error::SynthError;
pub use library::{Device, TechLibrary, XC2V3000};
pub use netlist::{CompId, Component, Netlist};
pub use power::{estimate_power, estimate_power_from_area, PowerCoefficients, PowerReport};
pub use primitive::{CellInfo, Primitive};
pub use retrieval_unit::{
    build_retrieval_unit, build_retrieval_unit_with, synthesize_retrieval_unit, synthesize_with,
    SynthReport,
};
pub use timing::{analyze, TimingReport};
