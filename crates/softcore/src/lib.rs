//! # rqfa-softcore — MicroBlaze-class soft-core simulator + toolchain
//!
//! The software baseline of Ullmann et al. (DATE 2004): the paper mapped
//! the retrieval algorithm into C on a Xilinx MicroBlaze soft-processor at
//! 66 MHz and found the FPGA retrieval unit ~8.5× faster at equal clock.
//! This crate rebuilds that baseline from scratch:
//!
//! * [`Instr`] — the **sc32** ISA, a 32-register in-order RISC with fixed
//!   32-bit instruction words (encode/decode round trip included);
//! * [`assemble`] — a two-pass assembler with labels and pseudo-instructions;
//! * [`Cpu`] — the cycle-accounted simulator ([`CpuCostModel`]: 3-stage
//!   pipeline, 2-cycle block-RAM loads, 3-cycle multiplies and taken
//!   branches);
//! * [`RETRIEVAL_SOURCE`] — the fig. 6 retrieval routine in sc32 assembly,
//!   operating on the same memory images as the hardware unit;
//! * [`run_retrieval`] — end-to-end: load images, execute, read results.
//!
//! Results are bit-exact with [`rqfa_core::FixedEngine`] and `rqfa-hwsim`;
//! only cycle counts differ (experiment E4).
//!
//! ```
//! use rqfa_core::paper;
//! use rqfa_memlist::{encode_case_base, encode_request};
//! use rqfa_softcore::{run_retrieval, CpuCostModel};
//!
//! let cb = encode_case_base(&paper::table1_case_base())?;
//! let request = encode_request(&paper::table1_request()?)?;
//! let sw = run_retrieval(&cb, &request, CpuCostModel::default())?;
//! assert_eq!(sw.best.unwrap().0, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod cost;
mod cpu;
mod error;
mod isa;
mod loader;
mod mem;
mod program;

pub use asm::{assemble, Program};
pub use cost::CpuCostModel;
pub use cpu::{Cpu, RunStats};
pub use error::{AsmError, AsmErrorKind, CpuError};
pub use isa::{Instr, Reg};
pub use loader::{run_retrieval, SoftRetrieval};
pub use mem::DataMemory;
pub use loader::run_retrieval_with;
pub use program::{
    program_for, retrieval_program, retrieval_program_compiled, ProgramKind, CB_BASE,
    FAULT_SUPPLEMENTAL_MISS, FAULT_TYPE_NOT_FOUND, MEM_SIZE, REQ_BASE, RESULT_BASE,
    RETRIEVAL_SOURCE, RETRIEVAL_SOURCE_COMPILED,
};
