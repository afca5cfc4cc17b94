//! The parts of `rqfa-benchmark`, the wall-clock, outside-in benchmark
//! of the rqfa serving stack; `main.rs` is the command line over them and
//! `README.md` beside this package says what is measured and why.
//!
//! The benchmark drives the live, threaded serving stack through its
//! public functions only, gives it nothing but inputs generated from the
//! seed, and times only the calls it makes.

#![forbid(unsafe_code)]

pub mod compare;
pub mod drive;
pub mod inputs;
pub mod json;
pub mod machine;
pub mod probes;
pub mod run;
pub mod spec;
pub mod system;
pub mod tally;
