//! # rqfa-workloads — deterministic workload generators
//!
//! Everything the benches and examples need to exercise the retrieval
//! engines and the run-time system at scale: seeded random case bases of
//! arbitrary shape, request streams correlated with a case base, and the
//! fig. 1 application mix (MP3 player, video decoder, automotive ECU,
//! cruise control) as a ready-made scenario.
//!
//! All generators take explicit seeds and are reproducible across runs and
//! platforms (an in-crate xoshiro256** PRNG, see [`rng`], with fixed
//! seeding — no external RNG dependency).
//!
//! ```
//! use rqfa_workloads::{CaseGen, RequestGen};
//!
//! let case_base = CaseGen::paper_shape().seed(7).build();
//! assert_eq!(case_base.type_count(), 15);       // Table 3 shape
//! assert_eq!(case_base.variant_count(), 150);   // 15 × 10
//!
//! let requests = RequestGen::new(&case_base).seed(11).count(20).generate();
//! assert_eq!(requests.len(), 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod casegen;
mod chaosgen;
pub mod check;
mod mutationgen;
mod requestgen;
pub mod rng;
mod scenarios;
mod trafficgen;

pub use casegen::CaseGen;
pub use chaosgen::{ChaosAction, ChaosEvent, ChaosPlan};
pub use mutationgen::MutationGen;
pub use requestgen::{GeneratedArrival, RequestGen};
pub use scenarios::{fig1_mix, Fig1Scenario, APP_AUTOMOTIVE_ECU, APP_CRUISE, APP_MP3, APP_VIDEO};
pub use trafficgen::{ClassedArrival, Popularity, TrafficGen};
