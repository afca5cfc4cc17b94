//! # rqfa — QoS-based function allocation for reconfigurable systems
//!
//! A comprehensive Rust reproduction of *Ullmann, Jin, Becker: "Hardware
//! Support for QoS-based Function Allocation in Reconfigurable Systems"*
//! (DATE 2004): case-based-reasoning retrieval of implementation variants
//! under QoS constraints, the hardware retrieval unit that accelerates it,
//! the MicroBlaze-class software baseline, and the surrounding run-time
//! reconfigurable system.
//!
//! This facade crate re-exports the workspace members:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`cache`] | `rqfa-cache` | generation-invalidated result cache: FIFO eviction, one best-of answer per request |
//! | [`core`] | `rqfa-core` | case base, similarity (eqs. 1–2), retrieval engines, n-best, CBR mutations |
//! | [`fixed`] | `rqfa-fixed` | UQ1.15 fixed-point arithmetic |
//! | [`memlist`] | `rqfa-memlist` | 16-bit word memory images (figs. 4–5), validation, compaction |
//! | [`persist`] | `rqfa-persist` | durable case bases: CRC-guarded write-ahead log, memlist-image snapshots, crash recovery |
//! | [`hwsim`] | `rqfa-hwsim` | cycle-level retrieval-unit simulator (figs. 6–7) |
//! | [`softcore`] | `rqfa-softcore` | sc32 soft-core simulator, assembler, retrieval routines |
//! | [`synth`] | `rqfa-synth` | netlist area/timing estimator (Table 2) |
//! | [`rsoc`] | `rqfa-rsoc` | run-time system simulator (fig. 1): allocation manager, devices, negotiation, bypass tokens (§3), CBR cycle (fig. 2) |
//! | [`service`] | `rqfa-service` | sharded, batched, deadline-aware QoS allocation service (EDF queues, weighted scheduler, cache, metrics) |
//! | [`telemetry`] | `rqfa-telemetry` | observability plane: injectable clocks, flight-recorder tracing, unified metrics registry |
//! | [`workloads`] | `rqfa-workloads` | deterministic generators, the fig. 1 scenario, open-loop QoS traffic |
//!
//! ## Quick start
//!
//! ```
//! use rqfa::core::{paper, FixedEngine};
//!
//! let case_base = paper::table1_case_base();
//! let request = paper::table1_request()?;
//! let best = FixedEngine::new().retrieve(&case_base, &request)?.best.unwrap();
//! assert_eq!(best.impl_id, paper::IMPL_DSP); // Table 1: the DSP wins
//! # Ok::<(), rqfa::core::CoreError>(())
//! ```
//!
//! See `examples/` for end-to-end walkthroughs and `crates/bench` for the
//! table/figure reproduction harness (`crates/bench/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rqfa_cache as cache;
pub use rqfa_core as core;
pub use rqfa_fixed as fixed;
pub use rqfa_hwsim as hwsim;
pub use rqfa_memlist as memlist;
pub use rqfa_net as net;
pub use rqfa_persist as persist;
pub use rqfa_rsoc as rsoc;
pub use rqfa_service as service;
pub use rqfa_softcore as softcore;
pub use rqfa_synth as synth;
pub use rqfa_telemetry as telemetry;
pub use rqfa_workloads as workloads;
