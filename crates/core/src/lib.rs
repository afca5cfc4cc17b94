//! # rqfa-core — QoS-based function allocation via case-based reasoning
//!
//! Rust implementation of the primary contribution of *Ullmann, Jin,
//! Becker: "Hardware Support for QoS-based Function Allocation in
//! Reconfigurable Systems" (DATE 2004)*: a case-based-reasoning (CBR)
//! retrieval engine that, given a function request with QoS constraints,
//! selects the most similar implementation variant from a case base of
//! realizations on FPGA / DSP / general-purpose processors.
//!
//! ## Quick start
//!
//! The paper's own example (fig. 3 / Table 1) ships as a fixture:
//!
//! ```
//! use rqfa_core::{paper, FixedEngine, FloatEngine};
//!
//! let case_base = paper::table1_case_base();
//! let request = paper::table1_request()?;
//!
//! // Float reference (the paper's Matlab model):
//! let float_best = FloatEngine::new().retrieve(&case_base, &request)?.best.unwrap();
//! assert_eq!(float_best.impl_id, paper::IMPL_DSP);
//!
//! // 16-bit fixed-point engine (the hardware's arithmetic):
//! let fixed_best = FixedEngine::new().retrieve(&case_base, &request)?.best.unwrap();
//! assert_eq!(fixed_best.impl_id, float_best.impl_id); // identical ranking
//! # Ok::<(), rqfa_core::CoreError>(())
//! ```
//!
//! ## Building your own case base
//!
//! ```
//! use rqfa_core::{
//!     AttrBinding, AttrDecl, AttrId, BoundsTable, CaseBase, ExecutionTarget,
//!     FixedEngine, FunctionType, ImplId, ImplVariant, Request, TypeId,
//! };
//!
//! let bounds = BoundsTable::from_decls(vec![
//!     AttrDecl::new(AttrId::new(1)?, "latency (µs)", 0, 1000)?,
//! ])?;
//! let variant = ImplVariant::new(
//!     ImplId::new(1)?,
//!     ExecutionTarget::Fpga,
//!     vec![AttrBinding::new(AttrId::new(1)?, 15)],
//! )?;
//! let case_base = CaseBase::new(
//!     bounds,
//!     vec![FunctionType::new(TypeId::new(1)?, "decoder", vec![variant])?],
//! )?;
//! let request = Request::builder(TypeId::new(1)?)
//!     .constraint(AttrId::new(1)?, 20)
//!     .build()?;
//! let best = FixedEngine::new().retrieve(&case_base, &request)?.best.unwrap();
//! assert_eq!(best.impl_id.raw(), 1);
//! # Ok::<(), rqfa_core::CoreError>(())
//! ```
//!
//! ## Module tour
//!
//! * [`ids`], [`attribute`], [`bounds`] — identifiers, attribute
//!   declarations, the design-global bounds table (supplemental list).
//! * [`casebase`] — the implementation tree with retain/revise/evict
//!   mutations (CBR retain step).
//! * [`request`] — weighted, possibly incomplete QoS requests.
//! * [`similarity`] — equation (1), the local similarity.
//! * [`engine`] — the float reference and the bit-exact fixed-point
//!   retrieval engines (equation (2), the weighted-sum amalgamation),
//!   with operation counting.
//! * [`plane`], [`kernel`] — the compiled columnar retrieval plane and
//!   its zero-allocation scoring kernels ([`PlaneEngine`]), bit-identical
//!   to [`engine`] (normative model: `docs/retrieval.md`).
//! * [`nbest`] — n-most-similar retrieval (paper future work).
//! * [`qos`] — AXI4-style QoS service classes shared by the traffic
//!   generators and the allocation service.
//! * [`placement`] — the type → shard function and the [`Placement`]
//!   seam that lets shards live on remote nodes (normative model:
//!   `docs/distribution.md`).
//! * [`paper`] — ready-made fixtures reproducing fig. 3 / Table 1.

// `deny`, not `forbid`: the one scoped exception is `kernel::wide`, the
// runtime-detected `std::arch` SIMD path, which carries a module-local
// `allow(unsafe_code)` and confines its unsafety to feature-gated
// intrinsic calls over padded, bounds-proven column slices.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod attribute;
pub mod bounds;
pub mod casebase;
pub mod engine;
mod error;
pub mod generation;
pub mod ids;
pub mod implvariant;
pub mod kernel;
pub mod mutation;
pub mod nbest;
pub mod plane;
pub mod paper;
pub mod placement;
pub mod qos;
pub mod request;
pub mod similarity;

pub use attribute::{AttrBinding, AttrDecl};
pub use bounds::{BoundsEntry, BoundsTable};
pub use casebase::{CaseBase, FunctionType};
pub use engine::{FixedEngine, FloatEngine, OpCounts, Retrieval, ScoreResult, Scored};
pub use error::CoreError;
pub use generation::Generation;
pub use ids::{AttrId, ImplId, TypeId, RESERVED_ID};
pub use implvariant::{ExecutionTarget, Footprint, ImplVariant};
pub use kernel::{wide_kernel_available, KernelPath, PlaneEngine, Scratch};
pub use mutation::CaseMutation;
pub use nbest::NBest;
pub use placement::{shard_index, ModuloPlacement, NodeId, NodeMap, Placement, ShardSite};
pub use plane::RetrievalPlane;
pub use qos::QosClass;
pub use request::{Constraint, Request, RequestBuilder};

// Re-export the numeric type users see in all fixed-point results.
pub use rqfa_fixed::Q15;
