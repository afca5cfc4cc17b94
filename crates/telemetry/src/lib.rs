//! # rqfa-telemetry — the observability plane of the rqfa workspace
//!
//! The paper's allocation fabric is judged by per-class QoS outcomes;
//! this crate is the instrumentation that makes those outcomes
//! *observable* and *reproducible* rather than merely asserted after the
//! fact. It is a dependency-free leaf crate (every other crate may depend
//! on it; it depends on nothing) with three pillars, mirroring what the
//! AXI QoS-monitor literature treats as a first-class hardware block:
//!
//! * **Injectable time** ([`clock`]): a [`Clock`] trait with a
//!   [`MonotonicClock`] for production and a [`ManualClock`] for tests
//!   and deterministic replay. Components that stamp time take a
//!   [`SharedClock`] and read `u64` µs ticks from it instead of calling
//!   `Instant::now()`, so schedulers, deadlines and latency histograms
//!   can be driven microsecond by microsecond from a bench harness — two
//!   runs over the same trace produce bit-identical metrics.
//! * **Flight recorder** ([`trace`]): a lock-free, fixed-capacity ring
//!   of [`TraceEvent`]s recording each request's life cycle (submitted →
//!   admitted/displaced/refused → scheduled → dispatched → cache probe →
//!   scored → replied/shed) with zero allocation on the hot path. The
//!   drain API reconstructs per-request timelines with a stage breakdown
//!   — the primary debugging artifact for scheduling and displacement
//!   bugs.
//! * **Metrics registry** ([`registry`] + [`metrics`]): shared counter /
//!   gauge / histogram primitives and a [`Registry`] that collects
//!   prefixed [`Sample`]s from any [`MetricSource`] into one
//!   point-in-time [`RegistrySnapshot`], renderable as an aligned text
//!   table or exportable as `rqfa-bench/v1` JSON by `rqfa-bench`.
//!
//! The normative model (event vocabulary, clock-injection contract,
//! snapshot consistency, trajectory/gate policy) lives in
//! `docs/observability.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use clock::{monotonic, Clock, ManualClock, MonotonicClock, SharedClock};
pub use metrics::{ratio, Counter, Gauge, Histogram};
pub use registry::{write_table, MetricSource, Registry, RegistrySnapshot, Sample};
pub use trace::{
    arg_truncated, EventKind, FlightRecorder, RequestTimeline, StageBreakdown, TraceDump,
    TraceEvent, ARG_BITS,
};
