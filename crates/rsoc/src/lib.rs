//! # rqfa-rsoc — run-time reconfigurable system simulator
//!
//! The system environment of fig. 1 of Ullmann et al. (DATE 2004):
//! applications running on a multi-device platform (partially
//! reconfigurable FPGAs, DSPs, general-purpose processors) request
//! QoS-constrained functions; the **function-allocation management** layer
//! retrieves suitable implementation variants (CBR, [`rqfa_core`]), checks
//! feasibility against current system load, preempts lower-priority tasks
//! when allowed, loads configuration data from the FLASH repository and
//! reconfigures devices — with bypass tokens for repeated calls and
//! relaxed-constraint retries after rejection (§3).
//!
//! The crate also owns fig. 2's retrieve → reuse → revise → retain loop,
//! [`CbrCycle`]: [`CbrCycle::learn`] feeds the QoS attributes a task
//! actually achieved back into the case base (the §5 outlook's
//! self-learning system). The manager ([`System`]) and the cycle each
//! keep §3's bypass tokens — the previous selection of a
//! repeated request — in an [`rqfa_cache::GenCache`] keyed by the request
//! fingerprint at the stamp of its type.
//!
//! ```
//! use rqfa_core::paper;
//! use rqfa_rsoc::{ArrivalSpec, AppId, Device, DeviceId, SimTime, SystemBuilder};
//!
//! let mut system = SystemBuilder::new(paper::table1_case_base())
//!     .device(Device::fpga(DeviceId(0), "fpga0", 2000, 150))
//!     .device(Device::dsp(DeviceId(1), "dsp0", 1000, 90))
//!     .build()?;
//! system.submit(SimTime::ZERO, ArrivalSpec {
//!     app: AppId(1),
//!     request: paper::table1_request()?,
//!     priority: 5,
//!     duration_us: 1_000,
//!     relaxed: None,
//! });
//! let metrics = system.run()?;
//! assert_eq!(metrics.accepted, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cycle;
mod device;
mod error;
mod metrics;
mod power;
mod repository;
mod system;
mod task;
mod time;

pub use cycle::{CbrCycle, CycleOutcome, LearnAction, LearnPolicy};
pub use device::{Device, DeviceId};
pub use error::RsocError;
pub use metrics::Metrics;
pub use power::EnergyMeter;
pub use repository::Repository;
pub use system::{AllocPolicy, ArrivalSpec, Decision, RejectReason, System, SystemBuilder};
pub use task::{AppId, Task, TaskId, TaskState};
pub use time::SimTime;
