//! The run-time system: allocation manager + event-driven simulation.
//!
//! This is the executable form of the fig. 1 narrative: applications issue
//! QoS-constrained function requests through the Application-API; the
//! function-allocation layer retrieves matching implementation variants
//! (CBR, `rqfa-core`), checks their *feasibility* against current system
//! load through the HW-Layer API, possibly preempts lower-priority tasks,
//! fetches configuration data from the FLASH repository and reconfigures
//! the chosen device. Repeated calls bypass retrieval via tokens (§3);
//! rejected applications may retry with relaxed constraints (§3).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use rqfa_cache::GenCache;
use rqfa_core::{
    CaseBase, ExecutionTarget, FixedEngine, Footprint, Generation, ImplId, Request, Scored, Q15,
};

use crate::cycle::token_key;
use crate::device::{Device, DeviceId};
use crate::error::RsocError;
use crate::metrics::Metrics;
use crate::power::EnergyMeter;
use crate::repository::Repository;
use crate::task::{AppId, Task, TaskId, TaskState};
use crate::time::SimTime;

/// Allocation-manager policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocPolicy {
    /// How many ranked candidates the feasibility check walks (the §5
    /// n-most-similar extension; `1` = paper's base unit).
    pub n_best: usize,
    /// Reject candidates below this similarity ("it's conceivable to
    /// reject all results below a given threshold similarity", §3).
    pub threshold: Q15,
    /// Allow preempting strictly lower-priority tasks.
    pub allow_preemption: bool,
    /// How many requests' bypass tokens the manager keeps (0 disables
    /// bypass: every call retrieves).
    pub bypass_capacity: usize,
    /// Delay before a relaxed retry arrives, µs.
    pub retry_delay_us: u64,
}

impl Default for AllocPolicy {
    fn default() -> AllocPolicy {
        AllocPolicy {
            n_best: 4,
            threshold: Q15::from_f64_saturating(0.35),
            allow_preemption: true,
            bypass_capacity: 64,
            retry_delay_us: 50,
        }
    }
}

/// Why a request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The requested function type is not in the case base.
    UnknownType,
    /// No variant reached the similarity threshold.
    NoSimilarVariant,
    /// Matching variants exist but no device can host any of them.
    NoCapacity,
}

/// The allocation manager's answer to one request.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Decision {
    /// A variant was placed.
    Accepted {
        /// The created task.
        task: TaskId,
        /// The selected variant.
        impl_id: ImplId,
        /// Hosting device.
        device: DeviceId,
        /// Retrieval similarity of the selected variant.
        similarity: Q15,
        /// Ready time (reconfiguration complete).
        ready_at: SimTime,
        /// Whether a lower-ranked variant had to be used (negotiation).
        downgraded: bool,
        /// Tasks preempted to make room.
        preempted: Vec<TaskId>,
        /// Whether retrieval was skipped via a bypass token.
        bypassed: bool,
    },
    /// No placement was possible.
    Rejected {
        /// The reason.
        reason: RejectReason,
        /// Whether a relaxed retry was scheduled.
        retry_scheduled: bool,
    },
}

/// A pending simulation event.
#[derive(Debug, Clone, PartialEq)]
enum SysEvent {
    Arrival(Box<ArrivalSpec>),
    Ready(TaskId),
    Complete(TaskId),
}

/// One application request (possibly a relaxed retry).
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalSpec {
    /// Issuing application.
    pub app: AppId,
    /// The QoS request.
    pub request: Request,
    /// Scheduling priority (higher preempts lower).
    pub priority: u8,
    /// Task run time once ready, µs.
    pub duration_us: u64,
    /// Relaxed fallback request, submitted automatically on rejection
    /// (the §3 renegotiation).
    pub relaxed: Option<Request>,
}

#[derive(Debug, PartialEq, Eq)]
struct Queued {
    at: SimTime,
    seq: u64,
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Builder for [`System`].
#[derive(Debug)]
pub struct SystemBuilder {
    case_base: CaseBase,
    devices: Vec<Device>,
    repository: Repository,
    policy: AllocPolicy,
}

impl SystemBuilder {
    /// Starts a system around a case base; the repository is indexed from
    /// the case base's footprints automatically.
    pub fn new(case_base: CaseBase) -> SystemBuilder {
        let mut repository = Repository::new(20, 50);
        repository.index_case_base(&case_base);
        SystemBuilder {
            case_base,
            devices: Vec::new(),
            repository,
            policy: AllocPolicy::default(),
        }
    }

    /// Adds an execution device.
    pub fn device(mut self, device: Device) -> SystemBuilder {
        self.devices.push(device);
        self
    }

    /// Replaces the repository transfer model (keeps indexed configs).
    pub fn repository(mut self, setup_us: u64, bytes_per_us: u64) -> SystemBuilder {
        self.repository.setup_us = setup_us;
        self.repository.bytes_per_us = bytes_per_us.max(1);
        self
    }

    /// Replaces the allocation policy.
    pub fn policy(mut self, policy: AllocPolicy) -> SystemBuilder {
        self.policy = policy;
        self
    }

    /// Finalizes the system.
    ///
    /// # Errors
    ///
    /// [`RsocError::NoDevices`] without at least one device.
    pub fn build(self) -> Result<System, RsocError> {
        if self.devices.is_empty() {
            return Err(RsocError::NoDevices);
        }
        let static_mw: u64 = self.devices.iter().map(|d| u64::from(d.static_mw())).sum();
        Ok(System {
            case_base: self.case_base,
            devices: self.devices,
            repository: self.repository,
            policy: self.policy,
            engine: FixedEngine::new(),
            cache: GenCache::new(self.policy.bypass_capacity),
            clock: SimTime::ZERO,
            queue: BinaryHeap::new(),
            events: HashMap::new(),
            next_seq: 0,
            tasks: HashMap::new(),
            next_task: 0,
            meter: EnergyMeter::new(static_mw),
            metrics: Metrics::default(),
            log: Vec::new(),
        })
    }
}

/// The simulated run-time reconfigurable system.
pub struct System {
    case_base: CaseBase,
    devices: Vec<Device>,
    repository: Repository,
    policy: AllocPolicy,
    engine: FixedEngine,
    /// §3's bypass tokens: the placed selection per request fingerprint,
    /// at the stamp of the request's type.
    cache: GenCache<Scored<Q15>, Generation>,
    clock: SimTime,
    queue: BinaryHeap<Reverse<Queued>>,
    events: HashMap<u64, SysEvent>,
    next_seq: u64,
    tasks: HashMap<TaskId, Task>,
    next_task: u32,
    meter: EnergyMeter,
    metrics: Metrics,
    log: Vec<(SimTime, String)>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("clock", &self.clock)
            .field("devices", &self.devices.len())
            .field("tasks", &self.tasks.len())
            .field("queued", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl System {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Collected metrics (energy is folded in by [`System::run`]).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The case base (for learning-layer inspection).
    pub fn case_base(&self) -> &CaseBase {
        &self.case_base
    }

    /// All tasks ever created.
    pub fn tasks(&self) -> impl Iterator<Item = &Task> {
        self.tasks.values()
    }

    /// Looks up a device.
    pub fn device(&self, id: DeviceId) -> Option<&Device> {
        self.devices.iter().find(|d| d.id() == id)
    }

    /// The decision log (time-stamped, human-readable).
    pub fn log(&self) -> &[(SimTime, String)] {
        &self.log
    }

    /// Schedules a function request at `at`.
    pub fn submit(&mut self, at: SimTime, spec: ArrivalSpec) {
        self.push_event(at, SysEvent::Arrival(Box::new(spec)));
    }

    fn push_event(&mut self, at: SimTime, event: SysEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.insert(seq, event);
        self.queue.push(Reverse(Queued { at, seq }));
    }

    /// Runs until the event queue drains; returns the final metrics.
    ///
    /// # Errors
    ///
    /// Propagates [`RsocError`]; [`RsocError::EventOverflow`] guards
    /// against runaway retry loops.
    pub fn run(&mut self) -> Result<Metrics, RsocError> {
        while let Some(Reverse(q)) = self.queue.pop() {
            if self.queue.len() > 1_000_000 {
                return Err(RsocError::EventOverflow {
                    queued: self.queue.len(),
                });
            }
            self.clock = self.clock.max(q.at);
            self.meter.advance(self.clock);
            let event = self
                .events
                .remove(&q.seq)
                .expect("event bodies match queue entries");
            match event {
                SysEvent::Arrival(spec) => {
                    let decision = self.handle_request(*spec)?;
                    let line = match &decision {
                        Decision::Accepted {
                            task,
                            impl_id,
                            device,
                            downgraded,
                            bypassed,
                            ..
                        } => format!(
                            "accepted {task} impl {impl_id} on {device}{}{}",
                            if *downgraded { " (downgraded)" } else { "" },
                            if *bypassed { " (bypass)" } else { "" }
                        ),
                        Decision::Rejected {
                            reason,
                            retry_scheduled,
                        } => format!(
                            "rejected ({reason:?}){}",
                            if *retry_scheduled { ", retrying relaxed" } else { "" }
                        ),
                    };
                    self.log.push((self.clock, line));
                }
                SysEvent::Ready(id) => self.handle_ready(id)?,
                SysEvent::Complete(id) => self.handle_complete(id)?,
            }
        }
        self.metrics.energy_nj = self.meter.total_nj();
        Ok(self.metrics)
    }

    fn handle_ready(&mut self, id: TaskId) -> Result<(), RsocError> {
        let task = self
            .tasks
            .get_mut(&id)
            .ok_or(RsocError::UnknownTask { task: id })?;
        if task.state != TaskState::Loading {
            return Ok(()); // preempted while loading
        }
        task.state = TaskState::Running;
        let latency = task.allocation_latency_us();
        self.metrics.total_alloc_latency_us += latency;
        self.metrics.max_alloc_latency_us = self.metrics.max_alloc_latency_us.max(latency);
        self.meter.add_load(task.footprint.dynamic_mw);
        Ok(())
    }

    fn handle_complete(&mut self, id: TaskId) -> Result<(), RsocError> {
        let task = self
            .tasks
            .get_mut(&id)
            .ok_or(RsocError::UnknownTask { task: id })?;
        if !task.holds_resources() {
            return Ok(()); // already preempted
        }
        if task.state == TaskState::Running {
            self.meter.remove_load(task.footprint.dynamic_mw);
        }
        task.state = TaskState::Completed;
        let device = task.device;
        let footprint = task.footprint;
        self.release_on(device, &footprint)?;
        Ok(())
    }

    fn release_on(&mut self, id: DeviceId, footprint: &Footprint) -> Result<(), RsocError> {
        let device = self
            .devices
            .iter_mut()
            .find(|d| d.id() == id)
            .ok_or(RsocError::UnknownDevice { device: id })?;
        device.release(footprint);
        Ok(())
    }

    /// The §2/§3 pipeline: bypass → retrieve → feasibility → (preempt) →
    /// place → (relaxed retry).
    fn handle_request(&mut self, spec: ArrivalSpec) -> Result<Decision, RsocError> {
        self.metrics.requests += 1;

        // Bypass-token shortcut (§3): repeated calls only need an
        // availability check on the previously selected variant. If that
        // variant is currently infeasible, fall through to full retrieval.
        let token = token_key(&self.case_base, &spec.request)
            .and_then(|(fp, stamp)| self.cache.lookup(fp, stamp).copied());
        if let Some(candidate) = token {
            if let Some(decision) = self.try_candidates(&spec, &[candidate], true)? {
                self.metrics.bypass_hits += 1;
                return Ok(decision);
            }
        }

        self.metrics.retrievals += 1;
        let candidates = match self.engine.retrieve_n_best_above(
            &self.case_base,
            &spec.request,
            self.policy.n_best,
            self.policy.threshold,
        ) {
            Ok(nbest) => nbest.ranked,
            Err(rqfa_core::CoreError::UnknownType { .. }) => {
                self.metrics.rejected += 1;
                return Ok(Decision::Rejected {
                    reason: RejectReason::UnknownType,
                    retry_scheduled: false,
                });
            }
            Err(e) => return Err(e.into()),
        };

        if candidates.is_empty() {
            return Ok(self.reject(&spec, RejectReason::NoSimilarVariant));
        }
        if let Some(decision) = self.try_candidates(&spec, &candidates, false)? {
            return Ok(decision);
        }
        Ok(self.reject(&spec, RejectReason::NoCapacity))
    }

    /// Walks ranked candidates, placing the first feasible one; `None`
    /// when every candidate is infeasible.
    fn try_candidates(
        &mut self,
        spec: &ArrivalSpec,
        candidates: &[Scored<Q15>],
        bypassed: bool,
    ) -> Result<Option<Decision>, RsocError> {
        for (rank, candidate) in candidates.iter().enumerate() {
            let footprint = {
                let ty = self.case_base.require_type(spec.request.type_id())?;
                match ty.variant(candidate.impl_id) {
                    Some(v) => *v.footprint(),
                    None => continue,
                }
            };
            // Direct placement on any device of the right class.
            let direct = self
                .devices
                .iter()
                .find(|d| d.target() == candidate.target && d.fits(&footprint))
                .map(Device::id);
            let (device, preempted) = if let Some(id) = direct {
                (Some(id), Vec::new())
            } else if self.policy.allow_preemption {
                self.try_preempt(candidate.target, &footprint, spec.priority)?
            } else {
                (None, Vec::new())
            };
            let Some(device_id) = device else { continue };

            match self.place(spec, candidate, footprint, device_id, rank > 0, bypassed, preempted)
            {
                Ok(decision) => return Ok(Some(decision)),
                // A variant without configuration data in the repository is
                // unallocatable — skip it like an infeasible candidate.
                // `place` checks the repository before claiming resources,
                // so nothing needs rolling back (preemption victims stay
                // evicted: the port of record for that decision is the log).
                Err(RsocError::MissingConfig { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// Finds a device of `target` class where evicting strictly
    /// lower-priority tasks frees enough room. Performs the eviction and
    /// returns the device and the victims.
    fn try_preempt(
        &mut self,
        target: ExecutionTarget,
        footprint: &Footprint,
        priority: u8,
    ) -> Result<(Option<DeviceId>, Vec<TaskId>), RsocError> {
        let device_ids: Vec<DeviceId> = self
            .devices
            .iter()
            .filter(|d| d.target() == target)
            .map(Device::id)
            .collect();
        for id in device_ids {
            // Victims: lowest priority first, then earliest end.
            let mut victims: Vec<(u8, SimTime, TaskId, Footprint)> = self
                .tasks
                .values()
                .filter(|t| t.device == id && t.holds_resources() && t.priority < priority)
                .map(|t| (t.priority, t.ends_at, t.id, t.footprint))
                .collect();
            victims.sort_by_key(|&(priority, ends, id, _)| (priority, ends, id));
            // Simulate the eviction.
            let device = self
                .devices
                .iter()
                .find(|d| d.id() == id)
                .expect("id from device list");
            let mut free_slices = device.free_slices();
            let mut free_permille = device.free_permille();
            let mut chosen = Vec::new();
            for (_, _, tid, fp) in &victims {
                if free_slices >= footprint.slices && free_permille >= footprint.cpu_permille {
                    break;
                }
                free_slices += fp.slices;
                free_permille += fp.cpu_permille;
                chosen.push(*tid);
            }
            if free_slices >= footprint.slices && free_permille >= footprint.cpu_permille {
                for tid in &chosen {
                    self.preempt(*tid)?;
                }
                return Ok((Some(id), chosen));
            }
        }
        Ok((None, Vec::new()))
    }

    fn preempt(&mut self, id: TaskId) -> Result<(), RsocError> {
        let task = self
            .tasks
            .get_mut(&id)
            .ok_or(RsocError::UnknownTask { task: id })?;
        if task.state == TaskState::Running {
            self.meter.remove_load(task.footprint.dynamic_mw);
        }
        task.state = TaskState::Preempted;
        let device = task.device;
        let footprint = task.footprint;
        self.metrics.preemptions += 1;
        self.release_on(device, &footprint)?;
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn place(
        &mut self,
        spec: &ArrivalSpec,
        candidate: &Scored<Q15>,
        footprint: Footprint,
        device_id: DeviceId,
        downgraded: bool,
        bypassed: bool,
        preempted: Vec<TaskId>,
    ) -> Result<Decision, RsocError> {
        let config_bytes = self
            .repository
            .config_bytes(spec.request.type_id(), candidate.impl_id)?;
        let load_us = self.repository.load_time_us(config_bytes);
        let now = self.clock;
        let device = self
            .devices
            .iter_mut()
            .find(|d| d.id() == device_id)
            .ok_or(RsocError::UnknownDevice { device: device_id })?;
        device.claim(&footprint);
        let ready_at = device.occupy_config_port(now, load_us);

        let id = TaskId(self.next_task);
        self.next_task += 1;
        let task = Task {
            id,
            app: spec.app,
            type_id: spec.request.type_id(),
            impl_id: candidate.impl_id,
            device: device_id,
            footprint,
            priority: spec.priority,
            state: TaskState::Loading,
            requested_at: now,
            ready_at,
            ends_at: ready_at + spec.duration_us,
        };
        let ends_at = task.ends_at;
        self.tasks.insert(id, task);
        self.push_event(ready_at, SysEvent::Ready(id));
        self.push_event(ends_at, SysEvent::Complete(id));

        self.metrics.accepted += 1;
        self.metrics.reconfigurations += 1;
        self.metrics.reconfig_busy_us += load_us;
        if downgraded && !bypassed {
            self.metrics.downgraded += 1;
        }
        // Remember the working selection for repeated calls (§3).
        if let Some((fp, stamp)) = token_key(&self.case_base, &spec.request) {
            self.cache.insert(fp, stamp, *candidate);
        }

        Ok(Decision::Accepted {
            task: id,
            impl_id: candidate.impl_id,
            device: device_id,
            similarity: candidate.similarity,
            ready_at,
            downgraded,
            preempted,
            bypassed,
        })
    }

    fn reject(&mut self, spec: &ArrivalSpec, reason: RejectReason) -> Decision {
        self.metrics.rejected += 1;
        let retry_scheduled = if let Some(relaxed) = &spec.relaxed {
            // The application retries once with relaxed constraints (§3).
            let retry = ArrivalSpec {
                app: spec.app,
                request: relaxed.clone(),
                priority: spec.priority,
                duration_us: spec.duration_us,
                relaxed: None,
            };
            let at = self.clock + self.policy.retry_delay_us;
            self.push_event(at, SysEvent::Arrival(Box::new(retry)));
            true
        } else {
            false
        };
        Decision::Rejected {
            reason,
            retry_scheduled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqfa_core::paper;

    fn base_system() -> System {
        SystemBuilder::new(paper::table1_case_base())
            .device(Device::fpga(DeviceId(0), "fpga0", 2000, 150))
            .device(Device::dsp(DeviceId(1), "dsp0", 1000, 90))
            .device(Device::cpu(DeviceId(2), "cpu0", 1000, 200))
            .build()
            .unwrap()
    }

    fn spec(duration_us: u64, priority: u8) -> ArrivalSpec {
        ArrivalSpec {
            app: AppId(1),
            request: paper::table1_request().unwrap(),
            priority,
            duration_us,
            relaxed: None,
        }
    }

    #[test]
    fn accepts_and_places_on_dsp() {
        let mut sys = base_system();
        sys.submit(SimTime::ZERO, spec(1000, 5));
        let metrics = sys.run().unwrap();
        assert_eq!(metrics.requests, 1);
        assert_eq!(metrics.accepted, 1);
        let task = sys.tasks().next().unwrap();
        assert_eq!(task.impl_id, paper::IMPL_DSP, "Table 1 winner placed");
        assert_eq!(task.device, DeviceId(1));
        assert_eq!(task.state, TaskState::Completed);
        assert!(metrics.energy_nj > 0);
    }

    #[test]
    fn repeated_requests_hit_bypass_tokens() {
        let mut sys = base_system();
        for i in 0..4u64 {
            sys.submit(SimTime::from_ms(i * 10), spec(1000, 5));
        }
        let metrics = sys.run().unwrap();
        assert_eq!(metrics.accepted, 4);
        assert_eq!(metrics.retrievals, 1, "only the first call retrieves");
        assert_eq!(metrics.bypass_hits, 3);
    }

    #[test]
    fn dsp_contention_downgrades_to_fpga() {
        // Two concurrent requests: the DSP fits one task (450 permille x2
        // would exceed 1000? 450*2=900 fits!). Shrink the DSP instead.
        let mut sys = SystemBuilder::new(paper::table1_case_base())
            .device(Device::fpga(DeviceId(0), "fpga0", 2000, 150))
            .device(Device::dsp(DeviceId(1), "dsp0", 500, 90))
            .build()
            .unwrap();
        sys.submit(SimTime::ZERO, spec(10_000, 5));
        sys.submit(SimTime::from_us(1), spec(10_000, 5));
        let metrics = sys.run().unwrap();
        assert_eq!(metrics.accepted, 2);
        assert_eq!(metrics.downgraded, 1, "second call falls back to FPGA");
        let targets: Vec<DeviceId> = sys.tasks().map(|t| t.device).collect();
        assert!(targets.contains(&DeviceId(0)) && targets.contains(&DeviceId(1)));
    }

    #[test]
    fn preemption_frees_room_for_high_priority() {
        // FPGA fits exactly one 850-slice variant; low priority first.
        let mut sys = SystemBuilder::new(paper::table1_case_base())
            .device(Device::fpga(DeviceId(0), "fpga0", 1000, 150))
            .build()
            .unwrap();
        // Request something only the FPGA serves: constrain to surround
        // output so the FPGA variant ranks first and is the only target.
        let request = rqfa_core::Request::builder(paper::FIR_EQUALIZER)
            .constraint(paper::ATTR_OUTPUT, 2)
            .build()
            .unwrap();
        let mk = |priority| ArrivalSpec {
            app: AppId(priority as u16),
            request: request.clone(),
            priority,
            duration_us: 100_000,
            relaxed: None,
        };
        sys.submit(SimTime::ZERO, mk(2));
        sys.submit(SimTime::from_ms(1), mk(9));
        let metrics = sys.run().unwrap();
        assert_eq!(metrics.preemptions, 1);
        assert_eq!(metrics.accepted, 2);
        let preempted = sys
            .tasks()
            .filter(|t| t.state == TaskState::Preempted)
            .count();
        assert_eq!(preempted, 1);
    }

    #[test]
    fn equal_priority_does_not_preempt() {
        let mut sys = SystemBuilder::new(paper::table1_case_base())
            .device(Device::fpga(DeviceId(0), "fpga0", 1000, 150))
            .build()
            .unwrap();
        let request = rqfa_core::Request::builder(paper::FIR_EQUALIZER)
            .constraint(paper::ATTR_OUTPUT, 2)
            .build()
            .unwrap();
        let mk = |priority| ArrivalSpec {
            app: AppId(1),
            request: request.clone(),
            priority,
            duration_us: 100_000,
            relaxed: None,
        };
        sys.submit(SimTime::ZERO, mk(5));
        sys.submit(SimTime::from_ms(1), mk(5));
        let metrics = sys.run().unwrap();
        assert_eq!(metrics.preemptions, 0);
        assert_eq!(metrics.rejected, 1);
    }

    #[test]
    fn rejection_triggers_relaxed_retry() {
        // A request nothing satisfies well (threshold very high), with a
        // relaxed fallback that matches the GP variant exactly.
        let mut sys = SystemBuilder::new(paper::table1_case_base())
            .device(Device::cpu(DeviceId(2), "cpu0", 1000, 200))
            .policy(AllocPolicy {
                threshold: Q15::from_f64_saturating(0.99),
                ..AllocPolicy::default()
            })
            .build()
            .unwrap();
        let strict = rqfa_core::Request::builder(paper::FIR_EQUALIZER)
            .constraint(paper::ATTR_BITWIDTH, 16)
            .constraint(paper::ATTR_RATE, 44)
            .constraint(paper::ATTR_OUTPUT, 1)
            .build()
            .unwrap();
        let relaxed = paper::relaxed_request().unwrap();
        sys.submit(
            SimTime::ZERO,
            ArrivalSpec {
                app: AppId(1),
                request: strict,
                priority: 5,
                duration_us: 1000,
                relaxed: Some(relaxed),
            },
        );
        let metrics = sys.run().unwrap();
        assert_eq!(metrics.requests, 2, "original + relaxed retry");
        assert_eq!(metrics.rejected, 1);
        assert_eq!(metrics.accepted, 1, "relaxed request lands on the CPU");
        let task = sys.tasks().next().unwrap();
        assert_eq!(task.impl_id, paper::IMPL_GP);
    }

    #[test]
    fn unknown_type_rejected_without_retry() {
        let mut sys = base_system();
        let request = rqfa_core::Request::builder(rqfa_core::TypeId::new(99).unwrap())
            .constraint(paper::ATTR_BITWIDTH, 8)
            .build()
            .unwrap();
        sys.submit(
            SimTime::ZERO,
            ArrivalSpec {
                app: AppId(1),
                request,
                priority: 1,
                duration_us: 10,
                relaxed: None,
            },
        );
        let metrics = sys.run().unwrap();
        assert_eq!(metrics.rejected, 1);
        assert_eq!(metrics.accepted, 0);
    }

    #[test]
    fn reconfig_port_serializes_loads() {
        // Two FPGA placements back to back: the second must wait for the
        // port, visible as a larger allocation latency.
        let mut sys = SystemBuilder::new(paper::table1_case_base())
            .device(Device::fpga(DeviceId(0), "fpga0", 4000, 150))
            .build()
            .unwrap();
        let request = rqfa_core::Request::builder(paper::FIR_EQUALIZER)
            .constraint(paper::ATTR_OUTPUT, 2)
            .build()
            .unwrap();
        let mk = || ArrivalSpec {
            app: AppId(1),
            request: request.clone(),
            priority: 5,
            duration_us: 100_000,
            relaxed: None,
        };
        sys.submit(SimTime::ZERO, mk());
        sys.submit(SimTime::ZERO, mk());
        let metrics = sys.run().unwrap();
        assert_eq!(metrics.accepted, 2);
        let mut latencies: Vec<u64> = sys.tasks().map(Task::allocation_latency_us).collect();
        latencies.sort_unstable();
        assert!(latencies[1] >= 2 * latencies[0], "port contention visible");
        assert!(metrics.reconfig_busy_us > 0);
    }

    #[test]
    fn capacity_is_conserved() {
        let mut sys = base_system();
        for i in 0..10u64 {
            sys.submit(SimTime::from_ms(i), spec(500, 3));
        }
        sys.run().unwrap();
        // After the run everything completed: devices fully free again.
        for d in [DeviceId(0), DeviceId(1), DeviceId(2)] {
            let dev = sys.device(d).unwrap();
            assert!(dev.utilization().abs() < 1e-12, "{dev} not drained");
        }
    }

    #[test]
    fn log_records_decisions() {
        let mut sys = base_system();
        sys.submit(SimTime::ZERO, spec(100, 1));
        sys.run().unwrap();
        assert!(!sys.log().is_empty());
        assert!(sys.log()[0].1.contains("accepted"));
    }
}

#[cfg(test)]
mod failure_injection_tests {
    use super::*;
    use rqfa_core::paper;

    /// A variant the repository has no configuration for is skipped like an
    /// infeasible candidate; the next-ranked variant is placed instead.
    #[test]
    fn missing_config_falls_back_to_next_candidate() {
        let case_base = paper::table1_case_base();
        let mut builder = SystemBuilder::new(case_base);
        // Wipe the repository and re-register everything EXCEPT the DSP
        // variant (the Table 1 winner).
        builder.repository = Repository::new(20, 50);
        builder
            .repository
            .insert(paper::FIR_EQUALIZER, paper::IMPL_FPGA, 96 * 1024);
        builder
            .repository
            .insert(paper::FIR_EQUALIZER, paper::IMPL_GP, 2 * 1024);
        let mut sys = builder
            .device(Device::fpga(DeviceId(0), "fpga0", 2000, 150))
            .device(Device::dsp(DeviceId(1), "dsp0", 1000, 90))
            .device(Device::cpu(DeviceId(2), "cpu0", 1000, 200))
            .build()
            .unwrap();
        sys.submit(
            SimTime::ZERO,
            ArrivalSpec {
                app: AppId(1),
                request: paper::table1_request().unwrap(),
                priority: 5,
                duration_us: 1000,
                relaxed: None,
            },
        );
        let metrics = sys.run().unwrap();
        assert_eq!(metrics.accepted, 1);
        let task = sys.tasks().next().unwrap();
        assert_eq!(
            task.impl_id,
            paper::IMPL_FPGA,
            "falls back to the runner-up when the winner has no bitstream"
        );
        // Device accounting still drains to zero.
        assert!(sys.device(DeviceId(1)).unwrap().utilization().abs() < 1e-12);
    }

    /// An empty repository rejects everything but never aborts the run.
    #[test]
    fn empty_repository_rejects_cleanly() {
        let mut builder = SystemBuilder::new(paper::table1_case_base());
        builder.repository = Repository::new(20, 50);
        let mut sys = builder
            .device(Device::dsp(DeviceId(1), "dsp0", 1000, 90))
            .build()
            .unwrap();
        sys.submit(
            SimTime::ZERO,
            ArrivalSpec {
                app: AppId(1),
                request: paper::table1_request().unwrap(),
                priority: 5,
                duration_us: 1000,
                relaxed: None,
            },
        );
        let metrics = sys.run().unwrap();
        assert_eq!(metrics.rejected, 1);
        assert_eq!(metrics.accepted, 0);
    }
}
