//! One workload, start to finish: the reference answers, confinement to
//! one CPU, set-up, warm-up, the measured phase, the check against the
//! reference, and the metrics. With tracing off it yields the end-to-end
//! metrics; with tracing on, the per-layer ones.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rqfa_core::FixedEngine;
use rqfa_service::{AllocationService, Outcome, ServiceConfig, TraceDump};
use rqfa_telemetry::EventKind;
use rqfa_workloads::MutationGen;

use crate::drive::{Driver, Log, Mutator, LOG_CAPACITY};
use crate::inputs::{expected, Expected, Inputs};
use crate::machine::{confine_to_one_cpu, cores, has_avx2, peak_rss_mb, ScratchDir};
use crate::probes;
use crate::spec::{Load, MetricDef, Spec, CLASS_NAMES, END_TO_END, PER_LAYER, QUIET_SHARE};
use crate::system::System;
use crate::tally::{quantile, ratio, spread, Tally};

/// Requests replayed against the reference after a learning workload
/// has gone quiet, and again after recovery.
const PROBE_SET: usize = 2048;

/// Length of one window of the measured phase, seconds.
const WINDOW_S: f64 = 0.5;

/// Windows between two pauses of the measured phase. An end-to-end run
/// sets the system up once more in each pause, so that the set-ups it
/// times are spread over the run like the slices are.
const STRETCH_WINDOWS: usize = 4;

/// How long and how often things run. The defaults are what
/// `BENCHMARK.json`'s command gets; `--smoke` shrinks everything.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Windows the measured phase is cut into.
    pub windows: usize,
    pub warmup_s: f64,
    /// Requests each layer probe uses.
    pub probe_samples: usize,
}

impl Scale {
    pub fn full(seconds: f64) -> Scale {
        Scale {
            seconds,
            // An even count, so that a traced run halves it.
            windows: ((seconds / WINDOW_S / 2.0).round() as usize * 2).clamp(2, 240),
            warmup_s: 1.0,
            probe_samples: 20_000,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            seconds: 1.0,
            windows: 4,
            warmup_s: 0.25,
            probe_samples: 2_000,
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub def: MetricDef,
    pub value: f64,
    /// Measurements behind the value (slices, set-ups, requests or
    /// calls).
    pub samples: u64,
}

/// What one run of one workload found.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    /// Operations attempted in the measured phase and the checks after.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// What a run works on, made before any clock starts.
struct Context {
    spec: &'static Spec,
    seed: u64,
    scale: Scale,
    inputs: Inputs,
    /// Reference answers by arrival; `None` for a learning workload,
    /// whose reads race its writes and are checked after quiescence.
    oracle: Option<Vec<Expected>>,
    oracle_s: f64,
    /// Whether the run is confined to one CPU.
    pinned: bool,
    scratch: ScratchDir,
    durable_dir: PathBuf,
}

/// Runs `spec` once. `traced` selects which metric set is measured.
pub fn run(spec: &'static Spec, seed: u64, scale: Scale, traced: bool) -> Report {
    let scratch = ScratchDir::create().expect("scratch directory next to the executable");
    let durable_dir = scratch.join("durable");

    // The reference answers are the benchmark's own work, not the
    // system's set-up, so they are built first, on every core, from a
    // generation of the inputs of their own, and timed apart.
    let oracle_start = Instant::now();
    let oracle = spec
        .mutate_every
        .is_none()
        .then(|| Inputs::generate(spec, seed).oracle(cores()));
    let oracle_s = oracle_start.elapsed().as_secs_f64();

    // The load generator and the system it drives share one CPU from
    // here on.
    let pinned = confine_to_one_cpu();

    // Set-up: generation of the inputs and bring-up of the system. An
    // end-to-end run repeats it in every pause of the measured phase.
    let start = Instant::now();
    let inputs = Inputs::generate(spec, seed);
    let system = System::start(spec, &inputs.base, false, &durable_dir);
    let first_setup_s = start.elapsed().as_secs_f64();

    let context = Context {
        spec,
        seed,
        scale,
        inputs,
        oracle,
        oracle_s,
        pinned,
        scratch,
        durable_dir,
    };
    if traced {
        context.per_layer(system)
    } else {
        context.end_to_end(system, first_setup_s)
    }
}

/// Runs one phase of `seconds` in `tally.windows.len()` windows, with a
/// call of `pause` after every [`STRETCH_WINDOWS`] of them. Nothing is in
/// flight while `pause` runs.
fn phase(
    driver: &mut Driver<'_>,
    logs: &mut [Log],
    tally: &mut Tally<'_>,
    seconds: f64,
    pause: &mut dyn FnMut(),
) {
    let windows = tally.windows.len();
    let len = Duration::from_secs_f64(seconds / windows as f64);
    let mut merged = Vec::new();
    for window in 0..windows {
        if window > 0 && window % STRETCH_WINDOWS == 0 {
            pause();
        }
        let cost = driver.window(len, logs);
        if let [log] = &*logs {
            tally.fold(log.entries(), window, cost);
        } else {
            // Slices are cut from replies in the order they were seen,
            // whichever client thread saw them.
            merged.clear();
            for log in logs.iter() {
                merged.extend_from_slice(log.entries());
            }
            merged.sort_by_key(|entry| entry.at_us);
            tally.fold(&merged, window, cost);
        }
        for log in logs.iter_mut() {
            log.clear();
        }
    }
}

/// What checking a learning workload after quiescence found and cost.
#[derive(Debug, Default)]
struct Learned {
    checked: u64,
    wrong: u64,
    checkpoint_ms: f64,
    recover_ms: f64,
    replayed: u64,
}

impl Context {
    fn logs(&self, driver: &Driver<'_>) -> Vec<Log> {
        (0..driver.log_count())
            .map(|_| Log::with_capacity(LOG_CAPACITY / driver.log_count()))
            .collect()
    }

    fn tally(&self, windows: usize, checked: bool, detailed: bool) -> Tally<'_> {
        let oracle = self.oracle.as_deref().filter(|_| checked);
        Tally::new(self.spec, &self.inputs.arrivals, oracle, windows, detailed)
    }

    /// Lets caches fill and estimators warm; what it measures is
    /// discarded.
    fn warm_up(&self, driver: &mut Driver<'_>, logs: &mut [Log]) {
        phase(
            driver,
            logs,
            &mut self.tally(1, false, false),
            self.scale.warmup_s,
            &mut || (),
        );
    }

    fn end_to_end(&self, system: System, first_setup_s: f64) -> Report {
        let scale = self.scale;
        let mut driver = Driver::new(self.spec, &self.inputs, &system, self.seed, false);
        let mut logs = self.logs(&driver);
        self.warm_up(&mut driver, &mut logs);
        let mut tally = self.tally(scale.windows, true, false);
        // Set-up is timed again in every pause, on a second system beside
        // the measured one, which idles meanwhile.
        let mut setup_s = vec![first_setup_s];
        let spare_dir = self.scratch.join("durable-spare");
        let mut set_up_again = || {
            let start = Instant::now();
            let inputs = Inputs::generate(self.spec, self.seed);
            let spare = System::start(self.spec, &inputs.base, false, &spare_dir);
            setup_s.push(start.elapsed().as_secs_f64());
            spare.stop();
        };
        phase(
            &mut driver,
            &mut logs,
            &mut tally,
            scale.seconds,
            &mut set_up_again,
        );
        let mutator = driver.mutator.take();
        let learned = self.finish(system, mutator);

        let failed = tally.total(|c| c.failed) + learned.wrong;
        let quiet = tally.quiet(QUIET_SHARE);
        let fastest_setup = setup_s.iter().copied().fold(f64::MAX, f64::min);
        let values = [
            (fastest_setup, setup_s.len() as u64),
            (quiet.throughput_rps, quiet.selected as u64),
            (quiet.latency_p50_us, quiet.selected as u64),
            (quiet.met_ratio, quiet.selected as u64),
            (quiet.critical_met_ratio, quiet.selected as u64),
            (peak_rss_mb(), 1),
        ];
        Report {
            correct: failed == 0,
            attempted: tally.total(|c| c.attempted) + learned.checked,
            failed,
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(def, (value, samples))| Metric {
                    def: *def,
                    value,
                    samples,
                })
                .collect(),
        }
    }

    /// Stops `system`. A learning workload is first brought to the
    /// mutation generator's state, and a fixed probe set is compared
    /// with the reference over that state, before and after recovery
    /// from disk.
    fn finish(&self, system: System, mutator: Option<Mutator>) -> Learned {
        let (service, mutator) = match (system, mutator) {
            (System::Local(service), Some(mutator)) => (service, mutator),
            (system, _) => {
                system.stop();
                return Learned::default();
            }
        };
        let mut learned = Learned::default();
        let (gen, refused) = mutator.settle(&service);
        learned.checked += refused;
        learned.wrong += refused;
        self.probe_set(&service, &gen, &mut learned);
        let start = Instant::now();
        service.checkpoint().expect("checkpoint of a healthy store");
        learned.checkpoint_ms = start.elapsed().as_secs_f64() * 1_000.0;
        service.shutdown();
        let start = Instant::now();
        let (recovered, reports) =
            AllocationService::durable_recover(&self.durable_dir, &ServiceConfig::default())
                .expect("recovery of a cleanly stopped store");
        learned.recover_ms = start.elapsed().as_secs_f64() * 1_000.0;
        learned.replayed = reports.iter().flatten().map(|r| r.replayed as u64).sum();
        self.probe_set(&recovered, &gen, &mut learned);
        recovered.shutdown();
        learned
    }

    fn probe_set(&self, service: &AllocationService, gen: &MutationGen, learned: &mut Learned) {
        let engine = FixedEngine::new();
        for arrival in self.inputs.arrivals.iter().take(PROBE_SET) {
            let want = expected(&engine, gen.case_base(), &arrival.request);
            let reply = service
                .submit(arrival.request.clone(), arrival.class)
                .wait();
            let right = matches!(
                reply.map(|r| r.outcome),
                Some(Outcome::Allocated { best, .. })
                    if best.impl_id.raw() == want.impl_id
                        && best.similarity.raw() == want.similarity
            );
            learned.checked += 1;
            learned.wrong += u64::from(!right);
        }
    }

    /// The per-layer metrics: an untraced half to compare against, the
    /// layer probes, then the traced half with every call timed.
    fn per_layer(&self, untraced: System) -> Report {
        let spec = self.spec;
        let scale = self.scale;
        let half_s = scale.seconds / 2.0;
        let windows = (scale.windows / 2).max(1);

        let mut driver = Driver::new(spec, &self.inputs, &untraced, self.seed, false);
        let mut logs = self.logs(&driver);
        self.warm_up(&mut driver, &mut logs);
        let mut plain = self.tally(windows, true, false);
        phase(&mut driver, &mut logs, &mut plain, half_s, &mut || ());
        drop(driver);
        untraced.stop();

        let probes = probes::run(
            spec,
            &self.inputs,
            &self.scratch,
            self.seed,
            scale.probe_samples,
        );

        let system = System::start(spec, &self.inputs.base, true, &self.durable_dir);
        let mut driver = Driver::new(spec, &self.inputs, &system, self.seed, true);
        self.warm_up(&mut driver, &mut logs);
        let before = system.counters();
        let net_before = system.net_counters();
        let mut tally = self.tally(windows, true, true);
        phase(&mut driver, &mut logs, &mut tally, half_s, &mut || ());
        let counters = system.counters().since(&before);
        let net_after = system.net_counters();
        let net: [u64; 4] = std::array::from_fn(|i| net_after[i] - net_before[i]);
        let stages = Stages::of(&system.drain_traces());
        let max_outstanding = driver.max_outstanding;
        let mutator = driver.mutator.take();
        let learned = self.finish(system, mutator);

        let mut detail = tally.detail.take().expect("the traced tally keeps detail");
        let attempted = tally.total(|c| c.attempted);
        let allocated = tally.total(|c| c.allocated);
        let failed = tally.total(|c| c.failed) + plain.total(|c| c.failed) + learned.wrong;
        let rates: Vec<f64> = tally.windows.iter().map(|w| w.throughput_rps()).collect();
        let latency_p50_ns = quantile(&mut detail.latencies_ns, 0.5);
        let gap_p50_us = quantile(&mut detail.gap_ns, 0.5) / 1_000.0;
        let cluster = spec.is_cluster();
        let us = |ns: &mut Vec<u32>, q: f64| quantile(ns, q) / 1_000.0;

        let mut values: HashMap<String, (f64, u64)> = HashMap::new();
        let mut put = |name: &str, value: f64, samples: u64| {
            values.insert(name.to_string(), (value, samples));
        };
        put("client.cores", cores() as f64, 1);
        put("client.pinned", f64::from(u8::from(self.pinned)), 1);
        put("client.cpu_us_per_req", tally.cpu_us_per_req(), allocated);
        let quiet = tally.quiet(QUIET_SHARE);
        put("client.slices", quiet.slices as f64, 1);
        put(
            "client.quiet_rps",
            quiet.throughput_rps,
            quiet.selected as u64,
        );
        put(
            "client.host_noise_ratio",
            tally.overall_rps() / quiet.throughput_rps.max(1.0),
            quiet.slices as u64,
        );
        put("client.attempted", attempted as f64, attempted);
        put("client.allocated", allocated as f64, attempted);
        put("client.shed", tally.total(|c| c.shed) as f64, attempted);
        put("client.failed", failed as f64, attempted);
        put(
            "client.failed_ratio",
            ratio(failed, attempted + learned.checked),
            attempted,
        );
        put(
            "client.mutations",
            tally.total(|c| c.mutations) as f64,
            attempted,
        );
        put(
            "client.latency_p99_us",
            us(&mut detail.latencies_ns, 0.99),
            allocated,
        );
        put(
            "client.latency_p999_us",
            us(&mut detail.latencies_ns, 0.999),
            allocated,
        );
        for (class, name) in CLASS_NAMES.iter().enumerate() {
            let offered = detail.class_attempted[class];
            let latencies = &mut detail.class_latencies_ns[class];
            let served = latencies.len() as u64;
            put(&format!("client.p50_us.{name}"), us(latencies, 0.5), served);
            put(
                &format!("client.p99_us.{name}"),
                us(latencies, 0.99),
                served,
            );
            put(
                &format!("client.met_ratio.{name}"),
                ratio(detail.class_met[class], offered),
                offered,
            );
            put(
                &format!("client.shed_ratio.{name}"),
                ratio(detail.class_shed[class], offered),
                offered,
            );
            put(
                &format!("sched.served_share.{name}"),
                ratio(counters.picks[class], counters.picks.iter().sum()),
                counters.picks.iter().sum(),
            );
        }
        let acks = detail.mutation_ack_ns.len() as u64;
        put(
            "client.mutation_ack_p50_us",
            us(&mut detail.mutation_ack_ns, 0.5),
            acks,
        );
        put(
            "persist.service_apply_p99_us",
            us(&mut detail.mutation_ack_ns, 0.99),
            acks,
        );
        let outstanding = match spec.load {
            Load::ClosedLocal { outstanding } => outstanding,
            Load::ClosedCluster { threads } => threads,
            Load::Surge { .. } => max_outstanding,
        };
        put("client.max_outstanding", outstanding as f64, 1);
        put("client.window_spread", spread(&rates), windows as u64);
        put(
            "client.trace_mb",
            self.inputs.trace_mb(),
            self.inputs.arrivals.len() as u64,
        );
        put("client.oracle_s", self.oracle_s, 1);
        put("client.input_digest", self.inputs.digest() as f64, 1);

        put(
            "service.submit_ns_p50",
            quantile(&mut detail.call_ns, 0.5),
            allocated,
        );
        put(
            "service.reported_p50_us",
            quantile(&mut detail.reported_us, 0.5),
            allocated,
        );
        put(
            "service.wake_gap_p50_us",
            if cluster { 0.0 } else { gap_p50_us },
            allocated,
        );
        put(
            "remote.hop_overhead_p50_us",
            if cluster { gap_p50_us } else { 0.0 },
            allocated,
        );
        put(
            "remote.hop_share",
            if cluster {
                gap_p50_us * 1_000.0 / latency_p50_ns.max(1.0)
            } else {
                0.0
            },
            allocated,
        );

        let mut stages = stages;
        put(
            "queue.stage_queue_p50_us",
            quantile(&mut stages.queue_us, 0.5),
            stages.timelines,
        );
        put(
            "queue.stage_queue_p99_us",
            quantile(&mut stages.queue_us, 0.99),
            stages.timelines,
        );
        put(
            "shard.stage_dispatch_p50_us",
            quantile(&mut stages.dispatch_us, 0.5),
            stages.timelines,
        );
        put(
            "shard.stage_dispatch_p99_us",
            quantile(&mut stages.dispatch_us, 0.99),
            stages.timelines,
        );
        put(
            "shard.stage_service_p50_us",
            quantile(&mut stages.service_us, 0.5),
            stages.timelines,
        );
        put(
            "shard.stage_service_p99_us",
            quantile(&mut stages.service_us, 0.99),
            stages.timelines,
        );
        put(
            "shard.stage_reply_p50_us",
            quantile(&mut stages.reply_us, 0.5),
            stages.timelines,
        );
        put(
            "shard.stage_reply_p99_us",
            quantile(&mut stages.reply_us, 0.99),
            stages.timelines,
        );
        put(
            "shard.stage_sum_mismatch",
            stages.mismatched as f64,
            stages.timelines,
        );
        put("trace.timelines", stages.timelines as f64, 1);
        put("trace.dropped", stages.dropped as f64, 1);
        put(
            "trace.untraced_rps",
            plain.overall_rps(),
            plain.total(|c| c.allocated),
        );
        put("trace.traced_rps", tally.overall_rps(), allocated);
        put(
            "trace.overhead_ratio",
            tally.overall_rps() / plain.overall_rps().max(1.0),
            allocated,
        );

        let lookups = counters.cache_hits + counters.cache_misses;
        put("shard.batches", counters.batches as f64, 1);
        put(
            "shard.mean_batch_len",
            ratio(counters.batched_requests, counters.batches),
            counters.batches,
        );
        put(
            "queue.shed_queue_full",
            counters.shed_queue_full as f64,
            attempted,
        );
        put(
            "queue.shed_deadline",
            counters.shed_deadline as f64,
            attempted,
        );
        put(
            "queue.shed_predicted",
            counters.shed_predicted as f64,
            attempted,
        );
        put("sched.promoted", counters.promoted as f64, attempted);
        put(
            "sched.missed_deadline",
            counters.missed_deadline as f64,
            attempted,
        );
        put(
            "cache.hit_ratio",
            ratio(counters.cache_hits, lookups),
            lookups,
        );
        put("cache.stale", counters.cache_stale as f64, lookups);
        put(
            "core.ops_per_req",
            ratio(counters.ops, counters.cache_misses),
            counters.cache_misses,
        );
        put(
            "core.evaluated_per_req",
            ratio(detail.evaluated, detail.computed),
            detail.computed,
        );
        put("core.wide_kernel", f64::from(u8::from(has_avx2())), 1);

        let n = scale.probe_samples as u64;
        put("cache.probe_lookup_ns", probes.cache_lookup_ns, n);
        put("cache.probe_insert_ns", probes.cache_insert_ns, n);
        put(
            "cache.probe_hit_ratio",
            probes.cache_hit_ratio,
            self.inputs.arrivals.len() as u64,
        );
        put(
            "core.kernel_batch_ns_per_req",
            probes.kernel_batch_ns_per_req,
            n,
        );
        put(
            "core.kernel_single_ns_per_req",
            probes.kernel_single_ns_per_req,
            n,
        );
        put("core.compile_us", probes.compile_us, 5);
        put("net.encode_submit_ns", probes.encode_submit_ns, n);
        put("net.decode_submit_ns", probes.decode_submit_ns, n);
        put("net.encode_reply_ns", probes.encode_reply_ns, n);
        put("net.decode_reply_ns", probes.decode_reply_ns, n);
        put("net.submit_frame_bytes", probes.submit_frame_bytes, n);
        put("net.reply_frame_bytes", probes.reply_frame_bytes, n);
        put(
            "net.heartbeat_rtt_p50_us",
            probes.heartbeat_rtt_p50_us,
            n / 4,
        );
        put(
            "net.heartbeat_rtt_p99_us",
            probes.heartbeat_rtt_p99_us,
            n / 4,
        );
        put("net.frames_sent", net[0] as f64, 1);
        put("net.bytes_sent", net[1] as f64, 1);
        put("net.retries", net[2] as f64, 1);
        put("net.timeouts", net[3] as f64, 1);
        put("persist.apply_p50_us", probes.apply_p50_us, n / 100);
        put("persist.apply_p99_us", probes.apply_p99_us, n / 100);
        put(
            "persist.wal_bytes_per_mutation",
            probes.wal_bytes_per_mutation,
            n / 100,
        );
        put(
            "persist.appends_per_mutation",
            probes.appends_per_mutation,
            n / 100,
        );
        put("persist.checkpoint_ms", learned.checkpoint_ms, 1);
        put("persist.recover_ms", learned.recover_ms, 1);
        put("persist.replayed", learned.replayed as f64, 1);

        Report {
            correct: failed == 0 && stages.mismatched == 0,
            attempted: attempted + plain.total(|c| c.attempted) + learned.checked,
            failed,
            metrics: PER_LAYER
                .iter()
                .map(|def| {
                    let (value, samples) = *values
                        .get(def.name)
                        .unwrap_or_else(|| panic!("no value measured for {}", def.name));
                    Metric {
                        def: *def,
                        value,
                        samples,
                    }
                })
                .collect(),
        }
    }
}

/// The flight recorders' per-request stage breakdowns, pooled.
#[derive(Debug, Default)]
struct Stages {
    queue_us: Vec<u32>,
    dispatch_us: Vec<u32>,
    service_us: Vec<u32>,
    reply_us: Vec<u32>,
    /// Timelines with a breakdown (submitted and terminal both kept).
    timelines: u64,
    /// Breakdowns whose stages do not sum to terminal − submitted.
    mismatched: u64,
    dropped: u64,
}

impl Stages {
    fn of(dumps: &[TraceDump]) -> Stages {
        let mut stages = Stages::default();
        let narrow = |us: u64| u32::try_from(us).unwrap_or(u32::MAX);
        for dump in dumps {
            stages.dropped += dump.dropped;
            for timeline in dump.timelines() {
                let (Some(breakdown), Some(submitted), Some(terminal)) = (
                    timeline.breakdown(),
                    timeline.at(EventKind::Submitted),
                    timeline.terminal(),
                ) else {
                    continue;
                };
                stages.timelines += 1;
                stages.queue_us.push(narrow(breakdown.queue_us));
                stages.dispatch_us.push(narrow(breakdown.dispatch_us));
                stages.service_us.push(narrow(breakdown.service_us));
                stages.reply_us.push(narrow(breakdown.reply_us));
                let whole = terminal.at_us.saturating_sub(submitted);
                stages.mismatched += u64::from(breakdown.total_us() != whole);
            }
        }
        stages
    }
}
