//! What the benchmark runs and what it reports: the five workloads and
//! the metric names, units and directions. `BENCHMARK.json` at the root
//! of the repository lists the same names (a test compares the two); it
//! also holds each end-to-end metric's regression bound.

use rqfa_core::QosClass;

/// Share of arrivals per class (CRITICAL, HIGH, MEDIUM, LOW), every
/// workload: a thin CRITICAL stream over mostly background traffic.
pub const CLASS_MIX: [f64; QosClass::COUNT] = [0.05, 0.15, 0.30, 0.50];

/// The share of a run's slices, the fastest ones, that the end-to-end
/// metrics are read from. On the shared host this was written on, a
/// neighbour on the same physical core slows the guest by a third to a
/// half, in episodes from a few milliseconds to most of a minute long,
/// about half of the time; in 29 of 30 stretches of 20 s well over a
/// fiftieth of 5 ms slices ran undisturbed.
pub const QUIET_SHARE: f64 = 0.02;

/// Where a workload's request payloads come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Zipf popularity (exponent 1.1) over a pool of 2048 payloads: a
    /// working set far below the result cache's capacity.
    Zipf { arrivals: usize },
    /// `count` distinct payloads replayed in a cycle: more than the
    /// cache holds, so FIFO eviction never hits.
    Unique { count: usize },
    /// Fresh payloads with 30 % exact repeats of earlier ones, and a
    /// deadline on every arrival of a sheddable class (HIGH 2–40 ms,
    /// MEDIUM 5–80 ms, LOW 10–160 ms); `arrivals` of them, replayed in a
    /// cycle.
    Deadlined { arrivals: usize },
}

/// How load is offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// One thread keeping `outstanding` tickets in flight.
    ClosedLocal { outstanding: usize },
    /// `threads` threads sharing one cluster client, each blocking on
    /// its own request.
    ClosedCluster { threads: usize },
    /// One thread that offers `burst` arrivals, blocks until the service
    /// has answered the one it will serve first (which takes it one
    /// batch), collects what else is done, and offers the next burst:
    /// more than a batch every time, whatever the machine's speed.
    Surge { burst: usize },
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// `CaseGen::new` arguments: types, variants per type, attributes
    /// per variant, attribute types.
    pub case_shape: (u16, u16, u16, u16),
    pub traffic: Traffic,
    pub load: Load,
    /// Latency limit of an arrival without a deadline of its own, µs.
    pub limit_us: u64,
    /// Latency limit of CRITICAL arrivals, µs.
    pub critical_limit_us: u64,
    /// `with_queue_capacity`, when not the default.
    pub queue_capacity: Option<usize>,
    /// Durable shards on a real directory.
    pub durable: bool,
    /// One blocking `apply_mutation` after this many reads.
    pub mutate_every: Option<usize>,
    /// Consecutive operations that make one slice of a closed loop, at
    /// least: about 5 ms of work on the host this was written on.
    pub slice_ops: usize,
}

impl Spec {
    pub fn is_cluster(&self) -> bool {
        matches!(self.load, Load::ClosedCluster { .. })
    }
}

/// The workloads, in the order they run. The one-sentence reason for
/// each is in `BENCHMARK.json` and `README.md`.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "local_hot",
        case_shape: (24, 24, 8, 10),
        traffic: Traffic::Zipf { arrivals: 1 << 17 },
        // 32 in flight: 1 and 256 are bimodal from run to run on two
        // cores (see README.md).
        load: Load::ClosedLocal { outstanding: 32 },
        limit_us: 1_000,
        critical_limit_us: 1_000,
        queue_capacity: None,
        durable: false,
        mutate_every: None,
        slice_ops: 2048,
    },
    Spec {
        name: "local_scan",
        case_shape: (16, 512, 10, 10),
        // 1.5 × the default cache capacity of 65 536 entries.
        traffic: Traffic::Unique { count: 98_304 },
        load: Load::ClosedLocal { outstanding: 256 },
        limit_us: 5_000,
        critical_limit_us: 5_000,
        queue_capacity: None,
        durable: false,
        mutate_every: None,
        slice_ops: 1024,
    },
    Spec {
        name: "cluster_hot",
        case_shape: (24, 24, 8, 10),
        traffic: Traffic::Zipf { arrivals: 1 << 17 },
        load: Load::ClosedCluster { threads: 2 },
        limit_us: 2_000,
        critical_limit_us: 2_000,
        queue_capacity: None,
        durable: false,
        mutate_every: None,
        slice_ops: 256,
    },
    Spec {
        name: "surge_overload",
        case_shape: (16, 1024, 10, 10),
        // Seven tenths of them distinct and six tenths of those admitted:
        // 1.7 × the default cache capacity between two uses of a payload.
        traffic: Traffic::Deadlined { arrivals: 260_000 },
        // A round serves two batches or so: about 1.6 × what is served.
        load: Load::Surge { burst: 96 },
        limit_us: 160_000,
        critical_limit_us: 2_000,
        queue_capacity: Some(1024),
        durable: false,
        mutate_every: None,
        slice_ops: 4096,
    },
    Spec {
        name: "learn_mix",
        case_shape: (24, 24, 8, 10),
        traffic: Traffic::Zipf { arrivals: 1 << 17 },
        load: Load::ClosedLocal { outstanding: 32 },
        limit_us: 5_000,
        critical_limit_us: 5_000,
        queue_capacity: None,
        durable: true,
        mutate_every: Some(256),
        slice_ops: 2048,
    },
];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|spec| spec.name == name)
}

/// Name and unit of one reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the service sees; every workload reports every one.
/// Measured with tracing off; each but `setup_s` and `peak_rss_mb` is
/// read from the run's quiet slices (see [`QUIET_SHARE`]).
pub const END_TO_END: [MetricDef; 6] = [
    def("setup_s", "s"),
    def("throughput_rps", "1/s"),
    def("latency_p50_us", "us"),
    def("slo_met_ratio", "ratio"),
    def("critical_met_ratio", "ratio"),
    def("peak_rss_mb", "MB"),
];

pub const CLASS_NAMES: [&str; QosClass::COUNT] = ["critical", "high", "medium", "low"];

/// The per-layer metrics, from the traced run and the layer probes; a
/// layer is a module of `crates/`, `client` is the benchmark's own load
/// generator. A metric with no meaning on a workload (frames sent by an
/// in-process workload) reads 0 there.
pub const PER_LAYER: [MetricDef; 97] = [
    def("client.attempted", "count"),
    def("client.allocated", "count"),
    def("client.shed", "count"),
    def("client.failed", "count"),
    def("client.failed_ratio", "ratio"),
    def("client.latency_p99_us", "us"),
    def("client.latency_p999_us", "us"),
    def("client.p50_us.critical", "us"),
    def("client.p50_us.high", "us"),
    def("client.p50_us.medium", "us"),
    def("client.p50_us.low", "us"),
    def("client.p99_us.critical", "us"),
    def("client.p99_us.high", "us"),
    def("client.p99_us.medium", "us"),
    def("client.p99_us.low", "us"),
    def("client.met_ratio.critical", "ratio"),
    def("client.met_ratio.high", "ratio"),
    def("client.met_ratio.medium", "ratio"),
    def("client.met_ratio.low", "ratio"),
    def("client.shed_ratio.critical", "ratio"),
    def("client.shed_ratio.high", "ratio"),
    def("client.shed_ratio.medium", "ratio"),
    def("client.shed_ratio.low", "ratio"),
    def("client.mutation_ack_p50_us", "us"),
    def("client.max_outstanding", "count"),
    def("client.window_spread", "ratio"),
    def("client.trace_mb", "MB"),
    def("client.oracle_s", "s"),
    def("client.input_digest", "count"),
    def("service.submit_ns_p50", "ns"),
    def("service.reported_p50_us", "us"),
    def("service.wake_gap_p50_us", "us"),
    def("queue.stage_queue_p50_us", "us"),
    def("queue.stage_queue_p99_us", "us"),
    def("queue.shed_queue_full", "count"),
    def("queue.shed_deadline", "count"),
    def("queue.shed_predicted", "count"),
    def("sched.promoted", "count"),
    def("sched.missed_deadline", "count"),
    def("sched.served_share.critical", "ratio"),
    def("sched.served_share.high", "ratio"),
    def("sched.served_share.medium", "ratio"),
    def("sched.served_share.low", "ratio"),
    def("shard.stage_dispatch_p50_us", "us"),
    def("shard.stage_dispatch_p99_us", "us"),
    def("shard.stage_service_p50_us", "us"),
    def("shard.stage_service_p99_us", "us"),
    def("shard.stage_reply_p50_us", "us"),
    def("shard.stage_reply_p99_us", "us"),
    def("shard.stage_sum_mismatch", "count"),
    def("shard.batches", "count"),
    def("shard.mean_batch_len", "count"),
    def("cache.hit_ratio", "ratio"),
    def("cache.stale", "count"),
    def("cache.probe_lookup_ns", "ns"),
    def("cache.probe_insert_ns", "ns"),
    def("cache.probe_hit_ratio", "ratio"),
    def("core.kernel_batch_ns_per_req", "ns"),
    def("core.kernel_single_ns_per_req", "ns"),
    def("core.compile_us", "us"),
    def("core.evaluated_per_req", "count"),
    def("core.ops_per_req", "count"),
    def("core.wide_kernel", "count"),
    def("net.encode_submit_ns", "ns"),
    def("net.decode_submit_ns", "ns"),
    def("net.encode_reply_ns", "ns"),
    def("net.decode_reply_ns", "ns"),
    def("net.submit_frame_bytes", "bytes"),
    def("net.reply_frame_bytes", "bytes"),
    def("net.heartbeat_rtt_p50_us", "us"),
    def("net.heartbeat_rtt_p99_us", "us"),
    def("net.frames_sent", "count"),
    def("net.bytes_sent", "bytes"),
    def("net.retries", "count"),
    def("net.timeouts", "count"),
    def("remote.hop_overhead_p50_us", "us"),
    def("remote.hop_share", "ratio"),
    def("persist.apply_p50_us", "us"),
    def("persist.apply_p99_us", "us"),
    def("persist.service_apply_p99_us", "us"),
    def("persist.wal_bytes_per_mutation", "bytes"),
    def("persist.appends_per_mutation", "count"),
    def("persist.checkpoint_ms", "ms"),
    def("persist.recover_ms", "ms"),
    def("persist.replayed", "count"),
    def("trace.overhead_ratio", "ratio"),
    def("trace.timelines", "count"),
    def("trace.dropped", "count"),
    def("trace.untraced_rps", "1/s"),
    def("trace.traced_rps", "1/s"),
    def("client.cores", "count"),
    def("client.mutations", "count"),
    def("client.pinned", "count"),
    def("client.cpu_us_per_req", "us"),
    def("client.slices", "count"),
    def("client.quiet_rps", "1/s"),
    def("client.host_noise_ratio", "ratio"),
];
