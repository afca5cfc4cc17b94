//! Bringing the system under test up and down: an in-process service, a
//! durable service on a real directory, or a two-node loopback cluster.
//! Only default configuration is used (plus shard count, queue capacity
//! and trace capacity), because defaults are what users get.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use rqfa_core::{CaseBase, NodeId, NodeMap, QosClass};
use rqfa_net::{NetStats, RetryPolicy};
use rqfa_service::remote::{ClusterClient, NodeServer, RemoteShard};
use rqfa_service::{shard, AllocationService, MetricsSnapshot, ServiceConfig, TraceDump};

use crate::spec::Spec;

/// Per-shard flight-recorder capacity of a traced run, events.
const TRACE_CAPACITY: usize = 1 << 16;
/// Nodes of the loopback cluster, one shard each.
const NODES: usize = 2;
const NODE_TIMEOUT: Duration = Duration::from_millis(300);
const NODE_RETRY: RetryPolicy = RetryPolicy {
    attempts: 2,
    base_backoff: Duration::from_millis(1),
    jitter_seed: 0,
};

/// The running system a workload is offered to.
pub enum System {
    Local(AllocationService),
    Cluster(Cluster),
}

pub struct Cluster {
    pub client: ClusterClient,
    servers: Vec<NodeServer>,
    nodes: Vec<Arc<AllocationService>>,
    stats: Vec<Arc<NetStats>>,
}

impl System {
    /// Brings `spec`'s system up over `base`. `durable_dir` is used (and
    /// emptied) by durable workloads only.
    pub fn start(spec: &Spec, base: &CaseBase, traced: bool, durable_dir: &Path) -> System {
        let mut config = ServiceConfig::default().with_shards(1);
        if let Some(capacity) = spec.queue_capacity {
            config = config.with_queue_capacity(capacity);
        }
        if traced {
            config = config.with_trace_capacity(TRACE_CAPACITY);
        }
        if spec.is_cluster() {
            return System::Cluster(Cluster::start(base, &config));
        }
        let service = if spec.durable {
            AllocationService::durable_create(base, durable_dir, &config)
        } else {
            AllocationService::new(base, &config)
        };
        System::Local(service.expect("service starts on a generated case base"))
    }

    /// The service's own counters, summed over nodes.
    pub fn counters(&self) -> Counters {
        match self {
            System::Local(service) => Counters::of(&service.metrics()),
            System::Cluster(cluster) => cluster
                .nodes
                .iter()
                .map(|node| Counters::of(&node.metrics()))
                .fold(Counters::default(), |sum, c| sum.plus(&c)),
        }
    }

    /// Every shard's flight recorder, one dump per node (request ids are
    /// per node, so dumps of different nodes must not be merged).
    pub fn drain_traces(&self) -> Vec<TraceDump> {
        match self {
            System::Local(service) => vec![service.drain_trace()],
            System::Cluster(cluster) => cluster.nodes.iter().map(|n| n.drain_trace()).collect(),
        }
    }

    /// Transport counters of the cluster client: frames sent, bytes
    /// sent, retries, timeouts. Zero in process.
    pub fn net_counters(&self) -> [u64; 4] {
        let mut sum = [0u64; 4];
        if let System::Cluster(cluster) = self {
            for stats in &cluster.stats {
                sum[0] += stats.frames_sent.load(Ordering::Relaxed);
                sum[1] += stats.bytes_sent.load(Ordering::Relaxed);
                sum[2] += stats.retries.load(Ordering::Relaxed);
                sum[3] += stats.timeouts.load(Ordering::Relaxed);
            }
        }
        sum
    }

    /// Drains and joins everything.
    pub fn stop(self) {
        match self {
            System::Local(service) => {
                service.shutdown();
            }
            System::Cluster(cluster) => {
                drop(cluster.client);
                for server in cluster.servers {
                    server.shutdown();
                }
                for node in cluster.nodes {
                    if let Ok(service) = Arc::try_unwrap(node) {
                        service.shutdown();
                    }
                }
            }
        }
    }
}

impl Cluster {
    fn start(base: &CaseBase, config: &ServiceConfig) -> Cluster {
        let client = ClusterClient::new(
            Box::new(NodeMap::new(
                (0..NODES).map(|n| Some(NodeId::new(n as u16))).collect(),
            )),
            None,
        );
        let mut servers = Vec::new();
        let mut nodes = Vec::new();
        let mut stats = Vec::new();
        for (index, slice) in shard::partition(base, NODES).into_iter().enumerate() {
            let slice = slice.expect("every node owns a function type");
            let node =
                Arc::new(AllocationService::new(&slice, config).expect("node service starts"));
            let server = NodeServer::spawn(Arc::clone(&node)).expect("loopback listener binds");
            let remote = RemoteShard::tcp(server.addr(), NODE_TIMEOUT, NODE_RETRY);
            stats.push(remote.stats());
            client.set_node(NodeId::new(index as u16), remote);
            servers.push(server);
            nodes.push(node);
        }
        Cluster {
            client,
            servers,
            nodes,
            stats,
        }
    }
}

/// The service counters the benchmark reads, as plain numbers so that
/// snapshots of several nodes add up and two snapshots subtract.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_stale: u64,
    pub shed_queue_full: u64,
    pub shed_deadline: u64,
    pub shed_predicted: u64,
    pub promoted: u64,
    pub missed_deadline: u64,
    pub picks: [u64; QosClass::COUNT],
    pub batches: u64,
    pub batched_requests: u64,
    pub ops: u64,
}

impl Counters {
    fn of(snapshot: &MetricsSnapshot) -> Counters {
        let mut c = Counters {
            batches: snapshot.batches,
            batched_requests: snapshot.batched_requests,
            ops: snapshot.ops.arithmetic(),
            ..Counters::default()
        };
        for class in QosClass::ALL {
            let s = snapshot.class(class);
            c.cache_hits += s.cache_hits;
            c.cache_misses += s.cache_misses;
            c.cache_stale += s.cache_stale;
            c.shed_queue_full += s.shed_queue_full;
            c.shed_deadline += s.shed_deadline;
            c.shed_predicted += s.shed_predicted;
            c.promoted += s.promoted;
            c.missed_deadline += s.missed_deadline;
            c.picks[class.index()] = s.picks;
        }
        c
    }

    fn combine(&self, other: &Counters, op: fn(u64, u64) -> u64) -> Counters {
        let mut picks = [0; QosClass::COUNT];
        for (i, pick) in picks.iter_mut().enumerate() {
            *pick = op(self.picks[i], other.picks[i]);
        }
        Counters {
            cache_hits: op(self.cache_hits, other.cache_hits),
            cache_misses: op(self.cache_misses, other.cache_misses),
            cache_stale: op(self.cache_stale, other.cache_stale),
            shed_queue_full: op(self.shed_queue_full, other.shed_queue_full),
            shed_deadline: op(self.shed_deadline, other.shed_deadline),
            shed_predicted: op(self.shed_predicted, other.shed_predicted),
            promoted: op(self.promoted, other.promoted),
            missed_deadline: op(self.missed_deadline, other.missed_deadline),
            picks,
            batches: op(self.batches, other.batches),
            batched_requests: op(self.batched_requests, other.batched_requests),
            ops: op(self.ops, other.ops),
        }
    }

    pub fn plus(&self, other: &Counters) -> Counters {
        self.combine(other, u64::wrapping_add)
    }

    /// Counts since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.combine(earlier, u64::saturating_sub)
    }
}
