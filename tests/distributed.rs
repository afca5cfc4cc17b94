//! Deterministic multi-node fault-injection harness (normative contract:
//! `docs/distribution.md`).
//!
//! A two-node loopback cluster — each node a real [`AllocationService`]
//! behind a real TCP [`NodeServer`] — must answer **bit-identically** to a
//! single-node sharded oracle fed the same request and mutation stream, no
//! matter what the transport does:
//!
//! 1. **Clean transport** — the full reply stream (ids, classes, outcomes,
//!    latencies under a frozen clock) equals the oracle's, with learning
//!    traffic interleaved and per-shard generations agreeing move by move.
//! 2. **Byte-level faults** — dropped, duplicated, truncated and
//!    split/delayed frames are absorbed by the bounded retry discipline;
//!    the reply stream is *still* bit-identical and nothing hangs.
//! 3. **Retry exhaustion** — a dead transport surfaces as
//!    [`Outcome::Unavailable`] after exactly the policy's attempt budget,
//!    and the client recovers on the next call once frames flow again.
//! 4. **Replication under kills** — snapshot shipping and WAL-tail
//!    streaming over TCP converge to a byte-identical replica even when
//!    the stream is killed mid-snapshot (reset + re-ship) or mid-tail
//!    (the consistent prefix survives, the tail resumes from the
//!    follower's generation).
//! 5. **Failover** — killing the leader mid-cluster and promoting its
//!    follower behind the same node id keeps the cluster's answers and
//!    generations bit-identical to the oracle, which never noticed.
//! 6. **Self-healing** — a [`Supervisor`] driving heartbeat probes
//!    through a [`FailureDetector`] under a `ManualClock` promotes a
//!    dead leader's standby automatically (never inside the lease
//!    bound, always once the lease decays), fences the deposed
//!    leader's mutations by epoch, keeps CRITICAL traffic on live
//!    shards completing through the outage, and sheds predictably-late
//!    LOW work fast — all bit-identical to the oracle and reproducible
//!    from seeded [`ChaosPlan`] schedules.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use rqfa::core::placement::{NodeId, NodeMap};
use rqfa::core::{CaseBase, Request};
use rqfa::core::QosClass;
use rqfa::memlist::encode_case_base;
use rqfa::net::{
    connect_loopback, shared_plan, FailureDetector, FaultAction, FaultPlan, FaultyStream, Follower,
    FrameConn, Message, NetStats, RetryPolicy, SharedFaultPlan, TailAck,
};
use rqfa::persist::StampedMutation;
use rqfa::service::remote::{
    replicate_shard, serve_follower, ClusterClient, NodeServer, PromoteFn, RemoteShard,
    RemoteStream, StreamFactory, Supervisor, SupervisorEvent,
};
use rqfa::service::{shard, AllocationService, Outcome, ServiceConfig, ServiceError};
use rqfa::telemetry::{ManualClock, SharedClock};
use rqfa::workloads::{CaseGen, ChaosAction, ChaosPlan, MutationGen, RequestGen};

const NODES: usize = 2;

fn frozen_clock() -> SharedClock {
    Arc::new(ManualClock::new())
}

/// One node's config: a single shard over its slice, caching off (so
/// `cached` flags cannot diverge from the oracle's), the shared frozen
/// clock (so every latency is 0 on both sides), manual checkpoints only
/// (so the WAL keeps the full tail for replication).
fn node_config(clock: &SharedClock) -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(1)
        .with_cache_capacity(0)
        .with_queue_capacity(4096)
        .with_snapshot_every(0)
        .with_clock(Arc::clone(clock))
}

fn oracle_config(clock: &SharedClock) -> ServiceConfig {
    ServiceConfig::default()
        .with_shards(NODES)
        .with_cache_capacity(0)
        .with_queue_capacity(4096)
        .with_clock(Arc::clone(clock))
}

/// A remote-shard client whose every connection writes through a
/// [`FaultyStream`] driven by `plan` (the plan is shared across
/// reconnects, so a retry consumes the *next* scripted action).
fn faulty_remote(
    addr: SocketAddr,
    plan: SharedFaultPlan,
    timeout: Duration,
    policy: RetryPolicy,
) -> RemoteShard {
    let factory: StreamFactory = Box::new(move || {
        let stream = connect_loopback(addr, timeout)?;
        Ok(Box::new(FaultyStream::new(stream, Arc::clone(&plan))) as Box<dyn RemoteStream>)
    });
    RemoteShard::new(factory, policy)
}

/// A fully remote two-node cluster over real TCP loopback: node `n`
/// serves slice `n` of `base` as a one-shard service.
struct Cluster {
    servers: Vec<NodeServer>,
    stats: Vec<Arc<NetStats>>,
    client: ClusterClient,
}

fn spawn_cluster(
    base: &CaseBase,
    clock: &SharedClock,
    plans: Option<&[SharedFaultPlan]>,
    timeout: Duration,
    policy: RetryPolicy,
) -> Cluster {
    let slices = shard::partition(base, NODES);
    let placement = NodeMap::new(
        (0..NODES)
            .map(|n| Some(NodeId::new(u16::try_from(n).unwrap())))
            .collect(),
    );
    let client = ClusterClient::new(Box::new(placement), None);
    let mut servers = Vec::new();
    let mut stats = Vec::new();
    for (n, slice) in slices.into_iter().enumerate() {
        let slice = slice.expect("these workloads populate every shard");
        let service = Arc::new(
            AllocationService::new(&slice, &node_config(clock)).expect("valid node config"),
        );
        // The server's accept/connection threads own the service from
        // here on.
        let server = NodeServer::spawn(service).expect("loopback bind");
        let remote = match plans {
            Some(plans) => faulty_remote(server.addr(), Arc::clone(&plans[n]), timeout, policy),
            None => RemoteShard::tcp(server.addr(), timeout, policy),
        };
        stats.push(remote.stats());
        client.set_node(NodeId::new(u16::try_from(n).unwrap()), remote);
        servers.push(server);
    }
    Cluster {
        servers,
        stats,
        client,
    }
}

/// Feeds the same request/mutation stream to the cluster and the oracle
/// in lockstep and asserts full bit-identity: every [`rqfa::service::Reply`]
/// equal, every mutation acknowledged with exactly the generation the
/// oracle's owning shard reached.
fn drive(
    client: &ClusterClient,
    oracle: &AllocationService,
    requests: Vec<Request>,
    mutations: &mut MutationGen,
    mutate_every: usize,
) {
    for (i, request) in requests.into_iter().enumerate() {
        let class = QosClass::ALL[i % QosClass::ALL.len()];
        let deadline = (i % 7 == 3).then(|| Duration::from_millis(50));
        let cluster_reply = match deadline {
            Some(d) => client.submit_with_deadline(request.clone(), class, d),
            None => client.submit(request.clone(), class),
        };
        let oracle_reply = match deadline {
            Some(d) => oracle.submit_with_deadline(request, class, d),
            None => oracle.submit(request, class),
        }
        .wait()
        .expect("oracle answers");
        assert!(
            !matches!(cluster_reply.outcome, Outcome::Unavailable { .. }),
            "request {i} unexpectedly unavailable"
        );
        assert_eq!(cluster_reply, oracle_reply, "request {i} diverged from the oracle");
        if mutate_every != 0 && i % mutate_every == mutate_every - 1 {
            let mutation = mutations.next_mutation();
            let owner = shard::route(mutation.type_id(), NODES);
            let cluster_gen = client
                .apply_mutation(&mutation)
                .expect("cluster applies the mutation");
            oracle
                .apply_mutation(&mutation)
                .expect("oracle applies the mutation");
            assert_eq!(
                cluster_gen,
                oracle.shard_generation(owner),
                "mutation after request {i}: shard {owner} generations diverged"
            );
        }
    }
}

#[test]
fn cluster_replies_bit_identically_to_the_single_node_oracle() {
    let clock = frozen_clock();
    let base = CaseGen::new(10, 5, 4, 6).seed(0xD15).build();
    let cluster = spawn_cluster(
        &base,
        &clock,
        None,
        Duration::from_millis(500),
        RetryPolicy::loopback(),
    );
    let oracle = AllocationService::new(&base, &oracle_config(&clock)).expect("oracle");

    let requests = RequestGen::new(&base).seed(9).count(120).generate();
    let mut mutations = MutationGen::new(&base, 0xA5A5);
    drive(&cluster.client, &oracle, requests, &mut mutations, 5);

    // A clean transport never retried.
    for stats in &cluster.stats {
        assert_eq!(stats.retries.load(Ordering::Relaxed), 0);
        assert!(stats.frames_sent.load(Ordering::Relaxed) > 0);
    }
    for server in cluster.servers {
        server.shutdown();
    }
}

#[test]
fn fault_injection_is_absorbed_by_bounded_retries() {
    // Every fault type in turn, then a seeded mix: the reply stream must
    // stay bit-identical to the oracle's — faults cost retries, never
    // answers.
    let scripted = [
        ("drop", FaultAction::Drop),
        ("duplicate", FaultAction::Duplicate),
        ("truncate", FaultAction::Truncate),
        ("split-delay", FaultAction::SplitDelay),
    ];
    let policy = RetryPolicy {
        attempts: 8,
        base_backoff: Duration::from_millis(1),
        jitter_seed: 0,
    };
    for (name, action) in scripted {
        let plans: Vec<SharedFaultPlan> = (0..NODES)
            .map(|n| {
                // Hit every 3rd frame on node 0, every 4th on node 1 so
                // the two links fail out of phase.
                let period = 3 + n;
                shared_plan(FaultPlan::scripted(
                    (0..64)
                        .map(|i| if i % period == period - 1 { action } else { FaultAction::Pass })
                        .collect(),
                ))
            })
            .collect();
        let clock = frozen_clock();
        let base = CaseGen::new(8, 4, 4, 6).seed(0xFA0).build();
        let cluster = spawn_cluster(
            &base,
            &clock,
            Some(&plans),
            Duration::from_millis(60),
            policy,
        );
        let oracle = AllocationService::new(&base, &oracle_config(&clock)).expect("oracle");
        let requests = RequestGen::new(&base).seed(31).count(36).generate();
        let mut mutations = MutationGen::new(&base, 0xBE11);
        drive(&cluster.client, &oracle, requests, &mut mutations, 6);
        if matches!(action, FaultAction::Drop | FaultAction::Truncate) {
            // Lossy faults must have been *visible* — absorbed by
            // retries, not silently missed by the plan.
            let retries: u64 = cluster
                .stats
                .iter()
                .map(|s| s.retries.load(Ordering::Relaxed))
                .sum();
            assert!(retries > 0, "{name}: expected the faults to cost retries");
        }
        for server in cluster.servers {
            server.shutdown();
        }
    }

    // Seeded mixed plans: same invariant, adversary chosen by PRNG.
    let plans: Vec<SharedFaultPlan> = (0..NODES)
        .map(|n| shared_plan(FaultPlan::seeded(0xD0 + n as u64, 64)))
        .collect();
    let clock = frozen_clock();
    let base = CaseGen::new(8, 4, 4, 6).seed(0xFA1).build();
    let cluster = spawn_cluster(
        &base,
        &clock,
        Some(&plans),
        Duration::from_millis(60),
        policy,
    );
    let oracle = AllocationService::new(&base, &oracle_config(&clock)).expect("oracle");
    let requests = RequestGen::new(&base).seed(32).count(36).generate();
    let mut mutations = MutationGen::new(&base, 0xBE12);
    drive(&cluster.client, &oracle, requests, &mut mutations, 6);
    for server in cluster.servers {
        server.shutdown();
    }
}

#[test]
fn retry_exhaustion_surfaces_bounded_unavailability() {
    let clock = frozen_clock();
    let base = CaseGen::new(8, 4, 4, 6).seed(0xEE).build();
    let policy = RetryPolicy {
        attempts: 3,
        base_backoff: Duration::from_millis(1),
        jitter_seed: 0,
    };
    // Exactly enough drops to exhaust one call's budget; everything
    // after passes — the client must recover on the next call.
    let plans: Vec<SharedFaultPlan> = (0..NODES)
        .map(|_| {
            shared_plan(FaultPlan::scripted(vec![
                FaultAction::Drop,
                FaultAction::Drop,
                FaultAction::Drop,
            ]))
        })
        .collect();
    let cluster = spawn_cluster(&base, &clock, Some(&plans), Duration::from_millis(40), policy);

    let requests = RequestGen::new(&base).seed(5).count(8).generate();
    let first = cluster.client.submit(requests[0].clone(), QosClass::High);
    assert_eq!(
        first.outcome,
        Outcome::Unavailable { attempts: 3 },
        "a dead link must fail after exactly the retry budget"
    );
    // The plan is spent; the very next call goes through.
    let second = cluster.client.submit(requests[1].clone(), QosClass::High);
    assert!(
        matches!(second.outcome, Outcome::Allocated { .. }),
        "recovery after the faults cleared: {:?}",
        second.outcome
    );
    let shard0 = shard::route(requests[0].type_id(), NODES);
    let timeouts = cluster.stats[shard::route(requests[0].type_id(), NODES)]
        .timeouts
        .load(Ordering::Relaxed);
    assert_eq!(timeouts, 3, "shard {shard0}: every dropped frame timed out once");
    for server in cluster.servers {
        server.shutdown();
    }
}

/// Accepts one replication stream on `listener` and serves it into
/// `follower`, returning the follower (with whatever consistent prefix
/// it reached) when the leader closes or kills the stream.
fn follower_session(
    listener: Arc<TcpListener>,
    follower: Follower,
) -> thread::JoinHandle<(Follower, Result<(), ServiceError>)> {
    thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept replication stream");
        let mut conn = FrameConn::new(stream);
        let mut follower = follower;
        let result = serve_follower(&mut conn, &mut follower);
        (follower, result)
    })
}

fn leader_conn(addr: SocketAddr) -> FrameConn<TcpStream> {
    FrameConn::new(connect_loopback(addr, Duration::from_secs(2)).expect("leader connects"))
}

/// Streams `tail` record by record, asserting the per-record ack
/// handshake advances through exactly the stamped generations.
fn stream_tail(conn: &mut FrameConn<TcpStream>, tail: &[StampedMutation]) {
    for stamped in tail {
        let stamp = stamped.generation;
        conn.send(&Message::TailFrame(stamped.clone()))
            .expect("tail frame sent");
        match conn.recv() {
            Ok((Message::TailAck(TailAck { generation }), _)) => {
                assert_eq!(generation, stamp.raw(), "follower acked the wrong generation");
            }
            other => panic!("expected a tail ack, got {other:?}"),
        }
    }
}

fn scratch_dir(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rqfa-dist-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn replication_converges_through_kills_mid_snapshot_and_mid_tail() {
    let clock = frozen_clock();
    let base = CaseGen::new(6, 4, 4, 6).seed(0xBEEF).build();
    let dir = scratch_dir("repl");
    let leader =
        AllocationService::durable_create(&base, &dir, &node_config(&clock)).expect("leader");
    let mut mutations = MutationGen::new(&base, 0xC0FFEE);
    for mutation in mutations.take(24) {
        leader.apply_mutation(&mutation).expect("leader learns");
    }

    let listener = Arc::new(TcpListener::bind("127.0.0.1:0").expect("bind follower"));
    let addr = listener.local_addr().expect("follower addr");

    // Round 1: the stream dies mid-snapshot — only half the chunks make
    // it. The follower comes back empty-handed but intact.
    let session = follower_session(Arc::clone(&listener), Follower::new());
    {
        let (container, snap_gen) = leader.export_shard_snapshot(0).expect("export");
        let messages =
            rqfa::net::snapshot_stream(&container, snap_gen, 8).expect("snapshot stream");
        assert!(messages.len() > 4, "chunking must actually chunk");
        let mut conn = leader_conn(addr);
        for message in &messages[..messages.len() / 2] {
            conn.send(message).expect("partial ship");
        }
        // Kill: the connection drops here.
    }
    let (mut follower, result) = session.join().expect("follower session");
    result.expect("a killed stream is a clean return, not an error");
    assert!(follower.case_base().is_none(), "half a snapshot installs nothing");

    // Round 2: reset and re-ship — the full protocol this time.
    follower.reset();
    let session = follower_session(Arc::clone(&listener), follower);
    let synced = {
        let mut conn = leader_conn(addr);
        replicate_shard(&leader, 0, &mut conn, 8).expect("full replication round")
    };
    let (follower, result) = session.join().expect("follower session");
    result.expect("clean stream end");
    assert_eq!(synced, leader.shard_generation(0));
    assert_eq!(follower.generation(), Some(synced));

    // The leader keeps learning; the follower is now stale by 12 moves.
    for mutation in mutations.take(12) {
        leader.apply_mutation(&mutation).expect("leader learns");
    }

    // Round 3: the WAL tail stream dies half way. The follower keeps the
    // consistent prefix it acked.
    let tail = leader.shard_wal_tail(0, synced).expect("tail");
    assert_eq!(tail.len(), 12);
    let session = follower_session(Arc::clone(&listener), follower);
    {
        let mut conn = leader_conn(addr);
        stream_tail(&mut conn, &tail[..6]);
        // Kill mid-tail.
    }
    let (follower, result) = session.join().expect("follower session");
    result.expect("a killed tail is a clean return");
    let prefix = follower.generation().expect("prefix survives");
    assert_eq!(prefix.raw(), synced.raw() + 6);

    // Round 4: resume from the follower's generation — no re-ship.
    let resume = leader.shard_wal_tail(0, prefix).expect("resume tail");
    assert_eq!(resume.len(), 6);
    let session = follower_session(Arc::clone(&listener), follower);
    {
        let mut conn = leader_conn(addr);
        stream_tail(&mut conn, &resume);
    }
    let (follower, result) = session.join().expect("follower session");
    result.expect("clean stream end");

    // Promotion: the replica is byte-identical to the leader's state
    // (the generator's scratch copy replayed the same stream).
    let replica = follower.promote().expect("promotable");
    assert_eq!(replica.generation(), leader.shard_generation(0));
    assert!(replica.type_stamps().iter().all(|&s| s <= replica.generation()));
    let replica_image = encode_case_base(&replica).expect("replica image");
    let leader_image = encode_case_base(mutations.case_base()).expect("leader image");
    assert_eq!(
        replica_image.image(),
        leader_image.image(),
        "replica must converge to the leader's exact memlist image"
    );
    drop(leader);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn leader_kill_failover_promotes_the_follower() {
    let clock = frozen_clock();
    let base = CaseGen::new(10, 5, 4, 6).seed(0xFA11).build();
    let dir = scratch_dir("failover");

    // Node 0 is durable (it will be replicated and killed); node 1 is a
    // plain ephemeral node; the oracle shadows both.
    let slices = shard::partition(&base, NODES);
    let slice0 = slices[0].clone().expect("shard 0 populated");
    let service0 = Arc::new(
        AllocationService::durable_create(&slice0, &dir, &node_config(&clock)).expect("node 0"),
    );
    let service1 = Arc::new(
        AllocationService::new(
            &slices[1].clone().expect("shard 1 populated"),
            &node_config(&clock),
        )
        .expect("node 1"),
    );
    let server0 = NodeServer::spawn(Arc::clone(&service0)).expect("node 0 server");
    let server1 = NodeServer::spawn(Arc::clone(&service1)).expect("node 1 server");
    let policy = RetryPolicy::loopback();
    let timeout = Duration::from_millis(500);
    let placement = NodeMap::new(vec![Some(NodeId::new(0)), Some(NodeId::new(1))]);
    let client = ClusterClient::new(Box::new(placement), None);
    client.set_node(NodeId::new(0), RemoteShard::tcp(server0.addr(), timeout, policy));
    client.set_node(NodeId::new(1), RemoteShard::tcp(server1.addr(), timeout, policy));
    let oracle = AllocationService::new(&base, &oracle_config(&clock)).expect("oracle");
    let mut mutations = MutationGen::new(&base, 0x5EED);

    // Phase 1: normal operation with learning traffic.
    let requests = RequestGen::new(&base).seed(21).count(40).generate();
    drive(&client, &oracle, requests, &mut mutations, 4);

    // Snapshot-ship node 0 to a follower over TCP…
    let listener = Arc::new(TcpListener::bind("127.0.0.1:0").expect("bind follower"));
    let addr = listener.local_addr().expect("follower addr");
    let session = follower_session(Arc::clone(&listener), Follower::new());
    let synced = {
        let mut conn = leader_conn(addr);
        replicate_shard(&service0, 0, &mut conn, 16).expect("replication round")
    };
    let (follower, result) = session.join().expect("follower session");
    result.expect("clean stream end");
    assert_eq!(follower.generation(), Some(synced));

    // …keep operating (the follower goes stale)…
    let requests = RequestGen::new(&base).seed(22).count(24).generate();
    drive(&client, &oracle, requests, &mut mutations, 4);

    // …then catch the follower up from the WAL tail alone.
    let tail = service0.shard_wal_tail(0, synced).expect("tail");
    let session = follower_session(Arc::clone(&listener), follower);
    {
        let mut conn = leader_conn(addr);
        stream_tail(&mut conn, &tail);
    }
    let (follower, result) = session.join().expect("follower session");
    result.expect("clean stream end");
    assert_eq!(follower.generation(), Some(service0.shard_generation(0)));

    // Kill the leader. A request routed to its shard now fails boundedly
    // (the oracle consumes the same submit so the id streams stay
    // aligned for the comparison after failover).
    server0.shutdown();
    drop(service0);
    let probe = RequestGen::new(&base)
        .seed(23)
        .count(16)
        .generate()
        .into_iter()
        .find(|r| shard::route(r.type_id(), NODES) == 0)
        .expect("some request routes to shard 0");
    let gap_reply = client.submit(probe.clone(), QosClass::High);
    assert_eq!(
        gap_reply.outcome,
        Outcome::Unavailable {
            attempts: policy.attempts
        },
        "a killed node must surface bounded unavailability"
    );
    oracle
        .submit(probe, QosClass::High)
        .wait()
        .expect("oracle answers");

    // Failover: promote the follower into a fresh service behind the
    // same node id. Its generation counter resumes where the leader's
    // stopped — the oracle never notices the handoff.
    let replica = follower.promote().expect("promotable");
    // The stamps the promoted node's cache will validate against start at
    // or below the counter that issues the next one.
    assert!(replica.type_stamps().iter().all(|&s| s <= replica.generation()));
    let promoted = Arc::new(
        AllocationService::new(&replica, &node_config(&clock)).expect("promoted node"),
    );
    assert_eq!(promoted.shard_generation(0), replica.generation());
    let promoted_server = NodeServer::spawn(Arc::clone(&promoted)).expect("promoted server");
    client.set_node(
        NodeId::new(0),
        RemoteShard::tcp(promoted_server.addr(), timeout, policy),
    );

    // Phase 2: full bit-identity again, learning traffic included.
    let requests = RequestGen::new(&base).seed(24).count(40).generate();
    drive(&client, &oracle, requests, &mut mutations, 4);

    server1.shutdown();
    promoted_server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Self-healing: supervisor, fencing, degradation (ISSUE: PR 10 tentpole)
// ---------------------------------------------------------------------------

/// The lease every self-healing test runs on, in virtual microseconds.
const LEASE_US: u64 = 50_000;
/// Misses before a node's verdict decays to `Down`.
const DOWN_MISSES: u64 = 2;

/// A tight client policy for chaos phases: probes of a dead node must
/// fail in well under a second so a tick stays cheap in wall time.
fn chaos_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 2,
        base_backoff: Duration::from_millis(1),
        jitter_seed: 0,
    }
}

const CHAOS_TIMEOUT: Duration = Duration::from_millis(40);

#[test]
fn supervisor_promotes_a_dead_leader_fenced_and_bit_identical() {
    let manual = Arc::new(ManualClock::new());
    let clock: SharedClock = Arc::clone(&manual) as SharedClock;
    let base = CaseGen::new(10, 5, 4, 6).seed(0x5E1F).build();
    let dir = scratch_dir("selfheal");
    let policy = chaos_policy();

    // Node 0 is durable (it will be replicated and killed); node 1 is
    // ephemeral; the oracle shadows both.
    let slices = shard::partition(&base, NODES);
    let slice0 = slices[0].clone().expect("shard 0 populated");
    let service0 = Arc::new(
        AllocationService::durable_create(&slice0, &dir, &node_config(&clock)).expect("node 0"),
    );
    let service1 = Arc::new(
        AllocationService::new(
            &slices[1].clone().expect("shard 1 populated"),
            &node_config(&clock),
        )
        .expect("node 1"),
    );
    let server0 = NodeServer::spawn(Arc::clone(&service0)).expect("node 0 server");
    let server1 = NodeServer::spawn(Arc::clone(&service1)).expect("node 1 server");
    let placement = NodeMap::new(vec![Some(NodeId::new(0)), Some(NodeId::new(1))]);
    let client = Arc::new(ClusterClient::new(Box::new(placement), None));
    client.set_node(NodeId::new(0), RemoteShard::tcp(server0.addr(), CHAOS_TIMEOUT, policy));
    client.set_node(NodeId::new(1), RemoteShard::tcp(server1.addr(), CHAOS_TIMEOUT, policy));
    assert_eq!(client.epoch(), 1, "the cluster epoch starts at 1");
    let oracle = AllocationService::new(&base, &oracle_config(&clock)).expect("oracle");
    let mut mutations = MutationGen::new(&base, 0x5EED);

    let detector = Arc::new(FailureDetector::new(Arc::clone(&clock), LEASE_US, DOWN_MISSES));
    let mut supervisor = Supervisor::new(Arc::clone(&client), Arc::clone(&detector));

    // Phase 1: healthy traffic; a supervision round is all beats.
    let requests = RequestGen::new(&base).seed(21).count(40).generate();
    drive(&client, &oracle, requests, &mut mutations, 4);
    let events = supervisor.tick();
    assert!(
        events.iter().all(|e| matches!(e, SupervisorEvent::Beat { .. })),
        "a healthy round is all beats: {events:?}"
    );

    // Replicate node 0 into an up-to-date follower and register it as
    // the standby: on promotion, it becomes a fresh service behind a
    // server *born fenced* at the promotion epoch.
    let listener = Arc::new(TcpListener::bind("127.0.0.1:0").expect("bind follower"));
    let addr = listener.local_addr().expect("follower addr");
    let session = follower_session(Arc::clone(&listener), Follower::new());
    {
        let mut conn = leader_conn(addr);
        replicate_shard(&service0, 0, &mut conn, 16).expect("replication round");
    }
    let (follower, result) = session.join().expect("follower session");
    result.expect("clean stream end");
    assert_eq!(follower.generation(), Some(service0.shard_generation(0)));

    let promoted_servers: Arc<std::sync::Mutex<Vec<NodeServer>>> =
        Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut standby = Some(follower);
    let promote_clock = Arc::clone(&clock);
    let promote_servers = Arc::clone(&promoted_servers);
    supervisor.register_standby(
        NodeId::new(0),
        Box::new(move |epoch| {
            let follower = standby
                .take()
                .ok_or_else(|| ServiceError::Remote("standby already consumed".into()))?;
            let replica = follower
                .promote()
                .map_err(|error| ServiceError::Remote(error.to_string()))?;
            let promoted =
                Arc::new(AllocationService::new(&replica, &node_config(&promote_clock))?);
            let server = NodeServer::spawn_fenced(promoted, epoch)?;
            let remote = RemoteShard::tcp(server.addr(), CHAOS_TIMEOUT, chaos_policy());
            promote_servers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(server);
            Ok(remote)
        }),
    );

    // Kill the leader. One missed lease is *suspicion*, not death:
    // the supervisor must not promote inside the lease bound.
    server0.shutdown();
    drop(service0);
    manual.advance_us(LEASE_US);
    let events = supervisor.tick();
    assert!(
        !events.iter().any(|e| matches!(e, SupervisorEvent::Promoted { .. })),
        "no promotion while the loss is within the lease bound: {events:?}"
    );
    assert_eq!(detector.misses(0), 1, "exactly one missed lease so far");

    // During the outage: CRITICAL routed to the live node completes,
    // and the dead shard degrades into *bounded* unavailability (the
    // oracle consumes the same submits to keep the id streams aligned).
    let probes = RequestGen::new(&base).seed(23).count(24).generate();
    let live = probes
        .iter()
        .find(|r| shard::route(r.type_id(), NODES) == 1)
        .expect("some request routes to the live node")
        .clone();
    let dead = probes
        .iter()
        .find(|r| shard::route(r.type_id(), NODES) == 0)
        .expect("some request routes to the dead node")
        .clone();
    let crit = client.submit(live.clone(), QosClass::Critical);
    assert!(
        matches!(crit.outcome, Outcome::Allocated { .. }),
        "CRITICAL on a live shard completes during a single-node failure: {:?}",
        crit.outcome
    );
    oracle
        .submit(live, QosClass::Critical)
        .wait()
        .expect("oracle answers");
    let gap = client.submit(dead.clone(), QosClass::High);
    assert_eq!(
        gap.outcome,
        Outcome::Unavailable {
            attempts: policy.attempts
        },
        "the dead shard fails boundedly, never hangs"
    );
    oracle
        .submit(dead, QosClass::High)
        .wait()
        .expect("oracle answers");

    // Second missed lease: the verdict decays to Down and the very
    // next supervision round promotes under a bumped epoch.
    manual.advance_us(LEASE_US);
    let events = supervisor.tick();
    assert!(
        events.contains(&SupervisorEvent::Promoted {
            node: NodeId::new(0),
            epoch: 2
        }),
        "the lease decayed: expected a promotion, got {events:?}"
    );
    assert_eq!(client.epoch(), 2);

    // Fencing: the deposed leader's control plane still holds epoch 1.
    // Its mutation is refused by the promoted node *without touching
    // state*; the same mutation at the current epoch applies cleanly.
    let fenced_mutation = loop {
        let mutation = mutations.next_mutation();
        let owner = shard::route(mutation.type_id(), NODES);
        if owner == 0 {
            break mutation;
        }
        let generation = client.apply_mutation(&mutation).expect("cluster applies");
        oracle.apply_mutation(&mutation).expect("oracle applies");
        assert_eq!(generation, oracle.shard_generation(owner));
    };
    let promoted_addr = promoted_servers
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)[0]
        .addr();
    let stale_leader = RemoteShard::tcp(promoted_addr, CHAOS_TIMEOUT, policy);
    let before = oracle.shard_generation(0);
    let ack = stale_leader
        .call_mutate(1, &fenced_mutation)
        .expect("the promoted node answers");
    let error = ack.error.expect("a stale epoch must be refused");
    assert!(error.contains("fenced"), "want a fencing rejection, got: {error}");
    let generation = client
        .apply_mutation(&fenced_mutation)
        .expect("the current epoch applies");
    oracle.apply_mutation(&fenced_mutation).expect("oracle applies");
    assert_eq!(generation, oracle.shard_generation(0));
    assert_eq!(
        generation.raw(),
        before.raw() + 1,
        "the fenced attempt must not have consumed a generation"
    );

    // Phase 2: the healed cluster answers bit-identically again and a
    // supervision round is back to all beats.
    let requests = RequestGen::new(&base).seed(24).count(40).generate();
    drive(&client, &oracle, requests, &mut mutations, 4);
    let events = supervisor.tick();
    assert!(
        events.iter().all(|e| matches!(e, SupervisorEvent::Beat { .. })),
        "the healed cluster is all beats: {events:?}"
    );

    server1.shutdown();
    for server in promoted_servers
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .drain(..)
    {
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_chaos_promotes_every_kill_and_never_a_live_node() {
    // Property, over seeded schedules: a kill (down ≥ the lease bound)
    // promotes exactly once; a flap (one missed probe) never does.
    // `RQFA_CHAOS_SEEDS=<n>` (the CI chaos lane) widens the sweep with
    // n extra deterministic seeds.
    let extra: u64 = std::env::var("RQFA_CHAOS_SEEDS")
        .ok()
        .and_then(|n| n.parse().ok())
        .unwrap_or(0);
    let seeds = [0xC4A0_5EED_u64, 0xC4A0_5EEE, 0xC4A0_5EFF]
        .into_iter()
        .chain((0..extra).map(|i| 0xC4A0_0000 + i));
    for seed in seeds {
        let plan = ChaosPlan::seeded(seed, u16::try_from(NODES).unwrap(), 24);
        let manual = Arc::new(ManualClock::new());
        let clock: SharedClock = Arc::clone(&manual) as SharedClock;
        let base = CaseGen::new(8, 4, 4, 6).seed(seed).build();
        let slices: Vec<CaseBase> = shard::partition(&base, NODES)
            .into_iter()
            .map(|slice| slice.expect("these workloads populate every shard"))
            .collect();
        let placement = NodeMap::new(
            (0..NODES)
                .map(|n| Some(NodeId::new(u16::try_from(n).unwrap())))
                .collect(),
        );
        let client = Arc::new(ClusterClient::new(Box::new(placement), None));
        let servers: Arc<std::sync::Mutex<Vec<Option<NodeServer>>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        for (n, slice) in slices.iter().enumerate() {
            let service =
                Arc::new(AllocationService::new(slice, &node_config(&clock)).expect("node"));
            let server = NodeServer::spawn(service).expect("server");
            client.set_node(
                NodeId::new(u16::try_from(n).unwrap()),
                RemoteShard::tcp(server.addr(), CHAOS_TIMEOUT, chaos_policy()),
            );
            servers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(Some(server));
        }
        let detector = Arc::new(FailureDetector::new(Arc::clone(&clock), LEASE_US, DOWN_MISSES));
        let mut supervisor = Supervisor::new(Arc::clone(&client), Arc::clone(&detector));
        // Pre-register every node so a tick-0 kill still ages a lease.
        for n in 0..NODES {
            detector.register(u16::try_from(n).unwrap());
        }
        // A standby for node `n`: a fresh service over its slice behind
        // a server born fenced at the promotion epoch (no learning
        // traffic in this test, so state continuity is trivial).
        let make_standby = |n: usize| -> PromoteFn {
            let slice = slices[n].clone();
            let clock = Arc::clone(&clock);
            let servers = Arc::clone(&servers);
            Box::new(move |epoch| {
                let service = Arc::new(AllocationService::new(&slice, &node_config(&clock))?);
                let server = NodeServer::spawn_fenced(service, epoch)?;
                let remote = RemoteShard::tcp(server.addr(), CHAOS_TIMEOUT, chaos_policy());
                servers
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)[n] = Some(server);
                Ok(remote)
            })
        };
        for n in 0..NODES {
            supervisor.register_standby(NodeId::new(u16::try_from(n).unwrap()), make_standby(n));
        }

        let mut dead = [false; NODES];
        let mut promotions = 0usize;
        for tick in 0..plan.ticks() {
            // Disturbances land before the supervision round…
            let mut flapped: Vec<usize> = Vec::new();
            for event in plan.at(tick) {
                let n = usize::from(event.node);
                match event.action {
                    ChaosAction::Kill => {
                        if let Some(server) = servers
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)[n]
                            .take()
                        {
                            server.shutdown();
                        }
                        dead[n] = true;
                    }
                    ChaosAction::Flap => {
                        if let Some(server) = servers
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)[n]
                            .take()
                        {
                            server.shutdown();
                        }
                        flapped.push(n);
                    }
                    ChaosAction::Recover => {}
                }
            }
            for event in supervisor.tick() {
                match event {
                    SupervisorEvent::Beat { .. } => {}
                    SupervisorEvent::Promoted { node, .. } => {
                        assert!(
                            dead[usize::from(node.raw())],
                            "seed {seed:#x} tick {tick}: promoted a provably-live node"
                        );
                        promotions += 1;
                    }
                    SupervisorEvent::PromotionFailed { node, error } => {
                        panic!("seed {seed:#x} tick {tick}: promotion of {node} failed: {error}")
                    }
                }
            }
            // …recoveries and flap healings after it: a recover re-arms
            // the node's standby (the promoted replacement is already
            // serving), a flap comes back after exactly one missed probe.
            for event in plan.at(tick) {
                let n = usize::from(event.node);
                if event.action == ChaosAction::Recover {
                    dead[n] = false;
                    supervisor.register_standby(NodeId::new(event.node), make_standby(n));
                }
            }
            for n in flapped {
                let service = Arc::new(
                    AllocationService::new(&slices[n], &node_config(&clock)).expect("node"),
                );
                let server = NodeServer::spawn(service).expect("server");
                client.set_node(
                    NodeId::new(u16::try_from(n).unwrap()),
                    RemoteShard::tcp(server.addr(), CHAOS_TIMEOUT, chaos_policy()),
                );
                servers
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)[n] = Some(server);
            }
            manual.advance_us(LEASE_US);
        }
        assert_eq!(
            promotions,
            plan.kills(),
            "seed {seed:#x}: every kill promotes exactly once, nothing else ever does"
        );
        for slot in servers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .drain(..)
            .flatten()
        {
            slot.shutdown();
        }
    }
}
