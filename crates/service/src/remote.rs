//! The distributed plane: remote shards over memlist-framed RPC.
//!
//! A single-node [`AllocationService`] routes
//! every request to a local worker thread. This module stretches the
//! same shard math across machines:
//!
//! * [`NodeServer`] exposes one service over TCP — it answers
//!   [`Message::Submit`] and [`Message::Mutate`] frames with the exact
//!   replies the in-process API produces.
//! * [`RemoteShard`] is the client of one node: a stack of idle framed
//!   connections with socket timeouts — a call takes one for its round
//!   trip, so callers of one node wait for the node, never for each
//!   other — a bounded [`RetryPolicy`] with doubling backoff, lock-free
//!   [`NetStats`] counters and optional flight-recorder events
//!   ([`EventKind::FrameSent`] … [`EventKind::FrameTimedOut`]). A dead or
//!   babbling node degrades into [`Outcome::Unavailable`], never a hang.
//! * [`ClusterClient`] is the front-end: it asks a
//!   [`Placement`] where the owning shard of each
//!   request lives and routes to the local service or the owning node.
//!   Because placement never changes *which* shard owns a type (see
//!   [`rqfa_core::placement::shard_index`]), a cluster answers
//!   bit-identically to one big single-node service — the invariant
//!   `tests/distributed.rs` proves under byte-level fault injection.
//! * [`replicate_shard`] / [`serve_follower`] implement leader → follower
//!   replication: the shard's dual-slot snapshot container ships in
//!   chunks, then the WAL tail streams as exact log frames, each
//!   acknowledged. On leader death the follower
//!   [promotes](rqfa_net::Follower::promote) and serves the same answers.
//! * [`Supervisor`] closes the detect→decide→act loop: heartbeat probes
//!   renew each node's lease in a [`FailureDetector`]; when a node's
//!   lease decays to [`Liveness::Down`], the supervisor bumps the
//!   cluster's fencing epoch, runs the node's registered promotion hook
//!   (promote the follower, spawn a replacement server, restore
//!   redundancy) and repoints placement via
//!   [`ClusterClient::set_node`] — all driven by the injected clock, so
//!   failover is deterministic under a `ManualClock`.
//!
//! ## Fencing
//!
//! Every [`Message::Mutate`] carries the sender's cluster epoch. A node
//! server remembers the highest epoch it has ever seen and **rejects**
//! mutations stamped lower — so a stale leader reconnecting after a
//! partition (its client still holding the pre-failover epoch) cannot
//! mutate state behind the promoted leader's back. Split-brain writes
//! are refused at the wire, not merely discouraged. Submits are
//! read-only and stay unfenced.
//!
//! ## Duplicate-delivery discipline
//!
//! The transport retries on failure, so frames are delivered *at least
//! once*. The two RPC families absorb duplicates differently:
//!
//! * **Submit** is read-only: a duplicated submit is simply answered
//!   twice, and the client matches replies by id (stale replies for
//!   earlier ids are skipped — a bounded number per attempt, after which
//!   the connection counts as desynchronised).
//! * **Mutate** is not idempotent, so the server deduplicates: a mutate
//!   frame byte-identical to the immediately preceding one on the same
//!   connection is treated as a transport duplicate — it is neither
//!   re-applied nor re-acknowledged. (A client never sends two identical
//!   mutations back-to-back on one connection without awaiting the ack
//!   between them, so this window of one is exact.)

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use rqfa_core::placement::{NodeId, Placement, ShardSite};
use rqfa_core::{CaseMutation, Generation, QosClass, Request};
use rqfa_net::{
    connect_loopback, snapshot_stream, FailureDetector, Follower, FollowerEvent,
    FrameConn, Heartbeat, Liveness, Message, MutateAck, NetError, NetStats, RetryPolicy, TailAck,
    WireOutcome, WireReply,
};
use rqfa_telemetry::{EventKind, FlightRecorder, SharedClock};

use crate::{shard, AllocationService, Outcome, Reply, ServiceError};

/// Everything a remote-shard transport stream must be. Blanket-implemented
/// for every `Read + Write + Send` type, so tests can wrap a
/// [`TcpStream`] in a [`rqfa_net::FaultyStream`] and hand it to the same
/// client code production uses.
pub trait RemoteStream: Read + Write + Send {}

impl<S: Read + Write + Send> RemoteStream for S {}

/// Produces a fresh transport stream per (re)connection attempt.
pub type StreamFactory =
    Box<dyn Fn() -> Result<Box<dyn RemoteStream>, NetError> + Send + Sync>;

fn net_err(error: NetError) -> ServiceError {
    ServiceError::Remote(error.to_string())
}

/// Converts a service outcome to its wire mirror: every outcome has one.
pub fn outcome_to_wire(outcome: &Outcome) -> WireOutcome {
    match outcome {
        Outcome::Allocated {
            best,
            evaluated,
            cached,
        } => WireOutcome::Allocated {
            best: *best,
            evaluated: *evaluated as u64,
            cached: *cached,
        },
        Outcome::ShedQueueFull => WireOutcome::ShedQueueFull,
        Outcome::ShedDeadline => WireOutcome::ShedDeadline,
        Outcome::Failed(error) => WireOutcome::Failed(error.clone()),
        Outcome::Unavailable { attempts } => WireOutcome::Unavailable {
            attempts: *attempts,
        },
        Outcome::ShedPredicted { late_us } => WireOutcome::ShedPredicted { late_us: *late_us },
    }
}

/// Converts a wire outcome back into the service's vocabulary.
pub fn outcome_from_wire(outcome: WireOutcome) -> Outcome {
    match outcome {
        WireOutcome::Allocated {
            best,
            evaluated,
            cached,
        } => Outcome::Allocated {
            best,
            evaluated: usize::try_from(evaluated).unwrap_or(usize::MAX),
            cached,
        },
        WireOutcome::ShedQueueFull => Outcome::ShedQueueFull,
        WireOutcome::ShedDeadline => Outcome::ShedDeadline,
        WireOutcome::Failed(error) => Outcome::Failed(error),
        WireOutcome::Unavailable { attempts } => Outcome::Unavailable { attempts },
        WireOutcome::ShedPredicted { late_us } => Outcome::ShedPredicted { late_us },
    }
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

/// Connection threads a node runs at once. A connection accepted beyond
/// them is closed at once: its client reads EOF and retries like after
/// any other transport failure, by which time a thread may have ended.
const MAX_CONNECTIONS: usize = 128;

/// The acceptor's pause after an `accept` that failed for want of a
/// resource (`EMFILE`, `ENOBUFS`) or because the peer was gone again
/// (`ECONNABORTED`): conditions that pass, on a listener that stays good.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Serves one [`AllocationService`] over TCP loopback: every accepted
/// connection gets its own thread answering [`Message::Submit`] and
/// [`Message::Mutate`] frames, up to 128 of them.
/// [`NodeServer::shutdown`] stops accepting, closes every connection and
/// joins all threads — the harness's "kill a node" switch.
pub struct NodeServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NodeServer {
    /// Binds an ephemeral loopback port and starts serving `service`
    /// with the fence at epoch 0 (every mutation epoch accepted until a
    /// higher one arrives).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Remote`] if the listener cannot be bound.
    pub fn spawn(service: Arc<AllocationService>) -> Result<NodeServer, ServiceError> {
        NodeServer::spawn_fenced(service, 0)
    }

    /// As [`NodeServer::spawn`], but born with the fence already at
    /// `epoch` — the failover path: a server spawned over a promoted
    /// follower starts at the promotion epoch, so the deposed leader's
    /// older-epoch mutations are rejected from the first frame.
    pub fn spawn_fenced(
        service: Arc<AllocationService>,
        epoch: u64,
    ) -> Result<NodeServer, ServiceError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| ServiceError::Remote(format!("bind loopback listener: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServiceError::Remote(format!("resolve listener address: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServiceError::Remote(format!("arm nonblocking accept: {e}")))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        // Highest mutation epoch this node has ever seen (the fence).
        let accept_fence = Arc::new(AtomicU64::new(epoch));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let accept_flag = Arc::clone(&shutdown);
        let accept_threads = Arc::clone(&conn_threads);
        let accept_thread = std::thread::spawn(move || loop {
            if accept_flag.load(Ordering::Acquire) {
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let mut threads = accept_threads
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    // Reap the connections that have ended since the last
                    // accept: every retry of a `RemoteShard` reconnects,
                    // so a list that only `shutdown` drains grows for the
                    // life of the node.
                    threads.retain(|thread| !thread.is_finished());
                    if threads.len() >= MAX_CONNECTIONS {
                        // Dropping the stream closes it: EOF at the client.
                        continue;
                    }
                    let service = Arc::clone(&service);
                    let flag = Arc::clone(&accept_flag);
                    let fence = Arc::clone(&accept_fence);
                    threads.push(std::thread::spawn(move || {
                        serve_connection(&service, stream, &flag, &fence);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                // Established connections go on whatever `accept` says,
                // so the acceptor does too — a node that stopped accepting
                // for good would look alive to every client it has and
                // dead to every client it gets. `shutdown` ends the loop.
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        });
        Ok(NodeServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Kills the node: stops accepting, unwinds every connection thread
    /// (each polls the shutdown flag between frames) and joins them all.
    /// In-flight requests already handed to the service still complete
    /// inside the service; their replies just never reach the wire.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let handles = std::mem::take(
            &mut *self
                .conn_threads
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        // A dropped-without-shutdown server still stops serving; the
        // threads observe the flag and exit (unjoined, reaped at process
        // exit). `shutdown` is the clean path.
        self.shutdown.store(true, Ordering::Release);
    }
}

/// One connection's serve loop: strictly request → reply, closing on any
/// protocol violation or transport damage (the client reconnects). A
/// submit is a blocking call ([`AllocationService::call_us`]): this
/// thread has nothing to do until the reply, so when the owning shard is
/// idle it runs the batch itself instead of handing a batch of one to
/// the shard worker and sleeping until it is handed back
/// (`docs/scheduling.md` §7.4). Frames a pipelining peer sent ahead wait
/// in the connection's read buffer.
fn serve_connection(
    service: &AllocationService,
    stream: TcpStream,
    shutdown: &AtomicBool,
    fence: &AtomicU64,
) {
    // A short read timeout turns the blocking recv into a poll so the
    // thread notices `shutdown` within ~25 ms even on an idle connection.
    if stream
        .set_read_timeout(Some(Duration::from_millis(25)))
        .is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut conn = FrameConn::new(stream);
    let mut last_mutate: Option<(u64, CaseMutation)> = None;
    while !shutdown.load(Ordering::Acquire) {
        let message = match conn.recv() {
            Ok((message, _bytes)) => message,
            Err(NetError::Timeout) => continue,
            // Truncation, desync, CRC damage, EOF: the framing is gone —
            // drop the connection and let the client's retry establish a
            // fresh one.
            Err(_) => return,
        };
        match message {
            Message::Submit(submit) => {
                let id = submit.id;
                let reply = service.call_us(submit.request, submit.class, submit.deadline_us);
                // A dead shard answers nothing: close, as on transport
                // damage, and leave the rest to the client's retry.
                let Some(reply) = reply else { return };
                let wire = WireReply {
                    // The node's internal ids are its own; the wire reply
                    // echoes the *caller's* id.
                    id,
                    class: reply.class,
                    outcome: outcome_to_wire(&reply.outcome),
                    latency_us: reply.latency_us,
                };
                if conn.send(&Message::Reply(wire)).is_err() {
                    return;
                }
            }
            Message::Mutate { epoch, mutation } => {
                if last_mutate.as_ref().is_some_and(|(e, m)| *e == epoch && *m == mutation) {
                    // Transport duplicate (see the module docs): already
                    // answered — swallow it.
                    continue;
                }
                // The fence: remember the highest epoch ever seen and
                // reject anything older — a stale leader's mutation is
                // refused *before* it can touch state (no split-brain).
                let seen = fence.fetch_max(epoch, Ordering::AcqRel).max(epoch);
                let ack = if epoch < seen {
                    MutateAck {
                        generation: 0,
                        error: Some(format!(
                            "fenced: mutation epoch {epoch} is stale (node epoch {seen})"
                        )),
                    }
                } else {
                    match service.apply_mutation(&mutation) {
                        Ok(_inverse) => {
                            let owner = shard::route(mutation.type_id(), service.shard_count());
                            MutateAck {
                                generation: service.shard_generation(owner).raw(),
                                error: None,
                            }
                        }
                        Err(error) => MutateAck {
                            generation: 0,
                            error: Some(error.to_string()),
                        },
                    }
                };
                last_mutate = Some((epoch, mutation));
                if conn.send(&Message::MutateAck(ack)).is_err() {
                    return;
                }
            }
            Message::Heartbeat(probe) => {
                // Liveness probe: echo the node id, answering with this
                // node's fence epoch and its shard-0 generation (the
                // one-shard-per-node convention of the cluster harness)
                // so the prober learns both liveness and progress.
                let echo = Heartbeat {
                    node: probe.node,
                    epoch: fence.load(Ordering::Acquire),
                    generation: service.shard_generation(0).raw(),
                };
                if conn.send(&Message::Heartbeat(echo)).is_err() {
                    return;
                }
            }
            // Replies, acks and replication frames have no business
            // arriving at a node server: protocol violation, close.
            _ => return,
        }
    }
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// A flight recorder plus the clock that stamps its events.
struct Tracer {
    recorder: Arc<FlightRecorder>,
    clock: SharedClock,
}

impl Tracer {
    fn record(&self, request_id: u64, class: QosClass, kind: EventKind, arg: u64) {
        #[allow(clippy::cast_possible_truncation)]
        self.recorder
            .record(self.clock.now_us(), request_id, class.index() as u8, kind, arg);
    }
}

/// One framed connection to the node.
type Conn = FrameConn<Box<dyn RemoteStream>>;

/// Idle connections a client keeps. What a burst of callers drew beyond
/// them is closed as it comes back, so the burst leaves no more than
/// these pinned — each is a thread on the node.
const MAX_IDLE_CONNS: usize = 8;

/// Well-formed frames of another id or kind a call skips per attempt
/// (duplicates of earlier exchanges: at most one per injected fault, and
/// drained by the next call) before it calls the connection
/// desynchronised. Without the bound a peer sending such frames, one per
/// read timeout, holds the caller for as long as it likes.
const MAX_SKIPPED_FRAMES: usize = 16;

/// The client of one remote node: a stack of idle framed connections
/// plus the retry loop that makes every call either answer or fail
/// *boundedly*.
///
/// A call owns a connection for its round trip and holds no lock while
/// it waits: its first attempt takes the connection returned last
/// (the one whose buffers and socket are warm) or, none being idle,
/// draws one from the stream factory; a call that succeeded puts its
/// connection back, up to eight idle ones. A single serial caller
/// therefore draws one connection and keeps reusing it, and concurrent
/// callers each wait for the node, not for one another — a heartbeat
/// probe is not queued behind a submit that is burning its retry budget.
///
/// All transport failures follow one discipline: drop the connection —
/// and the idle ones, which lead to the same peer — count the attempt,
/// back off (doubling), reconnect through the stream factory and resend.
/// When the [`RetryPolicy`] budget is exhausted the call returns the
/// attempt count and the caller surfaces [`Outcome::Unavailable`] — the
/// caller's liveness never depends on the node's.
pub struct RemoteShard {
    factory: StreamFactory,
    policy: RetryPolicy,
    stats: Arc<NetStats>,
    /// The connections no call is using, most recently returned last.
    /// Locked to pop and to push, never across I/O.
    idle: Mutex<Vec<Conn>>,
    tracer: Option<Tracer>,
}

impl RemoteShard {
    /// A client drawing fresh streams from `factory` under `policy`.
    pub fn new(factory: StreamFactory, policy: RetryPolicy) -> RemoteShard {
        RemoteShard {
            factory,
            policy,
            stats: Arc::new(NetStats::new()),
            idle: Mutex::new(Vec::new()),
            tracer: None,
        }
    }

    /// A TCP client of `addr` with `timeout` armed on connect, read and
    /// write.
    pub fn tcp(addr: SocketAddr, timeout: Duration, policy: RetryPolicy) -> RemoteShard {
        RemoteShard::new(
            Box::new(move || {
                connect_loopback(addr, timeout)
                    .map(|stream| Box::new(stream) as Box<dyn RemoteStream>)
            }),
            policy,
        )
    }

    /// Arms net-plane flight recording: every frame sent/received and
    /// every retry/timeout lands in `recorder` stamped with `clock`'s
    /// µs tick — share the service's clock and the events line up with
    /// its shard recorders.
    pub fn with_recorder(
        mut self,
        recorder: Arc<FlightRecorder>,
        clock: SharedClock,
    ) -> RemoteShard {
        self.tracer = Some(Tracer { recorder, clock });
        self
    }

    /// This client's transport counters.
    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.stats)
    }

    fn record(&self, request_id: u64, class: QosClass, kind: EventKind, arg: u64) {
        if let Some(tracer) = &self.tracer {
            tracer.record(request_id, class, kind, arg);
        }
    }

    /// Submits over the wire; `Err(attempts)` when the node stayed
    /// unreachable through the whole retry budget.
    pub fn call_submit(&self, submit: rqfa_net::Submit) -> Result<WireReply, u32> {
        let id = submit.id;
        let class = submit.class;
        self.call(id, class, &Message::Submit(submit), |message| match message {
            Message::Reply(reply) if reply.id == id => Some(reply),
            // Stale replies (duplicated frames of earlier calls) are
            // skipped by id — never misattributed.
            _ => None,
        })
    }

    /// Applies a mutation over the wire, stamped with the caller's
    /// cluster `epoch` (the server rejects stale epochs — see the
    /// module's fencing docs); `Err(attempts)` on exhaustion.
    pub fn call_mutate(&self, epoch: u64, mutation: &CaseMutation) -> Result<MutateAck, u32> {
        // Control-plane events are traced under request id 0, class HIGH.
        self.call(
            0,
            QosClass::High,
            &Message::Mutate {
                epoch,
                mutation: mutation.clone(),
            },
            |message| match message {
                Message::MutateAck(ack) => Some(ack),
                _ => None,
            },
        )
    }

    /// Probes the node's liveness: sends a heartbeat carrying `node`
    /// and returns the server's echo (fence epoch + shard-0
    /// generation); `Err(attempts)` when the node stayed unreachable.
    pub fn call_heartbeat(&self, node: u16) -> Result<Heartbeat, u32> {
        let probe = Heartbeat {
            node,
            epoch: 0,
            generation: 0,
        };
        self.call(
            u64::from(node),
            QosClass::Critical,
            &Message::Heartbeat(probe),
            |message| match message {
                Message::Heartbeat(echo) => Some(echo),
                _ => None,
            },
        )
    }

    fn idle(&self) -> std::sync::MutexGuard<'_, Vec<Conn>> {
        // A vector of connections is valid at every step of a push or a
        // pop, so a poisoned lock still guards usable data.
        self.idle
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// One request/response exchange under the retry discipline.
    fn call<T>(
        &self,
        trace_id: u64,
        class: QosClass,
        message: &Message,
        matcher: impl Fn(Message) -> Option<T>,
    ) -> Result<T, u32> {
        for attempt in 0..self.policy.attempts {
            if attempt > 0 {
                self.stats.on_retry();
                self.record(trace_id, class, EventKind::FrameRetried, u64::from(attempt));
                std::thread::sleep(self.policy.backoff(attempt));
            }
            // A retry never trusts a kept connection: it follows a
            // failure on this peer.
            let kept = if attempt == 0 { self.idle().pop() } else { None };
            let mut conn = match kept {
                Some(conn) => conn,
                None => match (self.factory)() {
                    Ok(stream) => {
                        self.stats.on_connect();
                        FrameConn::new(stream)
                    }
                    Err(_) => continue,
                },
            };
            match self.exchange(&mut conn, trace_id, class, message, &matcher) {
                Ok(value) => {
                    let mut idle = self.idle();
                    if idle.len() < MAX_IDLE_CONNS {
                        idle.push(conn);
                    }
                    return Ok(value);
                }
                Err(error) => {
                    self.note_failure(trace_id, class, attempt, &error);
                    // The idle connections lead to the same peer: kept,
                    // each would cost a later call a failed attempt and a
                    // backoff to find that out.
                    self.idle().clear();
                }
            }
        }
        Err(self.policy.attempts)
    }

    /// One attempt on one connection: send, then receive until `matcher`
    /// takes a frame. Any error condemns the connection.
    fn exchange<T>(
        &self,
        conn: &mut Conn,
        trace_id: u64,
        class: QosClass,
        message: &Message,
        matcher: &impl Fn(Message) -> Option<T>,
    ) -> Result<T, NetError> {
        // `arg` of both events is the frame's payload size in words
        // (frame minus 3 header and 2 trailer words).
        let payload_words = |bytes: usize| (bytes as u64 / 2).saturating_sub(5);
        let bytes = conn.send(message)?;
        self.stats.on_sent(bytes);
        self.record(trace_id, class, EventKind::FrameSent, payload_words(bytes));
        for _ in 0..=MAX_SKIPPED_FRAMES {
            let (reply, bytes) = conn.recv()?;
            self.stats.on_received(bytes);
            self.record(trace_id, class, EventKind::FrameReceived, payload_words(bytes));
            if let Some(value) = matcher(reply) {
                return Ok(value);
            }
        }
        Err(NetError::Malformed(
            "the peer keeps answering other calls: connection desynchronised",
        ))
    }

    fn note_failure(&self, trace_id: u64, class: QosClass, attempt: u32, error: &NetError) {
        if matches!(error, NetError::Timeout) {
            self.stats.on_timeout();
            self.record(
                trace_id,
                class,
                EventKind::FrameTimedOut,
                u64::from(attempt + 1),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Cluster front-end
// ---------------------------------------------------------------------------

/// Routes requests and mutations across a cluster by asking a
/// [`Placement`] where each function type's shard lives, then calling
/// the local service or the owning node's [`RemoteShard`].
///
/// Ids are assigned by the client (sequential from 0), so a cluster's
/// reply stream is directly comparable to a single-node oracle fed the
/// same requests in the same order.
pub struct ClusterClient {
    placement: Box<dyn Placement>,
    local: Option<Arc<AllocationService>>,
    remotes: RwLock<HashMap<NodeId, Arc<RemoteShard>>>,
    /// The cluster epoch: bumped by every promotion, stamped on every
    /// mutation so a fenced node can reject a stale leader's writes.
    epoch: AtomicU64,
    next_id: AtomicU64,
}

impl ClusterClient {
    /// A client over `placement`. `local` serves the
    /// [`ShardSite::Local`] sites (pass `None` for a placement that is
    /// fully remote). The cluster epoch starts at 1 (epoch 0 is the
    /// "never promoted" floor every node server is born fenced at).
    pub fn new(
        placement: Box<dyn Placement>,
        local: Option<Arc<AllocationService>>,
    ) -> ClusterClient {
        ClusterClient {
            placement,
            local,
            remotes: RwLock::new(HashMap::new()),
            epoch: AtomicU64::new(1),
            next_id: AtomicU64::new(0),
        }
    }

    /// Registers the client of node `node`. Replaces any previous client
    /// for that node — the failover path points a node id at its promoted
    /// replacement with exactly this call (`&self`, so a supervisor can
    /// repoint placement while submitters hold the client).
    pub fn set_node(&self, node: NodeId, shard: RemoteShard) {
        self.remotes
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(node, Arc::new(shard));
    }

    /// The client of node `node`, if one is registered.
    pub fn remote(&self, node: NodeId) -> Option<Arc<RemoteShard>> {
        self.remotes
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&node)
            .cloned()
    }

    /// Every node id with a registered client, ascending.
    pub fn node_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self
            .remotes
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .keys()
            .copied()
            .collect();
        ids.sort_unstable_by_key(|node| node.raw());
        ids
    }

    /// The current cluster epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Advances the cluster epoch (one promotion = one bump), returning
    /// the new value. Mutations sent after the bump carry it, fencing
    /// out any leader deposed by the promotion.
    pub fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Submits a request, blocking until its reply (remote hops resolve
    /// within the bounded retry budget, so this never hangs). A site
    /// that cannot answer degrades the request to
    /// [`Outcome::Unavailable`], wherever the site is: a remote node that
    /// stayed unreachable reports the attempts it cost (the retry
    /// budget's, never fewer), a local shard whose worker died
    /// `attempts: 0`.
    ///
    /// # Panics
    ///
    /// Panics if the placement routes to a local site with no local
    /// service, or to a node never registered with
    /// [`ClusterClient::set_node`] — both are wiring errors, not runtime
    /// conditions.
    pub fn submit(&self, request: Request, class: QosClass) -> Reply {
        self.submit_inner(request, class, None)
    }

    /// Submits a request with an explicit relative deadline.
    ///
    /// # Panics
    ///
    /// As [`ClusterClient::submit`].
    pub fn submit_with_deadline(
        &self,
        request: Request,
        class: QosClass,
        deadline: Duration,
    ) -> Reply {
        let deadline_us = u64::try_from(deadline.as_micros()).unwrap_or(u64::MAX);
        self.submit_inner(request, class, Some(deadline_us))
    }

    fn submit_inner(&self, request: Request, class: QosClass, deadline_us: Option<u64>) -> Reply {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        match self.placement.site(request.type_id()) {
            ShardSite::Local { .. } => {
                let service = self
                    .local
                    .as_ref()
                    .expect("placement routed to a local site but no local service is attached");
                match service.call_us(request, class, deadline_us) {
                    // The local service numbers its own requests; the
                    // cluster reply carries the *cluster* id.
                    Some(reply) => Reply { id, ..reply },
                    // The local shard's worker is dead. No transport
                    // stands between caller and shard, so no attempt was
                    // made: 0, the one reading of that count.
                    None => Reply {
                        id,
                        class,
                        outcome: Outcome::Unavailable { attempts: 0 },
                        latency_us: 0,
                    },
                }
            }
            ShardSite::Remote { node, .. } => {
                // Clone the Arc out of the lock before the (blocking)
                // call so a concurrent failover's `set_node` never
                // waits on a submitter's retry budget.
                let remote = self
                    .remote(node)
                    .unwrap_or_else(|| panic!("no client registered for {node}"));
                let submit = rqfa_net::Submit {
                    id,
                    class,
                    deadline_us,
                    request,
                };
                match remote.call_submit(submit) {
                    Ok(reply) => Reply {
                        id: reply.id,
                        class: reply.class,
                        outcome: outcome_from_wire(reply.outcome),
                        latency_us: reply.latency_us,
                    },
                    Err(attempts) => Reply {
                        id,
                        class,
                        outcome: Outcome::Unavailable { attempts },
                        latency_us: 0,
                    },
                }
            }
        }
    }

    /// Applies a mutation on the owning shard's site, returning the
    /// owning shard's generation after the apply.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Remote`] when the owning node rejected the
    /// mutation or stayed unreachable through the retry budget; local
    /// sites fail as the in-process API does.
    ///
    /// # Panics
    ///
    /// As [`ClusterClient::submit`] for wiring errors.
    pub fn apply_mutation(&self, mutation: &CaseMutation) -> Result<Generation, ServiceError> {
        match self.placement.site(mutation.type_id()) {
            ShardSite::Local { shard } => {
                let service = self
                    .local
                    .as_ref()
                    .expect("placement routed to a local site but no local service is attached");
                service.apply_mutation(mutation)?;
                Ok(service.shard_generation(shard))
            }
            ShardSite::Remote { node, .. } => {
                let remote = self
                    .remote(node)
                    .unwrap_or_else(|| panic!("no client registered for {node}"));
                match remote.call_mutate(self.epoch(), mutation) {
                    Ok(MutateAck { error: None, generation }) => {
                        Ok(Generation::from_raw(generation))
                    }
                    Ok(MutateAck {
                        error: Some(message),
                        ..
                    }) => Err(ServiceError::Remote(message)),
                    Err(attempts) => Err(ServiceError::Remote(format!(
                        "{node} unreachable after {attempts} attempt(s)"
                    ))),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Supervision
// ---------------------------------------------------------------------------

/// A node's promotion hook: given the new cluster epoch, promote the
/// node's follower, spawn a replacement server fenced at that epoch
/// (see [`NodeServer::spawn_fenced`]) and return the client of the
/// replacement. Restoring redundancy (re-seeding a fresh follower via
/// [`replicate_shard`]) is also this hook's contract — the supervisor
/// only decides *when*.
pub type PromoteFn = Box<dyn FnMut(u64) -> Result<RemoteShard, ServiceError> + Send>;

/// One supervision decision, as reported by [`Supervisor::tick`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorEvent {
    /// The node answered its heartbeat probe; its lease was renewed.
    Beat {
        /// The probed node.
        node: NodeId,
    },
    /// The node's lease decayed to [`Liveness::Down`] and its standby
    /// was promoted under the new cluster epoch.
    Promoted {
        /// The replaced node.
        node: NodeId,
        /// The cluster epoch the promotion established.
        epoch: u64,
    },
    /// The node is down but promotion failed (or no standby is
    /// registered); the supervisor retries next tick.
    PromotionFailed {
        /// The down node.
        node: NodeId,
        /// Why the promotion hook failed.
        error: String,
    },
}

/// The supervision loop: probes every registered node each
/// [`tick`](Supervisor::tick), feeds the answers to a
/// [`FailureDetector`], and on a `Down` verdict executes the fenced
/// failover — bump the [`ClusterClient`] epoch, run the node's
/// [`PromoteFn`], repoint placement with [`ClusterClient::set_node`].
///
/// The supervisor owns no threads and reads no wall clock: the harness
/// (or a production pacer) calls `tick` at its chosen cadence, and all
/// lease arithmetic flows through the detector's injected
/// [`rqfa_telemetry::Clock`] — which is what makes the chaos tests in
/// `tests/distributed.rs` deterministic.
pub struct Supervisor {
    client: Arc<ClusterClient>,
    detector: Arc<FailureDetector>,
    standbys: HashMap<NodeId, PromoteFn>,
    tracer: Option<Tracer>,
}

impl Supervisor {
    /// A supervisor over `client`, judging liveness with `detector`.
    /// Nodes are discovered from the client's registry each tick;
    /// failover requires a standby registered via
    /// [`Supervisor::register_standby`].
    pub fn new(client: Arc<ClusterClient>, detector: Arc<FailureDetector>) -> Supervisor {
        Supervisor {
            client,
            detector,
            standbys: HashMap::new(),
            tracer: None,
        }
    }

    /// Arms flight recording: promotions land in `recorder` as
    /// [`EventKind::NodePromoted`] stamped with `clock`'s µs tick, with
    /// the node id in the request-id field and the new epoch as the
    /// argument.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<FlightRecorder>, clock: SharedClock) -> Supervisor {
        self.tracer = Some(Tracer { recorder, clock });
        self
    }

    /// Registers `promote` as node `node`'s failover hook. One standby
    /// per node; registering again replaces the hook.
    pub fn register_standby(&mut self, node: NodeId, promote: PromoteFn) {
        self.standbys.insert(node, promote);
    }

    /// This supervisor's failure detector.
    pub fn detector(&self) -> Arc<FailureDetector> {
        Arc::clone(&self.detector)
    }

    /// One supervision round: probe every registered node, renew leases
    /// for the ones that answer, and run the fenced failover for any
    /// whose lease has decayed to `Down`. Returns what happened, in
    /// node-id order.
    pub fn tick(&mut self) -> Vec<SupervisorEvent> {
        let mut events = Vec::new();
        for node in self.client.node_ids() {
            let Some(remote) = self.client.remote(node) else {
                continue;
            };
            let node_u16 = node.raw();
            if remote.call_heartbeat(node_u16).is_ok() {
                self.detector.beat(node_u16);
                events.push(SupervisorEvent::Beat { node });
                continue;
            }
            // Probe failed: let the *lease* decide. A single missed
            // probe inside the lease window is noise, not a failure —
            // this is the no-false-promotion invariant.
            if self.detector.assess(node_u16) != Liveness::Down {
                continue;
            }
            events.push(self.fail_over(node, node_u16));
        }
        events
    }

    fn fail_over(&mut self, node: NodeId, node_u16: u16) -> SupervisorEvent {
        let Some(mut promote) = self.standbys.remove(&node) else {
            return SupervisorEvent::PromotionFailed {
                node,
                error: format!("no standby registered for {node}"),
            };
        };
        // The epoch bump happens *before* the promotion runs, so the
        // replacement server is born fenced at the new epoch and the
        // deposed leader's clients are stale from this instant.
        let epoch = self.client.bump_epoch();
        match promote(epoch) {
            Ok(replacement) => {
                self.client.set_node(node, replacement);
                // The promoted node is alive by construction: reset its
                // lease so the next tick judges the replacement, not
                // the corpse.
                self.detector.beat(node_u16);
                if let Some(tracer) = &self.tracer {
                    // Control-plane events carry class index 0.
                    let node_id = u64::from(node_u16);
                    tracer.record(node_id, QosClass::Critical, EventKind::NodePromoted, epoch);
                }
                SupervisorEvent::Promoted { node, epoch }
            }
            Err(error) => {
                // Put the hook back for a retry next tick. The epoch
                // bump is *not* rolled back: epochs only move forward.
                self.standbys.insert(node, promote);
                SupervisorEvent::PromotionFailed {
                    node,
                    error: error.to_string(),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------------

/// Leader side of one replication round: ships shard `shard`'s snapshot
/// container in `chunk_words`-sized windows, awaits the follower's
/// install ack, then streams the WAL tail frame by frame, awaiting an
/// ack per record. Returns the generation the follower reached.
///
/// # Errors
///
/// [`ServiceError::Remote`] when the stream dies or the follower
/// misacknowledges (the caller re-ships after a
/// [`Follower::reset`]); the shard-export errors of
/// [`AllocationService::export_shard_snapshot`].
pub fn replicate_shard<S: Read + Write>(
    service: &AllocationService,
    shard: usize,
    conn: &mut FrameConn<S>,
    chunk_words: usize,
) -> Result<Generation, ServiceError> {
    let (container, generation) = service.export_shard_snapshot(shard)?;
    let messages = snapshot_stream(&container, generation, chunk_words).map_err(net_err)?;
    for message in &messages {
        conn.send(message).map_err(net_err)?;
    }
    expect_ack(conn, generation.raw())?;
    let mut reached = generation;
    for stamped in service.shard_wal_tail(shard, generation)? {
        let stamp = stamped.generation;
        conn.send(&Message::TailFrame(stamped)).map_err(net_err)?;
        expect_ack(conn, stamp.raw())?;
        reached = stamp;
    }
    Ok(reached)
}

fn expect_ack<S: Read + Write>(conn: &mut FrameConn<S>, want: u64) -> Result<(), ServiceError> {
    match conn.recv() {
        Ok((Message::TailAck(TailAck { generation }), _)) if generation == want => Ok(()),
        Ok((other, _)) => Err(ServiceError::Remote(format!(
            "unexpected replication response: {other:?}"
        ))),
        Err(error) => Err(ServiceError::Remote(format!(
            "replication stream failed: {error}"
        ))),
    }
}

/// Follower side of a replication stream: feeds every received message
/// through the [`Follower`] state machine and acknowledges installs and
/// applies with the follower's generation. Returns cleanly when the
/// leader closes (or tears) the stream — the follower keeps whatever
/// consistent prefix it reached, ready for another round or promotion.
///
/// # Errors
///
/// [`ServiceError::Remote`] on protocol violations (chunk gaps,
/// generation gaps, corrupt containers) — the caller should
/// [`Follower::reset`] and request a fresh ship.
pub fn serve_follower<S: Read + Write>(
    conn: &mut FrameConn<S>,
    follower: &mut Follower,
) -> Result<(), ServiceError> {
    loop {
        let message = match conn.recv() {
            Ok((message, _bytes)) => message,
            // Stream end (leader done or killed): keep the prefix.
            Err(NetError::Truncated | NetError::Timeout) => return Ok(()),
            Err(error) => return Err(net_err(error)),
        };
        match follower.ingest(&message).map_err(net_err)? {
            FollowerEvent::Progress => {}
            FollowerEvent::Installed { generation } | FollowerEvent::Applied { generation } => {
                conn.send(&Message::TailAck(TailAck {
                    generation: generation.raw(),
                }))
                .map_err(net_err)?;
            }
            FollowerEvent::Ignored => {
                // Duplicate tail frame: re-ack the current generation so
                // the leader's per-record handshake still advances.
                let generation = follower.generation().map_or(0, Generation::raw);
                conn.send(&Message::TailAck(TailAck { generation }))
                    .map_err(net_err)?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqfa_core::{paper, TypeId};
    use rqfa_net::WireOutcome;

    #[test]
    fn outcomes_convert_losslessly_both_ways() {
        let outcomes = vec![
            Outcome::ShedQueueFull,
            Outcome::ShedDeadline,
            Outcome::Failed(rqfa_core::CoreError::UnknownType {
                type_id: TypeId::new(9).unwrap(),
            }),
            Outcome::Unavailable { attempts: 3 },
            Outcome::ShedPredicted { late_us: 1_250 },
        ];
        for outcome in outcomes {
            let wire = outcome_to_wire(&outcome);
            assert_eq!(outcome_from_wire(wire), outcome);
        }
    }

    #[test]
    fn allocated_evaluated_counts_survive_the_round_trip() {
        let wire = WireOutcome::Allocated {
            best: rqfa_core::Scored {
                impl_id: rqfa_core::ImplId::new(4).unwrap(),
                target: rqfa_core::ExecutionTarget::Dsp,
                similarity: rqfa_fixed::Q15::ONE,
            },
            evaluated: 123,
            cached: true,
        };
        let outcome = outcome_from_wire(wire.clone());
        assert_eq!(outcome_to_wire(&outcome), wire);
    }

    #[test]
    fn node_server_answers_the_paper_request_over_tcp() {
        let service = Arc::new(
            AllocationService::new(
                &paper::table1_case_base(),
                &crate::ServiceConfig::default().with_shards(2),
            )
            .expect("valid service config"),
        );
        let server = NodeServer::spawn(Arc::clone(&service)).unwrap();
        let remote = RemoteShard::tcp(
            server.addr(),
            Duration::from_millis(500),
            RetryPolicy::loopback(),
        );
        let reply = remote
            .call_submit(rqfa_net::Submit {
                id: 41,
                class: QosClass::High,
                deadline_us: None,
                request: paper::table1_request().unwrap(),
            })
            .unwrap();
        assert_eq!(reply.id, 41);
        match reply.outcome {
            WireOutcome::Allocated { best, .. } => assert_eq!(best.impl_id, paper::IMPL_DSP),
            other => panic!("unexpected outcome: {other:?}"),
        }
        let stats = remote.stats();
        assert_eq!(stats.frames_sent.load(Ordering::Relaxed), 1);
        assert_eq!(stats.frames_received.load(Ordering::Relaxed), 1);
        // A peer-supplied deadline at the far end of the wire type must
        // saturate, not overflow `now + deadline` on the node (which
        // used to kill the connection thread) or wrap into the past.
        let far = remote
            .call_submit(rqfa_net::Submit {
                id: 7,
                class: QosClass::Low,
                deadline_us: Some(u64::MAX),
                request: paper::table1_request().unwrap(),
            })
            .expect("the node survives a far deadline");
        assert!(matches!(far.outcome, WireOutcome::Allocated { .. }), "{far:?}");
        assert_eq!(stats.retries.load(Ordering::Relaxed), 0);
        server.shutdown();
        // A killed node degrades into a bounded Unavailable, not a hang.
        let after = remote.call_submit(rqfa_net::Submit {
            id: 42,
            class: QosClass::High,
            deadline_us: None,
            request: paper::table1_request().unwrap(),
        });
        assert_eq!(after, Err(RetryPolicy::loopback().attempts));
        if let Some(service) = Arc::into_inner(service) {
            service.shutdown();
        }
    }

    #[test]
    fn a_dead_local_shard_degrades_the_cluster_caller_instead_of_panicking() {
        // Regression: the local arm ended in `.expect("local service
        // answered")`, so a worker that died (here: of the store lock a
        // mutator poisoned) took the calling thread with it, where the
        // remote arm degrades the same condition to `Unavailable`.
        let service = Arc::new(
            AllocationService::new(&paper::table1_case_base(), &crate::ServiceConfig::default())
                .expect("valid service config"),
        );
        let shared = Arc::clone(&service.shards[0].shared);
        let poisoner = std::thread::spawn(move || {
            let _held = shared.store.lock().unwrap();
            panic!("mutator dies holding the store lock (expected by this test)");
        });
        assert!(poisoner.join().is_err());

        let placement = rqfa_core::ModuloPlacement::new(1);
        let client = ClusterClient::new(Box::new(placement), Some(Arc::clone(&service)));
        let request = paper::table1_request().unwrap();
        let reply = client.submit(request.clone(), QosClass::High);
        assert_eq!((reply.id, reply.class), (0, QosClass::High));
        assert_eq!(reply.outcome, Outcome::Unavailable { attempts: 0 });
        // The shard's queue is shut from here on: later calls are refused
        // at its door, and still nobody panics.
        let reply = client.submit(request, QosClass::Critical);
        assert_eq!((reply.id, reply.outcome), (1, Outcome::ShedQueueFull));
    }

    #[test]
    fn node_server_reaps_finished_connection_threads() {
        let service = Arc::new(
            AllocationService::new(
                &paper::table1_case_base(),
                &crate::ServiceConfig::default().with_shards(1),
            )
            .expect("valid service config"),
        );
        let server = NodeServer::spawn(Arc::clone(&service)).unwrap();
        let threads = Arc::clone(&server.conn_threads);
        let connect = || {
            let remote = RemoteShard::tcp(
                server.addr(),
                Duration::from_millis(500),
                RetryPolicy::loopback(),
            );
            remote.call_heartbeat(1).expect("the node answers");
            remote
        };
        for _ in 0..64 {
            drop(connect());
            // The node sees the close as EOF and its connection thread
            // returns; wait for that (bounded), so the next accept finds
            // it finished whatever the scheduler does.
            let ended = (0..10_000).any(|_| {
                let ended = threads.lock().unwrap().iter().all(JoinHandle::is_finished);
                if !ended {
                    std::thread::sleep(Duration::from_millis(1));
                }
                ended
            });
            assert!(ended, "connection thread never ended");
        }
        let open = connect();
        let held = threads.lock().unwrap().len();
        assert!(held <= 2, "{held} handles held after 65 connections");
        // Shutdown still joins what is left, the live connection included.
        server.shutdown();
        assert!(threads.lock().unwrap().is_empty());
        assert!(
            open.call_heartbeat(1).is_err(),
            "a joined node answers nothing"
        );
        if let Some(service) = Arc::into_inner(service) {
            service.shutdown();
        }
    }

    /// The client's end of an in-memory connection: writes go to the
    /// [`Peer`] frame by frame (a frame is one `write`), reads take what
    /// the peer feeds — blocking until it does, and ending when the peer
    /// is dropped.
    struct Wire {
        sent: std::sync::mpsc::Sender<Vec<u8>>,
        feed: std::sync::mpsc::Receiver<Vec<u8>>,
        pending: std::collections::VecDeque<u8>,
    }

    /// The test's end of a [`Wire`]: what the client sent, and the feed
    /// for what it reads. Dropping it closes the connection.
    struct Peer {
        sent: std::sync::mpsc::Receiver<Vec<u8>>,
        feed: std::sync::mpsc::Sender<Vec<u8>>,
    }

    impl Peer {
        /// The next frame the client sends on this connection.
        fn next(&self) -> Message {
            let bytes = self
                .sent
                .recv_timeout(Duration::from_secs(20))
                .expect("the client sends a frame");
            rqfa_net::decode_message(&rqfa_net::decode_frame(&bytes).unwrap()).unwrap()
        }

        fn answer(&self, messages: &[Message]) {
            let bytes: Vec<u8> = messages
                .iter()
                .flat_map(|message| rqfa_net::encode_message(message).unwrap())
                .collect();
            // A client that gave the connection up reads nothing more.
            let _ = self.feed.send(bytes);
        }

        /// Whether the client has dropped its end.
        fn closed(&self) -> bool {
            self.feed.send(Vec::new()).is_err()
        }
    }

    impl Read for Wire {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            while self.pending.is_empty() {
                match self.feed.recv() {
                    Ok(bytes) => self.pending.extend(bytes),
                    Err(std::sync::mpsc::RecvError) => return Ok(0),
                }
            }
            let n = out.len().min(self.pending.len());
            for (slot, byte) in out.iter_mut().zip(self.pending.drain(..n)) {
                *slot = byte;
            }
            Ok(n)
        }
    }

    impl Write for Wire {
        fn write(&mut self, frame: &[u8]) -> std::io::Result<usize> {
            self.sent
                .send(frame.to_vec())
                .map_err(|_| std::io::Error::from(std::io::ErrorKind::BrokenPipe))?;
            Ok(frame.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A client whose every factory draw is a fresh [`Wire`]; the peers
    /// arrive on the returned channel in draw order.
    fn wired(policy: RetryPolicy) -> (Arc<RemoteShard>, std::sync::mpsc::Receiver<Peer>) {
        let (peers, drawn) = std::sync::mpsc::channel();
        let peers = Mutex::new(peers);
        let remote = RemoteShard::new(
            Box::new(move || {
                let (sent, sent_rx) = std::sync::mpsc::channel();
                let (feed, feed_rx) = std::sync::mpsc::channel();
                let peer = Peer { sent: sent_rx, feed };
                peers.lock().unwrap().send(peer).expect("the test outlives its client");
                Ok(Box::new(Wire {
                    sent,
                    feed: feed_rx,
                    pending: std::collections::VecDeque::new(),
                }) as Box<dyn RemoteStream>)
            }),
            policy,
        );
        (Arc::new(remote), drawn)
    }

    const ONCE: RetryPolicy = RetryPolicy {
        attempts: 1,
        base_backoff: Duration::from_micros(1),
        jitter_seed: 0,
    };

    fn next_peer(drawn: &std::sync::mpsc::Receiver<Peer>) -> Peer {
        drawn
            .recv_timeout(Duration::from_secs(20))
            .expect("the client draws a connection")
    }

    fn echo(message: &Message) -> Message {
        match message {
            Message::Heartbeat(probe) => Message::Heartbeat(Heartbeat {
                node: probe.node,
                epoch: 1,
                generation: 1,
            }),
            other => panic!("unexpected frame: {other:?}"),
        }
    }

    fn paper_submit(id: u64) -> rqfa_net::Submit {
        rqfa_net::Submit {
            id,
            class: QosClass::High,
            deadline_us: None,
            request: paper::table1_request().unwrap(),
        }
    }

    fn shed(id: u64) -> Message {
        Message::Reply(WireReply {
            id,
            class: QosClass::High,
            outcome: WireOutcome::ShedDeadline,
            latency_us: 0,
        })
    }

    #[test]
    fn a_serial_caller_draws_one_connection_for_a_thousand_calls() {
        let service = Arc::new(
            AllocationService::new(&paper::table1_case_base(), &crate::ServiceConfig::default())
                .expect("valid service config"),
        );
        let server = NodeServer::spawn(Arc::clone(&service)).unwrap();
        let addr = server.addr();
        let draws = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&draws);
        let remote = RemoteShard::new(
            Box::new(move || {
                counted.fetch_add(1, Ordering::SeqCst);
                connect_loopback(addr, Duration::from_millis(500))
                    .map(|stream| Box::new(stream) as Box<dyn RemoteStream>)
            }),
            RetryPolicy::loopback(),
        );
        for call in 0..1_000 {
            if call % 2 == 0 {
                remote.call_heartbeat(3).expect("the node answers");
            } else {
                remote.call_submit(paper_submit(call)).expect("the node answers");
            }
        }
        assert_eq!(draws.load(Ordering::SeqCst), 1);
        let stats = remote.stats();
        assert_eq!(stats.connects.load(Ordering::Relaxed), 1);
        assert_eq!(stats.frames_sent.load(Ordering::Relaxed), 1_000);
        assert_eq!(stats.retries.load(Ordering::Relaxed), 0);
        assert_eq!(remote.idle().len(), 1);
        server.shutdown();
        if let Some(service) = Arc::into_inner(service) {
            service.shutdown();
        }
    }

    #[test]
    fn two_callers_of_one_node_have_their_frames_in_flight_at_once() {
        let (remote, drawn) = wired(ONCE);
        let callers: Vec<_> = [1u16, 2]
            .into_iter()
            .map(|node| {
                let remote = Arc::clone(&remote);
                std::thread::spawn(move || remote.call_heartbeat(node))
            })
            .collect();
        // Both frames are on their wires before either is answered: with
        // one connection under a held lock the second was never sent.
        let peers = [next_peer(&drawn), next_peer(&drawn)];
        let probes: Vec<Message> = peers.iter().map(Peer::next).collect();
        for (peer, probe) in peers.iter().zip(&probes) {
            peer.answer(&[echo(probe)]);
        }
        let mut nodes: Vec<u16> = callers
            .into_iter()
            .map(|caller| caller.join().unwrap().expect("answered").node)
            .collect();
        nodes.sort_unstable();
        assert_eq!(nodes, [1, 2]);
        assert_eq!(remote.stats().connects.load(Ordering::Relaxed), 2);
        assert_eq!(remote.idle().len(), 2, "both connections are kept");
    }

    #[test]
    fn a_heartbeat_is_answered_while_a_submit_waits_on_the_same_node() {
        let (remote, drawn) = wired(ONCE);
        let submitter = {
            let remote = Arc::clone(&remote);
            std::thread::spawn(move || remote.call_submit(paper_submit(9)))
        };
        // The submit is in flight and its node says nothing.
        let silent = next_peer(&drawn);
        assert!(matches!(silent.next(), Message::Submit(_)));
        // The supervisor's probe of the same node is a call of its own.
        let prober = {
            let remote = Arc::clone(&remote);
            std::thread::spawn(move || remote.call_heartbeat(4))
        };
        let probed = next_peer(&drawn);
        probed.answer(&[echo(&probed.next())]);
        assert_eq!(prober.join().unwrap().expect("answered").node, 4);
        assert!(!submitter.is_finished(), "the submit still waits");
        // Released by the node closing: the budget of one attempt is spent.
        drop(silent);
        assert_eq!(submitter.join().unwrap(), Err(1));
    }

    #[test]
    fn a_burst_of_callers_leaves_no_more_than_the_idle_bound_connected() {
        const CALLERS: usize = 2 * MAX_IDLE_CONNS;
        let (remote, drawn) = wired(ONCE);
        let callers: Vec<_> = (0..CALLERS)
            .map(|node| {
                let remote = Arc::clone(&remote);
                std::thread::spawn(move || remote.call_heartbeat(node as u16))
            })
            .collect();
        // Every caller's frame is in flight before any is answered, so
        // each drew a connection of its own.
        let peers: Vec<Peer> = (0..CALLERS).map(|_| next_peer(&drawn)).collect();
        let probes: Vec<Message> = peers.iter().map(Peer::next).collect();
        for (peer, probe) in peers.iter().zip(&probes) {
            peer.answer(&[echo(probe)]);
        }
        for caller in callers {
            caller.join().unwrap().expect("answered");
        }
        assert_eq!(remote.stats().connects.load(Ordering::Relaxed), CALLERS as u64);
        assert_eq!(remote.idle().len(), MAX_IDLE_CONNS);
        let closed = peers.iter().filter(|peer| peer.closed()).count();
        assert_eq!(closed, CALLERS - MAX_IDLE_CONNS, "the surplus is closed, not leaked");
    }

    #[test]
    fn a_failed_call_empties_the_stack_and_the_next_reconnects_once() {
        let (remote, drawn) = wired(ONCE);
        // Two connections, both idle.
        let callers: Vec<_> = [1u16, 2]
            .into_iter()
            .map(|node| {
                let remote = Arc::clone(&remote);
                std::thread::spawn(move || remote.call_heartbeat(node))
            })
            .collect();
        let peers = [next_peer(&drawn), next_peer(&drawn)];
        let probes: Vec<Message> = peers.iter().map(Peer::next).collect();
        for (peer, probe) in peers.iter().zip(&probes) {
            peer.answer(&[echo(probe)]);
        }
        for caller in callers {
            caller.join().unwrap().expect("answered");
        }
        assert_eq!(remote.idle().len(), 2);
        // The node goes away. The next call fails on the connection it
        // took — and takes the other one down with it, rather than leave
        // it for a later call to fail on.
        let [first, second] = peers;
        drop(first);
        drop(second);
        assert_eq!(remote.call_heartbeat(3), Err(1));
        assert!(remote.idle().is_empty());
        assert!(drawn.try_recv().is_err(), "one attempt, on a kept connection");
        // The node is back: one draw, kept again.
        let caller = {
            let remote = Arc::clone(&remote);
            std::thread::spawn(move || remote.call_heartbeat(3))
        };
        let fresh = next_peer(&drawn);
        fresh.answer(&[echo(&fresh.next())]);
        caller.join().unwrap().expect("answered");
        assert_eq!(remote.stats().connects.load(Ordering::Relaxed), 3);
        assert_eq!(remote.idle().len(), 1);
    }

    #[test]
    fn a_peer_that_keeps_answering_other_calls_is_dropped_after_a_bounded_skip() {
        let policy = RetryPolicy {
            attempts: 2,
            ..ONCE
        };
        let (remote, drawn) = wired(policy);
        let caller = {
            let remote = Arc::clone(&remote);
            std::thread::spawn(move || remote.call_submit(paper_submit(5)))
        };
        // Well-formed replies, none of them this call's, and more of them
        // than any call will read: each attempt gives up on its
        // connection, and the call on the node — it used to read on for
        // as long as the peer kept sending.
        let babble: Vec<Message> = (100..).map(shed).take(4 * MAX_SKIPPED_FRAMES).collect();
        for _ in 0..policy.attempts {
            let peer = next_peer(&drawn);
            assert!(matches!(peer.next(), Message::Submit(_)));
            peer.answer(&babble);
        }
        assert_eq!(caller.join().unwrap(), Err(policy.attempts));
        let stats = remote.stats();
        assert_eq!(
            stats.frames_received.load(Ordering::Relaxed),
            u64::from(policy.attempts) * (MAX_SKIPPED_FRAMES as u64 + 1)
        );
        assert_eq!(stats.timeouts.load(Ordering::Relaxed), 0);
        assert!(remote.idle().is_empty());

        // As many stale frames as the bound allows are still skipped.
        let caller = {
            let remote = Arc::clone(&remote);
            std::thread::spawn(move || remote.call_submit(paper_submit(6)))
        };
        let peer = next_peer(&drawn);
        assert!(matches!(peer.next(), Message::Submit(_)));
        peer.answer(&babble[..MAX_SKIPPED_FRAMES]);
        peer.answer(&[shed(6)]);
        assert_eq!(caller.join().unwrap().expect("matched by id").id, 6);
    }

    #[test]
    fn a_full_node_refuses_the_next_connection_and_serves_it_once_one_closes() {
        let service = Arc::new(
            AllocationService::new(&paper::table1_case_base(), &crate::ServiceConfig::default())
                .expect("valid service config"),
        );
        let server = NodeServer::spawn(Arc::clone(&service)).unwrap();
        let threads = Arc::clone(&server.conn_threads);
        let connect = || RemoteShard::tcp(server.addr(), Duration::from_millis(2_000), ONCE);
        let mut held: Vec<RemoteShard> = (0..MAX_CONNECTIONS)
            .map(|_| {
                let remote = connect();
                remote.call_heartbeat(1).expect("under the cap every connection is served");
                remote
            })
            .collect();
        // One over: accepted by the kernel, closed by the node. The client
        // reads EOF — a transport failure like any other.
        let refused = connect();
        assert_eq!(refused.call_heartbeat(1), Err(1));
        assert_eq!(refused.stats().timeouts.load(Ordering::Relaxed), 0, "EOF, not silence");
        assert_eq!(threads.lock().unwrap().len(), MAX_CONNECTIONS);
        // A connection closes; once its thread has ended the node has
        // room, and the retry is served.
        drop(held.pop());
        let ended = (0..10_000).any(|_| {
            let ended = threads.lock().unwrap().iter().any(JoinHandle::is_finished);
            if !ended {
                std::thread::sleep(Duration::from_millis(1));
            }
            ended
        });
        assert!(ended, "connection thread never ended");
        refused.call_heartbeat(1).expect("served once there is room");
        drop(held);
        server.shutdown();
        if let Some(service) = Arc::into_inner(service) {
            service.shutdown();
        }
    }

    #[test]
    fn remote_mutations_apply_once_and_report_generations() {
        let service = Arc::new(
            AllocationService::new(
                &paper::table1_case_base(),
                &crate::ServiceConfig::default().with_shards(1),
            )
            .expect("valid service config"),
        );
        let server = NodeServer::spawn(Arc::clone(&service)).unwrap();
        let remote = RemoteShard::tcp(
            server.addr(),
            Duration::from_millis(100),
            RetryPolicy::loopback(),
        );
        let evict = CaseMutation::Evict {
            type_id: paper::FIR_EQUALIZER,
            impl_id: paper::IMPL_GP,
        };
        let ack = remote.call_mutate(1, &evict).unwrap();
        assert_eq!(ack, MutateAck { generation: 1, error: None });
        // The same eviction again looks like a transport duplicate on
        // this connection, so the server swallows it; the client times
        // out, reconnects, and the re-sent call is then applied — where
        // it fails (already evicted) and reports the remote error.
        let again = remote.call_mutate(1, &evict).unwrap();
        assert!(again.error.is_some());
        assert!(remote.stats().retries.load(Ordering::Relaxed) >= 1);
        assert_eq!(service.shard_generation(0).raw(), 1);
        server.shutdown();
        if let Some(service) = Arc::into_inner(service) {
            service.shutdown();
        }
    }
}
