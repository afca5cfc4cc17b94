//! # rqfa-net — memlist-framed RPC and shard replication transport
//!
//! The distributed plane's wire layer. Shards of the allocation service
//! can live on remote nodes (see [`rqfa_core::placement`]); this crate
//! carries the three RPCs a remote shard serves — `Request` submission,
//! `Reply` delivery and `CaseMutation` application — plus the
//! replication stream that keeps a follower byte-identical to its
//! leader. Everything on the wire is the **16-bit word format the
//! memory images already use**: a request travels as its Req-MEM image
//! (`rqfa_memlist::encode_request`), a mutation travels as the exact
//! CRC-guarded WAL frame `rqfa-persist` appends to the log, and a
//! snapshot ships as the dual-slot container bytes chunked into words.
//! One serialization layer, three media: RAM image, log, wire.
//!
//! Layers, bottom up:
//!
//! * [`frame`] — length-prefixed, CRC-guarded transport frames
//!   (`magic | kind | len | payload words | crc32`). Any defect —
//!   truncation, bit flip, wrong magic — is a clean [`NetError`], never
//!   a misparse.
//! * [`wire`] — the [`Message`] vocabulary and its word codecs:
//!   submit / reply / mutate(+ack) / snapshot-chunk / snapshot-done /
//!   tail-frame(+ack).
//! * [`conn`] — [`FrameConn`] over any `Read + Write` stream (TCP
//!   loopback in tests), per-connection timeouts, and the bounded
//!   [`RetryPolicy`] whose exhaustion the service surfaces as an
//!   `Unavailable` outcome rather than a hang.
//! * [`replication`] — the follower state machine
//!   ([`Follower`]): ingest snapshot chunks, install at `SnapshotDone`,
//!   then apply WAL tail frames under the same `exactly generation + 1`
//!   discipline recovery uses; [`Follower::promote`] yields the case
//!   base for failover.
//! * [`fault`] — the deterministic byte-level fault injector
//!   ([`FaultyStream`]): drop / duplicate / truncate / delay /
//!   disconnect whole frames by seeded plan, for the multi-node
//!   harness.
//! * [`detector`] — lease-based liveness classification
//!   ([`FailureDetector`]): heartbeats renew a per-node lease, whole
//!   missed leases map to `Healthy`/`Suspect`/`Down`, all on the
//!   injected clock. It is the only liveness judgment the crate makes:
//!   a call to a dead node spends its bounded retry budget until the
//!   service's supervisor, acting on the detector, repoints placement.
//! * [`stats`] — lock-free net-plane counters ([`NetStats`]) pluggable
//!   into the workspace metrics registry.
//!
//! This crate is dependency-free (workspace crates only) and contains
//! no `unsafe`. The normative protocol model lives in
//! `docs/distribution.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod detector;
mod error;
pub mod fault;
pub mod frame;
pub mod replication;
pub mod stats;
pub mod wire;

pub use conn::{connect_loopback, FrameConn, RetryPolicy};
pub use detector::{FailureDetector, Liveness};
pub use error::NetError;
pub use fault::{shared_plan, FaultAction, FaultPlan, FaultyStream, SharedFaultPlan};
pub use frame::{decode_frame, encode_frame, Frame, FRAME_MAGIC, MAX_PAYLOAD_WORDS};
pub use replication::{snapshot_stream, Follower, FollowerEvent};
pub use stats::NetStats;
pub use wire::{
    decode_message, encode_message, Heartbeat, Message, MutateAck, SnapshotChunk, SnapshotDone,
    Submit, TailAck, WireOutcome, WireReply,
};
