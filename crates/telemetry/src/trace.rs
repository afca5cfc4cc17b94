//! The flight recorder: a lock-free, fixed-capacity ring of request
//! life-cycle events.
//!
//! Every stage of a request's journey through the allocation service
//! records one fixed-size [`TraceEvent`] — no allocation, no locks, one
//! `fetch_add` plus a handful of relaxed atomic stores per event. When
//! the ring is full the oldest events are overwritten (a flight recorder
//! keeps the *newest* history); [`FlightRecorder::drain`] reports exactly
//! how many were lost. [`TraceDump::timelines`] reassembles the surviving
//! events into per-request timelines with a stage breakdown
//! (queue-wait / dispatch / kernel / reply), the primary artifact for
//! debugging scheduling and displacement decisions.
//!
//! ## Consistency model
//!
//! Each slot carries a *stamp* (its reservation sequence + 1) written
//! after the payload; a reader accepts a slot only if the stamp matches
//! the expected sequence before **and** after reading the payload, so a
//! slot being overwritten mid-read is discarded (counted as dropped)
//! rather than surfaced torn. Writers that lap each other onto the same
//! slot within one reservation window could in principle interleave
//! payload stores; the capacity must therefore comfortably exceed the
//! number of concurrently recording threads — in this workspace a ring
//! serves one shard (a worker thread plus submitters), and the smallest
//! sensible capacity is in the hundreds, so the window is never
//! approached.

use std::sync::atomic::{AtomicU64, Ordering};

/// What happened to a request at one point of its life cycle.
///
/// The vocabulary mirrors the service pipeline (normative table in
/// `docs/observability.md`): admission events (`Admitted`, `Displaced`,
/// `Refused`), scheduling (`Scheduled`), dispatch and the cache probe,
/// and exactly one terminal event per request (`Replied`, `Failed`,
/// `ShedQueueFull`, `ShedDeadline`). Kinds 18+ extend the vocabulary to
/// the liveness plane, where events are node-scoped: the node id rides
/// in the request-id field. Codes 22–24 are unassigned:
/// [`EventKind::from_u8`] decodes them as `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// The request entered the service (before admission control).
    Submitted = 0,
    /// Admission control accepted the request into its lane.
    Admitted = 1,
    /// The request (as queue resident) was displaced by a tighter
    /// newcomer; `arg` carries the displacing request's id **truncated
    /// to [`ARG_BITS`] bits** — join it against request ids with
    /// [`TraceEvent::arg_refers_to`], never with a raw `==` on a
    /// full-width id (ids ≥ 2⁴⁸ alias under truncation).
    Displaced = 2,
    /// Admission control refused the request (class limit reached).
    Refused = 3,
    /// The scheduler moved the request into a dispatch batch (`arg = 0`).
    Scheduled = 4,
    /// The worker began processing the request's batch.
    Dispatched = 5,
    /// The result cache served the request (`arg = 0`).
    CacheHit = 6,
    /// The cache held only a stale (old-generation) entry.
    CacheStale = 7,
    /// The cache had no entry.
    CacheMiss = 8,
    /// The retrieval kernel scored the request; `arg` carries the number
    /// of variants evaluated.
    Scored = 9,
    /// Terminal: the request was answered with an allocation
    /// (`arg = 1` when served from cache).
    Replied = 10,
    /// Terminal: retrieval failed (e.g. unknown function type).
    Failed = 11,
    /// Terminal: shed at admission (queue full / displaced).
    ShedQueueFull = 12,
    /// Terminal: shed at dispatch (deadline budget expired).
    ShedDeadline = 13,
    /// Net plane: a frame carrying this request left for a remote shard;
    /// `arg` carries the frame's payload size in words.
    FrameSent = 14,
    /// Net plane: the remote shard's reply frame arrived; `arg` carries
    /// the frame's payload size in words.
    FrameReceived = 15,
    /// Net plane: the remote hop failed and is being retried on a fresh
    /// connection; `arg` carries the attempt number (1-based).
    FrameRetried = 16,
    /// Net plane: a remote hop attempt timed out (or the connection
    /// died); `arg` carries the attempt number (1-based). Not terminal —
    /// the request either retries ([`EventKind::FrameRetried`]) or
    /// surfaces an unavailable outcome through the normal terminal
    /// events.
    FrameTimedOut = 17,
    /// Liveness plane: a node's lease lapsed past the suspicion bound
    /// but not yet the down threshold. The *node id* rides in the
    /// request-id field (liveness events are node-scoped, not
    /// request-scoped); `arg` carries the count of whole leases missed.
    NodeSuspected = 18,
    /// Liveness plane: a node missed the down threshold of consecutive
    /// leases and is considered dead; node id in the request-id field,
    /// missed-lease count in `arg`.
    NodeDown = 19,
    /// Liveness plane: the supervisor promoted a follower to serve a
    /// dead node's shard; the *promoted* node id rides in the request-id
    /// field and `arg` carries the new fencing epoch.
    NodePromoted = 20,
    /// Liveness plane: a previously suspect/down node answered a
    /// heartbeat again; node id in the request-id field.
    NodeRecovered = 21,
}

impl EventKind {
    /// Decodes a stored discriminant; `None` for garbage (torn slot).
    pub fn from_u8(raw: u8) -> Option<EventKind> {
        Some(match raw {
            0 => EventKind::Submitted,
            1 => EventKind::Admitted,
            2 => EventKind::Displaced,
            3 => EventKind::Refused,
            4 => EventKind::Scheduled,
            5 => EventKind::Dispatched,
            6 => EventKind::CacheHit,
            7 => EventKind::CacheStale,
            8 => EventKind::CacheMiss,
            9 => EventKind::Scored,
            10 => EventKind::Replied,
            11 => EventKind::Failed,
            12 => EventKind::ShedQueueFull,
            13 => EventKind::ShedDeadline,
            14 => EventKind::FrameSent,
            15 => EventKind::FrameReceived,
            16 => EventKind::FrameRetried,
            17 => EventKind::FrameTimedOut,
            18 => EventKind::NodeSuspected,
            19 => EventKind::NodeDown,
            20 => EventKind::NodePromoted,
            21 => EventKind::NodeRecovered,
            _ => return None,
        })
    }

    /// Whether this kind ends a request's timeline.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            EventKind::Replied
                | EventKind::Failed
                | EventKind::ShedQueueFull
                | EventKind::ShedDeadline
        )
    }
}

/// One recorded life-cycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Ring-global sequence number (drain order).
    pub seq: u64,
    /// Clock offset when the event was recorded, µs.
    pub at_us: u64,
    /// The request this event belongs to.
    pub request_id: u64,
    /// The request's QoS class index.
    pub class: u8,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (see [`EventKind`]); at most [`ARG_BITS`]
    /// bits. When the payload is a request id (e.g. `Displaced`), it is
    /// the *truncated* id — compare via [`TraceEvent::arg_refers_to`].
    pub arg: u64,
}

impl TraceEvent {
    /// Whether this event's `arg` payload refers to `request_id`, under
    /// the [`ARG_BITS`]-bit truncation [`FlightRecorder::record`]
    /// applies. This is the only correct way to join an id-carrying
    /// `arg` (such as a `Displaced` event's displacer) back to a
    /// full-width request id: a raw `self.arg == request_id` silently
    /// never matches once ids exceed 2⁴⁸ − 1. Note the truncation is
    /// lossy by construction — ids that differ only above bit 47 are
    /// indistinguishable here.
    pub fn arg_refers_to(&self, request_id: u64) -> bool {
        self.arg == arg_truncated(request_id)
    }
}

/// Stamp value marking a slot whose payload write is in progress.
const STAMP_WRITING: u64 = u64::MAX;
/// Payload bits available for [`TraceEvent::arg`] in the packed word
/// (`kind` and `class` take the low 16 of the 64-bit slot word).
pub const ARG_BITS: u32 = 48;

/// `id` truncated to the [`ARG_BITS`] bits an event payload can carry —
/// exactly the mask [`FlightRecorder::record`] applies before packing.
/// Apply the same mask on the join side ([`TraceEvent::arg_refers_to`])
/// when matching a stored `arg` against a full-width request id.
pub const fn arg_truncated(id: u64) -> u64 {
    id & ((1u64 << ARG_BITS) - 1)
}

#[derive(Debug, Default)]
struct Slot {
    /// `seq + 1` of the event the payload describes; 0 = never written,
    /// [`STAMP_WRITING`] = payload write in progress.
    stamp: AtomicU64,
    at_us: AtomicU64,
    request_id: AtomicU64,
    /// `kind | class << 8 | arg << 16`.
    word: AtomicU64,
}

/// The lock-free event ring. See the module docs for the consistency
/// model.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    /// Total events ever reserved (the next event's sequence number).
    head: AtomicU64,
}

impl FlightRecorder {
    /// A recorder keeping the newest `capacity` events (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records one event. Lock-free and allocation-free; overwrites the
    /// oldest event when the ring is full. `arg` is truncated to
    /// [`ARG_BITS`] bits (see [`arg_truncated`]); id-carrying payloads
    /// must be joined back with [`TraceEvent::arg_refers_to`].
    pub fn record(&self, at_us: u64, request_id: u64, class: u8, kind: EventKind, arg: u64) {
        let seq = self.head.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        slot.stamp.store(STAMP_WRITING, Ordering::Release);
        slot.at_us.store(at_us, Ordering::Relaxed);
        slot.request_id.store(request_id, Ordering::Relaxed);
        let arg = arg_truncated(arg);
        slot.word.store(
            u64::from(kind as u8) | (u64::from(class) << 8) | (arg << 16),
            Ordering::Relaxed,
        );
        slot.stamp.store(seq + 1, Ordering::Release);
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Snapshots the ring: the newest `capacity` events in record order,
    /// plus the exact number lost to overwriting (and any slot caught
    /// mid-write). Non-destructive — the ring keeps recording; events
    /// already drained are simply overwritten in due course.
    pub fn drain(&self) -> TraceDump {
        let head = self.head.load(Ordering::Acquire);
        let live = head.min(self.slots.len() as u64);
        let start = head - live;
        let mut events = Vec::with_capacity(live as usize);
        let mut dropped = start;
        for seq in start..head {
            let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
            let expected = seq + 1;
            if slot.stamp.load(Ordering::Acquire) != expected {
                dropped += 1; // overwritten or mid-write
                continue;
            }
            let at_us = slot.at_us.load(Ordering::Relaxed);
            let request_id = slot.request_id.load(Ordering::Relaxed);
            let word = slot.word.load(Ordering::Relaxed);
            if slot.stamp.load(Ordering::Acquire) != expected {
                dropped += 1; // overwritten while reading
                continue;
            }
            #[allow(clippy::cast_possible_truncation)]
            let Some(kind) = EventKind::from_u8((word & 0xFF) as u8) else {
                dropped += 1;
                continue;
            };
            #[allow(clippy::cast_possible_truncation)]
            events.push(TraceEvent {
                seq,
                at_us,
                request_id,
                class: ((word >> 8) & 0xFF) as u8,
                kind,
                arg: word >> 16,
            });
        }
        TraceDump {
            events,
            dropped,
            total: head,
        }
    }
}

/// The drained contents of one or more flight recorders.
#[derive(Debug, Clone, Default)]
pub struct TraceDump {
    /// Surviving events, in record order (per source ring).
    pub events: Vec<TraceEvent>,
    /// Events recorded but not present here (overwritten, or caught
    /// mid-write during the drain).
    pub dropped: u64,
    /// Events ever recorded (`events.len() + dropped`).
    pub total: u64,
}

impl TraceDump {
    /// Merges several dumps (e.g. one per shard) into one. Events keep
    /// their per-ring order; a request's events all come from one ring,
    /// so per-request timelines are unaffected by the concatenation
    /// order.
    pub fn merge(dumps: impl IntoIterator<Item = TraceDump>) -> TraceDump {
        let mut merged = TraceDump::default();
        for dump in dumps {
            merged.events.extend(dump.events);
            merged.dropped += dump.dropped;
            merged.total += dump.total;
        }
        merged
    }

    /// Groups events into per-request timelines, in order of each
    /// request's first surviving event.
    pub fn timelines(&self) -> Vec<RequestTimeline> {
        let mut order: Vec<u64> = Vec::new();
        let mut index: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut grouped: Vec<Vec<TraceEvent>> = Vec::new();
        for event in &self.events {
            let slot = *index.entry(event.request_id).or_insert_with(|| {
                order.push(event.request_id);
                grouped.push(Vec::new());
                grouped.len() - 1
            });
            grouped[slot].push(*event);
        }
        order
            .into_iter()
            .zip(grouped)
            .map(|(request_id, events)| RequestTimeline { request_id, events })
            .collect()
    }
}

/// Every surviving event of one request, in record order.
#[derive(Debug, Clone)]
pub struct RequestTimeline {
    /// The request id.
    pub request_id: u64,
    /// The request's events, oldest first.
    pub events: Vec<TraceEvent>,
}

impl RequestTimeline {
    /// The request's QoS class index (from its first event).
    pub fn class(&self) -> Option<u8> {
        self.events.first().map(|e| e.class)
    }

    /// The timestamp of the first event of `kind`, if recorded.
    pub fn at(&self, kind: EventKind) -> Option<u64> {
        self.events.iter().find(|e| e.kind == kind).map(|e| e.at_us)
    }

    /// The terminal event, if the timeline is complete.
    pub fn terminal(&self) -> Option<&TraceEvent> {
        self.events.iter().rev().find(|e| e.kind.is_terminal())
    }

    /// The stage breakdown, for timelines with both a `Submitted` and a
    /// terminal event. The stages telescope over whichever checkpoints
    /// were recorded, so they always sum to the end-to-end time
    /// (`terminal − submitted`) exactly.
    pub fn breakdown(&self) -> Option<StageBreakdown> {
        let submitted = self.at(EventKind::Submitted)?;
        let terminal = self.terminal()?.at_us;
        // Canonical checkpoint ladder; absent rungs collapse their stage
        // into the next present one.
        let scheduled = self.at(EventKind::Scheduled);
        let dispatched = self.at(EventKind::Dispatched);
        let scored = self.at(EventKind::Scored);
        let mut last = submitted;
        let mut stage = |checkpoint: Option<u64>| -> u64 {
            match checkpoint {
                Some(at) => {
                    let d = at.saturating_sub(last);
                    last = last.max(at);
                    d
                }
                None => 0,
            }
        };
        let queue_us = stage(scheduled);
        let dispatch_us = stage(dispatched);
        let service_us = stage(scored);
        let reply_us = terminal.saturating_sub(last);
        Some(StageBreakdown {
            queue_us,
            dispatch_us,
            service_us,
            reply_us,
        })
    }
}

/// Where one request's end-to-end time went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageBreakdown {
    /// Submitted → scheduled into a batch (queue wait).
    pub queue_us: u64,
    /// Scheduled → worker began the batch.
    pub dispatch_us: u64,
    /// Dispatch → kernel scored the request (0 for cache hits and shed
    /// requests — no kernel ran).
    pub service_us: u64,
    /// Last checkpoint → terminal event.
    pub reply_us: u64,
}

impl StageBreakdown {
    /// Sum of all stages — exactly `terminal − submitted`.
    pub fn total_us(&self) -> u64 {
        self.queue_us + self.dispatch_us + self.service_us + self.reply_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_round_trips_and_unassigned_codes_decode_as_none() {
        let kinds = [
            EventKind::Submitted,
            EventKind::Admitted,
            EventKind::Displaced,
            EventKind::Refused,
            EventKind::Scheduled,
            EventKind::Dispatched,
            EventKind::CacheHit,
            EventKind::CacheStale,
            EventKind::CacheMiss,
            EventKind::Scored,
            EventKind::Replied,
            EventKind::Failed,
            EventKind::ShedQueueFull,
            EventKind::ShedDeadline,
            EventKind::FrameSent,
            EventKind::FrameReceived,
            EventKind::FrameRetried,
            EventKind::FrameTimedOut,
            EventKind::NodeSuspected,
            EventKind::NodeDown,
            EventKind::NodePromoted,
            EventKind::NodeRecovered,
        ];
        // Codes 0..=21 are exactly these kinds, in order; a torn slot or
        // one carrying a freed code is skipped, never misread.
        for (code, kind) in (0..=u8::MAX).zip(kinds) {
            assert_eq!(kind as u8, code);
            assert_eq!(EventKind::from_u8(code), Some(kind));
        }
        for raw in 22..=u8::MAX {
            assert_eq!(EventKind::from_u8(raw), None, "code {raw}");
        }
    }

    #[test]
    fn records_and_drains_in_order() {
        let ring = FlightRecorder::new(8);
        for i in 0..5u64 {
            ring.record(i * 10, i, 1, EventKind::Submitted, 0);
        }
        let dump = ring.drain();
        assert_eq!(dump.dropped, 0);
        assert_eq!(dump.total, 5);
        let ids: Vec<u64> = dump.events.iter().map(|e| e.request_id).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4]);
        assert_eq!(dump.events[3].at_us, 30);
        assert_eq!(dump.events[3].kind, EventKind::Submitted);
    }

    #[test]
    fn wraparound_keeps_newest_events_and_exact_drop_count() {
        let ring = FlightRecorder::new(4);
        for i in 0..10u64 {
            ring.record(i, i, 0, EventKind::Dispatched, i);
        }
        let dump = ring.drain();
        assert_eq!(dump.total, 10);
        assert_eq!(dump.dropped, 6, "exactly the 6 oldest were overwritten");
        let ids: Vec<u64> = dump.events.iter().map(|e| e.request_id).collect();
        assert_eq!(ids, [6, 7, 8, 9], "the newest 4 survive, in order");
        assert_eq!(dump.events.len() as u64 + dump.dropped, dump.total);
    }

    #[test]
    fn arg_is_truncated_to_48_bits() {
        let ring = FlightRecorder::new(2);
        ring.record(0, 7, 3, EventKind::Scored, u64::MAX);
        let dump = ring.drain();
        assert_eq!(dump.events[0].arg, arg_truncated(u64::MAX));
        assert_eq!(dump.events[0].arg, (1u64 << 48) - 1);
        assert_eq!(dump.events[0].class, 3);
        assert_eq!(dump.events[0].kind, EventKind::Scored);
    }

    #[test]
    fn id_args_past_the_48_bit_boundary_join_via_the_masked_predicate() {
        // The displacer-id wraparound case: a request id above 2^48 is
        // stored truncated, so the naive full-width join (`arg == id`)
        // silently never matches. The masked predicate must match — and
        // the documented alias (the low 48 bits colliding with a small
        // id) is inherent to the truncation, not a bug in the join.
        let big_id = (1u64 << ARG_BITS) + 7;
        let ring = FlightRecorder::new(4);
        ring.record(5, 3, 1, EventKind::Displaced, big_id);
        let dump = ring.drain();
        let event = &dump.events[0];
        assert_eq!(event.arg, 7, "stored truncated to the low 48 bits");
        assert_ne!(event.arg, big_id, "full-width == would never match");
        assert!(event.arg_refers_to(big_id), "masked join finds the displacer");
        assert!(
            event.arg_refers_to(7),
            "ids differing only above bit 47 alias — documented caveat"
        );
        assert!(!event.arg_refers_to(8));
    }

    #[test]
    fn concurrent_recording_loses_nothing_within_capacity() {
        let ring = std::sync::Arc::new(FlightRecorder::new(4096));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = std::sync::Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..256u64 {
                        ring.record(i, t * 1000 + i, 0, EventKind::Submitted, 0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let dump = ring.drain();
        assert_eq!(dump.total, 1024);
        assert_eq!(dump.dropped, 0);
        assert_eq!(dump.events.len(), 1024);
    }

    #[test]
    fn timeline_breakdown_telescopes_to_total() {
        let ring = FlightRecorder::new(16);
        // A full pipeline: submitted 100 → scheduled 140 → dispatched
        // 150 → scored 175 → replied 180.
        ring.record(100, 1, 2, EventKind::Submitted, 0);
        ring.record(100, 1, 2, EventKind::Admitted, 0);
        ring.record(140, 1, 2, EventKind::Scheduled, 1);
        ring.record(150, 1, 2, EventKind::Dispatched, 0);
        ring.record(150, 1, 2, EventKind::CacheMiss, 0);
        ring.record(175, 1, 2, EventKind::Scored, 12);
        ring.record(180, 1, 2, EventKind::Replied, 0);
        // A cache hit with no kernel stage: submitted 200 → … replied 230.
        ring.record(200, 2, 1, EventKind::Submitted, 0);
        ring.record(220, 2, 1, EventKind::Scheduled, 0);
        ring.record(225, 2, 1, EventKind::Dispatched, 0);
        ring.record(225, 2, 1, EventKind::CacheHit, 0);
        ring.record(230, 2, 1, EventKind::Replied, 1);
        let timelines = ring.drain().timelines();
        assert_eq!(timelines.len(), 2);

        let full = &timelines[0];
        assert_eq!(full.request_id, 1);
        assert_eq!(full.class(), Some(2));
        assert_eq!(full.terminal().unwrap().kind, EventKind::Replied);
        let b = full.breakdown().unwrap();
        assert_eq!(
            b,
            StageBreakdown {
                queue_us: 40,
                dispatch_us: 10,
                service_us: 25,
                reply_us: 5
            }
        );
        assert_eq!(b.total_us(), 80);

        let hit = &timelines[1];
        let b = hit.breakdown().unwrap();
        assert_eq!(b.service_us, 0, "no kernel stage on a cache hit");
        assert_eq!(b.total_us(), 30, "stages still sum to end-to-end");
    }

    #[test]
    fn incomplete_timelines_have_no_breakdown() {
        let ring = FlightRecorder::new(4);
        ring.record(10, 9, 0, EventKind::Submitted, 0);
        ring.record(20, 9, 0, EventKind::Scheduled, 0);
        let timelines = ring.drain().timelines();
        assert!(timelines[0].terminal().is_none());
        assert!(timelines[0].breakdown().is_none());
    }

    #[test]
    fn merge_concatenates_and_sums() {
        let a = FlightRecorder::new(2);
        a.record(1, 1, 0, EventKind::Submitted, 0);
        let b = FlightRecorder::new(2);
        b.record(2, 2, 0, EventKind::Submitted, 0);
        b.record(3, 2, 0, EventKind::Replied, 0);
        b.record(4, 2, 0, EventKind::Replied, 0); // overwrites seq 0
        let merged = TraceDump::merge([a.drain(), b.drain()]);
        assert_eq!(merged.total, 4);
        assert_eq!(merged.dropped, 1);
        assert_eq!(merged.events.len(), 3);
    }
}
