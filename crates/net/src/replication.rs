//! Shard replication: snapshot shipping and WAL tail streaming.
//!
//! A leader brings a follower up to date in two phases, reusing the
//! persistence layer's artifacts as the transfer units:
//!
//! 1. **Snapshot ship** — the leader's dual-slot snapshot container
//!    (`rqfa_persist::encode_snapshot`) is chunked into
//!    [`SnapshotChunk`] windows and terminated by a [`SnapshotDone`];
//!    the follower buffers, verifies the total, and installs via
//!    `decode_snapshot` (whose CRC guards the whole container).
//! 2. **Tail stream** — every WAL record past the snapshot generation
//!    travels as a [`Message::TailFrame`] carrying the *exact* log frame
//!    bytes; the follower applies it under the same
//!    `exactly generation + 1` discipline `DurableCaseBase` recovery
//!    uses: stale stamps are idempotently ignored, gaps are protocol
//!    errors, and a mutation is never applied twice.
//!
//! The combination makes convergence insensitive to interleaving: any
//! chunking of the snapshot and any duplication/reordering-free tail
//! schedule yields a follower whose memory image is **byte-identical**
//! to the leader's (property-tested below, and over real TCP with fault
//! injection in `tests/distributed.rs`). On leader failure,
//! [`Follower::promote`] yields the replica for failover.

use rqfa_core::{CaseBase, Generation};
use rqfa_memlist::{LeWords, WordSink};
use rqfa_persist::{decode_snapshot, StampedMutation};

use crate::error::NetError;
use crate::wire::{Message, SnapshotChunk, SnapshotDone};

/// Chunks a snapshot container into the message sequence that ships it.
///
/// # Errors
///
/// [`NetError::Malformed`] if `bytes` is not a word list (containers
/// always are) and [`NetError::Replication`] on a zero chunk size.
pub fn snapshot_stream(
    bytes: &[u8],
    generation: Generation,
    chunk_words: usize,
) -> Result<Vec<Message>, NetError> {
    if chunk_words == 0 {
        return Err(NetError::Replication("chunk size must be positive"));
    }
    let words = LeWords::new(bytes)
        .ok_or(NetError::Malformed("odd byte count is not a word list"))?
        .to_words();
    let mut messages = Vec::with_capacity(words.len() / chunk_words + 2);
    for (index, window) in words.chunks(chunk_words).enumerate() {
        messages.push(Message::SnapshotChunk(SnapshotChunk {
            #[allow(clippy::cast_possible_truncation)]
            offset_words: (index * chunk_words) as u32,
            words: window.to_vec(),
        }));
    }
    messages.push(Message::SnapshotDone(SnapshotDone {
        generation: generation.raw(),
        #[allow(clippy::cast_possible_truncation)]
        total_words: words.len() as u32,
    }));
    Ok(messages)
}

/// What one ingested replication message did to the follower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowerEvent {
    /// A snapshot chunk was buffered; more are expected.
    Progress,
    /// The snapshot was verified and installed.
    Installed {
        /// The installed case base's generation.
        generation: Generation,
    },
    /// A tail frame advanced the replica by one generation.
    Applied {
        /// The replica's generation after the apply.
        generation: Generation,
    },
    /// A duplicate (already-applied) tail frame was ignored.
    Ignored,
}

enum FollowerState {
    /// Buffering snapshot chunks; contiguous words received so far.
    Syncing { buffer: Vec<u16> },
    /// Snapshot installed; applying tail frames.
    Live { case_base: CaseBase },
}

/// The follower's replication state machine.
///
/// Drive it with [`Follower::ingest`]; on a broken snapshot stream call
/// [`Follower::reset`] and re-ship (installation is all-or-nothing, so
/// a half-shipped snapshot can never leak into service). A live
/// follower survives duplicated tail frames (idempotent ignore) and
/// detects gaps as protocol errors rather than diverging silently.
pub struct Follower {
    state: FollowerState,
}

impl Default for Follower {
    fn default() -> Follower {
        Follower::new()
    }
}

impl Follower {
    /// A follower awaiting its first snapshot chunk.
    pub fn new() -> Follower {
        Follower {
            state: FollowerState::Syncing { buffer: Vec::new() },
        }
    }

    /// Feeds one replication message through the state machine.
    ///
    /// # Errors
    ///
    /// [`NetError::Replication`] for protocol violations (chunk gap,
    /// total mismatch, generation gap, message out of phase) and
    /// [`NetError::Persist`] if the assembled container fails its CRC
    /// or decode.
    pub fn ingest(&mut self, message: &Message) -> Result<FollowerEvent, NetError> {
        match (&mut self.state, message) {
            (FollowerState::Syncing { buffer }, Message::SnapshotChunk(chunk)) => {
                if usize::try_from(chunk.offset_words) != Ok(buffer.len()) {
                    return Err(NetError::Replication(
                        "snapshot chunk offset does not continue the buffer",
                    ));
                }
                buffer.extend_from_slice(&chunk.words);
                Ok(FollowerEvent::Progress)
            }
            (FollowerState::Syncing { buffer }, Message::SnapshotDone(done)) => {
                if usize::try_from(done.total_words) != Ok(buffer.len()) {
                    return Err(NetError::Replication(
                        "snapshot total does not match the buffered words",
                    ));
                }
                let mut container = Vec::new();
                container.put_words(buffer);
                let snapshot = decode_snapshot(&container)?;
                if snapshot.generation.raw() != done.generation {
                    return Err(NetError::Replication(
                        "announced generation disagrees with the container",
                    ));
                }
                let generation = snapshot.generation;
                self.state = FollowerState::Live {
                    case_base: snapshot.case_base,
                };
                Ok(FollowerEvent::Installed { generation })
            }
            (FollowerState::Live { case_base }, Message::TailFrame(stamped)) => {
                Follower::apply_tail(case_base, stamped)
            }
            (FollowerState::Syncing { .. }, Message::TailFrame(_)) => Err(NetError::Replication(
                "tail frame before the snapshot installed",
            )),
            (FollowerState::Live { .. }, Message::SnapshotChunk(_) | Message::SnapshotDone(_)) => {
                Err(NetError::Replication(
                    "snapshot message on a live follower (reset first)",
                ))
            }
            _ => Err(NetError::Replication("message out of phase")),
        }
    }

    /// Applies a stamped record under the recovery discipline: exactly
    /// `generation + 1` advances, stale stamps are ignored, gaps fail.
    fn apply_tail(
        case_base: &mut CaseBase,
        stamped: &StampedMutation,
    ) -> Result<FollowerEvent, NetError> {
        let current = case_base.generation();
        if stamped.generation.raw() <= current.raw() {
            return Ok(FollowerEvent::Ignored);
        }
        if stamped.generation != current.next() {
            return Err(NetError::Replication(
                "tail frame skips a generation — the stream lost a record",
            ));
        }
        case_base.apply_mutation(&stamped.mutation)?;
        debug_assert_eq!(case_base.generation(), stamped.generation);
        Ok(FollowerEvent::Applied {
            generation: stamped.generation,
        })
    }

    /// Discards all progress and awaits a fresh snapshot ship — the
    /// recovery path when the stream dies mid-snapshot.
    pub fn reset(&mut self) {
        self.state = FollowerState::Syncing { buffer: Vec::new() };
    }

    /// The replica, if the snapshot has installed.
    pub fn case_base(&self) -> Option<&CaseBase> {
        match &self.state {
            FollowerState::Live { case_base } => Some(case_base),
            FollowerState::Syncing { .. } => None,
        }
    }

    /// The replica's generation, if live.
    pub fn generation(&self) -> Option<Generation> {
        self.case_base().map(CaseBase::generation)
    }

    /// Consumes the follower, yielding the replica for promotion.
    ///
    /// # Errors
    ///
    /// [`NetError::Replication`] if no snapshot has installed yet.
    pub fn promote(self) -> Result<CaseBase, NetError> {
        match self.state {
            FollowerState::Live { case_base } => Ok(case_base),
            FollowerState::Syncing { .. } => Err(NetError::Replication(
                "cannot promote before a snapshot installs",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqfa_core::{
        AttrBinding, AttrDecl, AttrId, BoundsTable, CaseMutation, ExecutionTarget, FunctionType,
        ImplId, ImplVariant, TypeId,
    };
    use rqfa_memlist::encode_case_base;
    use rqfa_persist::encode_snapshot;

    use crate::wire::tests::TestRng;

    fn attr(raw: u16) -> AttrId {
        AttrId::new(raw).unwrap()
    }

    fn seed_base() -> CaseBase {
        let bounds = BoundsTable::from_decls(vec![
            AttrDecl::new(attr(1), "a1", 0, 1000).unwrap(),
            AttrDecl::new(attr(2), "a2", 0, 1000).unwrap(),
        ])
        .unwrap();
        let types = (1u16..=6)
            .map(|t| {
                FunctionType::new(
                    TypeId::new(t).unwrap(),
                    format!("type-{t}"),
                    vec![ImplVariant::new(
                        ImplId::new(1).unwrap(),
                        ExecutionTarget::GpProcessor,
                        vec![AttrBinding::new(attr(1), t * 10)],
                    )
                    .unwrap()],
                )
                .unwrap()
            })
            .collect();
        CaseBase::new(bounds, types).unwrap()
    }

    fn random_mutation(rng: &mut TestRng, base: &CaseBase) -> CaseMutation {
        let types = base.function_types();
        let ft = &types[rng.below(types.len() as u64) as usize];
        let type_id = ft.id();
        match rng.below(3) {
            // Evict only when another variant remains (no empty types).
            0 if ft.variants().len() > 1 => CaseMutation::Evict {
                type_id,
                impl_id: ft.variants()[0].id(),
            },
            tag => {
                let impl_id = ImplId::new(1 + rng.below(40) as u16).unwrap();
                let variant = ImplVariant::new(
                    impl_id,
                    ExecutionTarget::Dsp,
                    vec![AttrBinding::new(attr(2), rng.below(900) as u16)],
                )
                .unwrap();
                if tag == 1 && ft.variants().iter().any(|v| v.id() == impl_id) {
                    CaseMutation::Revise { type_id, variant }
                } else if ft.variants().iter().all(|v| v.id() != impl_id) {
                    CaseMutation::Retain { type_id, variant }
                } else {
                    CaseMutation::Revise { type_id, variant }
                }
            }
        }
    }

    /// Satellite: replica convergence. For 10 seeds, build a leader
    /// history (snapshot at a random point + WAL tail), ship it with a
    /// seed-dependent chunk size and seed-dependent tail duplication,
    /// and assert the follower's CB-MEM image is byte-identical to the
    /// leader's.
    #[test]
    fn any_interleaving_converges_to_the_leader_image() {
        for seed in 1..=10u64 {
            let mut rng = TestRng::new(seed * 0xC0FFEE);
            let mut leader = seed_base();

            // History: mutations before the snapshot point…
            let pre = 1 + rng.below(8);
            for _ in 0..pre {
                let m = random_mutation(&mut rng, &leader);
                leader.apply_mutation(&m).unwrap();
            }
            let container = encode_snapshot(&leader).unwrap();
            let snapshot_gen = leader.generation();

            // …and a stamped tail after it.
            let mut tail = Vec::new();
            for _ in 0..rng.below(10) {
                let m = random_mutation(&mut rng, &leader);
                leader.apply_mutation(&m).unwrap();
                tail.push(StampedMutation {
                    generation: leader.generation(),
                    mutation: m,
                });
            }

            // Ship with a seed-dependent chunk size.
            let chunk = 1 + rng.below(64) as usize;
            let mut follower = Follower::new();
            for message in snapshot_stream(&container, snapshot_gen, chunk).unwrap() {
                follower.ingest(&message).unwrap();
            }
            assert_eq!(follower.generation(), Some(snapshot_gen));

            // Stream the tail, duplicating random frames: duplicates
            // must be ignored, never double-applied.
            for stamped in &tail {
                let message = Message::TailFrame(stamped.clone());
                assert_eq!(
                    follower.ingest(&message).unwrap(),
                    FollowerEvent::Applied {
                        generation: stamped.generation
                    }
                );
                if rng.below(3) == 0 {
                    assert_eq!(follower.ingest(&message).unwrap(), FollowerEvent::Ignored);
                }
            }

            let leader_image = encode_case_base(&leader).unwrap();
            let replica = follower.promote().unwrap();
            assert_eq!(replica.generation(), leader.generation(), "seed {seed}");
            let replica_image = encode_case_base(&replica).unwrap();
            assert_eq!(
                leader_image.image().words(),
                replica_image.image().words(),
                "seed {seed}: replica image must be byte-identical"
            );
        }
    }

    #[test]
    fn chunk_gap_is_a_protocol_error() {
        let base = seed_base();
        let container = encode_snapshot(&base).unwrap();
        let messages = snapshot_stream(&container, base.generation(), 8).unwrap();
        let mut follower = Follower::new();
        follower.ingest(&messages[0]).unwrap();
        // Skip a chunk: the offset no longer continues the buffer.
        assert!(matches!(
            follower.ingest(&messages[2]),
            Err(NetError::Replication(_))
        ));
    }

    #[test]
    fn reset_recovers_a_broken_ship() {
        let base = seed_base();
        let container = encode_snapshot(&base).unwrap();
        let messages = snapshot_stream(&container, base.generation(), 16).unwrap();
        let mut follower = Follower::new();
        follower.ingest(&messages[0]).unwrap();
        // The stream "dies"; a reset and a full re-ship succeed.
        follower.reset();
        for message in &messages {
            follower.ingest(message).unwrap();
        }
        assert_eq!(follower.generation(), Some(base.generation()));
    }

    #[test]
    fn generation_gap_in_the_tail_is_detected() {
        let mut leader = seed_base();
        let container = encode_snapshot(&leader).unwrap();
        let mut follower = Follower::new();
        for message in snapshot_stream(&container, leader.generation(), 32).unwrap() {
            follower.ingest(&message).unwrap();
        }
        // Build two tail records but deliver only the second.
        let mut rng = TestRng::new(7);
        for _ in 0..2 {
            let m = random_mutation(&mut rng, &leader);
            leader.apply_mutation(&m).unwrap();
        }
        let skipped = StampedMutation {
            generation: leader.generation(),
            mutation: random_mutation(&mut rng, &leader),
        };
        assert!(matches!(
            follower.ingest(&Message::TailFrame(skipped)),
            Err(NetError::Replication(_))
        ));
    }

    #[test]
    fn promotion_requires_an_installed_snapshot() {
        assert!(Follower::new().promote().is_err());
    }
}
