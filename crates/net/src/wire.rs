//! The RPC message vocabulary and its word codecs.
//!
//! Every message payload is a list of 16-bit words in the formats the
//! workspace already persists:
//!
//! * a [`Submit`] carries the request's **Req-MEM image**
//!   (`rqfa_memlist::encode_request`) verbatim — the same words the
//!   hardware unit would scan;
//! * a [`Message::Mutate`] / [`Message::TailFrame`] carries the exact
//!   **WAL frame bytes** `rqfa-persist` appends to the log
//!   (`encode_frame`), reinterpreted as words — a mutation travels the
//!   wire byte-identically to how it lands on disk, CRC and all (a
//!   `Mutate` prefixes the frame with the sender's cluster epoch, the
//!   fencing token the serving node checks before applying);
//! * a [`SnapshotChunk`] carries a word-window of the **dual-slot
//!   snapshot container** (`encode_snapshot`) — PR 2's transfer unit.
//!
//! Scalars wider than a word are little-endian word sequences (low word
//! first). Decoding is strict: unknown kinds, short payloads, bad enum
//! tags and domain-invalid values are all clean [`NetError`]s, and a
//! [`rqfa_core::Request`] is decoded by `rqfa_memlist` — a list in the
//! normal form every encoder emits becomes the request as it stands,
//! any other goes through the validating request builder — so nothing
//! structurally invalid crosses the wire into the service.
//!
//! **One codec.** Each kind's field order is written down twice, once
//! per direction: `encode_payload` appends the fields as little-endian
//! bytes to whatever buffer the frame is being written in, and
//! `decode_payload` reads them from wherever the payload lies
//! (`frame::Payload`). [`crate::FrameConn`] runs both in place — `send`
//! into its send buffer, `recv` out of its read-ahead buffer — so in the
//! steady state encoding allocates nothing, a decoded [`Submit`]
//! allocates once (its constraints) and a decoded [`WireReply`] not at
//! all. [`encode_message`] and [`decode_message`] are the same code over
//! a vector of its own and a [`Frame`]'s words.

use rqfa_core::{CaseMutation, CoreError, ExecutionTarget, Generation, QosClass, Request, Scored};
use rqfa_core::{AttrId, ImplId, TypeId};
use rqfa_fixed::Q15;
use rqfa_memlist::{decode_request_words, predicted_request_words, MemError, END_MARKER};
use rqfa_persist::StampedMutation;

use crate::error::NetError;
use crate::frame::{put_word, write_frame, Frame, LeWords, Payload};

/// Frame kind of a [`Submit`].
pub const KIND_SUBMIT: u16 = 1;
/// Frame kind of a [`WireReply`].
pub const KIND_REPLY: u16 = 2;
/// Frame kind of a client mutation RPC.
pub const KIND_MUTATE: u16 = 3;
/// Frame kind of a [`MutateAck`].
pub const KIND_MUTATE_ACK: u16 = 4;
/// Frame kind of a [`SnapshotChunk`].
pub const KIND_SNAPSHOT_CHUNK: u16 = 5;
/// Frame kind of a [`SnapshotDone`].
pub const KIND_SNAPSHOT_DONE: u16 = 6;
/// Frame kind of a replication tail frame.
pub const KIND_TAIL_FRAME: u16 = 7;
/// Frame kind of a [`TailAck`].
pub const KIND_TAIL_ACK: u16 = 8;
/// Frame kind of a [`Heartbeat`] (probe and echo share the kind).
pub const KIND_HEARTBEAT: u16 = 9;

/// A request submission bound for a remote shard.
#[derive(Debug, Clone, PartialEq)]
pub struct Submit {
    /// The caller's request id; the reply echoes it.
    pub id: u64,
    /// QoS class of the request.
    pub class: QosClass,
    /// Optional relative deadline in µs from arrival at the server.
    pub deadline_us: Option<u64>,
    /// The request itself (travels as its Req-MEM word image).
    pub request: Request,
}

/// How a remotely served request ended — the wire mirror of the
/// service's `Outcome` (the service layer converts losslessly in both
/// directions).
#[derive(Debug, Clone, PartialEq)]
pub enum WireOutcome {
    /// Retrieval succeeded.
    Allocated {
        /// The winning variant.
        best: Scored<Q15>,
        /// Variants evaluated to produce the result.
        evaluated: u64,
        /// Whether the serving shard's cache answered.
        cached: bool,
    },
    /// Shed at admission on the serving node.
    ShedQueueFull,
    /// Shed at dispatch on the serving node.
    ShedDeadline,
    /// Retrieval failed (the [`CoreError`] crosses the wire losslessly).
    Failed(CoreError),
    /// The shard was unreachable within the bounded retry budget. Only
    /// ever *produced* client-side, but encodable so replies can be
    /// proxied through intermediate hops.
    Unavailable {
        /// Connection attempts made before giving up.
        attempts: u32,
    },
    /// Wire code 5, carrying `rqfa_service::Outcome::ShedPredicted`,
    /// which nothing in this build produces; kept, with its golden
    /// frame, while the `benchmark/` harness still names that outcome.
    ShedPredicted {
        /// Predicted lateness in µs had the request been queued.
        late_us: u64,
    },
}

/// The server's answer to a [`Submit`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireReply {
    /// Echo of [`Submit::id`].
    pub id: u64,
    /// The request's QoS class.
    pub class: QosClass,
    /// What happened.
    pub outcome: WireOutcome,
    /// Server-side latency in µs (enqueue to reply).
    pub latency_us: u64,
}

/// The server's answer to a mutation RPC or a replication frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutateAck {
    /// The shard generation after the apply (raw counter value; 0 when
    /// the apply failed).
    pub generation: u64,
    /// `None` on success; the remote error rendering otherwise.
    pub error: Option<String>,
}

/// One word-window of a shipping snapshot container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotChunk {
    /// Word offset of this chunk inside the container.
    pub offset_words: u32,
    /// The chunk's words.
    pub words: Vec<u16>,
}

/// End of a snapshot ship: the follower must now hold the whole
/// container and installs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotDone {
    /// The shipped case base's generation (raw counter value).
    pub generation: u64,
    /// Total container size in words — must equal the chunk sum.
    pub total_words: u32,
}

/// The follower's acknowledgement of an installed snapshot or an
/// applied tail frame, carrying its new generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailAck {
    /// The follower's generation after the install/apply.
    pub generation: u64,
}

/// A liveness probe, and its echo. The supervisor sends one with its
/// view of the cluster epoch; a live node answers with the **same
/// frame kind** carrying its own node id, its fencing epoch (the
/// highest it has witnessed) and its shard-0 generation, so one
/// round-trip yields liveness *and* the state the failure detector
/// feeds on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// The probed/answering node.
    pub node: u16,
    /// Sender's cluster epoch (probe) or the node's fencing epoch
    /// (echo).
    pub epoch: u64,
    /// The answering node's shard generation (0 in a probe).
    pub generation: u64,
}

/// Every message the distributed plane exchanges.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → shard: answer this request.
    Submit(Submit),
    /// Shard → client: the answer.
    Reply(WireReply),
    /// Client → shard: apply this mutation (unstamped — the shard
    /// assigns the generation; travels as a genesis-stamped WAL frame
    /// behind the sender's cluster epoch, which the shard fences on).
    Mutate {
        /// The sender's cluster epoch. A node rejects any epoch lower
        /// than the highest it has witnessed (the fencing rule), so a
        /// stale leader partitioned away across a failover cannot
        /// mutate state after the cluster moved on.
        epoch: u64,
        /// The mutation to apply.
        mutation: CaseMutation,
    },
    /// Shard → client: mutation RPC result.
    MutateAck(MutateAck),
    /// Leader → follower: snapshot container window.
    SnapshotChunk(SnapshotChunk),
    /// Leader → follower: snapshot ship complete, install it.
    SnapshotDone(SnapshotDone),
    /// Leader → follower: one stamped WAL record (the exact log frame).
    TailFrame(StampedMutation),
    /// Follower → leader: snapshot installed / tail frame applied.
    TailAck(TailAck),
    /// Supervisor ↔ node: liveness probe / echo.
    Heartbeat(Heartbeat),
}

/// Appends a scalar as its little-endian word sequence, low word first
/// — which is the scalar's own little-endian bytes.
fn put_u32(bytes: &mut Vec<u8>, value: u32) {
    bytes.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(bytes: &mut Vec<u8>, value: u64) {
    bytes.extend_from_slice(&value.to_le_bytes());
}

/// Cursor over a received payload; every read is bounds-checked.
struct WordReader<P> {
    words: P,
    pos: usize,
}

impl<'a, P: Payload<'a>> WordReader<P> {
    fn new(words: P) -> WordReader<P> {
        WordReader { words, pos: 0 }
    }

    fn u16(&mut self) -> Result<u16, NetError> {
        let word = self
            .words
            .get(self.pos)
            .ok_or(NetError::Malformed("payload shorter than its layout"))?;
        self.pos += 1;
        Ok(word)
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        let lo = u32::from(self.u16()?);
        let hi = u32::from(self.u16()?);
        Ok(lo | (hi << 16))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        let mut value = 0u64;
        for shift in [0u32, 16, 32, 48] {
            value |= u64::from(self.u16()?) << shift;
        }
        Ok(value)
    }

    fn rest(self) -> P {
        self.words.tail(self.pos)
    }

    fn done(&self) -> Result<(), NetError> {
        if self.pos == self.words.len() {
            Ok(())
        } else {
            Err(NetError::Malformed("payload longer than its layout"))
        }
    }
}

fn class_word(class: QosClass) -> u16 {
    #[allow(clippy::cast_possible_truncation)]
    {
        class.index() as u16
    }
}

fn word_class(word: u16) -> Result<QosClass, NetError> {
    QosClass::ALL
        .get(usize::from(word))
        .copied()
        .ok_or(NetError::Malformed("unknown QoS class index"))
}

/// `ExecutionTarget` ↔ word, the same mapping the WAL records use:
/// `0`/`1`/`2` for the three named targets, `0x0100 | tag` for dedicated
/// devices.
fn target_word(target: ExecutionTarget) -> Result<u16, NetError> {
    match target {
        ExecutionTarget::Fpga => Ok(0),
        ExecutionTarget::Dsp => Ok(1),
        ExecutionTarget::GpProcessor => Ok(2),
        ExecutionTarget::Dedicated(tag) => Ok(0x0100 | u16::from(tag)),
        // `ExecutionTarget` is non_exhaustive; refuse rather than
        // mis-encode a target this protocol version does not know.
        _ => Err(NetError::Malformed("unencodable execution target")),
    }
}

fn word_target(word: u16) -> Result<ExecutionTarget, NetError> {
    match word {
        0 => Ok(ExecutionTarget::Fpga),
        1 => Ok(ExecutionTarget::Dsp),
        2 => Ok(ExecutionTarget::GpProcessor),
        w if w & 0xFF00 == 0x0100 => Ok(ExecutionTarget::Dedicated((w & 0xFF) as u8)),
        _ => Err(NetError::Malformed("unknown execution target word")),
    }
}

/// `CoreError` → `(code, [4 argument words])`, lossless for every
/// variant (the widest, `ValueOutOfBounds`, uses all four).
fn error_words(error: &CoreError) -> Result<(u16, [u16; 4]), NetError> {
    Ok(match error {
        CoreError::ReservedId { raw } => (1, [*raw, 0, 0, 0]),
        CoreError::DuplicateType { id } => (2, [id.raw(), 0, 0, 0]),
        CoreError::DuplicateImpl { type_id, impl_id } => {
            (3, [type_id.raw(), impl_id.raw(), 0, 0])
        }
        CoreError::DuplicateAttr { attr } => (4, [attr.raw(), 0, 0, 0]),
        CoreError::ValueOutOfBounds {
            attr,
            value,
            lower,
            upper,
        } => (5, [attr.raw(), *value, *lower, *upper]),
        CoreError::UndeclaredAttr { attr } => (6, [attr.raw(), 0, 0, 0]),
        CoreError::UnknownType { type_id } => (7, [type_id.raw(), 0, 0, 0]),
        CoreError::EmptyRequest => (8, [0; 4]),
        CoreError::EmptyType { type_id } => (9, [type_id.raw(), 0, 0, 0]),
        CoreError::InvalidWeights => (10, [0; 4]),
        CoreError::EmptyCaseBase => (11, [0; 4]),
        CoreError::UnknownImpl { type_id, impl_id } => {
            (12, [type_id.raw(), impl_id.raw(), 0, 0])
        }
        // Non_exhaustive source enum: refuse unknown future variants.
        _ => return Err(NetError::Malformed("unencodable core error")),
    })
}

fn words_error(code: u16, args: [u16; 4]) -> Result<CoreError, NetError> {
    let type_id = |raw: u16| TypeId::new(raw).map_err(NetError::Core);
    let attr_id = |raw: u16| AttrId::new(raw).map_err(NetError::Core);
    let impl_id = |raw: u16| ImplId::new(raw).map_err(NetError::Core);
    Ok(match code {
        1 => CoreError::ReservedId { raw: args[0] },
        2 => CoreError::DuplicateType { id: type_id(args[0])? },
        3 => CoreError::DuplicateImpl {
            type_id: type_id(args[0])?,
            impl_id: impl_id(args[1])?,
        },
        4 => CoreError::DuplicateAttr { attr: attr_id(args[0])? },
        5 => CoreError::ValueOutOfBounds {
            attr: attr_id(args[0])?,
            value: args[1],
            lower: args[2],
            upper: args[3],
        },
        6 => CoreError::UndeclaredAttr { attr: attr_id(args[0])? },
        7 => CoreError::UnknownType { type_id: type_id(args[0])? },
        8 => CoreError::EmptyRequest,
        9 => CoreError::EmptyType { type_id: type_id(args[0])? },
        10 => CoreError::InvalidWeights,
        11 => CoreError::EmptyCaseBase,
        12 => CoreError::UnknownImpl {
            type_id: type_id(args[0])?,
            impl_id: impl_id(args[1])?,
        },
        _ => return Err(NetError::Malformed("unknown error code")),
    })
}

/// UTF-8 string → length word, then the bytes two to a word (low byte
/// first, so in order), zero-padded to a whole word.
fn put_string(bytes: &mut Vec<u8>, text: &str) {
    let text = text.as_bytes();
    // Wire strings are diagnostics; cap them at the length field's range.
    let clipped = &text[..text.len().min(usize::from(u16::MAX))];
    #[allow(clippy::cast_possible_truncation)]
    put_word(bytes, clipped.len() as u16);
    bytes.extend_from_slice(clipped);
    if !clipped.len().is_multiple_of(2) {
        bytes.push(0);
    }
}

fn read_string<'a, P: Payload<'a>>(reader: &mut WordReader<P>) -> Result<String, NetError> {
    let len = usize::from(reader.u16()?);
    let mut bytes = Vec::with_capacity(len);
    for _ in 0..len.div_ceil(2) {
        let word = reader.u16()?;
        bytes.push((word & 0xFF) as u8);
        bytes.push((word >> 8) as u8);
    }
    bytes.truncate(len);
    String::from_utf8(bytes).map_err(|_| NetError::Malformed("wire string is not UTF-8"))
}

fn put_outcome(bytes: &mut Vec<u8>, outcome: &WireOutcome) -> Result<(), NetError> {
    match outcome {
        WireOutcome::Allocated {
            best,
            evaluated,
            cached,
        } => {
            put_word(bytes, 0);
            put_word(bytes, best.impl_id.raw());
            put_word(bytes, target_word(best.target)?);
            put_word(bytes, best.similarity.raw());
            put_u64(bytes, *evaluated);
            put_word(bytes, u16::from(*cached));
        }
        WireOutcome::ShedQueueFull => put_word(bytes, 1),
        WireOutcome::ShedDeadline => put_word(bytes, 2),
        WireOutcome::Failed(error) => {
            put_word(bytes, 3);
            let (code, args) = error_words(error)?;
            put_word(bytes, code);
            args.iter().for_each(|arg| put_word(bytes, *arg));
        }
        WireOutcome::Unavailable { attempts } => {
            put_word(bytes, 4);
            put_u32(bytes, *attempts);
        }
        WireOutcome::ShedPredicted { late_us } => {
            put_word(bytes, 5);
            put_u64(bytes, *late_us);
        }
    }
    Ok(())
}

fn read_outcome<'a, P: Payload<'a>>(reader: &mut WordReader<P>) -> Result<WireOutcome, NetError> {
    Ok(match reader.u16()? {
        0 => {
            let impl_id = ImplId::new(reader.u16()?).map_err(NetError::Core)?;
            let target = word_target(reader.u16()?)?;
            let similarity = Q15::saturating_from_raw(reader.u16()?);
            let evaluated = reader.u64()?;
            let cached = match reader.u16()? {
                0 => false,
                1 => true,
                _ => return Err(NetError::Malformed("cached flag out of range")),
            };
            WireOutcome::Allocated {
                best: Scored {
                    impl_id,
                    target,
                    similarity,
                },
                evaluated,
                cached,
            }
        }
        1 => WireOutcome::ShedQueueFull,
        2 => WireOutcome::ShedDeadline,
        3 => {
            let code = reader.u16()?;
            let args = [reader.u16()?, reader.u16()?, reader.u16()?, reader.u16()?];
            WireOutcome::Failed(words_error(code, args)?)
        }
        4 => WireOutcome::Unavailable {
            attempts: reader.u32()?,
        },
        5 => WireOutcome::ShedPredicted {
            late_us: reader.u64()?,
        },
        _ => return Err(NetError::Malformed("unknown outcome tag")),
    })
}

/// Appends a request as its Req-MEM image, word for word what
/// `rqfa_memlist::encode_request` builds: `[type id, (attr id, value,
/// weight)*, 0xFFFF]`.
fn put_request(bytes: &mut Vec<u8>, request: &Request) -> Result<(), NetError> {
    let words = predicted_request_words(request.constraints().len());
    if words > usize::from(u16::MAX) {
        return Err(MemError::ImageTooLarge { words }.into());
    }
    put_word(bytes, request.type_id().raw());
    for constraint in request.constraints() {
        put_word(bytes, constraint.attr.raw());
        put_word(bytes, constraint.value);
        put_word(bytes, constraint.weight_q15.raw());
    }
    put_word(bytes, END_MARKER);
    Ok(())
}

/// Appends a stamped mutation as its on-disk WAL frame (frames are
/// always an even number of bytes: whole words).
fn put_mutation(bytes: &mut Vec<u8>, stamped: &StampedMutation) -> Result<(), NetError> {
    let frame = rqfa_persist::encode_frame(stamped)?;
    bytes.extend_from_slice(&LeWords::new(&frame)?.to_bytes());
    Ok(())
}

fn read_mutation<'a, P: Payload<'a>>(words: P) -> Result<StampedMutation, NetError> {
    rqfa_persist::decode_frame(&words.to_bytes()).map_err(NetError::Persist)
}

/// The frame kind a message travels as.
fn kind_of(message: &Message) -> u16 {
    match message {
        Message::Submit(_) => KIND_SUBMIT,
        Message::Reply(_) => KIND_REPLY,
        Message::Mutate { .. } => KIND_MUTATE,
        Message::MutateAck(_) => KIND_MUTATE_ACK,
        Message::SnapshotChunk(_) => KIND_SNAPSHOT_CHUNK,
        Message::SnapshotDone(_) => KIND_SNAPSHOT_DONE,
        Message::TailFrame(_) => KIND_TAIL_FRAME,
        Message::TailAck(_) => KIND_TAIL_ACK,
        Message::Heartbeat(_) => KIND_HEARTBEAT,
    }
}

/// Appends a message's payload: each kind's fields, in wire order.
fn encode_payload(message: &Message, bytes: &mut Vec<u8>) -> Result<(), NetError> {
    match message {
        Message::Submit(submit) => {
            put_u64(bytes, submit.id);
            put_word(bytes, class_word(submit.class));
            put_word(bytes, u16::from(submit.deadline_us.is_some()));
            put_u64(bytes, submit.deadline_us.unwrap_or(0));
            put_request(bytes, &submit.request)?;
        }
        Message::Reply(reply) => {
            put_u64(bytes, reply.id);
            put_word(bytes, class_word(reply.class));
            put_u64(bytes, reply.latency_us);
            put_outcome(bytes, &reply.outcome)?;
        }
        Message::Mutate { epoch, mutation } => {
            // The sender's epoch leads the payload; the mutation itself
            // still travels as a genesis-stamped WAL frame (the serving
            // shard assigns the real generation), byte-identical to how
            // it would land on disk.
            put_u64(bytes, *epoch);
            let stamped = StampedMutation {
                generation: Generation::GENESIS,
                mutation: mutation.clone(),
            };
            put_mutation(bytes, &stamped)?;
        }
        Message::MutateAck(ack) => {
            put_u64(bytes, ack.generation);
            put_word(bytes, u16::from(ack.error.is_some()));
            if let Some(text) = &ack.error {
                put_string(bytes, text);
            }
        }
        Message::SnapshotChunk(chunk) => {
            put_u32(bytes, chunk.offset_words);
            bytes.reserve(chunk.words.len() * 2);
            chunk.words.iter().for_each(|word| put_word(bytes, *word));
        }
        Message::SnapshotDone(done) => {
            put_u64(bytes, done.generation);
            put_u32(bytes, done.total_words);
        }
        Message::TailFrame(stamped) => put_mutation(bytes, stamped)?,
        Message::TailAck(ack) => put_u64(bytes, ack.generation),
        Message::Heartbeat(beat) => {
            put_word(bytes, beat.node);
            put_u64(bytes, beat.epoch);
            put_u64(bytes, beat.generation);
        }
    }
    Ok(())
}

/// Reads a message from a payload of kind `kind`, wherever it lies: each
/// kind's fields, in wire order.
pub(crate) fn decode_payload<'a, P: Payload<'a>>(kind: u16, payload: P) -> Result<Message, NetError> {
    let mut reader = WordReader::new(payload);
    match kind {
        KIND_SUBMIT => {
            let id = reader.u64()?;
            let class = word_class(reader.u16()?)?;
            let has_deadline = reader.u16()?;
            let deadline = reader.u64()?;
            let deadline_us = match has_deadline {
                0 => None,
                1 => Some(deadline),
                _ => return Err(NetError::Malformed("deadline flag out of range")),
            };
            let request = decode_request_words(&reader.rest())?;
            Ok(Message::Submit(Submit {
                id,
                class,
                deadline_us,
                request,
            }))
        }
        KIND_REPLY => {
            let id = reader.u64()?;
            let class = word_class(reader.u16()?)?;
            let latency_us = reader.u64()?;
            let outcome = read_outcome(&mut reader)?;
            reader.done()?;
            Ok(Message::Reply(WireReply {
                id,
                class,
                outcome,
                latency_us,
            }))
        }
        KIND_MUTATE => {
            let epoch = reader.u64()?;
            let stamped = read_mutation(reader.rest())?;
            Ok(Message::Mutate {
                epoch,
                mutation: stamped.mutation,
            })
        }
        KIND_MUTATE_ACK => {
            let generation = reader.u64()?;
            let error = match reader.u16()? {
                0 => None,
                1 => Some(read_string(&mut reader)?),
                _ => return Err(NetError::Malformed("ack flag out of range")),
            };
            reader.done()?;
            Ok(Message::MutateAck(MutateAck { generation, error }))
        }
        KIND_SNAPSHOT_CHUNK => {
            let offset_words = reader.u32()?;
            Ok(Message::SnapshotChunk(SnapshotChunk {
                offset_words,
                words: reader.rest().to_words(),
            }))
        }
        KIND_SNAPSHOT_DONE => {
            let generation = reader.u64()?;
            let total_words = reader.u32()?;
            reader.done()?;
            Ok(Message::SnapshotDone(SnapshotDone {
                generation,
                total_words,
            }))
        }
        KIND_TAIL_FRAME => Ok(Message::TailFrame(read_mutation(reader.rest())?)),
        KIND_TAIL_ACK => {
            let generation = reader.u64()?;
            reader.done()?;
            Ok(Message::TailAck(TailAck { generation }))
        }
        KIND_HEARTBEAT => {
            let node = reader.u16()?;
            let epoch = reader.u64()?;
            let generation = reader.u64()?;
            reader.done()?;
            Ok(Message::Heartbeat(Heartbeat {
                node,
                epoch,
                generation,
            }))
        }
        _ => Err(NetError::Malformed("unknown message kind")),
    }
}

/// Writes one message as its complete frame into `bytes`, replacing
/// what was there.
pub(crate) fn write_message(bytes: &mut Vec<u8>, message: &Message) -> Result<(), NetError> {
    write_frame(bytes, kind_of(message), |bytes| encode_payload(message, bytes))
}

/// The capacity a frame's own vector starts with: the frames of the
/// request path (46–81 bytes) never regrow it.
const FRAME_RESERVE: usize = 128;

/// Encodes one message as its complete on-wire frame bytes.
///
/// # Errors
///
/// Encoding failures of the embedded images/frames, and
/// [`NetError::PayloadTooLarge`] for oversized payloads.
pub fn encode_message(message: &Message) -> Result<Vec<u8>, NetError> {
    let mut bytes = Vec::with_capacity(FRAME_RESERVE);
    write_message(&mut bytes, message)?;
    Ok(bytes)
}

/// Decodes a transport frame into its message.
///
/// # Errors
///
/// [`NetError::Malformed`] for unknown kinds and layout violations;
/// [`NetError::Core`] / [`NetError::Mem`] / [`NetError::Persist`] when
/// an embedded payload fails domain validation.
pub fn decode_message(frame: &Frame) -> Result<Message, NetError> {
    decode_payload(frame.kind, &frame.payload[..])
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::frame::{decode_frame, words_to_bytes};
    use rqfa_core::paper;
    use rqfa_memlist::{decode_request, encode_request};
    use rqfa_core::{AttrBinding, ImplVariant, Request};

    /// Deterministic xorshift64* for the seeded sweeps (no external RNG).
    pub(crate) struct TestRng(u64);

    impl TestRng {
        pub(crate) fn new(seed: u64) -> TestRng {
            TestRng(seed.max(1))
        }

        pub(crate) fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        pub(crate) fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound.max(1)
        }
    }

    fn random_request(rng: &mut TestRng) -> Request {
        let mut builder = Request::builder(TypeId::new(1 + rng.below(40) as u16).unwrap());
        let constraints = 1 + rng.below(5);
        for i in 0..constraints {
            builder = builder.weighted_constraint(
                AttrId::new(1 + i as u16).unwrap(),
                rng.below(1000) as u16,
                1.0 + rng.below(9) as f64,
            );
        }
        let request = builder.build().unwrap();
        // Canonicalize the float weights through one image hop: the wire
        // carries Q15 raws, so equality is defined on the quantized form
        // (which the hop reproduces exactly — quantization is idempotent).
        decode_request(&encode_request(&request).unwrap()).unwrap()
    }

    fn random_outcome(rng: &mut TestRng) -> WireOutcome {
        match rng.below(6) {
            0 => WireOutcome::Allocated {
                best: Scored {
                    impl_id: ImplId::new(1 + rng.below(100) as u16).unwrap(),
                    target: match rng.below(4) {
                        0 => ExecutionTarget::Fpga,
                        1 => ExecutionTarget::Dsp,
                        2 => ExecutionTarget::GpProcessor,
                        _ => ExecutionTarget::Dedicated(rng.below(200) as u8),
                    },
                    similarity: Q15::saturating_from_raw(rng.below(0x8001) as u16),
                },
                evaluated: rng.below(1 << 40),
                cached: rng.below(2) == 1,
            },
            1 => WireOutcome::ShedQueueFull,
            2 => WireOutcome::ShedDeadline,
            3 => WireOutcome::Failed(match rng.below(5) {
                0 => CoreError::UnknownType {
                    type_id: TypeId::new(7).unwrap(),
                },
                4 => CoreError::UnknownImpl {
                    type_id: TypeId::new(1 + rng.below(40) as u16).unwrap(),
                    impl_id: ImplId::new(1 + rng.below(100) as u16).unwrap(),
                },
                1 => CoreError::ValueOutOfBounds {
                    attr: AttrId::new(3).unwrap(),
                    value: rng.below(65_000) as u16,
                    lower: 1,
                    upper: 9,
                },
                2 => CoreError::EmptyRequest,
                _ => CoreError::InvalidWeights,
            }),
            4 => WireOutcome::Unavailable {
                attempts: rng.below(10) as u32 + 1,
            },
            _ => WireOutcome::ShedPredicted {
                late_us: rng.below(1 << 30),
            },
        }
    }

    fn random_mutation(rng: &mut TestRng) -> CaseMutation {
        let type_id = TypeId::new(1 + rng.below(30) as u16).unwrap();
        let impl_id = ImplId::new(1 + rng.below(30) as u16).unwrap();
        match rng.below(3) {
            0 => CaseMutation::Evict { type_id, impl_id },
            tag => {
                let variant = ImplVariant::new(
                    impl_id,
                    ExecutionTarget::Dsp,
                    vec![AttrBinding::new(
                        AttrId::new(1).unwrap(),
                        rng.below(500) as u16,
                    )],
                )
                .unwrap();
                if tag == 1 {
                    CaseMutation::Retain { type_id, variant }
                } else {
                    CaseMutation::Revise { type_id, variant }
                }
            }
        }
    }

    /// One of each RPC frame family, randomized by `rng`.
    pub(crate) fn random_messages(rng: &mut TestRng) -> Vec<Message> {
        vec![
            Message::Submit(Submit {
                id: rng.next(),
                class: QosClass::ALL[rng.below(4) as usize],
                deadline_us: (rng.below(2) == 1).then(|| rng.below(1 << 40)),
                request: random_request(rng),
            }),
            Message::Reply(WireReply {
                id: rng.next(),
                class: QosClass::ALL[rng.below(4) as usize],
                outcome: random_outcome(rng),
                latency_us: rng.below(1 << 40),
            }),
            Message::Mutate {
                epoch: rng.below(1 << 50),
                mutation: random_mutation(rng),
            },
            Message::MutateAck(MutateAck {
                generation: rng.below(1 << 50),
                error: (rng.below(2) == 1).then(|| "remote: case-base violation".to_string()),
            }),
            Message::SnapshotChunk(SnapshotChunk {
                offset_words: rng.below(1 << 20) as u32,
                words: (0..rng.below(64)).map(|_| rng.next() as u16).collect(),
            }),
            Message::SnapshotDone(SnapshotDone {
                generation: rng.below(1 << 50),
                total_words: rng.below(1 << 20) as u32,
            }),
            Message::TailFrame(StampedMutation {
                generation: Generation::from_raw(1 + rng.below(1 << 50)),
                mutation: random_mutation(rng),
            }),
            Message::TailAck(TailAck {
                generation: rng.below(1 << 50),
            }),
            Message::Heartbeat(Heartbeat {
                node: rng.below(1 << 16) as u16,
                epoch: rng.below(1 << 50),
                generation: rng.below(1 << 50),
            }),
        ]
    }

    /// Satellite: every RPC frame round-trips over 10 seeds, and a
    /// decoded `Submit` preserves the request fingerprint (the cache
    /// key) exactly — Q15 weights survive the word hop bit-for-bit.
    #[test]
    fn every_message_kind_round_trips_over_ten_seeds() {
        for seed in 1..=10u64 {
            let mut rng = TestRng::new(seed * 0x9E37_79B9);
            for message in random_messages(&mut rng) {
                let bytes = encode_message(&message).unwrap();
                let decoded = decode_message(&decode_frame(&bytes).unwrap()).unwrap();
                assert_eq!(decoded, message, "seed {seed}");
                if let (Message::Submit(sent), Message::Submit(back)) = (&message, &decoded) {
                    assert_eq!(
                        sent.request.fingerprint(),
                        back.request.fingerprint(),
                        "seed {seed}: fingerprint must survive the wire"
                    );
                }
            }
        }
    }

    /// Every `CoreError` variant survives the reply hop losslessly — the
    /// mutation path's `UnknownImpl` (code 12) next to the type-level
    /// `UnknownType` (code 7) it used to be reported as.
    #[test]
    fn every_core_error_round_trips() {
        let type_id = TypeId::new(7).unwrap();
        let impl_id = ImplId::new(9).unwrap();
        let attr = AttrId::new(3).unwrap();
        let errors = [
            CoreError::ReservedId { raw: 0xFFFF },
            CoreError::DuplicateType { id: type_id },
            CoreError::DuplicateImpl { type_id, impl_id },
            CoreError::DuplicateAttr { attr },
            CoreError::ValueOutOfBounds {
                attr,
                value: 40,
                lower: 1,
                upper: 9,
            },
            CoreError::UndeclaredAttr { attr },
            CoreError::UnknownType { type_id },
            CoreError::EmptyRequest,
            CoreError::EmptyType { type_id },
            CoreError::InvalidWeights,
            CoreError::EmptyCaseBase,
            CoreError::UnknownImpl { type_id, impl_id },
        ];
        for (index, error) in errors.into_iter().enumerate() {
            let (code, args) = error_words(&error).unwrap();
            assert_eq!(usize::from(code), index + 1, "codes are dense and stable");
            assert_eq!(words_error(code, args).unwrap(), error);
            let message = Message::Reply(WireReply {
                id: 1,
                class: QosClass::Low,
                outcome: WireOutcome::Failed(error),
                latency_us: 0,
            });
            let bytes = encode_message(&message).unwrap();
            assert_eq!(decode_message(&decode_frame(&bytes).unwrap()).unwrap(), message);
        }
        assert!(words_error(13, [0; 4]).is_err());
    }

    /// Satellite: every truncated prefix and every single-byte
    /// corruption of every valid frame is rejected with a clean error —
    /// the wire mirror of the torn-WAL sweep in `tests/persist_recovery.rs`.
    #[test]
    fn truncations_and_corruptions_never_decode() {
        let mut rng = TestRng::new(0xD157);
        for message in random_messages(&mut rng) {
            let bytes = encode_message(&message).unwrap();
            for cut in 0..bytes.len() {
                assert!(
                    decode_frame(&bytes[..cut]).is_err(),
                    "{message:?}: truncation to {cut} bytes must be rejected"
                );
            }
            for at in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[at] ^= 1 << (at % 8);
                // A flipped bit must fail at the frame layer; it can
                // never surface as a *different valid message*.
                assert!(
                    decode_frame(&bad).is_err(),
                    "{message:?}: bit flip at byte {at} must be rejected"
                );
            }
        }
    }

    // The frames of every message kind as the commit before the in-place
    // codec emitted them (`encode_message`, then: a `Vec<u16>` image per
    // message, copied into a frame). The wire did not change by a bit.
    const SUBMIT: &[u8] = &[
        0xf7, 0xcb, 0x01, 0x00, 0x15, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0xc4, 0x09, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x10, 0x00, 0xab, 0x2a, 0x03, 0x00,
        0x01, 0x00, 0xab, 0x2a, 0x04, 0x00, 0x28, 0x00, 0xaa, 0x2a, 0xff, 0xff,
        0x1c, 0x46, 0x21, 0xe5,
    ];
    const REPLY_ALLOCATED: &[u8] = &[
        0xf7, 0xcb, 0x02, 0x00, 0x12, 0x00, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03,
        0x02, 0x01, 0x02, 0x00, 0xe2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x02, 0x00, 0x09, 0x01, 0xbc, 0x7a, 0x03, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x28, 0xb7, 0x0d, 0xba,
    ];
    const REPLY_SHED_QUEUE_FULL: &[u8] = &[
        0xf7, 0xcb, 0x02, 0x00, 0x0a, 0x00, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03,
        0x02, 0x01, 0x02, 0x00, 0xe2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x17, 0xfc, 0xb1, 0xa2,
    ];
    const REPLY_SHED_DEADLINE: &[u8] = &[
        0xf7, 0xcb, 0x02, 0x00, 0x0a, 0x00, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03,
        0x02, 0x01, 0x02, 0x00, 0xe2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x02, 0x00, 0xd4, 0xaf, 0x9c, 0x89,
    ];
    const REPLY_FAILED: &[u8] = &[
        0xf7, 0xcb, 0x02, 0x00, 0x0f, 0x00, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03,
        0x02, 0x01, 0x02, 0x00, 0xe2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x03, 0x00, 0x05, 0x00, 0x03, 0x00, 0x28, 0x00, 0x01, 0x00, 0x09, 0x00,
        0xd8, 0xc0, 0x1e, 0x1a,
    ];
    const REPLY_UNAVAILABLE: &[u8] = &[
        0xf7, 0xcb, 0x02, 0x00, 0x0c, 0x00, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03,
        0x02, 0x01, 0x02, 0x00, 0xe2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x04, 0x00, 0x03, 0x00, 0x00, 0x00, 0x5f, 0x84, 0xf4, 0xe8,
    ];
    const REPLY_SHED_PREDICTED: &[u8] = &[
        0xf7, 0xcb, 0x02, 0x00, 0x0e, 0x00, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03,
        0x02, 0x01, 0x02, 0x00, 0xe2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x05, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x71, 0xf0,
        0x8d, 0xe7,
    ];
    const HEARTBEAT: &[u8] = &[
        0xf7, 0xcb, 0x09, 0x00, 0x09, 0x00, 0x02, 0x00, 0x05, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, 0x00, 0x00,
        0x86, 0x7e, 0x7d, 0x5d,
    ];
    const MUTATE: &[u8] = &[
        0xf7, 0xcb, 0x03, 0x00, 0x10, 0x00, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x1c, 0xcb, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x03, 0x00, 0x03, 0x00, 0x02, 0x00, 0x03, 0x00, 0xff, 0xff, 0xb7, 0x6f,
        0xf8, 0xe3, 0xdc, 0x25, 0xa0, 0x57,
    ];
    const MUTATE_ACK_OK: &[u8] = &[
        0xf7, 0xcb, 0x04, 0x00, 0x05, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x06, 0xaa, 0xa1, 0xac,
    ];
    const MUTATE_ACK_ERROR: &[u8] = &[
        0xf7, 0xcb, 0x04, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x07, 0x00, 0x66, 0x65, 0x6e, 0x63, 0x65, 0x64,
        0x21, 0x00, 0x0e, 0x34, 0x72, 0xc8,
    ];
    const SNAPSHOT_CHUNK: &[u8] = &[
        0xf7, 0xcb, 0x05, 0x00, 0x05, 0x00, 0x02, 0x00, 0x01, 0x00, 0xa5, 0xa5,
        0x00, 0x00, 0xff, 0xff, 0x5d, 0x32, 0xd4, 0x4a,
    ];
    const SNAPSHOT_DONE: &[u8] = &[
        0xf7, 0xcb, 0x06, 0x00, 0x06, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x04, 0x00, 0x03, 0x00, 0xec, 0x96, 0xa1, 0xe0,
    ];
    const TAIL_FRAME: &[u8] = &[
        0xf7, 0xcb, 0x07, 0x00, 0x0c, 0x00, 0x1c, 0xcb, 0x2a, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x03, 0x00, 0x02, 0x00, 0x03, 0x00,
        0xff, 0xff, 0x08, 0x12, 0x3b, 0xac, 0xb3, 0xdd, 0xcb, 0xce,
    ];
    const TAIL_ACK: &[u8] = &[
        0xf7, 0xcb, 0x08, 0x00, 0x04, 0x00, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x75, 0x6e, 0x84, 0x1c,
    ];

    /// Each golden frame with the message it carries.
    fn golden_frames() -> Vec<(&'static [u8], Message)> {
        let reply = |outcome| {
            Message::Reply(WireReply {
                id: 0x0102_0304_0506_0708,
                class: QosClass::Medium,
                outcome,
                latency_us: 1_250,
            })
        };
        let evict = CaseMutation::Evict {
            type_id: TypeId::new(2).unwrap(),
            impl_id: ImplId::new(3).unwrap(),
        };
        vec![
            (
                SUBMIT,
                Message::Submit(Submit {
                    id: 7,
                    class: QosClass::High,
                    deadline_us: Some(2_500),
                    // Table 1's request as a decoder knows it: its real
                    // weights are the weight words', not the thirds'.
                    request: decode_request(
                        &encode_request(&paper::table1_request().unwrap()).unwrap(),
                    )
                    .unwrap(),
                }),
            ),
            (
                REPLY_ALLOCATED,
                reply(WireOutcome::Allocated {
                    best: Scored {
                        impl_id: ImplId::new(2).unwrap(),
                        target: ExecutionTarget::Dedicated(9),
                        similarity: Q15::saturating_from_raw(0x7ABC),
                    },
                    evaluated: 3,
                    cached: true,
                }),
            ),
            (REPLY_SHED_QUEUE_FULL, reply(WireOutcome::ShedQueueFull)),
            (REPLY_SHED_DEADLINE, reply(WireOutcome::ShedDeadline)),
            (
                REPLY_FAILED,
                reply(WireOutcome::Failed(CoreError::ValueOutOfBounds {
                    attr: AttrId::new(3).unwrap(),
                    value: 40,
                    lower: 1,
                    upper: 9,
                })),
            ),
            (REPLY_UNAVAILABLE, reply(WireOutcome::Unavailable { attempts: 3 })),
            (
                REPLY_SHED_PREDICTED,
                reply(WireOutcome::ShedPredicted {
                    late_us: 0x1_0000_0001,
                }),
            ),
            (
                HEARTBEAT,
                Message::Heartbeat(Heartbeat {
                    node: 2,
                    epoch: 5,
                    generation: 0x0123_4567_89AB,
                }),
            ),
            (
                MUTATE,
                Message::Mutate {
                    epoch: 6,
                    mutation: evict.clone(),
                },
            ),
            (
                MUTATE_ACK_OK,
                Message::MutateAck(MutateAck {
                    generation: 9,
                    error: None,
                }),
            ),
            (
                MUTATE_ACK_ERROR,
                Message::MutateAck(MutateAck {
                    generation: 0,
                    // An odd length: the last word is half padding.
                    error: Some("fenced!".to_string()),
                }),
            ),
            (
                SNAPSHOT_CHUNK,
                Message::SnapshotChunk(SnapshotChunk {
                    offset_words: 0x0001_0002,
                    words: vec![0xA5A5, 0, 0xFFFF],
                }),
            ),
            (
                SNAPSHOT_DONE,
                Message::SnapshotDone(SnapshotDone {
                    generation: 4,
                    total_words: 0x0003_0004,
                }),
            ),
            (
                TAIL_FRAME,
                Message::TailFrame(StampedMutation {
                    generation: Generation::from_raw(42),
                    mutation: evict,
                }),
            ),
            (TAIL_ACK, Message::TailAck(TailAck { generation: 42 })),
        ]
    }

    #[test]
    fn every_message_kind_travels_as_its_golden_frame() {
        use std::io::Cursor;
        for (golden, message) in golden_frames() {
            assert_eq!(encode_message(&message).unwrap(), golden, "{message:?}");
            assert_eq!(decode_message(&decode_frame(golden).unwrap()).unwrap(), message);
            // A connection emits the same bytes from its send buffer and
            // reads the same message out of its receive buffer — warm
            // buffers, that held another frame before, included.
            let mut conn = crate::FrameConn::new(Cursor::new(Vec::new()));
            for _ in 0..2 {
                conn.send(&Message::TailAck(TailAck { generation: u64::MAX })).unwrap();
                let at = conn.get_ref().get_ref().len();
                assert_eq!(conn.send(&message).unwrap(), golden.len());
                assert_eq!(&conn.get_ref().get_ref()[at..], golden, "{message:?}");
            }
            let mut conn = crate::FrameConn::new(Cursor::new([TAIL_ACK, golden, golden].concat()));
            conn.recv().unwrap();
            for _ in 0..2 {
                assert_eq!(conn.recv().unwrap(), (message.clone(), golden.len()));
            }
        }
    }

    /// `rqfa_memlist::encode_request` is the independent oracle for the
    /// request words a `Submit` writes in place.
    #[test]
    fn a_submit_carries_exactly_the_words_encode_request_builds() {
        for seed in 1..=200u64 {
            let mut rng = TestRng::new(seed * 0x9E37_79B9);
            let request = random_request(&mut rng);
            for send in [false, true] {
                let message = Message::Submit(Submit {
                    id: rng.next(),
                    class: QosClass::ALL[rng.below(4) as usize],
                    deadline_us: (rng.below(2) == 1).then(|| rng.below(1 << 40)),
                    request: request.clone(),
                });
                let bytes = if send {
                    let mut conn = crate::FrameConn::new(std::io::Cursor::new(Vec::new()));
                    conn.send(&message).unwrap();
                    conn.get_ref().get_ref().clone()
                } else {
                    encode_message(&message).unwrap()
                };
                let frame = decode_frame(&bytes).unwrap();
                let image = encode_request(&request).unwrap();
                assert_eq!(&frame.payload[10..], image.image().words(), "seed {seed}");
            }
        }
    }

    #[test]
    fn paper_request_travels_as_its_req_mem_image() {
        let request = paper::table1_request().unwrap();
        let message = Message::Submit(Submit {
            id: 7,
            class: QosClass::High,
            deadline_us: None,
            request: request.clone(),
        });
        let bytes = encode_message(&message).unwrap();
        let frame = decode_frame(&bytes).unwrap();
        // Header scalars (id 4 + class 1 + deadline 5) then the verbatim
        // 11-word Req-MEM image of the paper's example.
        let image = encode_request(&request).unwrap();
        assert_eq!(&frame.payload[10..], image.image().words());
    }

    #[test]
    fn mutation_payload_is_the_exact_wal_frame() {
        let stamped = StampedMutation {
            generation: Generation::from_raw(42),
            mutation: CaseMutation::Evict {
                type_id: TypeId::new(2).unwrap(),
                impl_id: ImplId::new(3).unwrap(),
            },
        };
        let bytes = encode_message(&Message::TailFrame(stamped.clone())).unwrap();
        let frame = decode_frame(&bytes).unwrap();
        let wal_frame = rqfa_persist::encode_frame(&stamped).unwrap();
        assert_eq!(words_to_bytes(&frame.payload), wal_frame);
    }

    #[test]
    fn mutate_payload_is_the_epoch_then_the_exact_wal_frame() {
        let mutation = CaseMutation::Evict {
            type_id: TypeId::new(2).unwrap(),
            impl_id: ImplId::new(3).unwrap(),
        };
        let bytes = encode_message(&Message::Mutate {
            epoch: 0x0102_0304_0506_0708,
            mutation: mutation.clone(),
        })
        .unwrap();
        let frame = decode_frame(&bytes).unwrap();
        // Words 0..4: the fencing epoch, low word first.
        assert_eq!(&frame.payload[..4], &[0x0708, 0x0506, 0x0304, 0x0102]);
        // The rest: the genesis-stamped mutation, byte-identical to its
        // on-disk WAL frame.
        let stamped = StampedMutation {
            generation: Generation::GENESIS,
            mutation,
        };
        let wal_frame = rqfa_persist::encode_frame(&stamped).unwrap();
        assert_eq!(words_to_bytes(&frame.payload[4..]), wal_frame);
    }
}
