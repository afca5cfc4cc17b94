//! Framed connections over byte streams, with timeouts and bounded
//! retry policy.
//!
//! [`FrameConn`] turns any `Read + Write` stream (a TCP socket, an
//! in-memory pipe, a [`crate::FaultyStream`] wrapper) into a
//! message-at-a-time channel. A send is **one** `write_all` of the whole
//! frame, so byte-level fault injectors observe frame boundaries; a
//! receive hands out exactly one frame and rejects anything damaged, but
//! *reads ahead*: each `read` takes whatever the stream has, and what
//! lies behind the frame handed out — the head of the next frame, or
//! several whole ones — waits in the connection's buffer for the next
//! receive. A frame costs one `read`, not one for its header and one for
//! its body.
//!
//! Both directions run the one codec of [`crate::wire`] where the bytes
//! lie: a send writes header, fields and CRC straight into the
//! connection's send buffer, a receive checks the frame in the read-ahead
//! buffer and reads the message's fields from its little-endian bytes.
//! Neither buffer is given back between frames, so a warm connection
//! allocates only what the decoded message itself owns.
//!
//! The transport never hangs and never spins: socket timeouts bound
//! every read ([`connect_loopback`] arms them), and [`RetryPolicy`]
//! bounds reconnect attempts with doubling backoff. When the budget is
//! exhausted the caller surfaces the failure as an explicit outcome
//! (the service layer's `Outcome::Unavailable`), not a stall.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::error::NetError;
use crate::frame::{check_frame, parse_header, HEADER_BYTES};
use crate::wire::{decode_payload, write_message, Message};

/// The least a `read` is offered: several of the 46–81-byte frames the
/// request path exchanges. A larger frame grows the buffer toward its
/// size as its bytes arrive.
const READ_AHEAD_BYTES: usize = 512;

/// A message-framed connection over any byte stream.
#[derive(Debug)]
pub struct FrameConn<S> {
    stream: S,
    /// Bytes read and not yet handed out: `buffer[..filled]`, the frame
    /// being received at the front. They live here, not in `recv`, so a
    /// read timeout inside a frame loses nothing (and no frame costs a
    /// buffer of its own).
    buffer: Vec<u8>,
    filled: usize,
    /// The frame being sent, written here and sent from here.
    outgoing: Vec<u8>,
}

impl<S: Read + Write> FrameConn<S> {
    /// Wraps a stream.
    pub fn new(stream: S) -> FrameConn<S> {
        FrameConn {
            stream,
            buffer: Vec::new(),
            filled: 0,
            outgoing: Vec::new(),
        }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Sends one message as a single frame write.
    ///
    /// # Errors
    ///
    /// Encoding failures and stream I/O errors.
    pub fn send(&mut self, message: &Message) -> Result<usize, NetError> {
        write_message(&mut self.outgoing, message)?;
        // One write call for the whole frame: fault injectors act on
        // frame boundaries, and a peer never sees a half-written header
        // interleaved with another thread's frame.
        self.stream.write_all(&self.outgoing)?;
        self.stream.flush()?;
        Ok(self.outgoing.len())
    }

    /// Receives exactly one message, or fails cleanly.
    ///
    /// Returns the decoded message and the frame's size in bytes. Reads
    /// only if the buffer does not already hold a whole frame.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] when the socket's read timeout elapses —
    /// whatever had arrived is kept, so calling again resumes where the
    /// read stopped; [`NetError::Truncated`] when the peer closes
    /// mid-frame, and the frame/wire decode errors for damaged bytes.
    /// After any error but a timeout the stream is desynchronized —
    /// there is no way to find the next boundary — and the connection is
    /// unusable.
    pub fn recv(&mut self) -> Result<(Message, usize), NetError> {
        let bytes = loop {
            match parse_header(&self.buffer[..self.filled])? {
                Some((_, bytes)) if bytes <= self.filled => break bytes,
                header => self.read_ahead(header.map_or(HEADER_BYTES, |(_, bytes)| bytes))?,
            }
        };
        let decoded = check_frame(&self.buffer[..bytes])
            .and_then(|(kind, payload)| decode_payload(kind, payload));
        // Whatever the decoders say, this frame's bytes are consumed;
        // the surplus moves to the front.
        self.buffer.copy_within(bytes..self.filled, 0);
        self.filled -= bytes;
        Ok((decoded?, bytes))
    }

    /// One `read` of whatever the stream has, into a buffer with room
    /// for more than `filled` and up to `wanted` bytes in all. The room
    /// grows with what has arrived, at most to `2 × filled +`
    /// [`READ_AHEAD_BYTES`]: a header announcing a frame its peer never
    /// sends reserves nothing it has not paid for in bytes.
    fn read_ahead(&mut self, wanted: usize) -> Result<(), NetError> {
        let room = wanted
            .min(2 * self.filled + READ_AHEAD_BYTES)
            .max(READ_AHEAD_BYTES);
        if self.buffer.len() < room {
            self.buffer.resize(room, 0);
        }
        loop {
            match self.stream.read(&mut self.buffer[self.filled..]) {
                Ok(0) => return Err(NetError::Truncated),
                Ok(n) => {
                    self.filled += n;
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Connects to a (loopback) address with a connect timeout, then arms
/// the same timeout on every read and write of the socket so a lost
/// peer can never hang the caller.
///
/// The timeout bounds the connect in **both** directions. A slow or
/// black-holed target is cut off by the OS-level connect timeout as
/// before; a *refused or unreachable* target — which the OS reports
/// instantly — is retried until the deadline instead of surfacing the
/// refusal immediately. That makes the timeout a genuine wait budget: a
/// node that is mid-restart (failover races, a promoted server that has
/// not bound yet) gets the whole window to start listening, and the
/// caller learns `NetError::Timeout` after exactly its budget, never an
/// instant refusal storm.
///
/// # Errors
///
/// [`NetError::Timeout`] when no connection is established within
/// `timeout`; other connection and timeout-arming failures as
/// [`NetError`].
pub fn connect_loopback(addr: SocketAddr, timeout: Duration) -> Result<TcpStream, NetError> {
    const REFUSED_POLL: Duration = Duration::from_millis(2);
    let deadline = std::time::Instant::now() + timeout;
    loop {
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        if remaining.is_zero() {
            return Err(NetError::Timeout);
        }
        match TcpStream::connect_timeout(&addr, remaining) {
            Ok(stream) => {
                stream.set_read_timeout(Some(timeout))?;
                stream.set_write_timeout(Some(timeout))?;
                stream.set_nodelay(true)?;
                return Ok(stream);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionRefused
                        | std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::HostUnreachable
                        | std::io::ErrorKind::NetworkUnreachable
                ) =>
            {
                std::thread::sleep(REFUSED_POLL.min(remaining));
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// A bounded reconnect-and-retry budget with doubling backoff and
/// optional deterministic per-client jitter.
///
/// `attempts` caps how many times an operation is tried in total;
/// `backoff(n)` gives the pause before attempt `n` (0-based), doubling
/// each round from `base_backoff`. Exhaustion is a *result* — the
/// service layer reports it as `Outcome::Unavailable { attempts }` — so
/// a dead node degrades one request, never the caller's liveness.
///
/// With a non-zero `jitter_seed`, each backoff is stretched by a
/// seed-and-attempt-derived fraction in `[0, 1/2]` of the pure doubling
/// pause, so a fleet of clients retrying against one recovering node
/// desynchronizes instead of hammering it in lockstep. The jitter is a
/// pure function of `(jitter_seed, attempt)` — seed it from a stable
/// client id and replays stay bit-identical. Seed 0 (the default)
/// disables jitter entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts before giving up (≥ 1).
    pub attempts: u32,
    /// Pause before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Deterministic jitter seed (0 = no jitter). Seed per client id so
    /// concurrent clients spread out without losing replayability.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// A policy suited to loopback tests: 3 attempts, 1 ms base backoff,
    /// no jitter.
    pub const fn loopback() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_millis(1),
            jitter_seed: 0,
        }
    }

    /// The same policy with deterministic backoff jitter seeded from
    /// `seed` (a stable per-client id; 0 disables jitter).
    pub const fn with_jitter(mut self, seed: u64) -> RetryPolicy {
        self.jitter_seed = seed;
        self
    }

    /// Hard ceiling on any single backoff pause. Doubling from any
    /// `base_backoff` clamps here instead of growing without bound — a
    /// retry loop must degrade one request, not park a caller for hours.
    pub const MAX_BACKOFF: Duration = Duration::from_secs(30);

    /// The pause before 0-based attempt `attempt` (zero before the
    /// first), clamped to [`RetryPolicy::MAX_BACKOFF`]. With a non-zero
    /// `jitter_seed`, a deterministic per-`(seed, attempt)` stretch of
    /// up to half the pure pause is added before clamping.
    pub fn backoff(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        // Saturate both the doubling factor and the multiply: a
        // large configured `base_backoff` used to hit the panicking
        // `Duration * u32` overflow around attempt 16; now it pins
        // to the cap instead.
        let pure = self
            .base_backoff
            .saturating_mul(2u32.saturating_pow(attempt.min(16) - 1))
            .min(RetryPolicy::MAX_BACKOFF);
        if self.jitter_seed == 0 {
            return pure;
        }
        // splitmix64 over (seed, attempt): uniformly spread, stateless,
        // bit-identical across replays.
        let mut z = self
            .jitter_seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // jitter = (pure / 2) × (z mod 1025) / 1024 ∈ [0, pure / 2];
        // pure / 2 ≤ 15 s, so the integer scaling cannot overflow.
        #[allow(clippy::cast_possible_truncation)]
        let num = (z % 1025) as u32;
        let jitter = (pure / 2).saturating_mul(num) / 1024;
        pure.saturating_add(jitter).min(RetryPolicy::MAX_BACKOFF)
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::loopback()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FRAME_MAGIC, TRAILER_WORDS};
    use crate::wire::tests::{random_messages, TestRng};
    use crate::wire::{encode_message, TailAck};
    use rqfa_memlist::WordSink;
    use std::io::Cursor;

    /// An in-memory duplex: everything written is readable back.
    #[derive(Default)]
    struct Loop {
        buf: Cursor<Vec<u8>>,
    }

    impl Read for Loop {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.buf.read(out)
        }
    }

    impl Write for Loop {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            let pos = self.buf.position();
            self.buf.set_position(self.buf.get_ref().len() as u64);
            let n = self.buf.write(data)?;
            self.buf.set_position(pos);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn send_then_recv_round_trips() {
        let mut conn = FrameConn::new(Loop::default());
        let message = Message::TailAck(TailAck { generation: 99 });
        let sent = conn.send(&message).unwrap();
        let (back, received) = conn.recv().unwrap();
        assert_eq!(back, message);
        assert_eq!(sent, received);
    }

    #[test]
    fn eof_mid_frame_is_truncated() {
        let mut conn = FrameConn::new(Loop::default());
        conn.send(&Message::TailAck(TailAck { generation: 1 })).unwrap();
        // Chop the readable bytes mid-frame.
        let inner = conn.get_ref().buf.get_ref().clone();
        let cut = Loop {
            buf: Cursor::new(inner[..inner.len() - 3].to_vec()),
        };
        let mut torn = FrameConn::new(cut);
        assert!(matches!(torn.recv(), Err(NetError::Truncated)));
    }

    /// A socket that has every byte of `bytes` ready, except that the
    /// read reaching offset `timeout_at` stops there and the next one
    /// times out, once. Counts the `read` calls made.
    struct Trickle {
        bytes: Cursor<Vec<u8>>,
        timeout_at: Option<usize>,
        reads: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let at = usize::try_from(self.bytes.position()).unwrap();
            match self.timeout_at {
                Some(stop) if stop == at => {
                    self.timeout_at = None;
                    Err(std::io::ErrorKind::TimedOut.into())
                }
                Some(stop) if (at..at + out.len()).contains(&stop) => {
                    self.bytes.read(&mut out[..stop - at])
                }
                _ => self.bytes.read(out),
            }
        }
    }

    impl Write for Trickle {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            unreachable!("receive-only")
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn ack(generation: u64) -> Message {
        Message::TailAck(TailAck { generation })
    }

    #[test]
    fn recv_resumes_after_a_timeout_at_every_byte_offset() {
        // The node polls with a 25 ms read timeout; a frame that trickles
        // in across one used to lose the bytes already read, and the next
        // call parsed the frame's tail as a header.
        let mut bytes = encode_message(&ack(7)).unwrap();
        let frame = bytes.len();
        bytes.extend(encode_message(&ack(8)).unwrap());
        // Offset 0 is an idle poll and `frame` the gap between the two
        // frames; the others split a header or a body, of the first
        // frame or of the one read ahead.
        for timeout_at in (0..bytes.len()).map(Some).chain([None]) {
            let mut conn = FrameConn::new(Trickle {
                bytes: Cursor::new(bytes.clone()),
                timeout_at,
                reads: 0,
            });
            let mut timeouts = 0;
            for generation in [7, 8] {
                let received = loop {
                    match conn.recv() {
                        Err(NetError::Timeout) => timeouts += 1,
                        other => break other.unwrap(),
                    }
                };
                assert_eq!(received, (ack(generation), frame), "{timeout_at:?}");
            }
            assert_eq!(timeouts, usize::from(timeout_at.is_some()), "{timeout_at:?}");
            // Two ready frames are one `read`; a timeout adds itself and
            // the second half of the read it split.
            let expected = match timeout_at {
                None => 1,
                // Before the first byte there is nothing to split.
                Some(0) => 2,
                Some(_) => 3,
            };
            assert_eq!(conn.get_ref().reads, expected, "{timeout_at:?}");
        }
    }

    /// A socket that delivers `bytes` in reads of the given sizes.
    struct Chunks {
        bytes: Cursor<Vec<u8>>,
        sizes: std::vec::IntoIter<usize>,
    }

    impl Read for Chunks {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let size = self.sizes.next().expect("no read beyond the scripted ones");
            assert!(size <= out.len(), "the buffer takes what the socket has");
            self.bytes.read(&mut out[..size])
        }
    }

    impl Write for Chunks {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            unreachable!("receive-only")
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn chunked(messages: &[Message], sizes: Vec<usize>) -> FrameConn<Chunks> {
        let bytes: Vec<u8> = messages
            .iter()
            .flat_map(|message| encode_message(message).unwrap())
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), bytes.len());
        FrameConn::new(Chunks {
            bytes: Cursor::new(bytes),
            sizes: sizes.into_iter(),
        })
    }

    #[test]
    fn a_frame_and_a_half_in_one_read_keeps_the_half_for_the_next() {
        let frame = encode_message(&ack(1)).unwrap().len();
        for half in 1..frame {
            let mut conn = chunked(&[ack(1), ack(2)], vec![frame + half, frame - half]);
            assert_eq!(conn.recv().unwrap(), (ack(1), frame), "{half}");
            assert_eq!(conn.recv().unwrap(), (ack(2), frame), "{half}");
        }
    }

    #[test]
    fn three_frames_in_one_read_cost_one_read() {
        // Frames of different sizes, so a surplus moved to the wrong
        // place could not decode.
        let messages = [
            ack(1),
            Message::Heartbeat(crate::wire::Heartbeat {
                node: 3,
                epoch: 4,
                generation: 5,
            }),
            ack(2),
        ];
        let total = messages
            .iter()
            .map(|message| encode_message(message).unwrap().len())
            .sum();
        let mut conn = chunked(&messages, vec![total]);
        for message in &messages {
            assert_eq!(&conn.recv().unwrap().0, message);
        }
        // Drained: the next receive reads again, and finds the peer gone.
        conn.stream.sizes = vec![0].into_iter();
        assert!(matches!(conn.recv(), Err(NetError::Truncated)));
    }

    #[test]
    fn a_frame_larger_than_the_read_ahead_grows_the_buffer() {
        let big = Message::SnapshotChunk(crate::wire::SnapshotChunk {
            offset_words: 0,
            words: vec![0xA5A5; READ_AHEAD_BYTES],
        });
        let bytes = encode_message(&big).unwrap().len();
        assert!(bytes > 2 * READ_AHEAD_BYTES);
        let small = encode_message(&ack(9)).unwrap().len();
        // The header arrives in a first, full read; the buffer then has
        // room for the rest of the frame it announces.
        let mut conn = chunked(
            &[big.clone(), ack(9)],
            vec![READ_AHEAD_BYTES, bytes - READ_AHEAD_BYTES, small],
        );
        assert_eq!(conn.recv().unwrap(), (big, bytes));
        assert_eq!(conn.recv().unwrap(), (ack(9), small));
    }

    #[test]
    fn a_header_announcing_a_maximal_frame_reserves_no_buffer_for_it() {
        // Magic, kind, 65 535 payload words: a 131 080-byte frame, of
        // which only the header ever arrives before the read times out.
        let mut header = Vec::new();
        header.put_words(&[FRAME_MAGIC, 1, u16::MAX]);
        let mut conn = FrameConn::new(Trickle {
            bytes: Cursor::new(header),
            timeout_at: Some(HEADER_BYTES),
            reads: 0,
        });
        assert!(matches!(conn.recv(), Err(NetError::Timeout)));
        assert_eq!(conn.filled, HEADER_BYTES);
        let reserved = conn.buffer.len();
        assert!(reserved < 1024, "{reserved} bytes reserved");
    }

    /// A socket that has `bytes` and then ends, delivering them in reads
    /// of seeded sizes — a byte at a time up to several frames at once —
    /// with a seeded share of the reads timing out first.
    struct Hostile {
        bytes: Cursor<Vec<u8>>,
        rng: TestRng,
        most: u64,
    }

    impl Read for Hostile {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.rng.below(6) == 0 {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            let size = (1 + self.rng.below(self.most) as usize).min(out.len());
            self.bytes.read(&mut out[..size])
        }
    }

    impl Write for Hostile {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            unreachable!("receive-only")
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// What a connection must hand out for `bytes`, receive by receive,
    /// up to and including the error that ends the stream — by the
    /// allocating entries over one frame at a time, with no buffer to get
    /// wrong — and the largest frame any header along the way declares.
    fn expected(bytes: &[u8]) -> (Vec<String>, usize) {
        let mut results = Vec::new();
        let mut declared = 0;
        let mut rest = bytes;
        let ended = |mut results: Vec<String>, declared, error: NetError| {
            results.push(format!("{:?}", Err::<(Message, usize), _>(error)));
            (results, declared)
        };
        loop {
            let Some(header) = rest.first_chunk::<HEADER_BYTES>() else {
                return ended(results, declared, NetError::Truncated);
            };
            let magic = u16::from_le_bytes([header[0], header[1]]);
            if magic != FRAME_MAGIC {
                return ended(results, declared, NetError::BadMagic { found: magic });
            }
            let len = usize::from(u16::from_le_bytes([header[4], header[5]]));
            let frame = HEADER_BYTES + (len + TRAILER_WORDS) * 2;
            declared = declared.max(frame);
            if rest.len() < frame {
                return ended(results, declared, NetError::Truncated);
            }
            let decoded = crate::frame::decode_frame(&rest[..frame])
                .and_then(|frame| crate::wire::decode_message(&frame));
            results.push(format!("{:?}", decoded.map(|message| (message, frame))));
            rest = &rest[frame..];
        }
    }

    /// Receives `bytes` through a hostile socket until the stream ends,
    /// checking every receive against [`expected`] and the buffer against
    /// the largest frame a header declared. Returns the results.
    fn receive_hostile(bytes: &[u8], seed: u64, context: &str) -> Vec<String> {
        let (expected, declared) = expected(bytes);
        let mut rng = TestRng::new(seed);
        let most = [1, 7, 64, 700][rng.below(4) as usize];
        let mut conn = FrameConn::new(Hostile {
            bytes: Cursor::new(bytes.to_vec()),
            rng,
            most,
        });
        for (step, want) in expected.iter().enumerate() {
            let found = loop {
                match conn.recv() {
                    Err(NetError::Timeout) => {}
                    other => break format!("{other:?}"),
                }
            };
            assert_eq!(&found, want, "{context}, receive {step}");
            assert!(
                conn.buffer.len() <= declared.max(READ_AHEAD_BYTES),
                "{context}, receive {step}: a buffer of {} bytes for frames of at most {declared}",
                conn.buffer.len()
            );
        }
        expected
    }

    #[test]
    fn hostile_bytes_are_an_error_or_the_allocating_decoders_value_never_a_panic() {
        for seed in 1..=24u64 {
            let mut rng = TestRng::new(seed.wrapping_mul(0xB175) ^ 0xF022);
            let messages: Vec<Message> = (0..3).flat_map(|_| random_messages(&mut rng)).collect();
            let frames: Vec<Vec<u8>> = messages
                .iter()
                .map(|message| encode_message(message).unwrap())
                .collect();
            let stream = frames.concat();
            let ok = |(message, frame): (&Message, &Vec<u8>)| {
                format!("{:?}", Ok::<_, NetError>((message, frame.len())))
            };

            // Valid frames, whatever the reads make of them: a frame
            // behind any number of frames still decodes, to what was sent.
            let results = receive_hostile(&stream, rng.next(), &format!("seed {seed}, clean"));
            let sent: Vec<String> = messages.iter().zip(&frames).map(ok).collect();
            assert_eq!(results[..sent.len()], sent[..], "seed {seed}");
            assert_eq!(results.len(), sent.len() + 1, "seed {seed}: then the stream ends");

            // Arbitrary bytes, bare, behind a magic word, and behind a
            // whole plausible header.
            for round in 0..48 {
                let mut bytes: Vec<u8> = (0..rng.below(300)).map(|_| rng.next() as u8).collect();
                if round % 3 > 0 && bytes.len() >= HEADER_BYTES {
                    bytes[..2].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
                }
                if round % 3 == 2 && bytes.len() >= HEADER_BYTES {
                    bytes[2..4].copy_from_slice(&(rng.below(12) as u16).to_le_bytes());
                    bytes[4..6].copy_from_slice(&(rng.below(160) as u16).to_le_bytes());
                }
                receive_hostile(&bytes, rng.next(), &format!("seed {seed}, garbage {round}"));
            }

            // A bit flipped anywhere: the frames before it arrive, the
            // frame it hit is an error — the CRC, or the header check —
            // and never a different message.
            for _ in 0..48 {
                let mut bytes = stream.clone();
                let at = rng.below(bytes.len() as u64) as usize;
                bytes[at] ^= 1 << rng.below(8);
                let results = receive_hostile(&bytes, rng.next(), &format!("seed {seed}, flip at {at}"));
                let mut end = 0;
                let hit = frames.iter().position(|frame| {
                    end += frame.len();
                    at < end
                });
                let hit = hit.expect("the flip is inside the stream");
                assert_eq!(results[..hit], sent[..hit], "seed {seed}, flip at {at}");
                assert!(results[hit].starts_with("Err("), "seed {seed}, flip at {at}: {}", results[hit]);
            }

            // Lying length words: each frame's length field set to values
            // short of, past, and far past what follows.
            let mut offset = 0;
            for (index, frame) in frames.iter().enumerate() {
                for lie in [0u16, 1, 0x7FFF, 0xFFFE, 0xFFFF, rng.below(1 << 16) as u16] {
                    let mut bytes = stream.clone();
                    bytes[offset + 4..offset + 6].copy_from_slice(&lie.to_le_bytes());
                    if bytes == stream {
                        continue;
                    }
                    let context = format!("seed {seed}, frame {index} claims {lie:#x} words");
                    let results = receive_hostile(&bytes, rng.next(), &context);
                    assert_eq!(results[..index], sent[..index], "{context}");
                    assert!(results[index].starts_with("Err("), "{context}: {}", results[index]);
                }
                offset += frame.len();
            }

            // Every kind's payload cut short and run long inside a frame
            // whose CRC vouches for it: the message decoder's call, and
            // the frame behind it arrives whatever that was.
            let follower = (&messages[7], &frames[7]);
            for frame in &frames[..9] {
                let whole = crate::frame::decode_frame(frame).unwrap();
                let cut = rng.below(whole.payload.len() as u64 + 1) as usize;
                let extra: Vec<u16> = (0..1 + rng.below(6)).map(|_| rng.next() as u16).collect();
                for payload in [whole.payload[..cut].to_vec(), [&whole.payload[..], &extra[..]].concat()] {
                    let mut bytes = crate::frame::encode_frame(whole.kind, &payload).unwrap();
                    bytes.extend_from_slice(follower.1);
                    let context = format!("seed {seed}, kind {} at {} words", whole.kind, payload.len());
                    let results = receive_hostile(&bytes, rng.next(), &context);
                    assert_eq!(results[1], ok(follower), "{context}");
                }
            }
        }
    }

    #[test]
    fn desynchronized_stream_reports_bad_magic() {
        let garbage = Loop {
            buf: Cursor::new(vec![0xEE; 16]),
        };
        let mut conn = FrameConn::new(garbage);
        assert!(matches!(conn.recv(), Err(NetError::BadMagic { .. })));
    }

    #[test]
    fn backoff_doubles_and_never_panics() {
        let policy = RetryPolicy::loopback();
        assert_eq!(policy.backoff(0), Duration::ZERO);
        assert_eq!(policy.backoff(1), Duration::from_millis(1));
        assert_eq!(policy.backoff(2), Duration::from_millis(2));
        assert_eq!(policy.backoff(3), Duration::from_millis(4));
        let _ = policy.backoff(u32::MAX);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        // Regression: `Duration * u32` panics on overflow, so a large
        // configured base_backoff blew up at attempt 16 (factor 2^15).
        // The saturating multiply must clamp to MAX_BACKOFF instead.
        let policy = RetryPolicy {
            attempts: 32,
            base_backoff: Duration::from_secs(u64::MAX / 1_000),
            jitter_seed: 0,
        };
        for attempt in [15, 16, 17, 31, u32::MAX] {
            assert_eq!(policy.backoff(attempt), RetryPolicy::MAX_BACKOFF);
        }
        // A sane base still doubles below the cap and clamps above it.
        let sane = RetryPolicy {
            attempts: 32,
            base_backoff: Duration::from_secs(1),
            jitter_seed: 0,
        };
        assert_eq!(sane.backoff(5), Duration::from_secs(16));
        assert_eq!(sane.backoff(6), RetryPolicy::MAX_BACKOFF);
        assert_eq!(sane.backoff(16), RetryPolicy::MAX_BACKOFF);
    }

    #[test]
    fn jittered_backoff_spreads_clients_within_the_cap() {
        let base = RetryPolicy {
            attempts: 8,
            base_backoff: Duration::from_millis(64),
            jitter_seed: 0,
        };
        for attempt in 1..8 {
            let pure = base.backoff(attempt);
            let mut distinct = std::collections::BTreeSet::new();
            for client in 1..=32u64 {
                let jittered = base.with_jitter(client).backoff(attempt);
                // Bounded: never below the pure doubling pause, never
                // more than 1.5× it, never past the hard cap.
                assert!(jittered >= pure, "attempt {attempt} client {client}");
                assert!(
                    jittered <= (pure + pure / 2).min(RetryPolicy::MAX_BACKOFF),
                    "attempt {attempt} client {client}"
                );
                // Deterministic: the same (seed, attempt) always yields
                // the same pause — replays stay bit-identical.
                assert_eq!(jittered, base.with_jitter(client).backoff(attempt));
                distinct.insert(jittered);
            }
            assert!(
                distinct.len() >= 16,
                "attempt {attempt}: 32 clients produced only {} distinct pauses",
                distinct.len()
            );
        }
        // Seed 0 keeps the historical pure doubling exactly.
        assert_eq!(base.backoff(3), Duration::from_millis(256));
    }

    #[test]
    fn jittered_backoff_still_clamps_at_max() {
        let policy = RetryPolicy {
            attempts: 32,
            base_backoff: Duration::from_secs(20),
            jitter_seed: 0xC11E,
        };
        for attempt in 1..32 {
            assert!(policy.backoff(attempt) <= RetryPolicy::MAX_BACKOFF);
        }
        assert_eq!(policy.backoff(4), RetryPolicy::MAX_BACKOFF);
    }

    #[test]
    fn connect_honors_its_timeout_against_a_closed_port() {
        // Bind-then-drop yields a port that is (momentarily) closed:
        // connecting gets an instant OS-level refusal. The regression:
        // connect_loopback must spend its whole budget waiting for the
        // port to open and then report Timeout — not surface the
        // refusal immediately (refusal storms) and not hang past the
        // budget (OS defaults).
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let timeout = Duration::from_millis(80);
        let started = std::time::Instant::now();
        let result = connect_loopback(addr, timeout);
        let elapsed = started.elapsed();
        assert!(matches!(result, Err(NetError::Timeout)), "{result:?}");
        assert!(elapsed >= timeout, "returned after {elapsed:?} < {timeout:?}");
        assert!(
            elapsed < timeout * 10,
            "budget overshot: {elapsed:?} for a {timeout:?} timeout"
        );
    }
}
