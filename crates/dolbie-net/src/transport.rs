//! Socket transport, split into a readiness-free **buffer/codec layer**
//! ([`FrameCodec`]: reassembly, strict decode, batched transmit queues)
//! and the policies on top of it: the blocking [`FrameConn`]/[`Link`]
//! used by workers and the root/shard-master backbone, bounded seeded
//! reconnect, and the deterministic lossy envelope. The event loop
//! (`crate::fleet`, behind the master and every shard-master) drives the
//! same codec from a non-blocking readiness loop.
//!
//! ## The lossy mode
//!
//! A lossy connection replays a [`FaultPlan`]'s drop/duplicate/ack-drop
//! decisions at the socket layer. Every protocol frame is carried in a
//! [`Frame::Data`] envelope tagged with a per-direction sequence number
//! and attempt counter; a "dropped" transmission is simply never written
//! to the socket (real non-delivery), the sender waits out a real
//! retransmission timeout ([`RetryPolicy`](dolbie_simnet::faults::RetryPolicy))
//! and tries again, the receiver
//! acknowledges every arriving copy (unless the plan drops the ack) and
//! deduplicates by sequence number. The final attempt is written
//! unconditionally and not awaited — TCP itself guarantees its delivery —
//! so progress is guaranteed and a lossy run always terminates.
//!
//! One sans-IO state machine, `Envelope`, implements that schedule. Its
//! two drivers are the blocking [`Link`], which sleeps in `read` until
//! the next frame or retransmission deadline, and the event loop's
//! connections, which check the same clock on every sweep.
//!
//! Because loss only ever *delays* frames and never changes their
//! contents or relative order, the protocol trajectory under a lossy link
//! is identical to the lossless one; only wall-clock and wire-byte
//! accounting differ. Lossless links skip the envelope entirely: zero
//! overhead, raw protocol frames on the wire.

use crate::wire::{Frame, WireError, MAX_FRAME_BYTES};
use dolbie_simnet::faults::FaultPlan;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A transport failure: I/O, malformed bytes, or a protocol violation.
#[derive(Debug)]
pub enum TransportError {
    /// The socket failed (includes read-deadline timeouts and EOF).
    Io(std::io::Error),
    /// The peer sent undecodable bytes.
    Wire(WireError),
    /// The peer sent a well-formed frame that violates the protocol.
    Protocol(&'static str),
}

impl TransportError {
    /// Whether this is a read-deadline expiry (as opposed to a dead peer
    /// or malformed traffic).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            Self::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "socket error: {e}"),
            Self::Wire(e) => write!(f, "wire error: {e}"),
            Self::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// Wire-level counters of one connection (or a whole run, summed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames written to the socket (envelope and ack frames included).
    pub frames_sent: u64,
    /// Frames read off the socket.
    pub frames_received: u64,
    /// Bytes written, length prefixes included.
    pub bytes_sent: u64,
    /// Bytes read.
    pub bytes_received: u64,
    /// Data retransmission attempts beyond each frame's first.
    pub retransmissions: u64,
    /// Fault-injected duplicate copies written.
    pub duplicates: u64,
    /// Acknowledgement frames written.
    pub acks: u64,
}

impl WireStats {
    /// Adds another connection's counters into this one.
    pub fn absorb(&mut self, other: &WireStats) {
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.retransmissions += other.retransmissions;
        self.duplicates += other.duplicates;
        self.acks += other.acks;
    }
}

/// The pure buffer/codec layer of a framed connection: bytes in one side,
/// frames out the other, plus an outgoing byte queue — no socket, no
/// blocking, no readiness. Both the blocking [`FrameConn`] and the
/// event loop's connections sit on top of this.
///
/// Incoming bytes accumulate in a reassembly buffer and complete frames
/// parse off its front, so a read ending mid-frame never desynchronizes
/// the stream — the partial bytes stay buffered for the next ingest.
/// Outgoing frames encode into a contiguous transmit buffer the owner
/// drains at whatever pace the socket accepts, which is what lets the
/// event loop batch many frames into one `write` call.
#[derive(Debug, Default)]
pub struct FrameCodec {
    rx: Vec<u8>,
    tx: Vec<u8>,
    tx_at: usize,
    stats: WireStats,
}

impl FrameCodec {
    /// An empty codec.
    pub fn new() -> Self {
        Self { rx: Vec::with_capacity(4096), tx: Vec::new(), tx_at: 0, stats: WireStats::default() }
    }

    /// Appends raw bytes read off the socket.
    pub fn ingest(&mut self, bytes: &[u8]) {
        self.rx.extend_from_slice(bytes);
        self.stats.bytes_received += bytes.len() as u64;
    }

    /// Parses one complete frame off the front of the reassembly buffer.
    /// `Ok(None)` means more bytes are needed; malformed bytes are a hard
    /// error (strict decode never partially consumes).
    pub fn pop_frame(&mut self) -> Result<Option<Frame>, WireError> {
        match Frame::decode(&self.rx) {
            Ok((frame, used)) => {
                self.rx.drain(..used);
                self.stats.frames_received += 1;
                Ok(Some(frame))
            }
            Err(WireError::Truncated) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Encodes `frame` onto the transmit queue. Counted as sent here —
    /// the bytes are committed to this connection from this point.
    pub fn queue(&mut self, frame: &Frame) {
        let bytes = frame.encode();
        self.queue_raw(&bytes);
    }

    /// Appends pre-encoded frame bytes to the transmit queue — the
    /// coalesced-broadcast path: encode a frame once, queue it on many
    /// connections without re-encoding.
    pub fn queue_raw(&mut self, bytes: &[u8]) {
        self.tx.extend_from_slice(bytes);
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += bytes.len() as u64;
    }

    /// The bytes awaiting transmission.
    pub fn pending_tx(&self) -> &[u8] {
        &self.tx[self.tx_at..]
    }

    /// Marks `n` pending bytes as written; reclaims the buffer once fully
    /// drained.
    pub fn advance_tx(&mut self, n: usize) {
        self.tx_at += n;
        debug_assert!(self.tx_at <= self.tx.len());
        if self.tx_at == self.tx.len() {
            self.tx.clear();
            self.tx_at = 0;
        }
    }

    /// Whether any bytes await transmission.
    pub fn has_tx(&self) -> bool {
        self.tx_at < self.tx.len()
    }

    /// This connection's byte/frame counters.
    pub fn stats(&self) -> WireStats {
        self.stats
    }
}

/// A framed **blocking** TCP connection: length-prefixed frames in, frames
/// out, with a per-call read deadline — a [`FrameCodec`] plus a socket and
/// the readiness policy "block until the deadline".
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
    codec: FrameCodec,
}

impl FrameConn {
    /// Wraps a connected stream; disables Nagle so the small protocol
    /// frames are not batched behind a delayed-ack timer.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Self { stream, codec: FrameCodec::new() })
    }

    /// Resumes a connection whose codec may already hold buffered bytes
    /// in either direction (an event-loop handshake handing the socket
    /// over); switches the socket back to blocking mode.
    pub(crate) fn with_codec(stream: TcpStream, codec: FrameCodec) -> std::io::Result<Self> {
        stream.set_nonblocking(false)?;
        Ok(Self { stream, codec })
    }

    /// Writes one frame.
    pub fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        self.codec.queue(frame);
        self.flush()
    }

    /// Writes everything queued on the codec.
    fn flush(&mut self) -> Result<(), TransportError> {
        while self.codec.has_tx() {
            match self.stream.write(self.codec.pending_tx()) {
                Ok(0) => {
                    return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into());
                }
                Ok(k) => self.codec.advance_tx(k),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Reads one frame, waiting at most `deadline`. Anything still queued
    /// for transmission is written first.
    pub fn recv(&mut self, deadline: Duration) -> Result<Frame, TransportError> {
        self.flush()?;
        let until = Instant::now() + deadline;
        loop {
            if let Some(frame) = self.codec.pop_frame()? {
                return Ok(frame);
            }
            let remaining = until.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(std::io::Error::from(std::io::ErrorKind::TimedOut).into());
            }
            // set_read_timeout(Some(0)) is an error by contract; clamp up.
            self.stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into()),
                Ok(k) => self.codec.ingest(&chunk[..k]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// This connection's byte/frame counters.
    pub fn stats(&self) -> WireStats {
        self.codec.stats()
    }
}

/// One stop-and-wait envelope in flight; `rto` is this attempt's
/// timeout in seconds, counted from `at`.
#[derive(Debug)]
struct Inflight {
    seq: u64,
    frame: Frame,
    attempt: usize,
    rto: f64,
    at: Instant,
}

/// The lossy Data/Ack envelope of one connection as a sans-IO state
/// machine: it writes into a [`FrameCodec`], is handed the frames read
/// back, and takes the time as an argument. One attempt is in flight per
/// direction (stop-and-wait: pipelining would make the receiver's
/// high-water-mark dedup discard retransmitted lower sequences); attempt
/// `k` waits `ack_timeout · backoff^k`, and the final one is written
/// unconditionally and not awaited.
#[derive(Debug)]
pub(crate) struct Envelope {
    plan: FaultPlan,
    /// This endpoint's node code in the fault-decision hash (master 0,
    /// worker `i` → `i + 1`; the `dolbie-simnet` convention).
    self_code: u64,
    peer_code: u64,
    next_seq: u64,
    last_delivered: Option<u64>,
    outbox: VecDeque<Frame>,
    inflight: Option<Inflight>,
    retransmissions: u64,
    duplicates: u64,
    acks: u64,
}

impl Envelope {
    /// The envelope replaying `plan` between `self_code` and `peer_code`,
    /// or `None` for a lossless plan: raw frames, zero overhead.
    pub(crate) fn new(plan: &FaultPlan, self_code: u64, peer_code: u64) -> Option<Self> {
        (!plan.is_lossless()).then(|| Self {
            plan: plan.clone(),
            self_code,
            peer_code,
            next_seq: 0,
            last_delivered: None,
            outbox: VecDeque::new(),
            inflight: None,
            retransmissions: 0,
            duplicates: 0,
            acks: 0,
        })
    }

    /// Whether a frame is queued or awaiting its ack.
    pub(crate) fn busy(&self) -> bool {
        self.inflight.is_some() || !self.outbox.is_empty()
    }

    /// When the attempt in flight times out, if one is.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.inflight.as_ref().map(|i| i.at + Duration::from_secs_f64(i.rto))
    }

    /// Queues one protocol frame, starting it at once if nothing is in
    /// flight.
    pub(crate) fn send(&mut self, frame: &Frame, codec: &mut FrameCodec, now: Instant) {
        self.outbox.push_back(frame.clone());
        self.kick(codec, now);
    }

    /// Drives the retransmission clock: retransmits the attempt in
    /// flight once its timeout has passed.
    pub(crate) fn poll(&mut self, codec: &mut FrameCodec, now: Instant) {
        self.kick(codec, now);
        let Some(inflight) = self.inflight.as_mut() else { return };
        if now.saturating_duration_since(inflight.at) < Duration::from_secs_f64(inflight.rto) {
            return;
        }
        inflight.attempt += 1;
        inflight.rto *= self.plan.retry.backoff;
        self.retransmissions += 1;
        if self.transmit(codec, now) {
            self.kick(codec, now);
        }
    }

    /// Handles one frame read off the wire: a `Data` copy is acked
    /// (unless the plan drops the ack) and its payload returned if it is
    /// new; an `Ack` completes the attempt in flight. A raw protocol
    /// frame is a violation.
    pub(crate) fn receive(
        &mut self,
        frame: Frame,
        codec: &mut FrameCodec,
        now: Instant,
    ) -> Result<Option<Frame>, TransportError> {
        match frame {
            Frame::Data { seq, attempt, inner } => {
                // Ack fate is keyed on the DATA direction (peer → self),
                // so the sender reaches the same verdict.
                if !self.plan.wire_ack_drop(seq, self.peer_code, self.self_code, attempt as usize) {
                    codec.queue(&Frame::Ack { seq });
                    self.acks += 1;
                }
                // Per-direction seqs are strictly increasing; anything at
                // or below the high-water mark is a retransmitted or
                // duplicated copy of a frame already delivered upward.
                if self.last_delivered.is_none_or(|last| seq > last) {
                    self.last_delivered = Some(seq);
                    return Ok(Some(*inner));
                }
                Ok(None)
            }
            Frame::Ack { seq } => {
                // A late ack for an attempt no longer in flight is moot.
                if self.inflight.as_ref().is_some_and(|i| i.seq == seq) {
                    self.inflight = None;
                    self.kick(codec, now);
                }
                Ok(None)
            }
            _ => Err(TransportError::Protocol("raw frame on a lossy link")),
        }
    }

    /// `codec`'s counters with this envelope's retransmissions,
    /// duplicates and acks filled in.
    pub(crate) fn stats(&self, codec: &FrameCodec) -> WireStats {
        WireStats {
            retransmissions: self.retransmissions,
            duplicates: self.duplicates,
            acks: self.acks,
            ..codec.stats()
        }
    }

    /// Starts the next queued frame if nothing is in flight.
    fn kick(&mut self, codec: &mut FrameCodec, now: Instant) {
        while self.inflight.is_none() {
            let Some(frame) = self.outbox.pop_front() else { return };
            let seq = self.next_seq;
            self.next_seq += 1;
            let rto = self.plan.retry.ack_timeout;
            self.inflight = Some(Inflight { seq, frame, attempt: 0, rto, at: now });
            // A forced final attempt completes at once; chain on.
            self.transmit(codec, now);
        }
    }

    /// Writes the current attempt, or lets the plan drop it before the
    /// wire: a dropped attempt is simply never written. Returns whether
    /// the envelope completed (the forced final attempt was written).
    fn transmit(&mut self, codec: &mut FrameCodec, now: Instant) -> bool {
        let inflight = self.inflight.as_mut().expect("an attempt in flight");
        let (seq, attempt) = (inflight.seq, inflight.attempt);
        let forced = attempt + 1 == self.plan.retry.max_attempts;
        if forced || !self.plan.wire_drop(seq, self.self_code, self.peer_code, attempt) {
            let data = Frame::Data {
                seq,
                attempt: attempt as u32,
                inner: Box::new(inflight.frame.clone()),
            };
            codec.queue(&data);
            if self.plan.wire_duplicate(seq, self.self_code, self.peer_code, attempt) {
                codec.queue(&data);
                self.duplicates += 1;
            }
        }
        inflight.at = now;
        if forced {
            // TCP delivers what we wrote; nothing left to await.
            self.inflight = None;
        }
        forced
    }
}

/// A protocol-frame channel over one blocking TCP connection: either raw
/// frames (lossless) or the blocking driver of the lossy envelope.
#[derive(Debug)]
pub struct Link {
    conn: FrameConn,
    envelope: Option<Envelope>,
    /// Payloads the envelope delivered but no `recv` has taken yet.
    inbox: VecDeque<Frame>,
}

impl Link {
    /// A raw pass-through link: protocol frames directly on the wire.
    pub fn lossless(conn: FrameConn) -> Self {
        Self::from_parts(conn, None)
    }

    /// A link replaying `plan`'s socket-layer faults. `self_code` and
    /// `peer_code` are the endpoints' node codes (master 0, worker `i` →
    /// `i + 1`), which key the per-attempt fate hashes so both ends agree
    /// on every decision. Falls back to a pass-through if the plan is
    /// lossless.
    pub fn with_plan(conn: FrameConn, plan: FaultPlan, self_code: u64, peer_code: u64) -> Self {
        Self::from_parts(conn, Envelope::new(&plan, self_code, peer_code))
    }

    pub(crate) fn from_parts(conn: FrameConn, envelope: Option<Envelope>) -> Self {
        Self { conn, envelope, inbox: VecDeque::new() }
    }

    /// Sends one protocol frame; in lossy mode this blocks through the
    /// retransmission schedule until a copy is acknowledged (or the final
    /// attempt is force-written).
    pub fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        let Some(envelope) = self.envelope.as_mut() else { return self.conn.send(frame) };
        envelope.send(frame, &mut self.conn.codec, Instant::now());
        self.drive(None)
    }

    /// Receives the next protocol frame, waiting at most `deadline`.
    pub fn recv(&mut self, deadline: Duration) -> Result<Frame, TransportError> {
        if self.envelope.is_none() {
            return self.conn.recv(deadline);
        }
        self.drive(Some(Instant::now() + deadline))?;
        Ok(self.inbox.pop_front().expect("drive returns once a payload is delivered"))
    }

    /// Runs the envelope over the blocking socket until it is idle (a
    /// send, `until == None`) or a payload waits (a recv, timing out at
    /// `until`): each read blocks no longer than the attempt in flight's
    /// retransmission deadline.
    fn drive(&mut self, until: Option<Instant>) -> Result<(), TransportError> {
        let Self { conn, envelope, inbox } = self;
        let envelope = envelope.as_mut().expect("lossy mode");
        loop {
            conn.flush()?;
            let done = if until.is_some() { !inbox.is_empty() } else { !envelope.busy() };
            if done {
                return Ok(());
            }
            let wake =
                until.into_iter().chain(envelope.deadline()).min().expect("a send in flight");
            match conn.recv(wake.saturating_duration_since(Instant::now())) {
                Ok(frame) => {
                    if let Some(payload) =
                        envelope.receive(frame, &mut conn.codec, Instant::now())?
                    {
                        inbox.push_back(payload);
                    }
                }
                Err(e) if e.is_timeout() && until.is_none_or(|u| Instant::now() < u) => {}
                Err(e) => return Err(e),
            }
            envelope.poll(&mut conn.codec, Instant::now());
        }
    }

    /// Combined socket and envelope counters.
    pub fn stats(&self) -> WireStats {
        match &self.envelope {
            Some(envelope) => envelope.stats(&self.conn.codec),
            None => self.conn.stats(),
        }
    }
}

/// Connects with bounded, seeded exponential backoff: attempt `k` waits
/// `base · 2^k · (1 + jitter_k)` with deterministic per-seed jitter in
/// `[0, 0.5)`, with each wait clamped to [`MAX_BACKOFF_SLEEP`] so long
/// retry schedules grow linearly rather than exponentially past the cap.
/// Returns the last error if every attempt fails.
pub fn connect_with_backoff(
    addr: SocketAddr,
    attempts: usize,
    base: Duration,
    seed: u64,
) -> std::io::Result<TcpStream> {
    assert!(attempts >= 1, "at least one connection attempt is required");
    let mut last = None;
    for k in 0..attempts {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
        if k + 1 < attempts {
            let jitter = (mix(seed, k as u64) >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
            let wait = base.mul_f64((1u64 << k.min(16)) as f64 * (1.0 + jitter));
            std::thread::sleep(wait.min(MAX_BACKOFF_SLEEP));
        }
    }
    Err(last.expect("at least one attempt ran"))
}

/// Per-attempt ceiling of the reconnect backoff: past this point more
/// attempts buy a longer *total* wait without ever parking a worker for
/// minutes at a time.
pub const MAX_BACKOFF_SLEEP: Duration = Duration::from_secs(2);

/// The connect retry schedule for a fleet of `n` workers racing one
/// listener: `(attempts, base, stagger)`.
///
/// The OS listen backlog is fixed (std offers no knob), so at large `n`
/// simultaneous SYNs overflow it and late workers ride kernel SYN
/// retransmits or outright refusals. Two N-scaled levers compensate:
/// the worker's *attempt budget* grows with `log2 n` (each capped at
/// [`MAX_BACKOFF_SLEEP`], so the worst-case total wait scales ~linearly
/// in the budget), and worker `k` delays its first SYN by
/// `k · stagger` to spread the herd across the accept loop's capacity
/// instead of a single instant.
pub fn connect_schedule(n: usize, k: usize) -> (usize, Duration, Duration) {
    let log2n = usize::BITS - n.max(1).leading_zeros();
    let attempts = 10 + 2 * log2n as usize;
    let stagger = if n > 256 { Duration::from_micros(100) * (k as u32) } else { Duration::ZERO };
    (attempts, Duration::from_millis(10), stagger)
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Default per-frame read deadline used by both node roles: generous
/// enough for the full lossy retransmission schedule, short enough that a
/// crashed peer is detected promptly.
pub const DEFAULT_FRAME_TIMEOUT: Duration = Duration::from_secs(10);

#[allow(unused)]
const _ASSERT_CAP_FITS: () = assert!(MAX_FRAME_BYTES <= u32::MAX as usize);

#[cfg(test)]
mod tests {
    use super::*;
    use dolbie_simnet::faults::RetryPolicy;
    use std::net::TcpListener;

    fn pair() -> (FrameConn, FrameConn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (FrameConn::new(client).unwrap(), FrameConn::new(server).unwrap())
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let (mut a, mut b) = pair();
        let frame = Frame::LocalCost { epoch: 0, round: 9, cost: 1.0 / 3.0 };
        a.send(&frame).unwrap();
        let got = b.recv(Duration::from_secs(2)).unwrap();
        assert_eq!(got, frame);
        assert_eq!(a.stats().frames_sent, 1);
        assert_eq!(b.stats().frames_received, 1);
        assert_eq!(a.stats().bytes_sent, b.stats().bytes_received);
    }

    #[test]
    fn read_deadline_expires_without_desync() {
        let (mut a, mut b) = pair();
        let err = b.recv(Duration::from_millis(30)).unwrap_err();
        assert!(err.is_timeout());
        // The stream still works after the timeout.
        a.send(&Frame::Shutdown).unwrap();
        assert_eq!(b.recv(Duration::from_secs(2)).unwrap(), Frame::Shutdown);
    }

    #[test]
    fn lossy_link_delivers_exactly_once_despite_faults() {
        let (client, server) = pair();
        let plan = FaultPlan::seeded(21)
            .with_drop_probability(0.4)
            .with_duplicate_probability(0.3)
            .with_retry(RetryPolicy::new(0.01, 1.5, 6));
        let sender = std::thread::spawn({
            let plan = plan.clone();
            move || {
                let mut link = Link::with_plan(client, plan, 1, 0);
                for round in 0..50u64 {
                    link.send(&Frame::LocalCost { epoch: 0, round, cost: round as f64 }).unwrap();
                }
                link.stats()
            }
        });
        let mut link = Link::with_plan(server, plan, 0, 1);
        for round in 0..50u64 {
            let frame = link.recv(Duration::from_secs(10)).unwrap();
            assert_eq!(
                frame,
                Frame::LocalCost { epoch: 0, round, cost: round as f64 },
                "in-order exactly-once delivery"
            );
        }
        let sent = sender.join().unwrap();
        assert!(sent.retransmissions > 0, "40% drop over 50 frames must retransmit somewhere");
        assert!(sent.duplicates > 0, "30% duplication must fire somewhere");
    }

    #[test]
    fn lossless_link_adds_zero_envelope_overhead() {
        let (client, server) = pair();
        let mut tx = Link::with_plan(client, FaultPlan::none(), 1, 0);
        let mut rx = Link::lossless(server);
        let frame = Frame::Assignment { round: 0, share: 0.5 };
        tx.send(&frame).unwrap();
        assert_eq!(rx.recv(Duration::from_secs(2)).unwrap(), frame);
        assert_eq!(tx.stats().bytes_sent, frame.encode().len() as u64);
        assert_eq!(tx.stats().retransmissions + tx.stats().acks + tx.stats().duplicates, 0);
    }

    /// Two envelopes trade frames through two codecs under a synthetic
    /// clock — no socket, no real time — and exactly-once in-order
    /// delivery plus the envelope counters follow from the seed alone.
    fn envelope_exchange(plan: &FaultPlan, frames: u64) -> [WireStats; 2] {
        let base = Instant::now();
        let mut ends = [Envelope::new(plan, 1, 0).unwrap(), Envelope::new(plan, 0, 1).unwrap()];
        let mut codecs = [FrameCodec::new(), FrameCodec::new()];
        for round in 0..frames {
            let frame = Frame::LocalCost { epoch: 0, round, cost: round as f64 };
            ends[0].send(&frame, &mut codecs[0], base);
        }
        let mut delivered = Vec::new();
        let mut tick = 0u64;
        while ends[0].busy() || codecs.iter().any(FrameCodec::has_tx) {
            tick += 1;
            assert!(tick < 1_000_000, "the forced final attempt bounds every schedule");
            let now = base + Duration::from_millis(tick);
            for (from, to) in [(0, 1), (1, 0)] {
                let bytes = codecs[from].pending_tx().to_vec();
                codecs[from].advance_tx(bytes.len());
                codecs[to].ingest(&bytes);
                while let Some(frame) = codecs[to].pop_frame().unwrap() {
                    if let Some(payload) = ends[to].receive(frame, &mut codecs[to], now).unwrap() {
                        assert_eq!(to, 1, "only the sender's direction carries payloads");
                        delivered.push(payload);
                    }
                }
            }
            for (end, codec) in ends.iter_mut().zip(codecs.iter_mut()) {
                end.poll(codec, now);
            }
        }
        let expected: Vec<Frame> = (0..frames)
            .map(|round| Frame::LocalCost { epoch: 0, round, cost: round as f64 })
            .collect();
        assert_eq!(delivered, expected, "in-order exactly-once delivery");
        [ends[0].stats(&codecs[0]), ends[1].stats(&codecs[1])]
    }

    #[test]
    fn envelope_delivers_exactly_once_on_a_synthetic_clock() {
        let plan = FaultPlan::seeded(21)
            .with_drop_probability(0.4)
            .with_duplicate_probability(0.3)
            .with_retry(RetryPolicy::new(0.01, 1.5, 6));
        let first = envelope_exchange(&plan, 50);
        let [sent, received] = first;
        assert!(sent.retransmissions > 0, "40% drop over 50 frames must retransmit somewhere");
        assert!(sent.duplicates > 0, "30% duplication must fire somewhere");
        assert!(received.acks > 0, "the receiver acks what it is handed");
        assert_eq!(envelope_exchange(&plan, 50), first, "the counters follow from the seed");
    }

    #[test]
    fn backoff_connect_eventually_reaches_a_late_listener() {
        // Reserve a port, close it, then re-listen shortly after the
        // client starts retrying.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let opener = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            let listener = TcpListener::bind(addr).unwrap();
            listener.accept().map(|_| ()).unwrap();
        });
        let stream = connect_with_backoff(addr, 8, Duration::from_millis(25), 7).unwrap();
        drop(stream);
        opener.join().unwrap();
    }
}
