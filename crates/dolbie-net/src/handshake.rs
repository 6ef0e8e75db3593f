//! The single home of admission: the `Hello → Welcome` handshake (and
//! the backbone's `ShardHello → ShardWelcome`) and its rejection
//! semantics, shared by the flat master ([`crate::evented`]), every
//! shard-master, and the root ([`crate::shard`]) — one concurrent
//! admission machine instead of a per-coordinator copy.
//!
//! The rules, everywhere: strict magic/version checks ride inside
//! `Frame` decode; a socket that fails the handshake — timeout, garbage
//! bytes, a premature close, or a well-formed opener the caller's rule
//! refuses — is rejected while the listener keeps accepting, so a rogue
//! or slow peer never aborts or consumes a slot of the real fleet.
//! Workers take ids in Hello-completion order; shard-masters declare
//! theirs. The handshake precedes the lossy envelope; faults start with
//! the first round frame.

use crate::env::WireEnvSpec;
use crate::fleet::{Conn, IdleWait, TimerWheel};
use crate::transport::{Envelope, TransportError};
use crate::wire::Frame;
use crate::NetError;
use dolbie_simnet::faults::FaultPlan;
use std::io::ErrorKind;
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Builds the `Welcome` frame every coordinator sends in response to a
/// worker's `Hello` — the one place the fault-plan fields map onto the
/// wire, so the flat and sharded admissions cannot drift apart.
pub(crate) fn welcome_frame(
    worker_id: u32,
    num_workers: u32,
    rounds: u64,
    env: WireEnvSpec,
    initial_share: f64,
    fault: &FaultPlan,
) -> Frame {
    Frame::Welcome {
        worker_id,
        num_workers,
        rounds,
        env,
        initial_share,
        drop_probability: fault.drop_probability,
        duplicate_probability: fault.duplicate_probability,
        fault_seed: fault.seed,
    }
}

/// The worker opener rule: a `Hello` takes the next slot in
/// Hello-completion order and is answered with `welcome(slot)`.
pub(crate) fn hello_opener(
    mut welcome: impl FnMut(usize) -> Frame,
) -> impl FnMut(Frame) -> Option<(usize, Frame)> {
    let mut next = 0;
    move |opener| {
        matches!(opener, Frame::Hello { .. }).then(|| {
            let slot = next;
            next += 1;
            (slot, welcome(slot))
        })
    }
}

/// Concurrent admission of `count` peers, used by the flat master, every
/// shard-master, and the root's backbone: every pending socket handshakes
/// under its own `frame_timeout` deadline, so silent peers only cost
/// themselves. Each candidate's first frame goes to `opener`, which
/// either rejects it (`None`) or names the free slot it fills and the
/// welcome to answer with; `envelope` then supplies that slot's lossy
/// envelope, if any. The slot rules — admission order for workers,
/// self-declared ids for shard-masters — are the callers'; the machine is
/// shared.
///
/// With a `window`, admission stops when it expires and the unfilled
/// slots come back as `None`; without one it runs until every slot is
/// filled.
pub(crate) fn admit_concurrent(
    listener: &TcpListener,
    count: usize,
    frame_timeout: Duration,
    window: Option<Duration>,
    opener: impl FnMut(Frame) -> Option<(usize, Frame)>,
    envelope: impl FnMut(usize) -> Option<Envelope>,
) -> Result<Vec<Option<Conn>>, NetError> {
    listener.set_nonblocking(true).map_err(TransportError::from)?;
    let admitted = admit_nonblocking(listener, count, frame_timeout, window, opener, envelope);
    let _ = listener.set_nonblocking(false);
    admitted
}

fn admit_nonblocking(
    listener: &TcpListener,
    count: usize,
    frame_timeout: Duration,
    window: Option<Duration>,
    mut opener: impl FnMut(Frame) -> Option<(usize, Frame)>,
    mut envelope: impl FnMut(usize) -> Option<Envelope>,
) -> Result<Vec<Option<Conn>>, NetError> {
    let until = window.map(|w| Instant::now() + w);
    let mut wheel = TimerWheel::new(Instant::now());
    let mut idle = IdleWait::new();
    let mut candidates: Vec<Option<Conn>> = Vec::new();
    let mut admitted: Vec<Option<Conn>> = (0..count).map(|_| None).collect();
    let mut filled = 0usize;
    while filled < count {
        let now = Instant::now();
        if until.is_some_and(|until| now >= until) {
            break;
        }
        let mut progressed = false;
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if let Ok(mut conn) = Conn::new(stream) {
                        conn.gen += 1;
                        let idx = candidates.len();
                        wheel.arm(now + frame_timeout, idx, conn.gen);
                        candidates.push(Some(conn));
                        progressed = true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(TransportError::from(e).into()),
            }
        }
        for slot in candidates.iter_mut() {
            if filled >= count {
                break;
            }
            let Some(conn) = slot.as_mut() else { continue };
            match conn.pump_read(now) {
                Ok(p) => progressed |= p,
                Err(_) => {
                    // Rejected: dead socket or undecodable bytes.
                    *slot = None;
                    continue;
                }
            }
            let Some(first) = conn.inbox.pop_front() else { continue };
            // An opener the rule refuses — a non-Hello frame, a taken or
            // out-of-range slot — rejects the socket.
            let Some((id, welcome)) = opener(first) else {
                *slot = None;
                continue;
            };
            debug_assert!(admitted[id].is_none(), "the opener rule filled slot {id} twice");
            let mut conn = slot.take().expect("candidate present");
            conn.queue(&welcome, now);
            // The handshake precedes the envelope; faults start with the
            // first round frame.
            conn.envelope = envelope(id);
            // Write errors surface on the first round pump.
            let _ = conn.pump_write();
            conn.gen += 1; // cancels the handshake deadline
            admitted[id] = Some(conn);
            filled += 1;
            progressed = true;
        }
        for timer in wheel.expire(now) {
            let stale = candidates
                .get(timer.conn())
                .and_then(|c| c.as_ref())
                .is_some_and(|c| c.gen == timer.gen());
            if stale {
                // The opener never arrived within the deadline: rejected.
                candidates[timer.conn()] = None;
            }
        }
        idle.pace(progressed);
    }
    Ok(admitted)
}
