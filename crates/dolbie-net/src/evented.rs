//! The master: Algorithm 1's coordinator over real sockets — one
//! thread, non-blocking sockets, a level-triggered readiness loop.
//!
//! Every socket is non-blocking and the loop sweeps readiness instead of
//! reading worker-by-worker: frames are reassembled per connection by
//! the shared [`FrameCodec`](crate::transport::FrameCodec), broadcasts
//! encode once and land on every transmit queue as raw bytes, writes
//! batch into as few syscalls as the kernel accepts, and per-connection
//! deadlines ride a hashed timer wheel — so one slow connection never
//! serializes the fleet, and `K` simultaneously stalled workers cost a
//! round one `frame_timeout` total, not `K` of them. The sweep machinery
//! itself (connections, pumps, deadlines, broadcast, crash discovery)
//! lives in `crate::fleet`, shared with the shard-master tier; this
//! module owns only the flat master's protocol script. The run's
//! configuration and report types live in [`crate::master`].
//!
//! ## Connection state machine
//!
//! A connection is **handshaking** (accepted, Hello awaited under a
//! deadline — see `crate::handshake`), **admitted** (assigned a worker
//! id, speaking the round protocol, possibly through the lossy
//! envelope), or **dead** (socket error, deadline expiry, or a declared
//! crash — its stats retire into the run totals). A handshake failure of
//! any kind — timeout, garbage bytes, premature close, a non-Hello
//! opener — rejects that socket and keeps listening for the real fleet;
//! it never aborts the run.
//!
//! ## Crash handling
//!
//! A worker whose socket times out, resets, or closes mid-round is
//! declared dead and mapped onto a membership epoch
//! ([`Dolbie::apply_membership`]): its share is redistributed over the
//! survivors, α re-caps, the epoch counter increments, and every survivor
//! receives an [`Frame::Epoch`] carrying its authoritative
//! post-renormalization share (overriding any tentative in-round state).
//! If the engine had not yet committed the round, the round restarts under
//! the new epoch; if death surfaces only while delivering the commit
//! (`Adjust`/`Assignment` sends), the round stands and the run continues.
//! Stale frames from abandoned round attempts are filtered by the epoch
//! tag they carry. The run never hangs on a dead worker.
//!
//! ## Determinism boundary
//!
//! Readiness order is scheduler noise, so nothing trajectory-relevant may
//! depend on it. The round logic only ever reads completed per-worker
//! values out of id-indexed arrays and reduces them with the engine's own
//! ascending strict-`>` argmax, so any interleaving of frame arrivals
//! produces the same straggler, the same gains vector, and therefore the
//! same bitwise trajectory as the sequential engine. What *is*
//! timing-dependent is when a crash surfaces; the crash→epoch mapping
//! (pre-commit restart vs post-commit stand) is preserved, not the
//! wall-clock instant.

use crate::fleet::{Fleet, Phase, SweepFail};
use crate::handshake::{admit_concurrent, hello_opener, welcome_frame};
use crate::master::{MasterConfig, NetRunReport};
use crate::transport::{Envelope, WireStats};
use crate::wire::Frame;
use crate::NetError;
use dolbie_core::{Allocation, Dolbie, LoadBalancer};
use dolbie_simnet::{ProtocolRound, ProtocolTrace};
use std::net::TcpListener;
use std::time::Instant;

/// How a round attempt ended, when not in a completed record.
enum Abort {
    /// These workers' sockets died or their deadlines expired — all
    /// deaths discovered in one sweep, so simultaneous stalls bury
    /// together instead of costing a timeout each. If the engine had
    /// already committed the round, the record rides along.
    Dead { workers: Vec<usize>, committed: Option<Box<ProtocolRound>> },
    /// Unrecoverable failure (protocol violation, malformed bytes).
    Fatal(NetError),
}

impl From<SweepFail> for Abort {
    fn from(fail: SweepFail) -> Self {
        match fail {
            SweepFail::Dead(workers) => Self::Dead { workers, committed: None },
            SweepFail::Fatal(e) => Self::Fatal(e),
        }
    }
}

/// The event-driven master's run state.
struct EventMaster<'a> {
    cfg: &'a MasterConfig,
    fleet: Fleet,
    members: Vec<bool>,
    engine: Dolbie,
    epoch: u32,
    retired: WireStats,
    started: Instant,
}

impl EventMaster<'_> {
    /// One attempt at round `t` under the current epoch, phrased as
    /// broadcasts and sweeps.
    fn run_round(&mut self, t: usize) -> Result<ProtocolRound, Abort> {
        let n = self.members.len();
        let active: Vec<usize> = (0..n).filter(|&i| self.members[i]).collect();
        let allocation = self.engine.allocation().clone();
        let before = self.fleet.wire_snapshot();

        // Barrier: every active worker starts round t under this epoch.
        let start = Frame::RoundStart { epoch: self.epoch, round: t as u64 };
        self.fleet.broadcast(&start, &active, Instant::now());
        let mut logical = active.len();

        // Lines 9–11: collect local costs, filtering stale pre-epoch frames.
        let mut local_costs = vec![0.0f64; n];
        self.fleet.collect(t, self.epoch, Phase::Cost, &active, &mut local_costs, &mut logical)?;
        let compute_finished = self.started.elapsed().as_secs_f64();

        // Straggler: ascending argmax over the active members, strict `>`
        // — the same tie-breaking as the engine.
        let mut global_cost = f64::MIN;
        let mut straggler = active[0];
        for &i in &active {
            if local_costs[i] > global_cost {
                global_cost = local_costs[i];
                straggler = i;
            }
        }

        // Line 12: the coordination scalars. All non-stragglers share one
        // frame, so it encodes once for the whole fleet.
        let alpha = self.engine.alpha();
        let others: Vec<usize> = active.iter().copied().filter(|&i| i != straggler).collect();
        let shared =
            Frame::Coordination { round: t as u64, global_cost, alpha, is_straggler: false };
        let now = Instant::now();
        self.fleet.broadcast(&shared, &others, now);
        let pin = Frame::Coordination { round: t as u64, global_cost, alpha, is_straggler: true };
        self.fleet.queue_to(straggler, &pin, now);
        logical += active.len();

        // Lines 13–14: collect the non-stragglers' reported gains.
        let mut gains = vec![0.0f64; n];
        self.fleet.collect(t, self.epoch, Phase::Decision, &others, &mut gains, &mut logical)?;

        // The engine commits the round — from here the round stands even
        // if a delivery below discovers a death.
        let outcome = self.engine.observe_reported(straggler, &gains);

        let record = |master: &Self, logical: usize, control_finished: f64| -> ProtocolRound {
            let wire = master.fleet.wire_delta(&before);
            ProtocolRound {
                round: t,
                allocation: allocation.clone(),
                local_costs: local_costs.clone(),
                global_cost,
                straggler,
                messages: logical,
                bytes: (wire.bytes_sent + wire.bytes_received) as usize,
                retries: wire.retransmissions as usize,
                acks: wire.acks as usize,
                duplicates: wire.duplicates as usize,
                compute_finished,
                control_finished,
                active: master.members.clone(),
                alpha: master.engine.alpha(),
            }
        };

        // The rare simplex-guard rescale: non-stragglers replay
        // `x = x_old + gain · scale`.
        if let Some(scale) = outcome.rescale {
            self.fleet.broadcast(
                &Frame::Adjust { round: t as u64, scale },
                &others,
                Instant::now(),
            );
            logical += others.len();
        }

        // Line 15: the straggler's pinned share.
        let assignment = Frame::Assignment { round: t as u64, share: outcome.straggler_share };
        self.fleet.queue_to(straggler, &assignment, Instant::now());
        logical += 1;

        // Deliver the commit: the round's wire accounting closes once the
        // queues drain; a death discovered here maps to round-stands.
        let dead = self.fleet.drain().map_err(Abort::Fatal)?;
        let committed = record(self, logical, self.started.elapsed().as_secs_f64());
        if !dead.is_empty() {
            return Err(Abort::Dead { workers: dead, committed: Some(Box::new(committed)) });
        }
        Ok(committed)
    }

    /// Declares `worker` dead, crosses a membership epoch, and announces
    /// it to the survivors — cascading if an announcement discovers
    /// further deaths.
    fn bury(&mut self, worker: usize, next_round: usize) -> Result<(), NetError> {
        let mut pending = vec![worker];
        while let Some(dead) = pending.pop() {
            if !self.members[dead] {
                continue;
            }
            self.members[dead] = false;
            if let Some(conn) = self.fleet.links[dead].take() {
                self.retired.absorb(&conn.stats());
            }
            if !self.members.iter().any(|&m| m) {
                return Err(NetError::Protocol("every worker has died".into()));
            }
            self.engine.apply_membership(&self.members);
            self.epoch += 1;
            let mask = self.members.clone();
            for i in 0..self.fleet.links.len() {
                if !self.members[i] {
                    continue;
                }
                let frame = Frame::Epoch {
                    epoch: self.epoch,
                    round: next_round as u64,
                    share: self.engine.allocation().share(i),
                    members: mask.clone(),
                };
                let conn = self.fleet.links[i].as_mut().expect("members have connections");
                conn.queue(&frame, Instant::now());
                if Fleet::settle(conn, self.cfg.frame_timeout).is_err() {
                    pending.push(i);
                }
            }
        }
        Ok(())
    }
}

/// Accepts `cfg.num_workers` connections on `listener`, runs Algorithm 1
/// to the horizon under the event-driven readiness loop, and shuts the
/// fleet down. The report's trajectory is bitwise identical to the
/// sequential engine's.
///
/// # Panics
///
/// Panics if the configuration names an empty fleet or a zero horizon.
pub fn run_master_evented(
    listener: &TcpListener,
    cfg: &MasterConfig,
) -> Result<NetRunReport, NetError> {
    let n = cfg.num_workers;
    assert!(n > 0, "at least one worker required");
    assert!(cfg.rounds > 0, "at least one round required");
    let engine = Dolbie::with_config(Allocation::uniform(n), cfg.dolbie);
    let links = admit_concurrent(
        listener,
        n,
        cfg.frame_timeout,
        None,
        hello_opener(|id| {
            welcome_frame(
                id as u32,
                n as u32,
                cfg.rounds as u64,
                cfg.env,
                engine.allocation().share(id),
                &cfg.fault,
            )
        }),
        |id| Envelope::new(&cfg.fault, 0, id as u64 + 1),
    )?;
    let mut master = EventMaster {
        cfg,
        fleet: Fleet::new(links, cfg.frame_timeout),
        members: vec![true; n],
        engine,
        epoch: 0,
        retired: WireStats::default(),
        started: Instant::now(),
    };
    let mut records: Vec<ProtocolRound> = Vec::with_capacity(cfg.rounds);
    let mut t = 0;
    while t < cfg.rounds {
        match master.run_round(t) {
            Ok(record) => {
                records.push(record);
                t += 1;
            }
            Err(Abort::Fatal(e)) => return Err(e),
            Err(Abort::Dead { workers, committed }) => {
                master.fleet.clear_awaiting();
                if let Some(record) = committed {
                    // The engine had committed before the death surfaced:
                    // the round stands and the run continues at t + 1.
                    records.push(*record);
                    t += 1;
                }
                for worker in workers {
                    master.bury(worker, t)?;
                }
            }
        }
    }

    // Orderly shutdown; a worker dying at the very end is not an error,
    // and the linger keeps acking stragglers' retransmissions until they
    // close.
    master.fleet.shutdown(master.cfg.frame_timeout);
    let mut wire = master.retired;
    for conn in master.fleet.links.iter().flatten() {
        wire.absorb(&conn.stats());
    }
    Ok(NetRunReport {
        trace: ProtocolTrace { architecture: "tcp-master-worker-evented", rounds: records },
        final_allocation: master.engine.allocation().clone(),
        epochs: master.epoch,
        members: master.members,
        wire,
        wall_clock: master.started.elapsed().as_secs_f64(),
    })
}
