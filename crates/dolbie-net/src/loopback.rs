//! In-process loopback runs: a real TCP master and `N` real TCP workers
//! on OS threads, all over 127.0.0.1 — the harness behind the parity and
//! chaos tests, the tier-1 smoke, and the `net_scale` experiment.
//!
//! Nothing here is simulated: the bytes cross the kernel's loopback
//! interface through the same wire/transport/master/worker code paths the
//! multi-process `dolbie_node` binary uses. Worker threads run on small
//! fixed stacks and connect under the N-scaled
//! [`connect_schedule`], so fleets of
//! thousands neither exhaust memory nor trample the OS listen backlog.

use crate::evented::run_master_evented;
use crate::master::{MasterConfig, NetRunReport};
use crate::transport::{connect_schedule, connect_with_backoff};
use crate::worker::{run_worker, WorkerOptions, WorkerReport};
use crate::NetError;
use std::net::TcpListener;
use std::time::Duration;

/// Worker threads carry tiny state (one connection, a few scalars); a
/// small fixed stack lets a 4096-thread fleet fit comfortably.
const WORKER_STACK_BYTES: usize = 256 * 1024;

/// Options of one loopback run.
#[derive(Debug, Clone)]
pub struct LoopbackOptions {
    /// The master's configuration (fleet size, horizon, environment,
    /// fault plan, deadlines).
    pub master: MasterConfig,
    /// Worker-side options, shared by every worker thread.
    pub worker: WorkerOptions,
    /// Kills worker-thread `k` right after it reports its local cost of
    /// the given round (crash-path testing). Note worker ids are assigned
    /// in admission order, so the *wire* id of the killed worker may
    /// differ from `k`; the round is what matters.
    pub kill: Option<(usize, usize)>,
    /// Stalls worker-thread `k` after it reports its local cost of the
    /// given round: silent, socket open, for the given hold. Several
    /// entries stall several workers at once — the head-of-line
    /// regression scenario.
    pub stalls: Vec<(usize, usize, Duration)>,
}

impl LoopbackOptions {
    /// A lossless loopback run from a master configuration.
    pub fn new(master: MasterConfig) -> Self {
        Self { master, worker: WorkerOptions::default(), kill: None, stalls: Vec::new() }
    }
}

/// The master's report plus every worker thread's outcome.
#[derive(Debug)]
pub struct LoopbackRun {
    /// The master-side run report (trajectory, epochs, wire totals).
    pub report: NetRunReport,
    /// Per-thread worker outcomes; a deliberately killed or stalled
    /// worker reports through its injected early return, so `Err` here
    /// means a genuine failure.
    pub workers: Vec<Result<WorkerReport, NetError>>,
}

/// Runs master + `N` workers over loopback TCP, master on the calling
/// thread, and reaps everything before returning.
pub fn run_loopback(opts: &LoopbackOptions) -> Result<LoopbackRun, NetError> {
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(crate::transport::TransportError::from)?;
    let addr = listener.local_addr().map_err(crate::transport::TransportError::from)?;
    let n = opts.master.num_workers;

    let mut handles = Vec::with_capacity(n);
    for k in 0..n {
        let mut worker_opts = opts.worker.clone();
        if let Some((victim, round)) = opts.kill {
            if victim == k {
                worker_opts.die_after_round = Some(round);
            }
        }
        for &(victim, round, hold) in &opts.stalls {
            if victim == k {
                worker_opts.stall_after_round = Some((round, hold));
            }
        }
        let (attempts, base, stagger) = connect_schedule(n, k);
        let handle = std::thread::Builder::new()
            .name(format!("dolbie-worker-{k}"))
            .stack_size(WORKER_STACK_BYTES)
            .spawn(move || -> Result<WorkerReport, NetError> {
                if !stagger.is_zero() {
                    // Spread the SYN herd across the accept loop's
                    // capacity instead of a single instant.
                    std::thread::sleep(stagger);
                }
                let stream = connect_with_backoff(addr, attempts, base, k as u64)
                    .map_err(crate::transport::TransportError::from)?;
                run_worker(stream, &worker_opts)
            })
            .map_err(crate::transport::TransportError::from)?;
        handles.push(handle);
    }

    let master_result = run_master_evented(&listener, &opts.master);
    let workers: Vec<Result<WorkerReport, NetError>> = handles
        .into_iter()
        .map(|h| {
            h.join().unwrap_or_else(|_| Err(NetError::Protocol("worker thread panicked".into())))
        })
        .collect();
    Ok(LoopbackRun { report: master_result?, workers })
}
