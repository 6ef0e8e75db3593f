//! The master node role's configuration and report: Algorithm 1's
//! coordinator over real sockets, mirroring the sequential engine
//! bitwise. The coordinator itself is the event loop in
//! [`crate::evented`].
//!
//! The master holds a real [`Dolbie`](dolbie_core::Dolbie) engine and
//! drives it with the gains the workers report
//! ([`Dolbie::observe_reported`](dolbie_core::Dolbie::observe_reported)),
//! so its state after every round is — by the engine's reported-round
//! contract — bitwise identical to a sequential run fed the same costs.
//! Workers hold the authoritative shares; the master's engine is the
//! mirrored bookkeeper that computes the straggler pin, the α schedule,
//! and the rare simplex guard rescale.

use crate::env::WireEnvSpec;
use crate::transport::{WireStats, DEFAULT_FRAME_TIMEOUT};
use dolbie_core::{Allocation, DolbieConfig};
use dolbie_simnet::faults::FaultPlan;
use dolbie_simnet::ProtocolTrace;
use std::time::Duration;

/// Configuration of a master run.
#[derive(Debug, Clone)]
pub struct MasterConfig {
    /// Fleet size `N` (connections to accept before round 0).
    pub num_workers: usize,
    /// Horizon `T`.
    pub rounds: usize,
    /// The seeded environment shipped to the workers in `Welcome`.
    pub env: WireEnvSpec,
    /// Engine configuration (step-size schedule).
    pub dolbie: DolbieConfig,
    /// Socket-layer fault plan; only its drop/duplicate probabilities,
    /// seed, and retry policy apply (crash windows are the business of
    /// real process lifetimes here).
    pub fault: FaultPlan,
    /// Per-frame read deadline; expiry on a worker's socket declares it
    /// dead. Must exceed the fault plan's worst-case retransmission
    /// schedule, or loss delays masquerade as crashes.
    pub frame_timeout: Duration,
}

impl MasterConfig {
    /// A lossless master over `n` workers for `rounds` rounds.
    pub fn new(n: usize, rounds: usize, env: WireEnvSpec) -> Self {
        Self {
            num_workers: n,
            rounds,
            env,
            dolbie: DolbieConfig::new(),
            fault: FaultPlan::none(),
            frame_timeout: DEFAULT_FRAME_TIMEOUT,
        }
    }

    /// Replays `plan` at the socket layer of every connection.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }
}

/// Totals and trajectory of one completed master run.
#[derive(Debug)]
pub struct NetRunReport {
    /// Per-round records in the shared simnet schema (allocation, costs,
    /// straggler, per-round wire accounting, wall-clock timestamps).
    pub trace: ProtocolTrace,
    /// The engine's final allocation.
    pub final_allocation: Allocation,
    /// Membership epochs crossed (0 when no worker died).
    pub epochs: u32,
    /// The final member mask over original worker ids.
    pub members: Vec<bool>,
    /// Run-total wire counters summed over every connection.
    pub wire: WireStats,
    /// Wall-clock seconds from the first round barrier to shutdown.
    pub wall_clock: f64,
}
