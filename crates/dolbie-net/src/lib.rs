//! # dolbie-net
//!
//! A real TCP runtime for DOLBIE's Algorithm 1 (master-worker): versioned
//! length-prefixed wire protocol, `std::net` transport with deadlines
//! and seeded reconnect, deterministic socket-level fault replay, and
//! crash-detected worker loss mapped onto membership epochs.
//!
//! The headline property is **bitwise trajectory parity**: over a
//! lossless link — loopback threads or separate OS processes — the
//! distributed run's allocation sequence is bit-for-bit the sequential
//! [`Dolbie`](dolbie_core::Dolbie) engine's, because
//!
//! 1. every scalar crosses the wire as its exact IEEE-754 bits
//!    ([`wire`]),
//! 2. the workers apply the engine's exact update arithmetic
//!    ([`worker`]), and
//! 3. the master mirrors the rounds through
//!    [`Dolbie::observe_reported`](dolbie_core::Dolbie::observe_reported),
//!    whose reported-round contract guarantees state identical to a
//!    locally observed round ([`master`], [`evented`]).
//!
//! Under a lossy link ([`transport::Link`] replaying a
//! [`FaultPlan`](dolbie_simnet::faults::FaultPlan) at the socket layer),
//! loss only delays frames, so the trajectory is unchanged and the
//! chaos-sweep invariants hold over real I/O.
//!
//! ## Module map
//!
//! - [`wire`] — frames, magic/version handshake, strict decode.
//! - [`mod@env`] — wire-encodable seeded environments.
//! - [`transport`] — framed connections, deadlines, the sans-IO lossy
//!   envelope and its blocking driver, seeded reconnect backoff.
//! - [`master`] / [`worker`] — the two node roles: the master's
//!   configuration and report, and the worker's protocol loop.
//! - [`evented`] — the master itself: non-blocking sockets, concurrent
//!   admission, coalesced broadcasts, timer-wheel deadlines.
//! - `fleet` / `handshake` (crate-internal) — the shared
//!   coordinator-over-a-member-set machinery: connection sweeps (the
//!   envelope's non-blocking driver), timer wheel, and the single
//!   concurrent admission machine, reused by the master, every
//!   shard-master, and the root.
//! - [`shard`] — the two-level control plane: `M` shard-masters each
//!   coordinate `N/M` workers, a root coordinator runs the identical
//!   min-max step over `O(M)` shard aggregates; bitwise identical to
//!   the flat master and the sequential engine.
//! - [`loopback`] — in-process master + workers over 127.0.0.1.
//!
//! The `dolbie_node` binary exposes every role on the command line:
//! `dolbie_node master --listen 127.0.0.1:4100 --workers 4` in one
//! terminal, `dolbie_node worker --connect 127.0.0.1:4100` in the
//! others — or, sharded, `dolbie_node root --listen 127.0.0.1:4200
//! --shards 4 --workers 64` with four `dolbie_node shard` processes
//! between the root and the workers.
//!
//! ## Quick start
//!
//! ```
//! use dolbie_net::env::{EnvKind, WireEnvSpec};
//! use dolbie_net::loopback::{run_loopback, LoopbackOptions};
//! use dolbie_net::master::MasterConfig;
//!
//! let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 7 };
//! let run = run_loopback(&LoopbackOptions::new(MasterConfig::new(3, 10, env))).unwrap();
//! assert_eq!(run.report.trace.rounds.len(), 10);
//! let total: f64 = run.report.final_allocation.iter().sum();
//! assert!((total - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod evented;
pub(crate) mod fleet;
pub(crate) mod handshake;
pub mod loopback;
pub mod master;
pub mod shard;
pub mod transport;
pub mod wire;
pub mod worker;

use transport::TransportError;

/// A runtime failure of either node role.
#[derive(Debug)]
pub enum NetError {
    /// The socket layer failed (I/O, malformed bytes, raw protocol
    /// violations).
    Transport(TransportError),
    /// The peer spoke well-formed frames out of protocol order.
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Transport(e) => write!(f, "transport: {e}"),
            Self::Protocol(what) => write!(f, "protocol: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<TransportError> for NetError {
    fn from(e: TransportError) -> Self {
        Self::Transport(e)
    }
}
