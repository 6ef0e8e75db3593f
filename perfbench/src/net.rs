//! What the two TCP workloads share: the sequential reference, the
//! bitwise round comparison, role threads with per-thread CPU readings,
//! and the codec timing over a run's own frame mix.

use crate::report::Metrics;
use crate::{procfs, trace};
use dolbie_core::{Dolbie, Environment, LoadBalancer, Observation};
use dolbie_net::env::WireEnvSpec;
use dolbie_net::transport::{FrameCodec, TransportError};
use dolbie_net::wire::Frame;
use dolbie_net::NetError;
use std::hint::black_box;
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::thread::JoinHandle;

/// One committed round, as bits.
#[derive(Debug, Clone, PartialEq)]
pub struct NetRound {
    pub allocation: Vec<u64>,
    pub straggler: usize,
    pub global_cost: u64,
    pub alpha: u64,
}

/// A run's trajectory: its committed rounds and the final shares.
#[derive(Debug, Clone, PartialEq)]
pub struct NetTrajectory {
    pub rounds: Vec<NetRound>,
    pub final_shares: Vec<u64>,
}

/// Which step size a tier reports per round: the one the round was
/// played with (the root) or the engine's after the round (the flat
/// master's `ProtocolRound::alpha`).
#[derive(Debug, Clone, Copy)]
pub enum AlphaAt {
    Played,
    After,
}

pub fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The sequential engine on the same environment: the reference both TCP
/// workloads must equal bit for bit.
pub fn reference(env: WireEnvSpec, n: usize, rounds: usize, alpha_at: AlphaAt) -> NetTrajectory {
    let mut engine = Dolbie::new(n);
    let mut driver = env.environment(n);
    let mut out = Vec::with_capacity(rounds);
    for t in 0..rounds {
        let costs = driver.reveal(t);
        let played = engine.allocation().clone();
        let obs = Observation::from_costs(t, &played, &costs);
        let (straggler, global_cost) = (obs.straggler(), obs.global_cost().to_bits());
        let before = engine.alpha();
        engine.observe(&obs);
        let alpha = match alpha_at {
            AlphaAt::Played => engine.alphas_used().last().copied().unwrap_or(before),
            AlphaAt::After => engine.alpha(),
        };
        out.push(NetRound {
            allocation: bits(played.as_slice()),
            straggler,
            global_cost,
            alpha: alpha.to_bits(),
        });
    }
    NetTrajectory { rounds: out, final_shares: bits(engine.allocation().as_slice()) }
}

/// Rounds of `got` that fail against `reference`: never committed, or
/// not bitwise equal. Different final shares fail every round.
pub fn failed_rounds(reference: &NetTrajectory, got: &NetTrajectory) -> u64 {
    let n = reference.rounds.len();
    if got.final_shares != reference.final_shares {
        return n as u64;
    }
    (0..n).filter(|&t| got.rounds.get(t) != Some(&reference.rounds[t])).count() as u64
}

pub fn io(e: std::io::Error) -> NetError {
    NetError::Transport(TransportError::from(e))
}

/// Connects to `addr`, then waits until every thread of the episode has
/// done the same (even if this connect failed, so no thread is left
/// waiting).
pub fn connect_when_ready(addr: SocketAddr, ready: &Barrier) -> Result<TcpStream, NetError> {
    let stream = TcpStream::connect(addr);
    ready.wait();
    stream.map_err(io)
}

/// A role thread's result plus its own CPU nanoseconds over the call.
pub struct Timed<T> {
    pub value: T,
    pub cpu_ns: u64,
}

/// Runs `f` under a span named after the layer call, reading this
/// thread's schedstat around it.
pub fn timed_call<T>(name: &'static str, f: impl FnOnce() -> T) -> Timed<T> {
    let cpu0 = procfs::thread_cpu_ns();
    let value = {
        let _s = trace::span(name);
        f()
    };
    Timed { value, cpu_ns: procfs::thread_cpu_ns() - cpu0 }
}

/// Spawns a named role thread running [`timed_call`].
pub fn spawn_role<T: Send + 'static>(
    thread: String,
    span: &'static str,
    f: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<Timed<T>> {
    std::thread::Builder::new()
        .name(thread)
        .spawn(move || timed_call(span, f))
        .expect("spawn a role thread")
}

/// Times `Frame::encode` and `FrameCodec::ingest` + `pop_frame` over
/// `frames` (a run's own frame mix), each under one span, recording the
/// frame count as a counter. Frames are ingested one at a time, as a
/// socket read of a round's traffic delivers them. Returns false if a
/// frame fails to decode back to itself.
pub fn codec_probe(frames: &[Frame]) -> bool {
    trace::counter("net.wire.codec_frames", frames.len() as f64);
    let encoded: Vec<Vec<u8>> = {
        let _s = trace::span("net.wire.encode");
        frames.iter().map(|f| black_box(f.encode())).collect()
    };
    let mut decoded = Vec::with_capacity(frames.len());
    {
        let _s = trace::span("net.wire.decode");
        let mut codec = FrameCodec::new();
        for bytes in &encoded {
            codec.ingest(bytes);
            if let Ok(Some(frame)) = codec.pop_frame() {
                decoded.push(frame);
            }
        }
    }
    decoded == frames
}

/// Nanoseconds per frame of the codec spans, for the layer metrics.
pub fn codec_ns(spans: &[trace::Span], counters: &[trace::Counter], which: &str) -> f64 {
    let frames = trace::counter_sum(counters, "net.wire.codec_frames");
    let ns: f64 = trace::durations(spans, which).iter().sum();
    if frames > 0.0 {
        ns / frames
    } else {
        0.0
    }
}

/// Per-layer metrics shared by `fleet` and `tree`: thread CPU of each
/// role, the codec, and the wire counters.
pub fn layers(spans: &[trace::Span], counters: &[trace::Counter], m: &mut Metrics) {
    let rounds = trace::counter_sum(counters, "net.rounds").max(1.0);
    let master_cpu = trace::counter_sum(counters, "net.master.cpu_ns");
    let master_wall = trace::counter_sum(counters, "net.master.wall_ns");
    m.set("net.master.cpu_us_per_round", master_cpu / rounds / 1e3, "us");
    m.set(
        "net.master.busy_share",
        if master_wall > 0.0 { master_cpu / master_wall } else { 0.0 },
        "ratio",
    );
    m.set(
        "net.worker.cpu_us_per_round",
        trace::counter_sum(counters, "net.worker.cpu_ns")
            / rounds
            / crate::inputs::NET_WORKERS as f64
            / 1e3,
        "us",
    );
    m.set(
        "net.wire.frames_per_round",
        trace::counter_sum(counters, "net.wire.frames_per_round"),
        "count",
    );
    m.set(
        "net.wire.bytes_per_round",
        trace::counter_sum(counters, "net.wire.bytes_per_round"),
        "count",
    );
    m.set("net.wire.encode_ns", codec_ns(spans, counters, "net.wire.encode"), "ns");
    m.set("net.wire.decode_ns", codec_ns(spans, counters, "net.wire.decode"), "ns");
}

#[cfg(test)]
mod tests {
    use super::*;
    use dolbie_net::env::EnvKind;

    #[test]
    fn the_reference_is_deterministic() {
        let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 9 };
        let a = reference(env, 2, 50, AlphaAt::After);
        assert_eq!(a, reference(env, 2, 50, AlphaAt::After));
        assert_eq!(a.rounds.len(), 50);
    }

    #[test]
    fn one_flipped_reference_bit_fails_a_round() {
        let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 9 };
        let got = reference(env, 2, 50, AlphaAt::Played);
        let mut flipped = got.clone();
        flipped.rounds[17].allocation[1] ^= 1;
        assert_eq!(failed_rounds(&flipped, &got), 1);
        let mut flipped = got.clone();
        flipped.final_shares[0] ^= 1;
        assert_eq!(failed_rounds(&flipped, &got), 50);
        let mut short = got.clone();
        short.rounds.truncate(45);
        assert_eq!(failed_rounds(&got, &short), 5);
    }

    #[test]
    fn the_codec_round_trips_a_frame_mix() {
        let frames = vec![
            Frame::RoundStart { epoch: 0, round: 3 },
            Frame::LocalCost { epoch: 0, round: 3, cost: 0.25 },
            Frame::Coordination { round: 3, global_cost: 0.5, alpha: 0.1, is_straggler: true },
            Frame::Ack { seq: 9 },
        ];
        assert!(codec_probe(&frames));
    }
}
