//! `fleet`: the flat event-driven master (`run_master_evented`) with two
//! `run_worker` threads over lossless loopback TCP, in the chaos-mix
//! environment. Every round must equal the sequential engine bitwise,
//! with zero membership epochs.

use crate::inputs::{fleet_env, NET_WORKERS};
use crate::net::{self, AlphaAt, NetRound, NetTrajectory};
use crate::report::Outcome;
use crate::stats::{median, quartile_spread, summarize, to_us};
use crate::{procfs, trace};
use dolbie_net::evented::run_master_evented;
use dolbie_net::master::{MasterConfig, NetRunReport};
use dolbie_net::wire::Frame;
use dolbie_net::worker::{run_worker, WorkerOptions, WorkerReport};
use dolbie_net::NetError;
use std::net::TcpListener;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Rounds of one fleet episode (one admission, then this many rounds).
pub const ROUNDS: usize = 1000;
/// A round interval above this is the signature of the readiness loop's
/// idle sleep.
const SLOW_ROUND_US: f64 = 500.0;

struct Episode {
    report: NetRunReport,
    workers: Vec<Result<WorkerReport, NetError>>,
    setup_s: f64,
    master_cpu_ns: u64,
    master_wall_s: f64,
    worker_cpu_ns: u64,
}

fn play(cfg: &MasterConfig) -> Result<Episode, NetError> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(net::io)?;
    let addr = listener.local_addr().map_err(net::io)?;
    let ready = Arc::new(Barrier::new(NET_WORKERS + 1));
    let handles: Vec<_> = (0..NET_WORKERS)
        .map(|k| {
            let ready = Arc::clone(&ready);
            net::spawn_role(format!("worker-{k}"), "net.worker.run_worker", move || {
                run_worker(net::connect_when_ready(addr, &ready)?, &WorkerOptions::default())
            })
        })
        .collect();
    // Set-up starts at the call into the program, once the load threads
    // are up and connected.
    ready.wait();
    let call = Instant::now();
    let master =
        net::timed_call("net.master.run_master_evented", || run_master_evented(&listener, cfg));
    let master_wall_s = call.elapsed().as_secs_f64();
    let mut workers = Vec::new();
    let mut worker_cpu_ns = 0;
    for h in handles {
        let timed = h.join().expect("worker thread panicked");
        worker_cpu_ns += timed.cpu_ns;
        workers.push(timed.value);
    }
    let report = master.value?;
    // Admission ends where the master's clock starts; the first timed
    // round starts at round 0's commit.
    let first_commit = report.trace.rounds.first().map_or(0.0, |r| r.control_finished);
    let setup_s = master_wall_s - report.wall_clock + first_commit;
    Ok(Episode {
        report,
        workers,
        setup_s,
        master_cpu_ns: master.cpu_ns,
        master_wall_s,
        worker_cpu_ns,
    })
}

fn trajectory(report: &NetRunReport) -> NetTrajectory {
    NetTrajectory {
        rounds: report
            .trace
            .rounds
            .iter()
            .map(|r| NetRound {
                allocation: net::bits(r.allocation.as_slice()),
                straggler: r.straggler,
                global_cost: r.global_cost.to_bits(),
                alpha: r.alpha.to_bits(),
            })
            .collect(),
        final_shares: net::bits(report.final_allocation.as_slice()),
    }
}

/// The exact per-episode counters: logical messages and wire bytes of
/// every round, then the run totals.
fn exact_counters(report: &NetRunReport) -> Vec<u64> {
    let w = &report.wire;
    let mut v: Vec<u64> =
        report.trace.rounds.iter().flat_map(|r| [r.messages as u64, r.bytes as u64]).collect();
    v.extend([
        w.frames_sent,
        w.frames_received,
        w.bytes_sent,
        w.bytes_received,
        w.retransmissions,
        w.acks,
        w.duplicates,
    ]);
    v
}

/// The frames one run put on the wire, rebuilt from its records.
fn frame_mix(report: &NetRunReport) -> Vec<Frame> {
    let mut frames = Vec::new();
    for r in report.trace.rounds.iter().take(1000) {
        let round = r.round as u64;
        for i in 0..r.allocation.num_workers() {
            let share = r.allocation.share(i);
            let is_straggler = i == r.straggler;
            frames.push(Frame::RoundStart { epoch: 0, round });
            frames.push(Frame::LocalCost { epoch: 0, round, cost: r.local_costs[i] });
            frames.push(Frame::Coordination {
                round,
                global_cost: r.global_cost,
                alpha: r.alpha,
                is_straggler,
            });
            frames.push(if is_straggler {
                Frame::Assignment { round, share }
            } else {
                Frame::Decision { epoch: 0, round, share, gain: share * r.alpha }
            });
        }
    }
    frames
}

pub fn run(seed: u64, budget: Duration) -> Outcome {
    let env = fleet_env(seed);
    let cfg = MasterConfig::new(NET_WORKERS, ROUNDS, env);
    let reference = net::reference(env, NET_WORKERS, ROUNDS, AlphaAt::After);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut intervals_us = Vec::new();
    let mut cost_phase_us = Vec::new();
    let mut decision_phase_us = Vec::new();
    let mut after_setup_s = 0.0;
    let mut rates = Vec::new();
    let mut timed_rounds = 0u64;
    let mut first_counters: Option<Vec<u64>> = None;
    let (mut master_cpu, mut master_wall, mut worker_cpu) = (0u64, 0.0, 0u64);
    let mut last_report = None;
    let cpu0 = procfs::process_cpu_s();
    let started = Instant::now();
    while out.tally.attempted == 0 || started.elapsed() < budget {
        let ep = match play(&cfg) {
            Ok(ep) => ep,
            Err(e) => {
                out.record.push(format!("episode failed: {e}"));
                out.tally.add(ROUNDS as u64, ROUNDS as u64);
                continue;
            }
        };
        let rounds = &ep.report.trace.rounds;
        let mut failed = net::failed_rounds(&reference, &trajectory(&ep.report));
        let counters = exact_counters(&ep.report);
        let drifted = first_counters.get_or_insert_with(|| counters.clone()) != &counters;
        let workers_ok = ep.workers.iter().all(|w| {
            w.as_ref().is_ok_and(|w| {
                w.rounds_seen == ROUNDS
                    && w.final_share.to_bits() == reference.final_shares[w.worker_id]
            })
        });
        if drifted || ep.report.epochs != 0 || !workers_ok {
            failed = ROUNDS as u64;
        }
        out.tally.add(ROUNDS as u64, failed);
        setups.push(ep.setup_s);
        if out.peak_rss_mb == 0.0 {
            out.peak_rss_mb = procfs::peak_rss_mib();
        }
        for w in rounds.windows(2) {
            intervals_us.push((w[1].control_finished - w[0].control_finished) * 1e6);
            cost_phase_us.push((w[1].compute_finished - w[0].control_finished) * 1e6);
            decision_phase_us.push((w[1].control_finished - w[1].compute_finished) * 1e6);
        }
        if let (Some(first), Some(last)) = (rounds.first(), rounds.last()) {
            after_setup_s += last.control_finished - first.control_finished;
            rates.push(
                (rounds.len() as f64 - 1.0) / (last.control_finished - first.control_finished),
            );
            timed_rounds += rounds.len() as u64 - 1;
        }
        master_cpu += ep.master_cpu_ns;
        master_wall += ep.master_wall_s;
        worker_cpu += ep.worker_cpu_ns;
        last_report = Some(ep.report);
    }
    let cpu_s = procfs::process_cpu_s() - cpu0;
    let committed = out.tally.attempted as f64;

    if let Some(report) = last_report.as_ref().filter(|_| trace::enabled()) {
        trace::counter("net.master.cpu_ns", master_cpu as f64);
        trace::counter("net.master.wall_ns", master_wall * 1e9);
        trace::counter("net.worker.cpu_ns", worker_cpu as f64);
        trace::counter("net.rounds", committed);
        let w = &report.wire;
        trace::counter(
            "net.wire.frames_per_round",
            (w.frames_sent + w.frames_received) as f64 / ROUNDS as f64,
        );
        trace::counter(
            "net.wire.bytes_per_round",
            (w.bytes_sent + w.bytes_received) as f64 / ROUNDS as f64,
        );
        if !net::codec_probe(&frame_mix(report)) {
            out.tally.add(1, 1);
        }
    }

    let iv = summarize(&intervals_us);
    let slow = intervals_us.iter().filter(|&&x| x > SLOW_ROUND_US).count();
    let m = &mut out.metrics;
    m.set("setup_s", median(&setups), "s");
    m.set("rounds_per_s", timed_rounds as f64 / after_setup_s, "1/s");
    m.set("rounds_per_s.episode_spread", quartile_spread(&rates), "ratio");
    m.set("round_us_p50", iv.p50, "us");
    m.set("round_us_p99", iv.tail.map_or(0.0, |(_, v)| v), "us");
    m.set("cpu_us_per_round", cpu_s * 1e6 / committed, "us");
    m.set("net.phase.cost_us_p50", median(&cost_phase_us), "us");
    m.set("net.phase.decision_us_p50", median(&decision_phase_us), "us");
    m.set("net.slow_round_share", slow as f64 / intervals_us.len().max(1) as f64, "ratio");
    out.record = [
        vec![
            format!(
                "fleet: N={NET_WORKERS} workers, lossless, env ChaosMix seed {:#x}; rounds/episode={ROUNDS} episodes={}",
                env.seed,
                setups.len()
            ),
            format!("threads: 1 master (run_master_evented, the caller), {NET_WORKERS} workers (one thread, one connection each)"),
            format!("setup (from the call: admission + round 0): {}", summarize(&to_us(&setups)).describe("us")),
            format!("round (control_finished deltas, round 0 excluded): {}", iv.describe("us")),
            format!("rounds over {SLOW_ROUND_US} us: {slow} of {}", intervals_us.len()),
        ],
        out.record,
    ]
    .concat();
    out
}
