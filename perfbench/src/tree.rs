//! `tree`: the sharded control plane. `run_root` on the calling thread,
//! two `run_shard_master` threads (M = 2, one worker each) and two
//! `run_worker` threads, over loopback TCP. Worker links and the backbone
//! both drop (p = 0.002) and duplicate (p = 0.001) frames under the
//! shipping retry policy, and the stitched trajectory must equal the
//! sequential engine bitwise.

use crate::inputs::{tree_env, tree_plan, NET_WORKERS, TREE_DROP_P, TREE_DUP_P, TREE_SHARDS};
use crate::net::{self, AlphaAt, NetRound, NetTrajectory};
use crate::report::{Metrics, Outcome};
use crate::stats::{median, quartile_spread, summarize, to_us};
use crate::{procfs, trace};
use dolbie_net::shard::{
    run_root, run_shard_master, RootReport, ShardMasterOptions, ShardRunReport, ShardedConfig,
    ShardedLoopbackRun,
};
use dolbie_net::transport::WireStats;
use dolbie_net::wire::{CursorPhase, Frame};
use dolbie_net::worker::{run_worker, WorkerOptions};
use dolbie_net::NetError;
use std::net::TcpListener;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Rounds of one tree episode.
pub const ROUNDS: usize = 500;

struct Episode {
    run: ShardedLoopbackRun,
    setup_s: f64,
    root_cpu_ns: u64,
    shard_cpu_ns: u64,
    worker_cpu_ns: u64,
}

fn play(cfg: &ShardedConfig) -> Result<Episode, NetError> {
    let root_listener = TcpListener::bind("127.0.0.1:0").map_err(net::io)?;
    let root_addr = root_listener.local_addr().map_err(net::io)?;
    let ready = Arc::new(Barrier::new(TREE_SHARDS + NET_WORKERS + 1));
    let mut shard_handles = Vec::new();
    let mut worker_handles = Vec::new();
    for k in 0..TREE_SHARDS {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(net::io)?;
        let addr = listener.local_addr().map_err(net::io)?;
        let opts = ShardMasterOptions {
            shard: k,
            num_shards: TREE_SHARDS,
            frame_timeout: cfg.frame_timeout,
            backbone_fault: cfg.backbone_fault.clone(),
            die_after_round: None,
            die_mid_round: false,
        };
        let shard_ready = Arc::clone(&ready);
        shard_handles.push(net::spawn_role(
            format!("shard-{k}"),
            "net.shard.run_shard_master",
            move || {
                let root = net::connect_when_ready(root_addr, &shard_ready)?;
                run_shard_master(root, &listener, &opts)
            },
        ));
        // One worker per shard-master: worker k connects to shard k.
        let worker_ready = Arc::clone(&ready);
        worker_handles.push(net::spawn_role(
            format!("worker-{k}"),
            "net.worker.run_worker",
            move || {
                let stream = net::connect_when_ready(addr, &worker_ready)?;
                run_worker(stream, &WorkerOptions::default())
            },
        ));
    }
    // Set-up starts at the call into the program, once every other
    // thread is up and connected.
    ready.wait();
    let call = Instant::now();
    let root = net::timed_call("net.root.run_root", || run_root(&root_listener, cfg));
    let done = call.elapsed().as_secs_f64();
    let mut shards: Vec<ShardRunReport> = Vec::new();
    let mut shard_cpu_ns = 0;
    let mut shard_err = None;
    for h in shard_handles {
        let timed = h.join().expect("shard-master thread panicked");
        shard_cpu_ns += timed.cpu_ns;
        match timed.value {
            Ok(r) => shards.push(r),
            Err(e) => shard_err = Some(e),
        }
    }
    let mut workers = Vec::new();
    let mut worker_cpu_ns = 0;
    for h in worker_handles {
        let timed = h.join().expect("worker thread panicked");
        worker_cpu_ns += timed.cpu_ns;
        workers.push(timed.value);
    }
    let root_report: RootReport = root.value?;
    if let Some(e) = shard_err {
        return Err(e);
    }
    shards.sort_by_key(|s| s.shard);
    let first_commit = root_report.rounds.first().map_or(0.0, |r| r.elapsed);
    let setup_s = done - root_report.wall_clock + first_commit;
    let run = ShardedLoopbackRun { root: root_report, shards, workers };
    Ok(Episode { run, setup_s, root_cpu_ns: root.cpu_ns, shard_cpu_ns, worker_cpu_ns })
}

fn trajectory(run: &ShardedLoopbackRun) -> NetTrajectory {
    let mut stitched = run.allocations();
    let final_shares = net::bits(&stitched.pop().unwrap_or_default());
    let rounds = run
        .root
        .rounds
        .iter()
        .zip(&stitched)
        .map(|(r, alloc)| NetRound {
            allocation: net::bits(alloc),
            straggler: r.straggler,
            global_cost: r.global_cost.to_bits(),
            alpha: r.alpha.to_bits(),
        })
        .collect();
    NetTrajectory { rounds, final_shares }
}

/// Wire counters summed over every endpoint: the root's backbone side,
/// each shard-master's worker links and backbone side, and each worker.
fn all_links(run: &ShardedLoopbackRun) -> WireStats {
    let mut w = run.root.wire;
    for s in &run.shards {
        w.absorb(&s.wire);
        w.absorb(&s.root_wire);
    }
    for r in run.workers.iter().flatten() {
        w.absorb(&r.wire);
    }
    w
}

/// The exact per-episode counters: each round's logical backbone frames
/// and its rescale and refresh flags.
fn exact_counters(run: &ShardedLoopbackRun) -> Vec<u64> {
    run.root
        .rounds
        .iter()
        .flat_map(|r| [r.messages as u64, u64::from(r.rescaled), u64::from(r.refreshed)])
        .collect()
}

/// The envelope totals over all links: retransmissions, acks, duplicates
/// and wire frames. A retransmission fires when an ack is late as well as
/// when it is lost, so these depend on timing as well as on the seed;
/// they are reported with their spread, not held to exact repetition.
fn envelope_counts(run: &ShardedLoopbackRun) -> [u64; 4] {
    let w = all_links(run);
    [w.retransmissions, w.acks, w.duplicates, w.frames_sent + w.frames_received]
}

/// The frames one run put on the wire, rebuilt from its records: the
/// worker protocol inside the retransmission envelope, plus the backbone.
fn frame_mix(run: &ShardedLoopbackRun) -> Vec<Frame> {
    let mut frames = Vec::new();
    let mut seq = 0u64;
    let mut data = |frames: &mut Vec<Frame>, inner: Frame| {
        seq += 1;
        frames.push(Frame::Data { seq, attempt: 0, inner: Box::new(inner) });
        frames.push(Frame::Ack { seq });
    };
    let stitched = run.allocations();
    for (r, alloc) in run.root.rounds.iter().zip(&stitched).take(1000) {
        let round = r.round as u64;
        for (i, &share) in alloc.iter().enumerate() {
            let is_straggler = i == r.straggler;
            data(&mut frames, Frame::RoundStart { epoch: 0, round });
            data(&mut frames, Frame::LocalCost { epoch: 0, round, cost: r.global_cost });
            data(
                &mut frames,
                Frame::Coordination {
                    round,
                    global_cost: r.global_cost,
                    alpha: r.alpha,
                    is_straggler,
                },
            );
            data(&mut frames, Frame::Decision { epoch: 0, round, share, gain: share * r.alpha });
        }
        for _ in 0..TREE_SHARDS {
            data(
                &mut frames,
                Frame::ShardAggregate {
                    round,
                    max_cost: r.global_cost,
                    straggler: r.straggler as u64,
                    share: 0.5,
                },
            );
            data(
                &mut frames,
                Frame::ShardCoord {
                    round,
                    global_cost: r.global_cost,
                    alpha: r.alpha,
                    straggler: r.straggler as u64,
                },
            );
            data(
                &mut frames,
                Frame::ShardCursor {
                    round,
                    phase: CursorPhase::Gains,
                    partial_sum: r.alpha,
                    partial_compensation: 0.0,
                    partial_len: 1,
                    stack: Vec::new(),
                },
            );
            data(
                &mut frames,
                Frame::ShardCommit {
                    round,
                    straggler: r.straggler as u64,
                    straggler_share: 0.5,
                    refresh: r.refreshed,
                },
            );
        }
    }
    frames
}

pub fn run(seed: u64, budget: Duration) -> Outcome {
    let env = tree_env(seed);
    let cfg = ShardedConfig::new(NET_WORKERS, TREE_SHARDS, ROUNDS, env)
        .with_fault_plan(tree_plan(seed, 41))
        .with_backbone_fault_plan(tree_plan(seed, 42));
    let reference = net::reference(env, NET_WORKERS, ROUNDS, AlphaAt::Played);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut intervals_us = Vec::new();
    let mut after_setup_s = 0.0;
    let mut rates = Vec::new();
    let mut timed_rounds = 0u64;
    let mut first_counters: Option<Vec<u64>> = None;
    let mut envelopes: Vec<[u64; 4]> = Vec::new();
    let (mut root_cpu, mut shard_cpu, mut worker_cpu) = (0u64, 0u64, 0u64);
    let mut last_run = None;
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
        let run = &ep.run;
        let mut failed = net::failed_rounds(&reference, &trajectory(run));
        let counters = exact_counters(run);
        let drifted = first_counters.get_or_insert_with(|| counters.clone()) != &counters;
        let workers_ok =
            run.workers.iter().all(|w| w.as_ref().is_ok_and(|w| w.rounds_seen == ROUNDS));
        if drifted || !run.root.epochs.is_empty() || !run.root.dead_shards.is_empty() || !workers_ok
        {
            failed = ROUNDS as u64;
        }
        out.tally.add(ROUNDS as u64, failed);
        setups.push(ep.setup_s);
        envelopes.push(envelope_counts(run));
        if out.peak_rss_mb == 0.0 {
            out.peak_rss_mb = procfs::peak_rss_mib();
        }
        let rounds = &run.root.rounds;
        for w in rounds.windows(2) {
            intervals_us.push((w[1].elapsed - w[0].elapsed) * 1e6);
        }
        if let (Some(first), Some(last)) = (rounds.first(), rounds.last()) {
            after_setup_s += last.elapsed - first.elapsed;
            rates.push((rounds.len() as f64 - 1.0) / (last.elapsed - first.elapsed));
            timed_rounds += rounds.len() as u64 - 1;
        }
        root_cpu += ep.root_cpu_ns;
        shard_cpu += ep.shard_cpu_ns;
        worker_cpu += ep.worker_cpu_ns;
        last_run = Some(ep.run);
    }
    let cpu_s = procfs::process_cpu_s() - cpu0;
    let committed = out.tally.attempted as f64;
    let iv = summarize(&intervals_us);
    let envelope_range = |k: usize| {
        let xs = envelopes.iter().map(|e| e[k]);
        (xs.clone().min().unwrap_or(0), xs.max().unwrap_or(0))
    };
    let envelope_mean = |k: usize| {
        envelopes.iter().map(|e| e[k] as f64).sum::<f64>() / envelopes.len().max(1) as f64
    };

    if let Some(run) = last_run.as_ref().filter(|_| trace::enabled()) {
        let r = ROUNDS as f64;
        let episodes = setups.len() as f64;
        trace::counter("net.rounds", committed);
        trace::counter("net.root.cpu_ns", root_cpu as f64);
        trace::counter("net.shard.cpu_ns", shard_cpu as f64);
        trace::counter("net.worker.cpu_ns", worker_cpu as f64);
        let links: WireStats = run.shards.iter().fold(WireStats::default(), |mut w, s| {
            w.absorb(&s.wire);
            w
        });
        trace::counter(
            "net.wire.frames_per_round",
            (links.frames_sent + links.frames_received) as f64 / r,
        );
        trace::counter(
            "net.wire.bytes_per_round",
            (links.bytes_sent + links.bytes_received) as f64 / r,
        );
        let bb = &run.root.rounds;
        trace::counter(
            "net.backbone.frames_per_round",
            bb.iter().map(|x| x.messages as f64).sum::<f64>() / r,
        );
        trace::counter(
            "net.backbone.bytes_per_round",
            bb.iter().map(|x| x.bytes as f64).sum::<f64>() / r,
        );
        trace::counter("net.envelope.retransmissions", envelope_mean(0) / r);
        trace::counter("net.envelope.acks", envelope_mean(1) / r);
        trace::counter("net.envelope.duplicates", envelope_mean(2) / r);
        let drift = envelopes.iter().filter(|e| **e != envelopes[0]).count();
        trace::counter("net.envelope.drift_episodes", drift as f64);
        // Wall beyond what drop-free rounds explain, per retransmission.
        let excess_s = after_setup_s - timed_rounds as f64 * iv.p50 / 1e6;
        let retrans = envelope_mean(0) * episodes;
        trace::counter(
            "net.envelope.ms_per_retransmission",
            if retrans > 0.0 { excess_s * 1e3 / retrans } else { 0.0 },
        );
        trace::counter("net.root.refresh_rounds", bb.iter().filter(|x| x.refreshed).count() as f64);
        trace::counter("net.root.rescaled_rounds", bb.iter().filter(|x| x.rescaled).count() as f64);
        if !net::codec_probe(&frame_mix(run)) {
            out.tally.add(1, 1);
        }
    }

    let m = &mut out.metrics;
    m.set("setup_s", median(&setups), "s");
    m.set("rounds_per_s", timed_rounds as f64 / after_setup_s, "1/s");
    m.set("rounds_per_s.episode_spread", quartile_spread(&rates), "ratio");
    m.set("round_us_p50", iv.p50, "us");
    m.set("round_us_p99", iv.tail.map_or(0.0, |(_, v)| v), "us");
    m.set("cpu_us_per_round", cpu_s * 1e6 / committed, "us");
    out.record = [
        vec![
            format!(
                "tree: N={NET_WORKERS} workers, M={TREE_SHARDS} shard-masters, drop p={TREE_DROP_P} dup p={TREE_DUP_P} on worker links and backbone, RTO 50 ms; env ChaosMix seed {:#x}; rounds/episode={ROUNDS} episodes={}",
                env.seed,
                setups.len()
            ),
            format!("threads: 1 root (run_root, the caller), {TREE_SHARDS} shard-masters, {NET_WORKERS} workers (one thread, one connection each)"),
            format!("setup (from the call: admission + round 0): {}", summarize(&to_us(&setups)).describe("us")),
            format!("round (RootRound::elapsed deltas, round 0 excluded): {}", iv.describe("us")),
            format!(
                "envelope per episode, min-max over {} episodes: retransmissions {:?} acks {:?} duplicates {:?} frames {:?}",
                envelopes.len(),
                envelope_range(0),
                envelope_range(1),
                envelope_range(2),
                envelope_range(3)
            ),
        ],
        out.record,
    ]
    .concat();
    out
}

/// Per-layer metrics of the root, shard and backbone tier.
pub fn layers(counters: &[trace::Counter], m: &mut Metrics) {
    let rounds = trace::counter_sum(counters, "net.rounds").max(1.0);
    m.set(
        "net.root.cpu_us_per_round",
        trace::counter_sum(counters, "net.root.cpu_ns") / rounds / 1e3,
        "us",
    );
    m.set(
        "net.shard.cpu_us_per_round",
        trace::counter_sum(counters, "net.shard.cpu_ns") / rounds / TREE_SHARDS as f64 / 1e3,
        "us",
    );
    for (name, unit) in [
        ("net.backbone.frames_per_round", "count"),
        ("net.backbone.bytes_per_round", "count"),
        ("net.envelope.retransmissions", "count"),
        ("net.envelope.acks", "count"),
        ("net.envelope.duplicates", "count"),
        ("net.envelope.drift_episodes", "count"),
        ("net.envelope.ms_per_retransmission", "ms"),
        ("net.root.refresh_rounds", "count"),
        ("net.root.rescaled_rounds", "count"),
    ] {
        m.set(name, trace::counter_sum(counters, name), unit);
    }
}
