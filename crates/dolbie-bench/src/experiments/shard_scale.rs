//! Experiment X6 (extension): the sharded hierarchical control plane.
//!
//! The flat master — blocking or evented — fans every round through one
//! process: `Θ(N)` frames in, `Θ(N)` frames out, every per-worker scalar
//! crossing one socket set. The two-level plane puts `M` shard-masters
//! between the fleet and a root coordinator that sees only shard-level
//! aggregates, so the root's per-round work is `O(M)` frames regardless
//! of `N`. This sweep measures that claim on real loopback TCP at
//! N = 4096: the flat evented master as the baseline, then the sharded
//! plane at M ∈ {1, 4, 16}, recording per-round latency and the
//! coordinator's per-round frame count. Latency methodology: one untimed
//! warm-up run, then every scenario measured three times in alternating
//! order with the median-steady rep recorded, and per-round latency
//! taken steady-state (the coordinator's own round timestamps, round 0
//! excluded — it absorbs worker admission). Results land in
//! `results/shard_scale.csv` and `BENCH_shard.json` (schema mirrors
//! `BENCH_large_n.json`).
//!
//! Every row is also a correctness gate: the trajectory is checked
//! bitwise against the sequential engine before the row is emitted, so
//! the CSV cannot claim latency for a run that diverged. The quick
//! variant (tier-1 smoke) runs the same gates at N = 64 and writes
//! `results/shard_scale_quick.csv`, never clobbering the full
//! measurement.

use crate::common::{emit_csv, workspace_root};
use crate::harness;
use dolbie_core::{run_episode, Allocation, Dolbie, DolbieConfig, EpisodeOptions, LoadBalancer};
use dolbie_metrics::Table;
use dolbie_net::env::{EnvKind, WireEnvSpec};
use dolbie_net::loopback::{run_loopback, LoopbackOptions};
use dolbie_net::master::MasterConfig;
use dolbie_net::shard::{run_sharded_loopback, ShardedConfig};

const ENV_SEED: u64 = 0xD01B_54A2;

/// One measured configuration: the flat evented master (`shards == 0`)
/// or the two-level plane at `shards` shard-masters.
struct Row {
    architecture: &'static str,
    n: usize,
    shards: usize,
    rounds: usize,
    seconds: f64,
    /// Steady-state per-round latency in ms: the coordinator's own
    /// per-round timestamps, first round excluded. Round 0 is the warm-up
    /// round — for the sharded plane it additionally absorbs the
    /// shard-masters' worker admission (the root's clock starts when the
    /// backbone is up, before the shards have admitted their fleets), so
    /// including it would charge connection setup to the protocol.
    steady_ms_per_round: f64,
    /// Logical frames the coordinator (flat master or root) exchanged
    /// per round — the fan-in quantity the sharded tier collapses.
    coordinator_frames_per_round: f64,
    bitwise_match: bool,
}

impl Row {
    fn per_round_ms(&self) -> f64 {
        self.seconds * 1e3 / self.rounds.max(1) as f64
    }
}

/// Steady-state ms/round from a monotone per-round timestamp series
/// (seconds since the coordinator started), excluding the first round.
fn steady_ms(stamps: &[f64]) -> f64 {
    assert!(stamps.len() >= 2, "steady-state latency needs at least two rounds");
    (stamps[stamps.len() - 1] - stamps[0]) * 1e3 / (stamps.len() - 1) as f64
}

/// The rep with the median steady-state latency — the whole row, so
/// every reported field comes from one coherent run.
fn median_row(mut reps: Vec<Row>) -> Row {
    assert!(!reps.is_empty(), "at least one rep per scenario");
    reps.sort_by(|a, b| {
        a.steady_ms_per_round.partial_cmp(&b.steady_ms_per_round).expect("finite latency")
    });
    let mid = (reps.len() - 1) / 2;
    reps.swap_remove(mid)
}

fn sequential_reference(env: WireEnvSpec, n: usize, rounds: usize) -> Vec<Vec<f64>> {
    let mut sequential = Dolbie::with_config(Allocation::uniform(n), DolbieConfig::new());
    let mut driver = env.environment(n);
    let trace = run_episode(&mut sequential, &mut driver, EpisodeOptions::new(rounds));
    let mut out: Vec<Vec<f64>> =
        trace.records.iter().map(|r| r.allocation.iter().copied().collect()).collect();
    out.push(sequential.allocation().iter().copied().collect());
    out
}

fn flat_scenario(n: usize, rounds: usize, reference: &[Vec<f64>]) -> Row {
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: ENV_SEED + n as u64 };
    let opts = LoopbackOptions::new(MasterConfig::new(n, rounds, env));
    let run = run_loopback(&opts).expect("flat evented fleet");
    let report = &run.report;
    assert_eq!(report.trace.rounds.len(), rounds);
    assert_eq!(report.epochs, 0);
    let bitwise = report.trace.rounds.iter().enumerate().all(|(t, round)| {
        (0..n).all(|i| round.allocation.share(i).to_bits() == reference[t][i].to_bits())
    }) && (0..n)
        .all(|i| report.final_allocation.share(i).to_bits() == reference[rounds][i].to_bits());
    assert!(bitwise, "flat evented run diverged from the sequential engine at N = {n}");
    let frames: usize = report.trace.rounds.iter().map(|r| r.messages).sum();
    let stamps: Vec<f64> = report.trace.rounds.iter().map(|r| r.control_finished).collect();
    Row {
        architecture: "flat-evented",
        n,
        shards: 0,
        rounds,
        seconds: report.wall_clock,
        steady_ms_per_round: steady_ms(&stamps),
        coordinator_frames_per_round: frames as f64 / rounds as f64,
        bitwise_match: bitwise,
    }
}

fn sharded_scenario(n: usize, m: usize, rounds: usize, reference: &[Vec<f64>]) -> Row {
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: ENV_SEED + n as u64 };
    let cfg = ShardedConfig::new(n, m, rounds, env);
    let run = run_sharded_loopback(&cfg).expect("sharded fleet");
    assert_eq!(run.root.rounds.len(), rounds);
    let stitched = run.allocations();
    let bitwise = stitched
        .iter()
        .zip(reference)
        .all(|(flat, expected)| flat.iter().zip(expected).all(|(a, b)| a.to_bits() == b.to_bits()));
    assert!(bitwise, "sharded run diverged from the sequential engine at N = {n}, M = {m}");
    let frames: usize = run.root.rounds.iter().map(|r| r.messages).sum();
    let stamps: Vec<f64> = run.root.rounds.iter().map(|r| r.elapsed).collect();
    Row {
        architecture: "sharded",
        n,
        shards: m,
        rounds,
        seconds: run.root.wall_clock,
        steady_ms_per_round: steady_ms(&stamps),
        coordinator_frames_per_round: frames as f64 / rounds as f64,
        bitwise_match: bitwise,
    }
}

fn write_bench_json(rows: &[Row], quick: bool, reps: usize) {
    let path = if quick {
        let dir = workspace_root().join("results");
        let _ = std::fs::create_dir_all(&dir);
        dir.join("shard_quick.json")
    } else {
        workspace_root().join("BENCH_shard.json")
    };
    let cpu_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let threads = harness::threads();
    let mut body = String::from("{\n");
    body.push_str(&format!("  \"cpu_cores\": {cpu_cores},\n"));
    body.push_str(&format!("  \"threads\": {threads},\n"));
    body.push_str(&format!("  \"quick\": {quick},\n"));
    body.push_str(&format!("  \"reps_per_scenario\": {reps},\n"));
    body.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"architecture\": \"{}\", \"n\": {}, \"shards\": {}, \"rounds\": {}, \
             \"seconds\": {:.3}, \"per_round_ms\": {:.2}, \"steady_ms_per_round\": {:.2}, \
             \"coordinator_frames_per_round\": {:.1}, \"bitwise_match\": {}}}{}\n",
            row.architecture,
            row.n,
            row.shards,
            row.rounds,
            row.seconds,
            row.per_round_ms(),
            row.steady_ms_per_round,
            row.coordinator_frames_per_round,
            row.bitwise_match,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    body.push_str("  ]\n}\n");
    match std::fs::write(&path, body) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("  failed to write {}: {e}", path.display()),
    }
    if cpu_cores == 1 {
        eprintln!(
            "  [warn] this machine reports 1 CPU core: shard-masters time-slice one core, so \
             latency gains come from cheaper sweeps, not parallelism"
        );
    }
}

/// Runs the sweep and writes `results/<name>.csv` plus the JSON record.
pub fn shard_scale_named(name: &str, quick: bool) {
    println!("== sharded control-plane sweep ({}) ==", if quick { "quick" } else { "full" });
    let (n, rounds, shard_counts): (usize, usize, &[usize]) =
        if quick { (64, 30, &[1, 4]) } else { (4096, 30, &[1, 4, 16]) };
    let reference = sequential_reference(
        WireEnvSpec { kind: EnvKind::ChaosMix, seed: ENV_SEED + n as u64 },
        n,
        rounds,
    );

    // Pair-fair measurement. A single pass (flat first, largest M last)
    // would bill the process's first-run costs — allocator growth, page
    // cache, scheduler warm-up — entirely to the flat baseline, and any
    // ambient container noise entirely to whichever scenario it landed
    // on. Instead: one untimed warm-up run, then every scenario measured
    // `reps` times in alternating order, each reporting its
    // median-steady rep. The quick smoke keeps a single pass — it gates
    // correctness, not latency.
    let reps = if quick { 1 } else { 3 };
    if !quick {
        let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: ENV_SEED + n as u64 };
        let warm = LoopbackOptions::new(MasterConfig::new(n, 3, env));
        let _ = run_loopback(&warm).expect("warm-up fleet");
    }
    let mut flat_reps: Vec<Row> = Vec::new();
    let mut sharded_reps: Vec<Vec<Row>> = shard_counts.iter().map(|_| Vec::new()).collect();
    for _ in 0..reps {
        flat_reps.push(flat_scenario(n, rounds, &reference));
        for (j, &m) in shard_counts.iter().enumerate() {
            sharded_reps[j].push(sharded_scenario(n, m, rounds, &reference));
        }
    }
    let mut rows = vec![median_row(flat_reps)];
    rows.extend(sharded_reps.into_iter().map(median_row));

    let mut table = Table::new(vec![
        "architecture",
        "n",
        "shards",
        "rounds",
        "wall_clock_s",
        "per_round_ms",
        "steady_ms_per_round",
        "coordinator_frames_per_round",
        "bitwise_vs_sequential",
    ]);
    for row in &rows {
        table.push_row(vec![
            row.architecture.to_string(),
            row.n.to_string(),
            row.shards.to_string(),
            row.rounds.to_string(),
            format!("{:.3}", row.seconds),
            format!("{:.2}", row.per_round_ms()),
            format!("{:.2}", row.steady_ms_per_round),
            format!("{:.1}", row.coordinator_frames_per_round),
            if row.bitwise_match { "yes" } else { "no" }.to_string(),
        ]);
        println!(
            "  {}{}@N={}: {} rounds in {:.3} s — {:.2} ms/round steady-state \
             ({:.2} ms/round incl. warm-up), {:.1} coordinator frames/round, \
             bitwise vs sequential: yes",
            row.architecture,
            if row.shards > 0 { format!("(M={})", row.shards) } else { String::new() },
            row.n,
            row.rounds,
            row.seconds,
            row.steady_ms_per_round,
            row.per_round_ms(),
            row.coordinator_frames_per_round,
        );
    }
    emit_csv(&table, name);
    write_bench_json(&rows, quick, reps);

    // The headline claims, asserted so the sweep is a gate and not just
    // a printout: the root's fan-in is O(M) — at the largest M it must
    // still sit far below the flat master's Θ(N) frame count.
    let flat = &rows[0];
    let largest = rows.last().expect("at least one sharded row");
    assert!(
        largest.coordinator_frames_per_round * 8.0 < flat.coordinator_frames_per_round,
        "root fan-in ({:.1}/round at M={}) is not clearly below the flat master's ({:.1}/round)",
        largest.coordinator_frames_per_round,
        largest.shards,
        flat.coordinator_frames_per_round,
    );
    println!(
        "  root fan-in at M={}: {:.1} frames/round vs the flat master's {:.1} — O(M), not O(N).",
        largest.shards, largest.coordinator_frames_per_round, flat.coordinator_frames_per_round,
    );
    println!(
        "  steady per-round latency at N={}: sharded M={} {:.2} ms vs flat {:.2} ms ({}).",
        largest.n,
        largest.shards,
        largest.steady_ms_per_round,
        flat.steady_ms_per_round,
        if largest.steady_ms_per_round < flat.steady_ms_per_round {
            "sharded wins"
        } else {
            "flat wins"
        },
    );
}

/// The default entry point: `results/shard_scale.csv` for the full
/// sweep, `results/shard_scale_quick.csv` for the quick smoke.
pub fn shard_scale(quick: bool) {
    if quick {
        shard_scale_named("shard_scale_quick", quick);
    } else {
        shard_scale_named("shard_scale", quick);
    }
}
