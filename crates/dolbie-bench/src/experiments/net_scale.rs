//! Experiment X5 (extension): how the TCP runtime scales with fleet size.
//!
//! Runs real loopback fleets at N ∈ {256, 1024, 4096} under the
//! event-driven master and writes rounds/s and bytes/s per fleet size to
//! `results/net_scale.csv`. The quick variant used by
//! the tier-1 smoke runs smaller fleets and writes
//! `results/net_scale_quick.csv`, so a smoke run never clobbers the full
//! measurement.
//!
//! Every row is also a correctness gate: the trajectory at every size is
//! checked bitwise against the sequential engine before the row is
//! emitted, so the CSV cannot claim throughput for a run that diverged.
//! Throughput columns measure this machine and vary run to run; the
//! trajectory does not.

use crate::common::emit_csv;
use dolbie_core::{run_episode, Allocation, Dolbie, DolbieConfig, EpisodeOptions};
use dolbie_metrics::Table;
use dolbie_net::env::{EnvKind, WireEnvSpec};
use dolbie_net::loopback::{run_loopback, LoopbackOptions};
use dolbie_net::master::MasterConfig;

const ENV_SEED: u64 = 0xD01B_5CA1;

/// One fleet at one size, gated bitwise against the sequential engine.
fn scenario(table: &mut Table, n: usize, rounds: usize) {
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: ENV_SEED + n as u64 };
    let opts = LoopbackOptions::new(MasterConfig::new(n, rounds, env));
    let run = run_loopback(&opts).expect("loopback fleet");
    let report = &run.report;
    assert_eq!(report.trace.rounds.len(), rounds);
    assert_eq!(report.epochs, 0, "no worker may be lost to connect or deadline pressure");

    let mut sequential = Dolbie::with_config(Allocation::uniform(n), DolbieConfig::new());
    let mut driver = env.environment(n);
    let trace = run_episode(&mut sequential, &mut driver, EpisodeOptions::new(rounds));
    for (t, (net_round, seq_round)) in
        run.report.trace.rounds.iter().zip(&trace.records).enumerate()
    {
        for i in 0..n {
            assert_eq!(
                net_round.allocation.share(i).to_bits(),
                seq_round.allocation.share(i).to_bits(),
                "round {t}, worker {i}: scaled fleet diverged from the sequential engine"
            );
        }
    }

    let wire = &report.wire;
    let wall = report.wall_clock;
    let bytes = wire.bytes_sent + wire.bytes_received;
    let rounds_per_s = rounds as f64 / wall.max(1e-9);
    let bytes_per_s = bytes as f64 / wall.max(1e-9);
    table.push_row(vec![
        n.to_string(),
        rounds.to_string(),
        report.trace.total_messages().to_string(),
        wire.frames_sent.to_string(),
        bytes.to_string(),
        format!("{wall:.3}"),
        format!("{rounds_per_s:.1}"),
        format!("{bytes_per_s:.0}"),
        "yes".to_string(),
    ]);
    println!(
        "  N={n}: {rounds} rounds in {wall:.3} s — {rounds_per_s:.1} rounds/s, \
         {bytes_per_s:.0} wire bytes/s, bitwise vs sequential: yes"
    );
}

/// Runs the scaling sweep and writes `results/<name>.csv`.
pub fn net_scale_named(name: &str, quick: bool) {
    println!("== TCP runtime scaling sweep ({}) ==", if quick { "quick" } else { "full" });
    let mut table = Table::new(vec![
        "n",
        "rounds",
        "logical_messages",
        "wire_frames",
        "wire_bytes",
        "wall_clock_s",
        "rounds_per_s",
        "bytes_per_s",
        "bitwise_vs_sequential",
    ]);
    if quick {
        // The tier-1 smoke: a four-digit thread fleet is too heavy for a
        // <10 s budget, but N = 256 exercises the same readiness loop,
        // concurrent admission, and coalesced broadcasts.
        scenario(&mut table, 64, 20);
        scenario(&mut table, 256, 10);
    } else {
        scenario(&mut table, 256, 60);
        scenario(&mut table, 1024, 30);
        // The headline size: the master holds a multi-round run together
        // over 4096 live connections on one listener.
        scenario(&mut table, 4096, 10);
    }
    emit_csv(&table, name);
    println!("  every fleet held bitwise parity with the sequential engine.");
}

/// The default entry point: `results/net_scale.csv` for the full sweep,
/// `results/net_scale_quick.csv` for the quick smoke.
pub fn net_scale(quick: bool) {
    if quick {
        net_scale_named("net_scale_quick", quick);
    } else {
        net_scale_named("net_scale", quick);
    }
}
