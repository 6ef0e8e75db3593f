//! The whole-stack benchmark: four workloads through the public APIs of
//! `dolbie-core`, `dolbie-simnet`/`dolbie-mc` and `dolbie-net`.
//!
//! ```text
//! perfbench --workload <episode|check|fleet|tree> --seed <n> --seconds <s> --trace <0|1> [--spans-dir DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the workload twice, untraced then traced, reports the
//! per-layer metrics from the traced pass's spans and counters, and the
//! tracing overhead from the difference. Every pass checks every output
//! against its sequential reference. The last line of standard output is
//! the JSON result.

mod check;
mod episode;
mod fleet;
mod inputs;
mod net;
mod procfs;
mod report;
mod stats;
mod trace;
mod tree;

use report::{Metrics, Outcome, Tally};
use std::time::Duration;

/// The gated metrics, printed by every `--trace 0` run.
const END_TO_END: &[&str] = &["setup_s", "work_us_p50", "peak_rss_mb"];

/// The per-layer metrics, printed by every `--trace 1` run; a layer the
/// workload never calls reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.kernel.build_ms", "ms"),
    ("core.kernel.step_ns_per_worker", "ns"),
    ("core.engine.observe_ns_per_worker", "ns"),
    ("core.observation.build_ns_per_worker", "ns"),
    ("core.guard_activations", "count"),
    ("mc.mw.explore_s", "s"),
    ("mc.ring.explore_s", "s"),
    ("mc.fd.explore_s", "s"),
    ("mc.mw.runs", "count"),
    ("mc.ring.runs", "count"),
    ("mc.fd.runs", "count"),
    ("mc.mw.states_explored", "count"),
    ("mc.ring.states_explored", "count"),
    ("mc.fd.states_explored", "count"),
    ("mc.mw.states_pruned", "count"),
    ("mc.ring.states_pruned", "count"),
    ("mc.fd.states_pruned", "count"),
    ("mc.mw.useful_ratio", "ratio"),
    ("simnet.replay_us", "us"),
    ("simnet.run_us", "us"),
    ("net.master.cpu_us_per_round", "us"),
    ("net.master.busy_share", "ratio"),
    ("net.worker.cpu_us_per_round", "us"),
    ("net.phase.cost_us_p50", "us"),
    ("net.phase.decision_us_p50", "us"),
    ("net.wire.frames_per_round", "count"),
    ("net.wire.bytes_per_round", "count"),
    ("net.wire.encode_ns", "ns"),
    ("net.wire.decode_ns", "ns"),
    ("net.slow_round_share", "ratio"),
    ("net.root.cpu_us_per_round", "us"),
    ("net.shard.cpu_us_per_round", "us"),
    ("net.backbone.frames_per_round", "count"),
    ("net.backbone.bytes_per_round", "count"),
    ("net.envelope.retransmissions", "count"),
    ("net.envelope.acks", "count"),
    ("net.envelope.duplicates", "count"),
    ("net.envelope.drift_episodes", "count"),
    ("net.envelope.ms_per_retransmission", "ms"),
    ("net.root.refresh_rounds", "count"),
    ("net.root.rescaled_rounds", "count"),
    ("rounds_per_s", "1/s"),
    ("rounds_per_s.episode_spread", "ratio"),
    ("round_us_p99", "us"),
    ("cpu_us_per_round", "us"),
    ("verdict_s", "s"),
    ("verdict_s.episode_spread", "ratio"),
    ("work_cpu_us", "us"),
    ("failed_share", "ratio"),
    ("trace.unowned_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

const WORKLOADS: [&str; 4] = ["episode", "check", "fleet", "tree"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_dir: Option<std::path::PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--spans-dir DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans_dir) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(value.parse().unwrap_or_else(|_| usage("--seed must be an integer")))
            }
            "--seconds" => {
                seconds =
                    Some(value.parse().unwrap_or_else(|_| usage("--seconds must be an integer")))
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                })
            }
            "--spans-dir" => spans_dir = Some(value.into()),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds
            .filter(|&s| s > 0)
            .unwrap_or_else(|| usage("--seconds must be a positive integer")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        spans_dir,
    }
}

fn run_workload(workload: &str, seed: u64, budget: Duration) -> Outcome {
    match workload {
        "episode" => episode::run(seed, budget),
        "check" => check::run(seed, budget),
        "fleet" => fleet::run(seed, budget),
        _ => tree::run(seed, budget),
    }
}

fn root_span(workload: &str) -> &'static str {
    match workload {
        "episode" => "bench.episode",
        "check" => "bench.check",
        "fleet" => "bench.fleet",
        _ => "bench.tree",
    }
}

/// Median duration (us) of the workload's unit of work: a round for
/// `episode`, `fleet` and `tree`; one complete three-configuration
/// verdict for `check`.
fn work_p50(workload: &str, m: &Metrics) -> f64 {
    if workload == "check" {
        m.get("verdict_s").unwrap_or(0.0) * 1e6
    } else {
        m.get("round_us_p50").unwrap_or(0.0)
    }
}

/// The unit of work's median duration and CPU cost, under
/// workload-neutral names.
fn work_metrics(workload: &str, m: &mut Metrics) {
    let cpu_us = if workload == "check" {
        m.get("cpu_s_per_verdict").unwrap_or(0.0) * 1e6
    } else {
        m.get("cpu_us_per_round").unwrap_or(0.0)
    };
    m.set("work_us_p50", work_p50(workload, m), "us");
    m.set("work_cpu_us", cpu_us, "us");
}

fn main() {
    let args = parse_args();
    let budget = Duration::from_secs(args.seconds);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let (tally, selected): (Tally, Metrics) = if !args.trace {
        let mut out = run_workload(&args.workload, args.seed, budget);
        out.metrics.set("peak_rss_mb", out.peak_rss_mb, "MiB");
        work_metrics(&args.workload, &mut out.metrics);
        for line in &out.record {
            println!("{line}");
        }
        for (name, &(value, unit)) in &out.metrics.0 {
            println!("  {name} = {value} {unit}");
        }
        let mut m = Metrics::default();
        for &name in END_TO_END {
            let (value, unit) = out.metrics.0[name];
            m.set(name, value, unit);
        }
        (out.tally, m)
    } else {
        traced(&args, budget)
    };
    println!("{}", report::result_json(tally, &selected));
}

/// The traced run: an untraced pass for the overhead baseline, then the
/// traced pass whose spans and counters give the per-layer metrics.
fn traced(args: &Args, budget: Duration) -> (Tally, Metrics) {
    let plain = run_workload(&args.workload, args.seed, budget / 3);
    trace::set_enabled(true);
    let mut out = {
        let _root = trace::span(root_span(&args.workload));
        run_workload(&args.workload, args.seed, budget * 2 / 3)
    };
    trace::set_enabled(false);
    let (spans, counters) = trace::take();
    if let Some(dir) = &args.spans_dir {
        let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| trace::write_jsonl(&path, &spans, &counters));
        match written {
            Ok(()) => println!(
                "spans: {} spans, {} counters -> {}",
                spans.len(),
                counters.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write spans to {}: {e}", path.display()),
        }
    }

    let untraced_p50 = work_p50(&args.workload, &plain.metrics);
    let m = &mut out.metrics;
    work_metrics(&args.workload, m);
    episode::layers(&spans, &counters, m);
    check::layers(&spans, &counters, m);
    net::layers(&spans, &counters, m);
    tree::layers(&counters, m);
    let selfs = trace::self_times(&spans);
    let root =
        spans.iter().find(|s| s.name == root_span(&args.workload)).expect("the root span closed");
    m.set("trace.unowned_share", selfs[&root.id] as f64 / root.duration_ns() as f64, "ratio");
    m.set("trace.overhead_share", work_p50(&args.workload, m) / untraced_p50 - 1.0, "ratio");
    let mut tally = plain.tally;
    tally.absorb(out.tally);
    m.set("failed_share", tally.failed_share(), "ratio");

    for line in &out.record {
        println!("{line}");
    }
    let layer_self: Vec<String> = {
        let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|n| format!("{n}={:.3}s", trace::self_total(&spans, &selfs, n) / 1e9))
            .collect()
    };
    println!("self time by span: {}", layer_self.join(" "));
    let mut selected = Metrics::default();
    for &(name, unit) in PER_LAYER {
        let value = m.get(name).unwrap_or(0.0);
        println!("  {name} = {value} {unit}");
        selected.set(name, value, unit);
    }
    (tally, selected)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    /// `(name, unit)` of every entry of one metric list in BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let start = BENCHMARK.find(&format!("\"{section}\"")).expect("section present");
        let body = &BENCHMARK[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |entry: &str, key: &str| -> String {
            let rest = &entry
                [entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5..];
            rest[..rest.find('"').expect("string closes")].to_string()
        };
        body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let layers: Vec<(String, String)> =
            PER_LAYER.iter().map(|&(n, u)| (n.into(), u.into())).collect();
        assert_eq!(declared("per_layer"), layers);
        let e2e: Vec<String> = declared("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(e2e, END_TO_END);
        for workload in WORKLOADS {
            assert!(
                BENCHMARK.contains(&format!("{{\"name\": \"{workload}\"")),
                "{workload} is declared"
            );
        }
    }
}
