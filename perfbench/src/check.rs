//! `check`: the model checker. One verdict is `dolbie_mc::explore` under
//! DFS over the three configurations of `inputs::check_configs`; it must
//! be complete with zero violations, and its counters must repeat exactly
//! from verdict to verdict.

use crate::inputs::check_configs;
use crate::report::{Metrics, Outcome};
use crate::stats::{median, quartile_spread, summarize, to_us};
use crate::{procfs, trace};
use dolbie_core::DolbieConfig;
use dolbie_mc::{explore, replay, Exploration, McConfig, Strategy};
use dolbie_simnet::{FixedLatency, MasterWorkerSim};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Config builds timed per verdict; their median is the set-up time.
const SETUP_REPS: usize = 64;
/// Replays of the all-defaults prefix and uncontrolled runs timed in the
/// traced pass.
const SEAM_REPS: usize = 400;

/// The exact counters of one exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    pub runs: usize,
    pub states_explored: usize,
    pub states_pruned: usize,
    pub max_depth: usize,
    pub visit_order: Vec<u64>,
}

impl Counts {
    fn of(ex: &Exploration) -> Self {
        let s = &ex.stats;
        Self {
            runs: s.runs,
            states_explored: s.states_explored,
            states_pruned: s.states_pruned,
            max_depth: s.max_depth,
            visit_order: s.visit_order.clone(),
        }
    }
}

/// Whether one exploration fails: a violation, an incomplete frontier, or
/// counters that differ from the first verdict's for the same config.
pub fn exploration_failed(ex: &Exploration, first: &Counts) -> bool {
    ex.violation.is_some() || !ex.complete || Counts::of(ex) != *first
}

pub fn run(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut verdicts = Vec::new();
    let mut firsts: Vec<Counts> = Vec::new();
    let mut explore_s: [Vec<f64>; 3] = Default::default();
    let cpu0 = procfs::process_cpu_s();
    let started = Instant::now();
    while verdicts.is_empty() || started.elapsed() < budget {
        let mut configs = None;
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            configs = Some(black_box(check_configs(seed)));
            setups.push(t0.elapsed().as_secs_f64());
        }
        let configs = configs.expect("at least one build");
        let t1 = Instant::now();
        for (k, (name, config)) in configs.iter().enumerate() {
            let t = Instant::now();
            let ex = {
                let _s = trace::span(explore_span(name));
                explore(config, Strategy::Dfs)
            };
            explore_s[k].push(t.elapsed().as_secs_f64());
            if firsts.len() == k {
                firsts.push(Counts::of(&ex));
            }
            for (field, value) in [
                ("runs", ex.stats.runs),
                ("states_explored", ex.stats.states_explored),
                ("states_pruned", ex.stats.states_pruned),
            ] {
                trace::counter(format!("mc.{name}.{field}"), value as f64);
            }
            if let Some(v) = &ex.violation {
                out.record
                    .push(format!("VIOLATION in {name}: {} (prefix {:?})", v.message, v.prefix));
            }
            out.tally.add(1, u64::from(exploration_failed(&ex, &firsts[k])));
        }
        verdicts.push(t1.elapsed().as_secs_f64());
        if out.peak_rss_mb == 0.0 {
            out.peak_rss_mb = procfs::peak_rss_mib();
        }
    }
    let cpu_s = procfs::process_cpu_s() - cpu0;

    if trace::enabled() {
        seam_probe(&check_configs(seed)[0].1);
    }

    let v = summarize(&verdicts);
    let m = &mut out.metrics;
    m.set("setup_s", median(&setups), "s");
    m.set("verdict_s", v.p50, "s");
    m.set("verdict_s.episode_spread", quartile_spread(&verdicts), "ratio");
    m.set("cpu_s_per_verdict", cpu_s / verdicts.len() as f64, "s");
    out.record.push(format!(
        "check: configs mw 3x3 drop 0.2 dup 0.1, ring 4x3 crash, fd 3x3 join+crash; strategy DFS; threads=1 (in-process); verdicts={}",
        verdicts.len()
    ));
    out.record.push(format!("setup (config build): {}", summarize(&to_us(&setups)).describe("us")));
    out.record.push(format!("verdict (three explorations): {}", v.describe("s")));
    for (k, (name, _)) in check_configs(seed).iter().enumerate() {
        let c = &firsts[k];
        out.record.push(format!(
            "  {name}: runs={} explored={} pruned={} max_depth={} explore {}",
            c.runs,
            c.states_explored,
            c.states_pruned,
            c.max_depth,
            summarize(&explore_s[k]).describe("s")
        ));
    }
    out
}

fn explore_span(name: &str) -> &'static str {
    match name {
        "mw" => "mc.mw.explore",
        "ring" => "mc.ring.explore",
        _ => "mc.fd.explore",
    }
}

/// Times one replay of the all-defaults prefix against one uncontrolled
/// simulator run of the same master-worker config; their difference is
/// the cost of the `Scheduler` seam.
fn seam_probe(config: &McConfig) {
    for _ in 0..SEAM_REPS {
        let _s = trace::span("simnet.replay");
        black_box(replay(config, &[]));
    }
    for _ in 0..SEAM_REPS {
        let _s = trace::span("simnet.run");
        let mut sim = MasterWorkerSim::new(
            dolbie_mc::chaos_mix_env(config.env_seed, config.n),
            DolbieConfig::new(),
            FixedLatency::lan(),
        )
        .with_fault_plan(config.plan.clone())
        .with_membership(config.schedule.clone());
        black_box(sim.run(config.rounds));
    }
}

pub fn layers(spans: &[trace::Span], counters: &[trace::Counter], m: &mut Metrics) {
    for arch in ["mw", "ring", "fd"] {
        let explore = trace::durations(spans, &format!("mc.{arch}.explore"));
        m.set(format!("mc.{arch}.explore_s"), median(&explore) / 1e9, "s");
        for field in ["runs", "states_explored", "states_pruned"] {
            let values = trace::counter_values(counters, &format!("mc.{arch}.{field}"));
            m.set(format!("mc.{arch}.{field}"), values.first().copied().unwrap_or(0.0), "count");
        }
    }
    let explored = m.get("mc.mw.states_explored").unwrap_or(0.0);
    let pruned = m.get("mc.mw.states_pruned").unwrap_or(0.0);
    m.set(
        "mc.mw.useful_ratio",
        if explored > 0.0 { explored / (explored + pruned) } else { 0.0 },
        "ratio",
    );
    m.set("simnet.replay_us", median(&trace::durations(spans, "simnet.replay")) / 1e3, "us");
    m.set("simnet.run_us", median(&trace::durations(spans, "simnet.run")) / 1e3, "us");
}

#[cfg(test)]
mod tests {
    use super::*;
    use dolbie_mc::Violation;

    #[test]
    fn a_verdict_is_complete_and_clean_and_repeats() {
        let configs = check_configs(5);
        let ring = &configs[1].1;
        let first = explore(ring, Strategy::Dfs);
        let counts = Counts::of(&first);
        assert!(!exploration_failed(&first, &counts));
        let again = explore(ring, Strategy::Dfs);
        assert!(!exploration_failed(&again, &counts));
    }

    #[test]
    fn drift_violations_and_incomplete_frontiers_fail() {
        let ring = &check_configs(5)[1].1;
        let ex = explore(ring, Strategy::Dfs);
        let mut drifted = Counts::of(&ex);
        drifted.runs ^= 1;
        assert!(exploration_failed(&ex, &drifted));
        let counts = Counts::of(&ex);
        let mut bad = explore(ring, Strategy::Dfs);
        bad.violation = Some(Violation { prefix: vec![1], message: "injected".into() });
        assert!(exploration_failed(&bad, &counts));
        let capped = explore(&ring.clone().with_max_runs(3), Strategy::Dfs);
        assert!(!capped.complete);
        assert!(exploration_failed(&capped, &counts));
    }
}
