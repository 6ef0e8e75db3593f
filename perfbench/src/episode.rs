//! `episode`: the fused round kernel alone. One static heterogeneous
//! `LatencyCost` fleet of N = 100 000 is built into a `FusedDolbie` with
//! `from_costs` and stepped one round at a time; the split `Dolbie`
//! engine plays the same fleet once, untimed, as the bitwise reference.

use crate::inputs::{episode_fleet, EPISODE_N};
use crate::report::{Metrics, Outcome};
use crate::stats::{median, quartile_spread, summarize, to_us};
use crate::{procfs, trace};
use dolbie_core::cost::DynCost;
use dolbie_core::{Dolbie, FusedDolbie, LoadBalancer, Observation};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rounds of one kernel episode. Every episode replays the same fleet, so
/// each one is checked against the same reference.
pub const ROUNDS: usize = 1000;

/// Everything about an episode the reference pins bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Per round: straggler and global-cost bits.
    pub rounds: Vec<(usize, u64)>,
    /// Bits of the step size applied in each round.
    pub alphas: Vec<u64>,
    /// Bits of the final shares.
    pub shares: Vec<u64>,
    /// Bits of the episode's summed global cost.
    pub total_cost: u64,
    pub guard_activations: usize,
}

fn bits(xs: impl IntoIterator<Item = f64>) -> Vec<u64> {
    xs.into_iter().map(f64::to_bits).collect()
}

/// Plays the split engine over the fleet: the reference trajectory.
pub fn reference(costs: &[DynCost], rounds: usize) -> Trajectory {
    let n = costs.len();
    let mut engine = Dolbie::new(n);
    let mut played = engine.allocation().clone();
    let mut scratch = Vec::with_capacity(n);
    let mut per_round = Vec::with_capacity(rounds);
    let mut total = 0.0;
    for t in 0..rounds {
        played.copy_from(engine.allocation());
        let obs = {
            let _s = trace::span("core.observation.from_costs_in");
            Observation::from_costs_in(t, &played, costs, scratch)
        };
        total += obs.global_cost();
        per_round.push((obs.straggler(), obs.global_cost().to_bits()));
        {
            let _s = trace::span("core.engine.observe");
            engine.observe(&obs);
        }
        scratch = obs.into_local_costs();
    }
    Trajectory {
        rounds: per_round,
        alphas: bits(engine.alphas_used().iter().copied()),
        shares: bits(engine.allocation().as_slice().iter().copied()),
        total_cost: total.to_bits(),
        guard_activations: engine.stats().guard_activations,
    }
}

/// Rounds of `got` that fail against `reference`: a round fails when its
/// straggler, global cost or step size differs, or was never played; a
/// difference in the final shares, total cost or guard count fails every
/// round of the episode, since the state diverged somewhere in it.
pub fn failed_rounds(reference: &Trajectory, got: &Trajectory) -> u64 {
    let n = reference.rounds.len();
    if got.shares != reference.shares
        || got.total_cost != reference.total_cost
        || got.guard_activations != reference.guard_activations
    {
        return n as u64;
    }
    (0..n)
        .filter(|&t| {
            got.rounds.get(t) != Some(&reference.rounds[t])
                || got.alphas.get(t) != Some(&reference.alphas[t])
        })
        .count() as u64
}

pub fn run(seed: u64, budget: Duration) -> Outcome {
    let costs = episode_fleet(seed, EPISODE_N);
    let reference = reference(&costs, ROUNDS);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut steps_us = Vec::new();
    let mut after_setup_s = 0.0;
    let mut rates = Vec::new();
    let cpu0 = procfs::process_cpu_s();
    let started = Instant::now();
    while out.tally.attempted == 0 || started.elapsed() < budget {
        let t0 = Instant::now();
        let mut kernel = {
            let _s = trace::span("core.kernel.from_costs");
            FusedDolbie::from_costs(&costs).expect("a LatencyCost fleet has a slab layout")
        };
        setups.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let mut rounds = Vec::with_capacity(ROUNDS);
        let mut total = 0.0;
        for t in 0..ROUNDS {
            let s = Instant::now();
            let round = {
                let _s = trace::span("core.kernel.step");
                black_box(kernel.step())
            };
            if t > 0 {
                steps_us.push(s.elapsed().as_secs_f64() * 1e6);
            }
            total += round.global_cost;
            rounds.push((round.straggler, round.global_cost.to_bits()));
        }
        let dt = t1.elapsed().as_secs_f64();
        after_setup_s += dt;
        rates.push(ROUNDS as f64 / dt);
        let got = Trajectory {
            rounds,
            alphas: bits(kernel.alphas_used().iter().copied()),
            shares: bits(kernel.allocation().as_slice().iter().copied()),
            total_cost: total.to_bits(),
            guard_activations: kernel.stats().guard_activations,
        };
        trace::counter("core.guard_activations", got.guard_activations as f64);
        out.tally.add(ROUNDS as u64, failed_rounds(&reference, &got));
        if out.peak_rss_mb == 0.0 {
            out.peak_rss_mb = procfs::peak_rss_mib();
        }
    }
    let cpu_s = procfs::process_cpu_s() - cpu0;

    let steps = summarize(&steps_us);
    let m = &mut out.metrics;
    m.set("setup_s", median(&setups), "s");
    m.set("rounds_per_s", out.tally.attempted as f64 / after_setup_s, "1/s");
    m.set("rounds_per_s.episode_spread", quartile_spread(&rates), "ratio");
    m.set("round_us_p50", steps.p50, "us");
    m.set("round_us_p99", steps.tail.map_or(0.0, |(_, v)| v), "us");
    m.set("cpu_us_per_round", cpu_s * 1e6 / out.tally.attempted as f64, "us");
    out.record = vec![
        format!(
            "episode: N={EPISODE_N} rounds/episode={ROUNDS} episodes={} threads=1 (in-process)",
            setups.len()
        ),
        format!("setup (FusedDolbie::from_costs): {}", summarize(&to_us(&setups)).describe("us")),
        format!("round (step() duration, round 0 excluded): {}", steps.describe("us")),
    ];
    out
}

/// Per-layer metrics from the traced pass's spans and counters.
pub fn layers(spans: &[trace::Span], counters: &[trace::Counter], m: &mut Metrics) {
    let n = EPISODE_N as f64;
    m.set(
        "core.kernel.build_ms",
        median(&trace::durations(spans, "core.kernel.from_costs")) / 1e6,
        "ms",
    );
    m.set(
        "core.kernel.step_ns_per_worker",
        median(&trace::durations(spans, "core.kernel.step")) / n,
        "ns",
    );
    m.set(
        "core.engine.observe_ns_per_worker",
        median(&trace::durations(spans, "core.engine.observe")) / n,
        "ns",
    );
    m.set(
        "core.observation.build_ns_per_worker",
        median(&trace::durations(spans, "core.observation.from_costs_in")) / n,
        "ns",
    );
    let guards = trace::counter_values(counters, "core.guard_activations");
    m.set("core.guard_activations", guards.first().copied().unwrap_or(0.0), "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Vec<DynCost>, Trajectory) {
        let costs = episode_fleet(11, 257);
        let reference = reference(&costs, 40);
        (costs, reference)
    }

    fn fused(costs: &[DynCost], rounds: usize) -> Trajectory {
        let mut k = FusedDolbie::from_costs(costs).expect("slab");
        let mut per_round = Vec::new();
        let mut total = 0.0;
        for _ in 0..rounds {
            let r = k.step();
            total += r.global_cost;
            per_round.push((r.straggler, r.global_cost.to_bits()));
        }
        Trajectory {
            rounds: per_round,
            alphas: bits(k.alphas_used().iter().copied()),
            shares: bits(k.allocation().as_slice().iter().copied()),
            total_cost: total.to_bits(),
            guard_activations: k.stats().guard_activations,
        }
    }

    #[test]
    fn the_fused_kernel_matches_the_reference() {
        let (costs, reference) = small();
        assert_eq!(failed_rounds(&reference, &fused(&costs, 40)), 0);
    }

    #[test]
    fn one_flipped_reference_bit_fails_rounds() {
        let (costs, reference) = small();
        let got = fused(&costs, 40);
        let mut flipped = reference.clone();
        flipped.rounds[7].1 ^= 1;
        assert_eq!(failed_rounds(&flipped, &got), 1);
        let mut flipped = reference.clone();
        flipped.alphas[3] ^= 1;
        assert_eq!(failed_rounds(&flipped, &got), 1);
        let mut flipped = reference;
        flipped.shares[100] ^= 1;
        assert_eq!(failed_rounds(&flipped, &got), 40);
    }

    #[test]
    fn a_short_episode_fails_its_missing_rounds() {
        let (costs, reference) = small();
        let mut got = fused(&costs, 40);
        got.rounds.truncate(30);
        assert_eq!(failed_rounds(&reference, &got), 10);
    }
}
