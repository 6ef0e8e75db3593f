//! Every input a workload hands the program, generated from the workload
//! seed and nothing else: the same seed gives the same inputs.

use dolbie_core::cost::{DynCost, LatencyCost};
use dolbie_mc::{Arch, McConfig};
use dolbie_net::env::{EnvKind, WireEnvSpec};
use dolbie_simnet::{Crash, FaultPlan, LeaveKind, MembershipSchedule, RetryPolicy};

/// Fleet size of the `episode` workload.
pub const EPISODE_N: usize = 100_000;
/// Workers driven by each TCP workload: one thread and one connection each.
pub const NET_WORKERS: usize = 2;
/// Shard-masters of the `tree` workload (one worker each).
pub const TREE_SHARDS: usize = 2;
/// Per-frame drop and duplicate probabilities on every `tree` link.
pub const TREE_DROP_P: f64 = 0.002;
pub const TREE_DUP_P: f64 = 0.001;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A sub-seed for one input stream: distinct streams of one workload seed
/// never share a value.
pub fn derive(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream.wrapping_mul(0xA24B_AED4_963E_E407)))
}

fn unit(seed: u64, i: u64) -> f64 {
    (derive(seed, i) >> 11) as f64 / (1u64 << 53) as f64
}

/// The `episode` fleet: a static heterogeneous `LatencyCost` fleet under
/// the §VI-A latency model. Speeds spread 8× and communication overheads
/// 0–0.1 s, both seeded per worker.
pub fn episode_fleet(seed: u64, n: usize) -> Vec<DynCost> {
    let s = derive(seed, 1);
    (0..n as u64)
        .map(|i| {
            let speed = 64.0 + 448.0 * unit(s, 2 * i);
            let comm = 0.1 * unit(s, 2 * i + 1);
            Box::new(LatencyCost::new(256.0, speed, comm)) as DynCost
        })
        .collect()
}

/// The three model-checking configurations (master-worker 3×3 with drop
/// and duplicate, ring 4×3 with a crash, fully-distributed 3×3 with a
/// join and a crash), with env and fault-plan seeds from the workload
/// seed. Shapes and envelopes are fixed; only the seeds vary.
pub fn check_configs(seed: u64) -> [(&'static str, McConfig); 3] {
    let retry = RetryPolicy::new(0.05, 2.0, 2);
    let mut mw = FaultPlan::seeded(derive(seed, 20))
        .with_drop_probability(0.2)
        .with_duplicate_probability(0.1);
    mw.retry = retry;
    let mut ring = FaultPlan::seeded(derive(seed, 21)).with_crash(Crash {
        worker: 2,
        from_round: 1,
        until_round: 2,
    });
    ring.retry = retry;
    let mut fd = FaultPlan::seeded(derive(seed, 22)).with_crash(Crash {
        worker: 1,
        from_round: 1,
        until_round: 2,
    });
    fd.retry = retry;
    let schedule = MembershipSchedule::none().with_leave(1, 2, LeaveKind::Graceful).with_join(2, 2);
    [
        (
            "mw",
            McConfig::new(Arch::MasterWorker, 3, 3).with_env_seed(derive(seed, 10)).with_plan(mw),
        ),
        ("ring", McConfig::new(Arch::Ring, 4, 3).with_env_seed(derive(seed, 11)).with_plan(ring)),
        (
            "fd",
            McConfig::new(Arch::FullyDistributed, 3, 3)
                .with_env_seed(derive(seed, 12))
                .with_plan(fd)
                .with_schedule(schedule),
        ),
    ]
}

/// The `fleet` environment: the chaos mix, lossless.
pub fn fleet_env(seed: u64) -> WireEnvSpec {
    WireEnvSpec { kind: EnvKind::ChaosMix, seed: derive(seed, 30) }
}

/// The `tree` environment.
pub fn tree_env(seed: u64) -> WireEnvSpec {
    WireEnvSpec { kind: EnvKind::ChaosMix, seed: derive(seed, 40) }
}

/// The lossy plan of one `tree` tier (`stream` 41: worker links, 42: the
/// backbone) under the shipping retry policy (50 ms RTO).
pub fn tree_plan(seed: u64, stream: u64) -> FaultPlan {
    FaultPlan::seeded(derive(seed, stream))
        .with_drop_probability(TREE_DROP_P)
        .with_duplicate_probability(TREE_DUP_P)
        .with_retry(RetryPolicy::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet_bits(seed: u64) -> Vec<u64> {
        episode_fleet(seed, 64).iter().map(|c| c.eval(0.37).to_bits()).collect()
    }

    fn check_seeds(seed: u64) -> Vec<u64> {
        check_configs(seed).iter().flat_map(|(_, c)| [c.env_seed, c.plan.seed]).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        assert_eq!(fleet_bits(7), fleet_bits(7));
        assert_eq!(check_seeds(7), check_seeds(7));
        assert_eq!(fleet_env(7), fleet_env(7));
        assert_eq!(tree_env(7), tree_env(7));
        assert_eq!(tree_plan(7, 41).seed, tree_plan(7, 41).seed);
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        assert_ne!(fleet_bits(7), fleet_bits(8));
        assert_ne!(check_seeds(7), check_seeds(8));
        assert_ne!(fleet_env(7), fleet_env(8));
        assert_ne!(tree_env(7), tree_env(8));
        assert_ne!(tree_plan(7, 41).seed, tree_plan(8, 41).seed);
    }

    #[test]
    fn streams_of_one_seed_are_distinct() {
        let seeds = [
            derive(5, 10),
            derive(5, 11),
            derive(5, 12),
            derive(5, 20),
            derive(5, 30),
            derive(5, 40),
        ];
        for (i, a) in seeds.iter().enumerate() {
            assert!(seeds[i + 1..].iter().all(|b| a != b));
        }
        // The two tree tiers replay different drop schedules.
        assert_ne!(tree_plan(5, 41).seed, tree_plan(5, 42).seed);
    }

    #[test]
    fn tree_plans_are_lossy_under_the_shipping_retry_policy() {
        let plan = tree_plan(3, 41);
        assert!(!plan.is_lossless());
        assert_eq!(plan.retry, RetryPolicy::default());
        assert_eq!(plan.retry.ack_timeout, 0.05);
    }
}
