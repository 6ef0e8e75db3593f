//! The tentpole acceptance tests: over lossless loopback TCP the runtime's
//! trajectory is bitwise identical to the sequential engine for 500 rounds
//! at N ∈ {4, 16}; under a seeded lossy link the run terminates and
//! satisfies the chaos-sweep invariants; and a worker killed mid-run
//! triggers a membership epoch instead of a hang.

use dolbie_core::{run_episode, Allocation, Dolbie, DolbieConfig, EpisodeOptions, LoadBalancer};
use dolbie_net::env::{EnvKind, WireEnvSpec};
use dolbie_net::loopback::{run_loopback, LoopbackOptions};
use dolbie_net::master::{MasterConfig, NetRunReport};
use dolbie_simnet::faults::{FaultPlan, RetryPolicy};
use dolbie_simnet::{FixedLatency, MasterWorkerSim};
use std::time::Duration;

fn sequential_allocations(env: WireEnvSpec, n: usize, rounds: usize) -> Vec<Allocation> {
    let mut sequential = Dolbie::with_config(Allocation::uniform(n), DolbieConfig::new());
    let mut driver = env.environment(n);
    let trace = run_episode(&mut sequential, &mut driver, EpisodeOptions::new(rounds));
    let mut allocations: Vec<Allocation> =
        trace.records.iter().map(|r| r.allocation.clone()).collect();
    // One more than the horizon: the engine's state after the last round.
    allocations.push(sequential.allocation().clone());
    allocations
}

fn assert_bitwise(report: &NetRunReport, reference: &[Allocation], n: usize) {
    for (t, round) in report.trace.rounds.iter().enumerate() {
        for i in 0..n {
            assert_eq!(
                round.allocation.share(i).to_bits(),
                reference[t].share(i).to_bits(),
                "round {t}, worker {i}: TCP trajectory diverged from the sequential engine"
            );
        }
    }
    let last = reference.last().expect("non-empty reference");
    for i in 0..n {
        assert_eq!(
            report.final_allocation.share(i).to_bits(),
            last.share(i).to_bits(),
            "final allocation diverged at worker {i}"
        );
    }
}

/// Lossless loopback at N = 4 and N = 16 for 500 rounds: bitwise parity
/// with the sequential engine, and 1e-9 agreement with the simulated
/// master-worker protocol (which uses an algebraically equivalent but
/// differently associated straggler pin).
#[test]
fn loopback_is_bitwise_identical_to_sequential_for_500_rounds() {
    const ROUNDS: usize = 500;
    for n in [4usize, 16] {
        let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0xD01B_1E05 + n as u64 };
        let opts = LoopbackOptions::new(MasterConfig::new(n, ROUNDS, env));
        let run = run_loopback(&opts).expect("lossless loopback run");
        assert_eq!(run.report.trace.rounds.len(), ROUNDS);
        assert_eq!(run.report.epochs, 0);

        let reference = sequential_allocations(env, n, ROUNDS);
        assert_bitwise(&run.report, &reference, n);

        // The simnet master-worker trace agrees to numerical tolerance
        // (its guarded pin sums naively; the engine compensates).
        let sim =
            MasterWorkerSim::new(env.environment(n), DolbieConfig::new(), FixedLatency::lan())
                .run(ROUNDS);
        for (net_round, sim_round) in run.report.trace.rounds.iter().zip(&sim.rounds) {
            assert!(
                net_round.allocation.l2_distance(&sim_round.allocation) < 1e-9,
                "round {}: TCP vs simnet master-worker drifted",
                net_round.round
            );
            let max = sim_round.local_costs.iter().cloned().fold(f64::MIN, f64::max);
            let near = sim_round.local_costs.iter().filter(|&&c| (c - max).abs() < 1e-9).count();
            if near == 1 {
                assert_eq!(net_round.straggler, sim_round.straggler);
            }
        }

        // Every worker saw the whole run and finished on its engine
        // share.
        for worker in &run.workers {
            let report = worker.as_ref().expect("healthy worker");
            assert_eq!(report.rounds_seen, ROUNDS);
            assert_eq!(
                report.final_share.to_bits(),
                run.report.final_allocation.share(report.worker_id).to_bits(),
                "worker-held share must equal the master engine's"
            );
        }
    }
}

/// A seeded lossy link (real socket-level drops, duplicates, ack losses,
/// and retransmission delays) terminates and satisfies the chaos-sweep
/// invariants — including the strongest form of architecture agreement:
/// the trajectory is still bitwise the sequential one, because loss only
/// ever delays frames.
#[test]
fn lossy_loopback_terminates_and_keeps_the_chaos_invariants() {
    for (n, rounds) in [(4usize, 40usize), (16, 40)] {
        let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0xC4A05 + n as u64 };
        let retry = RetryPolicy::new(0.01, 1.5, 6);
        let plan = FaultPlan::seeded(21)
            .with_drop_probability(0.12)
            .with_duplicate_probability(0.05)
            .with_retry(retry);
        let mut opts =
            LoopbackOptions::new(MasterConfig::new(n, rounds, env).with_fault_plan(plan));
        opts.worker.retry = Some(retry);
        let run = run_loopback(&opts).expect("lossy run must terminate");
        let report = &run.report;

        // Invariant 5 (termination) is the run completing at the horizon.
        assert_eq!(report.trace.rounds.len(), rounds);
        // The faults genuinely fired at the socket layer.
        let wire = &report.wire;
        assert!(wire.retransmissions > 0, "12% drop must force retransmissions");
        assert!(wire.acks > 0, "lossy links must ack");

        let mut prev_alpha = f64::INFINITY;
        for round in &report.trace.rounds {
            // Invariant 1: simplex feasibility every round.
            let sum: f64 = round.allocation.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "round {}: Σx = {sum}", round.round);
            assert!(round.allocation.iter().all(|&x| x >= 0.0));
            // Invariant 2: the α schedule never increases.
            assert!(round.alpha <= prev_alpha + 1e-15, "round {}: α rose", round.round);
            prev_alpha = round.alpha;
            // Invariant 3: no stranded share — every worker stayed
            // active, so the full unit of work is always assigned to
            // live members.
            assert!(round.active.iter().all(|&a| a));
        }

        // Invariant 4: architecture agreement, in its strongest form —
        // loss only delays frames, so even the lossy trajectory is
        // bitwise the sequential one.
        let reference = sequential_allocations(env, n, rounds);
        assert_bitwise(report, &reference, n);
    }
}

/// A worker killed mid-run triggers a membership epoch: the run completes
/// the full horizon without hanging, exactly one epoch is crossed, and the
/// allocation stays on the simplex within 1e-12 afterward.
#[test]
fn killed_worker_triggers_a_membership_epoch_without_hanging() {
    const ROUNDS: usize = 30;
    const N: usize = 4;
    const KILL_ROUND: usize = 11;
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0xFEED };
    let mut cfg = MasterConfig::new(N, ROUNDS, env);
    // A dead socket is detected by deadline or reset; keep the deadline
    // short so the test is brisk either way.
    cfg.frame_timeout = Duration::from_secs(2);
    let mut opts = LoopbackOptions::new(cfg);
    opts.kill = Some((2, KILL_ROUND));
    let run = run_loopback(&opts).expect("crash must not sink the run");
    let report = &run.report;

    assert_eq!(report.trace.rounds.len(), ROUNDS, "the horizon completes despite the crash");
    assert_eq!(report.epochs, 1, "one death, one epoch");
    assert_eq!(report.members.iter().filter(|&&m| !m).count(), 1);
    let dead = report.members.iter().position(|&m| !m).expect("one dead worker");

    for round in &report.trace.rounds {
        let sum: f64 = round.allocation.iter().sum();
        if round.active.iter().all(|&a| a) {
            assert!((sum - 1.0).abs() < 1e-9);
        } else {
            // Post-epoch: the survivors carry the whole unit of work.
            assert!((sum - 1.0).abs() < 1e-12, "round {}: Σx = {sum}", round.round);
            assert_eq!(round.allocation.share(dead), 0.0, "the dead worker's share is gone");
            assert!(!round.active[dead]);
        }
    }
    let final_sum: f64 = report.final_allocation.iter().sum();
    assert!((final_sum - 1.0).abs() < 1e-12);

    // Exactly one worker died early; the survivors all reached shutdown
    // and saw the epoch. A survivor counts the aborted attempt of the
    // crash round again after the restart, so it sees ROUNDS or ROUNDS+1
    // round starts depending on where the death was detected.
    let mut survivors = 0;
    for worker in run.workers.iter().flatten() {
        if worker.epochs_seen == 1 {
            assert!(
                worker.rounds_seen == ROUNDS || worker.rounds_seen == ROUNDS + 1,
                "survivor {} saw {} round starts",
                worker.worker_id,
                worker.rounds_seen
            );
            survivors += 1;
        }
    }
    assert_eq!(survivors, N - 1);
}
