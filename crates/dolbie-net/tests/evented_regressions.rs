//! Regression pins for the head-of-line bug family the event-driven
//! master fixes: rogue handshakes must not abort the run, admission —
//! of workers and of the root's backbone — must be concurrent, K
//! simultaneously stalled workers must cost one `frame_timeout` total,
//! and a four-digit fleet must survive the OS listen backlog.

use dolbie_net::env::{EnvKind, WireEnvSpec};
use dolbie_net::evented::run_master_evented;
use dolbie_net::loopback::{run_loopback, LoopbackOptions};
use dolbie_net::master::MasterConfig;
use dolbie_net::shard::{run_root, run_shard_master, ShardMasterOptions, ShardedConfig};
use dolbie_net::transport::connect_with_backoff;
use dolbie_net::worker::{run_worker, WorkerOptions};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn spawn_worker(addr: SocketAddr, seed: u64) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let stream = connect_with_backoff(addr, 10, Duration::from_millis(10), seed).unwrap();
        run_worker(stream, &WorkerOptions::default()).unwrap();
    })
}

/// Rogue connections — garbage bytes, an immediate close, a well-formed
/// non-Hello opener — are rejected socket-by-socket while the run
/// completes with the real fleet, instead of aborting it on the first
/// bad handshake.
#[test]
fn rogue_handshakes_are_rejected_not_fatal() {
    const N: usize = 3;
    const ROUNDS: usize = 5;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0x0905 };
    let mut cfg = MasterConfig::new(N, ROUNDS, env);
    cfg.frame_timeout = Duration::from_millis(500);

    // Three flavors of rogue, all racing the real fleet to the
    // listener.
    let rogues: Vec<std::thread::JoinHandle<()>> = (0..3)
        .map(|flavor| {
            std::thread::spawn(move || {
                let Ok(mut stream) =
                    connect_with_backoff(addr, 10, Duration::from_millis(10), 90 + flavor)
                else {
                    return;
                };
                match flavor {
                    0 => {
                        // Garbage: bytes that fail the magic check.
                        let _ = stream.write_all(b"GET / HTTP/1.1\r\n\r\n");
                        std::thread::sleep(Duration::from_millis(200));
                    }
                    1 => {} // immediate close
                    _ => {
                        // A well-formed frame that is not Hello.
                        let bytes = dolbie_net::wire::Frame::Shutdown.encode();
                        let _ = stream.write_all(&bytes);
                        std::thread::sleep(Duration::from_millis(200));
                    }
                }
            })
        })
        .collect();
    let workers: Vec<_> = (0..N).map(|k| spawn_worker(addr, k as u64)).collect();

    let report =
        run_master_evented(&listener, &cfg).expect("rogue connections must not abort the run");
    assert_eq!(report.trace.rounds.len(), ROUNDS);
    assert_eq!(report.epochs, 0, "no real worker died");
    for handle in rogues.into_iter().chain(workers) {
        handle.join().unwrap();
    }
}

/// Admission is concurrent: six connected-but-silent rogues hold sockets
/// open while the real fleet handshakes. A serial handshake in accept
/// order would spend one `frame_timeout` per rogue reached before each
/// worker (worst case 6 × 500 ms before the run even starts); the master
/// admits the fleet immediately and lets the rogue deadlines expire in
/// parallel.
#[test]
fn silent_rogues_do_not_serialize_admission() {
    const N: usize = 3;
    const ROUNDS: usize = 5;
    const SILENT_ROGUES: usize = 6;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0x51E7 };
    let mut cfg = MasterConfig::new(N, ROUNDS, env);
    cfg.frame_timeout = Duration::from_millis(500);

    // The rogues connect FIRST, so an accept-order serial handshake
    // would stall on every one of them before reaching a real worker.
    let rogues: Vec<std::thread::JoinHandle<()>> = (0..SILENT_ROGUES)
        .map(|r| {
            std::thread::spawn(move || {
                let Ok(stream) =
                    connect_with_backoff(addr, 10, Duration::from_millis(5), 70 + r as u64)
                else {
                    return;
                };
                // Silent: hold the socket open past our own rejection.
                std::thread::sleep(Duration::from_millis(1500));
                drop(stream);
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50)); // let the rogues land first
    let workers: Vec<_> = (0..N).map(|k| spawn_worker(addr, k as u64)).collect();

    let started = Instant::now();
    let report = run_master_evented(&listener, &cfg).expect("run must complete");
    let elapsed = started.elapsed();
    assert_eq!(report.trace.rounds.len(), ROUNDS);
    assert_eq!(report.epochs, 0);
    // Serial admission would need ≥ 6 × 500 ms = 3 s before round 0;
    // concurrent admission finishes the whole run far sooner.
    assert!(
        elapsed < Duration::from_millis(2000),
        "admission serialized behind silent rogues: took {elapsed:?}"
    );
    for handle in rogues.into_iter().chain(workers) {
        handle.join().unwrap();
    }
}

/// The root admits its backbone through the same concurrent machine:
/// four connected-but-silent sockets queued ahead of the one real
/// shard-master cost only themselves. A serial handshake would spend one
/// `frame_timeout` on each before reaching the shard — 4 × 500 ms, the
/// whole 2 s admission window — and fail the run with "shards [0] never
/// completed the ShardHello/ShardWelcome handshake".
#[test]
fn silent_sockets_do_not_serialize_backbone_admission() {
    const N: usize = 2;
    const ROUNDS: usize = 5;
    const SILENT: usize = 4;
    let root_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let root_addr = root_listener.local_addr().unwrap();
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0xB0B0 };
    let mut cfg = ShardedConfig::new(N, 1, ROUNDS, env);
    cfg.frame_timeout = Duration::from_millis(500);

    // The silent sockets connect first, so they sit ahead of the real
    // shard-master in the accept queue; they stay open for the whole run.
    let silent: Vec<TcpStream> =
        (0..SILENT).map(|_| TcpStream::connect(root_addr).unwrap()).collect();
    let shard_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let shard_addr = shard_listener.local_addr().unwrap();
    let opts = ShardMasterOptions {
        shard: 0,
        num_shards: 1,
        frame_timeout: cfg.frame_timeout,
        backbone_fault: cfg.backbone_fault.clone(),
        die_after_round: None,
        die_mid_round: false,
    };
    let shard = std::thread::spawn(move || {
        let root = TcpStream::connect(root_addr).unwrap();
        run_shard_master(root, &shard_listener, &opts).map(|_| ())
    });
    let workers: Vec<_> = (0..N).map(|k| spawn_worker(shard_addr, k as u64)).collect();

    let report = run_root(&root_listener, &cfg).expect("silent sockets must not block admission");
    assert_eq!(report.rounds.len(), ROUNDS);
    assert!(report.dead_shards.is_empty());
    shard.join().unwrap().expect("the shard-master completes the run");
    for handle in workers {
        handle.join().unwrap();
    }
    drop(silent);
}

/// K workers stalling in the same round cost the run ~one `frame_timeout`
/// total, not K of them: every expired deadline of a sweep is collected
/// before the round aborts, so the four deaths bury together. Reading
/// the workers one by one, each under its own deadline, would pay
/// ≥ 4 × 600 ms = 2.4 s in this exact scenario.
#[test]
fn simultaneous_stalls_cost_one_frame_timeout_not_k() {
    const N: usize = 8;
    const ROUNDS: usize = 8;
    const STALL_ROUND: usize = 3;
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0x57A1 };
    let mut cfg = MasterConfig::new(N, ROUNDS, env);
    cfg.frame_timeout = Duration::from_millis(600);
    let mut opts = LoopbackOptions::new(cfg);
    let hold = Duration::from_millis(2500);
    opts.stalls = vec![
        (1, STALL_ROUND, hold),
        (3, STALL_ROUND, hold),
        (5, STALL_ROUND, hold),
        (6, STALL_ROUND, hold),
    ];
    let run = run_loopback(&opts).expect("stalls must not sink the run");
    let report = &run.report;

    assert_eq!(report.trace.rounds.len(), ROUNDS, "the horizon completes despite the stalls");
    assert_eq!(report.epochs, 4, "four stalls, four epochs");
    assert_eq!(report.members.iter().filter(|&&m| !m).count(), 4);
    // One shared deadline (two if a stalled worker was the round's
    // straggler and its silence only surfaced on the retry), never four
    // serial ones. 1.8 s sits 3× above the expected ~0.65 s and well
    // under the 2.4 s that four serial deadlines would cost.
    assert!(
        report.wall_clock < 1.8,
        "stalled workers serialized the round: {:.3} s wall clock",
        report.wall_clock
    );
}

/// A 1024-worker fleet connects through the N-scaled backlog schedule
/// (staggered SYNs, log-scaled retry budget) and completes a short run —
/// the regression for fixed 10-attempt backoff exhausting under listen
/// backlog overflow at four-digit N.
#[test]
fn thousand_worker_fleet_survives_the_listen_backlog() {
    const N: usize = 1024;
    const ROUNDS: usize = 2;
    let env = WireEnvSpec { kind: EnvKind::ChaosMix, seed: 0xBAC6 };
    let opts = LoopbackOptions::new(MasterConfig::new(N, ROUNDS, env));
    let run = run_loopback(&opts).expect("the full fleet must connect and finish");
    assert_eq!(run.report.trace.rounds.len(), ROUNDS);
    assert_eq!(run.report.epochs, 0, "no worker lost to connect-retry exhaustion");
    assert_eq!(run.workers.len(), N);
    for worker in &run.workers {
        assert!(worker.is_ok(), "a worker failed to connect or finish");
    }
}
