//! Record/replay bit-exactness matrix for the scalable ring-TME model on
//! the timer-wheel engine, plus a wheel-vs-reference-heap differential.
//!
//! The matrix runs n ∈ {10, 10³, 10⁴} under FIFO and non-FIFO delivery,
//! firing **all nine failpoint sites** on a fixed cadence, and checks:
//!
//! 1. two identical recorded runs serialize to byte-identical oplogs;
//! 2. replaying the oplog on a fresh simulation finishes cleanly;
//! 3. every failpoint site actually fired (the schedule is not vacuous).
//!
//! The differential test records the same workload on the default
//! [`TimerWheel`] engine and on the [`HeapQueue`] oracle scheduler:
//! identical oplogs mean identical pop order — the engines are
//! step-identical, not merely outcome-identical.
//!
//! [`TimerWheel`]: graybox_simnet::TimerWheel

use graybox_clock::ProcessId;
use graybox_oracles::queue::HeapQueue;
use graybox_simnet::queue::EventQueue;
use graybox_simnet::{failpoint, Corruptible, OpLog, SimConfig, SimTime, Simulation};
use graybox_tme::{ring, RingConfig, RingMsg, RingProc, TmeClient};

fn config(n: u32, fifo: bool, seed: u64) -> (Vec<RingProc>, SimConfig) {
    let cfg = RingConfig {
        // θ well above one circulation so the fault schedule, not
        // spurious regeneration noise, dominates the run.
        theta: u64::from(n) * 8,
        eat_for: 3,
    };
    let sim_cfg = SimConfig {
        seed,
        fifo,
        ..SimConfig::default()
    };
    (ring(n, cfg), sim_cfg)
}

/// Fires every one of the nine failpoint sites exactly once, with all
/// targeting decisions routed through the oplog layer (`draw_fault_in`),
/// so the burst replays bit-exactly.
fn fault_burst<Q: EventQueue>(
    sim: &mut Simulation<RingProc, Q>,
    rng: &mut graybox_rng::rngs::SmallRng,
) {
    let n = u64::try_from(sim.len()).unwrap();
    let from = ProcessId(u32::try_from(sim.draw_fault_in(rng, 0, n - 1)).unwrap());
    let to = ProcessId((from.0 + 1) % u32::try_from(n).unwrap());

    // Two garbage injections give the channel ≥ 2 messages, so every
    // index-targeting primitive below is guaranteed to hit.
    for _ in 0..2 {
        let mut payload = RingMsg { epoch: 0 };
        payload.corrupt(&mut sim.fault_entropy(rng));
        sim.inject_message(from, to, payload); // msg.inject
    }
    assert!(sim.reorder_messages(from, to, 0, 1)); // channel.reorder
    assert!(sim.mutate_message(from, to, 0, |m| m.epoch ^= 1)); // msg.corrupt
    assert!(sim.duplicate_message(from, to, 0).is_some()); // channel.duplicate
    assert!(sim.drop_message(from, to, 0).is_some()); // channel.drop
    assert!(sim.flush_channel(from, to) >= 2); // channel.flush

    let pid = ProcessId(u32::try_from(sim.draw_fault_in(rng, 0, n - 1)).unwrap());
    sim.corrupt_process(pid); // process.corrupt

    let reset = ProcessId(u32::try_from(sim.draw_fault_in(rng, 0, n - 1)).unwrap());
    let ring_n = u32::try_from(sim.len()).unwrap();
    *sim.process_mut(reset) = RingProc::new(reset, ring_n, RingConfig::default());
    failpoint!(
        sim,
        graybox_simnet::failpoint::PROCESS_RESET,
        "reset {reset} to Init"
    ); // process.reset

    let until = sim.now() + 40;
    sim.boost_delays(2, until); // sim.delay
}

enum Entropy {
    Record,
    Replay(OpLog),
}

/// Drives one deterministic campaign: staggered requests, a fixed number
/// of steps, and a nine-site fault burst every 97 steps. Returns the
/// recorded oplog (when recording) after asserting the run's invariants.
fn campaign<Q: EventQueue>(
    mut sim: Simulation<RingProc, Q>,
    n: u32,
    entropy: Entropy,
) -> Option<OpLog> {
    let replaying = match entropy {
        Entropy::Record => {
            sim.start_recording();
            false
        }
        Entropy::Replay(log) => {
            sim.begin_replay(log);
            true
        }
    };
    let mut rng = {
        use graybox_rng::SeedableRng;
        graybox_rng::rngs::SmallRng::seed_from_u64(0xFA117)
    };
    // A sprinkle of hungry processes across the ring.
    for i in 0..n.min(64) {
        sim.schedule_client(
            SimTime::from(1 + u64::from(i) * 3),
            ProcessId((i * 37) % n),
            TmeClient::Request { eat_for: 2 },
        );
    }
    let steps = 2 * u64::from(n) + 2_000;
    let mut executed = 0u64;
    while executed < steps && sim.step_quiet() {
        executed += 1;
        if executed.is_multiple_of(97) && executed / 97 <= 8 {
            fault_burst(&mut sim, &mut rng);
        }
    }
    // The schedule fired every one of the nine sites.
    for site in graybox_simnet::failpoint::ALL_SITES {
        assert!(
            sim.failpoints().hits(site) > 0,
            "site {site} never fired (n={n})"
        );
    }
    if replaying {
        sim.finish_replay()
            .expect("replay matches its own recording");
        None
    } else {
        Some(sim.take_oplog().expect("was recording"))
    }
}

#[test]
fn record_replay_matrix_is_bit_exact() {
    for n in [10u32, 1_000, 10_000] {
        for fifo in [true, false] {
            let seed = 0xD0_0D + u64::from(n) + u64::from(fifo);
            let build = || {
                let (procs, cfg) = config(n, fifo, seed);
                Simulation::new(procs, cfg)
            };
            let log_a = campaign(build(), n, Entropy::Record).unwrap();
            let log_b = campaign(build(), n, Entropy::Record).unwrap();
            assert_eq!(
                log_a.to_text(),
                log_b.to_text(),
                "recording is not deterministic (n={n}, fifo={fifo})"
            );
            campaign(build(), n, Entropy::Replay(log_a));
        }
    }
}

#[test]
fn wheel_and_heap_engines_record_identical_oplogs() {
    for fifo in [true, false] {
        let n = 1_000u32;
        let seed = 0xBEEF + u64::from(fifo);
        let wheel_log = {
            let (procs, cfg) = config(n, fifo, seed);
            campaign(Simulation::new(procs, cfg), n, Entropy::Record).unwrap()
        };
        let heap_log = {
            let (procs, cfg) = config(n, fifo, seed);
            let sim: Simulation<RingProc, HeapQueue> = Simulation::with_queue(procs, cfg);
            campaign(sim, n, Entropy::Record).unwrap()
        };
        // Identical oplogs pin the pop order event-for-event: the wheel
        // is step-identical to the reference heap, not merely
        // outcome-identical.
        assert_eq!(wheel_log.to_text(), heap_log.to_text(), "fifo={fifo}");
    }
}

#[test]
fn cross_engine_replay_works_both_ways() {
    // A log recorded on the wheel replays on the heap and vice versa —
    // the oplog format is engine-agnostic.
    let n = 200u32;
    let (procs, cfg) = config(n, true, 77);
    let wheel_log = campaign(Simulation::new(procs, cfg), n, Entropy::Record).unwrap();

    let (procs, cfg) = config(n, true, 77);
    let heap: Simulation<RingProc, HeapQueue> = Simulation::with_queue(procs, cfg);
    campaign(heap, n, Entropy::Replay(wheel_log));
}
