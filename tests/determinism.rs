//! Integration: one seed, one behaviour — everywhere.
//!
//! Every experiment row in EXPERIMENTS.md must be reproducible from its
//! seed; these tests pin that property across the whole stack, including
//! fault targeting and trace recording.

use graybox::clock::ProcessId;
use graybox::faults::{
    replay_campaign, run_campaign, run_tme, run_tme_trace, scenarios, FaultKind, FaultPlan,
    RunConfig,
};
use graybox::simnet::{
    Context, EventQueue, Process, ReferenceSimulation, SimConfig, SimTime, Simulation, StepKind,
    StepRecord,
};
use graybox::spec::TraceEventKind;
use graybox::tme::Implementation;
use graybox::wrapper::WrapperConfig;

fn stormy_config(seed: u64) -> RunConfig {
    RunConfig::new(4, Implementation::Lamport)
        .wrapper(WrapperConfig::timeout(8))
        .seed(seed)
        .faults(FaultPlan::random_mix(seed, (30, 250), 12, &FaultKind::ALL))
}

#[test]
fn identical_seeds_produce_identical_traces() {
    let (trace_a, outcome_a) = run_tme_trace(&stormy_config(5));
    let (trace_b, outcome_b) = run_tme_trace(&stormy_config(5));
    assert_eq!(trace_a.steps().len(), trace_b.steps().len());
    for (a, b) in trace_a.steps().iter().zip(trace_b.steps()) {
        assert_eq!(a.time, b.time);
        assert_eq!(a.pid, b.pid);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.sends, b.sends);
        assert_eq!(a.snapshots, b.snapshots);
    }
    assert_eq!(outcome_a.entries, outcome_b.entries);
    assert_eq!(outcome_a.verdict, outcome_b.verdict);
    assert_eq!(outcome_a.wrapper_resends, outcome_b.wrapper_resends);
}

#[test]
fn different_seeds_differ() {
    let a = run_tme(&stormy_config(5));
    let b = run_tme(&stormy_config(6));
    // The workload schedule, delays, and fault targets all change; at
    // minimum the message count differs on these configurations.
    assert_ne!(
        (a.messages_sent, a.wrapper_resends, a.entries.clone()),
        (b.messages_sent, b.wrapper_resends, b.entries.clone())
    );
}

#[test]
fn scenario_runs_are_reproducible() {
    let config = RunConfig::new(3, Implementation::AltRicartAgrawala)
        .wrapper(WrapperConfig::timeout(4))
        .seed(77);
    let (trace_a, a) = scenarios::deadlock(&config);
    let (trace_b, b) = scenarios::deadlock(&config);
    assert_eq!(a.verdict, b.verdict);
    assert_eq!(a.last_grant_at, b.last_grant_at);
    assert_eq!(trace_a.steps().len(), trace_b.steps().len());
}

/// The bit-exact determinism property behind replay: the same seed and
/// fault plan produce **byte-identical operation logs** across fresh
/// runs — for every fault kind, FIFO and non-FIFO, over ≥50 seeds. (The
/// oplog records every scheduler pop, RNG draw, and failpoint firing, so
/// byte equality of its text form is full-run bit-exactness, much
/// stronger than matching verdicts.)
#[test]
fn oplogs_are_bit_exact_per_seed_for_every_kind_and_ordering() {
    for seed in 0..50u64 {
        for kind in FaultKind::ALL {
            for fifo in [true, false] {
                let mut config = RunConfig::new(3, Implementation::RicartAgrawala)
                    .wrapper(WrapperConfig::timeout(8))
                    .seed(seed)
                    .faults(FaultPlan::burst(kind, 40.into(), 3));
                if !fifo {
                    config = config.non_fifo();
                }
                let a = run_campaign(&config);
                let b = run_campaign(&config);
                assert_eq!(
                    a.oplog.to_text(),
                    b.oplog.to_text(),
                    "oplogs diverged: seed {seed}, kind {kind}, fifo {fifo}"
                );
                assert_eq!(a.outcome.verdict, b.outcome.verdict);
                assert_eq!(a.failpoints, b.failpoints);
                // Spot-check the replay path across the matrix too.
                if seed % 10 == 0 {
                    let replayed = replay_campaign(&config, &a.oplog).unwrap_or_else(|e| {
                        panic!("replay diverged: seed {seed}, kind {kind}, fifo {fifo}: {e}")
                    });
                    assert_eq!(replayed.outcome.verdict, a.outcome.verdict);
                }
            }
        }
    }
}

#[test]
fn fault_descriptions_are_deterministic() {
    let collect = || -> Vec<String> {
        let (trace, _) = run_tme_trace(&stormy_config(9));
        trace
            .steps()
            .iter()
            .filter_map(|s| match &s.kind {
                TraceEventKind::Fault { description } => Some(description.clone()),
                _ => None,
            })
            .collect()
    };
    assert_eq!(collect(), collect());
}

/// Deterministic chatter on a ring: every received token is re-sent to
/// the next process until its hop budget is spent.
#[derive(Debug)]
struct Relay {
    id: ProcessId,
    n: u32,
}

impl Process for Relay {
    type Msg = u32;
    type Client = u32;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_message(&mut self, _from: ProcessId, hops: u32, ctx: &mut Context<u32>) {
        if hops > 0 {
            ctx.send(ProcessId((self.id.0 + 1) % self.n), hops - 1);
        }
    }

    fn on_timer(&mut self, _tag: u32, _ctx: &mut Context<u32>) {}

    fn on_client(&mut self, hops: u32, ctx: &mut Context<u32>) {
        ctx.send(ProcessId((self.id.0 + 1) % self.n), hops);
    }
}

fn relays(n: u32) -> Vec<Relay> {
    (0..n)
        .map(|id| Relay {
            id: ProcessId(id),
            n,
        })
        .collect()
}

/// FNV-1a over each record's `(time, pid, kind, sends, timers_set)`,
/// every field widened to a little-endian `u64`.
fn schedule_digest(records: &[StepRecord<u32, u32>]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for record in records {
        feed(record.time.ticks());
        feed(u64::from(record.pid.0));
        match &record.kind {
            StepKind::Deliver {
                from,
                msg_id,
                payload,
            } => {
                feed(0);
                feed(u64::from(from.0));
                feed(*msg_id);
                feed(u64::from(*payload));
            }
            StepKind::Timer { tag } => {
                feed(1);
                feed(u64::from(*tag));
            }
            StepKind::Client { event } => {
                feed(2);
                feed(u64::from(*event));
            }
            StepKind::Start => feed(3),
            StepKind::Skipped => feed(4),
        }
        feed(record.sends.len() as u64);
        for send in &record.sends {
            feed(send.msg_id);
            feed(u64::from(send.to.0));
            feed(u64::from(send.payload));
        }
        feed(record.timers_set.len() as u64);
        for &(tag, fire_at) in &record.timers_set {
            feed(u64::from(tag));
            feed(fire_at.ticks());
        }
    }
    hash
}

/// Golden schedule of an idle, fault-free FIFO run: the 3-relay ring,
/// seed 2024, clients at t = 1, 5, 9 with 20 hops each. The constants
/// were produced by the pre-instrumentation event loop, so any change to
/// delay draws, FIFO scheduling or tie-breaking shows up here on both the
/// timer-wheel engine and the heap-scheduled reference.
#[test]
fn idle_relay_ring_follows_the_golden_schedule() {
    const STEPS: usize = 69;
    const DIGEST: u64 = 0x9c0a_ed69_76a0_0a01;
    fn run<Q: EventQueue>(mut sim: Simulation<Relay, Q>) -> Vec<StepRecord<u32, u32>> {
        for t in [1u64, 5, 9] {
            sim.schedule_client(SimTime::from(t), ProcessId(0), 20);
        }
        sim.run_until(SimTime::from(2_000))
    }
    let config = SimConfig::with_seed(2024);
    let wheel = run(Simulation::new(relays(3), config));
    let heap = run(ReferenceSimulation::with_queue(relays(3), config));
    for (engine, records) in [("wheel", &wheel), ("heap", &heap)] {
        assert_eq!(records.len(), STEPS, "{engine}: step count");
        assert_eq!(
            schedule_digest(records),
            DIGEST,
            "{engine}: schedule digest"
        );
    }
}
