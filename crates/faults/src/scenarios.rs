//! Hand-crafted fault scenarios from the paper.
//!
//! The centerpiece is the §4 **deadlock scenario**: processes `j` and `k`
//! both request the critical section and both request messages are lost.
//! Each side then has mutually inconsistent information —
//! `j.REQ_k lt REQ_j` *and* `k.REQ_j lt REQ_k` — and, as far as `Lspec` is
//! concerned, neither has anything left to do: "the state of M has a
//! deadlock". The level-2 wrapper `W` breaks it by re-sending requests to
//! exactly the peers the local copies claim are earlier.

use graybox_clock::{ProcessId, Timestamp};
use graybox_rng::rngs::SmallRng;
use graybox_rng::{Rng, SeedableRng};
use graybox_simnet::{Corruptible, SimTime};
use graybox_spec::{Trace, TraceRecorder};
use graybox_tme::{TmeClient, TmeMsg};

use crate::runner::{build_sim, finish, RunConfig, RunOutcome};

/// Runs the §4 deadlock scenario under the given configuration: every
/// process requests at `t = 1`, and at `t = 2` every interprocess channel
/// is flushed (all in-flight requests lost). Returns the trace and
/// outcome; whether the system recovers depends on `config.wrapper`.
pub fn deadlock(config: &RunConfig) -> (Trace, RunOutcome) {
    let mut sim = build_sim(config);
    for pid in ProcessId::all(config.n) {
        sim.schedule_client(SimTime::from(1), pid, TmeClient::Request { eat_for: 3 });
    }
    let mut recorder = TraceRecorder::new(&sim);
    // Process the request events (and nothing later) so the broadcasts are
    // in flight.
    while sim.peek_time().is_some_and(|t| t <= SimTime::from(1)) {
        recorder.step(&mut sim);
    }
    let mut lost = 0;
    for from in ProcessId::all(config.n) {
        for to in ProcessId::all(config.n) {
            lost += sim.flush_channel(from, to);
        }
    }
    recorder.mark_fault(
        &sim,
        ProcessId(0),
        format!("§4 deadlock: flushed all channels ({lost} requests lost)"),
    );
    let horizon = config.horizon.unwrap_or(SimTime::from(2_500));
    recorder.run_until(&mut sim, horizon);

    finish(recorder, &sim, config.grace, horizon, 1)
}

/// The lost-reply variant of the §4 fault: a single process requests, and
/// every message addressed to it (the peers' replies) is lost for a
/// window. Afterwards the requester is hungry with `received(j.REQ_k)`
/// false for every peer — `Lspec` demands nothing of anyone (the peers
/// already replied), so the unwrapped system starves the requester
/// forever, while the wrapper's re-sends solicit fresh replies.
pub fn reply_loss(config: &RunConfig) -> (Trace, RunOutcome) {
    let mut sim = build_sim(config);
    sim.schedule_client(
        SimTime::from(1),
        ProcessId(0),
        TmeClient::Request { eat_for: 3 },
    );
    let mut recorder = TraceRecorder::new(&sim);
    // Lose everything addressed to p0 for a fixed window — covering the
    // peers' replies no matter when they are sent.
    let mut lost = 0;
    while sim.peek_time().is_some_and(|t| t <= SimTime::from(40)) {
        recorder.step(&mut sim);
        for from in ProcessId::all(config.n).skip(1) {
            lost += sim.flush_channel(from, ProcessId(0));
        }
    }
    recorder.mark_fault(
        &sim,
        ProcessId(0),
        format!("reply loss: {lost} messages to p0 dropped in [0,40]"),
    );
    let horizon = config.horizon.unwrap_or(SimTime::from(2_500));
    recorder.run_until(&mut sim, horizon);

    finish(recorder, &sim, config.grace, horizon, 1)
}

/// The classic self-stabilization experiment: start from an **arbitrary
/// global state**. "Processes (respectively channels) can be improperly
/// initialized" (§3.1) — every process's state is corrupted at `t = 0`
/// and every channel is pre-loaded with 0–2 arbitrary messages, then the
/// normal client workload runs. A stabilizing system must shake the bad
/// initialization off and serve the workload.
pub fn arbitrary_init(config: &RunConfig) -> (Trace, RunOutcome) {
    let mut sim = build_sim(config);
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x0BAD_1117);
    for pid in ProcessId::all(config.n) {
        sim.corrupt_process(pid);
    }
    for from in ProcessId::all(config.n) {
        for to in ProcessId::all(config.n) {
            if from == to {
                continue;
            }
            for _ in 0..rng.gen_range(0..=2u32) {
                let mut payload = TmeMsg::Request(Timestamp::zero(from));
                payload.corrupt(&mut rng);
                sim.inject_message(from, to, payload);
            }
        }
    }
    let mut recorder = TraceRecorder::new(&sim);
    recorder.mark_fault(&sim, ProcessId(0), "arbitrary initialization".into());
    let workload = graybox_tme::Workload::generate(
        graybox_tme::WorkloadConfig {
            n: config.n,
            ..config.workload
        },
        config.seed,
    );
    workload.apply(&mut sim);
    let horizon = config.horizon.unwrap_or(workload.last_request_at() + 2_000);
    recorder.run_until(&mut sim, horizon);

    finish(recorder, &sim, config.grace, horizon, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graybox_tme::Implementation;
    use graybox_wrapper::WrapperConfig;

    #[test]
    fn unwrapped_deadlock_starves() {
        let config = RunConfig::new(2, Implementation::RicartAgrawala).seed(1);
        let (_, outcome) = deadlock(&config);
        assert!(!outcome.verdict.stabilized);
        assert_eq!(outcome.total_entries, 0);
        assert!(outcome.verdict.starved > 0);
    }

    #[test]
    fn wrapped_deadlock_recovers_for_every_implementation() {
        for implementation in Implementation::ALL {
            let config = RunConfig::new(2, implementation)
                .wrapper(WrapperConfig::timeout(4))
                .seed(2);
            let (_, outcome) = deadlock(&config);
            assert!(outcome.verdict.stabilized, "{implementation} stuck");
            assert_eq!(outcome.total_entries, 2, "{implementation} lost a grant");
            assert!(outcome.wrapper_resends > 0);
        }
    }

    #[test]
    fn five_process_deadlock_also_recovers() {
        let config = RunConfig::new(5, Implementation::Lamport)
            .wrapper(WrapperConfig::timeout(8))
            .seed(3)
            .horizon(SimTime::from(4_000));
        let (_, outcome) = deadlock(&config);
        assert!(outcome.verdict.stabilized);
        assert_eq!(outcome.total_entries, 5);
    }

    #[test]
    fn reply_loss_starves_unwrapped_and_recovers_wrapped() {
        for implementation in Implementation::ALL {
            let unwrapped = RunConfig::new(3, implementation).seed(6);
            let (_, outcome) = reply_loss(&unwrapped);
            assert_eq!(outcome.entries[0], 0, "{implementation}: p0 should starve");
            assert!(!outcome.verdict.stabilized, "{implementation}");

            let wrapped = RunConfig::new(3, implementation)
                .wrapper(WrapperConfig::timeout(6))
                .seed(6);
            let (_, outcome) = reply_loss(&wrapped);
            assert_eq!(outcome.entries[0], 1, "{implementation}: p0 must recover");
            assert!(outcome.verdict.stabilized, "{implementation}");
        }
    }

    #[test]
    fn arbitrary_init_is_shaken_off_by_every_wrapped_implementation() {
        for implementation in Implementation::ALL {
            for seed in 0..3u64 {
                let config = RunConfig::new(3, implementation)
                    .wrapper(WrapperConfig::timeout(8))
                    .seed(seed);
                let (_, outcome) = arbitrary_init(&config);
                assert!(
                    outcome.verdict.stabilized,
                    "{implementation} seed {seed}: bad init not recovered"
                );
                assert!(outcome.total_entries > 0);
            }
        }
    }

    #[test]
    fn arbitrary_init_is_reproducible() {
        let config = RunConfig::new(3, Implementation::Lamport)
            .wrapper(WrapperConfig::timeout(8))
            .seed(4);
        let (_, a) = arbitrary_init(&config);
        let (_, b) = arbitrary_init(&config);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.messages_sent, b.messages_sent);
    }

    #[test]
    fn recovery_latency_grows_with_theta() {
        let time_at = |theta: u64| -> u64 {
            let config = RunConfig::new(2, Implementation::RicartAgrawala)
                .wrapper(WrapperConfig::timeout(theta))
                .seed(4);
            let (trace, outcome) = deadlock(&config);
            let fault_at = trace.last_fault_time().expect("fault marked");
            outcome.recovery_ticks(fault_at).expect("recovers")
        };
        let fast = time_at(0);
        let slow = time_at(64);
        assert!(
            fast < slow,
            "θ=0 recovery {fast} should beat θ=64 recovery {slow}"
        );
    }
}
