//! Checkers for every conjunct of the paper's `Lspec` (§3.2), plus the
//! invariant **I** of Theorem A.1.
//!
//! Each checker reports *where* the conjunct was violated
//! ([`SafetyOutcome`] / [`LivenessOutcome`]), so the same machinery serves
//! both conformance testing (fault-free runs must have zero violations —
//! Theorems 9 and 10) and convergence analysis (violations must stop after
//! the wrapper has stabilized the system — Theorem 8).
//!
//! Steps flagged as fault markers, and the single transition across each
//! marker, are exempt from the safety checks: a fault is by definition not
//! a step of the implementation.
//!
//! Operationalizations of the paper's prose (documented deviations):
//!
//! * **Reply Spec** is checked at request-delivery granularity: when a
//!   `Request(ts)` with `ts lt REQ_j` (after the step) is delivered,
//!   the step must send *some* message back to the requester. Deferred
//!   replies (requests later than ours) are covered by ME2 instead.
//! * **CS Release Spec** is weakened from `t.j ⇒ REQ_j = ts.j` to
//!   `t.j ⇒ ¬(ts.j lt REQ_j)` plus exact equality at each `e → t`
//!   transition: a thinking process's clock may advance past `REQ_j` on
//!   events (e.g. a Lamport release delivery) that the paper's own
//!   `Lamport_ME` does not treat as refreshing `REQ_j`.

use graybox_clock::Timestamp;
use graybox_simnet::SimTime;
use graybox_tme::{Mode, TmeMsg};

use crate::temporal::{LivenessOutcome, SafetyOutcome};
use crate::{Trace, TraceEventKind};

/// Default liveness grace period (ticks a pending obligation may still be
/// legitimately undischarged at trace end).
pub const DEFAULT_GRACE: u64 = 200;

pub(crate) fn per_process_states<'a, T: 'a>(
    trace: &'a Trace,
    pid: usize,
    project: impl Fn(&graybox_tme::ProcSnapshot) -> T + 'a,
) -> (Vec<T>, Vec<SimTime>) {
    let mut states = vec![project(&trace.initial()[pid])];
    let mut times = Vec::new();
    for step in trace.steps() {
        states.push(project(&step.snapshots[pid]));
        times.push(step.time);
    }
    (states, times)
}

/// Indices of transitions that cross a fault marker (the marker step
/// itself): transition `i` is `states[i] → states[i+1]`, produced by step
/// `i`; if step `i` is a fault, the implementation did not take it.
fn fault_steps(trace: &Trace) -> Vec<bool> {
    trace.steps().iter().map(|s| s.kind.is_fault()).collect()
}

/// Client Spec — Structural + Flow: the mode only moves around the cycle
/// `t → h → e → t` (or stays), at every process.
pub fn check_structural_flow(trace: &Trace) -> SafetyOutcome {
    let faults = fault_steps(trace);
    let mut violations = Vec::new();
    for pid in 0..trace.n() {
        let (modes, times) = per_process_states(trace, pid, |s| s.mode);
        for i in 0..modes.len().saturating_sub(1) {
            if faults[i] {
                continue;
            }
            if !modes[i].flow_allows(modes[i + 1]) {
                violations.push((i, times[i]));
            }
        }
    }
    violations.sort_unstable();
    violations.dedup();
    SafetyOutcome { violations }
}

/// Client Spec — CS Spec: `e.j ↦ ¬e.j` (eating is transient).
pub fn check_cs_transience(trace: &Trace, grace: u64) -> LivenessOutcome {
    merge_liveness((0..trace.n()).map(|pid| {
        let (modes, times) = per_process_states(trace, pid, |s| s.mode);
        crate::temporal::leads_to(
            &modes,
            &times,
            trace.end_time(),
            grace,
            |m| m.is_eating(),
            |m| !m.is_eating(),
        )
    }))
}

/// Program Spec — Request Spec, safety half: `h.j ⇒ REQ_j = REQ'_j`
/// (the request timestamp is frozen while hungry).
pub fn check_request_frozen(trace: &Trace) -> SafetyOutcome {
    let faults = fault_steps(trace);
    let mut violations = Vec::new();
    for pid in 0..trace.n() {
        let (states, times) = per_process_states(trace, pid, |s| (s.mode, s.req));
        for i in 0..states.len().saturating_sub(1) {
            if faults[i] {
                continue;
            }
            let ((before_mode, before_req), (after_mode, after_req)) = (states[i], states[i + 1]);
            if before_mode.is_hungry() && after_mode.is_hungry() && before_req != after_req {
                violations.push((i, times[i]));
            }
        }
    }
    violations.sort_unstable();
    violations.dedup();
    SafetyOutcome { violations }
}

/// Program Spec — Request Spec, send half: the step that turns a process
/// hungry must broadcast its `Request(REQ_j)` to every peer.
pub fn check_request_broadcast(trace: &Trace) -> SafetyOutcome {
    let mut violations = Vec::new();
    let mut prev_modes: Vec<Mode> = trace.initial().iter().map(|s| s.mode).collect();
    for (i, step) in trace.steps().iter().enumerate() {
        let pid = step.pid.index();
        if pid < trace.n() && !step.kind.is_fault() {
            let now_mode = step.snapshots[pid].mode;
            if prev_modes[pid].is_thinking() && now_mode.is_hungry() {
                let req = step.snapshots[pid].req;
                let all_covered = (0..trace.n()).filter(|&k| k != pid).all(|k| {
                    step.sends
                        .iter()
                        .any(|send| send.to.index() == k && send.payload == TmeMsg::Request(req))
                });
                if !all_covered {
                    violations.push((i, step.time));
                }
            }
        }
        for (slot, snap) in prev_modes.iter_mut().zip(&step.snapshots) {
            *slot = snap.mode;
        }
    }
    SafetyOutcome { violations }
}

/// Program Spec — Reply Spec (immediate half): delivering `Request(ts)`
/// with `ts lt REQ_j` (after the step) must send something back to the
/// requester in the same step.
pub fn check_reply_spec(trace: &Trace) -> SafetyOutcome {
    let mut violations = Vec::new();
    for (i, step) in trace.steps().iter().enumerate() {
        let TraceEventKind::Deliver { from, payload, .. } = &step.kind else {
            continue;
        };
        let TmeMsg::Request(ts) = payload else {
            continue;
        };
        let pid = step.pid.index();
        if pid >= trace.n() || from.index() >= trace.n() || *from == step.pid {
            continue;
        }
        let req_after = step.snapshots[pid].req;
        if (*ts).lt(req_after) && !step.sends.iter().any(|send| send.to == *from) {
            violations.push((i, step.time));
        }
    }
    SafetyOutcome { violations }
}

/// Program Spec — CS Entry Spec (liveness half):
/// `(h.j ∧ (∀k : REQ_j lt j.REQ_k)) ↦ e.j`.
pub fn check_cs_entry(trace: &Trace, grace: u64) -> LivenessOutcome {
    merge_liveness((0..trace.n()).map(|pid| {
        let (states, times) = per_process_states(trace, pid, |s| (s.mode, s.precedes_all()));
        crate::temporal::leads_to(
            &states,
            &times,
            trace.end_time(),
            grace,
            |&(mode, precedes)| mode.is_hungry() && precedes,
            |&(mode, _)| mode.is_eating(),
        )
    }))
}

/// Program Spec — CS Release Spec (weakened, see module docs):
/// `t.j ⇒ ¬(ts.j lt REQ_j)`, and `REQ_j = ts.j` exactly at `e → t` steps.
pub fn check_cs_release(trace: &Trace) -> SafetyOutcome {
    let faults = fault_steps(trace);
    let mut violations = Vec::new();
    for pid in 0..trace.n() {
        let (states, times) = per_process_states(trace, pid, |s| (s.mode, s.req, s.now_ts));
        for i in 0..states.len().saturating_sub(1) {
            if faults[i] {
                continue;
            }
            let (before_mode, _, _) = states[i];
            let (after_mode, after_req, after_now) = states[i + 1];
            // REQ may never be ahead of the clock while thinking.
            if after_mode.is_thinking() && after_now.lt(after_req) {
                violations.push((i, times[i]));
            }
            // At the release step itself, REQ must equal the clock.
            if before_mode.is_eating() && after_mode.is_thinking() && after_req != after_now {
                violations.push((i, times[i]));
            }
        }
    }
    violations.sort_unstable();
    violations.dedup();
    SafetyOutcome { violations }
}

/// Environment Spec — Timestamp Spec: (a) each process's clock is
/// monotone; (b) along every message edge, the carried timestamp is `lt`
/// the receiver's clock after the receive (`e hb f ⇒ ts.e < ts.f`).
pub fn check_timestamp_spec(trace: &Trace) -> SafetyOutcome {
    let faults = fault_steps(trace);
    let mut violations = Vec::new();
    for pid in 0..trace.n() {
        let (clocks, times) = per_process_states(trace, pid, |s| s.now_ts.time);
        for i in 0..clocks.len().saturating_sub(1) {
            if faults[i] {
                continue;
            }
            if clocks[i + 1] < clocks[i] {
                violations.push((i, times[i]));
            }
        }
    }
    for (i, step) in trace.steps().iter().enumerate() {
        if let TraceEventKind::Deliver { from, payload, .. } = &step.kind {
            let pid = step.pid.index();
            // Only messages from a plausible peer are witnessed by the
            // implementations; garbage with an impossible origin is
            // rejected without a causal edge.
            if pid < trace.n() && from.index() < trace.n() && *from != step.pid {
                let after = step.snapshots[pid].now_ts;
                if after.time <= payload.timestamp().time {
                    violations.push((i, step.time));
                }
            }
        }
    }
    violations.sort_unstable();
    violations.dedup();
    SafetyOutcome { violations }
}

/// Environment Spec — Communication Spec: channels are FIFO. Message ids
/// are assigned in channel-append order, so per ordered pair the delivered
/// ids must be strictly increasing.
pub fn check_fifo(trace: &Trace) -> SafetyOutcome {
    let mut last_seen: Vec<Vec<Option<u64>>> = vec![vec![None; trace.n()]; trace.n()];
    let mut violations = Vec::new();
    for (i, step) in trace.steps().iter().enumerate() {
        if let TraceEventKind::Deliver { from, msg_id, .. } = &step.kind {
            let (f, t) = (from.index(), step.pid.index());
            if f >= trace.n() || t >= trace.n() {
                continue;
            }
            if let Some(last) = last_seen[f][t] {
                if *msg_id <= last {
                    violations.push((i, step.time));
                }
            }
            last_seen[f][t] = Some(*msg_id);
        }
    }
    SafetyOutcome { violations }
}

/// Theorem A.1's invariant **I**:
/// `(∀ j,k : j ≠ k : j.REQ_k = REQ_k ∨ j.REQ_k lt REQ_k)` — local copies
/// are the truth or older than the truth, never from the future. Evaluated
/// only over the copies an implementation materializes
/// (`ProcSnapshot::local_req`), per the paper's remark that `j.REQ_k` may
/// be virtual.
pub fn check_invariant_i(trace: &Trace) -> SafetyOutcome {
    let mut violations = Vec::new();
    let eval = |snaps: &[graybox_tme::ProcSnapshot]| -> bool {
        for j in 0..snaps.len() {
            for (k, copy) in snaps[j].local_req.iter().enumerate() {
                if j == k {
                    continue;
                }
                if let Some(copy) = copy {
                    let truth = actual_req(snaps, k);
                    if *copy != truth && !(*copy).lt(truth) {
                        return false;
                    }
                }
            }
        }
        true
    };
    for (i, step) in trace.steps().iter().enumerate() {
        if !eval(&step.snapshots) {
            violations.push((i, step.time));
        }
    }
    SafetyOutcome { violations }
}

fn actual_req(snaps: &[graybox_tme::ProcSnapshot], k: usize) -> Timestamp {
    snaps[k].req
}

pub(crate) fn merge_liveness(outcomes: impl Iterator<Item = LivenessOutcome>) -> LivenessOutcome {
    let mut merged = LivenessOutcome::default();
    for outcome in outcomes {
        merged.violated.extend(outcome.violated);
        merged.pending.extend(outcome.pending);
    }
    merged.violated.sort_unstable();
    merged.violated.dedup();
    merged.pending.sort_unstable();
    merged.pending.dedup();
    merged
}

/// Verdict of checking every conjunct of `Lspec` over a trace.
#[derive(Debug, Clone)]
pub struct LspecReport {
    /// Structural + Flow Spec.
    pub structural_flow: SafetyOutcome,
    /// CS Spec (eating transient).
    pub cs_transience: LivenessOutcome,
    /// Request Spec (frozen half).
    pub request_frozen: SafetyOutcome,
    /// Request Spec (broadcast half).
    pub request_broadcast: SafetyOutcome,
    /// Reply Spec (immediate half).
    pub reply: SafetyOutcome,
    /// CS Entry Spec.
    pub cs_entry: LivenessOutcome,
    /// CS Release Spec (weakened).
    pub cs_release: SafetyOutcome,
    /// Timestamp Spec.
    pub timestamp: SafetyOutcome,
    /// Communication Spec (FIFO).
    pub fifo: SafetyOutcome,
}

impl LspecReport {
    /// True when every conjunct holds over the whole trace.
    pub fn holds(&self) -> bool {
        self.structural_flow.holds()
            && self.cs_transience.holds()
            && self.request_frozen.holds()
            && self.request_broadcast.holds()
            && self.reply.holds()
            && self.cs_entry.holds()
            && self.cs_release.holds()
            && self.timestamp.holds()
            && self.fifo.holds()
    }

    /// True when every conjunct holds on the suffix starting at `from`.
    pub fn holds_from(&self, from: SimTime) -> bool {
        self.structural_flow.holds_from(from)
            && self.cs_transience.holds_from(from)
            && self.request_frozen.holds_from(from)
            && self.request_broadcast.holds_from(from)
            && self.reply.holds_from(from)
            && self.cs_entry.holds_from(from)
            && self.cs_release.holds_from(from)
            && self.timestamp.holds_from(from)
            && self.fifo.holds_from(from)
    }

    /// Names of the conjuncts that were violated anywhere.
    pub fn violated_conjuncts(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        if !self.structural_flow.holds() {
            names.push("Structural/Flow Spec");
        }
        if !self.cs_transience.holds() {
            names.push("CS Spec");
        }
        if !self.request_frozen.holds() {
            names.push("Request Spec (frozen)");
        }
        if !self.request_broadcast.holds() {
            names.push("Request Spec (broadcast)");
        }
        if !self.reply.holds() {
            names.push("Reply Spec");
        }
        if !self.cs_entry.holds() {
            names.push("CS Entry Spec");
        }
        if !self.cs_release.holds() {
            names.push("CS Release Spec");
        }
        if !self.timestamp.holds() {
            names.push("Timestamp Spec");
        }
        if !self.fifo.holds() {
            names.push("Communication Spec (FIFO)");
        }
        names
    }
}

/// Checks every conjunct of `Lspec` over the trace.
pub fn check_all(trace: &Trace, grace: u64) -> LspecReport {
    LspecReport {
        structural_flow: check_structural_flow(trace),
        cs_transience: check_cs_transience(trace, grace),
        request_frozen: check_request_frozen(trace),
        request_broadcast: check_request_broadcast(trace),
        reply: check_reply_spec(trace),
        cs_entry: check_cs_entry(trace, grace),
        cs_release: check_cs_release(trace),
        timestamp: check_timestamp_spec(trace),
        fifo: check_fifo(trace),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graybox_clock::ProcessId;
    use graybox_simnet::{SimConfig, Simulation};
    use graybox_tme::{Implementation, TmeClient, TmeProcess, Workload, WorkloadConfig};

    fn fault_free_trace(implementation: Implementation, n: usize, seed: u64) -> Trace {
        let procs = (0..u32::try_from(n).unwrap())
            .map(|i| TmeProcess::new(implementation, ProcessId(i), n))
            .collect();
        let mut sim = Simulation::new(procs, SimConfig::with_seed(seed));
        let workload = Workload::generate(
            WorkloadConfig {
                n,
                requests_per_process: 2,
                mean_think: 30,
                eat_for: 4,
                start: 1,
            },
            seed,
        );
        workload.apply(&mut sim);
        let mut recorder = crate::TraceRecorder::new(&sim);
        recorder.run_until(&mut sim, SimTime::from(3_000));
        recorder.into_trace()
    }

    #[test]
    fn ra_fault_free_satisfies_lspec() {
        let trace = fault_free_trace(Implementation::RicartAgrawala, 3, 1);
        let report = check_all(&trace, DEFAULT_GRACE);
        assert!(
            report.holds(),
            "violated: {:?}",
            report.violated_conjuncts()
        );
    }

    #[test]
    fn lamport_fault_free_satisfies_lspec() {
        let trace = fault_free_trace(Implementation::Lamport, 3, 2);
        let report = check_all(&trace, DEFAULT_GRACE);
        assert!(
            report.holds(),
            "violated: {:?}",
            report.violated_conjuncts()
        );
    }

    #[test]
    fn alt_fault_free_satisfies_lspec() {
        let trace = fault_free_trace(Implementation::AltRicartAgrawala, 3, 3);
        let report = check_all(&trace, DEFAULT_GRACE);
        assert!(
            report.holds(),
            "violated: {:?}",
            report.violated_conjuncts()
        );
    }

    #[test]
    fn ra_fault_free_satisfies_invariant_i() {
        let trace = fault_free_trace(Implementation::RicartAgrawala, 4, 4);
        assert!(check_invariant_i(&trace).holds());
    }

    #[test]
    fn corruption_is_visible_to_invariant_i() {
        use graybox_rng::rngs::SmallRng;
        use graybox_rng::SeedableRng;
        use graybox_simnet::Corruptible;
        let n = 3;
        let procs = (0..u32::try_from(n).unwrap())
            .map(|i| TmeProcess::new(Implementation::RicartAgrawala, ProcessId(i), n))
            .collect();
        let mut sim = Simulation::new(procs, SimConfig::with_seed(9));
        let mut recorder = crate::TraceRecorder::new(&sim);
        recorder.run_until(&mut sim, SimTime::from(20));
        let mut rng = SmallRng::seed_from_u64(5);
        // Corrupt until some local copy is from the future.
        let mut saw_violation = false;
        for _ in 0..32 {
            sim.process_mut(ProcessId(0)).corrupt(&mut rng);
            recorder.mark_fault(&sim, ProcessId(0), "corrupt p0".into());
            sim.schedule_client(
                sim.now() + 1,
                ProcessId(1),
                TmeClient::Request { eat_for: 2 },
            );
            let until = sim.now() + 50;
            recorder.run_until(&mut sim, until);
            let trace_so_far = recorder_snapshot(&recorder);
            if !check_invariant_i(&trace_so_far).holds() {
                saw_violation = true;
                break;
            }
        }
        assert!(saw_violation, "corruption never violated invariant I");
    }

    fn recorder_snapshot(recorder: &crate::TraceRecorder) -> Trace {
        // Cheap structural clone via Debug is unavailable; rebuild by
        // cloning the recorder's accumulated state.
        recorder.clone_trace()
    }

    #[test]
    fn structural_flow_catches_fabricated_jump() {
        let mut trace = fault_free_trace(Implementation::RicartAgrawala, 2, 6);
        // Fabricate an illegal t -> e jump in the recorded snapshots.
        if let Some(step) = trace_steps_mut(&mut trace).first_mut() {
            step.snapshots[0].mode = graybox_tme::Mode::Eating;
        }
        assert!(!check_structural_flow(&trace).holds());
    }

    fn trace_steps_mut(trace: &mut Trace) -> &mut Vec<crate::TraceStep> {
        trace.steps_mut()
    }
}
