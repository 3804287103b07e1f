//! Checkers for `TME_Spec` itself (§3.1): ME1 (mutual exclusion), ME2
//! (starvation freedom), ME3 (first-come first-serve).
//!
//! ME3 is checked against Lamport's *actual* happened-before relation
//! (maintained exactly by the recorder's vector clocks), not wall-clock
//! order: `(h.j ∧ REQ_j hb REQ_k) ⇒ ts(e.j) < ts(e.k)` — for each pair of
//! granted requests whose request events are hb-ordered, the entry events'
//! logical timestamps must be ordered the same way.

use graybox_clock::{EventRef, ProcessId, Timestamp};
use graybox_simnet::SimTime;

use crate::lspec::{merge_liveness, per_process_states};
use crate::temporal::{LivenessOutcome, SafetyOutcome};
use crate::Trace;

/// ME1 — Mutual Exclusion: `(∀ j,k : e.j ∧ e.k ⇒ j = k)` at every
/// recorded state.
pub fn check_me1(trace: &Trace) -> SafetyOutcome {
    let mut violations = Vec::new();
    for (i, step) in trace.steps().iter().enumerate() {
        let eating = step
            .snapshots
            .iter()
            .filter(|snap| snap.mode.is_eating())
            .count();
        if eating > 1 {
            violations.push((i, step.time));
        }
    }
    SafetyOutcome { violations }
}

/// ME2 — Starvation Freedom: every hungry interval closes (`h.j ↦ ¬h.j`),
/// with finite-trace grace.
///
/// On fault-free traces this is equivalent to the paper's `h.j ↦ e.j`
/// (Flow Spec forbids leaving hunger except into eating, and the
/// structural checker enforces that separately). On faulty traces the
/// weaker form is the right notion: a hungry interval annulled by a
/// process reset or corruption is a *fault*, not protocol starvation —
/// genuine starvation is being stuck hungry forever, which both forms
/// flag.
pub fn check_me2(trace: &Trace, grace: u64) -> LivenessOutcome {
    merge_liveness((0..trace.n()).map(|pid| {
        let (modes, times) = per_process_states(trace, pid, |s| s.mode);
        crate::temporal::leads_to(
            &modes,
            &times,
            trace.end_time(),
            grace,
            |m| m.is_hungry(),
            |m| !m.is_hungry(),
        )
    }))
}

/// A granted request instance: request event, entry event, and their
/// logical timestamps, extracted from a trace for FCFS checking.
#[derive(Debug, Clone)]
pub struct GrantedRequest {
    /// Which process.
    pub pid: ProcessId,
    /// The request timestamp `REQ_j` of this service round.
    pub req: Timestamp,
    /// Happened-before handle of the request (t → h) step.
    pub request_event: EventRef,
    /// Logical timestamp of the entry (h → e) step (`ts(e.j)`).
    pub entry_ts: Timestamp,
    /// Wall-clock (virtual) time of the entry.
    pub entry_time: SimTime,
    /// Wall-clock (virtual) time of the request.
    pub request_time: SimTime,
}

/// Extracts all granted requests: for each process, pair each `t → h`
/// transition with the next `h → e` transition (if any).
pub fn granted_requests(trace: &Trace) -> Vec<GrantedRequest> {
    let mut result = Vec::new();
    for pid in 0..trace.n() {
        let mut prev_mode = trace.initial()[pid].mode;
        let mut open: Option<(EventRef, Timestamp, SimTime)> = None;
        for step in trace.steps() {
            let snap = &step.snapshots[pid];
            let now_mode = snap.mode;
            if prev_mode != now_mode && !step.kind.is_fault() {
                if prev_mode.is_thinking() && now_mode.is_hungry() {
                    if let Some(event) = step.hb_event {
                        open = Some((event, snap.req, step.time));
                    }
                } else if prev_mode.is_hungry() && now_mode.is_eating() {
                    if let Some((request_event, req, request_time)) = open.take() {
                        result.push(GrantedRequest {
                            pid: ProcessId(u32::try_from(pid).expect("process count exceeds u32")),
                            req,
                            request_event,
                            entry_ts: snap.now_ts,
                            entry_time: step.time,
                            request_time,
                        });
                    }
                } else {
                    // Any other transition (incl. convergence artifacts)
                    // voids the open request pairing.
                    open = None;
                }
            }
            prev_mode = now_mode;
        }
    }
    result
}

/// ME3 — First-Come First-Serve: for granted requests `r`, `s` with
/// `r.request hb s.request`, require `ts(e_r) < ts(e_s)`.
pub fn check_me3(trace: &Trace) -> SafetyOutcome {
    let grants = granted_requests(trace);
    let mut violations = Vec::new();
    for r in &grants {
        for s in &grants {
            if r.pid == s.pid {
                continue;
            }
            if trace.hb().happened_before(r.request_event, s.request_event)
                && !r.entry_ts.lt(s.entry_ts)
            {
                // Attribute to the later entry step.
                let time = r.entry_time.max(s.entry_time);
                violations.push((0, time));
            }
        }
    }
    violations.sort_unstable();
    violations.dedup();
    SafetyOutcome { violations }
}

/// Verdict of checking all of `TME_Spec` over a trace.
#[derive(Debug, Clone)]
pub struct TmeSpecReport {
    /// ME1, mutual exclusion.
    pub me1: SafetyOutcome,
    /// ME2, starvation freedom.
    pub me2: LivenessOutcome,
    /// ME3, first-come first-serve.
    pub me3: SafetyOutcome,
}

impl TmeSpecReport {
    /// True when ME1 ∧ ME2 ∧ ME3 hold over the whole trace.
    pub fn holds(&self) -> bool {
        self.me1.holds() && self.me2.holds() && self.me3.holds()
    }

    /// True when all three hold on the suffix from `from`.
    pub fn holds_from(&self, from: SimTime) -> bool {
        self.me1.holds_from(from) && self.me2.holds_from(from) && self.me3.holds_from(from)
    }
}

/// Checks ME1 ∧ ME2 ∧ ME3.
pub fn check_all(trace: &Trace, grace: u64) -> TmeSpecReport {
    TmeSpecReport {
        me1: check_me1(trace),
        me2: check_me2(trace, grace),
        me3: check_me3(trace),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lspec::DEFAULT_GRACE;
    use crate::TraceRecorder;
    use graybox_simnet::{SimConfig, Simulation};
    use graybox_tme::{Implementation, Mode, TmeProcess, Workload, WorkloadConfig};

    fn fault_free_trace(implementation: Implementation, n: usize, seed: u64) -> Trace {
        let procs = (0..u32::try_from(n).unwrap())
            .map(|i| TmeProcess::new(implementation, ProcessId(i), n))
            .collect();
        let mut sim = Simulation::new(procs, SimConfig::with_seed(seed));
        Workload::generate(
            WorkloadConfig {
                n,
                requests_per_process: 3,
                mean_think: 25,
                eat_for: 4,
                start: 1,
            },
            seed,
        )
        .apply(&mut sim);
        let mut recorder = TraceRecorder::new(&sim);
        recorder.run_until(&mut sim, SimTime::from(5_000));
        recorder.into_trace()
    }

    #[test]
    fn all_implementations_satisfy_tme_spec_fault_free() {
        for (i, implementation) in Implementation::ALL.into_iter().enumerate() {
            let trace = fault_free_trace(implementation, 4, 10 + i as u64);
            let report = check_all(&trace, DEFAULT_GRACE);
            assert!(report.me1.holds(), "{implementation}: ME1 violated");
            assert!(report.me2.holds(), "{implementation}: ME2 violated");
            assert!(report.me3.holds(), "{implementation}: ME3 violated");
        }
    }

    #[test]
    fn granted_requests_pair_up() {
        let trace = fault_free_trace(Implementation::RicartAgrawala, 3, 42);
        let grants = granted_requests(&trace);
        // 3 processes × 3 requests, all served in a fault-free run (some
        // may be ignored if a process was still hungry when re-asked).
        assert!(!grants.is_empty());
        for grant in &grants {
            assert!(grant.request_time <= grant.entry_time);
            assert!(grant.req.lt(grant.entry_ts));
        }
    }

    #[test]
    fn me1_detects_fabricated_overlap() {
        let mut trace = fault_free_trace(Implementation::RicartAgrawala, 2, 7);
        let steps = trace.steps_mut();
        let step = steps.first_mut().unwrap();
        for snap in &mut step.snapshots {
            snap.mode = Mode::Eating;
        }
        assert!(!check_me1(&trace).holds());
    }

    #[test]
    fn me2_flags_permanent_starvation() {
        // Deadlock run: both requests dropped (no wrapper).
        let n = 2;
        let procs = (0..u32::try_from(n).unwrap())
            .map(|i| TmeProcess::new(Implementation::RicartAgrawala, ProcessId(i), n))
            .collect();
        let mut sim = Simulation::new(procs, SimConfig::with_seed(8));
        sim.schedule_client(
            SimTime::from(1),
            ProcessId(0),
            graybox_tme::TmeClient::Request { eat_for: 2 },
        );
        sim.schedule_client(
            SimTime::from(1),
            ProcessId(1),
            graybox_tme::TmeClient::Request { eat_for: 2 },
        );
        let mut recorder = TraceRecorder::new(&sim);
        while sim.peek_time().is_some_and(|t| t <= SimTime::from(1)) {
            recorder.step(&mut sim);
        }
        sim.flush_channel(ProcessId(0), ProcessId(1));
        sim.flush_channel(ProcessId(1), ProcessId(0));
        recorder.mark_fault(&sim, ProcessId(0), "flush both request channels".into());
        recorder.run_until(&mut sim, SimTime::from(3_000));
        let trace = recorder.into_trace();
        let me2 = check_me2(&trace, DEFAULT_GRACE);
        assert!(!me2.holds(), "deadlock should starve both processes");
    }
}
