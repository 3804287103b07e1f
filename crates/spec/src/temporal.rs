//! UNITY temporal operators over recorded traces.
//!
//! Counterparts of the operators in `graybox_core::unity`, but evaluated on
//! a single finite execution instead of a full transition system. Safety
//! checkers (in [`lspec`](crate::lspec) and [`tme_spec`](crate::tme_spec))
//! report every violating step index as a [`SafetyOutcome`]; the liveness
//! operator [`leads_to`] additionally reports *pending* obligations —
//! `p`-states near the end of the trace whose `q` may simply not have
//! arrived yet — so finite-trace semantics stay honest.

use graybox_simnet::SimTime;

/// Outcome of a safety check: the indices (into `Trace::steps`) where the
/// property was violated, with their times.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SafetyOutcome {
    /// `(step index, time)` of each violation.
    pub violations: Vec<(usize, SimTime)>,
}

impl SafetyOutcome {
    /// True when no violation occurred anywhere in the trace.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }

    /// Time of the last violation, if any.
    pub fn last_violation(&self) -> Option<SimTime> {
        self.violations.last().map(|&(_, time)| time)
    }

    /// True when no violation occurs at or after `from` — i.e. the suffix
    /// satisfies the property (the stabilization notion).
    pub fn holds_from(&self, from: SimTime) -> bool {
        self.violations.iter().all(|&(_, time)| time < from)
    }
}

/// Outcome of a liveness (`p ↦ q`) check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LivenessOutcome {
    /// Obligations opened at `(step index, time)` that were never
    /// discharged and had at least `grace` trace time left to do so —
    /// genuine violations on this trace.
    pub violated: Vec<(usize, SimTime)>,
    /// Obligations opened near the end of the trace that were not
    /// discharged but also had less than the grace period available:
    /// indeterminate, not counted as violations.
    pub pending: Vec<(usize, SimTime)>,
}

impl LivenessOutcome {
    /// True when every obligation with enough remaining trace time was
    /// discharged.
    pub fn holds(&self) -> bool {
        self.violated.is_empty()
    }

    /// True when every obligation opened at or after `from` (with enough
    /// remaining trace) was discharged.
    pub fn holds_from(&self, from: SimTime) -> bool {
        self.violated.iter().all(|&(_, time)| time < from)
    }
}

/// Checks `p ↦ q` (leads-to) with finite-trace grace: every state index
/// where `p` holds must be followed (at or after it) by a state where `q`
/// holds; undischarged obligations whose opening time is within `grace` of
/// the trace end are reported as pending, not violated.
pub fn leads_to<S>(
    states: &[S],
    times: &[SimTime],
    end: SimTime,
    grace: u64,
    p: impl Fn(&S) -> bool,
    q: impl Fn(&S) -> bool,
) -> LivenessOutcome {
    let mut outcome = LivenessOutcome::default();
    // Precompute, for each index, whether q holds at or after it.
    let mut q_later = vec![false; states.len() + 1];
    for i in (0..states.len()).rev() {
        q_later[i] = q(&states[i]) || q_later[i + 1];
    }
    for (i, state) in states.iter().enumerate() {
        if p(state) && !q_later[i] {
            let step = i.saturating_sub(1);
            let time = times[step.min(times.len().saturating_sub(1))];
            if end.since(time) >= grace {
                outcome.violated.push((step, time));
            } else {
                outcome.pending.push((step, time));
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(n: usize) -> Vec<SimTime> {
        (0..n as u64).map(SimTime::from).collect()
    }

    #[test]
    fn holds_from_locates_suffix() {
        let out = SafetyOutcome {
            violations: vec![(0, SimTime::from(0))],
        };
        assert!(!out.holds());
        assert_eq!(out.last_violation(), Some(SimTime::from(0)));
        assert!(out.holds_from(SimTime::from(1)));
        assert!(!out.holds_from(SimTime::from(0)));
    }

    #[test]
    fn leads_to_discharged() {
        let states = vec![0, 1, 1, 2, 0];
        let out = leads_to(
            &states,
            &times(5),
            SimTime::from(4),
            0,
            |&v| v == 1,
            |&v| v == 2,
        );
        assert!(out.holds());
        assert!(out.pending.is_empty());
    }

    #[test]
    fn leads_to_violation_with_enough_trace_left() {
        let states = vec![0, 1, 0, 0, 0, 0];
        let out = leads_to(
            &states,
            &times(6),
            SimTime::from(100),
            10,
            |&v| v == 1,
            |&v| v == 2,
        );
        assert_eq!(out.violated.len(), 1);
    }

    #[test]
    fn leads_to_pending_near_trace_end() {
        let states = vec![0, 0, 0, 1];
        let out = leads_to(
            &states,
            &times(4),
            SimTime::from(3),
            10,
            |&v| v == 1,
            |&v| v == 2,
        );
        assert!(out.holds());
        assert_eq!(out.pending.len(), 1);
    }

    #[test]
    fn liveness_holds_from_scopes_suffix() {
        let states = vec![1, 0, 1, 0, 0, 0, 0];
        let mut out = leads_to(
            &states,
            &times(7),
            SimTime::from(100),
            10,
            |&v| v == 1,
            |&v| v == 2,
        );
        assert!(!out.holds());
        // Pretend the first violation was pre-convergence:
        out.violated.retain(|&(_, t)| t >= SimTime::from(1));
        assert!(out.holds_from(SimTime::from(2)));
    }
}
