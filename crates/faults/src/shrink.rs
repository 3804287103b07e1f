//! **Schedule shrinking**: reduce a failing fault schedule to a minimal
//! counterexample.
//!
//! Given a [`RunConfig`] whose campaign fails some predicate (doesn't
//! stabilize, violates ME1, …), [`shrink`] delta-debugs the fault plan:
//!
//! 1. **ddmin over events** — remove chunks of scheduled faults (halving
//!    granularity down to single events) and keep any candidate that
//!    still fails;
//! 2. **time tightening** — compress the schedule's time window (all
//!    faults at one instant, then binary spreading back out) so the
//!    minimal repro is also temporally tight.
//!
//! Every candidate is validated by a fresh deterministic run — same seed,
//! same workload, only the plan differs — so the result is a *verified*
//! still-failing schedule, returned together with its recorded
//! [`CampaignRun`] (replayable oplog included).

use crate::runner::{run_campaign, CampaignRun, RunConfig, RunOutcome};
use crate::{FaultEvent, FaultPlan};

/// The default failure predicate: the run failed to stabilize, or safety
/// was violated after the last fault.
pub fn failed(outcome: &RunOutcome) -> bool {
    !outcome.verdict.stabilized
}

/// Result of a successful shrink.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimal still-failing plan.
    pub minimal: FaultPlan,
    /// Events in the original plan.
    pub original_len: usize,
    /// Candidate campaigns executed while shrinking (the search cost).
    pub campaigns_run: usize,
    /// The recorded run of the minimal plan (oplog, trace, verdict).
    pub run: CampaignRun,
}

impl ShrinkOutcome {
    /// Events removed by the shrink.
    pub fn events_removed(&self) -> usize {
        self.original_len - self.minimal.len()
    }
}

/// Shrinks `config`'s fault plan against `fails` (see the module docs).
///
/// Returns `None` when the original campaign does not fail the predicate
/// — there is nothing to shrink.
pub fn shrink(config: &RunConfig, fails: impl Fn(&RunOutcome) -> bool) -> Option<ShrinkOutcome> {
    let mut campaigns_run = 0usize;
    let mut check = |plan: &FaultPlan| -> Option<CampaignRun> {
        let candidate = config.clone().faults(plan.clone());
        campaigns_run += 1;
        let run = run_campaign(&candidate);
        fails(&run.outcome).then_some(run)
    };

    let original = config.faults.clone();
    let mut best_run = check(&original)?;
    let mut best: Vec<FaultEvent> = original.events().to_vec();

    // Phase 1: ddmin over the event list.
    let mut chunk = best.len().div_ceil(2).max(1);
    while chunk >= 1 && !best.is_empty() {
        let mut start = 0;
        let mut reduced = false;
        while start < best.len() {
            let end = (start + chunk).min(best.len());
            let mut candidate = best.clone();
            candidate.drain(start..end);
            if candidate.len() < best.len() {
                if let Some(run) = check(&FaultPlan::from_events(candidate.clone())) {
                    best = candidate;
                    best_run = run;
                    reduced = true;
                    // Retry the same offset: the next chunk slid into it.
                    continue;
                }
            }
            start += chunk;
        }
        if chunk == 1 && !reduced {
            break;
        }
        if !reduced {
            chunk /= 2;
        }
    }

    // Phase 2: tighten the time window. Try collapsing every event onto
    // the earliest instant; if that passes (stops failing), binary-search
    // outward by halving the compression.
    if let (Some(first), Some(last)) = (best.first().map(|e| e.at), best.last().map(|e| e.at)) {
        if last > first {
            // Compression factor k: event times map to first + (t-first)/k.
            let mut applied: Option<(Vec<FaultEvent>, CampaignRun)> = None;
            for k in [u64::MAX, 8, 4, 2] {
                let candidate: Vec<FaultEvent> = best
                    .iter()
                    .map(|e| {
                        let offset = e.at.since(first);
                        let compressed = if k == u64::MAX { 0 } else { offset / k };
                        FaultEvent::new(first + compressed, e.kind)
                    })
                    .collect();
                if candidate.iter().map(|e| e.at).eq(best.iter().map(|e| e.at)) {
                    continue;
                }
                if let Some(run) = check(&FaultPlan::from_events(candidate.clone())) {
                    applied = Some((candidate, run));
                    break;
                }
            }
            if let Some((candidate, run)) = applied {
                best = candidate;
                best_run = run;
            }
        }
    }

    Some(ShrinkOutcome {
        minimal: FaultPlan::from_events(best),
        original_len: original.len(),
        campaigns_run,
        run: best_run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;
    use graybox_simnet::SimTime;
    use graybox_tme::Implementation;

    /// An unwrapped system under a corruption burst mixed with benign
    /// noise faults: fails to stabilize, and the shrinker should strip
    /// the noise.
    fn failing_config() -> RunConfig {
        let noise = FaultPlan::random_mix(7, (30, 55), 6, &[FaultKind::DropMessage]);
        let burst = FaultPlan::burst(FaultKind::CorruptProcess, SimTime::from(60), 6);
        RunConfig::new(3, Implementation::RicartAgrawala)
            .faults(noise.merge(burst))
            .seed(15)
    }

    #[test]
    fn shrink_returns_none_for_passing_runs() {
        let config = RunConfig::new(3, Implementation::RicartAgrawala).seed(1);
        assert!(shrink(&config, failed).is_none());
    }

    #[test]
    fn shrink_produces_smaller_still_failing_plan() {
        let config = failing_config();
        let original_len = config.faults.len();
        let outcome = crate::runner::run_tme(&config);
        assert!(failed(&outcome), "fixture must fail before shrinking");

        let shrunk = shrink(&config, failed).expect("failing run must shrink");
        assert_eq!(shrunk.original_len, original_len);
        assert!(
            shrunk.minimal.len() < original_len,
            "shrink did not remove any of the {original_len} events"
        );
        assert!(!shrunk.minimal.is_empty());
        assert!(failed(&shrunk.run.outcome), "minimal plan must still fail");
        assert!(shrunk.campaigns_run > 0);

        // The minimal plan is verified: re-running it fresh still fails.
        let rerun = crate::runner::run_tme(&config.clone().faults(shrunk.minimal.clone()));
        assert!(failed(&rerun));
    }
}
