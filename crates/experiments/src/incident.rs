//! Human-readable **incident reports** for recorded fault campaigns.
//!
//! A repro file (see `graybox_faults::repro`) pins a campaign; running it
//! through [`graybox_faults::run_campaign`] yields the recorded
//! [`CampaignRun`]. This module renders that pair as the report an
//! engineer reads first: what was run, what went wrong, when each fault
//! hit, and how to reproduce it again.

use std::fmt::Write as _;

use graybox_faults::{repro, CampaignRun, FaultKind, RunConfig};
use graybox_spec::TraceEventKind;

/// Renders the full incident report for a recorded campaign.
pub fn incident_report(config: &RunConfig, run: &CampaignRun) -> String {
    let mut out = String::new();
    let verdict = &run.outcome.verdict;
    let status = if verdict.stabilized {
        "STABILIZED"
    } else {
        "FAILED TO STABILIZE"
    };
    let _ = writeln!(out, "# Incident report: {status}");
    let _ = writeln!(out);

    let _ = writeln!(out, "## Verdict");
    let _ = writeln!(out, "- stabilized: {}", verdict.stabilized);
    match verdict.convergence_ticks {
        Some(t) => {
            let _ = writeln!(out, "- convergence: {t} ticks after the last fault");
        }
        None => {
            let _ = writeln!(out, "- convergence: never (no legitimate suffix)");
        }
    }
    let _ = writeln!(out, "- ME1 violations: {}", verdict.me1_violations);
    let _ = writeln!(out, "- starvation verdicts: {}", verdict.starved);
    let _ = writeln!(
        out,
        "- CS entries: {} total {:?}",
        run.outcome.total_entries, run.outcome.entries
    );
    let _ = writeln!(
        out,
        "- messages: {} sent, {} wrapper re-sends",
        run.outcome.messages_sent, run.outcome.wrapper_resends
    );
    let _ = writeln!(out, "- horizon: {}", run.outcome.horizon);
    let _ = writeln!(out);

    let _ = writeln!(
        out,
        "## Fault timeline ({} injected)",
        run.outcome.faults_injected
    );
    for step in run.trace.steps() {
        if let TraceEventKind::Fault { description } = &step.kind {
            let _ = writeln!(out, "- {}: {} [{}]", step.time, description, step.pid);
        }
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "## Failpoint firings");
    for (site, hits) in run.failpoints.iter() {
        let kind = FaultKind::from_site(site)
            .map(|k| format!(" ({k})"))
            .unwrap_or_default();
        let _ = writeln!(out, "- {site}{kind}: {hits}");
    }
    let _ = writeln!(out);

    let _ = writeln!(
        out,
        "## Recorded operation log\n- {} ops (replay with `replay_campaign` for a bit-exact re-execution)",
        run.oplog.len()
    );
    let _ = writeln!(out);

    let _ = writeln!(out, "## Repro file");
    let _ = writeln!(out, "```");
    out.push_str(&repro::to_text(config));
    let _ = writeln!(out, "```");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use graybox_faults::{run_campaign, FaultPlan};
    use graybox_simnet::SimTime;
    use graybox_tme::Implementation;

    #[test]
    fn report_names_verdict_faults_and_repro() {
        let config = RunConfig::new(3, Implementation::RicartAgrawala)
            .faults(FaultPlan::burst(
                FaultKind::CorruptProcess,
                SimTime::from(60),
                6,
            ))
            .seed(15);
        let run = run_campaign(&config);
        let report = incident_report(&config, &run);
        assert!(report.contains("# Incident report"));
        assert!(report.contains("## Fault timeline (6 injected)"));
        assert!(report.contains("process.corrupt"));
        assert!(report.contains(repro::HEADER));
        // The embedded repro parses back to the same campaign.
        let embedded = report
            .split("```")
            .nth(1)
            .expect("report embeds a repro block")
            .trim_start_matches('\n');
        let parsed = repro::parse(embedded).expect("embedded repro parses");
        assert_eq!(parsed.faults, config.faults);
        assert_eq!(parsed.seed, config.seed);
    }
}
