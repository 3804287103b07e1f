//! `graybox-lint` — static certification of GCL models and validation of
//! raw CSR transition systems.
//!
//! ```text
//! graybox-lint tme [--n N] [--no-wrapper] [--json PATH|-]
//! graybox-lint csr FILE [--json PATH|-]
//! graybox-lint certify [--mutant dropped-guard|bad-rank] [--json PATH|-]
//! ```
//!
//! `tme` runs the five static passes (footprint, locality,
//! wrapper-footprint, interference, abstract interpretation) on the
//! n-process TME abstraction, entirely without enumerating states.
//! `csr` parses a textual CSR transition system and validates it through
//! the checked `FiniteSystem::try_from_csr` constructor. `certify`
//! checks the level-2 TME convergence-stair certificate — weakest
//! preconditions, closed levels, lexicographic ranks, and the
//! parametric side conditions that make it valid for all n ≥ 2 — again
//! without enumerating a single state; `--mutant` certifies a seeded
//! broken artifact instead (the validation suite expects exit 1 naming
//! the failing obligation).
//!
//! Exit status: 0 when no error-severity findings, 1 when there are
//! errors, 2 on usage or I/O problems.
//!
//! The CSR file format is line-based; `#` starts a comment:
//!
//! ```text
//! states 4
//! init 0
//! 0: 1 2
//! 1: 0
//! 2: 3
//! 3: 3
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

use graybox_analyze::report::{render_and_exit, Finding, Report, Severity};
use graybox_analyze::tme::lint_tme;
use graybox_analyze::tme::stair_cert::{certify_tme, CertifyTarget};
use graybox_core::{FiniteSystem, StateSet, SystemError};

fn usage() -> ExitCode {
    eprintln!(
        "usage: graybox-lint tme [--n N] [--no-wrapper] [--json PATH|-]\n\
         \x20      graybox-lint csr FILE [--json PATH|-]\n\
         \x20      graybox-lint certify [--mutant dropped-guard|bad-rank] [--json PATH|-]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else {
        return usage();
    };
    match mode.as_str() {
        "tme" => run_tme(&args[1..]),
        "csr" => run_csr(&args[1..]),
        "certify" => run_certify(&args[1..]),
        _ => usage(),
    }
}

/// Parses a trailing `--json PATH|-` option; returns (rest, json_dest).
fn take_json(args: &[String]) -> Result<(Vec<String>, Option<String>), ()> {
    let mut rest = Vec::new();
    let mut json = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--json" {
            match it.next() {
                Some(path) => json = Some(path.clone()),
                None => return Err(()),
            }
        } else {
            rest.push(arg.clone());
        }
    }
    Ok((rest, json))
}

fn run_certify(args: &[String]) -> ExitCode {
    let Ok((rest, json)) = take_json(args) else {
        return usage();
    };
    let mut target = CertifyTarget::Flagship;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--mutant" => match it.next().map(String::as_str) {
                Some("dropped-guard") => target = CertifyTarget::MutantDroppedGuard,
                Some("bad-rank") => target = CertifyTarget::MutantBadRank,
                _ => {
                    eprintln!("graybox-lint: --mutant takes dropped-guard or bad-rank");
                    return ExitCode::from(2);
                }
            },
            _ => return usage(),
        }
    }
    let report = certify_tme(target);
    render_and_exit(&report, json.as_deref())
}

fn run_tme(args: &[String]) -> ExitCode {
    let Ok((rest, json)) = take_json(args) else {
        return usage();
    };
    let mut n = 3usize;
    let mut with_wrapper = true;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--n" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if (2..=4).contains(&v) => n = v,
                _ => {
                    eprintln!("graybox-lint: --n takes an integer in 2..=4");
                    return ExitCode::from(2);
                }
            },
            "--no-wrapper" => with_wrapper = false,
            _ => return usage(),
        }
    }
    let report = lint_tme(n, with_wrapper);
    render_and_exit(&report, json.as_deref())
}

fn run_csr(args: &[String]) -> ExitCode {
    let Ok((rest, json)) = take_json(args) else {
        return usage();
    };
    let [path] = rest.as_slice() else {
        return usage();
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("graybox-lint: cannot read {path}: {err}");
            return ExitCode::from(2);
        }
    };
    let report = lint_csr_text(path, &text);
    render_and_exit(&report, json.as_deref())
}

/// Parses the textual CSR format and validates it via
/// `FiniteSystem::try_from_csr`. Parsing is deliberately lax about
/// structure (rows may be empty, unsorted or duplicated) so that the
/// checked constructor — not the parser — is what rejects malformed
/// systems. The parser itself rejects only what it must to stay bounded
/// by its input: rows and initial states outside `0..states`, and a
/// `states` header larger than the rows given for it.
fn lint_csr_text(path: &str, text: &str) -> Report {
    let mut report = Report {
        target: format!("csr:{path}"),
        ..Report::default()
    };
    let error = |message: String| Finding {
        pass: "csr-input",
        severity: Severity::Error,
        command: None,
        vars: Vec::new(),
        message,
    };

    let mut num_states: Option<usize> = None;
    let mut init: Vec<usize> = Vec::new();
    let mut rows: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let parse_all = |items: &[&str]| -> Option<Vec<usize>> {
            items.iter().map(|t| t.parse().ok()).collect()
        };
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let parsed = match tokens.as_slice() {
            ["states", n] => n.parse().ok().map(|n| num_states = Some(n)),
            ["init", states @ ..] => parse_all(states).map(|states| init.extend(states)),
            [row, targets @ ..] if row.ends_with(':') => row[..row.len() - 1]
                .parse()
                .ok()
                .zip(parse_all(targets))
                .map(|(state, targets)| {
                    rows.entry(state).or_default().extend(targets);
                }),
            _ => None,
        };
        if parsed.is_none() {
            report
                .findings
                .push(error(format!("line {}: unparseable: {line:?}", lineno + 1)));
            return report;
        }
    }

    let Some(num_states) = num_states else {
        report
            .findings
            .push(error("missing \"states N\" header".to_string()));
        return report;
    };
    for (&state, _) in rows.range(num_states..) {
        report
            .findings
            .push(error(format!("row {state} is outside 0..{num_states}")));
    }
    if let Some(&state) = init.iter().find(|&&state| state >= num_states) {
        let err = SystemError::StateOutOfRange { state, num_states };
        report.findings.push(error(format!("init: {err}")));
    }
    // A total system has a row for every state, so the first state
    // without one lies within `rows.len()` steps: finding it bounds
    // `num_states` by the input before anything is allocated for it.
    if let Some(state) = (0..num_states).find(|state| !rows.contains_key(state)) {
        report
            .findings
            .push(error(SystemError::NotTotal { state }.to_string()));
    }
    if !report.findings.is_empty() {
        return report;
    }

    let mut fwd_off = Vec::with_capacity(num_states + 1);
    let mut fwd_to = Vec::new();
    fwd_off.push(0);
    for targets in rows.values() {
        fwd_to.extend_from_slice(targets);
        fwd_off.push(fwd_to.len());
    }
    let init: StateSet = init.into_iter().collect();
    match FiniteSystem::try_from_csr(num_states, init, fwd_off, fwd_to) {
        Ok(system) => {
            report.certified.push(format!(
                "csr-input: well-formed total transition system \
                 ({} states, {} edges)",
                system.num_states(),
                system.edges().into_iter().count()
            ));
        }
        Err(err) => {
            report.findings.push(error(format!("{err}")));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::{lint_csr_text, Severity};

    #[test]
    fn well_formed_csr_is_certified() {
        let report = lint_csr_text(
            "good",
            "# a 4-state loop\nstates 4\ninit 0\n0: 1\n1: 2\n2: 3\n3: 3\n",
        );
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.certified.len(), 1);
    }

    #[test]
    fn non_total_csr_is_rejected_by_try_from_csr() {
        let report = lint_csr_text("bad", "states 3\ninit 0\n0: 1\n1: 0\n");
        assert!(!report.is_clean());
        assert!(report.findings[0].message.contains("no outgoing"));
    }

    /// Lints `text` and returns the one `csr-input` error it must raise.
    fn single_csr_error(text: &str) -> String {
        let report = lint_csr_text("hostile", text);
        assert_eq!(report.findings.len(), 1, "{report}");
        let finding = &report.findings[0];
        assert_eq!(finding.pass, "csr-input");
        assert_eq!(finding.severity, Severity::Error);
        finding.message.clone()
    }

    #[test]
    fn huge_init_id_is_out_of_range() {
        let message = single_csr_error("states 2\ninit 18446744073709551615\n0: 1\n1: 0\n");
        assert!(message.contains("out of range"), "{message}");
    }

    #[test]
    fn max_state_count_is_not_total_at_its_first_missing_row() {
        let message = single_csr_error("states 18446744073709551615\ninit 0\n0: 1\n1: 0\n");
        assert!(message.contains("state 2 has no outgoing"), "{message}");
    }

    #[test]
    fn unallocatable_state_count_is_not_total() {
        let message = single_csr_error("states 100000000000\ninit 0\n0: 0\n");
        assert!(message.contains("state 1 has no outgoing"), "{message}");
    }

    #[test]
    fn garbage_line_is_reported() {
        let report = lint_csr_text("bad", "states 2\nwat\n");
        assert!(!report.is_clean());
        assert!(report.findings[0].message.contains("unparseable"));
    }
}
