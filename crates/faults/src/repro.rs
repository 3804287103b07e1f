//! **Repro files**: a serializable, human-auditable description of one
//! campaign — everything needed to re-create its [`RunConfig`] exactly.
//!
//! The shrinker emits these for minimal counterexamples; the
//! `experiments` binary loads them (`repro <file>`), re-runs the
//! campaign, and prints an incident report. The format is line-oriented
//! plain text (this workspace is dependency-free, so no serde):
//!
//! ```text
//! graybox-repro v1
//! n 3
//! impl RA_ME
//! wrapper off
//! seed 11
//! grace 300
//! delays 1 8
//! fifo true
//! horizon none
//! workload 3 40 5 1
//! fault 42 channel.drop
//! fault 60 process.corrupt
//! ```
//!
//! `wrapper` is one of `off`, `unrefined <θ>`, `refined <θ>`,
//! `backoff <θ> <maxθ>`; `workload` is
//! `<requests-per-process> <mean-think> <eat-for> <start>`; `fault`
//! lines are `<time> <site>` in schedule order, where `<site>` is the
//! failpoint site of a [`FaultKind`] ([`FaultKind::site`]). A site that
//! names no kind is a parse error on its line.

use std::fmt;

use graybox_simnet::SimTime;
use graybox_tme::{Implementation, WorkloadConfig};
use graybox_wrapper::{WrapperConfig, WrapperStrategy};

use crate::runner::{RunConfig, DEFAULT_HORIZON_SLACK};
use crate::{FaultEvent, FaultKind, FaultPlan};

/// Magic first line of every repro file.
pub const HEADER: &str = "graybox-repro v1";

/// A parse failure, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReproParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ReproParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "repro parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ReproParseError {}

/// Serializes `config` as a repro file (see the module docs).
pub fn to_text(config: &RunConfig) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    out.push_str(&format!("n {}\n", config.n));
    out.push_str(&format!("impl {}\n", config.implementation.label()));
    let wrapper = match config.wrapper.strategy {
        WrapperStrategy::Off => "off".to_string(),
        WrapperStrategy::Unrefined => format!("unrefined {}", config.wrapper.theta),
        WrapperStrategy::Refined => format!("refined {}", config.wrapper.theta),
        WrapperStrategy::Backoff { max_theta } => {
            format!("backoff {} {max_theta}", config.wrapper.theta)
        }
    };
    out.push_str(&format!("wrapper {wrapper}\n"));
    out.push_str(&format!("seed {}\n", config.seed));
    out.push_str(&format!("grace {}\n", config.grace));
    out.push_str(&format!("delays {} {}\n", config.delays.0, config.delays.1));
    out.push_str(&format!("fifo {}\n", config.fifo));
    match config.horizon {
        Some(h) => out.push_str(&format!("horizon {}\n", h.ticks())),
        None => out.push_str("horizon none\n"),
    }
    out.push_str(&format!(
        "workload {} {} {} {}\n",
        config.workload.requests_per_process,
        config.workload.mean_think,
        config.workload.eat_for,
        config.workload.start,
    ));
    for FaultEvent { at, kind } in config.faults.events() {
        out.push_str(&format!("fault {} {}\n", at.ticks(), kind.site()));
    }
    out
}

/// Parses a repro file back into a [`RunConfig`].
pub fn parse(text: &str) -> Result<RunConfig, ReproParseError> {
    let err = |line: usize, message: String| ReproParseError { line, message };
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, HEADER)) => {}
        other => {
            return Err(err(
                1,
                format!(
                    "expected header `{HEADER}`, found {:?}",
                    other.map_or("", |(_, l)| l)
                ),
            ))
        }
    }

    // Field defaults double as "field omitted" values; `n` and `impl`
    // are required.
    let mut n: Option<usize> = None;
    let mut implementation: Option<Implementation> = None;
    let mut config = RunConfig::new(1, Implementation::RicartAgrawala);
    let mut events: Vec<FaultEvent> = Vec::new();
    // The latest request or fault time and the line that set it; the
    // default workload ends far below `u64::MAX`.
    let mut latest = (0u64, 0usize);

    for (index, raw) in lines {
        let line_no = index + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let parse_u64 = |field: &str| {
            field
                .parse::<u64>()
                .map_err(|_| err(line_no, format!("`{field}` is not a number")))
        };
        match key {
            "n" => {
                let [v] = fields[..] else {
                    return Err(err(line_no, "n takes one field".into()));
                };
                // Process ids are `u32`, and a run needs a process.
                n = Some(
                    v.parse::<u32>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .map(|n| n as usize)
                        .ok_or_else(|| {
                            err(
                                line_no,
                                format!("`{v}` is not a process count in 1..={}", u32::MAX),
                            )
                        })?,
                );
            }
            "impl" => {
                let [v] = fields[..] else {
                    return Err(err(line_no, "impl takes one field".into()));
                };
                implementation = Some(
                    Implementation::from_label(v)
                        .ok_or_else(|| err(line_no, format!("unknown implementation `{v}`")))?,
                );
            }
            "wrapper" => {
                config.wrapper = match fields[..] {
                    ["off"] => WrapperConfig::off(),
                    ["unrefined", theta] => WrapperConfig::unrefined(parse_u64(theta)?),
                    ["refined", theta] => WrapperConfig::timeout(parse_u64(theta)?),
                    ["backoff", theta, max] => {
                        WrapperConfig::backoff(parse_u64(theta)?, parse_u64(max)?)
                    }
                    _ => return Err(err(line_no, format!("bad wrapper spec `{rest}`"))),
                };
            }
            "seed" => {
                let [v] = fields[..] else {
                    return Err(err(line_no, "seed takes one field".into()));
                };
                config.seed = parse_u64(v)?;
            }
            "grace" => {
                let [v] = fields[..] else {
                    return Err(err(line_no, "grace takes one field".into()));
                };
                config.grace = parse_u64(v)?;
            }
            "delays" => {
                let [lo, hi] = fields[..] else {
                    return Err(err(line_no, "delays takes two fields".into()));
                };
                config.delays = (parse_u64(lo)?, parse_u64(hi)?);
            }
            "fifo" => {
                config.fifo = match fields[..] {
                    ["true"] => true,
                    ["false"] => false,
                    _ => return Err(err(line_no, format!("bad fifo flag `{rest}`"))),
                };
            }
            "horizon" => {
                config.horizon = match fields[..] {
                    ["none"] => None,
                    [v] => Some(SimTime::from(parse_u64(v)?)),
                    _ => return Err(err(line_no, "horizon takes one field".into())),
                };
            }
            "workload" => {
                let [requests, think, eat, start] = fields[..] else {
                    return Err(err(line_no, "workload takes four fields".into()));
                };
                config.workload = WorkloadConfig {
                    n: 0, // overridden by `n` at run time
                    requests_per_process: requests
                        .parse::<usize>()
                        .map_err(|_| err(line_no, format!("`{requests}` is not a count")))?,
                    mean_think: parse_u64(think)?,
                    eat_for: parse_u64(eat)?,
                    start: parse_u64(start)?,
                };
                let last = config.workload.latest_request().ok_or_else(|| {
                    err(line_no, "the request schedule passes u64::MAX ticks".into())
                })?;
                latest = latest.max((last, line_no));
            }
            "fault" => {
                let [at, site] = fields[..] else {
                    return Err(err(line_no, "fault takes `<time> <site>`".into()));
                };
                let kind = FaultKind::from_site(site)
                    .ok_or_else(|| err(line_no, format!("unknown failpoint site `{site}`")))?;
                let at = parse_u64(at)?;
                latest = latest.max((at, line_no));
                events.push(FaultEvent::new(SimTime::from(at), kind));
            }
            other => return Err(err(line_no, format!("unknown key `{other}`"))),
        }
    }

    if config.horizon.is_none() && latest.0.checked_add(DEFAULT_HORIZON_SLACK).is_none() {
        return Err(err(
            latest.1,
            format!(
                "tick {} leaves no room for the default horizon \
                 (+{DEFAULT_HORIZON_SLACK} ticks); set an explicit horizon",
                latest.0
            ),
        ));
    }
    config.n = n.ok_or_else(|| err(1, "missing required `n` line".into()))?;
    config.implementation =
        implementation.ok_or_else(|| err(1, "missing required `impl` line".into()))?;
    config.faults = FaultPlan::from_events(events);
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_config() -> RunConfig {
        RunConfig::new(4, Implementation::Lamport)
            .wrapper(WrapperConfig::backoff(4, 32))
            .seed(77)
            .faults(FaultPlan::random_mix(5, (20, 90), 7, &FaultKind::ALL))
            .horizon(SimTime::from(4_000))
    }

    fn assert_configs_equal(a: &RunConfig, b: &RunConfig) {
        assert_eq!(a.n, b.n);
        assert_eq!(a.implementation, b.implementation);
        assert_eq!(a.wrapper, b.wrapper);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.grace, b.grace);
        assert_eq!(a.delays, b.delays);
        assert_eq!(a.fifo, b.fifo);
        assert_eq!(a.horizon, b.horizon);
        assert_eq!(
            a.workload.requests_per_process,
            b.workload.requests_per_process
        );
        assert_eq!(a.workload.mean_think, b.workload.mean_think);
        assert_eq!(a.workload.eat_for, b.workload.eat_for);
        assert_eq!(a.workload.start, b.workload.start);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    fn round_trips_through_text() {
        let config = sample_config();
        let text = to_text(&config);
        assert!(text.starts_with(HEADER));
        let parsed = parse(&text).expect("round trip");
        assert_configs_equal(&config, &parsed);
        // Byte-stable: serializing the parse reproduces the text.
        assert_eq!(to_text(&parsed), text);
    }

    /// The text of a plan naming every fault kind, byte for byte: recorded
    /// repro files must load and re-serialize unchanged.
    #[test]
    fn text_of_every_fault_kind_is_pinned() {
        let events = FaultKind::ALL
            .into_iter()
            .rev()
            .zip(0u64..)
            .map(|(kind, i)| FaultEvent::new(SimTime::from(30 + 7 * i), kind))
            .collect();
        let config = RunConfig::new(3, Implementation::RicartAgrawala)
            .wrapper(WrapperConfig::timeout(8))
            .seed(11)
            .faults(FaultPlan::from_events(events));
        let text = to_text(&config);
        assert_eq!(
            text,
            "graybox-repro v1\n\
             n 3\n\
             impl RA_ME\n\
             wrapper refined 8\n\
             seed 11\n\
             grace 200\n\
             delays 1 8\n\
             fifo true\n\
             horizon none\n\
             workload 3 40 5 1\n\
             fault 30 sim.delay\n\
             fault 37 channel.reorder\n\
             fault 44 process.reset\n\
             fault 51 process.corrupt\n\
             fault 58 channel.flush\n\
             fault 65 msg.inject\n\
             fault 72 msg.corrupt\n\
             fault 79 channel.duplicate\n\
             fault 86 channel.drop\n"
        );
        assert_eq!(to_text(&parse(&text).expect("round trip")), text);
    }

    #[test]
    fn every_wrapper_strategy_round_trips() {
        for wrapper in [
            WrapperConfig::off(),
            WrapperConfig::eager(),
            WrapperConfig::timeout(9),
            WrapperConfig::unrefined(3),
            WrapperConfig::backoff(2, 64),
        ] {
            let config = sample_config().wrapper(wrapper);
            let parsed = parse(&to_text(&config)).expect("round trip");
            assert_eq!(parsed.wrapper, wrapper);
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("not a repro").is_err());
        let mut text = to_text(&sample_config());
        text.push_str("fault 10 channel.teleport\n");
        let error = parse(&text).expect_err("unknown site must be rejected");
        assert!(error.message.contains("channel.teleport"), "{error}");
        assert_eq!(error.line, text.lines().count(), "{error}");
        let bad_seed = to_text(&sample_config()).replace("seed 77", "seed many");
        assert!(parse(&bad_seed).is_err());

        // Hostile numbers are typed errors on the offending line, not
        // panics at run time.
        let max = u64::MAX;
        let valid = format!("{HEADER}\nn 4\nimpl RA_ME\nhorizon none\nworkload 3 20 5 1\n");
        assert!(parse(&valid).is_ok());
        for (hostile, line) in [
            (valid.replace("n 4", &format!("n {max}")), 2),
            (
                valid.replace("n 4", &format!("n {}", u64::from(u32::MAX) + 1)),
                2,
            ),
            (valid.replace("n 4", "n 0"), 2),
            (
                valid.replace("workload 3 20", &format!("workload 3 {max}")),
                5,
            ),
            (valid.replace("5 1\n", &format!("5 {max}\n")), 5),
            (format!("{valid}fault {max} channel.drop\n"), 6),
        ] {
            let error = parse(&hostile).expect_err(&hostile);
            assert_eq!(error.line, line, "{error}");
        }
        // The default horizon's slack is the only arithmetic on a fault
        // time, so an explicit horizon admits any fault time.
        let explicit = valid.replace("horizon none", "horizon 500");
        assert!(parse(&format!("{explicit}fault {max} channel.drop\n")).is_ok());
        assert!(parse(&valid.replace("n 4", &format!("n {}", u32::MAX))).is_ok());
    }

    /// A repro file of a corrupted Lamport campaign with the given
    /// `wrapper` line.
    fn boundary_repro(wrapper: &str) -> String {
        format!(
            "{HEADER}\nn 3\nimpl Lamport_ME\nwrapper {wrapper}\nseed 11\nhorizon 1500\n\
             workload 3 40 5 1\nfault 42 channel.drop\nfault 60 process.corrupt\n\
             fault 61 process.corrupt\n"
        )
    }

    #[test]
    fn theta_at_u64_max_never_refires() {
        let at = |wrapper: &str| {
            let config = parse(&boundary_repro(wrapper)).expect("repro parses");
            crate::run_campaign(&config).outcome
        };
        let max = u64::MAX;
        let baseline = at("refined 8");
        assert!(baseline.wrapper_resends > 0, "fixture must exercise W'");
        let never = at(&format!("refined {max}"));
        assert_eq!(never.horizon, SimTime::from(1_500));
        assert_eq!(never.wrapper_resends, 0);
        let backoff = at(&format!("backoff 1 {max}"));
        assert_eq!(backoff.horizon, SimTime::from(1_500));
    }
}
