//! `graybox-workload`: the end-to-end benchmark of the graybox verifier,
//! simulator and fault harness.
//!
//! ```text
//! cargo run --release --manifest-path bench-workload/Cargo.toml -- \
//!     --workload <verify|ring-1e6|protocol-n128|campaign-n16|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--out FILE] [--smoke]
//! ```
//!
//! A run builds the workload's inputs from the seed, runs one warm-up
//! sample, then timed samples until their ops add up to `--seconds`
//! (at least three), checking every sample's results. `verify`, whose
//! op is longer than the window, runs a single sample and no warm-up.
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and the `metrics`, which are the end-to-end
//! metrics with `--trace 0` and the per-layer metrics with `--trace 1`.
//! A human-readable report goes to standard error. `all` runs every
//! workload as a child process, one after another. `--smoke` shrinks
//! every input and takes only the minimum number of samples, so that a
//! debug build covers every code path in seconds. See `README.md` for
//! the metrics.

mod json;
mod trace;
mod workloads;

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use trace::Tracer;
use workloads::{Campaign, Protocol, Ring, Verify, Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: graybox-workload --workload <verify|ring-1e6|protocol-n128|campaign-n16|all> \
[--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--out FILE] [--smoke]";

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["verify", "ring-1e6", "protocol-n128", "campaign-n16"];

/// Set-ups a run times before its first op, so that `setup_s` is a
/// median even when a workload takes a single sample.
const SETUP_REPS: u64 = 11;

/// End-to-end metrics, reported with tracing off.
const END_TO_END: [(&str, &str); 3] = [("op_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// The layers spans attribute self time to: the crates the benchmark
/// calls into, and `bench` for the runner's own checks.
const LAYERS: [&str; 8] = [
    "bench",
    "core",
    "analyze",
    "experiments",
    "simnet",
    "tme",
    "faults",
    "spec",
];

/// Per-layer values, by workload. Counts come from the first sample,
/// timings of an op's parts are medians over the timed samples, and the
/// rest come from the probes. A workload reports 0 for the values of the
/// others.
const LAYER_VALUES: [(&str, &str); 61] = [
    // verify
    ("verdict_n3_s", "s"),
    ("verdict_n3_sym_s", "s"),
    ("verdict_n4_s", "s"),
    ("certify_ms", "ms"),
    ("core.n3_states", "count"),
    ("core.n3_legit_states", "count"),
    ("core.n3_canonical_states", "count"),
    ("core.n4_canonical_states", "count"),
    ("core.n4_recovery_levels", "count"),
    ("core.compile_n3_s", "s"),
    ("core.n3_edges", "count"),
    ("core.scc_n3_s", "s"),
    ("core.n3_sccs", "count"),
    ("core.scc_n3_serial_s", "s"),
    ("core.reach_n3_s", "s"),
    ("core.canonicalize_ns", "ns"),
    ("core.sym_reach_legit_n4_s", "s"),
    ("core.sym_reach_recovery_n4_s", "s"),
    ("analyze.pair_dynamics_ms", "ms"),
    ("analyze.stair_ms", "ms"),
    ("analyze.obligations", "count"),
    ("analyze.param_ms", "ms"),
    // ring-1e6
    ("ring_point_s", "s"),
    ("experiments.ring_events", "count"),
    ("experiments.ring_recovery_ticks", "ticks"),
    ("experiments.ring_regens", "count"),
    ("experiments.ring_overhead", "ratio"),
    ("simnet.ring_build_s", "s"),
    ("simnet.ring_quiet_events_per_s", "1/s"),
    ("simnet.queue_hold_ns_per_op", "ns"),
    // protocol-n128
    ("ra_run_s", "s"),
    ("simnet.ra_events_per_s", "1/s"),
    ("simnet.ra_events", "count"),
    ("simnet.ra_sent", "count"),
    ("tme.ra_entries", "count"),
    ("tme.ra_msgs_per_entry", "ratio"),
    ("wrapper.ra_resend_share", "ratio"),
    ("lamport_run_s", "s"),
    ("simnet.lamport_events_per_s", "1/s"),
    ("simnet.lamport_events", "count"),
    ("simnet.lamport_sent", "count"),
    ("tme.lamport_entries", "count"),
    ("tme.lamport_msgs_per_entry", "ratio"),
    ("wrapper.lamport_resend_share", "ratio"),
    // campaign-n16
    ("campaign_s", "s"),
    ("replay_s", "s"),
    ("shrink_s", "s"),
    ("simnet.oplog_to_text_ms", "ms"),
    ("simnet.oplog_parse_ms", "ms"),
    ("faults.replay_verify_s", "s"),
    ("spec.trace_steps", "count"),
    ("spec.snapshot_slots", "count"),
    ("simnet.oplog_ops", "count"),
    ("simnet.oplog_text_bytes", "bytes"),
    ("faults.shrink_campaigns", "count"),
    ("faults.shrink_original_events", "count"),
    ("faults.shrink_minimal_events", "count"),
    ("faults.run_tme_s", "s"),
    ("simnet.record_tax", "ratio"),
    ("spec.convergence_s", "s"),
    ("spec.fault_free_trace_tax", "ratio"),
];

#[derive(Debug)]
struct Opts {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut workload = None;
    let mut opts = Opts {
        workload: String::new(),
        seed: None,
        seconds: 15.0,
        trace: false,
        spans: None,
        out: None,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--spans" | "--out" => {
                args.next().ok_or_else(|| format!("{flag} needs a value"))?
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        };
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}"));
                }
                workload = Some(value);
            }
            "--seed" => opts.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans" => opts.spans = Some(PathBuf::from(value)),
            _ => opts.out = Some(PathBuf::from(value)),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

/// The result of a run: what the last line of standard output reports.
#[derive(Debug, Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
}

impl Report {
    fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            assert!(value.is_finite(), "metric {name} is {value}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

fn describe(name: &str, unit: &str, values: &[f64]) {
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    eprintln!(
        "  {name:<16} median {:>12.4e} {unit:<4} min {min:.4e}  max {max:.4e}  (n={})",
        median(values),
        values.len()
    );
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// The input seed of sample `op_id`. The warm-up (0) and the first timed
/// sample (1) both run the run's own seed, so their counts must agree
/// and, at the default seed, equal the pins; every later sample draws
/// fresh inputs, so a run's medians and peak RSS cover many inputs.
fn input_seed(seed: u64, op_id: u64) -> u64 {
    seed ^ op_id.saturating_sub(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Counts failed checks across a run's samples and keeps what the
/// traced report needs.
struct Checker {
    /// Counts of the first sample.
    first: Option<Vec<(&'static str, f64)>>,
    pins: &'static [(&'static str, f64)],
    /// Each op-part timing's values over the timed samples.
    timings: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn check(&mut self, op_id: u64, outcome: workloads::Outcome) {
        let mut problems = outcome.failures;
        match &self.first {
            None => self.first = Some(outcome.counts.clone()),
            Some(first) if op_id == 1 && *first != outcome.counts => problems.push(format!(
                "counts differ from the warm-up's on the same inputs: {:?} vs {first:?}",
                outcome.counts
            )),
            Some(_) => {}
        }
        if op_id <= 1 {
            for &(name, want) in self.pins {
                let got = outcome
                    .counts
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| v);
                if got != Some(want) {
                    problems.push(format!("pinned count {name}: expected {want}, got {got:?}"));
                }
            }
        }
        if op_id >= 1 {
            for (name, value) in outcome.timings {
                self.timings.entry(name).or_default().push(value);
            }
        }
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for problem in problems {
                eprintln!("check failed in sample {op_id}: {problem}");
            }
        }
    }
}

fn run<W: Workload>(workload: &W, opts: &Opts, seed: u64) -> Report {
    let tracer = Tracer::new(opts.trace);
    let mut checker = Checker {
        first: None,
        pins: if seed == DEFAULT_SEED {
            workload.pins()
        } else {
            &[]
        },
        timings: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };
    let mut setups = Vec::new();
    let mut setup = |op_id: u64| {
        let start = Instant::now();
        let input = tracer.span("bench.setup", || {
            workload.setup(input_seed(seed, op_id), &tracer)
        });
        setups.push(start.elapsed().as_secs_f64());
        input
    };

    // Sample 0, if the workload takes one, is the warm-up: lazy set-up
    // finishes before timing starts. The first SETUP_REPS inputs are
    // built before any op runs, and the ops take them in order.
    let first = u64::from(!W::WARM_UP);
    let mut inputs: VecDeque<W::Input> = (first..first + SETUP_REPS).map(&mut setup).collect();
    let window = if opts.smoke { 0.0 } else { opts.seconds };
    let mut ops = Vec::new();
    for op_id in first.. {
        if ops.len() >= W::MIN_SAMPLES && ops.iter().sum::<f64>() >= window {
            break;
        }
        let input = inputs.pop_front().unwrap_or_else(|| setup(op_id));
        tracer.set_op(Some(op_id));
        let start = Instant::now();
        let outcome = tracer.span("bench.op", || workload.op(input, &tracer));
        let secs = start.elapsed().as_secs_f64();
        tracer.set_op(None);
        checker.check(op_id, outcome);
        if op_id >= 1 {
            ops.push(secs);
        }
    }
    drop(inputs);
    let op_ms: Vec<f64> = ops.iter().map(|s| s * 1e3).collect();

    let mut metrics = Vec::new();
    if opts.trace {
        describe("traced_op_ms", "ms", &op_ms);
        metrics.push(("traced_op_ms".to_string(), median(&op_ms), "ms".to_string()));
        let (self_ns, root_ns) = tracer.self_times(|op| op >= 1);
        eprintln!("  self time per layer over the timed samples:");
        for layer in LAYERS {
            let ns = self_ns.get(layer).copied().unwrap_or(0);
            #[allow(clippy::cast_precision_loss)]
            let pct = 100.0 * ns as f64 / root_ns.max(1) as f64;
            if ns > 0 {
                eprintln!("    {layer:<12} {pct:>7.3} %  {:>10.1} ms", ns as f64 / 1e6);
            }
            metrics.push((format!("{layer}.self_pct"), pct, "%".to_string()));
        }
        let probes = workload.probes(seed, &tracer);
        let values: Vec<(&str, f64)> = checker
            .first
            .iter()
            .flatten()
            .copied()
            .chain(checker.timings.iter().map(|(&name, v)| (name, median(v))))
            .chain(probes)
            .collect();
        for (name, _) in &values {
            assert!(
                LAYER_VALUES.iter().any(|(n, _)| n == name),
                "per-layer value {name} is not declared in LAYER_VALUES"
            );
        }
        for (name, unit) in LAYER_VALUES {
            let measured = values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
            if let Some(value) = measured {
                eprintln!("  {name:<32} {value} {unit}");
            }
            metrics.push((name.to_string(), measured.unwrap_or(0.0), unit.to_string()));
        }
        let path = opts.spans.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                "target/graybox-workload/spans-{}.json",
                opts.workload
            ))
        });
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.to_json()));
        match written {
            Ok(()) => eprintln!("  spans written to {}", path.display()),
            Err(e) => eprintln!("  could not write spans to {}: {e}", path.display()),
        }
    } else {
        describe("op_ms", "ms", &op_ms);
        describe("setup_s", "s", &setups);
        let rss = peak_rss_mib();
        eprintln!("  peak_rss_mb      {rss:.1} MiB");
        for ((name, unit), value) in END_TO_END
            .iter()
            .zip([median(&op_ms), median(&setups), rss])
        {
            metrics.push((name.to_string(), value, unit.to_string()));
        }
    }
    Report {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
    }
}

fn run_one(opts: &Opts) -> Report {
    let seed = opts.seed.unwrap_or(DEFAULT_SEED);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = nproc.min(2);
    eprintln!(
        "graybox-workload {}{}: seed {seed}, trace {}, nproc {nproc}, verify workers {workers}",
        opts.workload,
        if opts.smoke { " (smoke)" } else { "" },
        u8::from(opts.trace),
    );
    let smoke = opts.smoke;
    match opts.workload.as_str() {
        "verify" => run(
            &if smoke {
                Verify {
                    n: 2,
                    reach_n: 3,
                    certify_reps: 1,
                    canonicalize_reps: 1_000,
                    workers,
                }
            } else {
                Verify {
                    n: 3,
                    reach_n: 4,
                    certify_reps: 30,
                    canonicalize_reps: 1_000_000,
                    workers,
                }
            },
            opts,
            seed,
        ),
        "ring-1e6" => run(
            &Ring {
                n: if smoke { 1_000 } else { 1_000_000 },
            },
            opts,
            seed,
        ),
        "protocol-n128" => run(
            &Protocol {
                n: if smoke { 8 } else { 128 },
            },
            opts,
            seed,
        ),
        _ => run(
            &if smoke {
                Campaign {
                    n: 4,
                    shrink_n: 5,
                    shrink_drops: 12,
                    shrink_corruptions: 6,
                }
            } else {
                Campaign {
                    n: 16,
                    shrink_n: 8,
                    shrink_drops: 48,
                    shrink_corruptions: 16,
                }
            },
            opts,
            seed,
        ),
    }
}

/// Runs every workload in a child process of its own, so that each
/// reports its own peak RSS; with `--trace 1`, each runs untraced and
/// then traced, and the difference is printed as the tracing overhead.
fn run_all(opts: &Opts) -> Report {
    let exe = std::env::current_exe().expect("path of the running executable");
    let mut total = Report::default();
    let mut ok = true;
    for name in WORKLOADS {
        let mut op_ms = [None, None];
        for trace in if opts.trace {
            &[false, true][..]
        } else {
            &[false][..]
        } {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seconds", &opts.seconds.to_string()])
                .args(["--trace", if *trace { "1" } else { "0" }]);
            if let Some(seed) = opts.seed {
                cmd.args(["--seed", &seed.to_string()]);
            }
            if opts.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd
                .stderr(Stdio::inherit())
                .output()
                .expect("the benchmark can run itself");
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let parsed = stdout.lines().last().map(json::parse);
            let Some(Ok(result)) = parsed else {
                eprintln!("{name}: no result ({})", output.status);
                ok = false;
                continue;
            };
            let int = |key| result.get(key).and_then(json::Value::as_f64).unwrap_or(0.0);
            ok &=
                output.status.success() && result.get("correct") == Some(&json::Value::Bool(true));
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            {
                total.attempted += int("attempted") as u64;
                total.failed += int("failed") as u64;
            }
            if let Some(json::Value::Obj(metrics)) = result.get("metrics") {
                for (metric, v) in metrics {
                    let (Some(value), Some(json::Value::Str(unit))) =
                        (v.get("value").and_then(json::Value::as_f64), v.get("unit"))
                    else {
                        continue;
                    };
                    match metric.as_str() {
                        "op_ms" => op_ms[0] = Some(value),
                        "traced_op_ms" => op_ms[1] = Some(value),
                        _ => {}
                    }
                    total
                        .metrics
                        .push((format!("{name}/{metric}"), value, unit.clone()));
                }
            }
        }
        if let [Some(untraced), Some(traced)] = op_ms {
            eprintln!(
                "{name}: tracing overhead {:.3} ms per op ({traced:.3} traced - {untraced:.3} untraced)",
                traced - untraced
            );
        }
    }
    // A child that printed no result or failed counts as a failed op.
    if !ok && total.failed == 0 {
        total.failed = 1;
    }
    total
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if opts.workload == "all" {
        run_all(&opts)
    } else {
        run_one(&opts)
    };
    let line = report.to_json();
    println!("{line}");
    if let Some(path) = &opts.out {
        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
            eprintln!("could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
