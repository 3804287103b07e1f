//! CLI: regenerate the tables and figures of EXPERIMENTS.md, and work
//! with shrunk-repro files.
//!
//! ```text
//! graybox-experiments list             # show experiment ids and titles
//! graybox-experiments all              # run everything, print sections
//! graybox-experiments T3 F3            # run a subset
//! graybox-experiments --smoke all      # tiny parameters (CI)
//! graybox-experiments repro f.repro    # re-run a repro file, print the
//!                                      # incident report
//! graybox-experiments repro f.repro --shrink
//!                                      # shrink it first, report the
//!                                      # minimal schedule
//! graybox-experiments theta-sweep      # θ curves on 10³–10⁶-process
//!                                      # rings (--smoke: 10³ only)
//! ```

use std::process::ExitCode;

use graybox_experiments::experiments::{all_ids, run_experiment_at, Scale};
use graybox_experiments::incident_report;
use graybox_faults::{failed, repro, run_campaign, shrink};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if let Some(pos) = args.iter().position(|a| a == "--smoke") {
        args.remove(pos);
        Scale::Smoke
    } else {
        Scale::Full
    };
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!("usage: graybox-experiments [--smoke] <list|all|theta-sweep|ID...>");
        eprintln!("       graybox-experiments repro <file> [--shrink]");
        eprintln!("known ids: {}", all_ids().join(", "));
        return ExitCode::from(2);
    }
    if args[0] == "repro" {
        return run_repro(&args[1..]);
    }
    if args[0] == "theta-sweep" {
        // Ring sizes; --smoke keeps CI to the smallest. The 10⁶ point is
        // opt-in via `theta-sweep full6` since it takes minutes per θ.
        let sizes: &[u32] = match (scale, args.get(1).map(String::as_str)) {
            (Scale::Smoke, _) => &[1_000],
            (Scale::Full, Some("full6")) => &[1_000, 10_000, 100_000, 1_000_000],
            (Scale::Full, _) => &[1_000, 10_000, 100_000],
        };
        println!("{}", graybox_experiments::sweep::render_sweep(sizes, 42));
        return ExitCode::SUCCESS;
    }
    if args[0] == "list" {
        for id in all_ids() {
            // Titles come from the runs themselves; list just shows ids.
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    let ids: Vec<String> = if args[0] == "all" {
        all_ids().iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    for id in &ids {
        match run_experiment_at(id, scale) {
            Some(result) => {
                println!("{}", result.section());
            }
            None => {
                eprintln!(
                    "unknown experiment id: {id} (known: {})",
                    all_ids().join(", ")
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `repro <file> [--shrink]`: load a repro file, re-run the campaign
/// (recording on), and print the incident report. With `--shrink`, first
/// delta-debug the schedule to a minimal still-failing one and report
/// that instead (printing the minimal repro for saving).
fn run_repro(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let do_shrink = if let Some(pos) = args.iter().position(|a| a == "--shrink") {
        args.remove(pos);
        true
    } else {
        false
    };
    let [path] = &args[..] else {
        eprintln!("usage: graybox-experiments repro <file> [--shrink]");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("cannot read {path}: {error}");
            return ExitCode::FAILURE;
        }
    };
    let config = match repro::parse(&text) {
        Ok(config) => config,
        Err(error) => {
            eprintln!("{error}");
            return ExitCode::FAILURE;
        }
    };
    if do_shrink {
        match shrink(&config, failed) {
            Some(shrunk) => {
                let minimal = config.clone().faults(shrunk.minimal.clone());
                println!(
                    "shrunk {} -> {} events in {} campaigns\n",
                    shrunk.original_len,
                    shrunk.minimal.len(),
                    shrunk.campaigns_run
                );
                println!("{}", incident_report(&minimal, &shrunk.run));
            }
            None => {
                println!("campaign does not fail; nothing to shrink\n");
                let run = run_campaign(&config);
                println!("{}", incident_report(&config, &run));
            }
        }
    } else {
        let run = run_campaign(&config);
        println!("{}", incident_report(&config, &run));
    }
    ExitCode::SUCCESS
}
