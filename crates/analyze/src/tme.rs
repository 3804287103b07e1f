//! Wiring the five passes to concrete models — in particular the
//! n-process TME abstraction shipped by `graybox-core`.
//!
//! [`run_all_passes`] is the generic driver: given a program and a
//! [`ModelShape`] (partition + spec-visibility + command ownership), it
//! produces a [`Report`]. [`lint_tme`] instantiates it for
//! `tme_abstract::program_nproc_ir(n, with_wrapper)` using the
//! structural metadata of `tme_abstract::nproc_shape` — certifying the
//! model *without enumerating a single state*.

pub mod stair_cert;

use std::collections::BTreeSet;

use graybox_core::gcl::Program;
use graybox_core::tme_abstract::{self, NprocShape, NprocVarRole};

use crate::absint::diagnose_program;
use crate::footprint::program_footprints;
use crate::interference::check_interference;
use crate::locality::{check_locality, Partition, VarClass};
use crate::report::{Finding, Report, Severity};
use crate::wrapper::check_wrapper_footprint;

/// Everything the passes need to know about a model beyond its program:
/// who owns which variable, what the specification exposes, and which
/// commands are wrapper commands.
#[derive(Debug, Clone)]
pub struct ModelShape {
    /// Variable-to-process partition, in declaration order.
    pub partition: Partition,
    /// Spec-visible variables (the wrapper's permitted footprint).
    pub spec_vars: BTreeSet<usize>,
    /// Owning process of each command.
    pub command_process: Vec<usize>,
    /// Wrapper flag of each command.
    pub command_is_wrapper: Vec<bool>,
}

impl ModelShape {
    /// Derives the shape of the n-process TME model from its structural
    /// metadata: modes and beliefs are process-owned, channels belong to
    /// both endpoints, and `ord` — the ground-truth request order — is an
    /// auxiliary ghost that is *not* spec-visible (no implementation
    /// could expose it, so no graybox wrapper may consult it).
    pub fn for_nproc(shape: &NprocShape) -> ModelShape {
        let classes = shape
            .var_roles
            .iter()
            .map(|role| match *role {
                NprocVarRole::Mode(p) => VarClass::Owned(p),
                NprocVarRole::Channel { from, to } => VarClass::Channel { from, to },
                NprocVarRole::Belief { owner, .. } => VarClass::Owned(owner),
                NprocVarRole::Order => VarClass::Auxiliary,
            })
            .collect();
        let spec_vars = shape
            .var_roles
            .iter()
            .enumerate()
            .filter(|(_, role)| !matches!(role, NprocVarRole::Order))
            .map(|(i, _)| i)
            .collect();
        ModelShape {
            partition: Partition { classes },
            spec_vars,
            command_process: shape.command_process.clone(),
            command_is_wrapper: shape.command_is_wrapper.clone(),
        }
    }
}

/// Runs all five passes on `program` and aggregates a [`Report`].
///
/// Severity policy: locality violations, wrapper-footprint violations,
/// dead commands, definite out-of-domain writes, definite table
/// overruns, and zero moduli are **errors**; interference conflicts,
/// stutter-only commands, and possible (imprecision-limited)
/// out-of-domain writes or table overruns are **warnings**.
pub fn run_all_passes(program: &Program, shape: &ModelShape, target: &str) -> Report {
    let footprints = program_footprints(program);
    let diagnoses = diagnose_program(program);
    let num_commands = program.num_commands();

    let mut report = Report {
        target: target.to_string(),
        ..Report::default()
    };

    // Pass 1 — footprints always succeed (every command is IR); certify
    // coverage.
    report.certified.push(format!(
        "footprint: inferred read/write sets of all {num_commands} commands"
    ));

    // Pass 2 — locality.
    let violations = check_locality(
        program,
        &footprints,
        &shape.partition,
        &shape.command_process,
    );
    if violations.is_empty() {
        report.certified.push(format!(
            "locality: all {num_commands} commands touch only variables visible \
             to their process (per-process decomposition, Lemmas 2-3)"
        ));
    }
    for v in violations {
        report.findings.push(Finding {
            pass: "locality",
            severity: Severity::Error,
            command: Some(v.command_name.clone()),
            vars: vec![v.var_name.clone()],
            message: format!(
                "command {:?} of process {} {} variable {:?}, which process {} may not access",
                v.command_name,
                v.process,
                v.access.label(),
                v.var_name,
                v.process
            ),
        });
    }

    // Pass 3 — wrapper footprint (graybox admissibility).
    let num_wrappers = shape.command_is_wrapper.iter().filter(|&&w| w).count();
    let violations = check_wrapper_footprint(
        program,
        &footprints,
        &shape.spec_vars,
        &shape.command_is_wrapper,
    );
    if violations.is_empty() && num_wrappers > 0 {
        report.certified.push(format!(
            "wrapper-footprint: all {num_wrappers} wrapper commands read/write \
             spec-visible variables only (graybox-admissible)"
        ));
    }
    for v in violations {
        report.findings.push(Finding {
            pass: "wrapper-footprint",
            severity: Severity::Error,
            command: Some(v.command_name.clone()),
            vars: vec![v.var_name.clone()],
            message: format!(
                "wrapper command {:?} {} non-spec variable {:?}: not graybox-admissible",
                v.command_name,
                v.access.label(),
                v.var_name
            ),
        });
    }

    // Pass 4 — interference (warnings: the contention surface is
    // expected to be nonempty for a wrapper that corrects anything).
    let conflicts = check_interference(program, &footprints, &shape.command_is_wrapper);
    report.certified.push(format!(
        "interference: {} wrapper/program conflict site(s) mapped",
        conflicts.len()
    ));
    for c in &conflicts {
        report.findings.push(Finding {
            pass: "interference",
            severity: Severity::Warning,
            command: Some(c.wrapper_name.clone()),
            vars: vec![c.var_name.clone()],
            message: format!(
                "{} conflict on {:?} between wrapper {:?} and program command {:?}",
                c.kind.label(),
                c.var_name,
                c.wrapper_name,
                c.program_name
            ),
        });
    }

    // Pass 5 — abstract interpretation.
    let var_names: Vec<String> = program
        .variables()
        .map(|(name, _)| name.to_string())
        .collect();
    let mut live = 0usize;
    for (index, d) in diagnoses.iter().enumerate() {
        let name = program.command_name(index).to_string();
        if d.dead {
            report.findings.push(Finding {
                pass: "absint",
                severity: Severity::Error,
                command: Some(name.clone()),
                vars: Vec::new(),
                message: format!("command {name:?} is dead: its guard is unsatisfiable"),
            });
        } else {
            live += 1;
        }
        if d.stutter_only {
            report.findings.push(Finding {
                pass: "absint",
                severity: Severity::Warning,
                command: Some(name.clone()),
                vars: Vec::new(),
                message: format!(
                    "command {name:?} is stutter-only: whenever enabled, its body \
                     provably changes nothing"
                ),
            });
        }
        for &var in &d.definite_out_of_domain {
            report.findings.push(Finding {
                pass: "absint",
                severity: Severity::Error,
                command: Some(name.clone()),
                vars: vec![var_names[var].clone()],
                message: format!(
                    "command {name:?} always writes {:?} outside its domain",
                    var_names[var]
                ),
            });
        }
        for &var in &d.possible_out_of_domain {
            report.findings.push(Finding {
                pass: "absint",
                severity: Severity::Warning,
                command: Some(name.clone()),
                vars: vec![var_names[var].clone()],
                message: format!(
                    "command {name:?} may write {:?} outside its domain",
                    var_names[var]
                ),
            });
        }
        if d.definite_table_overrun {
            report.findings.push(Finding {
                pass: "absint",
                severity: Severity::Error,
                command: Some(name.clone()),
                vars: Vec::new(),
                message: format!("command {name:?} always overruns a lookup table"),
            });
        } else if d.possible_table_overrun {
            report.findings.push(Finding {
                pass: "absint",
                severity: Severity::Warning,
                command: Some(name.clone()),
                vars: Vec::new(),
                message: format!("command {name:?} may overrun a lookup table"),
            });
        }
        if d.mod_by_zero {
            report.findings.push(Finding {
                pass: "absint",
                severity: Severity::Error,
                command: Some(name.clone()),
                vars: Vec::new(),
                message: format!("command {name:?} reduces modulo zero"),
            });
        }
    }
    if live == num_commands {
        report.certified.push(format!(
            "absint: all {num_commands} guards satisfiable, every write \
             within its mixed-radix domain"
        ));
    }

    report
}

/// Lints the n-process TME abstraction: builds the IR program, derives
/// its [`ModelShape`], and runs all passes. No state is enumerated — the
/// 7.5M-state n=3 model lints in well under a second.
pub fn lint_tme(n: usize, with_wrapper: bool) -> Report {
    let (program, _init) = tme_abstract::program_nproc_ir(n, with_wrapper);
    let shape = ModelShape::for_nproc(&tme_abstract::nproc_shape(n, with_wrapper));
    let target = format!(
        "tme-n{n}-{}",
        if with_wrapper { "wrapped" } else { "unwrapped" }
    );
    run_all_passes(&program, &shape, &target)
}
