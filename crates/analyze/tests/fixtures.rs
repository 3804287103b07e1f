//! Injected-defect fixtures: every class of violation the passes exist
//! to catch is planted in a small model, and the report must name the
//! offending command and variables.

use std::collections::BTreeSet;

use graybox_analyze::report::{Report, Severity};
use graybox_analyze::tme::{run_all_passes, ModelShape};
use graybox_analyze::{Partition, VarClass};
use graybox_core::gcl::ir::{Expr, IrCommand, Stmt};
use graybox_core::gcl::Program;

/// A two-process toy: modes m0/m1 (owned), a channel c01, and a
/// ground-truth ghost `ord` outside the spec. The last command is the
/// wrapper.
fn fixture() -> (Program, ModelShape) {
    let mut p = Program::new();
    let m0 = p.var("m0", 3);
    let m1 = p.var("m1", 3);
    let c01 = p.var("c01", 3);
    let ord = p.var("ord", 2);

    // Healthy process-0 command.
    p.command_ir(IrCommand::new(
        "send0",
        Expr::var(m0).eq(Expr::int(0)),
        vec![
            Stmt::assign(c01, Expr::int(1)),
            Stmt::assign(m0, Expr::int(1)),
        ],
    ));
    // Locality violation: a process-0 command writing process 1's mode.
    p.command_ir(IrCommand::new(
        "poke_peer",
        Expr::var(m0).eq(Expr::int(1)),
        vec![Stmt::assign(m1, Expr::int(0))],
    ));
    // Dead command: contradictory guard.
    p.command_ir(IrCommand::new(
        "unreachable_guard",
        Expr::var(m1)
            .eq(Expr::int(0))
            .and(Expr::var(m1).eq(Expr::int(2))),
        vec![Stmt::assign(m1, Expr::int(1))],
    ));
    // Definite out-of-domain write.
    p.command_ir(IrCommand::new(
        "overflow",
        Expr::var(m1).eq(Expr::int(0)),
        vec![Stmt::assign(c01, Expr::int(7))],
    ));
    // Stutter-only command.
    p.command_ir(IrCommand::new(
        "idle",
        Expr::var(m1).eq(Expr::int(2)),
        vec![Stmt::assign(m1, Expr::int(2))],
    ));
    // Wrapper that consults the ground-truth ghost: not
    // graybox-admissible.
    p.command_ir(IrCommand::new(
        "wrapper_peeks_ord",
        Expr::var(ord).eq(Expr::int(1)),
        vec![Stmt::assign(c01, Expr::int(0))],
    ));

    let shape = ModelShape {
        partition: Partition {
            classes: vec![
                VarClass::Owned(0),
                VarClass::Owned(1),
                VarClass::Channel { from: 0, to: 1 },
                VarClass::Auxiliary,
            ],
        },
        spec_vars: BTreeSet::from([0, 1, 2]),
        command_process: vec![0, 0, 1, 1, 1, 0],
        command_is_wrapper: vec![false, false, false, false, false, true],
    };
    (p, shape)
}

fn report() -> Report {
    let (program, shape) = fixture();
    run_all_passes(&program, &shape, "fixture")
}

#[test]
fn locality_violation_names_command_and_variable() {
    let report = report();
    let f = report
        .findings
        .iter()
        .find(|f| f.pass == "locality")
        .expect("locality finding");
    assert_eq!(f.severity, Severity::Error);
    assert_eq!(f.command.as_deref(), Some("poke_peer"));
    assert_eq!(f.vars, vec!["m1".to_string()]);
    assert!(f.message.contains("poke_peer"));
    assert!(f.message.contains("m1"));
}

#[test]
fn dead_command_is_an_error_with_its_name() {
    let report = report();
    let f = report
        .findings
        .iter()
        .find(|f| f.pass == "absint" && f.message.contains("dead"))
        .expect("dead-command finding");
    assert_eq!(f.severity, Severity::Error);
    assert_eq!(f.command.as_deref(), Some("unreachable_guard"));
}

#[test]
fn out_of_domain_write_is_an_error_naming_the_variable() {
    let report = report();
    let f = report
        .findings
        .iter()
        .find(|f| f.pass == "absint" && f.message.contains("outside its domain"))
        .expect("out-of-domain finding");
    assert_eq!(f.severity, Severity::Error);
    assert_eq!(f.command.as_deref(), Some("overflow"));
    assert_eq!(f.vars, vec!["c01".to_string()]);
}

#[test]
fn stutter_only_command_is_a_warning() {
    let report = report();
    let f = report
        .findings
        .iter()
        .find(|f| f.pass == "absint" && f.message.contains("stutter-only"))
        .expect("stutter finding");
    assert_eq!(f.severity, Severity::Warning);
    assert_eq!(f.command.as_deref(), Some("idle"));
}

#[test]
fn wrapper_reading_the_ghost_is_not_graybox_admissible() {
    let report = report();
    let f = report
        .findings
        .iter()
        .find(|f| f.pass == "wrapper-footprint")
        .expect("wrapper-footprint finding");
    assert_eq!(f.severity, Severity::Error);
    assert_eq!(f.command.as_deref(), Some("wrapper_peeks_ord"));
    assert_eq!(f.vars, vec!["ord".to_string()]);
}

#[test]
fn fixture_report_counts_and_json_agree() {
    let report = report();
    assert!(!report.is_clean());
    // locality (1) + wrapper-footprint (1) + dead (1) + out-of-domain (1)
    // = 4 errors.
    assert_eq!(report.num_errors(), 4, "{report}");
    let json = report.to_json();
    assert!(json.contains("\"errors\": 4"));
    assert!(json.contains("\"command\": \"poke_peer\""));
    assert!(json.contains("\"vars\": [\"ord\"]"));
}
