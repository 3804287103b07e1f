//! Pass 4: interference analysis between wrapper and program commands.
//!
//! The two-level optimistic design of §2.2 (see
//! `graybox_core::method::TwoLevelDesign`) interleaves correction
//! commands with the program they correct, so the interesting static
//! question is *where they can race*: which variables are written by
//! both sides (WW), written by the wrapper while the program reads them
//! (wrapper→program RW), or written by the program while the wrapper
//! reads them (program→wrapper RW). Conflicts are expected — a wrapper
//! that shares no variables with its program corrects nothing — so they
//! are reported as warnings, not errors: a map of the contention
//! surface the convergence argument has to cover.

use graybox_core::gcl::Program;

use crate::footprint::Footprint;

/// The flavor of a wrapper/program conflict on one variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictKind {
    /// Both commands write the variable.
    WriteWrite,
    /// The wrapper writes a variable the program command reads.
    WrapperWritesProgramRead,
    /// The program command writes a variable the wrapper reads.
    ProgramWritesWrapperRead,
}

impl ConflictKind {
    /// Short label for messages.
    pub fn label(self) -> &'static str {
        match self {
            ConflictKind::WriteWrite => "write/write",
            ConflictKind::WrapperWritesProgramRead => "wrapper-write/program-read",
            ConflictKind::ProgramWritesWrapperRead => "program-write/wrapper-read",
        }
    }
}

/// One wrapper/program conflict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// Declaration-order index of the wrapper command.
    pub wrapper: usize,
    /// Its name.
    pub wrapper_name: String,
    /// Declaration-order index of the program command.
    pub program_command: usize,
    /// Its name.
    pub program_name: String,
    /// Declaration-order index of the contended variable.
    pub var: usize,
    /// Its name.
    pub var_name: String,
    /// The conflict flavor.
    pub kind: ConflictKind,
}

/// Enumerates every wrapper/program conflict, by footprint intersection.
///
/// # Panics
///
/// Panics if the slice lengths disagree with the program's command
/// count.
pub fn check_interference(
    program: &Program,
    footprints: &[Footprint],
    is_wrapper: &[bool],
) -> Vec<Conflict> {
    assert_eq!(footprints.len(), program.num_commands());
    assert_eq!(is_wrapper.len(), program.num_commands());
    let var_names: Vec<&str> = program.variables().map(|(name, _)| name).collect();

    let mut conflicts = Vec::new();
    for (w, w_fp) in footprints.iter().enumerate() {
        if !is_wrapper[w] {
            continue;
        }
        for (p, p_fp) in footprints.iter().enumerate() {
            if is_wrapper[p] {
                continue;
            }
            let mut push = |var: usize, kind: ConflictKind| {
                conflicts.push(Conflict {
                    wrapper: w,
                    wrapper_name: program.command_name(w).to_string(),
                    program_command: p,
                    program_name: program.command_name(p).to_string(),
                    var,
                    var_name: var_names[var].to_string(),
                    kind,
                });
            };
            for &var in w_fp.writes.intersection(&p_fp.writes) {
                push(var, ConflictKind::WriteWrite);
            }
            for &var in w_fp.writes.intersection(&p_fp.reads) {
                push(var, ConflictKind::WrapperWritesProgramRead);
            }
            for &var in w_fp.reads.intersection(&p_fp.writes) {
                push(var, ConflictKind::ProgramWritesWrapperRead);
            }
        }
    }
    conflicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::program_footprints;
    use graybox_core::gcl::ir::{Cond, Expr, IrCommand, Stmt};

    #[test]
    fn ww_and_rw_conflicts_are_enumerated() {
        let mut p = Program::new();
        let x = p.var("x", 3);
        let y = p.var("y", 3);
        p.command_ir(IrCommand::new(
            "prog",
            Expr::var(y).eq(Expr::int(0)),
            vec![Stmt::assign(x, Expr::int(1))],
        ));
        p.command_ir(IrCommand::new(
            "wrap",
            Cond::Const(true),
            vec![Stmt::assign(x, Expr::int(0)), Stmt::assign(y, Expr::int(2))],
        ));
        let fps = program_footprints(&p);
        let conflicts = check_interference(&p, &fps, &[false, true]);
        let kinds: Vec<(&str, ConflictKind)> = conflicts
            .iter()
            .map(|c| (c.var_name.as_str(), c.kind))
            .collect();
        assert!(kinds.contains(&("x", ConflictKind::WriteWrite)));
        assert!(kinds.contains(&("y", ConflictKind::WrapperWritesProgramRead)));
        // `prog` writes x which `wrap` does not read, and `wrap` reads
        // nothing `prog` writes back: no program-write/wrapper-read here.
        assert!(!kinds
            .iter()
            .any(|(_, k)| *k == ConflictKind::ProgramWritesWrapperRead));
    }
}
