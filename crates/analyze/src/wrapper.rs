//! Pass 3: graybox wrapper-footprint lint.
//!
//! A graybox wrapper (paper §2) observes and corrects the implementation
//! through its *specification* interface: `Lspec` exposes the abstract
//! protocol state, nothing else. Statically that means every wrapper
//! command's footprint — reads and writes alike — must stay inside the
//! set of spec-visible variables. A wrapper that consults a ground-truth
//! ghost (the TME request order, say) is not graybox-admissible: no
//! implementation could hand it that information.

use std::collections::BTreeSet;

use graybox_core::gcl::Program;

use crate::footprint::Footprint;
use crate::locality::Access;

/// One wrapper-footprint violation: a wrapper command touches a variable
/// outside the spec-visible set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrapperViolation {
    /// Declaration-order index of the offending wrapper command.
    pub command: usize,
    /// Its name.
    pub command_name: String,
    /// Declaration-order index of the non-spec variable.
    pub var: usize,
    /// Its name.
    pub var_name: String,
    /// How the wrapper touches it.
    pub access: Access,
}

/// Checks every wrapper command's footprint against `spec_vars`.
///
/// `is_wrapper[i]` marks wrapper commands; non-wrapper commands are
/// ignored (the *protocol* may consult ghosts — that is the abstraction
/// doing its job, not a graybox leak).
///
/// # Panics
///
/// Panics if the slice lengths disagree with the program's command
/// count.
pub fn check_wrapper_footprint(
    program: &Program,
    footprints: &[Footprint],
    spec_vars: &BTreeSet<usize>,
    is_wrapper: &[bool],
) -> Vec<WrapperViolation> {
    assert_eq!(footprints.len(), program.num_commands());
    assert_eq!(is_wrapper.len(), program.num_commands());
    let var_names: Vec<&str> = program.variables().map(|(name, _)| name).collect();

    let mut violations = Vec::new();
    for (index, fp) in footprints.iter().enumerate() {
        if !is_wrapper[index] {
            continue;
        }
        let mut flag = |var: usize, access: Access| {
            if !spec_vars.contains(&var) {
                violations.push(WrapperViolation {
                    command: index,
                    command_name: program.command_name(index).to_string(),
                    var,
                    var_name: var_names[var].to_string(),
                    access,
                });
            }
        };
        for &var in &fp.reads {
            flag(var, Access::Read);
        }
        for &var in &fp.writes {
            flag(var, Access::Write);
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::program_footprints;
    use graybox_core::gcl::ir::{Expr, IrCommand, Stmt};

    #[test]
    fn wrapper_reading_a_ghost_is_flagged() {
        let mut p = Program::new();
        let m = p.var("m", 3);
        let ord = p.var("ord", 2);
        p.command_ir(IrCommand::new(
            "protocol",
            Expr::var(ord).eq(Expr::int(0)),
            vec![Stmt::assign(m, Expr::int(1))],
        ));
        p.command_ir(IrCommand::new(
            "wrapper_peek",
            Expr::var(ord).eq(Expr::int(1)),
            vec![Stmt::assign(m, Expr::int(0))],
        ));
        let spec_vars: BTreeSet<usize> = [m.index()].into_iter().collect();
        let fps = program_footprints(&p);
        let violations = check_wrapper_footprint(&p, &fps, &spec_vars, &[false, true]);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].command_name, "wrapper_peek");
        assert_eq!(violations[0].var_name, "ord");
        assert_eq!(violations[0].access, Access::Read);
    }
}
