//! Pass 1: per-command read/write footprint inference.
//!
//! A footprint is a *may*-approximation read straight off the syntax
//! tree: guard reads and both branches of every `if` count as reads,
//! every assignment target counts as a write. No state is enumerated.

use std::collections::BTreeSet;

use graybox_core::gcl::ir::IrCommand;
use graybox_core::gcl::Program;

/// The variables a command may read and may write, as declaration-order
/// indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footprint {
    /// Variables read by the guard or any body expression/condition.
    pub reads: BTreeSet<usize>,
    /// Variables assigned anywhere in the body.
    pub writes: BTreeSet<usize>,
}

impl Footprint {
    /// Everything the command touches (reads ∪ writes).
    pub fn touches(&self) -> BTreeSet<usize> {
        self.reads.union(&self.writes).copied().collect()
    }
}

/// Infers the may-footprint of one IR command.
pub fn command_footprint(command: &IrCommand) -> Footprint {
    let mut reads = BTreeSet::new();
    let mut writes = BTreeSet::new();
    command.guard.visit_reads(&mut |v| {
        reads.insert(v.index());
    });
    for stmt in &command.body {
        stmt.visit_footprint(
            &mut |v| {
                reads.insert(v.index());
            },
            &mut |v| {
                writes.insert(v.index());
            },
        );
    }
    Footprint { reads, writes }
}

/// Infers the footprints of every command of `program`, in declaration
/// order.
pub fn program_footprints(program: &Program) -> Vec<Footprint> {
    (0..program.num_commands())
        .map(|index| command_footprint(program.ir_command(index)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graybox_core::gcl::ir::{Expr, IrCommand, Stmt};

    #[test]
    fn footprint_covers_guard_body_and_both_branches() {
        let mut p = Program::new();
        let a = p.var("a", 4);
        let b = p.var("b", 4);
        let c = p.var("c", 4);
        let d = p.var("d", 4);
        let cmd = IrCommand::new(
            "probe",
            Expr::var(a).eq(Expr::int(1)),
            vec![Stmt::if_else(
                Expr::var(b).lt(Expr::int(2)),
                vec![Stmt::assign(c, Expr::var(d))],
                vec![Stmt::assign(d, Expr::int(0))],
            )],
        );
        p.command_ir(cmd.clone());
        let fp = command_footprint(&cmd);
        assert_eq!(
            fp.reads,
            [a.index(), b.index(), d.index()].into_iter().collect()
        );
        assert_eq!(fp.writes, [c.index(), d.index()].into_iter().collect());
        assert_eq!(program_footprints(&p), vec![fp]);
    }
}
