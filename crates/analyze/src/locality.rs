//! Pass 2: locality checking against a variable-to-process partition.
//!
//! The paper's per-process decomposition (Lemmas 2–3) needs the program
//! to *be* a conjunction of local components: every command belongs to a
//! process, and may only touch variables that process is allowed to see.
//! This pass certifies that syntactically. A clean run means the
//! everywhere specification `A` splits as `⊓ᵢ Aᵢ` along the partition.

use graybox_core::gcl::Program;

use crate::footprint::Footprint;

/// Which process(es) may access a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarClass {
    /// Private to one process: only that process may read or write it.
    Owned(usize),
    /// A directed channel: both endpoints may read and write it (the
    /// sender fills the slot, the receiver drains it).
    Channel {
        /// Sending process.
        from: usize,
        /// Receiving process.
        to: usize,
    },
    /// A specification-level ghost (e.g. the TME ground-truth request
    /// order): exempt from locality — it models shared abstract state no
    /// single process owns. Spec-visibility for *wrappers* is a separate
    /// question, answered by the wrapper-footprint pass.
    Auxiliary,
}

impl VarClass {
    /// May `process` read a variable of this class?
    pub fn may_read(self, process: usize) -> bool {
        match self {
            VarClass::Owned(p) => p == process,
            VarClass::Channel { from, to } => process == from || process == to,
            VarClass::Auxiliary => true,
        }
    }

    /// May `process` write a variable of this class?
    pub fn may_write(self, process: usize) -> bool {
        // Same visibility as reads: channels are two-endpoint shared
        // slots, auxiliaries are spec-level and unowned.
        self.may_read(process)
    }
}

/// A variable-to-process partition: one [`VarClass`] per declared
/// variable, in declaration order.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Class of each variable.
    pub classes: Vec<VarClass>,
}

/// Read or write, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The command reads the variable.
    Read,
    /// The command writes the variable.
    Write,
}

impl Access {
    /// Lowercase label for messages.
    pub fn label(self) -> &'static str {
        match self {
            Access::Read => "reads",
            Access::Write => "writes",
        }
    }
}

/// One locality violation: a command of `process` touches a variable its
/// process may not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalityViolation {
    /// Declaration-order index of the offending command.
    pub command: usize,
    /// Its name.
    pub command_name: String,
    /// The process the command belongs to.
    pub process: usize,
    /// Declaration-order index of the variable.
    pub var: usize,
    /// Its name.
    pub var_name: String,
    /// How the command touches it.
    pub access: Access,
}

/// Checks every command's footprint against the partition.
///
/// `footprints[i]` and `command_process[i]` describe command `i` of
/// `program` (use [`crate::program_footprints`] for the former).
///
/// # Panics
///
/// Panics if the slice lengths disagree with the program's command and
/// variable counts.
pub fn check_locality(
    program: &Program,
    footprints: &[Footprint],
    partition: &Partition,
    command_process: &[usize],
) -> Vec<LocalityViolation> {
    assert_eq!(footprints.len(), program.num_commands());
    assert_eq!(command_process.len(), program.num_commands());
    let var_names: Vec<&str> = program.variables().map(|(name, _)| name).collect();
    assert_eq!(partition.classes.len(), var_names.len());

    let mut violations = Vec::new();
    for (index, fp) in footprints.iter().enumerate() {
        let process = command_process[index];
        let mut flag = |var: usize, access: Access, allowed: bool| {
            if !allowed {
                violations.push(LocalityViolation {
                    command: index,
                    command_name: program.command_name(index).to_string(),
                    process,
                    var,
                    var_name: var_names[var].to_string(),
                    access,
                });
            }
        };
        for &var in &fp.reads {
            flag(var, Access::Read, partition.classes[var].may_read(process));
        }
        for &var in &fp.writes {
            flag(
                var,
                Access::Write,
                partition.classes[var].may_write(process),
            );
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::program_footprints;
    use graybox_core::gcl::ir::{Cond, Expr, IrCommand, Stmt};

    #[test]
    fn cross_process_write_is_flagged() {
        let mut p = Program::new();
        let m0 = p.var("m0", 3);
        let m1 = p.var("m1", 3);
        let c01 = p.var("c01", 3);
        p.command_ir(IrCommand::new(
            "ok",
            Expr::var(m0).eq(Expr::int(0)),
            vec![Stmt::assign(c01, Expr::int(1))],
        ));
        p.command_ir(IrCommand::new(
            "rogue",
            Cond::Const(true),
            vec![Stmt::assign(m1, Expr::int(2))],
        ));
        let partition = Partition {
            classes: vec![
                VarClass::Owned(0),
                VarClass::Owned(1),
                VarClass::Channel { from: 0, to: 1 },
            ],
        };
        let fps = program_footprints(&p);
        let violations = check_locality(&p, &fps, &partition, &[0, 0]);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].command_name, "rogue");
        assert_eq!(violations[0].var_name, "m1");
        assert_eq!(violations[0].access, Access::Write);
    }
}
