//! The expression IR of the guarded-command language: the one way to
//! write a command.
//!
//! A command is a syntax tree, not a closure, so it can be asked which
//! variables it reads. That is what lets the paper's statically checkable
//! preconditions — locality of the everywhere specification `A = ⊓ᵢ Aᵢ`
//! (Lemmas 2–3), the graybox admissibility of a wrapper (its footprint is
//! confined to spec variables, §2), interference freedom between wrapper
//! and program commands — be certified without enumerating states.
//!
//! * [`Expr`] — finite-domain arithmetic: variable reads, constants,
//!   table lookups (finite functions such as permutation tables),
//!   addition, truncated subtraction, and reduction mod a constant;
//! * [`Cond`] — comparisons between expressions and the boolean
//!   connectives over them;
//! * [`Stmt`] — assignment and conditional statement sequences;
//! * [`IrCommand`] — a named guarded command `guard → body`.
//!
//! The packed compiler lowers each command once per compile or check,
//! against the program's layout: guards to digit-set masks plus jump
//! code, bodies to flat jump code that writes through the packed
//! [`State`](super::State) view (stride tables, undo log). The valuation
//! semantics here ([`IrCommand::guard_holds_values`],
//! [`IrCommand::apply_values`]) are the analyzer's semantics and the
//! oracle of that lowering; the static passes over the IR live in the
//! `graybox-analyze` crate.
//!
//! # Semantics
//!
//! All values are unsigned finite-domain naturals. [`Expr::Sub`] is
//! *truncated* (saturating) subtraction, `max(a - b, 0)`, the standard
//! choice over ℕ. [`Expr::Mod`] reduces by a constant modulus, so
//! `x := (x + 1) mod d` is the idiomatic cyclic increment. A lookup
//! [`Expr::Table`] with an index beyond the table is a *caller bug* and
//! panics at evaluation time; the abstract interpreter in
//! `graybox-analyze` flags indices that may go out of bounds before any
//! sweep runs. Assignments of values outside the target's domain are
//! reported by the compiler as
//! [`GclError::OutOfDomain`](super::GclError::OutOfDomain).
//!
//! Within a body, later statements observe earlier writes, matching the
//! sequential reading of Dijkstra's guarded-command assignment lists.
//!
//! # Example
//!
//! ```
//! use graybox_core::gcl::ir::{Expr, IrCommand, Stmt};
//! use graybox_core::gcl::Program;
//!
//! let mut program = Program::new();
//! let x = program.var("x", 4);
//! program.command_ir(IrCommand::new(
//!     "inc",
//!     Expr::var(x).lt(Expr::int(3)),
//!     vec![Stmt::assign(x, Expr::var(x).add(Expr::int(1)))],
//! ));
//! let compiled = program.compile(|s| s.get(x) == 0)?;
//! assert!(compiled.system().has_edge(0, 1));
//! assert!(compiled.system().has_edge(3, 3)); // quiescent stutter
//! # Ok::<(), graybox_core::gcl::GclError>(())
//! ```

use std::sync::Arc;

use super::VarRef;

/// A finite-domain arithmetic expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A constant.
    Const(usize),
    /// The current value of a variable.
    Var(VarRef),
    /// `table[index]` — a finite function applied to an index expression
    /// (e.g. the permutation tables of the TME abstraction). Evaluating
    /// an index beyond the table panics; the abstract interpreter
    /// reports indices that may escape the table statically.
    Table {
        /// The index expression.
        index: Box<Expr>,
        /// The table of values, indexed `0..len` (shared, so commands
        /// that look up the same table hold one copy).
        values: Arc<[usize]>,
    },
    /// Addition over ℕ.
    Add(Box<Expr>, Box<Expr>),
    /// Truncated (saturating) subtraction over ℕ: `max(a - b, 0)`.
    Sub(Box<Expr>, Box<Expr>),
    /// Reduction modulo a constant (the constant must be nonzero; a zero
    /// modulus panics at evaluation time and is flagged statically).
    Mod(Box<Expr>, usize),
}

/// Comparison operators between two [`Expr`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Strictly less.
    Lt,
    /// At most.
    Le,
    /// Strictly greater.
    Gt,
    /// At least.
    Ge,
}

/// A boolean condition: comparisons under the usual connectives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cond {
    /// Constant truth value.
    Const(bool),
    /// `lhs op rhs`.
    Cmp(CmpOp, Expr, Expr),
    /// Negation.
    Not(Box<Cond>),
    /// N-ary conjunction (empty = true).
    And(Vec<Cond>),
    /// N-ary disjunction (empty = false).
    Or(Vec<Cond>),
}

/// A statement of a command body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `var := expr`.
    Assign(VarRef, Expr),
    /// `if cond then … else …` (either branch may be empty).
    If {
        /// The branch condition, evaluated on the current (possibly
        /// already partially updated) state.
        cond: Cond,
        /// Statements executed when `cond` holds.
        then_branch: Vec<Stmt>,
        /// Statements executed when `cond` does not hold.
        else_branch: Vec<Stmt>,
    },
}

/// A named guarded command `name :: guard → body`, in IR form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrCommand {
    /// The command's name (used in diagnostics and error reports).
    pub name: String,
    /// The guard.
    pub guard: Cond,
    /// The effect, as a statement sequence.
    pub body: Vec<Stmt>,
}

impl Expr {
    /// A constant expression. (Named `int` to leave `Expr::Const` free
    /// for pattern matching.)
    pub fn int(value: usize) -> Expr {
        Expr::Const(value)
    }

    /// A variable read.
    pub fn var(var: VarRef) -> Expr {
        Expr::Var(var)
    }

    /// `table[self]`.
    pub fn table(self, values: impl Into<Arc<[usize]>>) -> Expr {
        Expr::Table {
            index: Box::new(self),
            values: values.into(),
        }
    }

    /// `self + rhs`.
    // Deliberately named like the operator it builds syntax for; the
    // `std::ops` traits are not implemented because evaluation needs a
    // valuation, so `a + b` producing an unevaluated tree would mislead.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// `max(self - rhs, 0)`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self mod modulus`.
    pub fn modulo(self, modulus: usize) -> Expr {
        Expr::Mod(Box::new(self), modulus)
    }

    /// `self == rhs`.
    pub fn eq(self, rhs: Expr) -> Cond {
        Cond::Cmp(CmpOp::Eq, self, rhs)
    }

    /// `self != rhs`.
    pub fn ne(self, rhs: Expr) -> Cond {
        Cond::Cmp(CmpOp::Ne, self, rhs)
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Cond {
        Cond::Cmp(CmpOp::Lt, self, rhs)
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Cond {
        Cond::Cmp(CmpOp::Le, self, rhs)
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Cond {
        Cond::Cmp(CmpOp::Gt, self, rhs)
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Cond {
        Cond::Cmp(CmpOp::Ge, self, rhs)
    }

    /// Evaluates against a plain valuation indexed by variable index —
    /// the hook the `graybox-analyze` predicate transformers use to run
    /// IR on enumerated valuations without compiling a packed layout.
    pub fn eval_values(&self, values: &[usize]) -> usize {
        match self {
            Expr::Const(c) => *c,
            Expr::Var(v) => values[v.index()],
            Expr::Table { index, values: t } => t[index.eval_values(values)],
            Expr::Add(a, b) => a.eval_values(values) + b.eval_values(values),
            Expr::Sub(a, b) => a.eval_values(values).saturating_sub(b.eval_values(values)),
            Expr::Mod(a, m) => a.eval_values(values) % m,
        }
    }

    /// Calls `visit` for every variable this expression reads.
    pub fn visit_reads(&self, visit: &mut impl FnMut(VarRef)) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => visit(*v),
            Expr::Table { index, .. } => index.visit_reads(visit),
            Expr::Add(a, b) | Expr::Sub(a, b) => {
                a.visit_reads(visit);
                b.visit_reads(visit);
            }
            Expr::Mod(a, _) => a.visit_reads(visit),
        }
    }
}

impl CmpOp {
    /// Applies the comparison.
    pub fn holds(self, lhs: usize, rhs: usize) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// The comparison holding exactly when this one does not.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

impl Cond {
    /// `!self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Cond {
        Cond::Not(Box::new(self))
    }

    /// `self && rhs` (flattening nested conjunctions).
    pub fn and(self, rhs: Cond) -> Cond {
        match (self, rhs) {
            (Cond::And(mut a), Cond::And(b)) => {
                a.extend(b);
                Cond::And(a)
            }
            (Cond::And(mut a), r) => {
                a.push(r);
                Cond::And(a)
            }
            (l, Cond::And(mut b)) => {
                b.insert(0, l);
                Cond::And(b)
            }
            (l, r) => Cond::And(vec![l, r]),
        }
    }

    /// `self || rhs` (flattening nested disjunctions).
    pub fn or(self, rhs: Cond) -> Cond {
        match (self, rhs) {
            (Cond::Or(mut a), Cond::Or(b)) => {
                a.extend(b);
                Cond::Or(a)
            }
            (Cond::Or(mut a), r) => {
                a.push(r);
                Cond::Or(a)
            }
            (l, Cond::Or(mut b)) => {
                b.insert(0, l);
                Cond::Or(b)
            }
            (l, r) => Cond::Or(vec![l, r]),
        }
    }

    /// Evaluates against a plain valuation indexed by variable index.
    pub fn eval_values(&self, values: &[usize]) -> bool {
        match self {
            Cond::Const(b) => *b,
            Cond::Cmp(op, lhs, rhs) => op.holds(lhs.eval_values(values), rhs.eval_values(values)),
            Cond::Not(inner) => !inner.eval_values(values),
            Cond::And(parts) => parts.iter().all(|p| p.eval_values(values)),
            Cond::Or(parts) => parts.iter().any(|p| p.eval_values(values)),
        }
    }

    /// Calls `visit` for every variable this condition reads.
    pub fn visit_reads(&self, visit: &mut impl FnMut(VarRef)) {
        match self {
            Cond::Const(_) => {}
            Cond::Cmp(_, lhs, rhs) => {
                lhs.visit_reads(visit);
                rhs.visit_reads(visit);
            }
            Cond::Not(inner) => inner.visit_reads(visit),
            Cond::And(parts) | Cond::Or(parts) => {
                for part in parts {
                    part.visit_reads(visit);
                }
            }
        }
    }
}

impl Stmt {
    /// `var := expr`.
    pub fn assign(var: VarRef, expr: Expr) -> Stmt {
        Stmt::Assign(var, expr)
    }

    /// `if cond then … ` with an empty else branch.
    pub fn when(cond: Cond, then_branch: Vec<Stmt>) -> Stmt {
        Stmt::If {
            cond,
            then_branch,
            else_branch: Vec::new(),
        }
    }

    /// `if cond then … else …`.
    pub fn if_else(cond: Cond, then_branch: Vec<Stmt>, else_branch: Vec<Stmt>) -> Stmt {
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        }
    }

    /// Executes against a plain valuation indexed by variable index.
    /// Later statements observe earlier writes; domain membership of written values is *not*
    /// checked here (the compiler checks it, the analyzer's interval
    /// pass flags it).
    pub fn exec_values(&self, values: &mut [usize]) {
        match self {
            Stmt::Assign(var, expr) => values[var.index()] = expr.eval_values(values),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let branch = if cond.eval_values(values) {
                    then_branch
                } else {
                    else_branch
                };
                for stmt in branch {
                    stmt.exec_values(values);
                }
            }
        }
    }

    /// Calls `read` for every variable a contained expression or
    /// condition reads, and `write` for every assignment target (a
    /// *may*-footprint: conditional branches contribute regardless of
    /// their condition).
    pub fn visit_footprint(&self, read: &mut impl FnMut(VarRef), write: &mut impl FnMut(VarRef)) {
        match self {
            Stmt::Assign(var, expr) => {
                expr.visit_reads(read);
                write(*var);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                cond.visit_reads(read);
                for stmt in then_branch.iter().chain(else_branch) {
                    stmt.visit_footprint(read, write);
                }
            }
        }
    }
}

impl IrCommand {
    /// Builds a named command `guard → body`.
    pub fn new(name: impl Into<String>, guard: Cond, body: Vec<Stmt>) -> IrCommand {
        IrCommand {
            name: name.into(),
            guard,
            body,
        }
    }

    /// Evaluates the guard over a plain valuation indexed by variable
    /// index.
    pub fn guard_holds_values(&self, values: &[usize]) -> bool {
        self.guard.eval_values(values)
    }

    /// Executes the body over a plain valuation indexed by variable
    /// index.
    pub fn apply_values(&self, values: &mut [usize]) {
        for stmt in &self.body {
            stmt.exec_values(values);
        }
    }

    /// The highest variable index mentioned anywhere in the command, or
    /// `None` when it mentions no variable (used by
    /// [`Program::command_ir`](super::Program::command_ir) to validate
    /// that every reference is declared).
    pub fn max_var_index(&self) -> Option<usize> {
        let max = std::cell::Cell::new(None::<usize>);
        let bump = |v: VarRef| {
            max.set(Some(max.get().map_or(v.index(), |m| m.max(v.index()))));
        };
        let mut on_read = |v| bump(v);
        let mut on_write = |v| bump(v);
        self.guard.visit_reads(&mut on_read);
        for stmt in &self.body {
            stmt.visit_footprint(&mut on_read, &mut on_write);
        }
        max.get()
    }
}

#[cfg(test)]
mod tests {
    use super::super::Program;
    use super::*;

    #[test]
    fn expr_builders_and_eval() {
        let mut p = Program::new();
        let x = p.var("x", 5);
        let y = p.var("y", 5);
        p.command_ir(IrCommand::new(
            "mix",
            Expr::var(x)
                .lt(Expr::int(4))
                .and(Expr::var(y).ge(Expr::int(0))),
            vec![
                Stmt::assign(y, Expr::var(x).add(Expr::int(3)).modulo(5)),
                Stmt::assign(x, Expr::var(y).sub(Expr::int(10))), // truncated to 0
            ],
        ));
        let compiled = p.compile(|s| s.get(x) == 2 && s.get(y) == 0).unwrap();
        // From (x=2, y=0): y := (2+3)%5 = 0; x := max(0-10,0) = 0 → state (0,0).
        let from = 2;
        let to = 0;
        assert!(compiled.system().has_edge(from, to));
    }

    #[test]
    fn table_lookup_evaluates() {
        let mut p = Program::new();
        let x = p.var("x", 3);
        p.command_ir(IrCommand::new(
            "perm",
            Cond::Const(true),
            vec![Stmt::assign(x, Expr::var(x).table(vec![1, 2, 0]))],
        ));
        let compiled = p.compile(|_| true).unwrap();
        assert!(compiled.system().has_edge(0, 1));
        assert!(compiled.system().has_edge(1, 2));
        assert!(compiled.system().has_edge(2, 0));
    }

    #[test]
    fn if_branches_execute_sequentially() {
        let mut p = Program::new();
        let x = p.var("x", 4);
        let y = p.var("y", 4);
        p.command_ir(IrCommand::new(
            "chain",
            Cond::Const(true),
            vec![
                Stmt::assign(x, Expr::int(2)),
                // The condition sees the just-written x.
                Stmt::when(
                    Expr::var(x).eq(Expr::int(2)),
                    vec![Stmt::assign(y, Expr::int(3))],
                ),
            ],
        ));
        let compiled = p.compile(|s| s.get(x) == 0 && s.get(y) == 0).unwrap();
        // (0,0) → (2,3) = 2 + 4*3 = 14.
        assert!(compiled.system().has_edge(0, 14));
    }

    #[test]
    fn cmp_ops_hold_and_negate() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for (a, b) in [(0usize, 1usize), (1, 1), (2, 1)] {
                assert_ne!(op.holds(a, b), op.negate().holds(a, b));
            }
        }
    }

    #[test]
    fn footprint_visits_reads_and_writes() {
        let mut p = Program::new();
        let x = p.var("x", 3);
        let y = p.var("y", 3);
        let z = p.var("z", 3);
        let cmd = IrCommand::new(
            "c",
            Expr::var(x).eq(Expr::int(1)),
            vec![Stmt::when(
                Expr::var(y).ne(Expr::int(0)),
                vec![Stmt::assign(z, Expr::var(y))],
            )],
        );
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        cmd.guard.visit_reads(&mut |v| reads.push(v.index()));
        for stmt in &cmd.body {
            stmt.visit_footprint(&mut |v| reads.push(v.index()), &mut |v| {
                writes.push(v.index());
            });
        }
        reads.sort_unstable();
        reads.dedup();
        assert_eq!(reads, vec![x.index(), y.index()]);
        assert_eq!(writes, vec![z.index()]);
        assert_eq!(cmd.max_var_index(), Some(z.index()));
    }

    #[test]
    fn out_of_domain_ir_assignment_is_reported() {
        use super::super::GclError;
        let mut p = Program::new();
        let x = p.var("x", 2);
        p.command_ir(IrCommand::new(
            "overflow",
            Cond::Const(true),
            vec![Stmt::assign(x, Expr::int(7))],
        ));
        assert_eq!(
            p.compile(|_| true).unwrap_err(),
            GclError::OutOfDomain {
                command: "overflow".into()
            }
        );
    }

    #[test]
    fn valuation_hooks_match_compiled_semantics() {
        // Execute the same command through `exec_values` and through the
        // packed compiler; the successor states must agree.
        let mut p = Program::new();
        let x = p.var("x", 5);
        let y = p.var("y", 5);
        let cmd = IrCommand::new(
            "mix",
            Expr::var(x).lt(Expr::int(4)),
            vec![
                Stmt::assign(y, Expr::var(x).add(Expr::int(3)).modulo(5)),
                Stmt::when(
                    Expr::var(y).eq(Expr::int(0)),
                    vec![Stmt::assign(x, Expr::var(y).table(vec![2, 0, 1, 3, 4]))],
                ),
            ],
        );
        p.command_ir(cmd.clone());
        let compiled = p.compile(|_| true).unwrap();
        for x0 in 0..5usize {
            for y0 in 0..5usize {
                let mut vals = vec![x0, y0];
                let enabled = cmd.guard_holds_values(&vals);
                assert_eq!(enabled, x0 < 4);
                if enabled {
                    cmd.apply_values(&mut vals);
                }
                let from = x0 + 5 * y0;
                let to = vals[0] + 5 * vals[1];
                assert!(compiled.system().has_edge(from, to), "({x0},{y0})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "undeclared variable")]
    fn undeclared_variable_in_ir_panics_at_insertion() {
        let mut p = Program::new();
        let _ = p.var("x", 2);
        let ghost = VarRef(7);
        p.command_ir(IrCommand::new(
            "bad",
            Cond::Const(true),
            vec![Stmt::assign(ghost, Expr::int(0))],
        ));
    }
}
