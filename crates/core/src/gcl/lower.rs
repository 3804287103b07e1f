//! Lowering of [`IrCommand`]s for one packed layout.
//!
//! Every compile or check entry point lowers each command once, after it
//! has built the program's [`Layout`], into the two parts the sweeps run
//! per state:
//!
//! * a **guard** split into *digit-set atoms* — a condition that reads at
//!   most one variable of domain at most 64 becomes the mask of that
//!   variable's values where it holds, so it costs one shift and one test
//!   per state — then *clauses* (disjunctions of atoms, the shape
//!   `¬(a ∧ b)` and `a ∨ b` take), then *residual* jump code for any
//!   conjunct left over;
//! * a flat **body** of jump code whose writes go through
//!   [`State::set`], so domain checks and the undo log work exactly as
//!   before.
//!
//! The jump code is one small stack machine shared by residual guards
//! and bodies. A mask is only formed where every value of the domain
//! evaluates without a panic; a conjunct that may index a table out of
//! range (or take a zero modulus, or overflow a sum) stays in jump code
//! and panics where it is evaluated, as the IR semantics demand. The
//! valuation semantics [`IrCommand::guard_holds_values`] and
//! [`IrCommand::apply_values`] are the oracle of this lowering.

use std::sync::Arc;

use super::ir::{CmpOp, Cond, Expr, IrCommand, Stmt};
use super::{narrow, Layout, State, VarRef};

/// `values[var] ∈ mask`: bit `v` of `mask` is set when value `v`
/// satisfies the condition the atom was lowered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Atom {
    var: usize,
    mask: u64,
}

impl Atom {
    #[inline]
    fn holds(self, values: &[u64]) -> bool {
        (self.mask >> values[self.var]) & 1 != 0
    }
}

/// A condition over at most one variable, decided per value.
enum DigitSet {
    Const(bool),
    Atom(Atom),
}

/// One instruction of the jump code. Values live on the view's stack;
/// truth values are `0` or `1`.
#[derive(Debug, Clone)]
enum Ins {
    /// Push a constant.
    Const(usize),
    /// Push a variable's value.
    Load(usize),
    /// Replace the top `i` by `table[i]` (panics beyond the table).
    Table(Arc<[usize]>),
    /// Pop `b`, replace the top `a` by `a + b`.
    Add,
    /// Pop `b`, replace the top `a` by `max(a - b, 0)`.
    Sub,
    /// Replace the top by itself modulo a constant.
    Mod(usize),
    /// Pop `b`, replace the top `a` by the truth of `a op b`.
    Cmp(CmpOp),
    /// Negate the truth value on top.
    Not,
    /// Push the truth of an atom.
    Test(Atom),
    /// Short-circuit: when the truth on top equals `when`, keep it and
    /// jump to `to`; otherwise pop it.
    Short { when: bool, to: usize },
    /// Pop a truth value and jump to `to` when it is false.
    JumpUnless(usize),
    /// Jump to `to` unless the atom holds (a body's `if` on a digit set).
    Unless(Atom, usize),
    /// Jump to `to`.
    Jump(usize),
    /// Pop a value and assign it to a variable.
    Store(usize),
    /// Assign a constant.
    Set(usize, usize),
    /// Assign `table[values[src]]` to `var`.
    Lookup {
        var: usize,
        src: usize,
        table: Arc<[usize]>,
    },
}

/// Runs jump code on the view; residual guards leave their truth value
/// on the stack, bodies leave it empty.
fn run(code: &[Ins], view: &mut State<'_>) {
    let mut pc = 0;
    while let Some(ins) = code.get(pc) {
        pc += 1;
        match ins {
            Ins::Const(c) => view.stack.push(*c),
            Ins::Load(var) => view.stack.push(narrow(view.values[*var])),
            Ins::Table(table) => {
                let top = top(&mut view.stack);
                *top = table[*top];
            }
            Ins::Add => {
                let b = pop(&mut view.stack);
                *top(&mut view.stack) += b;
            }
            Ins::Sub => {
                let b = pop(&mut view.stack);
                let a = top(&mut view.stack);
                *a = a.saturating_sub(b);
            }
            Ins::Mod(m) => *top(&mut view.stack) %= m,
            Ins::Cmp(op) => {
                let b = pop(&mut view.stack);
                let a = top(&mut view.stack);
                *a = usize::from(op.holds(*a, b));
            }
            Ins::Not => {
                let a = top(&mut view.stack);
                *a = usize::from(*a == 0);
            }
            Ins::Test(atom) => view.stack.push(usize::from(atom.holds(&view.values))),
            Ins::Short { when, to } => {
                if (*top(&mut view.stack) != 0) == *when {
                    pc = *to;
                } else {
                    pop(&mut view.stack);
                }
            }
            Ins::JumpUnless(to) => {
                if pop(&mut view.stack) == 0 {
                    pc = *to;
                }
            }
            Ins::Unless(atom, to) => {
                if !atom.holds(&view.values) {
                    pc = *to;
                }
            }
            Ins::Jump(to) => pc = *to,
            Ins::Store(var) => {
                let value = pop(&mut view.stack);
                view.set(VarRef(*var), value);
            }
            Ins::Set(var, value) => view.set(VarRef(*var), *value),
            Ins::Lookup { var, src, table } => {
                let value = table[narrow(view.values[*src])];
                view.set(VarRef(*var), value);
            }
        }
    }
}

fn pop(stack: &mut Vec<usize>) -> usize {
    stack.pop().expect("jump code is well formed")
}

fn top(stack: &mut [usize]) -> &mut usize {
    stack.last_mut().expect("jump code is well formed")
}

/// A command lowered for one layout.
#[derive(Debug)]
pub(super) struct LoweredCommand {
    atoms: Vec<Atom>,
    clauses: Vec<Vec<Atom>>,
    residual: Vec<Ins>,
    body: Vec<Ins>,
}

impl LoweredCommand {
    pub(super) fn new(command: &IrCommand, layout: &Layout) -> Self {
        let mut guard = Guard {
            layout,
            atoms: Vec::new(),
            clauses: Vec::new(),
            rest: Vec::new(),
            never: false,
        };
        guard.conjunct(&command.guard, false);
        let mut residual = Vec::new();
        if guard.never {
            guard.atoms.clear();
            guard.clauses.clear();
            residual.push(Ins::Const(0));
        } else {
            chain(
                &guard.rest,
                false,
                &mut residual,
                |&(cond, negated), code| {
                    lower_cond(layout, cond, code);
                    if negated {
                        code.push(Ins::Not);
                    }
                },
            );
        }
        let mut body = Vec::new();
        lower_block(layout, &command.body, &mut body);
        LoweredCommand {
            atoms: guard.atoms,
            clauses: guard.clauses,
            residual,
            body,
        }
    }

    /// Does the guard hold at the view's state? Atoms are tested first,
    /// then clauses, then the residual code, so a residual conjunct runs
    /// only where every atom and clause holds.
    #[inline]
    pub(super) fn enabled(&self, view: &mut State<'_>) -> bool {
        let values = &view.values;
        if !self.atoms.iter().all(|atom| atom.holds(values))
            || !self
                .clauses
                .iter()
                .all(|clause| clause.iter().any(|atom| atom.holds(values)))
        {
            return false;
        }
        if self.residual.is_empty() {
            return true;
        }
        run(&self.residual, view);
        pop(&mut view.stack) != 0
    }

    /// Runs the body on the view (inside the caller's effect bracket).
    #[inline]
    pub(super) fn apply(&self, view: &mut State<'_>) {
        run(&self.body, view);
    }
}

/// A guard being sorted into atoms, clauses and leftover conjuncts.
struct Guard<'a, 'c> {
    layout: &'a Layout,
    atoms: Vec<Atom>,
    clauses: Vec<Vec<Atom>>,
    rest: Vec<(&'c Cond, bool)>,
    never: bool,
}

impl<'c> Guard<'_, 'c> {
    /// Adds `cond` (negated when `negated`) as a conjunct.
    fn conjunct(&mut self, cond: &'c Cond, negated: bool) {
        if self.never {
            return;
        }
        if let Some(set) = digit_set(self.layout, cond, negated) {
            match set {
                DigitSet::Const(truth) => self.never |= !truth,
                DigitSet::Atom(atom) => self.atom(atom),
            }
            return;
        }
        match (cond, negated) {
            (Cond::Not(inner), _) => self.conjunct(inner, !negated),
            (Cond::And(parts), false) | (Cond::Or(parts), true) => {
                for part in parts {
                    self.conjunct(part, negated);
                }
            }
            (Cond::Or(parts), false) | (Cond::And(parts), true) => {
                let sets: Option<Vec<DigitSet>> = parts
                    .iter()
                    .map(|part| digit_set(self.layout, part, negated))
                    .collect();
                let Some(sets) = sets else {
                    return self.rest.push((cond, negated));
                };
                if sets.iter().any(|set| matches!(set, DigitSet::Const(true))) {
                    return;
                }
                let clause: Vec<Atom> = sets
                    .into_iter()
                    .filter_map(|set| match set {
                        DigitSet::Atom(atom) => Some(atom),
                        DigitSet::Const(_) => None,
                    })
                    .collect();
                match clause[..] {
                    [] => self.never = true,
                    [atom] => self.atom(atom),
                    _ => self.clauses.push(clause),
                }
            }
            _ => self.rest.push((cond, negated)),
        }
    }

    /// Adds an atom, intersecting it with an earlier atom on the same
    /// variable.
    fn atom(&mut self, atom: Atom) {
        match self.atoms.iter_mut().find(|a| a.var == atom.var) {
            Some(earlier) => {
                earlier.mask &= atom.mask;
                self.never |= earlier.mask == 0;
            }
            None => self.atoms.push(atom),
        }
    }
}

/// What a condition reads.
#[derive(Clone, Copy)]
enum Reads {
    Nothing,
    One(VarRef),
    Many,
}

impl Reads {
    fn add(self, var: VarRef) -> Reads {
        match self {
            Reads::Nothing => Reads::One(var),
            Reads::One(one) if one == var => self,
            _ => Reads::Many,
        }
    }
}

/// `cond` (negated when `negated`) as a digit set, when it reads at most
/// one variable, of domain at most 64, and evaluates without a panic at
/// every value of it.
fn digit_set(layout: &Layout, cond: &Cond, negated: bool) -> Option<DigitSet> {
    let mut reads = Reads::Nothing;
    cond.visit_reads(&mut |var| reads = reads.add(var));
    let var = match reads {
        Reads::Nothing => return Some(DigitSet::Const(holds_at(cond, None)? != negated)),
        Reads::One(var) => var,
        Reads::Many => return None,
    };
    let domain = layout.domains[var.index()];
    if domain > 64 {
        return None;
    }
    let full = u64::MAX >> (64 - domain);
    let mut mask = 0u64;
    for value in 0..domain {
        if holds_at(cond, Some((var, narrow(value))))? {
            mask |= 1 << value;
        }
    }
    if negated {
        mask = !mask & full;
    }
    Some(if mask == full {
        DigitSet::Const(true)
    } else if mask == 0 {
        DigitSet::Const(false)
    } else {
        DigitSet::Atom(Atom {
            var: var.index(),
            mask,
        })
    })
}

/// `expr` with the variable of `bound` set to its value, or `None` where
/// evaluating it would panic (a table index beyond the table, a zero
/// modulus, an overflowing sum) or read another variable.
fn eval_at(expr: &Expr, bound: Option<(VarRef, usize)>) -> Option<usize> {
    Some(match expr {
        Expr::Const(value) => *value,
        Expr::Var(var) => match bound {
            Some((bound, value)) if bound == *var => value,
            _ => return None,
        },
        Expr::Table { index, values } => *values.get(eval_at(index, bound)?)?,
        Expr::Add(a, b) => eval_at(a, bound)?.checked_add(eval_at(b, bound)?)?,
        Expr::Sub(a, b) => eval_at(a, bound)?.saturating_sub(eval_at(b, bound)?),
        Expr::Mod(a, modulus) => eval_at(a, bound)?.checked_rem(*modulus)?,
    })
}

/// [`eval_at`] for conditions, short-circuiting like the tree walk.
fn holds_at(cond: &Cond, bound: Option<(VarRef, usize)>) -> Option<bool> {
    Some(match cond {
        Cond::Const(truth) => *truth,
        Cond::Cmp(op, lhs, rhs) => op.holds(eval_at(lhs, bound)?, eval_at(rhs, bound)?),
        Cond::Not(inner) => !holds_at(inner, bound)?,
        Cond::And(parts) => {
            for part in parts {
                if !holds_at(part, bound)? {
                    return Some(false);
                }
            }
            true
        }
        Cond::Or(parts) => {
            for part in parts {
                if holds_at(part, bound)? {
                    return Some(true);
                }
            }
            false
        }
    })
}

/// Points the jump at `code[at]` to the end of `code`.
fn land(code: &mut [Ins], at: usize) {
    let end = code.len();
    match &mut code[at] {
        Ins::Short { to, .. } | Ins::JumpUnless(to) | Ins::Unless(_, to) | Ins::Jump(to) => {
            *to = end;
        }
        _ => unreachable!("only jumps are landed"),
    }
}

/// Jump code for the short-circuit conjunction (`when` false) or
/// disjunction (`when` true) of `items`, each lowered by `emit`.
fn chain<T>(items: &[T], when: bool, code: &mut Vec<Ins>, mut emit: impl FnMut(&T, &mut Vec<Ins>)) {
    let mut exits = Vec::new();
    for (at, item) in items.iter().enumerate() {
        if at > 0 {
            exits.push(code.len());
            code.push(Ins::Short { when, to: 0 });
        }
        emit(item, code);
    }
    for at in exits {
        land(code, at);
    }
}

/// Jump code leaving the truth of `cond` on the stack.
fn lower_cond(layout: &Layout, cond: &Cond, code: &mut Vec<Ins>) {
    match digit_set(layout, cond, false) {
        Some(DigitSet::Const(truth)) => return code.push(Ins::Const(usize::from(truth))),
        Some(DigitSet::Atom(atom)) => return code.push(Ins::Test(atom)),
        None => {}
    }
    match cond {
        Cond::Const(truth) => code.push(Ins::Const(usize::from(*truth))),
        Cond::Cmp(op, lhs, rhs) => {
            lower_expr(lhs, code);
            lower_expr(rhs, code);
            code.push(Ins::Cmp(*op));
        }
        Cond::Not(inner) => {
            lower_cond(layout, inner, code);
            code.push(Ins::Not);
        }
        Cond::And(parts) | Cond::Or(parts) => {
            let when = matches!(cond, Cond::Or(_));
            if parts.is_empty() {
                return code.push(Ins::Const(usize::from(!when)));
            }
            chain(parts, when, code, |part, code| {
                lower_cond(layout, part, code)
            });
        }
    }
}

/// Jump code pushing the value of `expr`, folded to a constant when it
/// reads no variable.
fn lower_expr(expr: &Expr, code: &mut Vec<Ins>) {
    if let Some(value) = eval_at(expr, None) {
        return code.push(Ins::Const(value));
    }
    match expr {
        Expr::Const(value) => code.push(Ins::Const(*value)),
        Expr::Var(var) => code.push(Ins::Load(var.index())),
        Expr::Table { index, values } => {
            lower_expr(index, code);
            code.push(Ins::Table(Arc::clone(values)));
        }
        Expr::Add(a, b) => {
            lower_expr(a, code);
            lower_expr(b, code);
            code.push(Ins::Add);
        }
        Expr::Sub(a, b) => {
            lower_expr(a, code);
            lower_expr(b, code);
            code.push(Ins::Sub);
        }
        Expr::Mod(a, modulus) => {
            lower_expr(a, code);
            code.push(Ins::Mod(*modulus));
        }
    }
}

/// Jump code running `stmts` in order.
fn lower_block(layout: &Layout, stmts: &[Stmt], code: &mut Vec<Ins>) {
    for stmt in stmts {
        match stmt {
            Stmt::Assign(var, Expr::Const(value)) => code.push(Ins::Set(var.index(), *value)),
            Stmt::Assign(var, Expr::Table { index, values }) if matches!(**index, Expr::Var(_)) => {
                let Expr::Var(src) = **index else {
                    unreachable!("matched by the guard")
                };
                code.push(Ins::Lookup {
                    var: var.index(),
                    src: src.index(),
                    table: Arc::clone(values),
                });
            }
            Stmt::Assign(var, expr) => {
                lower_expr(expr, code);
                code.push(Ins::Store(var.index()));
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                match digit_set(layout, cond, false) {
                    Some(DigitSet::Atom(atom)) => code.push(Ins::Unless(atom, 0)),
                    _ => {
                        lower_cond(layout, cond, code);
                        code.push(Ins::JumpUnless(0));
                    }
                }
                let branch = code.len() - 1;
                lower_block(layout, then_branch, code);
                if else_branch.is_empty() {
                    land(code, branch);
                } else {
                    let skip = code.len();
                    code.push(Ins::Jump(0));
                    land(code, branch);
                    lower_block(layout, else_branch, code);
                    land(code, skip);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::ir::{Cond, Expr, IrCommand, Stmt};
    use super::super::{GclError, Program, State, VarRef};

    /// A program over `domains` with one command per guard, each with an
    /// empty body.
    fn guards(domains: &[usize], make: impl Fn(&[VarRef]) -> Vec<Cond>) -> Program {
        let mut p = Program::new();
        let vars: Vec<VarRef> = domains
            .iter()
            .enumerate()
            .map(|(i, &d)| p.var(format!("x{i}"), d))
            .collect();
        for (i, guard) in make(&vars).into_iter().enumerate() {
            p.command_ir(IrCommand::new(format!("c{i}"), guard, vec![]));
        }
        p
    }

    /// Every lowered guard of `p` against the valuation semantics, at
    /// every state.
    fn assert_guards_match_the_valuations(p: &Program) {
        let lowered = p.lower().unwrap();
        let mut view = State::new(&lowered.layout);
        for word in 0..lowered.layout.total {
            view.load(word);
            let values: Vec<usize> = view.values.iter().map(|&v| super::narrow(v)).collect();
            for (c, command) in lowered.commands.iter().enumerate() {
                assert_eq!(
                    command.enabled(&mut view),
                    p.ir_command(c).guard_holds_values(&values),
                    "command {c} at {values:?}"
                );
            }
        }
    }

    #[test]
    fn guards_split_into_atoms_clauses_and_residual_code() {
        let p = guards(&[3, 4, 70], |v| {
            let x = |i: usize, c: usize| Expr::var(v[i]).eq(Expr::int(c));
            vec![
                // Two atoms on x0 intersect into one.
                x(0, 1).and(Expr::var(v[0]).lt(Expr::int(2))),
                // ¬(x0 = 1 ∧ x1 = 2) is a clause of two atoms.
                x(1, 3).and(x(0, 1).and(x(1, 2)).not()),
                // ¬(x0 = 0 ∨ x1 = 1) is two atoms.
                x(0, 0).or(x(1, 1)).not(),
                // Two variables in one comparison: residual code.
                Expr::var(v[0]).lt(Expr::var(v[1])),
                // A domain wider than 64: residual code.
                x(2, 65),
                // A disjunct that is no digit set keeps the whole `Or`.
                x(0, 0).or(Expr::var(v[1]).lt(Expr::var(v[0]))),
                // Contradicting atoms: never enabled.
                x(0, 1).and(x(0, 2)),
                // A table over a variable is one atom.
                Expr::var(v[1]).table(vec![1, 0, 0, 1]).eq(Expr::int(1)),
            ]
        });
        let lowered = p.lower().unwrap();
        let shape: Vec<(usize, usize, bool)> = lowered
            .commands
            .iter()
            .map(|c| (c.atoms.len(), c.clauses.len(), !c.residual.is_empty()))
            .collect();
        assert_eq!(
            shape,
            vec![
                (1, 0, false),
                (1, 1, false),
                (2, 0, false),
                (0, 0, true),
                (0, 0, true),
                (0, 0, true),
                (0, 0, true),
                (1, 0, false),
            ]
        );
        assert_eq!(lowered.commands[0].atoms[0].mask, 0b010);
        assert_guards_match_the_valuations(&p);
    }

    #[test]
    fn negated_digit_sets_complement_within_the_domain() {
        // Inside `¬(a ∧ b)` each part is complemented as a mask; over
        // domains of 1, 2, 5, 63 and 64 values the complement must keep
        // exactly the domain's values, the top one included.
        for domain in [1usize, 2, 5, 63, 64] {
            let p = guards(&[domain, 2], |v| {
                let low = Expr::var(v[0]).lt(Expr::int(domain / 2));
                let top = Expr::var(v[0]).eq(Expr::int(domain - 1));
                let y = Expr::var(v[1]).eq(Expr::int(1));
                vec![low.and(y.clone()).not(), top.and(y).not()]
            });
            let lowered = p.lower().unwrap();
            assert!(lowered.commands.iter().all(|c| c.residual.is_empty()));
            assert_guards_match_the_valuations(&p);
        }
    }

    #[test]
    fn bodies_agree_with_the_valuation_semantics() {
        let mut p = Program::new();
        let x = p.var("x", 4);
        let y = p.var("y", 5);
        let z = p.var("z", 66);
        p.command_ir(IrCommand::new(
            "mix",
            Cond::Const(true),
            vec![
                Stmt::assign(x, Expr::var(y).add(Expr::var(x)).modulo(4)),
                // Reads the x just written.
                Stmt::if_else(
                    Expr::var(x).lt(Expr::var(y)),
                    vec![Stmt::assign(
                        y,
                        Expr::var(x).add(Expr::int(1)).table(vec![4, 3, 2, 1, 0]),
                    )],
                    vec![
                        Stmt::assign(y, Expr::var(y).sub(Expr::var(x))),
                        Stmt::assign(z, Expr::var(z).add(Expr::int(1)).modulo(66)),
                    ],
                ),
                Stmt::when(
                    Expr::var(z).eq(Expr::int(65)),
                    vec![Stmt::assign(x, Expr::var(x).table(vec![3, 2, 1, 0]))],
                ),
            ],
        ));
        let compiled = p.compile(|_| true).unwrap();
        let domains = [4usize, 5, 66];
        let command = p.ir_command(0);
        for state in 0..compiled.system().num_states() {
            let mut values = compiled.decode(state);
            command.apply_values(&mut values);
            let target = values[0] + 4 * (values[1] + 5 * values[2]);
            assert_eq!(
                compiled.system().successors(state).collect::<Vec<_>>(),
                vec![target],
                "{:?} over domains {domains:?}",
                compiled.decode(state)
            );
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_table_index_out_of_range_still_panics_in_a_body() {
        let mut p = Program::new();
        let x = p.var("x", 3);
        p.command_ir(IrCommand::new(
            "short",
            Cond::Const(true),
            vec![Stmt::assign(x, Expr::var(x).table(vec![1, 0]))],
        ));
        let _ = p.compile(|_| true);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_table_index_out_of_range_still_panics_in_a_guard() {
        let mut p = Program::new();
        let x = p.var("x", 3);
        p.command_ir(IrCommand::new(
            "short",
            Expr::var(x).table(vec![1, 0]).eq(Expr::int(1)),
            vec![],
        ));
        let _ = p.compile(|_| true);
    }

    #[test]
    fn an_out_of_domain_write_still_reports_its_command() {
        let bodies = |x: VarRef| {
            vec![
                // A constant, a table lookup, jump code, and a branch.
                vec![Stmt::assign(x, Expr::int(3))],
                vec![Stmt::assign(x, Expr::var(x).table(vec![0, 5, 1]))],
                vec![Stmt::assign(x, Expr::var(x).add(Expr::int(2)))],
                vec![Stmt::when(
                    Expr::var(x).eq(Expr::int(2)),
                    vec![Stmt::assign(x, Expr::int(9))],
                )],
            ]
        };
        for index in 0..4 {
            let mut p = Program::new();
            let x = p.var("x", 3);
            let body = bodies(x).swap_remove(index);
            p.command_ir(IrCommand::new(
                format!("leak{index}"),
                Cond::Const(true),
                body,
            ));
            assert_eq!(
                p.compile(|_| true).unwrap_err(),
                GclError::OutOfDomain {
                    command: format!("leak{index}")
                }
            );
        }
    }
}
