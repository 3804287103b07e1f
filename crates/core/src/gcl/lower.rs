//! Lowering of [`IrCommand`]s for one packed layout.
//!
//! Every compile or check entry point lowers each command once, after it
//! has built the program's [`Layout`], into the parts the sweeps run per
//! state:
//!
//! * a **guard** split into *digit-set atoms* — a condition that reads at
//!   most one variable of domain at most 64 becomes the mask of that
//!   variable's values where it holds — then *clauses* (disjunctions of
//!   atoms, the shape `¬(a ∧ b)` and `a ∨ b` take), then *residual* jump
//!   code for any conjunct left over;
//! * a **body**, as *delta writes* when it can be added up, as jump code
//!   otherwise.
//!
//! The atoms of all commands are also folded into **candidate words**:
//! for each variable some atom reads, one word per value of it, holding
//! the commands whose atoms admit that value (in blocks of 64 commands).
//! A state's candidates are the AND of one word per such variable, so the
//! atoms are tested for every command at once and only candidates go on
//! to their clauses and residual code. [`Lowered::enabled_targets`] is
//! the one loop over the enabled commands of a state that every sweep
//! runs.
//!
//! A body is a list of delta writes when every statement writes one
//! variable a value that is a function of at most one variable (a
//! constant, `table[x]` over a table covering `x`'s domain, any
//! expression of one variable), possibly under an `if` on that same one
//! variable; when no variable is written twice and no write reads an
//! earlier write; and when every domain involved is at most 64. Each
//! write then has a table, indexed by the source value and the written
//! variable's old value, of the packed word's delta, so the target word
//! is `word + Σ delta` with no undo log, plus a mask of the source values
//! at which it leaves the domain. Every other body is jump code: a small
//! stack machine, shared with residual guards, whose writes go through
//! [`State::set`] under the undo log.
//!
//! A mask or a delta table is only formed where every value evaluates
//! without a panic; a conjunct or body that may index a table out of
//! range (or take a zero modulus, or overflow a sum) stays jump code and
//! panics where it is evaluated, as the IR semantics demand. The
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
    /// Jump to `to`.
    Jump(usize),
    /// Pop a value and assign it to a variable.
    Store(usize),
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
            Ins::Jump(to) => pc = *to,
            Ins::Store(var) => {
                let value = pop(&mut view.stack);
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

/// A program lowered for one compile or check: its layout, its commands
/// in declaration order, and their candidate words.
#[derive(Debug)]
pub(super) struct Lowered {
    pub(super) layout: Layout,
    pub(super) commands: Vec<LoweredCommand>,
    /// One bit per command, in blocks of 64.
    pub(super) all: Vec<u64>,
    /// `(var, row)` for every variable some atom reads: the words of
    /// `var = v` start at `words[(row + v) * all.len()]`.
    tested: Vec<(usize, usize)>,
    /// Candidate words: bit `c` of the word of `var = v` is set unless
    /// command `c` has an atom on `var` that `v` fails.
    words: Vec<u64>,
}

impl Lowered {
    pub(super) fn new(layout: Layout, commands: &[Arc<IrCommand>]) -> Self {
        let commands: Vec<LoweredCommand> = commands
            .iter()
            .map(|command| LoweredCommand::new(command, &layout))
            .collect();
        let mut all = vec![0u64; commands.len().div_ceil(64)];
        for index in 0..commands.len() {
            all[index / 64] |= 1 << (index % 64);
        }
        let mut vars: Vec<usize> = commands
            .iter()
            .flat_map(|command| command.atoms.iter().map(|atom| atom.var))
            .collect();
        vars.sort_unstable();
        vars.dedup();
        let mut tested = Vec::with_capacity(vars.len());
        let mut words = Vec::new();
        let mut row = 0;
        for var in vars {
            tested.push((var, row));
            for value in 0..layout.domains[var] {
                let mut word = all.clone();
                for (index, command) in commands.iter().enumerate() {
                    if command
                        .atoms
                        .iter()
                        .any(|atom| atom.var == var && (atom.mask >> value) & 1 == 0)
                    {
                        word[index / 64] &= !(1 << (index % 64));
                    }
                }
                words.extend(word);
                row += 1;
            }
        }
        Lowered {
            layout,
            commands,
            all,
            tested,
            words,
        }
    }

    /// Block `block` of the candidates at `values`: the commands whose
    /// atoms all hold there.
    #[inline]
    fn candidates(&self, values: &[u64], block: usize) -> u64 {
        let blocks = self.all.len();
        self.tested
            .iter()
            .fold(self.all[block], |candidates, &(var, row)| {
                candidates & self.words[(row + narrow(values[var])) * blocks + block]
            })
    }

    /// Calls `act(index, command, view)` for every command enabled at
    /// the view's state, in index order, and returns how many there were;
    /// stops with `Err(index)` at the first command `act` fails.
    #[inline]
    fn for_each_enabled(
        &self,
        view: &mut State<'_>,
        mut act: impl FnMut(usize, &LoweredCommand, &mut State<'_>) -> Result<(), ()>,
    ) -> Result<usize, usize> {
        let mut count = 0;
        for block in 0..self.all.len() {
            let mut candidates = self.candidates(&view.values, block);
            while candidates != 0 {
                let index = block * 64 + candidates.trailing_zeros() as usize;
                candidates &= candidates - 1;
                let command = &self.commands[index];
                if command.enabled_past_atoms(view) {
                    act(index, command, view).map_err(|()| index)?;
                    count += 1;
                }
            }
        }
        Ok(count)
    }

    /// Calls `each(index, target)` for every command enabled at the
    /// view's state, in index order, with the packed word its body leads
    /// to, and returns how many commands were enabled. Stops with
    /// `Err(index)` at the first enabled command whose body leaves a
    /// domain.
    #[inline]
    pub(super) fn enabled_targets(
        &self,
        view: &mut State<'_>,
        mut each: impl FnMut(usize, u64),
    ) -> Result<usize, usize> {
        self.for_each_enabled(view, |index, command, view| {
            each(index, command.target(view)?);
            Ok(())
        })
    }

    /// [`enabled_targets`](Self::enabled_targets) for callers that read
    /// more than the target word: `each` gets `at(values, word)` of the
    /// post-effect state, such as its canonical form, instead.
    #[inline]
    pub(super) fn enabled_targets_with<T>(
        &self,
        view: &mut State<'_>,
        mut at: impl FnMut(&[u64], u64) -> T,
        mut each: impl FnMut(usize, T),
    ) -> Result<usize, usize> {
        self.for_each_enabled(view, |index, command, view| {
            each(index, command.target_with(view, &mut at)?);
            Ok(())
        })
    }
}

/// One write of a delta body: `var` takes a value that depends on
/// `src` alone, or keeps its value.
#[derive(Debug)]
struct DeltaWrite {
    src: usize,
    var: usize,
    /// `var`'s domain: the row length of `deltas`.
    width: usize,
    /// Bit `s` is set when the write leaves `var`'s domain at source
    /// value `s`.
    leaves: u64,
    /// `deltas[s * width + old]`: what the write adds to the packed word
    /// (wrapping) at source value `s` when `var` holds `old`.
    deltas: Box<[u64]>,
    /// The value written at each source value, if any.
    written: Box<[Option<u64>]>,
}

/// A lowered body.
#[derive(Debug)]
enum Body {
    /// Writes that all read the state before the body.
    Delta(Vec<DeltaWrite>),
    /// Jump code, run under the view's undo log.
    Jump(Vec<Ins>),
}

/// A command lowered for one layout.
#[derive(Debug)]
pub(super) struct LoweredCommand {
    atoms: Vec<Atom>,
    clauses: Vec<Vec<Atom>>,
    residual: Vec<Ins>,
    body: Body,
}

impl LoweredCommand {
    fn new(command: &IrCommand, layout: &Layout) -> Self {
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
        let body = delta_body(layout, &command.body).map_or_else(
            || {
                let mut code = Vec::new();
                lower_block(layout, &command.body, &mut code);
                Body::Jump(code)
            },
            Body::Delta,
        );
        LoweredCommand {
            atoms: guard.atoms,
            clauses: guard.clauses,
            residual,
            body,
        }
    }

    /// Does the guard hold at the view's state? Atoms are tested first,
    /// then the rest, so residual code runs only where every atom holds.
    pub(super) fn enabled(&self, view: &mut State<'_>) -> bool {
        self.atoms.iter().all(|atom| atom.holds(&view.values)) && self.enabled_past_atoms(view)
    }

    /// The guard's clauses and residual code, for a state whose atoms
    /// hold.
    #[inline]
    fn enabled_past_atoms(&self, view: &mut State<'_>) -> bool {
        let values = &view.values;
        if !self
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

    /// The packed word the body leads to from the view's state, or
    /// `Err(())` if it leaves a domain.
    #[inline]
    pub(super) fn target(&self, view: &mut State<'_>) -> Result<u64, ()> {
        match &self.body {
            Body::Delta(writes) => delta_target(writes, view),
            Body::Jump(code) => {
                view.begin_effect();
                run(code, view);
                view.finish_effect()
            }
        }
    }

    /// `at(values, word)` of the state the body leads to, read on the
    /// view's buffer before it is put back, or `Err(())` (without calling
    /// `at`) if the body leaves a domain.
    #[inline]
    pub(super) fn target_with<T>(
        &self,
        view: &mut State<'_>,
        at: impl FnOnce(&[u64], u64) -> T,
    ) -> Result<T, ()> {
        match &self.body {
            Body::Delta(writes) => {
                let target = delta_target(writes, view)?;
                let word = view.word;
                for write in writes {
                    if let Some(value) = write.written[narrow(view.values[write.src])] {
                        view.undo.push((write.var, view.values[write.var]));
                        view.values[write.var] = value;
                    }
                }
                let result = at(&view.values, target);
                while let Some((var, old)) = view.undo.pop() {
                    view.values[var] = old;
                }
                view.word = word;
                Ok(result)
            }
            Body::Jump(code) => {
                view.begin_effect();
                run(code, view);
                view.finish_effect_with(at)
            }
        }
    }
}

/// The target word of a delta body at the view's state.
#[inline]
fn delta_target(writes: &[DeltaWrite], view: &State<'_>) -> Result<u64, ()> {
    let mut target = view.word;
    for write in writes {
        let source = view.values[write.src];
        if (write.leaves >> source) & 1 != 0 {
            return Err(());
        }
        let old = narrow(view.values[write.var]);
        target = target.wrapping_add(write.deltas[narrow(source) * write.width + old]);
    }
    Ok(target)
}

/// `body` as delta writes, when the module's conditions for them hold.
fn delta_body(layout: &Layout, body: &[Stmt]) -> Option<Vec<DeltaWrite>> {
    let mut writes: Vec<DeltaWrite> = Vec::with_capacity(body.len());
    for stmt in body {
        let (var, cond, expr) = match stmt {
            Stmt::Assign(var, expr) => (*var, None, expr),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => match (&then_branch[..], &else_branch[..]) {
                ([Stmt::Assign(var, expr)], []) => (*var, Some(cond), expr),
                _ => return None,
            },
        };
        let mut reads = Reads::Nothing;
        expr.visit_reads(&mut |read| reads = reads.add(read));
        if let Some(cond) = cond {
            cond.visit_reads(&mut |read| reads = reads.add(read));
        }
        let src = match reads {
            Reads::Nothing => var,
            Reads::One(src) => src,
            Reads::Many => return None,
        };
        if writes
            .iter()
            .any(|earlier| earlier.var == var.index() || earlier.var == src.index())
        {
            return None;
        }
        let (sources, width) = (layout.domains[src.index()], layout.domains[var.index()]);
        if sources > 64 || width > 64 {
            return None;
        }
        let stride = layout.strides[var.index()];
        let mut leaves = 0u64;
        let mut deltas = vec![0u64; narrow(sources * width)];
        let mut written = vec![None; narrow(sources)];
        for source in 0..sources {
            let bound = Some((src, narrow(source)));
            if let Some(cond) = cond {
                if !holds_at(cond, bound)? {
                    continue;
                }
            }
            let value = eval_at(expr, bound)? as u64;
            written[narrow(source)] = Some(value);
            if value >= width {
                leaves |= 1 << source;
                continue;
            }
            for old in 0..width {
                deltas[narrow(source * width + old)] = value.wrapping_sub(old).wrapping_mul(stride);
            }
        }
        writes.push(DeltaWrite {
            src: src.index(),
            var: var.index(),
            width: narrow(width),
            leaves,
            deltas: deltas.into(),
            written: written.into(),
        });
    }
    Some(writes)
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
        Ins::Short { to, .. } | Ins::JumpUnless(to) | Ins::Jump(to) => {
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
            Stmt::Assign(var, expr) => {
                lower_expr(expr, code);
                code.push(Ins::Store(var.index()));
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                lower_cond(layout, cond, code);
                let branch = code.len();
                code.push(Ins::JumpUnless(0));
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
    use graybox_rng::rngs::SmallRng;
    use graybox_rng::{Rng, SeedableRng};

    use super::super::ir::{Cond, Expr, IrCommand, Stmt};
    use super::super::{narrow, GclError, Program, State, VarRef};
    use super::Body;

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

    /// The valuation semantics of a body, stopping with `Err` at its
    /// first write outside `domains` (the write the compiler reports).
    fn exec_checked(stmts: &[Stmt], values: &mut [usize], domains: &[usize]) -> Result<(), ()> {
        for stmt in stmts {
            match stmt {
                Stmt::Assign(var, expr) => {
                    let value = expr.eval_values(values);
                    if value >= domains[var.index()] {
                        return Err(());
                    }
                    values[var.index()] = value;
                }
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
                    exec_checked(branch, values, domains)?;
                }
            }
        }
        Ok(())
    }

    /// The lowering of `p` against the valuation semantics, at every
    /// state: a command is enabled exactly when its guard holds, and
    /// exactly when its candidate bit is set and it is enabled past its
    /// atoms; [`Lowered::enabled_targets`](super::Lowered::enabled_targets)
    /// and its `_with` form yield every enabled command's target (and
    /// post-effect values) in index order, stopping at the first that
    /// leaves a domain, and leave the view as they found it.
    fn assert_lowering_matches_the_valuations(p: &Program) {
        let lowered = p.lower().unwrap();
        let domains: Vec<usize> = p.variables().map(|(_, domain)| domain).collect();
        let encode = |values: &[usize]| -> u64 {
            values
                .iter()
                .zip(&lowered.layout.strides)
                .map(|(&value, &stride)| value as u64 * stride)
                .sum()
        };
        let mut view = State::new(&lowered.layout);
        for word in 0..lowered.layout.total {
            view.load(word);
            let values: Vec<usize> = view.values.iter().map(|&v| narrow(v)).collect();
            let mut expected = Vec::new();
            let mut leaves = None;
            for (c, command) in lowered.commands.iter().enumerate() {
                let ir = p.ir_command(c);
                let holds = ir.guard_holds_values(&values);
                let candidate = (lowered.candidates(&view.values, c / 64) >> (c % 64)) & 1 != 0;
                assert_eq!(command.enabled(&mut view), holds, "{c} at {values:?}");
                assert_eq!(
                    candidate && command.enabled_past_atoms(&mut view),
                    holds,
                    "{c} at {values:?}"
                );
                if holds && leaves.is_none() {
                    let mut next = values.clone();
                    match exec_checked(&ir.body, &mut next, &domains) {
                        Ok(()) => expected.push((c, next)),
                        Err(()) => leaves = Some(c),
                    }
                }
            }
            let outcome = leaves.map_or(Ok(expected.len()), Err);
            let mut targets = Vec::new();
            let result = lowered.enabled_targets(&mut view, |c, target| targets.push((c, target)));
            assert_eq!(result, outcome, "at {values:?}");
            let words: Vec<(usize, u64)> = expected
                .iter()
                .map(|(c, next)| (*c, encode(next)))
                .collect();
            assert_eq!(targets, words, "at {values:?}");
            let mut states = Vec::new();
            let result = lowered.enabled_targets_with(
                &mut view,
                |values, word| {
                    let values: Vec<usize> = values.iter().map(|&v| narrow(v)).collect();
                    assert_eq!(word, encode(&values));
                    values
                },
                |c, values| states.push((c, values)),
            );
            assert_eq!(result, outcome, "at {values:?}");
            assert_eq!(states, expected, "at {values:?}");
            assert_eq!(view.word, word);
            assert_eq!(
                view.values.iter().map(|&v| narrow(v)).collect::<Vec<_>>(),
                values
            );
        }
    }

    /// The number of delta and jump-code bodies of `p`.
    fn body_kinds(p: &Program) -> (usize, usize) {
        let lowered = p.lower().unwrap();
        let delta = lowered
            .commands
            .iter()
            .filter(|command| matches!(command.body, Body::Delta(_)))
            .count();
        (delta, lowered.commands.len() - delta)
    }

    /// A random condition over `vars`, in one of the shapes the lowering
    /// sorts into atoms, clauses and residual code.
    fn random_cond(rng: &mut SmallRng, vars: &[VarRef], domains: &[usize]) -> Cond {
        let pick = |rng: &mut SmallRng| rng.gen_range(0..vars.len());
        let (v, w) = (pick(rng), pick(rng));
        let x = |i: usize| Expr::var(vars[i]);
        let value = |rng: &mut SmallRng, i: usize| Expr::int(rng.gen_range(0..domains[i]));
        match rng.gen_range(0..6usize) {
            0 => x(v).eq(value(rng, v)),
            1 => x(v).lt(Expr::int(rng.gen_range(0..=domains[v]))),
            2 => x(v).eq(value(rng, v)).and(x(w).eq(value(rng, w))).not(),
            3 => x(v).lt(x(w)),
            4 => {
                let table: Vec<usize> = (0..domains[v]).map(|_| rng.gen_range(0..2)).collect();
                x(v).table(table).eq(Expr::int(1))
            }
            _ => x(v).eq(value(rng, v)).or(x(w).lt(x(pick(rng)))),
        }
    }

    /// A random statement over `vars`: constants, full-table lookups,
    /// copies, single-variable arithmetic, two-variable sums and guarded
    /// writes; one value in eight it writes is just past its domain.
    fn random_stmt(rng: &mut SmallRng, vars: &[VarRef], domains: &[usize]) -> Stmt {
        let pick = |rng: &mut SmallRng| rng.gen_range(0..vars.len());
        let (dst, a, b) = (pick(rng), pick(rng), pick(rng));
        let x = |i: usize| Expr::var(vars[i]);
        let value = |rng: &mut SmallRng| {
            if rng.gen_range(0..8usize) == 0 {
                domains[dst]
            } else {
                rng.gen_range(0..domains[dst])
            }
        };
        let expr = match rng.gen_range(0..7usize) {
            0 => Expr::int(value(rng)),
            1 => x(a).table((0..domains[a]).map(|_| value(rng)).collect::<Vec<_>>()),
            2 => x(a),
            3 => x(dst).add(Expr::int(1)).modulo(domains[dst]),
            4 => x(a).add(x(b)).modulo(domains[dst]),
            5 => {
                let cond = x(a).eq(Expr::int(rng.gen_range(0..domains[a])));
                return Stmt::when(cond, vec![Stmt::assign(vars[dst], Expr::int(value(rng)))]);
            }
            _ => {
                let cond = x(a).lt(x(b));
                let then_branch = vec![Stmt::assign(vars[dst], Expr::int(value(rng)))];
                let else_branch = vec![Stmt::assign(vars[dst], x(a))];
                return Stmt::if_else(cond, then_branch, else_branch);
            }
        };
        Stmt::assign(vars[dst], expr)
    }

    /// A random program with `commands` commands over up to four
    /// variables of 1..6 values, now and then one of 65..69 values.
    fn random_program(seed: u64, commands: usize) -> Program {
        let mut rng = SmallRng::seed_from_u64(seed);
        let nvars = rng.gen_range(1..5usize);
        let mut domains: Vec<usize> = (0..nvars).map(|_| rng.gen_range(1..6usize)).collect();
        if nvars > 1 && rng.gen_range(0..4usize) == 0 {
            domains[nvars - 1] = rng.gen_range(65..70usize);
        }
        let mut p = Program::new();
        let vars: Vec<VarRef> = domains
            .iter()
            .enumerate()
            .map(|(i, &d)| p.var(format!("x{i}"), d))
            .collect();
        for c in 0..commands {
            let guard = (0..rng.gen_range(1..3usize))
                .map(|_| random_cond(&mut rng, &vars, &domains))
                .reduce(Cond::and)
                .expect("at least one conjunct");
            let body = (0..rng.gen_range(0..4usize))
                .map(|_| random_stmt(&mut rng, &vars, &domains))
                .collect();
            p.command_ir(IrCommand::new(format!("c{c}"), guard, body));
        }
        p
    }

    #[test]
    fn random_programs_lower_to_their_valuation_semantics() {
        let (mut delta, mut jump) = (0, 0);
        for seed in 0..200u64 {
            let p = random_program(seed, (seed % 8) as usize);
            assert_lowering_matches_the_valuations(&p);
            let (d, j) = body_kinds(&p);
            delta += d;
            jump += j;
        }
        assert!(
            delta > 100 && jump > 100,
            "{delta} delta, {jump} jump-code bodies"
        );
    }

    #[test]
    fn more_than_64_commands_take_more_candidate_words() {
        for seed in 0..4u64 {
            let p = random_program(1_000 + seed, 130);
            assert_eq!(p.lower().unwrap().all.len(), 3);
            assert_lowering_matches_the_valuations(&p);
        }
    }

    #[test]
    fn read_after_write_and_double_writes_stay_jump_code() {
        let mut p = Program::new();
        let x = p.var("x", 3);
        let y = p.var("y", 4);
        let bodies = vec![
            // Reads the x just written.
            vec![Stmt::assign(x, Expr::int(1)), Stmt::assign(y, Expr::var(x))],
            // Guards a write on the x just written.
            vec![
                Stmt::assign(x, Expr::int(2)),
                Stmt::when(
                    Expr::var(x).eq(Expr::int(2)),
                    vec![Stmt::assign(y, Expr::int(3))],
                ),
            ],
            // Writes x twice.
            vec![Stmt::assign(x, Expr::int(1)), Stmt::assign(x, Expr::int(2))],
            // A value of two variables.
            vec![Stmt::assign(x, Expr::var(x).add(Expr::var(y)).modulo(3))],
            // Both writes read x before it is written: delta.
            vec![
                Stmt::assign(y, Expr::var(x)),
                Stmt::assign(x, Expr::var(x).table(vec![2, 0, 1])),
            ],
            // A guarded write of the guard's own variable: delta.
            vec![Stmt::when(
                Expr::var(y).lt(Expr::int(2)),
                vec![Stmt::assign(y, Expr::var(y).add(Expr::int(2)))],
            )],
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            p.command_ir(IrCommand::new(format!("c{i}"), Cond::Const(true), body));
        }
        let lowered = p.lower().unwrap();
        let delta: Vec<bool> = lowered
            .commands
            .iter()
            .map(|command| matches!(command.body, Body::Delta(_)))
            .collect();
        assert_eq!(delta, [false, false, false, false, true, true]);
        assert_lowering_matches_the_valuations(&p);
    }

    #[test]
    fn every_tme_body_is_a_delta_body() {
        for n in [2, 3, 4] {
            for with_wrapper in [false, true] {
                let (p, _) = crate::tme_abstract::program_nproc_ir(n, with_wrapper);
                assert_eq!(body_kinds(&p), (p.num_commands(), 0), "n = {n}");
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
        assert_lowering_matches_the_valuations(&p);
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
            assert_lowering_matches_the_valuations(&p);
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
        let lowered = p.lower().unwrap();
        assert!(matches!(lowered.commands[0].body, Body::Jump(_)));
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
