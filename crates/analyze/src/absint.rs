//! Pass 5: abstract interpretation over mixed-radix interval domains.
//!
//! Each variable is abstracted to an interval of its finite domain.
//! Guard analysis refines the intervals to a fixpoint (conjunctions
//! narrow, disjunctions hull their satisfiable branches); body analysis
//! pushes intervals through assignments and joins `if` branches whose
//! condition is not decided. The pass reports, per command:
//!
//! - **dead**: the guard is unsatisfiable over the full domain product —
//!   the command can never fire, in any state, reachable or not;
//! - **stutter-only**: whenever the guard holds, the body provably
//!   rewrites every assigned variable to its current value — the command
//!   only adds self-loops;
//! - **out-of-domain writes**: an assignment's value interval escapes the
//!   target's domain (definitely, or possibly when only the upper end
//!   escapes or the write sits under an undecided branch);
//! - **table overruns** and **zero moduli**: partial operations whose
//!   concrete evaluation would panic.
//!
//! Everything is a may/must analysis over intervals: `dead`,
//! `stutter_only` and the `definite_*` fields are *must* facts (sound to
//! act on), the `possible_*` fields are *may* facts (sound to gate on,
//! may be imprecise).

use graybox_core::gcl::ir::{CmpOp, Cond, Expr, IrCommand, Stmt};
use graybox_core::gcl::Program;

/// A closed interval `[lo, hi]` of a variable's finite domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Least possible value.
    pub lo: usize,
    /// Greatest possible value.
    pub hi: usize,
}

impl Interval {
    /// The single value `v`.
    pub fn singleton(v: usize) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// The full domain `0..domain` (domain must be nonzero).
    pub fn full(domain: usize) -> Interval {
        assert!(domain > 0, "empty variable domain");
        Interval {
            lo: 0,
            hi: domain - 1,
        }
    }

    /// Is this a single value?
    pub fn is_singleton(self) -> bool {
        self.lo == self.hi
    }

    /// Least upper bound (interval hull).
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Intersection, or `None` when disjoint.
    pub fn meet(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }
}

/// Three-valued truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsBool {
    True,
    False,
    Unknown,
}

impl AbsBool {
    fn not(self) -> AbsBool {
        match self {
            AbsBool::True => AbsBool::False,
            AbsBool::False => AbsBool::True,
            AbsBool::Unknown => AbsBool::Unknown,
        }
    }
}

/// What the abstract interpreter concluded about one command.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommandDiagnosis {
    /// The guard is unsatisfiable: the command never fires.
    pub dead: bool,
    /// Whenever the guard holds, the body provably changes nothing.
    /// (`false` for dead commands — deadness subsumes it.)
    pub stutter_only: bool,
    /// Variables definitely assigned a value outside their domain
    /// whenever the command fires.
    pub definite_out_of_domain: Vec<usize>,
    /// Variables that may be assigned a value outside their domain.
    pub possible_out_of_domain: Vec<usize>,
    /// A table lookup's index definitely escapes the table.
    pub definite_table_overrun: bool,
    /// A table lookup's index may escape the table.
    pub possible_table_overrun: bool,
    /// The command contains `_ mod 0`, which panics when evaluated.
    pub mod_by_zero: bool,
}

impl CommandDiagnosis {
    /// Does the diagnosis carry any must-fail fact (dead command,
    /// definite out-of-domain write, definite table overrun, zero
    /// modulus)?
    pub fn has_definite_issue(&self) -> bool {
        self.dead
            || !self.definite_out_of_domain.is_empty()
            || self.definite_table_overrun
            || self.mod_by_zero
    }
}

/// Shared mutable context of one command's analysis.
struct Ctx<'a> {
    domains: &'a [usize],
    diag: CommandDiagnosis,
}

impl Ctx<'_> {
    fn record_table_overrun(&mut self, definite: bool) {
        self.diag.possible_table_overrun = true;
        if definite {
            self.diag.definite_table_overrun = true;
        }
    }

    fn record_out_of_domain(&mut self, var: usize, definite: bool) {
        let list = if definite {
            &mut self.diag.definite_out_of_domain
        } else {
            &mut self.diag.possible_out_of_domain
        };
        if !list.contains(&var) {
            list.push(var);
        }
    }
}

/// Abstract evaluation of an expression. `certain` is true when every
/// enclosing branch condition is decided — only then do flagged hazards
/// count as definite.
fn eval_expr(expr: &Expr, env: &[Interval], ctx: &mut Ctx<'_>, certain: bool) -> Interval {
    match expr {
        Expr::Const(c) => Interval::singleton(*c),
        Expr::Var(v) => env[v.index()],
        Expr::Table { index, values } => {
            let idx = eval_expr(index, env, ctx, certain);
            if values.is_empty() || idx.lo >= values.len() {
                ctx.record_table_overrun(certain);
                // Nothing to look up: fall back to the widest value the
                // (empty or fully overrun) table could have produced.
                return Interval::singleton(0);
            }
            if idx.hi >= values.len() {
                ctx.record_table_overrun(false);
            }
            let hi = idx.hi.min(values.len() - 1);
            let slice = &values[idx.lo..=hi];
            Interval {
                lo: *slice.iter().min().expect("nonempty table slice"),
                hi: *slice.iter().max().expect("nonempty table slice"),
            }
        }
        Expr::Add(a, b) => {
            let a = eval_expr(a, env, ctx, certain);
            let b = eval_expr(b, env, ctx, certain);
            Interval {
                lo: a.lo.saturating_add(b.lo),
                hi: a.hi.saturating_add(b.hi),
            }
        }
        Expr::Sub(a, b) => {
            // Truncated subtraction: max(a - b, 0), monotone in a and
            // antitone in b.
            let a = eval_expr(a, env, ctx, certain);
            let b = eval_expr(b, env, ctx, certain);
            Interval {
                lo: a.lo.saturating_sub(b.hi),
                hi: a.hi.saturating_sub(b.lo),
            }
        }
        Expr::Mod(e, m) => {
            let inner = eval_expr(e, env, ctx, certain);
            if *m == 0 {
                ctx.diag.mod_by_zero = true;
                return Interval::singleton(0);
            }
            if inner.hi < *m {
                inner
            } else {
                Interval { lo: 0, hi: m - 1 }
            }
        }
    }
}

/// Three-valued comparison of two intervals.
fn eval_cmp(op: CmpOp, a: Interval, b: Interval) -> AbsBool {
    match op {
        CmpOp::Eq => {
            if a.meet(b).is_none() {
                AbsBool::False
            } else if a.is_singleton() && b.is_singleton() {
                AbsBool::True
            } else {
                AbsBool::Unknown
            }
        }
        CmpOp::Ne => eval_cmp(CmpOp::Eq, a, b).not(),
        CmpOp::Lt => {
            if a.hi < b.lo {
                AbsBool::True
            } else if a.lo >= b.hi {
                AbsBool::False
            } else {
                AbsBool::Unknown
            }
        }
        CmpOp::Le => {
            if a.hi <= b.lo {
                AbsBool::True
            } else if a.lo > b.hi {
                AbsBool::False
            } else {
                AbsBool::Unknown
            }
        }
        CmpOp::Gt => eval_cmp(CmpOp::Le, a, b).not(),
        CmpOp::Ge => eval_cmp(CmpOp::Lt, a, b).not(),
    }
}

/// Three-valued evaluation of a condition.
fn eval_cond(cond: &Cond, env: &[Interval], ctx: &mut Ctx<'_>, certain: bool) -> AbsBool {
    match cond {
        Cond::Const(b) => {
            if *b {
                AbsBool::True
            } else {
                AbsBool::False
            }
        }
        Cond::Cmp(op, lhs, rhs) => {
            let a = eval_expr(lhs, env, ctx, certain);
            let b = eval_expr(rhs, env, ctx, certain);
            eval_cmp(*op, a, b)
        }
        Cond::Not(inner) => eval_cond(inner, env, ctx, certain).not(),
        Cond::And(parts) => {
            let mut out = AbsBool::True;
            for part in parts {
                match eval_cond(part, env, ctx, certain) {
                    AbsBool::False => return AbsBool::False,
                    AbsBool::Unknown => out = AbsBool::Unknown,
                    AbsBool::True => {}
                }
            }
            out
        }
        Cond::Or(parts) => {
            let mut out = AbsBool::False;
            for part in parts {
                match eval_cond(part, env, ctx, certain) {
                    AbsBool::True => return AbsBool::True,
                    AbsBool::Unknown => out = AbsBool::Unknown,
                    AbsBool::False => {}
                }
            }
            out
        }
    }
}

/// Swaps the sides of a comparison: `a op b  ⇔  b flip(op) a`.
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// Narrows `env[var]` under `var op rhs`. Returns `false` when the
/// constraint is unsatisfiable.
fn narrow(env: &mut [Interval], var: usize, op: CmpOp, rhs: Interval) -> bool {
    let cur = env[var];
    let new = match op {
        CmpOp::Eq => match cur.meet(rhs) {
            Some(iv) => iv,
            None => return false,
        },
        CmpOp::Ne => {
            if rhs.is_singleton() {
                let c = rhs.lo;
                if cur.is_singleton() && cur.lo == c {
                    return false;
                }
                let mut iv = cur;
                if iv.lo == c {
                    iv.lo += 1;
                }
                if iv.hi == c {
                    // c > 0 here: hi == c with lo < c (the singleton and
                    // lo-trim cases are handled above).
                    iv.hi = c - 1;
                }
                if iv.lo > iv.hi {
                    return false;
                }
                iv
            } else {
                cur
            }
        }
        CmpOp::Lt => {
            // Sound bound: var < rhs for the actual rhs value, so at
            // least var ≤ max(rhs) − 1.
            if rhs.hi == 0 {
                return false;
            }
            let hi = cur.hi.min(rhs.hi - 1);
            if cur.lo > hi {
                return false;
            }
            Interval { lo: cur.lo, hi }
        }
        CmpOp::Le => {
            let hi = cur.hi.min(rhs.hi);
            if cur.lo > hi {
                return false;
            }
            Interval { lo: cur.lo, hi }
        }
        CmpOp::Gt => {
            let lo = cur.lo.max(rhs.lo.saturating_add(1));
            if lo > cur.hi {
                return false;
            }
            Interval { lo, hi: cur.hi }
        }
        CmpOp::Ge => {
            let lo = cur.lo.max(rhs.lo);
            if lo > cur.hi {
                return false;
            }
            Interval { lo, hi: cur.hi }
        }
    };
    env[var] = new;
    true
}

/// Refines `env` under one comparison. Returns `false` when
/// unsatisfiable.
fn refine_cmp(
    op: CmpOp,
    lhs: &Expr,
    rhs: &Expr,
    env: &mut [Interval],
    ctx: &mut Ctx<'_>,
    certain: bool,
) -> bool {
    let a = eval_expr(lhs, env, ctx, certain);
    let b = eval_expr(rhs, env, ctx, certain);
    match eval_cmp(op, a, b) {
        AbsBool::False => return false,
        AbsBool::True => return true,
        AbsBool::Unknown => {}
    }
    if let Expr::Var(v) = lhs {
        if !narrow(env, v.index(), op, b) {
            return false;
        }
    }
    if let Expr::Var(v) = rhs {
        // Re-evaluate the left side against the (possibly already
        // narrowed) environment before narrowing the right.
        let a = eval_expr(lhs, env, ctx, certain);
        if !narrow(env, v.index(), flip(op), a) {
            return false;
        }
    }
    true
}

/// Refines `env` to satisfy `cond` (when `positive`) or `¬cond` (when
/// not). Returns `false` when provably unsatisfiable. Conjunctions are
/// iterated to a fixpoint; disjunctions hull their satisfiable branches.
fn refine(
    cond: &Cond,
    positive: bool,
    env: &mut Vec<Interval>,
    ctx: &mut Ctx<'_>,
    certain: bool,
) -> bool {
    match cond {
        Cond::Const(b) => *b == positive,
        Cond::Not(inner) => refine(inner, !positive, env, ctx, certain),
        Cond::Cmp(op, lhs, rhs) => {
            let op = if positive { *op } else { op.negate() };
            refine_cmp(op, lhs, rhs, env, ctx, certain)
        }
        Cond::And(parts) if positive => refine_conj(parts, true, env, ctx, certain),
        Cond::Or(parts) if !positive => refine_conj(parts, false, env, ctx, certain),
        Cond::And(parts) => refine_disj(parts, false, env, ctx, certain),
        Cond::Or(parts) => refine_disj(parts, true, env, ctx, certain),
    }
}

/// Conjunction of `parts` at polarity `positive`, iterated until the
/// environment stops narrowing (each pass only shrinks intervals, so
/// termination is guaranteed; the cap is belt-and-braces).
fn refine_conj(
    parts: &[Cond],
    positive: bool,
    env: &mut Vec<Interval>,
    ctx: &mut Ctx<'_>,
    certain: bool,
) -> bool {
    for _round in 0..64 {
        let before = env.clone();
        for part in parts {
            if !refine(part, positive, env, ctx, certain) {
                return false;
            }
        }
        if *env == before {
            return true;
        }
    }
    true
}

/// Disjunction of `parts` at polarity `positive`: satisfiable iff some
/// branch is; the environment becomes the hull of the satisfiable
/// branches. Branch analysis is never `certain` (we don't know which
/// branch holds).
fn refine_disj(
    parts: &[Cond],
    positive: bool,
    env: &mut Vec<Interval>,
    ctx: &mut Ctx<'_>,
    certain: bool,
) -> bool {
    let mut hull: Option<Vec<Interval>> = None;
    for part in parts {
        let mut branch = env.clone();
        let branch_certain = certain && parts.len() == 1;
        if refine(part, positive, &mut branch, ctx, branch_certain) {
            hull = Some(match hull {
                None => branch,
                Some(prev) => prev.iter().zip(&branch).map(|(a, b)| a.join(*b)).collect(),
            });
        }
    }
    match hull {
        Some(h) => {
            *env = h;
            true
        }
        None => false,
    }
}

/// Abstractly executes a statement block, updating `env` in place.
/// Returns `true` when the block provably changes nothing (every
/// assignment rewrites its target to the current value).
fn exec_block(stmts: &[Stmt], env: &mut Vec<Interval>, ctx: &mut Ctx<'_>, certain: bool) -> bool {
    let mut must_stutter = true;
    for stmt in stmts {
        match stmt {
            Stmt::Assign(var, expr) => {
                let value = eval_expr(expr, env, ctx, certain);
                let index = var.index();
                let domain = ctx.domains[index];
                if value.lo >= domain {
                    ctx.record_out_of_domain(index, certain);
                } else if value.hi >= domain {
                    ctx.record_out_of_domain(index, false);
                }
                let syntactic_noop = matches!(expr, Expr::Var(v) if *v == *var);
                let semantic_noop = value.is_singleton() && env[index] == value;
                if !(syntactic_noop || semantic_noop) {
                    must_stutter = false;
                }
                env[index] = value;
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => match eval_cond(cond, env, ctx, certain) {
                AbsBool::True => {
                    refine(cond, true, env, ctx, certain);
                    must_stutter &= exec_block(then_branch, env, ctx, certain);
                }
                AbsBool::False => {
                    refine(cond, false, env, ctx, certain);
                    must_stutter &= exec_block(else_branch, env, ctx, certain);
                }
                AbsBool::Unknown => {
                    let mut env_then = env.clone();
                    let mut env_else = env.clone();
                    let then_sat = refine(cond, true, &mut env_then, ctx, false);
                    let else_sat = refine(cond, false, &mut env_else, ctx, false);
                    match (then_sat, else_sat) {
                        (true, true) => {
                            let then_stutter = exec_block(then_branch, &mut env_then, ctx, false);
                            let else_stutter = exec_block(else_branch, &mut env_else, ctx, false);
                            must_stutter &= then_stutter && else_stutter;
                            *env = env_then
                                .iter()
                                .zip(&env_else)
                                .map(|(a, b)| a.join(*b))
                                .collect();
                        }
                        (true, false) => {
                            // Refinement proved the else branch
                            // impossible: the then branch always runs.
                            must_stutter &= exec_block(then_branch, &mut env_then, ctx, certain);
                            *env = env_then;
                        }
                        (false, true) => {
                            must_stutter &= exec_block(else_branch, &mut env_else, ctx, certain);
                            *env = env_else;
                        }
                        (false, false) => {
                            // Both branches contradict the environment —
                            // only possible through imprecision upstream.
                            // Leave the environment as-is (sound: a hull
                            // of nothing narrower than itself).
                        }
                    }
                }
            },
        }
    }
    must_stutter
}

/// Crate-internal hook for the WP layer's interval fast path:
/// three-valued truth of `cond` over an interval environment.
/// `Some(true)`/`Some(false)` are must-facts; `None` is "undecided".
pub(crate) fn cond_three_valued(cond: &Cond, env: &[Interval], domains: &[usize]) -> Option<bool> {
    let mut ctx = Ctx {
        domains,
        diag: CommandDiagnosis::default(),
    };
    match eval_cond(cond, env, &mut ctx, false) {
        AbsBool::True => Some(true),
        AbsBool::False => Some(false),
        AbsBool::Unknown => None,
    }
}

/// Crate-internal hook for the WP layer: refines `env` to satisfy
/// `cond` (or its negation). Returns `false` when the constraint is
/// provably unsatisfiable over the intervals.
pub(crate) fn refine_by_cond(
    cond: &Cond,
    positive: bool,
    env: &mut Vec<Interval>,
    domains: &[usize],
) -> bool {
    let mut ctx = Ctx {
        domains,
        diag: CommandDiagnosis::default(),
    };
    refine(cond, positive, env, &mut ctx, false)
}

/// Runs the abstract interpreter on one command, over the full domain
/// product (`domains[i]` is variable `i`'s domain size).
pub fn diagnose_command(command: &IrCommand, domains: &[usize]) -> CommandDiagnosis {
    let mut ctx = Ctx {
        domains,
        diag: CommandDiagnosis::default(),
    };
    let mut env: Vec<Interval> = domains.iter().map(|&d| Interval::full(d)).collect();
    if !refine(&command.guard, true, &mut env, &mut ctx, true) {
        ctx.diag.dead = true;
        return ctx.diag;
    }
    // The refinement above may have been too coarse to notice an
    // unsatisfiable guard whose contradiction needs evaluation rather
    // than narrowing (e.g. `1 < 0` buried under an Or); a final
    // three-valued evaluation catches those.
    if eval_cond(&command.guard, &env, &mut ctx, true) == AbsBool::False {
        ctx.diag.dead = true;
        return ctx.diag;
    }
    let must_stutter = exec_block(&command.body, &mut env, &mut ctx, true);
    ctx.diag.stutter_only = must_stutter;
    ctx.diag
}

/// Diagnoses every command of `program`, in declaration order.
pub fn diagnose_program(program: &Program) -> Vec<CommandDiagnosis> {
    let domains: Vec<usize> = program.variables().map(|(_, domain)| domain).collect();
    (0..program.num_commands())
        .map(|index| diagnose_command(program.ir_command(index), &domains))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graybox_core::gcl::ir::{Cond, Expr, IrCommand, Stmt};
    use graybox_core::gcl::Program;

    fn vars(domains: &[usize]) -> (Program, Vec<graybox_core::gcl::VarRef>) {
        let mut p = Program::new();
        let refs = domains
            .iter()
            .enumerate()
            .map(|(i, &d)| p.var(format!("v{i}"), d))
            .collect();
        (p, refs)
    }

    #[test]
    fn contradictory_guard_is_dead() {
        let (_, v) = vars(&[4]);
        let cmd = IrCommand::new(
            "dead",
            Expr::var(v[0])
                .eq(Expr::int(1))
                .and(Expr::var(v[0]).eq(Expr::int(2))),
            vec![Stmt::assign(v[0], Expr::int(0))],
        );
        let d = diagnose_command(&cmd, &[4]);
        assert!(d.dead);
        assert!(!d.stutter_only);
        assert!(d.definite_out_of_domain.is_empty());
    }

    #[test]
    fn guard_outside_domain_is_dead() {
        let (_, v) = vars(&[4]);
        let cmd = IrCommand::new(
            "dead",
            Expr::var(v[0]).eq(Expr::int(5)),
            vec![Stmt::assign(v[0], Expr::int(0))],
        );
        assert!(diagnose_command(&cmd, &[4]).dead);
    }

    #[test]
    fn refined_guard_makes_assignment_a_stutter() {
        let (_, v) = vars(&[4]);
        let cmd = IrCommand::new(
            "noop",
            Expr::var(v[0]).eq(Expr::int(2)),
            vec![Stmt::assign(v[0], Expr::int(2))],
        );
        let d = diagnose_command(&cmd, &[4]);
        assert!(!d.dead);
        assert!(d.stutter_only);
    }

    #[test]
    fn self_assignment_is_a_stutter() {
        let (_, v) = vars(&[4]);
        let cmd = IrCommand::new(
            "idle",
            Cond::Const(true),
            vec![Stmt::assign(v[0], Expr::var(v[0]))],
        );
        assert!(diagnose_command(&cmd, &[4]).stutter_only);
    }

    #[test]
    fn definite_and_possible_out_of_domain_writes() {
        let (_, v) = vars(&[2, 4]);
        let definite = IrCommand::new(
            "ood",
            Cond::Const(true),
            vec![Stmt::assign(v[0], Expr::int(7))],
        );
        let d = diagnose_command(&definite, &[2, 4]);
        assert_eq!(d.definite_out_of_domain, vec![0]);
        assert!(d.has_definite_issue());

        let possible = IrCommand::new(
            "maybe",
            Cond::Const(true),
            vec![Stmt::assign(v[1], Expr::var(v[1]).add(Expr::int(1)))],
        );
        let d = diagnose_command(&possible, &[2, 4]);
        assert!(d.definite_out_of_domain.is_empty());
        assert_eq!(d.possible_out_of_domain, vec![1]);
        assert!(!d.has_definite_issue());
    }

    #[test]
    fn modular_increment_stays_in_domain() {
        let (_, v) = vars(&[4]);
        let cmd = IrCommand::new(
            "inc",
            Cond::Const(true),
            vec![Stmt::assign(
                v[0],
                Expr::var(v[0]).add(Expr::int(1)).modulo(4),
            )],
        );
        let d = diagnose_command(&cmd, &[4]);
        assert!(d.possible_out_of_domain.is_empty());
        assert!(!d.stutter_only);
    }

    #[test]
    fn table_overrun_is_flagged() {
        let (_, v) = vars(&[4, 4]);
        let cmd = IrCommand::new(
            "lookup",
            Cond::Const(true),
            vec![Stmt::assign(v[1], Expr::var(v[0]).table(vec![1, 0]))],
        );
        let d = diagnose_command(&cmd, &[4, 4]);
        assert!(d.possible_table_overrun);
        assert!(!d.definite_table_overrun);

        let cmd = IrCommand::new(
            "lookup",
            Cond::Const(true),
            vec![Stmt::assign(v[1], Expr::int(3).table(vec![1, 0]))],
        );
        let d = diagnose_command(&cmd, &[4, 4]);
        assert!(d.definite_table_overrun);
    }

    #[test]
    fn guarded_table_index_is_refined_into_range() {
        let (_, v) = vars(&[4, 4]);
        let cmd = IrCommand::new(
            "lookup",
            Expr::var(v[0]).lt(Expr::int(2)),
            vec![Stmt::assign(v[1], Expr::var(v[0]).table(vec![1, 0]))],
        );
        let d = diagnose_command(&cmd, &[4, 4]);
        assert!(!d.possible_table_overrun);
    }

    #[test]
    fn mod_by_zero_is_flagged() {
        let (_, v) = vars(&[4]);
        let cmd = IrCommand::new(
            "divzero",
            Cond::Const(true),
            vec![Stmt::assign(v[0], Expr::var(v[0]).modulo(0))],
        );
        assert!(diagnose_command(&cmd, &[4]).mod_by_zero);
    }

    #[test]
    fn unknown_branches_join_and_demote_to_possible() {
        let (_, v) = vars(&[4, 2]);
        let cmd = IrCommand::new(
            "branchy",
            Cond::Const(true),
            vec![Stmt::if_else(
                Expr::var(v[0]).lt(Expr::int(2)),
                vec![Stmt::assign(v[1], Expr::int(9))],
                vec![Stmt::assign(v[1], Expr::int(0))],
            )],
        );
        let d = diagnose_command(&cmd, &[4, 2]);
        // The branch condition is undecided, so the out-of-domain write
        // is possible, not definite.
        assert!(d.definite_out_of_domain.is_empty());
        assert_eq!(d.possible_out_of_domain, vec![1]);
    }

    #[test]
    fn disjunctive_guard_hulls_branches() {
        let (_, v) = vars(&[10]);
        let cmd = IrCommand::new(
            "either",
            Expr::var(v[0])
                .eq(Expr::int(1))
                .or(Expr::var(v[0]).eq(Expr::int(3))),
            vec![Stmt::assign(v[0], Expr::int(9))],
        );
        let d = diagnose_command(&cmd, &[10]);
        assert!(!d.dead);
        // And an all-false disjunction is dead.
        let cmd = IrCommand::new(
            "neither",
            Expr::var(v[0]).eq(Expr::int(11)).or(Cond::Const(false)),
            vec![],
        );
        assert!(diagnose_command(&cmd, &[10]).dead);
    }
}
