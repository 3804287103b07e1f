//! Shared random-program generator for the differential suites.
//!
//! A [`ProgramSpec`] is a small, DSL-independent description of a
//! guarded-command program; [`build_packed`] and [`build_reference`]
//! instantiate it with identical variable order and command order in
//! the packed streaming compiler and the decode/encode oracle compiler
//! of `graybox-oracles` respectively. [`rotation_instance`] builds a
//! seeded block-rotation-symmetric IR program together with its ℤ_k
//! symmetry group, for the quotient checks.
//!
//! [`assert_self_check_matches_reference`],
//! [`assert_quotient_check_matches_full`], [`engines_agree_on_seed`] and
//! [`assert_nproc_twins_agree`] are the comparisons the differential
//! suites and the root digest test share.
//!
//! Each test binary compiles this module independently and uses a
//! different subset of it.
#![allow(dead_code)]

use graybox_core::gcl::ir::{Cond, Expr, IrCommand, Stmt};
use graybox_core::gcl::sym::{SymSelfReport, SymmetryElement, SymmetrySpec};
use graybox_core::gcl::{FairSelfReport, Program, State, VarRef};
use graybox_core::randsys::{random_subsystem, random_system};
use graybox_core::synthesis::stutter_closure;
use graybox_core::tme_abstract::program_nproc_ir;
use graybox_core::{box_compose, is_stabilizing_to, FiniteSystem};
use graybox_oracles::gcl::{Program as RefProgram, Valuation, Var};
use graybox_oracles::system::ReferenceSystem;
use graybox_oracles::tme::program_nproc_reference;
use graybox_rng::rngs::SmallRng;
use graybox_rng::{Rng, SeedableRng};

/// One guard conjunct, over variable indices into the spec's domain
/// list. The kinds cover every shape the lowering sorts guards into:
/// single-variable digit sets, `Not`/`Or` clauses of them, and
/// multi-variable residual code.
#[derive(Clone, Debug)]
pub enum Conjunct {
    LtConst(usize, usize),
    EqConst(usize, usize),
    NeVar(usize, usize),
    /// `¬(x_v = c ∧ x_w = d)`.
    NandEq(usize, usize, usize, usize),
    /// `x_v < c ∨ x_w = d`.
    LtOrEq(usize, usize, usize, usize),
    /// `¬(x_v < x_w)`.
    NotLtVar(usize, usize),
    /// `table[x_var] = value`, with one entry per value of `x_var`.
    TableEq {
        var: usize,
        table: Vec<usize>,
        value: usize,
    },
    /// `(x_a + x_b) mod modulus < bound`.
    SumModLt {
        a: usize,
        b: usize,
        modulus: usize,
        bound: usize,
    },
    /// `max(x_a - x_b, 0) ≥ bound`.
    SubGe {
        a: usize,
        b: usize,
        bound: usize,
    },
    /// `x_v = c ∨ x_a < x_b`.
    EqOrLtVar(usize, usize, usize, usize),
}

/// One statement; generated so every target stays in its domain.
/// Statements run in order, so later ones read earlier writes.
#[derive(Clone, Debug)]
pub enum Assign {
    Const(usize, usize),
    /// `dst = src`, generated only when `dom(src) <= dom(dst)`.
    Copy {
        dst: usize,
        src: usize,
    },
    /// `dst = (dst + 1) % modulus`, with `modulus = dom(dst)`.
    IncMod(usize, usize),
    /// `dst = table[x_src]`, one entry per value of `x_src`, each below
    /// `dom(dst)`.
    Lookup {
        dst: usize,
        src: usize,
        table: Vec<usize>,
    },
    /// `dst = table[(x_a + x_b) mod table.len()]`, entries below
    /// `dom(dst)`.
    LookupSum {
        dst: usize,
        a: usize,
        b: usize,
        table: Vec<usize>,
    },
    /// `dst = max(x_a - x_b, 0) mod modulus`, with `modulus = dom(dst)`.
    DiffMod {
        dst: usize,
        a: usize,
        b: usize,
        modulus: usize,
    },
    /// `if x_var = value then … else …`.
    IfEq {
        var: usize,
        value: usize,
        then_branch: Vec<Assign>,
        else_branch: Vec<Assign>,
    },
}

#[derive(Clone, Debug)]
pub struct CmdSpec {
    pub conjuncts: Vec<Conjunct>,
    pub assigns: Vec<Assign>,
}

/// A DSL-independent program description; both compilers instantiate it
/// with identical variable order and command order.
#[derive(Clone, Debug)]
pub struct ProgramSpec {
    pub domains: Vec<usize>,
    pub commands: Vec<CmdSpec>,
    /// Initial states: `x0 < init_below`.
    pub init_below: usize,
}

pub fn random_spec(seed: u64) -> ProgramSpec {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nvars = rng.gen_range(1..5usize);
    let mut domains: Vec<usize> = (0..nvars).map(|_| rng.gen_range(1..6usize)).collect();
    // Now and then one variable too wide for a 64-bit digit-set mask.
    if nvars > 1 && rng.gen_range(0..6usize) == 0 {
        domains[nvars - 1] = rng.gen_range(65..70usize);
    }
    let ncmd = rng.gen_range(0..6usize);
    let commands = (0..ncmd)
        .map(|_| {
            let conjuncts = (0..rng.gen_range(1..3usize))
                .map(|_| random_conjunct(&mut rng, &domains))
                .collect();
            let assigns = (0..rng.gen_range(1..4usize))
                .map(|_| random_assign(&mut rng, &domains, true))
                .collect();
            CmdSpec { conjuncts, assigns }
        })
        .collect();
    let init_below = rng.gen_range(1..domains[0] + 1);
    ProgramSpec {
        domains,
        commands,
        init_below,
    }
}

fn random_conjunct(rng: &mut SmallRng, domains: &[usize]) -> Conjunct {
    let nvars = domains.len();
    let v = rng.gen_range(0..nvars);
    let w = rng.gen_range(0..nvars);
    let value = |rng: &mut SmallRng, var: usize| rng.gen_range(0..domains[var]);
    match rng.gen_range(0..11usize) {
        0 | 1 => Conjunct::LtConst(v, rng.gen_range(0..domains[v] + 1)),
        2 => Conjunct::EqConst(v, value(rng, v)),
        3 => Conjunct::NeVar(v, w),
        4 => Conjunct::NandEq(v, value(rng, v), w, value(rng, w)),
        5 => Conjunct::LtOrEq(v, rng.gen_range(0..domains[v] + 1), w, value(rng, w)),
        6 => Conjunct::NotLtVar(v, w),
        7 => Conjunct::TableEq {
            var: v,
            table: (0..domains[v]).map(|_| rng.gen_range(0..3usize)).collect(),
            value: rng.gen_range(0..3usize),
        },
        8 => Conjunct::SumModLt {
            a: v,
            b: w,
            modulus: rng.gen_range(1..5usize),
            bound: rng.gen_range(0..4usize),
        },
        9 => Conjunct::SubGe {
            a: v,
            b: w,
            bound: rng.gen_range(0..3usize),
        },
        _ => {
            let a = rng.gen_range(0..nvars);
            Conjunct::EqOrLtVar(v, value(rng, v), a, w)
        }
    }
}

fn random_assign(rng: &mut SmallRng, domains: &[usize], branch: bool) -> Assign {
    let nvars = domains.len();
    let dst = rng.gen_range(0..nvars);
    let (a, b) = (rng.gen_range(0..nvars), rng.gen_range(0..nvars));
    let entries = |rng: &mut SmallRng, len: usize| -> Vec<usize> {
        (0..len).map(|_| rng.gen_range(0..domains[dst])).collect()
    };
    match rng.gen_range(0..if branch { 7 } else { 6usize }) {
        0 => Assign::Const(dst, rng.gen_range(0..domains[dst])),
        1 => {
            let fits: Vec<usize> = (0..nvars).filter(|&s| domains[s] <= domains[dst]).collect();
            Assign::Copy {
                dst,
                src: fits[rng.gen_range(0..fits.len())],
            }
        }
        2 => Assign::IncMod(dst, domains[dst]),
        3 => Assign::Lookup {
            dst,
            src: a,
            table: entries(rng, domains[a]),
        },
        4 => {
            let len = rng.gen_range(1..5usize);
            Assign::LookupSum {
                dst,
                a,
                b,
                table: entries(rng, len),
            }
        }
        5 => Assign::DiffMod {
            dst,
            a,
            b,
            modulus: domains[dst],
        },
        _ => Assign::IfEq {
            var: a,
            value: rng.gen_range(0..domains[a]),
            then_branch: (0..rng.gen_range(1..3usize))
                .map(|_| random_assign(rng, domains, false))
                .collect(),
            else_branch: (0..rng.gen_range(0..3usize))
                .map(|_| random_assign(rng, domains, false))
                .collect(),
        },
    }
}

fn conjunct_ir(conjunct: &Conjunct, vars: &[VarRef]) -> Cond {
    let x = |i: usize| Expr::var(vars[i]);
    let int = Expr::int;
    match conjunct {
        Conjunct::LtConst(v, c) => x(*v).lt(int(*c)),
        Conjunct::EqConst(v, c) => x(*v).eq(int(*c)),
        Conjunct::NeVar(v, w) => x(*v).ne(x(*w)),
        Conjunct::NandEq(v, c, w, d) => x(*v).eq(int(*c)).and(x(*w).eq(int(*d))).not(),
        Conjunct::LtOrEq(v, c, w, d) => x(*v).lt(int(*c)).or(x(*w).eq(int(*d))),
        Conjunct::NotLtVar(v, w) => x(*v).lt(x(*w)).not(),
        Conjunct::TableEq { var, table, value } => x(*var).table(table.clone()).eq(int(*value)),
        Conjunct::SumModLt {
            a,
            b,
            modulus,
            bound,
        } => x(*a).add(x(*b)).modulo(*modulus).lt(int(*bound)),
        Conjunct::SubGe { a, b, bound } => x(*a).sub(x(*b)).ge(int(*bound)),
        Conjunct::EqOrLtVar(v, c, a, b) => x(*v).eq(int(*c)).or(x(*a).lt(x(*b))),
    }
}

fn conjunct_holds(conjunct: &Conjunct, s: &Valuation, vars: &[Var]) -> bool {
    let x = |i: usize| s[vars[i]];
    match conjunct {
        Conjunct::LtConst(v, c) => x(*v) < *c,
        Conjunct::EqConst(v, c) => x(*v) == *c,
        Conjunct::NeVar(v, w) => x(*v) != x(*w),
        Conjunct::NandEq(v, c, w, d) => !(x(*v) == *c && x(*w) == *d),
        Conjunct::LtOrEq(v, c, w, d) => x(*v) < *c || x(*w) == *d,
        Conjunct::NotLtVar(v, w) => x(*v) >= x(*w),
        Conjunct::TableEq { var, table, value } => table[x(*var)] == *value,
        Conjunct::SumModLt {
            a,
            b,
            modulus,
            bound,
        } => (x(*a) + x(*b)) % modulus < *bound,
        Conjunct::SubGe { a, b, bound } => x(*a).saturating_sub(x(*b)) >= *bound,
        Conjunct::EqOrLtVar(v, c, a, b) => x(*v) == *c || x(*a) < x(*b),
    }
}

fn assign_ir(assign: &Assign, vars: &[VarRef]) -> Stmt {
    let x = |i: usize| Expr::var(vars[i]);
    match assign {
        Assign::Const(dst, c) => Stmt::assign(vars[*dst], Expr::int(*c)),
        Assign::Copy { dst, src } => Stmt::assign(vars[*dst], x(*src)),
        Assign::IncMod(dst, m) => Stmt::assign(vars[*dst], x(*dst).add(Expr::int(1)).modulo(*m)),
        Assign::Lookup { dst, src, table } => {
            Stmt::assign(vars[*dst], x(*src).table(table.clone()))
        }
        Assign::LookupSum { dst, a, b, table } => Stmt::assign(
            vars[*dst],
            x(*a).add(x(*b)).modulo(table.len()).table(table.clone()),
        ),
        Assign::DiffMod { dst, a, b, modulus } => {
            Stmt::assign(vars[*dst], x(*a).sub(x(*b)).modulo(*modulus))
        }
        Assign::IfEq {
            var,
            value,
            then_branch,
            else_branch,
        } => Stmt::if_else(
            x(*var).eq(Expr::int(*value)),
            then_branch.iter().map(|a| assign_ir(a, vars)).collect(),
            else_branch.iter().map(|a| assign_ir(a, vars)).collect(),
        ),
    }
}

fn assign_exec(assign: &Assign, s: &mut Valuation, vars: &[Var]) {
    let v = |i: usize| vars[i];
    match assign {
        Assign::Const(dst, c) => s[v(*dst)] = *c,
        Assign::Copy { dst, src } => s[v(*dst)] = s[v(*src)],
        Assign::IncMod(dst, m) => s[v(*dst)] = (s[v(*dst)] + 1) % m,
        Assign::Lookup { dst, src, table } => s[v(*dst)] = table[s[v(*src)]],
        Assign::LookupSum { dst, a, b, table } => {
            s[v(*dst)] = table[(s[v(*a)] + s[v(*b)]) % table.len()];
        }
        Assign::DiffMod { dst, a, b, modulus } => {
            s[v(*dst)] = s[v(*a)].saturating_sub(s[v(*b)]) % modulus
        }
        Assign::IfEq {
            var,
            value,
            then_branch,
            else_branch,
        } => {
            let branch = if s[v(*var)] == *value {
                then_branch
            } else {
                else_branch
            };
            for assign in branch {
                assign_exec(assign, s, vars);
            }
        }
    }
}

pub fn build_packed(spec: &ProgramSpec) -> (Program, Vec<VarRef>) {
    let mut program = Program::new();
    let vars: Vec<VarRef> = spec
        .domains
        .iter()
        .enumerate()
        .map(|(i, &d)| program.var(format!("x{i}"), d))
        .collect();
    for (ci, cmd) in spec.commands.iter().enumerate() {
        let guard = cmd
            .conjuncts
            .iter()
            .map(|conjunct| conjunct_ir(conjunct, &vars))
            .reduce(Cond::and)
            .expect("every command has a conjunct");
        let body = cmd.assigns.iter().map(|a| assign_ir(a, &vars)).collect();
        program.command_ir(IrCommand::new(format!("c{ci}"), guard, body));
    }
    (program, vars)
}

pub fn build_reference(spec: &ProgramSpec) -> (RefProgram, Vec<Var>) {
    let mut program = RefProgram::new();
    let vars: Vec<Var> = spec
        .domains
        .iter()
        .enumerate()
        .map(|(i, &d)| program.var(format!("x{i}"), d))
        .collect();
    for (ci, cmd) in spec.commands.iter().enumerate() {
        let (conjuncts, gv) = (cmd.conjuncts.clone(), vars.clone());
        let (assigns, av) = (cmd.assigns.clone(), vars.clone());
        program.command(
            format!("c{ci}"),
            move |s: &Valuation| conjuncts.iter().all(|c| conjunct_holds(c, s, &gv)),
            move |s: &mut Valuation| {
                for assign in &assigns {
                    assign_exec(assign, s, &av);
                }
            },
        );
    }
    (program, vars)
}

/// The spec's initial predicate (`x0 < init_below`) against the packed
/// pipeline. `Copy`, so one instance feeds many compile entry points.
pub fn packed_init(
    spec: &ProgramSpec,
    vars: &[VarRef],
) -> impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Copy + Sync {
    let x0 = vars[0];
    let below = spec.init_below;
    move |s: &State| s.get(x0) < below
}

/// Which block a template slot refers to: the instantiating block or
/// its clockwise neighbour `(b + 1) mod k`.
#[derive(Clone, Copy)]
enum Slot {
    Own(usize),
    Next(usize),
}

#[derive(Clone, Copy)]
enum TAtom {
    Lt(Slot, usize),
    Eq(Slot, usize),
}

#[derive(Clone, Copy)]
enum TAssign {
    Const(Slot, usize),
    IncMod(Slot),
}

struct Template {
    atoms: Vec<TAtom>,
    assigns: Vec<TAssign>,
}

/// A [`rotation_instance`]: the program, its rotation group, and the
/// layout its orbit-closed initial predicate reads.
pub struct Instance {
    pub program: Program,
    pub spec: SymmetrySpec,
    pub vars: Vec<VarRef>,
    pub blocks: usize,
    pub per_block: usize,
    pub init_below: usize,
}

/// A seeded rotation-symmetric program: `k` blocks of `v` variables,
/// `m` command templates instantiated per block, plus the ℤ_k rotation
/// group over both.
pub fn rotation_instance(seed: u64) -> Instance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let k = rng.gen_range(2..4usize);
    let v = rng.gen_range(1..3usize);
    let doms: Vec<usize> = (0..v).map(|_| rng.gen_range(2..4usize)).collect();
    let m = rng.gen_range(1..4usize);

    let slot = |rng: &mut SmallRng| {
        let i = rng.gen_range(0..v);
        if rng.gen_range(0..2usize) == 0 {
            Slot::Own(i)
        } else {
            Slot::Next(i)
        }
    };
    let templates: Vec<Template> = (0..m)
        .map(|_| {
            let atoms = (0..rng.gen_range(1..3usize))
                .map(|_| {
                    let s = slot(&mut rng);
                    let dom = doms[match s {
                        Slot::Own(i) | Slot::Next(i) => i,
                    }];
                    if rng.gen_range(0..2usize) == 0 {
                        TAtom::Lt(s, rng.gen_range(1..dom + 1))
                    } else {
                        TAtom::Eq(s, rng.gen_range(0..dom))
                    }
                })
                .collect();
            let assigns = (0..rng.gen_range(1..3usize))
                .map(|_| {
                    let s = slot(&mut rng);
                    let dom = doms[match s {
                        Slot::Own(i) | Slot::Next(i) => i,
                    }];
                    if rng.gen_range(0..2usize) == 0 {
                        TAssign::Const(s, rng.gen_range(0..dom))
                    } else {
                        TAssign::IncMod(s)
                    }
                })
                .collect();
            Template { atoms, assigns }
        })
        .collect();

    let mut program = Program::new();
    let vars: Vec<VarRef> = (0..k)
        .flat_map(|b| (0..v).map(move |i| (b, i)))
        .map(|(b, i)| program.var(format!("x{b}_{i}"), doms[i]))
        .collect();
    let at = |b: usize, i: usize| vars[b * v + i];
    let resolve = |b: usize, s: Slot| match s {
        Slot::Own(i) => (at(b, i), doms[i]),
        Slot::Next(i) => (at((b + 1) % k, i), doms[i]),
    };
    for b in 0..k {
        for (t, template) in templates.iter().enumerate() {
            let guard = template
                .atoms
                .iter()
                .map(|&atom| match atom {
                    TAtom::Lt(s, c) => Expr::var(resolve(b, s).0).lt(Expr::int(c)),
                    TAtom::Eq(s, c) => Expr::var(resolve(b, s).0).eq(Expr::int(c)),
                })
                .reduce(Cond::and)
                .unwrap();
            let body = template
                .assigns
                .iter()
                .map(|&assign| match assign {
                    TAssign::Const(s, c) => Stmt::assign(resolve(b, s).0, Expr::int(c)),
                    TAssign::IncMod(s) => {
                        let (var, dom) = resolve(b, s);
                        Stmt::assign(var, Expr::var(var).add(Expr::int(1)).modulo(dom))
                    }
                })
                .collect();
            program.command_ir(IrCommand::new(format!("t{t}_b{b}"), guard, body));
        }
    }

    let elements: Vec<SymmetryElement> = (0..k)
        .map(|r| {
            let var_perm = (0..k * v)
                .map(|at| {
                    let (b, i) = (at / v, at % v);
                    ((b + r) % k) * v + i
                })
                .collect();
            let cmd_perm = (0..k * m)
                .map(|c| {
                    let (b, t) = (c / m, c % m);
                    ((b + r) % k) * m + t
                })
                .collect();
            SymmetryElement {
                var_perm,
                value_maps: vec![None; k * v],
                cmd_perm,
            }
        })
        .collect();
    let spec = SymmetrySpec::new(&elements).unwrap();
    let init_below = rng.gen_range(1..doms[0] + 1);
    Instance {
        program,
        spec,
        vars,
        blocks: k,
        per_block: v,
        init_below,
    }
}

impl Instance {
    /// The orbit-closed initial predicate: every block's first variable
    /// below the threshold.
    pub fn init(&self) -> impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Copy + Sync + '_ {
        let below = self.init_below;
        move |s: &State| (0..self.blocks).all(|b| s.get(self.vars[b * self.per_block]) < below)
    }
}

/// The streamed fair self-check of seed `seed`'s random program at
/// `workers` against the materialized fair-composition verdict of the
/// reference compiler: the same verdict and the same number of
/// legitimate states. Returns the streamed report, or `None` for a
/// program without commands (which both fair pipelines reject).
pub fn assert_self_check_matches_reference(seed: u64, workers: usize) -> Option<FairSelfReport> {
    let spec = random_spec(seed);
    if spec.commands.is_empty() {
        return None;
    }
    let (packed, pv) = build_packed(&spec);
    let (reference, rv) = build_reference(&spec);
    let below = spec.init_below;
    let x0 = rv[0];
    let (r_fair, r_plain) = reference
        .compile_fair(move |s: &Valuation| s[x0] < below)
        .unwrap_or_else(|e| panic!("seed {seed}: reference fair {e}"));
    let spec_system = stutter_closure(&r_plain);
    let materialized = r_fair.is_stabilizing_to(&spec_system).holds();
    let streamed = packed
        .fair_self_check_on(workers, packed_init(&spec, &pv))
        .unwrap_or_else(|e| panic!("seed {seed}: self check {e}"));
    assert_eq!(
        streamed.holds(),
        materialized,
        "seed {seed}, {workers} workers: streaming self-check diverges from materialized check"
    );
    assert_eq!(
        streamed.num_legitimate(),
        spec_system.reachable_from_init().len(),
        "seed {seed}, {workers} workers: legitimate-state counts diverge"
    );
    Some(streamed)
}

/// The quotient fair self-check of `inst` at `workers` against the
/// unreduced streaming check at the same worker count: the same
/// verdict, state count and legitimate full-state count. Returns the
/// quotient report.
pub fn assert_quotient_check_matches_full(
    inst: &Instance,
    seed: u64,
    workers: usize,
) -> SymSelfReport {
    let init = inst.init();
    let full = inst.program.fair_self_check_on(workers, init).unwrap();
    let sym = inst
        .program
        .fair_self_check_sym_on(workers, &inst.spec, init)
        .unwrap();
    assert_eq!(sym.holds(), full.holds(), "seed {seed}, {workers} workers");
    assert_eq!(
        sym.num_states, full.num_states,
        "seed {seed}, {workers} workers"
    );
    assert_eq!(
        sym.num_legitimate_full,
        full.num_legitimate(),
        "seed {seed}, {workers} workers"
    );
    sym
}

/// Asserts that every query of the CSR engine and the `BTreeSet` oracle
/// agrees on `sys`.
pub fn assert_engines_agree(sys: &FiniteSystem) {
    let r = ReferenceSystem::from_system(sys);
    let n = sys.num_states();
    assert_eq!(*sys.init(), *r.init());
    assert_eq!(
        sys.edges().iter().collect::<Vec<_>>(),
        r.edges().iter().copied().collect::<Vec<_>>(),
    );
    assert_eq!(*sys.reachable_from_init(), r.reachable_from_init());
    for from in 0..n {
        assert_eq!(
            sys.successors(from).collect::<Vec<_>>(),
            r.successors(from).collect::<Vec<_>>(),
            "successors of {from}",
        );
        assert_eq!(
            sys.predecessors(from).count(),
            r.edges().iter().filter(|&&(_, to)| to == from).count(),
            "predecessor count of {from}",
        );
        for to in 0..n {
            assert_eq!(sys.has_edge(from, to), r.has_edge(from, to));
            assert_eq!(
                sys.has_path(from, to),
                r.has_path(from, to),
                "has_path({from}, {to})",
            );
        }
    }
}

/// Asserts that both engines report the same divergent edge (and the
/// same legitimate states) for "`c` is stabilizing to `a`".
pub fn assert_decisions_agree(c: &FiniteSystem, a: &FiniteSystem, tag: &str) {
    let rc = ReferenceSystem::from_system(c);
    let ra = ReferenceSystem::from_system(a);
    let fast = is_stabilizing_to(c, a);
    let slow = rc.is_stabilizing_to(&ra);
    assert_eq!(
        fast.divergent_edge, slow,
        "{tag}: CSR reported {:?}, reference reported {slow:?}",
        fast.divergent_edge,
    );
    assert_eq!(fast.legitimate_states, ra.reachable_from_init(), "{tag}");
}

/// Seed `seed`'s engine-agreement instance: a random 6-state spec and a
/// random system (even seeds) or subsystem (odd seeds), every query and
/// the stabilization decision compared across the CSR engine and the
/// `BTreeSet` oracle, and their box compositions compared too. Returns
/// the verdict, so callers can check both outcomes occur.
pub fn engines_agree_on_seed(seed: u64) -> bool {
    let mut rng = SmallRng::seed_from_u64(seed);
    let a = random_system(&mut rng, 6, 2, 0.4);
    let c = if seed.is_multiple_of(2) {
        random_system(&mut rng, 6, 2, 0.4)
    } else {
        random_subsystem(&mut rng, &a)
    };
    assert_engines_agree(&a);
    assert_engines_agree(&c);
    assert_decisions_agree(&c, &a, &format!("seed {seed}"));

    // Composition: same resulting system under both engines.
    let ra = ReferenceSystem::from_system(&a);
    let rc = ReferenceSystem::from_system(&c);
    let composed = box_compose(&c, &a).unwrap();
    assert_eq!(ReferenceSystem::from_system(&composed), rc.box_compose(&ra));

    is_stabilizing_to(&c, &a).holds()
}

/// The n-process TME model compiled by the packed pipeline (IR) and by
/// the oracle DSL: identical plain systems, fair unions, per-command
/// components and fair stabilization verdicts.
pub fn assert_nproc_twins_agree(n: usize, with_wrapper: bool) {
    let (packed, packed_init) = program_nproc_ir(n, with_wrapper);
    let (reference, reference_init) = program_nproc_reference(n, with_wrapper);
    let (fair_a, a) = packed.compile_fair(packed_init).unwrap();
    let (fair_b, b) = reference.compile_fair(reference_init).unwrap();
    assert_eq!(a.system(), &b, "wrapper={with_wrapper}");
    assert_eq!(fair_a.union(), fair_b.union(), "wrapper={with_wrapper}");
    assert_eq!(
        fair_a.components(),
        fair_b.components(),
        "wrapper={with_wrapper}"
    );
    assert_eq!(
        fair_a
            .is_stabilizing_to(&stutter_closure(a.system()))
            .holds(),
        fair_b.is_stabilizing_to(&stutter_closure(&b)).holds(),
        "wrapper={with_wrapper}"
    );
}
