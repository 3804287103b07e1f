//! Shared random-program generator for the differential suites.
//!
//! A [`ProgramSpec`] is a small, DSL-independent description of a
//! guarded-command program; [`build_packed`] and [`build_reference`]
//! instantiate it with identical variable order and command order in
//! the packed streaming compiler and the retained decode/encode
//! reference compiler respectively. [`rotation_instance`] builds a
//! seeded block-rotation-symmetric IR program together with its ℤ_k
//! symmetry group, for the quotient checks.
//!
//! [`assert_self_check_matches_reference`] and
//! [`assert_quotient_check_matches_full`] are the verdict comparisons
//! the differential suites and the root digest test share.
//!
//! Each test binary compiles this module independently and uses a
//! different subset of it.
#![allow(dead_code)]

use graybox_core::gcl::ir::{Cond, Expr, IrCommand, Stmt};
use graybox_core::gcl::reference::{Program as RefProgram, Valuation};
use graybox_core::gcl::sym::{SymSelfReport, SymmetryElement, SymmetrySpec};
use graybox_core::gcl::{FairSelfReport, Program, State, VarRef};
use graybox_core::synthesis::stutter_closure;
use graybox_rng::rngs::SmallRng;
use graybox_rng::{Rng, SeedableRng};

/// One guard conjunct, over variable indices into the spec's domain list.
#[derive(Clone, Debug)]
pub enum Atom {
    LtConst(usize, usize),
    EqConst(usize, usize),
    NeVar(usize, usize),
}

/// One assignment; generated so the target always stays in its domain.
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
}

#[derive(Clone, Debug)]
pub struct CmdSpec {
    pub atoms: Vec<Atom>,
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
    let domains: Vec<usize> = (0..nvars).map(|_| rng.gen_range(1..6usize)).collect();
    let ncmd = rng.gen_range(0..6usize);
    let commands = (0..ncmd)
        .map(|_| {
            let atoms = (0..rng.gen_range(1..3usize))
                .map(|_| {
                    let v = rng.gen_range(0..nvars);
                    match rng.gen_range(0..3usize) {
                        0 => Atom::LtConst(v, rng.gen_range(0..domains[v] + 1)),
                        1 => Atom::EqConst(v, rng.gen_range(0..domains[v])),
                        _ => Atom::NeVar(v, rng.gen_range(0..nvars)),
                    }
                })
                .collect();
            let assigns = (0..rng.gen_range(1..3usize))
                .map(|_| {
                    let dst = rng.gen_range(0..nvars);
                    match rng.gen_range(0..3usize) {
                        0 => Assign::Const(dst, rng.gen_range(0..domains[dst])),
                        1 => {
                            let fits: Vec<usize> =
                                (0..nvars).filter(|&s| domains[s] <= domains[dst]).collect();
                            Assign::Copy {
                                dst,
                                src: fits[rng.gen_range(0..fits.len())],
                            }
                        }
                        _ => Assign::IncMod(dst, domains[dst]),
                    }
                })
                .collect();
            CmdSpec { atoms, assigns }
        })
        .collect();
    let init_below = rng.gen_range(1..domains[0] + 1);
    ProgramSpec {
        domains,
        commands,
        init_below,
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
        let (atoms, gv) = (cmd.atoms.clone(), vars.clone());
        let (assigns, av) = (cmd.assigns.clone(), vars.clone());
        program.command(
            format!("c{ci}"),
            move |s: &State| {
                atoms.iter().all(|atom| match *atom {
                    Atom::LtConst(v, c) => s.get(gv[v]) < c,
                    Atom::EqConst(v, c) => s.get(gv[v]) == c,
                    Atom::NeVar(v, w) => s.get(gv[v]) != s.get(gv[w]),
                })
            },
            move |s: &mut State| {
                for assign in &assigns {
                    match *assign {
                        Assign::Const(dst, c) => s.set(av[dst], c),
                        Assign::Copy { dst, src } => s.set(av[dst], s.get(av[src])),
                        Assign::IncMod(dst, m) => s.set(av[dst], (s.get(av[dst]) + 1) % m),
                    }
                }
            },
        );
    }
    (program, vars)
}

pub fn build_reference(spec: &ProgramSpec) -> (RefProgram, Vec<VarRef>) {
    let mut program = RefProgram::new();
    let vars: Vec<VarRef> = spec
        .domains
        .iter()
        .enumerate()
        .map(|(i, &d)| program.var(format!("x{i}"), d))
        .collect();
    for (ci, cmd) in spec.commands.iter().enumerate() {
        let (atoms, gv) = (cmd.atoms.clone(), vars.clone());
        let (assigns, av) = (cmd.assigns.clone(), vars.clone());
        program.command(
            format!("c{ci}"),
            move |s: &Valuation| {
                atoms.iter().all(|atom| match *atom {
                    Atom::LtConst(v, c) => s[gv[v]] < c,
                    Atom::EqConst(v, c) => s[gv[v]] == c,
                    Atom::NeVar(v, w) => s[gv[v]] != s[gv[w]],
                })
            },
            move |s: &mut Valuation| {
                for assign in &assigns {
                    match *assign {
                        Assign::Const(dst, c) => s[av[dst]] = c,
                        Assign::Copy { dst, src } => s[av[dst]] = s[av[src]],
                        Assign::IncMod(dst, m) => s[av[dst]] = (s[av[dst]] + 1) % m,
                    }
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
    let spec_system = stutter_closure(r_plain.system());
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
