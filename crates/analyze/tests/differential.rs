//! Differential property test of the static passes against the dynamic
//! semantics: 200 seeded random programs, each instantiated twice from
//! one spec — once as IR syntax trees and once as reference-DSL closures
//! that interpret the spec directly, so two independent interpreters
//! run it. Asserts that
//!
//! 1. the IR and reference pipelines compile to identical systems (plain
//!    and weakly fair), and
//! 2. every write the compiled system actually performs lands inside the
//!    statically inferred may-write footprint of the command that
//!    performed it (probed exhaustively, command by command).

use graybox_analyze::command_footprint;
use graybox_core::gcl::ir::{Cond, Expr, IrCommand, Stmt};
use graybox_core::gcl::reference::{Program as RefProgram, Valuation};
use graybox_core::gcl::{Program, State, VarRef};
use graybox_rng::rngs::SmallRng;
use graybox_rng::{Rng, SeedableRng};

/// One boolean atom over variable indices.
#[derive(Clone, Debug)]
enum Atom {
    EqConst(usize, usize),
    LtConst(usize, usize),
    NeVar(usize, usize),
    LeVar(usize, usize),
    /// Disjunction of two sub-atoms.
    Either(Box<Atom>, Box<Atom>),
}

/// One body action.
#[derive(Clone, Debug)]
enum Action {
    SetConst(usize, usize),
    /// `dst := src`; generated only when `dom(src) <= dom(dst)`.
    Copy {
        dst: usize,
        src: usize,
    },
    /// `dst := (dst + 1) mod dom(dst)`.
    IncMod(usize),
    /// `dst := table[src]`, `|table| = dom(src)`, entries in `dom(dst)`.
    Lookup {
        dst: usize,
        src: usize,
        table: Vec<usize>,
    },
    /// `if atom { then } else { otherwise }`, one level deep.
    Guarded {
        cond: Atom,
        then: Vec<Action>,
        otherwise: Vec<Action>,
    },
}

#[derive(Clone, Debug)]
struct CmdSpec {
    atoms: Vec<Atom>,
    actions: Vec<Action>,
}

#[derive(Clone, Debug)]
struct Spec {
    domains: Vec<usize>,
    commands: Vec<CmdSpec>,
    /// Initial states: `x0 < init_below`.
    init_below: usize,
}

fn random_atom(rng: &mut SmallRng, domains: &[usize], depth: usize) -> Atom {
    let nvars = domains.len();
    let v = rng.gen_range(0..nvars);
    match rng.gen_range(0..if depth == 0 { 5usize } else { 4 }) {
        0 => Atom::EqConst(v, rng.gen_range(0..domains[v])),
        1 => Atom::LtConst(v, rng.gen_range(0..domains[v] + 1)),
        2 => Atom::NeVar(v, rng.gen_range(0..nvars)),
        3 => Atom::LeVar(v, rng.gen_range(0..nvars)),
        _ => Atom::Either(
            Box::new(random_atom(rng, domains, depth + 1)),
            Box::new(random_atom(rng, domains, depth + 1)),
        ),
    }
}

fn random_actions(rng: &mut SmallRng, domains: &[usize], depth: usize) -> Vec<Action> {
    let nvars = domains.len();
    let count = rng.gen_range(1..3usize);
    (0..count)
        .map(|_| {
            let dst = rng.gen_range(0..nvars);
            match rng.gen_range(0..if depth == 0 { 5usize } else { 4 }) {
                0 => Action::SetConst(dst, rng.gen_range(0..domains[dst])),
                1 => {
                    let fits: Vec<usize> =
                        (0..nvars).filter(|&s| domains[s] <= domains[dst]).collect();
                    Action::Copy {
                        dst,
                        src: fits[rng.gen_range(0..fits.len())],
                    }
                }
                2 => Action::IncMod(dst),
                3 => {
                    let src = rng.gen_range(0..nvars);
                    let table = (0..domains[src])
                        .map(|_| rng.gen_range(0..domains[dst]))
                        .collect();
                    Action::Lookup { dst, src, table }
                }
                _ => Action::Guarded {
                    cond: random_atom(rng, domains, 1),
                    then: random_actions(rng, domains, depth + 1),
                    otherwise: random_actions(rng, domains, depth + 1),
                },
            }
        })
        .collect()
}

fn random_spec(seed: u64) -> Spec {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nvars = rng.gen_range(1..5usize);
    let domains: Vec<usize> = (0..nvars).map(|_| rng.gen_range(2..6usize)).collect();
    let ncmd = rng.gen_range(1..6usize);
    let commands = (0..ncmd)
        .map(|_| CmdSpec {
            atoms: (0..rng.gen_range(1..3usize))
                .map(|_| random_atom(&mut rng, &domains, 0))
                .collect(),
            actions: random_actions(&mut rng, &domains, 0),
        })
        .collect();
    let init_below = rng.gen_range(1..domains[0] + 1);
    Spec {
        domains,
        commands,
        init_below,
    }
}

// ---------------------------------------------------------------- IR side

fn atom_to_cond(atom: &Atom, vars: &[VarRef]) -> Cond {
    match atom {
        Atom::EqConst(v, c) => Expr::var(vars[*v]).eq(Expr::int(*c)),
        Atom::LtConst(v, c) => Expr::var(vars[*v]).lt(Expr::int(*c)),
        Atom::NeVar(v, w) => Expr::var(vars[*v]).ne(Expr::var(vars[*w])),
        Atom::LeVar(v, w) => Expr::var(vars[*v]).le(Expr::var(vars[*w])),
        Atom::Either(a, b) => atom_to_cond(a, vars).or(atom_to_cond(b, vars)),
    }
}

fn action_to_stmt(action: &Action, vars: &[VarRef], domains: &[usize]) -> Stmt {
    match action {
        Action::SetConst(dst, c) => Stmt::assign(vars[*dst], Expr::int(*c)),
        Action::Copy { dst, src } => Stmt::assign(vars[*dst], Expr::var(vars[*src])),
        Action::IncMod(dst) => Stmt::assign(
            vars[*dst],
            Expr::var(vars[*dst])
                .add(Expr::int(1))
                .modulo(domains[*dst]),
        ),
        Action::Lookup { dst, src, table } => {
            Stmt::assign(vars[*dst], Expr::var(vars[*src]).table(table.clone()))
        }
        Action::Guarded {
            cond,
            then,
            otherwise,
        } => Stmt::if_else(
            atom_to_cond(cond, vars),
            then.iter()
                .map(|a| action_to_stmt(a, vars, domains))
                .collect(),
            otherwise
                .iter()
                .map(|a| action_to_stmt(a, vars, domains))
                .collect(),
        ),
    }
}

fn spec_to_ir_command(spec: &Spec, index: usize, vars: &[VarRef]) -> IrCommand {
    let cmd = &spec.commands[index];
    let guard = Cond::And(cmd.atoms.iter().map(|a| atom_to_cond(a, vars)).collect());
    let body = cmd
        .actions
        .iter()
        .map(|a| action_to_stmt(a, vars, &spec.domains))
        .collect();
    IrCommand::new(format!("c{index}"), guard, body)
}

fn declare(var: &mut dyn FnMut(String, usize) -> VarRef, domains: &[usize]) -> Vec<VarRef> {
    domains
        .iter()
        .enumerate()
        .map(|(i, &d)| var(format!("x{i}"), d))
        .collect()
}

fn declare_packed(program: &mut Program, domains: &[usize]) -> Vec<VarRef> {
    declare(&mut |name, domain| program.var(name, domain), domains)
}

fn build_ir(spec: &Spec) -> Program {
    let mut program = Program::new();
    let vars = declare_packed(&mut program, &spec.domains);
    for index in 0..spec.commands.len() {
        program.command_ir(spec_to_ir_command(spec, index, &vars));
    }
    program
}

// --------------------------------------------------------- reference side

fn atom_holds(atom: &Atom, s: &Valuation, vars: &[VarRef]) -> bool {
    match atom {
        Atom::EqConst(v, c) => s[vars[*v]] == *c,
        Atom::LtConst(v, c) => s[vars[*v]] < *c,
        Atom::NeVar(v, w) => s[vars[*v]] != s[vars[*w]],
        Atom::LeVar(v, w) => s[vars[*v]] <= s[vars[*w]],
        Atom::Either(a, b) => atom_holds(a, s, vars) || atom_holds(b, s, vars),
    }
}

fn run_action(action: &Action, s: &mut Valuation, vars: &[VarRef], domains: &[usize]) {
    match action {
        Action::SetConst(dst, c) => s[vars[*dst]] = *c,
        Action::Copy { dst, src } => s[vars[*dst]] = s[vars[*src]],
        Action::IncMod(dst) => s[vars[*dst]] = (s[vars[*dst]] + 1) % domains[*dst],
        Action::Lookup { dst, src, table } => s[vars[*dst]] = table[s[vars[*src]]],
        Action::Guarded {
            cond,
            then,
            otherwise,
        } => {
            let branch = if atom_holds(cond, s, vars) {
                then
            } else {
                otherwise
            };
            for action in branch {
                run_action(action, s, vars, domains);
            }
        }
    }
}

fn build_reference(spec: &Spec) -> RefProgram {
    let mut program = RefProgram::new();
    let vars = declare(&mut |name, domain| program.var(name, domain), &spec.domains);
    for (index, cmd) in spec.commands.iter().enumerate() {
        let (g_cmd, g_vars) = (cmd.clone(), vars.clone());
        let (e_cmd, e_vars, e_domains) = (cmd.clone(), vars.clone(), spec.domains.clone());
        program.command(
            format!("c{index}"),
            move |s: &Valuation| g_cmd.atoms.iter().all(|a| atom_holds(a, s, &g_vars)),
            move |s: &mut Valuation| {
                for action in &e_cmd.actions {
                    run_action(action, s, &e_vars, &e_domains);
                }
            },
        );
    }
    program
}

// ---------------------------------------------------------------- checks

/// Decodes a flat state into mixed-radix digits, variable 0 first
/// (variable 0 is the least-significant digit of the packed word).
fn decode(mut state: usize, domains: &[usize]) -> Vec<usize> {
    domains
        .iter()
        .map(|&d| {
            let digit = state % d;
            state /= d;
            digit
        })
        .collect()
}

#[test]
fn random_programs_footprints_and_twins_agree() {
    for seed in 0..200u64 {
        let spec = random_spec(seed);
        let init_below = spec.init_below;

        // (1) The IR and reference twins compile identically.
        let ir = build_ir(&spec);
        let reference = build_reference(&spec);
        let x0 = declare_packed(&mut Program::new(), &spec.domains)[0];
        let init = move |s: &State<'_>| s.get(x0) < init_below;
        let ref_init = move |s: &Valuation| s[x0] < init_below;
        let ir_compiled = ir.compile(init).expect("ir compile");
        let ref_compiled = reference.compile(ref_init).expect("reference compile");
        assert_eq!(
            ir_compiled.system(),
            ref_compiled.system(),
            "seed {seed}: compiled systems diverge"
        );
        let (ir_fair, _) = ir.compile_fair(init).expect("ir compile_fair");
        let (ref_fair, _) = reference
            .compile_fair(ref_init)
            .expect("reference compile_fair");
        assert_eq!(
            ir_fair.union(),
            ref_fair.union(),
            "seed {seed}: fair unions diverge"
        );
        assert_eq!(
            ir_fair.components(),
            ref_fair.components(),
            "seed {seed}: fair components diverge"
        );

        // (2) Exhaustively probed writes stay inside the static
        // may-write footprint, command by command.
        for index in 0..spec.commands.len() {
            let mut single = Program::new();
            let vars = declare_packed(&mut single, &spec.domains);
            let ir_command = spec_to_ir_command(&spec, index, &vars);
            let footprint = command_footprint(&ir_command);
            single.command_ir(ir_command);
            let compiled = single.compile(|_| true).expect("single-command compile");
            let system = compiled.system();
            for state in 0..system.num_states() {
                let source = decode(state, &spec.domains);
                for target in system.successors(state) {
                    if target == state {
                        continue; // stutter (possibly a disabled skip)
                    }
                    let target_digits = decode(target, &spec.domains);
                    for (var, (a, b)) in source.iter().zip(&target_digits).enumerate() {
                        assert!(
                            a == b || footprint.writes.contains(&var),
                            "seed {seed} command {index}: dynamic write to x{var} \
                             ({a} -> {b}) outside static footprint {:?}",
                            footprint.writes
                        );
                    }
                }
            }
        }
    }
}
