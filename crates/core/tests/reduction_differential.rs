//! Differential suite for the state-space reduction: on hundreds of
//! seeded random **block-rotation-symmetric** IR programs, the symmetry
//! quotient must agree with the unreduced pipeline on every verdict the
//! checks expose — stabilization (fair self-check), weak reachability,
//! and the quiescent-deadlock set.
//!
//! The generator builds `k ∈ {2,3}` identical variable blocks and
//! instantiates every command template once per block (guards and
//! assignments refer to the block's own variables and its clockwise
//! neighbour's), so the ℤ_k rotation group is a symmetry *by
//! construction* — `SymmetrySpec::validate` re-derives that
//! independently for every seed.

use graybox_core::gcl::ir::{Cond, Expr, IrCommand, Stmt};
use graybox_core::gcl::sym::{SymmetryElement, SymmetrySpec};
use graybox_core::gcl::{Program, ReachableProgram, State, VarRef};
use graybox_rng::rngs::SmallRng;
use graybox_rng::{Rng, SeedableRng};

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

struct Instance {
    program: Program,
    spec: SymmetrySpec,
    vars: Vec<VarRef>,
    blocks: usize,
    per_block: usize,
    init_below: usize,
}

/// A seeded rotation-symmetric program: `k` blocks of `v` variables,
/// `m` command templates instantiated per block, plus the ℤ_k rotation
/// group over both.
fn rotation_instance(seed: u64) -> Instance {
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
    fn init(&self) -> impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Copy + Sync + '_ {
        let below = self.init_below;
        move |s: &State| (0..self.blocks).all(|b| s.get(self.vars[b * self.per_block]) < below)
    }
}

fn words_of(compiled: &ReachableProgram) -> Vec<u64> {
    let mut words: Vec<u64> = (0..compiled.system().num_states())
        .map(|id| compiled.word(id))
        .collect();
    words.sort_unstable();
    words
}

/// Quiescent (deadlocked-or-silent) members of a word set.
fn quiescent(program: &Program, words: &[u64]) -> Vec<u64> {
    words
        .iter()
        .copied()
        .filter(|&w| {
            let state = usize::try_from(w).unwrap();
            program.step(state).unwrap() == vec![state]
        })
        .collect()
}

#[test]
fn symmetry_quotient_matches_the_full_pipeline_on_200_seeds() {
    for seed in 0..200u64 {
        let inst = rotation_instance(seed);
        inst.spec
            .validate(&inst.program)
            .unwrap_or_else(|e| panic!("seed {seed}: spec rejected: {e}"));
        let init = inst.init();

        // Stabilization verdict: the quotient fair self-check must agree
        // with the unreduced streaming check bit for bit.
        let full = inst.program.fair_self_check(init).unwrap();
        let sym = inst.program.fair_self_check_sym(&inst.spec, init).unwrap();
        assert_eq!(sym.holds(), full.holds(), "seed {seed}");
        assert_eq!(sym.num_states, full.num_states, "seed {seed}");
        assert_eq!(
            sym.num_legitimate_full,
            full.num_legitimate(),
            "seed {seed}"
        );

        // Weak reachability: the quotient reachable fragment is exactly
        // the canonical image of the full reachable fragment.
        let full_reach = inst.program.compile_reachable(init).unwrap();
        let sym_reach = inst
            .program
            .compile_reachable_sym(&inst.spec, init)
            .unwrap();
        let mut canon_full: Vec<u64> = (0..full_reach.system().num_states())
            .map(|id| {
                let word = usize::try_from(full_reach.word(id)).unwrap();
                inst.program.canonicalize(&inst.spec, word).unwrap() as u64
            })
            .collect();
        canon_full.sort_unstable();
        canon_full.dedup();
        let sym_words = words_of(&sym_reach);
        assert_eq!(canon_full, sym_words, "seed {seed}");

        // Canonical quiescent states agree (quiescence is
        // orbit-invariant, so comparing canonical forms covers every
        // full-space deadlock).
        let mut canon_full_quiescent: Vec<u64> = quiescent(&inst.program, &words_of(&full_reach))
            .into_iter()
            .map(|w| {
                let word = usize::try_from(w).unwrap();
                inst.program.canonicalize(&inst.spec, word).unwrap() as u64
            })
            .collect();
        canon_full_quiescent.sort_unstable();
        canon_full_quiescent.dedup();
        assert_eq!(
            canon_full_quiescent,
            quiescent(&inst.program, &sym_words),
            "seed {seed}"
        );
    }
}

#[test]
fn reduced_explorations_are_bit_deterministic_across_worker_counts() {
    for seed in [0u64, 7, 13, 42, 99, 123, 177] {
        let inst = rotation_instance(seed);
        let init = inst.init();

        let serial_sym = inst
            .program
            .fair_self_check_sym_on(1, &inst.spec, init)
            .unwrap();
        let serial_reach = inst
            .program
            .compile_reachable_sym_on(1, &inst.spec, init)
            .unwrap();
        let serial_words: Vec<u64> = (0..serial_reach.system().num_states())
            .map(|id| serial_reach.word(id))
            .collect();
        for workers in [2usize, 3, 4] {
            let par = inst
                .program
                .fair_self_check_sym_on(workers, &inst.spec, init)
                .unwrap();
            assert_eq!(par.words, serial_sym.words, "seed {seed} w{workers}");
            assert_eq!(
                par.num_legitimate_full, serial_sym.num_legitimate_full,
                "seed {seed} w{workers}"
            );
            assert_eq!(
                par.divergent_witness, serial_sym.divergent_witness,
                "seed {seed} w{workers}"
            );
            let par_reach = inst
                .program
                .compile_reachable_sym_on(workers, &inst.spec, init)
                .unwrap();
            let par_words: Vec<u64> = (0..par_reach.system().num_states())
                .map(|id| par_reach.word(id))
                .collect();
            assert_eq!(par_words, serial_words, "seed {seed} w{workers}");
        }
    }
}
