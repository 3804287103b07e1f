//! The reachable-state explorer behind `compile_reachable` and its
//! symmetry quotient, checked on the n = 2 TME abstraction (a 648-state
//! domain product) with and without the wrapper: worker-invariant
//! discovery order, the full system's init-reachable states and induced
//! edges, and the canonical image of that fragment under the
//! process-relabeling symmetry. The streaming fair self-checks (full and
//! quotient) run through the same graph kernels and are checked against
//! the fair verdict of the decode/encode oracle compiler
//! (`graybox_oracles::gcl`).

use std::collections::HashMap;

use graybox::core::gcl::{Program, State, VarRef};
use graybox::core::synthesis::stutter_closure;
use graybox::core::tme_abstract::{build_n, nproc_symmetry, program_nproc_ir};
use graybox_oracles::gcl::Valuation;
use graybox_oracles::tme::program_nproc_reference;

const WORKERS: [usize; 3] = [1, 2, 4];

/// Handles for every variable of `program`, in declaration order. A
/// [`VarRef`] is a declaration index, so declaring the same number of
/// variables on a scratch program yields handles valid for `program`.
fn var_refs(program: &Program) -> Vec<VarRef> {
    let mut scratch = Program::new();
    program
        .variables()
        .map(|(name, domain)| scratch.var(name, domain))
        .collect()
}

#[test]
fn compile_reachable_matches_the_full_system_at_every_worker_count() {
    for wrapped in [false, true] {
        let (program, init) = program_nproc_ir(2, wrapped);
        assert_eq!(program.state_space().unwrap(), 648);
        let full = program.compile_on(1, &init).unwrap();
        let full = full.system();
        let reachable = full.reachable_from_init();
        let expected_edges: Vec<(usize, usize)> = full
            .edges()
            .into_iter()
            .filter(|&(from, to)| reachable.contains(from) && reachable.contains(to))
            .collect();

        let mut first: Option<Vec<u64>> = None;
        for workers in WORKERS {
            let reach = program.compile_reachable_on(workers, &init).unwrap();
            let words: Vec<u64> = (0..reach.system().num_states())
                .map(|id| reach.word(id))
                .collect();
            match &first {
                None => first = Some(words.clone()),
                Some(serial) => assert_eq!(
                    &words, serial,
                    "wrapped={wrapped}: discovery order differs at {workers} workers"
                ),
            }

            let ids: Vec<usize> = words.iter().map(|&w| usize::try_from(w).unwrap()).collect();
            let mut id_set = ids.clone();
            id_set.sort_unstable();
            assert_eq!(
                id_set,
                reachable.iter().collect::<Vec<_>>(),
                "wrapped={wrapped}: reachable set differs at {workers} workers"
            );

            let mut edges: Vec<(usize, usize)> = reach
                .system()
                .edges()
                .into_iter()
                .map(|(from, to)| (ids[from], ids[to]))
                .collect();
            edges.sort_unstable();
            assert_eq!(
                edges, expected_edges,
                "wrapped={wrapped}: edges differ at {workers} workers"
            );
        }
    }
}

/// The values of the model's one pinned init state, and the position
/// of `ord`: the one variable a process relabeling moves away from its
/// init value, so freeing it closes the init under the symmetry.
fn pinned_init(
    program: &Program,
    init: &(impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync),
) -> (Vec<usize>, usize) {
    let full = program.compile_on(1, init).unwrap();
    let init_states: Vec<usize> = full.system().init().iter().collect();
    assert_eq!(init_states.len(), 1);
    let ord = program
        .variables()
        .position(|(name, _)| name == "ord")
        .expect("the model declares ord");
    (full.decode(init_states[0]), ord)
}

#[test]
fn fair_self_checks_match_the_reference_at_every_worker_count() {
    for wrapped in [false, true] {
        let (program, init) = program_nproc_ir(2, wrapped);
        let (reference, reference_init) = program_nproc_reference(2, wrapped);
        let verdict = |init: &dyn Fn(&Valuation) -> bool| {
            let (fair, compiled) = reference.compile_fair(init).unwrap();
            fair.is_stabilizing_to(&stutter_closure(&compiled))
        };

        // The full check at 1, 2 and 4 workers (one, two and four sweep
        // chunks), from the pinned init and from every state below a
        // 4-worker chunk boundary: the SCCs those leave illegitimate lie
        // wholly past the first chunk.
        let compiled = program.compile_on(1, &init).unwrap();
        let index: HashMap<Vec<usize>, usize> = (0..compiled.system().num_states())
            .map(|state| (compiled.decode(state), state))
            .collect();
        let vars = var_refs(&program);
        for bound in [None, Some(192), Some(384), Some(576)] {
            let below = |values: &[usize]| bound.is_some_and(|bound| index[values] < bound);
            let expected = verdict(&|v: &Valuation| match bound {
                None => reference_init(v),
                Some(_) => below(v.values()),
            });
            if bound.is_none() {
                assert_eq!(expected.holds(), wrapped);
            }
            let packed_init = |s: &State<'_>| match bound {
                None => init(s),
                Some(_) => below(&vars.iter().map(|&var| s.get(var)).collect::<Vec<_>>()),
            };
            for workers in WORKERS {
                let report = program.fair_self_check_on(workers, packed_init).unwrap();
                assert_eq!(
                    report.legitimate, expected.legitimate_states,
                    "wrapped={wrapped}, below {bound:?}: legitimate set differs at {workers} workers"
                );
                assert_eq!(
                    report.divergent_witness, expected.divergent_edge,
                    "wrapped={wrapped}, below {bound:?}: witness differs at {workers} workers"
                );
            }
        }

        // The quotient check needs an orbit-closed init: the pinned one
        // with `ord` free, on both sides.
        let (init_values, ord) = pinned_init(&program, &init);
        let orbit_reference_init = |v: &Valuation| {
            v.values()
                .iter()
                .zip(&init_values)
                .enumerate()
                .all(|(index, (value, pinned))| index == ord || value == pinned)
        };
        let expected = verdict(&orbit_reference_init);
        let sym = nproc_symmetry(2, wrapped);
        let mut expected_words: Vec<u64> = expected
            .legitimate_states
            .iter()
            .map(|state| program.canonicalize(&sym, state).unwrap() as u64)
            .collect();
        expected_words.sort_unstable();
        expected_words.dedup();
        let orbit_init = |s: &State<'_>| {
            vars.iter()
                .zip(&init_values)
                .enumerate()
                .all(|(index, (&var, &pinned))| index == ord || s.get(var) == pinned)
        };
        let mut first = None;
        for workers in WORKERS {
            let report = program
                .fair_self_check_sym_on(workers, &sym, orbit_init)
                .unwrap();
            assert_eq!(report.holds(), expected.holds(), "wrapped={wrapped}");
            assert_eq!(
                report.num_legitimate_full,
                expected.legitimate_states.len(),
                "wrapped={wrapped}: legitimate count differs at {workers} workers"
            );
            let words: Vec<u64> = report
                .legitimate
                .iter()
                .map(|id| report.words[id])
                .collect();
            assert_eq!(
                words, expected_words,
                "wrapped={wrapped}: canonical legitimate set differs at {workers} workers"
            );
            match &first {
                None => first = Some(report.divergent_witness),
                Some(witness) => assert_eq!(
                    &report.divergent_witness, witness,
                    "wrapped={wrapped}: quotient witness differs at {workers} workers"
                ),
            }
        }
    }
}

#[test]
fn compile_reachable_sym_is_the_canonical_image_at_every_worker_count() {
    for wrapped in [false, true] {
        let (program, init) = program_nproc_ir(2, wrapped);
        let sym = nproc_symmetry(2, wrapped);
        sym.validate(&program).unwrap();

        let full = program.compile_on(1, &init).unwrap();
        let mut expected: Vec<u64> = full
            .system()
            .reachable_from_init()
            .iter()
            .map(|state| program.canonicalize(&sym, state).unwrap() as u64)
            .collect();
        expected.sort_unstable();
        expected.dedup();

        // The pinned init has one state; its orbit closure frees `ord`.
        let (init_values, ord) = pinned_init(&program, &init);
        let vars = var_refs(&program);
        let orbit_init = |s: &State<'_>| {
            vars.iter()
                .zip(&init_values)
                .enumerate()
                .all(|(index, (&var, &value))| index == ord || s.get(var) == value)
        };

        let mut first: Option<Vec<u64>> = None;
        for workers in WORKERS {
            let quotient = program
                .compile_reachable_sym_on(workers, &sym, orbit_init)
                .unwrap();
            let words: Vec<u64> = (0..quotient.system().num_states())
                .map(|id| quotient.word(id))
                .collect();
            match &first {
                None => first = Some(words.clone()),
                Some(serial) => assert_eq!(
                    &words, serial,
                    "wrapped={wrapped}: quotient order differs at {workers} workers"
                ),
            }
            let mut sorted = words;
            sorted.sort_unstable();
            assert_eq!(
                sorted, expected,
                "wrapped={wrapped}: quotient differs at {workers} workers"
            );
        }
    }
    // The frontier-only quotient search of the n = 3 reachable check:
    // its counts, its recovery level and, by an FNV-1a-style digest, the
    // FIFO discovery order of the legitimate words.
    let tme = build_n(3).unwrap();
    let sym = nproc_symmetry(3, true);
    for workers in WORKERS {
        let reach = tme.reachable_check_on(workers, usize::MAX).unwrap();
        assert_eq!(reach.num_canonical_legitimate, 2_358);
        assert_eq!(reach.recovery_steps, Some(3));
        let legit = tme
            .wrapped_program()
            .sym_reach_words_on(workers, &sym, &[0], usize::MAX, None::<&fn(u64) -> bool>)
            .unwrap();
        let digest = legit
            .words
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &word| {
                (h ^ word).wrapping_mul(0x0100_0000_01b3)
            });
        assert_eq!(digest, 0x75da_839e_3cf9_152e, "at {workers} workers");
    }
}
