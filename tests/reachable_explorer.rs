//! The reachable-state explorer behind `compile_reachable` and its
//! symmetry quotient, checked on the n = 2 TME abstraction (a 648-state
//! domain product) with and without the wrapper: worker-invariant
//! discovery order, the full system's init-reachable states and induced
//! edges, and the canonical image of that fragment under the
//! process-relabeling symmetry.

use graybox::core::gcl::{Program, State, VarRef};
use graybox::core::tme_abstract::{nproc_symmetry, program_nproc_ir};

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

        // The pinned init has one state; its orbit closure frees `ord`,
        // the one variable a relabeling moves away from its init value.
        let init_states: Vec<usize> = full.system().init().iter().collect();
        assert_eq!(init_states.len(), 1);
        let init_values = full.decode(init_states[0]);
        let ord = program
            .variables()
            .position(|(name, _)| name == "ord")
            .expect("the model declares ord");
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
}
