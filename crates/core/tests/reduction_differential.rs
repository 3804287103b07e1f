//! Differential suite for the state-space reduction: on hundreds of
//! seeded random **block-rotation-symmetric** IR programs, the symmetry
//! quotient must agree with the unreduced pipeline on every verdict the
//! checks expose — stabilization (fair self-check), weak reachability,
//! and the quiescent-deadlock set.
//!
//! The generator (`common::rotation_instance`) builds `k ∈ {2,3}`
//! identical variable blocks and instantiates every command template
//! once per block (guards and assignments refer to the block's own
//! variables and its clockwise neighbour's), so the ℤ_k rotation group
//! is a symmetry *by construction* — `SymmetrySpec::validate`
//! re-derives that independently for every seed.

mod common;

use common::{assert_quotient_check_matches_full, rotation_instance};
use graybox_core::gcl::{Program, ReachableProgram};

fn words_of(compiled: &ReachableProgram) -> Vec<u64> {
    let mut words: Vec<u64> = (0..compiled.system().num_states())
        .map(|id| compiled.word(id))
        .collect();
    words.sort_unstable();
    words
}

/// Quiescent (deadlocked-or-silent) members of a word set.
fn quiescent(program: &Program, words: &[u64]) -> Vec<u64> {
    let stepper = program.stepper().unwrap();
    words
        .iter()
        .copied()
        .filter(|&w| {
            let state = usize::try_from(w).unwrap();
            stepper.step(state).unwrap() == vec![state]
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
        assert_quotient_check_matches_full(&inst, seed, 1);

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
