//! Differential tests for the sharded (parallel) verdict pipeline.
//!
//! The parallel engines promise more than agreement up to isomorphism:
//! the sharded compile sweeps must produce **bit-identical** CSR
//! arrays, init sets, and discovery orders for every worker count, SCC
//! ids (sequential Tarjan at every count) must be bit-identical too,
//! and every verdict — stabilization, `fair_self_check`, its symmetry
//! quotient, the exhaustive TME check — must be equal. This suite pins
//! all of that on 200 seeded random programs at 1, 2, and 4 workers,
//! plus the TME abstraction at n = 2 (debug) and n = 3 (release,
//! `--ignored`).

mod common;

use common::{build_packed, packed_init, random_spec};
use graybox_core::gcl::sym::{SymmetryElement, SymmetrySpec};
use graybox_core::sweep::sweep_seeds;
use graybox_core::tme_abstract::build_n;

/// Compiles one random spec serially and at 2 and 4 workers through
/// every parallel entry point, asserting bit-identical outputs and
/// equal verdicts. Panics (failing the enclosing sweep) on divergence,
/// with the seed in the message.
fn check_seed(seed: u64) {
    let spec = random_spec(seed);
    let (program, vars) = build_packed(&spec);
    let init = packed_init(&spec, &vars);

    let plain1 = program.compile_on(1, init);
    let fair1 = program.compile_fair_on(1, init);
    let reach1 = program.compile_reachable_on(1, init);
    let check1 = program.fair_self_check_on(1, init);
    // The trivial group: the quotient pipeline runs every phase on the
    // full space, so its reports must be worker-invariant as well.
    let identity = SymmetrySpec::new(&[SymmetryElement::identity(
        spec.domains.len(),
        spec.commands.len(),
    )])
    .expect("the identity is a group");
    let sym1 = program.fair_self_check_sym_on(1, &identity, init);

    for workers in [2usize, 4] {
        match (&plain1, program.compile_on(workers, init)) {
            (Ok(serial), Ok(parallel)) => {
                // FiniteSystem equality is structural: CSR rows, init
                // set, state count — the bit-identity claim.
                assert_eq!(
                    serial.system(),
                    parallel.system(),
                    "seed {seed}: plain CSR diverges at {workers} workers"
                );
                // SCC ids are the same Tarjan labeling at every worker
                // count, and agree with the lazy cache.
                let sccs = parallel.system().sccs_on(workers);
                assert_eq!(
                    serial.system().sccs_on(1),
                    sccs,
                    "seed {seed}: SCC ids diverge at {workers} workers"
                );
                assert_eq!(
                    serial.system().scc_ids(),
                    sccs.0.as_slice(),
                    "seed {seed}: cached SCC ids diverge at {workers} workers"
                );
                // Reachability at `workers` vs one inline chunk (`par`'s
                // unit tests force the fan-out path on every level).
                let seeds: Vec<usize> = serial.system().init().iter().collect();
                assert_eq!(
                    serial.system().reachable_from_on(1, seeds.iter().copied()),
                    parallel
                        .system()
                        .reachable_from_on(workers, seeds.iter().copied()),
                    "seed {seed}: reachability diverges at {workers} workers"
                );
            }
            (Err(serial), Err(parallel)) => assert_eq!(
                serial, &parallel,
                "seed {seed}: plain compile errors diverge at {workers} workers"
            ),
            (serial, parallel) => panic!(
                "seed {seed}: plain compile outcome diverges at {workers} workers: \
                 {serial:?} vs {parallel:?}"
            ),
        }

        match (&fair1, program.compile_fair_on(workers, init)) {
            (Ok((sf, sp)), Ok((pf, pp))) => {
                assert_eq!(
                    sp.system(),
                    pp.system(),
                    "seed {seed}: fair plain CSR diverges at {workers} workers"
                );
                assert_eq!(
                    sf.components(),
                    pf.components(),
                    "seed {seed}: fair components diverge at {workers} workers"
                );
                assert_eq!(
                    sf.union(),
                    pf.union(),
                    "seed {seed}: fair unions diverge at {workers} workers"
                );
            }
            (Err(serial), Err(parallel)) => assert_eq!(
                serial, &parallel,
                "seed {seed}: fair compile errors diverge at {workers} workers"
            ),
            (serial, parallel) => panic!(
                "seed {seed}: fair compile outcome diverges at {workers} workers: \
                 {serial:?} vs {parallel:?}"
            ),
        }

        match (&reach1, program.compile_reachable_on(workers, init)) {
            (Ok(serial), Ok(parallel)) => {
                assert_eq!(
                    serial.system(),
                    parallel.system(),
                    "seed {seed}: reachable CSR diverges at {workers} workers"
                );
                // Dense ids must map to the same packed words — the
                // FIFO discovery order is part of the contract.
                for id in 0..serial.system().num_states() {
                    assert_eq!(
                        serial.word(id),
                        parallel.word(id),
                        "seed {seed}: discovery order diverges at {workers} workers"
                    );
                }
            }
            (Err(serial), Err(parallel)) => assert_eq!(
                serial, &parallel,
                "seed {seed}: reachable compile errors diverge at {workers} workers"
            ),
            (serial, parallel) => panic!(
                "seed {seed}: reachable compile outcome diverges at {workers} workers: \
                 {serial:?} vs {parallel:?}"
            ),
        }

        match (&check1, program.fair_self_check_on(workers, init)) {
            (Ok(serial), Ok(parallel)) => {
                assert_eq!(
                    serial.num_states, parallel.num_states,
                    "seed {seed}: self-check state counts diverge at {workers} workers"
                );
                assert_eq!(
                    serial.legitimate, parallel.legitimate,
                    "seed {seed}: legitimate sets diverge at {workers} workers"
                );
                assert_eq!(
                    serial.divergent_witness, parallel.divergent_witness,
                    "seed {seed}: self-check witnesses diverge at {workers} workers"
                );
            }
            (Err(serial), Err(parallel)) => assert_eq!(
                serial, &parallel,
                "seed {seed}: self-check errors diverge at {workers} workers"
            ),
            (serial, parallel) => panic!(
                "seed {seed}: self-check outcome diverges at {workers} workers: \
                 {serial:?} vs {parallel:?}"
            ),
        }

        match (
            &sym1,
            program.fair_self_check_sym_on(workers, &identity, init),
        ) {
            (Ok(serial), Ok(parallel)) => {
                assert_eq!(
                    (
                        &serial.words,
                        &serial.legitimate,
                        serial.num_legitimate_full
                    ),
                    (
                        &parallel.words,
                        &parallel.legitimate,
                        parallel.num_legitimate_full
                    ),
                    "seed {seed}: quotient state sets diverge at {workers} workers"
                );
                assert_eq!(
                    serial.divergent_witness, parallel.divergent_witness,
                    "seed {seed}: quotient witnesses diverge at {workers} workers"
                );
            }
            (Err(serial), Err(parallel)) => assert_eq!(
                serial, &parallel,
                "seed {seed}: quotient check errors diverge at {workers} workers"
            ),
            (serial, parallel) => panic!(
                "seed {seed}: quotient check outcome diverges at {workers} workers: \
                 {serial:?} vs {parallel:?}"
            ),
        }
    }
    // The quotient under the trivial group is the full space: same
    // verdict and legitimate count as the unreduced check.
    if let (Ok(full), Ok(sym)) = (&check1, &sym1) {
        assert_eq!(full.holds(), sym.holds(), "seed {seed}: quotient verdict");
        assert_eq!(
            full.num_legitimate(),
            sym.num_legitimate_full,
            "seed {seed}: quotient legitimate count"
        );
    }
}

#[test]
fn two_hundred_random_programs_are_worker_count_invariant() {
    sweep_seeds(0..200u64, check_seed);
}

#[test]
fn tme_two_process_verdicts_match_across_engines() {
    let tme = build_n(2).expect("2-process TME builds");
    let serial = tme.check_on(1).expect("serial check");
    for workers in [2usize, 4] {
        let parallel = tme.check_on(workers).expect("parallel check");
        assert_eq!(serial, parallel, "TME n=2 diverges at {workers} workers");
    }
    // The default entry point agrees too, whatever worker count it picks.
    assert_eq!(serial, tme.check().expect("default check"));

    let reduced = tme.reduced_check_on(1).expect("serial reduced check");
    assert_eq!(reduced.verdicts, serial, "TME n=2 quotient verdicts");
    for workers in [2usize, 4] {
        let parallel = tme
            .reduced_check_on(workers)
            .expect("parallel reduced check");
        assert_eq!(
            reduced, parallel,
            "TME n=2 quotient diverges at {workers} workers"
        );
    }
}

#[test]
#[ignore = "multi-million-state sweep; run with --release -- --ignored"]
fn tme_three_process_verdicts_match_across_engines() {
    let tme = build_n(3).expect("3-process TME builds");
    let serial = tme.check_on(1).expect("serial check");
    let parallel = tme.check_on(4).expect("parallel check");
    assert_eq!(serial, parallel, "TME n=3 diverges across engines");
}
