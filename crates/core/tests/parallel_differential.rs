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

use common::assert_worker_count_invariant;
use graybox_core::sweep::sweep_seeds;
use graybox_core::tme_abstract::build_n;

#[test]
fn two_hundred_random_programs_are_worker_count_invariant() {
    sweep_seeds(0..200u64, assert_worker_count_invariant);
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
    // The default worker count follows `GRAYBOX_THREADS`; at 3 the two
    // programs run side by side on one and two workers.
    assert_eq!(
        serial,
        tme.check().expect("default check"),
        "TME n=3 diverges at the default worker count"
    );
}
