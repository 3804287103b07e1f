//! Tier-1 digest of the differential suites, so a root test run checks
//! every engine against its oracle in `graybox-oracles`:
//!
//! * a seeded slice of `crates/core/tests/gcl_differential.rs` (the
//!   streamed self-check against the oracle compiler's materialized
//!   verdict) and of `crates/core/tests/reduction_differential.rs` (the
//!   symmetry-quotient check against the full check), each at 1 and 2
//!   workers;
//! * a seeded slice of `crates/core/tests/reference_engine.rs` (the CSR
//!   engine against the `BTreeSet` engine);
//! * the n = 2 case of `crates/core/tests/tme_twins.rs` (the IR TME model
//!   against the oracle DSL model), in full;
//! * a seeded slice of `crates/simnet/tests/queue_twin.rs` (the timer
//!   wheel against the heap scheduler).
//!
//! The slices share the suites' generators and comparisons through their
//! `common` and `twin` modules; the full suites run in CI.

#[path = "../crates/core/tests/common/mod.rs"]
mod common;
#[path = "../crates/simnet/tests/twin/mod.rs"]
mod twin;

use std::ops::Range;

use common::{
    assert_nproc_twins_agree, assert_quotient_check_matches_full,
    assert_self_check_matches_reference, engines_agree_on_seed, rotation_instance,
};

const SEEDS: Range<u64> = 0..40;

#[test]
fn streamed_self_check_matches_the_reference_on_a_seed_slice() {
    let mut verdicts = [0usize; 2];
    for seed in SEEDS {
        let one = assert_self_check_matches_reference(seed, 1);
        let two = assert_self_check_matches_reference(seed, 2);
        let witness = |report: Option<graybox_core::gcl::FairSelfReport>| {
            report.map(|report| report.divergent_witness)
        };
        let (one, two) = (witness(one), witness(two));
        assert_eq!(one, two, "seed {seed}: witness differs across workers");
        if let Some(witness) = one {
            verdicts[usize::from(witness.is_none())] += 1;
        }
    }
    assert!(
        verdicts.iter().all(|&count| count > 0),
        "slice lost a verdict: {verdicts:?} (fails, holds)"
    );
}

#[test]
fn quotient_check_matches_the_full_check_on_a_seed_slice() {
    let mut verdicts = [0usize; 2];
    for seed in SEEDS {
        let inst = rotation_instance(seed);
        let one = assert_quotient_check_matches_full(&inst, seed, 1);
        let two = assert_quotient_check_matches_full(&inst, seed, 2);
        assert_eq!(one.words, two.words, "seed {seed}");
        assert_eq!(
            one.divergent_witness, two.divergent_witness,
            "seed {seed}: witness differs across workers"
        );
        verdicts[usize::from(one.holds())] += 1;
    }
    assert!(
        verdicts.iter().all(|&count| count > 0),
        "slice lost a verdict: {verdicts:?} (fails, holds)"
    );
}

#[test]
fn csr_and_btreeset_engines_agree_on_a_seed_slice() {
    let mut verdicts = [0usize; 2];
    for seed in 0..500u64 {
        verdicts[usize::from(engines_agree_on_seed(seed))] += 1;
    }
    assert!(
        verdicts.iter().all(|&count| count > 0),
        "slice lost a verdict: {verdicts:?} (fails, holds)"
    );
}

#[test]
fn tme_ir_and_oracle_models_agree_at_n2() {
    for with_wrapper in [false, true] {
        assert_nproc_twins_agree(2, with_wrapper);
    }
}

#[test]
fn wheel_and_heap_queues_agree_on_a_seed_slice() {
    for seed in 0..10u64 {
        twin::randomized_workload(seed);
    }
    for seed in 100..105u64 {
        twin::randomized_bounded_workload(seed);
    }
}
