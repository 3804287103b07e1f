//! Tier-1 digest of the fair self-check differential suites: a seeded
//! slice of `crates/core/tests/gcl_differential.rs` (the streamed
//! self-check against the reference compiler's materialized verdict) and
//! of `crates/core/tests/reduction_differential.rs` (the symmetry-quotient
//! check against the full check), each at 1 and 2 workers. The slices
//! share the suites' generators and comparisons through their `common`
//! module; the full 200-seed suites run in CI.

#[path = "../crates/core/tests/common/mod.rs"]
mod common;

use std::ops::Range;

use common::{
    assert_quotient_check_matches_full, assert_self_check_matches_reference, rotation_instance,
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
