//! Tier-1 digest of the differential suites, so a root test run checks
//! every engine against its oracle in `graybox-oracles`:
//!
//! * a seeded slice of `crates/core/tests/gcl_differential.rs` (the
//!   streamed self-check against the oracle compiler's materialized
//!   verdict) and of `crates/core/tests/reduction_differential.rs` (the
//!   symmetry-quotient check against the full check), each at 1 and 2
//!   workers;
//! * a seeded slice of `gcl_differential.rs`'s step sweep: the lowering
//!   (candidate words, delta bodies, jump code, writes out of domain)
//!   against the IR's valuation semantics at every state;
//! * a seeded slice of `crates/core/tests/reference_engine.rs` (the CSR
//!   engine against the `BTreeSet` engine);
//! * a seeded slice of `crates/core/tests/parallel_differential.rs`
//!   (every parallel entry point at 1, 2 and 4 workers), and the n = 2
//!   TME verdicts at 1, 2 and 3 workers, where the unwrapped and wrapped
//!   programs run one after the other, side by side on one worker each,
//!   and side by side on one and two;
//! * the n = 2 case of `crates/core/tests/tme_twins.rs` (the IR TME model
//!   against the oracle DSL model), in full;
//! * a seeded slice of `crates/simnet/tests/queue_twin.rs` (the timer
//!   wheel against the heap scheduler), and its hand-built far-level
//!   cases at the horizon and epoch edges and at `u64::MAX`;
//! * the n = 2 union-CSR digests that `graybox-core`'s
//!   `n2_union_csr_is_pinned` pins for the rows the fair self-check's
//!   Tarjan walk builds, recomputed here from the materialized fair
//!   union.
//!
//! The slices share the suites' generators and comparisons through their
//! `common` and `twin` modules; the full suites run in CI.

#[path = "../crates/core/tests/common/mod.rs"]
mod common;
#[path = "../crates/simnet/tests/twin/mod.rs"]
mod twin;

use std::ops::Range;

use graybox_core::tme_abstract::{build_n, program_nproc_ir};

use common::{
    assert_nproc_twins_agree, assert_quotient_check_matches_full,
    assert_self_check_matches_reference, assert_step_matches_the_valuations,
    assert_worker_count_invariant, engines_agree_on_seed, random_spec, rotation_instance,
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
fn step_matches_the_valuation_semantics_on_a_seed_slice() {
    // 60 of the 200 seeds, under 0.1 s in debug; the slice keeps
    // domains of 65..69 values and writes out of domain.
    let leaks: usize = (0..60u64).map(assert_step_matches_the_valuations).sum();
    assert!(leaks > 0, "no state reached a write out of domain");
    let wide = (0..60u64).filter(|&seed| random_spec(seed).domains.iter().any(|&d| d > 64));
    assert!(wide.count() > 0, "slice lost its wide domains");
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
fn parallel_entry_points_are_worker_count_invariant_on_a_seed_slice() {
    // 60 of the 200 seeds, about 0.2 s in debug.
    for seed in 0..60u64 {
        assert_worker_count_invariant(seed);
    }
}

#[test]
fn tme_n2_verdicts_are_the_same_at_one_two_and_three_workers() {
    let tme = build_n(2).unwrap();
    let full = tme.check_on(1).unwrap();
    let reduced = tme.reduced_check_on(1).unwrap();
    assert!(full.as_predicted(), "{full:?}");
    assert_eq!(reduced.verdicts, full);
    for workers in [2, 3] {
        assert_eq!(tme.check_on(workers).unwrap(), full, "{workers} workers");
        assert_eq!(
            tme.reduced_check_on(workers).unwrap(),
            reduced,
            "{workers} workers"
        );
    }
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

#[test]
fn wheel_and_heap_queues_agree_at_the_far_level() {
    twin::far_level_horizon_edges();
    twin::far_level_saturated_timer();
    twin::far_level_pushes_while_a_slot_is_open();
    twin::far_level_limit_inside_an_epoch();
    twin::far_level_peek_with_only_far_entries();
    twin::far_level_multi_epoch_gaps();
    for seed in 200..205u64 {
        twin::randomized_far_workload(seed);
    }
}

/// FNV-1a over the little-endian bytes of `values`, continuing `hash`.
fn fnv1a(hash: u64, values: impl IntoIterator<Item = u64>) -> u64 {
    values
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(hash, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn n2_fair_union_matches_the_pinned_union_csr() {
    // The materialized fair union has the rows the streamed self-check
    // builds (sorted and deduplicated), so the digest over its offsets,
    // targets and initial states (each as eight little-endian bytes) is
    // the pinned one.
    let pins = [
        (0x9dff_aef2_0674_d3d6, 2_412),
        (0x0a4a_4138_52e2_9506, 2_484),
    ];
    for (with_wrapper, pin) in [false, true].into_iter().zip(pins) {
        let (program, init) = program_nproc_ir(2, with_wrapper);
        let (fair, _) = program.compile_fair(init).unwrap();
        let union = fair.union();
        let mut off = vec![0u64];
        let mut to = Vec::new();
        for state in 0..union.num_states() {
            to.extend(union.successors(state).map(|t| t as u64));
            off.push(to.len() as u64);
        }
        let hash = fnv1a(0xcbf2_9ce4_8422_2325, off);
        let hash = fnv1a(hash, to.iter().copied());
        let hash = fnv1a(hash, union.init().iter().map(|s| s as u64));
        assert_eq!((hash, to.len()), pin, "wrapper = {with_wrapper}");
    }
}
