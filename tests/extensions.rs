//! Integration: the concluding-remarks extensions through the facade —
//! synthesis, masking/fail-safe tolerance, the §2.2 two-level method, and
//! the exhaustive abstract-TME verification.

use graybox::core::fairness::FairComposition;
use graybox::core::method::{synthesize_level1, synthesize_level2, TwoLevelDesign};
use graybox::core::randsys::{random_subsystem, random_system};
use graybox::core::reference::ReferenceSystem;
use graybox::core::synthesis::{
    stutter_closure, synthesize_guided_wrapper, synthesize_reset_wrapper, verify_wrapper,
};
use graybox::core::theorems::LocalFamily;
use graybox::core::tme_abstract;
use graybox::core::tolerance::{is_fail_safe, is_masking_with_wrapper, FaultClass};
use graybox::core::{is_stabilizing_to, FiniteSystem};
use graybox_rng::rngs::SmallRng;
use graybox_rng::SeedableRng;

#[test]
fn synthesized_wrappers_verify_and_transfer() {
    for seed in 0..50u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let spec = random_system(&mut rng, 10, 3, 0.3);
        for wrapper in [
            synthesize_reset_wrapper(&spec),
            synthesize_guided_wrapper(&spec),
        ] {
            assert!(verify_wrapper(&spec, &wrapper).unwrap(), "seed {seed}");
            // Transfer to a random everywhere-implementation.
            let closed = stutter_closure(&spec);
            let implementation = random_subsystem(&mut rng, &closed);
            let fair = FairComposition::new(vec![implementation, wrapper]).unwrap();
            assert!(fair.is_stabilizing_to(&closed).holds(), "seed {seed}");
        }
    }
}

#[test]
fn bruteforce_and_scc_deciders_agree_through_the_facade() {
    // The SCC decider against the per-edge BFS of the `BTreeSet` oracle:
    // the same first divergent edge, not just the same verdict.
    for seed in 500..700u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = random_system(&mut rng, 5, 2, 0.5);
        let c = random_system(&mut rng, 5, 2, 0.5);
        assert_eq!(
            is_stabilizing_to(&c, &a).divergent_edge,
            ReferenceSystem::from_system(&c).is_stabilizing_to(&ReferenceSystem::from_system(&a)),
            "seed {seed}"
        );
    }
}

#[test]
fn tolerance_hierarchy_fail_safe_does_not_imply_masking() {
    // spec: 0↔1 legitimate; 2 is a fault state with an allowed recovery.
    let spec = FiniteSystem::builder(3)
        .initial(0)
        .edges([(0, 1), (1, 0), (2, 0), (2, 2)])
        .build()
        .unwrap();
    let faults = FaultClass::new([(0, 2)]);
    let lingering = FiniteSystem::builder(3)
        .initial(0)
        .edges([(0, 1), (1, 0), (2, 2)])
        .build()
        .unwrap();
    assert!(is_fail_safe(&lingering, &faults, &spec));
    // The synthesized wrapper upgrades fail-safe to masking.
    let wrapper = synthesize_reset_wrapper(&spec);
    assert!(is_masking_with_wrapper(&lingering, &wrapper, &faults, &spec).unwrap());
}

#[test]
fn two_level_method_worked_example_via_facade() {
    // Two bit-with-corruption processes; target: agreement.
    let local = FiniteSystem::builder(3)
        .initials([0, 1])
        .edges([(0, 0), (1, 1), (2, 2)])
        .build()
        .unwrap();
    let family = LocalFamily::new(vec![local.clone(), local]);
    let encode = |a: usize, b: usize| family.encode(&[a, b]);
    let mut builder = FiniteSystem::builder(9)
        .initial(encode(0, 0))
        .initial(encode(1, 1))
        .edge(encode(0, 0), encode(1, 1))
        .edge(encode(1, 1), encode(0, 0));
    for state in 0..9 {
        if state != encode(0, 0) && state != encode(1, 1) {
            builder = builder.edge(state, state);
        }
    }
    let target = builder.build().unwrap();
    let system = family.compose().unwrap();

    let level1 = synthesize_level1(&family).unwrap();
    let level2 = synthesize_level2(&family, &target).unwrap();
    let design = TwoLevelDesign::new(level1, level2);
    assert!(design.verify(&system, &target).unwrap());
}

#[test]
fn abstract_tme_verdicts_via_facade() {
    let verdicts = tme_abstract::build_n(2).unwrap().check().unwrap();
    assert!(verdicts.as_predicted(), "{verdicts:?}");
}
