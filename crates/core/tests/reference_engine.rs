//! The CSR engine against its oracle, the original `BTreeSet` engine of
//! `graybox-oracles`: every query and the stabilization decision on
//! thousands of seeded random instances and on hand-built edge cases.

mod common;

use common::{assert_decisions_agree, assert_engines_agree, engines_agree_on_seed};
use graybox_core::{figure1, is_stabilizing_to, FiniteSystem};

fn sys(n: usize, init: &[usize], edges: &[(usize, usize)]) -> FiniteSystem {
    FiniteSystem::builder(n)
        .initials(init.iter().copied())
        .edges(edges.iter().copied())
        .build()
        .unwrap()
}

#[test]
fn engines_agree_on_2000_random_instances() {
    // The core cross-validation: two independent deciders, thousands
    // of random instances, identical divergent edges.
    let mut positive = 0;
    let mut negative = 0;
    for seed in 0..2_000u64 {
        if engines_agree_on_seed(seed) {
            positive += 1;
        } else {
            negative += 1;
        }
    }
    // Both outcomes must actually occur, or the test proves nothing.
    assert!(positive > 50, "only {positive} positive cases");
    assert!(negative > 50, "only {negative} negative cases");
}

#[test]
fn engines_agree_on_all_self_loop_systems() {
    for n in 1..=5 {
        let loops = sys(n, &[0], &(0..n).map(|s| (s, s)).collect::<Vec<_>>());
        assert_engines_agree(&loops);
        assert_decisions_agree(&loops, &loops, &format!("self-loops n={n}"));
    }
}

#[test]
fn engines_agree_on_single_state_system() {
    let one = sys(1, &[0], &[(0, 0)]);
    assert_engines_agree(&one);
    assert_decisions_agree(&one, &one, "single state");
    assert!(is_stabilizing_to(&one, &one).holds());
}

#[test]
fn engines_agree_with_init_disconnected_from_a_component() {
    // Two components; init only reaches {0, 1}. The {2, 3} cycle is
    // divergent for spec `a` (legitimate = {0, 1}).
    let a = sys(4, &[0], &[(0, 1), (1, 0), (2, 2), (3, 3)]);
    let c = sys(4, &[0], &[(0, 1), (1, 0), (2, 3), (3, 2)]);
    assert_engines_agree(&a);
    assert_engines_agree(&c);
    assert_decisions_agree(&c, &a, "disconnected init");
    assert!(!is_stabilizing_to(&c, &a).holds());
}

#[test]
fn engines_agree_with_empty_init() {
    // No initial state at all: legitimate set is empty, so every edge
    // of a cyclic implementation is divergent.
    let a = sys(2, &[], &[(0, 1), (1, 0)]);
    let c = sys(2, &[], &[(0, 1), (1, 0)]);
    assert_engines_agree(&a);
    assert_decisions_agree(&c, &a, "empty init");
    assert!(!is_stabilizing_to(&c, &a).holds());
}

#[test]
fn reference_reports_the_same_edge_on_figure1() {
    let (a, c) = figure1::systems();
    assert_decisions_agree(&c, &a, "figure 1");
}
