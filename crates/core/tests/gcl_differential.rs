//! Differential tests for the packed-state GCL compiler.
//!
//! Generates seeded random guarded-command programs from a small,
//! DSL-independent spec, instantiates each spec in both the packed
//! streaming compiler ([`graybox_core::gcl`]) and the retained
//! decode/encode oracle compiler (`graybox_oracles::gcl`),
//! and asserts the two pipelines agree on everything observable:
//! compiled systems (edges and inits), fair components and unions,
//! `is_stabilizing_to` verdicts, the streaming `fair_self_check`
//! verdict against the materialized fair-composition check, and the
//! reachable explorer's fragment against the reference system's
//! init-reachable states and the edges among them. A second sweep runs
//! `Program::step` at every state of each program against the IR's
//! valuation semantics, with writes out of domain on odd seeds.

mod common;

use common::{
    assert_self_check_matches_reference, assert_step_matches_the_valuations, build_packed,
    build_reference, packed_init, random_spec,
};
use graybox_core::is_stabilizing_to;
use graybox_core::sweep::sweep_seeds;
use graybox_core::synthesis::stutter_closure;
use graybox_oracles::gcl::Valuation;

/// Compiles one random spec through both pipelines and asserts agreement
/// on every observable. Panics (failing the enclosing sweep) on any
/// divergence, with the seed in the message.
fn check_seed(seed: u64) {
    let spec = random_spec(seed);
    let (packed, pv) = build_packed(&spec);
    let (reference, rv) = build_reference(&spec);
    let below = spec.init_below;
    let p_init = packed_init(&spec, &pv);
    let r_init = {
        let x0 = rv[0];
        move |s: &Valuation| s[x0] < below
    };

    let p_plain = packed
        .compile(p_init)
        .unwrap_or_else(|e| panic!("seed {seed}: packed {e}"));
    let r_plain = reference
        .compile(r_init)
        .unwrap_or_else(|e| panic!("seed {seed}: reference {e}"));
    assert_eq!(
        p_plain.system(),
        &r_plain,
        "seed {seed}: plain systems diverge for {spec:?}"
    );

    // Same stabilization verdict over the compiled systems (the paper's
    // central relation), computed independently per pipeline.
    let p_verdict = is_stabilizing_to(p_plain.system(), &stutter_closure(p_plain.system()));
    let r_verdict = is_stabilizing_to(&r_plain, &stutter_closure(&r_plain));
    assert_eq!(
        p_verdict.holds(),
        r_verdict.holds(),
        "seed {seed}: stabilization verdicts diverge"
    );

    // The reachable explorer against the reference system: its words
    // (packed word = full-space state id) are exactly the reference's
    // init-reachable states, and its edges are the subgraph they induce.
    let reach = packed
        .compile_reachable(p_init)
        .unwrap_or_else(|e| panic!("seed {seed}: reachable {e}"));
    let words: Vec<usize> = (0..reach.system().num_states())
        .map(|id| usize::try_from(reach.word(id)).unwrap())
        .collect();
    let mut word_set = words.clone();
    word_set.sort_unstable();
    let reachable = r_plain.reachable_from_init();
    assert_eq!(
        word_set,
        reachable.iter().collect::<Vec<_>>(),
        "seed {seed}: reachable fragment diverges from the reference"
    );
    let mut edges: Vec<(usize, usize)> = reach
        .system()
        .edges()
        .into_iter()
        .map(|(from, to)| (words[from], words[to]))
        .collect();
    edges.sort_unstable();
    let induced: Vec<(usize, usize)> = r_plain
        .edges()
        .into_iter()
        .filter(|&(from, to)| reachable.contains(from) && reachable.contains(to))
        .collect();
    assert_eq!(
        edges, induced,
        "seed {seed}: reachable edges diverge from the induced subgraph"
    );

    if spec.commands.is_empty() {
        // Both fair pipelines must reject a program with no commands, and
        // with the same error.
        let p_err = packed.compile_fair(p_init).err();
        let r_err = reference.compile_fair(r_init).err();
        assert_eq!(p_err, r_err, "seed {seed}: empty-command errors diverge");
        assert!(p_err.is_some(), "seed {seed}: empty command list accepted");
        return;
    }

    let (p_fair, p_plain2) = packed
        .compile_fair(p_init)
        .unwrap_or_else(|e| panic!("seed {seed}: packed fair {e}"));
    let (r_fair, r_plain2) = reference
        .compile_fair(r_init)
        .unwrap_or_else(|e| panic!("seed {seed}: reference fair {e}"));
    assert_eq!(
        p_plain2.system(),
        &r_plain2,
        "seed {seed}: fair plains diverge"
    );
    assert_eq!(
        p_fair.components(),
        r_fair.components(),
        "seed {seed}: components diverge"
    );
    assert_eq!(
        p_fair.union(),
        r_fair.union(),
        "seed {seed}: unions diverge"
    );

    // The streaming self-check must agree with the materialized
    // fair-composition check of the reference pipeline at 1 and 2
    // workers.
    for workers in [1, 2] {
        assert_self_check_matches_reference(seed, workers);
    }
}

#[test]
fn two_hundred_random_programs_compile_identically() {
    // 200 seeded programs; the sweep driver parallelizes when cores are
    // available and propagates any per-seed panic.
    sweep_seeds(0..200u64, check_seed);
}

#[test]
fn two_hundred_random_programs_step_by_their_valuations() {
    let leaks: usize = (0..200u64).map(assert_step_matches_the_valuations).sum();
    assert!(leaks > 0, "no state reached a write out of domain");
}

#[test]
fn known_interesting_seeds_stay_interesting() {
    // Guard against the generator degenerating into triviality: across
    // the sweep both verdicts and both command-count extremes must occur.
    let mut any_empty = false;
    let mut any_multi = false;
    for seed in 0..200u64 {
        let spec = random_spec(seed);
        any_empty |= spec.commands.is_empty();
        any_multi |= spec.commands.len() >= 4;
    }
    assert!(any_empty && any_multi, "generator lost its spread");
}
