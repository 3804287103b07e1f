//! The pre-CSR `BTreeSet` transition engine, retained as an executable
//! reference.
//!
//! [`ReferenceSystem`] is the representation [`FiniteSystem`] used before
//! the CSR/bitset rework: initial states in a `BTreeSet<usize>`, edges in
//! a `BTreeSet<(usize, usize)>`, successor queries by range scan, and
//! stabilization decided by the original per-divergent-edge BFS. It exists
//! for two purposes:
//!
//! * **cross-validation** — the property tests in this module run both
//!   engines on thousands of seeded random instances and assert they
//!   agree on every query;
//! * **benchmarking** — `graybox-bench` times the reference engine as the
//!   baseline the CSR engine is compared against (`BENCH_core.json`).
//!
//! Nothing outside tests and benches should depend on this module.

use std::collections::BTreeSet;

use crate::FiniteSystem;

/// A finite system in the original `BTreeSet` representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceSystem {
    num_states: usize,
    init: BTreeSet<usize>,
    edges: BTreeSet<(usize, usize)>,
}

impl ReferenceSystem {
    /// Builds a reference system from raw parts. The caller is responsible
    /// for validity (in-range, total) — use [`FiniteSystem::builder`] and
    /// [`ReferenceSystem::from_system`] when validation matters.
    pub fn from_parts(
        num_states: usize,
        init: impl IntoIterator<Item = usize>,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> Self {
        ReferenceSystem {
            num_states,
            init: init.into_iter().collect(),
            edges: edges.into_iter().collect(),
        }
    }

    /// Converts a CSR-engine system into the reference representation.
    pub fn from_system(sys: &FiniteSystem) -> Self {
        ReferenceSystem::from_parts(sys.num_states(), sys.init().iter(), sys.edges())
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The initial states.
    pub fn init(&self) -> &BTreeSet<usize> {
        &self.init
    }

    /// The edge set.
    pub fn edges(&self) -> &BTreeSet<(usize, usize)> {
        &self.edges
    }

    /// Membership by ordered-set lookup.
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        self.edges.contains(&(from, to))
    }

    /// Successors by range scan over the ordered edge set.
    pub fn successors(&self, state: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges
            .range((state, 0)..=(state, usize::MAX))
            .map(|&(_, to)| to)
    }

    /// BFS closure of a seed set (seeds included).
    pub fn reachable_from(&self, seeds: impl IntoIterator<Item = usize>) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = seeds.into_iter().collect();
        let mut frontier: Vec<usize> = seen.iter().copied().collect();
        while let Some(state) = frontier.pop() {
            for next in self.successors(state) {
                if seen.insert(next) {
                    frontier.push(next);
                }
            }
        }
        seen
    }

    /// Closure of the initial states, recomputed on every call (the
    /// original engine had no cache).
    pub fn reachable_from_init(&self) -> BTreeSet<usize> {
        self.reachable_from(self.init.iter().copied())
    }

    /// Path (length ≥ 1) existence by BFS.
    pub fn has_path(&self, from: usize, to: usize) -> bool {
        let mut seen = BTreeSet::new();
        let mut frontier = vec![from];
        while let Some(state) = frontier.pop() {
            for next in self.successors(state) {
                if next == to {
                    return true;
                }
                if seen.insert(next) {
                    frontier.push(next);
                }
            }
        }
        false
    }

    /// The original stabilization decision: for each divergent edge of
    /// `self` (an edge that is not an `a`-transition between legitimate
    /// states), run a BFS to ask whether it lies on a cycle —
    /// `O(E · (V + E))` worst case. Returns the first recurring divergent
    /// edge in lexicographic order, `None` when stabilizing; exactly the
    /// contract of [`crate::is_stabilizing_to`].
    pub fn is_stabilizing_to(&self, a: &ReferenceSystem) -> Option<(usize, usize)> {
        let legitimate = a.reachable_from_init();
        if self.num_states != a.num_states {
            return self.edges.iter().next().copied();
        }
        let divergent = |from: usize, to: usize| {
            !(a.has_edge(from, to) && legitimate.contains(&from) && legitimate.contains(&to))
        };
        for &(from, to) in &self.edges {
            if divergent(from, to) && (from == to || self.has_path(to, from)) {
                return Some((from, to));
            }
        }
        None
    }

    /// Box composition by rebuilding the ordered sets: edge union, init
    /// intersection.
    pub fn box_compose(&self, other: &ReferenceSystem) -> ReferenceSystem {
        assert_eq!(self.num_states, other.num_states);
        ReferenceSystem {
            num_states: self.num_states,
            init: self.init.intersection(&other.init).copied().collect(),
            edges: self.edges.union(&other.edges).copied().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::randsys::{random_subsystem, random_system};
    use crate::{box_compose, is_stabilizing_to};
    use graybox_rng::rngs::SmallRng;
    use graybox_rng::SeedableRng;

    fn sys(n: usize, init: &[usize], edges: &[(usize, usize)]) -> FiniteSystem {
        FiniteSystem::builder(n)
            .initials(init.iter().copied())
            .edges(edges.iter().copied())
            .build()
            .unwrap()
    }

    /// Asserts that every query of the two engines agrees on `sys`.
    fn assert_engines_agree(sys: &FiniteSystem) {
        let r = ReferenceSystem::from_system(sys);
        let n = sys.num_states();
        assert_eq!(*sys.init(), *r.init());
        assert_eq!(
            sys.edges().iter().collect::<Vec<_>>(),
            r.edges().iter().copied().collect::<Vec<_>>(),
        );
        assert_eq!(*sys.reachable_from_init(), r.reachable_from_init());
        for from in 0..n {
            assert_eq!(
                sys.successors(from).collect::<Vec<_>>(),
                r.successors(from).collect::<Vec<_>>(),
                "successors of {from}",
            );
            assert_eq!(
                sys.predecessors(from).count(),
                r.edges().iter().filter(|&&(_, to)| to == from).count(),
                "predecessor count of {from}",
            );
            for to in 0..n {
                assert_eq!(sys.has_edge(from, to), r.has_edge(from, to));
                assert_eq!(
                    sys.has_path(from, to),
                    r.has_path(from, to),
                    "has_path({from}, {to})",
                );
            }
        }
    }

    fn assert_decisions_agree(c: &FiniteSystem, a: &FiniteSystem, tag: &str) {
        let rc = ReferenceSystem::from_system(c);
        let ra = ReferenceSystem::from_system(a);
        let fast = is_stabilizing_to(c, a);
        let slow = rc.is_stabilizing_to(&ra);
        assert_eq!(
            fast.divergent_edge, slow,
            "{tag}: CSR reported {:?}, reference reported {slow:?}",
            fast.divergent_edge,
        );
        assert_eq!(fast.legitimate_states, ra.reachable_from_init(), "{tag}");
    }

    #[test]
    fn engines_agree_on_2000_random_instances() {
        // The core cross-validation: two independent deciders, thousands
        // of random instances, identical divergent edges.
        let mut positive = 0;
        let mut negative = 0;
        for seed in 0..2_000u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let a = random_system(&mut rng, 6, 2, 0.4);
            let c = if seed % 2 == 0 {
                random_system(&mut rng, 6, 2, 0.4)
            } else {
                random_subsystem(&mut rng, &a)
            };
            assert_engines_agree(&a);
            assert_engines_agree(&c);
            assert_decisions_agree(&c, &a, &format!("seed {seed}"));

            // Composition: same resulting system under both engines.
            let ra = ReferenceSystem::from_system(&a);
            let rc = ReferenceSystem::from_system(&c);
            let composed = box_compose(&c, &a).unwrap();
            assert_eq!(ReferenceSystem::from_system(&composed), rc.box_compose(&ra));

            if is_stabilizing_to(&c, &a).holds() {
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
        let (a, c) = crate::figure1::systems();
        assert_decisions_agree(&c, &a, "figure 1");
    }
}
