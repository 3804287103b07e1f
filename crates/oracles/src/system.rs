//! The pre-CSR `BTreeSet` transition engine: the oracle for
//! [`FiniteSystem`].
//!
//! [`ReferenceSystem`] is the representation [`FiniteSystem`] used before
//! the CSR/bitset rework: initial states in a `BTreeSet<usize>`, edges in
//! a `BTreeSet<(usize, usize)>`, successor queries by range scan, and
//! stabilization decided by the original per-divergent-edge BFS. The
//! engine-agreement suite (`crates/core/tests/reference_engine.rs`) runs
//! both engines on thousands of seeded random instances and asserts they
//! agree on every query; `graybox-bench` times it as the baseline of the
//! CSR engine (`BENCH_core.json`).

use std::collections::BTreeSet;

use graybox_core::FiniteSystem;

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
    /// contract of [`graybox_core::is_stabilizing_to`].
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
