//! Stabilization under weakly fair composition.
//!
//! The paper's wrapper proofs (Lemma 7: `Lspec ⊓ W` is stabilizing to
//! `Lspec`) implicitly use UNITY's execution model, where the composed
//! system's actions are scheduled **weakly fairly**: each component takes
//! steps infinitely often. Under the pure path semantics of [`box_compose`]
//! that is invisible — the box operator only *adds* computations, so a
//! wrapper could never remove a divergent cycle of the wrappee. This module
//! supplies the missing execution model.
//!
//! A [`FairComposition`] is a list of components over a shared state space;
//! its *fair computations* are the infinite paths of the edge-union graph
//! that take an edge of every component infinitely often. Stabilization to
//! a specification `A` is then checked over fair computations only.
//!
//! Decision procedure: an infinite path in a finite graph eventually stays
//! inside one strongly connected component (SCC) of the union graph. A fair
//! computation violating stabilization therefore yields an SCC that
//! contains (a) a divergent edge (not a legitimate `A`-transition) and
//! (b) for every component, at least one of that component's edges. Any
//! such SCC conversely hosts a fair violating computation (tour all the
//! required edges repeatedly). So the check is a scan over SCCs.
//!
//! # Example: a wrapper that only helps under fairness
//!
//! ```
//! use graybox_core::fairness::FairComposition;
//! use graybox_core::{is_stabilizing_to, FiniteSystem};
//!
//! // Spec/impl: state 1 is corrupt and the impl loops there forever.
//! let a = FiniteSystem::builder(2).initial(0).edges([(0, 0), (1, 1)]).build()?;
//! let c = a.clone();
//! // Wrapper: recover 1 -> 0 (skip at 0).
//! let w = FiniteSystem::builder(2).initials([0, 1]).edges([(0, 0), (1, 0)]).build()?;
//! assert!(!is_stabilizing_to(&c, &a).holds());          // impl alone: stuck
//! let composed = FairComposition::new(vec![c, w])?;
//! assert!(composed.is_stabilizing_to(&a).holds());       // fair C ⊓ W: recovers
//! # Ok::<(), graybox_core::SystemError>(())
//! ```

use std::collections::BTreeSet;

use crate::relations::StabilizationReport;
use crate::{box_compose, everywhere_implements, FiniteSystem, SystemError};

use crate::theorems::TheoremOutcome;

/// A weakly fair composition of systems over a shared state space.
#[derive(Debug, Clone)]
pub struct FairComposition {
    components: Vec<FiniteSystem>,
    union: FiniteSystem,
}

impl FairComposition {
    /// Composes the given components.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] if the list is empty or the components do
    /// not share a state space.
    pub fn new(components: Vec<FiniteSystem>) -> Result<Self, SystemError> {
        let mut iter = components.iter();
        let first = iter.next().ok_or(SystemError::EmptyStateSpace)?;
        let mut union = first.clone();
        for next in iter {
            union = box_compose(&union, next)?;
        }
        Ok(FairComposition { components, union })
    }

    /// Assembles a composition from components and their precomputed
    /// edge-union — the streaming GCL compiler produces both in one sweep,
    /// so re-deriving the union via repeated [`box_compose`] would double
    /// the work. The caller guarantees `union` equals the box composition
    /// of `components` (the packed compiler's differential tests assert
    /// it).
    pub(crate) fn from_parts(
        components: Vec<FiniteSystem>,
        union: FiniteSystem,
    ) -> Result<Self, SystemError> {
        if components.is_empty() {
            return Err(SystemError::EmptyStateSpace);
        }
        debug_assert!(components
            .iter()
            .all(|c| c.num_states() == union.num_states()));
        Ok(FairComposition { components, union })
    }

    /// The underlying edge-union system (the pure `⊓` of the components).
    pub fn union(&self) -> &FiniteSystem {
        &self.union
    }

    /// The composed components.
    pub fn components(&self) -> &[FiniteSystem] {
        &self.components
    }

    /// Checks "this composition is stabilizing to `a`" over *fair*
    /// computations: every infinite path of the union graph that takes each
    /// component's edges infinitely often eventually takes only legitimate
    /// `a`-transitions.
    pub fn is_stabilizing_to(&self, a: &FiniteSystem) -> StabilizationReport {
        let legitimate = a.reachable_from_init();
        if self.union.num_states() != a.num_states() {
            return StabilizationReport {
                divergent_edge: self.union.edges().iter().next(),
                legitimate_states: legitimate.clone(),
            };
        }
        // One pass over each component's edges marks, per union-SCC, how
        // many components can act inside it (an edge (u, v) is inside its
        // SCC iff scc[u] == scc[v]); one pass over the union's edges then
        // looks for a divergent inner edge of a fully-represented SCC.
        // Replaces the per-SCC edge rescans: O(Σ|E_i| + E) total. The
        // marking runs over disjoint component subsets (one subset per
        // worker, a single one on small spaces) — each component is
        // counted wholly by one subset, so summing the per-subset counts
        // gives the same tally at every worker count.
        let scc = self.union.scc_ids();
        let ncomp = self.components.len();
        let scc_count = self.union.scc_count();
        let workers = crate::par::default_workers(self.union.num_states()).min(ncomp);
        let tasks: Vec<_> = crate::sweep::chunk_ranges(ncomp, workers, 1)
            .into_iter()
            .map(|range| {
                let components = &self.components[range];
                move || {
                    let mut present = vec![0usize; scc_count];
                    let mut last_seen = vec![usize::MAX; scc_count];
                    for (ci, component) in components.iter().enumerate() {
                        for (from, to) in component.edges() {
                            let id = scc[from];
                            if scc[to] == id && last_seen[id] != ci {
                                last_seen[id] = ci;
                                present[id] += 1;
                            }
                        }
                    }
                    present
                }
            })
            .collect();
        let mut partials = crate::sweep::join_all(tasks).into_iter();
        let mut present = partials.next().expect("a composition has components");
        for partial in partials {
            for (sum, part) in present.iter_mut().zip(partial) {
                *sum += part;
            }
        }
        for (from, to) in self.union.edges() {
            let id = scc[from];
            // Fairness: every component must be able to act inside the SCC.
            if scc[to] != id || present[id] != ncomp {
                continue;
            }
            let divergent =
                !(legitimate.contains(from) && legitimate.contains(to) && a.has_edge(from, to));
            if divergent {
                return StabilizationReport {
                    divergent_edge: Some((from, to)),
                    legitimate_states: legitimate.clone(),
                };
            }
        }
        StabilizationReport {
            divergent_edge: None,
            legitimate_states: legitimate.clone(),
        }
    }
}

/// Fair analogue of Theorem 1: if `[C ⇒ A]`, `[W' ⇒ W]`, and the fair
/// composition `A ⊓ W` is stabilizing to `A`, then the fair composition
/// `C ⊓ W'` is stabilizing to `A`.
///
/// (Soundness: any violating SCC of `C ∪ W'` is strongly connected in
/// `A ∪ W` too, contains the same divergent edge, a `W`-edge, and an
/// `A`-edge — contradicting the premise.)
///
/// # Errors
///
/// Returns [`SystemError`] if the systems do not share a state space.
pub fn check_fair_theorem1(
    c: &FiniteSystem,
    a: &FiniteSystem,
    w_prime: &FiniteSystem,
    w: &FiniteSystem,
) -> Result<TheoremOutcome, SystemError> {
    let aw = FairComposition::new(vec![a.clone(), w.clone()])?;
    let premises_hold = everywhere_implements(c, a)
        && everywhere_implements(w_prime, w)
        && aw.is_stabilizing_to(a).holds();
    let cw = FairComposition::new(vec![c.clone(), w_prime.clone()])?;
    Ok(TheoremOutcome {
        premises_hold,
        conclusion_holds: cw.is_stabilizing_to(a).holds(),
    })
}

/// The strongly connected components of a system's edge relation, as
/// state sets in Tarjan completion order (reverse topological). Reads the
/// SCC ids cached on the system at build time.
pub fn strongly_connected_components(sys: &FiniteSystem) -> Vec<BTreeSet<usize>> {
    let mut result = vec![BTreeSet::new(); sys.scc_count()];
    for (state, &id) in sys.scc_ids().iter().enumerate() {
        result[id].insert(state);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(n: usize, init: &[usize], edges: &[(usize, usize)]) -> FiniteSystem {
        FiniteSystem::builder(n)
            .initials(init.iter().copied())
            .edges(edges.iter().copied())
            .build()
            .unwrap()
    }

    #[test]
    fn sccs_of_a_ring_and_a_line() {
        let ring = sys(3, &[0], &[(0, 1), (1, 2), (2, 0)]);
        let sccs = strongly_connected_components(&ring);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0], BTreeSet::from([0, 1, 2]));

        let line = sys(3, &[0], &[(0, 1), (1, 2), (2, 2)]);
        let mut sccs = strongly_connected_components(&line);
        sccs.sort();
        assert_eq!(sccs.len(), 3);
    }

    #[test]
    fn sccs_partition_the_state_space() {
        let s = sys(
            6,
            &[0],
            &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (4, 4), (5, 0)],
        );
        let sccs = strongly_connected_components(&s);
        let mut all: Vec<usize> = sccs.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
        assert!(sccs.contains(&BTreeSet::from([0, 1])));
        assert!(sccs.contains(&BTreeSet::from([2, 3])));
        assert!(sccs.contains(&BTreeSet::from([4])));
        assert!(sccs.contains(&BTreeSet::from([5])));
    }

    #[test]
    fn fairness_lets_the_wrapper_win() {
        let a = sys(2, &[0], &[(0, 0), (1, 1)]);
        let w = sys(2, &[0, 1], &[(0, 0), (1, 0)]);
        let fair = FairComposition::new(vec![a.clone(), w]).unwrap();
        assert!(fair.is_stabilizing_to(&a).holds());
    }

    #[test]
    fn unfair_union_does_not_stabilize() {
        // Same instance, but checked under pure path semantics: the
        // computation that loops 1 -> 1 forever is admitted.
        let a = sys(2, &[0], &[(0, 0), (1, 1)]);
        let w = sys(2, &[0, 1], &[(0, 0), (1, 0)]);
        let union = box_compose(&a, &w).unwrap();
        assert!(!crate::is_stabilizing_to(&union, &a).holds());
    }

    #[test]
    fn divergent_cycle_through_both_components_is_caught() {
        // The wrapper itself participates in a divergent cycle 1 <-> 2:
        // fairness does not save this composition.
        let a = sys(3, &[0], &[(0, 0), (1, 2), (2, 2)]);
        let w = sys(3, &[0], &[(0, 0), (2, 1), (1, 1)]);
        let fair = FairComposition::new(vec![a.clone(), w]).unwrap();
        let report = fair.is_stabilizing_to(&a);
        assert!(!report.holds());
    }

    #[test]
    fn scc_without_wrapper_edge_cannot_violate() {
        // Divergent loop at 1 uses only impl edges; the wrapper's only
        // move at 1 exits to 0. Fairness forces the exit.
        let c = sys(3, &[0], &[(0, 0), (1, 1), (2, 1)]);
        let w = sys(3, &[0], &[(0, 0), (1, 0), (2, 0)]);
        let a = sys(3, &[0], &[(0, 0), (1, 1), (2, 2)]);
        // legit = {0}; SCC {1} has divergent (1,1) but no w-edge inside.
        let fair = FairComposition::new(vec![c, w]).unwrap();
        assert!(fair.is_stabilizing_to(&a).holds());
    }

    #[test]
    fn fair_theorem1_on_a_genuinely_wrapped_instance() {
        // Spec: 0 legit; 1 and 2 corrupt with self-loops allowed.
        let a = sys(3, &[0], &[(0, 0), (1, 1), (2, 2), (1, 0), (2, 0)]);
        // Impl: subset that only self-loops when corrupt.
        let c = sys(3, &[0], &[(0, 0), (1, 1), (2, 2)]);
        // Wrapper: recovery edges (subset of spec's allowed moves? no —
        // the wrapper is its own system; it skips at 0).
        let w = sys(3, &[0, 1, 2], &[(0, 0), (1, 0), (2, 0)]);
        let out = check_fair_theorem1(&c, &a, &w, &w).unwrap();
        assert!(out.exercised());
        assert!(out.conclusion_holds);
        // And the impl alone genuinely is not stabilizing:
        assert!(!crate::is_stabilizing_to(&c, &a).holds());
    }

    #[test]
    fn empty_composition_is_rejected() {
        assert!(FairComposition::new(vec![]).is_err());
    }

    #[test]
    fn union_accessor_is_the_pure_box() {
        let a = sys(2, &[0], &[(0, 1), (1, 0)]);
        let w = sys(2, &[0], &[(0, 0), (1, 1)]);
        let fair = FairComposition::new(vec![a.clone(), w.clone()]).unwrap();
        assert_eq!(fair.union(), &box_compose(&a, &w).unwrap());
        assert_eq!(fair.components().len(), 2);
    }
}
