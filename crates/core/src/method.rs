//! The §2.2 graybox design method: level-1 and level-2 wrappers.
//!
//! *"In any system that consists of multiple processes, faults occur at
//! two levels: (1) internal to a process, or (2) in the interface between
//! processes. We may deal with these two levels separately."* (§2.2)
//!
//! * A **level-1 wrapper** is a *local* wrapper `W_i` over process `i`'s
//!   own state: it restores the process to an internally consistent state.
//!   [`synthesize_level1`] builds one per process by applying the reset
//!   synthesis of [`crate::synthesis`] to each local specification, and
//!   lifts them to the global space via [`LocalFamily`].
//! * A **level-2 wrapper** is a *global* wrapper restoring mutual
//!   consistency between processes. Per the paper it is designed
//!   *optimistically*: it assumes internal consistency and only handles
//!   states whose components are all locally legitimate —
//!   [`synthesize_level2`] skips (stutters) everywhere else, trusting the
//!   level-1 wrappers to get it there.
//!
//! [`TwoLevelDesign::verify`] checks the complete method: the weakly fair
//! composition of the system with all level-1 wrappers and the level-2
//! wrapper must stabilize to the target specification. The tests carry the
//! paper's moral as a worked instance: level-1 alone cannot fix mutual
//! inconsistency, the optimistic level-2 alone cannot fix internal
//! corruption, and the two together stabilize.

use crate::fairness::FairComposition;
use crate::synthesis::{stutter_closure, synthesize_reset_wrapper};
use crate::theorems::LocalFamily;
use crate::{FiniteSystem, StateSet, SystemError};

/// A §2.2 design: per-process level-1 wrappers (already lifted to the
/// global space) plus one global level-2 wrapper.
#[derive(Debug, Clone)]
pub struct TwoLevelDesign {
    level1: Vec<FiniteSystem>,
    level2: FiniteSystem,
}

impl TwoLevelDesign {
    /// Assembles a design from lifted level-1 wrappers and a level-2
    /// wrapper.
    pub fn new(level1: Vec<FiniteSystem>, level2: FiniteSystem) -> Self {
        TwoLevelDesign { level1, level2 }
    }

    /// The lifted level-1 wrappers.
    pub fn level1(&self) -> &[FiniteSystem] {
        &self.level1
    }

    /// The level-2 wrapper.
    pub fn level2(&self) -> &FiniteSystem {
        &self.level2
    }

    /// Verifies the method: the weakly fair composition of `system` with
    /// every wrapper of this design stabilizes to the stuttering closure
    /// of `target`.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] if the systems do not share a state space.
    pub fn verify(
        &self,
        system: &FiniteSystem,
        target: &FiniteSystem,
    ) -> Result<bool, SystemError> {
        let mut components = vec![system.clone()];
        components.extend(self.level1.iter().cloned());
        components.push(self.level2.clone());
        let fair = FairComposition::new(components)?;
        Ok(fair.is_stabilizing_to(&stutter_closure(target)).holds())
    }
}

/// Synthesizes the level-1 wrappers for a family of local specifications:
/// per process, the local reset wrapper (illegitimate local states jump to
/// the local initial state), lifted to the global space.
///
/// # Errors
///
/// Returns [`SystemError`] if the family is malformed.
pub fn synthesize_level1(family: &LocalFamily) -> Result<Vec<FiniteSystem>, SystemError> {
    let local_wrappers: Vec<FiniteSystem> = (0..family.len())
        .map(|i| synthesize_reset_wrapper(family.local(i)))
        .collect();
    let wrapper_family = LocalFamily::new(local_wrappers);
    (0..wrapper_family.len())
        .map(|i| wrapper_family.lift(i))
        .collect()
}

/// Synthesizes the optimistic level-2 wrapper: among global states whose
/// components are **all locally legitimate**, illegitimate-for-the-target
/// states get a recovery edge to a canonical target-initial state; every
/// other state (including internally inconsistent ones) just stutters —
/// "the level (2) wrapper optimistically … assum\[es\] that the processes
/// are in internally consistent states" (§2.2).
///
/// # Errors
///
/// Returns [`SystemError`] if the spaces disagree.
pub fn synthesize_level2(
    family: &LocalFamily,
    target: &FiniteSystem,
) -> Result<FiniteSystem, SystemError> {
    let total = family.global_states();
    if total != target.num_states() {
        return Err(SystemError::StateOutOfRange {
            state: total.max(target.num_states()) - 1,
            num_states: total.min(target.num_states()),
        });
    }
    let locally_legit: Vec<&StateSet> = (0..family.len())
        .map(|i| family.local(i).reachable_from_init())
        .collect();
    let internally_consistent = |global: usize| {
        family
            .decode(global)
            .iter()
            .zip(&locally_legit)
            .all(|(part, legit)| legit.contains(part))
    };
    let target_legit = target.reachable_from_init();
    let recovery = target
        .init()
        .iter()
        .next()
        .ok_or(SystemError::EmptyStateSpace)?;
    let mut builder = FiniteSystem::builder(total);
    for state in 0..total {
        builder = builder.initial(state);
        if internally_consistent(state) && !target_legit.contains(state) {
            builder = builder.edge(state, recovery);
        } else {
            builder = builder.edge(state, state);
        }
    }
    builder.build()
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

    /// The worked instance. Each process holds a bit-with-corruption:
    /// local states {0, 1, 2}, where 2 is internally corrupt; the local
    /// spec allows staying at 0 or 1 (both locally legitimate) and demands
    /// nothing at 2. Globally, the *target* is agreement: legitimate
    /// states are (0,0) and (1,1), where the pair may toggle together.
    fn local_spec() -> FiniteSystem {
        sys(3, &[0, 1], &[(0, 0), (1, 1), (2, 2)])
    }

    fn family() -> LocalFamily {
        LocalFamily::new(vec![local_spec(), local_spec()])
    }

    /// Global target over the 9-state product (mixed radix, component 0
    /// least significant): agreement states (0,0)=0 and (1,1)=4 toggle
    /// together; everything else is illegitimate.
    fn agreement_target() -> FiniteSystem {
        let f = family();
        let encode = |a: usize, b: usize| f.encode(&[a, b]);
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
        builder.build().unwrap()
    }

    /// The "implementation": each process just sits on its current value
    /// (an everywhere implementation of its local spec — and of nothing
    /// more). Composed over the family.
    fn system() -> FiniteSystem {
        family().compose().unwrap()
    }

    #[test]
    fn level1_alone_cannot_fix_mutual_inconsistency() {
        let level1 = synthesize_level1(&family()).unwrap();
        let design = TwoLevelDesign::new(level1, idle_wrapper());
        // State (0,1) is internally consistent everywhere but globally
        // illegitimate; level-1 wrappers skip there forever.
        assert!(!design.verify(&system(), &agreement_target()).unwrap());
    }

    #[test]
    fn optimistic_level2_alone_cannot_fix_internal_corruption() {
        let level2 = synthesize_level2(&family(), &agreement_target()).unwrap();
        let design = TwoLevelDesign::new(vec![], level2);
        // State (2,0) has an internally corrupt component; the optimistic
        // level-2 wrapper stutters there by design.
        assert!(!design.verify(&system(), &agreement_target()).unwrap());
    }

    #[test]
    fn the_two_levels_together_stabilize() {
        let level1 = synthesize_level1(&family()).unwrap();
        let level2 = synthesize_level2(&family(), &agreement_target()).unwrap();
        let design = TwoLevelDesign::new(level1.clone(), level2);
        assert!(design.verify(&system(), &agreement_target()).unwrap());
        assert_eq!(design.level1().len(), 2);
        assert!(design.level2().num_states() == 9);
    }

    #[test]
    fn level1_wrappers_only_touch_their_component() {
        let level1 = synthesize_level1(&family()).unwrap();
        let f = family();
        for (i, wrapper) in level1.iter().enumerate() {
            for (from, to) in wrapper.edges() {
                let (pf, pt) = (f.decode(from), f.decode(to));
                for (component, (a, b)) in pf.iter().zip(&pt).enumerate() {
                    if component != i {
                        assert_eq!(a, b, "level-1 wrapper {i} touched component {component}");
                    }
                }
            }
        }
    }

    #[test]
    fn level2_wrapper_stutters_at_internally_corrupt_states() {
        let f = family();
        let level2 = synthesize_level2(&f, &agreement_target()).unwrap();
        let corrupt = f.encode(&[2, 0]);
        let succ: Vec<usize> = level2.successors(corrupt).collect();
        assert_eq!(succ, vec![corrupt], "optimism violated");
        // But it does act at the mutually inconsistent (0,1):
        let mixed = f.encode(&[0, 1]);
        let succ: Vec<usize> = level2.successors(mixed).collect();
        assert_eq!(succ, vec![f.encode(&[0, 0])]);
    }

    fn idle_wrapper() -> FiniteSystem {
        let mut builder = FiniteSystem::builder(9);
        for state in 0..9 {
            builder = builder.initial(state).edge(state, state);
        }
        builder.build().unwrap()
    }

    #[test]
    fn mismatched_spaces_are_rejected() {
        let small_target = sys(2, &[0], &[(0, 0), (1, 0)]);
        assert!(synthesize_level2(&family(), &small_target).is_err());
    }
}
