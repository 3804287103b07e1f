//! # Graybox stabilization: the formal framework, executable
//!
//! This crate implements §2 of *"Graybox Stabilization"* (Arora, Demirbas,
//! Kulkarni; DSN 2001) as an explicit-state model-checking library.
//!
//! ## Fusion closure makes the theory decidable
//!
//! The paper defines a *system* as a set of (possibly infinite) state
//! sequences over a state space Σ, with at least one computation starting
//! from every state, and assumes computations are **fusion closed**. Over a
//! finite Σ, a fusion-closed computation set is exactly the set of paths of
//! a directed graph whose every state has at least one successor. So a
//! system *is* a pair `(init ⊆ Σ, E ⊆ Σ×Σ)` — the [`FiniteSystem`] type —
//! and the paper's relations become graph algorithms:
//!
//! | paper | here | algorithm |
//! |---|---|---|
//! | `[C ⇒ A]_init` | [`implements_from_init`] | init inclusion + reachable edge inclusion |
//! | `[C ⇒ A]` | [`everywhere_implements`] | edge inclusion |
//! | `C ⊓ W` (box) | [`box_compose`] | edge union, init intersection |
//! | `C` stabilizing to `A` | [`is_stabilizing_to`] | no cycle of `C` crosses an edge outside `A`'s init-reachable subgraph |
//!
//! [`figure1`] reconstructs the paper's counterexample; [`theorems`] checks
//! Lemma 0 / Theorems 1 and 4 on concrete instances; [`gcl`] provides the
//! guarded-command language the paper uses for implementations; [`unity`]
//! provides `unless` / `stable` / `invariant` / `leads-to` over finite
//! systems; [`dijkstra`] exercises the framework on the classic K-state
//! token ring; [`tme_abstract`] model-checks the paper's TME case study
//! exhaustively, with [`tme_abstract::build_n`]`(2)` as its 2-process
//! case. [`reference`](mod@reference) is the one differential oracle for
//! the CSR engine: the original `BTreeSet` representation, which the
//! property tests and `graybox-bench` run against [`FiniteSystem`].
//!
//! ## Example: the Figure 1 counterexample
//!
//! ```
//! use graybox_core::{everywhere_implements, figure1, implements_from_init, is_stabilizing_to};
//!
//! let (a, c) = figure1::systems();
//! assert!(implements_from_init(&c, &a));       // [C ⇒ A]_init holds …
//! assert!(is_stabilizing_to(&a, &a).holds());  // … and A is stabilizing to A …
//! assert!(!is_stabilizing_to(&c, &a).holds()); // … yet C is NOT stabilizing to A.
//! assert!(!everywhere_implements(&c, &a));     // because C is not an everywhere implementation.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod compose;
pub mod dijkstra;
pub mod fairness;
pub mod figure1;
pub mod gcl;
pub mod method;
mod par;
pub mod randsys;
pub mod reference;
mod relations;
pub mod sweep;
pub mod synthesis;
mod system;
pub mod theorems;
pub mod tme_abstract;
pub mod tolerance;
pub mod unity;

pub use bitset::StateSet;
pub use compose::box_compose;
pub use relations::{
    everywhere_implements, implements_from_init, is_stabilizing_to, StabilizationReport,
};
pub use system::{Edges, FiniteSystem, SystemBuilder, SystemError};
