//! # Differential oracles for the graybox engines
//!
//! Each production engine in the workspace has one slow, obviously
//! correct twin here, and the differential suites check the engine
//! against it:
//!
//! | oracle | checks |
//! |---|---|
//! | [`system::ReferenceSystem`] — the original `BTreeSet` engine | the CSR [`graybox_core::FiniteSystem`] and its stabilization decider |
//! | [`gcl::Program`] — the decode/encode GCL compiler | the packed [`graybox_core::gcl::Program`] pipeline |
//! | [`tme::program_nproc_reference`] — the TME model in that DSL | the IR model [`graybox_core::tme_abstract::program_nproc_ir`] |
//! | [`queue::HeapQueue`] — one global min-heap scheduler | the simulator's [`graybox_simnet::TimerWheel`] |
//!
//! The crate is not published. It is a dev-dependency of the suites that
//! compare against an oracle and a normal dependency of `graybox-bench`
//! alone, which times each engine against its oracle. No production
//! crate links it.
//!
//! The oracles share no code with the engines they check: the DSL has
//! its own variable handles and permutation tables, and the heap
//! scheduler its own min-heap, so a bug in shared code cannot show up
//! identically on both sides of a comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gcl;
pub mod queue;
pub mod system;
pub mod tme;
