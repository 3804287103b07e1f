//! # Fault injection campaigns for graybox stabilization
//!
//! The paper's fault model (§3.1): "messages \[may\] be corrupted, lost, or
//! duplicated at any time. Moreover, processes (respectively channels) can
//! be improperly initialized, fail, recover, or their state could be
//! transiently (and arbitrarily) corrupted at any time." Stabilization is
//! required notwithstanding any *finite* number of such faults.
//!
//! This crate turns that model into reproducible experiments:
//!
//! * [`FaultKind`] — one variant per fault class in the paper's list,
//!   each injected by one arm of a `match` and firing one failpoint site;
//! * [`FaultPlan`] — a seeded schedule of [`FaultEvent`]s (a kind at a
//!   virtual time) over a time window;
//! * [`run_campaign`] / [`replay_campaign`] — the campaign runner:
//!   build a (possibly wrapped) TME system, apply workload and faults,
//!   record trace + operation log, analyze convergence — and re-execute
//!   any recorded run bit-exactly ([`run_tme`] / [`run_tme_trace`] skip
//!   the recording);
//! * [`shrink`](shrink()) — delta-debug a failing fault schedule down to
//!   a minimal still-failing counterexample, [`repro`]-serializable;
//! * [`scenarios`] — hand-crafted scenarios, most importantly the §4
//!   deadlock (both requests dropped ⇒ mutually inconsistent `j.REQ_k`).
//!
//! # Example
//!
//! ```
//! use graybox_faults::{run_tme, FaultKind, FaultPlan, RunConfig};
//! use graybox_tme::Implementation;
//! use graybox_wrapper::WrapperConfig;
//!
//! let config = RunConfig::new(3, Implementation::RicartAgrawala)
//!     .wrapper(WrapperConfig::timeout(8))
//!     .faults(FaultPlan::random_mix(7, (50, 150), 5, &FaultKind::ALL))
//!     .seed(7);
//! let outcome = run_tme(&config);
//! assert!(outcome.verdict.stabilized);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod injector;
mod plan;
pub mod repro;
mod reset;
/// The campaign runner: build, fault, record, analyze (see [`run_tme`]).
pub mod runner;
pub mod scenarios;
mod shrink;

pub use plan::{FaultEvent, FaultKind, FaultPlan};
pub use reset::Resettable;
pub use runner::{
    build_sim, replay_campaign, run_campaign, run_tme, run_tme_trace, CampaignRun, RunConfig,
    RunOutcome, Verdict, Wrapped,
};
pub use shrink::{failed, shrink, ShrinkOutcome};
