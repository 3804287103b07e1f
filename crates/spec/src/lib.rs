//! # Trace-level checkers for `Lspec` and `TME_Spec`
//!
//! The paper proves its theorems over UNITY specifications; this crate
//! *checks* them over executions of the simulated system. The central idea
//! is that **violations during convergence are data, not errors**: the
//! definition of stabilization only demands that every computation have a
//! *suffix* satisfying the specification, so every checker reports *when*
//! violations happen and the analysis layer locates the converged suffix.
//!
//! * [`TraceRecorder`] drives a simulation step by step, snapshotting every
//!   process after each event and maintaining an exact happened-before
//!   record (vector clocks) on the side.
//! * [`lspec`] checks each conjunct of the paper's local everywhere
//!   specification (Structural/Flow/CS of Client Spec; Request, Reply,
//!   CS Entry, CS Release of Program Spec; Timestamp and FIFO of
//!   Environment Spec), plus the invariant **I** of Theorem A.1.
//! * [`tme_spec`] checks `TME_Spec` itself: ME1 (mutual exclusion), ME2
//!   (starvation freedom), ME3 (first-come first-serve, decided with real
//!   happened-before, not wall-clock order).
//! * [`convergence`] locates the converged suffix after the last injected
//!   fault and computes convergence times for the experiments.
//!
//! # Example
//!
//! ```
//! use graybox_clock::ProcessId;
//! use graybox_simnet::{SimConfig, SimTime, Simulation};
//! use graybox_spec::{tme_spec, TraceRecorder};
//! use graybox_tme::{Implementation, TmeProcess, Workload, WorkloadConfig};
//!
//! let n = 3;
//! let procs = (0..n).map(|i| TmeProcess::new(Implementation::RicartAgrawala, ProcessId(i), n as usize)).collect();
//! let mut sim = Simulation::new(procs, SimConfig::with_seed(5));
//! Workload::generate(WorkloadConfig::default(), 5).apply(&mut sim);
//! let mut recorder = TraceRecorder::new(&sim);
//! recorder.run_until(&mut sim, SimTime::from(2_000));
//! let trace = recorder.into_trace();
//! assert!(tme_spec::check_me1(&trace).violations.is_empty()); // fault-free ⇒ mutual exclusion
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergence;
pub mod lspec;
pub mod metrics;
pub mod report;
pub mod temporal;
pub mod tme_spec;
mod trace;

pub use trace::{Trace, TraceEventKind, TraceRecorder, TraceStep};
