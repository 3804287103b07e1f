//! Static analysis over the GCL expression IR.
//!
//! The `graybox-core` packed compiler executes commands; this crate reads
//! them. Every pass consumes the [`graybox_core::gcl::ir`] syntax trees
//! attached to a [`Program`](graybox_core::gcl::Program) via
//! `Program::command_ir`, so analysis never enumerates states — linting
//! the 7.5M-state 3-process TME abstraction takes microseconds.
//!
//! Five passes:
//!
//! 1. [`footprint`] — per-command may-read/may-write variable sets,
//!    inferred from the syntax tree.
//! 2. [`locality`] — checks every command against a variable-to-process
//!    [`Partition`]. A program that passes is a
//!    conjunction of per-process components, which is the syntactic side
//!    of the paper's "local everywhere specification" decomposition
//!    (Lemmas 2–3): each process's commands touch only variables its
//!    process may see, so `A = ⊓ᵢ Aᵢ` splits along the partition.
//! 3. [`wrapper`] — graybox-admissibility lint (§2 of the paper): a
//!    wrapper observes and corrects the *specification* state only, so
//!    wrapper commands must read and write spec-visible variables
//!    exclusively — never ground-truth ghosts such as the TME request
//!    order.
//! 4. [`interference`] — write/write and read/write conflicts between
//!    wrapper and program commands, the static counterpart of the §2.2
//!    two-level optimistic design question "where may the wrapper race
//!    the program it corrects?".
//! 5. [`absint`] — abstract interpretation over mixed-radix interval
//!    domains: dead commands (unsatisfiable guards), stutter-only
//!    effects, out-of-domain writes, table overruns, zero moduli.
//!
//! On top of the passes sits the **convergence certifier** — the first
//! non-enumerative stabilization verdict in the repo:
//!
//! * [`wp`] — weakest-precondition/strongest-postcondition transformers
//!   over the IR, a predicate language with counting terms, and a
//!   two-stage implication decider (interval fast path, then bounded
//!   support-cone enumeration).
//! * [`stair`] — checks a convergence stair `Σ = S₀ ⊇ … ⊇ S_k = legit`
//!   over the 648-point pair-projection cone: closed levels plus
//!   ranked regions whose designated commands strictly descend.
//! * [`param`] — the parametric-n discharge: symmetry transitivity,
//!   projection reduction at a representative n, order-preservation
//!   tables, and the counting case — lifting a pair-cone certificate
//!   to every n ≥ 2.
//! * [`tme::stair_cert`] — the flagship level-2 TME stair certificate
//!   and its deliberately broken mutants.
//!
//! [`report`] aggregates findings into a machine-readable [`Report`]
//! (hand-rolled JSON; the workspace is dependency-free), and [`tme`]
//! wires the passes to the n-process TME abstraction shipped by
//! `graybox-core`. The `graybox-lint` binary fronts all of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod footprint;
pub mod interference;
pub mod locality;
pub mod param;
pub mod report;
pub mod stair;
pub mod tme;
pub mod wp;
pub mod wrapper;

pub use absint::{diagnose_command, diagnose_program, CommandDiagnosis, Interval};
pub use footprint::{command_footprint, program_footprints, Footprint};
pub use interference::{check_interference, Conflict, ConflictKind};
pub use locality::{check_locality, Access, LocalityViolation, Partition, VarClass};
pub use report::{render_and_exit, Finding, Report, Severity};
pub use stair::{check_stair, PairDynamics, StairCertificate, StairStats};
pub use tme::stair_cert::{certify_tme, tme_stair_certificate, CertifyTarget};
pub use tme::{lint_tme, run_all_passes, ModelShape};
pub use wp::{implication, sp_command, sp_stmts, wp_command, wp_stmts, Decision, Pred};
pub use wrapper::{check_wrapper_footprint, WrapperViolation};
