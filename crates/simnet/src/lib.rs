//! # Deterministic discrete-event simulation substrate
//!
//! The system model of *"Graybox Stabilization"* (DSN 2001) §3.1: processes
//! communicate solely by message passing over interprocess channels,
//! execution is asynchronous (every process at its own speed, arbitrary but
//! finite transmission delays), channels are FIFO (Environment Spec /
//! Communication Spec), and the fault model allows messages to be
//! corrupted, lost, or duplicated at any time, and process or channel state
//! to be improperly initialized or transiently and arbitrarily corrupted.
//!
//! This crate implements that model as a **single-threaded, seeded,
//! deterministic** discrete-event simulator: one `u64` seed fixes message
//! delays exactly, so every experiment in the workspace is reproducible.
//! (We deliberately do not use OS threads or async runtimes — real
//! concurrency would destroy the reproducibility of fault schedules.)
//!
//! * [`Process`] — the event-driven process interface (messages, timers,
//!   client events) with an action-collecting [`Context`].
//! * [`Simulation`] — the event loop: FIFO channels with pseudo-random
//!   per-message delays, per-step [`StepRecord`]s for trace checkers.
//! * Fault injection — [`Simulation::drop_message`],
//!   [`Simulation::duplicate_message`], [`Simulation::corrupt_message`],
//!   [`Simulation::inject_message`], [`Simulation::flush_channel`], and
//!   [`Corruptible`] for arbitrary transient state corruption.
//!
//! # Example
//!
//! ```
//! use graybox_clock::ProcessId;
//! use graybox_simnet::{Context, Process, SimConfig, Simulation};
//!
//! /// A process that echoes every message back to its sender.
//! struct Echo(ProcessId);
//!
//! impl Process for Echo {
//!     type Msg = String;
//!     type Client = ();
//!     fn id(&self) -> ProcessId { self.0 }
//!     fn on_message(&mut self, from: ProcessId, msg: String, ctx: &mut Context<String>) {
//!         if msg == "ping" { ctx.send(from, "pong".to_string()); }
//!     }
//!     fn on_timer(&mut self, _tag: u32, _ctx: &mut Context<String>) {}
//!     fn on_client(&mut self, _event: (), _ctx: &mut Context<String>) {}
//! }
//!
//! let mut sim = Simulation::new(vec![Echo(ProcessId(0)), Echo(ProcessId(1))], SimConfig::default());
//! sim.inject_message(ProcessId(1), ProcessId(0), "ping".to_string());
//! let records = sim.run_until(1_000.into());
//! assert!(records.len() >= 2); // the ping and the pong
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chanmap;
mod channel;
mod corrupt;
pub mod failpoint;
pub mod oplog;
mod process;
pub mod queue;
mod record;
pub mod replay;
mod sim;
mod time;

pub use chanmap::ChannelView;
pub use channel::{Envelope, MsgId};
pub use corrupt::Corruptible;
pub use failpoint::FailpointRegistry;
pub use oplog::{DrawStream, Op, OpLog};
pub use process::{Context, Process, TimerTag, TimerTagExt};
pub use queue::{EventQueue, PackedEvent, TimerWheel};
pub use record::{SendRecord, StepKind, StepRecord};
pub use replay::{ReplayCursor, ReplayError};
pub use sim::{SimConfig, SimStats, Simulation};
pub use time::SimTime;
