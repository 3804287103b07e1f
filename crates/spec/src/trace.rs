use graybox_clock::{EventRef, HbRecorder, ProcessId};
use graybox_simnet::{MsgId, Process, SendRecord, SimTime, Simulation, StepKind, StepRecord};
use graybox_tme::{ProcSnapshot, TmeClient, TmeIntrospect, TmeMsg};

/// What a recorded step processed (a flattened [`StepKind`] plus a marker
/// for injected faults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A message delivery.
    Deliver {
        /// Sender recorded on the envelope.
        from: ProcessId,
        /// Unique id of the delivered message instance.
        msg_id: MsgId,
        /// The delivered message.
        payload: TmeMsg,
    },
    /// A timer firing.
    Timer {
        /// The timer's tag.
        tag: u32,
    },
    /// A client event.
    Client {
        /// The event.
        event: TmeClient,
    },
    /// The process's start hook.
    Start,
    /// A scheduled delivery whose message had been dropped/flushed.
    Skipped,
    /// A fault was injected here (recorded by the campaign runner).
    Fault {
        /// Human-readable description of the fault.
        description: String,
    },
}

impl TraceEventKind {
    /// True for fault markers.
    pub fn is_fault(&self) -> bool {
        matches!(self, TraceEventKind::Fault { .. })
    }
}

/// One recorded step: the event, the actions it performed, and a snapshot
/// of **every** process after the step (the trace checkers quantify over
/// global states).
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// Virtual time of the step.
    pub time: SimTime,
    /// The acting (or fault-affected) process.
    pub pid: ProcessId,
    /// What happened.
    pub kind: TraceEventKind,
    /// Messages sent by the handler.
    pub sends: Vec<SendRecord<TmeMsg>>,
    /// Post-step snapshot of every process, indexed by pid.
    pub snapshots: Vec<ProcSnapshot>,
    /// Happened-before handle for the acting process's event (absent for
    /// skips and fault markers).
    pub hb_event: Option<EventRef>,
}

/// A recorded execution: initial snapshots, all steps, and the exact
/// happened-before relation over the events.
#[derive(Debug, Clone)]
pub struct Trace {
    n: usize,
    initial: Vec<ProcSnapshot>,
    steps: Vec<TraceStep>,
    hb: HbRecorder,
}

impl Trace {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Snapshots of the initial state (before any event).
    pub fn initial(&self) -> &[ProcSnapshot] {
        &self.initial
    }

    /// The recorded steps, in execution order.
    pub fn steps(&self) -> &[TraceStep] {
        &self.steps
    }

    /// The happened-before record.
    pub fn hb(&self) -> &HbRecorder {
        &self.hb
    }

    /// Time of the last recorded step ([`SimTime::ZERO`] for empty traces).
    pub fn end_time(&self) -> SimTime {
        self.steps.last().map_or(SimTime::ZERO, |s| s.time)
    }

    /// Time of the last fault marker, if any.
    pub fn last_fault_time(&self) -> Option<SimTime> {
        self.steps
            .iter()
            .rev()
            .find(|s| s.kind.is_fault())
            .map(|s| s.time)
    }

    /// Mutable access to the steps, for tests that fabricate violations.
    #[cfg(test)]
    pub(crate) fn steps_mut(&mut self) -> &mut Vec<TraceStep> {
        &mut self.steps
    }

    /// Iterates over `(previous, current)` global snapshot pairs — the
    /// transitions the UNITY operators quantify over. The first pair is
    /// `(initial, first step)`.
    pub fn transitions(&self) -> impl Iterator<Item = (&[ProcSnapshot], &TraceStep)> {
        let firsts = std::iter::once(self.initial.as_slice())
            .chain(self.steps.iter().map(|s| s.snapshots.as_slice()));
        firsts.zip(self.steps.iter())
    }
}

/// Records a simulation run into a [`Trace`].
///
/// Drive it with [`step`](TraceRecorder::step) /
/// [`run_until`](TraceRecorder::run_until); interleave fault injection and
/// call [`mark_fault`](TraceRecorder::mark_fault) after each injection so
/// the checkers can distinguish convergence from misbehaviour.
#[derive(Debug)]
pub struct TraceRecorder {
    n: usize,
    initial: Vec<ProcSnapshot>,
    steps: Vec<TraceStep>,
    hb: HbRecorder,
}

impl TraceRecorder {
    /// Starts recording: captures the initial snapshots.
    pub fn new<P>(sim: &Simulation<P>) -> Self
    where
        P: Process<Msg = TmeMsg, Client = TmeClient> + TmeIntrospect,
    {
        TraceRecorder {
            n: sim.len(),
            initial: snapshots(sim),
            steps: Vec::new(),
            hb: HbRecorder::new(sim.len()),
        }
    }

    /// Executes one simulation step and records it. Returns `false` when
    /// the simulation had no more events.
    pub fn step<P>(&mut self, sim: &mut Simulation<P>) -> bool
    where
        P: Process<Msg = TmeMsg, Client = TmeClient> + TmeIntrospect,
    {
        let Some(record) = sim.step() else {
            return false;
        };
        self.absorb(sim, record);
        true
    }

    /// Runs the simulation until `limit`, recording every step.
    pub fn run_until<P>(&mut self, sim: &mut Simulation<P>, limit: SimTime)
    where
        P: Process<Msg = TmeMsg, Client = TmeClient> + TmeIntrospect,
    {
        while sim.peek_time().is_some_and(|t| t <= limit) {
            if !self.step(sim) {
                break;
            }
        }
    }

    fn absorb<P>(&mut self, sim: &Simulation<P>, record: StepRecord<TmeClient, TmeMsg>)
    where
        P: Process<Msg = TmeMsg, Client = TmeClient> + TmeIntrospect,
    {
        let StepRecord {
            time,
            pid,
            kind,
            sends,
            ..
        } = record;
        let (kind, hb_event) = match kind {
            StepKind::Deliver {
                from,
                msg_id,
                payload,
            } => (
                TraceEventKind::Deliver {
                    from,
                    msg_id,
                    payload,
                },
                Some(self.hb.receive_event(pid, msg_id)),
            ),
            StepKind::Timer { tag } => (
                TraceEventKind::Timer { tag },
                Some(self.hb.local_event(pid)),
            ),
            StepKind::Client { event } => (
                TraceEventKind::Client { event },
                Some(self.hb.local_event(pid)),
            ),
            StepKind::Start => (TraceEventKind::Start, Some(self.hb.local_event(pid))),
            StepKind::Skipped => (TraceEventKind::Skipped, None),
        };
        for send in &sends {
            self.hb.send_event(pid, send.msg_id);
        }
        self.steps.push(TraceStep {
            time,
            pid,
            kind,
            sends,
            snapshots: snapshots(sim),
            hb_event,
        });
    }

    /// Records a fault marker: call right after injecting a fault so the
    /// post-fault state is snapshotted and checkers can scope their
    /// verdicts.
    pub fn mark_fault<P>(&mut self, sim: &Simulation<P>, pid: ProcessId, description: String)
    where
        P: Process<Msg = TmeMsg, Client = TmeClient> + TmeIntrospect,
    {
        self.steps.push(TraceStep {
            time: sim.now(),
            pid,
            kind: TraceEventKind::Fault { description },
            sends: Vec::new(),
            snapshots: snapshots(sim),
            hb_event: None,
        });
    }

    /// Clones the recording so far into a [`Trace`] without ending the
    /// recording (used to check properties mid-run).
    pub fn clone_trace(&self) -> Trace {
        Trace {
            n: self.n,
            initial: self.initial.clone(),
            steps: self.steps.clone(),
            hb: self.hb.clone(),
        }
    }

    /// Finishes recording.
    pub fn into_trace(self) -> Trace {
        Trace {
            n: self.n,
            initial: self.initial,
            steps: self.steps,
            hb: self.hb,
        }
    }
}

fn snapshots<P>(sim: &Simulation<P>) -> Vec<ProcSnapshot>
where
    P: Process<Msg = TmeMsg, Client = TmeClient> + TmeIntrospect,
{
    sim.processes().map(TmeIntrospect::snapshot).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graybox_simnet::SimConfig;
    use graybox_tme::{Implementation, Mode, TmeProcess};

    fn recorded_run(seed: u64) -> Trace {
        let n = 2;
        let procs = (0..n)
            .map(|i| TmeProcess::new(Implementation::RicartAgrawala, ProcessId(i), n as usize))
            .collect();
        let mut sim = Simulation::new(procs, SimConfig::with_seed(seed));
        sim.schedule_client(
            SimTime::from(1),
            ProcessId(0),
            TmeClient::Request { eat_for: 4 },
        );
        let mut recorder = TraceRecorder::new(&sim);
        recorder.run_until(&mut sim, SimTime::from(300));
        recorder.into_trace()
    }

    #[test]
    fn trace_has_initial_and_steps() {
        let trace = recorded_run(1);
        assert_eq!(trace.n(), 2);
        assert_eq!(trace.initial().len(), 2);
        assert!(!trace.steps().is_empty());
        assert!(trace.end_time() > SimTime::ZERO);
        assert_eq!(trace.last_fault_time(), None);
    }

    #[test]
    fn snapshots_track_mode_changes() {
        let trace = recorded_run(2);
        let modes: Vec<Mode> = trace.steps().iter().map(|s| s.snapshots[0].mode).collect();
        assert!(modes.contains(&Mode::Hungry));
        assert!(modes.contains(&Mode::Eating));
        assert_eq!(*modes.last().unwrap(), Mode::Thinking);
    }

    #[test]
    fn transitions_pair_consecutive_states() {
        let trace = recorded_run(3);
        let mut count = 0;
        for (before, step) in trace.transitions() {
            assert_eq!(before.len(), 2);
            assert_eq!(step.snapshots.len(), 2);
            count += 1;
        }
        assert_eq!(count, trace.steps().len());
    }

    #[test]
    fn hb_orders_send_before_receive() {
        let trace = recorded_run(4);
        // Find a delivery and the step that sent that message.
        for step in trace.steps() {
            if let TraceEventKind::Deliver { msg_id, .. } = &step.kind {
                let sender_step = trace
                    .steps()
                    .iter()
                    .find(|s| s.sends.iter().any(|send| send.msg_id == *msg_id));
                if let (Some(sender), Some(recv_ev)) = (sender_step, step.hb_event) {
                    if let Some(send_ev) = sender.hb_event {
                        assert!(trace.hb().happened_before(send_ev, recv_ev));
                    }
                }
            }
        }
    }

    #[test]
    fn fault_markers_are_recorded() {
        let n = 2;
        let procs: Vec<TmeProcess> = (0..n)
            .map(|i| TmeProcess::new(Implementation::Lamport, ProcessId(i), n as usize))
            .collect();
        let mut sim = Simulation::new(procs, SimConfig::with_seed(5));
        let mut recorder = TraceRecorder::new(&sim);
        recorder.run_until(&mut sim, SimTime::from(10));
        recorder.mark_fault(&sim, ProcessId(0), "test corruption".into());
        let trace = recorder.into_trace();
        assert!(trace.last_fault_time().is_some());
        assert!(trace.steps().last().unwrap().kind.is_fault());
    }
}
