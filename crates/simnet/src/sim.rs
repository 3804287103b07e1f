use graybox_clock::ProcessId;
use graybox_rng::rngs::SmallRng;
use graybox_rng::{Rng, RngCore, SeedableRng};

use crate::chanmap::{ChannelStore, ChannelView};
use crate::failpoint::{self, FailpointRegistry};
use crate::oplog::{DrawStream, OpLog};
use crate::queue::{EvTag, EventQueue, PackedEvent, TimerWheel};
use crate::replay::{ReplayCursor, ReplayError};
use crate::{
    Context, Corruptible, Envelope, HeapQueue, MsgId, Process, SendRecord, SimTime, StepKind,
    StepRecord, TimerTag,
};

/// Configuration of a simulation run.
///
/// `seed` drives *all* pseudo-randomness (message delays and fault
/// randomness), making runs bit-for-bit reproducible. Message delays are
/// drawn uniformly from `min_delay..=max_delay` ticks, modelling the
/// paper's "arbitrary but finite transmission delays".
///
/// # Delay invariant
///
/// A *normalized* config has `min_delay >= 1` (a zero-tick delivery would
/// let a message loop freeze virtual time, like a zero-delay timer) and
/// `max_delay >= min_delay` (a non-empty uniform range). Arbitrary field
/// values are accepted — [`Simulation::new`] normalizes via
/// [`SimConfig::normalized`], so the degenerate `(0, 0)` behaves exactly
/// like `(1, 1)` — but code sampling delays asserts the invariant in
/// debug builds rather than re-clamping silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Seed for the simulation's RNG.
    pub seed: u64,
    /// Minimum message delay in ticks (normalized to at least 1; see the
    /// type-level delay invariant).
    pub min_delay: u64,
    /// Maximum message delay in ticks (normalized to at least
    /// `min_delay`; see the type-level delay invariant).
    pub max_delay: u64,
    /// Whether channels deliver in FIFO order (the paper's Communication
    /// Spec). Setting this to `false` delivers a *random* in-flight
    /// message per delivery event — for ablating how load-bearing the
    /// FIFO assumption is (experiment T10).
    pub fifo: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            min_delay: 1,
            max_delay: 8,
            fifo: true,
        }
    }
}

impl SimConfig {
    /// A config with the given seed and default delays.
    pub fn with_seed(seed: u64) -> Self {
        SimConfig {
            seed,
            ..Self::default()
        }
    }

    /// Returns this config with the delay invariant enforced:
    /// `min_delay` raised to at least 1, `max_delay` raised to at least
    /// `min_delay`. Identity for configs already satisfying it.
    pub fn normalized(&self) -> Self {
        let min_delay = self.min_delay.max(1);
        SimConfig {
            min_delay,
            max_delay: self.max_delay.max(min_delay),
            ..*self
        }
    }

    /// The `(min, max)` delay bounds.
    ///
    /// # Panics
    ///
    /// Debug-asserts the delay invariant (the config is
    /// [`normalized`](SimConfig::normalized)) instead of re-clamping
    /// silently; [`Simulation::new`] normalizes its config up front.
    pub fn delay_range(&self) -> (u64, u64) {
        debug_assert_eq!(
            self.normalized(),
            *self,
            "delay_range requires a normalized SimConfig (Simulation::new normalizes)"
        );
        (self.min_delay, self.max_delay)
    }
}

/// Cumulative delivery statistics of a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages sent by processes (incl. wrappers), plus injected ones.
    pub sent: u64,
    /// Messages delivered to handlers.
    pub delivered: u64,
    /// Scheduled deliveries that found their channel empty (message was
    /// dropped/flushed).
    pub skipped: u64,
}

/// How the simulation sources and witnesses nondeterminism.
///
/// `Idle` is the default: draws come straight from the seeded RNG and
/// failpoint firings only bump counters. `Record` additionally appends
/// every draw, scheduler pop, and failpoint firing to an [`OpLog`].
/// `Replay` substitutes recorded draw values for the RNG and verifies
/// pops and firings against the log.
#[derive(Debug)]
enum EntropyMode {
    Idle,
    Record(OpLog),
    Replay(ReplayCursor),
}

/// An [`RngCore`] view over the simulation's entropy: passes the live RNG
/// through in `Idle`, logs raw draws in `Record`, substitutes recorded
/// draws in `Replay`. Used to drive [`Corruptible`] injectors.
struct EntropyRng<'a, R: RngCore> {
    live: &'a mut R,
    entropy: &'a mut EntropyMode,
    stream: DrawStream,
}

impl<R: RngCore> RngCore for EntropyRng<'_, R> {
    fn next_u64(&mut self) -> u64 {
        match &mut *self.entropy {
            EntropyMode::Idle => self.live.next_u64(),
            EntropyMode::Record(log) => {
                let value = self.live.next_u64();
                log.push_draw(self.stream, value);
                value
            }
            EntropyMode::Replay(cursor) => cursor.next_draw_raw(self.stream),
        }
    }
}

/// Draws one value in `lo..=hi` from `live`, logging or substituting it
/// according to `entropy`. Free function so callers can destructure
/// `Simulation` around other field borrows.
fn ranged_draw<R: RngCore>(
    entropy: &mut EntropyMode,
    live: &mut R,
    stream: DrawStream,
    lo: u64,
    hi: u64,
) -> u64 {
    match entropy {
        EntropyMode::Replay(cursor) => cursor.next_draw_ranged(stream, lo, hi),
        mode => {
            let value = live.gen_range(lo..=hi);
            if let EntropyMode::Record(log) = mode {
                log.push_draw(stream, value);
            }
            value
        }
    }
}

/// The deterministic discrete-event simulator.
///
/// Owns the processes, sparse FIFO channel storage over the active
/// `(from, to)` pairs (see [`crate::chanmap`]), and the scheduler queue.
/// The queue engine is pluggable through the `Q` type parameter: the
/// default is the [`TimerWheel`] (O(1) slot pushes, batched per-tick
/// delivery); [`HeapQueue`] — aliased as [`ReferenceSimulation`] — is
/// the retained O(log E) reference twin, differentially tested against
/// the wheel. Both pop in identical `(time, seq)` order, so the engine
/// choice is invisible to protocols, oplogs, and replay.
///
/// Every source of nondeterminism — message delays, non-FIFO delivery
/// picks, corruption entropy, fault targeting — routes through a single
/// entropy layer that can record an [`OpLog`] of the run
/// ([`Simulation::start_recording`]) or re-execute one bit-exactly
/// ([`Simulation::begin_replay`]). Every fault-injection primitive fires
/// a named failpoint (see [`crate::failpoint`]) counted in the run's
/// [`FailpointRegistry`].
#[derive(Debug)]
pub struct Simulation<P: Process, Q: EventQueue = TimerWheel> {
    processes: Vec<P>,
    channels: ChannelStore<P::Msg>,
    queue: Q,
    client_events: Vec<Option<P::Client>>,
    client_free: Vec<u32>,
    scratch_out: Vec<(ProcessId, P::Msg)>,
    scratch_timers: Vec<(TimerTag, u64)>,
    now: SimTime,
    seq: u64,
    next_msg_id: MsgId,
    rng: SmallRng,
    config: SimConfig,
    stats: SimStats,
    entropy: EntropyMode,
    failpoints: FailpointRegistry,
    delay_boost: Option<(u64, SimTime)>,
}

/// A [`Simulation`] running on the retained [`HeapQueue`] reference
/// scheduler (the pre-wheel `BinaryHeap` discipline). Construct with
/// [`Simulation::with_queue`]; used by the differential suites and the
/// `sim_scale` benches.
pub type ReferenceSimulation<P> = Simulation<P, HeapQueue>;

impl<P: Process> Simulation<P> {
    /// Creates a simulation over the given processes, on the default
    /// [`TimerWheel`] engine.
    ///
    /// # Panics
    ///
    /// Panics if the process at index `i` does not report `ProcessId(i)` —
    /// the substrate routes by index.
    pub fn new(processes: Vec<P>, config: SimConfig) -> Self {
        Self::with_queue(processes, config)
    }
}

impl<P: Process, Q: EventQueue> Simulation<P, Q> {
    /// Creates a simulation on the queue engine chosen by `Q` — the
    /// engine-generic form of [`Simulation::new`].
    ///
    /// # Panics
    ///
    /// Panics if the process at index `i` does not report `ProcessId(i)`.
    pub fn with_queue(processes: Vec<P>, config: SimConfig) -> Self {
        for (index, process) in processes.iter().enumerate() {
            assert_eq!(
                process.id().index(),
                index,
                "process at index {index} must have ProcessId({index})"
            );
        }
        let config = config.normalized();
        let n = processes.len();
        let mut sim = Simulation {
            processes,
            channels: ChannelStore::new(),
            queue: Q::default(),
            client_events: Vec::new(),
            client_free: Vec::new(),
            scratch_out: Vec::new(),
            scratch_timers: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
            next_msg_id: 1,
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            stats: SimStats::default(),
            entropy: EntropyMode::Idle,
            failpoints: FailpointRegistry::new(),
            delay_boost: None,
        };
        for pid in ProcessId::all(n) {
            sim.push_packed(SimTime::ZERO, PackedEvent::start(pid.0));
        }
        sim
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// True when the simulation has no processes.
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Cumulative delivery statistics.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Read access to a process.
    pub fn process(&self, pid: ProcessId) -> &P {
        &self.processes[pid.index()]
    }

    /// Mutable access to a process (used by fault injectors and tests;
    /// protocol logic only runs through events).
    pub fn process_mut(&mut self, pid: ProcessId) -> &mut P {
        &mut self.processes[pid.index()]
    }

    /// Iterates over all processes.
    pub fn processes(&self) -> impl Iterator<Item = &P> {
        self.processes.iter()
    }

    /// Read access to the FIFO channel `from → to`.
    pub fn channel(&self, from: ProcessId, to: ProcessId) -> ChannelView<'_, P::Msg> {
        ChannelView {
            store: &self.channels,
            from,
            to,
        }
    }

    /// The currently non-empty channels in ascending `(from, to)` order,
    /// with their queue lengths. Fault injectors use this instead of
    /// scanning all n² pairs; the order matches what a dense-matrix scan
    /// would produce, so seeded targeting distributions are unchanged.
    pub fn nonempty_channels(&self) -> impl Iterator<Item = (ProcessId, ProcessId, usize)> + '_ {
        self.channels.nonempty()
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time().map(SimTime::from)
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    fn push_packed(&mut self, time: SimTime, event: PackedEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(time.ticks(), seq, event);
    }

    #[cfg(test)]
    pub(crate) fn push_test_timer(&mut self, at: SimTime, pid: ProcessId, tag: TimerTag) {
        self.push_packed(at, PackedEvent::timer(pid.0, tag));
    }

    fn alloc_client(&mut self, event: P::Client) -> u32 {
        match self.client_free.pop() {
            Some(slot) => {
                self.client_events[slot as usize] = Some(event);
                slot
            }
            None => {
                self.client_events.push(Some(event));
                u32::try_from(self.client_events.len() - 1).expect("client slab fits u32 indices")
            }
        }
    }

    fn take_client(&mut self, slot: u32) -> P::Client {
        let event = self.client_events[slot as usize]
            .take()
            .expect("scheduled client event present in slab");
        self.client_free.push(slot);
        event
    }

    /// Schedules a client event for `pid` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` does not name a process of this simulation (a
    /// workload/simulation size mismatch).
    pub fn schedule_client(&mut self, at: SimTime, pid: ProcessId, event: P::Client) {
        assert!(
            pid.index() < self.processes.len(),
            "client event for {pid} but the simulation has {} processes",
            self.processes.len()
        );
        let slot = self.alloc_client(event);
        self.push_packed(at, PackedEvent::client(pid.0, slot));
    }

    // ------------------------------------------------------------------
    // Entropy: recording, replay, failpoints.
    // ------------------------------------------------------------------

    /// Starts recording an [`OpLog`] of every draw, scheduler pop, and
    /// failpoint firing. Call before the first [`Simulation::step`] so
    /// the log witnesses the whole run.
    pub fn start_recording(&mut self) {
        self.entropy = EntropyMode::Record(OpLog::with_capacity(1024));
    }

    /// Stops recording and returns the oplog, or `None` if the
    /// simulation was not recording.
    pub fn take_oplog(&mut self) -> Option<OpLog> {
        match std::mem::replace(&mut self.entropy, EntropyMode::Idle) {
            EntropyMode::Record(log) => Some(log),
            other => {
                self.entropy = other;
                None
            }
        }
    }

    /// Switches the simulation to replay mode: all subsequent draws are
    /// substituted from `log` and every pop/failpoint is verified against
    /// it. Call before the first step; check [`Simulation::finish_replay`]
    /// at the end.
    pub fn begin_replay(&mut self, log: OpLog) {
        self.entropy = EntropyMode::Replay(ReplayCursor::new(log));
    }

    /// Ends replay mode, returning `Ok(())` only if the run matched the
    /// log exactly and consumed it fully. `Ok(())` if not replaying.
    pub fn finish_replay(&mut self) -> Result<(), ReplayError> {
        match std::mem::replace(&mut self.entropy, EntropyMode::Idle) {
            EntropyMode::Replay(cursor) => cursor.finish(),
            other => {
                self.entropy = other;
                Ok(())
            }
        }
    }

    /// The first replay divergence seen so far, if replaying.
    pub fn replay_error(&self) -> Option<&ReplayError> {
        match &self.entropy {
            EntropyMode::Replay(cursor) => cursor.error(),
            _ => None,
        }
    }

    /// True when a replay has already diverged. Rejection-sampling loops
    /// around draws must bail out when this turns true: a poisoned cursor
    /// degrades every draw to the range minimum, which would spin a
    /// "redraw until different" loop forever.
    pub fn replay_poisoned(&self) -> bool {
        self.replay_error().is_some()
    }

    /// Per-site hit counters for every failpoint that fired this run.
    pub fn failpoints(&self) -> &FailpointRegistry {
        &self.failpoints
    }

    /// Fires the failpoint `site`: bumps its registry counter, and logs
    /// (recording) or verifies (replay) the firing. `detail` is only
    /// evaluated when recording — prefer the [`crate::failpoint!`] macro,
    /// which builds the closure for you.
    pub fn fire_failpoint(&mut self, site: &'static str, detail: impl FnOnce() -> String) {
        self.failpoints.hit(site);
        match &mut self.entropy {
            EntropyMode::Idle => {}
            EntropyMode::Record(log) => log.push_failpoint(self.now, site, detail()),
            EntropyMode::Replay(cursor) => cursor.expect_failpoint(self.now, site),
        }
    }

    /// Draws a fault-targeting value in `lo..=hi` from the caller's own
    /// RNG, routing it through the entropy layer so it lands in the oplog
    /// (and is substituted on replay). Campaign runners use this for
    /// every "which process / channel / message" decision, keeping fault
    /// targeting replayable without surrendering their separate RNG.
    pub fn draw_fault_in<R: RngCore>(&mut self, live: &mut R, lo: u64, hi: u64) -> u64 {
        ranged_draw(&mut self.entropy, live, DrawStream::FaultTarget, lo, hi)
    }

    /// An [`RngCore`] view over the caller's RNG whose raw draws are
    /// routed through the entropy layer on the corruption stream. Fault
    /// injectors that corrupt payloads with external entropy (e.g. the
    /// garbage injector) use this so the corruption replays bit-exactly.
    pub fn fault_entropy<'a, R: RngCore>(&'a mut self, live: &'a mut R) -> impl RngCore + 'a {
        EntropyRng {
            live,
            entropy: &mut self.entropy,
            stream: DrawStream::Corrupt,
        }
    }

    fn random_delay(&mut self) -> u64 {
        let (mut min, mut max) = self.config.delay_range();
        if let Some((factor, until)) = self.delay_boost {
            if self.now < until {
                min = min.saturating_mul(factor);
                max = max.saturating_mul(factor);
            } else {
                self.delay_boost = None;
            }
        }
        ranged_draw(
            &mut self.entropy,
            &mut self.rng,
            DrawStream::Delay,
            min,
            max,
        )
    }

    fn enqueue_envelope(&mut self, from: ProcessId, to: ProcessId, payload: P::Msg) -> MsgId {
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        let delay = self.random_delay();
        let proposed = self.now + delay;
        let chan = self.channels.index_for(from, to);
        let deliver_at = self.channels.schedule_at(chan, proposed);
        self.channels.push_back_at(
            chan,
            Envelope {
                id,
                from,
                to,
                payload,
                sent_at: self.now,
            },
        );
        self.push_packed(deliver_at, PackedEvent::deliver(chan));
        self.stats.sent += 1;
        id
    }

    fn make_ctx(&mut self, pid: ProcessId) -> Context<P::Msg> {
        Context::with_buffers(
            self.now,
            pid,
            std::mem::take(&mut self.scratch_out),
            std::mem::take(&mut self.scratch_timers),
        )
    }

    /// One event-loop iteration shared by the recording and quiet paths.
    /// Outer `None` = queue empty or next event after `limit`; when
    /// `record` is false no [`StepRecord`] is built (no payload clones,
    /// no per-step Vecs). Both paths consume entropy in the identical
    /// order, so a quiet run and a recorded run of the same seed are the
    /// same run.
    fn step_core(
        &mut self,
        record: bool,
        limit: u64,
    ) -> Option<Option<StepRecord<P::Client, P::Msg>>> {
        let (time, seq, event) = self.queue.pop_at_or_before(limit)?;
        let time = SimTime::from(time);
        match &mut self.entropy {
            EntropyMode::Idle => {}
            EntropyMode::Record(log) => log.push_pop(time, seq),
            EntropyMode::Replay(cursor) => cursor.expect_pop(time, seq),
        }
        self.now = self.now.max(time);
        let pid;
        let kind: Option<StepKind<P::Client, P::Msg>>;
        let ctx;
        match event.tag {
            EvTag::Deliver => {
                let chan = event.a;
                let popped = if self.config.fifo {
                    self.channels.pop_front_at(chan)
                } else {
                    let len = self.channels.len_at(chan);
                    if len == 0 {
                        None
                    } else {
                        let hi = u64::try_from(len - 1).unwrap_or(u64::MAX);
                        let draw = ranged_draw(
                            &mut self.entropy,
                            &mut self.rng,
                            DrawStream::NonFifoPick,
                            0,
                            hi,
                        );
                        let index =
                            usize::try_from(draw).expect("non-FIFO pick bounded by queue length");
                        self.channels.remove_at(chan, index)
                    }
                };
                match popped {
                    None => {
                        self.stats.skipped += 1;
                        let (_, to) = self.channels.pair_at(chan);
                        return Some(record.then(|| StepRecord {
                            time: self.now,
                            pid: to,
                            kind: StepKind::Skipped,
                            sends: Vec::new(),
                            timers_set: Vec::new(),
                        }));
                    }
                    Some(envelope) => {
                        self.stats.delivered += 1;
                        let to = envelope.to;
                        pid = to;
                        let mut c = self.make_ctx(to);
                        if record {
                            self.processes[to.index()].on_message(
                                envelope.from,
                                envelope.payload.clone(),
                                &mut c,
                            );
                            kind = Some(StepKind::Deliver {
                                from: envelope.from,
                                msg_id: envelope.id,
                                payload: envelope.payload,
                            });
                        } else {
                            self.processes[to.index()].on_message(
                                envelope.from,
                                envelope.payload,
                                &mut c,
                            );
                            kind = None;
                        }
                        ctx = c;
                    }
                }
            }
            EvTag::Timer => {
                let p = ProcessId(event.a);
                let tag = event.b;
                pid = p;
                let mut c = self.make_ctx(p);
                self.processes[p.index()].on_timer(tag, &mut c);
                kind = record.then(|| StepKind::Timer { tag });
                ctx = c;
            }
            EvTag::Client => {
                let p = ProcessId(event.a);
                let client_event = self.take_client(event.b);
                pid = p;
                let mut c = self.make_ctx(p);
                if record {
                    self.processes[p.index()].on_client(client_event.clone(), &mut c);
                    kind = Some(StepKind::Client {
                        event: client_event,
                    });
                } else {
                    self.processes[p.index()].on_client(client_event, &mut c);
                    kind = None;
                }
                ctx = c;
            }
            EvTag::Start => {
                let p = ProcessId(event.a);
                pid = p;
                let mut c = self.make_ctx(p);
                self.processes[p.index()].on_start(&mut c);
                kind = record.then(|| StepKind::Start);
                ctx = c;
            }
        }
        if record {
            Some(Some(self.apply_actions(
                pid,
                kind.expect("record path built a step kind"),
                ctx,
            )))
        } else {
            self.apply_actions_quiet(pid, ctx);
            Some(None)
        }
    }

    /// Executes the next event and returns its record; `None` when the
    /// event queue is empty.
    pub fn step(&mut self) -> Option<StepRecord<P::Client, P::Msg>> {
        self.step_core(true, u64::MAX)
            .map(|record| record.expect("recording step builds a record"))
    }

    /// Executes the next event without building a [`StepRecord`]: no
    /// payload clones, no per-step allocations (action buffers are
    /// recycled). Entropy consumption is identical to [`Simulation::step`],
    /// so quiet runs record/replay bit-exactly. Returns false when the
    /// queue is empty. This is the stepping path for 10⁵–10⁶-process
    /// campaigns where per-step records would dominate the run cost.
    pub fn step_quiet(&mut self) -> bool {
        self.step_core(false, u64::MAX).is_some()
    }

    fn apply_actions(
        &mut self,
        pid: ProcessId,
        kind: StepKind<P::Client, P::Msg>,
        ctx: Context<P::Msg>,
    ) -> StepRecord<P::Client, P::Msg> {
        let Context {
            mut outgoing,
            mut timers,
            ..
        } = ctx;
        let mut sends = Vec::with_capacity(outgoing.len());
        for (to, payload) in outgoing.drain(..) {
            let msg_id = self.enqueue_envelope(pid, to, payload.clone());
            sends.push(SendRecord {
                msg_id,
                to,
                payload,
            });
        }
        let mut timers_set = Vec::with_capacity(timers.len());
        for (tag, delay) in timers.drain(..) {
            // Zero-delay timers would let a re-arming handler freeze
            // virtual time; clamp to one tick. A delay reaching past the
            // end of time saturates to `u64::MAX` ("never, in any run
            // with a finite horizon") instead of panicking.
            let fire_at = SimTime(self.now.ticks().saturating_add(delay.max(1)));
            self.push_packed(fire_at, PackedEvent::timer(pid.0, tag));
            timers_set.push((tag, fire_at));
        }
        // Hand the drained action buffers back for the next step — the
        // recording path recycles them exactly like the quiet path.
        self.scratch_out = outgoing;
        self.scratch_timers = timers;
        StepRecord {
            time: self.now,
            pid,
            kind,
            sends,
            timers_set,
        }
    }

    fn apply_actions_quiet(&mut self, pid: ProcessId, ctx: Context<P::Msg>) {
        let Context {
            mut outgoing,
            mut timers,
            ..
        } = ctx;
        for (to, payload) in outgoing.drain(..) {
            self.enqueue_envelope(pid, to, payload);
        }
        for (tag, delay) in timers.drain(..) {
            let fire_at = SimTime(self.now.ticks().saturating_add(delay.max(1)));
            self.push_packed(fire_at, PackedEvent::timer(pid.0, tag));
        }
        self.scratch_out = outgoing;
        self.scratch_timers = timers;
    }

    /// Runs until the next event would be after `limit` (or the queue is
    /// empty), collecting the step records.
    pub fn run_until(&mut self, limit: SimTime) -> Vec<StepRecord<P::Client, P::Msg>> {
        let mut records = Vec::new();
        while let Some(record) = self.step_core(true, limit.ticks()) {
            records.push(record.expect("recording step builds a record"));
        }
        records
    }

    /// Runs until the next event would be after `limit` (or the queue is
    /// empty) on the allocation-free [`Simulation::step_quiet`] path,
    /// returning the number of events executed.
    pub fn run_until_quiet(&mut self, limit: SimTime) -> u64 {
        let mut steps = 0;
        while self.step_core(false, limit.ticks()).is_some() {
            steps += 1;
        }
        steps
    }

    // ------------------------------------------------------------------
    // Fault injection (the §3.1 fault model).
    // ------------------------------------------------------------------

    /// Injects a message into channel `from → to` — used both for the
    /// "channels improperly initialized" fault and for garbage injection.
    /// Returns the fresh message id. Fires [`failpoint::MSG_INJECT`].
    pub fn inject_message(&mut self, from: ProcessId, to: ProcessId, payload: P::Msg) -> MsgId {
        let id = self.enqueue_envelope(from, to, payload);
        crate::failpoint!(self, failpoint::MSG_INJECT, "inject #{id} on {from}->{to}");
        id
    }

    /// Drops the `index`-th in-flight message of channel `from → to`
    /// (message loss). Returns the dropped payload, if the index existed.
    /// Fires [`failpoint::CHANNEL_DROP`] when a message was dropped.
    pub fn drop_message(&mut self, from: ProcessId, to: ProcessId, index: usize) -> Option<P::Msg> {
        let dropped = self.channels.remove(from, to, index);
        if let Some(envelope) = &dropped {
            let id = envelope.id;
            crate::failpoint!(self, failpoint::CHANNEL_DROP, "drop #{id} on {from}->{to}");
        }
        dropped.map(|envelope| envelope.payload)
    }

    /// Duplicates the `index`-th in-flight message of channel `from → to`
    /// (message duplication). The copy gets a fresh id and its own
    /// delivery schedule. Returns the copy's id if the index existed.
    /// Fires [`failpoint::CHANNEL_DUPLICATE`] when a copy was made.
    pub fn duplicate_message(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        index: usize,
    ) -> Option<MsgId> {
        let payload = self
            .channels
            .get(from, to, index)
            .map(|envelope| envelope.payload.clone())?;
        let id = self.enqueue_envelope(from, to, payload);
        crate::failpoint!(
            self,
            failpoint::CHANNEL_DUPLICATE,
            "duplicate as #{id} on {from}->{to}"
        );
        Some(id)
    }

    /// Rewrites the `index`-th in-flight message of channel `from → to`
    /// with the given mutation (message corruption). Returns true if the
    /// index existed. Fires [`failpoint::MSG_CORRUPT`] when it did.
    pub fn mutate_message(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        index: usize,
        mutate: impl FnOnce(&mut P::Msg),
    ) -> bool {
        match self.channels.get_mut(from, to, index) {
            Some(envelope) => {
                mutate(&mut envelope.payload);
                let id = envelope.id;
                crate::failpoint!(self, failpoint::MSG_CORRUPT, "mutate #{id} on {from}->{to}");
                true
            }
            None => false,
        }
    }

    /// Flushes channel `from → to`, losing everything in flight. Returns
    /// the number of messages lost. Fires [`failpoint::CHANNEL_FLUSH`]
    /// when at least one message was lost.
    pub fn flush_channel(&mut self, from: ProcessId, to: ProcessId) -> usize {
        let lost = self.channels.clear(from, to);
        if lost > 0 {
            crate::failpoint!(
                self,
                failpoint::CHANNEL_FLUSH,
                "flush {lost} msgs on {from}->{to}"
            );
        }
        lost
    }

    /// Swaps the `i`-th and `j`-th in-flight messages of channel
    /// `from → to` (message reordering — under FIFO delivery the payloads
    /// now arrive out of send order). Returns true if both indices
    /// existed and differed. Fires [`failpoint::CHANNEL_REORDER`].
    pub fn reorder_messages(&mut self, from: ProcessId, to: ProcessId, i: usize, j: usize) -> bool {
        let swapped = self.channels.swap(from, to, i, j);
        if swapped {
            crate::failpoint!(
                self,
                failpoint::CHANNEL_REORDER,
                "swap #{i}<->#{j} on {from}->{to}"
            );
        }
        swapped
    }

    /// Multiplies both ends of the message-delay range by `factor` (at
    /// least 1) for every send scheduled before `until` (a transient
    /// delay spike — the paper's "arbitrary but finite" delays stressed
    /// toward the asynchrony bound). Fires [`failpoint::SIM_DELAY`].
    pub fn boost_delays(&mut self, factor: u64, until: SimTime) {
        let factor = factor.max(1);
        self.delay_boost = Some((factor, until));
        crate::failpoint!(self, failpoint::SIM_DELAY, "delays x{factor} until {until}");
    }

    /// Number of messages currently in flight across all channels.
    pub fn in_flight(&self) -> usize {
        self.channels.in_flight()
    }
}

impl<P: Process + Corruptible, Q: EventQueue> Simulation<P, Q> {
    /// Transiently corrupts the state of `pid` with arbitrary type-valid
    /// values (the paper's strongest process fault). Fires
    /// [`failpoint::PROCESS_CORRUPT`]; the corruption entropy is drawn
    /// through the oplog layer, so recorded corruptions replay bit-exactly.
    pub fn corrupt_process(&mut self, pid: ProcessId) {
        crate::failpoint!(self, failpoint::PROCESS_CORRUPT, "corrupt state of {pid}");
        let Simulation {
            processes,
            rng,
            entropy,
            ..
        } = self;
        let mut source = EntropyRng {
            live: rng,
            entropy,
            stream: DrawStream::Corrupt,
        };
        processes[pid.index()].corrupt(&mut source);
    }
}

impl<P: Process, Q: EventQueue> Simulation<P, Q>
where
    P::Msg: Corruptible,
{
    /// Corrupts the payload of the `index`-th in-flight message of channel
    /// `from → to` with arbitrary type-valid content. Returns true if the
    /// index existed. Fires [`failpoint::MSG_CORRUPT`]; the corruption
    /// entropy is drawn through the oplog layer.
    pub fn corrupt_message(&mut self, from: ProcessId, to: ProcessId, index: usize) -> bool {
        let Simulation {
            channels,
            rng,
            entropy,
            ..
        } = self;
        match channels.get_mut(from, to, index) {
            Some(envelope) => {
                let mut source = EntropyRng {
                    live: rng,
                    entropy,
                    stream: DrawStream::Corrupt,
                };
                envelope.payload.corrupt(&mut source);
                let id = envelope.id;
                crate::failpoint!(
                    self,
                    failpoint::MSG_CORRUPT,
                    "corrupt #{id} on {from}->{to}"
                );
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test process: counts deliveries; replies "pong" to "ping"; a timer
    /// with tag 9 re-arms once.
    #[derive(Debug)]
    struct Node {
        id: ProcessId,
        received: Vec<(ProcessId, String)>,
        timer_fires: u32,
    }

    impl Node {
        fn new(id: u32) -> Self {
            Node {
                id: ProcessId(id),
                received: Vec::new(),
                timer_fires: 0,
            }
        }
    }

    impl Process for Node {
        type Msg = String;
        type Client = String;

        fn id(&self) -> ProcessId {
            self.id
        }

        fn on_message(&mut self, from: ProcessId, msg: String, ctx: &mut Context<String>) {
            if msg == "ping" {
                ctx.send(from, "pong".to_string());
            }
            self.received.push((from, msg));
        }

        fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<String>) {
            self.timer_fires += 1;
            if tag == 9 && self.timer_fires == 1 {
                ctx.set_timer(9, 5);
            }
        }

        fn on_client(&mut self, event: String, ctx: &mut Context<String>) {
            // Broadcast the event body to everyone else.
            for other in 0..2u32 {
                if ProcessId(other) != self.id {
                    ctx.send(ProcessId(other), event.clone());
                }
            }
            let _ = ctx;
        }
    }

    fn two_nodes(seed: u64) -> Simulation<Node> {
        Simulation::new(vec![Node::new(0), Node::new(1)], SimConfig::with_seed(seed))
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim = two_nodes(1);
        sim.inject_message(ProcessId(1), ProcessId(0), "ping".into());
        sim.run_until(SimTime::from(100));
        assert_eq!(sim.process(ProcessId(0)).received.len(), 1);
        assert_eq!(
            sim.process(ProcessId(1)).received,
            vec![(ProcessId(0), "pong".to_string())]
        );
        assert_eq!(sim.stats().delivered, 2);
    }

    #[test]
    fn fifo_order_survives_random_delays() {
        let mut sim = two_nodes(7);
        for i in 0..20 {
            sim.inject_message(ProcessId(0), ProcessId(1), format!("m{i}"));
        }
        sim.run_until(SimTime::from(10_000));
        let got: Vec<String> = sim
            .process(ProcessId(1))
            .received
            .iter()
            .map(|(_, m)| m.clone())
            .collect();
        let expected: Vec<String> = (0..20).map(|i| format!("m{i}")).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn same_seed_same_trace() {
        let run = |seed| {
            let mut sim = two_nodes(seed);
            sim.schedule_client(SimTime::from(1), ProcessId(0), "hello".into());
            sim.inject_message(ProcessId(1), ProcessId(0), "ping".into());
            sim.run_until(SimTime::from(500))
                .iter()
                .map(|r| (r.time, r.pid, format!("{:?}", r.kind)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43)); // delays differ
    }

    #[test]
    fn dropped_message_is_never_delivered() {
        let mut sim = two_nodes(3);
        sim.inject_message(ProcessId(0), ProcessId(1), "lost".into());
        assert_eq!(
            sim.drop_message(ProcessId(0), ProcessId(1), 0),
            Some("lost".into())
        );
        let records = sim.run_until(SimTime::from(100));
        assert!(records.iter().any(|r| matches!(r.kind, StepKind::Skipped)));
        assert!(sim.process(ProcessId(1)).received.is_empty());
        assert_eq!(sim.stats().skipped, 1);
    }

    #[test]
    fn duplicated_message_is_delivered_twice() {
        let mut sim = two_nodes(4);
        sim.inject_message(ProcessId(0), ProcessId(1), "dup".into());
        assert!(sim
            .duplicate_message(ProcessId(0), ProcessId(1), 0)
            .is_some());
        sim.run_until(SimTime::from(100));
        assert_eq!(sim.process(ProcessId(1)).received.len(), 2);
    }

    #[test]
    fn mutate_message_corrupts_in_place() {
        let mut sim = two_nodes(5);
        sim.inject_message(ProcessId(0), ProcessId(1), "clean".into());
        assert!(sim.mutate_message(ProcessId(0), ProcessId(1), 0, |m| *m = "dirty".into()));
        sim.run_until(SimTime::from(100));
        assert_eq!(sim.process(ProcessId(1)).received[0].1, "dirty");
        assert!(!sim.mutate_message(ProcessId(0), ProcessId(1), 5, |_| {}));
    }

    #[test]
    fn flush_loses_everything_in_flight() {
        let mut sim = two_nodes(6);
        for _ in 0..5 {
            sim.inject_message(ProcessId(0), ProcessId(1), "x".into());
        }
        assert_eq!(sim.in_flight(), 5);
        assert_eq!(sim.flush_channel(ProcessId(0), ProcessId(1)), 5);
        assert_eq!(sim.in_flight(), 0);
        sim.run_until(SimTime::from(100));
        assert!(sim.process(ProcessId(1)).received.is_empty());
    }

    #[test]
    fn timers_fire_and_rearm() {
        let mut sim = two_nodes(8);
        // Exercise set_timer through ctx by stepping a synthetic timer
        // event (processes normally arm their first timer in a handler).
        sim.push_test_timer(SimTime::from(1), ProcessId(0), 9);
        sim.run_until(SimTime::from(100));
        assert_eq!(sim.process(ProcessId(0)).timer_fires, 2); // fired + re-armed once
    }

    #[test]
    fn client_events_reach_the_process() {
        let mut sim = two_nodes(9);
        sim.schedule_client(SimTime::from(2), ProcessId(0), "announce".into());
        sim.run_until(SimTime::from(200));
        assert_eq!(
            sim.process(ProcessId(1)).received,
            vec![(ProcessId(0), "announce".to_string())]
        );
    }

    #[test]
    fn records_capture_sends_and_kinds() {
        let mut sim = two_nodes(10);
        sim.schedule_client(SimTime::from(1), ProcessId(0), "x".into());
        let records = sim.run_until(SimTime::from(200));
        let client_step = records
            .iter()
            .find(|r| matches!(r.kind, StepKind::Client { .. }))
            .unwrap();
        assert_eq!(client_step.pid, ProcessId(0));
        assert_eq!(client_step.sends.len(), 1);
        assert!(records.iter().any(|r| r.is_delivery()));
    }

    #[test]
    #[should_panic(expected = "must have ProcessId")]
    fn mismatched_ids_panic() {
        let _ = Simulation::new(vec![Node::new(1)], SimConfig::default());
    }

    #[test]
    fn degenerate_zero_delay_config_normalizes_to_one_tick() {
        let degenerate = SimConfig {
            seed: 5,
            min_delay: 0,
            max_delay: 0,
            fifo: true,
        };
        assert_eq!(degenerate.normalized().min_delay, 1);
        assert_eq!(degenerate.normalized().max_delay, 1);
        // Normalization is idempotent and the identity on valid configs.
        assert_eq!(
            degenerate.normalized().normalized(),
            degenerate.normalized()
        );
        assert_eq!(SimConfig::default().normalized(), SimConfig::default());

        // A simulation built from the degenerate config behaves exactly
        // like one built from (1, 1): every delivery takes one tick.
        let mut sim = Simulation::new(vec![Node::new(0), Node::new(1)], degenerate);
        sim.inject_message(ProcessId(0), ProcessId(1), "ping".into());
        let records = sim.run_until(SimTime::from(10));
        let delivery = records.iter().find(|r| r.is_delivery()).unwrap();
        assert_eq!(delivery.time, SimTime::from(1));
        // min > max is normalized too (max raised to min).
        let inverted = SimConfig {
            min_delay: 9,
            max_delay: 2,
            ..SimConfig::default()
        };
        assert_eq!(inverted.normalized().max_delay, 9);
    }

    #[test]
    fn recorded_run_replays_bit_exactly_and_detects_divergence() {
        let run = |entropy: &str, log: Option<crate::OpLog>| {
            let mut sim = two_nodes(31);
            match (entropy, log) {
                ("record", _) => sim.start_recording(),
                ("replay", Some(log)) => sim.begin_replay(log),
                _ => {}
            }
            sim.schedule_client(SimTime::from(1), ProcessId(0), "hello".into());
            sim.inject_message(ProcessId(1), ProcessId(0), "ping".into());
            let records: Vec<String> = sim
                .run_until(SimTime::from(500))
                .iter()
                .map(|r| format!("{} {} {:?}", r.time, r.pid, r.kind))
                .collect();
            (records, sim)
        };

        let (records_a, mut sim_a) = run("record", None);
        let log = sim_a.take_oplog().expect("was recording");
        assert!(log.failpoint_firings(failpoint::MSG_INJECT) >= 1);

        // Bit-exact replay: same step stream, clean finish, and the idle
        // run (live RNG, same seed) agrees too.
        let (records_b, mut sim_b) = run("replay", Some(log.clone()));
        assert_eq!(records_a, records_b);
        assert!(sim_b.finish_replay().is_ok());
        let (records_idle, _) = run("idle", None);
        assert_eq!(records_a, records_idle);

        // Text round trip preserves replayability.
        let reparsed = crate::OpLog::parse(&log.to_text()).unwrap();
        let (_, mut sim_c) = run("replay", Some(reparsed));
        assert!(sim_c.finish_replay().is_ok());

        // A diverging run (extra injected message) is caught, not silently
        // replayed.
        let mut sim_d = two_nodes(31);
        sim_d.begin_replay(log);
        sim_d.schedule_client(SimTime::from(1), ProcessId(0), "hello".into());
        sim_d.inject_message(ProcessId(1), ProcessId(0), "ping".into());
        sim_d.inject_message(ProcessId(0), ProcessId(1), "rogue".into());
        sim_d.run_until(SimTime::from(500));
        assert!(sim_d.finish_replay().is_err());
    }

    #[test]
    fn reorder_messages_swaps_fifo_delivery_order() {
        let mut sim = two_nodes(12);
        sim.inject_message(ProcessId(0), ProcessId(1), "first".into());
        sim.inject_message(ProcessId(0), ProcessId(1), "second".into());
        assert!(sim.reorder_messages(ProcessId(0), ProcessId(1), 0, 1));
        assert!(!sim.reorder_messages(ProcessId(0), ProcessId(1), 0, 5));
        assert!(!sim.reorder_messages(ProcessId(0), ProcessId(1), 1, 1));
        sim.run_until(SimTime::from(100));
        let got: Vec<&str> = sim
            .process(ProcessId(1))
            .received
            .iter()
            .map(|(_, m)| m.as_str())
            .collect();
        assert_eq!(got, vec!["second", "first"]);
        assert_eq!(sim.failpoints().hits(failpoint::CHANNEL_REORDER), 1);
    }

    #[test]
    fn boosted_delays_slow_deliveries_until_expiry() {
        let mut sim = two_nodes(13);
        sim.boost_delays(50, SimTime::from(10));
        sim.inject_message(ProcessId(0), ProcessId(1), "slow".into());
        let records = sim.run_until(SimTime::from(10_000));
        let delivery = records.iter().find(|r| r.is_delivery()).unwrap();
        // Default delays (1, 8) boosted x50 ⇒ drawn from 50..=400: the
        // spike is observable regardless of the draw.
        assert!(delivery.time >= SimTime::from(50), "got {}", delivery.time);
        assert_eq!(sim.failpoints().hits(failpoint::SIM_DELAY), 1);

        // After expiry the boost is gone: inject at a later time.
        let resume_at = sim.now();
        sim.inject_message(ProcessId(0), ProcessId(1), "fast".into());
        let records = sim.run_until(SimTime::from(20_000));
        let delivery = records.iter().find(|r| r.is_delivery()).unwrap();
        assert!(delivery.time.since(resume_at) <= 8);
    }

    #[test]
    fn failpoint_registry_counts_every_primitive() {
        let mut sim = two_nodes(14);
        sim.inject_message(ProcessId(0), ProcessId(1), "a".into());
        sim.inject_message(ProcessId(0), ProcessId(1), "b".into());
        sim.duplicate_message(ProcessId(0), ProcessId(1), 0);
        sim.mutate_message(ProcessId(0), ProcessId(1), 1, |m| *m = "x".into());
        sim.drop_message(ProcessId(0), ProcessId(1), 0);
        sim.flush_channel(ProcessId(0), ProcessId(1));
        sim.flush_channel(ProcessId(0), ProcessId(1)); // empty: no firing
        let fp = sim.failpoints();
        assert_eq!(fp.hits(failpoint::MSG_INJECT), 2);
        assert_eq!(fp.hits(failpoint::CHANNEL_DUPLICATE), 1);
        assert_eq!(fp.hits(failpoint::MSG_CORRUPT), 1);
        assert_eq!(fp.hits(failpoint::CHANNEL_DROP), 1);
        assert_eq!(fp.hits(failpoint::CHANNEL_FLUSH), 1);
        assert_eq!(fp.total(), 6);
    }

    #[test]
    fn zero_delay_timer_cannot_freeze_time() {
        #[derive(Debug)]
        struct Rearm(ProcessId, u32);
        impl Process for Rearm {
            type Msg = ();
            type Client = ();
            fn id(&self) -> ProcessId {
                self.0
            }
            fn on_message(&mut self, _: ProcessId, _: (), _: &mut Context<()>) {}
            fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<()>) {
                self.1 += 1;
                ctx.set_timer(tag, 0); // pathological: re-arm with zero delay
            }
            fn on_client(&mut self, _: (), _: &mut Context<()>) {}
        }
        let mut sim = Simulation::new(vec![Rearm(ProcessId(0), 0)], SimConfig::default());
        sim.push_test_timer(SimTime::from(1), ProcessId(0), 1);
        sim.run_until(SimTime::from(50));
        // Clamped to 1 tick per firing: bounded count, time advanced.
        assert!(sim.process(ProcessId(0)).1 <= 50);
        assert!(sim.now() >= SimTime::from(49));
    }

    #[test]
    fn nonempty_channels_lists_active_pairs_in_order() {
        let mut sim = two_nodes(15);
        assert_eq!(sim.nonempty_channels().count(), 0);
        sim.inject_message(ProcessId(1), ProcessId(0), "x".into());
        sim.inject_message(ProcessId(0), ProcessId(1), "y".into());
        sim.inject_message(ProcessId(0), ProcessId(1), "z".into());
        let listed: Vec<(u32, u32, usize)> = sim
            .nonempty_channels()
            .map(|(f, t, n)| (f.0, t.0, n))
            .collect();
        assert_eq!(listed, vec![(0, 1, 2), (1, 0, 1)]);
        assert_eq!(sim.channel(ProcessId(0), ProcessId(1)).len(), 2);
        assert!(sim.channel(ProcessId(1), ProcessId(1)).is_empty());
    }

    #[test]
    fn quiet_stepping_is_the_same_run_as_recorded_stepping() {
        let drive = |sim: &mut Simulation<Node>| {
            sim.schedule_client(SimTime::from(1), ProcessId(0), "hello".into());
            sim.schedule_client(SimTime::from(9), ProcessId(1), "again".into());
            sim.inject_message(ProcessId(1), ProcessId(0), "ping".into());
        };
        let mut loud = two_nodes(77);
        drive(&mut loud);
        let steps_loud = u64::try_from(loud.run_until(SimTime::from(500)).len()).unwrap();

        let mut quiet = two_nodes(77);
        drive(&mut quiet);
        let steps_quiet = quiet.run_until_quiet(SimTime::from(500));

        assert_eq!(steps_loud, steps_quiet);
        assert_eq!(loud.stats(), quiet.stats());
        assert_eq!(loud.now(), quiet.now());
        assert_eq!(
            loud.process(ProcessId(0)).received,
            quiet.process(ProcessId(0)).received
        );
        assert_eq!(
            loud.process(ProcessId(1)).received,
            quiet.process(ProcessId(1)).received
        );

        // A quiet run records the identical oplog as a loud run.
        let mut a = two_nodes(78);
        a.start_recording();
        drive(&mut a);
        a.run_until_quiet(SimTime::from(500));
        let mut b = two_nodes(78);
        b.start_recording();
        drive(&mut b);
        b.run_until(SimTime::from(500));
        assert_eq!(
            a.take_oplog().unwrap().to_text(),
            b.take_oplog().unwrap().to_text()
        );
    }

    #[test]
    fn wheel_and_reference_heap_engines_are_step_identical() {
        let drive = |wheel: bool| -> (Vec<String>, SimStats) {
            let nodes = vec![Node::new(0), Node::new(1)];
            let config = SimConfig::with_seed(2024);
            let render = |records: Vec<StepRecord<String, String>>| {
                records
                    .iter()
                    .map(|r| format!("{} {} {:?}", r.time, r.pid, r.kind))
                    .collect()
            };
            if wheel {
                let mut sim = Simulation::new(nodes, config);
                sim.schedule_client(SimTime::from(1), ProcessId(0), "a".into());
                sim.schedule_client(SimTime::from(4500), ProcessId(1), "b".into());
                sim.inject_message(ProcessId(1), ProcessId(0), "ping".into());
                (render(sim.run_until(SimTime::from(10_000))), sim.stats())
            } else {
                let mut sim: ReferenceSimulation<Node> = Simulation::with_queue(nodes, config);
                sim.schedule_client(SimTime::from(1), ProcessId(0), "a".into());
                sim.schedule_client(SimTime::from(4500), ProcessId(1), "b".into());
                sim.inject_message(ProcessId(1), ProcessId(0), "ping".into());
                (render(sim.run_until(SimTime::from(10_000))), sim.stats())
            }
        };
        assert_eq!(drive(true), drive(false));
    }
}
