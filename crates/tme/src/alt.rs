use graybox_clock::{LamportClock, ProcessId, Timestamp};
use graybox_rng::RngCore;
use graybox_simnet::{Context, Corruptible, Process, TimerTag};

use crate::ra::HEARTBEAT;
use crate::{LspecView, Mode, ProcSnapshot, TmeClient, TmeIntrospect, TmeMsg, RELEASE_TIMER};

/// The phase of an [`RaMeAlt`] process — a deliberately different internal
/// representation from [`RaMe`](crate::RaMe)'s flag-based state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Thinking.
    Idle,
    /// Hungry, waiting for permissions.
    Waiting,
    /// Eating.
    InCs,
}

/// An *independent third implementation* of `Lspec`, in the
/// Ricart–Agrawala family but structured differently from [`RaMe`]:
///
/// * per-peer information is `Option<Timestamp>` (`None` = no current
///   info) instead of a `(received, value)` pair;
/// * the deferred set is materialized and carried in the `InCs` phase
///   instead of recomputed from the always-section definition;
/// * the grant bookkeeping is recomputed from `Option` info rather than
///   flag arrays.
///
/// Its purpose in this reproduction is Corollary 11 taken seriously: the
/// graybox wrapper was written against [`LspecView`] only, so it must add
/// stabilization to this implementation too — code the wrapper author
/// never saw. The integration tests and experiment T5 drive that point.
///
/// [`RaMe`]: crate::RaMe
///
/// # Example
///
/// ```
/// use graybox_clock::ProcessId;
/// use graybox_tme::{Mode, RaMeAlt};
///
/// let p = RaMeAlt::new(ProcessId(0), 3);
/// assert_eq!(p.mode(), Mode::Thinking);
/// ```
#[derive(Debug, Clone)]
pub struct RaMeAlt {
    id: ProcessId,
    n: usize,
    clock: LamportClock,
    phase: Phase,
    req: Timestamp,
    info: Vec<Option<Timestamp>>,
    /// Peers whose requests we have not answered yet (they get their reply
    /// at release) — materialized, unlike `RA_ME`'s always-section set.
    deferred: Vec<ProcessId>,
    eat_for: u64,
    eat_remaining: u64,
    heartbeat: u64,
    entries: u64,
}

impl RaMeAlt {
    /// Creates process `id` of an `n`-process system, thinking with
    /// `REQ_j = 0` and no peer information.
    pub fn new(id: ProcessId, n: usize) -> Self {
        RaMeAlt {
            id,
            n,
            clock: LamportClock::new(id),
            phase: Phase::Idle,
            req: Timestamp::zero(id),
            info: vec![None; n],
            deferred: Vec::new(),
            eat_for: 1,
            eat_remaining: 0,
            heartbeat: HEARTBEAT,
            entries: 0,
        }
    }

    /// Number of critical-section entries so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// The current mode.
    pub fn mode(&self) -> Mode {
        match self.phase {
            Phase::Idle => Mode::Thinking,
            Phase::Waiting => Mode::Hungry,
            Phase::InCs => Mode::Eating,
        }
    }

    fn try_enter(&mut self) {
        if self.phase != Phase::Waiting {
            return;
        }
        let all_later = self
            .peers()
            .all(|k| matches!(self.info[k.index()], Some(ts) if self.req.lt(ts)));
        if all_later {
            self.phase = Phase::InCs;
            self.clock.tick();
            self.eat_remaining = self.eat_for.max(1);
            self.entries += 1;
        }
    }

    fn release(&mut self, ctx: &mut Context<TmeMsg>) {
        let ts = self.clock.tick();
        let (id, n) = (self.id, self.n);
        for k in self.deferred.drain(..) {
            if k != id && k.index() < n {
                ctx.send(k, TmeMsg::Reply(ts));
            }
        }
        self.req = ts;
        self.phase = Phase::Idle;
        self.info.fill(None);
    }

    fn valid_peer(&self, from: ProcessId) -> bool {
        from != self.id && from.index() < self.n
    }

    /// CS Release Spec maintenance: see `RaMe::refresh_req_if_thinking`.
    fn refresh_req_if_thinking(&mut self) {
        if self.phase == Phase::Idle {
            self.req = self.clock.now();
        }
    }
}

impl Process for RaMeAlt {
    type Msg = TmeMsg;
    type Client = TmeClient;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_start(&mut self, ctx: &mut Context<TmeMsg>) {
        ctx.set_timer(RELEASE_TIMER, self.heartbeat);
    }

    fn on_message(&mut self, from: ProcessId, msg: TmeMsg, ctx: &mut Context<TmeMsg>) {
        if !self.valid_peer(from) {
            return;
        }
        self.clock.receive(msg.timestamp());
        match msg {
            TmeMsg::Request(ts) => {
                self.info[from.index()] = Some(ts);
                if self.phase == Phase::Idle {
                    self.req = self.clock.now();
                }
                if ts.lt(self.req) {
                    // Reply with REQ_j (not the raw clock): a reply must
                    // never claim a request from the future, or invariant I
                    // (Theorem A.1) breaks at the receiver.
                    ctx.send(from, TmeMsg::Reply(self.req));
                    self.deferred.retain(|&k| k != from);
                } else if !self.deferred.contains(&from) {
                    // Our request precedes: answer at release, whether we
                    // are still waiting or already eating.
                    self.deferred.push(from);
                }
                self.try_enter();
            }
            TmeMsg::Reply(ts) => {
                if !self.mode().is_eating() {
                    self.info[from.index()] = Some(ts);
                    self.try_enter();
                }
            }
            TmeMsg::Release(_) => {
                // Not part of this protocol; tolerate injected garbage.
            }
        }
        self.refresh_req_if_thinking();
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<TmeMsg>) {
        if tag != RELEASE_TIMER {
            return;
        }
        ctx.set_timer(RELEASE_TIMER, self.heartbeat);
        if self.mode().is_eating() {
            self.eat_remaining = self.eat_remaining.saturating_sub(self.heartbeat);
            if self.eat_remaining == 0 {
                self.release(ctx);
            }
        }
        // UNITY weak fairness: re-evaluate the enter-CS guard on every
        // heartbeat, so a corruption that fabricates an all-later info map
        // (which no future message would disturb) cannot wedge the process
        // in Waiting forever. No-op in legitimate runs.
        self.try_enter();
        self.refresh_req_if_thinking();
    }

    fn on_client(&mut self, event: TmeClient, ctx: &mut Context<TmeMsg>) {
        match event {
            TmeClient::Request { eat_for } => {
                if self.phase != Phase::Idle {
                    return;
                }
                self.eat_for = eat_for.max(1);
                self.req = self.clock.tick();
                self.phase = Phase::Waiting;
                // Requesting invalidates stale permissions: the protocol
                // demands info about peers' requests *after* ours.
                self.info.fill(None);
                self.deferred.clear();
                let req = self.req;
                for k in self.peers() {
                    ctx.send(k, TmeMsg::Request(req));
                }
                self.try_enter();
            }
            TmeClient::Release => {
                if self.mode().is_eating() {
                    self.release(ctx);
                }
            }
        }
    }
}

impl LspecView for RaMeAlt {
    fn lspec_id(&self) -> ProcessId {
        self.id
    }

    fn lspec_n(&self) -> usize {
        self.n
    }

    fn mode(&self) -> Mode {
        self.mode()
    }

    fn req(&self) -> Timestamp {
        self.req
    }

    fn my_req_precedes(&self, k: ProcessId) -> bool {
        k != self.id
            && k.index() < self.n
            && matches!(self.info[k.index()], Some(ts) if self.req.lt(ts))
    }
}

impl TmeIntrospect for RaMeAlt {
    fn snapshot(&self) -> ProcSnapshot {
        ProcSnapshot {
            pid: self.id,
            mode: self.mode(),
            req: self.req,
            now_ts: self.clock.now(),
            precedes: ProcessId::all(self.n)
                .map(|k| self.my_req_precedes(k))
                .collect(),
            local_req: ProcessId::all(self.n)
                .map(|k| {
                    if k == self.id {
                        None
                    } else {
                        self.info[k.index()]
                    }
                })
                .collect(),
        }
    }
}

impl Corruptible for RaMeAlt {
    fn corrupt(&mut self, rng: &mut dyn RngCore) {
        let n = u32::try_from(self.n).expect("process count exceeds u32");
        let small_ts = |rng: &mut dyn RngCore| {
            Timestamp::new(
                u64::from(rng.next_u32() % 64),
                ProcessId(rng.next_u32() % n),
            )
        };
        self.req = small_ts(rng);
        for slot in &mut self.info {
            *slot = rng.next_u32().is_multiple_of(2).then(|| small_ts(rng));
        }
        self.phase = match rng.next_u32() % 3 {
            0 => Phase::Idle,
            1 => Phase::Waiting,
            _ => Phase::InCs,
        };
        self.deferred = ProcessId::all(self.n)
            .filter(|_| rng.next_u32().is_multiple_of(2))
            .collect();
        let mut time = 0u64;
        time.corrupt(rng);
        self.clock.set_time(time % 64);
        self.eat_remaining = u64::from(rng.next_u32() % 16);
        self.eat_for = u64::from(rng.next_u32() % 16).max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graybox_simnet::{SimConfig, SimTime, Simulation};

    fn sim(n: u32, seed: u64) -> Simulation<RaMeAlt> {
        let procs = (0..n)
            .map(|i| RaMeAlt::new(ProcessId(i), n as usize))
            .collect();
        Simulation::new(procs, SimConfig::with_seed(seed))
    }

    #[test]
    fn single_requester_enters_and_releases() {
        let mut s = sim(3, 1);
        s.schedule_client(
            SimTime::from(1),
            ProcessId(0),
            TmeClient::Request { eat_for: 4 },
        );
        s.run_until(SimTime::from(300));
        assert_eq!(s.process(ProcessId(0)).entries(), 1);
        assert_eq!(s.process(ProcessId(0)).mode(), Mode::Thinking);
    }

    #[test]
    fn contenders_never_overlap() {
        let mut s = sim(3, 2);
        for i in 0..3 {
            s.schedule_client(
                SimTime::from(1),
                ProcessId(i),
                TmeClient::Request { eat_for: 4 },
            );
        }
        while s.peek_time().is_some_and(|t| t <= SimTime::from(2_000)) {
            s.step();
            let eating = s.processes().filter(|p| p.mode().is_eating()).count();
            assert!(eating <= 1, "ME1 violated at {}", s.now());
        }
        for p in s.processes() {
            assert_eq!(p.entries(), 1, "process {} starved", p.id());
        }
    }

    #[test]
    fn deferred_replies_flow_at_release() {
        let mut s = sim(2, 3);
        s.schedule_client(
            SimTime::from(1),
            ProcessId(0),
            TmeClient::Request { eat_for: 40 },
        );
        s.schedule_client(
            SimTime::from(20),
            ProcessId(1),
            TmeClient::Request { eat_for: 4 },
        );
        s.run_until(SimTime::from(30));
        // p0 eats, p1 waits (its request deferred).
        assert_eq!(s.process(ProcessId(0)).mode(), Mode::Eating);
        assert_eq!(s.process(ProcessId(1)).mode(), Mode::Hungry);
        s.run_until(SimTime::from(1_000));
        assert_eq!(s.process(ProcessId(1)).entries(), 1);
    }

    #[test]
    fn fresh_request_clears_stale_permissions() {
        let mut p = RaMeAlt::new(ProcessId(0), 2);
        let mut ctx = graybox_simnet::Context::detached(SimTime::from(1), ProcessId(0));
        // Receive a request while idle: info recorded.
        p.on_message(
            ProcessId(1),
            TmeMsg::Request(Timestamp::new(1, ProcessId(1))),
            &mut ctx,
        );
        assert!(p.info[1].is_some());
        // Our own request resets it: stale info must not grant entry.
        p.on_client(TmeClient::Request { eat_for: 5 }, &mut ctx);
        assert!(p.info[1].is_none());
        assert_eq!(p.mode(), Mode::Hungry);
    }

    #[test]
    fn corruption_preserves_identity_and_bounds() {
        use graybox_rng::rngs::SmallRng;
        use graybox_rng::SeedableRng;
        let mut p = RaMeAlt::new(ProcessId(1), 3);
        p.corrupt(&mut SmallRng::seed_from_u64(4));
        assert_eq!(p.id, ProcessId(1));
        for ts in p.info.iter().flatten() {
            assert!(ts.pid.index() < 3);
        }
    }

    #[test]
    fn snapshot_mirrors_info() {
        let mut p = RaMeAlt::new(ProcessId(0), 2);
        p.info[1] = Some(Timestamp::new(9, ProcessId(1)));
        let snap = p.snapshot();
        assert_eq!(snap.local_req[1], Some(Timestamp::new(9, ProcessId(1))));
        assert_eq!(snap.local_req[0], None);
    }
}
