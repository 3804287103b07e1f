use graybox_clock::{LamportClock, ProcessId, Timestamp};
use graybox_rng::RngCore;
use graybox_simnet::{Context, Corruptible, Process, TimerTag};

use crate::{LspecView, Mode, ProcSnapshot, TmeClient, TmeIntrospect, TmeMsg, RELEASE_TIMER};

/// Ricart–Agrawala mutual exclusion, exactly the `RA_ME` program of §5.1.
///
/// State per process `j`: `REQ_j`, the local copies `j.REQ_k`, the
/// `received(j.REQ_k)` flags, and the mode variable over `{t, h, e}`. The
/// deferred set is *defined*, not stored:
/// `deferred_set.j = {k | received(j.REQ_k) ∧ REQ_j lt j.REQ_k}` (the
/// paper's "always section").
///
/// Actions (one per handler):
/// * **Request CS** — `REQ_j := lc.j; h.j := true; send-request to all`.
/// * **receive-request** `REQ_k` — record it, refresh `REQ_j := lc.j` if
///   thinking, reply iff `j.REQ_k lt REQ_j`.
/// * **receive-reply** — record it (guarded by `¬e.j` as in the paper; the
///   logical clock still witnesses the timestamp so Timestamp Spec holds).
/// * **Grant CS** — enter when `h.j ∧ (∀k≠j : received(j.REQ_k) ∧ REQ_j lt
///   j.REQ_k)`; checked after every state change.
/// * **Release CS** — send the deferred replies, `REQ_j := lc.j`, reset
///   `received`, back to thinking.
///
/// The critical-section *client* (CS Spec: `e.j` is transient) is realized
/// by a heartbeat timer armed at start and re-armed forever: while eating,
/// the remaining eat budget decreases each beat and the process releases
/// when it runs out. Because the heartbeat is re-armed on every firing, the
/// obligation survives arbitrary state corruption — which `Lspec` demands,
/// since Client Spec must be *everywhere* implemented.
///
/// # Example
///
/// ```
/// use graybox_clock::ProcessId;
/// use graybox_tme::{Mode, RaMe};
///
/// let p = RaMe::new(ProcessId(0), 3);
/// assert_eq!(p.mode(), Mode::Thinking);
/// ```
#[derive(Debug, Clone)]
pub struct RaMe {
    id: ProcessId,
    n: usize,
    clock: LamportClock,
    mode: Mode,
    req: Timestamp,
    local_req: Vec<Timestamp>,
    received: Vec<bool>,
    eat_for: u64,
    eat_remaining: u64,
    heartbeat: u64,
    entries: u64,
}

/// Heartbeat period (ticks) used by all bundled implementations.
pub(crate) const HEARTBEAT: u64 = 4;

impl RaMe {
    /// Creates process `id` of an `n`-process system in the paper's `Init`
    /// state: thinking, `REQ_j = 0`, all copies `0`, nothing received.
    pub fn new(id: ProcessId, n: usize) -> Self {
        RaMe {
            id,
            n,
            clock: LamportClock::new(id),
            mode: Mode::Thinking,
            req: Timestamp::zero(id),
            local_req: ProcessId::all(n).map(Timestamp::zero).collect(),
            received: vec![false; n],
            eat_for: 1,
            eat_remaining: 0,
            heartbeat: HEARTBEAT,
            entries: 0,
        }
    }

    /// Number of times this process has entered the critical section.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// The current mode (also via [`LspecView`]).
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// `received(j.REQ_k)` — exposed for tests and checkers.
    pub fn received_from(&self, k: ProcessId) -> bool {
        self.received[k.index()]
    }

    fn deferred_set(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.peers()
            .filter(|&k| self.received[k.index()] && self.req.lt(self.local_req[k.index()]))
    }

    fn try_enter(&mut self) -> bool {
        let granted = self.mode.is_hungry()
            && self
                .peers()
                .all(|k| self.received[k.index()] && self.req.lt(self.local_req[k.index()]));
        if granted {
            self.mode = Mode::Eating;
            self.clock.tick(); // the entry event ts:(e.j)
            self.eat_remaining = self.eat_for.max(1);
            self.entries += 1;
        }
        granted
    }

    fn release(&mut self, ctx: &mut Context<TmeMsg>) {
        let ts = self.clock.tick();
        for k in self.deferred_set() {
            ctx.send(k, TmeMsg::Reply(ts));
        }
        self.req = ts;
        self.mode = Mode::Thinking;
        self.received.fill(false);
    }

    fn valid_peer(&self, from: ProcessId) -> bool {
        from != self.id && from.index() < self.n
    }

    /// CS Release Spec: "when t.j holds REQ_j is always set to the
    /// timestamp of the most current event in j". Maintained at the end of
    /// every handled event — a no-op in legitimate states, and the repair
    /// path for a corrupted REQ_j at a thinking process (the heartbeat
    /// guarantees it runs within one period of any corruption).
    fn refresh_req_if_thinking(&mut self) {
        if self.mode.is_thinking() {
            self.req = self.clock.now();
        }
    }
}

impl Process for RaMe {
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
            return; // garbage injected with an impossible origin
        }
        self.clock.receive(msg.timestamp());
        match msg {
            TmeMsg::Request(ts) => {
                self.local_req[from.index()] = ts;
                self.received[from.index()] = true;
                if self.mode.is_thinking() {
                    self.req = self.clock.now();
                }
                if self.local_req[from.index()].lt(self.req) {
                    ctx.send(from, TmeMsg::Reply(self.req));
                }
                self.try_enter();
            }
            TmeMsg::Reply(ts) => {
                if !self.mode.is_eating() {
                    self.local_req[from.index()] = ts;
                    self.received[from.index()] = true;
                    self.try_enter();
                }
            }
            TmeMsg::Release(_) => {
                // RA_ME has no release messages; tolerate injected ones.
            }
        }
        self.refresh_req_if_thinking();
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<TmeMsg>) {
        if tag != RELEASE_TIMER {
            return;
        }
        ctx.set_timer(RELEASE_TIMER, self.heartbeat);
        if self.mode.is_eating() {
            self.eat_remaining = self.eat_remaining.saturating_sub(self.heartbeat);
            if self.eat_remaining == 0 {
                self.release(ctx);
            }
        }
        // UNITY weak fairness: the enter-CS guarded command must fire
        // eventually whenever enabled, not only on message receipt. A
        // corruption can fabricate "all replies received and I precede
        // everyone" — a state no message will ever disturb — so the guard
        // is re-evaluated on every heartbeat. A no-op in legitimate runs
        // (the guard only becomes true at a receipt, which already enters).
        self.try_enter();
        self.refresh_req_if_thinking();
    }

    fn on_client(&mut self, event: TmeClient, ctx: &mut Context<TmeMsg>) {
        match event {
            TmeClient::Request { eat_for } => {
                if !self.mode.is_thinking() {
                    return; // Structural Spec: only t → h
                }
                self.eat_for = eat_for.max(1);
                self.req = self.clock.tick();
                self.mode = Mode::Hungry;
                let req = self.req;
                for k in self.peers() {
                    ctx.send(k, TmeMsg::Request(req));
                }
                self.try_enter(); // n = 1 degenerates to immediate grant
            }
            TmeClient::Release => {
                if self.mode.is_eating() {
                    self.release(ctx);
                }
            }
        }
    }
}

impl LspecView for RaMe {
    fn lspec_id(&self) -> ProcessId {
        self.id
    }

    fn lspec_n(&self) -> usize {
        self.n
    }

    fn mode(&self) -> Mode {
        self.mode
    }

    fn req(&self) -> Timestamp {
        self.req
    }

    fn my_req_precedes(&self, k: ProcessId) -> bool {
        k != self.id
            && k.index() < self.n
            && self.received[k.index()]
            && self.req.lt(self.local_req[k.index()])
    }
}

impl TmeIntrospect for RaMe {
    fn snapshot(&self) -> ProcSnapshot {
        ProcSnapshot {
            pid: self.id,
            mode: self.mode,
            req: self.req,
            now_ts: self.clock.now(),
            precedes: ProcessId::all(self.n)
                .map(|k| self.my_req_precedes(k))
                .collect(),
            local_req: ProcessId::all(self.n)
                .map(|k| (k != self.id).then(|| self.local_req[k.index()]))
                .collect(),
        }
    }
}

impl Corruptible for RaMe {
    fn corrupt(&mut self, rng: &mut dyn RngCore) {
        let n = u32::try_from(self.n).expect("process count exceeds u32");
        let small_ts = |rng: &mut dyn RngCore| {
            Timestamp::new(
                u64::from(rng.next_u32() % 64),
                ProcessId(rng.next_u32() % n),
            )
        };
        self.mode.corrupt(rng);
        self.req = small_ts(rng);
        for slot in &mut self.local_req {
            *slot = small_ts(rng);
        }
        for flag in &mut self.received {
            flag.corrupt(rng);
        }
        let mut time = 0u64;
        time.corrupt(rng);
        self.clock.set_time(time % 64);
        self.eat_remaining = u64::from(rng.next_u32() % 16);
        self.eat_for = u64::from(rng.next_u32() % 16).max(1);
        // id, n, heartbeat, entries are substrate/accounting, not protocol
        // state: identity is preserved by the fault model, and `entries` is
        // an experiment counter outside the modelled state space.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graybox_simnet::{SimConfig, SimTime, Simulation};

    fn sim(n: u32, seed: u64) -> Simulation<RaMe> {
        let procs = (0..n)
            .map(|i| RaMe::new(ProcessId(i), n as usize))
            .collect();
        Simulation::new(procs, SimConfig::with_seed(seed))
    }

    #[test]
    fn initial_state_matches_paper_init() {
        let p = RaMe::new(ProcessId(1), 3);
        assert_eq!(p.mode(), Mode::Thinking);
        assert_eq!(p.req(), Timestamp::zero(ProcessId(1)));
        assert!(!p.received_from(ProcessId(0)));
        assert!(!p.my_req_precedes(ProcessId(0)));
    }

    #[test]
    fn single_requester_enters_and_releases() {
        let mut s = sim(3, 1);
        s.schedule_client(
            SimTime::from(1),
            ProcessId(0),
            TmeClient::Request { eat_for: 6 },
        );
        let records = s.run_until(SimTime::from(300));
        let p0 = s.process(ProcessId(0));
        assert_eq!(p0.entries(), 1);
        assert_eq!(p0.mode(), Mode::Thinking);
        assert!(!records.is_empty());
    }

    #[test]
    fn two_contenders_alternate_without_overlap() {
        let mut s = sim(2, 2);
        s.schedule_client(
            SimTime::from(1),
            ProcessId(0),
            TmeClient::Request { eat_for: 5 },
        );
        s.schedule_client(
            SimTime::from(1),
            ProcessId(1),
            TmeClient::Request { eat_for: 5 },
        );
        // Step manually and assert mutual exclusion at every step.
        while s.peek_time().is_some_and(|t| t <= SimTime::from(1_000)) {
            s.step();
            let eating = s.processes().filter(|p| p.mode().is_eating()).count();
            assert!(eating <= 1, "ME1 violated at {}", s.now());
        }
        assert_eq!(s.process(ProcessId(0)).entries(), 1);
        assert_eq!(s.process(ProcessId(1)).entries(), 1);
    }

    #[test]
    fn five_processes_all_eventually_eat() {
        let mut s = sim(5, 3);
        for i in 0..5 {
            s.schedule_client(
                SimTime::from(1 + u64::from(i)),
                ProcessId(i),
                TmeClient::Request { eat_for: 3 },
            );
        }
        s.run_until(SimTime::from(3_000));
        for p in s.processes() {
            assert_eq!(p.entries(), 1, "process {} starved", p.id());
            assert_eq!(LspecView::mode(p), Mode::Thinking);
        }
    }

    #[test]
    fn requests_while_hungry_are_ignored() {
        let mut s = sim(2, 4);
        s.schedule_client(
            SimTime::from(1),
            ProcessId(0),
            TmeClient::Request { eat_for: 50 },
        );
        s.schedule_client(
            SimTime::from(2),
            ProcessId(0),
            TmeClient::Request { eat_for: 50 },
        );
        s.run_until(SimTime::from(400));
        assert_eq!(s.process(ProcessId(0)).entries(), 1);
    }

    #[test]
    fn explicit_client_release_ends_eating() {
        let mut s = sim(2, 5);
        s.schedule_client(
            SimTime::from(1),
            ProcessId(0),
            TmeClient::Request { eat_for: 500 },
        );
        s.schedule_client(SimTime::from(40), ProcessId(0), TmeClient::Release);
        s.run_until(SimTime::from(120));
        assert_eq!(s.process(ProcessId(0)).mode(), Mode::Thinking);
    }

    #[test]
    fn lost_reply_deadlocks_without_wrapper() {
        // The §4 motivation: drop both requests in flight; each side ends
        // up hungry with stale information and no further messages flow.
        let mut s = sim(2, 6);
        s.schedule_client(
            SimTime::from(1),
            ProcessId(0),
            TmeClient::Request { eat_for: 2 },
        );
        s.schedule_client(
            SimTime::from(1),
            ProcessId(1),
            TmeClient::Request { eat_for: 2 },
        );
        // Run just past the client events so the requests are in flight.
        while s.peek_time().is_some_and(|t| t <= SimTime::from(1)) {
            s.step();
        }
        assert_eq!(s.flush_channel(ProcessId(0), ProcessId(1)), 1);
        assert_eq!(s.flush_channel(ProcessId(1), ProcessId(0)), 1);
        s.run_until(SimTime::from(2_000));
        assert_eq!(s.process(ProcessId(0)).mode(), Mode::Hungry);
        assert_eq!(s.process(ProcessId(1)).mode(), Mode::Hungry);
        assert_eq!(s.process(ProcessId(0)).entries(), 0);
    }

    #[test]
    fn corruption_is_type_valid_and_deterministic() {
        use graybox_rng::rngs::SmallRng;
        use graybox_rng::SeedableRng;
        let mut a = RaMe::new(ProcessId(0), 3);
        let mut b = RaMe::new(ProcessId(0), 3);
        a.corrupt(&mut SmallRng::seed_from_u64(9));
        b.corrupt(&mut SmallRng::seed_from_u64(9));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.id, ProcessId(0)); // identity preserved
        assert!(a.req.pid.index() < 3);
    }

    #[test]
    fn eating_is_transient_even_after_corruption_into_eating() {
        use graybox_rng::rngs::SmallRng;
        use graybox_rng::SeedableRng;
        let mut s = sim(2, 7);
        // Let the start events arm the heartbeats.
        s.run_until(SimTime::from(5));
        // Force process 0 into Eating with a bounded eat_remaining.
        let mut rng = SmallRng::seed_from_u64(1);
        loop {
            s.process_mut(ProcessId(0)).corrupt(&mut rng);
            if s.process(ProcessId(0)).mode().is_eating() {
                break;
            }
        }
        s.run_until(SimTime::from(200));
        assert!(!s.process(ProcessId(0)).mode().is_eating());
    }

    #[test]
    fn snapshot_reflects_state() {
        let p = RaMe::new(ProcessId(1), 3);
        let snap = p.snapshot();
        assert_eq!(snap.pid, ProcessId(1));
        assert_eq!(snap.mode, Mode::Thinking);
        assert_eq!(snap.local_req.len(), 3);
        assert!(snap.local_req[1].is_none());
        assert!(snap.local_req[0].is_some());
        assert!(!snap.precedes_all());
    }
}
