//! Differential test: the indexed `LamportMe` against a linear-scan
//! oracle.
//!
//! `LamportOracle` is the straightforward implementation of the same
//! program: every handler filters, dedups and sorts the whole queue, every
//! lookup scans it, and the entry guard rescans all grants. The production
//! `LamportMe` keeps a per-process index into a sorted queue, repairs the
//! queue only after `corrupt()`, and counts grants. Both must be
//! observably identical — queue, mode, `REQ_j`, entries, snapshots, the
//! virtual `my_req_precedes` and every message sent — from every state,
//! including the window between a corruption and the next handler that
//! repairs it.

use graybox::clock::{LamportClock, ProcessId, Timestamp};
use graybox::simnet::{Context, Corruptible, Process, SimConfig, SimTime, Simulation, TimerTag};
use graybox::tme::{
    LamportMe, LspecView, Mode, ProcSnapshot, TmeClient, TmeIntrospect, TmeMsg, Workload,
    WorkloadConfig, RELEASE_TIMER,
};
use graybox::wrapper::{GrayboxWrapper, WrapperConfig};
use graybox_rng::rngs::SmallRng;
use graybox_rng::{Rng, RngCore, SeedableRng};

/// The heartbeat period of the TME implementations.
const HEARTBEAT: u64 = 4;

/// The linear-scan Lamport ME: the same program as `LamportMe`, written
/// without any index (see the module docs).
#[derive(Debug, Clone)]
struct LamportOracle {
    id: ProcessId,
    n: usize,
    clock: LamportClock,
    mode: Mode,
    req: Timestamp,
    queue: Vec<(ProcessId, Timestamp)>,
    grant: Vec<bool>,
    eat_for: u64,
    eat_remaining: u64,
    heartbeat: u64,
    entries: u64,
}

impl LamportOracle {
    fn new(id: ProcessId, n: usize) -> Self {
        LamportOracle {
            id,
            n,
            clock: LamportClock::new(id),
            mode: Mode::Thinking,
            req: Timestamp::zero(id),
            queue: Vec::new(),
            grant: vec![false; n],
            eat_for: 1,
            eat_remaining: 0,
            heartbeat: HEARTBEAT,
            entries: 0,
        }
    }

    fn peers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        ProcessId::all(self.n).filter(move |&k| k != self.id)
    }

    fn insert(&mut self, pid: ProcessId, ts: Timestamp) {
        self.queue.retain(|&(p, _)| p != pid);
        let position = self
            .queue
            .iter()
            .position(|&(_, other)| ts.lt(other))
            .unwrap_or(self.queue.len());
        self.queue.insert(position, (pid, ts));
    }

    fn remove(&mut self, pid: ProcessId) {
        self.queue.retain(|&(p, _)| p != pid);
    }

    fn entry_of(&self, pid: ProcessId) -> Option<Timestamp> {
        self.queue
            .iter()
            .find(|&&(p, _)| p == pid)
            .map(|&(_, ts)| ts)
    }

    fn try_enter(&mut self) -> bool {
        let all_granted = self.peers().all(|k| self.grant[k.index()]);
        let at_head = self
            .queue
            .first()
            .is_none_or(|&(_, head)| !head.lt(self.req));
        if self.mode.is_hungry() && all_granted && at_head {
            self.mode = Mode::Eating;
            self.clock.tick();
            self.eat_remaining = self.eat_for.max(1);
            self.entries += 1;
            true
        } else {
            false
        }
    }

    fn release(&mut self, ctx: &mut Context<TmeMsg>) {
        let ts = self.clock.tick();
        for k in self.peers().collect::<Vec<_>>() {
            ctx.send(k, TmeMsg::Release(ts));
        }
        self.remove(self.id);
        self.grant.fill(false);
        self.req = ts;
        self.mode = Mode::Thinking;
    }

    fn valid_peer(&self, from: ProcessId) -> bool {
        from != self.id && from.index() < self.n
    }

    fn refresh_req_if_thinking(&mut self) {
        if self.mode.is_thinking() {
            self.req = self.clock.now();
        }
    }

    fn repair_internal(&mut self) {
        self.queue.retain(|&(p, _)| p.index() < self.n);
        let mut seen = vec![false; self.n];
        self.queue
            .retain(|&(p, _)| !std::mem::replace(&mut seen[p.index()], true));
        self.queue.sort_by_key(|&(_, a)| a);
        if self.mode.is_thinking() {
            self.remove(self.id);
        } else if self.entry_of(self.id) != Some(self.req) {
            let req = self.req;
            self.insert(self.id, req);
        }
    }
}

impl Process for LamportOracle {
    type Msg = TmeMsg;
    type Client = TmeClient;

    fn id(&self) -> ProcessId {
        self.id
    }

    fn on_start(&mut self, ctx: &mut Context<TmeMsg>) {
        ctx.set_timer(RELEASE_TIMER, self.heartbeat);
    }

    fn on_message(&mut self, from: ProcessId, msg: TmeMsg, ctx: &mut Context<TmeMsg>) {
        self.repair_internal();
        if !self.valid_peer(from) {
            return;
        }
        self.clock.receive(msg.timestamp());
        match msg {
            TmeMsg::Request(ts) => {
                self.insert(from, ts);
                if self.mode.is_thinking() {
                    self.req = self.clock.now();
                }
                ctx.send(from, TmeMsg::Reply(self.clock.now()));
                if self.mode.is_thinking() {
                    ctx.send(from, TmeMsg::Release(self.clock.now()));
                }
                self.try_enter();
            }
            TmeMsg::Reply(ts) => {
                if !self.mode.is_eating() {
                    if self.req.lt(ts) {
                        self.grant[from.index()] = true;
                    }
                    self.try_enter();
                }
            }
            TmeMsg::Release(_) => {
                self.remove(from);
                self.try_enter();
            }
        }
        self.refresh_req_if_thinking();
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<TmeMsg>) {
        if tag != RELEASE_TIMER {
            return;
        }
        self.repair_internal();
        ctx.set_timer(RELEASE_TIMER, self.heartbeat);
        if self.mode.is_eating() {
            self.eat_remaining = self.eat_remaining.saturating_sub(self.heartbeat);
            if self.eat_remaining == 0 {
                self.release(ctx);
            }
        }
        self.try_enter();
        self.refresh_req_if_thinking();
    }

    fn on_client(&mut self, event: TmeClient, ctx: &mut Context<TmeMsg>) {
        self.repair_internal();
        match event {
            TmeClient::Request { eat_for } => {
                if !self.mode.is_thinking() {
                    return;
                }
                self.eat_for = eat_for.max(1);
                self.req = self.clock.tick();
                self.grant.fill(false);
                let req = self.req;
                self.insert(self.id, req);
                self.mode = Mode::Hungry;
                for k in self.peers().collect::<Vec<_>>() {
                    ctx.send(k, TmeMsg::Request(req));
                }
                self.try_enter();
            }
            TmeClient::Release => {
                if self.mode.is_eating() {
                    self.release(ctx);
                }
            }
        }
    }
}

impl LspecView for LamportOracle {
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
        if k == self.id || k.index() >= self.n {
            return false;
        }
        let not_ahead = self.entry_of(k).is_none_or(|entry| !entry.lt(self.req));
        self.grant[k.index()] && not_ahead
    }
}

impl TmeIntrospect for LamportOracle {
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
                .map(|k| if k == self.id { None } else { self.entry_of(k) })
                .collect(),
        }
    }
}

impl Corruptible for LamportOracle {
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
        self.queue.clear();
        for pid in ProcessId::all(self.n) {
            if rng.next_u32().is_multiple_of(2) {
                self.queue.push((pid, small_ts(rng)));
            }
        }
        for flag in &mut self.grant {
            flag.corrupt(rng);
        }
        let mut time = 0u64;
        time.corrupt(rng);
        self.clock.set_time(time % 64);
        self.eat_remaining = u64::from(rng.next_u32() % 16);
        self.eat_for = u64::from(rng.next_u32() % 16).max(1);
    }
}

/// Asserts that the two processes are observably identical.
fn assert_same(oracle: &LamportOracle, fast: &LamportMe, what: &str) {
    assert_eq!(oracle.queue, fast.queue(), "queue after {what}");
    assert_eq!(oracle.mode, fast.mode(), "mode after {what}");
    assert_eq!(oracle.req, LspecView::req(fast), "req after {what}");
    assert_eq!(oracle.entries, fast.entries(), "entries after {what}");
    assert_eq!(oracle.snapshot(), fast.snapshot(), "snapshot after {what}");
    let beyond = u32::try_from(oracle.n + 1).expect("small n");
    for k in (0..beyond).map(ProcessId) {
        assert_eq!(
            oracle.my_req_precedes(k),
            fast.my_req_precedes(k),
            "my_req_precedes({k}) after {what}"
        );
    }
}

/// A random timestamp near `around` (so replies can grant), carrying any
/// pid including out-of-range ones.
fn random_ts(rng: &mut SmallRng, around: Timestamp, n: u32) -> Timestamp {
    let time = around.time.saturating_sub(4) + rng.gen_range(0..12u64);
    Timestamp::new(time, ProcessId(rng.gen_range(0..=n)))
}

/// One random handler call (or corruption), applied identically to both.
fn random_step(
    rng: &mut SmallRng,
    oracle: &mut LamportOracle,
    fast: &mut LamportMe,
    id: ProcessId,
) -> String {
    let n = u32::try_from(oracle.n).expect("small n");
    let mut ctx_oracle = Context::detached(SimTime::from(1), id);
    let mut ctx_fast = Context::detached(SimTime::from(1), id);
    let what = match rng.gen_range(0..100u32) {
        0..=59 => {
            let from = ProcessId(rng.gen_range(0..=n + 1));
            let ts = random_ts(rng, oracle.req, n);
            let msg = match rng.gen_range(0..3u32) {
                0 => TmeMsg::Request(ts),
                1 => TmeMsg::Reply(ts),
                _ => TmeMsg::Release(ts),
            };
            oracle.on_message(from, msg, &mut ctx_oracle);
            fast.on_message(from, msg, &mut ctx_fast);
            format!("on_message({from}, {msg:?})")
        }
        60..=74 => {
            let tag = if rng.gen_bool(0.8) {
                RELEASE_TIMER
            } else {
                RELEASE_TIMER + 1
            };
            oracle.on_timer(tag, &mut ctx_oracle);
            fast.on_timer(tag, &mut ctx_fast);
            format!("on_timer({tag})")
        }
        75..=96 => {
            let event = if rng.gen_bool(0.7) {
                TmeClient::Request {
                    eat_for: rng.gen_range(0..10u64),
                }
            } else {
                TmeClient::Release
            };
            oracle.on_client(event, &mut ctx_oracle);
            fast.on_client(event, &mut ctx_fast);
            format!("on_client({event:?})")
        }
        _ => {
            let seed = rng.next_u64();
            oracle.corrupt(&mut SmallRng::seed_from_u64(seed));
            fast.corrupt(&mut SmallRng::seed_from_u64(seed));
            format!("corrupt(seed {seed})")
        }
    };
    assert_eq!(
        ctx_oracle.drain_sends(),
        ctx_fast.drain_sends(),
        "sends of {what}"
    );
    what
}

#[test]
fn indexed_lamport_matches_the_linear_scan_oracle_handler_by_handler() {
    for n in [1usize, 2, 3, 5, 8, 16] {
        let mut eating_steps = 0u64;
        for seed in 0..200u64 {
            let mut rng = SmallRng::seed_from_u64(seed * 31 + n as u64);
            let id = ProcessId(rng.gen_range(0..u32::try_from(n).expect("small n")));
            let mut oracle = LamportOracle::new(id, n);
            let mut fast = LamportMe::new(id, n);
            assert_same(&oracle, &fast, "new");
            for step in 0..2_000 {
                let what = random_step(&mut rng, &mut oracle, &mut fast, id);
                eating_steps += u64::from(fast.mode().is_eating());
                assert_same(
                    &oracle,
                    &fast,
                    &format!("step {step} {what} (n={n}, seed={seed})"),
                );
            }
        }
        assert!(
            eating_steps > 0,
            "n={n}: no step reached the critical section"
        );
    }
}

fn wrapped_sim<P>(make: impl Fn(ProcessId, usize) -> P, seed: u64) -> Simulation<GrayboxWrapper<P>>
where
    P: Process<Msg = TmeMsg, Client = TmeClient> + LspecView,
{
    const N: usize = 16;
    let procs = ProcessId::all(N)
        .map(|pid| GrayboxWrapper::new(make(pid, N), WrapperConfig::timeout(8)))
        .collect();
    let mut sim = Simulation::new(procs, SimConfig::with_seed(seed));
    Workload::generate(
        WorkloadConfig {
            n: N,
            requests_per_process: 4,
            mean_think: 40,
            eat_for: 5,
            start: 1,
        },
        seed,
    )
    .apply(&mut sim);
    sim
}

#[test]
fn wrapped_simulations_agree_step_by_step_under_corruption() {
    for seed in 0..20u64 {
        let mut oracle = wrapped_sim(LamportOracle::new, seed);
        let mut fast = wrapped_sim(LamportMe::new, seed);
        let mut faults = SmallRng::seed_from_u64(seed ^ 0x5eed);
        let (mut steps, mut corruptions) = (0u64, 0u64);
        while oracle
            .peek_time()
            .is_some_and(|t| t <= SimTime::from(1_500))
        {
            if faults.gen_bool(0.002) {
                corruptions += 1;
                let pid = ProcessId(faults.gen_range(0..16u32));
                let corruption = faults.next_u64();
                oracle
                    .process_mut(pid)
                    .corrupt(&mut SmallRng::seed_from_u64(corruption));
                fast.process_mut(pid)
                    .corrupt(&mut SmallRng::seed_from_u64(corruption));
            }
            assert_eq!(oracle.step(), fast.step(), "step {steps} (seed {seed})");
            for (x, y) in oracle.processes().zip(fast.processes()) {
                assert_eq!(
                    x.snapshot(),
                    y.snapshot(),
                    "snapshot at step {steps} (seed {seed})"
                );
            }
            assert_eq!(oracle.stats(), fast.stats(), "stats at step {steps}");
            steps += 1;
        }
        assert!(corruptions > 0, "seed {seed}: no corruption injected");
        let entries: u64 = fast.processes().map(|p| p.inner().entries()).sum();
        assert!(entries > 0, "seed {seed}: no critical-section entries");
        assert_eq!(fast.peek_time(), oracle.peek_time());
    }
}
