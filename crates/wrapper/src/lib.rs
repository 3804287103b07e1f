//! # The graybox stabilization wrapper for TME
//!
//! §4 of *"Graybox Stabilization"* (DSN 2001): a level-2 dependability
//! wrapper that re-establishes mutual consistency between processes,
//! designed from `Lspec` alone. The refined wrapper is
//!
//! ```text
//! W_j :: h.j → (∀k : k ≠ j ∧ j.REQ_k lt REQ_j : send(REQ_j, j, k))
//! ```
//!
//! and its implementation `W'_j` repeats the sends on a **timeout** `θ`
//! instead of continuously:
//!
//! ```text
//! W'_j :: (timer.j = 0 ∧ h.j) → (∀k : … : send(REQ_j, j, k)); timer.j := θ_j
//! ```
//!
//! `θ = 0` recovers `W` (here: one resend opportunity per tick, the
//! simulator's minimum granularity). The timeout is "just an optimization"
//! (paper): it trades recovery latency for fewer redundant request
//! messages — experiment F3 sweeps it.
//!
//! **Graybox-ness is enforced by the type system**: [`GrayboxWrapper`] is
//! generic over `P: LspecView + …` and the trait exposes exactly the
//! quantities `Lspec` talks about (`h.j`, `REQ_j`, `REQ_j lt j.REQ_k`).
//! The wrapper cannot name, let alone touch, Ricart–Agrawala or Lamport
//! internals — which is what makes Corollary 11 (one wrapper, every
//! implementation) a property of the *code*, not just of the proof.
//!
//! # Example
//!
//! ```
//! use graybox_clock::ProcessId;
//! use graybox_simnet::{SimConfig, Simulation, SimTime};
//! use graybox_tme::{Implementation, TmeClient, TmeProcess};
//! use graybox_wrapper::{GrayboxWrapper, WrapperConfig};
//!
//! let n = 2;
//! let procs: Vec<_> = (0..n)
//!     .map(|i| {
//!         let inner = TmeProcess::new(Implementation::RicartAgrawala, ProcessId(i), n as usize);
//!         GrayboxWrapper::new(inner, WrapperConfig::timeout(8))
//!     })
//!     .collect();
//! let mut sim = Simulation::new(procs, SimConfig::with_seed(1));
//! sim.schedule_client(SimTime::from(1), ProcessId(0), TmeClient::Request { eat_for: 3 });
//! sim.run_until(SimTime::from(500));
//! assert_eq!(sim.process(ProcessId(0)).inner().entries(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use graybox_clock::{ProcessId, Timestamp};
use graybox_rng::RngCore;
use graybox_simnet::{Context, Corruptible, Process, TimerTag, TimerTagExt};
use graybox_tme::{LspecView, Mode, ProcSnapshot, TmeClient, TmeIntrospect, TmeMsg};

/// Timer tag used by the wrapper (disjoint from protocol tags).
pub const WRAPPER_TIMER: TimerTag = TimerTag::WRAPPER_BASE;

/// Which resend rule the wrapper applies while its process is hungry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WrapperStrategy {
    /// No wrapper behaviour at all (baseline: the unwrapped system).
    Off,
    /// The paper's *first* version of `W_j`: re-send `REQ_j` to **every**
    /// peer while hungry. Correct but chattier; kept for the ablation
    /// (experiment T6).
    Unrefined,
    /// The paper's refined `W_j`: re-send only to peers `k` with
    /// `j.REQ_k lt REQ_j` — exactly the ones whose local information (or
    /// ours about them) may be mutually inconsistent.
    Refined,
    /// This repo's engineering extension of the paper's tuning remark: the
    /// refined rule with **exponential backoff**. Each consecutive firing
    /// that actually re-sends doubles the waiting period (up to
    /// `max_theta`); any firing that sends nothing — the system looks
    /// consistent — resets it to the base `theta`. Recovers as fast as a
    /// small θ while idling as cheaply as a large one.
    Backoff {
        /// Upper bound on the backed-off timeout.
        max_theta: u64,
    },
}

/// Configuration of a [`GrayboxWrapper`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WrapperConfig {
    /// The resend rule.
    pub strategy: WrapperStrategy,
    /// The timeout `θ` in ticks: the wrapper acts every `θ + 1` ticks
    /// (`θ = 0` is the paper's `W`, at the simulator's one-tick
    /// granularity).
    pub theta: u64,
}

impl WrapperConfig {
    /// The unwrapped baseline.
    pub fn off() -> Self {
        WrapperConfig {
            strategy: WrapperStrategy::Off,
            theta: 0,
        }
    }

    /// The paper's `W` (refined rule, continuous resend: `θ = 0`).
    pub fn eager() -> Self {
        Self::timeout(0)
    }

    /// The paper's `W'` with timeout `θ` (refined rule).
    pub fn timeout(theta: u64) -> Self {
        WrapperConfig {
            strategy: WrapperStrategy::Refined,
            theta,
        }
    }

    /// The unrefined first version with timeout `θ` (for the ablation).
    pub fn unrefined(theta: u64) -> Self {
        WrapperConfig {
            strategy: WrapperStrategy::Unrefined,
            theta,
        }
    }

    /// The refined rule with exponential backoff from `theta` up to
    /// `max_theta`.
    pub fn backoff(theta: u64, max_theta: u64) -> Self {
        WrapperConfig {
            strategy: WrapperStrategy::Backoff {
                max_theta: max_theta.max(theta),
            },
            theta,
        }
    }

    /// True when the wrapper does anything.
    pub fn enabled(&self) -> bool {
        self.strategy != WrapperStrategy::Off
    }

    /// The wrapper's firing period in ticks. Saturates, so `θ = u64::MAX`
    /// means the wrapper never re-fires.
    pub fn period(&self) -> u64 {
        self.theta.saturating_add(1)
    }

    /// Short label for experiment tables.
    pub fn label(&self) -> String {
        match self.strategy {
            WrapperStrategy::Off => "off".to_string(),
            WrapperStrategy::Unrefined => format!("W_unrefined(θ={})", self.theta),
            WrapperStrategy::Refined => format!("W'(θ={})", self.theta),
            WrapperStrategy::Backoff { max_theta } => {
                format!("W_backoff(θ={}..{max_theta})", self.theta)
            }
        }
    }
}

/// The graybox wrapper `W'_j`, composed with a wrapped process.
///
/// This is the box composition `C ⊓ W'` at the implementation level: the
/// wrapper delegates every event to the wrappee unchanged (interference
/// freedom at the code level) and adds exactly one behaviour of its own —
/// the periodic, `Lspec`-guided re-send of the current request.
#[derive(Debug, Clone)]
pub struct GrayboxWrapper<P> {
    inner: P,
    config: WrapperConfig,
    resends: u64,
    firings: u64,
    /// Current waiting period for the backoff strategy (`period()` for the
    /// fixed strategies).
    current_period: u64,
}

impl<P> GrayboxWrapper<P> {
    /// Wraps `inner` with the given configuration.
    pub fn new(inner: P, config: WrapperConfig) -> Self {
        GrayboxWrapper {
            inner,
            config,
            resends: 0,
            firings: 0,
            current_period: config.period(),
        }
    }

    /// The wrapped process.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Mutable access to the wrapped process (fault injection).
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }

    /// The wrapper's configuration.
    pub fn config(&self) -> WrapperConfig {
        self.config
    }

    /// Number of request messages this wrapper has re-sent — the wrapper's
    /// overhead metric (experiments F3/F4/T6).
    pub fn resends(&self) -> u64 {
        self.resends
    }

    /// Number of times the wrapper timer has fired.
    pub fn firings(&self) -> u64 {
        self.firings
    }
}

impl<P> GrayboxWrapper<P>
where
    P: LspecView,
{
    /// One firing of `W'_j`: while hungry, re-send `REQ_j` to the peers
    /// selected by the strategy. Uses only the [`LspecView`] interface.
    /// Returns how many messages this firing sent.
    fn fire(&mut self, ctx: &mut Context<TmeMsg>) -> u64 {
        self.firings += 1;
        if LspecView::mode(&self.inner) != Mode::Hungry {
            return 0;
        }
        let req = self.inner.req();
        let mut sent = 0;
        for k in self.inner.peers() {
            let resend = match self.config.strategy {
                WrapperStrategy::Off => false,
                WrapperStrategy::Unrefined => true,
                // j.REQ_k lt REQ_j  ≡  ¬(REQ_j lt j.REQ_k) for k ≠ j.
                WrapperStrategy::Refined | WrapperStrategy::Backoff { .. } => {
                    !self.inner.my_req_precedes(k)
                }
            };
            if resend {
                ctx.send(k, TmeMsg::Request(req));
                self.resends += 1;
                sent += 1;
            }
        }
        sent
    }

    /// Updates the waiting period after a firing that sent `sent` messages
    /// (backoff strategy only; fixed strategies keep `period()`).
    fn next_period(&mut self, sent: u64) -> u64 {
        if let WrapperStrategy::Backoff { max_theta } = self.config.strategy {
            if sent > 0 {
                self.current_period = self
                    .current_period
                    .saturating_mul(2)
                    .min(max_theta.saturating_add(1));
            } else {
                self.current_period = self.config.period();
            }
            self.current_period
        } else {
            self.config.period()
        }
    }
}

impl<P> Process for GrayboxWrapper<P>
where
    P: Process<Msg = TmeMsg, Client = TmeClient> + LspecView,
{
    type Msg = TmeMsg;
    type Client = TmeClient;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_start(&mut self, ctx: &mut Context<TmeMsg>) {
        self.inner.on_start(ctx);
        if self.config.enabled() {
            ctx.set_timer(WRAPPER_TIMER, self.config.period());
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: TmeMsg, ctx: &mut Context<TmeMsg>) {
        self.inner.on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<TmeMsg>) {
        if tag == WRAPPER_TIMER {
            if self.config.enabled() {
                let sent = self.fire(ctx);
                let period = self.next_period(sent);
                ctx.set_timer(WRAPPER_TIMER, period);
            }
        } else {
            self.inner.on_timer(tag, ctx);
        }
    }

    fn on_client(&mut self, event: TmeClient, ctx: &mut Context<TmeMsg>) {
        self.inner.on_client(event, ctx);
    }
}

impl<P> LspecView for GrayboxWrapper<P>
where
    P: LspecView,
{
    fn lspec_id(&self) -> ProcessId {
        self.inner.lspec_id()
    }

    fn lspec_n(&self) -> usize {
        self.inner.lspec_n()
    }

    fn mode(&self) -> Mode {
        LspecView::mode(&self.inner)
    }

    fn req(&self) -> Timestamp {
        self.inner.req()
    }

    fn my_req_precedes(&self, k: ProcessId) -> bool {
        self.inner.my_req_precedes(k)
    }
}

impl<P> TmeIntrospect for GrayboxWrapper<P>
where
    P: TmeIntrospect,
{
    fn snapshot(&self) -> ProcSnapshot {
        self.inner.snapshot()
    }
}

impl<P> Corruptible for GrayboxWrapper<P>
where
    P: Corruptible,
{
    /// Corrupts the wrapped process. The wrapper itself has no protocol
    /// state to corrupt: its timer lives in the substrate (corrupting
    /// `timer.j` in the paper's `W'` merely delays one firing by at most
    /// `θ`, which the periodic re-arm already subsumes), and its counters
    /// are experiment metrics outside the modelled state space.
    fn corrupt(&mut self, rng: &mut dyn RngCore) {
        self.inner.corrupt(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graybox_simnet::{SimConfig, SimTime, Simulation};
    use graybox_tme::{Implementation, TmeProcess};

    type Wrapped = GrayboxWrapper<TmeProcess>;

    fn sim(
        implementation: Implementation,
        n: u32,
        config: WrapperConfig,
        seed: u64,
    ) -> Simulation<Wrapped> {
        let procs = (0..n)
            .map(|i| {
                GrayboxWrapper::new(
                    TmeProcess::new(implementation, ProcessId(i), n as usize),
                    config,
                )
            })
            .collect();
        Simulation::new(procs, SimConfig::with_seed(seed))
    }

    /// Reproduces the §4 deadlock: both requests dropped in flight.
    fn induce_deadlock(s: &mut Simulation<Wrapped>) {
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
        while s.peek_time().is_some_and(|t| t <= SimTime::from(1)) {
            s.step();
        }
        s.flush_channel(ProcessId(0), ProcessId(1));
        s.flush_channel(ProcessId(1), ProcessId(0));
    }

    #[test]
    fn wrapper_resolves_the_deadlock_for_every_implementation() {
        for implementation in Implementation::ALL {
            let mut s = sim(implementation, 2, WrapperConfig::timeout(4), 1);
            induce_deadlock(&mut s);
            s.run_until(SimTime::from(2_000));
            for p in s.processes() {
                assert_eq!(
                    p.inner().entries(),
                    1,
                    "{implementation}: wrapper failed to break the deadlock"
                );
                assert_eq!(p.inner().mode(), Mode::Thinking);
            }
        }
    }

    #[test]
    fn without_wrapper_the_deadlock_persists() {
        let mut s = sim(Implementation::RicartAgrawala, 2, WrapperConfig::off(), 2);
        induce_deadlock(&mut s);
        s.run_until(SimTime::from(2_000));
        for p in s.processes() {
            assert_eq!(p.inner().entries(), 0);
            assert_eq!(p.inner().mode(), Mode::Hungry);
        }
    }

    #[test]
    fn eager_wrapper_is_theta_zero() {
        assert_eq!(WrapperConfig::eager(), WrapperConfig::timeout(0));
        assert_eq!(WrapperConfig::eager().period(), 1);
        assert_eq!(WrapperConfig::timeout(u64::MAX).period(), u64::MAX);
        assert!(WrapperConfig::eager().enabled());
        assert!(!WrapperConfig::off().enabled());
    }

    #[test]
    fn refined_wrapper_sends_fewer_messages_than_unrefined() {
        let total_resends = |config: WrapperConfig| -> u64 {
            let mut s = sim(Implementation::RicartAgrawala, 3, config, 3);
            induce_deadlock(&mut s);
            s.run_until(SimTime::from(2_000));
            s.processes().map(GrayboxWrapper::resends).sum()
        };
        let refined = total_resends(WrapperConfig::timeout(4));
        let unrefined = total_resends(WrapperConfig::unrefined(4));
        assert!(refined > 0);
        assert!(
            refined < unrefined,
            "refined {refined} should be below unrefined {unrefined}"
        );
    }

    #[test]
    fn larger_theta_sends_fewer_wrapper_messages() {
        let resends_at = |theta: u64| -> u64 {
            let mut s = sim(
                Implementation::RicartAgrawala,
                2,
                WrapperConfig::timeout(theta),
                4,
            );
            induce_deadlock(&mut s);
            s.run_until(SimTime::from(2_000));
            s.processes().map(GrayboxWrapper::resends).sum()
        };
        let small = resends_at(0);
        let large = resends_at(32);
        assert!(small > large, "θ=0 resends {small} vs θ=32 resends {large}");
    }

    #[test]
    fn wrapper_is_idle_in_legitimate_states() {
        // Fault-free run: the wrapper may fire, but once a request is
        // served no inconsistency remains; resends only happen while
        // hungry, so a mostly-thinking system sees few.
        let mut s = sim(Implementation::Lamport, 2, WrapperConfig::timeout(16), 5);
        s.schedule_client(
            SimTime::from(1),
            ProcessId(0),
            TmeClient::Request { eat_for: 2 },
        );
        s.run_until(SimTime::from(2_000));
        let resends: u64 = s.processes().map(GrayboxWrapper::resends).sum();
        // The single request is served in well under one θ-period or two.
        assert!(resends <= 2, "wrapper sent {resends} redundant messages");
        assert_eq!(s.process(ProcessId(0)).inner().entries(), 1);
    }

    #[test]
    fn interference_freedom_fault_free_lspec_still_holds() {
        // Lemma 6 at the code level: Lspec ⊓ W everywhere implements
        // Lspec — a fault-free wrapped run satisfies all checkers.
        use graybox_spec::{lspec, tme_spec, TraceRecorder};
        use graybox_tme::{Workload, WorkloadConfig};
        for implementation in Implementation::ALL {
            let n = 3;
            let procs = (0..u32::try_from(n).unwrap())
                .map(|i| {
                    GrayboxWrapper::new(
                        TmeProcess::new(implementation, ProcessId(i), n),
                        WrapperConfig::timeout(6),
                    )
                })
                .collect();
            let mut sim = Simulation::new(procs, SimConfig::with_seed(6));
            Workload::generate(WorkloadConfig::default(), 6).apply(&mut sim);
            let mut recorder = TraceRecorder::new(&sim);
            recorder.run_until(&mut sim, SimTime::from(3_000));
            let trace = recorder.into_trace();
            let report = lspec::check_all(&trace, lspec::DEFAULT_GRACE);
            assert!(
                report.holds(),
                "{implementation}: wrapper interfered: {:?}",
                report.violated_conjuncts()
            );
            assert!(tme_spec::check_all(&trace, lspec::DEFAULT_GRACE).holds());
        }
    }

    #[test]
    fn off_wrapper_never_fires_protocol_traffic() {
        let mut s = sim(Implementation::RicartAgrawala, 2, WrapperConfig::off(), 7);
        s.schedule_client(
            SimTime::from(1),
            ProcessId(0),
            TmeClient::Request { eat_for: 2 },
        );
        s.run_until(SimTime::from(500));
        assert_eq!(s.processes().map(GrayboxWrapper::resends).sum::<u64>(), 0);
        assert_eq!(s.processes().map(GrayboxWrapper::firings).sum::<u64>(), 0);
    }

    #[test]
    fn backoff_recovers_the_deadlock() {
        let mut s = sim(
            Implementation::RicartAgrawala,
            2,
            WrapperConfig::backoff(1, 64),
            8,
        );
        induce_deadlock(&mut s);
        s.run_until(SimTime::from(2_000));
        for p in s.processes() {
            assert_eq!(p.inner().entries(), 1);
        }
    }

    #[test]
    fn backoff_sends_less_than_its_base_theta_under_stall() {
        // While the peer is unresponsive (deadlock window), backoff doubles
        // its period and ends up cheaper than the fixed base θ.
        let resends = |config: WrapperConfig| {
            let mut s = sim(Implementation::RicartAgrawala, 2, config, 9);
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
            while s.peek_time().is_some_and(|t| t <= SimTime::from(1)) {
                s.step();
            }
            s.flush_channel(ProcessId(0), ProcessId(1));
            s.flush_channel(ProcessId(1), ProcessId(0));
            // Freeze recovery by dropping everything for a long stall:
            // keep flushing until t=500, then let it recover.
            while s.peek_time().is_some_and(|t| t <= SimTime::from(500)) {
                s.step();
                s.flush_channel(ProcessId(0), ProcessId(1));
                s.flush_channel(ProcessId(1), ProcessId(0));
            }
            s.run_until(SimTime::from(3_000));
            s.processes().map(GrayboxWrapper::resends).sum::<u64>()
        };
        let fixed = resends(WrapperConfig::timeout(1));
        let adaptive = resends(WrapperConfig::backoff(1, 64));
        assert!(
            adaptive < fixed,
            "backoff {adaptive} should be below fixed θ=1 {fixed}"
        );
    }

    #[test]
    fn backoff_config_clamps_max() {
        let config = WrapperConfig::backoff(16, 4);
        if let WrapperStrategy::Backoff { max_theta } = config.strategy {
            assert_eq!(max_theta, 16);
        } else {
            panic!("wrong strategy");
        }
        assert!(config.label().contains("backoff"));
    }

    #[test]
    fn labels_describe_configs() {
        assert_eq!(WrapperConfig::off().label(), "off");
        assert!(WrapperConfig::timeout(4).label().contains("θ=4"));
        assert!(WrapperConfig::unrefined(2).label().contains("unrefined"));
    }
}
