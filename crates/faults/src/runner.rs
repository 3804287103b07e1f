//! The campaign runner: executes a [`RunConfig`] (workload + fault
//! schedule) against a simulated TME system and checks stabilization.
//!
//! Campaigns are **trace-producing by default**: [`run_campaign`] records
//! the full operation log (every scheduler pop, RNG draw, and failpoint
//! firing) alongside the trace, so any run — in particular any *failing*
//! run — can be replayed bit-exactly by [`replay_campaign`] and shrunk by
//! [`crate::shrink`]. The schedule is a list of timed
//! [`FaultKind`](crate::FaultKind)s; one `match` in the crate's injector
//! module applies each, so adding a fault kind never touches the runner.
//! [`run_tme`] / [`run_tme_trace`] remain as lighter wrappers that skip
//! recording (for sweeps that only need outcomes).

use graybox_clock::ProcessId;
use graybox_rng::rngs::SmallRng;
use graybox_rng::SeedableRng;
use graybox_simnet::{FailpointRegistry, OpLog, ReplayError, SimConfig, SimTime, Simulation};
use graybox_spec::convergence::{self, ConvergenceReport};
use graybox_spec::lspec::DEFAULT_GRACE;
use graybox_spec::{Trace, TraceRecorder};
use graybox_tme::{Implementation, TmeProcess, Workload, WorkloadConfig};
use graybox_wrapper::{GrayboxWrapper, WrapperConfig};

use crate::FaultPlan;

/// The process type every campaign runs: a (possibly disabled) graybox
/// wrapper around one of the bundled implementations. Baselines use
/// [`WrapperConfig::off`], so wrapped and unwrapped systems share one
/// simulation type and differ *only* in the wrapper configuration.
pub type Wrapped = GrayboxWrapper<TmeProcess>;

/// Ticks the default horizon runs past the last scheduled request or
/// fault.
pub const DEFAULT_HORIZON_SLACK: u64 = 2_000;

/// Configuration of one campaign run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of processes.
    pub n: usize,
    /// Which `Lspec` implementation to run.
    pub implementation: Implementation,
    /// Wrapper configuration ([`WrapperConfig::off`] = baseline).
    pub wrapper: WrapperConfig,
    /// Seed for workload, delays, and fault targeting.
    pub seed: u64,
    /// Client workload parameters (`n` is overridden by `self.n`).
    pub workload: WorkloadConfig,
    /// The fault schedule.
    pub faults: FaultPlan,
    /// Run horizon; defaults to `last(workload, faults) +`
    /// [`DEFAULT_HORIZON_SLACK`] ticks.
    pub horizon: Option<SimTime>,
    /// Liveness grace period for the checkers.
    pub grace: u64,
    /// Message delay bounds.
    pub delays: (u64, u64),
    /// FIFO channels (the Communication Spec). Disable only for the T10
    /// ablation.
    pub fifo: bool,
}

impl RunConfig {
    /// A fault-free, unwrapped run of `n` processes. Delay bounds and
    /// FIFO-ness are taken from [`SimConfig::default`] — the single
    /// source of truth for simulation defaults — not re-hardcoded here.
    pub fn new(n: usize, implementation: Implementation) -> Self {
        let sim_defaults = SimConfig::default();
        RunConfig {
            n,
            implementation,
            wrapper: WrapperConfig::off(),
            seed: 0,
            workload: WorkloadConfig::default(),
            faults: FaultPlan::none(),
            horizon: None,
            grace: DEFAULT_GRACE,
            delays: sim_defaults.delay_range(),
            fifo: sim_defaults.fifo,
        }
    }

    /// Sets the wrapper configuration.
    pub fn wrapper(mut self, wrapper: WrapperConfig) -> Self {
        self.wrapper = wrapper;
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fault plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the workload.
    pub fn workload(mut self, workload: WorkloadConfig) -> Self {
        self.workload = workload;
        self
    }

    /// Sets an explicit horizon.
    pub fn horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Disables FIFO delivery (Communication Spec ablation).
    pub fn non_fifo(mut self) -> Self {
        self.fifo = false;
        self
    }

    fn effective_horizon(&self, workload: &Workload) -> SimTime {
        self.horizon.unwrap_or_else(|| {
            let last = workload
                .last_request_at()
                .max(self.faults.last_fault_time().unwrap_or(SimTime::ZERO));
            last + DEFAULT_HORIZON_SLACK
        })
    }
}

/// Condensed stabilization verdict of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Did the run have a legitimate suffix (stabilize)?
    pub stabilized: bool,
    /// Ticks from the last fault to convergence (`None` if it never
    /// converged; `Some(0)` for clean runs).
    pub convergence_ticks: Option<u64>,
    /// ME1 (mutual exclusion) violations anywhere in the run.
    pub me1_violations: usize,
    /// Processes verdicts of permanent starvation.
    pub starved: usize,
}

impl Verdict {
    fn from_report(report: &ConvergenceReport) -> Self {
        Verdict {
            stabilized: report.stabilized(),
            convergence_ticks: report.convergence_ticks(),
            me1_violations: report.me1_violations,
            starved: report.starved,
        }
    }
}

/// Everything measured about one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The stabilization verdict.
    pub verdict: Verdict,
    /// Critical-section entries per process.
    pub entries: Vec<u64>,
    /// Total critical-section entries.
    pub total_entries: u64,
    /// Messages re-sent by the wrappers (their overhead).
    pub wrapper_resends: u64,
    /// Total messages sent (protocol + wrapper + injected).
    pub messages_sent: u64,
    /// The run horizon actually used.
    pub horizon: SimTime,
    /// Number of faults injected.
    pub faults_injected: usize,
    /// Time of the last critical-section grant in the run — for scenarios
    /// whose workload ends before the faults, this is the service-recovery
    /// instant (how long deadlocked requests waited).
    pub last_grant_at: Option<SimTime>,
}

impl RunOutcome {
    /// Ticks from the last injected fault to the last grant: the
    /// service-recovery latency of scenarios whose pending requests were
    /// all issued before the fault. `None` when nothing was granted after
    /// the fault.
    pub fn recovery_ticks(&self, last_fault: SimTime) -> Option<u64> {
        let last = self.last_grant_at?;
        (last >= last_fault).then(|| last.since(last_fault))
    }
}

/// A recorded campaign: the trace and outcome plus everything needed to
/// reproduce the run bit-exactly.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The recorded trace.
    pub trace: Trace,
    /// The measured outcome.
    pub outcome: RunOutcome,
    /// The full operation log (draws, pops, failpoint firings). Feed it
    /// back through [`replay_campaign`] for a verified re-execution.
    pub oplog: OpLog,
    /// Per-site failpoint hit counters for the run.
    pub failpoints: FailpointRegistry,
}

/// Runs a campaign with recording on (see the module docs).
pub fn run_campaign(config: &RunConfig) -> CampaignRun {
    let mut sim = build_sim(config);
    sim.start_recording();
    let (trace, outcome) = execute(&mut sim, config);
    CampaignRun {
        trace,
        outcome,
        oplog: sim.take_oplog().expect("recording was on"),
        failpoints: sim.failpoints().clone(),
    }
}

/// Re-executes a recorded campaign against `log`, verifying every
/// scheduler pop, draw, and failpoint firing along the way. On success
/// the returned [`CampaignRun`] carries the (now doubly verified) log;
/// any divergence — wrong config, wrong code version, tampered log —
/// reports the first mismatching operation.
pub fn replay_campaign(config: &RunConfig, log: &OpLog) -> Result<CampaignRun, ReplayError> {
    let mut sim = build_sim(config);
    sim.begin_replay(log.clone());
    let (trace, outcome) = execute(&mut sim, config);
    let failpoints = sim.failpoints().clone();
    sim.finish_replay()?;
    Ok(CampaignRun {
        trace,
        outcome,
        oplog: log.clone(),
        failpoints,
    })
}

/// Runs a campaign without recording and returns the outcome (see
/// [`run_tme_trace`] to also get the full trace, [`run_campaign`] to get
/// a replayable log).
pub fn run_tme(config: &RunConfig) -> RunOutcome {
    run_tme_trace(config).1
}

/// Runs a campaign without recording, returning the trace and outcome.
pub fn run_tme_trace(config: &RunConfig) -> (Trace, RunOutcome) {
    let mut sim = build_sim(config);
    execute(&mut sim, config)
}

/// The shared campaign loop: applies the workload, interleaves scheduled
/// fault injections with simulation steps up to the horizon, and
/// condenses the verdict. Works identically in idle, recording, and
/// replay entropy modes.
fn execute(sim: &mut Simulation<Wrapped>, config: &RunConfig) -> (Trace, RunOutcome) {
    let workload_config = WorkloadConfig {
        n: config.n,
        ..config.workload
    };
    let workload = Workload::generate(workload_config, config.seed);
    workload.apply(sim);
    let horizon = config.effective_horizon(&workload);

    let mut recorder = TraceRecorder::new(sim);
    let mut fault_rng = SmallRng::seed_from_u64(config.seed ^ 0xFA11_FA11);
    let mut pending = config.faults.events().iter().copied().peekable();
    let mut faults_injected = 0usize;

    loop {
        let next_event = sim.peek_time();
        let next_fault = pending.peek().map(|e| e.at);
        let inject_now = match (next_event, next_fault) {
            (Some(event_at), Some(fault_at)) => {
                if fault_at <= event_at && fault_at <= horizon {
                    true
                } else if event_at <= horizon {
                    false
                } else {
                    break;
                }
            }
            (Some(event_at), None) => {
                if event_at <= horizon {
                    false
                } else {
                    break;
                }
            }
            (None, Some(fault_at)) if fault_at <= horizon => true,
            _ => break,
        };
        if inject_now {
            let event = pending.next().expect("peeked");
            let (description, affected) = event.kind.inject(sim, &mut fault_rng);
            recorder.mark_fault(sim, affected, description);
            faults_injected += 1;
        } else {
            recorder.step(sim);
        }
    }
    finish(recorder, sim, config.grace, horizon, faults_injected)
}

/// Ends a run, for [`execute`] and the hand-driven [`crate::scenarios`]
/// alike: closes the trace, analyzes its convergence with liveness grace
/// `grace`, and reads the service and wrapper counters off `sim`.
pub(crate) fn finish(
    recorder: TraceRecorder,
    sim: &Simulation<Wrapped>,
    grace: u64,
    horizon: SimTime,
    faults_injected: usize,
) -> (Trace, RunOutcome) {
    let trace = recorder.into_trace();
    let report = convergence::analyze(&trace, grace);
    let entries: Vec<u64> = sim.processes().map(|p| p.inner().entries()).collect();
    let last_grant_at = graybox_spec::tme_spec::granted_requests(&trace)
        .iter()
        .map(|g| g.entry_time)
        .max();
    let outcome = RunOutcome {
        verdict: Verdict::from_report(&report),
        total_entries: entries.iter().sum(),
        entries,
        wrapper_resends: sim.processes().map(GrayboxWrapper::resends).sum(),
        messages_sent: sim.stats().sent,
        horizon,
        faults_injected,
        last_grant_at,
    };
    (trace, outcome)
}

/// Builds the simulation for a config (for scenario scripts that need to
/// drive the simulation by hand, like the mid-workload deadlock of F5).
pub fn build_sim(config: &RunConfig) -> Simulation<Wrapped> {
    let num_procs = u32::try_from(config.n).expect("process count exceeds u32");
    let procs = (0..num_procs)
        .map(|i| {
            GrayboxWrapper::new(
                TmeProcess::new(config.implementation, ProcessId(i), config.n),
                config.wrapper,
            )
        })
        .collect();
    Simulation::new(
        procs,
        SimConfig {
            seed: config.seed,
            min_delay: config.delays.0,
            max_delay: config.delays.1,
            fifo: config.fifo,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;

    #[test]
    fn fault_free_baseline_serves_all_requests() {
        let config = RunConfig::new(3, Implementation::RicartAgrawala).seed(1);
        let outcome = run_tme(&config);
        assert!(outcome.verdict.stabilized);
        assert_eq!(outcome.verdict.convergence_ticks, Some(0));
        assert_eq!(outcome.verdict.me1_violations, 0);
        assert!(outcome.total_entries > 0);
        assert_eq!(outcome.wrapper_resends, 0);
        assert_eq!(outcome.faults_injected, 0);
    }

    #[test]
    fn run_config_defaults_mirror_sim_config() {
        let config = RunConfig::new(3, Implementation::Lamport);
        let sim_defaults = SimConfig::default();
        assert_eq!(config.delays, sim_defaults.delay_range());
        assert_eq!(config.fifo, sim_defaults.fifo);
    }

    #[test]
    fn wrapped_system_survives_a_mixed_fault_storm() {
        for implementation in Implementation::ALL {
            let config = RunConfig::new(3, implementation)
                .wrapper(WrapperConfig::timeout(8))
                .faults(FaultPlan::random_mix(3, (40, 200), 10, &FaultKind::ALL))
                .seed(3);
            let outcome = run_tme(&config);
            assert!(
                outcome.verdict.stabilized,
                "{implementation} did not stabilize under the storm"
            );
            assert_eq!(outcome.verdict.starved, 0, "{implementation} starved");
        }
    }

    #[test]
    fn corruption_burst_requires_the_wrapper() {
        // With state corruption of every process mid-run, the unwrapped
        // system frequently deadlocks; the wrapped one must not.
        let faults = FaultPlan::burst(FaultKind::CorruptProcess, SimTime::from(60), 6);
        let wrapped = RunConfig::new(3, Implementation::RicartAgrawala)
            .wrapper(WrapperConfig::timeout(8))
            .faults(faults.clone())
            .seed(11);
        let outcome = run_tme(&wrapped);
        assert!(
            outcome.verdict.stabilized,
            "wrapped run failed to stabilize"
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let config = RunConfig::new(3, Implementation::Lamport)
            .wrapper(WrapperConfig::timeout(4))
            .faults(FaultPlan::random_mix(9, (30, 120), 6, &FaultKind::ALL))
            .seed(9);
        let a = run_tme(&config);
        let b = run_tme(&config);
        assert_eq!(a.entries, b.entries);
        assert_eq!(a.messages_sent, b.messages_sent);
        assert_eq!(a.verdict, b.verdict);
    }

    #[test]
    fn recorded_run_matches_unrecorded_run() {
        // Recording must observe, not perturb: the oplog layer passes the
        // same draws through, so outcomes are identical with it on.
        let config = RunConfig::new(3, Implementation::RicartAgrawala)
            .wrapper(WrapperConfig::timeout(6))
            .faults(FaultPlan::random_mix(4, (30, 150), 8, &FaultKind::ALL))
            .seed(21);
        let plain = run_tme(&config);
        let recorded = run_campaign(&config);
        assert_eq!(plain.verdict, recorded.outcome.verdict);
        assert_eq!(plain.entries, recorded.outcome.entries);
        assert_eq!(plain.messages_sent, recorded.outcome.messages_sent);
        assert!(!recorded.oplog.is_empty());
        assert!(recorded.failpoints.total() > 0);
    }

    #[test]
    fn replay_verifies_and_reproduces_the_verdict() {
        let config = RunConfig::new(3, Implementation::Lamport)
            .wrapper(WrapperConfig::timeout(8))
            .faults(FaultPlan::random_mix(6, (40, 180), 9, &FaultKind::ALL))
            .seed(17);
        let recorded = run_campaign(&config);
        let replayed = replay_campaign(&config, &recorded.oplog).expect("replay must verify");
        assert_eq!(replayed.outcome.verdict, recorded.outcome.verdict);
        assert_eq!(replayed.outcome.entries, recorded.outcome.entries);
        assert_eq!(replayed.failpoints, recorded.failpoints);
        // A different seed cannot satisfy the log: the first scheduler
        // pop or draw diverges and the verifier reports it.
        let wrong = config.clone().seed(18);
        assert!(replay_campaign(&wrong, &recorded.oplog).is_err());
    }

    #[test]
    fn horizon_override_is_respected() {
        let config = RunConfig::new(2, Implementation::RicartAgrawala)
            .horizon(SimTime::from(50))
            .seed(2);
        let outcome = run_tme(&config);
        assert_eq!(outcome.horizon, SimTime::from(50));
    }
}
