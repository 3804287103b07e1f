//! The four workloads. Each builds its inputs from the seed
//! ([`Workload::setup`]), runs one unit of work on them
//! ([`Workload::op`]) and checks the results, reporting the counts that
//! identical inputs must reproduce exactly and the wall time of each
//! part of the op.

use std::time::Instant;

use graybox_analyze::{
    certify_tme, check_stair, param, tme_stair_certificate, CertifyTarget, PairDynamics,
};
use graybox_clock::ProcessId;
use graybox_core::tme_abstract::{self, AbstractTmeN};
use graybox_experiments::sweep::sweep_point;
use graybox_faults::{
    build_sim, failed, replay_campaign, run_campaign, run_tme, run_tme_trace, shrink, CampaignRun,
    FaultKind, FaultPlan, RunConfig, Wrapped,
};
use graybox_simnet::{EventQueue, OpLog, PackedEvent, SimConfig, SimTime, Simulation, TimerWheel};
use graybox_spec::convergence;
use graybox_tme::{
    ring, Implementation, Mode, RingConfig, TmeClient, Workload as Requests, WorkloadConfig,
};
use graybox_wrapper::WrapperConfig;

use crate::trace::Tracer;

/// The seed the pinned counts were recorded with.
pub const DEFAULT_SEED: u64 = 7;

/// Repetitions of each sub-second timed call in a probe; the probe takes
/// the median. Calls of seconds run once.
const PROBE_REPS: usize = 3;

/// Interned-state cap of the reachable-quotient check.
const REACH_CAP: usize = 1 << 27;

/// What one sample reports besides its wall time.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Counts of work done, in a fixed order per workload.
    pub counts: Vec<(&'static str, f64)>,
    /// Wall time of each part of the op (and rates derived from it), in
    /// the unit of the per-layer metric it is reported as.
    pub timings: Vec<(&'static str, f64)>,
    /// Failed correctness checks.
    pub failures: Vec<String>,
}

impl Outcome {
    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, value));
    }

    /// Adds `value` to timing `name`, so that parts an op runs more than
    /// once sum.
    fn add_timing(&mut self, name: &'static str, value: f64) {
        match self.timings.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += value,
            None => self.timings.push((name, value)),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One benchmark workload.
pub trait Workload {
    /// What [`setup`](Workload::setup) builds and one op consumes.
    type Input;

    /// Whether a run starts with an untimed warm-up sample.
    const WARM_UP: bool = true;

    /// Timed samples a run takes however short its window.
    const MIN_SAMPLES: usize = 3;

    /// Builds the system under test from `seed`.
    fn setup(&self, seed: u64, tracer: &Tracer) -> Self::Input;

    /// Runs one unit of work and checks its results.
    fn op(&self, input: Self::Input, tracer: &Tracer) -> Outcome;

    /// Layer measurements taken after the timed samples of a traced run.
    fn probes(&self, _seed: u64, _tracer: &Tracer) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Counts [`DEFAULT_SEED`] must reproduce exactly.
    fn pins(&self) -> &'static [(&'static str, f64)];
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Runs `f` and returns its result and wall time in seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Runs `f` `reps` times and returns the last result and the median wall
/// time in seconds. Each earlier result is dropped outside the timing.
fn median_timed<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (result, s) = timed(&mut f);
        secs.push(s);
        last = Some(result);
    }
    (last.expect("at least one repetition"), median(secs))
}

/// A splitmix64 stream: seeded inputs for the probes.
fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[allow(clippy::cast_precision_loss)] // counts stay far below 2^52
fn num(count: impl TryInto<u64>) -> f64 {
    count.try_into().map_or(f64::NAN, |c| c as f64)
}

/// `verify`: the exhaustive stabilization verdicts of the wrapped
/// n-process TME abstraction (full sweep, then its symmetry quotient),
/// the reachable-quotient verdict at `reach_n`, then the static
/// certificate.
#[derive(Debug)]
pub struct Verify {
    pub n: usize,
    pub reach_n: usize,
    pub certify_reps: usize,
    pub canonicalize_reps: usize,
    pub workers: usize,
}

impl Workload for Verify {
    type Input = (AbstractTmeN, AbstractTmeN);

    // One op takes about half a minute: longer than the timed window, and
    // long enough that a warm-up would only double the run.
    const WARM_UP: bool = false;
    const MIN_SAMPLES: usize = 1;

    fn setup(&self, _seed: u64, tracer: &Tracer) -> Self::Input {
        tracer.span("core.build_n", || {
            let build = |n| tme_abstract::build_n(n).expect("the n-process abstraction builds");
            (build(self.n), build(self.reach_n))
        })
    }

    fn op(&self, (tme, tme_reach): Self::Input, tracer: &Tracer) -> Outcome {
        let mut out = Outcome::default();
        let (full, secs) = timed(|| tracer.span("core.check_on", || tme.check_on(self.workers)));
        out.add_timing("verdict_n3_s", secs);
        let (reduced, secs) = timed(|| {
            tracer.span("core.reduced_check_on", || {
                tme.reduced_check_on(self.workers)
            })
        });
        out.add_timing("verdict_n3_sym_s", secs);
        match (full, reduced) {
            (Ok(full), Ok(reduced)) => {
                out.check(full.as_predicted(), || {
                    format!("verdicts differ from the paper's: {full:?}")
                });
                out.check(reduced.verdicts == full, || {
                    format!(
                        "the symmetry quotient's verdicts differ from the full sweep's: {:?}",
                        reduced.verdicts
                    )
                });
                out.count("core.n3_states", num(full.num_states));
                out.count("core.n3_legit_states", num(full.num_legitimate));
                out.count("core.n3_canonical_states", num(reduced.num_canonical));
            }
            (Err(e), _) | (_, Err(e)) => out.failures.push(format!("exhaustive check failed: {e}")),
        }

        let (reach, secs) = timed(|| {
            tracer.span("core.reachable_check_on", || {
                tme_reach.reachable_check_on(self.workers, REACH_CAP)
            })
        });
        out.add_timing("verdict_n4_s", secs);
        match reach {
            Ok(reach) => {
                out.check(
                    reach.me1
                        && reach.deadlock_quiescent
                        && reach.deadlock_illegitimate
                        && reach.recovery_steps.is_some(),
                    || format!("reachable-quotient verdicts differ from the paper's: {reach:?}"),
                );
                out.count(
                    "core.n4_canonical_states",
                    num(reach.num_canonical_legitimate),
                );
                out.count(
                    "core.n4_recovery_levels",
                    num(reach.recovery_steps.unwrap_or(0)),
                );
            }
            Err(e) => out
                .failures
                .push(format!("reachable-quotient check failed: {e}")),
        }

        let ((), secs) = timed(|| {
            for _ in 0..self.certify_reps {
                let report = tracer.span("analyze.certify_tme", || {
                    certify_tme(CertifyTarget::Flagship)
                });
                if !report.is_clean() {
                    out.failures.push(format!(
                        "flagship certificate rejected: {:?}",
                        report.findings
                    ));
                    break;
                }
            }
        });
        out.add_timing("certify_ms", secs * 1e3 / num(self.certify_reps));
        out
    }

    /// The parts of the verdicts, timed one by one: the compiled n = 3
    /// system with its SCCs and reachability, canonicalization, the two
    /// quotient searches of the reachable check, and the certificate's
    /// three stages.
    fn probes(&self, seed: u64, tracer: &Tracer) -> Vec<(&'static str, f64)> {
        let mut values = Vec::new();
        let (program, init) = tme_abstract::program_nproc_ir(self.n, true);
        let (compiled, secs) =
            timed(|| tracer.span("core.compile_on", || program.compile_on(self.workers, init)));
        let compiled = compiled.expect("the n-process program compiles");
        let system = compiled.system();
        values.push(("core.compile_n3_s", secs));
        values.push(("core.n3_edges", num(system.edge_count())));
        let ((_, sccs), secs) =
            timed(|| tracer.span("core.sccs_on", || system.sccs_on(self.workers)));
        values.push(("core.scc_n3_s", secs));
        values.push(("core.n3_sccs", num(sccs)));
        let (_, secs) = timed(|| tracer.span("core.sccs_on", || system.sccs_on(1)));
        values.push(("core.scc_n3_serial_s", secs));
        let (_, secs) = timed(|| {
            tracer.span("core.reachable_from_on", || {
                system.reachable_from_on(self.workers, [0])
            })
        });
        values.push(("core.reach_n3_s", secs));
        drop(compiled);

        let tme = tme_abstract::build_n(self.n).expect("the n-process abstraction builds");
        let sym = tme_abstract::nproc_symmetry(self.n, true);
        let mut next = splitmix(seed);
        let states: Vec<usize> = (0..self.canonicalize_reps)
            .map(|_| usize::try_from(next() % num_u64(tme.num_states())).expect("state fits"))
            .collect();
        let (_, secs) = median_timed(PROBE_REPS, || {
            tracer.span("core.canonicalize", || {
                states.iter().fold(0usize, |acc, &state| {
                    let canonical = tme.wrapped_program().canonicalize(&sym, state);
                    acc.wrapping_add(canonical.expect("states lie in the domain"))
                })
            })
        });
        values.push((
            "core.canonicalize_ns",
            secs * 1e9 / num(self.canonicalize_reps),
        ));

        let tme = tme_abstract::build_n(self.reach_n).expect("the n-process abstraction builds");
        let sym = tme_abstract::nproc_symmetry(self.reach_n, true);
        let program = tme.wrapped_program();
        let no_target = None::<&fn(u64) -> bool>;
        let (legit, secs) = timed(|| {
            tracer.span("core.sym_reach_words_on", || {
                program.sym_reach_words_on(self.workers, &sym, &[0], REACH_CAP, no_target)
            })
        });
        values.push(("core.sym_reach_legit_n4_s", secs));
        let mut legit = legit.expect("the legitimate quotient fits the cap").words;
        legit.sort_unstable();
        let target = |word: u64| legit.binary_search(&word).is_ok();
        let deadlock = num_u64(tme.deadlock_state());
        let (_, secs) = timed(|| {
            tracer.span("core.sym_reach_words_on", || {
                program.sym_reach_words_on(
                    self.workers,
                    &sym,
                    &[deadlock],
                    REACH_CAP,
                    Some(&target),
                )
            })
        });
        values.push(("core.sym_reach_recovery_n4_s", secs));

        let (pair, _) = tme_abstract::program_nproc_ir(2, true);
        let (dynamics, secs) = median_timed(PROBE_REPS, || {
            tracer.span("analyze.pair_dynamics", || {
                PairDynamics::from_pair_program(&pair)
            })
        });
        let dynamics = dynamics.expect("the two-process model is pair-shaped");
        values.push(("analyze.pair_dynamics_ms", secs * 1e3));
        let cert = tme_stair_certificate();
        let ((_, stats), secs) = median_timed(PROBE_REPS, || {
            tracer.span("analyze.check_stair", || check_stair(&dynamics, &cert))
        });
        values.push(("analyze.stair_ms", secs * 1e3));
        values.push(("analyze.obligations", num(stats.obligations)));
        // The parametric side conditions, at the representative n that
        // `certify_tme` uses.
        let (nproc, _) = tme_abstract::program_nproc_ir(3, true);
        let (_, secs) = median_timed(PROBE_REPS, || {
            tracer.span("analyze.param", || {
                (
                    param::check_pair_transitivity(3),
                    param::check_projection_reduction(3, &nproc, &dynamics),
                    param::check_order_preservation(3, &nproc),
                    param::check_counting_case(3, &nproc),
                )
            })
        });
        values.push(("analyze.param_ms", secs * 1e3));
        values
    }

    fn pins(&self) -> &'static [(&'static str, f64)] {
        match self.n {
            2 => &[
                ("core.n3_states", 648.0),
                ("core.n3_legit_states", 60.0),
                ("core.n3_canonical_states", 324.0),
                ("core.n4_canonical_states", 2_358.0),
                ("core.n4_recovery_levels", 3.0),
            ],
            _ => &[
                ("core.n3_states", 7_558_272.0),
                ("core.n3_legit_states", 14_148.0),
                ("core.n3_canonical_states", 1_259_712.0),
                ("core.n4_canonical_states", 1_731_024.0),
                ("core.n4_recovery_levels", 6.0),
            ],
        }
    }
}

fn num_u64(value: usize) -> u64 {
    u64::try_from(value).expect("usize fits u64")
}

/// `ring-1e6`: one θ-sweep point (warm-up, token loss, recovery, and the
/// infinite-θ baseline) on the O(1)-state token ring, θ = 4n.
#[derive(Debug)]
pub struct Ring {
    pub n: u32,
}

impl Ring {
    fn theta(&self) -> u64 {
        4 * u64::from(self.n)
    }
}

impl Workload for Ring {
    type Input = u64;

    /// The seed is the whole input: [`sweep_point`] builds its own rings.
    fn setup(&self, seed: u64, _tracer: &Tracer) -> u64 {
        seed
    }

    fn op(&self, seed: u64, tracer: &Tracer) -> Outcome {
        let (point, secs) = timed(|| {
            tracer.span("experiments.sweep_point", || {
                sweep_point(self.n, self.theta(), seed)
            })
        });
        let mut out = Outcome::default();
        out.add_timing("ring_point_s", secs);
        out.check(point.recovery_ticks.is_some(), || {
            "the ring never recovered from token loss".to_string()
        });
        out.check(
            point.msgs_per_grant > 0.0 && point.overhead.is_finite(),
            || format!("no grants in the warm-up window: {point:?}"),
        );
        out.count("experiments.ring_events", num(point.events));
        out.count(
            "experiments.ring_recovery_ticks",
            num(point.recovery_ticks.unwrap_or(0)),
        );
        out.count("experiments.ring_regens", num(point.regens));
        out.count("experiments.ring_overhead", point.overhead);
        out
    }

    /// The simulator under the sweep point: building the ring, its
    /// fault-free warm-up window (the same staggered requests and 6n
    /// window as the sweep), and the scheduler queue alone on a hold
    /// pattern with n timers pending.
    fn probes(&self, seed: u64, tracer: &Tracer) -> Vec<(&'static str, f64)> {
        let cfg = RingConfig {
            theta: self.theta(),
            eat_for: 2,
        };
        let (mut sim, build_s) = median_timed(PROBE_REPS, || {
            tracer.span("simnet.new_ring", || {
                Simulation::new(ring(self.n, cfg), SimConfig::with_seed(seed))
            })
        });
        let requests = self.n.min(512);
        let warmup = 6 * u64::from(self.n);
        for i in 0..requests {
            let pid = ProcessId(i.wrapping_mul(2_654_435_761) % self.n);
            let at = 1 + u64::from(i) * (warmup / 2) / u64::from(requests);
            sim.schedule_client(SimTime::from(at), pid, TmeClient::Request { eat_for: 2 });
        }
        let (events, secs) = timed(|| {
            tracer.span("simnet.run_until_quiet", || {
                sim.run_until_quiet(SimTime::from(warmup))
            })
        });
        drop(sim);

        let pending = u64::from(self.n);
        let hold_ops = 4 * pending;
        let (_, hold_s) = median_timed(PROBE_REPS, || {
            tracer.span("simnet.queue_hold", || queue_hold(pending, hold_ops, seed))
        });
        vec![
            ("simnet.ring_build_s", build_s),
            ("simnet.ring_quiet_events_per_s", num(events) / secs),
            ("simnet.queue_hold_ns_per_op", hold_s * 1e9 / num(hold_ops)),
        ]
    }

    fn pins(&self) -> &'static [(&'static str, f64)] {
        match self.n {
            1_000 => &[
                ("experiments.ring_events", 5_975.0),
                ("experiments.ring_recovery_ticks", 498.0),
                ("experiments.ring_regens", 405.0),
            ],
            _ => &[
                ("experiments.ring_events", 4_769_688.0),
                ("experiments.ring_recovery_ticks", 499_999.0),
                ("experiments.ring_regens", 115_383.0),
            ],
        }
    }
}

/// A [`TimerWheel`] on a hold pattern: `pending` timers in flight, each
/// pop rescheduled 1 to 64 ticks ahead, `ops` times. Returns a checksum
/// over the pops so that the work is not optimized away.
fn queue_hold(pending: u64, ops: u64, seed: u64) -> u64 {
    let mut queue = TimerWheel::default();
    let mut next = splitmix(seed);
    let mut seq = 0;
    for i in 0..pending {
        queue.push(i % 4096, seq, PackedEvent::timer(0, 0));
        seq += 1;
    }
    let mut checksum = 0u64;
    for _ in 0..ops {
        let (time, popped, _) = queue.pop().expect("the hold queue never empties");
        checksum = checksum.wrapping_mul(31).wrapping_add(time ^ popped);
        queue.push(time + next() % 64 + 1, seq, PackedEvent::timer(0, 0));
        seq += 1;
    }
    checksum
}

/// The two protocols every TME workload runs, with their metric names.
const PROTOCOLS: [(Implementation, ProtocolNames); 2] = [
    (
        Implementation::RicartAgrawala,
        ProtocolNames {
            run: "ra_run_s",
            events_per_s: "simnet.ra_events_per_s",
            events: "simnet.ra_events",
            sent: "simnet.ra_sent",
            entries: "tme.ra_entries",
            msgs_per_entry: "tme.ra_msgs_per_entry",
            resend_share: "wrapper.ra_resend_share",
        },
    ),
    (
        Implementation::Lamport,
        ProtocolNames {
            run: "lamport_run_s",
            events_per_s: "simnet.lamport_events_per_s",
            events: "simnet.lamport_events",
            sent: "simnet.lamport_sent",
            entries: "tme.lamport_entries",
            msgs_per_entry: "tme.lamport_msgs_per_entry",
            resend_share: "wrapper.lamport_resend_share",
        },
    ),
];

#[derive(Debug)]
struct ProtocolNames {
    run: &'static str,
    events_per_s: &'static str,
    events: &'static str,
    sent: &'static str,
    entries: &'static str,
    msgs_per_entry: &'static str,
    resend_share: &'static str,
}

/// The wrapped (θ = 8) protocol at `n` processes under 20 requests per
/// process, think 40, eat 5.
fn protocol_config(n: usize, implementation: Implementation, seed: u64) -> RunConfig {
    RunConfig::new(n, implementation)
        .wrapper(WrapperConfig::timeout(8))
        .seed(seed)
        .workload(WorkloadConfig {
            n,
            requests_per_process: 20,
            mean_think: 40,
            eat_for: 5,
            start: 1,
        })
}

/// Builds the simulation of `config` with its client requests applied,
/// and the horizon the campaign runner would use for it.
fn loaded_sim(config: &RunConfig, tracer: &Tracer) -> (Simulation<Wrapped>, SimTime) {
    let mut sim = tracer.span("faults.build_sim", || build_sim(config));
    let horizon = tracer.span("tme.workload", || {
        let requests = Requests::generate(config.workload, config.seed);
        requests.apply(&mut sim);
        requests.last_request_at() + 2_000
    });
    (sim, horizon)
}

/// `protocol-n128`: fault-free wrapped Ricart–Agrawala, then wrapped
/// Lamport, on the simulator alone (no trace, oracle or oplog).
#[derive(Debug)]
pub struct Protocol {
    pub n: usize,
}

impl Workload for Protocol {
    type Input = Vec<(Simulation<Wrapped>, SimTime)>;

    fn setup(&self, seed: u64, tracer: &Tracer) -> Self::Input {
        PROTOCOLS
            .iter()
            .map(|(implementation, _)| {
                loaded_sim(&protocol_config(self.n, *implementation, seed), tracer)
            })
            .collect()
    }

    fn op(&self, sims: Self::Input, tracer: &Tracer) -> Outcome {
        let mut out = Outcome::default();
        for ((mut sim, horizon), (implementation, names)) in sims.into_iter().zip(&PROTOCOLS) {
            let (events, secs) =
                timed(|| tracer.span("simnet.run_until_quiet", || sim.run_until_quiet(horizon)));
            out.add_timing(names.run, secs);
            out.add_timing(names.events_per_s, num(events) / secs);
            let sent = sim.stats().sent;
            let resends: u64 = sim.processes().map(Wrapped::resends).sum();
            let entries: u64 = sim.processes().map(|p| p.inner().entries()).sum();
            let waiting = sim
                .processes()
                .filter(|p| p.inner().mode() != Mode::Thinking)
                .count();
            out.check(waiting == 0, || {
                format!(
                    "{implementation}: {waiting} processes still hungry or eating at the horizon"
                )
            });
            out.check(entries > 0, || format!("{implementation}: no CS entries"));
            out.count(names.events, num(events));
            out.count(names.sent, num(sent));
            out.count(names.entries, num(entries));
            out.count(names.msgs_per_entry, num(sent) / num(entries.max(1)));
            out.count(names.resend_share, num(resends) / num(sent.max(1)));
        }
        out
    }

    fn pins(&self) -> &'static [(&'static str, f64)] {
        match self.n {
            8 => &[
                ("simnet.ra_events", 11_732.0),
                ("simnet.ra_sent", 3_444.0),
                ("tme.ra_entries", 80.0),
                ("simnet.lamport_events", 14_067.0),
                ("simnet.lamport_sent", 5_779.0),
                ("tme.lamport_entries", 82.0),
            ],
            _ => &[
                ("simnet.ra_events", 1_298_930.0),
                ("simnet.ra_sent", 1_160_050.0),
                ("tme.ra_entries", 201.0),
                ("simnet.lamport_events", 2_387_901.0),
                ("simnet.lamport_sent", 2_249_021.0),
                ("tme.lamport_entries", 200.0),
            ],
        }
    }
}

/// `campaign-n16`: recorded fault campaigns of wrapped RA and Lamport,
/// each oplog's text round trip and verified replay, then the shrink of
/// a failing unwrapped fixture.
#[derive(Debug)]
pub struct Campaign {
    pub n: usize,
    pub shrink_n: usize,
    pub shrink_drops: usize,
    pub shrink_corruptions: usize,
}

/// The configurations one campaign op runs.
#[derive(Debug)]
pub struct CampaignInput {
    campaigns: Vec<RunConfig>,
    fixture: RunConfig,
}

impl Campaign {
    fn campaigns(&self, seed: u64) -> Vec<RunConfig> {
        PROTOCOLS
            .iter()
            .map(|(implementation, _)| {
                protocol_config(self.n, *implementation, seed).faults(FaultPlan::random_mix(
                    seed,
                    (200, 400),
                    32,
                    &FaultKind::PAPER,
                ))
            })
            .collect()
    }

    /// The failing fixture of the replay/shrink acceptance test, scaled
    /// up: unwrapped RA, drop noise, then a corruption burst. Its seeds
    /// are fixed because it must fail.
    fn fixture(&self) -> RunConfig {
        let noise =
            FaultPlan::random_mix(7, (30, 55), self.shrink_drops, &[FaultKind::DropMessage]);
        let burst = FaultPlan::burst(
            FaultKind::CorruptProcess,
            SimTime::from(60),
            self.shrink_corruptions,
        );
        RunConfig::new(self.shrink_n, Implementation::RicartAgrawala)
            .faults(noise.merge(burst))
            .seed(15)
    }
}

impl Workload for Campaign {
    type Input = CampaignInput;

    fn setup(&self, seed: u64, tracer: &Tracer) -> CampaignInput {
        tracer.span("faults.plans", || CampaignInput {
            campaigns: self.campaigns(seed),
            fixture: self.fixture(),
        })
    }

    fn op(&self, input: CampaignInput, tracer: &Tracer) -> Outcome {
        let mut out = Outcome::default();
        let (mut steps, mut ops, mut bytes) = (0, 0, 0);
        for config in &input.campaigns {
            let implementation = config.implementation;
            let (run, secs) = timed(|| tracer.span("faults.run_campaign", || run_campaign(config)));
            out.add_timing("campaign_s", secs);
            let verdict = run.outcome.verdict;
            out.check(verdict.stabilized && verdict.starved == 0, || {
                format!("{implementation}: wrapped campaign did not stabilize: {verdict:?}")
            });
            steps += run.trace.steps().len();
            ops += run.oplog.len();
            // Only the outcome and the log are needed from here on; freeing
            // the trace first keeps one trace alive at a time.
            let CampaignRun {
                trace,
                outcome,
                oplog,
                ..
            } = run;
            let ((), secs) = timed(|| tracer.span("spec.drop_trace", || drop(trace)));
            out.add_timing("campaign_s", secs);

            let (text, to_text) = timed(|| tracer.span("simnet.oplog_to_text", || oplog.to_text()));
            bytes += text.len();
            let (parsed, parse) =
                timed(|| tracer.span("simnet.oplog_parse", || OpLog::parse(&text)));
            out.add_timing("simnet.oplog_to_text_ms", to_text * 1e3);
            out.add_timing("simnet.oplog_parse_ms", parse * 1e3);
            out.add_timing("replay_s", to_text + parse);
            match parsed {
                Ok(parsed) if parsed == oplog => {
                    let (replayed, secs) = timed(|| {
                        tracer.span("faults.replay_campaign", || {
                            replay_campaign(config, &parsed)
                        })
                    });
                    out.add_timing("faults.replay_verify_s", secs);
                    out.add_timing("replay_s", secs);
                    match replayed {
                        Ok(replayed) => {
                            out.check(
                                replayed.outcome.verdict == outcome.verdict
                                    && replayed.outcome.entries == outcome.entries
                                    && replayed.outcome.messages_sent == outcome.messages_sent,
                                || format!("{implementation}: replay outcome differs from the recording"),
                            );
                            let ((), secs) =
                                timed(|| tracer.span("spec.drop_trace", || drop(replayed.trace)));
                            out.add_timing("replay_s", secs);
                        }
                        Err(e) => out
                            .failures
                            .push(format!("{implementation}: replay diverged: {e}")),
                    }
                }
                Ok(_) => out.failures.push(format!(
                    "{implementation}: oplog changed in its text round trip"
                )),
                Err(e) => out
                    .failures
                    .push(format!("{implementation}: oplog text unreadable: {e}")),
            }
        }
        out.count("spec.trace_steps", num(steps));
        out.count("spec.snapshot_slots", num(steps * self.n));
        out.count("simnet.oplog_ops", num(ops));
        out.count("simnet.oplog_text_bytes", num(bytes));

        let original = input.fixture.faults.len();
        let (shrunk, secs) =
            timed(|| tracer.span("faults.shrink", || shrink(&input.fixture, failed)));
        out.add_timing("shrink_s", secs);
        match shrunk {
            Some(shrunk) => {
                out.check(
                    shrunk.minimal.len() < original && failed(&shrunk.run.outcome),
                    || format!("shrink did not reach a smaller failing schedule: {} of {original} events", shrunk.minimal.len()),
                );
                out.count("faults.shrink_campaigns", num(shrunk.campaigns_run));
                out.count("faults.shrink_original_events", num(original));
                out.count("faults.shrink_minimal_events", num(shrunk.minimal.len()));
            }
            None => out
                .failures
                .push("the shrink fixture no longer fails".to_string()),
        }
        out
    }

    /// What `run_campaign` hides: the unrecorded run of the same
    /// campaigns and the recording's share of it, the convergence
    /// analysis of each trace, and the spec layer's cost (fault-free run
    /// with trace and oracle ÷ the same schedule on the simulator alone).
    fn probes(&self, seed: u64, tracer: &Tracer) -> Vec<(&'static str, f64)> {
        let (mut recorded, mut unrecorded, mut converge, mut traced, mut bare) =
            (0.0, 0.0, 0.0, 0.0, 0.0);
        for config in &self.campaigns(seed) {
            recorded += median_timed(PROBE_REPS, || {
                tracer.span("faults.run_campaign", || run_campaign(config))
            })
            .1;
            let ((trace, _), secs) = median_timed(PROBE_REPS, || {
                tracer.span("faults.run_tme", || run_tme_trace(config))
            });
            unrecorded += secs;
            converge += median_timed(PROBE_REPS, || {
                tracer.span("spec.convergence", || {
                    convergence::analyze(&trace, config.grace)
                })
            })
            .1;
            drop(trace);
            let fault_free = config.clone().faults(FaultPlan::none());
            traced += median_timed(PROBE_REPS, || {
                tracer.span("faults.run_tme", || run_tme(&fault_free))
            })
            .1;
            bare += median_timed(PROBE_REPS, || {
                let (mut sim, horizon) = loaded_sim(&fault_free, tracer);
                tracer.span("simnet.run_until_quiet", || sim.run_until_quiet(horizon))
            })
            .1;
        }
        vec![
            ("faults.run_tme_s", unrecorded),
            ("simnet.record_tax", recorded / unrecorded),
            ("spec.convergence_s", converge),
            ("spec.fault_free_trace_tax", traced / bare),
        ]
    }

    fn pins(&self) -> &'static [(&'static str, f64)] {
        match self.n {
            4 => &[
                ("spec.trace_steps", 10_929.0),
                ("simnet.oplog_ops", 13_924.0),
                ("faults.shrink_campaigns", 15.0),
                ("faults.shrink_minimal_events", 2.0),
            ],
            _ => &[
                ("spec.trace_steps", 71_536.0),
                ("simnet.oplog_ops", 109_952.0),
                ("faults.shrink_campaigns", 38.0),
                ("faults.shrink_minimal_events", 8.0),
            ],
        }
    }
}
