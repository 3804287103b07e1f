use graybox_clock::ProcessId;
use graybox_rng::rngs::SmallRng;
use graybox_rng::{Rng, SeedableRng};
use graybox_simnet::{Process, SimTime, Simulation};

use crate::TmeClient;

/// Parameters of a randomized TME client workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Number of processes.
    pub n: usize,
    /// Number of CS requests each process issues.
    pub requests_per_process: usize,
    /// Mean thinking time between a process's requests, in ticks.
    pub mean_think: u64,
    /// Critical-section duration per request, in ticks.
    pub eat_for: u64,
    /// Time of the first possible request.
    pub start: u64,
}

impl WorkloadConfig {
    /// Largest thinking time between two requests of one process,
    /// `floor(3 * mean_think / 2)`, or `None` past `u64::MAX`. (`m + m / 2`
    /// equals `m * 3 / 2` wherever the latter does not overflow.)
    fn max_think(&self) -> Option<u64> {
        self.mean_think.checked_add(self.mean_think / 2)
    }

    /// The latest tick a generated request can fall on,
    /// `start + requests_per_process * floor(3 * mean_think / 2)`, or
    /// `None` when the schedule's time arithmetic would pass `u64::MAX`.
    pub fn latest_request(&self) -> Option<u64> {
        let requests = u64::try_from(self.requests_per_process).ok()?;
        self.start
            .checked_add(requests.checked_mul(self.max_think()?)?)
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            n: 3,
            requests_per_process: 3,
            mean_think: 40,
            eat_for: 5,
            start: 1,
        }
    }
}

/// A reproducible client request schedule: which process asks for the CS
/// when (the client side of the paper's Client Spec). Thinking times are
/// jittered uniformly in `[mean/2, 3*mean/2]` from a seeded RNG.
///
/// Note that requests are *stimuli*: a process still hungry when its next
/// request fires simply ignores it (Structural Spec), so heavy contention
/// degrades gracefully.
///
/// # Example
///
/// ```
/// use graybox_tme::{Workload, WorkloadConfig};
///
/// let w = Workload::generate(WorkloadConfig::default(), 7);
/// assert_eq!(w.events().len(), 9); // 3 processes × 3 requests
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    events: Vec<(SimTime, ProcessId, TmeClient)>,
}

impl Workload {
    /// Generates the schedule for `config` from `seed`.
    pub fn generate(config: WorkloadConfig, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for pid in ProcessId::all(config.n) {
            let mut at = SimTime::from(config.start);
            for _ in 0..config.requests_per_process {
                let jitter = if config.mean_think == 0 {
                    0
                } else {
                    rng.gen_range(config.mean_think / 2..=config.max_think().unwrap_or(u64::MAX))
                };
                at += jitter;
                events.push((
                    at,
                    pid,
                    TmeClient::Request {
                        eat_for: config.eat_for,
                    },
                ));
            }
        }
        events.sort_by_key(|&(time, pid, _)| (time, pid));
        Workload { events }
    }

    /// A fully synchronized, maximum-contention workload: every process
    /// requests at the same instants, `rounds` times, `interval` ticks
    /// apart. The hardest case for FCFS and fairness checking — all
    /// requests of a round are causally concurrent.
    pub fn synchronized(n: usize, rounds: usize, interval: u64, eat_for: u64) -> Self {
        let mut events = Vec::with_capacity(n * rounds);
        for round in 0..rounds {
            let at = SimTime::from(1 + round as u64 * interval.max(1));
            for pid in ProcessId::all(n) {
                events.push((at, pid, TmeClient::Request { eat_for }));
            }
        }
        events.sort_by_key(|&(time, pid, _)| (time, pid));
        Workload { events }
    }

    /// The scheduled events, time-ordered.
    pub fn events(&self) -> &[(SimTime, ProcessId, TmeClient)] {
        &self.events
    }

    /// Time of the last scheduled request.
    pub fn last_request_at(&self) -> SimTime {
        self.events
            .last()
            .map_or(SimTime::ZERO, |&(time, _, _)| time)
    }

    /// Installs the schedule into a simulation whose client event type is
    /// [`TmeClient`].
    pub fn apply<P>(&self, sim: &mut Simulation<P>)
    where
        P: Process<Client = TmeClient>,
    {
        for &(time, pid, event) in &self.events {
            sim.schedule_client(time, pid, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let config = WorkloadConfig::default();
        let a = Workload::generate(config, 1);
        let b = Workload::generate(config, 1);
        assert_eq!(a.events(), b.events());
        let c = Workload::generate(config, 2);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn every_process_gets_its_requests() {
        let config = WorkloadConfig {
            n: 4,
            requests_per_process: 5,
            ..WorkloadConfig::default()
        };
        let w = Workload::generate(config, 3);
        for pid in ProcessId::all(4) {
            let count = w.events().iter().filter(|&&(_, p, _)| p == pid).count();
            assert_eq!(count, 5);
        }
    }

    #[test]
    fn events_are_time_sorted() {
        let w = Workload::generate(WorkloadConfig::default(), 9);
        let times: Vec<_> = w.events().iter().map(|&(t, _, _)| t).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        assert!(w.last_request_at() >= *times.first().unwrap());
    }

    #[test]
    fn synchronized_rounds_are_simultaneous() {
        let w = Workload::synchronized(3, 2, 100, 5);
        assert_eq!(w.events().len(), 6);
        let first_round: Vec<_> = w.events().iter().take(3).map(|&(t, _, _)| t).collect();
        assert!(first_round.iter().all(|&t| t == SimTime::from(1)));
        assert_eq!(w.last_request_at(), SimTime::from(101));
    }

    #[test]
    fn zero_think_time_is_legal() {
        let config = WorkloadConfig {
            mean_think: 0,
            ..WorkloadConfig::default()
        };
        let w = Workload::generate(config, 1);
        assert!(w.events().iter().all(|&(t, _, _)| t == SimTime::from(1)));
    }
}
