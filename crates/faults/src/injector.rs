//! **Fault injection**: the code behind each [`FaultKind`].
//!
//! The campaign runner walks the [`FaultPlan`](crate::FaultPlan) and
//! calls [`FaultKind::inject`] for each event; that one `match` picks
//! the injector. Adding a fault site is one constant in
//! `graybox_simnet::failpoint`, one `FaultKind` variant and one arm
//! here — the runner never changes.
//!
//! Every injector draws its targets (which process, which channel, which
//! message) through [`Simulation::draw_fault_in`], so the draws land in
//! the run's oplog and the whole injection replays bit-exactly.

use graybox_clock::{ProcessId, Timestamp};
use graybox_rng::rngs::SmallRng;
use graybox_simnet::{failpoint, Corruptible, Simulation};
use graybox_tme::TmeMsg;

use crate::runner::Wrapped;
use crate::{FaultKind, Resettable};

impl FaultKind {
    /// Applies one fault of this kind, drawing targets from the
    /// campaign's fault RNG. Returns a human-readable description and the
    /// primarily affected process (for the trace's fault marker).
    pub(crate) fn inject(
        self,
        sim: &mut Simulation<Wrapped>,
        rng: &mut SmallRng,
    ) -> (String, ProcessId) {
        match self {
            FaultKind::DropMessage => inject_drop(sim, rng),
            FaultKind::DuplicateMessage => inject_duplicate(sim, rng),
            FaultKind::CorruptMessage => inject_corrupt_message(sim, rng),
            FaultKind::InjectGarbage => inject_garbage(sim, rng),
            FaultKind::FlushChannel => inject_flush(sim, rng),
            FaultKind::CorruptProcess => inject_corrupt_process(sim, rng),
            FaultKind::ResetProcess => inject_reset(sim, rng),
            FaultKind::ReorderMessages => inject_reorder(sim, rng),
            FaultKind::DelaySpike => inject_delay_spike(sim, rng),
        }
    }
}

/// Draws an index in `0..len` through the oplog layer.
fn draw_index(sim: &mut Simulation<Wrapped>, rng: &mut SmallRng, len: usize) -> usize {
    debug_assert!(len > 0);
    let hi = u64::try_from(len - 1).unwrap_or(u64::MAX);
    usize::try_from(sim.draw_fault_in(rng, 0, hi)).expect("draw bounded by len")
}

/// Draws a process id through the oplog layer.
fn draw_pid(sim: &mut Simulation<Wrapped>, rng: &mut SmallRng) -> ProcessId {
    let n = u64::try_from(sim.len()).expect("process count fits u64");
    ProcessId(u32::try_from(sim.draw_fault_in(rng, 0, n - 1)).expect("pid fits u32"))
}

/// Draws an ordered pair of distinct process ids (equal only at n = 1).
fn draw_pair(sim: &mut Simulation<Wrapped>, rng: &mut SmallRng) -> (ProcessId, ProcessId) {
    let from = draw_pid(sim, rng);
    let mut to = draw_pid(sim, rng);
    if sim.len() > 1 {
        // Rejection-sample, but bail once a replay has diverged (poisoned
        // draws repeat the range minimum forever).
        while to == from && !sim.replay_poisoned() {
            to = draw_pid(sim, rng);
        }
        if to == from {
            to = ProcessId((from.0 + 1) % u32::try_from(sim.len()).expect("n fits u32"));
        }
    }
    (from, to)
}

/// All `(from, to, len)` channels with at least one message in flight.
/// The simulator's sparse channel store enumerates active pairs in the
/// same ascending order a dense n² scan would, at a cost proportional to
/// the active count — at 10⁵+ processes this is the difference between
/// injecting a fault and scanning ten billion idle pairs.
fn nonempty_channels(sim: &Simulation<Wrapped>) -> Vec<(ProcessId, ProcessId, usize)> {
    sim.nonempty_channels().collect()
}

fn inject_drop(sim: &mut Simulation<Wrapped>, rng: &mut SmallRng) -> (String, ProcessId) {
    let channels = nonempty_channels(sim);
    if channels.is_empty() {
        return ("drop: no message in flight".into(), ProcessId(0));
    }
    let (from, to, len) = channels[draw_index(sim, rng, channels.len())];
    let index = draw_index(sim, rng, len);
    sim.drop_message(from, to, index);
    (format!("drop message #{index} on {from}→{to}"), to)
}

fn inject_duplicate(sim: &mut Simulation<Wrapped>, rng: &mut SmallRng) -> (String, ProcessId) {
    let channels = nonempty_channels(sim);
    if channels.is_empty() {
        return ("duplicate: no message in flight".into(), ProcessId(0));
    }
    let (from, to, len) = channels[draw_index(sim, rng, channels.len())];
    let index = draw_index(sim, rng, len);
    sim.duplicate_message(from, to, index);
    (format!("duplicate message #{index} on {from}→{to}"), to)
}

fn inject_corrupt_message(
    sim: &mut Simulation<Wrapped>,
    rng: &mut SmallRng,
) -> (String, ProcessId) {
    let channels = nonempty_channels(sim);
    if channels.is_empty() {
        return ("corrupt-msg: no message in flight".into(), ProcessId(0));
    }
    let (from, to, len) = channels[draw_index(sim, rng, channels.len())];
    let index = draw_index(sim, rng, len);
    sim.corrupt_message(from, to, index);
    (format!("corrupt message #{index} on {from}→{to}"), to)
}

fn inject_garbage(sim: &mut Simulation<Wrapped>, rng: &mut SmallRng) -> (String, ProcessId) {
    let (from, to) = draw_pair(sim, rng);
    let mut payload = TmeMsg::Request(Timestamp::zero(from));
    {
        let mut entropy = sim.fault_entropy(rng);
        payload.corrupt(&mut entropy);
    }
    sim.inject_message(from, to, payload);
    (format!("inject garbage on {from}→{to}"), to)
}

fn inject_flush(sim: &mut Simulation<Wrapped>, rng: &mut SmallRng) -> (String, ProcessId) {
    let (from, to) = draw_pair(sim, rng);
    let lost = sim.flush_channel(from, to);
    (format!("flush {from}→{to} ({lost} lost)"), to)
}

fn inject_corrupt_process(
    sim: &mut Simulation<Wrapped>,
    rng: &mut SmallRng,
) -> (String, ProcessId) {
    let pid = draw_pid(sim, rng);
    sim.corrupt_process(pid);
    (format!("corrupt state of {pid}"), pid)
}

fn inject_reset(sim: &mut Simulation<Wrapped>, rng: &mut SmallRng) -> (String, ProcessId) {
    let pid = draw_pid(sim, rng);
    sim.process_mut(pid).reset();
    // The reset site is contributed by this crate; fire it through the
    // same counter/oplog machinery as the simnet-native sites.
    graybox_simnet::failpoint!(sim, failpoint::PROCESS_RESET, "reset {pid} to Init");
    (format!("fail/recover {pid} (reset to Init)"), pid)
}

fn inject_reorder(sim: &mut Simulation<Wrapped>, rng: &mut SmallRng) -> (String, ProcessId) {
    let reorderable: Vec<_> = nonempty_channels(sim)
        .into_iter()
        .filter(|&(_, _, len)| len >= 2)
        .collect();
    if reorderable.is_empty() {
        return ("reorder: no channel with ≥2 messages".into(), ProcessId(0));
    }
    let (from, to, len) = reorderable[draw_index(sim, rng, reorderable.len())];
    let i = draw_index(sim, rng, len);
    let mut j = draw_index(sim, rng, len);
    while j == i && !sim.replay_poisoned() {
        j = draw_index(sim, rng, len);
    }
    if j == i {
        j = (i + 1) % len;
    }
    sim.reorder_messages(from, to, i, j);
    (format!("reorder #{i}↔#{j} on {from}→{to}"), to)
}

fn inject_delay_spike(sim: &mut Simulation<Wrapped>, rng: &mut SmallRng) -> (String, ProcessId) {
    let factor = sim.draw_fault_in(rng, 2, 8);
    let window = sim.draw_fault_in(rng, 20, 80);
    let until = sim.now() + window;
    sim.boost_delays(factor, until);
    let pid = draw_pid(sim, rng);
    (format!("delay spike x{factor} until {until}"), pid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_sim, RunConfig};
    use graybox_rng::SeedableRng;
    use graybox_simnet::SimTime;
    use graybox_tme::{Implementation, TmeClient};

    #[test]
    fn every_kind_fires_its_own_site() {
        for kind in FaultKind::ALL {
            let mut sim = build_sim(&RunConfig::new(3, Implementation::RicartAgrawala).seed(5));
            for pid in ProcessId::all(3) {
                sim.schedule_client(SimTime::from(1), pid, TmeClient::Request { eat_for: 3 });
            }
            while sim.peek_time().is_some_and(|t| t <= SimTime::from(1)) {
                sim.step();
            }
            // Every channel now carries a request; give one channel a second
            // message so a reorder has something to swap.
            let mut rng = SmallRng::seed_from_u64(5);
            FaultKind::DuplicateMessage.inject(&mut sim, &mut rng);
            let before = sim.failpoints().clone();
            kind.inject(&mut sim, &mut rng);
            let after = sim.failpoints();
            assert_eq!(
                after.hits(kind.site()),
                before.hits(kind.site()) + 1,
                "{kind}"
            );
            assert_eq!(after.total(), before.total() + 1, "{kind}");
        }
    }
}
