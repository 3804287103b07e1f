use graybox_rng::rngs::SmallRng;
use graybox_rng::{Rng, SeedableRng};
use graybox_simnet::{failpoint, SimTime};

/// One fault class from the paper's §3.1 model (plus the two environment
/// stressors `DelaySpike` and `ReorderMessages`).
///
/// The model is a closed list, and so is this enum: every scheduled
/// fault is a [`FaultEvent`] of one kind, the campaign runner injects it
/// with one `match` over the kinds, and each kind fires exactly one
/// failpoint site ([`FaultKind::site`]), which names it in oplogs and
/// repro files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A random in-flight message is lost.
    DropMessage,
    /// A random in-flight message is duplicated (fresh copy, own delay).
    DuplicateMessage,
    /// A random in-flight message's payload is rewritten arbitrarily.
    CorruptMessage,
    /// An arbitrary garbage message appears on a random channel
    /// ("channels improperly initialized" / adversarial injection).
    InjectGarbage,
    /// A random channel loses everything in flight.
    FlushChannel,
    /// A random process's state is transiently, arbitrarily corrupted.
    CorruptProcess,
    /// A random process fails and recovers: its state returns to `Init`
    /// (which is *not* necessarily consistent with the others).
    ResetProcess,
    /// Two in-flight messages on a random channel swap queue positions
    /// (an explicit Communication-Spec violation while in effect).
    ReorderMessages,
    /// Message delays spike: the whole delay range is multiplied for a
    /// window of virtual time (asynchrony stressed toward its bound).
    DelaySpike,
}

impl FaultKind {
    /// Every fault kind, for mixed campaigns.
    pub const ALL: [FaultKind; 9] = [
        FaultKind::DropMessage,
        FaultKind::DuplicateMessage,
        FaultKind::CorruptMessage,
        FaultKind::InjectGarbage,
        FaultKind::FlushChannel,
        FaultKind::CorruptProcess,
        FaultKind::ResetProcess,
        FaultKind::ReorderMessages,
        FaultKind::DelaySpike,
    ];

    /// The seven §3.1 fault classes, without the environment stressors —
    /// the exact set the paper's "any finite number of faults" quantifies
    /// over (and the set `ALL` held before reorder/delay were added, for
    /// seed-stable mixed campaigns).
    pub const PAPER: [FaultKind; 7] = [
        FaultKind::DropMessage,
        FaultKind::DuplicateMessage,
        FaultKind::CorruptMessage,
        FaultKind::InjectGarbage,
        FaultKind::FlushChannel,
        FaultKind::CorruptProcess,
        FaultKind::ResetProcess,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::DropMessage => "drop",
            FaultKind::DuplicateMessage => "duplicate",
            FaultKind::CorruptMessage => "corrupt-msg",
            FaultKind::InjectGarbage => "garbage",
            FaultKind::FlushChannel => "flush",
            FaultKind::CorruptProcess => "corrupt-state",
            FaultKind::ResetProcess => "reset",
            FaultKind::ReorderMessages => "reorder",
            FaultKind::DelaySpike => "delay-spike",
        }
    }

    /// The failpoint site this kind's injector fires (its name in oplogs
    /// and repro files).
    pub fn site(self) -> &'static str {
        match self {
            FaultKind::DropMessage => failpoint::CHANNEL_DROP,
            FaultKind::DuplicateMessage => failpoint::CHANNEL_DUPLICATE,
            FaultKind::CorruptMessage => failpoint::MSG_CORRUPT,
            FaultKind::InjectGarbage => failpoint::MSG_INJECT,
            FaultKind::FlushChannel => failpoint::CHANNEL_FLUSH,
            FaultKind::CorruptProcess => failpoint::PROCESS_CORRUPT,
            FaultKind::ResetProcess => failpoint::PROCESS_RESET,
            FaultKind::ReorderMessages => failpoint::CHANNEL_REORDER,
            FaultKind::DelaySpike => failpoint::SIM_DELAY,
        }
    }

    /// The kind whose injector fires `site`, if any (inverse of
    /// [`FaultKind::site`]).
    pub fn from_site(site: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|kind| kind.site() == site)
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A fault of one kind scheduled at a virtual time. Targets (which
/// channel, which process, which message) are drawn by the injector from
/// the campaign's fault RNG at injection time — and routed through the
/// simulation's oplog, so they replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When to inject.
    pub at: SimTime,
    /// Which fault to inject.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// An event injecting `kind` at `at`.
    pub fn new(at: SimTime, kind: FaultKind) -> Self {
        FaultEvent { at, kind }
    }
}

/// A time-ordered schedule of faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan (fault-free run).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A burst of `count` same-kind faults at one instant.
    pub fn burst(kind: FaultKind, at: SimTime, count: usize) -> Self {
        FaultPlan {
            events: (0..count).map(|_| FaultEvent::new(at, kind)).collect(),
        }
    }

    /// `count` faults with kinds drawn from `kinds`, at times drawn
    /// uniformly from `window`, all from `seed`.
    pub fn random_mix(seed: u64, window: (u64, u64), count: usize, kinds: &[FaultKind]) -> Self {
        assert!(!kinds.is_empty(), "need at least one fault kind");
        assert!(window.0 <= window.1, "window must be ordered");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut events: Vec<FaultEvent> = (0..count)
            .map(|_| {
                FaultEvent::new(
                    SimTime::from(rng.gen_range(window.0..=window.1)),
                    kinds[rng.gen_range(0..kinds.len())],
                )
            })
            .collect();
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// A plan from an explicit event list (sorted by time for you).
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// Adds an event (keeps the plan sorted).
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
        self.events.sort_by_key(|e| e.at);
    }

    /// Merges another plan into this one.
    pub fn merge(mut self, other: FaultPlan) -> Self {
        self.events.extend(other.events);
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// The scheduled events, time-ordered.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True for the empty plan.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time of the last scheduled fault.
    pub fn last_fault_time(&self) -> Option<SimTime> {
        self.events.last().map(|e| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_schedules_identical_events() {
        let plan = FaultPlan::burst(FaultKind::DropMessage, SimTime::from(10), 3);
        assert_eq!(plan.events().len(), 3);
        assert!(plan.events().iter().all(|e| e.at == SimTime::from(10)));
        assert!(plan
            .events()
            .iter()
            .all(|e| e.kind == FaultKind::DropMessage));
        assert_eq!(plan.last_fault_time(), Some(SimTime::from(10)));
    }

    #[test]
    fn random_mix_is_deterministic_and_sorted() {
        let a = FaultPlan::random_mix(5, (10, 100), 8, &FaultKind::ALL);
        let b = FaultPlan::random_mix(5, (10, 100), 8, &FaultKind::ALL);
        assert_eq!(a, b);
        let times: Vec<_> = a.events().iter().map(|e| e.at).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        assert!(times
            .iter()
            .all(|t| *t >= SimTime::from(10) && *t <= SimTime::from(100)));
    }

    #[test]
    fn merge_interleaves_by_time() {
        let a = FaultPlan::burst(FaultKind::FlushChannel, SimTime::from(50), 1);
        let b = FaultPlan::burst(FaultKind::CorruptProcess, SimTime::from(20), 1);
        let merged = a.merge(b);
        assert_eq!(merged.events()[0].kind, FaultKind::CorruptProcess);
        assert_eq!(merged.events()[1].kind, FaultKind::FlushChannel);
    }

    #[test]
    fn none_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert_eq!(FaultPlan::none().last_fault_time(), None);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> =
            FaultKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), FaultKind::ALL.len());
    }

    #[test]
    fn sites_round_trip_through_from_site() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::from_site(kind.site()), Some(kind));
            // Every site the plan layer names is one the simulator lists.
            assert!(failpoint::ALL_SITES.contains(&kind.site()));
        }
        assert_eq!(FaultKind::from_site("channel.teleport"), None);
        let sites: std::collections::BTreeSet<_> =
            FaultKind::ALL.iter().map(|k| k.site()).collect();
        assert_eq!(sites.len(), FaultKind::ALL.len());
    }

    /// FNV-1a over the `(at, site)` sequence of a seeded mix: re-keying
    /// or reordering the schedule must not move a single draw.
    #[test]
    fn random_mix_draws_are_pinned() {
        let plan = FaultPlan::random_mix(7, (200, 400), 32, &FaultKind::PAPER);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |bytes: &[u8]| {
            for &byte in bytes {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for event in plan.events() {
            feed(&event.at.ticks().to_le_bytes());
            feed(event.kind.site().as_bytes());
            feed(&[0xff]);
        }
        assert_eq!(plan.len(), 32);
        assert_eq!(hash, 0x18d4_e039_8e98_8945);
    }

    #[test]
    fn paper_subset_excludes_environment_stressors() {
        assert!(!FaultKind::PAPER.contains(&FaultKind::ReorderMessages));
        assert!(!FaultKind::PAPER.contains(&FaultKind::DelaySpike));
        for kind in FaultKind::PAPER {
            assert!(FaultKind::ALL.contains(&kind));
        }
    }
}
