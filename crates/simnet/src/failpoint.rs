//! Named **failpoints**: the registry of every fault-injection site in
//! the simulator.
//!
//! Every place the harness can perturb an execution — dropping a message,
//! duplicating it, corrupting payload bytes, flushing a channel,
//! reordering a queue, spiking delays, corrupting or resetting process
//! state — is a *failpoint* with a stable dotted name (e.g.
//! `"channel.drop"`). Firing is routed through
//! [`crate::Simulation::fire_failpoint`], which
//!
//! * bumps the per-site hit counter in the run's [`FailpointRegistry`],
//! * appends an [`Op::Failpoint`](crate::oplog::Op) to the oplog when
//!   recording, and
//! * verifies the firing against the log when replaying.
//!
//! The detail string is built lazily (closure), so an idle run — no
//! recording, no replay — pays only a counter increment per firing and
//! never allocates.
//!
//! Each `FaultKind` of `graybox-faults` fires one of these sites, and
//! oplogs and repro files name faults by them. Adding an injection site
//! means a constant here and, there, a variant and one `match` arm — the
//! campaign runner never changes.

use std::collections::BTreeMap;

/// `channel.drop` — a message is removed from a channel queue (loss).
pub const CHANNEL_DROP: &str = "channel.drop";
/// `channel.duplicate` — an in-flight message is enqueued a second time.
pub const CHANNEL_DUPLICATE: &str = "channel.duplicate";
/// `channel.reorder` — two queued messages on one channel swap places.
pub const CHANNEL_REORDER: &str = "channel.reorder";
/// `channel.flush` — a channel queue is cleared wholesale.
pub const CHANNEL_FLUSH: &str = "channel.flush";
/// `msg.corrupt` — an in-flight payload is mutated via [`crate::Corruptible`].
pub const MSG_CORRUPT: &str = "msg.corrupt";
/// `msg.inject` — a forged message is placed on a channel.
pub const MSG_INJECT: &str = "msg.inject";
/// `process.corrupt` — a process's local state is transiently corrupted.
pub const PROCESS_CORRUPT: &str = "process.corrupt";
/// `process.reset` — a process is reinitialized (crash-recover); fired by
/// `graybox-faults`' reset injector through the same registry.
pub const PROCESS_RESET: &str = "process.reset";
/// `sim.delay` — the delay distribution is perturbed (delay spike).
pub const SIM_DELAY: &str = "sim.delay";

/// Every failpoint the simulator itself can fire, in registry order.
///
/// `graybox-faults` contributes [`PROCESS_RESET`] firings through the same
/// mechanism; it is listed here so the list covers the full site set.
pub const ALL_SITES: [&str; 9] = [
    CHANNEL_DROP,
    CHANNEL_DUPLICATE,
    CHANNEL_REORDER,
    CHANNEL_FLUSH,
    MSG_CORRUPT,
    MSG_INJECT,
    PROCESS_CORRUPT,
    PROCESS_RESET,
    SIM_DELAY,
];

/// Per-run hit counters for every failpoint that fired.
///
/// Sites auto-register on first firing; the map is ordered so reports are
/// stable across runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailpointRegistry {
    hits: BTreeMap<&'static str, u64>,
}

impl FailpointRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        FailpointRegistry::default()
    }

    /// Records one firing of `site`.
    pub fn hit(&mut self, site: &'static str) {
        *self.hits.entry(site).or_insert(0) += 1;
    }

    /// Number of times `site` fired this run.
    pub fn hits(&self, site: &str) -> u64 {
        self.hits.get(site).copied().unwrap_or(0)
    }

    /// Total firings across all sites.
    pub fn total(&self) -> u64 {
        self.hits.values().sum()
    }

    /// `(site, hits)` pairs in name order, sites that fired at least once.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.hits.iter().map(|(site, hits)| (*site, *hits))
    }

    /// A one-line-per-site summary, e.g. for incident reports.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (site, hits) in self.iter() {
            out.push_str(&format!("{site}: {hits}\n"));
        }
        out
    }
}

/// Fires a named failpoint on a [`crate::Simulation`].
///
/// The detail expression is only evaluated when a recording sink is
/// attached, so instrumented hot paths stay allocation-free:
///
/// ```ignore
/// failpoint!(self, crate::failpoint::CHANNEL_DROP,
///            "drop {} on {}->{}", msg_id, from, to);
/// ```
///
/// Expands to `$sim.fire_failpoint(SITE, || format!(...))`.
#[macro_export]
macro_rules! failpoint {
    ($sim:expr, $site:expr) => {
        $sim.fire_failpoint($site, || String::new())
    };
    ($sim:expr, $site:expr, $($arg:tt)+) => {
        $sim.fire_failpoint($site, || format!($($arg)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counts_and_orders() {
        let mut reg = FailpointRegistry::new();
        reg.hit(MSG_CORRUPT);
        reg.hit(CHANNEL_DROP);
        reg.hit(CHANNEL_DROP);
        assert_eq!(reg.hits(CHANNEL_DROP), 2);
        assert_eq!(reg.hits(MSG_CORRUPT), 1);
        assert_eq!(reg.hits(CHANNEL_FLUSH), 0);
        assert_eq!(reg.total(), 3);
        let order: Vec<_> = reg.iter().map(|(s, _)| s).collect();
        assert_eq!(order, vec![CHANNEL_DROP, MSG_CORRUPT]);
        assert_eq!(reg.summary(), "channel.drop: 2\nmsg.corrupt: 1\n");
    }
}
