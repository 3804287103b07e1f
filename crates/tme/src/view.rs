use graybox_clock::{ProcessId, Timestamp};

use crate::Mode;

/// The `Lspec`-level view of a TME process — **everything a graybox
/// wrapper is allowed to see**.
///
/// The paper's refined wrapper is
///
/// ```text
/// W_j :: h.j → (∀k : k ≠ j ∧ j.REQ_k lt REQ_j : send(REQ_j, j, k))
/// ```
///
/// so a wrapper needs exactly: whether the process is hungry (`h.j`), its
/// current request timestamp (`REQ_j`), and the relation between `REQ_j`
/// and its local copy `j.REQ_k` of each peer's request. This trait exposes
/// those three quantities and *nothing else*; `graybox-wrapper` is generic
/// over it, so the type system guarantees the wrapper never depends on
/// implementation internals (the paper's graybox property).
///
/// Because `lt` totally orders timestamps of distinct processes,
/// `j.REQ_k lt REQ_j ≡ ¬(REQ_j lt j.REQ_k)`; implementations expose the
/// positive direction [`my_req_precedes`](LspecView::my_req_precedes)
/// ("my local information *confirms* my request precedes k's"), and
/// wrappers act on its negation. An implementation that has not (yet)
/// received peer `k`'s request information must return `false` — its local
/// copy does not confirm precedence, which is exactly when the wrapper
/// must re-send (this covers the lost-reply deadlock of §4).
pub trait LspecView {
    /// This process's identity (`j`).
    fn lspec_id(&self) -> ProcessId;

    /// Total number of processes in the system.
    fn lspec_n(&self) -> usize;

    /// The current mode (`t.j` / `h.j` / `e.j`).
    fn mode(&self) -> Mode;

    /// The current request timestamp `REQ_j` (equals the most recent event
    /// timestamp while thinking, per CS Release Spec).
    fn req(&self) -> Timestamp;

    /// The paper's `REQ_j lt j.REQ_k`: does this process's *local
    /// information* confirm that its own current request precedes `k`'s?
    fn my_req_precedes(&self, k: ProcessId) -> bool;

    /// Identities of all peers (`k ≠ j`), in index order.
    fn peers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        let id = self.lspec_id();
        ProcessId::all(self.lspec_n()).filter(move |&k| k != id)
    }
}

/// A point-in-time snapshot of a process's `Lspec`-relevant state, taken by
/// the trace recorder after every simulation step and consumed by the
/// checkers in `graybox-spec`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcSnapshot {
    /// Identity of the process.
    pub pid: ProcessId,
    /// Mode at snapshot time.
    pub mode: Mode,
    /// `REQ_j`.
    pub req: Timestamp,
    /// The process's current logical-clock reading (`ts.j`).
    pub now_ts: Timestamp,
    /// For each process index `k`: the value of `REQ_j lt j.REQ_k`
    /// (this process's slot holds `false`).
    pub precedes: Vec<bool>,
    /// For each process index `k`: the concrete local copy `j.REQ_k`,
    /// where the implementation stores one (`None` for implementations
    /// like Lamport's whose `j.REQ_k` is virtual, and for the own slot).
    pub local_req: Vec<Option<Timestamp>>,
}

impl ProcSnapshot {
    /// True when this process's local information says every peer's
    /// request is later — the CS Entry Spec antecedent.
    pub fn precedes_all(&self) -> bool {
        self.precedes
            .iter()
            .enumerate()
            .all(|(k, &p)| k == self.pid.index() || p)
    }
}

/// Introspection interface used by the trace recorder. Separate from
/// [`LspecView`] so that the wrapper's type bound stays minimal: checkers
/// may look deeper than wrappers.
pub trait TmeIntrospect {
    /// Captures the current `Lspec`-relevant state.
    fn snapshot(&self) -> ProcSnapshot;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake;

    impl LspecView for Fake {
        fn lspec_id(&self) -> ProcessId {
            ProcessId(1)
        }
        fn lspec_n(&self) -> usize {
            4
        }
        fn mode(&self) -> Mode {
            Mode::Hungry
        }
        fn req(&self) -> Timestamp {
            Timestamp::new(3, ProcessId(1))
        }
        fn my_req_precedes(&self, k: ProcessId) -> bool {
            k.0 > 1
        }
    }

    #[test]
    fn peers_excludes_self() {
        let peers: Vec<ProcessId> = Fake.peers().collect();
        assert_eq!(peers, vec![ProcessId(0), ProcessId(2), ProcessId(3)]);
    }

    #[test]
    fn snapshot_precedes_all_ignores_own_slot() {
        let snap = ProcSnapshot {
            pid: ProcessId(1),
            mode: Mode::Hungry,
            req: Timestamp::new(3, ProcessId(1)),
            now_ts: Timestamp::new(3, ProcessId(1)),
            precedes: vec![true, false, true],
            local_req: vec![None, None, None],
        };
        assert!(snap.precedes_all());
        let snap2 = ProcSnapshot {
            precedes: vec![false, false, true],
            ..snap
        };
        assert!(!snap2.precedes_all());
    }
}
