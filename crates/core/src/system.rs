use std::fmt;
use std::sync::OnceLock;

use crate::bitset::StateSet;

/// Error raised when a [`SystemBuilder`] describes something that is not a
/// system in the paper's sense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// A state has no outgoing transition, violating "a set of sequences
    /// with at least one sequence starting from every state".
    NotTotal {
        /// The state with no successor.
        state: usize,
    },
    /// An edge or initial state refers to a state outside `0..num_states`.
    StateOutOfRange {
        /// The offending state index.
        state: usize,
        /// Number of states in the space.
        num_states: usize,
    },
    /// The system has no states at all.
    EmptyStateSpace,
    /// A CSR row handed to [`FiniteSystem::try_from_csr`] is malformed:
    /// its offsets are inconsistent, or its successors are unsorted or
    /// duplicated.
    MalformedRow {
        /// The state whose row is malformed (`num_states` when the
        /// offset array itself has the wrong length).
        state: usize,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::NotTotal { state } => {
                write!(f, "state {state} has no outgoing transition")
            }
            SystemError::StateOutOfRange { state, num_states } => {
                write!(f, "state {state} out of range for {num_states} states")
            }
            SystemError::EmptyStateSpace => write!(f, "state space is empty"),
            SystemError::MalformedRow { state } => {
                write!(f, "CSR row of state {state} is malformed")
            }
        }
    }
}

impl std::error::Error for SystemError {}

/// A system in the paper's sense, over a finite state space.
///
/// Per §2, a system is a fusion-closed set of state sequences with at least
/// one computation from every state, plus a set of initial states. Over a
/// finite state space `0..num_states`, such a set of sequences is exactly
/// the set of paths of a directed graph whose transition relation is
/// *total* (every state has a successor). `FiniteSystem` stores that graph.
///
/// Specifications (abstract systems) and implementations (concrete systems)
/// are both values of this one type, as in the paper.
///
/// # Representation
///
/// The transition relation is stored in compressed-sparse-row (CSR) form:
/// a flat, per-source-sorted successor array plus `num_states + 1` row
/// offsets, plus a lazily mirrored reverse CSR for predecessor queries.
/// State sets (initial states, reachability closures) are dense
/// [`StateSet`] bitsets. Two closures every relation check needs — the init-reachable
/// set and the strongly-connected-component id of every state (in
/// reverse topological order) — are
/// computed lazily on first use and cached, in `O(V + E)` total. Both are
/// pure functions of `(init, edges)`, so laziness never changes a query
/// result, equality stays well-defined (caches are excluded from `==`),
/// and systems that are only ever *composed* — e.g. the per-command
/// components of a fair compilation — never pay for caches they do not
/// read.
///
/// # Concurrency
///
/// The lazy caches live in [`std::sync::OnceLock`]s, so every getter —
/// [`scc_ids`](Self::scc_ids), [`predecessors_slice`](Self::predecessors_slice),
/// [`reachable_from_init`](Self::reachable_from_init) and friends — is
/// safe under **concurrent first access** through a shared `&FiniteSystem`:
/// exactly one thread computes the cache, the others block until it is
/// ready, and all observe the same value. Sweep workers can therefore
/// share one compiled system immutably without any pre-warming ritual
/// (pre-touching a cache before a fan-out merely avoids the momentary
/// pile-up on the lock). On machines with more than one core, systems
/// with at least `2^17` states compute their reachability closures with
/// the level-synchronized parallel BFS of this crate; the values are
/// identical to the sequential ones. SCC ids always come from the
/// sequential Tarjan.
///
/// # Example
///
/// ```
/// use graybox_core::FiniteSystem;
///
/// // A two-state flip-flop, starting at state 0.
/// let sys = FiniteSystem::builder(2)
///     .initial(0)
///     .edge(0, 1)
///     .edge(1, 0)
///     .build()?;
/// assert!(sys.has_edge(0, 1));
/// assert_eq!(*sys.reachable_from_init(), [0, 1].into_iter().collect::<graybox_core::StateSet>());
/// # Ok::<(), graybox_core::SystemError>(())
/// ```
#[derive(Clone)]
pub struct FiniteSystem {
    num_states: usize,
    init: StateSet,
    /// CSR row offsets into `fwd_to`; length `num_states + 1`.
    fwd_off: Vec<usize>,
    /// Flat successor array, sorted and deduplicated per row.
    fwd_to: Vec<usize>,
    /// Lazily built reverse CSR `(rev_off, rev_from)`: offsets of length
    /// `num_states + 1` into the flat, per-target-sorted predecessor
    /// array. Only predecessor queries pay for it.
    rev: OnceLock<(Vec<usize>, Vec<usize>)>,
    /// Lazily cached closure of `init` under the transition relation.
    init_reachable: OnceLock<StateSet>,
    /// Lazily cached `(scc_id per state, scc_count)`; ids in Tarjan pop
    /// order, i.e. reverse topological.
    sccs: OnceLock<(Vec<usize>, usize)>,
}

impl PartialEq for FiniteSystem {
    fn eq(&self, other: &Self) -> bool {
        // The caches are pure functions of these fields.
        self.num_states == other.num_states
            && self.init == other.init
            && self.fwd_off == other.fwd_off
            && self.fwd_to == other.fwd_to
    }
}

impl Eq for FiniteSystem {}

impl fmt::Debug for FiniteSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FiniteSystem")
            .field("num_states", &self.num_states)
            .field("init", &self.init)
            .field("edges", &self.edges().iter().collect::<Vec<_>>())
            .finish()
    }
}

impl FiniteSystem {
    /// Starts building a system over states `0..num_states`.
    pub fn builder(num_states: usize) -> SystemBuilder {
        SystemBuilder {
            num_states,
            init: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Constructs the CSR form and caches from validated parts: `edges`
    /// must be sorted, deduplicated, in-range, and total.
    fn from_sorted_parts(num_states: usize, init: StateSet, edges: &[(usize, usize)]) -> Self {
        let mut fwd_off = vec![0usize; num_states + 1];
        for &(from, _) in edges {
            fwd_off[from + 1] += 1;
        }
        for i in 0..num_states {
            fwd_off[i + 1] += fwd_off[i];
        }
        let fwd_to: Vec<usize> = edges.iter().map(|&(_, to)| to).collect();

        FiniteSystem {
            num_states,
            init,
            fwd_off,
            fwd_to,
            rev: OnceLock::new(),
            init_reachable: OnceLock::new(),
            sccs: OnceLock::new(),
        }
    }

    /// Constructs a system directly from forward CSR rows. Rows must be
    /// sorted, deduplicated, in-range, and total — the streaming GCL
    /// compiler stages each row that way, and debug builds assert it;
    /// unlike
    /// [`builder`](Self::builder), no intermediate `(from, to)` pair list
    /// is ever materialized.
    pub(crate) fn from_csr(
        num_states: usize,
        init: StateSet,
        fwd_off: Vec<usize>,
        fwd_to: Vec<usize>,
    ) -> Result<Self, SystemError> {
        if num_states == 0 {
            return Err(SystemError::EmptyStateSpace);
        }
        // The streaming compiler guarantees well-formed rows (stutter
        // self-loops keep the relation total; `finish_effect` bounds every
        // target), so the per-row checks are debug-only — release builds
        // pay nothing for them.
        debug_assert_eq!(fwd_off.len(), num_states + 1);
        debug_assert_eq!(*fwd_off.last().unwrap(), fwd_to.len());
        #[cfg(debug_assertions)]
        for state in 0..num_states {
            let row = &fwd_to[fwd_off[state]..fwd_off[state + 1]];
            debug_assert!(!row.is_empty(), "state {state} has no successor");
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "row must be sorted");
        }
        debug_assert!(fwd_to.iter().all(|&to| to < num_states), "target in range");

        Ok(FiniteSystem {
            num_states,
            init,
            fwd_off,
            fwd_to,
            rev: OnceLock::new(),
            init_reachable: OnceLock::new(),
            sccs: OnceLock::new(),
        })
    }

    /// Constructs a system from forward CSR rows, validating them **in
    /// every build profile**: offsets must be monotone and cover
    /// `fwd_to` exactly, every row must be non-empty (the relation is
    /// total), sorted, and deduplicated, and every successor and initial
    /// state must lie in `0..num_states`.
    ///
    /// This is the entry point for CSR data of *unknown provenance* —
    /// e.g. a transition relation loaded from a file by `graybox-lint`.
    /// The streaming GCL compiler constructs its rows well-formed and
    /// uses the internal debug-checked constructor instead; external
    /// callers get `Result` instead of release-mode undefined behaviour
    /// on malformed rows.
    ///
    /// # Errors
    ///
    /// [`SystemError::EmptyStateSpace`] for zero states,
    /// [`SystemError::MalformedRow`] for inconsistent offsets or
    /// unsorted/duplicated successors, [`SystemError::NotTotal`] for an
    /// empty row, and [`SystemError::StateOutOfRange`] for a successor
    /// or initial state outside the space.
    pub fn try_from_csr(
        num_states: usize,
        init: StateSet,
        fwd_off: Vec<usize>,
        fwd_to: Vec<usize>,
    ) -> Result<Self, SystemError> {
        if num_states == 0 {
            return Err(SystemError::EmptyStateSpace);
        }
        if fwd_off.len() != num_states + 1
            || fwd_off[0] != 0
            || *fwd_off.last().unwrap() != fwd_to.len()
        {
            return Err(SystemError::MalformedRow { state: num_states });
        }
        for state in 0..num_states {
            let (start, end) = (fwd_off[state], fwd_off[state + 1]);
            if start > end || end > fwd_to.len() {
                return Err(SystemError::MalformedRow { state });
            }
            let row = &fwd_to[start..end];
            if row.is_empty() {
                return Err(SystemError::NotTotal { state });
            }
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return Err(SystemError::MalformedRow { state });
            }
            if let Some(&target) = row.iter().find(|&&target| target >= num_states) {
                return Err(SystemError::StateOutOfRange {
                    state: target,
                    num_states,
                });
            }
        }
        if let Some(state) = init.iter().find(|&state| state >= num_states) {
            return Err(SystemError::StateOutOfRange { state, num_states });
        }
        Self::from_csr(num_states, init, fwd_off, fwd_to)
    }

    /// Number of states in the state space Σ.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The set of initial states.
    pub fn init(&self) -> &StateSet {
        &self.init
    }

    /// The transition relation, as a sorted edge-set view.
    pub fn edges(&self) -> Edges<'_> {
        Edges { sys: self }
    }

    /// Number of transitions.
    pub fn edge_count(&self) -> usize {
        self.fwd_to.len()
    }

    /// True when `(from, to)` is a transition of this system.
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        from < self.num_states && self.successors_slice(from).binary_search(&to).is_ok()
    }

    /// Successors of `state`, ascending.
    pub fn successors(&self, state: usize) -> impl Iterator<Item = usize> + '_ {
        self.successors_slice(state).iter().copied()
    }

    /// Successors of `state` as a sorted slice — the allocation-free view
    /// for hot loops.
    pub fn successors_slice(&self, state: usize) -> &[usize] {
        &self.fwd_to[self.fwd_off[state]..self.fwd_off[state + 1]]
    }

    /// Predecessors of `state`, ascending.
    pub fn predecessors(&self, state: usize) -> impl Iterator<Item = usize> + '_ {
        self.predecessors_slice(state).iter().copied()
    }

    /// Predecessors of `state` as a sorted slice (reverse CSR, built on
    /// first predecessor query).
    pub fn predecessors_slice(&self, state: usize) -> &[usize] {
        let (rev_off, rev_from) = self.reverse_csr();
        &rev_from[rev_off[state]..rev_off[state + 1]]
    }

    /// Reverse CSR by counting sort on the target column; scanning the
    /// forward rows in source order keeps each reverse row sorted.
    fn reverse_csr(&self) -> &(Vec<usize>, Vec<usize>) {
        self.rev.get_or_init(|| {
            let mut rev_off = vec![0usize; self.num_states + 1];
            for &to in &self.fwd_to {
                rev_off[to + 1] += 1;
            }
            for i in 0..self.num_states {
                rev_off[i + 1] += rev_off[i];
            }
            let mut cursor = rev_off.clone();
            let mut rev_from = vec![0usize; self.fwd_to.len()];
            for from in 0..self.num_states {
                for &to in &self.fwd_to[self.fwd_off[from]..self.fwd_off[from + 1]] {
                    rev_from[cursor[to]] = from;
                    cursor[to] += 1;
                }
            }
            (rev_off, rev_from)
        })
    }

    /// States reachable from the given seed set by following transitions
    /// (the seeds themselves included). On multi-core machines, systems
    /// with at least `2^17` states fan the walk out across workers (see
    /// [`reachable_from_on`](Self::reachable_from_on)); the resulting
    /// set is identical either way.
    pub fn reachable_from(&self, seeds: impl IntoIterator<Item = usize>) -> StateSet {
        self.reachable_from_on(crate::par::default_workers(self.num_states), seeds)
    }

    /// [`reachable_from`](Self::reachable_from) with an explicit worker
    /// count. One level-synchronized BFS runs at every count: levels of
    /// at least `2^13` states expand across `workers` into per-worker
    /// buffers merged at the level barrier, and smaller levels (every
    /// level at `workers <= 1`) expand inline. The closure is the same
    /// for every count; the benchmark harness uses the explicit form for
    /// scaling measurements.
    pub fn reachable_from_on(
        &self,
        workers: usize,
        seeds: impl IntoIterator<Item = usize>,
    ) -> StateSet {
        crate::par::reach(&self.fwd_off, &self.fwd_to, workers, seeds)
    }

    /// States on computations that start from an initial state. Computed
    /// on first use and cached; subsequent calls are a cache read.
    pub fn reachable_from_init(&self) -> &StateSet {
        self.init_reachable
            .get_or_init(|| self.reachable_from(self.init.iter()))
    }

    /// The strongly-connected-component id of every state, indexed by
    /// state. Ids are in reverse topological order of the condensation
    /// (sinks get lower ids than their predecessors). Computed on first
    /// use and cached; concurrent first access is safe (see the type's
    /// Concurrency section). The iterative Tarjan assigns ids in
    /// completion order.
    ///
    /// An edge `(u, v)` of the system lies on a cycle exactly when
    /// `scc_ids()[u] == scc_ids()[v]` — the `O(1)` test behind
    /// [`is_stabilizing_to`](crate::is_stabilizing_to).
    pub fn scc_ids(&self) -> &[usize] {
        &self.sccs.get_or_init(|| self.compute_sccs()).0
    }

    /// Number of strongly connected components.
    pub fn scc_count(&self) -> usize {
        self.sccs.get_or_init(|| self.compute_sccs()).1
    }

    /// Fresh SCC computation, bypassing the cache. The worker count is
    /// accepted for symmetry with the other `*_on` entry points, but
    /// every count runs the same sequential iterative Tarjan: the
    /// verdict pipeline's graphs are dominated by singleton components,
    /// where no parallel decomposition beats one `O(V + E)` pass. The
    /// result is therefore bit-identical at every worker count. The
    /// benchmark harness uses this for timing; everything else should
    /// read the cached [`scc_ids`](Self::scc_ids).
    pub fn sccs_on(&self, _workers: usize) -> (Vec<usize>, usize) {
        self.compute_sccs()
    }

    /// True when there is a path (of length ≥ 1) from `from` to `to`.
    pub fn has_path(&self, from: usize, to: usize) -> bool {
        let scc_id = self.scc_ids();
        if from != to && scc_id[from] == scc_id[to] {
            return true; // both on a common cycle
        }
        if from == to {
            // A length ≥ 1 path back to itself needs a self-loop or a
            // nontrivial SCC around `from`.
            if self.has_edge(from, from) {
                return true;
            }
            let id = scc_id[from];
            if self
                .successors_slice(from)
                .iter()
                .any(|&next| next != from && scc_id[next] == id)
            {
                return true;
            }
            return false;
        }
        // Cross-SCC query: plain BFS over the CSR rows.
        let mut seen = StateSet::with_capacity(self.num_states);
        let mut frontier = vec![from];
        while let Some(state) = frontier.pop() {
            for &next in self.successors_slice(state) {
                if next == to {
                    return true;
                }
                if seen.insert(next) {
                    frontier.push(next);
                }
            }
        }
        false
    }

    /// Enumerates all computations of length `len` starting from `from`
    /// (finite prefixes of the system's computations). Useful for
    /// cross-checking the graph-based relations against the paper's
    /// sequence-based definitions in tests.
    pub fn computations_from(&self, from: usize, len: usize) -> Vec<Vec<usize>> {
        let mut result = Vec::new();
        let mut stack = vec![vec![from]];
        while let Some(path) = stack.pop() {
            if path.len() == len {
                result.push(path);
                continue;
            }
            let last = *path.last().expect("paths are nonempty");
            for next in self.successors(last) {
                let mut extended = path.clone();
                extended.push(next);
                stack.push(extended);
            }
        }
        result
    }

    /// The box composition `self ⊓ other` over a shared state space: edge
    /// union by merging the sorted CSR rows, init intersection by bitwise
    /// AND. Callers validate `num_states` agreement.
    pub(crate) fn box_union(&self, other: &FiniteSystem) -> FiniteSystem {
        debug_assert_eq!(self.num_states, other.num_states);
        let mut edges = Vec::with_capacity(self.edge_count().max(other.edge_count()));
        for state in 0..self.num_states {
            let (a, b) = (self.successors_slice(state), other.successors_slice(state));
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                let next = match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => {
                        i += 1;
                        a[i - 1]
                    }
                    std::cmp::Ordering::Greater => {
                        j += 1;
                        b[j - 1]
                    }
                    std::cmp::Ordering::Equal => {
                        i += 1;
                        j += 1;
                        a[i - 1]
                    }
                };
                edges.push((state, next));
            }
            edges.extend(a[i..].iter().map(|&to| (state, to)));
            edges.extend(b[j..].iter().map(|&to| (state, to)));
        }
        FiniteSystem::from_sorted_parts(
            self.num_states,
            self.init.intersection(&other.init),
            &edges,
        )
    }

    /// Iterative Tarjan over the CSR rows (see [`crate::par::tarjan`]).
    fn compute_sccs(&self) -> (Vec<usize>, usize) {
        crate::par::Csr {
            off: &self.fwd_off,
            to: &self.fwd_to,
        }
        .sccs()
    }
}

impl fmt::Display for FiniteSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "system({} states, init {:?}, {} edges)",
            self.num_states,
            self.init,
            self.edge_count()
        )
    }
}

/// Sorted view of a system's transition relation, yielded by
/// [`FiniteSystem::edges`]. Iterates `(from, to)` pairs in lexicographic
/// order straight off the CSR rows.
#[derive(Clone, Copy)]
pub struct Edges<'a> {
    sys: &'a FiniteSystem,
}

impl<'a> Edges<'a> {
    /// Number of transitions.
    pub fn len(&self) -> usize {
        self.sys.edge_count()
    }

    /// True when the system has no transitions (impossible for a built
    /// system, which is total).
    pub fn is_empty(&self) -> bool {
        self.sys.edge_count() == 0
    }

    /// Iterates the edges in lexicographic order.
    pub fn iter(&self) -> EdgeIter<'a> {
        EdgeIter {
            sys: self.sys,
            state: 0,
            pos: 0,
        }
    }

    /// True when every edge of `self` is an edge of `other` — a merge walk
    /// over each pair of sorted CSR rows.
    pub fn is_subset(&self, other: Edges<'_>) -> bool {
        if self.sys.num_states != other.sys.num_states {
            return false;
        }
        (0..self.sys.num_states).all(|state| {
            let (a, b) = (
                self.sys.successors_slice(state),
                other.sys.successors_slice(state),
            );
            let mut j = 0;
            a.iter().all(|&to| {
                while j < b.len() && b[j] < to {
                    j += 1;
                }
                j < b.len() && b[j] == to
            })
        })
    }
}

impl fmt::Debug for Edges<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for Edges<'a> {
    type Item = (usize, usize);
    type IntoIter = EdgeIter<'a>;
    fn into_iter(self) -> EdgeIter<'a> {
        self.iter()
    }
}

/// Lexicographic iterator over a system's edges.
#[derive(Debug, Clone)]
pub struct EdgeIter<'a> {
    sys: &'a FiniteSystem,
    state: usize,
    pos: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        while self.state < self.sys.num_states {
            let row = self.sys.successors_slice(self.state);
            if self.pos < row.len() {
                let edge = (self.state, row[self.pos]);
                self.pos += 1;
                return Some(edge);
            }
            self.state += 1;
            self.pos = 0;
        }
        None
    }
}

/// Incremental constructor for [`FiniteSystem`]; validates the paper's
/// totality requirement at [`build`](SystemBuilder::build) time.
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    num_states: usize,
    init: Vec<usize>,
    edges: Vec<(usize, usize)>,
}

impl SystemBuilder {
    /// Marks `state` as initial.
    pub fn initial(mut self, state: usize) -> Self {
        self.init.push(state);
        self
    }

    /// Marks several states as initial.
    pub fn initials(mut self, states: impl IntoIterator<Item = usize>) -> Self {
        self.init.extend(states);
        self
    }

    /// Adds the transition `(from, to)`.
    pub fn edge(mut self, from: usize, to: usize) -> Self {
        self.edges.push((from, to));
        self
    }

    /// Adds several transitions.
    pub fn edges(mut self, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        self.edges.extend(edges);
        self
    }

    /// Adds a self-loop on every state that currently has no successor,
    /// modelling quiescence while preserving totality.
    pub fn stutter_quiescent(mut self) -> Self {
        let mut with_out = vec![false; self.num_states];
        for &(from, _) in &self.edges {
            if from < self.num_states {
                with_out[from] = true;
            }
        }
        for (state, &has_out) in with_out.iter().enumerate() {
            if !has_out {
                self.edges.push((state, state));
            }
        }
        self
    }

    /// Validates and produces the system.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::EmptyStateSpace`] for zero states,
    /// [`SystemError::StateOutOfRange`] if an edge or initial state is out
    /// of range, and [`SystemError::NotTotal`] if some state has no
    /// outgoing transition.
    pub fn build(mut self) -> Result<FiniteSystem, SystemError> {
        if self.num_states == 0 {
            return Err(SystemError::EmptyStateSpace);
        }
        let check = |state: usize| -> Result<(), SystemError> {
            if state >= self.num_states {
                Err(SystemError::StateOutOfRange {
                    state,
                    num_states: self.num_states,
                })
            } else {
                Ok(())
            }
        };
        let mut init = StateSet::with_capacity(self.num_states);
        for &state in &self.init {
            check(state)?;
            init.insert(state);
        }
        let mut has_out = vec![false; self.num_states];
        for &(from, to) in &self.edges {
            check(from)?;
            check(to)?;
            has_out[from] = true;
        }
        if let Some(state) = has_out.iter().position(|&ok| !ok) {
            return Err(SystemError::NotTotal { state });
        }
        self.edges.sort_unstable();
        self.edges.dedup();
        Ok(FiniteSystem::from_sorted_parts(
            self.num_states,
            init,
            &self.edges,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StateSet;

    fn ring3() -> FiniteSystem {
        FiniteSystem::builder(3)
            .initial(0)
            .edges([(0, 1), (1, 2), (2, 0)])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_rejects_empty_space() {
        assert_eq!(
            FiniteSystem::builder(0).build().unwrap_err(),
            SystemError::EmptyStateSpace
        );
    }

    #[test]
    fn builder_rejects_partial_relation() {
        let err = FiniteSystem::builder(2).edge(0, 1).build().unwrap_err();
        assert_eq!(err, SystemError::NotTotal { state: 1 });
    }

    #[test]
    fn builder_rejects_out_of_range_edge() {
        let err = FiniteSystem::builder(2)
            .edges([(0, 5), (1, 0)])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SystemError::StateOutOfRange {
                state: 5,
                num_states: 2
            }
        );
    }

    #[test]
    fn builder_rejects_out_of_range_initial() {
        let err = FiniteSystem::builder(1)
            .initial(3)
            .edge(0, 0)
            .build()
            .unwrap_err();
        assert!(matches!(err, SystemError::StateOutOfRange { state: 3, .. }));
    }

    #[test]
    fn builder_deduplicates_edges() {
        let sys = FiniteSystem::builder(2)
            .initial(0)
            .edges([(0, 1), (0, 1), (1, 0), (0, 1)])
            .build()
            .unwrap();
        assert_eq!(sys.edge_count(), 2);
        assert_eq!(sys.successors_slice(0), &[1]);
    }

    #[test]
    fn stutter_quiescent_restores_totality() {
        let sys = FiniteSystem::builder(3)
            .initial(0)
            .edge(0, 1)
            .stutter_quiescent()
            .build()
            .unwrap();
        assert!(sys.has_edge(1, 1));
        assert!(sys.has_edge(2, 2));
        assert!(!sys.has_edge(0, 0));
    }

    #[test]
    fn successors_are_exact() {
        let sys = FiniteSystem::builder(2)
            .initial(0)
            .edges([(0, 0), (0, 1), (1, 1)])
            .build()
            .unwrap();
        let succ: Vec<_> = sys.successors(0).collect();
        assert_eq!(succ, vec![0, 1]);
        let succ1: Vec<_> = sys.successors(1).collect();
        assert_eq!(succ1, vec![1]);
    }

    #[test]
    fn predecessors_mirror_successors() {
        let sys = FiniteSystem::builder(3)
            .initial(0)
            .edges([(0, 1), (1, 2), (2, 0), (0, 2)])
            .build()
            .unwrap();
        assert_eq!(sys.predecessors_slice(2), &[0, 1]);
        assert_eq!(sys.predecessors(0).collect::<Vec<_>>(), vec![2]);
        for from in 0..3 {
            for to in 0..3 {
                assert_eq!(
                    sys.has_edge(from, to),
                    sys.predecessors_slice(to).contains(&from),
                );
            }
        }
    }

    #[test]
    fn edges_iterate_in_lexicographic_order() {
        let sys = FiniteSystem::builder(3)
            .initial(0)
            .edges([(2, 0), (0, 2), (0, 1), (1, 1)])
            .build()
            .unwrap();
        let all: Vec<_> = sys.edges().iter().collect();
        assert_eq!(all, vec![(0, 1), (0, 2), (1, 1), (2, 0)]);
        assert_eq!(sys.edges().len(), 4);
    }

    #[test]
    fn edge_subset_matches_pairwise_containment() {
        let big = FiniteSystem::builder(3)
            .initial(0)
            .edges([(0, 1), (0, 2), (1, 1), (2, 0)])
            .build()
            .unwrap();
        let small = FiniteSystem::builder(3)
            .initial(0)
            .edges([(0, 2), (1, 1), (2, 0)])
            .build()
            .unwrap();
        assert!(small.edges().is_subset(big.edges()));
        assert!(!big.edges().is_subset(small.edges()));
        assert!(big.edges().is_subset(big.edges()));
    }

    #[test]
    fn reachability_follows_edges() {
        let sys = FiniteSystem::builder(4)
            .initial(0)
            .edges([(0, 1), (1, 0), (2, 3), (3, 2)])
            .build()
            .unwrap();
        assert_eq!(
            *sys.reachable_from_init(),
            [0, 1].into_iter().collect::<StateSet>()
        );
        assert_eq!(
            sys.reachable_from([2]),
            [2, 3].into_iter().collect::<StateSet>()
        );
    }

    #[test]
    fn scc_ids_partition_and_order() {
        let sys = FiniteSystem::builder(5)
            .initial(0)
            .edges([(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (4, 4)])
            .build()
            .unwrap();
        let ids = sys.scc_ids();
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[2], ids[3]);
        assert_ne!(ids[0], ids[2]);
        assert_eq!(sys.scc_count(), 3);
        // Reverse topological: {2,3} (a sink) completes before {0,1}.
        assert!(ids[2] < ids[0]);
    }

    #[test]
    fn has_path_requires_at_least_one_step() {
        let sys = ring3();
        assert!(sys.has_path(0, 0)); // around the ring
        let line = FiniteSystem::builder(2)
            .initial(0)
            .edges([(0, 1), (1, 1)])
            .build()
            .unwrap();
        assert!(!line.has_path(0, 0));
        assert!(line.has_path(0, 1));
        assert!(line.has_path(1, 1)); // self-loop
    }

    #[test]
    fn has_path_crosses_scc_boundaries() {
        let sys = FiniteSystem::builder(4)
            .initial(0)
            .edges([(0, 1), (1, 0), (1, 2), (2, 3), (3, 3)])
            .build()
            .unwrap();
        assert!(sys.has_path(0, 3));
        assert!(!sys.has_path(3, 0));
        assert!(!sys.has_path(2, 2)); // singleton SCC, no self-loop
    }

    #[test]
    fn computations_enumerate_paths() {
        let sys = ring3();
        let comps = sys.computations_from(0, 4);
        assert_eq!(comps, vec![vec![0, 1, 2, 0]]);
        let branching = FiniteSystem::builder(2)
            .initial(0)
            .edges([(0, 0), (0, 1), (1, 1)])
            .build()
            .unwrap();
        let mut comps = branching.computations_from(0, 3);
        comps.sort();
        assert_eq!(comps, vec![vec![0, 0, 0], vec![0, 0, 1], vec![0, 1, 1]]);
    }

    #[test]
    fn display_is_informative() {
        let text = ring3().to_string();
        assert!(text.contains("3 states"));
        assert!(text.contains("3 edges"));
    }

    #[test]
    fn explicit_engines_agree_with_the_cached_defaults() {
        // A few hundred states with mixed SCC structure: three rings
        // bridged into a chain plus stutter tails.
        let mut builder = FiniteSystem::builder(300).initial(0);
        for ring in 0..3usize {
            let base = ring * 90;
            for i in 0..90 {
                builder = builder.edge(base + i, base + (i + 1) % 90);
            }
            if ring > 0 {
                builder = builder.edge(base - 90, base);
            }
        }
        let sys = builder.stutter_quiescent().build().unwrap();

        let serial = sys.reachable_from_on(1, [0usize, 271]);
        let parallel = sys.reachable_from_on(4, [0usize, 271]);
        assert_eq!(serial, parallel);

        // Every worker count runs the same Tarjan: bit-identical ids.
        let serial = sys.sccs_on(1);
        for workers in [2, 4] {
            assert_eq!(sys.sccs_on(workers), serial, "{workers} workers");
        }
        assert_eq!(sys.scc_ids(), serial.0.as_slice());
        assert_eq!(sys.scc_count(), serial.1);
    }

    #[test]
    fn cache_getters_are_safe_under_concurrent_first_access() {
        // Several threads race the first access of every lazy cache
        // through a shared reference; all must observe the same values
        // (OnceLock computes each cache exactly once).
        let mut builder = FiniteSystem::builder(500).initial(0);
        for i in 0..500 {
            builder = builder.edge(i, (i * 7 + 1) % 500).edge(i, (i + 250) % 500);
        }
        let sys = builder.build().unwrap();
        let views = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        (
                            sys.scc_ids().to_vec(),
                            sys.scc_count(),
                            sys.reachable_from_init().clone(),
                            sys.predecessors_slice(3).to_vec(),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        for view in &views[1..] {
            assert_eq!(view, &views[0]);
        }
    }

    #[test]
    fn try_from_csr_accepts_well_formed_rows() {
        let init: StateSet = [0].into_iter().collect();
        let sys = FiniteSystem::try_from_csr(3, init, vec![0, 1, 3, 4], vec![1, 0, 2, 2]).unwrap();
        assert_eq!(sys, ring3_with_extra());
        fn ring3_with_extra() -> FiniteSystem {
            FiniteSystem::builder(3)
                .initial(0)
                .edges([(0, 1), (1, 0), (1, 2), (2, 2)])
                .build()
                .unwrap()
        }
    }

    #[test]
    fn try_from_csr_rejects_malformed_input() {
        let init = || [0].into_iter().collect::<StateSet>();
        // Empty space.
        assert_eq!(
            FiniteSystem::try_from_csr(0, StateSet::with_capacity(0), vec![0], vec![]),
            Err(SystemError::EmptyStateSpace)
        );
        // Offset array of the wrong length.
        assert_eq!(
            FiniteSystem::try_from_csr(2, init(), vec![0, 1], vec![0]),
            Err(SystemError::MalformedRow { state: 2 })
        );
        // Offsets not covering the successor array.
        assert_eq!(
            FiniteSystem::try_from_csr(2, init(), vec![0, 1, 3], vec![0, 1]),
            Err(SystemError::MalformedRow { state: 2 })
        );
        // Non-monotone offsets.
        assert_eq!(
            FiniteSystem::try_from_csr(3, init(), vec![0, 2, 1, 2], vec![0, 1]),
            Err(SystemError::MalformedRow { state: 1 })
        );
        // Empty row: the relation is not total.
        assert_eq!(
            FiniteSystem::try_from_csr(2, init(), vec![0, 0, 2], vec![0, 1]),
            Err(SystemError::NotTotal { state: 0 })
        );
        // Unsorted row.
        assert_eq!(
            FiniteSystem::try_from_csr(2, init(), vec![0, 2, 3], vec![1, 0, 0]),
            Err(SystemError::MalformedRow { state: 0 })
        );
        // Duplicated successor.
        assert_eq!(
            FiniteSystem::try_from_csr(2, init(), vec![0, 2, 3], vec![0, 0, 1]),
            Err(SystemError::MalformedRow { state: 0 })
        );
        // Successor out of range.
        assert_eq!(
            FiniteSystem::try_from_csr(2, init(), vec![0, 1, 2], vec![1, 5]),
            Err(SystemError::StateOutOfRange {
                state: 5,
                num_states: 2
            })
        );
        // Initial state out of range.
        let far_init: StateSet = [4].into_iter().collect();
        assert_eq!(
            FiniteSystem::try_from_csr(2, far_init, vec![0, 1, 2], vec![1, 0]),
            Err(SystemError::StateOutOfRange {
                state: 4,
                num_states: 2
            })
        );
    }
}
