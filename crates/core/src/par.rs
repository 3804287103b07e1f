//! The crate's one graph kernel: closure, SCCs, stitching and the
//! fair-violation scan.
//!
//! Most graphs in the verdict pipeline are a stored CSR pair `(off,
//! to)`: [`FiniteSystem`](crate::FiniteSystem)'s `usize` rows and the
//! quotient check's 32-bit union rows. The full fair self-check stores
//! no graph; it builds each state's union row when it needs it. The
//! kernels here are generic over the index width through [`Idx`], and
//! the SCC pass and the scan over how rows are read, so each job has
//! exactly one implementation, std-only (`thread::scope` via
//! [`crate::sweep::join_all`], no rayon, no unsafe):
//!
//! - [`reach`] is a level-synchronized BFS. The frontier of each level
//!   is split into contiguous chunks, one per worker. Workers read the
//!   shared `seen` bitset **immutably** and emit candidate successors
//!   into private buffers; at the level barrier the calling thread
//!   merges the buffers into `seen` serially (insert deduplicates across
//!   workers), so no atomics touch the bitset and the closure is the
//!   same at every worker count. Levels smaller than a threshold (and
//!   every level at `workers <= 1`) expand inline.
//! - [`tarjan`] is the iterative Tarjan, sequential at every worker
//!   count, over any [`Successors`]: a stored CSR through [`Csr`], or a
//!   source that builds each row when the DFS first reaches its state
//!   and drops it when the state's frame pops. The verdict pipeline's
//!   union graphs are dominated by singleton components, where one
//!   `O(V + E)` pass beats any forward-backward split (DESIGN.md §11).
//! - [`multi_member_sccs`] marks the SCCs with two or more members;
//!   the fair self-checks decide every other SCC from its one row.
//! - [`stitch_csr`] joins per-chunk rows of a sharded sweep.
//! - [`divergent_edge`] finds the first divergent edge inside a fully
//!   represented SCC: the witness of a weakly fair computation that
//!   never converges. It reads rows through [`Rows`], one reader per
//!   worker.

use std::convert::Infallible;
use std::ops::{Add, Range};

use crate::bitset::StateSet;
use crate::sweep::{available_workers, chunk_ranges, join_all};

/// Parallel engines engage only at or above this many states; below it
/// one worker wins on constant factors.
const PAR_MIN_STATES: usize = 1 << 17;

/// A BFS level is expanded in parallel only when its frontier has at
/// least this many states; smaller levels run inline on the caller.
const PAR_FRONTIER_MIN: usize = 1 << 13;

/// Worker count for the default (non-`_on`) entry points over a graph
/// or sweep of `states` states: the full crew when the space is large
/// enough to amortize thread startup and stitching, one otherwise.
pub(crate) fn default_workers(states: usize) -> usize {
    if states >= PAR_MIN_STATES {
        available_workers()
    } else {
        1
    }
}

/// Index width of a CSR graph's `(off, to)` arrays and of the SCC ids
/// computed over it. Callers guarantee every value fits.
pub(crate) trait Idx: Copy + Ord + Send + Sync + Add<Output = Self> {
    /// Sentinel for "not yet visited"; never a valid index.
    const UNSET: Self;
    /// Narrows a `usize` known to be in range.
    fn of(value: usize) -> Self;
    /// Widens to `usize`.
    fn at(self) -> usize;
}

impl Idx for u32 {
    const UNSET: u32 = u32::MAX;

    // The 32-bit graphs are built only after a guard that every state
    // id and edge count fits `u32`.
    #[allow(clippy::cast_possible_truncation)]
    #[inline]
    fn of(value: usize) -> u32 {
        value as u32
    }

    #[inline]
    fn at(self) -> usize {
        self as usize
    }
}

impl Idx for usize {
    const UNSET: usize = usize::MAX;

    #[inline]
    fn of(value: usize) -> usize {
        value
    }

    #[inline]
    fn at(self) -> usize {
        self
    }
}

/// The successors of `v` (ascending, duplicate-free).
#[inline]
fn row<'a, I: Idx>(off: &[I], to: &'a [I], v: usize) -> &'a [I] {
    &to[off[v].at()..off[v + 1].at()]
}

/// States reachable from `seeds` (seeds included). The set is the same
/// for every worker count; `workers <= 1` expands every level inline.
pub(crate) fn reach<I: Idx>(
    off: &[I],
    to: &[I],
    workers: usize,
    seeds: impl IntoIterator<Item = usize>,
) -> StateSet {
    reach_impl(off, to, workers, seeds, PAR_FRONTIER_MIN)
}

fn reach_impl<I: Idx>(
    off: &[I],
    to: &[I],
    workers: usize,
    seeds: impl IntoIterator<Item = usize>,
    frontier_min: usize,
) -> StateSet {
    let mut seen = StateSet::with_capacity(off.len() - 1);
    let mut frontier: Vec<usize> = Vec::new();
    for seed in seeds {
        if seen.insert(seed) {
            frontier.push(seed);
        }
    }
    let mut next: Vec<usize> = Vec::new();
    while !frontier.is_empty() {
        if workers <= 1 || frontier.len() < frontier_min {
            for &state in &frontier {
                for &t in row(off, to, state) {
                    if seen.insert(t.at()) {
                        next.push(t.at());
                    }
                }
            }
        } else {
            // Fan the level out: workers read `seen` immutably and emit
            // candidates; the barrier merge below is the only writer, so
            // the bitset needs no atomics. Candidates may repeat across
            // workers — `insert` deduplicates.
            let seen_ref = &seen;
            let tasks: Vec<_> = chunk_ranges(frontier.len(), workers, 1)
                .into_iter()
                .map(|range| {
                    let chunk = &frontier[range];
                    move || {
                        let mut found: Vec<usize> = Vec::new();
                        for &state in chunk {
                            for &t in row(off, to, state) {
                                if !seen_ref.contains(t.at()) {
                                    found.push(t.at());
                                }
                            }
                        }
                        found
                    }
                })
                .collect();
            for found in join_all(tasks) {
                for t in found {
                    if seen.insert(t) {
                        next.push(t);
                    }
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    seen
}

/// A graph as [`tarjan`] reads it: one row of successors at a time.
///
/// The DFS opens a state's row once, when it first reaches the state,
/// reads the row of the state on top of its path by position, and
/// closes the row when that state's frame pops. Rows close in the
/// reverse of the order they opened, so a source that builds each row
/// on the fly can keep the open rows in one stack-shaped arena.
pub(crate) trait Successors<I: Idx> {
    /// What opening a row can fail with.
    type Error;
    /// Number of states.
    fn num_states(&self) -> usize;
    /// Opens the row of `v` and returns the position of its first
    /// successor.
    fn open(&mut self, v: usize) -> Result<I, Self::Error>;
    /// One past the position of the last successor of `v`, which is on
    /// top of the DFS path (its row is the last one open).
    fn end(&self, v: usize) -> I;
    /// The successor at `pos`.
    fn target(&self, pos: I) -> usize;
    /// Closes the last row open, that of the state whose frame popped.
    fn close(&mut self);
}

/// A stored CSR graph `(off, to)`: the [`Successors`] of
/// [`FiniteSystem`](crate::FiniteSystem) and the quotient check, and
/// the [`Rows`] of the quotient check's divergent scan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Csr<'a, I> {
    pub(crate) off: &'a [I],
    pub(crate) to: &'a [I],
}

impl<I: Idx> Csr<'_, I> {
    /// The SCC ids of every state and the number of SCCs, by [`tarjan`].
    pub(crate) fn sccs(mut self) -> (Vec<I>, usize) {
        let Ok(sccs) = tarjan(&mut self);
        sccs
    }
}

impl<I: Idx> Successors<I> for Csr<'_, I> {
    type Error = Infallible;

    #[inline]
    fn num_states(&self) -> usize {
        self.off.len() - 1
    }

    #[inline]
    fn open(&mut self, v: usize) -> Result<I, Infallible> {
        Ok(self.off[v])
    }

    #[inline]
    fn end(&self, v: usize) -> I {
        self.off[v + 1]
    }

    #[inline]
    fn target(&self, pos: I) -> usize {
        self.to[pos.at()].at()
    }

    #[inline]
    fn close(&mut self) {}
}

/// Iterative Tarjan (no recursion, no per-state allocation): the SCC id
/// of every state and the number of SCCs, or the first error opening a
/// row. Ids are assigned in completion order, i.e. reverse topological
/// order of the condensation (sinks get lower ids than their
/// predecessors). Roots are tried in state order.
pub(crate) fn tarjan<I: Idx, G: Successors<I>>(graph: &mut G) -> Result<(Vec<I>, usize), G::Error> {
    let num_states = graph.num_states();
    let mut index = vec![I::UNSET; num_states];
    let mut on_stack = StateSet::with_capacity(num_states);
    let mut scc_id = vec![I::UNSET; num_states];
    let mut stack: Vec<I> = Vec::new();
    // Explicit call stack of (state, next successor position, low link).
    // A state's low link is read and written only while its frame is on
    // the call stack, so it lives there rather than in a `V`-sized array.
    let mut call: Vec<(I, I, I)> = Vec::new();
    let mut next_index = 0usize;
    let mut next_scc = 0usize;

    for root in 0..num_states {
        if index[root] != I::UNSET {
            continue;
        }
        index[root] = I::of(next_index);
        next_index += 1;
        stack.push(I::of(root));
        on_stack.insert(root);
        call.push((I::of(root), graph.open(root)?, index[root]));
        while let Some(&mut (state, ref mut pos, ref mut low)) = call.last_mut() {
            let state = state.at();
            if *pos < graph.end(state) {
                let next = graph.target(*pos);
                *pos = I::of(pos.at() + 1);
                if index[next] == I::UNSET {
                    index[next] = I::of(next_index);
                    next_index += 1;
                    stack.push(I::of(next));
                    on_stack.insert(next);
                    call.push((I::of(next), graph.open(next)?, index[next]));
                } else if on_stack.contains(next) {
                    *low = (*low).min(index[next]);
                }
            } else {
                let low = *low;
                call.pop();
                graph.close();
                if let Some((_, _, parent_low)) = call.last_mut() {
                    *parent_low = (*parent_low).min(low);
                }
                if low == index[state] {
                    while let Some(member) = stack.pop() {
                        on_stack.remove(member.at());
                        scc_id[member.at()] = I::of(next_scc);
                        if member.at() == state {
                            break;
                        }
                    }
                    next_scc += 1;
                }
            }
        }
    }
    Ok((scc_id, next_scc))
}

/// The ids of the SCCs with two or more members: one pass over
/// `scc_id` with a "seen once" and a "seen twice" bitset of
/// `scc_count` bits each.
pub(crate) fn multi_member_sccs<I: Idx>(scc_id: &[I], scc_count: usize) -> StateSet {
    let mut once = StateSet::with_capacity(scc_count);
    let mut twice = StateSet::with_capacity(scc_count);
    for &id in scc_id {
        if !once.insert(id.at()) {
            twice.insert(id.at());
        }
    }
    twice
}

/// Stitches per-chunk CSR rows (offsets relative to the chunk,
/// `off[0] == 0`; absolute targets) into one global CSR by prefix-sum
/// offsets. `chunks` are the contiguous ranges the parts cover, in
/// order; a single chunk's arrays move through unchanged. Several
/// chunks are stitched in parallel, one worker per chunk: each writes
/// its rebased offsets and copies its targets into its own slices of
/// the output, split with `split_at_mut`.
pub(crate) fn stitch_csr<I: Idx>(
    total: usize,
    chunks: &[Range<usize>],
    parts: Vec<(Vec<I>, Vec<I>)>,
) -> (Vec<I>, Vec<I>) {
    debug_assert_eq!(chunks.len(), parts.len());
    if parts.len() == 1 {
        return parts.into_iter().next().expect("one part");
    }
    let num_edges: usize = parts.iter().map(|(_, to)| to.len()).sum();
    let mut off = vec![I::of(0); total + 1];
    let mut to = vec![I::of(0); num_edges];
    let mut off_rest = &mut off[1..];
    let mut to_rest = &mut to[..];
    let mut base = 0;
    let mut tasks = Vec::with_capacity(parts.len());
    for (range, (part_off, part_to)) in chunks.iter().zip(parts) {
        debug_assert_eq!(part_off.len(), range.len() + 1);
        let (chunk_off, off_tail) = std::mem::take(&mut off_rest).split_at_mut(range.len());
        let (chunk_to, to_tail) = std::mem::take(&mut to_rest).split_at_mut(part_to.len());
        off_rest = off_tail;
        to_rest = to_tail;
        let chunk_base = I::of(base);
        base += part_to.len();
        tasks.push(move || {
            for (slot, &local) in chunk_off.iter_mut().zip(&part_off[1..]) {
                *slot = chunk_base + local;
            }
            chunk_to.copy_from_slice(&part_to);
        });
    }
    join_all(tasks);
    (off, to)
}

/// Random access to a graph's rows, one reader per worker of
/// [`divergent_edge`].
pub(crate) trait Rows<I: Idx> {
    /// What reading a row can fail with.
    type Error;
    /// The successors of `v`, ascending.
    fn row(&mut self, v: usize) -> Result<&[I], Self::Error>;
}

impl<I: Idx> Rows<I> for Csr<'_, I> {
    type Error = Infallible;

    #[inline]
    fn row(&mut self, v: usize) -> Result<&[I], Infallible> {
        Ok(row(self.off, self.to, v))
    }
}

/// The first edge `(s, t)` in state order that lies inside an SCC
/// marked in `full` (`scc_id[s] == scc_id[t]`) and is divergent (`s` or
/// `t` lies outside `legitimate`). Such an edge hosts a weakly fair
/// computation that never converges when `full` holds the SCCs in which
/// every command can act. Only the states of marked SCCs read their
/// rows, each worker through its own `reader()`. Chunks scan disjoint
/// state ranges; the first hit (or error) in chunk order is the first in
/// state order, so the witness is the same at every worker count.
pub(crate) fn divergent_edge<I: Idx, R: Rows<I>>(
    scc_id: &[I],
    full: &StateSet,
    legitimate: &StateSet,
    workers: usize,
    reader: impl Fn() -> R + Sync,
) -> Result<Option<(usize, usize)>, R::Error>
where
    R::Error: Send,
{
    let reader = &reader;
    let tasks: Vec<_> = chunk_ranges(scc_id.len(), workers, 1)
        .into_iter()
        .map(|range| {
            move || {
                let mut rows = reader();
                for state in range {
                    let id = scc_id[state];
                    if !full.contains(id.at()) {
                        continue;
                    }
                    let hit = rows.row(state)?.iter().find(|&&next| {
                        scc_id[next.at()] == id
                            && !(legitimate.contains(state) && legitimate.contains(next.at()))
                    });
                    if let Some(&next) = hit {
                        return Ok(Some((state, next.at())));
                    }
                }
                Ok(None)
            }
        })
        .collect();
    join_all(tasks)
        .into_iter()
        .find_map(Result::transpose)
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FiniteSystem;

    /// Deterministic xorshift64*; no external RNG dependency and no
    /// wall-clock seeding, so every run sees the same graphs.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        // Test graphs are a few hundred states; the cast is in range.
        #[allow(clippy::cast_possible_truncation)]
        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }
    }

    fn random_system(seed: u64, n: usize, edges: usize) -> FiniteSystem {
        let mut rng = XorShift(seed | 1);
        let mut builder = FiniteSystem::builder(n).initial(0);
        for _ in 0..edges {
            builder = builder.edge(rng.below(n), rng.below(n));
        }
        builder.stutter_quiescent().build().unwrap()
    }

    /// The system's CSR rows narrowed to 32 bits.
    fn narrow_csr(sys: &FiniteSystem) -> (Vec<u32>, Vec<u32>) {
        let mut off = vec![0u32];
        let mut to = Vec::new();
        for state in 0..sys.num_states() {
            to.extend(sys.successors_slice(state).iter().map(|&t| u32::of(t)));
            off.push(u32::of(to.len()));
        }
        (off, to)
    }

    #[test]
    fn parallel_reach_matches_inline_closure() {
        for seed in 0..20u64 {
            let sys = random_system(seed.wrapping_mul(977), 200, 350);
            let (off, to) = narrow_csr(&sys);
            let seeds = [0usize, 7, 13];
            let inline = sys.reachable_from_on(1, seeds);
            // frontier_min = 1 forces the fan-out path on every level.
            assert_eq!(reach_impl(&off, &to, 4, seeds, 1), inline, "seed {seed}");
            assert_eq!(reach_impl(&off, &to, 1, seeds, 1), inline, "seed {seed}");
        }
    }

    #[test]
    fn tarjan_ids_do_not_depend_on_the_index_width() {
        for seed in 0..20u64 {
            let sys = random_system(seed.wrapping_mul(131), 200, 300);
            let (off, to) = narrow_csr(&sys);
            let (ids32, count32) = Csr { off: &off, to: &to }.sccs();
            assert_eq!(count32, sys.scc_count(), "seed {seed}");
            let widened: Vec<usize> = ids32.iter().map(|&id| id.at()).collect();
            assert_eq!(widened, sys.scc_ids(), "seed {seed}");
        }
    }

    #[test]
    fn stitched_chunks_equal_the_whole_csr() {
        let sys = random_system(5, 300, 500);
        let (off, to) = narrow_csr(&sys);
        for workers in 1..=4 {
            let chunks = chunk_ranges(sys.num_states(), workers, 64);
            let parts = chunks
                .iter()
                .map(|range| {
                    let base = off[range.start];
                    let part_off = off[range.start..=range.end]
                        .iter()
                        .map(|&o| o - base)
                        .collect();
                    let part_to = to[base as usize..off[range.end] as usize].to_vec();
                    (part_off, part_to)
                })
                .collect();
            let stitched = stitch_csr(sys.num_states(), &chunks, parts);
            assert_eq!(stitched, (off.clone(), to.clone()), "workers {workers}");
        }
    }
}
