//! Shared parallel graph kernel: level-synchronized BFS.
//!
//! The kernel works over any CSR-shaped graph through the [`ParGraph`]
//! trait — [`FiniteSystem`]'s `usize` rows and the GCL streaming
//! pipeline's 32-bit union rows — and is std-only (`thread::scope` via
//! [`crate::sweep::join_all`], no rayon, no unsafe).
//!
//! The frontier of each BFS level is split into contiguous chunks, one
//! per worker. Workers read the shared `seen` bitset **immutably** and
//! emit candidate successors into private buffers; at the level barrier
//! the calling thread merges the buffers into `seen` serially (insert
//! deduplicates across workers), so no atomics touch the bitset and the
//! resulting closure is exactly the serial one. Levels smaller than a
//! threshold expand inline — tiny levels are not worth a fan-out.
//!
//! SCC decomposition has no parallel engine: the iterative Tarjan
//! ([`crate::gcl::tarjan_u32`] and `FiniteSystem`'s own) runs at every
//! worker count. The verdict pipeline's union graphs are dominated by
//! singleton components, where one `O(V + E)` pass beats any
//! forward-backward split (DESIGN.md §11).

use crate::bitset::StateSet;
use crate::sweep::{chunk_ranges, join_all};
use crate::FiniteSystem;

/// Parallel engines engage only at or above this many states; below it
/// the serial algorithms win on constant factors, and the serial
/// fallback doubles as the ≤1-core path.
pub(crate) const PAR_MIN_STATES: usize = 1 << 17;

/// A BFS level is expanded in parallel only when its frontier has at
/// least this many states; smaller levels run inline on the caller.
const PAR_FRONTIER_MIN: usize = 1 << 13;

/// A CSR-shaped directed graph the parallel BFS can traverse.
pub(crate) trait ParGraph: Sync {
    /// Number of states (vertices) in the graph.
    fn num_states(&self) -> usize;
    /// Calls `f` once per successor of `v` (ascending, duplicates-free).
    fn succ_each(&self, v: usize, f: impl FnMut(usize));
}

/// [`ParGraph`] view of a [`FiniteSystem`]'s CSR rows.
pub(crate) struct SysGraph<'a>(pub &'a FiniteSystem);

impl ParGraph for SysGraph<'_> {
    fn num_states(&self) -> usize {
        self.0.num_states()
    }

    #[inline]
    fn succ_each(&self, v: usize, mut f: impl FnMut(usize)) {
        for &t in self.0.successors_slice(v) {
            f(t);
        }
    }
}

/// [`ParGraph`] view over 32-bit CSR arrays (the GCL streaming
/// pipeline's union graph).
pub(crate) struct U32Graph<'a> {
    pub(crate) off: &'a [u32],
    pub(crate) to: &'a [u32],
}

impl ParGraph for U32Graph<'_> {
    fn num_states(&self) -> usize {
        self.off.len() - 1
    }

    #[inline]
    fn succ_each(&self, v: usize, mut f: impl FnMut(usize)) {
        for &t in &self.to[self.off[v] as usize..self.off[v + 1] as usize] {
            f(t as usize);
        }
    }
}

/// States reachable from `seeds` (seeds included). Identical to the
/// serial closure for every worker count; `workers <= 1` runs fully
/// inline.
pub(crate) fn reach<G: ParGraph>(
    g: &G,
    workers: usize,
    seeds: impl IntoIterator<Item = usize>,
) -> StateSet {
    reach_impl(g, workers, seeds, PAR_FRONTIER_MIN)
}

fn reach_impl<G: ParGraph>(
    g: &G,
    workers: usize,
    seeds: impl IntoIterator<Item = usize>,
    frontier_min: usize,
) -> StateSet {
    let mut seen = StateSet::with_capacity(g.num_states());
    let mut frontier: Vec<usize> = Vec::new();
    for seed in seeds {
        if seen.insert(seed) {
            frontier.push(seed);
        }
    }
    let mut next: Vec<usize> = Vec::new();
    while !frontier.is_empty() {
        if workers <= 1 || frontier.len() < frontier_min {
            // Inline expansion of a small level.
            for &state in &frontier {
                g.succ_each(state, |t| {
                    if seen.insert(t) {
                        next.push(t);
                    }
                });
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
                            g.succ_each(state, |t| {
                                if !seen_ref.contains(t) {
                                    found.push(t);
                                }
                            });
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

    #[test]
    fn parallel_reach_matches_serial_closure() {
        for seed in 0..20u64 {
            let sys = random_system(seed.wrapping_mul(977), 200, 350);
            let g = SysGraph(&sys);
            let seeds = [0usize, 7, 13];
            let serial = sys.reachable_from_on(1, seeds);
            // frontier_min = 1 forces the fan-out path on every level.
            let par = reach_impl(&g, 4, seeds, 1);
            assert_eq!(par, serial, "seed {seed}");
        }
    }
}
