//! The crate's one reachable-state explorer: level-synchronized BFS
//! over packed words with an optional symmetry quotient
//! ([`sym`](super::sym)). Without a symmetry it is
//! [`Program::compile_reachable`]; with one it is the quotient
//! exploration behind [`Program::compile_reachable_sym`] and
//! [`Program::sym_reach_words`].
//!
//! Every target is canonicalized first, then the level is sharded:
//! workers expand disjoint slices of the current level into sorted,
//! deduplicated rows, and the caller interns those rows in chunk order.
//! That reproduces the serial FIFO discovery order (dense ids, words
//! and edges) bit for bit at every worker count.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::par;
use crate::sweep::{chunk_ranges, join_all};
use crate::FiniteSystem;

use super::sym::SymmetrySpec;
use super::{
    narrow, GclError, Lowered, Program, ReachableProgram, State, CHUNK_ALIGN, REACH_LEVEL_MIN,
};

/// The outcome of a frontier-only quotient BFS
/// ([`Program::sym_reach_words`]).
#[derive(Debug, Clone)]
pub struct SymReach {
    /// Discovered canonical words, in BFS (FIFO interning) order.
    pub words: Vec<u64>,
    /// First word satisfying the target predicate, with its BFS level
    /// (`0` = a seed), or `None` when the search drained (or was
    /// capped) without a hit.
    pub hit: Option<(u64, usize)>,
}

/// What the BFS hands back: (canonical) words in intern order, the
/// edge list (empty unless requested), the seed count, and the
/// first target hit with its BFS level.
type ReducedBfs = (Vec<u64>, Vec<(usize, usize)>, usize, Option<(u64, usize)>);

/// The intern map: packed word to dense id.
type WordIds = HashMap<u64, usize, BuildHasherDefault<WordHasher>>;

/// Hashes an interned word with the splitmix64 finalizer. The keys are
/// packed words the program built itself, never outside input, so the
/// map needs no collision-resistant (and slower) keyed hash.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 ^= word;
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Where the exploration's seeds come from.
enum Seeds<'a, F> {
    /// Scan the full domain product for states satisfying the
    /// predicate (feasible only when the product is sweepable).
    Predicate(&'a F),
    /// Explicit packed words (for spaces too large to scan).
    Words(&'a [u64]),
}

// Manual impls: both variants hold references only, so the enum is Copy
// regardless of `F` (a derive would demand `F: Copy`).
impl<F> Clone for Seeds<'_, F> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<F> Copy for Seeds<'_, F> {}

impl Program {
    /// Compiles only the init-reachable fragment of the state space by
    /// interned frontier BFS over packed words: states are discovered
    /// from the initial predicate outward and renumbered densely in
    /// discovery order (initial states first), so init-anchored queries
    /// (invariants over legitimate behaviour, `reachable_from_init`)
    /// never pay for the full domain product.
    ///
    /// The full space is still *scanned once* (cheaply, no guard
    /// evaluation) to enumerate the states matching `init`; large
    /// spaces shard that scan, and the BFS expands large levels in
    /// parallel while merging rows in queue order — the dense
    /// numbering and edge list are bit-identical to the serial
    /// exploration's for every worker count.
    ///
    /// # Errors
    ///
    /// See [`GclError`].
    pub fn compile_reachable(
        &self,
        init: impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync,
    ) -> Result<ReachableProgram, GclError> {
        let lowered = self.lower()?;
        let workers = par::default_workers(narrow(lowered.layout.total));
        self.reachable_with(lowered, workers, None, &init)
    }

    /// [`compile_reachable`](Program::compile_reachable) with an explicit
    /// worker count (`workers <= 1` runs fully serial). Output is
    /// identical for every worker count.
    ///
    /// # Errors
    ///
    /// See [`GclError`].
    pub fn compile_reachable_on(
        &self,
        workers: usize,
        init: impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync,
    ) -> Result<ReachableProgram, GclError> {
        let lowered = self.lower()?;
        self.reachable_with(lowered, workers, None, &init)
    }

    /// [`compile_reachable`](Program::compile_reachable) on the symmetry
    /// quotient: BFS over canonical representatives only. Requires the
    /// contract of [`fair_self_check_sym`](Program::fair_self_check_sym)
    /// (valid symmetry, orbit-closed `init`); then the result is the
    /// canonical image of the full reachable fragment.
    ///
    /// # Errors
    ///
    /// See [`GclError`].
    pub fn compile_reachable_sym(
        &self,
        sym: &SymmetrySpec,
        init: impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync,
    ) -> Result<ReachableProgram, GclError> {
        let lowered = self.lower()?;
        let workers = par::default_workers(narrow(lowered.layout.total));
        self.reachable_with(lowered, workers, Some(sym), &init)
    }

    /// [`compile_reachable_sym`](Program::compile_reachable_sym) with an
    /// explicit worker count; output is identical at every count.
    ///
    /// # Errors
    ///
    /// See [`GclError`].
    pub fn compile_reachable_sym_on(
        &self,
        workers: usize,
        sym: &SymmetrySpec,
        init: impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync,
    ) -> Result<ReachableProgram, GclError> {
        let lowered = self.lower()?;
        self.reachable_with(lowered, workers, Some(sym), &init)
    }

    fn reachable_with(
        &self,
        lowered: Lowered,
        workers: usize,
        sym: Option<&SymmetrySpec>,
        init: &(impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync),
    ) -> Result<ReachableProgram, GclError> {
        let (words, edges, num_init, _) = self.reduced_bfs(
            &lowered,
            workers,
            sym,
            Seeds::Predicate(init),
            usize::MAX,
            None::<&fn(u64) -> bool>,
            true,
        )?;
        let system = FiniteSystem::builder(words.len())
            .initials(0..num_init)
            .edges(edges)
            .build()?;
        Ok(ReachableProgram {
            system,
            words,
            var_info: self.vars.clone(),
            layout: lowered.layout,
        })
    }

    /// Frontier-only BFS over the symmetry quotient from explicit seed
    /// words — the entry point for spaces **far too large to scan** (the
    /// n = 4 TME product): no edges are recorded, only the discovered
    /// canonical words, and the search stops early at the first word
    /// satisfying `target` (tested in deterministic interning order).
    /// Discovery beyond `cap` interned words reports
    /// [`GclError::TooManyStates`] (checked at level boundaries).
    ///
    /// Seeds are canonicalized before interning, so callers may pass raw
    /// words.
    ///
    /// # Errors
    ///
    /// See [`GclError`].
    ///
    /// # Panics
    ///
    /// Panics if a seed word lies outside the domain product.
    pub fn sym_reach_words(
        &self,
        sym: &SymmetrySpec,
        seeds: &[u64],
        cap: usize,
        target: Option<&(impl Fn(u64) -> bool + Sync)>,
    ) -> Result<SymReach, GclError> {
        let lowered = self.lower()?;
        let workers = par::default_workers(narrow(lowered.layout.total));
        self.sym_reach_words_with(&lowered, workers, sym, seeds, cap, target)
    }

    /// [`sym_reach_words`](Program::sym_reach_words) with an explicit
    /// worker count; output is identical at every count.
    ///
    /// # Errors
    ///
    /// See [`GclError`].
    pub fn sym_reach_words_on(
        &self,
        workers: usize,
        sym: &SymmetrySpec,
        seeds: &[u64],
        cap: usize,
        target: Option<&(impl Fn(u64) -> bool + Sync)>,
    ) -> Result<SymReach, GclError> {
        let lowered = self.lower()?;
        self.sym_reach_words_with(&lowered, workers, sym, seeds, cap, target)
    }

    fn sym_reach_words_with(
        &self,
        lowered: &Lowered,
        workers: usize,
        sym: &SymmetrySpec,
        seeds: &[u64],
        cap: usize,
        target: Option<&(impl Fn(u64) -> bool + Sync)>,
    ) -> Result<SymReach, GclError> {
        let (words, _, _, hit) = self.reduced_bfs(
            lowered,
            workers,
            Some(sym),
            Seeds::<for<'a, 'b> fn(&'a State<'b>) -> bool>::Words(seeds),
            cap,
            target,
            false,
        )?;
        Ok(SymReach { words, hit })
    }

    /// The one reachable BFS. Returns `(words, edges, num_init, hit)`.
    #[allow(clippy::too_many_arguments)]
    fn reduced_bfs(
        &self,
        lowered: &Lowered,
        workers: usize,
        sym: Option<&SymmetrySpec>,
        seeds: Seeds<'_, impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync>,
        cap: usize,
        target: Option<&(impl Fn(u64) -> bool + Sync)>,
        record_edges: bool,
    ) -> Result<ReducedBfs, GclError> {
        let layout = &lowered.layout;
        let total = narrow(layout.total);
        let workers = workers.max(1);
        if let Some(sym) = sym {
            assert_eq!(
                sym.num_vars(),
                self.vars.len(),
                "spec/program arity mismatch"
            );
            assert_eq!(
                sym.num_commands(),
                self.commands.len(),
                "spec/program arity mismatch"
            );
        }

        // Seed words, canonicalized, in deterministic order.
        let mut probe = State::new(layout);
        let raw_seeds: Vec<u64> = match seeds {
            Seeds::Words(words) => {
                let mut out = Vec::with_capacity(words.len());
                for &word in words {
                    assert!(word < layout.total, "seed outside the domain product");
                    out.push(match sym {
                        Some(sym) => {
                            probe.load(word);
                            sym.canon(layout, &probe.values, word).0
                        }
                        None => word,
                    });
                }
                out
            }
            Seeds::Predicate(init) => {
                let init_tasks: Vec<_> = chunk_ranges(total, workers, CHUNK_ALIGN)
                    .into_iter()
                    .map(|range| {
                        move || {
                            let mut found: Vec<u64> = Vec::new();
                            let mut view = State::new(layout);
                            view.load(range.start as u64);
                            for _ in range {
                                if init(&view) {
                                    found.push(match sym {
                                        Some(sym) => sym.canon(layout, &view.values, view.word).0,
                                        None => view.word,
                                    });
                                }
                                view.advance();
                            }
                            found
                        }
                    })
                    .collect();
                join_all(init_tasks).into_iter().flatten().collect()
            }
        };

        let mut words: Vec<u64> = Vec::new();
        let mut ids = WordIds::default();
        let mut hit: Option<(u64, usize)> = None;
        for &word in &raw_seeds {
            if let std::collections::hash_map::Entry::Vacant(slot) = ids.entry(word) {
                slot.insert(words.len());
                words.push(word);
                if hit.is_none() {
                    if let Some(target) = target {
                        if target(word) {
                            hit = Some((word, 0));
                        }
                    }
                }
            }
        }
        if words.is_empty() {
            return Err(GclError::NoInitialState);
        }
        let num_init = words.len();
        if hit.is_some() {
            return Ok((words, Vec::new(), num_init, hit));
        }

        // Level-synchronized BFS: each level is a contiguous slice of
        // the discovery queue. Workers expand disjoint sub-slices and
        // the rows are interned in queue order, which reproduces the
        // serial FIFO discovery order (hence dense ids, words, and
        // edges) bit for bit.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut row: Vec<u64> = Vec::with_capacity(lowered.commands.len().max(1));
        let mut view = State::new(layout);
        let mut level_start = 0usize;
        let mut level = 0usize;
        'bfs: while level_start < words.len() {
            let level_end = words.len();
            level += 1;
            if workers <= 1 || level_end - level_start < REACH_LEVEL_MIN {
                for cursor in level_start..level_end {
                    view.load(words[cursor]);
                    lowered
                        .reduced_row(sym, &mut view, &mut row)
                        .map_err(|c| self.out_of_domain(c))?;
                    if let Some(found) = intern_words(
                        &mut ids,
                        &mut words,
                        record_edges.then_some(&mut edges),
                        cursor,
                        &row,
                        target,
                    ) {
                        hit = Some((found, level));
                        break 'bfs;
                    }
                }
            } else {
                let level_words = &words[level_start..level_end];
                let tasks: Vec<_> = chunk_ranges(level_words.len(), workers, 1)
                    .into_iter()
                    .map(|chunk| {
                        let slice = &level_words[chunk];
                        move || {
                            let mut counts: Vec<usize> = Vec::with_capacity(slice.len());
                            let mut targets: Vec<u64> = Vec::new();
                            let mut row: Vec<u64> =
                                Vec::with_capacity(lowered.commands.len().max(1));
                            let mut view = State::new(layout);
                            for &word in slice {
                                view.load(word);
                                lowered
                                    .reduced_row(sym, &mut view, &mut row)
                                    .map_err(|c| self.out_of_domain(c))?;
                                counts.push(row.len());
                                targets.extend_from_slice(&row);
                            }
                            Ok::<_, GclError>((counts, targets))
                        }
                    })
                    .collect();
                let results = join_all(tasks);
                let mut cursor = level_start;
                for result in results {
                    // First error in chunk order = first error in queue
                    // order = the serial exploration's error.
                    let (counts, targets) = result?;
                    let mut at = 0usize;
                    for count in counts {
                        if hit.is_none() {
                            if let Some(found) = intern_words(
                                &mut ids,
                                &mut words,
                                record_edges.then_some(&mut edges),
                                cursor,
                                &targets[at..at + count],
                                target,
                            ) {
                                hit = Some((found, level));
                            }
                        }
                        at += count;
                        cursor += 1;
                    }
                }
                debug_assert_eq!(cursor, level_end);
                if hit.is_some() {
                    break 'bfs;
                }
            }
            if words.len() > cap {
                return Err(GclError::TooManyStates {
                    actual: words.len(),
                    max: cap,
                });
            }
            level_start = level_end;
        }
        Ok((words, edges, num_init, hit))
    }
}

impl Lowered {
    /// One successor row of the state in `view`: the (canonical, under a
    /// symmetry) target of every enabled command, sorted, deduplicated,
    /// with the quiescence stutter. Returns the index of the first
    /// enabled command whose effect left its domain, as `Err`.
    fn reduced_row(
        &self,
        sym: Option<&SymmetrySpec>,
        view: &mut State<'_>,
        row: &mut Vec<u64>,
    ) -> Result<(), usize> {
        row.clear();
        match sym {
            // Each target is canonicalized on the post-effect buffer,
            // before the view is put back — no re-decode.
            Some(sym) => self.enabled_targets_with(
                view,
                |values, word| sym.canon(&self.layout, values, word).0,
                |_, target| row.push(target),
            )?,
            None => self.enabled_targets(view, |_, target| row.push(target))?,
        };
        if row.is_empty() {
            row.push(view.word);
        }
        row.sort_unstable();
        row.dedup();
        Ok(())
    }
}

/// Interns one successor row: new words get the next dense id in
/// row order (the serial FIFO discovery order); returns the first target
/// hit, if any.
fn intern_words(
    ids: &mut WordIds,
    words: &mut Vec<u64>,
    mut edges: Option<&mut Vec<(usize, usize)>>,
    cursor: usize,
    row: &[u64],
    target: Option<&(impl Fn(u64) -> bool + Sync)>,
) -> Option<u64> {
    let mut hit = None;
    for &word in row {
        let next = *ids.entry(word).or_insert_with(|| {
            words.push(word);
            if hit.is_none() {
                if let Some(target) = target {
                    if target(word) {
                        hit = Some(word);
                    }
                }
            }
            words.len() - 1
        });
        if let Some(edges) = edges.as_deref_mut() {
            edges.push((cursor, next));
        }
        if hit.is_some() {
            break;
        }
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::super::ir::{Expr, IrCommand, Stmt};
    use super::super::sym::{SymmetryElement, SymmetrySpec};
    use super::*;

    /// Two independent mod-4 counters (IR) with swap symmetry.
    fn counters() -> (Program, SymmetrySpec) {
        let mut p = Program::new();
        let x = p.var("x", 4);
        let y = p.var("y", 4);
        p.command_ir(IrCommand::new(
            "bump_x",
            Expr::var(x).lt(Expr::int(3)),
            vec![Stmt::assign(x, Expr::var(x).add(Expr::int(1)))],
        ));
        p.command_ir(IrCommand::new(
            "bump_y",
            Expr::var(y).lt(Expr::int(3)),
            vec![Stmt::assign(y, Expr::var(y).add(Expr::int(1)))],
        ));
        let swap = SymmetryElement {
            var_perm: vec![1, 0],
            value_maps: vec![None, None],
            cmd_perm: vec![1, 0],
        };
        let spec = SymmetrySpec::new(&[SymmetryElement::identity(2, 2), swap]).unwrap();
        (p, spec)
    }

    fn init(s: &State<'_>) -> bool {
        s.get(super::super::VarRef(0)) == 0 && s.get(super::super::VarRef(1)) == 0
    }

    #[test]
    fn sym_reachable_is_the_canonical_image_of_the_full_fragment() {
        let (p, spec) = counters();
        spec.validate(&p).unwrap();
        let full = p.compile_reachable(init).unwrap();
        let reduced = p.compile_reachable_sym(&spec, init).unwrap();
        let mut canon_full: Vec<u64> = (0..full.system().num_states())
            .map(|id| p.canonicalize(&spec, narrow(full.word(id))).unwrap() as u64)
            .collect();
        canon_full.sort_unstable();
        canon_full.dedup();
        let mut canon_reduced: Vec<u64> = (0..reduced.system().num_states())
            .map(|id| reduced.word(id))
            .collect();
        canon_reduced.sort_unstable();
        assert_eq!(canon_full, canon_reduced);
        assert_eq!(reduced.system().num_states(), 10);
        assert_eq!(full.system().num_states(), 16);
    }

    #[test]
    fn sym_reach_words_finds_targets_at_their_bfs_level() {
        let (p, spec) = counters();
        let reach = p
            .sym_reach_words(&spec, &[0], usize::MAX, Some(&|w: u64| w == 15))
            .unwrap();
        // (3, 3) is six bumps away from (0, 0).
        assert_eq!(reach.hit, Some((15, 6)));
        let drained = p
            .sym_reach_words(&spec, &[0], usize::MAX, None::<&fn(u64) -> bool>)
            .unwrap();
        assert_eq!(drained.hit, None);
        assert_eq!(drained.words.len(), 10);
        let capped = p.sym_reach_words(&spec, &[0], 3, None::<&fn(u64) -> bool>);
        assert!(matches!(capped, Err(GclError::TooManyStates { .. })));
    }

    #[test]
    fn reduced_explorations_are_worker_invariant() {
        let (p, spec) = counters();
        let serial = p.compile_reachable_sym_on(1, &spec, init).unwrap();
        for workers in [2, 4] {
            let par = p.compile_reachable_sym_on(workers, &spec, init).unwrap();
            let serial_words: Vec<u64> = (0..serial.system().num_states())
                .map(|id| serial.word(id))
                .collect();
            let par_words: Vec<u64> = (0..par.system().num_states())
                .map(|id| par.word(id))
                .collect();
            assert_eq!(serial_words, par_words);
        }
    }
}
