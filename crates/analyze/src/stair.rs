//! Convergence-stair certificates over the pair-projection cone.
//!
//! The paper's convergence argument (§4, Lemma 7) is not an enumeration
//! but a *stair*: a chain of closed predicates `Σ = S₀ ⊇ S₁ ⊇ … ⊇ S_k =
//! legit`, each step descended by a variant function. This module checks
//! such stairs statically over the *pair cone* — the space of ordered
//! pair projections `(m_i, m_j, c_ij, c_ji, k_ij, k_ji, e_ij)` — instead
//! of the exponential global state space:
//!
//! * [`PairDynamics`] — the pair-level transition relation, **derived by
//!   running the model's own two-process IR program** over all
//!   [`NUM_PROJ`] projections via the valuation hooks
//!   (`IrCommand::guard_holds_values` / `apply_values`). Nothing here is
//!   hand-transcribed: a mutated wrapper yields different dynamics, and
//!   the same certificate then fails the same checks.
//! * [`StairCertificate`] — levels (bit-sets over the cone) plus
//!   [`RankedRegion`]s carrying a rank (variant value) and a
//!   *designated* helper command per node, the machine form of "rank
//!   strictly decreases on some always-eventually-enabled command and
//!   never increases elsewhere".
//! * [`check_stair`] — discharges every obligation and returns the
//!   failures with full provenance (obligation name, projection,
//!   command). An empty result is the proof.
//! * [`greatest_closed_subset`] and [`mine_region`] — mine a stair from
//!   the dynamics: a closed level as a fixpoint, and a region's ranks
//!   and designated commands from its SCC condensation. What they mine
//!   is untrusted input to [`check_stair`], like a hand-written
//!   certificate.
//!
//! # Obligations and soundness
//!
//! For each level `S`: **containment** (`S_{i+1} ⊆ S_i`) and **closure**
//! (every enabled command maps `S` into `S`). For each region `R` with
//! rank `w` (0 = outside, the clean exit):
//!
//! * **membership** — `R` covers exactly its declared node set (for the
//!   step `S_i → S_{i+1}`, the difference `S_i ∖ S_{i+1}`).
//! * **noinc** — no command increases `w` without leaving `R`.
//! * **coverage** — every node either carries a designated command or is
//!   explicitly *deferred* (escape argued outside the pair cone; the
//!   caller must separately justify every deferred node, e.g. via the
//!   counting/chain rules in [`crate::param`]).
//! * **enabled / progress** — the designated command is enabled at its
//!   node and strictly decreases `w` (or exits `R`).
//! * **stability** — along rank-preserving edges the designated command
//!   does not change, so on any execution tail trapped at constant rank
//!   the *same* command stays continuously enabled.
//! * **designation-scope** — designated commands avoid the region's
//!   banned list (commands whose guards are not pair-local, such as TME
//!   `enter`, may not carry progress obligations that must transfer to
//!   n > 2).
//!
//! Soundness, against weak fairness: suppose an execution stays in `R`
//! forever. Ranks never increase (noinc) and are finite, so the rank is
//! eventually constant; by stability the tail sees one designated
//! command `d`, enabled at every state of the tail (enabled +
//! membership). Weak fairness eventually fires `d`, which strictly
//! decreases the rank (progress) — contradiction. So every fair
//! execution leaves `R`, i.e. descends one stair step; closure of the
//! levels makes the descent permanent. Deferred nodes are exactly the
//! holes in this argument, and they are surfaced, never assumed.

use graybox_core::gcl::Program;
use graybox_core::{FiniteSystem, StateSet};

/// Arity of a pair projection: `(m_i, m_j, c_ij, c_ji, k_ij, k_ji,
/// e_ij)`.
pub const PROJ_ARITY: usize = 7;

/// Per-coordinate domain sizes of the pair projection.
pub const PROJ_DOMAINS: [usize; PROJ_ARITY] = [3, 3, 3, 3, 2, 2, 2];

/// Number of points in the pair cone (`3⁴·2³`).
pub const NUM_PROJ: usize = 648;

/// Number of pair-level commands (7 per side).
pub const NUM_PAIR_COMMANDS: usize = 14;

/// Encodes a projection tuple as an index into the cone.
#[must_use]
pub fn encode(p: [usize; PROJ_ARITY]) -> usize {
    p.iter()
        .zip(PROJ_DOMAINS)
        .fold(0, |acc, (&v, d)| acc * d + v)
}

/// Inverse of [`encode`].
#[must_use]
pub fn decode(mut code: usize) -> [usize; PROJ_ARITY] {
    let mut p = [0usize; PROJ_ARITY];
    for i in (0..PROJ_ARITY).rev() {
        p[i] = code % PROJ_DOMAINS[i];
        code /= PROJ_DOMAINS[i];
    }
    p
}

/// Encodes a two-process valuation (declaration order, `ord` last) as
/// its projection code: the coordinates verbatim, except that the
/// program stores `ord` (0 = i first) where the projection stores
/// `e_ij` = "i strictly earlier" = 1 − ord.
///
/// # Panics
///
/// Panics if `values` does not have [`PROJ_ARITY`] entries.
#[must_use]
pub(crate) fn valuation_code(values: &[usize]) -> usize {
    let mut p: [usize; PROJ_ARITY] = values.try_into().expect("a pair valuation");
    p[PROJ_ARITY - 1] = 1 - p[PROJ_ARITY - 1];
    encode(p)
}

/// The pair-level transition relation: `next[p][c]` is the projection
/// reached by firing pair command `c` at projection `p`, or `None` when
/// the guard is disabled there.
#[derive(Debug, Clone)]
pub struct PairDynamics {
    /// Command names, in pair-command order (diagnostic provenance).
    pub command_names: Vec<String>,
    /// The transition table.
    pub next: Vec<[Option<u16>; NUM_PAIR_COMMANDS]>,
}

impl PairDynamics {
    /// Derives the pair dynamics from a two-process IR program whose
    /// variables are, in declaration order, `m_i, m_j, c_ij, c_ji,
    /// k_ij, k_ji, ord` with domains `3,3,3,3,2,2,2` and whose commands
    /// are the [`NUM_PAIR_COMMANDS`] pair commands in declaration
    /// order. The two-process TME abstraction
    /// (`tme_abstract::program_nproc_ir(2, true)`) has exactly this
    /// shape: its state space *is* the pair cone (`e_ij = 1 − ord`).
    ///
    /// # Errors
    ///
    /// A description of the mismatch when the program does not have the
    /// pair shape or a command is not in IR form.
    pub fn from_pair_program(program: &Program) -> Result<PairDynamics, String> {
        let domains: Vec<usize> = program.variables().map(|(_, d)| d).collect();
        if domains != PROJ_DOMAINS {
            return Err(format!(
                "pair program must have variable domains {PROJ_DOMAINS:?}, got {domains:?}"
            ));
        }
        if program.num_commands() != NUM_PAIR_COMMANDS {
            return Err(format!(
                "pair program must have {NUM_PAIR_COMMANDS} commands, got {}",
                program.num_commands()
            ));
        }
        let commands: Vec<_> = (0..NUM_PAIR_COMMANDS)
            .map(|c| program.ir_command(c))
            .collect();
        let command_names = commands.iter().map(|c| c.name.clone()).collect();

        let mut next = vec![[None; NUM_PAIR_COMMANDS]; NUM_PROJ];
        for (code, row) in next.iter_mut().enumerate() {
            let p = decode(code);
            // `p` as a valuation, the inverse of [`valuation_code`].
            let mut values = p.to_vec();
            values[PROJ_ARITY - 1] = 1 - p[PROJ_ARITY - 1];
            for (c, cmd) in commands.iter().enumerate() {
                if cmd.guard_holds_values(&values) {
                    let mut after = values.clone();
                    cmd.apply_values(&mut after);
                    let q = valuation_code(&after);
                    row[c] = Some(u16::try_from(q).expect("cone fits u16"));
                }
            }
        }
        Ok(PairDynamics {
            command_names,
            next,
        })
    }

    /// Successor of projection `code` under pair command `cmd`, if
    /// enabled.
    #[must_use]
    pub fn step(&self, code: usize, cmd: usize) -> Option<usize> {
        self.next[code][cmd].map(usize::from)
    }
}

/// One level `Sᵢ` of a stair: a predicate over the pair cone.
#[derive(Debug, Clone)]
pub struct Level {
    /// Display name (e.g. `"S1"`).
    pub name: String,
    /// Membership bit per projection code.
    pub members: Vec<bool>,
}

/// A ranked region discharging one stair step (or one side argument):
/// the nodes that must be escaped, their variant values, and the helper
/// command designated to force progress at each node.
#[derive(Debug, Clone)]
pub struct RankedRegion {
    /// Display name (e.g. `"A"`).
    pub name: String,
    /// Expected node set (membership must match `weight > 0` exactly).
    pub expected_members: Vec<bool>,
    /// Variant value per node; `0` marks "outside the region" (the
    /// clean exit), so in-region ranks start at 1.
    pub weight: Vec<u8>,
    /// Designated helper command per node, if any.
    pub designated: Vec<Option<u8>>,
    /// Nodes whose escape is deferred to an argument outside the pair
    /// cone (each must be re-justified by the caller).
    pub deferred: Vec<bool>,
    /// Commands that may not be designated (guards not pair-local).
    pub banned: Vec<usize>,
}

/// One failed obligation, with enough provenance to name the exact
/// check, node, and command in a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObligationFailure {
    /// Obligation family (`closure`, `noinc`, `progress`, …).
    pub obligation: &'static str,
    /// The level or region the obligation belongs to.
    pub scope: String,
    /// Projection code the failure anchors to, if node-local.
    pub node: Option<usize>,
    /// Pair command involved, if any.
    pub command: Option<usize>,
    /// Human-readable description of the violation.
    pub detail: String,
}

impl ObligationFailure {
    fn new(
        obligation: &'static str,
        scope: &str,
        node: Option<usize>,
        command: Option<usize>,
        detail: String,
    ) -> ObligationFailure {
        ObligationFailure {
            obligation,
            scope: scope.to_string(),
            node,
            command,
            detail,
        }
    }
}

/// A full stair certificate: the chain of levels (smallest last;
/// `S₀ = Σ` is implicit) and the ranked regions discharging the steps.
#[derive(Debug, Clone)]
pub struct StairCertificate {
    /// Levels `S₁ ⊇ S₂ ⊇ … ⊇ S_k`, outermost first.
    pub levels: Vec<Level>,
    /// Ranked regions, one per stair step plus any auxiliary regions.
    pub regions: Vec<RankedRegion>,
}

/// Tallies from a certificate check: how many obligations were
/// discharged, and how many nodes lean on deferred (extra-cone)
/// arguments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StairStats {
    /// Total obligations checked (failures included).
    pub obligations: usize,
    /// Nodes covered by a designated command.
    pub designated_nodes: usize,
    /// Nodes escaping only via a deferred argument.
    pub deferred_nodes: usize,
}

/// Checks every obligation of `cert` against `dyn_`; returns the
/// failures (empty = certificate accepted) and the obligation tallies.
///
/// Runs in `O(NUM_PROJ · NUM_PAIR_COMMANDS · (levels + regions))` — the
/// cone is fixed at [`NUM_PROJ`] points, so the check never touches the
/// global state space of any n.
#[must_use]
pub fn check_stair(
    dynamics: &PairDynamics,
    cert: &StairCertificate,
) -> (Vec<ObligationFailure>, StairStats) {
    let mut failures = Vec::new();
    let mut stats = StairStats::default();
    let name_of = |c: usize| dynamics.command_names[c].as_str();

    // Containment: each level inside its predecessor.
    for pair in cert.levels.windows(2) {
        let (outer, inner) = (&pair[0], &pair[1]);
        for code in 0..NUM_PROJ {
            stats.obligations += 1;
            if inner.members[code] && !outer.members[code] {
                failures.push(ObligationFailure::new(
                    "containment",
                    &inner.name,
                    Some(code),
                    None,
                    format!(
                        "projection {:?} is in {} but not in the enclosing level {}",
                        decode(code),
                        inner.name,
                        outer.name
                    ),
                ));
            }
        }
    }

    // Closure: each level invariant under every pair command.
    for level in &cert.levels {
        for code in 0..NUM_PROJ {
            if !level.members[code] {
                continue;
            }
            for cmd in 0..NUM_PAIR_COMMANDS {
                stats.obligations += 1;
                if let Some(q) = dynamics.step(code, cmd) {
                    if !level.members[q] {
                        failures.push(ObligationFailure::new(
                            "closure",
                            &level.name,
                            Some(code),
                            Some(cmd),
                            format!(
                                "{} maps {:?} ∈ {} to {:?} ∉ {}",
                                name_of(cmd),
                                decode(code),
                                level.name,
                                decode(q),
                                level.name
                            ),
                        ));
                    }
                }
            }
        }
    }

    for region in &cert.regions {
        let scope = format!("region {}", region.name);
        let in_region = |code: usize| region.weight[code] > 0;

        for code in 0..NUM_PROJ {
            // Membership: weights cover exactly the declared node set.
            stats.obligations += 1;
            if in_region(code) != region.expected_members[code] {
                failures.push(ObligationFailure::new(
                    "membership",
                    &scope,
                    Some(code),
                    None,
                    format!(
                        "projection {:?} {} the region but its rank is {}",
                        decode(code),
                        if region.expected_members[code] {
                            "belongs to"
                        } else {
                            "is outside"
                        },
                        region.weight[code]
                    ),
                ));
            }
            if !in_region(code) {
                continue;
            }

            // noinc + stability along every enabled command.
            for cmd in 0..NUM_PAIR_COMMANDS {
                let Some(q) = dynamics.step(code, cmd) else {
                    continue;
                };
                if q == code || !in_region(q) {
                    continue;
                }
                stats.obligations += 1;
                if region.weight[q] > region.weight[code] {
                    failures.push(ObligationFailure::new(
                        "noinc",
                        &scope,
                        Some(code),
                        Some(cmd),
                        format!(
                            "{} raises the rank from {} to {} ({:?} → {:?})",
                            name_of(cmd),
                            region.weight[code],
                            region.weight[q],
                            decode(code),
                            decode(q)
                        ),
                    ));
                }
                stats.obligations += 1;
                if region.weight[q] == region.weight[code]
                    && (region.designated[q] != region.designated[code]
                        || region.deferred[q] != region.deferred[code])
                {
                    failures.push(ObligationFailure::new(
                        "stability",
                        &scope,
                        Some(code),
                        Some(cmd),
                        format!(
                            "rank-preserving edge {:?} → {:?} (via {}) changes the \
                             designated command",
                            decode(code),
                            decode(q),
                            name_of(cmd)
                        ),
                    ));
                }
            }

            // Coverage, then the per-designated-node obligations.
            match region.designated[code] {
                None => {
                    stats.obligations += 1;
                    if region.deferred[code] {
                        stats.deferred_nodes += 1;
                    } else {
                        failures.push(ObligationFailure::new(
                            "coverage",
                            &scope,
                            Some(code),
                            None,
                            format!(
                                "projection {:?} has rank {} but neither a designated \
                                 command nor a deferral",
                                decode(code),
                                region.weight[code]
                            ),
                        ));
                    }
                }
                Some(d) => {
                    stats.designated_nodes += 1;
                    let d = usize::from(d);
                    stats.obligations += 1;
                    if region.banned.contains(&d) {
                        failures.push(ObligationFailure::new(
                            "designation-scope",
                            &scope,
                            Some(code),
                            Some(d),
                            format!(
                                "designated command {} is banned in this region \
                                 (guard not pair-local)",
                                name_of(d)
                            ),
                        ));
                    }
                    stats.obligations += 1;
                    match dynamics.step(code, d) {
                        None => failures.push(ObligationFailure::new(
                            "enabled",
                            &scope,
                            Some(code),
                            Some(d),
                            format!(
                                "designated command {} is disabled at {:?}",
                                name_of(d),
                                decode(code)
                            ),
                        )),
                        Some(q) => {
                            stats.obligations += 1;
                            let descends = q != code
                                && (!in_region(q) || region.weight[q] < region.weight[code]);
                            if !descends {
                                failures.push(ObligationFailure::new(
                                    "progress",
                                    &scope,
                                    Some(code),
                                    Some(d),
                                    format!(
                                        "designated command {} does not decrease the rank \
                                         at {:?} (rank {} → {:?} rank {})",
                                        name_of(d),
                                        decode(code),
                                        region.weight[code],
                                        decode(q),
                                        region.weight[q]
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
    }

    (failures, stats)
}

/// The greatest subset of `candidates` closed under every command of
/// `dynamics`: nodes with an enabled command leading outside the set
/// are dropped until none is left.
#[must_use]
pub fn greatest_closed_subset(dynamics: &PairDynamics, candidates: &[bool]) -> Vec<bool> {
    let mut members = candidates.to_vec();
    let mut changed = true;
    while changed {
        changed = false;
        for code in 0..NUM_PROJ {
            if members[code]
                && dynamics.next[code]
                    .iter()
                    .flatten()
                    .any(|&q| !members[usize::from(q)])
            {
                members[code] = false;
                changed = true;
            }
        }
    }
    members
}

/// Mines a [`RankedRegion`] over `members` from `dynamics`.
///
/// The region's subgraph keeps every edge `p → q` with `q ≠ p` and `q`
/// in the region. Each of its SCCs gets rank 1 plus the largest rank
/// among its successor SCCs (1 for a sink), and every member shares
/// it. The SCC's designated command is the smallest-index command that
/// is not `banned`, is enabled at every member and leads every member
/// out of the SCC; with none, every member is deferred. Ranks then
/// never rise inside the region, strictly fall along a designated
/// command, and stay constant only inside one SCC, whose members share
/// their designation — so [`check_stair`] holds by construction except
/// for the deferred nodes, which the caller must justify.
///
/// # Panics
///
/// Panics if a rank exceeds `u8::MAX`.
#[must_use]
pub fn mine_region(
    dynamics: &PairDynamics,
    name: &str,
    members: Vec<bool>,
    banned: Vec<usize>,
) -> RankedRegion {
    let member = |code: usize| members[code];
    let successors = |code: usize| {
        dynamics.next[code]
            .iter()
            .flatten()
            .map(|&q| usize::from(q))
            .filter(move |&q| q != code && member(q))
    };
    // Every row must be non-empty: a node without an in-region
    // successor (or outside the region) gets a self-loop.
    let mut off = vec![0];
    let mut to = Vec::new();
    for code in 0..NUM_PROJ {
        let mut row: Vec<usize> = if member(code) {
            successors(code).collect()
        } else {
            Vec::new()
        };
        row.sort_unstable();
        row.dedup();
        if row.is_empty() {
            row.push(code);
        }
        to.extend(row);
        off.push(to.len());
    }
    let graph = FiniteSystem::try_from_csr(NUM_PROJ, StateSet::new(), off, to)
        .expect("the region subgraph is well-formed");
    let scc = graph.scc_ids();

    let mut sccs = vec![Vec::new(); graph.scc_count()];
    for code in (0..NUM_PROJ).filter(|&code| members[code]) {
        sccs[scc[code]].push(code);
    }
    let mut weight = vec![0u8; NUM_PROJ];
    let mut designated = vec![None; NUM_PROJ];
    let mut deferred = vec![false; NUM_PROJ];
    // Tarjan numbers the SCCs sinks first, so every successor SCC is
    // ranked before the SCCs that reach it.
    let mut rank = vec![0u8; sccs.len()];
    for (id, nodes) in sccs
        .iter()
        .enumerate()
        .filter(|(_, nodes)| !nodes.is_empty())
    {
        let below = nodes
            .iter()
            .flat_map(|&p| successors(p))
            .filter(|&q| scc[q] != id)
            .map(|q| rank[scc[q]])
            .max()
            .unwrap_or(0);
        rank[id] = below.checked_add(1).expect("rank fits u8");
        let exit = (0..NUM_PAIR_COMMANDS)
            .find(|c| {
                !banned.contains(c)
                    && nodes
                        .iter()
                        .all(|&p| dynamics.step(p, *c).is_some_and(|q| scc[q] != id))
            })
            .map(|c| u8::try_from(c).expect("pair command fits u8"));
        for &p in nodes {
            weight[p] = rank[id];
            designated[p] = exit;
            deferred[p] = exit.is_none();
        }
    }
    RankedRegion {
        name: name.to_string(),
        expected_members: members,
        weight,
        designated,
        deferred,
        banned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graybox_core::tme_abstract::program_nproc_ir;

    fn tme_dynamics() -> PairDynamics {
        let (program, _) = program_nproc_ir(2, true);
        PairDynamics::from_pair_program(&program).expect("pair shape")
    }

    #[test]
    fn encode_decode_roundtrip() {
        for code in 0..NUM_PROJ {
            assert_eq!(encode(decode(code)), code);
        }
    }

    #[test]
    fn dynamics_derive_from_the_two_process_model() {
        let d = tme_dynamics();
        assert_eq!(d.command_names.len(), NUM_PAIR_COMMANDS);
        assert_eq!(d.command_names[0], "request0");
        assert_eq!(d.command_names[7], "request1");
        // request0 at the all-thinking projection: m_i → HUNGRY,
        // c_ij → REQUEST, and the mover yields precedence (e_ij = 0).
        let thinking = encode([0, 0, 0, 0, 0, 0, 1]);
        let q = d.step(thinking, 0).expect("request enabled when thinking");
        assert_eq!(decode(q), [1, 0, 1, 0, 0, 0, 0]);
        // enter0 requires the confirmed belief.
        assert!(d.step(encode([1, 0, 0, 0, 0, 0, 1]), 5).is_none());
        assert!(d.step(encode([1, 0, 0, 0, 1, 0, 1]), 5).is_some());
    }

    #[test]
    fn trivial_certificate_on_a_closed_level_is_accepted() {
        let d = tme_dynamics();
        // The full cone is trivially closed; an empty region list gives
        // a (vacuous) stair with no steps.
        let cert = StairCertificate {
            levels: vec![Level {
                name: "S1".into(),
                members: vec![true; NUM_PROJ],
            }],
            regions: vec![],
        };
        let (failures, stats) = check_stair(&d, &cert);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(stats.obligations > 0);
    }

    #[test]
    fn closure_violation_is_reported_with_provenance() {
        let d = tme_dynamics();
        // "All thinking" alone is not closed — request0 leaves it.
        let mut members = vec![false; NUM_PROJ];
        members[encode([0, 0, 0, 0, 0, 0, 1])] = true;
        let cert = StairCertificate {
            levels: vec![Level {
                name: "S1".into(),
                members,
            }],
            regions: vec![],
        };
        let (failures, _) = check_stair(&d, &cert);
        assert!(failures
            .iter()
            .any(|f| f.obligation == "closure" && f.command == Some(0)));
    }
}
