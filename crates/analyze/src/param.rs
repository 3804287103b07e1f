//! Parametric-n discharge: reduce an n-process convergence obligation to
//! the pair cone, one representative pair, and table-level order checks.
//!
//! A stair certificate checked by [`crate::stair`] lives on the pair
//! cone. For it to say anything about the n-process model, four side
//! conditions must hold, and this module checks each one statically:
//!
//! 1. **Pair transitivity** ([`check_pair_transitivity`]) — the PR 8
//!    `nproc_symmetry` group maps the representative pair `(0, 1)` onto
//!    every ordered pair, carrying modes, channels, and beliefs
//!    coherently. A pure group-table computation: no states, no cones.
//! 2. **Projection reduction** ([`check_projection_reduction`]) — every
//!    command of the n-process program either fixes the representative
//!    pair's projection or induces exactly the corresponding pair-level
//!    transition, and pair-local commands are enabled exactly when
//!    their pair guard is (so designated-command obligations transfer).
//!    Checked by enumerating each command's *support cone* — the domain
//!    product of the variables that command and the projection actually
//!    touch — never the global state space.
//! 3. **Order preservation** ([`check_order_preservation`]) — the
//!    ground-truth order updates (`request_i` moving `i` to the back)
//!    preserve every third-party precedence bit and put the mover last.
//!    Extracted *from the shipped IR syntax* (the `move_back` table in
//!    `request_i`'s `ord` assignment, the `earlier` tables in the
//!    `observe` guards) and checked per table entry — `n!` entries, so
//!    this is parametric in reach (n = 8 is 40 320 rows). This is what
//!    grounds the blocking-chain deferral: the front-most hungry
//!    process stays front-most until it eats.
//! 4. **Counting-case discharge** ([`check_counting_case`]) — the one
//!    stair deferral inside region A is the both-believe standoff,
//!    escaped by `enter_i`, whose guard is *not* pair-local (it counts
//!    all n−1 beliefs). The case predicate `m_i = H ∧ #{l : k_il} =
//!    n−1` must imply `enter_i`'s full guard, and must be stable under
//!    every other command — weakest-precondition obligations discharged
//!    by [`crate::wp`].
//!
//! Together with the pair-cone certificate this yields the paper's
//! shape of argument at every n ≥ 2: symmetry collapses all pairs to
//! the representative (1), locality collapses the representative to the
//! cone (2), and the two extra-cone escapes are grounded by (3) and
//! (4). The honest caveat — the reductions are verified against the
//! concrete tables and IR at the n the caller passes (CI uses n = 3,
//! the smallest n with third parties); for larger n they follow from
//! the model builder emitting the same command shapes uniformly, which
//! is an assumption *about the builder*, not something this module can
//! inspect. DESIGN.md §14 spells this out.

use graybox_core::gcl::ir::{Cond, Expr};
use graybox_core::gcl::Program;
use graybox_core::tme_abstract::nproc_symmetry;

use crate::stair::{decode, encode, ObligationFailure, PairDynamics, PROJ_ARITY};
use crate::wp::{implication, wp_command, Decision, Pred, CONE_CAP};

/// Variable-index helpers for the n-process layout (`m₀…, c_ij…,
/// k_ij…, ord` in declaration order).
#[derive(Debug, Clone, Copy)]
struct NprocIndex {
    n: usize,
}

impl NprocIndex {
    fn local(self, i: usize, j: usize) -> usize {
        if j < i {
            j
        } else {
            j - 1
        }
    }
    fn m(self, i: usize) -> usize {
        i
    }
    fn c(self, i: usize, j: usize) -> usize {
        self.n + i * (self.n - 1) + self.local(i, j)
    }
    fn k(self, i: usize, j: usize) -> usize {
        self.n + self.n * (self.n - 1) + i * (self.n - 1) + self.local(i, j)
    }
    fn ord(self) -> usize {
        2 * self.n * (self.n - 1) + self.n
    }
}

/// Checks that the `nproc_symmetry` group carries the representative
/// pair `(0, 1)` onto every ordered pair `(i, j)`, mapping the pair's
/// modes, both channel directions, and both belief directions
/// coherently. Failures name the unreachable pair.
#[must_use]
pub fn check_pair_transitivity(n: usize) -> Vec<ObligationFailure> {
    let spec = nproc_symmetry(n, true);
    let ix = NprocIndex { n };
    let mut failures = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let witness = (0..spec.order()).find(|&g| {
                spec.variable_image(g, ix.m(0)) == ix.m(i)
                    && spec.variable_image(g, ix.m(1)) == ix.m(j)
                    && spec.variable_image(g, ix.c(0, 1)) == ix.c(i, j)
                    && spec.variable_image(g, ix.c(1, 0)) == ix.c(j, i)
                    && spec.variable_image(g, ix.k(0, 1)) == ix.k(i, j)
                    && spec.variable_image(g, ix.k(1, 0)) == ix.k(j, i)
            });
            if witness.is_none() {
                failures.push(ObligationFailure {
                    obligation: "pair-transitivity",
                    scope: format!("symmetry n={n}"),
                    node: None,
                    command: None,
                    detail: format!(
                        "no group element maps the representative pair (0, 1) onto ({i}, {j}) \
                         coherently"
                    ),
                });
            }
        }
    }
    failures
}

/// Classifies command `index` of the n-process program (wrapper
/// included) as a pair command of the representative pair `(0, 1)`,
/// following the builder's declaration order: per process `request`,
/// then per ascending peer `recv_request` / `observe` / `recv_reply` /
/// `wrapper`, then `enter`, `release`.
fn pair_command_index(n: usize, index: usize) -> Option<usize> {
    let per_pair = 4;
    let per_proc = 1 + (n - 1) * per_pair + 2;
    let process = index / per_proc;
    if process > 1 {
        return None;
    }
    let side = process * 7;
    let within = index % per_proc;
    if within == 0 {
        return Some(side); // request
    }
    if within == per_proc - 2 {
        return Some(side + 5); // enter
    }
    if within == per_proc - 1 {
        return Some(side + 6); // release
    }
    let peer_slot = (within - 1) / per_pair;
    let kind = (within - 1) % per_pair;
    // Peer in ascending order skipping self: slot s is peer s + (s >= process).
    let peer = peer_slot + usize::from(peer_slot >= process);
    let other = 1 - process;
    (peer == other).then_some(side + 1 + kind)
}

/// Walks a guard for a table lookup over `ord` and returns its column —
/// how the builder encodes one `earlier(i, j)` bit per permutation.
fn extract_ord_table(cond: &Cond, ord: usize, out: &mut Vec<Vec<usize>>) {
    match cond {
        Cond::Const(_) => {}
        Cond::Cmp(_, lhs, rhs) => {
            extract_ord_table_expr(lhs, ord, out);
            extract_ord_table_expr(rhs, ord, out);
        }
        Cond::Not(inner) => extract_ord_table(inner, ord, out),
        Cond::And(parts) | Cond::Or(parts) => {
            for p in parts {
                extract_ord_table(p, ord, out);
            }
        }
    }
}

fn extract_ord_table_expr(expr: &Expr, ord: usize, out: &mut Vec<Vec<usize>>) {
    match expr {
        Expr::Table { index, values } => {
            if matches!(**index, Expr::Var(v) if v.index() == ord) {
                out.push(values.to_vec());
            } else {
                extract_ord_table_expr(index, ord, out);
            }
        }
        Expr::Add(a, b) | Expr::Sub(a, b) => {
            extract_ord_table_expr(a, ord, out);
            extract_ord_table_expr(b, ord, out);
        }
        Expr::Mod(a, _) => extract_ord_table_expr(a, ord, out),
        Expr::Const(_) | Expr::Var(_) => {}
    }
}

/// The `earlier(0, 1)` bit per `ord` value, read off the representative
/// `observe_request0_1` guard of `program`.
fn earlier_table(program: &Program, n: usize) -> Result<Vec<usize>, String> {
    let ix = NprocIndex { n };
    let per_proc = 1 + (n - 1) * 4 + 2;
    debug_assert_eq!(per_proc, program.num_commands() / n);
    // observe_request0_1 is command 2 (request, recv_request0_1, observe).
    let observe = program.ir_command(2);
    if !observe.name.starts_with("observe_request0_1") {
        return Err(format!(
            "expected observe_request0_1 at command 2, found {}",
            observe.name
        ));
    }
    let mut tables = Vec::new();
    extract_ord_table(&observe.guard, ix.ord(), &mut tables);
    match tables.as_slice() {
        [t] => Ok(t.clone()),
        other => Err(format!(
            "expected exactly one ord table in the observe guard, found {}",
            other.len()
        )),
    }
}

/// Statistics of a projection-reduction run, reported so callers can
/// certify "no state enumeration happened".
#[derive(Debug, Clone, Copy, Default)]
pub struct ReductionStats {
    /// Commands checked.
    pub commands: usize,
    /// Largest support cone of any single command.
    pub max_cone: u128,
    /// Total support-cone points visited across all commands (commands
    /// that are not pair-local visit only the points their guard's
    /// single-variable conjuncts allow).
    pub total_points: u128,
}

/// Checks that every command of the n-process `program` reduces on the
/// representative pair `(0, 1)` to the pair-level `dynamics`:
///
/// * a command mapped to a pair command must induce exactly that pair
///   transition whenever it fires, and (for pair-local commands, i.e.
///   all but `enter`) must be enabled exactly when the pair guard is;
/// * every other command must leave the pair projection untouched —
///   which is precisely where a broken `move_back` (third-party order
///   flip) would surface.
///
/// Only each command's support cone is enumerated, by odometer. A
/// command that is not pair-local is checked only where it fires, so its
/// cone is pruned to the values its guard's top-level single-variable
/// conjuncts allow: those are necessary conditions, so every firing
/// point is still visited, in the same order. Returns the failures and
/// the cone statistics.
///
/// # Panics
///
/// Panics if `program` is not the n-process wrapped TME shape (missing
/// IR, wrong command count, or an oversized support cone).
#[must_use]
pub fn check_projection_reduction(
    n: usize,
    program: &Program,
    dynamics: &PairDynamics,
) -> (Vec<ObligationFailure>, ReductionStats) {
    projection_reduction(n, program, dynamics, true)
}

/// [`check_projection_reduction`], with the guard pruning of cones that
/// are not pair-local switched on or off (off visits every cone point).
pub(crate) fn projection_reduction(
    n: usize,
    program: &Program,
    dynamics: &PairDynamics,
    prune: bool,
) -> (Vec<ObligationFailure>, ReductionStats) {
    assert!(n >= 2, "need at least two processes");
    let ix = NprocIndex { n };
    let domains: Vec<usize> = program.variables().map(|(_, d)| d).collect();
    let earlier = earlier_table(program, n).expect("representative observe guard");
    let proj_vars = [
        ix.m(0),
        ix.m(1),
        ix.c(0, 1),
        ix.c(1, 0),
        ix.k(0, 1),
        ix.k(1, 0),
        ix.ord(),
    ];
    let project = |values: &[usize]| -> usize {
        let mut p = [0usize; PROJ_ARITY];
        for (slot, &var) in p.iter_mut().zip(&proj_vars).take(PROJ_ARITY - 1) {
            *slot = values[var];
        }
        p[PROJ_ARITY - 1] = earlier[values[ix.ord()]];
        encode(p)
    };

    let mut failures = Vec::new();
    let mut stats = ReductionStats::default();
    for c in 0..program.num_commands() {
        let cmd = program.ir_command(c);
        stats.commands += 1;
        let pair_cmd = pair_command_index(n, c);
        // enter's guard counts every peer belief, so only containment
        // (fires ⇒ pair transition) is required of it; all other pair
        // commands must be enabled exactly when their pair guard is.
        let pair_local = pair_cmd.is_some_and(|pc| pc != 5 && pc != 12);

        // Support: everything the command *reads*, plus the projection
        // variables. Write-only targets need no enumeration — their old
        // values influence neither the guard nor the new projection.
        let mut vars: Vec<usize> = proj_vars.to_vec();
        cmd.guard.visit_reads(&mut |v| vars.push(v.index()));
        for stmt in &cmd.body {
            stmt.visit_footprint(&mut |v| vars.push(v.index()), &mut |_| {});
        }
        vars.sort_unstable();
        vars.dedup();
        let points: u128 = vars.iter().map(|&v| domains[v] as u128).product();
        assert!(
            points <= CONE_CAP,
            "support cone of {} ({points} points) exceeds the cap",
            cmd.name
        );
        stats.max_cone = stats.max_cone.max(points);

        // The values each support variable takes; the first varies
        // fastest, as in the mixed-radix order of the cone.
        let mut values = vec![0usize; domains.len()];
        let mut choices: Vec<Vec<usize>> =
            vars.iter().map(|&v| (0..domains[v]).collect()).collect();
        if prune && !pair_local {
            let mut conjuncts = vec![&cmd.guard];
            while let Some(conjunct) = conjuncts.pop() {
                if let Cond::And(parts) = conjunct {
                    conjuncts.extend(parts);
                    continue;
                }
                let mut read = Vec::new();
                conjunct.visit_reads(&mut |v| read.push(v.index()));
                read.sort_unstable();
                read.dedup();
                let [v] = read[..] else { continue };
                let slot = vars.binary_search(&v).expect("guard reads are in the cone");
                choices[slot].retain(|&value| {
                    values[v] = value;
                    conjunct.eval_values(&values)
                });
            }
        }
        if choices.iter().any(Vec::is_empty) {
            continue;
        }
        for (&v, allowed) in vars.iter().zip(&choices) {
            values[v] = allowed[0];
        }
        let mut digits = vec![0usize; vars.len()];
        let mut after_values = values.clone();
        let mut reported_enable = false;
        let mut reported_effect = false;
        loop {
            stats.total_points += 1;
            let fires = cmd.guard_holds_values(&values);
            let check_enable = pair_local && !reported_enable;
            let check_effect = fires && !reported_effect;
            // Projected only when a check reads it.
            let before = if check_enable || check_effect {
                project(&values)
            } else {
                0
            };
            if check_enable {
                let pair_enabled = dynamics.next[before][pair_cmd.expect("pair_local")].is_some();
                if fires != pair_enabled {
                    reported_enable = true;
                    failures.push(ObligationFailure {
                        obligation: "guard-equivalence",
                        scope: format!("param n={n}"),
                        node: Some(before),
                        command: pair_cmd,
                        detail: format!(
                            "{} is {} at a state projecting to {:?} where the pair guard \
                             is {}",
                            cmd.name,
                            if fires { "enabled" } else { "disabled" },
                            decode(before),
                            if pair_enabled { "enabled" } else { "disabled" },
                        ),
                    });
                }
            }
            if check_effect {
                after_values.copy_from_slice(&values);
                cmd.apply_values(&mut after_values);
                let after = project(&after_values);
                let ok = match pair_cmd {
                    Some(pc) => {
                        dynamics.next[before][pc] == Some(u16::try_from(after).expect("cone"))
                    }
                    None => after == before,
                };
                if !ok {
                    reported_effect = true;
                    failures.push(ObligationFailure {
                        obligation: if pair_cmd.is_some() {
                            "transition-match"
                        } else {
                            "projection-invisibility"
                        },
                        scope: format!("param n={n}"),
                        node: Some(before),
                        command: pair_cmd,
                        detail: format!(
                            "{} carries projection {:?} to {:?}, which the pair dynamics \
                             do not allow",
                            cmd.name,
                            decode(before),
                            decode(after)
                        ),
                    });
                }
            }
            // Advance the odometer; done once every digit wraps.
            let mut slot = 0;
            while slot < vars.len() {
                digits[slot] += 1;
                if digits[slot] < choices[slot].len() {
                    break;
                }
                digits[slot] = 0;
                slot += 1;
            }
            if slot == vars.len() {
                break;
            }
            for (k, (&v, allowed)) in vars.iter().zip(&choices).enumerate().take(slot + 1) {
                values[v] = allowed[digits[k]];
            }
        }
    }
    (failures, stats)
}

/// Checks the ground-truth order tables read off the IR itself: for
/// every permutation `p` and mover `t`, `move_back_t` sends `t` behind
/// everyone (`earlier(t, j)` becomes false, `earlier(j, t)` true) and
/// preserves every third-party bit `earlier(i, j)`, `i, j ≠ t`. Table
/// work only — `n!` rows per mover, no cones, no states.
///
/// # Panics
///
/// Panics if `program` is not the n-process wrapped TME shape.
#[must_use]
pub fn check_order_preservation(n: usize, program: &Program) -> Vec<ObligationFailure> {
    use graybox_core::gcl::ir::Stmt;
    let ix = NprocIndex { n };
    let per_proc = 1 + (n - 1) * 4 + 2;
    // earlier(i, j) per ord value, from each observe_request{i}_{j} guard.
    let mut earlier = vec![vec![Vec::new(); n]; n];
    for (i, row) in earlier.iter_mut().enumerate() {
        for (slot, j) in (0..n).filter(|&j| j != i).enumerate() {
            let index = i * per_proc + 1 + 4 * slot + 1;
            let observe = program.ir_command(index);
            assert!(
                observe.name.starts_with("observe_request"),
                "expected an observe command at {index}, found {}",
                observe.name
            );
            let mut tables = Vec::new();
            extract_ord_table(&observe.guard, ix.ord(), &mut tables);
            assert_eq!(tables.len(), 1, "one earlier table per observe guard");
            row[j] = tables.pop().expect("len checked");
        }
    }
    // move_back_t, from each request{t}'s final ord assignment.
    let mut movers = Vec::new();
    for t in 0..n {
        let request = program.ir_command(t * per_proc);
        let table = request.body.iter().rev().find_map(|stmt| match stmt {
            Stmt::Assign(var, Expr::Table { index, values })
                if var.index() == ix.ord()
                    && matches!(**index, Expr::Var(v) if v.index() == ix.ord()) =>
            {
                Some(values.to_vec())
            }
            _ => None,
        });
        movers.push(table.expect("request must retabulate ord"));
    }

    let fact: usize = (2..=n).product();
    let mut failures = Vec::new();
    for (t, move_back) in movers.iter().enumerate() {
        for p in 0..fact {
            let q = move_back[p];
            for (i, row) in earlier.iter().enumerate() {
                for (j, table) in row.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let before = table[p];
                    let after = table[q];
                    let expected = if i == t {
                        0 // the mover yields precedence to everyone
                    } else if j == t {
                        1 // everyone else now precedes the mover
                    } else {
                        before // third parties keep their relative order
                    };
                    if after != expected {
                        failures.push(ObligationFailure {
                            obligation: "order-preservation",
                            scope: format!("param n={n}"),
                            node: None,
                            command: None,
                            detail: format!(
                                "request{t} at ord {p}: earlier({i}, {j}) is {after}, \
                                 expected {expected}"
                            ),
                        });
                    }
                }
            }
        }
    }
    failures
}

/// Discharges the enter-counting case — the one region-A deferral: the
/// case predicate `Cᵢ = (mᵢ = HUNGRY) ∧ #{l ≠ i : k_il = 1} = n−1`,
/// instantiated at the representative `i = 0`, must
///
/// * imply `enter0`'s full guard (so the escape command is enabled), and
/// * be preserved by every command other than `enter0` (so it stays
///   enabled until fired — commands that clear beliefs are guarded by
///   modes contradicting `Cᵢ`),
///
/// both as weakest-precondition implications over support cones.
///
/// # Panics
///
/// Panics if `program` is not the n-process wrapped TME shape or an
/// obligation's support cone exceeds the cap.
#[must_use]
pub fn check_counting_case(n: usize, program: &Program) -> Vec<ObligationFailure> {
    let ix = NprocIndex { n };
    let domains: Vec<usize> = program.variables().map(|(_, d)| d).collect();
    // Harvest `VarRef`s for the case predicate from the syntax trees
    // themselves (the IR is the only public source of them).
    let mut refs = std::collections::BTreeMap::new();
    for c in 0..program.num_commands() {
        let cmd = program.ir_command(c);
        cmd.guard.visit_reads(&mut |v| {
            refs.insert(v.index(), v);
        });
        for stmt in &cmd.body {
            let mut writes = Vec::new();
            stmt.visit_footprint(
                &mut |v| {
                    refs.insert(v.index(), v);
                },
                &mut |v| writes.push(v),
            );
            for v in writes {
                refs.insert(v.index(), v);
            }
        }
    }
    let vr = |index: usize| *refs.get(&index).expect("variable appears in the program");

    let hungry = Expr::var(vr(ix.m(0))).eq(Expr::int(1));
    let believes: Vec<Cond> = (1..n)
        .map(|l| Expr::var(vr(ix.k(0, l))).eq(Expr::int(1)))
        .collect();
    let case = Pred::atom(hungry).and(Pred::count(
        believes,
        graybox_core::gcl::ir::CmpOp::Eq,
        n - 1,
    ));

    let per_proc = 1 + (n - 1) * 4 + 2;
    let enter0 = per_proc - 2;
    let mut failures = Vec::new();

    // Escape enabled: C ⇒ guard(enter0).
    let enter_guard = Pred::atom(program.ir_command(enter0).guard.clone());
    match implication(&case, &enter_guard, &domains).expect("small cone") {
        Decision::Valid { .. } => {}
        Decision::CounterExample(witness) => failures.push(ObligationFailure {
            obligation: "counting-enter",
            scope: format!("param n={n}"),
            node: None,
            command: Some(5),
            detail: format!(
                "the counting case does not imply enter0's guard (witness valuation \
                 {witness:?})"
            ),
        }),
    }

    // Stability: C ∧ guard_c ⇒ wp(body_c, C) for every other command.
    for c in 0..program.num_commands() {
        if c == enter0 {
            continue;
        }
        let cmd = program.ir_command(c);
        let ante = case.clone().and(Pred::atom(cmd.guard.clone()));
        let post = wp_command(cmd, &case);
        match implication(&ante, &post, &domains).expect("small cone") {
            Decision::Valid { .. } => {}
            Decision::CounterExample(witness) => failures.push(ObligationFailure {
                obligation: "counting-stable",
                scope: format!("param n={n}"),
                node: None,
                command: None,
                detail: format!(
                    "{} can falsify the counting case before enter0 fires (witness \
                     valuation {witness:?})",
                    cmd.name
                ),
            }),
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use graybox_core::tme_abstract::program_nproc_ir;

    #[test]
    fn pair_transitivity_holds_for_small_n() {
        for n in 2..=4 {
            let failures = check_pair_transitivity(n);
            assert!(failures.is_empty(), "n={n}: {failures:?}");
        }
    }

    #[test]
    fn pair_command_classification_matches_declaration_order() {
        // n=3, per_proc = 11: process 0 commands 0..11.
        assert_eq!(pair_command_index(3, 0), Some(0)); // request0
        assert_eq!(pair_command_index(3, 1), Some(1)); // recv_request0_1
        assert_eq!(pair_command_index(3, 2), Some(2)); // observe0_1
        assert_eq!(pair_command_index(3, 3), Some(3)); // recv_reply0_1
        assert_eq!(pair_command_index(3, 4), Some(4)); // wrapper0_1
        assert_eq!(pair_command_index(3, 5), None); // recv_request0_2
        assert_eq!(pair_command_index(3, 9), Some(5)); // enter0
        assert_eq!(pair_command_index(3, 10), Some(6)); // release0
        assert_eq!(pair_command_index(3, 11), Some(7)); // request1
        assert_eq!(pair_command_index(3, 12), Some(8)); // recv_request1_0
        assert_eq!(pair_command_index(3, 16), None); // recv_request1_2 etc.
        assert_eq!(pair_command_index(3, 22), None); // request2
    }

    #[test]
    fn order_tables_check_out_at_n3_and_n4() {
        for n in [3, 4] {
            let (program, _) = program_nproc_ir(n, true);
            let failures = check_order_preservation(n, &program);
            assert!(failures.is_empty(), "n={n}: {failures:?}");
        }
    }

    #[test]
    fn counting_case_discharges_at_n3() {
        let (program, _) = program_nproc_ir(3, true);
        let failures = check_counting_case(3, &program);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn projection_reduction_holds_at_n3() {
        let (pair, _) = program_nproc_ir(2, true);
        let dynamics = PairDynamics::from_pair_program(&pair).expect("pair shape");
        let (program, _) = program_nproc_ir(3, true);
        let (failures, stats) = check_projection_reduction(3, &program, &dynamics);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(stats.max_cone <= CONE_CAP);
        assert_eq!(stats.commands, 33);
    }
}
