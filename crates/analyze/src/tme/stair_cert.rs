//! The flagship certificate: the paper's level-2 convergence stair for
//! the wrapped TME abstraction, mined from the two-process model and
//! certified statically for every n ≥ 2.
//!
//! The stair is `Σ = S₀ ⊇ S₁ ⊇ S₂ = legit` over the pair cone.
//! [`tme_stair_certificate`] mines it from the two-process IR program
//! on every call:
//!
//! 1. `S₂` — the init-reachable set of the two-process program, as
//!    projection codes: the legitimate projections, the exact pairwise
//!    characterization of the wrapped model's legitimate set.
//! 2. `S₁` — the greatest subset of the *ord-erased hull* of `S₂` (every
//!    projection whose `e_ij = 0` or `e_ij = 1` variant lies in `S₂`)
//!    that is closed under the pair dynamics: "timestamp beliefs
//!    consistent, precedence possibly stale". This is the pair-level
//!    face of the paper's intermediate predicate (deadlocked requests
//!    resolved, timestamps consistent).
//! 3. Three regions discharge the descent: region A (`Σ ∖ S₁`), region
//!    B (`S₁ ∖ S₂`), and region C (the blocking-chain region
//!    `m_i = HUNGRY ∧ k_ij = 0`, the rank backing the parametric chain
//!    rule).
//! 4. A region's rank is the longest path in its SCC condensation, and
//! 5. each SCC's designated command is the smallest-index pair command
//!    other than `enter` that leads every member out of it
//!    ([`crate::stair::mine_region`]). `enter`'s guard counts all n−1
//!    beliefs, so it is not pair-local and may not be designated.
//!
//! An SCC with no such command is deferred beyond the pair cone and
//! must match one of the two escapes [`crate::param`] re-justifies:
//!
//! * the **both-believe standoff** in region A (`m_i = m_j = HUNGRY`,
//!   `k_ij = k_ji = 1`) — escaped by `enter`; discharged by the
//!   counting case ([`crate::param::check_counting_case`]);
//! * the **blocked-behind-an-earlier-hungry-process** node in region C
//!   (`m_j = HUNGRY`, `e_ij = 0`) — escaped by induction over the
//!   ground-truth order (the front-most hungry process has no such
//!   node), grounded by [`crate::param::check_order_preservation`].
//!
//! [`certify_tme`] re-derives the pair dynamics from the shipped IR,
//! re-checks every stair obligation, validates the deferral patterns,
//! and runs the parametric side conditions at n = 3 — all on support
//! cones and tables, never on a global state space. The mined
//! certificate is untrusted input to these checks, not a proof.

use graybox_core::gcl::ir::{Cond, IrCommand};
use graybox_core::gcl::{Program, State};
use graybox_core::tme_abstract::program_nproc_ir;

use crate::report::{Finding, Report, Severity};
use crate::stair::{
    check_stair, decode, greatest_closed_subset, mine_region, valuation_code, Level,
    ObligationFailure, PairDynamics, StairCertificate, NUM_PROJ,
};
use crate::{param, wp};

/// Which artifact to certify: the real model, or one of the two seeded
/// mutants the validation suite must reject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertifyTarget {
    /// The shipped wrapper and the shipped certificate.
    Flagship,
    /// The wrapper with the `c_ij ≠ REPLY` guard conjunct dropped — it
    /// re-requests over an in-flight reply, re-opening the livelock the
    /// conjunct exists to close.
    MutantDroppedGuard,
    /// The shipped wrapper against a perturbed (non-decreasing) ranking
    /// certificate.
    MutantBadRank,
}

impl CertifyTarget {
    /// The report target string for this artifact.
    pub fn target_name(self) -> &'static str {
        match self {
            CertifyTarget::Flagship => "tme-stair-n2plus",
            CertifyTarget::MutantDroppedGuard => "tme-stair-mutant-dropped-guard",
            CertifyTarget::MutantBadRank => "tme-stair-mutant-bad-rank",
        }
    }
}

/// Rebuilds `program` with every command passed through `transform`
/// (same variables, same declaration order).
fn rebuild(program: &Program, transform: impl Fn(&IrCommand) -> IrCommand) -> Program {
    let mut out = Program::new();
    let vars: Vec<(String, usize)> = program
        .variables()
        .map(|(name, domain)| (name.to_string(), domain))
        .collect();
    for (name, domain) in vars {
        out.var(name, domain);
    }
    for c in 0..program.num_commands() {
        out.command_ir(transform(program.ir_command(c)));
    }
    out
}

/// Drops the final conjunct (`c_ij ≠ REPLY`) from every wrapper guard.
fn drop_wrapper_conjunct(cmd: &IrCommand) -> IrCommand {
    let mut cmd = cmd.clone();
    if cmd.name.starts_with("wrapper") {
        if let Cond::And(parts) = &cmd.guard {
            cmd.guard = Cond::And(parts[..parts.len() - 1].to_vec());
        }
    }
    cmd
}

/// The n-process wrapped TME program and its initial predicate, with
/// the dropped-guard mutation applied when requested.
fn model(n: usize, mutated: bool) -> (Program, impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync) {
    let (program, init) = program_nproc_ir(n, true);
    if mutated {
        (rebuild(&program, drop_wrapper_conjunct), init)
    } else {
        (program, init)
    }
}

/// Mines the level-2 stair from a two-process program and its initial
/// predicate, returning the program's pair dynamics with it.
fn mine_tme_stair(
    program: &Program,
    init: impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync,
) -> (PairDynamics, StairCertificate) {
    let dynamics =
        PairDynamics::from_pair_program(program).expect("two-process model is pair-shaped");
    let reachable = program
        .compile_reachable(init)
        .expect("the two-process model compiles");
    let mut legit = vec![false; NUM_PROJ];
    for id in 0..reachable.system().num_states() {
        legit[valuation_code(&reachable.decode(id))] = true;
    }
    // `e_ij` is the last, binary coordinate, so flipping bit 0 of a
    // code flips it.
    let hull: Vec<bool> = (0..NUM_PROJ)
        .map(|code| legit[code] || legit[code ^ 1])
        .collect();
    let s1 = greatest_closed_subset(&dynamics, &hull);
    let chain = (0..NUM_PROJ)
        .map(|code| {
            let p = decode(code);
            p[0] == 1 && p[4] == 0
        })
        .collect();
    // enter0 and enter1, whose guards count every peer belief.
    let banned = || vec![5, 12];
    let regions = vec![
        mine_region(&dynamics, "A", s1.iter().map(|&b| !b).collect(), banned()),
        mine_region(
            &dynamics,
            "B",
            s1.iter().zip(&legit).map(|(&s, &l)| s && !l).collect(),
            banned(),
        ),
        mine_region(&dynamics, "C", chain, banned()),
    ];
    let cert = StairCertificate {
        levels: vec![
            Level {
                name: "S1".to_string(),
                members: s1,
            },
            Level {
                name: "S2(legit)".to_string(),
                members: legit,
            },
        ],
        regions,
    };
    (dynamics, cert)
}

/// The level-2 stair certificate of the shipped wrapper, mined from the
/// two-process model.
#[must_use]
pub fn tme_stair_certificate() -> StairCertificate {
    let (program, init) = model(2, false);
    mine_tme_stair(&program, init).1
}

/// Perturbs the certificate's region-A rank so it no longer strictly
/// decreases under a designated command — the "non-decreasing rank"
/// mutant the validation suite must see rejected by name.
fn perturb_rank(cert: &mut StairCertificate, dynamics: &PairDynamics) {
    let region = cert
        .regions
        .iter_mut()
        .find(|r| r.name == "A")
        .expect("region A exists");
    for code in 0..NUM_PROJ {
        if let Some(d) = region.designated[code] {
            if let Some(q) = dynamics.step(code, usize::from(d)) {
                if region.weight[q] > 0 && region.weight[q] < region.weight[code] {
                    // Flatten the designated descent into a plateau.
                    region.weight[code] = region.weight[q];
                    return;
                }
            }
        }
    }
    unreachable!("region A has designated in-region descents");
}

/// Checks the TME-specific deferral patterns: every node the stair
/// defers must match the case its extra-cone justification covers.
fn check_deferral_patterns(cert: &StairCertificate) -> Vec<ObligationFailure> {
    let mut failures = Vec::new();
    for region in &cert.regions {
        for code in 0..NUM_PROJ {
            if !region.deferred[code] {
                continue;
            }
            let p = decode(code);
            let (ok, case) = match region.name.as_str() {
                // Both-believe standoff, escaped by the counting case.
                "A" => (
                    p[0] == 1 && p[1] == 1 && p[4] == 1 && p[5] == 1,
                    "counting case (m_i = m_j = HUNGRY, k_ij = k_ji = 1)",
                ),
                // Blocked behind an earlier hungry process, escaped by
                // the chain induction over the ground-truth order.
                "C" => (
                    p[0] == 1 && p[4] == 0 && p[1] == 1 && p[6] == 0,
                    "chain case (m_i = HUNGRY, k_ij = 0, m_j = HUNGRY, e_ij = 0)",
                ),
                _ => (false, "no deferral case exists for this region"),
            };
            if !ok {
                failures.push(ObligationFailure {
                    obligation: "deferral-pattern",
                    scope: format!("region {}", region.name),
                    node: Some(code),
                    command: None,
                    detail: format!("deferred projection {p:?} does not match the {case}"),
                });
            }
        }
    }
    failures
}

/// Renders obligation failures into report findings.
fn push_findings(
    report: &mut Report,
    pass: &'static str,
    dynamics: &PairDynamics,
    failures: &[ObligationFailure],
) {
    for f in failures {
        report.findings.push(Finding {
            pass,
            severity: Severity::Error,
            command: f.command.map(|c| dynamics.command_names[c].clone()),
            vars: Vec::new(),
            message: match f.node {
                Some(code) => format!(
                    "obligation {} failed in {} at projection #{code} {:?}: {}",
                    f.obligation,
                    f.scope,
                    decode(code),
                    f.detail
                ),
                None => format!(
                    "obligation {} failed in {}: {}",
                    f.obligation, f.scope, f.detail
                ),
            },
        });
    }
}

/// The representative n the parametric side conditions are checked at —
/// the smallest n with third-party processes.
const PARAM_N: usize = 3;

/// Certifies the level-2 TME stair (or deliberately fails to, for the
/// mutant targets): derives the pair dynamics from the IR, checks every
/// stair obligation, validates the deferral patterns, and discharges
/// the parametric side conditions at n = 3, the smallest n with
/// third-party processes. No state space is enumerated anywhere on this
/// path — only the 648-point pair cone, per-command support cones, and
/// the `n!`-row order tables.
///
/// # Panics
///
/// Panics if the shipped model loses its expected shape (wrong variable
/// layout or command count) — a build error, not a certification
/// verdict.
#[must_use]
pub fn certify_tme(target: CertifyTarget) -> Report {
    let mutated = target == CertifyTarget::MutantDroppedGuard;
    // The certificate is always mined from the shipped wrapper: the
    // dropped-guard target asks whether it still holds for the mutant.
    let (shipped, init) = model(2, false);
    let (mut dynamics, mut cert) = mine_tme_stair(&shipped, init);
    if mutated {
        dynamics = PairDynamics::from_pair_program(&model(2, true).0)
            .expect("two-process model is pair-shaped");
    }
    if target == CertifyTarget::MutantBadRank {
        perturb_rank(&mut cert, &dynamics);
    }

    let mut report = Report {
        target: target.target_name().to_string(),
        ..Report::default()
    };

    // Stair obligations over the pair cone.
    let (stair_failures, stats) = check_stair(&dynamics, &cert);
    push_findings(&mut report, "stair", &dynamics, &stair_failures);
    if stair_failures.is_empty() {
        report.certified.push(format!(
            "stair: S0 ⊇ S1 ⊇ S2 closed and ranked over the {NUM_PROJ}-point pair cone \
             ({} obligations, {} designated nodes, {} deferred)",
            stats.obligations, stats.designated_nodes, stats.deferred_nodes
        ));
    }

    // Deferral patterns.
    let pattern_failures = check_deferral_patterns(&cert);
    push_findings(&mut report, "stair", &dynamics, &pattern_failures);
    if pattern_failures.is_empty() {
        report
            .certified
            .push("stair: every deferred node matches its counting/chain case".to_string());
    }

    // Parametric side conditions at the representative n.
    let (nproc, _) = model(PARAM_N, mutated);
    let transitivity = param::check_pair_transitivity(PARAM_N);
    push_findings(&mut report, "param", &dynamics, &transitivity);
    let (reduction, red_stats) = param::check_projection_reduction(PARAM_N, &nproc, &dynamics);
    push_findings(&mut report, "param", &dynamics, &reduction);
    let order = param::check_order_preservation(PARAM_N, &nproc);
    push_findings(&mut report, "param", &dynamics, &order);
    let counting = param::check_counting_case(PARAM_N, &nproc);
    push_findings(&mut report, "param", &dynamics, &counting);
    if transitivity.is_empty() && reduction.is_empty() && order.is_empty() && counting.is_empty() {
        report.certified.push(format!(
            "param: symmetry carries (0,1) to every pair; all {} commands reduce to the \
             pair dynamics (largest support cone {} of cap {}); order tables preserve \
             third parties; counting case discharged — certificate valid for all n ≥ 2",
            red_stats.commands,
            red_stats.max_cone,
            wp::CONE_CAP
        ));
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stair::encode;

    /// FNV-1a 64 over, per projection code: the S₂ bit, the S₁ bit, then
    /// for regions A, B, C the rank, the designated command (255 for
    /// none) and the deferred bit.
    fn digest(cert: &StairCertificate) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |byte: u8| {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for code in 0..NUM_PROJ {
            feed(u8::from(cert.levels[1].members[code]));
            feed(u8::from(cert.levels[0].members[code]));
            for region in &cert.regions {
                feed(region.weight[code]);
                feed(region.designated[code].unwrap_or(255));
                feed(u8::from(region.deferred[code]));
            }
        }
        hash
    }

    #[test]
    fn mined_certificate_matches_the_pinned_digest() {
        let cert = tme_stair_certificate();
        assert_eq!(digest(&cert), 0xace3_9f9c_45d1_ebca);
        let count = |bits: &[bool]| bits.iter().filter(|&&b| b).count();
        assert_eq!(count(&cert.levels[1].members), 60);
        assert_eq!(count(&cert.levels[0].members), 94);
        let designated: Vec<usize> = cert
            .regions
            .iter()
            .map(|r| r.designated.iter().flatten().count())
            .collect();
        assert_eq!(designated, [550, 34, 107]);
        let deferred: Vec<usize> = cert.regions.iter().map(|r| count(&r.deferred)).collect();
        assert_eq!(deferred, [4, 0, 1]);
        let max_rank: Vec<u8> = cert
            .regions
            .iter()
            .map(|r| r.weight.iter().copied().max().unwrap_or(0))
            .collect();
        assert_eq!(max_rank, [10, 9, 15]);
    }

    #[test]
    fn re_mining_does_not_rescue_the_dropped_guard_mutant() {
        // Mined on the mutant's own dynamics, the stair holds by
        // construction; the deferral patterns must reject it instead.
        let (program, init) = model(2, true);
        let (dynamics, cert) = mine_tme_stair(&program, init);
        let (failures, _) = check_stair(&dynamics, &cert);
        assert!(failures.is_empty(), "{failures:?}");
        let count = |bits: &[bool]| bits.iter().filter(|&&b| b).count();
        assert_eq!(count(&cert.levels[1].members), 60);
        assert_eq!(count(&cert.levels[0].members), 94);
        let region_c = &cert.regions[2];
        assert_eq!(count(&region_c.deferred), 9);
        assert!(region_c.deferred[encode([1, 1, 0, 1, 0, 0, 1])]);
        let patterns = check_deferral_patterns(&cert);
        assert!(
            patterns
                .iter()
                .any(|f| f.obligation == "deferral-pattern" && f.scope == "region C"),
            "expected a deferral-pattern failure in region C: {patterns:?}"
        );
    }

    #[test]
    fn flagship_certificate_is_accepted() {
        let report = certify_tme(CertifyTarget::Flagship);
        assert!(
            report.is_clean(),
            "flagship rejected: {:?}",
            report.findings
        );
        assert_eq!(report.certified.len(), 3);
    }

    #[test]
    fn dropped_guard_mutant_is_rejected_by_noinc() {
        let report = certify_tme(CertifyTarget::MutantDroppedGuard);
        assert!(!report.is_clean());
        // The weakened wrapper re-requests over an in-flight reply,
        // adding rank-raising edges: the noinc obligation must name it.
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("obligation noinc")
                    && f.command
                        .as_deref()
                        .is_some_and(|c| c.starts_with("wrapper"))),
            "expected a noinc failure naming the wrapper: {:?}",
            report.findings
        );
    }

    #[test]
    fn bad_rank_mutant_is_rejected_by_progress() {
        let report = certify_tme(CertifyTarget::MutantBadRank);
        assert!(!report.is_clean());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("obligation progress")),
            "expected a progress failure: {:?}",
            report.findings
        );
    }

    /// `program` with `request{mover}`'s `ord` retabulation replaced by
    /// `request0`'s: the mover then sends process 0 to the back, which
    /// flips the third-party bit `earlier(0, 1)` when `mover` is 2.
    fn broken_move_back(program: &Program, mover: usize) -> Program {
        use graybox_core::gcl::ir::{Expr, Stmt};
        let per_proc = program.num_commands() / PARAM_N;
        let ord_table = |cmd: &IrCommand| {
            cmd.body
                .iter()
                .rev()
                .find_map(|stmt| match stmt {
                    Stmt::Assign(_, Expr::Table { values, .. }) => Some(values.clone()),
                    _ => None,
                })
                .expect("request retabulates ord")
        };
        let front = ord_table(program.ir_command(0));
        let target = program.ir_command(mover * per_proc).name.clone();
        rebuild(program, |cmd| {
            let mut cmd = cmd.clone();
            if cmd.name == target {
                if let Some(Stmt::Assign(_, Expr::Table { values, .. })) = cmd.body.last_mut() {
                    *values = front.clone();
                }
            }
            cmd
        })
    }

    #[test]
    fn pruned_cones_report_the_failures_of_the_full_enumeration() {
        let flagship = PairDynamics::from_pair_program(&model(2, false).0).expect("pair shape");
        let dropped = PairDynamics::from_pair_program(&model(2, true).0).expect("pair shape");
        let (shipped, _) = model(PARAM_N, false);
        // The inputs `certify_tme` hands the check for each target; the
        // bad-rank mutant perturbs only the certificate, so it checks the
        // flagship's program against the flagship's dynamics.
        let cases = [
            ("flagship and bad-rank mutant", shipped.clone(), &flagship),
            ("dropped-guard mutant", model(PARAM_N, true).0, &dropped),
            ("broken move_back", broken_move_back(&shipped, 2), &flagship),
        ];
        for (name, program, dynamics) in cases {
            let (pruned, pruned_stats) =
                param::projection_reduction(PARAM_N, &program, dynamics, true);
            let (full, full_stats) =
                param::projection_reduction(PARAM_N, &program, dynamics, false);
            assert_eq!(pruned, full, "{name}");
            assert_eq!(pruned_stats.max_cone, full_stats.max_cone, "{name}");
            assert!(
                pruned_stats.total_points < full_stats.total_points,
                "{name}: pruning visited {} of {} points",
                pruned_stats.total_points,
                full_stats.total_points
            );
            if name == "broken move_back" {
                assert!(
                    full.iter()
                        .any(|f| f.obligation == "projection-invisibility"),
                    "the third-party order flip must surface: {full:?}"
                );
            }
        }
    }
}
