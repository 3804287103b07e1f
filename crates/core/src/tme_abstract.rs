//! Exhaustively model-checked abstractions of the TME case study.
//!
//! The simulation experiments (T3/T4/…) sample the wrapped protocol's
//! behaviour; this module complements them with **exhaustive** checks at
//! small scale: abstractions of Ricart–Agrawala plus the graybox wrapper,
//! expressed in the guarded-command DSL of [`crate::gcl`] and verified
//! over their *entire* state spaces — every possible transient corruption
//! is just some state, and the model checker proves convergence from all
//! of them.
//!
//! The abstraction is parametric in the number of processes `n ≥ 2`:
//! [`build_n`]`(2)` is the 2-process case (648 states, materializable in
//! milliseconds) and [`build_n`]`(3)` the ≈7.6M-state workload checked by
//! the streaming [`Program::fair_self_check`] pipeline, which never
//! materializes per-command components. The model is written as IR
//! syntax trees ([`program_nproc_ir`]): what [`build_n`] checks and the
//! static passes read. Its oracle, the same model in the decode/encode
//! DSL, is `graybox_oracles::tme::program_nproc_reference`; the twin
//! suite `tests/tme_twins.rs` asserts both compile to identical systems.
//!
//! ## The n-process abstraction
//!
//! Timestamps collapse to a ground-truth order and per-pair belief bits;
//! channels are single-slot (`empty` / `request` / `reply`), and sending
//! overwrites, which subsumes loss and duplication.
//!
//! | paper | here |
//! |---|---|
//! | `t.i / h.i / e.i` | `m_i ∈ {0,1,2}` |
//! | `REQ_i lt i.REQ_j` | `k_ij = 1` |
//! | deferred set | a request left pending in `c_ji` |
//! | FIFO channel `i→j` | slot `c_ij ∈ {empty, request, reply}` |
//! | wrapper `W_i` | `h.i ∧ ¬k_ij → resend request to j` (never clobbering a reply in flight) |
//!
//! With `n` processes the pairwise structure is explicit: one
//! single-slot channel `c_ij` and one belief bit `k_ij` ("i's information
//! confirms its request precedes j's") per ordered pair, and `ord`
//! is a permutation of the processes — the ground-truth order in
//! which currently-hungry processes requested (requesting moves a process
//! to the back). Two representation choices keep the space at
//! `3^n · 3^{n(n-1)} · 2^{n(n-1)} · n!` (648 for `n = 2`, 7 558 272 for
//! `n = 3`) instead of hundreds of millions:
//!
//! * **no deferred bits** — deferring a reply is modelled by *leaving the
//!   request in its slot*: `recv_request` is guarded to fire only when
//!   the receiver actually replies (not eating, not hungry-with-earlier-
//!   request), and a released process answers still-pending requests
//!   through the ordinary `recv_request` command;
//! * **`observe_request`** — an earlier-hungry process can *read* a
//!   later request without consuming it, learning `k_ij = 1` (in RA, a
//!   later-timestamped request confirms my precedence). Without this the
//!   pending-request encoding of deferral would lose that information
//!   and legitimate behaviour itself could starve.
//!
//! ## What is proved
//!
//! * the protocol's legitimate behaviour satisfies ME1 (never two eating);
//! * the **unwrapped** protocol is *not* stabilizing: the §4 deadlock
//!   (all hungry, channels empty, nobody believing it precedes) is a
//!   quiescent state outside legitimate behaviour;
//! * the **wrapped** composition is stabilizing to the protocol's
//!   legitimate behaviour from *every* state, under weak fairness — the
//!   paper's Theorem 8 in miniature, exhaustively, at 2 and 3 processes.

use std::sync::Arc;

use crate::gcl::ir::{Cond, Expr, IrCommand, Stmt};
use crate::gcl::sym::{SymmetryElement, SymmetrySpec};
use crate::gcl::{GclError, Program, State, VarRef};

/// Mode values of the abstraction.
pub const THINKING: usize = 0;
/// Hungry.
pub const HUNGRY: usize = 1;
/// Eating.
pub const EATING: usize = 2;

/// Channel slot values.
pub const EMPTY: usize = 0;
/// A request is in flight.
pub const REQUEST: usize = 1;
/// A reply is in flight.
pub const REPLY: usize = 2;

/// Variable handles of the n-process model, plus the permutation tables
/// behind `ord`. The tables are indexed by the permutation index `ord`
/// holds and shared by every command (and both programs) that looks
/// them up.
#[derive(Debug, Clone)]
struct VarsN {
    n: usize,
    m: Vec<VarRef>,
    /// `c[i][j]`, `i ≠ j`: single-slot channel i→j.
    c: Vec<Vec<Option<VarRef>>>,
    /// `k[i][j]`, `i ≠ j`: "i's information confirms its request
    /// precedes j's".
    k: Vec<Vec<Option<VarRef>>>,
    /// Index into the lexicographic permutation list of `0..n`.
    ord: VarRef,
    /// `earlier[i * n + j][p]`: 1 when i precedes j in permutation p,
    /// else 0.
    earlier: Vec<Arc<[usize]>>,
    /// `move_back[i][p]`: permutation index after moving i to the back
    /// of permutation p.
    move_back: Vec<Arc<[usize]>>,
}

/// All permutations of `0..n` in lexicographic order.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 1 {
        return vec![vec![0]];
    }
    let mut result = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    // Lexicographic successor loop.
    loop {
        result.push(items.clone());
        let Some(pivot) = items.windows(2).rposition(|w| w[0] < w[1]) else {
            break;
        };
        let swap = items.iter().rposition(|&x| x > items[pivot]).unwrap();
        items.swap(pivot, swap);
        items[pivot + 1..].reverse();
    }
    result
}

/// The index of `perm` in [`permutations`]`(perm.len())`: its Lehmer
/// code read as a factorial-base number.
fn perm_rank(perm: &[usize]) -> usize {
    perm.iter().enumerate().fold(0, |rank, (at, &value)| {
        let smaller_later = perm[at + 1..]
            .iter()
            .filter(|&&later| later < value)
            .count();
        rank * (perm.len() - at) + smaller_later
    })
}

/// Declares the n-process variables: modes, channels, beliefs, then
/// `ord`.
fn declare_n(program: &mut Program, n: usize) -> VarsN {
    let m = (0..n).map(|i| program.var(format!("m{i}"), 3)).collect();
    let mut pair_grid = |prefix: &str, domain: usize| -> Vec<Vec<Option<VarRef>>> {
        (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| (i != j).then(|| program.var(format!("{prefix}{i}{j}"), domain)))
                    .collect()
            })
            .collect()
    };
    let c = pair_grid("c", 3);
    let k = pair_grid("k", 2);
    let perms = permutations(n);
    let ord = program.var("ord", perms.len());
    let mut earlier = vec![Vec::with_capacity(perms.len()); n * n];
    let mut move_back = vec![Vec::with_capacity(perms.len()); n];
    let mut pos = vec![0usize; n];
    let mut moved = Vec::with_capacity(n);
    for perm in &perms {
        for (at, &process) in perm.iter().enumerate() {
            pos[process] = at;
        }
        for i in 0..n {
            for j in 0..n {
                earlier[i * n + j].push(usize::from(pos[i] < pos[j]));
            }
            moved.clear();
            moved.extend(perm.iter().copied().filter(|&p| p != i));
            moved.push(i);
            move_back[i].push(perm_rank(&moved));
        }
    }
    VarsN {
        n,
        m,
        c,
        k,
        ord,
        earlier: earlier.into_iter().map(Arc::from).collect(),
        move_back: move_back.into_iter().map(Arc::from).collect(),
    }
}

/// The n-process protocol as [`IrCommand`] syntax trees: what
/// [`build_n`] checks, and what makes the model *statically analyzable*
/// — the `graybox-analyze` passes certify locality (Lemmas 2–3) and the
/// wrapper's graybox admissibility from these trees without enumerating
/// a single state. The twin suite `tests/tme_twins.rs` asserts it
/// compiles to the same systems as the oracle DSL model of
/// `graybox-oracles`. Each command goes to
/// `emit` in declaration order, flagged when it is a wrapper command.
fn protocol_commands_n_ir(v: &VarsN, with_wrapper: bool, mut emit: impl FnMut(IrCommand, bool)) {
    let n = v.n;
    // `i_earlier[ord]` as IR: a 0/1 table lookup over the permutation
    // index, compared against 1.
    let earlier_cond = |i: usize, j: usize| -> Cond {
        Expr::var(v.ord)
            .table(Arc::clone(&v.earlier[i * n + j]))
            .eq(Expr::int(1))
    };
    for i in 0..n {
        let mi = v.m[i];
        let others = || (0..n).filter(move |&j| j != i);
        // Request CS: t → h, broadcast requests, forget stale beliefs,
        // void replies in flight to us, move self to the back of the
        // ground-truth order.
        let mut body = Vec::with_capacity(3 * n);
        body.push(Stmt::assign(mi, Expr::int(HUNGRY)));
        for j in others() {
            body.push(Stmt::assign(v.c[i][j].unwrap(), Expr::int(REQUEST)));
        }
        for j in others() {
            body.push(Stmt::assign(v.k[i][j].unwrap(), Expr::int(0)));
        }
        for j in others() {
            let slot = v.c[j][i].unwrap();
            body.push(Stmt::when(
                Expr::var(slot).eq(Expr::int(REPLY)),
                vec![Stmt::assign(slot, Expr::int(EMPTY))],
            ));
        }
        body.push(Stmt::assign(
            v.ord,
            Expr::var(v.ord).table(Arc::clone(&v.move_back[i])),
        ));
        emit(
            IrCommand::new(
                format!("request{i}"),
                Expr::var(mi).eq(Expr::int(THINKING)),
                body,
            ),
            false,
        );
        for j in others() {
            let cji = v.c[j][i].unwrap();
            let cij = v.c[i][j].unwrap();
            let kij = v.k[i][j].unwrap();
            // Receive request from j and reply — enabled only when i
            // actually replies (pending requests are the deferred set).
            emit(
                IrCommand::new(
                    format!("recv_request{i}_{j}"),
                    Cond::And(vec![
                        Expr::var(cji).eq(Expr::int(REQUEST)),
                        Expr::var(mi).ne(Expr::int(EATING)),
                        Cond::And(vec![
                            Expr::var(mi).eq(Expr::int(HUNGRY)),
                            earlier_cond(i, j),
                        ])
                        .not(),
                    ]),
                    vec![
                        Stmt::assign(cji, Expr::int(EMPTY)),
                        Stmt::assign(cij, Expr::int(REPLY)),
                    ],
                ),
                false,
            );
            // Observe a deferred request without consuming it.
            emit(
                IrCommand::new(
                    format!("observe_request{i}_{j}"),
                    Cond::And(vec![
                        Expr::var(cji).eq(Expr::int(REQUEST)),
                        Expr::var(mi).eq(Expr::int(HUNGRY)),
                        earlier_cond(i, j),
                        Expr::var(kij).eq(Expr::int(0)),
                    ]),
                    vec![Stmt::assign(kij, Expr::int(1))],
                ),
                false,
            );
            // Receive reply from j: while hungry it confirms precedence.
            emit(
                IrCommand::new(
                    format!("recv_reply{i}_{j}"),
                    Expr::var(cji).eq(Expr::int(REPLY)),
                    vec![
                        Stmt::assign(cji, Expr::int(EMPTY)),
                        Stmt::when(
                            Expr::var(mi).eq(Expr::int(HUNGRY)),
                            vec![Stmt::assign(kij, Expr::int(1))],
                        ),
                    ],
                ),
                false,
            );
            if with_wrapper {
                // The graybox wrapper, per pair. Note what its syntax
                // tree *cannot* say: it never mentions `ord` (ground
                // truth) — the wrapper-footprint pass certifies this.
                emit(
                    IrCommand::new(
                        format!("wrapper{i}_{j}"),
                        Cond::And(vec![
                            Expr::var(mi).eq(Expr::int(HUNGRY)),
                            Expr::var(kij).eq(Expr::int(0)),
                            Expr::var(cij).ne(Expr::int(REPLY)),
                        ]),
                        vec![Stmt::assign(cij, Expr::int(REQUEST))],
                    ),
                    true,
                );
            }
        }
        // Grant CS once every pairwise precedence is confirmed.
        let all_confirmed = Cond::And(
            std::iter::once(Expr::var(mi).eq(Expr::int(HUNGRY)))
                .chain(others().map(|j| Expr::var(v.k[i][j].unwrap()).eq(Expr::int(1))))
                .collect(),
        );
        emit(
            IrCommand::new(
                format!("enter{i}"),
                all_confirmed,
                vec![Stmt::assign(mi, Expr::int(EATING))],
            ),
            false,
        );
        // Release CS: back to thinking, forget beliefs.
        let mut body = Vec::with_capacity(n);
        body.push(Stmt::assign(mi, Expr::int(THINKING)));
        for j in others() {
            body.push(Stmt::assign(v.k[i][j].unwrap(), Expr::int(0)));
        }
        emit(
            IrCommand::new(
                format!("release{i}"),
                Expr::var(mi).eq(Expr::int(EATING)),
                body,
            ),
            false,
        );
    }
}

/// The structural role of one variable of the n-process model, in
/// declaration order — the analysis-agnostic metadata the static passes
/// consume (ownership for the locality check, spec-visibility for the
/// wrapper-footprint check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NprocVarRole {
    /// `m_i`: the mode of process `i` (owned by `i`).
    Mode(usize),
    /// `c_ij`: the single-slot channel from `from` to `to` — writable by
    /// both endpoints (the sender sends, the receiver consumes).
    Channel {
        /// Sending process.
        from: usize,
        /// Receiving process.
        to: usize,
    },
    /// `k_ij`: `owner`'s belief that its request precedes `about`'s
    /// (owned by `owner`).
    Belief {
        /// The believing process.
        owner: usize,
        /// The process the belief is about.
        about: usize,
    },
    /// `ord`: the ground-truth request order — an auxiliary
    /// (specification-level ghost) variable no single process owns. The
    /// protocol may consult it (the abstraction of timestamp
    /// comparison), but a graybox wrapper must not: `Lspec` does not
    /// expose ground truth.
    Order,
}

/// Structural metadata of the n-process model: per-variable roles and
/// per-command owning processes, in declaration order. The shape is what
/// `graybox-lint` feeds to the locality / wrapper-footprint /
/// interference passes.
#[derive(Debug, Clone)]
pub struct NprocShape {
    /// Number of processes.
    pub n: usize,
    /// Role of each variable, in declaration order.
    pub var_roles: Vec<NprocVarRole>,
    /// Owning process of each command, in declaration order.
    pub command_process: Vec<usize>,
    /// Whether each command is a wrapper command.
    pub command_is_wrapper: Vec<bool>,
}

/// The shape of [`program_nproc_ir`]`(n, with_wrapper)`. Variable and
/// command indices match that program's declaration order exactly (a
/// test asserts the counts line up).
pub fn nproc_shape(n: usize, with_wrapper: bool) -> NprocShape {
    let mut var_roles: Vec<NprocVarRole> = (0..n).map(NprocVarRole::Mode).collect();
    for from in 0..n {
        for to in 0..n {
            if from != to {
                var_roles.push(NprocVarRole::Channel { from, to });
            }
        }
    }
    for owner in 0..n {
        for about in 0..n {
            if owner != about {
                var_roles.push(NprocVarRole::Belief { owner, about });
            }
        }
    }
    var_roles.push(NprocVarRole::Order);

    let mut command_process = Vec::new();
    let mut command_is_wrapper = Vec::new();
    for i in 0..n {
        let mut push = |process: usize, wrapper: bool| {
            command_process.push(process);
            command_is_wrapper.push(wrapper);
        };
        push(i, false); // request{i}
        for _j in (0..n).filter(|&j| j != i) {
            push(i, false); // recv_request{i}_{j}
            push(i, false); // observe_request{i}_{j}
            push(i, false); // recv_reply{i}_{j}
            if with_wrapper {
                push(i, true); // wrapper{i}_{j}
            }
        }
        push(i, false); // enter{i}
        push(i, false); // release{i}
    }
    NprocShape {
        n,
        var_roles,
        command_process,
        command_is_wrapper,
    }
}

/// Assembles the n-process model as a packed [`Program`] of
/// [`IrCommand`]s plus its initial predicate — the unit the benchmarks
/// time and the static passes inspect. Use [`nproc_shape`] for the
/// matching ownership metadata.
pub fn program_nproc_ir(
    n: usize,
    with_wrapper: bool,
) -> (Program, impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync) {
    let mut program = Program::new();
    let vars = declare_n(&mut program, n);
    protocol_commands_n_ir(&vars, with_wrapper, |command, _| {
        program.command_ir(command)
    });
    program.max_states(nproc_max_states(n));
    (program, is_init_n(vars))
}

/// The packed-state cap for the n-process model: the tier-1 cap
/// (`1 << 26`) through `n = 3` — those spaces are swept in full — and
/// the exact domain product beyond, where only **quotient fragments**
/// are ever interned ([`AbstractTmeN::reachable_check`]) but the layout
/// must still admit the full product. At `n = 5` the product
/// (≈ 1.07 × 10²⁰) no longer fits the packed `u64` word, so the cap
/// saturates and compilation reports [`GclError::TooManyStates`] — that
/// is the representation boundary, not a tuning choice.
fn nproc_max_states(n: usize) -> usize {
    if n <= 3 {
        return 1 << 26;
    }
    let mut product: u128 = 1;
    for _ in 0..n + n * (n - 1) {
        product = product.saturating_mul(3);
    }
    for _ in 0..n * (n - 1) {
        product = product.saturating_mul(2);
    }
    for f in 2..=n {
        product = product.saturating_mul(f as u128);
    }
    usize::try_from(product).unwrap_or(usize::MAX)
}

/// The full process-relabeling symmetry group of
/// [`program_nproc_ir`]`(n, with_wrapper)`: one
/// [`SymmetryElement`] per permutation π of `0..n` (identity first,
/// lexicographic thereafter), relabeling modes `m_i → m_{π(i)}`,
/// channels `c_ij → c_{π(i)π(j)}`, beliefs `k_ij → k_{π(i)π(j)}` and the
/// commands likewise, and acting on `ord` **by value**: the stored
/// ground-truth order is relabeled elementwise
/// (`perms[p] ↦ π ∘ perms[p]`). `SymmetrySpec::validate` confirms
/// equivariance against the actual program; the reduced checks below
/// rely on it.
///
/// # Panics
///
/// Panics if the group tables cannot be built — impossible for
/// `2 ≤ n ≤ 8` (the `u16` element bound holds up to `8! = 40 320`).
pub fn nproc_symmetry(n: usize, with_wrapper: bool) -> SymmetrySpec {
    assert!(n >= 2, "the abstraction needs at least two processes");
    let perms = permutations(n);
    let num_vars = n + 2 * n * (n - 1) + 1;
    let ord_at = num_vars - 1;
    let local = |i: usize, j: usize| if j < i { j } else { j - 1 };
    let idx_c = |i: usize, j: usize| n + i * (n - 1) + local(i, j);
    let idx_k = |i: usize, j: usize| n + n * (n - 1) + i * (n - 1) + local(i, j);

    // Commands per process, in declaration order: request, then per
    // peer (ascending) recv_request / observe_request / recv_reply
    // [/ wrapper], then enter, release.
    let per_pair = 3 + usize::from(with_wrapper);
    let per_proc = 1 + (n - 1) * per_pair + 2;
    let num_commands = n * per_proc;

    let elements: Vec<SymmetryElement> = perms
        .iter()
        .map(|pi| {
            let mut var_perm = vec![0usize; num_vars];
            for i in 0..n {
                var_perm[i] = pi[i];
                for j in (0..n).filter(|&j| j != i) {
                    var_perm[idx_c(i, j)] = idx_c(pi[i], pi[j]);
                    var_perm[idx_k(i, j)] = idx_k(pi[i], pi[j]);
                }
            }
            var_perm[ord_at] = ord_at;

            let mut value_maps: Vec<Option<Vec<usize>>> = vec![None; num_vars];
            value_maps[ord_at] = Some(
                perms
                    .iter()
                    .map(|order| {
                        let relabeled: Vec<usize> = order.iter().map(|&p| pi[p]).collect();
                        perm_rank(&relabeled)
                    })
                    .collect(),
            );

            let mut cmd_perm = vec![0usize; num_commands];
            for i in 0..n {
                let from = i * per_proc;
                let to = pi[i] * per_proc;
                cmd_perm[from] = to; // request
                cmd_perm[from + per_proc - 2] = to + per_proc - 2; // enter
                cmd_perm[from + per_proc - 1] = to + per_proc - 1; // release
                for j in (0..n).filter(|&j| j != i) {
                    let src = from + 1 + per_pair * local(i, j);
                    let dst = to + 1 + per_pair * local(pi[i], pi[j]);
                    for k in 0..per_pair {
                        cmd_perm[src + k] = dst + k;
                    }
                }
            }
            SymmetryElement {
                var_perm,
                value_maps,
                cmd_perm,
            }
        })
        .collect();
    SymmetrySpec::new(&elements).expect("process relabelings form a group")
}

fn is_init_n(v: VarsN) -> impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync {
    move |s| {
        (0..v.n).all(|i| {
            s.get(v.m[i]) == THINKING
                && (0..v.n)
                    .filter(|&j| j != i)
                    .all(|j| s.get(v.c[i][j].unwrap()) == EMPTY && s.get(v.k[i][j].unwrap()) == 0)
        }) && s.get(v.ord) == 0
    }
}

/// The compiled n-process abstraction: two packed [`Program`]s (without
/// and with the wrapper) checked by the streaming pipeline — nothing is
/// materialized until [`check`](AbstractTmeN::check) runs.
#[derive(Debug)]
pub struct AbstractTmeN {
    n: usize,
    unwrapped: Program,
    wrapped: Program,
    vars: VarsN,
    domains: Vec<usize>,
}

/// The verdicts of one exhaustive n-process check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TmeVerdicts {
    /// Size of the full state space both checks swept.
    pub num_states: usize,
    /// Number of legitimate (init-reachable, wrapper included) states.
    pub num_legitimate: usize,
    /// ME1 over legitimate behaviour: never two processes eating.
    pub me1: bool,
    /// Is the unwrapped protocol stabilizing? (Expected: no.)
    pub unwrapped_stabilizes: bool,
    /// Is the wrapped composition stabilizing under weak fairness?
    pub wrapped_stabilizes: bool,
    /// The generalized §4 deadlock state (all hungry, channels empty,
    /// no beliefs).
    pub deadlock_state: usize,
    /// Is the deadlock quiescent in the unwrapped protocol?
    pub deadlock_quiescent: bool,
    /// Is the deadlock outside legitimate behaviour?
    pub deadlock_illegitimate: bool,
}

impl TmeVerdicts {
    /// True when every verdict is as the paper predicts.
    pub fn as_predicted(&self) -> bool {
        self.me1
            && !self.unwrapped_stabilizes
            && self.wrapped_stabilizes
            && self.deadlock_quiescent
            && self.deadlock_illegitimate
    }
}

/// Builds the n-process abstraction (`n ≥ 2`). `build_n(3)` is the
/// 7 558 272-state workload T9 checks at full scale; `build_n(2)` is the
/// 648-state 2-process case T9 always checks, small enough to
/// cross-validate the streaming checker against the materialized one.
///
/// # Errors
///
/// Returns [`GclError`] if compilation fails — in particular
/// [`GclError::TooManyStates`] when `n` pushes the domain product past
/// what a packed check can hold.
pub fn build_n(n: usize) -> Result<AbstractTmeN, GclError> {
    assert!(n >= 2, "the abstraction needs at least two processes");
    // Both programs share one declaration (the variables and the `ord`
    // tables) and every protocol command: only the wrapper's commands
    // are the wrapped program's own.
    let mut unwrapped = Program::new();
    let vars = declare_n(&mut unwrapped, n);
    unwrapped.max_states(nproc_max_states(n));
    let mut wrapped = unwrapped.clone();
    protocol_commands_n_ir(&vars, true, |command, is_wrapper| {
        let command = Arc::new(command);
        if !is_wrapper {
            unwrapped.command_shared(Arc::clone(&command));
        }
        wrapped.command_shared(command);
    });

    let mut domains = vec![3usize; n];
    domains.extend(std::iter::repeat_n(3, n * (n - 1)));
    domains.extend(std::iter::repeat_n(2, n * (n - 1)));
    domains.push(vars.move_back[0].len());
    // Fail early (and identically for both programs) on oversize n.
    unwrapped.state_space()?;
    Ok(AbstractTmeN {
        n,
        unwrapped,
        wrapped,
        vars,
        domains,
    })
}

impl AbstractTmeN {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total number of global states.
    pub fn num_states(&self) -> usize {
        self.domains.iter().product()
    }

    /// The unwrapped protocol program (for benchmarks).
    pub fn unwrapped_program(&self) -> &Program {
        &self.unwrapped
    }

    /// The wrapped protocol program (for benchmarks).
    pub fn wrapped_program(&self) -> &Program {
        &self.wrapped
    }

    fn init_pred(&self) -> impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync + '_ {
        let v = &self.vars;
        move |s| {
            (0..v.n).all(|i| {
                s.get(v.m[i]) == THINKING
                    && (0..v.n).filter(|&j| j != i).all(|j| {
                        s.get(v.c[i][j].unwrap()) == EMPTY && s.get(v.k[i][j].unwrap()) == 0
                    })
            }) && s.get(v.ord) == 0
        }
    }

    /// Encodes the generalized §4 deadlock: all hungry, channels empty,
    /// no beliefs, identity order.
    pub fn deadlock_state(&self) -> usize {
        let mut values = vec![0usize; self.domains.len()];
        values[..self.n].fill(HUNGRY);
        values
            .iter()
            .zip(&self.domains)
            .rev()
            .fold(0, |acc, (&value, &domain)| acc * domain + value)
    }

    /// Decodes a packed state into values in declaration order
    /// (`m0..m{n-1}`, channels, beliefs, `ord`).
    pub fn decode(&self, mut state: usize) -> Vec<usize> {
        self.domains
            .iter()
            .map(|&domain| {
                let value = state % domain;
                state /= domain;
                value
            })
            .collect()
    }

    /// How many processes eat in the packed state `word`, read from its
    /// `n` least significant digits (the modes) without decoding the rest.
    fn num_eating(&self, mut word: u64) -> usize {
        let mut eating = 0;
        for &domain in &self.domains[..self.n] {
            let domain = domain as u64;
            eating += usize::from(word % domain == EATING as u64);
            word /= domain;
        }
        eating
    }

    /// Runs the exhaustive check: two streaming
    /// [`Program::fair_self_check`] sweeps (unwrapped, wrapped), ME1 over
    /// the legitimate states, and the deadlock analysis. At `n = 3` this
    /// is the multi-million-state workload; nothing per-command is ever
    /// materialized.
    ///
    /// # Errors
    ///
    /// Returns [`GclError`] if compilation fails (it cannot, absent bugs).
    pub fn check(&self) -> Result<TmeVerdicts, GclError> {
        self.check_with(None)
    }

    /// [`check`](Self::check) with an explicit worker count for the two
    /// [`Program::fair_self_check_on`] runs (`workers <= 1` is fully
    /// serial). The verdicts are identical for every worker count — the
    /// parallel differential suite asserts it.
    ///
    /// # Errors
    ///
    /// Returns [`GclError`] if compilation fails (it cannot, absent bugs).
    pub fn check_on(&self, workers: usize) -> Result<TmeVerdicts, GclError> {
        self.check_with(Some(workers))
    }

    fn check_with(&self, workers: Option<usize>) -> Result<TmeVerdicts, GclError> {
        let (unwrapped_report, wrapped_report) = match workers {
            Some(workers) => (
                self.unwrapped
                    .fair_self_check_on(workers, self.init_pred())?,
                self.wrapped.fair_self_check_on(workers, self.init_pred())?,
            ),
            None => (
                self.unwrapped.fair_self_check(self.init_pred())?,
                self.wrapped.fair_self_check(self.init_pred())?,
            ),
        };

        let me1 = wrapped_report
            .legitimate
            .iter()
            .all(|state| self.num_eating(state as u64) <= 1);

        let deadlock = self.deadlock_state();
        let deadlock_quiescent = self.unwrapped.step(deadlock)? == vec![deadlock];
        // Legitimacy (init-reachability) is identical for the unwrapped
        // and wrapped programs only up to the wrapper's extra moves; the
        // convergence target is the wrapped (Lspec stand-in) behaviour,
        // so the deadlock must be outside *that*.
        let deadlock_illegitimate = !wrapped_report.legitimate.contains(deadlock);

        Ok(TmeVerdicts {
            num_states: wrapped_report.num_states,
            num_legitimate: wrapped_report.num_legitimate(),
            me1,
            unwrapped_stabilizes: unwrapped_report.holds(),
            wrapped_stabilizes: wrapped_report.holds(),
            deadlock_state: deadlock,
            deadlock_quiescent,
            deadlock_illegitimate,
        })
    }

    /// The initial predicate with the `ord = 0` pin dropped: all
    /// thinking, channels empty, no beliefs, *any* ground-truth order.
    /// This is exactly the orbit closure of [`init_pred`](Self::init_pred)
    /// under [`nproc_symmetry`] (relabeling reaches every `ord` value
    /// from the identity), which the symmetry-reduced sweeps require.
    fn symmetric_init_pred(&self) -> impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync + '_ {
        let v = &self.vars;
        move |s| {
            (0..v.n).all(|i| {
                s.get(v.m[i]) == THINKING
                    && (0..v.n).filter(|&j| j != i).all(|j| {
                        s.get(v.c[i][j].unwrap()) == EMPTY && s.get(v.k[i][j].unwrap()) == 0
                    })
            })
        }
    }

    /// [`check`](Self::check) on the symmetry quotient: the identical
    /// [`TmeVerdicts`] (the differential gate asserts bit-equality at
    /// `n = 2` and `n = 3`), interning only one representative per
    /// process-relabeling orbit — `n!`-fold fewer states when no state
    /// has a non-trivial stabilizer, which holds here because the `ord`
    /// digit is moved by every non-identity relabeling.
    ///
    /// # Errors
    ///
    /// Returns [`GclError`] if compilation fails (it cannot, absent bugs).
    pub fn reduced_check(&self) -> Result<TmeReducedVerdicts, GclError> {
        self.reduced_check_with(None)
    }

    /// [`reduced_check`](Self::reduced_check) with an explicit worker
    /// count; the report is identical at every count.
    ///
    /// # Errors
    ///
    /// Returns [`GclError`] if compilation fails (it cannot, absent bugs).
    pub fn reduced_check_on(&self, workers: usize) -> Result<TmeReducedVerdicts, GclError> {
        self.reduced_check_with(Some(workers))
    }

    fn reduced_check_with(&self, workers: Option<usize>) -> Result<TmeReducedVerdicts, GclError> {
        let sym_unwrapped = nproc_symmetry(self.n, false);
        let sym_wrapped = nproc_symmetry(self.n, true);
        let init = self.symmetric_init_pred();
        let (unwrapped_report, wrapped_report) = match workers {
            Some(workers) => (
                self.unwrapped
                    .fair_self_check_sym_on(workers, &sym_unwrapped, &init)?,
                self.wrapped
                    .fair_self_check_sym_on(workers, &sym_wrapped, &init)?,
            ),
            None => (
                self.unwrapped.fair_self_check_sym(&sym_unwrapped, &init)?,
                self.wrapped.fair_self_check_sym(&sym_wrapped, &init)?,
            ),
        };

        // ME1 is orbit-invariant (relabeling permutes the eating count's
        // summands), so checking canonical representatives covers every
        // legitimate state.
        let me1 = wrapped_report
            .legitimate
            .iter()
            .all(|id| self.num_eating(wrapped_report.words[id]) <= 1);

        let deadlock = self.deadlock_state();
        let deadlock_quiescent = self.unwrapped.step(deadlock)? == vec![deadlock];
        let canon_deadlock = self.wrapped.canonicalize(&sym_wrapped, deadlock)? as u64;
        let deadlock_illegitimate = !wrapped_report
            .canonical_id(canon_deadlock)
            .is_some_and(|id| wrapped_report.legitimate.contains(id));

        Ok(TmeReducedVerdicts {
            verdicts: TmeVerdicts {
                num_states: wrapped_report.num_states,
                num_legitimate: wrapped_report.num_legitimate_full,
                me1,
                unwrapped_stabilizes: unwrapped_report.holds(),
                wrapped_stabilizes: wrapped_report.holds(),
                deadlock_state: deadlock,
                deadlock_quiescent,
                deadlock_illegitimate,
            },
            num_canonical: wrapped_report.num_canonical(),
            group_order: sym_wrapped.order(),
        })
    }

    /// The `n ≥ 4` verdict: BFS over canonical representatives from the
    /// designated initial state, for products far too large to sweep
    /// (`n = 4` is ≈ 4.2 × 10¹² raw states). Unlike
    /// [`check`](Self::check) this certifies the **init-reachable**
    /// fragment — ME1 over legitimate behaviour, the §4 deadlock's
    /// quiescence and illegitimacy, and the wrapped protocol's recovery
    /// distance from the deadlock back into legitimate behaviour — not
    /// convergence from every corrupted state. `cap` bounds the interned
    /// canonical states ([`GclError::TooManyStates`] beyond it).
    ///
    /// # Errors
    ///
    /// Returns [`GclError`] if compilation fails or the quotient
    /// exploration exceeds `cap`.
    pub fn reachable_check(&self, cap: usize) -> Result<TmeReachableVerdicts, GclError> {
        self.reachable_check_with(None, cap)
    }

    /// [`reachable_check`](Self::reachable_check) with an explicit
    /// worker count; the report is identical at every count.
    ///
    /// # Errors
    ///
    /// Returns [`GclError`] if compilation fails or the quotient
    /// exploration exceeds `cap`.
    pub fn reachable_check_on(
        &self,
        workers: usize,
        cap: usize,
    ) -> Result<TmeReachableVerdicts, GclError> {
        self.reachable_check_with(Some(workers), cap)
    }

    fn reachable_check_with(
        &self,
        workers: Option<usize>,
        cap: usize,
    ) -> Result<TmeReachableVerdicts, GclError> {
        let sym_wrapped = nproc_symmetry(self.n, true);
        // Packed word 0 is the designated init (all thinking, channels
        // empty, no beliefs, identity order) and is its own canonical
        // form — every relabeling fixes the zero digits and can only
        // raise `ord`.
        let no_target = None::<&fn(u64) -> bool>;
        let legit = match workers {
            Some(workers) => {
                self.wrapped
                    .sym_reach_words_on(workers, &sym_wrapped, &[0], cap, no_target)?
            }
            None => self
                .wrapped
                .sym_reach_words(&sym_wrapped, &[0], cap, no_target)?,
        };
        let me1 = legit.words.iter().all(|&word| self.num_eating(word) <= 1);
        let mut legit_sorted = legit.words.clone();
        legit_sorted.sort_unstable();

        let deadlock = self.deadlock_state();
        let deadlock_quiescent = self.unwrapped.step(deadlock)? == vec![deadlock];
        let canon_deadlock = self.wrapped.canonicalize(&sym_wrapped, deadlock)? as u64;
        let deadlock_illegitimate = legit_sorted.binary_search(&canon_deadlock).is_err();

        let target = |w: u64| legit_sorted.binary_search(&w).is_ok();
        let recovery = match workers {
            Some(workers) => self.wrapped.sym_reach_words_on(
                workers,
                &sym_wrapped,
                &[deadlock as u64],
                cap,
                Some(&target),
            )?,
            None => self.wrapped.sym_reach_words(
                &sym_wrapped,
                &[deadlock as u64],
                cap,
                Some(&target),
            )?,
        };

        Ok(TmeReachableVerdicts {
            num_states: self.num_states(),
            num_canonical_legitimate: legit.words.len(),
            me1,
            deadlock_quiescent,
            deadlock_illegitimate,
            recovery_steps: recovery.hit.map(|(_, level)| level),
            group_order: sym_wrapped.order(),
        })
    }
}

/// The verdicts of one symmetry-reduced exhaustive n-process check,
/// with the quotient's size accounting alongside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TmeReducedVerdicts {
    /// The verdicts — field-for-field comparable (and, by the
    /// differential gate, bit-equal) to [`AbstractTmeN::check`]'s.
    pub verdicts: TmeVerdicts,
    /// Interned canonical states in the wrapped sweep (against
    /// [`TmeVerdicts::num_states`] raw states).
    pub num_canonical: usize,
    /// Order of the process-relabeling group (`n!`).
    pub group_order: usize,
}

/// The verdicts of a reachable-quotient n-process check
/// ([`AbstractTmeN::reachable_check`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TmeReachableVerdicts {
    /// Size of the raw domain product the quotient stands for.
    pub num_states: usize,
    /// Canonical init-reachable (legitimate) states of the wrapped model.
    pub num_canonical_legitimate: usize,
    /// ME1 over the legitimate fragment.
    pub me1: bool,
    /// Is the §4 deadlock quiescent in the unwrapped protocol?
    pub deadlock_quiescent: bool,
    /// Is the deadlock outside legitimate behaviour?
    pub deadlock_illegitimate: bool,
    /// Wrapped-protocol BFS distance from the deadlock to the first
    /// legitimate state (`None` would refute recovery).
    pub recovery_steps: Option<usize>,
    /// Order of the process-relabeling group (`n!`).
    pub group_order: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::stutter_closure;

    /// The successor row of `state` under the IR's valuation semantics
    /// (the lowering's oracle): every enabled command's target, sorted
    /// and deduplicated, or the stutter.
    fn valuation_row(program: &Program, domains: &[usize], state: usize) -> Vec<usize> {
        let mut rest = state;
        let values: Vec<usize> = domains
            .iter()
            .map(|&domain| {
                let value = rest % domain;
                rest /= domain;
                value
            })
            .collect();
        let encode = |values: &[usize]| {
            values
                .iter()
                .zip(domains)
                .rev()
                .fold(0, |word, (&value, &domain)| word * domain + value)
        };
        let mut row: Vec<usize> = (0..program.num_commands())
            .map(|c| program.ir_command(c))
            .filter(|command| command.guard_holds_values(&values))
            .map(|command| {
                let mut next = values.clone();
                command.apply_values(&mut next);
                encode(&next)
            })
            .collect();
        if row.is_empty() {
            row.push(state);
        }
        row.sort_unstable();
        row.dedup();
        row
    }

    #[test]
    fn lowered_nproc_rows_match_the_valuation_semantics_at_n3_sampled() {
        // Debug-speed slice of the n = 3 lowering check: identical
        // successor rows on a deterministic lattice of packed states (the
        // full compile against the oracle DSL is the `--ignored` test
        // in `tests/tme_twins.rs`, which CI runs in release).
        for with_wrapper in [false, true] {
            let (program, _) = program_nproc_ir(3, with_wrapper);
            let domains: Vec<usize> = program.variables().map(|(_, domain)| domain).collect();
            let total = program.state_space().unwrap();
            assert_eq!(total, 7_558_272);
            // 997 is coprime to the domain product's factors, so the
            // lattice sprays across every mixed-radix digit.
            for state in (0..total).step_by(997).chain([0, total - 1]) {
                assert_eq!(
                    program.step(state).unwrap(),
                    valuation_row(&program, &domains, state),
                    "state {state}, wrapper={with_wrapper}"
                );
            }
        }
    }

    #[test]
    fn nproc_shape_matches_the_ir_program() {
        for (n, with_wrapper) in [(2, false), (2, true), (3, true)] {
            let (program, _) = program_nproc_ir(n, with_wrapper);
            let shape = nproc_shape(n, with_wrapper);
            assert_eq!(shape.var_roles.len(), program.variables().len());
            assert_eq!(shape.command_process.len(), program.num_commands());
            assert_eq!(shape.command_is_wrapper.len(), program.num_commands());
            // Roles line up with declared names, and wrapper flags with
            // command names.
            for (index, (name, _domain)) in program.variables().enumerate() {
                match shape.var_roles[index] {
                    NprocVarRole::Mode(i) => assert_eq!(name, format!("m{i}")),
                    NprocVarRole::Channel { from, to } => {
                        assert_eq!(name, format!("c{from}{to}"));
                    }
                    NprocVarRole::Belief { owner, about } => {
                        assert_eq!(name, format!("k{owner}{about}"));
                    }
                    NprocVarRole::Order => assert_eq!(name, "ord"),
                }
            }
            for index in 0..program.num_commands() {
                let name = program.command_name(index);
                assert_eq!(
                    shape.command_is_wrapper[index],
                    name.starts_with("wrapper"),
                    "{name}"
                );
                assert!(
                    name.contains(&shape.command_process[index].to_string()),
                    "{name} not owned by process {}",
                    shape.command_process[index]
                );
            }
        }
    }

    #[test]
    fn permutation_tables_are_consistent() {
        let perms = permutations(3);
        assert_eq!(perms.len(), 6);
        assert_eq!(perms[0], vec![0, 1, 2]); // identity first (lexicographic)
        let mut p = Program::new();
        let v = declare_n(&mut p, 3);
        // earlier is a strict total order in every permutation.
        for pi in 0..perms.len() {
            let earlier = |i: usize, j: usize| v.earlier[i * 3 + j][pi] == 1;
            for i in 0..3 {
                assert!(!earlier(i, i));
                for j in 0..3 {
                    if i != j {
                        assert_ne!(earlier(i, j), earlier(j, i));
                    }
                }
            }
        }
        // move_back really moves to the back and keeps the rest's order.
        for (pi, perm) in perms.iter().enumerate() {
            for i in 0..3 {
                let target = &perms[v.move_back[i][pi]];
                assert_eq!(*target.last().unwrap(), i);
                let rest: Vec<usize> = perm.iter().copied().filter(|&x| x != i).collect();
                assert_eq!(&target[..2], &rest[..]);
            }
        }
    }

    #[test]
    fn perm_rank_is_the_index_in_the_permutation_list() {
        for n in 1..=5 {
            for (index, perm) in permutations(n).iter().enumerate() {
                assert_eq!(perm_rank(perm), index, "{perm:?}");
            }
        }
    }

    #[test]
    fn n2_streaming_check_matches_the_materialized_verdicts() {
        // The streaming verdicts of the 2-process case must agree with
        // compiling the same two programs through the materialized
        // FairComposition pipeline.
        let tme = build_n(2).unwrap();
        assert_eq!(tme.num_states(), 9 * 9 * 4 * 2);
        let verdicts = tme.check().unwrap();
        assert!(verdicts.as_predicted(), "{verdicts:?}");

        let (fair_unwrapped, unwrapped) = tme
            .unwrapped_program()
            .compile_fair(tme.init_pred())
            .unwrap();
        let (fair_wrapped, wrapped) = tme.wrapped_program().compile_fair(tme.init_pred()).unwrap();
        assert_eq!(
            verdicts.unwrapped_stabilizes,
            fair_unwrapped
                .is_stabilizing_to(&stutter_closure(unwrapped.system()))
                .holds()
        );
        assert_eq!(
            verdicts.wrapped_stabilizes,
            fair_wrapped
                .is_stabilizing_to(&stutter_closure(wrapped.system()))
                .holds()
        );
        assert_eq!(
            verdicts.num_legitimate,
            wrapped.system().reachable_from_init().len()
        );
    }

    #[test]
    fn n2_deadlock_word_is_all_hungry() {
        let tme = build_n(2).unwrap();
        let values = tme.decode(tme.deadlock_state());
        assert_eq!(&values[..2], &[HUNGRY, HUNGRY]);
        assert!(values[2..].iter().all(|&v| v == 0));
    }

    #[test]
    #[ignore = "multi-minute in debug; T9 at Scale::Full runs it in release"]
    fn n3_full_check_is_as_predicted() {
        let verdicts = build_n(3).unwrap().check().unwrap();
        assert!(verdicts.as_predicted(), "{verdicts:?}");
        assert_eq!(verdicts.num_states, 7_558_272);
    }

    #[test]
    fn n3_deadlock_word_is_quiescent() {
        // The 3-process build is cheap (no compilation happens until
        // check()); single-state probes stay fast.
        let tme = build_n(3).unwrap();
        assert_eq!(tme.num_states(), 7_558_272);
        let deadlock = tme.deadlock_state();
        let values = tme.decode(deadlock);
        assert_eq!(&values[..3], &[HUNGRY, HUNGRY, HUNGRY]);
        assert_eq!(
            tme.unwrapped_program().step(deadlock).unwrap(),
            vec![deadlock]
        );
        // The wrapper enables a move there.
        assert_ne!(
            tme.wrapped_program().step(deadlock).unwrap(),
            vec![deadlock]
        );
    }

    #[test]
    fn nproc_symmetry_is_a_valid_symmetry() {
        for n in [2usize, 3] {
            for with_wrapper in [false, true] {
                let spec = nproc_symmetry(n, with_wrapper);
                let mut fact = 1usize;
                for f in 2..=n {
                    fact *= f;
                }
                assert_eq!(spec.order(), fact);
                let (program, _) = program_nproc_ir(n, with_wrapper);
                spec.validate(&program).unwrap_or_else(|e| {
                    panic!("n={n} wrapper={with_wrapper}: {e}");
                });
            }
        }
    }

    #[test]
    fn n2_reduced_check_is_bit_equal_to_the_full_check() {
        let tme = build_n(2).unwrap();
        let full = tme.check().unwrap();
        let reduced = tme.reduced_check().unwrap();
        assert_eq!(reduced.verdicts, full);
        assert_eq!(reduced.group_order, 2);
        // No state is fixed by the swap (the `ord` digit always moves),
        // so the quotient is exactly half the space.
        assert_eq!(reduced.num_canonical * 2, full.num_states);
        // And the sharded quotient sweep is bit-deterministic.
        for workers in [1usize, 2, 4] {
            assert_eq!(tme.reduced_check_on(workers).unwrap(), reduced);
        }
    }

    #[test]
    fn n2_reachable_check_agrees_with_the_reachable_fragment() {
        let tme = build_n(2).unwrap();
        let reach = tme.reachable_check(usize::MAX).unwrap();
        assert_eq!(reach.num_states, 9 * 9 * 4 * 2);
        assert!(reach.me1);
        assert!(reach.deadlock_quiescent);
        assert!(reach.deadlock_illegitimate);
        // The wrapper recovers from the deadlock in finitely many steps.
        let steps = reach.recovery_steps.expect("wrapper must recover");
        assert!(steps >= 1);
        // Quotient legitimate count matches the full reachable set:
        // every orbit of the (G-closed) legitimate set has exactly one
        // canonical representative, and no state is swap-fixed.
        let full = tme.check().unwrap();
        assert_eq!(reach.num_canonical_legitimate * 2, full.num_legitimate);
        assert_eq!(tme.reachable_check_on(3, usize::MAX).unwrap(), reach);
    }

    #[test]
    #[ignore = "minutes in debug; CI runs it in release as the reduced-vs-full gate"]
    fn n3_reduced_check_equals_the_full_check() {
        let tme = build_n(3).unwrap();
        let full = tme.check().unwrap();
        let reduced = tme.reduced_check().unwrap();
        assert_eq!(reduced.verdicts, full, "quotient verdict diverged");
        assert!(reduced.verdicts.as_predicted());
        assert_eq!(reduced.group_order, 6);
        // The ISSUE gate: >= 5x fewer interned states than 7,558,272.
        // Exactly 6x here — no state survives a non-identity relabeling.
        assert_eq!(reduced.num_canonical * 6, 7_558_272);
    }

    #[test]
    #[ignore = "tens of seconds; release CI covers the n=4 unlock"]
    fn n4_reachable_check_is_as_predicted() {
        let tme = build_n(4).unwrap();
        assert_eq!(tme.num_states(), 4_231_664_861_184);
        let reach = tme.reachable_check(1 << 27).unwrap();
        assert!(reach.me1, "{reach:?}");
        assert!(reach.deadlock_quiescent);
        assert!(reach.deadlock_illegitimate);
        assert_eq!(reach.num_canonical_legitimate, 1_731_024);
        assert_eq!(reach.recovery_steps, Some(6));
        assert_eq!(reach.group_order, 24);
        // The FIFO discovery order of the legitimate quotient, pinned by
        // an FNV-1a-style fold over the words at 1 and 2 workers.
        let sym = nproc_symmetry(4, true);
        for workers in [1, 2] {
            let legit = tme
                .wrapped_program()
                .sym_reach_words_on(workers, &sym, &[0], 1 << 27, None::<&fn(u64) -> bool>)
                .unwrap();
            let digest = legit
                .words
                .iter()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, &word| {
                    (h ^ word).wrapping_mul(0x0100_0000_01b3)
                });
            assert_eq!(digest, 0x1e81_6409_17f7_1dc4, "at {workers} workers");
        }
    }
}
