//! The n-process TME abstraction in the decode/encode DSL: the oracle for
//! [`graybox_core::tme_abstract::program_nproc_ir`].
//!
//! [`program_nproc_reference`] declares the same variables in the same
//! order and issues the same commands in the same order as the IR model,
//! written as closures over a [`Valuation`], so the two compile to
//! identical systems. The model's variable handles and its `ord`
//! permutation tables are built here from scratch rather than shared with
//! `graybox-core`, so a slip in either copy shows up as a difference.
//! See the `graybox_core::tme_abstract` module docs for the model itself.

use std::sync::Arc;

use graybox_core::tme_abstract::{EATING, EMPTY, HUNGRY, REPLY, REQUEST, THINKING};

use crate::gcl::{Program, Valuation, Var};

/// The state-space cap: the full product is decoded state by state, so
/// only `n ≤ 3` (7 558 272 states) fits.
const MAX_STATES: usize = 1 << 26;

/// Variable handles of the n-process model, plus the permutation tables
/// behind `ord`, indexed by the permutation index `ord` holds.
struct VarsN {
    n: usize,
    m: Vec<Var>,
    /// `c[i][j]`, `i ≠ j`: single-slot channel i→j.
    c: Vec<Vec<Option<Var>>>,
    /// `k[i][j]`, `i ≠ j`: "i's information confirms its request
    /// precedes j's".
    k: Vec<Vec<Option<Var>>>,
    /// Index into the lexicographic permutation list of `0..n`.
    ord: Var,
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

/// Declares the n-process variables in the IR model's order: modes,
/// channels, beliefs, then `ord`.
fn declare_n(program: &mut Program, n: usize) -> VarsN {
    let m = (0..n).map(|i| program.var(format!("m{i}"), 3)).collect();
    let mut pair_grid = |prefix: &str, domain: usize| -> Vec<Vec<Option<Var>>> {
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

/// The protocol's commands, in the IR model's order: per process,
/// `request`, then per peer `recv_request`, `observe_request`,
/// `recv_reply` (and `wrapper`), then `enter` and `release`.
fn protocol_commands_n(program: &mut Program, v: &VarsN, with_wrapper: bool) {
    let n = v.n;
    for i in 0..n {
        let mi = v.m[i];
        let ord = v.ord;
        let outgoing: Vec<Var> = (0..n)
            .filter(|&j| j != i)
            .map(|j| v.c[i][j].unwrap())
            .collect();
        let incoming: Vec<Var> = (0..n)
            .filter(|&j| j != i)
            .map(|j| v.c[j][i].unwrap())
            .collect();
        let beliefs: Vec<Var> = (0..n)
            .filter(|&j| j != i)
            .map(|j| v.k[i][j].unwrap())
            .collect();
        let move_back = Arc::clone(&v.move_back[i]);
        program.command(
            format!("request{i}"),
            move |s: &Valuation| s[mi] == THINKING,
            move |s: &mut Valuation| {
                s[mi] = HUNGRY;
                for &slot in &outgoing {
                    s[slot] = REQUEST;
                }
                for &belief in &beliefs {
                    s[belief] = 0;
                }
                for &slot in &incoming {
                    if s[slot] == REPLY {
                        s[slot] = EMPTY;
                    }
                }
                s[ord] = move_back[s[ord]];
            },
        );
        for j in 0..n {
            if j == i {
                continue;
            }
            let cji = v.c[j][i].unwrap();
            let cij = v.c[i][j].unwrap();
            let kij = v.k[i][j].unwrap();
            let i_earlier = Arc::clone(&v.earlier[i * n + j]);
            {
                let i_earlier = Arc::clone(&i_earlier);
                program.command(
                    format!("recv_request{i}_{j}"),
                    move |s: &Valuation| {
                        s[cji] == REQUEST
                            && s[mi] != EATING
                            && !(s[mi] == HUNGRY && i_earlier[s[ord]] == 1)
                    },
                    move |s: &mut Valuation| {
                        s[cji] = EMPTY;
                        s[cij] = REPLY;
                    },
                );
            }
            program.command(
                format!("observe_request{i}_{j}"),
                move |s: &Valuation| {
                    s[cji] == REQUEST && s[mi] == HUNGRY && i_earlier[s[ord]] == 1 && s[kij] == 0
                },
                move |s: &mut Valuation| s[kij] = 1,
            );
            program.command(
                format!("recv_reply{i}_{j}"),
                move |s: &Valuation| s[cji] == REPLY,
                move |s: &mut Valuation| {
                    s[cji] = EMPTY;
                    if s[mi] == HUNGRY {
                        s[kij] = 1;
                    }
                },
            );
            if with_wrapper {
                program.command(
                    format!("wrapper{i}_{j}"),
                    move |s: &Valuation| s[mi] == HUNGRY && s[kij] == 0 && s[cij] != REPLY,
                    move |s: &mut Valuation| s[cij] = REQUEST,
                );
            }
        }
        let beliefs: Vec<Var> = (0..n)
            .filter(|&j| j != i)
            .map(|j| v.k[i][j].unwrap())
            .collect();
        {
            let beliefs = beliefs.clone();
            program.command(
                format!("enter{i}"),
                move |s: &Valuation| s[mi] == HUNGRY && beliefs.iter().all(|&b| s[b] == 1),
                move |s: &mut Valuation| s[mi] = EATING,
            );
        }
        program.command(
            format!("release{i}"),
            move |s: &Valuation| s[mi] == EATING,
            move |s: &mut Valuation| {
                s[mi] = THINKING;
                for &belief in &beliefs {
                    s[belief] = 0;
                }
            },
        );
    }
}

/// The n-process model (with or without the wrapper) and its initial
/// predicate: everyone thinking, channels empty, no beliefs, `ord` the
/// identity permutation.
pub fn program_nproc_reference(
    n: usize,
    with_wrapper: bool,
) -> (Program, impl Fn(&Valuation) -> bool) {
    let mut program = Program::new();
    let vars = declare_n(&mut program, n);
    protocol_commands_n(&mut program, &vars, with_wrapper);
    program.max_states(MAX_STATES);
    (program, move |s: &Valuation| {
        (0..vars.n).all(|i| {
            s[vars.m[i]] == THINKING
                && (0..vars.n)
                    .filter(|&j| j != i)
                    .all(|j| s[vars.c[i][j].unwrap()] == EMPTY && s[vars.k[i][j].unwrap()] == 0)
        }) && s[vars.ord] == 0
    })
}
