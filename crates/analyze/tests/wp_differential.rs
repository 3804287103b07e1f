//! 200-seed differential suite for the WP/SP predicate transformers.
//!
//! Each seed generates a random IR statement sequence (assignments with
//! tables, arithmetic, nested conditionals — every write wrapped in a
//! `mod` so values stay in-domain) plus random pre/postcondition
//! predicates (boolean combinations and counting terms), then asserts
//! on *every* enumerated state:
//!
//! * `wp(S, P)` holds exactly where executing `S` concretely lands in
//!   `P` (and the simplified form agrees with the unsimplified one);
//! * `sp(S, Q)` holds exactly on the concrete image of `Q` under `S`;
//! * [`implication`]'s verdict matches brute-force enumeration, and a
//!   returned counterexample actually falsifies the implication.
//!
//! Seeding follows the `graybox-rng` conventions of
//! `core/tests/gcl_differential.rs` (`SmallRng::seed_from_u64`, one
//! spec per seed, seed named in every assertion).

use graybox_analyze::wp::{implication, sp_stmts, wp_stmts, Decision, Pred};
use graybox_core::gcl::ir::{CmpOp, Cond, Expr, Stmt};
use graybox_core::gcl::{Program, VarRef};
use graybox_core::sweep::sweep_seeds;
use graybox_rng::rngs::SmallRng;
use graybox_rng::{Rng, SeedableRng};

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

struct Gen {
    vars: Vec<VarRef>,
    domains: Vec<usize>,
}

impl Gen {
    fn pick_var(&self, rng: &mut SmallRng) -> usize {
        rng.gen_range(0..self.vars.len())
    }

    /// A random expression. Unconstrained in range — callers that store
    /// the result wrap it in a `mod` to keep the state in-domain (table
    /// indices use a bare variable, safe for in-domain states).
    fn expr(&self, rng: &mut SmallRng, depth: usize) -> Expr {
        let leaf = depth == 0 || rng.gen_range(0..3usize) == 0;
        if leaf {
            if rng.gen_range(0..2usize) == 0 {
                Expr::int(rng.gen_range(0..5usize))
            } else {
                Expr::var(self.vars[self.pick_var(rng)])
            }
        } else {
            match rng.gen_range(0..4usize) {
                0 => self.expr(rng, depth - 1).add(self.expr(rng, depth - 1)),
                1 => self.expr(rng, depth - 1).sub(self.expr(rng, depth - 1)),
                2 => self.expr(rng, depth - 1).modulo(rng.gen_range(1..6usize)),
                _ => {
                    let v = self.pick_var(rng);
                    let table: Vec<usize> = (0..self.domains[v])
                        .map(|_| rng.gen_range(0..5usize))
                        .collect();
                    Expr::var(self.vars[v]).table(table)
                }
            }
        }
    }

    fn cond(&self, rng: &mut SmallRng, depth: usize) -> Cond {
        let leaf = depth == 0 || rng.gen_range(0..3usize) == 0;
        if leaf {
            Cond::Cmp(
                CMP_OPS[rng.gen_range(0..CMP_OPS.len())],
                self.expr(rng, 1),
                self.expr(rng, 1),
            )
        } else {
            match rng.gen_range(0..3usize) {
                0 => self.cond(rng, depth - 1).not(),
                1 => self.cond(rng, depth - 1).and(self.cond(rng, depth - 1)),
                _ => self.cond(rng, depth - 1).or(self.cond(rng, depth - 1)),
            }
        }
    }

    fn assign(&self, rng: &mut SmallRng) -> Stmt {
        let dst = self.pick_var(rng);
        // The wrap keeps every reachable valuation inside the declared
        // domains, which is what makes sp's finite expansion exact.
        Stmt::assign(self.vars[dst], self.expr(rng, 2).modulo(self.domains[dst]))
    }

    fn stmts(&self, rng: &mut SmallRng, depth: usize) -> Vec<Stmt> {
        (0..rng.gen_range(1..4usize))
            .map(|_| {
                if depth > 0 && rng.gen_range(0..3usize) == 0 {
                    if rng.gen_range(0..2usize) == 0 {
                        Stmt::when(self.cond(rng, 1), self.stmts(rng, depth - 1))
                    } else {
                        Stmt::if_else(
                            self.cond(rng, 1),
                            self.stmts(rng, depth - 1),
                            self.stmts(rng, depth - 1),
                        )
                    }
                } else {
                    self.assign(rng)
                }
            })
            .collect()
    }

    fn pred(&self, rng: &mut SmallRng, depth: usize) -> Pred {
        let leaf = depth == 0 || rng.gen_range(0..3usize) == 0;
        if leaf {
            if rng.gen_range(0..3usize) == 0 {
                let terms: Vec<Cond> = (0..rng.gen_range(1..4usize))
                    .map(|_| self.cond(rng, 1))
                    .collect();
                let rhs = rng.gen_range(0..terms.len() + 2);
                Pred::count(terms, CMP_OPS[rng.gen_range(0..CMP_OPS.len())], rhs)
            } else {
                Pred::atom(self.cond(rng, 1))
            }
        } else {
            match rng.gen_range(0..3usize) {
                0 => self.pred(rng, depth - 1).not(),
                1 => self.pred(rng, depth - 1).and(self.pred(rng, depth - 1)),
                _ => self.pred(rng, depth - 1).or(self.pred(rng, depth - 1)),
            }
        }
    }
}

/// All in-domain valuations, mixed-radix order.
fn states(domains: &[usize]) -> Vec<Vec<usize>> {
    let total: usize = domains.iter().product();
    (0..total)
        .map(|mut code| {
            domains
                .iter()
                .map(|&d| {
                    let v = code % d;
                    code /= d;
                    v
                })
                .collect()
        })
        .collect()
}

fn check_seed(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nvars = rng.gen_range(1..4usize);
    let domains: Vec<usize> = (0..nvars).map(|_| rng.gen_range(2..5usize)).collect();
    // A Program only to mint VarRefs with the right indices.
    let mut program = Program::new();
    let vars: Vec<VarRef> = domains
        .iter()
        .enumerate()
        .map(|(i, &d)| program.var(format!("x{i}"), d))
        .collect();
    let gen = Gen { vars, domains };
    let body = gen.stmts(&mut rng, 2);
    let post = gen.pred(&mut rng, 2);
    let pre = gen.pred(&mut rng, 2);
    let all = states(&gen.domains);

    // WP: symbolic precondition == concrete execution then postcondition.
    let wp = wp_stmts(&body, &post);
    let wp_simplified = wp.simplify();
    for s in &all {
        let mut t = s.clone();
        for stmt in &body {
            stmt.exec_values(&mut t);
        }
        let concrete = post.eval_values(&t);
        assert_eq!(
            wp.eval_values(s),
            concrete,
            "seed {seed}: wp diverges at {s:?} (post-state {t:?})\nbody {body:?}\npost {post:?}"
        );
        assert_eq!(
            wp_simplified.eval_values(s),
            concrete,
            "seed {seed}: simplify changed wp at {s:?}"
        );
    }

    // SP: symbolic postcondition == concrete image of the precondition.
    let sp = sp_stmts(&body, &pre, &gen.domains);
    let mut image = vec![false; all.len()];
    let encode = |v: &[usize]| {
        v.iter()
            .zip(&gen.domains)
            .rev()
            .fold(0usize, |acc, (&x, &d)| acc * d + x)
    };
    for s in &all {
        if pre.eval_values(s) {
            let mut t = s.clone();
            for stmt in &body {
                stmt.exec_values(&mut t);
            }
            image[encode(&t)] = true;
        }
    }
    for s in &all {
        assert_eq!(
            sp.eval_values(s),
            image[encode(s)],
            "seed {seed}: sp diverges at {s:?}\nbody {body:?}\npre {pre:?}"
        );
    }

    // Implication decision == brute force (the cone here is at most the
    // 4^3-point full space, far under the cap).
    let decision = implication(&wp, &pre, &gen.domains).expect("cone under cap");
    let brute = all.iter().all(|s| !wp.eval_values(s) || pre.eval_values(s));
    match decision {
        Decision::Valid { .. } => {
            assert!(
                brute,
                "seed {seed}: implication claimed valid, brute force disagrees"
            );
        }
        Decision::CounterExample(witness) => {
            assert!(!brute, "seed {seed}: spurious counterexample {witness:?}");
            assert!(
                wp.eval_values(&witness) && !pre.eval_values(&witness),
                "seed {seed}: witness {witness:?} does not falsify the implication"
            );
        }
    }
}

#[test]
fn wp_sp_and_implication_agree_with_concrete_execution_on_200_seeds() {
    sweep_seeds(0..200u64, check_seed);
}
