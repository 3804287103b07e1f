//! The decode/encode GCL compiler: the oracle for the packed
//! [`graybox_core::gcl::Program`] pipeline.
//!
//! This is the original `Valuation`-based pipeline: every state of the
//! full domain product is decoded into a per-state `Vec<usize>`, guards
//! and effects are closures run on that decoded vector, the successor is
//! re-encoded, and [`Program::compile_fair`] performs one additional
//! full-space sweep per command. The differential suites compile seeded
//! random programs (and the TME model, [`crate::tme`]) with both
//! compilers and assert identical [`FiniteSystem`]s and verdicts;
//! `graybox-bench` times it as the baseline of the packed pipeline
//! (`gcl_compile/*` in `BENCH_core.json`).
//!
//! Variables are named by this module's own [`Var`] handles. Both
//! compilers number variables by declaration order and encode a state
//! with variable 0 as the least-significant digit, so a packed-program
//! handle reads a valuation through
//! [`VarRef::index`](graybox_core::gcl::VarRef::index) and
//! [`Valuation::values`].

use std::fmt;
use std::ops::{Index, IndexMut};

use graybox_core::fairness::FairComposition;
use graybox_core::gcl::{GclError, DEFAULT_MAX_STATES};
use graybox_core::FiniteSystem;

/// A handle to a variable of a [`Program`]: its declaration index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// An assignment of a value to every program variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Valuation(Vec<usize>);

impl Valuation {
    /// The raw values, indexed by declaration order.
    pub fn values(&self) -> &[usize] {
        &self.0
    }
}

impl Index<Var> for Valuation {
    type Output = usize;
    fn index(&self, var: Var) -> &usize {
        &self.0[var.0]
    }
}

impl IndexMut<Var> for Valuation {
    fn index_mut(&mut self, var: Var) -> &mut usize {
        &mut self.0[var.0]
    }
}

type Guard = Box<dyn Fn(&Valuation) -> bool>;
type Effect = Box<dyn Fn(&mut Valuation)>;

struct Command {
    name: String,
    guard: Guard,
    effect: Effect,
}

impl fmt::Debug for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Command").field("name", &self.name).finish()
    }
}

/// A guarded-command program in the original decode/encode representation.
#[derive(Debug, Default)]
pub struct Program {
    vars: Vec<(String, usize)>,
    commands: Vec<Command>,
    max_states: Option<usize>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program {
            vars: Vec::new(),
            commands: Vec::new(),
            max_states: None,
        }
    }

    /// Declares a variable with domain `0..domain` and returns its handle.
    pub fn var(&mut self, name: impl Into<String>, domain: usize) -> Var {
        self.vars.push((name.into(), domain));
        Var(self.vars.len() - 1)
    }

    /// Adds a guarded command `name :: guard → effect`.
    pub fn command(
        &mut self,
        name: impl Into<String>,
        guard: impl Fn(&Valuation) -> bool + 'static,
        effect: impl Fn(&mut Valuation) + 'static,
    ) {
        self.commands.push(Command {
            name: name.into(),
            guard: Box::new(guard),
            effect: Box::new(effect),
        });
    }

    /// Overrides the state-space cap (default [`DEFAULT_MAX_STATES`]).
    pub fn max_states(&mut self, max: usize) -> &mut Self {
        self.max_states = Some(max);
        self
    }

    fn state_count(&self) -> Result<usize, GclError> {
        let mut total = 1usize;
        for (name, domain) in &self.vars {
            if *domain == 0 {
                return Err(GclError::EmptyDomain { var: name.clone() });
            }
            total = total.checked_mul(*domain).ok_or(GclError::TooManyStates {
                actual: usize::MAX,
                max: self.max_states.unwrap_or(DEFAULT_MAX_STATES),
            })?;
        }
        let max = self.max_states.unwrap_or(DEFAULT_MAX_STATES);
        if total > max {
            return Err(GclError::TooManyStates { actual: total, max });
        }
        Ok(total)
    }

    fn decode(&self, mut state: usize) -> Valuation {
        let mut values = Vec::with_capacity(self.vars.len());
        for (_, domain) in &self.vars {
            values.push(state % domain);
            state /= domain;
        }
        Valuation(values)
    }

    fn encode(&self, valuation: &Valuation) -> Result<usize, GclError> {
        let mut state = 0usize;
        for ((_, domain), &value) in self.vars.iter().zip(&valuation.0).rev() {
            if value >= *domain {
                return Err(GclError::OutOfDomain {
                    command: String::new(),
                });
            }
            state = state * domain + value;
        }
        Ok(state)
    }

    /// Compiles to the pure path-set system: from each state, every enabled
    /// command contributes an edge; states with no enabled command stutter.
    ///
    /// # Errors
    ///
    /// See [`GclError`].
    pub fn compile(&self, init: impl Fn(&Valuation) -> bool) -> Result<FiniteSystem, GclError> {
        let total = self.state_count()?;
        let mut builder = FiniteSystem::builder(total);
        let mut any_init = false;
        for state in 0..total {
            let valuation = self.decode(state);
            if init(&valuation) {
                builder = builder.initial(state);
                any_init = true;
            }
            let mut enabled = false;
            for command in &self.commands {
                if (command.guard)(&valuation) {
                    enabled = true;
                    let mut next = valuation.clone();
                    (command.effect)(&mut next);
                    let encoded = self.encode(&next).map_err(|_| GclError::OutOfDomain {
                        command: command.name.clone(),
                    })?;
                    builder = builder.edge(state, encoded);
                }
            }
            if !enabled {
                builder = builder.edge(state, state);
            }
        }
        if !any_init {
            return Err(GclError::NoInitialState);
        }
        Ok(builder.build()?)
    }

    /// Compiles to UNITY's weakly fair execution model: one component per
    /// command, where a disabled command executes as a skip, composed via
    /// [`FairComposition`]. One additional full-space sweep runs per
    /// command (the cost the packed pipeline folds into a single sweep).
    ///
    /// # Errors
    ///
    /// See [`GclError`].
    pub fn compile_fair(
        &self,
        init: impl Fn(&Valuation) -> bool,
    ) -> Result<(FairComposition, FiniteSystem), GclError> {
        let compiled = self.compile(&init)?;
        let total = compiled.num_states();
        let mut components = Vec::with_capacity(self.commands.len());
        for command in &self.commands {
            let mut builder = FiniteSystem::builder(total);
            for state in 0..total {
                let valuation = self.decode(state);
                if init(&valuation) {
                    builder = builder.initial(state);
                }
                if (command.guard)(&valuation) {
                    let mut next = valuation.clone();
                    (command.effect)(&mut next);
                    let encoded = self.encode(&next).map_err(|_| GclError::OutOfDomain {
                        command: command.name.clone(),
                    })?;
                    builder = builder.edge(state, encoded);
                } else {
                    builder = builder.edge(state, state);
                }
            }
            components.push(builder.build()?);
        }
        let fair = FairComposition::new(components).map_err(GclError::System)?;
        Ok((fair, compiled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_program_compiles() {
        let mut p = Program::new();
        let x = p.var("x", 4);
        p.command("inc", move |s| s[x] < 3, move |s| s[x] += 1);
        let compiled = p.compile(|s| s[x] == 0).unwrap();
        assert_eq!(compiled.num_states(), 4);
        assert!(compiled.has_edge(0, 1));
        assert!(compiled.has_edge(3, 3)); // quiescent
        assert_eq!(compiled.init().len(), 1);
    }

    #[test]
    fn two_variable_encoding_round_trips() {
        let mut p = Program::new();
        let x = p.var("x", 3);
        let y = p.var("y", 5);
        p.command("noop", |_| false, |_| {});
        let compiled = p
            .compile(move |s| {
                assert!(s[x] < 3 && s[y] < 5);
                s[x] == 2 && s[y] == 4
            })
            .unwrap();
        assert_eq!(compiled.num_states(), 15);
        // x is the least-significant digit: (2, 4) is state 2 + 3 · 4.
        assert_eq!(compiled.init().iter().collect::<Vec<_>>(), [14]);
    }

    #[test]
    fn out_of_domain_effect_is_reported() {
        let mut p = Program::new();
        let x = p.var("x", 2);
        p.command("overflow", |_| true, move |s| s[x] = 7);
        let err = p.compile(|_| true).unwrap_err();
        assert_eq!(
            err,
            GclError::OutOfDomain {
                command: "overflow".into()
            }
        );
    }

    #[test]
    fn state_cap_is_enforced() {
        let mut p = Program::new();
        p.var("x", 100);
        p.var("y", 100);
        p.command("noop", |_| false, |_| {});
        p.max_states(50);
        assert!(matches!(
            p.compile(|_| true).unwrap_err(),
            GclError::TooManyStates {
                actual: 10000,
                max: 50
            }
        ));
    }

    #[test]
    fn fair_compilation_has_one_component_per_command() {
        let mut p = Program::new();
        let x = p.var("x", 2);
        p.command("flip", move |s| s[x] == 0, move |s| s[x] = 1);
        p.command("flop", move |s| s[x] == 1, move |s| s[x] = 0);
        let (fair, compiled) = p.compile_fair(|s| s[x] == 0).unwrap();
        assert_eq!(fair.components().len(), 2);
        assert!(fair.components()[0].has_edge(1, 1));
        assert!(fair.components()[0].has_edge(0, 1));
        assert!(compiled.edges().is_subset(fair.union().edges()));
    }
}
