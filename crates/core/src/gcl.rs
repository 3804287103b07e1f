//! A guarded-command language over finite variable domains, compiled by a
//! packed-state streaming pipeline.
//!
//! The paper describes implementations in Dijkstra–Scholten guarded
//! commands and specifications in UNITY; both are fusion-closed. This
//! module lets finite instances be written the same way and compiled to
//! [`FiniteSystem`]s:
//!
//! * [`Program::compile`] yields the pure path-set system (any enabled
//!   command may fire; quiescent states stutter),
//! * [`Program::compile_fair`] yields a [`FairComposition`] with one
//!   component per command — UNITY's weakly fair execution model (a
//!   disabled command executes as a skip) — in a *single* full-space
//!   sweep,
//! * [`Program::compile_reachable`] compiles only the init-reachable
//!   fragment by interned frontier BFS (for init-anchored queries such as
//!   invariants over legitimate behaviour), and
//! * [`Program::fair_self_check`] decides "the weakly fair composition of
//!   this program's commands is stabilizing to its own init-reachable
//!   behaviour" *without materializing any per-command component* — the
//!   path that scales the exhaustive TME check to multi-million-state
//!   abstractions.
//!
//! # The packed representation
//!
//! A global state is a single mixed-radix `u64` word: variable `v` with
//! declaration index `i` contributes `value(v) * stride(i)`, where
//! `stride(i)` is the product of the domains declared before `v`. The
//! word *is* the dense state index used by [`FiniteSystem`], so no
//! separate encode step exists. Commands are [`ir::IrCommand`] syntax,
//! lowered once per compile or check against the layout: guards become
//! digit-set masks over single variables (plus jump code for whatever
//! reads several), folded into per-value candidate words so a state's
//! candidate commands are one AND per variable; bodies become per-write
//! word-delta tables where they can be added up, flat jump code
//! otherwise. Both run against a [`State`] view that keeps a decoded copy
//! of the current word in a reusable buffer: reads are array loads, a
//! delta body's target is the word plus one table entry per write, and
//! jump code writes update the word by stride arithmetic
//! (`word += (new - old) * stride`) under an undo log that rolls the
//! effect back without re-decoding — the full-space sweeps advance the
//! word like an odometer and never allocate per state.
//!
//! Compiled successor rows are staged per state in a scratch buffer
//! (sorted, deduplicated) and appended to a flat CSR array, so no
//! intermediate `Vec<Vec<usize>>` of edges is ever built.
//!
//! The pre-packed decode/encode compiler survives as the oracle of this
//! pipeline in the test-only `graybox-oracles` crate, and the
//! differential suites cross-validate the two.
//!
//! # Example
//!
//! ```
//! use graybox_core::gcl::ir::{Expr, IrCommand, Stmt};
//! use graybox_core::gcl::Program;
//!
//! let mut program = Program::new();
//! let x = program.var("x", 3);
//! program.command_ir(IrCommand::new(
//!     "inc",
//!     Expr::var(x).lt(Expr::int(2)),
//!     vec![Stmt::assign(x, Expr::var(x).add(Expr::int(1)))],
//! ));
//! let compiled = program.compile(|s| s.get(x) == 0)?;
//! assert_eq!(compiled.system().num_states(), 3);
//! assert!(compiled.system().has_edge(0, 1));
//! assert!(compiled.system().has_edge(2, 2)); // quiescent stutter
//! # Ok::<(), graybox_core::gcl::GclError>(())
//! ```

pub mod ir;
mod lower;
mod reduce;
pub mod sym;

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::bitset::StateSet;
use crate::fairness::FairComposition;
use crate::par::{self, Idx};
use crate::sweep::{chunk_ranges, join_all};
use crate::{FiniteSystem, SystemError};

use self::lower::Lowered;

/// Default cap on compiled state-space size, to catch accidental blowups.
pub const DEFAULT_MAX_STATES: usize = 1 << 20;

/// A handle to a program variable: its declaration index, read with
/// [`State::get`] and written by [`ir::Stmt`] bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarRef(usize);

impl VarRef {
    /// The variable's declaration index (its position in decoded value
    /// vectors such as [`CompiledProgram::decode`]).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Error raised while compiling a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GclError {
    /// The variable domains multiply out beyond the configured cap (or
    /// beyond what a packed `u64` state word can hold).
    TooManyStates {
        /// Product of the variable domain sizes (`usize::MAX` when the
        /// product itself overflows).
        actual: usize,
        /// The configured cap.
        max: usize,
    },
    /// A command assigned a value outside its variable's domain.
    OutOfDomain {
        /// Name of the offending command.
        command: String,
    },
    /// A variable was declared with an empty domain.
    EmptyDomain {
        /// Name of the offending variable.
        var: String,
    },
    /// No state satisfied the initial predicate.
    NoInitialState,
    /// The compiled relation failed system validation (internal).
    System(SystemError),
}

impl fmt::Display for GclError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GclError::TooManyStates { actual, max } => {
                write!(f, "program has {actual} states, more than the cap {max}")
            }
            GclError::OutOfDomain { command } => {
                write!(f, "command {command:?} assigned a value outside its domain")
            }
            GclError::EmptyDomain { var } => write!(f, "variable {var:?} has an empty domain"),
            GclError::NoInitialState => write!(f, "no state satisfies the initial predicate"),
            GclError::System(err) => write!(f, "compiled relation invalid: {err}"),
        }
    }
}

impl std::error::Error for GclError {}

impl From<SystemError> for GclError {
    fn from(err: SystemError) -> Self {
        GclError::System(err)
    }
}

impl Lowered {
    /// Writes the sorted, deduplicated successor row of the view's state
    /// to `row`: every enabled command's target, or the stutter at a
    /// quiescent state. Returns the index of the first enabled command
    /// whose effect left its domain, as `Err`.
    fn successor_row(&self, view: &mut State<'_>, row: &mut Vec<usize>) -> Result<(), usize> {
        row.clear();
        self.enabled_targets(view, |_, target| row.push(narrow(target)))?;
        if row.is_empty() {
            row.push(narrow(view.word));
        }
        row.sort_unstable();
        row.dedup();
        Ok(())
    }

    /// Appends the fair union row of the view's state to `row`, in
    /// command order and with repeats: every enabled command's target,
    /// plus the skip self-loop when some command is disabled. Returns the
    /// index of the first enabled command whose effect left its domain,
    /// as `Err`.
    // State ids fit `u32` by the fair self-check's upfront guard.
    #[allow(clippy::cast_possible_truncation)]
    #[inline]
    fn union_row(&self, view: &mut State<'_>, row: &mut Vec<u32>) -> Result<(), usize> {
        let enabled = self.enabled_targets(view, |_, target| row.push(target as u32))?;
        if enabled < self.commands.len() {
            row.push(view.word as u32);
        }
        Ok(())
    }
}

/// Precomputed mixed-radix packing: per-variable domains and strides.
#[derive(Debug, Clone)]
struct Layout {
    domains: Vec<u64>,
    strides: Vec<u64>,
    total: u64,
}

impl Layout {
    /// Decodes one field straight from a packed word (cold-path helper;
    /// sweeps use the [`State`] buffer instead).
    fn field(&self, word: u64, var: usize) -> u64 {
        (word / self.strides[var]) % self.domains[var]
    }
}

/// A view of one packed global state, passed to initial predicates and
/// to the lowered commands.
///
/// Reads ([`get`](State::get)) are array loads from a decoded buffer;
/// writes update both the buffer and the packed word by stride
/// arithmetic. During a command's effect the view records an undo log so
/// the compiler can roll the state back without re-decoding. Assigning a
/// value outside the variable's domain poisons the state (the assignment
/// is dropped) and the enclosing compilation reports
/// [`GclError::OutOfDomain`].
#[derive(Debug)]
pub struct State<'a> {
    layout: &'a Layout,
    word: u64,
    values: Vec<u64>,
    undo: Vec<(usize, u64)>,
    recording: bool,
    out_of_domain: bool,
    /// Operand stack of the lowered commands' jump code.
    stack: Vec<usize>,
}

impl<'a> State<'a> {
    fn new(layout: &'a Layout) -> Self {
        State {
            layout,
            word: 0,
            values: vec![0; layout.domains.len()],
            undo: Vec::new(),
            recording: false,
            out_of_domain: false,
            stack: Vec::new(),
        }
    }

    /// Positions the view at `word`, decoding every field once.
    fn load(&mut self, word: u64) {
        debug_assert!(!self.recording);
        self.word = word;
        let mut rest = word;
        for (value, &domain) in self.values.iter_mut().zip(&self.layout.domains) {
            *value = rest % domain;
            rest /= domain;
        }
    }

    /// Advances to the next packed word in mixed-radix (odometer) order.
    fn advance(&mut self) {
        debug_assert!(!self.recording);
        self.word += 1;
        for (value, &domain) in self.values.iter_mut().zip(&self.layout.domains) {
            *value += 1;
            if *value < domain {
                return;
            }
            *value = 0;
        }
    }

    fn begin_effect(&mut self) {
        debug_assert!(self.undo.is_empty());
        self.recording = true;
    }

    /// Rolls back the recorded effect and returns the target word it
    /// produced, or `Err(())` if the effect assigned out of domain.
    fn finish_effect(&mut self) -> Result<u64, ()> {
        self.finish_effect_with(|_, word| word)
    }

    /// Evaluates `f` on the live post-effect buffer (decoded values and
    /// packed word of the target) and then rolls the effect back —
    /// callers that need more than the target word, such as its
    /// canonical form, read it here instead of re-decoding the word.
    /// Returns `Err(())`, without calling `f`, if the effect assigned
    /// out of domain.
    fn finish_effect_with<T>(&mut self, f: impl FnOnce(&[u64], u64) -> T) -> Result<T, ()> {
        let result = (!self.out_of_domain).then(|| f(&self.values, self.word));
        while let Some((var, old)) = self.undo.pop() {
            let stride = self.layout.strides[var];
            self.word = self.word - self.values[var] * stride + old * stride;
            self.values[var] = old;
        }
        self.recording = false;
        self.out_of_domain = false;
        result.ok_or(())
    }

    /// The current value of `var`.
    pub fn get(&self, var: VarRef) -> usize {
        narrow(self.values[var.0])
    }

    /// Assigns `value` to `var`. Values outside the domain poison the
    /// state and are reported by the compiler as
    /// [`GclError::OutOfDomain`].
    fn set(&mut self, var: VarRef, value: usize) {
        let value = value as u64;
        if value >= self.layout.domains[var.0] {
            self.out_of_domain = true;
            return;
        }
        let old = self.values[var.0];
        if old == value {
            return;
        }
        if self.recording {
            self.undo.push((var.0, old));
        }
        let stride = self.layout.strides[var.0];
        self.word = self.word - old * stride + value * stride;
        self.values[var.0] = value;
    }
}

/// Narrows a packed word, field, or state count to `usize`.
///
/// Sound by construction: the layout checks the domain product against
/// the `max_states` cap (a `usize`), so every packed word, digit, and
/// state id fits `usize` on every target.
#[inline]
#[allow(clippy::cast_possible_truncation)]
fn narrow(word: u64) -> usize {
    word as usize
}

/// A guarded-command program over finite-domain variables.
#[derive(Debug, Clone, Default)]
pub struct Program {
    vars: Vec<(String, usize)>,
    commands: Vec<Arc<ir::IrCommand>>,
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
    pub fn var(&mut self, name: impl Into<String>, domain: usize) -> VarRef {
        self.vars.push((name.into(), domain));
        VarRef(self.vars.len() - 1)
    }

    /// Adds a guarded command ([`ir::IrCommand`]). Its syntax is what the
    /// compile sweeps run, lowered once per compile or check, and what
    /// the static passes of the `graybox-analyze` crate read through
    /// [`ir_command`](Self::ir_command).
    ///
    /// # Panics
    ///
    /// Panics if the command mentions a variable index that has not been
    /// declared on this program — IR is data, so this is validated at
    /// insertion rather than deferred to an opaque panic mid-sweep.
    pub fn command_ir(&mut self, command: ir::IrCommand) {
        self.command_shared(Arc::new(command));
    }

    /// [`command_ir`](Self::command_ir) for a command other programs may
    /// hold too (the wrapped and unwrapped TME models share every
    /// protocol command).
    pub(crate) fn command_shared(&mut self, command: Arc<ir::IrCommand>) {
        if let Some(max) = command.max_var_index() {
            assert!(
                max < self.vars.len(),
                "command {:?} mentions undeclared variable index {max} \
                 (only {} variables are declared)",
                command.name,
                self.vars.len()
            );
        }
        self.commands.push(command);
    }

    /// The declared variables, in declaration order, as `(name, domain)`
    /// pairs. [`VarRef`] indices index this slice.
    pub fn variables(&self) -> impl ExactSizeIterator<Item = (&str, usize)> + '_ {
        self.vars
            .iter()
            .map(|(name, domain)| (name.as_str(), *domain))
    }

    /// The name of command `index` (declaration order).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn command_name(&self, index: usize) -> &str {
        &self.commands[index].name
    }

    /// The IR of command `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn ir_command(&self, index: usize) -> &ir::IrCommand {
        &self.commands[index]
    }

    /// Overrides the state-space cap (default [`DEFAULT_MAX_STATES`]).
    pub fn max_states(&mut self, max: usize) -> &mut Self {
        self.max_states = Some(max);
        self
    }

    /// Number of declared commands.
    pub fn num_commands(&self) -> usize {
        self.commands.len()
    }

    /// The size of the full domain product, i.e. the number of states a
    /// full-space compile would produce.
    ///
    /// # Errors
    ///
    /// [`GclError::EmptyDomain`] or [`GclError::TooManyStates`] exactly as
    /// the compile entry points would report them.
    pub fn state_space(&self) -> Result<usize, GclError> {
        Ok(narrow(self.layout()?.total))
    }

    /// Builds the stride tables with checked arithmetic: the domain
    /// product must fit the configured cap — and, transitively, the `u64`
    /// state word. Overflow of the product itself is reported as
    /// [`GclError::TooManyStates`] rather than wrapping.
    fn layout(&self) -> Result<Layout, GclError> {
        let max = self.max_states.unwrap_or(DEFAULT_MAX_STATES);
        let overflow = GclError::TooManyStates {
            actual: usize::MAX,
            max,
        };
        let mut domains = Vec::with_capacity(self.vars.len());
        let mut strides = Vec::with_capacity(self.vars.len());
        let mut total = 1u64;
        for (name, domain) in &self.vars {
            if *domain == 0 {
                return Err(GclError::EmptyDomain { var: name.clone() });
            }
            let domain = u64::try_from(*domain).map_err(|_| overflow.clone())?;
            strides.push(total);
            domains.push(domain);
            total = total.checked_mul(domain).ok_or_else(|| overflow.clone())?;
        }
        let actual = usize::try_from(total).map_err(|_| overflow.clone())?;
        if actual > max {
            return Err(GclError::TooManyStates { actual, max });
        }
        Ok(Layout {
            domains,
            strides,
            total,
        })
    }

    /// The layout plus every command lowered against it: what each
    /// compile or check entry point runs.
    fn lower(&self) -> Result<Lowered, GclError> {
        Ok(Lowered::new(self.layout()?, &self.commands))
    }

    fn out_of_domain(&self, command: usize) -> GclError {
        GclError::OutOfDomain {
            command: self.commands[command].name.clone(),
        }
    }

    /// Computes the successor row of one packed state — sorted,
    /// deduplicated, with the quiescence stutter — without compiling
    /// anything. The single-state probe behind deadlock/quiescence
    /// queries on spaces too large to materialize. It lowers the program
    /// on every call; a caller that steps many states lowers it once
    /// through [`stepper`](Self::stepper).
    ///
    /// # Errors
    ///
    /// See [`GclError`]. A `state` outside the domain product is a caller
    /// bug and panics.
    pub fn step(&self, state: usize) -> Result<Vec<usize>, GclError> {
        self.stepper()?.step(state)
    }

    /// The program lowered once, for [`Stepper::step`] over many states.
    ///
    /// # Errors
    ///
    /// [`GclError::EmptyDomain`] or [`GclError::TooManyStates`] exactly as
    /// the compile entry points would report them.
    pub fn stepper(&self) -> Result<Stepper<'_>, GclError> {
        Ok(Stepper {
            program: self,
            lowered: self.lower()?,
        })
    }

    /// Compiles to the pure path-set system: from each state, every enabled
    /// command contributes an edge; states with no enabled command stutter.
    ///
    /// One streaming sweep evaluates guards and effects on the packed
    /// word and appends each staged row directly to the CSR arrays. On
    /// spaces large enough to amortize thread startup the sweep is
    /// *sharded*: [`available_workers`](crate::sweep::available_workers)
    /// contiguous chunks run odometer sweeps concurrently and their row
    /// segments are stitched by prefix-sum offsets — the output is
    /// bit-identical regardless of worker count.
    ///
    /// # Errors
    ///
    /// See [`GclError`].
    pub fn compile(
        &self,
        init: impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync,
    ) -> Result<CompiledProgram, GclError> {
        let lowered = self.lower()?;
        let workers = par::default_workers(narrow(lowered.layout.total));
        self.compile_with(&lowered, workers, &init)
    }

    /// [`compile`](Self::compile) with an explicit worker count
    /// (`workers <= 1` runs the sweep as one chunk on the calling thread).
    /// Output is identical for every worker count.
    ///
    /// # Errors
    ///
    /// See [`GclError`].
    pub fn compile_on(
        &self,
        workers: usize,
        init: impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync,
    ) -> Result<CompiledProgram, GclError> {
        let lowered = self.lower()?;
        self.compile_with(&lowered, workers, &init)
    }

    fn compile_with(
        &self,
        lowered: &Lowered,
        workers: usize,
        init: &(impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync),
    ) -> Result<CompiledProgram, GclError> {
        let total = narrow(lowered.layout.total);
        let chunks = chunk_ranges(total, workers.max(1), CHUNK_ALIGN);
        let tasks: Vec<_> = chunks
            .iter()
            .map(|range| {
                let range = range.clone();
                move || self.compile_chunk(lowered, range, init)
            })
            .collect();
        // `collect` keeps the error of the lowest failing chunk — the
        // same error a one-chunk sweep would hit first.
        let parts: Vec<PlainChunk> = join_all(tasks).into_iter().collect::<Result<_, _>>()?;
        let mut csr_parts = Vec::with_capacity(parts.len());
        let mut init_blocks = Vec::with_capacity(total.div_ceil(64));
        for part in parts {
            csr_parts.push((part.off, part.to));
            init_blocks.extend(part.init_blocks);
        }
        let init_set = StateSet::from_blocks(init_blocks);
        if init_set.is_empty() {
            return Err(GclError::NoInitialState);
        }
        let (fwd_off, fwd_to) = par::stitch_csr(total, &chunks, csr_parts);
        let system = FiniteSystem::from_csr(total, init_set, fwd_off, fwd_to)?;
        Ok(CompiledProgram {
            system,
            var_info: self.vars.clone(),
        })
    }

    /// One chunk of the sharded plain sweep: rows for `range` with
    /// chunk-relative offsets, plus the chunk's init bits as raw
    /// 64-aligned blocks.
    fn compile_chunk(
        &self,
        lowered: &Lowered,
        range: Range<usize>,
        init: &(impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync),
    ) -> Result<PlainChunk, GclError> {
        let len = range.len();
        let mut off = vec![0usize; len + 1];
        let mut to: Vec<usize> = Vec::with_capacity(len.saturating_mul(2));
        let mut init_blocks = vec![0u64; len.div_ceil(64)];
        let mut row: Vec<usize> = Vec::with_capacity(self.commands.len().max(1));
        let mut view = State::new(&lowered.layout);
        view.load(range.start as u64);
        for local in 0..len {
            if init(&view) {
                init_blocks[local / 64] |= 1u64 << (local % 64);
            }
            lowered
                .successor_row(&mut view, &mut row)
                .map_err(|c| self.out_of_domain(c))?;
            to.extend_from_slice(&row);
            off[local + 1] = to.len();
            view.advance();
        }
        Ok(PlainChunk {
            off,
            to,
            init_blocks,
        })
    }

    /// Compiles to UNITY's weakly fair execution model: one component per
    /// command, where a disabled command executes as a skip, composed via
    /// [`FairComposition`].
    ///
    /// A single full-space sweep produces the plain system, every
    /// per-command component, and the edge-union system (the old pipeline
    /// ran one extra sweep per command). Like [`compile`](Self::compile),
    /// large spaces shard the sweep across workers with bit-identical
    /// output: each command's component successor array is written in
    /// place through per-chunk column slices.
    ///
    /// # Errors
    ///
    /// See [`GclError`].
    pub fn compile_fair(
        &self,
        init: impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync,
    ) -> Result<(FairComposition, CompiledProgram), GclError> {
        let lowered = self.lower()?;
        let workers = par::default_workers(narrow(lowered.layout.total));
        self.compile_fair_with(&lowered, workers, &init)
    }

    /// [`compile_fair`](Self::compile_fair) with an explicit worker
    /// count (`workers <= 1` runs the sweep as one chunk on the calling
    /// thread). Output is identical for every worker count.
    ///
    /// # Errors
    ///
    /// See [`GclError`].
    pub fn compile_fair_on(
        &self,
        workers: usize,
        init: impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync,
    ) -> Result<(FairComposition, CompiledProgram), GclError> {
        let lowered = self.lower()?;
        self.compile_fair_with(&lowered, workers, &init)
    }

    fn compile_fair_with(
        &self,
        lowered: &Lowered,
        workers: usize,
        init: &(impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync),
    ) -> Result<(FairComposition, CompiledProgram), GclError> {
        let total = narrow(lowered.layout.total);
        let ncmd = self.commands.len();
        let chunks = chunk_ranges(total, workers.max(1), CHUNK_ALIGN);

        // Each command's component successor array (its target when
        // enabled, a skip self-loop when disabled) is written straight
        // into its final buffer: the columns are split at the chunk
        // boundaries so every worker owns its slice of every column.
        let mut comp_to: Vec<Vec<usize>> = (0..ncmd).map(|_| vec![0usize; total]).collect();
        let mut chunk_cols: Vec<Vec<&mut [usize]>> =
            chunks.iter().map(|_| Vec::with_capacity(ncmd)).collect();
        for column in &mut comp_to {
            let mut rest: &mut [usize] = column;
            for (slot, range) in chunk_cols.iter_mut().zip(&chunks) {
                let (head, tail) = rest.split_at_mut(range.len());
                slot.push(head);
                rest = tail;
            }
        }
        let tasks: Vec<_> = chunks
            .iter()
            .zip(chunk_cols)
            .map(|(range, cols)| {
                let range = range.clone();
                move || self.fair_chunk(lowered, range, init, cols)
            })
            .collect();
        let parts: Vec<FairChunk> = join_all(tasks).into_iter().collect::<Result<_, _>>()?;
        let mut plain_parts = Vec::with_capacity(parts.len());
        let mut union_parts = Vec::with_capacity(parts.len());
        let mut init_blocks = Vec::with_capacity(total.div_ceil(64));
        for part in parts {
            plain_parts.push((part.off, part.to));
            union_parts.push((part.union_off, part.union_to));
            init_blocks.extend(part.init_blocks);
        }
        let init_set = StateSet::from_blocks(init_blocks);
        if init_set.is_empty() {
            return Err(GclError::NoInitialState);
        }
        let (fwd_off, fwd_to) = par::stitch_csr(total, &chunks, plain_parts);
        let (union_off, union_to) = par::stitch_csr(total, &chunks, union_parts);
        let plain = FiniteSystem::from_csr(total, init_set.clone(), fwd_off, fwd_to)?;

        if ncmd == 0 {
            return Err(GclError::System(SystemError::EmptyStateSpace));
        }

        // Components: exactly one successor per state (target or skip);
        // the sweep already left each command's successor array final.
        let trivial_off: Vec<usize> = (0..=total).collect();
        let mut components = Vec::with_capacity(ncmd);
        for targets in comp_to {
            components.push(FiniteSystem::from_csr(
                total,
                init_set.clone(),
                trivial_off.clone(),
                targets,
            )?);
        }

        let union = FiniteSystem::from_csr(total, init_set, union_off, union_to)?;
        let fair = FairComposition::from_parts(components, union).map_err(GclError::System)?;
        Ok((
            fair,
            CompiledProgram {
                system: plain,
                var_info: self.vars.clone(),
            },
        ))
    }

    /// One chunk of the sharded fair sweep: plain and union rows for
    /// `range` (chunk-relative offsets), init bits as raw blocks, and
    /// each command's component targets written into `cols` (this
    /// chunk's slice of each component column).
    fn fair_chunk(
        &self,
        lowered: &Lowered,
        range: Range<usize>,
        init: &(impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync),
        mut cols: Vec<&mut [usize]>,
    ) -> Result<FairChunk, GclError> {
        let len = range.len();
        let ncmd = self.commands.len();
        let mut off = vec![0usize; len + 1];
        let mut to: Vec<usize> = Vec::with_capacity(len.saturating_mul(2));
        let mut union_off = vec![0usize; len + 1];
        let mut union_to: Vec<usize> = Vec::with_capacity(len.saturating_mul(2));
        let mut init_blocks = vec![0u64; len.div_ceil(64)];
        let mut row: Vec<usize> = Vec::with_capacity(ncmd.max(1));
        let mut view = State::new(&lowered.layout);
        view.load(range.start as u64);
        for (local, state) in range.enumerate() {
            if init(&view) {
                init_blocks[local / 64] |= 1u64 << (local % 64);
            }
            // A disabled command skips.
            for column in &mut cols {
                column[local] = state;
            }
            row.clear();
            let enabled = lowered
                .enabled_targets(&mut view, |index, target| {
                    let target = narrow(target);
                    cols[index][local] = target;
                    row.push(target);
                })
                .map_err(|index| self.out_of_domain(index))?;
            if row.is_empty() {
                row.push(state);
            }
            row.sort_unstable();
            row.dedup();
            to.extend_from_slice(&row);
            off[local + 1] = to.len();
            if enabled == ncmd {
                union_to.extend_from_slice(&row);
            } else {
                // Some command is disabled (or none are enabled, in which
                // case the stutter row already equals `[state]`): the
                // union gains the skip self-loop.
                match row.binary_search(&state) {
                    Ok(_) => union_to.extend_from_slice(&row),
                    Err(pos) => {
                        union_to.extend_from_slice(&row[..pos]);
                        union_to.push(state);
                        union_to.extend_from_slice(&row[pos..]);
                    }
                }
            }
            union_off[local + 1] = union_to.len();
            view.advance();
        }
        Ok(FairChunk {
            off,
            to,
            union_off,
            union_to,
            init_blocks,
        })
    }

    /// Decides, in streaming fashion, whether the weakly fair composition
    /// of this program's commands is stabilizing to the program's own
    /// init-reachable ("legitimate") behaviour — the question both TME
    /// abstraction checks ask — from **every** state of the full domain
    /// product.
    ///
    /// This is semantically identical to
    /// `compile_fair(init)?.0.is_stabilizing_to(&stutter_closure(compiled.system()))`
    /// (the differential suite asserts so), but materializes no
    /// per-command component, no second system and no union graph: one
    /// iterative Tarjan walks the union graph (every enabled command's
    /// target, plus a skip self-loop wherever some command is disabled)
    /// and builds each state's row when it first reaches the state,
    /// keeping only the rows of the states on its DFS path. A singleton
    /// SCC is decided from a bit noted while its row was built; the
    /// legitimate closure, the members of SCCs with two or more states,
    /// and the divergent-edge scan over fully represented SCCs run their
    /// commands again, and nothing else does. A violating fair
    /// computation exists iff some SCC contains an edge leaving the
    /// legitimate set and every command can act inside it (a disabled
    /// command skips, which counts). Peak memory is `O(V)` words of 32
    /// bits (the Tarjan arrays) plus the rows on the DFS path, not
    /// `O(V + E)`, and not `O(commands · V)` full systems.
    ///
    /// # Errors
    ///
    /// See [`GclError`]; programs with no commands are rejected like
    /// [`FairComposition::new`] rejects empty compositions.
    pub fn fair_self_check(
        &self,
        init: impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync,
    ) -> Result<FairSelfReport, GclError> {
        let lowered = self.lower()?;
        let workers = par::default_workers(narrow(lowered.layout.total));
        self.fair_self_check_with(&lowered, workers, &init)
    }

    /// [`fair_self_check`](Self::fair_self_check) with an explicit
    /// worker count for the SCC groups that run their commands again and
    /// the violation scan (`workers <= 1` runs each as one chunk on the
    /// calling thread; the Tarjan walk and the legitimate closure are
    /// sequential at every count). The report is identical for every
    /// worker count.
    ///
    /// # Errors
    ///
    /// See [`GclError`].
    pub fn fair_self_check_on(
        &self,
        workers: usize,
        init: impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync,
    ) -> Result<FairSelfReport, GclError> {
        let lowered = self.lower()?;
        self.fair_self_check_with(&lowered, workers, &init)
    }

    fn fair_self_check_with(
        &self,
        lowered: &Lowered,
        workers: usize,
        init: &(impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync),
    ) -> Result<FairSelfReport, GclError> {
        let total = narrow(lowered.layout.total);
        let ncmd = self.commands.len();
        if ncmd == 0 {
            return Err(GclError::System(SystemError::EmptyStateSpace));
        }
        check_u32_csr(total, ncmd)?;

        // SCC ids: one sequential Tarjan over the implicit union graph.
        // Every state is opened once, so the walk also evaluates `init`
        // and notes the states whose row is exactly [s]. The union graph
        // is dominated by singleton components (skip self-loops
        // everywhere), where one O(V + E) pass beats any parallel
        // decomposition.
        let mut dfs = UnionDfs {
            lowered,
            init,
            view: State::new(&lowered.layout),
            arena: Vec::new(),
            starts: Vec::new(),
            init_states: StateSet::with_capacity(total),
            only_self: StateSet::with_capacity(total),
        };
        let (scc_id, scc_count) = par::tarjan(&mut dfs)
            .map_err(|(state, command)| self.first_leak(lowered, state, command))?;
        let UnionDfs {
            arena,
            init_states,
            only_self,
            ..
        } = dfs;
        // Every row the walk opened was dropped when its frame popped.
        // Rows left behind would not change the SCCs (each lies below an
        // ancestor that reaches its targets anyway), only inflate the
        // arena towards the whole union graph, so check it here.
        debug_assert!(arena.is_empty(), "the walk left rows in its arena");
        if init_states.is_empty() {
            return Err(GclError::NoInitialState);
        }

        // Legitimate set: closure of the initial states. Self-loops never
        // change reachability, so the enabled targets decide it exactly
        // as the plain compilation would.
        let mut legitimate = init_states;
        let mut pending: Vec<usize> = legitimate.iter().collect();
        let mut view = State::new(&lowered.layout);
        while let Some(state) = pending.pop() {
            view.load(state as u64);
            lowered
                .enabled_targets(&mut view, |_, target| {
                    if legitimate.insert(narrow(target)) {
                        pending.push(narrow(target));
                    }
                })
                .map_err(|c| self.out_of_domain(c))?;
        }

        // Command presence per union SCC: an edge acts inside iff both
        // endpoints share the SCC, and a disabled command's skip (s, s)
        // always does. A singleton {s} is therefore fully represented iff
        // its union row is exactly [s], which the walk noted; only the
        // members of SCCs with two or more states run their commands
        // again. They are grouped by SCC id, and every group ORs its mask
        // locally, so the fully represented set is the same at every
        // worker count.
        let multi = par::multi_member_sccs(&scc_id, scc_count);
        let mut full = StateSet::with_capacity(scc_count);
        let mut members: Vec<(u32, u32)> = Vec::new();
        for (state, &id) in scc_id.iter().enumerate() {
            if multi.contains(id as usize) {
                members.push((id, u32::of(state)));
            } else if only_self.contains(state) {
                full.insert(id as usize);
            }
        }
        members.sort_unstable();
        let group_tasks: Vec<_> = scc_group_ranges(&members, workers)
            .into_iter()
            .map(|range| {
                let (members, scc_id) = (&members[range], &scc_id);
                move || self.full_groups_chunk(lowered, members, scc_id)
            })
            .collect();
        for ids in join_all(group_tasks) {
            for id in ids? {
                full.insert(id);
            }
        }
        drop(members);

        // Scan: a divergent edge (one endpoint illegitimate) inside a
        // fully represented SCC hosts a fair violating computation. Only
        // the states of those SCCs build their rows again, sorted, so the
        // witness is the first such edge in state order.
        let divergent_witness = par::divergent_edge(&scc_id, &full, &legitimate, workers, || {
            UnionRows::new(lowered)
        })
        .map_err(|c| self.out_of_domain(c))?;

        Ok(FairSelfReport {
            num_states: total,
            legitimate,
            divergent_witness,
        })
    }

    /// The error a sweep in state order reports when the Tarjan walk
    /// found `command` leaving its domain at `state`: the first enabled
    /// command that leaks at the lowest leaking state, which is `state`
    /// itself unless a lower state leaks too.
    fn first_leak(&self, lowered: &Lowered, state: usize, command: usize) -> GclError {
        let mut view = State::new(&lowered.layout);
        for _ in 0..state {
            if let Err(c) = lowered.enabled_targets(&mut view, |_, _| {}) {
                return self.out_of_domain(c);
            }
            view.advance();
        }
        self.out_of_domain(command)
    }

    /// Group worker of [`fair_self_check`](Self::fair_self_check):
    /// `members` lists `(SCC id, state)` pairs sorted by SCC id, never
    /// splitting an SCC. For each SCC, ORs the mask of commands whose
    /// edge stays inside it (a disabled command's skip always does) over
    /// its members, and returns the ids of the SCCs in which every
    /// command acts.
    fn full_groups_chunk(
        &self,
        lowered: &Lowered,
        members: &[(u32, u32)],
        scc_id: &[u32],
    ) -> Result<Vec<usize>, GclError> {
        let mut masks = vec![0u64; lowered.all.len()];
        let mut inside = lowered.all.clone();
        let mut full = Vec::new();
        let mut view = State::new(&lowered.layout);
        for group in members.chunk_by(|a, b| a.0 == b.0) {
            let id = group[0].0;
            masks.fill(0);
            for &(_, state) in group {
                view.load(u64::from(state));
                // A disabled command skips, which acts inside; clear the
                // enabled commands whose edge leaves.
                inside.copy_from_slice(&lowered.all);
                lowered
                    .enabled_targets(&mut view, |index, target| {
                        if scc_id[narrow(target)] != id {
                            inside[index / 64] &= !(1u64 << (index % 64));
                        }
                    })
                    .map_err(|index| self.out_of_domain(index))?;
                for (mask, inside) in masks.iter_mut().zip(&inside) {
                    *mask |= inside;
                }
                if masks == lowered.all {
                    full.push(id as usize);
                    break;
                }
            }
        }
        Ok(full)
    }
}

/// Splits `members`, sorted by SCC id, into at most `workers`
/// contiguous ranges that never split an SCC (no range when `members`
/// is empty).
fn scc_group_ranges(members: &[(u32, u32)], workers: usize) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    let mut start = 0;
    for chunk in chunk_ranges(members.len(), workers, 1) {
        let mut end = chunk.end.max(start);
        while end < members.len() && members[end].0 == members[end - 1].0 {
            end += 1;
        }
        if end > start {
            ranges.push(start..end);
            start = end;
        }
    }
    ranges
}

/// Rejects state spaces whose union graph would not fit the 32-bit
/// arrays of the fair self-checks (the quotient check's union CSR, and
/// the full check's row arena, which holds at most one row per state):
/// the state ids and the running edge count (each row has at most
/// `ncmd + 1` entries) must fit `u32`.
fn check_u32_csr(states: usize, ncmd: usize) -> Result<(), GclError> {
    let max_edges = (states as u64).saturating_mul(ncmd as u64 + 1);
    if u32::try_from(states).is_err() || max_edges > u64::from(u32::MAX) {
        return Err(GclError::TooManyStates {
            actual: states,
            max: narrow(u64::from(u32::MAX) / (ncmd as u64 + 1)),
        });
    }
    Ok(())
}

/// The fair self-check's union graph as [`par::tarjan`] walks it: a
/// state's row is built when the walk first reaches the state and
/// dropped when its frame pops, so only the rows of the states on the
/// DFS path are held, one after another in `arena`.
struct UnionDfs<'a, P> {
    lowered: &'a Lowered,
    init: &'a P,
    view: State<'a>,
    /// The rows of the states on the DFS path, in path order.
    arena: Vec<u32>,
    /// Where each of those rows starts in `arena`.
    starts: Vec<u32>,
    /// The initial states among those opened.
    init_states: StateSet,
    /// The opened states whose union row is exactly `[s]`.
    only_self: StateSet,
}

impl<P> par::Successors<u32> for UnionDfs<'_, P>
where
    P: for<'a, 'b> Fn(&'a State<'b>) -> bool,
{
    /// The state and the first enabled command whose effect left its
    /// domain there.
    type Error = (usize, usize);

    fn num_states(&self) -> usize {
        narrow(self.lowered.layout.total)
    }

    fn open(&mut self, v: usize) -> Result<u32, (usize, usize)> {
        self.view.load(v as u64);
        if (self.init)(&self.view) {
            self.init_states.insert(v);
        }
        let start = self.arena.len();
        self.lowered
            .union_row(&mut self.view, &mut self.arena)
            .map_err(|command| (v, command))?;
        if self.arena[start..].iter().all(|&t| t.at() == v) {
            self.only_self.insert(v);
        }
        self.starts.push(u32::of(start));
        Ok(u32::of(start))
    }

    #[inline]
    fn end(&self, _v: usize) -> u32 {
        u32::of(self.arena.len())
    }

    #[inline]
    fn target(&self, pos: u32) -> usize {
        self.arena[pos.at()].at()
    }

    fn close(&mut self) {
        let start = self.starts.pop().expect("every closed row was opened");
        self.arena.truncate(start.at());
    }
}

/// The fair self-check's union rows, sorted and deduplicated, built on
/// demand: one reader per worker of the divergent-edge scan.
struct UnionRows<'a> {
    lowered: &'a Lowered,
    view: State<'a>,
    row: Vec<u32>,
}

impl<'a> UnionRows<'a> {
    fn new(lowered: &'a Lowered) -> Self {
        UnionRows {
            lowered,
            view: State::new(&lowered.layout),
            row: Vec::with_capacity(lowered.commands.len() + 1),
        }
    }
}

impl par::Rows<u32> for UnionRows<'_> {
    /// The first enabled command whose effect left its domain.
    type Error = usize;

    fn row(&mut self, v: usize) -> Result<&[u32], usize> {
        self.view.load(v as u64);
        self.row.clear();
        self.lowered.union_row(&mut self.view, &mut self.row)?;
        self.row.sort_unstable();
        self.row.dedup();
        Ok(&self.row)
    }
}

/// Alignment of sharded sweep chunk boundaries: 64 keeps every chunk's
/// initial-state bits in bitset blocks no other chunk touches.
const CHUNK_ALIGN: usize = 64;

/// A BFS level of [`Program::compile_reachable`] is expanded in
/// parallel only when it has at least this many states; smaller levels
/// run inline on the caller.
const REACH_LEVEL_MIN: usize = 1 << 10;

/// One chunk of a sharded plain compile: row offsets relative to the
/// chunk (`off[0] == 0`), absolute targets, and the chunk's init bits
/// as raw 64-aligned blocks.
struct PlainChunk {
    off: Vec<usize>,
    to: Vec<usize>,
    init_blocks: Vec<u64>,
}

/// One chunk of the sharded fair sweep: plain rows, union rows, init
/// bits. Component columns are written in place through borrowed
/// slices, so they need no chunk output.
struct FairChunk {
    off: Vec<usize>,
    to: Vec<usize>,
    union_off: Vec<usize>,
    union_to: Vec<usize>,
    init_blocks: Vec<u64>,
}

/// A union graph as 32-bit CSR rows (`off`, `to`) and its initial
/// states, ascending.
type UnionCsr = (Vec<u32>, Vec<u32>, Vec<usize>);

/// One chunk of the quotient check's sharded union sweep: 32-bit union
/// rows with chunk-relative offsets and the chunk's initial states
/// (absolute, ascending).
struct UnionChunk {
    off: Vec<u32>,
    to: Vec<u32>,
    init_seeds: Vec<usize>,
}

impl UnionChunk {
    /// The global union CSR and the ascending initial-state list of the
    /// `total` states `chunks` cover.
    fn stitch(total: usize, chunks: &[Range<usize>], parts: Vec<UnionChunk>) -> UnionCsr {
        let mut init_seeds = Vec::new();
        let rows = parts
            .into_iter()
            .map(|part| {
                init_seeds.extend(part.init_seeds);
                (part.off, part.to)
            })
            .collect();
        let (off, to) = par::stitch_csr(total, chunks, rows);
        (off, to, init_seeds)
    }
}

/// A [`Program`] lowered once ([`Program::stepper`]), stepping one
/// packed state at a time.
#[derive(Debug)]
pub struct Stepper<'p> {
    program: &'p Program,
    lowered: Lowered,
}

impl Stepper<'_> {
    /// [`Program::step`] without lowering the program again.
    ///
    /// # Errors
    ///
    /// [`GclError::OutOfDomain`] for the first enabled command whose
    /// effect leaves its domain. A `state` outside the domain product is
    /// a caller bug and panics.
    pub fn step(&self, state: usize) -> Result<Vec<usize>, GclError> {
        let total = self.lowered.layout.total;
        assert!(
            (state as u64) < total,
            "state {state} outside the {total}-state space"
        );
        let mut view = State::new(&self.lowered.layout);
        view.load(state as u64);
        let mut row = Vec::with_capacity(self.lowered.commands.len().max(1));
        self.lowered
            .successor_row(&mut view, &mut row)
            .map_err(|c| self.program.out_of_domain(c))?;
        Ok(row)
    }
}

/// The verdict of [`Program::fair_self_check`].
#[derive(Debug, Clone)]
pub struct FairSelfReport {
    /// Size of the full domain product the check swept.
    pub num_states: usize,
    /// The init-reachable ("legitimate") states, as packed state indices.
    pub legitimate: StateSet,
    /// A divergent edge inside a fully represented SCC — the seed of a
    /// weakly fair computation that never converges — or `None` when the
    /// program is stabilizing to its legitimate behaviour.
    pub divergent_witness: Option<(usize, usize)>,
}

impl FairSelfReport {
    /// True when the fair composition is stabilizing.
    pub fn holds(&self) -> bool {
        self.divergent_witness.is_none()
    }

    /// Number of legitimate states.
    pub fn num_legitimate(&self) -> usize {
        self.legitimate.len()
    }
}

/// The result of compiling a [`Program`]: the system plus enough metadata
/// to decode states back into variable valuations.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    system: FiniteSystem,
    var_info: Vec<(String, usize)>,
}

impl CompiledProgram {
    /// The compiled transition system.
    pub fn system(&self) -> &FiniteSystem {
        &self.system
    }

    /// Decodes a state index into a valuation (declaration order).
    pub fn decode(&self, mut state: usize) -> Vec<usize> {
        let mut values = Vec::with_capacity(self.var_info.len());
        for (_, domain) in &self.var_info {
            values.push(state % domain);
            state /= domain;
        }
        values
    }

    /// Variable names in declaration order.
    pub fn var_names(&self) -> Vec<&str> {
        self.var_info
            .iter()
            .map(|(name, _)| name.as_str())
            .collect()
    }
}

/// The result of [`Program::compile_reachable`]: the init-reachable
/// fragment as a dense [`FiniteSystem`] plus the packed word behind each
/// dense state id.
#[derive(Debug, Clone)]
pub struct ReachableProgram {
    system: FiniteSystem,
    words: Vec<u64>,
    var_info: Vec<(String, usize)>,
    layout: Layout,
}

impl ReachableProgram {
    /// The compiled reachable-fragment system (every state is
    /// init-reachable by construction).
    pub fn system(&self) -> &FiniteSystem {
        &self.system
    }

    /// The packed full-space word behind dense state `id`.
    pub fn word(&self, id: usize) -> u64 {
        self.words[id]
    }

    /// Decodes dense state `id` into a valuation (declaration order).
    pub fn decode(&self, id: usize) -> Vec<usize> {
        let word = self.words[id];
        (0..self.var_info.len())
            .map(|var| narrow(self.layout.field(word, var)))
            .collect()
    }

    /// Variable names in declaration order.
    pub fn var_names(&self) -> Vec<&str> {
        self.var_info
            .iter()
            .map(|(name, _)| name.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::ir::{Cond, Expr, IrCommand, Stmt};
    use super::*;

    /// Adds `name :: guard → body`.
    fn add(p: &mut Program, name: &str, guard: Cond, body: Vec<Stmt>) {
        p.command_ir(IrCommand::new(name, guard, body));
    }

    /// `var == value`.
    fn is(var: VarRef, value: usize) -> Cond {
        Expr::var(var).eq(Expr::int(value))
    }

    /// `var := value`.
    fn set(var: VarRef, value: usize) -> Stmt {
        Stmt::assign(var, Expr::int(value))
    }

    /// A command that is never enabled.
    fn noop(p: &mut Program) {
        add(p, "noop", Cond::Const(false), vec![]);
    }

    #[test]
    fn counter_program_compiles() {
        let mut p = Program::new();
        let x = p.var("x", 4);
        add(
            &mut p,
            "inc",
            Expr::var(x).lt(Expr::int(3)),
            vec![Stmt::assign(x, Expr::var(x).add(Expr::int(1)))],
        );
        let compiled = p.compile(|s| s.get(x) == 0).unwrap();
        assert_eq!(compiled.system().num_states(), 4);
        assert!(compiled.system().has_edge(0, 1));
        assert!(compiled.system().has_edge(3, 3)); // quiescent
        assert_eq!(compiled.system().init().len(), 1);
    }

    #[test]
    fn two_variable_encoding_round_trips() {
        let mut p = Program::new();
        let x = p.var("x", 3);
        let y = p.var("y", 5);
        noop(&mut p);
        let compiled = p.compile(|_| true).unwrap();
        assert_eq!(compiled.system().num_states(), 15);
        for state in 0..15 {
            let vals = compiled.decode(state);
            assert!(vals[x.index()] < 3 && vals[y.index()] < 5);
        }
        assert_eq!(compiled.var_names(), vec!["x", "y"]);
    }

    #[test]
    fn nondeterminism_creates_branches() {
        let mut p = Program::new();
        let x = p.var("x", 3);
        add(&mut p, "up", is(x, 0), vec![set(x, 1)]);
        add(&mut p, "over", is(x, 0), vec![set(x, 2)]);
        let compiled = p.compile(|s| s.get(x) == 0).unwrap();
        assert!(compiled.system().has_edge(0, 1));
        assert!(compiled.system().has_edge(0, 2));
    }

    #[test]
    fn out_of_domain_effect_is_reported() {
        let mut p = Program::new();
        let x = p.var("x", 2);
        add(&mut p, "overflow", Cond::Const(true), vec![set(x, 7)]);
        let err = p.compile(|_| true).unwrap_err();
        assert_eq!(
            err,
            GclError::OutOfDomain {
                command: "overflow".into()
            }
        );
    }

    #[test]
    fn self_check_reports_the_first_leak_in_state_order() {
        // x = 1 and x = 3 both leak. The Tarjan walk opens 0, follows
        // "jump" and reaches 3 first; the report is still the first
        // leaking command at 1, the lowest leaking state, as a sweep in
        // state order (and the compiler) would find it.
        let mut p = Program::new();
        let x = p.var("x", 4);
        add(&mut p, "jump", is(x, 0), vec![set(x, 3)]);
        add(&mut p, "late", is(x, 3), vec![set(x, 9)]);
        add(&mut p, "early", is(x, 1), vec![set(x, 7)]);
        add(
            &mut p,
            "also",
            Expr::var(x).ge(Expr::int(1)),
            vec![set(x, 8)],
        );
        let init = move |s: &State<'_>| s.get(x) == 0;
        let expected = GclError::OutOfDomain {
            command: "early".into(),
        };
        assert_eq!(p.compile(init).unwrap_err(), expected);
        for workers in 1..=4 {
            assert_eq!(
                p.fair_self_check_on(workers, init).unwrap_err(),
                expected,
                "{workers} workers"
            );
        }
        // With x = 1 repaired, the leak the walk found is the first one.
        let mut p = Program::new();
        let x = p.var("x", 4);
        add(&mut p, "jump", is(x, 0), vec![set(x, 3)]);
        add(&mut p, "late", is(x, 3), vec![set(x, 9)]);
        add(
            &mut p,
            "also",
            Expr::var(x).ge(Expr::int(3)),
            vec![set(x, 8)],
        );
        assert_eq!(
            p.fair_self_check(move |s| s.get(x) == 0).unwrap_err(),
            GclError::OutOfDomain {
                command: "late".into()
            }
        );
    }

    #[test]
    fn empty_domain_is_reported() {
        let mut p = Program::new();
        p.var("x", 0);
        noop(&mut p);
        assert!(matches!(
            p.compile(|_| true).unwrap_err(),
            GclError::EmptyDomain { .. }
        ));
    }

    #[test]
    fn no_initial_state_is_reported() {
        let mut p = Program::new();
        let x = p.var("x", 2);
        noop(&mut p);
        let err = p.compile(move |s| s.get(x) > 5).unwrap_err();
        assert_eq!(err, GclError::NoInitialState);
    }

    #[test]
    fn state_cap_is_enforced() {
        let mut p = Program::new();
        p.var("x", 100);
        p.var("y", 100);
        noop(&mut p);
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
    fn domain_product_overflow_is_checked_not_wrapped() {
        // 2^80 states cannot be represented; the error must be the
        // saturated TooManyStates, not a wrapped product slipping under
        // the cap.
        let mut p = Program::new();
        for i in 0..4 {
            p.var(format!("x{i}"), 1 << 20);
        }
        noop(&mut p);
        p.max_states(usize::MAX);
        assert_eq!(
            p.compile(|_| true).unwrap_err(),
            GclError::TooManyStates {
                actual: usize::MAX,
                max: usize::MAX
            }
        );
        assert!(p.state_space().is_err());
    }

    #[test]
    fn fair_compilation_has_one_component_per_command() {
        let mut p = Program::new();
        let x = p.var("x", 2);
        add(&mut p, "flip", is(x, 0), vec![set(x, 1)]);
        add(&mut p, "flop", is(x, 1), vec![set(x, 0)]);
        let (fair, compiled) = p.compile_fair(|s| s.get(x) == 0).unwrap();
        assert_eq!(fair.components().len(), 2);
        // Disabled commands skip: "flip" at state 1 self-loops.
        assert!(fair.components()[0].has_edge(1, 1));
        assert!(fair.components()[0].has_edge(0, 1));
        // Every effective edge of the plain compilation appears in the fair
        // union (which additionally has disabled-command skips).
        assert!(compiled.system().edges().is_subset(fair.union().edges()));
    }

    #[test]
    fn fair_union_may_add_skips_at_quiescent_states() {
        let mut p = Program::new();
        let x = p.var("x", 2);
        add(&mut p, "once", is(x, 0), vec![set(x, 1)]);
        let (fair, compiled) = p.compile_fair(|_| true).unwrap();
        assert!(fair.union().has_edge(1, 1));
        assert!(compiled.system().has_edge(1, 1));
    }

    #[test]
    fn error_display_is_informative() {
        let err = GclError::TooManyStates { actual: 10, max: 5 };
        assert!(err.to_string().contains("10"));
        let err = GclError::NoInitialState;
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn effects_see_their_own_writes_and_roll_back() {
        // An effect that reads after writing must see the new value, and
        // the sweep must restore the pre-state for the next command.
        let mut p = Program::new();
        let x = p.var("x", 5);
        let y = p.var("y", 5);
        add(
            &mut p,
            "chain",
            Expr::var(x).lt(Expr::int(4)),
            vec![
                Stmt::assign(x, Expr::var(x).add(Expr::int(1))),
                Stmt::assign(y, Expr::var(x)), // reads the just-written x
            ],
        );
        // The guard must still see the pre-state.
        add(&mut p, "observe", is(x, 0), vec![set(y, 4)]);
        let compiled = p.compile(|s| s.get(x) == 0 && s.get(y) == 0).unwrap();
        // From (x=0, y=0): chain -> (1, 1) = 1 + 5*1 = 6; observe -> (0, 4) = 20.
        assert!(compiled.system().has_edge(0, 6));
        assert!(compiled.system().has_edge(0, 20));
    }

    #[test]
    fn packed_round_trip_at_domain_boundaries() {
        // Layouts with unit, even, odd, and large domains: loading any
        // word and re-reading every field must reproduce the mixed-radix
        // digits, and set() must land exactly on the stride arithmetic.
        for domains in [
            vec![1usize, 2, 3],
            vec![7, 1, 4, 3],
            vec![2; 10],
            vec![1000, 3, 1000],
        ] {
            let mut p = Program::new();
            let vars: Vec<VarRef> = domains
                .iter()
                .enumerate()
                .map(|(i, &d)| p.var(format!("v{i}"), d))
                .collect();
            p.max_states(usize::MAX);
            let layout = p.layout().unwrap();
            let total = layout.total;
            let mut view = State::new(&layout);
            for word in [0, 1, total / 2, total.saturating_sub(2), total - 1] {
                let word = word.min(total - 1);
                view.load(word);
                assert_eq!(view.word, word);
                let mut expect = word;
                for (&var, &d) in vars.iter().zip(&domains) {
                    assert_eq!(view.get(var) as u64, expect % d as u64);
                    expect /= d as u64;
                }
                // Drive every field to its boundary values and back.
                for (&var, &d) in vars.iter().zip(&domains) {
                    let old = view.get(var);
                    view.set(var, d - 1);
                    assert_eq!(view.get(var), d - 1);
                    view.set(var, 0);
                    assert_eq!(view.get(var), 0);
                    view.set(var, old);
                }
                assert_eq!(view.word, word, "round trip failed for {domains:?}");
            }
        }
    }

    #[test]
    fn odometer_matches_load_everywhere() {
        let mut p = Program::new();
        let vars = [p.var("a", 3), p.var("b", 1), p.var("c", 4)];
        let layout = p.layout().unwrap();
        let mut odo = State::new(&layout);
        let mut fresh = State::new(&layout);
        for word in 0..layout.total {
            fresh.load(word);
            assert_eq!(odo.word, word);
            for var in vars {
                assert_eq!(odo.get(var), fresh.get(var));
            }
            odo.advance();
        }
    }

    #[test]
    fn reachable_compile_matches_full_compile_restricted() {
        // A counter ring with an unreachable upper region.
        let mut p = Program::new();
        let x = p.var("x", 6);
        add(
            &mut p,
            "cycle",
            Expr::var(x).lt(Expr::int(3)),
            vec![Stmt::assign(x, Expr::var(x).add(Expr::int(1)).modulo(3))],
        );
        let reachable = p.compile_reachable(|s| s.get(x) == 0).unwrap();
        assert_eq!(reachable.system().num_states(), 3);
        assert_eq!(reachable.system().init().len(), 1);
        // Dense ids are discovery-ordered: 0 -> 1 -> 2 -> 0.
        assert!(reachable.system().has_edge(0, 1));
        assert!(reachable.system().has_edge(2, 0));
        assert_eq!(reachable.decode(2), vec![2]);
        assert_eq!(reachable.word(1), 1);
        assert_eq!(reachable.var_names(), vec!["x"]);
        // States 3..6 exist in the full compile but not here.
        let full = p.compile(|s| s.get(x) == 0).unwrap();
        assert_eq!(full.system().num_states(), 6);
    }

    #[test]
    fn reachable_compile_requires_an_initial_state() {
        let mut p = Program::new();
        let x = p.var("x", 2);
        noop(&mut p);
        assert_eq!(
            p.compile_reachable(move |s| s.get(x) > 5).unwrap_err(),
            GclError::NoInitialState
        );
    }

    #[test]
    fn fair_self_check_agrees_with_materialized_check_on_a_ring() {
        use crate::synthesis::stutter_closure;
        // One convergent instance and one divergent instance.
        for divergent in [false, true] {
            let mut p = Program::new();
            let x = p.var("x", 4);
            add(
                &mut p,
                "down",
                Expr::var(x).gt(Expr::int(1)),
                vec![Stmt::assign(x, Expr::var(x).sub(Expr::int(1)))],
            );
            add(
                &mut p,
                "swap",
                Expr::var(x).le(Expr::int(1)),
                vec![Stmt::assign(x, Expr::int(1).sub(Expr::var(x)))],
            );
            if divergent {
                // A cycle pinned outside the legitimate set.
                add(&mut p, "relapse", is(x, 2), vec![set(x, 3)]);
                add(&mut p, "fall", is(x, 3), vec![set(x, 2)]);
            }
            let init = move |s: &State<'_>| s.get(x) == 0;
            let report = p.fair_self_check(init).unwrap();
            let (fair, compiled) = p.compile_fair(init).unwrap();
            let materialized = fair.is_stabilizing_to(&stutter_closure(compiled.system()));
            assert_eq!(report.holds(), materialized.holds());
            assert_eq!(report.holds(), !divergent);
            assert_eq!(report.num_states, 4);
            assert_eq!(
                report.legitimate,
                *stutter_closure(compiled.system()).reachable_from_init()
            );
            assert_eq!(report.num_legitimate(), 2);
        }
    }

    /// Runs the streamed self-check at 1, 2 and 4 workers, asserts each
    /// report equals the materialized verdict and the others, and
    /// returns the one-worker report.
    fn self_check_against_materialized(
        p: &Program,
        init: impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync + Copy,
    ) -> FairSelfReport {
        use crate::synthesis::stutter_closure;
        let (fair, compiled) = p.compile_fair(init).unwrap();
        let materialized = fair.is_stabilizing_to(&stutter_closure(compiled.system()));
        let one = p.fair_self_check_on(1, init).unwrap();
        assert_eq!(one.holds(), materialized.holds());
        for workers in [2, 4] {
            let report = p.fair_self_check_on(workers, init).unwrap();
            assert_eq!(report.divergent_witness, one.divergent_witness);
            assert_eq!(report.legitimate, one.legitimate);
        }
        one
    }

    #[test]
    fn a_singleton_of_self_loops_and_skips_is_fully_represented() {
        // x = 2 is an illegitimate fixpoint: "stay" and "hold" map it to
        // itself, and "up" is disabled there. Its union row is [2], so
        // the singleton is fully represented and hosts a violation.
        let mut p = Program::new();
        let x = p.var("x", 3);
        add(&mut p, "up", is(x, 0), vec![set(x, 1)]);
        add(&mut p, "stay", is(x, 2), vec![set(x, 2)]);
        add(&mut p, "hold", is(x, 2), vec![]);
        let report = self_check_against_materialized(&p, move |s| s.get(x) == 0);
        assert_eq!(report.divergent_witness, Some((2, 2)));

        // The same with every command enabled at x = 2, so the row [2]
        // carries no skip.
        let mut p = Program::new();
        let x = p.var("x", 3);
        add(
            &mut p,
            "up",
            Cond::Const(true),
            vec![Stmt::when(is(x, 0), vec![set(x, 1)])],
        );
        add(&mut p, "hold", Cond::Const(true), vec![]);
        let report = self_check_against_materialized(&p, move |s| s.get(x) == 0);
        assert_eq!(report.divergent_witness, Some((2, 2)));
    }

    #[test]
    fn a_singleton_with_a_leaving_command_is_not_fully_represented() {
        // At x = 2, "back" leaves for the legitimate x = 0 while "up"
        // skips: the row [0, 2] carries a divergent self-loop, but "back"
        // never acts inside {2}, so no fair computation stays there.
        let mut p = Program::new();
        let x = p.var("x", 3);
        add(&mut p, "up", is(x, 0), vec![set(x, 1)]);
        add(&mut p, "back", is(x, 2), vec![set(x, 0)]);
        let report = self_check_against_materialized(&p, move |s| s.get(x) == 0);
        assert!(report.holds());
        assert_eq!(report.num_legitimate(), 2);
    }

    #[test]
    fn a_program_with_only_singleton_sccs_is_decided_at_every_worker_count() {
        // An acyclic counter: every SCC is a singleton, so no state runs
        // its commands again and no worker gets a group.
        let mut p = Program::new();
        let x = p.var("x", 200);
        add(
            &mut p,
            "inc",
            Expr::var(x).lt(Expr::int(199)),
            vec![Stmt::assign(x, Expr::var(x).add(Expr::int(1)))],
        );
        let report = self_check_against_materialized(&p, move |s| s.get(x) == 0);
        assert!(report.holds());
        assert_eq!(report.num_legitimate(), 200);
        // From x = 1 on, x = 0 is illegitimate but only leaves.
        let report = self_check_against_materialized(&p, move |s| s.get(x) == 1);
        assert!(report.holds());
        assert_eq!(report.num_legitimate(), 199);
    }

    /// FNV-1a over the little-endian bytes of `values`, continuing `hash`.
    fn fnv1a(hash: u64, values: impl IntoIterator<Item = u64>) -> u64 {
        values
            .into_iter()
            .flat_map(u64::to_le_bytes)
            .fold(hash, |hash, byte| {
                (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// `(digest, edges)` of the n-process TME model's union graph as a
    /// sorted CSR, rebuilt from the rows the fair self-check builds:
    /// FNV-1a over `off`, then `to`, then the initial states, each entry
    /// as eight little-endian bytes.
    fn nproc_union_digest(n: usize, with_wrapper: bool) -> (u64, usize) {
        use crate::par::Rows;
        let (program, init) = crate::tme_abstract::program_nproc_ir(n, with_wrapper);
        let lowered = program.lower().unwrap();
        let total = narrow(lowered.layout.total);
        let mut rows = UnionRows::new(&lowered);
        let mut off = vec![0u64];
        let mut to: Vec<u64> = Vec::new();
        let mut seeds: Vec<u64> = Vec::new();
        let mut view = State::new(&lowered.layout);
        for state in 0..total {
            if init(&view) {
                seeds.push(state as u64);
            }
            view.advance();
            to.extend(rows.row(state).unwrap().iter().map(|&t| u64::from(t)));
            off.push(to.len() as u64);
        }
        let hash = fnv1a(0xcbf2_9ce4_8422_2325, off);
        let hash = fnv1a(hash, to.iter().copied());
        let hash = fnv1a(hash, seeds);
        (hash, to.len())
    }

    /// Asserts the union CSR digest and edge count of the unwrapped and
    /// wrapped n-process models.
    fn assert_union_csr_pinned(n: usize, pins: [(u64, usize); 2]) {
        for (with_wrapper, pin) in [false, true].into_iter().zip(pins) {
            assert_eq!(
                nproc_union_digest(n, with_wrapper),
                pin,
                "n = {n}, wrapper = {with_wrapper}"
            );
        }
    }

    #[test]
    fn n2_union_csr_is_pinned() {
        assert_union_csr_pinned(
            2,
            [
                (0x9dff_aef2_0674_d3d6, 2_412),
                (0x0a4a_4138_52e2_9506, 2_484),
            ],
        );
    }

    #[test]
    #[ignore = "builds the rows of 7.5M states twice; CI runs it in release"]
    fn n3_union_csr_is_pinned() {
        assert_union_csr_pinned(
            3,
            [
                (0xf64b_6901_b5cc_01ff, 48_498_912),
                (0xea3c_db9d_b1dc_7cf6, 51_018_336),
            ],
        );
    }

    #[test]
    fn fair_self_check_rejects_empty_command_lists() {
        let mut p = Program::new();
        p.var("x", 2);
        assert!(matches!(
            p.fair_self_check(|_| true).unwrap_err(),
            GclError::System(SystemError::EmptyStateSpace)
        ));
    }
}
