//! Symmetry quotient over the packed mixed-radix state word.
//!
//! A [`SymmetrySpec`] is a finite permutation group acting on a
//! [`Program`]'s packed states: each element permutes the
//! variables (and optionally relabels values, e.g. the `ord` ground-truth
//! permutation index of the TME model) and correspondingly permutes the
//! commands. The *canonical form* of a state is the lexicographically
//! smallest packed word in its orbit, so interning canonical
//! representatives only cuts the state space by up to the group order
//! (`n!` for the n-process TME model).
//!
//! The quotient is **verdict-exact** for the streaming stabilization
//! check ([`Program::fair_self_check_sym`]) — not merely
//! reachability-preserving — via a holonomy-annotated sweep: every
//! canonical state carries the group element relating it to a reference
//! "sheet" (a full-space SCC), non-tree quotient edges contribute
//! *defect* generators of the sheet's stabilizer, and per-SCC command
//! presence is closed under conjugation by those defects. DESIGN.md §13
//! develops the soundness argument; `tests/reduction_differential.rs`
//! and the TME n=2/n=3 equality tests enforce it bit-for-bit against the
//! unreduced oracle.

use std::collections::HashMap;
use std::ops::Range;

use crate::bitset::StateSet;
use crate::par;
use crate::sweep::{chunk_ranges, join_all};
use crate::SystemError;

use super::{
    check_u32_csr, narrow, GclError, Layout, Lowered, Program, State, UnionChunk, CHUNK_ALIGN,
};

/// One group element of a program symmetry, in caller-facing form.
///
/// The element `g` maps a state `w` to the state `g·w` defined by
/// `(g·w)[var_perm[i]] = value_maps[i](w[i])` — variable `i`'s (possibly
/// relabelled) value moves to position `var_perm[i]`. A `None` value map
/// is the identity relabelling. `cmd_perm` names the command the element
/// carries each command to: equivariance means `c` is enabled at `w`
/// exactly when `cmd_perm[c]` is enabled at `g·w`, with
/// `g·c(w) = cmd_perm[c](g·w)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetryElement {
    /// Where each variable's value goes: `i ↦ var_perm[i]`.
    pub var_perm: Vec<usize>,
    /// Per-variable value relabelling (`None` = identity). A `Some` map
    /// must be a permutation of `0..domain(i)`.
    pub value_maps: Vec<Option<Vec<usize>>>,
    /// Where each command goes: `c ↦ cmd_perm[c]`.
    pub cmd_perm: Vec<usize>,
}

impl SymmetryElement {
    /// The identity element for `num_vars` variables and `num_commands`
    /// commands.
    pub fn identity(num_vars: usize, num_commands: usize) -> Self {
        SymmetryElement {
            var_perm: (0..num_vars).collect(),
            value_maps: vec![None; num_vars],
            cmd_perm: (0..num_commands).collect(),
        }
    }
}

/// Why a [`SymmetrySpec`] could not be built or validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymmetryError {
    /// No elements were supplied (a group needs at least the identity).
    Empty,
    /// Element 0 is not the identity.
    FirstNotIdentity,
    /// An element's tables are malformed (wrong arity, not a
    /// permutation, or value-map lengths inconsistent across elements).
    Malformed {
        /// Index of the offending element.
        element: usize,
    },
    /// Two supplied elements act identically.
    Duplicate {
        /// Index of the first copy.
        first: usize,
        /// Index of the second copy.
        second: usize,
    },
    /// Composing elements `g ∘ f` left the supplied set: not a group.
    NotClosed {
        /// Left factor.
        g: usize,
        /// Right factor.
        f: usize,
    },
    /// More elements than annotations can index (the group order must
    /// fit `u16`).
    TooLarge,
    /// The spec does not fit the program: a variable is permuted onto
    /// one with a different domain, or a value map has the wrong length.
    DomainMismatch {
        /// Offending element.
        element: usize,
        /// Offending variable.
        var: usize,
    },
    /// Arity mismatch against the program (variable or command counts).
    WrongProgram,
    /// A sampled state broke equivariance: `cmd_perm[c]` at `g·w` did
    /// not mirror `c` at `w`.
    NotEquivariant {
        /// Offending element.
        element: usize,
        /// Offending command.
        command: usize,
    },
}

impl std::fmt::Display for SymmetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymmetryError::Empty => write!(f, "a symmetry group needs at least the identity"),
            SymmetryError::FirstNotIdentity => write!(f, "element 0 must be the identity"),
            SymmetryError::Malformed { element } => {
                write!(f, "element {element} has malformed permutation tables")
            }
            SymmetryError::Duplicate { first, second } => {
                write!(f, "elements {first} and {second} act identically")
            }
            SymmetryError::NotClosed { g, f: rhs } => {
                write!(f, "composition {g} ∘ {rhs} is not in the supplied set")
            }
            SymmetryError::TooLarge => write!(f, "group order must fit u16"),
            SymmetryError::DomainMismatch { element, var } => {
                write!(
                    f,
                    "element {element} maps variable {var} across unequal domains"
                )
            }
            SymmetryError::WrongProgram => {
                write!(
                    f,
                    "spec arity does not match the program's variables/commands"
                )
            }
            SymmetryError::NotEquivariant { element, command } => write!(
                f,
                "element {element} is not a program symmetry: command {command} broke equivariance"
            ),
        }
    }
}

impl std::error::Error for SymmetryError {}

/// Canonical internal form of one element's tables, used as the key for
/// the composition table (identity value maps normalized to `None`).
type ElemKey = (Vec<u32>, Vec<Option<Vec<u32>>>, Vec<u32>);

/// A validated finite symmetry group of a [`Program`],
/// with closure, inverse, and command-conjugation tables precomputed so
/// the quotient sweeps pay only mul-adds per image.
#[derive(Debug, Clone)]
pub struct SymmetrySpec {
    num_vars: usize,
    num_commands: usize,
    order: usize,
    /// `var_perm[g][i]`: target position of variable `i` under `g`.
    var_perm: Vec<Vec<u32>>,
    /// `var_perm_inv[g][p]`: which variable lands on position `p`.
    var_perm_inv: Vec<Vec<u32>>,
    /// `value_map[g][i]`: relabelling applied to variable `i`'s value.
    value_map: Vec<Vec<Option<Vec<u32>>>>,
    /// `cmd_perm[g][c]`: image of command `c` under `g`.
    cmd_perm: Vec<Vec<u32>>,
    /// `compose[g * order + f]` = the element acting as `g ∘ f`
    /// (`(g ∘ f)·w = g·(f·w)`).
    compose: Vec<u16>,
    /// `inverse[g]` = the element acting as `g⁻¹`.
    inverse: Vec<u16>,
    /// `lead[v]`: the elements, ascending, whose image digit at the top
    /// position is least when the top variable holds `v` — the only ones
    /// that can reach the orbit minimum ([`lead_table`]; empty when the
    /// spec has none).
    lead: Vec<Vec<u16>>,
    /// `0..order`: the candidate slice of a spec without a lead table.
    every: Vec<u16>,
}

/// Narrows a group-element index to the `u16` annotation space. In range
/// by construction: [`SymmetrySpec::new`] rejects orders beyond `u16`.
#[inline]
#[allow(clippy::cast_possible_truncation)]
fn elem16(g: usize) -> u16 {
    g as u16
}

impl SymmetrySpec {
    /// Builds a spec from explicit elements. Element 0 must be the
    /// identity; the set must be closed under composition (it is then a
    /// group, since the actions are injective).
    ///
    /// # Errors
    ///
    /// See [`SymmetryError`].
    pub fn new(elements: &[SymmetryElement]) -> Result<Self, SymmetryError> {
        if elements.is_empty() {
            return Err(SymmetryError::Empty);
        }
        let order = elements.len();
        if u16::try_from(order).is_err() {
            return Err(SymmetryError::TooLarge);
        }
        let num_vars = elements[0].var_perm.len();
        let num_commands = elements[0].cmd_perm.len();

        // Normalize and structurally check every element.
        let mut var_perm: Vec<Vec<u32>> = Vec::with_capacity(order);
        let mut value_map: Vec<Vec<Option<Vec<u32>>>> = Vec::with_capacity(order);
        let mut cmd_perm: Vec<Vec<u32>> = Vec::with_capacity(order);
        // The best-known domain size per variable, from `Some` maps.
        let mut dom: Vec<Option<usize>> = vec![None; num_vars];
        for (at, elem) in elements.iter().enumerate() {
            let malformed = SymmetryError::Malformed { element: at };
            if elem.var_perm.len() != num_vars
                || elem.value_maps.len() != num_vars
                || elem.cmd_perm.len() != num_commands
                || !is_permutation(&elem.var_perm, num_vars)
                || !is_permutation(&elem.cmd_perm, num_commands)
            {
                return Err(malformed);
            }
            let mut maps: Vec<Option<Vec<u32>>> = Vec::with_capacity(num_vars);
            for (i, map) in elem.value_maps.iter().enumerate() {
                match map {
                    None => maps.push(None),
                    Some(map) => {
                        if map.is_empty() || !is_permutation(map, map.len()) {
                            return Err(malformed.clone());
                        }
                        match dom[i] {
                            None => dom[i] = Some(map.len()),
                            Some(len) if len == map.len() => {}
                            Some(_) => return Err(malformed.clone()),
                        }
                        maps.push(normalize_map(map));
                    }
                }
            }
            var_perm.push(elem.var_perm.iter().map(|&i| narrow32(i)).collect());
            value_map.push(maps);
            cmd_perm.push(elem.cmd_perm.iter().map(|&c| narrow32(c)).collect());
        }
        if var_perm[0]
            .iter()
            .enumerate()
            .any(|(i, &p)| p as usize != i)
            || cmd_perm[0]
                .iter()
                .enumerate()
                .any(|(c, &p)| p as usize != c)
            || value_map[0].iter().any(Option::is_some)
        {
            return Err(SymmetryError::FirstNotIdentity);
        }

        // Index every element by its normalized action.
        let mut index: HashMap<ElemKey, usize> = HashMap::with_capacity(order);
        for g in 0..order {
            let key = (
                var_perm[g].clone(),
                value_map[g].clone(),
                cmd_perm[g].clone(),
            );
            if let Some(&first) = index.get(&key) {
                return Err(SymmetryError::Duplicate { first, second: g });
            }
            index.insert(key, g);
        }

        // Closure (and thus the composition table): `g ∘ f` must be listed.
        let mut compose = vec![0u16; order * order];
        for g in 0..order {
            for f in 0..order {
                let mut vp = vec![0u32; num_vars];
                let mut vm: Vec<Option<Vec<u32>>> = vec![None; num_vars];
                for i in 0..num_vars {
                    let mid = var_perm[f][i] as usize;
                    vp[i] = var_perm[g][mid];
                    let composed = match (&value_map[g][mid], &value_map[f][i]) {
                        (None, None) => None,
                        (Some(outer), None) => Some(outer.clone()),
                        (None, Some(inner)) => Some(inner.clone()),
                        (Some(outer), Some(inner)) => {
                            if outer.len() != inner.len() {
                                return Err(SymmetryError::Malformed { element: g });
                            }
                            Some(inner.iter().map(|&v| outer[v as usize]).collect())
                        }
                    };
                    vm[i] = composed.and_then(normalize_map32);
                }
                let cp: Vec<u32> = (0..num_commands)
                    .map(|c| cmd_perm[g][cmd_perm[f][c] as usize])
                    .collect();
                let Some(&at) = index.get(&(vp, vm, cp)) else {
                    return Err(SymmetryError::NotClosed { g, f });
                };
                compose[g * order + f] = elem16(at);
            }
        }

        // Inverses exist in any finite set of injective actions closed
        // under composition; read them off the table.
        let mut inverse = vec![0u16; order];
        for g in 0..order {
            let inv = (0..order)
                .find(|&h| compose[h * order + g] == 0)
                .ok_or(SymmetryError::NotClosed { g, f: g })?;
            inverse[g] = elem16(inv);
        }

        let var_perm_inv = var_perm
            .iter()
            .map(|vp| {
                let mut inv = vec![0u32; num_vars];
                for (i, &p) in vp.iter().enumerate() {
                    inv[p as usize] = narrow32(i);
                }
                inv
            })
            .collect();

        let lead = lead_table(&var_perm, &value_map);

        Ok(SymmetrySpec {
            num_vars,
            num_commands,
            order,
            var_perm,
            var_perm_inv,
            value_map,
            cmd_perm,
            compose,
            inverse,
            every: (0..order).map(elem16).collect(),
            lead,
        })
    }

    /// The group order (number of elements, identity included).
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of variables the group acts on.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of commands the group acts on.
    pub fn num_commands(&self) -> usize {
        self.num_commands
    }

    /// The image of command `c` under element `g`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn command_image(&self, g: usize, c: usize) -> usize {
        self.cmd_perm[g][c] as usize
    }

    /// The position variable `i` is carried to by element `g` — the
    /// static counterpart of [`command_image`](Self::command_image),
    /// used by certifier passes that argue "one representative pair
    /// suffices" from the group's transitivity on variable positions.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn variable_image(&self, g: usize, i: usize) -> usize {
        self.var_perm[g][i] as usize
    }

    /// `g ∘ f` as an element index (`(g ∘ f)·w = g·(f·w)`).
    pub(super) fn comp(&self, g: u16, f: u16) -> u16 {
        self.compose[g as usize * self.order + f as usize]
    }

    /// `g⁻¹` as an element index.
    pub(super) fn inv(&self, g: u16) -> u16 {
        self.inverse[g as usize]
    }

    /// The packed word of `g·w`, from `w`'s decoded values.
    pub(super) fn image(&self, layout: &Layout, values: &[u64], g: usize) -> u64 {
        let vp = &self.var_perm[g];
        let vm = &self.value_map[g];
        let mut word = 0u64;
        for (i, &v) in values.iter().enumerate() {
            let mapped = match &vm[i] {
                Some(map) => u64::from(map[narrow(v)]),
                None => v,
            };
            word += layout.strides[vp[i] as usize] * mapped;
        }
        word
    }

    /// Is `g·w < h·w`? Compares the two images digit by digit from the
    /// most significant position down and bails at the first difference,
    /// so neither image is ever packed — the hot path of canonical
    /// enumeration and canonicalization. (Mixed-radix digits are below
    /// their domains, so digit order is numeric order.)
    fn image_less(&self, values: &[u64], g: usize, h: usize) -> bool {
        let (g_inv, g_map) = (&self.var_perm_inv[g], &self.value_map[g]);
        let (h_inv, h_map) = (&self.var_perm_inv[h], &self.value_map[h]);
        for p in (0..self.num_vars).rev() {
            let a = image_digit(values, g_inv, g_map, p);
            let b = image_digit(values, h_inv, h_map, p);
            if a != b {
                return a < b;
            }
        }
        false
    }

    /// The elements that can reach `w`'s orbit minimum, ascending:
    /// `lead[v]` for the top variable's value `v`, or every element when
    /// the spec has no lead table.
    fn candidates(&self, values: &[u64]) -> &[u16] {
        match values.last() {
            Some(&v) if !self.lead.is_empty() => &self.lead[narrow(v)],
            _ => &self.every,
        }
    }

    /// Is `w` the lexicographic minimum of its orbit? (Ties never arise:
    /// equality with the self-image does not disqualify.) A `w` whose
    /// candidates exclude the identity loses on the top digit to the
    /// first of them.
    pub(super) fn is_canonical(&self, values: &[u64]) -> bool {
        self.candidates(values)
            .iter()
            .all(|&g| g == 0 || !self.image_less(values, g as usize, 0))
    }

    /// The canonical representative of `w`'s orbit and the smallest
    /// element index achieving it (the *canonizer* `σ`, with
    /// `σ·w = canon(w)`; identity when `w` is already canonical).
    ///
    /// Only the [candidates](Self::candidates) are compared: each against
    /// the current best by [`image_less`](Self::image_less), and only the
    /// winner's image is packed. A candidate replaces the best only when
    /// strictly smaller, so ties keep the smallest element index.
    pub(super) fn canon(&self, layout: &Layout, values: &[u64], word: u64) -> (u64, u16) {
        let (&first, rest) = self
            .candidates(values)
            .split_first()
            .expect("a candidate slice is never empty");
        let mut who = first as usize;
        for &g in rest {
            if self.image_less(values, g as usize, who) {
                who = g as usize;
            }
        }
        let best = if who == 0 {
            word
        } else {
            self.image(layout, values, who)
        };
        (best, elem16(who))
    }

    /// Size of `w`'s stabilizer subgroup; the orbit size is
    /// `order / stabilizer` (orbit-stabilizer).
    pub(super) fn stabilizer_size(&self, layout: &Layout, values: &[u64], word: u64) -> usize {
        (0..self.order)
            .filter(|&g| self.image(layout, values, g) == word)
            .count()
    }

    /// Checks the spec against a program: domain compatibility plus
    /// equivariance of every element on a deterministic sample of states
    /// (the whole space when it is small). The quotient sweeps *assume*
    /// equivariance; run this once per (program, spec) pair in tests.
    ///
    /// # Errors
    ///
    /// See [`SymmetryError`].
    pub fn validate(&self, program: &Program) -> Result<(), SymmetryError> {
        if self.num_vars != program.vars.len() || self.num_commands != program.commands.len() {
            return Err(SymmetryError::WrongProgram);
        }
        let lowered = program.lower().map_err(|_| SymmetryError::WrongProgram)?;
        let layout = &lowered.layout;
        for g in 0..self.order {
            for i in 0..self.num_vars {
                let target = self.var_perm[g][i] as usize;
                let compatible = layout.domains[target] == layout.domains[i]
                    && match &self.value_map[g][i] {
                        Some(map) => map.len() as u64 == layout.domains[i],
                        None => true,
                    };
                if !compatible {
                    return Err(SymmetryError::DomainMismatch { element: g, var: i });
                }
            }
        }

        // Sampled equivariance: stride through the space so small
        // programs are checked exhaustively.
        const SAMPLES: usize = 2048;
        let total = narrow(layout.total);
        let step = (total / SAMPLES).max(1);
        let mut view = State::new(layout);
        let mut image_view = State::new(layout);
        let mut state = 0usize;
        while state < total {
            view.load(state as u64);
            for g in 1..self.order {
                let image = self.image(layout, &view.values, g);
                image_view.load(image);
                for (c, command) in lowered.commands.iter().enumerate() {
                    let c2 = self.cmd_perm[g][c] as usize;
                    let here = command.enabled(&mut view);
                    let there = lowered.commands[c2].enabled(&mut image_view);
                    if here != there {
                        return Err(SymmetryError::NotEquivariant {
                            element: g,
                            command: c,
                        });
                    }
                    if !here {
                        continue;
                    }
                    view.begin_effect();
                    command.apply(&mut view);
                    let target_image =
                        view.finish_effect_with(|values, _| self.image(layout, values, g));
                    image_view.begin_effect();
                    lowered.commands[c2].apply(&mut image_view);
                    let image_target = image_view.finish_effect();
                    let agree = match (target_image, image_target) {
                        (Ok(t), Ok(t2)) => t == t2,
                        (Err(()), Err(())) => true,
                        _ => false,
                    };
                    if !agree {
                        return Err(SymmetryError::NotEquivariant {
                            element: g,
                            command: c,
                        });
                    }
                }
            }
            state += step;
        }
        Ok(())
    }
}

/// Digit `p` of `g·w`, given `g`'s inverse variable permutation and
/// value maps: the value of the variable `g` carries onto position `p`,
/// relabelled.
#[inline]
fn image_digit(values: &[u64], inv: &[u32], maps: &[Option<Vec<u32>>], p: usize) -> u64 {
    let src = inv[p] as usize;
    let v = values[src];
    match &maps[src] {
        Some(map) => u64::from(map[narrow(v)]),
        None => v,
    }
}

/// The lead table of [`SymmetrySpec`]. When every element pins the top
/// (most significant) variable, its relabelled value is the most
/// significant digit of every image, so the orbit minimum lies among the
/// elements that minimize it. Empty when some element moves the top
/// variable or none relabels its values.
fn lead_table(var_perm: &[Vec<u32>], value_map: &[Vec<Option<Vec<u32>>>]) -> Vec<Vec<u16>> {
    let Some(top) = var_perm[0].len().checked_sub(1) else {
        return Vec::new();
    };
    let Some(domain) = value_map
        .iter()
        .find_map(|maps| maps[top].as_ref().map(Vec::len))
    else {
        return Vec::new();
    };
    if var_perm.iter().any(|vp| vp[top] as usize != top) {
        return Vec::new();
    }
    let digit = |g: usize, v: usize| match &value_map[g][top] {
        Some(map) => map[v] as usize,
        None => v,
    };
    (0..domain)
        .map(|v| {
            let least = (0..var_perm.len()).map(|g| digit(g, v)).min();
            (0..var_perm.len())
                .filter(|&g| Some(digit(g, v)) == least)
                .map(elem16)
                .collect()
        })
        .collect()
}

/// Is `map` a permutation of `0..len`?
fn is_permutation(map: &[usize], len: usize) -> bool {
    let mut seen = vec![false; len];
    map.len() == len
        && map
            .iter()
            .all(|&v| v < len && !std::mem::replace(&mut seen[v], true))
}

/// Normalizes an already-narrowed map: the identity becomes `None`.
fn normalize_map32(map: Vec<u32>) -> Option<Vec<u32>> {
    if map.iter().enumerate().all(|(i, &v)| v as usize == i) {
        None
    } else {
        Some(map)
    }
}

/// Converts a caller map to `u32`, normalizing the identity to `None`.
fn normalize_map(map: &[usize]) -> Option<Vec<u32>> {
    if map.iter().enumerate().all(|(i, &v)| i == v) {
        None
    } else {
        Some(map.iter().map(|&v| narrow32(v)).collect())
    }
}

/// Narrows table entries to `u32`. In range by construction: variable,
/// command, and domain counts are all bounded by the packed-word layout,
/// which `validate` checks against the program.
#[inline]
#[allow(clippy::cast_possible_truncation)]
fn narrow32(v: usize) -> u32 {
    v as u32
}

/// The verdict of [`Program::fair_self_check_sym`]: the full-space
/// streaming stabilization answer, computed on the symmetry quotient.
#[derive(Debug, Clone)]
pub struct SymSelfReport {
    /// Size of the full domain product the quotient stands for.
    pub num_states: usize,
    /// Canonical representatives, ascending — the interned state space.
    pub words: Vec<u64>,
    /// Legitimate (init-reachable) **canonical** states, by index into
    /// [`words`](Self::words).
    pub legitimate: StateSet,
    /// Number of legitimate *full-space* states (orbit sizes summed) —
    /// comparable to [`FairSelfReport::num_legitimate`](super::FairSelfReport::num_legitimate).
    pub num_legitimate_full: usize,
    /// A divergent edge as **packed full-space words** `(from, to)`, or
    /// `None` when the fair composition stabilizes. The verdict (not the
    /// witness pair) matches the unreduced check.
    pub divergent_witness: Option<(u64, u64)>,
}

impl SymSelfReport {
    /// True when the fair composition is stabilizing.
    pub fn holds(&self) -> bool {
        self.divergent_witness.is_none()
    }

    /// Number of interned canonical states.
    pub fn num_canonical(&self) -> usize {
        self.words.len()
    }

    /// Number of legitimate canonical states.
    pub fn num_legitimate(&self) -> usize {
        self.legitimate.len()
    }

    /// Full states per interned state — the space cut the quotient bought.
    pub fn reduction(&self) -> f64 {
        if self.words.is_empty() {
            1.0
        } else {
            approx(self.num_states) / approx(self.words.len())
        }
    }

    /// The dense index of a canonical word, if interned.
    pub fn canonical_id(&self, word: u64) -> Option<usize> {
        self.words.binary_search(&word).ok()
    }
}

/// Lossy by design (bench/report ratios only).
#[allow(clippy::cast_precision_loss)]
fn approx(n: usize) -> f64 {
    n as f64
}

/// Panic message when a canonical successor misses the canonical list —
/// only possible when the spec is not actually a symmetry of the program.
const NOT_A_SYMMETRY: &str = "canonical successor not in the canonical enumeration — \
     the SymmetrySpec is not a symmetry of this program (run SymmetrySpec::validate)";

impl Program {
    /// The canonical representative of `state`'s orbit under `sym`, as a
    /// packed state index.
    ///
    /// # Errors
    ///
    /// See [`GclError`] (layout errors only).
    ///
    /// # Panics
    ///
    /// Panics if `state` is outside the domain product or `sym` has the
    /// wrong arity.
    pub fn canonicalize(&self, sym: &SymmetrySpec, state: usize) -> Result<usize, GclError> {
        let layout = self.layout()?;
        assert_eq!(
            sym.num_vars(),
            self.vars.len(),
            "spec/program arity mismatch"
        );
        assert!(
            (state as u64) < layout.total,
            "state outside the domain product"
        );
        let mut view = State::new(&layout);
        view.load(state as u64);
        let (word, _) = sym.canon(&layout, &view.values, view.word);
        Ok(narrow(word))
    }

    /// [`fair_self_check`](Program::fair_self_check) on the symmetry
    /// quotient: the identical stabilization verdict, interning only the
    /// canonical representative of each orbit (`total / order` states
    /// when no state has a non-trivial stabilizer).
    ///
    /// **Soundness contract** (checked by the differential suites, not
    /// at runtime): `sym` must be a symmetry of this program
    /// ([`SymmetrySpec::validate`]) and `init` must be orbit-closed
    /// (`init(w) ⟺ init(g·w)`). Under that contract
    /// [`SymSelfReport::holds`] and
    /// [`SymSelfReport::num_legitimate_full`] equal the unreduced
    /// report's answers — see DESIGN.md §13 for the holonomy argument.
    ///
    /// # Errors
    ///
    /// See [`GclError`].
    pub fn fair_self_check_sym(
        &self,
        sym: &SymmetrySpec,
        init: impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync,
    ) -> Result<SymSelfReport, GclError> {
        let lowered = self.lower()?;
        let workers = par::default_workers(narrow(lowered.layout.total));
        self.fair_self_check_sym_with(&lowered, sym, workers, &init)
    }

    /// [`fair_self_check_sym`](Program::fair_self_check_sym) with an
    /// explicit worker count (`workers <= 1` runs every sharded phase as
    /// one chunk on the calling thread). The report is identical for
    /// every worker count.
    ///
    /// # Errors
    ///
    /// See [`GclError`].
    pub fn fair_self_check_sym_on(
        &self,
        workers: usize,
        sym: &SymmetrySpec,
        init: impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync,
    ) -> Result<SymSelfReport, GclError> {
        let lowered = self.lower()?;
        self.fair_self_check_sym_with(&lowered, sym, workers, &init)
    }

    // `as u32`/`as u16` below are in range by the post-enumeration guard
    // (canonical count and edge bound checked against `u32::MAX`) and
    // the group-order bound (`u16`, checked at spec construction).
    #[allow(clippy::cast_possible_truncation)]
    fn fair_self_check_sym_with(
        &self,
        lowered: &Lowered,
        sym: &SymmetrySpec,
        workers: usize,
        init: &(impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync),
    ) -> Result<SymSelfReport, GclError> {
        let layout = &lowered.layout;
        let total = narrow(layout.total);
        let ncmd = self.commands.len();
        if ncmd == 0 {
            return Err(GclError::System(SystemError::EmptyStateSpace));
        }
        assert_eq!(
            sym.num_vars(),
            self.vars.len(),
            "spec/program arity mismatch"
        );
        assert_eq!(sym.num_commands(), ncmd, "spec/program arity mismatch");

        // Phase A — canonical enumeration: sharded ascending odometer
        // sweeps keep exactly the orbit minima; concatenating the chunks
        // in order yields the globally ascending canonical list.
        let chunks = chunk_ranges(total, workers, CHUNK_ALIGN);
        let enum_tasks: Vec<_> = chunks
            .iter()
            .map(|range| {
                let range = range.clone();
                move || {
                    let mut found: Vec<u64> = Vec::new();
                    let mut view = State::new(layout);
                    view.load(range.start as u64);
                    for _ in range {
                        if sym.is_canonical(&view.values) {
                            found.push(view.word);
                        }
                        view.advance();
                    }
                    found
                }
            })
            .collect();
        let mut words: Vec<u64> = Vec::new();
        for part in join_all(enum_tasks) {
            words.extend(part);
        }
        let num_canon = words.len();
        // The quotient CSR is staged in 32-bit arrays, like the
        // unreduced check's but sized by the canonical count.
        check_u32_csr(num_canon, ncmd)?;

        // Phase B — quotient union rows: per canonical state, every
        // enabled command's target canonicalized and resolved by binary
        // search, plus the skip self-loop when any command is disabled.
        // It also lists the *twisted* states: those with a self-edge
        // whose canonizer is not the identity.
        let words_ref: &[u64] = &words;
        let canon_chunks = chunk_ranges(num_canon, workers, 1);
        let union_tasks: Vec<_> = canon_chunks
            .iter()
            .map(|range| {
                let range = range.clone();
                move || self.sym_union_chunk(lowered, sym, words_ref, range, init)
            })
            .collect();
        let mut twisted = StateSet::with_capacity(num_canon);
        let mut union_parts = Vec::with_capacity(canon_chunks.len());
        for part in join_all(union_tasks) {
            let (rows, twisted_states) = part?;
            union_parts.push(rows);
            for state in twisted_states {
                twisted.insert(state);
            }
        }
        let (off, to, init_seeds) = UnionChunk::stitch(num_canon, &canon_chunks, union_parts);
        if init_seeds.is_empty() {
            return Err(GclError::NoInitialState);
        }

        // Phase C — legitimate canonical states: closure of the seeds
        // over the quotient union rows (exactly the canonical image of
        // the full-space closure when `init` is orbit-closed).
        let legitimate = par::reach(&off, &to, workers, init_seeds);

        // Orbit-size sum: how many full states the legitimate canonical
        // set stands for (orbit-stabilizer per member).
        let legit_ids: Vec<usize> = legitimate.iter().collect();
        let sum_tasks: Vec<_> = chunk_ranges(legit_ids.len(), workers, 1)
            .into_iter()
            .map(|range| {
                let ids = &legit_ids[range];
                let legit_words = words_ref;
                move || {
                    let mut view = State::new(layout);
                    let mut sum = 0usize;
                    for &id in ids {
                        view.load(legit_words[id]);
                        sum += sym.order() / sym.stabilizer_size(layout, &view.values, view.word);
                    }
                    sum
                }
            })
            .collect();
        let num_legitimate_full: usize = join_all(sum_tasks).into_iter().sum();

        // Phase D — SCCs of the quotient union graph: sequential Tarjan
        // at every worker count (Phases E and F read only the partition).
        let (scc_id, scc_count) = par::tarjan(&off, &to);

        // Phase E — holonomy-exact command presence per quotient SCC.
        // A singleton {s} that is not twisted has no defect generator
        // and the identity frame, so its facts are the commands that are
        // disabled at s or lead back to s: it is fully represented iff
        // its Phase-B row is exactly [s]. Every other SCC is walked
        // serially, once, from its first member in canonical order;
        // every member carries the annotation `a` relating it to the
        // root's sheet, facts are conjugated into that sheet's frame,
        // and non-tree internal edges contribute stabilizer generators
        // the fact set is closed under. See DESIGN.md §13.
        let multi = par::multi_member_sccs(&scc_id, scc_count);
        let cmd_words = ncmd.div_ceil(64);
        let mut full = StateSet::with_capacity(scc_count);
        {
            const UNSET: u16 = u16::MAX;
            let mut annot: Vec<u16> = vec![UNSET; num_canon];
            let mut queue: Vec<u32> = Vec::new();
            let mut facts: Vec<u64> = vec![0u64; cmd_words];
            let mut gen_seen = vec![false; sym.order()];
            let mut gens: Vec<u16> = Vec::new();
            let mut view = State::new(layout);
            for root in 0..num_canon {
                if annot[root] != UNSET {
                    continue;
                }
                let scc = scc_id[root];
                if !multi.contains(scc as usize) && !twisted.contains(root) {
                    if to[off[root] as usize..off[root + 1] as usize] == [root as u32] {
                        full.insert(scc as usize);
                    }
                    continue;
                }
                facts.iter_mut().for_each(|w| *w = 0);
                for flag in gens.drain(..) {
                    gen_seen[flag as usize] = false;
                }
                annot[root] = 0;
                queue.clear();
                queue.push(root as u32);
                let mut head = 0usize;
                while head < queue.len() {
                    let s = queue[head] as usize;
                    head += 1;
                    let a_s = annot[s];
                    let frame = sym.inv(a_s);
                    view.load(words[s]);
                    for (c, command) in lowered.commands.iter().enumerate() {
                        if !command.enabled(&mut view) {
                            // Disabled ⇒ the conjugate command skips in
                            // the sheet: it acts inside.
                            let fact = sym.cmd_perm[frame as usize][c] as usize;
                            facts[fact / 64] |= 1u64 << (fact % 64);
                            continue;
                        }
                        view.begin_effect();
                        command.apply(&mut view);
                        let (canon, sigma) = view
                            .finish_effect_with(|values, word| sym.canon(layout, values, word))
                            .map_err(|()| self.out_of_domain(c))?;
                        let t = words.binary_search(&canon).expect(NOT_A_SYMMETRY);
                        if scc_id[t] != scc {
                            continue;
                        }
                        let fact = sym.cmd_perm[frame as usize][c] as usize;
                        facts[fact / 64] |= 1u64 << (fact % 64);
                        let carried = sym.comp(sigma, a_s);
                        if annot[t] == UNSET {
                            annot[t] = carried;
                            queue.push(t as u32);
                        } else {
                            let defect = sym.comp(sym.inv(annot[t]), carried);
                            if defect != 0 && !gen_seen[defect as usize] {
                                gen_seen[defect as usize] = true;
                                gens.push(defect);
                            }
                        }
                    }
                }
                // Close the fact set under conjugation by the defect
                // generators (closure under each generator covers its
                // whole cyclic subgroup; iterating to fixpoint covers
                // the generated holonomy group).
                let mut changed = true;
                while changed {
                    changed = false;
                    for &h in &gens {
                        for c in 0..ncmd {
                            if facts[c / 64] & (1u64 << (c % 64)) == 0 {
                                continue;
                            }
                            let c2 = sym.cmd_perm[h as usize][c] as usize;
                            if facts[c2 / 64] & (1u64 << (c2 % 64)) == 0 {
                                facts[c2 / 64] |= 1u64 << (c2 % 64);
                                changed = true;
                            }
                        }
                    }
                }
                if facts.iter().map(|w| w.count_ones()).sum::<u32>() as usize == ncmd {
                    full.insert(scc as usize);
                }
            }
        }

        // Phase F — divergent scan over the stored quotient CSR: first
        // hit in canonical state order, reported as full packed words.
        let divergent_witness =
            par::divergent_edge(&off, &to, &scc_id, &full, &legitimate, workers)
                .map(|(state, next)| (words[state], words[next]));

        Ok(SymSelfReport {
            num_states: total,
            words,
            legitimate,
            num_legitimate_full,
            divergent_witness,
        })
    }

    /// Phase-B worker: quotient union rows for one slice of the
    /// canonical list, with chunk-relative 32-bit offsets, and the
    /// slice's twisted states (a command leads back to the state under a
    /// non-identity canonizer), ascending.
    // Offsets and canonical ids fit `u32` by the caller's guard.
    #[allow(clippy::cast_possible_truncation)]
    fn sym_union_chunk(
        &self,
        lowered: &Lowered,
        sym: &SymmetrySpec,
        words: &[u64],
        range: Range<usize>,
        init: &(impl for<'a, 'b> Fn(&'a State<'b>) -> bool + Sync),
    ) -> Result<(UnionChunk, Vec<usize>), GclError> {
        let layout = &lowered.layout;
        let len = range.len();
        let ncmd = self.commands.len();
        let mut off = vec![0u32; len + 1];
        let mut to: Vec<u32> = Vec::with_capacity(len.saturating_mul(2));
        let mut init_seeds: Vec<usize> = Vec::new();
        let mut twisted: Vec<usize> = Vec::new();
        let mut row: Vec<u32> = Vec::with_capacity(ncmd + 1);
        let mut view = State::new(layout);
        for (local, state) in range.enumerate() {
            view.load(words[state]);
            if init(&view) {
                init_seeds.push(state);
            }
            row.clear();
            let mut any_disabled = false;
            let mut twist = false;
            for (index, command) in lowered.commands.iter().enumerate() {
                if command.enabled(&mut view) {
                    view.begin_effect();
                    command.apply(&mut view);
                    let (canon, sigma) = view
                        .finish_effect_with(|values, word| sym.canon(layout, values, word))
                        .map_err(|()| self.out_of_domain(index))?;
                    let id = words.binary_search(&canon).expect(NOT_A_SYMMETRY);
                    twist |= id == state && sigma != 0;
                    row.push(id as u32);
                } else {
                    any_disabled = true;
                }
            }
            if any_disabled {
                row.push(state as u32);
            }
            if twist {
                twisted.push(state);
            }
            row.sort_unstable();
            row.dedup();
            to.extend_from_slice(&row);
            off[local + 1] = to.len() as u32;
        }
        Ok((
            UnionChunk {
                off,
                to,
                init_seeds,
            },
            twisted,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::super::ir::{Expr, IrCommand, Stmt};
    use super::super::VarRef;
    use super::*;
    use crate::tme_abstract::{nproc_symmetry, program_nproc_ir};

    /// Differential oracle for [`SymmetrySpec::canon`]: packs every
    /// non-identity image in full and keeps the strict minimum, so ties
    /// keep the smallest element index.
    fn canon_oracle(sym: &SymmetrySpec, layout: &Layout, values: &[u64], word: u64) -> (u64, u16) {
        let mut best = word;
        let mut who = 0u16;
        for g in 1..sym.order() {
            let img = sym.image(layout, values, g);
            if img < best {
                best = img;
                who = elem16(g);
            }
        }
        (best, who)
    }

    /// Asserts `canon` returns the oracle's `(word, element)` pair at
    /// `word`, and `is_canonical` says whether that word is `word`.
    fn assert_canon_matches_oracle(sym: &SymmetrySpec, view: &mut State<'_>, word: u64) {
        view.load(word);
        let oracle = canon_oracle(sym, view.layout, &view.values, word);
        assert_eq!(
            sym.canon(view.layout, &view.values, word),
            oracle,
            "state {word}"
        );
        assert_eq!(
            sym.is_canonical(&view.values),
            oracle.0 == word,
            "state {word}"
        );
    }

    /// [`assert_canon_matches_oracle`] on every state of `program`.
    fn assert_canon_matches_oracle_everywhere(sym: &SymmetrySpec, program: &Program) {
        let layout = program.layout().unwrap();
        let mut view = State::new(&layout);
        for word in 0..layout.total {
            assert_canon_matches_oracle(sym, &mut view, word);
        }
    }

    /// Three variables `x, y` in `0..2` and the top `t` in `0..top`,
    /// with the swap of `x` and `y` that relabels `t` by `t_map` (`None`
    /// leaves it in place and unrelabelled).
    fn swap_with_pinned_top(top: usize, t_map: Option<Vec<usize>>) -> (Program, SymmetrySpec) {
        let mut program = Program::new();
        program.var("x", 2);
        program.var("y", 2);
        program.var("t", top);
        let swap = SymmetryElement {
            var_perm: vec![1, 0, 2],
            value_maps: vec![None, None, t_map],
            cmd_perm: Vec::new(),
        };
        let sym = SymmetrySpec::new(&[SymmetryElement::identity(3, 0), swap]).unwrap();
        (program, sym)
    }

    /// `name :: x < y → x := x + 1`.
    fn bump(name: &str, x: VarRef, y: VarRef) -> IrCommand {
        IrCommand::new(
            name,
            Expr::var(x).lt(Expr::var(y)),
            vec![Stmt::assign(x, Expr::var(x).add(Expr::int(1)))],
        )
    }

    /// Two symmetric mod-`d` counters with a coupling command; the swap
    /// of the two variables (and the two per-variable commands) is a
    /// symmetry.
    fn two_counters(d: usize) -> (Program, SymmetrySpec) {
        let mut p = Program::new();
        let x = p.var("x", d);
        let y = p.var("y", d);
        p.command_ir(bump("bump_x", x, y));
        p.command_ir(bump("bump_y", y, x));
        let swap = SymmetryElement {
            var_perm: vec![1, 0],
            value_maps: vec![None, None],
            cmd_perm: vec![1, 0],
        };
        let spec = SymmetrySpec::new(&[SymmetryElement::identity(2, 2), swap]).unwrap();
        (p, spec)
    }

    #[test]
    fn spec_tables_are_a_group() {
        let (_, spec) = two_counters(3);
        assert_eq!(spec.order(), 2);
        assert_eq!(spec.comp(1, 1), 0);
        assert_eq!(spec.inv(1), 1);
        assert_eq!(spec.command_image(1, 0), 1);
    }

    #[test]
    fn rejects_non_identity_first_and_non_groups() {
        let swap = SymmetryElement {
            var_perm: vec![1, 0],
            value_maps: vec![None, None],
            cmd_perm: vec![1, 0],
        };
        assert_eq!(
            SymmetrySpec::new(std::slice::from_ref(&swap)).err(),
            Some(SymmetryError::FirstNotIdentity)
        );
        // A 3-cycle without its square is not closed.
        let cycle = SymmetryElement {
            var_perm: vec![1, 2, 0],
            value_maps: vec![None, None, None],
            cmd_perm: vec![1, 2, 0],
        };
        assert_eq!(
            SymmetrySpec::new(&[SymmetryElement::identity(3, 3), cycle]).err(),
            Some(SymmetryError::NotClosed { g: 1, f: 1 })
        );
    }

    #[test]
    fn validate_accepts_the_swap_and_rejects_an_asymmetric_twin() {
        let (p, spec) = two_counters(3);
        spec.validate(&p).unwrap();

        // Same spec against a program whose second command differs.
        let mut q = Program::new();
        let x = q.var("x", 3);
        let y = q.var("y", 3);
        q.command_ir(bump("bump_x", x, y));
        q.command_ir(IrCommand::new(
            "reset_y",
            Expr::var(y).lt(Expr::var(x)),
            vec![Stmt::assign(y, Expr::int(0))],
        ));
        assert!(matches!(
            spec.validate(&q),
            Err(SymmetryError::NotEquivariant { .. })
        ));
    }

    #[test]
    fn canonical_enumeration_counts_orbits() {
        let (p, spec) = two_counters(4);
        let layout = p.layout().unwrap();
        let mut view = State::new(&layout);
        let mut canonical = 0usize;
        let mut orbit_sum = 0usize;
        view.load(0);
        for _ in 0..16 {
            if spec.is_canonical(&view.values) {
                canonical += 1;
                orbit_sum += spec.order() / spec.stabilizer_size(&layout, &view.values, view.word);
            }
            view.advance();
        }
        // Orbits of the swap on a 4x4 grid: 4 fixed + 6 pairs.
        assert_eq!(canonical, 10);
        assert_eq!(orbit_sum, 16);
    }

    #[test]
    fn canonicalize_is_idempotent_and_orbit_constant() {
        let (p, spec) = two_counters(4);
        for state in 0..16usize {
            let c = p.canonicalize(&spec, state).unwrap();
            assert!(c <= state);
            assert_eq!(p.canonicalize(&spec, c).unwrap(), c);
            // swap(x, y) shares the canonical form.
            let (x, y) = (state % 4, state / 4);
            assert_eq!(p.canonicalize(&spec, y + 4 * x).unwrap(), c);
        }
    }

    #[test]
    fn sym_check_matches_the_full_check() {
        let (p, spec) = two_counters(4);
        let x = super::super::VarRef(0);
        let y = super::super::VarRef(1);
        let full = p
            .fair_self_check(move |s: &State<'_>| s.get(x) == 0 && s.get(y) == 0)
            .unwrap();
        let reduced = p
            .fair_self_check_sym(&spec, move |s: &State<'_>| s.get(x) == 0 && s.get(y) == 0)
            .unwrap();
        assert_eq!(reduced.holds(), full.holds());
        assert_eq!(reduced.num_legitimate_full, full.num_legitimate());
        assert_eq!(reduced.num_states, full.num_states);
        assert_eq!(reduced.num_canonical(), 10);
        for workers in [2, 4] {
            let par = p
                .fair_self_check_sym_on(workers, &spec, move |s: &State<'_>| {
                    s.get(x) == 0 && s.get(y) == 0
                })
                .unwrap();
            assert_eq!(par.words, reduced.words);
            assert_eq!(par.divergent_witness, reduced.divergent_witness);
            assert_eq!(par.num_legitimate_full, reduced.num_legitimate_full);
        }
    }

    #[test]
    fn a_twisted_singleton_takes_the_walk_and_comes_out_full() {
        // Over x, y in 0..3 with the swap symmetry: "left" turns (1, 0)
        // into (0, 1) and (0, 1) into (0, 2); "right" is its mirror image;
        // "reset" sends every other state without a 2 to (2, 2). The full
        // space has the SCC {(1, 0), (0, 1)} in which every command acts,
        // outside the legitimate states (those with a 2). The quotient
        // folds it into the singleton {(1, 0)}, where the self-edge of
        // "left" carries the swap as canonizer. Its row also leads to
        // (2, 0) ("right"), so its mask alone misses "right"; closing the
        // facts under the swap defect restores it.
        let mut p = Program::new();
        let x = p.var("x", 3);
        let y = p.var("y", 3);
        let at = |a: usize, b: usize| {
            Expr::var(x)
                .eq(Expr::int(a))
                .and(Expr::var(y).eq(Expr::int(b)))
        };
        p.command_ir(IrCommand::new(
            "right",
            at(0, 1).or(at(1, 0)),
            vec![Stmt::if_else(
                Expr::var(x).eq(Expr::int(0)),
                vec![Stmt::assign(x, Expr::int(1)), Stmt::assign(y, Expr::int(0))],
                vec![Stmt::assign(x, Expr::int(2))],
            )],
        ));
        p.command_ir(IrCommand::new(
            "left",
            at(1, 0).or(at(0, 1)),
            vec![Stmt::if_else(
                Expr::var(y).eq(Expr::int(0)),
                vec![Stmt::assign(x, Expr::int(0)), Stmt::assign(y, Expr::int(1))],
                vec![Stmt::assign(y, Expr::int(2))],
            )],
        ));
        p.command_ir(IrCommand::new(
            "reset",
            Expr::var(x)
                .ne(Expr::int(2))
                .and(Expr::var(y).ne(Expr::int(2)))
                .and(Expr::var(x).add(Expr::var(y)).ne(Expr::int(1))),
            vec![Stmt::assign(x, Expr::int(2)), Stmt::assign(y, Expr::int(2))],
        ));
        let swap = SymmetryElement {
            var_perm: vec![1, 0],
            value_maps: vec![None, None],
            cmd_perm: vec![1, 0, 2],
        };
        let spec = SymmetrySpec::new(&[SymmetryElement::identity(2, 3), swap]).unwrap();
        spec.validate(&p).unwrap();
        let init = move |s: &State<'_>| s.get(x) == 2 || s.get(y) == 2;
        let full = p.fair_self_check(init).unwrap();
        assert_eq!(full.divergent_witness, Some((1, 1)));
        for workers in [1, 2] {
            let reduced = p.fair_self_check_sym_on(workers, &spec, init).unwrap();
            assert_eq!(reduced.words, vec![0, 1, 2, 4, 5, 8]);
            // (0, 0) comes first but is a singleton that "reset" leaves.
            assert_eq!(reduced.divergent_witness, Some((1, 1)));
            assert_eq!(reduced.num_legitimate_full, full.num_legitimate());
        }
    }

    #[test]
    fn canon_matches_the_full_image_oracle_on_the_tme_groups() {
        // Fewer samples at n = 4, where the oracle packs 23 images of 29
        // digits each.
        for (n, samples) in [(2, 100_000), (3, 100_000), (4, 16_000)] {
            for wrapped in [false, true] {
                let (program, _) = program_nproc_ir(n, wrapped);
                let sym = nproc_symmetry(n, wrapped);
                let layout = program.layout().unwrap();
                let mut view = State::new(&layout);
                // Seeded splitmix64: the same states on every run.
                let mut seed = 0x9E37_79B9_7F4A_7C15u64 ^ ((n as u64) << 1) ^ u64::from(wrapped);
                for _ in 0..samples {
                    seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = seed;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    assert_canon_matches_oracle(&sym, &mut view, (z ^ (z >> 31)) % layout.total);
                }
            }
        }
    }

    #[test]
    fn canon_matches_the_full_image_oracle_with_two_lead_candidates() {
        // The swap maps t = 0 and t = 1 onto each other and fixes t = 2,
        // so at t = 2 both elements tie on the top digit and the lower
        // digits decide; at x = y they tie outright and the identity wins.
        let (program, sym) = swap_with_pinned_top(3, Some(vec![1, 0, 2]));
        assert_eq!(sym.lead, vec![vec![0], vec![1], vec![0, 1]]);
        assert_canon_matches_oracle_everywhere(&sym, &program);
    }

    #[test]
    fn canon_matches_the_full_image_oracle_without_a_lead_table() {
        // The top variable is pinned but never relabelled: no table, and
        // every element is a candidate.
        let (program, sym) = swap_with_pinned_top(2, None);
        assert!(sym.lead.is_empty());
        assert_canon_matches_oracle_everywhere(&sym, &program);
    }

    #[test]
    fn canon_matches_the_full_image_oracle_on_block_rotations() {
        // Every group shape of the block-rotation differential family:
        // `k` blocks of `v` variables under the Z_k rotation, each state
        // of each domain assignment checked exhaustively.
        for k in [2usize, 3] {
            for v in [1usize, 2] {
                for doms_code in 0..1usize << v {
                    let doms: Vec<usize> = (0..v).map(|i| 2 + ((doms_code >> i) & 1)).collect();
                    let mut program = Program::new();
                    for b in 0..k {
                        for (i, &dom) in doms.iter().enumerate() {
                            program.var(format!("x{b}_{i}"), dom);
                        }
                    }
                    let elements: Vec<SymmetryElement> = (0..k)
                        .map(|r| SymmetryElement {
                            var_perm: (0..k * v)
                                .map(|at| ((at / v + r) % k) * v + at % v)
                                .collect(),
                            value_maps: vec![None; k * v],
                            cmd_perm: Vec::new(),
                        })
                        .collect();
                    let sym = SymmetrySpec::new(&elements).unwrap();
                    assert_canon_matches_oracle_everywhere(&sym, &program);
                }
            }
        }
    }

    /// Two IR counters over `0..d` whose increments leave the domain at
    /// `d - 1`, with the swap symmetry.
    fn overflowing_counters(d: usize) -> (Program, SymmetrySpec) {
        let mut p = Program::new();
        let x = p.var("x", d);
        let y = p.var("y", d);
        for (name, var) in [("bump_x", x), ("bump_y", y)] {
            p.command_ir(IrCommand::new(
                name,
                Expr::var(var).lt(Expr::int(d)),
                vec![Stmt::assign(var, Expr::var(var).add(Expr::int(1)))],
            ));
        }
        let swap = SymmetryElement {
            var_perm: vec![1, 0],
            value_maps: vec![None, None],
            cmd_perm: vec![1, 0],
        };
        let spec = SymmetrySpec::new(&[SymmetryElement::identity(2, 2), swap]).unwrap();
        (p, spec)
    }

    #[test]
    fn out_of_domain_effects_surface_on_the_in_place_paths() {
        let (p, spec) = overflowing_counters(3);
        let init = |s: &State<'_>| s.word == 0;
        let is_out_of_domain = |err: GclError| matches!(err, GclError::OutOfDomain { .. });
        for workers in [1, 2] {
            let sym_check = p.fair_self_check_sym_on(workers, &spec, init).unwrap_err();
            assert!(
                is_out_of_domain(sym_check),
                "fair_self_check_sym at {workers}"
            );
            let reach = p
                .compile_reachable_sym_on(workers, &spec, init)
                .unwrap_err();
            assert!(
                is_out_of_domain(reach),
                "compile_reachable_sym at {workers}"
            );
            let words = p
                .sym_reach_words_on(workers, &spec, &[0], usize::MAX, None::<&fn(u64) -> bool>)
                .unwrap_err();
            assert!(is_out_of_domain(words), "sym_reach_words at {workers}");
        }
    }
}
