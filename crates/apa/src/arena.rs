//! The arena kernel shared by [`Apa::reachability`] and
//! [`crate::Simulator`].
//!
//! Component-local value sets are deduplicated into a *cell pool*, and
//! states and local states are fixed-width rows of `u32` cell ids held
//! in [`RowTable`]s: one contiguous row arena plus an open-addressing
//! index hashed with [`row_hash`]. Rows are built from internal cell
//! ids, never from outside input, so the fast non-keyed hash is safe.
//!
//! The [`FireMemo`] maps each `(automaton, local cell row)` to the
//! rule's firings as `(interpretation, successor local cell row)`.
//! Filling an entry is the only place a transition rule fires or a
//! `BTreeSet<Value>` is touched; every replay is integer work. Rules
//! are required to be pure functions of their local state, so an entry
//! never goes stale.
//!
//! Every id space here is `u32`; running past it is
//! [`ApaError::IdSpaceExceeded`], never a panic.

use crate::error::ApaError;
use crate::model::Apa;
use crate::rule::LocalState;
use crate::value::Value;
use automata::{Symbol, SymbolTable};
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a over the row's `u32` cells, then a splitmix64-style avalanche
/// so the low bits (used for power-of-two masking) depend on every cell.
pub(crate) fn row_hash(row: &[u32]) -> u64 {
    let mut h = FNV_OFFSET;
    for &w in row {
        h ^= u64::from(w);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

/// `value`, an id or a count in the id space `space`, as a `u32`.
pub(crate) fn to_u32(value: usize, space: &'static str) -> Result<u32, ApaError> {
    u32::try_from(value).map_err(|_| ApaError::IdSpaceExceeded {
        space,
        requested: value as u64,
    })
}

/// Interner of component-local value sets: each distinct `BTreeSet<Value>`
/// gets one `u32` id and lives once in the pool.
#[derive(Debug, Default)]
pub(crate) struct CellInterner {
    index: HashMap<BTreeSet<Value>, u32>,
    pool: Vec<BTreeSet<Value>>,
}

impl CellInterner {
    pub(crate) fn intern(&mut self, set: &BTreeSet<Value>) -> Result<u32, ApaError> {
        if let Some(&id) = self.index.get(set) {
            return Ok(id);
        }
        let id = to_u32(self.pool.len(), "cells")?;
        self.index.insert(set.clone(), id);
        self.pool.push(set.clone());
        Ok(id)
    }

    /// The value set of cell `id`.
    pub(crate) fn get(&self, id: u32) -> &BTreeSet<Value> {
        &self.pool[id as usize]
    }

    pub(crate) fn into_pool(self) -> Vec<BTreeSet<Value>> {
        self.pool
    }
}

/// Fixed-width `u32` rows interned to dense ids in discovery order. Rows
/// live contiguously in `rows`; the open-addressing `slots` table maps
/// row hashes to ids (stored as `id + 1`, `0` = empty) with linear
/// probing.
#[derive(Debug)]
pub(crate) struct RowTable {
    width: usize,
    rows: Vec<u32>,
    slots: Vec<u32>,
    len: usize,
    /// The id space named in [`ApaError::IdSpaceExceeded`].
    space: &'static str,
}

impl RowTable {
    pub(crate) fn new(width: usize, space: &'static str) -> Self {
        RowTable {
            width,
            rows: Vec::new(),
            slots: vec![0; 16],
            len: 0,
            space,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn row(&self, id: usize) -> &[u32] {
        &self.rows[id * self.width..][..self.width]
    }

    /// The id of `row`, or the empty slot where it would go.
    fn find(&self, row: &[u32]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut at = (row_hash(row) as usize) & mask;
        loop {
            match self.slots[at] {
                0 => return Err(at),
                slot if self.row(slot as usize - 1) == row => return Ok(slot as usize - 1),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Looks `row` up without interning it.
    pub(crate) fn get(&self, row: &[u32]) -> Option<usize> {
        self.find(row).ok()
    }

    /// Interns `row`, returning `(id, freshly discovered)`.
    pub(crate) fn intern(&mut self, row: &[u32]) -> Result<(usize, bool), ApaError> {
        debug_assert_eq!(row.len(), self.width);
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        match self.find(row) {
            Ok(id) => Ok((id, false)),
            Err(at) => {
                let id = self.len;
                // The slot stores `id + 1`, so at most u32::MAX rows fit.
                self.slots[at] = to_u32(id + 1, self.space)?;
                self.rows.extend_from_slice(row);
                self.len += 1;
                Ok((id, true))
            }
        }
    }

    fn grow(&mut self) {
        let mask = self.slots.len() * 2 - 1;
        let mut slots = vec![0u32; self.slots.len() * 2];
        for id in 0..self.len {
            let mut at = (row_hash(self.row(id)) as usize) & mask;
            while slots[at] != 0 {
                at = (at + 1) & mask;
            }
            // Every stored id already had its `id + 1` slot checked.
            slots[at] = id as u32 + 1;
        }
        self.slots = slots;
    }

    pub(crate) fn into_rows(self) -> Vec<u32> {
        self.rows
    }
}

/// One automaton's memo entries, stored flat: entry `e` (a local cell
/// row in `keys`) fires `off[e]..off[e + 1]`, and firing `j` has the
/// interpretation `interp[j]` and the successor local cell row
/// `next[j * width..][..width]`.
#[derive(Debug)]
struct AutomatonMemo {
    keys: RowTable,
    off: Vec<u32>,
    interp: Vec<Symbol>,
    next: Vec<u32>,
}

/// The per-`(automaton, local cell row)` firing memo, with the cell pool
/// its rows index (see the module docs).
#[derive(Debug)]
pub(crate) struct FireMemo {
    cells: CellInterner,
    automata: Vec<AutomatonMemo>,
    /// The memo's own interner of interpretation strings, seeded with the
    /// automaton names: an interpretation spelling automaton `k`'s name
    /// is symbol `k`, as in every table that interns the automaton names
    /// first. Callers translate the rest through [`InterpSymbols`].
    interps: SymbolTable,
    /// q₀ as a cell row.
    initial: Vec<u32>,
}

impl FireMemo {
    /// An empty memo for `apa`, with q₀ interned as the first cells.
    pub(crate) fn new(apa: &Apa) -> Self {
        let mut cells = CellInterner::default();
        let initial = apa
            .initial
            .iter()
            .map(|set| cells.intern(set))
            .collect::<Result<Vec<u32>, ApaError>>()
            // q₀ holds one cell per component and components have u32
            // ids, so an empty pool cannot run out on it.
            .expect("q0 fits the cell id space");
        let mut interps = SymbolTable::new();
        for name in apa.automaton_names() {
            interps.intern(name);
        }
        FireMemo {
            cells,
            automata: apa
                .automata
                .iter()
                .map(|aut| AutomatonMemo {
                    keys: RowTable::new(aut.neighbourhood.len(), "local states"),
                    off: vec![0],
                    interp: Vec::new(),
                    next: Vec::new(),
                })
                .collect(),
            interps,
            initial,
        }
    }

    /// q₀ as a cell row.
    pub(crate) fn initial(&self) -> &[u32] {
        &self.initial
    }

    pub(crate) fn cells(&self) -> &CellInterner {
        &self.cells
    }

    pub(crate) fn into_cells(self) -> CellInterner {
        self.cells
    }

    /// The firings of automaton `aut` at the local cell row `local`, as
    /// a range of firing indices for [`FireMemo::firing`]. On a miss the
    /// rule fires once and the entry is stored.
    ///
    /// # Errors
    ///
    /// [`ApaError::MalformedSuccessor`] if the rule returns a successor
    /// of the wrong width (nothing is stored, so a repeat fails alike),
    /// and [`ApaError::IdSpaceExceeded`] if a cell, entry or firing id
    /// runs out.
    pub(crate) fn firings(
        &mut self,
        apa: &Apa,
        aut: usize,
        local: &[u32],
    ) -> Result<Range<usize>, ApaError> {
        let memo = &mut self.automata[aut];
        let entry = match memo.keys.get(local) {
            Some(entry) => entry,
            None => {
                let (fired, cells) = (memo.interp.len(), memo.next.len());
                match Self::fill(apa, aut, local, memo, &mut self.cells, &mut self.interps) {
                    Ok(entry) => entry,
                    Err(e) => {
                        memo.interp.truncate(fired);
                        memo.next.truncate(cells);
                        return Err(e);
                    }
                }
            }
        };
        Ok(memo.off[entry] as usize..memo.off[entry + 1] as usize)
    }

    /// Fires `aut`'s rule on the decoded `local` row and appends the
    /// entry; on error the caller rolls the firing arrays back.
    fn fill(
        apa: &Apa,
        aut: usize,
        local: &[u32],
        memo: &mut AutomatonMemo,
        cells: &mut CellInterner,
        interps: &mut SymbolTable,
    ) -> Result<usize, ApaError> {
        let automaton = &apa.automata[aut];
        let decoded: LocalState = local.iter().map(|&c| cells.get(c).clone()).collect();
        for (interp, next_local) in automaton.rule.fire(&decoded) {
            if next_local.len() != automaton.neighbourhood.len() {
                return Err(ApaError::MalformedSuccessor {
                    automaton: automaton.name.clone(),
                    expected: automaton.neighbourhood.len(),
                    got: next_local.len(),
                });
            }
            memo.interp.push(interps.intern(&interp));
            for set in &next_local {
                memo.next.push(cells.intern(set)?);
            }
        }
        let end = to_u32(memo.interp.len(), "firings")?;
        let (entry, _) = memo.keys.intern(local)?;
        memo.off.push(end);
        Ok(entry)
    }

    /// The name of a memo interpretation symbol.
    pub(crate) fn interp_name(&self, interp: Symbol) -> &str {
        self.interps.name(interp)
    }

    /// Firing `j` of automaton `aut`: its interpretation (a memo symbol,
    /// see [`InterpSymbols`]) and its successor local cell row.
    pub(crate) fn firing(&self, aut: usize, j: usize) -> (Symbol, &[u32]) {
        let memo = &self.automata[aut];
        let width = memo.keys.width;
        (memo.interp[j], &memo.next[j * width..][..width])
    }
}

/// Translates the memo's interpretation symbols into one caller's
/// symbols, asking `intern` for each at its first use there — the point
/// where [`Apa::successors`]-based engines intern it.
#[derive(Debug, Default)]
pub(crate) struct InterpSymbols(Vec<Option<Symbol>>);

impl InterpSymbols {
    pub(crate) fn get(
        &mut self,
        memo: &FireMemo,
        interp: Symbol,
        intern: impl FnOnce(&str) -> Symbol,
    ) -> Symbol {
        let i = interp.index();
        if i >= self.0.len() {
            self.0.resize(memo.interps.len(), None);
        }
        *self.0[i].get_or_insert_with(|| intern(memo.interps.name(interp)))
    }

    /// Forgets every translation (the caller's table was replaced).
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}
