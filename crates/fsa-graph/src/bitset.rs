//! Dense bit sets used as closure-matrix rows.
//!
//! The transitive-closure algorithms in [`crate::closure`] represent the
//! descendant set of each node as one [`BitSet`] row, so that the
//! accumulation step is a word-parallel union. [`AdjacencyRows`] holds
//! a whole small digraph the same way, for kernels that run once per
//! candidate composition: weak connectivity and the §4.4 relation χ.

use std::fmt;

const WORD_BITS: usize = 64;

/// Number of set bits in `words`.
fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// The indices of the set bits of `words`, lowest first: bit `b` of
/// word `i` is index `64·i + b`.
///
/// # Examples
///
/// ```
/// use fsa_graph::bitset::set_bits;
///
/// assert_eq!(set_bits(&[0b1010, 1]).collect::<Vec<_>>(), vec![1, 3, 64]);
/// ```
pub fn set_bits(words: &[u64]) -> Iter<'_> {
    Iter {
        words,
        word_idx: 0,
        current: words.first().copied().unwrap_or(0),
    }
}

/// A directed graph on the nodes `0..n` as fixed-width adjacency rows:
/// ⌈n/64⌉ `u64` words per row, the `n` successor rows followed by the
/// `n` predecessor rows, in one flat buffer. Parallel edges collapse, as
/// in [`crate::DiGraph`]; self-loops are kept.
///
/// Rows cost O(n²/64) words, so they suit the small graphs that are
/// built, checked and dropped by the thousand (a §4.2 candidate has a
/// few dozen actions), not graphs of thousands of states.
///
/// # Examples
///
/// ```
/// use fsa_graph::bitset::AdjacencyRows;
///
/// let mut g = AdjacencyRows::new(3);
/// g.add_edge(0, 1);
/// g.add_edge(2, 1);
/// assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (2, 1)]);
/// assert_eq!(g.predecessors(1), &[0b101]);
/// assert!(g.is_weakly_connected(&mut Vec::new()));
/// ```
#[derive(Debug, Default, PartialEq, Eq)]
pub struct AdjacencyRows {
    nodes: usize,
    words: usize,
    bits: Vec<u64>,
}

impl Clone for AdjacencyRows {
    fn clone(&self) -> Self {
        AdjacencyRows {
            nodes: self.nodes,
            words: self.words,
            bits: self.bits.clone(),
        }
    }

    /// Copies `source` into `self`'s buffer, reusing its allocation.
    fn clone_from(&mut self, source: &Self) {
        self.nodes = source.nodes;
        self.words = source.words;
        self.bits.clone_from(&source.bits);
    }
}

impl AdjacencyRows {
    /// An edgeless graph on `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        let words = nodes.div_ceil(WORD_BITS);
        AdjacencyRows {
            nodes,
            words,
            bits: vec![0; 2 * nodes * words],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Words per row: ⌈n/64⌉.
    pub fn words_per_row(&self) -> usize {
        self.words
    }

    /// Adds the edge `from → to`: sets `to` in `from`'s successor row
    /// and `from` in `to`'s predecessor row.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn add_edge(&mut self, from: usize, to: usize) {
        assert!(
            from < self.nodes && to < self.nodes,
            "edge {from} → {to} out of range for {} nodes",
            self.nodes
        );
        let w = self.words;
        self.bits[from * w + to / WORD_BITS] |= 1 << (to % WORD_BITS);
        let reverse = (self.nodes + to) * w;
        self.bits[reverse + from / WORD_BITS] |= 1 << (from % WORD_BITS);
    }

    /// The successor row of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn successors(&self, node: usize) -> &[u64] {
        assert!(node < self.nodes, "node {node} out of range");
        &self.bits[node * self.words..(node + 1) * self.words]
    }

    /// The predecessor row of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn predecessors(&self, node: usize) -> &[u64] {
        assert!(node < self.nodes, "node {node} out of range");
        let start = (self.nodes + node) * self.words;
        &self.bits[start..start + self.words]
    }

    /// Number of (distinct) edges: the population count of the
    /// successor rows.
    pub fn edge_count(&self) -> usize {
        popcount(&self.bits[..self.nodes * self.words])
    }

    /// Iterates over all edges in `(source, target)` order, sorted.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.nodes).flat_map(move |v| set_bits(self.successors(v)).map(move |u| (v, u)))
    }

    /// Weak connectivity (one component, ignoring edge direction); the
    /// empty graph counts as connected. A word-parallel search from node
    /// 0: each node, once reached, ORs its successor and predecessor
    /// rows into the reached set. `scratch` holds the reached and
    /// pending sets and is reused across calls.
    pub fn is_weakly_connected(&self, scratch: &mut Vec<u64>) -> bool {
        let (n, w) = (self.nodes, self.words);
        if n == 0 {
            return true;
        }
        scratch.clear();
        scratch.resize(2 * w, 0);
        let (seen, pending) = scratch.split_at_mut(w);
        seen[0] = 1;
        pending[0] = 1;
        while let Some(i) = pending.iter().position(|&word| word != 0) {
            let v = i * WORD_BITS + pending[i].trailing_zeros() as usize;
            pending[i] &= pending[i] - 1;
            let (succ, pred) = (self.successors(v), self.predecessors(v));
            for k in 0..w {
                let fresh = (succ[k] | pred[k]) & !seen[k];
                seen[k] |= fresh;
                pending[k] |= fresh;
            }
        }
        popcount(seen) == n
    }

    /// The relation χ of the paper's §4.4 as rows: row `x` holds every
    /// `y` with `(x, y) ∈ χ`, i.e. `x` is minimal (no predecessor), `y`
    /// is maximal (no successor), `y ≠ x` and `y` is reachable from `x`.
    /// Self-loops are ignored throughout: a node's own bit never makes it
    /// a predecessor, a successor or a descendant of itself.
    ///
    /// One depth-first search from the minimal nodes closes the rows: a
    /// node's row, once all its successors are closed, is the OR of their
    /// rows and bits. A successor still on the search path closes a cycle
    /// of length ≥ 2, and so does a node no search reaches (in an acyclic
    /// graph every node lies below a minimal one); either returns `None`,
    /// where the reflexive transitive closure is no partial order. The
    /// minimal nodes' rows are then intersected with the maxima.
    pub fn chi<'s>(&self, scratch: &'s mut ChiScratch) -> Option<&'s [u64]> {
        let (n, w) = (self.nodes, self.words);
        let (successors, predecessors) = self.bits.split_at(n * w);
        let ChiScratch {
            state,
            stack,
            rows,
            minima,
            maxima,
        } = scratch;
        minima.clear();
        minima.resize(w, 0);
        maxima.clear();
        maxima.resize(w, 0);
        for v in 0..n {
            let (word, bit) = (v / WORD_BITS, 1 << (v % WORD_BITS));
            let alone = |row: &[u64]| {
                row.iter()
                    .zip(0..)
                    .all(|(&x, k)| x & !own(k, word, bit) == 0)
            };
            if alone(&predecessors[v * w..(v + 1) * w]) {
                minima[word] |= bit;
            }
            if alone(&successors[v * w..(v + 1) * w]) {
                maxima[word] |= bit;
            }
        }
        state.clear();
        state.resize(n, Visit::New);
        rows.clear();
        rows.resize(n * w, 0);
        // The successors of `v` in word `k`, its own bit cleared.
        let next = |v: usize, k: usize| {
            successors[v * w + k] & !own(k, v / WORD_BITS, 1 << (v % WORD_BITS))
        };
        let mut closed = 0;
        for root in set_bits(minima) {
            state[root] = Visit::Open;
            stack.push((root, 0, next(root, 0)));
            while let Some(top) = stack.last_mut() {
                let (v, word, bits) = *top;
                if bits == 0 {
                    if word + 1 < w {
                        *top = (v, word + 1, next(v, word + 1));
                        continue;
                    }
                    stack.pop();
                    state[v] = Visit::Closed;
                    closed += 1;
                    if let Some(&(parent, _, _)) = stack.last() {
                        close_under(rows, w, parent, v);
                    }
                    continue;
                }
                top.2 &= bits - 1;
                let u = word * WORD_BITS + bits.trailing_zeros() as usize;
                match state[u] {
                    Visit::Closed => close_under(rows, w, v, u),
                    Visit::Open => {
                        stack.clear();
                        return None;
                    }
                    Visit::New => {
                        state[u] = Visit::Open;
                        stack.push((u, 0, next(u, 0)));
                    }
                }
            }
        }
        if closed < n {
            return None;
        }
        for (v, row) in rows.chunks_mut(w.max(1)).enumerate() {
            let minimal = minima[v / WORD_BITS] >> (v % WORD_BITS) & 1 == 1;
            for (word, &max) in row.iter_mut().zip(maxima.iter()) {
                *word &= if minimal { max } else { 0 };
            }
        }
        Some(rows)
    }
}

/// `bit` if word `k` is `word`, the word that holds it, else 0.
fn own(k: usize, word: usize, bit: u64) -> u64 {
    if k == word {
        bit
    } else {
        0
    }
}

/// Adds closed node `u` and its row to node `v`'s row.
fn close_under(rows: &mut [u64], w: usize, v: usize, u: usize) {
    rows[v * w + u / WORD_BITS] |= 1 << (u % WORD_BITS);
    for k in 0..w {
        let below = rows[u * w + k];
        rows[v * w + k] |= below;
    }
}

/// Where the χ search stands at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Visit {
    New,
    /// On the search path.
    Open,
    /// Its row is complete.
    Closed,
}

/// Reusable buffers of [`AdjacencyRows::chi`].
#[derive(Debug, Default)]
pub struct ChiScratch {
    state: Vec<Visit>,
    /// The search path: each node with the word of its successor row
    /// being read and that word's successors not yet taken.
    stack: Vec<(usize, usize, u64)>,
    rows: Vec<u64>,
    minima: Vec<u64>,
    maxima: Vec<u64>,
}

/// A fixed-capacity dense set of `usize` indices.
///
/// # Examples
///
/// ```
/// use fsa_graph::BitSet;
///
/// let mut s = BitSet::new(100);
/// s.insert(3);
/// s.insert(64);
/// assert!(s.contains(3));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            capacity,
        }
    }

    /// Number of indices this set can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `index`, returning `true` if it was not present before.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(
            index < self.capacity,
            "bit index {index} out of capacity {}",
            self.capacity
        );
        let (w, b) = (index / WORD_BITS, index % WORD_BITS);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes `index`, returning `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn remove(&mut self, index: usize) -> bool {
        assert!(
            index < self.capacity,
            "bit index {index} out of capacity {}",
            self.capacity
        );
        let (w, b) = (index / WORD_BITS, index % WORD_BITS);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Returns `true` if `index` is in the set.
    pub fn contains(&self, index: usize) -> bool {
        if index >= self.capacity {
            return false;
        }
        let (w, b) = (index / WORD_BITS, index % WORD_BITS);
        self.words[w] & (1 << b) != 0
    }

    /// In-place union: `self ← self ∪ other`. Returns `true` if `self`
    /// changed.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | *b;
            changed |= next != *a;
            *a = next;
        }
        changed
    }

    /// In-place intersection: `self ← self ∩ other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// In-place union that also reports the resulting population count,
    /// so frontier sweeps can test convergence without a second pass.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with_count(&mut self, other: &BitSet) -> usize {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        let mut count = 0usize;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
            count += a.count_ones() as usize;
        }
        count
    }

    /// In-place intersection that also reports the resulting population
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersect_with_count(&mut self, other: &BitSet) -> usize {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        let mut count = 0usize;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
            count += a.count_ones() as usize;
        }
        count
    }

    /// The backing words, least-significant index first. Bits past
    /// `capacity` are always zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Clears every bit without reallocating.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Returns `true` if no index is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of indices in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the set indices in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        set_bits(&self.words)
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set whose capacity is one more than the largest element
    /// (or zero for an empty iterator).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

/// Iterator over the set indices of a word slice, created by
/// [`set_bits`] and [`BitSet::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "second insert reports no change");
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert!(!s.contains(63));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn contains_out_of_capacity_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_capacity_panics() {
        BitSet::new(4).insert(4);
    }

    #[test]
    fn union_reports_change() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(1);
        b.insert(1);
        b.insert(69);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b), "second union is a no-op");
        assert!(a.contains(69));
    }

    #[test]
    fn intersect() {
        let mut a: BitSet = [1, 2, 3].into_iter().collect();
        let b: BitSet = [2, 3].into_iter().collect();
        let mut bb = BitSet::new(4);
        for i in b.iter() {
            bb.insert(i);
        }
        a.intersect_with(&bb);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn subset() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(5);
        b.insert(5);
        b.insert(80);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
    }

    #[test]
    fn iter_order_and_empty() {
        let s = BitSet::new(200);
        assert_eq!(s.iter().count(), 0);
        assert!(s.is_empty());
        let s: BitSet = [199, 0, 64, 65].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 65, 199]);
    }

    #[test]
    fn debug_is_never_empty() {
        let s = BitSet::new(0);
        assert_eq!(format!("{s:?}"), "{}");
    }

    #[test]
    fn union_and_intersect_with_count() {
        let mut a = BitSet::new(130);
        let mut b = BitSet::new(130);
        a.insert(0);
        a.insert(64);
        b.insert(64);
        b.insert(129);
        assert_eq!(a.union_with_count(&b), 3);
        assert_eq!(a.len(), 3);
        let mut c = a.clone();
        assert_eq!(c.intersect_with_count(&b), 2);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![64, 129]);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.capacity(), 130);
    }

    #[test]
    fn words_expose_backing_storage() {
        let mut s = BitSet::new(70);
        s.insert(0);
        s.insert(65);
        assert_eq!(s.words(), &[1, 2]);
    }

    /// Undirected reachability from node 0 by a plain worklist: the
    /// oracle of [`AdjacencyRows::is_weakly_connected`].
    fn connected_oracle(g: &AdjacencyRows) -> bool {
        let n = g.node_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for (x, y) in g.edges() {
                for (a, b) in [(x, y), (y, x)] {
                    if a == v && !seen[b] {
                        seen[b] = true;
                        stack.push(b);
                    }
                }
            }
        }
        seen.iter().all(|&s| s)
    }

    #[test]
    fn adjacency_rows_mirror_edges_and_connectivity() {
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut scratch = Vec::new();
        for _ in 0..300 {
            let n = next() % 140;
            let mut g = AdjacencyRows::new(n);
            let mut edges = std::collections::BTreeSet::new();
            for _ in 0..next() % (2 * n + 1) {
                let (x, y) = (next() % n, next() % n);
                g.add_edge(x, y);
                edges.insert((x, y));
            }
            assert_eq!(
                g.edges().collect::<Vec<_>>(),
                edges.iter().copied().collect::<Vec<_>>()
            );
            assert_eq!(g.edge_count(), edges.len());
            let reversed: std::collections::BTreeSet<(usize, usize)> = (0..n)
                .flat_map(|y| set_bits(g.predecessors(y)).map(move |x| (x, y)))
                .collect();
            assert_eq!(reversed, edges);
            assert_eq!(
                g.is_weakly_connected(&mut scratch),
                connected_oracle(&g),
                "{g:?}"
            );
            let mut copy = AdjacencyRows::new(3);
            copy.clone_from(&g);
            assert_eq!(copy, g);
        }
    }

    #[test]
    fn chi_ignores_self_loops_and_rejects_longer_cycles() {
        // 0 → 1 → 2 and 3 → 2, a self-loop on 1 and one on the minimum 3.
        let mut g = AdjacencyRows::new(5);
        for (x, y) in [(0, 1), (1, 2), (3, 2), (1, 1), (3, 3)] {
            g.add_edge(x, y);
        }
        let mut scratch = ChiScratch::default();
        let chi = g.chi(&mut scratch).expect("no cycle of length ≥ 2");
        // Node 4 is isolated: minimal and maximal, but (4, 4) ∉ χ.
        let pairs: Vec<(usize, usize)> = (0..5)
            .flat_map(|x| {
                (0..5)
                    .filter(move |&y| chi[x] & (1 << y) != 0)
                    .map(move |y| (x, y))
            })
            .collect();
        assert_eq!(pairs, vec![(0, 2), (3, 2)]);
        g.add_edge(2, 0);
        assert!(g.chi(&mut scratch).is_none());
        assert_eq!(AdjacencyRows::new(0).chi(&mut scratch), Some(&[][..]));
        // A cycle below no minimal node: 0 → 1, and 2 ⇄ 3 on their own.
        let mut g = AdjacencyRows::new(4);
        for (x, y) in [(0, 1), (2, 3), (3, 2)] {
            g.add_edge(x, y);
        }
        assert!(g.chi(&mut scratch).is_none());
    }

    #[test]
    fn chi_closes_rows_across_words() {
        // 130 nodes, three words per row: a chain 0 → 65 → 129 → 64 with
        // a self-loop on 65, and 1 → 65. χ pairs both minima with the one
        // maximum 64; nodes 2–63 and 66–128 are isolated.
        let mut g = AdjacencyRows::new(130);
        for (x, y) in [(0, 65), (65, 129), (129, 64), (65, 65), (1, 65)] {
            g.add_edge(x, y);
        }
        let mut scratch = ChiScratch::default();
        let chi = g.chi(&mut scratch).expect("acyclic").to_vec();
        let pairs: Vec<(usize, usize)> = chi
            .chunks(3)
            .enumerate()
            .flat_map(|(x, row)| set_bits(row).map(move |y| (x, y)))
            .collect();
        assert_eq!(pairs, vec![(0, 64), (1, 64)]);
        // Closing the chain into a cycle through three words.
        g.add_edge(64, 0);
        assert!(g.chi(&mut scratch).is_none());
    }
}
