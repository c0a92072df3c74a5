//! Isomorphism of labelled directed graphs.
//!
//! §4.2 of the paper: "all structurally different combinations of
//! component instances shall be considered. *Isomorphic combinations can
//! be neglected.*" This module decides isomorphism of two labelled
//! digraphs so that an instance generator can de-duplicate SoS instances.
//!
//! The implementation uses iterated colour refinement (1-WL) to prune,
//! followed by a backtracking search; SoS instance graphs are small
//! (tens of actions), so this is fast in practice while remaining exact.
//!
//! Colour refinement and the certificate trace are one routine, generic
//! over how a node's successors are enumerated: from the sorted
//! adjacency lists of a [`DiGraph`] ([`canonical_certificate`]), or from
//! fixed-width [`AdjacencyRows`] with caller-supplied initial colours
//! ([`row_certificate`]). Both give the same certificate for the same
//! labelled graph. The routine hashes whole 64-bit words: neighbour
//! multisets are wrapping sums of finalised colours, and a signature
//! absorbs one word per multiply-xorshift.

use crate::bitset::{set_bits, AdjacencyRows};
use crate::digraph::{DiGraph, NodeId};
use std::collections::HashMap;
use std::hash::Hash;

/// The graphs colour refinement and the certificate trace read: their
/// nodes and each node's successors.
trait Neighbours {
    fn node_count(&self) -> usize;
    fn successors_of(&self, v: usize) -> impl Iterator<Item = usize> + '_;
}

impl<L> Neighbours for DiGraph<L> {
    fn node_count(&self) -> usize {
        DiGraph::node_count(self)
    }

    fn successors_of(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.successors(NodeId::new(v)).map(NodeId::index)
    }
}

impl Neighbours for AdjacencyRows {
    fn node_count(&self) -> usize {
        AdjacencyRows::node_count(self)
    }

    fn successors_of(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        set_bits(self.successors(v))
    }
}

/// Decides whether `a` and `b` are isomorphic as labelled digraphs, i.e.
/// whether a bijection of nodes exists that preserves labels and edges.
///
/// # Examples
///
/// ```
/// use fsa_graph::{DiGraph, iso::are_isomorphic};
///
/// let mut a = DiGraph::new();
/// let a0 = a.add_node("x");
/// let a1 = a.add_node("y");
/// a.add_edge(a0, a1);
///
/// let mut b = DiGraph::new();
/// let b1 = b.add_node("y"); // same graph, different insertion order
/// let b0 = b.add_node("x");
/// b.add_edge(b0, b1);
///
/// assert!(are_isomorphic(&a, &b));
/// ```
pub fn are_isomorphic<L: Eq + Hash + Ord>(a: &DiGraph<L>, b: &DiGraph<L>) -> bool {
    find_isomorphism(a, b).is_some()
}

/// Finds a label- and edge-preserving bijection from `a`'s nodes to `b`'s
/// nodes, if one exists. The returned vector maps `a`-indices to
/// `b`-node-ids.
pub fn find_isomorphism<L: Eq + Hash + Ord>(a: &DiGraph<L>, b: &DiGraph<L>) -> Option<Vec<NodeId>> {
    if a.node_count() != b.node_count() || a.edge_count() != b.edge_count() {
        return None;
    }
    let n = a.node_count();
    if n == 0 {
        return Some(Vec::new());
    }

    // Rank labels over the union of both graphs so that colours are
    // comparable across graphs.
    let mut labels: Vec<&L> = a
        .nodes()
        .map(|(_, l)| l)
        .chain(b.nodes().map(|(_, l)| l))
        .collect();
    labels.sort();
    labels.dedup();
    let rank: HashMap<&L, u64> = labels
        .iter()
        .enumerate()
        .map(|(i, l)| (*l, i as u64))
        .collect();
    let refined = |g: &DiGraph<L>| {
        let mut s = CertificateScratch::default();
        s.classes.reset(g.nodes().map(|(_, l)| rank[l]));
        refine_colors(g, &mut s);
        s.classes.color
    };
    let ca = refined(a);
    let cb = refined(b);

    // The colour histograms must match.
    if histogram(&ca) != histogram(&cb) {
        return None;
    }

    // Candidate sets: a-node may map to any b-node of the same colour.
    let mut candidates: Vec<Vec<NodeId>> = Vec::with_capacity(n);
    for &color in ca.iter().take(n) {
        let cands: Vec<NodeId> = b.node_ids().filter(|j| cb[j.index()] == color).collect();
        if cands.is_empty() {
            return None;
        }
        candidates.push(cands);
    }

    // Order a-nodes by ascending candidate count (most constrained first).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| candidates[i].len());

    let mut mapping: Vec<Option<NodeId>> = vec![None; n];
    let mut used = vec![false; n];
    backtrack(a, b, &order, 0, &candidates, &mut mapping, &mut used).then(|| {
        mapping
            .into_iter()
            .map(|m| m.expect("complete mapping"))
            .collect()
    })
}

/// Reusable buffers of colour refinement and the certificate trace: the
/// graph's edges, the two colour vectors, the finalised colours, the
/// neighbour sums and the colour classes. One value serves any number of
/// [`row_certificate`] calls, on any graphs.
#[derive(Debug, Default)]
pub struct CertificateScratch {
    edges: Vec<(usize, usize)>,
    next: Vec<u64>,
    /// Per node, the wrapping sums of its in- and out-neighbours'
    /// finalised colours.
    sums: Vec<(u64, u64)>,
    /// The current colouring and its partition.
    classes: Colouring,
}

/// A colouring of the nodes with the partition it induces: each node's
/// colour and [`finalise`]d colour, and the nodes grouped by colour
/// class.
#[derive(Debug, Clone, Default)]
struct Colouring {
    color: Vec<u64>,
    mixed: Vec<u64>,
    /// The nodes, grouped by colour class.
    order: Vec<usize>,
    /// Whether position `i` of `order` starts a class.
    starts: Vec<bool>,
    /// Number of classes: the `true` entries of `starts`.
    count: usize,
}

impl Colouring {
    /// Sets `color` to `initial`, finalises it and splits the nodes into
    /// its classes.
    fn reset(&mut self, initial: impl IntoIterator<Item = u64>) {
        self.color.clear();
        self.color.extend(initial);
        finalise_all(&self.color, &mut self.mixed);
        let n = self.color.len();
        self.order.clear();
        self.order.extend(0..n);
        self.starts.clear();
        self.starts.resize(n, false);
        self.count = usize::from(n > 0);
        if let Some(first) = self.starts.first_mut() {
            *first = true;
            self.count += split_classes(&self.color, &mut self.order, &mut self.starts);
        }
    }

    /// Copies `source` into `self`, reusing its buffers.
    fn copy_from(&mut self, source: &Colouring) {
        self.color.clone_from(&source.color);
        self.mixed.clone_from(&source.mixed);
        self.order.clone_from(&source.order);
        self.starts.clone_from(&source.starts);
        self.count = source.count;
    }
}

/// The initial colours of [`row_certificate`], one per node, split into
/// their classes and finalised once: the first steps of every
/// refinement from these colours, shared by every graph on the same
/// labelled nodes (every candidate composition of one multiplicity
/// vector).
#[derive(Debug, Clone)]
pub struct InitialColouring(Colouring);

impl InitialColouring {
    /// The colouring that gives node `v` the colour `colours[v]`, i.e.
    /// [`label_hash`] of its label.
    pub fn new(colours: impl IntoIterator<Item = u64>) -> Self {
        let mut colouring = Colouring::default();
        colouring.reset(colours);
        InitialColouring(colouring)
    }
}

/// Iterated colour refinement (1-WL) from the colouring in `s.classes`;
/// the refined colouring is left there, with its finalised colours, and
/// the graph's edges in `s.edges`.
///
/// A round recolours every node from its own colour and the multisets of
/// its in- and out-neighbours' colours. A multiset is hashed as the
/// wrapping sum of its members' [`finalise`]d colours: each colour is
/// finalised once per round and added to both ends' sums in one pass
/// over the edges. The new colour [`absorb`]s the own colour and the two
/// sums, one word at a time. A colour depends only on that signature, so
/// colours stay comparable across graphs.
///
/// The colour classes are kept as runs of one node order. A round only
/// splits them, because a new colour absorbs the old one, and only a
/// class whose members got different colours is sorted. Refinement stops
/// before the first round that splits no class, i.e. whose colouring
/// induces the same partition as the one it was computed from, and after
/// at most `n` rounds. A discrete partition (every class one node) can
/// split no further, so refinement stops as soon as it is reached, with
/// the colouring the round that would split nothing keeps. The buffers
/// are reused across nodes and rounds.
fn refine_colors<G: Neighbours>(g: &G, s: &mut CertificateScratch) {
    let n = g.node_count();
    let CertificateScratch {
        edges,
        next,
        sums,
        classes,
    } = s;
    edges.clear();
    edges.extend((0..n).flat_map(|v| g.successors_of(v).map(move |u| (v, u))));
    next.clear();
    next.resize(n, 0);

    for _round in 0..n {
        if classes.count == n {
            break;
        }
        let Colouring {
            color,
            mixed,
            order,
            starts,
            count,
        } = classes;
        sums.clear();
        sums.resize(n, (0, 0));
        for &(x, y) in edges.iter() {
            sums[y].0 = sums[y].0.wrapping_add(mixed[x]);
            sums[x].1 = sums[x].1.wrapping_add(mixed[y]);
        }
        for ((slot, &own), &(ins, outs)) in next.iter_mut().zip(color.iter()).zip(sums.iter()) {
            *slot = absorb(absorb(absorb(SIGNATURE_SEED, own), ins), outs);
        }
        let opened = split_classes(next, order, starts);
        if opened == 0 {
            break;
        }
        *count += opened;
        std::mem::swap(color, next);
        finalise_all(color, mixed);
    }
}

/// Splits the classes of `order` (the runs that `starts` opens) by the
/// node values `by`: a class whose members disagree is sorted by value
/// and opens a run at each change. Returns the number of runs opened.
fn split_classes(by: &[u64], order: &mut [usize], starts: &mut [bool]) -> usize {
    let n = order.len();
    let mut opened = 0;
    let mut lo = 0;
    while lo < n {
        let hi = (lo + 1..n).find(|&i| starts[i]).unwrap_or(n);
        let class = &mut order[lo..hi];
        let first = by[class[0]];
        if class.iter().any(|&v| by[v] != first) {
            class.sort_unstable_by_key(|&v| by[v]);
            for i in lo + 1..hi {
                starts[i] = by[order[i]] != by[order[i - 1]];
                opened += usize::from(starts[i]);
            }
        }
        lo = hi;
    }
    opened
}

/// The first word a refinement signature absorbs.
const SIGNATURE_SEED: u64 = 0x243f_6a88_85a3_08d3;

/// The first word the certificate trace absorbs.
const TRACE_SEED: u64 = 0x1319_8a2e_0370_7344;

/// Absorbs `word` into the running hash `h` with one multiply-xorshift.
/// For a fixed `h` it is a bijection of `word` (an odd multiplier, then
/// an xorshift), so two signatures that differ only in their last word
/// never collide.
#[inline]
fn absorb(h: u64, word: u64) -> u64 {
    let x = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 32)
}

/// The splitmix64 finaliser: a bijection of `u64` whose every output bit
/// depends on every input bit. Multisets are hashed as wrapping sums of
/// finalised colours, so two different multisets collide only if an
/// integer combination of such values vanishes modulo 2^64: no more
/// likely than a collision of a 64-bit hash.
#[inline]
fn finalise(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fills `mixed` with the [`finalise`]d `colors`.
fn finalise_all(colors: &[u64], mixed: &mut Vec<u64>) {
    mixed.clear();
    mixed.extend(colors.iter().map(|&c| finalise(c)));
}

fn histogram(colors: &[u64]) -> HashMap<u64, usize> {
    let mut h = HashMap::new();
    for &c in colors {
        *h.entry(c).or_insert(0) += 1;
    }
    h
}

fn backtrack<L>(
    a: &DiGraph<L>,
    b: &DiGraph<L>,
    order: &[usize],
    depth: usize,
    candidates: &[Vec<NodeId>],
    mapping: &mut Vec<Option<NodeId>>,
    used: &mut Vec<bool>,
) -> bool {
    if depth == order.len() {
        return true;
    }
    let i = order[depth];
    'cand: for &j in &candidates[i] {
        if used[j.index()] {
            continue;
        }
        // Consistency with already-mapped neighbours. A self-loop needs
        // an explicit check: when `i` is being placed, `mapping[i]` is
        // still `None`, so the `s == i` successor would otherwise slip
        // through unverified (a self-loop is only ever visible from its
        // own node's perspective).
        let ai = NodeId::new(i);
        for s in a.successors(ai) {
            if s == ai {
                if !b.has_edge(j, j) {
                    continue 'cand;
                }
            } else if let Some(mapped) = mapping[s.index()] {
                if !b.has_edge(j, mapped) {
                    continue 'cand;
                }
            }
        }
        for p in a.predecessors(ai) {
            if p != ai {
                if let Some(mapped) = mapping[p.index()] {
                    if !b.has_edge(mapped, j) {
                        continue 'cand;
                    }
                }
            }
        }
        mapping[i] = Some(j);
        used[j.index()] = true;
        if backtrack(a, b, order, depth + 1, candidates, mapping, used) {
            return true;
        }
        mapping[i] = None;
        used[j.index()] = false;
    }
    false
}

/// De-duplicates a collection of labelled graphs up to isomorphism,
/// keeping the first representative of each class (stable order).
///
/// This is the paper's "isomorphic combinations can be neglected" step
/// applied to a set of candidate SoS instances. The pass is O(n²)
/// pairwise; prefer [`dedup_isomorphic_certified`] for large candidate
/// streams.
pub fn dedup_isomorphic<L: Eq + Hash + Ord>(graphs: Vec<DiGraph<L>>) -> Vec<DiGraph<L>> {
    let mut reps: Vec<DiGraph<L>> = Vec::new();
    for g in graphs {
        if !reps.iter().any(|r| are_isomorphic(r, &g)) {
            reps.push(g);
        }
    }
    reps
}

/// A canonical isomorphism-invariant certificate of a labelled digraph.
///
/// Isomorphic graphs always receive *equal* certificates; non-isomorphic
/// graphs receive distinct certificates except for 1-WL-equivalent pairs
/// (and the negligible chance of a 64-bit hash collision), so a
/// certificate is a *bucket key*: equality must be confirmed with
/// [`find_isomorphism`] inside a bucket, never across buckets. What a
/// certificate promises is that bucket partition; its value is stable
/// across runs and machines, but a new refinement kernel may change it.
pub type Certificate = u64;

/// Computes the [`Certificate`] of `g`: colour-refinement (1-WL)
/// partition → canonical trace over the node and edge counts, the
/// node-colour multiset and the multiset of edge colour pairs.
///
/// # Examples
///
/// ```
/// use fsa_graph::{DiGraph, iso::canonical_certificate};
///
/// let mut a = DiGraph::new();
/// let a0 = a.add_node("x");
/// let a1 = a.add_node("y");
/// a.add_edge(a0, a1);
///
/// let mut b = DiGraph::new();
/// let b1 = b.add_node("y"); // same graph, different insertion order
/// let b0 = b.add_node("x");
/// b.add_edge(b0, b1);
///
/// assert_eq!(canonical_certificate(&a), canonical_certificate(&b));
/// ```
pub fn canonical_certificate<L: Hash>(g: &DiGraph<L>) -> Certificate {
    let mut s = CertificateScratch::default();
    s.classes.reset(g.nodes().map(|(_, l)| label_hash(l)));
    certificate_trace(g, &mut s)
}

/// The [`canonical_certificate`] of the graph `rows` with node `v`
/// labelled `ℓ(v)`, given the [`InitialColouring`] of the colours
/// `label_hash(ℓ(v))`: the same refinement and trace, reading
/// neighbours from the rows, in the reused buffers of `scratch`.
///
/// # Panics
///
/// Panics if `initial` does not colour one node per row.
///
/// # Examples
///
/// ```
/// use fsa_graph::bitset::AdjacencyRows;
/// use fsa_graph::iso::{
///     canonical_certificate, label_hash, row_certificate, CertificateScratch, InitialColouring,
/// };
/// use fsa_graph::DiGraph;
///
/// let mut g = DiGraph::new();
/// let x = g.add_node("x");
/// let y = g.add_node("y");
/// g.add_edge(x, y);
/// let mut rows = AdjacencyRows::new(2);
/// rows.add_edge(0, 1);
/// let initial = InitialColouring::new([label_hash(&"x"), label_hash(&"y")]);
/// let mut scratch = CertificateScratch::default();
/// assert_eq!(
///     row_certificate(&rows, &initial, &mut scratch),
///     canonical_certificate(&g)
/// );
/// ```
pub fn row_certificate(
    rows: &AdjacencyRows,
    initial: &InitialColouring,
    scratch: &mut CertificateScratch,
) -> Certificate {
    assert_eq!(
        initial.0.color.len(),
        rows.node_count(),
        "one initial colour per node"
    );
    scratch.classes.copy_from(&initial.0);
    certificate_trace(rows, scratch)
}

/// Refines the colouring in `s.classes` and hashes the certificate
/// trace: the node and edge counts, the multiset of node colours and the
/// multiset of edge colour pairs, each multiset as a wrapping sum.
fn certificate_trace<G: Neighbours>(g: &G, s: &mut CertificateScratch) -> Certificate {
    refine_colors(g, s);
    let mixed = &s.classes.mixed;
    let nodes = mixed.iter().fold(0u64, |sum, &c| sum.wrapping_add(c));
    // An odd multiplier on the source side keeps (x, y) and (y, x) apart.
    let pairs = s.edges.iter().fold(0u64, |sum, &(x, y)| {
        sum.wrapping_add(finalise(
            mixed[x].wrapping_mul(0xd6e8_feb8_6659_fd93) ^ mixed[y],
        ))
    });
    [g.node_count() as u64, s.edges.len() as u64, nodes, pairs]
        .into_iter()
        .fold(TRACE_SEED, absorb)
}

/// FNV-1a as a [`std::hash::Hasher`], so `#[derive(Hash)]` labels feed a
/// fully deterministic digest: no per-process `RandomState` keys, no
/// toolchain-dependent SipHash. Certificates built on it are stable
/// across runs and machines, so the bucket layout — and with it the
/// certificate-hit and exact-fallback counts — is reproducible.
struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// A deterministic (cross-process, cross-toolchain) hash of a node
/// label, used as the initial refinement colour. Equal labels hash
/// equally in *any* graph, so the refined colours — and hence
/// certificates — are comparable across graphs *and across runs*.
/// `str`, `String` and `Arc<str>` labels hash alike.
pub fn label_hash<L: Hash + ?Sized>(label: &L) -> u64 {
    use std::hash::Hasher;
    let mut h = FnvHasher(0xcbf29ce484222325);
    label.hash(&mut h);
    h.finish()
}

/// Streaming isomorphism de-duplicator: candidates are bucketed by
/// [`Certificate`] and compared exactly only against representatives
/// *inside* their bucket. Memory and time are proportional to the
/// number of *equivalence classes*, not candidates — the engine behind
/// the §4.2 instance-space exploration.
///
/// A representative `R` is whatever the caller keeps of a class: a
/// whole [`DiGraph`] (compared with [`find_isomorphism`] by
/// [`CertifiedClasses::insert`]), or a key from which
/// the caller rebuilds the graph when a bucket is hit
/// ([`CertifiedClasses::insert_by`]).
#[derive(Debug, Clone)]
pub struct CertifiedClasses<R> {
    /// Per certificate, the first class founded under it.
    buckets: HashMap<Certificate, usize>,
    /// Per class, the next class founded under its certificate
    /// ([`NO_CLASS`] for the last): each bucket is a chain in founding
    /// order, with no allocation of its own.
    next: Vec<usize>,
    reps: Vec<R>,
    certificate_hits: usize,
    exact_fallbacks: usize,
}

/// The end of a bucket's chain.
const NO_CLASS: usize = usize::MAX;

impl<R> Default for CertifiedClasses<R> {
    fn default() -> Self {
        CertifiedClasses {
            buckets: HashMap::new(),
            next: Vec::new(),
            reps: Vec::new(),
            certificate_hits: 0,
            exact_fallbacks: 0,
        }
    }
}

impl<R> CertifiedClasses<R> {
    /// Creates an empty class map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts the candidate `rep` under its precomputed `certificate`,
    /// deciding exact equivalence with `same(representative, rep)`
    /// against each representative in the bucket, in founding order.
    /// Returns `Some(class index)` if the candidate founded a *new*
    /// class, `None` if it duplicated an existing one.
    pub fn insert_by(
        &mut self,
        rep: R,
        certificate: Certificate,
        mut same: impl FnMut(&R, &R) -> bool,
    ) -> Option<usize> {
        let idx = self.reps.len();
        let mut at = *self.buckets.entry(certificate).or_insert(idx);
        if at != idx {
            self.certificate_hits += 1;
            loop {
                self.exact_fallbacks += 1;
                if same(&self.reps[at], &rep) {
                    return None;
                }
                match self.next[at] {
                    NO_CLASS => break,
                    later => at = later,
                }
            }
            self.next[at] = idx;
        }
        self.next.push(NO_CLASS);
        self.reps.push(rep);
        Some(idx)
    }

    /// Number of classes discovered so far.
    pub fn len(&self) -> usize {
        self.reps.len()
    }

    /// Returns `true` if no class has been discovered.
    pub fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }

    /// How many candidates hit a non-empty certificate bucket.
    pub fn certificate_hits(&self) -> usize {
        self.certificate_hits
    }

    /// How many exact equivalence checks ran.
    pub fn exact_fallbacks(&self) -> usize {
        self.exact_fallbacks
    }

    /// The class representatives, in first-seen order.
    pub fn into_reps(self) -> Vec<R> {
        self.reps
    }
}

impl<L: Eq + Hash + Ord> CertifiedClasses<DiGraph<L>> {
    /// Inserts a candidate graph under its certificate, confirming
    /// bucket hits with [`find_isomorphism`]. See
    /// [`CertifiedClasses::insert_by`].
    pub fn insert(&mut self, g: DiGraph<L>) -> Option<usize> {
        let certificate = canonical_certificate(&g);
        self.insert_by(g, certificate, are_isomorphic)
    }
}

/// De-duplicates via certificate buckets — semantically identical to
/// [`dedup_isomorphic`] (first representative of each class, stable
/// order), but with exact isomorphism checks confined to certificate
/// buckets.
pub fn dedup_isomorphic_certified<L: Eq + Hash + Ord>(graphs: Vec<DiGraph<L>>) -> Vec<DiGraph<L>> {
    let mut classes = CertifiedClasses::new();
    for g in graphs {
        classes.insert(g);
    }
    classes.into_reps()
}

#[cfg(test)]
mod fnv_kernel;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    use fnv_kernel::{assert_same_buckets, partition_of};

    /// A labelled digraph drawn from `seed`: 0–30 nodes over 1–3 labels,
    /// self-loops allowed, with an edge density of 1/2 to 1/32 drawn per
    /// graph so both dense graphs and long sparse chains occur.
    fn random_digraph(seed: u64) -> DiGraph<u8> {
        random_digraph_up_to(seed, 30)
    }

    /// [`random_digraph`] with 0–`max_nodes` nodes.
    fn random_digraph_up_to(seed: u64, max_nodes: u64) -> DiGraph<u8> {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let n = (next() % (max_nodes + 1)) as usize;
        let labels = 1 + next() % 3;
        let sparsity = 2 + next() % 31;
        let mut g = DiGraph::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|_| g.add_node((next() % labels) as u8))
            .collect();
        for &u in &ids {
            for &v in &ids {
                if next() % sparsity == 0 {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// The word-wise refinement induces the partition of the
        /// byte-wise FNV kernel; the colour values differ.
        #[test]
        fn in_place_refinement_matches_the_partition_oracle(seed in any::<u64>()) {
            let g = random_digraph(seed);
            let mut s = CertificateScratch::default();
            s.classes.reset(g.nodes().map(|(_, l)| label_hash(l)));
            refine_colors(&g, &mut s);
            prop_assert_eq!(
                partition_of(&s.classes.color),
                partition_of(&fnv_kernel::refine(&g, label_hash)),
                "seed {}",
                seed
            );
        }
    }

    /// `g` with its nodes inserted in the order `order` (node `order[i]`
    /// of `g` becomes node `i`) and the edge `toggle` flipped, if given.
    fn rebuilt(g: &DiGraph<u8>, order: &[usize], toggle: Option<(usize, usize)>) -> DiGraph<u8> {
        let mut place = vec![0; order.len()];
        for (i, &v) in order.iter().enumerate() {
            place[v] = i;
        }
        let mut h = DiGraph::new();
        let ids: Vec<NodeId> = order
            .iter()
            .map(|&v| h.add_node(*g.payload(NodeId::new(v))))
            .collect();
        let mut edges: Vec<(usize, usize)> =
            g.edges().map(|(x, y)| (x.index(), y.index())).collect();
        if let Some(edge) = toggle {
            match edges.iter().position(|&e| e == edge) {
                Some(at) => {
                    edges.remove(at);
                }
                None => edges.push(edge),
            }
        }
        for (x, y) in edges {
            h.add_edge(ids[place[x]], ids[place[y]]);
        }
        h
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        /// On a random labelled digraph of 0–150 nodes (self-loops
        /// allowed) and a second graph that is a reordering of it, a copy
        /// with one edge flipped, or another random graph, the word-wise
        /// certificates are equal iff the byte-wise FNV ones are.
        #[test]
        fn word_kernel_buckets_match_the_fnv_kernel(seed in any::<u64>()) {
            let a = random_digraph_up_to(seed, 150);
            let n = a.node_count();
            let mut order: Vec<usize> = (0..n).collect();
            order.reverse();
            order.rotate_left((seed as usize >> 8) % n.max(1));
            let edge = n.checked_sub(1).map(|last| ((seed as usize >> 16) % n, last));
            let (b, isomorphic) = match seed % 3 {
                0 => (rebuilt(&a, &order, None), true),
                1 => (rebuilt(&a, &order, edge), false),
                _ => (random_digraph_up_to(seed.rotate_left(17), 150), false),
            };
            let new = (canonical_certificate(&a), canonical_certificate(&b));
            let old = (fnv_kernel::certificate(&a), fnv_kernel::certificate(&b));
            prop_assert_eq!(new.0 == new.1, old.0 == old.1, "seed {}", seed);
            if isomorphic {
                prop_assert_eq!(new.0, new.1, "seed {}", seed);
            }
        }
    }

    #[test]
    fn word_kernel_buckets_match_the_fnv_kernel_on_small_graphs() {
        // 2 000 graphs of 0–4 nodes fall into few buckets, so many pairs
        // share one: both kernels must split them alike.
        let certificates: Vec<(Certificate, u64)> = (0..2_000u64)
            .map(|seed| random_digraph_up_to(seed, 4))
            .map(|g| (canonical_certificate(&g), fnv_kernel::certificate(&g)))
            .collect();
        let buckets = assert_same_buckets(&certificates);
        assert!((50..1_000).contains(&buckets), "{buckets} buckets");
    }

    /// Disjoint directed cycles of the given lengths, all labelled `v`;
    /// a cycle of length 1 is a self-loop.
    fn cycles(lengths: &[usize]) -> DiGraph<&'static str> {
        let mut g = DiGraph::new();
        for &len in lengths {
            let ids: Vec<NodeId> = (0..len).map(|_| g.add_node("v")).collect();
            for i in 0..len {
                g.add_edge(ids[i], ids[(i + 1) % len]);
            }
        }
        g
    }

    #[test]
    fn wl_equivalent_pairs_share_a_bucket_in_both_kernels() {
        // Every node of a union of directed cycles has one in- and one
        // out-neighbour of its own colour, so 1-WL cannot tell unions of
        // the same total length apart.
        let groups: [&[&[usize]]; 4] = [
            &[&[6], &[3, 3], &[1, 2, 3], &[2, 2, 2]],
            &[&[3], &[1, 2], &[1, 1, 1]],
            &[&[4], &[2, 2], &[1, 3]],
            &[&[9], &[4, 5], &[3, 3, 3]],
        ];
        let mut certificates = Vec::new();
        for group in groups {
            let first = cycles(group[0]);
            for lengths in &group[1..] {
                let g = cycles(lengths);
                assert!(!are_isomorphic(&first, &g), "{lengths:?}");
                assert_eq!(canonical_certificate(&first), canonical_certificate(&g));
                assert_eq!(fnv_kernel::certificate(&first), fnv_kernel::certificate(&g));
            }
            certificates.extend(group.iter().map(|lengths| {
                let g = cycles(lengths);
                (canonical_certificate(&g), fnv_kernel::certificate(&g))
            }));
        }
        assert_eq!(assert_same_buckets(&certificates), groups.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The row certificate equals the adjacency-list certificate on
        /// labelled digraphs of 0–150 nodes (1–3 words per row), 1–3
        /// labels and self-loops.
        #[test]
        fn row_certificate_matches_the_adjacency_list_certificate(seed in any::<u64>()) {
            let g = random_digraph_up_to(seed, 150);
            let mut rows = AdjacencyRows::new(g.node_count());
            for (x, y) in g.edges() {
                rows.add_edge(x.index(), y.index());
            }
            prop_assert_eq!(rows.edge_count(), g.edge_count());
            let initial = InitialColouring::new(g.nodes().map(|(_, l)| label_hash(l)));
            let mut scratch = CertificateScratch::default();
            let certificate = row_certificate(&rows, &initial, &mut scratch);
            prop_assert_eq!(certificate, canonical_certificate(&g), "seed {}", seed);
            // A reused scratch gives the same certificate.
            prop_assert_eq!(row_certificate(&rows, &initial, &mut scratch), certificate);
        }
    }

    /// `g` as adjacency rows with the initial colouring of its labels.
    fn rows_of(g: &DiGraph<u8>) -> (AdjacencyRows, InitialColouring) {
        let mut rows = AdjacencyRows::new(g.node_count());
        for (x, y) in g.edges() {
            rows.add_edge(x.index(), y.index());
        }
        (
            rows,
            InitialColouring::new(g.nodes().map(|(_, l)| label_hash(l))),
        )
    }

    #[test]
    fn a_scratch_shared_across_initial_colourings_gives_fresh_certificates() {
        // Three "vectors", each a family of graphs on one labelled node
        // set (10, 70 and 3 nodes), certified in turn with one scratch:
        // every certificate is that of a fresh scratch, and of the
        // adjacency lists.
        let families: Vec<Vec<DiGraph<u8>>> = [10u64, 70, 3]
            .iter()
            .map(|&n| {
                let base = labelled_nodes(n);
                (0..12u64)
                    .map(|seed| with_random_edges(&base, seed))
                    .collect()
            })
            .collect();
        let mut shared = CertificateScratch::default();
        let mut checked = 0;
        for k in 0..12 {
            for family in &families {
                let g = &family[k];
                let (rows, initial) = rows_of(g);
                let fresh = row_certificate(&rows, &initial, &mut CertificateScratch::default());
                assert_eq!(
                    row_certificate(&rows, &initial, &mut shared),
                    fresh,
                    "graph {k}"
                );
                assert_eq!(fresh, canonical_certificate(g), "graph {k}");
                checked += 1;
            }
        }
        assert_eq!(checked, 36);
    }

    /// `n` edgeless nodes labelled 0, 1, 2, 0, 1, …
    fn labelled_nodes(n: u64) -> DiGraph<u8> {
        let mut g = DiGraph::new();
        for v in 0..n {
            g.add_node((v % 3) as u8);
        }
        g
    }

    /// `base`'s nodes with about `n` random edges drawn from `seed`,
    /// self-loops allowed.
    fn with_random_edges(base: &DiGraph<u8>, seed: u64) -> DiGraph<u8> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let n = base.node_count();
        let mut g = base.clone();
        for _ in 0..n {
            let (x, y) = (next() % n, next() % n);
            g.add_edge(NodeId::new(x), NodeId::new(y));
        }
        g
    }

    fn triangle(labels: [&'static str; 3]) -> DiGraph<&'static str> {
        let mut g = DiGraph::new();
        let a = g.add_node(labels[0]);
        let b = g.add_node(labels[1]);
        let c = g.add_node(labels[2]);
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, a);
        g
    }

    #[test]
    fn identical_graphs_isomorphic() {
        let g = triangle(["x", "y", "z"]);
        assert!(are_isomorphic(&g, &g.clone()));
    }

    #[test]
    fn relabelled_insertion_order_isomorphic() {
        let mut a = DiGraph::new();
        let a0 = a.add_node("v");
        let a1 = a.add_node("v");
        let a2 = a.add_node("rsu");
        a.add_edge(a2, a0);
        a.add_edge(a0, a1);

        let mut b = DiGraph::new();
        let b2 = b.add_node("rsu");
        let b0 = b.add_node("v");
        let b1 = b.add_node("v");
        b.add_edge(b2, b0);
        b.add_edge(b0, b1);
        assert!(are_isomorphic(&a, &b));
        let m = find_isomorphism(&a, &b).unwrap();
        // check mapping preserves edges
        for (x, y) in a.edges() {
            assert!(b.has_edge(m[x.index()], m[y.index()]));
        }
    }

    #[test]
    fn different_labels_not_isomorphic() {
        let a = triangle(["x", "y", "z"]);
        let b = triangle(["x", "y", "w"]);
        assert!(!are_isomorphic(&a, &b));
    }

    #[test]
    fn different_structure_not_isomorphic() {
        let a = triangle(["v", "v", "v"]);
        let mut b = DiGraph::new();
        let b0 = b.add_node("v");
        let b1 = b.add_node("v");
        let b2 = b.add_node("v");
        b.add_edge(b0, b1);
        b.add_edge(b0, b2);
        b.add_edge(b1, b2); // DAG, not a cycle
        assert!(!are_isomorphic(&a, &b));
    }

    #[test]
    fn edge_direction_matters() {
        let mut a = DiGraph::new();
        let a0 = a.add_node("v");
        let a1 = a.add_node("v");
        a.add_edge(a0, a1);
        a.add_edge(a0, a1);
        let mut b = DiGraph::new();
        let b0 = b.add_node("v");
        let b1 = b.add_node("v");
        b.add_edge(b0, b1);
        assert!(are_isomorphic(&a, &b), "parallel edges collapse");
        let mut c = DiGraph::new();
        let c0 = c.add_node("v");
        let c1 = c.add_node("v");
        c.add_edge(c0, c1);
        c.add_edge(c1, c0);
        assert!(!are_isomorphic(&b, &c));
    }

    #[test]
    fn regular_graphs_need_backtracking() {
        // Two 6-cycles vs one 3-cycle + one 3-cycle... both 1-regular-ish:
        // a single 6-cycle and two disjoint 3-cycles have identical WL
        // colours (all nodes look alike) but are not isomorphic.
        let mut six = DiGraph::new();
        let s: Vec<_> = (0..6).map(|_| six.add_node("v")).collect();
        for i in 0..6 {
            six.add_edge(s[i], s[(i + 1) % 6]);
        }
        let mut two_three = DiGraph::new();
        let t: Vec<_> = (0..6).map(|_| two_three.add_node("v")).collect();
        for i in 0..3 {
            two_three.add_edge(t[i], t[(i + 1) % 3]);
        }
        for i in 3..6 {
            two_three.add_edge(t[i], t[3 + (i + 1 - 3) % 3]);
        }
        assert!(!are_isomorphic(&six, &two_three));
    }

    #[test]
    fn dedup_keeps_one_per_class() {
        let g1 = triangle(["v", "v", "v"]);
        let g2 = triangle(["v", "v", "v"]);
        let mut g3 = DiGraph::new();
        let x = g3.add_node("v");
        let y = g3.add_node("v");
        g3.add_edge(x, y);
        let reps = dedup_isomorphic(vec![g1, g2, g3]);
        assert_eq!(reps.len(), 2);
    }

    #[test]
    fn empty_graphs_isomorphic() {
        let a: DiGraph<&str> = DiGraph::new();
        let b: DiGraph<&str> = DiGraph::new();
        assert!(are_isomorphic(&a, &b));
    }

    #[test]
    fn size_mismatch_fast_path() {
        let a = triangle(["v", "v", "v"]);
        let mut b = DiGraph::new();
        b.add_node("v");
        assert!(!are_isomorphic(&a, &b));
    }

    #[test]
    fn certificate_is_isomorphism_invariant() {
        let mut a = DiGraph::new();
        let a0 = a.add_node("v");
        let a1 = a.add_node("v");
        let a2 = a.add_node("rsu");
        a.add_edge(a2, a0);
        a.add_edge(a0, a1);
        let mut b = DiGraph::new();
        let b1 = b.add_node("v");
        let b2 = b.add_node("rsu");
        let b0 = b.add_node("v");
        b.add_edge(b2, b0);
        b.add_edge(b0, b1);
        assert_eq!(canonical_certificate(&a), canonical_certificate(&b));
    }

    #[test]
    fn certificate_separates_labels_and_structure() {
        let a = triangle(["x", "y", "z"]);
        let b = triangle(["x", "y", "w"]);
        assert_ne!(canonical_certificate(&a), canonical_certificate(&b));
        let chain = {
            let mut g = DiGraph::new();
            let x = g.add_node("x");
            let y = g.add_node("y");
            let z = g.add_node("z");
            g.add_edge(x, y);
            g.add_edge(y, z);
            g
        };
        assert_ne!(canonical_certificate(&a), canonical_certificate(&chain));
    }

    #[test]
    fn wl_equivalent_pairs_share_certificate_but_exact_check_splits() {
        // The 6-cycle vs 2×3-cycle pair is 1-WL-equivalent: same
        // certificate, distinguished only by the exact fallback.
        let mut six = DiGraph::new();
        let s: Vec<_> = (0..6).map(|_| six.add_node("v")).collect();
        for i in 0..6 {
            six.add_edge(s[i], s[(i + 1) % 6]);
        }
        let mut two_three = DiGraph::new();
        let t: Vec<_> = (0..6).map(|_| two_three.add_node("v")).collect();
        for i in 0..3 {
            two_three.add_edge(t[i], t[(i + 1) % 3]);
        }
        for i in 3..6 {
            two_three.add_edge(t[i], t[3 + (i + 1 - 3) % 3]);
        }
        assert_eq!(
            canonical_certificate(&six),
            canonical_certificate(&two_three)
        );
        let reps = dedup_isomorphic_certified(vec![six.clone(), two_three.clone()]);
        assert_eq!(reps.len(), 2, "exact fallback keeps both classes");
        let mut classes = CertifiedClasses::new();
        classes.insert(six);
        classes.insert(two_three);
        assert_eq!(classes.certificate_hits(), 1);
        assert_eq!(classes.exact_fallbacks(), 1);
    }

    #[test]
    fn certified_dedup_matches_pairwise() {
        let graphs = vec![
            triangle(["v", "v", "v"]),
            triangle(["v", "v", "v"]),
            triangle(["v", "v", "w"]),
            {
                let mut g = DiGraph::new();
                let x = g.add_node("v");
                let y = g.add_node("v");
                g.add_edge(x, y);
                g
            },
        ];
        let pairwise = dedup_isomorphic(graphs.clone());
        let certified = dedup_isomorphic_certified(graphs.clone());
        assert_eq!(pairwise, certified);
    }

    #[test]
    fn certified_classes_empty_and_counts() {
        let mut classes: CertifiedClasses<DiGraph<&str>> = CertifiedClasses::new();
        assert!(classes.is_empty());
        assert_eq!(classes.insert(triangle(["v", "v", "v"])), Some(0));
        assert_eq!(classes.insert(triangle(["v", "v", "v"])), None);
        assert_eq!(classes.len(), 1);
        assert!(!classes.is_empty());
        assert_eq!(classes.into_reps().len(), 1);
    }

    #[test]
    fn certificates_are_stable_across_runs() {
        // The initial colours come from a keyless FNV hasher, so the
        // certificate of a fixed graph is a cross-process constant. Pin
        // it: certificates are carried in checkpoints, coordinator state
        // files and shard results, so a change to the kernel must come
        // with new versions of all three.
        let cert = canonical_certificate(&triangle(["v", "v", "w"]));
        assert_eq!(cert, canonical_certificate(&triangle(["v", "v", "w"])));
        assert_eq!(cert, 0xe33f_c34a_7e21_ad28);
        // The oracle is the kernel the versions before 3 carried.
        assert_eq!(
            fnv_kernel::certificate(&triangle(["v", "v", "w"])),
            0xaae9_1e8a_9b29_0b1d
        );
    }

    #[test]
    fn self_loop_is_not_isomorphic_to_plain_edge() {
        // Regression: when placing node `i`, `mapping[i]` is still
        // `None`, so the old backtracker never verified `i`'s own
        // self-loop and declared {b: b→b, c isolated} isomorphic to
        // {b→c} — a false positive the certificate correctly rejected.
        let mut g = DiGraph::new();
        let b1 = g.add_node("b");
        let _c1 = g.add_node("c");
        g.add_edge(b1, b1);

        let mut h = DiGraph::new();
        let c2 = h.add_node("c");
        let b2 = h.add_node("b");
        h.add_edge(b2, c2);

        assert!(!are_isomorphic(&g, &h));
        assert!(!are_isomorphic(&h, &g));
        assert_ne!(canonical_certificate(&g), canonical_certificate(&h));

        // Self-loops on matching labels still match, in any node order.
        let mut g2 = DiGraph::new();
        let c3 = g2.add_node("c");
        let b3 = g2.add_node("b");
        g2.add_edge(b3, b3);
        let _ = c3;
        assert!(are_isomorphic(&g, &g2));
        assert_eq!(canonical_certificate(&g), canonical_certificate(&g2));
    }
}
