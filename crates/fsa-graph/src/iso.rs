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
//! over how a node's neighbours are enumerated: from the sorted
//! adjacency lists of a [`DiGraph`] ([`canonical_certificate`]), or from
//! fixed-width [`AdjacencyRows`] with caller-supplied initial colours
//! ([`row_certificate`]). Both give the same certificate for the same
//! labelled graph.

use crate::bitset::{set_bits, AdjacencyRows};
use crate::digraph::{DiGraph, NodeId};
use std::collections::HashMap;
use std::hash::Hash;

/// The neighbourhoods colour refinement and the certificate trace read.
trait Neighbours {
    fn node_count(&self) -> usize;
    fn edge_count(&self) -> usize;
    fn predecessors_of(&self, v: usize) -> impl Iterator<Item = usize> + '_;
    fn successors_of(&self, v: usize) -> impl Iterator<Item = usize> + '_;
}

impl<L> Neighbours for DiGraph<L> {
    fn node_count(&self) -> usize {
        DiGraph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        DiGraph::edge_count(self)
    }

    fn predecessors_of(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.predecessors(NodeId::new(v)).map(NodeId::index)
    }

    fn successors_of(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.successors(NodeId::new(v)).map(NodeId::index)
    }
}

impl Neighbours for AdjacencyRows {
    fn node_count(&self) -> usize {
        AdjacencyRows::node_count(self)
    }

    fn edge_count(&self) -> usize {
        AdjacencyRows::edge_count(self)
    }

    fn predecessors_of(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        set_bits(self.predecessors(v))
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
        s.color.extend(g.nodes().map(|(_, l)| rank[l]));
        refine_colors(g, &mut s);
        s.color
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
/// two colour vectors, the in/out signature buffers and the sorting
/// buffers. One value serves any number of [`row_certificate`] calls.
#[derive(Debug, Default)]
pub struct CertificateScratch {
    color: Vec<u64>,
    next: Vec<u64>,
    ins: Vec<u64>,
    outs: Vec<u64>,
    sorted: Vec<u64>,
    pairs: Vec<(u64, u64)>,
}

/// Iterated colour refinement combining label, in/out colour multisets,
/// from the initial colours in `s.color`; the refined colours are left
/// there.
///
/// The refined colours are signature hashes: equal signatures get equal
/// colours, and the signature construction is identical for both graphs,
/// so colours remain comparable across graphs.
///
/// A round recolours every node from its own colour and the sorted
/// colours of its in- and out-neighbours. Refinement stops before the
/// first round whose colouring induces the same partition as the one it
/// was computed from, and after at most `n` rounds. The signature
/// buffers and the second colour vector are reused across nodes and
/// rounds.
fn refine_colors<G: Neighbours>(g: &G, s: &mut CertificateScratch) {
    let n = g.node_count();
    let CertificateScratch {
        color,
        next,
        ins,
        outs,
        sorted,
        pairs,
    } = s;
    next.clear();
    next.resize(n, 0);
    let mut classes = distinct_count(color, sorted);

    for _round in 0..n {
        // Signature of each node: (colour, sorted in-colours, sorted out-colours),
        // hashed so that equal signatures yield equal colours in both graphs.
        for v in 0..n {
            ins.clear();
            ins.extend(g.predecessors_of(v).map(|p| color[p]));
            outs.clear();
            outs.extend(g.successors_of(v).map(|u| color[u]));
            ins.sort_unstable();
            outs.sort_unstable();
            next[v] = hash_signature(color[v], ins, outs);
        }
        let next_classes = distinct_count(next, sorted);
        if next_classes == classes && same_partition(color, next, classes, pairs) {
            break;
        }
        std::mem::swap(color, next);
        classes = next_classes;
    }
}

/// Number of distinct values in `colors`, sorting a copy in `scratch`.
fn distinct_count(colors: &[u64], scratch: &mut Vec<u64>) -> usize {
    scratch.clear();
    scratch.extend_from_slice(colors);
    scratch.sort_unstable();
    scratch.dedup();
    scratch.len()
}

/// Whether colourings `a` and `b`, each with `classes` distinct values,
/// induce the same partition of the nodes. The (a, b) pairs induce the
/// coarsest common refinement of both partitions; it has exactly
/// `classes` blocks iff it equals each of them.
fn same_partition(a: &[u64], b: &[u64], classes: usize, scratch: &mut Vec<(u64, u64)>) -> bool {
    scratch.clear();
    scratch.extend(a.iter().copied().zip(b.iter().copied()));
    scratch.sort_unstable();
    scratch.dedup();
    scratch.len() == classes
}

/// A deterministic (FNV-1a) hash of a refinement signature.
fn hash_signature(own: u64, ins: &[u64], outs: &[u64]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(own);
    mix(0xa5a5);
    for &v in ins {
        mix(v);
    }
    mix(0x5a5a);
    for &v in outs {
        mix(v);
    }
    h
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
/// [`find_isomorphism`] inside a bucket, never across buckets.
pub type Certificate = u64;

/// Computes the [`Certificate`] of `g`: colour-refinement (1-WL)
/// partition → canonical trace over the sorted node-colour multiset and
/// the sorted edge colour pairs, plus the node and edge counts.
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
    let n = g.node_count();
    let mut s = CertificateScratch {
        color: g.nodes().map(|(_, l)| label_hash(l)).collect(),
        sorted: Vec::with_capacity(n),
        pairs: Vec::with_capacity(g.edge_count().max(n)),
        ..CertificateScratch::default()
    };
    certificate_trace(g, &mut s)
}

/// The [`canonical_certificate`] of the graph `rows` with node `v`
/// labelled `ℓ(v)`, given `initial[v] = label_hash(ℓ(v))`: the same
/// refinement and trace, reading neighbours from the rows, in the
/// reused buffers of `scratch`.
///
/// # Panics
///
/// Panics if `initial` does not hold one colour per node.
///
/// # Examples
///
/// ```
/// use fsa_graph::bitset::AdjacencyRows;
/// use fsa_graph::iso::{canonical_certificate, label_hash, row_certificate, CertificateScratch};
/// use fsa_graph::DiGraph;
///
/// let mut g = DiGraph::new();
/// let x = g.add_node("x");
/// let y = g.add_node("y");
/// g.add_edge(x, y);
/// let mut rows = AdjacencyRows::new(2);
/// rows.add_edge(0, 1);
/// let initial = [label_hash(&"x"), label_hash(&"y")];
/// let mut scratch = CertificateScratch::default();
/// assert_eq!(
///     row_certificate(&rows, &initial, &mut scratch),
///     canonical_certificate(&g)
/// );
/// ```
pub fn row_certificate(
    rows: &AdjacencyRows,
    initial: &[u64],
    scratch: &mut CertificateScratch,
) -> Certificate {
    assert_eq!(
        initial.len(),
        rows.node_count(),
        "one initial colour per node"
    );
    scratch.color.clear();
    scratch.color.extend_from_slice(initial);
    certificate_trace(rows, scratch)
}

/// Refines the initial colours in `s.color` and hashes the certificate
/// trace: node and edge counts, sorted node colours, sorted edge colour
/// pairs.
fn certificate_trace<G: Neighbours>(g: &G, s: &mut CertificateScratch) -> Certificate {
    refine_colors(g, s);
    let CertificateScratch {
        color,
        sorted,
        pairs,
        ..
    } = s;
    sorted.clear();
    sorted.extend_from_slice(color);
    sorted.sort_unstable();
    pairs.clear();
    for v in 0..g.node_count() {
        pairs.extend(g.successors_of(v).map(|u| (color[v], color[u])));
    }
    pairs.sort_unstable();

    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(g.node_count() as u64);
    mix(g.edge_count() as u64);
    mix(0xa5a5);
    for &c in sorted.iter() {
        mix(c);
    }
    mix(0x5a5a);
    for &(x, y) in pairs.iter() {
        mix(x);
        mix(y);
    }
    h
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
/// [`CertifiedClasses::insert_with_certificate`]), or a key from which
/// the caller rebuilds the graph when a bucket is hit
/// ([`CertifiedClasses::insert_by`]).
#[derive(Debug, Clone)]
pub struct CertifiedClasses<R> {
    /// Per certificate, the classes founded under it.
    buckets: HashMap<Certificate, Vec<usize>>,
    reps: Vec<R>,
    certificate_hits: usize,
    exact_fallbacks: usize,
}

impl<R> Default for CertifiedClasses<R> {
    fn default() -> Self {
        CertifiedClasses {
            buckets: HashMap::new(),
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
        let bucket = self.buckets.entry(certificate).or_default();
        if !bucket.is_empty() {
            self.certificate_hits += 1;
        }
        for &idx in bucket.iter() {
            self.exact_fallbacks += 1;
            if same(&self.reps[idx], &rep) {
                return None;
            }
        }
        let idx = self.reps.len();
        bucket.push(idx);
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
    /// Inserts a candidate graph whose certificate was precomputed (e.g.
    /// on a worker thread), confirming bucket hits with
    /// [`find_isomorphism`]. See [`CertifiedClasses::insert_by`].
    pub fn insert_with_certificate(
        &mut self,
        g: DiGraph<L>,
        certificate: Certificate,
    ) -> Option<usize> {
        self.insert_by(g, certificate, are_isomorphic)
    }

    /// Inserts a candidate graph, computing its certificate. See
    /// [`CertifiedClasses::insert_with_certificate`].
    pub fn insert(&mut self, g: DiGraph<L>) -> Option<usize> {
        let certificate = canonical_certificate(&g);
        self.insert_with_certificate(g, certificate)
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

/// Like [`dedup_isomorphic_certified`], but computes the certificates on
/// `threads` scoped worker threads (chunked, merged in input order — the
/// result is bit-identical for every thread count).
pub fn dedup_isomorphic_certified_parallel<L: Eq + Hash + Ord + Sync>(
    graphs: Vec<DiGraph<L>>,
    threads: usize,
) -> Vec<DiGraph<L>> {
    let threads = threads.max(1);
    if threads == 1 || graphs.len() < 2 {
        return dedup_isomorphic_certified(graphs);
    }
    let chunk = graphs.len().div_ceil(threads);
    let certificates: Vec<Certificate> = std::thread::scope(|scope| {
        let handles: Vec<_> = graphs
            .chunks(chunk)
            .map(|gs| scope.spawn(|| gs.iter().map(canonical_certificate).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("certificate worker panicked"))
            .collect()
    });
    let mut classes = CertifiedClasses::new();
    for (g, c) in graphs.into_iter().zip(certificates) {
        classes.insert_with_certificate(g, c);
    }
    classes.into_reps()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Colour refinement with fresh signature vectors per node and
    /// round, its fixpoint detected by comparing the two partitions as
    /// sorted groups of node indices: the oracle for [`refine_colors`].
    fn refine_colors_oracle<L>(g: &DiGraph<L>, initial: impl Fn(&L) -> u64) -> Vec<u64> {
        let n = g.node_count();
        let mut color: Vec<u64> = g.nodes().map(|(_, l)| initial(l)).collect();
        for _round in 0..n {
            let mut next: Vec<u64> = Vec::with_capacity(n);
            for id in g.node_ids() {
                let mut ins: Vec<u64> = g.predecessors(id).map(|p| color[p.index()]).collect();
                let mut outs: Vec<u64> = g.successors(id).map(|s| color[s.index()]).collect();
                ins.sort_unstable();
                outs.sort_unstable();
                next.push(hash_signature(color[id.index()], &ins, &outs));
            }
            if partition_of(&next) == partition_of(&color) {
                break;
            }
            color = next;
        }
        color
    }

    /// The partition a colouring induces, as sorted groups of node indices.
    fn partition_of(colors: &[u64]) -> Vec<Vec<usize>> {
        let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, &c) in colors.iter().enumerate() {
            groups.entry(c).or_default().push(i);
        }
        let mut out: Vec<Vec<usize>> = groups.into_values().collect();
        out.sort();
        out
    }

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

        #[test]
        fn in_place_refinement_matches_the_partition_oracle(seed in any::<u64>()) {
            let g = random_digraph(seed);
            let mut s = CertificateScratch::default();
            s.color.extend(g.nodes().map(|(_, l)| label_hash(l)));
            refine_colors(&g, &mut s);
            prop_assert_eq!(s.color, refine_colors_oracle(&g, label_hash), "seed {}", seed);
        }
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
            let initial: Vec<u64> = g.nodes().map(|(_, l)| label_hash(l)).collect();
            let mut scratch = CertificateScratch::default();
            let certificate = row_certificate(&rows, &initial, &mut scratch);
            prop_assert_eq!(certificate, canonical_certificate(&g), "seed {}", seed);
            // A reused scratch gives the same certificate.
            prop_assert_eq!(row_certificate(&rows, &initial, &mut scratch), certificate);
        }
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
        for threads in [1usize, 2, 4, 8] {
            assert_eq!(
                pairwise,
                dedup_isomorphic_certified_parallel(graphs.clone(), threads),
                "threads {threads}"
            );
        }
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
        // it: certificates decide which candidates share a bucket, so a
        // silent change to the hash would move the certificate-hit and
        // exact-fallback counts that `--stats` reports.
        let cert = canonical_certificate(&triangle(["v", "v", "w"]));
        assert_eq!(cert, canonical_certificate(&triangle(["v", "v", "w"])));
        assert_eq!(cert, 0xaae9_1e8a_9b29_0b1d);
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
