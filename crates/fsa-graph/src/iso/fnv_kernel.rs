//! The byte-wise FNV-1a colour-refinement kernel that the word-wise
//! kernel of [`super`] replaced, kept as its test oracle: each round
//! hashes a node's colour and the *sorted* colours of its in- and
//! out-neighbours eight bits at a time, the fixpoint is found by
//! comparing partitions as sorted groups of node indices, and the trace
//! hashes the sorted node colours and the sorted edge colour pairs.
//!
//! Both kernels are 1-WL on the same multisets, so they must put the
//! same graphs in one certificate bucket: their certificates have the
//! same equality pattern, not the same values. It names only
//! `label_hash` and `DiGraph` of the module that includes it, so the
//! explore tests of `fsa-core` include this file as well.

use super::{label_hash, DiGraph};
use std::collections::HashMap;
use std::hash::Hash;

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The partition a colouring induces, as sorted groups of node indices.
pub fn partition_of(colors: &[u64]) -> Vec<Vec<usize>> {
    let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, &c) in colors.iter().enumerate() {
        groups.entry(c).or_default().push(i);
    }
    let mut out: Vec<Vec<usize>> = groups.into_values().collect();
    out.sort();
    out
}

/// Colour refinement of `g` from the colours `initial` gives its
/// labels, with fresh sorted signature vectors per node and round.
pub fn refine<L>(g: &DiGraph<L>, initial: impl Fn(&L) -> u64) -> Vec<u64> {
    let n = g.node_count();
    let mut color: Vec<u64> = g.nodes().map(|(_, l)| initial(l)).collect();
    for _round in 0..n {
        let mut next: Vec<u64> = Vec::with_capacity(n);
        for id in g.node_ids() {
            let mut ins: Vec<u64> = g.predecessors(id).map(|p| color[p.index()]).collect();
            let mut outs: Vec<u64> = g.successors(id).map(|s| color[s.index()]).collect();
            ins.sort_unstable();
            outs.sort_unstable();
            let own = [color[id.index()], 0xa5a5];
            let signature = own.into_iter().chain(ins).chain([0x5a5a]).chain(outs);
            next.push(fnv(signature));
        }
        if partition_of(&next) == partition_of(&color) {
            break;
        }
        color = next;
    }
    color
}

/// The certificate of `g` under this kernel: node and edge counts,
/// sorted refined node colours, sorted edge colour pairs.
pub fn certificate<L: Hash>(g: &DiGraph<L>) -> u64 {
    let color = refine(g, label_hash);
    let mut sorted = color.clone();
    sorted.sort_unstable();
    let mut pairs: Vec<(u64, u64)> = g
        .edges()
        .map(|(x, y)| (color[x.index()], color[y.index()]))
        .collect();
    pairs.sort_unstable();
    let counts = [g.node_count() as u64, g.edge_count() as u64, 0xa5a5];
    fnv(counts
        .into_iter()
        .chain(sorted)
        .chain([0x5a5a])
        .chain(pairs.into_iter().flat_map(|(x, y)| [x, y])))
}

/// Checks that `(new, old)` certificate pairs put the same graphs in one
/// bucket: equal new certificates iff equal old ones. Returns the
/// number of buckets.
pub fn assert_same_buckets(certificates: &[(u64, u64)]) -> usize {
    let mut old_of: HashMap<u64, u64> = HashMap::new();
    let mut new_of: HashMap<u64, u64> = HashMap::new();
    for (i, &(new, old)) in certificates.iter().enumerate() {
        assert_eq!(*old_of.entry(new).or_insert(old), old, "graph {i}");
        assert_eq!(*new_of.entry(old).or_insert(new), new, "graph {i}");
    }
    old_of.len()
}
