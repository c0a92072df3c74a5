//! A bounded, content-addressed memo store for incremental analysis.
//!
//! An entry is keyed by a payload string that encodes everything its
//! value was computed from (the incremental engine keys a fragment's
//! analysis by the fragment's canonical encoding). Such a key cannot go
//! stale: an edit that changes what a value depends on changes its key.
//! So no entry is ever invalidated, and entries leave the store only to
//! respect its capacity bound, oldest first.
//!
//! The 64-bit FNV-1a hash of the payload only selects a bucket: a
//! lookup compares the full payload, so a hash collision degrades to a
//! memo miss, never to a wrong value.

use crate::error::FsaError;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// FNV-1a over the payload bytes.
#[must_use]
pub fn fnv1a_64(payload: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    payload
        .as_bytes()
        .iter()
        .fold(OFFSET, |h, b| (h ^ u64::from(*b)).wrapping_mul(PRIME))
}

/// Cumulative work counters of a [`MemoStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounters {
    /// Lookups answered from the store (exact payload match).
    pub hits: u64,
    /// Lookups that found nothing (including hash collisions).
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
}

#[derive(Debug)]
struct Entry<V> {
    payload: String,
    seq: u64,
    value: Arc<V>,
}

/// A bounded memo store: hash-bucketed entries, FIFO eviction at
/// capacity.
///
/// The hash function is injectable so tests can force every key into
/// one bucket and prove that collisions are harmless.
#[derive(Debug)]
pub struct MemoStore<V> {
    buckets: BTreeMap<u64, Vec<Entry<V>>>,
    /// Every live entry as `(hash, seq)`, oldest first.
    order: VecDeque<(u64, u64)>,
    next_seq: u64,
    capacity: usize,
    hasher: fn(&str) -> u64,
    counters: MemoCounters,
}

impl<V> MemoStore<V> {
    /// An empty store holding at most `capacity` entries.
    ///
    /// # Errors
    ///
    /// [`FsaError::InvalidCapacity`] when `capacity` is 0. A zero
    /// capacity used to be silently clamped to 1, turning a
    /// misconfigured cache into surprising evict-on-every-insert
    /// behaviour; it is now rejected at construction.
    pub fn new(capacity: usize) -> Result<Self, FsaError> {
        MemoStore::with_hasher(capacity, fnv1a_64)
    }

    /// An empty store with an explicit key hasher (tests inject a
    /// constant hasher to force collisions).
    ///
    /// # Errors
    ///
    /// [`FsaError::InvalidCapacity`] when `capacity` is 0 (see
    /// [`MemoStore::new`]).
    pub fn with_hasher(capacity: usize, hasher: fn(&str) -> u64) -> Result<Self, FsaError> {
        if capacity == 0 {
            return Err(FsaError::InvalidCapacity { what: "MemoStore" });
        }
        Ok(MemoStore {
            buckets: BTreeMap::new(),
            order: VecDeque::new(),
            next_seq: 0,
            capacity,
            hasher,
            counters: MemoCounters::default(),
        })
    }

    /// Live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when no entry is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The cumulative counters.
    #[must_use]
    pub fn counters(&self) -> MemoCounters {
        self.counters
    }

    /// Looks up `payload`. The bucket selected by the 64-bit hash is
    /// scanned for an *exact* payload match, so a collision counts as a
    /// miss.
    pub fn lookup(&mut self, payload: &str) -> Option<Arc<V>> {
        let found = self
            .buckets
            .get(&(self.hasher)(payload))
            .and_then(|bucket| bucket.iter().find(|e| e.payload == payload))
            .map(|e| Arc::clone(&e.value));
        match found {
            Some(_) => self.counters.hits += 1,
            None => self.counters.misses += 1,
        }
        found
    }

    /// Inserts (or replaces) the entry for `payload`. The oldest entry
    /// is evicted when the store is full.
    pub fn insert(&mut self, payload: String, value: Arc<V>) {
        let hash = (self.hasher)(&payload);
        let bucket = self.buckets.entry(hash).or_default();
        if let Some(e) = bucket.iter_mut().find(|e| e.payload == payload) {
            e.value = value;
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        bucket.push(Entry {
            payload,
            seq,
            value,
        });
        self.order.push_back((hash, seq));
        if self.order.len() > self.capacity {
            self.evict_oldest();
        }
    }

    fn evict_oldest(&mut self) {
        let (hash, seq) = self
            .order
            .pop_front()
            .expect("an overfull store has an oldest entry");
        let bucket = self
            .buckets
            .get_mut(&hash)
            .expect("every order record names a live entry");
        let i = bucket
            .iter()
            .position(|e| e.seq == seq)
            .expect("every order record names a live entry");
        bucket.swap_remove(i);
        if bucket.is_empty() {
            self.buckets.remove(&hash);
        }
        self.counters.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_zero_is_rejected_with_a_typed_error() {
        // Regression: capacity 0 used to be silently clamped to 1.
        let err = MemoStore::<u32>::new(0).unwrap_err();
        assert!(matches!(
            err,
            FsaError::InvalidCapacity { what: "MemoStore" }
        ));
        assert!(err.to_string().contains("MemoStore"), "{err}");
        let err = MemoStore::<u32>::with_hasher(0, |_| 42).unwrap_err();
        assert!(matches!(err, FsaError::InvalidCapacity { .. }));
        // Capacity 1 is the smallest valid store and must keep working.
        let mut store = MemoStore::<u32>::new(1).unwrap();
        store.insert("k".to_owned(), Arc::new(1));
        assert_eq!(store.lookup("k").as_deref(), Some(&1));
    }

    #[test]
    fn lookup_requires_exact_key_match() {
        let mut store: MemoStore<u32> = MemoStore::new(8).unwrap();
        store.insert("alpha".to_owned(), Arc::new(1));
        assert_eq!(store.lookup("alpha").as_deref(), Some(&1));
        assert_eq!(store.lookup("beta"), None);
        assert_eq!(store.lookup("alph"), None);
        let c = store.counters();
        assert_eq!((c.hits, c.misses), (1, 2));
    }

    #[test]
    fn forced_hash_collisions_degrade_to_misses_not_wrong_values() {
        // Every key lands in bucket 42: distinct payloads collide by
        // construction. The exact payload comparison must still resolve
        // each lookup to its own value (or a miss), never to the
        // colliding neighbour's value.
        let mut store: MemoStore<&'static str> = MemoStore::with_hasher(8, |_| 42).unwrap();
        store.insert("model-A".to_owned(), Arc::new("A"));
        store.insert("model-B".to_owned(), Arc::new("B"));
        assert_eq!(store.lookup("model-A").as_deref(), Some(&"A"));
        assert_eq!(store.lookup("model-B").as_deref(), Some(&"B"));
        assert_eq!(
            store.lookup("model-C"),
            None,
            "a colliding but unknown payload is a miss"
        );
        let c = store.counters();
        assert_eq!((c.hits, c.misses), (2, 1));
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let mut store: MemoStore<u32> = MemoStore::new(2).unwrap();
        store.insert("one".to_owned(), Arc::new(1));
        store.insert("two".to_owned(), Arc::new(2));
        store.insert("three".to_owned(), Arc::new(3));
        assert_eq!(store.len(), 2);
        assert_eq!(store.counters().evictions, 1);
        assert_eq!(store.lookup("one"), None, "oldest evicted");
        assert_eq!(store.lookup("two").as_deref(), Some(&2));
        assert_eq!(store.lookup("three").as_deref(), Some(&3));
    }

    #[test]
    fn forced_collisions_evict_the_oldest_entry_of_a_shared_bucket() {
        // Eviction finds the oldest entry by its sequence number, not by
        // its bucket: with every key in one bucket, the right one goes.
        let mut store: MemoStore<u32> = MemoStore::with_hasher(2, |_| 7).unwrap();
        store.insert("one".to_owned(), Arc::new(1));
        store.insert("two".to_owned(), Arc::new(2));
        store.insert("three".to_owned(), Arc::new(3));
        store.insert("four".to_owned(), Arc::new(4));
        assert_eq!(store.len(), 2);
        assert_eq!(store.counters().evictions, 2);
        assert_eq!(store.lookup("one"), None);
        assert_eq!(store.lookup("two"), None);
        assert_eq!(store.lookup("three").as_deref(), Some(&3));
        assert_eq!(store.lookup("four").as_deref(), Some(&4));
    }

    #[test]
    fn replacing_an_entry_does_not_grow_the_store() {
        let mut store: MemoStore<u32> = MemoStore::new(2).unwrap();
        store.insert("k".to_owned(), Arc::new(1));
        store.insert("k".to_owned(), Arc::new(2));
        assert_eq!(store.len(), 1);
        assert_eq!(store.lookup("k").as_deref(), Some(&2));
    }
}
