//! The router's bounded in-memory LRU result cache.
//!
//! Keyed by the same FNV digest of the cell's full identity as the
//! backend journals ([`crate::journal::cell_key`]), holding the same
//! [`JournalEntry`] payload — a hit streams the exact bytes a backend
//! would have produced, so caching is invisible in the output (cells
//! are deterministic functions of their identity). The cache differs
//! from the journal in every other respect: it is bounded and evicting
//! where the journal is append-only, volatile where the journal
//! survives restarts, and lives in front of the *network* where the
//! journal sits behind the scheduler. A hit therefore short-circuits
//! the backend round-trip entirely; see `docs/CLUSTER.md`.
//!
//! Like the journal, a key match alone is never trusted: every hit is
//! confirmed against the stored identity string, so a 64-bit collision
//! degrades to a backend dispatch, never a wrong row.

use crate::journal::JournalEntry;
use std::collections::{BTreeMap, HashMap};

/// A bounded map from cell key to result row with least-recently-used
/// eviction. Recency is tracked with a monotonic clock: `slots` maps
/// key → (entry, stamp) and `by_age` maps stamp → key, so both lookup
/// and eviction are `O(log n)`.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    slots: HashMap<u64, Slot>,
    by_age: BTreeMap<u64, u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

#[derive(Debug)]
struct Slot {
    entry: JournalEntry,
    stamp: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` rows (0 disables caching).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            slots: HashMap::new(),
            by_age: BTreeMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of cached rows.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache holds no rows.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The configured row bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(hits, misses)` since construction.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Looks up `key`, confirming the stored row belongs to `identity`;
    /// a hit becomes the most recently used row.
    pub fn get(&mut self, key: u64, identity: &str) -> Option<JournalEntry> {
        match self.slots.get_mut(&key) {
            Some(slot) if slot.entry.identity == identity => {
                self.clock += 1;
                self.by_age.remove(&slot.stamp);
                slot.stamp = self.clock;
                self.by_age.insert(self.clock, key);
                self.hits += 1;
                Some(slot.entry.clone())
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) a row, evicting least-recently-used rows
    /// beyond the capacity.
    pub fn insert(&mut self, key: u64, entry: JournalEntry) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        if let Some(old) = self.slots.insert(
            key,
            Slot {
                entry,
                stamp: self.clock,
            },
        ) {
            self.by_age.remove(&old.stamp);
        }
        self.by_age.insert(self.clock, key);
        while self.slots.len() > self.capacity {
            let (&stamp, &victim) = self.by_age.iter().next().expect("by_age tracks every slot");
            self.by_age.remove(&stamp);
            self.slots.remove(&victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(label: &str) -> JournalEntry {
        JournalEntry {
            identity: format!("{label}|opts"),
            label: label.to_string(),
            csv: format!("{label},1,2"),
        }
    }

    #[test]
    fn hits_require_matching_identity() {
        let mut c = ResultCache::new(4);
        c.insert(1, entry("a"));
        assert_eq!(c.get(1, "a|opts").unwrap().label, "a");
        // Same key, different identity (a 64-bit collision): miss.
        assert!(c.get(1, "b|opts").is_none());
        assert!(c.get(2, "a|opts").is_none());
        assert_eq!(c.hit_stats(), (1, 2));
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut c = ResultCache::new(2);
        c.insert(1, entry("a"));
        c.insert(2, entry("b"));
        // Touch "a" so "b" is now the LRU row.
        assert!(c.get(1, "a|opts").is_some());
        c.insert(3, entry("c"));
        assert_eq!(c.len(), 2);
        assert!(c.get(1, "a|opts").is_some(), "recently used row kept");
        assert!(c.get(2, "b|opts").is_none(), "LRU row evicted");
        assert!(c.get(3, "c|opts").is_some());
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let mut c = ResultCache::new(2);
        c.insert(1, entry("a"));
        c.insert(2, entry("b"));
        c.insert(1, entry("a2"));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1, "a2|opts").unwrap().label, "a2");
        // "b" became the oldest; one more insert evicts it, not "a2".
        c.insert(3, entry("c"));
        assert!(c.get(2, "b|opts").is_none());
        assert!(c.get(1, "a2|opts").is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultCache::new(0);
        c.insert(1, entry("a"));
        assert!(c.is_empty());
        assert!(c.get(1, "a|opts").is_none());
    }
}
