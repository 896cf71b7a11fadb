//! The NOC delivery queue.
//!
//! The event engine's NOC delivery is a two-level queue (a heap of
//! *distinct* cycles over pooled FIFO slot vectors), generic over the
//! payload. Arrival order within a cycle equals push order (the old
//! per-event `seq` order of a flat `BinaryHeap<(at, seq, T)>`).

use bump_types::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The two-level NOC event queue. The heap orders only the *distinct*
/// delivery cycles (a few hundred live at once, even when the
/// Full-region strawman keeps hundreds of thousands of events in
/// flight); each cycle's events live in a FIFO slot vector. Slot
/// vectors are pooled so the steady state allocates nothing. Under the
/// retry storms of §V.B this is worth ~70ns per event over a flat heap.
#[derive(Debug)]
pub struct DeliveryQueue<T> {
    times: BinaryHeap<Reverse<Cycle>>,
    slots: bump_types::FxHashMap<Cycle, Vec<T>>,
    pool: Vec<Vec<T>>,
    /// Payloads currently queued (maintained so telemetry can gauge
    /// queue depth in O(1) instead of walking the slot map).
    queued: usize,
}

impl<T> Default for DeliveryQueue<T> {
    fn default() -> Self {
        DeliveryQueue {
            times: BinaryHeap::new(),
            slots: bump_types::FxHashMap::default(),
            pool: Vec::new(),
            queued: 0,
        }
    }
}

impl<T> DeliveryQueue<T> {
    /// Enqueues `what` for delivery at `at`.
    pub fn push(&mut self, at: Cycle, what: T) {
        use std::collections::hash_map::Entry;
        self.queued += 1;
        match self.slots.entry(at) {
            Entry::Occupied(e) => e.into_mut().push(what),
            Entry::Vacant(e) => {
                let mut v = self.pool.pop().unwrap_or_default();
                v.push(what);
                e.insert(v);
                self.times.push(Reverse(at));
            }
        }
    }

    /// The earliest pending delivery cycle.
    pub fn next_at(&self) -> Option<Cycle> {
        self.times.peek().map(|Reverse(t)| *t)
    }

    /// How many payloads are already queued for cycle `at`. The retry
    /// coalescer uses this to detect whether anything landed in a slot
    /// after its own marker (in which case appending to the marker's
    /// batch would reorder deliveries).
    pub fn slot_len(&self, at: Cycle) -> usize {
        self.slots.get(&at).map_or(0, Vec::len)
    }

    /// Payloads currently queued across all delivery cycles.
    pub fn len(&self) -> usize {
        self.queued
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Removes and returns the slot due at or before `now`, if any.
    /// The caller drains it in order and hands it back via
    /// [`DeliveryQueue::recycle`].
    pub fn take_due(&mut self, now: Cycle) -> Option<Vec<T>> {
        if self.next_at()? > now {
            return None;
        }
        let Reverse(t) = self.times.pop().expect("peeked");
        let slot = self.slots.remove(&t);
        if let Some(v) = &slot {
            self.queued -= v.len();
        }
        slot
    }

    /// Returns a drained slot vector to the pool.
    pub fn recycle(&mut self, v: Vec<T>) {
        debug_assert!(v.is_empty());
        self.pool.push(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_order_is_push_order() {
        let mut q = DeliveryQueue::default();
        q.push(5, "a");
        q.push(3, "b");
        q.push(5, "c");
        assert_eq!(q.next_at(), Some(3));
        assert_eq!(q.slot_len(5), 2);
        assert_eq!(q.len(), 3);
        assert_eq!(q.take_due(2).map(|v| v.len()), None);
        let v = q.take_due(3).unwrap();
        assert_eq!(v, vec!["b"]);
        assert_eq!(q.len(), 2);
        let mut v = v;
        v.clear();
        q.recycle(v);
        let v = q.take_due(9).unwrap();
        assert_eq!(v, vec!["a", "c"]);
        assert!(q.is_empty());
    }
}
