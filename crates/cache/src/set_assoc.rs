//! Generic set-associative tag store with true-LRU replacement.

use bump_types::{BlockAddr, CacheGeometry};

/// One resident cache line with user metadata `M`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Line<M> {
    /// The block held by this line.
    pub block: BlockAddr,
    /// Caller-defined per-line metadata (dirty bits, prefetch tags…).
    pub meta: M,
}

/// A set-associative cache tag store with true-LRU replacement.
///
/// Holds tags and caller metadata only — data payloads are not simulated.
/// All lines live in one flat array, `ways` slots per set; the first
/// `fill[set]` slots of a set hold its resident lines, most-recently-used
/// first. All operations are O(associativity).
#[derive(Clone, Debug)]
pub struct SetAssocCache<M> {
    geometry: CacheGeometry,
    ways: usize,
    /// `sets - 1` (the set count is a power of two).
    set_mask: u64,
    lines: Vec<Line<M>>,
    /// Resident lines per set.
    fill: Vec<u32>,
}

impl<M: Copy + Default> SetAssocCache<M> {
    /// Creates an empty cache with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets() as usize;
        let ways = geometry.ways as usize;
        let empty = Line {
            block: BlockAddr::from_index(0),
            meta: M::default(),
        };
        SetAssocCache {
            geometry,
            ways,
            set_mask: geometry.sets() - 1,
            lines: vec![empty; sets * ways],
            fill: vec![0; sets],
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        (block.index() & self.set_mask) as usize
    }

    /// The flat-array range of `block`'s set holding its resident lines.
    fn resident(&self, block: BlockAddr) -> std::ops::Range<usize> {
        let s = self.set_of(block);
        let base = s * self.ways;
        base..base + self.fill[s] as usize
    }

    /// The flat-array index of `block`, if resident.
    fn find(&self, block: BlockAddr) -> Option<usize> {
        let range = self.resident(block);
        let base = range.start;
        self.lines[range]
            .iter()
            .position(|l| l.block == block)
            .map(|i| base + i)
    }

    /// Looks up `block` without updating recency.
    pub fn probe(&self, block: BlockAddr) -> Option<&Line<M>> {
        self.find(block).map(|i| &self.lines[i])
    }

    /// Mutable lookup without updating recency.
    pub fn probe_mut(&mut self, block: BlockAddr) -> Option<&mut Line<M>> {
        self.find(block).map(|i| &mut self.lines[i])
    }

    /// Looks up `block`, promoting it to MRU on a hit. Returns the line.
    pub fn touch(&mut self, block: BlockAddr) -> Option<&mut Line<M>> {
        let i = self.find(block)?;
        let mru = self.set_of(block) * self.ways;
        let line = self.lines[i];
        self.lines.copy_within(mru..i, mru + 1);
        self.lines[mru] = line;
        Some(&mut self.lines[mru])
    }

    /// Inserts `block` as MRU. If the set is full, the LRU line is
    /// evicted and returned. Inserting a block that is already resident
    /// panics — callers must use [`touch`](Self::touch) for hits.
    ///
    /// # Panics
    ///
    /// Panics if `block` is already resident (a coherence bug).
    pub fn insert(&mut self, block: BlockAddr, meta: M) -> Option<Line<M>> {
        assert!(
            self.find(block).is_none(),
            "double-insert of resident block {block:?}"
        );
        let s = self.set_of(block);
        let mru = s * self.ways;
        let fill = self.fill[s] as usize;
        let victim = if fill == self.ways {
            Some(self.lines[mru + fill - 1])
        } else {
            self.fill[s] += 1;
            None
        };
        let kept = fill.min(self.ways - 1);
        self.lines.copy_within(mru..mru + kept, mru + 1);
        self.lines[mru] = Line { block, meta };
        victim
    }

    /// Removes `block` if resident and returns it.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<Line<M>> {
        let i = self.find(block)?;
        let s = self.set_of(block);
        let end = s * self.ways + self.fill[s] as usize;
        let line = self.lines[i];
        self.lines.copy_within(i + 1..end, i);
        self.fill[s] -= 1;
        Some(line)
    }

    /// The line that [`insert`](Self::insert) would evict for `block`,
    /// if the set is full.
    pub fn victim_for(&self, block: BlockAddr) -> Option<&Line<M>> {
        let range = self.resident(block);
        (range.len() == self.ways).then(|| &self.lines[range.end - 1])
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.fill.iter().map(|&n| n as usize).sum()
    }

    /// Whether the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all resident lines (set by set, MRU first).
    pub fn iter(&self) -> impl Iterator<Item = &Line<M>> {
        self.lines
            .chunks_exact(self.ways)
            .zip(&self.fill)
            .flat_map(|(set, &n)| &set[..n as usize])
    }

    /// Lines resident in the set that holds `block` (MRU first).
    pub fn set_lines(&self, block: BlockAddr) -> &[Line<M>] {
        &self.lines[self.resident(block)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache<u32> {
        // 4 sets × 2 ways.
        SetAssocCache::new(CacheGeometry::new(8 * 64, 2))
    }

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn insert_then_probe_hits() {
        let mut c = tiny();
        assert!(c.insert(b(0), 7).is_none());
        assert_eq!(c.probe(b(0)).unwrap().meta, 7);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Blocks 0, 4, 8 all map to set 0 (4 sets).
        c.insert(b(0), 0);
        c.insert(b(4), 1);
        // Touch 0 so 4 becomes LRU.
        assert!(c.touch(b(0)).is_some());
        let victim = c.insert(b(8), 2).expect("set full, someone evicted");
        assert_eq!(victim.block, b(4));
        assert!(c.probe(b(0)).is_some());
        assert!(c.probe(b(4)).is_none());
    }

    #[test]
    fn victim_for_predicts_the_eviction() {
        let mut c = tiny();
        c.insert(b(0), 0);
        assert!(c.victim_for(b(4)).is_none(), "set not full yet");
        c.insert(b(4), 1);
        let predicted = c.victim_for(b(8)).unwrap().block;
        let actual = c.insert(b(8), 2).unwrap().block;
        assert_eq!(predicted, actual);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.insert(b(0), 9);
        assert_eq!(c.invalidate(b(0)).unwrap().meta, 9);
        assert!(c.probe(b(0)).is_none());
        assert!(c.invalidate(b(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "double-insert")]
    fn double_insert_is_a_bug() {
        let mut c = tiny();
        c.insert(b(0), 0);
        c.insert(b(0), 1);
    }

    #[test]
    fn occupancy_never_exceeds_ways() {
        let mut c = tiny();
        for i in 0..100 {
            let _ = c.insert(b(i), i as u32);
        }
        assert!(c.len() <= 8);
        for set_base in 0..4u64 {
            assert!(c.set_lines(b(set_base)).len() <= 2);
        }
    }

    #[test]
    fn probe_does_not_change_recency() {
        let mut c = tiny();
        c.insert(b(0), 0);
        c.insert(b(4), 1);
        // Probe (not touch) 0: 0 stays LRU? No — 0 was inserted first,
        // then 4 became MRU; 0 is LRU. A probe must not promote it.
        let _ = c.probe(b(0));
        let victim = c.insert(b(8), 2).unwrap();
        assert_eq!(victim.block, b(0));
    }
}
