//! Differential property tests: the flat `SetAssocCache` tag store must
//! be operation-for-operation identical to the per-set representation it
//! replaced. The model below *is* the old implementation (one
//! `Vec<Line>` per set, MRU first, `remove` + `insert(0)` to promote,
//! evict the tail), so any observable divergence — hit/miss, returned
//! line, eviction victim, `victim_for`, the MRU order of `set_lines`,
//! `iter` order, occupancy — fails the suite.

use bump_cache::{Line, SetAssocCache};
use bump_types::{BlockAddr, CacheGeometry};
use proptest::prelude::*;

/// The per-set tag store: `sets` heap vectors, each MRU-first.
struct PerSetModel {
    ways: usize,
    sets: Vec<Vec<Line<u32>>>,
}

impl PerSetModel {
    fn new(geometry: CacheGeometry) -> Self {
        PerSetModel {
            ways: geometry.ways as usize,
            sets: (0..geometry.sets())
                .map(|_| Vec::with_capacity(geometry.ways as usize))
                .collect(),
        }
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        (block.index() % self.sets.len() as u64) as usize
    }

    fn probe(&self, block: BlockAddr) -> Option<Line<u32>> {
        self.sets[self.set_of(block)]
            .iter()
            .find(|l| l.block == block)
            .copied()
    }

    fn probe_mut(&mut self, block: BlockAddr) -> Option<&mut Line<u32>> {
        let s = self.set_of(block);
        self.sets[s].iter_mut().find(|l| l.block == block)
    }

    fn touch(&mut self, block: BlockAddr) -> Option<Line<u32>> {
        let s = self.set_of(block);
        let lines = &mut self.sets[s];
        let pos = lines.iter().position(|l| l.block == block)?;
        let line = lines.remove(pos);
        lines.insert(0, line);
        Some(lines[0])
    }

    fn insert(&mut self, block: BlockAddr, meta: u32) -> Option<Line<u32>> {
        let s = self.set_of(block);
        let lines = &mut self.sets[s];
        let victim = if lines.len() == self.ways {
            lines.pop()
        } else {
            None
        };
        lines.insert(0, Line { block, meta });
        victim
    }

    fn invalidate(&mut self, block: BlockAddr) -> Option<Line<u32>> {
        let s = self.set_of(block);
        let lines = &mut self.sets[s];
        let pos = lines.iter().position(|l| l.block == block)?;
        Some(lines.remove(pos))
    }

    fn victim_for(&self, block: BlockAddr) -> Option<Line<u32>> {
        let lines = &self.sets[self.set_of(block)];
        if lines.len() == self.ways {
            lines.last().copied()
        } else {
            None
        }
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// Replays `ops` against both stores, demanding the same observable
/// result after every operation.
fn replay(geometry: CacheGeometry, ops: &[(u8, u64, u32)]) {
    let mut cache: SetAssocCache<u32> = SetAssocCache::new(geometry);
    let mut model = PerSetModel::new(geometry);
    // Four sets spread over the index range, each with three more
    // distinct blocks than ways: residents are revisited often and sets
    // fill and evict even in the 4096-set LLC.
    let sets = geometry.sets();
    let tags = u64::from(geometry.ways) + 3;
    for &(op, key, meta) in ops {
        let set = (key / tags % 4) * sets.div_ceil(4) % sets;
        let block = BlockAddr::from_index(key % tags * sets + set);
        match op {
            0 | 1 => {
                // A resident block is touched, as callers do on a hit
                // (inserting it again is a coherence bug both refuse).
                if model.probe(block).is_some() {
                    assert_eq!(cache.touch(block).copied(), model.touch(block));
                } else {
                    assert_eq!(
                        cache.insert(block, meta),
                        model.insert(block, meta),
                        "insert({:?})",
                        block
                    );
                }
            }
            2 => {
                let got = cache.touch(block).copied();
                assert_eq!(got, model.touch(block), "touch({:?})", block);
            }
            3 => {
                assert_eq!(cache.probe(block).copied(), model.probe(block));
                if let (Some(got), Some(want)) = (cache.probe_mut(block), model.probe_mut(block)) {
                    got.meta = meta;
                    want.meta = meta;
                }
            }
            4 => {
                let got = cache.invalidate(block);
                assert_eq!(got, model.invalidate(block), "invalidate({:?})", block);
            }
            _ => {
                let got = cache.victim_for(block).copied();
                assert_eq!(got, model.victim_for(block), "victim_for({:?})", block);
            }
        }
        let s = model.set_of(block);
        assert_eq!(cache.set_lines(block), &model.sets[s][..], "set {}", s);
        assert_eq!(cache.len(), model.len());
        assert_eq!(cache.is_empty(), model.len() == 0);
    }
    let got: Vec<Line<u32>> = cache.iter().copied().collect();
    let want: Vec<Line<u32>> = model.sets.iter().flatten().copied().collect();
    assert_eq!(got, want, "iter order");
}

proptest! {
    /// Random op streams over 1–16 ways and 1–16 sets.
    #[test]
    fn flat_tag_store_matches_per_set_model(
        ops in prop::collection::vec((0u8..6, 0u64..1 << 20, 0u32..1000), 1..600),
        set_bits in 0u32..5,
        ways in 1u32..17,
    ) {
        let sets = 1u64 << set_bits;
        replay(CacheGeometry::new(sets * u64::from(ways) * 64, ways), &ops);
    }

    /// The two shapes the simulator builds: the paper's L1-D (2-way)
    /// and LLC (16-way).
    #[test]
    fn paper_shapes_match_per_set_model(
        ops in prop::collection::vec((0u8..6, 0u64..1 << 20, 0u32..1000), 1..600),
    ) {
        replay(CacheGeometry::l1d(), &ops);
        replay(CacheGeometry::llc(), &ops);
    }
}
