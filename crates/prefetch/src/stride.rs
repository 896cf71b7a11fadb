//! The baseline stride prefetcher.

use bump_types::{AssocTable, BlockAddr, MemoryRequest, Pc, TrafficClass};

/// Stride prefetcher configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StrideConfig {
    /// Number of blocks fetched ahead once a stride is confirmed
    /// (paper: four).
    pub degree: u32,
    /// Reference-prediction-table entries.
    pub table_entries: usize,
    /// Table associativity.
    pub table_ways: usize,
}

impl Default for StrideConfig {
    fn default() -> Self {
        StrideConfig {
            degree: 4,
            table_entries: 256,
            table_ways: 4,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct StrideEntry {
    last_block: BlockAddr,
    stride: i64,
    confirmed: bool,
}

/// PC-indexed stride detector with configurable degree.
///
/// An entry confirms its stride when two consecutive accesses from the
/// same PC are separated by the same (non-zero) block stride; from then
/// on each access prefetches the next `degree` blocks along the stride.
#[derive(Debug)]
pub struct StridePrefetcher {
    config: StrideConfig,
    table: AssocTable<Pc, StrideEntry>,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher.
    pub fn new(config: StrideConfig) -> Self {
        StridePrefetcher {
            table: AssocTable::with_entries(config.table_entries, config.table_ways),
            config,
        }
    }

    /// The paper's configuration (degree 4).
    pub fn paper() -> Self {
        StridePrefetcher::new(StrideConfig::default())
    }

    /// Observes a demand LLC access (hit or miss) and appends the
    /// blocks to prefetch to `out`.
    pub fn on_demand_access(&mut self, req: &MemoryRequest, _hit: bool, out: &mut Vec<BlockAddr>) {
        let block = req.block;
        match self.table.touch(&req.pc) {
            Some(e) => {
                let stride = block.index() as i64 - e.last_block.index() as i64;
                if stride == 0 {
                    return; // same block: no information
                }
                if stride == e.stride {
                    e.confirmed = true;
                } else {
                    e.confirmed = false;
                    e.stride = stride;
                }
                e.last_block = block;
                if e.confirmed {
                    let s = stride;
                    for k in 1..=self.config.degree {
                        out.push(block.offset_by(s * i64::from(k)));
                    }
                }
            }
            None => {
                self.table.insert(
                    req.pc,
                    StrideEntry {
                        last_block: block,
                        stride: 0,
                        confirmed: false,
                    },
                );
            }
        }
    }

    /// The traffic class stride fetches are tagged with.
    pub fn traffic_class(&self) -> TrafficClass {
        TrafficClass::StridePrefetch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bump_types::AccessKind;

    fn req(pc: u64, block: u64) -> MemoryRequest {
        MemoryRequest::demand(
            BlockAddr::from_index(block),
            Pc::new(pc),
            AccessKind::Load,
            0,
        )
    }

    fn drive(p: &mut StridePrefetcher, pc: u64, blocks: &[u64]) -> Vec<Vec<u64>> {
        blocks
            .iter()
            .map(|&b| {
                let mut out = Vec::new();
                p.on_demand_access(&req(pc, b), false, &mut out);
                out.into_iter().map(|x| x.index()).collect()
            })
            .collect()
    }

    #[test]
    fn confirms_stride_on_third_access() {
        let mut p = StridePrefetcher::paper();
        let outs = drive(&mut p, 0x400, &[10, 11, 12]);
        assert!(outs[0].is_empty(), "first access trains");
        assert!(outs[1].is_empty(), "second access sets the stride");
        assert_eq!(outs[2], vec![13, 14, 15, 16], "third access prefetches");
    }

    #[test]
    fn negative_strides_work() {
        let mut p = StridePrefetcher::paper();
        let outs = drive(&mut p, 0x400, &[100, 98, 96]);
        assert_eq!(outs[2], vec![94, 92, 90, 88]);
    }

    #[test]
    fn stride_change_retrains() {
        let mut p = StridePrefetcher::paper();
        let outs = drive(&mut p, 0x400, &[10, 11, 12, 20, 28, 36]);
        assert!(outs[3].is_empty(), "stride changed: must not prefetch");
        assert_eq!(outs[5], vec![44, 52, 60, 68], "new stride confirmed");
    }

    #[test]
    fn distinct_pcs_track_independently() {
        let mut p = StridePrefetcher::paper();
        drive(&mut p, 0xA, &[10, 11]);
        drive(&mut p, 0xB, &[50, 52]);
        let mut out = Vec::new();
        p.on_demand_access(&req(0xA, 12), false, &mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].index(), 13);
        out.clear();
        p.on_demand_access(&req(0xB, 54), false, &mut out);
        assert_eq!(out[0].index(), 56);
    }

    #[test]
    fn repeated_same_block_does_not_prefetch() {
        let mut p = StridePrefetcher::paper();
        let outs = drive(&mut p, 0x400, &[10, 10, 10, 10]);
        assert!(outs.iter().all(Vec::is_empty));
    }
}
