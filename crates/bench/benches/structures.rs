//! Criterion micro-benchmarks of the predictor structures: the RDTT
//! path, BHT/DRT probes, SMS, and the stride table. These bound the
//! per-LLC-event cost of each mechanism (the hardware equivalent is a
//! few picojoules per lookup — §V.F). Two substrates every cell ticks
//! ride along: the LLC access/drain path and the DRAM channel's FR-FCFS
//! scheduler.

use bump::{Bump, BumpConfig};
use bump_cache::{Llc, LlcConfig};
use bump_dram::{AddressMapper, Channel, RowPolicy, Transaction, TransactionId, WriteQueueConfig};
use bump_prefetch::{Prefetcher, SmsPrefetcher, StridePrefetcher};
use bump_types::{
    AccessKind, AssocTable, BlockAddr, Interleaving, MemSpec, MemoryRequest, Pc, RegionAddr,
    RegionConfig, TrafficClass,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn region_block(region: u64, offset: u32) -> BlockAddr {
    RegionAddr::from_index(region).block_at(RegionConfig::kilobyte(), offset)
}

fn bench_bump_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("bump_engine");
    g.bench_function("access_stream_dense", |b| {
        let mut engine = Bump::new(BumpConfig::paper());
        let mut out = Vec::new();
        let mut region = 0u64;
        b.iter(|| {
            region += 1;
            for o in 0..12u32 {
                let req = MemoryRequest::demand(
                    region_block(region, o),
                    Pc::new(0x400),
                    AccessKind::Load,
                    0,
                );
                engine.on_llc_access(black_box(&req), o != 0, &mut out);
            }
            engine.on_llc_eviction(region_block(region, 0), false, &mut out);
            out.clear();
        });
    });
    g.bench_function("eviction_probe_miss", |b| {
        let mut engine = Bump::new(BumpConfig::paper());
        let mut out = Vec::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            engine.on_llc_eviction(black_box(region_block(i, 3)), true, &mut out);
            out.clear();
        });
    });
    g.finish();
}

fn bench_prefetchers(c: &mut Criterion) {
    let mut g = c.benchmark_group("prefetchers");
    g.bench_function("stride_access", |b| {
        let mut p = StridePrefetcher::paper();
        let mut out = Vec::new();
        let mut block = 0u64;
        b.iter(|| {
            block += 1;
            let req = MemoryRequest::demand(
                BlockAddr::from_index(block),
                Pc::new(0x400),
                AccessKind::Load,
                0,
            );
            p.on_demand_access(black_box(&req), false, &mut out);
            out.clear();
        });
    });
    g.bench_function("sms_generation", |b| {
        let mut p = SmsPrefetcher::paper();
        let mut out = Vec::new();
        let mut region = 0u64;
        b.iter(|| {
            region += 1;
            for o in 0..8u32 {
                let req = MemoryRequest::demand(
                    region_block(region, o),
                    Pc::new(0x400),
                    AccessKind::Load,
                    0,
                );
                p.on_demand_access(black_box(&req), false, &mut out);
            }
            p.on_eviction(region_block(region, 0));
            out.clear();
        });
    });
    g.finish();
}

fn bench_assoc_table(c: &mut Criterion) {
    let mut g = c.benchmark_group("assoc_table");
    // The predictor-table hot path: repeated hits promoting entries to
    // MRU in a warm table. The stamp representation makes this a store
    // instead of a memmove through the recency bucket.
    g.bench_function("touch_hit_warm", |b| {
        let mut t: AssocTable<u64, u32> = AssocTable::new(64, 8);
        for k in 0..512u64 {
            t.insert(k, k as u32);
        }
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 97) % 512;
            black_box(t.touch(&k));
        });
    });
    // Steady-state capacity churn: every insert of a fresh key evicts
    // the set's LRU victim (the min-stamp scan).
    g.bench_function("insert_evict_churn", |b| {
        let mut t: AssocTable<u64, u32> = AssocTable::new(64, 8);
        for k in 0..512u64 {
            t.insert(k, k as u32);
        }
        let mut k = 512u64;
        b.iter(|| {
            k += 1;
            black_box(t.insert(k, k as u32));
        });
    });
    g.finish();
}

fn bench_llc_pump(c: &mut Criterion) {
    let region = RegionConfig::kilobyte();
    let run = |llc: &mut Llc, scratch: &mut Vec<bump_cache::LlcEvent>, base: &mut u64| {
        *base += 1;
        for o in 0..8u32 {
            let block = RegionAddr::from_index(*base).block_at(region, o);
            let req = MemoryRequest::demand(block, Pc::new(0x400), AccessKind::Load, 0);
            llc.access(req, 0);
            let spec = MemoryRequest::speculative(block, Pc::new(0x400), TrafficClass::BulkRead, 0);
            llc.access(spec, 0);
        }
        llc.drain_events_into(scratch);
        black_box(scratch.len());
        scratch.clear();
    };
    let mut g = c.benchmark_group("llc_pump");
    // Demand accesses emit events; the speculative lookups emit none.
    g.bench_function("access_drain", |b| {
        let mut llc = Llc::new(LlcConfig::paper());
        let mut scratch = Vec::new();
        let mut base = 0u64;
        b.iter(|| run(&mut llc, &mut scratch, &mut base));
    });
    g.finish();
}

fn bench_dram_channel(c: &mut Criterion) {
    // Seeded random traffic through one `ddr3_1600` channel under region
    // interleaving: blocks near a few hot anchors share rows (hits) and
    // different anchors collide in banks (conflicts); a third are
    // writebacks and half the reads speculative. One iteration is 64
    // memory cycles of arrivals (refused when a queue is full) and
    // `Channel::tick_event`, so it times the scheduler's scan and pick
    // together with the quiet ticks its horizon skips.
    let spec = MemSpec::ddr3_1600();
    let mapper = AddressMapper::new(spec.geometry, Interleaving::Region);
    let mut g = c.benchmark_group("dram_channel");
    g.bench_function("tick_event_random_traffic", |b| {
        let mut ch = Channel::new(
            spec.geometry,
            spec.timing,
            RowPolicy::Open,
            WriteQueueConfig::default(),
            64,
            100,
            false,
        );
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let anchors: Vec<u64> = (0..16).map(|_| rand() % (1 << 22)).collect();
        let (mut now, mut id, mut done) = (0u64, 0u64, Vec::new());
        b.iter(|| {
            for _ in 0..64 {
                let r = rand();
                if r % 5 == 0 {
                    let block =
                        BlockAddr::from_index(anchors[(r >> 8) as usize % 16] + (r >> 16) % 32);
                    let txn = match (r >> 32) % 6 {
                        0 | 1 => Transaction::write(block, TrafficClass::DemandWriteback, 0),
                        2 | 3 => Transaction::read(block, TrafficClass::Demand, 0),
                        _ => Transaction::read(block, TrafficClass::BulkRead, 0),
                    };
                    if ch.has_room(txn.is_write) {
                        id += 1;
                        ch.enqueue(TransactionId(id), txn, mapper.decode(block), now);
                    }
                }
                ch.tick_event(now, &mut done);
                now += 1;
            }
            black_box(done.len());
            done.clear();
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_bump_engine, bench_prefetchers, bench_assoc_table, bench_llc_pump,
        bench_dram_channel
}
criterion_main!(benches);
