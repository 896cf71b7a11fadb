//! Differential test of the memory controller's admission path.
//!
//! Both engines share [`MemoryController::submit`] and the per-channel
//! backlogs, so engine equivalence cannot catch a bug in the event
//! engine's drain. This test holds it to the oracle directly: two
//! controllers receive the same seeded `submit`/`promote_to_demand`
//! traffic on every [`MemSpec`] preset under both row policies. The
//! oracle drains every waiting transaction and ticks every memory
//! cycle; the other drains only when [`MemoryController::drain_due`]
//! says a drain could admit something, with
//! [`MemoryController::drain_event`], and ticks with
//! [`MemoryController::tick_event`]. Completions, statistics and
//! energy counters must match after every cycle.

use bump_dram::{Completion, DramConfig, MemoryController, Transaction};
use bump_types::{BlockAddr, MemCycle, MemSpec, TrafficClass};

/// Memory cycles per configuration.
const CYCLES: MemCycle = 12_000;
/// Both controllers reset their statistics here, mid-traffic.
const RESET_AT: MemCycle = 5_000;
/// Traffic alternates bursts that overrun the queues with quiet spans
/// in which only issued columns can admit the backlog.
const PHASE: MemCycle = 1_500;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A block from a small pool of regions, so rows hit, conflict, and
/// reads forward from queued writes.
fn block(rng: &mut XorShift) -> BlockAddr {
    BlockAddr::from_index(rng.below(96) * 32 + rng.below(32))
}

fn transaction(rng: &mut XorShift) -> Transaction {
    let b = block(rng);
    match rng.below(8) {
        0 => Transaction::write(b, TrafficClass::DemandWriteback, 0),
        1 | 2 => Transaction::write(b, TrafficClass::EagerWriteback, 0),
        3 => Transaction::read(b, TrafficClass::Demand, 0),
        4 => Transaction::read(b, TrafficClass::SmsPrefetch, 0),
        _ => Transaction::read(b, TrafficClass::BulkRead, 0),
    }
}

/// Runs the seeded traffic through both controllers built from `cfg`.
fn run_pair(cfg: DramConfig, seed: u64) {
    let name = format!("{:?}/{:?} seed {seed}", cfg.geometry, cfg.policy);
    let mut oracle = MemoryController::new(cfg);
    let mut event = MemoryController::new(cfg);
    let mut rng = XorShift(seed);
    let (mut done_o, mut done_e): (Vec<Completion>, Vec<Completion>) = (Vec::new(), Vec::new());
    let (mut completed, mut waited, mut skipped) = (0, 0, 0);
    for now in 0..CYCLES {
        if now == RESET_AT {
            oracle.reset_stats();
            event.reset_stats();
        }
        if (now / PHASE).is_multiple_of(2) && rng.below(2) == 0 {
            for _ in 0..=rng.below(2) {
                let txn = transaction(&mut rng);
                oracle.submit(txn);
                event.submit(txn);
            }
        }
        if rng.below(6) == 0 {
            let b = block(&mut rng);
            assert_eq!(
                oracle.promote_to_demand(b),
                event.promote_to_demand(b),
                "{name}: promotion of {b:?} at {now}"
            );
        }
        oracle.drain(now);
        oracle.tick(now, &mut done_o);
        if event.drain_due() {
            event.drain_event(now);
        } else if event.backlogged() > 0 {
            skipped += 1;
        }
        waited += usize::from(event.backlogged() > 0);
        event.tick_event(now, &mut done_e);
        assert_eq!(done_o, done_e, "{name}: completions at {now}");
        assert_eq!(
            format!("{:?}", oracle.stats()),
            format!("{:?}", event.stats()),
            "{name}: stats at {now}"
        );
        assert_eq!(oracle.energy(), event.energy(), "{name}: energy at {now}");
        assert_eq!(oracle.queued(), event.queued(), "{name}: queued at {now}");
        assert_eq!(
            oracle.backlogged(),
            event.backlogged(),
            "{name}: backlogged at {now}"
        );
        completed += done_o.len();
        done_o.clear();
        done_e.clear();
    }
    // The traffic must have exercised the backlog: transactions waited
    // for room on many cycles, and on many of them the event drain was
    // skipped.
    assert!(completed > 1_000, "{name}: only {completed} completions");
    assert!(waited > 1_000, "{name}: a backlog on only {waited} cycles");
    assert!(skipped > 500, "{name}: only {skipped} skipped drains");
}

#[test]
fn event_drain_matches_oracle_drain_under_random_traffic() {
    for spec in MemSpec::all() {
        for cfg in [DramConfig::close_row(&spec), DramConfig::open_row(&spec)] {
            for seed in [0x9E37_79B9_7F4A_7C15, 0xD1B5_4A32_D192_ED03] {
                run_pair(cfg, seed);
            }
        }
    }
}
