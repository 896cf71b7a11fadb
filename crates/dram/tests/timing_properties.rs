//! Property-based tests: arbitrary transaction mixes never produce a
//! DDR3 timing violation (verified by the independent auditor), never
//! lose transactions, and keep energy counters consistent. The
//! controller is driven the way the simulator drives it: submit, then
//! drain, then tick, every cycle; every submitted transaction, queued
//! or backlogged, must complete.

use bump_dram::{DramConfig, MemoryController, RowPolicy, Transaction};
use bump_types::{BlockAddr, Interleaving, TrafficClass};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Step {
    gap: u8,
    block: u64,
    write: bool,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0u8..6, 0u64..1 << 22, any::<bool>()).prop_map(|(gap, block, write)| Step {
            gap,
            block,
            write,
        }),
        1..160,
    )
}

fn run_mix(steps: &[Step], policy: RowPolicy, interleaving: Interleaving) -> (usize, u64, u64) {
    let mut cfg = DramConfig::paper_open_row();
    cfg.policy = policy;
    cfg.interleaving = interleaving;
    cfg.audit = true;
    let mut mc = MemoryController::new(cfg);
    let mut now = 0u64;
    let mut done = Vec::new();
    for s in steps {
        for _ in 0..s.gap {
            mc.drain(now);
            mc.tick(now, &mut done);
            now += 1;
        }
        let block = BlockAddr::from_index(s.block);
        let txn = if s.write {
            Transaction::write(block, TrafficClass::DemandWriteback, 0)
        } else {
            Transaction::read(block, TrafficClass::Demand, 0)
        };
        mc.submit(txn);
    }
    // Run on until every submitted transaction has completed.
    let submitted = steps.len() as u64;
    for _ in 0..300_000 {
        if done.len() as u64 == submitted {
            break;
        }
        mc.drain(now);
        mc.tick(now, &mut done);
        now += 1;
    }
    (mc.audit_errors(), submitted, done.len() as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Open-row + region interleaving: legal and lossless.
    #[test]
    fn open_row_region_interleaving_is_legal(s in steps()) {
        let (errors, submitted, completed) = run_mix(&s, RowPolicy::Open, Interleaving::Region);
        prop_assert_eq!(errors, 0, "timing violations");
        prop_assert_eq!(submitted, completed, "transactions lost");
    }

    /// Close-row + block interleaving: legal and lossless.
    #[test]
    fn close_row_block_interleaving_is_legal(s in steps()) {
        let (errors, submitted, completed) = run_mix(&s, RowPolicy::Close, Interleaving::Block);
        prop_assert_eq!(errors, 0, "timing violations");
        prop_assert_eq!(submitted, completed, "transactions lost");
    }

    /// Energy counters match completions: one burst per transaction,
    /// and at least one activation when anything completed.
    #[test]
    fn energy_counters_track_completions(s in steps()) {
        let mut cfg = DramConfig::paper_open_row();
        cfg.audit = true;
        let mut mc = MemoryController::new(cfg);
        let mut now = 0u64;
        let mut done = Vec::new();
        for st in &s {
            let block = BlockAddr::from_index(st.block);
            let txn = if st.write {
                Transaction::write(block, TrafficClass::DemandWriteback, 0)
            } else {
                Transaction::read(block, TrafficClass::Demand, 0)
            };
            mc.submit(txn);
            mc.drain(now);
            mc.tick(now, &mut done);
            now += 1;
        }
        for _ in 0..300_000 {
            if done.len() == s.len() {
                break;
            }
            mc.drain(now);
            mc.tick(now, &mut done);
            now += 1;
        }
        let e = mc.energy();
        // Forwarded reads (write-queue hits) complete without a burst,
        // so bursts never exceed completions but may undercount them.
        prop_assert!(e.reads + e.writes <= done.len() as u64);
        if done.iter().any(|c| !c.row_hit) {
            prop_assert!(e.activations > 0);
        }
    }

    /// Row-hit flags are consistent: the first access after idle start
    /// is never a row hit under the close policy.
    #[test]
    fn close_policy_lone_accesses_never_hit(block in 0u64..1 << 22) {
        let mut cfg = DramConfig::paper_close_row();
        cfg.audit = true;
        let mut mc = MemoryController::new(cfg);
        let mut done = Vec::new();
        mc.submit(Transaction::read(BlockAddr::from_index(block), TrafficClass::Demand, 0));
        for now in 0..500 {
            mc.drain(now);
            mc.tick(now, &mut done);
        }
        prop_assert_eq!(done.len(), 1);
        prop_assert!(!done[0].row_hit);
        prop_assert_eq!(mc.audit_errors(), 0);
    }
}
