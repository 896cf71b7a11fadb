//! Every supported memory spec must satisfy the same inter-command
//! constraint audit as the paper's DDR3-1600: arbitrary transaction
//! mixes scheduled against the DDR4-2400 and LPDDR4-3200 timing sets
//! (and their geometries) produce zero violations from the independent
//! [`bump_dram::TimingAuditor`], lose no submitted transaction (queued
//! or backlogged), and this holds under both row policies. A new timing
//! set that breaks a scheduler assumption (e.g. a tRFC longer than the
//! refresh stagger) fails here rather than skewing scenario figures
//! quietly.

use bump_dram::{DramConfig, MemoryController, RowPolicy, Transaction};
use bump_types::{BlockAddr, MemSpec, TrafficClass};
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

fn run_mix(steps: &[Step], spec: &MemSpec, policy: RowPolicy) -> (usize, u64, u64, u64) {
    let mut cfg = match policy {
        RowPolicy::Open => DramConfig::open_row(spec),
        RowPolicy::Close => DramConfig::close_row(spec),
    };
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
    // Run far enough to cross several refresh intervals of the
    // slowest spec, so refresh scheduling is audited too.
    let submitted = steps.len() as u64;
    for _ in 0..300_000 {
        if done.len() as u64 == submitted {
            break;
        }
        mc.drain(now);
        mc.tick(now, &mut done);
        now += 1;
    }
    (
        mc.audit_errors(),
        submitted,
        done.len() as u64,
        mc.energy().refreshes,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DDR4-2400 under both policies: legal and lossless.
    #[test]
    fn ddr4_2400_passes_the_audit(s in steps()) {
        for policy in [RowPolicy::Open, RowPolicy::Close] {
            let (errors, submitted, completed, _) =
                run_mix(&s, &MemSpec::ddr4_2400(), policy);
            prop_assert_eq!(errors, 0, "timing violations under {:?}", policy);
            prop_assert_eq!(submitted, completed, "transactions lost under {:?}", policy);
        }
    }

    /// LPDDR4-3200 under both policies: legal and lossless.
    #[test]
    fn lpddr4_3200_passes_the_audit(s in steps()) {
        for policy in [RowPolicy::Open, RowPolicy::Close] {
            let (errors, submitted, completed, _) =
                run_mix(&s, &MemSpec::lpddr4_3200(), policy);
            prop_assert_eq!(errors, 0, "timing violations under {:?}", policy);
            prop_assert_eq!(submitted, completed, "transactions lost under {:?}", policy);
        }
    }
}

#[test]
fn every_spec_schedules_refreshes_on_long_runs() {
    // Deterministic long run: refresh must fire (and stay legal) for
    // every spec's tREFI/tRFC pair.
    for spec in MemSpec::all() {
        let steps: Vec<Step> = (0..120)
            .map(|i| Step {
                gap: 5,
                block: (i * 7919) % (1 << 22),
                write: i % 3 == 0,
            })
            .collect();
        let (errors, submitted, completed, refreshes) = run_mix(&steps, &spec, RowPolicy::Open);
        assert_eq!(errors, 0, "{}", spec.name);
        assert_eq!(submitted, completed, "{}", spec.name);
        assert!(refreshes > 0, "{} never refreshed", spec.name);
    }
}
