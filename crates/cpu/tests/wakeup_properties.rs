//! Property tests for the core's event-engine contract: whenever
//! `classify_idle` classifies a cycle as idle, the actual tick retires
//! nothing, issues nothing, and touches nothing but the stall
//! counters — and `apply_idle`, under that classification's stall
//! flags, replays exactly those counter updates.

use bump_cache::L1Cache;
use bump_cpu::{CoreWakeup, LeanCore};
use bump_types::{BlockAddr, CoreParams, Cycle, Instr, Pc};
use proptest::prelude::*;
use std::collections::VecDeque;

#[derive(Clone, Debug)]
enum Op {
    Load { block: u64, dep: bool },
    Store { block: u64 },
    Compute { count: u8 },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..64, any::<bool>()).prop_map(|(b, dep)| Op::Load {
                block: b * 977,
                dep
            }),
            (0u64..64).prop_map(|b| Op::Store { block: b * 977 }),
            (1u8..6).prop_map(|count| Op::Compute { count }),
        ],
        1..80,
    )
}

fn instr(op: &Op) -> Instr {
    match *op {
        Op::Load { block, dep } => Instr::Load {
            block: BlockAddr::from_index(block),
            pc: Pc::new(0x400),
            dep,
        },
        Op::Store { block } => Instr::Store {
            block: BlockAddr::from_index(block),
            pc: Pc::new(0x800),
        },
        Op::Compute { count } => Instr::Compute {
            count: u32::from(count),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Drives a core against a synthetic memory that answers after
    /// `latency` cycles. At every cycle the wakeup probe runs first;
    /// when it claims the cycle is idle, the tick must prove it so.
    #[test]
    fn idle_classification_is_sound(
        ops in ops(),
        latency in 8u64..220,
    ) {
        let mut core = LeanCore::new(0, CoreParams::paper());
        let mut l1 = L1Cache::paper();
        let mut src = ops.iter().map(instr);
        let mut inflight: VecDeque<(Cycle, BlockAddr)> = VecDeque::new();
        let mut requests = Vec::new();
        let mut writebacks = Vec::new();
        for now in 0..20_000u64 {
            while matches!(inflight.front(), Some((t, _)) if *t <= now) {
                let (_, b) = inflight.pop_front().unwrap();
                core.memory_response(b, now);
            }
            let wakeup = core.classify_idle(&l1).wakeup;
            let idle = match wakeup {
                CoreWakeup::Busy => false,
                CoreWakeup::At(t) => t > now,
                CoreWakeup::Blocked => true,
            };
            let stats_before = *core.stats();
            let mshrs_before = core.mshrs_in_use();
            requests.clear();
            writebacks.clear();
            let retired = core.tick(now, &mut src, &mut l1, &mut requests, &mut writebacks);
            if idle {
                prop_assert_eq!(retired, 0, "idle cycle retired at {}", now);
                prop_assert!(requests.is_empty(), "idle cycle issued at {}", now);
                prop_assert!(writebacks.is_empty(), "idle cycle wrote back at {}", now);
                prop_assert_eq!(core.mshrs_in_use(), mshrs_before);
                // The tick's only effects are the counter updates that
                // apply_idle(1, ..) replays on a twin core.
                let s = core.stats();
                prop_assert_eq!(s.retired, stats_before.retired);
                prop_assert_eq!(s.loads, stats_before.loads);
                prop_assert_eq!(s.stores, stats_before.stores);
                prop_assert_eq!(s.cycles, stats_before.cycles + 1);
            }
            for r in requests.drain(..) {
                inflight.push_back((now + latency, r.request.block));
            }
            if core.drained() {
                break;
            }
        }
    }

    /// `apply_idle(n, ..)` equals n idle ticks: run two identical cores into
    /// a blocked state, tick one through the stall window, bulk-skip
    /// the other, and compare statistics.
    #[test]
    fn skip_idle_matches_sequential_idle_ticks(
        ops in ops(),
        latency in 30u64..200,
    ) {
        let mut ticked = LeanCore::new(0, CoreParams::paper());
        let mut skipped = LeanCore::new(0, CoreParams::paper());
        let mut l1_t = L1Cache::paper();
        let mut l1_s = L1Cache::paper();
        let mut src_t = ops.iter().map(instr);
        let mut src_s = ops.iter().map(instr);
        let mut inflight: VecDeque<(Cycle, BlockAddr)> = VecDeque::new();
        let mut requests = Vec::new();
        let mut wbs = Vec::new();
        let mut now = 0u64;
        while now < 20_000 {
            while matches!(inflight.front(), Some((t, _)) if *t <= now) {
                let (_, b) = inflight.pop_front().unwrap();
                ticked.memory_response(b, now);
                skipped.memory_response(b, now);
            }
            let idle_until = match ticked.classify_idle(&l1_t).wakeup {
                CoreWakeup::Busy => now,
                CoreWakeup::At(t) => t.max(now),
                CoreWakeup::Blocked => inflight
                    .front()
                    .map(|(t, _)| *t)
                    .unwrap_or(now + 50)
                    .max(now),
            };
            if idle_until > now {
                // Tick one core through the idle window, skip the other.
                let n = idle_until - now;
                let mut idle_reqs = Vec::new();
                for t in now..idle_until {
                    let retired = ticked.tick(t, &mut src_t, &mut l1_t, &mut idle_reqs, &mut wbs);
                    prop_assert_eq!(retired, 0);
                }
                prop_assert!(idle_reqs.is_empty());
                let c = skipped.classify_idle(&l1_s);
                skipped.apply_idle(n, c.load_stall, c.store_stall);
                now = idle_until;
            } else {
                requests.clear();
                wbs.clear();
                ticked.tick(now, &mut src_t, &mut l1_t, &mut requests, &mut wbs);
                let mut reqs_s = Vec::new();
                let mut wbs_s = Vec::new();
                skipped.tick(now, &mut src_s, &mut l1_s, &mut reqs_s, &mut wbs_s);
                prop_assert_eq!(&*requests, &*reqs_s, "cores diverged at {}", now);
                for r in requests.drain(..) {
                    inflight.push_back((now + latency, r.request.block));
                }
                now += 1;
            }
            prop_assert_eq!(
                format!("{:?}", ticked.stats()),
                format!("{:?}", skipped.stats()),
                "stats diverged at cycle {}", now
            );
            if ticked.drained() {
                break;
            }
        }
    }
}
