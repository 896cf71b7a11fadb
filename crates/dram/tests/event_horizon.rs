//! Property tests for the event-driven scheduler horizons.
//!
//! Three contracts back the event engine's equivalence to the
//! cycle-accurate oracle:
//!
//! 1. `next_event_at(now)` never lies in the past (`>= now`).
//! 2. Fast-forwarding an idle window — `skip_idle` over the cycles
//!    `next_event_at` proved null, taken only while `drain_due` is
//!    false — leaves the controller (banks, queues, backlogs, timers,
//!    energy counters) in *exactly* the state that many sequential
//!    drains and ticks produce, and those complete and admit nothing.
//!    This horizon-skip-then-tick path also carries every refresh inside a
//!    long idle span, so the property ends each case with an idle tail
//!    several refresh intervals long.
//! 3. `tick_event` (the memoized-horizon fast path) produces the same
//!    completion stream and final state as plain per-cycle ticking.

use bump_dram::{Completion, DramConfig, MemoryController, RowPolicy, Transaction};
use bump_types::{BlockAddr, Interleaving, MemCycle, TrafficClass};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Step {
    gap: u8,
    block: u64,
    write: bool,
    spec: bool,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0u8..12, 0u64..1 << 20, any::<bool>(), any::<bool>()).prop_map(
            |(gap, block, write, spec)| Step {
                gap,
                block,
                write,
                spec,
            },
        ),
        1..120,
    )
}

fn txn_for(s: &Step) -> Transaction {
    let block = BlockAddr::from_index(s.block);
    if s.write {
        let class = if s.spec {
            TrafficClass::EagerWriteback
        } else {
            TrafficClass::DemandWriteback
        };
        Transaction::write(block, class, 0)
    } else {
        let class = if s.spec {
            TrafficClass::BulkRead
        } else {
            TrafficClass::Demand
        };
        Transaction::read(block, class, 0)
    }
}

fn config(policy: RowPolicy, interleaving: Interleaving) -> DramConfig {
    let mut cfg = DramConfig::paper_open_row();
    cfg.policy = policy;
    cfg.interleaving = interleaving;
    cfg
}

/// Advances both controllers from `*now` to `target` the way the event
/// engine's quiet span does (`System::fast_forward`): while no drain is
/// due and `ticked`'s horizon proves a window null, `ticked` drains and
/// ticks through it while `skipped` bulk-skips it; every other cycle
/// both drain, then tick. A null window must complete nothing.
fn advance_skipping(
    ticked: &mut MemoryController,
    skipped: &mut MemoryController,
    now: &mut MemCycle,
    target: MemCycle,
    done_t: &mut Vec<Completion>,
    done_s: &mut Vec<Completion>,
) {
    while *now < target {
        let horizon = ticked.next_event_at(*now);
        if !ticked.drain_due() && horizon > *now + 1 {
            // A provably null window: run one controller through it,
            // bulk-skip the other.
            let end = horizon.min(target);
            let before = (done_t.len(), ticked.backlogged());
            for t in *now..end {
                ticked.drain(t);
                ticked.tick(t, done_t);
            }
            let after = (done_t.len(), ticked.backlogged());
            assert_eq!(
                after, before,
                "null window completed or admitted a transaction"
            );
            skipped.skip_idle(end - *now);
            *now = end;
        } else {
            ticked.drain(*now);
            ticked.tick(*now, done_t);
            skipped.drain_event(*now);
            skipped.tick(*now, done_s);
            *now += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contract 1: the horizon is never in the past, under both row
    /// policies and arbitrary in-flight traffic.
    #[test]
    fn next_event_never_in_the_past(steps in steps(), close in any::<bool>()) {
        let policy = if close { RowPolicy::Close } else { RowPolicy::Open };
        let mut mc = MemoryController::new(config(policy, Interleaving::Region));
        let mut now: MemCycle = 0;
        let mut done = Vec::new();
        for s in &steps {
            mc.submit(txn_for(s));
            for _ in 0..s.gap {
                mc.drain(now);
                let horizon = mc.next_event_at(now);
                prop_assert!(
                    horizon >= now,
                    "horizon {horizon} is before now {now}"
                );
                mc.tick(now, &mut done);
                now += 1;
            }
        }
    }

    /// Contract 2: when the horizon proves a window null, skipping it
    /// arithmetically equals ticking through it — the full `Debug`
    /// rendering of the controller (bank/rank timers, queues, energy)
    /// is compared, and the ticked window must complete nothing.
    #[test]
    fn skipping_idle_window_equals_sequential_ticks(
        steps in steps(),
        close in any::<bool>(),
        block_interleave in any::<bool>(),
    ) {
        let policy = if close { RowPolicy::Close } else { RowPolicy::Open };
        let il = if block_interleave { Interleaving::Block } else { Interleaving::Region };
        let cfg = config(policy, il);
        let mut ticked = MemoryController::new(cfg);
        let mut skipped = MemoryController::new(cfg);
        let mut now: MemCycle = 0;
        let mut done_t = Vec::new();
        let mut done_s = Vec::new();
        for s in &steps {
            let t = txn_for(s);
            ticked.submit(t);
            skipped.submit(t);
            let target = now + u64::from(s.gap);
            advance_skipping(&mut ticked, &mut skipped, &mut now, target, &mut done_t, &mut done_s);
            prop_assert_eq!(
                format!("{ticked:?}"),
                format!("{skipped:?}"),
                "controller state diverged after skip at cycle {}", now
            );
        }
        // An idle tail of four refresh intervals: the backlogs and
        // queues drain, and every later refresh is reached through the
        // horizon alone.
        let refreshes_before = skipped.energy().refreshes;
        let target = now + 4 * cfg.timing.t_refi;
        advance_skipping(&mut ticked, &mut skipped, &mut now, target, &mut done_t, &mut done_s);
        prop_assert_eq!(
            format!("{ticked:?}"),
            format!("{skipped:?}"),
            "controller state diverged across the idle tail ending at cycle {}", now
        );
        prop_assert!(
            skipped.energy().refreshes > refreshes_before,
            "no refresh issued across the idle tail"
        );
        // Completions delivered on ticked-only cycles inside null
        // windows would have tripped the assert above; the streams on
        // shared cycles must agree too.
        let extra: Vec<_> = done_t.iter().filter(|c| !done_s.contains(c)).collect();
        prop_assert!(extra.is_empty(), "completions diverged: {extra:?}");
    }

    /// Contract 3: the memoized fast path of `tick_event` is
    /// observationally identical to plain per-cycle ticking — same
    /// completions in the same order, same statistics and energy.
    #[test]
    fn tick_event_matches_plain_ticking(
        steps in steps(),
        close in any::<bool>(),
    ) {
        let policy = if close { RowPolicy::Close } else { RowPolicy::Open };
        let mut plain = MemoryController::new(config(policy, Interleaving::Region));
        let mut event = MemoryController::new(config(policy, Interleaving::Region));
        let mut now: MemCycle = 0;
        let mut done_p = Vec::new();
        let mut done_e = Vec::new();
        for s in &steps {
            let t = txn_for(s);
            plain.submit(t);
            event.submit(t);
            for _ in 0..s.gap {
                plain.drain(now);
                plain.tick(now, &mut done_p);
                event.drain_event(now);
                event.tick_event(now, &mut done_e);
                now += 1;
            }
        }
        // Run both for long enough to retire everything submitted.
        let idle = |mc: &MemoryController| mc.queued() == 0 && mc.backlogged() == 0;
        for _ in 0..200_000 {
            plain.drain(now);
            plain.tick(now, &mut done_p);
            event.drain_event(now);
            event.tick_event(now, &mut done_e);
            now += 1;
            if done_p.len() == done_e.len() && idle(&plain) && idle(&event) {
                break;
            }
        }
        prop_assert_eq!(&done_p, &done_e, "completion streams diverged");
        prop_assert_eq!(
            format!("{:?}", plain.stats()),
            format!("{:?}", event.stats())
        );
        prop_assert_eq!(
            format!("{:?}", plain.energy()),
            format!("{:?}", event.energy())
        );
    }
}
