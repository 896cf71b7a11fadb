//! The ROB scans the deferred-load FIFO and the completion bitset
//! replaced, kept as the reference the indexed core must agree with
//! under seeded random instruction streams.
//!
//! Both engines share [`LeanCore`], so engine equivalence cannot catch
//! an index that drifts from the ROB; this test can. Before every tick
//! it checks the wakeup probe's deferred-load answer and the next
//! dependent issue against the ROB scans below, then re-derives the
//! index from the ROB.

use super::*;
use bump_types::Pc;

/// The wakeup probe's ROB scan: whether any `NotIssued` load's
/// predecessor has completed while an L1 MSHR is free.
fn deferred_probe_scan(core: &LeanCore) -> bool {
    if core.outstanding.len() >= core.params.l1_mshrs as usize {
        return false;
    }
    core.rob.iter().any(|e| {
        matches!(e.slot, RobSlot::NotIssued { .. })
            && core.completed_load_seq >= e.load_seq.expect("NotIssued entries are loads") - 1
    })
}

/// The ROB indexes of every `NotIssued` load whose predecessor has
/// completed: the loads the issue pass's ROB scan would issue, MSHRs
/// permitting, in scan order.
fn ready_deferred_scan(core: &LeanCore) -> Vec<usize> {
    let completed_at_start = core.completed_load_seq;
    (0..core.rob.len())
        .filter(|&i| {
            let e = core.rob[i];
            matches!(e.slot, RobSlot::NotIssued { .. })
                && completed_at_start >= e.load_seq.expect("NotIssued entries are loads") - 1
        })
        .collect()
}

/// Re-derives the deferred FIFO, the completion bitset and the
/// completed sequence from the ROB.
fn assert_index_matches_rob(core: &LeanCore) {
    let fifo: Vec<(u64, u64)> = core
        .rob
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.slot, RobSlot::NotIssued { .. }))
        .map(|(i, e)| (e.load_seq.expect("a load"), core.rob_head_id + i as u64))
        .collect();
    assert_eq!(
        core.deferred.iter().copied().collect::<Vec<_>>(),
        fifo,
        "deferred FIFO"
    );
    // Every load past the completed sequence is still in the ROB; the
    // first one not yet done ends the completed prefix.
    let completed = core.completed_load_seq;
    let pending: Vec<(u64, bool)> = core
        .rob
        .iter()
        .filter_map(|e| {
            e.load_seq
                .map(|seq| (seq, matches!(e.slot, RobSlot::Ready { .. })))
        })
        .filter(|&(seq, _)| seq > completed)
        .collect();
    assert_eq!(
        pending.len() as u64,
        core.last_load_seq - completed,
        "loads past the completed sequence left the ROB"
    );
    let want_completed = pending
        .iter()
        .find(|(_, done)| !done)
        .map_or(core.last_load_seq, |(seq, _)| seq - 1);
    assert_eq!(completed, want_completed, "completed load sequence");
    let bits = pending
        .iter()
        .filter(|(_, done)| *done)
        .fold(0u64, |acc, (seq, _)| acc | 1 << (seq - completed - 1));
    assert_eq!(core.load_done, bits, "completion bitset");
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A seeded stream of loads (a share of them dependent), stores and
/// compute batches over a block pool small enough for L1 hits and
/// large enough for misses and evictions.
fn random_stream(rng: &mut Rng, len: usize, dep_share: u64) -> Vec<Instr> {
    let block = |rng: &mut Rng| BlockAddr::from_index(rng.below(1024) * 7);
    (0..len)
        .map(|_| match rng.below(10) {
            0..=5 => Instr::Load {
                block: block(rng),
                pc: Pc::new(0x400),
                dep: rng.below(10) < dep_share,
            },
            6 | 7 => Instr::Store {
                block: block(rng),
                pc: Pc::new(0x800),
            },
            _ => Instr::Compute {
                count: 1 + rng.below(6) as u32,
            },
        })
        .collect()
}

#[derive(Default)]
struct Coverage {
    deferred_issues: u64,
    probe_busy: u64,
    mshr_blocked: u64,
    long_fifo: u64,
    out_of_order_done: u64,
}

/// Runs one seeded stream to drain under random response latencies,
/// checking the index against the scans before every tick.
fn run_against_reference(params: CoreParams, seed: u64, dep_share: u64, cov: &mut Coverage) {
    let mut rng = Rng(seed);
    let mut core = LeanCore::new(0, params);
    let mut l1 = L1Cache::paper();
    let stream = random_stream(&mut rng, 4_000, dep_share);
    let instrs: u64 = stream
        .iter()
        .map(|i| match i {
            Instr::Compute { count } => u64::from(*count),
            _ => 1,
        })
        .sum();
    let mut src = stream.into_iter();
    let mut inflight: Vec<(Cycle, BlockAddr)> = Vec::new();
    let mut reqs = Vec::new();
    let mut wbs = Vec::new();
    for now in 0..400_000 {
        let mut i = 0;
        while i < inflight.len() {
            if inflight[i].0 <= now {
                let (_, block) = inflight.swap_remove(i);
                core.memory_response(block, now);
            } else {
                i += 1;
            }
        }
        assert_index_matches_rob(&core);
        let ready = ready_deferred_scan(&core);
        assert!(
            ready.len() <= 1,
            "more than one deferred load ready: {ready:?}"
        );
        let mshr_free = core.outstanding.len() < params.l1_mshrs as usize;
        let want = ready.first().copied().filter(|_| mshr_free);
        assert_eq!(
            core.issuable_deferred(),
            want,
            "next dependent issue at {now}"
        );
        assert_eq!(
            core.issuable_deferred().is_some(),
            deferred_probe_scan(&core),
            "wakeup probe at {now}"
        );
        cov.deferred_issues += u64::from(want.is_some());
        cov.probe_busy += u64::from(deferred_probe_scan(&core));
        cov.mshr_blocked += u64::from(!ready.is_empty() && !mshr_free);
        cov.long_fifo += u64::from(core.deferred.len() > 1);
        cov.out_of_order_done += u64::from(core.load_done != 0);
        core.tick(now, &mut src, &mut l1, &mut reqs, &mut wbs);
        wbs.clear();
        for r in reqs.drain(..) {
            inflight.push((now + 1 + rng.below(300), r.request.block));
        }
        if core.drained() {
            assert_index_matches_rob(&core);
            assert_eq!(core.stats().retired, instrs, "seed {seed}: retired count");
            return;
        }
    }
    panic!("seed {seed}: the core never drained");
}

#[test]
fn indexed_core_matches_rob_scan_reference_under_random_streams() {
    let mut cov = Coverage::default();
    let paper = CoreParams::paper();
    let shapes = [
        paper,
        // A full-width bitset and a scarce MSHR pool.
        CoreParams {
            rob_entries: 64,
            l1_mshrs: 2,
            ..paper
        },
        CoreParams {
            rob_entries: 8,
            retire_width: 1,
            ..paper
        },
    ];
    for params in shapes {
        for seed in 1..=3 {
            for dep_share in [2, 5, 9] {
                run_against_reference(params, seed, dep_share, &mut cov);
            }
        }
    }
    for (what, n) in [
        ("deferred issues", cov.deferred_issues),
        ("busy wakeup probes", cov.probe_busy),
        ("MSHR-blocked ready loads", cov.mshr_blocked),
        ("multi-entry deferred FIFOs", cov.long_fifo),
        ("out-of-order load returns", cov.out_of_order_done),
    ] {
        assert!(n > 0, "random streams never exercised {what}");
    }
}

#[test]
#[should_panic(expected = "at most 64")]
fn rob_wider_than_the_bitset_is_refused() {
    LeanCore::new(
        0,
        CoreParams {
            rob_entries: 65,
            ..CoreParams::paper()
        },
    );
}
