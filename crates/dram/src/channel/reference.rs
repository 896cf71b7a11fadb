//! The scan-based FR-FCFS arbiter the per-bank lists replaced, kept as
//! the reference the scheduler must agree with, command for command
//! and horizon for horizon, under seeded random traffic.
//!
//! Both engines share [`Channel`], so engine equivalence cannot catch a
//! scheduler that drifts from FR-FCFS; this test can. The reference
//! sees each queue only as its live slab entries sorted by arrival
//! `seq`, never through the per-bank lists. Every cycle the test checks
//! [`Channel::next_event_at`], the command the one-pass scan and pick
//! choose and, on a tick that issues nothing, the horizon that scan
//! memoizes, against the queue scans below; then it rebuilds every
//! bank's list and counters from the sorted slab and compares.

use super::*;
use crate::mapping::AddressMapper;
use bump_types::{BlockAddr, Interleaving, MemSpec, TrafficClass};

/// The queue's live entries as `(slot, entry)`, oldest first: every
/// slab slot not on the free list, sorted by arrival `seq`.
fn entries(queue: &TxnQueue) -> Vec<(u32, &Queued)> {
    let mut free = vec![false; queue.slab.len()];
    let mut i = queue.free;
    while i != NIL {
        assert!(!free[i as usize], "free list revisits slot {i}");
        free[i as usize] = true;
        i = queue.slab[i as usize].next;
    }
    let mut live: Vec<(u64, u32)> = (0..queue.slab.len())
        .filter(|&i| !free[i])
        .map(|i| (queue.slab[i].seq, i as u32))
        .collect();
    live.sort_unstable();
    live.into_iter().map(|(_, i)| (i, queue.entry(i))).collect()
}

/// Whether any active-queue transaction hits bank `idx`'s open row.
fn pending_open_row_hit(ch: &Channel, idx: usize) -> bool {
    let open = ch.banks[idx].open_row();
    entries(ch.active_queue())
        .iter()
        .any(|(_, q)| ch.bank_index(q.coord) == idx && Some(q.coord.row) == open)
}

/// The oldest active-queue transaction satisfying `pred`, giving demand
/// traffic priority over speculative traffic.
fn first_with_demand_priority(ch: &Channel, pred: impl Fn(&Queued) -> bool) -> Option<u32> {
    let mut any = None;
    for (i, q) in entries(ch.active_queue()) {
        if pred(q) {
            if !q.txn.class.is_speculative() {
                return Some(i);
            }
            if any.is_none() {
                any = Some(i);
            }
        }
    }
    any
}

fn data_bus_available(ch: &Channel, now: MemCycle, is_write: bool) -> bool {
    let data_start = now
        + if is_write {
            ch.timing.cwl()
        } else {
            ch.timing.t_cas
        };
    let mut free_at = ch.data_bus_free_at;
    if ch.last_burst_was_write != is_write {
        free_at += ch.timing.turnaround();
    }
    data_start >= free_at
}

fn find_ready_column(ch: &Channel, now: MemCycle) -> Option<u32> {
    let is_write = ch.write_drain;
    if !data_bus_available(ch, now, is_write) {
        return None;
    }
    first_with_demand_priority(ch, |q| {
        let bank = &ch.banks[ch.bank_index(q.coord)];
        let rank = &ch.ranks[q.coord.rank as usize];
        bank.can_column(now, q.coord.row)
            && if is_write {
                rank.can_write_col(now)
            } else {
                rank.can_read_col(now)
            }
    })
}

fn find_activatable(ch: &Channel, now: MemCycle) -> Option<u32> {
    first_with_demand_priority(ch, |q| {
        ch.banks[ch.bank_index(q.coord)].can_activate(now)
            && ch.ranks[q.coord.rank as usize].can_activate(now)
    })
}

fn find_prechargeable(ch: &Channel, now: MemCycle) -> Option<u32> {
    entries(ch.active_queue())
        .into_iter()
        .find(|(_, q)| {
            let idx = ch.bank_index(q.coord);
            let bank = &ch.banks[idx];
            match bank.open_row() {
                Some(open) if open != q.coord.row => {
                    !pending_open_row_hit(ch, idx) && bank.can_precharge(now)
                }
                _ => false,
            }
        })
        .map(|(i, _)| i)
}

/// The command the scan-based FR-FCFS arbiter issues at `now`.
fn pick(ch: &Channel, now: MemCycle) -> Option<Command> {
    if let Some(pos) = find_ready_column(ch, now) {
        return Some(Command::Column(pos));
    }
    if let Some(pos) = find_activatable(ch, now) {
        return Some(Command::Activate(pos));
    }
    find_prechargeable(ch, now).map(Command::Precharge)
}

/// Whether the column serving active-queue slot `slot` auto-precharges:
/// under the close-row policy, when no other queued transaction (either
/// queue) targets the same bank and row.
fn column_auto_precharges(ch: &Channel, slot: u32) -> bool {
    let target = ch.active_queue().entry(slot);
    let same = |q: &Queued| {
        q.id != target.id
            && q.coord.rank == target.coord.rank
            && q.coord.bank == target.coord.bank
            && q.coord.row == target.coord.row
    };
    ch.policy == RowPolicy::Close
        && !entries(&ch.read_queue).iter().any(|(_, q)| same(q))
        && !entries(&ch.write_queue).iter().any(|(_, q)| same(q))
}

/// A lower bound on the cycle `q` could trigger any command, assuming
/// the channel state stays frozen.
fn earliest_possible_issue(ch: &Channel, q: &Queued, is_write: bool) -> MemCycle {
    let idx = ch.bank_index(q.coord);
    let bank = &ch.banks[idx];
    let rank = &ch.ranks[q.coord.rank as usize];
    match bank.open_row() {
        Some(row) if row == q.coord.row => {
            let mut t = bank.earliest_column();
            if !is_write {
                t = t.max(rank.earliest_read_column());
            }
            let data_latency = if is_write {
                ch.timing.cwl()
            } else {
                ch.timing.t_cas
            };
            let mut free = ch.data_bus_free_at;
            if ch.last_burst_was_write != is_write {
                free += ch.timing.turnaround();
            }
            t.max(free.saturating_sub(data_latency))
        }
        None => bank.earliest_activate().max(rank.earliest_activate()),
        Some(_) => {
            if pending_open_row_hit(ch, idx) {
                MemCycle::MAX
            } else {
                bank.earliest_precharge()
            }
        }
    }
}

/// [`Channel::next_event_at`] by one scan per queued transaction.
fn next_event_at(ch: &Channel, now: MemCycle) -> MemCycle {
    if ch.drain_mode_would_flip() {
        return now;
    }
    let mut t = MemCycle::MAX;
    for f in &ch.in_flight {
        t = t.min(f.data_end);
    }
    for r in &ch.ranks {
        t = t.min(r.refresh_until().unwrap_or(r.refresh_due()));
    }
    for (_, q) in entries(ch.active_queue()) {
        t = t.min(earliest_possible_issue(ch, q, ch.write_drain));
    }
    t.max(now)
}

/// Rebuilds both queues' per-bank lists and counters from the
/// seq-sorted slab and compares them with the kept ones.
fn assert_index_matches_queues(ch: &Channel, now: MemCycle) {
    for (name, queue) in [("read", &ch.read_queue), ("write", &ch.write_queue)] {
        let live = entries(queue);
        assert_eq!(queue.len(), live.len(), "{name} length at cycle {now}");
        let mut lists = vec![Vec::new(); ch.banks.len()];
        let mut hits = [0u32; MAX_BANKS];
        let mut demand = [0u32; MAX_BANKS];
        let (mut occupied, mut demand_occupied) = (0u64, 0u64);
        for &(i, q) in &live {
            assert_eq!(q.bank, ch.bank_index(q.coord), "stored bank index");
            lists[q.bank].push(i);
            hits[q.bank] += u32::from(ch.banks[q.bank].open_row() == Some(q.coord.row));
            occupied |= 1 << q.bank;
            if !q.txn.class.is_speculative() {
                demand[q.bank] += 1;
                demand_occupied |= 1 << q.bank;
            }
        }
        for (b, want) in lists.iter().enumerate() {
            let forward: Vec<u32> = queue.bank_slots(b).collect();
            assert_eq!(&forward, want, "{name} bank {b} list at cycle {now}");
            let mut backward = Vec::new();
            let mut i = queue.tail[b];
            while i != NIL {
                backward.push(i);
                i = queue.slab[i as usize].prev;
            }
            backward.reverse();
            assert_eq!(&backward, want, "{name} bank {b} back links at cycle {now}");
        }
        assert_eq!(queue.hits, hits, "{name} hit counts at cycle {now}");
        assert_eq!(
            queue.occupied, occupied,
            "{name} occupied mask at cycle {now}"
        );
        assert_eq!(queue.demand, demand, "{name} demand counts at cycle {now}");
        assert_eq!(
            queue.demand_occupied, demand_occupied,
            "{name} demand mask at cycle {now}"
        );
    }
}

/// What one random run exercised, so the test can prove it is not
/// vacuous.
#[derive(Default)]
struct Coverage {
    columns: u64,
    activates: u64,
    conflict_precharges: u64,
    refreshes: u64,
    drain_flips: u64,
    coalesced: u64,
    forwarded: u64,
    promoted: u64,
    rejected: u64,
    quiet_ticks: u64,
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // xorshift64*
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Drives `cycles` of seeded random traffic through one channel,
/// checking it against the reference every cycle.
fn run_against_reference(
    spec: &MemSpec,
    policy: RowPolicy,
    interleaving: Interleaving,
    seed: u64,
    cycles: MemCycle,
    cov: &mut Coverage,
) {
    let geom = spec.geometry;
    let mapper = AddressMapper::new(geom, interleaving);
    let mut ch = Channel::new(
        geom,
        spec.timing,
        policy,
        WriteQueueConfig {
            capacity: 24,
            drain_high: 16,
            drain_low: 6,
        },
        24,
        40, // refresh falls due early and often
        true,
    );
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    // A few hot anchors: neighbours of one anchor share rows (hits) and
    // different anchors collide in banks (conflicts); re-picks make
    // write coalescing and write-to-read forwarding likely.
    let anchors: Vec<u64> = (0..12).map(|_| rng.below(1 << 22)).collect();
    let block = |rng: &mut Rng| {
        let a = anchors[rng.below(anchors.len() as u64) as usize];
        BlockAddr::from_index(a + rng.below(24))
    };
    let mut done = Vec::new();
    let mut next_id = 0u64;
    for now in 0..cycles {
        // Bursty arrivals: the rate changes every 256 cycles, so queues
        // fill, drain mode flips, and idle spans let rows go cold.
        let rate = [0, 1, 2, 4, 8][((now / 256 + seed) % 5) as usize];
        if rng.below(8) < rate {
            let b = block(&mut rng);
            let coord = mapper.decode(b);
            let txn = if rng.below(3) == 0 {
                Transaction::write(b, TrafficClass::DemandWriteback, 0)
            } else if rng.below(2) == 0 {
                Transaction::read(b, TrafficClass::Demand, 0)
            } else {
                Transaction::read(b, TrafficClass::BulkRead, 0)
            };
            let queued_write = entries(&ch.write_queue)
                .iter()
                .any(|(_, q)| q.txn.block == b);
            let coalesces = txn.is_write && queued_write;
            let forwards = !txn.is_write && ch.has_room(false) && queued_write;
            next_id += 1;
            if ch.enqueue(TransactionId(next_id), txn, coord, now) {
                cov.coalesced += u64::from(coalesces);
                cov.forwarded += u64::from(forwards);
            } else {
                cov.rejected += 1;
            }
        }
        if rng.below(16) == 0 {
            let b = block(&mut rng);
            cov.promoted += u64::from(ch.promote_to_demand(b, mapper.decode(b)));
        }
        assert_eq!(
            ch.next_event_at(now),
            next_event_at(&ch, now),
            "next_event_at at cycle {now}"
        );
        // The body of `Channel::step`, with the arbiter's choice checked
        // before it issues and the quiet horizon after.
        let drain = ch.write_drain;
        let refreshes = ch.energy.refreshes;
        ch.retire_in_flight(now, &mut done);
        ch.account_background();
        ch.update_drain_mode();
        cov.drain_flips += u64::from(ch.write_drain != drain);
        if !ch.service_refresh(now) {
            let scan = ch.scan(now);
            let want = pick(&ch, now);
            assert_eq!(ch.pick(scan.gates), want, "command at cycle {now}");
            if let Some(cmd) = want {
                let (slot, closes) = match cmd {
                    Command::Column(slot) => {
                        cov.columns += 1;
                        (slot, column_auto_precharges(&ch, slot))
                    }
                    Command::Activate(slot) => {
                        cov.activates += 1;
                        (slot, false)
                    }
                    Command::Precharge(slot) => {
                        cov.conflict_precharges += 1;
                        (slot, true)
                    }
                };
                let bank = ch.active_queue().entry(slot).bank;
                ch.issue(cmd, now);
                assert_eq!(
                    ch.banks[bank].open_row().is_none(),
                    closes,
                    "{cmd:?} left bank {bank} in the wrong state at cycle {now}"
                );
            } else {
                cov.quiet_ticks += 1;
                assert_eq!(
                    ch.quiet_horizon(scan.horizon, now + 1),
                    next_event_at(&ch, now + 1),
                    "quiet horizon at cycle {now}"
                );
            }
        }
        cov.refreshes += ch.energy.refreshes - refreshes;
        assert_index_matches_queues(&ch, now);
    }
    let errors = ch.auditor().expect("audited").errors();
    assert!(errors.is_empty(), "timing violations: {errors:?}");
}

#[test]
fn indexed_scheduler_matches_scan_reference_under_random_traffic() {
    let mut cov = Coverage::default();
    for spec in MemSpec::all() {
        for policy in [RowPolicy::Open, RowPolicy::Close] {
            for interleaving in [Interleaving::Region, Interleaving::Block] {
                for seed in 1..=2 {
                    run_against_reference(&spec, policy, interleaving, seed, 8_000, &mut cov);
                }
            }
        }
    }
    for (what, n) in [
        ("columns", cov.columns),
        ("activates", cov.activates),
        ("conflict precharges", cov.conflict_precharges),
        ("refreshes", cov.refreshes),
        ("drain-mode flips", cov.drain_flips),
        ("coalesced writes", cov.coalesced),
        ("forwarded reads", cov.forwarded),
        ("promotions", cov.promoted),
        ("full-queue rejections", cov.rejected),
        ("ticks that issue nothing", cov.quiet_ticks),
    ] {
        assert!(n > 0, "random traffic never exercised {what}");
    }
}
