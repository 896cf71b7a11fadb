//! The scan-based FR-FCFS arbiter the per-bank index replaced, kept as
//! the reference the indexed scheduler must agree with, command for
//! command and horizon for horizon, under seeded random traffic.
//!
//! Both engines share [`Channel`], so engine equivalence cannot catch a
//! scheduler that drifts from FR-FCFS; this test can. Every cycle it
//! checks [`Channel::next_event_at`] and the command the arbiter picks
//! against the queue scans below, then re-counts the per-bank index
//! from the queues.

use super::*;
use crate::mapping::AddressMapper;
use bump_types::{BlockAddr, Interleaving, MemSpec, TrafficClass};

/// Whether any active-queue transaction hits bank `idx`'s open row.
fn pending_open_row_hit(ch: &Channel, idx: usize) -> bool {
    let open = ch.banks[idx].open_row();
    ch.active_queue()
        .entries
        .iter()
        .any(|q| ch.bank_index(q.coord) == idx && Some(q.coord.row) == open)
}

/// The oldest active-queue transaction satisfying `pred`, giving demand
/// traffic priority over speculative traffic.
fn first_with_demand_priority(ch: &Channel, pred: impl Fn(&Queued) -> bool) -> Option<usize> {
    let mut any = None;
    for (i, q) in ch.active_queue().entries.iter().enumerate() {
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

fn find_ready_column(ch: &Channel, now: MemCycle) -> Option<usize> {
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

fn find_activatable(ch: &Channel, now: MemCycle) -> Option<usize> {
    first_with_demand_priority(ch, |q| {
        ch.banks[ch.bank_index(q.coord)].can_activate(now)
            && ch.ranks[q.coord.rank as usize].can_activate(now, &ch.timing)
    })
}

fn find_prechargeable(ch: &Channel, now: MemCycle) -> Option<usize> {
    ch.active_queue().entries.iter().position(|q| {
        let idx = ch.bank_index(q.coord);
        let bank = &ch.banks[idx];
        match bank.open_row() {
            Some(open) if open != q.coord.row => {
                !pending_open_row_hit(ch, idx) && bank.can_precharge(now)
            }
            _ => false,
        }
    })
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

/// Whether the column serving active-queue entry `pos` auto-precharges:
/// under the close-row policy, when no other queued transaction (either
/// queue) targets the same bank and row.
fn column_auto_precharges(ch: &Channel, pos: usize) -> bool {
    let target = &ch.active_queue().entries[pos];
    let same = |q: &Queued| {
        q.id != target.id
            && q.coord.rank == target.coord.rank
            && q.coord.bank == target.coord.bank
            && q.coord.row == target.coord.row
    };
    ch.policy == RowPolicy::Close
        && !ch.read_queue.entries.iter().any(same)
        && !ch.write_queue.entries.iter().any(same)
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
        None => bank
            .earliest_activate()
            .max(rank.earliest_activate(&ch.timing)),
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
    for q in &ch.active_queue().entries {
        t = t.min(earliest_possible_issue(ch, q, ch.write_drain));
    }
    t.max(now)
}

/// Re-counts both queues' per-bank index from their entries.
fn assert_index_matches_queues(ch: &Channel, now: MemCycle) {
    for (name, queue) in [("read", &ch.read_queue), ("write", &ch.write_queue)] {
        let mut queued = vec![0u32; ch.banks.len()];
        let mut hits = vec![0u32; ch.banks.len()];
        let mut occupied = 0u64;
        let mut demand = vec![0u32; ch.banks.len()];
        let mut demand_occupied = 0u64;
        for q in &queue.entries {
            assert_eq!(q.bank, ch.bank_index(q.coord), "stored bank index");
            queued[q.bank] += 1;
            hits[q.bank] += u32::from(ch.banks[q.bank].open_row() == Some(q.coord.row));
            occupied |= 1 << q.bank;
            if !q.txn.class.is_speculative() {
                demand[q.bank] += 1;
                demand_occupied |= 1 << q.bank;
            }
        }
        assert_eq!(queue.queued, queued, "{name} queued counts at cycle {now}");
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
            let coalesces = txn.is_write && ch.write_queue.entries.iter().any(|q| q.txn.block == b);
            let forwards = !txn.is_write
                && ch.has_room(false)
                && ch.write_queue.entries.iter().any(|q| q.txn.block == b);
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
            cov.promoted += u64::from(ch.promote_to_demand(b));
        }
        assert_eq!(
            ch.next_event_at(now),
            next_event_at(&ch, now),
            "next_event_at at cycle {now}"
        );
        // The body of `Channel::tick`, with the arbiter's choice checked
        // before it issues.
        let drain = ch.write_drain;
        let refreshes = ch.energy.refreshes;
        ch.retire_in_flight(now, &mut done);
        ch.account_background(now);
        ch.update_drain_mode();
        cov.drain_flips += u64::from(ch.write_drain != drain);
        if !ch.service_refresh(now) {
            let want = pick(&ch, now);
            assert_eq!(ch.pick(now), want, "command at cycle {now}");
            if let Some(cmd) = want {
                let (pos, closes) = match cmd {
                    Command::Column(pos) => {
                        cov.columns += 1;
                        (pos, column_auto_precharges(&ch, pos))
                    }
                    Command::Activate(pos) => {
                        cov.activates += 1;
                        (pos, false)
                    }
                    Command::Precharge(pos) => {
                        cov.conflict_precharges += 1;
                        (pos, true)
                    }
                };
                let bank = ch.active_queue().entries[pos].bank;
                ch.issue(cmd, now);
                assert_eq!(
                    ch.banks[bank].open_row().is_none(),
                    closes,
                    "{cmd:?} left bank {bank} in the wrong state at cycle {now}"
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
    ] {
        assert!(n > 0, "random traffic never exercised {what}");
    }
}
