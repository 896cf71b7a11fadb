//! Per-bank and per-rank DDR3 timing state.
//!
//! A [`Bank`] tracks its open row and the earliest cycle at which each
//! command class may legally issue; a [`RankTimer`] tracks rank-wide
//! constraints (tRRD, tFAW, tWTR, refresh). The scheduler in
//! [`crate::channel`] consults both before issuing any command.

use bump_types::{DramTiming, MemCycle};

/// DDR3 command classes the model issues.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// Open a row (copy it into the row buffer).
    Activate,
    /// Column read burst from the open row.
    Read,
    /// Column read burst with auto-precharge.
    ReadAuto,
    /// Column write burst into the open row.
    Write,
    /// Column write burst with auto-precharge.
    WriteAuto,
    /// Close the open row.
    Precharge,
    /// Rank-wide refresh.
    Refresh,
}

impl CommandKind {
    /// Whether this column command moves data toward DRAM.
    pub fn is_write_column(self) -> bool {
        matches!(self, CommandKind::Write | CommandKind::WriteAuto)
    }
}

/// Observable state of a bank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BankState {
    /// All rows closed.
    Precharged,
    /// A row is open in the row buffer.
    Active {
        /// The open row.
        row: u64,
    },
}

/// One DRAM bank: open-row bookkeeping plus earliest-issue times for
/// each command class.
#[derive(Clone, Debug)]
pub struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle an ACT may issue (tRC after previous ACT, tRP
    /// after a precharge, tRFC after refresh).
    earliest_act: MemCycle,
    /// Earliest cycle a column command may issue to the open row (tRCD).
    earliest_col: MemCycle,
    /// Earliest cycle a PRE may issue (tRAS after ACT, tRTP after READ,
    /// write-recovery tWR after a write burst).
    earliest_pre: MemCycle,
    /// Cycle of the last ACT, for tRC accounting.
    last_act: Option<MemCycle>,
}

impl Default for Bank {
    fn default() -> Self {
        Bank::new()
    }
}

impl Bank {
    /// A freshly initialized (precharged) bank.
    pub fn new() -> Self {
        Bank {
            open_row: None,
            earliest_act: 0,
            earliest_col: 0,
            earliest_pre: 0,
            last_act: None,
        }
    }

    /// Current observable state.
    pub fn state(&self) -> BankState {
        match self.open_row {
            Some(row) => BankState::Active { row },
            None => BankState::Precharged,
        }
    }

    /// The row currently held in the row buffer, if any.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Whether an ACT command may issue at `now` (bank-local constraints
    /// only; the rank's tRRD/tFAW are checked by the rank timer).
    pub fn can_activate(&self, now: MemCycle) -> bool {
        self.open_row.is_none() && now >= self.earliest_act
    }

    /// Issues an ACT for `row` at `now`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the activation is not legal at `now`.
    pub fn activate(&mut self, now: MemCycle, row: u64, t: &DramTiming) {
        debug_assert!(self.can_activate(now), "illegal ACT at {now}");
        self.open_row = Some(row);
        self.earliest_col = now + t.t_rcd;
        self.earliest_pre = now + t.t_ras;
        self.earliest_act = now + t.t_rc;
        self.last_act = Some(now);
    }

    /// Whether a column command for `row` may issue at `now`
    /// (bank-local constraints only).
    pub fn can_column(&self, now: MemCycle, row: u64) -> bool {
        self.open_row == Some(row) && now >= self.earliest_col
    }

    /// Issues a read burst at `now`; returns the cycle the data burst
    /// finishes on the bus. With `auto`, the row auto-precharges.
    pub fn read(&mut self, now: MemCycle, t: &DramTiming, auto: bool) -> MemCycle {
        debug_assert!(
            self.open_row.is_some() && now >= self.earliest_col,
            "illegal READ at {now}"
        );
        let data_end = now + t.t_cas + t.t_burst;
        self.earliest_pre = self.earliest_pre.max(now + t.t_rtp);
        if auto {
            self.auto_precharge(t);
        }
        data_end
    }

    /// Issues a write burst at `now`; returns the cycle the data burst
    /// finishes on the bus. With `auto`, the row auto-precharges.
    pub fn write(&mut self, now: MemCycle, t: &DramTiming, auto: bool) -> MemCycle {
        debug_assert!(
            self.open_row.is_some() && now >= self.earliest_col,
            "illegal WRITE at {now}"
        );
        let data_end = now + t.cwl() + t.t_burst;
        self.earliest_pre = self.earliest_pre.max(data_end + t.t_wr);
        if auto {
            self.auto_precharge(t);
        }
        data_end
    }

    /// Whether a PRE may issue at `now`.
    pub fn can_precharge(&self, now: MemCycle) -> bool {
        self.open_row.is_some() && now >= self.earliest_pre
    }

    /// Issues a PRE at `now`.
    pub fn precharge(&mut self, now: MemCycle, t: &DramTiming) {
        debug_assert!(self.can_precharge(now), "illegal PRE at {now}");
        self.open_row = None;
        self.earliest_act = self.earliest_act.max(now + t.t_rp);
    }

    /// Closes the row as part of an auto-precharging column command. The
    /// internal precharge starts once tRAS/tRTP/tWR allow and takes tRP.
    fn auto_precharge(&mut self, t: &DramTiming) {
        let pre_start = self.earliest_pre;
        self.open_row = None;
        self.earliest_act = self.earliest_act.max(pre_start + t.t_rp);
    }

    /// Forces the bank precharged for a refresh (caller guarantees the
    /// row is already closed) and blocks activates until `ready`.
    pub fn refresh_until(&mut self, ready: MemCycle) {
        debug_assert!(self.open_row.is_none(), "refresh with open row");
        self.earliest_act = self.earliest_act.max(ready);
    }

    /// Earliest cycle an ACT could legally issue (bank-local constraints
    /// only). Used by the event-driven scheduler horizon.
    pub fn earliest_activate(&self) -> MemCycle {
        self.earliest_act
    }

    /// Earliest cycle a column command to the open row could legally
    /// issue (bank-local constraints only).
    pub fn earliest_column(&self) -> MemCycle {
        self.earliest_col
    }

    /// Earliest cycle a PRE could legally issue.
    pub fn earliest_precharge(&self) -> MemCycle {
        self.earliest_pre
    }
}

/// Rank-wide timing constraints: tRRD, the four-activate window, the
/// write-to-read turnaround, and refresh scheduling.
#[derive(Clone, Debug)]
pub struct RankTimer {
    /// Issue times of the last four ACTs for tFAW, a ring whose oldest
    /// entry is at `act_next` once `acts` reaches 4.
    act_window: [MemCycle; 4],
    act_next: usize,
    acts: u32,
    /// Earliest next ACT due to tRRD.
    earliest_act: MemCycle,
    /// Earliest next ACT due to tRRD and tFAW together, kept at each
    /// ACT so the scheduler reads one field.
    act_ready: MemCycle,
    /// Earliest read column command due to tWTR after a write burst.
    earliest_read_col: MemCycle,
    /// When the next refresh falls due.
    refresh_due: MemCycle,
    /// Refresh in progress until this cycle.
    refresh_until: Option<MemCycle>,
    /// Number of banks currently holding an open row (kept by the
    /// channel; used for O(1) background-energy classification).
    pub open_banks: u32,
}

impl RankTimer {
    /// Creates a rank timer whose first refresh falls due at
    /// `first_refresh` (staggered across ranks by the channel).
    pub fn new(first_refresh: MemCycle) -> Self {
        RankTimer {
            act_window: [0; 4],
            act_next: 0,
            acts: 0,
            earliest_act: 0,
            act_ready: 0,
            earliest_read_col: 0,
            refresh_due: first_refresh,
            refresh_until: None,
            open_banks: 0,
        }
    }

    /// Whether rank-level constraints allow an ACT at `now`. The
    /// scheduler's scan reads the same gate as thresholds
    /// ([`RankTimer::earliest_activate`] and the refresh state); this
    /// predicate is the reference its tests check them against.
    #[cfg(test)]
    pub fn can_activate(&self, now: MemCycle) -> bool {
        now >= self.act_ready && !self.refreshing(now) && !self.refresh_pending(now)
    }

    /// Records an ACT at `now`.
    pub fn record_activate(&mut self, now: MemCycle, t: &DramTiming) {
        self.act_window[self.act_next] = now;
        self.act_next = (self.act_next + 1) % 4;
        self.acts = (self.acts + 1).min(4);
        self.earliest_act = self.earliest_act.max(now + t.t_rrd);
        self.act_ready = if self.acts == 4 {
            // A fifth ACT must be at least tFAW after the fourth-last.
            self.earliest_act
                .max(self.act_window[self.act_next] + t.t_faw)
        } else {
            self.earliest_act
        };
    }

    /// Whether rank-level constraints allow a read column command at `now`.
    #[cfg(test)]
    pub fn can_read_col(&self, now: MemCycle) -> bool {
        now >= self.earliest_read_col && !self.refreshing(now)
    }

    /// Whether a write column command may issue at `now`.
    #[cfg(test)]
    pub fn can_write_col(&self, now: MemCycle) -> bool {
        !self.refreshing(now)
    }

    /// Records a write burst ending at `data_end` (arms tWTR).
    pub fn record_write_burst(&mut self, data_end: MemCycle, t: &DramTiming) {
        self.earliest_read_col = self.earliest_read_col.max(data_end + t.t_wtr);
    }

    /// Whether a refresh has fallen due (and not yet been issued).
    pub fn refresh_pending(&self, now: MemCycle) -> bool {
        self.refresh_until.is_none() && now >= self.refresh_due
    }

    /// Whether the rank is mid-refresh at `now`.
    pub fn refreshing(&self, now: MemCycle) -> bool {
        matches!(self.refresh_until, Some(until) if now < until)
    }

    /// Issues the refresh at `now` (all banks must be precharged);
    /// returns the cycle the rank becomes usable again.
    pub fn start_refresh(&mut self, now: MemCycle, t: &DramTiming) -> MemCycle {
        debug_assert!(self.refresh_pending(now), "no refresh pending");
        let done = now + t.rfc();
        self.refresh_until = Some(done);
        self.refresh_due += t.refi();
        done
    }

    /// Clears the in-progress marker once a refresh has completed.
    pub fn finish_refresh(&mut self, now: MemCycle) {
        if matches!(self.refresh_until, Some(until) if now >= until) {
            self.refresh_until = None;
        }
    }

    /// When the next refresh falls due (the rank-wide periodic event).
    pub fn refresh_due(&self) -> MemCycle {
        self.refresh_due
    }

    /// The cycle an in-progress refresh completes, if one is running.
    pub fn refresh_until(&self) -> Option<MemCycle> {
        self.refresh_until
    }

    /// Earliest cycle an ACT could legally issue under rank-level tRRD
    /// and tFAW constraints (refresh windows are accounted separately by
    /// the caller).
    pub fn earliest_activate(&self) -> MemCycle {
        self.act_ready
    }

    /// Earliest cycle a read column command could issue under tWTR.
    pub fn earliest_read_column(&self) -> MemCycle {
        self.earliest_read_col
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTiming {
        bump_types::MemSpec::ddr3_1600().timing
    }

    #[test]
    fn activate_then_column_waits_trcd() {
        let t = t();
        let mut b = Bank::new();
        b.activate(0, 7, &t);
        assert!(!b.can_column(t.t_rcd - 1, 7));
        assert!(b.can_column(t.t_rcd, 7));
        assert!(
            !b.can_column(t.t_rcd, 8),
            "wrong row must not be accessible"
        );
    }

    #[test]
    fn precharge_waits_tras() {
        let t = t();
        let mut b = Bank::new();
        b.activate(0, 7, &t);
        assert!(!b.can_precharge(t.t_ras - 1));
        assert!(b.can_precharge(t.t_ras));
    }

    #[test]
    fn act_to_act_waits_trc() {
        let t = t();
        let mut b = Bank::new();
        b.activate(0, 7, &t);
        b.precharge(t.t_ras, &t);
        // tRC (39) dominates tRAS+tRP (28+11=39) here; both bind.
        assert!(!b.can_activate(t.t_rc - 1));
        assert!(b.can_activate(t.t_rc));
    }

    #[test]
    fn read_data_timing() {
        let t = t();
        let mut b = Bank::new();
        b.activate(0, 3, &t);
        let end = b.read(t.t_rcd, &t, false);
        assert_eq!(end, t.t_rcd + t.t_cas + t.t_burst);
        assert_eq!(b.open_row(), Some(3), "open policy keeps the row");
    }

    #[test]
    fn write_arms_write_recovery() {
        let t = t();
        let mut b = Bank::new();
        b.activate(0, 3, &t);
        let end = b.write(t.t_rcd, &t, false);
        assert!(!b.can_precharge(end + t.t_wr - 1));
        assert!(b.can_precharge(end + t.t_wr));
    }

    #[test]
    fn auto_precharge_closes_row_and_blocks_act() {
        let t = t();
        let mut b = Bank::new();
        b.activate(0, 3, &t);
        b.read(t.t_rcd, &t, true);
        assert_eq!(b.open_row(), None);
        // Internal precharge starts at earliest_pre = max(tRAS, rd+tRTP).
        let pre_start = t.t_ras.max(t.t_rcd + t.t_rtp);
        assert!(!b.can_activate(pre_start + t.t_rp - 1));
        assert!(b.can_activate(t.t_rc.max(pre_start + t.t_rp)));
    }

    #[test]
    fn rank_trrd_spacing() {
        let t = t();
        let mut r = RankTimer::new(1_000_000);
        assert!(r.can_activate(0));
        r.record_activate(0, &t);
        assert!(!r.can_activate(t.t_rrd - 1));
        assert!(r.can_activate(t.t_rrd));
    }

    #[test]
    fn rank_tfaw_limits_four_activates() {
        let t = t();
        let mut r = RankTimer::new(1_000_000);
        let mut now = 0;
        for _ in 0..4 {
            assert!(r.can_activate(now));
            r.record_activate(now, &t);
            now += t.t_rrd;
        }
        // Fifth ACT must wait until tFAW after the first.
        assert!(!r.can_activate(now));
        assert!(r.can_activate(t.t_faw));
    }

    #[test]
    fn write_to_read_turnaround() {
        let t = t();
        let mut r = RankTimer::new(1_000_000);
        r.record_write_burst(100, &t);
        assert!(!r.can_read_col(100 + t.t_wtr - 1));
        assert!(r.can_read_col(100 + t.t_wtr));
        // Writes are unaffected by tWTR.
        assert!(r.can_write_col(100));
    }

    #[test]
    fn refresh_cycle() {
        let t = t();
        let mut r = RankTimer::new(10);
        assert!(!r.refresh_pending(9));
        assert!(r.refresh_pending(10));
        let done = r.start_refresh(10, &t);
        assert_eq!(done, 10 + t.rfc());
        assert!(r.refreshing(done - 1));
        assert!(!r.can_activate(done - 1));
        r.finish_refresh(done);
        assert!(!r.refreshing(done));
        assert!(r.can_activate(done));
        // Next refresh re-armed one tREFI later.
        assert!(!r.refresh_pending(done));
        assert!(r.refresh_pending(10 + t.refi()));
    }
}
