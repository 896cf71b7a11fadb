//! Crossbar network-on-chip model: fixed latency plus traffic and
//! energy accounting.
//!
//! The paper's chip uses a 16×8 crossbar with a 5-cycle traversal
//! (Table II) whose bandwidth is never the bottleneck (§V.F: "the NOC
//! bandwidth utilization is low; the extra traffic is absorbed").
//! What *does* matter for the evaluation is Figure 12's NOC traffic and
//! energy overhead of BuMP: L1→LLC requests grow by the carried PC,
//! LLC streams are forwarded to BuMP, and BuMP injects bulk requests.
//! This model therefore charges a fixed latency per traversal and keeps
//! byte-accurate traffic counters per message category.
//!
//! # Example
//!
//! ```
//! use bump_noc::{MessageKind, Noc};
//!
//! let mut noc = Noc::paper();
//! let arrival = noc.send(MessageKind::Request, 0);
//! assert_eq!(arrival, 5);
//! assert_eq!(noc.stats().messages, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod delivery;

pub use delivery::DeliveryQueue;

use bump_types::Cycle;

/// Categories of NOC messages, used for the Figure 12 accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// A request header (L1 miss or writeback address to the LLC).
    Request,
    /// The PC rider BuMP adds to L1→LLC requests (half of its NOC
    /// energy overhead per §V.F).
    PcOverhead,
    /// A 64-byte data transfer (fill response or writeback payload).
    Data,
    /// LLC access/eviction stream forwarded to the BuMP unit.
    BumpMonitor,
    /// Bulk access/writeback requests generated by BuMP toward the LLC.
    BumpCommand,
}

impl MessageKind {
    /// Payload size in bytes for this message category.
    pub fn bytes(self) -> u64 {
        match self {
            MessageKind::Request => 16,
            MessageKind::PcOverhead => 8,
            MessageKind::Data => 80, // 64B payload + 16B header
            MessageKind::BumpMonitor => 16,
            MessageKind::BumpCommand => 16,
        }
    }
}

/// NOC traffic statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NocStats {
    /// Messages sent.
    pub messages: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Bytes in request headers.
    pub request_bytes: u64,
    /// Bytes added by carrying PCs.
    pub pc_bytes: u64,
    /// Bytes of data payloads.
    pub data_bytes: u64,
    /// Bytes of LLC→BuMP monitoring traffic.
    pub monitor_bytes: u64,
    /// Bytes of BuMP→LLC command traffic.
    pub command_bytes: u64,
}

/// The crossbar NOC.
#[derive(Clone, Debug)]
pub struct Noc {
    latency: Cycle,
    stats: NocStats,
}

impl Noc {
    /// Creates a NOC with the given one-way latency.
    pub fn new(latency: Cycle) -> Self {
        Noc {
            latency,
            stats: NocStats::default(),
        }
    }

    /// The paper's crossbar: 5-cycle traversal.
    pub fn paper() -> Self {
        Noc::new(5)
    }

    /// One-way traversal latency.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Records a message of `kind` sent at `now`; returns its arrival
    /// cycle.
    pub fn send(&mut self, kind: MessageKind, now: Cycle) -> Cycle {
        let bytes = kind.bytes();
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        match kind {
            MessageKind::Request => self.stats.request_bytes += bytes,
            MessageKind::PcOverhead => self.stats.pc_bytes += bytes,
            MessageKind::Data => self.stats.data_bytes += bytes,
            MessageKind::BumpMonitor => self.stats.monitor_bytes += bytes,
            MessageKind::BumpCommand => self.stats.command_bytes += bytes,
        }
        now + self.latency
    }

    /// Records `count` messages of `kind` all sent at `now`; returns
    /// their common arrival cycle. One bulk stats update replaces
    /// `count` calls to [`Noc::send`] — the crossbar is a fixed-latency
    /// pipe, so same-cycle messages of one kind are indistinguishable.
    pub fn send_many(&mut self, kind: MessageKind, count: u64, now: Cycle) -> Cycle {
        let bytes = kind.bytes() * count;
        self.stats.messages += count;
        self.stats.bytes += bytes;
        match kind {
            MessageKind::Request => self.stats.request_bytes += bytes,
            MessageKind::PcOverhead => self.stats.pc_bytes += bytes,
            MessageKind::Data => self.stats.data_bytes += bytes,
            MessageKind::BumpMonitor => self.stats.monitor_bytes += bytes,
            MessageKind::BumpCommand => self.stats.command_bytes += bytes,
        }
        now + self.latency
    }

    /// Statistics so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Zeroes the statistics (used at the warmup/measurement boundary).
    pub fn reset_stats(&mut self) {
        self.stats = NocStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_charges_latency_and_bytes() {
        let mut noc = Noc::paper();
        assert_eq!(noc.send(MessageKind::Data, 10), 15);
        assert_eq!(noc.stats().bytes, 80);
        assert_eq!(noc.stats().data_bytes, 80);
    }

    #[test]
    fn categories_accumulate_separately() {
        let mut noc = Noc::paper();
        noc.send(MessageKind::Request, 0);
        noc.send(MessageKind::PcOverhead, 0);
        noc.send(MessageKind::BumpMonitor, 0);
        noc.send(MessageKind::BumpCommand, 0);
        let s = noc.stats();
        assert_eq!(s.messages, 4);
        assert_eq!(s.request_bytes, 16);
        assert_eq!(s.pc_bytes, 8);
        assert_eq!(s.monitor_bytes, 16);
        assert_eq!(s.command_bytes, 16);
        assert_eq!(s.bytes, 56);
    }

    #[test]
    fn pc_overhead_is_smaller_than_data() {
        assert!(MessageKind::PcOverhead.bytes() < MessageKind::Data.bytes());
    }

    #[test]
    fn send_many_matches_repeated_send() {
        let mut bulk = Noc::paper();
        let mut serial = Noc::paper();
        assert_eq!(
            bulk.send_many(MessageKind::Data, 3, 10),
            (0..3)
                .map(|_| serial.send(MessageKind::Data, 10))
                .last()
                .unwrap()
        );
        assert_eq!(bulk.stats(), serial.stats());
    }
}
