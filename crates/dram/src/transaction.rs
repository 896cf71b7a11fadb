//! Memory transactions: block-granular reads and writes queued at the
//! memory controller.

use bump_types::{BlockAddr, CoreId, MemCycle, TrafficClass};

/// Unique identifier of a transaction, assigned at enqueue time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransactionId(pub u64);

/// A block-granular memory transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// The cache block being transferred.
    pub block: BlockAddr,
    /// Whether this moves data toward DRAM (a writeback).
    pub is_write: bool,
    /// Who injected the request (demand, prefetcher, BuMP, writeback…).
    pub class: TrafficClass,
    /// Core responsible for the request.
    pub core: CoreId,
}

impl Transaction {
    /// A DRAM read of `block` on behalf of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is a write class.
    pub fn read(block: BlockAddr, class: TrafficClass, core: CoreId) -> Self {
        assert!(
            class.is_read(),
            "read transaction with write class {class:?}"
        );
        Transaction {
            block,
            is_write: false,
            class,
            core,
        }
    }

    /// A DRAM write (writeback) of `block` on behalf of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is a read class.
    pub fn write(block: BlockAddr, class: TrafficClass, core: CoreId) -> Self {
        assert!(
            class.is_write(),
            "write transaction with read class {class:?}"
        );
        Transaction {
            block,
            is_write: true,
            class,
            core,
        }
    }
}

/// A transaction the controller has finished servicing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// Identifier the controller assigned when it admitted the
    /// transaction into its channel's queue.
    pub id: TransactionId,
    /// The original transaction.
    pub txn: Transaction,
    /// Cycle the transaction was admitted into its channel's queue; a
    /// wait in the controller's backlog before that is not counted.
    pub enqueued_at: MemCycle,
    /// Cycle the data burst finished on the bus.
    pub done_at: MemCycle,
    /// Whether the access was served from an already-open row.
    pub row_hit: bool,
    /// Whether serving it required closing a different open row first.
    pub row_conflict: bool,
}

impl Completion {
    /// Queueing + service latency in memory cycles.
    pub fn latency(&self) -> MemCycle {
        self.done_at - self.enqueued_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_constructors_enforce_class() {
        let b = BlockAddr::from_index(1);
        let r = Transaction::read(b, TrafficClass::Demand, 0);
        assert!(!r.is_write);
        let w = Transaction::write(b, TrafficClass::DemandWriteback, 0);
        assert!(w.is_write);
    }

    #[test]
    #[should_panic(expected = "write class")]
    fn read_rejects_writeback_class() {
        Transaction::read(BlockAddr::from_index(0), TrafficClass::DemandWriteback, 0);
    }

    #[test]
    #[should_panic(expected = "read class")]
    fn write_rejects_demand_class() {
        Transaction::write(BlockAddr::from_index(0), TrafficClass::Demand, 0);
    }
}
