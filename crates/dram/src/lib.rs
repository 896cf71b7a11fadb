//! Cycle-level DDR3 main-memory model for the BuMP reproduction.
//!
//! This crate is the stand-in for the paper's DRAMSim2 substrate. It
//! models channels, ranks, and banks with the full DDR3-1600 timing set
//! from Table II of the paper (tCAS/tRCD/tRP/tRAS/tRC/tWR/tWTR/tRTP/
//! tRRD/tFAW plus burst occupancy and refresh), FR-FCFS scheduling with
//! open- and close-row policies, block- and region-level address
//! interleaving, a drained write queue, and per-event energy counters
//! that feed the Micron-derived energy model (Table III).
//!
//! The controller runs in the memory-bus clock domain; the system
//! simulator converts CPU cycles with [`bump_types::DramTiming`].
//!
//! # Example
//!
//! ```
//! use bump_dram::{DramConfig, MemoryController, Transaction};
//! use bump_types::{BlockAddr, TrafficClass};
//!
//! let mut mc = MemoryController::new(DramConfig::paper_open_row());
//! let txn = Transaction::read(BlockAddr::from_index(42), TrafficClass::Demand, 0);
//! mc.submit(txn);
//! let mut done = Vec::new();
//! for cycle in 0..200 {
//!     mc.drain(cycle);
//!     mc.tick(cycle, &mut done);
//! }
//! assert_eq!(done.len(), 1, "single read completes within 200 mem cycles");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod audit;
mod bank;
mod channel;
mod controller;
mod energy;
mod mapping;
mod transaction;

pub use audit::{AuditError, CommandRecord, TimingAuditor};
pub use bank::{Bank, BankState, CommandKind};
pub use channel::{Channel, RowPolicy, WriteQueueConfig};
pub use controller::{DramConfig, DramStats, DramWork, MemoryController};
pub use energy::{DramEnergyBreakdown, DramEnergyCounters, DramEnergyParams};
pub use mapping::{AddressMapper, DramCoord};
pub use transaction::{Completion, Transaction, TransactionId};
