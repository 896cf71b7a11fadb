//! Cache hierarchy for the BuMP reproduction: a generic set-associative
//! tag store, per-core L1 data caches, and the shared banked last-level
//! cache (LLC) with MSHRs.
//!
//! The LLC is the vantage point of the whole paper: BuMP, SMS, and VWQ
//! all observe the LLC's demand-access, writeback and eviction streams. The LLC therefore
//! emits an explicit [`LlcEvent`] stream the system simulator forwards
//! to whichever mechanism is configured.
//!
//! Timing model: L1 hit latency and miss handling live in the core model
//! (`bump-cpu`); the LLC models banked occupancy (one lookup per bank
//! per cycle, 8-cycle access latency) and delayed fills (lines allocate
//! when DRAM data returns, so prefetch timeliness and overfetch are
//! measured honestly).
//!
//! # Example
//!
//! ```
//! use bump_cache::{Llc, LlcConfig};
//! use bump_types::{AccessKind, BlockAddr, MemoryRequest, Pc};
//!
//! let mut llc = Llc::new(LlcConfig::paper());
//! let req = MemoryRequest::demand(BlockAddr::from_index(3), Pc::new(0x400), AccessKind::Load, 0);
//! let outcome = llc.access(req, 0);
//! assert!(!outcome.hit, "cold cache misses");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod l1;
mod llc;
mod set_assoc;

pub use l1::{L1Cache, L1Outcome, L1Stats};
pub use llc::{
    AccessAction, AccessOutcome, ClassCounts, EvictionKind, FillOutcome, Llc, LlcConfig, LlcEvent,
    LlcStats, MshrError, Waiter,
};
pub use set_assoc::{Line, SetAssocCache};
