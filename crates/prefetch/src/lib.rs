//! Prefetcher baselines for the BuMP comparison.
//!
//! * [`StridePrefetcher`] — the baseline systems' degree-4 stride
//!   prefetcher (paper §V.A): "predicts strided accesses if two
//!   consecutive addresses accessed are separated by the same stride,
//!   and prefetches the subsequent four cache blocks".
//! * [`SmsPrefetcher`] — Spatial Memory Streaming (Somogyi et al.,
//!   ISCA 2006), the state-of-the-art spatial footprint prefetcher the
//!   paper compares against, placed next to the LLC as in §V.A.
//!
//! The system simulator holds each engine by its concrete type. It
//! calls `on_demand_access` for every demand LLC lookup (hit or miss),
//! which appends candidate blocks to fetch, tags those fetches with
//! the engine's `traffic_class`, and tells SMS of every LLC eviction
//! through [`SmsPrefetcher::on_eviction`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod sms;
mod stride;

pub use sms::{SmsConfig, SmsPrefetcher, SmsStats};
pub use stride::{StrideConfig, StridePrefetcher};
