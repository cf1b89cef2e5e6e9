//! Memory-hierarchy substrate for the EBCP reproduction.
//!
//! This crate provides every storage and timing component of the simulated
//! machine below the core:
//!
//! * [`SetAssocCache`] — parametric set-associative caches with LRU
//!   replacement and dirty-line tracking (used for L1I, L1D and L2).
//! * [`MshrFile`] — miss status holding registers with primary/secondary
//!   miss merging, bounding outstanding off-chip accesses.
//! * [`PrefetchBuffer`] — the small 4-way set-associative buffer that all
//!   prefetchers in the paper's evaluation deposit lines into; it is
//!   searched in parallel with the L2 and lines are promoted to the
//!   regular caches only on a demand hit (§5.2).
//! * [`Bus`] and [`MemorySystem`] — the split-transaction read/write buses
//!   (9.6 GB/s + 4.8 GB/s by default) and the 500-cycle main memory behind
//!   them, with the paper's strict priority rule: demand accesses are
//!   never delayed by prefetches or correlation-table traffic (§3.4.4),
//!   and low-priority requests are dropped when the bus saturates.
//!
//! # Examples
//!
//! ```
//! use ebcp_mem::{CacheGeometry, SetAssocCache};
//! use ebcp_types::LineAddr;
//!
//! // The default 2 MB 4-way L2.
//! let mut l2 = SetAssocCache::new(CacheGeometry::new(2 << 20, 4));
//! let line = LineAddr::from_index(0x1234);
//! assert!(!l2.access(line));
//! l2.fill(line, false);
//! assert!(l2.access(line));
//! ```

pub mod bus;
pub mod cache;
pub mod memory;
pub mod mshr;
pub mod prefetch_buffer;
mod simd;

pub use bus::{Bus, BusConfig, BusStats};
pub use cache::{CacheGeometry, Eviction, SetAssocCache};
pub use memory::{MemConfig, MemOutcome, MemStats, MemorySystem};
pub use mshr::{MshrFile, MshrOutcome};
pub use prefetch_buffer::{PrefetchBuffer, PrefetchBufferStats};
