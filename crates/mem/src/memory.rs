//! Main memory behind the split-transaction buses.
//!
//! Combines the read and write [`Bus`]es with the 500-cycle unloaded DRAM
//! latency of §4.4. A read's completion time is
//! `max(now + latency, transfer_end)` — the data transfer is pipelined
//! under the access latency when the bus is idle, so an unloaded miss
//! completes in exactly `latency` cycles, and a loaded one is pushed out
//! by queueing on its bus.

use ebcp_types::{Cycle, MemClass};
use serde::{Deserialize, Serialize};

use crate::bus::{Bus, BusConfig, BusStats};

/// Static configuration of the memory system.
///
/// # Examples
///
/// ```
/// use ebcp_mem::MemConfig;
/// let m = MemConfig::default();
/// assert_eq!(m.latency, 500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemConfig {
    /// Unloaded access latency in core cycles (§4.4: 500).
    pub latency: Cycle,
    /// Read bus (demand fills, prefetch fills, table reads).
    pub read_bus: BusConfig,
    /// Write bus (table writes, writebacks).
    pub write_bus: BusConfig,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            latency: 500,
            read_bus: BusConfig::read_default(),
            write_bus: BusConfig::write_default(),
        }
    }
}

impl MemConfig {
    /// The Figure 8 bandwidth points: scales both buses by `num/den`
    /// relative to the default (e.g. `scaled_bandwidth(1, 3)` is the
    /// 3.2 GB/s read + 1.6 GB/s write configuration).
    #[must_use]
    pub const fn scaled_bandwidth(mut self, num: u64, den: u64) -> Self {
        self.read_bus = self.read_bus.scaled(num, den);
        self.write_bus = self.write_bus.scaled(num, den);
        self
    }
}

/// Outcome of a memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOutcome {
    /// The request was accepted; data (for reads) is available at `done`.
    Done {
        /// Completion cycle.
        done: Cycle,
    },
    /// A low-priority request was dropped because its bus is saturated.
    Dropped,
}

impl MemOutcome {
    /// The completion cycle, if the request was accepted.
    pub const fn done(self) -> Option<Cycle> {
        match self {
            MemOutcome::Done { done } => Some(done),
            MemOutcome::Dropped => None,
        }
    }
}

/// Aggregate memory-traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Read-bus statistics.
    pub read: BusStats,
    /// Write-bus statistics.
    pub write: BusStats,
}

/// The main-memory timing model.
///
/// # Examples
///
/// ```
/// use ebcp_mem::{MemConfig, MemorySystem};
/// use ebcp_types::MemClass;
///
/// let mut mem = MemorySystem::new(MemConfig::default());
/// let done = mem.request(1000, MemClass::Demand).done().unwrap();
/// assert_eq!(done, 1500); // unloaded: exactly the 500-cycle latency
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: MemConfig,
    read_bus: Bus,
    write_bus: Bus,
}

impl MemorySystem {
    /// Creates an idle memory system.
    pub fn new(config: MemConfig) -> Self {
        MemorySystem {
            config,
            read_bus: Bus::new(config.read_bus),
            write_bus: Bus::new(config.write_bus),
        }
    }

    /// This system's configuration.
    pub const fn config(&self) -> MemConfig {
        self.config
    }

    /// Issues a 64 B request of the given class at core cycle `now`.
    ///
    /// Reads (demand, prefetch, table-read) complete at
    /// `max(now + latency, transfer_end)`. Writes (table-write, writeback)
    /// complete when their wire transfer ends — nothing waits on them.
    /// Low-priority requests may be [`MemOutcome::Dropped`].
    pub fn request(&mut self, now: Cycle, class: MemClass) -> MemOutcome {
        if class.uses_read_bus() {
            match self.read_bus.request(now, class) {
                Some(grant) => MemOutcome::Done {
                    done: (now + self.config.latency).max(grant.end),
                },
                None => MemOutcome::Dropped,
            }
        } else {
            match self.write_bus.request(now, class) {
                Some(grant) => MemOutcome::Done { done: grant.end },
                None => MemOutcome::Dropped,
            }
        }
    }

    /// Read-bus backlog relative to `now` (used by prefetchers/engine to
    /// gauge saturation).
    pub fn read_backlog(&self, now: Cycle) -> Cycle {
        self.read_bus.backlog(now)
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> MemStats {
        MemStats {
            read: self.read_bus.stats(),
            write: self.write_bus.stats(),
        }
    }

    /// Read-bus utilization over `elapsed` cycles.
    pub fn read_utilization(&self, elapsed: Cycle) -> f64 {
        self.read_bus.utilization(elapsed)
    }

    /// Write-bus utilization over `elapsed` cycles.
    pub fn write_utilization(&self, elapsed: Cycle) -> f64 {
        self.write_bus.utilization(elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_read_takes_exactly_latency() {
        let mut mem = MemorySystem::new(MemConfig::default());
        assert_eq!(mem.request(0, MemClass::Demand).done(), Some(500));
        // A much later request is also unloaded again.
        assert_eq!(mem.request(10_000, MemClass::Demand).done(), Some(10_500));
    }

    #[test]
    fn loaded_read_pushed_by_bus_queueing() {
        let cfg = MemConfig::default().scaled_bandwidth(1, 3); // 60-cycle transfers
        let mut mem = MemorySystem::new(cfg);
        // 10 simultaneous demand misses: the last transfer ends at 600,
        // past the 500-cycle latency.
        let mut last = 0;
        for _ in 0..10 {
            last = mem.request(0, MemClass::Demand).done().unwrap();
        }
        assert_eq!(last, 600);
    }

    #[test]
    fn writes_complete_at_transfer_end() {
        let mut mem = MemorySystem::new(MemConfig::default());
        let done = mem.request(100, MemClass::Writeback).done().unwrap();
        assert_eq!(done, 140); // 40-cycle write-bus transfer, no DRAM latency stall
    }

    #[test]
    fn table_read_uses_read_bus_and_latency() {
        let mut mem = MemorySystem::new(MemConfig::default());
        let done = mem.request(0, MemClass::TableRead).done().unwrap();
        assert_eq!(done, 500);
        assert_eq!(mem.stats().read.transfers_for(MemClass::TableRead), 1);
    }

    #[test]
    fn saturated_prefetches_drop() {
        let mut mem = MemorySystem::new(MemConfig::default());
        let mut dropped = 0;
        for _ in 0..200 {
            if mem.request(0, MemClass::Prefetch) == MemOutcome::Dropped {
                dropped += 1;
            }
        }
        assert!(
            dropped > 0,
            "200 simultaneous prefetches must exceed the window"
        );
        assert_eq!(mem.stats().read.dropped_for(MemClass::Prefetch), dropped);
    }

    #[test]
    fn backlog_visible() {
        let mut mem = MemorySystem::new(MemConfig::default());
        for _ in 0..5 {
            mem.request(0, MemClass::Prefetch);
        }
        assert_eq!(mem.read_backlog(0), 100);
    }
}
