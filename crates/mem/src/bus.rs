//! Split-transaction bus model with strict demand priority.
//!
//! §4.4 of the paper: a 600 MHz interconnect with a 16 B read bus
//! (9.6 GB/s) and an 8 B write bus (4.8 GB/s) behind a 3 GHz core. One
//! 64 B line therefore occupies the read bus for 4 bus cycles = 20 core
//! cycles, and the write bus for 8 bus cycles = 40 core cycles.
//!
//! §3.4.4 / §4.4 priority rule: *demand accesses are never delayed by
//! prefetches or correlation-table traffic*. The model realises this with
//! **dual timelines**:
//!
//! * `next_free_demand` — a timeline containing only demand transfers.
//!   Demand requests are granted against it, so a backlog of low-priority
//!   traffic can never delay them (ideal preemption).
//! * `next_free_any` — the union timeline carrying all traffic. Demand
//!   transfers push it too (they really do consume the wire); low-priority
//!   requests are granted against it, and are **dropped** when the backlog
//!   exceeds a saturation window — this is how "prefetches may sometimes
//!   be dropped when the available memory bandwidth is saturated" (§5.2.1)
//!   comes about.

use ebcp_types::{Cycle, MemClass, LINE_BYTES};
use serde::{Deserialize, Serialize};

/// Static configuration of one bus.
///
/// # Examples
///
/// ```
/// use ebcp_mem::BusConfig;
/// let read = BusConfig::read_default(); // 16 B @ 600 MHz behind 3 GHz
/// assert_eq!(read.line_transfer_cycles(), 20);
/// assert!((read.bandwidth_gbps(3.0e9) - 9.6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusConfig {
    /// Bus width in bytes per bus cycle.
    pub width_bytes: u64,
    /// Core cycles per bus cycle (core clock / bus clock).
    pub core_cycles_per_bus_cycle: u64,
    /// Backlog (in core cycles) beyond which low-priority requests are
    /// dropped instead of queued.
    pub saturation_window: Cycle,
}

impl BusConfig {
    /// The default 9.6 GB/s read bus (16 B wide, 600 MHz, 3 GHz core).
    pub const fn read_default() -> Self {
        BusConfig {
            width_bytes: 16,
            core_cycles_per_bus_cycle: 5,
            saturation_window: 2000,
        }
    }

    /// The default 4.8 GB/s write bus (8 B wide, 600 MHz, 3 GHz core).
    pub const fn write_default() -> Self {
        BusConfig {
            width_bytes: 8,
            core_cycles_per_bus_cycle: 5,
            saturation_window: 2000,
        }
    }

    /// A bus with `factor`× the default width's bandwidth (used for the
    /// Figure 8 sweep: 3.2/6.4/9.6 GB/s read buses are modelled by
    /// scaling the transfer time).
    #[must_use]
    pub const fn scaled(self, num: u64, den: u64) -> Self {
        // Scale bandwidth by num/den by scaling cycles-per-bus-cycle the
        // other way; keep integer math by scaling width instead.
        BusConfig {
            width_bytes: self.width_bytes * num,
            core_cycles_per_bus_cycle: self.core_cycles_per_bus_cycle * den,
            saturation_window: self.saturation_window,
        }
    }

    /// Core cycles one 64 B line transfer occupies this bus.
    pub const fn line_transfer_cycles(self) -> Cycle {
        // ceil(LINE_BYTES / width) * ratio
        LINE_BYTES.div_ceil(self.width_bytes) * self.core_cycles_per_bus_cycle
    }

    /// Peak bandwidth in GB/s given the core frequency in Hz.
    pub fn bandwidth_gbps(self, core_hz: f64) -> f64 {
        let bytes_per_core_cycle = self.width_bytes as f64 / self.core_cycles_per_bus_cycle as f64;
        bytes_per_core_cycle * core_hz / 1e9
    }
}

/// Traffic statistics of one bus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusStats {
    /// Transfers granted, indexed by [`MemClass`] discriminant order
    /// (demand, prefetch, table-read, table-write, writeback).
    pub transfers: [u64; 5],
    /// Low-priority requests dropped due to saturation.
    pub dropped: [u64; 5],
    /// Core cycles of wire occupancy, per class.
    pub busy_cycles: [u64; 5],
}

impl BusStats {
    fn class_idx(class: MemClass) -> usize {
        MemClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("class in ALL")
    }

    /// Transfers granted for `class`.
    pub fn transfers_for(&self, class: MemClass) -> u64 {
        self.transfers[Self::class_idx(class)]
    }

    /// Requests dropped for `class`.
    pub fn dropped_for(&self, class: MemClass) -> u64 {
        self.dropped[Self::class_idx(class)]
    }

    /// Wire occupancy for `class`, in core cycles.
    pub fn busy_for(&self, class: MemClass) -> u64 {
        self.busy_cycles[Self::class_idx(class)]
    }

    /// Total wire occupancy in core cycles.
    pub fn busy_total(&self) -> u64 {
        self.busy_cycles.iter().sum()
    }
}

/// A granted bus transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Core cycle the transfer starts.
    pub start: Cycle,
    /// Core cycle the transfer ends (wire released).
    pub end: Cycle,
}

/// One split-transaction bus with the dual-timeline priority model.
///
/// # Examples
///
/// ```
/// use ebcp_mem::{Bus, BusConfig};
/// use ebcp_types::MemClass;
///
/// let mut bus = Bus::new(BusConfig::read_default());
/// let g = bus.request(100, MemClass::Demand).expect("demand never dropped");
/// assert_eq!(g.start, 100);
/// assert_eq!(g.end, 120); // 20-cycle line transfer
/// ```
#[derive(Debug, Clone)]
pub struct Bus {
    config: BusConfig,
    next_free_demand: Cycle,
    next_free_any: Cycle,
    stats: BusStats,
}

impl Bus {
    /// Creates an idle bus.
    pub fn new(config: BusConfig) -> Self {
        Bus {
            config,
            next_free_demand: 0,
            next_free_any: 0,
            stats: BusStats::default(),
        }
    }

    /// This bus's configuration.
    pub const fn config(&self) -> BusConfig {
        self.config
    }

    /// Requests a 64 B line transfer at core cycle `now`.
    ///
    /// Demand-class requests are always granted, scheduled against the
    /// demand-only timeline. Low-priority requests are granted against the
    /// union timeline, or return `None` (dropped) when the backlog exceeds
    /// the saturation window.
    pub fn request(&mut self, now: Cycle, class: MemClass) -> Option<Grant> {
        let t = self.config.line_transfer_cycles();
        let idx = BusStats::class_idx(class);
        if class.is_demand() {
            let start = now.max(self.next_free_demand);
            let end = start + t;
            self.next_free_demand = end;
            // Demand traffic consumes union-timeline capacity too.
            self.next_free_any = self.next_free_any.max(start) + t;
            self.stats.transfers[idx] += 1;
            self.stats.busy_cycles[idx] += t;
            Some(Grant { start, end })
        } else {
            let start = now.max(self.next_free_any);
            if start - now > self.config.saturation_window {
                self.stats.dropped[idx] += 1;
                return None;
            }
            let end = start + t;
            self.next_free_any = end;
            self.stats.transfers[idx] += 1;
            self.stats.busy_cycles[idx] += t;
            Some(Grant { start, end })
        }
    }

    /// Current backlog of the union timeline relative to `now`, in cycles.
    pub fn backlog(&self, now: Cycle) -> Cycle {
        self.next_free_any.saturating_sub(now)
    }

    /// Traffic statistics so far.
    pub const fn stats(&self) -> BusStats {
        self.stats
    }

    /// Wire utilization over `elapsed` core cycles (can exceed 1.0 only if
    /// `elapsed` under-counts; callers pass total simulated cycles).
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.stats.busy_total() as f64 / elapsed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_cycle_math() {
        assert_eq!(BusConfig::read_default().line_transfer_cycles(), 20);
        assert_eq!(BusConfig::write_default().line_transfer_cycles(), 40);
    }

    #[test]
    fn scaled_bandwidth() {
        // 9.6 GB/s scaled by 1/3 -> 3.2 GB/s, transfer takes 3x longer.
        let low = BusConfig::read_default().scaled(1, 3);
        assert_eq!(low.line_transfer_cycles(), 60);
        assert!((low.bandwidth_gbps(3.0e9) - 3.2).abs() < 1e-9);
        // Scaling by 2/3 -> 6.4 GB/s.
        let mid = BusConfig::read_default().scaled(2, 3);
        assert!((mid.bandwidth_gbps(3.0e9) - 6.4).abs() < 1e-9);
        assert_eq!(mid.line_transfer_cycles(), 30);
    }

    #[test]
    fn demand_back_to_back_serializes() {
        let mut bus = Bus::new(BusConfig::read_default());
        let a = bus.request(0, MemClass::Demand).unwrap();
        let b = bus.request(0, MemClass::Demand).unwrap();
        assert_eq!(a.end, 20);
        assert_eq!(b.start, 20);
        assert_eq!(b.end, 40);
    }

    #[test]
    fn demand_never_delayed_by_prefetch_backlog() {
        let mut bus = Bus::new(BusConfig::read_default());
        // Queue a pile of prefetches.
        for _ in 0..50 {
            let _ = bus.request(0, MemClass::Prefetch);
        }
        let g = bus.request(0, MemClass::Demand).unwrap();
        assert_eq!(g.start, 0, "demand must preempt low-priority backlog");
    }

    #[test]
    fn prefetch_sees_demand_occupancy() {
        let mut bus = Bus::new(BusConfig::read_default());
        bus.request(0, MemClass::Demand).unwrap();
        let p = bus.request(0, MemClass::Prefetch).unwrap();
        assert!(p.start >= 20, "prefetch must wait for the demand transfer");
    }

    #[test]
    fn saturation_drops_low_priority() {
        let cfg = BusConfig {
            saturation_window: 100,
            ..BusConfig::read_default()
        };
        let mut bus = Bus::new(cfg);
        let mut granted = 0;
        let mut dropped = 0;
        for _ in 0..20 {
            match bus.request(0, MemClass::Prefetch) {
                Some(_) => granted += 1,
                None => dropped += 1,
            }
        }
        // 100-cycle window / 20-cycle transfers -> ~6 fit, rest dropped.
        assert!((5..=7).contains(&granted), "granted={granted}");
        assert!(dropped > 0);
        assert_eq!(bus.stats().dropped_for(MemClass::Prefetch), dropped);
    }

    #[test]
    fn demand_is_never_dropped() {
        let cfg = BusConfig {
            saturation_window: 0,
            ..BusConfig::read_default()
        };
        let mut bus = Bus::new(cfg);
        for _ in 0..100 {
            assert!(bus.request(0, MemClass::Demand).is_some());
        }
    }

    #[test]
    fn backlog_reporting() {
        let mut bus = Bus::new(BusConfig::read_default());
        bus.request(0, MemClass::Prefetch).unwrap();
        assert_eq!(bus.backlog(0), 20);
        assert_eq!(bus.backlog(100), 0);
    }

    #[test]
    fn stats_accounting() {
        let mut bus = Bus::new(BusConfig::read_default());
        bus.request(0, MemClass::Demand).unwrap();
        bus.request(0, MemClass::Prefetch).unwrap();
        let s = bus.stats();
        assert_eq!(s.transfers_for(MemClass::Demand), 1);
        assert_eq!(s.transfers_for(MemClass::Prefetch), 1);
        assert_eq!(s.busy_total(), 40);
        assert!(bus.utilization(400) > 0.09 && bus.utilization(400) < 0.11);
    }
}
