//! Off-chip DRAM and bus-interface-unit timing model.
//!
//! The paper's measurements use a 32-bit off-chip DDR SDRAM operating at
//! 200 MHz (§6), reached through the bus interface unit (BIU) with an
//! asynchronous clock-domain crossing (§3). This module models the DRAM
//! channel as a single shared resource with a fixed access latency plus a
//! bandwidth-proportional occupancy.
//!
//! Time is counted in exact integer *ticks*. One CPU cycle is
//! `dram_mhz × bytes_per_dram_cycle` ticks, one byte of transfer is
//! `cpu_mhz` ticks and one DRAM cycle is `cpu_mhz × bytes_per_dram_cycle`
//! ticks, so every duration is a whole number at any clock ratio, and no
//! sum depends on the order it is added in. The ratio falls out
//! naturally: at 350 MHz the same DRAM is "further away" (more CPU
//! cycles per transfer) than at 240 MHz.

use tm3270_encode::snapshot::{Count, Nested};

/// Configuration of the DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// DRAM clock in MHz (paper: 200 MHz).
    pub freq_mhz: u32,
    /// Bus width in bytes (paper: 32-bit).
    pub bus_bytes: u32,
    /// Double data rate: two transfers per DRAM clock.
    pub ddr: bool,
    /// Fixed access latency in DRAM cycles (row activation, CAS, BIU
    /// crossing).
    pub latency_dram_cycles: u32,
}

impl DramConfig {
    /// The paper's memory system: 32-bit DDR SDRAM at 200 MHz.
    pub fn paper_default() -> DramConfig {
        DramConfig {
            freq_mhz: 200,
            bus_bytes: 4,
            ddr: true,
            // ~150 ns access latency: row activation + CAS + controller +
            // the asynchronous BIU clock-domain crossing (§3).
            latency_dram_cycles: 30,
        }
    }

    /// Peak bytes transferred per DRAM cycle.
    pub fn bytes_per_dram_cycle(&self) -> u64 {
        u64::from(self.bus_bytes) * if self.ddr { 2 } else { 1 }
    }

    /// Ticks in one CPU cycle: `freq_mhz × bytes_per_dram_cycle`, the
    /// same at every CPU clock.
    pub fn cycle_ticks(&self) -> u64 {
        u64::from(self.freq_mhz) * self.bytes_per_dram_cycle()
    }
}

/// Transfer priority on the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Demand refill: the processor is stalled on this transfer.
    Demand,
    /// Background transfer (prefetch, copy-back): uses spare bandwidth.
    Background,
}

/// The shared DRAM channel.
///
/// Completion times are tracked in ticks. The channel is a simple
/// in-order resource that serves transfers in arrival order, demand and
/// background alike: each starts when the channel is free and completes
/// `latency + bytes × byte_ticks` later, and holds the channel for its
/// occupancy (at least one CPU cycle). Nothing is queued or reordered
/// here; the memory system keeps demand traffic ahead by issuing only
/// the background transfers it is willing to wait behind.
#[derive(Debug, Clone)]
pub struct Dram {
    /// Ticks in one CPU cycle, the shortest time a transfer holds the
    /// channel.
    cycle_ticks: u64,
    /// Ticks per byte of transfer (the CPU clock in MHz).
    byte_ticks: u64,
    /// The fixed access latency in ticks.
    latency: u64,
    /// Tick at which the channel becomes free.
    free_at: u64,
    stats: DramStats,
}

/// Aggregate DRAM channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Total transfers serviced.
    pub transfers: u64,
    /// Demand transfers serviced.
    pub demand_transfers: u64,
    /// Total bytes moved (both directions).
    pub bytes: u64,
    /// Total channel-busy time in ticks.
    pub busy_ticks: u64,
}

impl Dram {
    /// Creates a DRAM channel as seen from a CPU running at `cpu_freq_mhz`.
    pub fn new(config: DramConfig, cpu_freq_mhz: u32) -> Dram {
        let byte_ticks = u64::from(cpu_freq_mhz);
        let dram_cycle = byte_ticks * config.bytes_per_dram_cycle();
        Dram {
            cycle_ticks: config.cycle_ticks(),
            byte_ticks,
            latency: u64::from(config.latency_dram_cycles) * dram_cycle,
            free_at: 0,
            stats: DramStats::default(),
        }
    }

    /// Occupancy of a `bytes`-byte transfer in ticks (excluding the fixed
    /// latency).
    pub fn occupancy(&self, bytes: u32) -> u64 {
        u64::from(bytes) * self.byte_ticks
    }

    /// Schedules a transfer of `bytes` at tick `now`, returning its
    /// completion tick.
    pub fn request(&mut self, now: u64, bytes: u32, priority: Priority) -> u64 {
        let start = now.max(self.free_at);
        let occupancy = self.occupancy(bytes);
        let completion = start + self.latency + occupancy;
        self.free_at = start + occupancy.max(self.cycle_ticks);
        self.stats.transfers += 1;
        if priority == Priority::Demand {
            self.stats.demand_transfers += 1;
        }
        self.stats.bytes += u64::from(bytes);
        self.stats.busy_ticks += occupancy;
        completion
    }

    /// The tick at which the channel next becomes free.
    pub fn free_at(&self) -> u64 {
        self.free_at
    }

    /// Channel statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }
}

// The tick rates follow from the configuration and stay as built.
tm3270_encode::snapshot_table! {
    impl Dram |d| {
        free_at: Count,
        stats: Nested,
    }
}

tm3270_encode::snapshot_table! {
    impl DramStats |s| {
        transfers: Count,
        demand_transfers: Count,
        bytes: Count,
        busy_ticks: Count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ticks in one CPU cycle of the paper's DRAM: 200 MHz × 8 bytes.
    const CYCLE: u64 = 1600;

    fn dram_at(cpu_mhz: u32) -> Dram {
        Dram::new(DramConfig::paper_default(), cpu_mhz)
    }

    #[test]
    fn higher_cpu_frequency_makes_dram_further_away() {
        let (mut d240, mut d350) = (dram_at(240), dram_at(350));
        assert!(d350.request(0, 128, Priority::Demand) > d240.request(0, 128, Priority::Demand));
        assert!(d350.occupancy(128) > d240.occupancy(128));
    }

    #[test]
    fn line_transfer_occupancy_matches_bandwidth() {
        // 128 bytes over a 32-bit DDR bus = 16 DRAM cycles.
        let d = dram_at(200); // 1:1 clock ratio
        assert_eq!(d.occupancy(128), 16 * CYCLE);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut d = dram_at(200);
        let c1 = d.request(0, 128, Priority::Demand);
        let c2 = d.request(0, 128, Priority::Demand);
        assert!(c2 > c1, "second transfer waits for the channel");
        // The second transfer starts when the first releases the channel
        // (occupancy), then pays latency + occupancy itself.
        assert_eq!(c2, (16 + 30 + 16) * CYCLE);
    }

    #[test]
    fn a_transfer_holds_the_channel_at_least_one_cycle() {
        let mut d = dram_at(200);
        d.request(5, 0, Priority::Background);
        assert_eq!(d.free_at(), 5 + CYCLE);
    }

    #[test]
    fn ten_line_transfers_at_240_mhz_book_exactly_192_cycles() {
        // 128 bytes at 240 MHz is 19.2 CPU cycles, which no `f64` holds:
        // ten summed as floats come to 191.99999999999997.
        let mut d = dram_at(240);
        for _ in 0..10 {
            d.request(0, 128, Priority::Demand);
        }
        assert_eq!(d.free_at(), 192 * CYCLE);
        assert_eq!(d.stats().busy_ticks, 192 * CYCLE);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = dram_at(200);
        d.request(0, 128, Priority::Demand);
        d.request(0, 64, Priority::Background);
        let s = d.stats();
        assert_eq!(s.transfers, 2);
        assert_eq!(s.demand_transfers, 1);
        assert_eq!(s.bytes, 192);
        assert_eq!(s.busy_ticks, 24 * CYCLE);
    }
}
