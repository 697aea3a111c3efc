//! Off-chip DRAM and bus-interface-unit timing model.
//!
//! The paper's measurements use a 32-bit off-chip DDR SDRAM operating at
//! 200 MHz (§6), reached through the bus interface unit (BIU) with an
//! asynchronous clock-domain crossing (§3). This module models the DRAM
//! channel as a single shared resource with a fixed access latency plus a
//! bandwidth-proportional occupancy, expressed in *CPU* cycles so the
//! processor-to-memory clock ratio falls out naturally: at 350 MHz the same
//! DRAM is "further away" (more CPU cycles per transfer) than at 240 MHz.

use tm3270_encode::snapshot::{Clock, Count, Nested};

/// Configuration of the DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// DRAM clock in MHz (paper: 200 MHz).
    pub freq_mhz: f64,
    /// Bus width in bytes (paper: 32-bit).
    pub bus_bytes: u32,
    /// Double data rate: two transfers per DRAM clock.
    pub ddr: bool,
    /// Fixed access latency in DRAM cycles (row activation, CAS, BIU
    /// crossing).
    pub latency_dram_cycles: f64,
}

impl DramConfig {
    /// The paper's memory system: 32-bit DDR SDRAM at 200 MHz.
    pub fn paper_default() -> DramConfig {
        DramConfig {
            freq_mhz: 200.0,
            bus_bytes: 4,
            ddr: true,
            // ~150 ns access latency: row activation + CAS + controller +
            // the asynchronous BIU clock-domain crossing (§3).
            latency_dram_cycles: 30.0,
        }
    }

    /// Peak bytes transferred per DRAM cycle.
    pub fn bytes_per_dram_cycle(&self) -> f64 {
        f64::from(self.bus_bytes) * if self.ddr { 2.0 } else { 1.0 }
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
/// Completion times are tracked in CPU cycles. The channel is a simple
/// in-order resource: each transfer occupies it for
/// `latency + bytes / bandwidth`. Background transfers are queued and only
/// scheduled when the channel is otherwise idle; a demand transfer that
/// arrives while background transfers are pending jumps ahead of any
/// not-yet-started background work (but cannot preempt an in-flight
/// transfer).
#[derive(Debug, Clone)]
pub struct Dram {
    cpu_cycles_per_dram_cycle: f64,
    latency_cpu: f64,
    bytes_per_dram_cycle: f64,
    /// CPU cycle at which the channel becomes free.
    free_at: f64,
    /// Pending background transfers (bytes, and the completion slot filled
    /// in when scheduled).
    stats: DramStats,
}

/// Aggregate DRAM channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DramStats {
    /// Total transfers serviced.
    pub transfers: u64,
    /// Demand transfers serviced.
    pub demand_transfers: u64,
    /// Total bytes moved (both directions).
    pub bytes: u64,
    /// Total channel-busy time in CPU cycles.
    pub busy_cpu_cycles: f64,
}

impl Dram {
    /// Creates a DRAM channel as seen from a CPU running at `cpu_freq_mhz`.
    pub fn new(config: DramConfig, cpu_freq_mhz: f64) -> Dram {
        let ratio = cpu_freq_mhz / config.freq_mhz;
        Dram {
            cpu_cycles_per_dram_cycle: ratio,
            latency_cpu: config.latency_dram_cycles * ratio,
            bytes_per_dram_cycle: config.bytes_per_dram_cycle(),
            free_at: 0.0,
            stats: DramStats::default(),
        }
    }

    /// Occupancy of a `bytes`-byte transfer in CPU cycles (excluding the
    /// fixed latency).
    pub fn occupancy(&self, bytes: u32) -> f64 {
        f64::from(bytes) / self.bytes_per_dram_cycle * self.cpu_cycles_per_dram_cycle
    }

    /// The fixed access latency in CPU cycles.
    pub fn latency(&self) -> f64 {
        self.latency_cpu
    }

    /// Schedules a transfer of `bytes` at CPU cycle `now`, returning its
    /// completion cycle.
    ///
    /// Demand and background transfers share the channel in arrival order;
    /// the caller enforces the demand-first policy by only issuing
    /// background transfers it is willing to wait behind.
    pub fn request(&mut self, now: f64, bytes: u32, priority: Priority) -> f64 {
        let start = now.max(self.free_at);
        let occupancy = self.occupancy(bytes);
        let completion = start + self.latency_cpu + occupancy;
        self.free_at = start + occupancy.max(1.0);
        self.stats.transfers += 1;
        if priority == Priority::Demand {
            self.stats.demand_transfers += 1;
        }
        self.stats.bytes += u64::from(bytes);
        self.stats.busy_cpu_cycles += occupancy;
        completion
    }

    /// The CPU cycle at which the channel next becomes free.
    pub fn free_at(&self) -> f64 {
        self.free_at
    }

    /// Whether the channel is idle at CPU cycle `now`.
    pub fn is_idle(&self, now: f64) -> bool {
        self.free_at <= now
    }

    /// Channel statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }
}

// The clock-ratio fields follow from the configuration and stay as built.
tm3270_encode::snapshot_table! {
    impl Dram |d| {
        free_at: Clock,
        stats: Nested,
    }
}

tm3270_encode::snapshot_table! {
    impl DramStats |s| {
        transfers: Count,
        demand_transfers: Count,
        bytes: Count,
        busy_cpu_cycles: Clock,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram_at(cpu_mhz: f64) -> Dram {
        Dram::new(DramConfig::paper_default(), cpu_mhz)
    }

    #[test]
    fn higher_cpu_frequency_makes_dram_further_away() {
        let d240 = dram_at(240.0);
        let d350 = dram_at(350.0);
        assert!(d350.latency() > d240.latency());
        assert!(d350.occupancy(128) > d240.occupancy(128));
    }

    #[test]
    fn line_transfer_occupancy_matches_bandwidth() {
        // 128 bytes over a 32-bit DDR bus = 16 DRAM cycles.
        let d = dram_at(200.0); // 1:1 clock ratio
        assert!((d.occupancy(128) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut d = dram_at(200.0);
        let c1 = d.request(0.0, 128, Priority::Demand);
        let c2 = d.request(0.0, 128, Priority::Demand);
        assert!(c2 > c1, "second transfer waits for the channel");
        // The second transfer starts when the first releases the channel
        // (occupancy), then pays latency + occupancy itself.
        assert!((c2 - (16.0 + 30.0 + 16.0)).abs() < 1e-9);
    }

    #[test]
    fn idle_channel_reports_idle() {
        let mut d = dram_at(200.0);
        assert!(d.is_idle(0.0));
        d.request(0.0, 64, Priority::Background);
        assert!(!d.is_idle(0.0));
        assert!(d.is_idle(1000.0));
    }

    #[test]
    fn stats_accumulate() {
        let mut d = dram_at(200.0);
        d.request(0.0, 128, Priority::Demand);
        d.request(0.0, 64, Priority::Background);
        let s = d.stats();
        assert_eq!(s.transfers, 2);
        assert_eq!(s.demand_transfers, 1);
        assert_eq!(s.bytes, 192);
        assert!(s.busy_cpu_cycles > 0.0);
    }
}
