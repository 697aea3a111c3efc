//! Region-based hardware prefetch unit (paper, §2.3).
//!
//! The TM3270 supports four software-configured memory regions, each
//! described by `PFn_START_ADDR`, `PFn_END_ADDR` and `PFn_STRIDE`. When
//! the hardware detects a load from an address `A` inside region `n`, it
//! issues a prefetch request for `A + PFn_STRIDE` — if that address is
//! still inside the region and its line is not already present in the data
//! cache. Prefetched data goes directly into the data cache; there are no
//! stream buffers (§2.3).

use std::collections::VecDeque;

use tm3270_encode::snapshot::{Array, Clock, Count, List, Nested, U32};
use tm3270_isa::PfParam;

/// Number of prefetch regions (paper: four).
pub const NUM_REGIONS: usize = 4;

/// One software-configured prefetch region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Region {
    /// `PFn_START_ADDR`: first byte of the region.
    pub start: u32,
    /// `PFn_END_ADDR`: first byte past the region.
    pub end: u32,
    /// `PFn_STRIDE`: distance of the prefetch candidate from the load.
    pub stride: u32,
}

impl Region {
    /// Whether the region is active (non-empty with a non-zero stride).
    pub fn is_active(&self) -> bool {
        self.end > self.start && self.stride != 0
    }

    /// Whether `addr` falls inside the region.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.start && addr < self.end
    }
}

/// Prefetch-unit statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Load addresses that matched an active region.
    pub region_matches: u64,
    /// Prefetch requests actually issued (after the in-cache and
    /// in-flight filters).
    pub issued: u64,
    /// Requests dropped because the line was already present or in
    /// flight.
    pub filtered: u64,
    /// Requests dropped because the queue was full.
    pub dropped: u64,
}

/// The prefetch unit: region registers plus a request queue.
#[derive(Debug, Clone)]
pub struct PrefetchUnit {
    regions: [Region; NUM_REGIONS],
    /// Line-base addresses waiting to be issued to the DRAM channel.
    /// A ring so popping the head never shifts the tail; capacity is
    /// reserved up front, so steady-state operation never allocates.
    queue: VecDeque<u32>,
    /// Line-base addresses currently being transferred: (base, completion
    /// cycle).
    in_flight: Vec<(u32, f64)>,
    capacity: usize,
    stats: PrefetchStats,
}

impl PrefetchUnit {
    /// Creates a prefetch unit with a `capacity`-entry request queue.
    pub fn new(capacity: usize) -> PrefetchUnit {
        PrefetchUnit {
            regions: [Region::default(); NUM_REGIONS],
            queue: VecDeque::with_capacity(capacity),
            in_flight: Vec::with_capacity(capacity.max(4)),
            capacity,
            stats: PrefetchStats::default(),
        }
    }

    /// Writes a region parameter (the `PFn_*` MMIO registers).
    pub fn write_param(&mut self, param: PfParam, region: u8, value: u32) {
        let r = &mut self.regions[(region as usize) % NUM_REGIONS];
        match param {
            PfParam::Start => r.start = value,
            PfParam::End => r.end = value,
            PfParam::Stride => r.stride = value,
        }
    }

    /// Configures a whole region at once (convenience over three
    /// [`write_param`](Self::write_param) calls).
    pub fn set_region(&mut self, region: u8, r: Region) {
        self.regions[(region as usize) % NUM_REGIONS] = r;
    }

    /// The current configuration of `region`.
    pub fn region(&self, region: u8) -> Region {
        self.regions[(region as usize) % NUM_REGIONS]
    }

    /// Whether any region is active — the one-compare fast path that
    /// lets the per-load observation hook cost nothing when software
    /// never configured a prefetch region (the common case).
    #[inline]
    pub fn any_region_active(&self) -> bool {
        self.regions.iter().any(|r| r.is_active())
    }

    /// Whether any request is waiting to be issued to the channel.
    #[inline]
    pub fn has_queued(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Observes a demand load at `addr`; returns the prefetch candidate
    /// line base if one should be issued. `line` is the cache line size;
    /// `present` tells whether the candidate line is already in the cache.
    pub fn observe_load(
        &mut self,
        addr: u32,
        line: u32,
        present: impl Fn(u32) -> bool,
    ) -> Option<u32> {
        let region = self
            .regions
            .iter()
            .find(|r| r.is_active() && r.contains(addr))?;
        self.stats.region_matches += 1;
        let candidate = addr.wrapping_add(region.stride);
        if !region.contains(candidate) {
            return None;
        }
        let base = candidate & !(line - 1);
        if present(base)
            || self.queue.contains(&base)
            || self.in_flight.iter().any(|&(b, _)| b == base)
        {
            self.stats.filtered += 1;
            return None;
        }
        if self.queue.len() >= self.capacity {
            self.stats.dropped += 1;
            return None;
        }
        self.queue.push_back(base);
        Some(base)
    }

    /// Pops the next queued request, if any.
    pub fn pop_request(&mut self) -> Option<u32> {
        self.queue.pop_front()
    }

    /// Records that a prefetch for `base` was issued to the channel,
    /// completing at `completion`.
    pub fn mark_in_flight(&mut self, base: u32, completion: f64) {
        self.in_flight.push((base, completion));
        self.stats.issued += 1;
    }

    /// Removes and returns the first (oldest-issued) prefetch that has
    /// completed by cycle `now`, preserving the issue order of the rest.
    /// Draining via repeated pops replaces the old
    /// `completed() -> Vec<u32>` API: no intermediate collections, and
    /// the empty in-flight set — the common case, probed once per
    /// executed instruction — costs a single length check.
    pub fn pop_completed(&mut self, now: f64) -> Option<u32> {
        if self.in_flight.is_empty() {
            return None;
        }
        let i = self.in_flight.iter().position(|&(_, c)| c <= now)?;
        // `remove`, not `swap_remove`: completion handling must see the
        // same ordering as the old order-preserving `partition` drain.
        let (base, _) = self.in_flight.remove(i);
        Some(base)
    }

    /// If a prefetch of `base` is in flight, returns its completion cycle
    /// (a demand access to that line waits for it rather than re-fetching).
    /// The empty set — the common case on every demand miss — is a single
    /// length check, not a scan.
    pub fn in_flight_completion(&self, base: u32) -> Option<f64> {
        if self.in_flight.is_empty() {
            return None;
        }
        self.in_flight
            .iter()
            .find(|&&(b, _)| b == base)
            .map(|&(_, c)| c)
    }

    /// Whether any requests are queued.
    pub fn has_pending(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Whether any prefetches are in flight (cheap early-out for the
    /// per-instruction completion drain).
    pub fn has_in_flight(&self) -> bool {
        !self.in_flight.is_empty()
    }

    /// Prefetch statistics.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }
}

// The queue capacity is configuration, not state: it bounds the queue.
tm3270_encode::snapshot_table! {
    impl PrefetchUnit |p| {
        regions: Array<Nested>,
        queue: List<U32> where [0, p.capacity as u64],
        in_flight: List<(U32, Clock)>,
        stats: Nested,
    }
}

tm3270_encode::snapshot_table! {
    impl Region |r| {
        start: U32,
        end: U32,
        stride: U32,
    }
}

tm3270_encode::snapshot_table! {
    impl PrefetchStats |s| {
        region_matches: Count,
        issued: Count,
        filtered: Count,
        dropped: Count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_with_region() -> PrefetchUnit {
        let mut u = PrefetchUnit::new(8);
        u.set_region(
            0,
            Region {
                start: 0x1000,
                end: 0x2000,
                stride: 0x100,
            },
        );
        u
    }

    #[test]
    fn load_in_region_triggers_stride_prefetch() {
        let mut u = unit_with_region();
        let got = u.observe_load(0x1040, 128, |_| false);
        assert_eq!(got, Some(0x1140 & !127));
        assert_eq!(u.stats().region_matches, 1);
    }

    #[test]
    fn load_outside_region_is_ignored() {
        let mut u = unit_with_region();
        assert_eq!(u.observe_load(0x3000, 128, |_| false), None);
        assert_eq!(u.stats().region_matches, 0);
    }

    #[test]
    fn candidate_outside_region_is_ignored() {
        let mut u = unit_with_region();
        // 0x1f80 + 0x100 = 0x2080, past the region end.
        assert_eq!(u.observe_load(0x1f80, 128, |_| false), None);
        assert_eq!(u.stats().region_matches, 1, "the load itself matched");
    }

    #[test]
    fn present_lines_are_filtered() {
        let mut u = unit_with_region();
        assert_eq!(u.observe_load(0x1040, 128, |_| true), None);
        assert_eq!(u.stats().filtered, 1);
    }

    #[test]
    fn duplicate_requests_are_filtered() {
        let mut u = unit_with_region();
        assert!(u.observe_load(0x1040, 128, |_| false).is_some());
        assert_eq!(u.observe_load(0x1041, 128, |_| false), None);
        assert_eq!(u.stats().filtered, 1);
    }

    #[test]
    fn queue_capacity_drops_overflow() {
        let mut u = PrefetchUnit::new(1);
        u.set_region(
            1,
            Region {
                start: 0,
                end: 0x10_0000,
                stride: 0x1000,
            },
        );
        assert!(u.observe_load(0x100, 128, |_| false).is_some());
        assert_eq!(u.observe_load(0x2000, 128, |_| false), None);
        assert_eq!(u.stats().dropped, 1);
    }

    #[test]
    fn in_flight_lifecycle() {
        let mut u = unit_with_region();
        u.observe_load(0x1040, 128, |_| false);
        let base = u.pop_request().unwrap();
        u.mark_in_flight(base, 100.0);
        assert!(u.has_in_flight());
        assert_eq!(u.in_flight_completion(base), Some(100.0));
        assert_eq!(u.pop_completed(50.0), None);
        assert_eq!(u.pop_completed(100.0), Some(base));
        assert_eq!(u.pop_completed(100.0), None);
        assert_eq!(u.in_flight_completion(base), None);
        assert!(!u.has_in_flight());
    }

    #[test]
    fn pop_completed_preserves_issue_order() {
        let mut u = PrefetchUnit::new(8);
        // Three in flight; the middle one completes latest.
        u.mark_in_flight(0x100, 10.0);
        u.mark_in_flight(0x200, 30.0);
        u.mark_in_flight(0x300, 20.0);
        assert_eq!(u.pop_completed(25.0), Some(0x100));
        assert_eq!(u.pop_completed(25.0), Some(0x300));
        assert_eq!(u.pop_completed(25.0), None, "0x200 still pending");
        assert_eq!(u.in_flight_completion(0x200), Some(30.0));
        assert_eq!(u.pop_completed(30.0), Some(0x200));
    }

    #[test]
    fn mmio_writes_configure_regions() {
        let mut u = PrefetchUnit::new(4);
        u.write_param(PfParam::Start, 2, 0x4000);
        u.write_param(PfParam::End, 2, 0x5000);
        u.write_param(PfParam::Stride, 2, 0x80);
        assert_eq!(
            u.region(2),
            Region {
                start: 0x4000,
                end: 0x5000,
                stride: 0x80
            }
        );
        assert!(u.region(2).is_active());
        assert!(!u.region(0).is_active());
    }
}
