//! Isolation probe of the memory model: a seeded stream of 4-byte loads
//! and stores (3:1) driven through a bare `MemorySystem` with the TM3260
//! memory configuration (16 KB D$), one access per
//! `begin_instr`/`take_stall`, as the core drives it.

use std::hint::black_box;
use std::time::Instant;

use tm3270_isa::DataMemory;
use tm3270_mem::{MemConfig, MemorySystem};

use crate::kernels::splitmix64;
use crate::stats::median;

/// Accesses per timed pass.
const ACCESSES: usize = 1 << 18;
/// Timed passes; the median is reported.
const PASSES: usize = 5;
/// Base address of the working set.
const BASE: u32 = 0x10_0000;

/// What the probe measured on one working set.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub ns_per_access: f64,
    pub miss_ratio: f64,
}

/// Times the access stream over a `working_set`-byte region. One untimed
/// pass first fills the cache with whatever of the region fits.
pub fn access_probe(seed: u64, working_set: u32) -> Probe {
    let mut mem = MemorySystem::new(MemConfig::tm3260());
    let words = u64::from(working_set / 4);
    let stream: Vec<(u32, bool)> = (0..ACCESSES as u64)
        .map(|i| {
            let r = splitmix64(seed ^ i.wrapping_mul(0x9e37_79b9));
            (BASE + 4 * (r % words) as u32, r >> 62 == 0)
        })
        .collect();
    let mut now = 0u64;
    let mut pass = |mem: &mut MemorySystem| {
        let mut sum = 0u32;
        for &(addr, store) in &stream {
            mem.begin_instr(now);
            if store {
                mem.store_le(addr, 4, addr);
            } else {
                sum = sum.wrapping_add(mem.load_le(addr, 4));
            }
            now += 1 + mem.take_stall();
        }
        black_box(sum);
    };
    pass(&mut mem);
    let before = mem.stats().dcache;
    let mut times = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let start = Instant::now();
        pass(&mut mem);
        times.push(start.elapsed().as_secs_f64() * 1e9 / ACCESSES as f64);
    }
    let after = mem.stats().dcache;
    let lookups = |s: tm3270_mem::CacheStats| s.hits + s.partial_hits + s.misses;
    let misses = |s: tm3270_mem::CacheStats| s.partial_hits + s.misses;
    Probe {
        ns_per_access: median(&times),
        miss_ratio: (misses(after) - misses(before)) as f64
            / (lookups(after) - lookups(before)).max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resident_set_hits_and_a_large_set_misses() {
        let resident = access_probe(1, 8 * 1024);
        assert_eq!(resident.miss_ratio, 0.0);
        let streaming = access_probe(1, 1 << 20);
        assert!(streaming.miss_ratio > 0.5, "{streaming:?}");
        assert!(resident.ns_per_access > 0.0 && streaming.ns_per_access > 0.0);
    }
}
