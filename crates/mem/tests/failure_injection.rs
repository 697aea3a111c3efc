//! Failure-injection and edge-case tests of the memory hierarchy:
//! write-buffer saturation, DRAM back-pressure, prefetch-region edges,
//! line-crossing accesses at extreme addresses, and cache-control
//! operations on absent lines.

use tm3270_isa::{CacheOp, DataMemory};
use tm3270_mem::{CacheGeometry, MemConfig, MemorySystem, Region};

fn system() -> MemorySystem {
    let mut cfg = MemConfig::tm3270();
    cfg.mem_size = 1 << 21;
    MemorySystem::new(cfg)
}

#[test]
fn cwb_saturation_under_maximum_store_rate() {
    // Warm one line, then slam it with more than two stores per cycle:
    // the cache write buffer must back-pressure instead of absorbing an
    // unbounded burst.
    let mut m = system();
    m.begin_instr(0);
    m.store_bytes(0x1000, &[0; 4]);
    m.take_stall();
    m.begin_instr(100);
    for i in 0..200u32 {
        m.store_bytes(0x1000 + (i % 32) * 4, &[i as u8; 4]);
    }
    let stall = m.take_stall();
    assert!(stall >= 50, "CWB must limit the burst, stalled {stall}");
}

#[test]
fn dram_backpressure_bounds_outstanding_background_traffic() {
    // Stream allocating stores over a large region: victim copy-backs are
    // background traffic; the BIU queue must keep the channel booking
    // bounded relative to the core's progress.
    let mut m = system();
    let mut cycle = 0u64;
    for i in 0..8192u32 {
        m.begin_instr(cycle);
        m.store_bytes(0x10000 + i * 128, &[1; 4]); // one allocation per line
        cycle += 1 + m.take_stall();
    }
    let s = m.stats();
    // 8192 allocations of dirty lines -> eventually 8K copy-backs of 4
    // valid bytes each. The run must have stalled rather than booking
    // megabytes of traffic into the future.
    assert!(s.dcache.allocations >= 8000);
    assert!(
        s.dram.busy_ticks < (cycle + 10_000) * s.cycle_ticks,
        "channel booking stays near real time"
    );
}

#[test]
fn prefetch_region_boundary_conditions() {
    let mut m = system();
    // Region covering exactly one line.
    m.set_prefetch_region(
        0,
        Region {
            start: 0x4000,
            end: 0x4080,
            stride: 128,
        },
    );
    let mut buf = [0u8; 4];
    m.begin_instr(0);
    // Load inside: candidate 0x4080 is OUTSIDE the region -> no prefetch.
    m.load_bytes(0x4000, &mut buf);
    assert_eq!(m.stats().prefetch.issued, 0);

    // Zero-stride region is inactive.
    m.set_prefetch_region(
        1,
        Region {
            start: 0x8000,
            end: 0x9000,
            stride: 0,
        },
    );
    m.begin_instr(10);
    m.load_bytes(0x8000, &mut buf);
    assert_eq!(m.stats().prefetch.issued, 0);

    // Inverted region (end < start) is inactive.
    m.set_prefetch_region(
        2,
        Region {
            start: 0x9000,
            end: 0x8000,
            stride: 128,
        },
    );
    m.begin_instr(20);
    m.load_bytes(0x8fc0, &mut buf);
    assert_eq!(m.stats().prefetch.issued, 0);
}

#[test]
fn overlapping_prefetch_regions_first_match_wins() {
    let mut m = system();
    m.set_prefetch_region(
        0,
        Region {
            start: 0x10000,
            end: 0x20000,
            stride: 128,
        },
    );
    m.set_prefetch_region(
        1,
        Region {
            start: 0x10000,
            end: 0x20000,
            stride: 256,
        },
    );
    let mut buf = [0u8; 4];
    m.begin_instr(0);
    m.load_bytes(0x10000, &mut buf);
    // One candidate issued (region 0's), not two.
    assert_eq!(m.stats().prefetch.issued, 1);
}

#[test]
fn cache_control_on_absent_lines_is_harmless() {
    let mut m = system();
    m.begin_instr(0);
    m.cache_op(CacheOp::Invalidate, 0x7000);
    m.cache_op(CacheOp::Flush, 0x7000);
    assert_eq!(m.take_stall(), 0);
    assert_eq!(m.stats().dram.bytes, 0);
}

#[test]
fn flush_of_clean_line_moves_no_bytes() {
    let mut m = system();
    m.begin_instr(0);
    let mut buf = [0u8; 4];
    m.load_bytes(0x5000, &mut buf); // clean fill
    m.take_stall();
    let before = m.stats().dram.bytes;
    m.cache_op(CacheOp::Flush, 0x5000);
    assert_eq!(m.stats().dram.bytes, before, "clean flush is traffic-free");
}

#[test]
fn allocd_makes_following_stores_hit() {
    let mut m = system();
    m.begin_instr(0);
    m.cache_op(CacheOp::Allocate, 0x6000);
    m.store_bytes(0x6000, &[5; 8]);
    assert_eq!(m.take_stall(), 0);
    assert_eq!(
        m.stats().dcache.misses,
        0,
        "allocd pre-established the line"
    );
}

#[test]
fn accesses_at_address_space_end_wrap() {
    let mut m = system();
    m.begin_instr(0);
    let mut buf = [0u8; 8];
    // Crossing the 2^32 boundary must be well defined (wraps).
    m.load_bytes(u32::MAX - 3, &mut buf);
    m.store_bytes(u32::MAX - 3, &[1, 2, 3, 4, 5, 6, 7, 8]);
    let mut check = [0u8; 8];
    m.load_bytes(u32::MAX - 3, &mut check);
    assert_eq!(check, [1, 2, 3, 4, 5, 6, 7, 8]);
}

#[test]
fn sub_word_stores_keep_byte_validity_exact() {
    let mut m = system();
    m.begin_instr(0);
    // Allocate-on-write: three disjoint single-byte stores.
    m.store_bytes(0x3000, &[1]);
    m.store_bytes(0x3002, &[2]);
    m.store_bytes(0x3004, &[3]);
    // A load covering an unwritten hole must refill (partial hit).
    m.take_stall();
    m.begin_instr(100);
    let mut buf = [0u8; 2];
    m.load_bytes(0x3000, &mut buf); // bytes 0 (valid) + 1 (invalid)
    assert!(m.take_stall() > 0, "byte-validity hole forces a refill");
    assert!(m.stats().dcache.partial_hits >= 1);
}

#[test]
fn tiny_cache_geometry_still_works() {
    // Degenerate geometry: direct-mapped, two sets.
    let mut cfg = MemConfig::tm3270();
    cfg.dcache = CacheGeometry {
        size: 128,
        line: 64,
        ways: 1,
    };
    cfg.mem_size = 1 << 16;
    let mut m = MemorySystem::new(cfg);
    let mut cycle = 0u64;
    for i in 0..64u32 {
        m.begin_instr(cycle);
        m.store_bytes(i * 64, &[i as u8; 4]);
        cycle += 1 + m.take_stall();
    }
    let mut buf = [0u8; 4];
    m.begin_instr(cycle);
    m.load_bytes(0, &mut buf);
    assert_eq!(buf, [0; 4]);
}

#[test]
fn icache_fetch_spanning_lines() {
    let mut m = system();
    // A 28-byte instruction straddling a 128-byte line boundary needs
    // both lines.
    let stall = m.fetch_instr(0, 128 - 8, 28);
    assert!(stall > 0);
    assert_eq!(m.stats().icache.misses, 2, "both lines fetched");
    // And afterwards both halves hit.
    assert_eq!(m.fetch_instr(10_000, 128 - 8, 28), 0);
}
