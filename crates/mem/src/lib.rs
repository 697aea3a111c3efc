//! # tm3270-mem
//!
//! The TM3270 memory hierarchy (paper, §2.3, §4): data cache with byte
//! validity and allocate-on-write-miss, instruction cache, region-based
//! prefetch unit, cache write buffer, and the shared DDR SDRAM channel
//! behind the bus interface unit.
//!
//! The centre piece is [`MemorySystem`], which implements the
//! [`tm3270_isa::DataMemory`] trait so operation semantics run against it
//! directly, while it accounts stall cycles and DRAM traffic for the
//! pipeline simulator in `tm3270-core`.
//!
//! # Examples
//!
//! ```
//! use tm3270_mem::{MemConfig, MemorySystem, Region};
//! use tm3270_isa::DataMemory;
//!
//! let mut cfg = MemConfig::tm3270();
//! cfg.mem_size = 1 << 20;
//! let mut mem = MemorySystem::new(cfg);
//!
//! // Next-line prefetching over a 4 KiB buffer (paper §2.3).
//! mem.set_prefetch_region(0, Region { start: 0x1000, end: 0x2000, stride: 128 });
//!
//! mem.begin_instr(0);
//! mem.store_bytes(0x1000, &[1, 2, 3, 4]);
//! let mut buf = [0u8; 4];
//! mem.load_bytes(0x1000, &mut buf);
//! assert_eq!(buf, [1, 2, 3, 4]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod dram;
mod prefetch;
mod system;

pub use cache::{CacheArray, CacheGeometry, CacheStats, Lookup, Victim};
pub use dram::{Dram, DramConfig, DramStats, Priority};
pub use prefetch::{PrefetchStats, PrefetchUnit, Region, NUM_REGIONS};
pub use system::{FullStats, MemConfig, MemStats, MemorySystem};
