//! Machine configurations: the TM3270, its TM3260 predecessor, and the
//! four evaluation configurations A–D of the paper's §6.
//!
//! | Config | Core (issue model)  | Data cache            | Frequency |
//! |--------|---------------------|-----------------------|-----------|
//! | A      | TM3260              | 16 KB, 64 B, 8-way, fetch-on-write-miss | 240 MHz |
//! | B      | TM3270              | 16 KB, 128 B, 4-way, allocate-on-write-miss | 240 MHz |
//! | C      | TM3270              | 16 KB, 128 B, 4-way, allocate-on-write-miss | 350 MHz |
//! | D      | TM3270              | 128 KB, 128 B, 4-way, allocate-on-write-miss | 350 MHz |

use tm3270_isa::IssueModel;
use tm3270_mem::{CacheGeometry, MemConfig};

/// A complete machine configuration: issue model + memory system + clock.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Human-readable name ("TM3270", "config B", ...).
    pub name: &'static str,
    /// Issue-slot/latency model (paper, Tables 2 and 6).
    pub issue: IssueModel,
    /// Memory-system configuration (paper, Tables 1 and 6).
    pub mem: MemConfig,
    /// Number of recent trace records the machine retains for crash
    /// reports (defaults to [`TRACE_RING`](crate::pipeline::TRACE_RING);
    /// 0 disables the crash ring entirely).
    pub trace_ring: usize,
}

impl MachineConfig {
    /// The TM3270 (§6 configuration D): 350 MHz, 128 KB data cache.
    pub fn tm3270() -> MachineConfig {
        MachineConfig {
            name: "TM3270 (config D)",
            issue: IssueModel::tm3270(),
            mem: MemConfig::tm3270(),
            trace_ring: crate::pipeline::TRACE_RING,
        }
    }

    /// The TM3260 (§6 configuration A): 240 MHz, 16 KB data cache,
    /// fetch-on-write-miss.
    pub fn tm3260() -> MachineConfig {
        MachineConfig {
            name: "TM3260 (config A)",
            issue: IssueModel::tm3260(),
            mem: MemConfig::tm3260(),
            trace_ring: crate::pipeline::TRACE_RING,
        }
    }

    /// §6 configuration B: the TM3270 core with TM3260 cache sizes at the
    /// TM3260's 240 MHz. Note the TM3270's 128-byte line size is kept —
    /// the paper attributes the MPEG2 anomaly (A outperforming B and C)
    /// to exactly this: more capacity misses from doubled lines in a
    /// small cache.
    pub fn config_b() -> MachineConfig {
        let mut mem = MemConfig::tm3270();
        mem.cpu_freq_mhz = 240;
        mem.dcache = CacheGeometry {
            size: 16 * 1024,
            line: 128,
            ways: 4,
        };
        MachineConfig {
            name: "TM3270 core, 16KB D$ @ 240 MHz (config B)",
            issue: IssueModel::tm3270(),
            mem,
            trace_ring: crate::pipeline::TRACE_RING,
        }
    }

    /// §6 configuration C: configuration B at the TM3270's 350 MHz.
    pub fn config_c() -> MachineConfig {
        let mut cfg = MachineConfig::config_b();
        cfg.name = "TM3270 core, 16KB D$ @ 350 MHz (config C)";
        cfg.mem.cpu_freq_mhz = 350;
        cfg
    }

    /// Configuration A (alias of [`tm3260`](Self::tm3260)).
    pub fn config_a() -> MachineConfig {
        MachineConfig::tm3260()
    }

    /// Configuration D (alias of [`tm3270`](Self::tm3270)).
    pub fn config_d() -> MachineConfig {
        MachineConfig::tm3270()
    }

    /// All four §6 evaluation configurations, in order.
    pub fn evaluation_suite() -> [MachineConfig; 4] {
        [
            MachineConfig::config_a(),
            MachineConfig::config_b(),
            MachineConfig::config_c(),
            MachineConfig::config_d(),
        ]
    }

    /// The CPU clock in MHz.
    pub fn freq_mhz(&self) -> u32 {
        self.mem.cpu_freq_mhz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_snapshot_clock_fits_in_ticks() {
        // The memory model's tick is `now × cycle_ticks + stall`, with
        // `now` and `stall` each restorable up to the count limit.
        use tm3270_encode::snapshot::SNAPSHOT_COUNT_LIMIT as LIMIT;
        for c in MachineConfig::evaluation_suite() {
            let ticks = c.mem.dram.cycle_ticks();
            assert_eq!(ticks, 1600, "{}", c.name);
            let most = LIMIT.checked_mul(ticks).and_then(|t| t.checked_add(LIMIT));
            assert!(most.is_some(), "{}: the largest tick overflows", c.name);
        }
    }

    #[test]
    fn config_a_matches_table6_tm3260() {
        let a = MachineConfig::config_a();
        assert_eq!(a.freq_mhz(), 240);
        assert_eq!(a.issue.load_latency, 3);
        assert_eq!(a.issue.loads_per_instr, 2);
        assert_eq!(a.issue.jump_delay_slots, 3);
        assert_eq!(a.mem.dcache.size, 16 * 1024);
        assert_eq!(a.mem.dcache.line, 64);
        assert_eq!(a.mem.dcache.ways, 8);
        assert!(!a.mem.allocate_on_write_miss);
    }

    #[test]
    fn config_d_matches_table1_tm3270() {
        let d = MachineConfig::config_d();
        assert_eq!(d.freq_mhz(), 350);
        assert_eq!(d.issue.load_latency, 4);
        assert_eq!(d.issue.loads_per_instr, 1);
        assert_eq!(d.issue.jump_delay_slots, 5);
        assert_eq!(d.mem.dcache.size, 128 * 1024);
        assert_eq!(d.mem.dcache.line, 128);
        assert_eq!(d.mem.dcache.ways, 4);
        assert!(d.mem.allocate_on_write_miss);
        assert_eq!(d.mem.icache.size, 64 * 1024);
        assert_eq!(d.mem.icache.ways, 8);
    }

    #[test]
    fn configs_b_c_share_small_cache_with_tm3270_core() {
        let b = MachineConfig::config_b();
        let c = MachineConfig::config_c();
        assert_eq!(b.mem.dcache.size, 16 * 1024);
        assert_eq!(b.mem.dcache.line, 128, "TM3270 line size retained");
        assert_eq!(b.freq_mhz(), 240);
        assert_eq!(c.freq_mhz(), 350);
        assert_eq!(b.issue, IssueModel::tm3270());
        assert_eq!(b.mem.dcache, c.mem.dcache);
    }

    #[test]
    fn suite_is_ordered_a_to_d() {
        let suite = MachineConfig::evaluation_suite();
        assert!(suite[0].name.contains('A'));
        assert!(suite[3].name.contains('D'));
    }
}
