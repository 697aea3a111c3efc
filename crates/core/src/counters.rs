//! The one declaration of every [`RunStats`] counter a document reports
//! (JSON key, unit, meaning, accessor). JSON writers select rows instead
//! of spelling keys, and [`RunStats::report`] prints them all. Values go
//! through [`json::number`]; counts stay below 2^53 (the snapshot table
//! refuses more), so the `f64` an accessor returns holds them exactly.
//! The two memory-model time totals are ticks rendered as cycles
//! ([`FullStats::cycles`](tm3270_mem::FullStats::cycles)).

use crate::pipeline::RunStats;
use tm3270_obs::json;

/// One counter of a run.
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    /// JSON key in a flat document (wire `stats`, suite cells).
    pub key: &'static str,
    /// Key inside the profile group object that nests it (`dcache`,
    /// `icache`, `prefetch`, `branches`); empty if none does.
    pub nested: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// What the value counts.
    pub meaning: &'static str,
    /// How text renders the value.
    pub form: Form,
    /// Reads the value from a run's statistics.
    pub value: fn(&RunStats) -> f64,
}

/// `rows` as comma-separated `"key":value` fields (no braces).
pub fn json_fields(stats: &RunStats, rows: &[Counter]) -> String {
    fields(stats, rows, |c| c.key)
}

/// `rows` as comma-separated fields keyed by [`Counter::nested`].
pub fn json_nested(stats: &RunStats, rows: &[Counter]) -> String {
    fields(stats, rows, |c| c.nested)
}

/// How a counter's value renders as text (JSON renders every form
/// through [`json::number`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// A count or a clock total: shortest exact form.
    Count,
    /// A quotient of counts: three decimals.
    Ratio,
}

impl Counter {
    /// The value in `stats` as report text, formatted by [`Counter::form`].
    pub fn text(&self, stats: &RunStats) -> String {
        let v = (self.value)(stats);
        match self.form {
            Form::Count => json::number(v),
            Form::Ratio => format!("{v:.3}"),
        }
    }
}

fn fields(stats: &RunStats, rows: &[Counter], key: fn(&Counter) -> &str) -> String {
    let fields: Vec<String> = rows
        .iter()
        .map(|c| format!("\"{}\":{}", key(c), json::number((c.value)(stats))))
        .collect();
    fields.join(",")
}

macro_rules! counters {
    ($($name:ident: $key:literal, $nested:literal, $unit:literal, $meaning:literal,
       $($form:ident)? |$s:ident| $value:expr;)*) => {
        $(
            #[doc = concat!("`", $key, "`: ", $meaning)]
            pub const $name: Counter = Counter {
                key: $key,
                nested: $nested,
                unit: $unit,
                meaning: $meaning,
                form: counters!(@form $($form)?),
                value: |$s| $value as f64,
            };
        )*
        /// Every counter, in report order.
        pub const COUNTERS: &[Counter] = &[$($name),*];
    };
    (@form) => { Form::Count };
    (@form $form:ident) => { Form::$form };
}

counters! {
    CYCLES: "cycles", "", "cycles", "Total cycles.", |s| s.cycles;
    INSTRS: "instrs", "", "instrs", "VLIW instructions issued.", |s| s.instrs;
    OPS: "ops", "", "ops", "Operations issued, guard true or false.", |s| s.ops;
    EXEC_OPS: "exec_ops", "", "ops", "Operations whose guard was true.", |s| s.exec_ops;
    BRANCHES: "branches", "resolved", "branches", "Branches resolved.", |s| s.branches;
    TAKEN_BRANCHES: "taken_branches", "taken", "branches", "Branches taken.",
        |s| s.taken_branches;
    IFETCH_STALL: "ifetch_stall", "", "cycles", "Instruction-fetch stall.",
        |s| s.ifetch_stall_cycles;
    DATA_STALL: "data_stall", "", "cycles", "Data-side stall.", |s| s.data_stall_cycles;
    DCACHE_HITS: "dcache_hits", "hits", "accesses", "D$ full hits.", |s| s.mem.dcache.hits;
    DCACHE_PARTIAL_HITS: "dcache_partial_hits", "partial_hits", "accesses",
        "D$ lookups finding the line but not all bytes valid.", |s| s.mem.dcache.partial_hits;
    DCACHE_MISSES: "dcache_misses", "misses", "accesses", "D$ misses.",
        |s| s.mem.dcache.misses;
    DCACHE_PREFETCH_HITS: "dcache_prefetch_hits", "prefetch_hits", "accesses",
        "D$ hits on prefetched lines.", |s| s.mem.dcache.prefetch_hits;
    DCACHE_REFILL_MERGES: "dcache_refill_merges", "refill_merges", "lines",
        "D$ fills merged into an allocated line.", |s| s.mem.dcache.refill_merges;
    DCACHE_FILLS: "dcache_fills", "", "lines", "D$ lines filled from memory.",
        |s| s.mem.dcache.fills;
    DCACHE_ALLOCATIONS: "dcache_allocations", "", "lines", "D$ lines allocated unfilled.",
        |s| s.mem.dcache.allocations;
    DCACHE_COPYBACKS: "dcache_copybacks", "", "lines", "D$ victims and flushes copied back.",
        |s| s.mem.dcache.copybacks;
    DCACHE_COPYBACK_BYTES: "dcache_copyback_bytes", "", "bytes", "Valid bytes copied back.",
        |s| s.mem.dcache.copyback_bytes;
    ICACHE_HITS: "icache_hits", "hits", "accesses", "I$ full hits.", |s| s.mem.icache.hits;
    ICACHE_PARTIAL_HITS: "icache_partial_hits", "partial_hits", "accesses",
        "I$ lookups finding the line but not all bytes valid.", |s| s.mem.icache.partial_hits;
    ICACHE_MISSES: "icache_misses", "misses", "accesses", "I$ misses.",
        |s| s.mem.icache.misses;
    ICACHE_PREFETCH_HITS: "icache_prefetch_hits", "prefetch_hits", "accesses",
        "I$ hits on prefetched lines.", |s| s.mem.icache.prefetch_hits;
    ICACHE_REFILL_MERGES: "icache_refill_merges", "refill_merges", "lines",
        "I$ fills merged into an allocated line.", |s| s.mem.icache.refill_merges;
    IFETCHES: "ifetches", "", "fetches", "Instruction-fetch chunk requests.",
        |s| s.mem.mem.ifetches;
    PREFETCH_ISSUED: "prefetch_issued", "issued", "lines", "Prefetches sent to DRAM.",
        |s| s.mem.prefetch.issued;
    PREFETCH_FILTERED: "prefetch_filtered", "", "lines", "Prefetches of cached lines.",
        |s| s.mem.prefetch.filtered;
    PREFETCH_DROPPED: "prefetch_dropped", "", "lines", "Prefetches dropped, queue full.",
        |s| s.mem.prefetch.dropped;
    DRAM_TRANSFERS: "dram_transfers", "", "transfers", "DRAM transactions.",
        |s| s.mem.dram.transfers;
    DRAM_DEMAND_TRANSFERS: "dram_demand_transfers", "", "transfers",
        "DRAM demand transactions.", |s| s.mem.dram.demand_transfers;
    DRAM_BYTES: "dram_bytes", "", "bytes", "Bytes over the DRAM channel.",
        |s| s.mem.dram.bytes;
    DRAM_BUSY: "dram_busy_cycles", "", "cycles", "DRAM channel busy time.",
        |s| s.mem.cycles(s.mem.dram.busy_ticks);
    PREFETCH_WAIT: "prefetch_wait_cycles", "late_wait_cycles", "cycles",
        "Waits on in-flight prefetches.", |s| s.mem.cycles(s.mem.mem.prefetch_wait_ticks);
    TIME_US: "time_us", "", "us", "Time at the configured clock.", Ratio |s| s.time_us();
    CPI: "cpi", "", "cycles/instr", "Cycles per VLIW instruction.", Ratio |s| s.cpi();
    OPI: "opi", "", "ops/instr", "Executed operations per VLIW instruction.",
        Ratio |s| s.opi();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, MachineConfig};
    use tm3270_asm::ProgramBuilder;
    use tm3270_isa::{Op, Opcode, Reg};

    fn run() -> RunStats {
        let config = MachineConfig::tm3270();
        let mut b = ProgramBuilder::new(config.issue);
        b.op(Op::imm(Reg::new(2), 0x1000));
        b.op(Op::rri(Opcode::Ld32d, Reg::new(3), Reg::new(2), 0));
        let mut m = Machine::new(config, b.build().unwrap()).unwrap();
        m.run_with(crate::RunOptions::budget(1_000_000))
            .into_result()
            .unwrap()
    }

    #[test]
    fn keys_are_unique() {
        let mut keys: Vec<&str> = COUNTERS.iter().map(|c| c.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), COUNTERS.len(), "duplicate key");
    }

    #[test]
    fn fields_render_through_json_number() {
        let stats = run();
        let fields = json_fields(&stats, &[CYCLES, TIME_US]);
        assert_eq!(
            fields,
            format!(
                "\"cycles\":{},\"time_us\":{}",
                stats.cycles,
                json::number(stats.time_us())
            )
        );
        assert_eq!(
            json_nested(&stats, &[DCACHE_MISSES, BRANCHES]),
            format!(
                "\"misses\":{},\"resolved\":{}",
                stats.mem.dcache.misses, stats.branches
            )
        );
    }

    #[test]
    fn text_form_comes_from_the_row() {
        let mut stats = run();
        stats.cycles = 2 * stats.instrs;
        assert_eq!(CPI.text(&stats), "2.000");
        assert_eq!(CYCLES.text(&stats), stats.cycles.to_string());
        assert!(COUNTERS
            .iter()
            .filter(|c| c.form == Form::Ratio)
            .map(|c| c.key)
            .eq(["time_us", "cpi", "opi"]));
    }
}
