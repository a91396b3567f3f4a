//! Pieces every workload shares: machines, the interpreter oracle, the
//! code-quality tally, and the result line.

use parsched::ir::interp::{Interpreter, Memory};
use parsched::ir::Function;
use parsched::CompileStats;
use std::fmt::Write;

/// Worker threads for batch compiles: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The correctness oracle: runs a compiled function and its original in
/// the reference interpreter — which is not part of the compiler under
/// test — on seeded argument and memory images, and compares return
/// values and every memory cell outside the spill region.
pub struct Oracle {
    images: Vec<([i64; 2], Memory)>,
}

impl Oracle {
    pub fn new(seed: u64) -> Oracle {
        let images = (0..2u64)
            .map(|k| {
                let salt = seed.wrapping_mul(0x9e37_79b9).wrapping_add(k);
                let args = [4096, 8192 + 8 * (salt % 64) as i64];
                // Loads reach at most ~60 words past either base.
                let mut mem = Memory::new();
                for i in 0..128i64 {
                    let v = (salt as i64).wrapping_mul(31).wrapping_add(i * 17 + 3) % 1000;
                    mem.set_abs(4096 + 8 * i, v);
                    mem.set_abs(args[1] + 8 * i, v ^ 0x55);
                }
                (args, mem)
            })
            .collect();
        Oracle { images }
    }

    pub fn agrees(&self, original: &Function, compiled: &Function) -> bool {
        let interp = Interpreter::new();
        let visible = |m: &Memory| {
            m.snapshot()
                .into_iter()
                .filter(|((region, _), _)| region != "__spill")
                .collect::<Vec<_>>()
        };
        self.images.iter().all(|(args, mem)| {
            match (
                interp.run(original, args, mem.clone()),
                interp.run(compiled, args, mem.clone()),
            ) {
                (Ok(a), Ok(b)) => {
                    a.return_value == b.return_value && visible(&a.memory) == visible(&b.memory)
                }
                _ => false,
            }
        })
    }
}

/// Code-quality totals: what users of the emitted code pay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quality {
    pub cycles: u64,
    pub code_insts: u64,
    pub spilled: u64,
    pub false_deps: u64,
}

impl Quality {
    pub fn add(&mut self, s: &CompileStats) {
        self.cycles += u64::from(s.cycles);
        self.code_insts += s.inst_count as u64;
        self.spilled += s.spilled_values as u64;
        self.false_deps += s.introduced_false_deps as u64;
    }
}

/// Distance of the combined heuristic to the exact optimum on the seeded
/// gap sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GapTally {
    pub blocks: u64,
    pub proven: u64,
    /// Blocks where combined's (spills, registers, cycles) equals the
    /// proven optimum.
    pub optimal: u64,
    /// Σ (combined cycles − optimal cycles) over proven blocks, clamped at
    /// zero per block as `fuzz --gap` does.
    pub cycle_gap: u64,
    /// Blocks where combined beat the solver's proven optimum.
    pub anomalies: u64,
}

/// The result of one run: the human-readable table and the JSON line.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Prints the table, then the JSON result as the last stdout line.
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<30} {value:>16.6} {unit}");
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<30} {share:>16.6} ratio ({} of {} operations)",
            "fail_share", self.failed, self.attempted
        );
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; they only arise from a broken
            // run, which `correct` already reports.
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}
