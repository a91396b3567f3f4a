//! Ready-made machine descriptions.
//!
//! These model the machines the paper names at the structural level its
//! construction observes — unit classes, unit counts, issue width, result
//! latencies — not microarchitectural detail. See DESIGN.md for the
//! substitution rationale.

use crate::{MachineDesc, OpClass};

/// A single-issue pipelined uniprocessor: one universal unit, loads take two
/// cycles (the classic load-delay-slot machine the paper says its results
/// also apply to).
pub fn single_issue(num_regs: u32) -> MachineDesc {
    let mut b = MachineDesc::builder("single-issue");
    b.issue_width(1).num_regs(num_regs);
    let u = b.unit("u", 1);
    b.route(OpClass::IntAlu, u, 1)
        .route(OpClass::FloatAlu, u, 2)
        .route(OpClass::MemLoad, u, 2)
        .route(OpClass::MemStore, u, 1)
        .route(OpClass::Branch, u, 1)
        .route(OpClass::Call, u, 1)
        .route(OpClass::Nop, u, 1);
    b.finish()
}

/// The machine of the paper's Section 3 walk-through: "a processor with two
/// arithmetic units (fixed-point and floating-point)" plus "only one
/// fetching unit" shared by all loads and stores, and a branch unit.
///
/// All latencies are one cycle so schedules match the paper's cycle-level
/// reasoning exactly.
pub fn paper_machine(num_regs: u32) -> MachineDesc {
    let mut b = MachineDesc::builder("paper-2unit");
    b.issue_width(4).num_regs(num_regs);
    let fixed = b.unit("fixed", 1);
    let float = b.unit("float", 1);
    let fetch = b.unit("fetch", 1);
    let branch = b.unit("branch", 1);
    b.route(OpClass::IntAlu, fixed, 1)
        .route(OpClass::FloatAlu, float, 1)
        .route(OpClass::MemLoad, fetch, 1)
        .route(OpClass::MemStore, fetch, 1)
        .route(OpClass::Branch, branch, 1)
        .route(OpClass::Call, branch, 1)
        .route(OpClass::Nop, fixed, 1);
    b.finish()
}

/// A MIPS R3000-like machine: single issue, but with realistic latencies
/// (load 2, float 2+) so scheduling still matters for pipeline slots.
pub fn mips_r3000(num_regs: u32) -> MachineDesc {
    let mut b = MachineDesc::builder("mips-r3000");
    b.issue_width(1).num_regs(num_regs);
    let u = b.unit("pipe", 1);
    b.route(OpClass::IntAlu, u, 1)
        .route(OpClass::FloatAlu, u, 2)
        .route(OpClass::MemLoad, u, 2)
        .route(OpClass::MemStore, u, 1)
        .route(OpClass::Branch, u, 1)
        .route(OpClass::Call, u, 1)
        .route(OpClass::Nop, u, 1);
    b.finish()
}

/// An IBM RISC System/6000-like machine: "three functional units: fixed
/// point, floating point and branch units"; loads and stores execute on the
/// fixed-point unit, floating-point ops have 2-cycle latency.
pub fn rs6000(num_regs: u32) -> MachineDesc {
    let mut b = MachineDesc::builder("rs6000");
    b.issue_width(3).num_regs(num_regs);
    let fixed = b.unit("fixed", 1);
    let float = b.unit("float", 1);
    let branch = b.unit("branch", 1);
    b.route(OpClass::IntAlu, fixed, 1)
        .route(OpClass::FloatAlu, float, 2)
        .route(OpClass::MemLoad, fixed, 2)
        .route(OpClass::MemStore, fixed, 1)
        .route(OpClass::Branch, branch, 1)
        .route(OpClass::Call, branch, 1)
        .route(OpClass::Nop, fixed, 1);
    b.finish()
}

/// A wide hypothetical superscalar: `n` universal units and issue width `n`.
/// Used to measure how much parallelism each strategy leaves on the table
/// when the machine itself is not the bottleneck.
pub fn wide(n: usize, num_regs: u32) -> MachineDesc {
    let mut b = MachineDesc::builder(format!("wide-{n}"));
    b.issue_width(n).num_regs(num_regs);
    let u = b.unit("u", n);
    b.route(OpClass::IntAlu, u, 1)
        .route(OpClass::FloatAlu, u, 1)
        .route(OpClass::MemLoad, u, 1)
        .route(OpClass::MemStore, u, 1)
        .route(OpClass::Branch, u, 1)
        .route(OpClass::Call, u, 1)
        .route(OpClass::Nop, u, 1);
    b.finish()
}

/// The label of [`paper_machine`], the machine `psc` and `pscd` requests
/// target unless they name another.
pub const DEFAULT_NAME: &str = "paper";

/// The preset a command-line or protocol label names — `single`,
/// `paper`, `mips`, `rs6000` or `wide4` — with `num_regs` registers, or
/// `None` for any other label. `psc --machine` and `pscd` requests share
/// this one table.
pub fn by_name(label: &str, num_regs: u32) -> Option<MachineDesc> {
    Some(match label {
        "single" => single_issue(num_regs),
        "paper" => paper_machine(num_regs),
        "mips" => mips_r3000(num_regs),
        "rs6000" => rs6000(num_regs),
        "wide4" => wide(4, num_regs),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_constraints_match_section3() {
        let m = paper_machine(16);
        // One fixed unit: two fixed ops conflict (the paper's {s3, s4} edge).
        assert!(m.pairwise_conflict(OpClass::IntAlu, OpClass::IntAlu));
        // One fetch unit: loads pairwise conflict.
        assert!(m.pairwise_conflict(OpClass::MemLoad, OpClass::MemLoad));
        assert!(m.pairwise_conflict(OpClass::MemLoad, OpClass::MemStore));
        // Fixed vs float vs load are independent.
        assert!(!m.pairwise_conflict(OpClass::IntAlu, OpClass::FloatAlu));
        assert!(!m.pairwise_conflict(OpClass::IntAlu, OpClass::MemLoad));
        assert!(!m.pairwise_conflict(OpClass::FloatAlu, OpClass::MemLoad));
    }

    #[test]
    fn rs6000_loads_contend_with_fixed() {
        let m = rs6000(32);
        assert!(m.pairwise_conflict(OpClass::MemLoad, OpClass::IntAlu));
        assert!(!m.pairwise_conflict(OpClass::FloatAlu, OpClass::IntAlu));
        assert_eq!(m.latency(OpClass::FloatAlu), 2);
    }

    #[test]
    fn wide_machine_has_no_pairwise_conflicts() {
        let m = wide(8, 32);
        for a in OpClass::ALL {
            for b in OpClass::ALL {
                assert!(!m.pairwise_conflict(a, b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn by_name_resolves_every_label_and_rejects_others() {
        let named = |m: Option<MachineDesc>| m.map(|m| (m.name().to_string(), m.num_regs()));
        for (label, preset) in [
            ("single", single_issue(7)),
            ("paper", paper_machine(7)),
            ("mips", mips_r3000(7)),
            ("rs6000", rs6000(7)),
            ("wide4", wide(4, 7)),
            (DEFAULT_NAME, paper_machine(7)),
        ] {
            assert_eq!(named(by_name(label, 7)), named(Some(preset)), "{label}");
        }
        assert!(by_name("vax", 7).is_none());
        assert!(by_name("wide-4", 7).is_none());
    }

    #[test]
    fn preset_names_are_distinct() {
        let names = [
            single_issue(8).name().to_string(),
            paper_machine(8).name().to_string(),
            mips_r3000(8).name().to_string(),
            rs6000(8).name().to_string(),
            wide(4, 8).name().to_string(),
        ];
        let mut unique = names.to_vec();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
