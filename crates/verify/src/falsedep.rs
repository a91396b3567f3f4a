//! False-dependence freedom (the paper's Theorem 1).
//!
//! Pinter's combined approach promises that register allocation never
//! introduces a *false* dependence between instructions the schedule graph
//! leaves unordered: build `Et` (undirected transitive closure of `Gs`
//! plus pairwise machine conflicts), take its complement `Gf` (Lemma 1),
//! and only merge values whose instructions are `Et`-related. The checker
//! re-derives all of that from the output code alone:
//!
//! 1. value-number the block ("rename apart"), so the dependence graph of
//!    the value view is `Gs` — registers reused by the allocator cannot
//!    manufacture edges here;
//! 2. close it and add machine conflicts to get `Et`;
//! 3. every pair of instructions *not* in `Et` (i.e. `Gf`-adjacent, a
//!    parallelism opportunity the paper promises to keep) must be free of
//!    register **output** dependences in the emitted code.
//!
//! Only output dependences are flagged: the cost model (paper footnote 2)
//! prices register anti dependences at zero — the register file reads
//! before it writes within a cycle — so a combined allocation may
//! legitimately leave them behind, and the pipeline's own false-dependence
//! count draws the same line. The deviation from a
//! literal "no anti/output" reading is documented in docs/VERIFICATION.md.
//!
//! The caller gates this check to combined-strategy results that ran at
//! full fidelity (no degradation, no spills, no edges the pipeline itself
//! admits to having introduced); for other strategies the theorem makes no
//! promise.

use crate::analyze;
use crate::{Check, Violation};
use parsched::CompileResult;
use parsched_ir::{BlockId, Function};
use parsched_machine::MachineDesc;

/// Checks every block of `result` for false output dependences on
/// `Gf`-adjacent pairs. `original` provides message context only.
pub fn check(original: &Function, result: &CompileResult, machine: &MachineDesc) -> Vec<Violation> {
    let mut out = Vec::new();
    let func = &result.function;
    for b in 0..func.block_count() {
        let block = func.block(BlockId(b));
        let body = block.body();
        let view = analyze::value_view(block);
        let succ = analyze::value_deps(&view);
        let et = analyze::et_pairs(&succ, &view.classes, machine);
        for j in 0..body.len() {
            let defs_j = body[j].defs();
            for i in 0..j {
                if et[i][j] {
                    continue;
                }
                let defs_i = body[i].defs();
                if let Some(r) = defs_i.iter().find(|d| defs_j.contains(d)) {
                    out.push(Violation {
                        check: Check::FalseDep,
                        function: original.name().to_string(),
                        block: Some(b),
                        detail: format!(
                            "instructions {i} and {j} are unordered in Et yet both \
                             define {r}: the allocation introduced a false output \
                             dependence (Theorem 1)"
                        ),
                    });
                }
            }
        }
    }
    out
}
