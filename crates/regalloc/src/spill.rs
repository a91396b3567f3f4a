//! Spill-code insertion.
//!
//! A spilled value lives in a dedicated memory slot (`[@__spill + 8k]`).
//! Its definition is followed by a store; every use reads the slot into a
//! fresh symbolic register just before the using instruction. Live-in
//! values (parameters) are stored at block entry. The fresh reload
//! registers have point live ranges, so the rewritten block is strictly
//! easier to color.

use parsched_ir::{Block, BlockId, Function, Inst, InstKind, MemAddr, Reg};
use parsched_sched::BlockRemap;
use std::collections::HashMap;

/// The reserved global region that holds spilled values.
pub const SPILL_REGION: &str = "__spill";

/// Allocates spill slots and rewrites one block of `func`, spilling the
/// given symbolic registers. Returns the rewritten function, the number of
/// memory operations inserted, and a [`BlockRemap`] from old to new body
/// positions (every original instruction survives the rewrite, so the map
/// is total) that lets an [`crate::AllocSession`] update its closure
/// incrementally instead of rebuilding from scratch.
///
/// `next_slot` is the next free slot index; it is advanced so repeated
/// spill rounds never reuse a slot.
///
/// Spill activity is reported to `telemetry`: `spill.values` (registers
/// spilled), `spill.inserted_mem_ops` (loads/stores added), and one
/// `spill.value` event per register.
///
/// # Panics
/// Panics if a spilled register is not symbolic (physical registers are
/// never spill candidates in this workspace).
pub fn insert_spill_code(
    func: &Function,
    block_id: BlockId,
    spills: &[Reg],
    next_slot: &mut i64,
    telemetry: &dyn parsched_telemetry::Telemetry,
) -> (Function, usize, BlockRemap) {
    let _span = parsched_telemetry::span(telemetry, "spill.rewrite");
    if telemetry.enabled() {
        telemetry.counter("spill.values", spills.len() as u64);
        for &r in spills {
            telemetry.event("spill.value", &r.to_string());
        }
    }
    for &r in spills {
        assert!(r.is_sym(), "only symbolic registers are spilled, got {r}");
    }
    let slot_of = assign_slots(func, block_id, spills, next_slot);
    let mut fresh = func.num_sym_regs();
    let mut inserted = 0usize;

    let old_block = func.block(block_id);
    let old_body_len = old_block.body().len();
    let mut old_to_new: Vec<usize> = Vec::with_capacity(old_body_len);
    let mut new_block = Block::new(old_block.label());

    // Live-in spills (parameters or upstream values): store on entry.
    let defined_in_block: Vec<Reg> = old_block.insts().iter().flat_map(Inst::defs).collect();
    for &r in spills {
        if !defined_in_block.contains(&r) {
            new_block.push(InstKind::Store {
                src: r,
                addr: spill_addr(slot_of[&r]),
                float: false,
            });
            inserted += 1;
        }
    }

    for (old_pos, inst) in old_block.insts().iter().enumerate() {
        // Reload each spilled use into a fresh register.
        let mut replacement: HashMap<Reg, Reg> = HashMap::new();
        for u in inst.uses() {
            if let Some(&slot) = slot_of.get(&u) {
                replacement.entry(u).or_insert_with(|| {
                    let tmp = Reg::sym(fresh);
                    fresh += 1;
                    new_block.push(InstKind::Load {
                        dst: tmp,
                        addr: spill_addr(slot),
                        float: false,
                    });
                    inserted += 1;
                    tmp
                });
            }
        }
        let mut rewritten = inst.clone();
        if !replacement.is_empty() {
            rewritten.map_regs(|r| {
                // Only *uses* are replaced; a def of a spilled reg keeps its
                // name (the store below captures it). Defs and uses of the
                // same spilled reg cannot collide because the block-level
                // problem enforces single definitions.
                *replacement.get(&r).unwrap_or(&r)
            });
        }
        let defs = rewritten.defs();
        if old_pos < old_body_len {
            old_to_new.push(new_block.insts().len());
        }
        new_block.push(rewritten);
        // Store each spilled definition right after it.
        for d in defs {
            if let Some(&slot) = slot_of.get(&d) {
                new_block.push(InstKind::Store {
                    src: d,
                    addr: spill_addr(slot),
                    float: false,
                });
                inserted += 1;
            }
        }
    }

    let remap = BlockRemap::new(old_to_new, new_block.body().len());
    let mut blocks = func.blocks().to_vec();
    blocks[block_id.0] = new_block;
    if telemetry.enabled() {
        telemetry.counter("spill.inserted_mem_ops", inserted as u64);
    }
    (
        Function::new(func.name(), func.params().to_vec(), blocks),
        inserted,
        remap,
    )
}

fn spill_addr(slot: i64) -> MemAddr {
    MemAddr::global(SPILL_REGION, slot * 8)
}

/// Assigns spill slots with interval coloring: two spilled values whose
/// memory lifetimes ([definition, last use] in block positions) do not
/// overlap share a slot. `next_slot` advances by the number of distinct
/// slots used, so rounds never collide.
fn assign_slots(
    func: &Function,
    block_id: BlockId,
    spills: &[Reg],
    next_slot: &mut i64,
) -> HashMap<Reg, i64> {
    let insts = func.block(block_id).insts();
    // Memory lifetime of each spilled value in instruction positions.
    // Live-in values (no def in this block) are stored at block *entry*,
    // before position 0 — their lifetime starts at -1, not 0, so they can
    // never share a slot with a value whose reload happens at or after
    // entry (two live-in spills would otherwise clobber each other).
    let mut ranges: Vec<(Reg, i64, i64)> = spills
        .iter()
        .map(|&r| {
            let def = insts
                .iter()
                .position(|i| i.defs().contains(&r))
                .map_or(-1, |p| p as i64);
            let last_use = insts
                .iter()
                .rposition(|i| i.uses().contains(&r))
                .map_or(insts.len() as i64, |p| p as i64);
            (r, def, last_use.max(def))
        })
        .collect();
    ranges.sort_by_key(|&(r, start, _)| (start, r));

    // Greedy interval coloring: reuse the slot with the earliest-expiring
    // lifetime that ends before this one starts.
    let mut slot_of: HashMap<Reg, i64> = HashMap::new();
    let mut slot_free_at: Vec<(i64, i64)> = Vec::new(); // (slot, busy-until)
    for (r, start, end) in ranges {
        // `<=` is safe at equality: the old value's reload is emitted
        // *before* the boundary instruction and the new value's store
        // *after* it, and the memory anti-dependence keeps that order
        // under any later rescheduling.
        let reusable = slot_free_at
            .iter_mut()
            .filter(|(_, busy_until)| *busy_until <= start)
            .min_by_key(|(slot, _)| *slot);
        match reusable {
            Some(entry) => {
                entry.1 = end;
                slot_of.insert(r, entry.0);
            }
            None => {
                let slot = *next_slot;
                *next_slot += 1;
                slot_free_at.push((slot, end));
                slot_of.insert(r, slot);
            }
        }
    }
    slot_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_ir::interp::{Interpreter, Memory};
    use parsched_ir::parse_function;

    #[test]
    fn spilled_def_and_uses_rewritten() {
        let f = parse_function(
            r#"
            func @sp(s0) {
            entry:
                s1 = add s0, 1
                s2 = add s1, 2
                s3 = add s1, s2
                ret s3
            }
            "#,
        )
        .unwrap();
        let mut slot = 0;
        let (g, inserted, remap) = insert_spill_code(
            &f,
            BlockId(0),
            &[Reg::sym(1)],
            &mut slot,
            &parsched_telemetry::NullTelemetry,
        );
        assert_eq!(slot, 1);
        // One store after the def + two reloads.
        assert_eq!(inserted, 3);
        assert_eq!(g.inst_count(), f.inst_count() + 3);
        // The remap tracks every surviving body instruction: old body
        // position p holds the same opcode/def as new position remap(p).
        let old_body = f.block(BlockId(0)).body();
        let new_body = g.block(BlockId(0)).body();
        assert_eq!(remap.old_len(), old_body.len());
        assert_eq!(remap.new_len(), new_body.len());
        for (p, inst) in old_body.iter().enumerate() {
            assert_eq!(inst.defs(), new_body[remap.new_pos(p)].defs());
        }
        // Semantics preserved.
        let i = Interpreter::new();
        let before = i.run(&f, &[10], Memory::new()).unwrap();
        let after = i.run(&g, &[10], Memory::new()).unwrap();
        assert_eq!(before.return_value, after.return_value);
    }

    #[test]
    fn live_in_spill_stores_at_entry() {
        let f = parse_function(
            r#"
            func @li(s0) {
            entry:
                s1 = add s0, 1
                s2 = add s0, s1
                ret s2
            }
            "#,
        )
        .unwrap();
        let mut slot = 5;
        let (g, inserted, _) = insert_spill_code(
            &f,
            BlockId(0),
            &[Reg::sym(0)],
            &mut slot,
            &parsched_telemetry::NullTelemetry,
        );
        assert_eq!(slot, 6);
        assert_eq!(inserted, 3, "entry store + two reloads");
        // First instruction is the entry store to slot 5 (offset 40).
        let first = &g.block(BlockId(0)).insts()[0];
        assert!(matches!(first.kind(), InstKind::Store { .. }));
        let i = Interpreter::new();
        assert_eq!(
            i.run(&g, &[7], Memory::new()).unwrap().return_value,
            i.run(&f, &[7], Memory::new()).unwrap().return_value
        );
    }

    #[test]
    fn multiple_spills_get_distinct_slots() {
        let f = parse_function(
            r#"
            func @m(s0) {
            entry:
                s1 = add s0, 1
                s2 = add s0, 2
                s3 = add s1, s2
                ret s3
            }
            "#,
        )
        .unwrap();
        let mut slot = 0;
        let (g, _, _) = insert_spill_code(
            &f,
            BlockId(0),
            &[Reg::sym(1), Reg::sym(2)],
            &mut slot,
            &parsched_telemetry::NullTelemetry,
        );
        assert_eq!(slot, 2);
        let text = parsched_ir::print_function(&g);
        assert!(text.contains("[@__spill + 0]"));
        assert!(text.contains("[@__spill + 8]"));
        let i = Interpreter::new();
        assert_eq!(
            i.run(&g, &[3], Memory::new()).unwrap().return_value,
            Some(9)
        );
    }

    #[test]
    fn disjoint_spills_share_a_slot() {
        // s1 dies (last use) before s2 is defined: one slot serves both.
        let f = parse_function(
            r#"
            func @share(s0) {
            entry:
                s1 = add s0, 1
                s2 = add s1, 1
                s3 = add s2, 1
                ret s3
            }
            "#,
        )
        .unwrap();
        let mut slot = 0;
        let (g, _, _) = insert_spill_code(
            &f,
            BlockId(0),
            &[Reg::sym(1), Reg::sym(2)],
            &mut slot,
            &parsched_telemetry::NullTelemetry,
        );
        assert_eq!(slot, 1, "non-overlapping lifetimes share one slot");
        let i = Interpreter::new();
        assert_eq!(
            i.run(&g, &[5], Memory::new()).unwrap().return_value,
            Some(8)
        );
    }

    #[test]
    fn overlapping_spills_get_distinct_slots() {
        let f = parse_function(
            r#"
            func @overlap(s0) {
            entry:
                s1 = add s0, 1
                s2 = add s0, 2
                s3 = add s1, s2
                ret s3
            }
            "#,
        )
        .unwrap();
        let mut slot = 0;
        let (g, _, _) = insert_spill_code(
            &f,
            BlockId(0),
            &[Reg::sym(1), Reg::sym(2)],
            &mut slot,
            &parsched_telemetry::NullTelemetry,
        );
        assert_eq!(slot, 2, "overlapping lifetimes need two slots");
        let i = Interpreter::new();
        assert_eq!(
            i.run(&g, &[5], Memory::new()).unwrap().return_value,
            Some(13)
        );
    }

    #[test]
    fn live_in_spills_never_share_a_slot() {
        // Both params are live-in, so both are stored at block entry;
        // sharing a slot would let the second store clobber the first
        // value before its reload. Found by the translation-validation
        // fuzzer (seed 0, case 44).
        let Ok(f) = parse_function(
            r#"
            func @li2(s0, s1) {
            entry:
                s2 = add s0, 1
                s3 = mul s2, s1
                ret s3
            }
            "#,
        ) else {
            unreachable!("fixture parses")
        };
        let mut slot = 0;
        let (g, _, _) = insert_spill_code(
            &f,
            BlockId(0),
            &[Reg::sym(0), Reg::sym(1)],
            &mut slot,
            &parsched_telemetry::NullTelemetry,
        );
        assert_eq!(slot, 2, "live-in spills need distinct slots");
        let i = Interpreter::new();
        let run = |h: &Function| {
            i.run(h, &[5, 3], Memory::new())
                .ok()
                .and_then(|o| o.return_value)
        };
        assert!(run(&f).is_some());
        assert_eq!(run(&g), run(&f));
    }

    #[test]
    fn spill_reduces_pressure() {
        use parsched_ir::liveness::Liveness;
        let f = parse_function(
            r#"
            func @p() {
            entry:
                s0 = li 1
                s1 = li 2
                s2 = li 3
                s3 = add s1, s2
                s4 = add s3, s0
                ret s4
            }
            "#,
        )
        .unwrap();
        let lv = Liveness::compute(&f, &[]);
        let before = lv.block_pressure(&f, BlockId(0));
        let mut slot = 0;
        let (g, _, _) = insert_spill_code(
            &f,
            BlockId(0),
            &[Reg::sym(0)],
            &mut slot,
            &parsched_telemetry::NullTelemetry,
        );
        let lv2 = Liveness::compute(&g, &[]);
        let after = lv2.block_pressure(&g, BlockId(0));
        assert!(after < before, "pressure {before} -> {after}");
    }

    #[test]
    fn terminator_use_is_reloaded() {
        let f = parse_function(
            r#"
            func @t() {
            entry:
                s0 = li 42
                ret s0
            }
            "#,
        )
        .unwrap();
        let mut slot = 0;
        let (g, _, _) = insert_spill_code(
            &f,
            BlockId(0),
            &[Reg::sym(0)],
            &mut slot,
            &parsched_telemetry::NullTelemetry,
        );
        let i = Interpreter::new();
        assert_eq!(
            i.run(&g, &[], Memory::new()).unwrap().return_value,
            Some(42)
        );
        // Ret now returns a reload temp, not s0.
        let last = g.block(BlockId(0)).insts().last().unwrap();
        assert!(matches!(last.kind(), InstKind::Ret { value: Some(r) } if *r != Reg::sym(0)));
    }
}
