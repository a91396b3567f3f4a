//! Earliest-possible (EP) numbering and the paper's pre-scheduling pass.
//!
//! Section 4 of the paper: "Since the interference graph of the code uses
//! the sequential ordering of the instructions we will add a preliminary
//! scheduling heuristic for selecting one such order. … The EP numbers are
//! computed from the scheduling graph; … Whenever all the operations with
//! the same EP number cannot be scheduled together (machine limitations)
//! select the operations to be postponed; increase the EP number of each
//! node in the postponed set and update the EP numbers on all the paths
//! leaving the node. When this process terminates select a linear order
//! which is consistent with the partial order of the new EP numbers and
//! reorder the program segment accordingly."

use crate::deps::DepGraph;
use crate::timing::BlockTiming;
use parsched_graph::CycleError;
use parsched_ir::Block;
use parsched_machine::MachineDesc;

/// Latency-aware earliest-possible issue times ignoring resources: the
/// longest dependence path from any root to each node.
///
/// # Errors
/// Never in practice: a [`DepGraph`]'s edges all point forward, so it is
/// acyclic. The `Result` is kept for API compatibility.
pub fn ep_numbers(deps: &DepGraph, machine: &MachineDesc) -> Result<Vec<u32>, CycleError> {
    let timing = BlockTiming::of_body(deps, machine);
    let mut ep = vec![0u32; deps.len()];
    timing.relax(&mut ep);
    Ok(ep)
}

/// EP numbers after the paper's capacity-postponement refinement: while any
/// EP level holds more operations than the machine can issue together, the
/// lowest-priority excess operations (smallest critical-path height) are
/// postponed one level and the increase is propagated along outgoing paths.
///
/// # Errors
/// Never in practice: a [`DepGraph`]'s edges all point forward, so it is
/// acyclic. The `Result` is kept for API compatibility.
pub fn refined_ep_numbers(deps: &DepGraph, machine: &MachineDesc) -> Result<Vec<u32>, CycleError> {
    let timing = BlockTiming::of_body(deps, machine);
    let n = deps.len();
    let mut ep = vec![0u32; n];
    timing.relax(&mut ep);
    if n == 0 {
        return Ok(ep);
    }

    // Iterate levels in increasing order; the maximum level can grow as
    // operations are postponed.
    let mut level = 0u32;
    let mut guard = 0usize;
    // One level check's buffers, reused by every check.
    let mut scratch = timing.overflow_scratch();
    let mut at_level = Vec::new();
    while level <= ep.iter().copied().max().unwrap_or(0) {
        guard += 1;
        assert!(guard <= 4 * n * n + 16, "EP refinement failed to converge");
        at_level.clear();
        at_level.extend((0..n).filter(|&i| ep[i] == level));
        // Can they all issue in one cycle? Postpone what does not fit.
        at_level.sort_by_key(|&i| (std::cmp::Reverse(timing.heights()[i]), i));
        let postponed = timing.overflow(&at_level, &mut scratch);
        if postponed.is_empty() {
            level += 1;
            continue;
        }
        for &i in postponed {
            ep[i] += 1;
        }
        // Re-propagate the partial order: EP(v) ≥ EP(u) + latency(u→v).
        timing.relax(&mut ep);
        // Stay on the same level: other ops may still exceed capacity.
    }
    Ok(ep)
}

/// Reorders the body of `block` into a linear order consistent with the
/// refined EP numbers (ties keep original program order, which preserves
/// every dependence). Returns the reordered block.
///
/// This is the "registers allocation Algorithm" pre-pass of Section 4: it
/// improves the sequential order that live ranges — and therefore the
/// interference graph — are measured against.
///
/// # Errors
/// Never in practice: a [`DepGraph`]'s edges all point forward, so it is
/// acyclic. The `Result` is kept for API compatibility.
pub fn ep_reorder(
    block: &Block,
    deps: &DepGraph,
    machine: &MachineDesc,
) -> Result<Block, CycleError> {
    let ep = refined_ep_numbers(deps, machine)?;
    let mut idx: Vec<usize> = (0..deps.len()).collect();
    idx.sort_by_key(|&i| (ep[i], i));
    let mut out = Block::new(block.label());
    for i in idx {
        out.push(block.body()[i].clone());
    }
    if let Some(t) = block.terminator() {
        out.push(t.clone());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_ir::parse_function;
    use parsched_machine::presets;

    fn block(src: &str) -> Block {
        parse_function(src).unwrap().blocks()[0].clone()
    }

    #[test]
    fn ep_follows_longest_path() {
        let b = block(
            r#"
            func @ep(s0) {
            entry:
                s1 = load [s0 + 0]
                s2 = add s1, 1
                s3 = add s0, 1
                s4 = add s2, s3
                ret s4
            }
            "#,
        );
        let deps = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::rs6000(8); // load latency 2
        let ep = ep_numbers(&deps, &m).unwrap();
        assert_eq!(ep, vec![0, 2, 0, 3]);
    }

    #[test]
    fn refinement_postpones_over_capacity() {
        // Four independent loads all have EP 0, but one fetch unit exists:
        // refinement spreads them to levels 0..3.
        let b = block(
            r#"
            func @loads(s9) {
            entry:
                s0 = load [s9 + 0]
                s1 = load [s9 + 8]
                s2 = load [s9 + 16]
                s3 = load [s9 + 24]
                ret s0
            }
            "#,
        );
        let deps = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::paper_machine(8);
        let raw = ep_numbers(&deps, &m).unwrap();
        assert_eq!(raw, vec![0, 0, 0, 0]);
        let mut refined = refined_ep_numbers(&deps, &m).unwrap();
        refined.sort();
        assert_eq!(refined, vec![0, 1, 2, 3]);
    }

    #[test]
    fn reorder_preserves_dependences() {
        let b = block(
            r#"
            func @mix(s0) {
            entry:
                s1 = load [s0 + 0]
                s2 = load [s0 + 8]
                s3 = add s1, s2
                s4 = fadd s1, s1
                s5 = load [s0 + 16]
                s6 = add s3, s5
                ret s6
            }
            "#,
        );
        let deps = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::paper_machine(8);
        let re = ep_reorder(&b, &deps, &m).unwrap();
        assert_eq!(re.insts().len(), b.insts().len());
        // Every def still precedes its uses.
        let mut defined: Vec<parsched_ir::Reg> = vec![parsched_ir::Reg::sym(0)];
        for inst in re.insts() {
            for u in inst.uses() {
                assert!(defined.contains(&u), "{u} used before def after reorder");
            }
            defined.extend(inst.defs());
        }
    }

    #[test]
    fn reorder_is_identity_when_capacity_suffices() {
        let b = block(
            r#"
            func @small(s0) {
            entry:
                s1 = add s0, 1
                s2 = fadd s0, s0
                ret s2
            }
            "#,
        );
        let deps = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::paper_machine(8);
        let re = ep_reorder(&b, &deps, &m).unwrap();
        assert_eq!(re.insts(), b.insts());
    }

    #[test]
    fn empty_body() {
        let b = block("func @e() {\nentry:\n    ret\n}");
        let deps = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::paper_machine(8);
        assert!(ep_numbers(&deps, &m).unwrap().is_empty());
        let re = ep_reorder(&b, &deps, &m).unwrap();
        assert_eq!(re.insts().len(), 1);
    }
}
