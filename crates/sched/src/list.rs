//! Gibbons–Muchnick list scheduling with functional-unit reservation.

use crate::deps::DepGraph;
use crate::schedule::{BlockSchedule, SchedError};
use crate::timing::BlockTiming;
use parsched_ir::Block;
use parsched_machine::MachineDesc;

/// Ready-list priority policy for the list scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPriority {
    /// Latency-weighted critical-path height (classic; the default).
    #[default]
    CriticalPath,
    /// Original program order — the "no scheduler" control.
    SourceOrder,
    /// Most immediate successors first (fan-out greedy), a common
    /// alternative from the microcode-compaction literature. Counts the
    /// edges [`DepGraph::build`] keeps, whose register dependences are
    /// killing; on symbolic code those are all of them.
    FanOut,
}

/// List-schedules the body of `block` on `machine`.
///
/// # Examples
///
/// ```
/// use parsched_ir::{parse_function, BlockId};
/// use parsched_machine::presets;
/// use parsched_sched::{list_schedule, DepGraph, SchedPriority};
/// use parsched_telemetry::NullTelemetry;
///
/// let f = parse_function(
///     "func @f(s0) {\nentry:\n    s1 = add s0, 1\n    s2 = fadd s0, 2\n    s3 = add s1, s2\n    ret s3\n}",
/// )?;
/// let block = f.block(BlockId(0));
/// let deps = DepGraph::build(block, &NullTelemetry);
/// let schedule = list_schedule(
///     block,
///     &deps,
///     &presets::paper_machine(8),
///     SchedPriority::CriticalPath,
///     &NullTelemetry,
/// )?;
/// // The int and float ops dual-issue in cycle 0.
/// assert_eq!(schedule.cycle(0), 0);
/// assert_eq!(schedule.cycle(1), 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// The classic greedy algorithm of Gibbons & Muchnick (SIGPLAN '86): keep a
/// ready list of instructions whose predecessors have completed; each cycle,
/// issue ready instructions in priority order (critical-path height, ties
/// broken by original position) while units and issue slots remain; then
/// advance the clock. The terminator is placed by the terminator rule of
/// [`crate::timing`]: the first cycle ≥ every body issue that satisfies its
/// data inputs and resources.
///
/// Ready-list pressure is reported to `telemetry`: `sched.ready_len`
/// (gauge, peak ready-list length), `sched.issue_cycles` (scheduler passes
/// that issued at least one instruction) and `sched.stall_cycles` (cycles
/// advanced with nothing ready or issuable).
///
/// The result is validated against the dependence graph before being
/// returned, so a bug here surfaces as [`SchedError::Invalid`] rather than
/// silently corrupting the evaluation.
///
/// # Errors
/// Returns [`SchedError::Invalid`] if the produced schedule fails
/// validation. [`SchedError::Cycle`] does not occur: a [`DepGraph`]'s
/// edges all point forward.
pub fn list_schedule(
    block: &Block,
    deps: &DepGraph,
    machine: &MachineDesc,
    priority: SchedPriority,
    telemetry: &dyn parsched_telemetry::Telemetry,
) -> Result<BlockSchedule, SchedError> {
    schedule_impl(block, deps, machine, priority, telemetry)
}

fn schedule_impl(
    block: &Block,
    deps: &DepGraph,
    machine: &MachineDesc,
    priority: SchedPriority,
    telemetry: &dyn parsched_telemetry::Telemetry,
) -> Result<BlockSchedule, SchedError> {
    let _span = parsched_telemetry::span(telemetry, "sched.list");
    let timing = BlockTiming::new(block, deps, machine);
    let n = deps.len();
    let heights: Vec<u32> = match priority {
        SchedPriority::CriticalPath => timing.heights().to_vec(),
        SchedPriority::SourceOrder => (0..n).map(|i| (n - i) as u32).collect(),
        SchedPriority::FanOut => (0..n).map(|i| deps.graph().out_degree(i) as u32).collect(),
    };

    let mut unscheduled_preds: Vec<usize> = (0..n).map(|i| deps.graph().in_degree(i)).collect();
    let mut cycles = vec![u32::MAX; n];
    let mut remaining = n;
    let mut clock = timing.clock();
    let mut cycle: u32 = 0;

    let trace = telemetry.enabled();
    while remaining > 0 {
        // Ready at this cycle: all preds scheduled and latency satisfied.
        let mut ready: Vec<usize> = (0..n)
            .filter(|&i| {
                cycles[i] == u32::MAX && unscheduled_preds[i] == 0 && clock.release(i) <= cycle
            })
            .collect();
        ready.sort_by_key(|&i| (std::cmp::Reverse(heights[i]), i));
        if trace {
            telemetry.gauge("sched.ready_len", ready.len() as u64);
        }

        let mut issued_any = false;
        for i in ready {
            if clock.fits(timing.class(i), cycle) {
                cycles[i] = clock.issue(i, cycle);
                remaining -= 1;
                issued_any = true;
                for &s in deps.graph().succs(i) {
                    unscheduled_preds[s] -= 1;
                }
            }
        }
        // Note: zero-latency (anti) successors of instructions issued this
        // cycle become ready this same cycle only on the next loop pass;
        // advancing when nothing issued guarantees progress.
        if !issued_any {
            if trace {
                telemetry.counter("sched.stall_cycles", 1);
            }
            cycle += 1;
        } else {
            if trace {
                telemetry.counter("sched.issue_cycles", 1);
            }
            // Retry the same cycle once for newly-ready zero-latency deps;
            // if nothing more fits, the next iteration's !issued_any advances.
            let more_ready = (0..n).any(|i| {
                cycles[i] == u32::MAX
                    && unscheduled_preds[i] == 0
                    && clock.release(i) <= cycle
                    && clock.fits(timing.class(i), cycle)
            });
            if !more_ready {
                cycle += 1;
            }
        }
    }

    let (term_cycle, _) = clock.finish();
    Ok(BlockSchedule::validated(deps, &timing, cycles, term_cycle)?)
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
    fn parallel_issue_on_paper_machine() {
        // Example 2's core pattern: fixed and float streams interleave.
        let b = block(
            r#"
            func @mix(s0, s1) {
            entry:
                s2 = add s0, s1
                s3 = fadd s0, s1
                s4 = add s2, s0
                s5 = fadd s3, s0
                ret s5
            }
            "#,
        );
        let deps = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::paper_machine(8);
        let s = list_schedule(
            &b,
            &deps,
            &m,
            SchedPriority::CriticalPath,
            &parsched_telemetry::NullTelemetry,
        )
        .unwrap();
        // Fixed and float pairs dual-issue: 2 cycles of work.
        assert_eq!(s.cycle(0), 0);
        assert_eq!(s.cycle(1), 0);
        assert_eq!(s.cycle(2), 1);
        assert_eq!(s.cycle(3), 1);
    }

    #[test]
    fn single_issue_serializes() {
        let b = block(
            r#"
            func @ser(s0) {
            entry:
                s1 = add s0, 1
                s2 = add s0, 2
                s3 = add s0, 3
                ret s3
            }
            "#,
        );
        let deps = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::single_issue(8);
        let s = list_schedule(
            &b,
            &deps,
            &m,
            SchedPriority::CriticalPath,
            &parsched_telemetry::NullTelemetry,
        )
        .unwrap();
        let mut cs: Vec<u32> = s.cycles().to_vec();
        cs.sort();
        assert_eq!(cs, vec![0, 1, 2]);
    }

    #[test]
    fn latency_gaps_are_filled() {
        // Load (latency 2) then dependent add; an independent add fills the
        // delay slot on a single-issue pipeline.
        let b = block(
            r#"
            func @slot(s0, s1) {
            entry:
                s2 = load [s0 + 0]
                s3 = add s2, 1
                s4 = add s1, 1
                s5 = add s3, s4
                ret s5
            }
            "#,
        );
        let deps = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::mips_r3000(8);
        let s = list_schedule(
            &b,
            &deps,
            &m,
            SchedPriority::CriticalPath,
            &parsched_telemetry::NullTelemetry,
        )
        .unwrap();
        assert_eq!(s.cycle(0), 0, "load first (highest path)");
        assert_eq!(s.cycle(2), 1, "independent add fills the slot");
        assert_eq!(s.cycle(1), 2, "dependent add after load latency");
    }

    #[test]
    fn empty_body_schedules() {
        let b = block("func @e() {\nentry:\n    ret\n}");
        let deps = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::single_issue(8);
        let s = list_schedule(
            &b,
            &deps,
            &m,
            SchedPriority::CriticalPath,
            &parsched_telemetry::NullTelemetry,
        )
        .unwrap();
        assert_eq!(s.term_cycle(), Some(0));
        assert_eq!(s.completion_cycles(), 1);
    }

    #[test]
    fn anti_dependence_allows_same_cycle_order() {
        // Post-allocation code where r1 is read then rewritten: the reader
        // and writer may share a cycle on a wide machine, with the reader
        // first in linear order.
        let b = block(
            r#"
            func @anti(r0) {
            entry:
                r1 = add r0, 1
                r2 = add r1, 1
                r1 = add r0, 2
                ret r1
            }
            "#,
        );
        let deps = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::wide(4, 8);
        let s = list_schedule(
            &b,
            &deps,
            &m,
            SchedPriority::CriticalPath,
            &parsched_telemetry::NullTelemetry,
        )
        .unwrap();
        // inst1 (reads r1) and inst2 (redefines r1) — anti edge lets them
        // share cycle 1.
        assert!(s.cycle(2) >= s.cycle(1));
        let lin = s.linearize(&b);
        // Linearized order keeps reader before writer.
        let pos_reader = lin.insts().iter().position(|i| i == &b.body()[1]).unwrap();
        let pos_writer = lin.insts().iter().position(|i| i == &b.body()[2]).unwrap();
        assert!(pos_reader < pos_writer);
    }

    #[test]
    fn priority_policies_all_produce_valid_schedules() {
        let b = block(
            r#"
            func @p(s0) {
            entry:
                s1 = load [s0 + 0]
                s2 = add s1, 1
                s3 = fadd s1, 1
                s4 = load [s0 + 8]
                s5 = add s2, s4
                s6 = fadd s3, s3
                s7 = add s5, s6
                ret s7
            }
            "#,
        );
        let deps = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::paper_machine(16);
        let cp = list_schedule(
            &b,
            &deps,
            &m,
            SchedPriority::CriticalPath,
            &parsched_telemetry::NullTelemetry,
        )
        .unwrap();
        let so = list_schedule(
            &b,
            &deps,
            &m,
            SchedPriority::SourceOrder,
            &parsched_telemetry::NullTelemetry,
        )
        .unwrap();
        let fo = list_schedule(
            &b,
            &deps,
            &m,
            SchedPriority::FanOut,
            &parsched_telemetry::NullTelemetry,
        )
        .unwrap();
        // All valid (construction validates); critical path is never worse
        // than source order on this block.
        assert!(cp.completion_cycles() <= so.completion_cycles());
        assert!(fo.completion_cycles() >= 1);
        assert_eq!(
            list_schedule(
                &b,
                &deps,
                &m,
                SchedPriority::CriticalPath,
                &parsched_telemetry::NullTelemetry
            )
            .unwrap(),
            cp,
            "default is critical path"
        );
    }

    #[test]
    fn respects_memory_dependences() {
        let b = block(
            r#"
            func @mem(s0) {
            entry:
                store s0, [@g + 0]
                s1 = load [@g + 0]
                ret s1
            }
            "#,
        );
        let deps = DepGraph::build(&b, &parsched_telemetry::NullTelemetry);
        let m = presets::wide(4, 8);
        let s = list_schedule(
            &b,
            &deps,
            &m,
            SchedPriority::CriticalPath,
            &parsched_telemetry::NullTelemetry,
        )
        .unwrap();
        assert!(s.cycle(1) > s.cycle(0));
    }
}
