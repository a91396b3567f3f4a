//! End-to-end semantics preservation: every strategy, on every workload,
//! must produce code that computes exactly what the input computed. The
//! reference interpreter executes both and compares the return value and
//! all non-spill memory effects.

use parsched::ir::interp::{Interpreter, Memory};
use parsched::ir::simplify::merge_chains;
use parsched::ir::Function;
use parsched::machine::presets;
use parsched::regalloc::spill::SPILL_REGION;
use parsched::sched::SchedPriority;
use parsched::telemetry::NullTelemetry;
use parsched::{Pipeline, Strategy};
use parsched_workload::{kernels, random_cfg_function, random_dag_function, CfgParams, DagParams};

/// Builds a deterministic memory image covering every address the corpus
/// touches (bases 1000/2000/3000 plus raw 0..512 for DAGs and globals).
fn test_memory() -> Memory {
    let mut mem = Memory::new();
    for a in 0..512 {
        mem.set_abs(a, a * 31 + 5);
        mem.set_abs(1000 + a * 8, a + 1);
        mem.set_abs(2000 + a * 8, 2 * a + 1);
        mem.set_abs(3000 + a * 8, 0);
    }
    for g in ["z", "y", "x", "w", "out"] {
        mem.set_global(g, 0, 42 + g.len() as i64);
        mem.set_global(g, 8, 17);
    }
    mem
}

fn args_for(f: &Function) -> Vec<i64> {
    // Pointer-ish args for the first params, small scalars after.
    [1000, 2000, 3000, 5, 3]
        .into_iter()
        .take(f.params().len())
        .collect()
}

fn assert_equivalent(original: &Function, compiled: &Function, label: &str) {
    let interp = Interpreter::new();
    let args = args_for(original);
    let before = interp
        .run(original, &args, test_memory())
        .unwrap_or_else(|e| panic!("{label}: original failed: {e}"));
    let after = interp
        .run(compiled, &args, test_memory())
        .unwrap_or_else(|e| panic!("{label}: compiled failed: {e}"));
    assert_eq!(
        before.return_value, after.return_value,
        "{label}: return value changed"
    );
    let scrub = |m: &Memory| {
        m.snapshot()
            .into_iter()
            .filter(|((region, _), _)| region != SPILL_REGION)
            .collect::<Vec<_>>()
    };
    assert_eq!(
        scrub(&before.memory),
        scrub(&after.memory),
        "{label}: memory effects changed"
    );
}

#[test]
fn corpus_semantics_preserved_everywhere() {
    let machines = [
        presets::single_issue(12),
        presets::paper_machine(12),
        presets::rs6000(12),
        presets::mips_r3000(12),
        presets::wide(4, 12),
    ];
    for machine in machines {
        let p = Pipeline::new(machine.clone());
        for (name, f) in kernels() {
            for s in [
                Strategy::AllocThenSched,
                Strategy::SchedThenAlloc,
                Strategy::LinearScanThenSched,
                Strategy::combined(),
            ] {
                let r = p.compile(&f, &s, &NullTelemetry).unwrap();
                assert_equivalent(
                    &f,
                    &r.function,
                    &format!("{name} / {} / {}", machine.name(), s.label()),
                );
            }
        }
    }
}

#[test]
fn semantics_survive_heavy_spilling() {
    // 4 registers on the paper machine force spills on most kernels.
    let p = Pipeline::new(presets::paper_machine(4));
    for (name, f) in kernels() {
        for s in [
            Strategy::AllocThenSched,
            Strategy::SchedThenAlloc,
            Strategy::LinearScanThenSched,
            Strategy::combined(),
        ] {
            let r = p.compile(&f, &s, &NullTelemetry).unwrap();
            assert_equivalent(&f, &r.function, &format!("{name} tight / {}", s.label()));
        }
    }
}

#[test]
fn random_dag_semantics_preserved() {
    let params = DagParams {
        size: 50,
        load_fraction: 0.3,
        float_fraction: 0.5,
        window: 5,
    };
    for seed in 0..12 {
        let f = random_dag_function(seed, &params);
        for regs in [5, 9, 24] {
            let p = Pipeline::new(presets::paper_machine(regs));
            for s in [
                Strategy::AllocThenSched,
                Strategy::SchedThenAlloc,
                Strategy::combined(),
            ] {
                let r = p.compile(&f, &s, &NullTelemetry).unwrap();
                assert_equivalent(
                    &f,
                    &r.function,
                    &format!("dag seed {seed} regs {regs} / {}", s.label()),
                );
            }
        }
    }
}

#[test]
fn random_cfg_semantics_preserved() {
    // Multi-block structured CFGs through the global allocator.
    let params = CfgParams {
        segments: 5,
        ops_per_block: 4,
    };
    for seed in 0..10 {
        let f = random_cfg_function(seed, &params);
        for regs in [6, 10, 24] {
            let p = Pipeline::new(presets::paper_machine(regs));
            for s in [
                Strategy::AllocThenSched,
                Strategy::SchedThenAlloc,
                Strategy::combined(),
            ] {
                let r = p
                    .compile(&f, &s, &NullTelemetry)
                    .unwrap_or_else(|e| panic!("cfg seed {seed} regs {regs} {}: {e}", s.label()));
                assert_equivalent(
                    &f,
                    &r.function,
                    &format!("cfg seed {seed} regs {regs} / {}", s.label()),
                );
            }
        }
    }
}

#[test]
fn chain_merging_pipeline_preserves_semantics() {
    let params = CfgParams {
        segments: 4,
        ops_per_block: 3,
    };
    for seed in 0..8 {
        let f = random_cfg_function(seed + 100, &params);
        let p = Pipeline::new(presets::paper_machine(10));
        let r = p
            .compile(&merge_chains(&f), &Strategy::combined(), &NullTelemetry)
            .unwrap();
        assert_equivalent(&f, &r.function, &format!("merged cfg seed {seed}"));
    }
}

#[test]
fn cycle_accurate_execution_matches_sequential() {
    // The strongest schedule check: execute the final scheduled block
    // cycle-by-cycle (reads before writes within a cycle) and compare the
    // register/memory outcome against the sequential interpreter on the
    // same linearized code. Validates the paper's footnote semantics for
    // every same-cycle register reuse our pipeline ever produces.
    use parsched::ir::{BlockId, InstKind};
    use parsched::sched::cyclesim::simulate;
    use parsched::sched::{list_schedule, DepGraph};
    use std::collections::HashMap;

    let machines = [presets::paper_machine(6), presets::wide(4, 8)];
    for machine in machines {
        let p = Pipeline::new(machine.clone());
        for (name, f) in parsched_workload::straight_line_kernels() {
            for s in [Strategy::AllocThenSched, Strategy::combined()] {
                let r = p.compile(&f, &s, &NullTelemetry).unwrap();
                let block = r.function.block(BlockId(0));
                let deps = DepGraph::build(block, &NullTelemetry);
                let schedule = list_schedule(
                    block,
                    &deps,
                    &machine,
                    SchedPriority::CriticalPath,
                    &NullTelemetry,
                )
                .unwrap();

                let args = args_for(&r.function);
                let mut init: HashMap<parsched::ir::Reg, i64> = HashMap::new();
                for (&p, &v) in r.function.params().iter().zip(&args) {
                    init.insert(p, v);
                }
                let par = simulate(block, &schedule, &init, test_memory())
                    .unwrap_or_else(|e| panic!("{name}/{}: {e}", s.label()));

                let seq = Interpreter::new()
                    .run(&r.function, &args, test_memory())
                    .unwrap();
                // Compare the returned value through the terminator's reg.
                if let Some(InstKind::Ret {
                    value: Some(ret_reg),
                }) = block.terminator().map(|t| t.kind())
                {
                    assert_eq!(
                        par.regs.get(ret_reg).copied(),
                        seq.return_value,
                        "{name}/{}: cycle-sim vs sequential",
                        s.label()
                    );
                }
                assert_eq!(
                    par.memory.snapshot(),
                    seq.memory.snapshot(),
                    "{name}/{}: memory",
                    s.label()
                );
            }
        }
    }
}

#[test]
fn scheduling_alone_preserves_semantics() {
    // Pure reordering (no allocation): linearized schedules of symbolic
    // code must be equivalent — the dependence graph is doing its job.
    for (name, f) in kernels() {
        let p = Pipeline::new(presets::wide(8, 32));
        let (scheduled, _) = p.schedule_blocks_measured(&f, &NullTelemetry).unwrap();
        assert_equivalent(&f, &scheduled, &format!("{name} schedule-only"));
    }
}
