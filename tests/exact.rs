//! Property tests for the exact joint solver (`parsched-exact`).
//!
//! Three properties, each over a seeded corpus of small single-block
//! functions spanning the machine presets and the tight register files
//! where the rungs actually diverge:
//!
//! 1. **Soundness** — the exact output passes every independent checker
//!    (schedule legality, allocation soundness, spill well-formedness)
//!    plus the differential oracle.
//! 2. **Optimality vs the ladder** — a proven-optimal exact objective is
//!    lexicographically no worse than any heuristic rung's.
//! 3. **Pruning is lossless** — branch-and-bound with all bounds and
//!    dominance rules returns the same objective as the brute-force
//!    enumeration of the identical space (blocks of at most 8
//!    instructions, where enumeration is cheap).
//!
//! A budget sweep adds that a tripped node budget degrades only the
//! proof: whatever the solver returns passes every checker, and a proven
//! answer is the default budget's.

use parsched::exact::{solve, solve_brute_force, ExactConfig};
use parsched::ir::Function;
use parsched::machine::{presets, MachineDesc};
use parsched::prelude::*;
use parsched::telemetry::Recorder;
use parsched_verify::{OracleConfig, Verifier};
use parsched_workload::{expr_tree_function, random_dag_function, DagParams, SplitMix64};

/// A small seeded corpus mirroring the `fuzz --gap` generator: DAG blocks
/// and expression trees on five machine presets with 4–8 registers.
fn corpus(seed: u64, count: usize, max_size: usize) -> Vec<(Function, MachineDesc)> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut out = Vec::new();
    while out.len() < count {
        let func = if rng.gen_range_usize(0, 2) == 0 {
            random_dag_function(
                rng.next_u64(),
                &DagParams {
                    size: rng.gen_range_usize(3, max_size),
                    load_fraction: rng.gen_range_i64(0, 30) as f64 / 100.0,
                    float_fraction: rng.gen_range_i64(0, 40) as f64 / 100.0,
                    window: rng.gen_range_usize(2, 5),
                },
            )
        } else {
            expr_tree_function(rng.next_u64(), 2, rng.gen_range_i64(0, 40) as f64 / 100.0)
        };
        if parsched::ir::verify::verify_function(&func, false).is_err() {
            continue;
        }
        let regs = *rng.pick(&[4u32, 6, 8]);
        let machine = match rng.gen_range_usize(0, 5) {
            0 => presets::single_issue(regs),
            1 => presets::paper_machine(regs),
            2 => presets::mips_r3000(regs),
            3 => presets::rs6000(regs),
            _ => presets::wide(4, regs),
        };
        out.push((func, machine));
    }
    out
}

fn objective(stats: &CompileStats) -> (u32, u32, u32) {
    (
        stats.spilled_values as u32,
        stats.registers_used,
        stats.cycles,
    )
}

/// Property 1: every exact compile passes the full verifier — all
/// checkers plus the oracle.
#[test]
fn exact_output_passes_every_checker_and_the_oracle() {
    let exact = Strategy::exact();
    for (i, (func, machine)) in corpus(11, 30, 10).iter().enumerate() {
        let driver = Driver::new(Pipeline::new(machine.clone())).with_ladder(vec![exact]);
        let result =
            match driver.compile_resilient_in(&mut AllocSession::new(), func, &NullTelemetry) {
                Ok(r) => r,
                // Typed refusals (infeasible register file) are legitimate.
                Err(e) => {
                    assert!(
                        !matches!(e, ParschedError::Panicked { .. }),
                        "case {i}: exact panicked: {e}"
                    );
                    continue;
                }
            };
        let verifier = Verifier::new(machine).strategy(exact).oracle(OracleConfig {
            seed: i as u64,
            runs: 2,
        });
        let report = verifier.verify(func, &result, &NullTelemetry);
        assert!(
            report.ok(),
            "case {i} ({} on {} / {} regs): exact output failed verification: {:?}",
            func.name(),
            machine.name(),
            machine.num_regs(),
            report.violations
        );
    }
}

/// Property 2: a proven-optimal exact objective is lexicographically no
/// worse than any heuristic rung on the same input.
#[test]
fn exact_is_never_worse_than_any_heuristic_rung() {
    let rungs = [
        Strategy::combined(),
        Strategy::SchedThenAlloc,
        Strategy::AllocThenSched,
        Strategy::LinearScanThenSched,
        Strategy::SpillEverything,
    ];
    for (i, (func, machine)) in corpus(23, 20, 10).iter().enumerate() {
        let sol = match solve(func, machine, &ExactConfig::default(), None, &NullTelemetry) {
            Ok(s) => s,
            Err(_) => continue,
        };
        if !sol.proven_optimal {
            continue;
        }
        for rung in rungs {
            let driver = Driver::new(Pipeline::new(machine.clone())).with_ladder(vec![rung]);
            let r =
                match driver.compile_resilient_in(&mut AllocSession::new(), func, &NullTelemetry) {
                    Ok(r) => r,
                    Err(_) => continue,
                };
            assert!(
                sol.objective() <= objective(&r.stats),
                "case {i} ({} on {} / {} regs): exact {:?} worse than rung {} {:?}",
                func.name(),
                machine.name(),
                machine.num_regs(),
                sol.objective(),
                rung.label(),
                objective(&r.stats)
            );
        }
    }
}

/// Property 3: bounds and dominance pruning never change the optimum —
/// the pruned search and the brute-force enumeration agree on every
/// block small enough to enumerate.
#[test]
fn pruned_search_matches_brute_force_on_tiny_blocks() {
    let mut compared = 0;
    for (i, (func, machine)) in corpus(37, 15, 7).iter().enumerate() {
        if func.inst_count() > 8 {
            continue;
        }
        let fast = solve(func, machine, &ExactConfig::default(), None, &NullTelemetry);
        let brute = solve_brute_force(func, machine, &ExactConfig::default(), &NullTelemetry);
        match (fast, brute) {
            (Ok(f), Ok(b)) => {
                assert!(f.proven_optimal && b.proven_optimal, "case {i}");
                assert_eq!(
                    f.objective(),
                    b.objective(),
                    "case {i} ({} on {} / {} regs): pruning changed the optimum",
                    func.name(),
                    machine.name(),
                    machine.num_regs()
                );
                compared += 1;
            }
            (Err(f), Err(b)) => assert_eq!(f, b, "case {i}: refusals must agree"),
            (f, b) => panic!("case {i}: pruned {f:?} disagrees with brute force {b:?}"),
        }
    }
    assert!(
        compared >= 5,
        "corpus too small: only {compared} comparisons"
    );
}

/// Budget sweep: at every node budget, from one that trips before the
/// first block is searched (so only the program-order fallback seed can
/// answer) to one no block reaches, an answer passes every checker and
/// the oracle, and a proven answer has the default budget's objective.
#[test]
fn every_node_budget_answers_soundly_and_proves_only_the_optimum() {
    let (mut seeded, mut proven, mut unproven) = (0, 0, 0);
    for (i, (func, machine)) in corpus(11, 30, 10).iter().enumerate() {
        let default = solve(func, machine, &ExactConfig::default(), None, &NullTelemetry);
        for max_nodes in [1, 2, 5, 50, 500, 20_000] {
            let cfg = ExactConfig {
                max_nodes,
                ..ExactConfig::default()
            };
            let rec = Recorder::new();
            let Ok(sol) = solve(func, machine, &cfg, None, &rec) else {
                continue;
            };
            seeded += rec.counter_value("exact.seeded");
            if sol.proven_optimal {
                proven += 1;
                let optimum = default.as_ref().map(|d| d.objective());
                assert_eq!(
                    Ok(sol.objective()),
                    optimum.map_err(|e| e.to_string()),
                    "case {i} at {max_nodes} nodes: proven answer is not the optimum"
                );
            } else {
                unproven += 1;
            }
            let strategy = Strategy::Exact(cfg);
            let driver = Driver::new(Pipeline::new(machine.clone())).with_ladder(vec![strategy]);
            let result =
                match driver.compile_resilient_in(&mut AllocSession::new(), func, &NullTelemetry) {
                    Ok(r) => r,
                    Err(e) => panic!("case {i} at {max_nodes} nodes: solved, then refused: {e}"),
                };
            assert_eq!(
                result.stats.cycles,
                sol.cycles(),
                "case {i} at {max_nodes} nodes"
            );
            let verifier = Verifier::new(machine)
                .strategy(strategy)
                .oracle(OracleConfig {
                    seed: i as u64,
                    runs: 2,
                });
            let report = verifier.verify(func, &result, &NullTelemetry);
            assert!(
                report.ok(),
                "case {i} at {max_nodes} nodes: failed verification: {:?}",
                report.violations
            );
        }
    }
    assert!(
        seeded > 0 && proven > 0 && unproven > 0,
        "sweep must reach the fallback seed ({seeded}), proofs ({proven}) and \
         unproven answers ({unproven})"
    );
}
