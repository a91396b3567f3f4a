//! Optimality-gap measurement: every heuristic rung vs the exact solver.
//!
//! `parsched-verify fuzz --gap` draws small random single-block functions
//! (the regime where `parsched-exact` closes the search space), compiles
//! each through the exact strategy *and* every heuristic ladder rung, and
//! compares the lexicographic objectives `(spills, registers, cycles)`.
//! Three things come out:
//!
//! 1. **Soundness**: the exact output runs through the full
//!    [`Verifier`](crate::Verifier) (all four checkers plus the
//!    differential oracle) — a violation here is a solver bug.
//! 2. **Optimality cross-check**: a heuristic rung that beats a
//!    *proven-optimal* exact objective is an **anomaly** — one of the two
//!    sides is lying, and either way it is a bug worth a reproducer.
//! 3. **The gap report**: per-rung gap distributions, written as a
//!    `parsched-gap/1` JSON document (see `docs/EXACT.md` for the schema)
//!    and rendered into `docs/EXPERIMENTS.md`.
//!
//! Everything is seeded: the same `--seed`/`--count` always measures the
//! same cases, so CI can gate on "zero violations, zero anomalies" with a
//! fixed corpus.

use crate::fuzz::{all_strategies, case_verifier, pick_machine, run_rung, RungOutcome};
use parsched::prelude::ExactConfig;
use parsched::Strategy;
use parsched_ir::verify::verify_function;
use parsched_ir::Function;
use parsched_telemetry::json::{Layout, Writer};
use parsched_telemetry::{NullTelemetry, Recorder};
use parsched_workload::{expr_tree_function, random_dag_function, DagParams, SplitMix64};
use std::path::PathBuf;

/// Gap-run configuration (all CLI-settable).
#[derive(Debug, Clone)]
pub struct GapConfig {
    /// Master seed; every case derives deterministically from it.
    pub seed: u64,
    /// Number of cases.
    pub count: u32,
    /// Where the `parsched-gap/1` JSON report is written.
    pub out: PathBuf,
    /// Per-case progress lines on stdout.
    pub verbose: bool,
    /// Search-node budget per exact solve; exhausted budgets demote the
    /// case to "unproven" (excluded from gap statistics) rather than hang.
    pub max_nodes: u64,
}

impl Default for GapConfig {
    fn default() -> GapConfig {
        GapConfig {
            seed: 0,
            count: 200,
            out: PathBuf::from("gap-report.json"),
            verbose: false,
            max_nodes: 200_000,
        }
    }
}

/// Per-rung gap tallies over the proven-optimal cases.
#[derive(Debug, Clone, Default)]
pub struct StrategyGap {
    /// The rung's [`Strategy::label`].
    pub label: String,
    /// Cases this rung compiled.
    pub compiles: u64,
    /// Typed (expected) compile errors.
    pub compile_errors: u64,
    /// Compiles whose lexicographic objective equals the exact optimum.
    pub optimal: u64,
    /// Compiles whose objective is lexicographically *better* than a
    /// proven optimum — an anomaly, counted and reported.
    pub beats_exact: u64,
    /// Sum over compiles of `heuristic.spills - exact.spills`.
    pub spill_gap_total: u64,
    /// Sum over compiles of `heuristic.registers - exact.registers`.
    pub reg_gap_total: u64,
    /// Sum over compiles of `heuristic.cycles - exact.cycles`.
    pub cycle_gap_total: u64,
    /// Largest single-case cycle gap.
    pub cycle_gap_max: u64,
    /// Cycle-gap histogram: exactly 0, 1, 2, and 3-or-more cycles over.
    pub cycle_gap_hist: [u64; 4],
}

/// Aggregate outcome of a gap run.
#[derive(Debug, Clone, Default)]
pub struct GapSummary {
    /// Cases generated (after discarding generator rejects).
    pub cases: u32,
    /// Cases whose exact solve closed the space (`proven_optimal`) and
    /// passed verification: the denominator of every gap statistic.
    pub measured: u32,
    /// Cases where the node budget tripped before the space closed.
    pub unproven: u32,
    /// Cases the exact solver refused with a typed error.
    pub refused: u32,
    /// Individual checks the verifier ran on exact outputs.
    pub checks_run: u64,
    /// Verifier violations on exact outputs (solver bugs).
    pub violations: u64,
    /// Heuristic-beats-proven-optimum anomalies across all rungs.
    pub anomalies: u64,
    /// Per-rung tallies.
    pub per_strategy: Vec<StrategyGap>,
}

impl GapSummary {
    /// Whether the run is clean: no checker violations on exact outputs
    /// and no heuristic ever beat a proven optimum.
    pub fn ok(&self) -> bool {
        self.violations == 0 && self.anomalies == 0
    }
}

/// Runs the gap measurement and writes the `parsched-gap/1` report to
/// `config.out`.
///
/// # Errors
/// Io errors writing the report are returned; everything the pipeline or
/// solver does wrong becomes a counted violation/anomaly instead.
pub fn run(config: &GapConfig) -> Result<GapSummary, std::io::Error> {
    let strategies = all_strategies();
    let exact = Strategy::Exact(ExactConfig {
        max_nodes: config.max_nodes,
        ..ExactConfig::default()
    });
    let mut summary = GapSummary {
        per_strategy: strategies
            .iter()
            .map(|s| StrategyGap {
                label: s.label().to_string(),
                ..StrategyGap::default()
            })
            .collect(),
        ..GapSummary::default()
    };
    let mut rng = SplitMix64::seed_from_u64(config.seed);
    for case in 0..config.count {
        let case_seed = rng.next_u64();
        let func = generate_small(case_seed);
        if verify_function(&func, false).is_err() {
            continue;
        }
        // Small register files: the pressure regime where the rungs
        // actually diverge.
        let machine = pick_machine(&mut rng, &[4, 6, 8]);
        summary.cases += 1;

        // Exact first: a Recorder observes the compile so the solver's
        // exact.proven_optimal counter decides whether this case enters
        // the gap statistics.
        let recorder = Recorder::new();
        let result = match run_rung(&func, &machine, exact, &recorder) {
            RungOutcome::Compiled(r) => r,
            RungOutcome::Panicked => {
                summary.violations += 1;
                eprintln!(
                    "gap: case {case}: exact solver PANICKED on {} ({} regs)",
                    machine.name(),
                    machine.num_regs()
                );
                continue;
            }
            RungOutcome::Refused => {
                // A typed refusal (size cap, infeasible register file) is
                // an expected outcome for the exact rung.
                summary.refused += 1;
                continue;
            }
        };
        let proven = recorder
            .counters()
            .iter()
            .any(|(name, v)| name == "exact.proven_optimal" && *v > 0);

        // Full verification of the exact output: all four checkers plus
        // the differential oracle. A violation here is a solver bug.
        let verifier = case_verifier(&machine, exact, case_seed);
        let report = verifier.verify(&func, &result, &NullTelemetry);
        summary.checks_run += report.checks_run;
        if !report.ok() {
            summary.violations += report.violations.len() as u64;
            for v in &report.violations {
                eprintln!("gap: case {case}: exact output failed verification: {v}");
            }
            continue;
        }
        if !proven {
            summary.unproven += 1;
            continue;
        }
        summary.measured += 1;
        let exact_obj = (
            result.stats.spilled_values as u32,
            result.stats.registers_used,
            result.stats.cycles,
        );
        if config.verbose {
            println!(
                "case {case}: {} ({} insts) on {} / {} regs — optimum {:?}",
                func.name(),
                func.insts().count(),
                machine.name(),
                machine.num_regs(),
                exact_obj
            );
        }

        for (si, strategy) in strategies.iter().enumerate() {
            let tally = &mut summary.per_strategy[si];
            let r = match run_rung(&func, &machine, *strategy, &NullTelemetry) {
                RungOutcome::Compiled(r) => r,
                RungOutcome::Panicked => {
                    summary.violations += 1;
                    eprintln!(
                        "gap: case {case}: rung {} PANICKED on {} ({} regs)",
                        strategy.label(),
                        machine.name(),
                        machine.num_regs()
                    );
                    continue;
                }
                RungOutcome::Refused => {
                    tally.compile_errors += 1;
                    continue;
                }
            };
            tally.compiles += 1;
            let h_obj = (
                r.stats.spilled_values as u32,
                r.stats.registers_used,
                r.stats.cycles,
            );
            if h_obj < exact_obj {
                tally.beats_exact += 1;
                summary.anomalies += 1;
                eprintln!(
                    "gap: case {case}: rung {} objective {:?} BEATS proven optimum {:?} \
                     on {} ({} regs)",
                    strategy.label(),
                    h_obj,
                    exact_obj,
                    machine.name(),
                    machine.num_regs()
                );
                continue;
            }
            if h_obj == exact_obj {
                tally.optimal += 1;
            }
            tally.spill_gap_total += u64::from(h_obj.0.saturating_sub(exact_obj.0));
            tally.reg_gap_total += u64::from(h_obj.1.saturating_sub(exact_obj.1));
            let cycle_gap = u64::from(h_obj.2.saturating_sub(exact_obj.2));
            tally.cycle_gap_total += cycle_gap;
            tally.cycle_gap_max = tally.cycle_gap_max.max(cycle_gap);
            tally.cycle_gap_hist[(cycle_gap as usize).min(3)] += 1;
        }
    }
    std::fs::write(&config.out, render_report(config, &summary))?;
    Ok(summary)
}

/// Generates one small single-block function: a random DAG block or an
/// expression tree, sized for the exact solver's routinely-feasible regime.
fn generate_small(case_seed: u64) -> Function {
    let mut rng = SplitMix64::seed_from_u64(case_seed);
    if rng.gen_range_usize(0, 2) == 0 {
        random_dag_function(
            rng.next_u64(),
            &DagParams {
                size: rng.gen_range_usize(4, 10),
                load_fraction: rng.gen_range_i64(0, 30) as f64 / 100.0,
                float_fraction: rng.gen_range_i64(0, 40) as f64 / 100.0,
                window: rng.gen_range_usize(2, 5),
            },
        )
    } else {
        let depth = rng.gen_range_usize(2, 4) as u32;
        let float = rng.gen_range_i64(0, 40) as f64 / 100.0;
        expr_tree_function(rng.next_u64(), depth, float)
    }
}

/// Renders the `parsched-gap/1` JSON document (schema in `docs/EXACT.md`).
fn render_report(config: &GapConfig, s: &GapSummary) -> String {
    Writer::pretty()
        .object(Layout::Rows, |w| {
            w.key("schema").str("parsched-gap/1");
            w.key("seed").num(config.seed);
            w.key("count").num(config.count);
            w.key("cases").num(s.cases);
            w.key("measured").num(s.measured);
            w.key("unproven").num(s.unproven);
            w.key("refused").num(s.refused);
            w.key("checks_run").num(s.checks_run);
            w.key("violations").num(s.violations);
            w.key("anomalies").num(s.anomalies);
            w.key("strategies").array(Layout::Rows, |w| {
                for t in &s.per_strategy {
                    w.object(Layout::Rows, |w| {
                        w.key("strategy").str(&t.label);
                        w.key("compiles").num(t.compiles);
                        w.key("compile_errors").num(t.compile_errors);
                        w.key("optimal").num(t.optimal);
                        w.key("beats_exact").num(t.beats_exact);
                        w.key("spill_gap_total").num(t.spill_gap_total);
                        w.key("reg_gap_total").num(t.reg_gap_total);
                        w.key("cycle_gap_total").num(t.cycle_gap_total);
                        w.key("cycle_gap_max").num(t.cycle_gap_max);
                        w.key("cycle_gap_hist").object(Layout::Line, |w| {
                            for (bucket, n) in ["0", "1", "2", "3+"].iter().zip(&t.cycle_gap_hist) {
                                w.key(bucket).num(n);
                            }
                        });
                    });
                }
            });
        })
        .finish()
        + "\n"
}
