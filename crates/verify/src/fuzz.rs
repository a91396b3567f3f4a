//! Deterministic differential fuzzing of the whole pipeline.
//!
//! Each case draws a random function (expression tree, random DAG, or
//! structured CFG), a machine preset, and a register count spanning the
//! pressure regimes — from spill-heavy 4-register files to roomy
//! 32-register ones — then compiles it through **every** ladder rung and
//! runs the full [`Verifier`] on each result. Every ~24th case additionally
//! pushes a small module through [`BatchDriver`] with worker threads, so
//! the batch path is fuzzed too.
//!
//! Everything is seeded ([`SplitMix64`]) — the same `--seed`/`--count`
//! always explores the same cases, which is what lets CI replay a fixed
//! smoke corpus. Failures are delta-debugged ([`crate::minimize`]) and
//! written as standalone `.psc` reproducers whose `#` header records the
//! case provenance (the parser treats `#` as comment, so the files replay
//! directly).
//!
//! Typed compile errors (a rung that honestly reports it cannot allocate
//! 4 registers, a budget refusal) are *expected* outcomes and are only
//! counted; a rung that panics, or returns code that fails a check, is a
//! violation.

use crate::{minimize, OracleConfig, Verifier, Violation};
use parsched::{BatchDriver, CompileResult, Driver, ParschedError, Pipeline, Strategy};
use parsched_ir::verify::verify_function;
use parsched_ir::{print_function, Function};
use parsched_machine::{presets, MachineDesc};
use parsched_telemetry::{NullTelemetry, Telemetry};
use parsched_workload::{
    expr_tree_function, random_cfg_function, random_dag_function, CfgParams, DagParams, SplitMix64,
};
use std::path::PathBuf;

/// All ladder rungs, in the order the fuzzer exercises them.
pub fn all_strategies() -> Vec<Strategy> {
    vec![
        Strategy::combined(),
        Strategy::SchedThenAlloc,
        Strategy::AllocThenSched,
        Strategy::LinearScanThenSched,
        Strategy::SpillEverything,
    ]
}

/// What one compile did: produce code to verify, refuse with a typed error
/// (cannot allocate, over budget — expected, only counted), or panic
/// (always a violation).
pub(crate) enum RungOutcome {
    Compiled(CompileResult),
    Refused,
    Panicked,
}

impl From<Result<CompileResult, ParschedError>> for RungOutcome {
    fn from(res: Result<CompileResult, ParschedError>) -> RungOutcome {
        match res {
            Ok(result) => RungOutcome::Compiled(result),
            Err(ParschedError::Panicked { .. }) => RungOutcome::Panicked,
            Err(_) => RungOutcome::Refused,
        }
    }
}

/// Compiles `func` on `strategy` alone — a one-rung [`Driver`] under the
/// [`BatchDriver`], so a failure surfaces instead of degrading, and a
/// panic is caught.
pub(crate) fn run_rung(
    func: &Function,
    machine: &MachineDesc,
    strategy: Strategy,
    telemetry: &(dyn Telemetry + Sync),
) -> RungOutcome {
    let driver = Driver::new(Pipeline::new(machine.clone())).with_ladder(vec![strategy]);
    let mut out = BatchDriver::new(driver)
        .with_jobs(1)
        .compile_module(std::slice::from_ref(func), telemetry);
    match out.results.pop() {
        Some(slot) => slot.into(),
        None => unreachable!("a one-function module has one result slot"),
    }
}

/// The verifier of one generated case: every checker, plus a two-run
/// differential oracle seeded by `seed`.
pub(crate) fn case_verifier(machine: &MachineDesc, strategy: Strategy, seed: u64) -> Verifier {
    Verifier::new(machine)
        .strategy(strategy)
        .oracle(OracleConfig { seed, runs: 2 })
}

/// The violation recorded for a compile that panicked on `func`.
fn panicked(func: &Function, detail: String) -> Violation {
    Violation {
        check: crate::Check::Schedule,
        function: func.name().to_string(),
        block: None,
        detail,
    }
}

/// Fuzzer configuration (all CLI-settable).
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; every case derives deterministically from it.
    pub seed: u64,
    /// Number of cases.
    pub count: u32,
    /// Where reproducers are written.
    pub out_dir: PathBuf,
    /// Per-case progress lines on stdout.
    pub verbose: bool,
    /// Restrict generation to branchy/loopy CFG functions (the `--cfg`
    /// flag): every case exercises the global, web-based allocation path.
    pub cfg_only: bool,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 0,
            count: 100,
            out_dir: PathBuf::from("fuzz-failures"),
            verbose: false,
            cfg_only: false,
        }
    }
}

/// Aggregate outcome of a fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzSummary {
    /// Cases generated.
    pub cases: u32,
    /// Successful compiles across all rungs.
    pub compiles: u64,
    /// Typed (expected) compile errors across all rungs.
    pub compile_errors: u64,
    /// Individual checks run by the verifier.
    pub checks_run: u64,
    /// Violations found (compiles failing verification, or panics).
    pub violations: u64,
    /// Per-rung tallies: (label, compiles, violations).
    pub per_strategy: Vec<(String, u64, u64)>,
    /// Reproducer files written.
    pub artifacts: Vec<PathBuf>,
}

/// Runs the fuzzer. Io errors writing reproducers are returned; everything
/// the pipeline does wrong becomes a counted violation instead.
pub fn run(config: &FuzzConfig) -> Result<FuzzSummary, std::io::Error> {
    let strategies = all_strategies();
    let mut summary = FuzzSummary {
        per_strategy: strategies
            .iter()
            .map(|s| (s.label().to_string(), 0, 0))
            .collect(),
        ..FuzzSummary::default()
    };
    let mut rng = SplitMix64::seed_from_u64(config.seed);
    for case in 0..config.count {
        let case_seed = rng.next_u64();
        let func = generate(case_seed, config.cfg_only);
        if verify_function(&func, false).is_err() {
            // Generator bug, not a pipeline bug; skip rather than report.
            continue;
        }
        // Register counts spanning the pressure regimes.
        let machine = pick_machine(&mut rng, &[4, 6, 8, 12, 32]);
        summary.cases += 1;
        if config.verbose {
            println!(
                "case {case}: {} ({} insts) on {} / {} regs",
                func.name(),
                func.insts().count(),
                machine.name(),
                machine.num_regs()
            );
        }
        for (si, strategy) in strategies.iter().enumerate() {
            let violations = run_one(&func, &machine, *strategy, case_seed, &mut summary, si);
            if !violations.is_empty() {
                emit_reproducer(
                    config,
                    &mut summary,
                    &func,
                    &machine,
                    *strategy,
                    case,
                    &violations,
                )?;
            }
        }
        if case % 24 == 23 {
            run_batch_case(&mut rng, config, case, &mut summary)?;
        }
    }
    Ok(summary)
}

/// Generates one random function from the case seed: the low bits pick the
/// shape family, the rest parameterize it. With `cfg_only`, every case is
/// a branchy/loopy CFG function (the global-allocation path).
fn generate(case_seed: u64, cfg_only: bool) -> Function {
    let mut rng = SplitMix64::seed_from_u64(case_seed);
    let family = if cfg_only {
        1
    } else {
        rng.gen_range_usize(0, 3)
    };
    match family {
        0 => random_dag_function(
            rng.next_u64(),
            &DagParams {
                size: rng.gen_range_usize(6, 40),
                load_fraction: rng.gen_range_i64(0, 50) as f64 / 100.0,
                float_fraction: rng.gen_range_i64(0, 40) as f64 / 100.0,
                window: rng.gen_range_usize(2, 8),
            },
        ),
        1 => random_cfg_function(
            rng.next_u64(),
            &CfgParams {
                segments: rng.gen_range_usize(1, 5),
                ops_per_block: rng.gen_range_usize(2, 6),
            },
        ),
        _ => {
            let depth = rng.gen_range_usize(2, 7) as u32;
            let float = rng.gen_range_i64(0, 40) as f64 / 100.0;
            expr_tree_function(rng.next_u64(), depth, float)
        }
    }
}

/// Picks a register count from `regs` and a machine preset.
pub(crate) fn pick_machine(rng: &mut SplitMix64, regs: &[u32]) -> MachineDesc {
    let regs = *rng.pick(regs);
    match rng.gen_range_usize(0, 5) {
        0 => presets::single_issue(regs),
        1 => presets::paper_machine(regs),
        2 => presets::mips_r3000(regs),
        3 => presets::rs6000(regs),
        _ => presets::wide(4, regs),
    }
}

/// Compiles `func` on one rung and verifies the result. Returns the
/// violations (already tallied into `summary`).
fn run_one(
    func: &Function,
    machine: &MachineDesc,
    strategy: Strategy,
    case_seed: u64,
    summary: &mut FuzzSummary,
    strategy_index: usize,
) -> Vec<Violation> {
    let verifier = case_verifier(machine, strategy, case_seed);
    let violations = match run_rung(func, machine, strategy, &NullTelemetry) {
        RungOutcome::Compiled(result) => {
            summary.compiles += 1;
            summary.per_strategy[strategy_index].1 += 1;
            let report = verifier.verify(func, &result, &NullTelemetry);
            summary.checks_run += report.checks_run;
            report.violations
        }
        RungOutcome::Panicked => vec![panicked(
            func,
            format!("pipeline panicked on rung {}", strategy.label()),
        )],
        RungOutcome::Refused => {
            summary.compile_errors += 1;
            return Vec::new();
        }
    };
    summary.violations += violations.len() as u64;
    summary.per_strategy[strategy_index].2 += violations.len() as u64;
    violations
}

/// Whether `func` still fails on `(machine, strategy)` — the minimizer's
/// predicate: panic or any verifier violation counts.
fn still_fails(
    func: &Function,
    machine: &MachineDesc,
    strategy: Strategy,
    oracle_seed: u64,
) -> bool {
    let verifier = case_verifier(machine, strategy, oracle_seed);
    match run_rung(func, machine, strategy, &NullTelemetry) {
        RungOutcome::Compiled(result) => !verifier.verify(func, &result, &NullTelemetry).ok(),
        RungOutcome::Panicked => true,
        RungOutcome::Refused => false,
    }
}

fn emit_reproducer(
    config: &FuzzConfig,
    summary: &mut FuzzSummary,
    func: &Function,
    machine: &MachineDesc,
    strategy: Strategy,
    case: u32,
    violations: &[Violation],
) -> Result<(), std::io::Error> {
    let oracle_seed = config.seed ^ u64::from(case);
    let small = minimize::minimize(func, 400, |candidate| {
        still_fails(candidate, machine, strategy, oracle_seed)
    });
    let mut text = String::new();
    text.push_str("# parsched-verify fuzz reproducer\n");
    text.push_str(&format!("# seed {} case {case}\n", config.seed));
    text.push_str(&format!(
        "# machine {} regs {} strategy {}\n",
        machine.name(),
        machine.num_regs(),
        strategy.label()
    ));
    for v in violations {
        text.push_str(&format!("# violation: {v}\n"));
    }
    text.push_str(&print_function(&small));
    std::fs::create_dir_all(&config.out_dir)?;
    let path = config
        .out_dir
        .join(format!("case_{case}_{}.psc", strategy.label()));
    std::fs::write(&path, text)?;
    summary.artifacts.push(path);
    Ok(())
}

/// Pushes a 3-function module through the batch driver (default ladder,
/// 4 worker threads) and verifies every slot.
fn run_batch_case(
    rng: &mut SplitMix64,
    config: &FuzzConfig,
    case: u32,
    summary: &mut FuzzSummary,
) -> Result<(), std::io::Error> {
    let machine = presets::paper_machine(8);
    let funcs: Vec<Function> = (0..3)
        .map(|_| generate(rng.next_u64(), config.cfg_only))
        .collect();
    if funcs.iter().any(|f| verify_function(f, false).is_err()) {
        return Ok(());
    }
    let batch = BatchDriver::new(Driver::new(Pipeline::new(machine.clone()))).with_jobs(4);
    let out = batch.compile_module(&funcs, &NullTelemetry);
    // The default ladder leads with the combined strategy, so that is the
    // requested rung for Theorem 1 gating.
    let verifier = case_verifier(
        &machine,
        Strategy::combined(),
        config.seed ^ u64::from(case),
    );
    for (func, slot) in funcs.iter().zip(out.results) {
        match RungOutcome::from(slot) {
            RungOutcome::Compiled(result) => {
                summary.compiles += 1;
                let report = verifier.verify(func, &result, &NullTelemetry);
                summary.checks_run += report.checks_run;
                if !report.ok() {
                    summary.violations += report.violations.len() as u64;
                    emit_reproducer(
                        config,
                        summary,
                        func,
                        &machine,
                        Strategy::combined(),
                        case,
                        &report.violations,
                    )?;
                }
            }
            RungOutcome::Panicked => {
                summary.violations += 1;
                emit_reproducer(
                    config,
                    summary,
                    func,
                    &machine,
                    Strategy::combined(),
                    case,
                    &[panicked(
                        func,
                        "pipeline panicked in batch compile".to_string(),
                    )],
                )?;
            }
            RungOutcome::Refused => summary.compile_errors += 1,
        }
    }
    Ok(())
}

/// Replays a module (e.g. a committed reproducer) through every rung on a
/// fixed matrix of machines, returning the violations found. Used by CI to
/// keep old failures fixed.
pub fn replay_module(funcs: &[Function]) -> (u64, Vec<Violation>) {
    let machines = [
        presets::single_issue(6),
        presets::paper_machine(8),
        presets::mips_r3000(8),
        presets::rs6000(12),
        presets::wide(4, 32),
    ];
    let mut checks = 0u64;
    let mut violations = Vec::new();
    for func in funcs {
        if verify_function(func, false).is_err() {
            continue;
        }
        for machine in &machines {
            for strategy in all_strategies() {
                match run_rung(func, machine, strategy, &NullTelemetry) {
                    RungOutcome::Compiled(result) => {
                        let verifier = Verifier::new(machine).strategy(strategy);
                        let report = verifier.verify(func, &result, &NullTelemetry);
                        checks += report.checks_run;
                        violations.extend(report.violations);
                    }
                    RungOutcome::Panicked => violations.push(panicked(
                        func,
                        format!(
                            "pipeline panicked on rung {} ({})",
                            strategy.label(),
                            machine.name()
                        ),
                    )),
                    RungOutcome::Refused => {}
                }
            }
        }
    }
    (checks, violations)
}
