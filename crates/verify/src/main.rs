//! `parsched-verify` — the translation-validation fuzzer CLI.
//!
//! ```text
//! parsched-verify fuzz [--seed N] [--count N] [--out DIR] [--verbose]
//! parsched-verify replay FILE...
//! ```
//!
//! `fuzz` drives seeded random functions through every ladder rung and all
//! invariant checkers (see `docs/VERIFICATION.md`); failures are minimized
//! and written to `--out` as replayable `.psc` files. `replay` re-checks
//! such files (or any `.psc` module) across a fixed machine matrix — CI
//! replays `ci/fuzz-corpus/` to keep previously-found bugs fixed.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage, 10 I/O.

use parsched_ir::parse_module;
use parsched_verify::fuzz::{self, FuzzConfig};
use parsched_verify::gap::{self, GapConfig};
use std::path::PathBuf;

const USAGE: &str = "\
parsched-verify — translation validation fuzzer for the parsched pipeline

USAGE:
    parsched-verify fuzz [--seed N] [--count N] [--out DIR] [--cfg]
                         [--verbose]
    parsched-verify fuzz --gap [--seed N] [--count N] [--gap-out FILE]
                         [--gap-max-nodes N] [--verbose]
    parsched-verify replay FILE...
    parsched-verify help

COMMANDS:
    fuzz      compile seeded random functions through every ladder rung and
              run all invariant checkers on each result; minimized
              reproducers are written to --out (default: fuzz-failures/)
    fuzz --gap
              optimality-gap mode: compile small random single blocks with
              the exact branch-and-bound solver AND every heuristic rung,
              verify the exact output with all checkers plus the oracle,
              flag any heuristic that beats a proven optimum, and write the
              per-rung gap distributions as a parsched-gap/1 JSON report
              (see docs/EXACT.md)
    replay    re-verify .psc modules across all rungs and a fixed machine
              matrix (used by CI on ci/fuzz-corpus/)

OPTIONS (fuzz):
    --seed N     master seed (default 0); same seed, same cases
    --count N    number of cases (default 100; 200 in --gap mode)
    --out DIR    directory for reproducer files
    --cfg        generate only branchy/loopy CFG functions, so every case
                 takes the global (web-based) allocation path
    --gap-out FILE
                 where --gap writes the JSON report
                 (default: gap-report.json)
    --gap-max-nodes N
                 exact search-node budget per case in --gap mode; cases
                 that exhaust it are counted unproven, not failed
    --verbose    one line per case

EXIT CODES:
    0 clean   1 violations found   2 usage   10 i/o error
";

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fuzz") => run_fuzz(&args[1..]),
        Some("replay") => run_replay(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            0
        }
        Some(other) => {
            eprintln!("parsched-verify: unknown command `{other}`\n\n{USAGE}");
            2
        }
        None => {
            eprint!("{USAGE}");
            2
        }
    }
}

fn run_fuzz(args: &[String]) -> i32 {
    let mut config = FuzzConfig::default();
    let mut gap = false;
    let mut gap_config = GapConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => {
                    config.seed = v;
                    gap_config.seed = v;
                }
                None => return usage_error("--seed needs an integer"),
            },
            "--count" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => {
                    config.count = v;
                    gap_config.count = v;
                }
                None => return usage_error("--count needs an integer"),
            },
            "--out" => match it.next() {
                Some(v) => config.out_dir = PathBuf::from(v),
                None => return usage_error("--out needs a directory"),
            },
            "--gap" => gap = true,
            "--gap-out" => match it.next() {
                Some(v) => gap_config.out = PathBuf::from(v),
                None => return usage_error("--gap-out needs a path"),
            },
            "--gap-max-nodes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => gap_config.max_nodes = v,
                None => return usage_error("--gap-max-nodes needs an integer"),
            },
            "--cfg" => config.cfg_only = true,
            "--verbose" => {
                config.verbose = true;
                gap_config.verbose = true;
            }
            other => return usage_error(&format!("unknown option `{other}`")),
        }
    }
    if gap {
        return run_gap(&gap_config);
    }
    let summary = match fuzz::run(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("parsched-verify: i/o error: {e}");
            return 10;
        }
    };
    println!(
        "fuzz: seed {} / {} cases — {} compiles, {} expected compile errors, \
         {} checks, {} violations",
        config.seed,
        summary.cases,
        summary.compiles,
        summary.compile_errors,
        summary.checks_run,
        summary.violations
    );
    for (label, compiles, violations) in &summary.per_strategy {
        println!("  {label:<18} {compiles:>6} compiles  {violations:>4} violations");
    }
    for path in &summary.artifacts {
        println!("  reproducer: {}", path.display());
    }
    if summary.violations == 0 {
        0
    } else {
        1
    }
}

fn run_gap(config: &GapConfig) -> i32 {
    let summary = match gap::run(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("parsched-verify: i/o error: {e}");
            return 10;
        }
    };
    println!(
        "gap: seed {} / {} cases — {} proven optima measured, {} unproven, \
         {} refused, {} checks, {} violations, {} anomalies",
        config.seed,
        summary.cases,
        summary.measured,
        summary.unproven,
        summary.refused,
        summary.checks_run,
        summary.violations,
        summary.anomalies
    );
    for t in &summary.per_strategy {
        println!(
            "  {:<18} {:>5} compiles  {:>4} optimal  cycle gap total {:>4} (max {})",
            t.label, t.compiles, t.optimal, t.cycle_gap_total, t.cycle_gap_max
        );
    }
    println!("  report: {}", config.out.display());
    if summary.ok() {
        0
    } else {
        1
    }
}

fn run_replay(args: &[String]) -> i32 {
    if args.is_empty() {
        return usage_error("replay needs at least one file");
    }
    let mut total_checks = 0u64;
    let mut total_violations = 0u64;
    for path in args {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("parsched-verify: {path}: {e}");
                return 10;
            }
        };
        let funcs = match parse_module(&text) {
            Ok(fs) => fs,
            Err(e) => {
                eprintln!("parsched-verify: {path}: {e}");
                return 10;
            }
        };
        let (checks, violations) = fuzz::replay_module(&funcs);
        total_checks += checks;
        for v in &violations {
            eprintln!("parsched-verify: {path}: {v}");
        }
        total_violations += violations.len() as u64;
    }
    println!(
        "replay: {} files, {total_checks} checks, {total_violations} violations",
        args.len()
    );
    if total_violations == 0 {
        0
    } else {
        1
    }
}

fn usage_error(msg: &str) -> i32 {
    eprintln!("parsched-verify: {msg}\n\n{USAGE}");
    2
}
