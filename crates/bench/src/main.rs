//! `parsched-bench` — the reproducible parallel batch-compilation sweep.
//!
//! Run `cargo run -p parsched-bench --release` to produce
//! `BENCH_parallel.json` in the current directory. See
//! `docs/BENCHMARKING.md` for the schema and how to compare runs.

use std::process::ExitCode;

use parsched::telemetry::json;
use parsched_bench::compare;
use parsched_bench::sweep::{self, SweepConfig};

const USAGE: &str = "\
parsched-bench: sweep batch compilation over workloads x strategies x threads

USAGE: parsched-bench [OPTIONS]

OPTIONS:
  --smoke        tiny corpus, single iteration, no warm-up (CI smoke)
  --perf-smoke   pressure-workload gates, no sweep: the PIG must stay
                 incremental (pig.full_rebuilds <= 1), dense and sparse
                 closures must emit identical code, and combined must
                 stay within 2x of the fastest phase-ordered baseline
  --out FILE     where to write the report (default: BENCH_parallel.json)
  --check FILE   validate an existing report and exit; runs no sweep
  --compare BASE NEW
                 compare two reports point-by-point; prints a
                 machine-readable verdict (parsched-bench-compare/1) to
                 stdout and a summary to stderr, exits 1 on regression;
                 runs no sweep
  --threshold X  slowdown ratio a --compare point may reach before it
                 counts as a regression (default: 2.5; per-point noise
                 slack is added on top)
  --label TEXT   free-form run tag recorded in the report
  --iters N      measured iterations per point (default: 5, median kept)
  --warmup N     unmeasured warm-up runs per point (default: 1)
  -h, --help     show this help
";

struct Options {
    smoke: bool,
    perf_smoke: bool,
    out: String,
    check: Option<String>,
    compare: Option<(String, String)>,
    threshold: f64,
    label: Option<String>,
    iters: Option<usize>,
    warmup: Option<usize>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        smoke: false,
        perf_smoke: false,
        out: "BENCH_parallel.json".to_string(),
        check: None,
        compare: None,
        threshold: 2.5,
        label: None,
        iters: None,
        warmup: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--perf-smoke" => opts.perf_smoke = true,
            "--out" => opts.out = args.next().ok_or("--out needs a file argument")?,
            "--check" => {
                opts.check = Some(args.next().ok_or("--check needs a file argument")?);
            }
            "--compare" => {
                let base = args.next().ok_or("--compare needs BASE and NEW files")?;
                let new = args.next().ok_or("--compare needs BASE and NEW files")?;
                opts.compare = Some((base, new));
            }
            "--threshold" => {
                let x = args.next().ok_or("--threshold needs a number")?;
                opts.threshold = x.parse().map_err(|_| format!("bad --threshold `{x}`"))?;
                if !opts.threshold.is_finite() || opts.threshold < 1.0 {
                    return Err(format!(
                        "--threshold must be a finite ratio >= 1.0, got `{x}`"
                    ));
                }
            }
            "--label" => {
                opts.label = Some(args.next().ok_or("--label needs a value")?);
            }
            "--iters" => {
                let n = args.next().ok_or("--iters needs a number")?;
                opts.iters = Some(n.parse().map_err(|_| format!("bad --iters `{n}`"))?);
            }
            "--warmup" => {
                let n = args.next().ok_or("--warmup needs a number")?;
                opts.warmup = Some(n.parse().map_err(|_| format!("bad --warmup `{n}`"))?);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(iters) = opts.iters {
        if iters == 0 {
            return Err("--iters must be at least 1".to_string());
        }
    }
    Ok(opts)
}

fn check_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    sweep::validate_report(&doc).map_err(|e| format!("{path}: {e}"))
}

fn load_points(path: &str) -> Result<Vec<compare::PointSample>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    compare::extract_points(&doc).map_err(|e| format!("{path}: {e}"))
}

/// `--compare BASE NEW`: the verdict JSON goes to stdout (pipe it into a
/// dashboard), the human summary to stderr, and the exit code is the gate.
fn compare_files(base: &str, new: &str, threshold: f64) -> Result<bool, String> {
    let base_points = load_points(base)?;
    let new_points = load_points(new)?;
    let report = compare::compare(&base_points, &new_points, threshold);
    print!("{}", report.to_json());
    eprint!("{}", report.render_summary());
    Ok(report.passed())
}

/// Largest combined-vs-fastest-phase-ordered slowdown `--perf-smoke`
/// tolerates on the pressure workload. The tentpole claim is "combined
/// within 2x of the cheaper phase-ordered baselines"; anything past it is
/// a closure-maintenance regression, not noise (the medians below are
/// taken over a whole 32-function batch).
const PERF_SMOKE_MAX_RATIO: f64 = 2.0;

/// Compiles one pressure-sweep function with the combined strategy and a
/// recorder, then asserts the incremental-PIG machinery actually engaged:
/// multiple spill rounds ran, but at most one full closure rebuild
/// happened (the initial one). A regression that silently falls back to
/// from-scratch PIG construction every round fails here, not in a
/// benchmark nobody reruns.
///
/// Two more gates ride along, both on the pressure workload:
/// - the dense and sparse reachability backends must produce
///   byte-identical code (instruction and spill totals compared per
///   function after full compiles under each forced backend);
/// - the combined strategy's batch wall time (1 worker, median of 3
///   after a warm-up) must stay within [`PERF_SMOKE_MAX_RATIO`] of the
///   fastest phase-ordered baseline.
fn perf_smoke() -> Result<(), String> {
    use parsched::telemetry::{NullTelemetry, Recorder};
    use parsched::{BatchDriver, ClosureMode, Driver, Pipeline, Strategy};
    use parsched_workload::{random_dag_function, DagParams};

    let params = DagParams {
        size: 48,
        load_fraction: 0.2,
        float_fraction: 0.3,
        window: 24,
    };
    let func = random_dag_function(3, &params);
    let pipeline = Pipeline::new(parsched::machine::presets::paper_machine(6));
    let recorder = Recorder::new();
    let result = pipeline
        .compile(&func, &Strategy::combined(), &recorder)
        .map_err(|e| format!("combined compile failed: {e}"))?;
    let rounds = recorder.counter_value("pig.rounds");
    let full = recorder.counter_value("pig.full_rebuilds");
    let incremental = recorder.counter_value("pig.incremental_nodes");
    eprintln!(
        "perf-smoke: {} insts, {} spilled, pig.rounds={rounds}, \
         pig.full_rebuilds={full}, pig.incremental_nodes={incremental}",
        result.stats.inst_count, result.stats.spilled_values
    );
    if rounds == 0 {
        return Err("pig.rounds = 0: the session PIG path never ran".to_string());
    }
    if full > 1 {
        return Err(format!(
            "pig.full_rebuilds = {full} (> 1): spill rounds are rebuilding \
             the closure from scratch instead of incrementally"
        ));
    }

    // The full (non-smoke) pressure workload: 32 spill-heavy functions on
    // a starved 6-register machine — the workload the BENCH baselines
    // quote.
    let pressure = sweep::workloads(false)
        .into_iter()
        .find(|w| w.name == "pressure")
        .ok_or("pressure workload missing from the sweep corpus")?;

    // Backend identity: forcing dense and sparse closures must not change
    // a single instruction or spill anywhere in the batch.
    let mut per_backend: Vec<Vec<(usize, usize)>> = Vec::new();
    for mode in [ClosureMode::Dense, ClosureMode::Sparse] {
        let driver = Driver::new(Pipeline::new(pressure.machine.clone()).with_closure(mode));
        let batch = BatchDriver::new(driver).with_jobs(1);
        let out = batch.compile_module(&pressure.funcs, &NullTelemetry);
        let fingerprints: Vec<(usize, usize)> = out
            .results
            .iter()
            .map(|r| match r {
                Ok(res) => (res.stats.inst_count, res.stats.spilled_values),
                Err(_) => (0, 0),
            })
            .collect();
        per_backend.push(fingerprints);
    }
    if per_backend[0] != per_backend[1] {
        let i = per_backend[0]
            .iter()
            .zip(&per_backend[1])
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Err(format!(
            "dense and sparse closures disagree on pressure function {i}: \
             dense {:?} vs sparse {:?} (insts, spilled_values)",
            per_backend[0][i], per_backend[1][i]
        ));
    }
    eprintln!(
        "perf-smoke: dense/sparse outputs identical across {} pressure functions",
        pressure.funcs.len()
    );

    // Wall-time gate: combined vs the fastest phase-ordered baseline,
    // 1 worker, median of 3. The three strategies are timed in
    // *interleaved* rounds (combined, sched-first, alloc-first, repeat)
    // after one warm-up run each, so a background load spike lands on all
    // strategies instead of skewing a single one's median.
    let make_batch = |strategy: Strategy| {
        let mut ladder = Driver::default_ladder();
        ladder.retain(|s| *s != strategy);
        ladder.insert(0, strategy);
        let driver = Driver::new(Pipeline::new(pressure.machine.clone())).with_ladder(ladder);
        BatchDriver::new(driver).with_jobs(1)
    };
    let batches = [
        make_batch(Strategy::combined()),
        make_batch(Strategy::SchedThenAlloc),
        make_batch(Strategy::AllocThenSched),
    ];
    let mut walls: [Vec<u128>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for batch in &batches {
        let _ = batch.compile_module(&pressure.funcs, &NullTelemetry);
    }
    for _ in 0..3 {
        for (batch, wall) in batches.iter().zip(walls.iter_mut()) {
            wall.push(
                batch
                    .compile_module(&pressure.funcs, &NullTelemetry)
                    .wall
                    .as_nanos(),
            );
        }
    }
    let median = |w: &mut Vec<u128>| {
        w.sort_unstable();
        w[w.len() / 2]
    };
    let [mut w0, mut w1, mut w2] = walls;
    let combined = median(&mut w0);
    let sched_first = median(&mut w1);
    let alloc_first = median(&mut w2);
    let fastest = sched_first.min(alloc_first).max(1);
    let ratio = combined as f64 / fastest as f64;
    eprintln!(
        "perf-smoke: pressure medians — combined {:.1} ms, sched-first {:.1} ms, \
         alloc-first {:.1} ms (ratio {ratio:.2}, limit {PERF_SMOKE_MAX_RATIO})",
        combined as f64 / 1e6,
        sched_first as f64 / 1e6,
        alloc_first as f64 / 1e6,
    );
    if ratio > PERF_SMOKE_MAX_RATIO {
        return Err(format!(
            "combined is {ratio:.2}x the fastest phase-ordered baseline \
             (limit {PERF_SMOKE_MAX_RATIO}): closure maintenance has regressed"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("parsched-bench: {e}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.perf_smoke {
        return match perf_smoke() {
            Ok(()) => {
                println!("perf-smoke: OK");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("parsched-bench: perf-smoke: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some((base, new)) = &opts.compare {
        return match compare_files(base, new, opts.threshold) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("parsched-bench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(path) = &opts.check {
        return match check_file(path) {
            Ok(()) => {
                println!("{path}: OK");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("parsched-bench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut config = if opts.smoke {
        SweepConfig::smoke()
    } else {
        SweepConfig::full()
    };
    if let Some(iters) = opts.iters {
        config.iters = iters;
    }
    if let Some(warmup) = opts.warmup {
        config.warmup = warmup;
    }

    let host_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mode = if config.smoke { "smoke" } else { "full" };
    eprintln!(
        "parsched-bench: {mode} sweep, {} iters + {} warmup per point, host has {host_threads} thread(s)",
        config.iters, config.warmup
    );

    let points = sweep::run_sweep(&config);
    let report = sweep::render_report(&points, mode, host_threads, opts.label.as_deref());

    // Self-validate before writing: a report that fails its own schema
    // check must never land on disk looking authoritative.
    let doc = match json::parse(&report) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("parsched-bench: generated report is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = sweep::validate_report(&doc) {
        eprintln!("parsched-bench: generated report failed validation: {e}");
        return ExitCode::FAILURE;
    }

    if let Err(e) = std::fs::write(&opts.out, &report) {
        eprintln!("parsched-bench: write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {} ({} sweep points)", opts.out, points.len());
    ExitCode::SUCCESS
}
