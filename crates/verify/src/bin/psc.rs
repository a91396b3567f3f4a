//! `psc` — the parsched command-line driver.
//!
//! Compile a textual-IR module (one or more functions) with a chosen
//! strategy and machine, print the result, the cycle-by-cycle schedule, or
//! the statistics, and optionally execute it in the reference interpreter.
//! Every module, one function or many, compiles through one
//! [`BatchDriver`]; its functions compile in parallel under `--jobs N` with
//! byte-identical output for every `N`.
//!
//! ```text
//! psc FILE [--strategy combined|alloc-first|sched-first|linear-scan|spill-everything|exact]
//!          [--machine single|paper|mips|rs6000|wide4]
//!          [--machine-spec FILE]
//!          [--regs N]
//!          [--emit text|schedule|stats|json|dot]
//!          [--jobs N]
//!          [--trace FILE] [--stats-json FILE] [--dump-dir DIR]
//!          [--per-block]
//!          [--verify]
//!          [--run ARG...]
//! ```
//!
//! `--verify` runs the independent `parsched-verify` checkers on every
//! compiled function (schedule legality, allocation soundness, Theorem 1,
//! spill well-formedness, and the differential oracle) and exits 12 if any
//! invariant is violated.

use parsched::graph::dot::{ungraph_to_dot, DotOptions};
use parsched::ir::interp::{Interpreter, Memory};
use parsched::ir::liveness::Liveness;
use parsched::ir::{parse_module, print_function, print_inst, print_module, BlockId, Function};
use parsched::machine::{parse_machine_spec, presets, MachineDesc};
use parsched::regalloc::{BlockAllocProblem, Pig};
use parsched::sched::{list_schedule, DepGraph, SchedPriority};
use parsched::telemetry::json::{Layout, Writer};
use parsched::telemetry::{
    ChromeTraceSink, Fanout, FlightRecorder, NullTelemetry, PhaseTree, Recorder, Telemetry,
};
use parsched::{
    BatchDriver, BatchOutput, Budget, CompileResult, CompileStats, Driver, GlobalScope,
    ParschedError, Pipeline, Strategy,
};
use parsched_verify::Verifier;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: psc FILE [options]
FILE is a textual-IR module: one or more `func @name(...) { ... }` bodies.
options:
  --strategy combined|alloc-first|sched-first|linear-scan|spill-everything|exact
                         (default combined); exact runs the joint
                         branch-and-bound solver on small single blocks
                         (see docs/EXACT.md)
  --exact-max-insts N    with --strategy exact: largest block (in
                         instructions) the solver accepts (default 20)
  --per-block            baseline for multi-block functions: block-local
                         webs share registers but every cross-block web
                         gets a dedicated one (see docs/GLOBAL.md)
  --machine single|paper|mips|rs6000|wide4      (default paper)
  --machine-spec FILE    load a textual machine description instead
  --regs N               override the register-file size
  --emit text|schedule|stats|json|dot           (default text)
                         dot renders block 0's parallelizable interference
                         graph (false-dependence edges dashed);
                         schedule/dot/--run need a single-function module
  --jobs N               compile the module's functions on N worker
                         threads (work stealing; 0 = one per core;
                         default 1); output is byte-identical for every N
  --max-insts N          budget: largest block (in instructions) the
                         super-linear phases will accept
  --deadline-ms N        budget: wall-clock deadline for the compile
  --resilient            on failure, walk the degradation ladder
                         (combined -> sched-first -> alloc-first ->
                         linear-scan -> spill-everything) instead of
                         exiting; the final level appears in --emit stats
  --trace FILE           write a Chrome trace_event JSON of the compile
                         (open in chrome://tracing or ui.perfetto.dev)
  --profile              print a hierarchical phase-time table and the
                         top-10 slowest blocks (inst count, PIG edges,
                         spill rounds, degradation) to stderr
  --stats-json FILE      write statistics, compile wall times and
                         throughput, per-phase wall times, histogram
                         percentiles, and all telemetry counters as JSON
  --flight-json FILE     write the flight-recorder ring as JSON when a
                         dump triggers (degradation, budget trip, failed
                         --verify); the human-readable dump goes to stderr
  --dump-dir DIR         write DOT dumps of the input function's graphs:
                         per block Gs (scheduling DAG), Et (transitive
                         schedule closure), Gf (false-dependence graph),
                         Gr (interference), and the PIG; plus function-wide
                         cfg.dot (CFG, plausible pairs as dashed edges),
                         webs.txt (the web table), and global_pig.dot
                         (cross-block PIG over webs)
  --verify               validate the output with the independent
                         parsched-verify checkers (schedule legality,
                         allocation soundness, Theorem 1, spill code,
                         differential oracle); violations exit 12 and the
                         checks appear as verify.* counters in --stats-json
  --run ARG...           execute before and after compiling and compare
  --help, -h             print this help
  --version              print the version
exit codes:
  0 ok   2 usage   3 parse   4 verify   5 alloc   6 global alloc
  7 sched   8 budget exceeded   9 internal panic   10 io   11 miscompile
  12 output failed --verify
";

struct Options {
    file: String,
    strategy: Strategy,
    machine: MachineDesc,
    regs: Option<u32>,
    emit: Emit,
    jobs: Option<usize>,
    max_insts: Option<usize>,
    deadline_ms: Option<u64>,
    resilient: bool,
    trace: Option<String>,
    profile: bool,
    stats_json: Option<String>,
    flight_json: Option<String>,
    dump_dir: Option<String>,
    scope: GlobalScope,
    verify: bool,
    run: Option<Vec<i64>>,
}

impl Options {
    /// Whether an in-memory [`Recorder`] must observe the compile.
    fn recording(&self) -> bool {
        self.stats_json.is_some() || self.profile
    }

    /// Whether the flight recorder is armed: any mode where a post-mortem
    /// dump could trigger (resilient ladder, budgets, output verification)
    /// or was explicitly requested.
    fn flight_armed(&self) -> bool {
        self.resilient
            || self.verify
            || self.profile
            || self.max_insts.is_some()
            || self.deadline_ms.is_some()
            || self.flight_json.is_some()
    }
}

/// A diagnostic plus the process exit code it maps to. Every failure is
/// one line on stderr — no panics, no backtraces for user errors.
struct Failure {
    code: u8,
    /// Empty when the failure was already reported on stderr.
    msg: String,
}

impl Failure {
    /// Exit with `code` (a [`ParschedError::exit_code`]); the diagnostic
    /// lines are already on stderr.
    fn reported(code: i32) -> Failure {
        Failure {
            // Exit codes fit in a u8 by construction (3..=12).
            code: code as u8,
            msg: String::new(),
        }
    }

    fn io(path: &str, err: &dyn std::fmt::Display) -> Failure {
        Failure {
            code: 10,
            msg: format!("{path}: {err}"),
        }
    }
}

impl From<ParschedError> for Failure {
    fn from(e: ParschedError) -> Failure {
        Failure {
            // Exit codes fit in a u8 by construction (3..=12).
            code: e.exit_code() as u8,
            msg: e.to_string(),
        }
    }
}

#[derive(PartialEq)]
enum Emit {
    Text,
    Schedule,
    Stats,
    Json,
    Dot,
}

/// What the command line asked for: a compile, or an informational exit.
enum Cmd {
    Help,
    Version,
    Compile(Box<Options>),
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(Cmd::Help) => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Cmd::Version) => {
            println!("psc {}", env!("CARGO_PKG_VERSION"));
            ExitCode::SUCCESS
        }
        Ok(Cmd::Compile(opts)) => match real_main(*opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(f) => {
                if !f.msg.is_empty() {
                    eprintln!("psc: {}", f.msg);
                }
                ExitCode::from(f.code)
            }
        },
        Err(msg) => {
            eprintln!("psc: {msg}");
            ExitCode::from(2)
        }
    }
}

fn parse_args() -> Result<Cmd, String> {
    let mut args = std::env::args().skip(1);
    let mut file: Option<String> = None;
    let mut strategy = Strategy::combined();
    let mut machine: Option<MachineDesc> = None;
    let mut regs: Option<u32> = None;
    let mut emit = Emit::Text;
    let mut jobs: Option<usize> = None;
    let mut max_insts: Option<usize> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut resilient = false;
    let mut trace: Option<String> = None;
    let mut profile = false;
    let mut stats_json: Option<String> = None;
    let mut flight_json: Option<String> = None;
    let mut dump_dir: Option<String> = None;
    let mut scope = GlobalScope::Function;
    let mut verify = false;
    let mut run: Option<Vec<i64>> = None;
    let mut exact_max_insts: Option<usize> = None;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(Cmd::Help),
            "--version" => return Ok(Cmd::Version),
            "--strategy" => {
                let v = args.next().ok_or("--strategy needs a value")?;
                strategy = Strategy::parse(&v).map_err(|e| e.to_string())?;
            }
            "--exact-max-insts" => {
                let v = args.next().ok_or("--exact-max-insts needs a value")?;
                let cap = v
                    .parse()
                    .map_err(|_| format!("bad exact instruction cap `{v}`"))?;
                exact_max_insts = Some(cap);
            }
            "--machine" => {
                let v = args.next().ok_or("--machine needs a value")?;
                machine =
                    Some(presets::by_name(&v, 32).ok_or_else(|| format!("unknown machine `{v}`"))?);
            }
            "--machine-spec" => {
                let path = args.next().ok_or("--machine-spec needs a path")?;
                let src =
                    std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
                machine = Some(parse_machine_spec(&src).map_err(|e| e.to_string())?);
            }
            "--regs" => {
                let v = args.next().ok_or("--regs needs a value")?;
                regs = Some(v.parse().map_err(|_| format!("bad register count `{v}`"))?);
            }
            "--emit" => {
                let v = args.next().ok_or("--emit needs a value")?;
                emit = match v.as_str() {
                    "text" => Emit::Text,
                    "schedule" => Emit::Schedule,
                    "stats" => Emit::Stats,
                    "json" => Emit::Json,
                    "dot" => Emit::Dot,
                    other => return Err(format!("unknown emit mode `{other}`")),
                };
            }
            "--jobs" => {
                let v = args.next().ok_or("--jobs needs a value")?;
                jobs = Some(v.parse().map_err(|_| format!("bad worker count `{v}`"))?);
            }
            "--max-insts" => {
                let v = args.next().ok_or("--max-insts needs a value")?;
                max_insts = Some(
                    v.parse()
                        .map_err(|_| format!("bad instruction cap `{v}`"))?,
                );
            }
            "--deadline-ms" => {
                let v = args.next().ok_or("--deadline-ms needs a value")?;
                deadline_ms = Some(v.parse().map_err(|_| format!("bad deadline `{v}`"))?);
            }
            "--resilient" => resilient = true,
            "--trace" => {
                trace = Some(args.next().ok_or("--trace needs a path")?);
            }
            "--profile" => profile = true,
            "--stats-json" => {
                stats_json = Some(args.next().ok_or("--stats-json needs a path")?);
            }
            "--flight-json" => {
                flight_json = Some(args.next().ok_or("--flight-json needs a path")?);
            }
            "--dump-dir" => {
                dump_dir = Some(args.next().ok_or("--dump-dir needs a directory")?);
            }
            "--per-block" => scope = GlobalScope::PerBlockBaseline,
            "--verify" => verify = true,
            "--run" => {
                let rest: Result<Vec<i64>, _> = args.by_ref().map(|a| a.parse()).collect();
                run = Some(rest.map_err(|_| "--run arguments must be integers")?);
            }
            other if file.is_none() && !other.starts_with('-') => {
                file = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    let file = file.ok_or(USAGE)?;
    if let Some(cap) = exact_max_insts {
        match &mut strategy {
            Strategy::Exact(cfg) => cfg.max_insts = cap,
            _ => return Err("--exact-max-insts needs --strategy exact".to_string()),
        }
    }
    Ok(Cmd::Compile(Box::new(Options {
        file,
        strategy,
        machine: machine.unwrap_or_else(|| presets::paper_machine(32)),
        regs,
        emit,
        jobs,
        max_insts,
        deadline_ms,
        resilient,
        trace,
        profile,
        stats_json,
        flight_json,
        dump_dir,
        scope,
        verify,
        run,
    })))
}

/// Compiles every function of the module through one work-stealing
/// [`BatchDriver`] and renders per the emit mode. Results are joined in
/// input order, so the output is byte-identical for every `--jobs` value.
/// Only the function count decides the output shape: a one-function module
/// prints the function's own `--emit json|stats` and `--stats-json`
/// documents, and `--emit schedule|dot`, `--run` and `--dump-dir` need one.
fn real_main(opts: Options) -> Result<(), Failure> {
    let src = std::fs::read_to_string(&opts.file).map_err(|e| Failure::io(&opts.file, &e))?;
    let funcs = parse_module(&src).map_err(|e| Failure::from(ParschedError::Parse(e)))?;
    let single = funcs.len() == 1;
    if !single && (opts.run.is_some() || opts.emit == Emit::Schedule || opts.emit == Emit::Dot) {
        return Err(Failure {
            code: 2,
            msg: "--emit schedule, --emit dot, and --run need a single-function module".to_string(),
        });
    }
    if !single && opts.dump_dir.is_some() {
        return Err(Failure {
            code: 2,
            msg: "--dump-dir needs a single-function module".to_string(),
        });
    }
    let machine = match opts.regs {
        Some(r) => opts.machine.with_num_regs(r),
        None => opts.machine.clone(),
    };
    let mut budget = Budget::unlimited();
    if let Some(n) = opts.max_insts {
        budget = budget.with_max_block_insts(n);
    }
    if let Some(ms) = opts.deadline_ms {
        budget = budget.with_deadline_in(Duration::from_millis(ms));
    }
    // Without --resilient the ladder is the requested strategy alone, so a
    // failure surfaces instead of silently degrading; with it, the
    // requested strategy leads the default ladder.
    let ladder = if opts.resilient {
        Driver::preferred_first_ladder(opts.strategy)
    } else {
        vec![opts.strategy]
    };
    let driver = Driver::new(Pipeline::new(machine.clone()).with_scope(opts.scope))
        .with_budget(budget)
        .with_ladder(ladder);
    let batch = BatchDriver::new(driver)
        .with_jobs(opts.jobs.unwrap_or(1))
        .with_recording(opts.recording());

    // Observability sinks: per-worker Recorders back --stats-json/--profile
    // (merged into `out.telemetry`), a ChromeTraceSink backs --trace, and a
    // FlightRecorder rides along whenever a post-mortem dump could trigger.
    // With no flags the compile runs against NullTelemetry at zero cost.
    let chrome = ChromeTraceSink::new();
    let flight = FlightRecorder::default();
    let mut shared: Vec<&(dyn Telemetry + Sync)> = Vec::new();
    if opts.trace.is_some() {
        shared.push(&chrome);
    }
    if opts.flight_armed() {
        shared.push(&flight);
    }
    let shared_sink = Fanout::new(shared);
    let out = batch.compile_module(&funcs, &shared_sink);

    // --verify runs before the artifacts are written, so its verify.*
    // counters land in --stats-json; the failure itself (exit 12) comes
    // after, so a violating compile still leaves a complete record.
    let mut verify_failures: Vec<(&Function, Vec<parsched_verify::Violation>)> = Vec::new();
    if opts.verify {
        let verifier = Verifier::new(&machine).strategy(opts.strategy);
        let sink = Fanout::<dyn Telemetry>::new(vec![&out.telemetry, &shared_sink]);
        for (func, res) in funcs.iter().zip(&out.results) {
            if let Ok(r) = res {
                let report = verifier.verify(func, r, &sink);
                if !report.ok() {
                    verify_failures.push((func, report.violations));
                }
            }
        }
    }

    if let Some(path) = &opts.trace {
        chrome
            .write_to_file(std::path::Path::new(path))
            .map_err(|e| Failure::io(path, &e))?;
    }
    if let Some(path) = &opts.stats_json {
        std::fs::write(path, stats_json(&opts, &machine, &funcs, &out))
            .map_err(|e| Failure::io(path, &e))?;
    }
    if opts.profile {
        let rungs: std::collections::BTreeMap<String, &str> = funcs
            .iter()
            .zip(&out.results)
            .filter_map(|(f, r)| {
                r.as_ref()
                    .ok()
                    .map(|r| (f.name().to_string(), r.degradation.label()))
            })
            .collect();
        eprint!("{}", render_profile(&out.telemetry, &rungs));
    }

    // Flight-recorder triggers, checked before the failure paths so the
    // dump lands even when psc is about to exit non-zero.
    let errored = out.err_count();
    let degraded = out
        .results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .filter(|r| r.degradation != parsched::DegradationLevel::None)
        .count();
    if errored > 0 || degraded > 0 || !verify_failures.is_empty() {
        let reason = format!(
            "{errored} failed, {degraded} degraded, {} verify failures",
            verify_failures.len()
        );
        dump_flight(&opts, &flight, &reason)?;
    }

    // Fail only after the measurement artifacts are on disk — a module
    // with one poisoned function still yields a complete stats record.
    // Every failing function is reported once; psc exits with the first
    // one's code. Compile errors take precedence over --verify.
    let prefix = |func: &Function| {
        if single {
            String::new()
        } else {
            format!("@{}: ", func.name())
        }
    };
    let mut first_code = None;
    for (func, res) in funcs.iter().zip(&out.results) {
        if let Err(e) = res {
            eprintln!("psc: {}{e}", prefix(func));
            first_code.get_or_insert(e.exit_code());
        }
    }
    if let Some(code) = first_code {
        return Err(Failure::reported(code));
    }
    if let Some((func, violations)) = verify_failures.first() {
        for (func, violations) in &verify_failures {
            for v in violations {
                eprintln!("psc: {}{v}", prefix(func));
            }
        }
        return Err(Failure::from(ParschedError::OutputVerify {
            function: func.name().to_string(),
            count: violations.len(),
            first: violations
                .first()
                .map(|v| v.to_string())
                .unwrap_or_default(),
        }));
    }

    if let ([func], [Ok(result)]) = (&funcs[..], &out.results[..]) {
        emit_function(&opts, &machine, func, result)
    } else {
        emit_module(&opts, &machine, &funcs, &out);
        Ok(())
    }
}

/// Writes `--dump-dir`, renders a one-function module per the emit mode,
/// then checks `--run`.
fn emit_function(
    opts: &Options,
    machine: &MachineDesc,
    func: &Function,
    result: &CompileResult,
) -> Result<(), Failure> {
    if let Some(dir) = &opts.dump_dir {
        dump_graphs(func, machine, dir)?;
    }
    match opts.emit {
        Emit::Dot => {
            let lv = Liveness::compute(func, &[]);
            let problem = BlockAllocProblem::build(func, BlockId(0), &lv).map_err(|e| Failure {
                code: 5,
                msg: e.to_string(),
            })?;
            let deps = DepGraph::build(func.block(BlockId(0)), &NullTelemetry);
            print!("{}", pig_dot(func, 0, &problem, &deps, machine));
        }
        Emit::Text => print!("{}", print_function(&result.function)),
        Emit::Schedule => {
            for b in 0..result.function.block_count() {
                let block = result.function.block(BlockId(b));
                println!("{}:", block.label());
                let deps = DepGraph::build(block, &NullTelemetry);
                let s = list_schedule(
                    block,
                    &deps,
                    machine,
                    SchedPriority::CriticalPath,
                    &NullTelemetry,
                )
                .map_err(|e| Failure::from(ParschedError::Sched(e)))?;
                for (cycle, group) in s.groups() {
                    let insts: Vec<String> = group
                        .iter()
                        .map(|&i| print_inst(&block.body()[i], &result.function))
                        .collect();
                    println!("  cycle {cycle:>3}: {}", insts.join("  ||  "));
                }
            }
        }
        Emit::Json => {
            let doc = Writer::pretty()
                .object(Layout::Rows, |w| {
                    w.key("machine").str(machine.name());
                    w.key("strategy").str(opts.strategy.label());
                    stats_fields(w, &result.stats);
                })
                .finish();
            println!("{doc}");
        }
        Emit::Stats => {
            let s = &result.stats;
            println!("machine:              {machine}");
            println!("strategy:             {}", opts.strategy.label());
            println!("registers used:       {}", s.registers_used);
            println!("cycles:               {}", s.cycles);
            println!("spilled values:       {}", s.spilled_values);
            println!("spill mem ops:        {}", s.inserted_mem_ops);
            println!("false deps introduced: {}", s.introduced_false_deps);
            println!("false edges given up: {}", s.removed_false_edges);
            println!("instructions:         {}", s.inst_count);
            println!("degradation:          {}", result.degradation.label());
        }
    }

    if let Some(args) = &opts.run {
        let interp = Interpreter::new();
        let before = interp.run(func, args, Memory::new()).map_err(|e| Failure {
            code: 1,
            msg: format!("original failed: {e}"),
        })?;
        let after = interp
            .run(&result.function, args, Memory::new())
            .map_err(|e| Failure {
                code: 1,
                msg: format!("compiled failed: {e}"),
            })?;
        println!("original returns: {:?}", before.return_value);
        println!("compiled returns: {:?}", after.return_value);
        if before.return_value != after.return_value {
            return Err(Failure {
                code: 11,
                msg: "MISCOMPILE: return values differ".to_string(),
            });
        }
    }
    Ok(())
}

/// Renders a multi-function module per the emit mode (`text`, `json` or
/// `stats`; the single-function modes were rejected up front). Every slot
/// compiled: failures exit before rendering.
fn emit_module(opts: &Options, machine: &MachineDesc, funcs: &[Function], out: &BatchOutput) {
    let results: Vec<&CompileResult> = out.results.iter().flatten().collect();
    match opts.emit {
        Emit::Text => {
            let compiled: Vec<Function> = results.iter().map(|r| r.function.clone()).collect();
            print!("{}", print_module(&compiled));
        }
        Emit::Json => {
            let doc = Writer::pretty()
                .array(Layout::Rows, |w| {
                    for (func, r) in funcs.iter().zip(&results) {
                        w.object(Layout::Line, |w| {
                            w.key("function").str(func.name());
                            w.key("machine").str(machine.name());
                            w.key("strategy").str(opts.strategy.label());
                            w.key("degradation").str(r.degradation.label());
                            stats_fields(w, &r.stats);
                        });
                    }
                })
                .finish();
            println!("{doc}");
        }
        Emit::Stats => {
            let worst = results
                .iter()
                .map(|r| r.degradation)
                .max()
                .unwrap_or_default();
            let cycles: u64 = results.iter().map(|r| u64::from(r.stats.cycles)).sum();
            println!("module:               {}", opts.file);
            println!("functions:            {}", results.len());
            println!("jobs:                 {}", out.jobs);
            println!("machine:              {machine}");
            println!("strategy:             {}", opts.strategy.label());
            println!("total cycles:         {cycles}");
            println!("total spilled values: {}", out.total_spills());
            println!("total instructions:   {}", out.total_insts());
            println!("worst degradation:    {}", worst.label());
        }
        // Rejected in `real_main`.
        Emit::Schedule | Emit::Dot => {}
    }
}

/// Writes the flight-recorder dump: human-readable ring to stderr, JSON to
/// `--flight-json` when given. Called only when a trigger fired.
fn dump_flight(opts: &Options, flight: &FlightRecorder, reason: &str) -> Result<(), Failure> {
    if !opts.flight_armed() {
        return Ok(());
    }
    eprint!("{}", flight.dump(reason));
    if let Some(path) = &opts.flight_json {
        std::fs::write(path, flight.dump_json(reason)).map_err(|e| Failure::io(path, &e))?;
    }
    Ok(())
}

/// One parsed `profile.block` event (emitted by the block allocator per
/// successfully allocated block when a recorder is live).
struct HotBlock {
    func: String,
    insts: u64,
    pig_edges: u64,
    rounds: u64,
    spilled: u64,
    wall_ns: u64,
}

fn parse_hot_block(detail: &str) -> Option<HotBlock> {
    let mut func = None;
    let mut nums = [0u64; 5];
    for field in detail.split_whitespace() {
        let (key, value) = field.split_once('=')?;
        match key {
            "func" => func = Some(value.to_string()),
            "insts" => nums[0] = value.parse().ok()?,
            "pig_edges" => nums[1] = value.parse().ok()?,
            "rounds" => nums[2] = value.parse().ok()?,
            "spilled" => nums[3] = value.parse().ok()?,
            "wall_ns" => nums[4] = value.parse().ok()?,
            _ => {}
        }
    }
    Some(HotBlock {
        func: func?,
        insts: nums[0],
        pig_edges: nums[1],
        rounds: nums[2],
        spilled: nums[3],
        wall_ns: nums[4],
    })
}

/// Renders the `--profile` report: the hierarchical phase-time table built
/// from recorded span paths, per-phase latency percentiles, and the top-10
/// slowest blocks. `rungs` maps function name to its degradation label.
fn render_profile(recorder: &Recorder, rungs: &std::collections::BTreeMap<String, &str>) -> String {
    use parsched::telemetry::fmt_ns;
    let mut out = String::new();
    let tree = PhaseTree::build(&recorder.spans());
    out.push_str("=== phase profile ===\n");
    out.push_str(&tree.render());

    let hists = recorder.histograms();
    if !hists.is_empty() {
        out.push_str("\n=== phase latency percentiles (per span) ===\n");
        out.push_str(&format!(
            "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            "name", "count", "p50", "p90", "p99", "max"
        ));
        for (name, h) in &hists {
            let p = |q: f64| {
                h.percentile(q)
                    .map_or_else(|| "-".into(), |v| fmt_ns(v as u128))
            };
            out.push_str(&format!(
                "{:<28} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
                name,
                h.count(),
                p(50.0),
                p(90.0),
                p(99.0),
                h.max().map_or_else(|| "-".into(), |v| fmt_ns(v as u128))
            ));
        }
    }

    let mut hot: Vec<HotBlock> = recorder
        .events()
        .iter()
        .filter(|e| e.name == "profile.block")
        .filter_map(|e| parse_hot_block(&e.detail))
        .collect();
    hot.sort_by_key(|b| std::cmp::Reverse(b.wall_ns));
    if !hot.is_empty() {
        out.push_str("\n=== hottest blocks (top 10 by wall time) ===\n");
        out.push_str(&format!(
            "{:<24} {:>10} {:>7} {:>10} {:>7} {:>8} {:<18}\n",
            "function", "wall", "insts", "pig_edges", "rounds", "spilled", "degradation"
        ));
        for b in hot.iter().take(10) {
            out.push_str(&format!(
                "@{:<23} {:>10} {:>7} {:>10} {:>7} {:>8} {:<18}\n",
                b.func,
                fmt_ns(b.wall_ns as u128),
                b.insts,
                b.pig_edges,
                b.rounds,
                b.spilled,
                rungs.get(&b.func).copied().unwrap_or("-")
            ));
        }
    }
    out
}

/// Writes the seven [`CompileStats`] fields, in their fixed order, into
/// the open object.
fn stats_fields(w: &mut Writer, s: &CompileStats) {
    w.key("registers_used").num(s.registers_used);
    w.key("cycles").num(s.cycles);
    w.key("spilled_values").num(s.spilled_values);
    w.key("inserted_mem_ops").num(s.inserted_mem_ops);
    w.key("introduced_false_deps").num(s.introduced_false_deps);
    w.key("removed_false_edges").num(s.removed_false_edges);
    w.key("inst_count").num(s.inst_count);
}

/// Renders the `--stats-json` payload: machine and strategy, then for a
/// one-function module its degradation, full [`CompileStats`] and
/// per-block cycles, or for a module the per-function stats and wall
/// times; then the batch wall time and throughput, and the merged
/// telemetry (phase totals, histogram percentiles, counters).
fn stats_json(
    opts: &Options,
    machine: &MachineDesc,
    funcs: &[Function],
    out: &BatchOutput,
) -> String {
    let recorder = &out.telemetry;
    Writer::pretty()
        .object(Layout::Rows, |w| {
            w.key("machine").str(machine.name());
            w.key("strategy").str(opts.strategy.label());
            if let [Ok(r)] = &out.results[..] {
                w.key("degradation").str(r.degradation.label());
                w.key("stats")
                    .object(Layout::Rows, |w| stats_fields(w, &r.stats));
                w.key("block_cycles").array(Layout::Line, |w| {
                    for c in &r.block_cycles {
                        w.num(c);
                    }
                });
            } else {
                w.key("jobs").num(out.jobs);
                w.key("functions").array(Layout::Rows, |w| {
                    for ((func, res), ns) in funcs.iter().zip(&out.results).zip(&out.per_func_ns) {
                        w.object(Layout::Line, |w| {
                            w.key("name").str(func.name());
                            w.key("ok").bool(res.is_ok());
                            w.key("wall_ns").num(ns);
                            match res {
                                Ok(r) => {
                                    w.key("degradation").str(r.degradation.label());
                                    stats_fields(w, &r.stats);
                                }
                                Err(e) => {
                                    w.key("error").str(&e.to_string());
                                }
                            }
                        });
                    }
                });
            }
            w.key("wall_ns").num(out.wall.as_nanos());
            w.key("insts_per_sec")
                .num(format_args!("{:.1}", out.insts_per_sec()));
            w.key("phases").array(Layout::Rows, |w| {
                for (name, ns) in recorder.phase_totals() {
                    w.object(Layout::Line, |w| {
                        w.key("name").str(&name);
                        w.key("total_ns").num(ns);
                    });
                }
            });
            w.key("histograms").object(Layout::Rows, |w| {
                for (name, h) in recorder.histograms() {
                    let q = |p: f64| h.percentile(p).unwrap_or(0);
                    w.key(&name).object(Layout::Line, |w| {
                        w.key("count").num(h.count());
                        w.key("p50").num(q(50.0));
                        w.key("p90").num(q(90.0));
                        w.key("p99").num(q(99.0));
                        w.key("max").num(h.max().unwrap_or(0));
                    });
                }
            });
            w.key("counters").object(Layout::Rows, |w| {
                for (name, value) in recorder.counters() {
                    w.key(&name).num(value);
                }
            });
        })
        .finish()
        + "\n"
}

/// Writes the function-level dumps: `cfg.dot` (the control-flow graph,
/// with *plausible* region pairs — a dominates b, b post-dominates a — as
/// dashed constraint-free edges), `webs.txt` (the web table: register,
/// defining blocks, def/use counts, cross-block flag), and `global_pig.dot`
/// (the cross-block parallelizable interference graph over webs, false
/// edges dashed). See docs/GLOBAL.md for how to read them.
fn dump_function_graphs(
    func: &Function,
    machine: &MachineDesc,
    write: &dyn Fn(String, String) -> Result<(), Failure>,
) -> Result<(), Failure> {
    use parsched::ir::cfg::Cfg;
    use parsched::ir::defuse::DefSite;
    use parsched::ir::webs::WebId;
    use parsched::regalloc::global::GlobalAllocProblem;
    use std::fmt::Write as _;

    let cfg = Cfg::new(func);
    let n = func.block_count();
    let mut dot = String::new();
    let _ = writeln!(dot, "digraph cfg {{");
    let _ = writeln!(
        dot,
        "  label=\"CFG of @{} (dashed = plausible region pairs)\";",
        func.name()
    );
    let _ = writeln!(dot, "  node [shape=box];");
    for b in 0..n {
        let _ = writeln!(
            dot,
            "  n{b} [label=\"{}\"];",
            func.block(BlockId(b)).label()
        );
    }
    let _ = writeln!(dot, "  nexit [label=\"exit\", style=dotted];");
    for b in 0..n {
        let succs = func.successors(BlockId(b));
        if succs.is_empty() {
            let _ = writeln!(dot, "  n{b} -> nexit;");
        }
        for s in succs {
            let _ = writeln!(dot, "  n{b} -> n{};", s.0);
        }
    }
    for a in 0..n {
        for b in 0..n {
            if cfg.is_plausible_pair(BlockId(a), BlockId(b)) {
                let _ = writeln!(
                    dot,
                    "  n{a} -> n{b} [style=dashed, constraint=false, color=gray];"
                );
            }
        }
    }
    let _ = writeln!(dot, "}}");
    write("cfg.dot".to_string(), dot)?;

    let problem = GlobalAllocProblem::build(func, machine, &Budget::unlimited());
    let webs = problem.webs();
    let defuse = problem.defuse();
    let cross = problem.cross_block_webs(func);
    let mut use_counts = vec![0usize; webs.len()];
    for (_, reaching) in defuse.uses() {
        if let Some(&d) = reaching.first() {
            use_counts[webs.web_of(d).0] += 1;
        }
    }
    let mut table = String::new();
    let _ = writeln!(
        table,
        "webs of @{} ({} webs, {} cross-block)",
        func.name(),
        webs.len(),
        cross.iter().filter(|&&c| c).count()
    );
    let _ = writeln!(
        table,
        "{:<6} {:<6} {:>4} {:>4} {:<6} blocks",
        "web", "reg", "defs", "uses", "cross"
    );
    for (w, members) in webs.iter() {
        let mut blocks: Vec<String> = Vec::new();
        for &d in members {
            let label = match defuse.site_of(d) {
                DefSite::Param(_) => func.block(func.entry()).label().to_string(),
                DefSite::Inst(id, _) => func.block(id.block).label().to_string(),
            };
            if !blocks.contains(&label) {
                blocks.push(label);
            }
        }
        let _ = writeln!(
            table,
            "{:<6} {:<6} {:>4} {:>4} {:<6} {}",
            format!("w{}", w.0),
            webs.reg_of(w).to_string(),
            members.len(),
            use_counts[w.0],
            if cross[w.0] { "yes" } else { "no" },
            blocks.join(",")
        );
    }
    write("webs.txt".to_string(), table)?;

    let pig = problem.pig();
    let mut pig_opts = DotOptions::titled(format!(
        "Global PIG of @{} on {} over webs (dashed = false-dependence edges)",
        func.name(),
        machine.name()
    ));
    pig_opts.node_labels = (0..webs.len())
        .map(|w| format!("w{w} ({})", webs.reg_of(WebId(w))))
        .collect();
    pig_opts.edge_styles = pig
        .false_only()
        .edges()
        .map(|(u, v)| (u, v, "dashed".to_string()))
        .collect();
    write(
        "global_pig.dot".to_string(),
        ungraph_to_dot(pig.graph(), &pig_opts),
    )
}

/// Writes per-block DOT dumps of the input function's graphs into `dir`:
/// `block<b>_gs.dot` (scheduling DAG), `block<b>_et.dot` (undirected
/// transitive closure plus machine conflicts), `block<b>_gf.dot` (its
/// complement, the false-dependence graph), and — when the block forms a
/// valid allocation problem — `block<b>_gr.dot` (interference) and
/// `block<b>_pig.dot` (the parallelizable interference graph, false edges
/// dashed). Blocks whose allocation problem cannot be built (e.g. multiple
/// definitions of one register) get only the schedule-side graphs, with a
/// note on stderr.
fn dump_graphs(func: &Function, machine: &MachineDesc, dir: &str) -> Result<(), Failure> {
    use parsched::graph::dot::digraph_to_dot;
    use parsched::sched::falsedep::{et_graph, false_dependence_graph};

    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| Failure::io(&dir.display().to_string(), &e))?;
    let write = |name: String, contents: String| -> Result<(), Failure> {
        let path = dir.join(name);
        std::fs::write(&path, contents).map_err(|e| Failure::io(&path.display().to_string(), &e))
    };
    dump_function_graphs(func, machine, &write)?;
    let lv = Liveness::compute(func, &[]);

    for b in 0..func.block_count() {
        let block = func.block(BlockId(b));
        let deps = DepGraph::build(block, &NullTelemetry);
        let inst_labels: Vec<String> = block
            .insts()
            .iter()
            .enumerate()
            .map(|(i, inst)| format!("{i}: {}", print_inst(inst, func)))
            .collect();

        let mut gs_opts = DotOptions::titled(format!(
            "Gs of @{} block {b} ({})",
            func.name(),
            block.label()
        ));
        gs_opts.node_labels.clone_from(&inst_labels);
        write(
            format!("block{b}_gs.dot"),
            digraph_to_dot(deps.graph(), &gs_opts),
        )?;

        let et = et_graph(&deps, machine, &NullTelemetry);
        let mut et_opts = DotOptions::titled(format!(
            "Et of @{} block {b}: undirected transitive closure of Gs + machine conflicts",
            func.name()
        ));
        et_opts.node_labels.clone_from(&inst_labels);
        write(format!("block{b}_et.dot"), ungraph_to_dot(&et, &et_opts))?;

        let gf = false_dependence_graph(&deps, machine, &NullTelemetry);
        let mut gf_opts = DotOptions::titled(format!(
            "Gf of @{} block {b}: complement of Et (pairs free to reorder)",
            func.name()
        ));
        gf_opts.node_labels = inst_labels;
        write(format!("block{b}_gf.dot"), ungraph_to_dot(&gf, &gf_opts))?;

        let problem = match BlockAllocProblem::build(func, BlockId(b), &lv) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("psc: block {b}: no allocation problem ({e}); skipping Gr and PIG");
                continue;
            }
        };
        let mut gr_opts =
            DotOptions::titled(format!("Gr of @{} block {b}: interference", func.name()));
        gr_opts.node_labels = problem.nodes().iter().map(|r| r.to_string()).collect();
        write(
            format!("block{b}_gr.dot"),
            ungraph_to_dot(problem.interference(), &gr_opts),
        )?;

        write(
            format!("block{b}_pig.dot"),
            pig_dot(func, b, &problem, &deps, machine),
        )?;
    }
    Ok(())
}

/// Renders block `b`'s parallelizable interference graph as DOT, false-
/// dependence edges dashed: `--emit dot` prints block 0's, `--dump-dir`
/// writes every block's `block<b>_pig.dot`.
fn pig_dot(
    func: &Function,
    b: usize,
    problem: &BlockAllocProblem,
    deps: &DepGraph,
    machine: &MachineDesc,
) -> String {
    let pig = Pig::build(problem, deps, machine, &NullTelemetry);
    let mut opts = DotOptions::titled(format!(
        "PIG of @{} block {b} on {} (dashed = false-dependence edges)",
        func.name(),
        machine.name()
    ));
    opts.node_labels = problem.nodes().iter().map(|r| r.to_string()).collect();
    opts.edge_styles = pig
        .false_only()
        .edges()
        .map(|(u, v)| (u, v, "dashed".to_string()))
        .collect();
    ungraph_to_dot(pig.graph(), &opts)
}
