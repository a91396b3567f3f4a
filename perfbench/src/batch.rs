//! The batch workloads — `pig-large`, `spill-tight` and `gap-small` — as
//! `psc` users see them: a module's text in, the compiled module's text
//! out, through `BatchDriver` with one worker per core and no deadline, so
//! the output is deterministic.

use crate::common::{nproc, peak_rss_mb, GapTally, Oracle, Quality, Report};
use crate::gen::{self, DagShape, Rng};
use crate::stats::{median, tail};
use crate::Args;
use parsched::exact::ExactConfig;
use parsched::ir::{parse_module, print_module, Function};
use parsched::machine::presets::paper_machine;
use parsched::machine::MachineDesc;
use parsched::telemetry::NullTelemetry;
use parsched::{BatchDriver, BatchOutput, Driver, Pipeline, Strategy};
use std::time::{Duration, Instant};

/// Functions per module (one `psc` request): small modules, so a run has
/// enough distinct requests (at least 100) for a p90 latency tail.
const FUNCS_PER_MODULE: usize = 4;
/// Search-node cap for the exact solver: a cap, never a deadline, so its
/// results do not depend on machine speed.
pub const EXACT_MAX_NODES: u64 = 20_000;
/// Gap-sample size: 320 modules of 32 tight-register blocks. The counts
/// taken from it (spills, cycle gap) are heavy-tailed per block, so the
/// sample is as large as the run time allows (the exact solver takes
/// about 0.5 ms a block).
const GAP_MODULES: usize = 320;
const GAP_FUNCS_PER_MODULE: usize = 32;
/// gap-small times its first 150 module pairs, so that each is compiled
/// in about eight passes of a run and its fastest pass is a quiet one; the
/// counts come from the whole sample, in the untimed check pass. The 9600
/// timed functions put the tail rule on p99 (96 beyond): at 10 000 or more
/// it moves to p99.9, whose 10 samples beyond swung 20% across seeds.
const GAP_TIMED_MODULES: usize = 150;
/// Set-up runs this many times before the timed passes, and once more
/// after each pass; `setup_s` is the median of all of them.
const SETUP_REPS: usize = 5;
/// Workers for the timed passes. One, not one per core: on a 2-vCPU host
/// whose second vCPU is often taken by other tenants, two workers ran at
/// ~1.1 CPUs and throughput swung 2x between runs. The check pass runs
/// one worker per core, so determinism across worker counts is still
/// checked on every run.
const TIMED_JOBS: usize = 1;
/// Timed passes run even when `--seconds` is shorter than one pass.
const MIN_PASSES: usize = 3;

/// One module request of a batch workload.
pub struct ModuleSpec {
    pub text: String,
    pub machine: MachineDesc,
    pub exact: bool,
    pub insts: usize,
    pub funcs: Vec<Function>,
}

/// The driver for a module: the default ladder (combined first) or the
/// exact solver alone. No budget: output must not depend on speed.
pub fn driver_for(spec: &ModuleSpec, jobs: usize) -> BatchDriver {
    let mut driver = Driver::new(Pipeline::new(spec.machine.clone()));
    if spec.exact {
        driver = driver.with_ladder(vec![Strategy::Exact(exact_config())]);
    }
    BatchDriver::new(driver).with_jobs(jobs)
}

fn spec(text: String, machine: MachineDesc, exact: bool) -> ModuleSpec {
    let funcs = parse_module(&text).expect("generated modules parse");
    let insts = funcs.iter().map(Function::inst_count).sum();
    ModuleSpec {
        text,
        machine,
        exact,
        insts,
        funcs,
    }
}

/// Per-module latency limit for `slo_share`: a generous multiple of the
/// module compile time on a 2-core x86-64 host, so only a slowdown of
/// several times, or a stall, misses it.
const LATENCY_LIMIT_MS: f64 = 400.0;

/// The workload's modules, generated from `seed`.
pub fn corpus(workload: &str, seed: u64) -> Vec<ModuleSpec> {
    let mut rng = Rng::new(seed);
    match workload {
        // Large blocks with ample registers: closure, PIG build/coloring
        // and false-dependence counting dominate; spills stay rare. Narrow
        // windows make chain-like DAGs (sparse closure under Auto); wide
        // ones make parallel DAGs, some wide enough for the dense closure.
        // Rare spills make the spill and false-dependence counts
        // heavy-tailed per function, hence 800 functions.
        "pig-large" => (0..200)
            .map(|m| {
                let mut text = String::new();
                for f in 0..FUNCS_PER_MODULE {
                    // Shapes follow a fixed schedule; the seed draws the
                    // operations and operands, so every seed has the same mix.
                    let i = m * FUNCS_PER_MODULE + f;
                    let shape = DagShape {
                        size: 100 + (i * 37) % 61,
                        window: if i.is_multiple_of(2) {
                            2 + (i / 2) % 3
                        } else {
                            12 + (i / 2) % 13
                        },
                        load_frac: 0.05,
                        float_frac: 0.4,
                    };
                    text.push_str(&gen::dag(&mut rng, &format!("pig{m}_{f}"), &shape));
                    text.push('\n');
                }
                spec(text, paper_machine(32), false)
            })
            .collect(),
        // Wide windows on six registers: many spill rounds per function,
        // so the spill rewrite and the incremental closure rebuild dominate.
        "spill-tight" => (0..100)
            .map(|m| {
                let mut text = String::new();
                for f in 0..FUNCS_PER_MODULE {
                    let i = m * FUNCS_PER_MODULE + f;
                    let shape = DagShape {
                        size: 44 + i % 9,
                        window: 24 + (i * 7) % 25,
                        load_frac: 0.25,
                        float_frac: 0.4,
                    };
                    text.push_str(&gen::dag(&mut rng, &format!("spill{m}_{f}"), &shape));
                    text.push('\n');
                }
                spec(text, paper_machine(6), false)
            })
            .collect(),
        // Each gap module twice: combined, then exact.
        _ => gap_modules(seed)
            .into_iter()
            .flat_map(|(text, m)| [spec(text.clone(), m.clone(), false), spec(text, m, true)])
            .collect(),
    }
}

/// Registers of the gap sample's machine: few enough that combined spills
/// and misses the optimum on about half the blocks.
const GAP_REGS: u32 = 5;

/// The seeded gap sample: small blocks on the paper machine with
/// `GAP_REGS` registers, as module texts with their machine.
pub fn gap_modules(seed: u64) -> Vec<(String, MachineDesc)> {
    let mut rng = Rng::new(seed ^ 0x6a70);
    (0..GAP_MODULES)
        .map(|m| {
            let mut text = String::new();
            for f in 0..GAP_FUNCS_PER_MODULE {
                let i = m * GAP_FUNCS_PER_MODULE + f;
                text.push_str(&gen::gap_block(&mut rng, i, &format!("gap{m}_{f}")));
                text.push('\n');
            }
            (text, paper_machine(GAP_REGS))
        })
        .collect()
}

/// Compiles one module request: text in, text out. Returns the output,
/// the compiled functions (or `None` per failed slot) and the latency.
fn request(spec: &ModuleSpec, bd: &BatchDriver) -> (BatchOutput, Vec<Option<Function>>, Duration) {
    let t0 = Instant::now();
    let funcs = parse_module(&spec.text).unwrap_or_default();
    let out = bd.compile_module(&funcs, &NullTelemetry);
    let compiled: Vec<Option<Function>> = out
        .results
        .iter()
        .map(|r| match r {
            Ok(c) if c.degradation == parsched::DegradationLevel::None => Some(c.function.clone()),
            _ => None,
        })
        .collect();
    let printable: Vec<Function> = compiled.iter().flatten().cloned().collect();
    std::hint::black_box(print_module(&printable));
    (out, compiled, t0.elapsed())
}

struct Setup {
    modules: Vec<ModuleSpec>,
    drivers: Vec<BatchDriver>,
}

fn setup(workload: &str, seed: u64) -> Setup {
    let modules = corpus(workload, seed);
    let drivers: Vec<BatchDriver> = modules.iter().map(|m| driver_for(m, TIMED_JOBS)).collect();
    // Warm-up: the first few requests, so allocator state and page faults
    // are paid before timing starts. Exact modules are left out: their
    // solve time varies too much with the seed's blocks.
    for (m, bd) in modules
        .iter()
        .zip(&drivers)
        .filter(|(m, _)| !m.exact)
        .take(4)
    {
        let _ = request(m, bd);
    }
    Setup { modules, drivers }
}

/// Runs set-up `reps` times and returns the last set-up with every
/// repetition's time. The first repetition also pays process start. Each
/// repetition frees the previous one first, outside its timing, so every
/// repetition starts from the same memory footprint.
fn timed_setup<T>(reps: usize, process_start: Instant, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..reps {
        drop(last.take());
        let t0 = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// A compiled block's lexicographic objective (spills, registers, cycles).
type Objective = (u32, u32, u32);

fn objective(s: &parsched::CompileStats) -> Objective {
    (s.spilled_values as u32, s.registers_used, s.cycles)
}

pub fn exact_config() -> ExactConfig {
    ExactConfig {
        max_nodes: EXACT_MAX_NODES,
        ..ExactConfig::default()
    }
}

/// Check pass with one worker per core, untimed: the reference output, the oracle
/// verdicts, the code-quality counts, and per block its objective (for
/// exact modules from a direct `parsched_exact::solve`, with its proof
/// status).
struct Check {
    outputs: Vec<Vec<Option<Function>>>,
    quality: Quality,
    bad: Vec<Vec<bool>>,
    objectives: Vec<Vec<Option<(Objective, bool)>>>,
}

fn check_pass(modules: &[ModuleSpec], seed: u64) -> Check {
    let mut check = Check {
        outputs: Vec::new(),
        quality: Quality::default(),
        bad: Vec::new(),
        objectives: Vec::new(),
    };
    let oracle = Oracle::new(seed);
    for spec in modules {
        let compiled: Vec<Option<(Function, Objective, bool)>> = if spec.exact {
            spec.funcs
                .iter()
                .map(|f| {
                    parsched::exact::solve(f, &spec.machine, &exact_config(), None, &NullTelemetry)
                        .ok()
                        .map(|sol| (sol.function.clone(), sol.objective(), sol.proven_optimal))
                })
                .collect()
        } else {
            let out = driver_for(spec, nproc()).compile_module(&spec.funcs, &NullTelemetry);
            out.results
                .into_iter()
                .map(|r| match r {
                    Ok(c) if c.degradation == parsched::DegradationLevel::None => {
                        check.quality.add(&c.stats);
                        Some((c.function, objective(&c.stats), true))
                    }
                    _ => None,
                })
                .collect()
        };
        let mut funcs = Vec::new();
        let mut bad = Vec::new();
        let mut objs = Vec::new();
        for (fi, c) in compiled.into_iter().enumerate() {
            match c {
                Some((f, obj, proven)) => {
                    bad.push(!oracle.agrees(&spec.funcs[fi], &f));
                    funcs.push(Some(f));
                    objs.push(Some((obj, proven)));
                }
                None => {
                    bad.push(true);
                    funcs.push(None);
                    objs.push(None);
                }
            }
        }
        check.outputs.push(funcs);
        check.bad.push(bad);
        check.objectives.push(objs);
    }
    check
}

impl GapTally {
    /// Adds one block: combined's objective against the exact solver's.
    /// Returns `false` when the pair is inconsistent: a missing side, or
    /// a heuristic that beats a proven optimum (one side must be wrong),
    /// as `fuzz --gap` fails the run on such an anomaly.
    fn add(&mut self, combined: Option<Objective>, exact: Option<(Objective, bool)>) -> bool {
        self.blocks += 1;
        let (Some(h), Some((opt, proven))) = (combined, exact) else {
            return false;
        };
        if !proven {
            return true;
        }
        self.proven += 1;
        if h < opt {
            // The heuristic beat a "proven" optimum: the solver's proof is
            // wrong (both outputs passed the oracle). Failed, not tallied.
            self.anomalies += 1;
            self.proven -= 1;
            return false;
        }
        if h == opt {
            self.optimal += 1;
        }
        self.cycle_gap += u64::from(h.2.saturating_sub(opt.2));
        true
    }
}

/// The gap tally on the seeded gap sample, compiled untimed (combined at
/// jobs = 1, exact by direct solve). Every workload reports the tally; on
/// `gap-small` the same sample is the timed workload itself. Returns the
/// tally and the number of inconsistent blocks.
fn gap_sentinel(seed: u64) -> (GapTally, u64) {
    let mut t = GapTally::default();
    let mut bad = 0;
    for (text, m) in gap_modules(seed) {
        let funcs = parse_module(&text).expect("generated modules parse");
        let out = BatchDriver::new(Driver::new(Pipeline::new(m.clone())))
            .with_jobs(1)
            .compile_module(&funcs, &NullTelemetry);
        for (f, r) in funcs.iter().zip(&out.results) {
            let sol = parsched::exact::solve(f, &m, &exact_config(), None, &NullTelemetry).ok();
            let h = r.as_ref().ok().map(|c| objective(&c.stats));
            if !t.add(h, sol.map(|s| (s.objective(), s.proven_optimal))) {
                bad += 1;
            }
        }
    }
    (t, bad)
}

pub fn run(args: &Args, process_start: Instant) -> Result<Report, String> {
    let workload = args.workload.as_str();
    let (s, mut setup_times) =
        timed_setup(SETUP_REPS, process_start, || setup(workload, args.seed));
    if args.trace {
        return crate::layers::run_batch(args, &s.modules, median(&setup_times));
    }
    let mut report = Report::new();

    // Timed window: whole passes over every timed module. On gap-small one
    // request is a module compiled by combined and then certified by
    // exact, so requests form one population.
    let (group, timed) = if workload == "gap-small" {
        (2, 2 * GAP_TIMED_MODULES)
    } else {
        (1, s.modules.len())
    };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut func_ns: Vec<Vec<Vec<f64>>> = s.modules[..timed]
        .iter()
        .map(|m| vec![Vec::new(); m.funcs.len()])
        .collect();
    let mut req_ms: Vec<Vec<f64>> = vec![Vec::new(); timed / group];
    let mut req_insts = vec![0usize; timed / group];
    let (mut slo_ok, mut slo_all) = (0u64, 0u64);
    let mut first: Vec<Vec<Option<Function>>> = Vec::new();
    let mut passes = 0;
    while passes < MIN_PASSES || Instant::now() < deadline {
        let (mut req_secs, mut req_ok) = (0.0, true);
        for (mi, (spec, bd)) in s.modules[..timed].iter().zip(&s.drivers).enumerate() {
            let (out, compiled, dt) = request(spec, bd);
            if passes == 0 {
                req_insts[mi / group] += spec.insts;
            }
            req_secs += dt.as_secs_f64();
            for (times, &ns) in func_ns[mi].iter_mut().zip(&out.per_func_ns) {
                times.push(ns as f64);
            }
            req_ok &= compiled.iter().all(Option::is_some);
            if (mi + 1) % group == 0 {
                let ms = req_secs * 1e3;
                req_ms[mi / group].push(ms);
                slo_all += 1;
                if req_ok && ms <= LATENCY_LIMIT_MS {
                    slo_ok += 1;
                }
                (req_secs, req_ok) = (0.0, true);
            }
            report.attempted += compiled.len() as u64;
            if passes == 0 {
                first.push(compiled);
            } else {
                // Every timed pass must emit exactly the first pass's code.
                report.failed += compiled
                    .iter()
                    .zip(&first[mi])
                    .filter(|(a, b)| a.is_none() || a != b)
                    .count() as u64;
            }
        }
        passes += 1;
        // One more set-up after every pass, so that the set-up samples are
        // spread over the run like the passes: a slow stretch of the host
        // at start-up then moves setup_s no more than the other times.
        let t = Instant::now();
        let again = setup(workload, args.seed);
        setup_times.push(t.elapsed().as_secs_f64());
        drop(again);
    }
    // One sample per distinct function, so the tail is not a handful of
    // hard functions counted once per pass: its fastest pass, which keeps
    // a host stall during one pass out of the figure.
    let func_ms: Vec<f64> = func_ns
        .iter()
        .flatten()
        .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min) / 1e6)
        .collect();
    // Likewise one latency per distinct request: its fastest pass. A host
    // that slows down for a stretch of the run then moves no figure unless
    // it stays slow for every pass of a request.
    let req_ms: Vec<f64> = req_ms
        .iter()
        .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let insts_per_s = req_insts.iter().sum::<usize>() as f64 / (req_ms.iter().sum::<f64>() / 1e3);

    // Untimed: the check pass, the oracle, the gap tally.
    let check = check_pass(&s.modules, args.seed);
    for ((timed, checked), bad) in first.iter().zip(&check.outputs).zip(&check.bad) {
        for ((f, c), &bad) in timed.iter().zip(checked).zip(bad) {
            if f.is_none() || f != c || bad {
                // The function is wrong in every pass that compiled it.
                report.failed += passes as u64;
            }
        }
    }
    // Modules past the timed ones are compiled by the check pass alone.
    for bad in &check.bad[timed..] {
        report.attempted += bad.len() as u64;
        report.failed += bad.iter().filter(|&&b| b).count() as u64;
    }
    let (gap, gap_bad) = if workload == "gap-small" {
        // Modules come in (combined, exact) pairs over the same blocks.
        let mut t = GapTally::default();
        let mut bad = 0;
        for pair in check.objectives.chunks(2) {
            for (h, e) in pair[0].iter().zip(&pair[1]) {
                if !t.add(h.map(|(o, _)| o), *e) {
                    bad += 1;
                }
            }
        }
        (t, bad)
    } else {
        gap_sentinel(args.seed)
    };
    report.failed += gap_bad;

    let func_tail = tail(&func_ms);
    let req_tail = tail(&req_ms);
    report.note(format!(
        "{workload}: {timed} of {} modules timed per pass, {passes} passes, jobs {TIMED_JOBS} (check pass: {})",
        s.modules.len(),
        nproc()
    ));
    report.note(format!("func_tail_ms is {}", func_tail.describe()));
    report.note(format!("req_tail_ms is {}", req_tail.describe()));
    report.note(format!(
        "gap sample: {} blocks, {} proven, {} optimal, {} anomalies (heuristic beat a proven optimum)",
        gap.blocks, gap.proven, gap.optimal, gap.anomalies
    ));
    push_end_to_end(
        &mut report,
        EndToEnd {
            setup_s: median(&setup_times),
            compile_insts_per_s: insts_per_s,
            func_tail_ms: func_tail.value,
            req_p50_ms: median(&req_ms),
            req_tail_ms: req_tail.value,
            slo_share: slo_ok as f64 / slo_all as f64,
            quality: check.quality,
            gap,
        },
    );
    Ok(report)
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
struct EndToEnd {
    setup_s: f64,
    compile_insts_per_s: f64,
    func_tail_ms: f64,
    req_p50_ms: f64,
    req_tail_ms: f64,
    slo_share: f64,
    quality: Quality,
    gap: GapTally,
}

fn push_end_to_end(r: &mut Report, e: EndToEnd) {
    r.metric("setup_s", e.setup_s, "s");
    r.metric("compile_insts_per_s", e.compile_insts_per_s, "1/s");
    r.metric("func_tail_ms", e.func_tail_ms, "ms");
    r.metric("req_p50_ms", e.req_p50_ms, "ms");
    r.metric("req_tail_ms", e.req_tail_ms, "ms");
    r.metric("slo_share", e.slo_share, "ratio");
    r.metric("cycles", e.quality.cycles as f64, "count");
    r.metric("code_insts", e.quality.code_insts as f64, "count");
    r.metric("spilled_values", e.quality.spilled as f64, "count");
    r.metric("false_deps", e.quality.false_deps as f64, "count");
    r.metric(
        "optimal_share",
        e.gap.optimal as f64 / e.gap.blocks.max(1) as f64,
        "ratio",
    );
    r.metric("cycle_gap", e.gap.cycle_gap as f64, "count");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}
