//! The traced run: per-layer metrics, timed from outside the program.
//!
//! Each single-block function is compiled three ways on the same inputs:
//! by `Pipeline::compile_budgeted_in` (the reference, timed as
//! `core.pipeline`), and twice by [`compose`] — the same work rebuilt from
//! the layers' public entry points, once with spans recorded and once
//! without (the difference is the tracing overhead). The composed output
//! must be byte-identical to the reference. Layers the allocator's spill
//! loop calls internally (`DepGraph::build`, `Reachability::build`) are
//! timed by separate calls on the round-1 and first-spill-round blocks and
//! scaled by the round count; they sit outside the coarse spans.

use crate::batch::{exact_config, gap_modules, ModuleSpec};
use crate::common::{nproc, Report};
use crate::daemon::{self, Stream};
use crate::gen::{self, Rng};
use crate::stats::{median, tail};
use crate::trace::{self_times, to_json, top_level_ns, Tracer};
use crate::Args;
use parsched::graph::{ClosureMode, Reachability};
use parsched::ir::liveness::Liveness;
use parsched::ir::{parse_module, print_function, print_module, Block, BlockId, Function, Reg};
use parsched::machine::presets::paper_machine;
use parsched::machine::MachineDesc;
use parsched::regalloc::assignment::{
    apply_coloring, check_function_allocation, remove_identity_copies,
};
use parsched::regalloc::combined::{combined_color_in, CombinedWorkspace};
use parsched::regalloc::global::{allocate_global_scoped, GlobalScope, GlobalStrategy};
use parsched::regalloc::spill::insert_spill_code;
use parsched::regalloc::{
    allocate_single_block_in, AllocLimits, AllocSession, BlockAllocProblem, BlockStrategy, Pig,
    PinterConfig, DEFAULT_MAX_ROUNDS,
};
use parsched::sched::ep::ep_reorder;
use parsched::sched::falsedep::count_false_deps_until;
use parsched::sched::{list_schedule, BlockRemap, DepGraph, SchedPriority};
use parsched::telemetry::NullTelemetry;
use parsched::{BatchDriver, Budget, Driver, Pipeline, Strategy};
use parsched_pscd::cache::{compose_key, digest, ResultCache};
use std::collections::HashMap;
use std::time::Instant;

/// The coarse layers of one compile: their spans partition the work
/// `Pipeline::compile_budgeted_in` does, so their sum over the pipeline's
/// own time is the trace coverage.
const COARSE: [&str; 4] = ["sched.ep", "regalloc.alloc", "sched.falsedep", "sched.list"];

/// Per-pass counts and out-of-span timings.
#[derive(Debug, Default, Clone)]
struct Pass {
    pipeline_ns: u64,
    traced_ns: u64,
    untraced_ns: u64,
    /// `DepGraph::build` calls inside the session, estimated per call.
    deps_internal_ns: u64,
    closure_ns: u64,
    alloc_ns: u64,
    parse_ns: u64,
    parse_bytes: u64,
    print_ns: u64,
    deps_edges: u64,
    closure_builds: u64,
    sparse: u64,
    rebuilds: u64,
    pig_edges: u64,
    removed_edges: u64,
    mem_ops: u64,
    rounds: u64,
    list_cycles: u64,
    functions: u64,
    failed: u64,
    self_ns: HashMap<&'static str, u64>,
    coarse_ns: u64,
}

/// One single-block function through the layers, composed from their
/// public entry points exactly as `Pipeline::compile_budgeted_in` composes
/// them for the combined strategy (which follows
/// `allocate_single_block_in` for the spill loop). Returns the compiled
/// function and its round count; `probes` receives the round-1 and
/// first-spill-round blocks.
fn compose(
    tr: &Tracer,
    session: &mut AllocSession,
    func: &Function,
    m: &MachineDesc,
    cfg: &PinterConfig,
    pass: &mut Pass,
    probes: &mut Vec<Block>,
) -> Result<(Function, u32), String> {
    let b0 = BlockId(0);
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut current = func.clone();
    if cfg.ep_prepass {
        let _s = tr.span("sched.ep");
        let deps = {
            let _d = tr.span("sched.deps");
            DepGraph::build(current.block(b0), &NullTelemetry)
        };
        let reordered = ep_reorder(current.block(b0), &deps, m).map_err(|e| err(&e))?;
        *current.block_mut(b0) = reordered;
    }
    let alloc_span = tr.span("regalloc.alloc");
    session.set_closure_mode(ClosureMode::Auto);
    let protected_from = current.num_sym_regs();
    let mut next_slot = 0i64;
    let mut pending: Option<BlockRemap> = None;
    let mut pig_slot: Option<Pig> = None;
    let mut ws = CombinedWorkspace::default();
    let mut done = None;
    for round in 1..=DEFAULT_MAX_ROUNDS {
        if round <= 2 {
            probes.push(current.block(b0).clone());
        }
        let liveness = Liveness::compute(&current, &[]);
        let problem = BlockAllocProblem::build(&current, b0, &liveness).map_err(|e| err(&e))?;
        let costs: Vec<f64> = (0..problem.len())
            .map(|n| match problem.nodes()[n] {
                Reg::Sym(s) if s.0 >= protected_from => 1e12,
                _ => problem.spill_cost(n),
            })
            .collect();
        session.set_deadline(None);
        match pending.take() {
            Some(remap) => {
                let _s = tr.span("sched.session.rebuild");
                pass.rebuilds += 1;
                session
                    .rebuild_after_spill(current.block(b0), &remap, &NullTelemetry)
                    .map_err(|e| err(&e))?;
            }
            None => {
                let _s = tr.span("sched.session");
                session
                    .begin(current.block(b0), &NullTelemetry)
                    .map_err(|e| err(&e))?;
            }
        }
        {
            let _s = tr.span("regalloc.pig");
            session
                .build_pig_into(&problem, m, &NullTelemetry, &mut pig_slot)
                .map_err(|e| err(&e))?;
        }
        let pig = pig_slot.as_ref().ok_or("the session built no PIG")?;
        pass.pig_edges += pig.graph().edge_count() as u64;
        let heights = session
            .deps()
            .ok_or("the session holds no dependence graph")?
            .heights(m)
            .map_err(|e| err(&e))?;
        let priority: Vec<u32> = (0..problem.len())
            .map(|n| problem.def_site(n).map_or(0, |i| heights[i]))
            .collect();
        let out = {
            let _s = tr.span("regalloc.color");
            combined_color_in(
                &mut ws,
                pig,
                m.num_regs(),
                &costs,
                &priority,
                cfg,
                &NullTelemetry,
            )
        };
        pass.removed_edges += out.removed_false_edges.len() as u64;
        if out.spilled.is_empty() {
            let allocated = apply_coloring(&current, &problem, &out.colors);
            check_function_allocation(&current, &allocated, &problem, &out.colors)
                .map_err(|e| err(&e))?;
            done = Some((allocated, round));
            break;
        }
        let spills: Vec<Reg> = out.spilled.iter().map(|&n| problem.nodes()[n]).collect();
        let (rewritten, inserted, remap) = {
            let _s = tr.span("regalloc.spill");
            insert_spill_code(&current, b0, &spills, &mut next_slot, &NullTelemetry)
        };
        pass.mem_ops += inserted as u64;
        pending = Some(remap);
        current = rewritten;
    }
    let (mut allocated, rounds) = done.ok_or("spilling did not converge")?;
    remove_identity_copies(&mut allocated);
    drop(alloc_span);
    {
        let _s = tr.span("sched.falsedep");
        for b in allocated.blocks() {
            std::hint::black_box(count_false_deps_until(b, m, None));
        }
    }
    let _s = tr.span("sched.list");
    let mut out = allocated.clone();
    for (i, b) in allocated.blocks().iter().enumerate() {
        let deps = {
            let _d = tr.span("sched.deps");
            DepGraph::build(b, &NullTelemetry)
        };
        let schedule = list_schedule(b, &deps, m, SchedPriority::CriticalPath, &NullTelemetry)
            .map_err(|e| err(&e))?;
        pass.list_cycles += u64::from(schedule.completion_cycles());
        *out.block_mut(BlockId(i)) = schedule.linearize(b);
    }
    Ok((out, rounds))
}

/// One traced pass over single-block functions, each with its machine.
fn traced_pass(funcs: &[(&Function, &MachineDesc)], keep_spans: bool) -> (Pass, String) {
    let cfg = PinterConfig::default();
    let strategy = Strategy::Combined(cfg);
    let mut pass = Pass::default();
    let tracer = Tracer::new(true);
    let quiet = Tracer::new(false);
    let (mut ref_session, mut traced_session, mut quiet_session, mut probe_session) = (
        AllocSession::new(),
        AllocSession::new(),
        AllocSession::new(),
        AllocSession::new(),
    );
    for (id, &(f, m)) in funcs.iter().enumerate() {
        pass.functions += 1;
        tracer.set_func(id as u32);
        let t = Instant::now();
        let reference = Pipeline::new(m.clone()).compile_budgeted_in(
            &mut ref_session,
            f,
            &strategy,
            &Budget::unlimited(),
            &NullTelemetry,
        );
        pass.pipeline_ns += t.elapsed().as_nanos() as u64;

        let mut probes = Vec::new();
        let t = Instant::now();
        let composed = compose(
            &tracer,
            &mut traced_session,
            f,
            m,
            &cfg,
            &mut pass,
            &mut probes,
        );
        pass.traced_ns += t.elapsed().as_nanos() as u64;
        let mut scratch = Pass::default();
        let t = Instant::now();
        let quiet_out = compose(
            &quiet,
            &mut quiet_session,
            f,
            m,
            &cfg,
            &mut scratch,
            &mut Vec::new(),
        );
        pass.untraced_ns += t.elapsed().as_nanos() as u64;

        // The composition must emit exactly the pipeline's bytes.
        let (Ok(reference), Ok((composed, rounds)), Ok(_)) = (reference, composed, quiet_out)
        else {
            pass.failed += 1;
            continue;
        };
        if print_function(&composed) != print_function(&reference.function) {
            pass.failed += 1;
        }
        pass.rounds += u64::from(rounds);

        // Internal layers, timed per call on the round-1 and first spill
        // round blocks; the session calls DepGraph::build once per round
        // and builds the closure from scratch once.
        let mut per_call = [0u64; 2];
        for (i, b) in probes.iter().enumerate() {
            let t = Instant::now();
            let deps = DepGraph::build(b, &NullTelemetry);
            per_call[i] = t.elapsed().as_nanos() as u64;
            if i == 0 {
                pass.deps_edges += deps.graph().edge_count() as u64;
                let t = Instant::now();
                let reach = Reachability::build(deps.graph(), ClosureMode::Auto, None);
                pass.closure_ns += t.elapsed().as_nanos() as u64;
                pass.closure_builds += 1;
                if reach.is_some_and(|r| r.backend_label() == "sparse") {
                    pass.sparse += 1;
                }
            }
        }
        pass.deps_internal_ns += per_call[0] + per_call[1] * u64::from(rounds.saturating_sub(1));
        let t = Instant::now();
        let alloc = allocate_single_block_in(
            &mut probe_session,
            f,
            m,
            BlockStrategy::Pinter(cfg),
            &AllocLimits::default(),
            &NullTelemetry,
        );
        pass.alloc_ns += t.elapsed().as_nanos() as u64;
        if alloc.map(|a| a.rounds) != Ok(rounds) {
            pass.failed += 1;
        }
    }
    let spans = tracer.take();
    pass.coarse_ns = top_level_ns(&spans, &COARSE);
    pass.self_ns = self_times(&spans).into_iter().collect();
    let json = if keep_spans {
        to_json(&spans)
    } else {
        String::new()
    };
    (pass, json)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Median over passes of a per-pass figure.
fn med(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Inputs of a traced run: the single-block functions to compose, the
/// module texts to parse (and print once compiled), the CFG functions for
/// the global allocator, and the `pscd` request stream.
struct Inputs<'a> {
    funcs: Vec<(&'a Function, &'a MachineDesc)>,
    modules: Vec<(String, MachineDesc)>,
    cfgs: Vec<(Function, MachineDesc)>,
    stream: Stream,
}

fn aux_cfgs(seed: u64) -> Vec<(Function, MachineDesc)> {
    let mut rng = Rng::new(seed ^ 0xcf6);
    (0..64)
        .map(|i| {
            let text = gen::cfg(&mut rng, &format!("cfg{i}"), 5, 4);
            let f = parse_module(&text).expect("generated CFGs parse").remove(0);
            (f, paper_machine(8))
        })
        .collect()
}

pub fn run_batch(args: &Args, modules: &[ModuleSpec], setup_s: f64) -> Result<Report, String> {
    let combined: Vec<&ModuleSpec> = modules.iter().filter(|m| !m.exact).collect();
    let inputs = Inputs {
        funcs: combined
            .iter()
            .flat_map(|m| m.funcs.iter().map(move |f| (f, &m.machine)))
            .collect(),
        modules: combined
            .iter()
            .map(|m| (m.text.clone(), m.machine.clone()))
            .collect(),
        cfgs: aux_cfgs(args.seed),
        stream: daemon::stream(args.seed, 400),
    };
    let mut report = Report::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);

    // Layer passes over the single-block functions.
    let mut passes: Vec<Pass> = Vec::new();
    let mut spans_json = String::new();
    while passes.is_empty() || Instant::now() < deadline {
        let (mut pass, json) = traced_pass(&inputs.funcs, passes.is_empty());
        if passes.is_empty() {
            spans_json = json;
        }
        let mut compiled = Vec::new();
        for (text, m) in &inputs.modules {
            let t = Instant::now();
            let funcs = parse_module(text).map_err(|e| e.to_string())?;
            pass.parse_ns += t.elapsed().as_nanos() as u64;
            pass.parse_bytes += text.len() as u64;
            let pipeline = Pipeline::new(m.clone());
            let out: Vec<Function> = funcs
                .iter()
                .filter_map(|f| {
                    pipeline
                        .compile(f, &Strategy::combined(), &NullTelemetry)
                        .ok()
                })
                .map(|r| r.function)
                .collect();
            compiled.push(out);
        }
        let t = Instant::now();
        for out in &compiled {
            std::hint::black_box(print_module(out));
        }
        pass.print_ns = t.elapsed().as_nanos() as u64;
        report.attempted += pass.functions;
        report.failed += pass.failed;
        passes.push(pass);
    }

    // core.batch: whole modules through BatchDriver, untraced.
    let (mut overhead_ns, mut wall_ns) = (0.0, 0.0);
    for (text, m) in &inputs.modules {
        let funcs = parse_module(text).map_err(|e| e.to_string())?;
        let out = BatchDriver::new(Driver::new(Pipeline::new(m.clone())))
            .with_jobs(nproc())
            .compile_module(&funcs, &NullTelemetry);
        let busy: u128 = out.per_func_ns.iter().sum();
        let wall = out.wall.as_nanos() as f64;
        overhead_ns += wall - busy as f64 / out.jobs as f64;
        wall_ns += wall;
    }

    // regalloc.global on the CFG functions.
    let mut global_ns = 0u64;
    for (f, m) in &inputs.cfgs {
        let t = Instant::now();
        let r = allocate_global_scoped(
            f,
            m,
            GlobalStrategy::Pinter(PinterConfig::default()),
            GlobalScope::Function,
            true,
            &AllocLimits::default(),
            &NullTelemetry,
        );
        global_ns += t.elapsed().as_nanos() as u64;
        report.attempted += 1;
        if r.is_err() {
            report.failed += 1;
        }
    }

    // exact.solve on the seeded gap sample.
    let (mut exact_ns, mut nodes, mut pruned, mut proven, mut solved) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for (text, m) in gap_modules(args.seed) {
        for f in parse_module(&text).map_err(|e| e.to_string())? {
            let t = Instant::now();
            let sol = parsched::exact::solve(&f, &m, &exact_config(), None, &NullTelemetry);
            exact_ns += t.elapsed().as_nanos() as u64;
            report.attempted += 1;
            match sol {
                Ok(s) => {
                    solved += 1;
                    nodes += s.nodes;
                    pruned += s.pruned;
                    proven += u64::from(s.proven_optimal);
                }
                Err(_) => report.failed += 1,
            }
        }
    }

    // pscd: a short seeded request stream, open loop.
    let stream = &inputs.stream;
    let (w, svc) = daemon::valid_window_on(&daemon::start_service(), stream, &mut report)?;
    svc.shutdown_and_join();
    let (standalone, source_ok) = daemon::standalone_all(stream, args.seed);
    let (failed, cached) = daemon::check_window(&w, stream, &standalone, &source_ok);
    report.attempted += w.responses.len() as u64;
    report.failed += failed;
    let (mut hot, mut cold, mut wait) = (Vec::new(), Vec::new(), Vec::new());
    for (i, lat) in w.latency_ms.iter().enumerate() {
        let Some(lat) = *lat else { continue };
        if cached[i] {
            hot.push(lat);
        } else {
            cold.push(lat);
            wait.push(lat - standalone[stream.requests[i].0].ns as f64 / 1e6);
        }
    }
    let mut cache = ResultCache::new(daemon::CACHE_CAPACITY);
    let mut lookup_ns = 0u64;
    for (src, _) in &stream.requests {
        let s = &stream.sources[*src];
        let t = Instant::now();
        let d = digest(&s.text, daemon::MACHINE, s.regs, "combined");
        let key = compose_key(&s.text, daemon::MACHINE, s.regs, "combined");
        let hit = cache.get(d, &key).is_some();
        lookup_ns += t.elapsed().as_nanos() as u64;
        if !hit {
            cache.insert(d, key, standalone[*src].text.clone());
        }
    }

    let dir = std::path::Path::new(".bench_trace");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{}-{}.json", args.workload, args.seed));
        if std::fs::write(&path, &spans_json).is_ok() {
            report.note(format!("spans of the first pass: {}", path.display()));
        }
    }
    let layer = |name: &'static str| move |p: &Pass| ms(p.self_ns.get(name).copied().unwrap_or(0));
    let stats = &w.stats;
    let lookups = stream.requests.len().max(1) as f64;
    let late = tail(&w.late_ms);
    report.note(format!(
        "{}: {} passes over {} functions; setup {setup_s:.3} s; gen.late_tail_ms is {}",
        args.workload,
        passes.len(),
        inputs.funcs.len(),
        late.describe()
    ));
    let r = &mut report;
    r.metric("ir.parse.ms", med(&passes, |p| ms(p.parse_ns)), "ms");
    r.metric(
        "ir.parse.mb_per_s",
        med(&passes, |p| {
            p.parse_bytes as f64 / 1e6 / (p.parse_ns as f64 / 1e9)
        }),
        "MB/s",
    );
    r.metric("ir.print.ms", med(&passes, |p| ms(p.print_ns)), "ms");
    r.metric(
        "sched.deps.ms",
        med(&passes, |p| layer("sched.deps")(p) + ms(p.deps_internal_ns)),
        "ms",
    );
    r.metric(
        "sched.deps.edges",
        med(&passes, |p| p.deps_edges as f64),
        "count",
    );
    r.metric("graph.closure.ms", med(&passes, |p| ms(p.closure_ns)), "ms");
    r.metric(
        "graph.closure.sparse_share",
        med(&passes, |p| {
            p.sparse as f64 / p.closure_builds.max(1) as f64
        }),
        "ratio",
    );
    r.metric(
        "sched.session.rebuild_ms",
        med(&passes, layer("sched.session.rebuild")),
        "ms",
    );
    r.metric(
        "sched.session.rebuilds",
        med(&passes, |p| p.rebuilds as f64),
        "count",
    );
    r.metric("regalloc.pig.ms", med(&passes, layer("regalloc.pig")), "ms");
    r.metric(
        "regalloc.pig.edges",
        med(&passes, |p| p.pig_edges as f64),
        "count",
    );
    r.metric(
        "regalloc.color.ms",
        med(&passes, layer("regalloc.color")),
        "ms",
    );
    r.metric(
        "regalloc.color.removed_edges",
        med(&passes, |p| p.removed_edges as f64),
        "count",
    );
    r.metric(
        "regalloc.spill.ms",
        med(&passes, layer("regalloc.spill")),
        "ms",
    );
    r.metric(
        "regalloc.spill.mem_ops",
        med(&passes, |p| p.mem_ops as f64),
        "count",
    );
    r.metric("regalloc.alloc.ms", med(&passes, |p| ms(p.alloc_ns)), "ms");
    r.metric(
        "regalloc.alloc.rounds",
        med(&passes, |p| p.rounds as f64),
        "count",
    );
    r.metric("regalloc.global.ms", ms(global_ns), "ms");
    r.metric("sched.ep.ms", med(&passes, layer("sched.ep")), "ms");
    r.metric("sched.list.ms", med(&passes, layer("sched.list")), "ms");
    r.metric(
        "sched.list.cycles",
        med(&passes, |p| p.list_cycles as f64),
        "count",
    );
    r.metric(
        "sched.falsedep.ms",
        med(&passes, layer("sched.falsedep")),
        "ms",
    );
    r.metric(
        "core.pipeline.ms",
        med(&passes, |p| ms(p.pipeline_ns)),
        "ms",
    );
    r.metric("core.batch.overhead_ms", overhead_ns / 1e6, "ms");
    r.metric(
        "core.batch.idle_share",
        overhead_ns / wall_ns.max(1.0),
        "ratio",
    );
    r.metric("exact.solve.ms", ms(exact_ns), "ms");
    r.metric("exact.nodes", nodes as f64, "count");
    r.metric(
        "exact.pruned_share",
        pruned as f64 / (nodes + pruned).max(1) as f64,
        "ratio",
    );
    r.metric(
        "exact.proven_share",
        proven as f64 / solved.max(1) as f64,
        "ratio",
    );
    r.metric("pscd.admit.us", median(&w.admit_us), "us");
    r.metric(
        "pscd.cache.hit_ratio",
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
        "ratio",
    );
    r.metric(
        "pscd.cache.lookup_us",
        lookup_ns as f64 / 1e3 / lookups,
        "us",
    );
    r.metric(
        "pscd.cache.evictions",
        stats.cache_evictions as f64,
        "count",
    );
    r.metric("pscd.hot_ms", median(&hot), "ms");
    r.metric("pscd.cold_ms", median(&cold), "ms");
    r.metric("pscd.wait_est_ms", median(&wait), "ms");
    r.metric("pscd.shed", stats.shed as f64, "count");
    r.metric("pscd.overloaded", stats.overloaded as f64, "count");
    r.metric("pscd.retries", stats.retries as f64, "count");
    r.metric("gen.late_tail_ms", late.value, "ms");
    r.metric(
        "trace.coverage",
        med(&passes, |p| {
            p.coarse_ns as f64 / p.pipeline_ns.max(1) as f64
        }),
        "ratio",
    );
    r.metric(
        "trace.overhead",
        med(&passes, |p| {
            p.traced_ns as f64 / p.untraced_ns.max(1) as f64
        }),
        "ratio",
    );
    Ok(report)
}
