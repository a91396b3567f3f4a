//! Batch-compilation contracts: thread count must never change the
//! output (byte-identical assembly, identical spill counts), spill rounds
//! must maintain the closure incrementally, one function's failure must stay in its own result
//! slot, and a panicking shared telemetry sink must not take the batch
//! down.

use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, Ordering};

use parsched::ir::{parse_module, print_function, Function};
use parsched::machine::presets;
use parsched::telemetry::{NullTelemetry, Recorder, Telemetry};
use parsched::{
    BatchDriver, BatchOutput, Budget, DegradationLevel, Driver, GlobalScope, ParschedError,
    Pipeline, Strategy,
};
use parsched_workload::{
    random_cfg_function, random_dag_function, straight_line_kernels, CfgParams, DagParams,
};

/// A corpus with every shape the generators produce: straight-line
/// kernels, random DAGs, and branching CFG functions.
fn corpus() -> Vec<Function> {
    let mut funcs: Vec<Function> = straight_line_kernels()
        .into_iter()
        .map(|(_, f)| f)
        .collect();
    for seed in 0..6u64 {
        funcs.push(random_dag_function(
            seed * 3 + 1,
            &DagParams {
                size: 40,
                load_fraction: 0.25,
                float_fraction: 0.4,
                window: 6,
            },
        ));
    }
    for seed in 0..4u64 {
        funcs.push(random_cfg_function(
            seed + 9,
            &CfgParams {
                segments: 3,
                ops_per_block: 5,
            },
        ));
    }
    funcs
}

/// The register-pressure shape: wide 48-inst DAGs keep many values live
/// at once, so on the 6-register paper machine combined spills over
/// several rounds.
const PRESSURE: DagParams = DagParams {
    size: 48,
    load_fraction: 0.2,
    float_fraction: 0.3,
    window: 24,
};

/// 32 spill-heavy functions for `paper_machine(6)`.
fn pressure_corpus() -> Vec<Function> {
    (0..32u64)
        .map(|seed| random_dag_function(seed * 17 + 3, &PRESSURE))
        .collect()
}

/// 24 eight-instruction DAGs, small enough for the exact solver.
fn exact_small_corpus() -> Vec<Function> {
    let params = DagParams {
        size: 8,
        load_fraction: 0.2,
        float_fraction: 0.3,
        window: 4,
    };
    (0..24u64)
        .map(|seed| random_dag_function(seed * 13 + 7, &params))
        .collect()
}

fn assembly(out: &BatchOutput) -> String {
    out.results
        .iter()
        .map(|r| match r {
            Ok(res) => print_function(&res.function),
            Err(e) => panic!("batch function failed: {e}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Compiles `funcs` at 1, 2, 4 and 8 jobs and requires byte-identical
/// assembly and equal spill and instruction totals at every count.
fn assert_jobs_invariant(label: &str, driver: &Driver, funcs: &[Function]) {
    let serial = BatchDriver::new(driver.clone())
        .with_jobs(1)
        .compile_module(funcs, &NullTelemetry);
    assert_eq!(serial.jobs, 1);
    assert_eq!(serial.ok_count(), funcs.len(), "{label}");
    let base_asm = assembly(&serial);
    for jobs in [2, 4, 8] {
        let out = BatchDriver::new(driver.clone())
            .with_jobs(jobs)
            .compile_module(funcs, &NullTelemetry);
        assert_eq!(out.jobs, jobs.min(funcs.len()), "{label}");
        assert_eq!(
            base_asm,
            assembly(&out),
            "{label}: jobs={jobs} changed the assembly"
        );
        assert_eq!(serial.total_spills(), out.total_spills(), "{label}");
        assert_eq!(serial.total_insts(), out.total_insts(), "{label}");
    }
}

#[test]
fn jobs_one_and_eight_are_byte_identical() {
    let paper8 = Driver::new(Pipeline::new(presets::paper_machine(8)));
    assert_jobs_invariant("generator corpus", &paper8, &corpus());
}

#[test]
fn thread_count_never_changes_spilling_or_exact_output() {
    let paper8 = Driver::new(Pipeline::new(presets::paper_machine(8)));
    // `Driver::new`'s default ladder leads with combined.
    let paper6 = Driver::new(Pipeline::new(presets::paper_machine(6)));
    assert_jobs_invariant("pressure corpus", &paper6, &pressure_corpus());
    let exact = paper8.with_ladder(Driver::preferred_first_ladder(Strategy::exact()));
    assert_jobs_invariant("exact-small corpus", &exact, &exact_small_corpus());
}

#[test]
fn example_modules_are_deterministic_across_jobs() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut modules: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("examples dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "psc"))
        .collect();
    modules.sort();
    assert!(
        modules.len() >= 2,
        "expected at least two .psc example modules, found {modules:?}"
    );
    let driver = Driver::new(Pipeline::new(presets::paper_machine(8)));
    for path in modules {
        let src = std::fs::read_to_string(&path).unwrap();
        let funcs = parse_module(&src)
            .unwrap_or_else(|e| panic!("{}: failed to parse: {e}", path.display()));
        assert_jobs_invariant(&path.display().to_string(), &driver, &funcs);
    }
}

#[test]
fn spill_rounds_rebuild_the_closure_incrementally() {
    // Several spill rounds must run through the session PIG, and only the
    // first round may build the closure from scratch.
    let func = random_dag_function(3, &PRESSURE);
    let pipeline = Pipeline::new(presets::paper_machine(6));
    let recorder = Recorder::new();
    let result = pipeline
        .compile(&func, &Strategy::combined(), &recorder)
        .expect("combined compiles the pressure function");
    assert!(result.stats.spilled_values > 0, "the function must spill");
    assert!(
        recorder.counter_value("pig.rounds") > 0,
        "the session PIG path never ran"
    );
    let full = recorder.counter_value("pig.full_rebuilds");
    assert!(
        full <= 1,
        "pig.full_rebuilds = {full}: spill rounds rebuilt the closure from scratch"
    );
}

/// The `(signal, kind)` rows of a document's "Observability" table.
fn observability_table(doc: &str) -> Vec<(String, String)> {
    let section = doc.split("\n## Observability\n").nth(1).unwrap_or("");
    section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header and separator
        .filter_map(|row| {
            let mut cells = row.split('|').map(str::trim).skip(1);
            let signal = cells.next()?.trim_matches('`').to_string();
            Some((signal, cells.next()?.to_string()))
        })
        .collect()
}

/// Fails unless `recorder` saw every row of `doc`'s "Observability" table:
/// a span that ran, a counter that was reported (zero included), an event
/// that fired.
fn assert_table_emitted(doc_name: &str, table: &[(String, String)], recorder: &Recorder) {
    let counters = recorder.counters();
    let events = recorder.events();
    for (name, kind) in table {
        let emitted = match kind.as_str() {
            "span" => recorder.span_count(name) > 0,
            "counter" => counters.iter().any(|(c, _)| c == name),
            "event" => events.iter().any(|e| &e.name == name),
            other => panic!("{name}: unknown signal kind `{other}`"),
        };
        assert!(emitted, "{doc_name} names {kind} {name}, never emitted");
    }
}

#[test]
fn reachability_doc_signals_are_emitted() {
    let table = observability_table(include_str!("../docs/REACHABILITY.md"));
    let names: Vec<&str> = table.iter().map(|(n, _)| n.as_str()).collect();
    for name in [
        "closure.build",
        "pig.full_rebuilds",
        "pig.incremental_nodes",
    ] {
        assert!(
            names.contains(&name),
            "{name} missing from the table: {names:?}"
        );
    }
    let func = random_dag_function(3, &PRESSURE);
    let recorder = Recorder::new();
    let result = Pipeline::new(presets::paper_machine(6))
        .compile(&func, &Strategy::combined(), &recorder)
        .expect("combined compiles the pressure function");
    assert!(result.stats.spilled_values > 0, "the function must spill");
    assert_table_emitted("docs/REACHABILITY.md", &table, &recorder);
}

#[test]
fn global_doc_signals_are_emitted() {
    let table = observability_table(include_str!("../docs/GLOBAL.md"));
    let names: Vec<&str> = table.iter().map(|(n, _)| n.as_str()).collect();
    for name in [
        "global.coalesce",
        "global.merged_moves",
        "global.dedicated_webs",
        "global.spill_web",
    ] {
        assert!(
            names.contains(&name),
            "{name} missing from the table: {names:?}"
        );
    }
    // A five-segment CFG on three registers: its loop copies coalesce and
    // it spills under both web scopes.
    let func = random_cfg_function(
        7,
        &CfgParams {
            segments: 5,
            ops_per_block: 4,
        },
    );
    let recorder = Recorder::new();
    for scope in [GlobalScope::Function, GlobalScope::PerBlockBaseline] {
        let result = Pipeline::new(presets::paper_machine(3))
            .with_scope(scope)
            .compile(&func, &Strategy::combined(), &recorder)
            .expect("combined compiles the CFG function");
        assert!(result.stats.spilled_values > 0, "{scope:?} must spill");
    }
    assert!(
        recorder.counter_value("global.merged_moves") > 0,
        "the function must coalesce"
    );
    assert_table_emitted("docs/GLOBAL.md", &table, &recorder);
}

#[test]
fn one_failing_function_stays_in_its_own_slot() {
    // The middle function uses a value it never defines, so it fails
    // input verification on every rung; its neighbours are healthy.
    let ok_fn = |seed| {
        random_dag_function(
            seed,
            &DagParams {
                size: 10,
                load_fraction: 0.25,
                float_fraction: 0.4,
                window: 4,
            },
        )
    };
    let bad = parse_module("func @bad(s0) {\nentry:\n    s1 = add s0, s99\n    ret s1\n}")
        .expect("parses; fails verification, not parsing")
        .remove(0);
    let funcs = vec![ok_fn(1), bad, ok_fn(3)];
    let driver = Driver::new(Pipeline::new(presets::paper_machine(8)));
    for jobs in [1, 3] {
        let out = BatchDriver::new(driver.clone())
            .with_jobs(jobs)
            .compile_module(&funcs, &NullTelemetry);
        assert!(out.results[0].is_ok(), "jobs={jobs}: first function failed");
        match &out.results[1] {
            Err(ParschedError::Verify(_)) => {}
            other => panic!("jobs={jobs}: expected a verify error, got {other:?}"),
        }
        assert!(out.results[2].is_ok(), "jobs={jobs}: last function failed");
        assert_eq!(out.ok_count(), 2);
        assert_eq!(out.err_count(), 1);
    }
}

#[test]
fn budget_caps_degrade_rather_than_fail_in_batch() {
    // A block over the combined rung's instruction cap must fall down the
    // ladder (recorded as degradation), not error out of the batch.
    let big = random_dag_function(
        2,
        &DagParams {
            size: 60,
            load_fraction: 0.25,
            float_fraction: 0.4,
            window: 4,
        },
    );
    let driver = Driver::new(Pipeline::new(presets::paper_machine(8)))
        .with_budget(Budget::unlimited().with_max_block_insts(30));
    let out = BatchDriver::new(driver)
        .with_jobs(2)
        .compile_module(&[big], &NullTelemetry);
    let result = out.results[0].as_ref().expect("degrades, not fails");
    assert!(result.degradation > DegradationLevel::None);
}

/// A shared sink whose fuse blows exactly once: the panic is contained by
/// the driver's per-rung catch, so exactly one function may degrade and
/// nothing else is affected.
struct FaultyTelemetry {
    fuse: AtomicI64,
}

impl FaultyTelemetry {
    fn tick(&self) {
        if self.fuse.fetch_sub(1, Ordering::SeqCst) == 0 {
            panic!("telemetry sink failure injected by test");
        }
    }
}

impl Telemetry for FaultyTelemetry {
    fn phase_start(&self, _name: &str) {
        self.tick();
    }
    fn phase_end(&self, _name: &str) {
        self.tick();
    }
    fn counter(&self, _name: &str, _value: u64) {
        self.tick();
    }
    fn gauge(&self, _name: &str, _value: u64) {
        self.tick();
    }
    fn event(&self, _name: &str, _detail: &str) {
        self.tick();
    }
}

#[test]
fn panicking_shared_sink_does_not_take_the_batch_down() {
    let funcs = corpus();
    let driver = Driver::new(Pipeline::new(presets::paper_machine(8)));
    for jobs in [1, 4] {
        let sink = FaultyTelemetry {
            fuse: AtomicI64::new(40),
        };
        let out = BatchDriver::new(driver.clone())
            .with_jobs(jobs)
            .compile_module(&funcs, &sink);
        assert_eq!(
            out.ok_count(),
            funcs.len(),
            "jobs={jobs}: sink panic must degrade, not fail"
        );
        let degraded = out
            .results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .filter(|r| r.degradation > DegradationLevel::None)
            .count();
        assert!(
            degraded <= 1,
            "jobs={jobs}: one fuse can hit at most one function, got {degraded}"
        );
    }
}

#[test]
fn per_worker_telemetry_merges_at_join() {
    let funcs = corpus();
    let driver = Driver::new(Pipeline::new(presets::paper_machine(8)));
    let serial = BatchDriver::new(driver.clone())
        .with_jobs(1)
        .with_recording(true)
        .compile_module(&funcs, &NullTelemetry);
    let threaded = BatchDriver::new(driver)
        .with_jobs(8)
        .with_recording(true)
        .compile_module(&funcs, &NullTelemetry);
    let a = serial.telemetry.counters();
    let b = threaded.telemetry.counters();
    assert!(!a.is_empty(), "recording on must capture counters");
    assert_eq!(a, b, "merged counters must not depend on thread count");
}
