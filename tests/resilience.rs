//! Fault-injection tests for the hardened pipeline: every input —
//! pathological size, dense interference, starved budgets, passed
//! deadlines, a telemetry sink that panics mid-compilation — must yield a
//! verified schedule or a typed error, never a process panic or a hang.

use parsched::ir::interp::{Interpreter, Memory};
use parsched::ir::{parse_function, Function};
use parsched::machine::presets;
use parsched::regalloc::AllocSession;
use parsched::telemetry::NullTelemetry;
use parsched::telemetry::Telemetry;
use parsched::{BatchDriver, Budget, DegradationLevel, Driver, ParschedError, Pipeline, Strategy};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};

/// A telemetry sink that panics after a set number of calls — once. The
/// fuse blows exactly one time so that span guards dropped during the
/// resulting unwind do not double-panic (which would abort the process
/// instead of exercising the driver's containment).
struct FaultyTelemetry {
    fuse: AtomicI64,
}

impl FaultyTelemetry {
    fn after(calls: i64) -> FaultyTelemetry {
        FaultyTelemetry {
            fuse: AtomicI64::new(calls),
        }
    }

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

/// A single-block function of `n` body instructions with long-lived
/// values: `width` accumulators are all live across the whole block, so
/// interference is dense when `width` approaches the instruction count.
fn pathological(n: usize, width: usize) -> Function {
    let mut src = String::from("func @path(s0) {\nentry:\n");
    for i in 0..width {
        let _ = writeln!(src, "    s{} = add s0, {i}", i + 1);
    }
    for i in 0..n {
        let a = 1 + (i % width);
        let b = 1 + ((i + 1) % width);
        let _ = writeln!(src, "    s{} = add s{a}, s{b}", width + 1 + i);
    }
    let mut sum = String::from("s1");
    // Fold the accumulators so everything stays live to the end.
    for i in 1..width {
        let _ = writeln!(src, "    s{} = add {sum}, s{}", width + n + i, i + 1);
        sum = format!("s{}", width + n + i);
    }
    let _ = writeln!(src, "    ret {sum}");
    src.push('}');
    parse_function(&src).unwrap()
}

fn run_equal(a: &Function, b: &Function, args: &[i64]) {
    let interp = Interpreter::new();
    let ra = interp.run(a, args, Memory::new()).unwrap();
    let rb = interp.run(b, args, Memory::new()).unwrap();
    assert_eq!(ra.return_value, rb.return_value);
}

#[test]
fn thousand_inst_block_compiles_under_budget() {
    let func = pathological(1000, 8);
    assert!(func.inst_count() > 1000);
    let driver = Driver::new(Pipeline::new(presets::paper_machine(8)))
        .with_budget(Budget::unlimited().with_max_block_insts(1500));
    let r = driver.compile_resilient(&func, &NullTelemetry).unwrap();
    assert!(r.stats.cycles > 0);
    run_equal(&func, &r.function, &[3]);
}

#[test]
fn tiny_instruction_budget_degrades_but_succeeds() {
    // The combined strategy needs the quadratic phases, which the budget
    // forbids for this block; the ladder must find a cheaper rung.
    let func = pathological(120, 6);
    let driver = Driver::new(Pipeline::new(presets::paper_machine(6)))
        .with_budget(Budget::unlimited().with_max_block_insts(16));
    let r = driver.compile_resilient(&func, &NullTelemetry).unwrap();
    assert_ne!(
        r.degradation,
        DegradationLevel::None,
        "a 16-instruction cap cannot hold a 120-instruction block on the combined rung"
    );
    run_equal(&func, &r.function, &[3]);
}

#[test]
fn dense_interference_on_starved_machine_reaches_a_rung() {
    // 16 values simultaneously live on a 2-register machine: massive
    // spilling on every rung. A round budget keeps the iterative rungs
    // from grinding; the driver must still land somewhere (the floor
    // ignores the round cap by design).
    let func = pathological(48, 16);
    let driver = Driver::new(Pipeline::new(presets::paper_machine(2)))
        .with_budget(Budget::unlimited().with_max_spill_rounds(6));
    let r = driver.compile_resilient(&func, &NullTelemetry).unwrap();
    assert!(r.stats.spilled_values > 0);
    run_equal(&func, &r.function, &[1]);
}

#[test]
fn strict_budget_without_ladder_is_a_typed_error() {
    let func = pathological(120, 6);
    let pipeline = Pipeline::new(presets::paper_machine(6));
    let budget = Budget::unlimited().with_max_block_insts(16);
    let e = pipeline
        .compile_budgeted_in(
            &mut AllocSession::new(),
            &func,
            &Strategy::combined(),
            &budget,
            &parsched::telemetry::NullTelemetry,
        )
        .unwrap_err();
    assert_eq!(e.exit_code(), 8, "budget trips map to exit code 8: {e}");
    assert!(e.to_string().contains("budget exceeded"), "{e}");
}

#[test]
fn passed_deadline_is_an_error_not_a_hang() {
    let func = pathological(200, 8);
    let driver = Driver::new(Pipeline::new(presets::paper_machine(8)))
        .with_budget(Budget::unlimited().with_deadline(Instant::now() - Duration::from_secs(1)));
    let start = Instant::now();
    let err = driver.compile_resilient(&func, &NullTelemetry).unwrap_err();
    assert!(start.elapsed() < Duration::from_secs(10));
    assert_eq!(err.exit_code(), 8, "{err}");
}

#[test]
fn generous_deadline_succeeds() {
    let func = pathological(100, 4);
    let driver = Driver::new(Pipeline::new(presets::paper_machine(8)))
        .with_budget(Budget::unlimited().with_deadline_in(Duration::from_secs(60)));
    let r = driver.compile_resilient(&func, &NullTelemetry).unwrap();
    run_equal(&func, &r.function, &[2]);
}

#[test]
fn panicking_telemetry_fails_a_rung_not_the_process() {
    let func = pathological(40, 4);
    let driver = Driver::new(Pipeline::new(presets::paper_machine(4)));
    // Sweep the fuse across the compilation so the panic lands in many
    // different phases; the driver must always contain it.
    for fuse in [0, 1, 5, 25, 100, 400] {
        let faulty = FaultyTelemetry::after(fuse);
        match driver.compile_resilient(&func, &faulty) {
            Ok(r) => run_equal(&func, &r.function, &[2]),
            Err(e) => panic!("fuse {fuse}: driver returned error instead of degrading: {e}"),
        }
    }
}

#[test]
fn telemetry_panic_in_every_rung_is_a_typed_error() {
    let func = pathological(10, 2);
    // A sink that panics on *every* call from the first one: each rung
    // fails, and the driver must report a contained panic, not unwind.
    struct AlwaysPanics;
    impl Telemetry for AlwaysPanics {
        fn phase_start(&self, _name: &str) {
            panic!("sink always fails");
        }
        fn phase_end(&self, _name: &str) {}
        fn counter(&self, _name: &str, _value: u64) {}
        fn gauge(&self, _name: &str, _value: u64) {}
        fn event(&self, _name: &str, _detail: &str) {}
    }
    let driver = Driver::new(Pipeline::new(presets::paper_machine(4)));
    let err = driver.compile_resilient(&func, &AlwaysPanics).unwrap_err();
    assert_eq!(err.exit_code(), 9, "{err}");
    assert!(matches!(err, ParschedError::Panicked { .. }));
}

#[test]
fn malformed_ir_is_rejected_before_the_ladder() {
    // s9 is used but never defined: verification fails before any rung.
    let func =
        parse_function("func @bad(s0) {\nentry:\n    s1 = add s9, 1\n    ret s1\n}").unwrap();
    let driver = Driver::new(Pipeline::new(presets::paper_machine(4)));
    let err = driver.compile_resilient(&func, &NullTelemetry).unwrap_err();
    assert_eq!(err.exit_code(), 4, "{err}");
}

#[test]
fn spill_everything_floor_works_directly() {
    let func = pathological(50, 10);
    let pipeline = Pipeline::new(presets::paper_machine(4));
    let r = pipeline
        .compile(&func, &Strategy::SpillEverything, &NullTelemetry)
        .unwrap();
    assert!(r.stats.spilled_values > 0, "the floor spills by definition");
    run_equal(&func, &r.function, &[5]);
}

#[test]
fn batch_isolates_failures() {
    let good = pathological(20, 3);
    let bad = parse_function("func @bad(s0) {\nentry:\n    s1 = add s9, 1\n    ret s1\n}").unwrap();
    let driver = Driver::new(Pipeline::new(presets::paper_machine(4)));
    let results = BatchDriver::new(driver)
        .compile_module(&[good.clone(), bad, good], &NullTelemetry)
        .results;
    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok());
    assert!(results[1].is_err());
    assert!(results[2].is_ok());
}

#[test]
fn every_ladder_rung_preserves_semantics() {
    let func = pathological(30, 5);
    let pipeline = Pipeline::new(presets::paper_machine(5));
    for strategy in Driver::default_ladder() {
        let r = pipeline.compile(&func, &strategy, &NullTelemetry).unwrap();
        run_equal(&func, &r.function, &[7]);
    }
}

/// The cooperative mid-rung deadline checks bound overshoot: on the
/// dag-large shape (size-100 random DAGs, 32-register paper machine) a
/// deadline that trips mid-batch must stop compilation within 50ms of
/// the deadline, not after finishing whatever quadratic loop was
/// running. Self-calibrating: the deadline is a quarter of the measured
/// uncapped batch time, so the trip always lands mid-work.
#[test]
fn deadline_overshoot_is_bounded_on_dag_large() {
    use parsched_workload::{random_dag_function, DagParams};
    let params = DagParams {
        size: 100,
        load_fraction: 0.25,
        float_fraction: 0.4,
        window: 8,
    };
    let funcs: Vec<Function> = (0..12)
        .map(|seed| random_dag_function(seed * 11 + 5, &params))
        .collect();
    let machine = presets::paper_machine(32);

    let uncapped = Driver::new(Pipeline::new(machine.clone()));
    let t0 = Instant::now();
    let baseline = BatchDriver::new(uncapped)
        .with_jobs(1)
        .compile_module(&funcs, &NullTelemetry)
        .results;
    let uncapped_wall = t0.elapsed();
    assert!(baseline.iter().all(Result::is_ok));

    // A missing cooperative check is systematic — every attempt blows
    // through the deadline by a whole quadratic loop — while scheduler
    // noise from concurrently running tests is transient, so the gate is
    // the *best* of three attempts.
    let allowance = uncapped_wall / 4;
    let mut best_overshoot = Duration::MAX;
    for _ in 0..3 {
        let deadline = Instant::now() + allowance;
        let driver = Driver::new(Pipeline::new(machine.clone()))
            .with_budget(Budget::unlimited().with_deadline(deadline));
        let t1 = Instant::now();
        let results = BatchDriver::new(driver)
            .with_jobs(1)
            .compile_module(&funcs, &NullTelemetry)
            .results;
        let elapsed = t1.elapsed();

        // Every function is answered: compiled before the trip, or a
        // typed budget error after it — never a hang or a panic.
        assert_eq!(results.len(), funcs.len());
        for r in &results {
            if let Err(e) = r {
                assert_eq!(e.exit_code(), 8, "only budget errors expected: {e}");
            }
        }
        best_overshoot = best_overshoot.min(elapsed.saturating_sub(allowance));
        if best_overshoot <= Duration::from_millis(50) {
            break;
        }
    }
    assert!(
        best_overshoot <= Duration::from_millis(50),
        "deadline overshoot {best_overshoot:?} exceeds 50ms on every attempt \
         (allowance {allowance:?}, uncapped {uncapped_wall:?})"
    );
}

/// In-process soak of the pscd service at roughly twice the sustainable
/// request rate for a few seconds: zero panics, shed/overload accounting
/// stays monotone under concurrent polling, and every submitted request
/// — accepted or refused — is answered exactly once.
#[test]
fn soak_service_at_twice_sustainable_rate() {
    use parsched::ir::print_function;
    use parsched_pscd::{Service, ServiceConfig};
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    let svc = Service::start(ServiceConfig {
        workers: 2,
        queue_depth: 8,
        cache_capacity: 16,
        ..ServiceConfig::default()
    });

    // A small corpus with repeats so the cache path is exercised too.
    let corpus: Vec<String> = (0..6)
        .map(|i| {
            print_function(&pathological(30 + i * 7, 4))
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        })
        .collect();
    let line = |id: u64, src: &str, deadline_ms: u64| {
        format!(
            "{{\"id\":{id},\"op\":\"compile\",\"src\":\"{src}\",\"regs\":8,\
             \"deadline_ms\":{deadline_ms}}}"
        )
    };

    // Calibrate: mean service time over a few sequential requests.
    let (tx, rx) = channel::<String>();
    let t0 = Instant::now();
    let warmup = 4u64;
    for id in 0..warmup {
        svc.handle_line(&line(id, &corpus[id as usize % corpus.len()], 10_000), &tx);
        let r = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(r.contains("\"code\":0"), "warmup must compile: {r}");
    }
    let per_req = t0.elapsed() / warmup as u32;

    // Monitor thread: shed/overload/cache accounting must be monotone
    // while the soak hammers the service.
    let stop = Arc::new(AtomicBool::new(false));
    let monitor = {
        let svc = Arc::clone(&svc);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut prev = svc.stats();
            while !stop.load(Ordering::SeqCst) {
                let now = svc.stats();
                assert!(
                    now.monotone_since(&prev),
                    "counters regressed: {prev:?} -> {now:?}"
                );
                prev = now;
                std::thread::sleep(Duration::from_millis(20));
            }
        })
    };

    // Two workers served the warmup sequentially, so sustainable is
    // about 2/per_req; each of 2 client threads sends at 2/per_req for a
    // ~2x aggregate rate. The interval floor bounds the test on slow
    // machines.
    let interval = (per_req / 2).max(Duration::from_micros(200));
    let total: u64 = 400;
    let clients = 2u64;
    let mut handles = Vec::new();
    for c in 0..clients {
        let svc = Arc::clone(&svc);
        let corpus = corpus.clone();
        handles.push(std::thread::spawn(move || {
            let (tx, rx) = channel::<String>();
            let n = total / clients;
            for i in 0..n {
                let id = c * 1_000_000 + i;
                // Mixed deadlines: mostly generous, a storm of tight ones
                // to force overload fast-fails.
                let deadline_ms = if i % 7 == 0 { 1 } else { 5_000 };
                svc.handle_line(
                    &line(id, &corpus[(i as usize) % corpus.len()], deadline_ms),
                    &tx,
                );
                std::thread::sleep(interval);
            }
            drop(tx);
            // Every submitted request must be answered exactly once.
            let mut seen = std::collections::HashSet::new();
            let mut codes_ok = true;
            for r in rx {
                let id_field = r
                    .split_once("\"id\":")
                    .and_then(|(_, rest)| rest.split([',', '}']).next())
                    .map(str::to_string);
                if let Some(id) = id_field {
                    assert!(
                        seen.insert(id.clone()),
                        "duplicate response for id {id}: {r}"
                    );
                }
                // Zero panics: code 9 would mean a worker-contained panic
                // on healthy input.
                if r.contains("\"code\":9") {
                    codes_ok = false;
                }
            }
            (seen.len() as u64, n, codes_ok)
        }));
    }
    for h in handles {
        let (answered, sent, codes_ok) = h.join().unwrap();
        assert_eq!(answered, sent, "every request answered exactly once");
        assert!(codes_ok, "no panic responses under soak");
    }
    stop.store(true, Ordering::SeqCst);
    monitor.join().unwrap();

    let report = svc.shutdown_and_join();
    let s = report.stats;
    // Honest books: everything accepted was completed or failed; nothing
    // vanished in the drain.
    assert_eq!(
        s.accepted,
        s.completed + s.failed,
        "accepted split exactly into completed+failed: {s:?}"
    );
    assert!(s.completed >= warmup);
    assert!(s.cache_hits > 0, "corpus repeats must hit the cache: {s:?}");
}

/// Cross-surface identity: for every example module × machine preset ×
/// daemon strategy, `print_module` of the batch driver's output is the
/// same at 1 and 2 jobs, and pscd's `func` — cold, then replayed hot
/// from its cache — is exactly those bytes.
#[test]
fn pscd_and_batch_driver_emit_identical_bytes() {
    use parsched::ir::{parse_module, print_module};
    use parsched::telemetry::escape_json;
    use parsched::telemetry::json::{parse, Value};
    use parsched_pscd::{Service, ServiceConfig};
    use std::sync::mpsc::channel;

    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut modules: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .expect("examples dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "psc"))
        .collect();
    modules.sort();
    assert!(modules.len() >= 2, "found {modules:?}");

    let svc = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let (tx, rx) = channel::<String>();
    let mut id = 0u64;
    for path in &modules {
        let src = std::fs::read_to_string(path).expect("example reads");
        let funcs = parse_module(&src).expect("example parses");
        for machine in ["single", "paper", "mips", "rs6000", "wide4"] {
            for strategy in [
                "combined",
                "alloc-first",
                "sched-first",
                "linear-scan",
                "spill-everything",
            ] {
                let case = format!("{} {machine} {strategy}", path.display());
                let driver = Driver::new(Pipeline::new(
                    presets::by_name(machine, 32).expect("preset"),
                ))
                .with_ladder(Driver::preferred_first_ladder(
                    Strategy::parse(strategy).expect("strategy"),
                ));
                let batch_text = |jobs: usize| {
                    let out = BatchDriver::new(driver.clone())
                        .with_jobs(jobs)
                        .compile_module(&funcs, &NullTelemetry);
                    let compiled: Vec<Function> = out
                        .results
                        .into_iter()
                        .map(|r| r.unwrap_or_else(|e| panic!("{case}: {e}")).function)
                        .collect();
                    print_module(&compiled)
                };
                let expected = batch_text(1);
                assert_eq!(batch_text(2), expected, "{case}: jobs 2");
                for hot in [false, true] {
                    id += 1;
                    svc.handle_line(
                        &format!(
                            "{{\"id\":{id},\"op\":\"compile\",\"src\":\"{}\",\
                             \"machine\":\"{machine}\",\"strategy\":\"{strategy}\"}}",
                            escape_json(&src)
                        ),
                        &tx,
                    );
                    let reply = rx
                        .recv_timeout(Duration::from_secs(60))
                        .expect("pscd answers");
                    let doc = parse(&reply).unwrap_or_else(|e| panic!("{case}: {e}: {reply}"));
                    assert_eq!(
                        doc.get("cached"),
                        Some(&Value::Bool(hot)),
                        "{case}: {reply}"
                    );
                    let func = doc
                        .get("body")
                        .and_then(|b| b.get("func"))
                        .and_then(Value::as_str)
                        .unwrap_or_else(|| panic!("{case}: no func in {reply}"));
                    assert_eq!(func, expected, "{case}: hot={hot}");
                }
            }
        }
    }
    svc.shutdown_and_join();
}
