//! The parallel batch-compilation sweep behind `BENCH_parallel.json`.
//!
//! One **sweep point** = (workload, strategy, thread count): the whole
//! workload is compiled through [`BatchDriver`] `warmup + iters` times and
//! the median batch wall time is kept. Workloads come from the
//! `parsched-workload` generators at fixed seeds, so every run compiles
//! bit-identical inputs; the only variables are the host and the thread
//! count. The sweep also cross-checks determinism: spill and instruction
//! totals must match the single-threaded baseline at every thread count.

use parsched::ir::Function;
use parsched::machine::{presets, MachineDesc};
use parsched::telemetry::json::Value;
use parsched::telemetry::NullTelemetry;
use parsched::{BatchDriver, Driver, Pipeline, Strategy};
use parsched_workload::{random_dag_function, straight_line_kernels, DagParams};

/// Thread counts every sweep measures.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Schema tag written to new reports. `/2` added host identification
/// (`os`, and an optional free-form `label`) so archived baselines say
/// where they were measured; the point format is unchanged from `/1`.
pub const SCHEMA: &str = "parsched-bench-parallel/2";

/// The previous schema tag. [`validate_report`] still accepts it so
/// committed `/1` baselines keep validating and stay usable as the
/// `--compare` baseline.
pub const SCHEMA_V1: &str = "parsched-bench-parallel/1";

/// Sweep dimensions and repetition policy.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Tiny single-iteration corpus for CI smoke (seconds, not minutes).
    pub smoke: bool,
    /// Unmeasured warm-up batch runs per point.
    pub warmup: usize,
    /// Measured batch runs per point; the median wall time is reported.
    pub iters: usize,
}

impl SweepConfig {
    /// The full sweep: warm-up plus median-of-5.
    pub fn full() -> SweepConfig {
        SweepConfig {
            smoke: false,
            warmup: 1,
            iters: 5,
        }
    }

    /// The CI smoke sweep: tiny corpus, one iteration, no warm-up.
    pub fn smoke() -> SweepConfig {
        SweepConfig {
            smoke: true,
            warmup: 0,
            iters: 1,
        }
    }
}

/// A named batch of functions with the machine they target.
pub struct Workload {
    /// Stable name used in the report.
    pub name: &'static str,
    /// Target machine (the register count is part of the workload:
    /// `pressure` compiles the same shapes against a starved file).
    pub machine: MachineDesc,
    /// The functions, in a fixed order at fixed seeds.
    pub funcs: Vec<Function>,
    /// Strategies to measure on this workload. Most workloads run the
    /// standard [`sweep_strategies`]; `exact-small` runs only the exact
    /// solver (the heuristics would be noise at that size, and the exact
    /// solver would refuse the large workloads).
    pub strategies: Vec<Strategy>,
}

/// The standard workloads: the kernel corpus (replicated so a batch has
/// enough grains to shard), large random DAGs (the heavy per-function
/// work), a register-pressure sweep on a starved machine (exercises
/// spilling and the degradation ladder), `closure-width` — a narrow/wide
/// DAG pair stressing both reachability backends and the density
/// heuristic between them — and `exact-small` — small DAG blocks sized
/// for the exact joint solver, so its throughput is tracked and
/// `--compare` guards it against regression.
pub fn workloads(smoke: bool) -> Vec<Workload> {
    let kernel_reps = if smoke { 1 } else { 8 };
    let mut kernels = Vec::new();
    for _ in 0..kernel_reps {
        kernels.extend(straight_line_kernels().into_iter().map(|(_, f)| f));
    }

    let (dag_count, dag_size) = if smoke { (4, 24) } else { (48, 100) };
    let dag_params = DagParams {
        size: dag_size,
        load_fraction: 0.25,
        float_fraction: 0.4,
        window: 8,
    };
    let dags: Vec<Function> = (0..dag_count)
        .map(|seed| random_dag_function(seed * 11 + 5, &dag_params))
        .collect();

    let (pressure_count, pressure_size) = if smoke { (4, 16) } else { (32, 48) };
    let pressure_params = DagParams {
        size: pressure_size,
        load_fraction: 0.2,
        float_fraction: 0.3,
        // A wide window keeps many values live at once, forcing spills on
        // the 6-register machine below.
        window: 24,
    };
    let pressure: Vec<Function> = (0..pressure_count)
        .map(|seed| random_dag_function(seed * 17 + 3, &pressure_params))
        .collect();

    // A deliberately skewed pair for the reachability engine: `narrow`
    // DAGs are long chains (tiny path cover, the sparse backend's best
    // case), `wide` DAGs are near-antichains (cover width ~ n, where the
    // density heuristic must keep choosing the dense bitmatrix). Tracking
    // both in one workload pins the auto heuristic's crossover.
    let (width_count, width_size) = if smoke { (2, 20) } else { (6, 120) };
    let narrow_params = DagParams {
        size: width_size,
        load_fraction: 0.2,
        float_fraction: 0.3,
        window: 2,
    };
    let wide_params = DagParams {
        size: width_size,
        load_fraction: 0.2,
        float_fraction: 0.3,
        window: 48,
    };
    let mut closure_width: Vec<Function> = Vec::new();
    for seed in 0..width_count {
        closure_width.push(random_dag_function(seed * 19 + 11, &narrow_params));
        closure_width.push(random_dag_function(seed * 23 + 29, &wide_params));
    }

    let exact_count = if smoke { 4 } else { 24 };
    let exact_params = DagParams {
        size: 8,
        load_fraction: 0.2,
        float_fraction: 0.3,
        window: 4,
    };
    let exact_small: Vec<Function> = (0..exact_count)
        .map(|seed| random_dag_function(seed * 13 + 7, &exact_params))
        .collect();

    vec![
        Workload {
            name: "kernels",
            machine: presets::paper_machine(16),
            funcs: kernels,
            strategies: sweep_strategies(),
        },
        Workload {
            name: "dag-large",
            machine: presets::paper_machine(32),
            funcs: dags,
            strategies: sweep_strategies(),
        },
        Workload {
            name: "pressure",
            machine: presets::paper_machine(6),
            funcs: pressure,
            strategies: sweep_strategies(),
        },
        Workload {
            name: "closure-width",
            machine: presets::paper_machine(32),
            funcs: closure_width,
            strategies: sweep_strategies(),
        },
        Workload {
            name: "exact-small",
            machine: presets::paper_machine(8),
            funcs: exact_small,
            strategies: vec![Strategy::exact()],
        },
    ]
}

/// Strategies every sweep measures.
pub fn sweep_strategies() -> Vec<Strategy> {
    vec![
        Strategy::combined(),
        Strategy::SchedThenAlloc,
        Strategy::AllocThenSched,
    ]
}

/// One measured (workload, strategy, threads) cell.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Workload name.
    pub workload: &'static str,
    /// Strategy label.
    pub strategy: &'static str,
    /// Worker threads used.
    pub threads: usize,
    /// Functions in the batch.
    pub functions: usize,
    /// Measured batch wall times, one per iteration, in nanoseconds.
    pub wall_ns: Vec<u128>,
    /// Median of [`wall_ns`](SweepPoint::wall_ns).
    pub median_wall_ns: u128,
    /// Total final instructions compiled per batch run.
    pub insts: usize,
    /// Throughput at the median wall time.
    pub insts_per_sec: f64,
    /// Total spilled values across the batch.
    pub spilled_values: usize,
    /// Functions whose every ladder rung failed (0 in a healthy sweep).
    pub errors: usize,
    /// Worst degradation level any function needed.
    pub worst_degradation: &'static str,
}

fn median(samples: &mut [u128]) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Runs the full cross product `workloads × strategies × THREAD_COUNTS`,
/// printing one progress line per point to stderr.
///
/// # Panics
/// Panics if any thread count produces different spill or instruction
/// totals than the single-threaded baseline — that would mean batch
/// compilation is nondeterministic, and no timing from such a build can
/// be trusted.
pub fn run_sweep(config: &SweepConfig) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for workload in workloads(config.smoke) {
        for strategy in workload.strategies.clone() {
            // The requested strategy leads; the resilience ladder backs it
            // so a pressure-starved function degrades instead of erroring.
            let mut ladder = Driver::default_ladder();
            ladder.retain(|s| *s != strategy);
            ladder.insert(0, strategy);
            let driver = Driver::new(Pipeline::new(workload.machine.clone())).with_ladder(ladder);
            let mut baseline: Option<(usize, usize)> = None;
            for threads in THREAD_COUNTS {
                let batch = BatchDriver::new(driver.clone()).with_jobs(threads);
                for _ in 0..config.warmup {
                    let _ = batch.compile_module(&workload.funcs, &NullTelemetry);
                }
                let mut wall_ns = Vec::with_capacity(config.iters);
                let mut last = None;
                for _ in 0..config.iters.max(1) {
                    let out = batch.compile_module(&workload.funcs, &NullTelemetry);
                    wall_ns.push(out.wall.as_nanos());
                    last = Some(out);
                }
                let out = match last {
                    Some(out) => out,
                    None => continue,
                };
                let fingerprint = (out.total_insts(), out.total_spills());
                match baseline {
                    None => baseline = Some(fingerprint),
                    Some(expected) => assert_eq!(
                        expected,
                        fingerprint,
                        "nondeterministic batch: {}/{} at {} threads",
                        workload.name,
                        strategy.label(),
                        threads
                    ),
                }
                let worst = out
                    .results
                    .iter()
                    .filter_map(|r| r.as_ref().ok())
                    .map(|r| r.degradation)
                    .max()
                    .unwrap_or_default();
                let median_wall_ns = median(&mut wall_ns.clone());
                let secs = median_wall_ns as f64 / 1e9;
                let point = SweepPoint {
                    workload: workload.name,
                    strategy: strategy.label(),
                    threads,
                    functions: workload.funcs.len(),
                    insts: out.total_insts(),
                    // Finite or zero — never inf/NaN into the JSON report
                    // (see `BatchOutput::insts_per_sec` for the rationale).
                    insts_per_sec: match out.total_insts() as f64 / secs {
                        rate if rate.is_finite() && secs > 0.0 => rate,
                        _ => 0.0,
                    },
                    spilled_values: out.total_spills(),
                    errors: out.err_count(),
                    worst_degradation: worst.label(),
                    median_wall_ns,
                    wall_ns,
                };
                eprintln!(
                    "  {:>9} × {:<16} jobs={} median {:>8.2} ms  {:>9.0} insts/s",
                    point.workload,
                    point.strategy,
                    point.threads,
                    point.median_wall_ns as f64 / 1e6,
                    point.insts_per_sec
                );
                points.push(point);
            }
        }
    }
    points
}

/// Renders the report document. `mode` is `"full"` or `"smoke"`;
/// `label` is a free-form run tag (`--label`), omitted when `None`.
pub fn render_report(
    points: &[SweepPoint],
    mode: &str,
    host_threads: usize,
    label: Option<&str>,
) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(s, "  \"host_threads\": {host_threads},");
    let _ = writeln!(
        s,
        "  \"os\": \"{}-{}\",",
        std::env::consts::OS,
        std::env::consts::ARCH
    );
    if let Some(label) = label {
        let _ = writeln!(s, "  \"label\": \"{}\",", label.replace('"', "'"));
    }
    let threads: Vec<String> = THREAD_COUNTS.iter().map(usize::to_string).collect();
    let _ = writeln!(s, "  \"thread_counts\": [{}],", threads.join(", "));
    s.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let walls: Vec<String> = p.wall_ns.iter().map(u128::to_string).collect();
        let _ = writeln!(
            s,
            "    {{\"workload\": \"{}\", \"strategy\": \"{}\", \"threads\": {}, \"functions\": {}, \"iters\": {}, \"wall_ns\": [{}], \"median_wall_ns\": {}, \"insts\": {}, \"insts_per_sec\": {:.1}, \"spilled_values\": {}, \"errors\": {}, \"worst_degradation\": \"{}\"}}{}",
            p.workload,
            p.strategy,
            p.threads,
            p.functions,
            p.wall_ns.len(),
            walls.join(", "),
            p.median_wall_ns,
            p.insts,
            p.insts_per_sec,
            p.spilled_values,
            p.errors,
            p.worst_degradation,
            comma
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Validates a parsed report: schema tag, one point per
/// (workload, strategy, thread-count) cell with sane numeric fields, and
/// **determinism across thread counts** — every (workload, strategy)
/// pair must report identical `insts` and `spilled_values` at every
/// thread count, or the timings were taken from nondeterministic builds
/// and the whole report is untrustworthy.
///
/// # Errors
/// Returns a human-readable description of the first problem found.
pub fn validate_report(doc: &Value) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing schema")?;
    if schema != SCHEMA && schema != SCHEMA_V1 {
        return Err(format!(
            "schema `{schema}`, expected `{SCHEMA}` (or legacy `{SCHEMA_V1}`)"
        ));
    }
    let points = doc
        .get("points")
        .and_then(Value::as_arr)
        .ok_or("missing points array")?;
    if points.is_empty() {
        return Err("empty points array".to_string());
    }
    let mut cells: Vec<(String, String, usize)> = Vec::new();
    let mut outputs: Vec<(String, String, u64, u64)> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        let workload = p
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("point {i}: missing workload"))?;
        let strategy = p
            .get("strategy")
            .and_then(Value::as_str)
            .ok_or(format!("point {i}: missing strategy"))?;
        let threads = p
            .get("threads")
            .and_then(Value::as_num)
            .ok_or(format!("point {i}: missing threads"))? as usize;
        for field in ["median_wall_ns", "insts", "insts_per_sec", "functions"] {
            let v = p
                .get(field)
                .and_then(Value::as_num)
                .ok_or(format!("point {i}: missing {field}"))?;
            if v <= 0.0 {
                return Err(format!("point {i}: non-positive {field}"));
            }
        }
        let errors = p
            .get("errors")
            .and_then(Value::as_num)
            .ok_or(format!("point {i}: missing errors"))?;
        if errors > 0.0 {
            return Err(format!("point {i}: {errors} functions failed"));
        }
        let insts = p
            .get("insts")
            .and_then(Value::as_num)
            .ok_or(format!("point {i}: missing insts"))? as u64;
        let spilled = p
            .get("spilled_values")
            .and_then(Value::as_num)
            .ok_or(format!("point {i}: missing spilled_values"))? as u64;
        // Thread-count determinism: all points of one (workload, strategy)
        // pair must agree on what they compiled, not just when.
        match outputs
            .iter()
            .find(|(w, s, _, _)| w == workload && s == strategy)
        {
            None => outputs.push((workload.to_string(), strategy.to_string(), insts, spilled)),
            Some((_, _, ei, es)) => {
                if *ei != insts || *es != spilled {
                    return Err(format!(
                        "{workload}/{strategy}: insts/spilled differ across thread counts \
                         ({ei}/{es} vs {insts}/{spilled} at {threads} threads) — \
                         nondeterministic batch output"
                    ));
                }
            }
        }
        cells.push((workload.to_string(), strategy.to_string(), threads));
    }
    // Every (workload, strategy) pair must cover every thread count.
    let mut pairs: Vec<(String, String)> = cells
        .iter()
        .map(|(w, s, _)| (w.clone(), s.clone()))
        .collect();
    pairs.sort();
    pairs.dedup();
    for (w, s) in &pairs {
        for t in THREAD_COUNTS {
            if !cells
                .iter()
                .any(|(cw, cs, ct)| cw == w && cs == s && *ct == t)
            {
                return Err(format!("missing sweep point {w}/{s} at {t} threads"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched::telemetry::json;

    #[test]
    fn smoke_corpus_is_small_and_stable() {
        let a = workloads(true);
        let b = workloads(true);
        assert_eq!(a.len(), 5);
        for (wa, wb) in a.iter().zip(&b) {
            assert_eq!(wa.name, wb.name);
            assert_eq!(wa.funcs, wb.funcs);
            assert!(wa.funcs.len() <= 12, "{}: smoke corpus too big", wa.name);
            assert!(!wa.strategies.is_empty(), "{}: no strategies", wa.name);
        }
        let exact = a.last().unwrap();
        assert_eq!(exact.name, "exact-small");
        assert_eq!(exact.strategies, vec![Strategy::exact()]);
        for f in &exact.funcs {
            assert!(
                f.inst_count() <= 20,
                "{}: too large for the exact solver",
                f.name()
            );
        }
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&mut [5, 1, 9]), 5);
        assert_eq!(median(&mut [2, 1]), 2);
        assert_eq!(median(&mut [7]), 7);
    }

    #[test]
    fn rendered_report_validates() {
        let p = SweepPoint {
            workload: "kernels",
            strategy: "combined",
            threads: 1,
            functions: 12,
            wall_ns: vec![100],
            median_wall_ns: 100,
            insts: 50,
            insts_per_sec: 5e8,
            spilled_values: 0,
            errors: 0,
            worst_degradation: "none",
        };
        let points: Vec<SweepPoint> = THREAD_COUNTS
            .iter()
            .map(|&t| SweepPoint {
                threads: t,
                wall_ns: p.wall_ns.clone(),
                ..p.clone()
            })
            .collect();
        let doc = json::parse(&render_report(&points, "smoke", 1, None)).unwrap();
        validate_report(&doc).unwrap();
    }

    #[test]
    fn report_carries_host_info_and_label() {
        let p = SweepPoint {
            workload: "kernels",
            strategy: "combined",
            threads: 1,
            functions: 12,
            wall_ns: vec![100],
            median_wall_ns: 100,
            insts: 50,
            insts_per_sec: 5e8,
            spilled_values: 0,
            errors: 0,
            worst_degradation: "none",
        };
        let points: Vec<SweepPoint> = THREAD_COUNTS
            .iter()
            .map(|&t| SweepPoint {
                threads: t,
                wall_ns: p.wall_ns.clone(),
                ..p.clone()
            })
            .collect();
        let doc = json::parse(&render_report(&points, "smoke", 4, Some(r#"pr-6 "rc1""#))).unwrap();
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(
            doc.get("os").and_then(Value::as_str),
            Some(format!("{}-{}", std::env::consts::OS, std::env::consts::ARCH).as_str())
        );
        assert_eq!(doc.get("host_threads").and_then(Value::as_num), Some(4.0));
        // Quotes in a label must not corrupt the document.
        assert_eq!(doc.get("label").and_then(Value::as_str), Some("pr-6 'rc1'"));
        validate_report(&doc).unwrap();
        // Labels are optional: omitted entirely when not given.
        let doc = json::parse(&render_report(&points, "smoke", 4, None)).unwrap();
        assert!(doc.get("label").is_none());
    }

    #[test]
    fn validation_accepts_legacy_v1_schema() {
        let rendered = {
            let p = SweepPoint {
                workload: "kernels",
                strategy: "combined",
                threads: 1,
                functions: 12,
                wall_ns: vec![100],
                median_wall_ns: 100,
                insts: 50,
                insts_per_sec: 5e8,
                spilled_values: 0,
                errors: 0,
                worst_degradation: "none",
            };
            let points: Vec<SweepPoint> = THREAD_COUNTS
                .iter()
                .map(|&t| SweepPoint {
                    threads: t,
                    wall_ns: p.wall_ns.clone(),
                    ..p.clone()
                })
                .collect();
            render_report(&points, "smoke", 1, None).replace(SCHEMA, SCHEMA_V1)
        };
        let doc = json::parse(&rendered).unwrap();
        validate_report(&doc).unwrap();
    }

    #[test]
    fn validation_rejects_incomplete_sweeps() {
        let doc = json::parse(&format!(
            r#"{{"schema": "{SCHEMA}", "points": [{{"workload": "w", "strategy": "s", "threads": 1, "functions": 1, "median_wall_ns": 5, "insts": 3, "insts_per_sec": 1.0, "spilled_values": 0, "errors": 0}}]}}"#
        ))
        .unwrap();
        let e = validate_report(&doc).unwrap_err();
        assert!(e.contains("missing sweep point"), "{e}");
        let doc = json::parse(r#"{"schema": "bogus", "points": []}"#).unwrap();
        assert!(validate_report(&doc).unwrap_err().contains("schema"));
    }

    #[test]
    fn validation_rejects_thread_count_nondeterminism() {
        let p = SweepPoint {
            workload: "kernels",
            strategy: "combined",
            threads: 1,
            functions: 12,
            wall_ns: vec![100],
            median_wall_ns: 100,
            insts: 50,
            insts_per_sec: 5e8,
            spilled_values: 0,
            errors: 0,
            worst_degradation: "none",
        };
        let points: Vec<SweepPoint> = THREAD_COUNTS
            .iter()
            .map(|&t| SweepPoint {
                threads: t,
                wall_ns: p.wall_ns.clone(),
                // One thread count "compiles" an extra instruction.
                insts: if t == 4 { 51 } else { 50 },
                ..p.clone()
            })
            .collect();
        let doc = json::parse(&render_report(&points, "smoke", 1, None)).unwrap();
        let e = validate_report(&doc).unwrap_err();
        assert!(e.contains("differ across thread counts"), "{e}");
    }
}
