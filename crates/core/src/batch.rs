//! Work-stealing parallel batch compilation.
//!
//! Pinter's per-block construction (Gs → Et → Gf → PIG) is independent
//! across functions, so a module compiles embarrassingly parallel: the
//! [`BatchDriver`] shards a module's functions across `N` worker threads,
//! runs each function through the resilient [`Driver`] ladder, and joins
//! the results **in input order**, so the output is byte-identical no
//! matter how many workers ran or in what order they finished.
//!
//! The scheduler is a zero-dependency work-stealing design over
//! `std::thread` + channels (the workspace builds offline, so no rayon):
//!
//! * Function indices are striped round-robin into one deque per worker,
//!   so all workers start with a balanced share of the module.
//! * A worker pops its own deque from the **front**; when empty it steals
//!   from the **back** of the most loaded other deque. Front/back
//!   separation keeps stolen work coarse and owned work cache-warm, and
//!   one huge function cannot strand the rest of the module behind it.
//! * Each worker owns a private [`Recorder`], merged into
//!   [`BatchOutput::telemetry`] at join — workers never contend on a
//!   telemetry mutex mid-compilation.
//!
//! Fault isolation composes with the driver's: a function whose every
//! ladder rung fails (or that panics outside the rungs) yields an `Err`
//! in its own slot of [`BatchOutput::results`], never poisoning its
//! neighbours or the process.
//!
//! ```
//! use parsched::{paper, BatchDriver, Driver, Pipeline};
//! use parsched_telemetry::NullTelemetry;
//!
//! let module = vec![paper::example1(), paper::example2()];
//! let batch = BatchDriver::new(Driver::new(Pipeline::new(paper::machine(8)))).with_jobs(2);
//! let out = batch.compile_module(&module, &NullTelemetry);
//! assert_eq!(out.results.len(), 2);
//! assert!(out.results.iter().all(|r| r.is_ok()));
//! ```

use crate::driver::{panic_message, Driver};
use crate::error::ParschedError;
use crate::pipeline::CompileResult;
use parsched_ir::Function;
use parsched_regalloc::AllocSession;
use parsched_telemetry::{Fanout, NullTelemetry, Recorder, Telemetry};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Parallel front end over [`Driver`]: compiles a module's functions
/// across worker threads with work stealing and deterministic output
/// ordering. See the [module docs](crate::batch) for the design.
#[derive(Debug, Clone)]
pub struct BatchDriver {
    driver: Driver,
    jobs: usize,
    record: bool,
}

/// Everything one batch compilation produced.
#[derive(Debug)]
pub struct BatchOutput {
    /// Per-function outcomes, **in input order** regardless of which
    /// worker compiled what and when it finished.
    pub results: Vec<Result<CompileResult, ParschedError>>,
    /// Per-function compile wall time in nanoseconds, in input order.
    pub per_func_ns: Vec<u128>,
    /// Wall-clock time of the whole batch, shard to join.
    pub wall: Duration,
    /// Worker threads actually used (after resolving `jobs = 0` and
    /// clamping to the module size).
    pub jobs: usize,
    /// Per-worker telemetry merged at join. Empty unless
    /// [`BatchDriver::with_recording`] enabled recording. Cross-worker
    /// span *ordering* is nondeterministic; counters, gauges, and
    /// per-phase duration totals are exact.
    pub telemetry: Recorder,
}

impl BatchOutput {
    /// Number of functions that compiled successfully.
    pub fn ok_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Number of functions whose every ladder rung failed.
    pub fn err_count(&self) -> usize {
        self.results.len() - self.ok_count()
    }

    /// Total instructions across all successfully compiled functions
    /// (spill code included) — the numerator of a throughput figure.
    pub fn total_insts(&self) -> usize {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|r| r.stats.inst_count)
            .sum()
    }

    /// Total spilled values (or webs) across all successful functions.
    pub fn total_spills(&self) -> usize {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|r| r.stats.spilled_values)
            .sum()
    }

    /// Instructions compiled per second of batch wall time, 0.0 for an
    /// empty or instantaneous batch.
    ///
    /// Always finite: a zero/denormal-duration run with a nonzero
    /// instruction count would otherwise put `inf` (and an empty run
    /// `NaN`) into `--stats-json` reports, which the JSON writer cannot
    /// represent and downstream ratio gates choke on.
    pub fn insts_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        let rate = self.total_insts() as f64 / secs;
        if rate.is_finite() {
            rate
        } else {
            0.0
        }
    }
}

impl BatchDriver {
    /// A batch driver running `driver` on every function, with automatic
    /// worker count ([`available_parallelism`]) and recording off.
    ///
    /// [`available_parallelism`]: std::thread::available_parallelism
    pub fn new(driver: Driver) -> BatchDriver {
        BatchDriver {
            driver,
            jobs: 0,
            record: false,
        }
    }

    /// Sets the worker count. `0` means one worker per available core.
    /// The effective count is additionally clamped to the module size.
    pub fn with_jobs(mut self, jobs: usize) -> BatchDriver {
        self.jobs = jobs;
        self
    }

    /// Enables per-worker [`Recorder`] telemetry, merged into
    /// [`BatchOutput::telemetry`] at join.
    pub fn with_recording(mut self, record: bool) -> BatchDriver {
        self.record = record;
        self
    }

    /// The underlying resilient driver.
    pub fn driver(&self) -> &Driver {
        &self.driver
    }

    /// The configured worker count (`0` = automatic).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The worker count a module of `n_funcs` functions would actually
    /// use: the configured count (or core count when automatic), clamped
    /// to `n_funcs`, and at least 1.
    pub fn resolved_jobs(&self, n_funcs: usize) -> usize {
        let configured = if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.jobs
        };
        configured.min(n_funcs).max(1)
    }

    /// Compiles every function of `funcs` across the worker pool.
    ///
    /// `sink` is a **shared** sink every worker also reports to (it must
    /// be `Sync`; the built-in sinks are — pass [`NullTelemetry`] to opt
    /// out). Per-worker recorders still merge into
    /// [`BatchOutput::telemetry`] when recording is on; the shared sink
    /// sees all workers' signals interleaved live. A sink that panics
    /// fails at most the rung it panicked in — the driver's containment
    /// applies to batch compilation too.
    ///
    /// Each worker owns one [`AllocSession`] reused across every function
    /// it compiles, so dependence-graph and closure allocations stay warm
    /// for the whole stripe.
    pub fn compile_module(&self, funcs: &[Function], sink: &(dyn Telemetry + Sync)) -> BatchOutput {
        let start = Instant::now();
        let n = funcs.len();
        let jobs = self.resolved_jobs(n);
        let master = Recorder::new();
        let mut results: Vec<Option<Result<CompileResult, ParschedError>>> = Vec::new();
        results.resize_with(n, || None);
        let mut per_func_ns: Vec<u128> = vec![0; n];

        if jobs <= 1 {
            // Inline fast path: same per-function code as the workers, no
            // thread spawn. `--jobs 1` output is identical by construction.
            let worker = Recorder::new();
            let mut session = AllocSession::new();
            for (i, func) in funcs.iter().enumerate() {
                let (res, ns) = self.compile_one(&mut session, func, &worker, sink);
                results[i] = Some(res);
                per_func_ns[i] = ns;
            }
            if self.record {
                master.merge_from(&worker);
            }
        } else {
            // Round-robin striping: worker w starts with indices
            // w, w+jobs, w+2*jobs, ... so initial shares are balanced.
            let queues: Vec<Mutex<VecDeque<usize>>> = (0..jobs)
                .map(|w| Mutex::new((w..n).step_by(jobs).collect()))
                .collect();
            let (tx, rx) = mpsc::channel::<(usize, Result<CompileResult, ParschedError>, u128)>();
            std::thread::scope(|scope| {
                for w in 0..jobs {
                    let tx = tx.clone();
                    let queues = &queues;
                    let master = &master;
                    scope.spawn(move || {
                        let worker = Recorder::new();
                        let mut session = AllocSession::new();
                        while let Some(idx) = next_job(queues, w) {
                            let (res, ns) =
                                self.compile_one(&mut session, &funcs[idx], &worker, sink);
                            // The receiver outlives the scope; a send can
                            // only fail if the parent vanished, in which
                            // case there is nobody to report to.
                            let _ = tx.send((idx, res, ns));
                        }
                        if self.record {
                            master.merge_from(&worker);
                        }
                    });
                }
                drop(tx);
                // Drain inside the scope so results land as they finish.
                for (idx, res, ns) in rx {
                    results[idx] = Some(res);
                    per_func_ns[idx] = ns;
                }
            });
        }

        BatchOutput {
            // Every index was pushed to exactly one queue and every pop
            // sends exactly one result, so no slot can still be empty.
            results: results
                .into_iter()
                .enumerate()
                .map(|(i, r)| {
                    r.unwrap_or_else(|| {
                        Err(ParschedError::Panicked {
                            context: format!("batch slot {i}"),
                            message: "worker vanished without a result".to_string(),
                        })
                    })
                })
                .collect(),
            per_func_ns,
            wall: start.elapsed(),
            jobs,
            telemetry: master,
        }
    }

    /// Compiles one function with the worker's private recorder and the
    /// shared sink fanned in, timing it and containing any panic that
    /// escapes the driver's own per-rung containment. The worker's
    /// `session` is rebuilt per function but keeps its allocations.
    fn compile_one(
        &self,
        session: &mut AllocSession,
        func: &Function,
        worker: &Recorder,
        sink: &(dyn Telemetry + Sync),
    ) -> (Result<CompileResult, ParschedError>, u128) {
        let mut sinks: Vec<&dyn Telemetry> = Vec::new();
        if self.record {
            sinks.push(worker);
        }
        if sink.enabled() {
            sinks.push(sink);
        }
        let fanout = Fanout::new(sinks);
        let telemetry: &dyn Telemetry = if fanout.enabled() {
            &fanout
        } else {
            &NullTelemetry
        };
        let t0 = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| {
            self.driver
                .compile_resilient_in(&mut *session, func, telemetry)
        }))
        .unwrap_or_else(|payload| {
            Err(ParschedError::Panicked {
                context: format!("{} in batch", func.name()),
                message: panic_message(payload.as_ref()),
            })
        });
        let elapsed = t0.elapsed().as_nanos();
        if self.record {
            // Per-function compile-latency distribution (p50/p90/p99 across
            // the module), merged across workers at join.
            worker.hist("driver.func_ns", elapsed.min(u64::MAX as u128) as u64);
        }
        (res, elapsed)
    }
}

/// Pops the next job for worker `w`: front of its own deque, else steal
/// from the back of the most loaded other deque. Returns `None` only when
/// every deque is empty — the batch is drained.
fn next_job(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(idx) = queues[w].lock().ok()?.pop_front() {
        return Some(idx);
    }
    loop {
        // Pick the victim with the most remaining work so steals are rare
        // and coarse; re-scan until a steal succeeds or all are empty
        // (another thief may drain the chosen victim between scan and lock).
        let victim = queues
            .iter()
            .enumerate()
            .filter(|&(v, _)| v != w)
            .map(|(v, q)| (q.lock().map_or(0, |g| g.len()), v))
            .max()?;
        match victim {
            (0, _) => return None,
            (_, v) => {
                if let Some(idx) = queues[v].lock().ok()?.pop_back() {
                    return Some(idx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use crate::pipeline::Pipeline;

    fn module() -> Vec<Function> {
        vec![
            paper::example1(),
            paper::example2(),
            paper::example1(),
            paper::example2(),
            paper::example1(),
        ]
    }

    fn driver() -> Driver {
        Driver::new(Pipeline::new(paper::machine(8)))
    }

    #[test]
    fn results_keep_input_order_across_worker_counts() {
        let module = module();
        let baseline = BatchDriver::new(driver())
            .with_jobs(1)
            .compile_module(&module, &NullTelemetry);
        for jobs in [2, 3, 8] {
            let out = BatchDriver::new(driver())
                .with_jobs(jobs)
                .compile_module(&module, &NullTelemetry);
            assert_eq!(out.results.len(), module.len());
            for (a, b) in baseline.results.iter().zip(&out.results) {
                let (Ok(a), Ok(b)) = (a, b) else {
                    unreachable!("paper examples compile on every rung")
                };
                assert_eq!(a.function, b.function, "jobs={jobs}");
                assert_eq!(a.stats, b.stats, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn jobs_resolution_clamps_to_module_size() {
        let b = BatchDriver::new(driver()).with_jobs(16);
        assert_eq!(b.resolved_jobs(3), 3);
        assert_eq!(b.resolved_jobs(0), 1);
        assert_eq!(b.jobs(), 16);
        let auto = BatchDriver::new(driver());
        assert!(auto.resolved_jobs(1000) >= 1);
    }

    #[test]
    fn empty_module_is_fine() {
        let out = BatchDriver::new(driver())
            .with_jobs(4)
            .compile_module(&[], &NullTelemetry);
        assert!(out.results.is_empty());
        assert_eq!(out.ok_count(), 0);
        assert_eq!(out.insts_per_sec(), 0.0);
    }

    #[test]
    fn recording_merges_worker_recorders() {
        let module = module();
        let out = BatchDriver::new(driver())
            .with_jobs(2)
            .with_recording(true)
            .compile_module(&module, &NullTelemetry);
        // One driver.compiled count per function, regardless of worker.
        assert_eq!(
            out.telemetry.counter_value("driver.compiled"),
            module.len() as u64
        );
        assert!(out.telemetry.span_count("pipeline.compile") >= module.len());
    }

    #[test]
    fn output_helpers_aggregate() {
        let out = BatchDriver::new(driver())
            .with_jobs(2)
            .compile_module(&module(), &NullTelemetry);
        assert_eq!(out.ok_count(), 5);
        assert_eq!(out.err_count(), 0);
        assert!(out.total_insts() > 0);
        assert_eq!(out.per_func_ns.len(), 5);
        assert!(out.per_func_ns.iter().all(|&ns| ns > 0));
    }

    #[test]
    fn insts_per_sec_is_finite_on_degenerate_batches() {
        let mut out = BatchDriver::new(driver())
            .with_jobs(1)
            .compile_module(&module(), &NullTelemetry);
        assert!(out.total_insts() > 0);
        // A zero-duration wall clock (possible on coarse timers) must not
        // leak inf into --stats-json; the rate degrades to 0.0 instead.
        out.wall = Duration::ZERO;
        assert_eq!(out.insts_per_sec(), 0.0);
        // Denormal-small durations likewise stay finite.
        out.wall = Duration::from_nanos(1);
        assert!(out.insts_per_sec().is_finite());
        // An empty batch with zero wall time is 0.0, not NaN.
        out.results.clear();
        out.wall = Duration::ZERO;
        assert_eq!(out.insts_per_sec(), 0.0);
        // A normal run reports a positive finite rate.
        out.wall = Duration::from_millis(10);
        assert!(out.insts_per_sec() == 0.0); // results were cleared
    }

    #[test]
    fn next_job_drains_and_steals() {
        let queues: Vec<Mutex<VecDeque<usize>>> = vec![
            Mutex::new(VecDeque::from(vec![0, 2])),
            Mutex::new(VecDeque::new()),
        ];
        // Worker 1 owns nothing; it must steal from worker 0's back.
        assert_eq!(next_job(&queues, 1), Some(2));
        assert_eq!(next_job(&queues, 0), Some(0));
        assert_eq!(next_job(&queues, 0), None);
        assert_eq!(next_job(&queues, 1), None);
    }
}
