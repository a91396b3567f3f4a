//! The compile service: bounded admission, supervised workers, graceful
//! drain.
//!
//! A [`Service`] owns a pool of worker threads behind one bounded queue.
//! Admission happens at enqueue time: a full queue, an unmeetable client
//! deadline (estimated from an EWMA of recent service times), or an
//! in-progress drain all fast-fail the request with [`CODE_OVERLOADED`]
//! instead of letting it rot in the queue. Under partial load the service
//! *sheds* instead: the request is admitted but enters the driver's
//! degradation ladder at a lower rung, trading code quality for latency
//! before refusing work.
//!
//! Workers run each request inside `catch_unwind` (over and above the
//! driver's per-rung isolation). A panic retries once at a lower rung
//! after a jittered backoff; a budget trip whose deadline has *not* yet
//! passed retries once on the floor rung. Never more than one retry per
//! request, and every accepted request produces exactly one response —
//! the invariant the resilience soak test enforces.

use crate::cache::{compose_key, digest, ResultCache};
use crate::proto::{
    error_response, ok_response, parse_request, CompileReq, Op, Request, CODE_OVERLOADED,
    CODE_PROTO, MAX_LINE_BYTES,
};
use parsched::{Budget, Driver, Pipeline, Strategy};
use parsched_ir::{parse_module, print_module};
use parsched_machine::{presets, MachineDesc};
use parsched_telemetry::json::{Layout, Writer};
use parsched_telemetry::{FlightRecorder, Telemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads compiling in parallel.
    pub workers: usize,
    /// Bounded admission queue depth; requests beyond it are refused.
    pub queue_depth: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Block-size cap handed to every compile budget, so one oversized
    /// block trips the quadratic rung's budget instead of stalling a
    /// worker for seconds.
    pub max_block_insts: Option<usize>,
    /// FlightRecorder ring capacity.
    pub flight_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_depth: 64,
            cache_capacity: 256,
            max_block_insts: Some(20_000),
            flight_capacity: 512,
        }
    }
}

/// A monotone snapshot of the service counters, as reported by the
/// `stats` op and [`Service::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Compile requests admitted to the queue.
    pub accepted: u64,
    /// Admitted requests answered with code 0.
    pub completed: u64,
    /// Admitted requests answered with a compile-error code (3–12).
    pub failed: u64,
    /// Requests refused at admission (queue full / unmeetable deadline).
    pub overloaded: u64,
    /// Admitted requests that entered the ladder at a lower rung.
    pub shed: u64,
    /// Second attempts after a panic or an early budget trip.
    pub retries: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache evictions.
    pub cache_evictions: u64,
    /// Compile requests refused because a drain was in progress.
    pub dropped_draining: u64,
    /// Flight-recorder entries lost to ring overflow.
    pub flight_dropped: u64,
}

impl ServiceStats {
    /// `true` when every counter of `self` is ≥ its counterpart in
    /// `earlier` — the monotonicity contract the soak test polls for.
    pub fn monotone_since(&self, earlier: &ServiceStats) -> bool {
        self.accepted >= earlier.accepted
            && self.completed >= earlier.completed
            && self.failed >= earlier.failed
            && self.overloaded >= earlier.overloaded
            && self.shed >= earlier.shed
            && self.retries >= earlier.retries
            && self.cache_hits >= earlier.cache_hits
            && self.cache_misses >= earlier.cache_misses
            && self.cache_evictions >= earlier.cache_evictions
            && self.dropped_draining >= earlier.dropped_draining
            && self.flight_dropped >= earlier.flight_dropped
    }
}

/// What a graceful drain left behind; returned by
/// [`Service::shutdown_and_join`].
#[derive(Debug)]
pub struct DrainReport {
    /// Final counter snapshot.
    pub stats: ServiceStats,
    /// The flight recorder's JSON dump, for the operator's post-mortem.
    pub flight_dump: String,
}

struct Job {
    id: u64,
    req: CompileReq,
    reply: Sender<String>,
    deadline: Option<Instant>,
    shed_rungs: usize,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    overloaded: AtomicU64,
    shed: AtomicU64,
    retries: AtomicU64,
    dropped_draining: AtomicU64,
}

struct Inner {
    cfg: ServiceConfig,
    counters: Counters,
    queue_len: AtomicUsize,
    draining: AtomicBool,
    shutdown_requested: AtomicBool,
    /// EWMA of recent compile service times in nanoseconds (0 = no
    /// samples yet). Admission multiplies it by the queue depth to
    /// estimate whether a client deadline is meetable at all.
    ewma_ns: AtomicU64,
    cache: Mutex<ResultCache>,
    flight: FlightRecorder,
}

/// The compile service. Clone-free: share it behind an [`Arc`].
pub struct Service {
    inner: Arc<Inner>,
    tx: Mutex<Option<SyncSender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Recovers a mutex guard even when a panicking thread poisoned it — the
/// daemon's whole point is to outlive poisoned state.
fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The request's strategy label: any `psc --strategy` name except
/// `exact`, whose joint search is an offline tool, not a daemon rung.
fn parse_strategy(label: &str) -> Option<Strategy> {
    Strategy::parse(label)
        .ok()
        .filter(|s| !matches!(s, Strategy::Exact(_)))
}

/// The driver ladder for a request: the preferred-first ladder, then the
/// first `shed_rungs` rungs dropped (always keeping at least the floor).
fn ladder_for(preferred: Strategy, shed_rungs: usize) -> Vec<Strategy> {
    let mut ladder = Driver::preferred_first_ladder(preferred);
    let drop = shed_rungs.min(ladder.len() - 1);
    ladder.drain(..drop);
    ladder
}

/// SplitMix64, used only to jitter retry backoff.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Service {
    /// Starts the worker pool and returns the running service.
    pub fn start(cfg: ServiceConfig) -> Arc<Service> {
        let workers = cfg.workers.max(1);
        let queue_depth = cfg.queue_depth.max(1);
        let (tx, rx) = sync_channel::<Job>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let inner = Arc::new(Inner {
            flight: FlightRecorder::new(cfg.flight_capacity),
            cache: Mutex::new(ResultCache::new(cfg.cache_capacity)),
            cfg,
            counters: Counters::default(),
            queue_len: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            ewma_ns: AtomicU64::new(0),
        });
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let worker_inner = Arc::clone(&inner);
            let rx = Arc::clone(&rx);
            let handle = std::thread::Builder::new()
                .name(format!("pscd-worker-{w}"))
                .spawn(move || worker_loop(&worker_inner, &rx));
            match handle {
                Ok(h) => handles.push(h),
                // Thread exhaustion at startup: run with fewer workers
                // rather than die; admission scales to what exists.
                Err(e) => inner.flight.event("pscd.spawn_failed", &e.to_string()),
            }
        }
        Arc::new(Service {
            inner,
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(handles),
        })
    }

    /// Handles one request line, sending **exactly one** response line to
    /// `reply` (best-effort: a disconnected client drops it silently).
    pub fn handle_line(&self, line: &str, reply: &Sender<String>) {
        if line.len() > MAX_LINE_BYTES {
            let _ = reply.send(error_response(
                None,
                CODE_PROTO,
                "proto",
                &format!("line exceeds {MAX_LINE_BYTES} bytes"),
            ));
            return;
        }
        let req = match parse_request(line) {
            Ok(r) => r,
            Err(msg) => {
                let _ = reply.send(error_response(None, CODE_PROTO, "proto", &msg));
                return;
            }
        };
        match req.op {
            Op::Ping => {
                let _ = reply.send(ok_response(req.id, false, &flag_body("pong")));
            }
            Op::Stats => {
                let body = self.stats_body();
                let _ = reply.send(ok_response(req.id, false, &body));
            }
            Op::Shutdown => {
                self.inner.shutdown_requested.store(true, Ordering::SeqCst);
                self.begin_drain();
                let _ = reply.send(ok_response(req.id, false, &flag_body("draining")));
            }
            Op::Compile(c) => self.admit(
                Request {
                    id: req.id,
                    op: Op::Compile(c),
                },
                reply,
            ),
        }
    }

    fn admit(&self, req: Request, reply: &Sender<String>) {
        let Request {
            id,
            op: Op::Compile(c),
        } = req
        else {
            // admit() is only called with compile ops.
            unreachable!("admit() requires a compile request")
        };
        let inner = &self.inner;
        if inner.draining.load(Ordering::SeqCst) {
            inner
                .counters
                .dropped_draining
                .fetch_add(1, Ordering::SeqCst);
            let _ = reply.send(error_response(
                Some(id),
                CODE_OVERLOADED,
                "draining",
                "daemon is draining; request refused",
            ));
            return;
        }
        let deadline = c
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let qlen = inner.queue_len.load(Ordering::SeqCst);
        let queue_depth = inner.cfg.queue_depth.max(1);
        // Fast-fail when the deadline is unmeetable at enqueue: even if
        // every queued request takes only the EWMA service time, this one
        // would start too late.
        if let (Some(ms), ewma) = (c.deadline_ms, inner.ewma_ns.load(Ordering::SeqCst)) {
            if ewma > 0 {
                let workers = inner.cfg.workers.max(1) as u64;
                let predicted_wait_ns = (qlen as u64 + 1).saturating_mul(ewma) / workers;
                if predicted_wait_ns > ms.saturating_mul(1_000_000) {
                    inner.counters.overloaded.fetch_add(1, Ordering::SeqCst);
                    let _ = reply.send(error_response(
                        Some(id),
                        CODE_OVERLOADED,
                        "overloaded",
                        &format!(
                            "deadline {ms}ms unmeetable: predicted queue wait {}ms",
                            predicted_wait_ns / 1_000_000
                        ),
                    ));
                    return;
                }
            }
        }
        // Load shedding: past half occupancy the request is still
        // admitted but enters the ladder below the quadratic rung(s).
        let shed_rungs = match qlen * 4 / queue_depth {
            0..=1 => 0,
            2 => 1,
            _ => 3,
        };
        let job = Job {
            id,
            req: c,
            reply: reply.clone(),
            deadline,
            shed_rungs,
        };
        let sender = locked(&self.tx).clone();
        let Some(sender) = sender else {
            inner
                .counters
                .dropped_draining
                .fetch_add(1, Ordering::SeqCst);
            let _ = reply.send(error_response(
                Some(id),
                CODE_OVERLOADED,
                "draining",
                "daemon is draining; request refused",
            ));
            return;
        };
        // Count the slot before the send: once try_send succeeds a worker
        // may dequeue (and decrement) immediately, so incrementing after
        // the fact would race into an underflow.
        inner.queue_len.fetch_add(1, Ordering::SeqCst);
        match sender.try_send(job) {
            Ok(()) => {
                inner.counters.accepted.fetch_add(1, Ordering::SeqCst);
                if shed_rungs > 0 {
                    inner.counters.shed.fetch_add(1, Ordering::SeqCst);
                    inner.flight.counter("pscd.shed", 1);
                }
            }
            Err(TrySendError::Full(job)) | Err(TrySendError::Disconnected(job)) => {
                inner.queue_len.fetch_sub(1, Ordering::SeqCst);
                inner.counters.overloaded.fetch_add(1, Ordering::SeqCst);
                let _ = job.reply.send(error_response(
                    Some(job.id),
                    CODE_OVERLOADED,
                    "overloaded",
                    "admission queue full",
                ));
            }
        }
    }

    /// Stops admitting compile work. Idempotent. Queued and in-flight
    /// requests still finish and get their responses.
    pub fn begin_drain(&self) {
        if !self.inner.draining.swap(true, Ordering::SeqCst) {
            self.inner.flight.event("pscd.drain", "drain started");
        }
    }

    /// Whether a `shutdown` op asked the daemon to exit.
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Drains and joins the worker pool: queued work finishes, each
    /// queued request gets its one response, then workers exit. Returns
    /// the final counters and the flight-recorder dump. Idempotent —
    /// later calls return the same final stats with an empty dump.
    pub fn shutdown_and_join(&self) -> DrainReport {
        self.begin_drain();
        // Dropping the sender lets workers observe queue exhaustion.
        *locked(&self.tx) = None;
        let handles: Vec<JoinHandle<()>> = locked(&self.workers).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        let stats = self.stats();
        self.inner.flight.event(
            "pscd.drain",
            &format!(
                "drain complete: {} completed, {} failed, {} dropped",
                stats.completed, stats.failed, stats.dropped_draining
            ),
        );
        DrainReport {
            stats,
            flight_dump: self.inner.flight.dump_json("shutdown"),
        }
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.inner.counters;
        let cache = locked(&self.inner.cache);
        ServiceStats {
            accepted: c.accepted.load(Ordering::SeqCst),
            completed: c.completed.load(Ordering::SeqCst),
            failed: c.failed.load(Ordering::SeqCst),
            overloaded: c.overloaded.load(Ordering::SeqCst),
            shed: c.shed.load(Ordering::SeqCst),
            retries: c.retries.load(Ordering::SeqCst),
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_evictions: cache.evictions(),
            dropped_draining: c.dropped_draining.load(Ordering::SeqCst),
            flight_dropped: self.inner.flight.dropped(),
        }
    }

    fn stats_body(&self) -> String {
        let s = self.stats();
        let inner = &self.inner;
        Writer::compact()
            .object(Layout::Line, |w| {
                w.key("accepted").num(s.accepted);
                w.key("completed").num(s.completed);
                w.key("failed").num(s.failed);
                w.key("overloaded").num(s.overloaded);
                w.key("shed").num(s.shed);
                w.key("retries").num(s.retries);
                w.key("cache_hits").num(s.cache_hits);
                w.key("cache_misses").num(s.cache_misses);
                w.key("cache_evictions").num(s.cache_evictions);
                w.key("dropped_draining").num(s.dropped_draining);
                w.key("flight_dropped").num(s.flight_dropped);
                w.key("queue_depth")
                    .num(inner.queue_len.load(Ordering::SeqCst));
                w.key("ewma_ns").num(inner.ewma_ns.load(Ordering::SeqCst));
                w.key("workers").num(inner.cfg.workers.max(1));
                w.key("draining")
                    .bool(inner.draining.load(Ordering::SeqCst));
            })
            .finish()
    }
}

/// A body holding the one flag `key`, set: `{"pong":true}`.
fn flag_body(key: &str) -> String {
    Writer::compact()
        .object(Layout::Line, |w| {
            w.key(key).bool(true);
        })
        .finish()
}

fn worker_loop(inner: &Inner, rx: &Mutex<Receiver<Job>>) {
    let mut session = parsched::regalloc::AllocSession::new();
    loop {
        // Hold the receiver lock only for the recv itself.
        let job = match locked(rx).recv() {
            Ok(j) => j,
            Err(_) => return, // sender dropped and queue empty: drain done
        };
        inner.queue_len.fetch_sub(1, Ordering::SeqCst);
        let started = Instant::now();
        let response = process_job(inner, &mut session, &job);
        let service_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        // EWMA with α = 1/8; the first sample seeds it directly.
        let prev = inner.ewma_ns.load(Ordering::SeqCst);
        let next = if prev == 0 {
            service_ns
        } else {
            prev - prev / 8 + service_ns / 8
        };
        inner.ewma_ns.store(next, Ordering::SeqCst);
        let _ = job.reply.send(response);
    }
}

/// Compiles one admitted request, applying the retry policy. Always
/// returns exactly one response line.
fn process_job(inner: &Inner, session: &mut parsched::regalloc::AllocSession, job: &Job) -> String {
    let c = &job.req;
    let Some(machine) = presets::by_name(&c.machine, c.regs) else {
        return error_response(
            Some(job.id),
            CODE_PROTO,
            "proto",
            &format!("unknown machine `{}`", c.machine),
        );
    };
    let Some(strategy) = parse_strategy(&c.strategy) else {
        return error_response(
            Some(job.id),
            CODE_PROTO,
            "proto",
            &format!("unknown strategy `{}`", c.strategy),
        );
    };

    // Cache lookup. The digest ignores the deadline on purpose: the
    // deadline changes *whether* a result arrives in time, never which
    // bytes are correct for the input.
    let dig = digest(&c.src, &c.machine, c.regs, &c.strategy);
    let key = compose_key(&c.src, &c.machine, c.regs, &c.strategy);
    if let Some(body) = locked(&inner.cache).get(dig, &key) {
        inner.flight.counter("pscd.cache_hit", 1);
        inner.counters.completed.fetch_add(1, Ordering::SeqCst);
        return ok_response(job.id, true, &body);
    }

    let funcs = match parse_module(&c.src) {
        Ok(f) => f,
        Err(e) => {
            inner.counters.failed.fetch_add(1, Ordering::SeqCst);
            return error_response(Some(job.id), 3, "parse", &e.to_string());
        }
    };
    if funcs.is_empty() {
        inner.counters.failed.fetch_add(1, Ordering::SeqCst);
        return error_response(Some(job.id), 3, "parse", "module contains no functions");
    }

    let mut attempt_shed = job.shed_rungs;
    let mut retried = false;
    loop {
        let outcome = compile_module_once(
            inner,
            session,
            &machine,
            strategy,
            attempt_shed,
            job.deadline,
            &funcs,
        );
        match outcome {
            Ok(body) => {
                let (cacheable, body_text) = body;
                if cacheable && !retried && job.shed_rungs == 0 {
                    locked(&inner.cache).insert(dig, key, body_text.clone());
                }
                inner.counters.completed.fetch_add(1, Ordering::SeqCst);
                return ok_response(job.id, false, &body_text);
            }
            Err(err) => {
                let deadline_passed = job.deadline.is_some_and(|d| Instant::now() >= d);
                let retryable = match err.class.as_str() {
                    "panic" => true,
                    "budget" => !deadline_passed,
                    _ => false,
                };
                if retryable && !retried {
                    retried = true;
                    inner.counters.retries.fetch_add(1, Ordering::SeqCst);
                    inner.flight.event("pscd.retry", &err.class);
                    // Lower rung for the second attempt, with a small
                    // jittered backoff so a herd of poisoned requests
                    // does not retry in lockstep.
                    attempt_shed = (attempt_shed + 2).min(4);
                    let jitter_ms = splitmix64(job.id ^ 0xdead_beef) % 4;
                    std::thread::sleep(Duration::from_millis(jitter_ms));
                    continue;
                }
                inner.counters.failed.fetch_add(1, Ordering::SeqCst);
                inner.flight.counter("pscd.failed", 1);
                return error_response(Some(job.id), err.code, &err.class, &err.message);
            }
        }
    }
}

struct CompileFailure {
    code: i32,
    class: String,
    message: String,
}

/// One full compile attempt over every function of the module. Returns
/// the serialized response body plus whether it is cacheable (no
/// degradation anywhere — shed or degraded output must never be pinned).
fn compile_module_once(
    inner: &Inner,
    session: &mut parsched::regalloc::AllocSession,
    machine: &MachineDesc,
    strategy: Strategy,
    shed_rungs: usize,
    deadline: Option<Instant>,
    funcs: &[parsched_ir::Function],
) -> Result<(bool, String), CompileFailure> {
    let mut budget = Budget::unlimited();
    if let Some(cap) = inner.cfg.max_block_insts {
        budget = budget.with_max_block_insts(cap);
    }
    if let Some(d) = deadline {
        budget = budget.with_deadline(d);
    }
    let driver = Driver::new(Pipeline::new(machine.clone()))
        .with_budget(budget)
        .with_ladder(ladder_for(strategy, shed_rungs));

    let mut compiled = Vec::with_capacity(funcs.len());
    let mut worst = parsched::DegradationLevel::None;
    let mut stats = parsched::CompileStats::default();
    for func in funcs {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            driver.compile_resilient_in(session, func, &inner.flight)
        }));
        let result = match attempt {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => {
                return Err(CompileFailure {
                    code: e.exit_code(),
                    class: e.class().to_string(),
                    message: e.to_string(),
                })
            }
            Err(_) => {
                // The driver catches rung panics itself; this outer net
                // only trips on panics outside the rungs (print, stats).
                return Err(CompileFailure {
                    code: 9,
                    class: "panic".to_string(),
                    message: format!("worker panicked compiling `{}`", func.name()),
                });
            }
        };
        worst = worst.max(result.degradation);
        stats.registers_used = stats.registers_used.max(result.stats.registers_used);
        stats.spilled_values += result.stats.spilled_values;
        stats.inserted_mem_ops += result.stats.inserted_mem_ops;
        stats.cycles += result.stats.cycles;
        stats.inst_count += result.stats.inst_count;
        compiled.push(result.function);
    }
    let body = Writer::compact()
        .object(Layout::Line, |w| {
            w.key("func").str(&print_module(&compiled));
            w.key("degradation").str(worst.label());
            w.key("registers_used").num(stats.registers_used);
            w.key("spilled_values").num(stats.spilled_values);
            w.key("inserted_mem_ops").num(stats.inserted_mem_ops);
            w.key("cycles").num(stats.cycles);
            w.key("inst_count").num(stats.inst_count);
        })
        .finish();
    Ok((worst == parsched::DegradationLevel::None, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_telemetry::escape_json;
    use std::sync::mpsc::channel;

    fn compile_line(id: u64, src: &str) -> String {
        format!(
            "{{\"id\":{id},\"op\":\"compile\",\"src\":\"{}\"}}",
            escape_json(src)
        )
    }

    const SRC: &str =
        "func @f(s0) {\nentry:\n    s1 = load [s0 + 0]\n    s2 = add s1, 1\n    ret s2\n}";

    fn recv_one(rx: &std::sync::mpsc::Receiver<String>) -> String {
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(s) => s,
            Err(e) => unreachable!("response must arrive: {e}"),
        }
    }

    #[test]
    fn compile_roundtrip_and_cache_byte_identity() {
        let svc = Service::start(ServiceConfig::default());
        let (tx, rx) = channel();
        svc.handle_line(&compile_line(1, SRC), &tx);
        let cold = recv_one(&rx);
        assert!(
            cold.starts_with("{\"id\":1,\"code\":0,\"cached\":false,"),
            "{cold}"
        );
        svc.handle_line(&compile_line(2, SRC), &tx);
        let hot = recv_one(&rx);
        assert!(
            hot.starts_with("{\"id\":2,\"code\":0,\"cached\":true,"),
            "{hot}"
        );
        // Byte identity of the body between hot and cold paths.
        let cold_body = cold.split_once(",\"body\":").map(|(_, b)| b);
        let hot_body = hot.split_once(",\"body\":").map(|(_, b)| b);
        assert!(cold_body.is_some());
        assert_eq!(cold_body, hot_body);
        let stats = svc.stats();
        assert_eq!((stats.cache_hits, stats.completed), (1, 2));
        svc.shutdown_and_join();
    }

    #[test]
    fn ping_stats_and_proto_errors() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let (tx, rx) = channel();
        svc.handle_line("{\"id\":1,\"op\":\"ping\"}", &tx);
        assert!(recv_one(&rx).contains("\"pong\":true"));
        svc.handle_line("{\"id\":2,\"op\":\"stats\"}", &tx);
        assert!(recv_one(&rx).contains("\"accepted\":"));
        svc.handle_line("this is not json", &tx);
        assert!(recv_one(&rx).contains("\"code\":2"));
        svc.handle_line(
            "{\"id\":3,\"op\":\"compile\",\"src\":\"x\",\"machine\":\"vax\"}",
            &tx,
        );
        let r = recv_one(&rx);
        assert!(r.contains("\"code\":2") && r.contains("vax"), "{r}");
        // `exact` is a psc strategy but not a daemon rung.
        svc.handle_line(
            "{\"id\":4,\"op\":\"compile\",\"src\":\"x\",\"strategy\":\"exact\"}",
            &tx,
        );
        let r = recv_one(&rx);
        assert!(r.contains("\"code\":2") && r.contains("exact"), "{r}");
        svc.shutdown_and_join();
    }

    #[test]
    fn drain_refuses_new_work_but_answers_honestly() {
        let svc = Service::start(ServiceConfig::default());
        let (tx, rx) = channel();
        svc.handle_line("{\"id\":9,\"op\":\"shutdown\"}", &tx);
        assert!(recv_one(&rx).contains("\"draining\":true"));
        assert!(svc.shutdown_requested());
        svc.handle_line(&compile_line(10, SRC), &tx);
        let refused = recv_one(&rx);
        assert!(
            refused.contains("\"code\":13") && refused.contains("draining"),
            "{refused}"
        );
        let report = svc.shutdown_and_join();
        assert_eq!(report.stats.dropped_draining, 1);
        assert!(report.flight_dump.contains("drain"));
    }

    #[test]
    fn ladder_for_front_loads_and_sheds() {
        let full = ladder_for(Strategy::combined(), 0);
        assert_eq!(full.len(), 5);
        assert_eq!(full[0].label(), "combined");
        let shed = ladder_for(Strategy::combined(), 3);
        assert_eq!(shed[0].label(), "linear-scan");
        // Shedding can never drop the floor.
        let floor = ladder_for(Strategy::combined(), 99);
        assert_eq!(floor.len(), 1);
        assert_eq!(floor[0].label(), "spill-everything");
        // A non-default preference is front-loaded, not duplicated.
        let pref = ladder_for(Strategy::LinearScanThenSched, 0);
        assert_eq!(pref[0].label(), "linear-scan");
        assert_eq!(pref.len(), 5);
    }

    #[test]
    fn parse_error_is_a_typed_failure() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let (tx, rx) = channel();
        svc.handle_line(&compile_line(4, "func @broken( {"), &tx);
        let r = recv_one(&rx);
        assert!(
            r.contains("\"code\":3") && r.contains("\"class\":\"parse\""),
            "{r}"
        );
        assert_eq!(svc.stats().failed, 1);
        svc.shutdown_and_join();
    }
}
