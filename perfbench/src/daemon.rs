//! An in-process `pscd` service driven open loop, for the traced run's
//! `pscd.*` layer metrics.
//!
//! Requests are sent on a fixed schedule (one every `1 / RATE_PER_S`
//! seconds) regardless of how the service keeps up, and each request's
//! latency is measured from when it was *due*, so a stall is charged to
//! every request it delays. The generator and the response collector
//! share the main thread; the service runs one worker.

use crate::common::{Oracle, Report};
use crate::gen::{self, DagShape, Rng};
use crate::stats::tail;
use parsched::ir::{parse_module, print_module, Function};
use parsched::machine::presets::paper_machine;
use parsched::regalloc::AllocSession;
use parsched::telemetry::{escape_json, json, NullTelemetry};
use parsched::{Budget, CompileStats, Driver, Pipeline};
use parsched_pscd::{Service, ServiceConfig, ServiceStats};
use std::collections::HashMap;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The open-loop rate: about a quarter of what one worker sustains on
/// this request mix on a 2-core x86-64 host (see METRICS.md).
pub const RATE_PER_S: f64 = 200.0;
/// Every request's `deadline_ms`, which is also the latency limit.
pub const DEADLINE_MS: u64 = 1000;
/// Share of requests that repeat a recent source (cache hits or, once
/// evicted, re-inserts).
const REPEAT_SHARE: f64 = 0.3;
/// Repeats are drawn from this many most recent distinct sources; the
/// cache holds fewer, so some repeats miss and evictions run.
const REPEAT_WINDOW: usize = 96;
pub const CACHE_CAPACITY: usize = 64;
/// Deep enough that load shedding never starts at the fixed rate, even
/// behind a host stall of a few hundred milliseconds.
const QUEUE_DEPTH: usize = 2048;
/// A window whose generator ever ran later than this fell behind its
/// schedule (the host stalled the process) and is discarded, not measured.
const GEN_LATE_LIMIT_MS: f64 = 50.0;
const MAX_WINDOWS: usize = 3;

/// The machine preset every request names (with its own `regs`).
pub const MACHINE: &str = "paper";

/// One distinct request source.
pub struct Source {
    pub text: String,
    pub regs: u32,
    pub funcs: Vec<Function>,
}

/// The seeded request stream: distinct sources and, per request, the
/// source it sends and its NDJSON line.
pub struct Stream {
    pub sources: Vec<Source>,
    pub requests: Vec<(usize, String)>,
}

/// The `id`-th distinct source. Kinds and shapes follow a fixed schedule
/// (four kernels, four 36-instruction DAGs, two branchy CFG functions in
/// every ten); the seed draws operations and operands.
fn new_source(rng: &mut Rng, id: usize) -> Source {
    let (text, regs) = match id % 10 {
        0..=3 => (
            gen::kernel(id / 10 * 4 + id % 10, &format!("k{id}")),
            6 + 2 * (id / 10 % 2) as u32,
        ),
        4..=7 => {
            let shape = DagShape {
                size: 36,
                window: 4 + (id / 10 * 4 + id % 10) % 13,
                load_frac: 0.25,
                float_frac: 0.4,
            };
            (
                gen::dag(rng, &format!("d{id}"), &shape),
                8 + 4 * (id / 10 % 2) as u32,
            )
        }
        _ => (gen::cfg(rng, &format!("c{id}"), 3 + id / 10 % 4, 4), 8),
    };
    Source {
        funcs: parse_module(&text).expect("generated sources parse"),
        text,
        regs,
    }
}

pub fn request_line(id: usize, s: &Source) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"compile\",\"src\":\"{}\",\"machine\":\"{}\",\"regs\":{},\
         \"strategy\":\"combined\",\"deadline_ms\":{DEADLINE_MS}}}",
        escape_json(&s.text),
        MACHINE,
        s.regs
    )
}

pub fn stream(seed: u64, n: usize) -> Stream {
    let mut rng = Rng::new(seed ^ 0x00d4_e111);
    let mut sources: Vec<Source> = Vec::new();
    let mut requests = Vec::with_capacity(n);
    for i in 0..n {
        let src = if !sources.is_empty() && rng.chance(REPEAT_SHARE) {
            let lo = sources.len().saturating_sub(REPEAT_WINDOW);
            rng.range(lo, sources.len())
        } else {
            sources.push(new_source(&mut rng, sources.len()));
            sources.len() - 1
        };
        requests.push((src, request_line(i, &sources[src])));
    }
    Stream { sources, requests }
}

pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_depth: QUEUE_DEPTH,
        cache_capacity: CACHE_CAPACITY,
        ..ServiceConfig::default()
    }
}

/// Starts a service and warms it with one compile whose source is not in
/// the stream (so the cache starts cold for the stream).
pub fn start_service() -> Arc<Service> {
    let svc = Service::start(service_config());
    let (tx, rx) = channel();
    let warm = Source {
        text: "func @warm(s0, s1) {\nentry:\n    s2 = add s0, s1\n    ret s2\n}\n".into(),
        regs: 8,
        funcs: Vec::new(),
    };
    svc.handle_line(&request_line(usize::MAX >> 12, &warm), &tx);
    let _ = rx.recv_timeout(Duration::from_secs(10));
    svc
}

/// What one open-loop window observed.
pub struct Window {
    /// Per request: the response lines received for it (exactly one when
    /// healthy).
    pub responses: Vec<Vec<String>>,
    /// Per request: when the first response arrived, after its due time.
    pub latency_ms: Vec<Option<f64>>,
    pub admit_us: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub stats: ServiceStats,
}

fn response_id(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Sends `requests` open loop at `rate` and collects every response.
pub fn window(svc: &Service, requests: &[(usize, String)], rate: f64) -> Window {
    let n = requests.len();
    let (tx, rx) = channel::<String>();
    let mut w = Window {
        responses: vec![Vec::new(); n],
        latency_ms: vec![None; n],
        admit_us: Vec::with_capacity(n),
        late_ms: Vec::with_capacity(n),
        stats: ServiceStats::default(),
    };
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    let record = |w: &mut Window, line: String, at: Instant| {
        if let Some(id) = response_id(&line).filter(|&id| id < n) {
            if w.latency_ms[id].is_none() {
                w.latency_ms[id] = Some(at.saturating_duration_since(due(id)).as_secs_f64() * 1e3);
            }
            w.responses[id].push(line);
        }
    };
    for (i, (_, line)) in requests.iter().enumerate() {
        let due_i = due(i);
        loop {
            let now = Instant::now();
            if now >= due_i {
                break;
            }
            match rx.recv_timeout(due_i - now) {
                Ok(resp) => record(&mut w, resp, Instant::now()),
                Err(_) => break,
            }
        }
        let sent = Instant::now();
        w.late_ms
            .push(sent.saturating_duration_since(due_i).as_secs_f64() * 1e3);
        svc.handle_line(line, &tx);
        w.admit_us.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    // Collect the stragglers; every request must be answered.
    let give_up = Instant::now() + Duration::from_secs(30);
    let mut answered = w.responses.iter().filter(|r| !r.is_empty()).count();
    while answered < n {
        let Some(left) = give_up.checked_duration_since(Instant::now()) else {
            break;
        };
        let Ok(resp) = rx.recv_timeout(left) else {
            break;
        };
        if response_id(&resp).is_some_and(|id| id < n && w.responses[id].is_empty()) {
            answered += 1;
        }
        record(&mut w, resp, Instant::now());
    }
    // Anything already queued behind the last answer is a duplicate.
    while let Ok(resp) = rx.try_recv() {
        record(&mut w, resp, Instant::now());
    }
    w.stats = svc.stats();
    w
}

/// A source compiled in process exactly as the service compiles it (same
/// ladder and block cap, no deadline): its printed module, stats and time.
pub struct Standalone {
    pub text: String,
    pub stats: Vec<CompileStats>,
    pub ns: u64,
    pub ok: bool,
}

pub fn compile_standalone(s: &Source, session: &mut AllocSession) -> Standalone {
    let t0 = Instant::now();
    let funcs = parse_module(&s.text).unwrap_or_default();
    let budget = Budget::unlimited().with_max_block_insts(
        ServiceConfig::default()
            .max_block_insts
            .unwrap_or(usize::MAX),
    );
    let driver = Driver::new(Pipeline::new(paper_machine(s.regs))).with_budget(budget);
    let mut out = Vec::new();
    let mut stats = Vec::new();
    let mut ok = true;
    for f in &funcs {
        match driver.compile_resilient_in(session, f, &NullTelemetry) {
            Ok(r) if r.degradation == parsched::DegradationLevel::None => {
                stats.push(r.stats);
                out.push(r.function);
            }
            _ => ok = false,
        }
    }
    let text = print_module(&out);
    Standalone {
        text,
        stats,
        ns: t0.elapsed().as_nanos() as u64,
        ok,
    }
}

/// Response fields the checks need.
struct Parsed {
    code: i64,
    cached: bool,
    body: Option<String>,
    func: Option<String>,
    totals: [u64; 3],
}

fn parse_response(line: &str) -> Parsed {
    let doc = json::parse(line).ok();
    let num =
        |v: Option<&json::Value>, k: &str| v.and_then(|d| d.get(k)).and_then(json::Value::as_num);
    let body_doc = doc.as_ref().and_then(|d| d.get("body"));
    Parsed {
        code: num(doc.as_ref(), "code").map_or(-1, |c| c as i64),
        cached: doc.as_ref().and_then(|d| d.get("cached")) == Some(&json::Value::Bool(true)),
        body: line
            .split_once(",\"body\":")
            .map(|(_, b)| b.strip_suffix('}').unwrap_or(b).to_string()),
        func: body_doc
            .and_then(|b| b.get("func"))
            .and_then(json::Value::as_str)
            .map(str::to_string),
        totals: [
            num(body_doc, "cycles").unwrap_or(-1.0) as u64,
            num(body_doc, "inst_count").unwrap_or(-1.0) as u64,
            num(body_doc, "spilled_values").unwrap_or(-1.0) as u64,
        ],
    }
}

/// The checks of one window against the standalone compiles. Returns the
/// failed request count and, per request, whether it was a cache hit.
pub fn check_window(
    w: &Window,
    st: &Stream,
    standalone: &[Standalone],
    source_ok: &[bool],
) -> (u64, Vec<bool>) {
    let mut failed = 0;
    let mut cached = vec![false; w.responses.len()];
    let mut cold_body: HashMap<usize, String> = HashMap::new();
    for (i, resps) in w.responses.iter().enumerate() {
        let src = st.requests[i].0;
        // Exactly one answer per request.
        let [line] = resps.as_slice() else {
            failed += 1;
            continue;
        };
        let p = parse_response(line);
        cached[i] = p.cached;
        let sa = &standalone[src];
        let totals = sa.stats.iter().fold([0u64; 3], |t, s| {
            [
                t[0] + u64::from(s.cycles),
                t[1] + s.inst_count as u64,
                t[2] + s.spilled_values as u64,
            ]
        });
        let body = p.body.unwrap_or_default();
        // A cache hit must replay its cold twin's body byte for byte.
        let twin_ok = match cold_body.get(&src) {
            Some(b) => *b == body,
            None => {
                cold_body.insert(src, body);
                true
            }
        };
        let good = p.code == 0
            && twin_ok
            && source_ok[src]
            && p.func.as_deref() == Some(sa.text.as_str())
            && p.totals == totals;
        if !good {
            failed += 1;
        }
    }
    (failed, cached)
}

/// Standalone compiles of every distinct source plus the oracle verdicts.
pub fn standalone_all(st: &Stream, seed: u64) -> (Vec<Standalone>, Vec<bool>) {
    let mut session = AllocSession::new();
    let compiled: Vec<Standalone> = st
        .sources
        .iter()
        .map(|s| compile_standalone(s, &mut session))
        .collect();
    let oracle = Oracle::new(seed);
    let ok = st
        .sources
        .iter()
        .zip(&compiled)
        .map(|(s, c)| {
            c.ok && {
                let out = parse_module(&c.text).unwrap_or_default();
                out.len() == s.funcs.len()
                    && s.funcs.iter().zip(&out).all(|(a, b)| oracle.agrees(a, b))
            }
        })
        .collect();
    (compiled, ok)
}

/// Runs windows until one is valid (its generator kept to schedule),
/// each on a fresh service after the first. Returns the window and the
/// service it ran on.
pub fn valid_window_on(
    first: &Arc<Service>,
    st: &Stream,
    report: &mut Report,
) -> Result<(Window, Arc<Service>), String> {
    let mut svc = Arc::clone(first);
    for attempt in 1..=MAX_WINDOWS {
        let w = window(&svc, &st.requests, RATE_PER_S);
        let late = tail(&w.late_ms);
        let worst = w.late_ms.iter().copied().fold(0.0, f64::max);
        report.note(format!(
            "window {attempt}: gen.late_tail_ms {:.3} ({}), worst {worst:.3} ms",
            late.value,
            late.describe()
        ));
        if worst <= GEN_LATE_LIMIT_MS {
            return Ok((w, svc));
        }
        report.note(format!(
            "window {attempt} invalid: generator fell behind schedule; not measured"
        ));
        svc.shutdown_and_join();
        svc = start_service();
    }
    Err(format!(
        "no valid window in {MAX_WINDOWS} attempts: the generator kept falling behind"
    ))
}
