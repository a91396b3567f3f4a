//! `parsched-loadgen` — a chaos-injecting load generator for `pscd`.
//!
//! Connects to a running daemon's Unix socket, replays a seeded compile
//! workload at a target request rate, and audits the responses against
//! the daemon's contracts: every request answered exactly once, cache
//! hits byte-identical to their cold twins, refusals typed as
//! `overloaded`/`budget` rather than hangs or crashes. With `--chaos` it
//! also injects malformed JSON lines, oversized (> 1 MiB) lines,
//! deadline storms, and a mid-stream disconnect on a second connection.
//!
//! Emits a `parsched-loadgen/1` JSON report on stdout and exits nonzero
//! when the daemon crashed, left an accepted request unanswered, or
//! served a cache hit whose bytes differ from the cold response. CI runs
//! `parsched-loadgen --chaos --seed 0` as a gate; see `docs/SERVICE.md`.

use parsched::ir::print_function;
use parsched::telemetry::json::{parse, Layout, Value, Writer};
use parsched_pscd::proto::{ok_response, CODE_OK, CODE_OVERLOADED, CODE_PROTO, MAX_LINE_BYTES};
use parsched_workload::{
    random_cfg_function, random_dag_function, CfgParams, DagParams, SplitMix64,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: parsched-loadgen --socket PATH [options]
  --socket PATH   pscd Unix socket to connect to (required)
  --requests N    compile requests to send (default 500)
  --rps R         target request rate (default 200)
  --seed S        workload seed (default 0)
  --chaos         inject malformed/oversized lines, deadline storms,
                  and a mid-stream disconnect
  --branchy       mix branchy/loopy CFG functions into the corpus so the
                  daemon's global (web-based) allocation path is exercised
  --shutdown      send a shutdown op after the run and expect a drain";

struct Options {
    socket: String,
    requests: u64,
    rps: f64,
    seed: u64,
    chaos: bool,
    branchy: bool,
    shutdown: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        socket: String::new(),
        requests: 500,
        rps: 200.0,
        seed: 0,
        chaos: false,
        branchy: false,
        shutdown: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => opts.socket = args.next().ok_or("--socket needs a path")?,
            "--requests" => {
                let v = args.next().ok_or("--requests needs a count")?;
                opts.requests = v.parse().map_err(|_| format!("bad --requests `{v}`"))?;
            }
            "--rps" => {
                let v = args.next().ok_or("--rps needs a rate")?;
                opts.rps = v.parse().map_err(|_| format!("bad --rps `{v}`"))?;
                if opts.rps.is_nan() || opts.rps <= 0.0 {
                    return Err(format!("--rps must be positive, got `{v}`"));
                }
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--chaos" => opts.chaos = true,
            "--branchy" => opts.branchy = true,
            "--shutdown" => opts.shutdown = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.socket.is_empty() {
        return Err("--socket is required".to_string());
    }
    Ok(opts)
}

/// The seeded corpus: a handful of random functions as `.psc` text.
/// Small enough that the run revisits each one many times, so the cache
/// byte-identity audit gets real hits. With `branchy`, half the corpus is
/// branchy/loopy CFG functions, driving the daemon through the global
/// (web-based) allocation path.
fn corpus(seed: u64, branchy: bool) -> Vec<String> {
    let params = DagParams {
        size: 36,
        load_fraction: 0.25,
        float_fraction: 0.4,
        window: 6,
    };
    let cfg_params = CfgParams {
        segments: 4,
        ops_per_block: 4,
    };
    (0..6u64)
        .map(|i| {
            let case_seed = seed.wrapping_mul(31).wrapping_add(i * 7 + 13);
            let f = if branchy && i % 2 == 1 {
                random_cfg_function(case_seed, &cfg_params)
            } else {
                random_dag_function(case_seed, &params)
            };
            print_function(&f)
        })
        .collect()
}

/// What the auditor remembers about one in-flight compile request.
struct Pending {
    sent_at: Instant,
    corpus_idx: usize,
}

#[derive(Default)]
struct Audit {
    answered: u64,
    ok: u64,
    cached_hits: u64,
    overloaded: u64,
    budget: u64,
    proto_errors: u64,
    other_errors: u64,
    chaos_answers: u64,
    duplicate_answers: u64,
    cache_mismatches: u64,
    latencies_ms: Vec<f64>,
    /// corpus index -> (raw body text, degradation) of the first
    /// full-quality response, for byte-identity comparison.
    first_bodies: HashMap<usize, String>,
    failures: Vec<String>,
}

/// One request line (newline included): `id`, `op`, then the
/// op-specific fields `rest` writes.
fn request_line(id: u64, op: &str, rest: impl FnOnce(&mut Writer)) -> String {
    Writer::compact()
        .object(Layout::Line, |w| {
            w.key("id").num(id);
            w.key("op").str(op);
            rest(w);
        })
        .finish()
        + "\n"
}

/// The body text of a success response, byte for byte: what follows the
/// framing [`ok_response`] writes around it. Cache hits are compared in
/// this form against their cold twins.
fn raw_body(line: &str, id: u64, cached: bool) -> Option<&str> {
    let framing = ok_response(id, cached, "");
    line.strip_prefix(framing.strip_suffix('}')?)?
        .strip_suffix('}')
}

/// The `id` of a response line, when it parses and carries one.
fn response_id(line: &str) -> Option<u64> {
    let id = parse(line).ok()?.get("id")?.as_num()?;
    Some(id as u64)
}

fn audit_response(line: &str, pending: &mut HashMap<u64, Pending>, audit: &mut Audit) {
    let Ok(doc) = parse(line) else {
        audit
            .failures
            .push(format!("daemon sent unparseable line: {line:.120}"));
        return;
    };
    let id = doc.get("id").and_then(Value::as_num).map(|n| n as u64);
    let code = doc.get("code").and_then(Value::as_num).map(|n| n as i32);
    let Some(id) = id else {
        // Chaos lines carry no recoverable id; the daemon answers them
        // with id null and a proto error code.
        audit.chaos_answers += 1;
        if code != Some(CODE_PROTO) {
            audit
                .failures
                .push(format!("id-less response without proto code: {line:.120}"));
        }
        return;
    };
    let Some(p) = pending.remove(&id) else {
        audit.duplicate_answers += 1;
        audit
            .failures
            .push(format!("unknown or duplicate response id {id}"));
        return;
    };
    audit.answered += 1;
    audit
        .latencies_ms
        .push(p.sent_at.elapsed().as_secs_f64() * 1e3);
    match code {
        Some(CODE_OK) => {
            audit.ok += 1;
            let cached = doc.get("cached") == Some(&Value::Bool(true));
            if cached {
                audit.cached_hits += 1;
            }
            let degradation = doc
                .get("body")
                .and_then(|b| b.get("degradation"))
                .and_then(Value::as_str)
                .unwrap_or("?");
            // Only full-quality results are cached, so only they must be
            // byte-stable across the run.
            if degradation == "none" {
                if let Some(body) = raw_body(line, id, cached) {
                    let prev = audit
                        .first_bodies
                        .entry(p.corpus_idx)
                        .or_insert_with(|| body.to_string());
                    if prev != body {
                        audit.cache_mismatches += 1;
                        audit.failures.push(format!(
                            "cache byte mismatch on corpus entry {} (cached={cached})",
                            p.corpus_idx
                        ));
                    }
                }
            }
        }
        Some(CODE_OVERLOADED) => audit.overloaded += 1,
        Some(8) => audit.budget += 1,
        Some(CODE_PROTO) => audit.proto_errors += 1,
        Some(c) if (3..=12).contains(&c) => audit.other_errors += 1,
        _ => audit
            .failures
            .push(format!("response with invalid code: {line:.120}")),
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Opens a second connection, writes half a request, then drops the
/// stream mid-line. The daemon must shrug this off without disturbing
/// the primary connection.
fn chaos_disconnect(socket: &str) {
    if let Ok(mut s) = UnixStream::connect(socket) {
        let _ = s.write_all(b"{\"id\": 999999, \"op\": \"comp");
        let _ = s.flush();
        // Dropped here: mid-line EOF on the daemon side.
    }
}

fn drain_ready(rx: &Receiver<String>, pending: &mut HashMap<u64, Pending>, audit: &mut Audit) {
    loop {
        match rx.try_recv() {
            Ok(line) => audit_response(&line, pending, audit),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => return,
        }
    }
}

fn run(opts: &Options) -> Result<Audit, String> {
    let stream =
        UnixStream::connect(&opts.socket).map_err(|e| format!("connect {}: {e}", opts.socket))?;
    let read_half = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let (resp_tx, resp_rx) = channel::<String>();
    let reader = std::thread::spawn(move || {
        let r = BufReader::new(read_half);
        for line in r.lines() {
            let Ok(line) = line else { return };
            if resp_tx.send(line).is_err() {
                return;
            }
        }
    });

    let mut writer = stream;
    let sources = corpus(opts.seed, opts.branchy);
    let mut rng = SplitMix64::seed_from_u64(opts.seed.wrapping_add(0x5eed));
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut audit = Audit::default();
    let mut chaos_lines_sent = 0u64;
    let interval = Duration::from_secs_f64(1.0 / opts.rps);
    let started = Instant::now();

    for i in 0..opts.requests {
        if opts.chaos {
            if i % 31 == 17 {
                // Malformed JSON: answered with a proto error, id null.
                writer
                    .write_all(b"{\"id\": oops, \"op\": [}\n")
                    .map_err(|e| format!("write: {e}"))?;
                chaos_lines_sent += 1;
            }
            if i % 101 == 53 {
                // Oversized line: one byte past the cap, drained and
                // refused without ballooning daemon memory.
                let mut big = vec![b'x'; MAX_LINE_BYTES + 1];
                big.push(b'\n');
                writer.write_all(&big).map_err(|e| format!("write: {e}"))?;
                chaos_lines_sent += 1;
            }
            if i == opts.requests / 2 {
                chaos_disconnect(&opts.socket);
            }
        }
        let id = i + 1;
        let corpus_idx = (rng.next_u64() as usize) % sources.len();
        // Deadline storms: with chaos on, every ~97 requests a burst of
        // ten 1ms deadlines forces admission fast-fails and budget trips.
        let deadline_ms = if opts.chaos && i % 97 < 10 { 1 } else { 10_000 };
        let line = request_line(id, "compile", |w| {
            w.key("src").str(&sources[corpus_idx]);
            w.key("machine").str("paper");
            w.key("regs").num(16);
            w.key("strategy").str("combined");
            w.key("deadline_ms").num(deadline_ms);
        });
        pending.insert(
            id,
            Pending {
                sent_at: Instant::now(),
                corpus_idx,
            },
        );
        writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("write (daemon gone?): {e}"))?;
        drain_ready(&resp_rx, &mut pending, &mut audit);
        std::thread::sleep(interval);
    }

    // Collect the stragglers: every accepted request must be answered.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !pending.is_empty() && Instant::now() < deadline {
        match resp_rx.recv_timeout(Duration::from_millis(100)) {
            Ok(line) => audit_response(&line, &mut pending, &mut audit),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    if !pending.is_empty() {
        audit.failures.push(format!(
            "{} requests never answered (daemon crash or dropped work)",
            pending.len()
        ));
    }

    // Pull the daemon's own books into the report.
    let stats_id = opts.requests + 1;
    writer
        .write_all(request_line(stats_id, "stats", |_| {}).as_bytes())
        .map_err(|e| format!("stats write: {e}"))?;
    let mut daemon_stats = String::from("null");
    let stats_deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < stats_deadline {
        match resp_rx.recv_timeout(Duration::from_millis(100)) {
            Ok(line) if response_id(&line) == Some(stats_id) => {
                daemon_stats = raw_body(&line, stats_id, false)
                    .unwrap_or("null")
                    .to_string();
                break;
            }
            Ok(line) => audit_response(&line, &mut pending, &mut audit),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                audit
                    .failures
                    .push("daemon hung up before stats".to_string());
                break;
            }
        }
    }
    if daemon_stats == "null" && audit.failures.is_empty() {
        audit.failures.push("stats op unanswered".to_string());
    }

    if opts.shutdown {
        let shut_id = opts.requests + 2;
        writer
            .write_all(request_line(shut_id, "shutdown", |_| {}).as_bytes())
            .map_err(|e| format!("shutdown write: {e}"))?;
        // The daemon acknowledges the drain, then closes the stream.
        let ack_deadline = Instant::now() + Duration::from_secs(10);
        let mut acked = false;
        while Instant::now() < ack_deadline {
            match resp_rx.recv_timeout(Duration::from_millis(100)) {
                Ok(line) if line.contains("draining") => {
                    acked = true;
                    break;
                }
                Ok(line) => audit_response(&line, &mut pending, &mut audit),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        if !acked {
            audit
                .failures
                .push("shutdown op unacknowledged".to_string());
        }
    }

    // The reader thread holds a clone of this socket, so dropping the
    // writer alone would leave the connection open and the join blocked;
    // shutting both directions ends the reader's `lines()`.
    let _ = writer.shutdown(Shutdown::Both);
    drop(writer);
    let _ = reader.join();

    audit.latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let report = Writer::compact()
        .object(Layout::Line, |w| {
            w.key("schema").str("parsched-loadgen/1");
            w.key("seed").num(opts.seed);
            w.key("requests").num(opts.requests);
            w.key("chaos").bool(opts.chaos);
            w.key("answered").num(audit.answered);
            w.key("ok").num(audit.ok);
            w.key("cached_hits").num(audit.cached_hits);
            w.key("overloaded").num(audit.overloaded);
            w.key("budget").num(audit.budget);
            w.key("proto_errors").num(audit.proto_errors);
            w.key("other_errors").num(audit.other_errors);
            w.key("chaos_lines_sent").num(chaos_lines_sent);
            w.key("chaos_answers").num(audit.chaos_answers);
            w.key("duplicate_answers").num(audit.duplicate_answers);
            w.key("cache_mismatches").num(audit.cache_mismatches);
            w.key("p50_ms")
                .num(format_args!("{:.3}", percentile(&audit.latencies_ms, 0.5)));
            w.key("p99_ms")
                .num(format_args!("{:.3}", percentile(&audit.latencies_ms, 0.99)));
            w.key("wall_ms").num(format_args!("{wall_ms:.1}"));
            w.key("daemon_stats").raw(&daemon_stats);
            w.key("failures").array(Layout::Line, |w| {
                for f in &audit.failures {
                    w.str(f);
                }
            });
        })
        .finish();
    println!("{report}");
    Ok(audit)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            eprintln!("parsched-loadgen: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(audit) if audit.failures.is_empty() => {
            eprintln!(
                "parsched-loadgen: ok — {} answered, {} ok, {} cached, {} refused",
                audit.answered,
                audit.ok,
                audit.cached_hits,
                audit.overloaded + audit.budget
            );
        }
        Ok(audit) => {
            for f in &audit.failures {
                eprintln!("parsched-loadgen: FAIL {f}");
            }
            std::process::exit(1);
        }
        Err(msg) => {
            eprintln!("parsched-loadgen: {msg}");
            std::process::exit(1);
        }
    }
}
