//! Perf-regression comparison between two sweep reports
//! (`parsched-bench --compare baseline.json new.json`).
//!
//! Points are matched by their `(workload, strategy, threads)` key. When
//! both sides compiled the same instruction count the comparison is a
//! straight median-wall-time ratio; when the corpora differ (a full
//! baseline vs. a CI smoke run) the ratio falls back to throughput
//! (`insts_per_sec`), which is scale-invariant across corpus sizes.
//!
//! The pass/fail threshold is noise-aware: each point's own iteration
//! spread — `(max − min) / median` of its `wall_ns` samples, on both
//! sides — is added to the configured threshold before a point is called
//! a regression. A point measured once (smoke runs) contributes no
//! spread, so only the configured slack protects it; that is why the CI
//! gate uses a deliberately loose 2.5× threshold.

use parsched::telemetry::json::{Layout, Value, Writer};

/// Schema tag of the machine-readable verdict document.
pub const COMPARE_SCHEMA: &str = "parsched-bench-compare/1";

/// One sweep point reduced to the fields comparison needs.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSample {
    /// Workload name.
    pub workload: String,
    /// Strategy label.
    pub strategy: String,
    /// Worker threads.
    pub threads: u64,
    /// Median batch wall time, nanoseconds.
    pub median_wall_ns: f64,
    /// Raw per-iteration wall times (may be a single sample).
    pub wall_ns: Vec<f64>,
    /// Total instructions compiled per batch run.
    pub insts: f64,
    /// Throughput at the median wall time.
    pub insts_per_sec: f64,
}

impl PointSample {
    /// Relative iteration spread `(max − min) / median`, `0` for a single
    /// sample or a degenerate median.
    pub fn spread(&self) -> f64 {
        if self.wall_ns.len() < 2 || self.median_wall_ns <= 0.0 {
            return 0.0;
        }
        let max = self.wall_ns.iter().cloned().fold(f64::MIN, f64::max);
        let min = self.wall_ns.iter().cloned().fold(f64::MAX, f64::min);
        ((max - min) / self.median_wall_ns).max(0.0)
    }
}

/// What a compared point was measured against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareMetric {
    /// Same corpus on both sides: median wall time.
    WallTime,
    /// Different corpus sizes: instructions per second.
    Throughput,
}

impl CompareMetric {
    /// Stable label used in the verdict JSON.
    pub fn label(self) -> &'static str {
        match self {
            CompareMetric::WallTime => "wall_time",
            CompareMetric::Throughput => "throughput",
        }
    }
}

/// One matched point's comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PointDelta {
    /// Workload name.
    pub workload: String,
    /// Strategy label.
    pub strategy: String,
    /// Worker threads.
    pub threads: u64,
    /// Which metric the ratio is over.
    pub metric: CompareMetric,
    /// Baseline value of the metric (ns or insts/s).
    pub base: f64,
    /// New value of the metric.
    pub new: f64,
    /// Slowdown ratio, `> 1` means the new run is worse. For wall time
    /// this is `new/base`; for throughput it is `base/new`.
    pub ratio: f64,
    /// Noise slack added to the threshold for this point (the larger of
    /// the two sides' iteration spreads).
    pub slack: f64,
    /// Whether `ratio` exceeded `threshold + slack`.
    pub regressed: bool,
}

/// The full comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// Configured slowdown threshold (e.g. `2.5`).
    pub threshold: f64,
    /// Every matched point, in baseline order.
    pub deltas: Vec<PointDelta>,
    /// Baseline keys with no counterpart in the new report.
    pub missing: Vec<String>,
    /// Keys only the new report has (informational).
    pub added: Vec<String>,
}

impl CompareReport {
    /// The regressed points.
    pub fn regressions(&self) -> impl Iterator<Item = &PointDelta> {
        self.deltas.iter().filter(|d| d.regressed)
    }

    /// `true` when no matched point regressed and nothing went missing.
    pub fn passed(&self) -> bool {
        self.missing.is_empty() && self.deltas.iter().all(|d| !d.regressed)
    }

    /// The machine-readable verdict document.
    pub fn to_json(&self) -> String {
        let strings = |w: &mut Writer, items: &[String]| {
            for item in items {
                w.str(item);
            }
        };
        Writer::pretty()
            .object(Layout::Rows, |w| {
                w.key("schema").str(COMPARE_SCHEMA);
                w.key("threshold").num(self.threshold);
                w.key("regressions").num(self.regressions().count());
                w.key("missing")
                    .array(Layout::Line, |w| strings(w, &self.missing));
                w.key("added")
                    .array(Layout::Line, |w| strings(w, &self.added));
                w.key("verdict")
                    .str(if self.passed() { "ok" } else { "regressed" });
                w.key("points").array(Layout::Rows, |w| {
                    for d in &self.deltas {
                        w.object(Layout::Line, |w| {
                            w.key("workload").str(&d.workload);
                            w.key("strategy").str(&d.strategy);
                            w.key("threads").num(d.threads);
                            w.key("metric").str(d.metric.label());
                            w.key("base").num(format_args!("{:.1}", d.base));
                            w.key("new").num(format_args!("{:.1}", d.new));
                            w.key("ratio").num(format_args!("{:.4}", d.ratio));
                            w.key("slack").num(format_args!("{:.4}", d.slack));
                            w.key("regressed").bool(d.regressed);
                        });
                    }
                });
            })
            .finish()
            + "\n"
    }

    /// The human summary printed to stderr.
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "compare: {} matched point(s), threshold {:.2}x + per-point noise slack",
            self.deltas.len(),
            self.threshold
        );
        for d in &self.deltas {
            let _ = writeln!(
                s,
                "  {:<10} {:<16} jobs={:<2} {:>10}  ratio {:>6.3}x (allowed {:.3}x){}",
                d.workload,
                d.strategy,
                d.threads,
                d.metric.label(),
                d.ratio,
                self.threshold + d.slack,
                if d.regressed { "  REGRESSED" } else { "" }
            );
        }
        for key in &self.missing {
            let _ = writeln!(s, "  MISSING in new report: {key}");
        }
        for key in &self.added {
            let _ = writeln!(s, "  only in new report: {key}");
        }
        let _ = writeln!(
            s,
            "compare: {}",
            if self.passed() {
                "OK — no regressions".to_string()
            } else {
                format!(
                    "{} regression(s), {} missing point(s)",
                    self.regressions().count(),
                    self.missing.len()
                )
            }
        );
        s
    }
}

fn key_of(p: &PointSample) -> String {
    format!("{}/{}/j{}", p.workload, p.strategy, p.threads)
}

/// Extracts the comparable fields of every point in a parsed report.
///
/// Works on any report whose points carry the `parsched-bench-parallel`
/// fields; the schema version is not checked here (`--check` does that),
/// so a `/1` baseline can be compared against a `/2` run.
///
/// # Errors
/// Returns a description of the first malformed point.
pub fn extract_points(doc: &Value) -> Result<Vec<PointSample>, String> {
    let points = doc
        .get("points")
        .and_then(Value::as_arr)
        .ok_or("missing points array")?;
    let mut out = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        let field_str = |name: &str| {
            p.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("point {i}: missing {name}"))
        };
        let field_num = |name: &str| {
            p.get(name)
                .and_then(Value::as_num)
                .ok_or(format!("point {i}: missing {name}"))
        };
        let wall_ns = match p.get("wall_ns").and_then(Value::as_arr) {
            Some(arr) => arr.iter().filter_map(Value::as_num).collect(),
            None => Vec::new(),
        };
        out.push(PointSample {
            workload: field_str("workload")?,
            strategy: field_str("strategy")?,
            threads: field_num("threads")? as u64,
            median_wall_ns: field_num("median_wall_ns")?,
            insts: field_num("insts")?,
            insts_per_sec: field_num("insts_per_sec")?,
            wall_ns,
        });
    }
    Ok(out)
}

/// Compares `new` against `base` point-by-point at `threshold`.
///
/// Matching, metric selection, and the noise slack are described in the
/// module docs. Baseline points with no counterpart land in
/// [`CompareReport::missing`] (which fails the gate — a silently dropped
/// sweep point must not read as "no regression"); new-only points are
/// listed as informational.
pub fn compare(base: &[PointSample], new: &[PointSample], threshold: f64) -> CompareReport {
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    for b in base {
        let Some(n) = new.iter().find(|n| {
            n.workload == b.workload && n.strategy == b.strategy && n.threads == b.threads
        }) else {
            missing.push(key_of(b));
            continue;
        };
        // Identical corpus ⇒ wall times are directly comparable; anything
        // else (smoke vs full) ⇒ throughput, which normalizes for size.
        let same_corpus = (b.insts - n.insts).abs() < 0.5;
        let (metric, base_v, new_v, ratio) = if same_corpus {
            let ratio = if b.median_wall_ns > 0.0 {
                n.median_wall_ns / b.median_wall_ns
            } else {
                1.0
            };
            (
                CompareMetric::WallTime,
                b.median_wall_ns,
                n.median_wall_ns,
                ratio,
            )
        } else {
            let ratio = if n.insts_per_sec > 0.0 {
                b.insts_per_sec / n.insts_per_sec
            } else {
                f64::INFINITY
            };
            (
                CompareMetric::Throughput,
                b.insts_per_sec,
                n.insts_per_sec,
                ratio,
            )
        };
        let slack = b.spread().max(n.spread());
        deltas.push(PointDelta {
            workload: b.workload.clone(),
            strategy: b.strategy.clone(),
            threads: b.threads,
            metric,
            base: base_v,
            new: new_v,
            ratio,
            slack,
            regressed: ratio > threshold + slack,
        });
    }
    let added = new
        .iter()
        .filter(|n| {
            !base.iter().any(|b| {
                b.workload == n.workload && b.strategy == n.strategy && b.threads == n.threads
            })
        })
        .map(key_of)
        .collect();
    CompareReport {
        threshold,
        deltas,
        missing,
        added,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched::telemetry::json;

    fn sample(workload: &str, threads: u64, median: f64, insts: f64) -> PointSample {
        PointSample {
            workload: workload.to_string(),
            strategy: "combined".to_string(),
            threads,
            median_wall_ns: median,
            wall_ns: vec![median],
            insts,
            insts_per_sec: insts / (median / 1e9),
        }
    }

    #[test]
    fn identical_reports_have_no_regressions() {
        let base = vec![
            sample("kernels", 1, 1e6, 100.0),
            sample("kernels", 2, 2e6, 100.0),
        ];
        let report = compare(&base, &base, 2.5);
        assert!(report.passed());
        assert_eq!(report.deltas.len(), 2);
        assert!(report.deltas.iter().all(|d| (d.ratio - 1.0).abs() < 1e-9));
        assert!(report.missing.is_empty() && report.added.is_empty());
    }

    #[test]
    fn wall_time_regression_trips_threshold() {
        let base = vec![sample("kernels", 1, 1e6, 100.0)];
        let new = vec![sample("kernels", 1, 3e6, 100.0)];
        let report = compare(&base, &new, 2.5);
        assert!(!report.passed());
        let d = &report.deltas[0];
        assert_eq!(d.metric, CompareMetric::WallTime);
        assert!((d.ratio - 3.0).abs() < 1e-9);
        assert!(d.regressed);
    }

    #[test]
    fn different_corpus_falls_back_to_throughput() {
        // Full baseline (1000 insts) vs smoke run (100 insts): wall times
        // are incomparable, throughput is. Equal throughput ⇒ ratio 1.
        let base = vec![sample("kernels", 1, 1e7, 1000.0)];
        let new = vec![sample("kernels", 1, 1e6, 100.0)];
        let report = compare(&base, &new, 2.5);
        assert!(report.passed());
        let d = &report.deltas[0];
        assert_eq!(d.metric, CompareMetric::Throughput);
        assert!((d.ratio - 1.0).abs() < 1e-9, "ratio {}", d.ratio);
    }

    #[test]
    fn noisy_samples_widen_the_allowance() {
        let mut base = sample("kernels", 1, 1e6, 100.0);
        // Spread (max−min)/median = (3e6 − 0.5e6)/1e6 = 2.5 extra slack.
        base.wall_ns = vec![0.5e6, 1e6, 3e6];
        let new = vec![sample("kernels", 1, 3.4e6, 100.0)];
        let strict = compare(&[sample("kernels", 1, 1e6, 100.0)], &new, 2.5);
        assert!(!strict.passed(), "3.4x with no noise must regress");
        let lenient = compare(&[base], &new, 2.5);
        assert!(lenient.passed(), "3.4x within 2.5 + 2.5 slack must pass");
    }

    #[test]
    fn missing_points_fail_the_gate() {
        let base = vec![
            sample("kernels", 1, 1e6, 100.0),
            sample("pressure", 1, 1e6, 50.0),
        ];
        let new = vec![
            sample("kernels", 1, 1e6, 100.0),
            sample("dag-large", 1, 1e6, 70.0),
        ];
        let report = compare(&base, &new, 2.5);
        assert!(!report.passed());
        assert_eq!(report.missing, vec!["pressure/combined/j1".to_string()]);
        assert_eq!(report.added, vec!["dag-large/combined/j1".to_string()]);
    }

    #[test]
    fn verdict_json_parses_and_carries_the_verdict() {
        let base = vec![sample("kernels", 1, 1e6, 100.0)];
        let new = vec![sample("kernels", 1, 9e6, 100.0)];
        let report = compare(&base, &new, 2.5);
        let doc = json::parse(&report.to_json()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(COMPARE_SCHEMA)
        );
        assert_eq!(
            doc.get("verdict").and_then(Value::as_str),
            Some("regressed")
        );
        assert_eq!(doc.get("regressions").and_then(Value::as_num), Some(1.0));
        let pts = doc.get("points").and_then(Value::as_arr).unwrap();
        assert_eq!(pts.len(), 1);
    }

    #[test]
    fn verdict_json_escapes_hostile_names() {
        let hostile = "kern\"els\\x";
        let mut odd = sample(hostile, 1, 1e6, 100.0);
        odd.strategy = "com\tbined\n".to_string();
        let base = vec![odd.clone(), sample("gone\"", 2, 1e6, 100.0)];
        let new = vec![odd, sample("new\\", 4, 1e6, 100.0)];
        let report = compare(&base, &new, 2.5);
        let doc = json::parse(&report.to_json()).unwrap();
        let pts = doc.get("points").and_then(Value::as_arr).unwrap();
        assert_eq!(
            pts[0].get("workload").and_then(Value::as_str),
            Some(hostile)
        );
        assert_eq!(
            pts[0].get("strategy").and_then(Value::as_str),
            Some("com\tbined\n")
        );
        let listed = |key: &str| -> Vec<String> {
            let items = doc.get(key).and_then(Value::as_arr).unwrap();
            items
                .iter()
                .map(|v| v.as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(listed("missing"), report.missing);
        assert_eq!(listed("added"), report.added);
        assert!(report.missing[0].contains('"') && report.added[0].contains('\\'));
    }

    #[test]
    fn extract_points_reads_rendered_reports() {
        let text = r#"{
            "schema": "parsched-bench-parallel/1",
            "points": [
                {"workload": "kernels", "strategy": "combined", "threads": 1,
                 "functions": 96, "wall_ns": [100, 120, 110],
                 "median_wall_ns": 110, "insts": 1856,
                 "insts_per_sec": 78713.6, "spilled_values": 0, "errors": 0}
            ]
        }"#;
        let doc = json::parse(text).unwrap();
        let points = extract_points(&doc).unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].wall_ns, vec![100.0, 120.0, 110.0]);
        assert!((points[0].spread() - 20.0 / 110.0).abs() < 1e-9);
    }
}
