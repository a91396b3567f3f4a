//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <pig-large|spill-tight|gap-small>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times the workload end to end and prints the
//! end-to-end metrics; with `--trace 1` it runs the same inputs through
//! each layer's public entry points, timed from here, and prints the
//! per-layer metrics. Either way it checks every output (see METRICS.md)
//! and ends stdout with one JSON result line.

mod batch;
mod common;
mod daemon;
mod gen;
mod layers;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["pig-large", "spill-tight", "gap-small"];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match batch::run(&args, started) {
        Ok(r) => {
            r.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload gap-small --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("gap-small", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload pig-large --seconds 1").is_err());
        assert!(args("--workload pig-large --seed 1 --seconds 0").is_err());
        assert!(args("--workload pig-large --seed 1 --seconds 1 --trace 2").is_err());
    }
}
