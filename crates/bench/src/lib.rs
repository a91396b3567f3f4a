//! The paper-table generators and the `pscd` load generator.
//!
//! Three binaries share this crate:
//!
//! - `figures` and `experiments` regenerate the tables in EXPERIMENTS.md;
//! - `parsched-loadgen` drives a running `pscd` with a seeded request
//!   stream (see `docs/SERVICE.md`).
//!
//! The repo benchmark is `perfbench/`, not this crate; see
//! `docs/BENCHMARKING.md`. The crate is deliberately zero-dependency (no
//! criterion, no rand, no serde) so the workspace builds fully offline:
//! randomness comes from `parsched-workload`'s seeded SplitMix64
//! generators. This module itself holds the corpus shared by the
//! `figures`/`experiments` binaries, so every table in EXPERIMENTS.md is
//! generated from one definition.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use parsched::ir::Function;
use parsched::machine::{presets, MachineDesc};
use parsched_workload::{random_dag_function, DagParams};

/// The machines every experiment sweeps, at a given register-file size.
pub fn standard_machines(num_regs: u32) -> Vec<MachineDesc> {
    vec![
        presets::single_issue(num_regs),
        presets::paper_machine(num_regs),
        presets::rs6000(num_regs),
        presets::wide(4, num_regs),
    ]
}

/// The deterministic random-DAG corpus: three ILP levels × four seeds.
///
/// `serial` chains almost everything (window 2), `mixed` is the default
/// shape, `parallel` approaches independent streams (window 16).
pub fn dag_corpus() -> Vec<(String, Function)> {
    let shapes = [
        (
            "serial",
            DagParams {
                size: 36,
                load_fraction: 0.25,
                float_fraction: 0.4,
                window: 2,
            },
        ),
        (
            "mixed",
            DagParams {
                size: 36,
                load_fraction: 0.25,
                float_fraction: 0.4,
                window: 6,
            },
        ),
        (
            "parallel",
            DagParams {
                size: 36,
                load_fraction: 0.25,
                float_fraction: 0.4,
                window: 16,
            },
        ),
    ];
    let mut out = Vec::new();
    for (name, params) in shapes {
        for seed in 0..4u64 {
            out.push((
                format!("{name}-{seed}"),
                random_dag_function(seed * 7 + 13, &params),
            ));
        }
    }
    out
}

/// The full evaluation workload: kernel corpus + DAG corpus (straight-line
/// only, since the tables are per-block metrics).
pub fn evaluation_workloads() -> Vec<(String, Function)> {
    let mut out: Vec<(String, Function)> = parsched_workload::straight_line_kernels()
        .into_iter()
        .map(|(n, f)| (n.to_string(), f))
        .collect();
    out.extend(dag_corpus());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_stable() {
        let a = evaluation_workloads();
        let b = evaluation_workloads();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 12 + 12);
        for ((na, fa), (nb, fb)) in a.iter().zip(&b) {
            assert_eq!(na, nb);
            assert_eq!(fa, fb);
        }
    }

    #[test]
    fn machines_cover_presets() {
        let ms = standard_machines(16);
        assert_eq!(ms.len(), 4);
        assert!(ms.iter().all(|m| m.num_regs() == 16));
    }
}
