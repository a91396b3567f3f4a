//! Regenerates the evaluation tables of EXPERIMENTS.md. Every table is
//! deterministic (fixed seeds). Run with
//! `cargo run --release -p parsched-bench --bin experiments`.

use parsched::graph::coloring::{exact_chromatic_number, ExactLimits};
use parsched::ir::liveness::Liveness;
use parsched::ir::BlockId;
use parsched::machine::presets;
use parsched::regalloc::{BlockAllocProblem, EdgeRemovalPolicy, Pig, PinterConfig, SpillMetric};
use parsched::report::Table;
use parsched::sched::DepGraph;
use parsched::telemetry::NullTelemetry;
use parsched::{Pipeline, Strategy};
use parsched_bench::{evaluation_workloads, standard_machines};

fn main() {
    t_regs();
    t_cycles();
    t_spill_and_falsedep();
    t_heur();
    t_ep();
    t_global();
    t_sched();
}

const STRATEGIES: [Strategy; 4] = [
    Strategy::LinearScanThenSched,
    Strategy::AllocThenSched,
    Strategy::SchedThenAlloc,
    Strategy::Combined(PinterConfig {
        edge_policy: EdgeRemovalPolicy::LeastBenefit,
        spill_metric: SpillMetric::HStar {
            interference_weight: 1.0,
            shared_weight: 2.0,
            parallel_weight: 1.5,
        },
        ep_prepass: true,
    }),
];

fn heading(id: &str, title: &str) {
    println!("\n### {id}: {title}\n");
}

/// T-REGS: registers required to keep *all* parallelism (χ of the PIG)
/// versus registers required at all (χ of the interference graph), per
/// workload on the paper machine.
fn t_regs() {
    heading(
        "T-REGS",
        "the register price of keeping all parallelism (paper machine)",
    );
    let machine = presets::paper_machine(64);
    let mut table = Table::new(&["workload", "insts", "chi(Gr)", "chi(PIG)", "delta"]);
    let limits = ExactLimits {
        max_nodes: 64,
        max_steps: 20_000_000,
    };
    for (name, f) in evaluation_workloads() {
        let lv = Liveness::compute(&f, &[]);
        let p = BlockAllocProblem::build(&f, BlockId(0), &lv).unwrap();
        let d = DepGraph::build(f.block(BlockId(0)), &NullTelemetry);
        let pig = Pig::build(&p, &d, &machine, &NullTelemetry);
        let gr = exact_chromatic_number(p.interference(), &limits)
            .map(|c| c.to_string())
            .unwrap_or_else(|_| "-".into());
        let pg = exact_chromatic_number(pig.graph(), &limits)
            .map(|c| c.to_string())
            .unwrap_or_else(|_| "-".into());
        let delta = match (gr.parse::<i64>(), pg.parse::<i64>()) {
            (Ok(a), Ok(b)) => format!("+{}", b - a),
            _ => "-".into(),
        };
        table.row(&[name.clone(), f.inst_count().to_string(), gr, pg, delta]);
    }
    print!("{}", table.render());
}

/// T-CYCLES: total schedule length over the corpus per strategy, sweeping
/// the register-file size, on every machine.
fn t_cycles() {
    heading(
        "T-CYCLES",
        "total cycles over the corpus (lower is better), sweeping registers",
    );
    let workloads = evaluation_workloads();
    for machine in standard_machines(0) {
        let mut table = Table::new(&[
            "regs",
            "linear-scan",
            "alloc-then-sched",
            "sched-then-alloc",
            "combined",
        ]);
        for regs in [4u32, 6, 8, 12, 16, 24] {
            let m = machine.with_num_regs(regs);
            let p = Pipeline::new(m);
            let mut cells = vec![regs.to_string()];
            for s in STRATEGIES {
                let total: u64 = workloads
                    .iter()
                    .map(|(_, f)| u64::from(p.compile(f, &s, &NullTelemetry).unwrap().stats.cycles))
                    .sum();
                cells.push(total.to_string());
            }
            table.row(&cells);
        }
        // The register count varies by row, so the heading names only the
        // machine's shape.
        let units: String = machine
            .units()
            .iter()
            .map(|u| format!(" {}x{}", u.count, u.name))
            .collect();
        println!(
            "machine: {} (issue {}; units:{units})",
            machine.name(),
            machine.issue_width()
        );
        print!("{}", table.render());
        println!();
    }
}

/// T-SPILL and T-FALSEDEP: spills and introduced false dependences per
/// strategy under the same sweep (paper machine).
fn t_spill_and_falsedep() {
    heading(
        "T-SPILL / T-FALSEDEP",
        "total spilled values and introduced false dependences (paper machine)",
    );
    let workloads = evaluation_workloads();
    let mut table = Table::new(&[
        "regs",
        "spills a-t-s",
        "spills s-t-a",
        "spills comb",
        "fdeps a-t-s",
        "fdeps s-t-a",
        "fdeps comb",
    ]);
    for regs in [4u32, 6, 8, 12, 16, 24] {
        let p = Pipeline::new(presets::paper_machine(regs));
        let mut spills = Vec::new();
        let mut fdeps = Vec::new();
        for s in STRATEGIES {
            let (mut sp, mut fd) = (0usize, 0usize);
            for (_, f) in &workloads {
                let r = p.compile(f, &s, &NullTelemetry).unwrap();
                sp += r.stats.spilled_values;
                fd += r.stats.introduced_false_deps;
            }
            spills.push(sp.to_string());
            fdeps.push(fd.to_string());
        }
        table.row(&[
            regs.to_string(),
            spills[1].clone(),
            spills[2].clone(),
            spills[3].clone(),
            fdeps[1].clone(),
            fdeps[2].clone(),
            fdeps[3].clone(),
        ]);
    }
    print!("{}", table.render());
}

/// T-HEUR: ablation of the combined allocator's heuristics under pressure.
fn t_heur() {
    heading(
        "T-HEUR",
        "heuristic ablation at 6 registers (paper machine): edge policy × spill metric",
    );
    let workloads = evaluation_workloads();
    let p = Pipeline::new(presets::paper_machine(6));
    let mut table = Table::new(&[
        "edge policy",
        "spill metric",
        "cycles",
        "spills",
        "edges given up",
    ]);
    let policies = [
        ("least-benefit", EdgeRemovalPolicy::LeastBenefit),
        ("pseudorandom", EdgeRemovalPolicy::Pseudorandom { seed: 7 }),
        ("degree-relief", EdgeRemovalPolicy::DegreeRelief),
    ];
    let metrics = [
        ("h (cost/deg)", SpillMetric::CostOverDegree),
        (
            "h* (weighted)",
            SpillMetric::HStar {
                interference_weight: 1.0,
                shared_weight: 2.0,
                parallel_weight: 1.5,
            },
        ),
        (
            "h* (parallel=0)",
            SpillMetric::HStar {
                interference_weight: 1.0,
                shared_weight: 1.0,
                parallel_weight: 0.0,
            },
        ),
    ];
    for (pname, policy) in policies {
        for (mname, metric) in metrics {
            let s = Strategy::Combined(PinterConfig {
                edge_policy: policy,
                spill_metric: metric,
                ep_prepass: true,
            });
            let (mut cycles, mut spills, mut removed) = (0u64, 0usize, 0usize);
            for (_, f) in &workloads {
                let r = p.compile(f, &s, &NullTelemetry).unwrap();
                cycles += u64::from(r.stats.cycles);
                spills += r.stats.spilled_values;
                removed += r.stats.removed_false_edges;
            }
            table.row(&[
                pname.to_string(),
                mname.to_string(),
                cycles.to_string(),
                spills.to_string(),
                removed.to_string(),
            ]);
        }
    }
    print!("{}", table.render());
}

/// T-EP: the EP pre-scheduling reordering on/off.
fn t_ep() {
    heading("T-EP", "EP pre-scheduling pass ablation (paper machine)");
    let workloads = evaluation_workloads();
    let mut table = Table::new(&[
        "regs",
        "cycles (EP on)",
        "cycles (EP off)",
        "spills on",
        "spills off",
    ]);
    for regs in [4u32, 6, 8, 12] {
        let p = Pipeline::new(presets::paper_machine(regs));
        let mut row = vec![regs.to_string()];
        let mut spills = Vec::new();
        for ep in [true, false] {
            let s = Strategy::Combined(PinterConfig {
                ep_prepass: ep,
                ..PinterConfig::default()
            });
            let (mut cycles, mut sp) = (0u64, 0usize);
            for (_, f) in &workloads {
                let r = p.compile(f, &s, &NullTelemetry).unwrap();
                cycles += u64::from(r.stats.cycles);
                sp += r.stats.spilled_values;
            }
            row.push(cycles.to_string());
            spills.push(sp.to_string());
        }
        row.extend(spills);
        table.row(&row);
    }
    print!("{}", table.render());
}

/// T-GLOBAL: multi-block functions through the web-based global allocator
/// (loop kernels + seeded structured CFGs), with and without chain merging.
fn t_global() {
    use parsched::ir::simplify::merge_chains;
    use parsched_workload::{kernel, random_cfg_function, CfgParams};
    heading(
        "T-GLOBAL",
        "multi-block workloads via the global (web) allocator, paper machine",
    );
    let mut plain = vec![kernel("loop_sum").unwrap(), kernel("diamond").unwrap()];
    for seed in 0..6u64 {
        plain.push(random_cfg_function(
            seed * 3 + 1,
            &CfgParams {
                segments: 5,
                ops_per_block: 4,
            },
        ));
    }
    // Chain merging is a pre-pass on the input: control-equivalent chains
    // reach the allocator as single blocks.
    let merged: Vec<_> = plain.iter().map(merge_chains).collect();
    let mut table = Table::new(&[
        "regs",
        "merge",
        "cycles a-t-s",
        "cycles s-t-a",
        "cycles comb",
        "spills comb",
        "fdeps comb",
    ]);
    for regs in [6u32, 10, 16] {
        for (merge, workloads) in [(false, &plain), (true, &merged)] {
            let p = Pipeline::new(presets::paper_machine(regs));
            let mut cyc = Vec::new();
            let (mut sp, mut fd) = (0usize, 0usize);
            for s in STRATEGIES {
                let mut total = 0u64;
                for f in workloads {
                    let r = p.compile(f, &s, &NullTelemetry).unwrap();
                    total += u64::from(r.stats.cycles);
                    if matches!(s, Strategy::Combined(_)) {
                        sp += r.stats.spilled_values;
                        fd += r.stats.introduced_false_deps;
                    }
                }
                cyc.push(total.to_string());
            }
            table.row(&[
                regs.to_string(),
                (if merge { "on" } else { "off" }).to_string(),
                cyc[1].clone(),
                cyc[2].clone(),
                cyc[3].clone(),
                sp.to_string(),
                fd.to_string(),
            ]);
        }
    }
    print!("{}", table.render());
}

/// T-SCHED: list-scheduler ready-list priority ablation on symbolic code
/// (no allocation): critical-path vs source-order vs fan-out.
fn t_sched() {
    use parsched::ir::BlockId;
    use parsched::sched::{list_schedule, SchedPriority};
    heading(
        "T-SCHED",
        "scheduler priority ablation on symbolic code (total cycles)",
    );
    let workloads = evaluation_workloads();
    let mut table = Table::new(&["machine", "critical-path", "source-order", "fan-out"]);
    for machine in standard_machines(64) {
        let mut row = vec![machine.name().to_string()];
        for prio in [
            SchedPriority::CriticalPath,
            SchedPriority::SourceOrder,
            SchedPriority::FanOut,
        ] {
            let total: u64 = workloads
                .iter()
                .map(|(name, f)| {
                    let block = f.block(BlockId(0));
                    let deps = DepGraph::build(block, &NullTelemetry);
                    let schedule = list_schedule(block, &deps, &machine, prio, &NullTelemetry)
                        .unwrap_or_else(|e| panic!("T-SCHED: {name} failed to schedule: {e}"));
                    u64::from(schedule.completion_cycles())
                })
                .sum();
            row.push(total.to_string());
        }
        table.row(&row);
    }
    print!("{}", table.render());
}
