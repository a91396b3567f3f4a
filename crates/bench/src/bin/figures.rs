//! Regenerates every figure of Pinter (PLDI 1993) from the implementation
//! and prints it. Run with `cargo run -p parsched-bench --bin figures`.
//!
//! The companion assertions live in `tests/paper_figures.rs`; this binary
//! is the human-readable rendition.

use parsched::graph::coloring::{exact_chromatic_number, exact_coloring, ExactLimits};
use parsched::graph::UnGraph;
use parsched::ir::liveness::Liveness;
use parsched::ir::{print_function, print_inst, BlockId, Function};
use parsched::regalloc::{BlockAllocProblem, Pig};
use parsched::sched::falsedep::{count_false_deps, et_graph, false_dependence_graph};
use parsched::sched::DepGraph;
use parsched::telemetry::NullTelemetry;
use parsched::{paper, Pipeline, Strategy};

fn main() {
    example1_walkthrough();
    figure1();
    figure2();
    figure3();
    figure4_and_5();
    figure6();
}

fn heading(title: &str) {
    println!("\n========================================================");
    println!("{title}");
    println!("========================================================");
}

fn print_edges(label: &str, g: &UnGraph, names: &dyn Fn(usize) -> String) {
    let mut edges: Vec<_> = g.edges().collect();
    edges.sort();
    let rendered: Vec<String> = edges
        .iter()
        .map(|&(u, v)| format!("{{{}, {}}}", names(u), names(v)))
        .collect();
    println!("{label}: {}", rendered.join(", "));
}

fn inst_name(f: &Function, i: usize) -> String {
    let inst = &f.block(BlockId(0)).body()[i];
    inst.defs()
        .first()
        .map(|d| d.to_string())
        .unwrap_or_else(|| format!("#{i}"))
}

fn example1_walkthrough() {
    heading("Example 1: the phase-ordering tradeoff");
    let sym = paper::example1();
    println!("(b) symbolic code:\n{}", print_function(&sym));
    let bad = paper::example1_paper_alloc();
    println!(
        "(c) paper's 3-register allocation (r2 reused):\n{}",
        print_function(&bad)
    );
    let m = paper::machine(8);
    println!(
        "false dependences introduced by (c): {}",
        count_false_deps(bad.block(BlockId(0)), &m)
    );
    let good = paper::example1_good_alloc();
    println!(
        "alternative mapping s1-r1 s2-r2 s3-r2 s4-r3 s5-r2:\n{}",
        print_function(&good)
    );
    println!(
        "false dependences introduced: {}",
        count_false_deps(good.block(BlockId(0)), &m)
    );
}

fn figure1() {
    heading("Figure 1: dependence edges of the schedule graph of Example 2");
    let f = paper::example2();
    let d = DepGraph::build(f.block(BlockId(0)), &NullTelemetry);
    for e in d.edges() {
        println!(
            "  {} -> {}   [{:?}]",
            inst_name(&f, e.from),
            inst_name(&f, e.to),
            e.kind
        );
    }
}

fn figure2() {
    heading("Figure 2: schedule graph, Et, and interference graph of Example 1");
    let f = paper::example1();
    let d = DepGraph::build(f.block(BlockId(0)), &NullTelemetry);
    let m = paper::machine(8);
    println!("(a) dependence edges:");
    for e in d.edges() {
        println!(
            "  {} -> {}   [{:?}]",
            inst_name(&f, e.from),
            inst_name(&f, e.to),
            e.kind
        );
    }
    let names = |i: usize| inst_name(&f, i);
    print_edges("(b) Et", &et_graph(&d, &m, &NullTelemetry), &names);
    print_edges(
        "    Ef (complement = false-dependence graph)",
        &false_dependence_graph(&d, &m, &NullTelemetry),
        &names,
    );
    let lv = Liveness::compute(&f, &[]);
    let p = BlockAllocProblem::build(&f, BlockId(0), &lv).unwrap();
    let node_names = |n: usize| p.nodes()[n].to_string();
    print_edges("(c) interference graph Gr", p.interference(), &node_names);
}

fn figure3() {
    heading("Figure 3: parallelizable interference graph of Example 1");
    let f = paper::example1();
    let lv = Liveness::compute(&f, &[]);
    let p = BlockAllocProblem::build(&f, BlockId(0), &lv).unwrap();
    let d = DepGraph::build(f.block(BlockId(0)), &NullTelemetry);
    let m = paper::machine(8);
    let pig = Pig::build(&p, &d, &m, &NullTelemetry);
    let node_names = |n: usize| p.nodes()[n].to_string();
    print_edges("PIG edges", pig.graph(), &node_names);
    let limits = ExactLimits::default();
    let coloring = exact_coloring(pig.graph(), &limits).unwrap();
    println!("optimal coloring uses {} registers:", coloring.num_colors());
    for (n, reg) in p.nodes().iter().enumerate() {
        println!("  {reg} -> r{}", coloring.color(n));
    }
    let pipeline = Pipeline::new(paper::machine(3));
    let r = pipeline
        .compile(&f, &Strategy::combined(), &NullTelemetry)
        .unwrap();
    println!(
        "combined pipeline at 3 registers: {} regs, {} false deps, {} cycles",
        r.stats.registers_used, r.stats.introduced_false_deps, r.stats.cycles
    );
    println!("{}", print_function(&r.function));
}

fn figure4_and_5() {
    heading("Figures 4 & 5: Example 2 — Gr is 3-colorable, the PIG needs 4");
    let f = paper::example2();
    let lv = Liveness::compute(&f, &[]);
    let p = BlockAllocProblem::build(&f, BlockId(0), &lv).unwrap();
    let d = DepGraph::build(f.block(BlockId(0)), &NullTelemetry);
    let m = paper::machine(8);
    let limits = ExactLimits::default();
    let chrom_gr = exact_chromatic_number(p.interference(), &limits).unwrap();
    let pig = Pig::build(&p, &d, &m, &NullTelemetry);
    let chrom_pig = exact_chromatic_number(pig.graph(), &limits).unwrap();
    println!("χ(interference graph) = {chrom_gr}   (Figure 4: 3 registers)");
    println!("χ(PIG)                = {chrom_pig}   (Figure 5: 4 registers)");
    let fig5 = paper::example2_figure5_alloc();
    println!("\nFigure 5 assignment:\n{}", print_function(&fig5));
    println!(
        "false dependences introduced: {}",
        count_false_deps(fig5.block(BlockId(0)), &m)
    );
    let schedule_of = |func: &Function| {
        let deps = DepGraph::build(func.block(BlockId(0)), &NullTelemetry);
        let s = parsched::sched::list_schedule(
            func.block(BlockId(0)),
            &deps,
            &m,
            parsched::sched::SchedPriority::CriticalPath,
            &NullTelemetry,
        )
        .unwrap_or_else(|e| panic!("figure schedule failed: {e}"));
        (s.groups(), s.completion_cycles())
    };
    let (groups, cycles) = schedule_of(&fig5);
    println!("schedule of the Figure 5 code ({cycles} cycles):");
    for (c, members) in groups {
        let names: Vec<String> = members
            .iter()
            .map(|&i| print_inst(&fig5.block(BlockId(0)).body()[i], &fig5))
            .collect();
        println!("  cycle {c}: {}", names.join("  ||  "));
    }
}

fn figure6() {
    heading("Figure 6: branch definitions combine into one web");
    let f = paper::figure6();
    println!("{}", print_function(&f));
    use parsched::ir::defuse::DefUse;
    use parsched::ir::webs::Webs;
    let du = DefUse::compute(&f);
    let webs = Webs::compute(&du);
    println!("webs ({} total):", webs.len());
    for (w, members) in webs.iter() {
        let sites: Vec<String> = members
            .iter()
            .map(|&d| format!("{:?}", du.site_of(d)))
            .collect();
        println!("  web {:?} [{}]: {}", w, webs.reg_of(w), sites.join(", "));
    }
}
