//! The dense-row kernels against the structures they replaced, kept below
//! as references:
//!
//! * [`combined_color_in`], which picks least-benefit edges from one sorted
//!   candidate array, against the lazy-heap loop it replaced: same colors,
//!   same spill list, same removed false edges in the same order — on
//!   random PIGs at k = 2..32, on every round of seeded spill loops, and on
//!   web PIGs, with one workspace reused across all calls;
//! * [`Pig::graph`], now a view derived from the PIG's rows, against the
//!   neighbor-list construction (`Er` cloned, then one `add_edge` per `Ef`
//!   edge): same neighbor order, edge count and edge classes, for the
//!   session path, [`Pig::build`], [`Pig::from_parts`] and the global web
//!   PIG, with the block paths' `Ef` taken from the literal complement of
//!   `Et`;
//! * [`for_each_ef_pair`], the one `Ef` kernel, against the literal
//!   complement of `Et` on random universes, and the global web false
//!   edges it builds against the per-region complement-and-remap
//!   construction it replaced;
//! * [`GlobalAllocProblem::coalesce`], which merges copy-related webs in
//!   place on the problem's own graphs, against the `HashSet`-adjacency
//!   quotient it replaced: same class map, merged-move count, class `Er`
//!   and `Gf` neighbor lists, costs and priorities — on seeded CFGs at
//!   k = 2..16 under both web scopes;
//! * [`ReservationTable`], whose booked cycles are flat counter rows,
//!   against a hash-map model, on random operation sequences over every
//!   preset and a parsed multi-instance machine.

use parsched::graph::{BitSet, ClosureMode, Reachability, UnGraph};
use parsched::ir::cfg::Cfg;
use parsched::ir::defuse::UseSite;
use parsched::ir::defuse::{DefId, DefSite, DefUse};
use parsched::ir::liveness::Liveness;
use parsched::ir::webs::Webs;
use parsched::ir::{parse_function, Block, BlockId, Function, InstId, InstKind, Reg};
use parsched::machine::{parse_machine_spec, presets, MachineDesc, OpClass, ReservationTable};
use parsched::regalloc::combined::{
    combined_color_in, CombinedOutcome, CombinedWorkspace, EdgeRemovalPolicy, SpillMetric,
};
use parsched::regalloc::global::{GlobalAllocProblem, GlobalScope};
use parsched::regalloc::spill::insert_spill_code;
use parsched::regalloc::{AllocSession, BlockAllocProblem, Budget, Pig, PinterConfig};
use parsched::sched::falsedep::{et_graph, for_each_ef_pair, EfScratch};
use parsched::sched::region::form_regions;
use parsched::sched::{BlockRemap, DepGraph};
use parsched::telemetry::NullTelemetry;
use parsched_workload::{
    random_cfg_function, random_dag_function, CfgParams, DagParams, SplitMix64,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

// ---------------------------------------------------------------------------
// Reference: the combined coloring loop with a lazy least-benefit heap.
// ---------------------------------------------------------------------------

/// The coloring procedure as it ran before the candidate array: least
/// benefit pops `(priority sum, a, b)` entries off a heap, pushed when an
/// endpoint becomes savable and validated at pop; the other policies scan
/// every eligible edge.
fn reference_color(
    pig: &Pig,
    k: u32,
    costs: &[f64],
    priority: &[u32],
    config: &PinterConfig,
) -> CombinedOutcome {
    let g = pig.graph();
    let n = g.node_count();
    let ku = k as usize;
    let mut work_rows: Vec<BitSet> = (0..n).map(|v| g.row(v).clone()).collect();
    let mut false_rows: Vec<BitSet> = (0..n).map(|v| pig.false_only().row(v).clone()).collect();
    let mut alive = BitSet::new(n);
    alive.fill();
    let mut inter_deg: Vec<usize> = (0..n)
        .map(|v| g.degree(v) - false_rows[v].count())
        .collect();
    let mut falive_deg: Vec<usize> = (0..n).map(|v| false_rows[v].count()).collect();
    let mut shared_cnt: Vec<usize> = (0..n).map(|v| pig.shared().row(v).count()).collect();
    let mut below_k = (0..n)
        .filter(|&v| inter_deg[v] + falive_deg[v] < ku)
        .count();
    let mut stack = Vec::new();
    let mut spilled = Vec::new();
    let mut removed_edges = Vec::new();
    let mut rng_state = match config.edge_policy {
        EdgeRemovalPolicy::Pseudorandom { seed } => seed | 1,
        _ => 1,
    };
    let savable = |v: usize, inter_deg: &[usize], falive_deg: &[usize]| {
        inter_deg[v] < ku && falive_deg[v] > 0
    };
    let lazy = config.edge_policy == EdgeRemovalPolicy::LeastBenefit;
    let mut heap: BinaryHeap<Reverse<(u32, usize, usize)>> = BinaryHeap::new();
    let mut queued = vec![false; n];
    let push_edges =
        |heap: &mut BinaryHeap<Reverse<(u32, usize, usize)>>, v: usize, row: &BitSet| {
            for u in row.iter() {
                let (a, b) = (v.min(u), v.max(u));
                heap.push(Reverse((priority[a].saturating_add(priority[b]), a, b)));
            }
        };
    if lazy {
        for v in 0..n {
            if savable(v, &inter_deg, &falive_deg) {
                queued[v] = true;
                push_edges(&mut heap, v, &false_rows[v]);
            }
        }
    }

    // Marks `v` dead, repairs its alive neighbors' counters and queues the
    // neighbors that just became savable.
    let remove_node = |v: usize,
                       alive: &mut BitSet,
                       work_rows: &[BitSet],
                       false_rows: &[BitSet],
                       inter_deg: &mut [usize],
                       falive_deg: &mut [usize],
                       shared_cnt: &mut [usize],
                       below_k: &mut usize,
                       heap: &mut BinaryHeap<Reverse<(u32, usize, usize)>>,
                       queued: &mut [bool]| {
        if inter_deg[v] + falive_deg[v] < ku {
            *below_k -= 1;
        }
        alive.remove(v);
        let mut touched = work_rows[v].clone();
        touched.intersect_with(alive);
        for u in touched.iter() {
            if false_rows[v].contains(u) {
                falive_deg[u] -= 1;
            } else {
                inter_deg[u] -= 1;
                if pig.shared().row(v).contains(u) {
                    shared_cnt[u] -= 1;
                }
            }
            if inter_deg[u] + falive_deg[u] + 1 == ku {
                *below_k += 1;
            }
        }
        if lazy {
            for u in touched.iter() {
                if !queued[u] && inter_deg[u] < ku && falive_deg[u] > 0 {
                    queued[u] = true;
                    push_edges(heap, u, &false_rows[u]);
                }
            }
        }
    };

    let mut remaining = n;
    while remaining > 0 {
        let mut pick: Option<(usize, usize)> = None;
        if below_k > 0 {
            for v in alive.iter() {
                let d = inter_deg[v] + falive_deg[v];
                if d < ku && pick.is_none_or(|cur| (d, v) < cur) {
                    pick = Some((d, v));
                }
            }
        }
        if let Some((_, v)) = pick {
            remove_node(
                v,
                &mut alive,
                &work_rows,
                &false_rows,
                &mut inter_deg,
                &mut falive_deg,
                &mut shared_cnt,
                &mut below_k,
                &mut heap,
                &mut queued,
            );
            stack.push(v);
            remaining -= 1;
            continue;
        }

        let eligible = |alive: &BitSet, inter_deg: &[usize], falive_deg: &[usize]| {
            let mut out = Vec::new();
            for v in alive.iter() {
                if savable(v, inter_deg, falive_deg) {
                    for u in false_rows[v].iter().filter(|&u| alive.contains(u)) {
                        out.push((v.min(u), v.max(u)));
                    }
                }
            }
            out
        };
        let chosen = match config.edge_policy {
            EdgeRemovalPolicy::LeastBenefit => {
                let mut chosen = None;
                while let Some(Reverse((_, a, b))) = heap.pop() {
                    if alive.contains(a)
                        && alive.contains(b)
                        && false_rows[a].contains(b)
                        && (savable(a, &inter_deg, &falive_deg)
                            || savable(b, &inter_deg, &falive_deg))
                    {
                        chosen = Some((a, b));
                        break;
                    }
                }
                chosen
            }
            EdgeRemovalPolicy::Pseudorandom { .. } => {
                let all = eligible(&alive, &inter_deg, &falive_deg);
                (!all.is_empty()).then(|| {
                    rng_state ^= rng_state << 13;
                    rng_state ^= rng_state >> 7;
                    rng_state ^= rng_state << 17;
                    all[(rng_state as usize) % all.len()]
                })
            }
            EdgeRemovalPolicy::DegreeRelief => eligible(&alive, &inter_deg, &falive_deg)
                .into_iter()
                .map(|(a, b)| {
                    let da = inter_deg[a] + falive_deg[a];
                    let db = inter_deg[b] + falive_deg[b];
                    (da.min(db), a, b)
                })
                .min()
                .map(|(_, a, b)| (a, b)),
        };
        if let Some((a, b)) = chosen {
            work_rows[a].remove(b);
            work_rows[b].remove(a);
            false_rows[a].remove(b);
            false_rows[b].remove(a);
            falive_deg[a] -= 1;
            falive_deg[b] -= 1;
            for x in [a, b] {
                if inter_deg[x] + falive_deg[x] + 1 == ku {
                    below_k += 1;
                }
            }
            removed_edges.push((a, b));
            continue;
        }

        let weight_sum = |v: usize| -> f64 {
            let total = inter_deg[v] + falive_deg[v];
            match config.spill_metric {
                SpillMetric::CostOverDegree => total as f64,
                SpillMetric::HStar {
                    interference_weight,
                    shared_weight,
                    parallel_weight,
                } => {
                    let (shared, parallel) = (shared_cnt[v], falive_deg[v]);
                    shared_weight * shared as f64
                        + parallel_weight * parallel as f64
                        + interference_weight * (total - shared - parallel) as f64
                }
            }
        };
        let mut victim: Option<(usize, f64)> = None;
        for v in alive.iter() {
            let h = costs[v] / weight_sum(v).max(f64::MIN_POSITIVE);
            if victim.is_none_or(|(_, hb)| h.total_cmp(&hb).is_lt()) {
                victim = Some((v, h));
            }
        }
        let Some((victim, _)) = victim else { break };
        remove_node(
            victim,
            &mut alive,
            &work_rows,
            &false_rows,
            &mut inter_deg,
            &mut falive_deg,
            &mut shared_cnt,
            &mut below_k,
            &mut heap,
            &mut queued,
        );
        spilled.push(victim);
        remaining -= 1;
    }

    let mut colors = vec![u32::MAX; n];
    for &v in stack.iter().rev() {
        let mut used = vec![false; ku];
        for u in work_rows[v].iter() {
            if colors[u] != u32::MAX {
                used[colors[u] as usize] = true;
            }
        }
        match (0..k).find(|&c| !used[c as usize]) {
            Some(c) => colors[v] = c,
            None => spilled.push(v),
        }
    }
    spilled.sort_unstable();
    CombinedOutcome {
        colors,
        spilled,
        removed_false_edges: removed_edges,
    }
}

// ---------------------------------------------------------------------------
// Reference: the PIG as neighbor lists.
// ---------------------------------------------------------------------------

/// `Er` cloned, then one `add_edge` per `Ef` edge in `ef_edges`' order —
/// how the PIG's graph was assembled before it became rows.
fn reference_graph(er: &UnGraph, ef_edges: impl IntoIterator<Item = (usize, usize)>) -> UnGraph {
    let mut g = er.clone();
    for (u, v) in ef_edges {
        g.add_edge(u, v);
    }
    g
}

/// Asserts `pig` is the PIG of `er` and `ef` (the latter as an `UnGraph`
/// whose edge order the reference follows): neighbor order, edge counts,
/// and the three edge classes as row-wise combinations of `Er` and `Ef`.
fn assert_pig_matches(
    pig: &Pig,
    er: &UnGraph,
    ef: &UnGraph,
    ef_order: &[(usize, usize)],
    ctx: &str,
) {
    let expected = reference_graph(er, ef_order.iter().copied());
    let n = er.node_count();
    let view = pig.graph();
    assert_eq!(view.node_count(), n, "{ctx}");
    assert_eq!(pig.node_count(), n, "{ctx}");
    for v in 0..n {
        assert_eq!(
            view.neighbors(v),
            expected.neighbors(v),
            "neighbors({v}), {ctx}"
        );
        assert_eq!(pig.adjacency().row(v), expected.row(v), "row {v}, {ctx}");
        assert_eq!(pig.degree(v), expected.degree(v), "degree({v}), {ctx}");
    }
    assert_eq!(view.edge_count(), expected.edge_count(), "{ctx}");
    assert_eq!(pig.edge_count(), expected.edge_count(), "{ctx}");
    for v in 0..n {
        let (r, f) = (er.row(v), ef.row(v));
        let class = |keep_r: bool, keep_f: bool| -> BitSet {
            let mut row = BitSet::new(n);
            for u in 0..n {
                if r.contains(u) == keep_r && f.contains(u) == keep_f {
                    row.insert(u);
                }
            }
            row
        };
        assert_eq!(pig.interference_only().row(v), &class(true, false), "{ctx}");
        assert_eq!(pig.false_only().row(v), &class(false, true), "{ctx}");
        assert_eq!(pig.shared().row(v), &class(true, true), "{ctx}");
    }
}

fn ungraph_of(n: usize, edges: &[(usize, usize)]) -> UnGraph {
    let mut g = UnGraph::new(n);
    for &(u, v) in edges {
        g.add_edge(u, v);
    }
    g
}

// ---------------------------------------------------------------------------
// Random PIGs.
// ---------------------------------------------------------------------------

/// A random graph over `n` nodes, its edges inserted in shuffled order so
/// neighbor lists are not sorted.
fn random_graph(rng: &mut SplitMix64, n: usize, p: f64) -> UnGraph {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen_bool(p) {
                edges.push(if rng.gen_bool(0.5) { (u, v) } else { (v, u) });
            }
        }
    }
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.gen_range_usize(0, i + 1));
    }
    ungraph_of(n, &edges)
}

fn configs() -> Vec<PinterConfig> {
    let base = PinterConfig::default();
    vec![
        base,
        PinterConfig {
            spill_metric: SpillMetric::CostOverDegree,
            ..base
        },
        PinterConfig {
            edge_policy: EdgeRemovalPolicy::Pseudorandom { seed: 7 },
            ..base
        },
        PinterConfig {
            edge_policy: EdgeRemovalPolicy::DegreeRelief,
            ..base
        },
    ]
}

#[test]
fn combined_color_matches_heap_reference_on_random_pigs() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed);
    let mut ws = CombinedWorkspace::default();
    let mut removed = 0;
    for case in 0..60 {
        let n = rng.gen_range_usize(1, 70);
        let er = random_graph(&mut rng, n, 0.05 + 0.3 * (case % 4) as f64 / 4.0);
        let ef = random_graph(&mut rng, n, 0.1 + 0.6 * (case % 5) as f64 / 5.0);
        let ef_order: Vec<(usize, usize)> = ef.edges().collect();
        let pig = Pig::from_parts(er.clone(), ef.clone());
        assert_pig_matches(&pig, &er, &ef, &ef_order, &format!("random case {case}"));
        // Repeated priorities make ties the common case.
        let priority: Vec<u32> = (0..n).map(|_| rng.gen_range_usize(0, 12) as u32).collect();
        let costs: Vec<f64> = (0..n).map(|_| rng.gen_range_usize(1, 9) as f64).collect();
        for k in 2..=32 {
            // The scan policies share everything but the pick with least
            // benefit; a few register counts cover them.
            let all = [2, 3, 5, 8, 13].contains(&k);
            for config in configs().into_iter().take(if all { 4 } else { 2 }) {
                let got =
                    combined_color_in(&mut ws, &pig, k, &costs, &priority, &config, &NullTelemetry);
                let want = reference_color(&pig, k, &costs, &priority, &config);
                assert_eq!(got, want, "random case {case}, k = {k}, {config:?}");
                removed += got.removed_false_edges.len();
            }
        }
    }
    assert!(removed > 10_000, "only {removed} false edges removed");
}

#[test]
fn combined_color_matches_heap_reference_on_saturated_priorities() {
    // Priority sums that saturate u32 must still order by (a, b).
    let mut rng = SplitMix64::seed_from_u64(9);
    let mut ws = CombinedWorkspace::default();
    for case in 0..20 {
        let n = rng.gen_range_usize(2, 40);
        let pig = Pig::from_parts(
            random_graph(&mut rng, n, 0.2),
            random_graph(&mut rng, n, 0.6),
        );
        let priority: Vec<u32> = (0..n)
            .map(|_| u32::MAX - rng.gen_range_usize(0, 3) as u32)
            .collect();
        let costs = vec![1.0; n];
        let config = PinterConfig::default();
        for k in 2..8 {
            let got =
                combined_color_in(&mut ws, &pig, k, &costs, &priority, &config, &NullTelemetry);
            assert_eq!(
                got,
                reference_color(&pig, k, &costs, &priority, &config),
                "case {case}, k = {k}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Spill loops on benchmark-shaped DAGs.
// ---------------------------------------------------------------------------

/// The reference `Ef` over `problem`'s vertices, in the order the kernel
/// yields it: the literal complement of `Et`, each position pair mapped
/// onto every vertex defined at one × every vertex defined at the other.
fn reference_ef_order(
    problem: &BlockAllocProblem,
    deps: &DepGraph,
    machine: &MachineDesc,
) -> Vec<(usize, usize)> {
    let ef = et_graph(deps, machine, &NullTelemetry).complement();
    let mut order = Vec::new();
    for (i, j) in ef.edges() {
        for u in problem.nodes_defined_at(i) {
            order.extend(problem.nodes_defined_at(j).map(|v| (u, v)));
        }
    }
    order
}

/// Runs the allocator's combined spill loop on `func`, checking every
/// round's session PIG and [`Pig::build`] PIG against the neighbor-list
/// construction and every round's coloring against the heap reference.
/// Returns the number of rounds checked and of false edges removed.
fn check_spill_rounds(
    func: &Function,
    machine: &MachineDesc,
    ws: &mut CombinedWorkspace,
    ctx: &str,
) -> (usize, usize) {
    let block_id = BlockId(0);
    let k = machine.num_regs();
    let mut session = AllocSession::new();
    let mut slot: Option<Pig> = None;
    let mut current = func.clone();
    let mut next_slot = 0i64;
    let mut pending: Option<BlockRemap> = None;
    let protected_from = current.num_sym_regs();
    let mut removed = 0;
    for round in 0..12 {
        let ctx = format!("{ctx}, round {round}");
        let liveness = Liveness::compute(&current, &[]);
        let Ok(problem) = BlockAllocProblem::build(&current, block_id, &liveness) else {
            return (round, removed);
        };
        let block = current.block(block_id);
        match pending.take() {
            Some(remap) => session
                .rebuild_after_spill(block, &remap, &NullTelemetry)
                .expect("no deadline set"),
            None => session
                .begin(block, &NullTelemetry)
                .expect("no deadline set"),
        }
        session
            .build_pig_into(&problem, machine, &NullTelemetry, &mut slot)
            .expect("no deadline set");
        let pig = slot.as_ref().expect("session was begun, PIG must build");

        let deps = DepGraph::build(block, &NullTelemetry);
        let order = reference_ef_order(&problem, &deps, machine);
        let ef = ungraph_of(problem.len(), &order);
        let er = problem.interference();
        assert_pig_matches(pig, er, &ef, &order, &format!("session, {ctx}"));
        let built = Pig::build(&problem, &deps, machine, &NullTelemetry);
        assert_pig_matches(&built, er, &ef, &order, &format!("Pig::build, {ctx}"));

        let costs: Vec<f64> = (0..problem.len())
            .map(|n| match problem.nodes()[n] {
                Reg::Sym(s) if s.0 >= protected_from => 1e12,
                _ => problem.spill_cost(n),
            })
            .collect();
        let heights = deps.heights(machine).expect("block bodies are acyclic");
        let priority: Vec<u32> = (0..problem.len())
            .map(|n| problem.def_site(n).map_or(0, |i| heights[i]))
            .collect();
        let config = PinterConfig::default();
        let out = combined_color_in(ws, pig, k, &costs, &priority, &config, &NullTelemetry);
        assert_eq!(
            out,
            reference_color(pig, k, &costs, &priority, &config),
            "{ctx}"
        );
        removed += out.removed_false_edges.len();
        if out.spilled.is_empty() {
            return (round + 1, removed);
        }
        let spills: Vec<Reg> = out.spilled.iter().map(|&n| problem.nodes()[n]).collect();
        let (rewritten, _, remap) =
            insert_spill_code(&current, block_id, &spills, &mut next_slot, &NullTelemetry);
        pending = Some(remap);
        current = rewritten;
    }
    (12, removed)
}

#[test]
fn pig_large_shaped_rounds_match_references() {
    let mut removed = 0;
    // perfbench's pig-large shapes, fewer and smaller: chain-like (narrow
    // window) and parallel (wide window) DAGs on the paper machine, at its
    // 32 registers and at pressures that force false-edge removal.
    let mut ws = CombinedWorkspace::default();
    let mut rounds = 0;
    for i in 0..8usize {
        let params = DagParams {
            size: 60 + (i * 37) % 61,
            load_fraction: 0.05,
            float_fraction: 0.4,
            window: if i % 2 == 0 {
                2 + (i / 2) % 3
            } else {
                12 + (i / 2) % 13
            },
        };
        let func = random_dag_function(1000 + i as u64, &params);
        for regs in [32, 12, 6] {
            let ctx = format!("pig-large-shaped {i} on {regs} regs");
            let (r, e) = check_spill_rounds(&func, &presets::paper_machine(regs), &mut ws, &ctx);
            (rounds, removed) = (rounds + r, removed + e);
        }
    }
    assert!(rounds >= 30, "only {rounds} rounds checked");
    assert!(removed >= 10_000, "only {removed} false edges removed");
}

#[test]
fn spill_tight_shaped_rounds_match_references() {
    let mut removed = 0;
    // perfbench's spill-tight shapes: wide DAGs on six registers, so every
    // function runs several spill rounds through the incremental session.
    let mut ws = CombinedWorkspace::default();
    let mut rounds = 0;
    for i in 0..12usize {
        let params = DagParams {
            size: 44 + i % 9,
            load_fraction: 0.25,
            float_fraction: 0.4,
            window: 24 + (i * 7) % 25,
        };
        let func = random_dag_function(2000 + i as u64, &params);
        for machine in [
            presets::paper_machine(6),
            presets::rs6000(6),
            presets::wide(4, 5),
        ] {
            let ctx = format!("spill-tight-shaped {i} on {}", machine.name());
            let (r, e) = check_spill_rounds(&func, &machine, &mut ws, &ctx);
            (rounds, removed) = (rounds + r, removed + e);
        }
    }
    assert!(rounds >= 60, "only {rounds} rounds checked");
    assert!(removed >= 10_000, "only {removed} false edges removed");
}

/// The global region loop's false edges as they were built before the
/// kernel: per region, the complement of `Et` remapped onto the web of
/// each position's first definition, in `Ef`'s edge order.
fn reference_web_false_edges(func: &Function, machine: &MachineDesc) -> UnGraph {
    let defuse = DefUse::compute(func);
    let webs = Webs::compute(&defuse);
    let def_id_at = |id: InstId, nth: usize| {
        let mut defs = defuse.defs().iter();
        DefId(
            defs.position(|&(site, _)| site == DefSite::Inst(id, nth))
                .expect("enumerated"),
        )
    };
    let mut false_edges = UnGraph::new(webs.len());
    for region in &form_regions(func, &Cfg::new(func)) {
        let mut concat = Block::new("region");
        let mut origin = Vec::new();
        for &bid in region.blocks() {
            for (i, inst) in func.block(bid).body().iter().enumerate() {
                concat.push(inst.clone());
                origin.push(InstId::new(bid, i));
            }
        }
        if origin.is_empty() || origin.len() > 400 {
            continue;
        }
        let deps = DepGraph::build(&concat, &NullTelemetry);
        let ef = et_graph(&deps, machine, &NullTelemetry).complement();
        let web_at = |pos: usize| {
            let id = origin[pos];
            (!func.inst(id).defs().is_empty()).then(|| webs.web_of(def_id_at(id, 0)))
        };
        for (i, j) in ef.edges() {
            if let (Some(u), Some(v)) = (web_at(i), web_at(j)) {
                if u != v {
                    false_edges.add_edge(u.0, v.0);
                }
            }
        }
    }
    false_edges
}

#[test]
fn web_pigs_match_references() {
    let mut ws = CombinedWorkspace::default();
    let (mut checked, mut false_edges) = (0, 0);
    for seed in 0..40u64 {
        let params = CfgParams {
            segments: 3 + (seed as usize % 4),
            ops_per_block: 3 + (seed as usize % 5),
        };
        let func = random_cfg_function(seed, &params);
        for machine in [presets::paper_machine(4), presets::wide(4, 6)] {
            let problem = GlobalAllocProblem::build(&func, &machine, &Budget::unlimited());
            let (er, ef) = (problem.interference(), problem.false_edges());
            let ctx = format!("web PIG of seed {seed} on {}", machine.name());
            let expected = reference_web_false_edges(&func, &machine);
            assert_eq!(ef.node_count(), expected.node_count(), "{ctx}");
            for w in 0..ef.node_count() {
                assert_eq!(ef.neighbors(w), expected.neighbors(w), "web {w}, {ctx}");
            }
            false_edges += ef.edge_count();
            let order: Vec<(usize, usize)> = ef.edges().collect();
            let pig = problem.pig();
            assert_pig_matches(&pig, er, ef, &order, &ctx);
            let n = pig.node_count();
            let costs: Vec<f64> = (0..n).map(|w| 1.0 + (w % 5) as f64).collect();
            let priority: Vec<u32> = (0..n).map(|w| (w * 7 % 11) as u32).collect();
            for k in [2, 3, 5] {
                let config = PinterConfig::default();
                let got =
                    combined_color_in(&mut ws, &pig, k, &costs, &priority, &config, &NullTelemetry);
                assert_eq!(
                    got,
                    reference_color(&pig, k, &costs, &priority, &config),
                    "{ctx}, k = {k}"
                );
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 80);
    assert!(false_edges >= 1_000, "only {false_edges} web false edges");
}

// ---------------------------------------------------------------------------
// Reference: copy coalescing into a separate quotient.
// ---------------------------------------------------------------------------

/// The class-level problem as coalescing built it before it worked in
/// place.
struct ReferenceQuotient {
    class_of: Vec<usize>,
    merged_moves: usize,
    er: UnGraph,
    false_edges: UnGraph,
    costs: Vec<f64>,
    priority: Vec<u32>,
}

/// Briggs coalescing over root-keyed `HashSet` adjacency, then class
/// tables built from the web-level ones in web-edge order.
fn reference_coalesce(problem: &GlobalAllocProblem, func: &Function, k: u32) -> ReferenceQuotient {
    let (webs, defuse) = (problem.webs(), problem.defuse());
    let nw = webs.len();
    let mut parent: Vec<usize> = (0..nw).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut er_adj: Vec<HashSet<usize>> = vec![HashSet::new(); nw];
    let mut false_adj: Vec<HashSet<usize>> = vec![HashSet::new(); nw];
    for (u, v) in problem.interference().edges() {
        er_adj[u].insert(v);
        er_adj[v].insert(u);
    }
    for (u, v) in problem.false_edges().edges() {
        false_adj[u].insert(v);
        false_adj[v].insert(u);
    }
    let mut moves = Vec::new();
    for (id, inst) in func.insts() {
        if let InstKind::Copy { .. } = inst.kind() {
            let wd = webs.web_of(defuse.def_at(id, 0));
            let site = UseSite { inst: id, nth: 0 };
            if let Some(&d) = defuse.reaching_defs(site).first() {
                moves.push((wd, webs.web_of(d)));
            }
        }
    }
    let mut merged_moves = 0;
    for (wd, ws) in moves {
        let a = find(&mut parent, wd.0);
        let b = find(&mut parent, ws.0);
        if a == b {
            merged_moves += 1;
            continue;
        }
        if er_adj[a].contains(&b) || false_adj[a].contains(&b) {
            continue;
        }
        let combined: HashSet<usize> = er_adj[a].union(&er_adj[b]).copied().collect();
        let significant = combined
            .iter()
            .filter(|&&n| er_adj[n].len() >= k as usize)
            .count();
        if significant >= k as usize {
            continue;
        }
        parent[b] = a;
        merged_moves += 1;
        for adj in [&mut er_adj, &mut false_adj] {
            let b_adj: Vec<usize> = adj[b].drain().collect();
            for n in b_adj {
                if n != a {
                    adj[n].remove(&b);
                    adj[n].insert(a);
                    adj[a].insert(n);
                }
            }
            adj[a].remove(&b);
        }
    }
    let mut class_of = vec![usize::MAX; nw];
    let mut n_classes = 0;
    for w in 0..nw {
        let r = find(&mut parent, w);
        if class_of[r] == usize::MAX {
            class_of[r] = n_classes;
            n_classes += 1;
        }
    }
    for w in 0..nw {
        let r = find(&mut parent, w);
        class_of[w] = class_of[r];
    }
    let mut er = UnGraph::new(n_classes);
    for (u, v) in problem.interference().edges() {
        er.add_edge(class_of[u], class_of[v]);
    }
    let mut false_edges = UnGraph::new(n_classes);
    for (u, v) in problem.false_edges().edges() {
        if class_of[u] != class_of[v] {
            false_edges.add_edge(class_of[u], class_of[v]);
        }
    }
    let mut costs = vec![0f64; n_classes];
    let mut priority = vec![0u32; n_classes];
    for w in 0..nw {
        costs[class_of[w]] += problem.costs()[w];
        priority[class_of[w]] = priority[class_of[w]].max(problem.priority()[w]);
    }
    ReferenceQuotient {
        class_of,
        merged_moves,
        er,
        false_edges,
        costs,
        priority,
    }
}

/// A self-loop whose two copies into `s6` read values that could issue in
/// one cycle: once `s5` joins the class of `s6`, its false edge to `s9`
/// must keep `s9` out.
const PARALLEL_COPY_SOURCES: &str = "func @par(s0, s1) {
entry:
    s5 = fadd s0, 2
    s6 = mov s5
loop:
    s7 = add s6, 1
    s9 = add s0, s1
    s6 = mov s9
    blt s7, 10, loop
exit:
    ret s6
}";

#[test]
fn in_place_coalescing_matches_reference() {
    let (mut checked, mut merged_webs) = (0, 0);
    let seeded = (0..40u64).map(|seed| {
        let params = CfgParams {
            segments: 2 + (seed as usize % 5),
            ops_per_block: 2 + (seed as usize % 4),
        };
        random_cfg_function(0xc0a1 + seed, &params)
    });
    let hand = parse_function(PARALLEL_COPY_SOURCES).expect("parses");
    for (case, func) in seeded.chain([hand]).enumerate() {
        for k in [2, 3, 4, 6, 8, 16] {
            let machine = presets::paper_machine(k);
            for scope in [GlobalScope::Function, GlobalScope::PerBlockBaseline] {
                let ctx = format!("case {case}, k = {k}, {scope:?}");
                let mut problem = GlobalAllocProblem::build(&func, &machine, &Budget::unlimited());
                if scope == GlobalScope::PerBlockBaseline {
                    problem.dedicate_cross_block_webs(&func);
                }
                let expected = reference_coalesce(&problem, &func, k);
                let (class_of, merged_moves) = problem.coalesce(&func, k);
                assert_eq!(class_of, expected.class_of, "class map, {ctx}");
                assert_eq!(merged_moves, expected.merged_moves, "merged moves, {ctx}");
                for (got, want) in [
                    (problem.interference(), &expected.er),
                    (problem.false_edges(), &expected.false_edges),
                ] {
                    assert_eq!(got.node_count(), want.node_count(), "{ctx}");
                    for c in 0..got.node_count() {
                        assert_eq!(got.neighbors(c), want.neighbors(c), "class {c}, {ctx}");
                    }
                }
                assert_eq!(problem.costs(), expected.costs, "costs, {ctx}");
                assert_eq!(problem.priority(), expected.priority, "priority, {ctx}");
                merged_webs += class_of.len() - problem.interference().node_count();
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 492);
    assert!(merged_webs >= 400, "only {merged_webs} webs merged");
}

// ---------------------------------------------------------------------------
// The `Ef` kernel against the literal complement of `Et`.
// ---------------------------------------------------------------------------

/// [`for_each_ef_pair`] over random universes, against
/// `et_graph(..).complement()` restricted to the universe: the same pairs
/// in the same order, on every preset and a parsed machine whose
/// single-instance memory unit makes loads and stores conflict pairwise.
#[test]
fn ef_kernel_matches_literal_complement() {
    let mut machines: Vec<MachineDesc> = ["single", "paper", "mips", "rs6000", "wide4"]
        .map(|m| presets::by_name(m, 8).expect("preset exists"))
        .into();
    machines.push(parse_machine_spec(MULTI_SPEC).expect("spec parses"));
    let mut rng = SplitMix64::seed_from_u64(0xef);
    let mut scratch = EfScratch::default();
    let mut pairs = 0;
    for seed in 0..24u64 {
        let params = DagParams {
            size: 4 + (seed as usize * 7) % 60,
            load_fraction: 0.3,
            float_fraction: 0.4,
            window: 2 + seed as usize % 12,
        };
        let func = random_dag_function(seed, &params);
        let deps = DepGraph::build(func.block(BlockId(0)), &NullTelemetry);
        let reach =
            Reachability::build(deps.graph(), ClosureMode::Auto, None).expect("no deadline set");
        for machine in &machines {
            let literal = et_graph(&deps, machine, &NullTelemetry).complement();
            for density in [1.0, 0.7, 0.3] {
                let mut universe = BitSet::new(deps.len());
                for i in (0..deps.len()).filter(|_| rng.gen_bool(density)) {
                    universe.insert(i);
                }
                let expected: Vec<(usize, usize)> = literal
                    .edges()
                    .filter(|&(i, j)| universe.contains(i) && universe.contains(j))
                    .collect();
                let mut got = Vec::new();
                for_each_ef_pair(
                    &deps,
                    &reach,
                    machine,
                    &universe,
                    &mut scratch,
                    None,
                    |i, j| got.push((i, j)),
                )
                .expect("no deadline set");
                let ctx = format!("seed {seed} on {}, density {density}", machine.name());
                assert_eq!(got, expected, "{ctx}");
                pairs += got.len();
            }
        }
    }
    assert!(pairs >= 10_000, "only {pairs} pairs checked");
}

// ---------------------------------------------------------------------------
// Reference: the reservation table as hash maps.
// ---------------------------------------------------------------------------

/// The booking table before it became flat rows: one hash-map entry per
/// booked `(cycle, unit)` and per booked cycle.
#[derive(Clone)]
struct ModelTable {
    unit_counts: Vec<usize>,
    issue_width: usize,
    unit_use: HashMap<(u32, usize), usize>,
    issue_use: HashMap<u32, usize>,
}

impl ModelTable {
    fn new(machine: &MachineDesc) -> ModelTable {
        ModelTable {
            unit_counts: machine.units().iter().map(|u| u.count).collect(),
            issue_width: machine.issue_width(),
            unit_use: HashMap::new(),
            issue_use: HashMap::new(),
        }
    }

    fn can_issue(&self, machine: &MachineDesc, class: OpClass, cycle: u32) -> bool {
        if self.issue_use.get(&cycle).copied().unwrap_or(0) >= self.issue_width {
            return false;
        }
        if class == OpClass::Nop {
            return true;
        }
        let unit = machine.route(class).unit;
        self.unit_use.get(&(cycle, unit)).copied().unwrap_or(0) < self.unit_counts[unit]
    }

    fn issue(&mut self, machine: &MachineDesc, class: OpClass, cycle: u32) {
        assert!(self.can_issue(machine, class, cycle));
        *self.issue_use.entry(cycle).or_insert(0) += 1;
        if class != OpClass::Nop {
            let unit = machine.route(class).unit;
            *self.unit_use.entry((cycle, unit)).or_insert(0) += 1;
        }
    }

    fn next_free_cycle(&self, machine: &MachineDesc, class: OpClass, from: u32) -> u32 {
        let mut c = from;
        while !self.can_issue(machine, class, c) {
            c += 1;
        }
        c
    }

    fn issued_at(&self, cycle: u32) -> usize {
        self.issue_use.get(&cycle).copied().unwrap_or(0)
    }
}

/// A machine with multi-instance units and an issue width below its unit
/// count, so unit limits and the width limit bind separately.
const MULTI_SPEC: &str = "\
machine multi
issue 3
regs 8
unit alu 2
unit fpu 2
unit mem 1
unit br 1
route int alu 1
route float fpu 3
route load mem 2
route store mem 1
route branch br 1
route call br 1
route nop alu 1
";

#[test]
fn reservation_table_matches_hash_map_model() {
    let mut machines = vec![
        presets::single_issue(8),
        presets::paper_machine(8),
        presets::mips_r3000(8),
        presets::rs6000(8),
        presets::wide(2, 8),
        presets::wide(4, 8),
        parse_machine_spec(MULTI_SPEC).expect("spec parses"),
    ];
    machines.extend(
        ["single", "paper", "mips", "rs6000", "wide4"]
            .map(|m| presets::by_name(m, 8).expect("preset exists")),
    );
    let mut rng = SplitMix64::seed_from_u64(0xb00c);
    let mut issued = 0;
    for machine in &machines {
        for seq in 0..60 {
            let mut table = machine.reservation_table();
            let mut model = ModelTable::new(machine);
            let mut saved: Option<(ReservationTable, ModelTable)> = None;
            // In-order sequences (how the schedulers book), then random ones.
            let mut floor = 0u32;
            for _ in 0..200 {
                let class = *rng.pick(&OpClass::ALL);
                let cycle = match rng.gen_range_usize(0, 10) {
                    0 => 1_000_000 + rng.gen_range_usize(0, 4) as u32,
                    1 => (1u32 << 31) + rng.gen_range_usize(0, 4) as u32,
                    _ if seq % 2 == 0 => floor + rng.gen_range_usize(0, 3) as u32,
                    _ => rng.gen_range_usize(0, 40) as u32,
                };
                let ctx = format!("{} seq {seq}: {class} at {cycle}", machine.name());
                let fits = model.can_issue(machine, class, cycle);
                assert_eq!(table.can_issue(machine, class, cycle), fits, "{ctx}");
                assert_eq!(
                    table.next_free_cycle(machine, class, cycle),
                    model.next_free_cycle(machine, class, cycle),
                    "{ctx}"
                );
                assert_eq!(table.issued_at(cycle), model.issued_at(cycle), "{ctx}");
                if fits {
                    table.issue(machine, class, cycle);
                    model.issue(machine, class, cycle);
                    if cycle < 1_000_000 {
                        floor = floor.max(cycle);
                    }
                    issued += 1;
                } else if rng.gen_bool(0.5) {
                    let c = model.next_free_cycle(machine, class, cycle);
                    table.issue(machine, class, c);
                    model.issue(machine, class, c);
                    issued += 1;
                }
                match rng.gen_range_usize(0, 40) {
                    0 => saved = Some((table.clone(), model.clone())),
                    1 => {
                        if let Some((t, m)) = &saved {
                            table.clone_from(t);
                            model = m.clone();
                        }
                    }
                    2 => {
                        table.clone_from(&machine.reservation_table());
                        model = ModelTable::new(machine);
                    }
                    _ => {}
                }
            }
            for c in (0..64).chain([1_000_000, 1_000_003, 1 << 31, u32::MAX]) {
                assert_eq!(table.issued_at(c), model.issued_at(c), "{}", machine.name());
                for class in OpClass::ALL {
                    assert_eq!(
                        table.can_issue(machine, class, c),
                        model.can_issue(machine, class, c),
                        "{} {class} at {c}",
                        machine.name()
                    );
                }
            }
        }
    }
    assert!(issued > 50_000, "only {issued} bookings");
}

#[test]
fn pig_stays_send_and_sync() {
    // The cached neighbor-list view must not cost `Pig` its thread safety:
    // batch workers and the daemon move PIGs across threads.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Pig>();
}
