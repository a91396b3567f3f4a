//! Global (inter-block) allocation: webs as vertices, region-wide false
//! dependences.
//!
//! The paper's Section 3 extension: vertices of the global interference
//! graph are *webs* — def-use chains combined by the "right number of
//! names" analysis (several definitions reaching one use must share a
//! register, Figure 6). The global false-dependence graph contributes an
//! edge between webs `u, v` whenever some member definitions `ui ∈ u`,
//! `vj ∈ v` lie in the same *region* (mutually plausible blocks) and could
//! issue in the same cycle. Claim 2 guarantees two definitions of one web
//! never execute in parallel, so Theorems 1 and 2 carry over.

use crate::allocator::{AllocError, BlockAllocation, BlockStrategy};
use crate::combined::CombinedWorkspace;
use crate::limits::Budget;
use crate::pig::Pig;
use crate::spill::SPILL_REGION;
use parsched_graph::{BitSet, ClosureMode, Reachability, UnGraph};
use parsched_ir::cfg::Cfg;
use parsched_ir::defuse::{DefId, DefSite, DefUse, UseSite};
use parsched_ir::liveness::Liveness;
use parsched_ir::loops::Loops;
use parsched_ir::webs::{WebId, Webs};
use parsched_ir::{Block, BlockId, Function, InstId, InstKind, MemAddr, Reg, RegRole};
use parsched_machine::MachineDesc;
use parsched_sched::falsedep::{for_each_ef_pair, EfScratch};
use parsched_sched::region::form_regions;
use parsched_sched::DepGraph;
use std::collections::HashMap;

/// The assembled global allocation problem.
#[derive(Debug)]
pub struct GlobalAllocProblem {
    webs: Webs,
    defuse: DefUse,
    er: UnGraph,
    false_edges: UnGraph,
    costs: Vec<f64>,
    priority: Vec<u32>,
}

// The transitive closure + complement per region is quadratic in region
// size; beyond this cap the region contributes no false edges (still sound
// — the PIG only loses parallelism information, never interference).
const REGION_EF_CAP: usize = 400;

impl GlobalAllocProblem {
    /// Builds the global problem: web interference from liveness plus
    /// region-restricted false-dependence edges on `machine`. The
    /// per-region false-edge pass skips regions larger than 400
    /// instructions or `budget.max_block_insts`, whichever is smaller
    /// (sound — the PIG loses parallelism information, never
    /// interference).
    pub fn build(func: &Function, machine: &MachineDesc, budget: &Budget) -> GlobalAllocProblem {
        let region_cap = budget
            .max_block_insts
            .map_or(REGION_EF_CAP, |m| m.min(REGION_EF_CAP));
        let defuse = DefUse::compute(func);
        let webs = Webs::compute(&defuse);
        let liveness = Liveness::compute(func, &[]);
        let nw = webs.len();

        // --- Interference over webs ---
        let mut er = UnGraph::new(nw);
        // Walk each block with a current-reaching-def map.
        for (b, block) in func.blocks().iter().enumerate() {
            let bid = BlockId(b);
            let mut current: HashMap<Reg, DefId> = HashMap::new();
            for &d in defuse.reaching_at_entry(bid) {
                current.insert(defuse.reg_of(d), d);
            }
            if b == func.entry().0 {
                // Parameters are defined at entry: each interferes with the
                // other live-in values.
                let live_in = liveness.live_in(bid);
                for (pi, &p) in func.params().iter().enumerate() {
                    let pweb = webs.web_of(defuse.param_def(pi));
                    for &other in live_in {
                        if other != p {
                            if let Some(&od) = current.get(&other) {
                                let ow = webs.web_of(od);
                                if ow != pweb {
                                    er.add_edge(pweb.0, ow.0);
                                }
                            }
                        }
                    }
                }
            }
            let per_inst = liveness.per_inst_live_out(func, bid);
            for (i, inst) in block.insts().iter().enumerate() {
                let id = InstId::new(bid, i);
                // Update current with this instruction's defs first, so the
                // def's own web is resolvable below.
                for (nth, d) in inst.defs().into_iter().enumerate() {
                    let did = defuse.def_at(id, nth);
                    current.insert(d, did);
                }
                for (nth, d) in inst.defs().into_iter().enumerate() {
                    let did = defuse.def_at(id, nth);
                    let dweb = webs.web_of(did);
                    for &live in &per_inst[i] {
                        if live == d {
                            continue;
                        }
                        if let Some(&ld) = current.get(&live) {
                            let lweb = webs.web_of(ld);
                            if lweb != dweb {
                                er.add_edge(dweb.0, lweb.0);
                            }
                        }
                    }
                }
            }
        }

        // --- Region-wide false edges ---
        let cfg = Cfg::new(func);
        let regions = form_regions(func, &cfg);
        let mut false_edges = UnGraph::new(nw);
        let mut priority = vec![0u32; nw];
        let mut kernel = EfScratch::default();
        for region in &regions {
            let len: usize = region
                .blocks()
                .iter()
                .map(|&b| func.block(b).body().len())
                .sum();
            if len == 0 || len > region_cap {
                continue;
            }
            // Concatenate member bodies (dominance order); remember the
            // webs each concatenated position defines, in result order.
            let mut concat = Block::new("region");
            let mut webs_at: Vec<Vec<WebId>> = Vec::with_capacity(len);
            for &bid in region.blocks() {
                for (i, inst) in func.block(bid).body().iter().enumerate() {
                    let id = InstId::new(bid, i);
                    let ws = (0..inst.defs().len()).map(|nth| webs.web_of(defuse.def_at(id, nth)));
                    webs_at.push(ws.collect());
                    concat.push(inst.clone());
                }
            }
            let deps = DepGraph::build(&concat, &parsched_telemetry::NullTelemetry);
            // Built dependence graphs are DAGs by construction; if that ever
            // failed, skipping the region only forfeits parallelism info.
            let Ok(heights) = deps.heights(machine) else {
                continue;
            };
            let mut defining = BitSet::new(webs_at.len());
            for (pos, (ws, &h)) in webs_at.iter().zip(&heights).enumerate() {
                if !ws.is_empty() {
                    defining.insert(pos);
                }
                for w in ws {
                    priority[w.0] = priority[w.0].max(h);
                }
            }
            let Some(reach) = Reachability::build(deps.graph(), ClosureMode::Auto, None) else {
                unreachable!("a closure without a deadline cannot trip")
            };
            // Every web one position defines pairs with every web the other
            // defines.
            let walked = for_each_ef_pair(
                &deps,
                &reach,
                machine,
                &defining,
                &mut kernel,
                None,
                |i, j| {
                    for &u in &webs_at[i] {
                        for &v in webs_at[j].iter().filter(|&&v| v != u) {
                            false_edges.add_edge(u.0, v.0);
                        }
                    }
                },
            );
            if walked.is_none() {
                unreachable!("an Ef walk without a deadline cannot trip");
            }
        }
        // Interference edges dominate: a pair that interferes must stay
        // separate regardless; keep the false flag only for non-Er pairs so
        // Lemma 3 classification happens inside Pig::from_parts (shared).

        // --- Costs: defs + uses per web, weighted by loop nesting ---
        // The paper (after Chaitin): "the cost function, in general, is a
        // function of the instruction's nesting level" — a def or use
        // inside a loop counts 10^depth.
        let loop_info = Loops::compute(func, &cfg);
        let mut costs = vec![0f64; nw];
        for (w, members) in webs.iter() {
            for &d in members {
                let mult = match defuse.site_of(d) {
                    DefSite::Param(_) => 1.0,
                    DefSite::Inst(id, _) => loop_info.cost_multiplier(id.block),
                };
                costs[w.0] += mult;
            }
        }
        for (site, reaching) in defuse.uses() {
            if let Some(&d) = reaching.first() {
                costs[webs.web_of(d).0] += loop_info.cost_multiplier(site.inst.block);
            }
        }

        GlobalAllocProblem {
            webs,
            defuse,
            er,
            false_edges,
            costs,
            priority,
        }
    }

    /// The web partition.
    pub fn webs(&self) -> &Webs {
        &self.webs
    }

    /// The def-use information the webs were computed from.
    pub fn defuse(&self) -> &DefUse {
        &self.defuse
    }

    /// For each web, whether it spans more than one basic block: some
    /// member definition or reached use lies in a different block than the
    /// rest. Parameters count as defined in the entry block, so a web that
    /// carries a parameter into a later block is cross-block.
    pub fn cross_block_webs(&self, func: &Function) -> Vec<bool> {
        let nw = self.webs.len();
        let mut home: Vec<Option<BlockId>> = vec![None; nw];
        let mut cross = vec![false; nw];
        let mut touch = |w: WebId, b: BlockId| match home[w.0] {
            None => home[w.0] = Some(b),
            Some(h) if h != b => cross[w.0] = true,
            Some(_) => {}
        };
        for (i, &(site, _)) in self.defuse.defs().iter().enumerate() {
            let b = match site {
                DefSite::Param(_) => func.entry(),
                DefSite::Inst(id, _) => id.block,
            };
            touch(self.webs.web_of(DefId(i)), b);
        }
        for (site, reaching) in self.defuse.uses() {
            if let Some(&d) = reaching.first() {
                touch(self.webs.web_of(d), site.inst.block);
            }
        }
        cross
    }

    /// Installs the per-block baseline model: every cross-block web
    /// receives a *dedicated* register, realized as an interference clique
    /// among the cross-block webs. Block-local webs still share freely.
    /// This is the classical pre-web global discipline (one register per
    /// value that lives across blocks) the paper's web construction
    /// improves on, kept as the comparison baseline for EXPERIMENTS.md.
    /// Returns how many webs were dedicated.
    pub fn dedicate_cross_block_webs(&mut self, func: &Function) -> usize {
        let cross = self.cross_block_webs(func);
        let ids: Vec<usize> = (0..self.webs.len()).filter(|&w| cross[w]).collect();
        for (i, &u) in ids.iter().enumerate() {
            for &v in &ids[i + 1..] {
                self.er.add_edge(u, v);
            }
        }
        ids.len()
    }

    /// Global interference graph over webs.
    pub fn interference(&self) -> &UnGraph {
        &self.er
    }

    /// Region-restricted false-dependence edges over webs.
    pub fn false_edges(&self) -> &UnGraph {
        &self.false_edges
    }

    /// Spill cost per vertex: defs + uses weighted by loop nesting.
    pub fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// Scheduling-height priority per vertex, for false-edge removal.
    pub fn priority(&self) -> &[u32] {
        &self.priority
    }

    /// The global PIG, built from copies of the two edge sets (the web
    /// loop moves them instead).
    pub fn pig(&self) -> Pig {
        Pig::from_parts(self.er.clone(), self.false_edges.clone())
    }

    /// Conservatively coalesces copy-related webs (Briggs criterion), in
    /// place: the source and destination of a `mov` are merged when they do
    /// not interfere, share no false-dependence edge (merging would
    /// serialize a parallel pair), and the merged node has fewer than `k`
    /// neighbors of significant degree — so coalescing never turns a
    /// colorable graph uncolorable. Copies whose ends land in one class
    /// become identity moves after rewriting and are deleted by the
    /// peephole.
    ///
    /// Afterwards [`interference`](Self::interference),
    /// [`false_edges`](Self::false_edges), [`pig`](Self::pig) and the cost
    /// and priority tables are over classes of webs, not webs. Returns each
    /// web's class and the number of copies whose ends share a class.
    pub fn coalesce(&mut self, func: &Function, k: u32) -> (Vec<usize>, usize) {
        let nw = self.webs.len();
        let k = k as usize;
        let mut parent: Vec<usize> = (0..nw).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        // Working graphs over union-find roots: a merged web keeps no edges.
        let mut er = self.er.clone();
        let mut gf = self.false_edges.clone();
        let mut merged_moves = 0usize;
        for (id, inst) in func.insts() {
            let InstKind::Copy { .. } = inst.kind() else {
                continue;
            };
            let site = UseSite { inst: id, nth: 0 };
            let Some(&src) = self.defuse.reaching_defs(site).first() else {
                continue;
            };
            let a = find(&mut parent, self.webs.web_of(self.defuse.def_at(id, 0)).0);
            let b = find(&mut parent, self.webs.web_of(src).0);
            if a == b {
                merged_moves += 1;
                continue;
            }
            if er.has_edge(a, b) || gf.has_edge(a, b) {
                continue;
            }
            // Briggs: neighbors of the merged node with degree >= k.
            let significant = er
                .neighbors(a)
                .iter()
                .chain(er.neighbors(b).iter().filter(|&&n| !er.has_edge(a, n)))
                .filter(|&&n| er.degree(n) >= k)
                .count();
            if significant >= k {
                continue;
            }
            // Merge b into a.
            parent[b] = a;
            merged_moves += 1;
            for g in [&mut er, &mut gf] {
                for n in g.neighbors(b).to_vec() {
                    g.remove_edge(b, n);
                    g.add_edge(a, n);
                }
            }
        }

        // Densify classes.
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

        // The class tables, edges in web-edge order.
        er.reset(n_classes);
        for (u, v) in self.er.edges() {
            let (cu, cv) = (class_of[u], class_of[v]);
            debug_assert_ne!(cu, cv, "coalescing merged interfering webs");
            er.add_edge(cu, cv);
        }
        gf.reset(n_classes);
        for (u, v) in self.false_edges.edges() {
            let (cu, cv) = (class_of[u], class_of[v]);
            if cu != cv {
                gf.add_edge(cu, cv);
            }
        }
        let mut costs = vec![0f64; n_classes];
        let mut priority = vec![0u32; n_classes];
        for (w, &c) in class_of.iter().enumerate() {
            costs[c] += self.costs[w];
            priority[c] = priority[c].max(self.priority[w]);
        }
        self.er = er;
        self.false_edges = gf;
        self.costs = costs;
        self.priority = priority;
        (class_of, merged_moves)
    }
}

/// Kept only because perfbench's `layers.rs` names the web allocator's
/// strategy this way; the web allocator takes [`BlockStrategy`].
pub type GlobalStrategy = BlockStrategy;

/// Scope of the allocator's register-sharing decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GlobalScope {
    /// One color per web, function-wide — the paper's global model.
    #[default]
    Function,
    /// Per-block baseline: webs that cross a block boundary get dedicated
    /// registers (an interference clique, see
    /// [`GlobalAllocProblem::dedicate_cross_block_webs`]); only block-local
    /// webs share. The comparison point for the global model.
    PerBlockBaseline,
}

/// Allocates registers for a whole function (any CFG shape) on `machine`.
///
/// # Examples
///
/// ```
/// use parsched_ir::parse_function;
/// use parsched_machine::presets;
/// use parsched_regalloc::global::{allocate_global_scoped, GlobalScope};
/// use parsched_regalloc::{BlockStrategy, Budget};
/// use parsched_telemetry::NullTelemetry;
///
/// let f = parse_function(
///     "func @abs(s0) {\nentry:\n    blt s0, 0, neg\npos:\n    ret s0\nneg:\n    s1 = neg s0\n    ret s1\n}",
/// )?;
/// let out = allocate_global_scoped(
///     &f,
///     &presets::paper_machine(4),
///     BlockStrategy::Chaitin,
///     GlobalScope::Function,
///     true,
///     &Budget::unlimited(),
///     &NullTelemetry,
/// )?;
/// assert_eq!(out.function.num_sym_regs(), 0, "fully physical");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// [`GlobalScope::Function`] is the paper's model: one color per web over
/// the whole function. [`GlobalScope::PerBlockBaseline`] dedicates a
/// register to every cross-block web before coloring (reported per round
/// as a `global.dedicated_webs` counter) — the measurement baseline that
/// global allocation is compared against.
///
/// `strategy` picks the coloring: [`BlockStrategy::Pinter`] colors the
/// web PIG, `Chaitin` and `LinearScan` Chaitin-color the web interference
/// graph, and `SpillAll` spills every original web up front.
///
/// Per-round progress is reported to `telemetry`: a `global.round` span
/// wraps each round (containing `global.problem`, `global.coalesce`, the
/// backend's coloring span, and `global.spill_rewrite`), with
/// `global.webs` / `global.interference_edges` / `global.false_edges` /
/// `global.merged_moves` counters per round, one `global.spill_web` event
/// per spilled web, and `global.rounds` / `global.spilled_webs` /
/// `global.removed_false_edges` / `global.inserted_mem_ops` totals on
/// success (the table in `docs/GLOBAL.md`, "Observability").
/// The round count is capped by `budget.max_spill_rounds`, the deadline
/// is checked at round boundaries, the class PIG is held to
/// `budget.max_pig_edges` (phase `pig.edges`), and region-restricted
/// false-edge construction honors `budget.max_block_insts` (see
/// [`GlobalAllocProblem::build`]).
///
/// # Errors
/// Returns [`AllocError::TooManyRounds`] if spilling fails to converge, or
/// [`AllocError::Budget`] when a limit trips.
pub fn allocate_global_scoped(
    func: &Function,
    machine: &MachineDesc,
    strategy: BlockStrategy,
    scope: GlobalScope,
    coalesce: bool,
    budget: &Budget,
    telemetry: &dyn parsched_telemetry::Telemetry,
) -> Result<BlockAllocation, AllocError> {
    let k = machine.num_regs();
    let mut current = func.clone();
    // Reload temporaries created by spill rewriting must never re-spill.
    let protected_from = current.num_sym_regs();
    let mut spilled_webs = 0usize;
    let mut removed_false_edges = 0usize;
    let mut inserted_mem_ops = 0usize;
    let mut next_slot: i64 = 0;
    // SpillAll must not pick the same register twice: a spilled definition
    // keeps its name (def + store), so its web would reappear every round.
    let mut spilled_once: std::collections::HashSet<Reg> = std::collections::HashSet::new();
    let mut combined_ws = CombinedWorkspace::default();

    let max_rounds = budget.rounds();
    for round in 1..=max_rounds {
        budget.check_deadline("global.deadline")?;
        let round_span = parsched_telemetry::span(telemetry, "global.round");
        let mut problem = {
            let _span = parsched_telemetry::span(telemetry, "global.problem");
            GlobalAllocProblem::build(&current, machine, budget)
        };
        if scope == GlobalScope::PerBlockBaseline {
            // Reload temporaries stay block-local, so the dedicated set
            // shrinks as spilling proceeds and convergence is preserved.
            let dedicated = problem.dedicate_cross_block_webs(&current);
            if telemetry.enabled() {
                telemetry.counter("global.dedicated_webs", dedicated as u64);
            }
        }
        let nw = problem.webs.len();
        if telemetry.enabled() {
            telemetry.counter("global.webs", nw as u64);
            telemetry.counter("global.interference_edges", problem.er.edge_count() as u64);
            telemetry.counter(
                "global.false_edges",
                problem.false_edges.edge_count() as u64,
            );
        }
        let class_of: Vec<usize> = if coalesce {
            let _span = parsched_telemetry::span(telemetry, "global.coalesce");
            let (class_of, merged_moves) = problem.coalesce(&current, k);
            if telemetry.enabled() {
                telemetry.counter("global.merged_moves", merged_moves as u64);
            }
            class_of
        } else {
            (0..nw).collect()
        };
        // One pass over the webs: a class holding a reload temporary is
        // protected from re-spilling by a prohibitive cost, and SpillAll
        // skips a class whose register it already spilled.
        let nc = problem.costs.len();
        let mut costs = problem.costs.clone();
        let mut spilled_before = vec![false; nc];
        for (w, &c) in class_of.iter().enumerate() {
            let reg = problem.webs.reg_of(WebId(w));
            if matches!(reg, Reg::Sym(sr) if sr.0 >= protected_from) {
                costs[c] = 1e12;
            }
            spilled_before[c] |= spilled_once.contains(&reg);
        }
        let (class_colors, class_spills, removed) = match strategy {
            // On webs, linear scan has no intervals to scan: it colors the
            // interference graph like Chaitin.
            BlockStrategy::Chaitin | BlockStrategy::LinearScan => {
                let out = crate::chaitin::chaitin_color(&problem.er, k, &costs, telemetry);
                (out.colors, out.spilled, 0)
            }
            BlockStrategy::Pinter(cfg) => {
                // After coloring the round reads only the webs and def-use
                // chains, so the class graphs move into the PIG.
                let pig = Pig::from_parts(
                    std::mem::replace(&mut problem.er, UnGraph::new(0)),
                    std::mem::replace(&mut problem.false_edges, UnGraph::new(0)),
                );
                budget.check_pig_edges("pig.edges", pig.edge_count() as u64)?;
                let out = crate::combined::combined_color_in(
                    &mut combined_ws,
                    &pig,
                    k,
                    &costs,
                    &problem.priority,
                    &cfg,
                    telemetry,
                );
                (out.colors, out.spilled, out.removed_false_edges.len())
            }
            BlockStrategy::SpillAll => {
                // Round 1 spills every unprotected class; later rounds
                // Chaitin-color the residue — reload temporaries and the
                // point-range defs feeding the stores.
                let all: Vec<usize> = (0..nc)
                    .filter(|&c| costs[c] < 1e12 && !spilled_before[c])
                    .collect();
                if all.is_empty() {
                    let out = crate::chaitin::chaitin_color(&problem.er, k, &costs, telemetry);
                    (out.colors, out.spilled, 0)
                } else {
                    (Vec::new(), all, 0)
                }
            }
        };
        removed_false_edges += removed;

        if class_spills.is_empty() {
            let colors: Vec<u32> = class_of.iter().map(|&c| class_colors[c]).collect();
            let rewritten = rewrite_with_webs(&current, &problem, &colors);
            let colors_used = colors
                .iter()
                .filter(|&&c| c != u32::MAX)
                .map(|&c| c + 1)
                .max()
                .unwrap_or(0);
            drop(round_span);
            if telemetry.enabled() {
                telemetry.counter("global.rounds", round as u64);
                telemetry.counter("global.spilled_webs", spilled_webs as u64);
                telemetry.counter("global.removed_false_edges", removed_false_edges as u64);
                telemetry.counter("global.inserted_mem_ops", inserted_mem_ops as u64);
            }
            return Ok(BlockAllocation {
                function: rewritten,
                colors_used,
                spilled_values: spilled_webs,
                removed_false_edges,
                inserted_mem_ops,
                rounds: round,
            });
        }

        let mut spilled_class = vec![false; nc];
        for &c in &class_spills {
            spilled_class[c] = true;
        }
        let spill_set: Vec<WebId> = (0..nw)
            .filter(|&w| spilled_class[class_of[w]])
            .map(WebId)
            .collect();
        spilled_once.extend(spill_set.iter().map(|&w| problem.webs.reg_of(w)));
        spilled_webs += spill_set.len();
        if telemetry.enabled() {
            for &w in &spill_set {
                telemetry.event("global.spill_web", &format!("web {}", w.0));
            }
        }
        let (rewritten, inserted) = {
            let _span = parsched_telemetry::span(telemetry, "global.spill_rewrite");
            insert_global_spill_code(&current, &problem, &spill_set, &mut next_slot)
        };
        inserted_mem_ops += inserted;
        current = rewritten;
    }
    Err(AllocError::TooManyRounds { limit: max_rounds })
}

/// Rewrites every register reference through its web's color: definitions
/// by their own web, uses by the web of their reaching definition.
fn rewrite_with_webs(func: &Function, problem: &GlobalAllocProblem, colors: &[u32]) -> Function {
    let phys_of_web = |w: WebId| -> Reg { Reg::phys(colors[w.0]) };
    let mut out = func.clone();
    // Params first.
    let new_params: Vec<Reg> = func
        .params()
        .iter()
        .enumerate()
        .map(|(pi, _)| phys_of_web(problem.webs.web_of(problem.defuse.param_def(pi))))
        .collect();

    for (b, block) in out.blocks_mut().iter_mut().enumerate() {
        for (i, inst) in block.insts_mut().iter_mut().enumerate() {
            let id = InstId::new(BlockId(b), i);
            // A register may be both read and written (`s1 = add s1, 1`),
            // each occurrence in its own web, so rewrite every operand by
            // role: a use through its reaching definition's web, a def
            // through its own.
            let (mut nth_use, mut nth_def) = (0, 0);
            inst.map_regs_by_role(|r, role| {
                let def = match role {
                    RegRole::Use => {
                        nth_use += 1;
                        let site = UseSite {
                            inst: id,
                            nth: nth_use - 1,
                        };
                        problem.defuse.reaching_defs(site).first().copied()
                    }
                    RegRole::Def => {
                        nth_def += 1;
                        Some(problem.defuse.def_at(id, nth_def - 1))
                    }
                };
                def.map_or(r, |d| phys_of_web(problem.webs.web_of(d)))
            });
        }
    }
    Function::new(func.name(), new_params, out.blocks().to_vec())
}

/// Spills whole webs: every member definition is followed by a store,
/// every use reached by a member definition reloads first. Spilled
/// parameters are stored at function entry.
fn insert_global_spill_code(
    func: &Function,
    problem: &GlobalAllocProblem,
    spilled: &[WebId],
    next_slot: &mut i64,
) -> (Function, usize) {
    let mut slot_of: HashMap<WebId, i64> = HashMap::new();
    for &w in spilled {
        slot_of.insert(w, *next_slot);
        *next_slot += 1;
    }
    let addr_of = |w: WebId| MemAddr::global(SPILL_REGION, slot_of[&w] * 8);
    let mut fresh = func.num_sym_regs();
    let mut inserted = 0usize;

    let mut new_blocks: Vec<Block> = Vec::new();
    for (b, block) in func.blocks().iter().enumerate() {
        let mut nb = Block::new(block.label());
        if b == func.entry().0 {
            for (pi, &p) in func.params().iter().enumerate() {
                let w = problem.webs.web_of(problem.defuse.param_def(pi));
                if slot_of.contains_key(&w) {
                    nb.push(InstKind::Store {
                        src: p,
                        addr: addr_of(w),
                        float: false,
                    });
                    inserted += 1;
                }
            }
        }
        for (i, inst) in block.insts().iter().enumerate() {
            let id = InstId::new(BlockId(b), i);
            let mut replacement: HashMap<Reg, Reg> = HashMap::new();
            for (nth, u) in inst.uses().into_iter().enumerate() {
                let site = UseSite { inst: id, nth };
                if let Some(&d) = problem.defuse.reaching_defs(site).first() {
                    let w = problem.webs.web_of(d);
                    if slot_of.contains_key(&w) && !replacement.contains_key(&u) {
                        let tmp = Reg::sym(fresh);
                        fresh += 1;
                        nb.push(InstKind::Load {
                            dst: tmp,
                            addr: addr_of(w),
                            float: false,
                        });
                        inserted += 1;
                        replacement.insert(u, tmp);
                    }
                }
            }
            let mut rewritten = inst.clone();
            if !replacement.is_empty() {
                // Only uses are replaced by role-aware rewriting.
                rewritten.map_regs_by_role(|r, role| match role {
                    RegRole::Use => *replacement.get(&r).unwrap_or(&r),
                    RegRole::Def => r,
                });
            }
            let defs = rewritten.defs();
            nb.push(rewritten);
            for (nth, d) in defs.into_iter().enumerate() {
                let w = problem.webs.web_of(problem.defuse.def_at(id, nth));
                if slot_of.contains_key(&w) {
                    nb.push(InstKind::Store {
                        src: d,
                        addr: addr_of(w),
                        float: false,
                    });
                    inserted += 1;
                }
            }
        }
        new_blocks.push(nb);
    }
    // Inserting loads/stores shifts instruction indices *within* blocks but
    // never reorders or renumbers blocks, so branch targets stay valid.
    (
        Function::new(func.name(), func.params().to_vec(), new_blocks),
        inserted,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combined::PinterConfig;

    fn galloc(
        f: &Function,
        m: &MachineDesc,
        strategy: BlockStrategy,
        coalesce: bool,
    ) -> Result<BlockAllocation, AllocError> {
        allocate_global_scoped(
            f,
            m,
            strategy,
            GlobalScope::Function,
            coalesce,
            &Budget::unlimited(),
            &parsched_telemetry::NullTelemetry,
        )
    }
    use parsched_ir::interp::{Interpreter, Memory};
    use parsched_ir::parse_function;
    use parsched_machine::presets;

    fn check_semantics(f: &Function, g: &Function, args: &[i64]) {
        let mut mem = Memory::new();
        mem.set_global("z", 0, 17);
        for a in 0..128 {
            mem.set_abs(a, a * 7 + 3);
        }
        let i = Interpreter::new();
        let before = i.run(f, args, mem.clone()).unwrap();
        let after = i.run(g, args, mem).unwrap();
        assert_eq!(before.return_value, after.return_value, "return values");
        assert_eq!(
            before
                .memory
                .snapshot()
                .into_iter()
                .filter(|((region, _), _)| region != SPILL_REGION)
                .collect::<Vec<_>>(),
            after
                .memory
                .snapshot()
                .into_iter()
                .filter(|((region, _), _)| region != SPILL_REGION)
                .collect::<Vec<_>>(),
            "memory effects"
        );
    }

    const LOOP: &str = r#"
        func @sum(s0) {
        entry:
            s1 = li 0
            s2 = li 0
        head:
            s3 = slt s2, s0
            beq s3, 0, done
        body:
            s4 = add s1, s2
            s1 = mov s4
            s5 = add s2, 1
            s2 = mov s5
            jmp head
        done:
            ret s1
        }
    "#;

    #[test]
    fn global_chaitin_allocates_loop() {
        let f = parse_function(LOOP).unwrap();
        let m = presets::paper_machine(8);
        let out = galloc(&f, &m, BlockStrategy::Chaitin, false).unwrap();
        assert_eq!(out.spilled_values, 0);
        assert!(out.colors_used <= 8);
        assert_eq!(out.function.num_sym_regs(), 0, "fully physical");
        check_semantics(&f, &out.function, &[10]);
    }

    #[test]
    fn global_pinter_allocates_loop() {
        let f = parse_function(LOOP).unwrap();
        let m = presets::paper_machine(8);
        let out = galloc(
            &f,
            &m,
            BlockStrategy::Pinter(PinterConfig::default()),
            false,
        )
        .unwrap();
        assert_eq!(out.spilled_values, 0);
        check_semantics(&f, &out.function, &[10]);
    }

    #[test]
    fn figure6_webs_share_one_register() {
        // Both arms define s1; the join uses it: one web, one register.
        let f = parse_function(
            r#"
            func @fig6(s0) {
            entry:
                beq s0, 0, other
            then:
                s1 = li 1
                jmp join
            other:
                s1 = li 2
            join:
                s2 = add s1, s1
                ret s2
            }
            "#,
        )
        .unwrap();
        let m = presets::paper_machine(8);
        let problem = GlobalAllocProblem::build(&f, &m, &Budget::unlimited());
        let du = &problem.defuse;
        let s1_defs = du.defs_of_reg(Reg::sym(1));
        assert_eq!(
            problem.webs.web_of(s1_defs[0]),
            problem.webs.web_of(s1_defs[1])
        );
        let out = galloc(
            &f,
            &m,
            BlockStrategy::Pinter(PinterConfig::default()),
            false,
        )
        .unwrap();
        check_semantics(&f, &out.function, &[0]);
        check_semantics(&f, &out.function, &[1]);
    }

    #[test]
    fn global_spilling_converges() {
        let f = parse_function(LOOP).unwrap();
        let m = presets::paper_machine(2);
        let out = galloc(&f, &m, BlockStrategy::Chaitin, false).unwrap();
        assert!(out.colors_used <= 2);
        check_semantics(&f, &out.function, &[7]);
        if out.spilled_values > 0 {
            assert!(out.inserted_mem_ops > 0);
        }
    }

    #[test]
    fn region_false_edges_connect_control_equivalent_defs() {
        // Straight-line chain of blocks: all one region; int/float defs in
        // different blocks can pair.
        let f = parse_function(
            r#"
            func @chain(s0) {
            a:
                s1 = add s0, 1
            b:
                s2 = fadd s0, 1
            c:
                s3 = add s1, 1
                s4 = fadd s2, 1
                s5 = add s3, s3
                s6 = fadd s4, s4
                s7 = add s5, s6
                ret s7
            }
            "#,
        )
        .unwrap();
        let m = presets::paper_machine(8);
        let problem = GlobalAllocProblem::build(&f, &m, &Budget::unlimited());
        assert!(
            problem.false_edges().edge_count() > 0,
            "cross-unit defs across control-equivalent blocks are parallelizable"
        );
        let out = galloc(
            &f,
            &m,
            BlockStrategy::Pinter(PinterConfig::default()),
            false,
        )
        .unwrap();
        check_semantics(&f, &out.function, &[4]);
    }

    #[test]
    fn disjoint_reuse_gets_two_registers_allowed() {
        // Two independent webs of one name may get different registers.
        let f = parse_function(
            r#"
            func @reuse(s9) {
            entry:
                s0 = li 1
                s1 = add s0, 1
                s0 = li 2
                s2 = add s0, s1
                ret s2
            }
            "#,
        )
        .unwrap();
        let m = presets::paper_machine(8);
        let out = galloc(&f, &m, BlockStrategy::Chaitin, false).unwrap();
        check_semantics(&f, &out.function, &[0]);
    }

    #[test]
    fn coalescing_merges_loop_copies() {
        let f = parse_function(LOOP).unwrap();
        let m = presets::paper_machine(8);
        let mut problem = GlobalAllocProblem::build(&f, &m, &Budget::unlimited());
        let nw = problem.webs().len();
        let (class_of, merged_moves) = problem.coalesce(&f, 8);
        assert!(merged_moves > 0, "loop induction copies coalesce");
        let n_classes = problem.interference().node_count();
        assert!(n_classes < nw);
        assert_eq!(class_of.len(), nw);
        assert!(class_of.iter().all(|&c| c < n_classes));
        assert_eq!(problem.false_edges().node_count(), n_classes);
        // Class interference stays free of self-edges by construction
        // (debug_assert) and properly colorable:
        let out = galloc(&f, &m, BlockStrategy::Chaitin, true).unwrap();
        check_semantics(&f, &out.function, &[10]);
    }

    #[test]
    fn coalescing_preserves_semantics_with_both_strategies() {
        for src in [LOOP] {
            let f = parse_function(src).unwrap();
            for strategy in [
                BlockStrategy::Chaitin,
                BlockStrategy::Pinter(PinterConfig::default()),
            ] {
                let m = presets::paper_machine(6);
                let out = galloc(&f, &m, strategy, true).unwrap();
                check_semantics(&f, &out.function, &[9]);
                assert!(out.colors_used <= 6);
            }
        }
    }

    #[test]
    fn coalescing_without_copies_is_identity() {
        // A function without copies coalesces nothing: every web is its own
        // class and the edge sets keep their size.
        let f = parse_function(
            r#"
            func @f(s0) {
            entry:
                s1 = add s0, 1
                s2 = mul s1, s0
                ret s2
            }
            "#,
        )
        .unwrap();
        let m = presets::paper_machine(8);
        let mut problem = GlobalAllocProblem::build(&f, &m, &Budget::unlimited());
        let nw = problem.webs().len();
        let edges = problem.interference().edge_count();
        let (class_of, merged_moves) = problem.coalesce(&f, 8);
        assert_eq!(class_of, (0..nw).collect::<Vec<_>>());
        assert_eq!(merged_moves, 0);
        assert_eq!(problem.interference().node_count(), nw);
        assert_eq!(problem.interference().edge_count(), edges);
    }
}
