//! The branch-and-bound search behind [`crate::solve`].
//!
//! One *subset level* fixes which registers are spilled (rewritten through
//! the shared spill-code pass); within a level the search enumerates
//! topological prefixes of the block's dependence graph, carrying the
//! *physical* machine state: issue cycles, the reservation frontier, and a
//! concrete register assignment. The assignment is canonical up to one
//! branch: a def reuses the freed register with the lowest last-write
//! cycle (register identity is a pure permutation, and among delay-free
//! free registers the oldest weakly dominates by an exchange argument),
//! and only when every free register would *delay* the issue — its
//! pending write-write constraint lands after the unconstrained issue
//! cycle — does the search also branch on taking a fresh register. That
//! write-after-write interaction is exactly what a purely symbolic search
//! gets wrong: which register a value reuses changes the output
//! dependences of the emitted code, so the search must price it.

use std::collections::HashMap;
use std::time::Instant;

use parsched_ir::liveness::Liveness;
use parsched_ir::{BlockId, Function, Inst, Reg};
use parsched_machine::MachineDesc;
use parsched_regalloc::BlockAllocProblem;
use parsched_sched::timing::{in_order_completion, BlockTiming, IssueClock};
use parsched_sched::DepGraph;
use parsched_telemetry::{NullTelemetry, Telemetry};

use crate::{ExactConfig, ExactError, ExactSolution};

/// Internal cap on rewritten body size: prefix sets are `u64` bitmasks.
const MASK_CAP: usize = 64;
/// Dominance-store entries kept per prefix set.
const DOM_CAP: usize = 12;

pub(crate) fn run(
    func: &Function,
    machine: &MachineDesc,
    config: &ExactConfig,
    deadline: Option<Instant>,
    prune: bool,
    telemetry: &dyn Telemetry,
) -> Result<ExactSolution, ExactError> {
    let _span = parsched_telemetry::span(telemetry, "exact.solve");
    if func.block_count() != 1 {
        return Err(ExactError::NotSingleBlock {
            blocks: func.block_count(),
        });
    }
    if func.inst_count() > config.max_insts {
        return Err(ExactError::TooLarge {
            insts: func.inst_count(),
            cap: config.max_insts,
        });
    }
    // The single-definition rules of the heuristic block allocators, from
    // the same problem builder.
    BlockAllocProblem::build(func, BlockId(0), &Liveness::compute(func, &[]))
        .map_err(ExactError::Problem)?;

    let mut search = Search {
        machine,
        max_nodes: config.max_nodes,
        deadline,
        prune,
        nodes: 0,
        pruned: 0,
        aborted: false,
        incomplete: false,
        min_regs_lb: u32::MAX,
        best: None,
    };

    let candidates = spill_candidates(func);
    // Seed an incumbent from the maximal spill set in program order, so a
    // tripped budget still returns a valid (if poor) solution whenever one
    // exists at all.
    if !candidates.is_empty() {
        let mut next_slot = 0i64;
        let (rewritten, inserted, _) = parsched_regalloc::spill::insert_spill_code(
            func,
            BlockId(0),
            &candidates,
            &mut next_slot,
            &NullTelemetry,
        );
        search.seed_program_order(&rewritten, candidates.len() as u32, inserted);
    }

    // Iterative deepening over spill-set size: any solution with fewer
    // spills lexicographically beats every larger spill set, so the first
    // level that ends with an incumbent at (or below) its size is final.
    let mut closed_at_level = false;
    'levels: for k in 0..=candidates.len() {
        let mut subset = Combinations::new(candidates.len(), k);
        while let Some(picked) = subset.next() {
            let (rewritten, inserted) = if k == 0 {
                (func.clone(), 0)
            } else {
                let spills: Vec<Reg> = picked.iter().map(|&i| candidates[i]).collect();
                let mut next_slot = 0i64;
                let (f, ins, _) = parsched_regalloc::spill::insert_spill_code(
                    func,
                    BlockId(0),
                    &spills,
                    &mut next_slot,
                    &NullTelemetry,
                );
                (f, ins)
            };
            search.search_block(&rewritten, k as u32, inserted);
            if search.aborted {
                break 'levels;
            }
        }
        if let Some(best) = &search.best {
            if best.spills <= k as u32 {
                closed_at_level = true;
                break;
            }
        }
    }

    let proven = closed_at_level && !search.aborted && !search.incomplete;
    if telemetry.enabled() {
        telemetry.counter("exact.nodes", search.nodes);
        telemetry.counter("exact.pruned", search.pruned);
        telemetry.counter("exact.proven_optimal", u64::from(proven));
    }
    match search.best {
        Some(best) => Ok(ExactSolution {
            function: best.function,
            block_cycles: vec![best.cycles],
            registers_used: best.regs,
            spilled_values: best.spills as usize,
            inserted_mem_ops: best.inserted_mem_ops,
            nodes: search.nodes,
            pruned: search.pruned,
            proven_optimal: proven,
        }),
        None => Err(ExactError::Infeasible {
            required: if search.min_regs_lb == u32::MAX {
                machine.num_regs() + 1
            } else {
                search.min_regs_lb
            },
            available: machine.num_regs(),
        }),
    }
}

/// Symbolic registers the spill rewriter can usefully spill: anything
/// with at least one use (a use-less def frees no pressure by spilling).
fn spill_candidates(func: &Function) -> Vec<Reg> {
    let block = func.block(BlockId(0));
    let mut used: Vec<Reg> = Vec::new();
    for inst in block.insts() {
        for u in inst.uses() {
            if u.is_sym() && !used.contains(&u) {
                used.push(u);
            }
        }
    }
    used.sort_unstable();
    used
}

/// The best full solution found so far, in final (physical) form.
struct Incumbent {
    function: Function,
    cycles: u32,
    regs: u32,
    spills: u32,
    inserted_mem_ops: usize,
}

struct Search<'a> {
    machine: &'a MachineDesc,
    max_nodes: u64,
    deadline: Option<Instant>,
    prune: bool,
    nodes: u64,
    pruned: u64,
    /// Node budget or deadline tripped: stop everywhere, optimality open.
    aborted: bool,
    /// Some subset was skipped outright (rewritten body over [`MASK_CAP`]).
    incomplete: bool,
    /// Minimum static register lower bound seen, for [`ExactError::Infeasible`].
    min_regs_lb: u32,
    best: Option<Incumbent>,
}

impl Search<'_> {
    fn best_triple(&self) -> Option<(u32, u32, u32)> {
        self.best.as_ref().map(|b| (b.spills, b.regs, b.cycles))
    }

    fn charge(&mut self, nodes: u64) -> bool {
        self.nodes += nodes;
        if self.nodes >= self.max_nodes {
            self.aborted = true;
        } else if self.nodes & 0x3ff < nodes {
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.aborted = true;
                }
            }
        }
        !self.aborted
    }

    /// Evaluates the program order of `func` as an incumbent candidate
    /// without searching (the greedy seed).
    fn seed_program_order(&mut self, func: &Function, spills: u32, inserted: usize) {
        let ctx = match BlockCtx::build(func, self.machine) {
            Some(ctx) => ctx,
            None => return,
        };
        let order: Vec<usize> = (0..ctx.n).collect();
        self.try_order(&ctx, &order, spills, inserted);
    }

    /// Walks `order` through the physical state under the deterministic
    /// maximum-reuse policy (never take a fresh register when a free one
    /// exists) and installs the result as the incumbent if it is
    /// lexicographically better. This is the greedy seed, not the search:
    /// the fresh-register branch is never taken here.
    fn try_order(&mut self, ctx: &BlockCtx, order: &[usize], spills: u32, inserted: usize) {
        let mut st = NodeState::root(ctx, self.machine);
        if st.max_pressure > self.machine.num_regs() {
            return;
        }
        for &j in order {
            let Some((f_min, _)) = st.def_options(ctx, self.machine, j) else {
                return;
            };
            st.apply(ctx, j, f_min);
            if st.max_pressure > self.machine.num_regs() {
                return;
            }
        }
        self.install(ctx, &st, spills, inserted);
    }

    /// Installs a completed state as the incumbent if it beats the
    /// current one. The state's own completion time is exact — the search
    /// carries the physical frontier — and the debug assert pins it to
    /// the in-order replay the schedule checker re-derives.
    fn install(&mut self, ctx: &BlockCtx, st: &NodeState, spills: u32, inserted: usize) {
        let cycles = st.clock.finish().1;
        let triple = (spills, st.distinct, cycles);
        if self.best_triple().is_some_and(|b| triple >= b) {
            return;
        }
        let function = ctx.build_function(&st.order, &st.assign);
        debug_assert_eq!(
            cycles,
            in_order_completion(function.block(BlockId(0)), self.machine),
            "search-carried completion must equal the in-order replay"
        );
        self.best = Some(Incumbent {
            function,
            cycles,
            regs: st.distinct,
            spills,
            inserted_mem_ops: inserted,
        });
    }

    /// Runs the branch-and-bound over one spill-rewritten block.
    fn search_block(&mut self, func: &Function, spills: u32, inserted: usize) {
        let ctx = match BlockCtx::build(func, self.machine) {
            Some(ctx) => ctx,
            None => {
                self.incomplete = true;
                return;
            }
        };
        if !self.charge(1 + ctx.n as u64) {
            return;
        }
        self.min_regs_lb = self.min_regs_lb.min(ctx.regs_lb);
        if ctx.regs_lb > self.machine.num_regs() {
            // No order fits the register file at this spill set.
            self.pruned += 1;
            return;
        }
        if self.prune {
            if let Some(b) = self.best_triple() {
                if (spills, ctx.regs_lb, ctx.cycles_lb) >= b {
                    self.pruned += 1;
                    return;
                }
            }
        }
        // Greedy incumbent for this subset: program order first, so the
        // bound pruning below starts with something to cut against.
        self.try_order(&ctx, &(0..ctx.n).collect::<Vec<_>>(), spills, inserted);

        let mut st = NodeState::root(&ctx, self.machine);
        if st.max_pressure > self.machine.num_regs() {
            // Entry liveness alone overflows the file.
            self.pruned += 1;
            return;
        }
        let mut dom: HashMap<u64, Vec<DomEntry>> = HashMap::new();
        self.dfs(&ctx, &mut st, &mut dom, spills, inserted);
    }

    fn dfs(
        &mut self,
        ctx: &BlockCtx,
        st: &mut NodeState,
        dom: &mut HashMap<u64, Vec<DomEntry>>,
        spills: u32,
        inserted: usize,
    ) {
        if self.aborted {
            return;
        }
        if st.order.len() == ctx.n {
            self.install(ctx, st, spills, inserted);
            return;
        }
        let mut ready: Vec<usize> = (0..ctx.n)
            .filter(|&j| st.mask & (1 << j) == 0 && ctx.pred_mask[j] & !st.mask == 0)
            .collect();
        // Tallest first: good incumbents early make the bounds bite.
        ready.sort_by_key(|&j| (std::cmp::Reverse(ctx.timing.heights()[j]), j));
        for j in ready {
            // Register choices for this step: maximum reuse always, plus
            // progressively more fresh registers when every free register
            // would delay the issue (the write-after-write branch). `None`
            // means the register file is exhausted on this path.
            let Some((f_min, f_max)) = st.def_options(ctx, self.machine, j) else {
                self.pruned += 1;
                continue;
            };
            for fresh in f_min..=f_max {
                if !self.charge(1) {
                    return;
                }
                let frame = st.apply(ctx, j, fresh);
                let feasible = st.max_pressure <= self.machine.num_regs();
                let mut cut = !feasible;
                if !cut && self.prune {
                    if let Some(b) = self.best_triple() {
                        let regs_lb = st.max_pressure.max(st.distinct);
                        if (spills, regs_lb, st.cycle_bound(ctx)) >= b {
                            cut = true;
                        }
                    }
                    if !cut && self.dominated(ctx, st, dom) {
                        cut = true;
                    }
                }
                if cut {
                    self.pruned += 1;
                } else {
                    self.dfs(ctx, st, dom, spills, inserted);
                }
                st.undo(ctx, frame);
                if self.aborted {
                    return;
                }
            }
        }
    }

    /// Prefix dominance over the *physical* state: a stored state with the
    /// same scheduled set that is no worse on pressure, registers taken,
    /// completion, every pending release, the reservation frontier, each
    /// live value's pending write-write constraint, and the free-register
    /// pool (a sorted multiset matching, fresh registers included) can
    /// mirror any continuation of this state register-for-register and
    /// issue every mirrored instruction no later — so this state is
    /// redundant. Pending-write cycles are clamped to the state's own
    /// in-order floor before comparing: a constraint at or below the floor
    /// can never bind again, so clamping strengthens the rule soundly.
    fn dominated(
        &mut self,
        ctx: &BlockCtx,
        st: &NodeState,
        dom: &mut HashMap<u64, Vec<DomEntry>>,
    ) -> bool {
        let num_regs = self.machine.num_regs();
        let mut val_ready = vec![0u32; ctx.vals.len()];
        for (v, r) in val_ready.iter_mut().enumerate() {
            if st.alive[v] {
                if let Some(reg) = st.assign[v] {
                    *r = st.reg_ready[reg as usize].max(st.clock.floor());
                }
            }
        }
        let mut avail: Vec<u32> = (0..num_regs)
            .filter(|&r| !st.reg_live[r as usize])
            .map(|r| st.reg_ready[r as usize].max(st.clock.floor()))
            .collect();
        avail.sort_unstable();
        let clock = &st.clock;
        let entry = DomEntry {
            max_pressure: st.max_pressure,
            distinct: st.distinct,
            completion: clock.completion(),
            term_release: clock.term_release(),
            floor: clock.floor(),
            floor_counts: st.floor_counts,
            release: (0..ctx.n).map(|j| clock.release(j)).collect(),
            val_ready: val_ready.into_boxed_slice(),
            avail: avail.into_boxed_slice(),
        };
        let unscheduled = !st.mask;
        let stored = dom.entry(st.mask).or_default();
        if stored
            .iter()
            .any(|e| e.dominates(&entry, ctx.n, unscheduled, &st.alive))
        {
            return true;
        }
        stored.retain(|e| !entry.dominates(e, ctx.n, unscheduled, &st.alive));
        if stored.len() < DOM_CAP {
            stored.push(entry);
        }
        false
    }
}

/// One stored search prefix for dominance comparison. Both compared
/// entries share the scheduled-set mask, so they agree on which values
/// are alive and on the length of the free-register pool.
struct DomEntry {
    max_pressure: u32,
    distinct: u32,
    completion: u32,
    term_release: u32,
    floor: u32,
    floor_counts: [u8; 7],
    release: Box<[u32]>,
    /// Floor-clamped pending-write cycle of each *live* value's register
    /// (dead slots are zero and never compared).
    val_ready: Box<[u32]>,
    /// Sorted floor-clamped pending-write cycles of every register not
    /// holding a live value — fresh registers contribute their zero.
    avail: Box<[u32]>,
}

impl DomEntry {
    /// Whether `self` dominates `other` (same prefix set assumed). The
    /// frontier condition: strictly earlier floor, or the same floor with
    /// a sub-multiset of same-cycle issues — either way every future issue
    /// of `other` can be mirrored no later from `self`. The register
    /// conditions carry the mirror through the assignment: per live value
    /// the same value's register is no more constrained, and the sorted
    /// free pools match componentwise (with `distinct` ≤ guaranteeing the
    /// mirror never runs out of fresh registers).
    fn dominates(&self, other: &DomEntry, n: usize, unscheduled: u64, alive: &[bool]) -> bool {
        if self.max_pressure > other.max_pressure
            || self.distinct > other.distinct
            || self.completion > other.completion
            || self.term_release > other.term_release
            || self.floor > other.floor
        {
            return false;
        }
        if self.floor == other.floor
            && self
                .floor_counts
                .iter()
                .zip(other.floor_counts.iter())
                .any(|(a, b)| a > b)
        {
            return false;
        }
        if !(0..n)
            .filter(|&j| unscheduled & (1 << j) != 0)
            .all(|j| self.release[j] <= other.release[j])
        {
            return false;
        }
        if alive
            .iter()
            .enumerate()
            .any(|(v, &a)| a && self.val_ready[v] > other.val_ready[v])
        {
            return false;
        }
        self.avail
            .iter()
            .zip(other.avail.iter())
            .all(|(a, b)| a <= b)
    }
}

/// A value in the block's single-assignment view: a live-in register
/// (`def == None`) or the single def of a register.
struct ValueInfo {
    reg: Reg,
    def: Option<usize>,
    /// Total use occurrences, terminator included.
    uses: u32,
    term_uses: u32,
    /// Body positions with at least one use, as a bitmask.
    use_mask: u64,
}

impl ValueInfo {
    fn new(reg: Reg, def: Option<usize>) -> ValueInfo {
        ValueInfo {
            reg,
            def,
            uses: 0,
            term_uses: 0,
            use_mask: 0,
        }
    }
}

/// Everything precomputed about one (possibly spill-rewritten) block.
struct BlockCtx<'m> {
    func: Function,
    n: usize,
    timing: BlockTiming<'m>,
    pred_mask: Vec<u64>,
    vals: Vec<ValueInfo>,
    val_of: HashMap<Reg, usize>,
    use_vals: Vec<Vec<usize>>,
    def_vals: Vec<Vec<usize>>,
    live_ins: Vec<usize>,
    /// Static must-overlap register bound (max antichain of live values).
    regs_lb: u32,
    /// Static critical-path cycle bound.
    cycles_lb: u32,
}

impl<'m> BlockCtx<'m> {
    /// Returns `None` when the body exceeds the `u64` mask cap.
    fn build(func: &Function, machine: &'m MachineDesc) -> Option<BlockCtx<'m>> {
        let block = func.block(BlockId(0));
        let body = block.body();
        let n = body.len();
        if n > MASK_CAP {
            return None;
        }
        let deps = DepGraph::build(block, &NullTelemetry);
        let timing = BlockTiming::new(block, &deps, machine);
        let graph = deps.graph();
        let pred_mask: Vec<u64> = (0..n)
            .map(|i| graph.preds(i).iter().fold(0, |m, &p| m | 1 << p))
            .collect();

        let term_uses: Vec<Reg> = block.terminator().map(Inst::uses).unwrap_or_default();

        // Single-assignment value view (preconditions already verified).
        let mut vals: Vec<ValueInfo> = Vec::new();
        let mut val_of: HashMap<Reg, usize> = HashMap::new();
        let mut use_vals: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut def_vals: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, inst) in body.iter().enumerate() {
            for u in inst.uses() {
                let v = *val_of.entry(u).or_insert_with(|| {
                    vals.push(ValueInfo::new(u, None));
                    vals.len() - 1
                });
                vals[v].uses += 1;
                vals[v].use_mask |= 1 << i;
                use_vals[i].push(v);
            }
            for d in inst.defs() {
                let v = vals.len();
                vals.push(ValueInfo::new(d, Some(i)));
                val_of.insert(d, v);
                def_vals[i].push(v);
            }
        }
        for &u in &term_uses {
            let v = *val_of.entry(u).or_insert_with(|| {
                vals.push(ValueInfo::new(u, None));
                vals.len() - 1
            });
            vals[v].uses += 1;
            vals[v].term_uses += 1;
        }
        let live_ins: Vec<usize> = (0..vals.len()).filter(|&v| vals[v].def.is_none()).collect();

        // Reachability of the (index-increasing) dependence DAG, via the
        // same query engine the heuristic pipeline uses.
        let reach = match parsched_graph::Reachability::build(
            graph,
            parsched_graph::ClosureMode::Auto,
            None,
        ) {
            Some(r) => r,
            None => unreachable!("no deadline is set"),
        };
        // Must-overlap bound: value v is live at i in *every* order when
        // its def precedes i (or is i) and some use at/after i (or the
        // terminator) follows.
        let mut regs_lb = live_ins.len() as u32;
        for i in 0..n {
            let mut live_here = 0u32;
            for v in &vals {
                let def_before = match v.def {
                    None => true,
                    Some(d) => d == i || reach.reaches(d, i),
                };
                let use_after = v.term_uses > 0
                    || v.use_mask & (1u64 << i) != 0
                    || reach.row_iter(i).any(|j| v.use_mask & (1u64 << j) != 0);
                if def_before && use_after && v.uses > 0 {
                    live_here += 1;
                }
            }
            regs_lb = regs_lb.max(live_here);
        }
        let mut cycles_lb = timing.heights().iter().copied().max().unwrap_or(0);
        if block.terminator().is_some() {
            cycles_lb = cycles_lb.max(1);
        }

        Some(BlockCtx {
            func: func.clone(),
            n,
            timing,
            pred_mask,
            vals,
            val_of,
            use_vals,
            def_vals,
            live_ins,
            regs_lb,
            cycles_lb,
        })
    }

    /// Builds the physical function for `order` under the search's
    /// recorded value→register assignment. Dead parameters keep their
    /// symbolic names (the heuristic allocators' convention, which the
    /// alloc checker expects).
    fn build_function(&self, order: &[usize], assign: &[Option<u32>]) -> Function {
        let mut out = self.func.clone();
        let block = self.func.block(BlockId(0));
        let insts = order.iter().map(|&j| &block.body()[j]);
        *out.block_mut(BlockId(0)).insts_mut() = insts.chain(block.terminator()).cloned().collect();
        out.map_regs(|r| match self.val_of.get(&r).and_then(|&v| assign[v]) {
            Some(p) => Reg::phys(p),
            None => r,
        });
        out
    }
}

/// Mutable search state for one prefix, updated and undone in place.
/// Alongside the symbolic frontier it carries the *physical* register
/// state: which register each value sits in, which registers hold live
/// values, and each register's pending write-write constraint (the cycle
/// after its last in-block write, before which it cannot be redefined —
/// zero for registers only live-ins have touched, since a live-in has no
/// defining write inside the block).
struct NodeState<'c> {
    mask: u64,
    order: Vec<usize>,
    remaining: Vec<u32>,
    alive: Vec<bool>,
    cur_live: u32,
    max_pressure: u32,
    clock: IssueClock<'c>,
    /// Same-cycle issues per class at the clock's floor.
    floor_counts: [u8; 7],
    /// Physical register of each value once its def is scheduled (live-ins
    /// at the root); dead parameters stay `None` and keep symbolic names.
    assign: Vec<Option<u32>>,
    /// Earliest cycle each register may be redefined (last write + 1).
    reg_ready: Vec<u32>,
    /// Whether the register currently holds a live value.
    reg_live: Vec<bool>,
    /// Registers ever taken — indices `0..distinct` — and the final
    /// `registers_used` of the emitted code at a leaf.
    distinct: u32,
}

/// Undo record for one [`NodeState::apply`].
struct Frame<'c> {
    j: usize,
    died: Vec<usize>,
    /// `(register, previous reg_ready)` per def, in `def_vals[j]` order.
    def_regs: Vec<(u32, u32)>,
    distinct: u32,
    floor_counts: [u8; 7],
    max_pressure: u32,
    clock: IssueClock<'c>,
}

impl<'c> NodeState<'c> {
    fn root(ctx: &'c BlockCtx, machine: &MachineDesc) -> NodeState<'c> {
        let mut alive = vec![false; ctx.vals.len()];
        let mut assign = vec![None; ctx.vals.len()];
        // Live-ins enter in register order for determinism; an entry set
        // larger than the file is caught by the caller's pressure check
        // before any register index is used.
        let mut entry: Vec<usize> = ctx
            .live_ins
            .iter()
            .copied()
            .filter(|&v| ctx.vals[v].uses > 0)
            .collect();
        entry.sort_by_key(|&v| ctx.vals[v].reg);
        let cur_live = entry.len() as u32;
        let pool = (machine.num_regs() as usize).max(entry.len());
        let mut reg_live = vec![false; pool];
        for (r, &v) in entry.iter().enumerate() {
            alive[v] = true;
            assign[v] = Some(r as u32);
            reg_live[r] = true;
        }
        NodeState {
            mask: 0,
            order: Vec::with_capacity(ctx.n),
            remaining: ctx.vals.iter().map(|v| v.uses).collect(),
            alive,
            cur_live,
            max_pressure: cur_live,
            clock: ctx.timing.clock(),
            floor_counts: [0; 7],
            assign,
            reg_ready: vec![0; pool],
            reg_live,
            distinct: cur_live,
        }
    }

    /// The registers freed by scheduling `j` next, without mutating: every
    /// currently free taken register plus the registers of values whose
    /// last use is `j`, as `(reg_ready, register)` pairs.
    fn freed_by(&self, ctx: &BlockCtx, j: usize) -> Vec<(u32, u32)> {
        let mut free: Vec<(u32, u32)> = (0..self.distinct)
            .filter(|&r| !self.reg_live[r as usize])
            .map(|r| (self.reg_ready[r as usize], r))
            .collect();
        for &v in &ctx.use_vals[j] {
            if self.alive[v] {
                let occurrences = ctx.use_vals[j].iter().filter(|&&u| u == v).count() as u32;
                if self.remaining[v] == occurrences {
                    if let Some(r) = self.assign[v] {
                        if !free.contains(&(self.reg_ready[r as usize], r)) {
                            free.push((self.reg_ready[r as usize], r));
                        }
                    }
                }
            }
        }
        free.sort_unstable();
        free
    }

    /// The fresh-register branch range for scheduling `j` next:
    /// `Some((f_min, f_max))` where each `f` in the range is one child
    /// taking `f` fresh registers and reusing the `defs - f` oldest freed
    /// ones. When the oldest freed registers are all *delay-free* (their
    /// pending writes land at or before the unconstrained issue cycle),
    /// reuse weakly dominates every fresh alternative — the freed register
    /// can never constrain a later cycle once the floor passes it — so the
    /// range collapses to the single maximum-reuse child. `None` means the
    /// register file cannot supply the defs on this path.
    fn def_options(&self, ctx: &BlockCtx, machine: &MachineDesc, j: usize) -> Option<(u32, u32)> {
        let k = ctx.def_vals[j].len() as u32;
        if k == 0 {
            return Some((0, 0));
        }
        let free = self.freed_by(ctx, j);
        let fresh_avail = machine.num_regs().saturating_sub(self.distinct);
        let f_min = k.saturating_sub(free.len() as u32);
        let f_max = k.min(fresh_avail);
        if f_min > f_max {
            return None;
        }
        if f_min == f_max {
            return Some((f_min, f_min));
        }
        let c_base = self.clock.next_free(j, 0);
        let reuse = (k - f_min) as usize;
        if free[..reuse].iter().all(|&(ready, _)| ready <= c_base) {
            return Some((f_min, f_min));
        }
        Some((f_min, f_max))
    }

    /// Schedules `j` next with `fresh` of its defs in fresh registers and
    /// the rest reusing the oldest freed ones: issues it greedily under
    /// the write-after-write constraints of the chosen registers (the
    /// checker's replay policy) and updates liveness, releases, the
    /// frontier, and the register state. `fresh` must come from
    /// [`NodeState::def_options`].
    fn apply(&mut self, ctx: &BlockCtx, j: usize, fresh: u32) -> Frame<'c> {
        let mut frame = Frame {
            j,
            died: Vec::new(),
            def_regs: Vec::new(),
            distinct: self.distinct,
            floor_counts: self.floor_counts,
            max_pressure: self.max_pressure,
            clock: self.clock.clone(),
        };

        // Deaths first: a def may take a register its own operand frees.
        for &v in &ctx.use_vals[j] {
            self.remaining[v] -= 1;
            if self.remaining[v] == 0 && self.alive[v] {
                self.alive[v] = false;
                self.cur_live -= 1;
                if let Some(r) = self.assign[v] {
                    self.reg_live[r as usize] = false;
                }
                frame.died.push(v);
            }
        }

        // Pick registers: the `defs - fresh` oldest free ones, then fresh.
        let defs = &ctx.def_vals[j];
        let mut chosen: Vec<u32> = Vec::with_capacity(defs.len());
        if !defs.is_empty() {
            let mut free: Vec<(u32, u32)> = (0..self.distinct)
                .filter(|&r| !self.reg_live[r as usize])
                .map(|r| (self.reg_ready[r as usize], r))
                .collect();
            free.sort_unstable();
            let reuse = defs.len() - fresh as usize;
            chosen.extend(free[..reuse].iter().map(|&(_, r)| r));
            chosen.extend(self.distinct..self.distinct + fresh);
            self.distinct += fresh;
        }

        // Issue under the chosen registers' pending-write constraints.
        let earliest = chosen.iter().map(|&r| self.reg_ready[r as usize]).max();
        let old_floor = self.clock.floor();
        let c = self.clock.issue(j, earliest.unwrap_or(0));

        self.mask |= 1 << j;
        self.order.push(j);
        if c > old_floor {
            self.floor_counts = [0; 7];
        }
        self.floor_counts[ctx.timing.class(j) as usize] += 1;

        self.max_pressure = self.max_pressure.max(self.cur_live + defs.len() as u32);
        for (&v, &r) in defs.iter().zip(chosen.iter()) {
            frame.def_regs.push((r, self.reg_ready[r as usize]));
            self.assign[v] = Some(r);
            self.reg_ready[r as usize] = c + 1;
            // Dead defs hold their register only transiently: the write
            // (and its pending-write constraint) stays, liveness does not.
            if ctx.vals[v].uses > 0 {
                self.alive[v] = true;
                self.cur_live += 1;
                self.reg_live[r as usize] = true;
            }
        }
        frame
    }

    fn undo(&mut self, ctx: &BlockCtx, frame: Frame<'c>) {
        let j = frame.j;
        for (&v, &(r, old_ready)) in ctx.def_vals[j].iter().zip(frame.def_regs.iter()) {
            if ctx.vals[v].uses > 0 {
                self.alive[v] = false;
                self.cur_live -= 1;
                self.reg_live[r as usize] = false;
            }
            self.reg_ready[r as usize] = old_ready;
            self.assign[v] = None;
        }
        self.distinct = frame.distinct;
        for &v in &frame.died {
            self.alive[v] = true;
            self.cur_live += 1;
            if let Some(r) = self.assign[v] {
                self.reg_live[r as usize] = true;
            }
        }
        for &v in &ctx.use_vals[j] {
            self.remaining[v] += 1;
        }
        self.floor_counts = frame.floor_counts;
        self.max_pressure = frame.max_pressure;
        self.clock = frame.clock;
        self.mask &= !(1 << j);
        self.order.pop();
    }

    /// Admissible completion bound: scheduled work plus, for every pending
    /// instruction, its earliest possible issue extended by its critical
    /// path height.
    fn cycle_bound(&self, ctx: &BlockCtx) -> u32 {
        // Every result the terminator reads is in `completion` already.
        let mut bound = self.clock.completion();
        for j in 0..ctx.n {
            if self.mask & (1 << j) == 0 {
                bound = bound
                    .max(self.clock.release(j).max(self.clock.floor()) + ctx.timing.heights()[j]);
            }
        }
        bound
    }
}

/// Lexicographic k-subsets of `0..n` without materializing the whole set.
struct Combinations {
    n: usize,
    idx: Vec<usize>,
    started: bool,
    done: bool,
}

impl Combinations {
    fn new(n: usize, k: usize) -> Combinations {
        Combinations {
            n,
            idx: (0..k).collect(),
            started: false,
            done: k > n,
        }
    }

    fn next(&mut self) -> Option<&[usize]> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(&self.idx);
        }
        let k = self.idx.len();
        if k == 0 {
            self.done = true;
            return None;
        }
        let mut i = k;
        loop {
            if i == 0 {
                self.done = true;
                return None;
            }
            i -= 1;
            if self.idx[i] < self.n - (k - i) {
                self.idx[i] += 1;
                for x in i + 1..k {
                    self.idx[x] = self.idx[x - 1] + 1;
                }
                return Some(&self.idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinations_enumerate_in_order() {
        let mut c = Combinations::new(4, 2);
        let mut all = Vec::new();
        while let Some(s) = c.next() {
            all.push(s.to_vec());
        }
        assert_eq!(
            all,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
        let mut c = Combinations::new(3, 0);
        assert_eq!(c.next(), Some(&[][..]));
        assert_eq!(c.next(), None);
        let mut c = Combinations::new(2, 3);
        assert_eq!(c.next(), None);
    }
}
