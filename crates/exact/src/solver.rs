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
//!
//! Once a block's buffers are warm, a search node allocates only for the
//! dominance entry it stores: a step is undone from a record on
//! [`NodeState`]'s undo stacks and a pooled clock snapshot, ready lists
//! share one stack, and the dominance probe is built in scratch that is
//! copied only when it is stored.

use std::time::Instant;

use parsched_graph::FastMap;
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
        dom: FastMap::default(),
        probe: Vec::new(),
    };

    let candidates = spill_candidates(func);
    let all = candidates.len();
    // Iterative deepening over spill-set size: any solution with fewer
    // spills lexicographically beats every larger spill set, so the first
    // level that ends with an incumbent at (or below) its size is final.
    let mut closed_at_level = false;
    let mut reached_all_spilled = false;
    'levels: for k in 0..=all {
        reached_all_spilled = k == all;
        let mut subset = Combinations::new(all, k);
        while let Some(picked) = subset.next() {
            let spills: Vec<Reg> = picked.iter().map(|&i| candidates[i]).collect();
            let (rewritten, inserted) = spill_rewrite(func, &spills);
            // The all-spilled level's one subset in program order is the
            // fallback seed; it is installed before that level's bounds
            // cut against the incumbent.
            search.search_block(&rewritten, k as u32, inserted, k == all && k > 0);
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

    // A budget that trips before the all-spilled level with no incumbent
    // still returns a valid (if poor) solution whenever one exists: the
    // maximal spill set in program order, built only now. It charges no
    // nodes.
    let seeded = search.best.is_none() && !reached_all_spilled;
    if seeded {
        let (rewritten, inserted) = spill_rewrite(func, &candidates);
        if let Some(ctx) = BlockCtx::build(&rewritten, machine) {
            let mut st = NodeState::root(&ctx, machine);
            search.try_program_order(&ctx, &mut st, all as u32, inserted);
        }
    }

    let proven = closed_at_level && !search.aborted && !search.incomplete;
    if telemetry.enabled() {
        telemetry.counter("exact.nodes", search.nodes);
        telemetry.counter("exact.pruned", search.pruned);
        telemetry.counter("exact.seeded", u64::from(seeded));
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

/// `func` with `spills` rewritten through memory, and the number of
/// memory operations inserted.
fn spill_rewrite(func: &Function, spills: &[Reg]) -> (Function, usize) {
    if spills.is_empty() {
        return (func.clone(), 0);
    }
    let mut next_slot = 0i64;
    let (f, inserted, _) = parsched_regalloc::spill::insert_spill_code(
        func,
        BlockId(0),
        spills,
        &mut next_slot,
        &NullTelemetry,
    );
    (f, inserted)
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
    /// Prefix-dominance store of the block being searched, by prefix set.
    dom: FastMap<u64, Vec<DomEntry>>,
    /// The entry [`Search::dominated`] builds before it knows whether the
    /// entry is stored, laid out as [`DomEntry::data`].
    probe: Vec<u32>,
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

    /// Walks program order through the physical state from `st`'s root
    /// under the deterministic maximum-reuse policy (never take a fresh
    /// register when a free one exists), installs the result as the
    /// incumbent if it is lexicographically better, and rewinds `st` to
    /// the root. This is the greedy seed, not the search: the
    /// fresh-register branch is never taken here.
    fn try_program_order<'c>(
        &mut self,
        ctx: &'c BlockCtx,
        st: &mut NodeState<'c>,
        spills: u32,
        inserted: usize,
    ) {
        let num_regs = self.machine.num_regs();
        let machine = self.machine;
        let fits = st.max_pressure <= num_regs
            && (0..ctx.n).all(|j| match st.def_options(ctx, machine, j) {
                Some((f_min, _)) => {
                    st.apply(ctx, j, f_min);
                    st.max_pressure <= num_regs
                }
                None => false,
            });
        if fits {
            self.install(ctx, st, spills, inserted);
        }
        st.rewind(ctx);
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

    /// Runs the branch-and-bound over one spill-rewritten block. With
    /// `seed_first` the program-order incumbent goes in before the block
    /// is charged and bounded rather than after.
    fn search_block(&mut self, func: &Function, spills: u32, inserted: usize, seed_first: bool) {
        let ctx = match BlockCtx::build(func, self.machine) {
            Some(ctx) => ctx,
            None => {
                self.incomplete = true;
                return;
            }
        };
        let mut st = NodeState::root(&ctx, self.machine);
        if seed_first {
            self.try_program_order(&ctx, &mut st, spills, inserted);
        }
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
        if !seed_first {
            self.try_program_order(&ctx, &mut st, spills, inserted);
        }

        if st.max_pressure > self.machine.num_regs() {
            // Entry liveness alone overflows the file.
            self.pruned += 1;
            return;
        }
        self.dom.clear();
        self.dfs(&ctx, &mut st, spills, inserted);
    }

    fn dfs<'c>(&mut self, ctx: &'c BlockCtx, st: &mut NodeState<'c>, spills: u32, inserted: usize) {
        if self.aborted {
            return;
        }
        if st.order.len() == ctx.n {
            self.install(ctx, st, spills, inserted);
            return;
        }
        // Tallest first: good incumbents early make the bounds bite. The
        // node's ready list sits on the shared stack above its parent's.
        let start = st.ready.len();
        for &j in &ctx.by_height {
            if st.mask & (1 << j) == 0 && ctx.pred_mask[j] & !st.mask == 0 {
                st.ready.push(j);
            }
        }
        let end = st.ready.len();
        'ready: for at in start..end {
            let j = st.ready[at];
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
                    break 'ready;
                }
                st.apply(ctx, j, fresh);
                let feasible = st.max_pressure <= self.machine.num_regs();
                let mut cut = !feasible;
                if !cut && self.prune {
                    if let Some(b) = self.best_triple() {
                        let regs_lb = st.max_pressure.max(st.distinct);
                        if (spills, regs_lb, st.cycle_bound(ctx)) >= b {
                            cut = true;
                        }
                    }
                    if !cut && self.dominated(ctx, st) {
                        cut = true;
                    }
                }
                if cut {
                    self.pruned += 1;
                } else {
                    self.dfs(ctx, st, spills, inserted);
                }
                st.undo(ctx);
                if self.aborted {
                    break 'ready;
                }
            }
        }
        st.ready.truncate(start);
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
    fn dominated(&mut self, ctx: &BlockCtx, st: &NodeState) -> bool {
        let clock = &st.clock;
        let floor = clock.floor();
        let probe = &mut self.probe;
        probe.clear();
        probe.extend((0..ctx.n).map(|j| clock.release(j)));
        probe.extend((0..ctx.vals.len()).map(|v| match st.assign[v] {
            Some(reg) if st.alive[v] => st.reg_ready[reg as usize].max(floor),
            _ => 0,
        }));
        let avail_from = probe.len();
        probe.extend(
            (0..self.machine.num_regs() as usize)
                .filter(|&r| !st.reg_live[r])
                .map(|r| st.reg_ready[r].max(floor)),
        );
        probe[avail_from..].sort_unstable();
        let head = DomHead {
            max_pressure: st.max_pressure,
            distinct: st.distinct,
            completion: clock.completion(),
            term_release: clock.term_release(),
            floor,
            floor_counts: st.floor_counts,
        };
        let probe: &[u32] = probe;
        let cmp = DomCmp {
            ctx,
            unscheduled: !st.mask & ctx.all_mask,
            alive: &st.alive,
        };
        let stored = self.dom.entry(st.mask).or_default();
        if stored
            .iter()
            .any(|e| cmp.dominates((&e.head, &e.data), (&head, probe)))
        {
            return true;
        }
        stored.retain(|e| !cmp.dominates((&head, probe), (&e.head, &e.data)));
        if stored.len() < DOM_CAP {
            stored.push(DomEntry {
                head,
                data: probe.into(),
            });
        }
        false
    }
}

/// One stored search prefix for dominance comparison. Both compared
/// entries share the scheduled-set mask, so they agree on which values
/// are alive and on the length of the free-register pool.
struct DomEntry {
    head: DomHead,
    /// The pending release of every body instruction, then the
    /// floor-clamped pending-write cycle of each *live* value's register
    /// (dead slots are zero and never compared), then the sorted
    /// floor-clamped pending-write cycles of every register not holding a
    /// live value — fresh registers contribute their zero.
    data: Box<[u32]>,
}

/// The scalar part of a [`DomEntry`].
#[derive(Clone, Copy)]
struct DomHead {
    max_pressure: u32,
    distinct: u32,
    completion: u32,
    term_release: u32,
    floor: u32,
    floor_counts: [u8; 7],
}

/// What two entries of one prefix set are compared under.
struct DomCmp<'a> {
    ctx: &'a BlockCtx<'a>,
    /// Unscheduled body instructions.
    unscheduled: u64,
    alive: &'a [bool],
}

impl DomCmp<'_> {
    /// Whether entry `a` dominates entry `b`. The frontier condition:
    /// strictly earlier floor, or the same floor with a sub-multiset of
    /// same-cycle issues — either way every future issue of `b` can be
    /// mirrored no later from `a`. The register conditions carry the
    /// mirror through the assignment: per live value the same value's
    /// register is no more constrained, and the sorted free pools match
    /// componentwise (with `distinct` ≤ guaranteeing the mirror never runs
    /// out of fresh registers).
    fn dominates(&self, (a, a_data): (&DomHead, &[u32]), (b, b_data): (&DomHead, &[u32])) -> bool {
        if a.max_pressure > b.max_pressure
            || a.distinct > b.distinct
            || a.completion > b.completion
            || a.term_release > b.term_release
            || a.floor > b.floor
        {
            return false;
        }
        if a.floor == b.floor
            && a.floor_counts
                .iter()
                .zip(b.floor_counts.iter())
                .any(|(x, y)| x > y)
        {
            return false;
        }
        let mut rest = self.unscheduled;
        while rest != 0 {
            let j = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if a_data[j] > b_data[j] {
                return false;
            }
        }
        let n = self.ctx.n;
        let (a_vals, b_vals) = (&a_data[n..], &b_data[n..]);
        if self
            .alive
            .iter()
            .enumerate()
            .any(|(v, &live)| live && a_vals[v] > b_vals[v])
        {
            return false;
        }
        let avail_from = self.ctx.vals.len();
        a_vals[avail_from..]
            .iter()
            .zip(&b_vals[avail_from..])
            .all(|(x, y)| x <= y)
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
    /// Every body position, as a bitmask.
    all_mask: u64,
    timing: BlockTiming<'m>,
    pred_mask: Vec<u64>,
    /// Body positions tallest first (ties by position): the search's
    /// expansion order.
    by_height: Vec<usize>,
    vals: Vec<ValueInfo>,
    val_of: FastMap<Reg, usize>,
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
        let mut by_height: Vec<usize> = (0..n).collect();
        by_height.sort_unstable_by_key(|&j| (std::cmp::Reverse(timing.heights()[j]), j));

        let term_uses: Vec<Reg> = block.terminator().map(Inst::uses).unwrap_or_default();

        // Single-assignment value view (preconditions already verified).
        let mut vals: Vec<ValueInfo> = Vec::new();
        let mut val_of: FastMap<Reg, usize> = FastMap::default();
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

        let regs_lb = must_overlap_bound(&vals, &descendant_masks(&pred_mask), live_ins.len());
        let mut cycles_lb = timing.heights().iter().copied().max().unwrap_or(0);
        if block.terminator().is_some() {
            cycles_lb = cycles_lb.max(1);
        }

        Some(BlockCtx {
            func: func.clone(),
            n,
            all_mask: if n == MASK_CAP { !0 } else { (1 << n) - 1 },
            timing,
            pred_mask,
            by_height,
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

/// Each body position's strict descendants in the dependence DAG, as
/// bitmasks, from the predecessor masks in one reverse pass: every edge
/// points forward, so a position's descendants are complete before its
/// predecessors read them.
fn descendant_masks(pred_mask: &[u64]) -> Vec<u64> {
    let mut desc = vec![0u64; pred_mask.len()];
    for i in (0..pred_mask.len()).rev() {
        let below = desc[i] | 1 << i;
        let mut preds = pred_mask[i];
        while preds != 0 {
            desc[preds.trailing_zeros() as usize] |= below;
            preds &= preds - 1;
        }
    }
    desc
}

/// Must-overlap bound: value v is live at i in *every* order when its def
/// precedes i (or is i) and some use at/after i (or the terminator)
/// follows. The bound is the most such values at any position, and at
/// least the live-ins.
fn must_overlap_bound(vals: &[ValueInfo], desc: &[u64], live_ins: usize) -> u32 {
    let mut regs_lb = live_ins as u32;
    for (i, &below) in desc.iter().enumerate() {
        let here = 1u64 << i;
        let at_or_after = below | here;
        let live_here = vals
            .iter()
            .filter(|v| {
                let def_before = v.def.is_none_or(|d| (desc[d] | 1 << d) & here != 0);
                let use_after = v.term_uses > 0 || v.use_mask & at_or_after != 0;
                def_before && use_after && v.uses > 0
            })
            .count() as u32;
        regs_lb = regs_lb.max(live_here);
    }
    regs_lb
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
    /// One undo record per applied step, innermost last.
    frames: Vec<Frame>,
    /// Values that died at each applied step, in step order.
    died: Vec<usize>,
    /// `(register, previous reg_ready)` per def of each applied step.
    def_regs: Vec<(u32, u32)>,
    /// The clock before the step at each depth; the buffers are reused.
    clocks: Vec<IssueClock<'c>>,
    /// [`NodeState::apply`]'s scratch: the free pool as `(reg_ready,
    /// register)`, cut down to the registers chosen for the step's defs.
    free: Vec<(u32, u32)>,
    /// Ready lists of the open search nodes, stacked by depth.
    ready: Vec<usize>,
}

/// Undo record for one [`NodeState::apply`]; the step's died values and
/// def registers sit on the state's stacks from `died_from`/`def_from`.
struct Frame {
    j: usize,
    died_from: usize,
    def_from: usize,
    distinct: u32,
    floor_counts: [u8; 7],
    max_pressure: u32,
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
            frames: Vec::with_capacity(ctx.n),
            died: Vec::new(),
            def_regs: Vec::new(),
            clocks: Vec::with_capacity(ctx.n),
            free: Vec::with_capacity(pool),
            ready: Vec::new(),
        }
    }

    /// How many registers scheduling `j` next leaves free — every free
    /// taken register plus the registers of values whose last use is `j`
    /// — have their pending write at or before cycle `by`.
    fn freed_count(&self, ctx: &BlockCtx, j: usize, by: u32) -> u32 {
        let mut count = (0..self.distinct as usize)
            .filter(|&r| !self.reg_live[r] && self.reg_ready[r] <= by)
            .count() as u32;
        let uses = &ctx.use_vals[j];
        for (at, &v) in uses.iter().enumerate() {
            if !self.alive[v] || uses[..at].contains(&v) {
                continue;
            }
            let occurrences = uses.iter().filter(|&&u| u == v).count() as u32;
            if self.remaining[v] == occurrences {
                if let Some(r) = self.assign[v] {
                    count += u32::from(self.reg_ready[r as usize] <= by);
                }
            }
        }
        count
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
        let fresh_avail = machine.num_regs().saturating_sub(self.distinct);
        let f_min = k.saturating_sub(self.freed_count(ctx, j, u32::MAX));
        let f_max = k.min(fresh_avail);
        if f_min > f_max {
            return None;
        }
        if f_min == f_max {
            return Some((f_min, f_min));
        }
        // The `k - f_min` oldest freed registers are all delay-free
        // exactly when at least that many freed registers are.
        let c_base = self.clock.next_free(j, 0);
        if self.freed_count(ctx, j, c_base) >= k - f_min {
            return Some((f_min, f_min));
        }
        Some((f_min, f_max))
    }

    /// Schedules `j` next with `fresh` of its defs in fresh registers and
    /// the rest reusing the oldest freed ones: issues it greedily under
    /// the write-after-write constraints of the chosen registers (the
    /// checker's replay policy) and updates liveness, releases, the
    /// frontier, and the register state. `fresh` must come from
    /// [`NodeState::def_options`]; [`NodeState::undo`] reverts the step.
    fn apply(&mut self, ctx: &BlockCtx, j: usize, fresh: u32) {
        match self.clocks.get_mut(self.order.len()) {
            Some(saved) => saved.clone_from(&self.clock),
            None => self.clocks.push(self.clock.clone()),
        }
        self.frames.push(Frame {
            j,
            died_from: self.died.len(),
            def_from: self.def_regs.len(),
            distinct: self.distinct,
            floor_counts: self.floor_counts,
            max_pressure: self.max_pressure,
        });

        // Deaths first: a def may take a register its own operand frees.
        for &v in &ctx.use_vals[j] {
            self.remaining[v] -= 1;
            if self.remaining[v] == 0 && self.alive[v] {
                self.alive[v] = false;
                self.cur_live -= 1;
                if let Some(r) = self.assign[v] {
                    self.reg_live[r as usize] = false;
                }
                self.died.push(v);
            }
        }

        // Pick registers into `free`: the `defs - fresh` oldest free ones,
        // then fresh.
        let defs = &ctx.def_vals[j];
        let reuse = defs.len() - fresh as usize;
        self.free.clear();
        if reuse > 0 {
            let (reg_live, reg_ready) = (&self.reg_live, &self.reg_ready);
            self.free.extend(
                (0..self.distinct)
                    .filter(|&r| !reg_live[r as usize])
                    .map(|r| (reg_ready[r as usize], r)),
            );
            self.free.sort_unstable();
            self.free.truncate(reuse);
        }
        self.free
            .extend((self.distinct..self.distinct + fresh).map(|r| (0, r)));
        self.distinct += fresh;

        // Issue under the chosen registers' pending-write constraints.
        let earliest = self
            .free
            .iter()
            .map(|&(_, r)| self.reg_ready[r as usize])
            .max();
        let old_floor = self.clock.floor();
        let c = self.clock.issue(j, earliest.unwrap_or(0));

        self.mask |= 1 << j;
        self.order.push(j);
        if c > old_floor {
            self.floor_counts = [0; 7];
        }
        self.floor_counts[ctx.timing.class(j) as usize] += 1;

        self.max_pressure = self.max_pressure.max(self.cur_live + defs.len() as u32);
        for (&v, &(_, r)) in defs.iter().zip(&self.free) {
            self.def_regs.push((r, self.reg_ready[r as usize]));
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
    }

    /// Reverts the last [`NodeState::apply`].
    fn undo(&mut self, ctx: &BlockCtx) {
        let Some(frame) = self.frames.pop() else {
            return;
        };
        let j = frame.j;
        for (&v, &(r, old_ready)) in ctx.def_vals[j].iter().zip(&self.def_regs[frame.def_from..]) {
            if ctx.vals[v].uses > 0 {
                self.alive[v] = false;
                self.cur_live -= 1;
                self.reg_live[r as usize] = false;
            }
            self.reg_ready[r as usize] = old_ready;
            self.assign[v] = None;
        }
        self.def_regs.truncate(frame.def_from);
        self.distinct = frame.distinct;
        for &v in &self.died[frame.died_from..] {
            self.alive[v] = true;
            self.cur_live += 1;
            if let Some(r) = self.assign[v] {
                self.reg_live[r as usize] = true;
            }
        }
        self.died.truncate(frame.died_from);
        for &v in &ctx.use_vals[j] {
            self.remaining[v] += 1;
        }
        self.floor_counts = frame.floor_counts;
        self.max_pressure = frame.max_pressure;
        self.mask &= !(1 << j);
        self.order.pop();
        std::mem::swap(&mut self.clock, &mut self.clocks[self.order.len()]);
    }

    /// Reverts every applied step, back to the root.
    fn rewind(&mut self, ctx: &BlockCtx) {
        while !self.frames.is_empty() {
            self.undo(ctx);
        }
    }

    /// Admissible completion bound: scheduled work plus, for every pending
    /// instruction, its earliest possible issue extended by its critical
    /// path height.
    fn cycle_bound(&self, ctx: &BlockCtx) -> u32 {
        // Every result the terminator reads is in `completion` already.
        let mut bound = self.clock.completion();
        let floor = self.clock.floor();
        let mut rest = !self.mask & ctx.all_mask;
        while rest != 0 {
            let j = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            bound = bound.max(self.clock.release(j).max(floor) + ctx.timing.heights()[j]);
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
    use parsched_graph::{ClosureMode, Reachability};
    use parsched_machine::presets;
    use parsched_workload::{expr_tree_function, random_dag_function, DagParams, SplitMix64};

    /// The seeded corpus of `tests/exact.rs`: DAG blocks and expression
    /// trees on five machine presets with 4–8 registers.
    fn corpus(seed: u64, count: usize, max_size: usize) -> Vec<(Function, MachineDesc)> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut out = Vec::new();
        while out.len() < count {
            let func = if rng.gen_range_usize(0, 2) == 0 {
                random_dag_function(
                    rng.next_u64(),
                    &DagParams {
                        size: rng.gen_range_usize(3, max_size),
                        load_fraction: rng.gen_range_i64(0, 30) as f64 / 100.0,
                        float_fraction: rng.gen_range_i64(0, 40) as f64 / 100.0,
                        window: rng.gen_range_usize(2, 5),
                    },
                )
            } else {
                expr_tree_function(rng.next_u64(), 2, rng.gen_range_i64(0, 40) as f64 / 100.0)
            };
            if parsched_ir::verify::verify_function(&func, false).is_err() {
                continue;
            }
            let regs = *rng.pick(&[4u32, 6, 8]);
            let machine = match rng.gen_range_usize(0, 5) {
                0 => presets::single_issue(regs),
                1 => presets::paper_machine(regs),
                2 => presets::mips_r3000(regs),
                3 => presets::rs6000(regs),
                _ => presets::wide(4, regs),
            };
            out.push((func, machine));
        }
        out
    }

    /// The static bounds as first derived: the must-overlap register bound
    /// over the general [`Reachability`] closure of the dependence DAG,
    /// and the critical-path cycle bound.
    fn reference_bounds(ctx: &BlockCtx, machine: &MachineDesc) -> (u32, u32) {
        let block = ctx.func.block(BlockId(0));
        let deps = DepGraph::build(block, &NullTelemetry);
        let Some(reach) = Reachability::build(deps.graph(), ClosureMode::Auto, None) else {
            unreachable!("no deadline is set");
        };
        let mut regs_lb = ctx.live_ins.len() as u32;
        for i in 0..ctx.n {
            let mut live_here = 0u32;
            for v in &ctx.vals {
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
        let timing = BlockTiming::new(block, &deps, machine);
        let mut cycles_lb = timing.heights().iter().copied().max().unwrap_or(0);
        if block.terminator().is_some() {
            cycles_lb = cycles_lb.max(1);
        }
        (regs_lb, cycles_lb)
    }

    #[test]
    fn mask_bounds_match_the_reachability_reference() {
        let mut compared = 0;
        for (seed, count, max_size) in [(11, 30, 10), (23, 20, 10), (37, 15, 7)] {
            for (func, machine) in corpus(seed, count, max_size) {
                if BlockAllocProblem::build(&func, BlockId(0), &Liveness::compute(&func, &[]))
                    .is_err()
                {
                    continue;
                }
                // The block itself, each one-value spill and the
                // all-spilled form.
                let candidates = spill_candidates(&func);
                let mut forms = vec![func.clone()];
                forms.extend(candidates.iter().map(|&c| spill_rewrite(&func, &[c]).0));
                forms.push(spill_rewrite(&func, &candidates).0);
                for form in &forms {
                    let Some(ctx) = BlockCtx::build(form, &machine) else {
                        continue;
                    };
                    assert_eq!(
                        (ctx.regs_lb, ctx.cycles_lb),
                        reference_bounds(&ctx, &machine),
                        "{} on {}",
                        form.name(),
                        machine.name()
                    );
                    compared += 1;
                }
            }
        }
        assert!(compared >= 200, "only {compared} blocks compared");
    }

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
