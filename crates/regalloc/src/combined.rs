//! The paper's combined coloring procedure (Section 4).
//!
//! Works on the parallelizable interference graph. When registers suffice,
//! plain simplification colors the PIG and — by Theorem 1 — the allocation
//! keeps every parallel-scheduling option. Under pressure the algorithm
//! trades: first it *removes false-dependence edges* ("we are doing the job
//! of the scheduler when, due to register pressure, some parallelization
//! options are given away"), guided by scheduling priorities; only when no
//! profitable removal remains does it *spill*, choosing the victim by the
//! weighted metric `h*(v) = cost(v) / Σ w({u,v})`.
//!
//! The procedure reads the PIG's bit rows, never its neighbor lists.
//! Least-benefit removal sorts the run's false-only edges once into a
//! candidate array keyed by `(priority sum, a, b)` (one `u64` per edge:
//! the sum over the edge's lexicographic index). Each node's ranks sit in a
//! compressed sparse row table; when the node becomes savable its ranks
//! are set in an eligible bit array, and each removal takes the lowest
//! eligible rank whose edge is still alive. That is the edge a full scan
//! would pick, at the cost of one bit scan instead of a heap operation.

use crate::pig::Pig;
use parsched_graph::{BitMatrix, BitSet};

/// How the allocator picks which false-dependence edge to sacrifice when
/// register pressure blocks simplification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeRemovalPolicy {
    /// Remove the edge whose two instructions have the smallest combined
    /// scheduling priority (critical-path height) — the paper's suggestion:
    /// give up the parallelism the scheduler would value least.
    LeastBenefit,
    /// Remove an arbitrary (deterministic pseudo-random) eligible edge —
    /// ablation baseline showing the value of scheduling guidance.
    Pseudorandom {
        /// Seed for the internal generator.
        seed: u64,
    },
    /// Remove the eligible edge incident to the node closest to becoming
    /// simplifiable (smallest excess degree) — a pure graph heuristic.
    DegreeRelief,
}

/// The spill-victim metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpillMetric {
    /// Classic `h(v) = cost(v) / deg(v)` over the full PIG degree.
    CostOverDegree,
    /// The paper's `h*(v) = cost(v) / Σ w({u,v})` with per-class weights.
    HStar {
        /// Weight of interference-only edges (prevent spills; Lemma 2 dual).
        interference_weight: f64,
        /// Weight of edges in both graphs (Lemma 3: most valuable).
        shared_weight: f64,
        /// Weight of false-dependence-only edges (pure parallelism). With
        /// `0.0` this degenerates to the traditional `h` function, as the
        /// paper notes.
        parallel_weight: f64,
    },
}

/// Configuration of the combined allocator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinterConfig {
    /// False-edge removal policy under pressure.
    pub edge_policy: EdgeRemovalPolicy,
    /// Spill metric.
    pub spill_metric: SpillMetric,
    /// Run the EP pre-scheduling reordering before measuring live ranges.
    pub ep_prepass: bool,
}

impl Default for PinterConfig {
    /// The paper's recommended configuration: least-benefit edge removal,
    /// `h*` with parallelism valued above spill avoidance ("parallelism
    /// that will eventually materialize is preferred over the cost of
    /// spilling some extra value"), and the EP pre-pass on.
    fn default() -> Self {
        PinterConfig {
            edge_policy: EdgeRemovalPolicy::LeastBenefit,
            spill_metric: SpillMetric::HStar {
                interference_weight: 1.0,
                shared_weight: 2.0,
                parallel_weight: 1.5,
            },
            ep_prepass: true,
        }
    }
}

/// Result of one run of the combined coloring procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinedOutcome {
    /// Per-node colors (`u32::MAX` for spilled nodes).
    pub colors: Vec<u32>,
    /// Nodes placed on the spill list.
    pub spilled: Vec<usize>,
    /// False-dependence edges removed (parallelism given away), as node
    /// pairs.
    pub removed_false_edges: Vec<(usize, usize)>,
}

impl CombinedOutcome {
    /// Number of distinct colors used.
    pub fn colors_used(&self) -> u32 {
        self.colors
            .iter()
            .filter(|&&c| c != u32::MAX)
            .map(|&c| c + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Reusable buffers for [`combined_color_in`]. The spill loop colors a PIG
/// per round; threading one workspace through makes each round's setup
/// allocation-free once sizes stabilize. A `Default` workspace is valid
/// input, and results never depend on what a previous run left behind.
#[derive(Default)]
pub struct CombinedWorkspace {
    work_rows: Vec<BitSet>,
    false_rows: Vec<BitSet>,
    alive: BitSet,
    inter_deg: Vec<usize>,
    falive_deg: Vec<usize>,
    shared_cnt: Vec<usize>,
    queued: Vec<bool>,
    candidates: Candidates,
    used: Vec<bool>,
    scratch: BitSet,
}

/// The least-benefit candidates of one run: every false-only edge, sorted
/// once by its static key `(priority sum, a, b)`, with an *eligible* bit
/// per rank. A node's ranks become eligible when it becomes savable;
/// [`Candidates::pick`] returns the lowest eligible rank whose edge is
/// still alive. The array is built at the run's first pick, so a run that
/// never blocks never sorts.
#[derive(Default)]
struct Candidates {
    built: bool,
    /// False-only edges `(a, b)`, `a < b`, in lexicographic order.
    edges: Vec<(u32, u32)>,
    /// By rank: `priority sum << 32 | index into edges`. The index stands
    /// in for `(a, b)`, so one `u64` sort yields the key order.
    keys: Vec<u64>,
    /// Node `v`'s ranks are `ranks[start[v]..start[v + 1]]`.
    start: Vec<usize>,
    ranks: Vec<u32>,
    /// Per-node fill cursor while building `ranks`.
    cursor: Vec<usize>,
    /// Bit `r` is set while rank `r` may still be picked.
    eligible: Vec<u64>,
    /// Every word of `eligible` below `hint` is zero.
    hint: usize,
}

impl Candidates {
    /// Collects and sorts the false-only edges; nothing is eligible yet.
    fn build(&mut self, false_only: &BitMatrix, priority: &[u32]) {
        let n = false_only.size();
        self.built = true;
        self.edges.clear();
        self.keys.clear();
        for a in 0..n {
            for b in false_only.row(a).iter().filter(|&b| b > a) {
                let key = priority[a].saturating_add(priority[b]);
                self.keys
                    .push(((key as u64) << 32) | self.edges.len() as u64);
                self.edges.push((a as u32, b as u32));
            }
        }
        // Edge indices, ranks and node ids are stored as u32.
        assert!(
            self.edges.len() <= u32::MAX as usize,
            "too many candidate edges"
        );
        self.keys.sort_unstable();
        self.start.clear();
        self.start.push(0);
        for v in 0..n {
            self.start.push(self.start[v] + false_only.row(v).count());
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.start[..n]);
        self.ranks.clear();
        self.ranks.resize(self.start[n], 0);
        for (rank, &key) in self.keys.iter().enumerate() {
            let (a, b) = self.edges[key as u32 as usize];
            for v in [a as usize, b as usize] {
                self.ranks[self.cursor[v]] = rank as u32;
                self.cursor[v] += 1;
            }
        }
        self.eligible.clear();
        self.eligible.resize(self.keys.len().div_ceil(64), 0);
        self.hint = self.eligible.len();
    }

    /// Makes every candidate edge of `v` eligible (a no-op before
    /// [`Candidates::build`], which the caller follows with the marks due).
    fn mark(&mut self, v: usize) {
        if !self.built {
            return;
        }
        for &rank in &self.ranks[self.start[v]..self.start[v + 1]] {
            let w = rank as usize / 64;
            self.eligible[w] |= 1 << (rank % 64);
            self.hint = self.hint.min(w);
        }
    }

    /// Takes the lowest eligible rank whose edge is alive (both endpoints
    /// alive and the edge not yet removed), clearing the dead ranks it
    /// passes: a dead edge never comes back.
    fn pick(&mut self, alive: &BitSet, false_rows: &[BitSet]) -> Option<(usize, usize)> {
        while let Some(&word) = self.eligible.get(self.hint) {
            if word == 0 {
                self.hint += 1;
                continue;
            }
            let bit = word.trailing_zeros();
            self.eligible[self.hint] &= !(1 << bit);
            let rank = self.hint * 64 + bit as usize;
            let (a, b) = self.edges[self.keys[rank] as u32 as usize];
            let (a, b) = (a as usize, b as usize);
            if alive.contains(a) && alive.contains(b) && false_rows[a].contains(b) {
                return Some((a, b));
            }
        }
        None
    }
}

/// Copies `n` rows of `src` into `dst`, reusing `dst`'s buffers.
fn clone_rows_into(dst: &mut Vec<BitSet>, n: usize, src: &BitMatrix) {
    dst.truncate(n);
    for (v, row) in dst.iter_mut().enumerate() {
        row.clone_from(src.row(v));
    }
    for v in dst.len()..n {
        dst.push(src.row(v).clone());
    }
}

/// Runs the paper's coloring procedure on `pig` with `k` registers,
/// reporting its decisions to `telemetry`: `combined.simplified` (nodes
/// simplified), `combined.removed_false_edges` (parallelism given away),
/// `combined.spilled` (spill-list length), and a `combined.spill` event per
/// victim.
///
/// `costs[n]` is the spill cost of node `n`; `priority[n]` is the
/// scheduling priority of the node's defining instruction (critical-path
/// height; 0 for live-in values).
///
/// The procedure keeps per-node degree counters split into interference
/// and removable-false-edge components, so every simplify/save/spill
/// decision is O(n) per round rather than O(n·deg); decisions are
/// tie-broken identically to the reference formulation.
///
/// `ws` holds caller-owned scratch buffers, reused across calls (pass
/// `&mut CombinedWorkspace::default()` for a one-off coloring).
///
/// # Panics
/// Panics if `costs` or `priority` lengths differ from the node count.
pub fn combined_color_in(
    ws: &mut CombinedWorkspace,
    pig: &Pig,
    k: u32,
    costs: &[f64],
    priority: &[u32],
    config: &PinterConfig,
    telemetry: &dyn parsched_telemetry::Telemetry,
) -> CombinedOutcome {
    let _span = parsched_telemetry::span(telemetry, "combined.color");
    let setup_span = parsched_telemetry::span(telemetry, "combined.setup");
    let n = pig.node_count();
    assert_eq!(costs.len(), n, "one cost per node");
    assert_eq!(priority.len(), n, "one priority per node");

    // Working copies of the adjacency rows: the full graph and the
    // still-removable false edges. Node removal only flips `alive` and
    // adjusts neighbor counters; the rows themselves lose bits only on
    // false-edge removal, so the select phase sees exactly the surviving
    // edge set.
    let work_rows = &mut ws.work_rows;
    let false_rows = &mut ws.false_rows;
    clone_rows_into(work_rows, n, pig.adjacency());
    clone_rows_into(false_rows, n, pig.false_only());
    let alive = &mut ws.alive;
    alive.reset(n);
    alive.fill();
    // inter_deg[v]: alive neighbors over non-removable (interference or
    // shared) edges; falive_deg[v]: alive neighbors over removable false
    // edges. Current degree is their sum.
    let inter_deg = &mut ws.inter_deg;
    inter_deg.clear();
    inter_deg.extend((0..n).map(|v| work_rows[v].count() - false_rows[v].count()));
    let falive_deg = &mut ws.falive_deg;
    falive_deg.clear();
    falive_deg.extend((0..n).map(|v| false_rows[v].count()));
    // shared_cnt[v]: alive neighbors over shared (Er ∩ Ef) edges. Shared
    // edges are never removable, so node death is the only event that
    // changes this; together with the two degree counters it makes the
    // spill metric O(1) per candidate.
    let shared_cnt = &mut ws.shared_cnt;
    shared_cnt.clear();
    shared_cnt.extend((0..n).map(|v| pig.shared().row(v).count()));

    // Count of alive nodes with degree < k. Degrees only decrease, so each
    // node crosses the threshold at most once; the counter makes the
    // simplify scan free during edge-removal storms (when nothing is
    // simplifiable for long stretches) while the scan itself keeps the
    // reference pick order: minimal (degree, id).
    let mut below_k: usize = (0..n)
        .filter(|&v| inter_deg[v] + falive_deg[v] < k as usize)
        .count();

    let mut stack: Vec<usize> = Vec::with_capacity(n);
    let mut spilled: Vec<usize> = Vec::new();
    let mut removed_edges: Vec<(usize, usize)> = Vec::new();
    let mut rng_state = match config.edge_policy {
        EdgeRemovalPolicy::Pseudorandom { seed } => seed | 1,
        _ => 1,
    };
    let scratch = &mut ws.scratch;
    scratch.reset(n);

    // Least-benefit removal picks the minimum of a *static* key (the
    // priority sums never change), so instead of rescanning every eligible
    // edge after each removal, the candidate edges are sorted once and a
    // node's edges become eligible when it becomes savable — at the start,
    // or when `remove_node` drops its interference degree below k (degrees
    // only decrease, so that happens at most once per node). An eligible
    // edge whose endpoint died or that was removed is skipped and never
    // comes back, and an alive one is always valid (its savable endpoint
    // keeps interference degree below k and the edge itself), so the
    // lowest alive eligible rank is exactly what the full scan would pick.
    let lazy = config.edge_policy == EdgeRemovalPolicy::LeastBenefit;
    let candidates = &mut ws.candidates;
    let queued = &mut ws.queued;
    queued.clear();
    queued.resize(if lazy { n } else { 0 }, false);
    let savable = |v: usize, inter_deg: &[usize], falive_deg: &[usize]| {
        inter_deg[v] < k as usize && falive_deg[v] > 0
    };
    candidates.built = false;
    if lazy {
        for v in alive.iter() {
            queued[v] = savable(v, inter_deg, falive_deg);
        }
    }

    drop(setup_span);
    let loop_span = parsched_telemetry::span(telemetry, "combined.mainloop");
    let mut remaining = n;
    while remaining > 0 {
        // Simplify: remove nodes of degree < k (smallest degree first,
        // ties by node id). The scan only runs when the counter proves it
        // can succeed.
        let pick = if below_k == 0 {
            None
        } else {
            let mut best: Option<(usize, usize)> = None;
            for v in alive.iter() {
                let d = inter_deg[v] + falive_deg[v];
                if d < k as usize && best.is_none_or(|cur| (d, v) < cur) {
                    best = Some((d, v));
                }
            }
            best.map(|(_, v)| v)
        };
        if let Some(v) = pick {
            remove_node(
                v,
                alive,
                work_rows,
                false_rows,
                pig.shared(),
                inter_deg,
                falive_deg,
                shared_cnt,
                k,
                &mut below_k,
                scratch,
            );
            if lazy {
                queue_new_savable(
                    v, alive, work_rows, inter_deg, falive_deg, k, queued, candidates, scratch,
                );
            }
            stack.push(v);
            remaining -= 1;
            continue;
        }

        // Blocked. A node is *savable* when its interference degree alone
        // is below k and at least one removable false edge touches it (the
        // paper's second loop); removing such an edge can free it.
        let mut chosen: Option<(usize, usize)> = None;
        match config.edge_policy {
            EdgeRemovalPolicy::LeastBenefit => {
                if !candidates.built {
                    // The run's first block: sort the candidates and mark
                    // the nodes that are savable by now.
                    candidates.build(pig.false_only(), priority);
                    for v in (0..n).filter(|&v| queued[v]) {
                        candidates.mark(v);
                    }
                }
                chosen = candidates.pick(alive, false_rows);
            }
            EdgeRemovalPolicy::Pseudorandom { .. } => {
                let mut eligible: Vec<(usize, usize)> = Vec::new();
                for_each_eligible(alive, false_rows, inter_deg, falive_deg, k, |a, b| {
                    eligible.push((a, b));
                });
                if !eligible.is_empty() {
                    // xorshift64*
                    rng_state ^= rng_state << 13;
                    rng_state ^= rng_state >> 7;
                    rng_state ^= rng_state << 17;
                    chosen = Some(eligible[(rng_state as usize) % eligible.len()]);
                }
            }
            EdgeRemovalPolicy::DegreeRelief => {
                let mut best: Option<(usize, usize, usize)> = None;
                for_each_eligible(alive, false_rows, inter_deg, falive_deg, k, |a, b| {
                    let da = inter_deg[a] + falive_deg[a];
                    let db = inter_deg[b] + falive_deg[b];
                    let key = (da.min(db), a, b);
                    if best.is_none_or(|cur| key < cur) {
                        best = Some(key);
                    }
                });
                chosen = best.map(|(_, a, b)| (a, b));
            }
        }
        if let Some((a, b)) = chosen {
            work_rows[a].remove(b);
            work_rows[b].remove(a);
            false_rows[a].remove(b);
            false_rows[b].remove(a);
            falive_deg[a] -= 1;
            falive_deg[b] -= 1;
            for x in [a, b] {
                if inter_deg[x] + falive_deg[x] + 1 == k as usize {
                    below_k += 1;
                }
            }
            removed_edges.push((a, b));
            continue;
        }

        // No savable node: spill by the configured metric. The class
        // breakdown of each candidate's surviving neighborhood is carried
        // by the maintained counters: the two degree counters sum to
        // |work ∩ alive|, removable false edges are exactly `falive_deg`,
        // and `shared_cnt` tracks the (never-removable) shared edges — so
        // no row is scanned here. Grouped-by-class multiplication is
        // bit-identical to the per-neighbor sum under the dyadic weights
        // used everywhere (0, 1, 1.5, 2).
        let weight_sum =
            |v: usize, inter_deg: &[usize], falive_deg: &[usize], shared_cnt: &[usize]| -> f64 {
                let total = inter_deg[v] + falive_deg[v];
                match config.spill_metric {
                    SpillMetric::CostOverDegree => total as f64,
                    SpillMetric::HStar {
                        interference_weight,
                        shared_weight,
                        parallel_weight,
                    } => {
                        let shared = shared_cnt[v];
                        let parallel = falive_deg[v];
                        let inter = total - shared - parallel;
                        shared_weight * shared as f64
                            + parallel_weight * parallel as f64
                            + interference_weight * inter as f64
                    }
                }
            };
        // `remaining > 0` guarantees an unremoved node; `else break` states
        // that invariant without a panic path, and `total_cmp` orders NaN
        // metrics deterministically.
        let mut victim: Option<(usize, f64)> = None;
        for v in alive.iter() {
            let h =
                costs[v] / weight_sum(v, inter_deg, falive_deg, shared_cnt).max(f64::MIN_POSITIVE);
            let better = match victim {
                None => true,
                Some((_, hb)) => h.total_cmp(&hb).is_lt(),
            };
            if better {
                victim = Some((v, h));
            }
        }
        let Some((victim, _)) = victim else {
            break;
        };
        remove_node(
            victim,
            alive,
            work_rows,
            false_rows,
            pig.shared(),
            inter_deg,
            falive_deg,
            shared_cnt,
            k,
            &mut below_k,
            scratch,
        );
        if lazy {
            queue_new_savable(
                victim, alive, work_rows, inter_deg, falive_deg, k, queued, candidates, scratch,
            );
        }
        if telemetry.enabled() {
            telemetry.event("combined.spill", &format!("node {victim}"));
        }
        spilled.push(victim);
        remaining -= 1;
        // The paper places spill victims on the spill list, not the select
        // stack: after spilling, the whole procedure repeats on rewritten
        // code, so optimistic coloring of the victim is not attempted.
    }

    drop(loop_span);
    let _select_span = parsched_telemetry::span(telemetry, "combined.select");
    // Select (only meaningful when nothing spilled, matching the paper;
    // still performed so callers can inspect partial colorings).
    let mut colors = vec![u32::MAX; n];
    let used = &mut ws.used;
    for &v in stack.iter().rev() {
        used.clear();
        used.resize(k as usize, false);
        for u in work_rows[v].iter() {
            if colors[u] != u32::MAX {
                used[colors[u] as usize] = true;
            }
        }
        match (0..k).find(|&c| !used[c as usize]) {
            Some(c) => colors[v] = c,
            // Simplified nodes have degree < k at removal time, so a free
            // color always exists; if that invariant ever broke, spilling
            // the node degrades the result instead of crashing the process.
            None => spilled.push(v),
        }
    }
    spilled.sort_unstable();
    if telemetry.enabled() {
        telemetry.counter("combined.simplified", stack.len() as u64);
        telemetry.counter("combined.removed_false_edges", removed_edges.len() as u64);
        telemetry.counter("combined.spilled", spilled.len() as u64);
    }
    CombinedOutcome {
        colors,
        spilled,
        removed_false_edges: removed_edges,
    }
}

/// After `v`'s removal dropped its neighbors' degree counters, makes the
/// candidate edges of any neighbor that just became savable (interference
/// degree below `k` for the first time) eligible. Degrees only decrease,
/// so each node passes this threshold at most once and `queued` guarantees
/// a single marking per node.
#[allow(clippy::too_many_arguments)]
fn queue_new_savable(
    v: usize,
    alive: &BitSet,
    work_rows: &[BitSet],
    inter_deg: &[usize],
    falive_deg: &[usize],
    k: u32,
    queued: &mut [bool],
    candidates: &mut Candidates,
    scratch: &mut BitSet,
) {
    scratch.clone_from(&work_rows[v]);
    scratch.intersect_with(alive);
    for u in scratch.iter() {
        if !queued[u] && inter_deg[u] < k as usize && falive_deg[u] > 0 {
            queued[u] = true;
            candidates.mark(u);
        }
    }
}

/// Marks `v` dead and repairs its alive neighbors' split degree counters,
/// keeping the below-`k` population count exact. Adjacency rows are left
/// intact: the select phase needs the surviving edge set over *all* nodes.
#[allow(clippy::too_many_arguments)]
fn remove_node(
    v: usize,
    alive: &mut BitSet,
    work_rows: &[BitSet],
    false_rows: &[BitSet],
    shared: &parsched_graph::BitMatrix,
    inter_deg: &mut [usize],
    falive_deg: &mut [usize],
    shared_cnt: &mut [usize],
    k: u32,
    below_k: &mut usize,
    scratch: &mut BitSet,
) {
    if inter_deg[v] + falive_deg[v] < k as usize {
        *below_k -= 1;
    }
    alive.remove(v);
    scratch.clone_from(&work_rows[v]);
    scratch.intersect_with(alive);
    for u in scratch.iter() {
        if false_rows[v].contains(u) {
            falive_deg[u] -= 1;
        } else {
            inter_deg[u] -= 1;
            if shared.row(v).contains(u) {
                shared_cnt[u] -= 1;
            }
        }
        if inter_deg[u] + falive_deg[u] + 1 == k as usize {
            *below_k += 1;
        }
    }
}

/// Calls `f(a, b)` (canonical `a < b`) for every removable false edge whose
/// savable endpoint makes it eligible, in ascending savable-node order —
/// the same enumeration order as the reference formulation (an edge with
/// two savable endpoints is visited twice, as before).
fn for_each_eligible(
    alive: &BitSet,
    false_rows: &[BitSet],
    inter_deg: &[usize],
    falive_deg: &[usize],
    k: u32,
    mut f: impl FnMut(usize, usize),
) {
    for v in alive.iter() {
        if inter_deg[v] >= k as usize || falive_deg[v] == 0 {
            continue;
        }
        for u in false_rows[v].iter() {
            if alive.contains(u) {
                if v < u {
                    f(v, u);
                } else {
                    f(u, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::BlockAllocProblem;
    use parsched_ir::liveness::Liveness;
    use parsched_ir::{parse_function, BlockId};
    use parsched_machine::presets;
    use parsched_sched::DepGraph;

    fn pig_of(
        src: &str,
        machine: &parsched_machine::MachineDesc,
    ) -> (BlockAllocProblem, Pig, Vec<f64>, Vec<u32>) {
        let f = parse_function(src).unwrap();
        let lv = Liveness::compute(&f, &[]);
        let p = BlockAllocProblem::build(&f, BlockId(0), &lv).unwrap();
        let d = DepGraph::build(&f.blocks()[0], &parsched_telemetry::NullTelemetry);
        let pig = Pig::build(&p, &d, machine, &parsched_telemetry::NullTelemetry);
        let costs: Vec<f64> = (0..p.len()).map(|n| p.spill_cost(n)).collect();
        let heights = d.heights(machine).unwrap();
        let priority: Vec<u32> = (0..p.len())
            .map(|n| p.def_site(n).map_or(0, |i| heights[i]))
            .collect();
        (p, pig, costs, priority)
    }

    fn color(
        pig: &Pig,
        k: u32,
        costs: &[f64],
        prio: &[u32],
        cfg: &PinterConfig,
    ) -> CombinedOutcome {
        combined_color_in(
            &mut CombinedWorkspace::default(),
            pig,
            k,
            costs,
            prio,
            cfg,
            &parsched_telemetry::NullTelemetry,
        )
    }

    const EXAMPLE1: &str = r#"
        func @ex1(s9) {
        entry:
            s1 = load [@z + 0]
            s2 = fadd s9, 0
            s3 = load [s2 + 0]
            s4 = add s1, s1
            s5 = mul s3, s1
            ret s5
        }
    "#;

    #[test]
    fn enough_registers_no_spill_no_removal() {
        let m = presets::paper_machine(8);
        let (_p, pig, costs, prio) = pig_of(EXAMPLE1, &m);
        let out = color(&pig, 8, &costs, &prio, &PinterConfig::default());
        assert!(out.spilled.is_empty());
        assert!(out.removed_false_edges.is_empty());
        assert!(pig.graph().is_proper_coloring(&out.colors));
        assert!(out.colors_used() <= 4);
    }

    #[test]
    fn example1_three_registers_suffice() {
        let m = presets::paper_machine(3);
        let (_p, pig, costs, prio) = pig_of(EXAMPLE1, &m);
        let out = color(&pig, 3, &costs, &prio, &PinterConfig::default());
        assert!(out.spilled.is_empty(), "paper: 3 registers, no spill");
        assert!(pig.graph().is_proper_coloring(&out.colors));
    }

    #[test]
    fn pressure_removes_false_edges_before_spilling() {
        // With 2 registers, Example 1 cannot keep all parallelism (the PIG
        // has a triangle), but interference alone is 2-colorable only if…
        // actually Gr has triangle s1-s3-s4 too, so 2 registers force a
        // spill; with 3 registers but a denser false set, edges go first.
        // Use a block whose Gr is 2-colorable but PIG needs 3:
        let m = presets::paper_machine(2);
        let src = r#"
            func @p(s8, s9) {
            entry:
                s1 = add s8, 1
                s2 = fadd s9, 1
                s3 = add s1, 1
                s4 = fadd s2, 1
                s5 = add s3, s3
                s6 = fadd s4, s4
                ret s6
            }
        "#;
        let (_p, pig, costs, prio) = pig_of(src, &m);
        let out = color(&pig, 2, &costs, &prio, &PinterConfig::default());
        // Int and float chains interleave: Gr is small, false edges connect
        // the chains. Two registers must cost parallelism, not spills.
        assert!(
            !out.removed_false_edges.is_empty(),
            "expected false-edge removal under pressure"
        );
        assert!(out.spilled.is_empty(), "no spill needed: {out:?}");
    }

    #[test]
    fn hopeless_pressure_spills() {
        // Three mutually-interfering live-in values + 1 register: spill.
        let m = presets::paper_machine(1);
        let src = r#"
            func @s(s0, s1, s2) {
            entry:
                s3 = add s0, s1
                s4 = add s3, s2
                ret s4
            }
        "#;
        let (_p, pig, costs, prio) = pig_of(src, &m);
        let out = color(&pig, 1, &costs, &prio, &PinterConfig::default());
        assert!(!out.spilled.is_empty());
    }

    #[test]
    fn policies_are_deterministic() {
        let m = presets::paper_machine(2);
        let (_p, pig, costs, prio) = pig_of(EXAMPLE1, &m);
        for policy in [
            EdgeRemovalPolicy::LeastBenefit,
            EdgeRemovalPolicy::Pseudorandom { seed: 42 },
            EdgeRemovalPolicy::DegreeRelief,
        ] {
            let cfg = PinterConfig {
                edge_policy: policy,
                ..PinterConfig::default()
            };
            let a = color(&pig, 2, &costs, &prio, &cfg);
            let b = color(&pig, 2, &costs, &prio, &cfg);
            assert_eq!(a, b, "{policy:?} must be deterministic");
        }
    }

    #[test]
    fn hstar_with_zero_parallel_weight_matches_h_shape() {
        // Sanity: the metric degenerates without panicking and picks a
        // victim with minimal cost/degree on a clique.
        let m = presets::paper_machine(1);
        let src = r#"
            func @s(s0, s1, s2) {
            entry:
                s3 = add s0, s1
                s4 = add s3, s2
                ret s4
            }
        "#;
        let (_p, pig, costs, prio) = pig_of(src, &m);
        let cfg = PinterConfig {
            spill_metric: SpillMetric::HStar {
                interference_weight: 1.0,
                shared_weight: 1.0,
                parallel_weight: 0.0,
            },
            ..PinterConfig::default()
        };
        let out = color(&pig, 1, &costs, &prio, &cfg);
        assert!(!out.spilled.is_empty());
    }
}
