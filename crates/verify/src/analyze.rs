//! An independent re-implementation of the dependence rules the verifier
//! judges schedules against.
//!
//! This deliberately does **not** call into `parsched-sched`: the point of
//! translation validation is that a bug in the pipeline's `DepGraph` must
//! not be invisible to the checker that re-derives `Gs`. The rules mirror
//! the paper's definitions (and the production latency model, which
//! lives in `parsched_sched::timing` as the crate-private
//! `BlockTiming::edge_latency`): killing flow dependences,
//! conservative anti/output dependences, `may_alias` memory dependences,
//! and calls as barriers. When several kinds relate one pair the strongest
//! is kept, in the same order the scheduler uses.

use parsched_ir::{AddrBase, Block, Inst, InstKind, MemAddr, Reg};
use parsched_machine::{MachineDesc, OpClass};
use std::collections::HashMap;

/// Dependence kinds, mirroring the scheduler's taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Register flow (read of the most recent definition).
    Flow,
    /// Register anti (a read before a later redefinition).
    Anti,
    /// Register output (two definitions of one register).
    Output,
    /// Memory flow (store → aliasing load).
    MemFlow,
    /// Memory anti (load → aliasing store).
    MemAnti,
    /// Memory output (store → aliasing store).
    MemOutput,
    /// Call barrier ordering.
    Control,
}

/// One dependence edge between body instructions (`from < to`).
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Source body index.
    pub from: usize,
    /// Destination body index.
    pub to: usize,
    /// Strongest kind relating the pair.
    pub kind: Kind,
}

/// The verifier's private dependence graph of one block body.
#[derive(Debug, Clone)]
pub struct Deps {
    /// All edges, strongest kind per pair.
    pub edges: Vec<Edge>,
    /// Machine class of each body instruction.
    pub classes: Vec<OpClass>,
}

fn strength(k: Kind) -> u8 {
    match k {
        Kind::Flow => 6,
        Kind::Control => 5,
        Kind::MemFlow => 4,
        Kind::Output => 3,
        Kind::MemOutput => 2,
        Kind::Anti => 1,
        Kind::MemAnti => 0,
    }
}

/// The machine operation class of `inst` (same mapping the schedulers use;
/// re-derived here so a classification bug cannot hide from the checker).
pub fn class_of(inst: &Inst) -> OpClass {
    match inst.kind() {
        InstKind::LoadImm { .. } | InstKind::Copy { .. } => OpClass::IntAlu,
        InstKind::Binary { op, .. } => {
            if op.is_float() {
                OpClass::FloatAlu
            } else {
                OpClass::IntAlu
            }
        }
        InstKind::Unary { op, .. } => {
            if op.is_float() {
                OpClass::FloatAlu
            } else {
                OpClass::IntAlu
            }
        }
        InstKind::Load { .. } => OpClass::MemLoad,
        InstKind::Store { .. } => OpClass::MemStore,
        InstKind::Branch { .. } | InstKind::Jump { .. } | InstKind::Ret { .. } => OpClass::Branch,
        InstKind::Call { .. } => OpClass::Call,
        InstKind::Nop => OpClass::Nop,
    }
}

/// The latency an edge imposes: `cycle(to) ≥ cycle(from) + latency`.
///
/// Register anti edges cost 0 (register files read before they write
/// within a cycle — the paper's footnote); everything else follows the
/// scheduler's documented model.
pub fn edge_latency(machine: &MachineDesc, classes: &[OpClass], e: &Edge) -> u32 {
    match e.kind {
        Kind::Flow | Kind::MemFlow => machine.latency(classes[e.from]),
        Kind::Output | Kind::MemOutput | Kind::MemAnti => 1,
        Kind::Anti => 0,
        Kind::Control => 1,
    }
}

/// Builds the dependence graph of `block`'s body (terminator excluded).
pub fn build(block: &Block) -> Deps {
    let body = block.body();
    let n = body.len();
    let mut kinds: HashMap<(usize, usize), Kind> = HashMap::new();

    let add = |kinds: &mut HashMap<(usize, usize), Kind>, from: usize, to: usize, kind: Kind| {
        use std::collections::hash_map::Entry;
        match kinds.entry((from, to)) {
            Entry::Vacant(e) => {
                e.insert(kind);
            }
            Entry::Occupied(mut e) => {
                if strength(kind) > strength(*e.get()) {
                    e.insert(kind);
                }
            }
        }
    };

    // Killing flow: a use depends on the most recent definition only.
    let mut last_def: HashMap<Reg, usize> = HashMap::new();
    for (j, inst) in body.iter().enumerate() {
        for u in inst.uses() {
            if let Some(&i) = last_def.get(&u) {
                add(&mut kinds, i, j, Kind::Flow);
            }
        }
        for d in inst.defs() {
            last_def.insert(d, j);
        }
    }

    // Conservative anti/output, memory dependences, call barriers.
    for j in 0..n {
        let defs_j = body[j].defs();
        for i in 0..j {
            let defs_i = body[i].defs();
            let uses_i = body[i].uses();
            if defs_i.iter().any(|d| defs_j.contains(d)) {
                add(&mut kinds, i, j, Kind::Output);
            }
            if uses_i.iter().any(|u| defs_j.contains(u)) {
                add(&mut kinds, i, j, Kind::Anti);
            }
            let (ri, wi) = (body[i].mem_read(), body[i].mem_write());
            let (rj, wj) = (body[j].mem_read(), body[j].mem_write());
            if let (Some(w), Some(r)) = (wi, rj) {
                if w.may_alias(r) {
                    add(&mut kinds, i, j, Kind::MemFlow);
                }
            }
            if let (Some(r), Some(w)) = (ri, wj) {
                if r.may_alias(w) {
                    add(&mut kinds, i, j, Kind::MemAnti);
                }
            }
            if let (Some(w1), Some(w2)) = (wi, wj) {
                if w1.may_alias(w2) {
                    add(&mut kinds, i, j, Kind::MemOutput);
                }
            }
            let call_i = matches!(body[i].kind(), InstKind::Call { .. });
            let call_j = matches!(body[j].kind(), InstKind::Call { .. });
            if (call_i && (call_j || rj.is_some() || wj.is_some()))
                || (call_j && (ri.is_some() || wi.is_some()))
            {
                add(&mut kinds, i, j, Kind::Control);
            }
        }
    }

    let mut edges: Vec<Edge> = kinds
        .into_iter()
        .map(|((from, to), kind)| Edge { from, to, kind })
        .collect();
    edges.sort_by_key(|e| (e.from, e.to));
    Deps {
        edges,
        classes: body.iter().map(class_of).collect(),
    }
}

/// A value-numbered view of one block body: every definition is a fresh
/// value, every use reads the most recent definition (values live into the
/// block get fresh ids at first read). This is the block "renamed apart" —
/// the single-definition symbolic form whose dependence graph is the
/// paper's `Gs`, free of register anti/output edges by construction.
#[derive(Debug, Clone)]
pub struct ValueView {
    /// Per body instruction: the value ids it reads.
    pub uses: Vec<Vec<u32>>,
    /// Per body instruction: the value ids it defines.
    pub defs: Vec<Vec<u32>>,
    /// Per body instruction: its memory read, with the address base
    /// resolved to a value id where register-relative.
    pub mem_read: Vec<Option<ValueAddr>>,
    /// Per body instruction: its memory write, likewise.
    pub mem_write: Vec<Option<ValueAddr>>,
    /// Whether each instruction is a call (barrier).
    pub is_call: Vec<bool>,
    /// Machine class of each instruction.
    pub classes: Vec<OpClass>,
}

/// A memory address with its register base replaced by a value id, so
/// aliasing questions are asked about *values*, not reusable registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueAddr {
    /// `[@name + offset]`.
    Global(String, i64),
    /// `[value + offset]`.
    Value(u32, i64),
}

impl ValueAddr {
    fn of(addr: &MemAddr, value_of: &mut impl FnMut(Reg) -> u32) -> ValueAddr {
        match &addr.base {
            AddrBase::Global(name) => ValueAddr::Global(name.clone(), addr.offset),
            AddrBase::Reg(r) => ValueAddr::Value(value_of(*r), addr.offset),
        }
    }

    /// Mirrors [`parsched_ir::MemAddr::may_alias`]: a shared base with
    /// different offsets proves independence, distinct globals are
    /// disjoint, and everything else conservatively aliases.
    pub fn may_alias(&self, other: &ValueAddr) -> bool {
        match (self, other) {
            // Distinct globals are disjoint; same global aliases only at
            // the same offset.
            (ValueAddr::Global(a, x), ValueAddr::Global(b, y)) => a == b && x == y,
            // Same base value: offsets decide. Different base values may
            // point anywhere relative to each other.
            (ValueAddr::Value(a, x), ValueAddr::Value(b, y)) => a != b || x == y,
            _ => true,
        }
    }
}

/// Builds the value-numbered view of `block`'s body.
pub fn value_view(block: &Block) -> ValueView {
    let body = block.body();
    let mut next: u32 = 0;
    let mut current: HashMap<Reg, u32> = HashMap::new();
    let mut view = ValueView {
        uses: Vec::with_capacity(body.len()),
        defs: Vec::with_capacity(body.len()),
        mem_read: Vec::with_capacity(body.len()),
        mem_write: Vec::with_capacity(body.len()),
        is_call: Vec::with_capacity(body.len()),
        classes: body.iter().map(class_of).collect(),
    };
    for inst in body {
        let mut value_of = |r: Reg| -> u32 {
            if let Some(&v) = current.get(&r) {
                v
            } else {
                let v = next;
                next += 1;
                current.insert(r, v);
                v
            }
        };
        let uses: Vec<u32> = inst.uses().iter().map(|&u| value_of(u)).collect();
        let mem_read = inst.mem_read().map(|a| ValueAddr::of(a, &mut value_of));
        let mem_write = inst.mem_write().map(|a| ValueAddr::of(a, &mut value_of));
        // Definitions after uses: a def of a register an operand read must
        // not capture the operand (role-aware renaming).
        let mut defs: Vec<u32> = Vec::new();
        for d in inst.defs() {
            let v = next;
            next += 1;
            current.insert(d, v);
            defs.push(v);
        }
        view.uses.push(uses);
        view.defs.push(defs);
        view.mem_read.push(mem_read);
        view.mem_write.push(mem_write);
        view.is_call
            .push(matches!(inst.kind(), InstKind::Call { .. }));
    }
    view
}

/// The dependence adjacency of the value-numbered (renamed-apart) body:
/// `succ[i]` lists every `j > i` with a flow, memory, or barrier edge
/// `i → j`. Register anti/output edges cannot exist on values.
pub fn value_deps(view: &ValueView) -> Vec<Vec<usize>> {
    let n = view.uses.len();
    let mut def_site: HashMap<u32, usize> = HashMap::new();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let add = |succ: &mut Vec<Vec<usize>>, i: usize, j: usize| {
        if !succ[i].contains(&j) {
            succ[i].push(j);
        }
    };
    for j in 0..n {
        for v in &view.uses[j] {
            if let Some(&i) = def_site.get(v) {
                add(&mut succ, i, j);
            }
        }
        for i in 0..j {
            if let (Some(w), Some(r)) = (&view.mem_write[i], &view.mem_read[j]) {
                if w.may_alias(r) {
                    add(&mut succ, i, j);
                }
            }
            if let (Some(r), Some(w)) = (&view.mem_read[i], &view.mem_write[j]) {
                if r.may_alias(w) {
                    add(&mut succ, i, j);
                }
            }
            if let (Some(w1), Some(w2)) = (&view.mem_write[i], &view.mem_write[j]) {
                if w1.may_alias(w2) {
                    add(&mut succ, i, j);
                }
            }
            let mem_j = view.mem_read[j].is_some() || view.mem_write[j].is_some();
            let mem_i = view.mem_read[i].is_some() || view.mem_write[i].is_some();
            if (view.is_call[i] && (view.is_call[j] || mem_j)) || (view.is_call[j] && mem_i) {
                add(&mut succ, i, j);
            }
        }
        for v in &view.defs[j] {
            def_site.insert(*v, j);
        }
    }
    succ
}

/// The undirected reachability relation of a forward DAG adjacency plus
/// pairwise machine conflicts — the paper's `Et`. `et[i]` holds every `j`
/// (any direction) that can never issue in the same cycle as `i` for
/// *true*-dependence or structural reasons.
pub fn et_pairs(succ: &[Vec<usize>], classes: &[OpClass], machine: &MachineDesc) -> Vec<Vec<bool>> {
    let n = succ.len();
    let mut g = parsched_graph::DiGraph::new(n);
    for (i, js) in succ.iter().enumerate() {
        for &j in js {
            g.add_edge(i, j);
        }
    }
    // The checker deliberately goes through the same Reachability engine as
    // the pipeline — the engine's own property suite pins it to a BFS
    // reference, and the checker only consumes the query interface.
    let reach =
        match parsched_graph::Reachability::build(&g, parsched_graph::ClosureMode::Auto, None) {
            Some(r) => r,
            None => unreachable!("no deadline is set"),
        };
    let mut et = vec![vec![false; n]; n];
    for i in 0..n {
        for j in reach.row_iter(i) {
            et[i][j] = true;
            et[j][i] = true;
        }
        for j in (i + 1)..n {
            if machine.pairwise_conflict(classes[i], classes[j]) {
                et[i][j] = true;
                et[j][i] = true;
            }
        }
    }
    et
}
