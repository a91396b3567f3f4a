//! The web allocator's scope ([`GlobalScope`]): the paper's global web
//! model versus the per-block dedicated-register baseline, plus the
//! webs-partition property both rest on. See `docs/GLOBAL.md`.

use parsched::ir::defuse::{DefSite, DefUse};
use parsched::ir::interp::{Interpreter, Memory};
use parsched::ir::webs::Webs;
use parsched::ir::{parse_module, BlockId};
use parsched::machine::presets;
use parsched::regalloc::global::allocate_global_scoped;
use parsched::regalloc::{AllocSession, BlockStrategy, BudgetExceeded, PinterConfig};
use parsched::telemetry::NullTelemetry;
use parsched::{
    paper, Budget, DegradationLevel, Driver, GlobalScope, ParschedError, Pipeline, Strategy,
};
use parsched_workload::{random_cfg_function, CfgParams, SplitMix64};

fn interp_equal(a: &parsched::ir::Function, b: &parsched::ir::Function, args: &[i64]) {
    let mut mem = Memory::new();
    for g in ["z", "y", "x", "w"] {
        mem.set_global(g, 0, 42 + g.len() as i64);
    }
    for i in 0..256 {
        mem.set_abs(i, i * 13 + 7);
    }
    let interp = Interpreter::new();
    let ra = interp.run(a, args, mem.clone()).expect("original runs");
    let rb = interp.run(b, args, mem).expect("compiled runs");
    assert_eq!(ra.return_value, rb.return_value);
}

/// Webs are a partition of the definition set, and every use's reaching
/// definitions land in one web — "the right number of names" invariant
/// that makes one-color-per-web sound. Seeded property over branchy/loopy
/// CFG functions of varied shape.
#[test]
fn webs_partition_defs_and_uses_exactly() {
    let mut rng = SplitMix64::seed_from_u64(0xC0FFEE);
    for case in 0..40usize {
        let f = random_cfg_function(
            rng.next_u64(),
            &CfgParams {
                segments: 1 + case % 5,
                ops_per_block: 2 + case % 4,
            },
        );
        let du = DefUse::compute(&f);
        let webs = Webs::compute(&du);
        // Every definition appears in exactly one web's member list, and
        // the member list agrees with the def -> web map.
        let mut seen = vec![0usize; du.defs().len()];
        for (w, members) in webs.iter() {
            for &d in members {
                assert_eq!(webs.web_of(d), w, "case {case}: member/web_of disagree");
                seen[d.0] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "case {case}: defs not partitioned exactly once: {seen:?}"
        );
        // All definitions reaching one use share that use's web (Figure 6:
        // several defs reaching a use must share a register).
        for (site, reaching) in du.uses() {
            if let Some((&first, rest)) = reaching.split_first() {
                let w = webs.web_of(first);
                for &d in rest {
                    assert_eq!(
                        webs.web_of(d),
                        w,
                        "case {case}: reaching defs of {site:?} span webs"
                    );
                }
            }
        }
    }
}

/// `DefUse`'s per-instruction and per-parameter index names the same
/// definition as a scan of `defs()` in enumeration order, on seeded
/// branchy/loopy CFGs and on a multi-result call past the entry block.
#[test]
fn defuse_index_agrees_with_defs() {
    let call = parse_module(
        "func @calls(s0, s1) {\nentry:\n    beq s0, 0, other\nthen:\n    \
         s2 = add s0, s1\n    jmp join\nother:\n    s3, s4 = call @g(s0)\n    \
         s2 = add s3, s4\njoin:\n    ret s2\n}\n",
    )
    .expect("fixed input parses")
    .remove(0);
    let mut rng = SplitMix64::seed_from_u64(0xDEF5);
    let seeded = (0..40usize).map(|case| {
        let params = CfgParams {
            segments: 1 + case % 5,
            ops_per_block: 2 + case % 4,
        };
        random_cfg_function(rng.next_u64(), &params)
    });
    for f in std::iter::once(call).chain(seeded) {
        let du = DefUse::compute(&f);
        let scan = |want: DefSite| du.defs().iter().position(|&(site, _)| site == want);
        for (i, _) in f.params().iter().enumerate() {
            assert_eq!(Some(du.param_def(i).0), scan(DefSite::Param(i)));
        }
        let mut inst_defs = 0;
        for (id, inst) in f.insts() {
            for (nth, r) in inst.defs().into_iter().enumerate() {
                let d = du.def_at(id, nth);
                assert_eq!(Some(d.0), scan(DefSite::Inst(id, nth)), "@{}", f.name());
                assert_eq!(du.reg_of(d), r);
                inst_defs += 1;
            }
        }
        assert_eq!(f.params().len() + inst_defs, du.defs().len());
    }
}

/// The committed example of docs/GLOBAL.md: a cascade of diamonds whose
/// stage values die in sequence. One color per web packs the cascade into
/// two registers; the per-block baseline dedicates one register per
/// cross-block web. (The numbers are recorded in EXPERIMENTS.md.)
#[test]
fn global_beats_per_block_on_the_committed_example() {
    let module = parse_module(include_str!("../examples/branchy.psc")).expect("example parses");
    let func = &module[0];
    let machine = presets::paper_machine(32);
    let compile = |scope: GlobalScope| {
        Pipeline::new(machine.clone())
            .with_scope(scope)
            .compile(func, &Strategy::combined(), &NullTelemetry)
            .expect("cascade compiles")
    };
    let global = compile(GlobalScope::Function);
    let per_block = compile(GlobalScope::PerBlockBaseline);
    assert_eq!(global.stats.registers_used, 2, "cascade packs into 2");
    assert!(
        global.stats.registers_used < per_block.stats.registers_used,
        "global {} must beat per-block {}",
        global.stats.registers_used,
        per_block.stats.registers_used
    );
    interp_equal(func, &global.function, &[5]);
    interp_equal(func, &per_block.function, &[5]);
    interp_equal(func, &per_block.function, &[0]);
}

/// Every scope preserves semantics on seeded branchy/loopy functions, for
/// both the combined strategy and the Chaitin phase-ordered baseline.
#[test]
fn all_scopes_preserve_semantics_on_random_cfgs() {
    let mut rng = SplitMix64::seed_from_u64(17);
    for case in 0..12usize {
        let f = random_cfg_function(
            rng.next_u64(),
            &CfgParams {
                segments: 2 + case % 3,
                ops_per_block: 3,
            },
        );
        for strategy in [Strategy::combined(), Strategy::AllocThenSched] {
            for scope in [GlobalScope::Function, GlobalScope::PerBlockBaseline] {
                let r = Pipeline::new(presets::paper_machine(16))
                    .with_scope(scope)
                    .compile(&f, &strategy, &NullTelemetry)
                    .unwrap_or_else(|e| panic!("case {case} {} {scope:?}: {e}", strategy.label()));
                assert!(r.stats.registers_used <= 16);
                interp_equal(&f, &r.function, &[3, 9]);
            }
        }
    }
}

/// The web allocator accepts single-block functions under either scope
/// (the pipeline sends them to the block allocators, where a web is just a
/// value); the result stays correct and within the register file.
#[test]
fn global_scope_covers_single_block_functions() {
    let module = parse_module(
        "func @straight(s0) {\nentry:\n    s1 = add s0, 1\n    s2 = mul s1, s1\n    s3 = add s2, s1\n    ret s3\n}\n",
    )
    .expect("module parses");
    let func = &module[0];
    assert_eq!(func.block_count(), 1);
    for scope in [GlobalScope::Function, GlobalScope::PerBlockBaseline] {
        let out = allocate_global_scoped(
            func,
            &presets::paper_machine(4),
            BlockStrategy::Pinter(PinterConfig::default()),
            scope,
            true,
            &Budget::unlimited(),
            &NullTelemetry,
        )
        .expect("single block allocates under every scope");
        assert!(out.colors_used <= 4);
        interp_equal(func, &out.function, &[6]);
    }
}

/// The per-block baseline never shares a register between two cross-block
/// webs: on the cascade every stage value gets its own color.
#[test]
fn per_block_baseline_keeps_cross_block_webs_apart() {
    let module = parse_module(include_str!("../examples/branchy.psc")).expect("example parses");
    let func = &module[0];
    let r = Pipeline::new(presets::paper_machine(32))
        .with_scope(GlobalScope::PerBlockBaseline)
        .compile(func, &Strategy::combined(), &NullTelemetry)
        .expect("cascade compiles per-block");
    // Four cross-block webs (s1..s4) -> four dedicated registers.
    assert_eq!(r.stats.registers_used, 4);
    // Block labels and branch structure survive allocation.
    assert_eq!(r.function.block_count(), func.block_count());
    for b in 0..func.block_count() {
        assert_eq!(
            r.function.block(BlockId(b)).label(),
            func.block(BlockId(b)).label()
        );
    }
}

/// `Budget::max_pig_edges` binds on the web path, under either scope, as
/// on the block path: a combined compile trips `pig.edges`, and the
/// default ladder degrades to the first rung that builds no PIG.
#[test]
fn web_path_honors_the_pig_edge_budget() {
    let branchy = parse_module(include_str!("../examples/branchy.psc"))
        .expect("example parses")
        .remove(0);
    let budget = Budget::unlimited().with_max_pig_edges(1);
    for (func, scope) in [
        (branchy.clone(), GlobalScope::Function),
        (branchy, GlobalScope::PerBlockBaseline),
        (paper::example1(), GlobalScope::Function),
    ] {
        let pipeline = Pipeline::new(presets::paper_machine(8)).with_scope(scope);
        let e = pipeline
            .compile_budgeted_in(
                &mut AllocSession::new(),
                &func,
                &Strategy::combined(),
                &budget,
                &NullTelemetry,
            )
            .expect_err("one PIG edge is over the cap");
        assert!(
            matches!(
                e,
                ParschedError::BudgetExceeded(BudgetExceeded {
                    phase: "pig.edges",
                    ..
                })
            ),
            "{scope:?}: {e}"
        );
        let r = Driver::new(pipeline)
            .with_budget(budget)
            .compile_resilient_in(&mut AllocSession::new(), &func, &NullTelemetry)
            .expect("the ladder degrades");
        assert_eq!(r.degradation, DegradationLevel::SchedThenAlloc, "{scope:?}");
    }
}
