//! Error-path tests: malformed `.psc` inputs must produce typed errors
//! with stable, one-line messages (the strings `psc` prints to stderr),
//! never panics. No extra dependencies — plain string asserts.

use parsched::ir::parse_function;
use parsched::ir::verify::verify_function;
use parsched::regalloc::BudgetExceeded;
use parsched::ParschedError;

/// A source cut off mid-function: the parser must reject it with a line
/// number, not crash or accept a half-block.
#[test]
fn truncated_source_is_a_parse_error() {
    let truncated = "func @cut(s0) {\nentry:\n    s1 = add s0, 1\n";
    let err = parse_function(truncated).unwrap_err();
    let e = ParschedError::from(err);
    assert_eq!(e.exit_code(), 3);
    let msg = e.to_string();
    assert!(
        msg.starts_with("parse error at line "),
        "message must locate the failure: {msg}"
    );
    assert_eq!(msg.lines().count(), 1, "one-line diagnostic: {msg}");
}

#[test]
fn garbage_instruction_is_a_parse_error_with_line() {
    let src = "func @g() {\nentry:\n    s1 = frobnicate 1, 2\n    ret s1\n}";
    let err = parse_function(src).unwrap_err();
    assert_eq!(err.line, 3, "error points at the offending line");
    let msg = err.to_string();
    assert!(msg.contains("line 3"), "{msg}");
}

#[test]
fn unknown_register_fails_verification() {
    let src = "func @u(s0) {\nentry:\n    s1 = add s7, 1\n    ret s1\n}";
    let func = parse_function(src).unwrap();
    let errs = verify_function(&func, false).unwrap_err();
    let e = ParschedError::Verify(errs);
    assert_eq!(e.exit_code(), 4);
    let msg = e.to_string();
    assert_eq!(
        msg,
        "verification failed: register s7 is used but never defined"
    );
}

#[test]
fn duplicated_def_fails_strict_verification() {
    let src = "func @d() {\nentry:\n    s1 = li 1\n    s1 = li 2\n    ret s1\n}";
    let func = parse_function(src).unwrap();
    assert!(
        verify_function(&func, false).is_ok(),
        "post-allocation (non-strict) mode tolerates redefinition"
    );
    let errs = verify_function(&func, true).unwrap_err();
    let e = ParschedError::Verify(errs);
    let msg = e.to_string();
    assert_eq!(
        msg,
        "verification failed: symbolic register s1 defined twice in b0"
    );
}

#[test]
fn multiple_verify_errors_report_count_and_first() {
    let src = "func @m() {\nentry:\n    s1 = add s7, s8\n    ret s1\n}";
    let func = parse_function(src).unwrap();
    let errs = verify_function(&func, false).unwrap_err();
    assert!(errs.len() >= 2);
    let msg = ParschedError::Verify(errs).to_string();
    assert!(
        msg.starts_with("verification failed with 2 errors:"),
        "{msg}"
    );
    assert_eq!(msg.lines().count(), 1, "still one line: {msg}");
}

#[test]
fn budget_error_messages_are_stable() {
    let cap = ParschedError::BudgetExceeded(BudgetExceeded {
        phase: "pig.build",
        limit: 16,
        actual: 120,
    });
    assert_eq!(
        cap.to_string(),
        "budget exceeded in pig.build: 120 over limit 16"
    );
    let deadline = ParschedError::BudgetExceeded(BudgetExceeded::deadline("alloc.deadline"));
    assert_eq!(
        deadline.to_string(),
        "budget exceeded in alloc.deadline: deadline passed"
    );
}

#[test]
fn panic_and_io_messages_are_stable() {
    let p = ParschedError::Panicked {
        context: "@f with combined".to_string(),
        message: "index out of bounds".to_string(),
    };
    assert_eq!(
        p.to_string(),
        "internal error compiling @f with combined: index out of bounds"
    );
    let io = ParschedError::Io {
        path: "missing.psc".to_string(),
        message: "No such file or directory".to_string(),
    };
    assert_eq!(io.to_string(), "missing.psc: No such file or directory");
}

/// `--strategy` parsing: every CLI name resolves, and the unknown-name
/// message is stable and enumerates all six strategies (psc prints it
/// verbatim).
#[test]
fn strategy_parse_names_and_error_are_stable() {
    use parsched::Strategy;
    for (name, label) in [
        ("combined", "combined"),
        ("alloc-first", "alloc-then-sched"),
        ("sched-first", "sched-then-alloc"),
        ("linear-scan", "linear-scan"),
        ("spill-everything", "spill-everything"),
        ("exact", "exact"),
    ] {
        let s = Strategy::parse(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(s.label(), label);
    }
    let err = Strategy::parse("graph-coloring").unwrap_err();
    assert_eq!(
        err.to_string(),
        "unknown strategy `graph-coloring`: expected combined, alloc-first, \
         sched-first, linear-scan, spill-everything, or exact"
    );
    let from_str: Result<Strategy, _> = "exact".parse();
    assert!(from_str.is_ok(), "FromStr mirrors Strategy::parse");
}

/// A three-block function whose entry live set (four parameters) exceeds
/// a three-register machine: the exact solver refuses it for its shape.
const THREE_BLOCKS: &str = "func @three(s0, s1, s2, s3) {\nentry:\n    beq s0, 0, done\n\
mid:\n    s4 = add s0, s1\n    s5 = add s2, s3\n    s6 = add s4, s5\n    ret s6\n\
done:\n    ret s0\n}\n";

/// One block whose entry live set (four parameters) exceeds a
/// three-register machine: no schedule fits, however much is spilled.
const WIDE_ENTRY: &str = "func @wide(s0, s1, s2, s3) {\nentry:\n    s4 = add s0, s1\n\
    s5 = add s2, s3\n    s6 = add s4, s5\n    ret s6\n}\n";

/// The exact strategy reports the solver's own refusals (exit 5, class
/// `alloc`), not messages of the block allocator it does not run.
#[test]
fn exact_refusals_keep_the_solvers_messages() {
    use parsched::machine::presets;
    use parsched::telemetry::NullTelemetry;
    use parsched::{Pipeline, Strategy};
    let pipeline = Pipeline::new(presets::paper_machine(3));
    for (src, expected) in [
        (THREE_BLOCKS, "exact solver requires a single block, got 3"),
        (
            WIDE_ENTRY,
            "no feasible schedule: needs at least 4 registers, machine has 3",
        ),
    ] {
        let func = parse_function(src).unwrap();
        let e = pipeline
            .compile(&func, &Strategy::exact(), &NullTelemetry)
            .unwrap_err();
        assert_eq!(e.to_string(), expected);
        assert_eq!(e.exit_code(), 5, "{e}");
        assert_eq!(e.class(), "alloc", "{e}");
    }
}
