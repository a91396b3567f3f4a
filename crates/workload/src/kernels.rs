//! Hand-written kernel corpus.
//!
//! Straight-line compute kernels of the kind the paper's introduction
//! motivates: loads feeding mixed fixed/float arithmetic with reduction
//! tails. Each kernel is a single basic block in symbolic form.

use parsched_ir::{parse_function, Function};

/// An unrolled 8-element dot product: 8 loads per vector, float multiplies,
/// a reduction tree.
pub const DOT8: &str = r#"
func @dot8(s0, s1) {
entry:
    s2 = load [s0 + 0]
    s3 = load [s1 + 0]
    s4 = load [s0 + 8]
    s5 = load [s1 + 8]
    s6 = load [s0 + 16]
    s7 = load [s1 + 16]
    s8 = load [s0 + 24]
    s9 = load [s1 + 24]
    s10 = fmul s2, s3
    s11 = fmul s4, s5
    s12 = fmul s6, s7
    s13 = fmul s8, s9
    s14 = fadd s10, s11
    s15 = fadd s12, s13
    s16 = fadd s14, s15
    ret s16
}
"#;

/// A 4-tap FIR filter step: loads of samples and coefficients, multiplies,
/// and an accumulation chain (deliberately serial tail).
pub const FIR4: &str = r#"
func @fir4(s0, s1) {
entry:
    s2 = load [s0 + 0]
    s3 = load [s0 + 8]
    s4 = load [s0 + 16]
    s5 = load [s0 + 24]
    s6 = load [s1 + 0]
    s7 = load [s1 + 8]
    s8 = load [s1 + 16]
    s9 = load [s1 + 24]
    s10 = fmul s2, s6
    s11 = fmul s3, s7
    s12 = fmul s4, s8
    s13 = fmul s5, s9
    s14 = fadd s10, s11
    s15 = fadd s14, s12
    s16 = fadd s15, s13
    ret s16
}
"#;

/// Horner evaluation of a degree-6 polynomial: maximally serial float
/// chain with integer bookkeeping alongside.
pub const HORNER6: &str = r#"
func @horner6(s0, s1) {
entry:
    s2 = load [s1 + 0]
    s3 = load [s1 + 8]
    s4 = load [s1 + 16]
    s5 = load [s1 + 24]
    s6 = load [s1 + 32]
    s7 = load [s1 + 40]
    s8 = load [s1 + 48]
    s9 = fmul s2, s0
    s10 = fadd s9, s3
    s11 = fmul s10, s0
    s12 = fadd s11, s4
    s13 = fmul s12, s0
    s14 = fadd s13, s5
    s15 = fmul s14, s0
    s16 = fadd s15, s6
    s17 = fmul s16, s0
    s18 = fadd s17, s7
    s19 = fmul s18, s0
    s20 = fadd s19, s8
    ret s20
}
"#;

/// A 2×2 matrix multiply (C = A·B): 8 loads, 8 multiplies, 4 adds, 4
/// stores — heavy fetch-unit traffic.
pub const MATMUL2: &str = r#"
func @matmul2(s0, s1, s2) {
entry:
    s3 = load [s0 + 0]
    s4 = load [s0 + 8]
    s5 = load [s0 + 16]
    s6 = load [s0 + 24]
    s7 = load [s1 + 0]
    s8 = load [s1 + 8]
    s9 = load [s1 + 16]
    s10 = load [s1 + 24]
    s11 = fmul s3, s7
    s12 = fmul s4, s9
    s13 = fadd s11, s12
    s14 = fmul s3, s8
    s15 = fmul s4, s10
    s16 = fadd s14, s15
    s17 = fmul s5, s7
    s18 = fmul s6, s9
    s19 = fadd s17, s18
    s20 = fmul s5, s8
    s21 = fmul s6, s10
    s22 = fadd s20, s21
    store s13, [s2 + 0]
    store s16, [s2 + 8]
    store s19, [s2 + 16]
    store s22, [s2 + 24]
    ret s13
}
"#;

/// A 3-point stencil over 6 outputs: overlapping loads, int adds and
/// shifts, stores back.
pub const STENCIL3: &str = r#"
func @stencil3(s0, s1) {
entry:
    s2 = load [s0 + 0]
    s3 = load [s0 + 8]
    s4 = load [s0 + 16]
    s5 = load [s0 + 24]
    s6 = load [s0 + 32]
    s7 = add s2, s3
    s8 = add s7, s4
    s9 = shr s8, 1
    s10 = add s3, s4
    s11 = add s10, s5
    s12 = shr s11, 1
    s13 = add s4, s5
    s14 = add s13, s6
    s15 = shr s14, 1
    store s9, [s1 + 0]
    store s12, [s1 + 8]
    store s15, [s1 + 16]
    ret s15
}
"#;

/// Unrolled SAXPY over 4 elements: `y[i] = a*x[i] + y[i]`, float pipeline
/// with independent lanes.
pub const SAXPY4: &str = r#"
func @saxpy4(s0, s1, s2) {
entry:
    s3 = load [s1 + 0]
    s4 = load [s2 + 0]
    s5 = fmul s0, s3
    s6 = fadd s5, s4
    store s6, [s2 + 0]
    s7 = load [s1 + 8]
    s8 = load [s2 + 8]
    s9 = fmul s0, s7
    s10 = fadd s9, s8
    store s10, [s2 + 8]
    s11 = load [s1 + 16]
    s12 = load [s2 + 16]
    s13 = fmul s0, s11
    s14 = fadd s13, s12
    store s14, [s2 + 16]
    s15 = load [s1 + 24]
    s16 = load [s2 + 24]
    s17 = fmul s0, s15
    s18 = fadd s17, s16
    store s18, [s2 + 24]
    ret s18
}
"#;

/// Complex multiply `(a+bi)(c+di)`: the classic 4-multiply form with an
/// integer address side channel.
pub const COMPLEX_MUL: &str = r#"
func @complex_mul(s0, s1) {
entry:
    s2 = load [s0 + 0]
    s3 = load [s0 + 8]
    s4 = load [s1 + 0]
    s5 = load [s1 + 8]
    s6 = fmul s2, s4
    s7 = fmul s3, s5
    s8 = fmul s2, s5
    s9 = fmul s3, s4
    s10 = fsub s6, s7
    s11 = fadd s8, s9
    store s10, [@out + 0]
    store s11, [@out + 8]
    ret s10
}
"#;

/// A radix-2 FFT butterfly: mixed float adds/subs with twiddle multiply.
pub const BUTTERFLY: &str = r#"
func @butterfly(s0, s1) {
entry:
    s2 = load [s0 + 0]
    s3 = load [s0 + 8]
    s4 = load [s0 + 16]
    s5 = load [s0 + 24]
    s6 = fmul s4, s1
    s7 = fmul s5, s1
    s8 = fadd s2, s6
    s9 = fadd s3, s7
    s10 = fsub s2, s6
    s11 = fsub s3, s7
    store s8, [s0 + 0]
    store s9, [s0 + 8]
    store s10, [s0 + 16]
    store s11, [s0 + 24]
    ret s8
}
"#;

/// A counted reduction loop (multi-block): exercises the global allocator.
pub const LOOP_SUM: &str = r#"
func @loop_sum(s0, s1) {
entry:
    s2 = li 0
    s3 = li 0
head:
    s4 = slt s3, s1
    beq s4, 0, done
body:
    s5 = shl s3, 3
    s6 = add s0, s5
    s7 = load [s6 + 0]
    s8 = add s2, s7
    s2 = mov s8
    s9 = add s3, 1
    s3 = mov s9
    jmp head
done:
    ret s2
}
"#;

/// A diamond with compute on both arms and a join (multi-block; Figure 6
/// shape at kernel scale).
pub const DIAMOND: &str = r#"
func @diamond(s0, s1) {
entry:
    s2 = load [s1 + 0]
    blt s0, 0, neg
pos:
    s3 = mul s2, 3
    s4 = add s3, 1
    jmp join
neg:
    s3 = mul s2, 5
    s4 = sub s3, 1
join:
    s5 = add s4, s0
    ret s5
}
"#;

/// A 4×4 matrix–vector product row pair: shared vector loads feeding four
/// independent dot-product rows (wide float ILP with fetch pressure).
pub const MATVEC4: &str = r#"
func @matvec4(s0, s1) {
entry:
    s2 = load [s1 + 0]
    s3 = load [s1 + 8]
    s4 = load [s1 + 16]
    s5 = load [s1 + 24]
    s6 = load [s0 + 0]
    s7 = load [s0 + 8]
    s8 = load [s0 + 16]
    s9 = load [s0 + 24]
    s10 = fmul s6, s2
    s11 = fmul s7, s3
    s12 = fmul s8, s4
    s13 = fmul s9, s5
    s14 = fadd s10, s11
    s15 = fadd s12, s13
    s16 = fadd s14, s15
    s17 = load [s0 + 32]
    s18 = load [s0 + 40]
    s19 = load [s0 + 48]
    s20 = load [s0 + 56]
    s21 = fmul s17, s2
    s22 = fmul s18, s3
    s23 = fmul s19, s4
    s24 = fmul s20, s5
    s25 = fadd s21, s22
    s26 = fadd s23, s24
    s27 = fadd s25, s26
    s28 = fadd s16, s27
    ret s28
}
"#;

/// Two independent degree-3 Horner chains: exactly two float streams, the
/// sweet spot for the paper machine's single float unit to expose the
/// fixed/float pairing question.
pub const POLY_PAIR: &str = r#"
func @poly_pair(s0, s1) {
entry:
    s2 = load [s1 + 0]
    s3 = load [s1 + 8]
    s4 = load [s1 + 16]
    s5 = load [s1 + 24]
    s6 = fmul s2, s0
    s7 = fadd s6, s3
    s8 = fmul s7, s0
    s9 = fadd s8, s4
    s10 = mul s0, s0
    s11 = add s10, 1
    s12 = mul s11, s0
    s13 = add s12, 3
    s14 = fadd s9, s5
    s15 = add s13, s14
    ret s15
}
"#;

/// Address-calculation heavy block: integer shifts/adds compute indices for
/// gather loads (fixed-unit and fetch-unit contention, little float work).
pub const ADDR_CALC: &str = r#"
func @addr_calc(s0, s1) {
entry:
    s2 = shl s1, 3
    s3 = add s0, s2
    s4 = load [s3 + 0]
    s5 = shl s4, 3
    s6 = add s0, s5
    s7 = load [s6 + 0]
    s8 = and s7, 63
    s9 = shl s8, 3
    s10 = add s0, s9
    s11 = load [s10 + 0]
    s12 = add s4, s7
    s13 = add s12, s11
    ret s13
}
"#;

/// Balanced 16-leaf xor reduction: maximal integer ILP (depth 4), the
/// stress case for single-fixed-unit machines.
pub const REDUCTION16: &str = r#"
func @reduction16(s0) {
entry:
    s1 = load [s0 + 0]
    s2 = load [s0 + 8]
    s3 = load [s0 + 16]
    s4 = load [s0 + 24]
    s5 = load [s0 + 32]
    s6 = load [s0 + 40]
    s7 = load [s0 + 48]
    s8 = load [s0 + 56]
    s9 = load [s0 + 64]
    s10 = load [s0 + 72]
    s11 = load [s0 + 80]
    s12 = load [s0 + 88]
    s13 = load [s0 + 96]
    s14 = load [s0 + 104]
    s15 = load [s0 + 112]
    s16 = load [s0 + 120]
    s17 = xor s1, s2
    s18 = xor s3, s4
    s19 = xor s5, s6
    s20 = xor s7, s8
    s21 = xor s9, s10
    s22 = xor s11, s12
    s23 = xor s13, s14
    s24 = xor s15, s16
    s25 = xor s17, s18
    s26 = xor s19, s20
    s27 = xor s21, s22
    s28 = xor s23, s24
    s29 = xor s25, s26
    s30 = xor s27, s28
    s31 = xor s29, s30
    ret s31
}
"#;

/// A counted loop with a float body (multi-block): float accumulation with
/// integer induction bookkeeping, the common numeric-loop shape.
pub const FLOAT_LOOP: &str = r#"
func @float_loop(s0, s1) {
entry:
    s2 = li 0
    s3 = li 0
head:
    s4 = slt s3, s1
    beq s4, 0, done
body:
    s5 = shl s3, 3
    s6 = add s0, s5
    s7 = load [s6 + 0]
    s8 = fmul s7, s7
    s9 = fadd s2, s8
    s2 = mov s9
    s10 = add s3, 1
    s3 = mov s10
    jmp head
done:
    ret s2
}
"#;

const ALL: &[(&str, &str)] = &[
    ("dot8", DOT8),
    ("fir4", FIR4),
    ("horner6", HORNER6),
    ("matmul2", MATMUL2),
    ("stencil3", STENCIL3),
    ("saxpy4", SAXPY4),
    ("complex_mul", COMPLEX_MUL),
    ("butterfly", BUTTERFLY),
    ("matvec4", MATVEC4),
    ("poly_pair", POLY_PAIR),
    ("addr_calc", ADDR_CALC),
    ("reduction16", REDUCTION16),
    ("loop_sum", LOOP_SUM),
    ("diamond", DIAMOND),
    ("float_loop", FLOAT_LOOP),
];

/// Parses compiled-in corpus text; `tests/textual.rs` round-trips every
/// kernel, so a parse failure here cannot ship.
fn parse_kernel(src: &str) -> Function {
    match parse_function(src) {
        Ok(f) => f,
        Err(e) => unreachable!("corpus kernel does not parse: {e}"),
    }
}

/// Names of every kernel, in corpus order.
pub fn kernel_names() -> Vec<&'static str> {
    ALL.iter().map(|&(n, _)| n).collect()
}

/// Parses the named kernel, or `None` if unknown.
pub fn kernel(name: &str) -> Option<Function> {
    ALL.iter()
        .find(|&&(n, _)| n == name)
        .map(|&(_, src)| parse_kernel(src))
}

/// Parses the entire corpus as `(name, function)` pairs.
pub fn kernels() -> Vec<(&'static str, Function)> {
    ALL.iter().map(|&(n, src)| (n, parse_kernel(src))).collect()
}

/// The straight-line (single-block) subset of the corpus.
pub fn straight_line_kernels() -> Vec<(&'static str, Function)> {
    kernels()
        .into_iter()
        .filter(|(_, f)| f.block_count() == 1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched_ir::verify::verify_function;

    #[test]
    fn corpus_parses_and_verifies() {
        let all = kernels();
        assert_eq!(all.len(), 15);
        for (name, f) in &all {
            verify_function(f, true).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(kernel("dot8").is_some());
        assert!(kernel("nope").is_none());
        assert_eq!(kernel_names().len(), 15);
    }

    #[test]
    fn straight_line_subset() {
        let sl = straight_line_kernels();
        assert_eq!(sl.len(), 12);
        assert!(sl.iter().all(|(_, f)| f.block_count() == 1));
    }

    #[test]
    fn kernels_execute() {
        use parsched_ir::interp::{Interpreter, Memory};
        let mut mem = Memory::new();
        for a in 0..64 {
            mem.set_abs(a * 8 + 1000, a + 1);
            mem.set_abs(a * 8 + 2000, 2 * a + 1);
            mem.set_abs(a * 8 + 3000, 0);
        }
        let i = Interpreter::new();
        let dot = kernel("dot8").unwrap();
        let out = i.run(&dot, &[1000, 2000], mem.clone()).unwrap();
        // Σ (a+1)(2a+1) for a=0..3 = 1*1 + 2*3 + 3*5 + 4*7 = 50
        assert_eq!(out.return_value, Some(50));

        let ls = kernel("loop_sum").unwrap();
        let out = i.run(&ls, &[1000, 4], mem.clone()).unwrap();
        assert_eq!(out.return_value, Some(1 + 2 + 3 + 4));

        let d = kernel("diamond").unwrap();
        let pos = i.run(&d, &[2, 1000], mem.clone()).unwrap();
        assert_eq!(pos.return_value, Some(3 + 1 + 2));
        let neg = i.run(&d, &[-2, 1000], mem).unwrap();
        assert_eq!(neg.return_value, Some(5 - 1 - 2));
    }
}
