//! Seeded input generation. Every input the program sees is `.psc` text
//! built here from the workload seed, so a change to the program's own
//! generators (`parsched-workload`) can never change what is measured.

use std::fmt::Write;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x243f_6a88_85a3_08d3)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len())]
    }
}

/// Shape of a random single-block DAG.
#[derive(Debug, Clone, Copy)]
pub struct DagShape {
    /// Compute instructions before the reduction tail.
    pub size: usize,
    /// Each operand is drawn from the last `window` values: small windows
    /// make chains (a narrow chain cover), large ones wide parallel DAGs.
    pub window: usize,
    pub load_frac: f64,
    pub float_frac: f64,
}

const INT_OPS: &[&str] = &["add", "sub", "mul", "and", "xor"];
const FLOAT_OPS: &[&str] = &["fadd", "fsub", "fmul"];

/// A single-block function `@name(s0, s1)`: `s0` is a base pointer whose
/// loads use distinct offsets, `s1` a seed value; a xor tail keeps the
/// last `window` values live to the return.
pub fn dag(rng: &mut Rng, name: &str, shape: &DagShape) -> String {
    let mut out = format!("func @{name}(s0, s1) {{\nentry:\n");
    let mut values: Vec<u32> = vec![1];
    let mut next = 2u32;
    let mut offset = 0i64;
    for _ in 0..shape.size {
        let d = next;
        next += 1;
        if rng.chance(shape.load_frac) {
            let _ = writeln!(out, "    s{d} = load [s0 + {offset}]");
            offset += 8;
        } else {
            let lo = values.len().saturating_sub(shape.window);
            let a = values[rng.range(lo, values.len())];
            let b = values[rng.range(lo, values.len())];
            let op = if rng.chance(shape.float_frac) {
                rng.pick(FLOAT_OPS)
            } else {
                rng.pick(INT_OPS)
            };
            let _ = writeln!(out, "    s{d} = {op} s{a}, s{b}");
        }
        values.push(d);
    }
    let tail = values.len().saturating_sub(shape.window.max(4));
    let mut acc = values[tail];
    for &v in &values[tail + 1..] {
        let d = next;
        next += 1;
        let _ = writeln!(out, "    s{d} = xor s{acc}, s{v}");
        acc = d;
    }
    let _ = writeln!(out, "    ret s{acc}\n}}");
    out
}

/// A straight-line numeric kernel `@name(s0, s1)` over two arrays: a dot
/// product, a Horner polynomial, or a sum of squares (by `variant % 3`),
/// with 4–9 terms (by `variant / 3`).
pub fn kernel(variant: usize, name: &str) -> String {
    let terms = 4 + (variant / 3) % 6;
    let mut out = format!("func @{name}(s0, s1) {{\nentry:\n");
    let mut next = 2u32;
    let mut fresh = || {
        let r = next;
        next += 1;
        r
    };
    let acc = match variant % 3 {
        0 => {
            let mut prods = Vec::new();
            for t in 0..terms {
                let (a, b, p) = (fresh(), fresh(), fresh());
                let _ = writeln!(out, "    s{a} = load [s0 + {}]", 8 * t);
                let _ = writeln!(out, "    s{b} = load [s1 + {}]", 8 * t);
                let _ = writeln!(out, "    s{p} = fmul s{a}, s{b}");
                prods.push(p);
            }
            reduce_tree(&mut out, &mut fresh, prods, "fadd")
        }
        1 => {
            let mut acc = fresh();
            let _ = writeln!(out, "    s{acc} = load [s1 + 0]");
            for t in 1..terms {
                let (c, m, s) = (fresh(), fresh(), fresh());
                let _ = writeln!(out, "    s{c} = load [s1 + {}]", 8 * t);
                let _ = writeln!(out, "    s{m} = fmul s{acc}, s0");
                let _ = writeln!(out, "    s{s} = fadd s{m}, s{c}");
                acc = s;
            }
            acc
        }
        _ => {
            let mut squares = Vec::new();
            for t in 0..terms {
                let (a, q) = (fresh(), fresh());
                let _ = writeln!(out, "    s{a} = load [s0 + {}]", 8 * t);
                let _ = writeln!(out, "    s{q} = mul s{a}, s{a}");
                squares.push(q);
            }
            reduce_tree(&mut out, &mut fresh, squares, "add")
        }
    };
    let _ = writeln!(out, "    ret s{acc}\n}}");
    out
}

fn reduce_tree(
    out: &mut String,
    fresh: &mut impl FnMut() -> u32,
    mut level: Vec<u32>,
    op: &str,
) -> u32 {
    while level.len() > 1 {
        let mut up = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            match pair {
                [a, b] => {
                    let d = fresh();
                    let _ = writeln!(out, "    s{d} = {op} s{a}, s{b}");
                    up.push(d);
                }
                [a] => up.push(*a),
                _ => unreachable!("chunks(2) yields one or two items"),
            }
        }
        level = up;
    }
    level[0]
}

/// A structured multi-block function `@name(s0, s1)`: straight segments,
/// if-then-else diamonds whose arms define one shared register (a
/// cross-block web), and counted loops with a loop-carried accumulator
/// (trip counts 2–5, so the interpreter always terminates).
pub fn cfg(rng: &mut Rng, name: &str, segments: usize, ops: usize) -> String {
    const OPS: &[&str] = &["add", "sub", "xor", "and", "fadd", "fmul"];
    let mut out = format!("func @{name}(s0, s1) {{\nentry:\n");
    let mut next = 2u32;
    let mut pool: Vec<u32> = vec![0, 1];
    let random_op = |rng: &mut Rng, out: &mut String, pool: &[u32], next: &mut u32| {
        let op = rng.pick(OPS);
        let lhs = *rng.pick(pool);
        let d = *next;
        *next += 1;
        if rng.chance(0.3) {
            let _ = writeln!(out, "    s{d} = {op} s{lhs}, {}", rng.range(0, 10));
        } else {
            let _ = writeln!(out, "    s{d} = {op} s{lhs}, s{}", rng.pick(pool));
        }
        d
    };
    for seg in 0..segments {
        match rng.range(0, 3) {
            0 => {
                let _ = writeln!(out, "    jmp straight{seg}\nstraight{seg}:");
                for _ in 0..ops {
                    let v = random_op(rng, &mut out, &pool, &mut next);
                    pool.push(v);
                }
            }
            1 => {
                let cond = *rng.pick(&pool);
                let t = next;
                next += 1;
                let _ = writeln!(out, "    blt s{cond}, 0, else{seg}\nthen{seg}:");
                let mut arm = pool.clone();
                for _ in 0..ops / 2 {
                    let v = random_op(rng, &mut out, &arm, &mut next);
                    arm.push(v);
                }
                let a = *rng.pick(&arm);
                let _ = writeln!(out, "    s{t} = add s{a}, 1\n    jmp join{seg}\nelse{seg}:");
                let b = *rng.pick(&pool);
                let _ = writeln!(out, "    s{t} = mul s{b}, 3\njoin{seg}:");
                pool.push(t);
            }
            _ => {
                let init = *rng.pick(&pool);
                let (acc, i, c, stepped, i2) = (next, next + 1, next + 2, next + 3, next + 4);
                next += 5;
                let trip = rng.range(2, 6);
                let mixed = *rng.pick(&pool);
                let _ = writeln!(
                    out,
                    "    s{acc} = mov s{init}\n    s{i} = li 0\nhead{seg}:\n    \
                     s{c} = slt s{i}, {trip}\n    beq s{c}, 0, exit{seg}\nbody{seg}:\n    \
                     s{stepped} = add s{acc}, s{mixed}\n    s{acc} = mov s{stepped}\n    \
                     s{i2} = add s{i}, 1\n    s{i} = mov s{i2}\n    jmp head{seg}\nexit{seg}:"
                );
                pool.push(acc);
            }
        }
    }
    let mut acc = *pool.last().unwrap_or(&0);
    for &v in pool.iter().rev().skip(1).take(2) {
        let d = next;
        next += 1;
        let _ = writeln!(out, "    s{d} = xor s{acc}, s{v}");
        acc = d;
    }
    let _ = writeln!(out, "    ret s{acc}\n}}");
    out
}

/// Small tight-register blocks in the style of `fuzz --gap`: the regime
/// where the exact solver closes the search space. `cell` picks the shape
/// from a fixed grid (sizes 5–10, windows 2–4, load and float shares), so
/// every seed draws the same mix of shapes.
pub fn gap_block(rng: &mut Rng, cell: usize, name: &str) -> String {
    let shape = DagShape {
        size: 5 + cell % 6,
        window: 2 + (cell / 6) % 3,
        load_frac: ((cell / 18) % 3) as f64 * 0.1,
        float_frac: ((cell / 54) % 4) as f64 * 0.1,
    };
    dag(rng, name, &shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsched::ir::{parse_module, verify::verify_function};

    #[test]
    fn generators_are_seeded_and_parse() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let shape = DagShape {
            size: 40,
            window: 8,
            load_frac: 0.2,
            float_frac: 0.4,
        };
        assert_eq!(dag(&mut a, "f", &shape), dag(&mut b, "f", &shape));
        for seed in 0..20 {
            let mut r = Rng::new(seed);
            let text = [
                dag(&mut r, "d", &shape),
                kernel(seed as usize, "k"),
                cfg(&mut r, "c", 5, 4),
                gap_block(&mut r, seed as usize, "g"),
            ]
            .join("\n");
            let funcs = parse_module(&text).expect("generated text parses");
            assert_eq!(funcs.len(), 4);
            for f in &funcs {
                verify_function(f, false).expect("generated function verifies");
            }
        }
    }
}
