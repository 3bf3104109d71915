//! The yardstick: a fixed piece of work, made of the benchmark's own
//! code, timed between every two timed items of a run (set-up samples
//! and rounds). It is the same work in every run and in every version
//! of the program, so its wall time measures only how fast the host
//! runs at that moment.
//!
//! The host this benchmark was tuned on runs the same work at speeds
//! that differ by up to 2x, in spells of seconds to minutes (see
//! README.md, "Host speed and the yardstick"). A timed item's wall
//! time divided by the mean of the yardsticks before and after it
//! cancels most of that factor; multiplied by `REF_MS`, the yardstick's median time on the
//! reference VM, it reads as the item's wall time on that VM at its
//! usual speed.

use crate::alloc;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The yardstick's median wall time on the reference VM (README.md,
/// "Reference figures"), in ms.
pub const REF_MS: f64 = 40.0;

/// Passes over the kernel per yardstick.
const PASSES: usize = 3;

/// Runs the yardstick once and returns its wall time in ms. Its heap
/// traffic is kept out of the allocation counters and the peak heap.
pub fn measure() -> f64 {
    let started = Instant::now();
    let sum = alloc::uncounted(|| (0..PASSES).map(|_| kernel()).fold(0, u64::wrapping_add));
    black_box(sum);
    started.elapsed().as_secs_f64() * 1e3
}

/// Work shaped like the toolchain's: small heap objects, string
/// formatting, ordered and hashed maps, a sort, and a branchy
/// interpreter loop over a small program, with a working set of about
/// 1.5 MB.
fn kernel() -> u64 {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut tree: BTreeMap<String, Vec<u32>> = BTreeMap::new();
    let mut hash: HashMap<u64, String> = HashMap::new();
    for i in 0..12_000u32 {
        let v = next();
        let key = format!("k{:x}", v % 50_000);
        tree.entry(key.clone()).or_default().push(i);
        hash.insert(v % 20_000, key);
    }
    let mut words: Vec<u64> = (0..40_000).map(|_| next()).collect();
    words.sort_unstable();
    let mut sum = words
        .iter()
        .step_by(97)
        .fold(0u64, |a, w| a.wrapping_add(*w));
    for (k, v) in &tree {
        sum = sum.wrapping_add(k.len() as u64 * v.len() as u64);
    }
    for i in 0..20_000u64 {
        if let Some(s) = hash.get(&i) {
            sum = sum.wrapping_add(s.len() as u64);
        }
    }
    // A tiny stack machine: opcodes drawn once, run many times.
    let code: Vec<u8> = (0..64).map(|_| (next() % 5) as u8).collect();
    let mut stack = vec![1u64; 16];
    for _ in 0..3_000 {
        for (pc, op) in code.iter().enumerate() {
            let top = stack.len() - 1;
            match op {
                0 => stack[top] = stack[top].wrapping_add(pc as u64),
                1 => stack[top] = stack[top].rotate_left(3) ^ stack[top - 1],
                2 if stack.len() < 32 => stack.push(stack[top] >> 1),
                3 if stack.len() > 2 => sum = sum.wrapping_add(stack.pop().unwrap_or(0)),
                _ => stack[top] = stack[top].wrapping_mul(0x9E37_79B9),
            }
        }
    }
    sum.wrapping_add(stack.iter().sum::<u64>())
}
