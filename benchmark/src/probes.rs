//! Timing harness for the single-threaded layer probes. What is called
//! lives in `sut.rs`; how it is timed lives here.

use crate::stats::median;
use std::time::Instant;

/// Calls per timed span: short enough that one preemption spoils one
/// span of many, long enough that the two clock reads around a span
/// (~50 ns) vanish against the work inside it.
const SPAN_CALLS: usize = 500;

/// One probe's outcome.
#[derive(Debug, Clone)]
pub struct ProbeResult {
    pub name: &'static str,
    pub unit: &'static str,
    /// Calls (or samples) behind the value.
    pub n: usize,
    pub value: f64,
}

impl ProbeResult {
    pub fn ns(name: &'static str, n: usize, value: f64) -> ProbeResult {
        ProbeResult {
            name,
            unit: "ns",
            n,
            value,
        }
    }
}

/// Runs `op(i)` for `i` in `0..n` under one span per [`SPAN_CALLS`]
/// calls and returns the median span's cost per call, in nanoseconds.
pub fn per_call_ns(n: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(n / SPAN_CALLS + 1);
    let mut i = 0;
    while i < n {
        let end = (i + SPAN_CALLS).min(n);
        let started = Instant::now();
        for k in i..end {
            op(k);
        }
        per_call.push(started.elapsed().as_nanos() as f64 / (end - i) as f64);
        i = end;
    }
    median(&per_call)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_call_cost_grows_with_the_work_inside() {
        let spin = |iters: u64| {
            per_call_ns(2_000, |i| {
                let mut x = i as u64;
                for k in 0..iters {
                    x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(k));
                }
                std::hint::black_box(x);
            })
        };
        let (small, large) = (spin(10), spin(1_000));
        assert!(large > small * 10.0, "{small} ns vs {large} ns");
    }
}
