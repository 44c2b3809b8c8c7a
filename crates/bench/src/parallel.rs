//! A minimal scoped-thread job pool for fanning independent simulation
//! runs across cores.
//!
//! Every simulation in this crate is a pure function of `(trace, policy,
//! config, seed)`, so experiments that sweep a parameter grid are
//! embarrassingly parallel. [`run_many`] executes such a grid with a
//! fixed number of worker threads and returns the results **in input
//! order**, so the caller's rendering — and therefore the experiment's
//! output — is byte-identical whether one worker or sixteen ran the grid.
//!
//! The worker count comes from [`jobs`]: the `QUTS_JOBS` environment
//! variable when set, the machine's available parallelism otherwise.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The number of parallel simulation jobs to use: `QUTS_JOBS` if set to a
/// positive integer, otherwise the machine's available parallelism.
pub fn jobs() -> usize {
    std::env::var("QUTS_JOBS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&j| j >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Runs `f` over every input with up to `jobs` worker threads and returns
/// the outputs in input order.
///
/// Work is claimed through a shared atomic cursor, so long and short runs
/// interleave without static partitioning. With `jobs <= 1` (or a single
/// input) everything runs inline on the calling thread — the sequential
/// baseline the determinism tests compare against.
pub(crate) fn run_many<I, T, F>(jobs: usize, inputs: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = inputs.len();
    if jobs <= 1 || n <= 1 {
        return inputs.into_iter().map(f).collect();
    }

    let slots: Vec<Mutex<Option<I>>> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let input = slots[i]
                    .lock()
                    .expect("input slot poisoned")
                    .take()
                    .expect("input claimed twice");
                let output = f(input);
                *results[i].lock().expect("result slot poisoned") = Some(output);
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker died before storing its result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let out = run_many(4, inputs.clone(), |x| x * 2);
        assert_eq!(out, inputs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let inputs: Vec<u64> = (0..37).collect();
        let seq = run_many(1, inputs.clone(), |x| x * x + 1);
        let par = run_many(8, inputs, |x| x * x + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn handles_empty_and_singleton() {
        assert_eq!(run_many(4, Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(run_many(4, vec![7u32], |x| x + 1), vec![8]);
    }
}
