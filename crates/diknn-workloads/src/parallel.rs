//! The sanctioned parallel executor for seed sweeps.
//!
//! This is the **only** module in the workspace allowed to touch
//! `std::thread` (enforced by the `raw-thread` rule of `cargo xtask
//! lint`): all parallelism funnels through [`ParallelSweep`], which is
//! built so that parallel execution cannot change results.
//!
//! # Determinism argument
//!
//! A simulation run is a pure function of its seed — `Simulator` holds no
//! ambient state ([`diknn_sim::Simulator`] is `Send`, every RNG is
//! seeded, the clock is simulated. The sweep therefore parallelises at
//! the *run* boundary and nowhere inside a run:
//!
//! 1. **Same inputs.** Worker `i` computes job `i` with exactly the
//!    arguments the sequential loop would pass (seeds derived by the
//!    caller from the job index, never from thread identity).
//! 2. **Same collection order.** Each worker writes its result into slot
//!    `i` of a pre-allocated buffer; the caller reads slots `0..n` in
//!    index order. Aggregation (including float summation, which is not
//!    associative) therefore sees results in the identical order the
//!    sequential path produces.
//! 3. **No shared mutable state.** Workers share only the job counter;
//!    everything else is per-run. Thread scheduling can change *when*
//!    a job runs, never *what* it computes or where it lands.
//!
//! Hence `run_parallel(n, seed, …) == run(n, seed)` bit for bit, which
//! `tests/parallel_equiv.rs` pins.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A scoped-thread work-stealing executor for embarrassingly parallel
/// sweeps (seed × config cells). No dependencies beyond `std`.
#[derive(Debug, Clone, Copy)]
pub struct ParallelSweep {
    threads: usize,
}

impl ParallelSweep {
    /// An executor with exactly `threads` workers (clamped to ≥ 1).
    /// One thread degenerates to the plain sequential loop.
    pub fn new(threads: usize) -> Self {
        ParallelSweep {
            threads: threads.max(1),
        }
    }

    /// An executor sized to the machine's available parallelism.
    pub fn available() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ParallelSweep::new(threads)
    }

    /// Worker count.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Compute `f(0), f(1), …, f(n-1)` across the worker pool and return
    /// the results **in index order** — bit-identical to
    /// `(0..n).map(f).collect()` whatever the thread interleaving.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads == 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = f(i);
                    if let Ok(mut slot) = slots[i].lock() {
                        *slot = Some(out);
                    }
                });
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match slot.into_inner() {
                Ok(Some(v)) => v,
                // Unreachable unless a worker panicked, and a worker panic
                // already propagates out of thread::scope above.
                _ => panic!("parallel sweep produced no result for job {i}"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        let sweep = ParallelSweep::new(4);
        // Jobs finish out of order (later indices are cheaper), results
        // must not.
        let got = sweep.map(32, |i| {
            std::thread::sleep(std::time::Duration::from_micros(((32 - i) as u64) * 50));
            i * i
        });
        assert_eq!(got, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_is_the_sequential_loop() {
        let sweep = ParallelSweep::new(1);
        assert_eq!(sweep.threads(), 1);
        assert_eq!(sweep.map(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(ParallelSweep::new(0).threads(), 1);
        assert!(ParallelSweep::available().threads() >= 1);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let sweep = ParallelSweep::new(8);
        assert_eq!(sweep.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(sweep.map(1, |i| i), vec![0]);
    }

    #[test]
    fn more_threads_than_jobs() {
        let sweep = ParallelSweep::new(16);
        assert_eq!(sweep.map(3, |i| i * 2), vec![0, 2, 4]);
    }
}
