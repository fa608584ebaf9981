//! The campaign executor: deterministic parallel execution of experiment
//! grids.
//!
//! Every paper result is a grid of independent *cells* — (file, policy,
//! loss) points, per-run downloads, burst-length ablations — each of
//! which runs one or more seeded simulations. A [`Campaign`] fans the
//! cells out over a bounded pool of scoped worker threads
//! (`std::thread::scope`) and returns the results in input order.
//!
//! # Determinism
//!
//! Output is **byte-identical for every thread count**, by construction:
//!
//! 1. Every RNG seed is a pure function of the cell's identity —
//!    [`Campaign::seed`] derives it from `(master_seed, cell index, run
//!    index)` and nothing else. No seed ever depends on which worker ran
//!    the cell or in what order cells completed.
//! 2. Each simulation derives *all* of its randomness from its seed (see
//!    `Simulator::new`), and cells share no mutable state.
//! 3. Results are written into a preallocated slot per cell and returned
//!    in input order, so scheduling cannot reorder them.
//!
//! The default `master_seed = 0` selects the *legacy identity scheme*:
//! `seed(cell, run) == run`, exactly the seeds the paper-calibrated
//! experiments have always used. Two properties of that scheme are
//! load-bearing: the baseline (no-DRE) and DRE runs of a cell share a
//! seed, hence an identical channel realization, which is what makes
//! their byte/delay ratios meaningful; and equal-loss cells see equal
//! channel realizations, which keeps cross-policy comparisons paired.
//! A nonzero `master_seed` switches to a splitmix64 mix of all three
//! components, decorrelating cells while still pairing the baseline and
//! DRE runs within each cell.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One splitmix64 step: the de-facto standard 64-bit seed mixer
/// (Steele et al.), a bijection with strong avalanche behavior.
#[must_use]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the RNG seed for run `run` of cell `cell`.
///
/// Pure function of its arguments — never of thread count or schedule —
/// which is the cornerstone of campaign determinism (see the [module
/// docs](self)). `master == 0` is the legacy identity scheme
/// (`seed == run`); any other master mixes all three components through
/// `splitmix64`.
#[must_use]
pub fn derive_seed(master: u64, cell: u64, run: u64) -> u64 {
    if master == 0 {
        return run;
    }
    splitmix64(splitmix64(master ^ cell.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ run)
}

/// A deterministic parallel runner for experiment grids.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Worker threads; 0 = one per available CPU.
    threads: usize,
    /// Seed-derivation master; 0 = legacy identity scheme.
    master_seed: u64,
    /// Emit a per-cell progress line on stderr as cells complete.
    progress: bool,
}

impl Default for Campaign {
    /// Available-parallelism threads, legacy seeds, no progress output.
    fn default() -> Self {
        Campaign {
            threads: 0,
            master_seed: 0,
            progress: false,
        }
    }
}

impl Campaign {
    /// A strictly sequential campaign (`threads = 1`); the reference
    /// against which parallel output must be byte-identical.
    #[must_use]
    pub fn serial() -> Self {
        Campaign::default().with_threads(1)
    }

    /// Set the worker-thread count (0 = one per available CPU).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the seed-derivation master (see [`derive_seed`]).
    #[must_use]
    pub fn with_master_seed(mut self, master: u64) -> Self {
        self.master_seed = master;
        self
    }

    /// Enable or disable per-cell progress lines on stderr.
    #[must_use]
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// The configured thread count resolved against the machine (always
    /// ≥ 1).
    #[must_use]
    pub fn threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }

    /// The seed-derivation master.
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// The seed for run `run` of cell `cell` under this campaign's
    /// master (see [`derive_seed`]).
    #[must_use]
    pub fn seed(&self, cell: u64, run: u64) -> u64 {
        derive_seed(self.master_seed, cell, run)
    }

    /// Run `f` over every cell, in parallel up to the configured thread
    /// count, and return the results in input order. `f` receives the
    /// cell's index (for [`seed`](Self::seed) derivation) and the cell
    /// itself.
    ///
    /// `label` names the grid in progress output.
    pub fn run_cells<T, U, F>(&self, label: &str, cells: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, T) -> U + Sync,
    {
        let total = cells.len();
        let threads = self.threads().min(total.max(1));
        let started = Instant::now();
        if threads <= 1 {
            return cells
                .into_iter()
                .enumerate()
                .map(|(i, cell)| {
                    let out = f(i, cell);
                    self.note_progress(label, i + 1, total, &started);
                    out
                })
                .collect();
        }
        // Scoped-thread fan-out: a shared LIFO work queue (reversed, so
        // cells start in input order) feeding preallocated result slots.
        let mut work: Vec<(usize, T)> = cells.into_iter().enumerate().collect();
        work.reverse();
        let queue = Mutex::new(work);
        let results: Mutex<Vec<Option<U>>> = Mutex::new((0..total).map(|_| None).collect());
        let done = AtomicUsize::new(0);
        // Cells run outside both locks, so a panicking cell cannot
        // poison them; the scope re-raises its panic on join.
        const UNPOISONED: &str = "no lock holder can panic";
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let item = queue.lock().expect(UNPOISONED).pop();
                    let Some((i, cell)) = item else { break };
                    let out = f(i, cell);
                    results.lock().expect(UNPOISONED)[i] = Some(out);
                    let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
                    self.note_progress(label, completed, total, &started);
                });
            }
        });
        results
            .into_inner()
            .expect(UNPOISONED)
            .into_iter()
            .map(|r| r.expect("every cell ran"))
            .collect()
    }

    fn note_progress(&self, label: &str, completed: usize, total: usize, started: &Instant) {
        if self.progress {
            eprintln!(
                "  [{label}] cell {completed}/{total} done ({:.1}s elapsed)",
                started.elapsed().as_secs_f64()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order_at_any_thread_count() {
        let cells: Vec<u64> = (0..37).collect();
        for threads in [1, 2, 3, 8] {
            let campaign = Campaign::default().with_threads(threads);
            let out = campaign.run_cells("t", cells.clone(), |i, c| {
                assert_eq!(i as u64, c);
                c * 10
            });
            assert_eq!(out, cells.iter().map(|c| c * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn legacy_master_gives_identity_seeds() {
        let c = Campaign::default();
        for cell in 0..5 {
            for run in 0..5 {
                assert_eq!(c.seed(cell, run), run);
            }
        }
    }

    #[test]
    fn nonzero_master_mixes_all_components() {
        let c = Campaign::default().with_master_seed(0xFEED);
        // Stable (pure function)...
        assert_eq!(c.seed(3, 1), c.seed(3, 1));
        // ...and sensitive to every component.
        assert_ne!(c.seed(3, 1), c.seed(3, 2));
        assert_ne!(c.seed(3, 1), c.seed(4, 1));
        assert_ne!(
            c.seed(3, 1),
            Campaign::default().with_master_seed(0xBEEF).seed(3, 1)
        );
    }

    #[test]
    fn empty_grid_is_fine() {
        let out = Campaign::default().run_cells("empty", Vec::<u8>::new(), |_, c| c);
        assert!(out.is_empty());
    }

    #[test]
    fn threads_resolve_to_at_least_one() {
        assert!(Campaign::default().threads() >= 1);
        assert_eq!(Campaign::serial().threads(), 1);
        assert_eq!(Campaign::default().with_threads(6).threads(), 6);
    }
}
