//! The campaign executor: deterministic parallel execution of experiment
//! grids.
//!
//! Every paper result is a grid of independent *cells* — (file, policy,
//! loss) points, per-run downloads, burst-length ablations — each of
//! which runs one or more seeded simulations. A [`Campaign`] fans the
//! cells out over a bounded pool of scoped worker threads
//! (`std::thread::scope`) and returns the results in input order. It
//! also carries the one telemetry choice of a run: whether each cell
//! collects a snapshot ([`Campaign::run_recorded`]).
//!
//! # Determinism
//!
//! Output is **byte-identical for every thread count**, by construction:
//!
//! 1. Every RNG seed is the run index within its cell: run `r` of any
//!    cell is seeded with `r`, whichever worker runs it and whenever.
//!    The baseline (no-DRE) and DRE runs of a cell therefore share a
//!    seed, hence an identical channel realization, which is what makes
//!    their byte/delay ratios meaningful; and equal-loss cells see equal
//!    channel realizations, which keeps cross-policy comparisons paired.
//! 2. Each simulation derives *all* of its randomness from its seed (see
//!    `Simulator::new`), and cells share no mutable state.
//! 3. Results — and per-cell telemetry recorders — are written into a
//!    preallocated slot per cell and returned (merged) in input order,
//!    so scheduling cannot reorder them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use bytecache_netsim::QueueKind;
use bytecache_telemetry::Recorder;

/// A deterministic parallel runner for experiment grids.
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    /// Worker threads; 0 = one per available CPU.
    threads: usize,
    /// Emit a per-cell progress line on stderr as cells complete.
    progress: bool,
    /// Collect a telemetry snapshot in every cell.
    telemetry: bool,
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

    /// Enable or disable per-cell progress lines on stderr.
    #[must_use]
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Enable or disable telemetry collection in every cell. Results are
    /// byte-identical either way; only the recorder harnesses return
    /// differs (empty when off).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
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

    /// Whether cells collect telemetry.
    #[must_use]
    pub fn telemetry(&self) -> bool {
        self.telemetry
    }

    /// A fresh recorder, enabled iff this campaign collects telemetry.
    fn recorder(&self) -> Recorder {
        if self.telemetry {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    }

    /// Run `f` over every cell, in parallel up to the configured thread
    /// count, and return the results in input order.
    ///
    /// `label` names the grid in progress output.
    pub fn run_cells<T, U, F>(&self, label: &str, cells: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        let total = cells.len();
        let threads = self.threads().min(total.max(1));
        let started = Instant::now();
        if threads <= 1 {
            return cells
                .into_iter()
                .enumerate()
                .map(|(i, cell)| {
                    let out = f(cell);
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
                    let out = f(cell);
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

    /// [`run_cells`](Self::run_cells) for harnesses that collect
    /// telemetry: each cell records into its own recorder (enabled iff
    /// the campaign collects telemetry), and the cells' recorders are
    /// merged in input order, so the
    /// returned snapshot is identical for every thread count (and empty
    /// when telemetry is off).
    pub fn run_recorded<T, U, F>(&self, label: &str, cells: Vec<T>, f: F) -> (Vec<U>, Recorder)
    where
        T: Send,
        U: Send,
        F: Fn(T, &mut Recorder) -> U + Sync,
    {
        let results = self.run_cells(label, cells, |cell| {
            let mut rec = self.recorder();
            let out = f(cell, &mut rec);
            (out, rec)
        });
        let mut merged = self.recorder();
        let mut outs = Vec::with_capacity(results.len());
        for (out, rec) in results {
            merged.merge(&rec);
            outs.push(out);
        }
        (outs, merged)
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

/// Outcome of a [`determinism_check`].
#[derive(Debug, Clone)]
pub struct IdentityCheck {
    /// Every variant digested byte-identically to its reference.
    pub identical: bool,
    /// Probes checked.
    pub combos: usize,
    /// Simulations run (a reference and two variants per probe).
    pub runs: usize,
}

/// The determinism matrix a simulation harness asserts on its probes:
/// `digest(probe, queue, telemetry)` — a text summary of one run — must
/// be byte-identical for the (`Heap`, telemetry off) reference, the
/// (`Wheel`, off) run and the (`Heap`, on) run of every probe.
pub fn determinism_check<P, F>(probes: &[P], digest: F) -> IdentityCheck
where
    F: Fn(&P, QueueKind, bool) -> String,
{
    let variants = [(QueueKind::Wheel, false), (QueueKind::Heap, true)];
    let mut identical = true;
    let mut runs = 0;
    for probe in probes {
        let reference = digest(probe, QueueKind::Heap, false);
        runs += 1;
        for (queue, telemetry) in variants {
            identical &= digest(probe, queue, telemetry) == reference;
            runs += 1;
        }
    }
    IdentityCheck {
        identical,
        combos: probes.len(),
        runs,
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
            let out = campaign.run_cells("t", cells.clone(), |c| c * 10);
            assert_eq!(out, cells.iter().map(|c| c * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let out = Campaign::default().run_cells("empty", Vec::<u8>::new(), |c| c);
        assert!(out.is_empty());
    }

    #[test]
    fn threads_resolve_to_at_least_one() {
        assert!(Campaign::default().threads() >= 1);
        assert_eq!(Campaign::serial().threads(), 1);
        assert_eq!(Campaign::default().with_threads(6).threads(), 6);
    }

    #[test]
    fn recorded_cells_merge_in_input_order_or_stay_empty() {
        let cells: Vec<u64> = (1..=9).collect();
        for threads in [1, 3] {
            let on = Campaign::default()
                .with_threads(threads)
                .with_telemetry(true);
            let (out, rec) = on.run_recorded("t", cells.clone(), |c, rec| {
                rec.count("cells", 1);
                rec.record("value", c);
                c + 1
            });
            assert_eq!(out, (2..=10).collect::<Vec<_>>());
            assert_eq!(rec.counter("cells"), 9);
            assert_eq!(rec.hist("value").map(|h| h.sum()), Some(45));

            let off = on.clone().with_telemetry(false);
            let (out, rec) = off.run_recorded("t", cells.clone(), |c, rec| {
                rec.count("cells", 1);
                c + 1
            });
            assert_eq!(out, (2..=10).collect::<Vec<_>>());
            assert!(rec.is_empty() && !rec.is_enabled());
        }
    }

    #[test]
    fn matrix_fails_on_exactly_one_diverging_variant() {
        let probes = [1u8, 2, 3];
        let steady = determinism_check(&probes, |p, _, _| format!("probe {p}"));
        assert!(steady.identical);
        // The handoff and tournament harnesses pin these counts too.
        assert_eq!((steady.combos, steady.runs), (3, 9));
        for (bad_queue, bad_telemetry) in [(QueueKind::Wheel, false), (QueueKind::Heap, true)] {
            let check = determinism_check(&probes, |p, queue, telemetry| {
                let diverged = *p == 2 && queue == bad_queue && telemetry == bad_telemetry;
                format!("probe {p}{}", if diverged { " (diverged)" } else { "" })
            });
            assert!(!check.identical, "missed {bad_queue:?}/{bad_telemetry}");
            assert_eq!((check.combos, check.runs), (3, 9));
        }
    }
}
