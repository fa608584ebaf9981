//! Figure 6 — frequency of TCP connection stalls under the naive policy
//! at 1 % packet loss.
//!
//! The paper's experiment: clear both caches, download a 587,567-byte
//! e-book 50 times at 1 % loss with the original (naive) byte caching
//! algorithm, and record the fraction of the file retrieved before the
//! connection stalls. Result: 49 of 50 runs stalled; on average 25.5 %
//! of the file (≈ 100 packets, the reciprocal of the loss rate) was
//! retrieved.

use bytecache::PolicyKind;
use bytecache_telemetry::Recorder;
use bytecache_workload::{generate, ObjectKind};
use serde::{Deserialize, Serialize};

use crate::campaign::Campaign;
use crate::report::Table;
use crate::scenario::{run_scenario, ScenarioConfig};

/// The paper's e-book size.
pub const EBOOK_SIZE: usize = 587_567;

/// Outcome of the stall-frequency experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Result {
    /// Fraction of the file retrieved, one entry per run.
    pub fractions: Vec<f64>,
    /// Runs that completed the download.
    pub successes: usize,
    /// Mean fraction retrieved across runs.
    pub mean_fraction: f64,
    /// Loss rate used.
    pub loss_rate: f64,
}

/// Run `runs` naive-policy downloads of a synthetic e-book at
/// `loss_rate` and record how far each got: one cell per download, run
/// `r` seeded with `r`. Also returns the runs' telemetry merged in input
/// order (empty unless the campaign collects it).
#[must_use]
pub fn run(
    campaign: &Campaign,
    runs: usize,
    object_size: usize,
    loss_rate: f64,
) -> (Fig6Result, Recorder) {
    let object = generate(ObjectKind::Ebook, object_size, 42);
    let cells: Vec<u64> = (0..runs as u64).collect();
    let (outcomes, merged) = campaign.run_recorded("fig6", cells, |run, rec| {
        let r = run_scenario(
            &ScenarioConfig::new(object.clone())
                .policy(PolicyKind::Naive)
                .loss(loss_rate)
                .seed(run)
                .telemetry(rec.is_enabled()),
        );
        if let Some(snapshot) = &r.telemetry {
            rec.merge(snapshot);
        }
        (r.fraction_retrieved(), r.completed())
    });
    let successes = outcomes.iter().filter(|(_, done)| *done).count();
    let mean_fraction = outcomes.iter().map(|(f, _)| f).sum::<f64>() / runs.max(1) as f64;
    (
        Fig6Result {
            fractions: outcomes.into_iter().map(|(f, _)| f).collect(),
            successes,
            mean_fraction,
            loss_rate,
        },
        merged,
    )
}

/// Serialize the result as a JSON object. Same byte-for-byte contract
/// as [`crate::sweep::to_json`]: used by the campaign determinism
/// checks to compare serial and parallel output.
#[must_use]
pub fn to_json(result: &Fig6Result) -> String {
    let fractions: Vec<String> = result.fractions.iter().map(|f| format!("{f}")).collect();
    format!(
        "{{\"loss_rate\": {}, \"successes\": {}, \"mean_fraction\": {}, \"fractions\": [{}]}}",
        result.loss_rate,
        result.successes,
        result.mean_fraction,
        fractions.join(", ")
    )
}

/// Render per-run retrieval fractions plus the summary line.
#[must_use]
pub fn render(result: &Fig6Result) -> Table {
    let mut t = Table::new(
        &format!(
            "Figure 6 — % of file retrieved before stall (naive, {:.0}% loss); \
             paper: 1/50 succeeded, mean 25.5%",
            result.loss_rate * 100.0
        ),
        &["connection", "% retrieved"],
    );
    for (i, f) in result.fractions.iter().enumerate() {
        t.row(&[format!("{}", i + 1), format!("{:.1}", f * 100.0)]);
    }
    t.row(&[
        "mean".to_string(),
        format!(
            "{:.1}  ({} of {} completed)",
            result.mean_fraction * 100.0,
            result.successes,
            result.fractions.len()
        ),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stalls_dominate_when_loss_is_certain() {
        // Scaled-down version of the paper's experiment. A run succeeds
        // only if the channel happens to drop nothing (one lost packet
        // stalls the naive policy), so pick a loss rate that makes a
        // loss-free run very unlikely for this object size
        // (0.97^103 ≈ 4 %; the paper's 587 KB at 1 % gives 1.7 %).
        let r = run(&Campaign::default(), 10, 150_000, 0.03).0;
        assert!(
            r.successes <= 2,
            "naive should stall almost always: {} of 10 succeeded",
            r.successes
        );
        // Every stalled run retrieved a proper prefix.
        assert!(r.fractions.iter().all(|&f| (0.0..=1.0).contains(&f)));
        assert!(r.mean_fraction < 0.9);
    }

    #[test]
    fn no_loss_means_no_stalls() {
        let r = run(&Campaign::default(), 3, 100_000, 0.0).0;
        assert_eq!(r.successes, 3);
        assert!((r.mean_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn json_is_exact_and_balanced() {
        let r = Fig6Result {
            fractions: vec![0.25, 1.0],
            successes: 1,
            mean_fraction: 0.625,
            loss_rate: 0.01,
        };
        let json = to_json(&r);
        assert_eq!(
            json,
            "{\"loss_rate\": 0.01, \"successes\": 1, \"mean_fraction\": 0.625, \
             \"fractions\": [0.25, 1]}"
        );
    }

    #[test]
    fn render_includes_summary() {
        let r = run(&Campaign::default(), 2, 60_000, 0.0).0;
        let s = render(&r).render();
        assert!(s.contains("mean"));
        assert!(s.contains("2 of 2 completed"));
    }
}
