//! Table II — the three encoding schemes compared at 5 % and 10 % loss
//! (File 1, k = 8).
//!
//! Paper values for reference:
//!
//! | metric | Cache Flush | TCP seq | k-distance |
//! |---|---|---|---|
//! | bytes sent (5 %) | 0.67 | 0.70 | 0.76 |
//! | delay (5 %) | 1.64 | 2.88 | 2.11 |
//! | bytes sent (10 %) | 0.74 | 0.82 | 0.94 |
//! | delay (10 %) | 1.84 | 3.87 | 4.01 |

use bytecache::PolicyKind;
use bytecache_workload::FileSpec;
use serde::{Deserialize, Serialize};

use crate::campaign::Campaign;
use crate::report::Table;
use crate::sweep::{self, SweepParams, SweepPoint};

/// The measured Table II cells.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Result {
    /// One sweep point per (policy, loss).
    pub points: Vec<SweepPoint>,
}

/// The three schemes of Table II.
#[must_use]
pub fn schemes() -> Vec<PolicyKind> {
    vec![
        PolicyKind::CacheFlush,
        PolicyKind::TcpSeq,
        PolicyKind::KDistance(8),
    ]
}

/// Run the Table II measurements: the Figure 10/11 sweep's grid at the
/// two loss rates (its telemetry is not kept).
#[must_use]
pub fn run(campaign: &Campaign, object_size: usize, seeds: u64) -> Table2Result {
    let params = SweepParams {
        object_size,
        losses: vec![0.05, 0.10],
        seeds,
        files: vec![FileSpec::File1],
        policies: schemes(),
    };
    Table2Result {
        points: sweep::run(campaign, &params).0,
    }
}

/// Render in the paper's layout (metrics as rows, schemes as columns).
#[must_use]
pub fn render(result: &Table2Result) -> Table {
    let pols = schemes();
    let mut headers = vec!["metric".to_string()];
    headers.extend(pols.iter().map(|p| p.label()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Table II — File 1 at 5% and 10% loss (k = 8); ratios vs no-DRE baseline",
        &header_refs,
    );
    for &(label, loss, bytes) in &[
        ("Bytes Sent (5% loss)", 0.05, true),
        ("Delay (5% loss)", 0.05, false),
        ("Bytes Sent (10% loss)", 0.10, true),
        ("Delay (10% loss)", 0.10, false),
    ] {
        let mut row = vec![label.to_string()];
        for &p in &pols {
            let pt = result
                .points
                .iter()
                .find(|q| q.policy == p && (q.loss - loss).abs() < 1e-9);
            row.push(pt.map_or("-".into(), |pt| {
                if bytes {
                    format!("{:.2}", pt.bytes_ratio)
                } else {
                    format!("{:.2}", pt.delay_ratio)
                }
            }));
        }
        t.row(&row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shape_holds() {
        let r = run(&Campaign::default(), 150_000, 2);
        assert_eq!(r.points.len(), 6);
        let get = |p: PolicyKind, l: f64| {
            r.points
                .iter()
                .find(|q| q.policy == p && (q.loss - l).abs() < 1e-9)
                .unwrap()
        };
        for &l in &[0.05, 0.10] {
            let cf = get(PolicyKind::CacheFlush, l);
            let ts = get(PolicyKind::TcpSeq, l);
            // All schemes still save bytes under loss (the paper's point
            // that byte savings survive where delay does not).
            assert!(cf.bytes_ratio < 1.0, "cf bytes at {l}: {}", cf.bytes_ratio);
            assert!(ts.bytes_ratio < 1.0);
            // Delay is strictly worse than baseline under loss...
            assert!(cf.delay_ratio > 1.0);
            // ...and cache-flush beats tcp-seq on delay (the paper's
            // headline comparison).
            assert!(
                cf.delay_ratio < ts.delay_ratio,
                "cache-flush ({}) must beat tcp-seq ({}) at {l}",
                cf.delay_ratio,
                ts.delay_ratio
            );
        }
    }

    #[test]
    fn render_matches_paper_layout() {
        let r = run(&Campaign::default(), 80_000, 1);
        let s = render(&r).render();
        assert!(s.contains("Bytes Sent (5% loss)"));
        assert!(s.contains("Delay (10% loss)"));
        assert!(s.contains("k-distance"));
    }
}
