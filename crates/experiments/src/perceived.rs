//! Figure 13 — perceived packet loss rate vs actual channel loss rate.
//!
//! Perceived loss = (channel losses + undecodable drops) / packets sent.
//! The paper's key observation: the TCP Sequence Number policy's deeper
//! dependency chains inflate perceived loss well beyond Cache Flush and
//! k-distance (k = 8), which track each other.

use bytecache::PolicyKind;
use bytecache_workload::FileSpec;
use serde::{Deserialize, Serialize};

use crate::campaign::Campaign;
use crate::report::Table;
use crate::scenario::{run_scenario, ScenarioConfig};

/// One (policy, actual-loss) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerceivedPoint {
    /// Encoding policy.
    pub policy: PolicyKind,
    /// Actual channel loss rate.
    pub actual: f64,
    /// Mean perceived loss rate.
    pub perceived: f64,
    /// Runs contributing.
    pub runs: usize,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct PerceivedParams {
    /// Object size.
    pub object_size: usize,
    /// Actual loss rates.
    pub losses: Vec<f64>,
    /// Seeds per point.
    pub seeds: u64,
}

impl Default for PerceivedParams {
    fn default() -> Self {
        PerceivedParams {
            object_size: crate::fig6::EBOOK_SIZE,
            losses: vec![0.01, 0.02, 0.04, 0.06, 0.08, 0.10, 0.14, 0.17, 0.20],
            seeds: 5,
        }
    }
}

/// The three policies of Figure 13.
#[must_use]
pub fn policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::CacheFlush,
        PolicyKind::TcpSeq,
        PolicyKind::KDistance(8),
    ]
}

/// Run the Figure 13 sweep on File 1; results are identical for every
/// thread count.
#[must_use]
pub fn run(campaign: &Campaign, params: &PerceivedParams) -> Vec<PerceivedPoint> {
    let object = FileSpec::File1.build(params.object_size, 42);
    let mut cells = Vec::new();
    for policy in policies() {
        for &loss in &params.losses {
            cells.push((policy, loss));
        }
    }
    let seeds = params.seeds;
    campaign.run_cells("perceived", cells, move |(policy, actual)| {
        let mut sum = 0.0;
        let mut runs = 0usize;
        for seed in 0..seeds {
            let r = run_scenario(
                &ScenarioConfig::new(object.clone())
                    .policy(policy)
                    .loss(actual)
                    .seed(seed),
            );
            // Perceived loss is meaningful even for aborted runs.
            sum += r.perceived_loss();
            runs += 1;
        }
        PerceivedPoint {
            policy,
            actual,
            perceived: sum / runs.max(1) as f64,
            runs,
        }
    })
}

/// Render the Figure 13 table.
#[must_use]
pub fn render(points: &[PerceivedPoint]) -> Table {
    let mut losses: Vec<f64> = points.iter().map(|p| p.actual).collect();
    losses.sort_by(f64::total_cmp);
    losses.dedup();
    let pols = policies();
    let mut headers = vec!["actual %".to_string()];
    headers.extend(pols.iter().map(|p| p.label()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Figure 13 — perceived loss rate (%) vs actual loss rate, File 1",
        &header_refs,
    );
    for &l in &losses {
        let mut row = vec![format!("{:.0}", l * 100.0)];
        for &p in &pols {
            let pt = points.iter().find(|q| q.policy == p && q.actual == l);
            row.push(pt.map_or("-".into(), |pt| format!("{:.1}", pt.perceived * 100.0)));
        }
        t.row(&row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perceived_exceeds_actual_and_tcpseq_is_worst() {
        let params = PerceivedParams {
            object_size: 150_000,
            losses: vec![0.05],
            seeds: 3,
        };
        let pts = run(&Campaign::default(), &params);
        let by = |p: PolicyKind| pts.iter().find(|q| q.policy == p).unwrap().perceived;
        let cf = by(PolicyKind::CacheFlush);
        let ts = by(PolicyKind::TcpSeq);
        let kd = by(PolicyKind::KDistance(8));
        // Dependencies amplify loss for every policy.
        assert!(cf > 0.05, "cache-flush perceived {cf}");
        assert!(ts > 0.05);
        assert!(kd > 0.05);
        // The paper's ordering: TCP-seq strictly worse than cache-flush;
        // k-distance comparable to cache-flush.
        assert!(ts > cf, "tcp-seq ({ts}) must exceed cache-flush ({cf})");
        assert!(
            (kd - cf).abs() < 0.12,
            "k=8 ({kd}) should track cache-flush ({cf})"
        );
    }

    #[test]
    fn render_has_three_series() {
        let params = PerceivedParams {
            object_size: 80_000,
            losses: vec![0.02],
            seeds: 1,
        };
        let s = render(&run(&Campaign::default(), &params)).render();
        assert!(s.contains("cache-flush"));
        assert!(s.contains("tcp-seq"));
        assert!(s.contains("k-distance"));
    }
}
