//! §VII — the numbers behind "ineffectiveness of aggressive
//! compression".
//!
//! At 9 % loss on File 1 the paper reports: Cache Flush averages 835-byte
//! packets and ≈ 390 packets sent, k-distance (k = 8) averages 920 bytes
//! with a near-identical packet count (less aggressive ⇒ bigger packets,
//! same perceived loss), while k = 50 drops to 634-byte packets but sends
//! 430 packets — more aggressive compression bought *more* packets,
//! because the deeper dependencies inflated the perceived loss rate and
//! with it TCP retransmissions.

use bytecache::PolicyKind;
use bytecache_workload::FileSpec;
use serde::{Deserialize, Serialize};

use crate::campaign::Campaign;
use crate::report::Table;
use crate::scenario::{run_scenario, ScenarioConfig};

/// Per-scheme wire statistics at the probe loss rate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InsightRow {
    /// Scheme measured.
    pub policy: PolicyKind,
    /// Mean wire packet size on the constrained link (bytes).
    pub avg_packet_size: f64,
    /// Mean data-direction packets sent per run.
    pub packets_sent: f64,
    /// Mean perceived loss rate.
    pub perceived: f64,
    /// Runs contributing.
    pub runs: usize,
}

/// The loss rate of the paper's §VII probe.
pub const PROBE_LOSS: f64 = 0.09;

/// Run the §VII comparison: Cache Flush vs k = 8 vs k = 50 at 9 % loss;
/// results are identical for every thread count.
#[must_use]
pub fn run(campaign: &Campaign, object_size: usize, seeds: u64) -> Vec<InsightRow> {
    let object = FileSpec::File1.build(object_size, 42);
    let policies = vec![
        PolicyKind::CacheFlush,
        PolicyKind::KDistance(8),
        PolicyKind::KDistance(50),
        PolicyKind::TcpSeq,
    ];
    campaign.run_cells("insights", policies, move |policy| {
        let mut size_sum = 0.0;
        let mut count_sum = 0.0;
        let mut perceived_sum = 0.0;
        let mut runs = 0usize;
        for seed in 0..seeds {
            let r = run_scenario(
                &ScenarioConfig::new(object.clone())
                    .policy(policy)
                    .loss(PROBE_LOSS)
                    .seed(seed),
            );
            if r.wireless.packets_offered > 0 {
                size_sum += r.wireless.bytes_offered as f64 / r.wireless.packets_offered as f64;
                count_sum += r.wireless.packets_offered as f64;
                perceived_sum += r.perceived_loss();
                runs += 1;
            }
        }
        let n = runs.max(1) as f64;
        InsightRow {
            policy,
            avg_packet_size: size_sum / n,
            packets_sent: count_sum / n,
            perceived: perceived_sum / n,
            runs,
        }
    })
}

/// Render the §VII comparison.
#[must_use]
pub fn render(rows: &[InsightRow]) -> Table {
    let mut t = Table::new(
        "§VII insight — packet size vs packet count at 9% loss, File 1 \
         (paper: CF 835 B/≈390 pkts; k=8 920 B/≈390; k=50 634 B/430)",
        &[
            "scheme",
            "avg packet size (B)",
            "packets sent",
            "perceived loss %",
        ],
    );
    for r in rows {
        t.row(&[
            r.policy.label(),
            format!("{:.0}", r.avg_packet_size),
            format!("{:.0}", r.packets_sent),
            format!("{:.1}", r.perceived * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggressive_compression_means_smaller_packets() {
        let rows = run(&Campaign::default(), 150_000, 2);
        let by = |p: PolicyKind| rows.iter().find(|r| r.policy == p).unwrap();
        let k8 = by(PolicyKind::KDistance(8));
        let k50 = by(PolicyKind::KDistance(50));
        // Larger k ⇒ more compression opportunities ⇒ smaller packets.
        assert!(
            k50.avg_packet_size < k8.avg_packet_size,
            "k=50 ({:.0} B) should send smaller packets than k=8 ({:.0} B)",
            k50.avg_packet_size,
            k8.avg_packet_size
        );
        // ...and a higher perceived loss rate (the paper's §VII point).
        assert!(
            k50.perceived > k8.perceived,
            "k=50 ({:.3}) should perceive more loss than k=8 ({:.3})",
            k50.perceived,
            k8.perceived
        );
    }

    #[test]
    fn render_lists_all_schemes() {
        let s = render(&run(&Campaign::default(), 60_000, 1)).render();
        assert!(s.contains("cache-flush"));
        assert!(s.contains("k-distance"));
        assert!(s.contains("920 B"), "{s}"); // from the title
    }
}
