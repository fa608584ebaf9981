//! Ablation: Bernoulli vs bursty (Gilbert–Elliott) loss at equal mean
//! rate.
//!
//! The paper emulates wireless loss with an i.i.d. (Bernoulli) process;
//! real wireless channels fail in bursts. This ablation asks whether
//! the paper's conclusions are artifacts of the loss model: we rerun
//! the Cache Flush / TCP Sequence Number comparison under a
//! Gilbert–Elliott channel whose stationary loss rate matches the
//! Bernoulli one but whose losses arrive in runs (mean burst length
//! configurable).
//!
//! Expectation (and finding): burstiness *helps* byte caching relative
//! to i.i.d. loss at the same rate — consecutive losses overlap in the
//! window of packets they poison, so the perceived-loss amplification
//! is lower — but the qualitative conclusions (delay advantage gone,
//! Cache Flush ≥ TCP-seq on delay) are unchanged.

use bytecache::PolicyKind;
use bytecache_workload::FileSpec;
use serde::{Deserialize, Serialize};

use crate::campaign::Campaign;
use crate::report::Table;
use crate::scenario::{run_scenario, ScenarioConfig};

/// One (policy, channel-kind) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationPoint {
    /// Encoding policy.
    pub policy: PolicyKind,
    /// Mean burst length; `None` = Bernoulli.
    pub burst_len: Option<f64>,
    /// Mean perceived loss.
    pub perceived: f64,
    /// Mean delay ratio vs a baseline over the same channel.
    pub delay_ratio: f64,
    /// Mean bytes ratio vs the baseline.
    pub bytes_ratio: f64,
    /// Contributing runs.
    pub runs: usize,
    /// Failed runs.
    pub failures: usize,
}

/// Run the ablation at `loss` mean rate for Bernoulli and the given
/// burst lengths; results are identical for every thread count.
#[must_use]
pub fn run(
    campaign: &Campaign,
    object_size: usize,
    loss: f64,
    bursts: &[f64],
    seeds: u64,
) -> Vec<AblationPoint> {
    let object = FileSpec::File1.build(object_size, 42);
    let mut cells: Vec<(PolicyKind, Option<f64>)> = Vec::new();
    for policy in [PolicyKind::CacheFlush, PolicyKind::TcpSeq] {
        cells.push((policy, None));
        for &b in bursts {
            cells.push((policy, Some(b)));
        }
    }
    campaign.run_cells("ablation", cells, move |(policy, burst_len)| {
        let mut perceived = 0.0;
        let mut delay = 0.0;
        let mut bytes = 0.0;
        let mut runs = 0usize;
        let mut failures = 0usize;
        for seed in 0..seeds {
            // Baseline and DRE share the seed (same channel realization).
            let mut base_cfg = ScenarioConfig::new(object.clone()).loss(loss).seed(seed);
            base_cfg.burst_len = burst_len;
            let baseline = run_scenario(&base_cfg);
            let mut dre_cfg = ScenarioConfig::new(object.clone())
                .policy(policy)
                .loss(loss)
                .seed(seed);
            dre_cfg.burst_len = burst_len;
            let dre = run_scenario(&dre_cfg);
            match (baseline.duration_secs(), dre.duration_secs()) {
                (Some(tb), Some(td)) if baseline.completed() && dre.completed() => {
                    perceived += dre.perceived_loss();
                    delay += td / tb;
                    bytes += dre.wire_bytes() as f64 / baseline.wire_bytes() as f64;
                    runs += 1;
                }
                _ => failures += 1,
            }
        }
        let n = runs.max(1) as f64;
        AblationPoint {
            policy,
            burst_len,
            perceived: perceived / n,
            delay_ratio: delay / n,
            bytes_ratio: bytes / n,
            runs,
            failures,
        }
    })
}

/// Render the ablation table.
#[must_use]
pub fn render(points: &[AblationPoint], loss: f64) -> Table {
    let mut t = Table::new(
        &format!(
            "Ablation — Bernoulli vs bursty loss at equal mean rate ({:.0}%)",
            loss * 100.0
        ),
        &[
            "policy",
            "channel",
            "perceived %",
            "delay ratio",
            "bytes ratio",
        ],
    );
    for p in points {
        t.row(&[
            p.policy.label(),
            p.burst_len
                .map_or("Bernoulli".to_string(), |b| format!("burst≈{b:.0}")),
            format!("{:.1}", p.perceived * 100.0),
            format!("{:.2}", p.delay_ratio),
            format!("{:.3}", p.bytes_ratio),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursty_loss_amplifies_less_than_bernoulli() {
        let pts = run(&Campaign::default(), 200_000, 0.05, &[6.0], 3);
        let cf_bern = pts
            .iter()
            .find(|p| p.policy == PolicyKind::CacheFlush && p.burst_len.is_none())
            .unwrap();
        let cf_burst = pts
            .iter()
            .find(|p| p.policy == PolicyKind::CacheFlush && p.burst_len.is_some())
            .unwrap();
        // Same mean channel rate, but clustered losses overlap in the
        // packets they poison → lower perceived amplification.
        assert!(
            cf_burst.perceived < cf_bern.perceived,
            "bursty {} should perceive less than bernoulli {}",
            cf_burst.perceived,
            cf_bern.perceived
        );
        assert_eq!(cf_bern.failures + cf_burst.failures, 0);
    }

    #[test]
    fn render_shows_channel_kinds() {
        let pts = run(&Campaign::default(), 100_000, 0.05, &[4.0], 1);
        let s = render(&pts, 0.05).render();
        assert!(s.contains("Bernoulli"));
        assert!(s.contains("burst≈4"));
    }
}
