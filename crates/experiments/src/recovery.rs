//! Divergence-recovery sweep — stall time and bytes sacrificed to
//! safety when the decoder cache is wiped mid-transfer.
//!
//! For each (policy, loss, wipe time) cell the harness runs paired
//! transfers sharing the seed (and so the channel realization):
//!
//! * a **baseline** run with no DRE at the same loss rate, and
//! * a **DRE** run with the generation handshake, decoder recovery, and
//!   a decoder cache wipe injected at the configured simulation time.
//!
//! It reports the paper's two costs of surviving divergence:
//!
//! * **stall time** — the client's longest gap between in-order
//!   progress events ([`DownloadReport::max_stall`]), which the wipe
//!   and the subsequent resync round trip stretch, and
//! * **bytes sacrificed to safety** — wire bytes relative to the
//!   no-DRE baseline; re-emitting regions raw and degrading toward
//!   pass-through gives back savings in exchange for correctness.
//!
//! Every run also asserts the safety invariant the recovery protocol
//! exists for: whatever arrives must be intact ([`RunResult`]'s
//! `data_intact`), wipe or no wipe.
//!
//! [`DownloadReport::max_stall`]: bytecache_tcp::DownloadReport
//! [`RunResult`]: crate::RunResult

use bytecache::PolicyKind;
use bytecache_netsim::time::SimDuration;
use bytecache_telemetry::Recorder;
use bytecache_workload::FileSpec;
use serde::{Deserialize, Serialize};

use crate::campaign::Campaign;
use crate::report::Table;
use crate::scenario::{run_scenario, ScenarioConfig};

/// One cell of the recovery sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryPoint {
    /// Encoding policy of the DRE run.
    pub policy: PolicyKind,
    /// Channel loss rate (data direction).
    pub loss: f64,
    /// When the decoder cache wipe was injected, in milliseconds of
    /// simulation time.
    pub wipe_ms: u64,
    /// Mean of the DRE runs' longest in-order-progress gap, in ms.
    pub stall_ms: f64,
    /// Mean of the paired baseline runs' longest gap, in ms.
    pub baseline_stall_ms: f64,
    /// Mean wire-bytes ratio (DRE with wipe / no-DRE baseline) — the
    /// bytes sacrificed to safety show up as this ratio approaching
    /// (or passing) 1.
    pub bytes_ratio: f64,
    /// Generation resyncs completed by the decoder, summed over runs.
    pub resyncs: u64,
    /// Per-entry recovery (repair) requests sent, summed over runs.
    pub recovery_requests: u64,
    /// Runs where both transfers completed with intact data.
    pub runs: usize,
    /// Runs that failed to complete (excluded from the means).
    pub failures: usize,
    /// Runs that delivered corrupted bytes — the safety invariant;
    /// must be zero.
    pub corrupted: usize,
}

/// Recovery sweep parameters.
#[derive(Debug, Clone)]
pub struct RecoveryParams {
    /// Object size in bytes.
    pub object_size: usize,
    /// Loss rates to test on the data direction.
    pub losses: Vec<f64>,
    /// Wipe injection times, in milliseconds of simulation time.
    pub wipe_ms: Vec<u64>,
    /// Policies to test.
    pub policies: Vec<PolicyKind>,
    /// Seeds per (policy, loss, wipe) cell.
    pub seeds: u64,
}

impl Default for RecoveryParams {
    /// Full grid: the paper's loss-tolerant policies plus the degrading
    /// safeguard, wipes early and late in the transfer.
    fn default() -> Self {
        RecoveryParams {
            object_size: crate::fig6::EBOOK_SIZE,
            losses: vec![0.0, 0.02, 0.05],
            wipe_ms: vec![200, 500],
            policies: vec![
                PolicyKind::CacheFlush,
                PolicyKind::TcpSeq,
                PolicyKind::KDistance(8),
                PolicyKind::Degrading,
            ],
            seeds: 5,
        }
    }
}

impl RecoveryParams {
    /// The `--quick` grid: one wipe time, two policies, two loss rates.
    /// The wipe lands early so it is mid-transfer even for the
    /// loss-free runs of the shrunken object.
    #[must_use]
    pub fn quick(seeds: u64) -> Self {
        RecoveryParams {
            object_size: 150_000,
            losses: vec![0.0, 0.05],
            wipe_ms: vec![100],
            policies: vec![PolicyKind::CacheFlush, PolicyKind::TcpSeq],
            seeds,
        }
    }
}

/// Run the sweep; one [`RecoveryPoint`] per (policy, loss, wipe time),
/// plus the DRE runs' telemetry merged in input order (empty unless the
/// campaign collects it). Results are identical for every thread count.
#[must_use]
pub fn run(campaign: &Campaign, params: &RecoveryParams) -> (Vec<RecoveryPoint>, Recorder) {
    let mut cells = Vec::new();
    for &policy in &params.policies {
        for &loss in &params.losses {
            for &wipe_ms in &params.wipe_ms {
                cells.push((policy, loss, wipe_ms));
            }
        }
    }
    campaign.run_recorded("recovery", cells, |(policy, loss, wipe_ms), rec| {
        point(policy, loss, wipe_ms, params.object_size, params.seeds, rec)
    })
}

fn point(
    policy: PolicyKind,
    loss: f64,
    wipe_ms: u64,
    size: usize,
    seeds: u64,
    rec: &mut Recorder,
) -> RecoveryPoint {
    let object = FileSpec::File1.build(size, 42);
    let mut stall_sum = 0.0;
    let mut baseline_stall_sum = 0.0;
    let mut bytes_sum = 0.0;
    let mut resyncs = 0u64;
    let mut recovery_requests = 0u64;
    let mut runs = 0usize;
    let mut failures = 0usize;
    let mut corrupted = 0usize;
    for seed in 0..seeds {
        let baseline = run_scenario(&ScenarioConfig::new(object.clone()).loss(loss).seed(seed));
        let dre = run_scenario(
            &ScenarioConfig::new(object.clone())
                .policy(policy)
                .loss(loss)
                .seed(seed)
                .recovery()
                .wipe_at(SimDuration::from_millis(wipe_ms))
                .telemetry(rec.is_enabled()),
        );
        if let Some(snapshot) = &dre.telemetry {
            rec.merge(snapshot);
        }
        if !dre.data_intact {
            corrupted += 1;
        }
        resyncs += dre.decoder.as_ref().map_or(0, |d| d.resyncs);
        recovery_requests += dre.recovery_requests;
        if baseline.completed() && dre.completed() && dre.data_intact {
            stall_sum += stall_ms_of(&dre);
            baseline_stall_sum += stall_ms_of(&baseline);
            bytes_sum += dre.wire_bytes() as f64 / baseline.wire_bytes() as f64;
            runs += 1;
        } else {
            failures += 1;
        }
    }
    let n = runs.max(1) as f64;
    RecoveryPoint {
        policy,
        loss,
        wipe_ms,
        stall_ms: stall_sum / n,
        baseline_stall_ms: baseline_stall_sum / n,
        bytes_ratio: bytes_sum / n,
        resyncs,
        recovery_requests,
        runs,
        failures,
        corrupted,
    }
}

fn stall_ms_of(result: &crate::scenario::RunResult) -> f64 {
    result
        .client
        .max_stall
        .map_or(0.0, |d| d.as_secs_f64() * 1_000.0)
}

/// Serialize recovery points as a JSON array with Rust's shortest
/// round-trip float formatting, so the campaign determinism checks can
/// compare outputs as strings.
#[must_use]
pub fn to_json(points: &[RecoveryPoint]) -> String {
    let mut s = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"policy\": \"{}\", \"loss\": {}, \"wipe_ms\": {}, \"stall_ms\": {}, \
             \"baseline_stall_ms\": {}, \"bytes_ratio\": {}, \"resyncs\": {}, \
             \"recovery_requests\": {}, \"runs\": {}, \"failures\": {}, \"corrupted\": {}}}{}\n",
            p.policy.label(),
            p.loss,
            p.wipe_ms,
            p.stall_ms,
            p.baseline_stall_ms,
            p.bytes_ratio,
            p.resyncs,
            p.recovery_requests,
            p.runs,
            p.failures,
            p.corrupted,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    s.push(']');
    s
}

/// Render the sweep as a table, one row per cell.
#[must_use]
pub fn render(points: &[RecoveryPoint]) -> Table {
    let mut t = Table::new(
        "Recovery — decoder cache wipe mid-transfer",
        &[
            "policy",
            "loss %",
            "wipe ms",
            "stall ms",
            "base ms",
            "bytes ratio",
            "resyncs",
            "repairs",
            "ok/fail",
        ],
    );
    for p in points {
        t.row(&[
            p.policy.label(),
            format!("{:.0}", p.loss * 100.0),
            format!("{}", p.wipe_ms),
            format!("{:.1}", p.stall_ms),
            format!("{:.1}", p.baseline_stall_ms),
            format!("{:.3}", p.bytes_ratio),
            format!("{}", p.resyncs),
            format!("{}", p.recovery_requests),
            format!("{}/{}", p.runs, p.failures),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_recovers_everywhere() {
        let params = RecoveryParams {
            object_size: 120_000,
            losses: vec![0.0, 0.05],
            wipe_ms: vec![100],
            policies: vec![PolicyKind::CacheFlush, PolicyKind::TcpSeq],
            seeds: 2,
        };
        let pts = run(&Campaign::default(), &params).0;
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert_eq!(p.corrupted, 0, "corrupted delivery at {p:?}");
            assert_eq!(p.failures, 0, "permanent stall at {p:?}");
            assert!(p.resyncs >= p.runs as u64, "wipe went unnoticed at {p:?}");
        }
        // The wipe costs savings: the post-wipe stretch re-sends raw.
        let at0 = pts
            .iter()
            .find(|p| p.loss == 0.0 && p.policy == PolicyKind::CacheFlush)
            .unwrap();
        assert!(at0.bytes_ratio > 0.3, "ratio {:?}", at0.bytes_ratio);
        assert!(at0.bytes_ratio <= 1.1, "ratio {:?}", at0.bytes_ratio);
    }

    #[test]
    fn json_is_exact_and_balanced() {
        let pts = vec![RecoveryPoint {
            policy: PolicyKind::TcpSeq,
            loss: 0.05,
            wipe_ms: 300,
            stall_ms: 12.5,
            baseline_stall_ms: 10.0,
            bytes_ratio: 0.875,
            resyncs: 2,
            recovery_requests: 1,
            runs: 2,
            failures: 0,
            corrupted: 0,
        }];
        let json = to_json(&pts);
        assert_eq!(json, to_json(&pts), "serialization must be a pure function");
        assert!(json.contains("\"wipe_ms\": 300"));
        assert!(json.contains("\"bytes_ratio\": 0.875"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn table_renders_every_cell() {
        let params = RecoveryParams {
            object_size: 120_000,
            losses: vec![0.05],
            wipe_ms: vec![100],
            policies: vec![PolicyKind::Degrading],
            seeds: 1,
        };
        let rendered = render(&run(&Campaign::default(), &params).0).render();
        assert!(rendered.contains("cache wipe"));
        assert!(rendered.contains("degrading"));
    }
}
