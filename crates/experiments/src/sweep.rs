//! Figures 10 & 11 — byte savings and download times vs packet loss.
//!
//! For the Cache Flush and TCP Sequence Number policies on File 1 and
//! File 2, sweep the loss rate from 0 to 20 % and report, per the
//! paper's y-axes, the ratios
//!
//! ```text
//! bytes sent with DRE / bytes sent without DRE        (Figure 10)
//! download time with DRE / download time without DRE   (Figure 11)
//! ```
//!
//! at equal loss rate (and equal channel realization — the baseline run
//! shares the seed).

use bytecache::PolicyKind;
use bytecache_telemetry::Recorder;
use bytecache_workload::FileSpec;
use serde::{Deserialize, Serialize};

use crate::campaign::Campaign;
use crate::report::Table;
use crate::scenario::{run_scenario, ScenarioConfig};

/// One point of the Figure 10/11 curves.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Workload file.
    pub file: FileSpec,
    /// Encoding policy.
    pub policy: PolicyKind,
    /// Channel loss rate.
    pub loss: f64,
    /// Mean bytes-sent ratio (DRE / baseline).
    pub bytes_ratio: f64,
    /// Mean download-time ratio (DRE / baseline).
    pub delay_ratio: f64,
    /// Mean perceived loss rate of the DRE runs.
    pub perceived_loss: f64,
    /// Runs contributing to the means.
    pub runs: usize,
    /// Runs that failed to complete (excluded from means).
    pub failures: usize,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepParams {
    /// Object size in bytes.
    pub object_size: usize,
    /// Loss rates to test.
    pub losses: Vec<f64>,
    /// Seeds per (file, policy, loss) point.
    pub seeds: u64,
    /// Files to test.
    pub files: Vec<FileSpec>,
    /// Policies to test.
    pub policies: Vec<PolicyKind>,
}

impl Default for SweepParams {
    /// The paper's configuration: 0–20 % loss, Cache Flush and TCP
    /// Sequence Number, Files 1 and 2 at the e-book size.
    fn default() -> Self {
        SweepParams {
            object_size: crate::fig6::EBOOK_SIZE,
            losses: vec![0.0, 0.01, 0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.20],
            seeds: 5,
            files: vec![FileSpec::File1, FileSpec::File2],
            policies: vec![PolicyKind::CacheFlush, PolicyKind::TcpSeq],
        }
    }
}

/// Run the sweep; one [`SweepPoint`] per (file, policy, loss), plus the
/// DRE runs' telemetry merged in input order (empty unless the campaign
/// collects it). Results are identical for every thread count.
#[must_use]
pub fn run(campaign: &Campaign, params: &SweepParams) -> (Vec<SweepPoint>, Recorder) {
    let mut cells = Vec::new();
    for &file in &params.files {
        for &policy in &params.policies {
            for &loss in &params.losses {
                cells.push((file, policy, loss));
            }
        }
    }
    campaign.run_recorded("sweep", cells, |(file, policy, loss), rec| {
        point(file, policy, loss, params.object_size, params.seeds, rec)
    })
}

fn point(
    file: FileSpec,
    policy: PolicyKind,
    loss: f64,
    size: usize,
    seeds: u64,
    rec: &mut Recorder,
) -> SweepPoint {
    let object = file.build(size, 42);
    let mut bytes_sum = 0.0;
    let mut delay_sum = 0.0;
    let mut perceived_sum = 0.0;
    let mut runs = 0usize;
    let mut failures = 0usize;
    for seed in 0..seeds {
        // The baseline and DRE runs share the seed — and so the channel
        // realization — which is what makes their ratios meaningful.
        let baseline = run_scenario(&ScenarioConfig::new(object.clone()).loss(loss).seed(seed));
        let dre = run_scenario(
            &ScenarioConfig::new(object.clone())
                .policy(policy)
                .loss(loss)
                .seed(seed)
                .telemetry(rec.is_enabled()),
        );
        if let Some(snapshot) = &dre.telemetry {
            rec.merge(snapshot);
        }
        match (baseline.duration_secs(), dre.duration_secs()) {
            (Some(tb), Some(td)) if baseline.completed() && dre.completed() => {
                bytes_sum += dre.wire_bytes() as f64 / baseline.wire_bytes() as f64;
                delay_sum += td / tb;
                perceived_sum += dre.perceived_loss();
                runs += 1;
            }
            _ => failures += 1,
        }
    }
    let n = runs.max(1) as f64;
    SweepPoint {
        file,
        policy,
        loss,
        bytes_ratio: bytes_sum / n,
        delay_ratio: delay_sum / n,
        perceived_loss: perceived_sum / n,
        runs,
        failures,
    }
}

/// Serialize sweep points as a JSON array. Floats use Rust's shortest
/// round-trip formatting, so two runs agree byte-for-byte iff every
/// number is bit-identical — the campaign determinism checks compare
/// these strings directly.
#[must_use]
pub fn to_json(points: &[SweepPoint]) -> String {
    let mut s = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"file\": \"{}\", \"policy\": \"{}\", \"loss\": {}, \"bytes_ratio\": {}, \
             \"delay_ratio\": {}, \"perceived_loss\": {}, \"runs\": {}, \"failures\": {}}}{}\n",
            p.file.label(),
            p.policy.label(),
            p.loss,
            p.bytes_ratio,
            p.delay_ratio,
            p.perceived_loss,
            p.runs,
            p.failures,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    s.push(']');
    s
}

/// Render the Figure 10 (bytes) view.
#[must_use]
pub fn render_fig10(points: &[SweepPoint]) -> Table {
    render(
        points,
        "Figure 10 — bytes-sent ratio vs packet loss",
        |p| format!("{:.3}", p.bytes_ratio),
    )
}

/// Render the Figure 11 (delay) view.
#[must_use]
pub fn render_fig11(points: &[SweepPoint]) -> Table {
    render(
        points,
        "Figure 11 — download-time ratio vs packet loss",
        |p| format!("{:.2}", p.delay_ratio),
    )
}

fn render(points: &[SweepPoint], title: &str, cell: impl Fn(&SweepPoint) -> String) -> Table {
    let mut losses: Vec<f64> = points.iter().map(|p| p.loss).collect();
    losses.sort_by(f64::total_cmp);
    losses.dedup();
    let mut series: Vec<(FileSpec, PolicyKind)> =
        points.iter().map(|p| (p.file, p.policy)).collect();
    series.dedup();
    series.sort_by_key(|(f, p)| (format!("{f:?}"), format!("{p:?}")));
    series.dedup();
    let mut headers = vec!["loss %".to_string()];
    headers.extend(
        series
            .iter()
            .map(|(f, p)| format!("{} / {}", p.label(), f.label())),
    );
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(title, &header_refs);
    for &loss in &losses {
        let mut row = vec![format!("{:.0}", loss * 100.0)];
        for &(f, p) in &series {
            let point = points
                .iter()
                .find(|q| q.file == f && q.policy == p && q.loss == loss);
            row.push(point.map_or_else(|| "-".to_string(), &cell));
        }
        t.row(&row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> SweepParams {
        SweepParams {
            object_size: 120_000,
            losses: vec![0.0, 0.03],
            seeds: 2,
            files: vec![FileSpec::File1],
            policies: vec![PolicyKind::CacheFlush],
        }
    }

    #[test]
    fn sweep_produces_expected_shape() {
        let pts = run(&Campaign::default(), &quick_params()).0;
        assert_eq!(pts.len(), 2);
        let at0 = pts.iter().find(|p| p.loss == 0.0).unwrap();
        let at3 = pts.iter().find(|p| p.loss == 0.03).unwrap();
        // No loss: DRE saves bytes and time.
        assert!(at0.bytes_ratio < 0.85, "bytes {:?}", at0.bytes_ratio);
        assert!(at0.delay_ratio < 1.0, "delay {:?}", at0.delay_ratio);
        assert_eq!(at0.failures, 0);
        // Loss: savings shrink, delay advantage gone.
        assert!(at3.bytes_ratio > at0.bytes_ratio);
        assert!(at3.delay_ratio > 1.0, "delay {:?}", at3.delay_ratio);
        assert!(at3.perceived_loss > 0.03);
    }

    #[test]
    fn json_is_exact_and_balanced() {
        let pts = vec![
            SweepPoint {
                file: FileSpec::File1,
                policy: PolicyKind::CacheFlush,
                loss: 0.05,
                bytes_ratio: 0.5,
                delay_ratio: 1.25,
                perceived_loss: 0.0625,
                runs: 2,
                failures: 0,
            },
            SweepPoint {
                file: FileSpec::File2,
                policy: PolicyKind::TcpSeq,
                loss: 0.1,
                bytes_ratio: 0.75,
                delay_ratio: 2.0,
                perceived_loss: 0.125,
                runs: 1,
                failures: 1,
            },
        ];
        let json = to_json(&pts);
        assert_eq!(json, to_json(&pts), "serialization must be a pure function");
        assert!(json.contains("\"loss\": 0.05"));
        assert!(json.contains("\"bytes_ratio\": 0.75"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn tables_render_both_figures() {
        let pts = run(&Campaign::default(), &quick_params()).0;
        let f10 = render_fig10(&pts).render();
        let f11 = render_fig11(&pts).render();
        assert!(f10.contains("bytes-sent"));
        assert!(f11.contains("download-time"));
        assert!(f10.contains("cache-flush / File 1"));
    }
}
