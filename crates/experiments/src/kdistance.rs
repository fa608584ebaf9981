//! Figure 12 — performance of the k-distance algorithm as the distance
//! k varies, at 5 % and 10 % loss (File 1).
//!
//! Per the paper's axes: bytes sent are normalized by the file size, and
//! delay is normalized by the download time in the absence of packet
//! loss. The paper finds k ≈ 8 a reasonable trade-off (≈ 24 % byte
//! savings with bounded delay), and that even k = 80 cannot reach Cache
//! Flush's savings.

use bytecache::PolicyKind;
use bytecache_workload::FileSpec;
use serde::{Deserialize, Serialize};

use crate::campaign::Campaign;
use crate::report::Table;
use crate::scenario::{run_scenario, ScenarioConfig};

/// One measured (k, loss) point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KPoint {
    /// The distance k.
    pub k: u64,
    /// Channel loss rate.
    pub loss: f64,
    /// Bytes on the wire divided by the file size.
    pub bytes_over_filesize: f64,
    /// Download time divided by the no-loss download time.
    pub delay_over_lossless: f64,
    /// Runs contributing.
    pub runs: usize,
    /// Failed runs.
    pub failures: usize,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct KParams {
    /// Object size.
    pub object_size: usize,
    /// Distances to test (paper: up to 80).
    pub ks: Vec<u64>,
    /// Loss rates (paper: 5 % and 10 %).
    pub losses: Vec<f64>,
    /// Seeds per point.
    pub seeds: u64,
}

impl Default for KParams {
    fn default() -> Self {
        KParams {
            object_size: crate::fig6::EBOOK_SIZE,
            ks: vec![2, 4, 8, 16, 24, 40, 60, 80],
            losses: vec![0.05, 0.10],
            seeds: 5,
        }
    }
}

/// Run the Figure 12 sweep on File 1; results are identical for every
/// thread count.
#[must_use]
pub fn run(campaign: &Campaign, params: &KParams) -> Vec<KPoint> {
    let object = FileSpec::File1.build(params.object_size, 42);
    // Normalization: the no-loss download time (without DRE, as the
    // paper's base "download times in the absence of packet losses").
    let lossless = run_scenario(&ScenarioConfig::new(object.clone()));
    let t0 = lossless.duration_secs().expect("lossless run completes");
    let size = params.object_size as f64;

    let mut cells = Vec::new();
    for &k in &params.ks {
        for &loss in &params.losses {
            cells.push((k, loss));
        }
    }
    let seeds = params.seeds;
    campaign.run_cells("kdistance", cells, move |(k, loss)| {
        let mut bytes_sum = 0.0;
        let mut delay_sum = 0.0;
        let mut runs = 0usize;
        let mut failures = 0usize;
        for seed in 0..seeds {
            let r = run_scenario(
                &ScenarioConfig::new(object.clone())
                    .policy(PolicyKind::KDistance(k))
                    .loss(loss)
                    .seed(seed),
            );
            match r.duration_secs() {
                Some(t) if r.completed() => {
                    bytes_sum += r.wire_bytes() as f64 / size;
                    delay_sum += t / t0;
                    runs += 1;
                }
                _ => failures += 1,
            }
        }
        let n = runs.max(1) as f64;
        KPoint {
            k,
            loss,
            bytes_over_filesize: bytes_sum / n,
            delay_over_lossless: delay_sum / n,
            runs,
            failures,
        }
    })
}

/// Render the Figure 12 table.
#[must_use]
pub fn render(points: &[KPoint]) -> Table {
    let mut losses: Vec<f64> = points.iter().map(|p| p.loss).collect();
    losses.sort_by(f64::total_cmp);
    losses.dedup();
    let mut headers = vec!["k".to_string()];
    for &l in &losses {
        headers.push(format!("bytes ({:.0}%)", l * 100.0));
        headers.push(format!("delay ({:.0}%)", l * 100.0));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Figure 12 — k-distance: bytes (÷ file size) and delay (÷ lossless time) vs k, File 1",
        &header_refs,
    );
    let mut ks: Vec<u64> = points.iter().map(|p| p.k).collect();
    ks.sort_unstable();
    ks.dedup();
    for &k in &ks {
        let mut row = vec![k.to_string()];
        for &l in &losses {
            let p = points.iter().find(|p| p.k == k && p.loss == l);
            row.push(p.map_or("-".into(), |p| format!("{:.3}", p.bytes_over_filesize)));
            row.push(p.map_or("-".into(), |p| format!("{:.2}", p.delay_over_lossless)));
        }
        t.row(&row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_k_compresses_better_at_low_loss() {
        let params = KParams {
            object_size: 150_000,
            ks: vec![2, 16],
            losses: vec![0.02],
            seeds: 2,
        };
        let pts = run(&Campaign::default(), &params);
        let k2 = pts.iter().find(|p| p.k == 2).unwrap();
        let k16 = pts.iter().find(|p| p.k == 16).unwrap();
        assert!(
            k16.bytes_over_filesize < k2.bytes_over_filesize,
            "k=16 ({:.3}) should send fewer bytes than k=2 ({:.3})",
            k16.bytes_over_filesize,
            k2.bytes_over_filesize
        );
        assert_eq!(k2.failures + k16.failures, 0);
    }

    #[test]
    fn render_includes_all_ks() {
        let params = KParams {
            object_size: 80_000,
            ks: vec![4, 8],
            losses: vec![0.05],
            seeds: 1,
        };
        let s = render(&run(&Campaign::default(), &params)).render();
        assert!(s.contains("bytes (5%)"));
        assert!(s.contains("delay (5%)"));
    }
}
