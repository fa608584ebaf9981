//! DRE parameter trade-offs (paper §III-B).
//!
//! "Small values of k and w are more effective as lower k selects a
//! larger fraction of fingerprints and w determines the minimum width of
//! the repeated area. However, for performance reasons, larger values
//! may need to be selected." This ablation quantifies both sides of that
//! sentence for our workloads: redundancy captured and encoder
//! throughput as `w` (window) and `k` (sample bits) vary.
//!
//! The throughput column is wall-clock time, so the grid runs as a plain
//! serial loop rather than on the [`campaign`](crate::campaign)
//! executor: each cell is timed with no other cell competing for the
//! CPU, and the column measures the encoder rather than contention.

use std::time::Instant;

use bytecache::{DreConfig, Encoder, PacketMeta, PolicyKind};
use bytecache_packet::{FlowId, SeqNum, MSS};
use bytecache_workload::FileSpec;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

use crate::report::Table;

/// One (w, k) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuningPoint {
    /// Fingerprint window in bytes.
    pub window: usize,
    /// Sampling zero-bits.
    pub sample_bits: u32,
    /// Fraction of payload bytes eliminated.
    pub redundancy: f64,
    /// Wire bytes / payload bytes (with shim overhead).
    pub byte_ratio: f64,
    /// Encoder throughput in MB/s of input processed (wall clock).
    pub encode_mbps: f64,
}

/// Run the (w, k) grid over a File 1 object.
#[must_use]
pub fn run(object_size: usize, windows: &[usize], sample_bits: &[u32]) -> Vec<TuningPoint> {
    let object = FileSpec::File1.build(object_size, 42);
    let flow = FlowId {
        src: Ipv4Addr::new(10, 0, 0, 1),
        src_port: 80,
        dst: Ipv4Addr::new(10, 0, 0, 2),
        dst_port: 4000,
    };
    let mut points = Vec::new();
    for &window in windows {
        for &bits in sample_bits {
            points.push(point(&object, flow, window, bits));
        }
    }
    points
}

fn point(object: &[u8], flow: FlowId, window: usize, bits: u32) -> TuningPoint {
    let config = DreConfig {
        window,
        sample_bits: bits,
        ..DreConfig::default()
    };
    let mut enc = Encoder::new(config, PolicyKind::Naive.build());
    let started = Instant::now();
    let mut seq = 1u32;
    for chunk in object.chunks(MSS) {
        let meta = PacketMeta {
            flow,
            seq: SeqNum::new(seq),
            payload_len: chunk.len(),
            flow_index: 0,
        };
        enc.encode(&meta, &Bytes::copy_from_slice(chunk));
        seq = seq.wrapping_add(chunk.len() as u32);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let stats = enc.stats();
    TuningPoint {
        window,
        sample_bits: bits,
        redundancy: stats.redundancy_fraction(),
        byte_ratio: stats.byte_ratio(),
        encode_mbps: stats.bytes_in as f64 / 1e6 / elapsed.max(1e-9),
    }
}

/// Render the grid.
#[must_use]
pub fn render(points: &[TuningPoint]) -> Table {
    let mut t = Table::new(
        "§III-B — DRE parameter trade-offs (File 1): redundancy vs encoder cost",
        &["w", "k", "redundancy %", "byte ratio", "encode MB/s"],
    );
    for p in points {
        t.row(&[
            p.window.to_string(),
            p.sample_bits.to_string(),
            format!("{:.1}", p.redundancy * 100.0),
            format!("{:.3}", p.byte_ratio),
            format!("{:.0}", p.encode_mbps),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smaller_windows_capture_more_redundancy() {
        let pts = run(200_000, &[16, 64], &[4]);
        let w16 = pts.iter().find(|p| p.window == 16).unwrap();
        let w64 = pts.iter().find(|p| p.window == 64).unwrap();
        assert!(
            w16.redundancy >= w64.redundancy,
            "w=16 ({}) should capture at least as much as w=64 ({})",
            w16.redundancy,
            w64.redundancy
        );
        assert!(
            w16.redundancy > 0.25,
            "File 1 is ~45% redundant: {}",
            w16.redundancy
        );
    }

    #[test]
    fn sparser_sampling_captures_less() {
        let pts = run(200_000, &[16], &[4, 8]);
        let k4 = pts.iter().find(|p| p.sample_bits == 4).unwrap();
        let k8 = pts.iter().find(|p| p.sample_bits == 8).unwrap();
        assert!(
            k4.redundancy >= k8.redundancy,
            "denser sampling must not capture less: k4={} k8={}",
            k4.redundancy,
            k8.redundancy
        );
    }

    #[test]
    fn render_has_grid_rows() {
        let pts = run(60_000, &[16, 32], &[4]);
        let s = render(&pts).render();
        assert_eq!(s.lines().count(), 2 + 1 + 2); // title + header + sep + 2 rows
    }
}
