//! Table I — intrinsic redundancy of web objects under a cache window
//! of *k* packets.
//!
//! The paper feeds each object class through the encoder with the cache
//! limited to the last `k` packets and reports the fraction of bytes
//! eliminated: ebooks 0.3–1 %, video ≈ 0.009–1 %, web pages 19–52 %,
//! growing with `k`.

use bytecache::{DreConfig, Encoder, PacketMeta, PolicyKind};
use bytecache_packet::{FlowId, SeqNum, MSS};
use bytecache_workload::{generate, ObjectKind};
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

use crate::campaign::Campaign;
use crate::report::Table;

/// The cache windows of the paper's Table I, in packets.
pub const WINDOWS: [usize; 3] = [10, 100, 1000];

/// One row of Table I.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Object class.
    pub kind: ObjectKind,
    /// Redundancy fraction for each window in [`WINDOWS`].
    pub redundancy: [f64; 3],
}

/// Measure the DRE-eliminable redundancy of `object` with the cache
/// limited to the most recent `window_packets` packets.
#[must_use]
pub fn measure_redundancy(object: &[u8], window_packets: usize) -> f64 {
    let config = DreConfig {
        max_packets: Some(window_packets),
        ..DreConfig::default()
    };
    let mut encoder = Encoder::new(config, PolicyKind::Naive.build());
    let flow = FlowId {
        src: Ipv4Addr::new(10, 0, 0, 1),
        src_port: 80,
        dst: Ipv4Addr::new(10, 0, 0, 2),
        dst_port: 4000,
    };
    let mut seq = 1u32;
    for chunk in object.chunks(MSS) {
        let meta = PacketMeta {
            flow,
            seq: SeqNum::new(seq),
            payload_len: chunk.len(),
            flow_index: 0,
        };
        encoder.encode(&meta, &Bytes::copy_from_slice(chunk));
        seq = seq.wrapping_add(chunk.len() as u32);
    }
    encoder.stats().redundancy_fraction()
}

/// Run the Table I measurement for all object kinds: one cell per
/// (object kind, window) pair, results identical for every thread count.
#[must_use]
pub fn run(campaign: &Campaign, object_size: usize, seed: u64) -> Vec<Row> {
    let mut cells = Vec::new();
    for &kind in ObjectKind::ALL.iter() {
        for &k in WINDOWS.iter() {
            cells.push((kind, k));
        }
    }
    let measured = campaign.run_cells("table1", cells, |(kind, k)| {
        // This experiment runs no channel: the workload generator's
        // seed is the only randomness.
        let object = generate(kind, object_size, seed);
        measure_redundancy(&object, k)
    });
    ObjectKind::ALL
        .iter()
        .enumerate()
        .map(|(row, &kind)| {
            let mut redundancy = [0.0; 3];
            for (i, r) in redundancy.iter_mut().enumerate() {
                *r = measured[row * WINDOWS.len() + i];
            }
            Row { kind, redundancy }
        })
        .collect()
}

/// Render rows in the paper's layout.
#[must_use]
pub fn render(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Table I — redundancy in web objects (window of k packets)",
        &["k", "ebook", "video", "web page"],
    );
    for (i, &k) in WINDOWS.iter().enumerate() {
        let cells: Vec<String> = std::iter::once(k.to_string())
            .chain(
                rows.iter()
                    .map(|r| format!("{:.3}%", r.redundancy[i] * 100.0)),
            )
            .collect();
        t.row(&cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_monotonicity_match_the_paper() {
        let rows = run(&Campaign::default(), 200_000, 7);
        let by_kind = |k: ObjectKind| rows.iter().find(|r| r.kind == k).unwrap();
        let ebook = by_kind(ObjectKind::Ebook);
        let video = by_kind(ObjectKind::Video);
        let web = by_kind(ObjectKind::WebPage);
        // Video ≪ ebook ≪ web page at every window.
        for i in 0..3 {
            assert!(video.redundancy[i] < 0.01, "video: {:?}", video.redundancy);
            assert!(
                web.redundancy[i] > 0.15,
                "web page too low: {:?}",
                web.redundancy
            );
            assert!(video.redundancy[i] <= ebook.redundancy[i] + 1e-9);
            assert!(ebook.redundancy[i] < web.redundancy[i]);
        }
        // Larger windows never reduce redundancy.
        for r in &rows {
            assert!(r.redundancy[0] <= r.redundancy[1] + 1e-9);
            assert!(r.redundancy[1] <= r.redundancy[2] + 1e-9);
        }
        // Ebook redundancy is sub-4 % (paper: 0.3–1 %).
        assert!(ebook.redundancy[2] < 0.04, "{:?}", ebook.redundancy);
    }

    #[test]
    fn render_contains_all_kinds() {
        let rows = run(&Campaign::default(), 60_000, 1);
        let s = render(&rows).render();
        assert!(s.contains("ebook"));
        assert!(s.contains("web page"));
        assert!(s.contains('%'));
    }
}
