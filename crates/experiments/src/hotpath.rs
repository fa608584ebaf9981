//! Hot-path throughput harness: the batched multi-lane scan vs the
//! fused scan-and-index pass vs the legacy two-pass encoder pipeline.
//!
//! The batched pass (see `DESIGN.md` §15) stripes the payload across
//! independent rolling lanes and loads the packet's fingerprint-table
//! lines ahead of its probes; the fused pass (§9) rolls exactly one
//! fingerprint per payload position and feeds the sampled windows
//! straight into the cache index; the two-pass baseline — kept in-tree behind
//! [`ScanMode::TwoPass`] — scans for matches, then re-fingerprints the
//! whole payload a second time to index it, and extends matches
//! byte-at-a-time. This harness sweeps payload size × redundancy ratio ×
//! policy, measures single-shard encode throughput for all three modes
//! over identical traffic, verifies the modes' wire bytes are identical
//! and every wire payload round-trips through a decoder byte-for-byte,
//! and emits machine-readable results (with host metadata) for
//! `BENCH_hotpath.json`.
//!
//! The [`EncoderStats`](bytecache::EncoderStats) scan counters
//! (`scan_windows`, `sampled_windows`, `index_insertions`) are reported
//! per cell, so the table shows *why* the faster passes are faster, not
//! just that they are: identical insertions, fewer windows re-rolled.

use std::time::Instant;

use bytecache::{Decoder, DreConfig, Encoder, PacketMeta, PolicyKind, ScanMode};
use bytecache_packet::{FlowId, SeqNum};
use bytecache_workload::StreamSpec;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

use crate::report::Table;

/// Parameters of one hot-path measurement cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotpathParams {
    /// Payload bytes per packet.
    pub payload_size: usize,
    /// Fraction of packets carrying copied (redundant) snippets.
    pub redundancy: f64,
    /// Encoding policy under test.
    pub policy: PolicyKind,
    /// Total payload bytes pushed through the encoder.
    pub total_bytes: usize,
    /// Timed repetitions; the fastest is reported (noise floor).
    pub reps: usize,
    /// Workload seed.
    pub seed: u64,
}

/// One scan mode's measurement over a cell's traffic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModeMeasure {
    /// Best-of-reps wall-clock seconds in the encode loop.
    pub encode_secs: f64,
    /// Encoder throughput over original bytes, MiB/s.
    pub mib_per_sec: f64,
    /// Wire bytes per original byte.
    pub byte_ratio: f64,
    /// Windows a rolling fingerprint was computed for.
    pub scan_windows: u64,
    /// Windows that passed the sampler.
    pub sampled_windows: u64,
    /// Fingerprint-table insertions performed.
    pub index_insertions: u64,
}

/// All three scan modes on identical traffic, with round-trip
/// verification.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotpathCase {
    /// Payload bytes per packet.
    pub payload_size: usize,
    /// Redundant-packet fraction of the workload.
    pub redundancy: f64,
    /// Policy label.
    pub policy: String,
    /// Batched multi-lane measurement (the default mode).
    pub batched: ModeMeasure,
    /// Fused single-pass measurement (the PR 2 baseline).
    pub fused: ModeMeasure,
    /// Legacy two-pass measurement.
    pub two_pass: ModeMeasure,
    /// Batched throughput over fused throughput.
    pub batched_over_fused: f64,
    /// Batched throughput over two-pass throughput.
    pub batched_over_two_pass: f64,
    /// All three modes produced byte-identical wire output AND every
    /// wire payload decoded back to the original bytes.
    pub verified: bool,
}

fn flow() -> FlowId {
    FlowId {
        src: Ipv4Addr::new(10, 0, 0, 1),
        src_port: 80,
        dst: Ipv4Addr::new(10, 0, 0, 2),
        dst_port: 4000,
    }
}

fn metas(chunks: &[&[u8]]) -> Vec<PacketMeta> {
    let mut seq = 1u32;
    chunks
        .iter()
        .map(|chunk| {
            let m = PacketMeta {
                flow: flow(),
                seq: SeqNum::new(seq),
                payload_len: chunk.len(),
                flow_index: 0,
            };
            seq = seq.wrapping_add(chunk.len() as u32);
            m
        })
        .collect()
}

/// One timed encode pass of `mode` over the prepared traffic.
fn one_pass(
    mode: ScanMode,
    params: &HotpathParams,
    payloads: &[Bytes],
    metas: &[PacketMeta],
) -> (f64, Vec<Vec<u8>>, bytecache::EncoderStats) {
    let mut enc = Encoder::new(DreConfig::default(), params.policy.build()).with_scan_mode(mode);
    let mut out: Vec<Vec<u8>> = Vec::with_capacity(payloads.len());
    let started = Instant::now();
    for (payload, meta) in payloads.iter().zip(metas) {
        out.push(enc.encode(meta, payload).wire);
    }
    let elapsed = started.elapsed().as_secs_f64();
    (elapsed, out, enc.stats().clone())
}

/// Time every scan mode over the prepared traffic, interleaving the
/// repetitions (rep 1 of every mode, then rep 2 of every mode, …) so a
/// transient slowdown of the host lands on all modes rather than
/// swallowing one mode's entire set of reps. Returns the best-rep
/// measure per mode plus each mode's wire payloads (identical across
/// reps — encoding is deterministic) for verification.
fn measure(
    modes: &[ScanMode],
    params: &HotpathParams,
    payloads: &[Bytes],
    metas: &[PacketMeta],
) -> Vec<(ModeMeasure, Vec<Vec<u8>>)> {
    let mut best_secs = vec![f64::INFINITY; modes.len()];
    let mut wires: Vec<Vec<Vec<u8>>> = vec![Vec::new(); modes.len()];
    let mut stats = vec![bytecache::EncoderStats::default(); modes.len()];
    for _ in 0..params.reps.max(1) {
        for (m, &mode) in modes.iter().enumerate() {
            let (elapsed, out, s) = one_pass(mode, params, payloads, metas);
            if elapsed < best_secs[m] {
                best_secs[m] = elapsed;
            }
            wires[m] = out;
            stats[m] = s;
        }
    }
    modes
        .iter()
        .enumerate()
        .map(|(m, _)| {
            let measure = ModeMeasure {
                encode_secs: best_secs[m],
                mib_per_sec: stats[m].bytes_in as f64 / (1024.0 * 1024.0) / best_secs[m].max(1e-9),
                byte_ratio: stats[m].byte_ratio(),
                scan_windows: stats[m].scan_windows,
                sampled_windows: stats[m].sampled_windows,
                index_insertions: stats[m].index_insertions,
            };
            (measure, std::mem::take(&mut wires[m]))
        })
        .collect()
}

/// Run one cell: build the workload, measure all three modes, verify
/// cross-mode wire equality and decoder round-trips.
#[must_use]
pub fn run_case(params: &HotpathParams) -> HotpathCase {
    assert!(params.payload_size > 0, "payload_size must be positive");
    let spec = StreamSpec {
        packet_size: params.payload_size,
        redundant_packet_fraction: params.redundancy,
        copied_fraction: 0.8,
        fan: 4,
        max_distance: 64,
    };
    let object = spec.build(params.total_bytes, params.seed);
    let chunks: Vec<&[u8]> = object.chunks(params.payload_size).collect();
    let metas = metas(&chunks);
    let payloads: Vec<Bytes> = chunks.iter().map(|c| Bytes::copy_from_slice(c)).collect();

    let mut results = measure(
        &[ScanMode::Batched, ScanMode::Fused, ScanMode::TwoPass],
        params,
        &payloads,
        &metas,
    );
    let (two_pass, legacy_wires) = results.pop().expect("three modes");
    let (fused, fused_wires) = results.pop().expect("three modes");
    let (batched, batched_wires) = results.pop().expect("three modes");

    // Cross-mode equivalence on live traffic, then full round-trip
    // integrity of the batched (default) wire.
    let mut verified = batched_wires == fused_wires && fused_wires == legacy_wires;
    let mut dec = Decoder::new(DreConfig::default());
    for ((wire, meta), payload) in batched_wires.iter().zip(&metas).zip(&payloads) {
        let (restored, _) = dec.decode(wire, meta);
        if restored.as_ref().ok().map(|b| &b[..]) != Some(&payload[..]) {
            verified = false;
        }
    }

    HotpathCase {
        payload_size: params.payload_size,
        redundancy: params.redundancy,
        policy: params.policy.label().to_string(),
        batched_over_fused: batched.mib_per_sec / fused.mib_per_sec.max(1e-9),
        batched_over_two_pass: batched.mib_per_sec / two_pass.mib_per_sec.max(1e-9),
        batched,
        fused,
        two_pass,
        verified,
    }
}

/// The sweep grid: payload size × redundancy ratio × policy.
#[must_use]
pub fn sweep(quick: bool) -> Vec<HotpathCase> {
    let (total_bytes, reps, sizes, redundancies, policies): (
        usize,
        usize,
        Vec<usize>,
        Vec<f64>,
        Vec<PolicyKind>,
    ) = if quick {
        (
            192 * 1024,
            3,
            vec![1400],
            vec![0.0, 0.9],
            vec![PolicyKind::CacheFlush],
        )
    } else {
        (
            4 << 20,
            5,
            vec![256, 1400],
            vec![0.0, 0.5, 0.95],
            vec![PolicyKind::CacheFlush, PolicyKind::KDistance(4)],
        )
    };
    let mut cases = Vec::new();
    for &payload_size in &sizes {
        for &redundancy in &redundancies {
            for &policy in &policies {
                cases.push(run_case(&HotpathParams {
                    payload_size,
                    redundancy,
                    policy,
                    total_bytes,
                    reps,
                    seed: 42,
                }));
            }
        }
    }
    cases
}

/// An untimed, fully instrumented pass over the sweep's workload shape:
/// encode and decode every packet with telemetry enabled and return the
/// merged encoder + decoder snapshot. Kept separate from the timed
/// loops in [`measure`] so enabling `--metrics-out` cannot perturb the
/// benchmark numbers.
#[must_use]
pub fn metrics(quick: bool) -> bytecache_telemetry::Recorder {
    let (total_bytes, payload_size, redundancy) = if quick {
        (192 * 1024, 1400, 0.9)
    } else {
        (1 << 20, 1400, 0.9)
    };
    let spec = StreamSpec {
        packet_size: payload_size,
        redundant_packet_fraction: redundancy,
        copied_fraction: 0.8,
        fan: 4,
        max_distance: 64,
    };
    let object = spec.build(total_bytes, 42);
    let chunks: Vec<&[u8]> = object.chunks(payload_size).collect();
    let metas = metas(&chunks);
    let payloads: Vec<Bytes> = chunks.iter().map(|c| Bytes::copy_from_slice(c)).collect();

    let mut enc =
        Encoder::new(DreConfig::default(), PolicyKind::CacheFlush.build()).with_telemetry(true);
    let mut dec = Decoder::new(DreConfig::default()).with_telemetry(true);
    for (payload, meta) in payloads.iter().zip(&metas) {
        let wire = enc.encode(meta, payload).wire;
        let (restored, _) = dec.decode(&wire, meta);
        assert_eq!(
            restored.as_deref().ok(),
            Some(&payload[..]),
            "hotpath metrics pass must round-trip"
        );
    }
    let mut merged = enc.telemetry_snapshot();
    merged.merge(&dec.telemetry_snapshot());
    merged
}

/// Geometric mean of `metric` over the redundant-traffic cells
/// (`redundancy > 0`); 0.0 when there are none.
fn redundant_geomean(cases: &[HotpathCase], metric: impl Fn(&HotpathCase) -> f64) -> f64 {
    let redundant: Vec<f64> = cases
        .iter()
        .filter(|c| c.redundancy > 0.0)
        .map(|c| metric(c).max(1e-9).ln())
        .collect();
    if redundant.is_empty() {
        return 0.0;
    }
    (redundant.iter().sum::<f64>() / redundant.len() as f64).exp()
}

/// Geometric-mean batched/fused speedup over the redundant cells — the
/// CI regression-gate metric (batched must not fall below fused beyond
/// noise margin).
#[must_use]
pub fn redundant_geomean_batched_over_fused(cases: &[HotpathCase]) -> f64 {
    redundant_geomean(cases, |c| c.batched_over_fused)
}

/// Geometric-mean batched/two-pass speedup over the redundant cells.
#[must_use]
pub fn redundant_geomean_batched_over_two_pass(cases: &[HotpathCase]) -> f64 {
    redundant_geomean(cases, |c| c.batched_over_two_pass)
}

/// Geometric-mean batched throughput (MiB/s) over the redundant cells —
/// comparable against the PR 2 fused baseline recorded in
/// `BENCH_hotpath.json` history.
#[must_use]
pub fn redundant_geomean_batched_mib_s(cases: &[HotpathCase]) -> f64 {
    redundant_geomean(cases, |c| c.batched.mib_per_sec)
}

/// Render the sweep as a table.
#[must_use]
pub fn render(cases: &[HotpathCase]) -> Table {
    let mut t = Table::new(
        "hot path — batched multi-lane vs fused vs legacy two-pass (single shard)",
        &[
            "payload",
            "redund",
            "policy",
            "batched MiB/s",
            "fused MiB/s",
            "2-pass MiB/s",
            "b/f",
            "b/2p",
            "inserts",
            "verified",
        ],
    );
    for c in cases {
        t.row(&[
            c.payload_size.to_string(),
            format!("{:.2}", c.redundancy),
            c.policy.clone(),
            format!("{:.1}", c.batched.mib_per_sec),
            format!("{:.1}", c.fused.mib_per_sec),
            format!("{:.1}", c.two_pass.mib_per_sec),
            format!("{:.2}x", c.batched_over_fused),
            format!("{:.2}x", c.batched_over_two_pass),
            c.batched.index_insertions.to_string(),
            c.verified.to_string(),
        ]);
    }
    t
}

/// Serialize the sweep to the `BENCH_hotpath.json` document.
///
/// Hand-rolled JSON: the workspace deliberately carries no JSON
/// dependency, and the schema is flat enough that formatting it directly
/// is clearer than adding one.
#[must_use]
pub fn to_json(cases: &[HotpathCase]) -> String {
    let mut out = String::from("{\n  \"bench\": \"hotpath\",\n");
    out.push_str("  \"unit\": \"MiB/s over original payload bytes, single-shard encode\",\n");
    out.push_str(&format!(
        "  \"host\": {},\n  \"scan_modes\": [\"batched\", \"fused\", \"two-pass\"],\n",
        crate::host::HostInfo::detect().to_json_object()
    ));
    out.push_str(&format!(
        "  \"redundant_geomean_batched_over_fused\": {:.3},\n",
        redundant_geomean_batched_over_fused(cases)
    ));
    out.push_str(&format!(
        "  \"redundant_geomean_batched_over_two_pass\": {:.3},\n",
        redundant_geomean_batched_over_two_pass(cases)
    ));
    out.push_str(&format!(
        "  \"redundant_geomean_batched_mib_s\": {:.1},\n  \"cases\": [\n",
        redundant_geomean_batched_mib_s(cases)
    ));
    for (i, c) in cases.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"payload_size\": {}, \"redundancy\": {:.2}, \"policy\": \"{}\", \
             \"batched_mib_s\": {:.1}, \"fused_mib_s\": {:.1}, \"two_pass_mib_s\": {:.1}, \
             \"batched_over_fused\": {:.3}, \"batched_over_two_pass\": {:.3}, \
             \"byte_ratio\": {:.3}, \"batched_scan_windows\": {}, \"two_pass_scan_windows\": {}, \
             \"index_insertions\": {}, \"verified\": {}}}{}\n",
            c.payload_size,
            c.redundancy,
            c.policy,
            c.batched.mib_per_sec,
            c.fused.mib_per_sec,
            c.two_pass.mib_per_sec,
            c.batched_over_fused,
            c.batched_over_two_pass,
            c.batched.byte_ratio,
            c.batched.scan_windows,
            c.two_pass.scan_windows,
            c.batched.index_insertions,
            c.verified,
            if i + 1 < cases.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(redundancy: f64) -> HotpathCase {
        run_case(&HotpathParams {
            payload_size: 1400,
            redundancy,
            policy: PolicyKind::CacheFlush,
            total_bytes: 96 * 1024,
            reps: 1,
            seed: 7,
        })
    }

    #[test]
    fn redundant_case_verifies_and_counts_match() {
        let c = tiny(0.9);
        assert!(c.verified, "{c:?}");
        // Identical traffic ⇒ identical index insertions in all modes.
        assert_eq!(c.batched.index_insertions, c.fused.index_insertions);
        assert_eq!(c.fused.index_insertions, c.two_pass.index_insertions);
        // Batched and fused roll exactly one window per position; the
        // two-pass baseline re-rolls stored payloads for indexing.
        assert_eq!(c.batched.scan_windows, c.fused.scan_windows);
        assert!(
            c.fused.scan_windows < c.two_pass.scan_windows,
            "fused {} vs two-pass {}",
            c.fused.scan_windows,
            c.two_pass.scan_windows
        );
        assert!(c.batched.byte_ratio < 0.7, "workload is redundant: {c:?}");
    }

    #[test]
    fn fresh_case_verifies() {
        let c = tiny(0.0);
        assert!(c.verified, "{c:?}");
        assert_eq!(c.batched.index_insertions, c.two_pass.index_insertions);
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let cases = vec![tiny(0.9)];
        let json = to_json(&cases);
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"host\": {"));
        assert!(json.contains("\"cpu_model\""));
        assert!(json.contains("\"scan_modes\": [\"batched\", \"fused\", \"two-pass\"]"));
        assert!(json.contains("\"redundant_geomean_batched_over_fused\""));
        assert!(json.contains("\"verified\": true"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces: {json}"
        );
    }

    #[test]
    fn geomean_ignores_fresh_cells() {
        let mut a = tiny(0.9);
        a.batched_over_fused = 2.0;
        let mut b = a.clone();
        b.batched_over_fused = 8.0;
        let mut fresh = a.clone();
        fresh.redundancy = 0.0;
        fresh.batched_over_fused = 100.0;
        let g = redundant_geomean_batched_over_fused(&[a, b, fresh]);
        assert!((g - 4.0).abs() < 1e-9, "geomean(2, 8) = 4, got {g}");
    }
}
