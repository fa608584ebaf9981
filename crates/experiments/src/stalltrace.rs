//! Figures 4 & 5 — a step-by-step trace of the circular-dependency
//! stall, produced by driving an encoder/decoder pair directly.
//!
//! This is the qualitative companion to [`fig6`](crate::fig6): it shows
//! *why* the connection stalls by replaying the paper's t1–t5 event
//! sequence and printing what each side does.

use bytecache::{Decoder, DreConfig, Encoder, PacketMeta, PolicyKind};
use bytecache_packet::{FlowId, SeqNum};
use bytecache_telemetry::Recorder;
use bytes::Bytes;
use std::net::Ipv4Addr;

use crate::campaign::Campaign;

/// Replay the paper's Figure 4 scenario under `policy` and return the
/// annotated event log. `retransmissions` controls how many retries of
/// the lost segment are attempted.
///
/// When the campaign collects telemetry, the merged encoder + decoder
/// snapshot comes back too (empty otherwise): decode failures and
/// policy flushes land on its event ring, so the log and the snapshot
/// describe the same replay. The log is the same either way.
#[must_use]
pub fn trace(
    campaign: &Campaign,
    policy: PolicyKind,
    retransmissions: usize,
) -> (Vec<String>, Recorder) {
    let config = DreConfig::default();
    let telemetry = campaign.telemetry();
    let mut encoder = Encoder::new(config.clone(), policy.build()).with_telemetry(telemetry);
    let mut decoder = Decoder::new(config).with_telemetry(telemetry);
    let flow = FlowId {
        src: Ipv4Addr::new(10, 0, 0, 1),
        src_port: 80,
        dst: Ipv4Addr::new(10, 0, 0, 2),
        dst_port: 4000,
    };
    // A payload containing the repeated byte sequence "m".
    let shared: Bytes = (0..1460u32)
        .map(|i| {
            let mut x = u64::from(i).wrapping_mul(0xBF58476D1CE4E5B9);
            x ^= x >> 31;
            x as u8
        })
        .collect::<Vec<u8>>()
        .into();
    let meta = |seq: u32| PacketMeta {
        flow,
        seq: SeqNum::new(seq),
        payload_len: shared.len(),
        flow_index: 0,
    };

    let mut log = Vec::new();
    log.push(format!("policy: {}", policy.label()));

    // t1: IP_{i-1} carries m; cached at the encoder; LOST on the link.
    let w1 = encoder.encode(&meta(1000), &shared);
    log.push(format!(
        "t1  IP(i-1) seq=1000 encoded ({} B on wire, {} matches) — LOST on the channel",
        w1.wire.len(),
        w1.matches
    ));

    // t2: IP_i carries the same sequence m; encoder compresses it
    // against IP_{i-1}.
    let w2 = encoder.encode(&meta(2460), &shared);
    log.push(format!(
        "t2  IP(i)   seq=2460 encoded against cached packet(s): {} matches, {} B on wire",
        w2.matches,
        w2.wire.len()
    ));

    // t3: decoder cannot reconstruct IP_i.
    let (r2, _) = decoder.decode(&w2.wire, &meta(2460));
    match &r2 {
        Ok(_) => {
            log.push("t3  decoder reconstructed IP(i) (no dependency on the lost packet)".into())
        }
        Err(e) => log.push(format!("t3  decoder DROPS IP(i): {e}")),
    }

    // t4/t5 repeated: TCP retransmits the segment of IP_{i-1}; at the IP
    // layer each retry is a fresh packet with the same payload.
    for attempt in 1..=retransmissions {
        let w = encoder.encode(&meta(1000), &shared);
        let kind = if w.flushed {
            "flushed cache, sent raw"
        } else if w.was_reference {
            "sent raw (reference)"
        } else if w.matches > 0 {
            "encoded against its own earlier copy"
        } else {
            "sent raw (no eligible match)"
        };
        let (r, _) = decoder.decode(&w.wire, &meta(1000));
        match r {
            Ok(_) => {
                log.push(format!(
                    "t{}  retransmission #{attempt}: {kind} — decoder RECOVERS; stall broken",
                    attempt + 3
                ));
                let mut merged = encoder.telemetry_snapshot();
                merged.merge(&decoder.telemetry_snapshot());
                return (log, merged);
            }
            Err(e) => log.push(format!(
                "t{}  retransmission #{attempt}: {kind} — decoder DROPS it: {e}",
                attempt + 3
            )),
        }
    }
    log.push(format!(
        "…  after {retransmissions} retransmissions the segment still cannot be \
         decoded: circular dependency (Figure 5), TCP backs off exponentially and stalls"
    ));
    let mut merged = encoder.telemetry_snapshot();
    merged.merge(&decoder.telemetry_snapshot());
    (log, merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_trace_never_recovers() {
        let log = trace(&Campaign::default(), PolicyKind::Naive, 6).0;
        let text = log.join("\n");
        assert!(text.contains("LOST on the channel"));
        assert!(text.contains("decoder DROPS IP(i)"));
        assert!(text.contains("circular dependency"));
        assert!(!text.contains("stall broken"));
    }

    #[test]
    fn cache_flush_trace_recovers_on_first_retry() {
        let log = trace(&Campaign::default(), PolicyKind::CacheFlush, 6).0;
        let text = log.join("\n");
        assert!(text.contains("flushed cache"));
        assert!(text.contains("stall broken"));
    }

    #[test]
    fn tcp_seq_trace_recovers_on_first_retry() {
        let text = trace(&Campaign::default(), PolicyKind::TcpSeq, 6)
            .0
            .join("\n");
        assert!(text.contains("sent raw (no eligible match)"));
        assert!(text.contains("stall broken"));
    }

    #[test]
    fn k_distance_recovers_within_k() {
        let text = trace(&Campaign::default(), PolicyKind::KDistance(4), 8)
            .0
            .join("\n");
        assert!(text.contains("stall broken"));
    }
}
