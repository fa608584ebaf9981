//! Property tests proving all three scan modes are *observationally
//! identical*: the batched multi-lane pass, the fused single pass, and
//! the legacy two-pass pipeline produce byte-identical wire output, an
//! identical fingerprint-table state (every sampled window resolves to
//! the same packet, offset, and bytes), unchanged sharded encode/decode
//! round-trips, and a decoder table that mirrors the encoder's whichever
//! way the encoder indexed.
//!
//! The two-pass baseline is the original implementation, and the fused
//! pass is the PR 2 hot path; both are kept in-tree behind `ScanMode`
//! precisely so these tests (and the `repro hotpath` harness) have live
//! oracles for the batched default rather than frozen snapshots.

use bytecache::{
    Cache, Decoder, DreConfig, Encoder, PacketMeta, PolicyKind, ScanMode, ShardedEncoder,
};
use bytecache_packet::{FlowId, SeqNum};
use bytecache_rabin::sampler::Sampler;
use bytecache_rabin::{Fingerprinter, Polynomial};
use bytes::Bytes;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn flow(port: u16) -> FlowId {
    FlowId {
        src: Ipv4Addr::new(10, 0, 0, 1),
        src_port: 80,
        dst: Ipv4Addr::new(10, 0, 0, 2),
        dst_port: port,
    }
}

fn policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Naive,
        PolicyKind::CacheFlush,
        PolicyKind::TcpSeq,
        PolicyKind::KDistance(4),
        PolicyKind::Adaptive,
    ]
}

/// Streams with controllable redundancy: fresh pseudo-random packets
/// mixed with repeats of earlier seeds (which the encoder rediscovers as
/// matches), in several payload sizes including shorter-than-window.
fn arb_stream() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        (
            prop_oneof![
                (0u64..1000).prop_map(|seed| (seed, false)),
                (0u64..6).prop_map(|seed| (seed, true)),
            ],
            // Sizes hit the edge cases: empty, shorter than the 16-byte
            // window, exactly one window, and realistic segments.
            prop_oneof![
                Just(0usize),
                1usize..16,
                Just(16usize),
                17usize..80,
                500usize..900,
            ],
        )
            .prop_map(|((seed, _), len)| {
                (0..len)
                    .map(|i| {
                        let x = (i as u64 + seed * 104_729).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        (x >> 48) as u8
                    })
                    .collect::<Vec<u8>>()
            }),
        1..28,
    )
}

/// Compare the two caches through the public lookup API for every
/// sampled window of `payload`: same hit/miss, same (id, offset), same
/// resolved bytes.
fn assert_table_state_identical(
    fused: &Cache,
    legacy: &Cache,
    engine: &Fingerprinter,
    sampler: &Sampler,
    payload: &[u8],
) {
    for (_, fp) in engine.windows(payload) {
        if !sampler.selects(fp) {
            continue;
        }
        match (fused.lookup(fp), legacy.lookup(fp)) {
            (None, None) => {}
            (Some((ida, offa, storeda)), Some((idb, offb, storedb))) => {
                assert_eq!(ida, idb, "packet id for fp {fp:#x}");
                assert_eq!(offa, offb, "offset for fp {fp:#x}");
                assert_eq!(
                    &storeda.payload[..],
                    &storedb.payload[..],
                    "stored bytes for fp {fp:#x}"
                );
            }
            (a, b) => {
                panic!(
                    "lookup divergence for fp {fp:#x}: fused={} legacy={}",
                    a.is_some(),
                    b.is_some()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched ≡ fused ≡ two-pass per packet: wire bytes, bookkeeping,
    /// stats, and the fingerprint-table state seen through
    /// `Cache::lookup`, across payload mixes × redundancy × policies.
    #[test]
    fn all_scan_modes_equivalent(stream in arb_stream(), policy_idx in 0usize..5) {
        let kind = policies()[policy_idx];
        let config = DreConfig::default();
        let engine = Fingerprinter::new(
            Polynomial::generate(config.polynomial_seed),
            config.window,
        );
        let sampler = Sampler::new(config.sample_bits);
        let mut batched =
            Encoder::new(config.clone(), kind.build()).with_scan_mode(ScanMode::Batched);
        let mut fused =
            Encoder::new(config.clone(), kind.build()).with_scan_mode(ScanMode::Fused);
        let mut legacy =
            Encoder::new(config, kind.build()).with_scan_mode(ScanMode::TwoPass);
        let mut seq = 1u32;
        for (i, payload) in stream.iter().enumerate() {
            let m = PacketMeta {
                flow: flow(4000),
                seq: SeqNum::new(seq),
                payload_len: payload.len(),
                flow_index: 0,
            };
            seq = seq.wrapping_add(payload.len().max(1) as u32);
            let payload = Bytes::from(payload.clone());
            let n = batched.encode(&m, &payload);
            let a = fused.encode(&m, &payload);
            let b = legacy.encode(&m, &payload);
            prop_assert_eq!(&n.wire, &a.wire, "batched vs fused wire differs at packet {}", i);
            prop_assert_eq!(&a.wire, &b.wire, "fused vs two-pass wire differs at packet {}", i);
            for (x, label) in [(&a, "fused"), (&b, "two-pass")] {
                prop_assert_eq!(n.id, x.id, "id vs {}", label);
                prop_assert_eq!(n.matches, x.matches, "matches vs {}", label);
                prop_assert_eq!(n.matched_bytes, x.matched_bytes, "matched_bytes vs {}", label);
                prop_assert_eq!(n.distinct_refs, x.distinct_refs, "distinct_refs vs {}", label);
                prop_assert_eq!(n.was_reference, x.was_reference, "was_reference vs {}", label);
                prop_assert_eq!(n.flushed, x.flushed, "flushed vs {}", label);
            }
            assert_table_state_identical(batched.cache(), fused.cache(), &engine, &sampler, &payload);
            assert_table_state_identical(fused.cache(), legacy.cache(), &engine, &sampler, &payload);
        }
        // Every counter except the scan-effort ones must agree across
        // the three modes; the index insertions agree too (the batched
        // and fused scratches carry exactly the windows the indexing
        // re-scan would have sampled).
        let ns = batched.stats().clone();
        let fs = fused.stats().clone();
        let ls = legacy.stats().clone();
        for (s, label) in [(&fs, "fused"), (&ls, "two-pass")] {
            prop_assert_eq!(ns.packets, s.packets, "packets vs {}", label);
            prop_assert_eq!(ns.bytes_in, s.bytes_in, "bytes_in vs {}", label);
            prop_assert_eq!(ns.bytes_out, s.bytes_out, "bytes_out vs {}", label);
            prop_assert_eq!(ns.encoded_packets, s.encoded_packets, "encoded vs {}", label);
            prop_assert_eq!(ns.raw_packets, s.raw_packets, "raw vs {}", label);
            prop_assert_eq!(ns.references, s.references, "references vs {}", label);
            prop_assert_eq!(ns.flushes, s.flushes, "flushes vs {}", label);
            prop_assert_eq!(ns.matches, s.matches, "matches vs {}", label);
            prop_assert_eq!(ns.matched_bytes, s.matched_bytes, "matched_bytes vs {}", label);
            prop_assert_eq!(ns.sum_distinct_refs, s.sum_distinct_refs, "refs vs {}", label);
            prop_assert_eq!(ns.index_insertions, s.index_insertions, "insertions vs {}", label);
            prop_assert_eq!(ns.index_skips, s.index_skips, "skips vs {}", label);
        }
        // Batched and fused visit exactly the same windows (one per
        // payload position); two-pass re-rolls for indexing on top.
        prop_assert_eq!(ns.scan_windows, fs.scan_windows);
        prop_assert_eq!(ns.sampled_windows, fs.sampled_windows);
        prop_assert!(fs.scan_windows <= ls.scan_windows);
        // When an insertion came from a *scanned* packet (policy
        // references index via the same re-rolling loop in every mode),
        // two-pass must have paid for its indexing re-scan on top.
        if fs.index_insertions > 0 && fs.references == 0 {
            prop_assert!(fs.scan_windows < ls.scan_windows,
                "fused rolled {} windows, two-pass {}", fs.scan_windows, ls.scan_windows);
        }
    }

    /// The decoder indexes every packet with `Cache::index_payload`; the
    /// encoder indexes scanned packets from the scan's own pairs
    /// (`index_sampled`) in the batched and fused modes, and with
    /// `index_payload` in two-pass mode and for packets a policy sends
    /// unscanned. Over a stream that mixes raw, encoded, suppressed
    /// (k-distance and adaptive references) and retransmitted packets
    /// (which make Cache Flush flush both sides), the two tables must
    /// answer every lookup alike after every packet, in every mode.
    #[test]
    fn decoder_table_mirrors_encoder(
        stream in arb_stream(),
        resend in proptest::collection::vec(0u8..6, 28),
        policy_idx in 0usize..5,
    ) {
        let kind = policies()[policy_idx];
        let config = DreConfig::default();
        let engine = Fingerprinter::new(
            Polynomial::generate(config.polynomial_seed),
            config.window,
        );
        let sampler = Sampler::new(config.sample_bits);
        for mode in [ScanMode::Batched, ScanMode::Fused, ScanMode::TwoPass] {
            let mut enc = Encoder::new(config.clone(), kind.build()).with_scan_mode(mode);
            let mut dec = Decoder::new(config.clone());
            let mut seq = 1u32;
            let mut sent: Vec<(u32, Bytes)> = Vec::new();
            for (i, payload) in stream.iter().enumerate() {
                // One packet in six repeats an earlier one, sequence
                // number and all: a retransmission.
                let (this_seq, payload) = match sent.get(i / 2) {
                    Some(earlier) if resend[i] == 3 => earlier.clone(),
                    _ => (seq, Bytes::from(payload.clone())),
                };
                seq = seq.max(this_seq.wrapping_add(payload.len().max(1) as u32));
                sent.push((this_seq, payload.clone()));
                let m = PacketMeta {
                    flow: flow(4000),
                    seq: SeqNum::new(this_seq),
                    payload_len: payload.len(),
                    flow_index: 0,
                };
                let wire = enc.encode(&m, &payload).wire;
                let (restored, _) = dec.decode(&wire, &m);
                prop_assert_eq!(restored.expect("lossless link"), payload.clone());
                for (_, earlier) in &sent {
                    assert_table_state_identical(enc.cache(), dec.cache(), &engine, &sampler, earlier);
                }
            }
            prop_assert_eq!(enc.stats().index_insertions, dec.stats().index_insertions);
            prop_assert_eq!(enc.stats().flushes, dec.cache().stats().flushes);
        }
    }

    /// Sharded (shards > 1) encode with the default (batched) pass
    /// produces the same wire bytes as two-pass, and the decoder
    /// round-trips both.
    #[test]
    fn sharded_round_trip_unchanged(stream in arb_stream(), policy_idx in 0usize..5) {
        let kind = policies()[policy_idx];
        let config = DreConfig { shards: 3, ..DreConfig::default() };
        let mut batched = ShardedEncoder::new(config.clone(), kind);
        let mut legacy = ShardedEncoder::new(config.clone(), kind);
        legacy.set_scan_mode(ScanMode::TwoPass);
        let mut dec = bytecache::ShardedDecoder::new(config);
        let mut seq = 1u32;
        for (i, payload) in stream.iter().enumerate() {
            let m = PacketMeta {
                flow: flow(4000 + (i % 5) as u16),
                seq: SeqNum::new(seq),
                payload_len: payload.len(),
                flow_index: 0,
            };
            seq = seq.wrapping_add(payload.len().max(1) as u32);
            let payload = Bytes::from(payload.clone());
            let a = batched.encode(&m, &payload);
            let b = legacy.encode(&m, &payload);
            prop_assert_eq!(&a.wire, &b.wire, "sharded wire bytes differ at packet {}", i);
            let (restored, _) = dec.decode(&a.wire, &m);
            prop_assert_eq!(restored.expect("lossless sharded decode"), payload);
        }
        prop_assert_eq!(batched.stats().bytes_out, legacy.stats().bytes_out);
    }
}
