//! Property-based tests: whatever happens on the channel, the decoder
//! either reproduces the exact original payload or drops the packet —
//! it must never deliver wrong bytes.

use bytecache::{Decoder, DreConfig, Encoder, PacketId, PacketMeta, PolicyKind};
use bytecache_packet::{FlowId, SeqNum};
use bytes::Bytes;
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU32, Ordering};

fn flow() -> FlowId {
    FlowId {
        src: Ipv4Addr::new(10, 0, 0, 1),
        src_port: 80,
        dst: Ipv4Addr::new(10, 0, 0, 2),
        dst_port: 4000,
    }
}

/// 600 bytes of pseudo-random content determined by `seed`.
fn fresh(seed: u64) -> Vec<u8> {
    (0..600usize)
        .map(|i| {
            let x = (i as u64 + seed * 104_729).wrapping_mul(0x9E3779B97F4A7C15);
            (x >> 48) as u8
        })
        .collect()
}

/// A stream of payloads with controllable redundancy: each packet either
/// introduces fresh pseudo-random content or carries a stretch of an
/// earlier packet at a random byte shift on both sides, so that matches
/// start and end in the middle of source and target packet alike.
fn arb_stream() -> impl Strategy<Value = Vec<Vec<u8>>> {
    // (seed, repeat, which earlier packet, offset there, offset here)
    proptest::collection::vec(
        (
            0u64..1000,
            any::<bool>(),
            any::<prop::sample::Index>(),
            0usize..300,
            0usize..300,
        ),
        1..24,
    )
    .prop_map(|specs| {
        let mut stream: Vec<Vec<u8>> = Vec::new();
        for (seed, repeat, earlier, from, to) in specs {
            let mut payload = fresh(seed);
            if repeat && !stream.is_empty() {
                let source = &stream[earlier.index(stream.len())];
                let len = 600 - from.max(to);
                payload[to..to + len].copy_from_slice(&source[from..from + len]);
            }
            stream.push(payload);
        }
        stream
    })
}

fn policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Naive,
        PolicyKind::CacheFlush,
        PolicyKind::TcpSeq,
        PolicyKind::KDistance(4),
        PolicyKind::Adaptive,
        PolicyKind::Degrading,
    ]
}

/// Cases `lossy_never_corrupts` runs, and what they found so far: its
/// last case checks that the generator reached the paper's bug.
const LOSSY_CASES: u32 = 48;
static LOSSY_CASES_RUN: AtomicU32 = AtomicU32::new(0);
static NAIVE_STALLS: AtomicU32 = AtomicU32::new(0);

/// Transmissions of one segment before the sender moves on.
const MAX_TRIES: usize = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(LOSSY_CASES))]

    /// Lossy channel with retransmission, every policy on every case.
    ///
    /// A stop-and-wait sender: each segment is sent, and sent again with
    /// the same sequence number, until the decoder has it or
    /// [`MAX_TRIES`] are spent. That is the paper's trigger (Fig. 4/5):
    /// the retransmission meets an encoder cache that holds the lost
    /// copy of itself.
    ///
    /// * Safety, all policies: every *successfully decoded* packet is
    ///   exact. Silent corruption would be a real bug; drops are not.
    /// * Sec. V-A/V-B, `CacheFlush` and `TcpSeq`: a retransmission the
    ///   channel delivers decodes — as long as the sender has abandoned
    ///   no segment, which later ones could lean on.
    /// * Across the cases `Naive` must hit an undecodable
    ///   retransmission at least once, or the generator is not
    ///   reaching the bug the safe policies exist to fix.
    #[test]
    fn lossy_never_corrupts(
        stream in arb_stream(),
        drops in proptest::collection::vec(any::<bool>(), 1..40),
    ) {
        for kind in policies() {
            let config = DreConfig::default();
            let mut enc = Encoder::new(config.clone(), kind.build());
            let mut dec = Decoder::new(config);
            let safe = matches!(kind, PolicyKind::CacheFlush | PolicyKind::TcpSeq);
            let mut sent = 0;
            let mut abandoned = false;
            for (i, payload) in stream.iter().enumerate() {
                let m = PacketMeta {
                    flow: flow(),
                    seq: SeqNum::new(1000 + (i as u32) * 600),
                    payload_len: payload.len(),
                    flow_index: 0,
                };
                let payload = Bytes::from(payload.clone());
                let mut got_through = false;
                for attempt in 0..MAX_TRIES {
                    let w = enc.encode(&m, &payload);
                    let dropped = drops[sent % drops.len()];
                    sent += 1;
                    if dropped {
                        continue; // channel ate it; decoder never sees it
                    }
                    match dec.decode(&w.wire, &m).0 {
                        Ok(decoded) => {
                            prop_assert_eq!(decoded, payload, "policy {:?} packet {}", kind, i);
                            got_through = true;
                            break;
                        }
                        Err(e) if attempt > 0 => {
                            if kind == PolicyKind::Naive {
                                NAIVE_STALLS.fetch_add(1, Ordering::Relaxed);
                            }
                            prop_assert!(
                                !safe || abandoned,
                                "policy {:?}: delivered retransmission {} of packet {} lost to {}",
                                kind, attempt, i, e
                            );
                        }
                        Err(_) => {}
                    }
                }
                abandoned |= !got_through;
            }
        }
        if LOSSY_CASES_RUN.fetch_add(1, Ordering::Relaxed) + 1 == LOSSY_CASES {
            prop_assert!(
                NAIVE_STALLS.load(Ordering::Relaxed) > 0,
                "no case made a retransmission undecodable under Naive"
            );
        }
    }
}

/// Flows a multi-flow stream spreads its packets over.
const FLOWS: u8 = 6;

fn flow_n(n: u8) -> FlowId {
    FlowId {
        dst: Ipv4Addr::new(10, 0, 1, n + 1),
        ..flow()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interleaved flows through one encoder/decoder pair under loss,
    /// every policy: every decoded packet is exact, and every id the
    /// decoder NACKs is dead at the encoder once the NACK is handled.
    /// Each flow's sequence numbers only advance, so no policy flushes
    /// and every NACKed id is still cached.
    #[test]
    fn lossy_multi_flow_nacks_mark_entries_dead(
        stream in arb_stream(),
        flows in proptest::collection::vec(0..FLOWS, 24),
        drops in proptest::collection::vec(any::<bool>(), 1..40),
    ) {
        for kind in policies() {
            let config = DreConfig::default();
            let mut enc = Encoder::new(config.clone(), kind.build());
            let mut dec = Decoder::new(config);
            let mut next_seq = [1000u32; FLOWS as usize];
            for (i, payload) in stream.iter().enumerate() {
                let f = flows[i];
                let m = PacketMeta {
                    flow: flow_n(f),
                    seq: SeqNum::new(next_seq[usize::from(f)]),
                    payload_len: payload.len(),
                    flow_index: 0,
                };
                next_seq[usize::from(f)] += payload.len() as u32;
                let payload = Bytes::from(payload.clone());
                let w = enc.encode(&m, &payload);
                if drops[i % drops.len()] {
                    continue; // channel ate it
                }
                let (result, feedback) = dec.decode(&w.wire, &m);
                if let Ok(decoded) = result {
                    prop_assert_eq!(decoded, payload, "policy {:?} packet {}", kind, i);
                }
                enc.handle_nack(&feedback.nack_ids);
                for id in &feedback.nack_ids {
                    prop_assert!(
                        enc.cache().is_dead(PacketId(u64::from(*id))),
                        "policy {:?}: NACKed id {} not marked dead", kind, id
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Lossless channel ⇒ lossless reconstruction, every policy.
    #[test]
    fn lossless_round_trip(stream in arb_stream(), policy_idx in 0usize..6) {
        let kind = policies()[policy_idx];
        let config = DreConfig::default();
        let mut enc = Encoder::new(config.clone(), kind.build());
        let mut dec = Decoder::new(config);
        for (i, payload) in stream.iter().enumerate() {
            let m = PacketMeta {
                flow: flow(),
                seq: SeqNum::new(1000 + (i as u32) * 600),
                payload_len: payload.len(),
                flow_index: 0,
            };
            let payload = Bytes::from(payload.clone());
            let w = enc.encode(&m, &payload);
            let (r, _) = dec.decode(&w.wire, &m);
            prop_assert_eq!(r.expect("lossless must decode"), payload);
        }
    }

    /// Corrupted shim payloads are always rejected, never mis-decoded.
    #[test]
    fn bitflips_are_rejected(
        payload_seed in 0u64..50,
        flip_pos in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let config = DreConfig::default();
        let mut enc = Encoder::new(config.clone(), PolicyKind::Naive.build());
        let mut dec = Decoder::new(config);
        let payload: Bytes = (0..800usize)
            .map(|i| ((i as u64 + payload_seed).wrapping_mul(0x9E3779B97F4A7C15) >> 40) as u8)
            .collect::<Vec<u8>>()
            .into();
        let m = PacketMeta {
            flow: flow(),
            seq: SeqNum::new(1),
            payload_len: payload.len(),
            flow_index: 0,
        };
        // Send one clean packet so the second can be encoded.
        let w1 = enc.encode(&m, &payload);
        let (r1, _) = dec.decode(&w1.wire, &m);
        prop_assert!(r1.is_ok());
        let m2 = PacketMeta { seq: SeqNum::new(900), ..m };
        let w2 = enc.encode(&m2, &payload);
        let mut wire = w2.wire.clone();
        let pos = flip_pos.index(wire.len());
        wire[pos] ^= 1 << flip_bit;
        let (r2, _) = dec.decode(&wire, &m2);
        if let Ok(decoded) = r2 {
            // A flip in a "don't care" spot (e.g. the epoch field is
            // compared, id field only feeds NACKs) may still decode — but
            // then the bytes must be exact.
            prop_assert_eq!(decoded, payload);
        }
    }

    /// The decoder never panics on arbitrary input bytes — a gateway
    /// parses whatever arrives on the wire.
    #[test]
    fn decoder_never_panics_on_garbage(
        garbage in proptest::collection::vec(any::<u8>(), 0..2048),
        prime_packets in 0usize..4,
    ) {
        let config = DreConfig::default();
        let mut dec = Decoder::new(config.clone());
        let mut enc = Encoder::new(config, PolicyKind::Naive.build());
        let m = PacketMeta {
            flow: flow(),
            seq: SeqNum::new(1),
            payload_len: 0,
            flow_index: 0,
        };
        // Optionally prime the decoder with some real traffic first.
        for i in 0..prime_packets {
            let payload: Bytes = (0..700usize)
                .map(|j| ((j + i * 131) % 251) as u8)
                .collect::<Vec<u8>>()
                .into();
            let w = enc.encode(&m, &payload);
            let _ = dec.decode(&w.wire, &m);
        }
        // Then feed garbage: must return an error or a value, never panic.
        let _ = dec.decode(&garbage, &m);
    }

    /// A garbage payload with a forged valid header must still fail
    /// closed (checksum) rather than deliver wrong bytes.
    #[test]
    fn forged_headers_fail_closed(body in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut dec = Decoder::new(DreConfig::default());
        let m = PacketMeta {
            flow: flow(),
            seq: SeqNum::new(1),
            payload_len: 0,
            flow_index: 0,
        };
        // Craft a raw shim whose checksum field is wrong.
        let mut wire = bytecache::wire::encode_raw(0, 0, &body);
        if !body.is_empty() {
            // Flip a checksum bit.
            wire[11] ^= 0x01;
            let (r, _) = dec.decode(&wire, &m);
            prop_assert!(r.is_err(), "forged checksum accepted");
        }
    }

    /// Encoded output is never dramatically larger than the input
    /// (bounded expansion: shim header + literal framing).
    #[test]
    fn bounded_expansion(stream in arb_stream()) {
        let config = DreConfig::default();
        let mut enc = Encoder::new(config, PolicyKind::Naive.build());
        for (i, payload) in stream.iter().enumerate() {
            let m = PacketMeta {
                flow: flow(),
                seq: SeqNum::new(1000 + (i as u32) * 600),
                payload_len: payload.len(),
                flow_index: 0,
            };
            let payload = Bytes::from(payload.clone());
            let w = enc.encode(&m, &payload);
            prop_assert!(w.wire.len() <= payload.len() + 64,
                "packet {} expanded from {} to {}", i, payload.len(), w.wire.len());
        }
    }

    /// `SeqNum::precedes` is an RFC 793 serial comparison, so the match
    /// rules built on it — k-distance (and tcp-seq, whose rule is the
    /// same check without the group restriction) — must behave
    /// identically when the u32 sequence space wraps: an in-group entry
    /// strictly behind the packet is matchable even across the wrap
    /// point, and an equal or succeeding entry never is.
    #[test]
    fn k_distance_match_rule_survives_seq_wrap(
        base in any::<u32>(),
        gap1 in 1u32..(1 << 20),
        gap2 in 1u32..(1 << 20),
    ) {
        use bytecache::policy::KDistance;
        use bytecache::{EntryMeta, PacketId, Policy};
        let f = flow();
        let mut p = KDistance::new(4);
        // flow_index 0 is the group's reference, at seq `base`.
        p.before_packet(&PacketMeta {
            flow: f,
            seq: SeqNum::new(base),
            payload_len: 600,
            flow_index: 0,
        });
        let m = PacketMeta {
            flow: f,
            seq: SeqNum::new(base.wrapping_add(gap1)),
            payload_len: 600,
            flow_index: 1,
        };
        let reference = EntryMeta {
            flow: f,
            seq: SeqNum::new(base),
            seq_end: SeqNum::new(base.wrapping_add(gap1)),
            flow_index: 0,
        };
        prop_assert!(
            p.allow_match(&m, &reference, PacketId(0)),
            "in-group preceding entry refused at base {base}"
        );
        let same_seq = EntryMeta {
            seq: SeqNum::new(base.wrapping_add(gap1)),
            ..reference
        };
        prop_assert!(!p.allow_match(&m, &same_seq, PacketId(1)), "equal seq allowed");
        let later = EntryMeta {
            seq: SeqNum::new(base.wrapping_add(gap1).wrapping_add(gap2)),
            ..reference
        };
        prop_assert!(!p.allow_match(&m, &later, PacketId(2)), "succeeding seq allowed");
    }
}
