//! Encoder/decoder edge cases: boundary sizes, eviction, window-limited
//! caches, match extension limits, and flush interleavings.

use bytecache::wire::{self, Token};
use bytecache::{DecodeError, Decoder, DreConfig, Encoder, PacketMeta, PolicyKind};
use bytecache_packet::{FlowId, SeqNum, MSS};
use bytes::Bytes;
use std::net::Ipv4Addr;

fn flow() -> FlowId {
    FlowId {
        src: Ipv4Addr::new(10, 0, 0, 1),
        src_port: 80,
        dst: Ipv4Addr::new(10, 0, 0, 2),
        dst_port: 4000,
    }
}

fn meta(seq: u32) -> PacketMeta {
    PacketMeta {
        flow: flow(),
        seq: SeqNum::new(seq),
        payload_len: 0,
        flow_index: 0,
    }
}

fn block(seed: u64, len: usize) -> Bytes {
    (0..len)
        .map(|i| {
            let mut x = (i as u64).wrapping_add(seed.wrapping_mul(0x9E3779B97F4A7C15));
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            (x ^ (x >> 27)) as u8
        })
        .collect::<Vec<u8>>()
        .into()
}

fn pair() -> (Encoder, Decoder) {
    let c = DreConfig::default();
    (
        Encoder::new(c.clone(), PolicyKind::Naive.build()),
        Decoder::new(c),
    )
}

#[test]
fn payloads_shorter_than_the_window_round_trip() {
    let (mut enc, mut dec) = pair();
    for len in [1usize, 2, 8, 15] {
        let p = block(len as u64, len);
        let m = meta(1000 + len as u32);
        let w = enc.encode(&m, &p);
        let (r, _) = dec.decode(&w.wire, &m);
        assert_eq!(r.unwrap(), p, "len {len}");
    }
}

#[test]
fn exactly_window_sized_payload_round_trips_and_can_match() {
    let (mut enc, mut dec) = pair();
    let p = block(7, 16);
    let m1 = meta(1000);
    let w1 = enc.encode(&m1, &p);
    let (r1, _) = dec.decode(&w1.wire, &m1);
    assert_eq!(r1.unwrap(), p);
    // The identical 16-byte payload may match (if its one fingerprint is
    // sampled); either way the round trip is exact.
    let m2 = meta(1016);
    let w2 = enc.encode(&m2, &p);
    let (r2, _) = dec.decode(&w2.wire, &m2);
    assert_eq!(r2.unwrap(), p);
}

#[test]
fn mss_sized_payloads_round_trip() {
    let (mut enc, mut dec) = pair();
    let p = block(9, MSS);
    let m = meta(1000);
    let w = enc.encode(&m, &p);
    let (r, _) = dec.decode(&w.wire, &m);
    assert_eq!(r.unwrap(), p);
}

#[test]
fn full_duplicate_packet_compresses_to_one_match() {
    let (mut enc, mut dec) = pair();
    let p = block(11, MSS);
    let w1 = enc.encode(&meta(1000), &p);
    dec.decode(&w1.wire, &meta(1000)).0.unwrap();
    let m2 = meta(1000 + MSS as u32);
    let w = enc.encode(&m2, &p);
    assert_eq!(w.matches, 1, "a verbatim repeat is one maximal match");
    assert_eq!(w.matched_bytes, MSS);
    assert!(w.wire.len() < 64);
    let (r, _) = dec.decode(&w.wire, &m2);
    assert_eq!(r.unwrap(), p);
}

#[test]
fn interleaved_redundancy_yields_multiple_matches() {
    let (mut enc, mut dec) = pair();
    let a = block(1, 400);
    let b = block(2, 400);
    let wa = enc.encode(&meta(1000), &a);
    dec.decode(&wa.wire, &meta(1000)).0.unwrap();
    let wb = enc.encode(&meta(1400), &b);
    dec.decode(&wb.wire, &meta(1400)).0.unwrap();
    // fresh | a-part | fresh | b-part | fresh
    let mut mix = Vec::new();
    mix.extend_from_slice(&block(3, 100));
    mix.extend_from_slice(&a[50..350]);
    mix.extend_from_slice(&block(4, 100));
    mix.extend_from_slice(&b[50..350]);
    mix.extend_from_slice(&block(5, 100));
    let mix = Bytes::from(mix);
    let m = meta(1800);
    let w = enc.encode(&m, &mix);
    assert!(w.matches >= 2, "expected both regions found: {}", w.matches);
    assert_eq!(w.distinct_refs, 2);
    let (r, _) = dec.decode(&w.wire, &m);
    assert_eq!(r.unwrap(), mix);
}

#[test]
fn window_limited_cache_forgets_old_packets() {
    let config = DreConfig {
        max_packets: Some(2),
        ..DreConfig::default()
    };
    let mut enc = Encoder::new(config, PolicyKind::Naive.build());
    let a = block(1, 1000);
    enc.encode(&meta(1000), &a);
    enc.encode(&meta(2000), &block(2, 1000));
    enc.encode(&meta(3000), &block(3, 1000));
    // `a` has been evicted; repeating it cannot match.
    let w = enc.encode(&meta(4000), &a);
    assert_eq!(w.matches, 0, "evicted content must not match");
}

#[test]
fn byte_budget_eviction_keeps_encoder_decoder_consistent() {
    // A tiny shared budget: both sides evict identically (same inserts),
    // so every encode remains decodable on a lossless path.
    let config = DreConfig {
        cache_bytes: 8 * 1024,
        ..DreConfig::default()
    };
    let mut enc = Encoder::new(config.clone(), PolicyKind::Naive.build());
    let mut dec = Decoder::new(config);
    for i in 0..60u32 {
        let p = block(u64::from(i % 7), 1200); // heavy reuse across budget
        let m = meta(1000 + i * 1200);
        let w = enc.encode(&m, &p);
        let (r, _) = dec.decode(&w.wire, &m);
        assert_eq!(r.unwrap(), p, "packet {i}");
    }
}

#[test]
fn min_match_threshold_is_respected() {
    // With a large min_match, short repeats stay literal.
    let config = DreConfig {
        min_match: 600,
        ..DreConfig::default()
    };
    let mut enc = Encoder::new(config, PolicyKind::Naive.build());
    let a = block(1, 1000);
    enc.encode(&meta(1000), &a);
    // Repeat only 300 bytes of it (above default 14, below 600).
    let mut p = block(2, 1000).to_vec();
    p[200..500].copy_from_slice(&a[100..400]);
    let w = enc.encode(&meta(2000), &Bytes::from(p));
    assert_eq!(w.matches, 0, "300-byte repeat must not clear min_match=600");
}

#[test]
fn empty_payload_encodes_and_decodes() {
    let (mut enc, mut dec) = pair();
    let m = meta(1);
    let w = enc.encode(&m, &Bytes::new());
    let (r, _) = dec.decode(&w.wire, &m);
    assert_eq!(r.unwrap(), Bytes::new());
}

#[test]
fn flush_mid_stream_keeps_round_trips_exact() {
    let config = DreConfig::default();
    let mut enc = Encoder::new(config.clone(), PolicyKind::CacheFlush.build());
    let mut dec = Decoder::new(config);
    let a = block(1, 1000);
    // Forward progress, then a retransmission (flush), then progress.
    for seq in [1000u32, 2000, 1000, 3000, 4000] {
        let m = meta(seq);
        let w = enc.encode(&m, &a);
        let (r, _) = dec.decode(&w.wire, &m);
        assert_eq!(r.unwrap(), a, "seq {seq}");
    }
    assert!(enc.stats().flushes >= 1);
    assert!(dec.stats().epoch_flushes >= 1);
}

#[test]
fn stats_bytes_accounting_is_exact() {
    let (mut enc, _) = pair();
    let sizes = [100usize, 700, 1460, 33];
    let mut wire_total = 0u64;
    for (i, &s) in sizes.iter().enumerate() {
        let w = enc.encode(&meta(1000 + i as u32), &block(i as u64, s));
        wire_total += w.wire.len() as u64;
    }
    let st = enc.stats();
    assert_eq!(st.bytes_in, sizes.iter().sum::<usize>() as u64);
    assert_eq!(st.bytes_out, wire_total);
    assert_eq!(st.packets, sizes.len() as u64);
}

#[test]
fn different_polynomial_seeds_are_incompatible_but_safe() {
    // Misconfigured deployments (different moduli) must fail closed:
    // matches reference fingerprints the decoder computes differently,
    // so nothing valid decodes — but nothing corrupts either.
    let enc_cfg = DreConfig {
        polynomial_seed: 1,
        ..DreConfig::default()
    };
    let dec_cfg = DreConfig {
        polynomial_seed: 2,
        ..DreConfig::default()
    };
    let mut enc = Encoder::new(enc_cfg, PolicyKind::Naive.build());
    let mut dec = Decoder::new(dec_cfg);
    let p = block(5, 1200);
    let w1 = enc.encode(&meta(1000), &p);
    let (r1, _) = dec.decode(&w1.wire, &meta(1000));
    // First packet is raw → decodes fine even with mismatched moduli.
    assert_eq!(r1.unwrap(), p);
    let w2 = enc.encode(&meta(2200), &p);
    let (r2, _) = dec.decode(&w2.wire, &meta(2200));
    // An Err is expected (unresolvable reference); Ok only if sent raw.
    if let Ok(decoded) = r2 {
        assert_eq!(decoded, p);
    }
}

#[test]
fn match_fingerprint_outside_53_bits_is_a_missing_reference() {
    // The fingerprint field of a match token is 64 bits off the air and
    // fingerprints are 53: a value with a high bit set must miss, not
    // alias the in-range fingerprint it shares its low bits with.
    let (mut enc, mut dec) = pair();
    let p = block(9, 1200);
    let w1 = enc.encode(&meta(1000), &p);
    assert_eq!(dec.decode(&w1.wire, &meta(1000)).0.unwrap(), p);
    let w2 = enc.encode(&meta(2200), &p);
    assert!(w2.matches > 0);
    let shim = wire::parse(&w2.wire).unwrap();
    for (n, bit) in [(1, 53), (2, 63)] {
        let mut tokens = shim.tokens.clone();
        let forged = tokens
            .iter_mut()
            .find_map(|t| match t {
                Token::Match { fingerprint, .. } => {
                    *fingerprint |= 1 << bit;
                    Some(*fingerprint)
                }
                Token::Literal(_) => None,
            })
            .expect("a match token");
        let h = shim.header;
        let forged_wire = wire::encode_tokens(h.epoch, h.id, h.orig_len, h.checksum, &tokens);
        let (result, _) = dec.decode(&forged_wire, &meta(2200));
        assert_eq!(
            result,
            Err(DecodeError::MissingReference {
                fingerprint: forged
            }),
            "bit {bit}"
        );
        assert_eq!(dec.stats().missing_reference, n);
    }
    // The untouched shim still decodes.
    assert_eq!(dec.decode(&w2.wire, &meta(2200)).0.unwrap(), p);
}

#[test]
#[should_panic(expected = "16-bit length fields")]
fn payload_longer_than_the_shim_can_describe_is_refused() {
    // Wire offsets and the original length are u16: a longer payload
    // used to wrap them into a shim no decoder accepts.
    let (mut enc, _) = pair();
    enc.encode(&meta(1), &block(1, usize::from(u16::MAX) + 1));
}

#[test]
fn largest_describable_payload_round_trips_raw_and_encoded() {
    let (mut enc, mut dec) = pair();
    let p = block(2, usize::from(u16::MAX));
    for seq in [1, 100_000] {
        let m = meta(seq);
        let w = enc.encode(&m, &p);
        let (r, _) = dec.decode(&w.wire, &m);
        assert_eq!(r.unwrap(), p, "seq {seq}");
    }
    assert_eq!(enc.stats().encoded_packets, 1);
}
