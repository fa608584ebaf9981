//! The redundancy-identification procedure as the paper writes it
//! (Fig. 2 parts B and C), kept as the independent reference for
//! [`EngineCore::scan_batched`], and the property tests that hold the
//! product to it.
//!
//! [`EngineCore::scan_two_pass`] shares nothing with the product scan
//! but the cache it reads: one rolling fingerprint advanced a byte at a
//! time, byte-at-a-time match extension, a fresh fingerprint after every
//! jump past a match, and no index collection — the paper's separate
//! cache update pass re-fingerprints the payload, which here is
//! `Fingerprinter::windows` + `Sampler::selects`. A scan borrows the
//! core immutably, so `Encoder::encode_into` runs the reference right
//! after the product scan, on the very state that scan read
//! ([`EngineCore::assert_scan_matches_reference`]); every in-crate test
//! that encodes a packet therefore checks product ≡ reference, and the
//! property tests below drive it over streams built to hit the edges.

use bytes::Bytes;

use crate::engine::{EngineCore, ScanOutput};
use crate::policy::{PacketMeta, Policy};
use crate::wire::Token;

impl EngineCore {
    /// Redundancy identification, paper Fig. 2 part B as first
    /// implemented. Fills `out.tokens`, `out.refs`, `out.matched_bytes`
    /// and `out.distinct_refs`; `out.sampled` stays empty.
    pub(crate) fn scan_two_pass(
        &self,
        policy: &dyn Policy,
        meta: &PacketMeta,
        payload: &Bytes,
        out: &mut ScanOutput,
    ) {
        let w = self.config.window;
        if payload.len() < w {
            if !payload.is_empty() {
                out.tokens.push(Token::Literal(payload.clone()));
            }
            return;
        }
        let mut emitted = 0usize; // payload bytes already covered by tokens
        let mut pos = 0usize;
        let mut fp = self.engine.fingerprint(&payload[..w]);
        loop {
            let mut jumped = false;
            if self.sampler.selects(fp) {
                if let Some((src_id, src_off, stored)) = self.cache.lookup(fp) {
                    let src_payload = &stored.payload;
                    let src_off = src_off as usize;
                    if !self.cache.is_dead(src_id)
                        && policy.allow_match(meta, &stored.meta, src_id)
                        && src_off + w <= src_payload.len()
                        && src_payload[src_off..src_off + w] == payload[pos..pos + w]
                    {
                        // Determine the boundaries of the repeated area
                        // around the window.
                        let mut ns = pos;
                        let mut ss = src_off;
                        while ns > emitted && ss > 0 && src_payload[ss - 1] == payload[ns - 1] {
                            ns -= 1;
                            ss -= 1;
                        }
                        let mut ne = pos + w;
                        let mut se = src_off + w;
                        while ne < payload.len()
                            && se < src_payload.len()
                            && src_payload[se] == payload[ne]
                        {
                            ne += 1;
                            se += 1;
                        }
                        let len = ne - ns;
                        if len > self.config.min_match {
                            if ns > emitted {
                                out.tokens.push(Token::Literal(payload.slice(emitted..ns)));
                            }
                            out.tokens.push(Token::Match {
                                fingerprint: fp,
                                offset_new: ns as u16,
                                offset_stored: ss as u16,
                                len: len as u16,
                            });
                            out.matched_bytes += len;
                            if !out.refs.contains(&src_id) {
                                out.distinct_refs += 1;
                            }
                            out.refs.push(src_id);
                            emitted = ne;
                            // Resume scanning after the repeated area.
                            if ne + w > payload.len() {
                                break;
                            }
                            pos = ne;
                            fp = self.engine.fingerprint(&payload[pos..pos + w]);
                            jumped = true;
                        }
                    }
                }
            }
            if !jumped {
                if pos + w >= payload.len() {
                    break;
                }
                fp = self.engine.roll(fp, payload[pos], payload[pos + w]);
                pos += 1;
            }
        }
        if emitted < payload.len() {
            out.tokens.push(Token::Literal(payload.slice(emitted..)));
        }
    }

    /// Run the reference on the state `product` was just scanned from
    /// and panic unless the two agree: the same tokens (hence the same
    /// wire bytes), the same source packets, and a `sampled` list equal
    /// to what the separate indexing pass would fingerprint (hence the
    /// same fingerprint-table state after `index_sampled`).
    pub(crate) fn assert_scan_matches_reference(
        &self,
        policy: &dyn Policy,
        meta: &PacketMeta,
        payload: &Bytes,
        product: &ScanOutput,
    ) {
        let mut reference = ScanOutput::default();
        self.scan_two_pass(policy, meta, payload, &mut reference);
        assert_eq!(product.tokens, reference.tokens, "tokens");
        assert_eq!(product.refs, reference.refs, "source packets");
        assert_eq!(product.matched_bytes, reference.matched_bytes);
        assert_eq!(product.distinct_refs, reference.distinct_refs);
        let sampled: Vec<(u16, u64)> = self
            .engine
            .windows(payload)
            .filter(|&(_, fp)| self.sampler.selects(fp))
            .map(|(pos, fp)| (pos as u16, fp))
            .collect();
        assert_eq!(product.sampled, sampled, "index entries");
        assert_eq!(product.sampled_windows, sampled.len() as u64);
        assert_eq!(
            product.scan_windows,
            (payload.len() + 1).saturating_sub(self.config.window) as u64
        );
    }
}

mod tests {
    use std::net::Ipv4Addr;

    use bytecache_packet::{FlowId, SeqNum};
    use bytecache_rabin::sampler::Sampler;
    use bytecache_rabin::{Fingerprinter, Polynomial};
    use bytes::Bytes;
    use proptest::prelude::*;

    use crate::{Cache, Decoder, DreConfig, Encoder, EncoderStats, PacketMeta, PolicyKind};

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
    /// mixed with repeats of earlier seeds (which the encoder
    /// rediscovers as matches), in several payload sizes.
    fn arb_stream() -> impl Strategy<Value = Vec<Vec<u8>>> {
        proptest::collection::vec(
            (
                prop_oneof![0u64..1000, 0u64..6],
                // Sizes hit the edge cases: empty, shorter than the
                // 16-byte window, exactly one window, under 8 windows
                // (the lane kernel's scalar fallback), mid-sized, and
                // the MSS-sized segments every experiment sends.
                prop_oneof![
                    Just(0usize),
                    1usize..16,
                    Just(16usize),
                    17usize..80,
                    500usize..900,
                    1300usize..=1460,
                ],
            )
                .prop_map(|(seed, len)| {
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

    fn engine_and_sampler(config: &DreConfig) -> (Fingerprinter, Sampler) {
        (
            Fingerprinter::new(Polynomial::generate(config.polynomial_seed), config.window),
            Sampler::new(config.sample_bits),
        )
    }

    /// Compare two caches through the public lookup API for every
    /// sampled window of `payload`: same hit/miss, same (id, offset),
    /// same resolved bytes.
    fn assert_table_state_identical(
        a: &Cache,
        b: &Cache,
        engine: &Fingerprinter,
        sampler: &Sampler,
        payload: &[u8],
    ) {
        for (_, fp) in engine.windows(payload) {
            if !sampler.selects(fp) {
                continue;
            }
            match (a.lookup(fp), b.lookup(fp)) {
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
                (a, b) => panic!(
                    "lookup divergence for fp {fp:#x}: {} vs {}",
                    a.is_some(),
                    b.is_some()
                ),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Product ≡ reference per packet, across payload mixes ×
        /// redundancy × policies. Tokens, source packets and index
        /// entries are compared inside `encode` on the state the product
        /// scan read; here the wire is checked to be those tokens'
        /// bytes by decoding it, the fingerprint table is compared
        /// through `Cache::lookup` with one the reference's indexing
        /// pass (`index_payload`) built, and the counters with the sums
        /// of the per-packet outcomes.
        #[test]
        fn product_scan_equals_reference(stream in arb_stream(), policy_idx in 0usize..5) {
            let kind = policies()[policy_idx];
            let config = DreConfig::default();
            let (engine, sampler) = engine_and_sampler(&config);
            let mut enc = Encoder::new(config.clone(), kind.build());
            let mut dec = Decoder::new(config.clone());
            let mut table = Cache::new(&config);
            let mut sums = EncoderStats::default();
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
                let out = enc.encode(&m, &payload);
                prop_assert_eq!(out.matches > 0, out.distinct_refs > 0, "packet {}", i);
                prop_assert!(out.matched_bytes <= payload.len());
                let (restored, _) = dec.decode(&out.wire, &m);
                prop_assert_eq!(restored.expect("lossless link"), payload.clone(), "packet {}", i);

                if out.flushed {
                    table.flush();
                }
                table.insert_with_id(out.id, payload.clone(), m.flow, m.seq);
                let indexed = table.index_payload(&engine, &sampler, out.id);
                assert_table_state_identical(enc.cache(), &table, &engine, &sampler, &payload);

                sums.index_insertions += indexed.insertions;
                sums.index_skips += indexed.skipped;
                sums.packets += 1;
                sums.bytes_in += payload.len() as u64;
                sums.bytes_out += out.wire.len() as u64;
                sums.matches += out.matches as u64;
                sums.matched_bytes += out.matched_bytes as u64;
                sums.sum_distinct_refs += out.distinct_refs as u64;
                sums.flushes += u64::from(out.flushed);
                sums.references += u64::from(out.was_reference);
                sums.encoded_packets += u64::from(out.distinct_refs > 0);
                sums.raw_packets += u64::from(out.distinct_refs == 0);
            }
            let s = enc.stats();
            prop_assert_eq!(s.packets, sums.packets);
            prop_assert_eq!(s.bytes_in, sums.bytes_in);
            prop_assert_eq!(s.bytes_out, sums.bytes_out);
            prop_assert_eq!(s.encoded_packets, sums.encoded_packets);
            prop_assert_eq!(s.raw_packets, sums.raw_packets);
            prop_assert_eq!(s.references, sums.references);
            prop_assert_eq!(s.flushes, sums.flushes);
            prop_assert_eq!(s.matches, sums.matches);
            prop_assert_eq!(s.matched_bytes, sums.matched_bytes);
            prop_assert_eq!(s.sum_distinct_refs, sums.sum_distinct_refs);
            // The scan rolls every window once and the index pass adds
            // none, except for packets a policy sent unscanned.
            let windows: u64 = stream
                .iter()
                .map(|p| (p.len() + 1).saturating_sub(config.window) as u64)
                .sum();
            prop_assert_eq!(s.scan_windows, windows);
            prop_assert_eq!(s.index_insertions, sums.index_insertions);
            prop_assert_eq!(s.index_skips, sums.index_skips);
            prop_assert_eq!(s.index_insertions, dec.stats().index_insertions);
        }

        /// The decoder indexes every packet with `Cache::index_payload`;
        /// the encoder indexes scanned packets from the scan's own pairs
        /// (`index_sampled`) and packets a policy sends unscanned with
        /// `index_payload`. Over a stream that mixes raw, encoded,
        /// suppressed (k-distance and adaptive references) and
        /// retransmitted packets (which make Cache Flush flush both
        /// sides), the two tables must answer every lookup alike after
        /// every packet.
        #[test]
        fn decoder_table_mirrors_encoder(
            stream in arb_stream(),
            resend in proptest::collection::vec(0u8..6, 28),
            policy_idx in 0usize..5,
        ) {
            let kind = policies()[policy_idx];
            let config = DreConfig::default();
            let (engine, sampler) = engine_and_sampler(&config);
            let mut enc = Encoder::new(config.clone(), kind.build());
            let mut dec = Decoder::new(config);
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
}
