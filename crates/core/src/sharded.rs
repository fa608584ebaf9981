//! Sharded engines: flow-partitioned encoder/decoder banks.
//!
//! A single DRE engine serializes every flow through one cache and one
//! fingerprint index. Sharding partitions *flows* across `N` fully
//! independent engines — each shard owns its cache, its policy instance,
//! its id space, and its epoch counter — so multi-flow traffic can be
//! encoded and decoded concurrently without any shared mutable state.
//!
//! The shard of a packet is a stable hash of its flow tuple, computed
//! identically on the encoder and decoder sides, so a flow's packets
//! always meet the same (cache, policy, epoch) pair at both ends and
//! cross-shard references are impossible by construction. The price is
//! that cross-flow redundancy is only eliminated *within* a shard; with
//! `shards = 1` (the default) the bank degenerates to a plain
//! [`Encoder`]/[`Decoder`] and produces byte-identical wire output.
//!
//! Shard isolation is also a *policy* boundary: a retransmission in one
//! flow triggers its shard's policy (e.g. a Cache Flush epoch bump) but
//! can never flush or re-epoch another shard's cache.

use bytes::Bytes;

use bytecache_packet::FlowId;
use bytecache_telemetry::Recorder;

use crate::config::DreConfig;
use crate::decoder::{DecodeError, Decoder, Feedback};
use crate::encoder::{EncodeInfo, EncodeOutcome, Encoder};
use crate::policy::{PacketMeta, PolicyKind};
use crate::stats::{DecoderStats, EncoderStats};
use crate::store::CacheStats;

/// Stable shard assignment: FNV-1a over the flow tuple, reduced to
/// `shards`. Both gateways must use the same `shards` value (it is part
/// of [`DreConfig`], like every other must-match parameter).
#[must_use]
pub fn shard_for(flow: &FlowId, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&flow.src.octets());
    eat(&flow.src_port.to_be_bytes());
    eat(&flow.dst.octets());
    eat(&flow.dst_port.to_be_bytes());
    (h % shards as u64) as usize
}

/// A bank of [`Encoder`]s, one per shard, with flows partitioned by
/// [`shard_for`]. See the [module docs](self) for the isolation model.
#[derive(Debug)]
pub struct ShardedEncoder {
    shards: Vec<Encoder>,
}

impl ShardedEncoder {
    /// Build `config.shards` independent encoders, each with its own
    /// instance of the `kind` policy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(config: DreConfig, kind: PolicyKind) -> Self {
        config.validate();
        let shards = (0..config.shards)
            .map(|_| Encoder::new(config.clone(), kind.build()))
            .collect();
        ShardedEncoder { shards }
    }

    /// Wrap an existing encoder as a single-shard bank (the
    /// compatibility path for unsharded deployments; byte-identical to
    /// using the encoder directly).
    #[must_use]
    pub fn from_encoder(encoder: Encoder) -> Self {
        ShardedEncoder {
            shards: vec![encoder],
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a flow maps to.
    #[must_use]
    pub fn shard_of(&self, flow: &FlowId) -> usize {
        shard_for(flow, self.shards.len())
    }

    /// Borrow one shard's encoder (inspection / tests).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn shard(&self, index: usize) -> &Encoder {
        &self.shards[index]
    }

    /// Encode one packet on its flow's shard.
    pub fn encode(&mut self, meta: &PacketMeta, payload: &Bytes) -> EncodeOutcome {
        let shard = self.shard_of(&meta.flow);
        self.shards[shard].encode(meta, payload)
    }

    /// Encode one packet into a caller-provided buffer (cleared first);
    /// returns the shard it ran on and the bookkeeping.
    pub fn encode_into(
        &mut self,
        meta: &PacketMeta,
        payload: &Bytes,
        out: &mut Vec<u8>,
    ) -> (usize, EncodeInfo) {
        let shard = self.shard_of(&meta.flow);
        (shard, self.shards[shard].encode_into(meta, payload, out))
    }

    /// Encode a batch of packets, driving the shards concurrently (one
    /// scoped thread per non-empty shard). Within a shard, packets are
    /// processed in input order, so the result is identical to calling
    /// [`encode`](Self::encode) sequentially on each item; outputs are
    /// returned in input order.
    pub fn encode_batch(&mut self, items: &[(PacketMeta, Bytes)]) -> Vec<EncodeOutcome> {
        let n = self.shards.len();
        if n == 1 || items.len() <= 1 {
            return items
                .iter()
                .map(|(meta, payload)| self.shards[0].encode(meta, payload))
                .collect();
        }
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, (meta, _)) in items.iter().enumerate() {
            buckets[shard_for(&meta.flow, n)].push(i);
        }
        let mut results: Vec<Option<EncodeOutcome>> = items.iter().map(|_| None).collect();
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(n);
            for (encoder, bucket) in self.shards.iter_mut().zip(&buckets) {
                if bucket.is_empty() {
                    continue;
                }
                handles.push(s.spawn(move || {
                    bucket
                        .iter()
                        .map(|&i| {
                            let (meta, payload) = &items[i];
                            (i, encoder.encode(meta, payload))
                        })
                        .collect::<Vec<_>>()
                }));
            }
            for handle in handles {
                for (i, outcome) in handle.join().expect("shard encode worker panicked") {
                    results[i] = Some(outcome);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every item encoded"))
            .collect()
    }

    /// Observe a reverse-direction packet (an ACK), routing it to the
    /// shard of the *data-direction* flow it acknowledges — the reverse
    /// of the packet's own flow tuple.
    pub fn observe_reverse(&mut self, packet: &bytecache_packet::Packet) {
        let ack_flow = packet.flow();
        let data_flow = FlowId {
            src: ack_flow.dst,
            src_port: ack_flow.dst_port,
            dst: ack_flow.src,
            dst_port: ack_flow.src_port,
        };
        let shard = self.shard_of(&data_flow);
        self.shards[shard].observe_reverse(packet);
    }

    /// Informed marking for one shard: mark the listed shim ids dead in
    /// that shard's cache. Ids are per-shard (each shard runs its own id
    /// space), so the decoder side tags its NACKs with the shard index.
    pub fn handle_nack(&mut self, shard: usize, missing_ids: &[u32]) {
        if let Some(encoder) = self.shards.get_mut(shard) {
            encoder.handle_nack(missing_ids);
        }
    }

    /// Emit generation-stamped (version-2) shim headers on every shard.
    pub fn set_wire_gen(&mut self, enabled: bool) {
        for shard in &mut self.shards {
            shard.set_wire_gen(enabled);
        }
    }

    /// Honor a decoder resync request on one shard (see
    /// [`Encoder::resync`]). Returns whether the shard flushed.
    pub fn resync(&mut self, shard: usize, requested: u32) -> bool {
        self.shards
            .get_mut(shard)
            .is_some_and(|encoder| encoder.resync(requested))
    }

    /// Serve a recovery request on one shard (see [`Encoder::repair`]).
    pub fn repair(
        &mut self,
        shard: usize,
        id: u32,
    ) -> Option<(FlowId, bytecache_packet::SeqNum, Vec<u8>)> {
        self.shards.get_mut(shard)?.repair(id)
    }

    /// Encoder counters merged across shards.
    #[must_use]
    pub fn stats(&self) -> EncoderStats {
        let mut total = EncoderStats::default();
        for shard in &self.shards {
            total.merge(shard.stats());
        }
        total
    }

    /// Cache counters merged across shards.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.merge(shard.cache().stats());
        }
        total
    }

    /// Enable or disable telemetry on every shard, tagging each shard's
    /// recorder with its index so merged snapshots keep per-shard
    /// labelled series apart.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.set_telemetry_enabled(enabled);
            shard.set_telemetry_shard(i as u32);
        }
    }

    /// Merged telemetry snapshot: every shard's recorder folded into
    /// one, plus a `shard.hit_rate_pct` histogram with one sample per
    /// shard (the shard's cache-hit percentage over encoded packets) and
    /// per-shard labelled `shard.packets` counters for load-balance
    /// inspection.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Recorder {
        let mut merged = Recorder::enabled();
        let mut any = false;
        for (i, shard) in self.shards.iter().enumerate() {
            if !shard.telemetry().is_enabled() {
                continue;
            }
            any = true;
            merged.merge(&shard.telemetry_snapshot());
            let stats = shard.stats();
            let packets = stats.packets;
            let hits = stats.encoded_packets;
            let rate = hits.saturating_mul(100).checked_div(packets).unwrap_or(0);
            merged.record("shard.hit_rate_pct", rate);
            merged.count_l("shard.packets", Some(i as u64), packets);
        }
        if !any {
            return Recorder::disabled();
        }
        merged
    }
}

/// Feedback from a sharded decode: the shard that produced it plus the
/// ids to NACK within that shard's id space.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardFeedback {
    /// Which shard the packet decoded on.
    pub shard: u16,
    /// Per-shard shim ids to NACK upstream.
    pub nack_ids: Vec<u32>,
    /// Shim id successfully decoded by this call, if any (see
    /// [`Feedback::decoded_id`]).
    pub decoded_id: Option<u32>,
    /// Shim id that failed on a diverged cache reference, if any (see
    /// [`Feedback::failed_id`]).
    pub failed_id: Option<u32>,
    /// Generation this shard wants resynced away from, while a post-wipe
    /// resync is outstanding (see [`Feedback::resync_gen`]).
    pub resync_gen: Option<u32>,
}

impl ShardFeedback {
    /// Tag single-engine feedback with its shard index.
    fn tag(shard: usize, feedback: Feedback) -> ShardFeedback {
        ShardFeedback {
            shard: shard as u16,
            nack_ids: feedback.nack_ids,
            decoded_id: feedback.decoded_id,
            failed_id: feedback.failed_id,
            resync_gen: feedback.resync_gen,
        }
    }
}

/// A bank of [`Decoder`]s mirroring a [`ShardedEncoder`]: same shard
/// count, same flow hash, so every packet decodes against the cache its
/// encoder shard maintains.
#[derive(Debug)]
pub struct ShardedDecoder {
    shards: Vec<Decoder>,
}

impl ShardedDecoder {
    /// Build `config.shards` independent decoders.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(config: DreConfig) -> Self {
        config.validate();
        let shards = (0..config.shards)
            .map(|_| Decoder::new(config.clone()))
            .collect();
        ShardedDecoder { shards }
    }

    /// Wrap an existing decoder as a single-shard bank.
    #[must_use]
    pub fn from_decoder(decoder: Decoder) -> Self {
        ShardedDecoder {
            shards: vec![decoder],
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a flow maps to.
    #[must_use]
    pub fn shard_of(&self, flow: &FlowId) -> usize {
        shard_for(flow, self.shards.len())
    }

    /// Borrow one shard's decoder (inspection / tests).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn shard(&self, index: usize) -> &Decoder {
        &self.shards[index]
    }

    /// Mutably borrow one shard's decoder (cache migration import; see
    /// [`Decoder::import_state`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn shard_mut(&mut self, index: usize) -> &mut Decoder {
        &mut self.shards[index]
    }

    /// Decode one shim payload on its flow's shard.
    pub fn decode(
        &mut self,
        wire_payload: &[u8],
        meta: &PacketMeta,
    ) -> (Result<Bytes, DecodeError>, ShardFeedback) {
        let shard = self.shard_of(&meta.flow);
        let (result, feedback) = self.shards[shard].decode(wire_payload, meta);
        (result, ShardFeedback::tag(shard, feedback))
    }

    /// Decode one shim payload on its flow's shard without copying it
    /// (see [`Decoder::decode_shared`]).
    pub fn decode_shared(
        &mut self,
        wire_payload: &Bytes,
        meta: &PacketMeta,
    ) -> (Result<Bytes, DecodeError>, ShardFeedback) {
        let shard = self.shard_of(&meta.flow);
        let (result, feedback) = self.shards[shard].decode_shared(wire_payload, meta);
        (result, ShardFeedback::tag(shard, feedback))
    }

    /// Decode a batch concurrently (one scoped thread per non-empty
    /// shard; in-shard order preserved, results in input order).
    pub fn decode_batch(
        &mut self,
        items: &[(PacketMeta, Bytes)],
    ) -> Vec<(Result<Bytes, DecodeError>, ShardFeedback)> {
        let n = self.shards.len();
        if n == 1 || items.len() <= 1 {
            return items
                .iter()
                .map(|(meta, wire)| {
                    let (result, feedback) = self.shards[0].decode_shared(wire, meta);
                    (result, ShardFeedback::tag(0, feedback))
                })
                .collect();
        }
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, (meta, _)) in items.iter().enumerate() {
            buckets[shard_for(&meta.flow, n)].push(i);
        }
        let mut results: Vec<Option<(Result<Bytes, DecodeError>, ShardFeedback)>> =
            items.iter().map(|_| None).collect();
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(n);
            for (shard_index, (decoder, bucket)) in self.shards.iter_mut().zip(&buckets).enumerate()
            {
                if bucket.is_empty() {
                    continue;
                }
                handles.push(s.spawn(move || {
                    bucket
                        .iter()
                        .map(|&i| {
                            let (meta, wire) = &items[i];
                            let (result, feedback) = decoder.decode_shared(wire, meta);
                            (i, (result, ShardFeedback::tag(shard_index, feedback)))
                        })
                        .collect::<Vec<_>>()
                }));
            }
            for handle in handles {
                for (i, out) in handle.join().expect("shard decode worker panicked") {
                    results[i] = Some(out);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every item decoded"))
            .collect()
    }

    /// Wipe every shard's cache and synchronization state (simulated
    /// decoder restart; see [`Decoder::wipe`]).
    pub fn wipe(&mut self) {
        for shard in &mut self.shards {
            shard.wipe();
        }
    }

    /// Whether `shard` is still waiting out a post-wipe resync.
    #[must_use]
    pub fn needs_resync(&self, shard: usize) -> bool {
        self.shards.get(shard).is_some_and(Decoder::needs_resync)
    }

    /// Decoder counters merged across shards.
    #[must_use]
    pub fn stats(&self) -> DecoderStats {
        let mut total = DecoderStats::default();
        for shard in &self.shards {
            total.merge(shard.stats());
        }
        total
    }

    /// Cache counters merged across shards.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.merge(shard.cache().stats());
        }
        total
    }

    /// Enable or disable telemetry on every shard, tagging each shard's
    /// recorder with its index (mirrors
    /// [`ShardedEncoder::set_telemetry_enabled`]).
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.set_telemetry_enabled(enabled);
            shard.set_telemetry_shard(i as u32);
        }
    }

    /// Merged telemetry snapshot across shards, with per-shard labelled
    /// `shard.decode_packets` counters for load-balance inspection.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Recorder {
        let mut merged = Recorder::enabled();
        let mut any = false;
        for (i, shard) in self.shards.iter().enumerate() {
            if !shard.telemetry().is_enabled() {
                continue;
            }
            any = true;
            merged.merge(&shard.telemetry_snapshot());
            merged.count_l(
                "shard.decode_packets",
                Some(i as u64),
                shard.stats().packets,
            );
        }
        if !any {
            return Recorder::disabled();
        }
        merged
    }
}

/// Un-tagged feedback for compatibility call sites that still speak the
/// single-engine [`Feedback`] type.
impl From<ShardFeedback> for Feedback {
    fn from(f: ShardFeedback) -> Feedback {
        Feedback {
            nack_ids: f.nack_ids,
            decoded_id: f.decoded_id,
            failed_id: f.failed_id,
            resync_gen: f.resync_gen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytecache_packet::SeqNum;
    use std::net::Ipv4Addr;

    fn flow(port: u16) -> FlowId {
        FlowId {
            src: Ipv4Addr::new(10, 0, 0, 1),
            src_port: 80,
            dst: Ipv4Addr::new(10, 0, 0, 2),
            dst_port: port,
        }
    }

    fn meta(flow: FlowId, seq: u32, len: usize) -> PacketMeta {
        PacketMeta {
            flow,
            seq: SeqNum::new(seq),
            payload_len: len,
            flow_index: 0,
        }
    }

    fn block(seed: u64, len: usize) -> Bytes {
        (0..len)
            .map(|i| {
                let x = (seed.wrapping_mul(31) ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (x >> 56) as u8
            })
            .collect::<Vec<_>>()
            .into()
    }

    #[test]
    fn shard_for_is_stable_and_in_range() {
        for port in 0..200 {
            let f = flow(port);
            for shards in [1, 2, 4, 7] {
                let s = shard_for(&f, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for(&f, shards), "deterministic");
            }
            assert_eq!(shard_for(&f, 1), 0);
        }
    }

    #[test]
    fn shard_for_spreads_flows() {
        let shards = 4;
        let mut counts = [0usize; 4];
        for port in 1000..1256 {
            counts[shard_for(&flow(port), shards)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 256 / 16, "shard {i} starved: {counts:?}");
        }
    }

    #[test]
    fn single_shard_bank_matches_plain_encoder() {
        let config = DreConfig::default();
        let mut plain = Encoder::new(config.clone(), PolicyKind::CacheFlush.build());
        let mut bank = ShardedEncoder::new(config, PolicyKind::CacheFlush);
        assert_eq!(bank.shard_count(), 1);
        for i in 0..20u32 {
            let f = flow(4000 + (i % 3) as u16);
            let payload = block(u64::from(i % 5), 900);
            let m = meta(f, 1 + i * 900, payload.len());
            let a = plain.encode(&m, &payload);
            let b = bank.encode(&m, &payload);
            assert_eq!(a.wire, b.wire, "packet {i}");
        }
        assert_eq!(*plain.stats(), bank.stats());
    }

    #[test]
    fn batch_encode_equals_sequential_per_shard() {
        let config = DreConfig {
            shards: 4,
            ..DreConfig::default()
        };
        let items: Vec<(PacketMeta, Bytes)> = (0..64u32)
            .map(|i| {
                let f = flow(5000 + (i % 11) as u16);
                let payload = block(u64::from(i % 6), 700);
                (meta(f, 1 + i * 700, payload.len()), payload)
            })
            .collect();
        let mut batched = ShardedEncoder::new(config.clone(), PolicyKind::TcpSeq);
        let mut sequential = ShardedEncoder::new(config, PolicyKind::TcpSeq);
        let out_batch = batched.encode_batch(&items);
        let out_seq: Vec<_> = items.iter().map(|(m, p)| sequential.encode(m, p)).collect();
        for (i, (a, b)) in out_batch.iter().zip(&out_seq).enumerate() {
            assert_eq!(a.wire, b.wire, "packet {i}");
        }
        assert_eq!(batched.stats(), sequential.stats());
        assert_eq!(batched.cache_stats(), sequential.cache_stats());
    }

    #[test]
    fn sharded_round_trip_and_tagged_feedback() {
        let config = DreConfig {
            shards: 4,
            ..DreConfig::default()
        };
        let mut enc = ShardedEncoder::new(config.clone(), PolicyKind::Naive);
        let mut dec = ShardedDecoder::new(config);
        for i in 0..40u32 {
            let f = flow(6000 + (i % 9) as u16);
            let payload = block(u64::from(i % 4), 800);
            let m = meta(f, 1 + i * 800, payload.len());
            let out = enc.encode(&m, &payload);
            let (restored, fb) = dec.decode(&out.wire, &m);
            assert_eq!(restored.unwrap(), payload, "packet {i}");
            assert_eq!(usize::from(fb.shard), enc.shard_of(&f));
            assert!(fb.nack_ids.is_empty(), "no loss, no NACKs");
        }
        assert_eq!(dec.stats().undecodable(), 0);
    }
}
