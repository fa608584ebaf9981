//! The byte caching encoder (paper Figure 2, with policy hooks from
//! Figure 7 / §V).

use bytes::Bytes;

use bytecache_packet::{FlowId, Packet, SeqNum};
use bytecache_telemetry::{Event, EventKind, Recorder};

use crate::config::DreConfig;
use crate::engine::{EngineCore, ScanOutput};
use crate::policy::{PacketMeta, Policy};
use crate::stats::EncoderStats;
use crate::store::{Cache, PacketId};
use crate::wire::{self, Token};

/// Bookkeeping for one encoded packet, minus the wire bytes (which
/// [`Encoder::encode_into`] writes into a caller-provided buffer).
#[derive(Debug, Clone, Copy)]
pub struct EncodeInfo {
    /// Cache id assigned to the packet.
    pub id: PacketId,
    /// Match tokens emitted.
    pub matches: usize,
    /// Original bytes covered by matches.
    pub matched_bytes: usize,
    /// Distinct cached packets referenced.
    pub distinct_refs: usize,
    /// The policy made this packet a raw reference.
    pub was_reference: bool,
    /// The policy flushed the cache before this packet.
    pub flushed: bool,
}

/// What [`Encoder::encode`] produced for one packet.
#[derive(Debug, Clone)]
pub struct EncodeOutcome {
    /// The shim payload to put on the wire.
    pub wire: Vec<u8>,
    /// Cache id assigned to the packet.
    pub id: PacketId,
    /// Match tokens emitted.
    pub matches: usize,
    /// Original bytes covered by matches.
    pub matched_bytes: usize,
    /// Distinct cached packets referenced.
    pub distinct_refs: usize,
    /// The policy made this packet a raw reference.
    pub was_reference: bool,
    /// The policy flushed the cache before this packet.
    pub flushed: bool,
}

/// The byte caching encoder: redundancy identification and elimination
/// plus the cache update procedure, parameterized by an encoding
/// [`Policy`].
///
/// # Example
///
/// ```
/// use bytecache::{DreConfig, Encoder, Decoder, PacketMeta, PolicyKind};
/// use bytecache_packet::{FlowId, SeqNum};
/// use bytes::Bytes;
/// use std::net::Ipv4Addr;
///
/// let config = DreConfig::default();
/// let mut enc = Encoder::new(config.clone(), PolicyKind::Naive.build());
/// let mut dec = Decoder::new(config);
/// let flow = FlowId {
///     src: Ipv4Addr::new(10, 0, 0, 1), src_port: 80,
///     dst: Ipv4Addr::new(10, 0, 0, 2), dst_port: 4000,
/// };
/// let payload = Bytes::from(vec![7u8; 1000]);
/// let meta = PacketMeta { flow, seq: SeqNum::new(1), payload_len: 1000, flow_index: 0 };
/// let out = enc.encode(&meta, &payload);
/// let (restored, _) = dec.decode(&out.wire, &meta);
/// assert_eq!(restored.unwrap(), payload);
/// ```
pub struct Encoder {
    core: EngineCore,
    policy: Box<dyn Policy>,
    epoch: u16,
    /// Cache generation, stamped into version-2 shim headers when
    /// [`Self::set_wire_gen`] enables them; bumped on every honored
    /// resync so a wiped decoder can tell old shims from new.
    gen: u32,
    /// Emit version-2 (generation-stamped) shim headers. Off by
    /// default: the version-1 wire stays the live baseline.
    wire_gen: bool,
    stats: EncoderStats,
    /// Scan scratch (tokens, refs, sampled fingerprints) reused across
    /// packets so the hot path does not allocate in steady state.
    scratch: ScanOutput,
    /// Per-packet distributions and flush events; disabled by default
    /// (one branch per recording site on the hot path).
    telemetry: Recorder,
}

impl Encoder {
    /// New encoder with the given configuration and policy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`DreConfig::validate`]).
    #[must_use]
    pub fn new(config: DreConfig, policy: Box<dyn Policy>) -> Self {
        Encoder {
            core: EngineCore::new(config),
            policy,
            epoch: 0,
            gen: 0,
            wire_gen: false,
            stats: EncoderStats::default(),
            scratch: ScanOutput::default(),
            telemetry: Recorder::disabled(),
        }
    }

    /// Enable or disable telemetry on this encoder and its cache
    /// (builder style). Enabled telemetry never changes wire output —
    /// only the recorder's contents.
    #[must_use]
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.set_telemetry_enabled(enabled);
        self
    }

    /// Enable or disable telemetry on this encoder and its cache.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        self.telemetry.set_enabled(enabled);
        self.core.cache.set_telemetry_enabled(enabled);
    }

    /// The live telemetry recorder.
    #[must_use]
    pub fn telemetry(&self) -> &Recorder {
        &self.telemetry
    }

    /// A merged telemetry snapshot: live encoder distributions and
    /// events, the cache's snapshot, and every [`EncoderStats`] counter
    /// under `encoder.*`. Empty when telemetry is disabled.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Recorder {
        if !self.telemetry.is_enabled() {
            return Recorder::disabled();
        }
        let mut rec = self.telemetry.clone();
        rec.merge(&self.core.cache.telemetry_snapshot());
        let s = &self.stats;
        rec.count("encoder.packets", s.packets);
        rec.count("encoder.bytes_in", s.bytes_in);
        rec.count("encoder.bytes_out", s.bytes_out);
        rec.count("encoder.encoded_packets", s.encoded_packets);
        rec.count("encoder.raw_packets", s.raw_packets);
        rec.count("encoder.references", s.references);
        rec.count("encoder.flushes", s.flushes);
        rec.count("encoder.matches", s.matches);
        rec.count("encoder.matched_bytes", s.matched_bytes);
        rec.count("encoder.scan_windows", s.scan_windows);
        rec.count("encoder.sampled_windows", s.sampled_windows);
        rec.count("encoder.index_insertions", s.index_insertions);
        rec.count("encoder.index_skips", s.index_skips);
        rec.count("encoder.resyncs", s.resyncs);
        rec.count("encoder.repairs", s.repairs);
        rec.count("encoder.repair_misses", s.repair_misses);
        rec
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> &EncoderStats {
        &self.stats
    }

    /// The configuration this encoder was built with.
    #[must_use]
    pub fn config(&self) -> &DreConfig {
        &self.core.config
    }

    /// The active policy's name.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Current cache epoch (carried in every shim header).
    #[must_use]
    pub fn epoch(&self) -> u16 {
        self.epoch
    }

    /// Emit version-2 (generation-stamped) shim headers (builder style).
    /// The version-1 wire remains the default baseline.
    #[must_use]
    pub fn with_wire_gen(mut self, enabled: bool) -> Self {
        self.wire_gen = enabled;
        self
    }

    /// Enable or disable generation-stamped (version-2) shim headers.
    pub fn set_wire_gen(&mut self, enabled: bool) {
        self.wire_gen = enabled;
    }

    /// Current cache generation (stamped in version-2 shim headers).
    #[must_use]
    pub fn gen(&self) -> u32 {
        self.gen
    }

    /// Honor a decoder resync request: if `requested` still names the
    /// current generation, flush the cache and bump the generation so
    /// every subsequent shim proves the flush to the decoder. Returns
    /// whether the flush happened — a stale/duplicate request (the
    /// generation already moved past `requested`) is a no-op, which is
    /// what makes retried and duplicated resync requests idempotent.
    pub fn resync(&mut self, requested: u32) -> bool {
        if requested != self.gen {
            return false;
        }
        self.core.cache.flush();
        self.gen = self.gen.wrapping_add(1);
        self.stats.resyncs += 1;
        self.telemetry
            .event(Event::new(EventKind::Resync).details(u64::from(self.gen), 1));
        true
    }

    /// Serve a recovery request for shim id `id`: re-emit the stored
    /// region as a raw shim carrying the *same* id (so the decoder's
    /// insert replaces its diverged entry) and tombstone the entry so no
    /// future shim references it. Returns the stored flow, its TCP
    /// sequence number, and the wire bytes for the gateway to send, or
    /// `None` (counting a miss) when the entry is gone or already
    /// tombstoned — the decoder's retries give up via backoff.
    pub fn repair(&mut self, id: u32) -> Option<(FlowId, SeqNum, Vec<u8>)> {
        let pid = PacketId(u64::from(id));
        if self.core.cache.is_dead(pid) {
            self.stats.repair_misses += 1;
            return None;
        }
        let Some(stored) = self.core.cache.packet(pid) else {
            self.stats.repair_misses += 1;
            return None;
        };
        let flow = stored.meta.flow;
        let seq = stored.meta.seq;
        let payload = stored.payload.clone();
        self.core.cache.mark_dead(pid);
        let mut out = Vec::new();
        wire::encode_raw_gen_into(
            &mut out,
            self.epoch,
            id,
            self.wire_gen.then_some(self.gen),
            &payload,
        );
        self.stats.repairs += 1;
        self.telemetry.event(
            Event::new(EventKind::RecoveryRepair)
                .flow(flow.stable_hash())
                .details(u64::from(id), payload.len() as u64),
        );
        Some((flow, seq, out))
    }

    /// Borrow the cache (inspection / tests).
    #[must_use]
    pub fn cache(&self) -> &Cache {
        &self.core.cache
    }

    /// Observe a reverse-direction packet (feeds ACK-gated policies).
    pub fn observe_reverse(&mut self, packet: &Packet) {
        self.policy.on_reverse_packet(packet);
    }

    /// Informed marking: the decoder reported these shim ids as lost;
    /// never use them as match sources again.
    pub fn handle_nack(&mut self, missing_ids: &[u32]) {
        for &id in missing_ids {
            self.core.cache.mark_dead(PacketId(u64::from(id)));
        }
    }

    /// Encode one data packet: returns the shim payload and bookkeeping.
    ///
    /// `meta.flow_index` is recomputed internally; callers may pass 0.
    ///
    /// # Panics
    ///
    /// Panics if `payload` is longer than `u16::MAX` bytes (see
    /// [`encode_into`](Self::encode_into)).
    pub fn encode(&mut self, meta: &PacketMeta, payload: &Bytes) -> EncodeOutcome {
        let mut wire = Vec::new();
        let info = self.encode_into(meta, payload, &mut wire);
        EncodeOutcome {
            wire,
            id: info.id,
            matches: info.matches,
            matched_bytes: info.matched_bytes,
            distinct_refs: info.distinct_refs,
            was_reference: info.was_reference,
            flushed: info.flushed,
        }
    }

    /// Encode one data packet, writing the shim payload into `out`
    /// (cleared first). Buffer-reuse variant of [`encode`](Self::encode)
    /// for gateways processing packet streams.
    ///
    /// # Panics
    ///
    /// Panics if `payload` is longer than `u16::MAX` bytes: the shim's
    /// original length and every match offset are 16-bit fields, as is
    /// the IP total length of any packet a gateway can hand in.
    pub fn encode_into(
        &mut self,
        meta: &PacketMeta,
        payload: &Bytes,
        out: &mut Vec<u8>,
    ) -> EncodeInfo {
        assert!(
            payload.len() <= usize::from(u16::MAX),
            "payload of {} bytes exceeds the shim's 16-bit length fields",
            payload.len()
        );
        let span = self.telemetry.span_start();
        let meta = PacketMeta {
            flow_index: self.core.cache.flow_index(&meta.flow),
            ..*meta
        };
        let pre = self.policy.before_packet(&meta);
        if let Some(entered) = self.policy.poll_transition() {
            self.telemetry.event(
                Event::new(EventKind::Degrade)
                    .flow(meta.flow.stable_hash())
                    .details(u64::from(entered), 0),
            );
        }
        if pre.flush {
            self.core.cache.flush();
            self.epoch = self.epoch.wrapping_add(1);
            self.stats.flushes += 1;
            self.telemetry.event(
                Event::new(EventKind::PolicyFlush)
                    .flow(meta.flow.stable_hash())
                    .details(u64::from(self.epoch), 0),
            );
        }
        let id = self.core.cache.next_id();
        let shim_id = id.0 as u32;

        self.scratch.clear();
        if !pre.suppress_encoding {
            self.core
                .scan_batched(self.policy.as_ref(), &meta, payload, &mut self.scratch);
            #[cfg(test)]
            self.core.assert_scan_matches_reference(
                self.policy.as_ref(),
                &meta,
                payload,
                &self.scratch,
            );
        }

        let matches = self.scratch.refs.len();
        let matched_bytes = self.scratch.matched_bytes;
        let distinct_refs = self.scratch.distinct_refs;
        if self
            .scratch
            .tokens
            .iter()
            .any(|t| matches!(t, Token::Match { .. }))
        {
            wire::encode_tokens_gen_into(
                out,
                self.epoch,
                shim_id,
                self.wire_gen.then_some(self.gen),
                payload.len() as u16,
                wire::payload_checksum(payload),
                &self.scratch.tokens,
            );
        } else {
            wire::encode_raw_gen_into(
                out,
                self.epoch,
                shim_id,
                self.wire_gen.then_some(self.gen),
                payload,
            );
        }

        // Cache update procedure (paper Fig. 2 part C) on the ORIGINAL
        // payload — retransmissions included, which is exactly what makes
        // the naive policy self-referential. The scan collected the
        // sampled fingerprints, so nothing is fingerprinted a second
        // time; only a packet the policy sent unscanned is rolled here.
        self.core
            .cache
            .insert_with_id(id, payload.clone(), meta.flow, meta.seq);
        let indexed = if pre.suppress_encoding {
            self.core
                .cache
                .index_payload(&self.core.engine, &self.core.sampler, id)
        } else {
            self.core.cache.index_sampled(id, &self.scratch.sampled)
        };

        // Bookkeeping.
        self.stats.packets += 1;
        self.stats.bytes_in += payload.len() as u64;
        self.stats.bytes_out += out.len() as u64;
        self.stats.matches += matches as u64;
        self.stats.matched_bytes += matched_bytes as u64;
        self.stats.scan_windows += self.scratch.scan_windows + indexed.windows;
        self.stats.sampled_windows += self.scratch.sampled_windows + indexed.sampled;
        self.stats.index_insertions += indexed.insertions;
        self.stats.index_skips += indexed.skipped;
        if pre.suppress_encoding {
            self.stats.references += 1;
            self.stats.raw_packets += 1;
        } else if distinct_refs > 0 {
            self.stats.encoded_packets += 1;
            self.stats.sum_distinct_refs += distinct_refs as u64;
        } else {
            self.stats.raw_packets += 1;
        }
        self.scratch.tokens.clear(); // drop Bytes slices promptly; keep capacity
        if self.telemetry.is_enabled() {
            self.telemetry.record("encode.wire_bytes", out.len() as u64);
            self.telemetry
                .record("encode.matched_bytes", matched_bytes as u64);
            self.telemetry
                .record("encode.distinct_refs", distinct_refs as u64);
        }
        self.telemetry.span_end("span.encode_ns", span);

        EncodeInfo {
            id,
            matches,
            matched_bytes,
            distinct_refs,
            was_reference: pre.suppress_encoding,
            flushed: pre.flush,
        }
    }
}

impl core::fmt::Debug for Encoder {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Encoder")
            .field("policy", &self.policy.name())
            .field("epoch", &self.epoch)
            .field("cache_packets", &self.core.cache.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}
