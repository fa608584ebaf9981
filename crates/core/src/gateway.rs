//! Byte caching gateways: simulator middlebox nodes wrapping the
//! sharded engine banks ([`ShardedEncoder`] / [`ShardedDecoder`]).
//!
//! This is the paper's deployment (Figure 1/Figure 3): two appliances on
//! the path intercept IP packets, the upstream one encodes payloads
//! travelling toward the client, the downstream one reconstructs them.
//! TCP endpoints never learn the gateways exist — unless a packet
//! becomes undecodable, in which case the decoder drops it and TCP sees
//! loss.
//!
//! Inside the discrete-event simulator a gateway processes one packet
//! per event, always on the shard its flow hashes to. For trace-driven
//! multi-client workloads outside the event loop, the
//! [`process_batch`](EncoderGateway::process_batch) entry points hand a
//! whole batch to the engine bank, which drives its shards on
//! concurrent scoped threads and returns the packets in input order.
//!
//! NACK control packets (informed marking) carry 6-byte records —
//! `shard u16 BE, shim id u32 BE` — because each shard runs an
//! independent id space; the decoder gateway tags every NACK with the
//! shard that observed the loss and the encoder gateway routes it back
//! to that shard's cache.
//!
//! The same control channel also carries the cache-divergence recovery
//! protocol (when [`DecoderGateway::with_recovery`] enables it):
//! 8-byte structured messages opening with [`CONTROL_MSG_MAGIC`] —
//! a resync request (the decoder was wiped; flush and bump the wire
//! generation) or a recovery request (re-emit one diverged cache entry
//! raw and tombstone it). NACK records open with the shard index's
//! high byte, which is zero for any realistic shard count, so the two
//! framings cannot collide.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use bytecache_netsim::time::SimDuration;
use bytecache_netsim::{Context, Node};
use bytecache_packet::{FlowId, Packet, TcpFlags};
use bytecache_telemetry::{Event, EventKind, Recorder};

use crate::decoder::Decoder;
use crate::encoder::Encoder;
use crate::migrate::{DecoderState, MigrateError};
use crate::policy::PacketMeta;
use crate::sharded::{ShardFeedback, ShardedDecoder, ShardedEncoder};
use crate::stats::{DecoderStats, EncoderStats};
use crate::store::FlowState;

/// TCP port used by gateway-to-gateway NACK control packets.
pub const CONTROL_PORT: u16 = 7777;

/// First byte of structured (resync / recovery) control messages.
pub const CONTROL_MSG_MAGIC: u8 = 0xBD;

/// Bytes per structured control message: magic u8, kind u8,
/// shard u16 BE, value u32 BE.
pub const CONTROL_MSG_LEN: usize = 8;

/// Structured message kind: resync request; value = the stale cache
/// generation the decoder observed.
const MSG_RESYNC: u8 = 0x01;

/// Structured message kind: recovery request; value = the shim id whose
/// cache entry diverged.
const MSG_RECOVER: u8 = 0x02;

/// Initial recovery/resync retry timeout (doubles per retry).
const RECOVERY_TIMEOUT_US: u64 = 100_000;

/// Repair requests are abandoned after this many retries; resync
/// requests keep retrying (their backoff just stops growing) because
/// nothing else can re-converge a wiped decoder.
const RECOVERY_MAX_RETRIES: u32 = 5;

/// Outstanding repair requests per flow.
const RECOVERY_MAX_PER_FLOW: usize = 8;

/// Outstanding repair requests across all flows.
const RECOVERY_MAX_PENDING: usize = 64;

/// Timer token used by the decoder gateway's retry timers.
const RECOVERY_TIMER_TOKEN: u64 = 0x5EC0;

/// Exponential backoff, capped so the delay stops growing after
/// [`RECOVERY_MAX_RETRIES`] doublings.
fn backoff_us(retries: u32) -> u64 {
    RECOVERY_TIMEOUT_US << retries.min(RECOVERY_MAX_RETRIES)
}

/// Bytes per NACK record on the control channel: shard (u16) + shim id
/// (u32), both big-endian.
pub const NACK_RECORD_LEN: usize = 6;

fn packet_meta(packet: &Packet) -> PacketMeta {
    PacketMeta {
        flow: packet.flow(),
        seq: packet.tcp.seq,
        payload_len: packet.payload.len(),
        flow_index: 0, // recomputed by the encoder
    }
}

/// Encoder-side middlebox: compresses payloads of packets addressed to
/// `encode_dst` (the client side of the constrained segment), passes
/// everything else through, and feeds reverse traffic to the policy.
pub struct EncoderGateway {
    encoder: ShardedEncoder,
    encode_dsts: HashSet<Ipv4Addr, FlowState>,
    control_addr: Option<Ipv4Addr>,
    nacks_received: u64,
    /// Control payloads that failed to parse cleanly (truncated trailing
    /// NACK record, bad structured message).
    nacks_malformed: u64,
    /// Repair packets synthesized in answer to recovery requests.
    repairs_sent: u64,
    /// IP id counter for synthesized repair packets.
    ip_id: u16,
    /// Gateway-level events (malformed control payloads); disabled by
    /// default like the bank's recorders.
    telemetry: Recorder,
}

impl EncoderGateway {
    /// New encoder gateway compressing traffic addressed to `encode_dst`.
    #[must_use]
    pub fn new(encoder: Encoder, encode_dst: Ipv4Addr) -> Self {
        Self::sharded(ShardedEncoder::from_encoder(encoder), [encode_dst])
    }

    /// Compress traffic addressed to any of `dsts` (multi-client
    /// deployments; the cache and fingerprint table are shared across
    /// the flows of a shard, so repeated content is eliminated *between*
    /// flows too).
    #[must_use]
    pub fn for_destinations(encoder: Encoder, dsts: impl IntoIterator<Item = Ipv4Addr>) -> Self {
        Self::sharded(ShardedEncoder::from_encoder(encoder), dsts)
    }

    /// New gateway around a sharded encoder bank: flows are partitioned
    /// across the bank's shards, each with its own cache and policy.
    #[must_use]
    pub fn sharded(encoder: ShardedEncoder, dsts: impl IntoIterator<Item = Ipv4Addr>) -> Self {
        EncoderGateway {
            encoder,
            encode_dsts: dsts.into_iter().collect(),
            control_addr: None,
            nacks_received: 0,
            nacks_malformed: 0,
            repairs_sent: 0,
            ip_id: 0,
            telemetry: Recorder::disabled(),
        }
    }

    /// Emit generation-stamped (version-2) shim headers on every shard
    /// (builder style). Required for the divergence-recovery protocol;
    /// off by default so the version-1 wire stays the live baseline.
    #[must_use]
    pub fn with_wire_gen(mut self, enabled: bool) -> Self {
        self.encoder.set_wire_gen(enabled);
        self
    }

    /// Give the gateway a control address so it can receive informed-
    /// marking NACKs from the decoder gateway.
    #[must_use]
    pub fn with_control_addr(mut self, addr: Ipv4Addr) -> Self {
        self.control_addr = Some(addr);
        self
    }

    /// Borrow the wrapped encoder (stats, cache inspection).
    ///
    /// # Panics
    ///
    /// Panics when the gateway runs more than one shard — inspect
    /// individual shards via [`sharded_encoder`](Self::sharded_encoder).
    #[must_use]
    pub fn encoder(&self) -> &Encoder {
        assert_eq!(
            self.encoder.shard_count(),
            1,
            "encoder(): gateway has multiple shards; use sharded_encoder()"
        );
        self.encoder.shard(0)
    }

    /// Borrow the engine bank.
    #[must_use]
    pub fn sharded_encoder(&self) -> &ShardedEncoder {
        &self.encoder
    }

    /// Encoder counters merged across shards.
    #[must_use]
    pub fn stats(&self) -> EncoderStats {
        self.encoder.stats()
    }

    /// NACK control packets processed.
    #[must_use]
    pub fn nacks_received(&self) -> u64 {
        self.nacks_received
    }

    /// Control payloads rejected or truncated (see
    /// [`handle_control`](Self::handle_control)'s framing rules).
    #[must_use]
    pub fn nacks_malformed(&self) -> u64 {
        self.nacks_malformed
    }

    /// Repair packets synthesized in answer to recovery requests.
    #[must_use]
    pub fn repairs_sent(&self) -> u64 {
        self.repairs_sent
    }

    /// Enable or disable telemetry on the whole encoder bank and the
    /// gateway's own recorder.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        self.encoder.set_telemetry_enabled(enabled);
        self.telemetry.set_enabled(enabled);
    }

    /// Merged telemetry snapshot: the bank's per-shard snapshots plus
    /// gateway-level counters and events.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> bytecache_telemetry::Recorder {
        let mut merged = self.encoder.telemetry_snapshot();
        if merged.is_enabled() {
            merged.merge(&self.telemetry);
            merged.count("gateway.nacks_received", self.nacks_received);
            merged.count("gateway.nacks_malformed", self.nacks_malformed);
            merged.count("gateway.repairs_sent", self.repairs_sent);
        }
        merged
    }

    /// Parse one control payload. NACK payloads are a sequence of
    /// complete 6-byte records; a truncated trailing record marks the
    /// payload malformed (counted + telemetry event) while the complete
    /// records before it are still honored — better a few extra dead
    /// entries than ignoring real loss reports. Structured messages
    /// (first byte [`CONTROL_MSG_MAGIC`]) must be exactly
    /// [`CONTROL_MSG_LEN`] bytes; a recovery request may synthesize a
    /// repair packet, which the caller forwards toward the decoder.
    fn handle_control(&mut self, packet: &Packet) -> Option<Packet> {
        let payload = &packet.payload;
        if payload.first() == Some(&CONTROL_MSG_MAGIC) {
            if payload.len() != CONTROL_MSG_LEN {
                self.note_malformed(payload.len(), payload.len());
                return None;
            }
            let shard = usize::from(u16::from_be_bytes([payload[2], payload[3]]));
            let value = u32::from_be_bytes([payload[4], payload[5], payload[6], payload[7]]);
            return match payload[1] {
                MSG_RESYNC => {
                    self.encoder.resync(shard, value);
                    None
                }
                MSG_RECOVER => self.build_repair_packet(shard, value),
                _ => {
                    self.note_malformed(payload.len(), payload.len());
                    None
                }
            };
        }
        let tail = payload.len() % NACK_RECORD_LEN;
        if tail != 0 {
            self.note_malformed(payload.len(), tail);
        }
        if payload.len() >= NACK_RECORD_LEN {
            self.nacks_received += 1;
        }
        for record in payload.chunks_exact(NACK_RECORD_LEN) {
            let shard = u16::from_be_bytes([record[0], record[1]]);
            let id = u32::from_be_bytes([record[2], record[3], record[4], record[5]]);
            self.encoder.handle_nack(usize::from(shard), &[id]);
        }
        None
    }

    fn note_malformed(&mut self, len: usize, rejected: usize) {
        self.nacks_malformed += 1;
        self.telemetry
            .event(Event::new(EventKind::ControlMalformed).details(len as u64, rejected as u64));
    }

    /// Answer a recovery request: have the shard re-emit the entry as a
    /// raw shim under its original id, and wrap it in a TCP packet that
    /// retraces the original data path (same flow tuple, same sequence
    /// number — the client's reassembly dedups it if the original data
    /// already arrived another way).
    fn build_repair_packet(&mut self, shard: usize, id: u32) -> Option<Packet> {
        let (flow, seq, wire) = self.encoder.repair(shard, id)?;
        self.repairs_sent += 1;
        self.ip_id = self.ip_id.wrapping_add(1);
        Some(
            Packet::builder()
                .src(flow.src, flow.src_port)
                .dst(flow.dst, flow.dst_port)
                .seq(seq.raw())
                .ip_id(self.ip_id)
                .flags(TcpFlags::PSH)
                .payload(wire)
                .build(),
        )
    }

    fn is_control(&self, packet: &Packet) -> bool {
        self.control_addr
            .is_some_and(|addr| packet.ip.dst == addr && packet.tcp.dst_port == CONTROL_PORT)
    }

    fn should_encode(&self, packet: &Packet) -> bool {
        self.encode_dsts.contains(&packet.ip.dst) && packet.has_payload()
    }

    fn encode_packet(&mut self, packet: &Packet) -> Packet {
        let meta = packet_meta(packet);
        // Freeze the encoder's output buffer into a shared handle
        // (O(1)); the same allocation rides the channel, the decoder,
        // and any retransmit queue untouched.
        let outcome = self.encoder.encode(&meta, &packet.payload);
        packet.with_payload(outcome.wire)
    }

    /// Process a trace-level batch outside the event loop: data packets
    /// are encoded with the shards running concurrently, control and
    /// reverse traffic is handled exactly as in [`Node::on_packet`], and
    /// the resulting packets come back in input order (control packets
    /// are consumed).
    pub fn process_batch(&mut self, packets: Vec<Packet>) -> Vec<Packet> {
        // Partition: indices to encode vs. pass through / consume.
        let mut encode_items = Vec::new();
        let mut encode_slots = Vec::new();
        let mut out: Vec<Option<Packet>> = Vec::with_capacity(packets.len());
        for packet in packets {
            if self.is_control(&packet) {
                let repair = self.handle_control(&packet);
                out.push(repair);
            } else if self.should_encode(&packet) {
                encode_items.push((packet_meta(&packet), packet.payload.clone()));
                encode_slots.push((out.len(), packet));
                out.push(None);
            } else {
                if self.encode_dsts.contains(&packet.ip.src) {
                    self.encoder.observe_reverse(&packet);
                }
                out.push(Some(packet));
            }
        }
        let outcomes = self.encoder.encode_batch(&encode_items);
        for ((slot, packet), outcome) in encode_slots.into_iter().zip(outcomes) {
            out[slot] = Some(packet.with_payload(outcome.wire));
        }
        out.into_iter().flatten().collect()
    }
}

impl Node for EncoderGateway {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        if self.is_control(&packet) {
            if let Some(repair) = self.handle_control(&packet) {
                ctx.forward(repair);
            }
            return; // consumed
        }
        if self.should_encode(&packet) {
            let encoded = self.encode_packet(&packet);
            ctx.forward(encoded);
        } else {
            // Reverse direction (or control-plane) traffic: observe and
            // pass through untouched.
            if self.encode_dsts.contains(&packet.ip.src) {
                self.encoder.observe_reverse(&packet);
            }
            ctx.forward(packet);
        }
    }
}

impl core::fmt::Debug for EncoderGateway {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EncoderGateway")
            .field("encode_dsts", &self.encode_dsts)
            .field("shards", &self.encoder.shard_count())
            .field("encoder", &self.encoder)
            .finish_non_exhaustive()
    }
}

/// Decoder-side middlebox: reconstructs payloads of packets addressed to
/// `decode_dst`; undecodable packets are dropped (TCP perceives loss).
/// Optionally reports lost/undecodable shim ids back to the encoder
/// gateway (informed marking, after Lumezanu et al.).
pub struct DecoderGateway {
    decoder: ShardedDecoder,
    decode_dsts: HashSet<Ipv4Addr, FlowState>,
    /// Where to send NACKs, if informed marking is on.
    nack_target: Option<(Ipv4Addr, u16)>,
    /// Local address used as the source of NACK packets.
    local_addr: Ipv4Addr,
    nacks_sent: u64,
    dropped: u64,
    ip_id: u16,
    /// Divergence recovery on/off (see [`with_recovery`](Self::with_recovery)).
    recovery: bool,
    /// Outstanding per-entry repair requests, bounded per flow and
    /// globally; `Vec` (not a map) so retry order is deterministic.
    pending_repairs: Vec<PendingRepair>,
    /// Outstanding resync requests, at most one per shard.
    pending_resyncs: Vec<PendingResync>,
    recovery_requests: u64,
    resyncs_sent: u64,
    recovery_retries: u64,
    recovery_abandoned: u64,
    /// Mobility handoff gate: while detached the gateway stops decoding
    /// and passes packets through untouched (see
    /// [`set_attached`](Self::set_attached)).
    decode_enabled: bool,
    detaches: u64,
    attaches: u64,
    migrations: u64,
    migration_bytes: u64,
    /// Generation carried over by the last imported migration snapshot.
    last_carry_gen: Option<u32>,
    /// Gateway-level recovery events; disabled by default.
    telemetry: Recorder,
}

/// One outstanding per-entry recovery request.
#[derive(Debug, Clone, Copy)]
struct PendingRepair {
    shard: u16,
    id: u32,
    flow: FlowId,
    retries: u32,
    /// Absolute retry deadline in simulated microseconds.
    next_at_us: u64,
}

/// One outstanding post-wipe resync request.
#[derive(Debug, Clone, Copy)]
struct PendingResync {
    shard: u16,
    gen: u32,
    retries: u32,
    next_at_us: u64,
}

impl DecoderGateway {
    /// New decoder gateway reconstructing traffic addressed to
    /// `decode_dst`. `local_addr` identifies the gateway itself (used as
    /// the source of control packets).
    #[must_use]
    pub fn new(decoder: Decoder, decode_dst: Ipv4Addr, local_addr: Ipv4Addr) -> Self {
        Self::sharded(
            ShardedDecoder::from_decoder(decoder),
            [decode_dst],
            local_addr,
        )
    }

    /// Reconstruct traffic addressed to any of `dsts` (the reciprocal of
    /// [`EncoderGateway::for_destinations`]).
    #[must_use]
    pub fn for_destinations(
        decoder: Decoder,
        dsts: impl IntoIterator<Item = Ipv4Addr>,
        local_addr: Ipv4Addr,
    ) -> Self {
        Self::sharded(ShardedDecoder::from_decoder(decoder), dsts, local_addr)
    }

    /// New gateway around a sharded decoder bank (the reciprocal of
    /// [`EncoderGateway::sharded`]; both ends must configure the same
    /// shard count).
    #[must_use]
    pub fn sharded(
        decoder: ShardedDecoder,
        dsts: impl IntoIterator<Item = Ipv4Addr>,
        local_addr: Ipv4Addr,
    ) -> Self {
        DecoderGateway {
            decoder,
            decode_dsts: dsts.into_iter().collect(),
            nack_target: None,
            local_addr,
            nacks_sent: 0,
            dropped: 0,
            ip_id: 0,
            recovery: false,
            pending_repairs: Vec::new(),
            pending_resyncs: Vec::new(),
            recovery_requests: 0,
            resyncs_sent: 0,
            recovery_retries: 0,
            recovery_abandoned: 0,
            decode_enabled: true,
            detaches: 0,
            attaches: 0,
            migrations: 0,
            migration_bytes: 0,
            last_carry_gen: None,
            telemetry: Recorder::disabled(),
        }
    }

    /// Enable informed marking: send NACK control packets to the encoder
    /// gateway's control address.
    #[must_use]
    pub fn with_nacks(mut self, encoder_control: Ipv4Addr) -> Self {
        self.nack_target = Some((encoder_control, CONTROL_PORT));
        self
    }

    /// Enable divergence recovery: on a shim that fails against a
    /// diverged cache entry, request a raw re-emission over the control
    /// channel (bounded per flow, retried with exponential backoff,
    /// abandoned after [`RECOVERY_MAX_RETRIES`] tries); after a cache
    /// wipe, request a generation resync instead of NACK-storming.
    /// Requires [`with_nacks`](Self::with_nacks) (the control channel)
    /// and an encoder gateway running generation-stamped headers.
    /// Recovery is driven by the simulator event loop
    /// ([`Node::on_packet`] / [`Node::on_timer`]); the trace-level
    /// [`process_batch`](Self::process_batch) path does not retry.
    #[must_use]
    pub fn with_recovery(mut self, enabled: bool) -> Self {
        self.recovery = enabled;
        self
    }

    /// Set the initial attachment state without counting a transition
    /// (builder style). Standby gateways in a handoff pool start
    /// detached; their first [`set_attached`](Self::set_attached) then
    /// records a real handoff rather than an artifact of construction.
    #[must_use]
    pub fn with_attached(mut self, attached: bool) -> Self {
        self.decode_enabled = attached;
        self
    }

    /// Simulated decoder restart: wipe every shard's cache and all
    /// synchronization state, and drop any outstanding repair requests
    /// (their entries died with the cache; the resync supersedes them).
    pub fn wipe_cache(&mut self) {
        self.decoder.wipe();
        self.pending_repairs.clear();
        self.pending_resyncs.clear();
    }

    /// Attach or detach this gateway from its client (the mobility
    /// handoff boundary). While detached the gateway stops decoding —
    /// packets pass through untouched and follow normal routing, which
    /// the mobility driver points away from a detached gateway — and the
    /// transition is counted and recorded as a telemetry
    /// [`EventKind::Handoff`] event. `tag` labels the gateway in the
    /// event stream (the harnesses pass the simulator node index).
    /// Gateways start attached; re-asserting the current state is a
    /// no-op.
    ///
    /// Detaching also drops outstanding repair/resync requests: a
    /// detached gateway sees no data shims, so a pending resync could
    /// never observe the generation change that completes it and would
    /// otherwise retry on its timer forever, keeping the simulation from
    /// going idle.
    pub fn set_attached(&mut self, attached: bool, tag: u64) {
        if self.decode_enabled == attached {
            return;
        }
        self.decode_enabled = attached;
        if attached {
            self.attaches += 1;
        } else {
            self.detaches += 1;
            self.pending_repairs.clear();
            self.pending_resyncs.clear();
        }
        self.telemetry
            .event(Event::new(EventKind::Handoff).details(u64::from(attached), tag));
    }

    /// Whether the gateway is currently attached (decoding).
    #[must_use]
    pub fn is_attached(&self) -> bool {
        self.decode_enabled
    }

    /// Snapshot the decoder's cache and synchronization state for a
    /// handoff migration (see [`Decoder::export_state`]). `max_bytes`
    /// bounds the serialized size; oldest entries are shed first.
    ///
    /// # Panics
    ///
    /// Panics when the gateway runs more than one shard.
    #[must_use]
    pub fn export_decoder_state(&self, max_bytes: Option<usize>) -> DecoderState {
        assert_eq!(
            self.decoder.shard_count(),
            1,
            "export_decoder_state: gateway has multiple shards"
        );
        self.decoder.shard(0).export_state(max_bytes)
    }

    /// Warm-start this gateway's decoder from an exported snapshot (the
    /// receiving side of a handoff migration; see
    /// [`Decoder::import_state`]). Outstanding repair/resync requests
    /// are dropped — the imported synchronization state supersedes them
    /// — and the transfer size plus carried-over generation are counted
    /// and recorded as a telemetry [`EventKind::CacheMigrate`] event.
    ///
    /// # Panics
    ///
    /// Panics when the gateway runs more than one shard.
    pub fn import_decoder_state(&mut self, state: DecoderState) {
        assert_eq!(
            self.decoder.shard_count(),
            1,
            "import_decoder_state: gateway has multiple shards"
        );
        let bytes = state.wire_len() as u64;
        let carry = state.sync_gen;
        self.migrations += 1;
        self.migration_bytes += bytes;
        self.last_carry_gen = carry;
        self.pending_repairs.clear();
        self.pending_resyncs.clear();
        self.telemetry.event(
            Event::new(EventKind::CacheMigrate).details(bytes, carry.map_or(u64::MAX, u64::from)),
        );
        self.decoder.shard_mut(0).import_state(state);
    }

    /// Warm-start this gateway's decoder from a serialized snapshot —
    /// the wire form the old gateway actually ships over the side
    /// channel. The blob is fully parsed and integrity-checked before
    /// any gateway or decoder state is touched: a malformed, truncated,
    /// or corrupted blob is rejected *whole*, leaving the cache, the
    /// synchronization state, and the migration counters untouched.
    ///
    /// # Errors
    ///
    /// Returns the parse failure (see [`DecoderState::from_bytes`]); on
    /// any error `self` is unmodified.
    ///
    /// # Panics
    ///
    /// Panics when the gateway runs more than one shard.
    pub fn import_decoder_blob(&mut self, buf: &[u8]) -> Result<(), MigrateError> {
        let state = DecoderState::from_bytes(buf)?;
        self.import_decoder_state(state);
        Ok(())
    }

    /// Borrow the wrapped decoder (stats, cache inspection).
    ///
    /// # Panics
    ///
    /// Panics when the gateway runs more than one shard — inspect
    /// individual shards via [`sharded_decoder`](Self::sharded_decoder).
    #[must_use]
    pub fn decoder(&self) -> &Decoder {
        assert_eq!(
            self.decoder.shard_count(),
            1,
            "decoder(): gateway has multiple shards; use sharded_decoder()"
        );
        self.decoder.shard(0)
    }

    /// Borrow the engine bank.
    #[must_use]
    pub fn sharded_decoder(&self) -> &ShardedDecoder {
        &self.decoder
    }

    /// Decoder counters merged across shards.
    #[must_use]
    pub fn stats(&self) -> DecoderStats {
        self.decoder.stats()
    }

    /// Packets dropped because they could not be reconstructed.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// NACK control packets emitted.
    #[must_use]
    pub fn nacks_sent(&self) -> u64 {
        self.nacks_sent
    }

    /// Recovery (repair) requests sent, initial sends only.
    #[must_use]
    pub fn recovery_requests(&self) -> u64 {
        self.recovery_requests
    }

    /// Resync requests sent, initial sends only.
    #[must_use]
    pub fn resyncs_sent(&self) -> u64 {
        self.resyncs_sent
    }

    /// Recovery/resync retransmissions (timer-driven resends).
    #[must_use]
    pub fn recovery_retries(&self) -> u64 {
        self.recovery_retries
    }

    /// Handoff detach transitions (see [`set_attached`](Self::set_attached)).
    #[must_use]
    pub fn detaches(&self) -> u64 {
        self.detaches
    }

    /// Handoff attach transitions.
    #[must_use]
    pub fn attaches(&self) -> u64 {
        self.attaches
    }

    /// Cache migrations imported into this gateway.
    #[must_use]
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Serialized bytes received across all imported migrations.
    #[must_use]
    pub fn migration_bytes(&self) -> u64 {
        self.migration_bytes
    }

    /// Cache generation carried over by the most recent migration, if
    /// the exporting decoder had synchronized one.
    #[must_use]
    pub fn last_carry_gen(&self) -> Option<u32> {
        self.last_carry_gen
    }

    /// Repair requests given up on after exhausting their retries.
    #[must_use]
    pub fn recovery_abandoned(&self) -> u64 {
        self.recovery_abandoned
    }

    /// Enable or disable telemetry on the whole decoder bank and the
    /// gateway's own recorder.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        self.decoder.set_telemetry_enabled(enabled);
        self.telemetry.set_enabled(enabled);
    }

    /// Merged telemetry snapshot: the bank's per-shard snapshots plus
    /// gateway-level counters and recovery events.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> bytecache_telemetry::Recorder {
        let mut merged = self.decoder.telemetry_snapshot();
        if merged.is_enabled() {
            merged.merge(&self.telemetry);
            merged.count("gateway.nacks_sent", self.nacks_sent);
            merged.count("gateway.dropped", self.dropped);
            merged.count("gateway.recovery_requests", self.recovery_requests);
            merged.count("gateway.resyncs_sent", self.resyncs_sent);
            merged.count("gateway.recovery_retries", self.recovery_retries);
            merged.count("gateway.recovery_abandoned", self.recovery_abandoned);
            merged.count("gateway.detaches", self.detaches);
            merged.count("gateway.attaches", self.attaches);
            merged.count("gateway.migrations", self.migrations);
            merged.count("gateway.migration_bytes", self.migration_bytes);
            if let Some(carry) = self.last_carry_gen {
                merged.gauge("gateway.carry_gen", u64::from(carry));
            }
        }
        merged
    }

    /// Build one structured control message packet (resync / recover).
    fn build_control_msg(&mut self, kind: u8, shard: u16, value: u32) -> Option<Packet> {
        let (addr, port) = self.nack_target?;
        let mut payload = Vec::with_capacity(CONTROL_MSG_LEN);
        payload.push(CONTROL_MSG_MAGIC);
        payload.push(kind);
        payload.extend_from_slice(&shard.to_be_bytes());
        payload.extend_from_slice(&value.to_be_bytes());
        self.ip_id = self.ip_id.wrapping_add(1);
        Some(
            Packet::builder()
                .src(self.local_addr, CONTROL_PORT)
                .dst(addr, port)
                .ip_id(self.ip_id)
                .flags(TcpFlags::PSH)
                .payload(payload)
                .build(),
        )
    }

    /// Act on the recovery-relevant parts of one decode's feedback:
    /// retire satisfied repairs, open resync/repair requests, arm retry
    /// timers.
    fn update_recovery(&mut self, flow: FlowId, feedback: &ShardFeedback, ctx: &mut Context<'_>) {
        if !self.recovery {
            return;
        }
        let now_us = ctx.now().as_micros();
        let shard = feedback.shard;
        if let Some(id) = feedback.decoded_id {
            self.pending_repairs
                .retain(|p| p.shard != shard || p.id != id);
        }
        match feedback.resync_gen {
            Some(gen) => {
                if !self.pending_resyncs.iter().any(|r| r.shard == shard) {
                    if let Some(msg) = self.build_control_msg(MSG_RESYNC, shard, gen) {
                        ctx.forward(msg);
                        self.resyncs_sent += 1;
                        self.telemetry.event(
                            Event::new(EventKind::Resync)
                                .at_us(now_us)
                                .details(u64::from(gen), 0),
                        );
                        self.pending_resyncs.push(PendingResync {
                            shard,
                            gen,
                            retries: 0,
                            next_at_us: now_us + RECOVERY_TIMEOUT_US,
                        });
                        ctx.set_timer(
                            SimDuration::from_micros(RECOVERY_TIMEOUT_US),
                            RECOVERY_TIMER_TOKEN,
                        );
                    }
                }
            }
            None => {
                // This shard no longer asks for a resync: if it also
                // reports converged, retire its pending request.
                let converged = !self.decoder.needs_resync(usize::from(shard));
                if converged {
                    self.pending_resyncs.retain(|r| r.shard != shard);
                }
            }
        }
        if let Some(id) = feedback.failed_id {
            let exists = self
                .pending_repairs
                .iter()
                .any(|p| p.shard == shard && p.id == id);
            let flow_load = self
                .pending_repairs
                .iter()
                .filter(|p| p.flow == flow)
                .count();
            if !exists
                && flow_load < RECOVERY_MAX_PER_FLOW
                && self.pending_repairs.len() < RECOVERY_MAX_PENDING
            {
                if let Some(msg) = self.build_control_msg(MSG_RECOVER, shard, id) {
                    ctx.forward(msg);
                    self.recovery_requests += 1;
                    self.telemetry.event(
                        Event::new(EventKind::RecoveryRequest)
                            .at_us(now_us)
                            .flow(flow.stable_hash())
                            .details(u64::from(id), 0),
                    );
                    self.pending_repairs.push(PendingRepair {
                        shard,
                        id,
                        flow,
                        retries: 0,
                        next_at_us: now_us + RECOVERY_TIMEOUT_US,
                    });
                    ctx.set_timer(
                        SimDuration::from_micros(RECOVERY_TIMEOUT_US),
                        RECOVERY_TIMER_TOKEN,
                    );
                }
            }
        }
    }

    fn build_feedback_packet(&mut self, feedback: &ShardFeedback) -> Option<Packet> {
        let (addr, port) = self.nack_target?;
        if feedback.nack_ids.is_empty() {
            return None;
        }
        let mut payload = Vec::with_capacity(feedback.nack_ids.len() * NACK_RECORD_LEN);
        for id in &feedback.nack_ids {
            payload.extend_from_slice(&feedback.shard.to_be_bytes());
            payload.extend_from_slice(&id.to_be_bytes());
        }
        self.ip_id = self.ip_id.wrapping_add(1);
        let pkt = Packet::builder()
            .src(self.local_addr, CONTROL_PORT)
            .dst(addr, port)
            .ip_id(self.ip_id)
            .flags(TcpFlags::PSH)
            .payload(payload)
            .build();
        self.nacks_sent += 1;
        Some(pkt)
    }

    fn should_decode(&self, packet: &Packet) -> bool {
        self.decode_enabled && self.decode_dsts.contains(&packet.ip.dst) && packet.has_payload()
    }

    /// Process a trace-level batch outside the event loop: decodable
    /// packets run through the shards concurrently; reconstructed
    /// packets and any NACK control packets come back in order, with
    /// undecodable packets dropped (counted in
    /// [`dropped`](Self::dropped)).
    pub fn process_batch(&mut self, packets: Vec<Packet>) -> Vec<Packet> {
        let mut decode_items = Vec::new();
        let mut decode_slots = Vec::new();
        let mut out: Vec<Vec<Packet>> = Vec::with_capacity(packets.len());
        for packet in packets {
            if self.should_decode(&packet) {
                decode_items.push((packet_meta(&packet), packet.payload.clone()));
                decode_slots.push((out.len(), packet));
                out.push(Vec::new());
            } else {
                out.push(vec![packet]);
            }
        }
        let results = self.decoder.decode_batch(&decode_items);
        for ((slot, packet), (result, feedback)) in decode_slots.into_iter().zip(results) {
            let mut produced = Vec::new();
            if let Some(nack) = self.build_feedback_packet(&feedback) {
                produced.push(nack);
            }
            match result {
                Ok(original) => produced.push(packet.with_payload(original)),
                Err(_) => self.dropped += 1,
            }
            out[slot] = produced;
        }
        out.into_iter().flatten().collect()
    }
}

impl Node for DecoderGateway {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        if self.should_decode(&packet) {
            let meta = packet_meta(&packet);
            // Zero-copy: raw bodies and literal regions come back as
            // slices of the arriving packet's buffer.
            let (result, feedback) = self.decoder.decode_shared(&packet.payload, &meta);
            if let Some(nack) = self.build_feedback_packet(&feedback) {
                ctx.forward(nack);
            }
            self.update_recovery(meta.flow, &feedback, ctx);
            match result {
                Ok(original) => ctx.forward(packet.with_payload(original)),
                Err(_) => {
                    // Undecodable: drop. Upstream TCP will retransmit.
                    self.dropped += 1;
                }
            }
        } else {
            ctx.forward(packet);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        if token != RECOVERY_TIMER_TOKEN || !self.recovery {
            return;
        }
        let now_us = ctx.now().as_micros();
        // Resync retries: keep asking (capped backoff, never abandoned)
        // until the decoder observes the generation bump — nothing else
        // can re-converge a wiped decoder under an encoding policy.
        let mut resyncs = std::mem::take(&mut self.pending_resyncs);
        resyncs.retain(|r| self.decoder.needs_resync(usize::from(r.shard)));
        for r in &mut resyncs {
            if now_us < r.next_at_us {
                continue;
            }
            r.retries += 1;
            self.recovery_retries += 1;
            let delay = backoff_us(r.retries);
            r.next_at_us = now_us + delay;
            if let Some(msg) = self.build_control_msg(MSG_RESYNC, r.shard, r.gen) {
                ctx.forward(msg);
            }
            self.telemetry.event(
                Event::new(EventKind::Resync)
                    .at_us(now_us)
                    .details(u64::from(r.gen), 0),
            );
            ctx.set_timer(SimDuration::from_micros(delay), RECOVERY_TIMER_TOKEN);
        }
        self.pending_resyncs = resyncs;
        // Repair retries: exponential backoff, abandoned after the cap
        // (the entry may be gone at the encoder too; TCP's own
        // retransmission is the correctness backstop).
        let mut repairs = std::mem::take(&mut self.pending_repairs);
        let mut resend: Vec<(u16, u32, u64)> = Vec::new();
        repairs.retain_mut(|p| {
            if now_us < p.next_at_us {
                return true;
            }
            if p.retries >= RECOVERY_MAX_RETRIES {
                self.recovery_abandoned += 1;
                return false;
            }
            p.retries += 1;
            let delay = backoff_us(p.retries);
            p.next_at_us = now_us + delay;
            resend.push((p.shard, p.id, delay));
            true
        });
        self.pending_repairs = repairs;
        for (shard, id, delay) in resend {
            self.recovery_retries += 1;
            if let Some(msg) = self.build_control_msg(MSG_RECOVER, shard, id) {
                ctx.forward(msg);
            }
            self.telemetry.event(
                Event::new(EventKind::RecoveryRequest)
                    .at_us(now_us)
                    .details(u64::from(id), 1),
            );
            ctx.set_timer(SimDuration::from_micros(delay), RECOVERY_TIMER_TOKEN);
        }
    }
}

impl core::fmt::Debug for DecoderGateway {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DecoderGateway")
            .field("decode_dsts", &self.decode_dsts)
            .field("shards", &self.decoder.shard_count())
            .field("dropped", &self.dropped)
            .field("decoder", &self.decoder)
            .finish_non_exhaustive()
    }
}
