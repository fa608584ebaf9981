//! Byte caching gateways: simulator middlebox nodes around one
//! [`Encoder`] or one [`Decoder`].
//!
//! This is the paper's deployment (Figure 1/Figure 3): two appliances on
//! the path intercept IP packets, the upstream one encodes payloads
//! travelling toward the client, the downstream one reconstructs them.
//! TCP endpoints never learn the gateways exist — unless a packet
//! becomes undecodable, in which case the decoder drops it and TCP sees
//! loss. Each gateway owns one engine, so every flow it serves shares
//! one cache and repeated content is eliminated between flows too.
//!
//! Inside the discrete-event simulator a gateway processes one packet
//! per event ([`Node::on_packet`]). For trace-driven workloads outside
//! the event loop, [`process_batch`](EncoderGateway::process_batch) runs
//! the same per-packet path over a batch, in input order.
//!
//! NACK control packets (informed marking) carry 6-byte records —
//! `reserved u16 BE, shim id u32 BE`. The decoder gateway writes the
//! reserved field as 0; the encoder gateway ignores a record whose
//! reserved field is nonzero (it neither marks the id dead nor counts
//! the record malformed).
//!
//! The same control channel also carries the cache-divergence recovery
//! protocol (when [`DecoderGateway::with_recovery`] enables it):
//! 8-byte structured messages opening with [`CONTROL_MSG_MAGIC`] —
//! a resync request (the decoder was wiped; flush and bump the wire
//! generation) or a recovery request (re-emit one diverged cache entry
//! raw and tombstone it). They carry the same reserved field, with the
//! same rule. A NACK record opens with the reserved field's high byte,
//! which is zero, so the two framings cannot collide.

use std::collections::HashSet;
use std::net::Ipv4Addr;

use bytecache_netsim::time::SimDuration;
use bytecache_netsim::{Context, Node};
use bytecache_packet::{FlowId, Packet, TcpFlags};
use bytecache_telemetry::{Event, EventKind, Recorder};

use crate::decoder::{Decoder, Feedback};
use crate::encoder::Encoder;
use crate::migrate::{DecoderState, MigrateError};
use crate::policy::PacketMeta;
use crate::stats::{DecoderStats, EncoderStats};
use crate::store::FlowState;

/// TCP port used by gateway-to-gateway NACK control packets.
pub const CONTROL_PORT: u16 = 7777;

/// First byte of structured (resync / recovery) control messages.
pub const CONTROL_MSG_MAGIC: u8 = 0xBD;

/// Bytes per structured control message: magic u8, kind u8,
/// reserved u16 BE (0), value u32 BE.
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

/// Bytes per NACK record on the control channel: reserved (u16, 0) +
/// shim id (u32), both big-endian.
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
    encoder: Encoder,
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
    /// default like the encoder's recorder.
    telemetry: Recorder,
}

impl EncoderGateway {
    /// New encoder gateway compressing traffic addressed to `encode_dst`.
    #[must_use]
    pub fn new(encoder: Encoder, encode_dst: Ipv4Addr) -> Self {
        Self::for_destinations(encoder, [encode_dst])
    }

    /// Compress traffic addressed to any of `dsts` (multi-client
    /// deployments; the cache and fingerprint table are shared across
    /// the flows, so repeated content is eliminated *between* flows too).
    #[must_use]
    pub fn for_destinations(encoder: Encoder, dsts: impl IntoIterator<Item = Ipv4Addr>) -> Self {
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

    /// Emit generation-stamped (version-2) shim headers (builder style).
    /// Required for the divergence-recovery protocol; off by default so
    /// the version-1 wire stays the live baseline.
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
    #[must_use]
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// A copy of the encoder's counters.
    #[must_use]
    pub fn stats(&self) -> EncoderStats {
        self.encoder.stats().clone()
    }

    /// NACK control packets processed.
    #[must_use]
    pub fn nacks_received(&self) -> u64 {
        self.nacks_received
    }

    /// Control payloads rejected or truncated: a structured message of
    /// the wrong length or an unknown kind, or NACK records with a
    /// truncated tail.
    #[must_use]
    pub fn nacks_malformed(&self) -> u64 {
        self.nacks_malformed
    }

    /// Repair packets synthesized in answer to recovery requests.
    #[must_use]
    pub fn repairs_sent(&self) -> u64 {
        self.repairs_sent
    }

    /// Enable or disable telemetry on the encoder and the gateway's own
    /// recorder.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        self.encoder.set_telemetry_enabled(enabled);
        self.telemetry.set_enabled(enabled);
    }

    /// Merged telemetry snapshot: the encoder's snapshot plus
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

    /// Parse one control payload. The framing rules:
    ///
    /// * A payload whose first byte is [`CONTROL_MSG_MAGIC`] is a
    ///   structured message. One that is not exactly
    ///   [`CONTROL_MSG_LEN`] bytes long, or whose kind byte is neither
    ///   resync nor recover, counts one malformed payload and does
    ///   nothing else.
    /// * Any other payload is a sequence of 6-byte NACK records. One
    ///   that holds at least one whole record counts one NACK received.
    ///   A truncated trailing record counts one malformed payload,
    ///   while the whole records before it are still honored — better a
    ///   few extra dead entries than ignoring real loss reports.
    /// * A record or message whose reserved field is nonzero is ignored
    ///   and is not counted malformed.
    ///
    /// A recovery request may synthesize a repair packet, which the
    /// caller forwards toward the decoder.
    fn handle_control(&mut self, packet: &Packet) -> Option<Packet> {
        let payload = &packet.payload;
        if payload.first() == Some(&CONTROL_MSG_MAGIC) {
            if payload.len() != CONTROL_MSG_LEN {
                self.note_malformed(payload.len(), payload.len());
                return None;
            }
            let reserved = u16::from_be_bytes([payload[2], payload[3]]);
            let value = u32::from_be_bytes([payload[4], payload[5], payload[6], payload[7]]);
            return match payload[1] {
                MSG_RESYNC | MSG_RECOVER if reserved != 0 => None,
                MSG_RESYNC => {
                    self.encoder.resync(value);
                    None
                }
                MSG_RECOVER => self.build_repair_packet(value),
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
            if record[..2] == [0, 0] {
                let id = u32::from_be_bytes([record[2], record[3], record[4], record[5]]);
                self.encoder.handle_nack(&[id]);
            }
        }
        None
    }

    fn note_malformed(&mut self, len: usize, rejected: usize) {
        self.nacks_malformed += 1;
        self.telemetry
            .event(Event::new(EventKind::ControlMalformed).details(len as u64, rejected as u64));
    }

    /// Answer a recovery request: have the encoder re-emit the entry as
    /// a raw shim under its original id, and wrap it in a TCP packet
    /// that retraces the original data path (same flow tuple, same
    /// sequence number — the client's reassembly dedups it if the
    /// original data already arrived another way).
    fn build_repair_packet(&mut self, id: u32) -> Option<Packet> {
        let (flow, seq, wire) = self.encoder.repair(id)?;
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

    /// Handle one arriving packet and return what the gateway sends on.
    /// A control packet is consumed, answered at most by a repair
    /// packet. A data packet toward a served destination leaves encoded.
    /// Anything else passes through untouched, and reverse traffic from
    /// a served destination is shown to the policy first.
    fn receive(&mut self, packet: Packet) -> Option<Packet> {
        if self.is_control(&packet) {
            return self.handle_control(&packet);
        }
        if self.should_encode(&packet) {
            // The encoder's output buffer becomes the packet's shared
            // payload handle; the same allocation rides the channel, the
            // decoder, and any retransmit queue untouched.
            let outcome = self.encoder.encode(&packet_meta(&packet), &packet.payload);
            return Some(packet.with_payload(outcome.wire));
        }
        if self.encode_dsts.contains(&packet.ip.src) {
            self.encoder.observe_reverse(&packet);
        }
        Some(packet)
    }

    /// Process a trace-level batch outside the event loop: each packet
    /// in input order, exactly as [`Node::on_packet`] would, returning
    /// what the gateway sends on in the same order.
    pub fn process_batch(&mut self, packets: Vec<Packet>) -> Vec<Packet> {
        packets
            .into_iter()
            .filter_map(|packet| self.receive(packet))
            .collect()
    }
}

impl Node for EncoderGateway {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        if let Some(out) = self.receive(packet) {
            ctx.forward(out);
        }
    }
}

impl core::fmt::Debug for EncoderGateway {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EncoderGateway")
            .field("encode_dsts", &self.encode_dsts)
            .field("encoder", &self.encoder)
            .finish_non_exhaustive()
    }
}

/// Decoder-side middlebox: reconstructs payloads of packets addressed to
/// `decode_dst`; undecodable packets are dropped (TCP perceives loss).
/// Optionally reports lost/undecodable shim ids back to the encoder
/// gateway (informed marking, after Lumezanu et al.).
pub struct DecoderGateway {
    decoder: Decoder,
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
    /// The outstanding resync request, if any.
    pending_resync: Option<PendingResync>,
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
    id: u32,
    flow: FlowId,
    retries: u32,
    /// Absolute retry deadline in simulated microseconds.
    next_at_us: u64,
}

/// One outstanding post-wipe resync request.
#[derive(Debug, Clone, Copy)]
struct PendingResync {
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
        Self::for_destinations(decoder, [decode_dst], local_addr)
    }

    /// Reconstruct traffic addressed to any of `dsts` (the reciprocal of
    /// [`EncoderGateway::for_destinations`]).
    #[must_use]
    pub fn for_destinations(
        decoder: Decoder,
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
            pending_resync: None,
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
    /// abandoned after a bounded number of tries); after a cache
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

    /// Simulated decoder restart: wipe the cache and all
    /// synchronization state, and drop any outstanding repair requests
    /// (their entries died with the cache; the resync supersedes them).
    pub fn wipe_cache(&mut self) {
        self.decoder.wipe();
        self.pending_repairs.clear();
        self.pending_resync = None;
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
            self.pending_resync = None;
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
    #[must_use]
    pub fn export_decoder_state(&self, max_bytes: Option<usize>) -> DecoderState {
        self.decoder.export_state(max_bytes)
    }

    /// Warm-start this gateway's decoder from an exported snapshot (the
    /// receiving side of a handoff migration; see
    /// [`Decoder::import_state`]). Outstanding repair/resync requests
    /// are dropped — the imported synchronization state supersedes them
    /// — and the transfer size plus carried-over generation are counted
    /// and recorded as a telemetry [`EventKind::CacheMigrate`] event.
    pub fn import_decoder_state(&mut self, state: DecoderState) {
        let bytes = state.wire_len() as u64;
        let carry = state.sync_gen;
        self.migrations += 1;
        self.migration_bytes += bytes;
        self.last_carry_gen = carry;
        self.pending_repairs.clear();
        self.pending_resync = None;
        self.telemetry.event(
            Event::new(EventKind::CacheMigrate).details(bytes, carry.map_or(u64::MAX, u64::from)),
        );
        self.decoder.import_state(state);
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
    pub fn import_decoder_blob(&mut self, buf: &[u8]) -> Result<(), MigrateError> {
        let state = DecoderState::from_bytes(buf)?;
        self.import_decoder_state(state);
        Ok(())
    }

    /// Borrow the wrapped decoder (stats, cache inspection).
    #[must_use]
    pub fn decoder(&self) -> &Decoder {
        &self.decoder
    }

    /// A copy of the decoder's counters.
    #[must_use]
    pub fn stats(&self) -> DecoderStats {
        self.decoder.stats().clone()
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

    /// Enable or disable telemetry on the decoder and the gateway's own
    /// recorder.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        self.decoder.set_telemetry_enabled(enabled);
        self.telemetry.set_enabled(enabled);
    }

    /// Merged telemetry snapshot: the decoder's snapshot plus
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
    fn build_control_msg(&mut self, kind: u8, value: u32) -> Option<Packet> {
        let (addr, port) = self.nack_target?;
        let mut payload = Vec::with_capacity(CONTROL_MSG_LEN);
        payload.extend_from_slice(&[CONTROL_MSG_MAGIC, kind, 0, 0]);
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
    fn update_recovery(&mut self, flow: FlowId, feedback: &Feedback, ctx: &mut Context<'_>) {
        if !self.recovery {
            return;
        }
        let now_us = ctx.now().as_micros();
        if let Some(id) = feedback.decoded_id {
            self.pending_repairs.retain(|p| p.id != id);
        }
        match feedback.resync_gen {
            Some(gen) => {
                if self.pending_resync.is_none() {
                    if let Some(msg) = self.build_control_msg(MSG_RESYNC, gen) {
                        ctx.forward(msg);
                        self.resyncs_sent += 1;
                        self.telemetry.event(
                            Event::new(EventKind::Resync)
                                .at_us(now_us)
                                .details(u64::from(gen), 0),
                        );
                        self.pending_resync = Some(PendingResync {
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
                // The decoder no longer asks for a resync: if it also
                // reports converged, retire the pending request.
                if !self.decoder.needs_resync() {
                    self.pending_resync = None;
                }
            }
        }
        if let Some(id) = feedback.failed_id {
            let exists = self.pending_repairs.iter().any(|p| p.id == id);
            let flow_load = self
                .pending_repairs
                .iter()
                .filter(|p| p.flow == flow)
                .count();
            if !exists
                && flow_load < RECOVERY_MAX_PER_FLOW
                && self.pending_repairs.len() < RECOVERY_MAX_PENDING
            {
                if let Some(msg) = self.build_control_msg(MSG_RECOVER, id) {
                    ctx.forward(msg);
                    self.recovery_requests += 1;
                    self.telemetry.event(
                        Event::new(EventKind::RecoveryRequest)
                            .at_us(now_us)
                            .flow(flow.stable_hash())
                            .details(u64::from(id), 0),
                    );
                    self.pending_repairs.push(PendingRepair {
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

    fn build_feedback_packet(&mut self, feedback: &Feedback) -> Option<Packet> {
        let (addr, port) = self.nack_target?;
        if feedback.nack_ids.is_empty() {
            return None;
        }
        let mut payload = Vec::with_capacity(feedback.nack_ids.len() * NACK_RECORD_LEN);
        for id in &feedback.nack_ids {
            payload.extend_from_slice(&[0, 0]);
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

    /// Handle one arriving packet. A packet that is not ours to decode
    /// passes through untouched. Otherwise the decoder runs; an
    /// undecodable packet is dropped (counted in
    /// [`dropped`](Self::dropped)) and upstream TCP will retransmit it.
    fn receive(&mut self, packet: Packet) -> Received {
        if !self.should_decode(&packet) {
            return Received {
                nack: None,
                feedback: None,
                out: Some(packet),
            };
        }
        let meta = packet_meta(&packet);
        // Zero-copy: raw bodies and literal regions come back as slices
        // of the arriving packet's buffer.
        let (result, feedback) = self.decoder.decode_shared(&packet.payload, &meta);
        let nack = self.build_feedback_packet(&feedback);
        let out = match result {
            Ok(original) => Some(packet.with_payload(original)),
            Err(_) => {
                self.dropped += 1;
                None
            }
        };
        Received {
            nack,
            feedback: Some((meta.flow, feedback)),
            out,
        }
    }

    /// Process a trace-level batch outside the event loop: each packet
    /// in input order, exactly as [`Node::on_packet`] would, except that
    /// the recovery protocol does not run. What the gateway sends on
    /// comes back in order, each NACK control packet just before the
    /// packet whose decode produced it.
    pub fn process_batch(&mut self, packets: Vec<Packet>) -> Vec<Packet> {
        let mut sent = Vec::with_capacity(packets.len());
        for packet in packets {
            let received = self.receive(packet);
            sent.extend(received.nack);
            sent.extend(received.out);
        }
        sent
    }
}

/// What [`DecoderGateway::receive`] made of one packet, in the order
/// it is sent on: the NACK first, then whatever the recovery protocol
/// does with the feedback, then the packet itself.
struct Received {
    /// NACK control packet for the encoder gateway (informed marking).
    nack: Option<Packet>,
    /// The decoded packet's flow and the decoder's feedback; `None`
    /// when the packet was not decoded.
    feedback: Option<(FlowId, Feedback)>,
    /// The reconstructed or passed-through packet; `None` when dropped.
    out: Option<Packet>,
}

impl Node for DecoderGateway {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        let received = self.receive(packet);
        if let Some(nack) = received.nack {
            ctx.forward(nack);
        }
        if let Some((flow, feedback)) = &received.feedback {
            self.update_recovery(*flow, feedback, ctx);
        }
        if let Some(out) = received.out {
            ctx.forward(out);
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
        if !self.decoder.needs_resync() {
            self.pending_resync = None;
        }
        if let Some(mut r) = self.pending_resync.take() {
            if now_us >= r.next_at_us {
                r.retries += 1;
                self.recovery_retries += 1;
                let delay = backoff_us(r.retries);
                r.next_at_us = now_us + delay;
                if let Some(msg) = self.build_control_msg(MSG_RESYNC, r.gen) {
                    ctx.forward(msg);
                }
                self.telemetry.event(
                    Event::new(EventKind::Resync)
                        .at_us(now_us)
                        .details(u64::from(r.gen), 0),
                );
                ctx.set_timer(SimDuration::from_micros(delay), RECOVERY_TIMER_TOKEN);
            }
            self.pending_resync = Some(r);
        }
        // Repair retries: exponential backoff, abandoned after the cap
        // (the entry may be gone at the encoder too; TCP's own
        // retransmission is the correctness backstop).
        let mut repairs = std::mem::take(&mut self.pending_repairs);
        let mut resend: Vec<(u32, u64)> = Vec::new();
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
            resend.push((p.id, delay));
            true
        });
        self.pending_repairs = repairs;
        for (id, delay) in resend {
            self.recovery_retries += 1;
            if let Some(msg) = self.build_control_msg(MSG_RECOVER, id) {
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
            .field("dropped", &self.dropped)
            .field("decoder", &self.decoder)
            .finish_non_exhaustive()
    }
}
