//! Network-coded retransmission over the lossy hop (the competing
//! baseline from the network-coding literature).
//!
//! The paper's answer to wireless loss is to *eliminate less
//! redundancy* (cache flush); the network-coding line of work
//! (Kim/Médard/Barros's coded TCP model, Zhou et al.'s coded
//! retransmission) argues the opposite move: *add* coded redundancy
//! over the lossy segment so a loss is repaired in-flight, before TCP's
//! retransmission machinery ever notices. This module supplies that
//! baseline as a pair of [`Node`] middleboxes bracketing the lossy
//! link:
//!
//! * [`NcEncoderNode`] — groups the data-direction packets it forwards
//!   into blocks and, per block, emits one or two *repair* frames
//!   carrying the XOR parity of the block's (zero-padded) wire bytes.
//!   Block size adapts to an EWMA loss estimate fed back by the
//!   decoder, targeting a fixed expected number of losses per block.
//! * [`NcDecoderNode`] — remembers the wire bytes of recently forwarded
//!   data packets (keyed by content digest), substitutes them into
//!   arriving repair equations, and when exactly one block member is
//!   missing reconstructs it by XOR and forwards it — recovering the
//!   loss without an RTO. Periodically it reports (seen, lost) counts
//!   back to the encoder.
//!
//! # Wire shape
//!
//! Data packets traverse the pair *unchanged* — zero per-packet
//! overhead, and the coded baseline composes transparently with any
//! upstream middlebox. All NC control traffic rides in dedicated
//! TCP-shaped frames with both ports set to [`NC_PORT`] and a payload
//! magic, addressed to an endpoint beyond the peer so normal IP
//! routing carries them across the lossy hop (the peer consumes them).
//! Payload layouts (big-endian):
//!
//! ```text
//! repair:   magic u32 | 1u8 | block_id u32 | count u8 | mask u64 |
//!           plen u32 | (len u16, digest u64) * count | parity [plen]u8
//! feedback: magic u32 | 2u8 | seen u32 | lost u32
//! ```
//!
//! `mask` selects which block members (by index) the parity covers;
//! repair 0 always covers the whole block, an optional second repair
//! covers a deterministic pseudo-random subset so two losses in one
//! block are recoverable when the subset splits the pair. A member is
//! identified by the FNV-1a digest of its full wire bytes, and a
//! reconstructed packet must both re-hash to the advertised digest and
//! reparse with valid IP/TCP checksums before it is forwarded — a
//! mangled repair can therefore never surface as a corrupted delivery.
//!
//! # Determinism
//!
//! The pair draws nothing from any RNG: repair subsets come from a
//! splitmix64 hash of the block id, and every iteration that emits
//! packets walks ordered containers. Runs are byte-identical across
//! both `QueueKind`s like every other node.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::Ipv4Addr;

use bytecache_packet::Packet;

use crate::node::{Context, Node};
use crate::time::SimDuration;

/// Port (both source and destination) marking NC control frames.
pub const NC_PORT: u16 = 0xBCED;
/// Leading payload magic of NC control frames.
pub const NC_MAGIC: u32 = 0xBCC0_DE01;

const TYPE_REPAIR: u8 = 1;
const TYPE_FEEDBACK: u8 = 2;

/// Fixed bytes of a repair payload before the member list and parity.
const REPAIR_HEADER_LEN: usize = 4 + 1 + 4 + 1 + 8 + 4;
/// Bytes per member in a repair's member list.
const MEMBER_LEN: usize = 2 + 8;

/// FNV-1a 64-bit content digest (also used for reconstruction checks).
fn fnv1a64(buf: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in buf {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// splitmix64 — the deterministic source of repair subset masks.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tuning of the coder pair (block sizing, feedback cadence, memory).
#[derive(Debug, Clone)]
pub struct NcTuning {
    /// Warm-start loss estimate (e.g. the provisioned channel's rate);
    /// refined by decoder feedback as the run progresses.
    pub initial_loss: f64,
    /// EWMA factor applied per feedback frame.
    pub alpha: f64,
    /// Block size is chosen so `block * p̂` stays near this.
    pub target_losses_per_block: f64,
    /// Smallest block (highest repair overhead).
    pub min_block: usize,
    /// Largest block (lowest overhead; capped at 64 by the mask width).
    pub max_block: usize,
    /// Emit a second (subset) repair per block once `p̂` reaches this.
    pub extra_repair_threshold: f64,
    /// Seal a partially filled block after this long without growth.
    pub flush_timeout: SimDuration,
    /// Decoder sends a feedback frame every this many blocks.
    pub feedback_every_blocks: u32,
    /// Decoder-side memory of recent packet wire bytes (digest count).
    pub ring_capacity: usize,
    /// Decoder-side bound on blocks awaiting recovery.
    pub max_pending_blocks: usize,
}

impl Default for NcTuning {
    fn default() -> Self {
        NcTuning {
            initial_loss: 0.0,
            alpha: 0.3,
            target_losses_per_block: 0.5,
            min_block: 2,
            max_block: 32,
            extra_repair_threshold: 0.06,
            flush_timeout: SimDuration::from_millis(30),
            feedback_every_blocks: 4,
            ring_capacity: 2048,
            max_pending_blocks: 64,
        }
    }
}

impl NcTuning {
    /// Block size implied by a loss estimate.
    fn block_size(&self, p_est: f64) -> usize {
        let max = self.max_block.clamp(1, 64);
        if p_est <= f64::EPSILON {
            return max;
        }
        let b = (self.target_losses_per_block / p_est).round() as i64;
        (b.max(self.min_block.max(1) as i64) as usize).min(max)
    }

    /// Repairs per block implied by a loss estimate.
    fn repairs(&self, p_est: f64) -> u32 {
        if p_est >= self.extra_repair_threshold {
            2
        } else {
            1
        }
    }
}

/// Addressing of one coder pair (both nodes take the same config).
#[derive(Debug, Clone)]
pub struct NcConfig {
    /// Packets addressed to this IP are the protected data direction;
    /// repair frames are addressed here too so they route across the
    /// lossy hop (the decoder node consumes them short of the host).
    pub data_dst: Ipv4Addr,
    /// Feedback frames are addressed here so they route back across
    /// the reverse hop (the encoder node consumes them).
    pub feedback_dst: Ipv4Addr,
    /// Source address stamped on originated frames (trace readability).
    pub src: Ipv4Addr,
    /// Tuning knobs.
    pub tuning: NcTuning,
}

/// Counters of one [`NcEncoderNode`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NcEncoderStats {
    /// Data-direction packets protected (and forwarded unchanged).
    pub data_packets: u64,
    /// Blocks sealed (each emitted >= 1 repair).
    pub blocks_sealed: u64,
    /// Blocks sealed by the flush timer rather than by filling up.
    pub timeout_seals: u64,
    /// Repair frames emitted.
    pub repairs_sent: u64,
    /// Repair payload bytes emitted (the coding overhead on the air).
    pub repair_bytes: u64,
    /// Feedback frames consumed.
    pub feedback_frames: u64,
}

/// Does this packet ride the reserved NC port pair? The pair claims
/// those ports outright: anything carrying them is consumed by the
/// coder nodes (valid frames are processed, garbage — e.g. a frame
/// whose magic got mangled — is counted and dropped, never forwarded
/// toward the endpoints).
fn is_nc_ports(packet: &Packet) -> bool {
    packet.tcp.src_port == NC_PORT && packet.tcp.dst_port == NC_PORT
}

/// The frame type, when the payload carries the NC magic.
fn nc_frame_type(packet: &Packet) -> Option<u8> {
    if !is_nc_ports(packet) {
        return None;
    }
    let p = &packet.payload;
    if p.len() < 5 || u32::from_be_bytes([p[0], p[1], p[2], p[3]]) != NC_MAGIC {
        return None;
    }
    Some(p[4])
}

/// Subset mask for repair `r` of a `count`-member block. Repair 0 is
/// the full-block parity; later repairs cover a pseudo-random nonempty
/// subset derived from the block id alone.
fn repair_mask(block_id: u32, r: u32, count: usize) -> u64 {
    let full = if count >= 64 {
        u64::MAX
    } else {
        (1u64 << count) - 1
    };
    if r == 0 {
        return full;
    }
    let m = splitmix64((u64::from(block_id) << 8) | u64::from(r)) & full;
    if m == 0 || m == full {
        // Degenerate subsets add no information over repair 0; flip the
        // low bit to get a proper nonempty strict subset when possible.
        if count > 1 {
            full ^ 1
        } else {
            full
        }
    } else {
        m
    }
}

/// Encoder-side middlebox: groups forwarded data packets into blocks
/// and emits XOR repair frames (see the module docs).
#[derive(Debug)]
pub struct NcEncoderNode {
    cfg: NcConfig,
    p_est: f64,
    block_id: u32,
    /// Wire bytes of the current block's members, in arrival order.
    members: Vec<Vec<u8>>,
    scratch: Vec<u8>,
    stats: NcEncoderStats,
}

impl NcEncoderNode {
    /// New encoder-side coder.
    #[must_use]
    pub fn new(cfg: NcConfig) -> Self {
        let p_est = cfg.tuning.initial_loss;
        NcEncoderNode {
            cfg,
            p_est,
            block_id: 0,
            members: Vec::new(),
            scratch: Vec::new(),
            stats: NcEncoderStats::default(),
        }
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> &NcEncoderStats {
        &self.stats
    }

    /// Current loss estimate (feedback EWMA over the warm start).
    #[must_use]
    pub fn estimated_loss(&self) -> f64 {
        self.p_est
    }

    fn seal_block(&mut self, ctx: &mut Context<'_>) {
        debug_assert!(!self.members.is_empty());
        let count = self.members.len();
        let plen = self.members.iter().map(Vec::len).max().unwrap_or(0);
        let repairs = self.cfg.tuning.repairs(self.p_est);
        for r in 0..repairs {
            let mask = repair_mask(self.block_id, r, count);
            if r > 0 && mask == repair_mask(self.block_id, 0, count) {
                continue; // single-member block: subset repair is a dup
            }
            let mut payload = Vec::with_capacity(REPAIR_HEADER_LEN + count * MEMBER_LEN + plen);
            payload.extend_from_slice(&NC_MAGIC.to_be_bytes());
            payload.push(TYPE_REPAIR);
            payload.extend_from_slice(&self.block_id.to_be_bytes());
            payload.push(count as u8);
            payload.extend_from_slice(&mask.to_be_bytes());
            payload.extend_from_slice(&(plen as u32).to_be_bytes());
            for m in &self.members {
                payload.extend_from_slice(&(m.len() as u16).to_be_bytes());
                payload.extend_from_slice(&fnv1a64(m).to_be_bytes());
            }
            let parity_start = payload.len();
            payload.resize(parity_start + plen, 0);
            for (i, m) in self.members.iter().enumerate() {
                if mask & (1u64 << i) != 0 {
                    for (j, &b) in m.iter().enumerate() {
                        payload[parity_start + j] ^= b;
                    }
                }
            }
            self.stats.repairs_sent += 1;
            self.stats.repair_bytes += payload.len() as u64;
            let frame = Packet::builder()
                .src(self.cfg.src, NC_PORT)
                .dst(self.cfg.data_dst, NC_PORT)
                .seq(self.block_id)
                .payload(payload)
                .build();
            ctx.forward(frame);
        }
        self.stats.blocks_sealed += 1;
        self.block_id = self.block_id.wrapping_add(1);
        self.members.clear();
    }
}

impl Node for NcEncoderNode {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        if is_nc_ports(&packet) {
            if nc_frame_type(&packet) == Some(TYPE_FEEDBACK) && packet.payload.len() >= 13 {
                let p = &packet.payload;
                let seen = u32::from_be_bytes([p[5], p[6], p[7], p[8]]);
                let lost = u32::from_be_bytes([p[9], p[10], p[11], p[12]]);
                // More lost than seen is not a loss rate: consume the
                // frame but keep it out of the estimate.
                if seen > 0 && lost <= seen {
                    let sample = f64::from(lost) / f64::from(seen);
                    let a = self.cfg.tuning.alpha;
                    self.p_est = (1.0 - a) * self.p_est + a * sample;
                }
                self.stats.feedback_frames += 1;
            }
            return; // NC-port frames terminate here, whatever their shape
        }
        if packet.ip.dst != self.cfg.data_dst {
            ctx.forward(packet); // reverse direction: untouched
            return;
        }
        self.scratch.clear();
        packet.write_bytes(&mut self.scratch);
        self.members.push(self.scratch.clone());
        self.stats.data_packets += 1;
        ctx.forward(packet);
        if self.members.len() >= self.cfg.tuning.block_size(self.p_est) {
            self.seal_block(ctx);
        } else if self.members.len() == 1 {
            // Arm the tail flush for this block; the token is the block
            // id, so a timer outliving its block is ignored.
            ctx.set_timer(self.cfg.tuning.flush_timeout, u64::from(self.block_id));
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        if token == u64::from(self.block_id) && !self.members.is_empty() {
            self.stats.timeout_seals += 1;
            self.seal_block(ctx);
        }
    }
}

/// Counters of one [`NcDecoderNode`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NcDecoderStats {
    /// Data-direction packets forwarded (and remembered).
    pub data_packets: u64,
    /// Repair frames consumed.
    pub repair_frames: u64,
    /// Repair frames that failed structural parsing.
    pub malformed_repairs: u64,
    /// Lost packets reconstructed and forwarded.
    pub recovered: u64,
    /// Reconstructions rejected by the digest/checksum validation.
    pub recover_failed: u64,
    /// Block members missing when their first repair arrived (the loss
    /// signal reported upstream).
    pub losses_observed: u64,
    /// Members counted across accounted blocks (feedback denominator).
    pub members_seen: u64,
    /// Feedback frames emitted.
    pub feedback_sent: u64,
    /// Pending blocks dropped by the memory bound.
    pub blocks_evicted: u64,
}

/// One unresolved repair equation: XOR of the members still missing.
#[derive(Debug)]
struct Equation {
    /// Bit i set ⇔ member i not yet substituted out.
    mask_remaining: u64,
    parity: Vec<u8>,
}

/// A block with repairs received and losses not yet resolved.
#[derive(Debug)]
struct PendingBlock {
    /// (wire length, digest) per member, in encoder arrival order.
    members: Vec<(u16, u64)>,
    equations: Vec<Equation>,
}

/// Decoder-side middlebox: remembers forwarded packets, consumes
/// repair frames, reconstructs missing members (see the module docs).
#[derive(Debug)]
pub struct NcDecoderNode {
    cfg: NcConfig,
    /// digest → full wire bytes of a recently seen data packet.
    ring: HashMap<u64, Vec<u8>>,
    ring_order: VecDeque<u64>,
    /// Blocks with outstanding equations, ordered by block id.
    blocks: BTreeMap<u32, PendingBlock>,
    /// Recently resolved/abandoned block ids (ignore their late repairs).
    done: VecDeque<u32>,
    /// Feedback accumulators.
    fb_seen: u32,
    fb_lost: u32,
    fb_blocks: u32,
    scratch: Vec<u8>,
    stats: NcDecoderStats,
}

impl NcDecoderNode {
    /// New decoder-side coder.
    #[must_use]
    pub fn new(cfg: NcConfig) -> Self {
        NcDecoderNode {
            cfg,
            ring: HashMap::new(),
            ring_order: VecDeque::new(),
            blocks: BTreeMap::new(),
            done: VecDeque::new(),
            fb_seen: 0,
            fb_lost: 0,
            fb_blocks: 0,
            scratch: Vec::new(),
            stats: NcDecoderStats::default(),
        }
    }

    /// Counters.
    #[must_use]
    pub fn stats(&self) -> &NcDecoderStats {
        &self.stats
    }

    fn remember(&mut self, digest: u64, wire: Vec<u8>) {
        if self.ring.insert(digest, wire).is_none() {
            self.ring_order.push_back(digest);
            while self.ring_order.len() > self.cfg.tuning.ring_capacity {
                if let Some(old) = self.ring_order.pop_front() {
                    self.ring.remove(&old);
                }
            }
        }
    }

    fn mark_done(&mut self, block_id: u32) {
        self.done.push_back(block_id);
        while self.done.len() > 128 {
            self.done.pop_front();
        }
    }

    /// Substitute known members into every pending equation and forward
    /// whatever becomes reconstructable, to fixpoint. Any recovery makes
    /// a new digest known, so the sweep restarts until nothing moves.
    fn reduce_all(&mut self, ctx: &mut Context<'_>) {
        loop {
            let mut recovered_any = false;
            let mut resolved_blocks: Vec<u32> = Vec::new();
            let mut newly_known: Vec<(u64, Vec<u8>)> = Vec::new();
            // BTreeMap iteration keeps block order deterministic.
            let block_ids: Vec<u32> = self.blocks.keys().copied().collect();
            for bid in block_ids {
                let Some(block) = self.blocks.get_mut(&bid) else {
                    continue;
                };
                let mut eq_idx = 0;
                while eq_idx < block.equations.len() {
                    let eq = &mut block.equations[eq_idx];
                    // Substitute every member we hold bytes for.
                    let mut bit = 0;
                    while bit < block.members.len() {
                        let mask_bit = 1u64 << bit;
                        if eq.mask_remaining & mask_bit != 0 {
                            let (_, digest) = block.members[bit];
                            if let Some(wire) = self.ring.get(&digest) {
                                for (j, &b) in wire.iter().enumerate() {
                                    if j < eq.parity.len() {
                                        eq.parity[j] ^= b;
                                    }
                                }
                                eq.mask_remaining &= !mask_bit;
                            }
                        }
                        bit += 1;
                    }
                    match eq.mask_remaining.count_ones() {
                        0 => {
                            // Fully cancelled: carried no new information.
                            block.equations.swap_remove(eq_idx);
                        }
                        1 => {
                            let i = eq.mask_remaining.trailing_zeros() as usize;
                            let (len, digest) = block.members[i];
                            let wire = &eq.parity[..usize::from(len).min(eq.parity.len())];
                            // A reconstruction must re-hash to the
                            // advertised digest AND reparse with valid
                            // checksums; anything else is discarded, so
                            // a garbled repair cannot corrupt delivery.
                            if fnv1a64(wire) == digest {
                                if let Ok(packet) = Packet::from_bytes(wire) {
                                    self.stats.recovered += 1;
                                    newly_known.push((digest, wire.to_vec()));
                                    ctx.forward(packet);
                                    recovered_any = true;
                                } else {
                                    self.stats.recover_failed += 1;
                                }
                            } else {
                                self.stats.recover_failed += 1;
                            }
                            block.equations.swap_remove(eq_idx);
                        }
                        _ => eq_idx += 1,
                    }
                }
                if block.equations.is_empty() {
                    resolved_blocks.push(bid);
                }
            }
            for (digest, wire) in newly_known {
                self.remember(digest, wire);
            }
            for bid in resolved_blocks {
                self.blocks.remove(&bid);
                self.mark_done(bid);
            }
            if !recovered_any {
                return;
            }
        }
    }

    fn on_repair(&mut self, payload: &[u8], ctx: &mut Context<'_>) {
        self.stats.repair_frames += 1;
        let Some((block_id, members, equation)) = parse_repair(payload) else {
            self.stats.malformed_repairs += 1;
            return;
        };
        if self.done.contains(&block_id) {
            return; // late extra repair of an already-settled block
        }
        let known_block = self.blocks.contains_key(&block_id);
        if !known_block {
            // First repair for this block: account the loss snapshot
            // (members whose bytes never arrived) for feedback.
            let lost = members
                .iter()
                .filter(|(_, d)| !self.ring.contains_key(d))
                .count() as u32;
            self.fb_seen += members.len() as u32;
            self.fb_lost += lost;
            self.fb_blocks += 1;
            self.stats.members_seen += u64::from(members.len() as u32);
            self.stats.losses_observed += u64::from(lost);
            self.blocks.insert(
                block_id,
                PendingBlock {
                    members,
                    equations: Vec::new(),
                },
            );
            while self.blocks.len() > self.cfg.tuning.max_pending_blocks {
                // Oldest block first: its members have long fallen out
                // of the ring, recovery is no longer realistic.
                if let Some((&oldest, _)) = self.blocks.iter().next() {
                    self.blocks.remove(&oldest);
                    self.mark_done(oldest);
                    self.stats.blocks_evicted += 1;
                }
            }
        }
        if let Some(block) = self.blocks.get_mut(&block_id) {
            block.equations.push(equation);
        }
        self.reduce_all(ctx);
        if self.fb_blocks >= self.cfg.tuning.feedback_every_blocks {
            let mut payload = Vec::with_capacity(13);
            payload.extend_from_slice(&NC_MAGIC.to_be_bytes());
            payload.push(TYPE_FEEDBACK);
            payload.extend_from_slice(&self.fb_seen.to_be_bytes());
            payload.extend_from_slice(&self.fb_lost.to_be_bytes());
            let frame = Packet::builder()
                .src(self.cfg.src, NC_PORT)
                .dst(self.cfg.feedback_dst, NC_PORT)
                .payload(payload)
                .build();
            ctx.forward(frame);
            self.stats.feedback_sent += 1;
            self.fb_seen = 0;
            self.fb_lost = 0;
            self.fb_blocks = 0;
        }
    }
}

/// `(block_id, members, equation)` of a structurally valid repair.
type ParsedRepair = (u32, Vec<(u16, u64)>, Equation);

/// Structural parse of a repair payload (past magic + type).
fn parse_repair(p: &[u8]) -> Option<ParsedRepair> {
    if p.len() < REPAIR_HEADER_LEN {
        return None;
    }
    let block_id = u32::from_be_bytes([p[5], p[6], p[7], p[8]]);
    let count = usize::from(p[9]);
    let mask = u64::from_be_bytes(p[10..18].try_into().ok()?);
    let plen = u32::from_be_bytes(p[18..22].try_into().ok()?) as usize;
    if count == 0 || count > 64 {
        return None;
    }
    let full = if count >= 64 {
        u64::MAX
    } else {
        (1u64 << count) - 1
    };
    if mask == 0 || mask & !full != 0 {
        return None;
    }
    let member_end = REPAIR_HEADER_LEN + count * MEMBER_LEN;
    if p.len() != member_end + plen {
        return None;
    }
    let mut members = Vec::with_capacity(count);
    for i in 0..count {
        let off = REPAIR_HEADER_LEN + i * MEMBER_LEN;
        let len = u16::from_be_bytes([p[off], p[off + 1]]);
        let digest = u64::from_be_bytes(p[off + 2..off + 10].try_into().ok()?);
        if usize::from(len) > plen {
            return None;
        }
        members.push((len, digest));
    }
    let equation = Equation {
        mask_remaining: mask,
        parity: p[member_end..].to_vec(),
    };
    Some((block_id, members, equation))
}

impl Node for NcDecoderNode {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        if is_nc_ports(&packet) {
            match nc_frame_type(&packet) {
                Some(TYPE_REPAIR) => {
                    let payload = packet.payload.clone();
                    self.on_repair(&payload, ctx);
                }
                Some(_) => {} // feedback passing by: not ours, consume
                None => self.stats.malformed_repairs += 1,
            }
            return;
        }
        if packet.ip.dst != self.cfg.data_dst {
            ctx.forward(packet); // reverse direction: untouched
            return;
        }
        self.scratch.clear();
        packet.write_bytes(&mut self.scratch);
        let digest = fnv1a64(&self.scratch);
        let wire = std::mem::take(&mut self.scratch);
        self.remember(digest, wire);
        self.stats.data_packets += 1;
        ctx.forward(packet);
        if !self.blocks.is_empty() {
            // A late (reordered) member can complete an open equation.
            self.reduce_all(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Action;
    use crate::time::SimTime;
    use std::net::Ipv4Addr;

    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn cfg(tuning: NcTuning) -> NcConfig {
        NcConfig {
            data_dst: CLIENT,
            feedback_dst: SERVER,
            src: Ipv4Addr::new(10, 0, 3, 1),
            tuning,
        }
    }

    fn data_packet(seq: u32, fill: u8, len: usize) -> Packet {
        Packet::builder()
            .src(SERVER, 80)
            .dst(CLIENT, 40_000)
            .seq(seq)
            .payload(vec![fill; len])
            .build()
    }

    /// Drive a node callback and collect the emitted packets.
    fn deliver(node: &mut dyn Node, packet: Packet) -> Vec<Packet> {
        let mut actions = Vec::new();
        let mut ctx = Context {
            now: SimTime::from_micros(0),
            node: crate::node::NodeId(0),
            actions: &mut actions,
        };
        node.on_packet(packet, &mut ctx);
        actions
            .into_iter()
            .filter_map(|a| match a {
                Action::Forward(p) => Some(p),
                Action::Timer(..) | Action::CancelTimer(_) => None,
            })
            .collect()
    }

    fn fire_timer(node: &mut dyn Node, token: u64) -> Vec<Packet> {
        let mut actions = Vec::new();
        let mut ctx = Context {
            now: SimTime::from_micros(0),
            node: crate::node::NodeId(0),
            actions: &mut actions,
        };
        node.on_timer(token, &mut ctx);
        actions
            .into_iter()
            .filter_map(|a| match a {
                Action::Forward(p) => Some(p),
                Action::Timer(..) | Action::CancelTimer(_) => None,
            })
            .collect()
    }

    /// Fixed-size blocks, single repair, for predictable tests.
    fn fixed_tuning(block: usize) -> NcTuning {
        NcTuning {
            initial_loss: 0.01,
            min_block: block,
            max_block: block,
            extra_repair_threshold: 1.1, // never a second repair
            ..NcTuning::default()
        }
    }

    #[test]
    fn single_loss_in_a_block_is_recovered() {
        let t = fixed_tuning(4);
        let mut enc = NcEncoderNode::new(cfg(t.clone()));
        let mut dec = NcDecoderNode::new(cfg(t));
        let mut emitted: Vec<Packet> = Vec::new();
        for i in 0..4u32 {
            emitted.extend(deliver(
                &mut enc,
                data_packet(1000 + i * 100, i as u8, 40 + i as usize),
            ));
        }
        // 4 data packets + 1 repair.
        assert_eq!(emitted.len(), 5);
        assert_eq!(enc.stats().blocks_sealed, 1);
        let lost_idx = 2;
        let lost_original = emitted[lost_idx].clone();
        let mut out: Vec<Packet> = Vec::new();
        for (i, p) in emitted.into_iter().enumerate() {
            if i == lost_idx {
                continue; // the channel ate this one
            }
            out.extend(deliver(&mut dec, p));
        }
        assert_eq!(dec.stats().recovered, 1);
        assert_eq!(dec.stats().recover_failed, 0);
        // 3 surviving data packets + the reconstruction; no repair leaks.
        assert_eq!(out.len(), 4);
        let recovered = out.last().unwrap();
        assert_eq!(recovered, &lost_original);
    }

    #[test]
    fn zero_loss_costs_nothing_downstream() {
        let t = fixed_tuning(4);
        let mut enc = NcEncoderNode::new(cfg(t.clone()));
        let mut dec = NcDecoderNode::new(cfg(t));
        for i in 0..8u32 {
            for p in deliver(&mut enc, data_packet(5000 + i * 50, i as u8, 30)) {
                for q in deliver(&mut dec, p) {
                    // Everything reaching the client is a data packet,
                    // byte-identical to what the encoder saw.
                    assert_eq!(q.tcp.dst_port, 40_000);
                }
            }
        }
        assert_eq!(dec.stats().recovered, 0);
        assert_eq!(dec.stats().losses_observed, 0);
        assert_eq!(dec.stats().repair_frames, 2);
    }

    #[test]
    fn corrupted_repair_never_yields_a_corrupt_delivery() {
        let t = fixed_tuning(3);
        let mut enc = NcEncoderNode::new(cfg(t.clone()));
        let mut emitted: Vec<Packet> = Vec::new();
        for i in 0..3u32 {
            emitted.extend(deliver(&mut enc, data_packet(1000 + i * 100, i as u8, 60)));
        }
        let repair = emitted.pop().unwrap();
        assert_eq!(nc_frame_type(&repair), Some(TYPE_REPAIR));
        // Corrupt one parity byte in every possible position, replay the
        // block each time with one member lost: the decoder must never
        // forward a packet that differs from the true original.
        let lost = emitted.remove(1);
        for corrupt_at in 0..repair.payload.len() {
            let t = fixed_tuning(3);
            let mut dec = NcDecoderNode::new(cfg(t));
            let mut bad = repair.payload.to_vec();
            bad[corrupt_at] ^= 0x5A;
            let bad_repair = repair.with_payload(bad);
            let mut out: Vec<Packet> = Vec::new();
            for p in &emitted {
                out.extend(deliver(&mut dec, p.clone()));
            }
            out.extend(deliver(&mut dec, bad_repair));
            for p in out {
                assert!(
                    p == emitted[0] || p == emitted[1] || p == lost,
                    "corruption at {corrupt_at} forwarded a mangled packet"
                );
            }
        }
    }

    #[test]
    fn double_loss_with_single_repair_is_not_recovered() {
        let t = fixed_tuning(4);
        let mut enc = NcEncoderNode::new(cfg(t.clone()));
        let mut dec = NcDecoderNode::new(cfg(t));
        let mut emitted: Vec<Packet> = Vec::new();
        for i in 0..4u32 {
            emitted.extend(deliver(&mut enc, data_packet(1000 + i * 100, i as u8, 40)));
        }
        let mut out: Vec<Packet> = Vec::new();
        for (i, p) in emitted.into_iter().enumerate() {
            if i == 1 || i == 2 {
                continue; // two members lost, one equation: unsolvable
            }
            out.extend(deliver(&mut dec, p));
        }
        assert_eq!(dec.stats().recovered, 0);
        assert_eq!(dec.stats().losses_observed, 2);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn tail_block_is_sealed_by_the_flush_timer() {
        let t = fixed_tuning(8);
        let mut enc = NcEncoderNode::new(cfg(t));
        let forwarded = deliver(&mut enc, data_packet(1000, 7, 50));
        assert_eq!(forwarded.len(), 1, "no repair before the block fills");
        // The timer token is the block id the packet opened.
        let frames = fire_timer(&mut enc, 0);
        assert_eq!(frames.len(), 1);
        assert_eq!(nc_frame_type(&frames[0]), Some(TYPE_REPAIR));
        assert_eq!(enc.stats().timeout_seals, 1);
        // A stale token (block already sealed) is ignored.
        assert!(fire_timer(&mut enc, 0).is_empty());
    }

    #[test]
    fn feedback_raises_the_loss_estimate_and_shrinks_blocks() {
        let t = NcTuning {
            initial_loss: 0.0,
            feedback_every_blocks: 1,
            ..NcTuning::default()
        };
        let mut enc = NcEncoderNode::new(cfg(t.clone()));
        let mut dec = NcDecoderNode::new(cfg(t.clone()));
        assert_eq!(enc.cfg.tuning.block_size(enc.p_est), 32);
        // Transfer one full block, dropping half its members.
        let mut emitted: Vec<Packet> = Vec::new();
        for i in 0..32u32 {
            emitted.extend(deliver(&mut enc, data_packet(1000 + i * 100, i as u8, 20)));
        }
        let mut feedback: Vec<Packet> = Vec::new();
        for (i, p) in emitted.into_iter().enumerate() {
            if i % 2 == 1 && nc_frame_type(&p).is_none() {
                continue;
            }
            feedback.extend(
                deliver(&mut dec, p)
                    .into_iter()
                    .filter(|q| nc_frame_type(q) == Some(TYPE_FEEDBACK)),
            );
        }
        assert_eq!(feedback.len(), 1, "one feedback frame per block");
        let before = enc.estimated_loss();
        for f in feedback {
            assert!(deliver(&mut enc, f).is_empty(), "feedback is consumed");
        }
        assert!(enc.estimated_loss() > before + 0.1);
        assert!(enc.cfg.tuning.block_size(enc.p_est) < 8);
        assert_eq!(enc.stats().feedback_frames, 1);
    }

    #[test]
    fn feedback_claiming_more_lost_than_seen_is_ignored() {
        let mut enc = NcEncoderNode::new(cfg(NcTuning::default()));
        let mut payload = NC_MAGIC.to_be_bytes().to_vec();
        payload.push(TYPE_FEEDBACK);
        payload.extend_from_slice(&1u32.to_be_bytes()); // seen
        payload.extend_from_slice(&u32::MAX.to_be_bytes()); // lost
        let frame = Packet::builder()
            .src(CLIENT, NC_PORT)
            .dst(SERVER, NC_PORT)
            .payload(payload)
            .build();
        assert!(deliver(&mut enc, frame).is_empty(), "consumed");
        assert_eq!(enc.stats().feedback_frames, 1, "and counted");
        assert_eq!(enc.estimated_loss(), 0.0);
        assert_eq!(enc.cfg.tuning.block_size(enc.p_est), 32);
        assert_eq!(enc.cfg.tuning.repairs(enc.p_est), 1);
    }

    /// Every truncation of `payload`, then every byte XORed with 0x01,
    /// 0x80 and 0xFF, each tagged with whether it is a truncation and
    /// the offset it damaged.
    fn mutations(payload: &[u8]) -> Vec<(bool, usize, Vec<u8>)> {
        let mut out: Vec<_> = (0..payload.len())
            .map(|cut| (true, cut, payload[..cut].to_vec()))
            .collect();
        for at in 0..payload.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = payload.to_vec();
                bad[at] ^= flip;
                out.push((false, at, bad));
            }
        }
        out
    }

    #[test]
    fn hostile_repair_frames_are_rejected_whole() {
        // Two blocks of three. Block 0 reaches the decoder with two
        // members missing, so its repair stays pending; block 1 loses
        // member 0, and its repair is the frame under attack.
        let mut enc = NcEncoderNode::new(cfg(fixed_tuning(3)));
        let mut emitted: Vec<Packet> = Vec::new();
        for i in 0..6u32 {
            emitted.extend(deliver(&mut enc, data_packet(1000 + i * 100, i as u8, 40)));
        }
        assert_eq!(emitted.len(), 8);
        let repair = emitted[7].clone();
        let lost = emitted[4].clone();
        let primed = || {
            let mut dec = NcDecoderNode::new(cfg(fixed_tuning(3)));
            for i in [0, 3, 5, 6] {
                deliver(&mut dec, emitted[i].clone());
            }
            assert_eq!(dec.blocks.len(), 1, "block 0 is pending");
            dec
        };
        let state = |dec: &NcDecoderNode| {
            (
                dec.blocks
                    .iter()
                    .map(|(id, b)| (*id, b.equations.len()))
                    .collect::<Vec<_>>(),
                dec.ring_order.clone(),
                (dec.fb_seen, dec.fb_lost, dec.fb_blocks),
            )
        };

        let mut dec = primed();
        assert_eq!(deliver(&mut dec, repair.clone()), vec![lost.clone()]);

        // Offsets whose damage breaks the frame's structure: the magic,
        // the member count and the parity length.
        let structural = |at: usize| at < 4 || at == 9 || (18..22).contains(&at);
        for (truncated, at, bad) in mutations(&repair.payload) {
            let mut dec = primed();
            let before = state(&dec);
            let out = deliver(&mut dec, repair.with_payload(bad));
            let what = if truncated { "cut" } else { "flip" };
            for p in &out {
                assert_eq!(Packet::from_bytes(&p.to_bytes()).as_ref(), Ok(p));
                assert_eq!(p, &lost, "{what} at {at} forwarded a mangled packet");
            }
            let rejected = dec.stats().malformed_repairs == 1;
            if truncated || structural(at) {
                assert!(rejected, "{what} at {at} was not counted as malformed");
            }
            if rejected {
                assert!(out.is_empty(), "{what} at {at}: rejected yet forwarded");
                assert_eq!(state(&dec), before, "{what} at {at}: rejected yet kept");
            }
        }
    }

    #[test]
    fn hostile_feedback_frames_never_touch_the_open_block() {
        let t = NcTuning {
            feedback_every_blocks: 1,
            ..fixed_tuning(2)
        };
        let mut enc = NcEncoderNode::new(cfg(t.clone()));
        let mut dec = NcDecoderNode::new(cfg(t.clone()));
        let mut feedback = Vec::new();
        for i in 0..2u32 {
            for p in deliver(&mut enc, data_packet(1000 + i * 100, i as u8, 40)) {
                feedback.extend(deliver(&mut dec, p));
            }
        }
        let feedback: Vec<Packet> = feedback
            .into_iter()
            .filter(|p| nc_frame_type(p) == Some(TYPE_FEEDBACK))
            .collect();
        assert_eq!(feedback.len(), 1);
        let frame = &feedback[0];

        for (truncated, at, bad) in mutations(&frame.payload) {
            let mut enc = NcEncoderNode::new(cfg(t.clone()));
            deliver(&mut enc, data_packet(5000, 9, 40)); // opens block 0
            let out = deliver(&mut enc, frame.with_payload(bad));
            assert!(out.is_empty(), "NC-port frames terminate at the coder");
            assert_eq!((enc.block_id, enc.members.len()), (0, 1));
            if truncated || at < 5 {
                // Too short, wrong magic or wrong type: not feedback.
                assert_eq!(enc.stats().feedback_frames, 0);
                assert_eq!(enc.estimated_loss(), t.initial_loss);
            }
        }
    }

    #[test]
    fn reverse_traffic_passes_both_nodes_untouched() {
        let t = NcTuning::default();
        let mut enc = NcEncoderNode::new(cfg(t.clone()));
        let mut dec = NcDecoderNode::new(cfg(t));
        let ack = Packet::builder()
            .src(CLIENT, 40_000)
            .dst(SERVER, 80)
            .seq(1)
            .ack_num(4000)
            .payload(Vec::new())
            .build();
        let via_dec = deliver(&mut dec, ack.clone());
        assert_eq!(via_dec, vec![ack.clone()]);
        let via_enc = deliver(&mut enc, ack.clone());
        assert_eq!(via_enc, vec![ack]);
        assert_eq!(enc.stats().data_packets, 0);
        assert_eq!(dec.stats().data_packets, 0);
    }

    #[test]
    fn late_member_completes_an_open_equation() {
        // Repair arrives BEFORE a reordered member: once the member
        // shows up, the pending equation resolves the remaining loss.
        let t = fixed_tuning(3);
        let mut enc = NcEncoderNode::new(cfg(t.clone()));
        let mut dec = NcDecoderNode::new(cfg(t));
        let mut emitted: Vec<Packet> = Vec::new();
        for i in 0..3u32 {
            emitted.extend(deliver(&mut enc, data_packet(1000 + i * 100, i as u8, 40)));
        }
        let repair = emitted.pop().unwrap();
        let lost_original = emitted[0].clone();
        // Member 0 lost, member 1 delivered, repair, then member 2 late.
        let mut out = deliver(&mut dec, emitted[1].clone());
        out.extend(deliver(&mut dec, repair));
        assert_eq!(dec.stats().recovered, 0, "two unknowns: must wait");
        out.extend(deliver(&mut dec, emitted[2].clone()));
        assert_eq!(dec.stats().recovered, 1);
        assert!(out.contains(&lost_original));
    }

    #[test]
    fn mask_derivation_is_deterministic_and_in_range() {
        for count in 1..=64usize {
            let full = if count >= 64 {
                u64::MAX
            } else {
                (1u64 << count) - 1
            };
            for bid in [0u32, 1, 77, u32::MAX] {
                assert_eq!(repair_mask(bid, 0, count), full);
                let m = repair_mask(bid, 1, count);
                assert_eq!(m, repair_mask(bid, 1, count));
                assert!(m != 0 && m & !full == 0);
            }
        }
    }
}
