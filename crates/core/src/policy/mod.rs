//! Encoding policies: when may a repeated region be encoded?
//!
//! Section IV of the paper shows the classic (naive) encoder violates
//! correctness under loss: a TCP retransmission may be encoded against a
//! *succeeding* packet or against itself, creating circular dependencies
//! the decoder can never resolve. Section V proposes three remedies, all
//! of which are restrictions on *which cache entries a packet may be
//! encoded against* (possibly plus a cache flush). This module captures
//! that design space as the [`Policy`] trait:
//!
//! | Policy | Paper | Rule |
//! |---|---|---|
//! | [`Naive`] | §III (Spring & Wetherall) | anything goes — exhibits the stall |
//! | [`CacheFlush`] | §V-A | flush the cache when a TCP sequence number decreases |
//! | [`TcpSeq`] | §V-B | only encode against entries with strictly smaller TCP sequence numbers |
//! | [`KDistance`] | §V-C | every k-th packet is a raw reference; encode only against packets since the last reference |
//! | [`AckGated`] | §VIII (2nd alternative) | only encode against data the receiver has ACKed |
//! | [`Adaptive`] | §IX (future work) | k-distance with k driven by the observed retransmission rate |
//! | [`Degrading`] | §VII (operationalized) | tcp-seq matching that downshifts to pass-through when the estimated loss rate crosses a threshold, recovering when the channel heals |
//!
//! Informed marking (§VIII, after Lumezanu et al.) is not a match-time
//! rule but a feedback loop: the decoder NACKs lost packet ids and the
//! encoder marks them dead in its [`Cache`](crate::Cache); it composes
//! with any policy here (see
//! [`DecoderGateway::with_nacks`](crate::gateway::DecoderGateway::with_nacks)).

use core::fmt;

use bytecache_packet::{FlowId, Packet, SeqNum};

use crate::store::{EntryMeta, FlowState, PacketId};

mod ack_gated;
mod adaptive;
mod cache_flush;
mod k_distance;
mod naive;
mod tcp_seq;

pub use ack_gated::AckGated;
pub use adaptive::{Adaptive, Degrading};
pub use cache_flush::CacheFlush;
pub use k_distance::KDistance;
pub use naive::Naive;
pub use tcp_seq::TcpSeq;

/// What the encoder knows about the packet it is about to encode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketMeta {
    /// The packet's flow (data direction).
    pub flow: FlowId,
    /// TCP sequence number of its first payload byte.
    pub seq: SeqNum,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Index this packet will occupy within its flow at the encoder.
    pub flow_index: u64,
}

/// Per-packet directives a policy issues before encoding begins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrePacket {
    /// Flush the cache (and bump the epoch) before processing.
    pub flush: bool,
    /// Send this packet raw — it is a reference (k-distance) — but still
    /// cache it.
    pub suppress_encoding: bool,
}

/// An encoding policy. Implementations must be deterministic: the
/// encoder's behaviour must be a pure function of the packet stream.
///
/// Policies are instantiated *per engine*: each
/// [`Encoder`](crate::Encoder) owns one instance, built from a
/// [`PolicyKind`], so policy state (retransmission trackers, ACK
/// horizons, loss estimates) covers exactly the flows that engine
/// serves. The `Send` bound keeps an [`Encoder`](crate::Encoder), and
/// the gateway that owns one, `Send`: the benchmark's simulator builder
/// accepts only `Send` nodes.
pub trait Policy: fmt::Debug + Send {
    /// Short, stable name (used in reports and tables).
    fn name(&self) -> &'static str;

    /// Called once per data packet before redundancy identification.
    fn before_packet(&mut self, meta: &PacketMeta) -> PrePacket {
        let _ = meta;
        PrePacket::default()
    }

    /// May `meta`'s packet be encoded against the cached `entry`?
    fn allow_match(&self, meta: &PacketMeta, entry: &EntryMeta, entry_id: PacketId) -> bool;

    /// Observe a packet travelling in the reverse (ACK) direction.
    fn on_reverse_packet(&mut self, packet: &Packet) {
        let _ = packet;
    }

    /// Poll for a degradation state change caused by the last
    /// [`before_packet`](Self::before_packet) call: `Some(true)` when
    /// the policy just entered degraded (pass-through) mode,
    /// `Some(false)` when it just recovered, `None` otherwise. The
    /// encoder turns this into a telemetry event; most policies never
    /// transition and keep this default.
    fn poll_transition(&mut self) -> Option<bool> {
        None
    }
}

/// Serializable policy selector, for experiment configuration tables.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum PolicyKind {
    /// [`Naive`].
    Naive,
    /// [`CacheFlush`].
    CacheFlush,
    /// [`TcpSeq`].
    TcpSeq,
    /// [`KDistance`] with the given distance.
    KDistance(u64),
    /// [`AckGated`].
    AckGated,
    /// [`Adaptive`] with default tuning.
    Adaptive,
    /// [`Degrading`] with default thresholds.
    Degrading,
}

impl PolicyKind {
    /// Instantiate the policy.
    #[must_use]
    pub fn build(self) -> Box<dyn Policy> {
        match self {
            PolicyKind::Naive => Box::new(Naive::new()),
            PolicyKind::CacheFlush => Box::new(CacheFlush::new()),
            PolicyKind::TcpSeq => Box::new(TcpSeq::new()),
            PolicyKind::KDistance(k) => Box::new(KDistance::new(k)),
            PolicyKind::AckGated => Box::new(AckGated::new()),
            PolicyKind::Adaptive => Box::new(Adaptive::default()),
            PolicyKind::Degrading => Box::new(Degrading::default()),
        }
    }

    /// Stable display label.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            PolicyKind::KDistance(k) => format!("k-distance(k={k})"),
            other => other.build().name().to_string(),
        }
    }
}

/// Helper shared by policies that treat a sequence-number decrease (or
/// repeat) within a flow as a retransmission signal. Returns `true` if
/// `seq` does not advance past the highest start seen so far.
pub(crate) fn is_retransmission(
    highest: &mut std::collections::HashMap<FlowId, SeqNum, FlowState>,
    flow: FlowId,
    seq: SeqNum,
) -> bool {
    match highest.get_mut(&flow) {
        None => {
            highest.insert(flow, seq);
            false
        }
        Some(max) => {
            if max.precedes(seq) {
                *max = seq;
                false
            } else {
                true
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use std::net::Ipv4Addr;

    pub fn flow() -> FlowId {
        FlowId {
            src: Ipv4Addr::new(10, 0, 0, 1),
            src_port: 80,
            dst: Ipv4Addr::new(10, 0, 0, 2),
            dst_port: 4000,
        }
    }

    pub fn meta(seq: u32, flow_index: u64) -> PacketMeta {
        PacketMeta {
            flow: flow(),
            seq: SeqNum::new(seq),
            payload_len: 1000,
            flow_index,
        }
    }

    pub fn entry(seq: u32, flow_index: u64) -> EntryMeta {
        EntryMeta {
            flow: flow(),
            seq: SeqNum::new(seq),
            seq_end: SeqNum::new(seq + 1000),
            flow_index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::flow;
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn retransmission_detector() {
        let mut highest = HashMap::default();
        let f = flow();
        assert!(!is_retransmission(&mut highest, f, SeqNum::new(100)));
        assert!(!is_retransmission(&mut highest, f, SeqNum::new(200)));
        // Decrease: a retransmission.
        assert!(is_retransmission(&mut highest, f, SeqNum::new(100)));
        // Repeat of the highest: also a retransmission.
        assert!(is_retransmission(&mut highest, f, SeqNum::new(200)));
        // Progress resumes.
        assert!(!is_retransmission(&mut highest, f, SeqNum::new(300)));
    }

    #[test]
    fn retransmission_detector_is_per_flow() {
        let mut highest = HashMap::default();
        let f1 = flow();
        let f2 = FlowId { src_port: 81, ..f1 };
        assert!(!is_retransmission(&mut highest, f1, SeqNum::new(500)));
        // A smaller sequence number on a different flow is fine.
        assert!(!is_retransmission(&mut highest, f2, SeqNum::new(10)));
    }

    #[test]
    fn policy_kind_builds_and_labels() {
        for kind in [
            PolicyKind::Naive,
            PolicyKind::CacheFlush,
            PolicyKind::TcpSeq,
            PolicyKind::KDistance(8),
            PolicyKind::AckGated,
            PolicyKind::Adaptive,
            PolicyKind::Degrading,
        ] {
            let p = kind.build();
            assert!(!p.name().is_empty());
            assert!(!kind.label().is_empty());
        }
        assert_eq!(PolicyKind::KDistance(8).label(), "k-distance(k=8)");
    }
}
