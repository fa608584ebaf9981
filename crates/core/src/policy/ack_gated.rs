//! ACK-gated encoding (paper §VIII, second suggested alternative).

use std::collections::HashMap;

use bytecache_packet::{FlowId, Packet, SeqNum, TcpFlags};

use crate::policy::{PacketMeta, Policy};
use crate::store::{EntryMeta, FlowState, PacketId};

/// Only encode against data the receiver has cumulatively ACKed.
///
/// The encoder gateway feeds reverse-direction packets to
/// [`on_reverse_packet`](Policy::on_reverse_packet); the policy tracks
/// the highest cumulative acknowledgment per flow and admits a cache
/// entry as a match source only when its last byte is covered. An ACKed
/// byte was delivered to the *client TCP*, which (with the decoder on
/// the client side of the lossy segment, as in the paper's Figure 3
/// setup) implies the decoder holds the packet — so the match is safe.
///
/// The paper notes the residual risk of this family of schemes: loss of
/// acknowledgment packets delays (never corrupts) eligibility, and the
/// scheme cannot start compressing until the first ACKs flow back —
/// roughly one RTT of lost opportunity per window.
///
/// A [`ShardedEncoder`](crate::ShardedEncoder) routes each reverse
/// packet to the shard of the data-direction flow it acknowledges, so
/// per-shard instances each see exactly the ACKs for their own flows.
#[derive(Debug, Default)]
pub struct AckGated {
    /// Highest cumulative ACK seen, keyed by the *data-direction* flow.
    acked: HashMap<FlowId, SeqNum, FlowState>,
}

impl AckGated {
    /// New ACK-gated policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Highest cumulative ACK observed for a data-direction flow.
    #[must_use]
    pub fn acked_up_to(&self, flow: &FlowId) -> Option<SeqNum> {
        self.acked.get(flow).copied()
    }
}

impl Policy for AckGated {
    fn name(&self) -> &'static str {
        "ack-gated"
    }

    fn allow_match(&self, meta: &PacketMeta, entry: &EntryMeta, _id: PacketId) -> bool {
        if entry.flow != meta.flow {
            return false;
        }
        match self.acked.get(&meta.flow) {
            Some(&ack) => entry.seq_end.precedes_eq(ack),
            None => false,
        }
    }

    fn on_reverse_packet(&mut self, packet: &Packet) {
        if !packet.tcp.flags.contains(TcpFlags::ACK) {
            return;
        }
        // The reverse packet's flow, reversed, is the data-direction flow.
        let data_flow = packet.flow().reversed();
        let ack = packet.tcp.ack;
        self.acked
            .entry(data_flow)
            .and_modify(|cur| *cur = cur.max(ack))
            .or_insert(ack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::{entry, flow, meta};
    use std::net::Ipv4Addr;

    fn reverse_ack(ack: u32) -> Packet {
        let f = flow(); // data direction: server -> client
        Packet::builder()
            .src(f.dst, f.dst_port)
            .dst(f.src, f.src_port)
            .ack_num(ack)
            .build()
    }

    #[test]
    fn nothing_allowed_before_any_ack() {
        let p = AckGated::new();
        assert!(!p.allow_match(&meta(5000, 1), &entry(1000, 0), PacketId(0)));
    }

    #[test]
    fn acked_prefix_becomes_eligible() {
        let mut p = AckGated::new();
        p.on_reverse_packet(&reverse_ack(3000));
        let m = meta(5000, 3);
        // entry(1000) spans 1000..2000: fully ACKed.
        assert!(p.allow_match(&m, &entry(1000, 0), PacketId(0)));
        // entry(2500) spans 2500..3500: tail not yet ACKed.
        assert!(!p.allow_match(&m, &entry(2500, 1), PacketId(1)));
        assert_eq!(
            p.acked_up_to(&flow()),
            Some(bytecache_packet::SeqNum::new(3000))
        );
    }

    #[test]
    fn acks_only_move_forward() {
        let mut p = AckGated::new();
        p.on_reverse_packet(&reverse_ack(3000));
        p.on_reverse_packet(&reverse_ack(2000)); // stale/duplicate ACK
        assert_eq!(
            p.acked_up_to(&flow()),
            Some(bytecache_packet::SeqNum::new(3000))
        );
    }

    #[test]
    fn non_ack_reverse_packets_are_ignored() {
        let mut p = AckGated::new();
        let f = flow();
        let syn = Packet::builder()
            .src(f.dst, f.dst_port)
            .dst(f.src, f.src_port)
            .flags(bytecache_packet::TcpFlags::SYN)
            .build();
        p.on_reverse_packet(&syn);
        assert_eq!(p.acked_up_to(&f), None);
    }

    #[test]
    fn cross_flow_refused() {
        let mut p = AckGated::new();
        p.on_reverse_packet(&reverse_ack(1_000_000));
        let other = EntryMeta {
            flow: bytecache_packet::FlowId {
                src: Ipv4Addr::new(9, 9, 9, 9),
                ..flow()
            },
            ..entry(0, 0)
        };
        assert!(!p.allow_match(&meta(500, 1), &other, PacketId(0)));
    }
}
