//! k-distance encoding (paper §V-C, Figure 9).

use std::collections::{HashMap, VecDeque};

use bytecache_packet::FlowId;

use crate::policy::{PacketMeta, Policy, PrePacket};
use crate::store::{EntryMeta, FlowState, PacketId};

/// Default bound on flows with a tracked reference. Far above any
/// experiment's flow count (so behavior there is unchanged), but a
/// long-lived gateway over millions of flows no longer leaks one map
/// entry per flow forever.
pub const DEFAULT_MAX_TRACKED_FLOWS: usize = 65_536;

/// MPEG-inspired reference scheme: every k-th packet of a flow is sent
/// raw (a *reference*), and the following k−1 packets may be encoded
/// only against the reference and the packets after it.
///
/// This bounds the damage of any single loss to at most k packets —
/// the paper's answer to the "whole window already in flight" problem
/// (Figure 8) — at the cost of forgoing matches against older history.
/// The paper finds k ≈ 8 a reasonable byte-savings/delay trade-off
/// (Figure 12, Table II).
///
/// Reference spacing is tracked per flow, and flows never migrate
/// between shards of a [`ShardedEncoder`](crate::ShardedEncoder), so
/// each shard's instance sees every packet of its flows — the k-spacing
/// guarantee is unaffected by sharding.
#[derive(Debug, Clone)]
pub struct KDistance {
    k: u64,
    max_flows: usize,
    last_reference: HashMap<FlowId, u64, FlowState>,
    /// Flows in first-reference order; evicting its front when the map
    /// overflows is deterministic, unlike iterating the `HashMap`.
    insertion_order: VecDeque<FlowId>,
}

impl KDistance {
    /// New k-distance policy.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`; `k = 1` degenerates to "never encode".
    #[must_use]
    pub fn new(k: u64) -> Self {
        assert!(k > 0, "k must be positive");
        KDistance {
            k,
            max_flows: DEFAULT_MAX_TRACKED_FLOWS,
            last_reference: HashMap::default(),
            insertion_order: VecDeque::new(),
        }
    }

    /// Bound the per-flow reference map to `max_flows` entries, evicting
    /// the longest-tracked flow first (builder style). An evicted flow's
    /// next packets refuse matches until its next reference — safe, just
    /// briefly conservative.
    ///
    /// # Panics
    ///
    /// Panics if `max_flows == 0`.
    #[must_use]
    pub fn with_max_flows(mut self, max_flows: usize) -> Self {
        assert!(max_flows > 0, "max_flows must be positive");
        self.max_flows = max_flows;
        self
    }

    /// The configured distance.
    #[must_use]
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Flows currently holding a tracked reference (bounded by
    /// [`with_max_flows`](Self::with_max_flows)).
    #[must_use]
    pub fn tracked_flows(&self) -> usize {
        self.last_reference.len()
    }

    /// Record `index` as `flow`'s latest reference, evicting the
    /// longest-tracked flow if the map would exceed its bound.
    fn note_reference(&mut self, flow: FlowId, index: u64) {
        if self.last_reference.insert(flow, index).is_none() {
            self.insertion_order.push_back(flow);
            while self.last_reference.len() > self.max_flows {
                if let Some(oldest) = self.insertion_order.pop_front() {
                    self.last_reference.remove(&oldest);
                } else {
                    break;
                }
            }
        }
    }
}

impl Policy for KDistance {
    fn name(&self) -> &'static str {
        "k-distance"
    }

    fn before_packet(&mut self, meta: &PacketMeta) -> PrePacket {
        if meta.flow_index.is_multiple_of(self.k) {
            self.note_reference(meta.flow, meta.flow_index);
            PrePacket {
                flush: false,
                suppress_encoding: true,
            }
        } else {
            PrePacket::default()
        }
    }

    fn allow_match(&self, meta: &PacketMeta, entry: &EntryMeta, _id: PacketId) -> bool {
        if entry.flow != meta.flow {
            return false;
        }
        // "…can be encoded using the immediately preceding reference,
        // and any of the *previous* packets until that reference"
        // (paper §V-C): the source must lie in the current group AND
        // strictly precede this packet in the byte stream. The latter
        // stops a retransmission from being encoded against its own
        // earlier (lost) copy while the group is stalled.
        if !entry.seq.precedes(meta.seq) {
            return false;
        }
        match self.last_reference.get(&meta.flow) {
            Some(&reference) => entry.flow_index >= reference,
            // No reference seen yet for this flow: refuse, a decoder
            // could not be assumed to share any earlier state.
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::{entry, meta};

    #[test]
    fn every_kth_packet_is_a_reference() {
        let mut p = KDistance::new(4);
        let refs: Vec<bool> = (0..10u64)
            .map(|i| p.before_packet(&meta(1000 + i as u32, i)).suppress_encoding)
            .collect();
        assert_eq!(
            refs,
            vec![true, false, false, false, true, false, false, false, true, false]
        );
    }

    #[test]
    fn matches_limited_to_current_group() {
        let mut p = KDistance::new(4);
        for i in 0..6u64 {
            p.before_packet(&meta(1000 + i as u32, i));
        }
        // Last reference was index 4; packet 6 may match 4 and 5 only.
        let m = meta(1006, 6);
        assert!(p.allow_match(&m, &entry(1004, 4), PacketId(4)));
        assert!(p.allow_match(&m, &entry(1005, 5), PacketId(5)));
        assert!(!p.allow_match(&m, &entry(1003, 3), PacketId(3)));
        assert!(!p.allow_match(&m, &entry(1000, 0), PacketId(0)));
    }

    #[test]
    fn figure_9_shape() {
        // Paper Figure 9: with references at k and 2k, packet k+2 can be
        // encoded using only k+1 and k.
        let k = 5u64;
        let mut p = KDistance::new(k);
        for i in 0..=(k + 2) {
            p.before_packet(&meta(1000 + i as u32, i));
        }
        let m = meta((1000 + k + 2) as u32, k + 2);
        assert!(p.allow_match(&m, &entry((1000 + k) as u32, k), PacketId(k)));
        assert!(p.allow_match(&m, &entry((1000 + k + 1) as u32, k + 1), PacketId(k + 1)));
        assert!(!p.allow_match(&m, &entry((1000 + k - 1) as u32, k - 1), PacketId(k - 1)));
    }

    #[test]
    fn k_one_never_encodes() {
        let mut p = KDistance::new(1);
        for i in 0..5u64 {
            assert!(p.before_packet(&meta(1000 + i as u32, i)).suppress_encoding);
        }
    }

    #[test]
    fn refuses_without_a_reference() {
        let p = KDistance::new(4);
        assert!(!p.allow_match(&meta(1001, 1), &entry(1000, 0), PacketId(0)));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let _ = KDistance::new(0);
    }

    #[test]
    fn flow_map_is_bounded_and_evicts_oldest_first() {
        use bytecache_packet::{FlowId, SeqNum};
        let mk_flow = |port: u16| FlowId {
            src_port: port,
            ..crate::policy::test_util::flow()
        };
        let mk_meta = |port: u16, index: u64| PacketMeta {
            flow: mk_flow(port),
            ..meta(1000, index)
        };
        let mut p = KDistance::new(4).with_max_flows(3);
        // Five flows each open with a reference (flow_index 0).
        for port in 0..5u16 {
            p.before_packet(&mk_meta(port, 0));
        }
        assert_eq!(p.tracked_flows(), 3, "map stays at its bound");
        // The two longest-tracked flows (ports 0, 1) were evicted: their
        // matches are refused until the next reference...
        assert!(!p.allow_match(&mk_meta(0, 1), &entry(999, 0), PacketId(0)));
        // ...while a surviving flow still matches within its group.
        let m = mk_meta(4, 1);
        let e = EntryMeta {
            flow: mk_flow(4),
            seq: SeqNum::new(999),
            seq_end: SeqNum::new(1000),
            flow_index: 0,
        };
        assert!(p.allow_match(&m, &e, PacketId(0)));
        // An evicted flow's next reference re-admits it (evicting the
        // now-oldest survivor, port 2).
        p.before_packet(&mk_meta(0, 4));
        assert_eq!(p.tracked_flows(), 3);
        assert!(!p.allow_match(&mk_meta(2, 1), &entry(999, 0), PacketId(0)));
    }

    #[test]
    fn cross_flow_refused() {
        use bytecache_packet::{FlowId, SeqNum};
        let mut p = KDistance::new(4);
        p.before_packet(&meta(1000, 0));
        let other = EntryMeta {
            flow: FlowId {
                src_port: 9,
                ..crate::policy::test_util::flow()
            },
            seq: SeqNum::new(1),
            seq_end: SeqNum::new(2),
            flow_index: 0,
        };
        assert!(!p.allow_match(&meta(1001, 1), &other, PacketId(0)));
    }
}
