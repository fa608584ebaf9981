//! TCP Sequence Number encoding (paper §V-B, Figure 7).

use crate::policy::{PacketMeta, Policy};
use crate::store::{EntryMeta, PacketId};

/// Encode a region only against a cache entry whose TCP sequence number
/// is *strictly smaller* than the current packet's (paper Fig. 7,
/// line B.7).
///
/// This guarantees a segment is never encoded against a succeeding
/// segment or itself — the circular-dependency fix — while, unlike
/// [`CacheFlush`](crate::policy::CacheFlush), keeping the full cache
/// history, so retransmitted segments can still be compressed against
/// genuinely *preceding* data.
///
/// The paper's surprise (§VII) is that this extra aggressiveness
/// backfires: the deeper dependency chains inflate the perceived loss
/// rate, and TCP retransmissions eat the savings.
///
/// Entries from *other* flows carry unrelated sequence spaces; comparing
/// them would be meaningless, so cross-flow matches are refused (the
/// paper evaluates a single flow and leaves this case open).
#[derive(Debug, Default, Clone)]
pub struct TcpSeq;

impl TcpSeq {
    /// New TCP Sequence Number policy.
    #[must_use]
    pub fn new() -> Self {
        TcpSeq
    }
}

impl Policy for TcpSeq {
    fn name(&self) -> &'static str {
        "tcp-seq"
    }

    fn allow_match(&self, meta: &PacketMeta, entry: &EntryMeta, _id: PacketId) -> bool {
        entry.flow == meta.flow && entry.seq.precedes(meta.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::{entry, flow, meta};
    use crate::policy::PrePacket;
    use bytecache_packet::{FlowId, SeqNum};

    #[test]
    fn allows_only_strictly_preceding_entries() {
        let p = TcpSeq::new();
        let m = meta(5000, 3);
        assert!(p.allow_match(&m, &entry(1000, 0), PacketId(0)));
        assert!(p.allow_match(&m, &entry(4999, 2), PacketId(2)));
        // Equal: the stored entry is (a copy of) this very segment.
        assert!(!p.allow_match(&m, &entry(5000, 3), PacketId(3)));
        // Succeeding.
        assert!(!p.allow_match(&m, &entry(6460, 4), PacketId(4)));
    }

    #[test]
    fn refuses_cross_flow_entries() {
        let p = TcpSeq::new();
        let m = meta(5000, 3);
        let other = EntryMeta {
            flow: FlowId {
                src_port: 81,
                ..flow()
            },
            seq: SeqNum::new(10),
            seq_end: SeqNum::new(1010),
            flow_index: 0,
        };
        assert!(!p.allow_match(&m, &other, PacketId(9)));
    }

    #[test]
    fn never_flushes() {
        let mut p = TcpSeq::new();
        assert_eq!(p.before_packet(&meta(100, 0)), PrePacket::default());
        assert_eq!(p.before_packet(&meta(50, 1)), PrePacket::default());
    }

    #[test]
    fn wrap_around_comparisons_hold() {
        let p = TcpSeq::new();
        let m = PacketMeta {
            seq: SeqNum::new(10),
            ..meta(0, 1)
        };
        // An entry just before the wrap point precedes seq 10.
        let e = EntryMeta {
            seq: SeqNum::new(u32::MAX - 100),
            ..entry(0, 0)
        };
        assert!(p.allow_match(&m, &e, PacketId(0)));
    }
}
