//! Cache Flush encoding (paper §V-A).

use std::collections::HashMap;

use bytecache_packet::{FlowId, SeqNum};

use crate::policy::{is_retransmission, PacketMeta, Policy, PrePacket};
use crate::store::{EntryMeta, FlowState, PacketId};

/// Flush the entire cache whenever a TCP retransmission is observed.
///
/// A retransmission is detected as a non-increasing TCP sequence number
/// within a flow. Flushing guarantees no retransmitted segment is ever
/// encoded against a succeeding segment or itself — they are sent raw —
/// at the cost of discarding all history, which also hurts the packets
/// *after* the retransmission.
///
/// Surprisingly (paper §VII), this bluntest policy wins under loss: by
/// truncating dependency chains at every retransmission it keeps the
/// *perceived* loss rate low, which matters more than compression ratio
/// once TCP's recovery machinery is in the loop.
///
/// Under a [`ShardedEncoder`](crate::ShardedEncoder) each shard runs its
/// own instance, so a retransmission flushes only the cache of the shard
/// whose flows it affects — the collateral damage of the flush is
/// confined to 1/N of the traffic.
#[derive(Debug, Default)]
pub struct CacheFlush {
    highest_seq: HashMap<FlowId, SeqNum, FlowState>,
    flushes: u64,
}

impl CacheFlush {
    /// New Cache Flush policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of flushes this policy has requested.
    #[must_use]
    pub fn flushes(&self) -> u64 {
        self.flushes
    }
}

impl Policy for CacheFlush {
    fn name(&self) -> &'static str {
        "cache-flush"
    }

    fn before_packet(&mut self, meta: &PacketMeta) -> PrePacket {
        if is_retransmission(&mut self.highest_seq, meta.flow, meta.seq) {
            self.flushes += 1;
            PrePacket {
                flush: true,
                suppress_encoding: false,
            }
        } else {
            PrePacket::default()
        }
    }

    fn allow_match(&self, _meta: &PacketMeta, _entry: &EntryMeta, _id: PacketId) -> bool {
        // The flush is the whole mechanism; matching is unrestricted.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::test_util::{entry, meta};

    #[test]
    fn flushes_on_sequence_decrease() {
        let mut p = CacheFlush::new();
        assert!(!p.before_packet(&meta(1000, 0)).flush);
        assert!(!p.before_packet(&meta(2460, 1)).flush);
        // Retransmission of 1000.
        let pre = p.before_packet(&meta(1000, 2));
        assert!(pre.flush);
        assert!(!pre.suppress_encoding, "retransmissions may still encode");
        assert_eq!(p.flushes(), 1);
    }

    #[test]
    fn flushes_on_repeat_of_highest() {
        let mut p = CacheFlush::new();
        assert!(!p.before_packet(&meta(1000, 0)).flush);
        assert!(p.before_packet(&meta(1000, 1)).flush);
    }

    #[test]
    fn no_flush_on_monotone_progress() {
        let mut p = CacheFlush::new();
        for i in 0..100u32 {
            assert!(!p.before_packet(&meta(1000 + i * 1460, u64::from(i))).flush);
        }
        assert_eq!(p.flushes(), 0);
    }

    #[test]
    fn matching_is_unrestricted() {
        let p = CacheFlush::new();
        assert!(p.allow_match(&meta(50, 1), &entry(100, 0), PacketId(0)));
    }
}
